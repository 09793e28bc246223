"""The compiled orbit walks: _walk.c's bb_walk behind CStepper.walk, the
one call of a cycles.Stepper, over canonical.DegreeSeq states, and the
library of _rwalk.c, which restricted.CStepper drives; _walk.c's bb_fold
is canonical.canonicalize's fold, and _lambda.c's ln_normal is
lambda_oracle._normal.

load(source) compiles a C source with cc on first use, into
$XDG_CACHE_HOME/bluebird (else ~/.cache/bluebird) under a name made of the
source's own name, CRC-32 and length, removes the libraries of earlier
versions of that source from there, and loads it with ctypes, imported
only then; it returns None when there is no compiler, the cache cannot be
written or the library fails.
"""

from __future__ import annotations

import functools
import glob
import os
import zlib

from . import cycles
from .canonical import DegreeSeq, _seq

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_walk.c")
RSOURCE = os.path.join(os.path.dirname(SOURCE), "_rwalk.c")
LSOURCE = os.path.join(os.path.dirname(SOURCE), "_lambda.c")
LIMIT = 1 << 62  # bound on every stored degree and multiplicity


@functools.cache
def load(source: str = SOURCE):
    """The loaded library of source, SOURCE, RSOURCE or LSOURCE, or None."""
    import ctypes
    import subprocess

    name = os.path.basename(source)[1:-2]  # "walk" for _walk.c: no prefix is another's
    try:
        with open(source, "rb") as fh:
            src = fh.read()
        cache = os.path.join(os.environ.get("XDG_CACHE_HOME")
                             or os.path.expanduser("~/.cache"), "bluebird")
        path = os.path.join(cache, f"{name}-{zlib.crc32(src):08x}-{len(src)}.so")
        if not os.path.exists(path):
            os.makedirs(cache, exist_ok=True)
            tmp = f"{path}.{os.getpid()}.tmp"
            try:
                subprocess.run(["cc", "-O2", "-shared", "-fPIC", "-o", tmp, source],
                               check=True, capture_output=True)
                os.replace(tmp, path)
            finally:
                if os.path.exists(tmp):
                    os.remove(tmp)
            for old in glob.glob(os.path.join(glob.escape(cache), f"{name}-*.so")):
                if old != path:
                    try:
                        os.remove(old)  # a process that loaded it keeps its mapping
                    except OSError:
                        pass
        lib = ctypes.CDLL(path)
    except (OSError, subprocess.CalledProcessError):
        return None
    ptr, int64, tables = ctypes.POINTER(ctypes.c_int64), ctypes.c_int64, ctypes.c_void_p
    if source == SOURCE:
        lib.bb_walk.argtypes = [ptr, ptr, ctypes.c_int, ptr, int64, int64, ptr]
        lib.bb_walk.restype = ctypes.c_int
        lib.bb_fold.argtypes = [ctypes.c_char_p, int64, ptr, int64]
        lib.bb_fold.restype = ctypes.c_int
    elif source == LSOURCE:
        lib.ln_normal.argtypes = [ctypes.c_char_p, int64, int64, ctypes.POINTER(ctypes.c_void_p)]
        lib.ln_normal.restype = int64
        lib.ln_free.argtypes = [ctypes.c_void_p]
        lib.ln_free.restype = None
    else:
        lib.rr_new.argtypes = [ptr, int64, int64, int64, int64]
        lib.rr_new.restype = tables
        lib.rr_walk.argtypes = [tables, ptr, ptr, ctypes.c_int, int64, ptr]
        lib.rr_walk.restype = ctypes.c_int
        lib.rr_nodes.argtypes = [tables]
        lib.rr_nodes.restype = ctypes.POINTER(ctypes.c_int32)
        lib.rr_free.argtypes = [tables]
        lib.rr_free.restype = None
    return lib


def fold(lib, codes: bytes) -> tuple[tuple[int, ...], int]:
    """The flat runs and offset of the term whose post-order is codes, 0 for
    B and 1 for an application, by lib's bb_fold: canonical._fold's result."""
    import ctypes

    out = (ctypes.c_int64 * (5 * len(codes) // 2 + 3))()  # bb_fold's 5 ints a leaf
    if lib.bb_fold(codes, len(codes), out, len(out)):
        raise ValueError("codes are not the post-order of one term")
    return tuple(out[2:out[0] + 2]), out[1]


def fits(base: DegreeSeq, states: tuple[DegreeSeq, ...], max_steps: int) -> bool:
    """Whether stored numbers stay below LIMIT for max_steps more advances of each
    of states over base: an advance adds one to the offset and at most the base's
    units to the units, and a merged degree is at most base top + t + units + 1."""
    grow = base.flat[0] + max_steps * (1 + len(base))
    return all(s.flat[0] + s.t + len(s) + grow < LIMIT for s in (base, *states))


class CStepper(cycles.Stepper):
    """Stepper.walk run by the compiled walk over one base. States stay
    DegreeSeqs between calls; a call copies them into two persistent buffers
    [n, t, D0, m0, ...] and back out, O(runs) per call."""

    name = "c"

    def __init__(self, lib, base: DegreeSeq, cap: int = 1024) -> None:
        import ctypes

        self.lib, self.int64 = lib, ctypes.c_int64
        self.base = (self.int64 * (len(base.flat) + 2))(len(base.flat), base.t, *base.flat)
        self.bufs = [(self.int64 * cap)() for _ in range(2)]
        self.made = self.int64()

    def walk(self, a, b, k, both):
        # on -1 the states reached go into buffers at least twice the size
        n = 0
        while True:
            states = [a] if b is None else [a, b]
            cap = len(self.bufs[0])
            need = 2 + self.base[0] + max(len(s.flat) for s in states)
            if need > cap:
                cap = max(need, 2 * cap)
                self.bufs = [(self.int64 * cap)() for _ in self.bufs]
            for buf, s in zip(self.bufs, states):
                buf[0], buf[1] = len(s.flat), s.t
                buf[2:len(s.flat) + 2] = s.flat
            x, y = self.bufs
            status = self.lib.bb_walk(x, None if b is None else y, both, self.base, cap,
                                      k - n, self.made)
            n += self.made.value
            a = _seq(tuple(x[2:x[0] + 2]), x[1])
            if both:
                b = _seq(tuple(y[2:y[0] + 2]), y[1])
            if status >= 0:
                return a, b, n, status == 1
