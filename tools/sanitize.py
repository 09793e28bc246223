"""The parity tests against sanitized builds of the compiled libraries.

    python3 tools/sanitize.py [extra pytest arguments]

Builds every src/bluebird/*.c with AddressSanitizer and UBSan
(-O1 -g -fsanitize=address,undefined -fno-sanitize-recover) into a
temporary XDG_CACHE_HOME, under the names that walk.load looks for, so that
the package loads these builds instead of making its own. It checks that
it does, then runs the parity tests (test_walk, test_restricted,
test_lambda_oracle, test_fast_apply, test_canonical, test_bterm) with the compiler's
own libasan and libubsan preloaded into the interpreter, and pytest's
output capture off, so that every sanitizer report reaches the tool's
stderr, which it passes on. Exit 0 when the tests pass and no report was
printed, 1 otherwise, 2 when the compiler or a sanitizer runtime is
missing. Leak checking is off, as the interpreter keeps some of its own
allocations to the end, and RUN_SLOW is unset for the tests, whose slow
cases would take hours sanitized.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import tempfile
import zlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
FLAGS = ["-O1", "-g", "-fsanitize=address,undefined", "-fno-sanitize-recover"]
TESTS = ["test_walk", "test_restricted", "test_lambda_oracle", "test_fast_apply",
         "test_canonical", "test_bterm"]
# in the child: the library walk.load picks for each source, one path a line
LOADED = ("import sys; from bluebird import walk; "
          "[print(walk.load(s)._name) for s in sys.argv[1:]]")
REPORT = re.compile(r"runtime error: |ERROR: \w*Sanitizer")  # UBSan's, else ASan's first line


def library(cache: str, source: Path) -> str:
    """walk.load's path for source's library in cache: the source's own
    name, CRC-32 and length."""
    data = source.read_bytes()
    return os.path.join(cache, "bluebird",
                        f"{source.name[1:-2]}-{zlib.crc32(data):08x}-{len(data)}.so")


def runtimes() -> list[str]:
    """The compiler's libasan and libubsan, or [] when either is missing."""
    found = []
    for lib in ("libasan.so", "libubsan.so"):
        try:
            path = subprocess.run(["cc", f"-print-file-name={lib}"], capture_output=True,
                                  text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return []
        if not os.path.isabs(path):  # cc prints the bare name of a file it cannot find
            return []
        found.append(path)
    return found


def main(argv: list[str]) -> int:
    preload = runtimes()
    if not preload:
        print("sanitize: no cc with libasan and libubsan", file=sys.stderr)
        return 2
    sources = sorted((SRC / "bluebird").glob("*.c"))
    with tempfile.TemporaryDirectory() as tmp:
        paths = [library(tmp, source) for source in sources]
        os.makedirs(os.path.join(tmp, "bluebird"))
        for source, path in zip(sources, paths):
            if subprocess.run(["cc", *FLAGS, "-shared", "-fPIC", "-o", path,
                               str(source)]).returncode:
                print(f"sanitize: cannot build {source.name}", file=sys.stderr)
                return 1
        env = dict(os.environ, XDG_CACHE_HOME=tmp, LD_PRELOAD=" ".join(preload),
                   ASAN_OPTIONS="detect_leaks=0", UBSAN_OPTIONS="print_stacktrace=1",
                   PYTHONPATH=os.pathsep.join(filter(None, [str(SRC),
                                                            os.environ.get("PYTHONPATH")])))
        env.pop("RUN_SLOW", None)  # Tier-1's cases: the slow ones take hours sanitized
        loaded = subprocess.run([sys.executable, "-c", LOADED, *map(str, sources)], env=env,
                                capture_output=True, text=True, cwd=ROOT)
        if loaded.stdout.split() != paths:
            print(f"sanitize: the package did not load the sanitized builds\n"
                  f"{loaded.stdout}{loaded.stderr}", file=sys.stderr)
            return 1
        tests = [str(ROOT / "tests" / f"{name}.py") for name in TESTS]
        # a sanitizer writes its report to fd 2, where pytest's capture would
        # lose it when the report ends the process
        with subprocess.Popen([sys.executable, "-m", "pytest", "-q", "-s", "-p",
                               "no:cacheprovider", *tests, *argv], env=env, cwd=ROOT,
                              stderr=subprocess.PIPE, text=True, errors="replace") as proc:
            reports = 0
            for line in proc.stderr:
                sys.stderr.write(line)
                reports += bool(REPORT.search(line))
        if reports:
            print(f"sanitize: {reports} sanitizer report(s)", file=sys.stderr)
        return 1 if proc.returncode or reports else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
