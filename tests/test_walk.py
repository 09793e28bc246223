"""The compiled orbit walk against the Python stepper, and its fallback."""

import importlib.resources
import os
import random
import subprocess
import sys
import zlib
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

import bluebird
from bluebird import cycles, restricted, walk
from bluebird.bterm import App, B, flat, monomial, parse
from bluebird.canonical import _fold, apply_poly, canonicalize
from bluebird.cycle_detect import find_rho
from bluebird.errors import CycleNotFound

from .support import bterm_strategy


@pytest.fixture
def lib():
    lib = walk.load()
    if lib is None:
        pytest.skip("no C compiler to build the compiled walk")
    return lib


def test_interrupt_at_every_tick_resumes(lib, tmp_path):
    # with checkpoint_interval=1 every iteration is one chunk and one tick.
    # Each run is interrupted at its first tick by a Ctrl-C raised from the
    # hook and the next run resumes from the checkpoint that interrupt
    # wrote, so the chain stops at every tick of the search once. Restarting
    # from scratch for every tick would write each periodic checkpoint again.
    ticks = []
    assert tuple(find_rho("B^2 B", checkpoint_interval=1, state_hook=ticks.append)) == (258, 36)
    path = str(tmp_path / "ck")
    states, interrupts, resume = [], 0, False

    def hook(st):
        raise KeyboardInterrupt

    while True:
        try:
            r = find_rho("B^2 B", checkpoint_path=path, checkpoint_interval=1, resume=resume,
                         state_hook=hook, on_start=states.append)
            break
        except KeyboardInterrupt:
            interrupts, resume = interrupts + 1, True
    assert tuple(r) == (258, 36)
    assert not os.path.exists(path)
    assert interrupts == len(ticks) == 804
    assert {st.stepper for st in states} == {"c"}
    assert sum(st.advances for st in states) == 1097


def _pair(x, cap):
    """Fresh searches over the orbit of x with the Python stepper and with
    a compiled one whose buffers start at cap ints."""
    first = canonicalize(x)

    def f(state):
        return apply_poly(state, first)

    return [(cycles.start(first, f), cycles.Stepper(f)),
            (cycles.start(first, f), walk.CStepper(walk.load(), first, cap))]


def _same_position(a, b):
    assert (a.phase, a.step, a.advances, a.candidate_c) == (b.phase, b.step, b.advances,
                                                            b.candidate_c)
    assert (a.slow.runs, a.fast.runs) == (b.slow.runs, b.fast.runs)


@settings(deadline=None, max_examples=80)
@given(bterm_strategy(), hs.lists(hs.integers(1, 400), min_size=1, max_size=4),
       hs.integers(1, 300), hs.integers(4, 64))
def test_compiled_walk_matches_python(x, budgets, chunk, cap):
    # stop-and-resume points are the budgets; the chunk and the starting
    # buffer size only change how the work is cut up
    if walk.load() is None:
        pytest.skip("no C compiler to build the compiled walk")
    pair = _pair(x, cap)
    for budget in budgets:
        answers = []
        for st, stepper in pair:
            try:
                answers.append(cycles.search(st, stepper, budget, chunk=chunk))
            except CycleNotFound:
                answers.append(None)
        assert answers[0] == answers[1]
        _same_position(pair[0][0], pair[1][0])
        if answers[0] is not None:
            break


def test_buffers_grow_on_a_growing_orbit(lib):
    # B B B never repeats and its state keeps growing: from 8 ints the
    # buffers double several times, between and inside calls
    pair = _pair(parse("B B B"), 8)
    for st, stepper in pair:
        with pytest.raises(CycleNotFound):
            cycles.search(st, stepper, 3000, chunk=700)
    _same_position(pair[0][0], pair[1][0])
    assert len(pair[1][1].bufs[0]) >= len(pair[1][0].fast.flat) + 2 > 100


def test_python_stepper_without_a_compiler(tmp_path):
    # no cc on the PATH and an empty cache: every search still runs, in Python
    src = str(Path(bluebird.__file__).resolve().parents[1])
    env = dict(os.environ, PATH="", XDG_CACHE_HOME=str(tmp_path), PYTHONPATH=src)
    code = ("from bluebird import find_rho, find_rho_restricted, monomial_rterm; "
            "from bluebird.cli import main; st = []; "
            "print(tuple(find_rho('B^3 B', on_start=st.append)), st[0].stepper); "
            "print(tuple(find_rho_restricted(monomial_rterm(3)))); "
            "print(main(['canon', 'B (B B) B']), main(['eq', 'B B B B', 'B (B B)'])); "
            "main(['rho', '--engine', 'lambda', 'B B'])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=300)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, "(4240, 5796) py\n(4267, 5796)\n[1,0]\ntrue\n0 0\nrho = (32, 20)\n", "")
    assert not list(tmp_path.rglob("*.so"))


def test_import_loads_no_library():
    # the compiled walks load on first use: importing the package runs no
    # compiler and imports neither ctypes nor subprocess
    src = str(Path(bluebird.__file__).resolve().parents[1])
    code = ("import sys, bluebird, bluebird.lambda_oracle; "
            "print('ctypes' in sys.modules, 'subprocess' in sys.modules, "
            "bluebird.walk.load.cache_info().currsize)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False False 0\n", "")


def test_lambda_oracle_loads_its_own_library_alone():
    # rho_lambda builds _lambda.c on its first normal form and asks for no
    # engine's walk: the oracle shares no code with the engines it checks
    if walk.load(walk.LSOURCE) is None:
        pytest.skip("no C compiler to build the compiled machine")
    src = str(Path(bluebird.__file__).resolve().parents[1])
    code = ("from bluebird import lambda_oracle as lo, walk; "
            "real, asked = walk.load, set(); "
            "walk.load = lambda *a: asked.add(a) or real(*a); "
            "print(tuple(lo.rho_lambda(lo.bterm_to_lambda(lo.bt.parse('B B')))), "
            "asked == {(walk.LSOURCE,)}, real.cache_info().currsize, "
            "real(walk.LSOURCE) is not None)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "(32, 20) True 1 True\n", "")


def _folds(x):
    """(flat, t) of canonicalize(x) by the compiled fold and by _fold."""
    got = canonicalize(x)
    with patch.object(walk, "load", lambda: None):
        want = canonicalize(x)
    return (got.flat, got.t), (want.flat, want.t)


@settings(deadline=None, max_examples=300)
@given(bterm_strategy(16))
def test_compiled_fold_matches_python(x):
    if walk.load() is None:
        pytest.skip("no C compiler to build the compiled walk")
    got, want = _folds(x)
    assert got == want


def _fold_outcome(fold, codes):
    try:
        return fold(codes)
    except ValueError as e:
        return ValueError, str(e)


@settings(deadline=None, max_examples=300)
@given(hs.lists(hs.integers(0, 2), max_size=40).map(bytes))
@example(b"")
@example(b"\x01")
@example(b"\x00\x00")
@example(b"\x00\x00\x01\x01")
def test_both_folds_end_alike_on_any_codes(codes):
    # most strings of codes are not one term's post-order: both folds must
    # give the same runs and offset, or refuse with the same ValueError
    lib = walk.load()
    if lib is None:
        pytest.skip("no C compiler to build the compiled walk")
    compiled = _fold_outcome(lambda c: walk.fold(lib, c), codes)
    assert compiled == _fold_outcome(_fold, codes)


def _random_term(rng, leaves):
    """A random application tree of exactly `leaves` leaves, built by joining
    adjacent subterms at random."""
    items = [B] * leaves
    while len(items) > 1:
        i = rng.randrange(len(items) - 1)
        items[i:i + 2] = [App(items[i], items[i + 1])]
    return items[0]


def test_compiled_fold_matches_python_on_large_and_deep_terms(lib):
    rng = random.Random(20)
    terms = [_random_term(rng, 10**4) for _ in range(3)]
    terms += [monomial(10**5), flat(B, 10**5), parse("(" * 600 + "B B" + ")" * 600)]
    for x in terms:
        got, want = _folds(x)
        assert got == want


def test_a_build_removes_stale_libraries(lib, tmp_path, monkeypatch):
    # a library of another version of a source in the cache goes once the
    # current one is built, and a build of one source keeps the other's
    cache = tmp_path / "bluebird"
    cache.mkdir()
    (cache / "walk-00000000-1.so").write_bytes(b"")
    (cache / "rwalk-00000000-1.so").write_bytes(b"")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    walk.load.cache_clear()
    try:
        assert walk.load() is not None
        assert walk.load(walk.RSOURCE) is not None
        assert walk.load() is not None
    finally:
        walk.load.cache_clear()
    names = []
    for name, source in (("rwalk", walk.RSOURCE), ("walk", walk.SOURCE)):
        src = Path(source).read_bytes()
        names.append(f"{name}-{zlib.crc32(src):08x}-{len(src)}.so")
    assert sorted(p.name for p in cache.iterdir()) == names


def test_walk_source_ships_with_the_package():
    for name, entry in (("_walk.c", "int bb_walk("), ("_rwalk.c", "int rr_walk("),
                        ("_lambda.c", "int64_t ln_normal(")):
        source = importlib.resources.files("bluebird").joinpath(name)
        assert source.is_file()
        assert entry in source.read_text()


def test_every_c_source_is_package_data():
    # an installed package without one of them would run that part in Python
    tomllib = pytest.importorskip("tomllib")
    package = Path(bluebird.__file__).resolve().parent
    with open(package.parents[1] / "pyproject.toml", "rb") as fh:
        data = tomllib.load(fh)["tool"]["setuptools"]["package-data"]["bluebird"]
    sources = {p.name for p in package.glob("*.c")}
    assert {"_walk.c", "_rwalk.c", "_lambda.c"} <= sources <= set(data)


class Stop(Exception):
    pass


def test_budgets_near_the_integer_limit_run_in_python(lib):
    # within 2^61 advances a stored degree could pass the compiled walk's
    # 64-bit integers, so such a search runs the Python stepper
    started = []

    def stop(st):
        raise Stop

    with pytest.raises(Stop):
        find_rho("B^4 B", max_steps=2**61, state_hook=stop, on_start=started.append)
    with pytest.raises(CycleNotFound):
        find_rho("B^4 B", max_steps=10, on_start=started.append)
    assert [st.stepper for st in started] == ["py", "c"]


def test_steppers_expose_one_call():
    # the search asks a stepper for advances through walk alone, and
    # cycles.run closes it; the compiled restricted one frees its tables
    # there, and the restricted ones read their states back as terms
    assert [n for n in vars(cycles.Stepper) if not n.startswith("_")] == [
        "name", "walk", "close"]
    assert [n for n in vars(walk.CStepper) if not n.startswith("_")] == ["name", "walk"]
    assert [n for n in vars(restricted.PyStepper) if not n.startswith("_")] == ["walk"]
    assert [n for n in vars(restricted.CStepper) if not n.startswith("_")] == [
        "name", "walk", "extern", "close"]
