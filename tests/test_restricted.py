"""The restricted rewriting variant: head constants of every arity."""

import os
import tempfile
from functools import reduce
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from bluebird import cycles, restricted, walk
from bluebird.errors import CycleNotFound, ParseError
from bluebird.restricted import (
    RApp,
    RConst,
    RestrictedEngine,
    find_rho_restricted,
    format_rterm,
    monomial_rterm,
    parse_rterm,
    rnormalize,
)

from .support import count_rconsts, reference_rnormalize


def T(s):
    return parse_rterm(s)


def test_parse_atoms():
    assert T("B") == RConst(0)
    assert T("B^0") == RConst(0)
    assert T("B^3") == RConst(3)
    assert T("B B") == RApp(RConst(0), RConst(0))
    assert T("B^2 (B B) B") == RApp(RApp(RConst(2), RApp(RConst(0), RConst(0))),
                                    RConst(0))


def test_parse_format_roundtrip():
    samples = ["B", "B^4", "B B B", "B (B B)", "B^2 (B^1 B) (B B^3)"]
    for s in samples:
        assert format_rterm(T(s)) == s
        assert T(format_rterm(T(s))) == T(s)


def test_parse_errors():
    for bad in ("", "B^", "B^x", "(B", "B)"):
        with pytest.raises(ParseError):
            parse_rterm(bad)


def test_contraction_rule_arity_three():
    # the arity-0 constant takes three arguments: head a b c -> a (b c)
    a, b, c = RConst(5), RConst(6), RConst(7)
    red = RApp(RApp(RApp(RConst(0), a), b), c)
    assert rnormalize(red) == RApp(a, RApp(b, c))


def test_contraction_rule_arity_four():
    a, b, c, d = RConst(5), RConst(6), RConst(7), RConst(8)
    red = RApp(RApp(RApp(RApp(RConst(1), a), b), c), d)
    assert rnormalize(red) == RApp(a, RApp(RApp(b, c), d))


def test_undersaturated_heads_are_normal():
    assert rnormalize(T("B B B")) == T("B B B")          # two args, needs three
    assert rnormalize(T("B^1 B B B")) == T("B^1 B B B")  # three args, needs four


def test_surplus_arguments_stay_applied():
    # head a b c d with an arity-0 head: contract on the first three, keep d
    got = rnormalize(T("B B B B B"))
    assert got == T("B (B B) B")


def test_monomial_rterm_encoding():
    assert monomial_rterm(0) == RConst(0)
    assert monomial_rterm(1) == RApp(RConst(0), RConst(0))
    assert monomial_rterm(4) == RApp(RConst(3), RConst(0))
    with pytest.raises(ValueError):
        monomial_rterm(-1)


def test_requivalent():
    # joinability under the restricted rule is equality of normal forms
    assert rnormalize(T("B B B B")) == rnormalize(T("B (B B)"))
    x = T("B B B B")
    assert rnormalize(x) == rnormalize(x)
    assert rnormalize(T("B B")) != rnormalize(T("B (B B)"))


def test_engine_hash_consing_is_stable():
    eng = RestrictedEngine()
    t = T("B^2 (B B) (B B)")
    assert eng.intern(t) == eng.intern(t)
    assert eng.extern(eng.intern(t)) == t


def test_every_id_names_a_normal_form():
    eng = RestrictedEngine()
    i = eng.intern(T("B B B B"))
    assert i == eng.intern(T("B (B B)"))
    assert eng.extern(i) == T("B (B B)")
    assert eng.normalize(i) == i


def test_long_contraction_chain_at_the_default_recursion_limit():
    # (B B^1 t) B^2 -> B^1 (t B^2): each contraction leaves the next one
    # inside its argument, so the chain nests n deep
    n = 10**5
    t = RConst(9)
    for _ in range(n):
        t = RApp(RApp(RConst(0), RConst(1)), t)
    eng = RestrictedEngine()
    i = eng.intern(RApp(t, RConst(2)))
    assert eng.steps == n
    assert format_rterm(eng.extern(i)) == "B^1 (" * n + "B^9 B^2" + ")" * n


def test_engine_counts_contractions():
    eng = RestrictedEngine()
    red = T("B B B B")      # exactly one contraction
    eng.intern(red)
    assert eng.steps == 1


def test_step_budget():
    # max_steps, advances, is the restricted search's one budget: B^1 B
    # takes 1,129 of them, and one short stops it
    with pytest.raises(CycleNotFound):
        find_rho_restricted(monomial_rterm(2), max_steps=1128)
    assert find_rho_restricted(monomial_rterm(2), max_steps=1129) == (274, 36)


def test_iterate_restricted_prefix():
    # normal forms of X(1) .. X(4), the orbit find_rho_restricted walks
    eng = RestrictedEngine()
    base = cur = eng.intern(T("B B"))
    got = []
    for _ in range(4):
        got.append(format_rterm(eng.extern(cur)))
        cur = eng.app(cur, base)
    assert got == ["B B", "B B (B B)", "B (B B (B B))", "B (B B (B B)) (B B)"]


def test_find_rho_restricted_small_values():
    assert find_rho_restricted(monomial_rterm(0)) == (9, 4)
    assert find_rho_restricted(monomial_rterm(1)) == (36, 20)
    for algorithm in ("floyd", "gosper"):
        with pytest.raises(ValueError):
            find_rho_restricted(monomial_rterm(1), algorithm=algorithm)


rterms = hs.recursive(hs.builds(RConst, hs.integers(0, 12)),
                      lambda sub: hs.builds(RApp, sub, sub), max_leaves=12)


@given(rterms)
def test_parse_format_roundtrip_sampled(t):
    assert parse_rterm(format_rterm(t)) == t


# a head applied to up to six arguments, with arities 0 to 2, so that
# redexes are common (rterms' arities up to 12 rarely saturate)
spines = hs.recursive(hs.builds(RConst, hs.integers(0, 2)),
                      lambda sub: hs.builds(reduce, hs.just(RApp),
                                            hs.lists(sub, min_size=1, max_size=6), sub),
                      max_leaves=24)


@given(hs.one_of(rterms, spines))
def test_engine_agrees_with_the_reference_contractor(t):
    nf, steps = reference_rnormalize(t)
    assert rnormalize(t) == nf
    # each contraction erases one constant and copies none
    assert steps == count_rconsts(t) - count_rconsts(nf)


def test_parse_errors_carry_bterm_messages():
    with pytest.raises(ParseError, match=r"empty input \(at position 0\)"):
        parse_rterm("  ")
    with pytest.raises(ParseError, match=r"unbalanced '\(' \(at position 2\)"):
        parse_rterm("B (B")
    with pytest.raises(ParseError, match="unexpected character 'B'"):
        parse_rterm("B B^x")


def test_deep_text_and_terms():
    n = 10**5
    text = "B (" * n + "B^2 B" + ")" * n
    t = parse_rterm(text)
    assert format_rterm(t) == text
    u = parse_rterm(text)
    assert t is not u
    assert t == u
    assert hash(t) == hash(u)
    assert repr(t) == f"RApp<{text}>"
    assert t != parse_rterm("B (" * n + "B^3 B" + ")" * n)
    assert repr(RApp(RConst(2), RConst(0))) == "RApp<B^2 B>"


@pytest.fixture
def lib():
    lib = walk.load(walk.RSOURCE)
    if lib is None:
        pytest.skip("no C compiler to build the compiled restricted walk")
    return lib


@pytest.fixture(params=["c", "py"])
def route(request):
    """Runs a test once on the compiled restricted walk and once on the
    Python stepper."""
    if request.param == "c" and walk.load(walk.RSOURCE) is None:
        pytest.skip("no C compiler to build the compiled restricted walk")
    return request.param


def _search(t, max_steps, route, chunk=1 << 20, tick=None):
    """find_rho_restricted's search of t on one stepper, "c" or "py": its
    RhoResult or CycleNotFound, the contractions, the nodes made in all and
    the nodes held at the end."""
    eng = RestrictedEngine()
    base = eng.intern(t)
    if route == "c":
        stepper = restricted.CStepper(walk.load(walk.RSOURCE), eng, base)
    else:
        stepper = restricted.PyStepper(eng, base)
    try:
        st = cycles.start(base, lambda i: stepper.walk(i, None, 1, False)[0])
        got = cycles.search(st, stepper, max_steps, tick=tick and (lambda st: tick(stepper)),
                            chunk=chunk)
    except CycleNotFound:
        got = CycleNotFound
    finally:
        if route == "c":
            stepper.close()
    return got, eng.steps, stepper.counts[2], stepper.counts[3]


@settings(deadline=None, max_examples=150)
@given(hs.one_of(rterms, spines, hs.builds(monomial_rterm, hs.integers(0, 3))),
       hs.integers(1, 20000), hs.integers(1, 400),
       hs.sampled_from([1, 2, 7, 64, restricted.COMPACT_EVERY]))
def test_compiled_walk_matches_python(t, max_steps, chunk, every):
    # the same answer, contractions and nodes at every compaction interval,
    # and the answer of a search whose tables only grow; the chunk only
    # changes how the compiled side's work is cut up
    if walk.load(walk.RSOURCE) is None:
        pytest.skip("no C compiler to build the compiled restricted walk")
    with mock.patch.object(restricted, "COMPACT_EVERY", every):
        want = _search(t, max_steps, "py")
        assert _search(t, max_steps, "c", chunk) == want
    eng = RestrictedEngine()
    base = eng.intern(t)
    try:
        got = cycles.brent_rho(base, lambda i: eng.app(i, base), max_steps)
    except CycleNotFound:
        got = CycleNotFound
    assert got == want[0]


@settings(deadline=None, max_examples=60)
@given(hs.one_of(rterms, spines, hs.builds(monomial_rterm, hs.integers(0, 3))),
       hs.integers(1, 400), hs.integers(1, 400), hs.sampled_from([1, 4, 64]),
       hs.sampled_from(["c", "py"]))
def test_derived_budget_bounds_every_search(t, stop, more, every, route):
    # every contraction erases one constant and copies none, and each of
    # Brent's three walks starts at the base or at a resumed state, so a run
    # makes at most c(term) + (advances + 3) c(base) + c(slow) + c(fast)
    # contractions, the last two for a resumed one: max_steps bounds the
    # contractions of the search that engine(t) runs
    if route == "c" and walk.load(walk.RSOURCE) is None:
        pytest.skip("no C compiler to build the compiled restricted walk")
    engines, runs, c = [], [], count_rconsts
    base = c(rnormalize(t))

    class Recorded(RestrictedEngine):
        def __init__(self):
            engines.append(self)
            super().__init__()

    fits = restricted.fits if route == "c" else (lambda eng: False)
    with (mock.patch.object(restricted, "COMPACT_EVERY", every),
          mock.patch.object(restricted, "fits", fits),
          mock.patch.object(restricted, "RestrictedEngine", Recorded),
          tempfile.TemporaryDirectory() as tmp):
        path = os.path.join(tmp, "ck")
        starts = 0
        for max_steps, resume in ((stop, False), (more, True)):
            try:
                cycles.run(restricted.engine(t), max_steps, path, resume=resume,
                           on_start=runs.append)
                break
            except CycleNotFound:
                st = cycles.load(path, "restricted", parse_rterm, parse_rterm)
                starts = c(st.slow) + c(st.fast)
            finally:
                assert engines[-1].steps <= c(t) + (runs[-1].advances + 3) * base + starts * resume


def test_compaction_between_chunks(lib, monkeypatch):
    # one advance per call: every compaction opens a call, with only the
    # ids the search passes back in
    monkeypatch.setattr(restricted, "COMPACT_EVERY", 64)
    want = _search(monomial_rterm(3), 10**5, "c")
    assert want[0] == (4267, 5796) and want[2] > want[3]
    assert _search(monomial_rterm(3), 10**5, "c", chunk=1) == want
    assert _search(monomial_rterm(3), 10**5, "py", chunk=1) == want


def test_compaction_cost_is_amortized(monkeypatch):
    # the gap between compactions grows to the nodes the last one kept, so
    # at an interval of 1 the degree-3 search compacts 3,813 times, not at
    # nearly each of its advances; the compiled walk follows the same
    # schedule, as test_compiled_walk_matches_python checks
    monkeypatch.setattr(restricted, "COMPACT_EVERY", 1)
    calls, compact = [], restricted.PyStepper._compact

    def counted(self, a, b):
        calls.append(None)
        return compact(self, a, b)

    monkeypatch.setattr(restricted.PyStepper, "_compact", counted)
    assert _search(monomial_rterm(3), 10**5, "py")[:2] == ((4267, 5796), 56439)
    assert len(calls) == 3813


@pytest.mark.parametrize("every", [1, 2])
def test_compiled_walk_follows_the_amortized_schedule(lib, monkeypatch, every):
    # at the smallest intervals nearly every advance would compact but for
    # the amortized gap: the compiled walk keeps the Python stepper's
    # contractions, nodes made and nodes held on the whole degree-3 search
    monkeypatch.setattr(restricted, "COMPACT_EVERY", every)
    want = _search(monomial_rterm(3), 10**5, "py")
    assert want[:2] == ((4267, 5796), 56439)
    assert _search(monomial_rterm(3), 10**5, "c") == want


def test_compaction_on_a_budget_stop(lib, monkeypatch):
    # a max_steps that runs out in the walk call right after a compaction:
    # in phase 1 each call of one advance follows the advances already
    # made, the start's and one a tick
    monkeypatch.setattr(restricted, "COMPACT_EVERY", 64)
    at, ticks, compact = [], [], restricted.PyStepper._compact

    def record(self, a, b):
        at.append(len(ticks) + 1)  # the advances made before this call
        return compact(self, a, b)

    def search(max_steps, route):
        ticks.clear()
        return _search(monomial_rterm(3), max_steps, route, chunk=1,
                       tick=lambda s: ticks.append(None))

    monkeypatch.setattr(restricted.PyStepper, "_compact", record)
    search(10**5, "py")
    stop = at[len(at) // 4] + 1  # phase 1 ends at advance 13,988
    at.clear()
    want = search(stop, "py")
    assert want[0] is CycleNotFound and at[-1] == stop - 1
    assert search(stop, "c") == want


@pytest.mark.parametrize("every", [7, 2**14])
@pytest.mark.parametrize("text", ["B B B B", "B^2 B B B B B (B B)"])
def test_steppers_start_from_one_pair_per_node(lib, monkeypatch, text, every):
    # interning a base that is not normal memoizes its redexes too; a
    # stepper drops those memos and starts from one pair per node, as after
    # a compaction, and both steppers still agree on everything
    eng = RestrictedEngine()
    base = eng.intern(T(text))
    assert len(eng._apps) > len(eng._node)
    restricted.PyStepper(eng, base)
    assert len(eng._apps) == len(eng._node)
    monkeypatch.setattr(restricted, "COMPACT_EVERY", every)
    got = [_search(T(text), 5000, route) for route in ("c", "py")]
    assert got[0] == got[1]


def _held_after_each_chunk(degree, advances, route, chunk):
    """The nodes the search's base holds, and the nodes held after each
    chunk of a search stopped after advances advances."""
    held = []
    read = (lambda s: s.counts[3]) if route == "c" else (lambda s: len(s.eng._node))
    eng = RestrictedEngine()
    eng.intern(monomial_rterm(degree))
    got = _search(monomial_rterm(degree), advances, route, chunk,
                  tick=lambda s: held.append(read(s)))
    assert got[0] is CycleNotFound
    return len(eng._node), held


def test_search_tables_stay_bounded(lib, monkeypatch):
    # without compaction degree 5 holds 2,173,487 nodes after 5*10^5 advances
    keep, held = _held_after_each_chunk(5, 5 * 10**5, "c", 1 << 12)
    assert len(held) > 100 and max(held) <= keep + restricted.COMPACT_EVERY + 256
    monkeypatch.setattr(restricted, "COMPACT_EVERY", 64)
    keep, held = _held_after_each_chunk(4, 2 * 10**4, "py", 64)
    assert len(held) > 100 and max(held) <= keep + 64 + 256


def test_degree_three_budget_edge(route):
    # degree 3 takes 28,315 advances and 52,906 contractions; a max_steps
    # one advance short stops it after 52,898
    base = monomial_rterm(3)
    assert _search(base, 28314, route)[:2] == (CycleNotFound, 52898)
    assert _search(base, 28315, route)[:2] == ((4267, 5796), 52906)


@pytest.mark.parametrize("degree,want", [
    (0, ((9, 4), 8, 12)),
    (1, ((36, 20), 74, 80)),
    (2, ((274, 36), 520, 679)),
    (3, ((4267, 5796), 52906, 83601)),
    (4, ((191249, 431453), 3478620, 6862852)),
])
def test_both_routes_pin_degrees_zero_to_four(route, degree, want):
    # degree 4 takes about 0.6 s compiled and 15 s in Python
    if route == "py" and degree == 4 and not os.environ.get("RUN_SLOW"):
        pytest.skip("about 15 s on the Python stepper; set RUN_SLOW=1 to enable")
    assert _search(monomial_rterm(degree), cycles.MAX_STEPS, route)[:3] == want


@pytest.mark.skipif(not os.environ.get("RUN_SLOW"),
                    reason="about 22 min and 16 MB compiled; set RUN_SLOW=1 to enable")
def test_degree_five_checks_the_cycle_of_b5b(lib):
    # a second route to B^5 B's cycle length (234444571), in another
    # rewriting system: 3,075,113,667 advances and 6,133,257,743 contractions
    assert find_rho_restricted(monomial_rterm(5)) == (
        766241352, 234444571)


def test_every_search_frees_its_tables(lib, monkeypatch):
    # a search that ends, one stopped by its budget and one a walk call
    # raised in; rewrite_budget is accepted and bounds nothing
    closed = []
    close = restricted.CStepper.close
    monkeypatch.setattr(restricted.CStepper, "close", lambda self: closed.append(close(self)))
    assert find_rho_restricted(monomial_rterm(2)) == (274, 36)
    assert find_rho_restricted(monomial_rterm(3), rewrite_budget=100) == (4267, 5796)
    with pytest.raises(CycleNotFound):
        find_rho_restricted(monomial_rterm(3), max_steps=100)
    monkeypatch.setattr(restricted.CStepper, "walk", mock.Mock(side_effect=KeyboardInterrupt))
    with pytest.raises(KeyboardInterrupt):
        find_rho_restricted(monomial_rterm(3))
    assert len(closed) == 4


def test_closed_stepper_raises(lib):
    eng = RestrictedEngine()
    base = eng.intern(monomial_rterm(2))
    stepper = restricted.CStepper(lib, eng, base)
    assert stepper.extern(base) == monomial_rterm(2)
    stepper.close()
    stepper.close()
    with pytest.raises(ValueError, match="closed"):
        stepper.walk(base, None, 1, False)
    with pytest.raises(ValueError, match="closed"):
        stepper.extern(base)
