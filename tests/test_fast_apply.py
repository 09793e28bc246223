"""Direct application on canonical forms, checked against full canonicalization."""

import pickle

from hypothesis import given, settings
from hypothesis import strategies as hs

from bluebird import bterm as bt
from bluebird.canonical import (
    DegreeSeq,
    apply_poly,
    apply_runs,
    canonical_via_lambda,
    canonicalize,
    parse_seq,
    raise_runs,
    seq_to_bterm,
)

from .support import bterm_strategy, eager_apply_runs


def S(text):
    return parse_seq(text)


def test_apply_poly_golden():
    assert apply_poly(S("[4,1,0]"), S("[2,0]")) == S("[5,3,2,0]")


def test_apply_poly_small_cases():
    assert apply_poly(S("[0]"), S("[0]")) == S("[1]")
    assert apply_poly(S("[1]"), S("[0]")) == S("[0,0]")
    assert apply_poly(S("[0,0]"), S("[0]")) == S("[2]")
    assert apply_poly(S("[2]"), S("[0]")) == S("[1,0]")
    assert apply_poly(S("[1,0]"), S("[0]")) == S("[2,0]")


def test_compose_decreasing():
    # the canonical form of B a b is a's units with b's merged in by the swap law
    a, b = seq_to_bterm(S("[4,1,0]")), seq_to_bterm(S("[3,1]"))
    paired = bt.App(bt.App(bt.B, a), b)
    assert canonicalize(paired) == S("[6,4,3,1,0]")


def test_apply_runs_is_apply_poly():
    a, b = S("[5,5,2]"), S("[3,0]")
    assert apply_runs(a.runs, raise_runs(b.runs)) == apply_poly(a, b).runs


def test_apply_matches_term_application_sampled():
    pairs = [("[0]", "[1]"), ("[2,0]", "[2,0]"), ("[3,3]", "[1,0,0]"),
             ("[4]", "[0]"), ("[1,1,1]", "[2]")]
    for sa, sb in pairs:
        a, b = S(sa), S(sb)
        term = bt.App(seq_to_bterm(a), seq_to_bterm(b))
        assert apply_poly(a, b) == canonicalize(term)


@settings(deadline=None)
@given(bterm_strategy(), bterm_strategy())
def test_apply_matches_lambda_route(x, y):
    # canonicalize runs the same kernel as apply_poly, so the lambda oracle
    # is the independent route here
    a, b = canonical_via_lambda(x), canonical_via_lambda(y)
    term = bt.App(seq_to_bterm(a), seq_to_bterm(b))
    assert apply_poly(a, b) == canonical_via_lambda(term)


_RUNS = hs.dictionaries(hs.integers(0, 12), hs.integers(1, 4), min_size=1, max_size=6).map(
    lambda runs: tuple(sorted(runs.items(), reverse=True)))


@given(_RUNS, _RUNS)
def test_apply_runs_matches_the_eager_kernel(a, b):
    assert apply_runs(a, raise_runs(b)) == eager_apply_runs(a, raise_runs(b))


@settings(deadline=None, max_examples=150)
@given(hs.lists(_RUNS, min_size=1, max_size=3),
       hs.lists(hs.tuples(hs.integers(0, 20), hs.integers(0, 20)), max_size=8))
def test_degree_seq_is_a_value_whatever_its_offset(starts, picks):
    # a chain of apply_poly over a growing pool of states, whose offsets
    # differ, mirrored on run tuples by the eager kernel
    pool, eager = [DegreeSeq(r) for r in starts], list(starts)
    for i, j in picks:
        i, j = i % len(pool), j % len(pool)
        a, b = pool[i], pool[j]
        kept = (a.flat, a.t, b.flat, b.t)
        pool.append(apply_poly(a, b))
        assert (a.flat, a.t, b.flat, b.t) == kept
        eager.append(eager_apply_runs(eager[i], raise_runs(eager[j])))
    for s, runs in zip(pool, eager):
        fresh = DegreeSeq(s.runs)
        assert s.runs == runs
        assert s == fresh and hash(s) == hash(fresh)
        assert repr(s) == f"DegreeSeq(runs={s.runs!r})"
        assert pickle.loads(pickle.dumps(s)) == s
    for a in pool:
        assert [a == b for b in pool] == [a.runs == b.runs for b in pool]
