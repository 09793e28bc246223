"""End-to-end checks with pinned values and time limits.

Every numeric target here was computed through at least two independent
routes before being pinned.  Time limits are generous; they guard against
accidental complexity regressions, not micro-noise.
"""

import os
import random
import time

import pytest

from bluebird import bterm as bt
from bluebird import lambda_oracle as lo
from bluebird.antirho import (
    MonomialPower,
    example_antirho_term,
    in_example_family,
    run_power_suite,
    run_term_suite,
    z_term,
)
from bluebird.canonical import (
    apply_poly,
    canonicalize,
    equivalent_bterms,
    nodes_at,
    parse_seq,
    seq_of_tree,
    seq_to_bterm,
    tree_of,
)
from bluebird.cycle_detect import find_rho
from bluebird.restricted import (
    RestrictedEngine,
    find_rho_restricted,
    monomial_rterm,
)
from bluebird.trees import LEAF, Node

from .support import bterms_up_to, decreasing_seqs, floyd_canonical, random_bterm


def best_of(n, fn):
    """Smallest wall time of n runs, in seconds."""
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def test_canonicalization_golden_is_fast():
    term = bt.parse("B (B B B) (B B) (B B)")
    assert canonicalize(term).text() == "[4,2]"
    assert best_of(5, lambda: canonicalize(term)) < 0.001

    # dropping the final pairing changes the polynomial entirely
    assert canonicalize(bt.parse("B (B B B) (B B) B")).text() == "[2,2]"


def test_direct_application_golden_is_fast():
    a, b = parse_seq("[4,1,0]"), parse_seq("[2,0]")
    assert apply_poly(a, b) == parse_seq("[5,3,2,0]")
    assert best_of(5, lambda: apply_poly(a, b)) < 0.001


@pytest.mark.parametrize("text,want", [
    ("B", (6, 4)),
    ("B^1 B", (32, 20)),
    ("B^2 B", (258, 36)),
    ("B^3 B", (4240, 5796)),
])
def test_cycle_values_for_small_composition_powers(text, want):
    t0 = time.perf_counter()
    assert tuple(find_rho(text)) == want
    assert floyd_canonical(text) == want
    assert time.perf_counter() - t0 < 10.0


def test_cycle_values_for_fourth_composition_power():
    t0 = time.perf_counter()
    assert tuple(find_rho("B^4 B")) == (191206, 431453)
    assert time.perf_counter() - t0 < 300.0


@pytest.mark.skipif(not os.environ.get("RUN_B5B"),
                    reason="about 75 s with the compiled walk; set RUN_B5B=1 to enable")
def test_cycle_values_for_fifth_composition_power():
    started = []
    assert tuple(find_rho("B^5 B", on_start=started.append)) == (766241307, 234444571)
    assert started[0].stepper == "c"


@pytest.mark.parametrize("name,want", [
    ("C", (3, 1)), ("K", (1, 2)), ("I", (1, 1)), ("T", (2, 1)),
    ("V", (3, 1)), ("F", (3, 1)), ("R", (3, 1)),
])
def test_cycle_values_through_lambda_engine(name, want):
    t0 = time.perf_counter()
    assert tuple(lo.rho_lambda(getattr(lo, name))) == want
    assert time.perf_counter() - t0 < 10.0


def test_cycle_values_through_lambda_engine_composition():
    # D is the pairing of the base with itself, so its orbit must agree
    # with the canonical engine's second composition power
    t0 = time.perf_counter()
    assert tuple(lo.rho_lambda(lo.D)) == (32, 20)
    assert time.perf_counter() - t0 < 10.0
    assert tuple(find_rho("B^1 B")) == (32, 20)


@pytest.mark.parametrize("degree,want", [
    (0, (9, 4)),
    (1, (36, 20)),
    (2, (274, 36)),
])
def test_cycle_values_on_restricted_engine(degree, want):
    t0 = time.perf_counter()
    assert find_rho_restricted(monomial_rterm(degree)) == want
    assert time.perf_counter() - t0 < 30.0


def test_restricted_degree_three_repeat_within_rewrite_budget():
    # the first repeat for the degree-3 base pairs iterates 4267 and 10063;
    # reaching it from scratch must stay within 20000 contractions
    t0 = time.perf_counter()
    eng = RestrictedEngine()
    base = eng.intern(monomial_rterm(3))
    cur = base
    at_entry = None
    for i in range(2, 10_064):
        cur = eng.app(cur, base)
        if i == 4267:
            at_entry = cur
    assert at_entry == cur
    assert eng.steps <= 20_000
    assert time.perf_counter() - t0 < 300.0

    assert find_rho_restricted(monomial_rterm(3), max_steps=10**5) == (4267, 5796)


def test_flat_powers_six_and_ten_coincide():
    six = bt.flat(bt.B, 6)
    ten = bt.flat(bt.B, 10)
    assert canonicalize(six) == canonicalize(ten) == parse_seq("[2,0]")
    assert equivalent_bterms(six, ten)
    nf = lo.normalize(lo.bterm_to_lambda(six))
    assert lo.format_lambda(nf) == r"\\\\\.4 (3 2) (1 0)"
    assert nf == lo.normalize(lo.bterm_to_lambda(ten))


def test_equivalence_decision_matches_lambda_oracle():
    t0 = time.perf_counter()

    # exhaustive: every ordered pair of terms with at most 7 leaves
    terms = bterms_up_to(7)
    assert len(terms) == 197
    canon = [canonicalize(t) for t in terms]
    nf = [lo.normalize(lo.bterm_to_lambda(t)) for t in terms]
    for i in range(len(terms)):
        for j in range(len(terms)):
            assert (canon[i] == canon[j]) == (nf[i] == nf[j]), \
                (bt.format_bterm(terms[i]), bt.format_bterm(terms[j]))

    # randomized: larger terms, fresh pair each round
    rng = random.Random(0xB1BD)
    for _ in range(10_000):
        a, b = random_bterm(rng), random_bterm(rng)
        mine = equivalent_bterms(a, b)
        oracle = lo.equivalent(lo.bterm_to_lambda(a), lo.bterm_to_lambda(b))
        assert mine == oracle, (bt.format_bterm(a), bt.format_bterm(b))

    assert time.perf_counter() - t0 < 300.0


def test_direct_application_matches_canonicalization_everywhere():
    t0 = time.perf_counter()
    seqs = decreasing_seqs(4, 4)
    assert len(seqs) == 125
    terms = {s: seq_to_bterm(s) for s in seqs}
    for a in seqs:
        for b in seqs:
            direct = apply_poly(a, b)
            via_term = canonicalize(bt.App(terms[a], terms[b]))
            assert direct == via_term, (a.text(), b.text())
    assert time.perf_counter() - t0 < 60.0


def test_node_listing_roundtrips_and_displays():
    for seq in decreasing_seqs(6, 6):
        assert seq_of_tree(tree_of(seq)) == seq

    t = Node(Node(LEAF, LEAF), Node(LEAF, LEAF))
    assert nodes_at(t, 0) == [2, 0, 0]
    u = Node(Node(LEAF, Node(LEAF, LEAF)), Node(Node(LEAF, LEAF), LEAF))
    assert nodes_at(u, 1) == [4, 4, 2, 1, 1]
    v = tree_of(parse_seq("[5,2,2,2,0]"))
    assert v == Node(Node(LEAF, Node(LEAF, LEAF)),
                     Node(Node(Node(LEAF, LEAF), LEAF), Node(LEAF, LEAF)))


def test_noncycling_suites_pass():
    t0 = time.perf_counter()
    for k in (0, 1, 2):
        for n in (1, 2):
            report = run_power_suite(MonomialPower(k, n), steps=150)
            assert report.passed, report.render()
    report = run_term_suite(example_antirho_term(), steps=100,
                            membership=in_example_family)
    assert report.passed, report.render()
    assert time.perf_counter() - t0 < 600.0


class KillSignal(Exception):
    pass


def test_interrupted_searches_resume_to_the_same_answer(tmp_path):
    # count how many bookkeeping stops a full run makes, then rerun three
    # times, shooting the process at a random stop and resuming
    stops = {"n": 0}

    def count(state):
        stops["n"] += 1

    assert tuple(find_rho("B^2 B", checkpoint_path=str(tmp_path / "probe"),
                          checkpoint_interval=1, checkpoint_seconds=0.0,
                          state_hook=count)) == (258, 36)
    total = stops["n"]
    assert total > 100

    rng = random.Random(20260814)
    for round_no in range(3):
        kill_at = rng.randint(1, total - 1)
        path = str(tmp_path / f"ck{round_no}")
        calls = {"n": 0}

        def shoot(state):
            calls["n"] += 1
            if calls["n"] >= kill_at:
                raise KillSignal

        with pytest.raises(KillSignal):
            find_rho("B^2 B", checkpoint_path=path, checkpoint_interval=1,
                     checkpoint_seconds=0.0, state_hook=shoot)
        assert os.path.exists(path)
        assert tuple(find_rho("B^2 B", checkpoint_path=path,
                              resume=True)) == (258, 36)
        assert not os.path.exists(path)


def head_normal_tower(first, count):
    """Normal forms of the flat self-application prefix X, X X, (X X) X, ..."""
    out = []
    cur = lo.normalize(first)
    base = lo.normalize(first)
    for _ in range(count):
        out.append(cur)
        cur = lo.normalize(lo.App(cur, base))
    return out


@pytest.mark.parametrize("seed", ["S", "O"])
def test_head_normal_towers_never_repeat(seed):
    tower = head_normal_tower(getattr(lo, seed), 15)
    assert len(set(tower)) == 15
