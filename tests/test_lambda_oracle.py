"""The independent route: de Bruijn lambda terms with beta-eta normalization."""

import pytest

from bluebird import bterm as bt
from bluebird import lambda_oracle as lo
from bluebird.errors import StepBudgetExceeded
from bluebird.lambda_oracle import Abs, App, Var

from .support import bterms_up_to


def test_normalize_is_idempotent():
    samples = [lo.B, lo.C, lo.S, lo.K, lo.I, lo.O, lo.D, lo.T, lo.V]
    samples += [lo.bterm_to_lambda(bt.flat(bt.B, k)) for k in range(1, 6)]
    for t in samples:
        nf = lo.normalize(t)
        assert lo.normalize(nf) == nf


def test_beta_reduction():
    # I x -> x, with x a closed term
    assert lo.normalize(App(lo.I, lo.K)) == lo.normalize(lo.K)
    # K x y -> x
    assert lo.normalize(App(App(lo.K, lo.I), lo.S)) == lo.I


def test_eta_contraction():
    # \x.\y. x y  ->  \x.x
    t = Abs(Abs(App(Var(1), Var(0))))
    assert lo.normalize(t) == lo.I
    # but \x.\y. y x must stay put
    u = Abs(Abs(App(Var(0), Var(1))))
    assert lo.normalize(u) == u


def test_composition_axiom():
    # B f g x and f (g x) normalize identically for arbitrary closed f, g, x
    f, g, x = lo.C, lo.K, lo.O
    lhs = App(App(App(lo.B, f), g), x)
    rhs = App(f, App(g, x))
    assert lo.equivalent(lhs, rhs)


def test_equivalent_distinguishes():
    # the fourth flat power of B collapses to the plain degree-2 monomial
    assert lo.equivalent(lo.bterm_to_lambda(bt.parse("B B B B")),
                         lo.bterm_to_lambda(bt.parse("B (B B)")))
    assert not lo.equivalent(lo.B, lo.C)
    assert not lo.equivalent(lo.bterm_to_lambda(bt.parse("B B")),
                             lo.bterm_to_lambda(bt.parse("B (B B)")))


def test_tree_lambda_roundtrip_exhaustive():
    from bluebird.canonical import tree_of
    from bluebird.trees import tree_equal

    from .support import decreasing_seqs

    for seq in decreasing_seqs(4, 4):
        t = tree_of(seq)
        back = lo.lambda_to_tree(lo.tree_to_lambda(t))
        assert tree_equal(back, t)


def test_bterm_images_normalize_to_tree_images():
    # both routes land on the same normal form
    from bluebird.canonical import canonicalize, tree_of

    for t in bterms_up_to(6):
        via_tree = lo.tree_to_lambda(tree_of(canonicalize(t)))
        assert lo.normalize(lo.bterm_to_lambda(t)) == lo.normalize(via_tree)


def test_term_stats():
    s = lo.term_stats(lo.bterm_to_lambda(bt.B))
    assert (s.binders, s.head_args) == (3, 1)
    assert s.first_arg == App(Var(1), Var(0))

    s6 = lo.term_stats(lo.bterm_to_lambda(bt.flat(bt.B, 6)))
    assert (s6.binders, s6.head_args) == (5, 2)


def test_rho_lambda_small_values():
    assert tuple(lo.rho_lambda(lo.I)) == (1, 1)
    assert tuple(lo.rho_lambda(lo.K)) == (1, 2)
    assert tuple(lo.rho_lambda(lo.T)) == (2, 1)


def test_rho_lambda_algorithms_agree():
    for t in (lo.I, lo.K, lo.T, lo.bterm_to_lambda(bt.parse("B B"))):
        assert lo.rho_lambda(t, algorithm="floyd") == lo.rho_lambda(t)


def test_rho_lambda_rejects_unknown_algorithm():
    with pytest.raises(ValueError):
        lo.rho_lambda(lo.K, algorithm="gosper")


def test_budget_cuts_off_divergence():
    omega = Abs(App(Var(0), Var(0)))
    big_omega = App(omega, omega)
    with pytest.raises(StepBudgetExceeded):
        lo.normalize(big_omega, max_steps=1000)


def test_format_lambda():
    assert lo.format_lambda(lo.I) == r"\.0"
    assert lo.format_lambda(lo.B) == r"\\\.2 (1 0)"
    assert lo.format_lambda(lo.O) == r"\\.0 (1 0)"
