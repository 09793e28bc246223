"""The independent route: de Bruijn lambda terms with beta-eta normalization."""

import gc
import os
import pickle
from dataclasses import FrozenInstanceError
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from bluebird import bterm as bt
from bluebird import cycles, walk
from bluebird import lambda_oracle as lo
from bluebird.errors import CycleNotFound, StepBudgetExceeded
from bluebird.lambda_oracle import Abs, App, Var
from bluebird.trees import LEAF, Node, split_spine

from .support import bterm_strategy, bterms_up_to, reference_normalize, tree_to_lambda


def test_normalize_is_idempotent():
    samples = [lo.B, lo.C, lo.S, lo.K, lo.I, lo.O, lo.D, lo.T, lo.V]
    samples += [lo.bterm_to_lambda(bt.flat(bt.B, k)) for k in range(1, 6)]
    for t in samples:
        nf = lo.normalize(t)
        assert lo.normalize(nf) == nf


def test_open_terms_keep_their_free_variables():
    assert lo.normalize(Var(3)) == Var(3)
    assert lo.normalize(App(Var(1), lo.I)) == App(Var(1), lo.I)
    # \x. 3 x is Var(3) seen under one binder: eta gives Var(2)
    assert lo.normalize(Abs(App(Var(3), Var(0)))) == Var(2)
    # K moves a free variable under its second binder
    assert lo.normalize(App(lo.K, Var(0))) == Abs(Var(1))


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
        back = lo.lambda_to_tree(tree_to_lambda(t))
        assert tree_equal(back, t)


def test_bterm_images_normalize_to_tree_images():
    # both routes land on the same normal form
    from bluebird.canonical import canonicalize, tree_of

    for t in bterms_up_to(6):
        via_tree = tree_to_lambda(tree_of(canonicalize(t)))
        assert lo.normalize(lo.bterm_to_lambda(t)) == lo.normalize(via_tree)


def test_term_stats():
    # binders and head arguments of a normal form, read off its tree
    def shape(t):
        tree = lo.lambda_to_tree(lo.normalize(t))
        return tree, split_spine(tree)[1]

    tree, args = shape(lo.bterm_to_lambda(bt.B))
    assert (tree.size, len(args)) == (3, 1)
    assert args[0] == Node(LEAF, LEAF)  # the first argument x2 x3

    tree6, args6 = shape(lo.bterm_to_lambda(bt.flat(bt.B, 6)))
    assert (tree6.size, len(args6)) == (5, 2)


def test_rho_lambda_small_values():
    assert tuple(lo.rho_lambda(lo.I)) == (1, 1)
    assert tuple(lo.rho_lambda(lo.K)) == (1, 2)
    assert tuple(lo.rho_lambda(lo.T)) == (2, 1)


def test_rho_lambda_normalizes_each_state_once(monkeypatch):
    calls = [0]
    real = lo._normal

    def counted(code, max_steps):
        calls[0] += 1
        return real(code, max_steps)

    monkeypatch.setattr(lo, "_normal", counted)
    for text, want in (("B^1 B", (32, 20)), ("B^2 B", (258, 36))):
        calls[0] = 0
        assert lo.rho_lambda(lo.bterm_to_lambda(bt.parse(text))) == want
        # the base, then one successor for each other state of entry + cycle
        assert calls[0] == sum(want)


def test_rho_lambda_budgets_match_the_uncached_search():
    t = lo.bterm_to_lambda(bt.parse("B^1 B"))
    base = lo._normal(lo._encode(t), lo.DEFAULT_BUDGET)

    def uncached(cur):
        return lo._normal(lo._APP + cur + base, lo.DEFAULT_BUDGET)

    outcomes = set()
    for max_steps in range(1, 141):
        try:
            want = cycles.brent_rho(base, uncached, max_steps)
        except CycleNotFound:
            want = None
        try:
            got = lo.rho_lambda(t, max_steps)
        except CycleNotFound:
            got = None
        assert got == want, max_steps
        outcomes.add(want)
    assert outcomes == {None, (32, 20)}


@pytest.mark.parametrize("enabled", [True, False])
def test_decode_leaves_the_collector_as_it_found_it(enabled):
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        seen = []

        def var(i):
            seen.append(gc.isenabled())
            return Var(i)

        assert lo._decode(lo._encode(lo.B), var) == lo.B
        assert seen == [False] * 3  # paused while the nodes are built
        assert gc.isenabled() is enabled
        assert lo.bterm_to_lambda(bt.parse("B B")) == App(lo.B, lo.B)
        assert gc.isenabled() is enabled
        with pytest.raises(IndexError):
            lo._decode(lo._APP)  # not a whole term
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_budget_cuts_off_divergence():
    omega = Abs(App(Var(0), Var(0)))
    big_omega = App(omega, omega)
    with pytest.raises(StepBudgetExceeded):
        lo.normalize(big_omega, max_steps=1000)


def test_format_lambda():
    assert lo.format_lambda(lo.I) == r"\.0"
    assert lo.format_lambda(lo.B) == r"\\\.2 (1 0)"
    assert lo.format_lambda(lo.O) == r"\\.0 (1 0)"


NAMED = [lo.B, lo.C, lo.K, lo.I, lo.S, lo.O, lo.D, lo.F, lo.R, lo.T, lo.V]


def _applications(depth: int):
    """Application trees of at most `depth` levels over the named combinators."""
    terms = hs.sampled_from(NAMED)
    for _ in range(depth):
        terms = hs.one_of(hs.sampled_from(NAMED), hs.builds(App, terms, terms))
    return terms


# some combinator terms diverge, and those grow fast: give them a small budget
closed_terms = hs.one_of(
    hs.tuples(_applications(3), hs.just(100)),
    hs.tuples(bterm_strategy(9).map(lo.bterm_to_lambda), hs.just(lo.DEFAULT_BUDGET)),
)


def _open_terms(depth: int):
    """Terms with free variables: indices up to 4 over at most `depth` binders,
    so some point past every binder, also inside arguments that a contraction
    moves under binders."""
    leaves = hs.one_of(hs.sampled_from(NAMED), hs.builds(Var, hs.integers(0, 4)))
    terms = leaves
    for _ in range(depth):
        terms = hs.one_of(leaves, hs.builds(App, terms, terms), hs.builds(Abs, terms))
    return terms


open_terms = hs.tuples(_open_terms(4), hs.just(100))


@settings(deadline=None, max_examples=300)
@given(hs.one_of(closed_terms, open_terms))
def test_normalize_matches_the_reference(case):
    t, budget = case
    try:
        want, steps = reference_normalize(t, budget)
    except StepBudgetExceeded:
        with pytest.raises(StepBudgetExceeded):
            lo.normalize(t, budget)
        return
    got = lo.normalize(t, steps)
    assert got == want
    assert lo.format_lambda(got) == lo.format_lambda(want)
    if steps:
        with pytest.raises(StepBudgetExceeded):
            lo.normalize(t, steps - 1)
        with pytest.raises(StepBudgetExceeded):
            reference_normalize(t, steps - 1)


trees = hs.recursive(hs.just(LEAF), lambda sub: hs.builds(Node, sub, sub), max_leaves=16)


@given(trees)
def test_tree_lambda_roundtrip_sampled(t):
    assert lo.lambda_to_tree(tree_to_lambda(t)) == t


def test_coded_nodes_keep_their_code_out_of_pickles():
    t = lo.bterm_to_lambda(bt.parse("B (B B)"))
    assert (Abs.__slots__, App.__slots__) == (("body",), ("fn", "arg"))
    assert not hasattr(t, "_code")
    assert hash(t) == hash(lo.bterm_to_lambda(bt.parse("B (B B)")))
    assert t._code == lo._encode(t)  # kept on the node it was computed for
    assert not hasattr(t.fn, "_code")
    with pytest.raises(FrozenInstanceError):
        t._code = ""
    assert t.__reduce__() == (App, (t.fn, t.arg))
    back = pickle.loads(pickle.dumps(t))
    assert not hasattr(back, "_code")
    assert back == t


def test_deep_terms():
    n = 10**5
    a, b = (lo.bterm_to_lambda(bt.monomial(n)) for _ in range(2))
    assert a is not b
    assert a == b
    assert hash(a) == hash(b)
    assert a != lo.bterm_to_lambda(bt.monomial(n - 1))
    assert repr(a).startswith(r"App<(\\\.2 (1 0)) ((\\\.2 (1 0)) (")
    # \x. x (\x. x (... (\x. x x))) is normal
    t = Var(0)
    for _ in range(n):
        t = Abs(App(Var(0), t))
    assert lo.normalize(t, 0) == t
    assert lo.format_lambda(t) == "\\.0 (" * (n - 1) + "\\.0 0" + ")" * (n - 1)


def test_rho_lambda_deep_budget_stop():
    with pytest.raises(CycleNotFound):
        lo.rho_lambda(lo.bterm_to_lambda(bt.monomial(400)), max_steps=3)


def test_format_lambda_nesting():
    assert lo.format_lambda(App(lo.I, App(lo.K, Var(0)))) == r"(\.0) ((\\.1) 0)"
    assert lo.format_lambda(Abs(App(App(Var(0), Abs(Var(0))), Var(1)))) == r"\.0 (\.0) 1"


def test_nested_eta_redexes_at_depth():
    # \y x1 ... xn. y x1 ... xn is the identity after n + 1 eta steps
    n = 10**4
    t = Var(n)
    for i in range(n):
        t = App(t, Var(n - 1 - i))
    for _ in range(n + 1):
        t = Abs(t)
    assert lo.normalize(t, 0) == lo.I


def _rotation(n: int):
    """(lambda x1 ... xn. xn x1 ... x(n-1)) applied to the free variables
    0 .. n-1, and its normal form (n-1) 0 1 ... (n-2), reached in n steps."""
    body = Var(0)
    for i in range(n - 1):
        body = App(body, Var(n - 1 - i))
    t = body
    for _ in range(n):
        t = Abs(t)
    for i in range(n):
        t = App(t, Var(i))
    want = Var(n - 1)
    for i in range(n - 1):
        want = App(want, Var(i))
    return t, want


def test_many_binders_over_a_long_spine():
    for n in (1, 2, 5, 30):
        t, want = _rotation(n)
        assert reference_normalize(t) == (want, n)
    t, want = _rotation(10**4)
    assert lo.normalize(t, 10**4) == want
    with pytest.raises(StepBudgetExceeded):
        lo.normalize(t, 10**4 - 1)


def test_deep_monomial_through_the_lambda_route():
    from bluebird.canonical import canonical_via_lambda, canonicalize

    m = bt.monomial(3000)
    assert canonical_via_lambda(m) == canonicalize(m)


@pytest.mark.skipif(not os.environ.get("RUN_SLOW"),
                    reason="about 6 s and 145 MB; set RUN_SLOW=1 to enable")
def test_rho_lambda_pins_b4b():
    # a second full route for B^4 B, apart from the canonical and restricted engines
    assert lo.rho_lambda(lo.bterm_to_lambda(bt.parse("B^4 B"))) == (191206, 431453)


def _outcomes(code, budget):
    """_normal's answer on code, or the type and message of what it raised:
    compiled, then with no library, by the Python machine."""
    got = []
    for load in (walk.load, lambda source: None):
        with patch.object(walk, "load", load):
            try:
                got.append(lo._normal(code, budget))
            except (StepBudgetExceeded, ValueError) as e:
                got.append((type(e), str(e)))
    return got


def _stopped(budget):
    return (StepBudgetExceeded, str(StepBudgetExceeded(budget)))


def _same_at_the_edge(t, steps):
    """Both machines give one string at budget steps, and both stop at steps - 1."""
    code = lo._encode(t)
    compiled, python = _outcomes(code, steps)
    assert type(compiled) is str
    assert compiled == python
    if steps:
        assert _outcomes(code, steps - 1) == [_stopped(steps - 1)] * 2


@pytest.fixture
def lambda_lib():
    lib = walk.load(walk.LSOURCE)
    if lib is None:
        pytest.skip("no C compiler to build the compiled machine")
    return lib


@settings(deadline=None, max_examples=300)
@given(hs.one_of(closed_terms, open_terms))
def test_compiled_machine_matches_python(case):
    if walk.load(walk.LSOURCE) is None:
        pytest.skip("no C compiler to build the compiled machine")
    t, budget = case
    try:
        _, steps = reference_normalize(t, budget)
    except StepBudgetExceeded:
        assert _outcomes(lo._encode(t), budget) == [_stopped(budget)] * 2
        return
    _same_at_the_edge(t, steps)


@settings(deadline=None, max_examples=300)
@given(hs.text(hs.characters(min_codepoint=0, max_codepoint=4), max_size=12))
def test_both_machines_end_alike_on_any_codes(code):
    # most short strings over the first five codes are not one term, and
    # some have no normal form: each route must answer or refuse as the other
    if walk.load(walk.LSOURCE) is None:
        pytest.skip("no C compiler to build the compiled machine")
    compiled, python = _outcomes(code, 100)
    assert compiled == python


def _copied_environments(n: int):
    """\\x1 ... xn. y (I x1) ... (I xn), y free: every contraction after the
    first copies the environment of the n binders. Normal in n steps."""
    t = Var(n)
    for i in range(n):
        t = App(t, App(lo.I, Var(n - 1 - i)))
    for _ in range(n):
        t = Abs(t)
    return t


def test_compiled_machine_matches_python_on_deep_and_wide_terms(lambda_lib):
    deep = Var(0)
    for _ in range(10**5):
        deep = Abs(App(Var(0), deep))
    eta = Var(10**4)
    for i in range(10**4):
        eta = App(eta, Var(10**4 - 1 - i))
    for _ in range(10**4 + 1):
        eta = Abs(eta)
    assert reference_normalize(_copied_environments(5))[1] == 5
    # K applied to a spine of free variables: every code from U+D7FF to
    # U+E000 goes in, and each comes out one higher
    wide = Var(0xD7FF - 2)
    for code in range(0xD800, 0xE001):
        wide = App(wide, Var(code - 2))
    for t, steps in ((deep, 0), (_rotation(10**4)[0], 10**4), (eta, 0),
                     (_copied_environments(2000), 2000), (App(lo.K, wide), 1)):
        _same_at_the_edge(t, steps)


def test_both_machines_end_alike_on_failures(lambda_lib):
    # codes on both sides of the surrogates and of U+10FFFF, moved by a
    # contraction (K x) and by eta (\\y. x y); past U+10FFFF both refuse
    for code in (0xD7FF, 0xD800, 0xDFFF, 0xE000, 0x10FFFE, 0x10FFFF):
        x = Var(code - 2)
        for t, wide in ((App(lo.K, x), code == 0x10FFFF), (Abs(App(x, Var(0))), False),
                        (App(lo.I, x), False)):
            compiled, python = _outcomes(lo._encode(t), 10)
            assert compiled == python
            assert (compiled == (ValueError, lo._WIDE)) == wide
    # not one term: both parses refuse it
    for code in ("", lo._APP, lo._ABS, "\x02\x03", lo._encode(lo.K) + "\x02"):
        assert _outcomes(code, 10) == [(ValueError, lo._NOT_ONE_TERM)] * 2, repr(code)
