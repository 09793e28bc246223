"""The restricted rewriting variant: head constants of every arity."""

import pytest
from hypothesis import given
from hypothesis import strategies as hs

from bluebird.errors import ParseError, StepBudgetExceeded
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


def test_engine_counts_contractions():
    eng = RestrictedEngine()
    red = T("B B B B")      # exactly one contraction
    eng.normalize(eng.intern(red))
    assert eng.steps == 1


def test_step_budget():
    eng = RestrictedEngine(max_steps=0)
    with pytest.raises(StepBudgetExceeded):
        eng.normalize(eng.intern(T("B B B B")))


def test_iterate_restricted_prefix():
    # normal forms of X(1) .. X(4), the orbit find_rho_restricted walks
    eng = RestrictedEngine()
    base = cur = eng.normalize(eng.intern(T("B B")))
    got = []
    for _ in range(4):
        got.append(format_rterm(eng.extern(cur)))
        cur = eng.normalize(eng.app(cur, base))
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
