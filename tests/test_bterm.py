"""Syntax-level tests: parsing, formatting, flat powers."""

import re
import time
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from bluebird.bterm import (
    App,
    B,
    flat,
    format_bterm,
    is_leaf,
    monomial,
    parse,
)
from bluebird.canonical import monomial_degree
from bluebird.errors import ParseError
from bluebird.restricted import RApp, RConst, parse_rterm

from .support import bterm_shapes, bterm_strategy, bterms_up_to, reference_parse


def test_leaf_basics():
    assert is_leaf(B)
    assert not is_leaf(App(B, B))


def test_parse_format_roundtrip_exhaustive():
    # every shape with up to 10 leaves survives a print/parse cycle
    for n in range(1, 11):
        for t in bterm_shapes(n):
            assert parse(format_bterm(t)) == t


def test_parse_format_roundtrip_sugar():
    for t in bterms_up_to(8):
        assert parse(format_bterm(t, sugar=True)) == t


@given(bterm_strategy(), hs.booleans())
def test_parse_format_roundtrip_sampled(t, sugar):
    assert parse(format_bterm(t, sugar)) == t


def test_deep_text_at_default_recursion_limit():
    nested = "(" * 600 + "B B" + ")" * 600
    assert format_bterm(parse(nested)) == "B B"
    n = 10**5
    text = format_bterm(monomial(n))
    assert text == "B (" * (n - 1) + "B B" + ")" * (n - 1)
    assert format_bterm(parse(text), sugar=True) == f"B^{n} B"
    assert format_bterm(flat(B, n)) == " ".join(["B"] * n)


def test_parse_examples():
    assert parse("B") == B
    assert parse("B B") == App(B, B)
    assert parse("B B B") == App(App(B, B), B)       # application associates left
    assert parse("B (B B)") == App(B, App(B, B))
    assert parse("  B   ( B B ) ") == App(B, App(B, B))


def test_parse_power_sugar():
    # B^n B nests n compositions around the final B; the power prefix only
    # applies to a literal B, not to a parenthesized group
    assert parse("B^0 B") == B
    assert parse("B^1 B") == App(B, B)
    assert parse("B^3 B") == App(B, App(B, App(B, B)))
    assert parse("B^2 B B") == App(App(B, App(B, B)), B)
    with pytest.raises(ParseError, match="after 'B\\^n'"):
        parse("B^2 (B B)")


def test_parse_errors_have_positions():
    with pytest.raises(ParseError, match=r"empty input \(at position 0\)"):
        parse("")
    with pytest.raises(ParseError, match=r"at position 3"):
        parse("B (")
    with pytest.raises(ParseError, match=r"unexpected character 'x'"):
        parse("B x")
    with pytest.raises(ParseError):
        parse("B B)")
    with pytest.raises(ParseError):
        parse("(B")


# texts over the parser's alphabet and some bad characters; a run of more
# than three digits is cut to three, so that no B^n builds a huge monomial
_texts = hs.lists(hs.sampled_from(["B", "B", "B ", "B ", "B^1", "B^", "^", "(", "(", ")", ")",
                                   "0", "12", "x", " ", "\t"]), max_size=30).map(
    lambda pieces: re.sub(r"\d{4,}", lambda m: m[0][:3], "".join(pieces)))


@settings(max_examples=400)
@given(hs.one_of(hs.builds(format_bterm, bterm_strategy(), hs.booleans()), _texts))
def test_parsers_match_the_reference(text):
    # parse and parse_rterm against the lexer that makes one match per
    # token: the same term, or a ParseError with the same message and position
    for ours, ref in ((parse, reference_parse),
                      (parse_rterm, partial(reference_parse, leaf=RConst(0), app=RApp,
                                            power=RConst, then_b=False))):
        try:
            want = ref(text)
        except ParseError as exc:
            with pytest.raises(ParseError) as got:
                ours(text)
            assert (str(got.value), got.value.position) == (str(exc), exc.position)
        else:
            assert ours(text) == want


def test_flat_recurrence():
    cur = B
    for k in range(1, 21):
        assert flat(B, k) == cur
        cur = App(cur, B)


def test_flat_rejects_nonpositive():
    with pytest.raises(ValueError):
        flat(B, 0)
    with pytest.raises(ValueError):
        flat(B, -2)


def test_monomial_shapes():
    assert monomial(0) == B
    assert monomial(1) == App(B, B)
    assert monomial(3) == App(B, App(B, App(B, B)))
    for n in range(1, 12):
        assert monomial_degree(monomial(n)) == n


def test_deep_equality_hash_and_repr():
    n = 10**5
    for build in (monomial, lambda k: flat(B, k)):
        a, b = build(n), build(n)
        assert a is not b
        assert a == b
        assert hash(a) == hash(b)
        assert repr(a) == f"App<{format_bterm(a)}>"
    assert monomial(n) != monomial(n - 1)
    assert monomial(n) != flat(B, n + 1)
    assert repr(App(B, B)) == "App<B B>"


def test_sugar_format_is_linear_on_a_long_chain():
    n = 10**5
    chain = parse("B B B")  # not a monomial, so no node above it is one
    for _ in range(n):
        chain = App(B, chain)
    t0 = time.perf_counter()
    text = format_bterm(chain, sugar=True)
    assert time.perf_counter() - t0 < 10.0
    assert text == "B (" * n + "B^1 B B" + ")" * n
    assert format_bterm(App(B, App(B, chain)), sugar=True).startswith("B (B (B (")
    assert format_bterm(App(chain, monomial(3)), sugar=True).endswith(") B^3 B")
