"""Syntax-level tests: parsing, formatting, flat powers."""

import pickle
import re
import time
from contextlib import nullcontext
from functools import partial
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

from bluebird import walk
from bluebird.bterm import (
    App,
    B,
    _codes,
    _post_order,
    flat,
    format_bterm,
    is_leaf,
    monomial,
    parse,
)
from bluebird.canonical import canonicalize, monomial_degree
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
_PIECES = ["B", "B", "B ", "B ", "B^1", "B^", "^", "(", "(", ")", ")", "0", "12", "x", " ", "\t"]
_texts = hs.lists(hs.sampled_from(_PIECES), max_size=30).map(
    lambda pieces: re.sub(r"\d{4,}", lambda m: m[0][:3], "".join(pieces)))


@settings(max_examples=400)
@given(hs.one_of(hs.builds(format_bterm, bterm_strategy(), hs.booleans()), _texts))
def test_parsers_match_the_reference(text):
    # parse and parse_rterm against the lexer that makes one match per
    # token, on both routes: the same term, or a ParseError with the same
    # message and position; a root that keeps its post-order keeps its own
    for python_route in (False, True):
        with patch.object(walk, "load", lambda: None) if python_route else nullcontext():
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
                    got = ours(text)
                    assert got == want
                    if hasattr(got, "_post"):
                        assert got._post == _codes(App(got.fn, got.arg))


def _lexed(lex, text, then_b):
    try:
        return lex(text, then_b)
    except ParseError as exc:
        return str(exc), exc.position


# the parser's alphabet again, with the ASCII whitespace that only \s names
_ascii_texts = hs.lists(hs.sampled_from(_PIECES + ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                                                   "\x1f", "_", "\x00"]), max_size=30).map("".join)


@settings(max_examples=400)
@given(_ascii_texts, hs.booleans())
@example("B\x1c(B\x1fB)\x0b", True)
@example("B^" + "9" * 30 + " B", True)
@example("B^12B^3", False)
def test_both_lexers_end_alike(text, then_b):
    # walk.parse and _post_order give the same codes and digit spans, or
    # the same ParseError
    lib = walk.load()
    if lib is None:
        pytest.skip("no C compiler to build the compiled walk")
    assert _lexed(partial(walk.parse, lib), text, then_b) == _lexed(_post_order, text, then_b)


def test_one_route_per_text():
    # the compiled lexer takes ASCII text; _post_order takes the rest, or
    # everything when the library is missing, and no failure is rerun
    def refuse(*args):
        raise AssertionError("the other route ran")

    if walk.load() is not None:
        with patch("bluebird.bterm._post_order", refuse):
            assert parse("B (B B)") == App(B, App(B, B))
            with pytest.raises(ParseError, match="unexpected character 'x'"):
                parse("B x")
    with patch.object(walk, "parse", refuse):
        assert parse("B\u00a0B") == App(B, B)  # a no-break space is \s
        with patch.object(walk, "load", lambda: None):
            assert parse("B B B") == flat(B, 3)
        with pytest.raises(ParseError, match="unexpected character '\u00e9'"):
            parse("B \u00e9")


def test_parse_keeps_the_post_order_out_of_pickles():
    t = parse("B (B B) B")
    assert App.__slots__ == ("fn", "arg")
    assert t._post == b"\x00\x00\x00\x01\x01\x00\x01" == _codes(App(t.fn, t.arg))
    assert not hasattr(t.fn, "_post")
    assert t.__reduce__() == (App, (t.fn, t.arg))
    back = pickle.loads(pickle.dumps(t))
    assert not hasattr(back, "_post")
    assert back == t and hash(back) == hash(t)
    m = parse("B^2 B")  # a B^n atom: the root keeps nothing until it is walked
    assert not hasattr(m, "_post")
    assert canonicalize(m).runs == ((2, 1),)
    assert m._post == b"\x00\x00\x00\x01\x01"


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
