"""Canonicalization, degree sequences, node listings, and the dual lambda route."""

import pytest
from hypothesis import given

from bluebird import bterm as bt
from bluebird.canonical import (
    DegreeSeq,
    canonical_via_lambda,
    canonicalize,
    equivalent_bterms,
    monomial_degree,
    nodes,
    nodes_at,
    parse_seq,
    seq_of_tree,
    seq_to_bterm,
    tree_of,
)
from bluebird.errors import ParseError
from bluebird.trees import LEAF, Node

from .support import bterm_strategy, bterms_up_to, decreasing_seqs


def C(s):
    return canonicalize(bt.parse(s))


class TestDegreeSeq:
    def test_construction_and_views(self):
        s = DegreeSeq(((4, 2), (2, 1)))
        assert s.degrees() == (4, 4, 2)
        assert len(s) == 3
        assert s.max_degree == 4
        assert s.text() == "[4,4,2]" == str(s)
        assert s.rle_text() == "4*2,2*1"
        assert not s.is_monomial()
        assert DegreeSeq.from_degrees([5]).is_monomial()

    def test_from_degrees_matches_runs(self):
        assert DegreeSeq.from_degrees([4, 4, 2]) == DegreeSeq(((4, 2), (2, 1)))

    def test_rejects_bad_runs(self):
        with pytest.raises(ValueError):
            DegreeSeq(((2, 1), (4, 1)))       # degrees must decrease
        with pytest.raises(ValueError):
            DegreeSeq(((4, 1), (4, 1)))       # adjacent equal degrees must merge
        with pytest.raises(ValueError):
            DegreeSeq(((4, 0),))              # empty run
        with pytest.raises(ValueError):
            DegreeSeq(((-1, 1),))             # negative degree
        with pytest.raises(ValueError):
            DegreeSeq.from_degrees([])
        with pytest.raises(ValueError):
            DegreeSeq.from_degrees([1, 2])


class TestParseSeq:
    def test_bracket_form(self):
        assert parse_seq("[4,2]") == DegreeSeq.from_degrees([4, 2])
        assert parse_seq("4, 2") == DegreeSeq.from_degrees([4, 2])
        assert parse_seq("[0]") == DegreeSeq.from_degrees([0])

    def test_rle_form(self):
        assert parse_seq("4*1,2*2,0*1") == DegreeSeq.from_degrees([4, 2, 2, 0])

    def test_errors(self):
        for bad in ("", "[]", "[2,4]", "[4,,2]", "4*0", "nonsense"):
            with pytest.raises(ParseError):
                parse_seq(bad)


def test_canonical_goldens():
    assert C("B").text() == "[0]"
    assert C("B B").text() == "[1]"
    assert C("B B B").text() == "[0,0]"
    assert C("B (B B B) (B B) (B B)").text() == "[4,2]"
    assert C("B (B B B) (B B) B").text() == "[2,2]"


def test_orbit_of_b_prefix():
    want = ["[0]", "[1]", "[0,0]", "[2]", "[1,0]", "[2,0]"]
    got = [canonicalize(bt.flat(bt.B, k)).text() for k in range(1, 7)]
    assert got == want


def test_monomials_canonicalize_to_single_degree():
    for n in range(0, 10):
        assert canonicalize(bt.monomial(n)) == DegreeSeq.from_degrees([n])


def test_seq_to_bterm_roundtrip():
    for seq in decreasing_seqs(4, 4):
        assert canonicalize(seq_to_bterm(seq)) == seq


def test_canonicalize_agrees_with_lambda_route():
    # dual routes: direct rewriting vs normalization in the lambda calculus
    for t in bterms_up_to(6):
        assert canonicalize(t) == canonical_via_lambda(t)


@given(bterm_strategy())
def test_canonicalize_agrees_with_lambda_route_sampled(t):
    assert canonicalize(t) == canonical_via_lambda(t)


def test_deep_terms_at_default_recursion_limit():
    n = 10**5
    tower, power = bt.monomial(n), bt.flat(bt.B, n)
    # B's orbit has entry 6 and cycle 4, so X(n) = X(6 + (n - 6) mod 4)
    short = bt.flat(bt.B, 6 + (n - 6) % 4)
    assert canonicalize(tower) == DegreeSeq(((n, 1),))
    assert canonicalize(power) == canonicalize(short)
    assert equivalent_bterms(power, short)
    assert not equivalent_bterms(tower, power)


def test_equivalent_bterms_basic():
    assert equivalent_bterms(bt.parse("B B B B"), bt.parse("B (B B)"))
    assert not equivalent_bterms(bt.parse("B B"), bt.parse("B (B B)"))
    assert equivalent_bterms(bt.B, bt.B)


def test_semantic_monomial_degree():
    assert monomial_degree(bt.parse("B B B B")) == 2     # canonical [2]
    assert monomial_degree(bt.B) == 0
    assert monomial_degree(bt.parse("B B (B B)")) is None  # canonical [2,0]


class TestNodeListings:
    def test_small_display_from_zero(self):
        t = Node(Node(LEAF, LEAF), Node(LEAF, LEAF))
        assert nodes_at(t, 0) == [2, 0, 0]

    def test_display_from_one(self):
        t = Node(Node(LEAF, Node(LEAF, LEAF)), Node(Node(LEAF, LEAF), LEAF))
        assert nodes_at(t, 1) == [4, 4, 2, 1, 1]
        u = Node(Node(LEAF, Node(LEAF, LEAF)), Node(LEAF, Node(LEAF, LEAF)))
        assert nodes_at(u, 1) == [5, 4, 2, 1, 1]

    def test_example_tree_of_52220(self):
        t = tree_of(parse_seq("[5,2,2,2,0]"))
        want = Node(Node(LEAF, Node(LEAF, LEAF)),
                    Node(Node(Node(LEAF, LEAF), LEAF), Node(LEAF, LEAF)))
        assert t == want
        assert nodes(t) == [5, 2, 2, 2, 0]

    def test_roundtrip_exhaustive(self):
        for seq in decreasing_seqs(4, 4):
            t = tree_of(seq)
            assert seq_of_tree(t) == seq
            assert nodes(t) == list(seq.degrees())
