"""Non-cycling certificates: family membership, recurrences, growth checks."""

import pytest

from bluebird import antirho as ar
from bluebird.canonical import canonicalize, tree_of
from bluebird.trees import LEAF, Node, comb

from .support import bterms_up_to


def z_tree(mp):
    return tree_of(canonicalize(ar.z_term(mp)))


class TestMonomialPower:
    def test_derived_quantities(self):
        mp = ar.MonomialPower(1, 2)
        assert mp.width == 6          # (k+2) * n
        assert mp.leaf_count == 9     # k + width + 2

    def test_z_term_is_composition_power(self):
        assert canonicalize(ar.z_term(ar.MonomialPower(0, 1))).text() == "[0,0]"
        assert canonicalize(ar.z_term(ar.MonomialPower(1, 1))).text() == "[1,1,1]"
        assert canonicalize(ar.z_term(ar.MonomialPower(2, 2))).text() == "[2,2,2,2,2,2,2,2]"

    def test_validation(self):
        with pytest.raises(ValueError):
            ar.MonomialPower(-1, 1)
        with pytest.raises(ValueError):
            ar.MonomialPower(0, 0)


class TestArgumentFamily:
    def test_leaf_is_member(self):
        for k in range(3):
            for n in (1, 2):
                assert ar.in_argument_family(LEAF, ar.MonomialPower(k, n))

    def test_two_arg_comb_for_smallest_power(self):
        mp = ar.MonomialPower(0, 1)
        assert ar.in_argument_family(comb(LEAF, [LEAF, LEAF]), mp)
        # recursion in the odd positions, leaves forced in the even ones
        assert ar.in_argument_family(
            comb(LEAF, [comb(LEAF, [LEAF, LEAF]), LEAF]), mp)
        assert not ar.in_argument_family(
            comb(LEAF, [LEAF, comb(LEAF, [LEAF, LEAF])]), mp)

    def test_wrong_arity_is_out(self):
        mp = ar.MonomialPower(0, 1)
        assert not ar.in_argument_family(Node(LEAF, Node(LEAF, LEAF)), mp)
        assert not ar.in_argument_family(comb(LEAF, [LEAF, LEAF, LEAF]), mp)


class TestIterateFamily:
    def test_leaf_is_not_an_iterate(self):
        assert not ar.in_iterate_family(LEAF, ar.MonomialPower(0, 1))

    def test_base_trees_are_members(self):
        for k in range(3):
            for n in (1, 2):
                mp = ar.MonomialPower(k, n)
                assert ar.in_iterate_family(z_tree(mp), mp)

    def test_membership_closed_under_iteration(self):
        for k in range(2):
            for n in (1, 2):
                mp = ar.MonomialPower(k, n)
                for t in ar.orbit_trees(ar.z_term(mp), 30):
                    assert ar.in_iterate_family(t, mp)

    def test_cycling_terms_leave_the_family(self):
        # B's orbit repeats, so it cannot stay inside any iterate family
        mp = ar.MonomialPower(0, 1)
        trees = list(ar.orbit_trees("B", 12))
        assert not all(ar.in_iterate_family(t, mp) for t in trees)


def test_tree_stats():
    s = ar.tree_stats(z_tree(ar.MonomialPower(0, 1)))
    assert (s.leaves, s.head_args) == (4, 1)
    assert s.first_arg == Node(Node(LEAF, LEAF), LEAF)
    assert s.second_arg is None

    t = comb(LEAF, [LEAF, Node(LEAF, LEAF), LEAF])
    s2 = ar.tree_stats(t)
    assert (s2.leaves, s2.head_args) == (5, 3)
    assert s2.first_arg is LEAF
    assert s2.second_arg == Node(LEAF, LEAF)


def test_orbit_trees_match_canonical_route():
    from bluebird import bterm as bt
    for x in ("B", "B^1 B"):
        trees = list(ar.orbit_trees(x, 6))
        want = [tree_of(canonicalize(bt.flat(bt.parse(x), i))) for i in range(1, 7)]
        assert trees == want


class TestReports:
    def test_render_shape(self):
        rep = ar.run_power_suite(ar.MonomialPower(0, 1), steps=25)
        text = rep.render()
        assert rep.passed
        lines = text.splitlines()
        assert all(l.startswith("ok   ") for l in lines[:-1])
        assert lines[-1] == "all checks passed"

    def test_failed_render_shape(self):
        rep = ar.check_general_condition("B", lambda t: True, steps=30)
        assert not rep.passed
        lines = rep.render().splitlines()
        assert any(l.startswith("FAIL ") for l in lines)
        assert lines[-1].endswith("check(s) failed")


class TestMonotone:
    def test_dynamic_window_passes_on_noncycling_base(self):
        rep = ar.check_monotone(ar.z_term(ar.MonomialPower(0, 1)), steps=320)
        assert rep.passed

    def test_fixed_window_can_be_too_tight(self):
        # growth stalls stretch as the iterates get bigger, so a constant
        # window eventually reports a false alarm even on a good base
        rep = ar.check_monotone(ar.z_term(ar.MonomialPower(0, 1)),
                                steps=320, window=8)
        assert not rep.passed
        stuck = [i for i in rep.items if not i.ok]
        assert all("stuck" in i.detail for i in stuck)

    def test_cycling_orbit_fails_no_repeat(self):
        rep = ar.check_monotone("B^1 B", steps=60)
        assert not rep.passed
        assert any("repeats" in i.name and not i.ok for i in rep.items)


class TestGeneralCondition:
    def test_violated_by_cycling_term(self):
        rep = ar.check_general_condition("B", lambda t: True, steps=30)
        bad = [i for i in rep.items if not i.ok]
        assert len(bad) == 1
        assert "leaves" in bad[0].detail

    def test_accepts_power_base(self):
        mp = ar.MonomialPower(1, 1)
        rep = ar.check_general_condition(
            ar.z_term(mp), lambda t: ar.in_iterate_family(t, mp), steps=40)
        assert rep.passed


class TestPowerSuite:
    @pytest.mark.parametrize("k,n", [(0, 1), (0, 2), (1, 1), (2, 1)])
    def test_small_suites_pass(self, k, n):
        rep = ar.run_power_suite(ar.MonomialPower(k, n), steps=50)
        assert rep.passed, rep.render()


@pytest.mark.parametrize("suite", [
    lambda: ar.run_power_suite(ar.MonomialPower(0, 1), steps=30),
    lambda: ar.run_term_suite(ar.example_antirho_term(), steps=30,
                              membership=ar.in_example_family),
], ids=["power", "term"])
def test_suites_build_each_orbit_once(monkeypatch, suite):
    built = []
    monkeypatch.setattr(ar, "tree_of", lambda seq: built.append(seq) or tree_of(seq))
    assert suite().passed
    assert len(built) == 30


def test_oracle_item_compares_whole_trees():
    # same leaf and head-argument counts as iterate 2's tree, other shape
    trees = list(ar.orbit_trees("B", 3))
    swapped = comb(LEAF, [Node(LEAF, LEAF), LEAF])
    assert trees[1] == comb(LEAF, [LEAF, Node(LEAF, LEAF)])
    item = ar._oracle_item("B", [trees[0], swapped, trees[2]])
    assert not item.ok
    assert item.detail.startswith("at iterate 2: ")
    assert ar._oracle_item("B", trees).ok


class TestExampleTerm:
    def test_canonical_form(self):
        assert canonicalize(ar.example_antirho_term()).text() == "[2,2,1,1,0,0]"

    def test_membership_predicates(self):
        t = tree_of(canonicalize(ar.example_antirho_term()))
        assert ar.in_example_family(t)
        assert not ar.in_example_family(LEAF)
        assert ar.in_example_argument_family(LEAF)
        assert not ar.in_example_argument_family(Node(LEAF, Node(LEAF, LEAF)))

    def test_orbit_stays_in_family(self):
        for t in ar.orbit_trees(ar.example_antirho_term(), 40):
            assert ar.in_example_family(t)

    def test_full_suite(self):
        rep = ar.run_term_suite(ar.example_antirho_term(), steps=60,
                                membership=ar.in_example_family)
        assert rep.passed, rep.render()
