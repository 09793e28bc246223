"""Non-cycling certificates: family membership, recurrences, growth checks."""

import pytest

from bluebird import antirho as ar
from bluebird.canonical import canonicalize, tree_of
from bluebird.cycle_detect import iterate
from bluebird.trees import LEAF, Node, comb, split_spine

from .support import bterms_up_to


def z_tree(mp):
    return tree_of(canonicalize(ar.z_term(mp)))


def named(rep, prefix):
    """The report's items whose names start with prefix."""
    return [item for item in rep.items if item.name.startswith(prefix)]


GENERAL = ("all ", "base leaf count")


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
                for t in [tree_of(s) for s in iterate(ar.z_term(mp), 30)]:
                    assert ar.in_iterate_family(t, mp)

    def test_cycling_terms_leave_the_family(self):
        # B's orbit repeats, so it cannot stay inside any iterate family
        mp = ar.MonomialPower(0, 1)
        trees = [tree_of(s) for s in iterate("B", 12)]
        assert not all(ar.in_iterate_family(t, mp) for t in trees)


def test_tree_stats():
    # the leaf and head-argument counts the checks read off a tree
    t = z_tree(ar.MonomialPower(0, 1))
    _, args = split_spine(t)
    assert (t.size, len(args)) == (4, 1)
    assert args[0] == Node(Node(LEAF, LEAF), LEAF)

    t2 = comb(LEAF, [LEAF, Node(LEAF, LEAF), LEAF])
    _, args2 = split_spine(t2)
    assert (t2.size, len(args2)) == (5, 3)
    assert args2[0] is LEAF
    assert args2[1] == Node(LEAF, LEAF)


def test_orbit_trees_match_canonical_route():
    from bluebird import bterm as bt
    for x in ("B", "B^1 B"):
        trees = [tree_of(s) for s in iterate(x, 6)]
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
        rep = ar.run_term_suite("B", steps=30, membership=lambda t: True)
        assert not rep.passed
        lines = rep.render().splitlines()
        assert any(l.startswith("FAIL ") for l in lines)
        assert lines[-1].endswith("check(s) failed")

    # whole reports as the CLI prints them: item names, details, order and
    # the summary line are part of the command's output
    PINNED = [
        (lambda: ar.run_term_suite("B B", steps=40),
         "FAIL leaf count never decreases -- at iterate 7: leaf count 8 -> 7\n"
         "FAIL leaf count strictly increases within a dynamic window (heuristic)"
         " -- at iterate 10: leaf count stuck at 9 from iterate 10 to 29\n"
         "ok   no canonical form repeats in 40 iterates\n"
         "ok   lambda oracle agrees on the normal-form trees (first 6)\n"
         "2 check(s) failed"),
        (lambda: ar.run_term_suite("B", steps=30, membership=lambda t: True),
         "FAIL leaf count never decreases -- at iterate 4: leaf count 5 -> 4\n"
         "FAIL leaf count strictly increases within a dynamic window (heuristic)"
         " -- at iterate 6: leaf count stuck at 5 from iterate 6 to 19\n"
         "FAIL no canonical form repeats in 30 iterates"
         " -- at iterate 10: canonical form equals iterate 6\n"
         "ok   all 30 iterate trees stay in the family\n"
         "FAIL base leaf count exceeds every head-argument count"
         " -- at iterate 4: base has 3 leaves but iterate applies 3 arguments\n"
         "ok   lambda oracle agrees on the normal-form trees (first 6)\n"
         "4 check(s) failed"),
        (lambda: ar.run_power_suite(ar.MonomialPower(1, 1), steps=30),
         "ok   all 30 iterate trees stay in the family\n"
         "ok   head-argument count always 2 or 5\n"
         "ok   leaf-count recurrence holds\n"
         "ok   head-arg recurrence holds\n"
         "ok   first-arg recurrence holds (substitution-free cases)\n"
         "ok   leaf count never decreases\n"
         "ok   leaf count strictly increases within a dynamic window (heuristic)\n"
         "ok   no canonical form repeats in 30 iterates\n"
         "ok   lambda oracle agrees on the normal-form trees (first 6)\n"
         "all checks passed"),
    ]

    @pytest.mark.parametrize("suite, text", PINNED, ids=["B B", "B member", "power 1 1"])
    def test_pinned_render(self, suite, text):
        assert suite().render() == text

    def test_check_stops_at_first_failure(self):
        calls = []
        rep = ar.run_term_suite("B", steps=30,
                                membership=lambda t: calls.append(t) or False)
        assert len(calls) == 1
        assert not named(rep, "all 30 iterate trees")[0].ok


class TestMonotone:
    def test_dynamic_window_passes_on_noncycling_base(self):
        rep = ar.run_term_suite(ar.z_term(ar.MonomialPower(0, 1)), steps=320)
        monotone = named(rep, "leaf count") + named(rep, "no canonical form")
        assert len(monotone) == 3
        assert all(i.ok for i in monotone)

    def test_cycling_orbit_fails_no_repeat(self):
        rep = ar.run_term_suite("B^1 B", steps=60)
        assert not rep.passed
        assert not named(rep, "no canonical form repeats")[0].ok


class TestGeneralCondition:
    def test_violated_by_cycling_term(self):
        rep = ar.run_term_suite("B", steps=30, membership=lambda t: True)
        bad = [i for i in named(rep, GENERAL) if not i.ok]
        assert len(named(rep, GENERAL)) == 2
        assert len(bad) == 1
        assert "leaves" in bad[0].detail

    def test_accepts_power_base(self):
        mp = ar.MonomialPower(1, 1)
        rep = ar.run_term_suite(
            ar.z_term(mp), steps=40, membership=lambda t: ar.in_iterate_family(t, mp))
        assert len(named(rep, GENERAL)) == 2
        assert all(i.ok for i in named(rep, GENERAL))


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
    trees = [tree_of(s) for s in iterate("B", 3)]
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
        for t in [tree_of(s) for s in iterate(ar.example_antirho_term(), 40)]:
            assert ar.in_example_family(t)

    def test_full_suite(self):
        rep = ar.run_term_suite(ar.example_antirho_term(), steps=60,
                                membership=ar.in_example_family)
        assert rep.passed, rep.render()
