"""Certificates that a self-application orbit can never cycle.

A term X has the cycling property when X(i) = X(i+j) for some i, j >= 1 in
the orbit X(1) = X, X(i+1) = X(i) X up to beta-eta. This module checks the
opposite: families of normal-form trees closed under the orbit step, on
which the leaf count never decreases and keeps growing, so no iterate can
ever repeat.

The flagship family covers composition powers of a monomial: for k >= 0 and
n >= 1, the term Z of canonical form [k, k, ..., k] with (k+2)n entries.
Its iterates stay inside a tree family described by MonomialPower, the
leaf count l and head-argument count a of consecutive iterates obey exact
recurrences, and a is confined to {k+1, (k+2)n+k+1}. run_power_suite checks
all of this plus cycle-freedom over a finite stretch of the orbit.

Everything here works on the eta-short normal-form trees produced by
canonical.tree_of, with the lambda oracle cross-checking small iterates.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import pairwise
from typing import Callable, Iterable, Union

from . import bterm as bt
from .canonical import DegreeSeq, seq_to_bterm, tree_of
from .cycle_detect import iterate
from .trees import LEAF, BinTree, split_spine, tree_equal

TermLike = Union[bt.BTerm, str]


@dataclass(frozen=True, slots=True)
class MonomialPower:
    """Composition power of a degree-k monomial with (k+2)n factors."""

    k: int
    n: int

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("k must be >= 0")
        if self.n < 1:
            raise ValueError("n must be >= 1")

    @property
    def width(self) -> int:
        """Argument count of a composite member of the argument family."""
        return (self.k + 2) * self.n

    @property
    def leaf_count(self) -> int:
        """Leaves of the base term's normal-form tree."""
        return self.k + self.width + 2


def z_term(mp: MonomialPower) -> bt.BTerm:
    """The base term: (k+2)n composed copies of the degree-k monomial."""
    return seq_to_bterm(DegreeSeq.from_degrees([mp.k] * mp.width))


def in_argument_family(t: BinTree, mp: MonomialPower) -> bool:
    """Trees allowed as head arguments of an iterate: a leaf, or a head
    leaf with exactly (k+2)n arguments whose every (k+2)-nd argument
    (1-indexed) is a leaf and whose other arguments are again members."""
    period = mp.k + 2
    width = mp.width
    stack = [t]
    while stack:
        u = stack.pop()
        if u is LEAF:
            continue
        head, args = split_spine(u)
        if head is not LEAF or len(args) != width:
            return False
        for pos, s in enumerate(args, start=1):
            if pos % period == 0:
                if s is not LEAF:
                    return False
            else:
                stack.append(s)
    return True


def in_iterate_family(t: BinTree, mp: MonomialPower) -> bool:
    """Trees of orbit iterates: a left chain of exactly k+2 components,
    each in the argument family. The leftmost component may itself be
    composite, so exactly k+1 applications are peeled, no more."""
    comps = []
    cur = t
    for _ in range(mp.k + 1):
        if cur is LEAF:
            return False
        comps.append(cur.right)
        cur = cur.left
    comps.append(cur)
    return all(in_argument_family(c, mp) for c in comps)


@dataclass(frozen=True, slots=True)
class CheckItem:
    name: str
    ok: bool
    detail: str = ""

    def render(self) -> str:
        line = ("ok   " if self.ok else "FAIL ") + self.name
        if self.detail:
            line += f" -- {self.detail}"
        return line


@dataclass(frozen=True, slots=True)
class Report:
    items: tuple[CheckItem, ...]

    @property
    def passed(self) -> bool:
        return all(item.ok for item in self.items)

    def render(self) -> str:
        lines = [item.render() for item in self.items]
        failed = sum(1 for item in self.items if not item.ok)
        lines.append("all checks passed" if failed == 0 else f"{failed} check(s) failed")
        return "\n".join(lines)


def _check(name: str, failures: Iterable[tuple[int, str]]) -> CheckItem:
    """Fail at the first (iterate, detail) that failures yields, else pass.
    failures is lazy: nothing past the first failure is examined, and only
    that failure's detail is formatted."""
    for i, detail in failures:
        return CheckItem(name, False, f"at iterate {i}: {detail}")
    return CheckItem(name, True)


_ORACLE_ITERATES = 6  # the lambda route slows down fast as iterates grow


def _oracle_item(x: TermLike, trees: list[BinTree]) -> CheckItem:
    """Independent route: normalize X(i) in the lambda calculus and compare
    its normal-form tree with the tree route's, whole."""
    from .lambda_oracle import bterm_to_lambda, lambda_to_tree, normalize

    if isinstance(x, str):
        x = bt.parse(x)
    shown = trees[:_ORACLE_ITERATES]

    def mismatches():
        for i, want in enumerate(shown, start=1):
            got = lambda_to_tree(normalize(bterm_to_lambda(bt.flat(x, i)), max_steps=10**6))
            if not tree_equal(got, want):
                yield i, (f"oracle tree (l={got.size}, a={len(split_spine(got)[1])}) differs "
                          f"from the tree route's (l={want.size}, a={len(split_spine(want)[1])})")

    return _check(f"lambda oracle agrees on the normal-form trees (first {len(shown)})",
                  mismatches())


def _orbit(x: TermLike, steps: int) -> tuple[list[DegreeSeq], list[BinTree]]:
    """Canonical forms and normal-form trees of X(1) .. X(steps), built once
    per suite and shared by its checks."""
    seqs = list(iterate(x, steps))
    return seqs, [tree_of(s) for s in seqs]


def _monotone(seqs: list[DegreeSeq], trees: list[BinTree], steps: int) -> list[CheckItem]:
    """Cycle-freedom evidence over X(1) .. X(steps): the leaf count never
    decreases, keeps increasing, and no canonical form repeats.

    "Keeps increasing" is a windowed heuristic: from each iterate a strict
    increase must occur within a window of further iterates. Flat stretches
    (the head swallowing arguments without growing) get longer as terms
    grow, so no fixed window is sound for every family; the window adapts
    to the current leaf count plus a base margin, which stays comfortably
    above every stall observed across the test families.
    """
    leaves = [t.size for t in trees]
    margin = 2 * leaves[0] + 2

    def stalls():
        for i, here in enumerate(leaves):
            j = i + here + margin
            if j >= len(leaves):
                return
            if leaves[j] <= here:
                yield i + 1, f"leaf count stuck at {here} from iterate {i + 1} to {j + 1}"

    def repeats():
        seen: dict[tuple, int] = {}
        for i, s in enumerate(seqs, start=1):
            prev = seen.setdefault(s.runs, i)
            if prev != i:
                yield i, f"canonical form equals iterate {prev}"

    return [
        _check("leaf count never decreases",
               ((i, f"leaf count {a} -> {b}")
                for i, (a, b) in enumerate(pairwise(leaves), start=1) if b < a)),
        _check("leaf count strictly increases within a dynamic window (heuristic)", stalls()),
        _check(f"no canonical form repeats in {steps} iterates", repeats()),
    ]


def run_power_suite(mp: MonomialPower, steps: int = 200) -> Report:
    """Full certificate for a monomial power: family membership, the exact
    leaf/head-arg/first-arg recurrences between consecutive iterates, the
    two admissible head-arg counts, monotone growth, and the lambda-oracle
    cross-check."""
    x = z_term(mp)
    seqs, trees = _orbit(x, steps)
    args = [split_spine(t)[1] for t in trees]
    gain = mp.leaf_count - 1  # leaves added by one application before head loss
    low, high = mp.k + 1, mp.width + mp.k + 1

    def leaf_recurrence():
        for i in range(1, len(trees)):
            want = trees[i - 1].size + gain - len(args[i - 1])
            if trees[i].size != want:
                yield i, f"expected {want} leaves, got {trees[i].size}"

    def head_arg_recurrence():
        for i in range(1, len(trees)):
            if not args[i - 1]:
                yield i, "iterate has no head arguments"
                continue
            want = len(split_spine(args[i - 1][0])[1]) + mp.k + 1
            if len(args[i]) != want:
                yield i, f"expected {want} head arguments, got {len(args[i])}"

    def first_arg_recurrence():
        for i in range(1, len(trees)):
            prev, cur = args[i - 1], args[i]
            if not prev or not cur:
                yield i, "iterate has no head arguments"
                continue
            if prev[0] is LEAF:
                # the next first argument is built by substituting into the
                # base's first argument; that collapses to the plain second
                # argument only when the base's first argument is a lone leaf,
                # i.e. k >= 1. For k = 0 the substituted shape is not asserted
                # here; the oracle cross-check still covers those iterates.
                if mp.k == 0:
                    continue
                source = prev[1:]
            else:
                source = split_spine(prev[0])[1]
            if not source:
                yield i, "recurrence source argument missing"
            elif not tree_equal(cur[0], source[0]):
                yield i, "first argument differs from prediction"

    return Report((
        _check(f"all {steps} iterate trees stay in the family",
               ((i, "tree left the family")
                for i, t in enumerate(trees, start=1) if not in_iterate_family(t, mp))),
        _check(f"head-argument count always {low} or {high}",
               ((i, f"head applies {len(a)} arguments")
                for i, a in enumerate(args, start=1) if len(a) not in (low, high))),
        _check("leaf-count recurrence holds", leaf_recurrence()),
        _check("head-arg recurrence holds", head_arg_recurrence()),
        _check("first-arg recurrence holds (substitution-free cases)", first_arg_recurrence()),
        *_monotone(seqs, trees, steps),
        _oracle_item(x, trees),
    ))


def example_antirho_term() -> bt.BTerm:
    """The worked non-monomial example: canonical form [2, 2, 1, 1, 0, 0]."""
    return seq_to_bterm(DegreeSeq.from_degrees([2, 2, 1, 1, 0, 0]))


def in_example_argument_family(t: BinTree) -> bool:
    """Argument family for the worked example: a leaf; or a head leaf with
    arguments (t1, leaf); or with arguments (t1, leaf, s, leaf) where s is
    itself a head leaf with arguments (t2, leaf); t1, t2 again members."""
    stack = [t]
    while stack:
        u = stack.pop()
        if u is LEAF:
            continue
        head, args = split_spine(u)
        if head is not LEAF:
            return False
        if len(args) == 2 and args[1] is LEAF:
            stack.append(args[0])
            continue
        if len(args) == 4 and args[1] is LEAF and args[3] is LEAF and args[2] is not LEAF:
            h2, a2 = split_spine(args[2])
            if h2 is LEAF and len(a2) == 2 and a2[1] is LEAF:
                stack.append(args[0])
                stack.append(a2[0])
                continue
        return False
    return True


def in_example_family(t: BinTree) -> bool:
    """Iterate family for the worked example: an application of a member t1
    to a tree with head leaf and arguments (t2, leaf), t2 a member."""
    if t is LEAF:
        return False
    right = t.right
    if right is LEAF:
        return False
    head, args = split_spine(right)
    if head is not LEAF or len(args) != 2 or args[1] is not LEAF:
        return False
    return in_example_argument_family(t.left) and in_example_argument_family(args[0])


def run_term_suite(
    x: TermLike,
    steps: int = 100,
    membership: Callable[[BinTree], bool] | None = None,
) -> Report:
    """Anti-cycle evidence for an arbitrary term: monotone growth plus,
    when a family predicate is supplied, the sampled form of the no-cycle
    argument, plus the lambda-oracle cross-check.

    The no-cycle argument: every iterate tree belongs to the family, and
    the base leaf count exceeds every iterate's head-argument count. A
    family closed under the orbit step with that property can never
    produce a repeat, so the membership and bound items sample, over
    X(1) .. X(steps), the two facts the argument rests on."""
    seqs, trees = _orbit(x, steps)
    items = _monotone(seqs, trees, steps)
    if membership is not None:
        base_leaves = trees[0].size
        heads = (len(split_spine(t)[1]) for t in trees)
        items += [
            _check(f"all {steps} iterate trees stay in the family",
                   ((i, "tree left the family")
                    for i, t in enumerate(trees, start=1) if not membership(t))),
            _check("base leaf count exceeds every head-argument count",
                   ((i, f"base has {base_leaves} leaves but iterate applies {a} arguments")
                    for i, a in enumerate(heads, start=1) if a >= base_leaves)),
        ]
    items.append(_oracle_item(x, trees))
    return Report(tuple(items))
