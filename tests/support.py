"""Shared helpers for the test suite: term enumeration and brute-force oracles."""

import re
from functools import lru_cache
from itertools import combinations_with_replacement

import pytest
from hypothesis import strategies as hs

from bluebird import cycle_detect, walk
from bluebird import lambda_oracle as lo
from bluebird.bterm import App, B, BTerm, monomial, parse
from bluebird.canonical import DegreeSeq, Runs, canonicalize, raise_runs
from bluebird.cycles import floyd_rho
from bluebird.errors import ParseError, StepBudgetExceeded
from bluebird.restricted import RApp, RConst
from bluebird.trees import BinTree, Node


@lru_cache(maxsize=None)
def bterm_shapes(leaves: int) -> tuple[BTerm, ...]:
    """All application trees over the single constant with `leaves` leaves.

    Catalan-many shapes: 1, 1, 2, 5, 14, 42, 132, ...
    """
    if leaves < 1:
        raise ValueError("need at least one leaf")
    if leaves == 1:
        return (B,)
    out = []
    for k in range(1, leaves):
        for fn in bterm_shapes(k):
            for arg in bterm_shapes(leaves - k):
                out.append(App(fn, arg))
    return tuple(out)


def bterms_up_to(leaves: int) -> list[BTerm]:
    out: list[BTerm] = []
    for n in range(1, leaves + 1):
        out.extend(bterm_shapes(n))
    return out


def random_bterm(rng, max_leaves: int = 12) -> BTerm:
    """Uniform leaf count in 1..max_leaves, then a random split at each node."""
    def build(n: int) -> BTerm:
        if n == 1:
            return B
        k = rng.randint(1, n - 1)
        return App(build(k), build(n - k))
    return build(rng.randint(1, max_leaves))


def bterm_strategy(max_leaves: int = 9):
    """Hypothesis strategy for B-terms of at most max_leaves leaves."""
    return hs.recursive(hs.just(B), lambda sub: hs.builds(App, sub, sub),
                        max_leaves=max_leaves)


@pytest.fixture(params=["c", "py"])
def stepper(request, monkeypatch):
    """Runs a test once on the compiled walk and once on the Python stepper,
    and gives it the name find_rho reports in SearchState.stepper."""
    if request.param == "py":
        monkeypatch.setattr(walk, "load", lambda: None)
    elif walk.load() is None:
        pytest.skip("no C compiler to build the compiled walk")
    return request.param


_REF_TOKEN = re.compile(r"\s*(B\^(\d+)|B(?![\w^])|\(|\))")


def _reference_tokens(text: str) -> list[tuple[str, int]]:
    out = []
    pos = 0
    while pos < len(text):
        m = _REF_TOKEN.match(text, pos)
        if m is None:
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise ParseError(f"unexpected character {rest[0]!r}", len(text) - len(rest))
        out.append((m.group(1), m.start(1)))
        pos = m.end()
    return out


def reference_parse(text: str, leaf=B, app=App, power=monomial, then_b: bool = True):
    """bterm._parse by the lexer that its one findall replaced: one match
    per token, each token kept with its position. With leaf, app, power and
    then_b as bterm.parse passes them by default, and as restricted's
    parse_rterm does with RConst(0), RApp, RConst and False. The package
    never imports it."""
    tokens = _reference_tokens(text)
    if not tokens:
        raise ParseError("empty input", 0)
    groups: list[tuple[object, int]] = []
    cur = None
    idx = 0
    while idx < len(tokens):
        tok, pos = tokens[idx]
        idx += 1
        if tok == "(":
            groups.append((cur, pos))
            cur = None
            continue
        if tok == ")":
            if cur is None:
                raise ParseError("expected a term", pos)
            if not groups:
                raise ParseError("unexpected ')'", pos)
            atom = cur
            cur = groups.pop()[0]
        elif tok == "B":
            atom = leaf
        else:
            if then_b and (idx == len(tokens) or tokens[idx][0] != "B"):
                raise ParseError("expected 'B' after 'B^n'", pos)
            idx += then_b
            atom = power(int(tok[2:]))
        cur = atom if cur is None else app(cur, atom)
    if cur is None:
        raise ParseError("expected a term", len(text))
    if groups:
        raise ParseError("unbalanced '('", groups[-1][1])
    return cur


def eager_apply_runs(runs: Runs, raised_base: Runs) -> Runs:
    """canonical(X Y) from runs = canonical(X) and raised_base =
    raise_runs(canonical(Y)), by the eager kernel that the lazy-offset one
    replaced: merge each run from the right by the swap law, drop the tail
    zero run, then lower every degree by one. The package never imports it.
    """
    acc = [[d, m] for d, m in runs]
    for d, m in raised_base:
        i = len(acc)
        while i > 0 and acc[i - 1][0] < d:
            d += acc[i - 1][1]
            i -= 1
        if i > 0 and acc[i - 1][0] == d:
            acc[i - 1][1] += m
        else:
            acc.insert(i, [d, m])
    if acc[-1][0] == 0:
        acc.pop()
    for run in acc:
        run[0] -= 1
    return tuple(map(tuple, acc))


def eager_orbit(base: Runs, count: int) -> list[Runs]:
    """[None, X(1), ..., X(count)] as run tuples, by eager_apply_runs, so
    that index i holds X(i)."""
    out, rbase = [None, base], raise_runs(base)
    while len(out) <= count:
        out.append(eager_apply_runs(out[-1], rbase))
    return out


def brute_rho(x: BTerm, limit: int) -> tuple[int, int]:
    """First-repeat search over the canonical forms of X^(1), X^(2), ...

    Returns the minimal (entry, cycle) pair, independent of the pointer
    algorithms under test.  Raises if no repeat shows up within `limit`.
    """
    base = canonicalize(x).runs
    seen: dict[tuple, int] = {}
    cur = base
    i = 1
    while i <= limit:
        if cur in seen:
            return seen[cur], i - seen[cur]
        seen[cur] = i
        cur = eager_apply_runs(cur, raise_runs(base))
        i += 1
    raise AssertionError(f"no repeat within {limit} steps")


def floyd_canonical(text: str) -> tuple[int, int]:
    """(entry, cycle) of the orbit of the term text by cycles.floyd_rho over
    cycle_detect.apply_poly: a route to find_rho's answer that shares no
    code with its Brent search."""
    first = canonicalize(parse(text))
    return tuple(floyd_rho(first, lambda state: cycle_detect.apply_poly(state, first)))


def decreasing_seqs(max_entries: int, max_degree: int) -> list[DegreeSeq]:
    """Every decreasing-degree sequence with 1..max_entries entries, degrees
    bounded by max_degree.  (Multisets of degrees, written descending.)"""
    out = []
    for n in range(1, max_entries + 1):
        for combo in combinations_with_replacement(range(max_degree + 1), n):
            out.append(DegreeSeq.from_degrees(sorted(combo, reverse=True)))
    return out


def tree_to_lambda(t: BinTree) -> lo.LambdaTerm:
    """lambda x1...xk. M where M applies the k leaves of t in left-to-right
    order, built from lambda_oracle's public constructors: the inverse of
    lo.lambda_to_tree. It recurses on tree depth, so keep its inputs
    shallow."""
    index = iter(range(t.size - 1, -1, -1))  # x1 sits under all k binders

    def body(u):
        if isinstance(u, Node):
            return lo.App(body(u.left), body(u.right))  # left leaves first
        return lo.Var(next(index))

    out = body(t)
    for _ in range(t.size):
        out = lo.Abs(out)
    return out


# --- a second lambda normalizer ---------------------------------------------
# Normal-order reduction on Var/Abs/App trees, written apart from
# lambda_oracle's Krivine machine so the tests can compare the two. It
# recurses on term depth, so keep its inputs shallow.

def _shift(t, by, depth=0):
    if isinstance(t, lo.Var):
        return lo.Var(t.index + by) if t.index >= depth else t
    if isinstance(t, lo.Abs):
        return lo.Abs(_shift(t.body, by, depth + 1))
    return lo.App(_shift(t.fn, by, depth), _shift(t.arg, by, depth))


def _subst(t, depth, value):
    if isinstance(t, lo.Var):
        if t.index == depth:
            return _shift(value, depth)
        return lo.Var(t.index - 1) if t.index > depth else t
    if isinstance(t, lo.Abs):
        return lo.Abs(_subst(t.body, depth + 1, value))
    return lo.App(_subst(t.fn, depth, value), _subst(t.arg, depth, value))


def _beta_nf(t, budget):
    spine = []
    while True:
        while isinstance(t, lo.App):
            spine.append(t.arg)
            t = t.fn
        if isinstance(t, lo.Abs):
            if spine:
                budget[0] += 1
                if budget[0] > budget[1]:
                    raise StepBudgetExceeded(budget[1])
                t = _subst(t.body, 0, spine.pop())
            else:
                return lo.Abs(_beta_nf(t.body, budget))
        else:
            out = t
            while spine:
                out = lo.App(out, _beta_nf(spine.pop(), budget))
            return out


def _uses(t, index):
    if isinstance(t, lo.Var):
        return t.index == index
    if isinstance(t, lo.Abs):
        return _uses(t.body, index + 1)
    return _uses(t.fn, index) or _uses(t.arg, index)


def _eta(t):
    if isinstance(t, lo.Var):
        return t
    if isinstance(t, lo.App):
        return lo.App(_eta(t.fn), _eta(t.arg))
    body = _eta(t.body)
    if isinstance(body, lo.App) and body.arg == lo.Var(0) and not _uses(body.fn, 0):
        return _shift(body.fn, -1)
    return lo.Abs(body)


def reference_normalize(t, max_steps=lo.DEFAULT_BUDGET):
    """(beta-eta normal form of t, beta steps taken), by normal-order
    reduction on the tree, or StepBudgetExceeded past max_steps steps."""
    budget = [0, max_steps]
    return _eta(_beta_nf(t, budget)), budget[0]


# --- a second restricted contractor -----------------------------------------
# One leftmost-outermost contraction at a time on RTerm trees, apart from
# RestrictedEngine's hash-consed pair table. It recurses on argument
# nesting, so keep its inputs shallow.

def _contract_leftmost(t):
    """t with its leftmost-outermost redex contracted, or None if t is normal."""
    head, args = t, []
    while isinstance(head, RApp):
        args.append(head.arg)
        head = head.fn
    args.reverse()
    need = head.k + 3
    if len(args) >= need:
        inner = args[1]
        for a in args[2:need]:
            inner = RApp(inner, a)
        args[:need] = [RApp(args[0], inner)]
    else:
        for i, a in enumerate(args):
            red = _contract_leftmost(a)
            if red is not None:
                args[i] = red
                break
        else:
            return None
        args.insert(0, head)
    out = args[0]
    for a in args[1:]:
        out = RApp(out, a)
    return out


def reference_rnormalize(t):
    """(normal form of the RTerm t, contractions taken), contracting the
    leftmost-outermost redex until none is left."""
    steps = 0
    while (red := _contract_leftmost(t)) is not None:
        t, steps = red, steps + 1
    return t, steps


def count_rconsts(t) -> int:
    """Number of constant occurrences in an RTerm."""
    n, stack = 0, [t]
    while stack:
        u = stack.pop()
        if isinstance(u, RApp):
            stack += (u.fn, u.arg)
        else:
            n += 1
    return n
