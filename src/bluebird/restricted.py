"""Restricted first-order rewriting over an indexed family of constants.

Terms are built from constants Const(k), k >= 0, by application. Const(0)
is the classic composition combinator; Const(k) waits for k + 3 arguments:

    Const(k) e1 e2 ... e(k+3)  ->  e1 (e2 e3 ... e(k+3))

with the argument block applied left to right. There is no eta rule and no
abstraction, so equality of normal forms is decidable syntactically. Every
contraction erases exactly one constant occurrence and duplicates nothing,
hence normal forms always exist; the step budget only caps effort.

The engine hash-conses terms into integer ids, so normal forms compare in
O(1) and the cycle searches from cycles.py run directly on ids. Budgets and
memo tables live on the engine instance; use one engine per search when
isolation matters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from . import bterm as bt
from . import cycles
from .errors import StepBudgetExceeded


@dataclass(frozen=True, slots=True)
class RConst:
    k: int


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class RApp(bt._Printed):
    fn: "RTerm"
    arg: "RTerm"

    def _text(self) -> str:
        return format_rterm(self)


RTerm = Union[RConst, RApp]


def parse_rterm(text: str) -> RTerm:
    """Parse restricted-term syntax: B, B^k, parentheses, juxtaposition.

    Unlike B-term syntax, B^k is an atom by itself (the k-th constant).
    """
    return bt._parse(text, RConst(0), RApp, RConst, then_b=False)


def format_rterm(t: RTerm) -> str:
    """Inverse of parse_rterm: left-associative, minimal parentheses."""
    return bt._format(t, lambda u: None if isinstance(u, RApp) else f"B^{u.k}" if u.k else "B")


def monomial_rterm(n: int) -> RTerm:
    """Restricted counterpart of the degree-n monomial: Const(n-1) applied
    to Const(0), or bare Const(0) for n = 0.

    Const(n-1) waiting for one argument behaves like n nested compositions,
    and unlike the fully nested spelling B (B (... (B B))) it carries only
    two constants, so orbit advances cost at most two contractions each.
    Both spellings produce identical orbit structure (their normal forms
    differ, but entry and cycle agree); this one is the cheap one."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    if n == 0:
        return RConst(0)
    return RApp(RConst(n - 1), RConst(0))


class RestrictedEngine:
    """Hash-consed rewrite engine with a cumulative contraction budget."""

    def __init__(self, max_steps: int = 10**7):
        self._node: list[tuple[int, int]] = []  # (-1, k) const | (fn, arg) app
        self._apps: dict[tuple[int, int], int] = {}  # id of every node
        self._nf: dict[int, int] = {}
        self.max_steps = max_steps
        self.steps = 0

    def app(self, fn: int, arg: int) -> int:
        """Id of the node (fn, arg); app(-1, k) is the constant Const(k)."""
        key = (fn, arg)
        i = self._apps.get(key)
        if i is None:
            i = len(self._node)
            self._node.append(key)
            self._apps[key] = i
        return i

    def intern(self, t: RTerm) -> int:
        """Map an RTerm to its id, iteratively (terms may nest deep)."""
        order, stack = [], [t]
        while stack:
            u = stack.pop()
            order.append(u)
            if isinstance(u, RApp):
                stack += (u.arg, u.fn)
            elif u.k < 0:
                raise ValueError("constant index must be >= 0")
        ids: list[int] = []  # built in reverse prefix order: fn on top of arg
        for u in reversed(order):
            ids.append(self.app(ids.pop(), ids.pop()) if isinstance(u, RApp) else self.app(-1, u.k))
        return ids[0]

    def extern(self, i: int) -> RTerm:
        """Inverse of intern; shared ids become shared subterms."""
        memo: dict[int, RTerm] = {}
        stack = [i]
        while stack:
            j = stack.pop()
            if j in memo:
                continue
            a, b = self._node[j]
            if a < 0:
                memo[j] = RConst(b)
            elif a in memo and b in memo:
                memo[j] = RApp(memo[a], memo[b])
            else:
                stack += (j, b, a)
        return memo[i]

    def _head_redex(self, t: int) -> int | None:
        """Contract the leftmost-outermost redex of t, whose children are
        already normal; returns the contractum id, or None if t is normal."""
        node = self._node
        args: list[int] = []
        cur = t
        while node[cur][0] >= 0:
            fn, arg = node[cur]
            args.append(arg)
            cur = fn
        k = node[cur][1]
        need = k + 3
        if len(args) < need:
            return None
        args.reverse()
        inner = args[1]
        for a in args[2:need]:
            inner = self.app(inner, a)
        out = self.app(args[0], inner)
        for a in args[need:]:
            out = self.app(out, a)
        self.steps += 1
        if self.steps > self.max_steps:
            raise StepBudgetExceeded(self.max_steps)
        return out

    def normalize(self, root: int) -> int:
        """Normal form id of root. Iterative so deep spines cannot overflow
        the interpreter stack; results are memoized on the engine."""
        nf = self._nf
        node = self._node
        stack: list = [root]  # ids to normalize; (id, rebuilt, contractum) to finish
        while stack:
            i = stack.pop()
            if type(i) is tuple:
                i, t, red = i
                nf[i] = nf[t] = nf[red]
                continue
            if i in nf:
                continue
            a, b = node[i]
            if a < 0:
                nf[i] = i
            elif a not in nf or b not in nf:
                stack += (i, b, a)
            else:
                fa, fb = nf[a], nf[b]
                t = i if (fa == a and fb == b) else self.app(fa, fb)
                red = self._head_redex(t)
                if red is None:
                    nf[i] = nf[t] = t
                else:
                    stack += ((i, t, red), red)
        return nf[root]


def rnormalize(t: RTerm, max_steps: int = 10**7) -> RTerm:
    """Normal form of an RTerm under the restricted rule."""
    eng = RestrictedEngine(max_steps)
    return eng.extern(eng.normalize(eng.intern(t)))


def find_rho_restricted(
    x: RTerm | str,
    algorithm: str = "brent",
    max_steps: int = cycles.MAX_STEPS,
    rewrite_budget: int = 10**7,
) -> cycles.RhoResult:
    """Least (entry, cycle) of the self-application orbit of x under the
    restricted rule, comparing normal forms syntactically. max_steps bounds
    orbit advances, rewrite_budget bounds total contractions. The search is
    Brent's; algorithm accepts only "brent"."""
    if algorithm != "brent":
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if isinstance(x, str):
        x = parse_rterm(x)
    eng = RestrictedEngine(rewrite_budget)
    base = eng.normalize(eng.intern(x))

    def advance(i: int) -> int:
        return eng.normalize(eng.app(i, base))

    return cycles.brent_rho(base, advance, max_steps)
