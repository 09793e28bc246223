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

import re
from dataclasses import dataclass
from typing import Iterator, Union

from . import cycles
from .errors import ParseError, StepBudgetExceeded


@dataclass(frozen=True, slots=True)
class RConst:
    k: int


@dataclass(frozen=True, slots=True)
class RApp:
    fn: "RTerm"
    arg: "RTerm"


RTerm = Union[RConst, RApp]

_TOKEN = re.compile(r"\s*(B\^(\d+)|B(?![\w^])|\(|\))")


def parse_rterm(text: str) -> RTerm:
    """Parse restricted-term syntax: B, B^k, parentheses, juxtaposition.

    Unlike B-term syntax, B^k is an atom by itself (the k-th constant).
    """
    pos = 0
    n = len(text)

    def skip_ws(p: int) -> int:
        while p < n and text[p].isspace():
            p += 1
        return p

    def parse_term(p: int) -> tuple[RTerm, int]:
        term, p = parse_atom(p)
        while True:
            q = skip_ws(p)
            if q >= n or text[q] == ")":
                return term, p
            arg, p = parse_atom(q)
            term = RApp(term, arg)

    def parse_atom(p: int) -> tuple[RTerm, int]:
        m = _TOKEN.match(text, p)
        if m is None:
            raise ParseError("expected 'B', 'B^k' or '('", skip_ws(p))
        tok = m.group(1)
        if tok == "(":
            term, p = parse_term(m.end())
            p = skip_ws(p)
            if p >= n or text[p] != ")":
                raise ParseError("unbalanced '('", m.start(1))
            return term, p + 1
        if tok == ")":
            raise ParseError("unexpected ')'", m.start(1))
        if tok == "B":
            return RConst(0), m.end()
        return RConst(int(m.group(2))), m.end()

    p = skip_ws(pos)
    if p >= n:
        raise ParseError("empty term", p)
    term, p = parse_term(p)
    p = skip_ws(p)
    if p < n:
        raise ParseError("trailing input", p)
    return term


def format_rterm(t: RTerm) -> str:
    """Inverse of parse_rterm: left-associative, minimal parentheses."""
    if isinstance(t, RConst):
        return "B" if t.k == 0 else f"B^{t.k}"
    parts = []
    cur = t
    while isinstance(cur, RApp):
        parts.append(cur.arg)
        cur = cur.fn
    parts.append(cur)
    parts.reverse()
    out = []
    for i, part in enumerate(parts):
        text = format_rterm(part)
        if i > 0 and isinstance(part, RApp):
            text = f"({text})"
        out.append(text)
    return " ".join(out)


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
        self._consts: dict[int, int] = {}
        self._apps: dict[tuple[int, int], int] = {}
        self._nf: dict[int, int] = {}
        self.max_steps = max_steps
        self.steps = 0

    def const(self, k: int) -> int:
        i = self._consts.get(k)
        if i is None:
            i = len(self._node)
            self._node.append((-1, k))
            self._consts[k] = i
        return i

    def app(self, fn: int, arg: int) -> int:
        key = (fn, arg)
        i = self._apps.get(key)
        if i is None:
            i = len(self._node)
            self._node.append(key)
            self._apps[key] = i
        return i

    def intern(self, t: RTerm) -> int:
        """Map an RTerm to its id, iteratively (terms may nest deep)."""
        stack: list = [(t, False)]
        results: list[int] = []
        while stack:
            item, done = stack.pop()
            if done:
                arg = results.pop()
                fn = results.pop()
                results.append(self.app(fn, arg))
            elif isinstance(item, RConst):
                if item.k < 0:
                    raise ValueError("constant index must be >= 0")
                results.append(self.const(item.k))
            else:
                stack.append((item, True))
                stack.append((item.arg, False))
                stack.append((item.fn, False))
        return results[0]

    def extern(self, i: int) -> RTerm:
        """Inverse of intern."""
        memo: dict[int, RTerm] = {}
        stack = [i]
        while stack:
            j = stack[-1]
            if j in memo:
                stack.pop()
                continue
            a, b = self._node[j]
            if a < 0:
                memo[j] = RConst(b)
                stack.pop()
                continue
            fa = memo.get(a)
            fb = memo.get(b)
            if fa is None:
                stack.append(a)
                continue
            if fb is None:
                stack.append(b)
                continue
            memo[j] = RApp(fa, fb)
            stack.pop()
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
        pending: dict[int, tuple[int, int]] = {}
        stack = [root]
        while stack:
            i = stack[-1]
            if i in nf:
                stack.pop()
                continue
            if i in pending:
                red, rebuilt = pending[i]
                r = nf.get(red)
                if r is None:
                    stack.append(red)
                    continue
                nf[i] = r
                nf[rebuilt] = r
                del pending[i]
                stack.pop()
                continue
            a, b = node[i]
            if a < 0:
                nf[i] = i
                stack.pop()
                continue
            fa = nf.get(a)
            if fa is None:
                stack.append(a)
                continue
            fb = nf.get(b)
            if fb is None:
                stack.append(b)
                continue
            t = self.app(fa, fb) if (fa != a or fb != b) else i
            red = self._head_redex(t)
            if red is None:
                nf[t] = t
                nf[i] = t
                stack.pop()
                continue
            pending[i] = (red, t)
            stack.append(red)
        return nf[root]


def rnormalize(t: RTerm, max_steps: int = 10**7) -> RTerm:
    """Normal form of an RTerm under the restricted rule."""
    eng = RestrictedEngine(max_steps)
    return eng.extern(eng.normalize(eng.intern(t)))


def requivalent(t1: RTerm, t2: RTerm, max_steps: int = 10**7) -> bool:
    """Joinability under the restricted rule: equal normal forms."""
    eng = RestrictedEngine(max_steps)
    return eng.normalize(eng.intern(t1)) == eng.normalize(eng.intern(t2))


def find_rho_restricted(
    x: RTerm | str,
    algorithm: str = "brent",
    max_steps: int = cycles.MAX_STEPS,
    rewrite_budget: int = 10**7,
) -> tuple[int, int]:
    """Least (entry, cycle) of the self-application orbit of x under the
    restricted rule, comparing normal forms syntactically. max_steps bounds
    orbit advances, rewrite_budget bounds total contractions."""
    if isinstance(x, str):
        x = parse_rterm(x)
    eng = RestrictedEngine(rewrite_budget)
    base = eng.normalize(eng.intern(x))

    def advance(i: int) -> int:
        return eng.normalize(eng.app(i, base))

    return cycles.search(cycles.start(base, advance, algorithm), advance, max_steps)


def iterate_restricted(
    x: RTerm | str, count: int, rewrite_budget: int = 10**7
) -> Iterator[RTerm]:
    """Yield normal forms of X(1) .. X(count) under the restricted rule."""
    if count < 1:
        return
    if isinstance(x, str):
        x = parse_rterm(x)
    eng = RestrictedEngine(rewrite_budget)
    base = eng.normalize(eng.intern(x))
    cur = base
    yield eng.extern(cur)
    for _ in range(count - 1):
        cur = eng.normalize(eng.app(cur, base))
        yield eng.extern(cur)
