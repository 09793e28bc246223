"""Surface syntax for B-terms.

A B-term is a binary application tree whose only leaf is the combinator B.
Text form:

    term := atom+            (application, left associative)
    atom := 'B' | '(' term ')' | 'B^' nat 'B'

``B^n B`` is sugar for the monomial: B applied n times, ending in B, e.g.
``B^2 B`` reads as ``B (B B)``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import reduce

from .errors import ParseError


@dataclass(frozen=True, slots=True)
class _BLeaf:
    def __repr__(self) -> str:
        return "B"


B = _BLeaf()


@dataclass(frozen=True, slots=True)
class App:
    fn: "BTerm"
    arg: "BTerm"

    def __repr__(self) -> str:
        return f"App({self.fn!r}, {self.arg!r})"


BTerm = _BLeaf | App


def is_leaf(e: BTerm) -> bool:
    return isinstance(e, _BLeaf)


def size(e: BTerm) -> int:
    """Number of B leaves in e."""
    n = 0
    stack = [e]
    while stack:
        t = stack.pop()
        if isinstance(t, App):
            stack.append(t.fn)
            stack.append(t.arg)
        else:
            n += 1
    return n


def spine(e: BTerm) -> tuple[BTerm, list[BTerm]]:
    """Decompose e = head a1 ... an along the left edge. head is always B."""
    args: list[BTerm] = []
    while isinstance(e, App):
        args.append(e.arg)
        e = e.fn
    args.reverse()
    return e, args


def from_spine(head: BTerm, args: list[BTerm]) -> BTerm:
    return reduce(App, args, head)


def flat(e: BTerm, k: int) -> BTerm:
    """k-fold flat self application: X^(1) = X, X^(j+1) = X^(j) X."""
    if k < 1:
        raise ValueError(f"flat power must be >= 1, got {k}")
    out = e
    for _ in range(k - 1):
        out = App(out, e)
    return out


def monomial(n: int) -> BTerm:
    """B applied n times ending in B: monomial(0) = B, monomial(2) = B (B B)."""
    if n < 0:
        raise ValueError(f"monomial degree must be >= 0, got {n}")
    out: BTerm = B
    for _ in range(n):
        out = App(B, out)
    return out


def monomial_degree(e: BTerm) -> int | None:
    """Degree n if e is syntactically monomial(n) with n >= 1, else None."""
    n = 0
    while isinstance(e, App) and is_leaf(e.fn):
        n += 1
        e = e.arg
    return n if n >= 1 and is_leaf(e) else None


_TOKEN = re.compile(r"\s*(B\^(\d+)|B(?![\w^])|\(|\))")


def _tokenize(text: str) -> list[tuple[str, int]]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise ParseError(f"unexpected character {rest[0]!r}", len(text) - len(rest))
        out.append((m.group(1), m.start(1)))
        pos = m.end()
    return out


def parse(text: str) -> BTerm:
    """Parse term text. Raises ParseError with a position on bad input.

    One pass over the tokens; each open '(' pushes the partial application
    of its enclosing group, so nesting depth costs no interpreter stack.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty input", 0)
    groups: list[tuple[BTerm | None, int]] = []  # (enclosing partial, '(' position)
    cur: BTerm | None = None  # partial application of the innermost group
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
            atom = B
        else:
            if idx == len(tokens) or tokens[idx][0] != "B":
                raise ParseError("expected 'B' after 'B^n'", pos)
            idx += 1
            atom = monomial(int(tok[2:]))
        cur = atom if cur is None else App(cur, atom)
    if cur is None:
        raise ParseError("expected a term", len(text))
    if groups:
        raise ParseError("unbalanced '('", groups[-1][1])
    return cur


def format_bterm(e: BTerm, sugar: bool = False) -> str:
    """Render with minimal parentheses; parse(format_bterm(e)) == e.

    With sugar=True, monomial subterms print as ``B^n B`` (they re-parse as a
    single atom, so they never need parentheses of their own).
    """
    out: list[str] = []
    todo: list = [(e, False)]  # (term, in argument position) or literal text
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        t, arg_position = item
        if is_leaf(t):
            out.append("B")
            continue
        if sugar:
            n = monomial_degree(t)
            if n is not None:
                out.append(f"B^{n} B")
                continue
        if arg_position:
            out.append("(")
            todo.append(")")
        todo.append((t.arg, True))
        todo.append(" ")
        todo.append((t.fn, False))
    return "".join(out)
