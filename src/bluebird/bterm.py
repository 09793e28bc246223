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

from .errors import ParseError


@dataclass(frozen=True, slots=True)
class _BLeaf:
    def __repr__(self) -> str:
        return "B"


B = _BLeaf()


class _Printed:
    """Equality, hash and repr of an application node through its text,
    which a printer loop builds without recursion."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self._text() == other._text()

    def __hash__(self) -> int:
        return hash(self._text())

    def __repr__(self) -> str:
        return f"{type(self).__name__}<{self._text()}>"


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class App(_Printed):
    fn: "BTerm"
    arg: "BTerm"

    def _text(self) -> str:
        return format_bterm(self)


BTerm = _BLeaf | App


def is_leaf(e: BTerm) -> bool:
    return isinstance(e, _BLeaf)


def spine(e: BTerm) -> tuple[BTerm, list[BTerm]]:
    """Decompose e = head a1 ... an along the left edge. head is always B."""
    args: list[BTerm] = []
    while isinstance(e, App):
        args.append(e.arg)
        e = e.fn
    args.reverse()
    return e, args


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
    """Parse term text. Raises ParseError with a position on bad input."""
    return _parse(text, B, App, monomial, then_b=True)


def _parse(text: str, leaf, app, power, then_b: bool):
    """The parse loop of B-term and restricted-term text: ``B`` reads as
    leaf, ``B^n`` as power(n) (then followed by its own ``B`` if then_b) and
    juxtaposition as app. Each open '(' pushes the partial application of
    its enclosing group, so nesting depth costs no interpreter stack."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty input", 0)
    groups: list[tuple[object, int]] = []  # (enclosing partial, '(' position)
    cur = None  # partial application of the innermost group
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


def _format(e, atom) -> str:
    """Print an application tree with minimal parentheses; atom(t) is the
    text of a subterm printed whole, or None to split it into fn and arg."""
    out: list[str] = []
    todo: list = [(e, False)]  # (term, in argument position) or literal text
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        t, arg_position = item
        text = atom(t)
        if text is not None:
            out.append(text)
            continue
        if arg_position:
            out.append("(")
            todo.append(")")
        todo.append((t.arg, True))
        todo.append(" ")
        todo.append((t.fn, False))
    return "".join(out)


def format_bterm(e: BTerm, sugar: bool = False) -> str:
    """Render with minimal parentheses; parse(format_bterm(e)) == e.

    With sugar=True, monomial subterms print as ``B^n B`` (they re-parse as a
    single atom, so they never need parentheses of their own).
    """
    plain: set[int] = set()  # ids of nodes B X known not to be monomials

    def atom(t: BTerm) -> str | None:
        if is_leaf(t) or not sugar:
            return "B" if is_leaf(t) else None
        chain = []
        while isinstance(t, App) and is_leaf(t.fn) and id(t) not in plain:
            chain.append(id(t))
            t = t.arg
        if is_leaf(t):
            return f"B^{len(chain)} B"
        # every node of the chain sits above the same non-monomial bottom
        plain.update(chain)
        return None

    return _format(e, atom)
