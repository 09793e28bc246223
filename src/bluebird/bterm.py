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
from dataclasses import FrozenInstanceError
from itertools import islice

from .errors import ParseError


class _Frozen:
    """An immutable node with __slots__: its __init__ writes each slot
    through the slot's member descriptor, assignment and deletion raise as
    on a frozen dataclass, and a pickle rebuilds it from its slots."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple([getattr(self, name) for name in self.__slots__])


class _BLeaf(_Frozen):
    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return True if type(other) is _BLeaf else NotImplemented

    def __hash__(self) -> int:
        return hash(())

    def __repr__(self) -> str:
        return "B"

    def __reduce__(self):
        return "B"  # the module's one leaf


B = _BLeaf()


class _Printed(_Frozen):
    """Equality, hash and repr of an application node through its text,
    which a printer loop builds without recursion."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self._text() == other._text()

    def __hash__(self) -> int:
        return hash(self._text())

    def __repr__(self) -> str:
        return f"{type(self).__name__}<{self._text()}>"


class App(_Printed):
    __slots__ = ("fn", "arg")

    def __init__(self, fn: "BTerm", arg: "BTerm") -> None:
        _set_fn(self, fn)
        _set_arg(self, arg)

    def _text(self) -> str:
        return format_bterm(self)


_set_fn, _set_arg = App.fn.__set__, App.arg.__set__

BTerm = _BLeaf | App


def is_leaf(e: BTerm) -> bool:
    return isinstance(e, _BLeaf)


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


# one match per token; a character that starts no token makes the rest of
# the text one last match with an empty token
_TOKEN = re.compile(r"\s*(?:(B\^\d+|B(?![\w^])|[()])|\S(?s:.*))")


def _position(text: str, k: int) -> int:
    """Where the k-th match of _TOKEN in text starts its token, found again
    by the same scan: only an error needs a position."""
    m = next(islice(_TOKEN.finditer(text), k, None))
    return m.start(1) if m.group(1) else len(text) - len(m.group().lstrip())


def parse(text: str) -> BTerm:
    """Parse term text. Raises ParseError with a position on bad input."""
    return _parse(text, B, App, monomial, then_b=True)


def _parse(text, leaf, app, power, then_b: bool):
    """The parse loop of B-term and restricted-term text: ``B`` reads as
    leaf, ``B^n`` as power(n) (then followed by its own ``B`` if then_b) and
    juxtaposition as app. Each open '(' pushes the partial application of
    its enclosing group, so nesting depth costs no interpreter stack."""
    tokens = _TOKEN.findall(text)
    if not tokens:
        raise ParseError("empty input", 0)
    if not tokens[-1]:
        pos = _position(text, len(tokens) - 1)
        raise ParseError(f"unexpected character {text[pos]!r}", pos)
    groups: list[tuple[object, int]] = []  # (enclosing partial, index of its '(')
    cur = None  # partial application of the innermost group
    it = enumerate(tokens)
    for k, tok in it:
        if tok == "B":
            atom = leaf
        elif tok == "(":
            groups.append((cur, k))
            cur = None
            continue
        elif tok == ")":
            if cur is None:
                raise ParseError("expected a term", _position(text, k))
            if not groups:
                raise ParseError("unexpected ')'", _position(text, k))
            atom = cur
            cur = groups.pop()[0]
        else:
            if then_b and next(it, (0, None))[1] != "B":
                raise ParseError("expected 'B' after 'B^n'", _position(text, k))
            atom = power(int(tok[2:]))
        cur = atom if cur is None else app(cur, atom)
    if cur is None:
        raise ParseError("expected a term", len(text))
    if groups:
        raise ParseError("unbalanced '('", _position(text, groups[-1][1]))
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
