"""Surface syntax for B-terms.

A B-term is a binary application tree whose only leaf is the combinator B.
Text form:

    term := atom+            (application, left associative)
    atom := 'B' | '(' term ')' | 'B^' nat 'B'

``B^n B`` is sugar for the monomial: B applied n times, ending in B, e.g.
``B^2 B`` reads as ``B (B B)``.

A parse is one pass from text to the term's post-order (0 for B, 1 for an
application, 2 for a B^n atom), by _walk.c's bb_parse when the compiled
library loads and the text is ASCII, else by its twin _post_order, then
one builder, _build, from those codes to nodes; restricted.parse_rterm
runs the same two. An App compares and hashes by its post-order, which
the root that parse returns keeps when the text has no B^n atom, and
canonical.canonicalize folds.
"""

from __future__ import annotations

import re
from dataclasses import FrozenInstanceError

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


class _Posted(_Frozen):
    """Keeps an application's post-order once computed (_codes); the slot is
    not in App's __slots__, so no pickle holds it."""

    __slots__ = ("_post",)


class App(_Posted):
    """Equality and hash through the post-order, which no other tree has,
    and repr through the text: both are written by loops, not recursion."""

    __slots__ = ("fn", "arg")

    def __init__(self, fn: "BTerm", arg: "BTerm") -> None:
        _set_fn(self, fn)
        _set_arg(self, arg)

    def __eq__(self, other: object) -> bool:
        return type(other) is App and _codes(self) == _codes(other)

    def __hash__(self) -> int:
        return hash(_codes(self))

    def __repr__(self) -> str:
        return f"App<{format_bterm(self)}>"


_set_fn, _set_arg, _set_post = App.fn.__set__, App.arg.__set__, _Posted._post.__set__

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


def _codes(e: BTerm) -> bytes:
    """e's post-order, 0 for B and 1 for an application, kept on an App once
    computed: the prefix order that visits an argument before its function
    is, reversed, the post-order."""
    if type(e) is not App:
        return b"\x00"
    try:
        return e._post
    except AttributeError:
        pass
    codes, stack = bytearray(), [e]
    while stack:
        u = stack.pop()
        while type(u) is App:
            codes.append(1)
            stack.append(u.fn)
            u = u.arg
        codes.append(0)
    codes.reverse()
    _set_post(e, codes := bytes(codes))
    return codes


def parse(text: str) -> BTerm:
    """Parse term text. Raises ParseError with a position on bad input. The
    root keeps the text's post-order when no B^n atom is in it."""
    codes, spans = _lex(text, True)
    e = _build(codes, spans, text, B, App, monomial)
    if not spans and type(e) is App:
        _set_post(e, codes)
    return e


_walk = None  # the walk module, imported on the first parse


def _lex(text: str, then_b: bool) -> tuple[bytes, list[int]]:
    """_post_order(text, then_b), by walk.parse when the compiled library
    loads and text is ASCII, else by _post_order itself."""
    global _walk
    if _walk is None:
        from . import walk as _walk
    lib = _walk.load() if text.isascii() else None
    return _post_order(text, then_b) if lib is None else _walk.parse(lib, text, then_b)


# one match per token; a character that starts no token makes the rest of
# the text one last match, with that character as group 3
_TOKEN = re.compile(r"\s*(?:(B\^(\d+)|B(?![\w^])|[()])|(\S)(?s:.*))")
# ParseError messages by kind, as _walk.c's bb_parse numbers them
_ERRORS = ("unexpected character", "empty input", "expected a term", "unexpected ')'",
           "expected 'B' after 'B^n'", "unbalanced '('")


def _post_order(text: str, then_b: bool) -> tuple[bytes, list[int]]:
    """The post-order codes of the term of B-term or restricted-term text,
    0 for B, 1 for an application and 2 for a B^n atom (its B then follows
    if then_b), with the digit span (start, end) of every B^n atom, in one
    flat list. _walk.c's bb_parse is its twin. Each open '(' keeps its
    position and whether its enclosing group had a term, so nesting depth
    costs no interpreter stack. Raises ParseError on bad input; a lexical
    error anywhere wins over a syntax error, which the loop only records."""
    codes, spans, groups = bytearray(), [], []
    err = need_b = None  # (kind, position) of the first syntax error; a B^n's position
    has = False  # whether the innermost group has a term yet
    m = None
    for m in _TOKEN.finditer(text):
        tok, at = m[1], m.start(1)
        if tok is None:
            err = (0, m.start(3))
            break
        if err:
            continue
        if need_b is not None:  # the B that ends a B^n B
            if tok != "B":
                err = (4, need_b)
            need_b = None
            continue
        if tok == "(":
            groups.append((at, has))
            has = False
            continue
        if tok == ")":
            if not has or not groups:
                err = (3 if has else 2, at)
                continue
            has = groups.pop()[1]
        elif tok == "B":
            codes.append(0)
        else:
            codes.append(2)
            spans += m.span(2)
            if then_b:
                need_b = at
        if has:
            codes.append(1)
        has = True
    if err is None:
        if m is None:
            err = (1, 0)
        elif need_b is not None:
            err = (4, need_b)
        elif not has:
            err = (2, len(text))
        elif groups:
            err = (5, groups[-1][0])
    if err:
        raise _error(text, *err)
    return bytes(codes), spans


def _error(text: str, kind: int, position: int) -> ParseError:
    """The ParseError of an error kind of _ERRORS at a position of text."""
    message = _ERRORS[kind]
    return ParseError(f"{message} {text[position]!r}" if kind == 0 else message, position)


def _build(codes, spans, text: str, leaf, app, power):
    """The term of post-order codes: 0 pushes leaf, 1 applies the term below
    the top to the top one, and 2 pushes power(n) for n in the next digit
    span of text (spans as _post_order gives them)."""
    vals: list = []
    push, pop = vals.append, vals.pop
    bounds = iter(spans)
    for c in codes:
        if not c:
            push(leaf)
        elif c == 1:
            arg = pop()
            vals[-1] = app(vals[-1], arg)
        else:
            push(power(int(text[next(bounds):next(bounds)])))
    return vals[0]


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
