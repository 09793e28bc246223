"""Small untyped lambda calculus with de Bruijn indices.

This module is the trusted reference: beta-eta equivalence decided by brute
normalization. The fast engines elsewhere in the package are validated against
it, so nothing here may depend on them.

Reduction strategy: normal order (leftmost outermost) beta to beta-normal
form, then exhaustive eta. A step budget guards non-normalizing inputs.

Inside, a term is one string in prefix order: _APP, then function and
argument; _ABS, then body; Var(i) as chr(i + 2). The first _APP _ABS pair is
the leftmost-outermost redex, and every walk is a loop with a stack of
binder depths, so term depth costs no interpreter stack.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import bterm as bt
from . import cycles
from .errors import NotBFormShape, StepBudgetExceeded
from .trees import LEAF, BinTree, Node

DEFAULT_BUDGET = 10**7

_APP = "\x00"
_ABS = "\x01"
_REDEX = _APP + _ABS


class _Coded:
    """Abs and App compare and hash by their prefix string."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and _encode(self) == _encode(other)

    def __hash__(self) -> int:
        return hash(_encode(self))

    def __repr__(self) -> str:
        return f"{type(self).__name__}<{format_lambda(self)}>"


@dataclass(frozen=True, slots=True)
class Var:
    index: int


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Abs(_Coded):
    body: "LambdaTerm"


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class App(_Coded):
    fn: "LambdaTerm"
    arg: "LambdaTerm"


LambdaTerm = Var | Abs | App


def _encode(t: LambdaTerm | bt.BTerm) -> str:
    """Prefix string of t; a B-term encodes as its image (leaves become B)."""
    out: list[str] = []
    stack = [t]
    while stack:
        u = stack.pop()
        if isinstance(u, (App, bt.App)):
            out.append(_APP)
            stack += (u.arg, u.fn)
        elif u is bt.B:
            out.append(_B)
        elif isinstance(u, Abs):
            out.append(_ABS)
            stack.append(u.body)
        elif u.index < 0:
            raise ValueError(f"negative de Bruijn index {u.index}")
        else:
            out.append(chr(u.index + 2))
    return "".join(out)


def _decode(code: str, var=Var, app=App) -> LambdaTerm:
    vals: list = []
    for c in reversed(code):
        if c == _APP:
            fn = vals.pop()
            vals.append(app(fn, vals.pop()))
        else:
            vals.append(Abs(vals.pop()) if c == _ABS else var(ord(c) - 2))
    return vals[0]


def _end(code: str, i: int) -> int:
    """End of the subterm that starts at code[i]: an _APP opens one more
    subterm to read, a variable closes one."""
    need = 1
    while need:
        need += (code[i] == _APP) - (code[i] > _ABS)
        i += 1
    return i


def _walk(code: str, by: int, value: str | None = None) -> str | None:
    """Add `by` to every free variable of code, or None if one would become
    bound. With a value, code is the body of a contracted redex: Var(0)
    becomes value, shifted by the binders it lands under (by is then -1)."""
    out: list[str] = []
    depths = [0]  # binder depth of each subterm still to read
    shifted = {0: value}
    for c in code:
        d = depths.pop()
        if c == _APP:
            depths += (d, d)
        elif c == _ABS:
            depths.append(d + 1)
        elif (i := ord(c) - 2) >= d:
            if i == d and value is not None:
                if d not in shifted:
                    shifted[d] = _walk(value, d)
                c = shifted[d]
            elif i + by < d:
                return None
            else:
                c = chr(i + by + 2)
        out.append(c)
    return "".join(out)


def _beta(code: str, max_steps: int) -> str:
    steps = 0
    p = code.find(_REDEX)
    while p >= 0:
        steps += 1
        if steps > max_steps:
            raise StepBudgetExceeded(max_steps)
        mid = _end(code, p + 2)
        stop = _end(code, mid)
        code = code[:p] + _walk(code[p + 2:mid], -1, code[mid:stop]) + code[stop:]
        # only the pair that ends at p can be new
        p = code.find(_REDEX, max(p - 1, 0))
    return code


def _eta_reduce(code: str) -> str:
    """Exhaustive eta, innermost first: _ABS _APP f Var(0) becomes f lowered
    by one when f does not use Var(0)."""
    out: list[str] = []
    todo: list[int] = []  # start of each open node; ~start while an App reads its function
    for c in code:
        out.append(c)
        if c == _APP or c == _ABS:
            todo.append(~(len(out) - 1) if c == _APP else len(out) - 1)
            continue
        while todo:
            s = todo.pop()
            if s < 0:
                todo.append(~s)
                break
            if (out[s] == _ABS and out[s + 1] == _APP and out[-1] == "\x02"  # Var(0)
                    and _end(out, s + 2) == len(out) - 1):
                lowered = _walk("".join(out[s + 2:-1]), -1)
                if lowered is not None:
                    del out[s:]
                    out += lowered
    return "".join(out)


def _normal(code: str, max_steps: int) -> str:
    return _eta_reduce(_beta(code, max_steps))


def normalize(t: LambdaTerm, max_steps: int = DEFAULT_BUDGET) -> LambdaTerm:
    """Beta-eta normal form of t, or StepBudgetExceeded.

    Normalization is idempotent: normalize(normalize(t)) == normalize(t).
    """
    return _decode(_normal(_encode(t), max_steps))


def equivalent(t1: LambdaTerm, t2: LambdaTerm, max_steps: int = DEFAULT_BUDGET) -> bool:
    """Beta-eta equivalence, decided by comparing normal forms."""
    return _normal(_encode(t1), max_steps) == _normal(_encode(t2), max_steps)


# the B combinator: \f g x. f (g x)
B = Abs(Abs(Abs(App(Var(2), App(Var(1), Var(0))))))
_B = _encode(B)

# standard combinators used by the cycle-search test battery
C = Abs(Abs(Abs(App(App(Var(2), Var(0)), Var(1)))))          # \x y z. x z y
K = Abs(Abs(Var(1)))                                          # \x y. x
I = Abs(Var(0))                                               # \x. x
S = Abs(Abs(Abs(App(App(Var(2), Var(0)), App(Var(1), Var(0))))))  # \x y z. x z (y z)
O = Abs(Abs(App(Var(0), App(Var(1), Var(0)))))                # \x y. y (x y)
D = Abs(Abs(Abs(Abs(App(App(Var(3), Var(2)), App(Var(1), Var(0)))))))  # \x y z w. x y (z w)
F = Abs(Abs(Abs(App(App(Var(0), Var(1)), Var(2)))))           # \x y z. z y x
R = Abs(Abs(Abs(App(App(Var(1), Var(0)), Var(2)))))           # \x y z. y z x
T = Abs(Abs(App(Var(0), Var(1))))                             # \x y. y x
V = Abs(Abs(Abs(App(App(Var(0), Var(2)), Var(1)))))           # \x y z. z x y


def bterm_to_lambda(e: bt.BTerm) -> LambdaTerm:
    """Image of a B-term: leaves become the B combinator, applications map across."""
    return _decode(_encode(e))


def lambda_to_tree(t: LambdaTerm) -> BinTree:
    """The application tree of t's body, one leaf per variable.

    Requires t to be a normal form in B-term shape: binders lambda x1...xk over
    an application tree using x1..xk exactly once each, in order. Raises
    NotBFormShape otherwise.
    """
    code = _encode(t)
    body = code.lstrip(_ABS)
    k = len(code) - len(body)
    leaves = body.replace(_APP, "")
    for used, c in enumerate(leaves):
        if c == _ABS:
            raise NotBFormShape("abstraction in applicative position")
        if ord(c) - 2 != k - 1 - used:
            raise NotBFormShape(
                f"variable {ord(c) - 2} out of order (expected {k - 1 - used})")
    if len(leaves) != k:
        raise NotBFormShape(f"{k} binders but {len(leaves)} variable uses")
    return _decode(body, lambda i: LEAF, Node)


def rho_lambda(t: LambdaTerm, max_steps: int = cycles.MAX_STEPS) -> cycles.RhoResult:
    """Cycle of the flat self-application sequence of t under beta-eta equality.

    Returns the search core's cycles.RhoResult; the core only compares
    states, so the answer rests on this module's normalizer alone. States
    are normal forms as prefix strings; each advance is one application
    followed by normalization, so this is the slow reference engine.
    Raises CycleNotFound past the horizon, StepBudgetExceeded if a normal
    form cannot be reached.
    """
    base = _normal(_encode(t), DEFAULT_BUDGET)

    def advance(cur: str) -> str:
        return _normal(_APP + cur + base, DEFAULT_BUDGET)

    return cycles.brent_rho(base, advance, max_steps)


def format_lambda(t: LambdaTerm) -> str:
    """Compact text: binder runs as backslashes, de Bruijn indices, left-assoc
    application by juxtaposition. B prints as '\\\\\\.2 (1 0)'."""
    out: list[str] = []
    todo: list = [(t, False)]  # (term, in atom position) or literal text
    while todo:
        u, atom = todo.pop()
        if isinstance(u, (str, Var)):
            out.append(u if isinstance(u, str) else str(u.index))
            continue
        if atom:
            out.append("(")
            todo.append((")", False))
        n = 0
        while isinstance(u, Abs):
            n += 1
            u = u.body
        if n:
            out.append("\\" * n + ".")
            todo.append((u, False))
            continue
        while isinstance(u, App):
            todo += ((u.arg, True), (" ", False))
            u = u.fn
        todo.append((u, True))
    return "".join(out)
