"""Small untyped lambda calculus with de Bruijn indices.

This module is the trusted reference: beta-eta equivalence decided by brute
normalization. The fast engines elsewhere in the package are validated against
it, so nothing here may depend on them.

Reduction strategy: normal order (leftmost outermost) beta to beta-normal
form, then exhaustive eta. A step budget guards non-normalizing inputs.

Inside, a term is one string in prefix order: _APP, then function and
argument; _ABS, then body; Var(i) as chr(i + 2). Beta runs a machine on a
tree parsed once from it, eta two linear passes; every walk is a loop with
an explicit stack, so term depth costs no interpreter stack. _normal runs
_lambda.c's ln_normal, the same machine and passes in one call, when
walk.load builds it on the first normal form (the only library this
module loads), else _py_normal, and never both: the two routes end alike,
and _py_normal is the reference the compiled one is tested against.

rho_lambda keeps each orbit state's successor for the length of one run,
so it normalizes every distinct state once; that costs one string per
distinct state (about 140 MB for B^4 B).
"""

from __future__ import annotations

import gc
import sys

from . import bterm as bt
from . import cycles, walk
from .errors import NotBFormShape, StepBudgetExceeded
from .trees import LEAF, BinTree, Node

DEFAULT_BUDGET = 10**7

_APP = "\x00"
_ABS = "\x01"
_UTF32 = f"utf-32-{sys.byteorder[0]}e"  # one native int32 per code
_NOT_ONE_TERM = "not the prefix string of one lambda term"
_WIDE = "a de Bruijn index of the normal form passes U+10FFFF"


class _Coded(bt._Frozen):
    """Abs and App compare and hash by their prefix string, kept on the node
    once computed; the slot is not in their __slots__, so no pickle holds it."""

    __slots__ = ("_code",)

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and _coded(self) == _coded(other)

    def __hash__(self) -> int:
        return hash(_coded(self))

    def __repr__(self) -> str:
        return f"{type(self).__name__}<{format_lambda(self)}>"


class Var(bt._Frozen):
    __slots__ = ("index",)

    def __init__(self, index: int) -> None:
        _set_index(self, index)

    def __eq__(self, other: object) -> bool:
        return (self.index,) == (other.index,) if type(other) is Var else NotImplemented

    def __hash__(self) -> int:
        return hash((self.index,))

    def __repr__(self) -> str:
        return f"Var(index={self.index!r})"


class Abs(_Coded):
    __slots__ = ("body",)

    def __init__(self, body: "LambdaTerm") -> None:
        _set_body(self, body)


class App(_Coded):
    __slots__ = ("fn", "arg")

    def __init__(self, fn: "LambdaTerm", arg: "LambdaTerm") -> None:
        _set_fn(self, fn)
        _set_arg(self, arg)


_set_index, _set_body = Var.index.__set__, Abs.body.__set__
_set_fn, _set_arg = App.fn.__set__, App.arg.__set__
_set_code = _Coded._code.__set__

LambdaTerm = Var | Abs | App


def _encode(t: LambdaTerm) -> str:
    """Prefix string of t."""
    out: list[str] = []
    stack = [t]
    while stack:
        u = stack.pop()
        if isinstance(u, App):
            out.append(_APP)
            stack += (u.arg, u.fn)
        elif isinstance(u, Abs):
            out.append(_ABS)
            stack.append(u.body)
        elif u.index < 0:
            raise ValueError(f"negative de Bruijn index {u.index}")
        else:
            out.append(chr(u.index + 2))
    return "".join(out)


def _coded(t: Abs | App) -> str:
    """_encode(t), computed once per node."""
    try:
        return t._code
    except AttributeError:
        _set_code(t, code := _encode(t))
        return code


def _decode(code: str, var=Var, app=App) -> LambdaTerm:
    """The term of a prefix string; ValueError unless it is one term. The
    nodes built are acyclic and all stay alive, so the cyclic collector is
    paused while they are built: its passes over them would cost more than
    the build."""
    vals: list = []
    push, pop = vals.append, vals.pop
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for c in reversed(code):
            push(app(pop(), pop()) if c == _APP else Abs(pop()) if c == _ABS else var(ord(c) - 2))
        (term,) = vals
    except (IndexError, ValueError):
        raise ValueError(_NOT_ONE_TERM) from None
    finally:
        if was_enabled:
            gc.enable()
    return term


def _eta_reduce(code: str) -> str:
    """Exhaustive eta. A subterm's last binder and argument go while that
    argument reduces to the binder's variable, its only use: one pass counts
    uses and decides bottom-up, a second writes the rest with indices fixed."""
    uses: list[int] = []  # uses of the open binder at each static level
    skip: dict[int, tuple[int, int]] = {}  # dropped text: start -> (end, binders in it)
    # subterms reading arguments: [start, binders, depth inside, head level,
    # arguments, (start, level if it reduces to a variable) of those read]
    frames, i = [[0, 0, 0, None, 1, []]], 0
    while frames:
        f = frames[-1]
        if len(f[5]) == f[4]:
            p, m, d, s, n, got = frames.pop()
            r = 0
            while r < min(m, n) and got[n - 1 - r][1] == d - 1 - r and uses[d - 1 - r] == 1:
                r += 1
            if r:  # r binders, the r applications after them and the last r arguments
                skip[p + m - r] = (p + m + r, r)
                skip[got[n - r][0]] = (i, 0)
            if frames:
                frames[-1][5].append((p, s if r == m == n else None))
            continue
        d, p = f[2], i
        if (c := code[i]) > _ABS:  # a variable argument
            if (s := d + 1 - ord(c)) >= 0:
                uses[s] += 1
            f[5].append((i, s))
            i += 1
            continue
        while code[i] == _ABS:
            i += 1
        m, q = i - p, i
        while code[i] == _APP:
            i += 1
        uses[d:] = [0] * m
        if (s := d + m + 1 - ord(code[i])) >= 0:
            uses[s] += 1
        frames.append([p, m, d + m, s, i - q, []])
        i += 1
    if not skip:
        return code
    out: list[str] = []
    below: dict[int, int] = {}  # kept binders below each static level of the path
    todo, i = [(0, 0)], 0  # static depth and kept binders of each subterm still to read
    while todo:
        d, k = todo.pop()
        while i in skip:
            i, r = skip[i]
            d += r
        c, i = code[i], i + 1
        if c == _APP:
            todo += ((d, k), (d, k))
        elif c == _ABS:
            below[d] = k
            todo.append((d + 1, k + 1))
        else:
            c = chr(k + 1 - below.get(s := d + 1 - ord(c), s))
        out.append(c)
    return "".join(out)


def _normal(code: str, max_steps: int) -> str:
    """Beta-eta normal form of a prefix string, by _lambda.c's ln_normal when
    walk.load builds it, else by _py_normal; both raise StepBudgetExceeded past
    max_steps beta steps and ValueError when the codes are not one term or an
    index passes U+10FFFF. Codes cross as UTF-32, surrogates included."""
    lib = walk.load(walk.LSOURCE)
    if lib is None:
        return _py_normal(code, max_steps)
    import ctypes

    out = ctypes.c_void_p()
    n = lib.ln_normal(code.encode(_UTF32, "surrogatepass"), len(code),
                      max(-1, min(max_steps, 1 << 62)), ctypes.byref(out))
    if n >= 0:
        try:
            return ctypes.string_at(out, 4 * n).decode(_UTF32, "surrogatepass")
        finally:
            lib.ln_free(out)
    if n == -1:
        raise StepBudgetExceeded(max_steps)
    raise MemoryError() if n == -2 else ValueError(_NOT_ONE_TERM if n == -3 else _WIDE)


def _py_normal(code: str, max_steps: int) -> str:
    """Beta by a strongly reducing Krivine machine (Cregut's KN), then eta.

    The tree parsed from code has Var(i) as i, Abs(b) as [b], App(f, a) as
    (f, a). A closure (term, env, n, level) binds the n binders above term
    to env[:n]: argument closures and output binders' levels. A binder
    extends env in place if no one else has, else a copy. One stack holds
    the head's arguments, then those left to normalize, the leftmost on top."""
    vals: list = []
    push, pop = vals.append, vals.pop
    try:
        for c in reversed(code):
            push((pop(), pop()) if c == _APP else [pop()] if c == _ABS else ord(c) - 2)
        (term,) = vals
    except (IndexError, ValueError):
        raise ValueError(_NOT_ONE_TERM) from None
    out, steps, todo = [], 0, [(term, [], 0, 0)]
    while todo:
        t, env, n, level = todo.pop()
        base = len(todo)
        while True:
            if type(t) is tuple:
                todo.append((t[1], env, n, level))
                t = t[0]
            elif type(t) is list:
                env = env if len(env) == n else env[:n]
                if len(todo) > base:
                    if (steps := steps + 1) > max_steps:
                        raise StepBudgetExceeded(max_steps)
                    env.append(todo.pop())
                else:
                    out.append(_ABS)
                    env.append(level)
                    level += 1
                n += 1
                t = t[0]
            else:  # c: Var(t)'s closure, or its level in the output
                c = env[j] if (j := n + ~t) >= 0 else j
                if type(c) is tuple:
                    t, env, n, _ = c
                    continue
                if (c := level + 1 - c) > 0x10FFFF:
                    raise ValueError(_WIDE)
                out += (_APP * (len(todo) - base), chr(c))
                break
    return _eta_reduce("".join(out))


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
    """Image of a B-term, built from its post-order: every leaf is the one B
    combinator, applications map across."""
    return bt._build(bt._codes(e), (), "", B, App, None)


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


def engine(t: LambdaTerm) -> cycles.Engine:
    """The flat self-application orbit of t under beta-eta equality, for
    cycles.run: normal forms as prefix strings, one line each by unicode_escape.
    Each state's successor is kept for the run, as Brent's search visits states
    again: every distinct state is normalized once (140 MB in all for B^4 B)."""
    base = _normal(_encode(t), DEFAULT_BUDGET)
    succ: dict[str, str] = {}

    def advance(cur: str) -> str:
        nxt = succ.get(cur)
        if nxt is None:
            nxt = succ[cur] = _normal(_APP + cur + base, DEFAULT_BUDGET)
        return nxt

    return cycles.Engine("lambda", _line(base), base,
                         lambda st, max_steps: cycles.Stepper(advance), _line, _unline)


def _line(code: str) -> str:
    return code.encode("unicode_escape").decode("ascii")


def _unline(text: str) -> str:
    code = text.encode("ascii").decode("unicode_escape")
    _decode(code)  # ValueError unless it is one term, which encodes back as code
    return code


def rho_lambda(t: LambdaTerm, max_steps: int = cycles.MAX_STEPS) -> cycles.RhoResult:
    """cycles.run over engine(t); StepBudgetExceeded if a state has no normal form."""
    return cycles.run(engine(t), max_steps)


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
