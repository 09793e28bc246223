"""Small untyped lambda calculus with de Bruijn indices.

This module is the trusted reference: beta-eta equivalence decided by brute
normalization. The fast engines elsewhere in the package are validated against
it, so nothing here may depend on them.

Reduction strategy: normal order (leftmost outermost) beta to beta-normal
form, then exhaustive eta. A step budget guards non-normalizing inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import bterm as bt
from . import cycles
from .errors import NotBFormShape, StepBudgetExceeded
from .trees import LEAF, BinTree, Node

DEFAULT_BUDGET = 10**7


@dataclass(frozen=True, slots=True)
class Var:
    index: int


@dataclass(frozen=True, slots=True)
class Abs:
    body: "LambdaTerm"


@dataclass(frozen=True, slots=True)
class App:
    fn: "LambdaTerm"
    arg: "LambdaTerm"


LambdaTerm = Var | Abs | App


def _shift(t: LambdaTerm, by: int, depth: int = 0) -> LambdaTerm:
    """ Add `by` to every variable of t that is free at `depth`. """
    if isinstance(t, Var):
        return Var(t.index + by) if t.index >= depth else t
    if isinstance(t, Abs):
        return Abs(_shift(t.body, by, depth + 1))
    return App(_shift(t.fn, by, depth), _shift(t.arg, by, depth))


def _subst(t: LambdaTerm, depth: int, value: LambdaTerm) -> LambdaTerm:
    """ Replace Var(depth) by value in t (value is shifted as we descend). """
    if isinstance(t, Var):
        if t.index == depth:
            return _shift(value, depth)
        return Var(t.index - 1) if t.index > depth else t
    if isinstance(t, Abs):
        return Abs(_subst(t.body, depth + 1, value))
    return App(_subst(t.fn, depth, value), _subst(t.arg, depth, value))


class _Budget:
    __slots__ = ("left", "total")

    def __init__(self, total: int):
        self.left = total
        self.total = total

    def spend(self) -> None:
        self.left -= 1
        if self.left < 0:
            raise StepBudgetExceeded(self.total)


def _beta_nf(t: LambdaTerm, budget: _Budget) -> LambdaTerm:
    spine: list[LambdaTerm] = []
    while True:
        while isinstance(t, App):
            spine.append(t.arg)
            t = t.fn
        if isinstance(t, Abs):
            if spine:
                budget.spend()
                t = _subst(t.body, 0, spine.pop())
            else:
                return Abs(_beta_nf(t.body, budget))
        else:
            out: LambdaTerm = t
            while spine:
                out = App(out, _beta_nf(spine.pop(), budget))
            return out


def _uses(t: LambdaTerm, index: int) -> bool:
    if isinstance(t, Var):
        return t.index == index
    if isinstance(t, Abs):
        return _uses(t.body, index + 1)
    return _uses(t.fn, index) or _uses(t.arg, index)


def _eta(t: LambdaTerm) -> LambdaTerm:
    if isinstance(t, Var):
        return t
    if isinstance(t, App):
        return App(_eta(t.fn), _eta(t.arg))
    body = _eta(t.body)
    if isinstance(body, App) and body.arg == Var(0) and not _uses(body.fn, 0):
        return _shift(body.fn, -1)
    return Abs(body)


def normalize(t: LambdaTerm, max_steps: int = DEFAULT_BUDGET) -> LambdaTerm:
    """Beta-eta normal form of t, or StepBudgetExceeded.

    Normalization is idempotent: normalize(normalize(t)) == normalize(t).
    """
    return _eta(_beta_nf(t, _Budget(max_steps)))


def equivalent(t1: LambdaTerm, t2: LambdaTerm, max_steps: int = DEFAULT_BUDGET) -> bool:
    """Beta-eta equivalence, decided by comparing normal forms."""
    return normalize(t1, max_steps) == normalize(t2, max_steps)


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
    """Image of a B-term: leaves become the B combinator, applications map across."""
    vals: list[LambdaTerm] = []
    stack: list[tuple[bt.BTerm, bool]] = [(e, False)]
    while stack:
        t, done = stack.pop()
        if not isinstance(t, bt.App):
            vals.append(B)
        elif done:
            arg = vals.pop()
            fn = vals.pop()
            vals.append(App(fn, arg))
        else:
            stack.append((t, True))
            stack.append((t.arg, False))
            stack.append((t.fn, False))
    return vals[0]


def tree_to_lambda(t: BinTree) -> LambdaTerm:
    """lambda x1...xk. M where M applies the k leaves of t in left-to-right order."""
    k = t.size
    counter = [0]

    def walk(u: BinTree) -> LambdaTerm:
        if isinstance(u, Node):
            fn = walk(u.left)
            return App(fn, walk(u.right))
        counter[0] += 1
        return Var(k - counter[0])

    out = walk(t)
    for _ in range(k):
        out = Abs(out)
    return out


def lambda_to_tree(t: LambdaTerm) -> BinTree:
    """Inverse of tree_to_lambda.

    Requires t to be a normal form in B-term shape: binders lambda x1...xk over
    an application tree using x1..xk exactly once each, in order. Raises
    NotBFormShape otherwise.
    """
    k = 0
    while isinstance(t, Abs):
        k += 1
        t = t.body
    counter = [0]

    def walk(u: LambdaTerm) -> BinTree:
        if isinstance(u, App):
            left = walk(u.fn)
            return Node(left, walk(u.arg))
        if not isinstance(u, Var):
            raise NotBFormShape("abstraction in applicative position")
        expect = k - 1 - counter[0]
        if u.index != expect:
            raise NotBFormShape(
                f"variable {u.index} out of order (expected {expect})")
        counter[0] += 1
        return LEAF

    tree = walk(t)
    if counter[0] != k:
        raise NotBFormShape(f"{k} binders but {counter[0]} variable uses")
    return tree


@dataclass(frozen=True)
class TermStats:
    """Shape counters of a normal form lambda x1..xn. x1 e1 ... ek."""

    binders: int                  # n, number of leading lambdas
    head_args: int                # k, number of arguments of the head variable
    first_arg: LambdaTerm | None  # e1, None when k = 0


def term_stats(t: LambdaTerm, max_steps: int = DEFAULT_BUDGET) -> TermStats:
    """Normalize t and read off its binder and head-argument counts.

    Raises NotBFormShape unless the normal form is lambda x1..xn. x1 e1 ... ek.
    """
    nf = normalize(t, max_steps)
    n = 0
    while isinstance(nf, Abs):
        n += 1
        nf = nf.body
    args: list[LambdaTerm] = []
    while isinstance(nf, App):
        args.append(nf.arg)
        nf = nf.fn
    if not isinstance(nf, Var) or nf.index != n - 1:
        raise NotBFormShape("head of the normal form is not the first binder")
    args.reverse()
    return TermStats(n, len(args), args[0] if args else None)


def rho_lambda(t: LambdaTerm, max_steps: int = cycles.MAX_STEPS,
               algorithm: str = "brent"):
    """Cycle of the flat self-application sequence of t under beta-eta equality.

    Returns a cycle_detect.RhoResult. States are normal forms; each advance is
    one application followed by normalization, so this is the slow reference
    engine. algorithm is "brent" (default) or "floyd". Raises CycleNotFound
    past the horizon, StepBudgetExceeded if a normal form cannot be reached.
    """
    from .cycle_detect import RhoResult

    base = normalize(t)

    def advance(cur: LambdaTerm) -> LambdaTerm:
        return normalize(App(cur, base))

    return RhoResult(*cycles.search(cycles.start(base, advance, algorithm), advance, max_steps))


def format_lambda(t: LambdaTerm) -> str:
    """Compact text: binder runs as backslashes, de Bruijn indices, left-assoc
    application by juxtaposition. B prints as '\\\\\\.2 (1 0)'."""
    if isinstance(t, Abs):
        n = 0
        while isinstance(t, Abs):
            n += 1
            t = t.body
        return "\\" * n + "." + format_lambda(t)

    def atom(u: LambdaTerm) -> str:
        if isinstance(u, Var):
            return str(u.index)
        return f"({format_lambda(u)})"

    if isinstance(t, Var):
        return str(t.index)
    parts = []
    while isinstance(t, App):
        parts.append(atom(t.arg))
        t = t.fn
    parts.append(atom(t))
    parts.reverse()
    return " ".join(parts)
