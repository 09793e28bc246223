"""Restricted first-order rewriting over an indexed family of constants.

Terms are built from constants Const(k), k >= 0, by application. Const(0)
is the classic composition combinator; Const(k) waits for k + 3 arguments:

    Const(k) e1 e2 ... e(k+3)  ->  e1 (e2 e3 ... e(k+3))

with the argument block applied left to right. There is no eta rule and no
abstraction, so equality of normal forms is decidable syntactically. Every
contraction erases exactly one constant occurrence and duplicates nothing,
hence normal forms always exist, and n advances of an orbit from a start s
cost at most c(s) + n * c(base) contractions (c counts constants): a
search's advance budget, max_steps, bounds its contractions too.

The engine hash-conses normal forms into integer ids: app(fn, arg) is the
id of the normal form of fn arg, so every id names a normal form, normal
forms compare in O(1) and the cycle searches from cycles.py run directly on
ids. One table maps each application pair to its normal form. The tables
and the contraction count live on the engine instance; use one engine per
search when isolation matters.

A search (engine, for cycles.run) walks its orbit in C when it can:
CStepper runs _rwalk.c, the same app over a copy of the engine's nodes
(walk.load builds it), and frees that copy when the search ends; else
PyStepper runs it on the engine itself. Both start with one pair per
node, and both bound the tables: once the nodes made since the last
compaction reach COMPACT_EVERY, or the nodes that compaction kept above the
stepper's start if more, the next advance starts by keeping only the nodes
the stepper started with, the walk's pointers and what they reach,
renumbered in order, and by dropping every memo but one pair per node. A
compaction costs time linear in the nodes held, and the gap spreads it over
at least as many new nodes. So an id the walk hands back is valid only
until the next walk call, unless it is one of that call's pointers or
older than the stepper: a walk call that raises, and the phase-2 rebuild,
leave the search's ids stale, so cycles.run saves the RTerms it reads back
after each chunk, never ids.
RestrictedEngine.app itself never compacts.
"""

from __future__ import annotations

from itertools import chain
from typing import Union

from . import bterm as bt
from . import cycles, walk

LIMIT = 2**31 - 1  # bound on every id and constant of the compiled walk
COMPACT_EVERY = 2**14  # fewest nodes made between two compactions of a search's tables


class RConst(bt._Frozen):
    __slots__ = ("k",)

    def __init__(self, k: int) -> None:
        _set_k(self, k)

    def __eq__(self, other: object) -> bool:
        return (self.k,) == (other.k,) if type(other) is RConst else NotImplemented

    def __hash__(self) -> int:
        return hash((self.k,))

    def __repr__(self) -> str:
        return f"RConst(k={self.k!r})"


class RApp(bt._Frozen):
    """Equality, hash and repr through the text, which a printer loop builds
    without recursion."""

    __slots__ = ("fn", "arg")

    def __init__(self, fn: "RTerm", arg: "RTerm") -> None:
        _set_fn(self, fn)
        _set_arg(self, arg)

    def __eq__(self, other: object) -> bool:
        return type(other) is RApp and format_rterm(self) == format_rterm(other)

    def __hash__(self) -> int:
        return hash(format_rterm(self))

    def __repr__(self) -> str:
        return f"RApp<{format_rterm(self)}>"


_set_k, _set_fn, _set_arg = RConst.k.__set__, RApp.fn.__set__, RApp.arg.__set__

RTerm = Union[RConst, RApp]


def parse_rterm(text: str) -> RTerm:
    """Parse restricted-term syntax: B, B^k, parentheses, juxtaposition.

    Unlike B-term syntax, B^k is an atom by itself (the k-th constant).
    """
    return bt._build(*bt._lex(text, False), text, RConst(0), RApp, RConst)


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
    """Normal forms hash-consed into ids; steps counts the contractions made."""

    def __init__(self, max_steps=None):  # max_steps does nothing: bench/run.py passes one
        self._node: list[tuple[int, int]] = []  # (-1, k) const | (fn, arg) normal app
        self._apps: dict[tuple[int, int], int] = {}  # pair -> id of its normal form
        self.steps = 0

    def app(self, fn: int, arg: int) -> int:
        """Id of the normal form of fn arg; app(-1, k) is the constant Const(k).

        fn is normal, so its head Const(k) has at most k + 2 arguments. Short
        of k + 3 with arg, fn arg is a new normal node; at k + 3 it is the
        redex Const(k) a1 ... a(k+3), contracted to a1 (a2 ... a(k+3)) and built
        back through app itself. Those inner calls wait on an explicit list,
        so a long chain of contractions uses no interpreter stack."""
        apps, node = self._apps, self._node
        pending: list[list] = []  # [pair, [a1, ..., a(k+3)], index of the next piece]
        while True:
            key = (fn, arg)
            out = apps.get(key)
            if out is None:
                args, head = [arg], fn
                while head >= 0:  # down fn's spine; the last value read is its head's k
                    head, a = node[head]
                    args.append(a)
                k = args.pop()  # arg itself when fn is -1: the constant case
                if len(args) < k + 3:
                    out = apps[key] = len(node)
                    node.append(key)
                else:
                    self.steps += 1
                    args.reverse()
                    pending.append([key, args, 3])
                    fn, arg = args[1], args[2]
                    continue
            while pending:
                top = pending[-1]
                key, args, nxt = top
                if nxt <= len(args):
                    top[2] = nxt + 1
                    fn, arg = (out, args[nxt]) if nxt < len(args) else (args[0], out)
                    break
                apps[key] = out
                pending.pop()
            else:
                return out

    def intern(self, t: RTerm) -> int:
        """Id of the normal form of an RTerm, built bottom-up through app
        without recursion (terms may nest deep)."""
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
        """The normal form that id i names; shared ids become shared subterms."""
        return _extern(self._node.__getitem__, i)

    def normalize(self, i: int) -> int:
        """i itself: every id already names a normal form. Kept for callers
        written as normalize(app(...))."""
        return i


def _extern(node, i: int) -> RTerm:
    """The term that id i names, where node(j) is the pair of id j."""
    memo: dict[int, RTerm] = {}
    stack = [i]
    while stack:
        j = stack.pop()
        if j in memo:
            continue
        a, b = node(j)
        if a < 0:
            memo[j] = RConst(b)
        elif a in memo and b in memo:
            memo[j] = RApp(memo[a], memo[b])
        else:
            stack += (j, b, a)
    return memo[i]


def rnormalize(t: RTerm) -> RTerm:
    """Normal form of an RTerm under the restricted rule."""
    eng = RestrictedEngine()
    return eng.extern(eng.intern(t))


def fits(eng: RestrictedEngine) -> bool:
    """Whether eng's node count and constants stay below LIMIT, so that the
    compiled walk's 32-bit ints hold them."""
    return len(eng._node) < LIMIT and all(k < LIMIT for fn, k in eng._node if fn < 0)


class PyStepper(cycles.Stepper):
    """Stepper.walk over the orbit step eng.app(i, base) in Python, with
    _rwalk.c's start and compaction step for step: the same trigger,
    renumbering and one pair per node, so that both agree on answers,
    contractions and nodes.
    counts holds the advances of the last call, the contractions, the nodes
    made in all and the nodes held."""

    def __init__(self, eng: RestrictedEngine, base: int) -> None:
        self.eng, self.base = eng, base
        self.keep = self.mark = len(eng._node)
        self.every, self.dropped = COMPACT_EVERY, 0
        self.counts = [0, eng.steps, self.keep, self.keep]
        self.extern = eng.extern
        self._hold(eng._node)

    def _hold(self, node):
        """Make node the engine's nodes, with one pair per node as its memos."""
        self.eng._node, self.eng._apps = node, dict(zip(node, range(len(node))))

    def walk(self, a, b, k, both):
        eng, base, n = self.eng, self.base, 0
        try:
            while n < k:
                if len(eng._node) - self.mark >= max(self.every, self.mark - self.keep):
                    a, b = self._compact(a, b)
                a = eng.app(a, base)
                if both:
                    b = eng.app(b, base)
                n += 1
                if b is not None and a == b:
                    return a, b, n, True
            return a, b, k, False
        finally:
            self.counts = [n, eng.steps, len(eng._node) + self.dropped, len(eng._node)]

    def _compact(self, a, b):
        """a and b renumbered, after keeping the first keep nodes, a, b and
        what they reach; a node's children have smaller ids."""
        node, keep = self.eng._node, self.keep
        live = bytearray(len(node))
        live[a] = 1
        if b is not None:
            live[b] = 1
        for i in range(len(node) - 1, keep - 1, -1):
            if live[i] and node[i][0] >= 0:
                fn, arg = node[i]
                live[fn] = live[arg] = 1
        to, kept = list(range(len(node))), node[:keep]
        for i in range(keep, len(node)):
            if live[i]:
                fn, arg = node[i]
                to[i] = len(kept)
                kept.append((to[fn], to[arg]) if fn >= 0 else (fn, arg))
        self.dropped += len(node) - len(kept)
        self.mark = len(kept)
        self._hold(kept)
        return to[a], None if b is None else to[b]


class CStepper(cycles.Stepper):
    """PyStepper's walk, compaction included, run by _rwalk.c on a copy of
    eng's nodes that lives until close; eng.steps follows the copy's
    contractions, and counts holds the advances of the last call, the
    contractions, the nodes made in all and the nodes held; walk and extern
    raise ValueError after close."""

    name = "c"

    def __init__(self, lib, eng: RestrictedEngine, base: int) -> None:
        import ctypes
        from array import array

        int64 = ctypes.c_int64
        node = array("q", chain.from_iterable(eng._node))
        self.lib, self.eng = lib, eng
        self.x, self.y, self.counts = int64(), int64(), (int64 * 4)()
        self.tables = lib.rr_new((int64 * len(node)).from_buffer(node), len(eng._node), base,
                                 eng.steps, COMPACT_EVERY)
        if not self.tables:
            raise MemoryError("no memory for the restricted tables")

    def walk(self, a, b, k, both):
        if not self.tables:
            raise ValueError("walk on a closed stepper")
        self.x.value = a
        if b is not None:
            self.y.value = b
        status = self.lib.rr_walk(self.tables, self.x, None if b is None else self.y,
                                  both, k, self.counts)
        self.eng.steps = self.counts[1]
        if status < 0:
            raise MemoryError("no memory or ids left for the restricted tables")
        return self.x.value, None if b is None else self.y.value, self.counts[0], status == 1

    def extern(self, i: int) -> RTerm:
        """The term that id i names, read back from the compiled tables."""
        if not self.tables:
            raise ValueError("extern on a closed stepper")
        node = self.lib.rr_nodes(self.tables)
        return _extern(lambda j: (node[2 * j], node[2 * j + 1]), i)

    def close(self) -> None:
        """Free the tables; idempotent."""
        self.lib.rr_free(self.tables)
        self.tables = None


def engine(x: RTerm | str) -> cycles.Engine:
    """The orbit of x under the restricted rule, for cycles.run: ids of one
    RestrictedEngine, walked by CStepper when the tables fit its ints, else by
    PyStepper, and read back as RTerms. The advance budget bounds the
    contractions: n advances from a start s cost at most c(s) + n * c(base)."""
    if isinstance(x, str):
        x = parse_rterm(x)
    eng = RestrictedEngine()
    base = eng.intern(x)
    made: list[cycles.Stepper] = []

    def stepper(st, max_steps: int) -> cycles.Stepper:
        lib = walk.load(walk.RSOURCE)
        made.append(CStepper(lib, eng, base) if lib and fits(eng) else PyStepper(eng, base))
        return made[-1]

    return cycles.Engine("restricted", format_rterm(x), base, stepper, format_rterm,
                         lambda text: eng.intern(parse_rterm(text)),
                         plain=lambda i: made[-1].extern(i), size=_constants)


def _constants(t: RTerm) -> int:
    return format_rterm(t).count("B")  # one B per constant


def find_rho_restricted(
    x: RTerm | str,
    algorithm: str = "brent",
    max_steps: int = cycles.MAX_STEPS,
    rewrite_budget=None,  # does nothing: bench/run.py passes one
) -> cycles.RhoResult:
    """Least (entry, cycle) of the self-application orbit of x under the
    restricted rule: cycles.run over engine(x), Brent's search; algorithm
    accepts only "brent"."""
    if algorithm != "brent":
        raise ValueError(f"unknown algorithm {algorithm!r}")
    return cycles.run(engine(x), max_steps)
