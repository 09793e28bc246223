"""Canonical forms for B-terms.

Every B-term is equivalent to a unique composition chain

    (B^n1 B) . (B^n2 B) . ... . (B^nk B)      n1 >= n2 >= ... >= nk >= 0

so a non-increasing sequence of degrees [n1, ..., nk] is a complete invariant:
two B-terms are beta-eta equivalent iff their sequences match. DegreeSeq,
the one type of a canonical form, stores the sequence run-length encoded
and flat with a lazy degree offset. canonicalize computes it by folding
the term's post-order through the one merge kernel: _apply_into here,
mirrored as apply in _walk.c. The post-order goes to _walk.c's bb_fold
when the compiled library loads, else to _fold, its op-for-op twin, and
both refuse codes that are not one term alike. apply_poly, the
orbit search's step, runs the same kernel on two forms;
canonical_via_lambda recomputes a form through the lambda oracle so the
two routes can be cross-checked.

The only non-trivial law is the adjacent swap

    (B^m B) . (B^n B)  =  (B^(n+1) B) . (B^m B)      when m < n

which drives an insertion sort: an out-of-place unit bubbles left past every
strictly smaller neighbour, gaining one degree per element passed.
"""

from __future__ import annotations

from itertools import chain

from . import bterm as bt
from .errors import ParseError
from .trees import LEAF, BinTree, Node, comb

Runs = tuple[tuple[int, int], ...]

_set = object.__setattr__  # DegreeSeq.__setattr__ refuses every assignment
_NOT_ONE_TERM = "codes are not the post-order of one term"


class DegreeSeq:
    """Run-length encoded non-increasing degree sequence.

    runs is ((degree, multiplicity), ...) with strictly decreasing degrees
    and positive multiplicities, checked here; the kernel's results skip
    the check (_seq). The value is kept flat with a lazy degree offset t,
    flat = (d0 + t, m0, d1 + t, m1, ...), so one application costs one
    merge and no pass over the runs. == is canonical-form equality
    whatever the offsets, and hash agrees with it.
    """

    __slots__ = ("flat", "t")

    def __init__(self, runs: Runs) -> None:
        if not runs:
            raise ValueError("degree sequence must be nonempty")
        prev = None
        for d, m in runs:
            if d < 0 or m < 1:
                raise ValueError(f"bad run ({d}, {m})")
            if prev is not None and d >= prev:
                raise ValueError("run degrees must strictly decrease")
            prev = d
        _set(self, "flat", tuple(chain.from_iterable(runs)))
        _set(self, "t", 0)

    def __setattr__(self, name, value):
        raise AttributeError("DegreeSeq is immutable")

    def __reduce__(self):
        return DegreeSeq, (self.runs,)

    @staticmethod
    def from_degrees(degrees) -> "DegreeSeq":
        """Build from an explicit non-increasing iterable like [4, 2, 2, 0]."""
        runs: list[tuple[int, int]] = []
        for d in degrees:
            if runs and runs[-1][0] == d:
                runs[-1] = (d, runs[-1][1] + 1)
            else:
                runs.append((d, 1))
        return DegreeSeq(tuple(runs))

    @property
    def runs(self) -> Runs:
        it, t = iter(self.flat), self.t
        return tuple([(d - t, m) for d, m in zip(it, it)])

    def degrees(self) -> tuple[int, ...]:
        """Expanded sequence; avoid on astronomically large multiplicities."""
        out: list[int] = []
        for d, m in self.runs:
            out.extend([d] * m)
        return tuple(out)

    def __len__(self) -> int:
        return sum(self.flat[1::2])

    @property
    def max_degree(self) -> int:
        return self.flat[0] - self.t

    def is_monomial(self) -> bool:
        """True when the whole form is a single B^n B."""
        return len(self.flat) == 2 and self.flat[1] == 1

    def __eq__(self, other) -> bool:
        # a cheap key first (length, tail multiplicity, tail and head
        # degrees), then every degree with the offsets taken out
        if not isinstance(other, DegreeSeq):
            return NotImplemented
        a, b = self.flat, other.flat
        d = self.t - other.t
        if len(a) != len(b) or a[-1] != b[-1] or a[-2] - b[-2] != d or a[0] - b[0] != d:
            return False
        return a[1::2] == b[1::2] and all(x - y == d for x, y in zip(a[::2], b[::2]))

    def __hash__(self) -> int:
        return hash(self.runs)

    def __repr__(self) -> str:
        return f"DegreeSeq(runs={self.runs!r})"

    def text(self) -> str:
        return "[" + ",".join(str(d) for d in self.degrees()) + "]"

    def rle_text(self) -> str:
        return ",".join(f"{d}*{m}" for d, m in self.runs)

    def __str__(self) -> str:
        return self.text()


def _seq(flat: tuple[int, ...], t: int) -> DegreeSeq:
    """The DegreeSeq of flat runs at offset t, unchecked: the kernel's own
    output is canonical by construction."""
    s = object.__new__(DegreeSeq)
    _set(s, "flat", flat)
    _set(s, "t", t)
    return s


def parse_seq(text: str) -> DegreeSeq:
    """Parse either the bracket form "[4,2,2,0]" or the RLE form "4*1,2*2,0*1"."""
    s = text.strip()
    if not s:
        raise ParseError("empty degree sequence", 0)
    try:
        if "*" in s:
            runs = []
            for part in s.split(","):
                d, _, m = part.partition("*")
                runs.append((int(d), int(m)))
            return DegreeSeq(tuple(runs))
        if s.startswith("[") and s.endswith("]"):
            s = s[1:-1]
        if not s.strip():
            raise ParseError("empty degree sequence", 0)
        return DegreeSeq.from_degrees(int(p) for p in s.split(","))
    except ParseError:
        raise
    except ValueError as exc:
        raise ParseError(f"bad degree sequence {text!r}: {exc}", 0) from None


def raise_runs(runs: Runs, by: int = 1) -> Runs:
    """Canonical form of B applied `by` times to the term behind runs."""
    return tuple((d + by, m) for d, m in runs)


def _apply_into(acc: list[int], runs: list[int] | tuple[int, ...], lift: int, t: int) -> None:
    """The one application kernel, on flat runs with a lazy degree offset.

    acc = [d0 + t, m0, d1 + t, m1, ...] is canonical(X) with offset t, and
    runs (flat too) with every degree raised by lift is canonical(B Y) at
    that offset. acc becomes canonical(X Y) at offset t + 1: each run of
    B Y is merged in from the right, bubbling left past every strictly
    smaller degree and gaining one degree per unit passed; identical units
    land adjacently, so a whole run moves in one shot. The merged runs have
    no zero-degree units, so at most one zero run is left, at the tail;
    dropping it undoes the B, and raising the offset to t + 1 (the
    caller's part) lowers every degree without a pass over them.
    """
    n, j = len(runs), 0
    while j < n:
        x = runs[j] + lift
        i = len(acc)
        while i and acc[i - 2] < x:
            x += acc[i - 1]
            i -= 2
        if i and acc[i - 2] == x:
            acc[i - 1] += runs[j + 1]
        else:
            acc.insert(i, runs[j + 1])
            acc.insert(i, x)
        j += 2
    if acc[-2] == t:
        acc.pop()
        acc.pop()


def apply_runs(runs: Runs, raised_base: Runs) -> Runs:
    """One application step on raw runs: canonical form of (X Y) where runs
    is canonical(X) and raised_base is raise_runs(canonical(Y))."""
    acc = list(chain.from_iterable(runs))
    _apply_into(acc, tuple(chain.from_iterable(raised_base)), 0, 0)
    return _seq(tuple(acc), 1).runs


def apply_poly(s1: DegreeSeq, s2: DegreeSeq) -> DegreeSeq:
    """Canonical form of the application (X1 X2) given canonical s1, s2:
    the orbit step, one merge into a copy of s1's runs. Neither operand
    changes."""
    flat, t = list(s1.flat), s1.t
    _apply_into(flat, s2.flat, t + 1 - s2.t, t)
    return _seq(tuple(flat), t + 1)


def _fold(codes: bytes) -> tuple[tuple[int, ...], int]:
    """The flat runs and offset of the term whose post-order is codes, 0 for
    B and any other code for an application: _walk.c's bb_fold op for op.
    A 0 pushes B's [0, 1] at offset 0; an application merges the top state
    into the one below and raises that one's offset by one. ValueError,
    as walk.fold raises it, when the codes are not one term."""
    accs: list[list[int]] = []
    ts: list[int] = []
    for c in codes:
        if not c:
            accs.append([0, 1])
            ts.append(0)
        elif len(accs) < 2:
            raise ValueError(_NOT_ONE_TERM)
        else:
            arg, u, t = accs.pop(), ts.pop(), ts[-1]
            _apply_into(accs[-1], arg, t + 1 - u, t)
            ts[-1] = t + 1
    if len(accs) != 1:
        raise ValueError(_NOT_ONE_TERM)
    return tuple(accs[0]), ts[0]


_walk = None  # the walk module, imported on the first canonicalize


def canonicalize(e: bt.BTerm) -> DegreeSeq:
    """Canonical degree sequence of a B-term, by folding its post-order:
    _walk.c's bb_fold when the compiled library loads, else _fold."""
    global _walk
    if _walk is None:
        from . import walk as _walk
    codes = bt._codes(e)  # kept on the root by parse, or by an earlier call
    lib = _walk.load()
    return _seq(*(_fold(codes) if lib is None else _walk.fold(lib, codes)))


def equivalent_bterms(e1: bt.BTerm, e2: bt.BTerm) -> bool:
    """Beta-eta equivalence via canonical forms."""
    return canonicalize(e1) == canonicalize(e2)


def monomial_degree(e: bt.BTerm) -> int | None:
    """Degree n if e is equivalent to B^n B, else None."""
    s = canonicalize(e)
    return s.max_degree if s.is_monomial() else None


def seq_to_bterm(seq: DegreeSeq) -> bt.BTerm:
    """A B-term whose canonical form is seq: the right-nested composition
    B (B^n1 B) (B (B^n2 B) (... (B^nk B)))."""
    degs = seq.degrees()
    out = bt.monomial(degs[-1])
    for d in reversed(degs[:-1]):
        out = bt.App(bt.App(bt.B, bt.monomial(d)), out)
    return out


# --- the tree view -------------------------------------------------------
#
# The beta-eta normal form of a B-term is  \x1...xk. x1 e1 ... em  and the
# applicative skeleton of its body is a binary tree over the variables in
# left-to-right order. nodes() reads the degree sequence back off the tree;
# tree_of() rebuilds the tree from the sequence. Both directions are total
# on valid inputs and mutually inverse.

def nodes_at(t: BinTree, start: int) -> list[int]:
    """Internal-node labels of t, right subtree first, when the leftmost leaf
    sits at variable offset `start`. A node's label is the offset of the
    leftmost leaf under it."""
    out: list[int] = []
    stack: list[tuple[BinTree | None, int]] = [(t, start)]
    while stack:
        u, j = stack.pop()
        if u is None:
            out.append(j)
        elif isinstance(u, Node):
            stack.append((None, j))
            stack.append((u.left, j))
            stack.append((u.right, j + u.left.size))
    return out


def nodes(t: BinTree) -> list[int]:
    """Degree sequence of the tree: labels from offset -1, with the head
    spine's -1 markers stripped off the tail."""
    out = nodes_at(t, -1)
    while out and out[-1] == -1:
        out.pop()
    return out


def tree_of(seq: DegreeSeq) -> BinTree:
    """The unique tree whose nodes() reading is seq.

    Builds the head argument list left to right. A unit of degree n either
    deepens the spine of argument n (when it is currently the last argument)
    or fuses arguments n and n+1.
    """
    degs = seq.degrees()
    args: list[BinTree] = [LEAF] * degs[0] + [Node(LEAF, LEAF)]
    for n in degs[1:]:
        if len(args) == n + 1:
            args[n] = Node(args[n], LEAF)
        else:
            args[n : n + 2] = [Node(args[n], args[n + 1])]
    return comb(LEAF, args)


def seq_of_tree(t: BinTree) -> DegreeSeq:
    return DegreeSeq.from_degrees(nodes(t))


# --- independent route through the lambda oracle -------------------------

def canonical_via_lambda(e: bt.BTerm) -> DegreeSeq:
    """Canonical degree sequence computed the slow way: translate to lambda
    calculus, normalize, read the tree, read the sequence. Shares no code
    with canonicalize(), so agreement between the two is meaningful."""
    from . import lambda_oracle as lo

    nf = lo.normalize(lo.bterm_to_lambda(e), lo.DEFAULT_BUDGET)
    return seq_of_tree(lo.lambda_to_tree(nf))
