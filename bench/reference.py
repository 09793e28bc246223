"""Reference computations for the benchmark, written apart from bluebird.

Nothing here imports the package under test. The benchmark checks the
program's answers against these routines, so they must not share code with
`bluebird.fast_apply`, `bluebird.canonical` or `bluebird.restricted`.

* A run-length application kernel derived from the swap law
  (B^m B) . (B^n B) = (B^(n+1) B) . (B^m B) for m < n, and a canonical form
  of term text folded bottom-up with it.
* A B-term text parser and printer, a random term generator and a B-rule
  rewriter (B a b c -> a (b c)) that make the `decide` corpus.
* A leftmost-outermost contractor for the restricted system, where the
  constant of arity k + 3 rewrites Ck e1 e2 ... e(k+3) -> e1 (e2 ... e(k+3)).

The B-term routines are iterative in the depth of their input, so deep
terms that overflow the interpreter stack in a recursive walk are handled
here.

Terms are plain data: the leaf B is LEAF (None) and an application is the
pair (fn, arg). Degree sequences are tuples of (degree, multiplicity) runs
with strictly decreasing degrees, the same layout the program prints.
"""

from __future__ import annotations

import re

LEAF = None


# --- the application kernel ---------------------------------------------

def apply(x, y):
    """Runs of the application X Y from the runs of X and Y.

    X Y is the composition X . (B Y), stripped of its degree-0 units and
    lowered by one; B Y is Y with every degree raised by one. The units of
    B Y sit to the right of X, and an insertion sort moves each of them left
    past every strictly smaller degree, the swap law raising its degree by
    one per unit passed. Units of one run follow the same path and land
    together, so a run moves in one piece. The work list is kept in
    ascending order, so an insertion walks from its front.
    """
    work = [[d, m] for d, m in reversed(x)]
    for d, m in y:
        d += 1
        j = 0
        while j < len(work) and work[j][0] < d:
            d += work[j][1]
            j += 1
        if j < len(work) and work[j][0] == d:
            work[j][1] += m
        else:
            work.insert(j, [d, m])
    if work[0][0] == 0:
        del work[0]
    return tuple((d - 1, m) for d, m in reversed(work))


def canonical(term):
    """Runs of a term tree, folded bottom-up with apply(); B is [0]."""
    done: list = []
    stack = [(term, False)]
    while stack:
        t, expanded = stack.pop()
        if t is LEAF:
            done.append(((0, 1),))
        elif expanded:
            arg = done.pop()
            done.append(apply(done.pop(), arg))
        else:
            stack.append((t, True))
            stack.append((t[1], False))
            stack.append((t[0], False))
    return done[0]


def orbit(base, indices):
    """Walk X(1) = base, X(i + 1) = apply(X(i), base) up to max(indices) and
    return {i: X(i)} for the requested indices."""
    want = set(indices)
    last = max(want)
    out = {}
    cur = base
    for i in range(1, last + 1):
        if i in want:
            out[i] = cur
        if i < last:
            cur = apply(cur, base)
    return out


def brute_rho(base, limit):
    """First repeat (entry, cycle) of the orbit of base by storing every
    state; None when no repeat shows within limit states."""
    seen = {}
    cur = base
    for i in range(1, limit + 1):
        j = seen.get(cur)
        if j is not None:
            return j, i - j
        seen[cur] = i
        cur = apply(cur, base)
    return None


def prime_factors(n):
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def rho_certificate(state_at, entry, cycle):
    """Failures of the certificate that (entry, cycle) is the least repeat.

    state_at maps an index to its state. The pair is least exactly when
    X(e) = X(e + c); X(e - 1) != X(e - 1 + c), so the entry is not earlier;
    and X(e) != X(e + c / p) for each prime p dividing c, so no proper
    divisor of c is a period.
    """
    bad = []
    if state_at(entry) != state_at(entry + cycle):
        bad.append(f"X({entry}) != X({entry + cycle})")
    if entry > 1 and state_at(entry - 1) == state_at(entry - 1 + cycle):
        bad.append(f"X({entry - 1}) == X({entry - 1 + cycle}): entry not least")
    for p in prime_factors(cycle):
        if state_at(entry) == state_at(entry + cycle // p):
            bad.append(f"X({entry}) == X({entry + cycle // p}): cycle not least")
    return bad


def certificate_indices(entry, cycle):
    out = {entry, entry + cycle}
    if entry > 1:
        out |= {entry - 1, entry - 1 + cycle}
    out |= {entry + cycle // p for p in prime_factors(cycle)}
    return out


# --- term text ------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:B\^(\d+)\s*B(?![\w^])|(B)(?![\w^])|([()]))")


def parse(text):
    """Term tree of B-term text: B, B^n B, parentheses, juxtaposition."""
    frames = [[]]  # one list of atoms per open parenthesis
    pos = 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ValueError(f"bad term text at {pos}")
        pos = m.end()
        if m.group(1) is not None:
            atom = LEAF
            for _ in range(int(m.group(1))):
                atom = (LEAF, atom)
            frames[-1].append(atom)
        elif m.group(2):
            frames[-1].append(LEAF)
        elif m.group(3) == "(":
            frames.append([])
        else:
            if len(frames) == 1 or not frames[-1]:
                raise ValueError(f"bad ')' at {pos - 1}")
            frames[-2].append(_fold(frames.pop()))
    if len(frames) != 1 or not frames[0]:
        raise ValueError("unbalanced or empty term text")
    return _fold(frames[0])


def _fold(atoms):
    out = atoms[0]
    for a in atoms[1:]:
        out = (out, a)
    return out


def format_term(term):
    """Text with minimal parentheses; parse(format_term(t)) == t."""
    parts = []
    stack = [(term, False)]
    while stack:
        t, in_arg = stack.pop()
        if isinstance(t, str):
            parts.append(t)
        elif t is LEAF:
            parts.append("B")
        else:
            if in_arg:
                stack.append((")", False))
            stack.append((t[1], True))
            stack.append((" ", False))
            stack.append((t[0], False))
            if in_arg:
                parts.append("(")
    return "".join(parts)


def leaves(term):
    n = 0
    stack = [term]
    while stack:
        t = stack.pop()
        if t is LEAF:
            n += 1
        else:
            stack.append(t[0])
            stack.append(t[1])
    return n


def random_term(rng, n):
    """Random term with n leaves. Below 64 leaves the split is uniform, as in
    the test suite; above, each side keeps at least a fifth of the leaves,
    which bounds the depth by about 3 log2(n)."""
    done: list = []
    stack = [(n, False)]
    while stack:
        k, join = stack.pop()
        if join:
            arg = done.pop()
            done.append((done.pop(), arg))
        elif k == 1:
            done.append(LEAF)
        else:
            if k < 64:
                left = rng.randint(1, k - 1)
            else:
                left = rng.randint(k // 5 + 1, k - k // 5 - 1)
            stack.append((k, True))
            stack.append((k - left, False))
            stack.append((left, False))
    return done[0]


def redexes(term):
    """Paths to every B-redex ((B a) b) c of term. A path is a string of
    'f' (go to fn) and 'a' (go to arg) steps from the root."""
    out = []
    stack = [(term, "")]
    while stack:
        t, path = stack.pop()
        if t is LEAF:
            continue
        fn = t[0]
        if fn is not LEAF and fn[0] is not LEAF and fn[0][0] is LEAF:
            out.append(path)
        stack.append((t[0], path + "f"))
        stack.append((t[1], path + "a"))
    return out


def contract_at(term, path):
    """Contract the B-redex B a b c -> a (b c) found at path."""
    spine = []
    t = term
    for step in path:
        spine.append(t)
        t = t[0] if step == "f" else t[1]
    (((_, a), b), c) = t
    t = (a, (b, c))
    for parent, step in zip(reversed(spine), reversed(path)):
        t = (t, parent[1]) if step == "f" else (parent[0], t)
    return t


def rewrite(rng, term, steps):
    """Contract up to `steps` B-redexes chosen at random; beta-equal output."""
    for _ in range(steps):
        found = redexes(term)
        if not found:
            break
        term = contract_at(term, found[rng.randrange(len(found))])
    return term


def all_terms(n):
    """Every term with exactly n leaves."""
    table = {1: [LEAF]}
    for k in range(2, n + 1):
        table[k] = [(f, a) for i in range(1, k) for f in table[i] for a in table[k - i]]
    return table[n]


# --- the restricted system --------------------------------------------------
#
# A constant is its arity index k (an int); an application is (fn, arg).

def restricted_monomial(n):
    """The degree-n base: C(n-1) applied to C0, or C0 itself for n = 0."""
    return 0 if n == 0 else (n - 1, 0)


def restricted_nf(term):
    """Normal form by leftmost-outermost contraction.

    Contracts the head redex while there is one, then normalizes the
    arguments left to right. Recursion follows argument nesting, which stays
    shallow on the early iterates this is used for.
    """
    while True:
        args = []
        head = term
        while isinstance(head, tuple):
            args.append(head[1])
            head = head[0]
        args.reverse()
        need = head + 3
        if len(args) < need:
            out = head
            for a in args:
                out = (out, restricted_nf(a))
            return out
        inner = args[1]
        for a in args[2:need]:
            inner = (inner, a)
        term = (args[0], inner)
        for a in args[need:]:
            term = (term, a)
