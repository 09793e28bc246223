"""The one orbit-search core: resumable Brent cycle detection.

Every engine walks an orbit x(1) = first, x(i + 1) = f(x(i)) and asks for
(entry, cycle): the least entry with x(entry) = x(entry + cycle) and the
least such positive cycle. States must support ==; f must be pure.

A search is a SearchState plus a Stepper. start builds a fresh state (one
advance), search runs it to the answer, a RhoResult, from wherever it
stands. The search is Brent's (BIT 20, 1980): phase 1 teleports an anchor
at power-of-two indices, which finds the cycle length without a doubled
pointer; phase 2 walks two pointers the cycle length apart from x(1) to
the entry. search keeps Brent's control (phase, power, lead, budget) and
asks the stepper for bulk advances through its one call, walk: one pointer
chased towards an anchor, or two in lockstep, until they meet or a count
runs out.

Inside the loop the pointers live in locals, and the state is written only
after a stepper call has returned. A budget stop, or an exception from the
stepper or from tick, therefore always leaves a state that a later search
call resumes correctly. Budgets count advances, i.e. calls of f.

floyd_rho is a plain tortoise and hare that shares no code with search; it
is kept as an independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, NamedTuple, TypeVar

from .errors import CycleNotFound

S = TypeVar("S")

MAX_STEPS = 10**10


class RhoResult(NamedTuple):
    """The first repeat of an orbit, as every engine returns it; equal to
    the plain tuple (entry, cycle)."""

    entry: int
    cycle: int


@dataclass(slots=True)
class SearchState:
    """Mutable position of a running search.

    phase (1 or 2) and step place the search inside Brent's algorithm;
    candidate_c holds the cycle length once phase 1 has found it (see
    cycle_detect for the checkpoint layout that mirrors these fields).
    algorithm and m are always "brent" and None: they remain because the
    v1 checkpoint file has a line for each and callers build states by
    keyword. base is x(1), term_text names the orbit for checkpoints, and
    advances counts the applications made since the state was built or
    loaded. stepper is "c" when cycle_detect's compiled walk makes the
    advances, else "py".
    """

    term_text: str
    algorithm: str
    phase: int
    step: int
    m: int | None
    candidate_c: int | None
    slow: Any
    fast: Any
    base: Any
    advances: int = 0
    stepper: str = "py"


def start(first: S, f: Callable[[S], S], term_text: str = "") -> SearchState:
    """A fresh search over the orbit of first; costs one advance."""
    return SearchState(term_text, "brent", 1, 1, None, None, first, f(first), first, 1)


class Stepper:
    """Bulk advances over an orbit step f, run in Python; an engine may hand
    search a faster one over the same f. walk advances a, and b too when
    both is set, up to k times; it stops at the first a == b, never when b
    is None, and returns (a, b, advances per pointer, whether they met)."""

    name = "py"

    def __init__(self, f: Callable[[S], S]) -> None:
        self.f = f

    def walk(self, a: S, b: S | None, k: int, both: bool) -> tuple[S, S | None, int, bool]:
        f = self.f
        for n in range(1, k + 1):
            a = f(a)
            if both:
                b = f(b)
            if b is not None and a == b:
                return a, b, n, True
        return a, b, k, False


def search(
    st: SearchState,
    stepper: Stepper,
    max_steps: int = MAX_STEPS,
    tick: Callable[[SearchState], None] | None = None,
    chunk: int = MAX_STEPS,
) -> RhoResult:
    """Run st to the end; returns its (entry, cycle).

    stepper walks the orbit of st. Raises CycleNotFound(max_steps) instead
    of letting st.advances pass max_steps. Each stepper call makes at most
    chunk advances per pointer; tick gets st after each commit.
    """
    tick = tick or (lambda st: None)
    slow, fast, adv = st.slow, st.fast, st.advances
    found = slow == fast
    if st.phase == 1:
        # invariant: fast = x(1 + step); slow anchors the latest power-of-two
        # index, and lam = step - power + 1 counts fast's lead over it. A
        # chunk stops where lam reaches power, so the anchor teleports at
        # the same indices whatever the chunks.
        power = 1 << (st.step.bit_length() - 1)
        lam = st.step - power + 1
        while not found:
            if power == lam:
                slow = fast
                power <<= 1
                lam = 0
            k = min(power - lam, max_steps - adv, chunk)
            if k < 1:
                raise CycleNotFound(max_steps)
            fast, slow, n, found = stepper.walk(fast, slow, k, False)
            lam += n
            adv += n
            st.slow, st.fast, st.step, st.advances = slow, fast, power + lam - 1, adv
            tick(st)
        # lam is the exact cycle length; rebuild fast = x(1 + lam) and scan
        # for the entry in lockstep. One assignment enters phase 2, so an
        # interrupt sees either phase whole.
        if adv + lam > max_steps:
            raise CycleNotFound(max_steps)
        slow = fast = st.base
        for done in range(0, lam, chunk):
            fast = stepper.walk(fast, None, min(chunk, lam - done), False)[0]
        adv += lam
        found = slow == fast
        st.phase, st.candidate_c, st.slow, st.fast, st.step, st.advances = (
            2, lam, slow, fast, 1, adv)
        tick(st)
    # invariant: slow = x(step), fast = x(step + candidate_c)
    step = st.step
    while not found:
        k = min((max_steps - adv) // 2, chunk)
        if k < 1:
            raise CycleNotFound(max_steps)
        slow, fast, n, found = stepper.walk(slow, fast, k, True)
        step += n
        adv += 2 * n
        st.slow, st.fast, st.step, st.advances = slow, fast, step, adv
        tick(st)
    return RhoResult(step, st.candidate_c)


def brent_rho(first: S, f: Callable[[S], S], max_steps: int = MAX_STEPS) -> RhoResult:
    """Brent's teleporting-anchor search; returns (entry, cycle)."""
    return search(start(first, f), Stepper(f), max_steps)


def floyd_rho(first: S, f: Callable[[S], S], max_steps: int = MAX_STEPS) -> RhoResult:
    """Floyd's tortoise and hare, plain and not resumable; returns (entry,
    cycle) after at most max_steps calls of f, else raises CycleNotFound."""
    left = [max_steps]

    def g(x: S) -> S:
        if left[0] == 0:
            raise CycleNotFound(max_steps)
        left[0] -= 1
        return f(x)

    slow, fast = first, g(first)  # x(m) and x(2m), from m = 1
    while slow != fast:
        slow, fast = g(slow), g(g(fast))
    # m is a multiple of the cycle length: the entry is the first i with
    # x(i) = x(i + m), and the cycle is the first return to x(entry)
    slow, fast, entry = first, g(slow), 1
    while slow != fast:
        slow, fast, entry = g(slow), g(fast), entry + 1
    fast, cycle = g(slow), 1
    while slow != fast:
        fast, cycle = g(fast), cycle + 1
    return RhoResult(entry, cycle)
