"""The one orbit-search core: resumable Floyd and Brent cycle detection.

Every engine walks an orbit x(1) = first, x(i + 1) = f(x(i)) and asks for
(entry, cycle): the least entry with x(entry) = x(entry + cycle) and the
least such positive cycle. States must support ==; f must be pure.

A search is a SearchState plus an advance function. start builds a fresh
state (one advance), search runs it to the answer, a RhoResult, from
wherever it stands. Both algorithms live only here:

floyd walks three phases. Phase 1 holds slow at x(i) and fast at x(2i)
until they meet at index m; phase 2 restarts slow from x(1) against
fast = x(m+1) and walks both in lockstep to the entry; phase 3 anchors at
the entry and walks a single pointer to measure the cycle (at most m more
steps).

brent teleports an anchor at power-of-two indices, which finds the cycle
length first and needs no doubled pointer; phase 2 walks two pointers the
cycle length apart to the entry. It usually does fewer advances.

Inside the loop the pointers live in locals, and the state is written only
after every advance of an iteration has succeeded. A budget stop, or an
exception from f or from tick, therefore always leaves a state that a later
search call resumes correctly. Budgets count advances, i.e. calls of f.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, NamedTuple, TypeVar

from .errors import CycleNotFound

S = TypeVar("S")

MAX_STEPS = 10**10
ALGORITHMS = ("brent", "floyd")


class RhoResult(NamedTuple):
    """The first repeat of an orbit, as every engine returns it; equal to
    the plain tuple (entry, cycle)."""

    entry: int
    cycle: int


@dataclass(slots=True)
class SearchState:
    """Mutable position of a running search.

    phase and step place the search inside its algorithm; m and
    candidate_c hold what earlier phases found (see cycle_detect for the
    checkpoint layout that mirrors these fields). base is x(1), term_text
    names the orbit for checkpoints, and advances counts the applications
    made since the state was built or loaded (monotone, safe to read from a
    monitor thread).
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


def start(first: S, f: Callable[[S], S], algorithm: str = "brent",
          term_text: str = "") -> SearchState:
    """A fresh search over the orbit of first; costs one advance."""
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    return SearchState(term_text, algorithm, 1, 1, None, None, first, f(first), first, 1)


def search(
    st: SearchState,
    f: Callable[[S], S],
    max_steps: int = MAX_STEPS,
    tick: Callable[[SearchState], None] | None = None,
) -> RhoResult:
    """Run st's algorithm to the end; returns its (entry, cycle).

    Raises CycleNotFound(max_steps) instead of letting st.advances pass
    max_steps. tick is called with st after every completed iteration.
    """
    run = _floyd if st.algorithm == "floyd" else _brent
    return run(st, f, max_steps, tick)


def _floyd(st, f, max_steps, tick):
    if st.phase == 1:
        # invariant: slow = x(step), fast = x(2 step)
        _walk(st, f, max_steps, tick, 1, 2)
        # step is a multiple of the cycle length, so the entry is the first
        # meeting of x(1), x(2), ... with x(step + 1), x(step + 2), ...
        _next_phase(st, f, max_steps, tick, st.base, st.slow, 1, st.step, None)
    if st.phase == 2:
        # invariant: slow = x(step), fast = x(m + step)
        _walk(st, f, max_steps, tick, 1, 1)
        # anchor at the entry and measure the cycle with fast alone
        _next_phase(st, f, max_steps, tick, st.slow, st.slow, 1, st.step, st.m)
    # invariant: slow = x(entry) with entry in m, fast = x(entry + step)
    _walk(st, f, max_steps, tick, 0, 1)
    return RhoResult(st.m, st.step)


def _brent(st, f, max_steps, tick):
    if st.phase == 1:
        # invariant: fast = x(1 + step); slow anchors the latest power-of-two
        # index, and lam counts fast's lead over the anchor
        slow, fast, step, adv = st.slow, st.fast, st.step, st.advances
        power = 1 << (step.bit_length() - 1)
        lam = step - power + 1
        while slow != fast:
            if adv + 1 > max_steps:
                raise CycleNotFound(max_steps)
            if power == lam:
                slow = fast
                power <<= 1
                lam = 0
            fast = f(fast)
            lam += 1
            step += 1
            adv += 1
            st.slow, st.fast, st.step, st.advances = slow, fast, step, adv
            if tick is not None:
                tick(st)
        # lam is the exact cycle length; rebuild fast = x(1 + lam) and scan
        # for the entry in lockstep
        _next_phase(st, f, max_steps, tick, st.base, st.base, lam, None, lam)
    # invariant: slow = x(step), fast = x(step + candidate_c)
    _walk(st, f, max_steps, tick, 1, 1)
    return RhoResult(st.step, st.candidate_c)


def _walk(st, f, max_steps, tick, slow_moves, fast_moves):
    """Move slow and fast by their moves per step until they meet."""
    slow, fast, step, adv = st.slow, st.fast, st.step, st.advances
    cost = slow_moves + fast_moves
    while slow != fast:
        if adv + cost > max_steps:
            raise CycleNotFound(max_steps)
        if slow_moves:
            slow = f(slow)
        fast = f(fast)
        if fast_moves == 2:
            fast = f(fast)
        step += 1
        adv += cost
        st.slow, st.fast, st.step, st.advances = slow, fast, step, adv
        if tick is not None:
            tick(st)


def _next_phase(st, f, max_steps, tick, slow, fast, moves, m, candidate_c):
    """Enter the next phase at step 1 with fast moved moves times, storing
    what the finished phase learned in m and candidate_c. One assignment
    writes the whole state, so an interrupt sees either phase whole."""
    if st.advances + moves > max_steps:
        raise CycleNotFound(max_steps)
    for _ in range(moves):
        fast = f(fast)
    st.phase, st.m, st.candidate_c, st.slow, st.fast, st.step, st.advances = (
        st.phase + 1, m, candidate_c, slow, fast, 1, st.advances + moves)
    if tick is not None:
        tick(st)


def floyd_rho(first: S, f: Callable[[S], S], max_steps: int = MAX_STEPS) -> RhoResult:
    """Tortoise-and-hare search; returns (entry, cycle)."""
    return search(start(first, f, "floyd"), f, max_steps)


def brent_rho(first: S, f: Callable[[S], S], max_steps: int = MAX_STEPS) -> RhoResult:
    """Brent's teleporting-anchor search; returns (entry, cycle)."""
    return search(start(first, f, "brent"), f, max_steps)
