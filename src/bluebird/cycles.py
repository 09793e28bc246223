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
after a stepper call has returned, so a budget stop or an exception from
the stepper or from tick always leaves a consistent position. Budgets
count advances, i.e. calls of f, and apply per run: resuming grants a
fresh max_steps.

run drives one engine's search from start to answer: an Engine is a small
record of callables (cycle_detect.engine, restricted.engine,
lambda_oracle.engine), and run owns the rest: the stepper's lifetime, the
chunks, the hooks and the checkpoint file, ten lines of text:

    rho-checkpoint v1
    term: B (B B)
    engine: canonical
    algorithm: brent
    phase: 2
    step: 245
    m: -
    candidate_c: 36
    slow: 15*1,13*1,10*1,7*6,4*2,1*3
    fast: 15*1,13*1,10*4,7*2,5*1,1*5

step is the per-phase counter, and candidate_c holds the cycle length once
phase 1 has found it ("-" before). The algorithm and m lines keep the
layout of the first release; they always read "brent" and "-", and a file
from an earlier Floyd search is refused. The engine line selects the
encode that wrote the slow and fast lines and the decode that reads them
back: run-length degree sequences, restricted terms or escaped lambda
prefix strings. Writes are atomic (temp file, fsync, rename) and hold the
position of the last chunk's end, so a checkpoint always describes a
consistent search position. A budget stop or a KeyboardInterrupt writes a
final checkpoint; any other exception leaves the last periodic one. The
file is removed when a search completes.

floyd_rho is a plain tortoise and hare that shares no code with search; it
is kept as an independent cross-check.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple, TypeVar

from .errors import CheckpointIO, CycleNotFound, FormatVersionMismatch, StepBudgetExceeded

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
    loaded. stepper is "c" when a compiled walk makes the advances, else
    "py".
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

    def close(self) -> None:
        """Release what the stepper holds; a no-op here."""


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


class Engine(NamedTuple):
    """One engine's orbit for run: the engine and term lines, x(1), and the
    factory of a run's Stepper (st is None on a fresh run). plain makes a
    state valid past the next walk call; encode writes a plain state as one
    line, decode reads a line, parse (decode if None) reads a term line into
    x(1), and size measures a plain state for progress reports."""

    name: str
    term: str
    first: Any
    stepper: Callable[[SearchState | None, int], Stepper]
    encode: Callable[[Any], str]
    decode: Callable[[str], Any]
    parse: Callable[[str], Any] | None = None
    plain: Callable[[Any], Any] = lambda s: s
    size: Callable[[Any], int] = len


FORMAT_LINE = "rho-checkpoint v1"
_KEYS = ("term", "engine", "algorithm", "phase", "step", "m", "candidate_c", "slow", "fast")


def _opt(v: int | None) -> str:
    return "-" if v is None else str(v)


def save(st: SearchState, path: str, engine: str, encode: Callable[[Any], str]) -> None:
    """Atomically write the ten-line checkpoint of st for the named engine;
    encode turns st.slow and st.fast into their lines."""
    values = (st.term_text, engine, st.algorithm, st.phase, st.step, _opt(st.m),
              _opt(st.candidate_c), encode(st.slow), encode(st.fast))
    tmp = path + ".tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write("".join([FORMAT_LINE + "\n"] + [f"{k}: {v}\n" for k, v in zip(_KEYS, values)]))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except OSError as exc:
        raise CheckpointIO(f"cannot write checkpoint {path!r}: {exc}") from exc


def _opt_int(text: str, key: str, path: str) -> int | None:
    if text == "-":
        return None
    try:
        return int(text)
    except ValueError:
        raise CheckpointIO(f"checkpoint {path!r}: bad integer for {key}: {text!r}") from None


def load(path: str, engine: str, decode: Callable[[str], Any],
         parse: Callable[[str], Any]) -> SearchState:
    """Read a checkpoint of the named engine back into a SearchState: decode
    reads slow and fast, parse the term line into base."""
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise CheckpointIO(f"cannot read checkpoint {path!r}: {exc}") from exc
    if not lines:
        raise CheckpointIO(f"checkpoint {path!r} is empty")
    if lines[0] != FORMAT_LINE:
        if lines[0].startswith("rho-checkpoint"):
            raise FormatVersionMismatch(
                f"checkpoint {path!r} has version {lines[0]!r}, expected {FORMAT_LINE!r}"
            )
        raise CheckpointIO(f"checkpoint {path!r} does not look like a rho checkpoint")
    values = []
    for i, key in enumerate(_KEYS, 1):
        if i >= len(lines) or not lines[i].startswith(key + ": "):
            raise CheckpointIO(f"checkpoint {path!r} is truncated or malformed at line {i + 1}")
        values.append(lines[i][len(key) + 2:])
    term_text, name, algorithm, phase, step, m, candidate_c, slow, fast = values
    if name != engine:
        raise CheckpointIO(f"checkpoint {path!r} is for engine {name!r}, not {engine!r}")
    if algorithm == "floyd":
        raise CheckpointIO(f"checkpoint {path!r} was written by a Floyd search; Floyd "
                           "searches are no longer run, so the search must restart")
    if algorithm != "brent":
        raise CheckpointIO(f"checkpoint {path!r}: unknown algorithm {algorithm!r}")
    phase, step = _opt_int(phase, "phase", path), _opt_int(step, "step", path)
    if phase not in (1, 2) or step is None or step < 1:
        raise CheckpointIO(f"checkpoint {path!r}: bad phase/step")
    if m != "-":
        raise CheckpointIO(f"checkpoint {path!r}: m must be '-'")
    candidate_c = _opt_int(candidate_c, "candidate_c", path)
    if phase == 1 and candidate_c is not None:
        raise CheckpointIO(f"checkpoint {path!r}: phase 1 has no candidate_c yet")
    if phase == 2 and (candidate_c is None or candidate_c < 1):
        raise CheckpointIO(f"checkpoint {path!r}: phase 2 candidate_c must be >= 1")
    try:
        slow, fast, base = decode(slow), decode(fast), parse(term_text)
    except Exception as exc:
        raise CheckpointIO(f"checkpoint {path!r}: {exc}") from exc
    return SearchState(term_text, algorithm, phase, step, None, candidate_c, slow, fast, base)


def run(
    engine: Engine,
    max_steps: int = MAX_STEPS,
    checkpoint_path: str | None = None,
    checkpoint_interval: int = 10**7,
    checkpoint_seconds: float = 60.0,
    resume: bool = False,
    state_hook: Callable[[SearchState], None] | None = None,
    on_start: Callable[[SearchState], None] | None = None,
) -> RhoResult:
    """Search engine's orbit to its (entry, cycle).

    Raises CycleNotFound rather than make more than max_steps advances in
    this run; that stop, the engine's StepBudgetExceeded and a
    KeyboardInterrupt first save checkpoint_path, if set, which is also saved
    every checkpoint_interval advances or checkpoint_seconds seconds and
    deleted once the search finishes; resume=True continues from it.

    The stepper makes chunks of at most checkpoint_interval and 2^20
    advances. With checkpoint_path or state_hook the position is copied with
    plain states at the start and after every chunk: state_hook gets each
    chunk's copy, and a save writes the latest, so a stop inside a walk call
    saves the position before it. on_start gets the live SearchState."""
    st = None
    if resume:
        if checkpoint_path is None:
            raise CheckpointIO("resume requested without a checkpoint path")
        st = load(checkpoint_path, engine.name, engine.decode, engine.parse or engine.decode)
        if st.base != engine.first:
            raise CheckpointIO(f"checkpoint {checkpoint_path!r} is for term {st.term_text!r}, "
                               f"which does not match {engine.term!r}")
    stepper, tick, latest = engine.stepper(st, max_steps), None, []
    try:
        if st is None:
            st = start(engine.first, lambda s: stepper.walk(s, None, 1, False)[0], engine.term)
        st.stepper = stepper.name
        if checkpoint_path is not None or state_hook is not None:
            plain, base = engine.plain, engine.plain(st.base)
            saved = [st.advances, time.monotonic()]  # advances and time of the last save

            def tick(st: SearchState, chunked: bool = True) -> None:
                latest[:] = [SearchState(st.term_text, st.algorithm, st.phase, st.step, st.m,
                                         st.candidate_c, plain(st.slow), plain(st.fast), base,
                                         st.advances, st.stepper)]
                if chunked and checkpoint_path is not None and (
                        st.advances - saved[0] >= checkpoint_interval
                        or time.monotonic() - saved[1] >= checkpoint_seconds):
                    save(latest[0], checkpoint_path, engine.name, engine.encode)
                    saved[:] = st.advances, time.monotonic()
                if chunked and state_hook is not None:
                    state_hook(latest[0])

            tick(st, False)
        if on_start is not None:
            on_start(st)
        chunk = min(max(checkpoint_interval, 1), 1 << 20)
        result = search(st, stepper, max_steps, tick, chunk)
    except (CycleNotFound, StepBudgetExceeded, KeyboardInterrupt):
        if checkpoint_path is not None and latest:
            save(latest[0], checkpoint_path, engine.name, engine.encode)
        raise
    finally:
        stepper.close()
    if checkpoint_path is not None:
        try:
            os.remove(checkpoint_path)
        except FileNotFoundError:
            pass
        except OSError as exc:
            raise CheckpointIO(f"cannot remove checkpoint {checkpoint_path!r}: {exc}") from exc
    return result


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
