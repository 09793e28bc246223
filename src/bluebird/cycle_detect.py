"""Cycle search over canonical forms of flat self-application towers.

The orbit of a B-term X is X(1) = X, X(i+1) = X(i) X. find_rho locates the
least (entry, cycle) with canonical(X(entry)) = canonical(X(entry + cycle)),
advancing entirely in degree-sequence space: the orbit states are
canonical.DegreeSeq values, and one advance is one canonical.apply_poly,
a single merge. The Brent search itself is cycles.search, and the answer
is its cycles.RhoResult (re-exported here); this module adds the choice of
stepper and the checkpoint file. In checkpoints and the copies state_hook
gets, a state is a DegreeSeq's run tuple ((degree, mult), ...).

Long searches can write periodic checkpoints and resume after a hard kill.
A checkpoint is ten lines of text:

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
from an earlier Floyd search is refused. slow and fast are run-length
encoded degree sequences. Writes are atomic (temp file, fsync, rename) and
only ever happen at loop boundaries, so a checkpoint always describes a
consistent search position. A budget stop or a KeyboardInterrupt writes a
final checkpoint; any other exception leaves the last periodic one. The
file is removed when a search completes.

Budgets count advances (one advance = one application of X) and apply per
run: resuming grants a fresh max_steps.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Iterator, Union

from . import bterm as bt
from . import cycles, walk
from .canonical import DegreeSeq, apply_poly, canonicalize, parse_seq
from .cycles import RhoResult, SearchState
from .errors import CheckpointIO, CycleNotFound, FormatVersionMismatch

FORMAT_LINE = "rho-checkpoint v1"
ENGINE_NAME = "canonical"

TermLike = Union[bt.BTerm, str]


def _as_runs(st: SearchState) -> SearchState:
    """A copy of st with run tuples for its orbit states."""
    return SearchState(st.term_text, st.algorithm, st.phase, st.step, st.m, st.candidate_c,
                       st.slow.runs, st.fast.runs, st.base.runs, st.advances,
                       st.stepper)


def _opt(v: int | None) -> str:
    return "-" if v is None else str(v)


def save_checkpoint(state: SearchState, path: str) -> None:
    """Atomically write the ten-line checkpoint for state, whose slow and
    fast are run tuples."""
    text = "\n".join(
        [
            FORMAT_LINE,
            f"term: {state.term_text}",
            f"engine: {ENGINE_NAME}",
            f"algorithm: {state.algorithm}",
            f"phase: {state.phase}",
            f"step: {state.step}",
            f"m: {_opt(state.m)}",
            f"candidate_c: {_opt(state.candidate_c)}",
            f"slow: {DegreeSeq(state.slow).rle_text()}",
            f"fast: {DegreeSeq(state.fast).rle_text()}",
        ]
    )
    tmp = path + ".tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(text + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except OSError as exc:
        raise CheckpointIO(f"cannot write checkpoint {path!r}: {exc}") from exc


def _field(lines: list[str], idx: int, key: str, path: str) -> str:
    prefix = key + ": "
    if idx >= len(lines) or not lines[idx].startswith(prefix):
        raise CheckpointIO(f"checkpoint {path!r} is truncated or malformed at line {idx + 1}")
    return lines[idx][len(prefix):]


def _opt_int(text: str, key: str, path: str) -> int | None:
    if text == "-":
        return None
    try:
        return int(text)
    except ValueError:
        raise CheckpointIO(f"checkpoint {path!r}: bad integer for {key}: {text!r}") from None


def load_checkpoint(path: str) -> SearchState:
    """Read a checkpoint back into a SearchState of run tuples, rederiving
    the base runs."""
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
    term_text = _field(lines, 1, "term", path)
    engine = _field(lines, 2, "engine", path)
    if engine != ENGINE_NAME:
        raise CheckpointIO(f"checkpoint {path!r} is for engine {engine!r}, not {ENGINE_NAME!r}")
    algorithm = _field(lines, 3, "algorithm", path)
    if algorithm == "floyd":
        raise CheckpointIO(f"checkpoint {path!r} was written by a Floyd search; Floyd "
                           "searches are no longer run, so the search must restart")
    if algorithm != "brent":
        raise CheckpointIO(f"checkpoint {path!r}: unknown algorithm {algorithm!r}")
    phase = _opt_int(_field(lines, 4, "phase", path), "phase", path)
    step = _opt_int(_field(lines, 5, "step", path), "step", path)
    if phase not in (1, 2) or step is None or step < 1:
        raise CheckpointIO(f"checkpoint {path!r}: bad phase/step")
    if _field(lines, 6, "m", path) != "-":
        raise CheckpointIO(f"checkpoint {path!r}: m must be '-'")
    candidate_c = _opt_int(_field(lines, 7, "candidate_c", path), "candidate_c", path)
    if phase == 1 and candidate_c is not None:
        raise CheckpointIO(f"checkpoint {path!r}: phase 1 has no candidate_c yet")
    if phase == 2 and (candidate_c is None or candidate_c < 1):
        raise CheckpointIO(f"checkpoint {path!r}: phase 2 candidate_c must be >= 1")
    try:
        slow = parse_seq(_field(lines, 8, "slow", path)).runs
        fast = parse_seq(_field(lines, 9, "fast", path)).runs
        base = canonicalize(bt.parse(term_text)).runs
    except Exception as exc:
        raise CheckpointIO(f"checkpoint {path!r}: {exc}") from exc
    return SearchState(
        term_text=term_text,
        algorithm=algorithm,
        phase=phase,
        step=step,
        m=None,
        candidate_c=candidate_c,
        slow=slow,
        fast=fast,
        base=base,
    )


def find_rho(
    x: TermLike,
    max_steps: int = cycles.MAX_STEPS,
    checkpoint_path: str | None = None,
    checkpoint_interval: int = 10**7,
    checkpoint_seconds: float = 60.0,
    resume: bool = False,
    state_hook: Callable[[SearchState], None] | None = None,
    on_start: Callable[[SearchState], None] | None = None,
) -> RhoResult:
    """Find the least (entry, cycle) of the self-application orbit of x.

    x may be a BTerm or source text. Raises CycleNotFound rather than make
    more than max_steps advances in this run. When checkpoint_path is set,
    that stop and a KeyboardInterrupt write a final checkpoint before they
    propagate; resuming from it continues the same search.

    With checkpoint_path, progress is saved every checkpoint_interval
    advances or checkpoint_seconds seconds, whichever comes first, and the
    file is deleted once the search finishes. With resume=True the search
    continues from checkpoint_path instead of starting over; the term must
    match.

    The compiled walk (walk.CStepper) makes the advances when it builds and
    the states fit its integers, else the Python stepper over apply_poly, in
    chunks of at most checkpoint_interval and 2^20 (about 30 ms compiled).
    state_hook gets a copy of the state with run tuples for slow and fast
    after every chunk (every iteration with checkpoint_interval=1; the CLI's
    --progress reports from it); on_start gets the live SearchState once,
    before the loop.
    """
    if isinstance(x, str):
        x = bt.parse(x)
    term_text = bt.format_bterm(x)
    first = canonicalize(x)

    def step(s: DegreeSeq) -> DegreeSeq:
        return apply_poly(s, first)  # looked up per call, so a wrapped one is used

    if resume:
        if checkpoint_path is None:
            raise CheckpointIO("resume requested without a checkpoint path")
        st = load_checkpoint(checkpoint_path)
        if st.base != first.runs:
            raise CheckpointIO(
                f"checkpoint {checkpoint_path!r} is for term {st.term_text!r}, "
                f"which does not match {term_text!r}"
            )
        st.slow, st.fast, st.base = DegreeSeq(st.slow), DegreeSeq(st.fast), first
    else:
        st = cycles.start(first, step, term_text)
    lib = walk.load()
    fits = lib and walk.fits(st, max_steps)
    stepper = walk.CStepper(lib, first) if fits else cycles.Stepper(step)
    st.stepper = stepper.name
    if on_start is not None:
        on_start(st)
    saved = [st.advances, time.monotonic()]  # advances and time of the last save

    def tick(st: SearchState) -> None:
        plain = None
        if checkpoint_path is not None:
            if (st.advances - saved[0] >= checkpoint_interval
                    or time.monotonic() - saved[1] >= checkpoint_seconds):
                plain = _as_runs(st)
                save_checkpoint(plain, checkpoint_path)
                saved[:] = st.advances, time.monotonic()
        if state_hook is not None:
            state_hook(plain or _as_runs(st))

    try:
        chunk = min(max(checkpoint_interval, 1), 1 << 20)
        result = cycles.search(st, stepper, max_steps, tick, chunk)
    except (CycleNotFound, KeyboardInterrupt):
        # the core writes st only between stepper calls, so st is consistent
        if checkpoint_path is not None:
            save_checkpoint(_as_runs(st), checkpoint_path)
        raise
    if checkpoint_path is not None:
        try:
            os.remove(checkpoint_path)
        except FileNotFoundError:
            pass
        except OSError as exc:
            raise CheckpointIO(f"cannot remove checkpoint {checkpoint_path!r}: {exc}") from exc
    return result


def iterate(x: TermLike, count: int) -> Iterator[DegreeSeq]:
    """Yield canonical forms of X(1) .. X(count)."""
    if count < 1:
        return
    if isinstance(x, str):
        x = bt.parse(x)
    first = seq = canonicalize(x)
    yield seq
    for _ in range(count - 1):
        seq = apply_poly(seq, first)
        yield seq
