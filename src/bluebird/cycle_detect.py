"""Cycle search over canonical forms of flat self-application towers.

The orbit of a B-term X is X(1) = X, X(i+1) = X(i) X. find_rho locates the
least (entry, cycle) with canonical(X(entry)) = canonical(X(entry + cycle)),
advancing entirely in degree-sequence space: the orbit states are
canonical.DegreeSeq values, and one advance is one canonical.apply_poly,
a single merge. engine is this orbit as a cycles.Engine, which cycles.run
searches; the answer is a cycles.RhoResult (re-exported here). A state is a
DegreeSeq's run tuple ((degree, mult), ...) in the copies state_hook gets
and in save_checkpoint and load_checkpoint, and its rle_text in the file.
"""

from __future__ import annotations

from typing import Callable, Iterator, Union

from . import bterm as bt
from . import cycles, walk
from .canonical import DegreeSeq, apply_poly, canonicalize, parse_seq
from .cycles import RhoResult, SearchState

ENGINE_NAME = "canonical"

TermLike = Union[bt.BTerm, str]


def _rle(runs) -> str:
    return DegreeSeq(runs).rle_text()


def save_checkpoint(state: SearchState, path: str) -> None:
    """Atomically write the ten-line checkpoint for state, whose slow and
    fast are run tuples."""
    cycles.save(state, path, ENGINE_NAME, _rle)


def load_checkpoint(path: str) -> SearchState:
    """Read a checkpoint back into a SearchState of run tuples, rederiving
    the base runs from its term."""
    return cycles.load(path, ENGINE_NAME, lambda text: parse_seq(text).runs,
                       lambda text: canonicalize(bt.parse(text)).runs)


def engine(x: TermLike) -> cycles.Engine:
    """The orbit of x, a BTerm or source text, for cycles.run: walked by
    walk.CStepper when the states fit its integers, else by apply_poly (looked
    up per call, so a wrapped one is used); term lines compare by canonical form."""
    if isinstance(x, str):
        x = bt.parse(x)
    first = canonicalize(x)

    def stepper(st: SearchState | None, max_steps: int) -> cycles.Stepper:
        lib = walk.load()
        if lib and walk.fits(first, () if st is None else (st.slow, st.fast), max_steps + 1):
            return walk.CStepper(lib, first)
        return cycles.Stepper(lambda s: apply_poly(s, first))

    return cycles.Engine(ENGINE_NAME, bt.format_bterm(x), first, stepper, _rle, parse_seq,
                         parse=lambda text: canonicalize(bt.parse(text)),
                         plain=lambda s: s.runs, size=lambda runs: sum(m for _, m in runs))


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
    """The least (entry, cycle) of the self-application orbit of x: cycles.run
    over engine(x), whose state_hook copies hold run tuples."""
    return cycles.run(engine(x), max_steps, checkpoint_path, checkpoint_interval,
                      checkpoint_seconds, resume, state_hook, on_start)


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
