"""Apply one canonical form to another without leaving sequence space.

For canonical degree sequences s1, s2 of B-terms X1, X2, the canonical form
of the application (X1 X2) is s1 with the units of raise(s2) merged in by the
adjacent-swap law, its trailing zero-degree run dropped and every degree
lowered by one. Raising turns X2 into B X2; dropping and lowering undoes the
B. This is what lets cycle searches run millions of self-applications per
minute while the lambda oracle would drown in beta steps.

The kernel lives next to DegreeSeq in canonical, where canonicalize folds
whole terms through it and the orbit search runs it on LazyRuns, whose lazy
degree offset does the lowering. apply_runs and raise_runs work on raw run
tuples ((degree, mult), ...); apply_poly validates and is the public face.
"""

from __future__ import annotations

from .canonical import DegreeSeq, apply_runs, raise_runs


def apply_poly(s1: DegreeSeq, s2: DegreeSeq) -> DegreeSeq:
    """Canonical form of the application (X1 X2) given canonical s1, s2."""
    return DegreeSeq(apply_runs(s1.runs, raise_runs(s2.runs)))
