"""Canonical forms, equivalence and cycle structure of B-terms.

Terms built from the composition combinator alone have decidable beta-eta
equivalence: every such term is a unique composition of monomials with
non-increasing degrees, summarized by a degree sequence. This package
canonicalizes terms, applies them to each other directly on canonical forms,
searches self-application orbits for cycles (with checkpoint/resume for long
runs), certifies cycle-freedom for whole families, and cross-checks all of
it against a small lambda-calculus normalizer and a restricted first-order
rewriting system.
"""

from . import canonical as fast_apply  # bench/run.py reads apply_runs and raise_runs here
from .bterm import App, B, BTerm, flat, format_bterm, monomial, parse
from .canonical import (
    DegreeSeq,
    apply_poly,
    canonical_via_lambda,
    canonicalize,
    equivalent_bterms,
    monomial_degree,
    nodes,
    parse_seq,
    seq_of_tree,
    seq_to_bterm,
    tree_of,
)
from .cycle_detect import (
    RhoResult,
    SearchState,
    find_rho,
    iterate,
    load_checkpoint,
    save_checkpoint,
)
from .errors import (
    BluebirdError,
    CheckpointIO,
    CycleNotFound,
    FormatVersionMismatch,
    NotBFormShape,
    ParseError,
    StepBudgetExceeded,
)
from .restricted import (
    RestrictedEngine,
    find_rho_restricted,
    format_rterm,
    monomial_rterm,
    parse_rterm,
    rnormalize,
)
from .trees import LEAF, BinTree, Node, comb, format_tree, split_spine

__version__ = "0.1.0"

__all__ = [
    "App", "B", "BTerm", "flat", "format_bterm", "monomial", "parse",
    "DegreeSeq", "canonical_via_lambda", "canonicalize", "equivalent_bterms",
    "monomial_degree", "nodes", "parse_seq", "seq_of_tree", "seq_to_bterm",
    "tree_of",
    "RhoResult", "SearchState", "find_rho", "iterate", "load_checkpoint",
    "save_checkpoint",
    "BluebirdError", "CheckpointIO", "CycleNotFound",
    "FormatVersionMismatch", "NotBFormShape", "ParseError",
    "StepBudgetExceeded",
    "apply_poly",
    "RestrictedEngine", "find_rho_restricted", "format_rterm",
    "monomial_rterm", "parse_rterm", "rnormalize",
    "LEAF", "BinTree", "Node", "comb", "format_tree", "split_spine",
    "__version__",
]
