"""Command line front end.

Subcommands:

    canon TERM            print the canonical degree sequence of a B-term
    eq TERM TERM          decide beta-eta equivalence of two B-terms
    rho TERM              find (entry, cycle) of the self-application orbit
    iterate TERM          print canonical forms along the orbit
    antirho ...           run no-cycle certificate checks
    is-monomial TERM      test whether a term is equivalent to a monomial

Exit codes: 0 success (or true), 1 false / failed checks, 2 parse or usage
errors, 3 no cycle found within the step budget, 4 checkpoint I/O problems,
5 internal error (any other exception, reported without a traceback),
130 interrupted (Ctrl-C; a checkpointed rho search saves first).
All results go to stdout and are byte-deterministic; --progress reports go
to stderr.
"""

from __future__ import annotations

import argparse
import sys
import time

from . import antirho as ar
from . import bterm as bt
from . import cycles
from . import restricted as rr
from .canonical import canonicalize, equivalent_bterms, tree_of
from .cycle_detect import engine, iterate
from .errors import (
    CheckpointIO,
    CycleNotFound,
    ParseError,
    StepBudgetExceeded,
)
from .trees import split_spine


def _progress_hook(size):
    """A cycles.run state_hook that reports the search to stderr at most once
    a second, as chunks of advances finish; size measures the slow state."""
    last = [time.monotonic()]

    def hook(st):
        now = time.monotonic()
        if now - last[0] >= 1.0:
            last[0] = now
            print(f"progress: phase={st.phase} step={st.step} advances={st.advances} "
                  f"seq-units={size(st.slow)} stepper={st.stepper}", file=sys.stderr, flush=True)

    return hook


def cmd_canon(args) -> int:
    seq = canonicalize(bt.parse(args.term))
    print(seq.rle_text() if args.rle else seq.text())
    return 0


def cmd_eq(args) -> int:
    same = equivalent_bterms(bt.parse(args.term1), bt.parse(args.term2))
    print("true" if same else "false")
    return 0 if same else 1


def cmd_is_monomial(args) -> int:
    mono = canonicalize(bt.parse(args.term)).is_monomial()
    print("true" if mono else "false")
    return 0 if mono else 1


def _lambda_engine(text: str):
    """The lambda engine's orbit of a combinator that lambda_oracle defines
    by name (B, C, K, I, ...), else of the image of a B-term."""
    from . import lambda_oracle as lo

    named = getattr(lo, text.strip(), None)
    return lo.engine(named if isinstance(named, lo.Abs) else lo.bterm_to_lambda(bt.parse(text)))


_ENGINES = {  # each engine's orbit of a term
    "canonical": engine,
    "lambda": _lambda_engine,
    "restricted": rr.engine,
}


def cmd_rho(args) -> int:
    orbit = _ENGINES[args.engine](args.term)
    result = cycles.run(orbit, args.max_steps, args.checkpoint, args.checkpoint_interval,
                        args.checkpoint_seconds, args.resume,
                        _progress_hook(orbit.size) if args.progress else None)
    print(f"rho = ({result.entry}, {result.cycle})")
    return 0


def cmd_iterate(args) -> int:
    for i, seq in enumerate(iterate(args.term, args.count), start=1):
        if args.stats:
            t = tree_of(seq)
            print(f"{i}\t{seq.text()}\tl={t.size}\ta={len(split_spine(t)[1])}")
        else:
            print(f"{i}\t{seq.text()}")
    return 0


class _UsageError(Exception):
    """Option values that argparse cannot check; exit code 2."""


def _monomial_power(args, missing: str) -> ar.MonomialPower:
    if args.k is None or args.n is None:
        raise _UsageError(missing)
    try:
        return ar.MonomialPower(args.k, args.n)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def cmd_antirho(args) -> int:
    if args.term is None:
        mp = _monomial_power(args, "antirho needs --k and --n, or --term")
        steps = args.steps if args.steps is not None else 200
        report = ar.run_power_suite(mp, steps)
    else:
        membership = None
        if args.predicate == "example2":
            membership = ar.in_example_family
        elif args.predicate == "tkn":
            mp = _monomial_power(args, "--predicate tkn needs --k and --n")
            membership = lambda t: ar.in_iterate_family(t, mp)
        steps = args.steps if args.steps is not None else 100
        report = ar.run_term_suite(args.term, steps, membership=membership)
    print(report.render())
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bluebird",
        description="Canonical forms, equivalence and cycle search for B-terms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("canon", help="canonical degree sequence of a B-term")
    p.add_argument("term")
    p.add_argument("--rle", action="store_true", help="run-length encoded output")
    p.set_defaults(func=cmd_canon)

    p = sub.add_parser("eq", help="decide beta-eta equivalence of two B-terms")
    p.add_argument("term1")
    p.add_argument("term2")
    p.set_defaults(func=cmd_eq)

    p = sub.add_parser("is-monomial", help="test equivalence to a monomial")
    p.add_argument("term")
    p.set_defaults(func=cmd_is_monomial)

    p = sub.add_parser("rho", help="find (entry, cycle) of the self-application orbit")
    p.add_argument("term", help="B-term; with --engine lambda also a combinator name")
    p.add_argument("--engine", choices=("canonical", "lambda", "restricted"),
                   default="canonical")
    p.add_argument("--max-steps", type=int, default=cycles.MAX_STEPS)
    p.add_argument("--checkpoint", metavar="PATH",
                   help="write periodic checkpoints, and one on a stop or Ctrl-C")
    p.add_argument("--checkpoint-interval", type=int, default=10**7,
                   metavar="N", help="advances between checkpoints")
    p.add_argument("--checkpoint-seconds", type=float, default=60.0,
                   metavar="S", help="seconds between checkpoints")
    p.add_argument("--resume", action="store_true",
                   help="continue from the checkpoint file")
    p.add_argument("--progress", action="store_true",
                   help="report progress to stderr at most once a second")
    p.set_defaults(func=cmd_rho)

    p = sub.add_parser("iterate", help="print canonical forms along the orbit")
    p.add_argument("term")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--stats", action="store_true",
                   help="append leaf and head-argument counts")
    p.set_defaults(func=cmd_iterate)

    p = sub.add_parser("antirho", help="no-cycle certificate checks")
    p.add_argument("--k", type=int, help="monomial degree of the power family")
    p.add_argument("--n", type=int, help="power multiplier of the family")
    p.add_argument("--term", help="check this term instead of a monomial power")
    p.add_argument("--predicate", choices=("tkn", "example2"),
                   help="family membership to enforce with --term")
    p.add_argument("--steps", type=int, help="orbit length to examine")
    p.set_defaults(func=cmd_antirho)

    return parser


# least accepted value of each numeric option; argparse cannot say this
_MINIMA = {"max_steps": 1, "count": 1, "checkpoint_interval": 1,
           "checkpoint_seconds": 0, "steps": 1}

_EXIT_CODES = ((ParseError, 2), (_UsageError, 2), (CycleNotFound, 3),
               (StepBudgetExceeded, 3), (CheckpointIO, 4))  # anything else: 5


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for dest, least in _MINIMA.items():
            value = getattr(args, dest, None)
            if value is not None and not value >= least:  # "not >=" also refuses nan
                raise _UsageError(f"--{dest.replace('_', '-')} must be >= {least}")
        return args.func(args)
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130
    except Exception as exc:
        code = next((c for kind, c in _EXIT_CODES if isinstance(exc, kind)), 5)
        text = str(exc) if code < 5 else f"internal error: {type(exc).__name__}: {exc}"
        print(f"error: {text}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
