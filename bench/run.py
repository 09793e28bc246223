"""Benchmark of bluebird's B-term engines.

    python3 bench/run.py --workload orbit-b4 --seed 1 --seconds 10 --trace 0

Run it from the root of a source checkout: bluebird is imported from ./src
and from nowhere else, so a directory without the sources makes it exit 2.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the end-to-end
ones; with --trace 1 a traced run drives every layer through its public
functions and reports the per-layer ones. bench/README.md says what each
workload and metric is for.

The process runs one thread and never raises the interpreter recursion
limit; a run that finds the limit changed is not correct.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import random
import resource
import statistics
import sys
import time
from pathlib import Path

import reference as ref
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("orbit-b4", "orbit-r4", "lambda-b3", "decide")
SETUP_REPEATS = 3

# orbit-b4: a checkpointed search stopped by its step budget, then resumed.
# The stop lies in Brent's first phase, away from an index 2^k - 1, where
# resuming is sound (see the FOUND lines in CHANGES.md for the others).
B4_TERM = "B^4 B"
B4_STOP_AT = 600_000
B4_CHECKPOINT_EVERY = 100_000
B4_CHECKPOINT_SECONDS = 3600.0
# traced run: where the apply and compare probes take their slices
B4_PROBE_AT = (100_000, 400_000, 700_000, 1_000_000, 1_300_000, 1_600_000)
B4_PROBE_SLICE = 10_000
CHECKPOINT_PROBE_REPEATS = 200

R4_DEGREE = 4
R4_MAX_ADVANCES = 10**7
R4_MAX_CONTRACTIONS = 10**7
R4_EARLY_ITERATES = 400

L3_TERM = "B^3 B"
L3_MAX_ADVANCES = 10**6

# decide: per round, ops by size class; the leaf counts are fixed and the
# seed only picks shapes and rewrites. Every op decides the equivalence of
# two texts, a random pair or a pair made equivalent by B-rule contractions,
# either by comparing two canonicalize results or by equivalent_bterms.
KINDS = ("random", "rewritten")
METHODS = ("canonicalize", "equivalent")
SMALL_LEAVES = range(1, 13)
SMALL_PER_SIZE = 100
MEDIUM_SIZES = [round(13 * (999 / 13) ** (i / 23)) for i in range(24)]
MEDIUM_PER_SIZE = 12
LARGE_SIZES = [round(1000 * 10 ** (i / 23)) for i in range(24)]
ORACLE_MAX_LEAVES = 12
DEEP_PAREN_DEPTH = 600


def size_class(leaves: int) -> str:
    if leaves <= 12:
        return "small"
    return "medium" if leaves < 1000 else "large"


def spelled_monomial(n: int) -> str:
    """B^n B written out as B (B (... (B B)...)), n - 1 parentheses deep."""
    return "B (" * (n - 1) + "B B" + ")" * (n - 1)


def deep_ops():
    """Inputs whose depth overflows the default recursion limit today: the
    same four ops for every seed."""
    parens = "(" * DEEP_PAREN_DEPTH + "B B" + ")" * DEEP_PAREN_DEPTH
    return [
        ("random", "canonicalize", ("B^1000 B", "B^2000 B")),
        ("random", "equivalent", ("B^2000 B", "B^1000 B")),
        ("random", "canonicalize", ("B^1000 B", spelled_monomial(1000))),
        ("random", "equivalent", (parens, "B B")),
    ]


def make_corpus(seed: int):
    """Ops of one decide round as (kind, method, texts), in a seeded order."""
    rng = random.Random(seed)
    ops = []

    def add(i, n):
        kind, method = KINDS[i % 2], METHODS[i // 2 % 2]
        t = ref.random_term(rng, n)
        if kind == "random" or n < 4:
            u = ref.random_term(rng, n)
            kind = "random"
        else:
            while not ref.redexes(t):
                t = ref.random_term(rng, n)
            u = ref.rewrite(rng, t, rng.randint(1, 3))
        ops.append((kind, method, (ref.format_term(t), ref.format_term(u))))

    for n in SMALL_LEAVES:
        for i in range(SMALL_PER_SIZE):
            add(i, n)
    for n in MEDIUM_SIZES:
        for i in range(MEDIUM_PER_SIZE):
            add(i, n)
    for i, n in enumerate(LARGE_SIZES):
        add(i, n)
    rng.shuffle(ops)
    return ops + deep_ops()


# --- loading the program ------------------------------------------------------

def load_bluebird():
    """Import bluebird from ./src afresh; every call re-executes the modules."""
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "bluebird" or m.startswith("bluebird.")]:
        del sys.modules[name]
    bb = importlib.import_module("bluebird")
    importlib.import_module("bluebird.lambda_oracle")
    if Path(bb.__file__).resolve().parent != (SRC / "bluebird").resolve():
        raise ImportError(f"bluebird was imported from {bb.__file__}, not from {SRC}")
    return bb


def prepare(name, bb, seed):
    """The inputs the program needs before the first timed call."""
    if name == "orbit-r4":
        return bb.monomial_rterm(R4_DEGREE)
    if name == "lambda-b3":
        lo = bb.lambda_oracle
        return lo.bterm_to_lambda(bb.parse(L3_TERM))
    if name == "decide":
        return make_corpus(seed)
    return B4_TERM


def set_up(name, seed):
    """Import and prepare SETUP_REPEATS times; the median is setup_s."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        bb = load_bluebird()
        inputs = prepare(name, bb, seed)
        times.append(time.perf_counter() - t0)
    return bb, inputs, statistics.median(times)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Outcome:
    """What one run did: operations, failures and broken checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.certified: set = set()  # (workload, answer) pairs already checked

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)


# --- orbit-b4 -----------------------------------------------------------------

def run_orbit_b4(bb, term, out: Outcome, hook=None, on_start=None):
    """Search with checkpoints, stop on the step budget, resume to the end.
    Returns (answer, wall seconds, advances of both segments)."""
    ck = OUT / "orbit-b4.ck"
    if ck.exists():
        ck.unlink()
    states = []

    def started(st):
        states.append(st)
        if on_start is not None:
            on_start(st)

    kw = dict(checkpoint_path=str(ck), checkpoint_interval=B4_CHECKPOINT_EVERY,
              checkpoint_seconds=B4_CHECKPOINT_SECONDS, state_hook=hook,
              on_start=started)
    stopped = False
    t0 = time.perf_counter()
    try:
        bb.find_rho(term, max_steps=B4_STOP_AT, **kw)
    except bb.CycleNotFound:
        stopped = True
    answer = tuple(bb.find_rho(term, resume=True, **kw))
    wall = time.perf_counter() - t0
    out.attempted += 1
    out.check(stopped, "orbit-b4: the step budget did not stop the first segment")
    out.check(not ck.exists(), "orbit-b4: the checkpoint is left behind")
    return answer, wall, sum(st.advances for st in states)


def certify_b4(answers, out: Outcome) -> None:
    """Walk the reference kernel to X(e + c) and check the certificate."""
    for answer in sorted(set(answers)):
        if ("orbit-b4", answer) in out.certified:
            continue
        out.certified.add(("orbit-b4", answer))
        e, c = answer
        base = ref.canonical(ref.parse(B4_TERM))
        states = ref.orbit(base, ref.certificate_indices(e, c))
        for bad in ref.rho_certificate(states.__getitem__, e, c):
            out.problems.append(f"orbit-b4 {answer}: {bad}")


# --- orbit-r4 -----------------------------------------------------------------

def run_orbit_r4(bb, term, out: Outcome):
    t0 = time.perf_counter()
    answer = bb.find_rho_restricted(term, algorithm="brent", max_steps=R4_MAX_ADVANCES,
                                    rewrite_budget=R4_MAX_CONTRACTIONS)
    wall = time.perf_counter() - t0
    out.attempted += 1
    return tuple(answer), wall


def restricted_tuple(bb, t):
    """An RTerm as the reference's plain data: ints and pairs."""
    done = []
    stack = [(t, False)]
    while stack:
        u, expanded = stack.pop()
        if isinstance(u, bb.restricted.RConst):
            done.append(u.k)
        elif expanded:
            arg = done.pop()
            done.append((done.pop(), arg))
        else:
            stack += [(u, True), (u.arg, False), (u.fn, False)]
    return done[0]


def certify_r4(bb, answers, out: Outcome) -> None:
    """Check the certificate on a fresh engine, and its early iterates
    against the reference contractor."""
    for answer in sorted(set(answers)):
        if ("orbit-r4", answer) in out.certified:
            continue
        out.certified.add(("orbit-r4", answer))
        e, c = answer
        eng = bb.RestrictedEngine(R4_MAX_CONTRACTIONS)
        base = eng.normalize(eng.intern(bb.monomial_rterm(R4_DEGREE)))
        want = ref.certificate_indices(e, c)
        last = max(want)
        at = {}
        early = []
        cur = base
        for i in range(1, last + 1):
            if i in want:
                at[i] = cur
            if i <= R4_EARLY_ITERATES:
                early.append(restricted_tuple(bb, eng.extern(cur)))
            if i < last:
                cur = eng.normalize(eng.app(cur, base))
        del eng
        for bad in ref.rho_certificate(at.__getitem__, e, c):
            out.problems.append(f"orbit-r4 {answer}: {bad}")
        ref_base = ref.restricted_nf(ref.restricted_monomial(R4_DEGREE))
        cur = ref_base
        for i, got in enumerate(early, start=1):
            if got != cur:
                out.problems.append(f"orbit-r4: iterate {i} differs from the reference")
                break
            cur = ref.restricted_nf((cur, ref_base))


# --- lambda-b3 ----------------------------------------------------------------

def run_lambda_b3(bb, term, out: Outcome):
    t0 = time.perf_counter()
    answer = bb.lambda_oracle.rho_lambda(term, max_steps=L3_MAX_ADVANCES)
    wall = time.perf_counter() - t0
    out.attempted += 1
    return tuple(answer), wall


def check_l3(bb, answers, out: Outcome) -> None:
    canonical = tuple(bb.find_rho(L3_TERM))
    brute = ref.brute_rho(ref.canonical(ref.parse(L3_TERM)), 100_000)
    out.check(canonical == brute, f"lambda-b3: find_rho {canonical} != reference {brute}")
    for answer in set(answers):
        out.check(answer == canonical, f"lambda-b3: {answer} != find_rho {canonical}")


# --- decide -------------------------------------------------------------------

FAILED = object()


def decide_op(bb, method, texts):
    """(decision, canonical forms or None) for one pair of texts."""
    a, b = bb.parse(texts[0]), bb.parse(texts[1])
    if method == "equivalent":
        return bb.equivalent_bterms(a, b), None
    forms = bb.canonicalize(a), bb.canonicalize(b)
    return forms[0] == forms[1], forms


def run_decide_round(bb, ops, out: Outcome, op=None):
    """One pass over the corpus; returns (wall, latencies, outputs). A
    RecursionError fails the op; its latency counts as infinite."""
    op = op or (lambda i, method, texts: decide_op(bb, method, texts))
    lats, outs = [], []
    r0 = time.perf_counter()
    for i, (_, method, texts) in enumerate(ops):
        t0 = time.perf_counter()
        try:
            res = op(i, method, texts)
        except RecursionError:
            res = FAILED
        t1 = time.perf_counter()
        lats.append(math.inf if res is FAILED else t1 - t0)
        outs.append(res)
    wall = time.perf_counter() - r0
    out.attempted += len(ops)
    out.failed += sum(res is FAILED for res in outs)
    return wall, lats, outs


def to_bterm(bb, tree):
    done = []
    stack = [(tree, False)]
    while stack:
        t, expanded = stack.pop()
        if t is ref.LEAF:
            done.append(bb.B)
        elif expanded:
            arg = done.pop()
            done.append(bb.App(done.pop(), arg))
        else:
            stack += [(t, True), (t[1], False), (t[0], False)]
    return done[0]


def same_outputs(first, other) -> bool:
    return all(a is b if a is FAILED or b is FAILED else a == b
               for a, b in zip(first, other))


def check_decide(bb, ops, outputs, out: Outcome) -> None:
    """Check one round's outputs against the reference kernel, against the
    lambda oracle on small terms and by construction on rewritten pairs."""
    lo = bb.lambda_oracle
    for (kind, method, texts), res in zip(ops, outputs):
        if res is FAILED:
            continue
        decision, forms = res
        trees = [ref.parse(t) for t in texts]
        want = [ref.canonical(t) for t in trees]
        ok = decision == (want[0] == want[1])
        if forms is not None:
            ok = ok and [f.runs for f in forms] == want
        if kind == "rewritten":
            ok = ok and decision is True
        if ok and max(ref.leaves(t) for t in trees) <= ORACLE_MAX_LEAVES:
            terms = [to_bterm(bb, t) for t in trees]
            if forms is not None:
                ok = [bb.canonical_via_lambda(t).runs for t in terms] == want
            else:
                ok = lo.equivalent(*map(lo.bterm_to_lambda, terms)) == decision
        if not ok:
            out.problems.append(f"decide: wrong {kind} {method} answer on {texts[0][:60]!r}")


def percentile(values, q):
    """Nearest-rank percentile; infinite values are failed ops."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# --- the untraced run -----------------------------------------------------------

def run_workload(name, bb, inputs, seconds, out: Outcome):
    """Whole rounds of the workload's work until `seconds` have passed, then
    the checks; returns the end-to-end metrics other than setup_s. A round
    of a search workload is one search, so its latency is the search's."""
    walls, lats, results = [], [], []
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() < deadline:
        gc.collect()
        if name == "decide":
            wall, round_lats, res = run_decide_round(bb, inputs, out)
            lats += round_lats
            if results:
                # compare and drop, so memory does not grow with the rounds
                out.check(same_outputs(results[0], res),
                          "decide: a later round gave other outputs than the first")
                res = results[0]
        else:
            if name == "orbit-b4":
                res, wall, advances = run_orbit_b4(bb, inputs, out)
            elif name == "orbit-r4":
                res, wall = run_orbit_r4(bb, inputs, out)
            else:
                res, wall = run_lambda_b3(bb, inputs, out)
            lats.append(wall)
        walls.append(wall)
        results.append(res)
    rss = peak_rss_mb()
    if name == "decide":
        check_decide(bb, inputs, results[0], out)
        advances = len(inputs)
    elif name == "orbit-b4":
        certify_b4(results, out)
    else:
        if name == "orbit-r4":
            certify_r4(bb, results, out)
        else:
            check_l3(bb, results, out)
        advances = results[0][0] + results[0][1] - 1
    return {
        "wall_s": statistics.median(walls),
        "peak_rss_mb": rss,
        "advances": advances,
        "op_p50_us": percentile(lats, 0.50) * 1e6,
        "op_p99_us": percentile(lats, 0.99) * 1e6,
    }


# --- the traced run ---------------------------------------------------------------

def traced_orbit_b4(bb, tr: Tracer, out: Outcome, layer):
    """Phase advances through state_hook, then apply, compare and checkpoint
    probes on states captured from the search."""
    fa, cd = bb.fast_apply, bb.cycle_detect
    per_phase = {1: 0, 2: 0, 3: 0}
    done = [0, 0]  # advances of finished segments, of this segment so far
    captures = {}
    marks = list(B4_PROBE_AT)

    def on_start(st):
        done[0] += done[1]
        done[1] = st.advances
        per_phase[st.phase] += st.advances

    def hook(st):
        per_phase[st.phase] += st.advances - done[1]
        done[1] = st.advances
        if marks and done[0] + st.advances >= marks[0]:
            captures[marks.pop(0)] = st.fast

    with tr.span("cycle_detect.find_rho"):
        answer, wall, advances = run_orbit_b4(bb, B4_TERM, out, hook, on_start)
    out.check(sum(per_phase.values()) == advances,
              "orbit-b4 traced: phase advances do not add up")
    out.check(len(captures) == len(B4_PROBE_AT), "orbit-b4 traced: probe states missing")
    layer["cycle_detect.advances_phase1"] = per_phase[1]
    layer["cycle_detect.advances_phase2"] = per_phase[2] + per_phase[3]

    base = bb.canonicalize(bb.parse(B4_TERM)).runs
    rbase = fa.raise_runs(base)
    apply_s, runs, n = 0.0, [], 0
    slice0 = []
    for mark in B4_PROBE_AT:
        cur = captures[mark]
        with tr.span("fast_apply.apply_runs") as sp:
            for _ in range(B4_PROBE_SLICE):
                cur = fa.apply_runs(cur, rbase)
        apply_s += sp[2] - sp[1]
        n += B4_PROBE_SLICE
        cur = captures[mark]
        for _ in range(B4_PROBE_SLICE):
            cur = fa.apply_runs(cur, rbase)
            runs.append(len(cur))
            if mark == B4_PROBE_AT[0]:
                slice0.append(cur)
    layer["fast_apply.apply_us"] = apply_s / n * 1e6
    layer["fast_apply.runs_mean"] = statistics.fmean(runs)
    layer["fast_apply.runs_max"] = max(runs)
    layer["cycle_detect.loop_us"] = wall / advances * 1e6 - layer["fast_apply.apply_us"]

    anchor = captures[B4_PROBE_AT[0]]
    with tr.span("cycle_detect.compare") as sp:
        for state in slice0:
            anchor == state
    layer["cycle_detect.compare_us"] = (sp[2] - sp[1]) / len(slice0) * 1e6

    st = cd.SearchState(term_text=B4_TERM, algorithm="brent", phase=1, step=len(slice0),
                        m=None, candidate_c=None, slow=anchor, fast=slice0[-1],
                        base=base)
    path = str(OUT / "probe.ck")
    saves, loads = [], []
    for _ in range(CHECKPOINT_PROBE_REPEATS):
        with tr.span("cycle_detect.save_checkpoint") as sp:
            cd.save_checkpoint(st, path)
        saves.append(sp[2] - sp[1])
        with tr.span("cycle_detect.load_checkpoint") as sp:
            back = cd.load_checkpoint(path)
        loads.append(sp[2] - sp[1])
    out.check((back.slow, back.fast, back.step) == (st.slow, st.fast, st.step),
              "cycle_detect: checkpoint does not load back")
    layer["cycle_detect.checkpoint_bytes"] = os.path.getsize(path)
    os.remove(path)
    layer["cycle_detect.save_us"] = statistics.median(saves) * 1e6
    layer["cycle_detect.load_us"] = statistics.median(loads) * 1e6
    return answer, wall


def traced_orbit_r4(bb, tr: Tracer, out: Outcome, layer):
    """The restricted search driven through cycles.brent_rho."""
    with tr.span("orbit-r4") as sp:
        eng = bb.RestrictedEngine(R4_MAX_CONTRACTIONS)
        with tr.span("restricted.normalize"):
            base = eng.normalize(eng.intern(bb.monomial_rterm(R4_DEGREE)))
        spent = [0.0, 0]

        def advance(i):
            t0 = time.perf_counter()
            nf = eng.normalize(eng.app(i, base))
            spent[0] += time.perf_counter() - t0
            spent[1] += 1
            return nf

        with tr.span("cycles.brent_rho"):
            answer = bb.cycles.brent_rho(base, advance, R4_MAX_ADVANCES)
    out.attempted += 1
    layer["restricted.normalize_us"] = spent[0] / spent[1] * 1e6
    layer["restricted.contractions"] = eng.steps
    layer["cycles.brent_advances"] = spent[1]
    return tuple(answer), sp[2] - sp[1]


def lambda_nodes(lo, t) -> int:
    n = 0
    stack = [t]
    while stack:
        u = stack.pop()
        n += 1
        if isinstance(u, lo.App):
            stack += [u.fn, u.arg]
        elif isinstance(u, lo.Abs):
            stack.append(u.body)
    return n


def traced_lambda_b3(bb, term, tr: Tracer, out: Outcome, layer):
    """The lambda search driven through cycles.floyd_rho."""
    lo = bb.lambda_oracle
    with tr.span("lambda-b3") as sp:
        with tr.span("lambda_oracle.normalize"):
            base = lo.normalize(term)
        spent = [0.0, 0, 0]

        def advance(cur):
            t0 = time.perf_counter()
            nf = lo.normalize(lo.App(cur, base))
            spent[0] += time.perf_counter() - t0
            spent[1] += 1
            spent[2] += lambda_nodes(lo, nf)
            return nf

        with tr.span("cycles.floyd_rho"):
            answer = bb.cycles.floyd_rho(base, advance, max_steps=L3_MAX_ADVANCES)
    out.attempted += 1
    layer["lambda_oracle.normalize_us"] = spent[0] / spent[1] * 1e6
    layer["lambda_oracle.nf_nodes_mean"] = spent[2] / spent[1]
    layer["cycles.floyd_advances"] = spent[1]
    return tuple(answer), sp[2] - sp[1]


def traced_decide(bb, ops, tr: Tracer, out: Outcome, layer):
    """One decide round with a span around every call into bterm and
    canonical; per-call medians by the leaf-count class of the input."""
    classes = [[size_class(ref.leaves(ref.parse(t))) for t in texts] for _, _, texts in ops]
    samples = {(name, cls): [] for name in ("parse", "canonicalize")
               for cls in ("small", "medium", "large")}

    def op(i, method, texts):
        with tr.span("decide.op"):
            terms = []
            for text, cls in zip(texts, classes[i]):
                with tr.span("bterm.parse") as sp:
                    terms.append(bb.parse(text))
                samples["parse", cls].append(sp[2] - sp[1])
            if method == "equivalent":
                with tr.span("canonical.equivalent_bterms"):
                    return bb.equivalent_bterms(*terms), None
            forms = []
            for term, cls in zip(terms, classes[i]):
                with tr.span("canonical.canonicalize") as sp:
                    forms.append(bb.canonicalize(term))
                samples["canonicalize", cls].append(sp[2] - sp[1])
            return forms[0] == forms[1], tuple(forms)

    with tr.span("decide") as sp:
        _, _, outs = run_decide_round(bb, ops, out, op)
    for (name, cls), values in samples.items():
        module = "bterm" if name == "parse" else "canonical"
        layer[f"{module}.{name}_us.{cls}"] = statistics.median(values) * 1e6
    layer["canonical.equivalent_us"] = statistics.median(
        tr.durations("canonical.equivalent_bterms")) * 1e6
    return outs, sp[2] - sp[1]


def traced_run(name, bb, inputs, seed, seconds, out: Outcome):
    """The untraced workload once, for the overhead figure, then every layer
    traced: each search driven through its public calls and one decide
    round with a span around every call."""
    untraced = run_workload(name, bb, inputs, seconds, out)
    layer = {}
    tr = Tracer()
    lo = bb.lambda_oracle
    with tr.span("traced"):
        b4 = traced_orbit_b4(bb, tr, out, layer)
        gc.collect()
        r4 = traced_orbit_r4(bb, tr, out, layer)
        gc.collect()
        l3 = traced_lambda_b3(bb, lo.bterm_to_lambda(bb.parse(L3_TERM)), tr, out, layer)
        ops = inputs if name == "decide" else make_corpus(seed)
        gc.collect()
        outs, decide_wall = traced_decide(bb, ops, tr, out, layer)
    certify_b4([b4[0]], out)
    certify_r4(bb, [r4[0]], out)
    check_l3(bb, [l3[0]], out)
    check_decide(bb, ops, outs, out)
    traced_wall = {"orbit-b4": b4[1], "orbit-r4": r4[1], "lambda-b3": l3[1],
                   "decide": decide_wall}[name]
    layer["trace.overhead_s"] = traced_wall - untraced["wall_s"]
    tr.write(OUT / f"trace-{name}-seed{seed}.json", workload=name, seed=seed)
    return layer


END_TO_END = {
    "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "advances": "count",
    "op_p50_us": "us", "op_p99_us": "us",
}
PER_LAYER = {
    "fast_apply.apply_us": "us", "fast_apply.runs_mean": "runs",
    "fast_apply.runs_max": "runs",
    "cycle_detect.advances_phase1": "count", "cycle_detect.advances_phase2": "count",
    "cycle_detect.compare_us": "us", "cycle_detect.loop_us": "us",
    "cycle_detect.save_us": "us", "cycle_detect.load_us": "us",
    "cycle_detect.checkpoint_bytes": "bytes",
    "bterm.parse_us.small": "us", "bterm.parse_us.medium": "us",
    "bterm.parse_us.large": "us",
    "canonical.canonicalize_us.small": "us", "canonical.canonicalize_us.medium": "us",
    "canonical.canonicalize_us.large": "us", "canonical.equivalent_us": "us",
    "lambda_oracle.normalize_us": "us", "lambda_oracle.nf_nodes_mean": "nodes",
    "cycles.floyd_advances": "count",
    "restricted.normalize_us": "us", "restricted.contractions": "count",
    "cycles.brent_advances": "count",
    "trace.overhead_s": "s",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="whole rounds are repeated until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "bluebird" / "__init__.py").is_file():
        print(f"bench: no bluebird sources under {SRC}", file=sys.stderr)
        return 2
    limit = sys.getrecursionlimit()
    OUT.mkdir(exist_ok=True)
    bb, inputs, setup_s = set_up(args.workload, args.seed)
    out = Outcome()
    if args.trace:
        metrics = traced_run(args.workload, bb, inputs, args.seed, args.seconds, out)
        units = PER_LAYER
    else:
        metrics = run_workload(args.workload, bb, inputs, args.seconds, out)
        metrics["setup_s"] = setup_s
        units = END_TO_END
    out.check(sys.getrecursionlimit() == limit, "the recursion limit was changed")
    out.check(set(metrics) == set(units), "the metrics are not the declared ones")
    for problem in out.problems:
        print(f"bench: check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not out.problems,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()
                    if k in metrics},
    }
    line = json.dumps(result)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(line + "\n")
    print(line)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
