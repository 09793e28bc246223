"""Alternating A/B runs of the benchmark, summarized into one JSON file.

    python3 tools/bench_pairs.py --base ../parent --pairs 10 \
        --workload orbit-b4 --workload decide --out BENCH.json --readme README.md
    python3 tools/bench_pairs.py --out BENCH.json --readme README.md

Each pair runs `bench/run.py --trace 0` once in the base checkout and once
in this one, with the same seed; the side that goes first alternates from
pair to pair, so a drift in machine speed falls on both sides alike. Every
run writes its bytecode under a fresh, empty PYTHONPYCACHEPREFIX, so
neither side reads a leftover __pycache__ and both compile alike. Each
side keeps one XDG_CACHE_HOME for the session, where one untimed search
of each engine builds that side's compiled libraries (the canonical and
restricted walks, and the lambda engine's normalizer) before the first
pair: no timed run builds a library, or removes the other side's. Every other
variable is inherited. The output holds how the children are started,
and per workload and end-to-end metric the value of every pair, each
side's median and quartiles, and how many pairs this checkout won (a
lower value wins); a rerun replaces only the workloads it runs. After
the workloads, each side runs the Tier-1 suite twice in its own
environment, in the order base, this checkout, this checkout, base, so
that a drift in machine speed falls on both sides alike, and the output
holds each run's wall time, summary line and ten slowest tests. With
--readme, the README cells that quote the benchmark are rewritten from
this checkout's quartiles, after checking that --out holds every
workload they quote: the time of the
`B^4 B` row of the timing table (orbit-b4 wall_s), the time and memory
of the degree-4 row of the restricted table (orbit-r4 wall_s and
peak_rss_mb), the time of the lambda engine's `B^3 B` row (lambda-b3
wall_s) and the time of a decide round (decide wall_s).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# the untimed build: a small search on each engine, each with its own library
WARM_UP = ("import sys; sys.path.insert(0, 'src'); "
           "from bluebird import find_rho, find_rho_restricted, monomial_rterm, parse; "
           "from bluebird.lambda_oracle import bterm_to_lambda, rho_lambda; "
           "find_rho('B^2 B'); find_rho_restricted(monomial_rterm(2)); "
           "rho_lambda(bterm_to_lambda(parse('B B')))")
LAUNCH = {
    "python": sys.executable,
    "cwd": "the checkout",
    "overrides": {
        "XDG_CACHE_HOME": "one empty directory per side for the session, where an untimed "
                          "search of each engine builds the compiled libraries before the first pair",
        "PYTHONPYCACHEPREFIX": "a fresh empty directory per run",
    },
    "inherited": "every other variable of the tool's environment",
}
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "--durations=10", "-p", "no:cacheprovider"]


def child_env(cache: str, pycache: str) -> dict:
    return dict(os.environ, XDG_CACHE_HOME=cache, PYTHONPYCACHEPREFIX=pycache)


def warm_up(checkout: Path, cache: str) -> None:
    with tempfile.TemporaryDirectory() as pycache:
        proc = subprocess.run([sys.executable, "-c", WARM_UP], cwd=checkout,
                              env=child_env(cache, pycache), capture_output=True, text=True,
                              check=False)
    if proc.returncode:
        raise SystemExit(f"{checkout}: the untimed build failed:\n{proc.stderr}")


def run_once(checkout: Path, cache: str, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    with tempfile.TemporaryDirectory() as pycache:
        proc = subprocess.run(cmd, cwd=checkout, env=child_env(cache, pycache),
                              capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{checkout}: {workload} seed {seed} printed no result:\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{checkout}: {workload} seed {seed} is not correct:\n{proc.stderr}")
    return result


def tier1(checkout: Path, cache: str) -> dict:
    """One run of the Tier-1 suite: its wall time, summary line and ten
    slowest tests as (seconds, test id)."""
    with tempfile.TemporaryDirectory() as pycache:
        env = dict(child_env(cache, pycache), PYTHONPATH=os.pathsep.join(
            ["src"] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        t0 = time.perf_counter()
        # with SIGINT at its default, whether or not this tool runs in the
        # background: the suite sends it to a child and waits for it to stop
        proc = subprocess.run(TIER1, cwd=checkout, env=env, capture_output=True, text=True,
                              check=False,
                              preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL))
        wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    slowest = [(float(line.split("s ", 1)[0]), line.split(None, 2)[2]) for line in lines
               if re.match(r"\d+\.\d+s (call|setup|teardown) ", line)]
    return {"wall_s": round(wall, 2), "summary": lines[-1].strip("= ") if lines else "",
            "returncode": proc.returncode, "slowest": slowest}


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(runs: list[tuple[dict, dict]]) -> dict:
    out = {}
    for name in runs[0][0]["metrics"]:
        base = [b["metrics"][name]["value"] for b, _ in runs]
        new = [n["metrics"][name]["value"] for _, n in runs]
        out[name] = {
            "unit": runs[0][0]["metrics"][name]["unit"],
            "base": base, "new": new,
            "base_quartiles": quartiles(base), "new_quartiles": quartiles(new),
            "new_wins": sum(n < b for b, n in zip(base, new)),
        }
    out["failed"] = {"base": [b["failed"] for b, _ in runs],
                     "new": [n["failed"] for _, n in runs]}
    return out


# the README cells quoted from the benchmark: row prefix, cell index (the
# text before the first | is cell 0), workload, metric
README_CELLS = (("| `B^4 B`", 3, "orbit-b4", "wall_s"),
                ("| `B^3 B` (4)", 4, "orbit-r4", "wall_s"),
                ("| `B^3 B` (4)", 5, "orbit-r4", "peak_rss_mb"),
                ('| `rho --engine lambda "B^3 B"`', 3, "lambda-b3", "wall_s"),
                ("| `decide`", 3, "decide", "wall_s"))


def readme_cells(readme: Path, workloads: dict, out: Path) -> None:
    for *_, workload, _ in README_CELLS:
        if workload not in workloads:
            raise SystemExit(f"{out}: no {workload} workload, which {readme} quotes")
    lines = readme.read_text().split("\n")
    for prefix, at, workload, metric in README_CELLS:
        m = workloads[workload]["metrics"][metric]
        q = m["new_quartiles"]
        ends = dict.fromkeys(f"{q[k]:.3g}" for k in ("q1", "q3"))  # one end when they agree
        cell = "–".join(ends)
        rows = [k for k, line in enumerate(lines) if line.startswith(prefix)]
        if not rows:
            raise SystemExit(f"{readme}: no row starting {prefix!r}")
        cells = lines[rows[0]].split("|")
        cells[at] = " " + f"{cell} {m['unit']}".ljust(len(cells[at]) - 2) + " "
        lines[rows[0]] = "|".join(cells)
    readme.write_text("\n".join(lines))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, help="checkout to compare against")
    parser.add_argument("--workload", action="append", default=[],
                        help="repeatable; with none, only --readme is rewritten from --out")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--readme", type=Path)
    args = parser.parse_args()
    if args.workload and args.base is None:
        parser.error("--workload needs --base")
    report = {"machine": f"{platform.machine()}, {len(os.sched_getaffinity(0))} cores",
              "python": platform.python_version(), "launch": LAUNCH, "workloads": {}}
    if args.out.exists():
        report["workloads"] = json.loads(args.out.read_text())["workloads"]
    with tempfile.TemporaryDirectory() as base_cache, tempfile.TemporaryDirectory() as cache:
        caches = {args.base: base_cache, ROOT: cache}
        if args.workload:
            for side, side_cache in caches.items():
                warm_up(side, side_cache)
        for workload in args.workload:
            runs = []
            for i in range(args.pairs):
                sides = [args.base, ROOT] if i % 2 == 0 else [ROOT, args.base]
                got = {side: run_once(side, caches[side], workload, i + 1, args.seconds)
                       for side in sides}
                runs.append((got[args.base], got[ROOT]))
                print(workload, i + 1, {k: round(v["metrics"]["wall_s"]["value"], 3)
                                        for k, v in zip(("base", "new"), runs[-1])},
                      flush=True)
            report["workloads"][workload] = {"pairs": args.pairs, "seconds": args.seconds,
                                             "metrics": summarize(runs)}
            args.out.write_text(json.dumps(report, indent=1) + "\n")
        if args.workload:
            runs = {side: [] for side in caches}
            for side in (args.base, ROOT, ROOT, args.base):
                runs[side].append(tier1(side, caches[side]))
            report["tier1"] = {"command": "PYTHONPATH=src " + " ".join(["python"] + TIER1[1:]),
                               "order": "base, new, new, base",
                               "base": runs[args.base], "new": runs[ROOT]}
            args.out.write_text(json.dumps(report, indent=1) + "\n")
    if args.readme:
        readme_cells(args.readme, report["workloads"], args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
