"""Alternating A/B runs of the benchmark, summarized into one JSON file.

    python3 tools/bench_pairs.py --base ../parent --pairs 10 \
        --workload orbit-b4 --workload decide --out BENCH.json --readme README.md
    python3 tools/bench_pairs.py --out BENCH.json --readme README.md

Each pair runs `bench/run.py --trace 0` once in the base checkout and once
in this one, with the same seed; the side that goes first alternates from
pair to pair, so a drift in machine speed falls on both sides alike. Every
run writes its bytecode under a fresh, empty PYTHONPYCACHEPREFIX, so
neither side reads a leftover __pycache__ and both compile alike. The
output holds, per workload and end-to-end metric, the value of every pair,
each side's median and quartiles, and how many pairs this checkout won
(a lower value wins); a rerun replaces only the workloads it runs. With
--readme, the time cell of the `B^4 B` row of the README timing table is
rewritten from this checkout's orbit-b4 wall_s quartiles.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    with tempfile.TemporaryDirectory() as pycache:
        env = dict(os.environ, PYTHONPYCACHEPREFIX=pycache)
        proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True,
                              check=False)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{checkout}: {workload} seed {seed} printed no result:\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{checkout}: {workload} seed {seed} is not correct:\n{proc.stderr}")
    return result


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


def readme_row(readme: Path, wall: dict) -> None:
    q = wall["new_quartiles"]
    cell = "–".join(f"{q[k]:.3g}" if q[k] < 1 else f"{q[k]:.1f}" for k in ("q1", "q3")) + " s"
    lines = readme.read_text().split("\n")
    for k, line in enumerate(lines):
        if line.startswith("| `B^4 B`"):
            cells = line.split("|")  # ['', base, first repeat, time, '']
            cells[3] = " " + cell.ljust(len(cells[3]) - 2) + " "
            lines[k] = "|".join(cells)
            readme.write_text("\n".join(lines))
            return
    raise SystemExit(f"{readme}: no `B^4 B` row in the timing table")


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
              "python": platform.python_version(), "workloads": {}}
    if args.out.exists():
        report["workloads"] = json.loads(args.out.read_text())["workloads"]
    for workload in args.workload:
        runs = []
        for i in range(args.pairs):
            sides = [args.base, ROOT] if i % 2 == 0 else [ROOT, args.base]
            got = {side: run_once(side, workload, i + 1, args.seconds) for side in sides}
            runs.append((got[args.base], got[ROOT]))
            print(workload, i + 1, {k: round(v["metrics"]["wall_s"]["value"], 3)
                                    for k, v in zip(("base", "new"), runs[-1])}, flush=True)
        report["workloads"][workload] = {"pairs": args.pairs, "seconds": args.seconds,
                                         "metrics": summarize(runs)}
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    if args.readme:
        readme_row(args.readme, report["workloads"]["orbit-b4"]["metrics"]["wall_s"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
