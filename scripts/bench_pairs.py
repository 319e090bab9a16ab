#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts, summarised as a BENCH file.

    python3 scripts/bench_pairs.py --parent DIR --change DIR \
        --seeds 1001-1010 --trace-seed 51 --out BENCH_<n>.json

Both checkouts must be git clones with no uncommitted change to tracked
files; the output names each side by its commit. For every workload and
seed it runs perfbench/run.py, for BENCHMARK.json's run_seconds, once in
each checkout, one after the other, alternating which side goes first from
one seed to the next, so drift in the host's speed falls on both sides
alike. Each run is a fresh process that imports its own checkout's
src/. Then, with --trace-seed, it makes one traced run (--trace 1) per
workload and side on that seed.

The output JSON holds, per workload and end-to-end metric, each side's
runs, median and quartiles, how many pairs the change wins (ties count
for neither), the ratio of the medians and the metric's bound from
BENCHMARK.json; per workload, whether every run passed its gates and
whether both sides printed the same output digest for every seed; and
the per-layer metrics of the traced runs. Every run's stdout and stderr
go to --logs, so each number can be traced back to its run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sweep", "paths", "report")
SIDES = ("parent", "change")


def parse_seeds(text: str):
    """'1001-1010' or '1,5,9' -> list of ints; a range whose end comes
    before its start is empty."""
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def commit_of(checkout: Path) -> str:
    """The commit a checkout holds; refuses one with uncommitted edits,
    whose numbers no commit could reproduce."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True,
                              check=True).stdout.strip()
    if git("status", "--porcelain", "--untracked-files=no"):
        raise SystemExit(f"{checkout} has uncommitted changes")
    return git("rev-parse", "HEAD")


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int,
             log: Path) -> dict:
    """One perfbench run: its result JSON plus the output digest it printed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    log.write_text(f"$ {' '.join(cmd)}  (in {checkout})\n{proc.stdout}\n--- stderr\n"
                   f"{proc.stderr}")
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}; "
                           f"see {log}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("digest: "):
            result["digest"] = line.split(": ", 1)[1]
    return result


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def summarise(pairs, end_to_end):
    """Per metric: both sides' quartiles, the change's pair wins and the
    ratio of the medians (change over parent)."""
    out = {}
    for metric in end_to_end:
        name, higher = metric["name"], metric["better"] == "higher"
        sides = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
        wins = sum((c > p) if higher else (c < p)
                   for p, c in zip(sides["parent"], sides["change"]))
        losses = sum((c < p) if higher else (c > p)
                     for p, c in zip(sides["parent"], sides["change"]))
        medians = {side: statistics.median(v) for side, v in sides.items()}
        out[name] = {
            "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
            **{side: quartiles(sides[side]) for side in SIDES},
            "change_wins": wins, "change_losses": losses, "pairs": len(pairs),
            "median_ratio": (medians["change"] / medians["parent"]
                             if medians["parent"] else None),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, type=Path, help="parent checkout")
    parser.add_argument("--change", required=True, type=Path, help="changed checkout")
    parser.add_argument("--seeds", required=True, help="e.g. 1001-1010 or 3,5,7")
    parser.add_argument("--trace-seed", type=int, help="seed of the traced runs")
    parser.add_argument("--logs", type=Path, default=Path("bench_logs"))
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)

    seeds = parse_seeds(args.seeds)
    if len(seeds) < 2:
        # quartiles() needs two runs per side; refuse before any run.
        parser.error(f"--seeds {args.seeds} gives {len(seeds)} seed(s); at least two "
                     f"seeds are needed")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    args.logs.mkdir(parents=True, exist_ok=True)

    report = {
        "host": {"python": platform.python_version(), "cpu_count": os.cpu_count(),
                 "machine": platform.machine()},
        "sides": {side: commit_of(checkouts[side]) for side in SIDES},
        "seconds": seconds, "seeds": seeds, "trace_seed": args.trace_seed, "workloads": {},
    }
    started = time.monotonic()
    for workload in WORKLOADS:
        pairs = []
        for i, seed in enumerate(seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {}
            for side in order:
                log = args.logs / f"{workload}-{seed}-{side}.txt"
                pair[side] = run_once(checkouts[side], workload, seed, seconds, 0, log)
            pairs.append(pair)
            print(f"[{time.monotonic() - started:7.0f}s] {workload} seed {seed}: "
                  + " ".join(f"{side} {pair[side]['metrics']['items_per_s']['value']:.0f}/s"
                             for side in SIDES), file=sys.stderr)
        entry = {
            "first_side_by_pair": [SIDES[i % 2] for i in range(len(seeds))],
            "all_gates_ok": all(p[s]["correct"] for p in pairs for s in SIDES),
            "failed": {s: sum(p[s]["failed"] for p in pairs) for s in SIDES},
            "digests_match": all(p["parent"]["digest"] == p["change"]["digest"]
                                 for p in pairs),
            "metrics": summarise(pairs, bench["end_to_end"]),
        }
        if args.trace_seed is not None:
            traced = {}
            for side in SIDES:
                log = args.logs / f"{workload}-{args.trace_seed}-{side}-traced.txt"
                result = run_once(checkouts[side], workload, args.trace_seed, seconds, 1, log)
                traced[side] = {name: m["value"] for name, m in result["metrics"].items()}
                traced[f"{side}_digest"] = result["digest"]
            entry["traced"] = {"seed": args.trace_seed, **traced}
        report["workloads"][workload] = entry
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
