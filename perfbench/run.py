#!/usr/bin/env python3
"""flowstable benchmark: one run of one workload.

    python3 perfbench/run.py --workload sweep|paths|report --seed N \
        --seconds S --trace 0|1

Run it from anywhere inside a checkout; it uses the checkout's src/.
The run generates its inputs from --seed, sets up in one fresh worker
process and measures in another, checks the outputs, and prints as its
last stdout line one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics of one traced pass with --trace 1. Lines before it
name the run (Python version, CPU count, seed, order of commands), the
output digest and the gate results. Without src/flowstable it exits 2
and prints no result. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".runs"
#: Wall-clock budget of one run, below the 180 s every run must meet.
RUN_BUDGET_S = 170.0


def _child(run_dir: Path, deadline: float, *args: str):
    """Run worker.py to completion; its result dict, or None on failure."""
    phase = args[1]
    cmd = [sys.executable, str(HERE / "worker.py"), "--run-dir", str(run_dir), *args]
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print(f"perfbench: {phase} worker exceeded the run budget", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"perfbench: {phase} worker exited {proc.returncode}", file=sys.stderr)
        return None
    return json.loads((run_dir / f"{phase}.json").read_text())


def _items(spec, run_dir: Path) -> int:
    """Work items per pass: rq2 cells (sweep, report) or rq1 traces (paths)."""
    from flowstable import experiments

    if spec["workload"] == "paths":
        return len(spec["pairs"]) * experiments.RQ1_SAMPLES * len(experiments.Rq1Variation)
    n_dests = len((run_dir / spec["dests"]).read_text().split())
    return (n_dests * len(spec["protocols"].split(","))
            * experiments.RQ2_IP_COUNT * experiments.RQ2_PORT_COUNT)


def _log_bytes(spec, run_dir: Path) -> int:
    workload = spec["workload"]
    if workload == "report":
        return (run_dir / "input" / "report.log").stat().st_size
    return sum(p.stat().st_size for p in (run_dir / "pass_0").glob("*.log"))


def command_times(passes) -> dict:
    """Each timed command's median over the run's passes of its wall time
    corrected for the host's speed (hostspeed.corrected)."""
    return {label: statistics.median(hostspeed.corrected(p["walls"][label], *p["refs"][label])
                                     for p in passes)
            for label in passes[0]["walls"]}


def end_to_end(spec, run_dir: Path, setup: dict, measure: dict, attempted: int, failed: int):
    workload = spec["workload"]
    times = command_times(measure["passes"])
    items = _items(spec, run_dir)
    pass_s = sum(times.values())
    metrics = {
        "setup_s": (statistics.median(hostspeed.corrected(wall / reps, before, after)
                                      for wall, reps, before, after in setup["batches"]), "s"),
        "items_per_s": (items / pass_s, "1/s"),
        "peak_rss_mb": (measure["peak_rss_mb"], "MB"),
        "log_bytes_per_item": (_log_bytes(spec, run_dir) / items, "B/item"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    # The same figures under the names the workloads are discussed with.
    named = {"setup_s": metrics["setup_s"], "peak_rss_mb": metrics["peak_rss_mb"],
             "failed_ratio": (failed / attempted, "ratio")}
    if workload == "sweep":
        named["rq2_cells_per_s"] = metrics["items_per_s"]
        named["log_bytes_per_cell"] = metrics["log_bytes_per_item"]
    elif workload == "paths":
        named["rq1_traces_per_s"] = metrics["items_per_s"]
        named["log_bytes_per_trace"] = metrics["log_bytes_per_item"]
    else:
        named["resume_s"] = (times["resume"], "s")
        named["report_s"] = (pass_s - times["resume"], "s")
    return metrics, named


def per_layer(run_dir: Path, measure: dict):
    import spans

    metrics, by_self_time = spans.layer_metrics(run_dir / "traced")
    untraced = sum(command_times(measure["passes"]).values())
    traced = measure["traced_pass"]
    overhead = hostspeed.corrected(traced["wall"], *traced["refs"]) - untraced
    metrics["tracing.overhead_s"] = (overhead, "s")
    metrics["tracing.overhead_share"] = (overhead / untraced, "ratio")
    return metrics, by_self_time


def _order(spec, setup: dict, measure: dict, traced: bool) -> str:
    commands = {"sweep": "rq2 per destination and protocol",
                "paths": f"rq1 x{len(spec.get('pairs', []))}",
                "report": "rq2 (resume), bits, graph per affected pair, classify per protocol"}
    text = (f"setup x{len(setup['setup_s'])} in {len(setup['batches'])} batches, then {len(measure['passes'])} passes of "
            f"[{commands[spec['workload']]}]")
    return text + ", then 1 traced pass" if traced else text


def main(argv=None) -> int:
    import gen

    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    parser.add_argument("--size", default="full", choices=gen.SIZES,
                        help="tiny shrinks every workload for smoke tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "flowstable" / "__init__.py").is_file():
        print(f"perfbench: no src/flowstable under {ROOT}; nothing to measure",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import gates

    deadline = time.monotonic() + RUN_BUDGET_S
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    try:
        spec = gen.make_inputs(args.workload, args.seed, run_dir, args.size)
        setup = _child(run_dir, deadline, "--phase", "setup")
        measure = setup and _child(run_dir, deadline, "--phase", "measure",
                                   "--seconds", str(args.seconds), "--trace", str(args.trace))
        if measure is None:
            return 1

        pass_dirs = [run_dir / f"pass_{i}" for i in range(len(measure["passes"]))]
        if args.trace:
            pass_dirs.append(run_dir / "traced")
        gate, digest = gates.check(spec, run_dir, pass_dirs, setup)
        attempted = setup["attempted"] + measure["attempted"]
        failed = setup["failed"] + measure["failed"]

        print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
              f"size={args.size} python={platform.python_version()} "
              f"cpu_count={os.cpu_count()} seconds={args.seconds}")
        print(f"order: {_order(spec, setup, measure, bool(args.trace))}")
        print(f"digest: {digest}")
        print("gates: " + " ".join(f"{k}={v}" for k, v in gate.items()))
        if args.trace:
            metrics, by_self_time = per_layer(run_dir, measure)
            print("self time: " + ", ".join(f"{n} {s:.3f}s" for n, s in by_self_time[:6]))
        else:
            metrics, named = end_to_end(spec, run_dir, setup, measure, attempted, failed)
            for name, (value, unit) in named.items():
                print(f"{name} = {value:.6g} {unit}")
            print("pass wall s: " + " ".join(f"{p['wall']:.3f}" for p in measure["passes"]))
            refs = [r for p in measure["passes"] for pair in p["refs"].values() for r in pair]
            print(f"reference block s: median {statistics.median(refs):.4f} "
                  f"min {min(refs):.4f} max {max(refs):.4f} (nominal {hostspeed.REFERENCE_S})")
        print(json.dumps({
            "correct": gate["ok"], "attempted": attempted, "failed": failed,
            "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
