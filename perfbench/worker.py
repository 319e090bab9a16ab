"""Child process of the benchmark: set-up or measurement for one run.

    python3 perfbench/worker.py --run-dir D --phase setup
    python3 perfbench/worker.py --run-dir D --phase measure --seconds S --trace 0|1

It imports flowstable from the checkout's src/ and drives it through
flowstable.cli.cli_main, one command at a time, in one thread: a closed
loop in which the next command starts when the previous one returns.
A command that returns non-zero or raises is counted as failed, its
stderr is kept, and the loop goes on. Untraced timings are taken with
a reference block before and after each timed step (hostspeed.py), so
the parent can correct them for the host's speed. The result goes to
<phase>.json in the run directory; outputs of pass k stay in pass_k/
for the parent's correctness gates.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from flowstable import cli, experiments, simnet  # noqa: E402
from flowstable.core import AppProtocol  # noqa: E402

import hostspeed  # noqa: E402
import spans  # noqa: E402
from gates import sha256_file  # noqa: E402

#: Set-up repeats at least SETUP_MIN_REPS times and for at least
#: SETUP_MIN_S seconds, in batches of back-to-back repetitions that last
#: at least SETUP_BATCH_S, with a reference block before the first batch
#: and after each one; the parent reports the median over batches of
#: the corrected time per repetition. Parsing and planning take a few
#: milliseconds, so the time floor spreads their sample over the host's
#: speed changes; report's set-up writes a log, so each of its three
#: repetitions is a batch of its own and they pass the floor.
SETUP_MIN_REPS = 3
SETUP_MIN_S = 2.5
SETUP_BATCH_S = 0.1


class Reference:
    """The last reference block's time, and a new one on request."""

    def __init__(self) -> None:
        self.last = hostspeed.reference_block()

    def around(self):
        """(reference before the step just timed, reference after it)."""
        before, self.last = self.last, hostspeed.reference_block()
        return before, self.last


class Runner:
    """Runs cli_main commands and keeps their outcome."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.main = cli.cli_main

    def run(self, argv, stdout_path: Path = None) -> float:
        """Run one command; return its wall time in seconds."""
        out, err = io.StringIO(), io.StringIO()
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.main(list(argv))
        except Exception:  # a crashing command is a failed command; go on
            code = None
            err.write(traceback.format_exc())
        wall = time.perf_counter() - t0
        if code != 0:
            self.failed += 1
            self.errors.append(f"{' '.join(argv)} -> {code}\n{err.getvalue()}")
            sys.stderr.write(self.errors[-1])
        if stdout_path is not None:
            stdout_path.write_text(out.getvalue())
        return wall


def _rq2_argv(spec, run_dir: Path, dests: str, protocols: str, out: Path,
              trace_affected: bool):
    argv = ["rq2", "--topology", str(run_dir / spec["topology"]),
            "--dests", str(run_dir / dests),
            "--seed", str(spec["program_seed"]), "--out", str(out),
            "--registry", str(run_dir / spec["registry"]),
            "--protocols", protocols,
            "--control-domain", spec["control_domain"],
            "--sensitive-domain", spec["sensitive_domain"]]
    return argv + ["--trace-affected"] if trace_affected else argv


def _dest_addresses(topology, dests_path: Path):
    return [topology.nodes[int(line)].address
            for line in dests_path.read_text().split()]


def setup(spec, run_dir: Path, runner: Runner) -> dict:
    """Parse the topology, plan the sweep and, for report, write the
    finished rq2 --trace-affected log with the program itself."""
    workload = spec["workload"]
    seed = spec["program_seed"]
    times, log_hashes, batches = [], [], []
    reference = Reference()
    batch_start = 0
    t_start = time.perf_counter()
    while len(times) < SETUP_MIN_REPS or time.perf_counter() - t_start < SETUP_MIN_S:
        rep = len(times)
        t0 = time.perf_counter()
        topology = simnet.load_topology((run_dir / spec["topology"]).read_text())
        if workload == "paths":
            for dest, protocol in spec["pairs"]:
                experiments.plan_rq1(topology.nodes[int(dest)].address,
                                     AppProtocol(protocol), seed)
        else:
            experiments.plan_rq2(_dest_addresses(topology, run_dir / spec["dests"]), seed,
                                 domain_pair=(spec["control_domain"], spec["sensitive_domain"]))
        if workload == "report":
            rep_dir = run_dir / f"setup_{rep}"
            rep_dir.mkdir()
            runner.run(_rq2_argv(spec, run_dir, spec["dests"], spec["protocols"],
                                 rep_dir / "report.log", True))
        times.append(time.perf_counter() - t0)
        if workload == "report":
            log_hashes.append(sha256_file(rep_dir / "report.log"))
        if sum(times[batch_start:]) >= SETUP_BATCH_S:
            batches.append([sum(times[batch_start:]), len(times) - batch_start,
                            *reference.around()])
            batch_start = len(times)
    if batch_start < len(times):
        batches.append([sum(times[batch_start:]), len(times) - batch_start,
                        *reference.around()])
    out = {"setup_s": times, "batches": batches}
    if workload == "report":
        # The last repetition's log is the input of the timed part.
        for rep in range(len(times) - 1):
            shutil.rmtree(run_dir / f"setup_{rep}")
        rep_dir.rename(run_dir / "input")
        out["input_log_sha256"] = log_hashes
        out["input_csv_sha256"] = {
            name: sha256_file(run_dir / "input" / name)
            for name in ("report_table.csv", "report_cdf.csv")}
    return out


def _report_targets(spec, run_dir: Path):
    """(destination, protocol) pairs the finished sweep marked affected."""
    rows = (run_dir / "input" / "report_table.csv").read_text().splitlines()[1:]
    return [(r.split(",")[0], r.split(",")[2]) for r in rows if r.split(",")[3] == "true"]


def run_pass(spec, run_dir: Path, pass_dir: Path, runner: Runner, targets,
             reference: Reference = None) -> dict:
    """One pass of the workload's timed commands: the wall time of each,
    keyed by a label that names the same command in every pass, and,
    given a Reference, the reference times before and after each."""
    workload = spec["workload"]
    pass_dir.mkdir()
    walls, refs = {}, {}

    def timed(label, argv, stdout_path=None):
        walls[label] = runner.run(argv, stdout_path)
        if reference is not None:
            refs[label] = reference.around()

    if workload == "sweep":
        for dests in spec["dest_files"]:
            for protocol in spec["protocols"].split(","):
                log = pass_dir / f"sweep_{Path(dests).stem}_{protocol}.log"
                timed(f"rq2 {dests} {protocol}",
                      _rq2_argv(spec, run_dir, dests, protocol, log, False))
    elif workload == "paths":
        for i, (dest, protocol) in enumerate(spec["pairs"]):
            timed(f"rq1 {i}", [
                "rq1", "--topology", str(run_dir / spec["topology"]), "--dest", dest,
                "--seed", str(spec["program_seed"]), "--protocol", protocol,
                "--out", str(pass_dir / f"rq1_{i}.log")])
    else:
        log = run_dir / "input" / "report.log"
        topo = str(run_dir / spec["topology"])
        timed("resume", _rq2_argv(spec, run_dir, spec["dests"], spec["protocols"], log, True))
        timed("bits", ["bits", "--log", str(log), "--group-by", "src_ip_low3"],
              pass_dir / "bits.csv")
        for dest, protocol in targets:
            timed(f"graph {dest} {protocol}", [
                "graph", "--log", str(log), "--dest", dest, "--protocol", protocol,
                "--topology", topo, "--out", str(pass_dir / f"graph_{dest}_{protocol}")])
        for protocol in spec["protocols"].split(","):
            timed(f"classify {protocol}",
                  ["classify", "--log", str(log), "--topology", topo, "--protocol", protocol],
                  pass_dir / f"classify_{protocol}.csv")
        for name in ("report_table.csv", "report_cdf.csv"):
            shutil.copy2(run_dir / "input" / name, pass_dir / name)
    return {"walls": walls, "refs": refs, "wall": sum(walls.values())}


def measure(spec, run_dir: Path, runner: Runner, seconds: float, traced: bool) -> dict:
    """Closed loop of passes for about `seconds` (at least one pass): a
    pass starts while it is expected to end no more than half a pass
    after `seconds`. A traced run then makes one more pass with every
    layer wrapped, with reference blocks around the whole pass only."""
    targets = _report_targets(spec, run_dir) if spec["workload"] == "report" else []
    passes = []
    reference = Reference()
    t_start = time.perf_counter()
    last_span = 0.0
    while not passes or time.perf_counter() - t_start + last_span / 2 < seconds:
        t0 = time.perf_counter()
        passes.append(run_pass(spec, run_dir, run_dir / f"pass_{len(passes)}", runner,
                               targets, reference))
        last_span = time.perf_counter() - t0
    out = {"passes": passes}
    if traced:
        rec = spans.SpanRecorder()
        spans.install_layers(rec)
        runner.main = _traced_cli_main(rec)
        try:
            out["traced_pass"] = run_pass(spec, run_dir, run_dir / "traced", runner, targets)
        finally:
            runner.main = cli.cli_main
            rec.unpatch()
        out["traced_pass"]["refs"] = reference.around()
        rec.dump(run_dir / "traced")
    return out


def _traced_cli_main(rec: spans.SpanRecorder):
    per_sub = {sub: rec.spanned(f"cli.cli_main.{sub}", cli.cli_main)
               for sub in spans.CLI_SUBCOMMANDS}
    return lambda argv: per_sub[argv[0]](argv)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--run-dir", required=True, type=Path)
    parser.add_argument("--phase", required=True, choices=["setup", "measure"])
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if Path(cli.__file__).resolve().parent.parent != SRC.resolve():
        print(f"flowstable imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((args.run_dir / "spec.json").read_text())
    runner = Runner()
    if args.phase == "setup":
        result = setup(spec, args.run_dir, runner)
    else:
        result = measure(spec, args.run_dir, runner, args.seconds, bool(args.trace))
    result.update(
        attempted=runner.attempted, failed=runner.failed, errors=runner.errors,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        python=platform.python_version())
    (args.run_dir / f"{args.phase}.json").write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
