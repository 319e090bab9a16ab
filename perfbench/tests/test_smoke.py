"""Each workload at tiny size, untraced and traced, through run.py."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gen

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_is_correct_and_reports_every_metric(workload, trace):
    proc = run("--workload", workload, "--seed", "3", "--seconds", "0.2",
               "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        n: m["unit"] for n, m in result["metrics"].items()}
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "digest: " in proc.stdout


def test_same_seed_same_digest():
    digests = set()
    for _ in range(2):
        proc = run("--workload", "paths", "--seed", "5", "--seconds", "0.2",
                   "--trace", "0", "--size", "tiny")
        digests |= {l for l in proc.stdout.splitlines() if l.startswith("digest: ")}
    assert len(digests) == 1


def test_inputs_follow_the_seed(tmp_path):
    for workload in gen.WORKLOADS:
        a = gen.make_inputs(workload, 1, tmp_path / f"{workload}-a")
        b = gen.make_inputs(workload, 1, tmp_path / f"{workload}-b")
        c = gen.make_inputs(workload, 2, tmp_path / f"{workload}-c")
        topo = [(tmp_path / f"{workload}-{k}" / "topology.json").read_bytes() for k in "abc"]
        assert a == b and topo[0] == topo[1] and topo[0] != topo[2]
        assert c["program_seed"] != a["program_seed"]


def test_without_program_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".runs", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run("--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0",
               cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""
