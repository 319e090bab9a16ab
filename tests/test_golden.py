"""Byte-level guard on the outputs of four reference runs.

The digests pin the run log and the CSVs that each command writes, so a
change to what the simulator computes, to the plans, or to the log and
CSV layout shows up as a mismatch. A change meant to alter these
outputs updates the digests and says why. The outputs do not depend on
the interpreter's string hash seed either.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from flowstable import logio
from flowstable.cli import cli_main

from conftest import FIXTURES

#: name -> (commands without --out, run in turn into one log,
#:          {file written next to the log: sha256})
GOLDEN = {
    "rq2": (
        [["rq2", "--topology", str(FIXTURES / "half_split.topo"),
          "--dests", str(FIXTURES / "half_split.dests"), "--protocols", "dns,http,https",
          "--registry", str(FIXTURES / "blockpages.json"), "--seed", "1",
          "--trace-affected"]],
        {
            ".log": "ca98e9378aed3f3b5eb5d300261076c3dfd24a08d0cb8579f47d21fd51c13e79",
            "_table.csv": "7d693ef7ade58b165f8a04dc54627039cd70a96ade3890f459921fc4f6ba0d1a",
            "_cdf.csv": "bd44e0dd4a2c968959f8bfcc9efb90f8013488b5534160d57cc4a3ab98e429eb",
        },
    ),
    # Loss on two routers after the censors, every action kind, a residual
    # window and a failed rule: pins the loss-draw bytes and each mechanism.
    "rq2_lossy": (
        [["rq2", "--topology", str(FIXTURES / "lossy_mix.topo"),
          "--dests", str(FIXTURES / "lossy_mix.dests"), "--protocols", "dns,http,https",
          "--registry", str(FIXTURES / "blockpages.json"), "--seed", "1",
          "--trace-affected"]],
        {
            ".log": "4cced472aa66c6b2dffe672b18526c95cc960e737749edb5ad0b2ae748f8fbdc",
            "_table.csv": "5d58984409a01266ac25e20614e0bf76e0fb2621560f413d10aabeb215afddec",
            "_cdf.csv": "b04fc61fa97658d5ad9107be023df5a7ef7abf2de222b18af56e152f2e60b0f5",
        },
    ),
    "rq1": (
        [["rq1", "--topology", str(FIXTURES / "srcip_hash.topo"), "--dest", "5",
          "--seed", "1"]],
        {
            ".log": "b2b9cd95fc4ed559b0da55a57bc429d3ae86944e9bb2498515f80fc01900f3da",
            "_paths.csv": "8bd791cd3169b95ebfc7ab896f5ab0d3f6897b0d5a50c551b78f36db977f7cac",
        },
    ),
    # Two runs of trace --out share a log: a sensitive flow whose ladder
    # runs out at --max-ttl 8, then a run whose body ids start again at 0.
    "trace_out": (
        [["trace", "--topology", str(FIXTURES / "lossy_mix.topo"), "--dest", "5",
          "--src-ip", "198.51.100.2", "--src-port", "34775", "--protocol", "http",
          "--domain", "blocked.example", "--sensitive", "--max-ttl", "8"],
         ["trace", "--topology", str(FIXTURES / "lossy_mix.topo"), "--dest", "10.1.5.6",
          "--src-ip", "198.51.100.7", "--src-port", "40002", "--protocol", "dns"]],
        {
            ".log": "b4c1f845dc4546c1d0a832028b2c04b02383fbd6fbcf46c30147098e4e0ce449",
        },
    ),
}


#: name -> sha256 of the cells and traces logio.read_log gives for the
#: golden log, each as JSON with sorted keys and a newline, without the
#: fields a log layout adds to them (read_log_digest). The benchmark's
#: gates and digests read a log through read_log alone, so these hold
#: across layouts: recorded on schema v3, they hold on v4.
READ_LOG = {
    "rq1": "804b86b204d331ff8f11a74e6bbe87c805f7ca13cd723c512fc5f91833f0427b",
    "rq2": "97718bdfe4de512181443216ed1fca14cb8926432090b8f8963d256942d3272b",
    "rq2_lossy": "6692f49d3e676655660f3bd11043c2d097d54a50e2f29bba8578d5efc8e333e7",
    "trace_out": "c7c6f85527b1f403dfe777c8f7cf7d4903195d945d261c1ca7c37e72d6db6465",
}


def read_log_digest(path) -> str:
    """The sha256 of read_log's verdict and trace records of the log at
    path, less their schema_version and v3's trace_id; meta records,
    which a layout may add fields to, are left out."""
    h = hashlib.sha256()
    for record in logio.read_log(path):
        if record["record_kind"] != logio.KIND_META:
            kept = {k: v for k, v in record.items() if k not in ("schema_version", "trace_id")}
            h.update(json.dumps(kept, sort_keys=True).encode() + b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_outputs_match_recorded_digests(name, tmp_path, capsys):
    commands, digests = GOLDEN[name]
    for argv in commands:
        assert cli_main(argv + ["--out", str(tmp_path / "run.log")]) == 0
    for suffix, digest in digests.items():
        data = (tmp_path / f"run{suffix}").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, suffix
    assert read_log_digest(tmp_path / "run.log") == READ_LOG[name]


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    # The lossy rq2 run, then classify on its log per protocol, each in a
    # fresh interpreter under PYTHONHASHSEED 0 and 1: the files written
    # and the lines printed are the same bytes.
    (argv,), _ = GOLDEN["rq2_lossy"]
    commands = [argv + ["--out", "run.log"]] + [
        ["classify", "--log", "run.log", "--topology", str(FIXTURES / "lossy_mix.topo"),
         "--protocol", protocol] for protocol in ("dns", "http", "https")]
    src = Path(__file__).resolve().parent.parent / "src"
    runs = []
    for hash_seed in ("0", "1"):
        cwd = tmp_path / hash_seed
        cwd.mkdir()
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": str(src)}
        printed = [subprocess.run([sys.executable, "-m", "flowstable.cli", *command], cwd=cwd,
                                  env=env, capture_output=True, check=True, timeout=120).stdout
                   for command in commands]
        runs.append((printed, {path.name: path.read_bytes() for path in cwd.iterdir()}))
    assert runs[0] == runs[1]
    assert sorted(runs[0][1]) == ["run.log", "run_cdf.csv", "run_table.csv"]
