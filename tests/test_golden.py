"""Byte-level guard on the outputs of four reference runs.

The digests pin the run log and the CSVs that each command writes, so a
change to what the simulator computes, to the plans, or to the log and
CSV layout shows up as a mismatch. A change meant to alter these
outputs updates the digests and says why. The outputs do not depend on
the interpreter's string hash seed either.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
            ".log": "0403ecf3b9a6749f810eead57ada8dd151987dde3e0952bd5e1024baf3d5c7a9",
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
            ".log": "cea1afb82b8c8160d50606369c5f6b13bf4af2b45148c09dd61425ddbfa86a3a",
            "_table.csv": "5d58984409a01266ac25e20614e0bf76e0fb2621560f413d10aabeb215afddec",
            "_cdf.csv": "b04fc61fa97658d5ad9107be023df5a7ef7abf2de222b18af56e152f2e60b0f5",
        },
    ),
    "rq1": (
        [["rq1", "--topology", str(FIXTURES / "srcip_hash.topo"), "--dest", "5",
          "--seed", "1"]],
        {
            ".log": "be561ccfd4a49d7ca61f8eb07ee9d6093f004f7d6b12493dfec8cdda770fd2a9",
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
            ".log": "6c2055032b1d78c7ef08726fd485555e6865aaba66f318d3bab414606bd21ccf",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_outputs_match_recorded_digests(name, tmp_path, capsys):
    commands, digests = GOLDEN[name]
    for argv in commands:
        assert cli_main(argv + ["--out", str(tmp_path / "run.log")]) == 0
    for suffix, digest in digests.items():
        data = (tmp_path / f"run{suffix}").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, suffix


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
