"""A run cut at any byte of its log resumes to the uninterrupted result.

A finished log is cut at a byte offset, as a crash in the middle of a
write would leave it, and the same command is run again on it. The log
and the CSVs must then be byte-identical to those of the uninterrupted
run: a torn write costs at most one line, the resume cuts that line off
before it appends, every unit of work (a trace, or a cell record of a
fixed count of cells) is one line appended in plan order, and a body
record the log holds keeps its id for the lines the resumed run writes.
"""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowstable import logio
from flowstable.cli import cli_main

from conftest import FIXTURES

#: name -> (command without --out, the files it writes next to the log)
COMMANDS = {
    "rq2": (
        ["rq2", "--topology", str(FIXTURES / "half_split.topo"),
         "--dests", str(FIXTURES / "half_split.dests"), "--protocols", "http",
         "--seed", "1", "--trace-affected"],
        ("_table.csv", "_cdf.csv"),
    ),
    # Run as http then dns, traced in table order, dns then http: the
    # trace pass spans two affected matrices (see
    # test_rq2_two_affected_traces_two_matrices).
    "rq2_two_affected": (
        ["rq2", "--topology", str(FIXTURES / "lossy_mix.topo"),
         "--dests", str(FIXTURES / "lossy_mix.dests"), "--protocols", "http,dns",
         "--seed", "1", "--trace-affected"],
        ("_table.csv", "_cdf.csv"),
    ),
    "rq1": (
        ["rq1", "--topology", str(FIXTURES / "srcip_hash.topo"), "--dest", "5",
         "--seed", "1"],
        ("_paths.csv",),
    ),
    "trace": (
        ["trace", "--topology", str(FIXTURES / "lossy_mix.topo"), "--dest", "5",
         "--src-ip", "198.51.100.2", "--src-port", "34775", "--protocol", "http",
         "--sensitive"],
        (),
    ),
}

pytestmark = pytest.mark.filterwarnings("ignore:discarding partial trailing record")


def _outputs(directory: Path, suffixes) -> dict:
    return {s: (directory / f"run{s}").read_bytes() for s in (".log",) + suffixes}


@pytest.fixture(scope="module")
def finished(tmp_path_factory):
    """The outputs of each command run once, uninterrupted."""
    out = {}
    for name, (argv, suffixes) in COMMANDS.items():
        directory = tmp_path_factory.mktemp(name)
        assert cli_main(argv + ["--out", str(directory / "run.log")]) == 0
        out[name] = _outputs(directory, suffixes)
    return out


def assert_resume_after_cut(finished, name, cut):
    argv, suffixes = COMMANDS[name]
    expected = finished[name]
    with tempfile.TemporaryDirectory() as tmp:
        log = Path(tmp) / "run.log"
        log.write_bytes(expected[".log"][:cut])
        assert cli_main(argv + ["--out", str(log)]) == 0
        assert _outputs(Path(tmp), suffixes) == expected, f"cut at byte {cut}"


def test_rq2_two_affected_traces_two_matrices(finished):
    table = finished["rq2_two_affected"]["_table.csv"].decode().splitlines()
    assert [row.split(",")[2:] for row in table[1:]] == [["dns", "true"], ["http", "true"]]
    with tempfile.TemporaryDirectory() as tmp:
        log = Path(tmp) / "run.log"
        log.write_bytes(finished["rq2_two_affected"][".log"])
        traced = [r["protocol"] for r in logio.read_log(log) if r["record_kind"] == "trace"]
    assert traced[0] == "dns" and traced[-1] == "http"
    assert sorted(traced) == traced


@pytest.mark.parametrize("name", sorted(COMMANDS))
@pytest.mark.parametrize("from_end", [None, 1, 0])
def test_resume_after_cut_at_start_and_end(finished, name, from_end):
    size = len(finished[name][".log"])
    assert_resume_after_cut(finished, name, 0 if from_end is None else size - from_end)


@pytest.mark.parametrize("name, kind", [("rq1", "trace"), ("rq2", "verdict"),
                                        ("rq2", "trace"), ("rq2_two_affected", "trace"),
                                        ("trace", "trace")])
def test_resume_after_cut_just_past_a_first_body(finished, name, kind):
    # The first body record of the log, or of rq2's --trace-affected
    # pass, is written; the line that cites it is not.
    lines = finished[name][".log"].splitlines(keepends=True)
    records = [json.loads(line) for line in lines]
    at = next(i for i, r in enumerate(records)
              if r.get("record_kind") == "body" and r["kind"] == kind)
    cites = next(r for r in records[at + 1:] if "record_kind" not in r)
    assert records[at]["body"] in cites.get("cells", [cites.get("body")])
    assert_resume_after_cut(finished, name, len(b"".join(lines[:at + 1])))


@pytest.mark.parametrize("name", ["rq2", "rq2_two_affected"])
def test_resume_after_cut_inside_each_cell_record(finished, name):
    # At the start of every cell record, in its middle, and just before
    # its newline: the resume runs the matrix again from that record's
    # first cell.
    lines = finished[name][".log"].splitlines(keepends=True)
    records, offset = 0, 0
    for line in lines:
        if line.startswith(b'{"cells": '):
            records += 1
            for cut in (offset, offset + len(line) // 2, offset + len(line) - 1):
                assert_resume_after_cut(finished, name, cut)
        offset += len(line)
    assert records == 7 * (2 if name == "rq2_two_affected" else 1)  # 1664 = 6 * 256 + 128


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_resume_after_cut_anywhere(finished, data):
    name = data.draw(st.sampled_from(sorted(COMMANDS)), label="command")
    size = len(finished[name][".log"])
    assert_resume_after_cut(finished, name, data.draw(st.integers(0, size), label="cut"))
