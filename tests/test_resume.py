"""A run cut at any byte of its log resumes to the uninterrupted result.

A finished log is cut at a byte offset, as a crash in the middle of a
write would leave it, and the same command is run again on it. The log
and the CSVs must then be byte-identical to those of the uninterrupted
run: a torn write costs at most one line, the resume cuts that line off
before it appends, and every unit of work is one line appended in plan
order.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    "rq1": (
        ["rq1", "--topology", str(FIXTURES / "srcip_hash.topo"), "--dest", "5",
         "--seed", "1"],
        ("_paths.csv",),
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


@pytest.mark.parametrize("name", sorted(COMMANDS))
@pytest.mark.parametrize("from_end", [None, 1, 0])
def test_resume_after_cut_at_start_and_end(finished, name, from_end):
    size = len(finished[name][".log"])
    assert_resume_after_cut(finished, name, 0 if from_end is None else size - from_end)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_resume_after_cut_anywhere(finished, data):
    name = data.draw(st.sampled_from(sorted(COMMANDS)), label="command")
    size = len(finished[name][".log"])
    assert_resume_after_cut(finished, name, data.draw(st.integers(0, size), label="cut"))
