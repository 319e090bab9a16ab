import json
import random
import re
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowstable import logio
from flowstable.cli import cli_main
from flowstable.core import (
    AppProtocol,
    Ipv4Address,
    Mechanism,
    SourceParams,
    Verdict,
    VerdictKind,
)
from flowstable.plans import plan_rq1, rq2_grid
from flowstable.prober import CellResult, Observation, ObservationKind
from flowstable.tracer import MAX_TTL_CEILING, Terminal, TerminalKind, TracePath
from reference import (
    ip_to_int,
    log_bytes,
    log_records,
    split_record,
    trace_record,
    verdict_record,
)

DST = Ipv4Address.parse("10.0.3.4")
SEED = 1
#: The grid an rq2 run of SEED probes, and its cells' sources as text.
GRID = rq2_grid(SEED)
GRID_TEXT = [(str(s.src_ip), s.src_port) for s in GRID]


def random_result(rng):
    control = [Observation(e, ObservationKind.PAYLOAD_RESPONSE, "origin:control.example")
               for e in (1, 2, 3)]
    sensitive = [Observation(e, rng.choice(list(ObservationKind)), rng.choice(["", "bp-01"]))
                 for e in (1, 2, 3)]
    verdict = rng.choice(
        [Verdict.censored(Mechanism.RST_INJECTION), Verdict.not_censored(), Verdict.excluded()]
    )
    return control, sensitive, verdict


def _canonical(path):
    """Whether each line of the log is its JSON with sorted keys."""
    return all(line == json.dumps(json.loads(line), sort_keys=True)
               for line in path.read_text().splitlines())


def test_round_trip_1000_cells_of_two_matrices(tmp_path):
    # Most cells have a body of their own; each matrix's go 256 to a
    # record, the last of its 1000 in a short one.
    path = tmp_path / "run.log"
    rng = random.Random(0)
    log = logio.open_run(path, "run-a", seed=SEED)
    records = [logio.make_record(logio.KIND_META, "run-a", seed=SEED)]
    expected = {}
    for protocol in (AppProtocol.HTTP, AppProtocol.HTTPS):
        lines = logio.SharedLines(log, DST, protocol)
        for source in GRID[:1000]:
            control, sensitive, verdict = random_result(rng)
            lines.verdict(CellResult(control, sensitive, verdict))
            records.append(verdict_record("run-a", DST, protocol, source, control, sensitive,
                                          verdict))
            expected.setdefault((DST, protocol), {})[source] = verdict
        lines.flush()
    assert logio.read_log(path) == records
    assert path.read_bytes() == log_bytes(records)
    assert _canonical(path)
    assert sum('"cells": ' in line for line in path.read_text().splitlines()) == 2 * 4

    run = logio.read_run(path)
    assert run.verdicts == expected
    assert list(run.verdicts) == list(expected)
    for key, matrix in expected.items():
        assert list(run.verdicts[key]) == list(matrix)
    # both matrices' sources are the objects of the read's one grid draw
    http, https = (list(run.verdicts[(DST, p)]) for p in (AppProtocol.HTTP, AppProtocol.HTTPS))
    assert all(a is b for a, b in zip(http, https))


def test_truncated_final_line_discarded_with_warning(tmp_path):
    path = tmp_path / "run.log"
    records = [logio.make_record(logio.KIND_META, "r", note=str(i)) for i in range(1000)]
    logio.append_records(path, map(logio.encode_record, records))
    text = path.read_text()
    path.write_text(text[: len(text) - 17])  # chop into the last record
    with pytest.warns(UserWarning):
        recovered = logio.read_log(path)
    assert recovered == records[:999]


def test_corrupt_middle_line_names_file_and_line(tmp_path):
    path = tmp_path / "run.log"
    records = [logio.make_record(logio.KIND_META, "r", note=str(i)) for i in range(3)]
    lines = [json.dumps(r) for r in records]
    lines[1] = "{not json"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(logio.CorruptRecordError, match=r"run\.log line 2: "):
        logio.read_log(path)


def test_blank_lines_are_skipped(tmp_path):
    path = tmp_path / "run.log"
    records = [logio.make_record(logio.KIND_META, "r", note=str(i)) for i in range(2)]
    lines = [json.dumps(r) for r in records]
    path.write_text(f"\n{lines[0]}\n  \t\n{lines[1]}\n")
    assert logio.read_log(path) == records


def test_unknown_schema_version(tmp_path):
    path = tmp_path / "run.log"
    record = logio.make_record(logio.KIND_META, "r")
    record["schema_version"] = 99
    path.write_text(json.dumps(record) + "\n")
    with pytest.raises(logio.SchemaVersionUnknownError):
        logio.read_log(path)


def test_unknown_record_kind_rejected():
    with pytest.raises(ValueError):
        logio.make_record("bogus", "r")


# json would write an address, a source or a flow as an array: a record
# holds their text.
@pytest.mark.parametrize("payload", [
    {"dest": DST}, {"dests": ["10.0.3.4", DST]},
    {"source": SourceParams(DST, 1)}, {"pair": (1, 2)}])
def test_record_refuses_a_tuple_field(payload):
    with pytest.raises(TypeError, match="holds a tuple"):
        logio.make_record(logio.KIND_META, "r", **payload)


#: rq1's vary_ip plan of SEED against DST, whose sample 7 a trace takes.
VARY_IP = plan_rq1(DST, AppProtocol.HTTPS, SEED)[2]


@pytest.mark.parametrize("kind, source, key, line", [
    ("rq1", VARY_IP.samples[7], ("vary_ip", 7), {"sample_index": 7}),
    ("rq2", GRID[300], (DST, AppProtocol.HTTPS, GRID[300]), {"grid_index": 300}),
    ("trace_out", SourceParams(Ipv4Address.parse("198.51.100.9"), 40404),
     (DST, AppProtocol.HTTPS, SourceParams(Ipv4Address.parse("198.51.100.9"), 40404)),
     {"src_ip": "198.51.100.9", "src_port": 40404}),
])
def test_trace_lines_round_trip(tmp_path, kind, source, key, line):
    # An rq1 line keeps its sample index and an rq2 trace-pass line its
    # grid index, from which the reader draws the source again; only a
    # trace --out line keeps its source.
    assert VARY_IP.variation.value == "vary_ip"
    trace = TracePath(DST, source, AppProtocol.HTTPS, (0, None, 2),
                      Terminal(TerminalKind.CENSORED_AT, 3))
    fixed = {"variation": "vary_ip"} if kind == "rq1" else {}
    path = tmp_path / "run.log"
    log = logio.open_run(path, "run-b", seed=SEED)
    lines = logio.SharedLines(log, DST, AppProtocol.HTTPS, **fixed)
    lines.trace(trace, line.get("sample_index"), line.get("grid_index"))
    lines.flush()
    meta, record = logio.read_log(path)
    extra = {**fixed, "sample_index": 7} if kind == "rq1" else {}
    assert record == trace_record("run-b", trace, **extra)
    assert record["hops"] == [0, None, 2]
    assert record["terminal"] == "censored@3"
    assert logio.traces_from_records([record]) == [trace]

    written = [json.loads(text) for text in path.read_text().splitlines()]
    assert written[-1] == {"body": 0, "run_id": "run-b", **line}  # meta, body, trace
    assert path.read_bytes() == log_bytes([meta, record], GRID_TEXT if kind == "rq2" else None)
    assert logio.read_run(path).traces == {3: trace}
    assert logio.read_run(path, "run-b").traces == {key: trace}


def test_terminal_string_round_trip():
    cases = [
        Terminal(TerminalKind.REACHED_DESTINATION),
        Terminal(TerminalKind.EXHAUSTED),
        Terminal(TerminalKind.HANDSHAKE_FAILED),
        Terminal(TerminalKind.CENSORED_AT, 7),
        Terminal(TerminalKind.CENSORED_AT, None),
    ]
    for terminal in cases:
        assert logio.parse_terminal(logio.terminal_str(terminal)) == terminal


def test_verdict_record_round_trip(tmp_path):
    control = (Observation(1, ObservationKind.PAYLOAD_RESPONSE, "origin:control.example"),)
    sensitive = (Observation(1, ObservationKind.PAYLOAD_RESPONSE, "bp-01"),)
    for verdict in (
        Verdict.censored(Mechanism.BLOCKPAGE),
        Verdict.not_censored(),
        Verdict.excluded(),
    ):
        path = tmp_path / f"{verdict.kind.value}.log"
        log = logio.open_run(path, "r", seed=SEED)
        lines = logio.SharedLines(log, DST, AppProtocol.HTTP)
        result = CellResult(control, sensitive, verdict)
        lines.verdict(result)
        lines.verdict(result)
        lines.flush()
        _, first, record = logio.read_log(path)
        assert [(r["src_ip"], r["src_port"]) for r in (first, record)] == GRID_TEXT[:2]
        assert logio.parse_verdict(record) == verdict
        assert record["control"] == [[1, "payload_response", "origin:control.example"]]
        assert record["sensitive"] == [[1, "payload_response", "bp-01"]]
        assert json.loads(path.read_text().splitlines()[-1]) == {
            "cells": [0, 0], "dst": "10.0.3.4", "first": 0, "protocol": "http", "run_id": "r"}


def test_v1_log_rejected(tmp_path):
    path = tmp_path / "run.log"
    record = logio.make_record(logio.KIND_META, "r")
    record["schema_version"] = 1
    path.write_text(json.dumps(record) + "\n")
    with pytest.raises(logio.SchemaVersionUnknownError, match="line 1: schema_version 1"):
        logio.read_run(path)


@pytest.mark.parametrize("version", [2, 3])
def test_older_log_rejected_with_what_to_do(tmp_path, capsys, version):
    # A v3 log's first lines: its meta record, a body and a line citing it.
    path = tmp_path / "run.log"
    lines = [{"record_kind": "meta", "run_id": "r", "schema_version": version, "seed": 1},
             {**_body(VERDICT), "schema_version": version},
             {"body": 0, "run_id": "r", "src_ip": "198.51.100.9", "src_port": 40404}]
    for lineno, start in ((1, 0), (1, 1)):
        path.write_text("".join(json.dumps(line) + "\n" for line in lines[start:]))
        with pytest.raises(logio.SchemaVersionUnknownError,
                           match=f"line {lineno}: schema_version {version}, .*fresh --out"):
            logio.read_run(path)
        code = cli_main(["bits", "--log", str(path), "--group-by", "src_ip_low3"])
        assert code == 2
        assert f"schema_version {version}, but this reader reads schema_version 4 only; " \
               f"re-run the command with a fresh --out" in capsys.readouterr().err


def test_unknown_kind_in_log_is_corrupt(tmp_path):
    path = tmp_path / "run.log"
    record = logio.make_record(logio.KIND_META, "r")
    record["record_kind"] = "observation"
    path.write_text(json.dumps(record) + "\n")
    with pytest.raises(logio.CorruptRecordError, match=r"run\.log line 1: "):
        logio.read_log(path)


class TestOpenRun:
    def test_new_log_gets_one_meta_record(self, tmp_path):
        path = tmp_path / "run.log"
        run = logio.open_run(path, "r1", command="rq2", seed=3)
        assert (run.path, run.run_id, run.verdicts, run.traces) == (path, "r1", {}, {})
        again = logio.open_run(path, "r1", command="rq2", seed=3)
        assert logio.read_log(path) == [logio.make_record(
            logio.KIND_META, "r1", command="rq2", seed=3)]
        assert again.run_ids == {"r1"}
        assert again.meta == run.meta == logio.read_log(path)[0]
        logio.open_run(path, "r2")
        assert [r["run_id"] for r in logio.read_log(path)] == ["r1", "r2"]

    def test_meta_holds_the_repetitions(self, tmp_path):
        path = tmp_path / "run.log"
        logio.open_run(path, "r1", repetitions=2, seed=3)
        assert logio.read_log(path) == [logio.make_record(
            logio.KIND_META, "r1", repetitions=2, seed=3)]

    @pytest.mark.filterwarnings("ignore:discarding partial trailing record")
    def test_another_registry_is_refused_before_writing(self, tmp_path):
        path = tmp_path / "run.log"
        logio.open_run(path, "r1", registry=None)
        logio.open_run(path, "r2", registry="ab")
        path.write_bytes(path.read_bytes() + b'{"record_kind": "me')  # a torn line stays
        before = path.read_bytes()
        for run_id, other in (("r1", "ab"), ("r2", None), ("r2", "cd")):
            with pytest.raises(logio.RegistryMismatchError, match=f"run {run_id} with registry"):
                logio.open_run(path, run_id, registry=other)
            assert path.read_bytes() == before
        with pytest.warns(UserWarning):
            logio.open_run(path, "r2", registry="ab")
        logio.open_run(path, "r1")  # asks for no registry
        assert [r["run_id"] for r in logio.read_log(path)] == ["r1", "r2"]

    def test_partial_last_line_is_cut_before_appending(self, tmp_path):
        path = tmp_path / "run.log"
        logio.open_run(path, "r1")
        whole = path.read_bytes()
        path.write_bytes(whole + b'{"record_kind": "verd')
        with pytest.warns(UserWarning, match="partial trailing record"):
            logio.open_run(path, "r1")
        assert path.read_bytes() == whole

    def test_partial_only_line_is_cut(self, tmp_path):
        path = tmp_path / "run.log"
        path.write_bytes(b'{"record' * 1000)  # longer than one look-back block
        with pytest.warns(UserWarning):
            logio.open_run(path, "r1")
        assert logio.read_log(path) == [logio.make_record(logio.KIND_META, "r1")]

    def test_finished_log_is_not_touched(self, tmp_path):
        path = tmp_path / "run.log"
        logio.open_run(path, "r1")
        before = path.stat()
        logio.open_run(path, "r1")
        after = path.stat()
        assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)


# --- hand-written v4 lines --------------------------------------------------

META = {"record_kind": "meta", "run_id": "r", "schema_version": 4, "seed": SEED}
CONTROL = [Observation(1, ObservationKind.PAYLOAD_RESPONSE, "")]
#: A verdict of (DST, http) and a trace of (DST, dns), with their bodies
#: merged in, as read_log gives them.
VERDICT = verdict_record("r", DST, AppProtocol.HTTP, GRID[0], CONTROL, CONTROL,
                         Verdict.not_censored())
TRACE = trace_record("r", TracePath(DST, SourceParams(DST, 1), AppProtocol.DNS, (),
                                    Terminal(TerminalKind.EXHAUSTED)))


def _body(record, body_id=0, drop=None, **changes):
    """The body record of record under body_id, with changes applied and
    drop removed."""
    line = {"body": body_id, **split_record(record)[0], **changes}
    line.pop(drop, None)
    return line


def _cells(*ids, drop=None, **changes):
    """A cell record of (DST, http), from grid position 0."""
    line = {"cells": list(ids), "dst": "10.0.3.4", "first": 0, "protocol": "http",
            "run_id": "r", **changes}
    line.pop(drop, None)
    return line


def _line(body_id=0, drop=None, **changes):
    """A trace --out line: it keeps its source."""
    line = {"body": body_id, "run_id": "r", "src_ip": "198.51.100.9", "src_port": 40404,
            **changes}
    line.pop(drop, None)
    return line


def _indexed(body_id=0, **index):
    """An rq1 or rq2 trace-pass line: it keeps its sample or grid index."""
    return {"body": body_id, "run_id": "r", **index}


def _write(path, *lines):
    path.write_text("".join(json.dumps(line, sort_keys=True) + "\n" for line in lines))
    return path


class TestMalformedRecord:
    """A complete line that is JSON but not a well-formed record is a data
    error naming the file and the line, like a line that is not JSON:
    read(lineno, *lines) writes the lines and checks that read_run, for
    run_id or every run, refuses the log at lineno."""

    def read(self, tmp_path, lineno, *lines, run_id=None):
        path = _write(tmp_path / "run.log", *lines)
        with pytest.raises(logio.CorruptRecordError, match=rf"run\.log line {lineno}: ") as info:
            logio.read_run(path, run_id)
        return str(info.value)

    # -- body records

    def test_missing_field(self, tmp_path):
        assert self.read(tmp_path, 2, META, _body(VERDICT, drop="dst")).endswith(
            "missing field 'dst'")

    def test_bad_enum_value(self, tmp_path):
        assert "'maybe'" in self.read(tmp_path, 2, META, _body(VERDICT, verdict="maybe"))

    # An address is ASCII digits: str.isdigit() and int() would read
    # Arabic-Indic "\u0661\u0660" as 10 and fullwidth "\uff11" as 1.
    @pytest.mark.parametrize("dst", ["10.0.3.256", "\u0661\u0660.0.0.1", "10.0.0.\uff11"])
    @pytest.mark.parametrize("record", [VERDICT, TRACE], ids=["verdict", "trace"])
    def test_bad_destination(self, tmp_path, record, dst):
        assert repr(dst) in self.read(tmp_path, 2, META, _body(record, dst=dst))

    # control and sensitive are non-empty lists of [epoch, outcome, tag]:
    # an epoch >= 1 that is not a boolean, an ObservationKind value, a str.
    @pytest.mark.parametrize("entries", [
        "abc", {"a": 1, "b": 2, "c": 3}, None, 3, [], [[]], [1, "no_response", ""],
        [[0, "no_response", ""]], [[-1, "no_response", ""]], [[True, "no_response", ""]],
        [[1.0, "no_response", ""]], [["1", "no_response", ""]], [[1, "maybe", ""]],
        [[1, ["no_response"], ""]], [[1, "no_response", None]], [[1, "no_response"]],
        [[1, "no_response", "", ""]], [[1, "no_response", ""], "x"],
    ])
    @pytest.mark.parametrize("field", ["control", "sensitive"])
    def test_bad_outcomes(self, tmp_path, field, entries):
        self.read(tmp_path, 2, META, _body(VERDICT, **{field: entries}))

    # Both lists are empty only for an Excluded cell that its transport
    # could not carry (experiments.run_rq2).
    @pytest.mark.parametrize("control, sensitive, verdict", [
        ([], [], "not_censored"), ([], [[1, "no_response", ""]], "excluded"),
        ([[1, "no_response", ""]], [], "excluded")])
    def test_empty_outcomes(self, tmp_path, control, sensitive, verdict):
        assert "empty" in self.read(tmp_path, 2, META, _body(
            VERDICT, control=control, sensitive=sensitive, verdict=verdict))

    def test_bad_terminal(self, tmp_path):
        # A TTL is ASCII digits of an integer >= 1, as terminal_str writes it.
        for terminal in ["censored@x", "censored@-1", "censored@ 3", "censored@+3",
                         "censored@\u0663", "censored@0", "censored@03"]:
            assert repr(terminal) in self.read(tmp_path, 2, META, _body(TRACE, terminal=terminal))

    # SharedLines writes a null mechanism on a verdict that is not
    # censored, and always writes the field.
    @pytest.mark.parametrize("verdict", ["excluded", "not_censored"])
    def test_mechanism_on_an_uncensored_verdict(self, tmp_path, verdict):
        assert "mechanism 'drop'" in self.read(
            tmp_path, 2, META, _body(VERDICT, verdict=verdict, mechanism="drop"))

    @pytest.mark.parametrize("changes", [{"mechanism": 5}, {"drop": "mechanism"}],
                             ids=["mechanism_5", "no_mechanism"])
    def test_mechanism_after_an_equal_verdict(self, tmp_path, changes):
        self.read(tmp_path, 3, META, _body(VERDICT, verdict="excluded"),
                  _body(VERDICT, 1, verdict="excluded", **changes))

    # A ladder is a list of node ids (integers >= 0, not booleans) and nulls.
    @pytest.mark.parametrize("hops", ["0x", "", [0, "x"], [True, 2.5], [3, -1], [1.0],
                                      [None, [2]], {"0": 1}, None])
    def test_bad_ladder(self, tmp_path, hops):
        self.read(tmp_path, 2, META, _body(TRACE, hops=hops))

    # A ladder holds at most MAX_TTL_CEILING hops, and a censored
    # terminal's TTL is one of its positions, as tracer.trace writes them.
    @pytest.mark.parametrize("hops, terminal", [
        ([1], "censored@999"), ([], "censored@1"), ([1, None], "censored@3"),
        ([1] * (MAX_TTL_CEILING + 1), "exhausted"), ([None] * (MAX_TTL_CEILING + 1), "reached"),
    ])
    def test_terminal_outside_its_ladder(self, tmp_path, hops, terminal):
        assert "ladder" in self.read(tmp_path, 2, META, _body(TRACE, hops=hops,
                                                              terminal=terminal))

    def test_terminal_at_its_ladder_end_reads(self, tmp_path):
        hops = [None] * (MAX_TTL_CEILING - 1) + [7]
        path = _write(tmp_path / "run.log", META, _body(
            TRACE, hops=hops, terminal=f"censored@{MAX_TTL_CEILING}"), _line())
        (trace,) = logio.read_run(path).traces.values()
        assert trace.terminal == Terminal(TerminalKind.CENSORED_AT, MAX_TTL_CEILING)
        assert len(trace.hops) == MAX_TTL_CEILING

    @pytest.mark.parametrize("bad", [[1.0], [True]])
    def test_bad_ladder_after_an_equal_good_one(self, tmp_path, bad):
        self.read(tmp_path, 3, META, _body(TRACE, hops=[1]), _body(TRACE, 1, hops=bad))

    @pytest.mark.parametrize("hops", ["0x", [0, "x"], [True, 2.5]])
    def test_graph_exits_2_on_a_bad_ladder(self, tmp_path, capsys, hops):
        self.read(tmp_path, 3, META, _body(TRACE), _body(TRACE, 1, hops=hops))
        code = cli_main(["graph", "--log", str(tmp_path / "run.log"), "--dest", str(DST),
                         "--out", str(tmp_path / "g")])
        assert code == 2
        assert "run.log line 3: " in capsys.readouterr().err
        assert list(tmp_path.glob("g_*")) == []

    # -- trace lines

    @pytest.mark.parametrize("src_ip", ["10.0.3.256", "\u0661\u0660.0.0.1", "10.0.0.\uff11"])
    def test_bad_source_address(self, tmp_path, src_ip):
        assert repr(src_ip) in self.read(tmp_path, 3, META, _body(TRACE), _line(src_ip=src_ip))

    def test_bad_port(self, tmp_path):
        assert "port out of range" in self.read(tmp_path, 3, META, _body(TRACE),
                                                _line(src_port=70000))

    # A port is a JSON integer, not a boolean, a fraction or a string.
    @pytest.mark.parametrize("port", [True, False, 2.5, 40404.0, "40404", None, [40404]])
    def test_port_is_an_integer(self, tmp_path, port):
        assert "src_port" in self.read(tmp_path, 3, META, _body(TRACE), _line(src_port=port))

    # The same bad ports, each after a line whose port JSON compares equal
    @pytest.mark.parametrize("good, bad", [(1, True), (0, False), (40404, 40404.0)])
    def test_port_after_an_equal_good_port(self, tmp_path, good, bad):
        self.read(tmp_path, 4, META, _body(TRACE), _line(src_port=good), _line(src_port=bad))

    # A sample index is a position of the plan of the body's variation,
    # read for one run or for all.
    @pytest.mark.parametrize("run_id", [None, "r"])
    @pytest.mark.parametrize("index", [-1, 144, True, 1.0, "0", None, [0]])
    def test_bad_sample_index(self, tmp_path, capsys, index, run_id):
        error = self.read(tmp_path, 3, META, _body(TRACE, variation="vary_ip"),
                          _indexed(sample_index=index), run_id=run_id)
        assert "is not a position of a plan of 144 sources" in error
        code = cli_main(["graph", "--log", str(tmp_path / "run.log"), "--dest", str(DST),
                         "--out", str(tmp_path / "g")])
        assert code == 2
        assert "run.log line 3: " in capsys.readouterr().err
        assert list(tmp_path.glob("g_*")) == []

    @pytest.mark.parametrize("variation", [None, "vary_all", ["vary_ip"]])
    def test_sample_index_of_a_body_with_no_variation(self, tmp_path, variation):
        body = _body(TRACE) if variation is None else _body(TRACE, variation=variation)
        self.read(tmp_path, 3, META, body, _indexed(sample_index=0))

    @pytest.mark.parametrize("index", [-1, 1664, True, 2.5, "3", None])
    def test_bad_grid_index(self, tmp_path, index):
        assert "plan of 1664 sources" in self.read(
            tmp_path, 3, META, _body(TRACE), _indexed(grid_index=index))

    # A planned source is drawn from the seed of its run's first meta
    # record: an integer in 0..2**64-1, there before the line.
    @pytest.mark.parametrize("seed", [None, "1", -1, 2**64, True, 1.0])
    @pytest.mark.parametrize("line", [_indexed(grid_index=0),
                                      _indexed(sample_index=0)])
    def test_planned_source_of_a_run_with_no_seed(self, tmp_path, seed, line):
        meta = {**META, "seed": seed}
        if seed is None:
            del meta["seed"]
        assert "no meta record with a seed" in self.read(
            tmp_path, 3, meta, _body(TRACE, variation="vary_ip"), line)

    def test_planned_source_before_its_runs_meta(self, tmp_path):
        self.read(tmp_path, 2, _body(TRACE), _indexed(grid_index=0), META)

    def test_trace_line_citing_a_verdict_body(self, tmp_path):
        assert "a verdict body of 10.0.3.4 http, not a trace body" in self.read(tmp_path, 3, META, _body(VERDICT),
                                                        _line())

    # -- cell records

    @pytest.mark.parametrize("cells", [[], [0] * 257, 0, "0", None, {"0": 0}])
    def test_cells_is_a_list_of_1_to_256_ids(self, tmp_path, cells):
        assert "cells is not a list" in self.read(tmp_path, 3, META, _body(VERDICT),
                                                  _cells(cells=cells))

    @pytest.mark.parametrize("cells", [[0, True], [False], [0, 0.0], [0, "0"], [None], [[0]]])
    def test_cell_ids_are_integers(self, tmp_path, cells):
        assert "is not an integer" in self.read(tmp_path, 3, META, _body(VERDICT),
                                                _cells(cells=cells))

    @pytest.mark.parametrize("cells", [[1], [0, -1], [0, 2**70]])
    def test_cell_of_an_unknown_body(self, tmp_path, cells):
        assert "which run 'r' has not recorded" in self.read(
            tmp_path, 3, META, _body(VERDICT), _cells(cells=cells))

    @pytest.mark.parametrize("body, error", [
        (_body(TRACE), "a trace body of 10.0.3.4 dns"),
        (_body(VERDICT, dst="10.0.3.5"), "a verdict body of 10.0.3.5 http"),
        (_body(VERDICT, protocol="https"), "a verdict body of 10.0.3.4 https")])
    def test_cell_of_a_body_not_of_its_matrix(self, tmp_path, body, error):
        assert error in self.read(tmp_path, 3, META, body, _cells(0))

    @pytest.mark.parametrize("field", ["dst", "first", "protocol", "run_id"])
    def test_cell_record_missing_a_field(self, tmp_path, field):
        assert f"missing field '{field}'" in self.read(tmp_path, 3, META, _body(VERDICT),
                                                        _cells(0, drop=field))

    # A record's first is the count of cells its matrix's earlier
    # records hold, each of them whole.
    @pytest.mark.parametrize("records", [
        [_cells(0, first=1)], [_cells(0, first=True)], [_cells(0, first=0.0)],
        [_cells(0, first="0")], [_cells(0, first=None)],
        [_cells(*[0] * 256), _cells(0, first=0)], [_cells(*[0] * 256), _cells(0, first=257)],
        [_cells(0, 0, 0), _cells(0, first=3)]])
    def test_first_continues_the_matrix(self, tmp_path, records):
        *good, bad = records
        assert "does not continue 10.0.3.4 http" in self.read(
            tmp_path, 3 + len(good), META, _body(VERDICT), *good, bad)

    def test_cells_past_the_grid(self, tmp_path):
        # 1664 = 6 * 256 + 128
        records = [_cells(*[0] * 256, first=first) for first in range(0, 1536, 256)]
        assert "past the grid's 1664 positions" in self.read(
            tmp_path, 3 + 6, META, _body(VERDICT), *records, _cells(*[0] * 129, first=1536))
        path = _write(tmp_path / "whole.log", META, _body(VERDICT), *records,
                      _cells(*[0] * 128, first=1536))
        assert list(logio.read_run(path).verdicts[(DST, AppProtocol.HTTP)]) == list(GRID)

    def test_cells_of_a_run_with_no_seed(self, tmp_path):
        meta = {k: v for k, v in META.items() if k != "seed"}
        assert "no meta record with a seed" in self.read(tmp_path, 3, meta, _body(VERDICT),
                                                         _cells(0))

    def test_extra_data_after_the_object(self, tmp_path):
        path = _write(tmp_path / "run.log", META, _body(VERDICT), _cells(0))
        path.write_text(path.read_text().replace("}\n", "} {}\n"))
        with pytest.raises(logio.CorruptRecordError, match=r"line 1: Extra data"):
            logio.read_run(path)

    def test_invalid_utf8(self, tmp_path):
        path = _write(tmp_path / "run.log", META, _body(VERDICT), _cells(0))
        path.write_bytes(path.read_bytes().replace(b'"first"', b'"\xfffirst"'))
        with pytest.raises(logio.CorruptRecordError, match=r"line 3: .*utf-8"):
            logio.read_run(path)

    def test_cli_exits_2_naming_the_line(self, tmp_path, capsys):
        self.read(tmp_path, 3, META, _body(VERDICT), _cells(0, drop="dst"))
        code = cli_main(["bits", "--log", str(tmp_path / "run.log"), "--group-by",
                         "src_ip_low3"])
        assert code == 2
        assert "run.log line 3: missing field 'dst'" in capsys.readouterr().err

    def test_cells_read_in_grid_order(self, tmp_path):
        ids = [0, 1] * 128
        path = _write(tmp_path / "run.log", META, _body(VERDICT),
                      _body(VERDICT, 1, verdict="excluded"), _cells(*ids), _cells(1, first=256))
        (matrix,) = logio.read_run(path, "r").verdicts.values()
        kinds = [VerdictKind.NOT_CENSORED, VerdictKind.EXCLUDED]
        assert list(matrix.items()) == [(GRID[i], Verdict(kinds[body]))
                                        for i, body in enumerate(ids + [1])]


class TestBodyIds:
    """A record or line cites a body its own run recorded on an earlier
    line; a run numbers its bodies 0, 1, ... and never gives an id other
    content."""

    BODY = _body(VERDICT)
    OTHER = {**BODY, "verdict": "excluded"}

    @pytest.mark.parametrize("lines, lineno, message", [
        pytest.param([META, _cells(0), BODY], 2, "cites body 0", id="cells-before-their-body"),
        pytest.param([META, _line(), _body(TRACE)], 2, "cites body 0",
                     id="line-before-its-body"),
        pytest.param([META, BODY, _cells(1)], 3, "cites body 1", id="unknown-id"),
        pytest.param([META, _body(TRACE), _line(body_id=1)], 3, "cites body 1",
                     id="unknown-line-id"),
        pytest.param([META, _body(TRACE), _line(body_id=-1)], 3, "cites body -1",
                     id="negative-line-id"),
        pytest.param([META, _body(TRACE), _line(body_id=True)], 3, "not an integer",
                     id="boolean-line-id"),
        pytest.param([META, BODY, {**BODY, **OTHER}], 3, "redefines body 0",
                     id="redefined-id"),
        pytest.param([META, {**BODY, "body": 1}], 2, "not run 'r''s next id, 0",
                     id="skipped-id"),
        pytest.param([META, {**BODY, "body": -1}], 2, "not run 'r''s next id, 0",
                     id="negative-id"),
        pytest.param([META, {**BODY, "body": "0"}], 2, "not an integer", id="string-id"),
        pytest.param([META, {**BODY, "kind": "meta"}], 2, "body of kind 'meta'",
                     id="meta-body"),
        pytest.param([META, {**VERDICT, "schema_version": 4}], 2, "record_kind 'verdict'",
                     id="v2-style-line"),
    ])
    @pytest.mark.parametrize("run_id", [None, "r"])
    def test_refused(self, tmp_path, lines, lineno, message, run_id):
        path = _write(tmp_path / "run.log", *lines)
        with pytest.raises(logio.CorruptRecordError, match=rf"run\.log line {lineno}: "
                                                           rf".*{re.escape(message)}"):
            logio.read_run(path, run_id)
        with pytest.raises(logio.CorruptRecordError, match=rf"run\.log line {lineno}: "):
            logio.read_log(path)

    def test_id_of_another_run(self, tmp_path):
        path = _write(tmp_path / "run.log", META, {**META, "run_id": "s"},
                      {**self.BODY, "run_id": "s"}, _cells(0))
        for run_id in (None, "r"):
            with pytest.raises(logio.CorruptRecordError, match=r"line 4: cites body 0"):
                logio.read_run(path, run_id)
        assert logio.read_run(path, "s").verdicts == {}

    # The same content in other text: keys in another order, other
    # JSON whitespace, or escapes where the first had none.
    @pytest.mark.parametrize("again", [
        lambda body: json.dumps(dict(reversed(list(body.items())))),
        lambda body: json.dumps(body, separators=(",", ":")),
        lambda body: json.dumps(body, sort_keys=True).replace(": ", ":\t"),
        lambda body: json.dumps(body).replace('"dst"', '"\\u0064st"'),
    ], ids=["reordered-keys", "compact", "tabs", "escaped-key"])
    def test_same_content_in_other_text_reads(self, tmp_path, again):
        path = _write(tmp_path / "run.log", META, self.BODY)
        with open(path, "a") as fh:
            fh.write(again(self.BODY) + "\n" + json.dumps(_cells(0)) + "\n")
        for run_id in (None, "r"):
            assert logio.read_run(path, run_id).verdicts == {(DST, AppProtocol.HTTP): {
                GRID[0]: Verdict.not_censored()}}

    # Another value, also one Python finds equal (1.0 and True == 1), or
    # another field: each is other content under the same id.
    @pytest.mark.parametrize("changes", [
        {"dst": "10.0.3.5"}, {"control": [[1.0, "payload_response", ""]]},
        {"sensitive": [[True, "payload_response", ""]]}, {"schema_version": 4.0},
        {"note": None}, {"kind": "trace"}],
        ids=["dst", "epoch-1.0", "epoch-true", "version-4.0", "extra-field", "kind"])
    def test_changed_content_under_the_same_id_is_refused(self, tmp_path, changes):
        path = _write(tmp_path / "run.log", META, self.BODY)
        with open(path, "a") as fh:
            fh.write(json.dumps(dict(reversed(list({**self.BODY, **changes}.items())))) + "\n")
        for run_id in (None, "r"):
            with pytest.raises(logio.CorruptRecordError, match=r"line 3: redefines body 0"):
                logio.read_run(path, run_id)

    def test_same_content_again_reads(self, tmp_path):
        path = _write(tmp_path / "run.log", META, self.BODY, self.BODY, _cells(0))
        run = logio.read_run(path, "r")
        assert run.verdicts == {(DST, AppProtocol.HTTP): {GRID[0]: Verdict.not_censored()}}
        assert (run.next_body, list(run.bodies.values())) == (1, [0])


class TestReadsAsJsonLoads:
    """A line reads as json.loads reads its UTF-8 text, and no other way
    (reference.log_records): JSON whitespace may pad it, a blank line
    holds no record, a partial last line is dropped with a warning, and
    a line json.loads refuses, or whose value is not an object, is
    refused at its line number. The log holds a meta record, a verdict
    body, a cell record of two cells, a trace body and a trace line, one
    of them changed."""

    LINES = log_bytes([META, VERDICT, {**VERDICT, "src_ip": GRID_TEXT[1][0],
                                       "src_port": GRID_TEXT[1][1]},
                       TRACE]).splitlines(keepends=True)

    def check(self, tmp_path, data):
        """Read data with read_log and read_run, with and without a run id:
        each refuses it at the line the reference refuses, or reads what
        it reads from the log of the reference's records as sorted JSON
        lines, and warns when the reference drops a partial last line."""
        path, clean = tmp_path / "run.log", tmp_path / "clean.log"
        path.write_bytes(data)
        records, dropped = log_records(data)
        reads = [logio.read_log, logio.read_run, lambda p: logio.read_run(p, "r")]
        if records and records[-1][1] is None:
            for read in reads:
                with pytest.raises(logio.CorruptRecordError,
                                   match=rf"run\.log line {records[-1][0]}: "):
                    read(path)
            return
        clean.write_bytes(b"".join(json.dumps(r, sort_keys=True).encode() + b"\n"
                                   for _, r in records))
        for read in reads:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                got = read(path)
            assert [str(w.message) for w in caught] == (
                [f"discarding partial trailing record in {path}"] if dropped else [])
            want = read(clean)
            if isinstance(got, logio.RunLog):
                got, want = [{**vars(run), "path": None} for run in (got, want)]
                if got["run_id"] is None:  # traces keyed by line number
                    got["traces"] = list(got["traces"].values())
                    want["traces"] = list(want["traces"].values())
            assert got == want

    def test_the_log(self):
        assert [json.loads(line) for line in self.LINES] == [
            META, _body(VERDICT), _cells(0, 0), _body(TRACE, 1), _line(1, src_ip="10.0.3.4",
                                                                       src_port=1)]

    @pytest.mark.parametrize("at", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("pad", [b" ", b"\t", b"\r", b" \t\r \r"])
    def test_json_whitespace_pads_a_line(self, tmp_path, at, pad):
        lines = list(self.LINES)
        lines[at] = pad + lines[at][:-1] + pad + b"\n"
        assert log_records(b"".join(lines))[0][-1][1] is not None
        self.check(tmp_path, b"".join(lines))

    # What str.strip() and bytes.strip() would also take, but JSON does not.
    @pytest.mark.parametrize("pad", ["\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\xa0",
                                     "\u2028", "\u3000", "\ufeff"])
    @pytest.mark.parametrize("side", ["before", "after"])
    def test_other_whitespace_is_refused(self, tmp_path, pad, side):
        lines = list(self.LINES)
        pad = pad.encode()
        lines[2] = (pad + lines[2]) if side == "before" else (lines[2][:-1] + pad + b"\n")
        assert log_records(b"".join(lines))[0][-1] == (3, None)
        self.check(tmp_path, b"".join(lines))

    @pytest.mark.parametrize("after", [b" {}", b"}", b"x", b"5", b" []", b"\x00", b" \x0c"])
    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_extra_data_after_the_object(self, tmp_path, after, at):
        lines = list(self.LINES)
        lines[at] = lines[at][:-1] + after + b"\n"
        self.check(tmp_path, b"".join(lines))

    @pytest.mark.parametrize("value", [b"[1, 2]", b"[]", b'"text"', b'""', b"5", b"null",
                                       b"true", b"[{}]"])
    def test_top_level_value_not_an_object(self, tmp_path, value):
        lines = list(self.LINES)
        lines[2] = value + b"\n"
        self.check(tmp_path, b"".join(lines))

    @pytest.mark.parametrize("blank", [b"\n", b" \n", b"\t\r\n", b"\x0b\x0c\n", b" \x0c \n"])
    @pytest.mark.parametrize("at", [1, 2, 4])
    def test_blank_line_mid_file(self, tmp_path, blank, at):
        lines = list(self.LINES)
        lines.insert(at, blank)
        self.check(tmp_path, b"".join(lines))

    @pytest.mark.parametrize("bad", [b"\xff", b"\xc3", b"\xed\xa0\x80", b"\xc0\xaf"])
    @pytest.mark.parametrize("where", [b"http", b'"r"'])
    def test_invalid_utf8(self, tmp_path, bad, where):
        lines = list(self.LINES)
        assert where in lines[2]
        lines[2] = lines[2].replace(where, bad + where, 1)
        self.check(tmp_path, b"".join(lines))

    @pytest.mark.parametrize("tail", [b"{", b'{"body": 0, "run_id": "r"}', b"   ", b"\x0c",
                                      b"\xff"])
    def test_partial_trailing_line(self, tmp_path, tail):
        self.check(tmp_path, b"".join(self.LINES) + tail)

    def test_crlf_line_ends_read(self, tmp_path):
        self.check(tmp_path, b"".join(line[:-1] + b"\r\n" for line in self.LINES))


# --- the read against a per-line reference parser -------------------------

RUN_IDS = ["run-a", "run-b", "run-c"]
ADDRESSES = ["10.0.3.4", "10.0.7.1", "192.0.2.9"]
TERMINALS = ["reached", "exhausted", "censored@?", "censored@1"] * 3 + ["censored@0",
                                                                        "censored@12"]
#: Tags whose JSON needs escapes: quotes and backslashes, text that is
#: not ASCII, and the escaped text of a cell record's fields.
TAGS = ["", "bp-01", 'say "hi"', "back\\slash", "na\u00efve \u2603", ', "first": 0, "cells": [0]']
#: Seeds a meta record may hold: only an integer in 0..2**64-1 draws a plan.
SEEDS = [1, 2] * 10 + ["1", -1, None, True]
#: How a line is written: mostly with sorted keys, else by hand.
STYLES = ["sorted"] * 40 + ["shuffled", "utf-8", "duplicate key first", "nested"] * 2
#: What one line of a log may do wrong, if any does: a leading zero is
#: not JSON, and a duplicate key's last value is the one read.
FAULTS = [None, "line before its body", "unknown id", "id of another run", "redefined id",
          "same body again", "skipped id", "another body's id", "first off by one",
          "leading zero", "duplicate key last"]
#: The cells a record holds in these logs, so that a few dozen lines
#: close records, short and whole.
PER_RECORD = 3


def _reference_terminal(text):
    if text.startswith("censored@"):
        where = text[len("censored@"):]
        if where == "?":
            return Terminal(TerminalKind.CENSORED_AT, None)
        if not (where.isascii() and where.isdigit() and where[0] != "0"):
            raise ValueError(text)
        return Terminal(TerminalKind.CENSORED_AT, int(where))
    return Terminal(TerminalKind(text))


def _reference_trace(body, source):
    hops, terminal = tuple(body["hops"]), _reference_terminal(body["terminal"])
    if len(hops) > MAX_TTL_CEILING or (terminal.censored_at or 0) > len(hops):
        raise ValueError(f"{body['terminal']} outside a ladder of {len(hops)}")
    return TracePath(Ipv4Address(ip_to_int(body["dst"])), source, AppProtocol(body["protocol"]),
                     hops, terminal)


def _reference_source(r, body, seed):
    """The source of trace line r, whose body is body, in a run of seed;
    ValueError if it has none."""
    if "sample_index" in r or "grid_index" in r:
        if type(seed) is not int or not 0 <= seed < 2**64:
            raise ValueError("no seed")
        if "sample_index" in r:
            plans = {p.variation.value: p.samples for p in plan_rq1(
                Ipv4Address(ip_to_int(body["dst"])), AppProtocol(body["protocol"]), seed)}
            plan, index = plans[body.get("variation")], r["sample_index"]
        else:
            plan, index = rq2_grid(seed), r["grid_index"]
        if type(index) is not int or not 0 <= index < len(plan):
            raise ValueError(index)
        return plan[index]
    if type(r["src_port"]) is not int:
        raise ValueError(r["src_port"])
    return SourceParams(Ipv4Address(ip_to_int(r["src_ip"])), r["src_port"])


def _reference_run(lines, run_id):
    """What read_run should give, one line at a time with json.loads
    (reference.log_records), each line's bodies resolved by (run_id,
    body id), nothing shared: (verdicts, traces, run_ids, repetitions,
    bodies recorded by run_id), or the error class and line number it
    should raise."""
    verdicts, traces, run_ids, repetitions, owners = {}, {}, set(), set(), {}
    bodies, seeds, counts = {}, {}, {}  # (run, id) -> body; run -> seed; matrix -> cells
    for lineno, r in log_records(b"".join(lines))[0]:
        if r is None:
            return logio.CorruptRecordError, lineno
        if r.get("record_kind") == "meta":
            run_ids.add(r["run_id"])
            seeds.setdefault(r["run_id"], r.get("seed"))
            continue
        run = r["run_id"]
        if run_id is not None and run != run_id:
            continue
        if r.get("record_kind") == "body":
            key = (run, r["body"])
            if key in bodies:
                if json.dumps(bodies[key], sort_keys=True) != json.dumps(r, sort_keys=True):
                    return logio.CorruptRecordError, lineno
                continue
            if r["body"] != sum(1 for other, _ in bodies if other == run):
                return logio.CorruptRecordError, lineno
            bodies[key] = r
            try:
                if r["kind"] == "trace":
                    _reference_trace(r, None)
                else:
                    repetitions |= {len(r["control"]), len(r["sensitive"])}
            except ValueError:
                return logio.CorruptRecordError, lineno
            continue
        if "cells" in r:
            ids, matrix = r["cells"], (run, r["dst"], r["protocol"])
            cited = [bodies.get((run, i)) for i in ids if type(i) is int]
            seed, done = seeds.get(run), counts.get(matrix, 0)
            if (len(cited) != len(ids) or not 0 < len(ids) <= PER_RECORD
                    or any(b is None or (b["kind"], b["dst"], b["protocol"]) != (
                        "verdict", r["dst"], r["protocol"]) for b in cited)
                    or type(r["first"]) is not int or r["first"] != done or done % PER_RECORD
                    or type(seed) is not int or not 0 <= seed < 2**64
                    or done + len(ids) > 1664):
                return logio.CorruptRecordError, lineno
            counts[matrix] = done + len(ids)
            dst = (Ipv4Address(ip_to_int(r["dst"])), AppProtocol(r["protocol"]))
            if run_id is None and owners.setdefault(dst, run) != run:
                return logio.MixedRunsError, lineno
            for source, body in zip(rq2_grid(seed)[done:], cited):
                mechanism = None if body["mechanism"] is None else Mechanism(body["mechanism"])
                verdicts.setdefault(dst, {})[source] = Verdict(VerdictKind(body["verdict"]),
                                                               mechanism)
            continue
        body = bodies.get((run, r["body"])) if type(r["body"]) is int else None
        try:
            if body is None or body["kind"] != "trace":
                raise ValueError(r["body"])
            trace = _reference_trace(body, _reference_source(r, body, seeds.get(run)))
        except (ValueError, KeyError):
            return logio.CorruptRecordError, lineno
        if run_id is None:
            traces[lineno] = trace
        elif "sample_index" in r:
            traces[(body["variation"], r["sample_index"])] = trace
        else:
            traces[(trace.dst_ip, trace.protocol, trace.source)] = trace
    recorded = sum(1 for run, _ in bodies if run == run_id)
    return verdicts, traces, run_ids, repetitions, recorded


def _styled(record, style, rng):
    """The line of record, written in style."""
    if style == "shuffled":
        keys = list(record)
        rng.shuffle(keys)
        record = {k: record[k] for k in keys}
    text = json.dumps(record, sort_keys=style != "shuffled", ensure_ascii=style != "utf-8")
    other = '"run_id": "run-z"'
    if style == "duplicate key first":
        text = "{" + other + ", " + text[1:]
    elif style == "duplicate key last":
        text = text[:-1] + ", " + other + "}"
    elif style == "nested":
        text = text[:-1] + ', "extra": {"first": 0, "body": 9, "cells": [1]}}'
    elif style == "leading zero":
        text = re.sub(r"(: \[?)([1-9])", r"\g<1>0\2", text, count=1)
    return (text + "\n").encode()


def _log(seeds, bodies, picks, fault, at, rng):
    """The lines of a v4 log: a meta record per run, with its seed from
    seeds, then the lines of picks, each of which takes one of bodies:
    another meta record of a run, with a seed; a few cells of a verdict
    body's matrix, in its open cell record, which closes at PER_RECORD
    cells or when a pick takes another; or a trace line of a trace body,
    of one of the three forms (a sample index only on a body with a
    variation). Each body record is written before the first record or
    line that cites it; the first pick from index at on where fault can
    apply has it."""
    ids = {run: {} for run in RUN_IDS}  # run -> body text -> id
    counts = {}  # matrix -> cells written
    cell = {"key": None, "ids": [], "before": [], "after": [], "style": "sorted", "off": 0}
    lines = [_styled(logio.make_record(logio.KIND_META, run, seed=seed), "sorted", rng)
             for run, seed in zip(RUN_IDS, seeds)]

    def put(line, style):
        lines.append(_styled(line, style, rng))

    def close():
        if cell["ids"]:
            run, dst, protocol = cell["key"]
            for line in cell["before"]:
                put(line, cell["style"])
            first = counts.get(cell["key"], 0)
            put({"cells": cell["ids"], "dst": dst, "first": first + cell["off"],
                 "protocol": protocol, "run_id": run}, cell["style"])
            counts[cell["key"]] = first + len(cell["ids"])
            for line in cell["after"]:
                put(line, cell["style"])
        cell.update(key=None, ids=[], before=[], after=[], off=0)

    for i, (pick, form, index, src_ip, src_port, style) in enumerate(picks):
        body = dict(bodies[pick % len(bodies)])
        if body["record_kind"] == "meta":
            close()
            put({**body, "seed": SEEDS[index % len(SEEDS)]}, style)
            continue
        run = body["run_id"]
        key = (run, body["dst"], body["protocol"]) if body["kind"] == "verdict" else None
        if key is None or key != cell["key"]:
            close()
        text = json.dumps(body, sort_keys=True)
        known = ids[run]
        ahead = [r for r in RUN_IDS if len(ids[r]) > len(known)]
        new = text not in known
        if new:
            known[text] = len(known)
        body_id = known[text]
        records = cell["before"] if key else []  # the body records in front of the citing line
        later = cell["after"] if key else []
        due = fault if i >= at else None
        if due == "line before its body" and new:
            later.append({"body": body_id, **body})
        elif due == "unknown id":
            body_id = len(known) + 7
        elif due == "id of another run" and ahead:
            body_id = len(ids[ahead[0]]) - 1
        elif due == "another body's id" and len(known) > 1:
            body_id = (body_id + 1) % len(known)
        elif due == "redefined id" and len(known) > 1 and known[text] != 0:
            records.append({"body": 0, **body})
        elif due == "same body again" and not new:
            records.append({"body": body_id, **body})
        elif due == "skipped id":
            records.append({"body": len(known) + 1, **body})
        elif due == "first off by one" and key:
            cell["off"] = 1
        elif due in ("leading zero", "duplicate key last"):
            style = due
        else:
            due = None  # not here; a later pick may do
        if due is not None:
            fault = None
        if new and due != "line before its body":
            records.append({"body": known[text], **body})
        if key:
            cell.update(key=key, style=style)
            for _ in range(1 + index % 5):
                cell["ids"].append(body_id)
                if len(cell["ids"]) == PER_RECORD:
                    close()
                    cell.update(key=key, style=style)
            continue
        line = {"body": body_id, "run_id": run}
        if form == "sample" and "variation" in body:
            line["sample_index"] = index
        elif form == "grid":
            line["grid_index"] = index * 97
        else:
            line.update(src_ip=src_ip, src_port=src_port)
        for record in records + [line] + later:
            put(record, style)
    close()
    return lines


_flow = st.fixed_dictionaries({
    "run_id": st.sampled_from(RUN_IDS),
    "dst": st.sampled_from(ADDRESSES[:2]),
    "protocol": st.sampled_from([p.value for p in AppProtocol]),
})
_outcomes = st.lists(
    st.tuples(st.integers(1, 3), st.sampled_from([k.value for k in ObservationKind]),
              st.sampled_from(TAGS)).map(list),
    min_size=1, max_size=3)
_verdict = st.one_of(
    st.sampled_from([(VerdictKind.NOT_CENSORED.value, None), (VerdictKind.EXCLUDED.value, None)]),
    st.sampled_from([(VerdictKind.CENSORED.value, m.value) for m in Mechanism]),
)
_verdict_body = st.builds(
    lambda flow, verdict, control, sensitive: dict(
        record_kind="body", kind="verdict", schema_version=4, verdict=verdict[0],
        mechanism=verdict[1], control=control, sensitive=sensitive, **flow),
    _flow, _verdict, _outcomes, _outcomes)
_trace_body = st.builds(
    lambda flow, hops, terminal, extra: dict(
        record_kind="body", kind="trace", schema_version=4, hops=hops, terminal=terminal,
        **extra, **flow),
    _flow, st.lists(st.one_of(st.none(), st.integers(0, 40)), min_size=1, max_size=6),
    st.sampled_from(TERMINALS),
    st.sampled_from([{}, {"variation": "vary_ip"}, {"variation": "vary_both"}]))
_meta_body = st.builds(
    lambda run_id: logio.make_record(logio.KIND_META, run_id, command="rq2"),
    st.sampled_from(RUN_IDS))
#: A pick: which body, its trace line's form and index (or its meta's
#: seed), a trace --out line's source, and how it is written.
_pick = st.tuples(
    st.integers(0, 7), st.sampled_from(["sample", "grid", "source"]), st.integers(0, 17),
    st.sampled_from(ADDRESSES + ["198.51.100.7"]), st.sampled_from([0, 53, 40000, 65535]),
    st.sampled_from(STYLES))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from(SEEDS), min_size=len(RUN_IDS), max_size=len(RUN_IDS)),
       st.lists(st.one_of(_verdict_body, _trace_body, _meta_body), min_size=1, max_size=8),
       st.lists(_pick, min_size=20, max_size=80), st.randoms(use_true_random=False),
       st.sampled_from(FAULTS), st.integers(0, 59))
def test_read_equals_reference(tmp_path_factory, seeds, bodies, picks, rng, fault, at):
    """Lines draw their bodies from a few, so most cite a body recorded
    before; each read equals a per-line json.loads reference that
    resolves body ids and draws planned sources itself, or raises the
    same error at the same line. One pick, at or after pick at, may have
    a fault."""
    lines = _log(seeds, bodies, picks, fault, at, rng)
    path = tmp_path_factory.mktemp("log") / "run.log"
    path.write_bytes(b"".join(lines))
    with mock.patch.object(logio, "CELLS_PER_RECORD", PER_RECORD):
        for run_id in [None, *RUN_IDS]:
            expected = _reference_run(lines, run_id)
            if len(expected) == 2:
                error, lineno = expected
                with pytest.raises(error, match=rf"run\.log line {lineno}: "):
                    logio.read_run(path, run_id)
                continue
            run = logio.read_run(path, run_id)
            verdicts, traces, run_ids, repetitions, recorded = expected
            assert run.verdicts == verdicts
            assert list(run.verdicts) == list(verdicts)
            for key, matrix in verdicts.items():
                assert list(run.verdicts[key]) == list(matrix)
            assert run.traces == traces
            assert list(run.traces) == list(traces)
            assert (run.run_ids, run.repetitions) == (run_ids, repetitions)
            assert run.next_body == recorded
            # the destination of a (destination, protocol), and a ladder, are
            # each one shared object
            destinations = {(d, p): d for d, p in run.verdicts}
            for t in run.traces.values():
                assert destinations.setdefault((t.dst_ip, t.protocol), t.dst_ip) is t.dst_ip
            ladders = [t.hops for t in run.traces.values()]
            assert len({id(h) for h in ladders}) == len(set(ladders))


#: A ladder: node ids and gaps, up to the longest a trace may climb.
_ladders = st.lists(st.one_of(st.none(), st.integers(0, 2**16)), max_size=MAX_TTL_CEILING).map(
    tuple)
_terminals = st.one_of(
    st.sampled_from([Terminal(TerminalKind.REACHED_DESTINATION),
                     Terminal(TerminalKind.EXHAUSTED),
                     Terminal(TerminalKind.HANDSHAKE_FAILED),
                     Terminal(TerminalKind.CENSORED_AT, None)]),
    st.builds(Terminal, st.just(TerminalKind.CENSORED_AT), st.integers(1, MAX_TTL_CEILING)))
#: Sources, often on an address of a small pool that other ports share.
_sources = st.builds(SourceParams, st.builds(Ipv4Address, st.one_of(
    st.sampled_from([0xC6336401, 0xC6336407, 0x0A000007]), st.integers(0, 2**32 - 1))),
    st.integers(0, 2**16 - 1))
#: What fixes a line's source: a sample index, a grid index, or none.
_indexes = st.one_of(st.none(), st.tuples(st.sampled_from(["sample_index", "grid_index"]),
                                          st.integers(0, 10**6)))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(_ladders, _terminals), max_size=4),
       st.lists(st.tuples(st.integers(0, 5), _sources, _indexes), max_size=24),
       st.sampled_from(list(AppProtocol)), st.booleans(), st.text(max_size=4))
def test_shared_trace_lines_equal_plain_encoding(results, cells, protocol, rq1, run_id):
    """Each trace line SharedLines writes is JSON with sorted keys and
    holds the id of the body record of its trace's own record, its
    run_id, and its sample or grid index if it has one, else its source;
    with and without rq1's variation, whichever result and fields it
    has. A body record comes once per distinct body, in front of its
    first line, with the run's next id. The first two results share one
    ladder object, the empty tuple, and differ in their terminal, so a
    memo keyed on the ladder alone would give the second the first
    one's body."""
    results = [((), Terminal(TerminalKind.REACHED_DESTINATION)),
               ((), Terminal(TerminalKind.EXHAUSTED)), *results]
    source = SourceParams(Ipv4Address.parse("198.51.100.7"), 40000)
    cells = [(0, source, None), (1, source, None), *cells]
    fixed = {"variation": "vary_both"} if rq1 else {}
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "run.log"
        path.touch()
        log = logio.RunLog(path, run_id, {}, {}, set())
        lines = logio.SharedLines(log, DST, protocol, **fixed)
        bodies = {}
        for pick, source, index in cells:
            hops, terminal = results[pick % len(results)]
            trace = TracePath(DST, source, protocol, hops, terminal)
            body, _ = split_record(trace_record(run_id, trace, **fixed))
            start = path.stat().st_size
            lines.trace(trace, *[index[1] if index and index[0] == name else None
                                 for name in ("sample_index", "grid_index")])
            lines.flush()
            with open(path, encoding="utf-8") as fh:
                fh.seek(start)
                written = fh.read().splitlines(keepends=True)
            decoded = [json.loads(line) for line in written]
            assert written == [logio.encode_record(line) for line in decoded]
            text = json.dumps(body, sort_keys=True)
            if text not in bodies:
                bodies[text] = len(bodies)
                assert decoded.pop(0) == {"body": bodies[text], **body}
            fields = {"src_ip": str(source.src_ip), "src_port": source.src_port} if index is None \
                else dict([index])
            assert decoded == [{"body": bodies[text], "run_id": run_id, **fields}]
