import json
import random
import re
import tempfile
import warnings
from pathlib import Path

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


def random_cell(rng, i, hosts=254):
    params = SourceParams(
        Ipv4Address.parse(f"198.51.100.{rng.randrange(1, hosts + 1)}"),
        rng.randrange(32768, 61000)
    )
    control = [Observation(e, ObservationKind.PAYLOAD_RESPONSE, "origin:control.example")
               for e in (1, 2, 3)]
    sensitive = [Observation(e, rng.choice(list(ObservationKind)), rng.choice(["", "bp-01"]))
                 for e in (1, 2, 3)]
    verdict = rng.choice(
        [Verdict.censored(Mechanism.RST_INJECTION), Verdict.not_censored(), Verdict.excluded()]
    )
    protocol = AppProtocol.HTTP if i % 2 else AppProtocol.HTTPS
    return DST, protocol, params, control, sensitive, verdict


def _canonical(path):
    """Whether each line of the log is its JSON with sorted keys."""
    return all(line == json.dumps(json.loads(line), sort_keys=True)
               for line in path.read_text().splitlines())


def test_round_trip_1000_records(tmp_path):
    # With three hosts, most lines share their address with other ports'.
    for hosts in (254, 3):
        path = tmp_path / f"run_{hosts}.log"
        rng = random.Random(0)
        cells = [random_cell(rng, i, hosts) for i in range(1000)]
        log = logio.open_run(path, "run-a")
        encoders = {}
        for dst, protocol, params, control, sensitive, verdict in cells:
            encoder = encoders.setdefault(protocol, logio.SharedLines(log, dst, protocol))
            encoder.verdict(CellResult(control, sensitive, verdict), params)
            encoder.flush()  # the two encoders' lines interleave
        records = [verdict_record("run-a", *cell) for cell in cells]
        meta = {"record_kind": "meta", "run_id": "run-a", "schema_version": 3}
        assert logio.read_log(path) == [meta, *records]
        assert path.read_bytes() == log_bytes([meta, *records])
        assert _canonical(path)

        run = logio.read_run(path)
        expected = {}
        for dst, protocol, params, _, _, verdict in cells:
            expected.setdefault((dst, protocol), {})[params] = verdict
        assert run.verdicts == expected
        assert list(run.verdicts) == list(expected)
        for key, matrix in expected.items():
            assert list(run.verdicts[key]) == list(matrix)


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


def test_trace_rows_round_trip(tmp_path):
    trace = TracePath(
        dst_ip=DST,
        source=SourceParams(Ipv4Address.parse("198.51.100.9"), 40404),
        protocol=AppProtocol.HTTPS,
        hops=(0, None, 2),
        terminal=Terminal(TerminalKind.CENSORED_AT, 3),
    )
    path = tmp_path / "run.log"
    log = logio.open_run(path, "run-b")
    lines = logio.SharedLines(log, DST, AppProtocol.HTTPS, variation="vary_ip")
    lines.trace(trace, "t0", 7)
    lines.flush()
    record = logio.read_log(path)[-1]
    assert record == trace_record("run-b", trace, "t0", variation="vary_ip", sample_index=7)
    assert record["hops"] == [0, None, 2]
    assert record["terminal"] == "censored@3"
    assert logio.traces_from_records([record]) == [trace]

    assert path.read_text().count("\n") == 3  # meta, body, trace
    assert logio.read_run(path).traces == {3: trace}
    assert logio.read_run(path, "run-b").traces == {"t0": trace}


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
    params = SourceParams(Ipv4Address.parse("198.51.100.9"), 40404)
    # a second source on the same address, whose line reuses its text
    other = params._replace(src_port=40405)
    control = (Observation(1, ObservationKind.PAYLOAD_RESPONSE, "origin:control.example"),)
    sensitive = (Observation(1, ObservationKind.PAYLOAD_RESPONSE, "bp-01"),)
    for verdict in (
        Verdict.censored(Mechanism.BLOCKPAGE),
        Verdict.not_censored(),
        Verdict.excluded(),
    ):
        path = tmp_path / f"{verdict.kind.value}.log"
        log = logio.open_run(path, "r")
        lines = logio.SharedLines(log, DST, AppProtocol.HTTP)
        result = CellResult(control, sensitive, verdict)
        lines.verdict(result, params)
        lines.verdict(result, other)
        lines.flush()
        *_, first, record = logio.read_log(path)
        assert [(r["src_ip"], r["src_port"]) for r in (first, record)] == [
            ("198.51.100.9", 40404), ("198.51.100.9", 40405)]
        assert logio.parse_verdict(record) == verdict
        assert record["control"] == [[1, "payload_response", "origin:control.example"]]
        assert record["sensitive"] == [[1, "payload_response", "bp-01"]]


def test_v1_log_rejected(tmp_path):
    path = tmp_path / "run.log"
    record = logio.make_record(logio.KIND_META, "r")
    record["schema_version"] = 1
    path.write_text(json.dumps(record) + "\n")
    with pytest.raises(logio.SchemaVersionUnknownError, match="line 1: schema_version 1"):
        logio.read_run(path)


def test_v2_log_rejected_with_what_to_do(tmp_path):
    path = tmp_path / "run.log"
    lines = [{"record_kind": "meta", "run_id": "r", "schema_version": 2},
             {**trace_record("r", TracePath(DST, SourceParams(DST, 1), AppProtocol.DNS, (),
                                            Terminal(TerminalKind.EXHAUSTED)), "t0"),
              "schema_version": 2}]
    for lineno, start in ((1, 0), (1, 1)):
        path.write_text("".join(json.dumps(line) + "\n" for line in lines[start:]))
        with pytest.raises(logio.SchemaVersionUnknownError,
                           match=f"line {lineno}: schema_version 2, .*fresh --out"):
            logio.read_run(path)


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
        logio.open_run(path, "r2")
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


def _verdict_line(drop=None, **changes):
    """One verdict line with its body merged in, with changes applied and
    drop removed."""
    params = SourceParams(Ipv4Address.parse("198.51.100.9"), 40404)
    control = [Observation(1, ObservationKind.PAYLOAD_RESPONSE, "")]
    record = verdict_record("r", DST, AppProtocol.HTTP, params, control, control,
                            Verdict.not_censored())
    record.update(changes)
    record.pop(drop, None)
    return record


def _trace_line(drop=None, **changes):
    """One trace line with its body merged in, to DST, with changes
    applied and drop removed."""
    trace = TracePath(DST, SourceParams(DST, 1), AppProtocol.DNS, (),
                      Terminal(TerminalKind.EXHAUSTED))
    record = trace_record("r", trace, "t0")
    record.update(changes)
    record.pop(drop, None)
    return record


META = {"record_kind": "meta", "run_id": "r", "schema_version": 3}


class TestMalformedRecord:
    """A complete line that is JSON but not a well-formed record is a data
    error naming the file and the line, like a line that is not JSON.

    The log holds a meta record, a good line and the bad one, each line
    after the body record it cites (reference.log_lines). The bad line
    shares the good one's body when only its cell fields differ, so
    either way the first line the bad one adds, line 4, is the one to
    refuse: its body record, or its own line."""

    def read(self, tmp_path, bad_line, good_line=None, mangle=None, run_id=None):
        path = tmp_path / "run.log"
        lines = log_bytes([META, good_line or _verdict_line(), bad_line]).splitlines(
            keepends=True)
        if mangle is not None:
            lines[3] = mangle(lines[3])
        path.write_bytes(b"".join(lines))
        with pytest.raises(logio.CorruptRecordError, match=r"run\.log line 4: ") as info:
            logio.read_run(path, run_id)
        return str(info.value)

    def test_missing_field(self, tmp_path):
        assert self.read(tmp_path, _verdict_line(drop="dst")).endswith("missing field 'dst'")

    def test_bad_enum_value(self, tmp_path):
        assert "'maybe'" in self.read(tmp_path, _verdict_line(verdict="maybe"))

    def test_bad_address(self, tmp_path):
        assert "10.0.3.256" in self.read(tmp_path, _verdict_line(src_ip="10.0.3.256"))

    # An address is ASCII digits: str.isdigit() and int() would read
    # Arabic-Indic "١٠" as 10 and fullwidth "１" as 1.
    @pytest.mark.parametrize("src_ip", ["\u0661\u0660.0.0.1", "10.0.0.\uff11"])
    @pytest.mark.parametrize("line", [_verdict_line, _trace_line])
    def test_address_of_other_scripts_digits(self, tmp_path, line, src_ip):
        assert repr(src_ip) in self.read(tmp_path, line(src_ip=src_ip), good_line=line())

    def test_bad_port(self, tmp_path):
        assert "port out of range" in self.read(tmp_path, _verdict_line(src_port=70000))

    # A port is a JSON integer, not a boolean, a fraction or a string.
    @pytest.mark.parametrize("port", [True, False, 2.5, 40404.0, "40404", None, [40404]])
    def test_port_is_an_integer(self, tmp_path, port):
        assert "src_port" in self.read(tmp_path, _verdict_line(src_port=port))

    # The same bad ports, each after a line whose port JSON compares equal
    # to it, on the verdict and on the trace path.
    @pytest.mark.parametrize("good, bad", [(1, True), (0, False), (40404, 40404.0)])
    @pytest.mark.parametrize("line", [_verdict_line, _trace_line])
    def test_port_after_an_equal_good_port(self, tmp_path, line, good, bad):
        self.read(tmp_path, line(src_port=bad), good_line=line(src_port=good))

    # A trace line's trace_id is a JSON string, read for one run or for all.
    @pytest.mark.parametrize("run_id", [None, "r"])
    @pytest.mark.parametrize("changes", [{"trace_id": 5}, {"trace_id": None},
                                         {"trace_id": True}, {"trace_id": ["t1"]},
                                         {"drop": "trace_id"}],
                             ids=["5", "null", "true", "list", "missing"])
    def test_trace_id_is_a_string(self, tmp_path, capsys, changes, run_id):
        error = self.read(tmp_path, _trace_line(**changes), good_line=_trace_line(),
                          run_id=run_id)
        assert "trace_id" in error
        code = cli_main(["graph", "--log", str(tmp_path / "run.log"), "--dest", str(DST),
                         "--out", str(tmp_path / "g")])
        assert code == 2
        assert "run.log line 4: " in capsys.readouterr().err
        assert list(tmp_path.glob("g_*")) == []

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
        self.read(tmp_path, _verdict_line(**{field: entries}))

    # Both lists are empty only for an Excluded cell that its transport
    # could not carry (experiments.run_rq2).
    @pytest.mark.parametrize("control, sensitive, verdict", [
        ([], [], "not_censored"), ([], [[1, "no_response", ""]], "excluded"),
        ([[1, "no_response", ""]], [], "excluded")])
    def test_empty_outcomes(self, tmp_path, control, sensitive, verdict):
        assert "empty" in self.read(tmp_path, _verdict_line(
            control=control, sensitive=sensitive, verdict=verdict))

    def test_bad_terminal(self, tmp_path):
        # A TTL is ASCII digits of an integer >= 1, as terminal_str writes it.
        for terminal in ["censored@x", "censored@-1", "censored@ 3", "censored@+3",
                         "censored@\u0663", "censored@0", "censored@03"]:
            assert repr(terminal) in self.read(tmp_path, _trace_line(terminal=terminal))

    # SharedLines writes a null mechanism on a verdict that is not
    # censored, and always writes the field.
    @pytest.mark.parametrize("verdict", ["excluded", "not_censored"])
    def test_mechanism_on_an_uncensored_verdict(self, tmp_path, verdict):
        assert "mechanism 'drop'" in self.read(
            tmp_path, _verdict_line(verdict=verdict, mechanism="drop"))

    @pytest.mark.parametrize("changes", [{"mechanism": 5}, {"drop": "mechanism"}],
                             ids=["mechanism_5", "no_mechanism"])
    def test_mechanism_after_an_equal_verdict(self, tmp_path, changes):
        self.read(tmp_path, _verdict_line(verdict="excluded", **changes),
                  good_line=_verdict_line(verdict="excluded"))

    # A ladder is a list of node ids (integers >= 0, not booleans) and nulls.
    @pytest.mark.parametrize("hops", ["0x", "", [0, "x"], [True, 2.5], [3, -1], [1.0],
                                      [None, [2]], {"0": 1}, None])
    def test_bad_ladder(self, tmp_path, hops):
        self.read(tmp_path, _trace_line(hops=hops))

    # A ladder holds at most MAX_TTL_CEILING hops, and a censored
    # terminal's TTL is one of its positions, as tracer.trace writes them.
    @pytest.mark.parametrize("hops, terminal", [
        ([1], "censored@999"), ([], "censored@1"), ([1, None], "censored@3"),
        ([1] * (MAX_TTL_CEILING + 1), "exhausted"), ([None] * (MAX_TTL_CEILING + 1), "reached"),
    ])
    def test_terminal_outside_its_ladder(self, tmp_path, hops, terminal):
        assert "ladder" in self.read(tmp_path, _trace_line(hops=hops, terminal=terminal))

    def test_terminal_at_its_ladder_end_reads(self, tmp_path):
        path = tmp_path / "run.log"
        hops = [None] * (MAX_TTL_CEILING - 1) + [7]
        line = _trace_line(hops=hops, terminal=f"censored@{MAX_TTL_CEILING}")
        path.write_bytes(log_bytes([line]))
        (trace,) = logio.read_run(path).traces.values()
        assert trace.terminal == Terminal(TerminalKind.CENSORED_AT, MAX_TTL_CEILING)
        assert len(trace.hops) == MAX_TTL_CEILING

    @pytest.mark.parametrize("bad", [[1.0], [True]])
    def test_bad_ladder_after_an_equal_good_one(self, tmp_path, bad):
        self.read(tmp_path, _trace_line(hops=bad), good_line=_trace_line(hops=[1]))

    @pytest.mark.parametrize("hops", ["0x", [0, "x"], [True, 2.5]])
    def test_graph_exits_2_on_a_bad_ladder(self, tmp_path, capsys, hops):
        self.read(tmp_path, _trace_line(hops=hops))
        code = cli_main(["graph", "--log", str(tmp_path / "run.log"), "--dest", str(DST),
                         "--out", str(tmp_path / "g")])
        assert code == 2
        assert "run.log line 4: " in capsys.readouterr().err
        assert list(tmp_path.glob("g_*")) == []

    def test_extra_data_after_the_object(self, tmp_path):
        assert "Extra data" in self.read(tmp_path, _verdict_line(),
                                         mangle=lambda line: line.replace(b"}\n", b"} {}\n"))

    def test_invalid_utf8(self, tmp_path):
        error = self.read(tmp_path, _verdict_line(),
                          mangle=lambda line: line.replace(b"198.51", b"\xff98.51"))
        assert "utf-8" in error

    def test_cli_exits_2_naming_the_line(self, tmp_path, capsys):
        self.read(tmp_path, _verdict_line(drop="dst"))
        code = cli_main(["bits", "--log", str(tmp_path / "run.log"), "--group-by",
                         "src_ip_low3"])
        assert code == 2
        assert "run.log line 4: missing field 'dst'" in capsys.readouterr().err


class TestBodyIds:
    """A line cites a body its own run recorded on an earlier line; a run
    numbers its bodies 0, 1, ... and never gives an id other content."""

    BODY, CELLS = split_record(_verdict_line())
    OTHER = {**BODY, "verdict": "excluded"}

    def write(self, tmp_path, *lines):
        path = tmp_path / "run.log"
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        return path

    @pytest.mark.parametrize("lines, lineno, message", [
        pytest.param([META, {"body": 0, **CELLS}, {"body": 0, **BODY}], 2, "cites body 0",
                     id="line-before-its-body"),
        pytest.param([META, {"body": 0, **BODY}, {"body": 1, **CELLS}], 3, "cites body 1",
                     id="unknown-id"),
        pytest.param([META, {"body": 0, **BODY}, {"body": True, **CELLS}], 3, "not an integer",
                     id="boolean-id"),
        pytest.param([META, {"body": 0, **BODY}, {"body": 0, **OTHER}], 3, "redefines body 0",
                     id="redefined-id"),
        pytest.param([META, {"body": 1, **BODY}], 2, "not run 'r''s next id, 0",
                     id="skipped-id"),
        pytest.param([META, {"body": "0", **BODY}], 2, "not an integer", id="string-id"),
        pytest.param([META, {"body": 0, **BODY, "kind": "meta"}], 2, "body of kind 'meta'",
                     id="meta-body"),
        pytest.param([META, _verdict_line()], 2, "record_kind 'verdict'", id="v2-style-line"),
    ])
    @pytest.mark.parametrize("run_id", [None, "r"])
    def test_refused(self, tmp_path, lines, lineno, message, run_id):
        path = self.write(tmp_path, *lines)
        with pytest.raises(logio.CorruptRecordError, match=rf"run\.log line {lineno}: "
                                                           rf".*{re.escape(message)}"):
            logio.read_run(path, run_id)
        with pytest.raises(logio.CorruptRecordError, match=rf"run\.log line {lineno}: "):
            logio.read_log(path)

    def test_id_of_another_run(self, tmp_path):
        other = {**self.BODY, "run_id": "s"}
        path = self.write(tmp_path, META, {**META, "run_id": "s"}, {"body": 0, **other},
                          {"body": 0, **self.CELLS})
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
        path = self.write(tmp_path, META, {"body": 0, **self.BODY})
        with open(path, "a") as fh:
            fh.write(again({"body": 0, **self.BODY}) + "\n" + json.dumps(
                {"body": 0, **self.CELLS}) + "\n")
        for run_id in (None, "r"):
            assert logio.read_run(path, run_id).verdicts == {(DST, AppProtocol.HTTP): {
                SourceParams(Ipv4Address.parse("198.51.100.9"), 40404):
                    Verdict.not_censored()}}

    # Another value, also one Python finds equal (1.0 and True == 1), or
    # another field: each is other content under the same id.
    @pytest.mark.parametrize("changes", [
        {"dst": "10.0.3.5"}, {"control": [[1.0, "payload_response", ""]]},
        {"sensitive": [[True, "payload_response", ""]]}, {"schema_version": 3.0},
        {"note": None}, {"kind": "trace"}],
        ids=["dst", "epoch-1.0", "epoch-true", "version-3.0", "extra-field", "kind"])
    def test_changed_content_under_the_same_id_is_refused(self, tmp_path, changes):
        path = self.write(tmp_path, META, {"body": 0, **self.BODY},
                          dict(reversed(list({"body": 0, **self.BODY, **changes}.items()))))
        for run_id in (None, "r"):
            with pytest.raises(logio.CorruptRecordError, match=r"line 3: redefines body 0"):
                logio.read_run(path, run_id)

    def test_same_content_again_reads(self, tmp_path):
        path = self.write(tmp_path, META, {"body": 0, **self.BODY}, {"body": 0, **self.BODY},
                          {"body": 0, **self.CELLS})
        run = logio.read_run(path, "r")
        assert run.verdicts == {(DST, AppProtocol.HTTP): {
            SourceParams(Ipv4Address.parse("198.51.100.9"), 40404): Verdict.not_censored()}}
        assert (run.next_body, list(run.bodies.values())) == (1, [0])


class TestReadsAsJsonLoads:
    """A line reads as json.loads reads its UTF-8 text, and no other way
    (reference.log_records): JSON whitespace may pad it, a blank line
    holds no record, a partial last line is dropped with a warning, and
    a line json.loads refuses, or whose value is not an object, is
    refused at its line number. The log holds a meta record, two verdict
    lines of one body and a trace line, one of them changed."""

    LINES = log_bytes([META, _verdict_line(), _verdict_line(src_ip="198.51.100.10"),
                       _trace_line()]).splitlines(keepends=True)

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
    @pytest.mark.parametrize("where", [b"198.51", b'"r"'])
    def test_invalid_utf8(self, tmp_path, bad, where):
        lines = list(self.LINES)
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
ADDRESSES = ["10.0.3.4", "10.0.7.1", "192.0.2.9", "198.51.100.7", "198.51.100.200"]
TERMINALS = ["reached", "exhausted", "censored@?", "censored@0", "censored@3", "censored@12"]
#: Tags and trace ids whose JSON needs escapes: quotes and backslashes,
#: text that is not ASCII, and the escaped text of a source; and trace
#: ids that are not strings.
TAGS = ["", "bp-01", 'say "hi"', "back\\slash", "naïve ☃",
        ', "src_ip": "10.0.3.4", "src_port": 53']
TRACE_IDS = ["t0", "t1", "10.0.3.4|http|198.51.100.7:40000", 't"2', "t\\3", "tö"] * 6 + [
    5, None, True]
#: How a line is written: mostly with sorted keys, else by hand. A
#: leading zero port is not JSON, so it ends most reads it is in.
STYLES = ["sorted"] * 40 + ["shuffled", "utf-8", "src_ip first", "duplicate src_ip first",
                            "duplicate src_ip last", "nested source"] * 2 + ["leading zero port"]
#: What one line of a log may do wrong with body ids, if any does.
FAULTS = [None] + ["line before its body", "unknown id", "id of another run",
                       "redefined id", "same body again", "skipped id", "no trace_id"]


def _reference_terminal(text):
    if text.startswith("censored@"):
        where = text[len("censored@"):]
        if where == "?":
            return Terminal(TerminalKind.CENSORED_AT, None)
        if not (where.isascii() and where.isdigit() and where[0] != "0"):
            raise ValueError(text)
        return Terminal(TerminalKind.CENSORED_AT, int(where))
    return Terminal(TerminalKind(text))


def _reference_trace(r):
    hops, terminal = tuple(r["hops"]), _reference_terminal(r["terminal"])
    if len(hops) > MAX_TTL_CEILING or (terminal.censored_at or 0) > len(hops):
        raise ValueError(f"{r['terminal']} outside a ladder of {len(hops)}")
    return TracePath(
        dst_ip=Ipv4Address(ip_to_int(r["dst"])),
        source=SourceParams(Ipv4Address(ip_to_int(r["src_ip"])), r["src_port"]),
        protocol=AppProtocol(r["protocol"]),
        hops=hops,
        terminal=terminal,
    )


def _reference_run(lines, run_id):
    """What read_run should give, one line at a time with json.loads
    (reference.log_records),
    each line's body resolved by (run_id, body id), nothing shared:
    (verdicts, traces, run_ids, repetitions, bodies recorded by run_id),
    or the error class and line number it should raise."""
    verdicts, traces, run_ids, repetitions, owners = {}, {}, set(), set(), {}
    bodies = {}  # (run, id) -> body record
    for lineno, r in log_records(b"".join(lines))[0]:
        if r is None:
            return logio.CorruptRecordError, lineno
        if r.get("record_kind") == "meta":
            run_ids.add(r["run_id"])
            continue
        if run_id is not None and r["run_id"] != run_id:
            continue
        key = (r["run_id"], r["body"])
        if r.get("record_kind") == "body":
            if key in bodies:
                if json.dumps(bodies[key], sort_keys=True) != json.dumps(r, sort_keys=True):
                    return logio.CorruptRecordError, lineno
                continue
            if r["body"] != sum(1 for run, _ in bodies if run == r["run_id"]):
                return logio.CorruptRecordError, lineno
            bodies[key] = r
            try:
                if r["kind"] == "trace":
                    _reference_trace({**r, "src_ip": "0.0.0.0", "src_port": 0})
                else:
                    repetitions |= {len(r["control"]), len(r["sensitive"])}
            except ValueError:
                return logio.CorruptRecordError, lineno
            continue
        if key not in bodies:
            return logio.CorruptRecordError, lineno
        body = bodies[key]
        merged = {**body, **r}
        if body["kind"] == "trace":
            if type(r.get("trace_id")) is not str:
                return logio.CorruptRecordError, lineno
            traces[r["trace_id"] if run_id is not None else lineno] = _reference_trace(merged)
            continue
        dst = (Ipv4Address(ip_to_int(body["dst"])), AppProtocol(body["protocol"]))
        if run_id is None and owners.setdefault(dst, r["run_id"]) != r["run_id"]:
            return logio.MixedRunsError, lineno
        source = SourceParams(Ipv4Address(ip_to_int(r["src_ip"])), r["src_port"])
        mechanism = None if body["mechanism"] is None else Mechanism(body["mechanism"])
        verdicts.setdefault(dst, {})[source] = Verdict(VerdictKind(body["verdict"]), mechanism)
    recorded = sum(1 for run, _ in bodies if run == run_id)
    return verdicts, traces, run_ids, repetitions, recorded


def _write(record, style, rng):
    """The line of record, written in style."""
    if style == "shuffled":
        keys = list(record)
        rng.shuffle(keys)
        record = {k: record[k] for k in keys}
    elif style == "src_ip first" and "src_ip" in record:
        record = {"src_ip": record["src_ip"], **record}
    text = json.dumps(record, sort_keys=style != "shuffled" and style != "src_ip first",
                      ensure_ascii=style != "utf-8")
    other = f'"src_ip": "{ADDRESSES[2]}"'
    if style == "duplicate src_ip first":
        text = "{" + other + ", " + text[1:]
    elif style == "duplicate src_ip last":
        text = text[:-1] + ", " + other + "}"
    elif style == "nested source":
        text = text[:-1] + ', "extra": {' + other + ', "src_port": 53}}'
    elif style == "leading zero port" and "src_port" in record:
        port = f'"src_port": {record["src_port"]}'
        text = text.replace(port, port.replace(": ", ": 0"))
    return (text + "\n").encode()


def _log(records, styles, fault, at, rng):
    """The lines of a log of records (meta records, and verdict and trace
    records with their bodies merged in), each written in its style,
    after the body record it cites. The first line from index at on
    where fault can apply has it."""
    ids = {run: {} for run in RUN_IDS}  # run -> body text -> id
    lines = []

    def put(line, style):
        lines.append(_write(line, style, rng))

    for i, (record, style) in enumerate(zip(records, styles)):
        if record["record_kind"] == "meta":
            put(record, style)
            continue
        body, cells = split_record(record)
        run = record["run_id"]
        text = json.dumps(body, sort_keys=True)
        known = ids[run]
        ahead = [r for r in RUN_IDS if len(ids[r]) > len(known)]
        due = fault if i >= at else None
        if due == "line before its body" and text not in known:
            put({"body": len(known), **cells}, style)
        elif due == "unknown id":
            put({"body": len(known) + 7, **cells}, style)
        elif due == "id of another run" and ahead:
            put({"body": len(ids[ahead[0]]) - 1, **cells}, style)
        elif due == "redefined id" and known and known.get(text) != 0:
            put({"body": 0, **body}, style)
        elif due == "same body again" and text in known:
            put({"body": known[text], **body}, style)
        elif due == "skipped id":
            put({"body": len(known) + 1, **body}, style)
        elif due == "no trace_id" and "trace_id" in cells:
            del cells["trace_id"]
        else:
            due = None  # not here; a later line may do
        if due is not None:
            fault = None
        if text not in known:
            known[text] = len(known)
            put({"body": known[text], **body}, style)
        put({"body": known[text], **cells}, style)
    return lines


_flow = st.fixed_dictionaries({
    "run_id": st.sampled_from(RUN_IDS),
    "dst": st.sampled_from(ADDRESSES[:3]),
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
        record_kind="verdict", schema_version=3, verdict=verdict[0], mechanism=verdict[1],
        control=control, sensitive=sensitive, **flow),
    _flow, _verdict, _outcomes, _outcomes)
_trace_body = st.builds(
    lambda flow, hops, terminal, extra: dict(
        record_kind="trace", schema_version=3, hops=hops, terminal=terminal, **extra, **flow),
    _flow, st.lists(st.one_of(st.none(), st.integers(0, 40)), max_size=6),
    st.sampled_from(TERMINALS),
    st.sampled_from([{}, {"variation": "vary_ip", "sample_index": 0},
                     {"variation": "vary_port", "sample_index": "x"}]))
_meta_body = st.builds(
    lambda run_id: logio.make_record(logio.KIND_META, run_id, command="rq2"),
    st.sampled_from(RUN_IDS))
#: A line: which body, its cell values, and how it is written.
_line = st.tuples(
    st.integers(0, 7), st.sampled_from(ADDRESSES), st.sampled_from([0, 53, 40000, 65535]),
    st.sampled_from(TRACE_IDS), st.integers(0, 12), st.sampled_from(STYLES))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(_verdict_body, _trace_body, _meta_body), min_size=1, max_size=8),
       st.lists(_line, min_size=20, max_size=80), st.randoms(use_true_random=False),
       st.sampled_from(FAULTS), st.integers(0, 59))
def test_interned_read_equals_reference(tmp_path_factory, bodies, cells, rng, fault, at):
    """Lines draw their bodies from a few, so most cite a body recorded
    before; each read equals a per-line json.loads reference that
    resolves body ids itself, or raises the same error at the same
    line. One line, at or after line at, may have a fault in its body
    ids."""
    records, styles = [], []
    for body, src_ip, src_port, trace_id, sample_index, style in cells:
        record = dict(bodies[body % len(bodies)])
        if record["record_kind"] != "meta":
            record.update(src_ip=src_ip, src_port=src_port)
        if record["record_kind"] == "trace":
            record["trace_id"] = trace_id
            if isinstance(record.get("sample_index"), int):
                record["sample_index"] = sample_index
        records.append(record)
        styles.append(style)
    lines = _log(records, styles, fault, at, rng)
    path = tmp_path_factory.mktemp("log") / "run.log"
    path.write_bytes(b"".join(lines))
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
        # equal values are one shared object
        addresses = [d for d, _ in run.verdicts] + [
            s.src_ip for m in run.verdicts.values() for s in m]
        assert len({id(a) for a in addresses}) == len(set(addresses))
        ladders = [t.hops for t in run.traces.values()]
        assert len({id(h) for h in ladders}) == len(set(ladders))
    try:
        traces = [_reference_trace(r) for r in records if r["record_kind"] == "trace"]
    except ValueError:
        with pytest.raises(ValueError):
            logio.traces_from_records(records)
    else:
        assert logio.traces_from_records(records) == traces


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
#: Trace ids with what JSON must escape, or may write as is, drawn often.
_trace_ids = st.text(st.one_of(st.sampled_from('"\\\x00\x1f\x7f\u2028é☃\U0001d11e:|'),
                               st.characters()), max_size=12)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(_ladders, _terminals), max_size=4),
       st.lists(st.tuples(st.integers(0, 5), _sources, _trace_ids,
                          st.one_of(st.none(), st.integers(0, 10**6))), max_size=24),
       st.sampled_from(list(AppProtocol)), st.booleans())
def test_shared_trace_lines_equal_plain_encoding(results, cells, protocol, rq1):
    """Each trace line SharedLines writes is JSON with sorted keys and
    decodes, with the body record it cites, to the trace's own record,
    with and without rq1's variation and sample_index, whichever result
    and cell fields it has; a body record comes once per distinct body,
    in front of its first line, with the run's next id. The first two
    results share one ladder object, the empty tuple, and differ in
    their terminal, so a memo keyed on the ladder alone would give the
    second the first one's body."""
    results = [((), Terminal(TerminalKind.REACHED_DESTINATION)),
               ((), Terminal(TerminalKind.EXHAUSTED)), *results]
    source = SourceParams(Ipv4Address.parse("198.51.100.7"), 40000)
    cells = [(0, source, "t0", None), (1, source, "t0", None), *cells]
    fixed = {"variation": "vary_both"} if rq1 else {}
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "run.log"
        path.touch()
        log = logio.RunLog(path, "run-s", {}, {}, set())
        lines = logio.SharedLines(log, DST, protocol, **fixed)
        bodies = {}
        for pick, source, trace_id, sample_index in cells:
            hops, terminal = results[pick % len(results)]
            trace = TracePath(DST, source, protocol, hops, terminal)
            extra = dict(fixed) if sample_index is None else {**fixed, "sample_index": sample_index}
            expected = trace_record("run-s", trace, trace_id, **extra)
            body, fields = split_record(expected)
            start = path.stat().st_size
            lines.trace(trace, trace_id, sample_index)
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
            assert decoded == [{"body": bodies[text], **fields}]
