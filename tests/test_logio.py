import json
import random

import pytest

from flowstable import logio
from flowstable.core import AppProtocol, Ipv4Address, Mechanism, SourceParams, Verdict
from flowstable.tracer import Terminal, TerminalKind, TracePath


def test_round_trip_1000_records(tmp_path):
    path = tmp_path / "run.log"
    rng = random.Random(0)
    records = [
        logio.make_record(
            logio.KIND_OBSERVATION,
            "run-a",
            dst="10.0.3.4",
            src_ip=f"198.51.100.{rng.randrange(1, 255)}",
            src_port=rng.randrange(32768, 61000),
            protocol="http",
            domain="control.example",
            sensitivity="control",
            repetition=i % 3,
            epoch=i,
            outcome="payload_response",
            tag="origin:control.example",
        )
        for i in range(1000)
    ]
    logio.append_records(path, records[:500])
    for r in records[500:]:
        logio.append_record(path, r)
    assert logio.read_log(path) == records


def test_truncated_final_line_discarded_with_warning(tmp_path):
    path = tmp_path / "run.log"
    records = [logio.make_record(logio.KIND_META, "r", note=str(i)) for i in range(1000)]
    logio.append_records(path, records)
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


def test_trace_rows_round_trip():
    trace = TracePath(
        dst_ip=Ipv4Address.parse("10.0.3.4"),
        source=SourceParams(Ipv4Address.parse("198.51.100.9"), 40404),
        protocol=AppProtocol.HTTPS,
        hops=(0, None, 2),
        terminal=Terminal(TerminalKind.CENSORED_AT, 3),
    )
    rows = logio.trace_records("run-b", trace, trace_id="t0")
    assert [r["ttl"] for r in rows] == [1, 2, 3]
    assert [r["hop_node"] for r in rows] == [0, None, 2]
    assert all(r["terminal"] == "censored@3" for r in rows)
    rebuilt = logio.traces_from_records(rows)
    assert len(rebuilt) == 1
    assert rebuilt[0].hops == trace.hops
    assert rebuilt[0].terminal == trace.terminal
    assert rebuilt[0].source == trace.source


def test_terminal_string_round_trip():
    cases = [
        Terminal(TerminalKind.REACHED_DESTINATION),
        Terminal(TerminalKind.EXHAUSTED),
        Terminal(TerminalKind.CENSORED_AT, 7),
        Terminal(TerminalKind.CENSORED_AT, None),
    ]
    for terminal in cases:
        assert logio.parse_terminal(logio.terminal_str(terminal)) == terminal


def test_verdict_record_round_trip():
    params = SourceParams(Ipv4Address.parse("198.51.100.9"), 40404)
    for verdict in (
        Verdict.censored(Mechanism.BLOCKPAGE),
        Verdict.not_censored(),
        Verdict.excluded(),
    ):
        record = logio.verdict_record("r", "10.0.3.4", params, "http", verdict)
        assert logio.parse_verdict(record) == verdict
