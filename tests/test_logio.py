import json
import random

import pytest

from flowstable import logio
from flowstable.core import AppProtocol, Ipv4Address, Mechanism, SourceParams, Verdict
from flowstable.prober import Observation, ObservationKind
from flowstable.tracer import Terminal, TerminalKind, TracePath

DST = Ipv4Address.parse("10.0.3.4")


def random_cell(rng, i):
    params = SourceParams(
        Ipv4Address.parse(f"198.51.100.{rng.randrange(1, 255)}"), rng.randrange(32768, 61000)
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


def test_round_trip_1000_records(tmp_path):
    path = tmp_path / "run.log"
    rng = random.Random(0)
    cells = [random_cell(rng, i) for i in range(1000)]
    records = [logio.verdict_record("run-a", *cell) for cell in cells]
    logio.append_records(path, records[:500])
    for r in records[500:]:
        logio.append_records(path, [r])
    assert logio.read_log(path) == records
    assert [len(line) for line in path.read_bytes().splitlines()] == [
        len(json.dumps(r, sort_keys=True)) for r in records
    ]

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


def test_trace_rows_round_trip(tmp_path):
    trace = TracePath(
        dst_ip=DST,
        source=SourceParams(Ipv4Address.parse("198.51.100.9"), 40404),
        protocol=AppProtocol.HTTPS,
        hops=(0, None, 2),
        terminal=Terminal(TerminalKind.CENSORED_AT, 3),
    )
    record = logio.trace_record("run-b", trace, "t0", variation="vary_ip", sample_index=7)
    assert record["hops"] == [0, None, 2]
    assert record["terminal"] == "censored@3"
    assert (record["trace_id"], record["variation"], record["sample_index"]) == (
        "t0", "vary_ip", 7)
    assert logio.traces_from_records([record]) == [trace]

    path = tmp_path / "run.log"
    logio.append_records(path, [record])
    assert path.read_text().count("\n") == 1
    assert logio.read_run(path).traces == {"t0": trace}


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
    control = [Observation(1, ObservationKind.PAYLOAD_RESPONSE, "origin:control.example")]
    sensitive = [Observation(1, ObservationKind.PAYLOAD_RESPONSE, "bp-01")]
    for verdict in (
        Verdict.censored(Mechanism.BLOCKPAGE),
        Verdict.not_censored(),
        Verdict.excluded(),
    ):
        record = logio.verdict_record(
            "r", DST, AppProtocol.HTTP, params, control, sensitive, verdict)
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
