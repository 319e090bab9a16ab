"""Append-only JSON-lines run log, schema v2.

One line is one unit of work: a `meta` record per run id, a `verdict`
record per cell carrying both outcome lists, and a `trace` record per
trace. Every record also carries record_kind, run_id and
schema_version. Only this module knows the layout: runners and reports
read a log through read_run (or open_run, to append to it), which
streams the file once. The log is a cache of a run, never the source of
truth: a run is reproducible from topology, plan, and seed. A reader
discards a truncated final line (crash recovery) with a warning, and
open_run cuts it off before anything is appended.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union

from .core import (
    AppProtocol,
    Ipv4Address,
    Mechanism,
    SourceParams,
    Verdict,
    VerdictKind,
)
from .prober import Observation
from .tracer import Terminal, TerminalKind, TracePath

SCHEMA_VERSION = 2

KIND_META = "meta"
KIND_TRACE_HOP = "trace"  # the old name stays: perfbench/gates.py reads it
KIND_VERDICT = "verdict"

_KNOWN_KINDS = {KIND_META, KIND_TRACE_HOP, KIND_VERDICT}

#: Bytes read per step when looking back for the last newline.
_TAIL_BLOCK = 4096


class SchemaVersionUnknownError(ValueError):
    """A record declares a schema version this reader does not know."""


class CorruptRecordError(ValueError):
    """A complete line of the log is not a JSON record."""


@dataclass
class RunLog:
    """What a run log holds, read in one pass.

    verdicts maps (destination, protocol) to its cells' verdicts and
    traces maps trace id to trace, both in file order; run_ids holds the
    run ids that have a meta record. run_id is the run that open_run
    prepared the log for (None from read_run).
    """

    path: Path
    run_id: Optional[str]
    verdicts: Dict[Tuple[Ipv4Address, AppProtocol], Dict[SourceParams, Verdict]]
    traces: Dict[str, TracePath]
    run_ids: Set[str]


def make_record(kind: str, run_id: str, **payload) -> Dict:
    if kind not in _KNOWN_KINDS:
        raise ValueError(f"unknown record kind {kind!r}")
    record = {"record_kind": kind, "run_id": run_id, "schema_version": SCHEMA_VERSION}
    record.update(payload)
    return record


def append_records(path: Union[str, Path], records: Iterable[Dict]) -> None:
    """Append records as one write so a crash loses whole records only."""
    chunk = "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
    if not chunk:
        return
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(chunk)


def _records(path: Union[str, Path]) -> Iterator[Dict]:
    """Yield the log's records in file order, reading it once.

    A partial trailing line is dropped with a warning. Any other line
    that is not a record of a known kind raises CorruptRecordError
    naming the file and the line; a record of another schema version
    raises SchemaVersionUnknownError.
    """
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.endswith(b"\n"):
                if line.strip():
                    warnings.warn(f"discarding partial trailing record in {path}")
                return
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorruptRecordError(f"{path} line {lineno}: {exc.msg}") from exc
            if not isinstance(record, dict):
                raise CorruptRecordError(f"{path} line {lineno}: not a JSON object")
            version = record.get("schema_version")
            if version != SCHEMA_VERSION:
                raise SchemaVersionUnknownError(
                    f"{path} line {lineno}: schema_version {version!r}"
                )
            if record.get("record_kind") not in _KNOWN_KINDS:
                raise CorruptRecordError(
                    f"{path} line {lineno}: record_kind {record.get('record_kind')!r}"
                )
            yield record


def read_log(path: Union[str, Path]) -> List[Dict]:
    """All records of the log, as dicts in file order."""
    return list(_records(path))


def read_run(path: Union[str, Path]) -> RunLog:
    """The log's verdicts, traces and run ids, in one streaming pass
    that keeps no record dicts."""
    run = RunLog(Path(path), None, {}, {}, set())
    for record in _records(path):
        kind = record["record_kind"]
        if kind == KIND_VERDICT:
            key = (Ipv4Address.parse(record["dst"]), AppProtocol(record["protocol"]))
            run.verdicts.setdefault(key, {})[_source(record)] = parse_verdict(record)
        elif kind == KIND_TRACE_HOP:
            (run.traces[record["trace_id"]],) = traces_from_records([record])
        else:
            run.run_ids.add(record["run_id"])
    return run


def open_run(path: Union[str, Path], run_id: str, **meta) -> RunLog:
    """The log at path, ready for run run_id to append to.

    Reads the log if it exists and cuts a partial last line left by a
    crash, so the next record starts a line of its own; a log that ends
    in a newline is not touched. Appends the meta record if this run id
    has none, so a resumed run converges on the same bytes as an
    uninterrupted one.
    """
    path = Path(path)
    if path.exists():
        run = read_run(path)
        _cut_partial_tail(path)
    else:
        run = RunLog(path, None, {}, {}, set())
    run.run_id = run_id
    if run_id not in run.run_ids:
        append_records(path, [make_record(KIND_META, run_id, **meta)])
        run.run_ids.add(run_id)
    return run


def _cut_partial_tail(path: Path) -> None:
    """Truncate the file just after its last newline."""
    with open(path, "rb") as fh:
        end = keep = fh.seek(0, os.SEEK_END)
        while keep:
            start = max(0, keep - _TAIL_BLOCK)
            fh.seek(start)
            newline = fh.read(keep - start).rfind(b"\n")
            if newline >= 0:
                keep = start + newline + 1
                break
            keep = start
    if keep < end:
        os.truncate(path, keep)


def terminal_str(terminal: Terminal) -> str:
    if terminal.kind is TerminalKind.CENSORED_AT:
        where = terminal.censored_at if terminal.censored_at is not None else "?"
        return f"censored@{where}"
    return terminal.kind.value


def parse_terminal(text: str) -> Terminal:
    if text.startswith("censored@"):
        where = text.split("@", 1)[1]
        return Terminal(TerminalKind.CENSORED_AT, None if where == "?" else int(where))
    return Terminal(TerminalKind(text))


def trace_record(run_id: str, trace: TracePath, trace_id: str, **extra) -> Dict:
    """The trace record of one trace: its flow, its whole ladder as
    `hops` (None for a gap), its terminal, and any extra keys."""
    return make_record(
        KIND_TRACE_HOP,
        run_id,
        dst=str(trace.dst_ip),
        src_ip=str(trace.source.src_ip),
        src_port=trace.source.src_port,
        protocol=trace.protocol.value,
        hops=list(trace.hops),
        terminal=terminal_str(trace.terminal),
        trace_id=trace_id,
        **extra,
    )


def traces_from_records(records: Iterable[Dict]) -> List[TracePath]:
    """The TracePath of each trace record, in order; other records are
    skipped."""
    return [
        TracePath(
            dst_ip=Ipv4Address.parse(r["dst"]),
            source=_source(r),
            protocol=AppProtocol(r["protocol"]),
            hops=tuple(r["hops"]),
            terminal=parse_terminal(r["terminal"]),
        )
        for r in records
        if r["record_kind"] == KIND_TRACE_HOP
    ]


def verdict_record(
    run_id: str,
    dst: Ipv4Address,
    protocol: AppProtocol,
    params: SourceParams,
    control: Sequence[Observation],
    sensitive: Sequence[Observation],
    verdict: Verdict,
) -> Dict:
    """The verdict record of one cell. control and sensitive hold one
    [epoch, outcome, tag] entry per repetition, in repetition order."""
    return make_record(
        KIND_VERDICT,
        run_id,
        dst=str(dst),
        src_ip=str(params.src_ip),
        src_port=params.src_port,
        protocol=protocol.value,
        verdict=verdict.kind.value,
        mechanism=verdict.mechanism.value if verdict.mechanism else None,
        control=[[o.epoch, o.kind.value, o.tag] for o in control],
        sensitive=[[o.epoch, o.kind.value, o.tag] for o in sensitive],
    )


def _source(record: Dict) -> SourceParams:
    return SourceParams(Ipv4Address.parse(record["src_ip"]), record["src_port"])


def parse_verdict(record: Dict) -> Verdict:
    kind = VerdictKind(record["verdict"])
    if kind is VerdictKind.CENSORED:
        return Verdict.censored(Mechanism(record["mechanism"]))
    return Verdict(kind)
