"""Append-only JSON-lines run log.

Every record is a flat, self-describing object carrying record_kind,
run_id, and schema_version. The log is a cache of a run, never the
source of truth: a run is reproducible from topology, plan, and seed.
The reader tolerates a truncated final line (crash recovery) by
discarding it with a warning.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path
from typing import Dict, Iterable, List, Union

from .core import Ipv4Address, Mechanism, SourceParams, Verdict, VerdictKind
from .tracer import Terminal, TerminalKind, TracePath

SCHEMA_VERSION = 1

KIND_META = "meta"
KIND_TRACE_HOP = "trace_hop"
KIND_OBSERVATION = "observation"
KIND_VERDICT = "verdict"
KIND_CENSOR_EVENT = "censor_event"

_KNOWN_KINDS = {KIND_META, KIND_TRACE_HOP, KIND_OBSERVATION, KIND_VERDICT, KIND_CENSOR_EVENT}


class SchemaVersionUnknownError(ValueError):
    """A record declares a schema version this reader does not know."""


class CorruptRecordError(ValueError):
    """A complete line of the log is not a JSON record."""


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


def append_record(path: Union[str, Path], record: Dict) -> None:
    append_records(path, [record])


def read_log(path: Union[str, Path]) -> List[Dict]:
    """Read all records; a partial trailing line is dropped with a warning.

    Any other line that does not parse raises CorruptRecordError naming
    the file and the line.
    """
    records: List[Dict] = []
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    # text after the final newline (usually empty) is the partial tail
    tail = lines.pop()
    if tail.strip():
        warnings.warn(f"discarding partial trailing record in {path}")
    for lineno, line in enumerate(lines, start=1):
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
        records.append(record)
    return records


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


def trace_records(run_id: str, trace: TracePath, **extra) -> List[Dict]:
    """One row per ladder position, as the trace output schema.

    ladder_len on every row lets a resuming reader tell a completely
    logged trace from one cut short by a crash.
    """
    rows = []
    for pos, hop in enumerate(trace.hops, start=1):
        rows.append(
            make_record(
                KIND_TRACE_HOP,
                run_id,
                dst=str(trace.dst_ip),
                src_ip=str(trace.source.src_ip),
                src_port=trace.source.src_port,
                protocol=trace.protocol.value,
                ttl=pos,
                hop_node=hop,
                terminal=terminal_str(trace.terminal),
                ladder_len=len(trace.hops),
                **extra,
            )
        )
    return rows


def traces_from_records(records: Iterable[Dict]):
    """Rebuild TracePath objects from trace_hop rows.

    Rows are grouped by (dst, src_ip, src_port, protocol, trace_id);
    ladder order comes from the ttl column.
    """
    from .core import AppProtocol

    grouped: Dict[tuple, List[Dict]] = {}
    for r in records:
        if r["record_kind"] != KIND_TRACE_HOP:
            continue
        key = (r["dst"], r["src_ip"], r["src_port"], r["protocol"], r.get("trace_id"))
        grouped.setdefault(key, []).append(r)

    traces = []
    for (dst, src_ip, src_port, protocol, _), rows in grouped.items():
        rows.sort(key=lambda r: r["ttl"])
        hops = tuple(r["hop_node"] for r in rows)
        traces.append(
            TracePath(
                dst_ip=Ipv4Address.parse(dst),
                source=SourceParams(Ipv4Address.parse(src_ip), src_port),
                protocol=AppProtocol(protocol),
                hops=hops,
                terminal=parse_terminal(rows[-1]["terminal"]),
            )
        )
    return traces


def verdict_record(
    run_id: str,
    dst: str,
    params: SourceParams,
    protocol: str,
    verdict: Verdict,
    **extra,
) -> Dict:
    return make_record(
        KIND_VERDICT,
        run_id,
        dst=dst,
        src_ip=str(params.src_ip),
        src_port=params.src_port,
        protocol=protocol,
        verdict=verdict.kind.value,
        mechanism=verdict.mechanism.value if verdict.mechanism else None,
        **extra,
    )


def parse_verdict(record: Dict) -> Verdict:
    kind = VerdictKind(record["verdict"])
    if kind is VerdictKind.CENSORED:
        return Verdict.censored(Mechanism(record["mechanism"]))
    return Verdict(kind)
