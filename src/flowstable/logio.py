"""Append-only JSON-lines run log, schema v2.

One line is one unit of work: a `meta` record per run id, a `verdict`
record per cell carrying both outcome lists, and a `trace` record per
trace. Every record also carries record_kind, run_id and
schema_version. Only this module knows the layout: runners and reports
read a log through read_run (or open_run, to append to it), which
streams the file once and parses each distinct value once. The log is
a cache of a run, never the source of truth: a run is reproducible from
topology, plan, and seed. A reader discards a truncated final line
(crash recovery) with a warning, and open_run cuts it off before
anything is appended.

A line's cell fields are src_ip, src_port, a trace's trace_id and rq1's
sample_index; the rest of the line is its body, and a log holds few
distinct bodies. The write side encodes each body once per shared
result, a cell's result or a trace's ladder and terminal, and splices
each line's cell fields in (SharedLines, one encoder for verdict and
trace lines); the read side mirrors it.
read_run decodes the first line with each body in full and reads every
later line with the same body bytes from that line's template, parsing
only its cell fields.
"""

from __future__ import annotations

import json
import os
import re
import warnings
from dataclasses import dataclass, field
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
from .prober import CellResult, Observation, ObservationKind
from .tracer import MAX_TTL_CEILING, Terminal, TerminalKind, TracePath

SCHEMA_VERSION = 2

KIND_META = "meta"
KIND_TRACE_HOP = "trace"  # the old name stays: perfbench/gates.py reads it
KIND_VERDICT = "verdict"

_KNOWN_KINDS = {KIND_META, KIND_TRACE_HOP, KIND_VERDICT}

#: Bytes read per step when looking back for the last newline.
_TAIL_BLOCK = 4096

#: Most records an Appender holds. Holding a whole rq2 matrix (1664
#: verdict records, about 2 MB as dicts and 0.9 MB as text) would raise
#: a sweep command's peak RSS by about a fifth.
APPEND_BATCH = 16


class SchemaVersionUnknownError(ValueError):
    """A record declares a schema version this reader does not know."""


class CorruptRecordError(ValueError):
    """A complete line of the log is not a JSON record."""


class RepetitionsMismatchError(ValueError):
    """A resumed run asks for another number of repetitions than the
    cells its log already holds."""


class MixedRunsError(ValueError):
    """A log read for every run holds verdicts of two runs for one
    (destination, protocol), so no one matrix stands for it."""


@dataclass
class RunLog:
    """What a run log holds, read in one pass.

    verdicts maps (destination, protocol) to its cells' verdicts and
    traces maps trace id to trace, both in file order; run_ids holds the
    run ids that have a meta record. run_id is the run the log was read
    for: then verdicts and traces hold only that run's, so a run never
    takes another run's cell or trace for one of its own. With run_id
    None, they hold every run's, and traces maps each trace record's line
    number to its trace, since trace ids are unique only within a run;
    each (destination, protocol) must then hold verdicts of one run only
    (see read_run).
    repetitions holds the lengths of the control and sensitive lists of
    the verdict records read.
    """

    path: Path
    run_id: Optional[str]
    verdicts: Dict[Tuple[Ipv4Address, AppProtocol], Dict[SourceParams, Verdict]]
    traces: Dict[Union[str, int], TracePath]
    run_ids: Set[str]
    repetitions: Set[int] = field(default_factory=set)


def make_record(kind: str, run_id: str, **payload) -> Dict:
    if kind not in _KNOWN_KINDS:
        raise ValueError(f"unknown record kind {kind!r}")
    record = {"record_kind": kind, "run_id": run_id, "schema_version": SCHEMA_VERSION}
    record.update(payload)
    return record


#: What json.dumps(value, sort_keys=True) gives, without building an
#: encoder per call.
_encode = json.JSONEncoder(sort_keys=True).encode


def encode_record(record: Dict) -> str:
    """The record's line: its JSON with sorted keys, then a newline."""
    return _encode(record) + "\n"


def append_records(path: Union[str, Path], records: Iterable[Union[Dict, str]]) -> None:
    """Append records as one write so a crash loses whole records only.
    A record is a dict, or its line as encode_record or SharedLines
    wrote it."""
    chunk = "".join(r if isinstance(r, str) else encode_record(r) for r in records)
    if not chunk:
        return
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(chunk)


class Appender:
    """Collects records (dicts or lines, as append_records takes them)
    bound for one log and appends them in batches of
    at most APPEND_BATCH, each with one append_records call. flush()
    writes what is held; a run flushes when it finishes a unit (an rq2
    matrix, an rq1 plan), so a log never lags a finished unit."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = path
        self._records: List[Union[Dict, str]] = []

    def add(self, record: Union[Dict, str]) -> None:
        self._records.append(record)
        if len(self._records) >= APPEND_BATCH:
            self.flush()

    def flush(self) -> None:
        append_records(self.path, self._records)
        self._records = []


#: Decodes one line, as str. A module-level decoder spares each line
#: json.loads' encoding detection; extra data after the object still
#: raises.
_decode = json.JSONDecoder().decode


def _lines(path: Union[str, Path]) -> Iterator[Tuple[int, bytes]]:
    """Yield (line number, line) for the log's complete lines in file
    order, reading it once; every read of a log opens it here. A partial
    trailing line is dropped with a warning."""
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.endswith(b"\n"):
                if line.strip():
                    warnings.warn(f"discarding partial trailing record in {path}")
                return
            yield lineno, line


def _record(path: Union[str, Path], lineno: int, line: bytes) -> Optional[Dict]:
    """The record of a complete line, decoded as UTF-8 text, then as
    JSON; None for a blank line. A line that is not UTF-8 or not a record
    of a known kind raises CorruptRecordError naming the file and the
    line; a record of another schema version raises
    SchemaVersionUnknownError."""
    try:
        record = _decode(line.decode())
    except UnicodeDecodeError as exc:
        raise CorruptRecordError(f"{path} line {lineno}: {exc}") from exc
    except json.JSONDecodeError as exc:
        if not line.strip():  # a blank line holds no record
            return None
        raise CorruptRecordError(f"{path} line {lineno}: {exc.msg}") from exc
    if not isinstance(record, dict):
        raise CorruptRecordError(f"{path} line {lineno}: not a JSON object")
    version = record.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaVersionUnknownError(f"{path} line {lineno}: schema_version {version!r}")
    if record.get("record_kind") not in _KNOWN_KINDS:
        raise CorruptRecordError(
            f"{path} line {lineno}: record_kind {record.get('record_kind')!r}"
        )
    return record


def _records(path: Union[str, Path]) -> Iterator[Tuple[int, Dict]]:
    """Yield (line number, record) for the log's records in file order."""
    for lineno, line in _lines(path):
        record = _record(path, lineno, line)
        if record is not None:
            yield lineno, record


def read_log(path: Union[str, Path]) -> List[Dict]:
    """All records of the log, as dicts in file order."""
    return [record for _, record in _records(path)]


#: The outcome names a control or sensitive entry may hold.
_OUTCOMES = frozenset(k.value for k in ObservationKind)


def _is_outcome(entry) -> bool:
    """Whether a control or sensitive entry is [epoch, outcome, tag]: an
    epoch >= 1 that is not a boolean, an ObservationKind value, a str."""
    return (type(entry) is list and len(entry) == 3
            and type(entry[0]) is int and entry[0] >= 1
            and type(entry[1]) is str and entry[1] in _OUTCOMES
            and type(entry[2]) is str)


class _Reader:
    """The values of one read, each parsed once.

    A log repeats a few values on every line: its destinations,
    protocols, sources, verdicts, terminals and ladders. Each table maps
    the raw JSON values to the immutable object built from them, so a
    read parses each distinct value once and every record that holds it
    shares the object. A miss goes to the one parser of that value
    (Ipv4Address.parse, parse_verdict, parse_terminal, or trace's check
    of a ladder). A port and a ladder are checked for their JSON type
    before they are looked up, and the other parsers refuse a value of
    the wrong type, so 1, 1.0 and true never share a parse. The tables
    live as long as the read.
    """

    def __init__(self) -> None:
        self._addresses: Dict[str, Ipv4Address] = {}
        self._sources: Dict[Tuple[str, int], SourceParams] = {}
        self._cut_sources: Dict[bytes, SourceParams] = {}
        self._keys: Dict[Tuple[str, str], Tuple[Ipv4Address, AppProtocol]] = {}
        self._verdicts: Dict[Tuple[str, Optional[str]], Verdict] = {}
        self._terminals: Dict[str, Terminal] = {}
        self._ladders: Dict[Tuple, Tuple[Optional[int], ...]] = {}

    def _address(self, text: str) -> Ipv4Address:
        address = self._addresses.get(text)
        if address is None:
            address = self._addresses[text] = Ipv4Address.parse(text)
        return address

    def key(self, record: Dict) -> Tuple[Ipv4Address, AppProtocol]:
        """The record's (destination, protocol)."""
        raw = (record["dst"], record["protocol"])
        key = self._keys.get(raw)
        if key is None:
            key = self._keys[raw] = (self._address(raw[0]), AppProtocol(raw[1]))
        return key

    def _source(self, src_ip: str, src_port: int) -> SourceParams:
        raw = (src_ip, src_port)
        source = self._sources.get(raw)
        if source is None:
            source = self._sources[raw] = SourceParams(self._address(src_ip), src_port)
        return source

    def source(self, record: Dict) -> SourceParams:
        src_ip, src_port = record["src_ip"], record["src_port"]
        if type(src_port) is not int:
            raise ValueError(f"src_port is not an integer: {src_port!r}")
        return self._source(src_ip, src_port)

    def cut_source(self, cells: "re.Match[bytes]") -> SourceParams:
        """The source whose values a body pattern (_body_pattern) cut
        from a line."""
        raw = cells["source"]
        source = self._cut_sources.get(raw)
        if source is None:
            source = self._cut_sources[raw] = self._source(
                cells["src_ip"].decode(), int(cells["src_port"]))
        return source

    def verdict(self, record: Dict) -> Verdict:
        raw = (record["verdict"], record["mechanism"])
        verdict = self._verdicts.get(raw)
        if verdict is None:
            verdict = self._verdicts[raw] = parse_verdict(record)
        return verdict

    @staticmethod
    def repetitions(record: Dict, verdict: Verdict) -> Tuple[int, int]:
        """The lengths of a verdict record's control and sensitive lists.
        Each holds one [epoch, outcome, tag] entry per repetition; both
        are empty only for an Excluded cell that its transport could not
        carry (experiments.run_rq2)."""
        control, sensitive = record["control"], record["sensitive"]
        for name, entries in (("control", control), ("sensitive", sensitive)):
            if type(entries) is not list or not all(map(_is_outcome, entries)):
                raise ValueError(f"bad {name} {entries!r}")
        if not (control and sensitive) and (control or sensitive or not verdict.is_excluded):
            raise ValueError(f"empty control or sensitive list: {control!r}, {sensitive!r}")
        return len(control), len(sensitive)

    def trace(self, record: Dict) -> TracePath:
        dst, protocol = self.key(record)
        terminal = self._terminals.get(record["terminal"])
        if terminal is None:
            terminal = self._terminals[record["terminal"]] = parse_terminal(record["terminal"])
        hops = record["hops"]
        # a hop is a node id (an integer >= 0, not a boolean) or None
        if type(hops) is not list or any(
                h is not None and (type(h) is not int or h < 0) for h in hops):
            raise ValueError(f"bad hops {hops!r}")
        # a ladder has at most MAX_TTL_CEILING hops, a censored TTL among them
        if len(hops) > MAX_TTL_CEILING or (terminal.censored_at or 0) > len(hops):
            raise ValueError(f"terminal {record['terminal']!r} on a ladder of {len(hops)} hops")
        hops = tuple(hops)
        ladder = self._ladders.setdefault(hops, hops)
        return TracePath(dst, self.source(record), protocol, ladder, terminal)


#: What a well-formed JSON record can still get wrong: a missing field
#: (KeyError), a bad enum value, address or port (ValueError), or a
#: value of the wrong JSON type (TypeError, AttributeError).
_FIELD_ERRORS = (KeyError, ValueError, TypeError, AttributeError)

#: The cell fields of a line in the order encode_record writes them, each
#: with the pattern its value must match to be cut and its JSON type.
#: Each pattern takes only bytes that JSON reads verbatim (digits without
#: a leading zero; a dotted quad; printable ASCII with no quote or
#: backslash), so two lines equal outside their cut values lex alike.
_CELL_FIELDS = {
    "sample_index": (rb"0|[1-9][0-9]*", int),
    "src_ip": (rb"[0-9]{1,3}(?:\.[0-9]{1,3}){3}", str),
    "src_port": (rb"0|[1-9][0-9]{0,4}", int),
    "trace_id": (rb"[ !#-\[\]-~]*", str),
}
_SOURCE = re.compile(rb'"src_ip": "(%s)", "src_port": (%s)[,}]' % (
    _CELL_FIELDS["src_ip"][0], _CELL_FIELDS["src_port"][0]))
_SAMPLE_INDEX = re.compile(rb"(%s)[,}]" % _CELL_FIELDS["sample_index"][0])
_TRACE_ID = re.compile(rb'"trace_id": "(%s)"' % _CELL_FIELDS["trace_id"][0])

#: Most line bodies one read keeps a template for, checked or not.
_TEMPLATES = 1024

#: What a template does with a line of its body.
_SKIP, _VERDICT, _TRACE = range(3)


def _head_end(line: bytes) -> int:
    """Where a line's first cell value may start: at its last
    "sample_index" before its last "src_ip", else at that "src_ip"; -1
    for a line with no "src_ip". What comes before is the line's head."""
    at = line.rfind(b'"src_ip": "')
    if at < 0:
        return -1
    index = line.rfind(b'"sample_index": ', 0, at)
    return index + 16 if index >= 0 else at


def _cells(line: bytes, start: int) -> Optional[List[Tuple[str, int, int]]]:
    """(field, start, end) of each value the line's cell fields hold past
    start (its _head_end), in line order; None when its source cannot be
    cut. A sample index or trace id that cannot be cut stays in the
    body."""
    cells = []
    index = _SAMPLE_INDEX.match(line, start)
    if index is not None:
        cells.append(("sample_index", *index.span(1)))
    source = _SOURCE.match(line, line.rfind(b'"src_ip": "'))
    if source is None:
        return None
    cells += [("src_ip", *source.span(1)), ("src_port", *source.span(2))]
    trace_id = _TRACE_ID.search(line, source.end())
    if trace_id is not None:
        cells.append(("trace_id", *trace_id.span(1)))
    return cells


def _cells_are_fields(line: bytes, cells: List[Tuple[str, int, int]]) -> bool:
    """Whether each cut value is the whole value of the record's
    top-level field of its name, so that every line with the same body
    reads as this one with its own cell values. It is when the record
    holds each value, and when the line with a 1 written before each
    value decodes to the record with exactly those fields changed, each
    to its marked value. A value that lies in another field, in a nested
    one or under a key that a duplicate overrides fails one of the two."""
    marked = bytearray(line)
    for _, start, _ in reversed(cells):
        marked[start:start] = b"1"
    record = _decode(line.decode())
    try:
        changed = _decode(marked.decode())
    except ValueError:
        return False
    for name, start, end in cells:
        kind = _CELL_FIELDS[name][1]
        text = line[start:end].decode()
        for holder, value in ((record, kind(text)), (changed, kind("1" + text))):
            if type(holder.get(name)) is not kind or holder[name] != value:
                return False
        record[name] = changed[name]
    return record == changed


def _body_pattern(line: bytes, start: int):
    """(pattern, tail) of the lines with this line's head whose body is
    this line's (the bytes outside its cut values): such a line matches
    pattern from start up to the end of its last cut value, with each
    value captured under its field's name, and holds tail after it. The
    tail stays out of the pattern, so bodies that differ only there
    share one compiled pattern. None when the line's cell values cannot
    be cut or are not its fields."""
    cells = _cells(line, start)
    if cells is None or not _cells_are_fields(line, cells):
        return None
    parts = []
    for name, value_start, value_end in cells:
        group = b"(?P<%s>%s)" % (name.encode(), _CELL_FIELDS[name][0])
        if name == "src_ip":  # the source is one group too, for cut_source
            group = b"(?P<source>" + group
        elif name == "src_port":
            group += b")"
        parts += [re.escape(line[start:value_start]), group]
        start = value_end
    return re.compile(b"".join(parts)), line[start:]


def read_run(path: Union[str, Path], run_id: Optional[str] = None) -> RunLog:
    """The log's verdicts, traces and run ids, in one streaming pass
    that keeps no record dicts. With run_id, only that run's verdicts
    and traces; without, every run's (see RunLog). Without run_id, a
    (destination, protocol) whose verdicts come from two runs raises
    MixedRunsError naming both: a matrix is one run's, and merging two
    would let the later run's cells silently replace the earlier's.
    Runs over disjoint (destination, protocol) pairs, and a run resumed
    under its own id, read as before.

    A line's cell fields are its src_ip and src_port, a trace's
    trace_id and rq1's sample_index; the rest of the line is its body,
    and a log holds few distinct bodies. The first line with a body is
    decoded in full and its reading kept as a template: the run id, the
    (destination, protocol), and the verdict and repetitions or the
    ladder and terminal. A later line with the same body bytes takes the
    template and parses only its cell fields, each distinct value once.
    A template is kept for at most _TEMPLATES bodies, and used only once
    _cells_are_fields shows that its line's cut values are the record's
    own fields. A line whose cell fields cannot be cut (see _cells), or
    whose body has no template, is decoded in full.

    The read parses each distinct address, source, (destination,
    protocol), verdict and terminal once and shares the immutable
    object among the records that hold it. A record that lacks a field
    or holds a value that does not parse raises CorruptRecordError
    naming the file and the line.
    """
    run = RunLog(Path(path), run_id, {}, {}, set())
    reader = _Reader()
    cut_sources = reader._cut_sources
    #: Without run_id, the run whose verdicts each raw (dst, protocol) holds.
    owners: Dict[Tuple[str, str], str] = {}
    #: head -> [(pattern, tail), template, first line] of each body with
    #: that head; (pattern, tail) is None until a second line with the
    #: head checks the first, and False if that check failed.
    heads: Dict[bytes, List[List]] = {}
    kept = 0

    def take(lineno: int, record: Dict) -> Tuple:
        """Read a decoded record into run; its template."""
        kind = record["record_kind"]
        if kind == KIND_META:
            run.run_ids.add(record["run_id"])
            return (_SKIP,)
        if run_id is not None and record["run_id"] != run_id:
            return (_SKIP,)
        if kind == KIND_VERDICT:
            if run_id is None:
                raw = (record["dst"], record["protocol"])
                first = owners.setdefault(raw, record["run_id"])
                if first != record["run_id"]:
                    raise MixedRunsError(
                        f"{path} line {lineno}: {raw[0]} {raw[1]} holds verdicts of "
                        f"runs {first} and {record['run_id']}; write each run to its "
                        f"own log"
                    )
            matrix = run.verdicts.setdefault(reader.key(record), {})
            verdict = reader.verdict(record)
            matrix[reader.source(record)] = verdict
            run.repetitions.update(reader.repetitions(record, verdict))
            return (_VERDICT, matrix, verdict)
        trace = reader.trace(record)
        trace_id = lineno if run_id is None else record["trace_id"]
        run.traces[trace_id] = trace
        return (_TRACE, trace.dst_ip, trace.protocol, trace.hops, trace.terminal, trace_id)

    for lineno, line in _lines(path):
        try:
            start = _head_end(line)
            template = None
            if start >= 0:
                for candidate in heads.get(line[:start], ()):
                    body = candidate[0]
                    if body is None:
                        body = candidate[0] = _body_pattern(candidate[2], start) or False
                        candidate[2] = None
                    if body:
                        pattern, tail = body
                        cells = pattern.match(line, start)
                        if cells is not None and line[cells.end():] == tail:
                            template = candidate[1]
                            break
            if template is None:
                record = _record(path, lineno, line)
                if record is None:
                    continue
                template = take(lineno, record)
                if start >= 0 and kept < _TEMPLATES:
                    heads.setdefault(line[:start], []).append([None, template, line])
                    kept += 1
                continue
            action = template[0]
            if action == _SKIP:
                continue
            source = cut_sources.get(cells["source"]) or reader.cut_source(cells)
            if action == _VERDICT:
                template[1][source] = template[2]
                continue
            _, dst, protocol, ladder, terminal, trace_id = template
            if run_id is None:
                trace_id = lineno
            elif cells.lastgroup == "trace_id":
                trace_id = cells["trace_id"].decode()
            run.traces[trace_id] = TracePath(dst, source, protocol, ladder, terminal)
        except (CorruptRecordError, SchemaVersionUnknownError, MixedRunsError):
            raise
        except _FIELD_ERRORS as exc:
            what = f"missing field {exc}" if isinstance(exc, KeyError) else exc
            raise CorruptRecordError(f"{path} line {lineno}: {what}") from exc
    return run


def open_run(
    path: Union[str, Path], run_id: str, *, repetitions: Optional[int] = None, **meta
) -> RunLog:
    """The log at path, read for run run_id and ready for it to append to.

    Reads the log if it exists and cuts a partial last line left by a
    crash, so the next record starts a line of its own; a log that ends
    in a newline is not touched. Appends the meta record if this run id
    has none, so a resumed run converges on the same bytes as an
    uninterrupted one. With repetitions, a log whose verdict records of
    this run hold another number of repetitions raises
    RepetitionsMismatchError before anything is written.
    """
    path = Path(path)
    if path.exists():
        run = read_run(path, run_id)
        other = run.repetitions - {repetitions}
        if repetitions is not None and other:
            raise RepetitionsMismatchError(
                f"{path} holds cells of run {run_id} with {min(other)} repetitions, "
                f"not the {repetitions} asked for; use another --out to run with "
                f"{repetitions}"
            )
        _cut_partial_tail(path)
    else:
        run = RunLog(path, run_id, {}, {}, set())
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


#: The TTL of a censored@<ttl> terminal as terminal_str writes it.
_TTL = re.compile(r"[1-9][0-9]*")


def parse_terminal(text: str) -> Terminal:
    """The terminal terminal_str wrote as text: a kind's value, or
    censored@ and either ? or a TTL >= 1 in ASCII digits with no sign,
    space or leading zero."""
    if text.startswith("censored@"):
        where = text[len("censored@"):]
        if where == "?":
            return Terminal(TerminalKind.CENSORED_AT, None)
        if not _TTL.fullmatch(where):
            raise ValueError(f"bad terminal {text!r}")
        return Terminal(TerminalKind.CENSORED_AT, int(where))
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
    skipped. The records share one read's parsed values, as in
    read_run."""
    reader = _Reader()
    return [reader.trace(r) for r in records if r["record_kind"] == KIND_TRACE_HOP]


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


#: Stands in for a line's source in the fixed part of its line.
_NO_SOURCE = SourceParams(Ipv4Address(0), 0)


def _source_fields(source: SourceParams) -> str:
    """A line's source fields as encode_record writes them: a dotted
    quad and a port hold nothing JSON escapes."""
    return f'"src_ip": "{source.src_ip}", "src_port": {source.src_port}'


#: Each cell field of a line's fixed part as encode_record writes its
#: stand-in value (SharedLines).
_SAMPLE_INDEX_HOLE = '"sample_index": 0'
_SOURCE_HOLE = _source_fields(_NO_SOURCE)
_TRACE_ID_HOLE = '"trace_id": ""'


def _cut(text: str, holes: Sequence[str]) -> Tuple[str, ...]:
    """The parts of text around holes, in order; each hole must occur
    exactly once. A hole names a top-level key with its quotes bare, and
    json escapes every quote inside a string, so it can only match that
    key's own field."""
    parts = []
    for hole in holes:
        part, text = text.split(hole)
        parts.append(part)
    return (*parts, text)


class SharedLines:
    """The verdict or trace lines of one run's (destination, protocol):
    one encoder for the lines of both kinds, each line equal to
    encode_record(verdict_record(...)) or encode_record(trace_record(...)).

    A line's cell fields are src_ip and src_port, a trace's trace_id and
    rq1's sample_index. Every other field is fixed by the line's result
    (a cell's CellResult; a trace's ladder and terminal) and by the
    encoder: run id, destination, protocol, and fixed, the keys every
    line adds (rq1's variation). verdict() and trace() encode that fixed
    part once per distinct result, cut from encode_record's own output
    around the cell fields so escaping is json's, and splice each line's
    cell fields in: in sorted-key order they leave one hole in a verdict
    line and two or three in a trace line. A trace_id is JSON-encoded
    per line. Every flow that takes a shared result
    (prober.SimTransport.run) gets the very same objects, so the fixed
    part is encoded once per shared result. The memo holds the objects
    whose ids key it, so no other object takes one of those ids; an
    encoder lives for one matrix or one rq1 plan, as SimTransport's kept
    results do.
    """

    def __init__(self, run_id: str, dst: Ipv4Address, protocol: AppProtocol, **fixed) -> None:
        self.run_id = run_id
        self.dst = dst
        self.protocol = protocol
        self.fixed = fixed
        #: memo key -> (the objects its ids name, the fixed part's pieces)
        self._parts: Dict[object, Tuple] = {}

    def verdict(self, result: CellResult, source: SourceParams) -> str:
        """The line of the cell from source whose result is result."""
        parts = self._parts.get(id(result))
        if parts is None:
            text = encode_record(verdict_record(
                self.run_id, self.dst, self.protocol, _NO_SOURCE,
                result.control, result.sensitive, result.verdict,
            ))
            parts = self._parts[id(result)] = (result, *_cut(text, (_SOURCE_HOLE,)))
        _, head, tail = parts
        return head + _source_fields(source) + tail

    def trace(self, trace: TracePath, trace_id: str, sample_index: Optional[int] = None) -> str:
        """The line of trace, of the encoder's destination and protocol,
        under trace_id, with sample_index when it is not None."""
        hops, terminal = trace.hops, trace.terminal
        key = (id(hops), id(terminal), sample_index is None)
        parts = self._parts.get(key)
        if parts is None:
            stand_in = TracePath(self.dst, _NO_SOURCE, self.protocol, hops, terminal)
            if sample_index is None:
                text = encode_record(trace_record(self.run_id, stand_in, "", **self.fixed))
                pieces = ("", *_cut(text, (_SOURCE_HOLE, _TRACE_ID_HOLE)))
            else:
                text = encode_record(trace_record(
                    self.run_id, stand_in, "", **self.fixed, sample_index=0))
                pieces = _cut(text, (_SAMPLE_INDEX_HOLE, _SOURCE_HOLE, _TRACE_ID_HOLE))
            parts = self._parts[key] = ((hops, terminal), *pieces)
        _, before_index, before_source, before_id, tail = parts
        index = "" if sample_index is None else f'"sample_index": {sample_index}'
        return (before_index + index + before_source + _source_fields(trace.source)
                + before_id + '"trace_id": ' + _encode(trace_id) + tail)


def parse_verdict(record: Dict) -> Verdict:
    """A verdict record's verdict; its mechanism is null unless it is
    censored, as verdict_record writes it."""
    kind, mechanism = VerdictKind(record["verdict"]), record["mechanism"]
    if kind is VerdictKind.CENSORED:
        return Verdict.censored(Mechanism(mechanism))
    if mechanism is not None:
        raise ValueError(f"mechanism {mechanism!r} on a {kind.value} verdict")
    return Verdict(kind)
