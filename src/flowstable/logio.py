"""Append-only JSON-lines run log, schema v3.

One line is one unit of work: a `meta` record per run id, a `verdict`
line per cell and a `trace` line per trace. A verdict or trace line
holds only its cell fields (src_ip and src_port, a trace's trace_id and
rq1's sample_index), its run_id and the id of its body: every other
field of the line, which a log repeats on most lines. Each distinct
body of a run is one `body` record, written once, before the first
line that cites it. Meta and body records carry record_kind, run_id
and schema_version. Body ids are given per run, in first-seen order, so
a run's lines are the same bytes whatever else shares the log.

Only this module knows the layout: runners and reports read a log
through read_run (or open_run, to append to it), which streams the file
once, in one loop (_cited) that decodes each line with one call of
JSON's scanner, and parses and checks each body record once and each
line's cell fields. The write side (SharedLines, one encoder and writer
for verdict and trace lines) encodes each body once per shared result
and writes its record the first time its run cites it. The log is a
cache of a run, never the source of truth: a run is reproducible from
topology, plan, and seed. A reader discards a truncated final line
(crash recovery) with a warning, and open_run cuts it off before
anything is appended.
"""

from __future__ import annotations

import json
import os
import re
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple, Union

from .core import (
    AppProtocol,
    Ipv4Address,
    Mechanism,
    SourceParams,
    Verdict,
    VerdictKind,
)
from .prober import CellResult, ObservationKind
from .tracer import MAX_TTL_CEILING, Terminal, TerminalKind, TracePath

SCHEMA_VERSION = 3

KIND_META = "meta"
KIND_BODY = "body"
KIND_TRACE_HOP = "trace"  # the old name stays: perfbench/gates.py reads it
KIND_VERDICT = "verdict"

#: The record kinds a line names; a verdict or trace line names none and
#: is of its body's kind.
_LINE_KINDS = {KIND_META, KIND_BODY}
_BODY_KINDS = {KIND_TRACE_HOP, KIND_VERDICT}

#: Bytes read per step when looking back for the last newline.
_TAIL_BLOCK = 4096

#: The line bytes at which SharedLines appends what it has queued: an
#: rq2 matrix (1664 lines, about 150 KB of text) goes out in a few
#: writes, each of which opens the file once. Holding a whole sweep's
#: lines would grow peak RSS with the sweep.
APPEND_BYTES = 32 * 1024


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
    None, they hold every run's, and traces maps each trace line's line
    number to its trace, since trace ids are unique only within a run;
    each (destination, protocol) must then hold verdicts of one run only
    (see read_run).
    repetitions holds the lengths of the control and sensitive lists of
    the verdict bodies read. For run_id's run, bodies maps each body's
    text (_body_text) to its id and next_body is the id its next new
    body takes.
    """

    path: Path
    run_id: Optional[str]
    verdicts: Dict[Tuple[Ipv4Address, AppProtocol], Dict[SourceParams, Verdict]]
    traces: Dict[Union[str, int], TracePath]
    run_ids: Set[str]
    repetitions: Set[int] = field(default_factory=set)
    bodies: Dict[str, int] = field(default_factory=dict)
    next_body: int = 0


def make_record(record_kind: str, run_id: str, /, **payload) -> Dict:
    """A meta or body record holding payload's fields. No field, and no
    item of a list field, may be a tuple, which json would write as an
    array: core's Ipv4Address, SourceParams and FlowId are tuples, and a
    record holds their text (str(address), a port)."""
    if record_kind not in _LINE_KINDS:
        raise ValueError(f"unknown record kind {record_kind!r}")
    for name, value in payload.items():
        if isinstance(value, tuple) or (
                type(value) is list and any(isinstance(item, tuple) for item in value)):
            raise TypeError(f"field {name!r} of a {record_kind} record holds a tuple; "
                            f"a record holds its text")
    record = {"record_kind": record_kind, "run_id": run_id, "schema_version": SCHEMA_VERSION}
    record.update(payload)
    return record


#: What json.dumps(value, sort_keys=True) gives, without building an
#: encoder per call.
_encode = json.JSONEncoder(sort_keys=True).encode


def encode_record(record: Dict) -> str:
    """The record's line: its JSON with sorted keys, then a newline."""
    return _encode(record) + "\n"


def append_records(path: Union[str, Path], records: Iterable[str]) -> None:
    """Append records as one write so a crash loses whole records only.
    A record is its lines as encode_record or SharedLines wrote them."""
    chunk = "".join(records)
    if not chunk:
        return
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(chunk)


def _body_text(record: Dict) -> str:
    """The text a run's body table (RunLog.bodies) knows a body record
    by: its line without the body id."""
    return encode_record({k: v for k, v in record.items() if k != "body"})


#: What a well-formed JSON record can still get wrong: a missing field
#: (KeyError), a bad enum value, address or port (ValueError), or a
#: value of the wrong JSON type (TypeError, AttributeError).
_FIELD_ERRORS = (KeyError, ValueError, TypeError, AttributeError)

#: Errors that already say what is wrong and where.
_NAMED_ERRORS = (CorruptRecordError, SchemaVersionUnknownError, MixedRunsError)


def _corrupt(path: Union[str, Path], lineno: int, exc: Exception) -> CorruptRecordError:
    what = f"missing field {exc}" if isinstance(exc, KeyError) else exc
    return CorruptRecordError(f"{path} line {lineno}: {what}")


#: JSON's whitespace, which may pad a line; str.strip() would also take
#: characters that JSON refuses.
_JSON_SPACE = " \t\n\r"

#: The value that starts at an index of a str and the index after it, or
#: StopIteration: the scanner json.loads reads a value with.
_scan = json.JSONDecoder().scan_once


def _cited(path: Union[str, Path], run_id: Optional[str],
           reading: Callable[[Dict], object]) -> Iterator[Tuple[int, Dict, object]]:
    """Yield (line number, record, None) for each meta record of the log,
    and (line number, record, reading(body)) for each verdict or trace
    line of run run_id (of every run with None), where body is the body
    record the line cites; reading is called once per body record of
    those runs, in file order.

    Every read of a log opens it here, once, and takes each complete line
    in one trip through one loop: decoded as UTF-8, stripped of JSON
    whitespace and scanned as one JSON value with nothing after it, the
    line reads as json.loads reads it; a blank one holds no record, and
    a partial last line is dropped with a warning. A line that is not
    UTF-8 or not a JSON object, or names a record_kind other than meta or
    body, raises CorruptRecordError naming the file and the line; a meta
    or body record of another schema version raises
    SchemaVersionUnknownError. A line with no record_kind is a verdict or
    trace line.

    A body record's id is an integer: its run's next id (0, 1, ... in
    first-seen order), or an earlier id with the same content. A line
    cites a body its own run recorded on an earlier line. Any other id,
    a body of a kind other than verdict or trace, a missing field, or a
    body reading refuses raises CorruptRecordError naming the line."""
    #: (run, id) -> (the text of the body's line, its reading)
    bodies: Dict[Tuple[str, int], Tuple[str, object]] = {}
    next_ids: Dict[str, int] = {}
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.endswith(b"\n"):
                if line.strip():
                    warnings.warn(f"discarding partial trailing record in {path}")
                return
            try:
                text = line.decode().strip(_JSON_SPACE)
                try:
                    record, end = _scan(text, 0)
                except StopIteration:  # no JSON value starts the line
                    if not line.strip():
                        continue  # a blank line holds no record
                    raise ValueError("Expecting value") from None
                if end != len(text):
                    raise json.JSONDecodeError("Extra data", text, end)
                if type(record) is not dict:
                    raise ValueError("not a JSON object")
                kind = record.get("record_kind")
                if kind is not None:
                    version = record.get("schema_version")
                    if version != SCHEMA_VERSION:
                        raise SchemaVersionUnknownError(
                            f"{path} line {lineno}: schema_version {version!r}, but this "
                            f"reader reads schema_version {SCHEMA_VERSION} only; re-run the "
                            f"command with a fresh --out")
                    if kind == KIND_META:
                        yield lineno, record, None
                        continue
                    if kind != KIND_BODY:
                        raise ValueError(f"record_kind {kind!r}")
                run = record["run_id"]
                if run_id is not None and run != run_id:
                    continue
                key = (run, record["body"])
                if type(key[1]) is not int:
                    raise ValueError(f"body id {key[1]!r} is not an integer")
                known = bodies.get(key)
                if kind is None:
                    if known is None:
                        raise ValueError(f"cites body {key[1]}, which run {run!r} has not "
                                         f"recorded before this line")
                    yield lineno, record, known[1]
                elif known is not None:
                    # Recorded again: in other text, the two records'
                    # canonical encodings must match.
                    if text != known[0] and _encode(record) != _encode(_scan(known[0], 0)[0]):
                        raise ValueError(f"redefines body {key[1]} of run {run!r}")
                elif key[1] != next_ids.get(run, 0):
                    raise ValueError(f"body id {key[1]} is not run {run!r}'s next id, "
                                     f"{next_ids.get(run, 0)}")
                elif record["kind"] not in _BODY_KINDS:
                    raise ValueError(f"body of kind {record['kind']!r}")
                else:
                    next_ids[run] = key[1] + 1
                    bodies[key] = (text, reading(record))
            except _NAMED_ERRORS:
                raise
            except _FIELD_ERRORS as exc:
                raise _corrupt(path, lineno, exc) from exc


def _merged(body: Dict) -> Dict:
    """A body record as the lines citing it read: with their kind as
    record_kind and no body id."""
    merged = dict(body)
    merged["record_kind"] = merged.pop("kind")
    del merged["body"]
    return merged


def read_log(path: Union[str, Path]) -> List[Dict]:
    """The log's meta records and its verdict and trace lines, as dicts
    in file order; each line has the body it cites merged in, as one
    record of kind verdict or trace that holds every field."""
    records = []
    for _, record, body in _cited(path, None, _merged):
        if body is not None:
            record = {**body, **record}
            del record["body"]
        records.append(record)
    return records


#: The outcome names a control or sensitive entry may hold.
_OUTCOMES = frozenset(k.value for k in ObservationKind)


def _is_outcome(entry) -> bool:
    """Whether a control or sensitive entry is [epoch, outcome, tag]: an
    epoch >= 1 that is not a boolean, an ObservationKind value, a str."""
    return (type(entry) is list and len(entry) == 3
            and type(entry[0]) is int and entry[0] >= 1
            and type(entry[1]) is str and entry[1] in _OUTCOMES
            and type(entry[2]) is str)


def _repetitions(body: Dict, verdict: Verdict) -> Tuple[int, int]:
    """The lengths of a verdict body's control and sensitive lists. Each
    holds one [epoch, outcome, tag] entry per repetition; both are empty
    only for an Excluded cell that its transport could not carry
    (experiments.run_rq2)."""
    control, sensitive = body["control"], body["sensitive"]
    for name, entries in (("control", control), ("sensitive", sensitive)):
        if type(entries) is not list or not all(map(_is_outcome, entries)):
            raise ValueError(f"bad {name} {entries!r}")
    if not (control and sensitive) and (control or sensitive or not verdict.is_excluded):
        raise ValueError(f"empty control or sensitive list: {control!r}, {sensitive!r}")
    return len(control), len(sensitive)


def _ladder(body: Dict) -> Tuple[Tuple[Optional[int], ...], Terminal]:
    """A trace body's ladder and terminal."""
    terminal = parse_terminal(body["terminal"])
    hops = body["hops"]
    # a hop is a node id (an integer >= 0, not a boolean) or None
    if type(hops) is not list or any(
            h is not None and (type(h) is not int or h < 0) for h in hops):
        raise ValueError(f"bad hops {hops!r}")
    # a ladder has at most MAX_TTL_CEILING hops, a censored TTL among them
    if len(hops) > MAX_TTL_CEILING or (terminal.censored_at or 0) > len(hops):
        raise ValueError(f"terminal {body['terminal']!r} on a ladder of {len(hops)} hops")
    return tuple(hops), terminal


def _port(src_port: int) -> int:
    """A line's src_port, which must be a JSON integer: not a float or a
    boolean, which would also pass for the int it equals (True == 1)."""
    if type(src_port) is not int:
        raise ValueError(f"src_port is not an integer: {src_port!r}")
    return src_port


def read_run(path: Union[str, Path], run_id: Optional[str] = None) -> RunLog:
    """The log's verdicts, traces and run ids, in one streaming pass
    that keeps no line dicts. With run_id, only that run's verdicts
    and traces; without, every run's (see RunLog). Without run_id, a
    (destination, protocol) whose verdicts come from two runs raises
    MixedRunsError naming both: a matrix is one run's, and merging two
    would let the later run's cells silently replace the earlier's.
    Runs over disjoint (destination, protocol) pairs, and a run resumed
    under its own id, read as before.

    Each line is one trip through _cited's loop and one decode. A body
    record is parsed and checked once, into its (destination, protocol)
    and verdict, or its ladder and terminal; a line adds its source (each
    distinct one parsed once) and a trace's trace_id, a JSON string.
    Equal addresses and ladders are one shared object. A line that lacks
    a field, holds a value that does not parse, or cites a body its run
    has not recorded (see _cited) raises CorruptRecordError naming the
    file and the line.
    """
    run = RunLog(Path(path), run_id, {}, {}, set())
    addresses: Dict[str, Ipv4Address] = {}
    ladders: Dict[Tuple[Optional[int], ...], Tuple[Optional[int], ...]] = {}
    sources: Dict[Tuple[str, int], SourceParams] = {}
    #: The matrix each verdict body's lines fill, by (run, body id).
    matrices: Dict[Tuple[str, int], Dict[SourceParams, Verdict]] = {}
    #: Without run_id, the run whose verdicts each (dst, protocol) holds.
    owners: Dict[Tuple[Ipv4Address, AppProtocol], str] = {}

    def address(text: str) -> Ipv4Address:
        parsed = addresses.get(text)
        if parsed is None:
            parsed = addresses[text] = Ipv4Address.parse(text)
        return parsed

    def reading(body: Dict) -> Tuple:
        """What each line citing body reads: (kind, (dst, protocol), what),
        where what is a verdict body's verdict or a trace body's (ladder,
        terminal)."""
        kind, key = body["kind"], (address(body["dst"]), AppProtocol(body["protocol"]))
        if kind == KIND_VERDICT:
            what = parse_verdict(body)
            run.repetitions.update(_repetitions(body, what))
        else:
            ladder, terminal = _ladder(body)
            what = (ladders.setdefault(ladder, ladder), terminal)
        if run_id is not None:
            run.bodies[_body_text(body)] = body["body"]
            run.next_body = body["body"] + 1
        return kind, key, what

    lineno = 0
    try:
        for lineno, record, cited in _cited(path, run_id, reading):
            if cited is None:
                run.run_ids.add(record["run_id"])
                continue
            # _port's rule, checked before the lookup: True would hit 1's entry
            port = record["src_port"]
            if type(port) is not int:
                raise ValueError(f"src_port is not an integer: {port!r}")
            cell = (record["src_ip"], port)
            source = sources.get(cell)
            if source is None:
                source = sources[cell] = SourceParams(address(cell[0]), port)
            kind, key, what = cited
            if kind == KIND_VERDICT:
                cited_body = (record["run_id"], record["body"])
                matrix = matrices.get(cited_body)
                if matrix is None:
                    # Body ids are per run, so a run's first line of a
                    # (dst, protocol) cites a body no other run's line
                    # cited: checking the owner on each body's first
                    # line checks every run of the log.
                    if run_id is None and owners.setdefault(key, cited_body[0]) != cited_body[0]:
                        raise MixedRunsError(
                            f"{path} line {lineno}: {key[0]} {key[1].value} holds verdicts "
                            f"of runs {owners[key]} and {cited_body[0]}; write each run to its "
                            f"own log"
                        )
                    matrix = matrices[cited_body] = run.verdicts.setdefault(key, {})
                matrix[source] = what
                continue
            trace_id = record["trace_id"]
            if type(trace_id) is not str:
                raise ValueError(f"trace_id is not a string: {trace_id!r}")
            # Around the named tuple's own __new__, as core builds its
            # types: the fields are read and checked already.
            run.traces[lineno if run_id is None else trace_id] = tuple.__new__(
                TracePath, (key[0], source, key[1], *what))
    except _NAMED_ERRORS:
        raise
    except _FIELD_ERRORS as exc:
        raise _corrupt(path, lineno, exc) from exc
    return run


def open_run(
    path: Union[str, Path], run_id: str, *, repetitions: Optional[int] = None, **meta
) -> RunLog:
    """The log at path, read for run run_id and ready for it to append to.

    Reads the log if it exists and cuts a partial last line left by a
    crash, so the next record starts a line of its own; a log that ends
    in a newline is not touched. The run's body ids come back with it,
    so a resumed run cites the bodies it recorded and numbers new ones
    as an uninterrupted run would. Appends the meta record if this run
    id has none, so a resumed run converges on the same bytes as an
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
        append_records(path, [encode_record(make_record(KIND_META, run_id, **meta))])
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


def traces_from_records(records: Iterable[Dict]) -> List[TracePath]:
    """The TracePath of each trace record (as read_log gives them), in
    order; other records are skipped."""
    traces = []
    for r in records:
        if r["record_kind"] == KIND_TRACE_HOP:
            source = SourceParams(Ipv4Address.parse(r["src_ip"]), _port(r["src_port"]))
            traces.append(TracePath(Ipv4Address.parse(r["dst"]), source,
                                    AppProtocol(r["protocol"]), *_ladder(r)))
    return traces


#: A str's JSON text, as _encode gives it (JSONEncoder.encode of a str,
#: with ensure_ascii), without encode's Python frame.
_encode_str = json.encoder.encode_basestring_ascii


class SharedLines:
    """The verdict or trace lines of one run's (destination, protocol),
    with the body records they cite: one encoder and writer for both
    kinds, each line and record as encode_record writes it.

    A line's body is fixed by its result (a cell's CellResult; a trace's
    ladder and terminal) and by the encoder: run, destination, protocol,
    and fixed, the keys every body adds (rq1's variation). verdict() and
    trace() encode a result's body once per distinct result object and
    look its text up in the run's body table (RunLog.bodies, which
    open_run fills for a resumed run). A body the run has not recorded
    takes the run's next id, and its record goes out in front of the
    first line that cites it. A line is the body id and run_id, encoded
    once per result, then the line's cell fields: its source address's
    fields, encoded once per address (the sources of a plan share
    addresses across ports), and its port's digits; a trace_id is
    JSON-encoded per line. Every flow that takes a shared result
    (prober.SimTransport.run) gets the very same objects. The memo holds
    the objects whose ids key it, so no other object takes one of those
    ids; an encoder lives for one unit of a run (an rq2 matrix, an rq1
    plan, a traced matrix, a trace --out), as SimTransport's kept
    results do. Its lines (ASCII, so a character is a byte) are queued
    and appended with one append_records call once the queue holds
    APPEND_BYTES; flush(), at the end of the unit, appends the rest, so
    a log never lags a finished unit.
    """

    def __init__(self, log: RunLog, dst: Ipv4Address, protocol: AppProtocol, **fixed) -> None:
        self.log = log
        self.dst = dst
        self.protocol = protocol
        self.fixed = fixed
        #: memo key -> (the objects its ids name, the head of their lines)
        self._memo: Dict[object, Tuple] = {}
        #: source address -> its line fields up to the port (_source_fields)
        self._sources: Dict[Ipv4Address, str] = {}
        self._queue: List[str] = []
        self._held = 0

    def _add(self, line: str) -> None:
        self._queue.append(line)
        self._held += len(line)
        if self._held >= APPEND_BYTES:
            self.flush()

    def flush(self) -> None:
        """Append the queued lines to the run's log."""
        if self._queue:
            append_records(self.log.path, self._queue)
            self._queue = []
            self._held = 0

    def _source_fields(self, src_ip: Ipv4Address) -> str:
        """A line's source fields up to the port's digits, as
        encode_record writes them, memoised: a dotted quad holds nothing
        JSON escapes."""
        text = self._sources[src_ip] = f'"src_ip": "{src_ip}", "src_port": '
        return text

    def _cite(self, key, held, kind: str, **body) -> str:
        """The head of the lines citing body, memoised under key with the
        objects held, after the body's record if the run has none."""
        log = self.log
        text = _body_text(make_record(
            KIND_BODY, log.run_id, kind=kind, dst=str(self.dst), protocol=self.protocol.value,
            **body))
        body_id = log.bodies.get(text)
        record = ""
        if body_id is None:
            body_id = log.bodies[text] = log.next_body
            log.next_body += 1
            # "body" sorts before every other key of a body record
            record = f'{{"body": {body_id}, {text[1:]}'
        head = f'{{"body": {body_id}, "run_id": {_encode(log.run_id)}, '
        self._memo[key] = (held, head)
        return record + head

    def verdict(self, result: CellResult, source: SourceParams) -> None:
        """Queue the line of the cell from source whose result is result."""
        held = self._memo.get(id(result))
        if held is None:
            verdict = result.verdict
            head = self._cite(
                id(result), result, KIND_VERDICT, verdict=verdict.kind.value,
                mechanism=verdict.mechanism.value if verdict.mechanism else None,
                control=[[o.epoch, o.kind.value, o.tag] for o in result.control],
                sensitive=[[o.epoch, o.kind.value, o.tag] for o in result.sensitive])
        else:
            head = held[1]
        src_ip, src_port = source
        self._add(f"{head}{self._sources.get(src_ip) or self._source_fields(src_ip)}{src_port}}}\n")

    def trace(self, trace: TracePath, trace_id: str, sample_index: Optional[int] = None) -> None:
        """Queue the line of trace, of the encoder's destination and
        protocol, under trace_id, with sample_index when it is not None."""
        hops, terminal = trace.hops, trace.terminal
        key = (id(hops), id(terminal))
        held = self._memo.get(key)
        if held is None:
            head = self._cite(key, (hops, terminal), KIND_TRACE_HOP, hops=list(hops),
                              terminal=terminal_str(terminal), **self.fixed)
        else:
            head = held[1]
        index = "" if sample_index is None else f'"sample_index": {sample_index}, '
        src_ip, src_port = trace.source
        self._add(f"{head}{index}{self._sources.get(src_ip) or self._source_fields(src_ip)}"
                  f'{src_port}, "trace_id": {_encode_str(trace_id)}}}\n')


def parse_verdict(record: Dict) -> Verdict:
    """A verdict record's verdict; its mechanism is null unless it is
    censored, as SharedLines writes it."""
    kind, mechanism = VerdictKind(record["verdict"]), record["mechanism"]
    if kind is VerdictKind.CENSORED:
        return Verdict.censored(Mechanism(mechanism))
    if mechanism is not None:
        raise ValueError(f"mechanism {mechanism!r} on a {kind.value} verdict")
    return Verdict(kind)
