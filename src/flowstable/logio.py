"""Append-only JSON-lines run log, schema v4.

Each line is one JSON object with sorted keys, of one of four kinds:

- A meta record per run id, written when the run opens its log: the
  run's command and what it was asked (its seed, destinations,
  protocols; an rq2 run's registry digest and repetitions too).
- A body record per distinct body of a run, written once, in front of
  the first line that cites it. A body holds every field its cells or
  traces share: destination and protocol; a verdict and its control and
  sensitive observations; a ladder and its terminal, and rq1's
  variation. Body ids are given per run, in first-seen order, so a
  run's lines are the same bytes whatever else shares the log.
- A cell record per CELLS_PER_RECORD consecutive cells of an rq2
  matrix, in grid order: {"cells": [body ids], "dst", "first",
  "protocol", "run_id"}, where first is the grid position of its first
  cell. Only a matrix's last record holds fewer cells.
- An index line per trace: {"body", "run_id"} and what fixes the
  trace's source. rq1 lines keep their sample_index into their
  variation's plan, and rq2's trace pass keeps its source's grid_index.
  Only trace --out lines keep src_ip and src_port: no plan fixes them.

Meta and body records carry record_kind, run_id and schema_version;
cell records and index lines carry neither kind nor version. A planned
source is not written: the reader draws it again from the seed of its
run's meta record, and, for rq1, the destination and variation of its
body. It draws with the planners' own draws (plans), which sit below
logio, so that it imports them without a cycle: the runner and the
reader share one implementation of each draw.

Only this module knows the layout: runners and reports read a log
through read_run (or open_run, to append to it), which streams the file
once, in one loop (_cited) that decodes each line with one call of
JSON's scanner and parses and checks each body record once; a cell
record costs one decode and a lookup per cell. The write side
(SharedLines, one encoder and writer for cells and traces) encodes each
body once per shared result and writes its record the first time its
run cites it. The log is a cache of a run, never the source of truth:
a run is reproducible from topology, plan, and seed. A reader discards
a truncated final line (crash recovery) with a warning, and open_run
cuts it off before anything is appended.
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
from .plans import plan_rq1, rq2_grid
from .prober import CellResult, ObservationKind
from .tracer import MAX_TTL_CEILING, Terminal, TerminalKind, TracePath

SCHEMA_VERSION = 4

KIND_META = "meta"
KIND_BODY = "body"
KIND_TRACE_HOP = "trace"  # the old name stays: perfbench/gates.py reads it
KIND_VERDICT = "verdict"

#: The record kinds a line names; a cell record or index line names none.
_LINE_KINDS = {KIND_META, KIND_BODY}
_BODY_KINDS = {KIND_TRACE_HOP, KIND_VERDICT}

#: The cells of an rq2 matrix a cell record holds, but for its last. A
#: fixed count, so a resume that drops a torn record runs again from
#: that record's first cell and writes the same bytes.
CELLS_PER_RECORD = 256

#: The largest seed a meta record may hold: plans key their generators
#: on the seed's 8 bytes.
_MAX_SEED = 2**64 - 1

#: Bytes read per step when looking back for the last newline.
_TAIL_BLOCK = 4096

#: The line bytes at which SharedLines appends what it has queued, so a
#: unit's lines go out in a few writes, each of which opens the file
#: once. Holding a whole sweep's lines would grow peak RSS with the
#: sweep.
APPEND_BYTES = 32 * 1024


class SchemaVersionUnknownError(ValueError):
    """A record declares a schema version this reader does not know."""


class CorruptRecordError(ValueError):
    """A complete line of the log is not a JSON record."""


class RepetitionsMismatchError(ValueError):
    """A resumed run asks for another number of repetitions than the
    cells its log already holds."""


class RegistryMismatchError(ValueError):
    """A resumed run asks for another blockpage registry than its meta
    record holds."""


class MixedRunsError(ValueError):
    """A log read for every run holds verdicts of two runs for one
    (destination, protocol), so no one matrix stands for it."""


@dataclass
class RunLog:
    """What a run log holds, read in one pass.

    verdicts maps (destination, protocol) to its cells' verdicts, in
    grid order; traces maps a trace's key to the trace, in file order;
    run_ids holds the run ids that have a meta record. run_id is the run
    the log was read for: then verdicts and traces hold only that run's,
    so a run never takes another run's cell or trace for one of its own,
    and meta is its meta record. A trace's key is then (variation,
    sample index) for an rq1 trace and (destination, protocol, source)
    for a flow's (experiments.take_trace). With run_id None, they hold
    every run's, and traces maps each trace line's line number to its
    trace; each (destination, protocol) must then hold verdicts of one
    run only (see read_run).
    repetitions holds the lengths of the control and sensitive lists of
    the verdict bodies read. For run_id's run, bodies maps each body's
    text (_body_text) to its id and next_body is the id its next new
    body takes.
    """

    path: Path
    run_id: Optional[str]
    verdicts: Dict[Tuple[Ipv4Address, AppProtocol], Dict[SourceParams, Verdict]]
    traces: Dict[object, TracePath]
    run_ids: Set[str]
    repetitions: Set[int] = field(default_factory=set)
    bodies: Dict[str, int] = field(default_factory=dict)
    next_body: int = 0
    meta: Optional[Dict] = None


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


def _seed(seeds: Dict[str, object], run: str) -> int:
    """The seed of run's meta record, which draws its plans."""
    seed = seeds.get(run)
    if type(seed) is not int or not 0 <= seed <= _MAX_SEED:
        raise ValueError(f"run {run!r} has no meta record with a seed before this line")
    return seed


def _body_cited(table: List[Tuple[str, str, str, str, object]], body_id, run: str,
                *due: str) -> Tuple[str, str, str, str, object]:
    """The entry of table, run's body records by id, that a cell or line
    cites as body_id: an integer id of a body that run recorded before
    this line, whose (kind, dst, protocol) begins with due."""
    if type(body_id) is not int:
        raise ValueError(f"body id {body_id!r} is not an integer")
    if not 0 <= body_id < len(table):
        raise ValueError(f"cites body {body_id}, which run {run!r} has not recorded before "
                         f"this line")
    entry = table[body_id]
    if entry[1:1 + len(due)] != due:
        raise ValueError(f"cites body {body_id}, a {entry[1]} body of {entry[2]} {entry[3]}, "
                         f"not a {' '.join(due)} body")
    return entry


def _cited(path: Union[str, Path], run_id: Optional[str], reading: Callable[[Dict], object],
           ) -> Iterator[Tuple[int, Dict, object, object]]:
    """Yield (line number, record, None, None) for each meta record of
    the log; and for each cell record and index line of run run_id (of
    every run with None), (line number, record, sources, cited): a cell
    record's sources are its cells' grid positions' and cited is a list
    of reading(body) per cell, an index line's source is its trace's and
    cited is reading(body). reading is called once per body record of
    those runs, in file order, where body is the record.

    Every read of a log opens it here, once, and takes each complete line
    in one trip through one loop: decoded as UTF-8, stripped of JSON
    whitespace and scanned as one JSON value with nothing after it, the
    line reads as json.loads reads it; a blank one holds no record, and
    a partial last line is dropped with a warning. A line that is not
    UTF-8 or not a JSON object, or names a record_kind other than meta or
    body, raises CorruptRecordError naming the file and the line; a meta
    or body record of another schema version raises
    SchemaVersionUnknownError. A line with no record_kind is a cell
    record if it holds cells, else an index line.

    A body record's id is an integer: its run's next id (0, 1, ... in
    first-seen order), or an earlier id with the same content. A cell
    record cites verdict bodies of its own destination and protocol, an
    index line a trace body, that its run recorded on an earlier line.
    A cell record's first continues its matrix: it is the count of the
    matrix's cells that its run's earlier records hold, each record
    before it whole; its cells lie on the grid. An index line's sample
    or grid index is a position of its plan. Any other id or index, a
    body of a kind other than verdict or trace, a planned source of a
    run with no seed, a missing field, or a body reading refuses raises
    CorruptRecordError naming the line."""
    #: run -> (the text of its body records' lines, kind, dst, protocol,
    #: variation) by body id
    bodies: Dict[str, List[Tuple[str, str, str, str, object]]] = {}
    #: run -> reading(body) by body id
    readings: Dict[str, List[object]] = {}
    #: run -> the seed of its first meta record
    seeds: Dict[str, object] = {}
    #: run -> the rq2 grid its seed draws
    grids: Dict[str, Tuple[SourceParams, ...]] = {}
    #: (run, dst, variation) -> the samples of that rq1 plan
    samples: Dict[Tuple[str, str, object], Tuple[SourceParams, ...]] = {}
    #: (run, dst, protocol) -> the cells its cell records hold so far
    counts: Dict[Tuple[str, str, str], int] = {}

    def grid_of(run: str) -> Tuple[SourceParams, ...]:
        grid = grids.get(run)
        if grid is None:
            grid = grids[run] = rq2_grid(_seed(seeds, run))
        return grid

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
                        seeds.setdefault(record["run_id"], record.get("seed"))
                        yield lineno, record, None, None
                        continue
                    if kind != KIND_BODY:
                        raise ValueError(f"record_kind {kind!r}")
                run = record["run_id"]
                if run_id is not None and run != run_id:
                    continue
                table = bodies.get(run, ())
                if kind is not None:
                    body_id = record["body"]
                    if type(body_id) is not int:
                        raise ValueError(f"body id {body_id!r} is not an integer")
                    if 0 <= body_id < len(table):
                        # Recorded again: in other text, the two records'
                        # canonical encodings must match.
                        known = table[body_id]
                        if text != known[0] and _encode(record) != _encode(_scan(known[0], 0)[0]):
                            raise ValueError(f"redefines body {body_id} of run {run!r}")
                        continue
                    if body_id != len(table):
                        raise ValueError(f"body id {body_id} is not run {run!r}'s next id, "
                                         f"{len(table)}")
                    if record["kind"] not in _BODY_KINDS:
                        raise ValueError(f"body of kind {record['kind']!r}")
                    cited = reading(record)
                    bodies.setdefault(run, []).append((text, record["kind"], record["dst"],
                                                       record["protocol"],
                                                       record.get("variation")))
                    readings.setdefault(run, []).append(cited)
                    continue
                if "cells" in record:
                    cells, dst, protocol = record["cells"], record["dst"], record["protocol"]
                    if type(cells) is not list or not 0 < len(cells) <= CELLS_PER_RECORD:
                        raise ValueError(f"cells is not a list of 1 to {CELLS_PER_RECORD} "
                                         f"body ids")
                    if set(map(type, cells)) != {int}:  # a set of ids would take True for 1
                        raise ValueError("a body id of cells is not an integer")
                    for body_id in set(cells):
                        _body_cited(table, body_id, run, KIND_VERDICT, dst, protocol)
                    matrix = (run, dst, protocol)
                    first, done = record["first"], counts.get(matrix, 0)
                    if type(first) is not int or first != done or done % CELLS_PER_RECORD:
                        raise ValueError(f"first {first!r} does not continue {dst} {protocol} "
                                         f"of run {run!r}, whose cell records end at {done}")
                    grid = grid_of(run)
                    end = counts[matrix] = first + len(cells)
                    if end > len(grid):
                        raise ValueError(f"cells past the grid's {len(grid)} positions")
                    yield lineno, record, grid[first:end], list(map(readings[run].__getitem__,
                                                                   cells))
                    continue
                body_id = record["body"]
                _, _, dst, protocol, variation = _body_cited(table, body_id, run, KIND_TRACE_HOP)
                if "sample_index" in record:
                    index, plan = record["sample_index"], samples.get((run, dst, variation))
                    if plan is None:
                        for drawn in plan_rq1(Ipv4Address.parse(dst), AppProtocol(protocol),
                                              _seed(seeds, run)):
                            samples[(run, dst, drawn.variation.value)] = drawn.samples
                        plan = samples.get((run, dst, variation))
                        if plan is None:
                            raise ValueError(f"body {body_id} names no rq1 variation")
                elif "grid_index" in record:
                    index = record["grid_index"]
                    plan = grid_of(run)
                else:
                    source = SourceParams(Ipv4Address.parse(record["src_ip"]),
                                          _port(record["src_port"]))
                    yield lineno, record, source, readings[run][body_id]
                    continue
                if type(index) is not int or not 0 <= index < len(plan):
                    raise ValueError(f"index {index!r} is not a position of a plan of "
                                     f"{len(plan)} sources")
                yield lineno, record, plan[index], readings[run][body_id]
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
    """The log's meta records and its cells and traces, as dicts in file
    order; each cell or trace is one record of kind verdict or trace
    that holds every field: its body's, its run_id, its source's src_ip
    and src_port, and an rq1 trace's sample_index."""
    records = []
    for _, record, sources, body in _cited(path, None, _merged):
        if body is None:
            records.append(record)
        elif "cells" in record:
            records.extend({**merged, "src_ip": str(ip), "src_port": port}
                           for (ip, port), merged in zip(sources, body))
        else:
            ip, port = sources
            line = {**body, "src_ip": str(ip), "src_port": port}
            if "sample_index" in record:
                line["sample_index"] = record["sample_index"]
            records.append(line)
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
    record is parsed and checked once, into its verdict, or its
    (destination, protocol), ladder and terminal; a cell record adds its
    cells' verdicts to its matrix in one update, each source the plan's
    own object. Equal destinations and ladders are one shared object.
    A line that lacks a field, holds a value that does not parse, or
    cites a body or a position it may not (see _cited) raises
    CorruptRecordError naming the file and the line.
    """
    run = RunLog(Path(path), run_id, {}, {}, set())
    ladders: Dict[Tuple[Optional[int], ...], Tuple[Optional[int], ...]] = {}
    #: (dst, protocol) as a record writes them -> their values
    keys: Dict[Tuple[str, str], Tuple[Ipv4Address, AppProtocol]] = {}
    #: Without run_id, the run whose verdicts each (dst, protocol) holds.
    owners: Dict[Tuple[Ipv4Address, AppProtocol], str] = {}

    def key_of(fields: Dict) -> Tuple[Ipv4Address, AppProtocol]:
        text = (fields["dst"], fields["protocol"])
        key = keys.get(text)
        if key is None:
            key = keys[text] = (Ipv4Address.parse(text[0]), AppProtocol(text[1]))
        return key

    def reading(body: Dict):
        """What each cell or line citing body reads: a verdict body's
        verdict, or a trace body's ((dst, protocol), ladder, terminal,
        variation)."""
        key = key_of(body)
        if run_id is not None:
            run.bodies[_body_text(body)] = body["body"]
            run.next_body = body["body"] + 1
        if body["kind"] == KIND_VERDICT:
            verdict = parse_verdict(body)
            run.repetitions.update(_repetitions(body, verdict))
            return verdict
        ladder, terminal = _ladder(body)
        return key, ladders.setdefault(ladder, ladder), terminal, body.get("variation")

    lineno = 0
    try:
        for lineno, record, sources, cited in _cited(path, run_id, reading):
            if cited is None:
                run.run_ids.add(record["run_id"])
                if run.meta is None and record["run_id"] == run_id:
                    run.meta = record
                continue
            if "cells" in record:
                key, owner = key_of(record), record["run_id"]
                if run_id is None and owners.setdefault(key, owner) != owner:
                    raise MixedRunsError(
                        f"{path} line {lineno}: {key[0]} {key[1].value} holds verdicts "
                        f"of runs {owners[key]} and {owner}; write each run to its own log")
                matrix = run.verdicts.get(key)
                if matrix is None:
                    matrix = run.verdicts[key] = {}
                matrix.update(zip(sources, cited))
                continue
            (dst, protocol), hops, terminal, variation = cited
            # Around the named tuple's own __new__, as core builds its
            # types: the fields are read and checked already.
            trace = tuple.__new__(TracePath, (dst, sources, protocol, hops, terminal))
            if run_id is None:
                run.traces[lineno] = trace
            elif "sample_index" in record:
                run.traces[(variation, record["sample_index"])] = trace
            else:
                run.traces[(dst, protocol, sources)] = trace
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
    as an uninterrupted run would. Appends the meta record, which holds
    meta and repetitions (when given), if this run id has none, so a
    resumed run converges on the same bytes as an uninterrupted one.
    Before anything is written, with repetitions, a log whose verdict
    records of this run hold another number of repetitions raises
    RepetitionsMismatchError; and with a registry in meta, a log whose
    meta record of this run holds another raises RegistryMismatchError.
    """
    path = Path(path)
    if repetitions is not None:
        meta["repetitions"] = repetitions
    if path.exists():
        run = read_run(path, run_id)
        other = run.repetitions - {repetitions}
        if repetitions is not None and other:
            raise RepetitionsMismatchError(
                f"{path} holds cells of run {run_id} with {min(other)} repetitions, "
                f"not the {repetitions} asked for; use another --out to run with "
                f"{repetitions}"
            )
        if run.meta is not None and "registry" in meta and (
                run.meta.get("registry") != meta["registry"]):
            raise RegistryMismatchError(
                f"{path} holds run {run_id} with registry {run.meta.get('registry')}, not "
                f"{meta['registry']}; use another --out to run with this registry")
        _cut_partial_tail(path)
    else:
        run = RunLog(path, run_id, {}, {}, set())
    if run_id not in run.run_ids:
        run.meta = make_record(KIND_META, run_id, **meta)
        append_records(path, [encode_record(run.meta)])
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


class SharedLines:
    """The cells or traces of one run's (destination, protocol), with the
    body records they cite: one encoder and writer for both kinds, each
    line and record as encode_record writes it.

    A line's body is fixed by its result (a cell's CellResult; a trace's
    ladder and terminal) and by the encoder: run, destination, protocol,
    and fixed, the keys every body adds (rq1's variation). verdict() and
    trace() encode a result's body once per distinct result object and
    look its text up in the run's body table (RunLog.bodies, which
    open_run fills for a resumed run). A body the run has not recorded
    takes the run's next id, and its record goes out in front of the
    first line that cites it. Every flow that takes a shared result
    (prober.SimTransport.run) gets the very same objects. The memo holds
    the objects whose ids key it, so no other object takes one of those
    ids; an encoder lives for one unit of a run (an rq2 matrix, an rq1
    plan, a traced matrix, a trace --out), as SimTransport's kept
    results do.

    An rq2 matrix's cells are given in grid order from position first:
    their body ids are held until CELLS_PER_RECORD of them make a cell
    record, which goes out after the body records it is first to cite.
    A trace is one index line. Lines (ASCII, so a character is a byte)
    are queued and appended with one append_records call once the queue
    holds APPEND_BYTES; flush(), at the end of the unit, closes the last
    cell record and appends the rest, so a log never lags a finished
    unit.
    """

    def __init__(self, log: RunLog, dst: Ipv4Address, protocol: AppProtocol, *,
                 first: int = 0, **fixed) -> None:
        self.log = log
        self.dst = dst
        self.protocol = protocol
        self.fixed = fixed
        #: memo key -> (the objects its ids name, their body id)
        self._memo: Dict[object, Tuple] = {}
        self._queue: List[str] = []
        self._held = 0
        self._run = _encode(log.run_id)
        #: the open cell record: its first grid position, its body ids,
        #: and the body records it is first to cite
        self._first = first
        self._cells: List[int] = []
        self._bodies: List[str] = []

    def _add(self, text: str) -> None:
        self._queue.append(text)
        self._held += len(text)
        if self._held >= APPEND_BYTES:
            self._append()

    def _append(self) -> None:
        if self._queue:
            append_records(self.log.path, self._queue)
            self._queue = []
            self._held = 0

    def _close(self) -> None:
        """Queue the open cell record, after the body records it is first
        to cite."""
        cells = self._cells
        self._bodies.append(
            f'{{"cells": [{", ".join(map(str, cells))}], "dst": "{self.dst}", '
            f'"first": {self._first}, "protocol": "{self.protocol.value}", '
            f'"run_id": {self._run}}}\n')
        self._add("".join(self._bodies))
        self._first += len(cells)
        self._cells = []
        self._bodies = []

    def flush(self) -> None:
        """Close the open cell record and append the queued lines to the
        run's log."""
        if self._cells:
            self._close()
        self._append()

    def _cite(self, key, held, kind: str, **body) -> Tuple[int, str]:
        """The id of body, memoised under key with the objects held, and
        its record if the run has none, else ""."""
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
        self._memo[key] = (held, body_id)
        return body_id, record

    def verdict(self, result: CellResult) -> None:
        """Add the next cell of the matrix, whose result is result."""
        held = self._memo.get(id(result))
        if held is None:
            verdict = result.verdict
            body_id, record = self._cite(
                id(result), result, KIND_VERDICT, verdict=verdict.kind.value,
                mechanism=verdict.mechanism.value if verdict.mechanism else None,
                control=[[o.epoch, o.kind.value, o.tag] for o in result.control],
                sensitive=[[o.epoch, o.kind.value, o.tag] for o in result.sensitive])
            if record:
                self._bodies.append(record)
        else:
            body_id = held[1]
        self._cells.append(body_id)
        if len(self._cells) == CELLS_PER_RECORD:
            self._close()

    def trace(self, trace: TracePath, sample_index: Optional[int] = None,
              grid_index: Optional[int] = None) -> None:
        """Queue the line of trace, of the encoder's destination and
        protocol: with its sample_index into an rq1 plan, or its source's
        grid_index, or else its source."""
        hops, terminal = trace.hops, trace.terminal
        key = (id(hops), id(terminal))
        held = self._memo.get(key)
        if held is None:
            body_id, record = self._cite(key, (hops, terminal), KIND_TRACE_HOP, hops=list(hops),
                                         terminal=terminal_str(terminal), **self.fixed)
        else:
            body_id, record = held[1], ""
        if grid_index is not None:
            line = f'{{"body": {body_id}, "grid_index": {grid_index}, "run_id": {self._run}}}\n'
        elif sample_index is not None:
            line = f'{{"body": {body_id}, "run_id": {self._run}, "sample_index": {sample_index}}}\n'
        else:
            src_ip, src_port = trace.source
            line = (f'{{"body": {body_id}, "run_id": {self._run}, "src_ip": "{src_ip}", '
                    f'"src_port": {src_port}}}\n')
        self._add(record + line)


def parse_verdict(record: Dict) -> Verdict:
    """A verdict record's verdict; its mechanism is null unless it is
    censored, as SharedLines writes it."""
    kind, mechanism = VerdictKind(record["verdict"]), record["mechanism"]
    if kind is VerdictKind.CENSORED:
        return Verdict.censored(Mechanism(mechanism))
    if mechanism is not None:
        raise ValueError(f"mechanism {mechanism!r} on a {kind.value} verdict")
    return Verdict(kind)
