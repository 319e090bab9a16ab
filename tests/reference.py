"""Independent reference implementations used as test oracles.

These are written against public definitions (FNV spec, byte layouts),
deliberately not importing anything from the package under test.
"""

import hashlib
import json
import struct
from dataclasses import dataclass

# --- flow identities as frozen dataclasses ----------------------------------
# The value types as they were written before they became tuples: hash,
# equality, order, str, repr and bytes of the package's types must equal
# these, so set order, run ids and every output byte stay as they were.
# A FlowId's protocol is whatever the caller passes (the package's
# Protocol member), so the two hash and compare it alike.


@dataclass(frozen=True, order=True)
class Ipv4Address:
    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.value <= 0xFFFFFFFF:
            raise ValueError(f"address out of range: {self.value}")

    def __str__(self) -> str:
        v = self.value
        return f"{(v >> 24) & 0xFF}.{(v >> 16) & 0xFF}.{(v >> 8) & 0xFF}.{v & 0xFF}"

    def to_bytes(self) -> bytes:
        return self.value.to_bytes(4, "big")


@dataclass(frozen=True, order=True)
class FlowId:
    src_ip: Ipv4Address
    dst_ip: Ipv4Address
    src_port: int
    dst_port: int
    protocol: object

    def __post_init__(self) -> None:
        for port in (self.src_port, self.dst_port):
            if not 0 <= port <= 0xFFFF:
                raise ValueError(f"port out of range: {port}")

    def to_bytes(self) -> bytes:
        return struct.pack(">IIHHB", self.src_ip.value, self.dst_ip.value, self.src_port,
                           self.dst_port, self.protocol.value)


@dataclass(frozen=True, order=True)
class SourceParams:
    src_ip: Ipv4Address
    src_port: int

    def __post_init__(self) -> None:
        if not 0 <= self.src_port <= 0xFFFF:
            raise ValueError(f"port out of range: {self.src_port}")

    def __str__(self) -> str:
        return f"{self.src_ip}:{self.src_port}"


# --- traces and trace groups as frozen dataclasses ---------------------------
# tracer.TracePath and analysis.TraceGroup as they were written before they
# became tuples: their construction, equality, hash and repr must equal
# these, so path sets, graphs and every output built from them hold.


@dataclass(frozen=True)
class TracePath:
    dst_ip: object
    source: object
    protocol: object
    hops: tuple
    terminal: object

    @property
    def present_hops(self) -> tuple:
        return tuple(h for h in self.hops if h is not None)

    @property
    def node_set(self) -> frozenset:
        return frozenset(self.present_hops)


@dataclass(frozen=True)
class TraceGroup:
    params: object
    traces: tuple
    verdict: object

    @property
    def node_set(self) -> frozenset:
        return frozenset(h for t in self.traces for h in t.node_set)


def graph_walk(traces) -> tuple:
    """(nodes, edges, depth) of traces walked one trace at a time: a
    trace's present hops are nodes, consecutive present hops (over gaps)
    are edges, and a node's depth is the least TTL it was seen at."""
    nodes, edges, depth = set(), set(), {}
    for t in traces:
        present = [(ttl, h) for ttl, h in enumerate(t.hops, start=1) if h is not None]
        for ttl, h in present:
            nodes.add(h)
            depth[h] = min(depth.get(h, ttl), ttl)
        edges.update((a, b) for (_, a), (_, b) in zip(present, present[1:]))
    return nodes, edges, depth


FNV64_OFFSET = 0xCBF29CE484222325
FNV64_PRIME = 0x100000001B3


def fnv1a64(data: bytes) -> int:
    h = FNV64_OFFSET
    for b in data:
        h ^= b
        h = (h * FNV64_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h


def ip_to_int(dotted: str) -> int:
    a, b, c, d = (int(x) for x in dotted.split("."))
    for part in (a, b, c, d):
        assert 0 <= part <= 255
    return (a << 24) | (b << 16) | (c << 8) | d


def flow_bytes(src_ip: str, dst_ip: str, src_port: int, dst_port: int, proto_num: int) -> bytes:
    """Assemble the canonical 13-byte flow layout by hand."""
    out = bytearray()
    out += ip_to_int(src_ip).to_bytes(4, "big")
    out += ip_to_int(dst_ip).to_bytes(4, "big")
    out += src_port.to_bytes(2, "big")
    out += dst_port.to_bytes(2, "big")
    out.append(proto_num)
    return bytes(out)


def loss_uniform(seed: int, epoch: int, flow: bytes, kind: str, ip_id: int, node: int) -> float:
    """One loss draw from its documented key, hashed with blake2b to 8 bytes:
    seed(8)|epoch(8, signed)|flow(13)|kind|ip_id(2)|loss|node(8), big-endian."""
    key = b"|".join([
        seed.to_bytes(8, "big"),
        epoch.to_bytes(8, "big", signed=True),
        flow,
        kind.encode(),
        ip_id.to_bytes(2, "big"),
        b"loss",
        node.to_bytes(8, "big"),
    ])
    return digest_draw(int.from_bytes(loss_digest(key), "big"))


def loss_digest(key: bytes) -> bytes:
    """A loss key's blake2b digest, 8 bytes."""
    return hashlib.blake2b(key, digest_size=8).digest()


def digest_draw(value: int) -> float:
    """The draw of a digest read as a big-endian integer: value / 2**64,
    divided as integers, so correctly rounded to the nearest float."""
    return value / 2**64


def is_affected(matrix) -> bool:
    """Both a censored and a not-censored verdict among the matrix's,
    by the verdict kinds' values gathered in a set."""
    kinds = {verdict.kind.value for verdict in matrix.values()}
    return "censored" in kinds and "not_censored" in kinds


def no_censorship_fraction(kinds):
    """(not-censored cells, decided cells) among verdict kind values, by
    one pass per kind; the errors' names for no cell and for no decided
    cell."""
    if not kinds:
        return "empty"
    clear = sum(1 for kind in kinds if kind == "not_censored")
    censored = sum(1 for kind in kinds if kind == "censored")
    return (clear, clear + censored) if clear + censored else "all excluded"


#: Byte range of each hashed field in the canonical 13-byte flow layout.
FLOW_SLICES = {
    "src_ip": slice(0, 4),
    "dst_ip": slice(4, 8),
    "src_port": slice(8, 10),
    "dst_port": slice(10, 12),
    "protocol": slice(12, 13),
}


def next_hop(policy: dict, flow: bytes) -> int:
    """The node a topology document's policy picks for the flow whose
    canonical bytes are flow, by its selector's documented rule:
    low_bits takes the field's n_bits lowest bits modulo the fanout;
    hash_tuple takes the FNV-1a-64 of the selected fields' bytes, in
    layout order, modulo the fanout."""
    selector, hops = policy["selector"], policy["next_hops"]
    if selector["kind"] == "low_bits":
        value = int.from_bytes(flow[FLOW_SLICES[selector["field"]]], "big")
        choice = (value & ((1 << selector["n_bits"]) - 1)) % len(hops)
    else:
        data = b"".join(flow[FLOW_SLICES[f]] for f in FLOW_SLICES if f in selector["fields"])
        choice = fnv1a64(data) % len(hops)
    return hops[choice]


def walk(doc: dict, flow: bytes, limit: int) -> tuple:
    """The route of the flow whose canonical bytes are flow through a
    topology document whose entry is node 0, applying next_hop node by
    node; stops at the first endpoint or after limit nodes."""
    roles = {n["id"]: n["role"] for n in doc["nodes"]}
    policies = {p["node"]: p for p in doc["policies"]}
    node, path = 0, [0]
    while roles[node] == "router" and len(path) < limit:
        node = next_hop(policies[node], flow)
        path.append(node)
    return tuple(path)


# --- run log v4, from its documented layout ---------------------------------

SCHEMA_VERSION = 4
#: The cells of an rq2 matrix that one cell record holds, but for its last.
CELLS_PER_RECORD = 256

#: The fields of a verdict or trace record that are not its body's.
CELL_FIELDS = ("src_ip", "src_port", "sample_index")


def verdict_record(run_id, dst, protocol, source, control, sensitive, verdict) -> dict:
    """One cell's verdict record with its body merged in, as
    logio.read_log gives it."""
    return {
        "record_kind": "verdict", "run_id": run_id, "schema_version": SCHEMA_VERSION,
        "dst": str(dst), "protocol": protocol.value,
        "src_ip": str(source.src_ip), "src_port": source.src_port,
        "verdict": verdict.kind.value,
        "mechanism": verdict.mechanism.value if verdict.mechanism else None,
        "control": [[o.epoch, o.kind.value, o.tag] for o in control],
        "sensitive": [[o.epoch, o.kind.value, o.tag] for o in sensitive],
    }


def terminal_text(terminal) -> str:
    """A terminal as a log writes it: its kind, or censored@<ttl or ?>."""
    if terminal.kind.value == "censored":
        return f"censored@{'?' if terminal.censored_at is None else terminal.censored_at}"
    return terminal.kind.value


def trace_record(run_id, trace, **extra) -> dict:
    """One trace's record with its body merged in, as logio.read_log
    gives it; extra holds rq1's variation and sample_index."""
    return {
        "record_kind": "trace", "run_id": run_id, "schema_version": SCHEMA_VERSION,
        "dst": str(trace.dst_ip), "protocol": trace.protocol.value,
        "src_ip": str(trace.source.src_ip), "src_port": trace.source.src_port,
        "hops": list(trace.hops), "terminal": terminal_text(trace.terminal), **extra,
    }


def split_record(record: dict):
    """(body, fields) of a verdict or trace record: the body record
    without its id (its kind under "kind", record_kind "body"), and the
    record's fields that are not its body's."""
    body = {k: v for k, v in record.items() if k not in CELL_FIELDS}
    body["kind"], body["record_kind"] = body["record_kind"], "body"
    return body, {k: record[k] for k in CELL_FIELDS if k in record}


def log_lines(records, grid=None, per_record=CELLS_PER_RECORD) -> list:
    """The line objects of a log holding records (meta records, and
    verdict and trace records as logio.read_log gives them), by the v4
    layout:

    - each distinct body of a run (by its JSON text) gets the run's next
      id, from 0, and its record goes in front of the first line that
      cites it;
    - consecutive verdict records of one run, destination and protocol
      are a matrix's cells in grid order from position 0; they go
      per_record to a cell record, {"cells": [body ids], "dst",
      "first", "protocol", "run_id"}, first its first cell's position;
    - a trace is the line {"body", "run_id"} with its sample_index if it
      has one, else its source's grid_index when grid (the grid's
      (src_ip, src_port) pairs) is given, else its src_ip and src_port."""
    ids, lines = {}, []
    matrix = {"key": None, "first": 0, "cells": [], "bodies": []}

    def close():
        if matrix["cells"]:
            run, dst, protocol = matrix["key"]
            lines.extend(matrix["bodies"])
            lines.append({"cells": matrix["cells"], "dst": dst, "first": matrix["first"],
                          "protocol": protocol, "run_id": run})
            matrix.update(first=matrix["first"] + len(matrix["cells"]), cells=[], bodies=[])

    for record in records:
        key = (record["run_id"], record.get("dst"), record.get("protocol"))
        if record["record_kind"] != "verdict" or key != matrix["key"]:
            close()
            matrix.update(key=key if record["record_kind"] == "verdict" else None, first=0)
        if record["record_kind"] == "meta":
            lines.append(record)
            continue
        body, fields = split_record(record)
        run_ids = ids.setdefault(record["run_id"], {})
        text = json.dumps(body, sort_keys=True)
        new = text not in run_ids
        if new:
            run_ids[text] = len(run_ids)
        body_id = run_ids[text]
        if record["record_kind"] == "verdict":
            if new:
                matrix["bodies"].append({"body": body_id, **body})
            matrix["cells"].append(body_id)
            if len(matrix["cells"]) == per_record:
                close()
            continue
        if new:
            lines.append({"body": body_id, **body})
        line = {"body": body_id, "run_id": record["run_id"]}
        if "sample_index" in fields:
            line["sample_index"] = fields["sample_index"]
        elif grid is not None:
            line["grid_index"] = list(grid).index((fields["src_ip"], fields["src_port"]))
        else:
            line.update(src_ip=fields["src_ip"], src_port=fields["src_port"])
        lines.append(line)
    close()
    return lines


def log_bytes(records, grid=None, per_record=CELLS_PER_RECORD) -> bytes:
    """log_lines(records, grid, per_record) as JSON lines with sorted keys."""
    return b"".join(json.dumps(line, sort_keys=True).encode() + b"\n"
                    for line in log_lines(records, grid, per_record))


def log_records(data: bytes):
    """A log's records, one json.loads per line of UTF-8 text:
    ([(line number, record)], whether a partial last line was dropped).
    Only a line that ends in a newline is complete; a partial last line
    is dropped, and counts as dropped unless it is blank. A blank line
    (bytes.strip() leaves nothing) holds no record. A line that is not
    UTF-8, that json.loads refuses, or whose value is not an object
    ends the list as (line number, None)."""
    lines = data.split(b"\n")
    records = []
    for lineno, line in enumerate(lines[:-1], start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line.decode("utf-8"))
        except ValueError:  # UnicodeDecodeError and JSONDecodeError alike
            record = None
        records.append((lineno, record if isinstance(record, dict) else None))
        if records[-1][1] is None:
            return records, False
    return records, bool(lines[-1].strip())
