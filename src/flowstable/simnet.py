"""Deterministic simulated network.

A topology is a directed graph of routers and endpoints. Each router
carries an ECMP policy that picks the next hop as a pure function of a
packet's flow identifier, never of TTL, IP ID, payload, or time. So a
flow has one route, and with it one set of censors and faults on the
way: route() walks the node sequence once from the entry to the first
endpoint, and compile_route() turns it into hops that each carry what a
packet of that flow meets at the node (the censor rules that can fire
on the flow, endpoint, responsiveness, drop probability). forward()
replays a compiled route for each packet and does only per-packet work:
decrement TTL, consult the hop's censors, draw loss from a
deterministic stream; the route is all it reads of the topology. A loss
draw is the only thing a packet meets that depends on its flow beyond
the route; loss_key_parts() lays out its key. A destination is an
endpoint's own address (Topology.resolve_destination); a packet is only
ever delivered at the last node of its route, which may be another
endpoint than its destination's. A Topology is immutable once loaded;
the only state a walk changes is the residual-censorship map its caller
passes in. oracle_paths() is the route ground truth the tracer is
checked against. A DrawTree keeps the values of runs on one route by
the outcomes of the loss draws each consulted; looking a flow up there
costs one hash of its own flow bytes and key tail per draw point on its
way, into a hasher its node prefilled with the key's head, and the value
it finds is the one its own run gives, since nothing else a run meets
depends on the flow. Every outcome, in a stream and in a tree, is one
comparison of a key's 8-byte digest with its hop's drop threshold
(drop_threshold), which gives what comparing the key's draw with the
drop probability would, with no float.
"""

from __future__ import annotations

import hashlib
import json
from collections import abc
from dataclasses import dataclass, field
from enum import Enum
from operator import attrgetter
from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

from . import censors as censors_mod
from .core import (
    AppProtocol,
    FlowId,
    Ipv4Address,
    Packet,
    PacketKind,
    Protocol,
    Sensitivity,
    SourceParams,
)

NodeId = int

#: Packets must settle within this many hops; deeper walks mean a loop.
LOOP_GUARD = 64

FNV64_OFFSET_BASIS = 0xCBF29CE484222325
FNV64_PRIME = 0x100000001B3
_U64 = 0xFFFFFFFFFFFFFFFF


class SchemaError(ValueError):
    """The topology document violates the schema."""


class DanglingNodeRefError(SchemaError):
    """A policy, censor, or loss entry references a missing node."""


class EmptyNextHopsError(SchemaError):
    """A policy has an empty next-hop list."""


class LossOutOfRangeError(SchemaError):
    """A drop probability falls outside [0, 1]."""


class LoopGuardExceededError(RuntimeError):
    """A packet visited more than LOOP_GUARD hops: malformed topology."""


class DestinationResolutionError(LookupError):
    """No endpoint, or more than one, has the requested address."""


def fnv1a_64(data: bytes, h: int = FNV64_OFFSET_BASIS) -> int:
    """FNV-1a, 64-bit: xor each byte in, then multiply by the prime.
    From h, the hash of bytes that came before data, it gives the hash
    of those bytes and data. Reduced mod 2**64 once, at the end: xor
    with a byte and multiplication both commute with that reduction."""
    for b in data:
        h = (h ^ b) * FNV64_PRIME
    return h & _U64


class Role(Enum):
    ROUTER = "router"
    ENDPOINT = "endpoint"


class HashField(Enum):
    SRC_IP = "src_ip"
    DST_IP = "dst_ip"
    SRC_PORT = "src_port"
    DST_PORT = "dst_port"
    PROTOCOL = "protocol"


#: Each field's bytes in FlowId.to_bytes(), in layout order.
_FIELD_SLICES = {
    HashField.SRC_IP: slice(0, 4),
    HashField.DST_IP: slice(4, 8),
    HashField.SRC_PORT: slice(8, 10),
    HashField.DST_PORT: slice(10, 12),
    HashField.PROTOCOL: slice(12, 13),
}

#: The value a low_bits selector reads of each field but the protocol.
_FIELD_VALUES = {
    HashField.SRC_IP: attrgetter("src_ip.value"),
    HashField.DST_IP: attrgetter("dst_ip.value"),
    HashField.SRC_PORT: attrgetter("src_port"),
    HashField.DST_PORT: attrgetter("dst_port"),
}


#: A router's policy compiled for route(): (slot, part, mask, targets,
#: fanout). A low_bits step has slot None, part its field's getter and mask
#: its n_bits low bits; a hash_tuple step has its field set's slot in a
#: walk's hash list, part the set's chain and mask None. targets holds,
#: per next hop, its node id and its own step (None at an endpoint). A
#: chain is ((slot, slices), ...): hashed field sets whose bytes of
#: FlowId.to_bytes(), in layout order, are each a prefix of the next's,
#: ending at the step's own; a link's slices are the bytes it adds to the
#: link before (adjacent fields merged), so its hash continues that one's.
Step = Tuple[Optional[int], object, Optional[int], List[Tuple[NodeId, Optional[tuple]]], int]


def _compile_steps(policies: Mapping[NodeId, tuple]) -> Tuple[Dict[NodeId, Step], int]:
    """Each router's Step, and how many distinct hash_tuple field sets
    (slots) they hash."""
    chains: Dict[frozenset, tuple] = {}
    hashed = dict.fromkeys(sel for sel, _ in policies.values() if type(sel) is frozenset)
    # Shortest first, so a set's prefixes have their chains before it.
    for fields in sorted(hashed, key=len):
        ordered = [fld for fld in _FIELD_SLICES if fld in fields]
        start = max((i for i in range(1, len(ordered)) if frozenset(ordered[:i]) in chains),
                    default=0)
        slices: List[slice] = []
        for fld in ordered[start:]:
            part = _FIELD_SLICES[fld]
            if slices and slices[-1].stop == part.start:
                part = slice(slices.pop().start, part.stop)
            slices.append(part)
        head = chains[frozenset(ordered[:start])] if start else ()
        chains[fields] = head + ((len(chains), tuple(slices)),)
    steps: Dict[NodeId, Step] = {}
    for node_id, (selector, next_hops) in policies.items():
        if type(selector) is tuple:
            fld, n_bits = selector
            steps[node_id] = (None, _FIELD_VALUES[fld], (1 << n_bits) - 1, [], len(next_hops))
        else:
            chain = chains[selector]
            steps[node_id] = (chain[-1][0], chain, None, [], len(next_hops))
    for node_id, step in steps.items():
        step[3].extend((hop, steps.get(hop)) for hop in policies[node_id][1])
    return steps, len(chains)


@dataclass(frozen=True)
class Node:
    id: NodeId
    role: Role
    as_number: int
    subnet24: str
    geo: str
    responsive: bool = True
    #: Canonical address inside the node's /24; host octet avoids 0/255.
    address: Ipv4Address = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.id < 0:
            raise SchemaError(f"node id must be non-negative: {self.id}")
        if self.as_number <= 0:
            raise SchemaError(f"as_number must be positive: {self.as_number}")
        base = _subnet_base(self.subnet24)
        object.__setattr__(self, "address", Ipv4Address(base + (self.id % 254) + 1))


def _subnet_base(subnet24: str) -> int:
    if not subnet24.endswith("/24"):
        raise SchemaError(f"subnet24 must be a /24 tag: {subnet24!r}")
    base = Ipv4Address.parse(subnet24[:-3])
    if base.value & 0xFF:
        raise SchemaError(f"subnet24 base must end in .0: {subnet24!r}")
    return base.value


class TransitKind(Enum):
    DELIVERED = "delivered"
    TTL_EXCEEDED = "ttl_exceeded"
    LOST = "lost"
    CENSOR_ACTION = "censor_action"


class TransitResult(NamedTuple):
    """Fate of one forwarded packet.

    hops is the ordered node sequence traversed (a prefix of the route
    of the packet's flow); the packet's fate happened at its last node.
    events lists every censor action fired en route; icmp carries the
    time-exceeded reply when one was emitted.
    """

    kind: TransitKind
    hops: Tuple[NodeId, ...]
    events: Tuple[censors_mod.CensorEvent, ...] = ()
    icmp: Optional[Packet] = None


@dataclass(frozen=True)
class Topology:
    """A loaded topology document. Shared read-only by every session;
    derive variants with dataclasses.replace. Loading compiles each
    router's policy once into a step (Step) that route() reads, so a
    walk dispatches on no selector. hop_table() keeps what it derives;
    nothing else changes after loading."""

    nodes: Dict[NodeId, Node]
    #: Each router's (selector, next hops); the selector is (field,
    #: n_bits) for low_bits and the frozenset of its fields for hash_tuple.
    policies: Dict[NodeId, tuple]
    censors: Tuple[censors_mod.CensorRule, ...]
    loss: Dict[NodeId, float]
    seed: int

    def __post_init__(self) -> None:
        censors_at: Dict[NodeId, List[censors_mod.CensorRule]] = {}
        for rule in self.censors:
            censors_at.setdefault(rule.attach_at, []).append(rule)
        by_address: Dict[int, List[Node]] = {}
        for node in self.nodes.values():
            by_address.setdefault(node.address.value, []).append(node)
        object.__setattr__(self, "_censors_at", censors_at)
        object.__setattr__(self, "_by_address", by_address)
        object.__setattr__(self, "_entry", self._pick_entry())
        steps, n_slots = _compile_steps(self.policies)
        object.__setattr__(self, "_steps", steps)
        object.__setattr__(self, "_unhashed", [None] * n_slots)
        object.__setattr__(self, "_hop_tables", {})

    def _pick_entry(self) -> NodeId:
        referenced = {h for _, hops in self.policies.values() for h in hops}
        roots = sorted(
            n.id
            for n in self.nodes.values()
            if n.role is Role.ROUTER and n.id not in referenced
        )
        if roots:
            return roots[0]
        routers = sorted(n.id for n in self.nodes.values() if n.role is Role.ROUTER)
        if not routers:
            raise SchemaError("topology has no routers")
        return routers[0]

    @property
    def entry(self) -> NodeId:
        """Where probes enter: the lowest-id router no policy points at."""
        return self._entry

    def censors_at(self, node: NodeId) -> List[censors_mod.CensorRule]:
        return self._censors_at.get(node, [])

    def hop_table(self, flow: FlowId) -> Dict[NodeId, "Hop"]:
        """The Hop of every node for flows with flow's transport and
        destination port, the only parts of a flow a hop depends on;
        built on the first call per (transport, port) and kept, with
        each node's drop threshold computed once."""
        key = (flow.protocol.number, flow.dst_port)  # a member's own hash runs in Python
        table = self._hop_tables.get(key)
        if table is None:
            table = {}
            for node_id, node in self.nodes.items():
                rules = tuple(r for r in self.censors_at(node_id) if r.can_fire_on(flow))
                p = self.loss.get(node_id, 0.0)
                table[node_id] = Hop(
                    rules,
                    node.role is Role.ENDPOINT,
                    node.responsive,
                    p,
                    drop_threshold(p),
                )
            self._hop_tables[key] = table
        return table

    def resolve_destination(self, address: Ipv4Address) -> Node:
        """The endpoint whose own address (Node.address) is address."""
        owners = [
            n for n in self._by_address.get(address.value, []) if n.role is Role.ENDPOINT
        ]
        if not owners:
            raise DestinationResolutionError(f"no endpoint has address {address}")
        if len(owners) > 1:
            raise DestinationResolutionError(f"ambiguous endpoint for {address}")
        return owners[0]


def loss_key_parts(
    seed: int, epoch: int, kind: PacketKind, ip_id: int, node: NodeId
) -> Tuple[bytes, bytes]:
    """The loss key of a draw around its flow's bytes: the key is
    head + flow_bytes + tail, laid out as
    seed(8)|epoch(8, signed)|flow(13)|kind|ip_id(2)|loss|node(8), with
    integers big-endian, flow as FlowId.to_bytes(), kind as the packet
    kind's value (PacketKind.encoded) and `|` a literal separator. The
    only place the key's layout is written down."""
    head = seed.to_bytes(8, "big") + b"|" + epoch.to_bytes(8, "big", signed=True) + b"|"
    tail = (b"|" + kind.encoded + b"|" + ip_id.to_bytes(2, "big") + b"|loss|"
            + node.to_bytes(8, "big"))
    return head, tail


def _loss_hasher(data: bytes):
    """The loss hash, blake2b with an 8-byte digest, fed data."""
    return hashlib.blake2b(data, digest_size=8)


#: Above every 8-byte digest: bytes compare in order, and a proper
#: prefix is less, so b"\xff" * 8 is below it too.
_ABOVE_EVERY_DIGEST = b"\xff" * 9
_ZERO_DIGEST = bytes(8)
_TWO_64 = float(1 << 64)


def drop_threshold(p: float) -> bytes:
    """The drop threshold of probability p: the least 8-byte digest
    (big-endian) whose draw is at least p, so a digest is below it
    exactly where its draw is below p. A loss key's draw, which defines
    whether it drops, is its digest over 2**64, rounded to the nearest
    float. Found by bisection on that arithmetic, since p * 2**64 rounds
    otherwise than the draw does. For p >= 1 it lies above every digest, so every packet
    drops, the 1,024 whose draw rounds to 1.0 included. For p <= 0 it is
    the zero digest, without a search: most hops have no loss."""
    if p >= 1.0:
        return _ABOVE_EVERY_DIGEST
    if p <= 0.0:
        return _ZERO_DIGEST
    # (2**64 - 1) draws 1.0, so the least such digest is at most that.
    lo, hi = 0, _U64
    while lo < hi:
        mid = (lo + hi) >> 1
        if mid / _TWO_64 < p:
            lo = mid + 1
        else:
            hi = mid
    return lo.to_bytes(8, "big")


#: Where a packet drew loss: its key's parts around the flow's bytes
#: (loss_key_parts) and the hop's drop threshold (drop_threshold).
DrawPoint = Tuple[bytes, bytes, bytes]


class _Draw:
    """An inner node of a DrawTree: a draw point, held as a loss hasher
    prefilled with the key's head, the key's tail and the threshold, and
    the subtree of each outcome there, indexed by whether the draw
    dropped."""

    __slots__ = ("hasher", "tail", "threshold", "branches")

    def __init__(self, point: DrawPoint) -> None:
        head, self.tail, self.threshold = point
        self.hasher = _loss_hasher(head)
        self.branches: List[object] = [None, None]


class DrawTree:
    """The values of runs that meet the same route and differ only in
    their flow, by the outcomes of the loss draws each consulted.

    A loss draw is the only thing such a run meets that depends on its
    flow beyond the route. Before its first draw every run does the
    same; after it, what a run does next depends only on whether the
    draw dropped; and so on. So a run's value is a function of the
    outcomes of the draw points it consulted, in the order it first
    consulted them, and which point comes next is a function of the
    outcomes before it. An inner node is such a point, its two branches
    its outcomes (pass, drop), and a path ends in the run's value
    itself, never None. A point a run consults again gives its flow the
    same outcome, so it appears once on a path. find() follows a flow's
    own outcomes down the tree: at each inner node on its path it copies
    the node's hasher, which already holds the key's head, feeds it the
    flow's bytes and the key's tail, and compares the digest with the
    node's threshold, the comparison LossStream.uniform makes; graft()
    adds a run's path.
    """

    def __init__(self) -> None:
        #: The root, in a one-slot list so graft() fills it like a branch.
        self._top: List[object] = [None]

    def find(self, flow: FlowId) -> object:
        """The value flow's own draws lead to, or None where no run with
        its outcomes has been grafted yet."""
        node = self._top[0]
        if type(node) is _Draw:
            flow_bytes = flow.to_bytes()
            while type(node) is _Draw:
                hasher = node.hasher.copy()
                hasher.update(flow_bytes + node.tail)
                node = node.branches[hasher.digest() < node.threshold]
        return node

    def graft(self, draws: Mapping[DrawPoint, bool], value: object) -> None:
        """Add the path of a run that find() missed: its distinct draw
        points in the order it first consulted them, each mapped to
        whether it dropped, and its value (not None)."""
        branches, slot = self._top, 0
        for point, dropped in draws.items():
            if branches[slot] is None:
                branches[slot] = _Draw(point)
            branches, slot = branches[slot].branches, dropped
        branches[slot] = value


class LossStream:
    """Counter-free deterministic loss stream of one packet.

    A draw is a pure function of (seed, epoch, flow, kind, ip_id, node),
    keyed as loss_key_parts lays out: a transient fault at a
    node in a given logical instant hits every packet crossing it at that
    instant. Because a control probe and its sensitive twin share flow,
    kind, ip_id, and epoch, loss can never affect one without the other;
    the verdict classifier's conservativeness rests on that.

    flow_bytes are the flow's serialized bytes, FlowId.to_bytes(): a
    session passes its route's, built once (Route.flow_bytes), and has no
    stream where no hop draws. uniform(node, threshold) decides the draw
    at a node by comparing its key's 8-byte digest with the hop's drop
    threshold (Hop.threshold), the one rule for an outcome, and records
    the draw's point in draws, its session's map (a DrawTree path), with
    whether it dropped the packet, in the order first drawn.
    """

    def __init__(self, seed: int, epoch: int, packet: Packet,
                 flow_bytes: bytes, draws: Dict[DrawPoint, bool]) -> None:
        self._seed = seed
        self._packet = packet
        self._flow_bytes = flow_bytes
        self._draws = draws
        self._epoch = epoch

    def uniform(self, node: NodeId, threshold: bytes) -> bool:
        """Whether the draw at node drops the packet: its key's digest is
        below threshold, the node's drop threshold. Recorded in draws."""
        packet = self._packet
        head, tail = loss_key_parts(self._seed, self._epoch, packet.kind, packet.ip_id, node)
        dropped = _loss_hasher(head + self._flow_bytes + tail).digest() < threshold
        self._draws.setdefault((head, tail, threshold), dropped)
        return dropped


def route(topology: Topology, flow: FlowId) -> Tuple[NodeId, ...]:
    """The flow's node walk from the entry up to (and including) the
    first endpoint, ignoring TTL, loss and censors.

    The one home of the branch rule. Each hop is one step of the table
    the topology compiled at load (Step): a low_bits step takes its
    field's value's masked low bits modulo the fanout; a hash_tuple step
    takes the FNV hash (fnv1a_64) of its fields' bytes of
    flow.to_bytes(), in layout order, modulo the fanout. That hash
    depends only on the flow and the field set, never on the node, so
    the walk hashes each field set once, and builds the flow's bytes at
    most once. A set whose bytes extend another set's (its step's chain)
    hashes only the bytes it adds, from that set's hash, so a walk hashes
    each byte of a chain once. Every router has a step, so the walk ends
    at the first node without one, an endpoint. On a looping topology
    the walk stops after LOOP_GUARD nodes, so the route ends on a
    router; a packet that gets that far raises in forward().
    """
    node_id = topology.entry
    path = [node_id]
    step = topology._steps.get(node_id)
    hashes = topology._unhashed.copy()
    flow_bytes = None
    for _ in _LOOP_HOPS:
        if step is None:
            break
        slot, part, mask, targets, fanout = step
        if slot is None:
            node_id, step = targets[(part(flow) & mask) % fanout]
        else:
            h = hashes[slot]
            if h is None:
                if flow_bytes is None:
                    flow_bytes = flow.to_bytes()
                h = FNV64_OFFSET_BASIS
                for link, slices in part:
                    known = hashes[link]
                    h = hashes[link] = known if known is not None else fnv1a_64(
                        b"".join([flow_bytes[s] for s in slices]), h)
            node_id, step = targets[h % fanout]
        path.append(node_id)
    return tuple(path)


#: The most hops a walk takes: LOOP_GUARD nodes, the entry included.
_LOOP_HOPS = range(LOOP_GUARD - 1)


class Hop(NamedTuple):
    """One node of a compiled route, with what a packet of the route's
    flow meets there."""

    #: The node's rules that can fire on the flow (CensorRule.can_fire_on),
    #: in document order.
    rules: Tuple[censors_mod.CensorRule, ...]
    endpoint: bool
    responsive: bool
    #: Drop probability; 0.0 where the document lists no loss.
    loss: float
    #: drop_threshold(loss): a draw here drops where its digest is below it.
    threshold: bytes


@dataclass(frozen=True)
class Route:
    """A flow's route compiled against one topology (see compile_route):
    everything a session reads to carry a packet of the flow."""

    flow: FlowId
    #: The node ids of route(topology, flow).
    nodes: Tuple[NodeId, ...]
    #: The Hop at each node for the flow: topology.hop_table(flow), shared
    #: by every route of the flow's transport and port.
    hops: Dict[NodeId, Hop]
    #: flow.to_bytes(), the loss key's flow part; None when no hop drops.
    flow_bytes: Optional[bytes]
    #: The topology's seed, the loss key's first part.
    seed: int
    #: The one "reached" rule: the last node has the flow's destination
    #: address. Elsewhere a delivered packet meets a silent host.
    at_destination: bool
    #: The flow's source, which every ICMP reply on the route quotes.
    source: SourceParams


def compile_route(topology: Topology, flow: FlowId, nodes: Tuple[NodeId, ...]) -> Route:
    """nodes, route(topology, flow) as the caller walked it, with every
    per-node fact fixed by the flow looked up once (see
    Topology.hop_table)."""
    hops = topology.hop_table(flow)
    flow_bytes = flow.to_bytes() if any(hops[n].loss > 0.0 for n in nodes) else None
    at_destination = topology.nodes[nodes[-1]].address == flow.dst_ip
    return Route(flow, nodes, hops, flow_bytes, topology.seed, at_destination,
                 SourceParams(flow.src_ip, flow.src_port))


def forward(
    packet: Packet,
    path: Route,
    epoch: int,
    rng_stream: Optional[LossStream],
    residual: Dict[Tuple, int],
) -> TransitResult:
    """Carry one packet of epoch along path, its flow's compiled route
    (see compile_route()), which holds all forward reads of the topology.

    Per hop, in order: record the hop; consult the hop's censor rules (a
    silent drop consumes the packet, injections do not); deliver if the
    hop is an endpoint; decrement TTL and expire responsively or not;
    draw loss if the hop has any, lost where the stream's outcome is a
    drop (rng_stream.uniform, None where no hop draws); move on to the
    next hop. A packet that outlives a route cut by the loop guard
    raises LoopGuardExceededError. residual is the sending session's
    residual-censorship map (see censors.apply).
    """
    if packet.ttl < 1:
        raise ValueError("packet ttl must be >= 1")

    events: List[censors_mod.CensorEvent] = []
    ttl = packet.ttl
    hops = path.hops
    for depth, node_id in enumerate(path.nodes, start=1):
        rules, endpoint, responsive, p, threshold = hops[node_id]
        if rules:
            consumed = False
            for rule in rules:
                event = censors_mod.apply(rule, packet, epoch, residual)
                if event is not None:
                    events.append(event)
                    if event.action.kind.consumes_packet:
                        consumed = True
            if consumed:
                return TransitResult(
                    TransitKind.CENSOR_ACTION, path.nodes[:depth], tuple(events)
                )

        if endpoint:
            return TransitResult(TransitKind.DELIVERED, path.nodes[:depth], tuple(events))

        ttl -= 1
        if ttl == 0:
            icmp = None
            if responsive:
                ip_id = packet.ip_id
                icmp = Packet(packet.flow, 64, ip_id, PacketKind.ICMP_TTL_EXCEEDED,
                              Sensitivity.NOT_APPLICABLE, str(node_id), (path.source, ip_id))
            return TransitResult(
                TransitKind.TTL_EXCEEDED, path.nodes[:depth], tuple(events), icmp
            )

        if p > 0.0 and rng_stream.uniform(node_id, threshold):
            return TransitResult(TransitKind.LOST, path.nodes[:depth], tuple(events))
    raise LoopGuardExceededError(f"packet exceeded {LOOP_GUARD} hops")


def oracle_paths(
    topology: Topology,
    dst: NodeId,
    space: Iterable[SourceParams],
    protocol: Protocol,
    dst_port: int,
) -> Dict[SourceParams, Tuple[NodeId, ...]]:
    """The route of each source params' flow to dst (see route()).
    Ground truth for the tracer; a route that never reaches an endpoint
    raises LoopGuardExceededError.
    """
    dst_ip = topology.nodes[dst].address
    out: Dict[SourceParams, Tuple[NodeId, ...]] = {}
    for params in space:
        path = route(topology, FlowId(params.src_ip, dst_ip, params.src_port, dst_port, protocol))
        if topology.nodes[path[-1]].role is not Role.ENDPOINT:
            raise LoopGuardExceededError(f"oracle walk exceeded {LOOP_GUARD} hops")
        out[params] = path
    return out


# ---------------------------------------------------------------------------
# topology document parsing


def _require_keys(obj: Mapping, required: Sequence[str], optional: Sequence[str], what: str):
    # collections.abc's Mapping: typing's checks instances more slowly.
    if not isinstance(obj, abc.Mapping):
        raise SchemaError(f"{what}: expected an object, got {type(obj).__name__}")
    missing = [k for k in required if k not in obj]
    if missing:
        raise SchemaError(f"{what}: missing {missing}")
    allowed = {*required, *optional}
    unknown = [k for k in obj if k not in allowed]
    if unknown:
        raise SchemaError(f"{what}: unknown keys {unknown}")


def _int(value, what: str) -> int:
    """value, when it is a JSON integer (not a boolean)."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise SchemaError(f"{what} must be an integer: {value!r}")
    return value


def _list(value, what: str) -> list:
    """value, when it is a JSON array."""
    if not isinstance(value, list):
        raise SchemaError(f"{what} must be a list: {value!r}")
    return value


def _parse_node(obj: Mapping) -> Node:
    _require_keys(obj, ["id", "role", "asn", "subnet24", "geo", "responsive"], [], "node")
    try:
        role = Role(obj["role"])
    except ValueError as exc:
        raise SchemaError(f"bad role {obj['role']!r}") from exc
    if not isinstance(obj["responsive"], bool):
        raise SchemaError("responsive must be a boolean")
    return Node(
        id=_int(obj["id"], "node id"),
        role=role,
        as_number=_int(obj["asn"], "asn"),
        subnet24=str(obj["subnet24"]),
        geo=str(obj["geo"]),
        responsive=obj["responsive"],
    )


def _parse_selector(obj: Mapping) -> Union[Tuple[HashField, int], frozenset]:
    """The selector as Topology.policies holds it."""
    _require_keys(obj, ["kind"], ["field", "fields", "n_bits"], "selector")
    kind = obj["kind"]
    if kind == "low_bits":
        if "field" not in obj or "n_bits" not in obj:
            raise SchemaError("low_bits selector needs field and n_bits")
        try:
            fld = HashField(obj["field"])
        except ValueError as exc:
            raise SchemaError(f"bad hash field {obj['field']!r}") from exc
        n_bits = _int(obj["n_bits"], "n_bits")
        if fld is HashField.PROTOCOL:
            raise SchemaError("low_bits selector cannot use the protocol field")
        if not 1 <= n_bits <= 8:
            raise SchemaError(f"n_bits must be in 1..8, got {n_bits}")
        return fld, n_bits
    if kind == "hash_tuple":
        if "fields" not in obj:
            raise SchemaError("hash_tuple selector needs fields")
        try:
            fields = frozenset(HashField(f) for f in _list(obj["fields"], "fields"))
        except ValueError as exc:
            raise SchemaError(f"bad hash field in {obj['fields']!r}") from exc
        if not fields:
            raise SchemaError("hash_tuple selector needs at least one field")
        return fields
    raise SchemaError(f"unknown selector kind {kind!r}")


def _parse_censor(obj: Mapping) -> censors_mod.CensorRule:
    _require_keys(
        obj,
        ["attach_at", "protocol", "direction", "domain_pattern", "action"],
        ["health", "residual_epochs"],
        "censor",
    )
    action_obj = obj["action"]
    _require_keys(action_obj, ["kind"], ["tag"], "censor action")
    # load_topology turns a bad value's ValueError into a SchemaError
    return censors_mod.CensorRule(
        protocol=AppProtocol(obj["protocol"]),
        direction=censors_mod.Direction(obj["direction"]),
        action=censors_mod.Action(
            censors_mod.ActionKind(action_obj["kind"]), action_obj.get("tag", "")),
        health=censors_mod.Health(obj.get("health", "active")),
        attach_at=_int(obj["attach_at"], "attach_at"),
        domain_pattern=str(obj["domain_pattern"]),
        residual_epochs=_int(obj.get("residual_epochs", 0), "residual_epochs"),
    )


def load_topology(document: Union[str, Mapping]) -> Topology:
    """Parse and fully validate a topology document (JSON text or dict)."""
    if isinstance(document, str):
        try:
            obj = json.loads(document)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"not valid JSON: {exc}") from exc
    else:
        obj = document
    if not isinstance(obj, abc.Mapping):
        raise SchemaError("topology document must be a JSON object")
    _require_keys(obj, ["nodes", "policies", "seed"], ["censors", "loss"], "topology")

    nodes: Dict[NodeId, Node] = {}
    for node_obj in _list(obj["nodes"], "nodes"):
        node = _parse_node(node_obj)
        if node.id in nodes:
            raise SchemaError(f"duplicate node id {node.id}")
        nodes[node.id] = node

    policies: Dict[NodeId, tuple] = {}
    for pol_obj in _list(obj["policies"], "policies"):
        _require_keys(pol_obj, ["node", "selector", "next_hops"], [], "policy")
        owner = _int(pol_obj["node"], "policy node")
        if owner not in nodes:
            raise DanglingNodeRefError(f"policy for unknown node {owner}")
        if nodes[owner].role is Role.ENDPOINT:
            raise SchemaError(f"endpoint {owner} cannot carry an ECMP policy")
        if owner in policies:
            raise SchemaError(f"duplicate policy for node {owner}")
        hops = tuple(_int(h, "next_hop") for h in _list(pol_obj["next_hops"], "next_hops"))
        if not hops:
            raise EmptyNextHopsError(f"policy for node {owner} has no next hops")
        for h in hops:
            if h not in nodes:
                raise DanglingNodeRefError(f"next_hop {h} not in topology")
        policies[owner] = (_parse_selector(pol_obj["selector"]), hops)

    for node in nodes.values():
        if node.role is Role.ROUTER and node.id not in policies:
            raise SchemaError(f"router {node.id} has no policy")

    rules: List[censors_mod.CensorRule] = []
    for cen_obj in _list(obj.get("censors", []), "censors"):
        try:
            rule = _parse_censor(cen_obj)
        except ValueError as exc:
            raise SchemaError(str(exc)) from exc
        if rule.attach_at not in nodes:
            raise DanglingNodeRefError(f"censor attached at unknown node {rule.attach_at}")
        rules.append(rule)

    loss: Dict[NodeId, float] = {}
    for loss_obj in _list(obj.get("loss", []), "loss"):
        _require_keys(loss_obj, ["node", "p"], [], "loss entry")
        if _int(loss_obj["node"], "loss node") not in nodes:
            raise DanglingNodeRefError(f"loss entry for unknown node {loss_obj['node']}")
        p = loss_obj["p"]
        if not isinstance(p, (int, float)) or isinstance(p, bool):
            raise SchemaError(f"loss probability must be a number: {p!r}")
        p = float(p)
        if not 0.0 <= p <= 1.0:
            raise LossOutOfRangeError(f"loss probability {p} outside [0, 1]")
        loss[loss_obj["node"]] = p

    seed = obj["seed"]
    if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed <= _U64:
        raise SchemaError(f"seed must be a 64-bit unsigned integer: {seed!r}")

    return Topology(
        nodes=nodes, policies=policies, censors=tuple(rules), loss=loss, seed=seed
    )
