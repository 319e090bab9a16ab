"""Deterministic simulated network.

A topology is a directed graph of routers and endpoints. Each router
carries an ECMP policy that picks the next hop as a pure function of a
packet's flow identifier, never of TTL, IP ID, payload, or time.
forward() walks a packet hop by hop, decrementing TTL, consulting
censors, and applying per-node loss from a deterministic stream. A
Topology is immutable once loaded; the only state a walk changes is
the residual-censorship map its caller passes in.
oracle_paths() is the brute-force route ground truth the tracer is
checked against.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

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
    """No (or no unique) endpoint owns the requested address."""


def fnv1a_64(data: bytes) -> int:
    """FNV-1a, 64-bit: xor the byte in, then multiply by the prime."""
    h = FNV64_OFFSET_BASIS
    for b in data:
        h ^= b
        h = (h * FNV64_PRIME) & _U64
    return h


class Role(Enum):
    ROUTER = "router"
    ENDPOINT = "endpoint"


class HashField(Enum):
    SRC_IP = "src_ip"
    DST_IP = "dst_ip"
    SRC_PORT = "src_port"
    DST_PORT = "dst_port"
    PROTOCOL = "protocol"


#: Field order matching the canonical flow serialization.
_FIELD_ORDER = (
    HashField.SRC_IP,
    HashField.DST_IP,
    HashField.SRC_PORT,
    HashField.DST_PORT,
    HashField.PROTOCOL,
)


def _field_bytes(flow: FlowId, f: HashField) -> bytes:
    if f is HashField.SRC_IP:
        return flow.src_ip.to_bytes()
    if f is HashField.DST_IP:
        return flow.dst_ip.to_bytes()
    if f is HashField.SRC_PORT:
        return flow.src_port.to_bytes(2, "big")
    if f is HashField.DST_PORT:
        return flow.dst_port.to_bytes(2, "big")
    return bytes([flow.protocol.value])


def _field_value(flow: FlowId, f: HashField) -> int:
    if f is HashField.SRC_IP:
        return flow.src_ip.value
    if f is HashField.DST_IP:
        return flow.dst_ip.value
    if f is HashField.SRC_PORT:
        return flow.src_port
    if f is HashField.DST_PORT:
        return flow.dst_port
    raise ValueError("protocol has no low-bits view")


@dataclass(frozen=True)
class LowBitsSelector:
    """Pick next hop from the n lowest bits of one header field."""

    fld: HashField
    n_bits: int

    def __post_init__(self) -> None:
        if self.fld is HashField.PROTOCOL:
            raise SchemaError("low_bits selector cannot use the protocol field")
        if not 1 <= self.n_bits <= 8:
            raise SchemaError(f"n_bits must be in 1..8, got {self.n_bits}")

    def index(self, flow: FlowId, fanout: int) -> int:
        return (_field_value(flow, self.fld) & ((1 << self.n_bits) - 1)) % fanout


@dataclass(frozen=True)
class HashTupleSelector:
    """Pick next hop by FNV-1a-64 over selected fields' canonical bytes."""

    fields: frozenset

    def __post_init__(self) -> None:
        if not self.fields:
            raise SchemaError("hash_tuple selector needs at least one field")

    def index(self, flow: FlowId, fanout: int) -> int:
        data = b"".join(_field_bytes(flow, f) for f in _FIELD_ORDER if f in self.fields)
        return fnv1a_64(data) % fanout


Selector = Union[LowBitsSelector, HashTupleSelector]


@dataclass(frozen=True)
class EcmpPolicy:
    selector: Selector
    next_hops: Tuple[NodeId, ...]

    def __post_init__(self) -> None:
        if not self.next_hops:
            raise EmptyNextHopsError("policy with no next hops")


def next_hop(policy: EcmpPolicy, flow: FlowId) -> NodeId:
    """Deterministic ECMP choice; pure in (policy, flow)."""
    return policy.next_hops[policy.selector.index(flow, len(policy.next_hops))]


@dataclass(frozen=True)
class Node:
    id: NodeId
    role: Role
    as_number: int
    subnet24: str
    geo: str
    responsive: bool = True

    def __post_init__(self) -> None:
        if self.id < 0:
            raise SchemaError(f"node id must be non-negative: {self.id}")
        if self.as_number <= 0:
            raise SchemaError(f"as_number must be positive: {self.as_number}")
        _subnet_base(self.subnet24)  # format check

    @property
    def address(self) -> Ipv4Address:
        """Canonical address inside the node's /24; host octet avoids 0/255."""
        return Ipv4Address(_subnet_base(self.subnet24) + (self.id % 254) + 1)


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


@dataclass(frozen=True)
class TransitResult:
    """Fate of one forwarded packet.

    hops is the ordered node sequence traversed (a prefix of the oracle
    path for the packet's flow). events lists every censor action fired
    en route; icmp carries the time-exceeded reply when one was emitted.
    """

    kind: TransitKind
    at: NodeId
    hops: Tuple[NodeId, ...]
    responsive: Optional[bool] = None
    events: Tuple[censors_mod.CensorEvent, ...] = ()
    icmp: Optional[Packet] = None


@dataclass(frozen=True)
class Topology:
    """A loaded topology document. Shared read-only by every session;
    derive variants with dataclasses.replace."""

    nodes: Dict[NodeId, Node]
    policies: Dict[NodeId, EcmpPolicy]
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

    def _pick_entry(self) -> NodeId:
        referenced = {h for p in self.policies.values() for h in p.next_hops}
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

    def resolve_destination(self, address: Ipv4Address) -> Node:
        """Endpoint owning `address`: exact canonical match, else the
        unique endpoint whose /24 contains it."""
        exact = [
            n for n in self._by_address.get(address.value, []) if n.role is Role.ENDPOINT
        ]
        if len(exact) == 1:
            return exact[0]
        containing = [
            n
            for n in self.nodes.values()
            if n.role is Role.ENDPOINT and _subnet_base(n.subnet24) == address.value & 0xFFFFFF00
        ]
        if len(containing) == 1:
            return containing[0]
        if not exact and not containing:
            raise DestinationResolutionError(f"no endpoint owns {address}")
        raise DestinationResolutionError(f"ambiguous endpoint for {address}")


class LossStream:
    """Counter-free deterministic loss stream.

    A draw is a pure function of (seed, epoch, flow, kind, ip_id, node):
    a transient fault at a node in a given logical instant hits every
    packet crossing it at that instant. Because a control probe and its
    sensitive twin share flow, kind, ip_id, and epoch, loss can never
    affect one without the other; the verdict classifier's
    conservativeness rests on that.
    """

    def __init__(self, seed: int, epoch: int, packet: Packet) -> None:
        self._prefix = b"|".join(
            (
                seed.to_bytes(8, "big"),
                epoch.to_bytes(8, "big", signed=True),
                packet.flow.to_bytes(),
                packet.kind.value.encode(),
                packet.ip_id.to_bytes(2, "big"),
            )
        )
        self.epoch = epoch

    def uniform(self, node: NodeId) -> float:
        digest = hashlib.blake2b(
            self._prefix + b"|loss|" + node.to_bytes(8, "big"),
            digest_size=8,
        ).digest()
        return int.from_bytes(digest, "big") / float(1 << 64)

    def drops(self, node: NodeId, p: float) -> bool:
        return p > 0.0 and self.uniform(node) < p


def forward(
    topology: Topology,
    packet: Packet,
    entry: NodeId,
    rng_stream: LossStream,
    residual: Dict[censors_mod.CensorRule, int],
) -> TransitResult:
    """Carry one packet through the topology.

    Per node, in order: record the hop; consult attached censors (a
    silent drop consumes the packet, injections do not); deliver if the
    node is an endpoint; decrement TTL and expire responsively or not;
    apply loss; forward along the ECMP choice. residual is the sending
    session's residual-censorship map (see censors.apply).
    """
    if entry not in topology.nodes:
        raise DanglingNodeRefError(f"entry node {entry} not in topology")
    if packet.ttl < 1:
        raise ValueError("packet ttl must be >= 1")

    hops: List[NodeId] = []
    events: List[censors_mod.CensorEvent] = []
    node_id = entry
    ttl = packet.ttl
    while True:
        if len(hops) >= LOOP_GUARD:
            raise LoopGuardExceededError(f"packet exceeded {LOOP_GUARD} hops")
        node = topology.nodes[node_id]
        hops.append(node_id)

        consumed = False
        for rule in topology.censors_at(node_id):
            event = censors_mod.apply(rule, packet, rng_stream.epoch, residual)
            if event is not None:
                events.append(event)
                if event.action.kind.consumes_packet:
                    consumed = True
        if consumed:
            return TransitResult(
                TransitKind.CENSOR_ACTION, node_id, tuple(hops), events=tuple(events)
            )

        if node.role is Role.ENDPOINT:
            return TransitResult(
                TransitKind.DELIVERED, node_id, tuple(hops), events=tuple(events)
            )

        ttl -= 1
        if ttl == 0:
            icmp = None
            if node.responsive:
                source = SourceParams(packet.flow.src_ip, packet.flow.src_port)
                icmp = Packet(
                    flow=packet.flow,
                    ttl=64,
                    ip_id=packet.ip_id,
                    kind=PacketKind.ICMP_TTL_EXCEEDED,
                    sensitivity=Sensitivity.NOT_APPLICABLE,
                    body_tag=str(node_id),
                    quoted=(source, packet.ip_id),
                )
            return TransitResult(
                TransitKind.TTL_EXCEEDED,
                node_id,
                tuple(hops),
                responsive=node.responsive,
                events=tuple(events),
                icmp=icmp,
            )

        if rng_stream.drops(node_id, topology.loss.get(node_id, 0.0)):
            return TransitResult(
                TransitKind.LOST, node_id, tuple(hops), events=tuple(events)
            )

        node_id = next_hop(topology.policies[node_id], packet.flow)


def oracle_paths(
    topology: Topology,
    dst: NodeId,
    space: Iterable[SourceParams],
    protocol: Protocol,
    dst_port: int,
) -> Dict[SourceParams, Tuple[NodeId, ...]]:
    """Brute-force route per source params, ignoring TTL, loss, censors.

    The returned path is the full node walk from the entry up to (and
    including) the first endpoint reached. Ground truth for the tracer.
    """
    dst_ip = topology.nodes[dst].address
    out: Dict[SourceParams, Tuple[NodeId, ...]] = {}
    for params in space:
        flow = FlowId(params.src_ip, dst_ip, params.src_port, dst_port, protocol)
        path: List[NodeId] = []
        node_id = topology.entry
        while True:
            if len(path) >= LOOP_GUARD:
                raise LoopGuardExceededError(f"oracle walk exceeded {LOOP_GUARD} hops")
            path.append(node_id)
            if topology.nodes[node_id].role is Role.ENDPOINT:
                break
            node_id = next_hop(topology.policies[node_id], flow)
        out[params] = tuple(path)
    return out


# ---------------------------------------------------------------------------
# topology document parsing


def _require_keys(obj: Mapping, required: Sequence[str], optional: Sequence[str], what: str):
    if not isinstance(obj, Mapping):
        raise SchemaError(f"{what}: expected an object, got {type(obj).__name__}")
    missing = [k for k in required if k not in obj]
    if missing:
        raise SchemaError(f"{what}: missing {missing}")
    unknown = [k for k in obj if k not in set(required) | set(optional)]
    if unknown:
        raise SchemaError(f"{what}: unknown keys {unknown}")


def _parse_node(obj: Mapping) -> Node:
    _require_keys(obj, ["id", "role", "asn", "subnet24", "geo", "responsive"], [], "node")
    try:
        role = Role(obj["role"])
    except ValueError as exc:
        raise SchemaError(f"bad role {obj['role']!r}") from exc
    if not isinstance(obj["id"], int) or isinstance(obj["id"], bool):
        raise SchemaError(f"node id must be an integer: {obj['id']!r}")
    if not isinstance(obj["asn"], int) or isinstance(obj["asn"], bool):
        raise SchemaError(f"asn must be an integer: {obj['asn']!r}")
    if not isinstance(obj["responsive"], bool):
        raise SchemaError("responsive must be a boolean")
    return Node(
        id=obj["id"],
        role=role,
        as_number=obj["asn"],
        subnet24=str(obj["subnet24"]),
        geo=str(obj["geo"]),
        responsive=obj["responsive"],
    )


def _parse_selector(obj: Mapping) -> Selector:
    _require_keys(obj, ["kind"], ["field", "fields", "n_bits"], "selector")
    kind = obj["kind"]
    if kind == "low_bits":
        if "field" not in obj or "n_bits" not in obj:
            raise SchemaError("low_bits selector needs field and n_bits")
        try:
            fld = HashField(obj["field"])
        except ValueError as exc:
            raise SchemaError(f"bad hash field {obj['field']!r}") from exc
        return LowBitsSelector(fld, obj["n_bits"])
    if kind == "hash_tuple":
        if "fields" not in obj:
            raise SchemaError("hash_tuple selector needs fields")
        try:
            fields = frozenset(HashField(f) for f in obj["fields"])
        except ValueError as exc:
            raise SchemaError(f"bad hash field in {obj['fields']!r}") from exc
        return HashTupleSelector(fields)
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
    try:
        protocol = AppProtocol(obj["protocol"])
        direction = censors_mod.Direction(obj["direction"])
        action = censors_mod.Action(
            censors_mod.ActionKind(action_obj["kind"]), action_obj.get("tag", "")
        )
        health = censors_mod.Health(obj.get("health", "active"))
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    return censors_mod.CensorRule(
        attach_at=obj["attach_at"],
        protocol=protocol,
        direction=direction,
        domain_pattern=str(obj["domain_pattern"]),
        action=action,
        health=health,
        residual_epochs=obj.get("residual_epochs", 0),
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
    if not isinstance(obj, Mapping):
        raise SchemaError("topology document must be a JSON object")
    _require_keys(obj, ["nodes", "policies", "seed"], ["censors", "loss"], "topology")

    nodes: Dict[NodeId, Node] = {}
    for node_obj in obj["nodes"]:
        node = _parse_node(node_obj)
        if node.id in nodes:
            raise SchemaError(f"duplicate node id {node.id}")
        nodes[node.id] = node

    policies: Dict[NodeId, EcmpPolicy] = {}
    for pol_obj in obj["policies"]:
        _require_keys(pol_obj, ["node", "selector", "next_hops"], [], "policy")
        owner = pol_obj["node"]
        if owner not in nodes:
            raise DanglingNodeRefError(f"policy for unknown node {owner}")
        if nodes[owner].role is Role.ENDPOINT:
            raise SchemaError(f"endpoint {owner} cannot carry an ECMP policy")
        if owner in policies:
            raise SchemaError(f"duplicate policy for node {owner}")
        hops = tuple(pol_obj["next_hops"])
        if not hops:
            raise EmptyNextHopsError(f"policy for node {owner} has no next hops")
        for h in hops:
            if h not in nodes:
                raise DanglingNodeRefError(f"next_hop {h} not in topology")
        policies[owner] = EcmpPolicy(_parse_selector(pol_obj["selector"]), hops)

    for node in nodes.values():
        if node.role is Role.ROUTER and node.id not in policies:
            raise SchemaError(f"router {node.id} has no policy")

    rules: List[censors_mod.CensorRule] = []
    for cen_obj in obj.get("censors", []):
        try:
            rule = _parse_censor(cen_obj)
        except ValueError as exc:
            raise SchemaError(str(exc)) from exc
        if rule.attach_at not in nodes:
            raise DanglingNodeRefError(f"censor attached at unknown node {rule.attach_at}")
        rules.append(rule)

    loss: Dict[NodeId, float] = {}
    for loss_obj in obj.get("loss", []):
        _require_keys(loss_obj, ["node", "p"], [], "loss entry")
        if loss_obj["node"] not in nodes:
            raise DanglingNodeRefError(f"loss entry for unknown node {loss_obj['node']}")
        p = float(loss_obj["p"])
        if not 0.0 <= p <= 1.0:
            raise LossOutOfRangeError(f"loss probability {p} outside [0, 1]")
        loss[loss_obj["node"]] = p

    seed = obj["seed"]
    if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed <= _U64:
        raise SchemaError(f"seed must be a 64-bit unsigned integer: {seed!r}")

    return Topology(
        nodes=nodes, policies=policies, censors=tuple(rules), loss=loss, seed=seed
    )
