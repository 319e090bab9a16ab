"""Route-stable protocol probes and the conservative verdict classifier.

A probe spec fixes every packet field that feeds ECMP hashing, so all
packets of one spec share a single flow id and therefore a single
route. Every probe runs through a transport's run(): the simulator
backend opens each session there, on the flow's compiled route, and
shares the result among flows on the same route whose loss draws have
the same outcomes; the live adapter deliberately only raises. run_cell
probes and classifies a control/sensitive cell and tracer.trace climbs
a TTL ladder, both through run(). This module holds probes only: the route and the loss
key are simnet's, and a result's log line is logio's.

Verdicts follow the all-repetitions rule: a cell is Censored only when
every sensitive repetition shows the censoring behavior and every
control repetition is clean; it is NotCensored only when every
sensitive repetition is clean (a payload: the origin's body); else Excluded.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import (
    Callable, Dict, Hashable, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple,
    TypeVar,
)

from .core import (
    AppProtocol,
    FlowId,
    Ipv4Address,
    Mechanism,
    Packet,
    PacketKind,
    Sensitivity,
    SourceParams,
    Verdict,
    VerdictKind,
)
from .simnet import (
    DrawPoint,
    DrawTree,
    LossStream,
    Route,
    Topology,
    TransitKind,
    compile_route,
    forward,
    route,
)
from .censors import ActionKind, CensorEvent

#: Initial TTL on probe packets; paths deeper than this are malformed.
PROBE_TTL = 64

DEFAULT_REPETITIONS = 3

#: The body of the origin's reply to a payload: this prefix, then its domain.
ORIGIN_BODY_PREFIX = "origin:"

R = TypeVar("R")


def _flow(protocol: AppProtocol, dst_ip: Ipv4Address, source: SourceParams) -> FlowId:
    """The one flow id of every packet a probe of protocol from source
    to dst_ip sends; its destination port is the protocol's."""
    return FlowId(
        source.src_ip, dst_ip, source.src_port, protocol.port, protocol.transport
    )


class TransportUnavailableError(RuntimeError):
    """The transport cannot carry probes."""


class LengthMismatchError(ValueError):
    """Control and sensitive observation lists differ in length."""


@dataclass(frozen=True)
class ProbeSpec:
    """One protocol exchange to a fixed destination with fixed source
    parameters. All packets it emits share one flow id. How often it
    runs is its caller's to say (Cell.repetitions; a trace sends one
    ladder)."""

    protocol: AppProtocol
    dst_ip: Ipv4Address
    domain: str
    sensitivity: Sensitivity
    source: SourceParams
    #: The one flow id of every packet the spec emits, built once; its
    #: destination port is the protocol's.
    flow: FlowId = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.sensitivity is Sensitivity.NOT_APPLICABLE:
            raise ValueError("probe sensitivity must be control or sensitive")
        object.__setattr__(self, "flow", _flow(self.protocol, self.dst_ip, self.source))


class ObservationKind(Enum):
    PAYLOAD_RESPONSE = "payload_response"
    RST_RECEIVED = "rst_received"
    DNS_RESPONSE = "dns_response"
    NO_RESPONSE = "no_response"
    HANDSHAKE_FAILED = "handshake_failed"


@dataclass(frozen=True)
class Observation:
    epoch: int
    kind: ObservationKind
    tag: str = ""


class BlockpageRegistry:
    """Known blockpage templates; matching is exact on template id."""

    def __init__(self, templates: Optional[Mapping[str, str]] = None) -> None:
        self._templates = dict(templates or {})

    @classmethod
    def load(cls, text: str) -> "BlockpageRegistry":
        entries = json.loads(text)
        return cls({e["template_id"]: e["label"] for e in entries})

    def matches(self, template_id: str) -> bool:
        return template_id in self._templates


EMPTY_REGISTRY = BlockpageRegistry()


@dataclass(frozen=True)
class CellResult:
    """What a control/sensitive cell observed, and its verdict."""

    control: Tuple[Observation, ...]
    sensitive: Tuple[Observation, ...]
    verdict: Verdict


@dataclass(frozen=True)
class Cell:
    """Everything a control/sensitive cell fixes but its source: the
    destination, protocol and (control, sensitive) domain pair its two
    probes carry, their repetitions, and the registry classify reads.
    classify runs once per result that run_cell shares, so key covers
    the registry by its own equality.
    """

    protocol: AppProtocol
    dst_ip: Ipv4Address
    domains: Tuple[str, str]
    repetitions: int = DEFAULT_REPETITIONS
    registry: BlockpageRegistry = EMPTY_REGISTRY
    #: With the route, what fixes every packet the cell sends and every
    #: value it returns (see SimTransport.run).
    key: Tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        control, sensitive = self.domains
        # Enum values, not members: members hash slowly.
        key = (
            "cell", self.protocol.value, self.dst_ip.value, control, sensitive,
            self.repetitions, self.registry,
        )
        object.__setattr__(self, "key", key)

    def specs(self, source: SourceParams) -> Tuple[ProbeSpec, ProbeSpec]:
        """The cell's control and sensitive probe specs from source."""
        control, sensitive = self.domains
        return (
            ProbeSpec(self.protocol, self.dst_ip, control, Sensitivity.CONTROL, source),
            ProbeSpec(self.protocol, self.dst_ip, sensitive, Sensitivity.SENSITIVE, source),
        )


class SendResult(NamedTuple):
    """What the transport hands back for one emitted packet: its replies
    and whether it reached the flow's destination (Session.send decides)."""

    responses: Tuple[Packet, ...]
    reached: bool


_LIVE_UNAVAILABLE = "live probing is intentionally not implemented; use the simulator backend"


class LiveTransport:
    """Placeholder for probing real networks: permanently unavailable.

    Measuring live networks can put uninvolved people at risk and needs
    consent, review, and infrastructure this codebase does not provide.
    The interface exists so a vetted adapter could be slotted in
    out-of-tree; every operation here raises.
    """

    def run(self, flow: FlowId, key: Hashable, probe: Callable[["Session"], R]) -> R:
        raise TransportUnavailableError(_LIVE_UNAVAILABLE)


#: Most results a SimTransport keeps for one (destination, protocol).
#: Beyond it a flow that finds no kept result is simulated, and its
#: result not kept, as without sharing; this bounds memory where flows
#: rarely share a route or a loss outcome.
SHARED_LIMIT = 256


class SimTransport:
    """Transport bound to a simulated topology: one simulation per route
    and loss outcome.

    A flow's route fixes every censor, fault and endpoint its packets
    meet, so what a probe observes depends on its source only through
    the route and the loss draws. run() keeps the results of a probe's
    runs per (route, key), the key naming the probe and everything but
    the source that its packets and its result depend on, in a decision
    tree over the runs' loss draws (simnet.DrawTree): an inner node is
    the next distinct draw point the runs consulted, a branch its
    outcome, and a leaf a result. A later flow on that route computes
    its own draw at each node on its way, one loss key per node, and
    takes the leaf it reaches; where a branch is missing it is simulated
    and its run grafted on. This is exact: a run's result depends only
    on its route, its key and the outcomes of the draws it consulted,
    in the order it consulted them, so a flow that draws the same
    outcomes gets the result its own simulation gives.

    The trees are kept for one (destination, protocol) at a time, at
    most SHARED_LIMIT leaves in all, and dropped when a probe of another
    one runs, so memory does not grow with the sweep or with the number
    of routes. The topology itself is never changed.
    """

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        self._scope: Optional[Tuple[Ipv4Address, int]] = None
        #: (route nodes, key) -> the tree of its runs' results
        self._shared: Dict[Tuple, DrawTree] = {}
        #: How many leaves the trees in _shared hold.
        self._leaves = 0

    def run(self, flow: FlowId, key: Hashable, probe: Callable[["Session"], R]) -> R:
        """probe(session) on a fresh session of flow, or the result of an
        earlier such run with the same key on the same route whose draws
        had the outcomes flow's own draws have at the same points.

        key must name the probe and everything other than the source
        that the probe's packets and its result depend on. A run that
        raises is not kept, nor is one past SHARED_LIMIT. The result is
        shared, so callers must not change it.

        The session opens on the flow's compiled route alone; nothing
        here looks the destination up. Whether the route ends at the
        flow's destination is the route's one rule (Route.at_destination).
        A kept run's path in its tree is Session.draws; a result is never None.
        """
        topology = self.topology
        nodes = route(topology, flow)
        # The destination port names the protocol.
        scope = (flow.dst_ip, flow.dst_port)
        if scope != self._scope:
            self._scope = scope
            self._shared = {}
            self._leaves = 0
        shared_key = (nodes, key)
        tree = self._shared.get(shared_key)
        if tree is not None:
            kept = tree.find(flow)
            if kept is not None:
                return kept
        session = Session(compile_route(topology, flow, nodes))
        result = probe(session)
        if self._leaves < SHARED_LIMIT:
            if tree is None:
                tree = self._shared[shared_key] = DrawTree()
            tree.graft(session.draws, result)
            self._leaves += 1
        return result


class Session:
    """One probe session on one flow: the flow's compiled route, an
    epoch clock, the residual-censorship windows its packets opened, and
    send/receive plumbing.

    Routing is pure in the flow, and so is everything a packet meets on
    the way. The session is opened on the flow's compiled route alone
    (simnet.compile_route) and reads no topology. Every packet the
    session sends replays the route's hops, and a delivered one gets the
    origin's answer only on a route that ends at the flow's destination
    (Route.at_destination). The session only carries packets of its own
    flow.

    draws maps each distinct point where a packet drew loss
    (simnet.DrawPoint), in the order first drawn, to whether that draw
    dropped the packet: the run's path in SimTransport.run's tree. Each
    packet's simnet.LossStream records its draws there as it draws them;
    the session only hands the map over. A control probe and its
    sensitive twin share a point.
    """

    def __init__(self, route: Route) -> None:
        self.route = route
        self.flow = route.flow
        #: The origin's reply to each (kind, body_tag) of probe, built once;
        #: keyed by the kind's bytes, which hash in C.
        self._replies: Dict[Tuple[bytes, str], Optional[Packet]] = {}
        self.epoch = 0
        self.residual: Dict[Tuple, int] = {}
        self.draws: Dict[DrawPoint, bool] = {}

    def advance(self) -> None:
        """Start the next epoch: a probe's repetitions run in epochs 1..n."""
        self.epoch += 1

    def send(self, packet: Packet) -> SendResult:
        """Forward packet along the session's route and collect what
        comes back. A packet of another flow raises ValueError."""
        if packet.flow is not self.flow and packet.flow != self.flow:
            raise ValueError(f"packet flow {packet.flow} is not the session's flow {self.flow}")
        route, epoch = self.route, self.epoch
        stream = None if route.flow_bytes is None else LossStream(
            route.seed, epoch, packet, route.flow_bytes, self.draws)
        result = forward(packet, route, epoch, stream, self.residual)
        reached = result.kind is TransitKind.DELIVERED and route.at_destination
        responses: List[Packet] = []
        # Injected packets win any race with the origin, so they come first.
        for event in result.events:
            injected = self._injected_packet(packet, event)
            if injected is not None:
                responses.append(injected)
        if reached:
            key = (packet.kind.encoded, packet.body_tag)
            if key not in self._replies:
                self._replies[key] = self._origin_response(packet)
            origin = self._replies[key]
            if origin is not None:
                responses.append(origin)
        if result.icmp is not None:
            responses.append(result.icmp)
        return SendResult(tuple(responses), reached)

    def _injected_packet(self, probe: Packet, event: CensorEvent) -> Optional[Packet]:
        kind = event.action.kind
        if kind is ActionKind.INJECT_RST:
            return Packet(probe.flow, ttl=64, kind=PacketKind.TCP_RST)
        if kind is ActionKind.INJECT_DNS_ANSWER:
            return Packet(
                probe.flow, ttl=64, kind=PacketKind.DNS_RESPONSE, body_tag=event.action.tag
            )
        if kind is ActionKind.INJECT_BLOCKPAGE:
            return Packet(
                probe.flow, ttl=64, kind=PacketKind.HTTP_RESPONSE, body_tag=event.action.tag
            )
        return None

    def _origin_response(self, probe: Packet) -> Optional[Packet]:
        # Endpoints run no DNS resolver, so delivered queries die silently.
        if probe.kind is PacketKind.TCP_SYN:
            return Packet(probe.flow, ttl=64, kind=PacketKind.TCP_SYNACK)
        if probe.kind is PacketKind.TCP_PAYLOAD:
            return Packet(
                probe.flow,
                ttl=64,
                kind=PacketKind.HTTP_RESPONSE,
                body_tag=f"{ORIGIN_BODY_PREFIX}{probe.body_tag}",
            )
        return None


def _payload_kind(protocol: AppProtocol) -> PacketKind:
    return PacketKind.UDP_PAYLOAD if protocol is AppProtocol.DNS else PacketKind.TCP_PAYLOAD


def _first(responses: Iterable[Packet], *kinds: PacketKind) -> Optional[Packet]:
    for pkt in responses:
        if pkt.kind in kinds:
            return pkt
    return None


def _exchange_packets(spec: ProbeSpec) -> Tuple[Packet, ...]:
    """The packets one repetition of spec may send, in order: the query
    for DNS; SYN, ACK and payload for TCP. They are the same in every
    repetition, so they are built once per spec."""
    payload = Packet(
        spec.flow,
        ttl=PROBE_TTL,
        kind=_payload_kind(spec.protocol),
        sensitivity=spec.sensitivity,
        body_tag=spec.domain,
    )
    if spec.protocol is AppProtocol.DNS:
        return (payload,)
    return (
        Packet(spec.flow, ttl=PROBE_TTL, kind=PacketKind.TCP_SYN),
        Packet(spec.flow, ttl=PROBE_TTL, kind=PacketKind.TCP_ACK),
        payload,
    )


def _handshake(session: Session, syn: Packet, ack: Packet) -> Optional[ObservationKind]:
    """The TCP handshake: syn, then ack once syn draws a SYN-ACK and no
    RST. None then, else what syn drew (RST_RECEIVED or HANDSHAKE_FAILED)."""
    responses = session.send(syn).responses
    if _first(responses, PacketKind.TCP_RST) is not None:
        return ObservationKind.RST_RECEIVED
    if _first(responses, PacketKind.TCP_SYNACK) is None:
        return ObservationKind.HANDSHAKE_FAILED
    session.send(ack)
    return None


def _run_exchange(
    spec: ProbeSpec, session: Session, packets: Tuple[Packet, ...]
) -> Observation:
    """One repetition of the protocol state machine, within one epoch;
    packets are _exchange_packets(spec)."""
    epoch = session.epoch
    if spec.protocol is AppProtocol.DNS:
        (query,) = packets
        answer = _first(session.send(query).responses, PacketKind.DNS_RESPONSE)
        if answer is not None:
            return Observation(epoch, ObservationKind.DNS_RESPONSE, answer.body_tag)
        return Observation(epoch, ObservationKind.NO_RESPONSE)

    # TCP: the handshake, then the sensitive-or-control payload.
    syn, ack, payload = packets
    failed = _handshake(session, syn, ack)
    if failed is not None:
        return Observation(epoch, failed)
    responses = session.send(payload).responses
    hit = _first(responses, PacketKind.TCP_RST, PacketKind.HTTP_RESPONSE)
    if hit is None:
        return Observation(epoch, ObservationKind.NO_RESPONSE)
    if hit.kind is PacketKind.TCP_RST:
        return Observation(epoch, ObservationKind.RST_RECEIVED)
    return Observation(epoch, ObservationKind.PAYLOAD_RESPONSE, hit.body_tag)


def run_cell(cell: Cell, source: SourceParams, transport) -> CellResult:
    """Probe and classify cell from source: its control and sensitive
    probes interleaved per epoch, control first.

    Both probes share the one flow of source, so they cross the same
    path in the same epoch. They share one session: a residual window
    opened by a sensitive hit also covers the control probes after it.
    The cell runs through transport.run, so a cell whose route an
    earlier source of the same cell already simulated, with the loss
    outcomes its own draws have, gets that very result object: its
    observations and its verdict. The result is shared, so callers must not change
    it.
    """
    flow = _flow(cell.protocol, cell.dst_ip, source)
    return transport.run(flow, cell.key, lambda session: _run_cell(cell, source, session))


def _run_cell(cell: Cell, source: SourceParams, session: Session) -> CellResult:
    """run_cell's repetitions on one session, classified."""
    control, sensitive = cell.specs(source)
    packets_c, packets_s = _exchange_packets(control), _exchange_packets(sensitive)
    obs_c: List[Observation] = []
    obs_s: List[Observation] = []
    for _ in range(cell.repetitions):
        session.advance()
        obs_c.append(_run_exchange(control, session, packets_c))
        obs_s.append(_run_exchange(sensitive, session, packets_s))
    verdict = classify(obs_c, obs_s, cell.protocol, cell.registry)
    return CellResult(tuple(obs_c), tuple(obs_s), verdict)


def classify(
    control: Sequence[Observation],
    sensitive: Sequence[Observation],
    protocol: AppProtocol,
    registry: BlockpageRegistry = EMPTY_REGISTRY,
) -> Verdict:
    """Conservative three-way verdict for one cell.

    Mechanisms are evaluated in a fixed order (DNS injection, blockpage,
    RST injection, packet drop); their outcome sets are disjoint per
    protocol so the order never changes the result, only makes reporting
    deterministic. Anything that is neither fully censored nor fully
    clean, where a clean payload is the origin's body, is Excluded.
    """
    if len(control) != len(sensitive) or not control:
        raise LengthMismatchError(
            f"need equal non-empty observation lists, got {len(control)}/{len(sensitive)}"
        )

    def all_kind(obs, *kinds):
        return all(o.kind in kinds for o in obs)

    def none_kind(obs, *kinds):
        return not any(o.kind in kinds for o in obs)

    def bp_match(o: Observation) -> bool:
        return o.kind is ObservationKind.PAYLOAD_RESPONSE and registry.matches(o.tag)

    if (
        protocol is AppProtocol.DNS
        and all_kind(sensitive, ObservationKind.DNS_RESPONSE)
        and all_kind(control, ObservationKind.NO_RESPONSE)
    ):
        return Verdict.censored(Mechanism.DNS_INJECTION)
    if all(bp_match(o) for o in sensitive) and not any(bp_match(o) for o in control):
        return Verdict.censored(Mechanism.BLOCKPAGE)
    if all_kind(sensitive, ObservationKind.RST_RECEIVED) and none_kind(
        control, ObservationKind.RST_RECEIVED
    ):
        return Verdict.censored(Mechanism.RST_INJECTION)
    if all_kind(
        sensitive, ObservationKind.NO_RESPONSE, ObservationKind.HANDSHAKE_FAILED
    ) and all_kind(control, ObservationKind.PAYLOAD_RESPONSE):
        return Verdict.censored(Mechanism.PACKET_DROP)

    if protocol is AppProtocol.DNS:
        if all_kind(sensitive, ObservationKind.NO_RESPONSE):
            return Verdict.not_censored()
    elif all(o.kind is ObservationKind.PAYLOAD_RESPONSE and o.tag.startswith(ORIGIN_BODY_PREFIX)
             for o in sensitive):
        return Verdict.not_censored()
    return Verdict.excluded()


def is_affected(matrix: Mapping[SourceParams, Verdict]) -> bool:
    """A destination is affected by routing iff the matrix holds both
    Censored and NotCensored cells (Excluded cells are ignored)."""
    # A list, not a set: `in` finds a member by identity, without the
    # member's hash, which runs in Python.
    kinds = [v.kind for v in matrix.values()]
    return VerdictKind.CENSORED in kinds and VerdictKind.NOT_CENSORED in kinds
