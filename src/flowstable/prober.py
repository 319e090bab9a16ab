"""Route-stable protocol probes and the conservative verdict classifier.

A probe spec fixes every packet field that feeds ECMP hashing, so all
packets of one spec share a single flow id and therefore a single
route. Probes run over an abstract transport: the simulator backend, or
a live adapter that deliberately only raises.

Verdicts follow the all-repetitions rule: a cell is Censored only when
every sensitive repetition shows the censoring behavior and every
control repetition is clean; it is NotCensored only when every
sensitive repetition is clean; anything mixed is Excluded.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

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
    LossStream,
    NodeId,
    Topology,
    TransitKind,
    TransitResult,
    forward,
)
from .censors import ActionKind, CensorEvent, CensorRule

#: Initial TTL on probe packets; paths deeper than this are malformed.
PROBE_TTL = 64

DEFAULT_REPETITIONS = 3


class TransportUnavailableError(RuntimeError):
    """The transport cannot carry probes."""


class LengthMismatchError(ValueError):
    """Control and sensitive observation lists differ in length."""


class HandshakeFailedError(RuntimeError):
    """A TCP session required by the caller could not be opened."""


@dataclass(frozen=True)
class ProbeSpec:
    """One protocol exchange to a fixed destination with fixed source
    parameters. All packets it emits share one flow id."""

    protocol: AppProtocol
    dst_ip: Ipv4Address
    dst_port: int
    domain: str
    sensitivity: Sensitivity
    source: SourceParams
    repetitions: int = DEFAULT_REPETITIONS
    epoch_interval: int = 1

    def __post_init__(self) -> None:
        if self.dst_port != self.protocol.port:
            raise ValueError(
                f"{self.protocol.value} probes use port {self.protocol.port}, got {self.dst_port}"
            )
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.epoch_interval < 1:
            raise ValueError("epoch_interval must be >= 1")
        if self.sensitivity is Sensitivity.NOT_APPLICABLE:
            raise ValueError("probe sensitivity must be control or sensitive")

    @classmethod
    def for_protocol(cls, protocol, dst_ip, domain, sensitivity, source, **kw) -> "ProbeSpec":
        return cls(protocol, dst_ip, protocol.port, domain, sensitivity, source, **kw)

    @property
    def flow(self) -> FlowId:
        return FlowId(
            self.source.src_ip,
            self.dst_ip,
            self.source.src_port,
            self.dst_port,
            self.protocol.transport,
        )


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
class SendResult:
    """What the transport hands back for one emitted packet."""

    responses: Tuple[Packet, ...]
    transit: Optional[TransitResult] = None

    @property
    def delivered_to(self) -> Optional[NodeId]:
        if self.transit is not None and self.transit.kind is TransitKind.DELIVERED:
            return self.transit.at
        return None


class LiveTransport:
    """Placeholder for probing real networks: permanently unavailable.

    Measuring live networks can put uninvolved people at risk and needs
    consent, review, and infrastructure this codebase does not provide.
    The interface exists so a vetted adapter could be slotted in
    out-of-tree; every operation here raises.
    """

    def session(self, spec: "ProbeSpec") -> "Session":
        raise TransportUnavailableError(
            "live probing is intentionally not implemented; use the simulator backend"
        )


class SimTransport:
    """Transport bound to a simulated topology.

    Holds nothing but the read-only topology.
    Every cell and every trace opens its own session, which carries all
    the mutable state of that probe, so what one session sees never
    depends on what ran before it.
    """

    def __init__(self, topology: Topology) -> None:
        self.topology = topology

    def session(self, spec: ProbeSpec) -> "Session":
        dest = self.topology.resolve_destination(spec.dst_ip)
        return Session(self, dest.id)


class Session:
    """One probe session on one flow: an epoch clock, the residual-
    censorship windows its packets opened, and send/receive plumbing."""

    def __init__(self, transport: SimTransport, dest_node: NodeId) -> None:
        self._transport = transport
        self.dest_node = dest_node
        self.epoch = 0
        self.residual: Dict[CensorRule, int] = {}

    def advance(self, epochs: int = 1) -> None:
        self.epoch += epochs

    def send(self, packet: Packet) -> SendResult:
        topo = self._transport.topology
        stream = LossStream(topo.seed, self.epoch, packet)
        result = forward(topo, packet, topo.entry, stream, self.residual)

        responses: List[Packet] = []
        # Injected packets win any race with the origin, so they come first.
        for event in result.events:
            injected = self._injected_packet(packet, event)
            if injected is not None:
                responses.append(injected)
        if result.kind is TransitKind.DELIVERED:
            origin = self._origin_response(packet, result.at)
            if origin is not None:
                responses.append(origin)
        if result.icmp is not None:
            responses.append(result.icmp)
        return SendResult(tuple(responses), result)

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

    def _origin_response(self, probe: Packet, at: NodeId) -> Optional[Packet]:
        # A host only answers traffic addressed to it; endpoints run no
        # DNS resolver, so delivered queries die silently.
        if self._transport.topology.nodes[at].address != probe.flow.dst_ip:
            return None
        if probe.kind is PacketKind.TCP_SYN:
            return Packet(probe.flow, ttl=64, kind=PacketKind.TCP_SYNACK)
        if probe.kind is PacketKind.TCP_PAYLOAD:
            return Packet(
                probe.flow,
                ttl=64,
                kind=PacketKind.HTTP_RESPONSE,
                body_tag=f"origin:{probe.body_tag}",
            )
        return None


def _payload_kind(protocol: AppProtocol) -> PacketKind:
    return PacketKind.UDP_PAYLOAD if protocol is AppProtocol.DNS else PacketKind.TCP_PAYLOAD


def _first(responses: Iterable[Packet], *kinds: PacketKind) -> Optional[Packet]:
    for pkt in responses:
        if pkt.kind in kinds:
            return pkt
    return None


def _run_exchange(spec: ProbeSpec, session: Session) -> Observation:
    """One repetition of the protocol state machine, within one epoch."""
    epoch = session.epoch
    if spec.protocol is AppProtocol.DNS:
        query = Packet(
            spec.flow,
            ttl=PROBE_TTL,
            kind=PacketKind.UDP_PAYLOAD,
            sensitivity=spec.sensitivity,
            body_tag=spec.domain,
        )
        answer = _first(session.send(query).responses, PacketKind.DNS_RESPONSE)
        if answer is not None:
            return Observation(epoch, ObservationKind.DNS_RESPONSE, answer.body_tag)
        return Observation(epoch, ObservationKind.NO_RESPONSE)

    # TCP: three-way handshake, then the sensitive-or-control payload.
    syn = Packet(spec.flow, ttl=PROBE_TTL, kind=PacketKind.TCP_SYN)
    syn_result = session.send(syn)
    if _first(syn_result.responses, PacketKind.TCP_RST) is not None:
        return Observation(epoch, ObservationKind.RST_RECEIVED)
    if _first(syn_result.responses, PacketKind.TCP_SYNACK) is None:
        return Observation(epoch, ObservationKind.HANDSHAKE_FAILED)
    session.send(Packet(spec.flow, ttl=PROBE_TTL, kind=PacketKind.TCP_ACK))

    payload = Packet(
        spec.flow,
        ttl=PROBE_TTL,
        kind=PacketKind.TCP_PAYLOAD,
        sensitivity=spec.sensitivity,
        body_tag=spec.domain,
    )
    responses = session.send(payload).responses
    hit = _first(responses, PacketKind.TCP_RST, PacketKind.HTTP_RESPONSE)
    if hit is None:
        return Observation(epoch, ObservationKind.NO_RESPONSE)
    if hit.kind is PacketKind.TCP_RST:
        return Observation(epoch, ObservationKind.RST_RECEIVED)
    return Observation(epoch, ObservationKind.PAYLOAD_RESPONSE, hit.body_tag)


def run_probe(spec: ProbeSpec, transport) -> List[Observation]:
    """Run all repetitions of one spec; one observation per repetition."""
    session = transport.session(spec)
    observations = []
    for _ in range(spec.repetitions):
        session.advance(spec.epoch_interval)
        observations.append(_run_exchange(spec, session))
    return observations


def run_cell(
    control: ProbeSpec,
    sensitive: ProbeSpec,
    transport,
) -> Tuple[List[Observation], List[Observation]]:
    """Run a control/sensitive pair interleaved per epoch, control first.

    Both specs must agree on everything that feeds the flow id and on
    the epoch interval, so both probes of a repetition cross the same
    path in the same epoch. They share one session: a residual window
    opened by a sensitive hit also covers the control probes after it.
    """
    if control.flow != sensitive.flow:
        raise ValueError("control and sensitive specs must share one flow id")
    if control.epoch_interval != sensitive.epoch_interval:
        raise ValueError("control and sensitive specs must share one epoch interval")
    if control.repetitions != sensitive.repetitions:
        raise LengthMismatchError("control and sensitive repetitions differ")
    session = transport.session(control)
    obs_c: List[Observation] = []
    obs_s: List[Observation] = []
    for _ in range(control.repetitions):
        session.advance(control.epoch_interval)
        obs_c.append(_run_exchange(control, session))
        obs_s.append(_run_exchange(sensitive, session))
    return obs_c, obs_s


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
    clean is Excluded.
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
    else:
        if all_kind(sensitive, ObservationKind.PAYLOAD_RESPONSE) and not any(
            bp_match(o) for o in sensitive
        ):
            return Verdict.not_censored()
    return Verdict.excluded()


def is_affected(matrix: Mapping[SourceParams, Verdict]) -> bool:
    """A destination is affected by routing iff the matrix holds both
    Censored and NotCensored cells (Excluded cells are ignored)."""
    kinds = {v.kind for v in matrix.values()}
    return VerdictKind.CENSORED in kinds and VerdictKind.NOT_CENSORED in kinds
