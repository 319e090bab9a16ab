"""Mid-flow, route-stable traceroute.

For TCP protocols a handshake is completed first, then the payload
packet of the live connection is re-emitted once per TTL from 1 up,
with the TTL copied into the IP ID field so ICMP quotations can be
matched back to ladder positions. The connection stays up for the whole
ladder; there are no retransmissions. Because TTL and IP ID never feed
ECMP hashing, every copy follows the probe flow's one path.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

from .core import Ipv4Address, Packet, PacketKind, SourceParams, AppProtocol
from .censors import ActionKind, CensorEvent
from .prober import (
    HandshakeFailedError,
    ProbeSpec,
    Session,
    _first,
    PROBE_TTL,
)

MAX_TTL_CEILING = 64
DEFAULT_MAX_TTL = 32


class TerminalKind(Enum):
    REACHED_DESTINATION = "reached"
    CENSORED_AT = "censored"
    EXHAUSTED = "exhausted"


@dataclass(frozen=True)
class Terminal:
    kind: TerminalKind
    #: Ladder position (TTL) of the last observed hop when censored;
    #: None when censorship fired before any hop was seen.
    censored_at: Optional[int] = None


@dataclass(frozen=True)
class TracePath:
    """Reconstructed path of one flow.

    hops[i] is the node seen at TTL i+1, or None for a gap (unresponsive
    hop, lost copy, or a copy consumed by a censor). The destination is
    not a hop; reaching it is recorded in the terminal.
    """

    dst_ip: Ipv4Address
    source: SourceParams
    protocol: AppProtocol
    hops: Tuple[Optional[int], ...]
    terminal: Terminal
    events: Tuple[CensorEvent, ...] = ()

    @property
    def present_hops(self) -> Tuple[int, ...]:
        return tuple(h for h in self.hops if h is not None)

    @property
    def node_set(self) -> frozenset:
        return frozenset(self.present_hops)


class MixedDestinationsError(ValueError):
    """merge_paths was given traces for more than one destination."""


def trace(
    spec: ProbeSpec,
    max_ttl: int,
    transport,
) -> TracePath:
    """Trace the path of spec's payload packet.

    Emits one copy per TTL from 1 up with ip_id = ttl and the one
    shared flow id, and stops after the copy that reaches the
    destination or after max_ttl. An injected RST tears the session down: remaining
    TTLs are not sent and the terminal records where censorship struck.
    Other censor actions are recorded and the ladder continues. The
    trace opens its own session, so it starts with no residual windows.
    """
    if not 1 <= max_ttl <= MAX_TTL_CEILING:
        raise ValueError(f"max_ttl must be in 1..{MAX_TTL_CEILING}, got {max_ttl}")

    session: Session = transport.session(spec)
    session.advance(spec.epoch_interval)

    payload_kind = PacketKind.UDP_PAYLOAD
    if spec.protocol is not AppProtocol.DNS:
        payload_kind = PacketKind.TCP_PAYLOAD
        _handshake(spec, session)

    hops: Dict[int, int] = {}
    events: List[CensorEvent] = []
    terminal: Optional[Terminal] = None
    reached = False
    last_ttl = 0
    for ttl in range(1, max_ttl + 1):
        last_ttl = ttl
        copy = Packet(
            spec.flow,
            ttl=ttl,
            ip_id=ttl,
            kind=payload_kind,
            sensitivity=spec.sensitivity,
            body_tag=spec.domain,
        )
        result = session.send(copy)
        rst = False
        for pkt in result.responses:
            if pkt.kind is PacketKind.ICMP_TTL_EXCEEDED:
                quoted_source, quoted_ip_id = pkt.quoted
                if quoted_source == spec.source:
                    hops[quoted_ip_id] = int(pkt.body_tag)
            elif pkt.kind is PacketKind.TCP_RST:
                rst = True
        if result.transit is not None:
            events.extend(result.transit.events)
        if rst:
            terminal = Terminal(TerminalKind.CENSORED_AT, max(hops) if hops else None)
            break
        if result.delivered_to == session.dest_node:
            reached = True
            last_ttl = ttl - 1
            break
    if terminal is None:
        terminal = Terminal(
            TerminalKind.REACHED_DESTINATION if reached else TerminalKind.EXHAUSTED
        )

    ladder = tuple(hops.get(t) for t in range(1, last_ttl + 1))
    return TracePath(
        dst_ip=spec.dst_ip,
        source=spec.source,
        protocol=spec.protocol,
        hops=ladder,
        terminal=terminal,
        events=tuple(events),
    )


def _handshake(spec: ProbeSpec, session: Session) -> None:
    syn = Packet(spec.flow, ttl=PROBE_TTL, kind=PacketKind.TCP_SYN)
    responses = session.send(syn).responses
    if _first(responses, PacketKind.TCP_SYNACK) is None:
        raise HandshakeFailedError(f"no handshake for {spec.source} -> {spec.dst_ip}")
    session.send(Packet(spec.flow, ttl=PROBE_TTL, kind=PacketKind.TCP_ACK))


def merge_paths(traces: Sequence[TracePath], verdicts=None):
    """Group traces by source params into a PathSet.

    A group's node set is the union of its traces' present hops. When no
    verdict map is supplied, each group's verdict is derived from its
    traces: censored terminals everywhere -> Censored, clean terminals
    everywhere -> NotCensored, mixed -> Excluded.
    """
    from . import analysis  # local import keeps analysis free of tracer deps

    if not traces:
        raise analysis.EmptyPathSetError("no traces to merge")
    dsts = {t.dst_ip for t in traces}
    if len(dsts) > 1:
        raise MixedDestinationsError(f"traces span destinations: {sorted(map(str, dsts))}")

    by_params: Dict[SourceParams, List[TracePath]] = {}
    for t in traces:
        by_params.setdefault(t.source, []).append(t)

    groups = {}
    for params, group_traces in by_params.items():
        if verdicts is not None and params in verdicts:
            verdict = verdicts[params]
        else:
            verdict = _derive_verdict(group_traces)
        groups[params] = analysis.TraceGroup(
            params=params,
            traces=tuple(group_traces),
            verdict=verdict,
        )
    return analysis.PathSet(dst_ip=traces[0].dst_ip, groups=groups)


def _derive_verdict(group_traces: Sequence[TracePath]):
    from .core import Mechanism, Verdict

    censored = [t for t in group_traces if t.terminal.kind is TerminalKind.CENSORED_AT]
    if len(censored) == len(group_traces):
        mechanism = Mechanism.RST_INJECTION
        for t in censored:
            for e in t.events:
                if e.action.kind is ActionKind.INJECT_BLOCKPAGE:
                    mechanism = Mechanism.BLOCKPAGE
                elif e.action.kind is ActionKind.INJECT_DNS_ANSWER:
                    mechanism = Mechanism.DNS_INJECTION
        return Verdict.censored(mechanism)
    if not censored:
        return Verdict.not_censored()
    return Verdict.excluded()
