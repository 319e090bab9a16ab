"""Mid-flow, route-stable traceroute that sends the cell's own packets.

The probe's SYN and ACK complete a cell's own TCP handshake first
(prober._handshake), then its payload packet is re-emitted once per TTL
from 1 up, with only the TTL and IP ID, a copy of the TTL, changed, so
ICMP quotations can be matched back to ladder positions. The connection
stays up for the whole ladder; there are no retransmissions. Because
TTL and IP ID never feed ECMP hashing, every copy follows the probe
flow's one path.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .analysis import EmptyPathSetError, PathSet, TraceGroup
from .core import (
    AppProtocol, Ipv4Address, Mechanism, Packet, PacketKind, Sensitivity, SourceParams, Verdict,
)
from .prober import ProbeSpec, Session, _exchange_packets, _flow, _handshake

MAX_TTL_CEILING = 64
DEFAULT_MAX_TTL = 32


class TerminalKind(Enum):
    REACHED_DESTINATION = "reached"
    CENSORED_AT = "censored"
    EXHAUSTED = "exhausted"
    HANDSHAKE_FAILED = "handshake_failed"


@dataclass(frozen=True)
class Terminal:
    kind: TerminalKind
    #: Ladder position (TTL) of the last observed hop when censored;
    #: None when censorship fired before any hop was seen.
    censored_at: Optional[int] = None


class TracePath(NamedTuple):
    """Reconstructed path of one flow.

    hops[i] is the node seen at TTL i+1, or None for a gap (unresponsive
    hop, lost copy, or a copy consumed by a censor). The destination is
    not a hop; reaching it is recorded in the terminal. A tuple, not a
    frozen dataclass: a log read builds one per trace line.
    """

    dst_ip: Ipv4Address
    source: SourceParams
    protocol: AppProtocol
    hops: Tuple[Optional[int], ...]
    terminal: Terminal

    @property
    def present_hops(self) -> Tuple[int, ...]:
        return tuple(h for h in self.hops if h is not None)

    @property
    def node_set(self) -> frozenset:
        return frozenset(self.present_hops)


class MixedDestinationsError(ValueError):
    """merge_paths was given traces for more than one destination."""


def trace(protocol: AppProtocol, dst_ip: Ipv4Address, domain: str, sensitivity: Sensitivity,
          source: SourceParams, max_ttl: int, transport) -> TracePath:
    """Trace the path of the payload packet of the probe spec with these
    fields (prober.ProbeSpec).

    Emits one copy per TTL from 1 up with ip_id = ttl and the one
    shared flow id, and stops after the copy that reaches the
    destination or after max_ttl. A copy reaches the destination when
    it is delivered on a route that ends there (Route.at_destination);
    a route that ends at another endpoint exhausts the ladder. An
    injected RST tears the session down: remaining TTLs are not sent and
    the terminal records where censorship struck. Other censor actions
    leave the ladder running. The trace opens its own session, so it
    starts with no residual windows.

    The ladder runs through transport.run: a trace of a route an earlier
    trace of the same spec fields already climbed, with the loss
    outcomes its own draws have, gets that trace's ladder and terminal.
    Such a trace needs only its flow and key, so the spec is built only
    where a ladder is climbed. The TracePath, source with them, is built
    once, here.
    """
    if not 1 <= max_ttl <= MAX_TTL_CEILING:
        raise ValueError(f"max_ttl must be in 1..{MAX_TTL_CEILING}, got {max_ttl}")
    # The spec's fields but its source, enums as values (members hash slowly).
    key = ("trace", protocol.value, dst_ip.value, domain, sensitivity.value, max_ttl)
    ladder, terminal = transport.run(
        _flow(protocol, dst_ip, source), key,
        lambda session: _climb(ProbeSpec(protocol, dst_ip, domain, sensitivity, source),
                               max_ttl, session),
    )
    return TracePath(dst_ip, source, protocol, ladder, terminal)


def _climb(
    spec: ProbeSpec, max_ttl: int, session: Session
) -> Tuple[Tuple[Optional[int], ...], Terminal]:
    """trace's TTL ladder on one session: its hops and its terminal; none
    and HANDSHAKE_FAILED when prober._handshake fails, that is when the SYN
    draws no SYN-ACK: a fresh session's SYN, with no payload, draws no RST."""
    session.advance()
    *handshake, payload = _exchange_packets(spec)
    if handshake and _handshake(session, *handshake) is not None:
        return (), Terminal(TerminalKind.HANDSHAKE_FAILED)

    hops: Dict[int, int] = {}

    def ladder(top: int) -> Tuple[Optional[int], ...]:
        return tuple(hops.get(t) for t in range(1, top + 1))

    flow, kind, sensitivity, body_tag = (
        payload.flow, payload.kind, payload.sensitivity, payload.body_tag)
    for ttl in range(1, max_ttl + 1):
        # payload with only its TTL and IP ID changed
        result = session.send(Packet(flow, ttl, ttl, kind, sensitivity, body_tag))
        rst = False
        for pkt in result.responses:
            if pkt.kind is PacketKind.ICMP_TTL_EXCEEDED:
                quoted_source, quoted_ip_id = pkt.quoted
                if quoted_source == spec.source:
                    hops[quoted_ip_id] = int(pkt.body_tag)
            elif pkt.kind is PacketKind.TCP_RST:
                rst = True
        if rst:
            return ladder(ttl), Terminal(TerminalKind.CENSORED_AT, max(hops) if hops else None)
        if result.reached:
            return ladder(ttl - 1), Terminal(TerminalKind.REACHED_DESTINATION)
    return ladder(max_ttl), Terminal(TerminalKind.EXHAUSTED)


def merge_paths(traces: Sequence[TracePath], verdicts=None) -> PathSet:
    """Group traces by source params into a PathSet.

    A group's node set is the union of its traces' present hops. When no
    verdict map is supplied, each group's verdict is derived from its
    traces: censored terminals everywhere -> Censored, every trace
    reached its destination -> NotCensored, anything else -> Excluded: a
    mix, or a trace that never arrived (exhausted, handshake failed).
    A censored terminal comes only from an injected RST, so a derived
    Censored verdict's mechanism is RST injection.
    """
    if not traces:
        raise EmptyPathSetError("no traces to merge")
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
        groups[params] = TraceGroup(
            params=params,
            traces=tuple(group_traces),
            verdict=verdict,
        )
    return PathSet(dst_ip=traces[0].dst_ip, groups=groups)


#: The verdicts merge_paths derives, built once: a Verdict is immutable.
_DERIVED_CENSORED = Verdict.censored(Mechanism.RST_INJECTION)
_DERIVED_NOT_CENSORED = Verdict.not_censored()
_DERIVED_EXCLUDED = Verdict.excluded()


def _derive_verdict(group_traces: Sequence[TracePath]) -> Verdict:
    kinds = [t.terminal.kind for t in group_traces]
    if kinds.count(TerminalKind.CENSORED_AT) == len(kinds):
        return _DERIVED_CENSORED
    if kinds.count(TerminalKind.REACHED_DESTINATION) == len(kinds):
        return _DERIVED_NOT_CENSORED
    return _DERIVED_EXCLUDED
