"""Middlebox models: match sensitive traffic at a node and act on it.

Rules are attached to topology nodes. An active rule fires on sensitive
payload packets whose application protocol and domain match; it then
either injects a response back toward the source (DNS answer, TCP RST,
blockpage) or silently swallows the packet. Control traffic never
triggers a rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Optional, Tuple

from .core import AppProtocol, FlowId, Packet, PacketKind, Sensitivity


class Direction(Enum):
    TOWARD_DESTINATION = "toward_destination"
    BIDIRECTIONAL = "bidirectional"


class Health(Enum):
    ACTIVE = "active"
    FAILED = "failed"


class ActionKind(Enum):
    INJECT_DNS_ANSWER = "inject_dns_answer"
    INJECT_RST = "inject_rst"
    DROP_SILENTLY = "drop_silently"
    INJECT_BLOCKPAGE = "inject_blockpage"

    @property
    def consumes_packet(self) -> bool:
        """Only silent drops remove the packet from the wire; injections
        race the origin and let the original packet continue."""
        return self is ActionKind.DROP_SILENTLY


#: Application protocols each action kind is valid for.
_VALID_ACTIONS = {
    ActionKind.INJECT_DNS_ANSWER: {AppProtocol.DNS},
    ActionKind.INJECT_BLOCKPAGE: {AppProtocol.HTTP},
    ActionKind.INJECT_RST: {AppProtocol.HTTP, AppProtocol.HTTPS},
    ActionKind.DROP_SILENTLY: {AppProtocol.HTTP, AppProtocol.HTTPS},
}


@dataclass(frozen=True)
class Action:
    kind: ActionKind
    tag: str = ""

    def __post_init__(self) -> None:
        needs_tag = self.kind in (ActionKind.INJECT_DNS_ANSWER, ActionKind.INJECT_BLOCKPAGE)
        if needs_tag and not self.tag:
            raise ValueError(f"{self.kind.value} requires a tag")
        if not needs_tag and self.tag:
            raise ValueError(f"{self.kind.value} takes no tag")


@dataclass(frozen=True)
class CensorEvent:
    """Ground-truth record of one fired action: where, what and when.

    It names no flow: what fires on a packet depends only on the hops of
    its flow's route, so flows that share a route share their events
    (see prober.SimTransport).
    """

    at: int
    action: Action
    epoch: int


def domain_matches(pattern: str, domain: str) -> bool:
    """Exact match, or suffix match for patterns written as ``*.suffix``
    (which also matches the bare suffix)."""
    if pattern.startswith("*."):
        suffix = pattern[2:]
        return domain == suffix or domain.endswith("." + suffix)
    return domain == pattern


@dataclass(frozen=True)
class CensorRule:
    """One middlebox rule attached at a node; immutable once built.

    health is the state at epoch 0. health_schedule lists (epoch,
    health) changes, each in force from its epoch on, so a flapping
    censor is part of the rule and every session sees the same flips.
    residual_epochs > 0 opts into residual censorship: after a hit, any
    packet of the same session within the window is actioned too.
    """

    attach_at: int
    protocol: AppProtocol
    direction: Direction
    domain_pattern: str
    action: Action
    health: Health = Health.ACTIVE
    residual_epochs: int = 0
    health_schedule: Tuple[Tuple[int, Health], ...] = ()

    def __post_init__(self) -> None:
        if self.protocol not in _VALID_ACTIONS[self.action.kind]:
            raise ValueError(
                f"action {self.action.kind.value} not valid for {self.protocol.value}"
            )
        if self.residual_epochs < 0:
            raise ValueError("residual_epochs must be >= 0")
        epochs = [when for when, _ in self.health_schedule]
        if epochs != sorted(epochs):
            raise ValueError("health_schedule must be ordered by epoch")
        # The rule's key in a residual map (see apply): its fields, each
        # enum by its value. Equal rules get equal keys, and a key hashes
        # in C, where the rule's own hash runs each enum's in Python.
        object.__setattr__(self, "_residual_key", (
            self.attach_at, self.protocol.value, self.direction.value, self.domain_pattern,
            self.action.kind.value, self.action.tag, self.health.value, self.residual_epochs,
            tuple((when, state.value) for when, state in self.health_schedule)))

    def health_at(self, epoch: int) -> Health:
        current = self.health
        for when, state in self.health_schedule:
            if when <= epoch:
                current = state
        return current

    def can_fire_on(self, flow: FlowId) -> bool:
        """False when no packet of flow can match: its transport or
        destination port is not the rule's protocol's. Such a rule never
        opens a residual window on the flow either, so it can be left out
        of the flow's route (see simnet.Topology.hop_table)."""
        return self.protocol.transport is flow.protocol and flow.dst_port == self.protocol.port

    def matches(self, packet: Packet) -> bool:
        if packet.sensitivity is not Sensitivity.SENSITIVE:
            return False
        if packet.kind not in (PacketKind.TCP_PAYLOAD, PacketKind.UDP_PAYLOAD):
            return False
        # Both directions trigger on probes headed toward the destination;
        # the reverse path is not simulated.
        if not self.can_fire_on(packet.flow):
            return False
        return domain_matches(self.domain_pattern, packet.body_tag)


def apply(
    rule: CensorRule, packet: Packet, epoch: int, residual: Dict[Tuple, int]
) -> Optional[CensorEvent]:
    """Fire the rule on a transiting packet, or return None.

    residual maps each rule's key (equal rules share one) to the last
    epoch of its residual window and belongs to the calling session,
    whose packets all share one flow. A failed rule never fires,
    including for residual state. On a fresh match with residual_epochs
    > 0 the window opens, and later packets inside it are actioned
    regardless of content.
    """
    if rule.health_at(epoch) is Health.FAILED:
        return None
    if rule.residual_epochs > 0:
        until = residual.get(rule._residual_key)
        if until is not None and epoch <= until:
            return CensorEvent(rule.attach_at, rule.action, epoch)
    if rule.matches(packet):
        if rule.residual_epochs > 0:
            residual[rule._residual_key] = epoch + rule.residual_epochs
        return CensorEvent(rule.attach_at, rule.action, epoch)
    return None
