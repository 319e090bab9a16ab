import pytest
from hypothesis import given
from hypothesis import strategies as st

from flowstable.censors import (
    Action,
    ActionKind,
    CensorRule,
    Direction,
    Health,
    apply,
    domain_matches,
)
from flowstable.core import (
    AppProtocol,
    FlowId,
    Ipv4Address,
    Packet,
    PacketKind,
    Protocol,
    Sensitivity,
)


def rst_rule(**kw):
    defaults = dict(
        attach_at=1,
        protocol=AppProtocol.HTTPS,
        direction=Direction.TOWARD_DESTINATION,
        domain_pattern="blocked.example",
        action=Action(ActionKind.INJECT_RST),
    )
    defaults.update(kw)
    return CensorRule(**defaults)


def payload(domain="blocked.example", sensitivity=Sensitivity.SENSITIVE,
            dst_port=443, protocol=Protocol.TCP, kind=PacketKind.TCP_PAYLOAD):
    flow = FlowId(Ipv4Address(0xC6336401), Ipv4Address(0x0A000304), 40000,
                  dst_port, protocol)
    return Packet(flow, ttl=64, kind=kind, sensitivity=sensitivity, body_tag=domain)


class TestMatching:
    def test_active_rule_fires_on_sensitive_match(self):
        event = apply(rst_rule(), payload(), 1, {})
        assert event is not None
        assert event.at == 1 and event.epoch == 1
        assert event.action.kind is ActionKind.INJECT_RST

    def test_control_never_fires(self):
        assert apply(rst_rule(), payload(sensitivity=Sensitivity.CONTROL), 1, {}) is None

    def test_wrong_domain_never_fires(self):
        assert apply(rst_rule(), payload(domain="control.example"), 1, {}) is None

    def test_wrong_port_never_fires(self):
        assert apply(rst_rule(), payload(dst_port=80), 1, {}) is None

    def test_handshake_packets_never_fire(self):
        assert apply(rst_rule(), payload(kind=PacketKind.TCP_SYN,
                                         sensitivity=Sensitivity.NOT_APPLICABLE), 1, {}) is None

    def test_dns_rule_matches_udp_53(self):
        rule = rst_rule(protocol=AppProtocol.DNS,
                        action=Action(ActionKind.INJECT_DNS_ANSWER, "answer-a"))
        query = payload(dst_port=53, protocol=Protocol.UDP, kind=PacketKind.UDP_PAYLOAD)
        event = apply(rule, query, 1, {})
        assert event is not None and event.action.tag == "answer-a"

    def test_suffix_pattern(self):
        assert domain_matches("*.blocked.example", "www.blocked.example")
        assert domain_matches("*.blocked.example", "blocked.example")
        assert not domain_matches("*.blocked.example", "notblocked.example")
        assert domain_matches("blocked.example", "blocked.example")
        assert not domain_matches("blocked.example", "www.blocked.example")

    @given(
        st.sampled_from(list(Sensitivity)),
        st.sampled_from(["blocked.example", "control.example", "other.example", ""]),
        st.sampled_from([53, 80, 443, 8080]),
        st.sampled_from(list(PacketKind)),
    )
    def test_no_action_without_match(self, sensitivity, domain, dst_port, kind):
        """Fuzz: any deviation from the full match predicate means no event."""
        protocol = Protocol.UDP if kind is PacketKind.UDP_PAYLOAD else Protocol.TCP
        flow = FlowId(Ipv4Address(1), Ipv4Address(2), 3, dst_port, protocol)
        quoted = (None, 0)
        if kind is PacketKind.ICMP_TTL_EXCEEDED:
            from flowstable.core import SourceParams

            quoted = (SourceParams(Ipv4Address(1), 3), 0)
            packet = Packet(flow, ttl=64, kind=kind, sensitivity=sensitivity,
                            body_tag=domain, quoted=quoted)
        else:
            packet = Packet(flow, ttl=64, kind=kind, sensitivity=sensitivity,
                            body_tag=domain)
        event = apply(rst_rule(), packet, 1, {})
        should_fire = (
            sensitivity is Sensitivity.SENSITIVE
            and domain == "blocked.example"
            and dst_port == 443
            and kind is PacketKind.TCP_PAYLOAD
        )
        assert (event is not None) == should_fire


class TestHealth:
    def test_failed_rule_never_fires(self):
        rule = rst_rule(health=Health.FAILED)
        assert apply(rule, payload(), 1, {}) is None

    def test_health_schedule_applies_at_epoch(self):
        rule = rst_rule(health_schedule=((2, Health.FAILED), (4, Health.ACTIVE)))
        assert apply(rule, payload(), 1, {}) is not None
        assert apply(rule, payload(), 2, {}) is None
        assert apply(rule, payload(), 3, {}) is None
        assert apply(rule, payload(), 4, {}) is not None

    def test_health_at_reads_schedule(self):
        rule = rst_rule(health_schedule=((5, Health.FAILED),))
        assert rule.health is Health.ACTIVE
        assert rule.health_at(4) is Health.ACTIVE
        assert rule.health_at(5) is Health.FAILED

    def test_unordered_schedule_rejected(self):
        with pytest.raises(ValueError):
            rst_rule(health_schedule=((4, Health.ACTIVE), (2, Health.FAILED)))

    def test_rule_is_immutable(self):
        import dataclasses

        with pytest.raises(dataclasses.FrozenInstanceError):
            rst_rule().health = Health.FAILED


class TestActionValidity:
    def test_blockpage_only_on_http(self):
        with pytest.raises(ValueError):
            rst_rule(protocol=AppProtocol.HTTPS,
                     action=Action(ActionKind.INJECT_BLOCKPAGE, "bp-01"))
        rst_rule(protocol=AppProtocol.HTTP,
                 action=Action(ActionKind.INJECT_BLOCKPAGE, "bp-01"))

    def test_dns_answer_only_on_dns(self):
        with pytest.raises(ValueError):
            rst_rule(action=Action(ActionKind.INJECT_DNS_ANSWER, "x"))

    def test_rst_not_valid_on_dns(self):
        with pytest.raises(ValueError):
            rst_rule(protocol=AppProtocol.DNS)

    def test_tags_required_and_forbidden(self):
        with pytest.raises(ValueError):
            Action(ActionKind.INJECT_BLOCKPAGE)
        with pytest.raises(ValueError):
            Action(ActionKind.INJECT_RST, "tag")


class TestResidual:
    def test_zero_residual_means_no_carryover(self):
        rule = rst_rule()
        residual = {}
        assert apply(rule, payload(), 1, residual) is not None
        control = payload(sensitivity=Sensitivity.CONTROL)
        assert apply(rule, control, 1, residual) is None
        assert residual == {}

    def test_residual_actions_same_flow_within_window(self):
        rule = rst_rule(residual_epochs=2)
        residual = {}
        assert apply(rule, payload(), 1, residual) is not None
        control = payload(sensitivity=Sensitivity.CONTROL)
        assert apply(rule, control, 2, residual) is not None  # inside window
        assert apply(rule, control, 3, residual) is not None
        assert apply(rule, control, 4, residual) is None  # window closed

    def test_residual_is_per_flow(self):
        """Windows live in the map of the session that opened them; a
        session on another flow starts with its own, empty map."""
        rule = rst_rule(residual_epochs=2)
        assert apply(rule, payload(), 1, {}) is not None
        other_flow = Packet(
            FlowId(Ipv4Address(0xC6336402), Ipv4Address(0x0A000304), 40001, 443,
                   Protocol.TCP),
            ttl=64, kind=PacketKind.TCP_PAYLOAD,
            sensitivity=Sensitivity.CONTROL, body_tag="control.example",
        )
        assert apply(rule, other_flow, 2, {}) is None

    def test_failed_health_suppresses_residual(self):
        rule = rst_rule(residual_epochs=5, health_schedule=((2, Health.FAILED),))
        residual = {}
        assert apply(rule, payload(), 1, residual) is not None
        assert apply(rule, payload(), 2, residual) is None
