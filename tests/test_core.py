import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flowstable.core import (
    EPHEMERAL_PORT_RANGE,
    FlowId,
    Ipv4Address,
    Mechanism,
    Packet,
    PacketKind,
    Protocol,
    SourceParams,
    Verdict,
)

from reference import flow_bytes

ips = st.integers(min_value=0, max_value=0xFFFFFFFF).map(Ipv4Address)
ports = st.integers(min_value=0, max_value=0xFFFF)
flows = st.builds(
    FlowId,
    src_ip=ips,
    dst_ip=ips,
    src_port=ports,
    dst_port=ports,
    protocol=st.sampled_from(list(Protocol)),
)


class TestIpv4Address:
    @given(ips)
    def test_render_parse_round_trip(self, addr):
        assert Ipv4Address.parse(str(addr)) == addr

    def test_parse_rejects_garbage(self):
        for bad in ["1.2.3", "1.2.3.4.5", "256.0.0.1", "a.b.c.d", "01.2.3.4", ""]:
            with pytest.raises(ValueError):
                Ipv4Address.parse(bad)

    def test_low_bits_is_mod_power_of_two(self):
        rng = random.Random(7)
        for _ in range(200):
            value = rng.randrange(0, 2**32)
            n = rng.randrange(1, 9)
            assert Ipv4Address(value).low_bits(n) == value % (2**n)

    def test_low_bits_range_check(self):
        with pytest.raises(ValueError):
            Ipv4Address(1).low_bits(0)
        with pytest.raises(ValueError):
            Ipv4Address(1).low_bits(9)


class TestFlowSerialization:
    def test_udp_example(self):
        flow = FlowId(
            Ipv4Address.parse("10.0.0.5"),
            Ipv4Address.parse("192.0.2.1"),
            40000,
            53,
            Protocol.UDP,
        )
        assert flow.to_bytes() == bytes.fromhex("0a000005c00002019c40003511")

    def test_tcp_example(self):
        flow = FlowId(
            Ipv4Address.parse("1.2.3.4"),
            Ipv4Address.parse("5.6.7.8"),
            80,
            443,
            Protocol.TCP,
        )
        assert flow.to_bytes() == bytes.fromhex("0102030405060708005001bb06")

    def test_zero_flow_udp(self):
        flow = FlowId(Ipv4Address(0), Ipv4Address(0), 0, 0, Protocol.UDP)
        assert flow.to_bytes() == b"\x00" * 12 + b"\x11"

    @given(flows)
    def test_matches_independent_layout(self, flow):
        expected = flow_bytes(
            str(flow.src_ip), str(flow.dst_ip), flow.src_port, flow.dst_port,
            flow.protocol.value,
        )
        assert flow.to_bytes() == expected

    @given(flows, ports)
    def test_src_port_only_changes_bytes_8_9(self, flow, port):
        other = FlowId(flow.src_ip, flow.dst_ip, port, flow.dst_port, flow.protocol)
        a, b = flow.to_bytes(), other.to_bytes()
        assert a[:8] == b[:8] and a[10:] == b[10:]

    def test_injective_over_random_flows(self):
        rng = random.Random(1234)
        seen = {}
        for _ in range(100_000):
            flow = FlowId(
                Ipv4Address(rng.randrange(2**32)),
                Ipv4Address(rng.randrange(2**32)),
                rng.randrange(2**16),
                rng.randrange(2**16),
                rng.choice([Protocol.TCP, Protocol.UDP]),
            )
            blob = flow.to_bytes()
            assert len(blob) == 13
            if blob in seen:
                assert seen[blob] == flow
            seen[blob] = flow


class TestPacket:
    @given(flows, st.integers(1, 255), st.integers(0, 0xFFFF),
           st.integers(1, 255), st.integers(0, 0xFFFF))
    def test_flow_id_invariant_under_ttl_and_ip_id(self, flow, ttl1, id1, ttl2, id2):
        a = Packet(flow, ttl=ttl1, ip_id=id1, kind=PacketKind.TCP_PAYLOAD)
        b = Packet(flow, ttl=ttl2, ip_id=id2, kind=PacketKind.TCP_PAYLOAD)
        assert a.flow == b.flow == flow

    def test_icmp_requires_quotation(self):
        flow = FlowId(Ipv4Address(1), Ipv4Address(2), 3, 4, Protocol.TCP)
        with pytest.raises(ValueError):
            Packet(flow, ttl=64, kind=PacketKind.ICMP_TTL_EXCEEDED)

    def test_ttl_bounds(self):
        flow = FlowId(Ipv4Address(1), Ipv4Address(2), 3, 4, Protocol.TCP)
        with pytest.raises(ValueError):
            Packet(flow, ttl=0)
        with pytest.raises(ValueError):
            Packet(flow, ttl=256)


class TestVerdict:
    def test_mechanism_tied_to_censored(self):
        assert Verdict.censored(Mechanism.RST_INJECTION).is_censored
        assert Verdict.not_censored().is_not_censored
        assert Verdict.excluded().is_excluded
        with pytest.raises(ValueError):
            Verdict(kind=Verdict.censored(Mechanism.BLOCKPAGE).kind)  # no mechanism

    def test_ephemeral_range_sane(self):
        lo, hi = EPHEMERAL_PORT_RANGE
        assert 1024 < lo < hi <= 65535


def test_source_params_validation():
    with pytest.raises(ValueError):
        SourceParams(Ipv4Address(1), 70000)
