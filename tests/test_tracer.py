import random

import pytest

from flowstable.core import AppProtocol, Ipv4Address, PacketKind, Protocol, Sensitivity, SourceParams
from flowstable.fixtures import random_topology
from flowstable.prober import ProbeSpec, SimTransport
from flowstable.simnet import oracle_paths
from flowstable.tracer import (
    MixedDestinationsError,
    TerminalKind,
    merge_paths,
    trace,
)

from conftest import load_fixture

PARAMS = SourceParams(Ipv4Address.parse("198.51.100.7"), 40000)


def sensitive_spec(topology, protocol, params=PARAMS, dst=None, domain="blocked.example"):
    dst_ip = topology.nodes[dst if dst is not None else max(topology.nodes)].address
    return ProbeSpec.for_protocol(protocol, dst_ip, domain, Sensitivity.SENSITIVE,
                                  params, repetitions=1)


class TestTrace:
    def test_chain_reaches_destination_after_three_hops(self):
        topo = load_fixture("chain.topo")
        path = trace(sensitive_spec(topo, AppProtocol.HTTP, domain="example.com"),
                     8, SimTransport(topo))
        assert path.hops == (0, 1, 2)
        assert path.terminal.kind is TerminalKind.REACHED_DESTINATION

    def test_unresponsive_middle_hop_leaves_gap(self):
        topo = load_fixture("type4_hidden.topo")
        # odd host octet routes to the clear unresponsive branch (node 3)
        params = SourceParams(Ipv4Address.parse("198.51.100.9"), 40000)
        path = trace(sensitive_spec(topo, AppProtocol.HTTPS, params=params, dst=4),
                     8, SimTransport(topo))
        assert path.hops == (0, 1, None)
        assert path.terminal.kind is TerminalKind.REACHED_DESTINATION

    def test_max_ttl_zero_rejected(self):
        topo = load_fixture("chain.topo")
        with pytest.raises(ValueError):
            trace(sensitive_spec(topo, AppProtocol.HTTP), 0, SimTransport(topo))
        with pytest.raises(ValueError):
            trace(sensitive_spec(topo, AppProtocol.HTTP), 65, SimTransport(topo))

    def test_rst_censor_truncates_ladder(self):
        topo = load_fixture("rst_chain.topo")
        path = trace(sensitive_spec(topo, AppProtocol.HTTPS, dst=3), 16,
                     SimTransport(topo))
        assert path.terminal.kind is TerminalKind.CENSORED_AT
        # hop 2 (the censor node) answers for the expiring copy before the
        # next copy transits it and triggers the reset
        assert path.terminal.censored_at == 2
        assert path.hops == (0, 1)

    def test_exactly_one_payload_copy_per_ttl(self, sent_packets):
        topo = load_fixture("chain.topo")
        transport = SimTransport(topo)
        spec = sensitive_spec(topo, AppProtocol.HTTPS, domain="example.com")
        path = trace(spec, 8, transport)
        payloads = [p for p in sent_packets if p.kind is PacketKind.TCP_PAYLOAD]
        # no retransmissions, one copy per ttl, and none after the copy
        # that reached the destination (three routers, then the endpoint)
        assert [p.ip_id for p in payloads] == [p.ttl for p in payloads] == [1, 2, 3, 4]
        assert path.hops == (0, 1, 2)
        assert path.terminal.kind is TerminalKind.REACHED_DESTINATION

    def test_gap_between_responsive_hops(self):
        doc = {
            "nodes": [
                {"id": 0, "role": "router", "asn": 1, "subnet24": "10.0.0.0/24",
                 "geo": "a", "responsive": True},
                {"id": 1, "role": "router", "asn": 1, "subnet24": "10.0.1.0/24",
                 "geo": "a", "responsive": False},
                {"id": 2, "role": "router", "asn": 1, "subnet24": "10.0.2.0/24",
                 "geo": "a", "responsive": True},
                {"id": 3, "role": "endpoint", "asn": 2, "subnet24": "10.0.3.0/24",
                 "geo": "b", "responsive": True},
            ],
            "policies": [
                {"node": n, "selector": {"kind": "low_bits", "field": "src_ip",
                                         "n_bits": 1}, "next_hops": [n + 1]}
                for n in (0, 1, 2)
            ],
            "seed": 0,
        }
        from flowstable.simnet import load_topology

        topo = load_topology(doc)
        path = trace(sensitive_spec(topo, AppProtocol.HTTP, dst=3,
                                    domain="example.com"), 8, SimTransport(topo))
        assert path.hops == (0, None, 2)
        assert path.terminal.kind is TerminalKind.REACHED_DESTINATION

    def test_icmp_probability_zero_blinds_the_trace(self):
        import json

        from conftest import FIXTURES
        from flowstable.simnet import load_topology

        doc = json.loads((FIXTURES / "chain.topo").read_text())
        for node in doc["nodes"]:
            if node["role"] == "router":
                node["responsive"] = False
        topo = load_topology(doc)
        path = trace(sensitive_spec(topo, AppProtocol.HTTP, domain="example.com"),
                     8, SimTransport(topo))
        assert path.hops == (None, None, None)
        assert path.terminal.kind is TerminalKind.REACHED_DESTINATION

    def test_handshake_failure_raises(self):
        import json

        from conftest import FIXTURES
        from flowstable.simnet import load_topology
        from flowstable.prober import HandshakeFailedError

        doc = json.loads((FIXTURES / "chain.topo").read_text())
        doc["loss"] = [{"node": 1, "p": 1.0}]
        topo = load_topology(doc)
        with pytest.raises(HandshakeFailedError):
            trace(sensitive_spec(topo, AppProtocol.HTTP, domain="example.com"),
                  8, SimTransport(topo))

    def test_dns_trace_needs_no_handshake(self, sent_packets):
        topo = load_fixture("chain.topo")
        transport = SimTransport(topo)
        path = trace(sensitive_spec(topo, AppProtocol.DNS, domain="example.com"),
                     8, transport)
        assert path.hops == (0, 1, 2)
        kinds = {p.kind for p in sent_packets}
        assert kinds == {PacketKind.UDP_PAYLOAD}

    def test_trace_does_not_change_routing(self):
        topo = load_fixture("srcip_hash.topo")
        transport = SimTransport(topo)
        spec = sensitive_spec(topo, AppProtocol.HTTP, domain="example.com", dst=5)
        oracle = oracle_paths(topo, 5, [spec.source], Protocol.TCP, 80)[spec.source]
        path = trace(spec, 16, transport)
        for pos, hop in enumerate(path.hops):
            assert hop == oracle[pos]

    def test_oracle_agreement_on_random_topologies(self):
        rng = random.Random(4242)
        protocols = [AppProtocol.DNS, AppProtocol.HTTP, AppProtocol.HTTPS]
        for trial in range(100):
            topo = random_topology(rng.randrange(1_000_000))
            dst = max(topo.nodes)
            params = SourceParams(Ipv4Address(0xC6336400 + rng.randrange(1, 255)),
                                  rng.randrange(32768, 61000))
            protocol = protocols[trial % 3]
            spec = sensitive_spec(topo, protocol, params=params, dst=dst,
                                  domain="example.com")
            oracle = oracle_paths(topo, dst, [params], protocol.transport,
                                  protocol.port)[params]
            path = trace(spec, 32, SimTransport(topo))
            assert path.terminal.kind is TerminalKind.REACHED_DESTINATION
            assert len(path.hops) == len(oracle) - 1
            for pos, hop in enumerate(path.hops):
                expected = oracle[pos]
                if topo.nodes[expected].responsive:
                    assert hop == expected
                else:
                    assert hop is None


class TestMergePaths:
    def test_identical_hop_sets_one_path(self):
        topo = load_fixture("chain.topo")
        transport = SimTransport(topo)
        spec = sensitive_spec(topo, AppProtocol.HTTP, domain="example.com")
        traces = [trace(spec, 8, transport) for _ in range(2)]
        pathset = merge_paths(traces)
        from flowstable.analysis import num_nodes, num_paths

        assert num_paths(pathset) == 1
        assert num_nodes(pathset) == 3

    def test_distinct_sets_counted(self):
        topo = load_fixture("half_split.topo")
        transport = SimTransport(topo)
        traces = []
        for octet in (2, 3):  # one even, one odd source
            params = SourceParams(Ipv4Address(0xC6336400 + octet), 40000)
            traces.append(trace(
                sensitive_spec(topo, AppProtocol.HTTP, params=params, dst=3,
                               domain="example.com"),
                8, transport))
        pathset = merge_paths(traces)
        from flowstable.analysis import num_nodes, num_paths

        assert num_paths(pathset) == 2
        assert num_nodes(pathset) == 3  # {0,1} and {0,2}

    def test_mixed_destinations_rejected(self):
        topo = load_fixture("srcip_hash.topo")
        transport = SimTransport(topo)
        t1 = trace(sensitive_spec(topo, AppProtocol.HTTP, dst=5, domain="example.com"),
                   8, transport)
        chain = load_fixture("chain.topo")
        t2 = trace(sensitive_spec(chain, AppProtocol.HTTP, dst=3, domain="example.com"),
                   8, SimTransport(chain))
        with pytest.raises(MixedDestinationsError):
            merge_paths([t1, t2])

    def test_constant_params_144_traces_one_path(self):
        topo = load_fixture("half_split.topo")
        transport = SimTransport(topo)
        spec = sensitive_spec(topo, AppProtocol.HTTP, dst=3, domain="example.com")
        traces = [trace(spec, 8, transport) for _ in range(144)]
        pathset = merge_paths(traces)
        from flowstable.analysis import num_paths

        assert num_paths(pathset) == 1

    def test_derived_verdicts_from_terminals(self):
        topo = load_fixture("half_split.topo")
        transport = SimTransport(topo)
        traces = []
        for octet in (2, 3):
            params = SourceParams(Ipv4Address(0xC6336400 + octet), 40000)
            traces.append(trace(
                sensitive_spec(topo, AppProtocol.HTTPS, params=params, dst=3),
                8, transport))
        pathset = merge_paths(traces)
        verdicts = {g.params.src_ip.host_octet % 2: g.verdict
                    for g in pathset.groups.values()}
        assert verdicts[1].is_censored
        assert verdicts[0].is_not_censored
