import json
import math
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowstable.core import FlowId, Ipv4Address, Packet, PacketKind, Protocol, SourceParams
from flowstable import simnet
from builders import random_topology
from flowstable.simnet import (
    LOOP_GUARD,
    DanglingNodeRefError,
    DrawTree,
    LoopGuardExceededError,
    EmptyNextHopsError,
    LossOutOfRangeError,
    LossStream,
    SchemaError,
    TransitKind,
    compile_route,
    drop_threshold,
    fnv1a_64,
    forward,
    load_topology,
    loss_key_parts,
    oracle_paths,
    route,
)

from conftest import load_fixture
from reference import FLOW_SLICES, digest_draw, flow_bytes, fnv1a64 as fnv_reference
from reference import loss_digest, loss_uniform
from reference import next_hop as reference_next_hop, walk as reference_walk


def minimal_doc(**overrides):
    doc = {
        "nodes": [
            {"id": 0, "role": "router", "asn": 1, "subnet24": "10.0.0.0/24",
             "geo": "a", "responsive": True},
            {"id": 1, "role": "endpoint", "asn": 2, "subnet24": "10.0.1.0/24",
             "geo": "b", "responsive": True},
        ],
        "policies": [
            {"node": 0, "selector": {"kind": "low_bits", "field": "src_ip", "n_bits": 1},
             "next_hops": [1]},
        ],
        "seed": 0,
    }
    doc.update(overrides)
    return doc


def make_flow(src_ip=0x0A000001, dst_ip=0x0A000102, src_port=40000, dst_port=80,
              protocol=Protocol.TCP):
    return FlowId(Ipv4Address(src_ip), Ipv4Address(dst_ip), src_port, dst_port, protocol)


def walk(topology, packet, seed, epoch=1):
    """forward() of packet on its flow's route compiled against topology."""
    path = compile_route(topology, packet.flow, route(topology, packet.flow))
    stream = path.flow_bytes and LossStream(seed, epoch, packet, path.flow_bytes, {})
    return forward(packet, path, epoch, stream, {})


class TestFnv:
    def test_offset_basis_on_empty(self):
        assert fnv1a_64(b"") == 0xCBF29CE484222325

    def test_known_bytes_against_reference(self):
        assert fnv1a_64(bytes([0x9C, 0x40])) == 0x0A294007B69656E1

    @given(st.binary(max_size=64), st.binary(max_size=16))
    def test_matches_independent_reference(self, data, more):
        assert fnv1a_64(data) == fnv_reference(data)
        # From the hash of the bytes before it, the hash of all of them.
        assert fnv1a_64(more, fnv1a_64(data)) == fnv_reference(data + more)


def one_router(selector, fanout):
    """A document whose entry router 0 picks among endpoints 1..fanout by
    selector."""
    nodes = [{"id": i, "role": "router" if i == 0 else "endpoint", "asn": 1 + i,
              "subnet24": f"10.0.{i}.0/24", "geo": "x", "responsive": True}
             for i in range(fanout + 1)]
    policies = [{"node": 0, "selector": selector, "next_hops": list(range(1, fanout + 1))}]
    return {"nodes": nodes, "policies": policies, "seed": 0}


def pick(doc, flow):
    """The endpoint route() takes flow to from doc's one router."""
    path = route(load_topology(doc), flow)
    assert len(path) == 2
    return path[1]


class TestNextHop:
    def test_low_bits_host_octet(self):
        doc = one_router({"kind": "low_bits", "field": "src_ip", "n_bits": 3}, 8)
        flow = make_flow(src_ip=0x0A000005)  # host octet 5
        assert pick(doc, flow) == 1 + 5

    def test_hash_tuple_src_port_against_reference(self):
        doc = one_router({"kind": "hash_tuple", "fields": ["src_port"]}, 4)
        flow = make_flow(src_port=40000)
        expected = fnv_reference(bytes([0x9C, 0x40])) % 4
        assert pick(doc, flow) == 1 + expected

    def test_hash_tuple_field_order_is_canonical(self):
        # listed out of layout order in the document, hashed in layout order
        doc = one_router({"kind": "hash_tuple", "fields": ["src_port", "src_ip"]}, 5)
        flow = make_flow()
        expected = fnv_reference(
            flow.src_ip.value.to_bytes(4, "big") + flow.src_port.to_bytes(2, "big")
        ) % 5
        assert pick(doc, flow) == 1 + expected

    @settings(max_examples=50)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 0xFFFF), st.data())
    def test_ignores_ttl_and_ip_id_by_construction(self, src_ip, src_port, data):
        # The walk sees only the flow, so two packets differing in
        # ttl/ip_id cannot steer differently; checked end to end too.
        flow = make_flow(src_ip=src_ip, src_port=src_port)
        doc = one_router(
            {"kind": "hash_tuple", "fields": ["src_ip", "src_port", "protocol"]}, 7)
        raw = flow_bytes(str(flow.src_ip), str(flow.dst_ip), src_port, 80, 6)
        assert pick(doc, flow) == pick(doc, flow) == reference_next_hop(
            doc["policies"][0], raw)

    @pytest.mark.parametrize("selector, message", [
        ({"kind": "hash_tuple", "fields": []},
         "hash_tuple selector needs at least one field"),
        ({"kind": "low_bits", "field": "protocol", "n_bits": 2},
         "low_bits selector cannot use the protocol field"),
        ({"kind": "low_bits", "field": "src_ip", "n_bits": 0}, "n_bits must be in 1..8, got 0"),
        ({"kind": "low_bits", "field": "src_ip", "n_bits": 9}, "n_bits must be in 1..8, got 9"),
        # The rules in order: the field's value, then n_bits an integer,
        # then no protocol field, then n_bits in range.
        ({"kind": "low_bits", "field": "protocol", "n_bits": 9},
         "low_bits selector cannot use the protocol field"),
        ({"kind": "low_bits", "field": "protocol", "n_bits": "2"},
         "n_bits must be an integer: '2'"),
        ({"kind": "low_bits", "field": "ttl", "n_bits": "2"}, "bad hash field 'ttl'"),
    ], ids=["empty_fields", "protocol", "n_bits_0", "n_bits_9", "protocol_before_range",
            "integer_before_protocol", "field_before_integer"])
    def test_selector_rules(self, selector, message):
        with pytest.raises(SchemaError) as caught:
            load_topology(one_router(selector, 2))
        assert type(caught.value) is SchemaError
        assert str(caught.value) == message


class TestLoadTopology:
    def test_minimal_document(self):
        topo = load_topology(json.dumps(minimal_doc()))
        assert len(topo.nodes) == 2
        assert len(topo.policies) == 1
        assert topo.entry == 0

    def test_dangling_next_hop(self):
        doc = minimal_doc()
        doc["policies"][0]["next_hops"] = [99]
        with pytest.raises(DanglingNodeRefError):
            load_topology(doc)

    def test_empty_next_hops(self):
        doc = minimal_doc()
        doc["policies"][0]["next_hops"] = []
        with pytest.raises(EmptyNextHopsError):
            load_topology(doc)

    def test_loss_out_of_range(self):
        doc = minimal_doc(loss=[{"node": 0, "p": 1.5}])
        with pytest.raises(LossOutOfRangeError):
            load_topology(doc)

    def test_unknown_keys_rejected(self):
        doc = minimal_doc(extra_key=1)
        with pytest.raises(SchemaError):
            load_topology(doc)

    def test_missing_field_rejected(self):
        doc = minimal_doc()
        del doc["nodes"][0]["geo"]
        with pytest.raises(SchemaError):
            load_topology(doc)

    def test_endpoint_with_policy_rejected(self):
        doc = minimal_doc()
        doc["policies"].append(
            {"node": 1, "selector": {"kind": "low_bits", "field": "src_ip", "n_bits": 1},
             "next_hops": [0]}
        )
        with pytest.raises(SchemaError):
            load_topology(doc)

    def test_router_without_policy_rejected(self):
        doc = minimal_doc()
        doc["nodes"].append({"id": 2, "role": "router", "asn": 3,
                             "subnet24": "10.0.2.0/24", "geo": "c", "responsive": True})
        with pytest.raises(SchemaError):
            load_topology(doc)

    def test_type1_intra_fixture_structure(self):
        topo = load_fixture("type1_intra.topo")
        diverging = [hops for _, hops in topo.policies.values() if len(hops) > 1]
        assert len(diverging) == 1
        hops = diverging[0]
        censor_as = {topo.nodes[r.attach_at].as_number for r in topo.censors}
        assert {topo.nodes[h].as_number for h in hops} == censor_as


class TestForward:
    def test_ttl_one_exceeds_at_entry(self):
        topo = load_fixture("chain.topo")
        packet = Packet(make_flow(dst_ip=topo.nodes[3].address.value), ttl=1,
                        kind=PacketKind.TCP_PAYLOAD)
        result = walk(topo, packet, topo.seed)
        assert result.kind is TransitKind.TTL_EXCEEDED
        assert result.hops == (0,)
        assert result.icmp is not None
        assert result.icmp.quoted == (
            SourceParams(packet.flow.src_ip, packet.flow.src_port), packet.ip_id
        )

    def test_full_ttl_delivers_with_all_hops(self):
        topo = load_fixture("chain.topo")
        packet = Packet(make_flow(dst_ip=topo.nodes[3].address.value), ttl=64,
                        kind=PacketKind.TCP_PAYLOAD)
        result = walk(topo, packet, topo.seed)
        assert result.kind is TransitKind.DELIVERED
        assert result.hops == (0, 1, 2, 3)

    def test_three_node_path_hops_length_three(self):
        doc = minimal_doc()
        doc["nodes"].insert(1, {"id": 2, "role": "router", "asn": 1,
                                "subnet24": "10.0.2.0/24", "geo": "a",
                                "responsive": True})
        doc["policies"] = [
            {"node": 0, "selector": {"kind": "low_bits", "field": "src_ip",
                                     "n_bits": 1}, "next_hops": [2]},
            {"node": 2, "selector": {"kind": "low_bits", "field": "src_ip",
                                     "n_bits": 1}, "next_hops": [1]},
        ]
        topo = load_topology(doc)
        packet = Packet(make_flow(dst_ip=topo.nodes[1].address.value), ttl=64,
                        kind=PacketKind.TCP_PAYLOAD)
        result = walk(topo, packet, 0)
        assert result.kind is TransitKind.DELIVERED
        assert len(result.hops) == 3

    def test_icmp_quotes_emitted_ip_id(self):
        topo = load_fixture("chain.topo")
        packet = Packet(make_flow(dst_ip=topo.nodes[3].address.value), ttl=2,
                        ip_id=7, kind=PacketKind.TCP_PAYLOAD)
        result = walk(topo, packet, topo.seed)
        assert result.kind is TransitKind.TTL_EXCEEDED
        assert result.icmp.quoted[1] == 7
        assert result.icmp.body_tag == str(result.hops[-1])

    def test_loop_guard(self):
        doc = minimal_doc()
        doc["nodes"][1] = {"id": 1, "role": "router", "asn": 2,
                           "subnet24": "10.0.1.0/24", "geo": "b", "responsive": True}
        doc["policies"] = [
            {"node": 0, "selector": {"kind": "low_bits", "field": "src_ip",
                                     "n_bits": 1}, "next_hops": [1]},
            {"node": 1, "selector": {"kind": "low_bits", "field": "src_ip",
                                     "n_bits": 1}, "next_hops": [0]},
        ]
        topo = load_topology(doc)
        path = route(topo, make_flow())
        assert path == (0, 1) * (LOOP_GUARD // 2)
        packet = Packet(make_flow(), ttl=255, kind=PacketKind.TCP_PAYLOAD)
        compiled = compile_route(topo, make_flow(), path)
        with pytest.raises(LoopGuardExceededError):
            forward(packet, compiled, 1, None, {})
        with pytest.raises(LoopGuardExceededError):
            oracle_paths(topo, 1, [SourceParams(Ipv4Address(1), 2)], Protocol.TCP, 80)
        for ttl in (1, 63, LOOP_GUARD):
            packet = Packet(make_flow(), ttl=ttl, kind=PacketKind.TCP_PAYLOAD)
            result = forward(packet, compiled, 1, None, {})
            assert result.kind is TransitKind.TTL_EXCEEDED
            assert result.hops == path[:ttl]

    def test_unresponsive_expiry_emits_no_icmp(self):
        doc = minimal_doc()
        doc["nodes"][0]["responsive"] = False
        topo = load_topology(doc)
        packet = Packet(make_flow(), ttl=1, kind=PacketKind.TCP_PAYLOAD)
        result = walk(topo, packet, 0)
        assert result.kind is TransitKind.TTL_EXCEEDED
        assert result.icmp is None

    def test_determinism_same_packet_same_seed(self):
        topo = random_topology(3, loss_range=(0.0, 0.4))
        flow = make_flow()
        packet = Packet(flow, ttl=64, kind=PacketKind.TCP_PAYLOAD)
        a = walk(topo, packet, topo.seed, 5)
        b = walk(topo, packet, topo.seed, 5)
        assert a == b

    def test_route_determinism_144_repetitions(self):
        topo = random_topology(9)
        flow = make_flow()
        packet = Packet(flow, ttl=64, kind=PacketKind.TCP_PAYLOAD)
        first = walk(topo, packet, topo.seed)
        for rep in range(2, 145):
            again = walk(topo, packet, topo.seed, rep)
            assert again.hops == first.hops

    def test_forward_hops_prefix_of_oracle(self):
        rng = random.Random(0)
        for trial in range(250):
            topo = random_topology(rng.randrange(10_000))
            dst = max(topo.nodes)
            for _ in range(4):  # 1000 (topology, flow) draws in total
                params = SourceParams(
                    Ipv4Address(0xC6336400 + rng.randrange(1, 255)),
                    rng.randrange(2**16),
                )
                oracle = oracle_paths(topo, dst, [params], Protocol.TCP, 80)[params]
                flow = FlowId(params.src_ip, topo.nodes[dst].address, params.src_port,
                              80, Protocol.TCP)
                ttl = rng.randrange(1, 65)
                packet = Packet(flow, ttl=ttl, kind=PacketKind.TCP_PAYLOAD)
                result = walk(topo, packet, topo.seed)
                assert result.hops == oracle[: len(result.hops)]

    def test_next_hop_never_depends_on_ttl_or_ip_id(self):
        topo = random_topology(42)
        dst = max(topo.nodes)
        flow = FlowId(Ipv4Address(0xC6336407), topo.nodes[dst].address, 41000, 80,
                      Protocol.TCP)
        baseline = None
        rng = random.Random(1)
        for _ in range(100):
            ttl = rng.randrange(40, 256)
            packet = Packet(flow, ttl=ttl, ip_id=rng.randrange(2**16),
                            kind=PacketKind.TCP_PAYLOAD)
            hops = walk(topo, packet, topo.seed).hops
            if baseline is None:
                baseline = hops
            assert hops == baseline


@st.composite
def routed_documents(draw):
    """A topology document whose routers may point at any node but the
    entry 0, so loops (and self-loops) are common."""
    n_routers = draw(st.integers(1, 6))
    n_endpoints = draw(st.integers(1, 3))
    nodes = [
        {"id": i, "role": "router" if i < n_routers else "endpoint", "asn": 1 + i,
         "subnet24": f"10.0.{i}.0/24", "geo": "x", "responsive": True}
        for i in range(n_routers + n_endpoints)
    ]
    targets = list(range(1, n_routers + n_endpoints))
    policies = []
    for router in range(n_routers):
        hops = draw(st.lists(st.sampled_from(targets), min_size=1, max_size=4, unique=True))
        if draw(st.booleans()):
            selector = {"kind": "low_bits", "n_bits": draw(st.integers(1, 8)),
                        "field": draw(st.sampled_from(
                            ["src_ip", "dst_ip", "src_port", "dst_port"]))}
        else:
            fields = draw(st.lists(st.sampled_from(list(FLOW_SLICES)), min_size=1,
                                   max_size=5, unique=True))
            selector = {"kind": "hash_tuple", "fields": fields}
        policies.append({"node": router, "selector": selector, "next_hops": hops})
    return {"nodes": nodes, "policies": policies, "seed": 0}


class TestRoute:
    @settings(max_examples=300, deadline=None)
    @given(routed_documents(), st.integers(1, 254), st.integers(0, 2**16 - 1),
           st.integers(0, 2**16 - 1), st.sampled_from([Protocol.TCP, Protocol.UDP]))
    def test_matches_independent_walk(self, doc, host, src_port, dst_port, protocol):
        topo = load_topology(doc)
        dst = max(topo.nodes)
        flow = FlowId(Ipv4Address(0xC6336400 + host), topo.nodes[dst].address,
                      src_port, dst_port, protocol)
        raw = flow_bytes(str(flow.src_ip), str(flow.dst_ip), src_port, dst_port,
                         protocol.value)
        expected = reference_walk(doc, raw, LOOP_GUARD)
        assert route(topo, flow) == expected

    def test_hashes_each_field_set_once(self, monkeypatch):
        # Eight routers in a chain, five fanning out by one field set and
        # three by another: the walk hashes the flow twice, not eight
        # times. Where one set's bytes are a prefix of the other's (the
        # first four fields' 12 of all five's 13), the longer hash
        # continues the shorter: 13 bytes hashed, not 12 + 13.
        n = 8
        nodes = [{"id": i, "role": "router" if i < n else "endpoint", "asn": 1 + i,
                  "subnet24": f"10.0.{i}.0/24", "geo": "x", "responsive": True}
                 for i in range(n + 1)]
        calls = []
        monkeypatch.setattr(simnet, "fnv1a_64", lambda data, h=0: calls.append(data) or 0)
        for some, others, hashed in ((["src_ip", "dst_port"], ["src_port"], 6 + 2),
                                     (list(FLOW_SLICES)[:4], list(FLOW_SLICES), 13)):
            policies = [
                {"node": i, "next_hops": [i + 1, i + 1],
                 "selector": {"kind": "hash_tuple", "fields": some if i % 3 else others}}
                for i in range(n)
            ]
            topo = load_topology({"nodes": nodes, "policies": policies, "seed": 0})
            calls.clear()
            assert route(topo, make_flow(dst_ip=topo.nodes[n].address.value)) == tuple(
                range(n + 1))
            assert len(calls) == 2
            assert sum(map(len, calls)) == hashed

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.integers(1, 254), st.integers(0, 2**16 - 1),
           st.integers(0, 2**16 - 1), st.sampled_from([Protocol.TCP, Protocol.UDP]))
    def test_each_field_set_hash_equals_reference(self, data, host, src_port, dst_port,
                                                  protocol):
        # A family of field sets, some of them prefixes of another in
        # layout order, met by a chain of routers in any order: each set's
        # hash, one call of fnv1a_64 each, is the FNV of its own bytes.
        fields = list(FLOW_SLICES)
        drawn = data.draw(st.lists(st.sampled_from(fields), min_size=2, unique=True))
        longest = [f for f in fields if f in drawn]
        cuts = data.draw(st.lists(st.integers(1, len(longest) - 1), min_size=1, unique=True))
        others = data.draw(st.lists(st.lists(st.sampled_from(fields), min_size=1, unique=True),
                                    max_size=3))
        family = list(dict.fromkeys(
            frozenset(s) for s in [longest, *(longest[:k] for k in cuts), *others]))
        family = data.draw(st.permutations(family))
        n = len(family)
        nodes = [{"id": i, "role": "router" if i < n else "endpoint", "asn": 1 + i,
                  "subnet24": f"10.0.{i}.0/24", "geo": "x", "responsive": True}
                 for i in range(n + 1)]
        policies = [{"node": i, "next_hops": [i + 1],
                     "selector": {"kind": "hash_tuple", "fields": sorted(s)}}
                    for i, s in enumerate(family)]
        topo = load_topology({"nodes": nodes, "policies": policies, "seed": 0})
        flow = FlowId(Ipv4Address(0xC6336400 + host), topo.nodes[n].address, src_port,
                      dst_port, protocol)
        raw = flow.to_bytes()
        hashes = []

        def recorded(chunk, h=simnet.FNV64_OFFSET_BASIS):
            hashes.append(fnv1a_64(chunk, h))
            return hashes[-1]

        with mock.patch.object(simnet, "fnv1a_64", recorded):
            assert route(topo, flow) == tuple(range(n + 1))
        assert sorted(hashes) == sorted(
            fnv_reference(b"".join(raw[FLOW_SLICES[f]] for f in fields if f in s))
            for s in family)


class TestOraclePaths:
    def test_no_fanout_single_path(self):
        topo = load_fixture("chain.topo")
        space = [SourceParams(Ipv4Address(0xC6336400 + h), 40000 + h) for h in range(1, 20)]
        paths = oracle_paths(topo, 3, space, Protocol.TCP, 80)
        assert len(set(paths.values())) == 1

    def test_low_bits_port_parity_gives_two_paths(self):
        doc = minimal_doc()
        doc["nodes"].append({"id": 2, "role": "endpoint", "asn": 4,
                             "subnet24": "10.0.2.0/24", "geo": "c", "responsive": True})
        doc["policies"][0] = {
            "node": 0,
            "selector": {"kind": "low_bits", "field": "src_port", "n_bits": 1},
            "next_hops": [1, 2],
        }
        topo = load_topology(doc)
        space = [SourceParams(Ipv4Address(0xC6336401), port) for port in range(40000, 40010)]
        paths = oracle_paths(topo, 1, space, Protocol.TCP, 80)
        assert len(set(paths.values())) == 2
        for params, path in paths.items():
            assert path == ((0, 1) if params.src_port % 2 == 0 else (0, 2))

    def test_route_around_fixture_partitions_by_censor_as(self):
        topo = load_fixture("type3_routearound.topo")
        censor_as = {topo.nodes[r.attach_at].as_number for r in topo.censors}
        space = [SourceParams(Ipv4Address(0xC6336400 + h), 40000) for h in range(1, 30)]
        paths = oracle_paths(topo, 3, space, Protocol.TCP, 443)
        transiting = {p for p in paths.values()
                      if {topo.nodes[n].as_number for n in p} & censor_as}
        avoiding = set(paths.values()) - transiting
        assert transiting and avoiding


class TestLoss:
    def test_loss_monotone_raising_p_never_adds_paths(self):
        rng = random.Random(5)
        for _ in range(50):
            seed = rng.randrange(10_000)
            base = random_topology(seed, loss_range=(0.05, 0.3))
            heavier = random_topology(seed, loss_range=(0.05, 0.3))
            for node in heavier.loss:
                heavier.loss[node] = min(1.0, heavier.loss[node] * 2)
            dst = max(base.nodes)
            delivered_low, delivered_high = set(), set()
            for h in range(1, 40):
                params = SourceParams(Ipv4Address(0xC6336400 + h), 42424)
                flow = FlowId(params.src_ip, base.nodes[dst].address,
                              params.src_port, 80, Protocol.TCP)
                packet = Packet(flow, ttl=64, kind=PacketKind.TCP_PAYLOAD)
                low = walk(base, packet, seed)
                high = walk(heavier, packet, seed)
                if low.kind is TransitKind.DELIVERED:
                    delivered_low.add((params, low.hops))
                if high.kind is TransitKind.DELIVERED:
                    delivered_high.add((params, high.hops))
            assert delivered_high <= delivered_low

    def test_stream_uniform_and_deterministic(self):
        packet = Packet(make_flow(), ttl=9, kind=PacketKind.TCP_PAYLOAD)
        s1 = LossStream(1, 2, packet, packet.flow.to_bytes(), {})
        s2 = LossStream(1, 2, packet, packet.flow.to_bytes(), {})
        half = drop_threshold(0.5)
        dropped = [s1.uniform(n, half) for n in range(500)]
        assert dropped == [s2.uniform(n, half) for n in range(500)]
        assert all(type(d) is bool for d in dropped)
        assert 0.35 < sum(dropped) / len(dropped) < 0.65

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**64 - 1), st.integers(-2**63, 2**63 - 1),
           st.sampled_from(list(PacketKind)), st.integers(0, 2**16 - 1),
           st.integers(0, 2**16))
    def test_key_parts_frame_the_documented_key(self, seed, epoch, kind, ip_id, node):
        raw = flow_bytes("198.51.100.7", "10.0.1.2", 40000, 80, 6)
        head, tail = loss_key_parts(seed, epoch, kind, ip_id, node)
        assert loss_uniform(seed, epoch, raw, kind.value, ip_id, node) == digest_draw(
            int.from_bytes(loss_digest(head + raw + tail), "big"))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**64 - 1), st.integers(-2**63, 2**63 - 1),
           st.integers(0, 2**16 - 1),
           st.sampled_from([k for k in PacketKind if k is not PacketKind.ICMP_TTL_EXCEEDED]),
           st.integers(0, 2**16 - 1), st.integers(0, 2**16))
    def test_uniform_matches_documented_key(self, seed, epoch, src_port, kind, ip_id, node):
        flow = make_flow(src_port=src_port)
        packet = Packet(flow, ttl=9, ip_id=ip_id, kind=kind)
        raw = flow_bytes(str(flow.src_ip), str(flow.dst_ip), src_port, 80, 6)
        draws = {}
        stream = LossStream(seed, epoch, packet, raw, draws)
        expected = loss_uniform(seed, epoch, raw, kind.value, ip_id, node)
        after = loss_uniform(seed, epoch, raw, kind.value, ip_id, node + 1)
        half, quarter = drop_threshold(0.5), drop_threshold(0.25)
        assert stream.uniform(node, half) == (expected < 0.5)
        assert stream.uniform(node + 1, quarter) == (after < 0.25)
        assert stream.uniform(node, half) == (expected < 0.5)
        # each distinct draw point once, in the order first drawn, with
        # whether its draw dropped the packet
        assert list(draws.items()) == [
            ((*loss_key_parts(seed, epoch, kind, ip_id, node), half), expected < 0.5),
            ((*loss_key_parts(seed, epoch, kind, ip_id, node + 1), quarter), after < 0.25)]


def _value(threshold):
    return int.from_bytes(threshold, "big")


class TestDropThreshold:
    """A draw drops where its digest is below drop_threshold(p), which
    must be exactly where its float draw is below p."""

    @settings(max_examples=300, deadline=None)
    @given(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), st.binary(max_size=64))
    def test_digest_below_threshold_iff_draw_below_p(self, p, key):
        draw = digest_draw(int.from_bytes(loss_digest(key), "big"))
        assert (loss_digest(key) < drop_threshold(p)) == (draw < p)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    def test_threshold_is_the_least_digest_that_draws_p(self, p):
        threshold = drop_threshold(p)
        value = _value(threshold)
        assert len(threshold) == 8
        assert digest_draw(value) >= p
        assert digest_draw(value - 1) < p

    @pytest.mark.parametrize("p, expected", [
        pytest.param(2.0**-64, 1, id="2**-64"),
        pytest.param(math.ulp(0.0), 1, id="subnormal"),
        # Floats below 2**64 are 2**11 apart, so digests from half a step
        # below 2**64 - 2**11 round up to it; the tie rounds to even, down.
        pytest.param(1.0 - 2.0**-53, 2**64 - 3 * 2**10 + 1, id="1-2**-53"),
    ])
    def test_edges(self, p, expected):
        threshold = drop_threshold(p)
        assert _value(threshold) == expected
        below, at = (expected - 1).to_bytes(8, "big"), expected.to_bytes(8, "big")
        assert below < threshold and digest_draw(expected - 1) < p
        assert not at < threshold and digest_draw(expected) >= p

    def test_p_one_drops_every_digest(self):
        # The largest digests draw exactly 1.0, not below p = 1.0; they drop all the same.
        top = b"\xff" * 8
        assert digest_draw(_value(top)) == 1.0
        assert top < drop_threshold(1.0)
        assert bytes(8) < drop_threshold(1.0)

    def test_p_zero_drops_nothing(self):
        assert drop_threshold(0.0) == bytes(8)

    def test_digest_at_threshold_passes_and_below_drops(self):
        # A stream and a tree compare the digest with the threshold
        # strictly: a threshold equal to the digest passes the draw, one
        # above it drops it.
        packet = Packet(make_flow(), ttl=9, kind=PacketKind.TCP_PAYLOAD)
        raw = packet.flow.to_bytes()
        head, tail = loss_key_parts(7, 1, packet.kind, packet.ip_id, 3)
        digest = loss_digest(head + raw + tail)
        above = (_value(digest) + 1).to_bytes(8, "big")
        for threshold, dropped in ((digest, False), (above, True)):
            draws = {}
            assert LossStream(7, 1, packet, raw, draws).uniform(3, threshold) is dropped
            assert draws == {(head, tail, threshold): dropped}
            tree = DrawTree()
            tree.graft({(head, tail, threshold): False}, "passed")
            tree.graft({(head, tail, threshold): True}, "dropped")
            assert tree.find(packet.flow) == ("dropped" if dropped else "passed")

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.0, 1.0, exclude_min=True), st.integers(0, 2**64 - 1),
           st.integers(0, 2**16 - 1), st.integers(1, 2**16))
    def test_stream_and_tree_drop_where_the_draw_is_below_p(self, p, seed, src_port, node):
        flow = make_flow(src_port=src_port)
        packet = Packet(flow, ttl=9, kind=PacketKind.TCP_SYN)
        raw = flow.to_bytes()
        expected = loss_uniform(seed, 2, raw, "tcp_syn", 0, node) < p or p == 1.0
        draws = {}
        assert LossStream(seed, 2, packet, raw, draws).uniform(node, drop_threshold(p)) \
            is expected
        tree = DrawTree()
        tree.graft(draws, "first")
        ((point, dropped),) = draws.items()
        tree.graft({point: not dropped}, "second")
        assert tree.find(flow) == "first"
