import copy
import dataclasses
import itertools
import pickle
import random
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference
from flowstable.analysis import TraceGroup
from flowstable.core import (AppProtocol, Ipv4Address, Mechanism, PacketKind, Protocol,
                             Sensitivity, SourceParams, Verdict)
from builders import random_topology, trace_spec
from flowstable.prober import ProbeSpec, SimTransport
from flowstable.simnet import oracle_paths
from flowstable.tracer import (
    MixedDestinationsError,
    Terminal,
    TerminalKind,
    TracePath,
    merge_paths,
)

from conftest import load_fixture, load_script

num_nodes = load_script("run_path_diversity").num_nodes

PARAMS = SourceParams(Ipv4Address.parse("198.51.100.7"), 40000)


def sensitive_spec(topology, protocol, params=PARAMS, dst=None, domain="blocked.example"):
    dst_ip = topology.nodes[dst if dst is not None else max(topology.nodes)].address
    return ProbeSpec(protocol, dst_ip, domain, Sensitivity.SENSITIVE, params)


class TestTrace:
    def test_chain_reaches_destination_after_three_hops(self):
        topo = load_fixture("chain.topo")
        path = trace_spec(sensitive_spec(topo, AppProtocol.HTTP, domain="example.com"),
                          8, SimTransport(topo))
        assert path.hops == (0, 1, 2)
        assert path.terminal.kind is TerminalKind.REACHED_DESTINATION

    def test_unresponsive_middle_hop_leaves_gap(self):
        topo = load_fixture("type4_hidden.topo")
        # odd host octet routes to the clear unresponsive branch (node 3)
        params = SourceParams(Ipv4Address.parse("198.51.100.9"), 40000)
        path = trace_spec(sensitive_spec(topo, AppProtocol.HTTPS, params=params, dst=4),
                          8, SimTransport(topo))
        assert path.hops == (0, 1, None)
        assert path.terminal.kind is TerminalKind.REACHED_DESTINATION

    def test_max_ttl_zero_rejected(self):
        topo = load_fixture("chain.topo")
        with pytest.raises(ValueError):
            trace_spec(sensitive_spec(topo, AppProtocol.HTTP), 0, SimTransport(topo))
        with pytest.raises(ValueError):
            trace_spec(sensitive_spec(topo, AppProtocol.HTTP), 65, SimTransport(topo))

    def test_rst_censor_truncates_ladder(self):
        topo = load_fixture("rst_chain.topo")
        path = trace_spec(sensitive_spec(topo, AppProtocol.HTTPS, dst=3), 16,
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
        path = trace_spec(spec, 8, transport)
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
        path = trace_spec(sensitive_spec(topo, AppProtocol.HTTP, dst=3,
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
        path = trace_spec(sensitive_spec(topo, AppProtocol.HTTP, domain="example.com"),
                          8, SimTransport(topo))
        assert path.hops == (None, None, None)
        assert path.terminal.kind is TerminalKind.REACHED_DESTINATION

    def test_handshake_failure_ends_the_ladder(self):
        # A SYN that draws no SYN-ACK sends no copy: the ladder is empty.
        import json

        from conftest import FIXTURES
        from flowstable.simnet import load_topology

        doc = json.loads((FIXTURES / "chain.topo").read_text())
        doc["loss"] = [{"node": 1, "p": 1.0}]
        topo = load_topology(doc)
        path = trace_spec(sensitive_spec(topo, AppProtocol.HTTP, domain="example.com"),
                          8, SimTransport(topo))
        assert path.hops == ()
        assert path.terminal == Terminal(TerminalKind.HANDSHAKE_FAILED)

    def test_dns_trace_needs_no_handshake(self, sent_packets):
        topo = load_fixture("chain.topo")
        transport = SimTransport(topo)
        path = trace_spec(sensitive_spec(topo, AppProtocol.DNS, domain="example.com"),
                          8, transport)
        assert path.hops == (0, 1, 2)
        kinds = {p.kind for p in sent_packets}
        assert kinds == {PacketKind.UDP_PAYLOAD}

    def test_route_to_another_endpoint_exhausts_the_ladder(self):
        # Router 0 sends every flow to endpoint 1, so probes to endpoint
        # 2's address are delivered at a host that is not their
        # destination: a dns ladder never reaches it, and a tcp handshake
        # gets no answer.
        from flowstable.simnet import load_topology

        doc = {
            "nodes": [
                {"id": i, "role": role, "asn": 1 + i, "subnet24": f"10.0.{i}.0/24",
                 "geo": "a", "responsive": True}
                for i, role in enumerate(["router", "endpoint", "endpoint"])
            ],
            "policies": [{"node": 0, "selector": {"kind": "low_bits", "field": "src_ip",
                                                  "n_bits": 1}, "next_hops": [1]}],
            "seed": 0,
        }
        topo = load_topology(doc)
        path = trace_spec(sensitive_spec(topo, AppProtocol.DNS, dst=2, domain="example.com"),
                          6, SimTransport(topo))
        assert path.terminal.kind is TerminalKind.EXHAUSTED
        assert path.hops == (0, None, None, None, None, None)
        path = trace_spec(sensitive_spec(topo, AppProtocol.HTTP, dst=2, domain="example.com"),
                          6, SimTransport(topo))
        assert path == path._replace(hops=(), terminal=Terminal(TerminalKind.HANDSHAKE_FAILED))

    def test_trace_does_not_change_routing(self):
        topo = load_fixture("srcip_hash.topo")
        transport = SimTransport(topo)
        spec = sensitive_spec(topo, AppProtocol.HTTP, domain="example.com", dst=5)
        oracle = oracle_paths(topo, 5, [spec.source], Protocol.TCP, 80)[spec.source]
        path = trace_spec(spec, 16, transport)
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
            path = trace_spec(spec, 32, SimTransport(topo))
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
        traces = [trace_spec(spec, 8, transport) for _ in range(2)]
        pathset = merge_paths(traces)
        from flowstable.analysis import num_paths

        assert num_paths(pathset) == 1
        assert num_nodes(pathset) == 3

    def test_distinct_sets_counted(self):
        topo = load_fixture("half_split.topo")
        transport = SimTransport(topo)
        traces = []
        for octet in (2, 3):  # one even, one odd source
            params = SourceParams(Ipv4Address(0xC6336400 + octet), 40000)
            traces.append(trace_spec(
                sensitive_spec(topo, AppProtocol.HTTP, params=params, dst=3,
                               domain="example.com"),
                8, transport))
        pathset = merge_paths(traces)
        from flowstable.analysis import num_paths

        assert num_paths(pathset) == 2
        assert num_nodes(pathset) == 3  # {0,1} and {0,2}

    def test_mixed_destinations_rejected(self):
        topo = load_fixture("srcip_hash.topo")
        transport = SimTransport(topo)
        t1 = trace_spec(sensitive_spec(topo, AppProtocol.HTTP, dst=5, domain="example.com"),
                        8, transport)
        chain = load_fixture("chain.topo")
        t2 = trace_spec(sensitive_spec(chain, AppProtocol.HTTP, dst=3, domain="example.com"),
                        8, SimTransport(chain))
        with pytest.raises(MixedDestinationsError):
            merge_paths([t1, t2])

    def test_constant_params_144_traces_one_path(self):
        topo = load_fixture("half_split.topo")
        transport = SimTransport(topo)
        spec = sensitive_spec(topo, AppProtocol.HTTP, dst=3, domain="example.com")
        traces = [trace_spec(spec, 8, transport) for _ in range(144)]
        pathset = merge_paths(traces)
        from flowstable.analysis import num_paths

        assert num_paths(pathset) == 1

    def test_derived_verdicts_from_terminals(self):
        topo = load_fixture("half_split.topo")
        transport = SimTransport(topo)
        traces = []
        for octet in (2, 3):
            params = SourceParams(Ipv4Address(0xC6336400 + octet), 40000)
            traces.append(trace_spec(
                sensitive_spec(topo, AppProtocol.HTTPS, params=params, dst=3),
                8, transport))
        pathset = merge_paths(traces)
        verdicts = {(g.params.src_ip.value & 0xFF) % 2: g.verdict
                    for g in pathset.groups.values()}
        assert verdicts[1].is_censored
        assert verdicts[0].is_not_censored

    def test_a_failed_handshake_derives_excluded(self):
        # whatever the group's other traces end in
        failed = TracePath(Ipv4Address.parse("10.0.3.4"), PARAMS, AppProtocol.HTTP, (),
                           Terminal(TerminalKind.HANDSHAKE_FAILED))
        for other in TerminalKind:
            group = [failed._replace(hops=(1,), terminal=Terminal(other)), failed]
            (derived,) = merge_paths(group).groups.values()
            assert derived.verdict == Verdict.excluded()


# --- traces and trace groups as tuples ------------------------------------------

_TERMINALS = [Terminal(TerminalKind.REACHED_DESTINATION), Terminal(TerminalKind.EXHAUSTED),
              Terminal(TerminalKind.HANDSHAKE_FAILED),
              Terminal(TerminalKind.CENSORED_AT), Terminal(TerminalKind.CENSORED_AT, 2)]
_VERDICTS = [Verdict.not_censored(), Verdict.excluded(),
             Verdict.censored(Mechanism.RST_INJECTION)]

#: The fields of a trace, from few values so that equal traces turn up.
_trace_fields = st.tuples(
    st.integers(0, 1).map(lambda i: Ipv4Address(0x0A000900 + i)),
    st.integers(0, 2).map(lambda i: SourceParams(Ipv4Address(0xC6336400 + i), 40000)),
    st.sampled_from(list(AppProtocol)),
    st.lists(st.one_of(st.none(), st.integers(0, 3)), max_size=4).map(tuple),
    st.sampled_from(_TERMINALS),
)


#: The package's two types, side by side as reference.py has them.
_PACKAGE = SimpleNamespace(TracePath=TracePath, TraceGroup=TraceGroup)


def _values(module, rows, verdicts):
    """module's TracePath of each row, then its TraceGroup of each prefix
    of those traces, with the verdict at the same index."""
    traces = [module.TracePath(*row) for row in rows]
    return traces + [module.TraceGroup(t.source, tuple(traces[:i + 1]), verdicts[i])
                     for i, t in enumerate(traces)]


class TestTraceValuesMatchDataclassReference:
    """TracePath and TraceGroup are tuples of their fields; their
    construction, equality, hash, repr and properties equal those of the
    frozen dataclasses they replaced (reference.py), so path sets and
    every output built from them hold."""

    @given(st.lists(_trace_fields, min_size=1, max_size=6),
           st.lists(st.sampled_from(_VERDICTS), min_size=6, max_size=6))
    def test_same_equality_hash_repr_and_properties(self, rows, verdicts):
        new, old = _values(_PACKAGE, rows, verdicts), _values(reference, rows, verdicts)
        assert [hash(x) for x in new] == [hash(x) for x in old]
        assert [repr(x) for x in new] == [repr(x) for x in old]
        assert [x.node_set for x in new] == [x.node_set for x in old]
        assert [t.present_hops for t in new[:len(rows)]] == [
            t.present_hops for t in old[:len(rows)]]
        for i, j in itertools.product(range(len(new)), repeat=2):
            assert (new[i] == new[j], new[i] != new[j]) == (old[i] == old[j], old[i] != old[j])
        assert [repr(x) for x in set(new)] == [repr(x) for x in set(old)]

    @given(_trace_fields, _trace_fields, st.sampled_from(_VERDICTS))
    def test_same_construction_and_replace(self, row, other, verdict):
        new, old = _values(_PACKAGE, [row], [verdict]), _values(reference, [row], [verdict])
        replacing = _values(_PACKAGE, [other], [verdict])
        for value, ref, by in zip(new, old, replacing):
            names = [f.name for f in dataclasses.fields(ref)]
            assert list(type(value)._fields) == names
            assert type(value)(**dict(zip(names, value))) == value
            for name in names:
                swapped = value._replace(**{name: getattr(by, name)})
                expected = dataclasses.replace(ref, **{name: getattr(by, name)})
                assert (repr(swapped), hash(swapped)) == (repr(expected), hash(expected))

    def test_copy_and_pickle_round_trip(self):
        row = (Ipv4Address(1), SourceParams(Ipv4Address(2), 40000), AppProtocol.HTTP,
               (0, None, 2), Terminal(TerminalKind.CENSORED_AT, 3))
        for value in _values(_PACKAGE, [row], [_VERDICTS[2]]):
            copies = [copy.copy(value), copy.deepcopy(value), value._replace(),
                      *(pickle.loads(pickle.dumps(value, p))
                        for p in range(pickle.HIGHEST_PROTOCOL + 1))]
            for other in copies:
                assert type(other) is type(value)
                assert (other, hash(other), repr(other)) == (value, hash(value), repr(value))
            assert not hasattr(value, "__dict__")
