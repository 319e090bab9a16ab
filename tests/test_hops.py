"""A compiled route gives every packet the fate of a per-node walk.

A session fixes its flow's hops when it opens (simnet.compile_route):
the censor rules that can fire on the flow, endpoint, responsiveness
and drop probability per node. The property test below checks that no
packet can tell: on random documents with censors of every kind,
residual windows, failed rules and loss, each packet a session sends
(cell exchanges and trace ladders alike) meets the same fate as in a
reference walk that looks every node up in the topology as it goes. The
expected censor events are built by censors.apply in that walk; they
name no flow, only the node, action and epoch. The walk also keys and
draws loss itself, so after each send the session's recorded draws
(Session.draws) must be the very draws forward acted on.
"""

import contextlib
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from flowstable import censors, prober
from flowstable.core import AppProtocol, FlowId, Ipv4Address, Protocol, SourceParams
from flowstable.prober import Cell, SimTransport, run_cell
from flowstable.simnet import (
    LOOP_GUARD,
    LoopGuardExceededError,
    Role,
    TransitKind,
    compile_route,
    drop_threshold,
    load_topology,
    loss_key_parts,
    route,
)

from builders import trace_spec
from conftest import load_fixture
from reference import FLOW_SLICES, digest_draw, flow_bytes, loss_digest, next_hop, walk

DOMAINS = ("control.example", "blocked.example")

#: (protocol, action) pairs a rule may carry, with the tag it needs.
RULE_KINDS = [
    ("dns", "inject_dns_answer", "dns-tag"),
    ("http", "inject_blockpage", "bp-01"),
    ("http", "inject_rst", None),
    ("https", "inject_rst", None),
    ("http", "drop_silently", None),
    ("https", "drop_silently", None),
]


#: Any selector a document may hold: low_bits on any of the four fields
#: it may read, with 1 to 8 bits, or hash_tuple on any field set, listed
#: in any order.
selectors = st.one_of(
    st.builds(lambda fld, n_bits: {"kind": "low_bits", "field": fld, "n_bits": n_bits},
              st.sampled_from(["src_ip", "dst_ip", "src_port", "dst_port"]),
              st.integers(1, 8)),
    st.lists(st.sampled_from(list(FLOW_SLICES)), min_size=1, max_size=5, unique=True).map(
        lambda fields: {"kind": "hash_tuple", "fields": fields}),
)


@st.composite
def censored_documents(draw):
    """A topology document whose routers may point at any node but the
    entry 0 (so loops occur), with fanouts of 1 to 5 where the nodes
    allow, rules of every kind on any node and loss on any router."""
    n_routers = draw(st.integers(1, 5))
    n_endpoints = draw(st.integers(1, 2))
    n_nodes = n_routers + n_endpoints
    nodes = [
        {"id": i, "role": "router" if i < n_routers else "endpoint", "asn": 1 + i,
         "subnet24": f"10.0.{i}.0/24", "geo": "x", "responsive": draw(st.booleans())}
        for i in range(n_nodes)
    ]
    policies = []
    for router in range(n_routers):
        hops = draw(st.lists(st.integers(1, n_nodes - 1), min_size=1, max_size=5,
                             unique=True))
        policies.append({"node": router, "selector": draw(selectors), "next_hops": hops})
    rules = []
    for _ in range(draw(st.integers(0, 6))):
        protocol, kind, tag = draw(st.sampled_from(RULE_KINDS))
        action = {"kind": kind} if tag is None else {"kind": kind, "tag": tag}
        rules.append({
            "attach_at": draw(st.integers(0, n_nodes - 1)),
            "protocol": protocol,
            "direction": "toward_destination",
            "domain_pattern": draw(st.sampled_from(
                ["blocked.example", "*.example", "other.example"])),
            "action": action,
            "health": draw(st.sampled_from(["active", "active", "failed"])),
            "residual_epochs": draw(st.integers(0, 2)),
        })
    lossy = draw(st.lists(st.integers(0, n_routers - 1), max_size=n_routers, unique=True))
    loss = [{"node": n, "p": draw(st.sampled_from([0.1, 0.5, 0.9]))} for n in lossy]
    return {"nodes": nodes, "policies": policies, "censors": rules, "loss": loss,
            "seed": draw(st.integers(0, 2**64 - 1))}


def _flow_bytes(flow):
    return flow_bytes(str(flow.src_ip), str(flow.dst_ip), flow.src_port, flow.dst_port,
                      flow.protocol.value)


def reference_forward(topology, doc, packet, epoch, residual, draws):
    """(kind, at, hops, events) of one packet, walked node by node from
    the entry with the document's policies (reference.next_hop), looking
    up nodes, censors_at and loss at each node. residual is the
    session's residual map, and draws maps each distinct draw point
    (head, tail, drop_threshold(p)) of the session, in the order first
    drawn, to whether it dropped, decided by the float draw against p;
    both are updated in place."""
    policies = {p["node"]: p for p in doc["policies"]}
    node_id, hops, events, ttl = topology.entry, [], [], packet.ttl
    while True:
        if len(hops) == LOOP_GUARD:
            raise LoopGuardExceededError("reference walk looped")
        hops.append(node_id)
        fired = [
            event
            for event in (censors.apply(rule, packet, epoch, residual)
                          for rule in topology.censors_at(node_id))
            if event is not None
        ]
        events.extend(fired)
        fate = None
        if any(e.action.kind.consumes_packet for e in fired):
            fate = TransitKind.CENSOR_ACTION
        elif topology.nodes[node_id].role is Role.ENDPOINT:
            fate = TransitKind.DELIVERED
        else:
            ttl -= 1
            p = topology.loss.get(node_id, 0.0)
            if ttl == 0:
                fate = TransitKind.TTL_EXCEEDED
            elif p > 0.0:
                head, tail = loss_key_parts(topology.seed, epoch, packet.kind, packet.ip_id,
                                            node_id)
                key = head + packet.flow.to_bytes() + tail
                dropped = digest_draw(int.from_bytes(loss_digest(key), "big")) < p
                draws.setdefault((head, tail, drop_threshold(p)), dropped)
                if dropped:
                    fate = TransitKind.LOST
        if fate is not None:
            return fate, node_id, tuple(hops), tuple(events)
        node_id = next_hop(policies[node_id], _flow_bytes(packet.flow))


@contextlib.contextmanager
def checked_sends(topology, doc):
    """Check every packet a Session.send forwards (prober.forward)
    against reference_forward, and after each send whether it reached
    the flow's destination and the session's residual map and recorded
    draws against the walk's; yields the list of checked packets."""
    send, forward = prober.Session.send, prober.forward
    shadows = {}
    expected = []
    checked = []

    def checking_forward(packet, path, epoch, stream, residual):
        assert (stream is None) == (path.flow_bytes is None)
        got = forward(packet, path, epoch, stream, residual)
        assert (got.kind, got.hops[-1], got.hops, got.events) == expected.pop()
        checked.append(packet)
        return got

    def checking_send(session, packet):
        residual, draws = shadows.setdefault(session, ({}, {}))
        kind, at, hops, events = reference_forward(
            topology, doc, packet, session.epoch, residual, draws)
        expected.append((kind, at, hops, events))
        result = send(session, packet)
        assert expected == []  # forwarded once
        assert result.reached == (kind is TransitKind.DELIVERED
                                  and topology.nodes[at].address == packet.flow.dst_ip)
        assert session.residual == residual
        assert list(session.draws.items()) == list(draws.items())
        return result

    with mock.patch.object(prober.Session, "send", checking_send), \
            mock.patch.object(prober, "forward", checking_forward):
        yield checked


@settings(max_examples=150, deadline=None)
@given(censored_documents(), st.integers(1, 254), st.integers(0, 2**16 - 1),
       st.sampled_from(list(AppProtocol)), st.integers(1, 3), st.data())
def test_session_packets_match_per_node_walk(doc, host, src_port, protocol, reps, data):
    topology = load_topology(doc)
    endpoints = [n for n in topology.nodes.values() if n.role is Role.ENDPOINT]
    dst = data.draw(st.sampled_from(endpoints)).address
    source = SourceParams(Ipv4Address(0xC6336400 + host), src_port)
    cell = Cell(protocol, dst, DOMAINS, reps)
    _, sensitive = cell.specs(source)
    # A fresh transport per probe: nothing it could share with an earlier
    # flow, so every packet is simulated and checked.
    with checked_sends(topology, doc) as checked:
        run_cell(cell, source, SimTransport(topology))
        trace_spec(sensitive, data.draw(st.integers(1, 20)), SimTransport(topology))
    assert checked


@settings(max_examples=300, deadline=None)
@given(censored_documents(), st.booleans(), st.integers(0, 2**32 - 1),
       st.integers(0, 2**32 - 1), st.integers(0, 2**16 - 1), st.integers(0, 2**16 - 1),
       st.sampled_from(list(Protocol)), st.data())
def test_route_matches_reference_walk(doc, looping, src_ip, dst_ip, src_port, dst_port,
                                      protocol, data):
    """route() reads the step table the topology compiled at load; it
    gives the walk that applies each selector's documented rule node by
    node (reference.walk). With looping, every router points at
    routers only, and at the entry 0 only when it is the one router, so
    the walk is cut at LOOP_GUARD nodes."""
    if looping:
        routers = [n["id"] for n in doc["nodes"] if n["role"] == "router"]
        for policy in doc["policies"]:
            policy["next_hops"] = data.draw(st.lists(
                st.sampled_from(routers[1:] or routers), min_size=1, max_size=5,
                unique=True))
    topology = load_topology(doc)
    flow = FlowId(Ipv4Address(src_ip), Ipv4Address(dst_ip), src_port, dst_port, protocol)
    path = route(topology, flow)
    assert path == walk(doc, _flow_bytes(flow), LOOP_GUARD)
    if looping:
        assert len(path) == LOOP_GUARD


def test_hop_keeps_only_rules_that_can_fire():
    topology = load_fixture("lossy_mix.topo")
    dst = topology.nodes[5].address
    for protocol in AppProtocol:
        flow = FlowId(Ipv4Address.parse("198.51.100.2"), dst, 40000, protocol.port,
                      protocol.transport)
        compiled = compile_route(topology, flow, route(topology, flow))
        assert compiled.nodes[:2] == (0, 1)
        for node_id in compiled.nodes:
            hop = compiled.hops[node_id]
            assert set(hop.rules) == {
                r for r in topology.censors_at(node_id) if r.protocol is protocol}
    # A port no protocol uses: no rule can fire anywhere on the route.
    flow = FlowId(Ipv4Address.parse("198.51.100.2"), dst, 40000, 8080, Protocol.TCP)
    compiled = compile_route(topology, flow, route(topology, flow))
    assert all(compiled.hops[node_id].rules == () for node_id in compiled.nodes)
