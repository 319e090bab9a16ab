"""A cell is a pure function of (topology document, cell, seed).

Whatever a transport ran before, a cell and a trace on it give exactly
what they give on a freshly loaded topology, and running them leaves
the topology as it was loaded.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowstable.censors import Health
from flowstable.core import AppProtocol, Ipv4Address, Sensitivity, SourceParams
from flowstable.experiments import plan_rq2, run_rq2
from flowstable.prober import (
    Cell,
    ProbeSpec,
    SimTransport,
    classify,
    run_cell,
)
from flowstable.simnet import Role, load_topology
from flowstable.tracer import DEFAULT_MAX_TTL

from builders import trace_spec
from conftest import FIXTURES, flapping, scratch_log

DOMAINS = ("control.example", "blocked.example")
FLAP = [(2, Health.FAILED), (3, Health.ACTIVE)]


def rst_chain_with(**censor):
    """rst_chain.topo with one HTTP/HTTPS rule per protocol, overridden."""
    doc = json.loads((FIXTURES / "rst_chain.topo").read_text())
    for rule in doc["censors"]:
        rule.update(censor)
    return doc


def builder(doc, schedule=None):
    """A function that loads a fresh topology from doc every call."""

    def build():
        topology = load_topology(doc)
        return flapping(topology, schedule) if schedule else topology

    return build


TOPOLOGIES = {
    path.name: builder(json.loads(path.read_text()))
    for path in sorted(FIXTURES.glob("*.topo"))
}
TOPOLOGIES.update(
    {
        f"rst_chain_residual_{n}": builder(rst_chain_with(residual_epochs=n))
        for n in (1, 2, 3)
    }
)
TOPOLOGIES["rst_chain_drop_residual_2"] = builder(
    rst_chain_with(action={"kind": "drop_silently"}, residual_epochs=2)
)
TOPOLOGIES["rst_chain_flapping"] = builder(rst_chain_with(), FLAP)
TOPOLOGIES["rst_chain_flapping_residual_1"] = builder(
    rst_chain_with(residual_epochs=1), FLAP
)

protocols = st.sampled_from(list(AppProtocol))
sources = st.builds(
    SourceParams,
    st.integers(0xC6336401, 0xC63364FE).map(Ipv4Address),
    st.integers(32768, 60999),
)


def endpoints(topology):
    return sorted(n.id for n in topology.nodes.values() if n.role is Role.ENDPOINT)


def cell(topology, transport, dest, protocol, params):
    result = run_cell(Cell(protocol, topology.nodes[dest].address, DOMAINS), params, transport)
    assert result.verdict == classify(result.control, result.sensitive, protocol)
    return result


def traced(topology, transport, dest, protocol, params):
    spec = ProbeSpec(
        protocol, topology.nodes[dest].address, DOMAINS[1], Sensitivity.SENSITIVE,
        params,
    )
    return trace_spec(spec, DEFAULT_MAX_TTL, transport)


@pytest.mark.parametrize("name", sorted(TOPOLOGIES))
@settings(max_examples=12, deadline=None)
@given(
    data=st.data(),
    protocol=protocols,
    params=sources,
    others=st.lists(st.tuples(protocols, sources), max_size=3),
)
def test_cell_and_trace_match_a_fresh_topology(name, data, protocol, params, others):
    build = TOPOLOGIES[name]
    topology = build()
    dest = data.draw(st.sampled_from(endpoints(topology)), label="dest")
    fresh = build()
    expected_cell = cell(fresh, SimTransport(fresh), dest, protocol, params)
    fresh = build()
    expected_trace = traced(fresh, SimTransport(fresh), dest, protocol, params)

    transport = SimTransport(topology)
    for other_protocol, other_params in others:
        cell(topology, transport, dest, other_protocol, other_params)
    assert cell(topology, transport, dest, protocol, params) == expected_cell
    assert traced(topology, transport, dest, protocol, params) == expected_trace
    assert cell(topology, transport, dest, protocol, params) == expected_cell


def test_topology_unchanged_after_use(registry):
    doc = rst_chain_with(residual_epochs=2)
    build = builder(doc, FLAP)
    topology = build()
    dest = topology.nodes[3].address
    transport = SimTransport(topology)
    with scratch_log() as log:
        run_rq2(plan_rq2([dest], seed=3), transport, log, protocols=[AppProtocol.HTTPS],
                registry=registry)
    params = SourceParams(Ipv4Address.parse("198.51.100.7"), 40000)
    trace_spec(ProbeSpec(AppProtocol.HTTPS, dest, DOMAINS[1],
                         Sensitivity.SENSITIVE, params),
               DEFAULT_MAX_TTL, transport)
    assert topology == build()
