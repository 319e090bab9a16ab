"""Seeded topology builders for the tests.

random_topology() makes layered loop-free topologies for property
tests. The effect-family builders (build_type1..build_type4) each
construct a topology whose censored/clear split has a known cause, used
to pin the effect classifier's behavior across randomized instances.
trace_spec() traces a prober.ProbeSpec's fields.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from flowstable.analysis import EffectType, Scope
from flowstable.core import AppProtocol, Ipv4Address, SourceParams
from flowstable.prober import ProbeSpec
from flowstable.simnet import Topology, load_topology
from flowstable.tracer import TracePath, trace


def trace_spec(spec: ProbeSpec, max_ttl: int, transport) -> TracePath:
    """tracer.trace of spec's fields."""
    return trace(spec.protocol, spec.dst_ip, spec.domain, spec.sensitivity, spec.source,
                 max_ttl, transport)


CONTROL_DOMAIN = "control.example"
SENSITIVE_DOMAIN = "blocked.example"

_CITIES = [
    "port-azure", "stonebridge", "velletri", "kargali", "northmoor",
    "delta-junction", "saltmarsh", "redgate", "innsfree", "carbone",
]


def _node(nid: int, role: str, asn: int, geo: str, responsive: bool = True) -> Dict:
    return {
        "id": nid,
        "role": role,
        "asn": asn,
        "subnet24": f"10.{(nid // 250) % 250}.{nid % 250}.0/24",
        "geo": geo,
        "responsive": responsive,
    }


def _chain_policy(nid: int, nxt: int) -> Dict:
    return {
        "node": nid,
        "selector": {"kind": "low_bits", "field": "src_ip", "n_bits": 1},
        "next_hops": [nxt],
    }


def _censor(at: int, protocol: AppProtocol, action_kind: str, tag: str = "") -> Dict:
    action: Dict = {"kind": action_kind}
    if tag:
        action["tag"] = tag
    return {
        "attach_at": at,
        "protocol": protocol.value,
        "direction": "toward_destination",
        "domain_pattern": SENSITIVE_DOMAIN,
        "action": action,
        "health": "active",
        "residual_epochs": 0,
    }


#: (protocol, action kind, tag) combinations a censor instance may use.
_MECHANISMS = [
    (AppProtocol.HTTPS, "inject_rst", ""),
    (AppProtocol.HTTP, "inject_rst", ""),
    (AppProtocol.HTTP, "inject_blockpage", "bp-01"),
    (AppProtocol.HTTPS, "drop_silently", ""),
    (AppProtocol.DNS, "inject_dns_answer", "answer-a"),
]


@dataclass(frozen=True)
class FixtureInstance:
    """A labeled topology: probing it must reproduce expected_effect."""

    topology: Topology
    document: Dict
    dst_node: int
    protocol: AppProtocol
    expected_effect: EffectType
    expected_scope: Optional[Scope] = None

    @property
    def dst_ip(self) -> Ipv4Address:
        return self.topology.nodes[self.dst_node].address


def standard_grid() -> List[SourceParams]:
    """64 cells covering every low-3-bit class of both IP and port."""
    base = Ipv4Address.parse("198.51.100.0").value
    return [
        SourceParams(Ipv4Address(base + octet), port)
        for octet in range(1, 9)
        for port in range(40000, 40008)
    ]


def _split_selector(rng: random.Random, fanout: int) -> Dict:
    n_bits = fanout.bit_length() - 1  # fanout is a power of two
    fld = rng.choice(["src_ip", "src_port"])
    return {"kind": "low_bits", "field": fld, "n_bits": max(1, n_bits)}


def build_type1(seed: int, scope: Scope = Scope.INTRA_AS) -> FixtureInstance:
    """Diverging routes inside (or into) a censoring AS; only some of
    the sibling nodes censor, as with failed or misconfigured boxes."""
    rng = random.Random(seed)
    transit_as = rng.randrange(100, 200)
    censor_as = rng.randrange(200, 300)
    dest_as = rng.randrange(300, 400)
    transit_city, censor_city, dest_city = rng.sample(_CITIES, 3)
    protocol, action_kind, tag = _MECHANISMS[rng.randrange(len(_MECHANISMS))]
    fanout = rng.choice([2, 4])

    nodes = [_node(0, "router", transit_as, transit_city)]
    policies = []
    branch_start = 1
    if scope is Scope.INTRA_AS:
        nodes.append(_node(1, "router", censor_as, censor_city))
        policies.append(_chain_policy(0, 1))
        branch_start = 2
        split_node = 1
    else:
        split_node = 0

    endpoint = branch_start + fanout
    branches = list(range(branch_start, endpoint))
    for b in branches:
        nodes.append(_node(b, "router", censor_as, censor_city))
        policies.append(_chain_policy(b, endpoint))
    nodes.append(_node(endpoint, "endpoint", dest_as, dest_city))
    policies.append(
        {
            "node": split_node,
            "selector": _split_selector(rng, fanout),
            "next_hops": branches,
        }
    )

    n_censored = rng.randrange(1, fanout)
    censored_branches = rng.sample(branches, n_censored)
    doc = {
        "nodes": nodes,
        "policies": policies,
        "censors": [_censor(b, protocol, action_kind, tag) for b in censored_branches],
        "loss": [],
        "seed": seed,
    }
    return FixtureInstance(
        load_topology(doc), doc, endpoint, protocol, EffectType.FAILED_NODE, scope
    )


def build_type2(seed: int) -> FixtureInstance:
    """Same censoring AS on both routes, but through different cities;
    only one geography censors."""
    rng = random.Random(seed)
    transit_as = rng.randrange(100, 200)
    censor_as = rng.randrange(200, 300)
    dest_as = rng.randrange(300, 400)
    transit_city, city_a, city_b, dest_city = rng.sample(_CITIES, 4)
    protocol, action_kind, tag = _MECHANISMS[rng.randrange(len(_MECHANISMS))]
    # two hops minimum on the censored chain so the censoring city stays
    # observable even when the censor silently eats the ladder copies
    len_a = rng.randrange(2, 4)
    len_b = rng.randrange(1, 4)

    nodes = [_node(0, "router", transit_as, transit_city)]
    policies = []
    chain_a = list(range(1, 1 + len_a))
    chain_b = list(range(1 + len_a, 1 + len_a + len_b))
    endpoint = 1 + len_a + len_b
    for nid in chain_a:
        nodes.append(_node(nid, "router", censor_as, city_a))
        policies.append(_chain_policy(nid, nid + 1 if nid + 1 in chain_a else endpoint))
    for nid in chain_b:
        nodes.append(_node(nid, "router", censor_as, city_b))
        policies.append(_chain_policy(nid, nid + 1 if nid + 1 in chain_b else endpoint))
    nodes.append(_node(endpoint, "endpoint", dest_as, dest_city))
    policies.append(
        {
            "node": 0,
            "selector": _split_selector(rng, 2),
            "next_hops": [chain_a[0], chain_b[0]],
        }
    )
    doc = {
        "nodes": nodes,
        "policies": policies,
        "censors": [_censor(chain_a[-1], protocol, action_kind, tag)],
        "loss": [],
        "seed": seed,
    }
    return FixtureInstance(
        load_topology(doc), doc, endpoint, protocol, EffectType.GEO_DIVERSE
    )


def build_type3(seed: int) -> FixtureInstance:
    """One route transits the censoring AS, the other avoids it wholly."""
    rng = random.Random(seed)
    transit_as = rng.randrange(100, 200)
    censor_as = rng.randrange(200, 300)
    clean_as = rng.randrange(400, 500)
    dest_as = rng.randrange(300, 400)
    transit_city, censor_city, clean_city, dest_city = rng.sample(_CITIES, 4)
    protocol, action_kind, tag = _MECHANISMS[rng.randrange(len(_MECHANISMS))]
    len_c = rng.randrange(1, 3)
    len_d = rng.randrange(1, 3)

    nodes = [_node(0, "router", transit_as, transit_city)]
    policies = []
    chain_c = list(range(1, 1 + len_c))
    chain_d = list(range(1 + len_c, 1 + len_c + len_d))
    endpoint = 1 + len_c + len_d
    for nid in chain_c:
        nodes.append(_node(nid, "router", censor_as, censor_city))
        policies.append(_chain_policy(nid, nid + 1 if nid + 1 in chain_c else endpoint))
    for nid in chain_d:
        nodes.append(_node(nid, "router", clean_as, clean_city))
        policies.append(_chain_policy(nid, nid + 1 if nid + 1 in chain_d else endpoint))
    nodes.append(_node(endpoint, "endpoint", dest_as, dest_city))
    policies.append(
        {
            "node": 0,
            "selector": _split_selector(rng, 2),
            "next_hops": [chain_c[0], chain_d[0]],
        }
    )
    doc = {
        "nodes": nodes,
        "policies": policies,
        "censors": [_censor(chain_c[-1], protocol, action_kind, tag)],
        "loss": [],
        "seed": seed,
    }
    return FixtureInstance(
        load_topology(doc), doc, endpoint, protocol, EffectType.ROUTE_AROUND
    )


def build_type4(seed: int) -> FixtureInstance:
    """Censorship differs with no observable path difference: the
    diverging hops never answer ICMP, one of them censors."""
    rng = random.Random(seed)
    transit_as = rng.randrange(100, 200)
    censor_as = rng.randrange(200, 300)
    dest_as = rng.randrange(300, 400)
    transit_city, censor_city, dest_city = rng.sample(_CITIES, 3)
    protocol, action_kind, tag = _MECHANISMS[rng.randrange(len(_MECHANISMS))]

    nodes = [
        _node(0, "router", transit_as, transit_city),
        _node(1, "router", censor_as, censor_city),
        _node(2, "router", censor_as, censor_city, responsive=False),
        _node(3, "router", censor_as, censor_city, responsive=False),
        _node(4, "endpoint", dest_as, dest_city),
    ]
    policies = [
        _chain_policy(0, 1),
        {"node": 1, "selector": _split_selector(rng, 2), "next_hops": [2, 3]},
        _chain_policy(2, 4),
        _chain_policy(3, 4),
    ]
    doc = {
        "nodes": nodes,
        "policies": policies,
        "censors": [_censor(2, protocol, action_kind, tag)],
        "loss": [],
        "seed": seed,
    }
    return FixtureInstance(
        load_topology(doc), doc, 4, protocol, EffectType.UNATTRIBUTABLE
    )


def random_topology(
    seed: int,
    max_nodes: int = 40,
    max_fanout: int = 4,
    loss_range: Optional[Tuple[float, float]] = None,
    unresponsive_prob: float = 0.25,
) -> Topology:
    """Layered loop-free topology with randomized ECMP policies.

    Every route converges on a single endpoint; optional per-node loss
    probabilities are drawn from loss_range.
    """
    rng = random.Random(seed)
    n_layers = rng.randrange(2, 6)
    widths = [1] + [rng.randrange(1, max_fanout + 1) for _ in range(n_layers - 1)]
    while sum(widths) + 1 > max_nodes:
        widths.pop()

    nodes = []
    layers: List[List[int]] = []
    nid = 0
    for li, width in enumerate(widths):
        layer = []
        for _ in range(width):
            responsive = nid == 0 or rng.random() > unresponsive_prob
            nodes.append(
                _node(nid, "router", 100 + li, rng.choice(_CITIES), responsive)
            )
            layer.append(nid)
            nid += 1
        layers.append(layer)
    endpoint = nid
    nodes.append(_node(endpoint, "endpoint", 900, rng.choice(_CITIES)))
    layers.append([endpoint])

    policies = []
    for li, layer in enumerate(layers[:-1]):
        targets = layers[li + 1]
        for router in layer:
            k = rng.randrange(1, min(max_fanout, len(targets)) + 1)
            hops = rng.sample(targets, k)
            if rng.random() < 0.5:
                selector = {
                    "kind": "low_bits",
                    "field": rng.choice(["src_ip", "src_port", "dst_ip", "dst_port"]),
                    "n_bits": rng.randrange(1, 4),
                }
            else:
                fields = rng.sample(
                    ["src_ip", "dst_ip", "src_port", "dst_port", "protocol"],
                    rng.randrange(1, 4),
                )
                selector = {"kind": "hash_tuple", "fields": fields}
            policies.append({"node": router, "selector": selector, "next_hops": hops})

    loss = []
    if loss_range is not None:
        lo, hi = loss_range
        for n in nodes:
            if n["role"] == "router":
                loss.append({"node": n["id"], "p": rng.uniform(lo, hi)})

    doc = {"nodes": nodes, "policies": policies, "censors": [], "loss": loss, "seed": seed}
    return load_topology(doc)
