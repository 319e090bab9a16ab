"""Seeded workload inputs for the benchmark.

make_inputs(workload, seed, out_dir) writes the topology document, the
destination list and the blockpage registry that the program receives,
plus spec.json, which tells the worker which commands to run. The same
(workload, seed, size) always gives the same bytes.

Every topology of one workload has the same shape whatever the seed:
the same number of layers, routers per layer and censors. The seed
picks selectors, next-hop order, censor placement, AS numbers and the
program's own --seed. So the work per run stays the same across seeds
and only the routing outcome changes.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

CONTROL_DOMAIN = "control.example"
SENSITIVE_DOMAIN = "blocked.example"
GEOS = ("north", "south", "east", "west", "harbour", "capital")
ALL_FIELDS = ["src_ip", "dst_ip", "src_port", "dst_port", "protocol"]

WORKLOADS = ("sweep", "paths", "report")
SIZES = ("full", "tiny")


class _Builder:
    """Accumulates one topology document."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.nodes = []
        self.policies = []
        self.censors = []
        self.loss = []

    def node(self, role: str, asn: int, responsive: bool = True) -> int:
        node_id = len(self.nodes)
        self.nodes.append({
            "id": node_id, "role": role, "asn": asn,
            "subnet24": f"10.{node_id >> 8}.{node_id & 0xFF}.0/24",
            "geo": self.rng.choice(GEOS), "responsive": responsive,
        })
        return node_id

    def layer(self, count: int, asn: int) -> list:
        return [self.node("router", asn) for _ in range(count)]

    def low_bits(self, node: int, fld: str, n_bits: int, next_hops: list) -> None:
        self.policies.append({
            "node": node,
            "selector": {"kind": "low_bits", "field": fld, "n_bits": n_bits},
            "next_hops": list(next_hops),
        })

    def hash_tuple(self, node: int, fields: list, next_hops: list) -> None:
        self.policies.append({
            "node": node,
            "selector": {"kind": "hash_tuple", "fields": fields},
            "next_hops": list(next_hops),
        })

    def shuffled(self, items: list) -> list:
        out = list(items)
        self.rng.shuffle(out)
        return out

    def endpoints(self, count: int, first_asn: int) -> list:
        return [self.node("endpoint", first_asn + i) for i in range(count)]

    def route_to_endpoints(self, routers: list, endpoints: list) -> None:
        """Last router layer: pick the endpoint from the destination's low
        address bits, the only way this simulator routes by destination."""
        n_bits = max(1, (len(endpoints) - 1).bit_length())
        order = [None] * len(endpoints)
        for e in endpoints:
            host = (e % 254) + 1  # canonical host octet of node e
            slot = (host & ((1 << n_bits) - 1)) % len(endpoints)
            if order[slot] is not None:
                raise ValueError("endpoint ids collide on their low address bits")
            order[slot] = e
        for r in routers:
            self.low_bits(r, "dst_ip", n_bits, order)

    def censor(self, at: int, protocol: str, kind: str, tag: str = "", residual: int = 0):
        pattern = self.rng.choice([SENSITIVE_DOMAIN, "*." + SENSITIVE_DOMAIN])
        action = {"kind": kind}
        if tag:
            action["tag"] = tag
        self.censors.append({
            "attach_at": at, "protocol": protocol, "direction": "toward_destination",
            "domain_pattern": pattern, "action": action, "health": "active",
            "residual_epochs": residual,
        })

    def document(self, seed: int) -> dict:
        return {"nodes": self.nodes, "policies": self.policies,
                "censors": self.censors, "loss": self.loss, "seed": seed}


def _sweep_topology(b: _Builder, n_dests: int):
    """entry -> 4 routers -> 2 routers -> endpoints.

    Mostly low_bits selectors with one hash_tuple hop; censors of all
    four mechanisms on the first router layer, one with
    residual_epochs 1; light loss on both routers of the second layer,
    so Excluded cells occur. The entry splits the sweep's source
    addresses evenly over the first layer and every second-layer router
    is alike, so every seed gives each censor and each loss draw the
    same share of the flows, and the work per run stays the same.
    Censors act before the node's loss draw, so every censor on a flow's
    walk sees every packet and the oracle walk is exact ground truth. A
    DNS query lost upstream of its injector on all repetitions reads as
    clean; the placement keeps that case out of the ground-truth
    comparison.
    """
    rng = b.rng
    entry = b.node("router", rng.randrange(64500, 64600))
    first = b.layer(4, rng.randrange(1000, 2000))
    second = b.layer(2, rng.randrange(2000, 3000))
    ends = b.endpoints(n_dests, rng.randrange(3000, 4000))
    b.low_bits(entry, "src_ip", 2, b.shuffled(first))
    hashed = rng.choice(first)
    for r in first:
        if r == hashed:
            b.hash_tuple(r, ["src_ip", "src_port"], b.shuffled(second))
        else:
            b.low_bits(r, rng.choice(["src_ip", "src_port"]), rng.randint(1, 3),
                       b.shuffled(second))
    b.route_to_endpoints(second, ends)
    dns_at, bp_at, drop_at, residual_at = b.shuffled(first)
    b.censor(dns_at, "dns", "inject_dns_answer", tag="dns-sinkhole")
    b.censor(bp_at, "http", "inject_blockpage", tag="bp-07")
    b.censor(drop_at, "https", "drop_silently")
    b.censor(residual_at, "https", "inject_rst", residual=1)
    for r in second:
        b.loss.append({"node": r, "p": 0.01})
    return ends


def _paths_topology(b: _Builder, depth: int, n_dests: int):
    """A ladder of `depth` router layers, three wide, with FNV hash_tuple
    selectors on every layer but the entry and the middle one; a few
    routers never answer ICMP. No loss: rq1 aborts on a failed handshake.

    Selector kinds and hashed fields are fixed per layer, so every walk
    makes the same number of hashes whatever the seed."""
    rng = b.rng
    layers = [[b.node("router", rng.randrange(64500, 64600))]]
    for i in range(1, depth):
        layers.append(b.layer(3, 10000 + 10 * i + rng.randrange(3)))
    ends = b.endpoints(n_dests, rng.randrange(3000, 4000))
    routers = [r for layer in layers[:-1] for r in layer]
    low_layers = {0, (depth - 1) // 2}
    for i, (layer, nxt) in enumerate(zip(layers, layers[1:])):
        for r in layer:
            if i in low_layers:
                b.low_bits(r, rng.choice(["src_ip", "src_port"]), 2, b.shuffled(nxt))
            else:
                b.hash_tuple(r, ALL_FIELDS if i % 2 else ALL_FIELDS[:4], b.shuffled(nxt))
    b.route_to_endpoints(layers[-1], ends)
    for r in rng.sample(routers[1:], min(2, len(routers) - 1)):
        b.nodes[r]["responsive"] = False
    return ends


def _report_topology(b: _Builder, n_dests: int):
    """Loss-free split: entry -> 4 routers in two ASes -> 2 routers ->
    endpoints, with HTTP RST on two of the four branches, so every
    destination is affected and the tracer sees the censorship."""
    rng = b.rng
    entry = b.node("router", rng.randrange(64500, 64600))
    west, east = rng.randrange(1000, 2000), rng.randrange(2000, 3000)
    first = [b.node("router", west), b.node("router", west),
             b.node("router", east), b.node("router", east)]
    second = b.layer(2, rng.randrange(3000, 4000))
    ends = b.endpoints(n_dests, rng.randrange(4000, 5000))
    b.low_bits(entry, "src_ip", 2, b.shuffled(first))
    for r in first:
        b.low_bits(r, rng.choice(["src_ip", "src_port"]), 1, b.shuffled(second))
    b.route_to_endpoints(second, ends)
    for r in rng.sample(first, 2):
        b.censor(r, "http", "inject_rst")
    return ends


def make_inputs(workload: str, seed: int, out_dir: Path, size: str = "full") -> dict:
    """Write the workload's inputs into out_dir and return its spec."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    tiny = size == "tiny"
    rng = random.Random(f"perfbench/{workload}/{seed}/{size}")
    b = _Builder(rng)
    spec = {"workload": workload, "seed": seed, "size": size,
            "program_seed": rng.randrange(1, 1 << 31),
            "control_domain": CONTROL_DOMAIN, "sensitive_domain": SENSITIVE_DOMAIN}
    if workload == "sweep":
        ends = _sweep_topology(b, 1 if tiny else 2)
        spec["protocols"] = "http" if tiny else "dns,http,https"
        spec["dest_files"] = [f"dest_{e}.txt" for e in ends]
    elif workload == "paths":
        ends = _paths_topology(b, 4 if tiny else 16, 2)
        protocols = ["http"] if tiny else ["http", "https", "dns", "http"]
        spec["pairs"] = [[str(ends[i % len(ends)]), p] for i, p in enumerate(protocols)]
    else:
        ends = _report_topology(b, 1 if tiny else 2)
        spec["protocols"] = "http"

    out_dir.mkdir(parents=True, exist_ok=True)
    topo_seed = rng.randrange(1 << 32)
    (out_dir / "topology.json").write_text(json.dumps(b.document(topo_seed), indent=1))
    (out_dir / "dests.txt").write_text("".join(f"{e}\n" for e in ends))
    if workload == "sweep":
        for e in ends:
            (out_dir / f"dest_{e}.txt").write_text(f"{e}\n")
    (out_dir / "blockpages.json").write_text(json.dumps([
        {"template_id": "bp-07", "label": "provider block notice"},
        {"template_id": "bp-11", "label": "regulator block notice"},
    ]))
    spec.update(topology="topology.json", dests="dests.txt", registry="blockpages.json")
    (out_dir / "spec.json").write_text(json.dumps(spec, indent=1))
    return spec
