"""The sources of the two sweep designs, drawn from the seed.

The first design (rq1) measures path diversity: four source-parameter
variations of 144 traced measurements each against one destination.
The second (rq2) measures censorship impact: a 208 source IP x 8 source
port grid of cells per destination. Every source address lies in the
one /24 at SOURCE_BASE. All draws come from generators keyed by (seed,
destination, variation), so identical seeds give identical plans.

These draws sit below logio: a run log keeps a planned source as its
index into its plan, and the reader draws the plan again from the
seed its run's meta record holds. experiments runs the plans.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from enum import Enum
from typing import List, Sequence, Tuple

from .core import AppProtocol, EPHEMERAL_PORT_RANGE, Ipv4Address, SourceParams

#: First address of the /24 (TEST-NET-2) that every probe's source lies in.
SOURCE_BASE = Ipv4Address.parse("198.51.100.0").value

RQ1_SAMPLES = 144
RQ1_BOTH_SIDE = 12  # 12 ips x 12 ports = 144 pairs
RQ2_IP_COUNT = 208  # 26 per low-3-bit class
RQ2_PORT_COUNT = 8


class EmptyCandidatesError(ValueError):
    """A sweep was given no destination."""


class Rq1Variation(Enum):
    ALL_CONSTANT = "all_constant"
    VARY_PORT = "vary_port"
    VARY_IP = "vary_ip"
    VARY_BOTH = "vary_both"


@dataclass(frozen=True)
class Rq1Plan:
    variation: Rq1Variation
    samples: Tuple[SourceParams, ...]
    dst_ip: Ipv4Address
    protocol: AppProtocol

    def __post_init__(self) -> None:
        if len(self.samples) != RQ1_SAMPLES:
            raise ValueError(f"plan must hold exactly {RQ1_SAMPLES} samples")


@dataclass(frozen=True)
class Rq2Plan:
    grid: Tuple[SourceParams, ...]
    destinations: Tuple[Ipv4Address, ...]
    domain_pair: Tuple[str, str]

    def __post_init__(self) -> None:
        if len(self.grid) != RQ2_IP_COUNT * RQ2_PORT_COUNT:
            raise ValueError(f"grid must hold {RQ2_IP_COUNT * RQ2_PORT_COUNT} cells")


def _rng(seed: int, *scope) -> random.Random:
    key = "|".join(str(s) for s in scope).encode()
    digest = hashlib.blake2b(seed.to_bytes(8, "big") + b"|" + key, digest_size=8).digest()
    return random.Random(int.from_bytes(digest, "big"))


def _ip(host_octet: int) -> Ipv4Address:
    return Ipv4Address(SOURCE_BASE + host_octet)


def plan_rq1(
    destination: Ipv4Address,
    protocol: AppProtocol,
    seed: int,
) -> List[Rq1Plan]:
    """The four parameter-variation plans, each with 144 samples.

    Varied draws are sampled without replacement, so the vary-ip and
    vary-port plans hold 144 distinct values; the vary-both plan is the
    cross product of 12 distinct IPs and 12 distinct ports.
    """
    hosts = range(1, 255)
    ports = range(EPHEMERAL_PORT_RANGE[0], EPHEMERAL_PORT_RANGE[1] + 1)
    plans = []
    for variation in Rq1Variation:
        rng = _rng(seed, str(destination), variation.value)
        if variation is Rq1Variation.ALL_CONSTANT:
            params = SourceParams(_ip(rng.choice(hosts)), rng.choice(ports))
            samples = (params,) * RQ1_SAMPLES
        elif variation is Rq1Variation.VARY_PORT:
            ip = _ip(rng.choice(hosts))
            samples = tuple(SourceParams(ip, p) for p in rng.sample(ports, RQ1_SAMPLES))
        elif variation is Rq1Variation.VARY_IP:
            port = rng.choice(ports)
            samples = tuple(
                SourceParams(_ip(h), port) for h in rng.sample(hosts, RQ1_SAMPLES)
            )
        else:
            ips = [_ip(h) for h in rng.sample(hosts, RQ1_BOTH_SIDE)]
            both_ports = rng.sample(ports, RQ1_BOTH_SIDE)
            samples = tuple(SourceParams(i, p) for i in ips for p in both_ports)
        plans.append(Rq1Plan(variation, samples, destination, protocol))
    return plans


def rq2_grid(seed: int) -> Tuple[SourceParams, ...]:
    """208 source IPs x 8 ephemeral ports, the grid of every rq2
    destination.

    The 208 IPs are drawn uniformly over their lowest 3 bits: exactly 26
    host octets per class, never .0 or .255.
    """
    rng = _rng(seed, "rq2-grid")
    octets: List[int] = []
    per_class = RQ2_IP_COUNT // 8
    for cls in range(8):
        candidates = [h for h in range(1, 255) if h & 0b111 == cls]
        octets.extend(rng.sample(candidates, per_class))
    ports = rng.sample(
        range(EPHEMERAL_PORT_RANGE[0], EPHEMERAL_PORT_RANGE[1] + 1), RQ2_PORT_COUNT
    )
    return tuple(SourceParams(ip, p) for ip in map(_ip, octets) for p in ports)


def plan_rq2(
    destinations: Sequence[Ipv4Address],
    seed: int,
    domain_pair: Tuple[str, str] = ("control.example", "blocked.example"),
) -> Rq2Plan:
    """The seed's grid (rq2_grid) against each destination."""
    if not destinations:
        raise EmptyCandidatesError("need at least one destination")
    return Rq2Plan(rq2_grid(seed), tuple(destinations), domain_pair)
