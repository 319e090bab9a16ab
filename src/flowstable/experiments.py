"""Planners and drivers for the two sweep designs.

The first design (rq1) measures path diversity: four source-parameter
variations of 144 traced measurements each against one destination with
a benign domain. The second (rq2) measures censorship impact: a 208
source IP x 8 source port grid of control/sensitive verdict cells per
destination. All draws come from generators keyed by (seed,
destination, variation), so identical seeds give identical plans.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

from .core import (
    AppProtocol,
    EPHEMERAL_PORT_RANGE,
    Ipv4Address,
    Sensitivity,
    SourceParams,
    Verdict,
)
from . import logio
from .prober import (
    DEFAULT_REPETITIONS,
    BlockpageRegistry,
    EMPTY_REGISTRY,
    Observation,
    ProbeSpec,
    TransportUnavailableError,
    classify,
    run_cell,
)
from .tracer import DEFAULT_MAX_TTL, TracePath, merge_paths, trace
from .analysis import PathSet

DEFAULT_SOURCE_PREFIX = "198.51.100.0/24"
DEFAULT_BENIGN_DOMAIN = "example.com"

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
    domain: str

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


def _prefix_base(prefix: str) -> int:
    if not prefix.endswith("/24"):
        raise ValueError(f"source prefix must be a /24: {prefix!r}")
    base = Ipv4Address.parse(prefix[:-3])
    if base.value & 0xFF:
        raise ValueError(f"source prefix base must end in .0: {prefix!r}")
    return base.value


def _ip(base: int, host_octet: int) -> Ipv4Address:
    return Ipv4Address(base + host_octet)


def plan_rq1(
    destination: Ipv4Address,
    protocol: AppProtocol,
    seed: int,
    source_prefix: str = DEFAULT_SOURCE_PREFIX,
    domain: str = DEFAULT_BENIGN_DOMAIN,
) -> List[Rq1Plan]:
    """The four parameter-variation plans, each with 144 samples.

    Varied draws are sampled without replacement, so the vary-ip and
    vary-port plans hold 144 distinct values; the vary-both plan is the
    cross product of 12 distinct IPs and 12 distinct ports.
    """
    base = _prefix_base(source_prefix)
    hosts = range(1, 255)
    ports = range(EPHEMERAL_PORT_RANGE[0], EPHEMERAL_PORT_RANGE[1] + 1)
    plans = []
    for variation in Rq1Variation:
        rng = _rng(seed, str(destination), variation.value)
        if variation is Rq1Variation.ALL_CONSTANT:
            params = SourceParams(_ip(base, rng.choice(hosts)), rng.choice(ports))
            samples = (params,) * RQ1_SAMPLES
        elif variation is Rq1Variation.VARY_PORT:
            ip = _ip(base, rng.choice(hosts))
            samples = tuple(SourceParams(ip, p) for p in rng.sample(ports, RQ1_SAMPLES))
        elif variation is Rq1Variation.VARY_IP:
            port = rng.choice(ports)
            samples = tuple(
                SourceParams(_ip(base, h), port) for h in rng.sample(hosts, RQ1_SAMPLES)
            )
        else:
            ips = [_ip(base, h) for h in rng.sample(hosts, RQ1_BOTH_SIDE)]
            both_ports = rng.sample(ports, RQ1_BOTH_SIDE)
            samples = tuple(SourceParams(i, p) for i in ips for p in both_ports)
        plans.append(Rq1Plan(variation, samples, destination, protocol, domain))
    return plans


def plan_rq2(
    destinations: Sequence[Ipv4Address],
    seed: int,
    source_prefix: str = DEFAULT_SOURCE_PREFIX,
    domain_pair: Tuple[str, str] = ("control.example", "blocked.example"),
) -> Rq2Plan:
    """208 source IPs x 8 ephemeral ports against each destination.

    The 208 IPs are drawn uniformly over their lowest 3 bits: exactly 26
    host octets per class, never .0 or .255.
    """
    if not destinations:
        raise EmptyCandidatesError("need at least one destination")
    base = _prefix_base(source_prefix)
    rng = _rng(seed, "rq2-grid")
    octets: List[int] = []
    per_class = RQ2_IP_COUNT // 8
    for cls in range(8):
        candidates = [h for h in range(1, 255) if h & 0b111 == cls]
        octets.extend(rng.sample(candidates, per_class))
    ports = rng.sample(
        range(EPHEMERAL_PORT_RANGE[0], EPHEMERAL_PORT_RANGE[1] + 1), RQ2_PORT_COUNT
    )
    grid = tuple(SourceParams(_ip(base, h), p) for h in octets for p in ports)
    return Rq2Plan(grid, tuple(destinations), domain_pair)


def run_rq1(
    plans: Sequence[Rq1Plan],
    transport,
    max_ttl: int = DEFAULT_MAX_TTL,
    log: Optional[logio.RunLog] = None,
) -> Dict[Rq1Variation, PathSet]:
    """Trace every sample of every plan and merge paths per variation.

    With a log (from logio.open_run), samples whose trace it already
    holds are not traced again, and each new trace is appended to it as
    one record, in plan order. A run cut short therefore resumes where
    it stopped and leaves the same log as an uninterrupted one.
    """
    out: Dict[Rq1Variation, PathSet] = {}
    for plan in plans:
        traces: List[TracePath] = []
        for idx, params in enumerate(plan.samples):
            trace_id = f"{plan.variation.value}:{idx}"
            if log is not None and trace_id in log.traces:
                traces.append(log.traces[trace_id])
                continue
            spec = ProbeSpec.for_protocol(
                plan.protocol,
                plan.dst_ip,
                plan.domain,
                Sensitivity.CONTROL,
                params,
                repetitions=1,
            )
            t = trace(spec, max_ttl, transport)
            traces.append(t)
            if log is not None:
                record = logio.trace_record(
                    log.run_id, t, trace_id,
                    variation=plan.variation.value, sample_index=idx,
                )
                logio.append_records(log.path, [record])
        out[plan.variation] = merge_paths(traces)
    return out


def measure_cell(
    dst: Ipv4Address,
    protocol: AppProtocol,
    params: SourceParams,
    domain_pair: Tuple[str, str],
    transport,
    registry: BlockpageRegistry,
    repetitions: int,
) -> Tuple[List[Observation], List[Observation], Verdict]:
    """Probe one (destination, protocol, source params) cell and classify it.

    Returns the control observations, the sensitive observations and
    the verdict. A transport that cannot carry probes makes the cell
    Excluded with no observations, so one bad cell never aborts a sweep.
    """
    control_domain, sensitive_domain = domain_pair
    spec_c = ProbeSpec.for_protocol(
        protocol, dst, control_domain, Sensitivity.CONTROL, params, repetitions=repetitions
    )
    spec_s = ProbeSpec.for_protocol(
        protocol, dst, sensitive_domain, Sensitivity.SENSITIVE, params,
        repetitions=repetitions,
    )
    try:
        obs_c, obs_s = run_cell(spec_c, spec_s, transport)
    except TransportUnavailableError:
        return [], [], Verdict.excluded()
    return obs_c, obs_s, classify(obs_c, obs_s, protocol, registry)


def run_rq2(
    plan: Rq2Plan,
    transport,
    protocols: Sequence[AppProtocol] = (AppProtocol.DNS, AppProtocol.HTTP, AppProtocol.HTTPS),
    registry: BlockpageRegistry = EMPTY_REGISTRY,
    repetitions: int = DEFAULT_REPETITIONS,
    log: Optional[logio.RunLog] = None,
) -> Dict[Tuple[Ipv4Address, AppProtocol], Dict[SourceParams, Verdict]]:
    """Verdict matrix per (destination, protocol).

    Cells run one at a time in grid order, each in its own session.
    With a log (from logio.open_run), cells it already holds a verdict
    for are not run again and their verdicts are taken from it; each
    new cell is appended to it as one record, in plan order. A sweep cut
    short therefore resumes where it stopped and leaves the same log as
    an uninterrupted one.
    """
    out: Dict[Tuple[Ipv4Address, AppProtocol], Dict[SourceParams, Verdict]] = {}
    for dst in plan.destinations:
        for protocol in protocols:
            done = log.verdicts.get((dst, protocol), {}) if log is not None else {}
            matrix: Dict[SourceParams, Verdict] = {}
            for params in plan.grid:
                if params in done:
                    matrix[params] = done[params]
                    continue
                obs_c, obs_s, verdict = measure_cell(
                    dst, protocol, params, plan.domain_pair, transport,
                    registry, repetitions,
                )
                matrix[params] = verdict
                if log is not None:
                    record = logio.verdict_record(
                        log.run_id, dst, protocol, params, obs_c, obs_s, verdict
                    )
                    logio.append_records(log.path, [record])
            out[(dst, protocol)] = matrix
    return out
