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
import json
import random
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

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
PER_AS_CAP = 60


class EmptyCandidatesError(ValueError):
    """Destination sampling got an empty candidate list."""


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


class SampleMode(Enum):
    ONE_PER_AS = "one_per_as"
    CAP_PER_AS = "cap_per_as"


def sample_destinations(
    candidates: Sequence[Tuple[Ipv4Address, int]],
    mode: SampleMode,
    seed: int,
    cap: int = PER_AS_CAP,
) -> List[Ipv4Address]:
    """Deterministic per-AS destination sample.

    candidates are (address, as_number) pairs; one_per_as keeps a single
    draw per AS, cap_per_as keeps up to `cap`.
    """
    if not candidates:
        raise EmptyCandidatesError("no destination candidates")
    by_as: Dict[int, List[Ipv4Address]] = {}
    for addr, asn in candidates:
        by_as.setdefault(asn, []).append(addr)
    out: List[Ipv4Address] = []
    for asn in sorted(by_as):
        pool = sorted(by_as[asn])
        take = 1 if mode is SampleMode.ONE_PER_AS else min(cap, len(pool))
        out.extend(_rng(seed, "dest-sample", asn).sample(pool, take))
    return out


def run_rq1(
    plans: Sequence[Rq1Plan],
    transport,
    max_ttl: int = DEFAULT_MAX_TTL,
    log_path: Optional[Union[str, Path]] = None,
    run_id: str = "rq1",
) -> Dict[Rq1Variation, PathSet]:
    """Trace every sample of every plan and merge paths per variation.

    With a log path, finished samples are skipped on rerun and their
    traces rebuilt from the log, so interrupted runs resume cleanly.
    """
    done: Dict[Tuple[str, int], TracePath] = {}
    if log_path is not None and Path(log_path).exists():
        records = logio.read_log(log_path)
        by_sample: Dict[Tuple[str, int], List[dict]] = {}
        for r in records:
            if r["record_kind"] == logio.KIND_TRACE_HOP and "variation" in r:
                by_sample.setdefault((r["variation"], r["sample_index"]), []).append(r)
        for key, rows in by_sample.items():
            if len(rows) == rows[0]["ladder_len"]:  # skip half-written traces
                done[key] = logio.traces_from_records(rows)[0]

    out: Dict[Rq1Variation, PathSet] = {}
    for plan in plans:
        traces: List[TracePath] = []
        for idx, params in enumerate(plan.samples):
            key = (plan.variation.value, idx)
            if key in done:
                traces.append(done[key])
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
            if log_path is not None:
                logio.append_records(
                    log_path,
                    logio.trace_records(
                        run_id,
                        t,
                        variation=plan.variation.value,
                        sample_index=idx,
                        trace_id=f"{plan.variation.value}:{idx}",
                    ),
                )
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


def _cell_records(run_id, dst, protocol, params, obs_c, obs_s, verdict, domain_pair):
    records = []
    for domain, sensitivity, obs in (
        (domain_pair[0], "control", obs_c),
        (domain_pair[1], "sensitive", obs_s),
    ):
        for rep, o in enumerate(obs):
            records.append(
                logio.make_record(
                    logio.KIND_OBSERVATION,
                    run_id,
                    dst=str(dst),
                    src_ip=str(params.src_ip),
                    src_port=params.src_port,
                    protocol=protocol.value,
                    domain=domain,
                    sensitivity=sensitivity,
                    repetition=rep,
                    epoch=o.epoch,
                    outcome=o.kind.value,
                    tag=o.tag,
                )
            )
    records.append(logio.verdict_record(run_id, str(dst), params, protocol.value, verdict))
    return records


def run_rq2(
    plan: Rq2Plan,
    transport,
    protocols: Sequence[AppProtocol] = (AppProtocol.DNS, AppProtocol.HTTP, AppProtocol.HTTPS),
    registry: BlockpageRegistry = EMPTY_REGISTRY,
    repetitions: int = DEFAULT_REPETITIONS,
    log_path: Optional[Union[str, Path]] = None,
    run_id: str = "rq2",
) -> Dict[Tuple[Ipv4Address, AppProtocol], Dict[SourceParams, Verdict]]:
    """Verdict matrix per (destination, protocol).

    Cells run one at a time in grid order, each in its own session.
    Cells already carrying a verdict in the log are not re-run; their
    verdicts are loaded back instead, so an interrupted sweep resumes
    where it stopped. Each cell's observation records and its verdict
    are appended together.
    """
    done: Dict[Tuple[str, str, int, str], Verdict] = {}
    if log_path is not None and Path(log_path).exists():
        for r in logio.read_log(log_path):
            if r["record_kind"] == logio.KIND_VERDICT:
                done[(r["dst"], r["src_ip"], r["src_port"], r["protocol"])] = (
                    logio.parse_verdict(r)
                )

    out: Dict[Tuple[Ipv4Address, AppProtocol], Dict[SourceParams, Verdict]] = {}
    for dst in plan.destinations:
        for protocol in protocols:
            matrix: Dict[SourceParams, Verdict] = {}
            for params in plan.grid:
                key = (str(dst), str(params.src_ip), params.src_port, protocol.value)
                if key in done:
                    matrix[params] = done[key]
                    continue
                obs_c, obs_s, verdict = measure_cell(
                    dst, protocol, params, plan.domain_pair, transport,
                    registry, repetitions,
                )
                matrix[params] = verdict
                if log_path is not None:
                    logio.append_records(
                        log_path,
                        _cell_records(
                            run_id, dst, protocol, params, obs_c, obs_s,
                            verdict, plan.domain_pair,
                        ),
                    )
            out[(dst, protocol)] = matrix
    return out


# ---------------------------------------------------------------------------
# plan files


def rq1_plans_to_json(plans: Sequence[Rq1Plan]) -> str:
    return json.dumps(
        [
            {
                "variation": p.variation.value,
                "dst": str(p.dst_ip),
                "protocol": p.protocol.value,
                "domain": p.domain,
                "samples": [[str(s.src_ip), s.src_port] for s in p.samples],
            }
            for p in plans
        ],
        indent=1,
    )


def rq1_plans_from_json(text: str) -> List[Rq1Plan]:
    out = []
    for obj in json.loads(text):
        samples = tuple(
            SourceParams(Ipv4Address.parse(ip), port) for ip, port in obj["samples"]
        )
        out.append(
            Rq1Plan(
                Rq1Variation(obj["variation"]),
                samples,
                Ipv4Address.parse(obj["dst"]),
                AppProtocol(obj["protocol"]),
                obj["domain"],
            )
        )
    return out


def rq2_plan_to_json(plan: Rq2Plan) -> str:
    return json.dumps(
        {
            "grid": [[str(s.src_ip), s.src_port] for s in plan.grid],
            "destinations": [str(d) for d in plan.destinations],
            "domain_pair": list(plan.domain_pair),
        },
        indent=1,
    )


def rq2_plan_from_json(text: str) -> Rq2Plan:
    obj = json.loads(text)
    return Rq2Plan(
        tuple(SourceParams(Ipv4Address.parse(ip), port) for ip, port in obj["grid"]),
        tuple(Ipv4Address.parse(d) for d in obj["destinations"]),
        (obj["domain_pair"][0], obj["domain_pair"][1]),
    )
