"""Planners and drivers for the two sweep designs, the tracer of flows
by flow id (rq2's trace pass and trace --out), and the trace ids and
one step (take_trace) of every logged trace.

The first design (rq1) measures path diversity: four source-parameter
variations of 144 traced measurements each against one destination with
the benign domain BENIGN_DOMAIN. The second (rq2) measures censorship
impact: a 208 source IP x 8 source port grid of control/sensitive
verdict cells per destination. Every source address lies in the one
/24 at SOURCE_BASE. All draws come from generators keyed by (seed,
destination, variation), so identical seeds give identical plans.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .core import (
    AppProtocol,
    EPHEMERAL_PORT_RANGE,
    Ipv4Address,
    Sensitivity,
    SourceParams,
    Verdict,
)
from . import analysis, logio
from .prober import (
    DEFAULT_REPETITIONS,
    BlockpageRegistry,
    Cell,
    CellResult,
    EMPTY_REGISTRY,
    TransportUnavailableError,
    classify,  # unused here; perfbench's span tests patch it through this module
    is_affected,
    run_cell,
)
from .tracer import DEFAULT_MAX_TTL, TracePath, merge_paths, trace
from .analysis import PathSet

#: First address of the /24 (TEST-NET-2) that every probe's source lies in.
SOURCE_BASE = Ipv4Address.parse("198.51.100.0").value
#: The domain rq1 traces carry, and trace's default.
BENIGN_DOMAIN = "example.com"

RQ1_SAMPLES = 144
RQ1_BOTH_SIDE = 12  # 12 ips x 12 ports = 144 pairs
RQ2_IP_COUNT = 208  # 26 per low-3-bit class
RQ2_PORT_COUNT = 8


class EmptyCandidatesError(ValueError):
    """A sweep was given no destination."""


class Rq2Summary(NamedTuple):
    """What rq2's reports read of one verdict matrix: whether it is
    affected (prober.is_affected) and, only then, its no-censorship
    fraction and its decided sources in grid order; else None and ()."""

    affected: bool
    no_censorship_fraction: Optional[Fraction]
    decided: Tuple[SourceParams, ...]


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


def plan_rq2(
    destinations: Sequence[Ipv4Address],
    seed: int,
    domain_pair: Tuple[str, str] = ("control.example", "blocked.example"),
) -> Rq2Plan:
    """208 source IPs x 8 ephemeral ports against each destination.

    The 208 IPs are drawn uniformly over their lowest 3 bits: exactly 26
    host octets per class, never .0 or .255.
    """
    if not destinations:
        raise EmptyCandidatesError("need at least one destination")
    rng = _rng(seed, "rq2-grid")
    octets: List[int] = []
    per_class = RQ2_IP_COUNT // 8
    for cls in range(8):
        candidates = [h for h in range(1, 255) if h & 0b111 == cls]
        octets.extend(rng.sample(candidates, per_class))
    ports = rng.sample(
        range(EPHEMERAL_PORT_RANGE[0], EPHEMERAL_PORT_RANGE[1] + 1), RQ2_PORT_COUNT
    )
    grid = tuple(SourceParams(ip, p) for ip in map(_ip, octets) for p in ports)
    return Rq2Plan(grid, tuple(destinations), domain_pair)


def flow_trace_id(dst_ip: Ipv4Address, protocol: AppProtocol, source) -> str:
    """The trace id of rq2's trace pass and trace --out; with source ""
    the start of every id of dst_ip and protocol."""
    return f"{dst_ip}|{protocol.value}|{source}"


def take_trace(lines: logio.SharedLines, trace_id: str, make_path: Callable[[], TracePath],
               sample_index: Optional[int] = None) -> TracePath:
    """The trace the log of lines holds under trace_id for its run; else
    make_path(), a trace, with its line queued (lines.trace, with
    sample_index). A resumed run thus traces only what it lacks."""
    held = lines.log.traces.get(trace_id)
    if held is not None:
        return held
    path = make_path()
    lines.trace(path, trace_id, sample_index)
    return path


def trace_flows(log: logio.RunLog, dst_ip: Ipv4Address, protocol: AppProtocol, domain: str,
                sensitivity: Sensitivity, sources: Sequence[SourceParams], max_ttl: int,
                transport) -> List[TracePath]:
    """The trace of each source's flow to dst_ip, carrying domain at
    sensitivity, in sources' order: taken or logged under its flow id
    (flow_trace_id), each line written by the end. trace --out traces
    one source; rq2's trace pass, each affected matrix's decided ones."""
    lines = logio.SharedLines(log, dst_ip, protocol)
    prefix = flow_trace_id(dst_ip, protocol, "")
    paths = [take_trace(lines, prefix + str(source), lambda: trace(
        protocol, dst_ip, domain, sensitivity, source, max_ttl, transport))
        for source in sources]
    lines.flush()
    return paths


def run_rq1(
    plans: Sequence[Rq1Plan],
    transport,
    log: logio.RunLog,
    max_ttl: int = DEFAULT_MAX_TTL,
) -> Dict[Rq1Variation, PathSet]:
    """Trace every sample of every plan and merge paths per variation.

    Samples whose trace log (from logio.open_run) already holds under
    this run's id are not traced again, and each new trace becomes one
    record, in plan order, appended in batches (see logio.SharedLines)
    and all written by the end of its plan. A run cut short therefore
    resumes where it stopped and leaves the same log as an
    uninterrupted one. A plan traces each distinct source once: a trace
    is a pure function of its flow, so a sample whose source an earlier
    sample of the plan traced takes that TracePath, with a line of its
    own.
    """
    out: Dict[Rq1Variation, PathSet] = {}
    for plan in plans:
        lines = logio.SharedLines(log, plan.dst_ip, plan.protocol,
                                  variation=plan.variation.value)
        traced: Dict[SourceParams, TracePath] = {}

        def make_path(params: SourceParams) -> TracePath:
            path = traced.get(params)
            if path is None:
                path = traced[params] = trace(plan.protocol, plan.dst_ip, BENIGN_DOMAIN,
                                              Sensitivity.CONTROL, params, max_ttl, transport)
            return path

        traces: List[TracePath] = []
        for idx, params in enumerate(plan.samples):
            traces.append(take_trace(lines, f"{plan.variation.value}:{idx}",
                                     lambda: make_path(params), sample_index=idx))
        lines.flush()
        out[plan.variation] = merge_paths(traces)
    return out


def run_rq2(
    plan: Rq2Plan,
    transport,
    log: logio.RunLog,
    protocols: Sequence[AppProtocol] = (AppProtocol.DNS, AppProtocol.HTTP, AppProtocol.HTTPS),
    registry: BlockpageRegistry = EMPTY_REGISTRY,
    repetitions: int = DEFAULT_REPETITIONS,
) -> Dict[Tuple[Ipv4Address, AppProtocol], Rq2Summary]:
    """The summary of the verdict matrix per (destination, protocol).

    Cells run one at a time in grid order, each in its own session or
    taking the result of an earlier cell on its route (see run_cell).
    What a cell fixes but its source is built once per (destination,
    protocol), and so are its log lines (logio.SharedLines), whose
    fixed part is encoded once per distinct result. A transport that
    cannot carry probes makes a cell Excluded with no observations, so
    one bad cell never aborts a sweep.

    Cells whose verdict log (from logio.open_run) holds under this
    run's id are not run again: each matrix is taken out of the log's
    (RunLog.verdicts) for its own turn, so a sweep holds one at a time.
    Each new cell becomes one line, in plan order, appended in batches
    (see logio.SharedLines) and all written by the end of its matrix. A
    sweep cut short therefore resumes where it stopped and leaves the
    same log as an uninterrupted one.
    """
    out: Dict[Tuple[Ipv4Address, AppProtocol], Rq2Summary] = {}
    for dst in plan.destinations:
        for protocol in protocols:
            matrix = log.verdicts.pop((dst, protocol), {})
            lines = logio.SharedLines(log, dst, protocol)
            cell = Cell(protocol, dst, plan.domain_pair, repetitions, registry)
            for params in plan.grid:
                if params in matrix:
                    continue
                try:
                    result = run_cell(cell, params, transport)
                except TransportUnavailableError:
                    result = CellResult((), (), Verdict.excluded())
                matrix[params] = result.verdict
                lines.verdict(result, params)
            lines.flush()
            summary = Rq2Summary(False, None, ())
            if is_affected(matrix):
                summary = Rq2Summary(True, analysis.no_censorship_fraction(matrix), tuple(
                    params for params in plan.grid if not matrix[params].is_excluded))
            out[(dst, protocol)] = summary
    return out

