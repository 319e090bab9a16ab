"""Runners of the two sweep designs, whose plans the plans module draws,
the tracer of flows (rq2's trace pass and trace --out), and the one
step (take_trace) of every logged trace.

rq1 traces each sample of its four variation plans, carrying the benign
domain BENIGN_DOMAIN; rq2 runs a control/sensitive verdict cell per
source of its grid and destination, and may trace the decided ones.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .core import AppProtocol, Ipv4Address, Sensitivity, SourceParams, Verdict
from . import analysis, logio
from .plans import (  # the command line and the benchmark read these here
    EmptyCandidatesError,
    RQ1_SAMPLES,
    RQ2_IP_COUNT,
    RQ2_PORT_COUNT,
    Rq1Plan,
    Rq1Variation,
    Rq2Plan,
    plan_rq1,
    plan_rq2,
    rq2_grid,
)
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

#: The domain rq1 traces carry, and trace's default.
BENIGN_DOMAIN = "example.com"


class Rq2Summary(NamedTuple):
    """What rq2's reports read of one verdict matrix: whether it is
    affected (prober.is_affected) and, only then, its no-censorship
    fraction and its decided sources in grid order; else None and ()."""

    affected: bool
    no_censorship_fraction: Optional[Fraction]
    decided: Tuple[SourceParams, ...]


def _seed(log: logio.RunLog) -> int:
    """The seed of log's meta record, which its reader draws the run's
    planned sources again from."""
    seed = (log.meta or {}).get("seed")
    if type(seed) is not int:
        raise ValueError(f"run {log.run_id!r} of {log.path} has no seed in its meta record, "
                         f"so its planned sources could not be read back")
    return seed


def take_trace(lines: logio.SharedLines, key, make_path: Callable[[], TracePath],
               sample_index: Optional[int] = None,
               grid_index: Optional[int] = None) -> TracePath:
    """The trace the log of lines holds under key for its run (see
    logio.RunLog.traces); else make_path(), a trace, with its line
    queued (lines.trace, with sample_index or grid_index). A resumed run
    thus traces only what it lacks."""
    held = lines.log.traces.get(key)
    if held is not None:
        return held
    path = make_path()
    lines.trace(path, sample_index, grid_index)
    return path


def trace_flows(log: logio.RunLog, dst_ip: Ipv4Address, protocol: AppProtocol, domain: str,
                sensitivity: Sensitivity, sources: Sequence[SourceParams], max_ttl: int,
                transport, grid_index: Optional[Mapping[SourceParams, int]] = None,
                ) -> List[TracePath]:
    """The trace of each source's flow to dst_ip, carrying domain at
    sensitivity, in sources' order: taken or logged under its flow
    (dst_ip, protocol, source), each line written by the end. trace
    --out traces one source, whose line keeps it; rq2's trace pass, each
    affected matrix's decided ones, whose lines keep their grid
    positions, by grid_index."""
    lines = logio.SharedLines(log, dst_ip, protocol)
    paths = [take_trace(lines, (dst_ip, protocol, source), lambda: trace(
        protocol, dst_ip, domain, sensitivity, source, max_ttl, transport),
        None, None if grid_index is None else grid_index[source])
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
    line that keeps its sample index, in plan order, appended in batches (see logio.SharedLines)
    and all written by the end of its plan. A run cut short therefore
    resumes where it stopped and leaves the same log as an
    uninterrupted one. A plan traces each distinct source once: a trace
    is a pure function of its flow, so a sample whose source an earlier
    sample of the plan traced takes that TracePath, with a line of its
    own. The log's meta record must hold the seed that drew the plans,
    since its reader draws them again from it; else ValueError, before
    anything is traced.
    """
    seed = _seed(log)
    drawn: Dict[Ipv4Address, Dict[Rq1Variation, Tuple[SourceParams, ...]]] = {}
    for plan in plans:
        if plan.dst_ip not in drawn:
            drawn[plan.dst_ip] = {p.variation: p.samples
                                  for p in plan_rq1(plan.dst_ip, plan.protocol, seed)}
        if plan.samples != drawn[plan.dst_ip][plan.variation]:
            raise ValueError(f"the {plan.variation.value} plan of {plan.dst_ip} is not the one "
                             f"seed {seed} of run {log.run_id!r} draws")
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
            traces.append(take_trace(lines, (plan.variation.value, idx),
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
    The log holds a matrix's first cells in grid order, whole cell
    records of them, so a matrix runs on from the first grid position
    it lacks. Each new cell's body id joins a cell record, appended in
    batches (see logio.SharedLines) and all written by the end of its
    matrix. A sweep cut short therefore resumes where it stopped and
    leaves the same log as an uninterrupted one. The log's meta record
    must hold the seed that drew plan's grid, since its reader draws the
    grid again from it and reads the n-th cell as the grid's n-th
    position: plan's grid must be that grid, or its first positions;
    else ValueError, before any cell runs.
    """
    seed = _seed(log)
    if plan.grid != rq2_grid(seed)[:len(plan.grid)]:
        raise ValueError(f"the plan's grid is not the one seed {seed} of run {log.run_id!r} "
                         f"draws")
    out: Dict[Tuple[Ipv4Address, AppProtocol], Rq2Summary] = {}
    for dst in plan.destinations:
        for protocol in protocols:
            matrix = log.verdicts.pop((dst, protocol), {})
            lines = logio.SharedLines(log, dst, protocol, first=len(matrix))
            cell = Cell(protocol, dst, plan.domain_pair, repetitions, registry)
            for params in plan.grid[len(matrix):]:
                try:
                    result = run_cell(cell, params, transport)
                except TransportUnavailableError:
                    result = CellResult((), (), Verdict.excluded())
                matrix[params] = result.verdict
                lines.verdict(result)
            lines.flush()
            summary = Rq2Summary(False, None, ())
            if is_affected(matrix):
                summary = Rq2Summary(True, analysis.no_censorship_fraction(matrix), tuple(
                    params for params in plan.grid if not matrix[params].is_excluded))
            out[(dst, protocol)] = summary
    return out

