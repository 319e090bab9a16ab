"""Span recording around flowstable's public functions, and self time.

The recorder wraps functions from outside the program: each wrapper
stores a span (name, start, end, parent) in flat arrays, so a traced
run holds hundreds of thousands of spans in a few megabytes. Cheap
functions that only need counting get a counting wrapper instead.
Spans stay in memory until dump() writes them out.

A span's self time is its duration minus the part of that interval its
child spans cover.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple


class SpanRecorder:
    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self._restore: List[Tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def spanned(self, name: str, fn: Callable, observe: Callable = None) -> Callable:
        """fn wrapped so each call records one span; observe(result)
        updates counters after the span closes."""
        nid = self.name_id(name)
        names, starts, ends, parents, stack = (
            self.name, self.start, self.end, self.parent, self._stack)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return_value = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(return_value)
            return return_value

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, key: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, owner, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace owner.attr, and every module-level binding of the same
        function inside the flowstable package (callers that imported it
        by name), with make(original)."""
        original = getattr(owner, attr)
        wrapper = make(original)
        sites = [(owner, attr)]
        if isinstance(owner, type(sys)):
            for mod_name, mod in list(sys.modules.items()):
                if not mod_name.startswith("flowstable") or mod is owner:
                    continue
                for name, value in list(vars(mod).items()):
                    if value is original:
                        sites.append((mod, name))
        for site, name in sites:
            self._restore.append((site, name, getattr(site, name)))
            setattr(site, name, wrapper)

    def unpatch(self) -> None:
        while self._restore:
            site, name, value = self._restore.pop()
            setattr(site, name, value)

    def dump(self, directory: Path) -> None:
        """Write spans as raw arrays plus a JSON index of names and counters."""
        for col in ("name", "start", "end", "parent"):
            with open(directory / f"spans.{col}", "wb") as fh:
                getattr(self, col).tofile(fh)
        (directory / "spans.json").write_text(json.dumps(
            {"names": self.names, "count": len(self.start), "counters": dict(self.counts)}))


def load_spans(directory: Path):
    """Inverse of SpanRecorder.dump: (names, name, start, end, parent, counters)."""
    index = json.loads((directory / "spans.json").read_text())
    cols = {}
    for col, code in (("name", "H"), ("start", "d"), ("end", "d"), ("parent", "i")):
        cols[col] = array(code)
        with open(directory / f"spans.{col}", "rb") as fh:
            cols[col].fromfile(fh, index["count"])
    return (index["names"], cols["name"], cols["start"], cols["end"], cols["parent"],
            Counter(index["counters"]))


def self_times(start: Sequence[float], end: Sequence[float], parent: Sequence[int]) -> List[float]:
    """Per span: duration minus the union of its children's intervals,
    clipped to the span itself."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for i, p in enumerate(parent):
        if p >= 0:
            children.setdefault(p, []).append((start[i], end[i]))
    out = []
    for i in range(len(start)):
        lo, hi = start[i], end[i]
        covered = 0.0
        cursor = lo
        for s, e in sorted(children.get(i, ())):
            s, e = max(s, cursor), min(e, hi)
            if e > s:
                covered += e - s
                cursor = e
        out.append((hi - lo) - covered)
    return out


def install_layers(rec: SpanRecorder) -> None:
    """Wrap the public functions of every flowstable layer the benchmark
    reports on. Call after the package is imported."""
    from flowstable import analysis, censors, core, experiments, logio, prober, simnet, tracer

    counts = rec.counts

    def add(key, amount):
        counts[key] += amount

    def span(owner, attr, name, observe=None):
        rec.patch(owner, attr, lambda fn: rec.spanned(name, fn, observe))

    span(simnet, "forward", "simnet.forward",
         lambda r: add("simnet.forward.hops", len(r.hops)))
    span(simnet, "fnv1a_64", "simnet.fnv1a_64")
    span(simnet, "load_topology", "simnet.load_topology")
    rec.patch(simnet.LossStream, "__init__", lambda fn: rec.counted("simnet.LossStream", fn))
    rec.patch(simnet.LossStream, "uniform",
              lambda fn: rec.counted("simnet.LossStream.uniform", fn))
    rec.patch(core.FlowId, "to_bytes", lambda fn: rec.counted("core.FlowId.to_bytes", fn))
    span(censors, "apply", "censors.apply",
         lambda r: add("censors.apply.events", r is not None))
    span(prober.Session, "send", "prober.Session.send")
    span(prober, "run_cell", "prober.run_cell")
    span(prober, "classify", "prober.classify",
         lambda r: add("prober.classify.decided", not r.is_excluded))
    span(tracer, "trace", "tracer.trace",
         lambda r: add("tracer.trace.reached", r.terminal.kind.value == "reached"))
    span(tracer, "merge_paths", "tracer.merge_paths")
    for fn in ("plan_rq1", "plan_rq2", "run_rq1", "run_rq2"):
        span(experiments, fn, f"experiments.{fn}")

    def sized(append):
        def append_and_measure(path, records):
            before = os.path.getsize(path) if os.path.exists(path) else 0
            append(path, records)
            add("logio.append_records.bytes", os.path.getsize(path) - before)
        return rec.spanned("logio.append_records", append_and_measure)

    rec.patch(logio, "append_records", sized)
    span(logio, "read_log", "logio.read_log",
         lambda r: add("logio.read_log.records", len(r)))
    span(logio, "traces_from_records", "logio.traces_from_records")
    rec.patch(logio, "parse_verdict", lambda fn: rec.counted("logio.parse_verdict", fn))
    for fn in ("bit_group_summary", "build_dual_graph", "classify_effect",
               "no_censorship_fraction", "num_paths"):
        span(analysis, fn, f"analysis.{fn}")


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


CLI_SUBCOMMANDS = ("rq1", "rq2", "bits", "graph", "classify")


def layer_metrics(directory: Path):
    """Per-layer metrics of one traced pass, name -> (value, unit), and
    the span names ordered by total self time."""
    names, name, start, end, parent, counts = load_spans(directory)
    own = self_times(start, end, parent)
    self_s: Counter = Counter()
    calls: Counter = Counter()
    durations: Dict[str, List[float]] = {"prober.run_cell": [], "tracer.trace": []}
    for i, nid in enumerate(name):
        label = names[nid]
        self_s[label] += own[i]
        calls[label] += 1
        if label in durations:
            durations[label].append(end[i] - start[i])

    # Sends made inside a cell, or inside a trace: nearest such ancestor.
    owner_ids = {names.index(n) for n in durations if n in names}
    sends = {"prober.run_cell": 0, "tracer.trace": 0}
    if "prober.Session.send" in names:
        send_id = names.index("prober.Session.send")
        for i, nid in enumerate(name):
            if nid != send_id:
                continue
            p = parent[i]
            while p >= 0 and name[p] not in owner_ids:
                p = parent[p]
            if p >= 0:
                sends[names[name[p]]] += 1

    def ratio(a, b):
        return a / b if b else 0.0

    packets = calls["prober.Session.send"]
    cells, traces = calls["prober.run_cell"], calls["tracer.trace"]
    cell_us = sorted(d * 1e6 for d in durations["prober.run_cell"])
    trace_us = sorted(d * 1e6 for d in durations["tracer.trace"])
    m = {
        "simnet.forward.calls": (calls["simnet.forward"], "count"),
        "simnet.forward.self_s": (self_s["simnet.forward"], "s"),
        "simnet.forward.hops_per_call": (
            ratio(counts["simnet.forward.hops"], calls["simnet.forward"]), "hops/call"),
        "simnet.fnv1a_64.calls": (calls["simnet.fnv1a_64"], "count"),
        "simnet.fnv1a_64.self_s": (self_s["simnet.fnv1a_64"], "s"),
        "simnet.LossStream.calls": (counts["simnet.LossStream"], "count"),
        "simnet.LossStream.uniform.calls": (counts["simnet.LossStream.uniform"], "count"),
        "simnet.load_topology.self_s": (self_s["simnet.load_topology"], "s"),
        "core.FlowId.to_bytes.per_packet": (
            ratio(counts["core.FlowId.to_bytes"], packets), "calls/packet"),
        "censors.apply.calls": (calls["censors.apply"], "count"),
        "censors.apply.self_s": (self_s["censors.apply"], "s"),
        "censors.apply.events": (counts["censors.apply.events"], "count"),
        "prober.Session.send.calls": (packets, "count"),
        "prober.Session.send.self_s": (self_s["prober.Session.send"], "s"),
        "prober.run_cell.p50_us": (_percentile(cell_us, 50), "us"),
        "prober.run_cell.p99_us": (_percentile(cell_us, 99), "us"),
        "prober.run_cell.packets_per_cell": (
            ratio(sends["prober.run_cell"], cells), "packets/cell"),
        "prober.classify.calls": (calls["prober.classify"], "count"),
        "prober.classify.self_s": (self_s["prober.classify"], "s"),
        "prober.classify.decided_share": (
            ratio(counts["prober.classify.decided"], calls["prober.classify"]), "ratio"),
        "tracer.trace.calls": (traces, "count"),
        "tracer.trace.self_s": (self_s["tracer.trace"], "s"),
        "tracer.trace.p50_us": (_percentile(trace_us, 50), "us"),
        "tracer.trace.p99_us": (_percentile(trace_us, 99), "us"),
        "tracer.trace.packets_per_trace": (
            ratio(sends["tracer.trace"], traces), "packets/trace"),
        "tracer.trace.reached_share": (ratio(counts["tracer.trace.reached"], traces), "ratio"),
        "tracer.merge_paths.self_s": (self_s["tracer.merge_paths"], "s"),
    }
    for fn in ("plan_rq1", "plan_rq2", "run_rq1", "run_rq2"):
        m[f"experiments.{fn}.self_s"] = (self_s[f"experiments.{fn}"], "s")
    m.update({
        "logio.append_records.calls": (calls["logio.append_records"], "count"),
        "logio.append_records.self_s": (self_s["logio.append_records"], "s"),
        "logio.append_records.bytes": (counts["logio.append_records.bytes"], "B"),
        "logio.read_log.calls": (calls["logio.read_log"], "count"),
        "logio.read_log.self_s": (self_s["logio.read_log"], "s"),
        "logio.read_log.records": (counts["logio.read_log.records"], "count"),
        "logio.traces_from_records.self_s": (self_s["logio.traces_from_records"], "s"),
        "logio.parse_verdict.calls": (counts["logio.parse_verdict"], "count"),
    })
    for fn in ("bit_group_summary", "build_dual_graph", "classify_effect",
               "no_censorship_fraction", "num_paths"):
        m[f"analysis.{fn}.self_s"] = (self_s[f"analysis.{fn}"], "s")
    for sub in CLI_SUBCOMMANDS:
        m[f"cli.cli_main.{sub}.self_s"] = (self_s[f"cli.cli_main.{sub}"], "s")
    return m, self_s.most_common()
