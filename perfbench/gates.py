"""Correctness gates and output digests, run by the parent process on
the files a measurement left behind.

Everything is read back through flowstable's public readers
(logio.read_log, logio.traces_from_records, logio.parse_verdict) and
checked against the simulator's ground truth (simnet.oracle_paths and
the document's censor rules) or against analysis run on what was read.
"""

from __future__ import annotations

import csv
import hashlib
import io
import traceback
from pathlib import Path
from typing import Dict, List, Tuple

from flowstable import analysis, experiments, logio, prober, simnet, tracer
from flowstable.censors import ActionKind, Health, domain_matches
from flowstable.core import AppProtocol, Ipv4Address, Mechanism, SourceParams

MECHANISM = {
    ActionKind.INJECT_RST: Mechanism.RST_INJECTION,
    ActionKind.DROP_SILENTLY: Mechanism.PACKET_DROP,
    ActionKind.INJECT_BLOCKPAGE: Mechanism.BLOCKPAGE,
    ActionKind.INJECT_DNS_ANSWER: Mechanism.DNS_INJECTION,
}


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _csv_rows(path: Path) -> List[List[str]]:
    return list(csv.reader(io.StringIO(path.read_text())))


def _params(record) -> SourceParams:
    return SourceParams(Ipv4Address.parse(record["src_ip"]), record["src_port"])


def _verdict_matrices(records) -> Dict[Tuple[str, str], Dict[SourceParams, object]]:
    out: Dict[Tuple[str, str], Dict[SourceParams, object]] = {}
    for r in records:
        if r["record_kind"] == logio.KIND_VERDICT:
            out.setdefault((r["dst"], r["protocol"]), {})[_params(r)] = logio.parse_verdict(r)
    return out


def _matrices_digest(h, matrices) -> None:
    for (dst, protocol), matrix in sorted(matrices.items()):
        for params, v in sorted(matrix.items()):
            mech = v.mechanism.value if v.mechanism else ""
            h.update(f"{dst},{params},{protocol},{v.kind.value},{mech}\n".encode())


def _files_digest(h, paths) -> None:
    for p in paths:
        h.update(p.name.encode() + b"\0" + p.read_bytes() + b"\0")


def _oracle(topology, dst: str, protocol: AppProtocol, params_list):
    node = topology.resolve_destination(Ipv4Address.parse(dst))
    return simnet.oracle_paths(topology, node.id, params_list, protocol.transport, protocol.port)


# ---------------------------------------------------------------------------
# sweep


def _sweep_records(spec, pass_dir: Path) -> list:
    return [r for log in sorted(pass_dir.glob("sweep_*.log")) for r in logio.read_log(log)]


def sweep_digest(spec, pass_dir: Path) -> str:
    h = hashlib.sha256()
    _matrices_digest(h, _verdict_matrices(_sweep_records(spec, pass_dir)))
    _files_digest(h, sorted(pass_dir.glob("*.csv")))
    return h.hexdigest()


def sweep_gate(spec, run_dir: Path, pass_dir: Path) -> dict:
    """Every decided verdict agrees with the censors on its flow's oracle
    walk; every cell has exactly one verdict; the table's affected flags
    match the verdicts read back."""
    topology = simnet.load_topology((run_dir / spec["topology"]).read_text())
    records = _sweep_records(spec, pass_dir)
    matrices = _verdict_matrices(records)
    n_verdicts = sum(1 for r in records if r["record_kind"] == logio.KIND_VERDICT)
    wrong = excluded = 0
    for (dst, proto), matrix in matrices.items():
        protocol = AppProtocol(proto)
        walks = _oracle(topology, dst, protocol, list(matrix))
        for params, verdict in matrix.items():
            truth = {
                MECHANISM[rule.action.kind]
                for node in walks[params] for rule in topology.censors_at(node)
                if rule.protocol is protocol and rule.health is Health.ACTIVE
                and domain_matches(rule.domain_pattern, spec["sensitive_domain"])
            }
            if verdict.is_excluded:
                excluded += 1
            elif verdict.is_censored and verdict.mechanism not in truth:
                wrong += 1
            elif verdict.is_not_censored and truth:
                wrong += 1
    n_dests = len((run_dir / spec["dests"]).read_text().split())
    expected_cells = (n_dests * len(spec["protocols"].split(","))
                      * experiments.RQ2_IP_COUNT * experiments.RQ2_PORT_COUNT)
    table = {(r[0], r[2]): r[3] for t in pass_dir.glob("sweep_*_table.csv")
             for r in _csv_rows(t)[1:]}
    table_ok = table == {
        key: str(prober.is_affected(m)).lower() for key, m in matrices.items()}
    cells = sum(len(m) for m in matrices.values())
    return {
        "ok": wrong == 0 and cells == n_verdicts == expected_cells and table_ok,
        "wrong_verdicts": wrong, "cells": cells, "excluded": excluded,
        "table_matches_verdicts": table_ok,
    }


# ---------------------------------------------------------------------------
# paths


def _rq1_traces(log: Path):
    """{variation: [TracePath]} read back from one rq1 log."""
    by_variation: Dict[str, list] = {}
    for r in logio.read_log(log):
        if r["record_kind"] == logio.KIND_TRACE_HOP:
            by_variation.setdefault(r["variation"], []).append(r)
    return {v: logio.traces_from_records(rows) for v, rows in by_variation.items()}


def paths_digest(spec, pass_dir: Path) -> str:
    h = hashlib.sha256()
    for i in range(len(spec["pairs"])):
        for variation, traces in _rq1_traces(pass_dir / f"rq1_{i}.log").items():
            for t in traces:
                h.update(f"{variation},{t.source},{t.protocol.value},{t.hops},"
                         f"{logio.terminal_str(t.terminal)}\n".encode())
        _files_digest(h, [pass_dir / f"rq1_{i}_paths.csv"])
    return h.hexdigest()


def paths_gate(spec, run_dir: Path, pass_dir: Path) -> dict:
    """Every responsive traced hop equals the oracle walk; the ladder
    ends at the destination; each variation's path count in the CSV
    equals num_paths over the traces read back."""
    topology = simnet.load_topology((run_dir / spec["topology"]).read_text())
    mismatches = traces_seen = 0
    csv_ok = True
    for i, (dest, proto) in enumerate(spec["pairs"]):
        protocol = AppProtocol(proto)
        dst = str(topology.nodes[int(dest)].address)
        by_variation = _rq1_traces(pass_dir / f"rq1_{i}.log")
        for traces in by_variation.values():
            walks = _oracle(topology, dst, protocol, [t.source for t in traces])
            for t in traces:
                traces_seen += 1
                routers = walks[t.source][:-1]
                if (len(t.hops) != len(routers)
                        or t.terminal.kind is not tracer.TerminalKind.REACHED_DESTINATION
                        or any(hop != node if hop is not None
                               else topology.nodes[node].responsive
                               for hop, node in zip(t.hops, routers))):
                    mismatches += 1
        expected = sorted(
            [v, str(analysis.num_paths(tracer.merge_paths(traces))), "1"]
            for v, traces in by_variation.items())
        csv_ok &= sorted(_csv_rows(pass_dir / f"rq1_{i}_paths.csv")[1:]) == expected
    expected_traces = (len(spec["pairs"]) * experiments.RQ1_SAMPLES
                       * len(experiments.Rq1Variation))
    return {
        "ok": mismatches == 0 and traces_seen == expected_traces and csv_ok,
        "trace_oracle_mismatches": mismatches, "traces": traces_seen,
        "paths_csv_matches_traces": csv_ok,
    }


# ---------------------------------------------------------------------------
# report


def report_digest(pass_dir: Path) -> str:
    h = hashlib.sha256()
    _files_digest(h, sorted(pass_dir.glob("*.csv")))
    return h.hexdigest()


def _graph_rows(topology, dual) -> Tuple[list, list]:
    nodes = sorted(
        [str(n), dual.node_color[n].value, str(topology.nodes[n].as_number),
         topology.nodes[n].subnet24, topology.nodes[n].geo]
        for n in dual.censored.nodes | dual.clear.nodes)
    edges = sorted(
        [str(a), str(b), name, str((a, b) in dual.censor_edges).lower()]
        for name, graph in (("censored", dual.censored), ("clear", dual.clear))
        for a, b in graph.edges)
    return nodes, edges


def report_gate(spec, run_dir: Path, pass_dir: Path, setup_result: dict) -> dict:
    """bits, graph and classify agree with analysis run on the verdicts
    and traces read back; the resumed rq2 appended nothing and rewrote
    the same CSVs."""
    topology = simnet.load_topology((run_dir / spec["topology"]).read_text())
    log = run_dir / "input" / "report.log"
    records = logio.read_log(log)
    matrices = _verdict_matrices(records)
    censor_nodes = [r.attach_at for r in topology.censors]

    bits = analysis.bit_group_summary(
        {f"{d}|{p}": m for (d, p), m in matrices.items()}, analysis.BitGrouping.SRC_IP_LOW3)
    bits_ok = _csv_rows(pass_dir / "bits.csv")[1:] == [
        [r.group, str(r.affected_destinations), str(r.censored_cells)] for r in bits]

    def dual_graph(dst, proto):
        rows = [r for r in records if r["record_kind"] == logio.KIND_TRACE_HOP
                and r["dst"] == dst and r["protocol"] == proto]
        pathset = tracer.merge_paths(logio.traces_from_records(rows), matrices[(dst, proto)])
        return analysis.build_dual_graph(pathset, censor_nodes=censor_nodes)

    graphs_ok = True
    graphs = 0
    for (dst, proto), matrix in sorted(matrices.items()):
        if not prober.is_affected(matrix):
            continue
        graphs += 1
        nodes, edges = _graph_rows(topology, dual_graph(dst, proto))
        prefix = pass_dir / f"graph_{dst}_{proto}"
        graphs_ok &= sorted(_csv_rows(Path(f"{prefix}_nodes.csv"))[1:]) == nodes
        graphs_ok &= sorted(_csv_rows(Path(f"{prefix}_edges.csv"))[1:]) == edges

    classify_ok = True
    for proto in spec["protocols"].split(","):
        expected = []
        for dst in sorted({d for d, _ in matrices}):
            try:
                report = analysis.classify_effect(
                    dual_graph(dst, proto), topology.nodes, censor_nodes)
            except (analysis.DegenerateSplitError, analysis.EmptyPathSetError):
                continue
            expected.append([dst, proto, report.effect.value,
                             report.scope.value if report.scope else "",
                             str(report.evidence.get("diverging_node", ""))])
        classify_ok &= _csv_rows(pass_dir / f"classify_{proto}.csv")[1:] == expected

    log_unchanged = {sha256_file(log)} == set(setup_result["input_log_sha256"])
    csvs_ok = all(sha256_file(pass_dir / name) == digest
                  for name, digest in setup_result["input_csv_sha256"].items())
    return {
        "ok": bits_ok and graphs_ok and graphs > 0 and classify_ok and log_unchanged and csvs_ok,
        "bits_match": bits_ok, "graphs_match": graphs_ok, "graphs": graphs,
        "classify_match": classify_ok, "resume_appended_nothing": log_unchanged,
        "resume_csvs_match": csvs_ok,
    }


# ---------------------------------------------------------------------------


def check(spec, run_dir: Path, pass_dirs: List[Path], setup_result: dict) -> Tuple[dict, str]:
    """The workload's gate on the first pass, plus the digest of every
    pass, which must all be equal. Returns (gate, digest); gate["ok"]
    is the run's correctness."""
    workload = spec["workload"]
    try:
        if workload == "sweep":
            digests = [sweep_digest(spec, d) for d in pass_dirs]
            gate = sweep_gate(spec, run_dir, pass_dirs[0])
        elif workload == "paths":
            digests = [paths_digest(spec, d) for d in pass_dirs]
            gate = paths_gate(spec, run_dir, pass_dirs[0])
        else:
            digests = [report_digest(d) for d in pass_dirs]
            gate = report_gate(spec, run_dir, pass_dirs[0], setup_result)
            gate["setup_logs_identical"] = len(set(setup_result["input_log_sha256"])) == 1
            gate["ok"] = gate["ok"] and gate["setup_logs_identical"]
    except Exception as exc:  # missing or malformed output: the run is incorrect
        traceback.print_exc()
        return {"ok": False, "error": repr(exc)}, ""
    gate["passes_identical"] = len(set(digests)) == 1
    gate["ok"] = gate["ok"] and gate["passes_identical"]
    return gate, digests[0]
