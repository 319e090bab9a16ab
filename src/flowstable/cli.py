"""Command-line front end.

Subcommands: validate, rq1, rq2, trace, graph, classify, bits. Runs
append JSON-lines records to a log; reports are emitted as CSV files
with fixed column orders and 4-decimal percentages so identical inputs
produce byte-identical outputs.

Exit codes: 0 success, 1 usage error, 2 data error, 3 transport error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import os
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from . import analysis, experiments, logio, prober, simnet, tracer
from .core import AppProtocol, Ipv4Address, Sensitivity, SourceParams

DEFAULT_SEED = 0
SEED_ENV_VAR = "FLOWSTABLE_SEED"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        raise _UsageError(message)


def _resolve_seed(flag_value: Optional[int]) -> int:
    if flag_value is not None:
        return flag_value
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise _UsageError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from exc
    return DEFAULT_SEED


def _load_topology(path: str) -> simnet.Topology:
    return simnet.load_topology(Path(path).read_text())


def _parse_dest(topology: simnet.Topology, text: str) -> Tuple[int, Ipv4Address]:
    """Destination argument: endpoint node id or dotted-quad address."""
    if text.isdigit():
        node_id = int(text)
        if node_id not in topology.nodes:
            raise simnet.DestinationResolutionError(f"no node {node_id} in topology")
        return node_id, topology.nodes[node_id].address
    addr = Ipv4Address.parse(text)
    node = topology.resolve_destination(addr)
    return node.id, addr


def _parse_protocols(text: str) -> List[AppProtocol]:
    try:
        return [AppProtocol(p.strip()) for p in text.split(",") if p.strip()]
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _run_id(*parts) -> str:
    h = hashlib.blake2b("|".join(str(p) for p in parts).encode(), digest_size=6)
    return h.hexdigest()


def _write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _registry(path: Optional[str]) -> prober.BlockpageRegistry:
    if path is None:
        return prober.EMPTY_REGISTRY
    return prober.BlockpageRegistry.load(Path(path).read_text())


def _flow_id(dst_ip: Ipv4Address, protocol: AppProtocol, params: SourceParams) -> str:
    """Trace id of a flow's trace in a run log."""
    return f"{dst_ip}|{protocol.value}|{params}"


# ---------------------------------------------------------------------------
# subcommands


def _cmd_validate(args) -> int:
    _load_topology(args.topology)
    print(f"ok: {args.topology}")
    return 0


def _cmd_trace(args) -> int:
    topology = _load_topology(args.topology)
    _, dst_ip = _parse_dest(topology, args.dest)
    transport = prober.SimTransport(topology)
    spec = prober.ProbeSpec.for_protocol(
        AppProtocol(args.protocol),
        dst_ip,
        args.domain,
        Sensitivity.SENSITIVE if args.sensitive else Sensitivity.CONTROL,
        SourceParams(Ipv4Address.parse(args.src_ip), args.src_port),
        repetitions=1,
    )
    path = tracer.trace(spec, args.max_ttl, transport)
    for ttl, hop in enumerate(path.hops, start=1):
        print(f"{ttl} {'*' if hop is None else hop}")
    print(logio.terminal_str(path.terminal))
    if args.out:
        run_id = _run_id("trace", args.topology, args.dest, args.src_ip, args.src_port)
        log = logio.open_run(args.out, run_id, command="trace", dest=str(dst_ip))
        trace_id = _flow_id(dst_ip, spec.protocol, spec.source)
        if trace_id not in log.traces:
            logio.append_records(log.path, [logio.trace_record(run_id, path, trace_id)])
    return 0


def _cmd_rq1(args) -> int:
    topology = _load_topology(args.topology)
    _, dst_ip = _parse_dest(topology, args.dest)
    seed = _resolve_seed(args.seed)
    protocol = AppProtocol(args.protocol)
    transport = prober.SimTransport(topology)
    plans = experiments.plan_rq1(dst_ip, protocol, seed)
    run_id = _run_id("rq1", Path(args.topology).read_bytes(), str(dst_ip), seed, protocol.value)
    log = logio.open_run(
        args.out, run_id, command="rq1", seed=seed, dest=str(dst_ip), protocol=protocol.value
    )
    pathsets = experiments.run_rq1(plans, transport, max_ttl=args.max_ttl, log=log)

    counts: Dict[Tuple[str, int], int] = {}
    for variation in experiments.Rq1Variation:
        n = analysis.num_paths(pathsets[variation])
        counts[(variation.value, n)] = counts.get((variation.value, n), 0) + 1
    order = {v.value: i for i, v in enumerate(experiments.Rq1Variation)}
    rows = [
        (variation, n, count)
        for (variation, n), count in sorted(
            counts.items(), key=lambda kv: (order[kv[0][0]], kv[0][1])
        )
    ]
    csv_path = log.path.with_name(log.path.stem + "_paths.csv")
    _write_csv(csv_path, ["variation", "num_paths", "count"], rows)
    print(f"wrote {csv_path}")
    return 0


def _read_dests(topology: simnet.Topology, path: str) -> List[Tuple[int, Ipv4Address]]:
    out = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        out.append(_parse_dest(topology, line))
    if not out:
        raise experiments.EmptyCandidatesError(f"no destinations in {path}")
    return out


def _cmd_rq2(args) -> int:
    topology = _load_topology(args.topology)
    dests = _read_dests(topology, args.dests)
    seed = _resolve_seed(args.seed)
    protocols = _parse_protocols(args.protocols)
    registry = _registry(args.registry)
    transport = prober.SimTransport(topology)
    plan = experiments.plan_rq2(
        [ip for _, ip in dests],
        seed,
        domain_pair=(args.control_domain, args.sensitive_domain),
    )
    run_id = _run_id(
        "rq2", Path(args.topology).read_bytes(), seed, args.protocols,
        args.control_domain, args.sensitive_domain,
    )
    log = logio.open_run(
        args.out, run_id, command="rq2", seed=seed, dests=[str(ip) for _, ip in dests],
        control_domain=args.control_domain, sensitive_domain=args.sensitive_domain,
    )
    matrices = experiments.run_rq2(
        plan,
        transport,
        protocols=protocols,
        registry=registry,
        repetitions=args.repetitions,
        log=log,
    )

    node_by_ip = {ip.value: node_id for node_id, ip in dests}
    table_rows = []
    fractions: Dict[str, List] = {}
    for (dst_ip, protocol), matrix in sorted(
        matrices.items(), key=lambda kv: (kv[0][0].value, kv[0][1].value)
    ):
        affected = prober.is_affected(matrix)
        asn = topology.nodes[node_by_ip[dst_ip.value]].as_number
        table_rows.append((str(dst_ip), asn, protocol.value, str(affected).lower()))
        if affected:
            frac = analysis.no_censorship_fraction(matrix)
            fractions.setdefault(protocol.value, []).append(frac)

    table_path = log.path.with_name(log.path.stem + "_table.csv")
    _write_csv(table_path, ["destination", "asn", "protocol", "affected"], table_rows)

    cdf_rows = []
    for protocol in sorted(fractions):
        values = sorted(fractions[protocol])
        for i, frac in enumerate(values, start=1):
            cdf_rows.append((protocol, f"{float(frac):.4f}", f"{i / len(values):.4f}"))
    cdf_path = log.path.with_name(log.path.stem + "_cdf.csv")
    _write_csv(cdf_path, ["protocol", "no_censorship_fraction", "cdf"], cdf_rows)

    if args.trace_affected:
        _trace_affected(transport, matrices, log, args.sensitive_domain)
    print(f"wrote {table_path} and {cdf_path}")
    return 0


def _trace_affected(transport, matrices, log: logio.RunLog, sensitive_domain):
    """Append sensitive-domain traces for every decided cell of every
    affected (destination, protocol), enabling graph/classify on the log.
    Flows the log already holds a trace of are not traced again."""
    for (dst_ip, protocol), matrix in sorted(
        matrices.items(), key=lambda kv: (kv[0][0].value, kv[0][1].value)
    ):
        if not prober.is_affected(matrix):
            continue
        for params in sorted(matrix):
            if matrix[params].is_excluded:
                continue
            trace_id = _flow_id(dst_ip, protocol, params)
            if trace_id in log.traces:
                continue
            spec = prober.ProbeSpec.for_protocol(
                protocol, dst_ip, sensitive_domain, Sensitivity.SENSITIVE, params,
                repetitions=1,
            )
            path = tracer.trace(spec, tracer.DEFAULT_MAX_TTL, transport)
            logio.append_records(
                log.path, [logio.trace_record(log.run_id, path, trace_id)]
            )


def _pathsets_from_log(run: logio.RunLog, dest: str, protocol: Optional[AppProtocol]):
    """Rebuild (pathset, protocol) for one destination from a read log."""
    traces = [t for t in run.traces.values() if str(t.dst_ip) == dest]
    if protocol is not None:
        chosen = protocol
    else:
        protocols = {t.protocol.value for t in traces} | {
            p.value for d, p in run.verdicts if str(d) == dest
        }
        if len(protocols) != 1:
            raise _UsageError(
                f"log holds {sorted(protocols)} for {dest}; pick one with --protocol"
            )
        chosen = AppProtocol(protocols.pop())
    traces = [t for t in traces if t.protocol is chosen]
    if not traces:
        raise analysis.EmptyPathSetError(f"no traces for {dest} in log")
    verdicts = next(
        (m for (d, p), m in run.verdicts.items() if str(d) == dest and p is chosen), None
    )
    return tracer.merge_paths(traces, verdicts or None), chosen


def _cmd_graph(args) -> int:
    run = logio.read_run(args.log)
    topology = _load_topology(args.topology) if args.topology else None
    protocol = AppProtocol(args.protocol) if args.protocol else None
    dest = args.dest
    if topology is not None:
        _, dst_ip = _parse_dest(topology, dest)
        dest = str(dst_ip)
    pathset, _ = _pathsets_from_log(run, dest, protocol)
    censor_nodes = [r.attach_at for r in topology.censors] if topology else None
    dual = analysis.build_dual_graph(pathset, censor_nodes=censor_nodes)

    node_rows = []
    for node in sorted(dual.censored.nodes | dual.clear.nodes):
        row = [node, dual.node_color[node].value]
        if topology is not None:
            n = topology.nodes[node]
            row += [n.as_number, n.subnet24, n.geo]
        node_rows.append(row)
    node_header = ["node", "color"] + (["asn", "subnet24", "geo"] if topology else [])

    edge_rows = []
    for graph_name, graph in (("censored", dual.censored), ("clear", dual.clear)):
        for a, b in sorted(graph.edges):
            edge_rows.append(
                [a, b, graph_name, str((a, b) in dual.censor_edges).lower()]
            )

    prefix = Path(args.out)
    nodes_path = prefix.with_name(prefix.name + "_nodes.csv")
    edges_path = prefix.with_name(prefix.name + "_edges.csv")
    _write_csv(nodes_path, node_header, node_rows)
    _write_csv(edges_path, ["src", "dst", "graph", "censoring"], edge_rows)
    print(f"wrote {nodes_path} and {edges_path}")
    return 0


def _cmd_classify(args) -> int:
    run = logio.read_run(args.log)
    topology = _load_topology(args.topology)
    dests = sorted({str(dst) for dst, _ in run.verdicts})
    if args.dest:
        _, dst_ip = _parse_dest(topology, args.dest)
        dests = [str(dst_ip)]
    protocol = AppProtocol(args.protocol) if args.protocol else None
    censor_nodes = [r.attach_at for r in topology.censors]

    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["destination", "protocol", "effect", "scope", "diverging_node"])
    for dest in dests:
        try:
            pathset, chosen = _pathsets_from_log(run, dest, protocol)
            dual = analysis.build_dual_graph(pathset, censor_nodes=censor_nodes)
            report = analysis.classify_effect(dual, topology.nodes, censor_nodes)
        except (analysis.DegenerateSplitError, analysis.EmptyPathSetError):
            continue
        writer.writerow(
            [
                dest,
                chosen.value,
                report.effect.value,
                report.scope.value if report.scope else "",
                report.evidence.get("diverging_node", ""),
            ]
        )
    return 0


def _cmd_bits(args) -> int:
    run = logio.read_run(args.log)
    grouping = analysis.BitGrouping(args.group_by)
    matrices = {
        f"{dst}|{protocol.value}": matrix
        for (dst, protocol), matrix in run.verdicts.items()
        if not args.protocol or protocol.value == args.protocol
    }
    if not matrices:
        raise analysis.EmptyGroupError("log holds no verdict records")
    rows = analysis.bit_group_summary(matrices, grouping)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["group", "affected_destinations", "censored_cells"])
    for row in rows:
        writer.writerow([row.group, row.affected_destinations, row.censored_cells])
    return 0


# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="flowstable", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="schema-check a topology file")
    p.add_argument("topology")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("trace", help="trace one flow and print its hops")
    p.add_argument("--topology", required=True)
    p.add_argument("--dest", required=True, help="endpoint node id or address")
    p.add_argument("--src-ip", required=True)
    p.add_argument("--src-port", type=int, required=True)
    p.add_argument("--protocol", required=True, choices=[x.value for x in AppProtocol])
    p.add_argument("--domain", default=experiments.DEFAULT_BENIGN_DOMAIN)
    p.add_argument("--sensitive", action="store_true")
    p.add_argument("--max-ttl", type=int, default=tracer.DEFAULT_MAX_TTL)
    p.add_argument("--out", help="optionally append the trace to this run log")
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser(
        "rq1",
        help="path-diversity sweep: 4 variations x 144 traces",
        description="Emits <out stem>_paths.csv with columns "
                    "variation,num_paths,count.",
    )
    p.add_argument("--topology", required=True)
    p.add_argument("--dest", required=True)
    p.add_argument("--seed", type=int, default=None,
                   help=f"defaults to ${SEED_ENV_VAR} or {DEFAULT_SEED}")
    p.add_argument("--out", required=True, help="run log; CSV written next to it")
    p.add_argument("--protocol", default="http", choices=[x.value for x in AppProtocol])
    p.add_argument("--max-ttl", type=int, default=tracer.DEFAULT_MAX_TTL)
    p.set_defaults(fn=_cmd_rq1)

    p = sub.add_parser(
        "rq2",
        help="censorship-impact sweep over a 208x8 grid",
        description="Emits <out stem>_table.csv (destination,asn,protocol,"
                    "affected) and <out stem>_cdf.csv (protocol,"
                    "no_censorship_fraction,cdf; fractions to 4 decimals).",
    )
    p.add_argument("--topology", required=True)
    p.add_argument("--dests", required=True, help="file with one destination per line")
    p.add_argument("--seed", type=int, default=None,
                   help=f"defaults to ${SEED_ENV_VAR} or {DEFAULT_SEED}")
    p.add_argument("--out", required=True, help="run log; CSVs written next to it")
    p.add_argument("--protocols", default="dns,http,https")
    p.add_argument("--registry", help="blockpage template registry (JSON)")
    p.add_argument("--repetitions", type=int, default=prober.DEFAULT_REPETITIONS)
    p.add_argument("--control-domain", default="control.example")
    p.add_argument("--sensitive-domain", default="blocked.example")
    p.add_argument("--trace-affected", action="store_true",
                   help="also trace decided cells of affected destinations")
    p.set_defaults(fn=_cmd_rq2)

    p = sub.add_parser(
        "graph",
        help="dual censored/clear graph CSVs from a log",
        description="Writes <out>_nodes.csv (node,color[,asn,subnet24,geo]) "
                    "and <out>_edges.csv (src,dst,graph,censoring).",
    )
    p.add_argument("--log", required=True)
    p.add_argument("--dest", required=True)
    p.add_argument("--out", required=True, help="output path prefix")
    p.add_argument("--protocol", choices=[x.value for x in AppProtocol])
    p.add_argument("--topology", help="enriches nodes with asn/subnet/geo columns")
    p.set_defaults(fn=_cmd_graph)

    p = sub.add_parser(
        "classify",
        help="effect classification table from a log",
        description="Prints destination,protocol,effect,scope,diverging_node "
                    "for every destination whose log holds a censored/clear "
                    "split with trace rows (produce them with rq2 "
                    "--trace-affected).",
    )
    p.add_argument("--log", required=True)
    p.add_argument("--topology", required=True)
    p.add_argument("--dest")
    p.add_argument("--protocol", choices=[x.value for x in AppProtocol])
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser(
        "bits",
        help="censored-cell counts per source bit group",
        description="Prints CSV columns group,affected_destinations,"
                    "censored_cells, sorted by censored cells descending.",
    )
    p.add_argument("--log", required=True)
    p.add_argument("--group-by", required=True,
                   choices=[g.value for g in analysis.BitGrouping])
    p.add_argument("--protocol", choices=[x.value for x in AppProtocol])
    p.set_defaults(fn=_cmd_bits)
    return parser


def cli_main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except prober.TransportUnavailableError as exc:
        print(f"transport error: {exc}", file=sys.stderr)
        return 3
    except (
        simnet.SchemaError,
        simnet.DestinationResolutionError,
        simnet.LoopGuardExceededError,
        logio.SchemaVersionUnknownError,
        logio.CorruptRecordError,
        analysis.EmptyPathSetError,
        analysis.AllExcludedError,
        analysis.EmptyGroupError,
        analysis.DegenerateSplitError,
        analysis.AnnotationMissingError,
        experiments.EmptyCandidatesError,
        tracer.MixedDestinationsError,
        prober.LengthMismatchError,
        prober.HandshakeFailedError,
        OSError,
        ValueError,
        LookupError,
    ) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
