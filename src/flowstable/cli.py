"""Command-line front end.

Subcommands: validate, rq1, rq2, trace, graph, classify, bits. It
parses arguments, resolves them and writes CSV reports with fixed
column orders and 4-decimal percentages, so identical inputs produce
byte-identical outputs; experiments runs sweeps and logs their traces.

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
#: The largest seed: plans key their generators on the seed's 8 bytes.
MAX_SEED = 2**64 - 1


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        raise _UsageError(message)


def _resolve_seed(flag_value: Optional[int]) -> int:
    if flag_value is not None:
        return flag_value
    env = os.environ.get(SEED_ENV_VAR)
    if env is None:
        return DEFAULT_SEED
    try:
        return _int_in(0, MAX_SEED)(env)
    except argparse.ArgumentTypeError as exc:
        raise _UsageError(f"{SEED_ENV_VAR}: {exc}") from exc


def _load_topology(path: str) -> Tuple[simnet.Topology, bytes]:
    """The topology file at path, loaded, and its bytes, which a run id
    hashes: read once, so the id names the topology that ran."""
    data = Path(path).read_bytes()
    return simnet.load_topology(data.decode()), data


def _parse_dest(topology: simnet.Topology, text: str) -> simnet.Node:
    """Destination argument, an endpoint's node id or its own address,
    resolved once to that endpoint; probes go to its address. A router's
    id or an address that is no endpoint's raises
    DestinationResolutionError, so a command fails before it writes
    anything. A node id is ASCII digits: str.isdigit() and int() would
    also take other scripts' digits, "٣" as node 3."""
    if not (text.isascii() and text.isdigit()):
        return topology.resolve_destination(Ipv4Address.parse(text))
    node_id = int(text)
    node = topology.nodes.get(node_id)
    if node is None:
        raise simnet.DestinationResolutionError(f"no node {node_id} in topology")
    if node.role is not simnet.Role.ENDPOINT:
        raise simnet.DestinationResolutionError(f"node {node_id} is not an endpoint")
    # Resolving its address refuses an endpoint that shares it with another.
    return topology.resolve_destination(node.address)


def _int_in(lo: int, hi: Optional[int] = None):
    """An argparse type: an integer of at least lo and, with hi, at most
    hi, checked while the arguments are parsed, so a command refuses it
    before it writes anything. Its digits are ASCII: int() of the text
    would also read other scripts' digits, "٣" as 3."""

    def parse(text: str) -> int:
        try:
            value = int(text.encode("ascii"))
        except ValueError:  # UnicodeEncodeError included
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < lo or (hi is not None and value > hi):
            bounds = f"in {lo}..{hi}" if hi is not None else f">= {lo}"
            raise argparse.ArgumentTypeError(f"must be {bounds}, got {value}")
        return value

    return parse


def _address(text: str) -> Ipv4Address:
    """An argparse type: a dotted-quad IPv4 address."""
    try:
        return Ipv4Address.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _protocols(text: str) -> List[AppProtocol]:
    """An argparse type: comma-separated protocols, each kept once, in
    first-seen order; a list that names none is refused."""
    try:
        protocols = [AppProtocol(p.strip()) for p in text.split(",") if p.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not protocols:
        raise argparse.ArgumentTypeError(f"no protocol in {text!r}")
    return list(dict.fromkeys(protocols))


def _run_id(*parts) -> str:
    h = hashlib.blake2b("|".join(str(p) for p in parts).encode(), digest_size=6)
    return h.hexdigest()


def _write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _registry(path: Optional[str]) -> Tuple[prober.BlockpageRegistry, Optional[str]]:
    """The registry file at path, loaded, and the sha256 of its bytes,
    which a run's meta record holds; with no path, the empty registry
    and None."""
    if path is None:
        return prober.EMPTY_REGISTRY, None
    data = Path(path).read_bytes()
    return prober.BlockpageRegistry.load(data.decode()), hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# subcommands


def _cmd_validate(args) -> int:
    _load_topology(args.topology)
    print(f"ok: {args.topology}")
    return 0


def _cmd_trace(args) -> int:
    topology, topology_bytes = _load_topology(args.topology)
    dst_ip = _parse_dest(topology, args.dest).address
    transport = prober.SimTransport(topology)
    protocol = AppProtocol(args.protocol)
    sensitivity = Sensitivity.SENSITIVE if args.sensitive else Sensitivity.CONTROL
    source = SourceParams(args.src_ip, args.src_port)
    if args.out:
        run_id = _run_id(
            "trace", topology_bytes, str(dst_ip), source,
            protocol.value, args.domain, sensitivity.value, args.max_ttl,
        )
        log = logio.open_run(args.out, run_id, command="trace", dest=str(dst_ip))
        (path,) = experiments.trace_flows(log, dst_ip, protocol, args.domain, sensitivity,
                                          [source], args.max_ttl, transport)
    else:
        path = tracer.trace(protocol, dst_ip, args.domain, sensitivity, source, args.max_ttl,
                            transport)
    for ttl, hop in enumerate(path.hops, start=1):
        print(f"{ttl} {'*' if hop is None else hop}")
    print(logio.terminal_str(path.terminal))
    return 0


def _cmd_rq1(args) -> int:
    topology, topology_bytes = _load_topology(args.topology)
    dst_ip = _parse_dest(topology, args.dest).address
    seed = _resolve_seed(args.seed)
    protocol = AppProtocol(args.protocol)
    transport = prober.SimTransport(topology)
    plans = experiments.plan_rq1(dst_ip, protocol, seed)
    run_id = _run_id("rq1", topology_bytes, str(dst_ip), seed, protocol.value)
    log = logio.open_run(
        args.out, run_id, command="rq1", seed=seed, dest=str(dst_ip), protocol=protocol.value
    )
    pathsets = experiments.run_rq1(plans, transport, log, max_ttl=args.max_ttl)

    # One row per variation, so each (variation, num_paths) counts once.
    rows = [
        (variation.value, analysis.num_paths(pathsets[variation]), 1)
        for variation in experiments.Rq1Variation
    ]
    csv_path = log.path.with_name(log.path.stem + "_paths.csv")
    _write_csv(csv_path, ["variation", "num_paths", "count"], rows)
    print(f"wrote {csv_path}")
    return 0


def _read_dests(topology: simnet.Topology, path: str) -> List[simnet.Node]:
    """The file's destination endpoints, each once, in first-seen order:
    a line naming an endpoint an earlier line named, by node id or by
    address, adds nothing."""
    out: Dict[int, simnet.Node] = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        node = _parse_dest(topology, line)
        out.setdefault(node.id, node)
    if not out:
        raise experiments.EmptyCandidatesError(f"no destinations in {path}")
    return list(out.values())


def _cmd_rq2(args) -> int:
    topology, topology_bytes = _load_topology(args.topology)
    dests = _read_dests(topology, args.dests)
    seed = _resolve_seed(args.seed)
    protocols = args.protocols
    registry, registry_digest = _registry(args.registry)
    transport = prober.SimTransport(topology)
    plan = experiments.plan_rq2(
        [node.address for node in dests],
        seed,
        domain_pair=(args.control_domain, args.sensitive_domain),
    )
    run_id = _run_id(
        "rq2", topology_bytes, seed,
        ",".join(protocol.value for protocol in protocols),
        args.control_domain, args.sensitive_domain,
    )
    log = logio.open_run(
        args.out, run_id, repetitions=args.repetitions,
        command="rq2", seed=seed, dests=[str(node.address) for node in dests],
        control_domain=args.control_domain, sensitive_domain=args.sensitive_domain,
        protocols=[protocol.value for protocol in protocols], registry=registry_digest,
    )
    summaries = experiments.run_rq2(
        plan,
        transport,
        log,
        protocols=protocols,
        registry=registry,
        repetitions=args.repetitions,
    )

    table_rows = []
    fractions: Dict[str, List] = {}
    traced = []  # the affected matrices' decided sources, in table order
    for node in sorted(dests, key=lambda node: node.address.value):
        for protocol in sorted(protocols, key=lambda protocol: protocol.value):
            summary = summaries[(node.address, protocol)]
            table_rows.append(
                (str(node.address), node.as_number, protocol.value, str(summary.affected).lower())
            )
            if summary.affected:
                fractions.setdefault(protocol.value, []).append(summary.no_censorship_fraction)
                traced.append((node.address, protocol, summary.decided))

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
        # Each affected matrix's decided cells, in table and source order
        grid_index = {params: i for i, params in enumerate(plan.grid)}
        for dst_ip, protocol, decided in traced:
            experiments.trace_flows(log, dst_ip, protocol, args.sensitive_domain,
                                    Sensitivity.SENSITIVE, sorted(decided),
                                    tracer.DEFAULT_MAX_TTL, transport, grid_index)
    print(f"wrote {table_path} and {cdf_path}")
    return 0


def _traces_by_dest(run: logio.RunLog) -> Dict[Ipv4Address, List[tracer.TracePath]]:
    """The log's traces per destination, in log order: one pass over
    them for a whole command."""
    by_dest: Dict[Ipv4Address, List[tracer.TracePath]] = {}
    for t in run.traces.values():
        by_dest.setdefault(t.dst_ip, []).append(t)
    return by_dest


def _pathsets_from_log(
    run: logio.RunLog,
    by_dest: Dict[Ipv4Address, List[tracer.TracePath]],
    dest: Ipv4Address,
    protocol: Optional[AppProtocol],
):
    """Rebuild (pathset, protocol) for one destination from a read log,
    whose traces by_dest groups (_traces_by_dest)."""
    traces = by_dest.get(dest, [])
    if protocol is not None:
        chosen = protocol
    else:
        protocols = {t.protocol.value for t in traces} | {
            p.value for p in AppProtocol if (dest, p) in run.verdicts
        }
        if len(protocols) > 1:
            raise _UsageError(
                f"log holds {sorted(protocols)} for {dest}; pick one with --protocol"
            )
        # None where the log holds nothing for dest: no trace is chosen
        chosen = AppProtocol(protocols.pop()) if protocols else None
    traces = [t for t in traces if t.protocol is chosen]
    if not traces:
        raise analysis.EmptyPathSetError(f"no traces for {dest} in log")
    return tracer.merge_paths(traces, run.verdicts.get((dest, chosen)) or None), chosen


def _cmd_graph(args) -> int:
    run = logio.read_run(args.log)
    topology = _load_topology(args.topology)[0] if args.topology else None
    protocol = AppProtocol(args.protocol) if args.protocol else None
    if topology is not None:
        dest = _parse_dest(topology, args.dest).address
    else:
        dest = Ipv4Address.parse(args.dest)
    pathset, _ = _pathsets_from_log(run, _traces_by_dest(run), dest, protocol)
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
    topology, _ = _load_topology(args.topology)
    dests = sorted({dst for dst, _ in run.verdicts}, key=str)
    if args.dest:
        dests = [_parse_dest(topology, args.dest).address]
    protocol = AppProtocol(args.protocol) if args.protocol else None
    censor_nodes = [r.attach_at for r in topology.censors]
    by_dest = _traces_by_dest(run)

    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["destination", "protocol", "effect", "scope", "diverging_node"])
    for dest in dests:
        try:
            pathset, chosen = _pathsets_from_log(run, by_dest, dest, protocol)
            dual = analysis.build_dual_graph(pathset, censor_nodes=censor_nodes)
            report = analysis.classify_effect(dual, topology.nodes, censor_nodes)
        except (analysis.DegenerateSplitError, analysis.EmptyPathSetError):
            continue
        writer.writerow(
            [
                str(dest),
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

    p = sub.add_parser("trace", help="trace one flow and print its hops")
    p.add_argument("--topology", required=True)
    p.add_argument("--dest", required=True, help="endpoint node id or address")
    p.add_argument("--src-ip", type=_address, required=True)
    p.add_argument("--src-port", type=_int_in(0, 65535), required=True)
    p.add_argument("--protocol", required=True, choices=[x.value for x in AppProtocol])
    p.add_argument("--domain", default=experiments.BENIGN_DOMAIN)
    p.add_argument("--sensitive", action="store_true")
    p.add_argument("--max-ttl", type=_int_in(1, tracer.MAX_TTL_CEILING),
                   default=tracer.DEFAULT_MAX_TTL)
    p.add_argument("--out", help="optionally append the trace to this run log")

    p = sub.add_parser(
        "rq1",
        help="path-diversity sweep: 4 variations x 144 traces",
        description="Emits <out stem>_paths.csv with columns "
                    "variation,num_paths,count.",
    )
    p.add_argument("--topology", required=True)
    p.add_argument("--dest", required=True)
    p.add_argument("--seed", type=_int_in(0, MAX_SEED), default=None,
                   help=f"defaults to ${SEED_ENV_VAR} or {DEFAULT_SEED}")
    p.add_argument("--out", required=True, help="run log; CSV written next to it")
    p.add_argument("--protocol", default="http", choices=[x.value for x in AppProtocol])
    p.add_argument("--max-ttl", type=_int_in(1, tracer.MAX_TTL_CEILING),
                   default=tracer.DEFAULT_MAX_TTL)

    p = sub.add_parser(
        "rq2",
        help="censorship-impact sweep over a 208x8 grid",
        description="Emits <out stem>_table.csv (destination,asn,protocol,"
                    "affected) and <out stem>_cdf.csv (protocol,"
                    "no_censorship_fraction,cdf; fractions to 4 decimals).",
    )
    p.add_argument("--topology", required=True)
    p.add_argument("--dests", required=True, help="file with one destination per line")
    p.add_argument("--seed", type=_int_in(0, MAX_SEED), default=None,
                   help=f"defaults to ${SEED_ENV_VAR} or {DEFAULT_SEED}")
    p.add_argument("--out", required=True, help="run log; CSVs written next to it")
    p.add_argument("--protocols", type=_protocols, default="dns,http,https",
                   help="comma-separated; each protocol runs once, in first-seen order")
    p.add_argument("--registry", help="blockpage template registry (JSON)")
    p.add_argument("--repetitions", type=_int_in(1),
                   default=prober.DEFAULT_REPETITIONS)
    p.add_argument("--control-domain", default="control.example")
    p.add_argument("--sensitive-domain", default="blocked.example")
    p.add_argument("--trace-affected", action="store_true",
                   help="also trace decided cells of affected destinations")

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
    return parser


#: Built once per process; parse_args keeps no state between calls.
_PARSER = _build_parser()


def cli_main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        # looked up by name at each call, so a replaced _cmd_* is the one run
        return globals()[f"_cmd_{args.command}"](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except prober.TransportUnavailableError as exc:
        print(f"transport error: {exc}", file=sys.stderr)
        return 3
    except (
        # Every other data error of the package subclasses ValueError or
        # LookupError; this one is a RuntimeError.
        simnet.LoopGuardExceededError,
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
