"""Path-diversity metrics, censorship-fraction statistics, bit-pattern
summaries, censored/clear graph construction, and the effect classifier.

Paths use set semantics: a path is the set of hops observed for one
trace, and groups aggregate traces per source-parameter combination.
All functions here are pure over immutable inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from fractions import Fraction
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Set, Tuple

from .core import Ipv4Address, SourceParams, Verdict, VerdictKind
from .simnet import Node


class EmptyPathSetError(ValueError):
    """Metric requested over a path set with no groups."""


class AllExcludedError(ValueError):
    """Every cell of the matrix was excluded; fraction undefined."""


class EmptyGroupError(ValueError):
    """A bit group guaranteed by the planner has no cells."""


class DegenerateSplitError(ValueError):
    """Dual-graph construction needs censored and clear groups."""


class AnnotationMissingError(LookupError):
    """A graph node has no topology annotation."""


class TraceGroup(NamedTuple):
    """All traces sharing one (destination, source-params) combination."""

    params: SourceParams
    #: The group's tracer.TracePath values.
    traces: tuple
    verdict: Verdict

    @property
    def node_set(self) -> frozenset:
        out: Set[int] = set()
        for t in self.traces:
            out |= t.node_set
        return frozenset(out)


@dataclass(frozen=True)
class PathSet:
    dst_ip: Ipv4Address
    groups: Dict[SourceParams, TraceGroup]


def num_paths(pathset: PathSet) -> int:
    """Count of distinct per-trace hop sets across all groups. Traces
    that share a result share its ladder, so the distinct ladders come
    first and each gives one hop set."""
    if not pathset.groups:
        raise EmptyPathSetError("path set has no groups")
    by_ladder = {t.hops: t for group in pathset.groups.values() for t in group.traces}
    return len({t.node_set for t in by_ladder.values()})


def no_censorship_fraction(matrix: Mapping[SourceParams, Verdict]) -> Fraction:
    """Share of decided cells that saw no censorship, as an exact ratio.

    Excluded cells count toward neither numerator nor denominator.
    """
    if not matrix:
        raise EmptyPathSetError("empty verdict matrix")
    # Counted in a list by identity, as prober.is_affected looks kinds up:
    # a Verdict property runs in Python.
    kinds = [v.kind for v in matrix.values()]
    clear = kinds.count(VerdictKind.NOT_CENSORED)
    censored = kinds.count(VerdictKind.CENSORED)
    if clear + censored == 0:
        raise AllExcludedError("all cells excluded; fraction undefined")
    return Fraction(clear, clear + censored)


class BitGrouping(Enum):
    SRC_IP_LOW3 = "src_ip_low3"
    SRC_PORT_LOW3 = "src_port_low3"
    PER_SOURCE_IP = "per_source_ip"
    PER_SOURCE_PORT = "per_source_port"
    PER_IP_PORT_PAIR = "per_ip_port_pair"


def _group_label(params: SourceParams, grouping: BitGrouping) -> str:
    if grouping is BitGrouping.SRC_IP_LOW3:
        return format(params.src_ip.low_bits(3), "03b")
    if grouping is BitGrouping.SRC_PORT_LOW3:
        return format(params.src_port & 0b111, "03b")
    if grouping is BitGrouping.PER_SOURCE_IP:
        return str(params.src_ip)
    if grouping is BitGrouping.PER_SOURCE_PORT:
        return str(params.src_port)
    return f"{params.src_ip}:{params.src_port}"


@dataclass(frozen=True)
class BitGroupRow:
    group: str
    affected_destinations: int
    censored_cells: int


def bit_group_summary(
    matrices: Mapping, grouping: BitGrouping
) -> List[BitGroupRow]:
    """Aggregate censored cells per source-parameter group.

    matrices maps each destination to its verdict matrix. Rows come back
    sorted by censored-cell count descending, group label ascending on
    ties. The two low-3-bit groupings require all eight groups to be
    covered by the grid.
    """
    censored_cells: Dict[str, int] = {}
    affected: Dict[str, Set] = {}
    labels: Dict[SourceParams, str] = {}  # once per source, not per matrix
    for dst, matrix in matrices.items():
        for params, verdict in matrix.items():
            label = labels.get(params)
            if label is None:
                label = labels[params] = _group_label(params, grouping)
            if verdict.is_censored:
                censored_cells[label] = censored_cells.get(label, 0) + 1
                affected.setdefault(label, set()).add(dst)
    seen_groups = set(labels.values())

    if grouping in (BitGrouping.SRC_IP_LOW3, BitGrouping.SRC_PORT_LOW3):
        expected = {format(i, "03b") for i in range(8)}
        missing = expected - seen_groups
        if missing:
            raise EmptyGroupError(f"grid never covered groups {sorted(missing)}")
    if not seen_groups:
        raise EmptyGroupError("no cells at all")

    rows = [
        BitGroupRow(g, len(affected.get(g, ())), censored_cells.get(g, 0))
        for g in sorted(seen_groups)
    ]
    rows.sort(key=lambda r: (-r.censored_cells, r.group))
    return rows


class NodeColor(Enum):
    ONLY_CENSORED = "only_censored"
    ONLY_CLEAR = "only_clear"
    BOTH = "both"


@dataclass(frozen=True)
class PathGraph:
    nodes: frozenset
    edges: frozenset  # of (src, dst) node-id pairs


@dataclass(frozen=True)
class DualGraph:
    """Censored-route and clear-route graphs over one destination."""

    dst_ip: Ipv4Address
    censored: PathGraph
    clear: PathGraph
    node_color: Dict[int, NodeColor]
    censor_edges: frozenset
    #: Shallowest ladder position each node was observed at.
    depth: Dict[int, int]
    #: Ground-truth censoring nodes, when the simulator supplied them.
    censor_nodes: frozenset = frozenset()

    def successors(self, node: int, graph: PathGraph) -> frozenset:
        return frozenset(b for a, b in graph.edges if a == node)


def _graph_from_groups(groups: Sequence[TraceGroup]) -> Tuple[PathGraph, Dict[int, int]]:
    """The groups' graph and each node's least depth, walking each
    distinct ladder once."""
    nodes: Set[int] = set()
    edges: Set[Tuple[int, int]] = set()
    depth: Dict[int, int] = {}
    for hops in {t.hops for group in groups for t in group.traces}:
        present = [(pos, h) for pos, h in enumerate(hops, start=1) if h is not None]
        for (pos, h) in present:
            nodes.add(h)
            if h not in depth or pos < depth[h]:
                depth[h] = pos
        # consecutive present hops; gaps are skipped over
        for (_, a), (_, b) in zip(present, present[1:]):
            edges.add((a, b))
    return PathGraph(frozenset(nodes), frozenset(edges)), depth


def build_dual_graph(
    pathset: PathSet,
    censor_nodes: Optional[Sequence[int]] = None,
) -> DualGraph:
    """Split a path set into censored and clear graphs with node colors.

    censor_nodes is the simulator's ground truth (censor attachment
    points); when given, censoring edges are the observed edges into
    those nodes. Without it, the edge into the divergence node is
    flagged as the best available guess.
    """
    censored_groups = [g for g in pathset.groups.values() if g.verdict.is_censored]
    clear_groups = [g for g in pathset.groups.values() if g.verdict.is_not_censored]
    if not censored_groups or not clear_groups:
        raise DegenerateSplitError(
            f"need censored and clear groups, have {len(censored_groups)}/{len(clear_groups)}"
        )

    censored, depth_c = _graph_from_groups(censored_groups)
    clear, depth_l = _graph_from_groups(clear_groups)

    depth = dict(depth_l)
    for node, d in depth_c.items():
        if node not in depth or d < depth[node]:
            depth[node] = d

    colors: Dict[int, NodeColor] = {}
    for node in censored.nodes | clear.nodes:
        if node in censored.nodes and node in clear.nodes:
            colors[node] = NodeColor.BOTH
        elif node in censored.nodes:
            colors[node] = NodeColor.ONLY_CENSORED
        else:
            colors[node] = NodeColor.ONLY_CLEAR

    truth = frozenset(censor_nodes or ())
    if truth:
        censor_edges = frozenset(
            (a, b) for (a, b) in censored.edges | clear.edges if b in truth
        )
    else:
        censor_edges = frozenset()

    dual = DualGraph(
        dst_ip=pathset.dst_ip,
        censored=censored,
        clear=clear,
        node_color=colors,
        censor_edges=censor_edges,
        depth=depth,
        censor_nodes=truth,
    )
    if not truth:
        div = divergence_node(dual)
        if div is not None:
            inferred = frozenset((a, b) for (a, b) in censored.edges if b == div)
            dual = replace(dual, censor_edges=inferred)
    return dual


def divergence_node(dual: DualGraph) -> Optional[int]:
    """Deepest both-colored node whose censored-side and clear-side
    successor sets differ."""
    candidates = []
    for node, color in dual.node_color.items():
        if color is not NodeColor.BOTH:
            continue
        succ_c = dual.successors(node, dual.censored)
        succ_l = dual.successors(node, dual.clear)
        if succ_c != succ_l:
            candidates.append(node)
    if not candidates:
        return None
    return max(candidates, key=lambda n: (dual.depth.get(n, 0), n))


class EffectType(Enum):
    FAILED_NODE = "type1_failed_node"
    GEO_DIVERSE = "type2_geo_diverse"
    ROUTE_AROUND = "type3_route_around"
    UNATTRIBUTABLE = "type4_unattributable"


class Scope(Enum):
    INTRA_AS = "intra"
    INTER_AS = "inter"


@dataclass(frozen=True)
class EffectReport:
    dst_ip: Ipv4Address
    effect: EffectType
    scope: Optional[Scope] = None
    evidence: Dict[str, object] = field(default_factory=dict)


def _ases(nodes, annotations: Mapping[int, Node]) -> Set[int]:
    out = set()
    for n in nodes:
        if n not in annotations:
            raise AnnotationMissingError(f"no annotation for node {n}")
        out.add(annotations[n].as_number)
    return out


def classify_effect(
    dual: DualGraph,
    annotations: Mapping[int, Node],
    censor_nodes: Optional[Sequence[int]] = None,
) -> EffectReport:
    """Attribute the censored/clear split to a cause, first match wins.

    Order: identical node sets (unattributable), clear paths avoiding
    the censoring region's ASes entirely (route-around), same-AS transit
    through geographically different nodes (geo-diverse), otherwise a
    failed/misconfigured node with intra- or inter-AS divergence scope.
    """
    for node in dual.censored.nodes | dual.clear.nodes:
        if node not in annotations:
            raise AnnotationMissingError(f"no annotation for node {node}")

    if dual.censored.nodes == dual.clear.nodes:
        return EffectReport(dual.dst_ip, EffectType.UNATTRIBUTABLE)

    truth = frozenset(censor_nodes) if censor_nodes else dual.censor_nodes
    if truth:
        region = {annotations[n].as_number for n in truth if n in annotations}
    else:
        # Fall back to ASes of censored-only nodes observed last on a
        # censored trace (the hop adjacent to where censorship struck).
        last_censored = {
            n
            for n in dual.censored.nodes
            if dual.node_color[n] is NodeColor.ONLY_CENSORED
            and not dual.successors(n, dual.censored)
        }
        region = {annotations[n].as_number for n in last_censored}

    clear_ases = _ases(dual.clear.nodes, annotations)
    censored_ases = _ases(dual.censored.nodes, annotations)

    if region and not (clear_ases & region):
        return EffectReport(
            dual.dst_ip,
            EffectType.ROUTE_AROUND,
            evidence={
                "censor_region_ases": sorted(region),
                "clear_ases": sorted(clear_ases),
                "censored_ases": sorted(censored_ases),
            },
        )

    for asn in sorted(censored_ases & clear_ases):
        geo_c = {
            annotations[n].geo for n in dual.censored.nodes if annotations[n].as_number == asn
        }
        geo_l = {
            annotations[n].geo for n in dual.clear.nodes if annotations[n].as_number == asn
        }
        if geo_c != geo_l:
            return EffectReport(
                dual.dst_ip,
                EffectType.GEO_DIVERSE,
                evidence={
                    "as_number": asn,
                    "censored_geo": sorted(geo_c),
                    "clear_geo": sorted(geo_l),
                },
            )

    div = divergence_node(dual)
    scope = Scope.INTER_AS
    if div is not None and region and annotations[div].as_number in region:
        scope = Scope.INTRA_AS
    return EffectReport(
        dual.dst_ip,
        EffectType.FAILED_NODE,
        scope=scope,
        evidence={
            "diverging_node": div,
            "censor_region_ases": sorted(region),
            "censored_ases": sorted(censored_ases),
            "clear_ases": sorted(clear_ases),
        },
    )
