from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from flowstable.analysis import (
    AllExcludedError,
    AnnotationMissingError,
    BitGrouping,
    DegenerateSplitError,
    EffectType,
    EmptyGroupError,
    EmptyPathSetError,
    NodeColor,
    PathSet,
    Scope,
    TraceGroup,
    bit_group_summary,
    build_dual_graph,
    classify_effect,
    divergence_node,
    no_censorship_fraction,
    num_paths,
)
from flowstable.core import (
    AppProtocol,
    Ipv4Address,
    Mechanism,
    Sensitivity,
    SourceParams,
    Verdict,
)
from builders import (
    SENSITIVE_DOMAIN,
    CONTROL_DOMAIN,
    build_type1,
    build_type2,
    build_type3,
    build_type4,
    standard_grid,
    trace_spec,
)
from flowstable.prober import BlockpageRegistry, Cell, ProbeSpec, SimTransport, run_cell
from flowstable.tracer import TracePath, Terminal, TerminalKind, merge_paths

from conftest import load_fixture, load_script
from reference import graph_walk, no_censorship_fraction as reference_fraction

num_nodes = load_script("run_path_diversity").num_nodes

DST = Ipv4Address.parse("10.0.9.10")
REGISTRY = BlockpageRegistry({"bp-01": "provider block notice"})


def params_at(octet, port=40000):
    return SourceParams(Ipv4Address(0xC6336400 + octet), port)


def synthetic_pathset(group_hops, verdicts):
    """group_hops: params -> list of hop tuples (one per trace)."""
    groups = {}
    for params, hop_lists in group_hops.items():
        traces = tuple(
            TracePath(DST, params, AppProtocol.HTTP, tuple(h),
                      Terminal(TerminalKind.REACHED_DESTINATION))
            for h in hop_lists
        )
        groups[params] = TraceGroup(params, traces, verdicts[params])
    return PathSet(DST, groups)


class TestCounting:
    def test_single_group_single_path(self):
        ps = synthetic_pathset({params_at(1): [(0, 1)]},
                               {params_at(1): Verdict.not_censored()})
        assert num_paths(ps) == 1
        assert num_nodes(ps) == 2

    def test_counting_example(self):
        hops = {
            params_at(1): [("a", "b")],
            params_at(2): [("a", "c")],
            params_at(3): [("a", "b")],
        }
        verdicts = {p: Verdict.not_censored() for p in hops}
        ps = synthetic_pathset(hops, verdicts)
        assert num_paths(ps) == 2
        assert num_nodes(ps) == 3

    def test_bounds(self):
        hops = {params_at(i): [(0, i)] for i in range(1, 6)}
        verdicts = {p: Verdict.not_censored() for p in hops}
        ps = synthetic_pathset(hops, verdicts)
        assert num_paths(ps) <= len(ps.groups)
        assert num_nodes(ps) <= sum(len(g.node_set) for g in ps.groups.values())

    def test_empty_pathset(self):
        with pytest.raises(EmptyPathSetError):
            num_paths(PathSet(DST, {}))
        with pytest.raises(EmptyPathSetError):
            num_nodes(PathSet(DST, {}))


class TestFraction:
    def test_all_clear(self):
        matrix = {params_at(i): Verdict.not_censored() for i in range(1, 5)}
        assert no_censorship_fraction(matrix) == Fraction(1)

    def test_all_censored(self):
        matrix = {params_at(i): Verdict.censored(Mechanism.RST_INJECTION)
                  for i in range(1, 5)}
        assert no_censorship_fraction(matrix) == Fraction(0)

    def test_excluded_cells_omitted(self):
        matrix = {
            params_at(1): Verdict.not_censored(),
            params_at(2): Verdict.censored(Mechanism.PACKET_DROP),
            params_at(3): Verdict.excluded(),
        }
        assert no_censorship_fraction(matrix) == Fraction(1, 2)

    def test_all_excluded_raises(self):
        with pytest.raises(AllExcludedError):
            no_censorship_fraction({params_at(1): Verdict.excluded()})

    @given(st.lists(st.sampled_from([
        Verdict.not_censored(), Verdict.excluded(),
        *(Verdict.censored(m) for m in Mechanism)]), max_size=40))
    @example([])
    @example([Verdict.excluded()] * 3)
    def test_equals_two_pass_reference(self, verdicts):
        matrix = {params_at(i % 250, 40000 + i): v for i, v in enumerate(verdicts)}
        expected = reference_fraction([v.kind.value for v in verdicts])
        errors = {"empty": EmptyPathSetError, "all excluded": AllExcludedError}
        if expected in errors:
            with pytest.raises(errors[expected]):
                no_censorship_fraction(matrix)
        else:
            assert no_censorship_fraction(matrix) == Fraction(*expected)

    def test_complement_without_excluded(self):
        matrix = {params_at(i): (Verdict.not_censored() if i % 3 else
                                 Verdict.censored(Mechanism.RST_INJECTION))
                  for i in range(1, 10)}
        frac = no_censorship_fraction(matrix)
        censored = sum(1 for v in matrix.values() if v.is_censored)
        assert frac == 1 - Fraction(censored, len(matrix))


class TestBitGroups:
    def test_half_split_matrix_by_low3(self):
        matrix = {}
        for octet in range(1, 9):
            for port in range(40000, 40008):
                censored = octet & 0b111 in (1, 4, 6)
                matrix[params_at(octet, port)] = (
                    Verdict.censored(Mechanism.RST_INJECTION) if censored
                    else Verdict.not_censored()
                )
        rows = bit_group_summary({"d": matrix}, BitGrouping.SRC_IP_LOW3)
        positive = {r.group for r in rows if r.censored_cells > 0}
        assert positive == {"001", "100", "110"}
        assert all(r.censored_cells == 8 for r in rows if r.group in positive)
        assert all(r.censored_cells == 0 for r in rows if r.group not in positive)
        # sorted by count descending
        counts = [r.censored_cells for r in rows]
        assert counts == sorted(counts, reverse=True)

    def test_uniform_censor_equal_counts(self):
        matrix = {params_at(octet, port): Verdict.censored(Mechanism.RST_INJECTION)
                  for octet in range(1, 9) for port in range(40000, 40008)}
        rows = bit_group_summary({"d": matrix}, BitGrouping.SRC_PORT_LOW3)
        assert len({r.censored_cells for r in rows}) == 1

    def test_no_censor_all_zero(self):
        matrix = {params_at(octet, port): Verdict.not_censored()
                  for octet in range(1, 9) for port in range(40000, 40008)}
        rows = bit_group_summary({"d": matrix}, BitGrouping.SRC_IP_LOW3)
        assert all(r.censored_cells == 0 for r in rows)

    def test_missing_group_raises(self):
        matrix = {params_at(2): Verdict.not_censored()}  # only group 010
        with pytest.raises(EmptyGroupError):
            bit_group_summary({"d": matrix}, BitGrouping.SRC_IP_LOW3)

    def test_per_ip_grouping_counts_affected_destinations(self):
        matrices = {
            "d1": {params_at(1): Verdict.censored(Mechanism.RST_INJECTION)},
            "d2": {params_at(1): Verdict.censored(Mechanism.RST_INJECTION),
                   params_at(2): Verdict.not_censored()},
        }
        rows = bit_group_summary(matrices, BitGrouping.PER_SOURCE_IP)
        by_group = {r.group: r for r in rows}
        assert by_group["198.51.100.1"].affected_destinations == 2
        assert by_group["198.51.100.1"].censored_cells == 2
        assert by_group["198.51.100.2"].affected_destinations == 0


class TestDualGraph:
    def test_disjoint_paths_no_both(self):
        hops = {params_at(1): [(0, 1)], params_at(2): [(2, 3)]}
        verdicts = {params_at(1): Verdict.censored(Mechanism.RST_INJECTION),
                    params_at(2): Verdict.not_censored()}
        dual = build_dual_graph(synthetic_pathset(hops, verdicts))
        assert all(c is not NodeColor.BOTH for c in dual.node_color.values())

    def test_shared_prefix_is_both(self):
        hops = {params_at(1): [(0, 1, 2)], params_at(2): [(0, 1, 3)]}
        verdicts = {params_at(1): Verdict.censored(Mechanism.RST_INJECTION),
                    params_at(2): Verdict.not_censored()}
        dual = build_dual_graph(synthetic_pathset(hops, verdicts))
        assert dual.node_color[0] is NodeColor.BOTH
        assert dual.node_color[1] is NodeColor.BOTH
        assert dual.node_color[2] is NodeColor.ONLY_CENSORED
        assert dual.node_color[3] is NodeColor.ONLY_CLEAR
        assert divergence_node(dual) == 1

    def test_colors_partition_universe(self):
        hops = {params_at(1): [(0, 1, 2)], params_at(2): [(0, 3)],
                params_at(3): [(0, 1, 4)]}
        verdicts = {params_at(1): Verdict.censored(Mechanism.RST_INJECTION),
                    params_at(2): Verdict.not_censored(),
                    params_at(3): Verdict.not_censored()}
        dual = build_dual_graph(synthetic_pathset(hops, verdicts))
        universe = dual.censored.nodes | dual.clear.nodes
        assert set(dual.node_color) == universe
        only_c = {n for n, c in dual.node_color.items() if c is NodeColor.ONLY_CENSORED}
        only_l = {n for n, c in dual.node_color.items() if c is NodeColor.ONLY_CLEAR}
        both = {n for n, c in dual.node_color.items() if c is NodeColor.BOTH}
        assert only_c | only_l | both == universe
        assert not (only_c & only_l) and not (only_c & both) and not (only_l & both)

    def test_degenerate_split(self):
        hops = {params_at(1): [(0, 1)]}
        with pytest.raises(DegenerateSplitError):
            build_dual_graph(
                synthetic_pathset(hops, {params_at(1): Verdict.not_censored()})
            )

    def test_ground_truth_censor_edges_on_fixture(self):
        topo = load_fixture("type1_intra.topo")
        transport = SimTransport(topo)
        dst = topo.nodes[4].address
        traces, verdicts = [], {}
        for octet in range(1, 5):
            p = params_at(octet)
            spec = ProbeSpec(AppProtocol.HTTPS, dst, SENSITIVE_DOMAIN,
                             Sensitivity.SENSITIVE, p)
            traces.append(trace_spec(spec, 16, transport))
            verdicts[p] = (Verdict.censored(Mechanism.RST_INJECTION) if octet % 2
                           else Verdict.not_censored())
        pathset = merge_paths(traces, verdicts)
        censor_nodes = [r.attach_at for r in topo.censors]
        dual = build_dual_graph(pathset, censor_nodes=censor_nodes)
        assert (1, 3) in dual.censor_edges  # ingress -> censoring sibling
        # diverging next hops inside the censoring AS colored exclusively
        assert dual.node_color[3] is NodeColor.ONLY_CENSORED
        assert dual.node_color[2] is NodeColor.ONLY_CLEAR


#: A few ladders over few nodes, gaps included, so that groups share some.
_ladders = st.lists(st.lists(st.one_of(st.none(), st.integers(0, 5)), max_size=5),
                    min_size=1, max_size=4)


class TestDualGraphMatchesPerTraceWalk:
    """build_dual_graph walks each distinct ladder once; its graphs and
    depths equal a walk of every trace (reference.graph_walk)."""

    @given(st.lists(st.tuples(st.sampled_from(["censored", "clear"]),
                              st.lists(st.integers(0, 3), min_size=1, max_size=4)),
                    min_size=2, max_size=8),
           _ladders, st.lists(st.integers(0, 5), max_size=2))
    def test_graphs_and_depths(self, groups, ladders, truth):
        groups[0] = ("censored", groups[0][1])
        groups[1] = ("clear", groups[1][1])
        built = {}
        for i, (side, picks) in enumerate(groups):
            params = params_at(i + 1)
            # a fresh tuple per trace: equal ladders that are distinct objects
            traces = tuple(TracePath(DST, params, AppProtocol.HTTP,
                                     tuple(ladders[k % len(ladders)]),
                                     Terminal(TerminalKind.REACHED_DESTINATION))
                           for k in picks)
            verdict = (Verdict.censored(Mechanism.RST_INJECTION) if side == "censored"
                       else Verdict.not_censored())
            built[params] = TraceGroup(params, traces, verdict)
        dual = build_dual_graph(PathSet(DST, built), censor_nodes=truth or None)

        def walk(side):
            return graph_walk(t for (s, _), g in zip(groups, built.values()) if s == side
                              for t in g.traces)

        (c_nodes, c_edges, c_depth), (l_nodes, l_edges, l_depth) = walk("censored"), walk("clear")
        assert (dual.censored.nodes, dual.censored.edges) == (c_nodes, c_edges)
        assert (dual.clear.nodes, dual.clear.edges) == (l_nodes, l_edges)
        assert dual.depth == {n: min(c_depth.get(n, 99), l_depth.get(n, 99))
                              for n in c_nodes | l_nodes}


def run_fixture_pipeline(fx, grid=None):
    transport = SimTransport(fx.topology)
    grid = grid or standard_grid()
    cell = Cell(fx.protocol, fx.dst_ip, (CONTROL_DOMAIN, SENSITIVE_DOMAIN), registry=REGISTRY)
    matrix = {p: run_cell(cell, p, transport).verdict for p in grid}
    traces = []
    for p in grid:
        spec = ProbeSpec(fx.protocol, fx.dst_ip, SENSITIVE_DOMAIN,
                         Sensitivity.SENSITIVE, p)
        traces.append(trace_spec(spec, 16, transport))
    pathset = merge_paths(traces, matrix)
    censor_nodes = [r.attach_at for r in fx.topology.censors]
    dual = build_dual_graph(pathset, censor_nodes=censor_nodes)
    return classify_effect(dual, fx.topology.nodes, censor_nodes)


class TestClassifyEffect:
    def test_identical_node_sets_unattributable(self):
        report = run_fixture_pipeline(build_type4(1))
        assert report.effect is EffectType.UNATTRIBUTABLE

    def test_route_around(self):
        report = run_fixture_pipeline(build_type3(1))
        assert report.effect is EffectType.ROUTE_AROUND

    def test_geo_diverse(self):
        report = run_fixture_pipeline(build_type2(1))
        assert report.effect is EffectType.GEO_DIVERSE
        assert report.evidence["censored_geo"] != report.evidence["clear_geo"]

    def test_failed_node_intra_vs_inter(self):
        intra = run_fixture_pipeline(build_type1(1, Scope.INTRA_AS))
        inter = run_fixture_pipeline(build_type1(1, Scope.INTER_AS))
        assert intra.effect is EffectType.FAILED_NODE and intra.scope is Scope.INTRA_AS
        assert inter.effect is EffectType.FAILED_NODE and inter.scope is Scope.INTER_AS

    def test_annotation_missing(self):
        hops = {params_at(1): [(0, 1)], params_at(2): [(0, 2)]}
        verdicts = {params_at(1): Verdict.censored(Mechanism.RST_INJECTION),
                    params_at(2): Verdict.not_censored()}
        dual = build_dual_graph(synthetic_pathset(hops, verdicts))
        with pytest.raises(AnnotationMissingError):
            classify_effect(dual, {}, None)

    def test_evidence_nonempty_except_type4(self):
        for builder, seed in [(build_type2, 3), (build_type3, 3)]:
            report = run_fixture_pipeline(builder(seed))
            assert report.evidence
        report = run_fixture_pipeline(build_type4(3))
        assert not report.evidence
