"""Acceptance suite: one test per release criterion.

Each test prints a single PASS line (run with -s to see them); a failed
assertion is the FAIL signal. Budgets are asserted where a criterion
carries one.
"""

import random
import time
from fractions import Fraction

import conftest
from conftest import FIXTURES, flapping, load_fixture, logged_matrices, scratch_log

from flowstable.analysis import (
    BitGrouping,
    Scope,
    bit_group_summary,
    no_censorship_fraction,
    num_paths,
)
from flowstable.cli import cli_main
from flowstable.core import AppProtocol, Ipv4Address, Sensitivity, SourceParams
from flowstable.censors import Health
from flowstable.experiments import Rq1Variation, plan_rq1, plan_rq2, run_rq1, run_rq2
from builders import random_topology, trace_spec
from flowstable.prober import Cell, ProbeSpec, SimTransport, classify, run_cell
from flowstable.simnet import Role, oracle_paths
from flowstable.tracer import TerminalKind

DOMAINS = ("control.example", "blocked.example")


def _endpoint(topology):
    (node,) = [n for n in topology.nodes.values() if n.role is Role.ENDPOINT]
    return node


def _report(n, name, detail=""):
    print(f"ACCEPTANCE {n} {name}: PASS {detail}".rstrip())


def test_criterion_1_route_determinism():
    """144 constant-parameter repetitions yield exactly one path on
    every shipped fixture, inside 5 seconds."""
    started = time.monotonic()
    fixtures = sorted(FIXTURES.glob("*.topo"))
    assert fixtures
    for path in fixtures:
        topology = load_fixture(path.name)
        dest = _endpoint(topology).address
        plans = [p for p in plan_rq1(dest, AppProtocol.HTTP, seed=1)
                 if p.variation is Rq1Variation.ALL_CONSTANT]
        with scratch_log() as log:
            pathsets = run_rq1(plans, SimTransport(topology), log)
        assert num_paths(pathsets[Rq1Variation.ALL_CONSTANT]) == 1, path.name
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    _report(1, "route-determinism",
            f"({len(fixtures)} fixtures, {elapsed:.2f}s)")


def test_criterion_2_trace_oracle_equivalence():
    """On 1000 seeded loss-free random topologies, every responsive hop
    reported by the tracer equals the oracle walk, inside 60 seconds."""
    started = time.monotonic()
    rng = random.Random(20240)
    protocols = [AppProtocol.DNS, AppProtocol.HTTP, AppProtocol.HTTPS]
    checked_hops = 0
    for trial in range(1000):
        topology = random_topology(rng.randrange(2**32), max_nodes=40, max_fanout=4)
        dst = _endpoint(topology).id
        protocol = protocols[trial % 3]
        for _ in range(3):
            params = SourceParams(
                Ipv4Address(0xC6336400 + rng.randrange(1, 255)),
                rng.randrange(32768, 61000),
            )
            oracle = oracle_paths(
                topology, dst, [params], protocol.transport, protocol.port
            )[params]
            spec = ProbeSpec(
                protocol, topology.nodes[dst].address, "example.com",
                Sensitivity.SENSITIVE, params,
            )
            path = trace_spec(spec, 32, SimTransport(topology))
            assert path.terminal.kind is TerminalKind.REACHED_DESTINATION
            assert len(path.hops) == len(oracle) - 1
            for pos, hop in enumerate(path.hops):
                expected = oracle[pos]
                if topology.nodes[expected].responsive:
                    assert hop == expected
                    checked_hops += 1
                else:
                    assert hop is None
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    _report(2, "trace-oracle-equivalence",
            f"(1000 topologies, {checked_hops} responsive hops, {elapsed:.2f}s)")


def test_criterion_3_classifier_conservativeness():
    """10^4 censor-free lossy trials never classify as Censored, inside
    60 seconds."""
    started = time.monotonic()
    rng = random.Random(30303)
    protocols = [AppProtocol.DNS, AppProtocol.HTTP, AppProtocol.HTTPS]
    pool = [
        random_topology(rng.randrange(2**32), max_nodes=10, loss_range=(0.0, 0.2))
        for _ in range(2000)
    ]
    verdict_kinds = set()
    for trial in range(10_000):
        topology = pool[trial % len(pool)]
        protocol = protocols[trial % 3]
        params = SourceParams(
            Ipv4Address(0xC6336400 + rng.randrange(1, 255)),
            rng.randrange(32768, 61000),
        )
        dst = _endpoint(topology).address
        transport = SimTransport(topology)
        result = run_cell(Cell(protocol, dst, DOMAINS), params, transport)
        verdict = classify(result.control, result.sensitive, protocol)
        assert result.verdict == verdict
        assert not verdict.is_censored
        verdict_kinds.add(verdict.kind.value)
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    _report(3, "classifier-conservativeness",
            f"(10000 trials, outcomes {sorted(verdict_kinds)}, {elapsed:.2f}s)")


def test_criterion_4_flapping_exclusion():
    """A censor flipping health every epoch is Excluded in 100/100
    seeded trials under 3 repetitions."""
    excluded = 0
    for seed in range(100):
        topology = flapping(load_fixture("rst_chain.topo"),
                            [(2, Health.FAILED), (3, Health.ACTIVE)])
        rng = random.Random(seed)
        params = SourceParams(
            Ipv4Address(0xC6336400 + rng.randrange(1, 255)),
            rng.randrange(32768, 61000),
        )
        dst = topology.nodes[3].address
        transport = SimTransport(topology)
        result = run_cell(Cell(AppProtocol.HTTPS, dst, DOMAINS), params, transport)
        verdict = classify(result.control, result.sensitive, AppProtocol.HTTPS)
        assert result.verdict == verdict
        assert verdict.is_excluded, f"seed {seed}: {verdict}"
        excluded += 1
    _report(4, "flapping-exclusion", f"({excluded}/100 excluded)")


def test_criterion_5_bit_pattern_reproduction(registry):
    """3-of-8 censored low-bit branches: exactly three groups carry
    censored cells and the clear fraction is exactly 5/8."""
    topology = load_fixture("bits3of8.topo")
    dest = topology.nodes[9].address
    plan = plan_rq2([dest], seed=55)
    with scratch_log() as log:
        run_rq2(plan, SimTransport(topology), log, protocols=[AppProtocol.HTTP],
                registry=registry)
        matrix = logged_matrices(log)[(dest, AppProtocol.HTTP)]

    rows = bit_group_summary({dest: matrix}, BitGrouping.SRC_IP_LOW3)
    positive = {r.group for r in rows if r.censored_cells > 0}
    zero = {r.group for r in rows if r.censored_cells == 0}
    assert positive == {"001", "100", "110"}
    assert len(zero) == 5
    fraction = no_censorship_fraction(matrix)
    assert fraction == Fraction(5, 8)
    _report(5, "bit-pattern-reproduction",
            f"(groups>0: {sorted(positive)}, fraction {fraction})")


def test_criterion_6_half_split_cdf(tmp_path, registry):
    """Half-split fixture: clear fraction exactly 1/2 and the emitted
    CDF data contains the 0.5 step."""
    topology = load_fixture("half_split.topo")
    dest = topology.nodes[3].address
    plan = plan_rq2([dest], seed=66)
    with scratch_log() as log:
        run_rq2(plan, SimTransport(topology), log, protocols=[AppProtocol.HTTPS],
                registry=registry)
        fraction = no_censorship_fraction(logged_matrices(log)[(dest, AppProtocol.HTTPS)])
    assert fraction == Fraction(1, 2)

    dests = tmp_path / "dests.txt"
    dests.write_text("3\n")
    log = tmp_path / "run.log"
    code = cli_main([
        "rq2", "--topology", str(FIXTURES / "half_split.topo"),
        "--dests", str(dests), "--seed", "66", "--out", str(log),
        "--protocols", "https",
    ])
    assert code == 0
    cdf_text = (tmp_path / "run_cdf.csv").read_text()
    assert "https,0.5000,1.0000" in cdf_text
    _report(6, "half-split-cdf", f"(fraction {fraction}, CDF step at 0.5000)")


def test_criterion_7_effect_taxonomy(registry):
    """20/20 labeled fixture instances classify to their family, plus
    5/5 paired intra/inter scope discriminations."""
    from builders import (
        build_type1, build_type2, build_type3, build_type4,
    )
    from test_analysis import run_fixture_pipeline

    hits = 0
    for seed in range(5):
        for builder in (build_type1, build_type2, build_type3, build_type4):
            fx = builder(seed)
            report = run_fixture_pipeline(fx)
            assert report.effect is fx.expected_effect, (builder.__name__, seed)
            if fx.expected_scope is not None:
                assert report.scope is fx.expected_scope, (builder.__name__, seed)
            hits += 1
    assert hits == 20

    pairs = 0
    for seed in range(100, 105):
        intra = run_fixture_pipeline(build_type1(seed, Scope.INTRA_AS))
        inter = run_fixture_pipeline(build_type1(seed, Scope.INTER_AS))
        assert intra.scope is Scope.INTRA_AS, seed
        assert inter.scope is Scope.INTER_AS, seed
        pairs += 1
    _report(7, "effect-taxonomy", f"({hits}/20 families, {pairs}/5 scope pairs)")


def test_criterion_8_rq1_mode_separation():
    """Hashing only the source IP makes vary-ip dominate vary-port, and
    symmetrically for source-port hashing, across 20 seeds."""
    cases = [("srcip_hash.topo", 5, True), ("srcport_hash.topo", 5, False)]
    for fixture_name, dst_node, ip_dominates in cases:
        topology = load_fixture(fixture_name)
        dest = topology.nodes[dst_node].address
        for seed in range(20):
            plans = [p for p in plan_rq1(dest, AppProtocol.HTTP, seed=seed)
                     if p.variation in (Rq1Variation.VARY_IP, Rq1Variation.VARY_PORT)]
            with scratch_log() as log:
                pathsets = run_rq1(plans, SimTransport(topology), log)
            n_ip = num_paths(pathsets[Rq1Variation.VARY_IP])
            n_port = num_paths(pathsets[Rq1Variation.VARY_PORT])
            if ip_dominates:
                assert n_ip > n_port, (fixture_name, seed, n_ip, n_port)
            else:
                assert n_port > n_ip, (fixture_name, seed, n_ip, n_port)
    _report(8, "rq1-mode-separation", "(2 fixtures x 20 seeds)")


def test_criterion_9_end_to_end_determinism(tmp_path):
    """Two identical rq2 invocations emit byte-identical CSV reports."""
    outputs = []
    for name in ("first", "second"):
        workdir = tmp_path / name
        workdir.mkdir()
        dests = workdir / "dests.txt"
        dests.write_text("3\n")
        log = workdir / "run.log"
        code = cli_main([
            "rq2", "--topology", str(FIXTURES / "half_split.topo"),
            "--dests", str(dests), "--seed", "99", "--out", str(log),
            "--protocols", "http,https",
            "--registry", str(FIXTURES / "blockpages.json"),
        ])
        assert code == 0
        outputs.append(
            (
                (workdir / "run_table.csv").read_bytes(),
                (workdir / "run_cdf.csv").read_bytes(),
                (workdir / "run.log").read_bytes(),
            )
        )
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]
    assert outputs[0][2] == outputs[1][2]
    _report(9, "end-to-end-determinism", "(table, cdf, and log byte-identical)")


def test_criterion_10_suite_wall_clock():
    """The whole test session stays under the 5 minute budget. This
    module is ordered last, so everything else has already run."""
    elapsed = time.monotonic() - conftest.SESSION_START
    assert elapsed < 300.0, f"suite at {elapsed:.0f}s"
    _report(10, "suite-wall-clock", f"({elapsed:.1f}s of 300s budget)")
