from collections import Counter

import pytest

from flowstable.analysis import no_censorship_fraction, num_paths
from flowstable.core import AppProtocol, EPHEMERAL_PORT_RANGE, Ipv4Address
from flowstable import logio
from flowstable.experiments import (
    EmptyCandidatesError,
    Rq1Variation,
    plan_rq1,
    plan_rq2,
    run_rq1,
    run_rq2,
)
from flowstable.prober import SimTransport, is_affected

from conftest import load_fixture

DEST = Ipv4Address.parse("10.0.3.4")  # chain.topo endpoint


class TestPlanRq1:
    def test_four_plans_of_144(self):
        plans = plan_rq1(DEST, AppProtocol.HTTP, seed=1)
        assert [p.variation for p in plans] == list(Rq1Variation)
        assert all(len(p.samples) == 144 for p in plans)

    def test_all_constant_identical(self):
        plan = plan_rq1(DEST, AppProtocol.HTTP, seed=1)[0]
        assert len(set(plan.samples)) == 1

    def test_vary_port_distinct_ephemeral(self):
        plan = plan_rq1(DEST, AppProtocol.HTTP, seed=1)[1]
        assert len({s.src_port for s in plan.samples}) == 144
        assert len({s.src_ip for s in plan.samples}) == 1
        lo, hi = EPHEMERAL_PORT_RANGE
        assert all(lo <= s.src_port <= hi for s in plan.samples)

    def test_vary_ip_distinct_in_prefix(self):
        plan = plan_rq1(DEST, AppProtocol.HTTP, seed=1)[2]
        assert len({s.src_ip for s in plan.samples}) == 144
        assert len({s.src_port for s in plan.samples}) == 1
        for s in plan.samples:
            assert s.src_ip.value & 0xFFFFFF00 == 0xC6336400
            assert s.src_ip.host_octet not in (0, 255)

    def test_vary_both_12_by_12(self):
        plan = plan_rq1(DEST, AppProtocol.HTTP, seed=1)[3]
        assert len({s.src_ip for s in plan.samples}) == 12
        assert len({s.src_port for s in plan.samples}) == 12
        assert len(set(plan.samples)) == 144

    def test_same_seed_identical_plans(self):
        a = plan_rq1(DEST, AppProtocol.HTTP, seed=5)
        b = plan_rq1(DEST, AppProtocol.HTTP, seed=5)
        assert a == b

    def test_different_seed_differs(self):
        a = plan_rq1(DEST, AppProtocol.HTTP, seed=5)
        b = plan_rq1(DEST, AppProtocol.HTTP, seed=6)
        assert a != b


class TestPlanRq2:
    def test_grid_size_and_histogram(self):
        plan = plan_rq2([DEST], seed=3)
        assert len(plan.grid) == 1664
        ips = {s.src_ip for s in plan.grid}
        assert len(ips) == 208
        histogram = Counter(ip.low_bits(3) for ip in ips)
        assert histogram == Counter({c: 26 for c in range(8)})
        assert all(ip.host_octet not in (0, 255) for ip in ips)

    def test_ports_distinct_ephemeral(self):
        plan = plan_rq2([DEST], seed=3)
        ports = {s.src_port for s in plan.grid}
        assert len(ports) == 8
        lo, hi = EPHEMERAL_PORT_RANGE
        assert all(lo <= p <= hi for p in ports)

    def test_seed_changes_ports_histogram_invariant(self):
        a = plan_rq2([DEST], seed=3)
        b = plan_rq2([DEST], seed=4)
        assert {s.src_port for s in a.grid} != {s.src_port for s in b.grid}
        for plan in (a, b):
            histogram = Counter(ip.low_bits(3) for ip in {s.src_ip for s in plan.grid})
            assert set(histogram.values()) == {26}

    def test_empty_destinations(self):
        with pytest.raises(EmptyCandidatesError):
            plan_rq2([], seed=1)


class TestRunners:
    def test_rq1_all_constant_deterministic_fixture(self):
        topo = load_fixture("chain.topo")
        plans = [p for p in plan_rq1(DEST, AppProtocol.HTTP, seed=2)
                 if p.variation is Rq1Variation.ALL_CONSTANT]
        pathsets = run_rq1(plans, SimTransport(topo))
        assert num_paths(pathsets[Rq1Variation.ALL_CONSTANT]) == 1

    def test_rq1_vary_ip_exercises_every_branch(self):
        topo = load_fixture("bits3of8.topo")
        dest = topo.nodes[9].address
        plans = [p for p in plan_rq1(dest, AppProtocol.HTTP, seed=2)
                 if p.variation is Rq1Variation.VARY_IP]
        pathsets = run_rq1(plans, SimTransport(topo))
        assert num_paths(pathsets[Rq1Variation.VARY_IP]) == 8

    def test_rq2_half_split_affected(self, registry):
        topo = load_fixture("half_split.topo")
        dest = topo.nodes[3].address
        plan = plan_rq2([dest], seed=5)
        matrices = run_rq2(plan, SimTransport(topo),
                           protocols=[AppProtocol.HTTPS], registry=registry)
        matrix = matrices[(dest, AppProtocol.HTTPS)]
        assert is_affected(matrix)
        assert no_censorship_fraction(matrix) == 0.5

    def test_rq1_resumable(self, tmp_path):
        topo = load_fixture("half_split.topo")
        dest = topo.nodes[3].address
        plans = [p for p in plan_rq1(dest, AppProtocol.HTTP, seed=7)
                 if p.variation is Rq1Variation.VARY_IP]
        full_log = tmp_path / "full.log"
        full = run_rq1(plans, SimTransport(topo), log=logio.open_run(full_log, "rq1"))
        lines = full_log.read_bytes().splitlines(keepends=True)
        assert len(lines) == 1 + 144  # the meta record, then one line per trace

        # interruption between sample appends: keep the first 70 samples
        partial_log = tmp_path / "partial.log"
        partial_log.write_bytes(b"".join(lines[:1 + 70]))
        resumed = run_rq1(plans, SimTransport(topo),
                          log=logio.open_run(partial_log, "rq1"))

        assert full == resumed
        assert partial_log.read_bytes() == full_log.read_bytes()

    def test_rq2_resumable(self, tmp_path, registry):
        topo = load_fixture("half_split.topo")
        dest = topo.nodes[3].address
        plan = plan_rq2([dest], seed=5)
        full_log = tmp_path / "full.log"
        full = run_rq2(plan, SimTransport(topo), protocols=[AppProtocol.HTTP],
                       registry=registry, log=logio.open_run(full_log, "rq2"))
        lines = full_log.read_bytes().splitlines(keepends=True)
        assert len(lines) == 1 + 1664  # the meta record, then one line per cell

        # interruption between cell appends: keep the first third of the cells
        partial_log = tmp_path / "partial.log"
        partial_log.write_bytes(b"".join(lines[:1 + 1664 // 3]))
        log = logio.open_run(partial_log, "rq2")
        assert sum(map(len, log.verdicts.values())) == 1664 // 3
        resumed = run_rq2(plan, SimTransport(topo), protocols=[AppProtocol.HTTP],
                          registry=registry, log=log)

        assert full == resumed
        assert partial_log.read_bytes() == full_log.read_bytes()

    def test_rq2_rerun_on_one_transport_identical(self, registry):
        topo = load_fixture("half_split.topo")
        dest = topo.nodes[3].address
        plan = plan_rq2([dest], seed=5)
        transport = SimTransport(topo)
        first = run_rq2(plan, transport, protocols=[AppProtocol.HTTPS], registry=registry)
        again = run_rq2(plan, transport, protocols=[AppProtocol.HTTPS], registry=registry)
        assert first == again
