import gc
import json
import random
from collections import Counter

import pytest

from flowstable.analysis import no_censorship_fraction, num_paths
from flowstable.core import AppProtocol, EPHEMERAL_PORT_RANGE, Ipv4Address, Mechanism, Verdict
from flowstable import experiments, logio
from flowstable.experiments import (
    EmptyCandidatesError,
    Rq1Variation,
    Rq2Summary,
    flow_trace_id,
    plan_rq1,
    plan_rq2,
    run_rq1,
    run_rq2,
)
from flowstable.cli import cli_main
from flowstable.prober import LiveTransport, SimTransport, is_affected

from conftest import FIXTURES, load_fixture, logged_matrices, scratch_log
from reference import log_bytes, verdict_record

DEST = Ipv4Address.parse("10.0.3.4")  # chain.topo endpoint


def cited(lines):
    """The indexes of the verdict and trace lines among a log's lines:
    those that cite a body and name no record_kind."""
    return [i for i, line in enumerate(lines) if "record_kind" not in json.loads(line)]


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
            assert (s.src_ip.value & 0xFF) not in (0, 255)

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
        assert all((ip.value & 0xFF) not in (0, 255) for ip in ips)

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
        with scratch_log() as log:
            pathsets = run_rq1(plans, SimTransport(topo), log)
        assert num_paths(pathsets[Rq1Variation.ALL_CONSTANT]) == 1

    def test_rq1_all_constant_traces_its_source_once(self, tmp_path):
        # The plan's 144 samples share one source, so one run on the
        # transport, and 144 lines citing one body; a resumed run takes the
        # lines its log holds and traces the source once for the rest.
        topo = load_fixture("half_split.topo")
        plans = [p for p in plan_rq1(topo.nodes[3].address, AppProtocol.HTTP, seed=7)
                 if p.variation is Rq1Variation.ALL_CONSTANT]

        def counted_transport():
            transport = SimTransport(topo)
            run = transport.run
            transport.run = lambda flow, key, probe: runs.append(flow) or run(flow, key, probe)
            return transport

        runs = []
        full_log = tmp_path / "full.log"
        full = run_rq1(plans, counted_transport(), logio.open_run(full_log, "rq1"))
        assert len(runs) == 1
        lines = full_log.read_bytes().splitlines(keepends=True)
        traces = cited(lines)
        assert len(traces) == 144
        assert len({json.loads(lines[i])["body"] for i in traces}) == 1

        runs.clear()
        partial_log = tmp_path / "partial.log"
        partial_log.write_bytes(b"".join(lines[:traces[69] + 1]))
        resumed = run_rq1(plans, counted_transport(), logio.open_run(partial_log, "rq1"))
        assert len(runs) == 1
        assert resumed == full
        assert partial_log.read_bytes() == full_log.read_bytes()

    def test_rq1_vary_ip_exercises_every_branch(self):
        topo = load_fixture("bits3of8.topo")
        dest = topo.nodes[9].address
        plans = [p for p in plan_rq1(dest, AppProtocol.HTTP, seed=2)
                 if p.variation is Rq1Variation.VARY_IP]
        with scratch_log() as log:
            pathsets = run_rq1(plans, SimTransport(topo), log)
        assert num_paths(pathsets[Rq1Variation.VARY_IP]) == 8

    def test_rq2_half_split_affected(self, registry):
        topo = load_fixture("half_split.topo")
        dest = topo.nodes[3].address
        plan = plan_rq2([dest], seed=5)
        with scratch_log() as log:
            summaries = run_rq2(plan, SimTransport(topo), log,
                                protocols=[AppProtocol.HTTPS], registry=registry)
            matrix = logged_matrices(log)[(dest, AppProtocol.HTTPS)]
        assert is_affected(matrix)
        assert no_censorship_fraction(matrix) == 0.5
        decided = tuple(params for params in plan.grid if not matrix[params].is_excluded)
        assert summaries == {(dest, AppProtocol.HTTPS): Rq2Summary(True, 0.5, decided)}

    def test_rq1_resumable(self, tmp_path):
        topo = load_fixture("half_split.topo")
        dest = topo.nodes[3].address
        plans = [p for p in plan_rq1(dest, AppProtocol.HTTP, seed=7)
                 if p.variation is Rq1Variation.VARY_IP]
        full_log = tmp_path / "full.log"
        full = run_rq1(plans, SimTransport(topo), log=logio.open_run(full_log, "rq1"))
        lines = full_log.read_bytes().splitlines(keepends=True)
        traces = cited(lines)
        assert len(traces) == 144  # one line per trace, after the meta record
        assert "record_kind" in json.loads(lines[0])

        # interruption between sample appends: keep the first 70 samples
        partial_log = tmp_path / "partial.log"
        partial_log.write_bytes(b"".join(lines[:traces[69] + 1]))
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
        cells = cited(lines)
        assert len(cells) == 1664  # one line per cell, after the meta record
        assert "record_kind" in json.loads(lines[0])

        # interruption between cell appends: keep the first third of the cells
        partial_log = tmp_path / "partial.log"
        partial_log.write_bytes(b"".join(lines[:cells[1664 // 3 - 1] + 1]))
        log = logio.open_run(partial_log, "rq2")
        assert sum(map(len, log.verdicts.values())) == 1664 // 3
        resumed = run_rq2(plan, SimTransport(topo), protocols=[AppProtocol.HTTP],
                          registry=registry, log=log)

        assert full == resumed
        assert partial_log.read_bytes() == full_log.read_bytes()
        assert logio.read_run(partial_log, "rq2").verdicts == logio.read_run(
            full_log, "rq2").verdicts

    def test_rq2_keeps_no_matrix_past_its_turn(self, tmp_path, registry):
        # Neither a fresh sweep nor a resumed one leaves a matrix alive
        # once it returns: not in what it returns, nor in the log it read.
        topo = load_fixture("half_split.topo")
        dest = topo.nodes[3].address
        plan = plan_rq2([dest], seed=5)
        grid = set(plan.grid)

        def matrices():
            """The live dicts keyed by the plan's sources."""
            gc.collect()
            return [o for o in gc.get_objects() if type(o) is dict and o and set(o) <= grid]

        path = tmp_path / "run.log"
        log = logio.open_run(path, "rq2")
        summaries = run_rq2(plan, SimTransport(topo), protocols=[AppProtocol.HTTP],
                            registry=registry, log=log)
        assert matrices() == []
        assert summaries[(dest, AppProtocol.HTTP)].affected
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines[:cited(lines)[99] + 1]))
        log = logio.open_run(path, "rq2")
        assert len(log.verdicts[(dest, AppProtocol.HTTP)]) == 100
        assert run_rq2(plan, SimTransport(topo), protocols=[AppProtocol.HTTP],
                       registry=registry, log=log) == summaries
        assert log.verdicts == {}
        assert matrices() == []

    def test_rq2_matrix_appends_in_byte_batches(self, tmp_path, registry, monkeypatch):
        # Each append opens the log once: a matrix goes out in batches of
        # APPEND_BYTES or more, but the last, each of whole lines, and in
        # the bytes that appending its lines one by one writes.
        topo = load_fixture("half_split.topo")
        plan = plan_rq2([topo.nodes[3].address], seed=5)
        append, budget = logio.append_records, logio.APPEND_BYTES
        runs = []
        for held in (budget, 1):
            monkeypatch.setattr(logio, "APPEND_BYTES", held)
            path = tmp_path / f"{held}.log"
            log = logio.open_run(path, "rq2")
            start = path.stat().st_size
            chunks = []

            def spy(path, records):
                chunks.append("".join(records))
                append(path, records)

            monkeypatch.setattr(logio, "append_records", spy)
            run_rq2(plan, SimTransport(topo), log, protocols=[AppProtocol.HTTP],
                    registry=registry)
            monkeypatch.setattr(logio, "append_records", append)
            assert all(chunk.endswith("\n") for chunk in chunks)
            assert sum(map(len, chunks)) == path.stat().st_size - start
            runs.append((path.read_bytes(), chunks))
        (data, chunks), (reference, lines) = runs
        assert len(lines) == 1664  # one append per line, each body with its first
        assert len(chunks) <= -(-sum(map(len, chunks)) // budget) + 1
        assert data == reference

    def test_rq2_rerun_on_one_transport_identical(self, registry):
        topo = load_fixture("half_split.topo")
        dest = topo.nodes[3].address
        plan = plan_rq2([dest], seed=5)
        transport = SimTransport(topo)
        runs = []
        for _ in range(2):
            with scratch_log() as log:
                summaries = run_rq2(plan, transport, log, protocols=[AppProtocol.HTTPS],
                                    registry=registry)
                runs.append((summaries, logged_matrices(log), log.path.read_bytes()))
        first, again = runs
        assert first == again

    def test_rq2_unavailable_transport_logs_excluded_cells(self, tmp_path):
        plan = plan_rq2([DEST], seed=5)
        path = tmp_path / "live.log"
        log = logio.open_run(path, "rq2")
        assert run_rq2(plan, LiveTransport(), protocols=[AppProtocol.HTTP], log=log) == {
            (DEST, AppProtocol.HTTP): Rq2Summary(False, None, ())}
        (matrix,) = logged_matrices(log).values()
        assert set(matrix.values()) == {Verdict.excluded()}
        meta = {"record_kind": "meta", "run_id": "rq2", "schema_version": 3}
        records = [verdict_record("rq2", DEST, AppProtocol.HTTP, params, [], [],
                                  Verdict.excluded()) for params in plan.grid]
        assert logio.read_log(path) == [meta, *records]
        assert path.read_bytes() == log_bytes([meta, *records])
        run = logio.read_run(path)
        assert run.verdicts == {(DEST, AppProtocol.HTTP): matrix}
        assert run.repetitions == {0}


def test_trace_pass_looks_up_each_decided_cells_flow_trace_id(tmp_path, monkeypatch, capsys):
    # rq2's trace pass hands trace_flows each affected matrix in table
    # order, which writes each id's <dst>|<protocol>| part once per
    # matrix; every id it looks up must still be flow_trace_id's. The
    # dests file and --protocols name both in another order.
    document = json.loads((FIXTURES / "half_split.topo").read_text())
    document["nodes"].append({**document["nodes"][3], "id": 9, "subnet24": "10.0.9.0/24"})
    (tmp_path / "two.topo").write_text(json.dumps(document))
    (tmp_path / "two.dests").write_text("9\n3\n")
    other = Ipv4Address.parse("10.0.9.10")
    rng = random.Random(5)
    kinds = [Verdict.censored(Mechanism.RST_INJECTION), Verdict.not_censored(),
             Verdict.excluded()]
    matrices = {}

    def random_summaries(plan, transport, log, protocols, registry, repetitions):
        # each matrix's summary, its decided sources in grid order
        assert set(plan.destinations) == {DEST, other}
        matrices.update({(dst, protocol): {params: rng.choice(kinds) for params in plan.grid}
                         for dst in plan.destinations for protocol in protocols})
        matrices[(other, AppProtocol.DNS)] = dict.fromkeys(plan.grid, Verdict.not_censored())
        return {key: Rq2Summary(True, no_censorship_fraction(matrix), tuple(
                    params for params in plan.grid if not matrix[params].is_excluded))
                if is_affected(matrix) else Rq2Summary(False, None, ())
                for key, matrix in matrices.items()}

    looked_up = []
    monkeypatch.setattr(experiments, "run_rq2", random_summaries)
    monkeypatch.setattr(experiments, "take_trace",
                        lambda lines, trace_id, *rest: looked_up.append(trace_id))
    assert cli_main(["rq2", "--topology", str(tmp_path / "two.topo"),
                     "--dests", str(tmp_path / "two.dests"), "--protocols", "https,dns",
                     "--trace-affected", "--out", str(tmp_path / "run.log")]) == 0
    assert looked_up == [
        flow_trace_id(dst, protocol, params)
        for (dst, protocol), matrix in sorted(matrices.items(),
                                              key=lambda kv: (kv[0][0].value, kv[0][1].value))
        if is_affected(matrix)
        for params in sorted(matrix) if not matrix[params].is_excluded]
    assert len(looked_up) > 3 * 1664 // 2
