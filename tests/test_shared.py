"""One simulation per route and loss outcome: a shared result is the
flow's own result.

SimTransport.run keeps a probe's results per (route, everything but the
source) in a tree over the loss draws its runs consulted
(simnet.DrawTree): an inner node is the next distinct draw point, a
branch its outcome, a leaf a result. A later flow on that route
computes its own draw at each node on its way, one loss key per node,
and takes the leaf it reaches; a flow that reaches no leaf is simulated
and grafted on. That is exact because a run's result depends only on
its route, its key and its draws' outcomes in the order it consulted
them. rq2 encodes the fixed part of a line once per distinct result
(logio.SharedLines). These tests check that no flow can tell: on
random documents with loss, residual windows, health schedules, failed
rules and every action kind, each flow's cell and trace on one shared
transport equal what a fresh transport gives for that flow alone, and
each rq2 line equals the line encoded from that cell's own
observations; that the key covers the blockpage registry and each line
names its own run; that flows whose draws drop alike share one result;
that a 1664-cell matrix opens one session per (route, draw outcomes)
class, no more than it has routes plus cells whose own loss draws
drop; and that it encodes no more line parts than it opens sessions.
"""

import json
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowstable import logio, prober
from flowstable.censors import Health
from flowstable.core import (
    AppProtocol, FlowId, Ipv4Address, Mechanism, Sensitivity, SourceParams, Verdict,
)
from flowstable.experiments import plan_rq2, run_rq2
from flowstable.prober import (
    EMPTY_REGISTRY, BlockpageRegistry, Cell, ProbeSpec, Session,
    SimTransport, classify, run_cell,
)
from flowstable.simnet import Role, load_topology, route

from builders import trace_spec
from conftest import FIXTURES, flapping, logged_matrices, scratch_log
from reference import log_bytes, verdict_record
from test_hops import DOMAINS, censored_documents

schedules = st.lists(
    st.tuples(st.integers(0, 4), st.sampled_from(list(Health))), max_size=3
).map(lambda changes: sorted(changes, key=lambda change: change[0]))


def specs(dst, protocol, source, domain=DOMAINS[1]):
    return tuple(
        ProbeSpec(protocol, dst, name, sensitivity, source)
        for name, sensitivity in zip((DOMAINS[0], domain),
                                     (Sensitivity.CONTROL, Sensitivity.SENSITIVE))
    )


@settings(max_examples=120, deadline=None)
@given(censored_documents(), schedules, st.sampled_from(list(AppProtocol)), st.data())
def test_shared_results_equal_each_flows_own(doc, schedule, protocol, data):
    topology = load_topology(doc)
    if schedule:
        topology = flapping(topology, schedule)
    endpoints = [n for n in topology.nodes.values() if n.role is Role.ENDPOINT]
    dst = data.draw(st.sampled_from(endpoints)).address
    hosts = data.draw(st.lists(st.integers(1, 254), min_size=1, max_size=4, unique=True))
    ports = data.draw(st.lists(st.integers(0, 2**16 - 1), min_size=1, max_size=3,
                               unique=True))
    # Flows differ in source and, on the same route, may differ in what
    # else the probe fixes: sensitive domain, repetitions, ladder height.
    probes = [
        (SourceParams(Ipv4Address(0xC6336400 + h), port),
         data.draw(st.sampled_from(["blocked.example", "other.example", "benign.test"])),
         data.draw(st.integers(1, 3)), data.draw(st.integers(1, 20)))
        for h in hosts for port in ports
    ]

    shared = SimTransport(topology)
    for source, domain, reps, _ in probes:
        cell = Cell(protocol, dst, (DOMAINS[0], domain), reps)
        assert run_cell(cell, source, shared) == run_cell(cell, source, SimTransport(topology))
    for source, domain, _, max_ttl in probes:
        for spec in specs(dst, protocol, source, domain):
            assert trace_spec(spec, max_ttl, shared) == trace_spec(
                spec, max_ttl, SimTransport(topology))


#: Domains whose JSON needs escaping: quotes, backslashes, control and
#: non-ASCII characters. "*.example" rules still match them.
domains = st.text(alphabet='ab"\\\t\u00e9\u2028\U0001f600', min_size=1, max_size=5).map(
    lambda name: name + ".example")


@settings(max_examples=100, deadline=None)
@given(censored_documents(), schedules, st.sampled_from(list(AppProtocol)), domains, domains,
       st.booleans(), st.integers(1, 3), st.data())
def test_rq2_lines_equal_each_cells_own_record(
    tmp_path_factory, doc, schedule, protocol, control, sensitive, blockpages, reps, data
):
    topology = load_topology(doc)
    if schedule:
        topology = flapping(topology, schedule)
    endpoints = [n for n in topology.nodes.values() if n.role is Role.ENDPOINT]
    dst = data.draw(st.sampled_from(endpoints)).address
    hosts = data.draw(st.lists(st.integers(1, 254), min_size=1, max_size=8, unique=True))
    ports = data.draw(st.lists(st.integers(0, 2**16 - 1), min_size=1, max_size=4,
                               unique=True))
    grid = tuple(SourceParams(Ipv4Address(0xC6336400 + h), port) for h in hosts for port in ports)
    # run_rq2 reads only these fields; a small grid keeps the example fast.
    plan = SimpleNamespace(destinations=(dst,), grid=grid, domain_pair=(control, sensitive))
    registry = BlockpageRegistry({"bp-01": "notice"}) if blockpages else EMPTY_REGISTRY

    path = tmp_path_factory.mktemp("rq2") / "run.log"
    log = logio.open_run(path, "run-\"\u00e9", repetitions=reps, command="rq2")
    run_rq2(plan, SimTransport(topology), protocols=[protocol], registry=registry,
            repetitions=reps, log=log)

    expected = []
    for source in grid:
        own = run_cell(Cell(protocol, dst, (control, sensitive), reps, registry), source,
                       SimTransport(topology))
        verdict = classify(own.control, own.sensitive, protocol, registry)
        expected.append(verdict_record(log.run_id, dst, protocol, source, own.control,
                                       own.sensitive, verdict))
    meta = logio.read_log(path)[0]
    assert logio.read_log(path) == [meta, *expected]
    assert path.read_bytes() == log_bytes([meta, *expected])


def test_key_covers_registry_and_run_id(tmp_path, registry):
    # One transport keeps its results across calls for one (destination,
    # protocol): a later call must not take a result whose verdict read
    # another registry, nor write a line that names another run.
    topology = load_topology((FIXTURES / "blockpage_chain.topo").read_text())
    plan = plan_rq2([topology.nodes[3].address], seed=1)
    transport = SimTransport(topology)
    for blockpages, expected in ((EMPTY_REGISTRY, {Verdict.excluded()}),
                                 (registry, {Verdict.censored(Mechanism.BLOCKPAGE)})):
        for run_id in ("run-a", "run-b"):
            path = tmp_path / f"{run_id}-{len(expected)}-{blockpages is registry}.log"
            log = logio.open_run(path, run_id, command="rq2")
            run_rq2(plan, transport, protocols=[AppProtocol.HTTP], registry=blockpages,
                    log=log)
            (matrix,) = logged_matrices(log).values()
            assert set(matrix.values()) == expected
            records = logio.read_log(path)
            assert len(records) == 1 + 1664
            assert {r["run_id"] for r in records} == {run_id}
            assert logio.read_run(path).verdicts == {
                (topology.nodes[3].address, AppProtocol.HTTP): matrix}


@pytest.fixture
def opened(monkeypatch):
    """Every session opened while the test runs."""
    sessions = []
    init = Session.__init__

    def recording_init(self, *args):
        init(self, *args)
        sessions.append(self)

    monkeypatch.setattr(Session, "__init__", recording_init)
    return sessions


def test_later_flows_replay_their_own_loss_draws(opened):
    # Light loss on both of half_split's routers: most cells draw no
    # drop, so each route keeps a result early, and later cells on that
    # route whose own draws drop must not be handed it.
    doc = json.loads((FIXTURES / "half_split.topo").read_text())
    doc["loss"] = [{"node": 1, "p": 0.03}, {"node": 2, "p": 0.03}]
    topology = load_topology(doc)
    dst = topology.nodes[3].address
    cell = Cell(AppProtocol.HTTPS, dst, DOMAINS)
    shared = SimTransport(topology)
    kept, replayed = set(), 0
    for source in plan_rq2([dst], seed=1).grid[:320]:
        opened.clear()
        own = run_cell(cell, source, SimTransport(topology))
        (session,) = opened
        assert run_cell(cell, source, shared) == own
        if not any(session.draws.values()):
            kept.add(session.route.nodes)
        elif session.route.nodes in kept:
            replayed += 1
    assert len(kept) == 2
    assert replayed >= 20


def test_flows_that_drop_alike_share_one_result(opened):
    # On lossy half_split routes, cells whose own draws drop at the same
    # points, with the same outcomes everywhere else, take one result
    # object: the first of them is simulated and the later ones take its
    # result. Each result is what a fresh transport gives for that cell.
    doc = json.loads((FIXTURES / "half_split.topo").read_text())
    doc["loss"] = [{"node": 1, "p": 0.1}, {"node": 2, "p": 0.1}]
    topology = load_topology(doc)
    dst = topology.nodes[3].address
    cell = Cell(AppProtocol.HTTPS, dst, DOMAINS)
    shared = SimTransport(topology)
    by_outcomes = {}
    for source in plan_rq2([dst], seed=1).grid[:400]:
        opened.clear()
        own = run_cell(cell, source, SimTransport(topology))
        (session,) = opened
        result = run_cell(cell, source, shared)
        assert result == own
        if any(session.draws.values()):
            key = (session.route.nodes, tuple(session.draws.items()))
            by_outcomes.setdefault(key, []).append(result)
    alike = [results for results in by_outcomes.values() if len(results) >= 3]
    assert len(alike) >= 5
    for results in alike:
        assert all(result is results[0] for result in results)


@pytest.mark.parametrize("p", [0.0, 0.05])
def test_matrix_opens_a_session_per_route_plus_fallbacks(opened, p):
    doc = json.loads((FIXTURES / "half_split.topo").read_text())
    doc["loss"] = [{"node": 1, "p": p}, {"node": 2, "p": p}] if p else []
    topology = load_topology(doc)
    dst = topology.nodes[3].address
    plan = plan_rq2([dst], seed=1)
    protocol = AppProtocol.HTTPS

    routes, fallbacks = set(), 0
    for source in plan.grid:
        flow = FlowId(source.src_ip, dst, source.src_port, protocol.port, protocol.transport)
        routes.add(route(topology, flow))
        # A fresh transport simulates the cell in full, in one session.
        opened.clear()
        run_cell(Cell(protocol, dst, DOMAINS), source, SimTransport(topology))
        (session,) = opened
        fallbacks += any(session.draws.values())

    opened.clear()
    with scratch_log() as log:
        run_rq2(plan, SimTransport(topology), log, protocols=[protocol])
        (matrix,) = logged_matrices(log).values()
    assert len(matrix) == 1664
    assert len(opened) <= len(routes) + fallbacks
    if p:
        assert fallbacks > 0
    else:
        assert len(opened) == len(routes)


def test_matrix_opens_a_session_per_route_and_loss_outcome(opened):
    # One session per class of cells with equal route and equal draw
    # outcomes, each point at its first draw, as fresh transports see them.
    doc = json.loads((FIXTURES / "half_split.topo").read_text())
    doc["loss"] = [{"node": 1, "p": 0.05}, {"node": 2, "p": 0.05}]
    topology = load_topology(doc)
    dst = topology.nodes[3].address
    plan = plan_rq2([dst], seed=1)
    protocol = AppProtocol.HTTPS
    classes = set()
    for source in plan.grid:
        opened.clear()
        run_cell(Cell(protocol, dst, DOMAINS), source, SimTransport(topology))
        (session,) = opened
        classes.add((session.route.nodes, tuple(session.draws.items())))

    opened.clear()
    with scratch_log() as log:
        run_rq2(plan, SimTransport(topology), log, protocols=[protocol])
        (matrix,) = logged_matrices(log).values()
    assert len(matrix) == 1664
    assert len(opened) == len(classes)


def test_rq2_encodes_a_line_once_per_simulated_result(opened, monkeypatch):
    # Every cell that takes a shared result takes the same object, so the
    # fixed part of its line is encoded once for all of them.
    doc = json.loads((FIXTURES / "half_split.topo").read_text())
    doc["loss"] = [{"node": 1, "p": 0.05}, {"node": 2, "p": 0.05}]
    topology = load_topology(doc)
    dst = topology.nodes[3].address
    plan = plan_rq2([dst], seed=1)
    encodings = []
    encode = logio.encode_record

    def counting_encode(record):
        encodings.append(record)
        return encode(record)

    with scratch_log() as log:
        monkeypatch.setattr(logio, "encode_record", counting_encode)
        opened.clear()
        run_rq2(plan, SimTransport(topology), log, protocols=[AppProtocol.HTTPS])
        encoded = len(encodings)
        (matrix,) = logged_matrices(log).values()
    assert len(matrix) == 1664
    assert 0 < encoded <= len(opened) < 1664


def test_results_past_the_limit_are_not_kept(opened, monkeypatch):
    # half_split splits the matrix over two routes; with room for one
    # kept result, the first route's cells share it and every cell of the
    # second is simulated on its own, with the same verdicts.
    topology = load_topology(json.loads((FIXTURES / "half_split.topo").read_text()))
    plan = plan_rq2([topology.nodes[3].address], seed=1)
    protocols = [AppProtocol.HTTPS]
    with scratch_log() as log:
        run_rq2(plan, SimTransport(topology), log, protocols=protocols)
        (expected,) = logged_matrices(log).values()
    assert len(opened) == 2

    monkeypatch.setattr(prober, "SHARED_LIMIT", 1)
    opened.clear()
    transport = SimTransport(topology)
    with scratch_log() as log:
        run_rq2(plan, transport, log, protocols=protocols)
        (matrix,) = logged_matrices(log).values()
    assert matrix == expected
    assert len(transport._shared) == 1
    assert len(opened) == 1 + 1664 // 2
