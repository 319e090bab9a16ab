import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flowstable.analysis import no_censorship_fraction
from flowstable.core import (
    AppProtocol,
    FlowId,
    Ipv4Address,
    Mechanism,
    Packet,
    PacketKind,
    Sensitivity,
    SourceParams,
    Verdict,
    VerdictKind,
)
from flowstable.censors import Health
from builders import random_topology
from flowstable.prober import (
    DEFAULT_REPETITIONS,
    BlockpageRegistry,
    Cell,
    LengthMismatchError,
    LiveTransport,
    Observation,
    ObservationKind,
    ProbeSpec,
    Session,
    SimTransport,
    TransportUnavailableError,
    classify,
    is_affected,
    run_cell,
)
from flowstable.simnet import compile_route, route

from conftest import flapping, load_fixture
from reference import is_affected as reference_is_affected

PARAMS = SourceParams(Ipv4Address.parse("198.51.100.7"), 40000)
DOMAINS = ("control.example", "blocked.example")


def spec_for(topology, protocol, sensitivity, domain):
    dst = topology.nodes[max(topology.nodes)].address
    return ProbeSpec(protocol, dst, domain, sensitivity, PARAMS)


def cell_result(topology, protocol, transport):
    """run_cell's result of one PARAMS cell."""
    dst = topology.nodes[max(topology.nodes)].address
    return run_cell(Cell(protocol, dst, DOMAINS), PARAMS, transport)


def cell_for(topology, protocol, transport):
    """run_cell's (control, sensitive) observations of one PARAMS cell."""
    result = cell_result(topology, protocol, transport)
    return result.control, result.sensitive


def verdict_grid(dst, grid, protocol, transport, repetitions=DEFAULT_REPETITIONS):
    cell = Cell(protocol, dst, DOMAINS, repetitions)
    return {p: run_cell(cell, p, transport).verdict for p in grid}


def obs(*kinds, tag=""):
    return [Observation(i + 1, k, tag) for i, k in enumerate(kinds)]


P = ObservationKind.PAYLOAD_RESPONSE
R = ObservationKind.RST_RECEIVED
D = ObservationKind.DNS_RESPONSE
N = ObservationKind.NO_RESPONSE
H = ObservationKind.HANDSHAKE_FAILED


class TestClassify:
    def test_rst_all_repetitions(self):
        verdict = classify(obs(P, P, P), obs(R, R, R), AppProtocol.HTTPS)
        assert verdict.mechanism is Mechanism.RST_INJECTION

    def test_mixed_rst_excluded(self):
        verdict = classify(obs(P, P, P), obs(R, P, R), AppProtocol.HTTPS)
        assert verdict.is_excluded

    def test_clean_payloads_not_censored(self):
        verdict = classify(obs(P, P, P, tag="origin:control.example"),
                           obs(P, P, P, tag="origin:blocked.example"), AppProtocol.HTTPS)
        assert verdict.is_not_censored

    def test_rst_in_control_blocks_censored(self):
        verdict = classify(obs(R, R, R), obs(R, R, R), AppProtocol.HTTPS)
        assert not verdict.is_censored

    def test_packet_drop(self):
        verdict = classify(obs(P, P, P), obs(N, H, N), AppProtocol.HTTPS)
        assert verdict.mechanism is Mechanism.PACKET_DROP

    def test_drop_needs_all_control_payloads(self):
        verdict = classify(obs(P, N, P), obs(N, N, N), AppProtocol.HTTPS)
        assert verdict.is_excluded

    def test_dns_injection(self):
        verdict = classify(obs(N, N, N), obs(D, D, D), AppProtocol.DNS)
        assert verdict.mechanism is Mechanism.DNS_INJECTION

    def test_dns_clean_is_silence(self):
        assert classify(obs(N, N, N), obs(N, N, N), AppProtocol.DNS).is_not_censored
        assert classify(obs(N, N, N), obs(D, D, N), AppProtocol.DNS).is_excluded

    def test_dns_injection_requires_dns_protocol(self):
        verdict = classify(obs(N, N, N), obs(D, D, D), AppProtocol.HTTP)
        assert verdict.is_excluded

    def test_blockpage_with_registry(self):
        registry = BlockpageRegistry({"bp-01": "x"})
        sensitive = obs(P, P, P, tag="bp-01")
        control = obs(P, P, P, tag="origin:control.example")
        verdict = classify(control, sensitive, AppProtocol.HTTP, registry)
        assert verdict.mechanism is Mechanism.BLOCKPAGE

    def test_unknown_template_is_not_blockpage(self):
        registry = BlockpageRegistry({"bp-01": "x"})
        sensitive = obs(P, P, P, tag="bp-99")
        control = obs(P, P, P, tag="origin:control.example")
        verdict = classify(control, sensitive, AppProtocol.HTTP, registry)
        assert verdict.is_excluded  # no registry match, and not the origin's body

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            classify(obs(P, P), obs(P, P, P), AppProtocol.HTTP)
        with pytest.raises(LengthMismatchError):
            classify([], [], AppProtocol.HTTP)

    def test_monotone_repetitions_on_deterministic_outcomes(self):
        for reps in (1, 3, 7):
            clean = classify(obs(*[P] * reps), obs(*[P] * reps, tag="origin:blocked.example"),
                             AppProtocol.HTTP)
            censored = classify(obs(*[P] * reps), obs(*[R] * reps), AppProtocol.HTTP)
            assert clean.is_not_censored
            assert censored.mechanism is Mechanism.RST_INJECTION


class TestRunProbe:
    """Probes run through run_cell; each check reads the control or
    sensitive half it is about."""

    def test_clean_http_probe(self):
        topo = load_fixture("chain.topo")
        obs_c, obs_s = cell_for(topo, AppProtocol.HTTP, SimTransport(topo))
        assert [o.kind for o in obs_s] == [P, P, P]
        assert all(o.tag == "origin:blocked.example" for o in obs_s)
        assert all(o.tag == "origin:control.example" for o in obs_c)

    def test_rst_censor_hits_sensitive_not_control(self):
        topo = load_fixture("rst_chain.topo")
        obs_c, obs_s = cell_for(topo, AppProtocol.HTTPS, SimTransport(topo))
        assert [o.kind for o in obs_s] == [R, R, R]
        assert [o.kind for o in obs_c] == [P, P, P]

    def test_dns_injection_vs_silent_control(self):
        topo = load_fixture("dns_inject_chain.topo")
        obs_c, obs_s = cell_for(topo, AppProtocol.DNS, SimTransport(topo))
        assert [o.kind for o in obs_s] == [D, D, D]
        assert all(o.tag == "answer-a" for o in obs_s)
        assert [o.kind for o in obs_c] == [N, N, N]

    def test_blockpage_censor(self):
        topo = load_fixture("blockpage_chain.topo")
        _, obs_s = cell_for(topo, AppProtocol.HTTP, SimTransport(topo))
        assert [o.kind for o in obs_s] == [P, P, P]
        assert all(o.tag == "bp-01" for o in obs_s)

    def test_route_stability_all_packets_one_flow(self, sent_packets):
        topo = load_fixture("chain.topo")
        spec = spec_for(topo, AppProtocol.HTTPS, Sensitivity.SENSITIVE, DOMAINS[1])
        cell_for(topo, AppProtocol.HTTPS, SimTransport(topo))
        assert sent_packets
        assert {p.flow for p in sent_packets} == {spec.flow}

    def test_observations_carry_distinct_epochs(self):
        topo = load_fixture("chain.topo")
        obs_c, obs_s = cell_for(topo, AppProtocol.HTTP, SimTransport(topo))
        assert [o.epoch for o in obs_c] == [o.epoch for o in obs_s] == [1, 2, 3]

    def test_live_transport_always_errors(self):
        topo = load_fixture("chain.topo")
        with pytest.raises(TransportUnavailableError):
            cell_for(topo, AppProtocol.HTTP, LiveTransport())

    def test_cell_specs_share_one_flow(self):
        topo = load_fixture("chain.topo")
        cell = Cell(AppProtocol.HTTP, topo.nodes[3].address, DOMAINS, repetitions=2)
        ctrl, sens = cell.specs(PARAMS)
        assert (ctrl.domain, ctrl.sensitivity) == (DOMAINS[0], Sensitivity.CONTROL)
        assert (sens.domain, sens.sensitivity) == (DOMAINS[1], Sensitivity.SENSITIVE)
        assert ctrl.flow == sens.flow == spec_for(
            topo, AppProtocol.HTTP, Sensitivity.CONTROL, DOMAINS[0]).flow
        with pytest.raises(ValueError):
            Cell(AppProtocol.HTTP, topo.nodes[3].address, DOMAINS, repetitions=0)

    def test_session_rejects_packet_of_another_flow(self):
        topo = load_fixture("chain.topo")
        spec = spec_for(topo, AppProtocol.HTTP, Sensitivity.CONTROL, DOMAINS[0])
        session = Session(compile_route(topo, spec.flow, route(topo, spec.flow)))
        flow = spec.flow
        same = FlowId(flow.src_ip, flow.dst_ip, flow.src_port, flow.dst_port, flow.protocol)
        assert same is not spec.flow
        assert session.send(Packet(same, ttl=64, kind=PacketKind.TCP_SYN)).responses
        other = FlowId(flow.src_ip, flow.dst_ip, flow.src_port + 1, flow.dst_port,
                       flow.protocol)
        with pytest.raises(ValueError):
            session.send(Packet(other, ttl=64, kind=PacketKind.TCP_SYN))

    def test_spec_port_protocol_coupling(self):
        for protocol in AppProtocol:
            spec = ProbeSpec(protocol, Ipv4Address(1), "d", Sensitivity.CONTROL, PARAMS)
            assert spec.flow.dst_port == protocol.port
            assert spec.flow.protocol is protocol.transport


class TestVerdictMatrix:
    def test_half_split_odd_cells_censored(self):
        topo = load_fixture("half_split.topo")
        transport = SimTransport(topo)
        grid = [SourceParams(Ipv4Address(0xC6336400 + h), 40000) for h in range(1, 17)]
        matrix = verdict_grid(topo.nodes[3].address, grid, AppProtocol.HTTPS, transport)
        for params, verdict in matrix.items():
            if (params.src_ip.value & 0xFF) % 2 == 1:
                assert verdict.mechanism is Mechanism.RST_INJECTION
            else:
                assert verdict.is_not_censored
        assert is_affected(matrix)
        assert no_censorship_fraction(matrix) == 0.5

    def test_censor_on_all_branches_not_affected(self):
        topo = load_fixture("rst_chain.topo")
        transport = SimTransport(topo)
        grid = [SourceParams(Ipv4Address(0xC6336400 + h), 40000) for h in range(1, 9)]
        matrix = verdict_grid(topo.nodes[3].address, grid, AppProtocol.HTTPS, transport)
        assert all(v.is_censored for v in matrix.values())
        assert not is_affected(matrix)

    def test_no_censor_not_affected(self):
        topo = load_fixture("chain.topo")
        transport = SimTransport(topo)
        grid = [SourceParams(Ipv4Address(0xC6336400 + h), 40000) for h in range(1, 9)]
        matrix = verdict_grid(topo.nodes[3].address, grid, AppProtocol.HTTPS, transport)
        assert all(v.is_not_censored for v in matrix.values())
        assert not is_affected(matrix)


#: One verdict of each kind.
_VERDICTS = {
    VerdictKind.CENSORED: Verdict.censored(Mechanism.RST_INJECTION),
    VerdictKind.NOT_CENSORED: Verdict.not_censored(),
    VerdictKind.EXCLUDED: Verdict.excluded(),
}


def _matrix(kinds):
    return {SourceParams(Ipv4Address(0xC6336400 + i), 40000): _VERDICTS[kind]
            for i, kind in enumerate(kinds)}


class TestIsAffected:
    @given(st.lists(st.sampled_from(list(VerdictKind)), max_size=40))
    def test_matches_set_reference(self, kinds):
        # Every mix of kinds, each any number of times, in any order.
        matrix = _matrix(kinds)
        assert is_affected(matrix) == reference_is_affected(matrix)


class TestGroundTruth:
    def test_every_action_has_exactly_one_event(self, censor_events):
        topo = load_fixture("rst_chain.topo")
        _, sens = cell_for(topo, AppProtocol.HTTPS, SimTransport(topo))
        assert [o.kind for o in sens] == [R, R, R]
        events = censor_events
        assert len(events) == 3  # one per sensitive payload, none extra
        assert all(e.at == 1 for e in events)
        assert sorted(e.epoch for e in events) == [1, 2, 3]

    def test_drop_actions_are_also_logged(self, censor_events):
        import json

        from conftest import FIXTURES

        doc = json.loads((FIXTURES / "rst_chain.topo").read_text())
        doc["censors"] = [{
            "attach_at": 1, "protocol": "https", "direction": "toward_destination",
            "domain_pattern": "blocked.example", "action": {"kind": "drop_silently"},
            "health": "active", "residual_epochs": 0,
        }]
        from flowstable.simnet import load_topology

        topo = load_topology(doc)
        _, sens = cell_for(topo, AppProtocol.HTTPS, SimTransport(topo))
        assert [o.kind for o in sens] == [N, N, N]
        assert len(censor_events) == 3

    def test_residual_censorship_pollutes_controls_into_excluded(self):
        import json

        from conftest import FIXTURES

        doc = json.loads((FIXTURES / "rst_chain.topo").read_text())
        doc["censors"] = [{
            "attach_at": 1, "protocol": "https", "direction": "toward_destination",
            "domain_pattern": "blocked.example", "action": {"kind": "inject_rst"},
            "health": "active", "residual_epochs": 2,
        }]
        from flowstable.simnet import load_topology

        topo = load_topology(doc)
        result = cell_result(topo, AppProtocol.HTTPS, SimTransport(topo))
        obs_c, obs_s = result.control, result.sensitive
        # the sensitive hit at epoch 1 poisons the shared flow, so later
        # control repetitions see injected resets too
        assert obs_c[0].kind is ObservationKind.PAYLOAD_RESPONSE
        assert {o.kind for o in obs_c[1:]} == {ObservationKind.RST_RECEIVED}
        assert classify(obs_c, obs_s, AppProtocol.HTTPS).is_excluded
        assert result.verdict.is_excluded

    def test_cell_order_does_not_change_verdicts(self):
        """Cells share nothing, so running a grid backwards on the same
        transport gives the same verdicts."""
        topo = load_fixture("half_split.topo")
        dst = topo.nodes[3].address
        transport = SimTransport(topo)
        grid = [SourceParams(Ipv4Address(0xC6336400 + h), 40000) for h in range(1, 9)]
        forward = verdict_grid(dst, grid, AppProtocol.HTTPS, transport)
        backward = verdict_grid(dst, grid[::-1], AppProtocol.HTTPS, transport)
        assert forward == backward


class TestConservativeness:
    def test_no_censor_with_loss_never_censored(self):
        """Sampled version of the full acceptance property."""
        rng = random.Random(99)
        for trial in range(300):
            topo = random_topology(rng.randrange(1_000_000), max_nodes=8,
                                   loss_range=(0.0, 0.2))
            transport = SimTransport(topo)
            protocol = (AppProtocol.DNS, AppProtocol.HTTP, AppProtocol.HTTPS)[trial % 3]
            params = SourceParams(Ipv4Address(0xC6336400 + rng.randrange(1, 255)),
                                  rng.randrange(32768, 61000))
            dst = topo.nodes[max(topo.nodes)].address
            result = run_cell(Cell(protocol, dst, DOMAINS), params, transport)
            assert result.verdict == classify(result.control, result.sensitive, protocol)
            assert not result.verdict.is_censored

    def test_flapping_censor_yields_excluded(self):
        topo = flapping(load_fixture("rst_chain.topo"),
                        [(2, Health.FAILED), (3, Health.ACTIVE)])
        transport = SimTransport(topo)
        result = cell_result(topo, AppProtocol.HTTPS, transport)
        assert classify(result.control, result.sensitive, AppProtocol.HTTPS).is_excluded
        assert result.verdict.is_excluded

    def test_monotone_repetitions_end_to_end(self):
        topo = load_fixture("half_split.topo")
        dst = topo.nodes[3].address
        verdicts = {}
        for reps in (1, 3, 6):
            transport = SimTransport(topo)
            matrix = verdict_grid(
                dst,
                [SourceParams(Ipv4Address(0xC6336401 + h), 40000) for h in range(4)],
                AppProtocol.HTTPS,
                transport,
                repetitions=reps,
            )
            verdicts[reps] = {p: v.kind for p, v in matrix.items()}
        assert verdicts[1] == verdicts[3] == verdicts[6]
