import builtins
import csv
import io
import json
import os
import subprocess
import sys

import pytest

from flowstable import logio
from flowstable.cli import cli_main

from conftest import FIXTURES


def run(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_shipped_fixtures_validate(self, capsys):
        for topo in sorted(FIXTURES.glob("*.topo")):
            code, out, _ = run(capsys, "validate", str(topo))
            assert code == 0, topo

    def test_schema_error_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.topo"
        bad.write_text(json.dumps({"nodes": [], "policies": [], "seed": 0, "x": 1}))
        code, _, err = run(capsys, "validate", str(bad))
        assert code == 2
        assert "data error" in err

    @pytest.mark.parametrize("edit", [
        lambda d: d["censors"][0].update(residual_epochs="1"),
        lambda d: d["censors"][0].update(residual_epochs=1.5),
        lambda d: d["policies"][0]["selector"].update(n_bits="1"),
        lambda d: d.update(loss=[{"node": 0, "p": None}]),
        lambda d: d["policies"][0].update(next_hops=1),
        lambda d: d["policies"][0].update(next_hops=[[1]]),
        lambda d: d.update(nodes=5),
        lambda d: d["policies"][0].update(selector={"kind": "hash_tuple", "fields": 5}),
    ], ids=["residual_str", "residual_float", "n_bits_str", "p_null", "next_hops_int",
            "next_hops_nested", "nodes_int", "fields_int"])
    def test_wrong_typed_field_exits_2(self, edit, tmp_path, capsys):
        doc = json.loads((FIXTURES / "rst_chain.topo").read_text())
        edit(doc)
        bad = tmp_path / "bad.topo"
        bad.write_text(json.dumps(doc))
        code, _, err = run(capsys, "validate", str(bad))
        assert code == 2
        assert "data error" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run(capsys, "validate", "no-such-file.topo")
        assert code == 2

    def test_usage_error_exits_1(self, capsys):
        assert cli_main(["rq1", "--topology", "x"]) == 1

    def test_unknown_subcommand_exits_1(self, capsys):
        assert cli_main(["frobnicate"]) == 1

    def test_jobs_flag_is_usage_error(self, tmp_path, capsys):
        dests = tmp_path / "dests.txt"
        dests.write_text("3\n")
        code, _, err = run(
            capsys, "rq2", "--topology", str(FIXTURES / "half_split.topo"),
            "--dests", str(dests), "--out", str(tmp_path / "run.log"), "--jobs", "2",
        )
        assert code == 1
        assert "usage error" in err


class TestTrace:
    def test_chain_three_hops_then_reached(self, capsys):
        code, out, _ = run(
            capsys, "trace", "--topology", str(FIXTURES / "chain.topo"),
            "--dest", "3", "--src-ip", "198.51.100.7", "--src-port", "40000",
            "--protocol", "http",
        )
        assert code == 0
        assert out.splitlines() == ["1 0", "2 1", "3 2", "reached"]

    def test_gap_printed_as_star(self, capsys):
        code, out, _ = run(
            capsys, "trace", "--topology", str(FIXTURES / "type4_hidden.topo"),
            "--dest", "4", "--src-ip", "198.51.100.9", "--src-port", "40000",
            "--protocol", "http",
        )
        assert code == 0
        assert out.splitlines() == ["1 0", "2 1", "3 *", "reached"]

    def test_sensitive_trace_reports_censorship(self, capsys):
        code, out, _ = run(
            capsys, "trace", "--topology", str(FIXTURES / "rst_chain.topo"),
            "--dest", "3", "--src-ip", "198.51.100.9", "--src-port", "40000",
            "--protocol", "https", "--domain", "blocked.example", "--sensitive",
        )
        assert code == 0
        assert out.splitlines() == ["1 0", "2 1", "censored@2"]


class TestSeedPrecedence:
    def test_env_overrides_default_flag_overrides_env(self, tmp_path, capsys, monkeypatch):
        log_a = tmp_path / "a.log"
        log_b = tmp_path / "b.log"
        log_c = tmp_path / "c.log"
        base = ["rq1", "--topology", str(FIXTURES / "srcip_hash.topo"), "--dest", "5",
                "--protocol", "http"]
        monkeypatch.setenv("FLOWSTABLE_SEED", "77")
        assert cli_main(base + ["--out", str(log_a)]) == 0
        monkeypatch.delenv("FLOWSTABLE_SEED")
        assert cli_main(base + ["--out", str(log_b), "--seed", "77"]) == 0
        assert cli_main(base + ["--out", str(log_c), "--seed", "78"]) == 0
        capsys.readouterr()

        def meta_free(path):
            return sorted(
                line for line in path.read_text().splitlines()
                if json.loads(line).get("record_kind") != "meta"
            )

        assert meta_free(log_a) == meta_free(log_b)
        assert meta_free(log_a) != meta_free(log_c)

    @pytest.mark.parametrize("value", ["-5", "18446744073709551616", "x"])
    def test_env_seed_out_of_range_writes_no_log(self, tmp_path, capsys, monkeypatch,
                                                  value):
        monkeypatch.setenv("FLOWSTABLE_SEED", value)
        log = tmp_path / "a.log"
        code, _, err = run(capsys, "rq2", "--topology", str(FIXTURES / "half_split.topo"),
                           "--dests", str(FIXTURES / "half_split.dests"),
                           "--out", str(log))
        assert code == 1
        assert "FLOWSTABLE_SEED" in err
        assert not log.exists()


RQ2_ARGV = [
    "rq2", "--topology", str(FIXTURES / "half_split.topo"),
    "--dests", str(FIXTURES / "half_split.dests"), "--seed", "5",
    "--protocols", "http", "--registry", str(FIXTURES / "blockpages.json"),
    "--trace-affected",
]


@pytest.fixture(scope="module")
def rq2_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("rq2")
    log = tmp / "run.log"
    assert cli_main(RQ2_ARGV + ["--out", str(log)]) == 0
    return tmp, log


class TestRq2Reports:

    def test_table_marks_affected(self, rq2_run):
        tmp, log = rq2_run
        rows = list(csv.DictReader(open(tmp / "run_table.csv")))
        assert rows == [
            {"destination": "10.0.3.4", "asn": "303", "protocol": "http",
             "affected": "true"}
        ]

    def test_cdf_contains_half_step(self, rq2_run):
        tmp, log = rq2_run
        rows = list(csv.DictReader(open(tmp / "run_cdf.csv")))
        assert {"protocol": "http", "no_censorship_fraction": "0.5000",
                "cdf": "1.0000"} in rows

    def test_graph_command(self, rq2_run, capsys):
        tmp, log = rq2_run
        code, out, err = run(
            capsys, "graph", "--log", str(log), "--dest", "10.0.3.4",
            "--out", str(tmp / "g"), "--topology", str(FIXTURES / "half_split.topo"),
        )
        assert code == 0, err
        nodes = {r["node"]: r for r in csv.DictReader(open(tmp / "g_nodes.csv"))}
        assert nodes["0"]["color"] == "both"
        assert nodes["1"]["color"] == "only_clear"
        assert nodes["2"]["color"] == "only_censored"
        edges = list(csv.DictReader(open(tmp / "g_edges.csv")))
        assert {"src": "0", "dst": "2", "graph": "censored", "censoring": "true"} in edges

    def test_graph_without_topology_uses_base_columns(self, rq2_run, capsys):
        tmp, log = rq2_run
        code, _, err = run(
            capsys, "graph", "--log", str(log), "--dest", "10.0.3.4",
            "--out", str(tmp / "plain"),
        )
        assert code == 0, err
        header = (tmp / "plain_nodes.csv").read_text().splitlines()[0]
        assert header == "node,color"

    def test_classify_command(self, rq2_run, capsys):
        tmp, log = rq2_run
        code, out, err = run(
            capsys, "classify", "--log", str(log),
            "--topology", str(FIXTURES / "half_split.topo"),
        )
        assert code == 0, err
        rows = list(csv.DictReader(out.splitlines()))
        assert len(rows) == 1
        assert rows[0]["effect"] == "type1_failed_node"
        # the split happens at the transit router feeding the censoring AS
        assert rows[0]["scope"] == "inter"
        assert rows[0]["diverging_node"] == "0"

    def test_bits_command(self, rq2_run, capsys):
        tmp, log = rq2_run
        code, out, err = run(
            capsys, "bits", "--log", str(log), "--group-by", "src_ip_low3",
        )
        assert code == 0, err
        rows = list(csv.DictReader(out.splitlines()))
        assert len(rows) == 8
        odd_groups = {"001", "011", "101", "111"}
        for row in rows:
            if row["group"] in odd_groups:
                assert int(row["censored_cells"]) > 0
            else:
                assert int(row["censored_cells"]) == 0

    def test_corrupt_log_line_is_data_error(self, rq2_run, tmp_path, capsys):
        _, log = rq2_run
        lines = log.read_text().splitlines(keepends=True)[:3]
        lines[1] = "{not json\n"
        corrupt = tmp_path / "corrupt.log"
        corrupt.write_text("".join(lines))
        code, _, err = run(
            capsys, "bits", "--log", str(corrupt), "--group-by", "src_ip_low3",
        )
        assert code == 2
        assert "data error" in err
        assert "corrupt.log line 2" in err

    def test_log_verdicts_rederivable_from_observations(self, rq2_run):
        from flowstable import logio
        from flowstable.core import AppProtocol
        from flowstable.prober import (
            BlockpageRegistry, Observation, ObservationKind, classify,
        )

        tmp, log = rq2_run
        registry = BlockpageRegistry.load((FIXTURES / "blockpages.json").read_text())

        def observations(entries):
            return [Observation(e, ObservationKind(kind), tag) for e, kind, tag in entries]

        checked = 0
        for r in logio.read_log(log):
            if r["record_kind"] != "verdict":
                continue
            control = observations(r["control"])
            sensitive = observations(r["sensitive"])
            assert len(control) == len(sensitive) == 3
            rederived = classify(control, sensitive, AppProtocol.HTTP, registry)
            assert logio.parse_verdict(r) == rederived
            checked += 1
        assert checked == 1664

    @pytest.mark.parametrize("protocol", [[], ["--protocol", "http"]], ids=["any", "http"])
    def test_graph_of_a_destination_the_log_lacks_is_data_error(self, rq2_run, capsys,
                                                                protocol):
        tmp, log = rq2_run
        code, _, err = run(capsys, "graph", "--log", str(log), "--dest", "10.9.9.9",
                           "--out", str(tmp / "missing"), *protocol)
        assert code == 2
        assert "data error: no traces for 10.9.9.9 in log" in err
        assert not (tmp / "missing_nodes.csv").exists()

    @pytest.mark.parametrize("extra", [0, 5])
    def test_classify_passes_over_the_traces_once(self, rq2_run, capsys, monkeypatch, extra):
        # Destinations without traces are skipped, but a command that
        # scanned the traces per destination would pass over them again
        # for each.
        import dataclasses

        from flowstable.core import AppProtocol, Ipv4Address

        tmp, log = rq2_run
        passes = []

        class Traces(dict):
            def values(self):
                passes.append("values")
                return super().values()

            def items(self):
                passes.append("items")
                return super().items()

            def __iter__(self):
                passes.append("iter")
                return super().__iter__()

        run_log = logio.read_run(log)
        (matrix,) = run_log.verdicts.values()
        verdicts = dict(run_log.verdicts)
        for host in range(extra):
            verdicts[(Ipv4Address.parse(f"10.9.9.{host + 1}"), AppProtocol.HTTP)] = matrix
        run_log = dataclasses.replace(run_log, verdicts=verdicts,
                                      traces=Traces(run_log.traces))
        monkeypatch.setattr(logio, "read_run", lambda path: run_log)
        code, out, err = run(capsys, "classify", "--log", str(log),
                             "--topology", str(FIXTURES / "half_split.topo"))
        assert code == 0, err
        assert [row["destination"] for row in csv.DictReader(out.splitlines())] == ["10.0.3.4"]
        assert len(passes) == 1

    def test_rerun_appends_nothing(self, rq2_run, capsys):
        tmp, log = rq2_run
        before = {p.name: p.read_bytes() for p in (log, tmp / "run_table.csv",
                                                   tmp / "run_cdf.csv")}
        code, _, err = run(capsys, *RQ2_ARGV, "--out", str(log))
        assert code == 0, err
        assert {p: (tmp / p).read_bytes() for p in before} == before


class TestReadsLogOnce:
    @pytest.fixture
    def reads(self, monkeypatch):
        """The logs opened through logio's one line reader, _cited, in
        order: each is noted as the reader starts, when it opens its log."""
        from flowstable import logio

        calls = []
        cited = logio._cited

        def counting(path, *args):
            calls.append(path)
            yield from cited(path, *args)

        monkeypatch.setattr(logio, "_cited", counting)
        return calls

    def test_rq2_trace_affected_rerun(self, rq2_run, reads, capsys):
        _, log = rq2_run
        assert cli_main(RQ2_ARGV + ["--out", str(log)]) == 0
        assert len(reads) == 1

    def test_rq1_rerun(self, tmp_path, reads, capsys):
        argv = ["rq1", "--topology", str(FIXTURES / "srcip_hash.topo"), "--dest", "5",
                "--out", str(tmp_path / "rq1.log")]
        assert cli_main(argv) == 0
        assert reads == []
        assert cli_main(argv) == 0
        assert len(reads) == 1

    @pytest.mark.parametrize("argv", [
        ["bits", "--group-by", "src_ip_low3"],
        ["graph", "--dest", "10.0.3.4", "--out", "{tmp}/g"],
        ["classify", "--topology", str(FIXTURES / "half_split.topo")],
    ])
    def test_report(self, rq2_run, reads, tmp_path, capsys, argv):
        _, log = rq2_run
        argv = [a.format(tmp=tmp_path) for a in argv] + ["--log", str(log)]
        assert cli_main(argv) == 0
        assert len(reads) == 1


class TestReadsTopologyOnce:
    """A command reads its topology file once, so a run id hashes the
    bytes of the topology that ran, even if the file is replaced."""

    @pytest.fixture
    def topology(self, tmp_path, monkeypatch):
        """A copy of half_split.topo, and the list of its opens."""
        path = tmp_path / "half_split.topo"
        path.write_bytes((FIXTURES / "half_split.topo").read_bytes())
        opens = []
        real_open = io.open

        def counting(file, *args, **kwargs):
            if not isinstance(file, int) and os.fspath(file) == os.fspath(path):
                opens.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(io, "open", counting)
        monkeypatch.setattr(builtins, "open", counting)
        return path, opens

    TRACE = ["trace", "--topology", "{topo}", "--dest", "3", "--src-ip", "198.51.100.7",
             "--src-port", "40000", "--protocol", "https"]

    @pytest.mark.parametrize("argv", [
        ["validate", "{topo}"],
        TRACE,
        TRACE + ["--out", "{tmp}/trace.log"],
        ["rq1", "--topology", "{topo}", "--dest", "3", "--out", "{tmp}/rq1.log"],
        ["rq2", "--topology", "{topo}", "--dests", str(FIXTURES / "half_split.dests"),
         "--protocols", "http", "--out", "{tmp}/rq2.log"],
        ["graph", "--log", "{log}", "--dest", "10.0.3.4", "--topology", "{topo}",
         "--out", "{tmp}/g"],
        ["classify", "--log", "{log}", "--topology", "{topo}"],
    ], ids=["validate", "trace", "trace_out", "rq1", "rq2", "graph", "classify"])
    def test_opens_the_topology_once(self, rq2_run, topology, tmp_path, capsys, argv):
        path, opens = topology
        argv = [a.format(topo=path, tmp=tmp_path, log=rq2_run[1]) for a in argv]
        assert cli_main(argv) == 0
        assert len(opens) == 1


class TestRunLog:
    def test_v1_log_is_data_error(self, tmp_path, capsys):
        # A v2 log, one line per cell, is refused the same way.
        for version in (1, 2):
            log = tmp_path / f"v{version}.log"
            log.write_text(json.dumps({"record_kind": "meta", "run_id": "r",
                                       "schema_version": version}) + "\n")
            before = log.read_bytes()
            for argv in (["bits", "--log", str(log), "--group-by", "src_ip_low3"],
                         RQ2_ARGV + ["--out", str(log)]):
                code, _, err = run(capsys, *argv)
                assert code == 2
                assert f"schema_version {version}" in err and "fresh --out" in err
                assert log.read_bytes() == before

    def test_rq1_runs_sharing_a_log_keep_their_own_traces(self, tmp_path, capsys):
        argv = ["rq1", "--topology", str(FIXTURES / "srcip_hash.topo"), "--dest", "5"]
        shared, fresh = tmp_path / "shared.log", tmp_path / "fresh.log"
        assert cli_main(argv + ["--seed", "1", "--out", str(shared)]) == 0
        seed1_csv = (tmp_path / "shared_paths.csv").read_text()
        assert cli_main(argv + ["--seed", "2", "--out", str(shared)]) == 0
        assert cli_main(argv + ["--seed", "2", "--out", str(fresh)]) == 0
        kinds = [r["record_kind"] for r in logio.read_log(shared)]
        assert (kinds.count("meta"), kinds.count("trace")) == (2, 2 * 4 * 144)
        assert shared.read_text().endswith(fresh.read_text())
        assert (tmp_path / "shared_paths.csv").read_text() == (
            tmp_path / "fresh_paths.csv").read_text()
        # Seed 1 again resumes from its own traces and appends nothing.
        before = shared.read_text()
        assert cli_main(argv + ["--seed", "1", "--out", str(shared)]) == 0
        assert shared.read_text() == before
        assert (tmp_path / "shared_paths.csv").read_text() == seed1_csv

    def test_failed_handshakes_are_logged_and_the_sweep_goes_on(self, tmp_path, capsys):
        # Loss at the first router makes some traces' SYNs draw no
        # SYN-ACK: each such trace logs an empty ladder that ends
        # handshake_failed, and rq1 still traces every sample.
        document = json.loads((FIXTURES / "half_split.topo").read_text())
        document["loss"] = [{"node": 0, "p": 0.2}]
        topology = tmp_path / "lossy.topo"
        topology.write_text(json.dumps(document))
        log = tmp_path / "run.log"
        code, out, err = run(capsys, "rq1", "--topology", str(topology), "--dest", "3",
                             "--seed", "1", "--out", str(log))
        assert (code, err) == (0, "")
        traces = [r for r in logio.read_log(log) if r["record_kind"] == "trace"]
        assert len(traces) == 4 * 144
        failed = [r for r in traces if r["terminal"] == "handshake_failed"]
        assert failed and all(r["hops"] == [] for r in failed)
        code, out, _ = run(capsys, "trace", "--topology", str(topology), "--dest", "3",
                           "--src-ip", failed[0]["src_ip"],
                           "--src-port", str(failed[0]["src_port"]), "--protocol", "http")
        assert (code, out) == (0, "handshake_failed\n")

    def test_rq2_runs_sharing_a_log_keep_their_own_verdicts(self, tmp_path, capsys):
        # rst_chain's endpoint has half_split's address, so the two runs
        # probe the same cells under different run ids.
        def argv(topology, out):
            return ["rq2", "--topology", str(FIXTURES / topology),
                    "--dests", str(FIXTURES / "half_split.dests"), "--protocols", "http",
                    "--seed", "1", "--out", str(out)]

        shared, fresh = tmp_path / "shared.log", tmp_path / "fresh.log"
        assert cli_main(argv("half_split.topo", shared)) == 0
        half_split_table = (tmp_path / "shared_table.csv").read_text()
        before = len(logio.read_log(shared))
        assert cli_main(argv("rst_chain.topo", shared)) == 0
        assert cli_main(argv("rst_chain.topo", fresh)) == 0
        kinds = [r["record_kind"] for r in logio.read_log(shared)]
        assert len(kinds) - before == 1 + 1664
        assert (kinds.count("meta"), kinds.count("verdict")) == (2, 2 * 1664)
        assert shared.read_text().endswith(fresh.read_text())
        table = (tmp_path / "shared_table.csv").read_text()
        assert table == (tmp_path / "fresh_table.csv").read_text()
        assert table != half_split_table

    def test_rq2_probes_a_repeated_destination_once(self, tmp_path, capsys):
        # 10.0.3.4 is the address of half_split's endpoint 3. A repeated
        # protocol runs once too, and the run id hashes the parsed list,
        # so https,https is the https run, meta line included.
        outputs = {}
        for name, dests, protocols in (("once", "3\n", "https"),
                                       ("twice", "3\n10.0.3.4\n", "https"),
                                       ("protocol_twice", "3\n", "https,https")):
            (tmp_path / f"{name}.dests").write_text(dests)
            assert cli_main(["rq2", "--topology", str(FIXTURES / "half_split.topo"),
                             "--dests", str(tmp_path / f"{name}.dests"),
                             "--protocols", protocols, "--seed", "1",
                             "--out", str(tmp_path / f"{name}.log")]) == 0
            outputs[name] = [(tmp_path / f"{name}{suffix}").read_bytes()
                             for suffix in (".log", "_table.csv", "_cdf.csv")]
        assert outputs["twice"] == outputs["protocol_twice"] == outputs["once"]
        assert len(logio.read_log(tmp_path / "once.log")) == 1 + 1664

    def test_rq2_trace_pass_traces_each_runs_affected_cells(self, tmp_path, capsys):
        # Two runs that differ only in --control-domain have two run ids
        # and trace the same flows, so the second may take none of the
        # first's traces.
        def argv(control, out):
            return ["rq2", "--topology", str(FIXTURES / "half_split.topo"),
                    "--dests", str(FIXTURES / "half_split.dests"), "--protocols", "https",
                    "--seed", "1", "--control-domain", control, "--trace-affected",
                    "--out", str(out)]

        shared, fresh = tmp_path / "shared.log", tmp_path / "fresh.log"
        assert cli_main(argv("control.example", shared)) == 0
        assert cli_main(argv("other.example", shared)) == 0
        assert cli_main(argv("other.example", fresh)) == 0
        records = logio.read_log(shared)
        first, second = [r["run_id"] for r in records if r["record_kind"] == "meta"]
        flows = {first: [], second: []}
        for r in records:
            if r["record_kind"] == "trace":
                flows[r["run_id"]].append((r["dst"], r["protocol"], r["src_ip"], r["src_port"]))
        assert flows[first] and flows[second] == flows[first]
        assert shared.read_bytes().endswith(fresh.read_bytes())
        # Each run resumes from its own traces and appends nothing.
        before = shared.read_bytes()
        for control in ("control.example", "other.example"):
            assert cli_main(argv(control, shared)) == 0
        assert shared.read_bytes() == before

    def test_trace_out_appends_one_record_per_flow(self, tmp_path, capsys):
        from flowstable import logio

        log = tmp_path / "trace.log"
        for src_port in ("40000", "40000", "40001"):
            code, _, err = run(
                capsys, "trace", "--topology", str(FIXTURES / "chain.topo"),
                "--dest", "3", "--src-ip", "198.51.100.7", "--src-port", src_port,
                "--protocol", "http", "--out", str(log),
            )
            assert code == 0, err
        assert [(r["dst"], r["protocol"], r["src_ip"], r["src_port"])
                for r in logio.read_log(log) if r["record_kind"] == "trace"] == [
            ("10.0.3.4", "http", "198.51.100.7", 40000), ("10.0.3.4", "http", "198.51.100.7", 40001)]
        traces = logio.read_run(log).traces
        assert [t.source.src_port for t in traces.values()] == [40000, 40001]
        assert all(t.hops == (0, 1, 2) for t in traces.values())


    def test_trace_out_keeps_each_trace_of_a_flow(self, tmp_path, capsys):
        from flowstable import logio

        log = tmp_path / "trace.log"
        argv = ["trace", "--topology", str(FIXTURES / "rst_chain.topo"), "--dest", "3",
                "--src-ip", "198.51.100.7", "--src-port", "40000", "--protocol", "https",
                "--out", str(log)]
        sensitive = argv + ["--sensitive", "--domain", "blocked.example"]
        for command, last in ((argv, "reached"), (sensitive, "censored@2")):
            code, out, err = run(capsys, *command)
            assert code == 0, err
            assert out.splitlines()[-1] == last
        terminals = [r["terminal"] for r in logio.read_log(log) if r["record_kind"] == "trace"]
        assert terminals == ["reached", "censored@2"]
        before = log.read_bytes()
        for command in (argv, sensitive):
            assert cli_main(command) == 0
        assert log.read_bytes() == before

    def test_log_read_keeps_each_runs_trace_of_a_flow(self, tmp_path, capsys):
        from flowstable import logio

        log = tmp_path / "trace.log"
        argv = ["trace", "--topology", str(FIXTURES / "rst_chain.topo"), "--dest", "3",
                "--src-ip", "198.51.100.7", "--src-port", "40000", "--protocol", "https",
                "--out", str(log)]
        for command in (argv, argv + ["--sensitive", "--domain", "blocked.example"]):
            assert cli_main(command) == 0
        capsys.readouterr()
        traces = logio.read_run(log).traces  # meta, body, trace, meta, body, trace
        assert list(traces) == [3, 6]
        assert [logio.terminal_str(t.terminal) for t in traces.values()] == [
            "reached", "censored@2"]
        # graph sees both: one flow traced clear by one run and censored
        # by the other is one mixed group, hence Excluded, not the last
        # run's censored group.
        code, _, err = run(capsys, "graph", "--log", str(log), "--dest", "10.0.3.4",
                           "--out", str(tmp_path / "g"))
        assert code == 2
        assert "need censored and clear groups, have 0/0" in err


    def test_log_read_refuses_two_runs_of_one_matrix(self, tmp_path, capsys):
        # Two runs with other sensitive domains fill one log with two
        # matrices of (10.0.3.4, https); neither may stand for the other.
        log = tmp_path / "m.log"
        argv = ["rq2", "--topology", str(FIXTURES / "half_split.topo"),
                "--dests", str(FIXTURES / "half_split.dests"), "--seed", "1",
                "--out", str(log)]
        bits = ["bits", "--log", str(log), "--group-by", "src_ip_low3"]
        assert cli_main(argv + ["--protocols", "https"]) == 0
        capsys.readouterr()
        code, out, _ = run(capsys, *bits)
        assert code == 0
        assert "001,1,208" in out.splitlines()
        # A resumed run and a run over another protocol still read.
        assert cli_main(argv + ["--protocols", "https"]) == 0
        assert cli_main(argv + ["--protocols", "http", "--sensitive-domain",
                                "other.example"]) == 0
        capsys.readouterr()
        assert run(capsys, *bits, "--protocol", "https")[:2] == (0, out)
        first_run = {json.loads(line)["run_id"] for line in log.open()}
        assert cli_main(argv + ["--protocols", "https", "--sensitive-domain",
                                "other.example"]) == 0
        capsys.readouterr()
        assert len(logio.read_log(log)) == 3 + 3 * 1664
        (second_run,) = {json.loads(line)["run_id"] for line in log.open()} - first_run
        for command in (bits, ["classify", "--log", str(log), "--topology",
                               str(FIXTURES / "half_split.topo")]):
            code, out, err = run(capsys, *command)
            assert (code, out) == (2, "")
            assert "10.0.3.4 https holds verdicts of runs" in err and second_run in err


class TestRefusedBeforeWriting:
    @pytest.mark.parametrize("command,topology,dest,message", [
        # Node 3 of bits3of8 is a router.
        pytest.param("rq1", "bits3of8.topo", "3", "node 3 is not an endpoint", id="rq1"),
        pytest.param("rq2", "bits3of8.topo", "3", "node 3 is not an endpoint", id="rq2"),
        # 10.0.3.7 lies in the /24 of half_split's endpoint 3, whose
        # address is 10.0.3.4, but is no endpoint's address.
        *(pytest.param(command, "half_split.topo", "10.0.3.7",
                       "no endpoint has address 10.0.3.7", id=f"{command}-address")
          for command in ("rq1", "rq2", "trace")),
        # Arabic-Indic three: half_split's node 3 is an endpoint, but a
        # node id is ASCII digits.
        *(pytest.param(command, "half_split.topo", "\u0663",
                       "not a dotted quad: '\u0663'", id=f"{command}-non-ascii-id")
          for command in ("rq1", "rq2", "trace")),
    ])
    def test_router_destination_writes_no_log(self, tmp_path, capsys, command, topology,
                                              dest, message):
        log = tmp_path / "a.log"
        (tmp_path / "a.dests").write_text(dest + "\n")
        target = {
            "rq1": ["--dest", dest, "--seed", "1"],
            "rq2": ["--dests", str(tmp_path / "a.dests"), "--protocols", "http,dns",
                    "--seed", "1"],
            "trace": ["--dest", dest, "--src-ip", "198.51.100.7", "--src-port", "40000",
                      "--protocol", "dns"],
        }[command]
        code, out, err = run(capsys, command, "--topology", str(FIXTURES / topology),
                             *target, "--out", str(log))
        assert code == 2
        assert message in err
        assert out == ""
        assert not log.exists()

    @pytest.mark.parametrize("command,flag", [
        ("rq1", ["--max-ttl", "0"]), ("rq1", ["--max-ttl", "65"]),
        ("rq2", ["--repetitions", "0"]), ("rq2", ["--repetitions", "x"]),
        ("rq2", ["--protocols", ","]),
        ("rq1", ["--seed", "-1"]), ("rq2", ["--seed", "18446744073709551616"]),
        ("trace", ["--src-port", "70000"]), ("trace", ["--src-port", "-1"]),
        ("trace", ["--src-port", "abc"]), ("trace", ["--src-ip", "198.51.100.300"]),
        ("trace", ["--src-ip", "198.51.100"]),
        # fullwidth digits, which int() and str.isdigit() would take
        ("trace", ["--src-port", "\uff14\uff10\uff10\uff10\uff10"]),
        ("trace", ["--src-ip", "198.51.100.\uff17"]), ("rq1", ["--seed", "\uff11"]),
    ])
    def test_out_of_range_count_writes_no_log(self, tmp_path, capsys, command, flag):
        log = tmp_path / "a.log"
        target = {
            "rq1": ["--dest", "3"],
            "rq2": ["--dests", str(FIXTURES / "half_split.dests")],
            # trace's other required flags, each once: the flag under
            # test is the only value given for its option.
            "trace": ["--dest", "3", "--protocol", "https", *[
                arg for other in (["--src-ip", "198.51.100.7"], ["--src-port", "40000"])
                if other[0] != flag[0] for arg in other]],
        }[command]
        code, _, err = run(capsys, command, "--topology", str(FIXTURES / "half_split.topo"),
                           *target, *flag, "--out", str(log))
        assert code == 1
        assert flag[0] in err
        assert not log.exists()

    def test_rq2_resume_with_other_repetitions_is_refused(self, tmp_path, capsys):
        argv = ["rq2", "--topology", str(FIXTURES / "half_split.topo"),
                "--dests", str(FIXTURES / "half_split.dests"), "--protocols", "http",
                "--seed", "1", "--out", str(tmp_path / "b.log")]
        assert cli_main(argv) == 0
        capsys.readouterr()
        before = (tmp_path / "b.log").read_bytes()
        code, _, err = run(capsys, *argv, "--repetitions", "1")
        assert code == 2
        assert "3 repetitions" in err and "the 1 asked for" in err
        assert (tmp_path / "b.log").read_bytes() == before
        # The same count resumes as before.
        assert cli_main(argv + ["--repetitions", "3"]) == 0
        assert (tmp_path / "b.log").read_bytes() == before

    def test_rq2_resume_with_another_registry_is_refused(self, tmp_path, capsys):
        # The run id leaves the registry out, so the meta record holds its
        # digest: cells a registry-less run logged never stand for a run
        # that reads blockpages, nor the other way round.
        argv = ["rq2", "--topology", str(FIXTURES / "blockpage_chain.topo"),
                "--dests", str(FIXTURES / "half_split.dests"), "--protocols", "http",
                "--seed", "1"]
        registry = ["--registry", str(FIXTURES / "blockpages.json")]
        bits = ["bits", "--group-by", "src_ip_low3"]
        for first, then in ((argv, argv + registry), (argv + registry, argv)):
            log = tmp_path / f"{len(first)}.log"
            assert cli_main(first + ["--out", str(log)]) == 0
            capsys.readouterr()
            before = log.read_bytes()
            code, out, err = run(capsys, *then, "--out", str(log))
            assert (code, out) == (2, "")
            assert "registry" in err and "another --out" in err
            assert log.read_bytes() == before
            # The same registry resumes, appending nothing.
            assert cli_main(first + ["--out", str(log)]) == 0
            assert log.read_bytes() == before
        capsys.readouterr()
        fresh = tmp_path / f"{len(argv + registry)}.log"
        code, out, _ = run(capsys, *bits, "--log", str(fresh))
        assert code == 0 and "001,1,208" in out.splitlines()


def _exception_classes():
    """Every exception class defined in a flowstable module."""
    import importlib
    import inspect
    import pkgutil

    import flowstable

    classes = []
    for info in pkgutil.iter_modules(flowstable.__path__):
        module = importlib.import_module(f"flowstable.{info.name}")
        classes += [cls for _, cls in inspect.getmembers(module, inspect.isclass)
                    if issubclass(cls, BaseException) and cls.__module__ == module.__name__]
    return classes


class TestExitCodes:
    @pytest.mark.parametrize("cls", _exception_classes(), ids=lambda cls: cls.__name__)
    def test_every_error_of_the_package_has_its_exit_code(self, cls, capsys, monkeypatch):
        import flowstable.cli as cli_mod

        def fail(args):
            raise cls("boom")

        monkeypatch.setattr(cli_mod, "_cmd_validate", fail)
        expected = {"_UsageError": 1, "TransportUnavailableError": 3}.get(cls.__name__, 2)
        code, _, err = run(capsys, "validate", str(FIXTURES / "chain.topo"))
        assert code == expected
        assert "boom" in err


class TestLiveTransportExit:
    def test_transport_error_exit_code(self, capsys, monkeypatch):
        import flowstable.cli as cli_mod
        from flowstable.prober import LiveTransport

        monkeypatch.setattr(cli_mod.prober, "SimTransport",
                            lambda topo, **kw: LiveTransport())
        code, _, err = run(
            capsys, "trace", "--topology", str(FIXTURES / "chain.topo"),
            "--dest", "3", "--src-ip", "198.51.100.7", "--src-port", "40000",
            "--protocol", "http",
        )
        assert code == 3
        assert "transport error" in err


class TestWalkthroughScripts:
    SCRIPTS = FIXTURES.parent / "scripts"

    def script(self, name, *argv, cwd):
        return subprocess.run(
            [sys.executable, str(self.SCRIPTS / name), *argv],
            cwd=cwd, capture_output=True, text=True, timeout=600,
        )

    def test_impact_sweep(self, tmp_path):
        done = self.script("run_impact_sweep.py", "--workdir", str(tmp_path), cwd=tmp_path)
        assert done.returncode == 0, done.stderr
        for name in ("half_split", "bits3of8"):
            rows = list(csv.DictReader(open(tmp_path / f"{name}_table.csv")))
            assert [r["affected"] for r in rows] == ["true"]

    def test_path_diversity(self, tmp_path):
        done = self.script("run_path_diversity.py", cwd=tmp_path)
        assert done.returncode == 0, done.stderr
        variations = ("all_constant", "vary_port", "vary_ip", "vary_both")
        for fixture in ("srcip_hash.topo", "srcport_hash.topo"):
            section = done.stdout.split(fixture, 1)[1].splitlines()
            rows = [line.split() for line in section[2:6]]
            assert [row[0] for row in rows] == list(variations)
            assert all(int(row[1]) >= 1 for row in rows)
