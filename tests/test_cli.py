import csv
import json
import subprocess
import sys

import pytest

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
                if json.loads(line)["record_kind"] != "meta"
            )

        assert meta_free(log_a) == meta_free(log_b)
        assert meta_free(log_a) != meta_free(log_c)


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
        from flowstable import logio

        calls = []
        records = logio._records

        def counting(path):
            calls.append(path)
            return records(path)

        monkeypatch.setattr(logio, "_records", counting)
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


class TestRunLog:
    def test_v1_log_is_data_error(self, tmp_path, capsys):
        log = tmp_path / "v1.log"
        log.write_text(json.dumps({"record_kind": "meta", "run_id": "r",
                                   "schema_version": 1}) + "\n")
        for argv in (["bits", "--log", str(log), "--group-by", "src_ip_low3"],
                     RQ2_ARGV + ["--out", str(log)]):
            code, _, err = run(capsys, *argv)
            assert code == 2
            assert "schema_version 1" in err

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
        traces = logio.read_run(log).traces
        assert list(traces) == ["10.0.3.4|http|198.51.100.7:40000",
                                "10.0.3.4|http|198.51.100.7:40001"]
        assert all(t.hops == (0, 1, 2) for t in traces.values())


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
