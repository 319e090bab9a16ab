"""Unit tests of scripts/bench_pairs.py's pure parts: seed lists and the
per-metric summary. They start no process and touch no git."""

import pytest

from conftest import load_script

bench_pairs = load_script("bench_pairs")


def _pairs(name, parent, change):
    return [{"parent": {"metrics": {name: {"value": p}}},
             "change": {"metrics": {name: {"value": c}}}}
            for p, c in zip(parent, change)]


def _metric(name, better):
    return {"name": name, "unit": "u", "better": better, "bound": 0.25}


class TestParseSeeds:
    def test_range_is_inclusive(self):
        assert bench_pairs.parse_seeds("1001-1004") == [1001, 1002, 1003, 1004]

    def test_single_seed_range(self):
        assert bench_pairs.parse_seeds("7-7") == [7]

    def test_list_keeps_order(self):
        assert bench_pairs.parse_seeds("5,3,9") == [5, 3, 9]

    def test_one_seed(self):
        assert bench_pairs.parse_seeds("42") == [42]


class TestMain:
    """main() refuses a seed list too short to summarise before it runs
    anything: quartiles need at least two runs per side."""

    @pytest.mark.parametrize("seeds", ["42", "7-7", "1010-1001"])
    def test_fewer_than_two_seeds_is_a_usage_error(self, seeds, tmp_path, monkeypatch,
                                                   capsys):
        runs = []
        monkeypatch.setattr(bench_pairs, "commit_of", lambda checkout: "0" * 40)
        monkeypatch.setattr(bench_pairs, "run_once", lambda *args: runs.append(args) or {
            "metrics": {"items_per_s": {"value": 1.0}}, "correct": True, "failed": 0,
            "digest": ""})
        argv = ["--parent", str(tmp_path), "--change", str(tmp_path), "--seeds", seeds,
                "--logs", str(tmp_path / "logs"), "--out", str(tmp_path / "out.json")]
        with pytest.raises(SystemExit) as exit_info:
            bench_pairs.main(argv)
        assert exit_info.value.code == 2
        assert "at least two seeds" in capsys.readouterr().err
        assert runs == []
        assert not (tmp_path / "out.json").exists()


class TestSummarise:
    def test_higher_is_better(self):
        pairs = _pairs("items_per_s", [10, 10, 10, 10], [20, 5, 10, 30])
        out = bench_pairs.summarise(pairs, [_metric("items_per_s", "higher")])["items_per_s"]
        assert (out["change_wins"], out["change_losses"], out["pairs"]) == (2, 1, 4)
        assert out["median_ratio"] == pytest.approx(15 / 10)
        assert out["parent"]["values"] == [10, 10, 10, 10]
        assert out["change"]["median"] == 15
        assert (out["unit"], out["better"], out["bound"]) == ("u", "higher", 0.25)

    def test_lower_is_better(self):
        pairs = _pairs("setup_s", [1.0, 1.0, 1.0], [0.5, 2.0, 0.25])
        out = bench_pairs.summarise(pairs, [_metric("setup_s", "lower")])["setup_s"]
        assert (out["change_wins"], out["change_losses"]) == (2, 1)
        assert out["median_ratio"] == pytest.approx(0.5)

    def test_ties_count_for_neither_side(self):
        pairs = _pairs("ok_ratio", [1.0] * 3, [1.0] * 3)
        for better in ("higher", "lower"):
            out = bench_pairs.summarise(pairs, [_metric("ok_ratio", better)])["ok_ratio"]
            assert (out["change_wins"], out["change_losses"]) == (0, 0)
            assert out["median_ratio"] == 1.0

    def test_parent_median_of_zero_gives_no_ratio(self):
        pairs = _pairs("failed", [0, 0, 3], [1, 0, 0])
        out = bench_pairs.summarise(pairs, [_metric("failed", "lower")])["failed"]
        assert out["median_ratio"] is None
        assert (out["change_wins"], out["change_losses"]) == (1, 1)

    def test_quartiles(self):
        pairs = _pairs("m", [1, 2, 3, 4, 5], [5, 4, 3, 2, 1])
        out = bench_pairs.summarise(pairs, [_metric("m", "higher")])["m"]
        assert (out["parent"]["q1"], out["parent"]["median"], out["parent"]["q3"]) == (2, 3, 4)
