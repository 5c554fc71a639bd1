"""The statistics of scripts/bench_pairs.py, on hand-computed values."""
import importlib.util
import json
from pathlib import Path

import pytest

_path = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _path)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_parse_seeds():
    assert bench_pairs.parse_seeds("4001-4004") == [4001, 4002, 4003, 4004]
    assert bench_pairs.parse_seeds("7") == [7]
    with pytest.raises(ValueError):
        bench_pairs.parse_seeds("9-3")


def test_summarize_pairs_quartiles_wins_and_clearness():
    this = [1.0, 2.0, 3.0, 4.0, 5.0]
    other = [2.0, 2.0, 6.0, 8.0, 10.0]
    s = bench_pairs.summarize(this, other)
    assert s["ratios"] == [0.5, 1.0, 0.5, 0.5, 0.5]
    # statistics.quantiles(n=4), exclusive method: positions 1.5, 3, 4.5 of 5
    assert s["this"] == {"q1": 1.5, "median": 3.0, "q3": 4.5}
    assert s["other"] == {"q1": 2.0, "median": 6.0, "q3": 9.0}
    assert s["median_ratio"] == 0.5
    assert s["wins"] == 4 and s["pairs"] == 5  # a tie is not a win
    assert not s["clear"]  # |3 - 6| is not more than 9 - 2
    s = bench_pairs.summarize([1.0, 1.1, 1.2], [2.0, 2.1, 2.2])
    assert s["wins"] == 3 and s["clear"]  # |1.1 - 2.1| > 2.2 - 2.0


def test_one_pair_has_its_values_as_quartiles():
    s = bench_pairs.summarize([2.0], [4.0])
    assert s["this"] == {"q1": 2.0, "median": 2.0, "q3": 2.0}
    assert s["median_ratio"] == 0.5 and s["wins"] == 1 and s["clear"]


def test_digests_compare_as_sets():
    """A faster side writes more copies of the same digest: still equal."""
    this = {"setup": ["a", "a"], "traces": ["t"] * 12, "checkpoint": ["c"], "manifest": ["m"]}
    other = {"setup": ["a"], "traces": ["t"] * 7, "checkpoint": ["c"], "manifest": ["m"]}
    assert bench_pairs.digests_equal(this, other) == dict.fromkeys(bench_pairs.DIGESTS, True)
    other["traces"] = ["t", "u"]
    assert bench_pairs.digests_equal(this, other)["traces"] is False


def test_runs_last_the_benchmarks_run_seconds(tmp_path, monkeypatch):
    """Each run is as long as the run_seconds of the BENCHMARK.json beside
    the script's directory, here a copy that says 3."""
    (tmp_path / "scripts").mkdir()
    (tmp_path / "scripts" / "bench_pairs.py").write_text(_path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 3}))
    spec = importlib.util.spec_from_file_location("bench_pairs_copy", tmp_path / "scripts" / "bench_pairs.py")
    copy = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(copy)
    calls = []
    monkeypatch.setattr(copy.subprocess, "run", lambda cmd, **kw: calls.append(cmd))
    assert copy.run_once(tmp_path, "train", 7) == {}
    (cmd,) = calls
    assert cmd[cmd.index("--seconds") + 1] == "3"
