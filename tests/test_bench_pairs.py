"""The pair summary of tools/bench_pairs.py, which writes BENCH_*.json."""

import importlib.util
from pathlib import Path

import pytest

SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pairs)


@pytest.mark.parametrize(
    "better, wins", [("higher", 2), ("lower", 1)]
)
def test_summary_counts_wins_by_direction_and_not_ties(better, wins):
    # pairs: change higher, change lower, tie, change higher
    out = bench_pairs.summarize([1.0, 4.0, 2.0, 3.0], [2.0, 3.0, 2.0, 5.0], better)
    assert out["change_wins"] == wins
    assert out["pairs"] == 4
    assert out["parent"]["runs"] == [1.0, 4.0, 2.0, 3.0]
    assert (out["parent"]["min"], out["parent"]["median"], out["parent"]["max"]) == (1.0, 2.5, 4.0)
    assert (out["change"]["q1"], out["change"]["q3"]) == (2.0, 3.5)


def test_figure_record_summarizes_both_metrics_as_lower_is_better():
    runs = {
        "parent": [{"wall_s": 2.0, "peak_rss_mb": 62.0}, {"wall_s": 3.0, "peak_rss_mb": 62.5}],
        "change": [{"wall_s": 1.5, "peak_rss_mb": 63.0}, {"wall_s": 3.5, "peak_rss_mb": 62.0}],
    }
    out = bench_pairs.figure_record(runs)
    assert out["command"] == ["entflow", "figure", "nonreciprocity"]
    assert out["wall_s"]["unit"] == "s" and out["peak_rss_mb"]["unit"] == "MB"
    assert out["wall_s"]["parent"]["runs"] == [2.0, 3.0]
    assert out["wall_s"]["change"]["median"] == 2.5
    # one pair won each: the faster first run, the smaller second peak
    assert out["wall_s"]["change_wins"] == 1 and out["peak_rss_mb"]["change_wins"] == 1
    assert out["wall_s"]["better"] == out["peak_rss_mb"]["better"] == "lower"
