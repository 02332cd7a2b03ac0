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
