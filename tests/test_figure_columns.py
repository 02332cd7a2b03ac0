"""The figure pipeline: per-figure columns, streamed CSVs and their manifests."""

import json
import tracemalloc

import numpy as np
import pytest
from dataclasses import replace

import oracles
from entflow import (
    DEFAULT_CONFIG,
    Direction,
    load_config_file,
    pair_log_negativities,
    run_point,
    solve_steady_states,
    sweep_grid,
    validate_config,
)
from entflow.cli import EXIT_OK, main

# r = 0 row, j = 0 column, the exceptional point (0, gamma/4) = (0, 0.2)
# exactly, and unstable cells (large r)
GRID = ("--grid", "6x6", "--range", "0:1.5,0:1")
R_VALUES = np.linspace(0.0, 1.5, 6)
J_VALUES = np.linspace(0.0, 1.0, 6)
# (figure, --direction flag) of every table entflow figure writes
TABLES = [
    ("nonreciprocity", None),
    ("depth", None),
    ("occupation", None),
    ("stability", None),
    ("stability", "backward"),
]


def config_file(tmp_path, warm):
    """The default 10-node chain as a config file; warm adds a different
    occupation on every bath and heterogeneous frequencies."""
    lines = ["M = 10", "gamma = 0.8", "gamma_out = 0.002"]
    if warm:
        lines += [
            "omega = " + ", ".join(repr(1.0 + 0.01 * k) for k in range(11)),
            "nbar_local = " + ", ".join(repr(0.001 * (k + 1)) for k in range(11)),
            "nbar_common = " + ", ".join(repr(0.002 + 0.001 * k) for k in range(9)),
        ]
    path = tmp_path / ("warm.cfg" if warm else "cold.cfg")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def run_figure(tmp_path, name, *extra):
    """Run entflow figure; returns (CSV bytes, manifest without timestamp)."""
    out = tmp_path / f"{name}.csv"
    assert main(["figure", name, *GRID, "--out", str(out), *extra]) == EXIT_OK
    manifest = json.loads(out.with_name(out.name + ".manifest.json").read_text())
    del manifest["timestamp"]
    return out.read_bytes(), manifest


def reference_table(name, base, directions):
    """The figure's CSV by the oracle, from run_point on each grid point."""
    points = [
        run_point(validate_config(replace(base, r=float(r), j=float(j), direction=direction)))
        for direction in directions
        for r in R_VALUES
        for j in J_VALUES
    ]
    return oracles.figure_csv(name, points)


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_streamed_tables_equal_run_point_row_by_row(tmp_path, capsys, warm):
    path = config_file(tmp_path, warm)
    base = load_config_file(path)
    for name, flag in TABLES:
        extra = ["--config", str(path)] + (["--direction", flag] if flag else [])
        table, manifest = run_figure(tmp_path, name, *extra)
        directions = [Direction(flag)] if flag else oracles.FIGURE_DIRECTIONS[name]
        assert manifest["directions"] == [d.value for d in directions]
        assert table == reference_table(name, base, directions), (name, flag)
        rows = table.decode("utf-8").splitlines()[1:]
        assert len(rows) == 36 * len(directions)
        for counts in manifest["sweeps"].values():
            assert counts["failed"] == 0 and counts["stable"] + counts["unstable"] == 36
            assert counts["stable"] >= 10 and counts["unstable"] >= 5
    capsys.readouterr()


def test_each_figure_evaluates_only_the_pairs_it_writes(tmp_path, capsys, monkeypatch):
    calls = []

    def recording(v, k, nodes):
        calls.append((k, tuple(nodes)))
        return pair_log_negativities(v, k, nodes)

    monkeypatch.setattr("entflow.sweep.pair_log_negativities", recording)
    every = tuple(range(1, 11))
    expected = {
        "nonreciprocity": [(0, (2,)), (0, (9,))],
        "depth": [(0, every)],
        "occupation": [(0, every)],
        "stability": [],
    }
    for name, pairs in expected.items():
        calls.clear()
        run_figure(tmp_path, name)
        assert calls == pairs, name
    capsys.readouterr()


def corrupting(node):
    """solve_steady_states, with the source pair (0, node) of the first solved
    state of every call made not positive definite; no other pair changes."""

    def solve(*args, **kwargs):
        abscissa, states, errors = solve_steady_states(*args, **kwargs)
        b = errors.index(None)
        pair = slice(2 * node, 2 * node + 2)
        states[b][0:2, pair] = states[b][pair, 0:2] = 5.0 * np.eye(2)
        return abscissa, states, errors

    return solve


def test_a_failed_exported_pair_blanks_its_cell(tmp_path, capsys, monkeypatch):
    clean, clean_manifest = run_figure(tmp_path, "nonreciprocity")
    # forward writes pair (0, 2); backward writes (0, 9) and keeps its rows
    monkeypatch.setattr("entflow.sweep.solve_steady_states", corrupting(2))
    table, manifest = run_figure(tmp_path, "nonreciprocity")
    before = clean.decode("utf-8").splitlines()
    after = table.decode("utf-8").splitlines()
    changed = [k for k, (x, y) in enumerate(zip(before, after)) if x != y]
    assert len(after) == len(before) and len(changed) == 1
    row = changed[0]
    assert after[row].split(",")[:3] == before[row].split(",")[:3]
    assert after[row].split(",")[2] == "forward"
    assert after[row].endswith(",") and not before[row].endswith(",")
    forward = clean_manifest["sweeps"]["forward"]
    assert manifest["sweeps"]["forward"] == dict(
        forward, stable=forward["stable"] - 1, failed=1
    )
    assert manifest["sweeps"]["backward"] == clean_manifest["sweeps"]["backward"]
    capsys.readouterr()


def test_a_failed_unexported_pair_leaves_the_table_unchanged(tmp_path, capsys, monkeypatch):
    clean, clean_manifest = run_figure(tmp_path, "nonreciprocity")
    clean_depth, _ = run_figure(tmp_path, "depth")
    monkeypatch.setattr("entflow.sweep.solve_steady_states", corrupting(5))
    # nonreciprocity writes pairs (0, 2) and (0, 9) only
    table, manifest = run_figure(tmp_path, "nonreciprocity")
    assert table == clean
    assert manifest == clean_manifest
    # the depth scan reads every pair, so the same point fails there
    depth, manifest = run_figure(tmp_path, "depth")
    assert depth != clean_depth
    assert manifest["sweeps"]["forward"]["failed"] == 1
    # and sweep_grid, which computes every field, records it as before
    grid = sweep_grid(DEFAULT_CONFIG, R_VALUES, J_VALUES)
    failed = [p for row in grid.results for p in row if p.solver_error]
    assert len(failed) == 1
    assert failed[0].solver_error.startswith("ComplexEigenvalueError: ")
    assert failed[0].en_forward_pair is None and failed[0].m_max is None
    capsys.readouterr()


def test_figure_memory_does_not_grow_with_the_grid(tmp_path, capsys, monkeypatch):
    # slices of 22 points at M = 10, so both grids run in full slices and
    # only what is kept per point could tell them apart
    monkeypatch.setattr("entflow.sweep._BATCH_BYTES", 1 << 18)
    run_figure(tmp_path, "nonreciprocity")  # first-call allocations
    peaks = []
    for grid in ("21x21", "61x61"):
        argv = ["figure", "nonreciprocity", "--grid", grid, "--out", str(tmp_path / "nr.csv")]
        tracemalloc.start()
        try:
            assert main(argv) == EXIT_OK
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) <= 0.25e6, peaks
    capsys.readouterr()
