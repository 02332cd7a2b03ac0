"""Command-line behaviour: reports, exports, manifests, and exit codes."""

import hashlib
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy

import entflow
from entflow import solve_steady_states
from entflow.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    EXIT_SELFTEST,
    EXIT_SOLVER,
    main,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_report(out):
    pairs = {}
    for token in out.split():
        key, sep, value = token.partition("=")
        if sep:
            pairs[key] = value
    return pairs


# ---------------------------------------------------------------------------
# point


def test_point_vacuum_report(capsys):
    code, out, err = run_cli(capsys, "point")
    assert code == EXIT_OK
    report = parse_report(out)
    assert report["stable"] == "true"
    assert report["physical"] == "true"
    assert float(report["log_negativity_0_2"]) == 0.0
    assert float(report["log_negativity_0_9"]) == 0.0
    assert report["m_max"] == "0"
    assert err == ""


def test_point_moderate_forward(capsys):
    code, out, _ = run_cli(capsys, "point", "--r", "0.1", "--j", "0.5")
    assert code == EXIT_OK
    report = parse_report(out)
    assert report["stable"] == "true"
    assert float(report["log_negativity_0_2"]) > 1e-10
    assert int(report["m_max"]) >= 1
    assert float(report["nbar_at_mmax"]) > 0.0


def test_point_backward_direction(capsys):
    code, out, _ = run_cli(
        capsys, "point", "--r", "0.1", "--j", "0.5", "--direction", "backward"
    )
    assert code == EXIT_OK
    report = parse_report(out)
    assert report["direction"] == "backward"
    assert float(report["log_negativity_0_9"]) <= 1e-10
    assert "m_max" not in report


def test_point_unstable_is_a_finding_not_an_error(capsys):
    code, out, _ = run_cli(capsys, "point", "--r", "2.0", "--j", "0.1")
    assert code == EXIT_OK
    report = parse_report(out)
    assert report["stable"] == "false"
    assert float(report["spectral_abscissa"]) > 0.0
    assert "log_negativity_0_2" not in report


def test_point_preset_reports_temperature(capsys):
    code, out, _ = run_cli(
        capsys, "point", "--r", "0.1", "--j", "0.5", "--preset", "microwave"
    )
    assert code == EXIT_OK
    report = parse_report(out)
    assert report["preset"] == "microwave"
    assert float(report["T_eff_mK"]) > 0.0


def test_point_config_file(tmp_path, capsys):
    path = tmp_path / "net.cfg"
    path.write_text("M = 4\nr = 0.1\nj = 0.5\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "point", "--config", str(path))
    assert code == EXIT_OK
    assert "M=4" in out
    # flag overrides beat file values
    code, out, _ = run_cli(capsys, "point", "--config", str(path), "--r", "0")
    assert code == EXIT_OK
    assert float(parse_report(out)["log_negativity_0_2"]) == 0.0


def test_point_malformed_config_exits_2(tmp_path, capsys):
    path = tmp_path / "net.cfg"
    path.write_text("M = 4\nwavelength = 3\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "point", "--config", str(path))
    assert code == EXIT_CONFIG
    assert f"{path}:2:" in err


def test_point_invalid_parameters_exit_2(capsys):
    code, _, err = run_cli(capsys, "point", "--r", "-1.0")
    assert code == EXIT_CONFIG
    assert "r" in err


@pytest.mark.parametrize("flag", ["--r=nan", "--j=inf", "--r=-inf"])
def test_point_non_finite_parameters_exit_2(capsys, flag):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "point", flag)
    assert code == EXIT_CONFIG
    assert out == ""
    assert f"{flag[2]} must be finite" in err


@pytest.mark.parametrize("line", ["r = nan", "gamma = inf", "omega = 1, nan, 1"])
def test_point_non_finite_config_file_exits_2(tmp_path, capsys, line):
    path = tmp_path / "net.cfg"
    path.write_text(f"M = 2\n{line}\n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "point", "--config", str(path))
    assert code == EXIT_CONFIG
    assert out == ""
    assert "finite" in err


# ---------------------------------------------------------------------------
# figure


def figure_args(tmp_path, name, *extra):
    out = tmp_path / f"{name}.csv"
    return out, ("figure", name, "--grid", "4x3", "--out", str(out)) + extra


def test_figure_writes_csv_and_manifest(tmp_path, capsys):
    out, argv = figure_args(tmp_path, "depth")
    code, stdout, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK
    assert str(out) in stdout

    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "r_over_omega,j_over_omega,m_max"
    assert len(lines) == 1 + 4 * 3

    manifest = json.loads((tmp_path / "depth.csv.manifest.json").read_text())
    assert manifest["figure"] == "depth"
    assert manifest["directions"] == ["forward"]
    assert len(manifest["grid"]["r_values"]) == 4
    assert len(manifest["grid"]["j_values"]) == 3
    assert manifest["config"]["M"] == 10
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert manifest["outputs"]["depth.csv"] == digest

    environment = manifest["environment"]
    assert environment["numpy"] == np.__version__
    assert environment["scipy"] == scipy.__version__
    assert set(environment["blas"]) == {"name", "version"}
    assert environment["threads"] == {
        name: os.environ.get(name)
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    }
    assert environment["cpu_count"] == os.cpu_count()


def test_manifest_records_thread_settings(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    _, argv = figure_args(tmp_path, "depth")
    assert run_cli(capsys, *argv)[0] == EXIT_OK
    manifest = json.loads((tmp_path / "depth.csv.manifest.json").read_text())
    threads = manifest["environment"]["threads"]
    assert threads["OMP_NUM_THREADS"] == "3"
    assert threads["MKL_NUM_THREADS"] is None


def test_figure_nonreciprocity_runs_both_directions(tmp_path, capsys):
    out, argv = figure_args(tmp_path, "nonreciprocity")
    code, _, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1 + 2 * 4 * 3
    manifest = json.loads((tmp_path / "nonreciprocity.csv.manifest.json").read_text())
    assert manifest["directions"] == ["forward", "backward"]
    assert set(manifest["sweeps"]) == {"forward", "backward"}


def test_manifest_records_sweep_statistics(tmp_path, capsys, monkeypatch):
    # r up to 2 crosses the stability boundary; the 11x11 grid of the
    # 10-node chain is one solver pass
    out, argv = figure_args(tmp_path, "stability", "--range", "0:2,0:1", "--grid", "11x11")
    assert run_cli(capsys, *argv)[0] == EXIT_OK
    manifest = json.loads((tmp_path / "stability.csv.manifest.json").read_text())
    rows = out.read_text(encoding="utf-8").splitlines()[1:]
    unstable = sum(row.split(",")[2] == "false" for row in rows)
    assert manifest["sweeps"] == {
        "forward": {"passes": 1, "stable": 121 - unstable, "unstable": unstable, "failed": 0}
    }
    assert 0 < unstable < 121

    # a failed point counts as failed, not as stable; the other rows stay
    def failing(*args, **kwargs):
        abscissa, states, errors = solve_steady_states(*args, **kwargs)
        errors[0] = entflow.ResidualTooLargeError("planted")
        return abscissa, states, errors

    before = out.read_bytes()
    monkeypatch.setattr("entflow.sweep.solve_steady_states", failing)
    assert run_cli(capsys, *argv)[0] == EXIT_OK
    manifest = json.loads((tmp_path / "stability.csv.manifest.json").read_text())
    assert manifest["sweeps"]["forward"] == {
        "passes": 1, "stable": 121 - unstable - 1, "unstable": unstable, "failed": 1
    }
    after = out.read_text(encoding="utf-8").splitlines()
    assert after[2:] == before.decode("utf-8").splitlines()[2:]


def test_figure_repeat_runs_are_byte_identical(tmp_path, capsys):
    out, argv = figure_args(tmp_path, "stability", "--range", "0:1,0:1")
    assert run_cli(capsys, *argv)[0] == EXIT_OK
    first = out.read_bytes()
    assert run_cli(capsys, *argv)[0] == EXIT_OK
    assert out.read_bytes() == first


def test_figure_csvs_do_not_depend_on_blas_threads(tmp_path):
    src = os.path.dirname(os.path.dirname(entflow.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    tables = {}
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads)
        for name in ("nonreciprocity", "stability"):
            out = tmp_path / f"{name}-{threads}.csv"
            subprocess.run(
                [sys.executable, "-m", "entflow.cli", "figure", name,
                 "--grid", "21x21", "--out", str(out)],
                env=env, check=True, capture_output=True,
            )
            tables[name, threads] = out.read_bytes()
    for name in ("nonreciprocity", "stability"):
        assert tables[name, "1"] == tables[name, "2"]


def test_figure_stability_at_exceptional_point(tmp_path, capsys):
    # r = 0, j = gamma/4 makes the source block defective; its abscissa is
    # -(2 gamma_out + gamma)/4 = -0.201 exactly
    out = tmp_path / "stability.csv"
    code, _, _ = run_cli(
        capsys, "figure", "stability", "--grid", "1x1",
        "--range", "0:0,0.2:0.2", "--out", str(out),
    )
    assert code == EXIT_OK
    header, row = out.read_text(encoding="utf-8").splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert abs(float(cells["spectral_abscissa"]) + 0.201) <= 1e-8


@pytest.mark.parametrize(
    "argv",
    [
        ("figure", "nonreciprocity", "--direction", "forward"),
        ("figure", "depth", "--direction", "backward"),
        ("figure", "occupation", "--direction", "backward"),
        ("figure", "depth", "--grid", "0x4"),
        ("figure", "depth", "--grid", "4"),
        ("figure", "depth", "--range", "1:0,0:1"),
        ("figure", "depth", "--range", "0:1"),
        ("figure", "depth", "--range=-1:1,0:1"),
        ("figure", "depth", "--range", "nan:nan,0:1"),
        ("figure", "depth", "--range", "0:inf,0:1"),
        ("figure", "stability", "--range", "0:1,nan:1"),
    ],
)
def test_figure_flag_validation_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "out.csv"
    code, _, err = run_cli(capsys, *argv, "--out", str(out))
    assert code == EXIT_CONFIG
    assert err != ""
    assert not out.exists()


def test_figure_unwritable_path_exits_4(tmp_path, capsys):
    out = tmp_path / "missing" / "deep" / "out.csv"
    code, _, err = run_cli(
        capsys, "figure", "depth", "--grid", "2x2", "--out", str(out)
    )
    assert code == EXIT_IO
    assert "i/o" in err.lower()


def test_figure_unwritable_manifest_exits_4_and_leaves_nothing(tmp_path, capsys):
    # a directory where the manifest belongs: the run fails after the CSV is
    # written, and takes the CSV with it
    out = tmp_path / "x.csv"
    (tmp_path / "x.csv.manifest.json").mkdir()
    code, _, err = run_cli(
        capsys, "figure", "depth", "--grid", "2x2", "--out", str(out)
    )
    assert code == EXIT_IO
    assert "i/o" in err.lower()
    assert sorted(path.name for path in tmp_path.iterdir()) == ["x.csv.manifest.json"]
    assert (tmp_path / "x.csv.manifest.json").is_dir()
    assert not any((tmp_path / "x.csv.manifest.json").iterdir())


def test_figure_manifest_failing_midway_leaves_nothing(tmp_path, capsys, monkeypatch):
    def failing(manifest, handle, **kwargs):
        handle.write('{"version": ')
        raise OSError("no space left on device")

    monkeypatch.setattr("entflow.cli.json.dump", failing)
    code, _, err = run_cli(
        capsys, "figure", "depth", "--grid", "2x2", "--out", str(tmp_path / "x.csv")
    )
    assert code == EXIT_IO
    assert "no space left" in err
    assert list(tmp_path.iterdir()) == []


def test_figure_failed_rerun_removes_the_earlier_manifest(tmp_path, capsys):
    # a good run, then a rerun that opens the CSV and fails on the manifest:
    # the earlier manifest must not stay behind to name a CSV that is gone
    out = tmp_path / "x.csv"
    argv = ("figure", "depth", "--grid", "2x2", "--out", str(out))
    assert run_cli(capsys, *argv)[0] == EXIT_OK
    (tmp_path / "x.csv.manifest.json.tmp").mkdir()
    code, _, err = run_cli(capsys, *argv)
    assert code == EXIT_IO
    assert "i/o" in err.lower()
    assert sorted(path.name for path in tmp_path.iterdir()) == ["x.csv.manifest.json.tmp"]


def test_figure_rejected_rerun_leaves_earlier_files_alone(tmp_path, capsys):
    # rejected before the CSV is opened: the earlier CSV and manifest stay
    out = tmp_path / "x.csv"
    manifest = tmp_path / "x.csv.manifest.json"
    assert run_cli(capsys, "figure", "depth", "--grid", "2x2", "--out", str(out))[0] == EXIT_OK
    before = out.read_bytes(), manifest.read_bytes()
    code, _, err = run_cli(
        capsys, "figure", "depth", "--grid", "2x2", "--direction", "backward", "--out", str(out)
    )
    assert code == EXIT_CONFIG
    assert "forward direction" in err
    assert (out.read_bytes(), manifest.read_bytes()) == before


# ---------------------------------------------------------------------------
# selftest and plumbing


def test_selftest_passes(capsys):
    code, out, _ = run_cli(capsys, "selftest")
    assert code == EXIT_OK
    lines = [line for line in out.splitlines() if line.strip()]
    assert len(lines) == 6
    assert all(line.startswith("PASS") for line in lines)
    for fixture in (
        "vacuum-identity",
        "physicality-certificate",
        "thermal-scaling",
        "tmsv-closed-form",
        "solver-cross-check",
        "effective-temperature",
    ):
        assert any(fixture in line for line in lines)
    assert all("tol" in line for line in lines)


def test_exit_code_constants():
    assert (EXIT_OK, EXIT_SELFTEST, EXIT_CONFIG, EXIT_SOLVER, EXIT_IO) == (
        0,
        1,
        2,
        3,
        4,
    )


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "entflow.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "entflow" in proc.stdout
