"""Command-line interface: solve single points, export figure datasets, and
run the built-in selftest fixtures.

Exit codes: 0 success (an unstable operating point is a finding, not an
error), 1 selftest failure, 2 configuration error, 3 solver failure, 4 I/O
failure while exporting.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .config_io import DEFAULT_CONFIG, PRESETS, load_config_file
from .errors import ConfigError, EntflowError
from .lyapunov import solve_steady_state_spectral, solve_steady_state_vectorized, spectral_abscissa
from .measures import (
    certify_physicality,
    effective_temperature,
    log_negativity,
    mean_occupation,
    two_mode_squeezed_covariance,
)
from .network import (
    Direction,
    build_dynamical_matrix,
    build_noise_matrix,
    config_violations,
    validate_config,
)
from .sweep import FIGURE_NAMES, export_csv, run_point

EXIT_OK = 0
EXIT_SELFTEST = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_IO = 4


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _load_base_config(args):
    """Config file layered under CLI overrides; raises ConfigError."""
    cfg = load_config_file(args.config) if args.config else DEFAULT_CONFIG
    overrides = {}
    if getattr(args, "r", None) is not None:
        overrides["r"] = args.r
    if getattr(args, "j", None) is not None:
        overrides["j"] = args.j
    if getattr(args, "direction", None):
        overrides["direction"] = Direction(args.direction)
    return replace(cfg, **overrides)


def _report_config_problems(cfg) -> bool:
    problems = config_violations(cfg)
    for problem in problems:
        print(f"config: {problem}", file=sys.stderr)
    return bool(problems)


def cmd_point(args) -> int:
    try:
        cfg = _load_base_config(args)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return EXIT_CONFIG
    if _report_config_problems(cfg):
        return EXIT_CONFIG
    net = validate_config(cfg)
    result = run_point(net)

    print(
        f"M={net.M} direction={result.direction.value} "
        f"r_over_omega={_fmt(result.r_over_omega)} "
        f"j_over_omega={_fmt(result.j_over_omega)}"
    )
    print(f"spectral_abscissa={_fmt(result.spectral_abscissa)}")
    print(f"stable={'true' if result.stable else 'false'}")
    print(f"physical={'true' if result.physical else 'false'}")
    if result.solver_error:
        print(f"solver_error={result.solver_error}", file=sys.stderr)
        return EXIT_SOLVER
    if result.en_forward_pair is not None:
        print(f"log_negativity_0_2={_fmt(result.en_forward_pair)}")
    if result.en_backward_pair is not None:
        print(f"log_negativity_0_{net.M - 1}={_fmt(result.en_backward_pair)}")
    if result.m_max is not None:
        print(f"m_max={result.m_max}")
    if result.nbar_at_mmax is not None:
        print(f"nbar_at_mmax={_fmt(result.nbar_at_mmax)}")
    if args.preset:
        preset = PRESETS[args.preset]
        print(f"preset={preset.name}")
        if result.nbar_at_mmax is not None and result.nbar_at_mmax > 0:
            t_eff = effective_temperature(result.nbar_at_mmax, preset.omega_cavity)
            print(f"T_eff_mK={_fmt(t_eff * 1e3)}")
    return EXIT_OK


_GRID_RE = re.compile(r"^(\d+)x(\d+)$")


def _parse_grid(text: str):
    match = _GRID_RE.match(text)
    if not match:
        raise ConfigError(f"--grid: expected 'NRxNJ' like 51x51, got {text!r}")
    n_r, n_j = int(match.group(1)), int(match.group(2))
    if n_r < 1 or n_j < 1:
        raise ConfigError(f"--grid: both sizes must be >= 1, got {text!r}")
    return n_r, n_j


def _parse_range(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError(
            f"--range: expected 'RMIN:RMAX,JMIN:JMAX', got {text!r}"
        )
    spans = []
    for part in parts:
        lo, sep, hi = part.partition(":")
        try:
            lo_v, hi_v = float(lo), float(hi)
        except ValueError:
            raise ConfigError(f"--range: bad span {part!r}") from None
        if not (math.isfinite(lo_v) and math.isfinite(hi_v)):
            raise ConfigError(f"--range: span bounds must be finite, got {part!r}")
        if not sep or hi_v < lo_v or lo_v < 0:
            raise ConfigError(
                f"--range: spans need 0 <= min <= max, got {part!r}"
            )
        spans.append((lo_v, hi_v))
    return spans[0], spans[1]


def _config_as_json(cfg) -> dict:
    def listify(value):
        if value is None or np.isscalar(value):
            return value
        return [float(x) for x in np.atleast_1d(value)]

    return {
        "M": cfg.M,
        "r": cfg.r,
        "j": cfg.j,
        "gamma": cfg.gamma,
        "gamma_out": cfg.gamma_out,
        "omega": listify(cfg.omega),
        "nbar_local": listify(cfg.nbar_local),
        "nbar_common": listify(cfg.nbar_common),
        "direction": cfg.direction.value,
    }


_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _environment() -> dict:
    """Library versions, BLAS build and thread settings of this process."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 prints its config only
        blas = {}
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {name: os.environ.get(name) for name in _THREAD_VARIABLES},
        "cpu_count": os.cpu_count(),
    }


def _write_manifest(path: Path, manifest: dict, table: Path) -> None:
    """Write ``manifest`` as JSON to ``path`` through a temporary file in the
    same directory, replaced into place whole.  On any failure the temporary
    file and the figure's ``table`` are removed, so a failed run leaves
    neither a table without a manifest nor a partial manifest."""
    temporary = path.with_name(path.name + ".tmp")
    try:
        with open(temporary, "w", encoding="utf-8", newline="\n") as handle:
            json.dump(manifest, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(temporary, path)
    except BaseException:
        table.unlink(missing_ok=True)
        if temporary.is_file():
            temporary.unlink()
        raise


def cmd_figure(args) -> int:
    try:
        cfg = _load_base_config(args)
        n_r, n_j = _parse_grid(args.grid)
        (r_lo, r_hi), (j_lo, j_hi) = _parse_range(args.value_range)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return EXIT_CONFIG
    if _report_config_problems(cfg):
        return EXIT_CONFIG

    r_values = np.linspace(r_lo, r_hi, n_r)
    j_values = np.linspace(j_lo, j_hi, n_j)
    direction = Direction(args.direction) if args.direction else None
    out = Path(args.out) if args.out else Path(f"{args.name}.csv")
    manifest_path = out.with_name(out.name + ".manifest.json")
    try:
        try:
            digest, rows, sweeps = export_csv(args.name, cfg, r_values, j_values, out, direction)
            manifest = {
                "version": __version__,
                "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
                "figure": args.name,
                "config": _config_as_json(cfg),
                "directions": list(sweeps),
                "grid": {
                    "r_values": [float(v) for v in r_values],
                    "j_values": [float(v) for v in j_values],
                },
                "sweeps": sweeps,
                "outputs": {out.name: digest},
                "environment": _environment(),
            }
            _write_manifest(manifest_path, manifest, out)
        except BaseException:
            # a failure that leaves no table (it removed the one it opened)
            # removes an earlier run's manifest too; a run rejected before
            # opening the table leaves an earlier table and manifest alone
            if not out.exists() and manifest_path.is_file():
                manifest_path.unlink()
            raise
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO

    print(f"wrote {out} ({rows} rows)")
    print(f"wrote {manifest_path}")
    return EXIT_OK


def _selftest_fixtures():
    """Yield (name, ok, detail) for each built-in validation fixture."""
    # Vacuum identity: no squeezing, zero-temperature baths, steady state
    # must be exactly the vacuum.
    net = validate_config(DEFAULT_CONFIG)
    a, noise = build_dynamical_matrix(net), build_noise_matrix(net)
    v = solve_steady_state_spectral(a, noise)
    dev = float(np.abs(v - np.eye(net.dim)).max())
    yield (
        "vacuum-identity",
        dev <= 1e-8,
        f"expected max|V - I| = 0, got {dev:.3e}, tol 1e-08",
    )

    # Physicality certificate: the default chain's generator is certified,
    # and with half its diffusion (below the vacuum) it is rejected.
    full = certify_physicality(a, noise)
    half = certify_physicality(a, noise / 2.0)
    yield (
        "physicality-certificate",
        full and not half,
        f"expected Q >= 0 for N and not for N/2, got {full} and {half}, "
        "tol 1e-12 max|Q|",
    )

    # Thermal scaling: an isolated mode in a bath at occupation 0.7.
    gamma, nbar = 0.3, 0.7
    a1 = np.array([[-gamma / 2.0, 1.0], [-1.0, -gamma / 2.0]])
    n1 = gamma * (2.0 * nbar + 1.0) * np.eye(2)
    v1 = solve_steady_state_spectral(a1, n1)
    dev = float(np.abs(v1 - 2.4 * np.eye(2)).max())
    occ = mean_occupation(v1, 0)
    ok = dev <= 1e-10 and abs(occ - nbar) <= 1e-10
    yield (
        "thermal-scaling",
        ok,
        f"expected V = 2.4 I and occupation 0.7, got max|V - 2.4 I| = {dev:.3e} "
        f"and occupation = {occ:.12f}, tol 1e-10",
    )

    # Two-mode squeezed vacuum closed forms.
    worst = 0.0
    for s in (0.1, 0.5, 1.0):
        record = log_negativity(two_mode_squeezed_covariance(s))
        worst = max(
            worst,
            abs(record.log_negativity - 2.0 * s),
            abs(record.nu_minus - np.exp(-2.0 * s) / 2.0),
        )
    yield (
        "tmsv-closed-form",
        worst <= 1e-10,
        f"expected E_N = 2s and nu = exp(-2s)/2, got worst deviation {worst:.3e}, "
        "tol 1e-10",
    )

    # Solver cross-check on generic stable systems.
    rng = np.random.default_rng(20260816)
    worst = 0.0
    for _ in range(5):
        raw = rng.normal(size=(8, 8))
        a_rand = raw - (spectral_abscissa(raw) + 0.4) * np.eye(8)
        w = rng.normal(size=(8, 8))
        n_rand = w @ w.T + 0.1 * np.eye(8)
        v_spec = solve_steady_state_spectral(a_rand, n_rand)
        v_vec = solve_steady_state_vectorized(a_rand, n_rand)
        worst = max(
            worst,
            float(np.linalg.norm(v_spec - v_vec) / np.linalg.norm(v_vec)),
        )
    yield (
        "solver-cross-check",
        worst <= 1e-8,
        f"expected agreement, got worst relative deviation {worst:.3e}, tol 1e-08",
    )

    # Effective temperature at the microwave preset's cavity frequency.
    t_mk = effective_temperature(0.01, PRESETS["microwave"].omega_cavity) * 1e3
    yield (
        "effective-temperature",
        51.0 <= t_mk <= 53.0,
        f"expected 52 mK, got {t_mk:.2f} mK, tol 1 mK",
    )


def cmd_selftest(_args) -> int:
    failures = 0
    for name, ok, detail in _selftest_fixtures():
        status = "PASS" if ok else "FAIL"
        if not ok:
            failures += 1
        print(f"{status}  {name}  ({detail})")
    return EXIT_SELFTEST if failures else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entflow",
        description=(
            "Steady-state Gaussian dynamics of a squeezed mode driving a "
            "cascaded bosonic chain: stability, entanglement transport, and "
            "thermal limits."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_point = sub.add_parser(
        "point", help="solve one operating point and print a summary"
    )
    p_point.add_argument("--config", metavar="FILE", help="config file (key = value lines)")
    p_point.add_argument("--r", type=float, metavar="RATE", help="squeezing rate override")
    p_point.add_argument("--j", type=float, metavar="RATE", help="source coupling override")
    p_point.add_argument("--direction", choices=[d.value for d in Direction])
    p_point.add_argument(
        "--preset",
        choices=sorted(PRESETS),
        help="convert the deepest entangled node's occupation to a temperature",
    )
    p_point.set_defaults(handler=cmd_point)

    p_figure = sub.add_parser(
        "figure", help="sweep a parameter grid and export a figure CSV + manifest"
    )
    p_figure.add_argument("name", choices=FIGURE_NAMES)
    p_figure.add_argument("--config", metavar="FILE")
    p_figure.add_argument("--grid", default="101x101", metavar="NRxNJ")
    p_figure.add_argument(
        "--range", dest="value_range", default="0:1,0:1", metavar="RMIN:RMAX,JMIN:JMAX"
    )
    p_figure.add_argument("--out", metavar="PATH", help="CSV path (default: <name>.csv)")
    p_figure.add_argument("--direction", choices=[d.value for d in Direction])
    p_figure.set_defaults(handler=cmd_figure)

    p_selftest = sub.add_parser("selftest", help="run built-in validation fixtures")
    p_selftest.set_defaults(handler=cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except EntflowError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SOLVER


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
