"""Command-line interface: solve single points, export figure datasets, and
run the built-in selftest fixtures.

One table, ``COMMANDS``, holds every command with its positional argument,
its flags (name, how the value is read, default) and its help line;
``parse_args`` reads a command line against it and ``main`` runs the
command's ``cmd_<command>``.  A flag takes its value as ``--flag VALUE`` or
``--flag=VALUE`` (a value may start with ``-``, as in ``--r -1.0``), and its
name must be written in full.  ``entflow --help`` and ``entflow COMMAND
--help`` print the table.

Exit codes: 0 success (an unstable operating point is a finding, not an
error), 1 selftest failure, 2 configuration or usage error, 3 solver
failure, 4 I/O failure.  ``main`` alone decides what an error prints and
its exit code; the commands only raise.  A usage error, a config-file
error and the configuration's violations are each one ConfigError, the
violations all together as one ``config: ...`` line each, and print their
message and exit 2.
"""

from __future__ import annotations

import json
import math
import os
import re
import sys
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

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
from .sweep import FIGURE_NAMES, export_csv, probe_nodes, run_point

EXIT_OK = 0
EXIT_SELFTEST = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_IO = 4


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _load_base_config(args):
    """Config file layered under CLI overrides.  Raises ConfigError: the
    file's own, or one holding every violation of the layered config as a
    ``config: ...`` line."""
    cfg = load_config_file(args.config) if args.config else DEFAULT_CONFIG
    overrides = {}
    if getattr(args, "r", None) is not None:
        overrides["r"] = args.r
    if getattr(args, "j", None) is not None:
        overrides["j"] = args.j
    if getattr(args, "direction", None):
        overrides["direction"] = Direction(args.direction)
    cfg = replace(cfg, **overrides)
    problems = config_violations(cfg)
    if problems:
        raise ConfigError("\n".join(f"config: {problem}" for problem in problems))
    return cfg


def cmd_point(args) -> int:
    net = validate_config(_load_base_config(args))
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
    for field, node in probe_nodes(net.M).items():
        value = getattr(result, field)
        if value is not None:
            print(f"log_negativity_0_{node}={_fmt(value)}")
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


def _number(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"expects a number, got {text!r}") from None


def _grid(text: str) -> tuple:
    """``--grid NRxNJ`` as (NR, NJ); ValueError says what is wrong."""
    match = _GRID_RE.match(text)
    if not match:
        raise ValueError(f"expects 'NRxNJ' like 51x51, got {text!r}")
    n_r, n_j = int(match.group(1)), int(match.group(2))
    if n_r < 1 or n_j < 1:
        raise ValueError(f"sizes must both be >= 1, got {text!r}")
    return n_r, n_j


def _spans(text: str) -> tuple:
    """``--range RMIN:RMAX,JMIN:JMAX`` as ((RMIN, RMAX), (JMIN, JMAX));
    ValueError says what is wrong."""
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expects 'RMIN:RMAX,JMIN:JMAX', got {text!r}")
    spans = []
    for part in parts:
        lo, sep, hi = part.partition(":")
        try:
            lo_v, hi_v = float(lo), float(hi)
        except ValueError:
            raise ValueError(f"has a bad span {part!r}") from None
        if not (math.isfinite(lo_v) and math.isfinite(hi_v)):
            raise ValueError(f"span bounds must be finite, got {part!r}")
        if not sep or hi_v < lo_v or lo_v < 0:
            raise ValueError(f"spans need 0 <= min <= max, got {part!r}")
        spans.append((lo_v, hi_v))
    return spans[0], spans[1]


def _config_as_json(cfg) -> dict:
    def listify(value):
        if value is None or np.isscalar(value):
            return value
        return [float(x) for x in np.atleast_1d(value)]

    return {
        "M": int(cfg.M),  # a config file reads M = 10 as 10.0
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
    cfg = _load_base_config(args)
    n_r, n_j = args.grid
    (r_lo, r_hi), (j_lo, j_hi) = args.value_range
    r_values = np.linspace(r_lo, r_hi, n_r)
    j_values = np.linspace(j_lo, j_hi, n_j)
    # a figure sweeps its default direction unless --direction names one
    direction = cfg.direction if args.direction else None
    out = Path(args.out) if args.out else Path(f"{args.name}.csv")
    manifest_path = out.with_name(out.name + ".manifest.json")
    try:
        digest, rows, sweeps, solved = export_csv(
            args.name, cfg, r_values, j_values, out, direction
        )
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
            "solved_nodes": solved,
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


class _Flag(NamedTuple):
    """One argument of a command: the attribute it fills, how its text is
    read (a tuple of the allowed choices, or a function of the text that
    raises ValueError saying what is wrong), its default text, and its
    metavar and help line."""

    dest: str
    value: object
    default: object
    metavar: str
    help: str


class _Command(NamedTuple):
    help: str
    positional: _Flag | None
    flags: dict


_DIRECTION = _Flag(
    "direction", tuple(d.value for d in Direction), None, "DIRECTION", "coupling direction"
)
_CONFIG = _Flag("config", str, None, "FILE", "config file (key = value lines)")

# The whole command line: per command its help line, its one positional
# argument if any, and its flags by exact name.  ``main`` runs the command
# through ``cmd_<command>``, looked up when it runs.
COMMANDS = {
    "point": _Command(
        "solve one operating point and print a summary",
        None,
        {
            "--config": _CONFIG,
            "--r": _Flag("r", _number, None, "RATE", "squeezing rate override"),
            "--j": _Flag("j", _number, None, "RATE", "source coupling override"),
            "--direction": _DIRECTION,
            "--preset": _Flag(
                "preset", tuple(sorted(PRESETS)), None, "PRESET",
                "convert the deepest entangled node's occupation to a temperature",
            ),
        },
    ),
    "figure": _Command(
        "sweep a parameter grid and export a figure CSV + manifest",
        _Flag("name", FIGURE_NAMES, None, "FIGURE", "the figure to export"),
        {
            "--config": _CONFIG,
            "--grid": _Flag("grid", _grid, "101x101", "NRxNJ", "grid size"),
            "--range": _Flag(
                "value_range", _spans, "0:1,0:1", "RMIN:RMAX,JMIN:JMAX", "r and j spans"
            ),
            "--out": _Flag("out", str, None, "PATH", "CSV path (default: <name>.csv)"),
            "--direction": _DIRECTION,
        },
    ),
    "selftest": _Command("run built-in validation fixtures", None, {}),
}

_HELP_FLAGS = ("-h", "--help")
_DESCRIPTION = (
    "Steady-state Gaussian dynamics of a squeezed mode driving a cascaded "
    "bosonic chain: stability, entanglement transport, and thermal limits."
)


def _read(command: str, label: str, spec: _Flag, text: str):
    """``text`` read as ``spec`` says; raises ConfigError naming the
    command, the argument and the text."""
    if not isinstance(spec.value, tuple):
        try:
            return spec.value(text)
        except ValueError as exc:
            raise ConfigError(f"{command}: {label} {exc}") from None
    if text not in spec.value:
        raise ConfigError(
            f"{command}: {label} must be one of {', '.join(spec.value)}, got {text!r}"
        )
    return text


def _help_text(name=None) -> str:
    """The help of command ``name``, or of the whole program."""
    if name is None:
        width = max(map(len, COMMANDS))
        lines = [
            "usage: entflow [--version] COMMAND [flags]", "", _DESCRIPTION, "", "commands:",
            *(f"  {n:<{width}}  {c.help}" for n, c in COMMANDS.items()),
            "", "Run 'entflow COMMAND --help' for a command's flags.",
        ]
        return "\n".join(lines)
    command = COMMANDS[name]
    usage = f"usage: entflow {name}"
    rows = [(f"{flag} {spec.metavar}", spec) for flag, spec in command.flags.items()]
    if command.positional is not None:
        usage += f" {command.positional.metavar}"
        rows.insert(0, (command.positional.metavar, command.positional))
    if command.flags:
        usage += " [flags]"
    entries = []
    for label, spec in rows:
        text = spec.help
        if isinstance(spec.value, tuple):
            text += f" (one of: {', '.join(spec.value)})"
        if spec.default is not None:
            text += f" (default: {spec.default})"
        entries.append((label, text))
    entries.append(("-h, --help", "show this help"))
    width = max(len(label) for label, _ in entries)
    lines = [usage, "", command.help, "", *(f"  {l:<{width}}  {t}" for l, t in entries)]
    if command.flags:
        lines += ["", "A flag takes its value as '--flag VALUE' or '--flag=VALUE'; "
                      "write its name in full."]
    return "\n".join(lines)


def parse_args(argv):
    """Read ``argv`` against ``COMMANDS``.  Returns a namespace holding
    ``command`` and every argument of that command, or, for ``-h``,
    ``--help`` and ``--version``, the text to print.  Every usage error
    raises ConfigError."""
    if not argv:
        raise ConfigError(f"entflow: missing command (one of {', '.join(COMMANDS)})")
    name, *rest = argv
    if name in _HELP_FLAGS:
        return _help_text()
    if name == "--version":
        return f"entflow {__version__}"
    command = COMMANDS.get(name)
    if command is None:
        kind = "flag" if name.startswith("-") else "command"
        raise ConfigError(
            f"entflow: unknown {kind} {name!r} (commands: {', '.join(COMMANDS)})"
        )
    positional = command.positional
    args = SimpleNamespace(command=name, **{
        spec.dest: None if spec.default is None else _read(name, flag, spec, spec.default)
        for flag, spec in command.flags.items()
    })
    if positional is not None:
        setattr(args, positional.dest, None)
    tokens = iter(rest)
    for token in tokens:
        if token in _HELP_FLAGS:
            return _help_text(name)
        if not token.startswith("-"):
            if positional is None or getattr(args, positional.dest) is not None:
                raise ConfigError(f"{name}: unexpected argument {token!r}")
            setattr(args, positional.dest, _read(name, positional.metavar, positional, token))
            continue
        flag, inline, text = token.partition("=")
        spec = command.flags.get(flag)
        if spec is None:
            raise ConfigError(f"{name}: unknown flag {flag!r}")
        if not inline:
            text = next(tokens, None)
            if text is None or text.startswith("--"):
                raise ConfigError(f"{name}: {flag} needs a value")
        setattr(args, spec.dest, _read(name, flag, spec, text))
    if positional is not None and getattr(args, positional.dest) is None:
        raise ConfigError(
            f"{name}: missing {positional.metavar} (one of {', '.join(positional.value)})"
        )
    return args


def main(argv=None) -> int:
    """Run one command line (``sys.argv[1:]`` by default); the only place
    where an error becomes an exit code.  A usage error (no or unknown
    command, unknown flag, missing or malformed value) is a ConfigError
    like any other and exits 2; nothing here raises SystemExit."""
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        if isinstance(args, str):
            print(args)
            return EXIT_OK
        return globals()[f"cmd_{args.command}"](args)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO
    except EntflowError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SOLVER


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
