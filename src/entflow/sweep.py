"""Parameter sweeps over squeezing and coupling, and figure-ready exports.

A sweep evaluates the steady state on a dense (r, j) grid for one transport
direction and records, per point: stability, physicality, the pair
entanglement between the source and the probe nodes, how deep entanglement
reaches into the chain, and the occupation of the deepest entangled node.
Unstable points carry no steady-state quantities (empty CSV cells).

Only the source block of the drift depends on (r, j), so the grid is
carried as a leading batch axis: one stack of drifts, stability from the
same per-block factorization the solve uses, a triangular Sylvester solve
for the stable points only, and the source-pair entanglements from stacked
closed forms.  One block plan serves the whole network: its nonzero pattern
with the source coupling holds every grid point's, j = 0 included.  The
batch is cut into slices under a fixed working-set budget, counted from the
stacks the engine holds at once.  Physicality does not depend on (r, j) at
all: one certificate of the generator (``certify_physicality``) per sweep
proves every stable steady state physical, and the per-state test runs only
where the certificate fails.

The engine hands back each slice as columns (``SweepColumns``): r, j,
stable, physical, the spectral abscissa, each point's failure, and only the
optional fields that were asked for (``sweep_columns``).  One table
(``_FIGURES``) holds each figure's directions and columns, and
``figure_dataset`` sweeps a figure asking only for the fields it writes:
``nonreciprocity`` the pair (0, 2) forward and (0, M-1) backward,
``depth`` and ``occupation`` the depth scan over every node,
``stability`` no pair at all, though its points are still solved.
``export_csv``, the one figure writer, streams each slice's rows to the
CSV as soon as it is computed, so its memory does not grow with the grid.
A figure cell is empty when its point is unstable, or when the point's
solve (with the per-state physicality test where it runs) or the quantity
the figure writes failed; a pair the figure does not write is never
evaluated, so its failure blanks nothing.  ``sweep_grid`` asks for every
field and keeps one PointResult per point, whose ``solver_error`` is the
first failure of any of them; ``run_point`` is its one-row view, under
the same plan, and a point's result never depends on the batch it was
computed in.

Everything here is deterministic: no randomness, no timestamps.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, EntflowError
from .lyapunov import STABILITY_MARGIN, BlockPlan, block_plan, solve_steady_states
from .measures import (
    certify_physicality,
    log_negativity,
    pair_log_negativities,
    physicality,
    reduce_two_mode,
)
from .network import (
    Direction,
    NetworkConfig,
    ValidatedNetwork,
    build_drift_stack,
    build_dynamical_matrix,
    build_noise_matrix,
    source_coupling,
    validate_config,
)

# E_N at or below this counts as no entanglement (numerical zero).
ENTANGLEMENT_THRESHOLD = 1e-10
# Working set of one batch slice in bytes.  Per point, the engine holds at
# most _STACKS_PER_POINT (2M+2)x(2M+2) matrices of 8-byte entries at once:
# in the solve, the block form and the right-hand side (in the drifts'
# memory) plus temporaries made a part of the stack at a time; in the
# measures, the solved states and the pair kernel's 4x4 stacks.  A full
# slice peaks at 2.7 such matrices per point at M = 10 and 2.6 at M = 30
# (tracemalloc).  An 11x11 grid at M = 10 is one slice; from M = 104 on, a
# slice is a single point.
_BATCH_BYTES = 2 << 20
_STACKS_PER_POINT = 3


class _Figure(NamedTuple):
    """How one figure is swept and written: the directions it may sweep, its
    default first; whether it sweeps each of them in turn (then it takes no
    direction); and per CSV column (header, PointResult field, cell kind),
    where a field given per direction is read for that direction's points."""

    directions: tuple
    every_direction: bool
    columns: tuple


_GRID_COLUMNS = (
    ("r_over_omega", "r_over_omega", "float"),
    ("j_over_omega", "j_over_omega", "float"),
)
_FIGURES = {
    "nonreciprocity": _Figure(
        (Direction.FORWARD, Direction.BACKWARD),
        True,
        _GRID_COLUMNS
        + (
            ("direction", "direction", "direction"),
            (
                "log_negativity",
                {Direction.FORWARD: "en_forward_pair", Direction.BACKWARD: "en_backward_pair"},
                "float",
            ),
        ),
    ),
    "depth": _Figure((Direction.FORWARD,), False, _GRID_COLUMNS + (("m_max", "m_max", "int"),)),
    "occupation": _Figure(
        (Direction.FORWARD,), False, _GRID_COLUMNS + (("nbar", "nbar_at_mmax", "float"),)
    ),
    "stability": _Figure(
        (Direction.FORWARD, Direction.BACKWARD),
        False,
        _GRID_COLUMNS
        + (
            ("stable", "stable", "bool"),
            ("physical", "physical", "bool"),
            ("spectral_abscissa", "spectral_abscissa", "float"),
        ),
    ),
}
FIGURE_NAMES = tuple(_FIGURES)
# how a cell of each kind is written; None is always an empty cell
_CELLS = {
    "float": lambda x: format(x, ".17g"),
    "int": str,
    "bool": lambda x: "true" if x else "false",
    "direction": lambda x: x.value,
}


@dataclass(frozen=True)
class PointResult:
    """Steady-state summary of one (r, j, direction) operating point.

    ``physical`` is the physicality of the exact steady state of the
    generator: true for every stable, solved point once the generator's
    certificate (``certify_physicality``) holds, and from the per-state test
    of the computed matrix only where it does not.  The computed matrix is
    still held to the solver's residual contract, and a failed pair goes to
    ``solver_error``.

    Fields after ``spectral_abscissa`` are None when undefined: every
    steady-state quantity for unstable or failed points, the pair
    entanglements when the probe pair does not exist (M < 2), and the
    depth fields for Backward runs (the backward figures never use them)
    or when no node is entangled at all.
    """

    r_over_omega: float
    j_over_omega: float
    direction: Direction
    stable: bool
    physical: bool
    spectral_abscissa: float
    en_forward_pair: float | None = None
    en_backward_pair: float | None = None
    m_max: int | None = None
    nbar_at_mmax: float | None = None
    solver_error: str | None = None


@dataclass(frozen=True)
class SweepGrid:
    """Dense grid of PointResults; results[i][k] is (r_values[i], j_values[k])."""

    r_values: np.ndarray
    j_values: np.ndarray
    base: NetworkConfig
    direction: Direction
    results: tuple
    passes: int | None = None  # solver passes (slices) of the sweep


def max_entangled_node(v: np.ndarray, threshold: float = ENTANGLEMENT_THRESHOLD) -> int:
    """Largest chain index m with E_N between source and node m above
    ``threshold``; 0 when no node is entangled.

    Scans every node rather than assuming entanglement depth is contiguous.
    Raises ComplexEigenvalueError for the first pair whose partially
    transposed spectrum is complex.
    """
    nodes = list(range(1, v.shape[0] // 2))
    en = pair_log_negativities(np.asarray(v, dtype=float)[None], 0, nodes)
    failed = np.flatnonzero(np.isnan(en[0]))
    if failed.size:
        log_negativity(reduce_two_mode(v, 0, nodes[failed[0]]))
    return int(_deepest(en, threshold)[0])


def _deepest(en: np.ndarray, threshold: float) -> np.ndarray:
    """Per row of E_N over nodes 1..M, the deepest node above threshold."""
    above = en > threshold
    depth = above.shape[1] - np.argmax(above[:, ::-1], axis=1)
    return np.where(above.any(axis=1), depth, 0)


def _grid_plan(net: ValidatedNetwork, drift: np.ndarray) -> BlockPlan:
    """One block plan for the drifts of ``net`` at every (r, j), from its
    drift ``drift`` at any one of them.

    Only the source's rows and columns depend on (r, j).  With the source
    coupling in it, the pattern contains every grid point's (j = 0 only
    removes that coupling, and r acts on the diagonal), so it is block
    triangular for all of them, and j = 0 points share the plan of the rest.
    """
    return block_plan(drift + source_coupling(net), varying=(0, 1))


POINT_FIELDS = tuple(field.name for field in fields(PointResult))
_DEPTH_FIELDS = ("m_max", "nbar_at_mmax")


def _source_pairs(net: ValidatedNetwork, wanted, depth: bool) -> tuple:
    """The chain nodes m whose source pair (0, m) the PointResult fields
    ``wanted`` need, ascending: every node for the depth scan, node 2 for
    ``en_forward_pair`` and node M-1 for ``en_backward_pair`` (both only
    when M >= 2)."""
    nodes = set(range(1, net.M + 1)) if depth else set()
    if net.M >= 2:
        if "en_forward_pair" in wanted:
            nodes.add(2)
        if "en_backward_pair" in wanted:
            nodes.add(net.M - 1)
    return tuple(sorted(nodes))


@dataclass(frozen=True)
class SweepColumns:
    """One slice of a sweep, column by column: entry b of every column
    belongs to the point (r[b], j[b]).

    ``solved`` marks the stable points whose solve and every computed
    quantity succeeded; ``errors`` holds the first failure of every other
    stable point as "Type: message" (None elsewhere), and ``physical`` is
    False where a point is not solved.  ``values`` holds the optional
    PointResult fields that were computed (source-pair E_N, ``m_max``,
    ``nbar_at_mmax``), defined only where ``solved`` (``nbar_at_mmax`` also
    needs m_max >= 1).
    """

    direction: Direction
    r: np.ndarray
    j: np.ndarray
    stable: np.ndarray
    physical: np.ndarray
    abscissa: np.ndarray
    solved: np.ndarray
    errors: list
    values: dict

    def column(self, field: str) -> list:
        """The PointResult field ``field`` of every point of the slice, None
        where it is undefined or was not computed."""
        plain = {
            "r_over_omega": self.r,
            "j_over_omega": self.j,
            "stable": self.stable,
            "physical": self.physical,
            "spectral_abscissa": self.abscissa,
        }
        if field in plain:
            return plain[field].tolist()
        if field == "direction":
            return [self.direction] * self.r.size
        if field == "solver_error":
            return list(self.errors)
        if field not in self.values:
            return [None] * self.r.size
        defined = self.solved
        if field == "nbar_at_mmax":
            defined = defined & (self.values["m_max"] >= 1)
        values = self.values[field].tolist()
        return [x if ok else None for x, ok in zip(values, defined.tolist())]

    def results(self) -> list:
        """The PointResult of every point of the slice."""
        columns = [self.column(field) for field in POINT_FIELDS]
        return [PointResult(*row) for row in zip(*columns)]


def _columns(
    net: ValidatedNetwork,
    r: np.ndarray,
    j: np.ndarray,
    drifts: np.ndarray,
    noise: np.ndarray,
    certified: bool,
    plan: BlockPlan,
    wanted,
) -> SweepColumns:
    """SweepColumns of ``net`` at the points (r[b], j[b]), with drifts
    ``drifts[b]`` and diffusion ``noise``, in one batch under the block
    plan ``plan``, computing the optional PointResult fields in ``wanted``
    only.  The solve overwrites ``drifts``.

    ``certified`` is ``certify_physicality`` of the network: when it holds,
    every stable, solved point is physical; otherwise the per-state test
    ``physicality`` decides.  Unstable dynamics is a finding, not an error:
    such a point has stable = False and no steady-state fields.  Solver and
    measure failures of a stable point go to its error, with the message
    the single-point functions raise, the first one in the order solve,
    physicality (per-state test only), source-pair entanglement.  Only the
    pairs ``wanted`` needs are evaluated, so a failure in any other pair
    goes unseen.
    """
    abscissa, states, errors = solve_steady_states(
        drifts, noise, -STABILITY_MARGIN, plan, overwrite_a=True
    )
    # drop the solve's scratch and, below, the unsolved states, so that the
    # measures hold only the solved states and the pair kernel
    del drifts
    stable = abscissa < -STABILITY_MARGIN
    solved = [b for b in np.flatnonzero(stable).tolist() if errors[b] is None]
    v = states[solved]
    del states
    physical = np.zeros(abscissa.size, dtype=bool)
    if certified:
        physical[solved] = True
    else:
        physical[solved], physical_errors = physicality(v)
        for b, error in zip(solved, physical_errors):
            errors[b] = error

    depth = net.direction is Direction.FORWARD and not set(_DEPTH_FIELDS).isdisjoint(wanted)
    nodes = _source_pairs(net, wanted, depth)
    en = pair_log_negativities(v, 0, nodes) if nodes else np.empty((len(solved), 0))
    for row in np.flatnonzero(np.isnan(en).any(axis=1)).tolist():
        b = solved[row]
        try:  # raises the error of the first failed pair
            log_negativity(reduce_two_mode(v[row], 0, nodes[np.argmax(np.isnan(en[row]))]))
        except EntflowError as exc:
            errors[b] = errors[b] or exc

    def at_every_point(column: np.ndarray) -> np.ndarray:
        full = np.zeros(abscissa.size, dtype=column.dtype)
        full[solved] = column
        return full

    values = {}
    for field, node in (("en_forward_pair", 2), ("en_backward_pair", net.M - 1)):
        if field in wanted and node in nodes:
            values[field] = at_every_point(en[:, nodes.index(node)])
    if depth:
        m_max = _deepest(en, ENTANGLEMENT_THRESHOLD)
        k, rows = 2 * m_max, np.arange(len(solved))
        values["m_max"] = at_every_point(m_max)
        values["nbar_at_mmax"] = at_every_point(
            (v[rows, k, k] + v[rows, k + 1, k + 1] - 2.0) / 4.0
        )

    messages = [
        f"{type(error).__name__}: {error}" if up and error is not None else None
        for up, error in zip(stable.tolist(), errors)
    ]
    ok = stable & np.array([message is None for message in messages], dtype=bool)
    return SweepColumns(
        direction=net.direction,
        r=r,
        j=j,
        stable=stable,
        physical=physical & ok,
        abscissa=abscissa,
        solved=ok,
        errors=messages,
        values=values,
    )


def _slices(net: ValidatedNetwork, r_values: np.ndarray, j_values: np.ndarray, wanted):
    """Yield the SweepColumns of ``net`` over the grid r_values x j_values
    (in units of ``net``'s frequency, j fastest) in slices of at most a fixed
    working set, under one block plan and one physicality certificate."""
    noise = build_noise_matrix(net)
    drift = build_dynamical_matrix(net)
    certified = certify_physicality(drift, noise)
    plan = _grid_plan(net, drift)
    del drift
    step = max(1, _BATCH_BYTES // (_STACKS_PER_POINT * 8 * net.dim * net.dim))
    n_j = j_values.size
    size = r_values.size * n_j
    for lo in range(0, size, step):
        index = np.arange(lo, min(lo + step, size))
        r, j = r_values[index // n_j], j_values[index % n_j]
        # the drifts are passed as a temporary, so the solve's scratch in
        # their memory is freed before the measures run
        yield _columns(
            net, r, j, build_drift_stack(net, r, j), noise, certified, plan, wanted
        )


def run_point(net: ValidatedNetwork) -> PointResult:
    """Solve one operating point and summarize it: the one-row view of the
    sweep engine, under the block plan a sweep of ``net`` would use.

    Unstable dynamics is a finding, not an error: the point comes back with
    stable = False and no steady-state fields.  Solver failures on stable
    points are captured in ``solver_error`` instead of propagating.
    """
    r, j = np.array([net.r]), np.array([net.j])
    drifts = build_drift_stack(net, r, j)
    noise = build_noise_matrix(net)
    certified = certify_physicality(drifts[0], noise)
    plan = _grid_plan(net, drifts[0])
    return _columns(net, r, j, drifts, noise, certified, plan, POINT_FIELDS).results()[0]


def sweep_columns(
    base: NetworkConfig,
    r_values,
    j_values,
    direction: Direction | None = None,
    wanted=POINT_FIELDS,
):
    """The sweep of ``sweep_grid`` slice by slice, as SweepColumns, with
    only the optional PointResult fields in ``wanted`` computed.

    The grid is checked at once; the slices are computed one at a time as
    they are iterated, so a caller that keeps none of them holds one slice's
    working set whatever the size of the grid.
    """
    r_values = np.asarray(r_values, dtype=float)
    j_values = np.asarray(j_values, dtype=float)
    if r_values.size == 0 or j_values.size == 0:
        raise ValueError("sweep grids must be nonempty")
    if not (np.isfinite(r_values).all() and np.isfinite(j_values).all()):
        raise ConfigError("sweep grid values must be finite")
    if (r_values < 0).any() or (j_values < 0).any():
        raise ValueError("sweep grid values must be >= 0")
    direction = base.direction if direction is None else direction

    # the first point's configuration, so an invalid base fails as it would there
    net = validate_config(
        replace(base, r=float(r_values[0]), j=float(j_values[0]), direction=direction)
    )
    scale = net.frequency_scale
    return _slices(net, r_values / scale, j_values / scale, tuple(wanted))


def sweep_grid(
    base: NetworkConfig,
    r_values,
    j_values,
    direction: Direction | None = None,
) -> SweepGrid:
    """Evaluate run_point on the cartesian grid r_values x j_values.

    ``direction`` overrides the base configuration's direction when given.
    The grid runs through the batched engine in slices of at most a fixed
    working set, under one block plan and one physicality certificate of
    the generator, with every field computed; each point's result is the
    one run_point gives for it.
    """
    r_values = np.asarray(r_values, dtype=float)
    j_values = np.asarray(j_values, dtype=float)
    direction = base.direction if direction is None else direction
    flat = []
    passes = 0
    for columns in sweep_columns(base, r_values, j_values, direction):
        flat.extend(columns.results())
        passes += 1

    n_j = j_values.size
    rows = tuple(tuple(flat[i * n_j : (i + 1) * n_j]) for i in range(r_values.size))
    return SweepGrid(
        r_values=r_values,
        j_values=j_values,
        base=base,
        direction=direction,
        results=rows,
        passes=passes,
    )


def _fields(figure: _Figure, direction: Direction) -> tuple:
    """The PointResult field of each column of ``figure``, for the points of
    a ``direction`` sweep."""
    return tuple(
        field if isinstance(field, str) else field[direction] for _, field, _ in figure.columns
    )


def figure_dataset(
    name: str,
    base: NetworkConfig,
    r_values,
    j_values,
    direction: Direction | None = None,
):
    """The sweep of figure ``name`` over the grid r_values x j_values, as the
    SweepColumns slices of each direction it sweeps, one direction after the
    other, with only the fields its columns hold computed.

    nonreciprocity  forward, then backward, and takes no ``direction``: the
                    source-to-probe pair of each (node 2 forward, node M-1
                    backward);
    depth           forward only: m_max;
    occupation      forward only: nbar of the deepest entangled node;
    stability       either direction: the stable and physical flags and
                    the spectral abscissa.

    ``direction`` None is the figure's default, forward, whatever the
    direction of ``base``.  The figure, the direction and the grid are
    checked at once (ConfigError; ValueError for an empty or negative
    grid); the slices are computed as they are iterated.
    """
    if name not in _FIGURES:
        raise ConfigError(f"unknown figure '{name}', expected one of {FIGURE_NAMES}")
    figure = _FIGURES[name]
    if figure.every_direction:
        if direction is not None:
            raise ConfigError(
                f"figure '{name}' always sweeps both directions; it takes no direction"
            )
        directions = figure.directions
    elif direction is None:
        directions = figure.directions[:1]
    elif direction in figure.directions:
        directions = (direction,)
    else:
        raise ConfigError(
            f"figure '{name}' is defined for the {figure.directions[0].value} direction"
        )
    sweeps = [sweep_columns(base, r_values, j_values, d, _fields(figure, d)) for d in directions]
    return itertools.chain.from_iterable(sweeps)


def _csv_lines(figure: _Figure, columns: SweepColumns) -> str:
    """CSV lines of ``figure`` for one slice of its sweep, one column at a
    time; None is an empty cell."""
    cells = []
    for (_, _, kind), field in zip(figure.columns, _fields(figure, columns.direction)):
        cell = _CELLS[kind]
        cells.append(["" if x is None else cell(x) for x in columns.column(field)])
    return "".join([",".join(row) + "\n" for row in zip(*cells)])


def export_csv(
    name: str,
    base: NetworkConfig,
    r_values,
    j_values,
    path,
    direction: Direction | None = None,
) -> tuple:
    """Write figure ``name`` over the grid r_values x j_values to ``path`` as
    CSV, streaming each slice of ``figure_dataset`` as it is computed, so
    memory does not grow with the grid.

    The file is UTF-8 with LF line endings and a header row.  Floats have
    17 significant digits, so they round-trip bit-exactly, and booleans are
    true/false.  A cell is empty where its point is unstable, or where the
    point's solve (with the per-state physicality test where it runs) or the
    quantity the figure writes failed; a pair the figure does not write is
    never evaluated, so its failure blanks nothing.

    The figure, the direction and the grid are checked before ``path`` is
    opened, and any failure after that removes the partial file.  Returns
    (SHA-256 hex digest of the bytes written, rows written, per direction
    value in sweep order the sweep's statistics: solver passes and the
    counts of stable (solved), unstable and failed points, which add up to
    the grid).
    """
    slices = figure_dataset(name, base, r_values, j_values, direction)
    figure = _FIGURES[name]
    digest = hashlib.sha256()
    rows = 0
    sweeps: dict = {}
    with open(path, "wb") as handle:

        def write(text: str) -> None:
            data = text.encode("utf-8")
            digest.update(data)
            handle.write(data)

        try:
            write(",".join(header for header, _, _ in figure.columns) + "\n")
            for columns in slices:
                write(_csv_lines(figure, columns))
                size = columns.r.size
                failed = sum(error is not None for error in columns.errors)
                unstable = size - int(columns.stable.sum())
                counts = sweeps.setdefault(
                    columns.direction.value,
                    {"passes": 0, "stable": 0, "unstable": 0, "failed": 0},
                )
                counts["passes"] += 1
                counts["stable"] += size - unstable - failed
                counts["unstable"] += unstable
                counts["failed"] += failed
                rows += size
        except BaseException:
            # leave no partial table behind
            handle.close()
            Path(path).unlink(missing_ok=True)
            raise
    return digest.hexdigest(), rows, sweeps
