"""Parameter sweeps over squeezing and coupling, and figure-ready exports.

A sweep evaluates the steady state on a dense (r, j) grid for one transport
direction and records, per point: stability, physicality, the pair
entanglement between the source and the probe nodes, how deep entanglement
reaches into the chain, and the occupation of the deepest entangled node.
Unstable points carry no steady-state quantities (empty CSV cells).

Only the source block of the drift depends on (r, j), so the grid is
carried as a leading batch axis: one stack of drifts, stability from the
same per-block factorization the solve uses, a triangular Sylvester solve
for the stable points only, and every pair entanglement on every (point,
node) pair from stacked closed forms.  One block plan serves the whole
network: its nonzero pattern with the source coupling holds every grid
point's, j = 0 included.  The batch is cut into slices under a fixed
working-set budget, counted from the stacks the engine holds at once.
Physicality does not depend on (r, j) at all: one certificate of the
generator (``certify_physicality``) per sweep proves every stable steady
state physical, and the per-state test runs only where the certificate
fails.  ``run_point`` is the same engine, under the same plan, on a batch
of one, and a point's result never depends on the batch it was computed
in.

Everything here is deterministic: no randomness, no timestamps.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, EntflowError, MissingDirectionError
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

FIGURE_NAMES = ("nonreciprocity", "depth", "occupation", "stability")

_COLUMNS = {
    "nonreciprocity": ("r_over_omega", "j_over_omega", "direction", "log_negativity"),
    "depth": ("r_over_omega", "j_over_omega", "m_max"),
    "occupation": ("r_over_omega", "j_over_omega", "nbar"),
    "stability": ("r_over_omega", "j_over_omega", "stable", "physical", "spectral_abscissa"),
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


@dataclass(frozen=True)
class FigureTable:
    """Rows ready for CSV export; None cells export as empty fields."""

    name: str
    columns: tuple
    rows: tuple


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
    return _deepest(en, threshold)[0]


def _deepest(en: np.ndarray, threshold: float) -> list:
    """Per row of E_N over nodes 1..M, the deepest node above threshold."""
    above = en > threshold
    depth = above.shape[1] - np.argmax(above[:, ::-1], axis=1)
    return np.where(above.any(axis=1), depth, 0).tolist()


def _grid_plan(net: ValidatedNetwork, drift: np.ndarray) -> BlockPlan:
    """One block plan for the drifts of ``net`` at every (r, j), from its
    drift ``drift`` at any one of them.

    Only the source's rows and columns depend on (r, j).  With the source
    coupling in it, the pattern contains every grid point's (j = 0 only
    removes that coupling, and r acts on the diagonal), so it is block
    triangular for all of them, and j = 0 points share the plan of the rest.
    """
    return block_plan(drift + source_coupling(net), varying=(0, 1))


def _summaries(
    net: ValidatedNetwork,
    r: np.ndarray,
    j: np.ndarray,
    drifts: np.ndarray,
    noise: np.ndarray,
    certified: bool,
    plan: BlockPlan,
) -> list:
    """PointResults of ``net`` at the points (r[b], j[b]), with drifts
    ``drifts[b]`` and diffusion ``noise``, in one batch under the block
    plan ``plan``.  The solve overwrites ``drifts``.

    ``certified`` is ``certify_physicality`` of the network: when it holds,
    every stable, solved point is physical; otherwise the per-state test
    ``physicality`` decides.  Unstable dynamics is a finding, not an error:
    such a point comes back with stable = False and no steady-state fields.
    Solver and measure failures of a stable point go to its
    ``solver_error``, with the message the single-point functions raise,
    the first one in the order solve, physicality (per-state test only),
    pair entanglement.
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
    if certified:
        physical = np.ones(len(solved), dtype=bool)
    else:
        physical, physical_errors = physicality(v)
        for b, error in zip(solved, physical_errors):
            errors[b] = error

    # source pairs: forward, every node for the depth scan, which includes
    # the near and far probes; backward, the probes only
    forward = net.direction is Direction.FORWARD
    probes = [2, net.M - 1] if net.M >= 2 else []
    nodes = list(range(1, net.M + 1)) if forward else probes
    columns = [nodes.index(m) for m in probes]
    en = pair_log_negativities(v, 0, nodes) if nodes else np.empty((len(solved), 0))
    for row in np.flatnonzero(np.isnan(en).any(axis=1)).tolist():
        b = solved[row]
        try:  # raises the error of the first failed pair
            log_negativity(reduce_two_mode(v[row], 0, nodes[np.argmax(np.isnan(en[row]))]))
        except EntflowError as exc:
            errors[b] = errors[b] or exc
    if forward:
        m_max = _deepest(en, ENTANGLEMENT_THRESHOLD)
        k = 2 * np.array(m_max, dtype=int)
        rows = np.arange(len(solved))
        nbar = ((v[rows, k, k] + v[rows, k + 1, k + 1] - 2.0) / 4.0).tolist()

    row_of = {b: row for row, b in enumerate(solved)}
    results = []
    for b in range(abscissa.size):
        fields = dict(
            r_over_omega=float(r[b]),
            j_over_omega=float(j[b]),
            direction=net.direction,
            stable=bool(stable[b]),
            physical=False,
            spectral_abscissa=float(abscissa[b]),
        )
        if stable[b] and errors[b] is not None:
            fields["solver_error"] = f"{type(errors[b]).__name__}: {errors[b]}"
        elif stable[b]:
            row = row_of[b]
            pairs = en[row, columns].tolist() or [None, None]
            fields.update(
                physical=bool(physical[row]),
                en_forward_pair=pairs[0],
                en_backward_pair=pairs[1],
            )
            if forward:
                fields.update(
                    m_max=m_max[row],
                    nbar_at_mmax=nbar[row] if m_max[row] >= 1 else None,
                )
        results.append(PointResult(**fields))
    return results


def run_point(net: ValidatedNetwork) -> PointResult:
    """Solve one operating point and summarize it: the sweep engine on a
    batch of one, under the block plan a sweep of ``net`` would use.

    Unstable dynamics is a finding, not an error: the point comes back with
    stable = False and no steady-state fields.  Solver failures on stable
    points are captured in ``solver_error`` instead of propagating.
    """
    r, j = np.array([net.r]), np.array([net.j])
    drifts = build_drift_stack(net, r, j)
    noise = build_noise_matrix(net)
    certified = certify_physicality(drifts[0], noise)
    plan = _grid_plan(net, drifts[0])
    return _summaries(net, r, j, drifts, noise, certified, plan)[0]


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
    the generator; each point's result is the one run_point gives for it.
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
    r_flat = np.repeat(r_values, j_values.size) / net.frequency_scale
    j_flat = np.tile(j_values, r_values.size) / net.frequency_scale
    noise = build_noise_matrix(net)
    drift = build_dynamical_matrix(net)
    certified = certify_physicality(drift, noise)
    plan = _grid_plan(net, drift)
    step = max(1, _BATCH_BYTES // (_STACKS_PER_POINT * 8 * net.dim * net.dim))
    flat = []
    for lo in range(0, r_flat.size, step):
        r, j = r_flat[lo : lo + step], j_flat[lo : lo + step]
        flat.extend(
            _summaries(net, r, j, build_drift_stack(net, r, j), noise, certified, plan)
        )

    n_j = j_values.size
    rows = tuple(tuple(flat[i * n_j : (i + 1) * n_j]) for i in range(r_values.size))
    return SweepGrid(
        r_values=r_values,
        j_values=j_values,
        base=base,
        direction=direction,
        results=rows,
        passes=-(-r_flat.size // step),
    )


def _by_direction(grids) -> dict:
    if isinstance(grids, SweepGrid):
        grids = [grids]
    table: dict = {}
    for grid in grids:
        if grid.direction in table:
            raise ValueError(f"duplicate sweep for direction {grid.direction.value}")
        table[grid.direction] = grid
    return table


def _require(table: dict, direction: Direction, figure: str) -> SweepGrid:
    if direction not in table:
        raise MissingDirectionError(
            f"figure '{figure}' needs a {direction.value} sweep"
        )
    return table[direction]


def _points(grid: SweepGrid):
    for row in grid.results:
        yield from row


def figure_dataset(name: str, grids) -> FigureTable:
    """Flatten sweeps into one of the named figure tables.

    nonreciprocity  needs both directions: (r, j, direction, log_negativity),
                    reporting the source-to-probe pair for each direction
                    (node 2 forward, node M-1 backward);
    depth           forward only: (r, j, m_max);
    occupation      forward only: (r, j, nbar of the deepest entangled node);
    stability       one direction (forward preferred): adds the physicality
                    flag and the spectral abscissa.
    """
    if name not in FIGURE_NAMES:
        raise ValueError(f"unknown figure '{name}', expected one of {FIGURE_NAMES}")
    table = _by_direction(grids)
    rows: list = []

    if name == "nonreciprocity":
        forward = _require(table, Direction.FORWARD, name)
        backward = _require(table, Direction.BACKWARD, name)
        for grid, field in ((forward, "en_forward_pair"), (backward, "en_backward_pair")):
            for pt in _points(grid):
                rows.append(
                    (pt.r_over_omega, pt.j_over_omega, grid.direction.value,
                     getattr(pt, field))
                )
    elif name in ("depth", "occupation"):
        grid = _require(table, Direction.FORWARD, name)
        field = "m_max" if name == "depth" else "nbar_at_mmax"
        for pt in _points(grid):
            rows.append((pt.r_over_omega, pt.j_over_omega, getattr(pt, field)))
    else:
        grid = table.get(Direction.FORWARD) or next(iter(table.values()))
        for pt in _points(grid):
            rows.append(
                (pt.r_over_omega, pt.j_over_omega, pt.stable, pt.physical,
                 pt.spectral_abscissa)
            )

    return FigureTable(name=name, columns=_COLUMNS[name], rows=tuple(rows))


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def export_csv(table: FigureTable, path) -> None:
    """Write the table as UTF-8 CSV with LF line endings and a header row.

    Floats are written with 17 significant digits so values round-trip
    bit-exactly; undefined cells are empty.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(table.columns) + "\n")
        for row in table.rows:
            handle.write(",".join(_format_cell(cell) for cell in row) + "\n")
