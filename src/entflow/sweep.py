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
closed forms.  One block plan serves the whole network: the nonzero
pattern of its drift at j = 1 holds every grid point's, j = 0 included.
The batch is cut into slices under a fixed working-set budget, counted
from the stacks the engine holds at once.  Stability is read off the whole
block form, by the solve's own rule.  Physicality does not depend on
(r, j) at all: one certificate of the generator (``certify_physicality``)
per sweep decides it for every solved point.  The certificate holds for every valid
network with dissipation, and a network without any has no stable point.

Transport is one-way, so a node's state depends only on the nodes upstream
of it.  A sweep solves only the trailing block of the plan that holds the
nodes its fields read (``BlockPlan.trailing``): the source and the probe or
depth-scan nodes, their groups and every later group.  Its states are
bitwise those of the whole solve, and the residual contract is checked on
that block, so a point whose solve would fail only outside it is not
failed.  Forward, the pair (0, 2) needs nodes 0-2 alone; backward, the
source's group is the first, so any pair solves every node, as the depth
scan does.  A sweep that reads no node runs the same solve on an empty
block: the abscissa decides stable, and physical is stable and the
certificate.

The engine hands back each slice as columns (``SweepColumns``): r, j,
stable, physical, the spectral abscissa, each point's failure, and only the
optional fields that were asked for (``sweep_columns``).  One table
(``_FIGURES``) holds each figure's directions and columns, and
``figure_dataset`` sweeps a figure asking only for the fields it writes:
``nonreciprocity`` the pair (0, 2) forward (solving nodes 0-2) and
(0, M-1) backward, ``depth`` and ``occupation`` the depth scan over every
node, ``stability`` no pair at all, so its solve is of an empty block and
never fails.  ``export_csv``, the one figure writer, streams each slice's
rows to the CSV as soon as it is computed, so its memory does not grow
with the grid.  A figure cell is empty when its point is unstable, or when
the point's solve or the quantity the figure writes failed; a pair the
figure does not write is never evaluated, and a node it does not read is
never solved, so their failures blank nothing.  A bad figure, direction
or grid is a ConfigError before any work; a direction must first be a
Direction member, the rule ``config_violations`` applies to a
configuration, and then one the figure sweeps.  ``sweep_grid`` asks for
every field and keeps one PointResult per point, whose ``solver_error`` is
the first failure of any of them; ``run_point`` is the one-point sweep,
through the same setup and plan, and a point's result never depends on
the batch it was computed in.  Each slice builds its own
drift stack and frees it right after the solve, so the measures never
hold it, on every supported Python.

Everything here is deterministic: no randomness, no timestamps.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ConfigError
from .lyapunov import (
    STABILITY_MARGIN,
    BlockPlan,
    block_plan,
    solve_steady_states,
)
from .measures import _indefinite_pair, certify_physicality, pair_log_negativities
from .network import (
    Direction,
    NetworkConfig,
    ValidatedNetwork,
    build_drift_stack,
    build_noise_matrix,
    direction_violation,
    validate_config,
)

# E_N at or below this counts as no entanglement (numerical zero).
ENTANGLEMENT_THRESHOLD = 1e-10
# Working set of one batch slice in bytes.  Per point, the engine holds at
# most _STACKS_PER_POINT (2M+2)x(2M+2) matrices of 8-byte entries at once:
# in the solve, the block form and the right-hand side (in the drifts'
# memory) plus temporaries made a part of the stack at a time; in the
# measures, the solved states and the pair kernel's 4x4 stacks.  The slice
# owns its drift stack and frees it before the measures.  A full
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

    ``stable`` is the solve's verdict: a spectral abscissa below
    -STABILITY_MARGIN.  ``physical`` is the physicality of the exact steady
    state of the generator: the generator's certificate
    (``certify_physicality``) at every stable point whose solve and pairs
    succeeded, and False elsewhere.  The computed block is still held to the
    solver's residual contract, and a failed pair goes to ``solver_error``.
    A sweep that reads no node (the ``stability`` figure) solves an empty
    block, so there ``physical`` is stable and the certificate.

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


def max_entangled_node(v: np.ndarray) -> int:
    """Largest chain index m with E_N between source and node m above
    ENTANGLEMENT_THRESHOLD; 0 when no node is entangled, or there is none.

    Scans every node rather than assuming entanglement depth is contiguous.
    Raises ComplexEigenvalueError when a pair's partially transposed
    spectrum is complex.
    """
    nodes = list(range(1, v.shape[0] // 2))
    en = pair_log_negativities(np.asarray(v, dtype=float)[None], 0, nodes)
    if np.isnan(en).any():
        raise _indefinite_pair()
    return int(_deepest(en)[0])


def _deepest(en: np.ndarray) -> np.ndarray:
    """Per row of E_N over nodes 1..M, the deepest node above
    ENTANGLEMENT_THRESHOLD, 0 when there is none."""
    above = en > ENTANGLEMENT_THRESHOLD
    return (above * np.arange(1, above.shape[1] + 1)).max(axis=1, initial=0)


POINT_FIELDS = tuple(field.name for field in fields(PointResult))
_DEPTH_FIELDS = ("m_max", "nbar_at_mmax")


def probe_nodes(m: int) -> dict:
    """The probe node of each source-pair PointResult field of an m-node
    chain: node 2 for ``en_forward_pair`` and node m-1 for
    ``en_backward_pair``; no pair when m < 2."""
    return {"en_forward_pair": 2, "en_backward_pair": m - 1} if m >= 2 else {}


def _source_pairs(net: ValidatedNetwork, wanted, depth: bool) -> tuple:
    """The chain nodes m whose source pair (0, m) the PointResult fields
    ``wanted`` need, ascending: every node for the depth scan, and the
    probe node of each wanted pair field (``probe_nodes``)."""
    nodes = set(range(1, net.M + 1)) if depth else set()
    nodes.update(node for field, node in probe_nodes(net.M).items() if field in wanted)
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
    needs m_max >= 1).  ``nodes`` are the nodes whose steady state was
    solved, ascending: the trailing block of the block plan that holds
    every node ``values`` read, empty when they read none.
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
    nodes: tuple

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
    noise: np.ndarray,
    certified: bool,
    plan: BlockPlan,
    wanted,
) -> SweepColumns:
    """SweepColumns of ``net`` at the points (r[b], j[b]), with diffusion
    ``noise``, in one batch under the block plan ``plan``, computing the
    optional PointResult fields in ``wanted`` only.

    ``certified`` is ``certify_physicality`` of the network, the
    ``physical`` flag of every stable, solved point.  Unstable dynamics is a
    finding, not an error: such a point has stable = False and no
    steady-state fields.  Solver and measure failures of a stable point go
    to its error, with the message the single-point functions raise, the
    first one in the order solve, source-pair entanglement.  Only the pairs
    ``wanted`` needs are evaluated, and only the trailing block of ``plan``
    that holds them is solved, so a failure anywhere else goes unseen; with
    no pair, that block is empty and the abscissa alone decides the point.
    """
    depth = net.direction is Direction.FORWARD and not set(_DEPTH_FIELDS).isdisjoint(wanted)
    nodes = _source_pairs(net, wanted, depth)
    read = (0, *nodes) if nodes else ()
    plan = plan.trailing([q for k in read for q in (2 * k, 2 * k + 1)])
    drifts = build_drift_stack(net, r, j)
    abscissa, states, errors = solve_steady_states(drifts, noise, plan, overwrite_a=True)
    # drop the solve's scratch (in the drifts' memory) and, below, the
    # unsolved states, so that the measures hold only the solved states and
    # the pair kernel
    del drifts
    # an unstable point's error (UnstableError) is a finding
    stable = abscissa < -STABILITY_MARGIN
    solved = [b for b in np.flatnonzero(stable).tolist() if errors[b] is None]
    v = states[solved]
    del states

    # The network's pattern is unchanged by swapping every x with its p, so
    # a node's two quadratures share a group or sit in adjacent groups, and
    # the solved block holds whole nodes: its node i is node held[i].
    held = plan.solved[0::2] // 2
    slot = np.searchsorted(held, read).tolist()
    en = pair_log_negativities(v, slot[0], slot[1:]) if nodes else np.empty((len(solved), 0))
    for row in np.flatnonzero(np.isnan(en).any(axis=1)).tolist():
        errors[solved[row]] = _indefinite_pair()

    def at_every_point(column: np.ndarray) -> np.ndarray:
        full = np.zeros(abscissa.size, dtype=column.dtype)
        full[solved] = column
        return full

    values = {}
    for field, node in probe_nodes(net.M).items():
        if field in wanted:
            values[field] = at_every_point(en[:, nodes.index(node)])
    if depth:
        m_max = _deepest(en)
        k, rows = 2 * np.searchsorted(held, m_max), np.arange(len(solved))
        values["m_max"] = at_every_point(m_max)
        values["nbar_at_mmax"] = at_every_point(
            (v[rows, k, k] + v[rows, k + 1, k + 1] - 2.0) / 4.0
        )

    ok = stable & np.array([error is None for error in errors], dtype=bool)
    messages = [
        f"{type(error).__name__}: {error}" if up and error is not None else None
        for up, error in zip(stable.tolist(), errors)
    ]
    return SweepColumns(
        direction=net.direction,
        r=r,
        j=j,
        stable=stable,
        physical=ok & certified,
        abscissa=abscissa,
        solved=ok,
        errors=messages,
        values=values,
        nodes=tuple(held.tolist()),
    )


def _slices(net: ValidatedNetwork, r_values: np.ndarray, j_values: np.ndarray, wanted):
    """Yield the SweepColumns of ``net`` over the grid r_values x j_values
    (in units of ``net``'s frequency, j fastest) in slices of at most a fixed
    working set, under one block plan and one physicality certificate."""
    noise = build_noise_matrix(net)
    # Only the source's rows and columns depend on (r, j).  The pattern of
    # the drift at j = 1 contains every grid point's (j = 0 only removes the
    # coupling, and r acts on the diagonal), so one plan is block triangular
    # for all of them, and j = 0 points share the plan of the rest.  The
    # coupling is Hamiltonian, so the certificate does not depend on j.
    drift = build_drift_stack(net, [net.r], [1.0])[0]
    certified = certify_physicality(drift, noise)
    plan = block_plan(drift)
    del drift
    step = max(1, _BATCH_BYTES // (_STACKS_PER_POINT * 8 * net.dim * net.dim))
    n_j = j_values.size
    size = r_values.size * n_j
    for lo in range(0, size, step):
        index = np.arange(lo, min(lo + step, size))
        r, j = r_values[index // n_j], j_values[index % n_j]
        yield _columns(net, r, j, noise, certified, plan, wanted)


def run_point(net: ValidatedNetwork) -> PointResult:
    """Solve one operating point and summarize it: the one-point sweep of
    ``net``, under the block plan a sweep of ``net`` would use.

    Unstable dynamics is a finding, not an error: the point comes back with
    stable = False and no steady-state fields.  Solver failures on stable
    points are captured in ``solver_error`` instead of propagating.
    """
    (columns,) = _slices(net, np.array([net.r]), np.array([net.j]), POINT_FIELDS)
    return columns.results()[0]


def sweep_columns(
    base: NetworkConfig,
    r_values,
    j_values,
    direction: Direction | None = None,
    wanted=POINT_FIELDS,
):
    """The sweep of ``sweep_grid`` slice by slice, as SweepColumns, with
    only the optional PointResult fields in ``wanted`` computed.

    The grid is checked at once (ConfigError for an empty, non-finite or
    negative grid); the slices are computed one at a time as
    they are iterated, so a caller that keeps none of them holds one slice's
    working set whatever the size of the grid.
    """
    r_values = np.asarray(r_values, dtype=float)
    j_values = np.asarray(j_values, dtype=float)
    if r_values.size == 0 or j_values.size == 0:
        raise ConfigError("sweep grids must be nonempty")
    if not (np.isfinite(r_values).all() and np.isfinite(j_values).all()):
        raise ConfigError("sweep grid values must be finite")
    if (r_values < 0).any() or (j_values < 0).any():
        raise ConfigError("sweep grid values must be >= 0")
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
    for columns in sweep_columns(base, r_values, j_values, direction):
        flat.extend(columns.results())

    n_j = j_values.size
    rows = tuple(tuple(flat[i * n_j : (i + 1) * n_j]) for i in range(r_values.size))
    return SweepGrid(
        r_values=r_values,
        j_values=j_values,
        base=base,
        direction=direction,
        results=rows,
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
                    source-to-probe pair of each (node 2 forward, solving
                    nodes 0-2 only; node M-1 backward, solving every node);
    depth           forward only: m_max, solving every node;
    occupation      forward only: nbar of the deepest entangled node,
                    solving every node;
    stability       either direction: the stable and physical flags and
                    the spectral abscissa, solving no steady state.

    ``direction`` None is the figure's default, forward, whatever the
    direction of ``base``.  The figure, the direction and the grid are
    checked at once, each with a ConfigError: a direction first by the
    rule ``config_violations`` applies (it must be a Direction member),
    then against the directions the figure sweeps.  The slices are
    computed as they are iterated.
    """
    if name not in _FIGURES:
        raise ConfigError(f"unknown figure '{name}', expected one of {FIGURE_NAMES}")
    figure = _FIGURES[name]
    problem = None if direction is None else direction_violation(direction)
    if problem is not None:
        raise problem
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
    point's solve or the quantity the figure writes failed; a pair the
    figure does not write is never evaluated, so its failure blanks
    nothing.

    The figure, the direction and the grid are checked before ``path`` is
    opened, and any failure after that removes the partial file.  Returns
    (SHA-256 hex digest of the bytes written, rows written, per direction
    value in sweep order the sweep's statistics: solver passes and the
    counts of stable (solved), unstable and failed points, which add up to
    the grid; and per direction value the nodes whose steady state the
    sweep solved: "all", their ascending list, or "none").
    """
    slices = figure_dataset(name, base, r_values, j_values, direction)
    figure = _FIGURES[name]
    digest = hashlib.sha256()
    rows = 0
    sweeps: dict = {}
    solved: dict = {}
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
                nodes = list(columns.nodes)
                solved[columns.direction.value] = (
                    "all" if len(nodes) == int(base.M) + 1 else nodes or "none"
                )
                rows += size
        except BaseException:
            # leave no partial table behind
            handle.close()
            Path(path).unlink(missing_ok=True)
            raise
    return digest.hexdigest(), rows, sweeps, solved
