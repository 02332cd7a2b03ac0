"""Grid sweeps, per-point summaries, figure tables, and CSV export."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from dataclasses import replace
from numpy.testing import assert_allclose

import entflow.sweep
import oracles
from entflow import (
    DEFAULT_CONFIG,
    ENTANGLEMENT_THRESHOLD,
    FIGURE_NAMES,
    ComplexEigenvalueError,
    ConfigError,
    Direction,
    ResidualTooLargeError,
    SweepGrid,
    block_plan,
    build_drift_stack,
    build_dynamical_matrix,
    build_noise_matrix,
    certify_physicality,
    config_violations,
    export_csv,
    figure_dataset,
    log_negativity,
    max_entangled_node,
    reduce_two_mode,
    run_point,
    solve_steady_state_spectral,
    solve_steady_states,
    sweep_columns,
    sweep_grid,
    validate_config,
)


def make_net(**overrides):
    return validate_config(replace(DEFAULT_CONFIG, **overrides))


def planted_pair_state(n_modes: int, partner: int, s: float = 0.3) -> np.ndarray:
    """Covariance matrix of n_modes vacua with a two-mode squeezed pair
    planted between mode 0 and ``partner``; every other mode stays vacuum."""
    v = np.eye(2 * n_modes)
    c = math.cosh(2.0 * s)
    z = math.sinh(2.0 * s) * np.diag([1.0, -1.0])
    v[0:2, 0:2] = c * np.eye(2)
    p = slice(2 * partner, 2 * partner + 2)
    v[p, p] = c * np.eye(2)
    v[0:2, p] = z
    v[p, 0:2] = z
    return v


# ---------------------------------------------------------------------------
# depth scan


def test_max_entangled_node_vacuum_is_zero():
    assert max_entangled_node(np.eye(12)) == 0


def test_max_entangled_node_finds_noncontiguous_partner():
    # entanglement with node 3 only: the scan must not stop at the
    # unentangled nodes 1 and 2
    v = planted_pair_state(6, partner=3)
    assert max_entangled_node(v) == 3


def test_max_entangled_node_without_chain_nodes_is_zero():
    # the source alone: no node to scan, so none is entangled
    assert max_entangled_node(np.eye(2)) == 0


# ---------------------------------------------------------------------------
# single points


def test_run_point_vacuum():
    result = run_point(make_net(r=0.0, j=0.0))
    assert result.stable and result.physical
    assert result.spectral_abscissa < 0.0
    assert result.en_forward_pair == 0.0
    assert result.en_backward_pair == 0.0
    # +0.0, so reports and CSVs print "0" rather than "-0"
    assert math.copysign(1.0, result.en_forward_pair) == 1.0
    assert result.m_max == 0
    assert result.nbar_at_mmax is None
    assert result.solver_error is None


def test_run_point_forward_moderate():
    result = run_point(make_net(r=0.1, j=0.5))
    assert result.stable and result.physical
    assert result.en_forward_pair > ENTANGLEMENT_THRESHOLD
    assert result.m_max >= 1
    assert result.nbar_at_mmax > 0.0


def test_run_point_backward_carries_no_entanglement():
    result = run_point(make_net(r=0.1, j=0.5, direction=Direction.BACKWARD))
    assert result.stable and result.physical
    assert result.en_backward_pair <= ENTANGLEMENT_THRESHOLD
    # depth is a forward-transport quantity
    assert result.m_max is None
    assert result.nbar_at_mmax is None


def test_run_point_unstable_has_no_state_fields():
    result = run_point(make_net(r=2.0, j=0.1))
    assert not result.stable
    assert not result.physical
    assert result.spectral_abscissa > 0.0
    assert result.en_forward_pair is None
    assert result.en_backward_pair is None
    assert result.m_max is None
    assert result.nbar_at_mmax is None
    assert result.solver_error is None


def test_run_point_single_node_has_no_pairs():
    result = run_point(make_net(M=1, r=0.1, j=0.3))
    assert result.stable
    assert result.en_forward_pair is None
    assert result.en_backward_pair is None


def test_long_forward_chain_matches_bartels_stewart():
    net = make_net(M=100, r=0.1, j=0.5, nbar_local=0.01, nbar_common=0.02)
    result = run_point(net)
    assert result.stable and result.physical
    assert result.solver_error is None
    a, n = build_dynamical_matrix(net), build_noise_matrix(net)
    v = solve_steady_state_spectral(a, n)
    reference = oracles.lyapunov_bartels_stewart(a, n)
    assert np.linalg.norm(v - reference) <= 1e-10 * np.linalg.norm(reference)


# ---------------------------------------------------------------------------
# grids


def test_backward_upstream_nodes_do_not_see_the_source(monkeypatch):
    # in Backward runs chain nodes 1..M-1 sit upstream of the source, so
    # their covariance blocks must come out bitwise the same for every (r, j)
    states = []

    def recording(*args, **kwargs):
        abscissa, v, errors = solve_steady_states(*args, **kwargs)
        states.extend(v[b] for b, error in enumerate(errors) if error is None)
        return abscissa, v, errors

    # the sweep solves its grid in batches; record every state it solved
    monkeypatch.setattr("entflow.sweep.solve_steady_states", recording)
    base = replace(DEFAULT_CONFIG, nbar_local=0.01, nbar_common=0.02)
    values = [0.0, 0.05, 0.2, 0.45]
    grid = sweep_grid(base, values, [0.1, 0.2, 0.5, 0.9], Direction.BACKWARD)
    n_stable = sum(p.stable for row in grid.results for p in row)
    assert len(states) == n_stable >= 10
    upstream = slice(2, 2 * base.M)
    first = states[0][upstream, upstream]
    assert not np.array_equal(first, np.eye(first.shape[0]))
    for v in states[1:]:
        assert np.array_equal(v[upstream, upstream], first)


def test_point_failures_stay_with_their_point(monkeypatch):
    # a failed solve and an unphysical state in the middle of a batch: each
    # failure lands in its own point's solver_error, with the message the
    # single-point functions give, and the rest of the batch is unaffected
    planted = {}

    def failing(*args, **kwargs):
        abscissa, v, errors = solve_steady_states(*args, **kwargs)
        errors[0] = ResidualTooLargeError("planted")
        v[1][0:2, 4:6] = v[1][4:6, 0:2] = 5.0 * np.eye(2)
        planted["state"] = v[1].copy()
        return abscissa, v, errors

    monkeypatch.setattr("entflow.sweep.solve_steady_states", failing)
    row = sweep_grid(DEFAULT_CONFIG, [0.1], [0.2, 0.5, 0.9]).results[0]
    with pytest.raises(ComplexEigenvalueError) as unphysical:
        log_negativity(reduce_two_mode(planted["state"], 0, 2))
    for point, error in zip(row, ["ResidualTooLargeError: planted",
                                  f"ComplexEigenvalueError: {unphysical.value}"]):
        assert point.stable and not point.physical
        assert point.solver_error == error
        assert point.en_forward_pair is None and point.m_max is None
    monkeypatch.undo()
    assert row[2] == run_point(make_net(r=0.1, j=0.9))


def counting(monkeypatch, name):
    """Replace entflow.sweep.<name> by a wrapper that counts its calls."""
    calls = []
    original = getattr(entflow.sweep, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(f"entflow.sweep.{name}", counted)
    return calls


def test_certified_sweep_marks_every_stable_point_physical():
    base = replace(DEFAULT_CONFIG, nbar_local=0.01, nbar_common=0.02)
    for direction in Direction:
        grid = sweep_grid(base, [0.0, 0.1, 0.3, 2.0], [0.0, 0.2, 0.5], direction)
        points = [p for row in grid.results for p in row]
        assert sum(p.stable for p in points) >= 6
        assert all(p.physical == p.stable for p in points)
    assert run_point(make_net(r=0.1, j=0.5)).physical


def test_certificate_is_computed_once_per_sweep(monkeypatch):
    certificates = counting(monkeypatch, "certify_physicality")
    # a working set too small for two points: every slice holds one point
    monkeypatch.setattr("entflow.sweep._BATCH_BYTES", 1)
    grid = sweep_grid(DEFAULT_CONFIG, [0.0, 0.1, 0.3], [0.2, 0.5, 0.9, 1.2])
    assert len(grid.results) * len(grid.results[0]) == 12
    assert len(certificates) == 1
    run_point(make_net(r=0.1, j=0.5))
    assert len(certificates) == 2


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("direction", list(Direction), ids=lambda d: d.value)
def test_j_zero_points_do_not_depend_on_their_slice(monkeypatch, direction, warm):
    # j = 0 removes the source coupling from the drift, but every point takes
    # the network's one block plan, so a j = 0 point comes out bitwise the
    # same alone, among j = 0 points only and among j != 0 points
    plans = []

    def recording(a, noise, plan, **kwargs):
        plans.append(plan)
        return solve_steady_states(a, noise, plan, **kwargs)

    monkeypatch.setattr("entflow.sweep.solve_steady_states", recording)
    base = replace(oracle_base(10, warm), direction=direction)
    r_values = [0.0, 0.3]
    alone = [
        run_point(validate_config(replace(base, r=r, j=0.0, direction=direction)))
        for r in r_values
    ]
    only = sweep_grid(base, r_values, [0.0])
    mixed = sweep_grid(base, r_values, [0.0, 0.2, 0.5])
    for i, point in enumerate(alone):
        assert point.stable and point.solver_error is None
        assert repr(only.results[i][0]) == repr(point)
        assert repr(mixed.results[i][0]) == repr(point)
    assert len(plans) == 4
    for plan in plans[1:]:
        assert np.array_equal(plan.order, plans[0].order)
        assert plan.blocks == plans[0].blocks


def test_block_plan_is_built_once_per_sweep(monkeypatch):
    plans = counting(monkeypatch, "block_plan")
    # a working set too small for two points: every slice holds one point
    monkeypatch.setattr("entflow.sweep._BATCH_BYTES", 1)
    slices = list(sweep_columns(DEFAULT_CONFIG, [0.0, 0.1, 0.3], [0.0, 0.5, 0.9, 1.2]))
    assert len(slices) == 12
    assert len(plans) == 1
    run_point(make_net(r=0.1, j=0.0))
    assert len(plans) == 2


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("j", [0.0, 0.5])
@pytest.mark.parametrize("gamma", [0.0, 0.8])
@pytest.mark.parametrize("direction", list(Direction), ids=lambda d: d.value)
@pytest.mark.parametrize("m", [1, 2, 3, 10, 39])
def test_the_j_one_drift_plans_and_certifies_as_drift_plus_coupling(m, direction, gamma, j, warm):
    # a sweep takes its plan and its certificate from the drift at j = 1;
    # the reference adds i sigma_y between the source and the node it
    # couples to, in both blocks, to the drift at the network's own j
    base = replace(oracle_base(m, warm), r=0.3, j=j, gamma=gamma, direction=direction)
    net = validate_config(base)
    end = 2 if direction is Direction.FORWARD else 2 * m
    coupling = np.zeros((net.dim, net.dim))
    coupling[0:2, end : end + 2] = coupling[end : end + 2, 0:2] = [[0.0, 1.0], [-1.0, 0.0]]
    reference = build_dynamical_matrix(net) + coupling
    drift = build_drift_stack(net, [net.r], [1.0])[0]
    plan, expected = block_plan(drift), block_plan(reference)
    assert np.array_equal(plan.order, expected.order)
    assert (plan.blocks, plan.start) == (expected.blocks, expected.start)
    noise = build_noise_matrix(net)
    for diffusion in (noise, noise / 2.0):
        assert certify_physicality(drift, diffusion) == certify_physicality(reference, diffusion)


@pytest.mark.parametrize("m,points", [(10, 180), (30, 22)])
def test_a_full_slice_stays_within_its_working_set(m, points):
    # the budget the slices are cut by: one full slice of a warm chain, every
    # field asked for, holds at most _STACKS_PER_POINT (2M+2)x(2M+2) float64
    # matrices per point at its peak, which needs the slice's drift stack
    # freed before the measures run
    matrix = 8 * (2 * m + 2) ** 2
    budget = entflow.sweep._STACKS_PER_POINT * matrix
    assert entflow.sweep._BATCH_BYTES // budget == points
    base = oracle_base(m, warm=True)
    r_values = np.linspace(0.0, 0.3, points)
    next(iter(sweep_columns(base, r_values, [0.5])))  # first-call allocations
    tracemalloc.start()
    try:
        columns = next(iter(sweep_columns(base, r_values, [0.5])))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert columns.r.size == points and columns.solved.all()
    assert peak <= budget * points, peak / (matrix * points)


def test_sub_vacuum_diffusion_marks_no_point_physical(monkeypatch):
    # half the diffusion puts every bath below the vacuum: the certificate
    # fails, and no steady state is physical
    net = make_net()
    a, noise = build_dynamical_matrix(net), build_noise_matrix(net)
    assert certify_physicality(a, noise)
    assert not certify_physicality(a, 0.5 * noise)

    monkeypatch.setattr(
        "entflow.sweep.build_noise_matrix", lambda net: 0.5 * build_noise_matrix(net)
    )
    grid = sweep_grid(DEFAULT_CONFIG, [0.0, 0.1, 0.3], [0.0, 0.2, 0.5])
    points = [p for row in grid.results for p in row]
    assert all(p.stable for p in points)
    assert all(p.solver_error is None and not p.physical for p in points)
    assert not run_point(make_net(r=0.1, j=0.5)).physical


@pytest.mark.parametrize("direction", list(Direction), ids=lambda d: d.value)
def test_network_without_dissipation_is_uncertified_and_never_stable(direction):
    # no bath at all: Q = 0 fails the certificate, and the drift is
    # Hamiltonian, so its spectrum is symmetric about the imaginary axis and
    # no point is stable, r = 0 and j = 0 included
    base = replace(DEFAULT_CONFIG, gamma=0.0, gamma_out=0.0, direction=direction)
    net = validate_config(base)
    assert not certify_physicality(build_dynamical_matrix(net), build_noise_matrix(net))
    grid = sweep_grid(base, [0.0, 0.1, 0.5], [0.0, 0.2, 0.7])
    for point in (p for row in grid.results for p in row):
        assert not point.stable and not point.physical
        assert point.solver_error is None and point.en_forward_pair is None
        assert point.spectral_abscissa >= -1e-9


def test_sweep_grid_shape_and_axes():
    grid = sweep_grid(DEFAULT_CONFIG, [0.0, 0.1, 0.2], [0.3, 0.6], Direction.FORWARD)
    assert len(grid.results) == 3
    assert all(len(row) == 2 for row in grid.results)
    pt = grid.results[2][1]
    assert pt.r_over_omega == pytest.approx(0.2)
    assert pt.j_over_omega == pytest.approx(0.6)
    assert pt.direction is Direction.FORWARD


def test_sweep_grid_validation():
    with pytest.raises(ConfigError, match="sweep grids must be nonempty"):
        sweep_grid(DEFAULT_CONFIG, [], [0.1])
    with pytest.raises(ConfigError, match="sweep grid values must be >= 0"):
        sweep_grid(DEFAULT_CONFIG, [0.1], [-0.2, 0.1])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_sweep_grid_rejects_non_finite_values(bad):
    with pytest.raises(ConfigError, match="finite"):
        sweep_grid(DEFAULT_CONFIG, [0.1, bad], [0.1])
    with pytest.raises(ConfigError, match="finite"):
        sweep_grid(DEFAULT_CONFIG, [0.1], [bad])


# ---------------------------------------------------------------------------
# the solved block: only the trailing block of the plan that a sweep reads

# r up to 1.2 crosses the instability boundary; j holds 0 and gamma/4
SUB_R = np.linspace(0.0, 1.2, 7)
SUB_J = np.array([0.0, 0.1, DEFAULT_CONFIG.gamma / 4.0, 0.5, 0.9])


def sub_chain_base(m, chain):
    """The default chain of m nodes: cold, warm (uniform occupations), or
    mixed (heterogeneous frequencies and occupations)."""
    if chain == "warm":
        return replace(DEFAULT_CONFIG, M=m, nbar_local=0.01, nbar_common=0.02)
    return oracle_base(m, chain == "mixed")


def joined(slices, field):
    """The column ``field`` over every slice, floats as their bits."""
    column = [x for columns in slices for x in columns.column(field)]
    return [x.hex() if isinstance(x, float) else x for x in column]


@pytest.mark.parametrize("chain", ["cold", "warm", "mixed"])
@pytest.mark.parametrize("m", [2, 3, 10, 30])
def test_forward_pair_sweep_solves_its_upstream_block_bitwise(m, chain):
    base = sub_chain_base(m, chain)
    pair = list(sweep_columns(base, SUB_R, SUB_J, Direction.FORWARD, ("en_forward_pair",)))
    full = list(sweep_columns(base, SUB_R, SUB_J, Direction.FORWARD))
    assert {columns.nodes for columns in pair} == {(0, 1, 2)}
    assert {columns.nodes for columns in full} == {tuple(range(m + 1))}
    for field in ("stable", "physical", "spectral_abscissa", "solver_error", "en_forward_pair"):
        assert joined(pair, field) == joined(full, field), field
    stable = joined(full, "stable")
    assert 0 < sum(stable) < len(stable)


def test_run_point_and_sweep_grid_solve_every_node(monkeypatch):
    calls = counting(monkeypatch, "solve_steady_states")
    for m in (10, 30):
        for direction in Direction:
            run_point(make_net(M=m, r=0.1, j=0.5, direction=direction))
            sweep_grid(replace(DEFAULT_CONFIG, M=m), [0.1, 0.3], [0.2, 0.6], direction)
        assert len(calls) == 4 and all(plan.solved.size == 2 * m + 2 for _, _, plan in calls)
        calls.clear()


# r = 0 row, the exceptional point (0, gamma/4) and an unstable r; j = 0
# splits the source from the chain, which changes the drift's block order
ORACLE_R = [0.0, 0.15, 0.45, 2.0]
ORACLE_J = [0.0, 0.1, DEFAULT_CONFIG.gamma / 4.0, 0.5, 0.9]


def oracle_base(m, warm):
    if not warm:
        return replace(DEFAULT_CONFIG, M=m)
    return replace(
        DEFAULT_CONFIG,
        M=m,
        omega=tuple(1.0 + 0.04 * k for k in range(m + 1)),
        nbar_local=tuple(0.01 * (k + 1) for k in range(m + 1)),
        nbar_common=tuple(0.02 + 0.01 * k for k in range(m - 1)),
    )


def close(value, reference):
    return abs(value - reference) <= 1e-10 + 1e-9 * abs(reference)


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("direction", list(Direction), ids=lambda d: d.value)
@pytest.mark.parametrize("m", [1, 2, 3, 10])
def test_sweep_matches_independent_oracles(m, direction, warm):
    base = oracle_base(m, warm)
    grid = sweep_grid(base, ORACLE_R, ORACLE_J, direction)
    probes = (2, m - 1) if m >= 2 else None
    noise = None
    n_stable = 0
    for row in grid.results:
        for p in row:
            net = validate_config(
                replace(base, r=p.r_over_omega, j=p.j_over_omega, direction=direction)
            )
            a = oracles.drift_oracle(net)
            abscissa = oracles.abscissa_from_blocks(a, net)
            assert p.stable == (abscissa < -1e-9)
            assert abs(p.spectral_abscissa - abscissa) <= 1e-7
            if not p.stable:
                assert p.en_forward_pair is None and not p.physical
                continue
            n_stable += 1
            if noise is None:
                noise = oracles.noise_element_formula(
                    oracles.input_matrix(net), oracles.bath_occupations(net)
                )
            assert certify_physicality(a, noise)
            v = oracles.lyapunov_bartels_stewart(a, noise)
            assert p.solver_error is None
            assert p.physical == oracles.physical_by_eigenvalues(v)
            if probes is None:
                assert p.en_forward_pair is None and p.en_backward_pair is None
            else:
                for value, node in zip((p.en_forward_pair, p.en_backward_pair), probes):
                    assert close(value, oracles.log_negativity_by_eigenvalues(v, 0, node))
            if direction is Direction.FORWARD:
                en = [oracles.log_negativity_by_eigenvalues(v, 0, k) for k in range(1, m + 1)]
                deepest = max(
                    (k for k, e in enumerate(en, 1) if e > ENTANGLEMENT_THRESHOLD), default=0
                )
                if all(abs(e - ENTANGLEMENT_THRESHOLD) > 1e-11 for e in en):
                    assert p.m_max == deepest
                if p.m_max:
                    k = 2 * p.m_max
                    assert close(p.nbar_at_mmax, (v[k, k] + v[k + 1, k + 1] - 2.0) / 4.0)
            else:
                assert p.m_max is None and p.nbar_at_mmax is None
    assert n_stable >= 10


def test_results_do_not_depend_on_batch_size_or_position(tmp_path, monkeypatch):
    base = replace(DEFAULT_CONFIG, nbar_local=0.01, nbar_common=0.02)
    r_values = [0.0, 0.1, 0.3, 0.45, 1.5]
    j_values = [0.0, 0.2, 0.35, 0.7]

    def by_rows(direction):
        rows = [sweep_grid(base, [r], j_values, direction) for r in r_values]
        return SweepGrid(
            r_values=np.asarray(r_values),
            j_values=np.asarray(j_values),
            base=base,
            direction=direction,
            results=tuple(grid.results[0] for grid in rows),
        )

    def tables(grids):
        return {name: oracles.figure_csv_of_grids(name, grids) for name in FIGURE_NAMES}

    whole = [sweep_grid(base, r_values, j_values, d) for d in Direction]
    reference = tables(whole)
    assert tables([by_rows(d) for d in Direction]) == reference
    # a working set too small for two points: every slice holds one point
    monkeypatch.setattr("entflow.sweep._BATCH_BYTES", 1)
    single = [sweep_grid(base, r_values, j_values, d) for d in Direction]
    assert tables(single) == reference
    # and the streamed figures, one point per slice, write the same bytes
    for name in FIGURE_NAMES:
        path = tmp_path / f"{name}.csv"
        export_csv(name, base, r_values, j_values, path)
        assert path.read_bytes() == reference[name], name
    for grid in single:
        for p in (p for row in grid.results for p in row):
            net = validate_config(
                replace(base, r=p.r_over_omega, j=p.j_over_omega, direction=grid.direction)
            )
            assert run_point(net) == p


def test_single_cell_grid_reduces_to_run_point():
    grid = sweep_grid(DEFAULT_CONFIG, [0.1], [0.5])
    assert grid.results[0][0] == run_point(make_net(r=0.1, j=0.5))


def test_nonreciprocity_on_small_grid():
    r_values = np.linspace(0.05, 0.5, 4)
    j_values = np.linspace(0.05, 0.5, 4)
    forward = sweep_grid(DEFAULT_CONFIG, r_values, j_values, Direction.FORWARD)
    backward = sweep_grid(DEFAULT_CONFIG, r_values, j_values, Direction.BACKWARD)
    for row_f, row_b in zip(forward.results, backward.results):
        for pf, pb in zip(row_f, row_b):
            if pf.stable:
                assert pf.en_forward_pair > ENTANGLEMENT_THRESHOLD
            if pb.stable:
                assert pb.en_backward_pair <= ENTANGLEMENT_THRESHOLD


# ---------------------------------------------------------------------------
# figure tables


R_SMALL = [0.0, 0.1]
J_SMALL = [0.2, 0.5, 0.9]


def table_lines(name, tmp_path, direction=None, base=DEFAULT_CONFIG, r=R_SMALL, j=J_SMALL):
    """export_csv of figure ``name`` as (CSV lines, the rest of what it returns)."""
    path = tmp_path / f"{name}.csv"
    digest, rows, sweeps, _ = export_csv(name, base, r, j, path, direction)
    return path.read_text(encoding="utf-8").splitlines(), (digest, rows, sweeps)


def test_nonreciprocity_table(tmp_path):
    lines, (_, rows, sweeps) = table_lines("nonreciprocity", tmp_path)
    assert lines[0] == "r_over_omega,j_over_omega,direction,log_negativity"
    assert rows == len(lines) - 1 == 2 * 6
    # forward rows first, then backward, each over the whole grid
    assert [line.split(",")[2] for line in lines[1:]] == ["forward"] * 6 + ["backward"] * 6
    assert list(sweeps) == ["forward", "backward"]
    slices = figure_dataset("nonreciprocity", DEFAULT_CONFIG, R_SMALL, J_SMALL)
    assert [columns.direction for columns in slices] == [Direction.FORWARD, Direction.BACKWARD]


def test_nonreciprocity_requires_both_directions(tmp_path):
    # it always sweeps both, so it takes no direction of its own
    for direction in Direction:
        with pytest.raises(ConfigError, match="both directions"):
            figure_dataset("nonreciprocity", DEFAULT_CONFIG, R_SMALL, J_SMALL, direction)
    # whatever the direction of the base configuration
    backward = replace(DEFAULT_CONFIG, direction=Direction.BACKWARD)
    _, (_, _, sweeps) = table_lines("nonreciprocity", tmp_path, base=backward)
    assert list(sweeps) == ["forward", "backward"]


def test_depth_and_occupation_tables(tmp_path):
    depth, _ = table_lines("depth", tmp_path)
    assert depth[0] == "r_over_omega,j_over_omega,m_max"
    for line in depth[1:]:
        m_max = line.split(",")[2]
        assert m_max == "" or 0 <= int(m_max) <= 10
    occupation, (_, _, sweeps) = table_lines("occupation", tmp_path)
    assert occupation[0] == "r_over_omega,j_over_omega,nbar"
    assert list(sweeps) == ["forward"]
    # depth figures are forward-transport quantities
    for name in ("depth", "occupation"):
        assert table_lines(name, tmp_path, Direction.FORWARD)[0] == table_lines(name, tmp_path)[0]
        with pytest.raises(ConfigError, match="forward direction"):
            figure_dataset(name, DEFAULT_CONFIG, R_SMALL, J_SMALL, Direction.BACKWARD)


def test_stability_table(tmp_path):
    lines, (_, _, sweeps) = table_lines("stability", tmp_path)
    assert lines[0] == "r_over_omega,j_over_omega,stable,physical,spectral_abscissa"
    assert list(sweeps) == ["forward"]
    for line in lines[1:]:
        _, _, stable, physical, abscissa = line.split(",")
        assert stable in ("true", "false") and physical in ("true", "false")
        float(abscissa)
    # either direction on request; forward by default, whatever the base says
    backward = replace(DEFAULT_CONFIG, direction=Direction.BACKWARD)
    assert table_lines("stability", tmp_path, base=backward)[0] == lines
    _, (_, _, sweeps) = table_lines("stability", tmp_path, Direction.BACKWARD)
    assert list(sweeps) == ["backward"]


def test_unknown_figure_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown figure"):
        figure_dataset("surface", DEFAULT_CONFIG, R_SMALL, J_SMALL)
    path = tmp_path / "surface.csv"
    with pytest.raises(ConfigError):
        export_csv("surface", DEFAULT_CONFIG, R_SMALL, J_SMALL, path)
    assert not path.exists()


# ---------------------------------------------------------------------------
# CSV export


def test_export_csv_format(tmp_path):
    path = tmp_path / "pairs.csv"
    _, rows, _, _ = export_csv("nonreciprocity", DEFAULT_CONFIG, R_SMALL, J_SMALL, path)
    raw = path.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode("utf-8").splitlines()
    assert lines[0] == "r_over_omega,j_over_omega,direction,log_negativity"
    assert len(lines) == 1 + rows
    # values round-trip bit-exactly through the 17-digit format
    points = [
        p
        for d in Direction
        for row in sweep_grid(DEFAULT_CONFIG, R_SMALL, J_SMALL, d).results
        for p in row
    ]
    for line, p in zip(lines[1:], points):
        cells = line.split(",")
        assert float(cells[0]) == p.r_over_omega and float(cells[1]) == p.j_over_omega
        pair = p.en_forward_pair if p.direction is Direction.FORWARD else p.en_backward_pair
        if pair is not None:
            assert float(cells[3]) == pair
        else:
            assert cells[3] == ""


def test_export_csv_booleans_and_empty_cells(tmp_path):
    lines, (_, _, sweeps) = table_lines("stability", tmp_path, r=[0.1, 2.0], j=[0.1])
    assert lines[1].split(",")[2:4] == ["true", "true"]
    assert lines[2].split(",")[2:4] == ["false", "false"]
    assert sweeps == {"forward": {"passes": 1, "stable": 1, "unstable": 1, "failed": 0}}

    depth_lines, _ = table_lines("depth", tmp_path, r=[0.1, 2.0], j=[0.1])
    # the unstable point exports as an empty cell, not a zero
    assert depth_lines[2].endswith(",")


def test_export_csv_is_deterministic(tmp_path):
    path_a = tmp_path / "a.csv"
    path_b = tmp_path / "b.csv"
    first = export_csv("depth", DEFAULT_CONFIG, R_SMALL, J_SMALL, path_a)
    second = export_csv("depth", DEFAULT_CONFIG, R_SMALL, J_SMALL, path_b)
    assert path_a.read_bytes() == path_b.read_bytes()
    assert first == second
    assert first[0] == hashlib.sha256(path_a.read_bytes()).hexdigest()


@pytest.mark.parametrize(
    "name, direction",
    [("depth", Direction.BACKWARD), ("occupation", Direction.BACKWARD),
     ("nonreciprocity", Direction.FORWARD)],
)
def test_export_csv_rejects_a_direction_before_writing(tmp_path, name, direction):
    path = tmp_path / f"{name}.csv"
    with pytest.raises(ConfigError):
        export_csv(name, DEFAULT_CONFIG, R_SMALL, J_SMALL, path, direction)
    assert not path.exists()


@pytest.mark.parametrize("name", FIGURE_NAMES)
@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_a_direction_that_is_no_member_is_rejected_as_in_a_config(tmp_path, name, direction):
    # the rule of config_violations, before the figure's own directions
    message = f"direction must be a Direction member, got '{direction}'"
    (problem,) = config_violations(replace(DEFAULT_CONFIG, direction=direction))
    assert str(problem) == message
    with pytest.raises(ConfigError) as raised:
        figure_dataset(name, DEFAULT_CONFIG, R_SMALL, J_SMALL, direction)
    assert str(raised.value) == message
    path = tmp_path / f"{name}.csv"
    with pytest.raises(ConfigError) as raised:
        export_csv(name, DEFAULT_CONFIG, R_SMALL, J_SMALL, path, direction)
    assert str(raised.value) == message
    assert not path.exists()


def test_export_csv_removes_a_partial_file(tmp_path, monkeypatch):
    def failing(*args, **kwargs):
        raise RuntimeError("solver broke")

    monkeypatch.setattr("entflow.sweep.solve_steady_states", failing)
    path = tmp_path / "depth.csv"
    with pytest.raises(RuntimeError, match="solver broke"):
        export_csv("depth", DEFAULT_CONFIG, R_SMALL, J_SMALL, path)
    assert not path.exists()
