"""Stability analysis, the two steady-state solvers, and time evolution."""

import sys
import threading

import numpy as np
import pytest
from dataclasses import replace
from numpy.testing import assert_allclose

import oracles
from entflow import (
    DEFAULT_CONFIG,
    Direction,
    SingularSystemError,
    UnstableError,
    build_dynamical_matrix,
    build_noise_matrix,
    evolve_covariance,
    run_point,
    solve_steady_state_spectral,
    solve_steady_state_vectorized,
    spectral_abscissa,
    spectral_decomposition,
    stability_report,
    validate_config,
)
from entflow import lyapunov
from entflow.lyapunov import _block_order
from entflow.network import source_coupling

ROTATION = np.array([[0.0, 1.0], [-1.0, 0.0]])


def make_net(**overrides):
    return validate_config(replace(DEFAULT_CONFIG, **overrides))


def chain_matrices(**overrides):
    net = make_net(**overrides)
    return build_dynamical_matrix(net), build_noise_matrix(net)


# ---------------------------------------------------------------------------
# stability classification


def test_spectral_abscissa_simple_cases():
    assert spectral_abscissa(-np.eye(3)) == pytest.approx(-1.0)
    assert spectral_abscissa(ROTATION) == pytest.approx(0.0, abs=1e-12)
    assert spectral_abscissa(np.diag([-2.0, 0.5])) == pytest.approx(0.5)


def test_stability_report_classification():
    stable = stability_report(-np.eye(2))
    assert stable.stable and not stable.marginal
    assert stable.spectral_abscissa == pytest.approx(-1.0)

    unstable = stability_report(np.diag([0.3, -1.0]))
    assert not unstable.stable and not unstable.marginal

    marginal = stability_report(ROTATION)
    assert marginal.marginal and not marginal.stable


def test_long_chain_abscissa_is_exact():
    # the interior nodes form one defective cluster at -0.81 that an
    # eigensolver on the whole drift scatters up to -0.17 at this length;
    # the exact abscissa -0.21 belongs to the 4x4 source block
    a, _ = chain_matrices(M=150, gamma_out=0.02, j=0.3, r=0.0)
    assert abs(spectral_abscissa(a) + 0.21) <= 1e-12


@pytest.mark.parametrize("m", [10, 20, 30, 40])
def test_exceptional_point_abscissa(m):
    # at r = 0, j = gamma/4 the source block is defective with the double
    # eigenvalue real part -(2 gamma_out + gamma)/4; a 4x4 Schur form finds
    # it to sqrt(eps) whatever the chain length
    gamma, gamma_out = DEFAULT_CONFIG.gamma, DEFAULT_CONFIG.gamma_out
    a, _ = chain_matrices(
        M=m, r=0.0, j=gamma / 4.0, direction=Direction.BACKWARD
    )
    assert abs(spectral_abscissa(a) + (2.0 * gamma_out + gamma) / 4.0) <= 1e-8


def permuted_block_triangular(rng, sizes):
    """A random stable block lower-triangular matrix with sparse coupling,
    its rows and columns shuffled, and the eigenvalues of its diagonal
    blocks."""
    dim = sum(sizes)
    a = np.zeros((dim, dim))
    eigs = []
    lo = 0
    for size in sizes:
        block = rng.normal(size=(size, size))
        shift = np.linalg.eigvals(block).real.max() + rng.uniform(0.2, 1.0)
        block -= shift * np.eye(size)
        a[lo : lo + size, lo : lo + size] = block
        a[lo : lo + size, :lo] = rng.normal(size=(size, lo)) * (
            rng.random((size, lo)) < 0.3
        )
        eigs.extend(np.linalg.eigvals(block))
        lo += size
    perm = rng.permutation(dim)
    return a[np.ix_(perm, perm)], np.array(eigs)


def test_abscissa_and_solve_on_permuted_block_triangular_systems():
    rng = np.random.default_rng(404)
    for sizes in ([1, 2, 3], [4, 1, 1, 2, 2], [2, 2, 2, 4, 3], [6]):
        a, eigs = permuted_block_triangular(rng, sizes)
        assert spectral_abscissa(a) == pytest.approx(eigs.real.max(), abs=1e-12)
        w = rng.normal(size=a.shape)
        n = w @ w.T + 0.1 * np.eye(a.shape[0])
        reference = oracles.lyapunov_bartels_stewart(a, n)
        v = solve_steady_state_spectral(a, n)
        assert np.linalg.norm(v - reference) <= 1e-12 * np.linalg.norm(reference)


@pytest.mark.parametrize("j", [0.0, 0.5])
@pytest.mark.parametrize("gamma", [0.0, 0.8])
@pytest.mark.parametrize("direction", list(Direction), ids=lambda d: d.value)
@pytest.mark.parametrize("m", [1, 2, 3, 10, 39, 100, 200])
def test_block_order_of_chains_matches_the_closure(m, direction, gamma, j):
    # without the cascade (gamma = 0) every chain node is its own block in
    # any order; j = 0 splits the source from the chain
    net = make_net(M=m, r=0.3, j=j, gamma=gamma, direction=direction)
    a = build_dynamical_matrix(net)
    for pattern in (a, a + source_coupling(net)):
        order, starts, stops = _block_order(pattern)
        reference = oracles.block_order_by_closure(pattern)
        assert np.array_equal(order, reference[0])
        assert np.array_equal(starts, reference[1])
        assert np.array_equal(stops, reference[2])


def test_chain_unstable_at_large_squeezing():
    a, _ = chain_matrices(r=2.0, j=0.1)
    report = stability_report(a)
    assert not report.stable
    assert report.spectral_abscissa > 0.0


def test_spectral_decomposition_diagnoses_quality():
    rng = np.random.default_rng(11)
    a, _ = oracles.random_stable_system(rng, 6)
    d = spectral_decomposition(a)
    assert d.accepted()
    assert_allclose((d.p * d.eigenvalues) @ d.p_inv, a, atol=1e-12)

    # a Jordan block has no trustworthy eigenbasis, but diagnosing it must
    # not raise
    dj = spectral_decomposition(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert not dj.accepted()


def test_long_equal_frequency_chain_rejects_eigenbasis():
    # identical interior nodes chained by the one-way coupling make the
    # drift matrix effectively non-diagonalizable from four nodes on; the
    # three-node chain is still fine
    a3, _ = chain_matrices(M=3, r=0.1, j=0.5)
    assert spectral_decomposition(a3).accepted()
    for m in (4, 6, 10):
        a, _ = chain_matrices(M=m, r=0.1, j=0.5)
        assert not spectral_decomposition(a).accepted()


# ---------------------------------------------------------------------------
# steady-state solvers


def test_vacuum_steady_state_is_exact_identity():
    # the deviation-variable solver sees a bitwise-zero right-hand side at
    # vacuum, so the identity comes back without any roundoff at all
    for direction in Direction:
        for m in (1, 4, 10):
            net = make_net(M=m, r=0.0, j=0.6, direction=direction)
            a = build_dynamical_matrix(net)
            n = build_noise_matrix(net)
            assert np.array_equal(
                solve_steady_state_vectorized(a, n), np.eye(net.dim)
            )
            # the structured solver works in the same shifted variable, so
            # its triangular solve sees the same zero right-hand side
            assert np.array_equal(
                solve_steady_state_spectral(a, n), np.eye(net.dim)
            )


def test_thermal_single_mode_closed_form():
    gamma, nbar = 0.3, 0.7
    a = np.array([[-gamma / 2.0, 1.0], [-1.0, -gamma / 2.0]])
    n = gamma * (2.0 * nbar + 1.0) * np.eye(2)
    for solver in (solve_steady_state_spectral, solve_steady_state_vectorized):
        v = solver(a, n)
        assert_allclose(v, 2.4 * np.eye(2), atol=1e-12)


def test_vectorized_residuals_on_random_systems():
    rng = np.random.default_rng(2101)
    for _ in range(20):
        dim = int(rng.integers(1, 8)) * 2
        a, n = oracles.random_stable_system(rng, dim, margin=1.0)
        v = solve_steady_state_vectorized(a, n)
        residual = np.abs(a @ v + v @ a.T + n).max()
        assert residual <= 1e-9 * np.abs(n).max()
        assert_allclose(v, v.T)


def test_solvers_match_schur_oracle():
    rng = np.random.default_rng(33)
    for _ in range(10):
        a, n = oracles.random_stable_system(rng, 10)
        reference = oracles.lyapunov_bartels_stewart(a, n)
        for solver in (solve_steady_state_spectral, solve_steady_state_vectorized):
            v = solver(a, n)
            assert np.linalg.norm(v - reference) <= 1e-10 * np.linalg.norm(reference)


def test_spectral_falls_back_on_defective_chain():
    # from four nodes on the chain has no usable eigenbasis; the structured
    # solver never needs one and must agree with the Kronecker oracle
    a, n = chain_matrices(M=5, r=0.15, j=0.4)
    assert_allclose(
        solve_steady_state_spectral(a, n),
        solve_steady_state_vectorized(a, n),
        atol=1e-13,
    )


def test_unstable_dynamics_raises():
    with pytest.raises(UnstableError):
        solve_steady_state_spectral(np.diag([0.1, -1.0]), np.eye(2))
    a, n = chain_matrices(r=2.0, j=0.1)
    with pytest.raises(UnstableError):
        solve_steady_state_spectral(a, n)


def test_marginal_rotation_has_no_steady_state():
    # a lossless rotation never relaxes: the spectral route reports the
    # non-decaying spectrum, the vectorized route hits a singular system
    with pytest.raises(UnstableError):
        solve_steady_state_spectral(ROTATION, np.eye(2))
    with pytest.raises(SingularSystemError):
        solve_steady_state_vectorized(ROTATION, np.eye(2))


def test_marginal_chain_is_unstable_everywhere():
    # a decay rate of 1e-10 out of the source at r = j = 0 puts the
    # abscissa at -5e-11, inside the stability margin: the solver, the
    # report and the point summary give one verdict
    net = make_net(gamma_out=1e-10, r=0.0, j=0.0)
    a, n = build_dynamical_matrix(net), build_noise_matrix(net)
    report = stability_report(a)
    assert report.marginal and not report.stable
    assert -1e-9 < report.spectral_abscissa < 0.0
    with pytest.raises(UnstableError, match=r">= -1e-09\)$"):
        solve_steady_state_spectral(a, n)
    point = run_point(net)
    assert not point.stable and point.solver_error is None
    assert point.spectral_abscissa == report.spectral_abscissa


@pytest.mark.parametrize("direction", list(Direction), ids=lambda d: d.value)
def test_only_the_source_block_enters_dgees(monkeypatch, direction):
    # every chain node is a damped rotation, already in Schur form; the
    # 4x4 source block is the one block a Schur decomposition is run on
    calls = []
    schur = lyapunov._schur

    def counted(block):
        calls.append(block.shape)
        return schur(block)

    monkeypatch.setattr(lyapunov, "_schur", counted)
    point = run_point(make_net(M=30, r=0.1, j=0.5, direction=direction))
    assert point.stable and point.solver_error is None
    assert calls == [(4, 4)]


def test_source_mode_principal_variances_straddle_vacuum():
    # squeezing pushes one principal variance of the source block below the
    # vacuum level and the conjugate one above; the detuning rotation mixes
    # the bare quadratures, so the split shows up in the eigenvalues rather
    # than in the diagonal entries
    a, n = chain_matrices(r=0.2, j=0.5)
    v = solve_steady_state_spectral(a, n)
    lo, hi = np.linalg.eigvalsh(v[0:2, 0:2])
    assert lo < 0.9
    assert hi > 1.1


# ---------------------------------------------------------------------------
# time evolution


def test_evolve_rejects_negative_time():
    for t in (-0.5, np.inf, np.nan):
        with pytest.raises(ValueError):
            evolve_covariance(-np.eye(2), np.eye(2), np.eye(2), t)


def test_evolve_rejects_overflowing_time_times_norm():
    lyapunov._LADDERS.clear()
    with pytest.raises(ValueError):
        evolve_covariance(-10.0 * np.eye(2), np.eye(2), np.eye(2), 1e308)
    assert not lyapunov._LADDERS


@pytest.mark.parametrize(
    "a, noise, v0",
    [
        (np.array([[-1.0, np.inf], [0.0, -1.0]]), np.eye(2), np.eye(2)),
        (np.array([[-1.0, np.nan], [0.0, -1.0]]), np.eye(2), np.eye(2)),
        (-np.eye(2), np.array([[1.0, 0.0], [0.0, np.nan]]), np.eye(2)),
        (-np.eye(2), np.array([[1.0, 0.0], [0.0, -np.inf]]), np.eye(2)),
        (-np.eye(2), np.eye(2), np.array([[np.inf, 0.0], [0.0, 1.0]])),
        (-np.eye(2), np.eye(2), np.array([[1.0, np.nan], [np.nan, 1.0]])),
        (-np.eye(3), np.eye(2), np.eye(3)),
        (-np.eye(2), np.eye(2), np.eye(3)),
        (-np.ones((2, 3)), np.ones((2, 3)), np.ones((2, 3))),
        (-np.ones(2), np.ones(2), np.ones(2)),
        (np.zeros((0, 0)), np.zeros((0, 0)), np.zeros((0, 0))),
    ],
)
@pytest.mark.parametrize("t", [0.0, 0.5])
def test_evolve_rejects_malformed_matrices(a, noise, v0, t):
    lyapunov._LADDERS.clear()
    with pytest.raises(ValueError):
        evolve_covariance(a, noise, v0, t)
    assert not lyapunov._LADDERS


LADDER_TIMES = (0.05, 0.3, 0.5, 2.0, 8.0, 32.0, 128.0, 1024.0, 4096.0)


def ladder_networks():
    rng = np.random.default_rng(23)
    a, n = chain_matrices(M=10, r=0.1, j=0.5)
    b, m = chain_matrices(M=10, r=0.1, j=0.5, direction=Direction.BACKWARD)
    v0 = np.eye(a.shape[0]) + 0.05 * rng.normal(size=a.shape)
    return (a, n), (b, m), v0 @ v0.T


@pytest.mark.parametrize(
    "schedule",
    [
        [(0, t) for t in LADDER_TIMES],
        [(0, t) for t in reversed(LADDER_TIMES)],
        [(net, t) for t in LADDER_TIMES for net in (0, 1)],
        [(net, t) for t in reversed(LADDER_TIMES) for net in (1, 0)],
    ],
    ids=["forward", "reversed", "interleaved", "interleaved-reversed"],
)
def test_evolve_cached_ladder_is_bitwise_the_uncached_loop(schedule):
    *networks, v0 = ladder_networks()
    lyapunov._LADDERS.clear()
    for net, t in schedule:
        a, n = networks[net]
        got = evolve_covariance(a, n, v0, t)
        assert got.tobytes() == oracles.van_loan_evolve(a, n, v0, t).tobytes()


def test_evolve_follows_matrices_mutated_in_place():
    (a, n), _, v0 = ladder_networks()
    lyapunov._LADDERS.clear()
    seen = [evolve_covariance(a, n, v0, 8.0)]
    for matrix, index, change in ((a, (0, 0), -0.25), (n, (2, 2), 0.5)):
        matrix[index] += change
        got = evolve_covariance(a, n, v0, 8.0)
        assert got.tobytes() == oracles.van_loan_evolve(a, n, v0, 8.0).tobytes()
        assert not np.array_equal(got, seen[-1])
        seen.append(got)


def test_evolve_concurrent_threads_are_bitwise_single_threaded():
    *networks, v0 = ladder_networks()
    work = [(net, t) for net in (0, 1) for t in LADDER_TIMES]
    expected = [oracles.van_loan_evolve(*networks[net], v0, t) for net, t in work]
    results = {}

    def evolve(worker):
        # the threads walk the work from different starts and in both
        # directions, so ladders are created, extended and read at once
        order = work[3 * worker:] + work[:3 * worker]
        if worker % 2:
            order.reverse()
        results[worker] = {
            (net, t): evolve_covariance(*networks[net], v0, t) for net, t in order
        }

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            lyapunov._LADDERS.clear()
            results.clear()
            threads = [threading.Thread(target=evolve, args=(w,)) for w in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert sorted(results) == [0, 1, 2, 3]
            for got in results.values():
                for key, want in zip(work, expected):
                    assert got[key].tobytes() == want.tobytes()
    finally:
        sys.setswitchinterval(interval)


def cached_bytes():
    return sum(lyapunov._ladder_nbytes(*item) for item in lyapunov._LADDERS.items())


def test_evolve_cache_stays_within_its_byte_budget():
    # M = 100 chains: a t = 1e6 ladder holds 23 pairs, about 15 MB, so the
    # third network's evicts the least recently used one well before the
    # count bound; a t = 1e30 ladder (103 pairs, 67 MB) is never kept
    networks = [
        chain_matrices(M=100, r=r, j=0.5, direction=direction)
        for r, direction in ((0.1, Direction.FORWARD), (0.1, Direction.BACKWARD), (0.3, Direction.FORWARD))
    ]
    v0 = np.eye(networks[0][0].shape[0])
    lyapunov._LADDERS.clear()
    for net, t in ((0, 1e6), (1, 1e6), (0, 1e3), (2, 1e6), (0, 1e30)):
        a, n = networks[net]
        got = evolve_covariance(a, n, v0, t)
        assert got.tobytes() == oracles.van_loan_evolve(a, n, v0, t).tobytes()
        assert 0 < cached_bytes() <= lyapunov._LADDER_BYTES
    assert len(lyapunov._LADDERS) == 2
    assert max(map(len, lyapunov._LADDERS.values())) == 23


def test_evolve_keeps_at_most_eight_ladders():
    rng = np.random.default_rng(29)
    lyapunov._LADDERS.clear()
    for _ in range(12):
        a, n = oracles.random_stable_system(rng, 4)
        evolve_covariance(a, n, np.eye(4), 3.0)
        assert len(lyapunov._LADDERS) <= 8
    assert len(lyapunov._LADDERS) == 8


def test_evolve_at_zero_returns_initial_copy():
    v0 = 3.0 * np.eye(4)
    out = evolve_covariance(-np.eye(4), np.eye(4), v0, 0.0)
    assert np.array_equal(out, v0)
    out[0, 0] = 99.0
    assert v0[0, 0] == 3.0


def test_evolve_single_mode_closed_form():
    gamma = 0.25
    a = np.array([[-gamma / 2.0, 1.0], [-1.0, -gamma / 2.0]])
    n = gamma * np.eye(2)
    v0 = 5.0 * np.eye(2)
    previous = np.inf
    for t in (0.3, 1.0, 4.0, 20.0):
        vt = evolve_covariance(a, n, v0, t)
        exact = (1.0 + 4.0 * np.exp(-gamma * t)) * np.eye(2)
        assert_allclose(vt, exact, atol=1e-12)
        # relaxation toward the vacuum is monotone for this isotropic state
        distance = np.abs(vt - np.eye(2)).max()
        assert distance < previous
        previous = distance


def test_evolve_zero_drift_accumulates_noise():
    n = 0.3 * np.eye(2)
    v0 = 2.0 * np.eye(2)
    vt = evolve_covariance(np.zeros((2, 2)), n, v0, 1.7)
    assert_allclose(vt, v0 + 1.7 * n, atol=1e-14)


def test_evolve_nilpotent_drift_closed_form():
    # e^{As} = [[1, s], [0, 1]] has no eigenbasis; V(1) = e^A e^{A^T}
    # + int_0^1 e^{As} e^{A^T s} ds = [[2, 1], [1, 1]] + [[4/3, 1/2], [1/2, 1]]
    vt = evolve_covariance(
        np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2), np.eye(2), 1.0
    )
    assert_allclose(vt, [[10.0 / 3.0, 1.5], [1.5, 2.0]], atol=1e-14)


def test_evolve_fixed_point_stays_put():
    rng = np.random.default_rng(5)
    a, n = oracles.random_stable_system(rng, 8)
    v_inf = solve_steady_state_vectorized(a, n)
    for t in (0.1, 1.0, 10.0):
        assert np.abs(evolve_covariance(a, n, v_inf, t) - v_inf).max() <= 1e-9


def test_evolve_matches_rk4_generic():
    rng = np.random.default_rng(17)
    a, n = oracles.random_stable_system(rng, 6)
    v0 = np.eye(6) + 0.2 * np.ones((6, 6))
    vt = evolve_covariance(a, n, v0, 0.7)
    reference = oracles.rk4_evolve(a, n, v0, 0.7, steps=4000)
    assert np.abs(vt - reference).max() <= 1e-8
    assert_allclose(vt, vt.T, atol=1e-12)


def test_evolve_defective_chain_matches_rk4():
    # four equal nodes already have no usable eigenbasis, and the strongly
    # squeezed ten-node chain is unstable as well, so its covariance grows;
    # check both against direct integration
    for overrides, t in (
        (dict(M=4, r=0.1, j=0.5), 3.0),
        (dict(M=10, r=2.0, j=0.1), 0.5),
    ):
        a, n = chain_matrices(**overrides)
        v0 = 3.0 * np.eye(a.shape[0])
        vt = evolve_covariance(a, n, v0, t)
        reference = oracles.rk4_evolve(a, n, v0, t, steps=3000)
        assert np.abs(vt - reference).max() <= 1e-8


def test_evolve_converges_to_steady_state():
    a, n = chain_matrices(M=4, r=0.1, j=0.5)
    v_inf = solve_steady_state_spectral(a, n)
    v0 = 3.0 * np.eye(a.shape[0])
    gamma_out = 0.002
    vt = evolve_covariance(a, n, v0, 50.0 / gamma_out)
    assert np.abs(vt - v_inf).max() <= 1e-6


def test_long_chain_relaxes_to_structured_steady_state():
    # a Kronecker-vectorized solve of this chain would need 202^4 * 8 B,
    # about 13 GB; the evolution never forms a steady-state system
    a, n = chain_matrices(M=100, r=0.1, j=0.5)
    vt = evolve_covariance(a, n, 3.0 * np.eye(a.shape[0]), 1e6)
    assert np.abs(vt - solve_steady_state_spectral(a, n)).max() <= 1e-10
