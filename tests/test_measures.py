"""Reductions, entanglement measures, physicality, occupation, temperature."""

import math
import warnings

import numpy as np
import pytest
from dataclasses import replace
from numpy.testing import assert_allclose

import oracles
from entflow import (
    DEFAULT_CONFIG,
    ComplexEigenvalueError,
    Direction,
    NetworkConfig,
    NonpositiveOccupationError,
    build_dynamical_matrix,
    build_noise_matrix,
    certify_physicality,
    check_physical,
    effective_temperature,
    log_negativity,
    mean_occupation,
    ppt_symplectic_min,
    reduce_single_mode,
    reduce_two_mode,
    solve_steady_state_spectral,
    symplectic_eigenvalues,
    symplectic_form,
    thermal_covariance,
    two_mode_squeezed_covariance,
    vacuum_covariance,
    validate_config,
)

# exact SI definitions of the Planck and Boltzmann constants
HBAR = 6.62607015e-34 / (2.0 * math.pi)
KB = 1.380649e-23


def steady_state(**overrides):
    net = validate_config(replace(DEFAULT_CONFIG, **overrides))
    return solve_steady_state_spectral(
        build_dynamical_matrix(net), build_noise_matrix(net)
    )


# ---------------------------------------------------------------------------
# reductions


def test_symplectic_form_properties():
    omega = symplectic_form(3)
    assert_allclose(omega, -omega.T)
    assert_allclose(omega @ omega, -np.eye(6))
    assert_allclose(omega[0:2, 0:2], [[0.0, 1.0], [-1.0, 0.0]])


def test_reduce_single_mode_picks_block():
    v = np.arange(36.0).reshape(6, 6)
    assert_allclose(reduce_single_mode(v, 1), [[14.0, 15.0], [20.0, 21.0]])
    with pytest.raises(IndexError):
        reduce_single_mode(v, 3)
    with pytest.raises(IndexError):
        reduce_single_mode(v, -1)


def test_reduce_two_mode_blocks_and_swap():
    rng = np.random.default_rng(3)
    v = oracles.random_physical_two_mode(rng)
    big = np.eye(8)
    big[2:4, 2:4] = v[0:2, 0:2]
    big[6:8, 6:8] = v[2:4, 2:4]
    big[2:4, 6:8] = v[0:2, 2:4]
    big[6:8, 2:4] = v[0:2, 2:4].T

    tm = reduce_two_mode(big, 1, 3)
    assert tm.shape == (4, 4)
    assert_allclose(tm, v)
    swapped = reduce_two_mode(big, 3, 1)
    assert np.array_equal(swapped[0:2, 0:2], tm[2:4, 2:4])
    assert np.array_equal(swapped[0:2, 2:4], tm[2:4, 0:2])
    # entanglement does not care which mode is listed first
    assert ppt_symplectic_min(swapped) == pytest.approx(
        ppt_symplectic_min(tm), abs=1e-12
    )
    # a copy, not a view: changing it leaves the full state alone
    tm[0, 0] = -1.0
    assert big[2, 2] == v[0, 0]
    with pytest.raises(ValueError):
        reduce_two_mode(big, 2, 2)
    with pytest.raises(IndexError):
        reduce_two_mode(big, 0, 4)


def test_two_mode_matrix_is_symmetric():
    v = steady_state(r=0.1, j=0.5)
    tm = reduce_two_mode(v, 0, 2)
    assert tm.shape == (4, 4)
    assert np.array_equal(tm, tm.T)
    # the 4x4 matrix is what the measures take
    assert log_negativity(tm).log_negativity > 0.0


# ---------------------------------------------------------------------------
# entanglement


def test_state_factories():
    assert_allclose(vacuum_covariance(3), np.eye(6))
    assert_allclose(thermal_covariance(0.7), 2.4 * np.eye(2))
    v = two_mode_squeezed_covariance(0.5)
    assert_allclose(v[0:2, 0:2], math.cosh(1.0) * np.eye(2))
    assert_allclose(v[0:2, 2:4], math.sinh(1.0) * np.diag([1.0, -1.0]))


@pytest.mark.parametrize("s", [0.1, 0.5, 1.0])
def test_tmsv_closed_forms(s):
    v = two_mode_squeezed_covariance(s)
    record = log_negativity(v)
    assert record.nu_minus == pytest.approx(math.exp(-2.0 * s) / 2.0, abs=1e-12)
    assert record.log_negativity == pytest.approx(2.0 * s, abs=1e-12)
    assert not record.separable


def test_vacuum_and_product_states_are_separable():
    for v in (np.eye(4), np.block([
        [thermal_covariance(0.3), np.zeros((2, 2))],
        [np.zeros((2, 2)), thermal_covariance(1.1)],
    ])):
        record = log_negativity(v)
        assert record.separable
        assert record.log_negativity == 0.0
        assert record.nu_minus >= 0.5


def near_degenerate_pt(rng):
    """A positive definite two-mode covariance matrix whose partial
    transpose has two symplectic eigenvalues that differ by a relative 1e-12
    to 1e-6."""
    nu = rng.uniform(0.5, 3.0)
    split = nu * (1.0 + 10.0 ** rng.uniform(-12.0, -6.0))
    s = oracles.random_symplectic(rng, 2)
    flip = np.diag([1.0, 1.0, 1.0, -1.0])
    return 2.0 * flip @ s @ np.diag([nu, nu, split, split]) @ s.T @ flip


def test_ppt_matches_eigen_oracle_on_random_states():
    for draw in (oracles.random_physical_two_mode, near_degenerate_pt):
        rng = np.random.default_rng(20260816)
        for _ in range(1000):
            v = draw(rng)
            nu = ppt_symplectic_min(v)
            assert abs(nu - oracles.ppt_nu_min_eigen(v)) <= 1e-10


def test_log_negativity_invariant_under_local_rotations():
    rng = np.random.default_rng(99)
    base = two_mode_squeezed_covariance(0.4)
    reference = log_negativity(base).log_negativity
    for _ in range(50):
        ra = oracles.rotation_block(rng.uniform(0.0, 2.0 * np.pi))
        rb = oracles.rotation_block(rng.uniform(0.0, 2.0 * np.pi))
        local = np.block(
            [[ra, np.zeros((2, 2))], [np.zeros((2, 2)), rb]]
        )
        rotated = local @ base @ local.T
        assert abs(log_negativity(rotated).log_negativity - reference) <= 1e-10


def test_unphysical_inputs_raise_complex_eigenvalue_error():
    # overwhelming x-x / p-p correlations: every block is positive definite
    # but the whole matrix is indefinite (eigenvalues -1 and -2)
    v1 = np.block(
        [[np.eye(2), np.diag([2.0, 3.0])], [np.diag([2.0, 3.0]), np.eye(2)]]
    )
    with pytest.raises(ComplexEigenvalueError):
        ppt_symplectic_min(v1)
    # indefinite input with negative diagonal entries
    v2 = np.array(
        [
            [0.406, -0.041, -1.4, -1.652],
            [-0.041, 1.982, 0.024, 0.072],
            [-1.4, 0.024, -2.058, 2.022],
            [-1.652, 0.072, 2.022, -1.611],
        ]
    )
    with pytest.raises(ComplexEigenvalueError):
        ppt_symplectic_min(v2)


def test_subnormal_coupling_raises_no_warning():
    net = validate_config(
        NetworkConfig(M=1, r=0.5, j=5e-324, gamma=0.0, gamma_out=0.5, omega=(0.5, 1.0))
    )
    v = solve_steady_state_spectral(build_dynamical_matrix(net), build_noise_matrix(net))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert log_negativity(reduce_two_mode(v, 0, 1)).log_negativity == 0.0


def test_chain_pair_entanglement_from_steady_state():
    v = steady_state(r=0.1, j=0.5)
    near = log_negativity(reduce_two_mode(v, 0, 2))
    far = log_negativity(reduce_two_mode(v, 0, 9))
    assert near.log_negativity > 1e-3
    assert not near.separable
    assert far.log_negativity <= 1e-10


# ---------------------------------------------------------------------------
# spectra and physicality


def test_symplectic_eigenvalues_vacuum_and_thermal():
    assert_allclose(symplectic_eigenvalues(np.eye(6)), 0.5)
    assert_allclose(
        symplectic_eigenvalues(thermal_covariance(0.7)), [1.2], atol=1e-12
    )


def test_symplectic_eigenvalues_recover_normal_form():
    rng = np.random.default_rng(41)
    nus = np.array([0.5, 0.9, 2.5])
    normal_form = np.diag(np.repeat(nus, 2))
    s = oracles.random_symplectic(rng, 3)
    v = 2.0 * s @ normal_form @ s.T
    assert_allclose(symplectic_eigenvalues(v), np.sort(nus), atol=1e-10)
    assert symplectic_eigenvalues(v).shape == (3,)
    with pytest.raises(ValueError):
        symplectic_eigenvalues(np.eye(3))


def test_check_physical_accepts_states_rejects_nonstates():
    assert check_physical(np.eye(4)).physical
    report = check_physical(0.5 * np.eye(4))
    assert not report.physical
    assert report.min_symplectic == pytest.approx(0.25, abs=1e-12)
    # positive definite is not enough: uncertainty must hold per mode
    assert not check_physical(np.diag([2.0, 0.3, 1.0, 1.0])).physical


def test_chain_steady_states_are_physical():
    for r, j in ((0.0, 0.0), (0.1, 0.5), (0.3, 0.9)):
        report = check_physical(steady_state(r=r, j=j))
        assert report.physical
        assert report.min_symplectic >= 0.5 - 1e-8


# ---------------------------------------------------------------------------
# physicality certificate of the generator


def symplectic_part(a):
    """A Omega + Omega A^T, the part of Q that carries the drift."""
    omega = oracles.omega_form(a.shape[0] // 2)
    return a @ omega + omega @ a.T


@pytest.mark.parametrize("direction", list(Direction), ids=lambda d: d.value)
def test_symplectic_part_of_the_drift_ignores_squeezing_and_coupling(direction):
    # the squeezing and the source coupling are Hamiltonian, so Q is the same
    # at every (r, j) and one certificate covers a sweep
    base = replace(
        DEFAULT_CONFIG,
        omega=tuple(1.0 + 0.05 * k for k in range(DEFAULT_CONFIG.M + 1)),
        nbar_local=0.01,
        nbar_common=0.02,
        direction=direction,
    )
    reference = symplectic_part(build_dynamical_matrix(validate_config(base)))
    assert np.abs(reference).max() > 0.1
    for r, j in ((0.7, 0.9), (0.1, DEFAULT_CONFIG.gamma / 4.0), (2.0, 0.0), (0.0, 5.0)):
        a = build_dynamical_matrix(validate_config(replace(base, r=r, j=j)))
        assert np.abs(symplectic_part(a) - reference).max() <= 1e-15


def single_mode_generator(nbar, gamma=0.3):
    """A damped mode in a bath at ``nbar``: Q = gamma ((2 nbar + 1) I + i Omega),
    with smallest eigenvalue 2 gamma nbar."""
    a = np.array([[-gamma / 2.0, 1.0], [-1.0, -gamma / 2.0]])
    return a, gamma * (2.0 * nbar + 1.0) * np.eye(2)


def test_certificate_admits_the_vacuum_bath_and_rejects_any_below():
    assert certify_physicality(*single_mode_generator(0.0))  # Q exactly singular
    assert certify_physicality(*single_mode_generator(0.5))
    assert not certify_physicality(*single_mode_generator(-1e-10))
    assert not certify_physicality(*single_mode_generator(-0.25))


@pytest.mark.parametrize("m", [1, 3, 10, 100])
def test_certificate_holds_for_chains_and_fails_below_the_vacuum(m):
    for overrides in ({}, {"nbar_local": 0.01, "nbar_common": 0.02}):
        net = validate_config(replace(DEFAULT_CONFIG, M=m, r=0.3, j=0.7, **overrides))
        a, noise = build_dynamical_matrix(net), build_noise_matrix(net)
        assert certify_physicality(a, noise)
        assert not certify_physicality(a, 0.5 * noise)


@pytest.mark.parametrize("m", [1, 3, 10, 100, 500])
def test_banded_certificate_matches_the_dense_factorization(m):
    warm = {
        "omega": tuple(1.0 + 0.01 * (k % 7) for k in range(m + 1)),
        "nbar_local": 0.01,
        "nbar_common": 0.02,
    }
    for direction in Direction:
        for overrides in ({}, warm):
            net = validate_config(
                replace(DEFAULT_CONFIG, M=m, r=0.3, j=0.7, direction=direction, **overrides)
            )
            a, noise = build_dynamical_matrix(net), build_noise_matrix(net)
            for scale in (1.0, 0.5):
                expected = oracles.certificate_dense(a, scale * noise)
                assert certify_physicality(a, scale * noise) == expected
                assert expected == (scale == 1.0)


def test_certificate_without_dissipation_is_not_given():
    # no bath at all: Q = 0, and no drift of that kind is stable
    net = validate_config(replace(DEFAULT_CONFIG, gamma=0.0, gamma_out=0.0, r=0.2))
    assert not certify_physicality(build_dynamical_matrix(net), build_noise_matrix(net))


# ---------------------------------------------------------------------------
# occupation and temperature


def test_mean_occupation_closed_forms():
    assert mean_occupation(np.eye(2), 0) == 0.0
    assert mean_occupation(thermal_covariance(0.7), 0) == pytest.approx(0.7)
    s = 0.8
    squeezed = np.diag([math.exp(2.0 * s), math.exp(-2.0 * s)])
    assert mean_occupation(squeezed, 0) == pytest.approx(math.sinh(s) ** 2, abs=1e-12)


def test_mean_occupation_nonnegative_for_physical_states():
    rng = np.random.default_rng(8)
    for _ in range(100):
        v = oracles.random_physical_two_mode(rng)
        assert mean_occupation(v, 0) >= -1e-12
        assert mean_occupation(v, 1) >= -1e-12


def test_effective_temperature_closed_form():
    omega = 2.0 * math.pi * 5.0e9
    # nbar = 1/(e - 1) makes ln(1 + 1/nbar) = 1
    t = effective_temperature(1.0 / (math.e - 1.0), omega)
    assert t == pytest.approx(HBAR * omega / KB, rel=1e-12)
    t_mk = effective_temperature(0.01, omega) * 1e3
    assert t_mk == pytest.approx(52.0, abs=1.0)


def test_effective_temperature_monotone_in_occupation():
    omega = 2.0 * math.pi * 6.0e6
    occupations = [0.001, 0.01, 0.1, 1.0, 10.0]
    temps = [effective_temperature(n, omega) for n in occupations]
    assert all(t2 > t1 for t1, t2 in zip(temps, temps[1:]))


def test_effective_temperature_domain_errors():
    with pytest.raises(NonpositiveOccupationError):
        effective_temperature(0.0, 1e9)
    with pytest.raises(NonpositiveOccupationError):
        effective_temperature(-0.5, 1e9)
    with pytest.raises(ValueError):
        effective_temperature(0.1, 0.0)
