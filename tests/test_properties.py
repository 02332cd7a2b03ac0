"""Property tests over random valid network configurations."""

from dataclasses import replace

import numpy as np
from hypothesis import assume, given
from hypothesis import strategies as st

import oracles
from entflow import (
    Direction,
    NetworkConfig,
    build_dynamical_matrix,
    build_noise_matrix,
    check_physical,
    evolve_covariance,
    log_negativity,
    pair_log_negativities,
    reduce_two_mode,
    run_point,
    solve_steady_state_spectral,
    spectral_abscissa,
    validate_config,
)

times = st.floats(0.0, 10.0)
# Steady-state properties are drawn away from the stability boundary, where
# the steady state grows as 1/|abscissa| and round-off with it.
MARGIN = 1e-3


@st.composite
def configs(draw, directions=tuple(Direction), min_j=0.0, max_nbar=2.0):
    """A random valid chain, stable or not."""
    m = draw(st.integers(1, 6))

    def per(count, lo, hi):
        return tuple(draw(st.lists(st.floats(lo, hi), min_size=count, max_size=count)))

    return NetworkConfig(
        M=m,
        r=draw(st.floats(0.0, 0.5)),
        j=draw(st.floats(min_j, 1.0)),
        gamma=draw(st.floats(0.0, 1.0)),
        gamma_out=draw(st.floats(0.01, 0.5)),
        omega=per(m + 1, 0.5, 1.5),
        nbar_local=per(m + 1, 0.0, max_nbar),
        nbar_common=per(m - 1, 0.0, max_nbar),
        direction=draw(st.sampled_from(directions)),
    )


@st.composite
def networks(draw, max_nbar=2.0):
    """Drift and diffusion of a random valid chain, stable or not."""
    net = validate_config(draw(configs(max_nbar=max_nbar)))
    return build_dynamical_matrix(net), build_noise_matrix(net)


def stable_steady_state(a, n):
    assume(spectral_abscissa(a) < -MARGIN)
    return solve_steady_state_spectral(a, n)


@st.composite
def physical_states(draw, dim):
    """S diag(nu) S^T with S symplectic and every nu >= 1 (vacuum = I)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    s = oracles.random_symplectic(rng, dim // 2, scale=0.3)
    nu = np.repeat(rng.uniform(1.0, 3.0, dim // 2), 2)
    v = (s * nu) @ s.T
    return (v + v.T) / 2.0


@st.composite
def evolutions(draw):
    a, n = draw(networks())
    return a, n, draw(physical_states(a.shape[0]))


def scale(v):
    return max(1.0, float(np.abs(v).max()))


@given(evolutions(), times, times)
def test_evolution_is_a_semigroup(system, t1, t2):
    a, n, v0 = system
    once = evolve_covariance(a, n, v0, t1 + t2)
    twice = evolve_covariance(a, n, evolve_covariance(a, n, v0, t1), t2)
    assert np.abs(once - twice).max() <= 1e-10 * scale(once)


@given(evolutions(), times)
def test_evolution_is_bitwise_symmetric(system, t):
    a, n, v0 = system
    v = evolve_covariance(a, n, v0, t)
    assert np.array_equal(v, v.T)


@given(evolutions(), times)
def test_evolution_keeps_states_physical(system, t):
    a, n, v0 = system
    assert check_physical(evolve_covariance(a, n, v0, t)).physical


@given(evolutions())
def test_evolution_converges_to_the_steady_state(system):
    a, n, v0 = system
    assume(spectral_abscissa(a) < -1e-3)
    v_inf = solve_steady_state_spectral(a, n)
    v = evolve_covariance(a, n, v0, 1e6)
    assert np.abs(v - v_inf).max() <= 1e-10 * scale(v_inf)


@given(networks())
def test_steady_state_meets_the_residual_contract(system):
    a, n = system
    v = stable_steady_state(a, n)
    assert np.array_equal(v, v.T)
    assert np.abs(a @ v + v @ a.T + n).max() <= 1e-8 * scale(n)


@given(configs())
def test_stable_points_are_physical(cfg):
    point = run_point(validate_config(cfg))
    assume(point.spectral_abscissa < -MARGIN)
    assert point.solver_error is None
    assert point.physical


@given(networks(max_nbar=0.02), st.data())
def test_log_negativity_is_symmetric_in_the_pair(system, data):
    # nearly cold baths, so that the drawn pair is often entangled
    v = stable_steady_state(*system)
    n_modes = v.shape[0] // 2
    k = data.draw(st.integers(0, n_modes - 1))
    m = data.draw(st.integers(0, n_modes - 2))
    m += m >= k
    forward = log_negativity(reduce_two_mode(v, k, m)).log_negativity
    swapped = log_negativity(reduce_two_mode(v, m, k)).log_negativity
    assert abs(forward - swapped) <= 1e-10 + 1e-9 * forward
    batched = pair_log_negativities(v[None], m, [k])[0, 0]
    assert abs(batched - forward) <= 1e-10 + 1e-9 * forward


@given(configs(directions=(Direction.BACKWARD,), min_j=0.05), st.floats(0.0, 0.5), st.floats(0.05, 1.0))
def test_backward_upstream_blocks_ignore_the_source(cfg, r, j):
    # nodes 1..M-1 sit upstream of a Backward source: their blocks are the
    # same bitwise for any source parameters that keep the same couplings
    assume(cfg.M >= 2)
    states = []
    for point in (cfg, replace(cfg, r=r, j=j)):
        net = validate_config(point)
        states.append(
            stable_steady_state(build_dynamical_matrix(net), build_noise_matrix(net))
        )
    upstream = slice(2, 2 * cfg.M)
    assert np.array_equal(states[0][upstream, upstream], states[1][upstream, upstream])


@st.composite
def single_mode_states(draw):
    """(2 nbar + 1) R S S^T R^T: a squeezed thermal state at any phase."""
    s = draw(st.floats(0.0, 2.0))
    rotation = oracles.rotation_block(draw(st.floats(0.0, 2.0 * np.pi)))
    nbar = draw(st.floats(0.0, 2.0))
    squeezed = np.diag([np.exp(2.0 * s), np.exp(-2.0 * s)])
    return (2.0 * nbar + 1.0) * rotation @ squeezed @ rotation.T


@given(single_mode_states(), single_mode_states())
def test_product_states_carry_no_entanglement(first, second):
    zero = np.zeros((2, 2))
    v = np.block([[first, zero], [zero, second]])
    assert log_negativity(v).log_negativity <= 1e-12
