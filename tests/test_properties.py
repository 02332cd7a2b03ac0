"""Property tests over random valid network configurations."""

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
    solve_steady_state_spectral,
    spectral_abscissa,
    validate_config,
)

times = st.floats(0.0, 10.0)


@st.composite
def networks(draw):
    """Drift and diffusion of a random valid chain, stable or not."""
    m = draw(st.integers(1, 6))

    def per(count, lo, hi):
        return tuple(draw(st.lists(st.floats(lo, hi), min_size=count, max_size=count)))

    net = validate_config(
        NetworkConfig(
            M=m,
            r=draw(st.floats(0.0, 0.5)),
            j=draw(st.floats(0.0, 1.0)),
            gamma=draw(st.floats(0.0, 1.0)),
            gamma_out=draw(st.floats(0.01, 0.5)),
            omega=per(m + 1, 0.5, 1.5),
            nbar_local=per(m + 1, 0.0, 2.0),
            nbar_common=per(m - 1, 0.0, 2.0),
            direction=draw(st.sampled_from(Direction)),
        )
    )
    return build_dynamical_matrix(net), build_noise_matrix(net)


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
