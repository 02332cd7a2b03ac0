"""Configuration validation and construction of the drift and diffusion
matrices."""

import numpy as np
import pytest
from dataclasses import replace
from numpy.testing import assert_allclose

import oracles
from entflow import (
    DEFAULT_CONFIG,
    ConfigError,
    Direction,
    LengthMismatchError,
    NegativeRateError,
    NetworkConfig,
    ZeroModesError,
    build_drift_stack,
    build_dynamical_matrix,
    build_noise_matrix,
    config_violations,
    validate_config,
)


def make_net(**overrides):
    return validate_config(replace(DEFAULT_CONFIG, **overrides))


# ---------------------------------------------------------------------------
# validation


def test_defaults_are_valid():
    net = make_net()
    assert net.M == 10
    assert net.gamma == 0.8
    assert net.gamma_out == 0.002
    assert net.direction is Direction.FORWARD
    assert net.dim == 22
    assert_allclose(net.omega, np.ones(11))
    assert_allclose(net.nbar_local, np.zeros(11))
    assert_allclose(net.nbar_common, np.zeros(9))


def test_zero_modes_rejected():
    with pytest.raises(ZeroModesError):
        validate_config(NetworkConfig(M=0))
    problems = config_violations(NetworkConfig(M=0, r=-1.0))
    # without a valid M the expected array lengths are meaningless, so the
    # size problem is reported alone
    assert len(problems) == 1
    assert isinstance(problems[0], ZeroModesError)


@pytest.mark.parametrize("m", [2.5, "3", np.nan, np.inf, None])
def test_non_integral_node_count_rejected(m):
    problems = config_violations(replace(DEFAULT_CONFIG, M=m))
    assert len(problems) == 1
    assert type(problems[0]) is ConfigError
    assert "M must be an integer" in str(problems[0])
    with pytest.raises(ConfigError):
        validate_config(replace(DEFAULT_CONFIG, M=m))


@pytest.mark.parametrize("m", [10, np.int64(10), 10.0, np.float64(10.0)])
def test_integral_node_count_accepted(m):
    assert config_violations(replace(DEFAULT_CONFIG, M=m)) == []
    assert validate_config(replace(DEFAULT_CONFIG, M=m)).M == 10


@pytest.mark.parametrize("field", ["r", "j", "gamma", "gamma_out"])
def test_negative_rate_rejected(field):
    with pytest.raises(NegativeRateError):
        validate_config(replace(DEFAULT_CONFIG, **{field: -0.25}))


def test_negative_array_entries_rejected():
    with pytest.raises(NegativeRateError):
        make_net(M=2, nbar_local=(0.0, -0.1, 0.0))
    with pytest.raises(NegativeRateError):
        make_net(M=3, nbar_common=(0.1, -0.5))
    with pytest.raises(NegativeRateError):
        make_net(M=2, omega=(1.0, -1.0, 1.0))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "field,value",
    [
        ("r", None),
        ("j", None),
        ("gamma", None),
        ("gamma_out", None),
        ("omega", (1.0, None, 1.0)),
        ("nbar_local", (0.0, 0.0, None)),
        ("nbar_common", (None,)),
        ("omega", None),
        ("nbar_local", None),
    ],
)
def test_non_finite_values_rejected(field, value, bad):
    value = bad if value is None else tuple(bad if x is None else x for x in value)
    problems = config_violations(replace(DEFAULT_CONFIG, M=2, **{field: value}))
    assert len(problems) == 1
    assert type(problems[0]) is ConfigError
    assert field in str(problems[0]) and "finite" in str(problems[0])


@pytest.mark.parametrize(
    "field,length",
    [("omega", 5), ("nbar_local", 5), ("nbar_common", 3)],
)
def test_length_mismatch_rejected(field, length):
    bad = {field: tuple(0.5 for _ in range(length + 1))}
    with pytest.raises(LengthMismatchError) as err:
        make_net(M=4, **bad)
    assert err.value.field == field
    assert err.value.expected == length
    assert err.value.got == length + 1


def test_violations_collects_everything():
    cfg = replace(DEFAULT_CONFIG, M=3, r=-1.0, gamma=-2.0, omega=(1.0, 1.0))
    problems = config_violations(cfg)
    assert len(problems) == 3
    # validate_config raises the first of the same list
    with pytest.raises(type(problems[0])):
        validate_config(cfg)
    assert config_violations(DEFAULT_CONFIG) == []


def test_scalar_broadcast():
    net = make_net(M=4, omega=2.0, nbar_local=0.3, nbar_common=0.1)
    # equal frequencies are normalized away (see next test)
    assert net.nbar_local.shape == (5,)
    assert net.nbar_common.shape == (3,)
    assert_allclose(net.nbar_local, 0.3)
    assert_allclose(net.nbar_common, 0.1)


def test_equal_frequencies_normalize_rates():
    net = make_net(r=0.2, j=0.5, omega=2.0)
    assert net.frequency_scale == 2.0
    assert_allclose(net.omega, 1.0)
    assert_allclose(net.r, 0.1)
    assert_allclose(net.j, 0.25)
    assert_allclose(net.gamma, 0.4)
    assert_allclose(net.gamma_out, 0.001)


def test_heterogeneous_frequencies_kept():
    freqs = (1.0, 1.1, 0.9)
    net = make_net(M=2, omega=freqs)
    assert net.frequency_scale == 1.0
    assert_allclose(net.omega, freqs)


# ---------------------------------------------------------------------------
# drift matrix


def test_drift_blocks_small_chain():
    net = make_net(M=2, r=0.3, j=0.5)
    a = build_dynamical_matrix(net)
    assert a.shape == (6, 6)
    # source block: damping gamma_out/2, rotation at omega=1, squeezing -r*sigma_z
    assert_allclose(a[0:2, 0:2], [[-0.301, 1.0], [-1.0, 0.299]])
    # source-head coupling, symmetric placement
    assert_allclose(a[0:2, 2:4], [[0.0, 0.5], [-0.5, 0.0]])
    assert_allclose(a[2:4, 0:2], [[0.0, 0.5], [-0.5, 0.0]])
    # one-way cascade: node 2 is driven by node 1, never the reverse
    assert_allclose(a[4:6, 2:4], -0.8 * np.eye(2))
    assert_allclose(a[2:4, 4:6], 0.0)
    # no direct source-tail coupling in the forward layout
    assert_allclose(a[0:2, 4:6], 0.0)


def test_drift_backward_couples_tail():
    net = make_net(M=3, r=0.2, j=0.4, direction=Direction.BACKWARD)
    a = build_dynamical_matrix(net)
    coupling = 0.4 * np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert_allclose(a[0:2, 6:8], coupling)
    assert_allclose(a[6:8, 0:2], coupling)
    assert_allclose(a[0:2, 2:4], 0.0)
    assert_allclose(a[2:4, 0:2], 0.0)
    # the cascade direction itself is unchanged
    assert_allclose(a[4:6, 2:4], -0.8 * np.eye(2))


def test_node_damping_accumulates_attached_baths():
    # each diagonal block damps at half its node's distinct bath plus one
    # common bath per attached cascade link
    a = build_dynamical_matrix(make_net(M=4))
    damping = -2.0 * np.diagonal(a)[0::2]
    assert_allclose(damping, [0.002, 0.802, 1.602, 1.602, 0.802], rtol=1e-15)
    assert_allclose(np.diagonal(a)[1::2], np.diagonal(a)[0::2])


@pytest.mark.parametrize("direction", list(Direction))
@pytest.mark.parametrize(
    "overrides",
    [
        dict(r=0.2, j=0.5),
        dict(r=0.0, j=0.0),
        dict(M=1, r=0.4, j=0.8),
        dict(M=3, r=0.7, j=1.0),
        dict(
            M=4,
            r=0.1,
            j=0.3,
            omega=(1.0, 1.1, 0.9, 1.2, 1.0),
            nbar_local=0.2,
            nbar_common=(0.1, 0.3, 0.0),
        ),
    ],
)
def test_drift_matches_mode_basis_construction(direction, overrides):
    net = make_net(direction=direction, **overrides)
    assert_allclose(
        build_dynamical_matrix(net), oracles.drift_oracle(net), atol=1e-14
    )


# ---------------------------------------------------------------------------
# input coupling and diffusion


def test_input_matrix_column_energy():
    net = make_net(M=5)
    b = oracles.input_matrix(net)
    assert b.shape == (12, 20)
    col_energy = (b * b).sum(axis=0)
    # distinct baths (one node each) then common baths (two nodes each)
    assert_allclose(col_energy[:12], net.gamma_out)
    assert_allclose(col_energy[12:], 2.0 * net.gamma)


def test_bath_occupation_ordering():
    net = make_net(M=3, nbar_local=(0.1, 0.2, 0.3, 0.4), nbar_common=(0.5, 0.6))
    occ = oracles.bath_occupations(net)
    assert_allclose(occ, np.repeat([0.1, 0.2, 0.3, 0.4, 0.5, 0.6], 2))


@pytest.mark.parametrize(
    "overrides",
    [
        dict(M=1),
        dict(M=2, nbar_local=0.25),
        dict(M=5, nbar_local=(0.0, 0.1, 0.2, 0.3, 0.4, 0.5), nbar_common=0.15),
        dict(M=10),
    ],
)
def test_noise_matches_product_form(overrides):
    net = make_net(**overrides)
    b = oracles.input_matrix(net)
    occ = oracles.bath_occupations(net)
    product = b @ np.diag(2.0 * occ + 1.0) @ b.T
    assert_allclose(build_noise_matrix(net), product, atol=1e-14)


def test_noise_matches_element_formula():
    net = make_net(M=4, nbar_local=0.2, nbar_common=(0.1, 0.3, 0.0))
    element = oracles.noise_element_formula(
        oracles.input_matrix(net), oracles.bath_occupations(net)
    )
    assert_allclose(build_noise_matrix(net), element, atol=1e-14)


def test_noise_block_structure():
    net = make_net(M=3, nbar_common=(0.2, 0.4))
    n = build_noise_matrix(net)
    assert_allclose(n, n.T)
    # the source shares no bath with any chain node
    assert_allclose(n[0:2, 2:], 0.0)
    # neighbours (1,2) and (2,3) share a bath, (1,3) do not
    assert n[2, 4] == pytest.approx(0.8 * 1.4)
    assert n[4, 6] == pytest.approx(0.8 * 1.8)
    assert_allclose(n[2:4, 6:8], 0.0)
    # x and p never mix in the diffusion
    assert n[2, 5] == 0.0 and n[3, 4] == 0.0


def test_vacuum_identity_is_bitwise():
    # at r = 0 with zero-temperature baths the steady state is the vacuum,
    # so the Lyapunov relation closes exactly: A + A^T + N == 0 with no
    # floating-point residue at all
    for m in (1, 2, 5, 10):
        net = make_net(M=m, r=0.0, j=0.7)
        a = build_dynamical_matrix(net)
        n = build_noise_matrix(net)
        assert np.all(a + a.T + n == 0.0)


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("direction", list(Direction), ids=lambda d: d.value)
@pytest.mark.parametrize("m", [1, 2, 3, 10, 200])
def test_assembly_is_bitwise_the_per_node_construction(m, direction, warm):
    # heterogeneous frequencies, and warm baths with a different occupation
    # on every bath, so that no two entries coincide by accident
    overrides = dict(M=m, direction=direction, omega=tuple(1.0 + 0.03 * k for k in range(m + 1)))
    if warm:
        overrides.update(
            nbar_local=tuple(0.01 * (k + 1) for k in range(m + 1)),
            nbar_common=tuple(0.02 + 0.001 * k for k in range(m - 1)),
        )
    net = make_net(**overrides)
    r, j = np.array([0.0, 0.1, 0.5]), np.array([0.7, 0.0, 0.9])
    drifts = build_drift_stack(net, r, j)
    noise = build_noise_matrix(net)
    assert drifts.tobytes() == oracles.drift_stack_per_node(net, r, j).tobytes()
    assert noise.tobytes() == oracles.noise_per_node(net).tobytes()
    if not warm:
        # r = 0 on cold baths: the vacuum relation cancels bitwise
        a = drifts[0]
        assert np.all(a + a.T + noise == 0.0)

