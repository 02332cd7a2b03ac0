"""Model of a squeezed source mode driving a cascaded chain of oscillators.

The network is one squeezed bosonic mode (node 0) coupled unidirectionally to
a chain of M identical modes (nodes 1..M).  Neighbouring chain nodes l and
l+1 share an engineered common bath of rate gamma whose dissipative coupling
cancels the coherent hopping J_l = gamma/2 in one direction, so excitations
travel one way down the chain.  Every node also leaks into its own distinct
bath at rate gamma_out.  The source attaches either at the chain head
(Forward, entanglement can propagate) or at the chain tail (Backward, it
cannot).

This module validates configurations and builds the two real matrices of
the linear quadrature dynamics

    d<q>/dt = A <q>,        dV/dt = A V + V A^T + N,

the drift A and the diffusion N, for the quadrature vector
q = (x_0, p_0, ..., x_M, p_M).

Conventions, relied on by every other module:

* quadratures x = (a + a^dag)/sqrt(2), p = -i (a - a^dag)/sqrt(2),
  interleaved per node;
* every node k has a distinct bath (rate gamma_out, occupation
  nbar_local[k]), and the chain nodes l and l+1 share the common bath of
  their cascade link (rate gamma, occupation nbar_common[l-1]);
* the vacuum covariance matrix is the identity, so a bath at occupation
  nbar enters the diffusion matrix with weight 2*nbar + 1.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    LengthMismatchError,
    NegativeRateError,
    ZeroModesError,
)

I2 = np.eye(2)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]])
# i*sigma_y is real in the quadrature representation; it generates the
# harmonic rotation x -> p -> -x.
I_SIGMA_Y = np.array([[0.0, 1.0], [-1.0, 0.0]])


class Direction(enum.Enum):
    """Which end of the chain the squeezed source couples to."""

    FORWARD = "forward"
    BACKWARD = "backward"


@dataclass(frozen=True)
class NetworkConfig:
    """Raw (unchecked) network parameters.

    Rates are in units of the common mode frequency unless heterogeneous
    frequencies are given explicitly.  ``omega``, ``nbar_local`` and
    ``nbar_common`` accept None (defaults), a scalar (broadcast), or a
    full-length sequence.

    Fields
    ------
    M : number of chain nodes, a whole number (the source is node 0 and
        is not counted)
    r : squeezing rate of the source mode
    j : source-chain coupling rate
    gamma : common-bath (cascade) decay rate; the internal hoppings are
        locked to gamma/2 by the matching condition
    gamma_out : distinct-bath decay rate of every node
    omega : mode frequencies, length M+1 (default: all 1)
    nbar_local : distinct-bath thermal occupations, length M+1 (default: 0)
    nbar_common : common-bath thermal occupations, length M-1 (default: 0)
    direction : which end of the chain the source drives
    """

    M: int
    r: float = 0.0
    j: float = 0.0
    gamma: float = 0.0
    gamma_out: float = 0.0
    omega: object = None
    nbar_local: object = None
    nbar_common: object = None
    direction: Direction = Direction.FORWARD


@dataclass(frozen=True)
class ValidatedNetwork:
    """A checked and normalized network.

    When all mode frequencies are equal and positive, every rate has been
    divided by that frequency so omega == 1 internally; ``frequency_scale``
    records the divisor (1.0 when no normalization applied).
    """

    M: int
    r: float
    j: float
    gamma: float
    gamma_out: float
    omega: np.ndarray
    nbar_local: np.ndarray
    nbar_common: np.ndarray
    direction: Direction
    frequency_scale: float = 1.0

    @property
    def dim(self) -> int:
        return 2 * (self.M + 1)


def _as_float_array(value, length: int, default: float) -> np.ndarray:
    """Broadcast None or a scalar to ``length``; pass sequences through."""
    if value is None:
        return np.full(length, default, dtype=float)
    if np.isscalar(value):
        return np.full(length, float(value), dtype=float)
    return np.asarray(value, dtype=float)


def _is_integral(value) -> bool:
    """Whether ``value`` is a whole number: an integer, or a finite real
    with no fractional part (10.0 and numpy integers count, "3" does not)."""
    return isinstance(value, numbers.Integral) or (
        isinstance(value, numbers.Real) and float(value).is_integer()
    )


def config_violations(cfg: NetworkConfig) -> list:
    """Return every contract violation in ``cfg`` as a list of ConfigError
    instances (empty when the configuration is valid)."""
    problems: list = []
    if not _is_integral(cfg.M):
        problems.append(ConfigError(f"M must be an integer, got {cfg.M!r}"))
        return problems
    if int(cfg.M) < 1:
        problems.append(ZeroModesError(f"M must be >= 1, got {cfg.M}"))
        return problems  # expected lengths are meaningless without M

    for name in ("r", "j", "gamma", "gamma_out"):
        value = float(getattr(cfg, name))
        if not math.isfinite(value):
            problems.append(ConfigError(f"{name} must be finite, got {value}"))
        elif value < 0:
            problems.append(NegativeRateError(f"{name} must be >= 0, got {value}"))

    m = int(cfg.M)
    for name, expected, kind in (
        ("omega", m + 1, "frequency"),
        ("nbar_local", m + 1, "occupation"),
        ("nbar_common", m - 1, "occupation"),
    ):
        raw = getattr(cfg, name)
        if raw is None or np.isscalar(raw):
            values = _as_float_array(raw, expected, 1.0 if name == "omega" else 0.0)
        else:
            values = np.asarray(raw, dtype=float)
            if values.shape != (expected,):
                problems.append(LengthMismatchError(name, expected, values.size))
                continue
        if not np.isfinite(values).all():
            bad = values[~np.isfinite(values)]
            problems.append(ConfigError(f"{name} entries must be finite, got {bad[0]}"))
            continue
        bad = values[values < 0]
        if bad.size:
            problems.append(
                NegativeRateError(f"{name} entries must be >= 0 ({kind}), got {bad[0]}")
            )
    return problems


def validate_config(cfg: NetworkConfig) -> ValidatedNetwork:
    """Check ``cfg`` and return the normalized network.

    Raises the first violation found (a ConfigError subclass).  Use
    ``config_violations`` to collect all of them at once.

    When every mode frequency is equal and positive, all rates are divided
    by it so the returned network has omega == 1; heterogeneous frequencies
    are accepted unchanged.
    """
    problems = config_violations(cfg)
    if problems:
        raise problems[0]

    m = int(cfg.M)
    omega = _as_float_array(cfg.omega, m + 1, 1.0)
    nbar_local = _as_float_array(cfg.nbar_local, m + 1, 0.0)
    nbar_common = _as_float_array(cfg.nbar_common, m - 1, 0.0)

    scale = 1.0
    spread = float(omega.max() - omega.min())
    if omega[0] > 0 and spread <= 1e-12 * abs(omega[0]):
        scale = float(omega[0])

    return ValidatedNetwork(
        M=m,
        r=float(cfg.r) / scale,
        j=float(cfg.j) / scale,
        gamma=float(cfg.gamma) / scale,
        gamma_out=float(cfg.gamma_out) / scale,
        omega=omega / scale,
        nbar_local=nbar_local,
        nbar_common=nbar_common,
        direction=cfg.direction,
        frequency_scale=scale,
    )


def _node_sums(distinct: np.ndarray, link) -> np.ndarray:
    """Add to ``distinct`` (one term per node, updated in place and
    returned) the term of each cascade link a chain node touches:
    ``link[l]``, or the scalar ``link``, for the link between nodes l+1
    and l+2.

    The one accumulation order of both builders: a node's distinct bath,
    then its left link, then its right link.  The drift's damping and the
    noise diagonal therefore round alike, and the vacuum identity
    A + A^T + N = 0 at r = 0 on zero-temperature baths holds bitwise.
    """
    distinct[2:] += link
    distinct[1:-1] += link
    return distinct


def build_dynamical_matrix(net: ValidatedNetwork) -> np.ndarray:
    """Drift matrix A of the quadrature dynamics, shape 2(M+1) x 2(M+1).

    Diagonal blocks rotate at omega_k and damp at half the node's total
    decay rate (its distinct bath and each attached cascade link); the
    source block additionally contains the squeezing term -r*sigma_z.  The
    cascade appears as a one-way subdiagonal -gamma*I2 between consecutive
    chain nodes (matching condition J_l = gamma/2 already folded in), and
    the source coupling j*i*sigma_y sits at the chain head (Forward) or
    tail (Backward), symmetrically in both blocks.
    """
    return build_drift_stack(net, [net.r], [net.j])[0]


def build_drift_stack(net: ValidatedNetwork, r, j) -> np.ndarray:
    """Drift matrices of ``net`` with its squeezing and source coupling
    replaced by each pair (r[b], j[b]); shape (B, 2(M+1), 2(M+1)).

    Entry b is bitwise the ``build_dynamical_matrix`` of ``net`` at
    r = r[b], j = j[b]; only the source rows and columns differ along the
    stack.
    """
    r = np.asarray(r, dtype=float)[:, None, None]
    j = np.asarray(j, dtype=float)[:, None, None]
    m = net.M
    damping = _node_sums(np.full(m + 1, net.gamma_out), net.gamma)
    blocks = -(damping / 2.0)[:, None, None] * I2 + net.omega[:, None, None] * I_SIGMA_Y
    a = np.zeros((r.shape[0], net.dim, net.dim))
    nodes = a.reshape(r.shape[0], m + 1, 2, m + 1, 2)  # nodes[:, k, :, l, :] is block (k, l)
    chain = np.arange(1, m + 1)
    nodes[:, chain, :, chain, :] = blocks[1:, None]
    nodes[:, chain[1:], :, chain[:-1], :] = -net.gamma * I2
    a[:, 0:2, 0:2] = blocks[0] - r * SIGMA_Z
    coupling = j * I_SIGMA_Y
    end = _coupled_node(net)
    a[:, 0:2, 2 * end : 2 * end + 2] += coupling
    a[:, 2 * end : 2 * end + 2, 0:2] += coupling
    return a


def _coupled_node(net: ValidatedNetwork) -> int:
    """The chain node the source couples to: the head (Forward) or the tail."""
    return 1 if net.direction is Direction.FORWARD else net.M


def source_coupling(net: ValidatedNetwork) -> np.ndarray:
    """The drift's derivative in j: i*sigma_y between the source and the
    chain node it couples to, in both blocks.  Every drift of
    ``build_drift_stack`` is its j = 0 drift plus j times this matrix."""
    c = np.zeros((net.dim, net.dim))
    end = 2 * _coupled_node(net)
    c[0:2, end : end + 2] = I_SIGMA_Y
    c[end : end + 2, 0:2] = I_SIGMA_Y
    return c


def build_noise_matrix(net: ValidatedNetwork) -> np.ndarray:
    """Diffusion matrix N: every bath adds its rate times (2 nbar + 1) on
    the blocks of the nodes it touches.

    Mathematically the product form B diag(2 nbar + 1) B^T of the baths'
    input coupling B (the reference the tests check it against), but
    assembled from the rates directly, in the drift's accumulation order
    (``_node_sums``), so the vacuum identity A + A^T + N = 0 at r = 0 holds
    bitwise and round-off cannot masquerade as squeezing.
    """
    m = net.M
    common = net.gamma * (2.0 * net.nbar_common + 1.0)
    total = _node_sums(net.gamma_out * (2.0 * net.nbar_local + 1.0), common)
    n = np.zeros((net.dim, net.dim))
    diagonal = np.arange(net.dim)
    n[diagonal, diagonal] = np.repeat(total, 2)
    upper = np.arange(2, 2 * m)  # quadratures of nodes 1..M-1
    n[upper, upper + 2] = n[upper + 2, upper] = np.repeat(common, 2)
    return n
