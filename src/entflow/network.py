"""Model of a squeezed source mode driving a cascaded chain of oscillators.

The network is one squeezed bosonic mode (node 0) coupled unidirectionally to
a chain of M identical modes (nodes 1..M).  Neighbouring chain nodes l and
l+1 share an engineered common bath of rate gamma whose dissipative coupling
cancels the coherent hopping J_l = gamma/2 in one direction, so excitations
travel one way down the chain.  Every node also leaks into its own distinct
bath at rate gamma_out.  The source attaches either at the chain head
(Forward, entanglement can propagate) or at the chain tail (Backward, it
cannot).

This module validates configurations and builds the three real matrices of
the linear quadrature dynamics

    d<q>/dt = A <q>,        dV/dt = A V + V A^T + N,

for the quadrature vector q = (x_0, p_0, ..., x_M, p_M).

Conventions, relied on by every other module:

* quadratures x = (a + a^dag)/sqrt(2), p = -i (a - a^dag)/sqrt(2),
  interleaved per node;
* noise channels ordered distinct baths 0..M first, then common baths
  (1,2)..(M-1,M), two quadrature columns per bath;
* the vacuum covariance matrix is the identity, so a bath at occupation
  nbar enters the diffusion matrix with weight 2*nbar + 1.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

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
    M : number of chain nodes (the source is node 0 and is not counted)
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
    def n_modes(self) -> int:
        return self.M + 1

    @property
    def dim(self) -> int:
        return 2 * (self.M + 1)

    @property
    def n_baths(self) -> int:
        # M+1 distinct baths plus M-1 common baths
        return 2 * self.M

    @property
    def n_noise(self) -> int:
        return 4 * self.M


@dataclass(frozen=True)
class SystemMatrices:
    """The three matrices of the quadrature dynamics, plus ordering metadata."""

    drift: np.ndarray
    input_coupling: np.ndarray
    noise: np.ndarray
    quadrature_order: tuple = field(default=())
    noise_order: tuple = field(default=())


def _as_float_array(value, length: int, default: float) -> np.ndarray:
    """Broadcast None or a scalar to ``length``; pass sequences through."""
    if value is None:
        return np.full(length, default, dtype=float)
    if np.isscalar(value):
        return np.full(length, float(value), dtype=float)
    return np.asarray(value, dtype=float)


def config_violations(cfg: NetworkConfig) -> list:
    """Return every contract violation in ``cfg`` as a list of ConfigError
    instances (empty when the configuration is valid)."""
    problems: list = []
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


def _attached_links(k: int, m: int) -> tuple:
    """0-based indices of the common baths touching node k, left link first.

    Common bath l couples nodes l+1 and l+2 (index l = 0..M-2 for the pair
    (1,2)..(M-1,M)); the source node 0 touches none.
    """
    if k == 0:
        return ()
    links = []
    if k >= 2:
        links.append(k - 2)
    if k <= m - 1:
        links.append(k - 1)
    return tuple(links)


def node_damping(net: ValidatedNetwork, k: int) -> float:
    """Total decay rate of node k: its distinct bath plus one common-bath
    contribution per attached cascade link (chain interior nodes have two).

    Accumulated in the same order as the noise-matrix diagonal so the
    vacuum identity A + A^T + N = 0 cancels bitwise.
    """
    total = net.gamma_out
    for _ in _attached_links(k, net.M):
        total += net.gamma
    return total


def build_dynamical_matrix(net: ValidatedNetwork) -> np.ndarray:
    """Drift matrix A of the quadrature dynamics, shape 2(M+1) x 2(M+1).

    Diagonal blocks rotate at omega_k and damp at node_damping(k)/2; the
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
    # node_damping of every node, accumulated in its order: the distinct
    # bath, then the left and the right cascade link
    damping = np.full(m + 1, net.gamma_out)
    damping[2:] += net.gamma
    damping[1:m] += net.gamma
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


def build_input_matrix(net: ValidatedNetwork) -> np.ndarray:
    """Input coupling B, shape 2(M+1) x 4M.

    Columns are bath quadrature pairs: distinct baths 0..M first (weight
    sqrt(gamma_out) on their own node), then common baths (1,2)..(M-1,M)
    (weight sqrt(gamma) on both attached nodes).
    """
    m = net.M
    b = np.zeros((net.dim, net.n_noise))
    w_out = math.sqrt(net.gamma_out)
    for k in range(m + 1):
        b[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = w_out * I2
    w_common = math.sqrt(net.gamma)
    for l in range(1, m):
        col = 2 * (m + 1) + 2 * (l - 1)
        b[2 * l : 2 * l + 2, col : col + 2] = w_common * I2
        b[2 * (l + 1) : 2 * (l + 1) + 2, col : col + 2] = w_common * I2
    return b


def bath_occupations(net: ValidatedNetwork) -> np.ndarray:
    """Thermal occupation per noise column (each bath contributes two)."""
    per_bath = np.concatenate([net.nbar_local, net.nbar_common])
    return np.repeat(per_bath, 2)


def build_noise_matrix(net: ValidatedNetwork) -> np.ndarray:
    """Diffusion matrix N: every bath adds its rate times (2 nbar + 1) on
    the blocks of the nodes it touches.

    Mathematically identical to the product form B diag(2 nbar + 1) B^T of
    the input matrix (tests pin the two to 1e-14), but assembled from the
    rates directly, in the same accumulation order as node_damping, so the
    vacuum identity A + A^T + N = 0 at r = 0 holds bitwise and round-off
    cannot masquerade as squeezing.
    """
    m = net.M
    # every bath's weight; node k adds its distinct bath, then the common
    # baths of its left and its right link (node_damping's order)
    common = net.gamma * (2.0 * net.nbar_common + 1.0)
    total = net.gamma_out * (2.0 * net.nbar_local + 1.0)
    total[2:] += common
    total[1:m] += common
    n = np.zeros((net.dim, net.dim))
    diagonal = np.arange(net.dim)
    n[diagonal, diagonal] = np.repeat(total, 2)
    upper = np.arange(2, 2 * m)  # quadratures of nodes 1..M-1
    n[upper, upper + 2] = n[upper + 2, upper] = np.repeat(common, 2)
    return n


def build_system_matrices(net: ValidatedNetwork) -> SystemMatrices:
    """Build drift, input coupling, and diffusion together with the channel
    ordering metadata the exporters rely on."""
    quadratures = tuple(f"{q}{k}" for k in range(net.n_modes) for q in ("x", "p"))
    baths = tuple(f"distinct:{k}" for k in range(net.n_modes)) + tuple(
        f"common:{l},{l + 1}" for l in range(1, net.M)
    )
    return SystemMatrices(
        drift=build_dynamical_matrix(net),
        input_coupling=build_input_matrix(net),
        noise=build_noise_matrix(net),
        quadrature_order=quadratures,
        noise_order=baths,
    )
