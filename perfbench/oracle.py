"""Reference computations made apart from the entflow package.

Nothing here imports entflow.  The drift matrix is assembled from the
mode-operator (a, a+) generator and rotated into quadratures, the noise
matrix from the bath channels' coupling vectors, steady states come from
scipy's Bartels-Stewart Lyapunov solver, entanglement from the raw
eigenvalues of the partially transposed two-mode state, stability from the
diagonal blocks of the permuted drift (the 4x4 source block in extended
precision), and time evolution from a stepped Van Loan recurrence.

A chain is described by a plain dict with the keys of the config file:
M, r, j, gamma, gamma_out, nbar_local (M+1 values), nbar_common (M-1
values) and direction ("forward" or "backward").  Every mode frequency is 1.
"""

from __future__ import annotations

import functools
import math

import mpmath
import numpy as np
import scipy.linalg

# E_N at or below this is no entanglement (the paper's numerical zero).
EN_THRESHOLD = 1e-10
# |abscissa| below this is marginal, never stable.
STABILITY_MARGIN = 1e-9
SQRT_EPS = math.sqrt(np.finfo(float).eps)

# (x, p)^T = _U (a, a+)^T
_U = np.array([[1.0, 1.0], [-1.0j, 1.0j]]) / math.sqrt(2.0)


def _damping(chain: dict, k: int) -> float:
    """Total decay rate of node k: distinct bath plus its cascade links."""
    links = (k >= 2) + (1 <= k <= chain["M"] - 1)
    return chain["gamma_out"] + links * chain["gamma"]


def _end(chain: dict) -> int:
    return 1 if chain["direction"] == "forward" else chain["M"]


def drift(chain: dict) -> np.ndarray:
    """Quadrature drift matrix, built from the (a, a+) Langevin generator."""
    n = chain["M"] + 1
    gen = np.zeros((2 * n, 2 * n), dtype=complex)
    for k in range(n):
        gen[2 * k, 2 * k] = -1.0j - _damping(chain, k) / 2.0
        gen[2 * k + 1, 2 * k + 1] = 1.0j - _damping(chain, k) / 2.0
    gen[0, 1] -= chain["r"]
    gen[1, 0] -= chain["r"]
    for k in range(2, n):
        gen[2 * k, 2 * k - 2] -= chain["gamma"]
        gen[2 * k + 1, 2 * k - 1] -= chain["gamma"]
    end = _end(chain)
    for p, q in ((0, end), (end, 0)):
        gen[2 * p, 2 * q] -= 1.0j * chain["j"]
        gen[2 * p + 1, 2 * q + 1] += 1.0j * chain["j"]
    t = np.kron(np.eye(n), _U)
    return (t @ gen @ np.linalg.inv(t)).real


def noise(chain: dict) -> np.ndarray:
    """Diffusion matrix: sum over bath channels of rate (2 nbar + 1) u u^T (x) I2."""
    m = chain["M"]
    n = m + 1
    total = np.zeros((n, n))
    for k in range(n):
        u = np.zeros(n)
        u[k] = 1.0
        total += chain["gamma_out"] * (2.0 * chain["nbar_local"][k] + 1.0) * np.outer(u, u)
    for link in range(1, m):
        u = np.zeros(n)
        u[link] = u[link + 1] = 1.0
        total += chain["gamma"] * (2.0 * chain["nbar_common"][link - 1] + 1.0) * np.outer(u, u)
    return np.kron(total, np.eye(2))


def steady_state(a: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Solution of A V + V A^T + N = 0 (Bartels-Stewart)."""
    return scipy.linalg.solve_continuous_lyapunov(a, -n)


def log_negativity(v: np.ndarray, k: int, m: int) -> float:
    """E_N of modes (k, m) from |eig(i Omega sigma_pt)|, sigma = V/2."""
    idx = [2 * k, 2 * k + 1, 2 * m, 2 * m + 1]
    sigma_pt = v[np.ix_(idx, idx)] / 2.0
    sigma_pt[3, :] *= -1.0
    sigma_pt[:, 3] *= -1.0
    omega = np.kron(np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    nu = float(np.abs(np.linalg.eigvals(1.0j * omega @ sigma_pt)).min())
    return max(0.0, -math.log(2.0 * nu))


def occupation(v: np.ndarray, k: int) -> float:
    """Mean excitation number of mode k."""
    return (v[2 * k, 2 * k] + v[2 * k + 1, 2 * k + 1] - 2.0) / 4.0


def block_order(chain: dict) -> list:
    """Mode groups along which the drift is block lower-triangular.

    The source block is listed source first in both directions, so that
    the forward and backward source blocks of one (r, j) are equal.
    """
    m = chain["M"]
    if chain["direction"] == "forward":
        return [(0, 1)] + [(k,) for k in range(2, m + 1)]
    return [(k,) for k in range(1, m)] + [(0, m)]


@functools.lru_cache(maxsize=1024)
def _source_real_max(entries: tuple) -> float:
    """Largest real part of a 4x4 block's eigenvalues, in 40 digits."""
    with mpmath.workdps(40):
        rows = [list(entries[i : i + 4]) for i in range(0, 16, 4)]
        eigs = mpmath.eig(mpmath.matrix(rows), left=False, right=False)
        return float(max(mpmath.re(e) for e in eigs))


def _eig_real_max(block: np.ndarray) -> float:
    if block.shape == (2, 2):
        half_trace = (block[0, 0] + block[1, 1]) / 2.0
        disc = half_trace**2 - (block[0, 0] * block[1, 1] - block[0, 1] * block[1, 0])
        return float(half_trace + math.sqrt(disc)) if disc > 0 else float(half_trace)
    return _source_real_max(tuple(block.ravel().tolist()))


def abscissa(a: np.ndarray, chain: dict) -> float:
    """Spectral abscissa from the diagonal blocks of the permuted drift.

    Raises ValueError if a block above the diagonal is not exactly zero,
    since the classification rests on that structure.
    """
    groups = block_order(chain)
    order = [2 * k + q for group in groups for k in group for q in (0, 1)]
    p = a[np.ix_(order, order)]
    edges = np.cumsum([0] + [2 * len(group) for group in groups])
    for lo, hi in zip(edges[:-1], edges[1:]):
        if np.any(p[lo:hi, hi:]):
            raise ValueError("drift is not block lower-triangular")
    return max(_eig_real_max(p[lo:hi, lo:hi]) for lo, hi in zip(edges[:-1], edges[1:]))


def abscissa_tolerance(a: np.ndarray) -> float:
    """Accuracy a double eigenvalue allows: sqrt(eps) * ||A||_F."""
    return SQRT_EPS * float(np.linalg.norm(a))


def point_reference(chain: dict) -> dict:
    """Independent values for one operating point.

    Steady-state fields are present only for stable points.  ``en`` holds
    E_N(0, m) for m = 1..M (index m - 1).
    """
    a = drift(chain)
    ref = {"abscissa": abscissa(a, chain), "abscissa_tol": abscissa_tolerance(a)}
    ref["stable"] = ref["abscissa"] < -STABILITY_MARGIN
    if ref["stable"]:
        v = steady_state(a, noise(chain))
        ref["en"] = [log_negativity(v, 0, m) for m in range(1, chain["M"] + 1)]
        ref["occupation"] = [occupation(v, m) for m in range(chain["M"] + 1)]
    return ref


def m_max(en: list) -> int:
    """Deepest chain node entangled with the source (0 when none is)."""
    return max((m for m, value in enumerate(en, start=1) if value > EN_THRESHOLD), default=0)


def evolve_ladder(a: np.ndarray, n: np.ndarray, v0: np.ndarray, times, max_step: float = 1.0):
    """V(t) for each t of the ascending ``times``, from V(0) = ``v0``.

    Each interval between ladder times is cut into equal steps h <= max_step;
    one block exponential exp([[A, N], [0, -A^T]] h) = [[F, G], [0, *]] gives
    the propagator F and the noise increment Q = G F^T, and the recurrence
    V <- F V F^T + Q carries V across the interval.  ``v0`` may be a stack of
    initial states; the result stacks one more leading axis over ``times``.
    """
    dim = a.shape[0]
    generator = np.block([[a, n], [np.zeros_like(a), -a.T]])
    v = np.array(v0, dtype=float)
    out = []
    now = 0.0
    for t in times:
        steps = max(1, math.ceil((t - now) / max_step))
        block = scipy.linalg.expm(generator * ((t - now) / steps))
        f = block[:dim, :dim]
        q = block[:dim, dim:] @ f.T
        for _ in range(steps):
            v = f @ v @ f.T + q
        out.append(v.copy())
        now = t
    return np.stack(out)
