"""Steady states and time evolution of the covariance matrix.

The covariance matrix of a linear Gaussian network obeys

    dV/dt = A V + V A^T + N,

with drift A and diffusion N from :mod:`entflow.network`.

The steady state comes from one structured Bartels-Stewart solve.  The
strongly connected index groups of A's nonzero pattern, listed so that each
depends only on the groups after it, make A block upper-triangular.  For
the cascaded chain the groups are the single chain nodes and the 4x4 source
block (the source with the chain end it couples to), and a dense matrix is
a single group.  A damped-rotation 2x2 block (every chain node) is diagonal
in the mode basis (a, a^dag); any other block gets a small complex Schur
form.  Together they make A unitarily triangular, so the spectrum, and with
it stability, is read off the triangular diagonal and the Lyapunov equation
becomes one triangular Sylvester solve.  A generic Kronecker-vectorized
solver, (I (x) A + A (x) I) vec(V) = -vec(N), is kept as an independent
oracle.  Every returned matrix is checked against the residual contract
||A V + V A^T + N||_max <= 1e-8 * max(1, ||N||_max).

Time evolution needs neither a steady state nor an eigenbasis: one Van
Loan block exponential of [[A, N], [0, -A^T]] over a step short enough to
stay finite gives the propagator and the accumulated noise of that step,
and repeated doubling carries both to the requested time.  It holds for
any drift, stable or not, diagonalizable or not.  The dense
eigendecomposition ``spectral_decomposition`` is kept as a diagnostic
only; no solver calls it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    EigenFailureError,
    ResidualTooLargeError,
    SingularSystemError,
    UnstableError,
)

# |spectral abscissa| below this is reported Marginal rather than stable.
STABILITY_MARGIN = 1e-9
# Acceptance gates of the eigenbasis diagnostic (SpectralDecomposition).
CONDITION_LIMIT = 1e8
RECONSTRUCTION_RTOL = 1e-10
# Discarded imaginary parts must be below this, relative to the result.
IMAG_RESIDUE_RTOL = 1e-10
# Residual contract shared by both solvers.
RESIDUAL_RTOL = 1e-8
# (x, p)^T = MODE_BASIS (a, a^dag)^T; unitary.
MODE_BASIS = np.array([[1.0, 1.0], [-1.0j, 1.0j]]) / np.sqrt(2.0)


@dataclass(frozen=True)
class StabilityReport:
    """Stability classification of a drift matrix."""

    spectral_abscissa: float
    stable: bool
    marginal: bool
    margin_tolerance: float = STABILITY_MARGIN


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigendecomposition A = P diag(alpha) P^-1 with quality diagnostics.

    A diagnostic of how far the drift is from diagonalizable; no solver
    uses it.
    """

    eigenvalues: np.ndarray
    p: np.ndarray
    p_inv: np.ndarray
    condition_number: float
    reconstruction_error: float

    def accepted(
        self,
        condition_limit: float = CONDITION_LIMIT,
        reconstruction_rtol: float = RECONSTRUCTION_RTOL,
    ) -> bool:
        """Whether the eigenbasis is trustworthy for spectral formulas."""
        return (
            self.condition_number <= condition_limit
            and self.reconstruction_error <= reconstruction_rtol
        )


def _block_order(a: np.ndarray) -> tuple:
    """Permutation and block bounds that make ``a`` block upper-triangular.

    Indices i and k share a block when each is reachable from the other
    through the nonzero pattern of ``a`` (strongly connected components).
    Blocks are listed so that each depends only on blocks after it: a row's
    count of transitive dependencies strictly exceeds that of every block it
    depends on.  Returns (order, starts, stops): a[order][:, order] is block
    upper-triangular with diagonal blocks [starts[k], stops[k]).
    """
    dim = a.shape[0]
    # reach[i, k]: x_i is driven by x_k, directly or through other indices
    reach = (a != 0) | np.eye(dim, dtype=bool)
    while True:
        weights = reach.astype(np.float32)
        closed = (weights @ weights) > 0
        if np.array_equal(closed, reach):
            break
        reach = closed
    first = (reach & reach.T).argmax(axis=1)  # lowest index of i's block
    order = np.lexsort((first, -reach.sum(axis=1)))
    edges = np.flatnonzero(np.diff(first[order])) + 1
    return order, np.r_[0, edges], np.r_[edges, dim]


def _block_schur(a: np.ndarray) -> tuple:
    """Block triangular form of ``a`` with a complex Schur form per block.

    Returns (order, permuted, groups): permuted = a[order][:, order] is block
    upper-triangular, and each group (idx, t, z) stacks diagonal blocks with
    permuted[idx[k]][:, idx[k]] = z[k] t[k] z[k]^H, t[k] upper triangular
    and z[k] unitary.  The damped rotations [[alpha, beta], [-beta, alpha]]
    (every chain node) form one group: they are diagonal in the mode basis
    (a, a^dag), with the exact eigenvalues alpha -+ i beta.  Every other
    block is a group of its own, through scipy's complex Schur form.
    """
    if not np.isfinite(a).all():
        raise EigenFailureError("matrix has non-finite entries")
    order, starts, stops = _block_order(a)
    permuted = a[np.ix_(order, order)]
    pairs = starts[stops - starts == 2]
    alpha, beta = permuted[pairs, pairs], permuted[pairs, pairs + 1]
    rotating = (permuted[pairs + 1, pairs + 1] == alpha) & (
        permuted[pairs + 1, pairs] == -beta
    )
    groups = []
    if rotating.any():
        eigs = alpha[rotating] - 1j * beta[rotating]
        t = np.zeros((eigs.size, 2, 2), dtype=complex)
        t[:, 0, 0], t[:, 1, 1] = eigs, eigs.conj()
        idx = pairs[rotating, None] + np.arange(2)
        groups.append((idx, t, np.broadcast_to(MODE_BASIS, t.shape)))
    done = set(pairs[rotating].tolist())
    for lo, hi in zip(starts.tolist(), stops.tolist()):
        if lo in done:
            continue
        try:
            t, z = scipy.linalg.schur(permuted[lo:hi, lo:hi], output="complex")
        except np.linalg.LinAlgError as exc:
            raise EigenFailureError(f"Schur decomposition failed: {exc}") from exc
        groups.append((np.arange(lo, hi)[None], t[None], z[None]))
    return order, permuted, groups


def _abscissa(groups) -> float:
    return max(
        float(np.diagonal(t, axis1=1, axis2=2).real.max()) for _, t, _ in groups
    )


def _blockwise(factors, x: np.ndarray) -> np.ndarray:
    """Block-diagonal product: for each (idx, mats) of ``factors`` the rows
    idx[k] of the result are mats[k] @ x[idx[k]]."""
    out = np.empty(x.shape, dtype=complex)
    for idx, mats in factors:
        out[idx] = mats @ x[idx]
    return out


def spectral_abscissa(a: np.ndarray) -> float:
    """Largest real part of the eigenvalues of ``a``.

    Read off the diagonal blocks of the block-triangular form of ``a``:
    exactly for damped rotations, from a small complex Schur form
    otherwise.  A cascade's chain nodes, whose one-way couplings make one
    large defective cluster of the whole drift, never enter an eigensolver.
    """
    _, _, groups = _block_schur(np.asarray(a, dtype=float))
    return _abscissa(groups)


def stability_report(a: np.ndarray, margin: float = STABILITY_MARGIN) -> StabilityReport:
    """Classify ``a`` as stable, marginal, or unstable.

    Stable means the abscissa is below -margin; values within +-margin of
    zero are marginal (reported, never treated as stable).
    """
    abscissa = spectral_abscissa(a)
    marginal = abs(abscissa) < margin
    return StabilityReport(
        spectral_abscissa=abscissa,
        stable=(abscissa < -margin),
        marginal=marginal,
        margin_tolerance=margin,
    )


def spectral_decomposition(a: np.ndarray) -> SpectralDecomposition:
    """Dense eigendecomposition of ``a`` with acceptance diagnostics.

    A diagnostic that no solver calls: ``accepted()`` tells whether the
    eigenbasis would be trustworthy for spectral formulas.  Never raises on
    poor conditioning.
    """
    a = np.asarray(a, dtype=float)
    try:
        eigenvalues, p = np.linalg.eig(a)
        p_inv = np.linalg.inv(p)
        condition = float(np.linalg.cond(p))
    except np.linalg.LinAlgError as exc:
        raise EigenFailureError(f"eigendecomposition failed: {exc}") from exc
    scale = float(np.linalg.norm(a))
    if scale == 0.0:
        recon = 0.0
    else:
        recon = float(
            np.linalg.norm(a - (p * eigenvalues) @ p_inv) / scale
        )
    return SpectralDecomposition(
        eigenvalues=eigenvalues,
        p=p,
        p_inv=p_inv,
        condition_number=condition,
        reconstruction_error=recon,
    )


def _residual(a: np.ndarray, v: np.ndarray, noise: np.ndarray) -> float:
    return float(np.abs(a @ v + v @ a.T + noise).max())


def _check_residual(a: np.ndarray, v: np.ndarray, noise: np.ndarray, label: str) -> None:
    limit = RESIDUAL_RTOL * max(1.0, float(np.abs(noise).max()))
    res = _residual(a, v, noise)
    if res > limit:
        raise ResidualTooLargeError(
            f"{label} steady state violates the residual contract: "
            f"{res:.3e} > {limit:.3e}"
        )


def _discard_imaginary(v: np.ndarray, label: str) -> np.ndarray:
    real = v.real
    imag = float(np.abs(v.imag).max()) if np.iscomplexobj(v) else 0.0
    limit = IMAG_RESIDUE_RTOL * max(1.0, float(np.abs(real).max()))
    if imag > limit:
        raise ResidualTooLargeError(
            f"{label}: imaginary residue {imag:.3e} exceeds {limit:.3e}"
        )
    return np.array(real, dtype=float)


def solve_steady_state_vectorized(a: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """Steady state via the Kronecker-vectorized linear system.

    Solves (I (x) A + A (x) I) vec(V) = -vec(N) with a dense solve.  Slower
    than the spectral route (dimension squared unknowns) but indifferent to
    defective eigenstructure; it is also the oracle the spectral solver is
    validated against.

    The solve runs in the shifted variable D = V - I with right-hand side
    -(N + A + A^T), followed by one step of iterative refinement.  The
    shift costs nothing for generic inputs but is exact for networks whose
    steady state is the vacuum (the right-hand side vanishes identically),
    which keeps round-off from masquerading as entanglement in sweeps.
    """
    a = np.asarray(a, dtype=float)
    noise = np.asarray(noise, dtype=float)
    dim = a.shape[0]
    eye = np.eye(dim)
    system = np.kron(eye, a) + np.kron(a, eye)
    rhs = -(noise + a + a.T)
    try:
        with warnings.catch_warnings():
            # an exactly singular system surfaces as a zero-pivot warning
            # followed by non-finite output, turned into an error below
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            factors = scipy.linalg.lu_factor(system, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(
            f"vectorized steady-state system is singular: {exc}"
        ) from exc
    deviation = scipy.linalg.lu_solve(
        factors, rhs.flatten(order="F"), check_finite=False
    ).reshape((dim, dim), order="F")
    if not np.isfinite(deviation).all():
        raise SingularSystemError(
            "vectorized steady-state system is singular (non-finite solution)"
        )
    correction = rhs - (a @ deviation + deviation @ a.T)
    deviation += scipy.linalg.lu_solve(
        factors, correction.flatten(order="F"), check_finite=False
    ).reshape((dim, dim), order="F")
    if not np.isfinite(deviation).all():
        raise SingularSystemError(
            "vectorized steady-state system is singular (non-finite solution)"
        )
    v = eye + deviation
    v = (v + v.T) / 2.0
    _check_residual(a, v, noise, "vectorized")
    return v


def solve_steady_state_spectral(a: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """Steady state by one structured Bartels-Stewart solve.

    With P the block order of A and Q = blkdiag(zs) its per-block Schur
    bases, U = Q^H A[P][:, P] Q is upper triangular and its diagonal is the
    spectrum of A, so stability is decided on it.  In the shifted variable
    D = V - I, with right-hand side C = -(N + A + A^T), the equation
    A D + D A^T = C becomes U Y + Y U^T = Q^H C[P][:, P] conj(Q) for
    D[P][:, P] = Q Y Q^T: one triangular Sylvester solve (LAPACK ztrsyl).
    The shift is exact for networks whose steady state is the vacuum (C
    vanishes identically, so V = I bitwise), and since a block only ever
    sees the blocks it depends on, nodes upstream of the source come out
    bitwise independent of the source's parameters.  The result has its
    imaginary round-off discarded after a magnitude check and is
    symmetrized.

    Raises UnstableError when the spectral abscissa is >= 0 (no decaying
    fixed point), SingularSystemError when LAPACK reports a near-singular
    Sylvester operator, and ResidualTooLargeError when the computed matrix
    fails the residual contract.
    """
    a = np.asarray(a, dtype=float)
    noise = np.asarray(noise, dtype=float)
    order, permuted, groups = _block_schur(a)
    if _abscissa(groups) >= 0.0:
        raise UnstableError(
            "dynamics has no decaying steady state (spectral abscissa >= 0)"
        )
    q = [(idx, z) for idx, _, z in groups]
    q_t = [(idx, z.swapaxes(1, 2)) for idx, _, z in groups]
    q_h = [(idx, z.conj().swapaxes(1, 2)) for idx, _, z in groups]
    u = _blockwise(q_h, _blockwise(q_t, permuted.T).T)
    for idx, t, _ in groups:
        u[idx[:, :, None], idx[:, None, :]] = t
    rhs = -(noise + a + a.T)[np.ix_(order, order)]
    c = _blockwise(q_h, _blockwise(q_h, rhs.T).T)
    y, scale, info = scipy.linalg.lapack.ztrsyl(u, u.conj(), c, tranb="C")
    if info != 0:
        raise SingularSystemError(
            f"triangular Sylvester solve failed (LAPACK info {info})"
        )
    y /= scale
    inverse = np.argsort(order)
    deviation = _blockwise(q, _blockwise(q, y.T).T)[np.ix_(inverse, inverse)]
    v = np.eye(a.shape[0]) + _discard_imaginary(deviation, "structured")
    v = (v + v.T) / 2.0
    _check_residual(a, v, noise, "structured")
    return v


def evolve_covariance(
    a: np.ndarray, noise: np.ndarray, v0: np.ndarray, t: float
) -> np.ndarray:
    """Covariance matrix at time ``t`` starting from ``v0`` at t = 0.

    The solution is V(t) = F V0 F^T + Q(t) with propagator F = e^{At} and
    accumulated noise Q(t) = int_0^t e^{As} N e^{A^T s} ds.  Both come from
    one Van Loan (IEEE TAC 1978) block exponential on a bounded step
    h = t / 2^k, with k >= 0 the smallest integer such that h ||A||_1 <= 1:

        exp([[A, N], [0, -A^T]] h) = [[F(h), G], [0, F(h)^{-T}]],
        Q(h) = G F(h)^T,

    followed by k doublings Q(2h) = Q(h) + F(h) Q(h) F(h)^T,
    F(2h) = F(h)^2.  The bounded step keeps the growing e^{-A^T h} block
    finite at any t, and nothing is inverted or diagonalized, so stable,
    unstable, defective and nilpotent drifts, and chains of hundreds of
    nodes, all take this one path.  The result is symmetrized.

    Raises ValueError for a negative or non-finite ``t``.
    """
    if not 0.0 <= t < math.inf:
        raise ValueError(f"t must be finite and >= 0, got {t}")
    a = np.asarray(a, dtype=float)
    noise = np.asarray(noise, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    if t == 0:
        return v0.copy()

    dim = a.shape[0]
    t_norm = t * float(np.linalg.norm(a, 1))
    doublings = math.ceil(math.log2(t_norm)) if t_norm > 1.0 else 0
    h = math.ldexp(t, -doublings)
    generator = np.block([[a, noise], [np.zeros_like(a), -a.T]])
    block = scipy.linalg.expm(generator * h)
    f = block[:dim, :dim]
    q = block[:dim, dim:] @ f.T
    for _ in range(doublings):
        q = q + f @ q @ f.T
        f = f @ f
    v = f @ v0 @ f.T + q
    return (v + v.T) / 2.0
