"""Steady states and time evolution of the covariance matrix.

The covariance matrix of a linear Gaussian network obeys

    dV/dt = A V + V A^T + N,

with drift A and diffusion N from :mod:`entflow.network`.

The steady state comes from one structured Bartels-Stewart solve.  The
strongly connected index groups of A's nonzero pattern, listed so that each
depends only on the groups after it, make A block upper-triangular.  For
the cascaded chain the groups are the single chain nodes and the 4x4 source
block (the source with the chain end it couples to), and a dense matrix is
a single group.  A damped-rotation 2x2 block (every chain node) already is
in real Schur canonical form, with exact eigenvalues; any other block gets a
small real Schur form.  Together they make A orthogonally quasi-triangular,
so the spectrum, and with it stability, is read off the diagonal and the
Lyapunov equation becomes one real triangular Sylvester solve.  The solver
takes a stack of drifts at once (``solve_steady_states``), which is how
parameter sweeps run; the single-matrix functions are its batch of one.
A generic Kronecker-vectorized
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
# Residual contract shared by both solvers.
RESIDUAL_RTOL = 1e-8


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


def _pattern_classes(a: np.ndarray) -> list:
    """Indices of the matrices of the stack ``a`` grouped by nonzero
    pattern, so every group shares one block order."""
    classes: dict = {}
    for b, key in enumerate(np.packbits(a != 0, axis=-1).reshape(a.shape[0], -1)):
        classes.setdefault(key.tobytes(), []).append(b)
    return [np.array(members) for members in classes.values()]


def _schur(block: np.ndarray) -> tuple:
    """Real Schur form (t, z) of one block, block = z t z^T (LAPACK dgees)."""
    t, _, _, _, z, _, info = scipy.linalg.lapack.dgees(
        _unsorted, block, lwork=max(1, 3 * block.shape[0])
    )
    if info != 0:
        raise EigenFailureError(f"Schur decomposition failed (LAPACK info {info})")
    return t, z


def _unsorted(*_eigenvalue) -> bool:
    """Selection callback that dgees requires even when it does not sort."""
    return False


def _block_schur(a: np.ndarray) -> tuple:
    """Real block Schur form of a stack ``a`` (B, n, n) whose matrices share
    one nonzero pattern.

    Returns (order, u, groups).  u[b] = Z_b^T a[b][order][:, order] Z_b is
    quasi upper triangular in Schur canonical form (1x1 blocks and 2x2
    blocks [[alpha, beta], [gamma, alpha]] with beta gamma < 0), so its
    diagonal holds the real parts of the eigenvalues.  Z_b is orthogonal and
    block diagonal over the blocks of the order.  It is the identity on
    1x1 blocks and on damped rotations [[alpha, beta], [-beta, alpha]]
    (every chain node), which already are canonical, with the exact
    eigenvalues alpha -+ i beta; every other block gets a real Schur form
    (LAPACK dgees).  Each group (lo, hi, z) is one block [lo, hi) that some matrix
    of the stack transforms, with Z_b[lo:hi, lo:hi] = z[b].
    """
    if not np.isfinite(a).all():
        raise EigenFailureError("matrix has non-finite entries")
    order, starts, stops = _block_order(a[0])
    u = a[:, order][:, :, order]
    groups = []
    for lo, hi in zip(starts.tolist(), stops.tolist()):
        block = u[:, lo:hi, lo:hi]
        if hi - lo == 1:
            continue
        canonical = np.zeros(a.shape[0], dtype=bool)
        if hi - lo == 2:
            canonical = (block[:, 1, 1] == block[:, 0, 0]) & (
                block[:, 1, 0] == -block[:, 0, 1]
            )
        if canonical.all():
            continue
        t = block.copy()
        z = np.zeros_like(t)
        z[:] = np.eye(hi - lo)
        for b in np.flatnonzero(~canonical).tolist():
            t[b], z[b] = _schur(block[b])
        groups.append((lo, hi, z))
        u = _congruence([groups[-1]], u)
        u[:, lo:hi, lo:hi] = t
    return order, u, groups


def _congruence(groups, x: np.ndarray, inverse: bool = False) -> np.ndarray:
    """Z^T x Z for each matrix of the stack ``x``, or Z x Z^T with
    ``inverse``, where Z is the block-diagonal orthogonal matrix of
    ``groups`` (identity outside them)."""
    x = x.copy()
    for lo, hi, z in groups:
        left = z if inverse else _transpose(z)
        x[:, lo:hi] = left @ x[:, lo:hi]
        x[:, :, lo:hi] = x[:, :, lo:hi] @ _transpose(left)
    return x


def _abscissa(u: np.ndarray) -> np.ndarray:
    """Spectral abscissa of every matrix of a stack in real Schur form."""
    return np.diagonal(u, axis1=1, axis2=2).max(axis=1)


def _transpose(x: np.ndarray) -> np.ndarray:
    return x.swapaxes(-1, -2)


def spectral_abscissa(a: np.ndarray) -> float:
    """Largest real part of the eigenvalues of ``a``.

    Read off the diagonal blocks of the block-triangular form of ``a``:
    exactly for damped rotations, from a small real Schur form otherwise.
    A cascade's chain nodes, whose one-way couplings make one large
    defective cluster of the whole drift, never enter an eigensolver.
    """
    _, u, _ = _block_schur(np.asarray(a, dtype=float)[None])
    return float(_abscissa(u)[0])


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


def _residual_errors(a: np.ndarray, v: np.ndarray, noise: np.ndarray, label: str) -> list:
    """For each matrix of the stacks, None or the ResidualTooLargeError of a
    steady state that violates the residual contract."""
    limits = RESIDUAL_RTOL * np.maximum(1.0, np.abs(noise).max(axis=(-2, -1)))
    res = np.abs(a @ v + v @ _transpose(a) + noise).max(axis=(-2, -1))
    return [
        None
        if r <= limit
        else ResidualTooLargeError(
            f"{label} steady state violates the residual contract: "
            f"{r:.3e} > {limit:.3e}"
        )
        for r, limit in zip(res.tolist(), np.broadcast_to(limits, res.shape).tolist())
    ]


def _check_residual(a: np.ndarray, v: np.ndarray, noise: np.ndarray, label: str) -> None:
    error = _residual_errors(a[None], v[None], noise[None], label)[0]
    if error is not None:
        raise error


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

    With P the block order of A and Z = blkdiag(zs) its per-block real Schur
    bases, U = Z^T A[P][:, P] Z is quasi upper triangular and its diagonal
    holds the real parts of the spectrum of A, so stability is decided on
    it.  In the shifted variable D = V - I, with right-hand side
    C = -(N + A + A^T), the equation A D + D A^T = C becomes
    U Y + Y U^T = Z^T C[P][:, P] Z for D[P][:, P] = Z Y Z^T: one real
    triangular Sylvester solve (LAPACK dtrsyl).  The shift is exact for
    networks whose steady state is the vacuum (C vanishes identically, so
    V = I bitwise), and since a block only ever sees the blocks it depends
    on, nodes upstream of the source come out bitwise independent of the
    source's parameters.  The result is symmetrized.  This is
    ``solve_steady_states`` on a stack of one.

    Raises UnstableError when the spectral abscissa is >= 0 (no decaying
    fixed point), SingularSystemError when LAPACK reports a near-singular
    Sylvester operator, and ResidualTooLargeError when the computed matrix
    fails the residual contract.
    """
    _, states, errors = solve_steady_states(np.asarray(a, dtype=float)[None], noise)
    if errors[0] is not None:
        raise errors[0]
    return states[0]


def solve_steady_states(a: np.ndarray, noise: np.ndarray, cutoff: float = 0.0) -> tuple:
    """Structured steady states of a stack of drifts ``a`` (B, n, n) under
    one diffusion ``noise`` (n, n) or one per drift (B, n, n).

    The drifts are grouped by nonzero pattern and each group's block form
    (see ``solve_steady_state_spectral``) is built once.  It gives every
    drift's spectral abscissa, and the drifts whose abscissa is below
    ``cutoff`` (at most 0) go on to the triangular Sylvester solve, one
    dtrsyl call each; every other step acts on the whole stack at once.
    Each drift's result depends on that drift alone, never on the rest of
    the stack.

    Returns (abscissa, states, errors): abscissa has shape (B,); errors[b]
    is None or the error ``solve_steady_state_spectral`` raises for drift b
    (UnstableError when its abscissa is not below ``cutoff``); states[b] is
    its steady state where errors[b] is None and undefined otherwise.
    """
    a = np.asarray(a, dtype=float)
    noise = np.broadcast_to(np.asarray(noise, dtype=float), a.shape)
    abscissa = np.empty(a.shape[0])
    states = np.zeros(a.shape)
    errors = [None] * a.shape[0]
    for members in _pattern_classes(a):
        order, u, groups = _block_schur(a[members])
        abscissa[members] = _abscissa(u)
        live = abscissa[members] < cutoff
        for b in members[~live].tolist():
            errors[b] = UnstableError(
                "dynamics has no decaying steady state "
                f"(spectral abscissa {abscissa[b]:.3e} >= {cutoff:.3g})"
            )
        if live.any():
            solved = members[live]
            states[solved], failures = _sylvester(
                a[solved],
                noise[solved],
                order,
                u[live],
                [(lo, hi, z[live]) for lo, hi, z in groups],
            )
            for b, error in zip(solved.tolist(), failures):
                errors[b] = error
    return abscissa, states, errors


def _sylvester(a, noise, order, u, groups) -> tuple:
    """Steady states of a stack of stable drifts from their shared block
    form; returns (states, errors) with errors[b] None or an EntflowError."""
    rhs = -(noise + a + _transpose(a))[:, order][:, :, order]
    c = _congruence(groups, rhs)
    errors = [None] * a.shape[0]
    y = np.zeros_like(c)
    for b in range(a.shape[0]):
        y_b, scale, info = scipy.linalg.lapack.dtrsyl(u[b], u[b], c[b], tranb="T")
        if info != 0:
            errors[b] = SingularSystemError(
                f"triangular Sylvester solve failed (LAPACK info {info})"
            )
        else:
            y[b] = y_b / scale
    inverse = np.argsort(order)
    deviation = _congruence(groups, y, inverse=True)[:, inverse][:, :, inverse]
    v = np.eye(a.shape[-1]) + deviation
    v = (v + _transpose(v)) / 2.0
    residual = _residual_errors(a, v, noise, "structured")
    return v, [error or late for error, late in zip(errors, residual)]


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
