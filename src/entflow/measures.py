"""Gaussian-state measures: two-mode reduction, entanglement, physicality,
occupation.

All functions take covariance matrices in the vacuum-equals-identity
convention of :mod:`entflow.network` (a thermal mode is (2 nbar + 1) I2),
and raise IndexError for a mode index out of range.  Separability and
physicality thresholds are stated in the literature for half that
normalization, so the measures divide by two internally (sigma = V/2) and
the usual 1/2 thresholds apply verbatim.

Entanglement reads symplectic spectra off one construction: the Cholesky
factor sigma = L L^T and the antisymmetric form L^T Omega L, whose singular
values are the symplectic eigenvalues of sigma.

Physicality of steady states is decided without any steady state:
``certify_physicality`` proves it for every stable point of a drift and
diffusion at once, from one Hermitian matrix of the generator.  It holds for
every valid network with dissipation, and sweeps report it as is;
``check_physical`` tests one computed matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.constants
import scipy.linalg

from .errors import (
    ComplexEigenvalueError,
    EigenFailureError,
    NonpositiveOccupationError,
)

# Relative round-off tolerance of certify_physicality (see there).
CERTIFICATE_RTOL = 1e-12
# Tolerance of check_physical, relative to the matrix magnitude.
PHYSICAL_ATOL = 1e-8


@dataclass(frozen=True)
class EntanglementRecord:
    """Smallest PT symplectic eigenvalue and the derived entanglement."""

    nu_minus: float
    log_negativity: float
    separable: bool


@dataclass(frozen=True)
class PhysicalityReport:
    """Outcome of the two-part physicality test, with the smallest
    symplectic eigenvalue of V/2."""

    physical: bool
    min_symplectic: float


def symplectic_form(n_modes: int) -> np.ndarray:
    """Block-diagonal symplectic form for interleaved (x, p) ordering."""
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    for k in range(n_modes):
        omega[2 * k, 2 * k + 1] = 1.0
        omega[2 * k + 1, 2 * k] = -1.0
    return omega


def _check_mode_index(v: np.ndarray, k: int) -> None:
    n_modes = v.shape[-1] // 2
    if not 0 <= k < n_modes:
        raise IndexError(f"mode index {k} out of range for {n_modes} modes")


def reduce_two_mode(v: np.ndarray, k: int, m: int) -> np.ndarray:
    """The 4x4 covariance matrix of modes (k, m), mode k's block top-left.

    Swapping k and m swaps the two modes' blocks and leaves every
    entanglement measure unchanged.
    """
    v = np.asarray(v, dtype=float)
    if k == m:
        raise ValueError(f"need two distinct modes, got k = m = {k}")
    _check_mode_index(v, k)
    _check_mode_index(v, m)
    modes = [2 * k, 2 * k + 1, 2 * m, 2 * m + 1]
    return v[np.ix_(modes, modes)]


def _two_mode_matrix(tm) -> np.ndarray:
    arr = np.asarray(tm, dtype=float)
    if arr.shape != (4, 4):
        raise ValueError(f"expected a 4x4 two-mode covariance, got {arr.shape}")
    return arr


def _williamson_forms(sigma: np.ndarray) -> tuple:
    """The antisymmetric form K = L^T Omega L of each positive definite
    matrix of the stack ``sigma`` (..., n, n), sigma = L L^T its Cholesky
    factor, as (K, factored); factored flags the matrices that have one.

    i K is Hermitian and similar to i Omega sigma, so the symplectic
    eigenvalues of sigma are the singular values of K.  Where sigma does not
    factor, K is zero.
    """
    try:
        chol = np.linalg.cholesky(sigma)
        factored = np.ones(sigma.shape[:-2], dtype=bool)
    except np.linalg.LinAlgError:
        chol = np.zeros_like(sigma)
        factored = np.zeros(sigma.shape[:-2], dtype=bool)
        for index in np.ndindex(*sigma.shape[:-2]):
            try:
                chol[index] = np.linalg.cholesky(sigma[index])
                factored[index] = True
            except np.linalg.LinAlgError:
                pass
    omega_chol = np.empty_like(chol)  # Omega L
    omega_chol[..., 0::2, :] = chol[..., 1::2, :]
    omega_chol[..., 1::2, :] = -chol[..., 0::2, :]
    return chol.swapaxes(-1, -2) @ omega_chol, factored


def _pt_nu_minus(sigma: np.ndarray) -> np.ndarray:
    """Smallest partially transposed symplectic eigenvalue of each two-mode
    state of the stack ``sigma`` (..., 4, 4), normalized as V/2; NaN where
    sigma is not positive definite.

    The transpose flips the second mode's momentum, sigma~ = P sigma P.  The
    4x4 form K of sigma~ splits into self-dual and anti-self-dual parts of
    norms x and y, and its singular values are x + y and |x - y|.
    """
    flip = np.array([1.0, 1.0, 1.0, -1.0])
    forms, factored = _williamson_forms(sigma * flip[:, None] * flip)
    a, b, c = forms[..., 0, 1], forms[..., 0, 2], forms[..., 0, 3]
    d, e, f = forms[..., 1, 2], forms[..., 1, 3], forms[..., 2, 3]
    x = np.sqrt((a + f) ** 2 + (b - e) ** 2 + (c + d) ** 2) / 2.0
    y = np.sqrt((a - f) ** 2 + (b + e) ** 2 + (c - d) ** 2) / 2.0
    return np.where(factored, np.abs(x - y), np.nan)


def _log_negativity(nu):
    with np.errstate(divide="ignore"):
        value = -np.log(2.0 * nu)
    # +0.0 for separable states, never -0.0; NaN (no Cholesky factor) stays
    return np.where(value <= 0.0, 0.0, value)


def ppt_symplectic_min(tm) -> float:
    """Smallest symplectic eigenvalue of the partially transposed two-mode
    state; the state is separable iff this is >= 1/2.

    Takes a 4x4 two-mode covariance matrix, such as ``reduce_two_mode``
    returns.  The partially transposed state sigma~ of sigma = tm/2 is
    factored as L L^T, and the value is the smaller singular value of
    L^T Omega L, in closed form.

    Raises ComplexEigenvalueError when sigma~ has no Cholesky factor: it is
    positive definite exactly when sigma is, which every physical state is.
    """
    nu = float(_pt_nu_minus(_two_mode_matrix(tm) / 2.0))
    if math.isnan(nu):
        raise _indefinite_pair()
    return nu


def _indefinite_pair() -> ComplexEigenvalueError:
    """The error of a two-mode state whose partial transpose is not
    positive definite (a NaN of ``pair_log_negativities``)."""
    return ComplexEigenvalueError(
        "partially transposed state is not positive definite; "
        "the input is not a physical two-mode covariance matrix"
    )


def log_negativity(tm) -> EntanglementRecord:
    """Logarithmic negativity E_N = max(0, -ln(2 nu_minus)) of a two-mode state."""
    nu = ppt_symplectic_min(tm)
    return EntanglementRecord(
        nu_minus=nu,
        log_negativity=float(_log_negativity(nu)),
        separable=(nu >= 0.5),
    )


def pair_log_negativities(v: np.ndarray, k: int, nodes) -> np.ndarray:
    """E_N between mode k and each mode of ``nodes``, for every covariance
    matrix of the stack ``v`` (B, n, n); shape (B, len(nodes)).

    ``log_negativity`` on all pairs at once.  A pair that is not positive
    definite comes back NaN; ``log_negativity`` raises
    ComplexEigenvalueError on that pair.
    """
    v = np.asarray(v, dtype=float)
    for m in (k, *nodes):
        _check_mode_index(v, m)
    # (0, 4) for no nodes, so that the result is (B, 0)
    modes = np.array([[2 * k, 2 * k + 1, 2 * m, 2 * m + 1] for m in nodes], dtype=int)
    modes = modes.reshape(-1, 4)
    sigma = v[:, modes[:, :, None], modes[:, None, :]] / 2.0
    return _log_negativity(_pt_nu_minus(sigma))


def symplectic_eigenvalues(v: np.ndarray) -> np.ndarray:
    """Symplectic spectrum of sigma = V/2, ascending, one value per mode.

    The eigenvalues of i Omega sigma come in +-nu pairs; the pairs are
    averaged, so a physical state returns values >= 1/2 (vacuum: exactly 1/2
    per mode).
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 2 or v.shape[0] != v.shape[1] or v.shape[0] % 2:
        raise ValueError(f"covariance matrix must be square even-dimensional, got {v.shape}")
    n_modes = v.shape[0] // 2
    sigma = (v + v.T) / 4.0
    try:
        spectrum = np.linalg.eigvals(1j * symplectic_form(n_modes) @ sigma)
    except np.linalg.LinAlgError as exc:
        raise EigenFailureError(f"symplectic spectrum failed: {exc}") from exc
    moduli = np.sort(np.abs(spectrum))
    return moduli.reshape(n_modes, 2).mean(axis=1)


def check_physical(v: np.ndarray) -> PhysicalityReport:
    """Two-part physicality test of a covariance matrix.

    Physical means V is positive semidefinite and every symplectic
    eigenvalue of V/2 is >= 1/2, both up to PHYSICAL_ATOL = 1e-8 scaled by
    the matrix magnitude.
    """
    v = np.asarray(v, dtype=float)
    sym = (v + v.T) / 2.0
    min_eig = float(np.linalg.eigvalsh(sym).min())
    min_nu = float(symplectic_eigenvalues(sym).min())
    tol = PHYSICAL_ATOL * max(1.0, float(np.abs(sym).max()))
    return PhysicalityReport(
        physical=(min_eig >= -tol and min_nu >= 0.5 - tol),
        min_symplectic=min_nu,
    )


def certify_physicality(a: np.ndarray, noise: np.ndarray) -> bool:
    """Whether the steady state of drift ``a`` and diffusion ``noise`` is
    physical whenever ``a`` is stable: decides Q >= 0 for the Hermitian

        Q = N - i (A Omega + Omega A^T).

    W = V + i Omega solves A W + W A^T + Q = 0 when V solves the Lyapunov
    equation, so for stable A, W = int_0^inf e^{As} Q e^{A^T s} ds is
    positive semidefinite if Q is, and V + i Omega >= 0 is the uncertainty
    relation (Serafini, Quantum Continuous Variables, ch. 5; Heinosaari,
    Holevo & Wolf, QIC 10, 619 (2010)).  Hamiltonian parts of A drop out of
    A Omega + Omega A^T, so in a chain Q does not depend on the squeezing r
    or the source coupling j: one certificate covers a whole (r, j) sweep.
    Every bath adds rate P (x) ((2 nbar + 1) I2 + i Omega2) with P >= 0, so
    Q of any valid network is positive semidefinite.

    The test is a Cholesky factorization of Q + tau ||Q||_max I with
    tau = CERTIFICATE_RTOL = 1e-12.  That shift absorbs the round-off of
    assembling Q and of factoring it: on the cold default chain the exact Q
    is singular and its computed smallest eigenvalue is -9.1e-16 at
    ||Q||_max = 1.6 (M = 10), -4.3e-15 at M = 200, and the factorization's
    own backward error is of order n eps ||Q||, below 1e-12 ||Q|| for
    n < 4000.  A bath below the vacuum moves the smallest eigenvalue by a
    finite fraction of its rate and fails: half the diffusion of the
    default chain gives -1.56 at ||Q||_max = 1.6.  A zero Q (no dissipation,
    so no stable drift) is not certified.

    The factorization is banded (LAPACK zpbtrf), with the bandwidth read off
    Q's nonzero pattern: baths and cascade links couple only neighbouring
    nodes, so a chain's Q has bandwidth 3 in quadrature order and the
    factorization costs O(M), next to a few elementwise passes over the
    dense inputs; a dense Q is the full bandwidth.
    """
    a = np.asarray(a, dtype=float)
    noise = np.asarray(noise, dtype=float)
    a_omega = np.empty_like(a)  # A Omega
    a_omega[:, 1::2] = a[:, 0::2]
    a_omega[:, 0::2] = -a[:, 1::2]
    s = a_omega - a_omega.T  # Q = N - i S
    rows, columns = np.nonzero((noise != 0) | (s != 0))
    width = int(np.max(columns - rows, initial=0))
    # upper band storage: band[width + i - k, k] = Q[i, k] for 0 <= k - i <= width
    band = np.zeros((width + 1, a.shape[0]), dtype=complex)
    for offset in range(width + 1):
        band[width - offset, offset:] = (
            np.diagonal(noise, offset) - 1j * np.diagonal(s, offset)
        )
    band[width] += CERTIFICATE_RTOL * float(np.abs(band).max())
    try:
        scipy.linalg.cholesky_banded(band, check_finite=False)
    except np.linalg.LinAlgError:
        return False
    return True


def mean_occupation(v: np.ndarray, k: int) -> float:
    """Mean excitation number of mode k: (Tr V^(k) - 2)/4.

    A thermal block (2 nbar + 1) I2 returns nbar; the vacuum returns 0.
    Raises IndexError when mode k does not exist.
    """
    v = np.asarray(v, dtype=float)
    _check_mode_index(v, k)
    return (float(v[2 * k, 2 * k] + v[2 * k + 1, 2 * k + 1]) - 2.0) / 4.0


def effective_temperature(nbar: float, omega_phys: float) -> float:
    """Temperature (kelvin) of a thermal state with occupation ``nbar`` at
    physical angular frequency ``omega_phys`` (rad/s):

        T = hbar omega / (k_B ln(1 + 1/nbar)).
    """
    # written so that NaN fails each test
    if not nbar > 0:
        raise NonpositiveOccupationError(
            f"effective temperature requires nbar > 0, got {nbar}"
        )
    if not nbar < math.inf:
        raise ValueError(f"effective temperature requires a finite nbar, got {nbar}")
    if not 0 < omega_phys < math.inf:
        raise ValueError(f"omega_phys must be finite and > 0, got {omega_phys}")
    return scipy.constants.hbar * omega_phys / (
        scipy.constants.k * math.log1p(1.0 / nbar)
    )


def two_mode_squeezed_covariance(s: float) -> np.ndarray:
    """Two-mode squeezed vacuum with squeezing parameter ``s``.

    Closed forms: nu_minus = exp(-2s)/2 and E_N = 2s, handy as exact test
    fixtures.
    """
    c = math.cosh(2.0 * s) * np.eye(2)
    z = math.sinh(2.0 * s) * np.array([[1.0, 0.0], [0.0, -1.0]])
    return np.block([[c, z], [z, c]])
