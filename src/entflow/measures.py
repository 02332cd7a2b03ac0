"""Gaussian-state measures: reductions, entanglement, physicality, occupation.

All functions take covariance matrices in the vacuum-equals-identity
convention of :mod:`entflow.network`.  Separability and physicality
thresholds are stated in the literature for half that normalization, so the
measures divide by two internally (sigma = V/2) and the usual 1/2 thresholds
apply verbatim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.constants

from .errors import (
    ComplexEigenvalueError,
    EigenFailureError,
    EntflowError,
    NonpositiveOccupationError,
)

# PT-spectrum discriminants may go slightly negative through round-off on
# borderline-physical inputs; anything below this relative floor is an error.
_DISCRIMINANT_RTOL = 1e-12


@dataclass(frozen=True)
class TwoModeCovariance:
    """Reduced two-mode covariance matrix, kept as named 2x2 blocks."""

    block_k: np.ndarray
    block_m: np.ndarray
    corr: np.ndarray

    @property
    def matrix(self) -> np.ndarray:
        """Assemble the 4x4 matrix (first mode block top-left)."""
        return np.block([[self.block_k, self.corr], [self.corr.T, self.block_m]])


@dataclass(frozen=True)
class EntanglementRecord:
    """Smallest PT symplectic eigenvalue and the derived entanglement."""

    nu_minus: float
    log_negativity: float
    separable: bool


@dataclass(frozen=True)
class PhysicalityReport:
    """Outcome of the two-part physicality test."""

    physical: bool
    min_eigenvalue: float
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


def reduce_single_mode(v: np.ndarray, k: int) -> np.ndarray:
    """The 2x2 covariance block of mode k."""
    v = np.asarray(v, dtype=float)
    _check_mode_index(v, k)
    return v[2 * k : 2 * k + 2, 2 * k : 2 * k + 2].copy()


def reduce_two_mode(v: np.ndarray, k: int, m: int) -> TwoModeCovariance:
    """The reduced state of modes (k, m), k listed first.

    Swapping k and m transposes the correlation block and leaves every
    entanglement measure unchanged.
    """
    v = np.asarray(v, dtype=float)
    if k == m:
        raise ValueError(f"need two distinct modes, got k = m = {k}")
    _check_mode_index(v, k)
    _check_mode_index(v, m)
    return TwoModeCovariance(
        block_k=v[2 * k : 2 * k + 2, 2 * k : 2 * k + 2].copy(),
        block_m=v[2 * m : 2 * m + 2, 2 * m : 2 * m + 2].copy(),
        corr=v[2 * k : 2 * k + 2, 2 * m : 2 * m + 2].copy(),
    )


def _two_mode_matrix(tm) -> np.ndarray:
    if isinstance(tm, TwoModeCovariance):
        return tm.matrix
    arr = np.asarray(tm, dtype=float)
    if arr.shape != (4, 4):
        raise ValueError(f"expected a 4x4 two-mode covariance, got {arr.shape}")
    return arr


def _pt_spectrum(sigma: np.ndarray) -> tuple:
    """Smallest partially transposed symplectic eigenvalue of a stack of
    two-mode states ``sigma`` (..., 4, 4), normalized as V/2, with the two
    discriminants that must not go negative and their round-off floor.

    Returns (nu, inner, nu_sq, floor), each of the stack's shape.
    """
    det_k = np.linalg.det(sigma[..., 0:2, 0:2])
    det_m = np.linalg.det(sigma[..., 2:4, 2:4])
    det_c = np.linalg.det(sigma[..., 0:2, 2:4])
    det_s = np.linalg.det(sigma)
    delta = det_k + det_m - 2.0 * det_c
    inner = delta * delta - 4.0 * det_s
    floor = -_DISCRIMINANT_RTOL * np.maximum(1.0, delta * delta)
    nu_sq = (delta - np.sqrt(np.maximum(inner, 0.0))) / 2.0
    return np.sqrt(np.maximum(nu_sq, 0.0)), inner, nu_sq, floor


def _log_negativity(nu):
    with np.errstate(divide="ignore"):
        value = -np.log(2.0 * nu)
    return np.where(value > 0.0, value, 0.0)  # +0.0 for separable states, never -0.0


def ppt_symplectic_min(tm) -> float:
    """Smallest symplectic eigenvalue of the partially transposed two-mode
    state; the state is separable iff this is >= 1/2.

    Accepts a TwoModeCovariance or a plain 4x4 matrix.  Computed from the
    symplectic invariants of sigma = tm/2:

        nu_minus^2 = (delta - sqrt(delta^2 - 4 det sigma)) / 2,
        delta = det sigma_k + det sigma_m - 2 det sigma_corr.

    Raises ComplexEigenvalueError when a discriminant is negative beyond
    round-off, which happens exactly when the input is not a physical state.
    """
    nu, inner, nu_sq, floor = _pt_spectrum(_two_mode_matrix(tm) / 2.0)
    if inner < floor:
        raise ComplexEigenvalueError(
            f"partially transposed spectrum is complex (discriminant {inner:.3e}); "
            "the input is not a physical two-mode covariance matrix"
        )
    if nu_sq < floor:
        raise ComplexEigenvalueError(
            f"partially transposed spectrum is imaginary (nu^2 = {nu_sq:.3e}); "
            "the input is not a physical two-mode covariance matrix"
        )
    return float(nu)


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

    The closed form of ``log_negativity`` on all pairs at once.  A pair
    whose partially transposed spectrum is complex comes back NaN;
    ``log_negativity`` raises ComplexEigenvalueError on that pair.
    """
    v = np.asarray(v, dtype=float)
    for m in (k, *nodes):
        _check_mode_index(v, m)
    modes = np.array([[2 * k, 2 * k + 1, 2 * m, 2 * m + 1] for m in nodes])
    sigma = v[:, modes[:, :, None], modes[:, None, :]] / 2.0
    nu, inner, nu_sq, floor = _pt_spectrum(sigma)
    en = _log_negativity(nu)
    en[(inner < floor) | (nu_sq < floor)] = np.nan
    return en


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


def check_physical(v: np.ndarray, atol: float = 1e-8) -> PhysicalityReport:
    """Two-part physicality test of a covariance matrix.

    Physical means V is positive semidefinite and every symplectic
    eigenvalue of V/2 is >= 1/2, both up to ``atol`` scaled by the matrix
    magnitude.
    """
    v = np.asarray(v, dtype=float)
    sym = (v + v.T) / 2.0
    min_eig = float(np.linalg.eigvalsh(sym).min())
    min_nu = float(symplectic_eigenvalues(sym).min())
    tol = atol * max(1.0, float(np.abs(sym).max()))
    return PhysicalityReport(
        physical=(min_eig >= -tol and min_nu >= 0.5 - tol),
        min_eigenvalue=min_eig,
        min_symplectic=min_nu,
    )


def physicality(v: np.ndarray, atol: float = 1e-8) -> tuple:
    """``check_physical(v[b], atol).physical`` for every covariance matrix of
    the stack ``v`` (B, n, n), as (flags, errors).

    Where sigma = V/2 has a Cholesky factor L (sigma = L L^T, so V is
    positive definite), the symplectic eigenvalues are the moduli of the
    eigenvalues of the Hermitian form L^T (i Omega) L, similar to
    i Omega sigma; they come from one batched eigvalsh.  Every other matrix
    goes through ``check_physical``; errors[b] holds what it raised, and is
    None otherwise.
    """
    v = np.asarray(v, dtype=float)
    sym = (v + v.swapaxes(-1, -2)) / 2.0
    tol = atol * np.maximum(1.0, np.abs(sym).max(axis=(1, 2)))
    try:
        chol = np.linalg.cholesky(sym / 2.0)
        factored = np.ones(v.shape[0], dtype=bool)
    except np.linalg.LinAlgError:
        chol = np.zeros_like(sym)
        factored = np.zeros(v.shape[0], dtype=bool)
        for b in range(v.shape[0]):
            try:
                chol[b] = np.linalg.cholesky(sym[b] / 2.0)
                factored[b] = True
            except np.linalg.LinAlgError:
                pass
    omega_chol = np.empty_like(chol)  # Omega L
    omega_chol[:, 0::2] = chol[:, 1::2]
    omega_chol[:, 1::2] = -chol[:, 0::2]
    form = 1j * (chol.swapaxes(-1, -2) @ omega_chol)
    flags = np.zeros(v.shape[0], dtype=bool)
    errors = [None] * v.shape[0]
    if factored.any():
        nu = np.abs(np.linalg.eigvalsh(form[factored])).min(axis=1)
        flags[factored] = nu >= 0.5 - tol[factored]
    for b in np.flatnonzero(~factored).tolist():
        try:
            flags[b] = check_physical(v[b], atol).physical
        except EntflowError as exc:
            errors[b] = exc
    return flags, errors


def mean_occupation(v: np.ndarray, k: int) -> float:
    """Mean excitation number of mode k: (Tr V^(k) - 2)/4.

    A thermal block (2 nbar + 1) I2 returns nbar; the vacuum returns 0.
    """
    block = reduce_single_mode(v, k)
    return (float(np.trace(block)) - 2.0) / 4.0


def effective_temperature(nbar: float, omega_phys: float) -> float:
    """Temperature (kelvin) of a thermal state with occupation ``nbar`` at
    physical angular frequency ``omega_phys`` (rad/s):

        T = hbar omega / (k_B ln(1 + 1/nbar)).
    """
    if nbar <= 0:
        raise NonpositiveOccupationError(
            f"effective temperature requires nbar > 0, got {nbar}"
        )
    if omega_phys <= 0:
        raise ValueError(f"omega_phys must be > 0, got {omega_phys}")
    return scipy.constants.hbar * omega_phys / (
        scipy.constants.k * math.log1p(1.0 / nbar)
    )


def vacuum_covariance(n_modes: int) -> np.ndarray:
    """Vacuum covariance matrix (the identity)."""
    return np.eye(2 * n_modes)


def thermal_covariance(nbar: float) -> np.ndarray:
    """Single-mode thermal covariance matrix (2 nbar + 1) I2."""
    return (2.0 * nbar + 1.0) * np.eye(2)


def two_mode_squeezed_covariance(s: float) -> np.ndarray:
    """Two-mode squeezed vacuum with squeezing parameter ``s``.

    Closed forms: nu_minus = exp(-2s)/2 and E_N = 2s, handy as exact test
    fixtures.
    """
    c = math.cosh(2.0 * s) * np.eye(2)
    z = math.sinh(2.0 * s) * np.array([[1.0, 0.0], [0.0, -1.0]])
    return np.block([[c, z], [z, c]])
