"""Independent reference computations used to cross-check the library.

Every function here deliberately takes a different route from the code it
validates: the drift matrix is assembled for the mode operators (a, a+) and
rotated into quadratures afterwards, the diffusion matrix comes from the
input-coupling product form, Lyapunov equations go through scipy's
Bartels-Stewart solver or a plain unshifted Kronecker solve, entanglement
through the raw eigenvalues of the partially transposed state, time
evolution through a fixed-step Runge-Kutta integrator, and figure CSVs row
by row from PointResults, with their own column lists and cell formatting.
The one exception
is ``van_loan_evolve``: it repeats the library's own uncached Van Loan
recurrence, operation for operation, as the reference that the cached
evolution must match bitwise.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

from entflow import Direction, ValidatedNetwork

# (x, p)^T = U_MODE (a, a+)^T
U_MODE = np.array([[1.0, 1.0], [-1.0j, 1.0j]]) / np.sqrt(2.0)


def omega_form(n_modes: int) -> np.ndarray:
    """Symplectic form for interleaved (x, p) ordering, built by hand."""
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    for k in range(n_modes):
        omega[2 * k, 2 * k + 1] = 1.0
        omega[2 * k + 1, 2 * k] = -1.0
    return omega


def drift_oracle(net: ValidatedNetwork) -> np.ndarray:
    """Quadrature drift matrix derived from the (a, a+) Langevin generator.

    The generator is written mode by mode in the complex basis and rotated
    into quadratures at the end, so it shares no assembly code with the
    library's direct quadrature construction.
    """
    m = net.M
    n = m + 1
    gen = np.zeros((2 * n, 2 * n), dtype=complex)
    for k in range(n):
        links = 0
        if k >= 2:
            links += 1
        if 1 <= k <= m - 1:
            links += 1
        damp = net.gamma_out + links * net.gamma
        gen[2 * k, 2 * k] = -1.0j * net.omega[k] - damp / 2.0
        gen[2 * k + 1, 2 * k + 1] = 1.0j * net.omega[k] - damp / 2.0
    # squeezing on the source mode: da/dt = -r a+, da+/dt = -r a
    gen[0, 1] += -net.r
    gen[1, 0] += -net.r
    # one-way cascade: each chain node is driven by its predecessor
    for k in range(2, n):
        gen[2 * k, 2 * (k - 1)] += -net.gamma
        gen[2 * k + 1, 2 * (k - 1) + 1] += -net.gamma
    # beam-splitter coupling between the source and one chain end
    end = 1 if net.direction is Direction.FORWARD else m
    for ka, kb in ((0, end), (end, 0)):
        gen[2 * ka, 2 * kb] += -1.0j * net.j
        gen[2 * ka + 1, 2 * kb + 1] += 1.0j * net.j

    t = np.kron(np.eye(n), U_MODE)
    quad = t @ gen @ np.linalg.inv(t)
    assert np.abs(quad.imag).max() < 1e-12
    return quad.real


def input_matrix(net: ValidatedNetwork) -> np.ndarray:
    """Input coupling B of the baths, shape 2(M+1) x 4M.

    Columns are bath quadrature pairs: distinct baths 0..M first (weight
    sqrt(gamma_out) on their own node), then common baths (1,2)..(M-1,M)
    (weight sqrt(gamma) on both attached nodes).
    """
    m = net.M
    b = np.zeros((net.dim, 4 * m))
    w_out = math.sqrt(net.gamma_out)
    for k in range(m + 1):
        b[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = w_out * np.eye(2)
    w_common = math.sqrt(net.gamma)
    for l in range(1, m):
        col = 2 * (m + 1) + 2 * (l - 1)
        b[2 * l : 2 * l + 2, col : col + 2] = w_common * np.eye(2)
        b[2 * (l + 1) : 2 * (l + 1) + 2, col : col + 2] = w_common * np.eye(2)
    return b


def bath_occupations(net: ValidatedNetwork) -> np.ndarray:
    """Thermal occupation per column of ``input_matrix`` (each bath has two)."""
    return np.repeat(np.concatenate([net.nbar_local, net.nbar_common]), 2)


def noise_element_formula(b: np.ndarray, occupations: np.ndarray) -> np.ndarray:
    """Diffusion matrix from the symmetrized per-element sum over channels."""
    dim, n_noise = b.shape
    noise = np.zeros((dim, dim))
    for i in range(dim):
        for j in range(dim):
            total = 0.0
            for q in range(n_noise):
                total += (occupations[q] + 0.5) * (
                    b[i, q] * b[j, q] + b[j, q] * b[i, q]
                )
            noise[i, j] = total
    return noise


def drift_stack_per_node(net: ValidatedNetwork, r, j) -> np.ndarray:
    """``build_drift_stack`` assigned node by node, every entry by the same
    floating-point operations in the same order."""
    i2 = np.eye(2)
    sigma_z = np.array([[1.0, 0.0], [0.0, -1.0]])
    i_sigma_y = np.array([[0.0, 1.0], [-1.0, 0.0]])
    r = np.asarray(r, dtype=float)[:, None, None]
    j = np.asarray(j, dtype=float)[:, None, None]
    m = net.M
    a = np.zeros((r.shape[0], net.dim, net.dim))
    for k in range(m + 1):
        # the distinct bath, then one common bath per attached link: the
        # left link (k-1, k) for k >= 2, the right one for k <= M-1
        damping = net.gamma_out
        for _ in range((k >= 2) + (1 <= k <= m - 1)):
            damping += net.gamma
        block = -(damping / 2.0) * i2 + net.omega[k] * i_sigma_y
        if k == 0:
            block = block - r * sigma_z
        a[:, 2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = block
    for k in range(2, m + 1):
        a[:, 2 * k : 2 * k + 2, 2 * k - 2 : 2 * k] = -net.gamma * i2
    coupling = j * i_sigma_y
    end = 1 if net.direction is Direction.FORWARD else m
    a[:, 0:2, 2 * end : 2 * end + 2] += coupling
    a[:, 2 * end : 2 * end + 2, 0:2] += coupling
    return a


def noise_per_node(net: ValidatedNetwork) -> np.ndarray:
    """``build_noise_matrix`` assigned node by node and link by link, every
    entry by the same floating-point operations in the same order."""
    m = net.M
    n = np.zeros((net.dim, net.dim))
    for k in range(m + 1):
        total = net.gamma_out * (2.0 * net.nbar_local[k] + 1.0)
        # the common baths of the left link (k-1, k), then the right one
        for link in ([k - 2] if k >= 2 else []) + ([k - 1] if 1 <= k <= m - 1 else []):
            total += net.gamma * (2.0 * net.nbar_common[link] + 1.0)
        n[2 * k, 2 * k] = total
        n[2 * k + 1, 2 * k + 1] = total
    for l in range(1, m):
        weight = net.gamma * (2.0 * net.nbar_common[l - 1] + 1.0)
        for off in (0, 1):
            n[2 * l + off, 2 * (l + 1) + off] = weight
            n[2 * (l + 1) + off, 2 * l + off] = weight
    return n


def block_order_by_closure(a: np.ndarray) -> tuple:
    """(order, starts, stops) of ``lyapunov._block_order`` from the
    transitive closure of the nonzero pattern, by repeated Boolean squaring.

    reach[i, k] says x_i is driven by x_k, directly or through other
    indices; i and k share a block when each reaches the other.  Blocks are
    sorted by descending count of reached indices, then by their lowest
    index, and hold their indices in ascending order.
    """
    dim = a.shape[0]
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


def lyapunov_bartels_stewart(a: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """Steady state through scipy's Schur-based Lyapunov solver."""
    return scipy.linalg.solve_continuous_lyapunov(a, -noise)


def lyapunov_naive_kron(a: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """Plain unshifted Kronecker solve, no refinement, no symmetrization."""
    dim = a.shape[0]
    eye = np.eye(dim)
    system = np.kron(eye, a) + np.kron(a, eye)
    vec = np.linalg.solve(system, -noise.flatten(order="F"))
    return vec.reshape((dim, dim), order="F")


def ppt_nu_min_eigen(tm: np.ndarray) -> float:
    """Smallest PT symplectic eigenvalue via |eig(i Omega sigma_pt)|.

    Partial transposition flips the sign of the second mode's momentum.
    """
    sigma = np.asarray(tm, dtype=float) / 2.0
    flip = np.diag([1.0, 1.0, 1.0, -1.0])
    sigma_pt = flip @ sigma @ flip
    eigs = np.linalg.eigvals(1.0j * omega_form(2) @ sigma_pt)
    return float(np.abs(eigs).min())


def rk4_evolve(
    a: np.ndarray, noise: np.ndarray, v0: np.ndarray, t: float, steps: int = 4000
) -> np.ndarray:
    """Integrate dV/dt = A V + V A^T + N with classic fixed-step RK4."""

    def rhs(v):
        return a @ v + v @ a.T + noise

    v = np.array(v0, dtype=float)
    h = t / steps
    for _ in range(steps):
        k1 = rhs(v)
        k2 = rhs(v + 0.5 * h * k1)
        k3 = rhs(v + 0.5 * h * k2)
        k4 = rhs(v + h * k3)
        v = v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return v


def van_loan_evolve(
    a: np.ndarray, noise: np.ndarray, v0: np.ndarray, t: float
) -> np.ndarray:
    """V(t) by one Van Loan block exponential on h = t / 2^k and k
    doublings, recomputed from scratch on every call."""
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


def random_stable_system(rng, dim: int, margin: float = 0.5):
    """A random strictly stable drift matrix and a random PSD diffusion."""
    raw = rng.normal(size=(dim, dim))
    shift = float(np.linalg.eigvals(raw).real.max()) + margin
    a = raw - shift * np.eye(dim)
    w = rng.normal(size=(dim, dim))
    noise = w @ w.T + 0.1 * np.eye(dim)
    return a, noise


def random_symplectic(rng, n_modes: int, scale: float = 0.4) -> np.ndarray:
    """Random symplectic matrix exp(Omega H) with H symmetric."""
    h = rng.normal(size=(2 * n_modes, 2 * n_modes))
    h = scale * (h + h.T) / 2.0
    return scipy.linalg.expm(omega_form(n_modes) @ h)


def random_physical_two_mode(rng, max_nu: float = 3.0) -> np.ndarray:
    """Random physical two-mode covariance matrix (vacuum = identity).

    Built as a symplectic conjugation of a Williamson normal form with
    symplectic eigenvalues drawn from [1/2, max_nu], so physicality holds
    by construction.
    """
    nus = rng.uniform(0.5, max_nu, size=2)
    normal_form = np.diag([nus[0], nus[0], nus[1], nus[1]])
    s = random_symplectic(rng, 2)
    return 2.0 * (s @ normal_form @ s.T)


def rotation_block(theta: float) -> np.ndarray:
    """Single-mode phase-space rotation; symplectic and orthogonal."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, s], [-s, c]])


def abscissa_from_blocks(a: np.ndarray, net: ValidatedNetwork) -> float:
    """Spectral abscissa of a chain drift from its diagonal blocks.

    Ordered as (0, end), then the other chain nodes, the drift is block
    triangular: the 4x4 block of the source and the chain end it couples to
    goes through numpy's dense eigenvalues, and every other node's 2x2
    block is a damped rotation whose eigenvalues have its diagonal entry as
    real part.
    """
    end = 1 if net.direction is Direction.FORWARD else net.M
    source = [0, 1, 2 * end, 2 * end + 1]
    values = [float(np.linalg.eigvals(a[np.ix_(source, source)]).real.max())]
    values += [float(a[2 * k, 2 * k]) for k in range(1, net.M + 1) if k != end]
    return max(values)


def physical_by_eigenvalues(v: np.ndarray, atol: float = 1e-8) -> bool:
    """V >= 0 and every |eig(i Omega V/2)| >= 1/2, up to atol times the
    largest entry."""
    tol = atol * max(1.0, float(np.abs(v).max()))
    n_modes = v.shape[0] // 2
    nus = np.abs(np.linalg.eigvals(1.0j * omega_form(n_modes) @ v / 2.0))
    return bool(np.linalg.eigvalsh(v).min() >= -tol and nus.min() >= 0.5 - tol)


def log_negativity_by_eigenvalues(v: np.ndarray, k: int, m: int) -> float:
    """E_N between modes k and m from the partially transposed spectrum."""
    idx = [2 * k, 2 * k + 1, 2 * m, 2 * m + 1]
    return max(0.0, -float(np.log(2.0 * ppt_nu_min_eigen(v[np.ix_(idx, idx)]))))


def certificate_dense(a: np.ndarray, noise: np.ndarray, rtol: float = 1e-12) -> bool:
    """Q = N - i (A Omega + Omega A^T) >= 0 by a dense Cholesky factorization
    of Q + rtol ||Q||_max I."""
    omega = omega_form(a.shape[0] // 2)
    q = noise - 1j * (a @ omega + omega @ a.T)
    try:
        np.linalg.cholesky(q + rtol * np.abs(q).max() * np.eye(q.shape[0]))
    except np.linalg.LinAlgError:
        return False
    return True


# each figure's CSV header, and the directions it sweeps when none is asked
# for, in order
FIGURE_HEADERS = {
    "nonreciprocity": "r_over_omega,j_over_omega,direction,log_negativity",
    "depth": "r_over_omega,j_over_omega,m_max",
    "occupation": "r_over_omega,j_over_omega,nbar",
    "stability": "r_over_omega,j_over_omega,stable,physical,spectral_abscissa",
}
FIGURE_DIRECTIONS = {
    "nonreciprocity": (Direction.FORWARD, Direction.BACKWARD),
    "depth": (Direction.FORWARD,),
    "occupation": (Direction.FORWARD,),
    "stability": (Direction.FORWARD,),
}


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def figure_csv(name: str, points) -> bytes:
    """The CSV bytes of figure ``name`` over the PointResults ``points``, one
    row per point in the order given: floats with 17 significant digits,
    booleans as true/false, None as an empty cell, LF line endings."""
    lines = [FIGURE_HEADERS[name]]
    for p in points:
        if name == "nonreciprocity":
            pair = p.en_forward_pair if p.direction is Direction.FORWARD else p.en_backward_pair
            cells = [p.direction.value, pair]
        elif name == "depth":
            cells = [p.m_max]
        elif name == "occupation":
            cells = [p.nbar_at_mmax]
        else:
            cells = [p.stable, p.physical, p.spectral_abscissa]
        row = [p.r_over_omega, p.j_over_omega, *cells]
        lines.append(",".join(_csv_cell(value) for value in row))
    return ("\n".join(lines) + "\n").encode("utf-8")


def figure_csv_of_grids(name: str, grids) -> bytes:
    """``figure_csv`` of the SweepGrids ``grids`` (at most one per direction)
    over the directions figure ``name`` sweeps by default, in order."""
    by_direction = {grid.direction: grid for grid in grids}
    return figure_csv(
        name,
        [p for d in FIGURE_DIRECTIONS[name] for row in by_direction[d].results for p in row],
    )
