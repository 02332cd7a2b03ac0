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
Lyapunov equation becomes one real triangular Sylvester solve.  Stability
has one rule, applied by every solve and by ``stability_report``: the
spectral abscissa must be below -STABILITY_MARGIN.  The solver takes a
stack of drifts at once (``solve_steady_states``), which is how parameter
sweeps run; the single-matrix functions are its batch of one.  The block
order is a ``BlockPlan`` (``block_plan``): a plan built from a nonzero
pattern serves every drift whose pattern lies within it, so a family of
drifts, such as a network over its (r, j) grid, shares one.  Which of its
blocks need a Schur form is decided per drift, by one vectorized
damped-rotation test over all 2x2 blocks.  Besides the drifts, a solve
holds two stacks of their shape at once.  A generic Kronecker-vectorized
solver, (I (x) A + A (x) I) vec(V) = -vec(N), is kept as an independent
oracle.
Every returned matrix is checked against the residual contract
||A V + V A^T + N||_max <= 1e-8 * max(1, ||N||_max).

Time evolution needs neither a steady state nor an eigenbasis: one Van
Loan block exponential of [[A, N], [0, -A^T]] over a step short enough to
stay finite gives the propagator and the accumulated noise of that step,
and repeated doubling carries both to the requested time.  It holds for
any drift, stable or not, diagonalizable or not.  The step and its
doublings, the step ladder, are kept per (drift, noise, step): the last
eight such ladders used, each as long as the longest evolution asked of
it, are reused by later calls and extended when a call needs more
doublings.  A ladder of k doublings holds k + 1 (F, Q) pairs of the
drift's shape, 0.65 MB per pair at M = 100 (k = 22 and 15 MB for
t = 1e6 on a chain).  The kept ladders hold at most 32 MiB together:
the least recently used are dropped to make room, and a ladder larger
than that alone (at M = 200, t = 1e6) is not kept, so such calls
recompute theirs.  Every pair is computed by the same operations in
the same order whichever call first needs it, so results do not depend
on what was evolved before.  The dense
eigendecomposition ``spectral_decomposition`` is kept as a diagnostic
only; no solver calls it.
"""

from __future__ import annotations

import math
import threading
import warnings
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    EigenFailureError,
    ResidualTooLargeError,
    SingularSystemError,
    UnstableError,
)

# The one stability rule: stable means a spectral abscissa below
# -STABILITY_MARGIN; |abscissa| below it is reported marginal.
STABILITY_MARGIN = 1e-9
# Acceptance gates of the eigenbasis diagnostic (SpectralDecomposition).
CONDITION_LIMIT = 1e8
RECONSTRUCTION_RTOL = 1e-10
# Residual contract shared by both solvers.
RESIDUAL_RTOL = 1e-8
# Stack-wide steps that need a temporary run in this many parts.
_PARTS = 8
# evolve_covariance's step ladders, least recently used first, keyed by
# (shape, drift bytes, noise bytes, step).  At most _LADDERS_KEPT of them,
# holding at most _LADDER_BYTES of keys and (F, Q) arrays together: the
# least recently used are dropped until the rest fit, and a ladder that
# alone exceeds the budget is never kept.
_LADDERS: OrderedDict = OrderedDict()
_LADDERS_KEPT = 8
_LADDER_BYTES = 32 * 2**20
_LADDERS_LOCK = threading.Lock()


@dataclass(frozen=True)
class StabilityReport:
    """Stability classification of a drift matrix."""

    spectral_abscissa: float
    stable: bool
    marginal: bool


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


@dataclass(frozen=True)
class BlockPlan:
    """Block upper-triangular form shared by a family of drifts.

    For every drift the plan serves, a[order][:, order] is block upper
    triangular.  ``blocks`` lists, as (lo, hi) in the permuted indices,
    every diagonal block larger than 1x1; whether one needs a real Schur
    form is decided per drift (``_schur_forms``).
    """

    order: np.ndarray
    blocks: tuple


def _block_order(a: np.ndarray) -> tuple:
    """Permutation and block bounds that make ``a`` block upper-triangular.

    Indices i and k share a block when each is reachable from the other
    through the nonzero pattern of ``a`` (strongly connected components).
    Blocks are listed so that each depends only on blocks after it: by
    descending count of the indices a block reaches (strictly more than
    every block it depends on), then by lowest index; a block holds its
    indices in ascending order.  Returns (order, starts, stops):
    a[order][:, order] is block upper-triangular with diagonal blocks
    [starts[k], stops[k]).

    The components come from one iterative pass of Tarjan's algorithm
    (SIAM J. Comput. 1, 146 (1972)), which finishes a component only after
    every component it reaches, so each one's reached set (a Python int
    used as a bitset) is its own indices and the union of its successors'.
    """
    dim = a.shape[0]
    rows, columns = np.nonzero(a)
    # the successors of i are columns[bounds[i]:bounds[i + 1]]
    bounds = np.searchsorted(rows, np.arange(dim + 1)).tolist()
    columns = columns.tolist()
    index = [-1] * dim  # visiting order, -1 before the visit
    low = [0] * dim
    component = [-1] * dim  # -1 until the index's component is finished
    reached = []  # per component, the bitset of the indices it reaches
    members = []
    stack = []
    visited = 0
    for root in range(dim):
        if index[root] >= 0:
            continue
        index[root] = low[root] = visited
        visited += 1
        stack.append(root)
        path = [(root, bounds[root])]  # depth-first path: (index, next edge)
        while path:
            i, edge = path[-1]
            if edge < bounds[i + 1]:
                path[-1] = (i, edge + 1)
                k = columns[edge]
                if index[k] < 0:
                    index[k] = low[k] = visited
                    visited += 1
                    stack.append(k)
                    path.append((k, bounds[k]))
                elif component[k] < 0:
                    low[i] = min(low[i], index[k])
                continue
            path.pop()
            if path:
                parent = path[-1][0]
                low[parent] = min(low[parent], low[i])
            if low[i] != index[i]:
                continue
            # i roots a component: pop it, then collect what it reaches
            label = len(members)
            block = []
            while not block or block[-1] != i:
                k = stack.pop()
                component[k] = label
                block.append(k)
            bits = 0
            for k in block:
                bits |= 1 << k
            for k in block:
                for successor in columns[bounds[k] : bounds[k + 1]]:
                    if component[successor] != label:
                        bits |= reached[component[successor]]
            reached.append(bits)
            members.append(sorted(block))
    ranked = sorted(range(len(members)), key=lambda c: (-reached[c].bit_count(), members[c][0]))
    order = np.array([k for c in ranked for k in members[c]], dtype=np.intp)
    sizes = np.array([len(members[c]) for c in ranked], dtype=np.intp)
    stops = np.cumsum(sizes)
    return order, stops - sizes, stops


def block_plan(a: np.ndarray) -> BlockPlan:
    """Block plan of the drifts whose nonzero pattern lies within that of
    ``a`` (n, n).

    A pattern that contains a drift's pattern gives a block-triangular form
    of that drift too.
    """
    order, starts, stops = _block_order(np.asarray(a))
    needed = stops - starts > 1
    blocks = zip(starts[needed].tolist(), stops[needed].tolist())
    return BlockPlan(order=order, blocks=tuple(blocks))


def _permuted(x: np.ndarray, plan: BlockPlan) -> np.ndarray:
    """x[..., order][..., :, order] of a matrix or stack, in one pass."""
    return x[..., plan.order[:, None], plan.order]


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


def _schur_forms(u: np.ndarray, plan: BlockPlan) -> list:
    """Real Schur forms of the diagonal blocks of the stack ``u`` (B, n, n),
    already in the plan's order, as groups (lo, hi, z, t); ``u`` is left
    unchanged.

    Each group is one block [lo, hi) that some matrix of the stack needs
    brought to Schur form: u[b][lo:hi, lo:hi] = z[b] t[b] z[b]^T.  With Z_b
    the block-diagonal orthogonal matrix of the groups (identity outside
    them), Z_b^T u[b] Z_b with every block [lo, hi) replaced by t[b] is quasi
    upper triangular in Schur canonical form (1x1 blocks and 2x2 blocks
    [[alpha, beta], [gamma, alpha]] with beta gamma < 0), so its diagonal
    holds the real parts of the eigenvalues.  Damped rotations
    [[alpha, beta], [-beta, alpha]] (every chain node) already are
    canonical, with the exact eigenvalues alpha -+ i beta: one vectorized
    test over every 2x2 block of every matrix finds them, z[b] is the
    identity and t[b] the block itself there, and a block that is canonical
    in every matrix makes no group.  Every other block gets a real Schur
    form (LAPACK dgees).
    """
    first = np.array([lo for lo, _ in plan.blocks], dtype=np.intp)
    pairs = np.array([hi - lo == 2 for lo, hi in plan.blocks], dtype=bool)
    second = first + 1
    needed = ~(
        pairs
        & (u[:, second, second] == u[:, first, first])
        & (u[:, second, first] == -u[:, first, second])
    )
    groups = []
    for k in np.flatnonzero(needed.any(axis=0)).tolist():
        lo, hi = plan.blocks[k]
        block = u[:, lo:hi, lo:hi]
        t = block.copy()
        z = np.zeros_like(t)
        z[:] = np.eye(hi - lo)
        for b in np.flatnonzero(needed[:, k]).tolist():
            t[b], z[b] = _schur(block[b])
        groups.append((lo, hi, z, t))
    return groups


def _congruence(groups, x: np.ndarray, inverse: bool = False) -> None:
    """Replace each matrix of the stack ``x`` by Z^T x Z, or by Z x Z^T with
    ``inverse``, where Z is the block-diagonal orthogonal matrix of
    ``groups`` (identity outside them)."""
    for lo, hi, z, _ in groups:
        left = z if inverse else _transpose(z)
        x[:, lo:hi] = left @ x[:, lo:hi]
        x[:, :, lo:hi] = x[:, :, lo:hi] @ _transpose(left)


def _abscissa(u: np.ndarray) -> np.ndarray:
    """Spectral abscissa of every matrix of a stack in real Schur form."""
    return np.diagonal(u, axis1=1, axis2=2).max(axis=1)


def _transpose(x: np.ndarray) -> np.ndarray:
    return x.swapaxes(-1, -2)


def _finite(a: np.ndarray) -> np.ndarray:
    if not np.isfinite(a).all():
        raise EigenFailureError("matrix has non-finite entries")
    return a


def spectral_abscissa(a: np.ndarray) -> float:
    """Largest real part of the eigenvalues of ``a``.

    Read off the diagonal blocks of the block-triangular form of ``a``:
    exactly for damped rotations, from a small real Schur form otherwise.
    A cascade's chain nodes, whose one-way couplings make one large
    defective cluster of the whole drift, never enter an eigensolver.
    """
    a = _finite(np.asarray(a, dtype=float))
    plan = block_plan(a)
    u = _permuted(a, plan)[None]
    for lo, hi, _, t in _schur_forms(u, plan):
        u[:, lo:hi, lo:hi] = t
    return float(_abscissa(u)[0])


def stability_report(a: np.ndarray) -> StabilityReport:
    """Classify ``a`` as stable, marginal, or unstable.

    Stable means the abscissa is below -STABILITY_MARGIN, the rule every
    steady-state solve applies; values within +-STABILITY_MARGIN of zero are
    marginal (reported, never treated as stable).
    """
    abscissa = spectral_abscissa(a)
    return StabilityReport(
        spectral_abscissa=abscissa,
        stable=(abscissa < -STABILITY_MARGIN),
        marginal=abs(abscissa) < STABILITY_MARGIN,
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


def _parts(size: int) -> list:
    """Slices that cut a stack of ``size`` matrices into at most _PARTS
    parts, so that a temporary of one part is a fraction of the stack."""
    step = max(1, -(-size // _PARTS))
    return [slice(lo, lo + step) for lo in range(0, size, step)]


def _symmetrize(x: np.ndarray) -> None:
    """Replace each matrix of the stack ``x`` by (x + x^T) / 2, in place."""
    for part in _parts(x.shape[0]):
        np.add(x[part], _transpose(x[part]), out=x[part])
    x /= 2.0


def _residual_errors(a: np.ndarray, v: np.ndarray, noise: np.ndarray, label: str) -> list:
    """For each matrix of the stacks, None or the ResidualTooLargeError of a
    steady state that violates the residual contract.

    The residuals are formed a part of the stack at a time.
    """
    limits = RESIDUAL_RTOL * np.maximum(1.0, np.abs(noise).max(axis=(-2, -1)))
    noise = np.broadcast_to(noise, v.shape)
    res = np.empty(v.shape[0])
    for part in _parts(v.shape[0]):
        r = a[part] @ v[part]
        r += v[part] @ _transpose(a[part])
        r += noise[part]
        res[part] = np.abs(r, out=r).max(axis=(-2, -1))
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

    Raises UnstableError when the spectral abscissa is >= -STABILITY_MARGIN
    (no decaying fixed point, or one too close to marginal to tell),
    SingularSystemError when LAPACK reports a near-singular
    Sylvester operator, and ResidualTooLargeError when the computed matrix
    fails the residual contract.
    """
    _, states, errors = solve_steady_states(np.asarray(a, dtype=float)[None], noise)
    if errors[0] is not None:
        raise errors[0]
    return states[0]


def solve_steady_states(
    a: np.ndarray,
    noise: np.ndarray,
    plan: BlockPlan | None = None,
    overwrite_a: bool = False,
) -> tuple:
    """Structured steady states of a stack of drifts ``a`` (B, n, n) under
    one diffusion ``noise`` (n, n) or one per drift (B, n, n).

    Every drift takes the block form of ``plan`` (see
    ``solve_steady_state_spectral``); by default, the plan of the stack's
    union nonzero pattern.  It gives every drift's spectral abscissa, and
    the stable drifts, those whose abscissa is below -STABILITY_MARGIN, go
    on to the triangular Sylvester solve, one dtrsyl call each; every other
    step acts on the whole stack at once.  Each drift's result depends on
    that drift and the plan alone, never on the rest of the stack.

    The solve holds two stacks of the shape of ``a``: the drifts in the
    block order, brought to Schur form and back, which ends up holding the
    states, and the right-hand side, which becomes the solution.  With
    ``overwrite_a`` the right-hand side takes the memory of ``a``, whose
    contents are then lost.  The residual contract is checked in the block
    order, a part of the stack at a time.

    Returns (abscissa, states, errors): abscissa has shape (B,); errors[b]
    is None or the error ``solve_steady_state_spectral`` raises for drift b
    (UnstableError exactly where drift b is not stable); states[b] is its
    steady state where errors[b] is None and undefined otherwise.
    """
    a = _finite(np.asarray(a, dtype=float))
    if plan is None:
        plan = block_plan((a != 0).any(axis=0))
    u = _permuted(a, plan)
    noise = _permuted(np.asarray(noise, dtype=float), plan)
    # right-hand side C = -(N + A + A^T) in the block order
    c = np.add(noise, u, out=a if overwrite_a else None)
    c += _transpose(u)
    np.negative(c, out=c)
    groups = _schur_forms(u, plan)
    # the rows and columns the Schur bases change, to restore A afterwards
    saved = [(lo, hi, u[:, lo:hi].copy(), u[:, :, lo:hi].copy()) for lo, hi, _, _ in groups]
    _congruence(groups, u)
    for lo, hi, _, t in groups:
        u[:, lo:hi, lo:hi] = t
    _congruence(groups, c)

    abscissa = _abscissa(u)
    stable = abscissa < -STABILITY_MARGIN
    errors = [
        None
        if up
        else UnstableError(
            "dynamics has no decaying steady state "
            f"(spectral abscissa {value:.3e} >= {-STABILITY_MARGIN:.3g})"
        )
        for value, up in zip(abscissa.tolist(), stable.tolist())
    ]
    c[~stable] = 0.0
    for b in np.flatnonzero(stable).tolist():
        y, scale, info = scipy.linalg.lapack.dtrsyl(u[b], u[b], c[b], tranb="T")
        if info != 0:
            errors[b] = SingularSystemError(
                f"triangular Sylvester solve failed (LAPACK info {info})"
            )
            c[b] = 0.0
        else:
            c[b] = y / scale

    for lo, hi, rows, columns in saved:
        u[:, lo:hi] = rows
        u[:, :, lo:hi] = columns
    # V = I + Z Y Z^T, symmetrized, checked, and scattered back to the
    # drift's order
    _congruence(groups, c, inverse=True)
    c += np.eye(c.shape[-1])
    _symmetrize(c)
    residual = _residual_errors(u, c, noise, "structured")
    states = u
    states[:, plan.order[:, None], plan.order] = c
    return abscissa, states, [error or late for error, late in zip(errors, residual)]


def _evolution_inputs(a, noise, v0) -> tuple:
    """``a``, ``noise`` and ``v0`` as float arrays; ValueError unless all
    three are finite square matrices of one shape."""
    a, noise, v0 = (np.asarray(x, dtype=float) for x in (a, noise, v0))
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise ValueError(f"a must be a non-empty square matrix, got shape {a.shape}")
    for name, x in (("noise", noise), ("v0", v0)):
        if x.shape != a.shape:
            raise ValueError(f"{name} must have the shape {a.shape} of a, got {x.shape}")
    for name, x in (("a", a), ("noise", noise), ("v0", v0)):
        if not np.isfinite(x).all():
            raise ValueError(f"{name} has non-finite entries")
    return a, noise, v0


def _step_pair(a: np.ndarray, noise: np.ndarray, h: float, doublings: int) -> tuple:
    """(F, Q) at 2^doublings h, from the ladder (F(h), Q(h)), (F(2h), Q(2h)), ...

    The ladder is taken from _LADDERS when one of the same drift, noise and
    step is kept there, and extended by the missing doublings when it is too
    short.  An extended ladder is a new tuple that replaces the kept one,
    never one grown in place, so concurrent calls at worst repeat work.  A
    ladder that would exceed _LADDER_BYTES alone is neither collected nor
    kept: only its last pair is held, as in an uncached evolution.
    """
    key = (a.shape, a.tobytes(), noise.tobytes(), h)
    with _LADDERS_LOCK:
        rungs = _LADDERS.get(key, ())
        if rungs:
            _LADDERS.move_to_end(key)
    if len(rungs) > doublings:
        return rungs[doublings]
    if not rungs:
        dim = a.shape[0]
        generator = np.block([[a, noise], [np.zeros_like(a), -a.T]])
        block = scipy.linalg.expm(generator * h)
        f = block[:dim, :dim].copy()
        q = block[:dim, dim:] @ f.T
        rungs = ((f, q),)
    keep = len(key[1]) + len(key[2]) + 2 * a.nbytes * (doublings + 1) <= _LADDER_BYTES
    f, q = rungs[-1]
    grown = []
    for _ in range(doublings + 1 - len(rungs)):
        q = q + f @ q @ f.T
        f = f @ f
        if keep:
            grown.append((f, q))
    if not keep:
        return f, q
    rungs += tuple(grown)
    for f, q in rungs:
        f.flags.writeable = q.flags.writeable = False
    with _LADDERS_LOCK:
        if len(rungs) > len(_LADDERS.get(key, ())):
            _LADDERS[key] = rungs
            _LADDERS.move_to_end(key)
        while len(_LADDERS) > _LADDERS_KEPT or sum(
            _ladder_nbytes(*item) for item in _LADDERS.items()
        ) > _LADDER_BYTES:
            _LADDERS.popitem(last=False)
    return rungs[doublings]


def _ladder_nbytes(key: tuple, rungs: tuple) -> int:
    """Bytes a kept ladder holds: its key's drift and noise and its arrays."""
    return len(key[1]) + len(key[2]) + sum(f.nbytes + q.nbytes for f, q in rungs)


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

    The step ladder, (F, Q) at h, 2h, ..., 2^k h, is what a network's
    calls share: times a power of two apart share their step (h = 0.25
    for t = 0.5, 2, 8, ..., 4096 when ||A||_1 is in (2, 4]).  A call that
    finds its drift, noise and step among the eight ladders last used
    skips the block exponential and every doubling the ladder holds, and
    adds only those it lacks.  Each ladder holds k + 1 pairs of the
    drift's shape, 0.65 MB per pair at M = 100.  The kept ladders, with
    their keys, hold at most 32 MiB: a ladder that alone needs more is
    not kept, and its calls recompute it as if nothing were cached.
    Every pair comes from the same operations in the same order whichever
    call computes it, so the result is bitwise the same whatever was
    evolved before, in this thread or another.

    Raises ValueError for a negative or non-finite ``t``, for ``a``,
    ``noise`` or ``v0`` that are not finite square matrices of one shape,
    and for t ||A||_1 beyond the float range; all before any work is done
    or kept.
    """
    if not 0.0 <= t < math.inf:
        raise ValueError(f"t must be finite and >= 0, got {t}")
    a, noise, v0 = _evolution_inputs(a, noise, v0)
    if t == 0:
        return v0.copy()

    t_norm = t * float(np.linalg.norm(a, 1))
    if t_norm == math.inf:
        raise ValueError(f"t * ||A||_1 overflows at t = {t}")
    doublings = math.ceil(math.log2(t_norm)) if t_norm > 1.0 else 0
    h = math.ldexp(t, -doublings)
    f, q = _step_pair(a, noise, h, doublings)
    v = f @ v0 @ f.T + q
    return (v + v.T) / 2.0
