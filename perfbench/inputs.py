"""Seeded inputs of the three workloads.

Every input is a pure function of the seed.  The seed moves the operating
points, bath occupations and initial states but keeps the amount of work
of a round the same, so that rates from different seeds compare.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

GAMMA = 0.8
GAMMA_OUT = 0.002
# j = gamma/4 at r = 0: the source block is defective (exceptional point).
EP_J = GAMMA / 4.0

FIGURES = ("nonreciprocity", "depth", "occupation", "stability")
FIGURE_GRID = (11, 11)
# Up to M=30: a single-threaded M=40 point takes 6-11 s on the reference box,
# so only one or two rounds fit in a run and the rate spread 22% between runs.
CHAIN_LENGTHS = (10, 20, 30)
DIRECTIONS = ("forward", "backward")
RELAX_M = 10
RELAX_STATES = 4
# From well inside the transient to far past relaxation (slowest rate ~0.2).
RELAX_TIMES = (0.05, 0.5, 2.0, 8.0, 32.0, 128.0, 1024.0, 4096.0)


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def chain(m: int, r: float, j: float, direction: str, nbar_local, nbar_common) -> dict:
    return {
        "M": m,
        "r": float(r),
        "j": float(j),
        "gamma": GAMMA,
        "gamma_out": GAMMA_OUT,
        "nbar_local": [float(x) for x in nbar_local],
        "nbar_common": [float(x) for x in nbar_common],
        "direction": direction,
    }


def config_text(c: dict) -> str:
    """The chain as an entflow config file (floats round-trip exactly)."""
    lines = [
        f"M = {c['M']}",
        f"r = {c['r']!r}",
        f"j = {c['j']!r}",
        f"gamma = {c['gamma']!r}",
        f"gamma_out = {c['gamma_out']!r}",
        "nbar_local = " + ", ".join(repr(x) for x in c["nbar_local"]),
        "nbar_common = " + ", ".join(repr(x) for x in c["nbar_common"]),
        f"direction = {c['direction']}",
    ]
    return "\n".join(lines) + "\n"


def figures_m10(seed: int) -> dict:
    """The four figure tables on the default cold 10-node chain.

    r runs from 0 (the vacuum row) to a seeded top near 1, across the
    instability boundary; j runs over [0, 1] in steps of 0.1, so the grid
    holds the exceptional point (r, j) = (0, gamma/4) exactly.
    """
    n_r, n_j = FIGURE_GRID
    r_top = float(_rng(seed, 1).uniform(0.9, 0.99))
    r_values = np.linspace(0.0, r_top, n_r)
    j_values = np.linspace(0.0, 1.0, n_j)
    if EP_J not in j_values:
        raise RuntimeError("the j grid must hold the exceptional point exactly")
    base = chain(10, 0.0, 0.0, "forward", [0.0] * 11, [0.0] * 9)
    return {
        "base": base,
        "grid": f"{n_r}x{n_j}",
        "range": f"0:{r_top!r},0:1",
        "r_values": r_values,
        "j_values": j_values,
    }


def figure_points(work: dict, name: str):
    """(direction, r, j) of every row of a figure table, in row order."""
    directions = DIRECTIONS if name == "nonreciprocity" else ("forward",)
    return [
        (d, float(r), float(j))
        for d in directions
        for r in work["r_values"]
        for j in work["j_values"]
    ]


def _warm_chain(rng, m: int, direction: str) -> dict:
    return chain(
        m,
        rng.uniform(0.02, 0.3),
        rng.uniform(0.1, 0.9),
        direction,
        rng.uniform(0.001, 0.02, m + 1),
        rng.uniform(0.001, 0.02, m - 1),
    )


def chains_long(seed: int) -> list:
    """`entflow point` operations on warm chains of growing length, one per
    length and direction.

    The backward point of the longest chain is the exceptional point; its
    inputs do not depend on the seed, and its spectral abscissa is known to
    miss the exact value by more than a double eigenvalue allows.
    """
    rng = _rng(seed, 2)
    ops = [_warm_chain(rng, m, d) for m in CHAIN_LENGTHS for d in DIRECTIONS]
    m = CHAIN_LENGTHS[-1]
    ep = chain(m, 0.0, EP_J, "backward", [0.01] * (m + 1), [0.01] * (m - 1))
    ep["known_fault"] = "abscissa"
    ops[-1] = ep
    return ops


def physical_state(rng, n_modes: int) -> np.ndarray:
    """S diag(nu) S^T with S = exp(Omega H) symplectic and nu >= 1."""
    omega = np.kron(np.eye(n_modes), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    h = rng.normal(size=(2 * n_modes, 2 * n_modes))
    s = scipy.linalg.expm(omega @ (0.15 * (h + h.T) / 2.0))
    nu = np.repeat(rng.uniform(1.0, 3.0, n_modes), 2)
    v = (s * nu) @ s.T
    return (v + v.T) / 2.0


def relax_m10(seed: int) -> dict:
    """Seeded stable drift (both directions) and physical initial states."""
    rng = _rng(seed, 3)
    m = RELAX_M
    warm = _warm_chain(rng, m, "forward")
    chains = [dict(warm, direction=d) for d in DIRECTIONS]
    states = np.stack([physical_state(rng, m + 1) for _ in range(RELAX_STATES)])
    return {"chains": chains, "states": states, "times": np.array(RELAX_TIMES)}
