"""Library-use worker of the relax-m10 workload.

    python3 perfbench/relax_worker.py INPUTS.json STATES.npy OUT.npz [SPANS.json]
    python3 perfbench/relax_worker.py INPUTS.json STATES.npy --first

A round builds the drift and noise matrices of each chain with entflow and
calls ``evolve_covariance`` once per (initial state, time).  The worker
runs one round, timed, and saves every evolved covariance and the wall
time to OUT.npz.  With SPANS.json the entflow functions are traced
(tracer.py) and the spans written there.  ``--first`` makes only the
first evolution of the round, which is the set-up operation.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np


def network(entflow, c: dict):
    net = entflow.validate_config(
        entflow.NetworkConfig(
            M=c["M"],
            r=c["r"],
            j=c["j"],
            gamma=c["gamma"],
            gamma_out=c["gamma_out"],
            nbar_local=tuple(c["nbar_local"]),
            nbar_common=tuple(c["nbar_common"]),
            direction=entflow.Direction(c["direction"]),
        )
    )
    return entflow.build_dynamical_matrix(net), entflow.build_noise_matrix(net)


def one_round(entflow, chains, states, times) -> np.ndarray:
    dim = states.shape[-1]
    out = np.empty((len(chains), len(states), len(times), dim, dim))
    for c_i, c in enumerate(chains):
        a, n = network(entflow, c)
        for s_i, v0 in enumerate(states):
            for t_i, t in enumerate(times):
                out[c_i, s_i, t_i] = entflow.evolve_covariance(a, n, v0, t)
    return out


def main(argv) -> int:
    with open(argv[0], encoding="utf-8") as handle:
        work = json.load(handle)
    states = np.load(argv[1])
    chains, times = work["chains"], work["times"]

    if argv[2] == "--first":
        import entflow

        a, n = network(entflow, chains[0])
        entflow.evolve_covariance(a, n, states[0], times[0])
        return 0

    tracer = None
    if len(argv) > 3:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    import entflow

    try:
        start = time.perf_counter()
        outputs = one_round(entflow, chains, states, times)
        wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            with open(argv[3], "w", encoding="utf-8") as handle:
                json.dump(tracer.record(), handle)
    np.savez(argv[2], outputs=outputs, wall=wall)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
