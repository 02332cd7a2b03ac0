"""
Steady state and pairwise entanglement along the chain
======================================================

Solves the steady-state covariance of the default ten-node chain and
tabulates the logarithmic negativity between the source mode and every
chain node.  With forward coupling the entanglement reaches deep into
the chain before thermal noise from the shared baths eats it up.
"""

import numpy as np

from dataclasses import replace

from entflow import (
    DEFAULT_CONFIG,
    build_dynamical_matrix,
    build_noise_matrix,
    check_physical,
    log_negativity,
    mean_occupation,
    reduce_two_mode,
    solve_steady_state_spectral,
    validate_config,
)

R = 0.1          # squeezing rate over the mode frequency
J = 0.5          # source-chain coupling over the mode frequency

net = validate_config(replace(DEFAULT_CONFIG, r=R, j=J))
a = build_dynamical_matrix(net)
n = build_noise_matrix(net)
v = solve_steady_state_spectral(a, n)

print(f"chain of {net.M} nodes behind one squeezed source")
print(f"r = {R}, j = {J}, physical state: {check_physical(v).physical}")
print()
print("node   E_N(source, node)   occupation")
for node in range(1, net.M + 1):
    pair = reduce_two_mode(v, 0, node)
    record = log_negativity(pair)
    nbar = mean_occupation(v, node)
    marker = "" if record.separable else " *"
    print(
        f"{node:4d}   {record.log_negativity:17.6f}   {nbar:10.3e}{marker}"
    )
print()
print("nodes marked * are entangled with the source")
