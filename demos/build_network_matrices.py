"""
Assembling the cascaded-chain matrices
======================================

Builds a small source-plus-chain network, prints the drift and noise
matrices, and checks that every drift eigenvalue sits in the left half
plane.
"""

import numpy as np

from dataclasses import replace

from entflow import (
    DEFAULT_CONFIG,
    build_dynamical_matrix,
    build_noise_matrix,
    spectral_abscissa,
    stability_report,
    validate_config,
)

np.set_printoptions(precision=3, suppress=True, linewidth=120)

config = replace(DEFAULT_CONFIG, M=3, r=0.15, j=0.4)
net = validate_config(config)
drift = build_dynamical_matrix(net)
noise = build_noise_matrix(net)

print("quadrature order:", " ".join(f"{q}{k}" for k in range(net.M + 1) for q in "xp"))
print()

# the drift is built from 2x2 blocks: one per mode on the diagonal,
# one per coupling off the diagonal
print("drift matrix A:")
print(drift)
print()

print("noise matrix N:")
print(noise)
print()

eigenvalues = np.linalg.eigvals(drift)
print("drift eigenvalues (real parts should all be negative):")
for lam in sorted(eigenvalues, key=lambda z: z.real):
    print(f"  {lam.real:+.6f} {lam.imag:+.6f}i")
print()

report = stability_report(drift)
print(f"spectral abscissa: {spectral_abscissa(drift):.6f}")
print(f"stable:            {report.stable}")
print(f"marginal:          {report.marginal}")
