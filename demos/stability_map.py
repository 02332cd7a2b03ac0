"""
Mapping the stable operating region
===================================

Sweeps squeezing and coupling on a coarse grid, prints a character map
of where the dynamics settles to a steady state, and exports the same
figure as CSV through the one figure writer, byte for byte the table of
`entflow figure stability --grid 16x11 --range 0:1.5,0:1`.  Strong
squeezing destabilizes the network; the coupling shifts where the
boundary sits.
"""

import numpy as np

from entflow import DEFAULT_CONFIG, export_csv, figure_dataset

R_VALUES = np.linspace(0.0, 1.5, 16)
J_VALUES = np.linspace(0.0, 1.0, 11)

stable = np.concatenate(
    [columns.stable for columns in figure_dataset("stability", DEFAULT_CONFIG, R_VALUES, J_VALUES)]
).reshape(len(R_VALUES), len(J_VALUES))

print("stability map ('.' stable, 'X' unstable), r down, j across")
print()
header = "        " + " ".join(f"{j:4.1f}" for j in J_VALUES)
print(header)
for r, row in zip(R_VALUES, stable):
    cells = ["   ." if up else "   X" for up in row]
    print(f"r={r:4.2f} " + " ".join(cells))

_, rows, sweeps = export_csv(
    "stability", DEFAULT_CONFIG, R_VALUES, J_VALUES, "stability_map.csv"
)
print()
print(f"{sweeps['forward']['unstable']} of {rows} points are unstable")
print("full table written to stability_map.csv")
