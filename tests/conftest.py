"""Shared test settings."""

from hypothesis import settings

# Derandomized, so every run of the suite draws the same examples; no
# deadline, because per-example wall time varies on shared machines.
settings.register_profile("entflow", derandomize=True, database=None, deadline=None)
settings.load_profile("entflow")
