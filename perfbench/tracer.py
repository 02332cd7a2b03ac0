"""Span tracing of entflow's public functions, from outside the package.

``Tracer().install()`` wraps every function in TRACED; launch.py and
relax_worker.py install it in the processes of a traced round and write
``Tracer.record()`` out when the process ends.

Modules such as ``sweep`` and ``cli`` bind imported functions to their own
names at import time, so a function is replaced wherever an entflow module
(or the package namespace) holds it, not only where it is defined.  Spans
stay in memory as (function, start ns, end ns, parent span) and are written
once at the end; self time is computed from them by ``summarize``.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time

TRACED = {
    "config_io": ("load_config_file",),
    "network": ("validate_config", "build_dynamical_matrix", "build_noise_matrix"),
    "lyapunov": (
        "stability_report",
        "spectral_abscissa",
        "spectral_decomposition",
        "solve_steady_state_vectorized",
        "solve_steady_state_spectral",
        "evolve_covariance",
    ),
    "measures": ("check_physical", "reduce_two_mode", "log_negativity", "mean_occupation"),
    "sweep": (
        "run_point",
        "max_entangled_node",
        "sweep_grid",
        "figure_dataset",
        "export_csv",
    ),
    "cli": ("cmd_figure", "cmd_point"),
}
NAMES = tuple(f"{module}.{fn}" for module, fns in TRACED.items() for fn in fns)


class Tracer:
    """Wraps the TRACED functions and records one span per call."""

    def __init__(self):
        self.spans = []
        self.eigenbasis_discarded = 0
        self._stack = threading.local()

    def _wrap(self, index: int, fn):
        spans = self.spans
        local = self._stack
        discards = fn.__name__ == "spectral_decomposition"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("ids", [])
            span = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[span] = (index, start, time.perf_counter_ns(), parent)
                stack.pop()
            if discards and not result.accepted():
                self.eigenbasis_discarded += 1
            return result

        return traced

    def install(self) -> None:
        """Import every entflow module and replace each traced function at
        every name bound to it."""
        import importlib

        originals = {}
        for index, name in enumerate(NAMES):
            module, fn = name.split(".")
            original = getattr(importlib.import_module(f"entflow.{module}"), fn)
            originals[id(original)] = self._wrap(index, original)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "entflow" and not mod_name.startswith("entflow."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)

    def record(self) -> dict:
        return {
            "names": NAMES,
            "spans": self.spans,
            "eigenbasis_discarded": self.eigenbasis_discarded,
        }


def summarize(files) -> dict:
    """Calls and self time (ns) per traced function over span files.

    A span's self time is its duration minus the durations of the spans
    whose parent it is.
    """
    calls = dict.fromkeys(NAMES, 0)
    self_ns = dict.fromkeys(NAMES, 0)
    discarded = 0
    for path in files:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        names = data["names"]
        spans = data["spans"]
        own = [end - start for _, start, end, _ in spans]
        for index, start, end, parent in spans:
            if parent >= 0:
                own[parent] -= end - start
        for (index, _, _, _), ns in zip(spans, own):
            calls[names[index]] += 1
            self_ns[names[index]] += ns
        discarded += data["eigenbasis_discarded"]
    return {"calls": calls, "self_ns": self_ns, "eigenbasis_discarded": discarded}
