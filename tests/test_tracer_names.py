"""Every function the benchmark's tracer wraps still exists in entflow.

The tracer looks each name up with ``getattr`` on ``entflow.<module>``, so a
rename or removal fails every traced benchmark run; this keeps that failure
in the test suite.
"""

import importlib
import importlib.util
import pathlib

import pytest

TRACER = pathlib.Path(__file__).parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", load_tracer().NAMES)
def test_traced_name_resolves(name):
    module, function = name.split(".")
    assert callable(getattr(importlib.import_module(f"entflow.{module}"), function))
