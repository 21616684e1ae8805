"""Every library name the benchmark's tracer wraps still resolves.

perfbench/tracer.py wraps the functions in its FUNCTIONS table by module and
attribute name, and Tracer.install() raises AttributeError on a missing one,
which would fail every traced benchmark run.  The tracer is loaded by path
and left as it is.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import isoslope.cli  # noqa: F401  (imports every module the tracer reaches)

_TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("_isoslope_bench_tracer", _TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    functions = _tracer_module().FUNCTIONS
    assert functions
    for name, module_name, attr in functions:
        obj = sys.modules[module_name]
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), name
