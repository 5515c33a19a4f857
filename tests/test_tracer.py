"""The benchmark's span tracer wraps library functions by name, so a
renamed or dropped layer function must fail here and not only in a
traced benchmark run."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_self_test_finds_every_traced_function():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.self_test() == []
