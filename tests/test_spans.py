"""The benchmark's tracer wraps qmprobe functions by name; each name it
lists must still exist, or `bench/run.py --trace 1` breaks."""

import importlib
import importlib.util
import pathlib

import pytest

SPANS = pathlib.Path(__file__).parent.parent / "bench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(layer, name) for layer, names in module.TARGETS.items() for name in names]


@pytest.mark.parametrize("layer, name", _targets())
def test_every_traced_function_exists(layer, name):
    module = importlib.import_module(f"qmprobe.{layer}")
    assert callable(getattr(module, name, None)), f"qmprobe.{layer}.{name}"
