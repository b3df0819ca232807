"""The benchmark's tracer wraps qmprobe functions by name, and its
microbenchmarks call qmprobe methods by name; each must still exist,
and the tracer must find every module it wraps loaded, or
`bench/run.py --trace 1` breaks.  A wrapped function must also be the
one the probes call, or the tracer counts nothing."""

import importlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).parent.parent


def _bench_module(name):
    """bench/<name>.py, loaded without putting bench on the import path."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _targets():
    module = _bench_module("spans")
    return [(layer, name) for layer, names in module.TARGETS.items() for name in names]


def _python(*args):
    """The stdout of `python *args` in a fresh process with `src` on the
    import path."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, check=True
    ).stdout


def test_the_package_root_loads_nothing_and_the_cli_every_traced_module():
    code = (
        "import json, sys\n"
        "loaded = lambda: json.dumps([m for m in sys.modules if m.startswith('qmprobe.')])\n"
        "import qmprobe\n"
        "print(loaded())\n"
        "import qmprobe.cli\n"
        "print(loaded())\n"
    )
    root, cli = map(json.loads, _python("-c", code).splitlines())
    assert root == []
    assert {f"qmprobe.{layer}" for layer, _ in _targets()} <= set(cli)


def test_the_microbenchmarks_report_every_per_operation_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    per_op = {m["name"] for m in bench["per_layer"] if m["unit"] == "us"}
    assert len(per_op) == 7
    assert set(json.loads(_python(str(ROOT / "bench" / "micro.py")))) == per_op


@pytest.mark.parametrize("layer, name", _targets())
def test_every_traced_function_exists(layer, name):
    module = importlib.import_module(f"qmprobe.{layer}")
    assert callable(getattr(module, name, None)), f"qmprobe.{layer}.{name}"


@pytest.mark.parametrize("seed, columns, radii", [(0, 46, 3), (2, 376, 4)])
def test_the_tracer_sees_every_solve_of_a_fill(tmp_path, seed, columns, radii):
    # one solve per radius of the schedule, each counted by its columns
    ((name, text),) = _bench_module("workloads").configs("fill", seed, ROOT)
    config, spans = tmp_path / name, tmp_path / "spans.json"
    config.write_text(text, encoding="utf-8")
    _python(
        str(ROOT / "bench" / "child.py"), str(tmp_path / "times.json"), str(spans),
        "--", "run", str(config), "--out", str(tmp_path / "report.json"),
    )
    traced = json.loads(spans.read_text(encoding="utf-8"))
    assert traced["counts"].get("intsolve.columns", 0) == columns
    solves = [span for span in traced["spans"] if span[0] == "intsolve.solve_integer_system"]
    assert len(solves) == radii
