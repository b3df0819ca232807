"""What a command loads: each probe kind is imported only when a
command names it, and a layer that no named kind calls stays a
placeholder that is never executed.  Each case runs in a fresh process,
since the tests share theirs."""

import importlib.util
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).parent.parent

# runs the qmprobe commands of argv[1] (a JSON list of argument lists) in
# one process, then prints their exit codes, the kind modules loaded,
# and for each layer whether it is registered and whether it was
# executed, read from its raw __dict__ so that the reading loads nothing
PROBE = r"""
import ast, json, pathlib, sys
import qmprobe.cli as cli

codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
package = object.__getattribute__(sys.modules["qmprobe"], "__dict__")
layers = {}
for layer in ("novikov", "intsolve", "paths", "search", "rips"):
    module = sys.modules.get(f"qmprobe.{layer}")
    raw = object.__getattribute__(module, "__dict__")
    tree = ast.parse(pathlib.Path(raw["__file__"]).read_text(encoding="utf-8"))
    defined = {
        node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    layers[layer] = {
        "registered": package.get(layer) is module,
        "executed": bool(defined & raw.keys()),
    }
kinds = sorted(name for name in sys.modules if name.startswith("qmprobe.kinds."))
print(json.dumps({"codes": codes, "kinds": kinds, "layers": layers}))
"""


def _loaded(*commands):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(commands)],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


def _bench_config(workload, tmp_path):
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "bench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    ((_, text),) = workloads.configs(workload, 0, ROOT)
    config = tmp_path / f"{workload}.cfg"
    config.write_text(text, encoding="utf-8")
    return str(config), str(tmp_path / f"{workload}.json")


def _run_and_verify(workload, tmp_path):
    config, report = _bench_config(workload, tmp_path)
    got = _loaded(["run", config, "--out", report], ["verify", report])
    assert got["codes"] == [0, 0]
    return got


def test_the_scan_never_executes_the_novikov_search_and_path_layers(tmp_path):
    got = _run_and_verify("scan", tmp_path)
    assert got["kinds"] == [
        "qmprobe.kinds.aker_cert", "qmprobe.kinds.defect", "qmprobe.kinds.rips_profile",
    ]
    for layer in ("novikov", "intsolve", "paths", "search"):
        assert got["layers"][layer] == {"registered": True, "executed": False}, layer
    assert got["layers"]["rips"] == {"registered": True, "executed": True}


def test_the_fill_never_executes_the_search_and_rips_layers(tmp_path):
    got = _run_and_verify("fill", tmp_path)
    assert got["kinds"] == ["qmprobe.kinds.novikov_solve"]
    for layer in ("search", "rips"):
        assert got["layers"][layer] == {"registered": True, "executed": False}, layer
    for layer in ("novikov", "intsolve", "paths"):
        assert got["layers"][layer]["executed"], layer


def test_explain_defect_imports_no_other_kind():
    got = _loaded(["explain", "defect"])
    assert got["codes"] == [0]
    assert got["kinds"] == ["qmprobe.kinds.defect"]
    assert not any(layer["executed"] for layer in got["layers"].values())
