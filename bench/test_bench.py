"""Self-check of the benchmark.  Not part of tier-1; run with

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run

# the metric names the benchmark was specified with
END_TO_END = ("setup_s", "run_s", "verify_s", "run_rss_mb", "verify_rss_mb")
PER_LAYER = (
    "exact.add_us", "exact.cmp_us", "exact.floor_us",
    "groups.mul_us", "groups.sort_key_us", "groups.ball_s", "groups.ball_elements",
    "quasimorphisms.defect_s", "quasimorphisms.aker_s",
    "quasimorphisms.eval_cold_us", "quasimorphisms.eval_warm_us",
    "rips.build_s", "rips.profile_s", "rips.components_s",
    "rips.distance_calls", "rips.distance_calls_per_pair",
    "search.bfs_s", "search.bfs_calls", "search.library_s", "search.peak_s",
    "search.obstruction_s",
    "paths.build_s", "paths.extrema_s",
    "intsolve.solve_s", "intsolve.rows", "intsolve.columns", "intsolve.nonzeros",
    "intsolve.check_s",
    "novikov.faces", "novikov.enumerate_s", "novikov.ray_cycle_s",
    "novikov.solve_self_s", "novikov.extract_s",
    "config.parse_s",
    "runner.payload_s",
    "report.dump_s", "report.load_s", "report.body_bytes",
    "verify.replay_self_s",
    "cli.import_s",
)


def _spec() -> dict:
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _driver(*args: str, cwd=run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_metric_names_match_the_specification():
    spec = _spec()
    assert tuple(m["name"] for m in spec["end_to_end"]) == END_TO_END
    assert tuple(name for name, _ in run.END_TO_END) == END_TO_END
    emitted = [name for name, _ in run.PER_LAYER]
    assert set(PER_LAYER) <= set(emitted)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)


def test_one_altered_body_byte_is_a_failed_operation(tmp_path):
    pin = json.loads((run.BENCH / "pinned.json").read_text())["suite"]["any"]["free_unsat.cfg"]
    cfg = tmp_path / "free_unsat.cfg"
    shutil.copy(run.ROOT / "tests" / "configs" / "free_unsat.cfg", cfg)
    op = run.run_op(cfg, traced=False)
    assert run.problems(op, pin) == []

    text = op["report"].read_text()
    assert text.count('"tool": "qmprobe"') == 1
    op["report"].write_text(text.replace('"tool": "qmprobe"', '"tool": "qmprobf"'))
    op["digest"], _ = run.body_digest(op["report"])
    found = run.problems(op, pin)
    assert len(found) == 1 and "sha256" in found[0]


def test_driver_prints_every_metric_by_name():
    for trace, names in (("0", END_TO_END), ("1", tuple(n for n, _ in run.PER_LAYER))):
        done = _driver("--workload", "suite", "--seed", "0", "--seconds", "0", "--trace", trace)
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert tuple(result["metrics"]) == names
        assert "suite failed_ops 0 share" in done.stdout


def test_driver_fails_an_operation_whose_body_differs_from_its_pin(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(run.ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(run.ROOT / "tests" / "configs", tmp_path / "tests" / "configs")
    pinned = tmp_path / "bench" / "pinned.json"
    pins = json.loads(pinned.read_text())
    pin = pins["suite"]["any"]["free_unsat.cfg"]
    pin["body_sha256"] = ("0" if pin["body_sha256"][0] != "0" else "1") + pin["body_sha256"][1:]
    pinned.write_text(json.dumps(pins))
    done = _driver("--workload", "suite", "--seed", "0", "--seconds", "0", "--trace", "0", cwd=tmp_path)
    assert done.returncode == 1
    result = json.loads(done.stdout.splitlines()[-1])
    assert not result["correct"]
    assert result["failed"] == run.MIN_PASSES
    assert "FAILED run free_unsat.cfg: body sha256" in done.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _driver("--workload", "scan", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
