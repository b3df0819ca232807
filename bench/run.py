"""Time-to-certificate benchmark for the qmprobe CLI.

    python3 bench/run.py --workload scan|fill|suite --seed N --seconds S --trace 0|1

Run from the root of a checkout.  For each config of the workload
(bench/workloads.py) a pass launches `qmprobe run` and then
`qmprobe verify`, each in a fresh interpreter, one process at a time: a
closed loop with one client.  Passes repeat until S seconds have gone,
and at least MIN_PASSES times.  setup_s is then topped up to
SETUP_SAMPLES samples with setup-only launches of the `run` processes,
which stop once the experiment is loaded.  Fresh processes matter: the
ball cache and the quasimorphism value caches live in the process, and
the package is compiled again on every launch when
PYTHONDONTWRITEBYTECODE is set.
The children get the environment unchanged except for two variables:
PYTHONPATH gains the checkout's src/ in front, and PYTHONHASHSEED is
removed, so every process draws its own hash seed and the digest gate
also checks that report bodies do not depend on it.

Every operation (one `run` or one `verify` of one config) is checked
against bench/pinned.json: the exit code, the sha256 of the report body
serialized as `dump_report` does, and no FAIL line from `verify`.  A
mismatch counts as a failed operation and makes the exit code 1.

--trace 0 prints the end-to-end metrics (medians over passes).
--trace 1 runs the microbenchmarks in their own process, then pairs of
an untraced and a traced pass (until S seconds have gone, at least one
pair), and prints the per-layer metrics from the traced passes' spans
(bench/spans.py).  The last line of standard
output is always the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
MIN_PASSES = 3
SETUP_SAMPLES = 15
OP_TIMEOUT_S = 150

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("verify_s", "s"),
    ("run_rss_mb", "MB"),
    ("verify_rss_mb", "MB"),
)

# inclusive time in the outermost spans of these names
SPAN_METRICS = {
    "groups.ball_s": {"groups._ball"},
    "quasimorphisms.defect_s": {"quasimorphisms.defect_lower_bound"},
    "quasimorphisms.aker_s": {"quasimorphisms.certify_aker_approximate_subgroup"},
    "rips.build_s": {"rips.build_rips"},
    "rips.profile_s": {"rips.connectivity_profile"},
    "rips.components_s": {"rips.components", "rips.components_from_edges"},
    "search.bfs_s": {"search._constrained_bfs"},
    "search.library_s": {"search.build_q_library"},
    "search.peak_s": {"search.peak_reduction"},
    "search.obstruction_s": {"search.free_group_obstruction_probe"},
    "paths.build_s": {"paths.path_from_letters", "paths.straight_path", "report.parse_path"},
    "paths.extrema_s": {"paths.phi_extrema"},
    "intsolve.solve_s": {"intsolve.solve_integer_system"},
    "intsolve.check_s": {"intsolve.check_solution", "intsolve.check_unsat_certificate"},
    "novikov.enumerate_s": {"novikov.enumerate_faces"},
    "novikov.ray_cycle_s": {"novikov.ray_cycle"},
    "novikov.extract_s": {"novikov.keep_negative_and_extract_path"},
    "config.parse_s": {"config.load_experiment", "config.parse_experiment"},
    "report.dump_s": {"report.dump_report"},
    "report.load_s": {"report.load_report"},
}
# self time of one function: its span minus the wrapped calls it makes
SELF_METRICS = {
    "novikov.solve_self_s": "novikov.windowed_boundary_solve",
    "runner.payload_s": "runner.run_experiment",
    "verify.replay_self_s": "verify.verify_report",
}
COUNT_METRICS = (
    "groups.ball_elements",
    "rips.distance_calls",
    "intsolve.rows",
    "intsolve.columns",
    "intsolve.nonzeros",
    "novikov.faces",
)
# self time of every span of a layer; runner and verify have one
# traced function each, whose self time is already named above
SELF_LAYERS = ("config", "groups", "quasimorphisms", "rips", "search", "paths",
               "intsolve", "novikov", "report", "trace")
MICRO_METRICS = (
    ("exact.add_us", "us"),
    ("exact.cmp_us", "us"),
    ("exact.floor_us", "us"),
    ("groups.mul_us", "us"),
    ("groups.sort_key_us", "us"),
    ("quasimorphisms.eval_cold_us", "us"),
    ("quasimorphisms.eval_warm_us", "us"),
)
PER_LAYER = (
    MICRO_METRICS
    + tuple((n, "s") for n in SPAN_METRICS)
    + tuple((n, "s") for n in SELF_METRICS)
    + tuple((n, "count") for n in COUNT_METRICS)
    + (
        ("search.bfs_calls", "count"),
        ("rips.distance_calls_per_pair", "calls/pair"),
        ("report.body_bytes", "bytes"),
        ("cli.import_s", "s"),
    )
    + tuple((f"{layer}.self_s", "s") for layer in SELF_LAYERS)
    + (
        ("trace.run_s", "s"),
        ("trace.run_other_s", "s"),
        ("trace.run_overhead_s", "s"),
        ("trace.verify_s", "s"),
        ("trace.verify_other_s", "s"),
        ("trace.verify_overhead_s", "s"),
    )
)


# -- one operation -------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONHASHSEED", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def launch(argv: list, out: Path) -> dict:
    """Run one process to its end; wall time from launch, peak RSS."""
    with open(out, "wb") as stdout, open(out.with_suffix(".err"), "wb") as stderr:
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr, env=child_env(), cwd=out.parent)
        watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            # wait4 rather than Popen.wait, for the child's own rusage
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"t0": t0, "wall_s": wall, "rss_mb": usage.ru_maxrss / 1024, "exit": proc.returncode}


def body_digest(report: Path) -> tuple[str, int]:
    """sha256 and size of the report body, serialized as dump_report does."""
    body = json.loads(report.read_text(encoding="utf-8"))["body"]
    text = (json.dumps(body, sort_keys=True, indent=2) + "\n").encode("utf-8")
    return hashlib.sha256(text).hexdigest(), len(text)


def _child(stem: Path, traced: bool, args: list) -> tuple[list, Path, Path]:
    times, trace_out = Path(f"{stem}.times"), Path(f"{stem}.spans")
    argv = [sys.executable, str(BENCH / "child.py"), str(times),
            str(trace_out) if traced else "-", *args]
    return argv, times, trace_out


def run_op(cfg: Path, traced: bool) -> dict:
    report = cfg.with_suffix(".json")
    report.unlink(missing_ok=True)
    stem = cfg.with_suffix(".run")
    argv, times_path, trace_out = _child(stem, traced, ["--", "run", cfg.name, "--out", report.name])
    op = {"kind": "run", "config": cfg.name, "report": report}
    op.update(launch(argv, Path(f"{stem}.out")))
    try:
        times = json.loads(times_path.read_text())
        loaded = times.get("loaded", times["done"])
        op.update(setup_s=loaded - op["t0"], run_s=times["done"] - loaded,
                  import_s=times["imported"] - op["t0"], window=(loaded, times["done"]))
        op["digest"], op["body_bytes"] = body_digest(report)
        if traced:
            op["trace"] = json.loads(trace_out.read_text())
    except (OSError, ValueError, KeyError) as exc:
        op["error"] = f"no usable output: {exc}"
    return op


def verify_op(report: Path, traced: bool) -> dict:
    stem = report.with_suffix(".verify")
    out = Path(f"{stem}.out")
    argv, times_path, trace_out = _child(stem, traced, ["--", "verify", report.name])
    op = {"kind": "verify", "config": report.with_suffix(".cfg").name}
    op.update(launch(argv, out))
    op["verify_s"] = op["wall_s"]
    lines = out.read_text(encoding="utf-8", errors="replace").splitlines()
    op["fails"] = [line for line in lines if line.startswith("FAIL")]
    try:
        op["import_s"] = json.loads(times_path.read_text())["imported"] - op["t0"]
        if traced:
            op["trace"] = json.loads(trace_out.read_text())
    except (OSError, ValueError, KeyError) as exc:
        op["error"] = f"no usable output: {exc}"
    return op


def setup_time(cfg: Path) -> float:
    """Launch to loaded experiment of one `run` process that stops there."""
    stem = cfg.with_suffix(".setup")
    argv, times_path, _ = _child(stem, False, ["--setup-only", "--", "run", cfg.name,
                                               "--out", cfg.with_suffix(".setup.json").name])
    done = launch(argv, Path(f"{stem}.out"))
    if done["exit"] != 0:
        raise ValueError(f"exit {done['exit']}")
    return json.loads(times_path.read_text())["loaded"] - done["t0"]


def problems(op: dict, pin: dict) -> list[str]:
    """Why an operation failed its pinned expectations; empty if it passed."""
    out = [op["error"]] if "error" in op else []
    if op["exit"] != pin[f"{op['kind']}_exit"]:
        out.append(f"exit {op['exit']}, pinned {pin[op['kind'] + '_exit']}")
    if op["kind"] == "run" and op.get("digest", pin["body_sha256"]) != pin["body_sha256"]:
        out.append(f"body sha256 {op['digest']}, pinned {pin['body_sha256']}")
    if op["kind"] == "verify" and op["fails"]:
        out.append(f"verify printed {op['fails'][0]!r}")
    return out


class Session:
    """The operations of one benchmark run, with their checks."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.configs = []
        for name, text in workloads.configs(workload, seed, ROOT):
            path = work / name
            path.write_text(text, encoding="utf-8")
            self.configs.append(path)
        pins = json.loads((BENCH / "pinned.json").read_text())
        self.pins = pins[workload][workloads.pin_key(workload, seed)]
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, op: dict) -> dict:
        self.attempted += 1
        found = problems(op, self.pins[op["config"]])
        self.failed += bool(found)
        self.failures += [f"{op['kind']} {op['config']}: {p}" for p in found]
        return op

    def setup_round(self) -> float:
        """setup_s of one round of setup-only launches; a launch that
        fails is reported, but is not an operation."""
        total = 0.0
        for cfg in self.configs:
            try:
                total += setup_time(cfg)
            except (OSError, ValueError, KeyError) as exc:
                self.failures.append(f"setup-only run {cfg.name}: {exc}")
        return total

    def one_pass(self, traced: bool = False) -> list[dict]:
        ops = []
        for cfg in self.configs:
            run = self.check(run_op(cfg, traced))
            ops.append(run)
            ops.append(self.check(verify_op(run["report"], traced)))
        return ops


def pass_totals(ops: list[dict]) -> dict:
    runs = [op for op in ops if op["kind"] == "run"]
    verifies = [op for op in ops if op["kind"] == "verify"]
    return {
        "setup_s": sum(op.get("setup_s", 0.0) for op in runs),
        "run_s": sum(op.get("run_s", 0.0) for op in runs),
        "verify_s": sum(op["verify_s"] for op in verifies),
        "run_rss_mb": max(op["rss_mb"] for op in runs),
        "verify_rss_mb": max(op["rss_mb"] for op in verifies),
    }


# -- per-layer metrics from spans ----------------------------------------


def layer_metrics(ops: list[dict]) -> tuple[dict, dict]:
    """Per-layer figures of one traced pass, summed over its processes,
    and each layer's self time inside the run windows."""
    m = {name: 0.0 for name, _ in PER_LAYER if name not in dict(MICRO_METRICS)}
    account: dict[str, float] = {}
    pairs = 0
    for op in ops:
        if "trace" not in op:
            continue
        sp, counts = op["trace"]["spans"], op["trace"]["counts"]
        for name, names in SPAN_METRICS.items():
            m[name] += spans.outer_time(sp, names)
        own = spans.self_times(sp)
        for (name, start, _, _), t in zip(sp, own):
            layer = name.split(".")[0]
            if layer in SELF_LAYERS:
                m[f"{layer}.self_s"] += t
            if op["kind"] == "run" and start >= op["window"][0]:
                account[layer] = account.get(layer, 0.0) + t
            for metric, fn in SELF_METRICS.items():
                if name == fn:
                    m[metric] += t
        for name in COUNT_METRICS:
            m[name] += counts.get(name, 0)
        pairs += counts.get("rips.distinct_pairs", 0)
        m["search.bfs_calls"] += sum(1 for s in sp if s[0] == "search._constrained_bfs")
        m["cli.import_s"] += op["import_s"]
        top = sum(end - start for _, start, end, parent in sp if parent < 0
                  and (op["kind"] == "verify" or op["window"][0] <= start))
        if op["kind"] == "run":
            m["report.body_bytes"] += op["body_bytes"]
            m["trace.run_s"] += op["run_s"]
            m["trace.run_other_s"] += op["run_s"] - top
        else:
            m["trace.verify_s"] += op["verify_s"]
            m["trace.verify_other_s"] += op["verify_s"] - top
    m["rips.distance_calls_per_pair"] = m["rips.distance_calls"] / pairs if pairs else 0.0
    account["other"] = m["trace.run_other_s"]
    return m, account


def micro_metrics(work: Path, session: Session) -> dict:
    """The microbenchmarks; a failure is reported, but is not an operation."""
    out = work / "micro.out"
    result = launch([sys.executable, str(BENCH / "micro.py")], out)
    try:
        if result["exit"] != 0:
            raise ValueError(f"exit {result['exit']}")
        return json.loads(out.read_text().splitlines()[-1])
    except (ValueError, IndexError) as exc:
        session.failures.append(f"micro.py: {exc}")
        return {name: 0.0 for name, _ in MICRO_METRICS}


# -- reporting -----------------------------------------------------------


def tail(samples: list) -> str:
    """The highest of p99, p90, p75 and p50 (nearest rank) with at least
    ten samples beyond it."""
    ordered = sorted(samples)
    for p in (99, 90, 75, 50):
        rank = -(-len(ordered) * p // 100)
        if len(ordered) - rank >= 10:
            return f"p{p} {ordered[rank - 1]:.6g}"
    return "no percentile has 10 samples beyond it"


def git_commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "PYTHONHASHSEED": "removed for children; each draws its own",
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "variant": workloads.pin_key(args.workload, args.seed),
        "seconds": args.seconds,
        "trace": bool(args.trace),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qmprobe" / "__init__.py").is_file():
        print(f"bench: no qmprobe sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    session = Session(args.workload, args.seed, work)
    print("env " + json.dumps(environment(args)))
    started = time.monotonic()
    if args.trace:
        micro = micro_metrics(work, session)
        plain, traced = [], []
        while not traced or time.monotonic() - started < args.seconds:
            plain.append(pass_totals(session.one_pass()))
            traced_ops = session.one_pass(traced=True)
            metrics, account = layer_metrics(traced_ops)
            traced.append(metrics)
        values = dict(micro)
        for name, _ in PER_LAYER:
            if name not in values:
                values[name] = statistics.median(t[name] for t in traced)
        for side in ("run", "verify"):
            values[f"trace.{side}_overhead_s"] = (
                statistics.median(t[f"trace.{side}_s"] for t in traced)
                - statistics.median(p[f"{side}_s"] for p in plain)
            )
        units = PER_LAYER
        samples = {}
        print(f"{args.workload} accounting of trace.run_s {traced[-1]['trace.run_s']:.6g} s "
              "(self time by layer, last traced pass): "
              + ", ".join(f"{k} {v:.6g}" for k, v in sorted(account.items(), key=lambda kv: -kv[1])))
    else:
        passes = []
        while len(passes) < MIN_PASSES or time.monotonic() - started < args.seconds:
            passes.append(pass_totals(session.one_pass()))
        samples = {name: [p[name] for p in passes] for name, _ in END_TO_END}
        while len(samples["setup_s"]) < SETUP_SAMPLES:
            samples["setup_s"].append(session.setup_round())
        values = {name: statistics.median(s) for name, s in samples.items()}
        units = END_TO_END

    for failure in session.failures:
        print("FAILED " + failure)
    failed = session.failed
    for name, unit in units:
        line = f"{args.workload} {name} {values[name]:.6g} {unit}"
        if name in samples:
            line += f" (median of {len(samples[name])} samples; {tail(samples[name])})"
        print(line)
    print(f"{args.workload} failed_ops {failed / session.attempted:.6g} share "
          f"({failed} of {session.attempted} operations)")
    result = {
        "correct": not session.failures,
        "attempted": session.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
