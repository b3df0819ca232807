"""The command line: run/verify round trips over the config corpus,
exit codes, determinism of report bodies, and tamper detection."""

import json
import pathlib
import subprocess
import sys

import pytest

from qmprobe.cli import main
from qmprobe.config import PROBE_KINDS

CONFIG_DIR = pathlib.Path(__file__).parent / "configs"
GOOD_CONFIGS = [
    "free_brooks.cfg",
    "z2_lattice.cfg",
    "f2z_kernel.cfg",
    "free_unsat.cfg",
]


def _read(path):
    return json.loads(pathlib.Path(path).read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", GOOD_CONFIGS)
def test_run_verify_round_trip(tmp_path, capsys, name):
    out = tmp_path / "report.json"
    code = main(["run", str(CONFIG_DIR / name), "--out", str(out)])
    assert code == 0, capsys.readouterr().err
    report = _read(out)
    assert report["body"]["schema"] == "qmprobe-report-1"
    assert all(p["status"] == "ok" for p in report["body"]["probes"])
    capsys.readouterr()
    code = main(["verify", str(out)])
    captured = capsys.readouterr()
    assert code == 0, captured.out
    assert "FAIL" not in captured.out
    for probe in report["body"]["probes"]:
        assert f"PASS {probe['name']}" in captured.out


def test_corpus_covers_every_probe_kind(tmp_path):
    kinds = set()
    for name in GOOD_CONFIGS + ["cap_cells.cfg", "window_too_small.cfg"]:
        text = (CONFIG_DIR / name).read_text(encoding="utf-8")
        for line in text.splitlines():
            if line.startswith("kind =") and "probe" not in line:
                kinds.add(line.split("=", 1)[1].strip())
    assert set(PROBE_KINDS) <= kinds


def test_report_body_deterministic_across_threads(tmp_path, capsys):
    one = tmp_path / "t1.json"
    eight = tmp_path / "t8.json"
    assert main(["run", str(CONFIG_DIR / "z2_lattice.cfg"), "--out", str(one)]) == 0
    assert (
        main(
            [
                "run",
                str(CONFIG_DIR / "z2_lattice.cfg"),
                "--out",
                str(eight),
                "--threads",
                "8",
            ]
        )
        == 0
    )
    body_one = _read(one)["body"]
    body_eight = _read(eight)["body"]
    assert json.dumps(body_one, sort_keys=True) == json.dumps(body_eight, sort_keys=True)
    assert _read(one)["header"]["threads"] == 1
    assert _read(eight)["header"]["threads"] == 8


def test_tampered_report_fails_verification(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["run", str(CONFIG_DIR / "f2z_kernel.cfg"), "--out", str(out)]) == 0
    report = _read(out)
    probe = report["body"]["probes"][0]
    assert probe["kind"] == "f2z-example"
    probe["result"]["min_phi"] = "-5/2"
    out.write_text(json.dumps(report), encoding="utf-8")
    capsys.readouterr()
    code = main(["verify", str(out)])
    captured = capsys.readouterr()
    assert code == 4
    assert "FAIL recentre" in captured.out


def test_dropped_probe_fails_verification(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["run", str(CONFIG_DIR / "f2z_kernel.cfg"), "--out", str(out)]) == 0
    report = _read(out)
    report["body"]["probes"] = report["body"]["probes"][:1]
    out.write_text(json.dumps(report), encoding="utf-8")
    capsys.readouterr()
    code = main(["verify", str(out)])
    captured = capsys.readouterr()
    assert code == 4
    assert "FAIL" in captured.out and "(report)" in captured.out


RIPS_TRIANGLE = """\
[group]
free_rank = 2
names = a b
ball_cap = 8

[probe tri]
kind = rips-profile
n_max = 4
vertices = a, a^-1, b
"""


@pytest.mark.parametrize(
    "forest, code",
    [
        ([[0, 1], [1, 2]], 0),  # another spanning tree of the same graph
        ([[0, 1], [0, 3]], 4),  # index out of range
        ([[0, 1], [1, 1]], 4),  # a loop
        ([[0, 1], [0, 1]], 4),  # a repeated edge leaves a vertex out
    ],
)
def test_verify_checks_each_rips_forest_edge(tmp_path, capsys, forest, code):
    cfg = tmp_path / "tri.cfg"
    cfg.write_text(RIPS_TRIANGLE, encoding="utf-8")
    out = tmp_path / "report.json"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    report = _read(out)
    result = report["body"]["probes"][0]["result"]
    # pairwise distance 2: the triangle joins at scale 3
    assert result["threshold"] == 3
    assert result["forest_at_threshold"] == [[0, 1], [0, 2]]
    result["forest_at_threshold"] = forest
    out.write_text(json.dumps(report), encoding="utf-8")
    capsys.readouterr()
    assert main(["verify", str(out)]) == code
    assert ("PASS tri" if code == 0 else "FAIL tri") in capsys.readouterr().out


def test_verify_rejects_a_rips_forest_edge_beyond_the_threshold(tmp_path, capsys):
    cfg = tmp_path / "line.cfg"
    cfg.write_text(RIPS_TRIANGLE.replace("a, a^-1, b", "1, a, a^3"), encoding="utf-8")
    out = tmp_path / "report.json"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    report = _read(out)
    result = report["body"]["probes"][0]["result"]
    assert result["threshold"] == 3
    assert result["forest_at_threshold"] == [[0, 1], [1, 2]]
    # d(1, a^3) = 3 is not below the threshold
    result["forest_at_threshold"] = [[0, 1], [0, 2]]
    out.write_text(json.dumps(report), encoding="utf-8")
    capsys.readouterr()
    assert main(["verify", str(out)]) == 4
    assert "not a Rips edge" in capsys.readouterr().out


def test_cap_exceeded_exit_code(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["run", str(CONFIG_DIR / "cap_cells.cfg"), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 3
    assert "cap-exceeded" in captured.err
    report = _read(out)
    assert report["body"]["caps_hit"]
    statuses = {p["name"]: p["status"] for p in report["body"]["probes"]}
    assert statuses == {"fill-capped": "cap-exceeded", "corridor": "ok"}
    # the report is still verifiable: the capped probe has nothing to replay
    assert main(["verify", str(out)]) == 0


def test_runtime_failure_exit_code(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["run", str(CONFIG_DIR / "window_too_small.cfg"), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert "squeezed" in captured.err and "failed" in captured.err
    report = _read(out)
    statuses = {p["name"]: p["status"] for p in report["body"]["probes"]}
    assert statuses == {"squeezed": "failed", "corridor": "ok"}
    assert main(["verify", str(out)]) == 0


def test_output_section_supplies_default_path(tmp_path, capsys):
    target = tmp_path / "from_config.json"
    text = (CONFIG_DIR / "f2z_kernel.cfg").read_text(encoding="utf-8")
    text += f"\n[output]\npath = {target}\n"
    cfg = tmp_path / "with_output.cfg"
    cfg.write_text(text, encoding="utf-8")
    assert main(["run", str(cfg)]) == 0
    assert target.exists()


def test_report_to_stdout_without_output_path(tmp_path, capsys):
    code = main(["run", str(CONFIG_DIR / "f2z_kernel.cfg")])
    captured = capsys.readouterr()
    assert code == 0
    report = json.loads(captured.out)
    assert report["body"]["tool"] == "qmprobe"


def test_usage_errors():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 1
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 1
    with pytest.raises(SystemExit) as err:
        main(["explain", "astrology"])
    assert err.value.code == 1


def test_bad_thread_and_cap_flags(tmp_path, capsys):
    cfg = str(CONFIG_DIR / "f2z_kernel.cfg")
    assert main(["run", cfg, "--threads", "0"]) == 1
    assert main(["run", cfg, "--ball-cap", "-2"]) == 1
    capsys.readouterr()


def test_missing_config_is_a_validation_error(tmp_path, capsys):
    assert main(["run", str(tmp_path / "ghost.cfg")]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_ball_cap_override_can_invalidate_probes(capsys):
    # radius 4 probes no longer fit under a cap of 2
    code = main(["run", str(CONFIG_DIR / "free_brooks.cfg"), "--ball-cap", "2"])
    assert code == 2
    assert "ball cap" in capsys.readouterr().err


def test_verify_rejects_non_reports(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["verify", str(bad)]) == 2
    bad.write_text('{"body": {"schema": "other"}}', encoding="utf-8")
    assert main(["verify", str(bad)]) == 2
    assert main(["verify", str(tmp_path / "ghost.json")]) == 2
    capsys.readouterr()


def test_verify_deeply_nested_json_is_one_line_error(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    assert main(["verify", str(deep)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "nested too deeply" in err


@pytest.mark.parametrize("kind", sorted(PROBE_KINDS))
def test_explain_every_kind(capsys, kind):
    assert main(["explain", kind]) == 0
    out = capsys.readouterr().out
    assert kind in out.splitlines()[0]


def test_explain_defect_matches_the_stored_bounds(capsys):
    assert main(["explain", "defect"]) == 0
    out = capsys.readouterr().out
    assert "2 (|w| - 1)" not in out
    assert "no stored bound" in out


def test_module_entry_point(tmp_path):
    out = tmp_path / "report.json"
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "qmprobe",
            "run",
            str(CONFIG_DIR / "f2z_kernel.cfg"),
            "--out",
            str(out),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
