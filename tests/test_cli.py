"""The command line: run/verify round trips over the config corpus,
exit codes, determinism of report bodies, and tamper detection."""

import argparse
import functools
import hashlib
import importlib.util
import json
import os
import pathlib
import random
import re
import subprocess
import sys
import time
from collections import Counter

import pytest
from hypothesis import assume, given, settings, strategies as st

from qmprobe import intsolve, novikov
from qmprobe.cli import _build_parser, main
from qmprobe.config import load_experiment, parse_experiment
from qmprobe.errors import ConfigError, ReplayError
from qmprobe.exact import ExactReal
from qmprobe.groups import MAX_BALL_CAP, GroupModel, commutator
from qmprobe.intsolve import UnsatCertificate, check_unsat_certificate
from qmprobe.probes import KINDS, attempt, kind_module
from qmprobe.quasimorphisms import BrooksQM, HomomorphismQM
from qmprobe.report import dump_report, parse_cell, parse_path
from qmprobe.runner import run_experiment

from conftest import in_replayed_witness, paths_by_shape

ROOT = pathlib.Path(__file__).parent.parent
CONFIG_DIR = ROOT / "tests" / "configs"
BENCH_PINS = ROOT / "bench" / "pinned.json"
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


def _wrapped(text, wrapper):
    """text with every probe whose qm q gets a wrapper pointed at it, and
    the names of those probes: `wrapper(qm, q, kind)` is the new
    section's body, or None to leave the probe as it is."""
    exp = parse_experiment(text)
    added, names = {}, set()
    for probe in exp.probes:
        q = probe.raw.get("qm")
        body = q and wrapper(exp.quasimorphisms[q], q, probe.kind)
        if body:
            added[q] = body
            names.add(probe.name)
            text = re.sub(
                rf"(\[probe {re.escape(probe.name)}\][^[]*?^qm = ){re.escape(q)}$",
                rf"\g<1>wrapped_{q}",
                text,
                flags=re.M,
            )
    return text + "".join(
        f"\n[quasimorphism wrapped_{q}]\n{body}\n" for q, body in added.items()
    ), names


IDENTITIES = {
    # f2z-example requires a homomorphism, and a combination is not one
    "combination 1*q": lambda qm, q, kind: (
        None if kind == "f2z-example" else f"kind = combination\nterms = 1 * {q}"
    ),
    "homogenized of a homomorphism q": lambda qm, q, kind: (
        f"kind = homogenized\nbase = {q}" if isinstance(qm, HomomorphismQM) else None
    ),
}


@pytest.mark.parametrize(
    "name, identity",
    [
        (name, identity)
        for name in GOOD_CONFIGS
        for identity in sorted(IDENTITIES)
        # free_brooks has no homomorphism
        if (name, identity) != ("free_brooks.cfg", "homogenized of a homomorphism q")
    ],
)
def test_a_wrapped_quasimorphism_answers_as_itself(tmp_path, capsys, name, identity):
    """`combination 1*q` and `homogenized` of a homomorphism q are q, so
    each probe pointed at them keeps its status and result, apart from
    the keys that name the quasimorphism.  (Homogenizing a homogenized
    or a combination q is refused by design.)"""
    text = (CONFIG_DIR / name).read_text(encoding="utf-8")
    wrapped_text, names = _wrapped(text, IDENTITIES[identity])
    assert names
    bodies = []
    for i, cfg_text in enumerate((text, wrapped_text)):
        cfg, out = tmp_path / f"{i}.cfg", tmp_path / f"{i}.json"
        cfg.write_text(cfg_text, encoding="utf-8")
        assert main(["run", str(cfg), "--out", str(out)]) == 0, capsys.readouterr().err
        bodies.append(_read(out)["body"]["probes"])
    original, wrapped = bodies
    assert [p["name"] for p in wrapped] == [p["name"] for p in original]
    for before, after in zip(original, wrapped):
        if before["name"] in names:
            assert after["params"]["qm"] == "wrapped_" + before["params"]["qm"]
        assert after["status"] == before["status"] == "ok"
        for probe in (before, after):
            probe["result"].pop("qm", None)  # the quasimorphism's name
        assert after["result"] == before["result"]


# the config keys whose values are words
WORD_KEYS = ("word", "start", "target", "x", "scaling")


def _transported(text: str, a: str, b: str) -> str:
    """An F_2 config with the word of each word key sent through the
    automorphism that maps a and b to the letters spelt `a` and `b`."""
    model = GroupModel(2, generator_names=("a", "b"))
    images = [model.parse_element(a), model.parse_element(b)]

    def image(word):
        g = model.identity()
        for index, inverse in model.parse_word(word):
            g = g * (images[index].inverse() if inverse else images[index])
        return g.word_str() or "1"

    lines = []
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        lines.append(key + sep + (image(value) if key in WORD_KEYS else value))
    return "\n".join(lines) + "\n"


# the images of F_2's generators a, b under its 8 signed permutations,
# the identity first
SIGNED_PERMUTATIONS = [
    (x + ex, y + ey)
    for x, y in (("a", "b"), ("b", "a"))
    for ex in ("", "^-1")
    for ey in ("", "^-1")
]


# the bench scan config with its Rips ball cut to radius 3, its scans
# at radius {radius}, and its Brooks word and scaling element spelt as
# {word} and {c}
SCAN = """\
[group]
free_rank = 2
names = a b
ball_cap = 8

[quasimorphism psi]
kind = brooks
word = {word}

[quasimorphism psibar]
kind = homogenized
base = psi

[probe defect]
kind = defect
qm = psibar
radius = {radius}

[probe aker]
kind = aker-cert
qm = psibar
dstar = 1
radius = {radius}
scaling = {c}

[probe profile]
kind = rips-profile
n_max = 4
ball_radius = 3
"""

# (Brooks word, scaling element, radius): the bench scan's word at two
# radii, where the largest commutator and three-term values tie, and a
# word whose largest values differ at radius 2 (0 and 1)
SCAN_CASES = [
    pytest.param(("a b", "a b a^-1 b^-1", 3), id="3"),
    pytest.param(("a b", "a b a^-1 b^-1", 4), id="4"),
    pytest.param(("a a a b", "a a a b", 2), id="aaab-2"),
]


def _scan_experiment(case: tuple, a: str = "a", b: str = "b"):
    """The scan of `case` transported by the automorphism of F_2 that
    sends a and b to the letters spelt `a` and `b`."""
    word, c, radius = case
    return parse_experiment(_transported(SCAN.format(word=word, c=c, radius=radius), a, b))


def _scan_verdicts(case: tuple, a: str, b: str) -> dict:
    """The numbers of each scan probe that an automorphism of F_2 must
    keep, asked of the scan it transports."""
    exp = _scan_experiment(case, a, b)
    results = {}
    for probe in exp.probes:
        status, error, results[probe.name] = attempt(exp, probe)
        assert status == "ok", error
    defect, aker, profile = results["defect"], results["aker"], results["profile"]
    return {
        "defect": (defect["lower"], defect["witness_kind"]),
        "aker": (
            aker["passed"], len(aker["members"]), sum(m != 0 for m in aker["exponents"]),
        ),
        "profile": (profile["counts"], profile["threshold"]),
    }


def _scan_maxima(case: tuple) -> tuple:
    """The largest commutator value phi-bar([g, h]) and the largest
    three-term value |phi-bar(g) + phi-bar(h) - phi-bar(g h)| of the
    scan's quasimorphism over ball(radius)^2, pair by pair."""
    exp = _scan_experiment(case)
    qm = exp.quasimorphisms["psibar"]
    ball = exp.model.ball(case[2])
    values = [qm.value(g) for g in ball]
    commutators = max(qm.value(commutator(g, h)) for g in ball for h in ball)
    three_terms = max(
        abs(vg + vh - qm.value(g * h))
        for g, vg in zip(ball, values)
        for h, vh in zip(ball, values)
    )
    return commutators, three_terms


@pytest.mark.parametrize("case", SCAN_CASES)
def test_the_scan_kinds_answer_alike_under_every_signed_permutation(case):
    """Each of the 8 signed permutations of F_2's generators keeps the
    Cayley graph and every ball, so transporting the Brooks word and
    the scaling element through it keeps the defect bound, Aker's
    verdict, member count and nonzero exponents, and the Rips counts
    and threshold.  Where the largest commutator and three-term values
    differ it keeps the defect's witness kind too, the kind of the
    larger.  Where they tie, the kind reported is whichever comes first
    in the ball's canonical order, which a renaming moves: for a b at
    radius 3 it differs between images.  At radius 4 both values are 2
    as well, though every image happens to report three-term."""
    commutators, three_terms = _scan_maxima(case)
    tie = commutators == three_terms

    def verdicts(a, b):
        got = _scan_verdicts(case, a, b)
        assert got["defect"][0] == str(max(commutators, three_terms))
        if tie:
            got["defect"] = got["defect"][0]
        else:
            larger = "commutator" if commutators > three_terms else "three-term"
            assert got["defect"][1] == larger, (a, b)
        return got

    expected = verdicts("a", "b")
    assert expected["aker"][0] and expected["profile"][1] is not None
    for a, b in SIGNED_PERMUTATIONS[1:]:
        assert verdicts(a, b) == expected, (a, b)


@pytest.mark.parametrize("target", ["a b a b", "a^-1 b^-1 a b"])
def test_free_brooks_searches_answer_alike_under_every_signed_permutation(target):
    """free_brooks's path search and free-group obstruction, transported
    through each signed permutation of F_2's generators, keep what a
    renaming keeps.  The search keeps whether the target is found, the
    found path's length, and on a failure how many admissible vertices
    it exhausted; the path itself moves, since ties between shortest
    paths break by letter order.  The obstruction keeps every run's
    bounds, its maxima and whether they strictly increase, since a
    renaming maps each geodesic vertex to the image's in order.  Target
    a b a b is found at k = 0; a^-1 b^-1 a b is not."""
    text = (CONFIG_DIR / "free_brooks.cfg").read_text(encoding="utf-8")
    text = text.replace("target = a b a b", f"target = {target}")

    def verdicts(a, b):
        exp = parse_experiment(_transported(text, a, b))
        got = {}
        for probe in exp.probes:
            if probe.kind in ("path-search", "free-obstruction"):
                status, error, got[probe.kind] = attempt(exp, probe)
                assert status == "ok", error
        search, obstruction = got["path-search"], got["free-obstruction"]
        runs = obstruction["runs"]
        return (
            search["found"],
            len(search["path"]["letters"]) if search["found"] else search["explored"],
            [run["bounds"] for run in runs],
            [run["max_bound"] for run in runs],
            obstruction["maxima_strictly_increasing"],
        )

    expected = verdicts("a", "b")
    assert expected[:2] == ((True, 4) if target == "a b a b" else (False, 3))
    for a, b in SIGNED_PERMUTATIONS[1:]:
        assert verdicts(a, b) == expected, (a, b)


def _bench_workloads():
    """The benchmark's own `bench/workloads.py`, loaded without putting
    `bench/` on the import path."""
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "bench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def _bench_configs():
    """(workload, pin key, file name, config text) of every suite config,
    of the seed-0 scan and fill configs and of the scan and fill configs
    of seeds 1-3, whose renamings give the ball another order, read
    from the benchmark's own `bench/workloads.py`."""
    workloads = _bench_workloads()
    cases = [(workload, 0) for workload in ("suite", "scan", "fill")]
    cases += [(workload, seed) for workload in ("scan", "fill") for seed in (1, 2, 3)]
    return [
        pytest.param(
            workload,
            workloads.pin_key(workload, seed),
            name,
            text,
            id=f"{name}-seed{seed}" if seed else name,
        )
        for workload, seed in cases
        for name, text in workloads.configs(workload, seed, ROOT)
    ]


@pytest.mark.parametrize("workload, key, name, text", _bench_configs())
def test_report_body_and_exit_code_match_the_bench_pins(
    tmp_path, capsys, workload, key, name, text
):
    """Report bodies, run exits and verify exits are the ones the
    benchmark pinned."""
    pin = json.loads(BENCH_PINS.read_text(encoding="utf-8"))[workload][key][name]
    cfg, out = tmp_path / name, tmp_path / "report.json"
    cfg.write_text(text, encoding="utf-8")
    assert main(["run", str(cfg), "--out", str(out)]) == pin["run_exit"]
    body = json.dumps(_read(out)["body"], sort_keys=True, indent=2) + "\n"
    assert hashlib.sha256(body.encode("utf-8")).hexdigest() == pin["body_sha256"]
    assert main(["verify", str(out)]) == pin["verify_exit"]


def test_the_bench_scans_evaluate_one_position_per_orbit(monkeypatch):
    """Brooks hook calls of the defect and aker probes of the seed-0
    bench scan config, at radius 4: 7,753 and 7,105.  Evaluated at every
    position of the triangle, the defect scan made 21,991, and at one
    position per orbit 10,913; it now also reads the commutator of each
    column h^-1 off the column h of its row.  With the m = 0 test read
    only off the mirrored pair the Aker certificate made 13,666."""
    ((_, text),) = _bench_workloads().configs("scan", 0, ROOT)
    calls = []
    hnum = BrooksQM._hnum

    def counted(self, free, ab):
        calls.append(None)
        return hnum(self, free, ab)

    # HomogenizedQM binds the hook at construction, so patch before parsing
    monkeypatch.setattr(BrooksQM, "_hnum", counted)
    exp = parse_experiment(text)
    counts = {}
    for probe in exp.probes:
        if probe.kind in ("defect", "aker-cert"):
            assert probe.settings["radius"] == 4
            calls.clear()
            assert attempt(exp, probe)[0] == "ok"
            counts[probe.kind] = len(calls)
    assert counts["defect"] <= 8_000
    assert counts["aker-cert"] <= 7_500


def test_the_bench_fill_faces_evaluate_only_the_generators(monkeypatch):
    """Homomorphism hook calls of `enumerate_faces` on the seed-0 bench
    fill config, ball(6) of F_2 x Z: one per positive generator, 3.
    Evaluated once per base, the faces made 2,901, one per element."""
    import qmprobe.novikov
    from qmprobe.kinds.novikov_solve import _novikov_cycle
    from qmprobe.quasimorphisms import HomomorphismQM

    ((_, text),) = _bench_workloads().configs("fill", 0, ROOT)
    calls = []
    hnum = HomomorphismQM._hnum

    def counted(self, free, ab):
        calls.append(None)
        return hnum(self, free, ab)

    monkeypatch.setattr(HomomorphismQM, "_hnum", counted)
    exp = parse_experiment(text)
    (probe,) = exp.probes
    s = probe.settings
    cx, cycle = _novikov_cycle(exp, probe)
    floor = min(map(cx.value, cycle.chain))
    calls.clear()
    faces = qmprobe.novikov.enumerate_faces(cx, floor, s["window"], s["radius"])
    assert len(faces) == 2_704
    assert len(calls) <= 2 * exp.model.rank


def _count_constructors(monkeypatch):
    """Counts of the `groups._element` and `exact._make` calls made from
    now on, keyed "elements" and "values"."""
    import qmprobe.exact
    import qmprobe.groups

    counts = {"elements": 0, "values": 0}
    package = [m for n, m in sys.modules.items() if n.startswith("qmprobe")]
    for key, original in (
        ("elements", qmprobe.groups._element),
        ("values", qmprobe.exact._make),
    ):

        def counted(*args, _key=key, _original=original):
            counts[_key] += 1
            return _original(*args)

        # every module that bound the constructor by name reaches the counter
        for module in package:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return counts


def test_the_searches_build_elements_and_values_only_for_results(monkeypatch):
    """`groups._element` and `exact._make` calls of z2_lattice's
    q-library and peak-reduce probes.  With an element and an ExactReal
    per BFS neighbour, per edge-letter product and per compared value,
    the library made 2,627 elements and 628 values and the reduction
    3,034 and 689.  On normal forms and numerators they make 301 and
    125, and 323 and 136: fewer elements than the 360 vertices on the
    library's 16 paths.  An element and a value per BFS neighbour alone
    add about 100 of each.  The zs-cycle and novikov-solve paths are
    built from their letters: with each extracted or normalized path
    walked again from its vertices, and each chain edge multiplied out,
    they made 66 and 219 elements."""
    counts = _count_constructors(monkeypatch)
    exp = parse_experiment((CONFIG_DIR / "z2_lattice.cfg").read_text(encoding="utf-8"))
    bounds = {"q-library": 360, "peak-reduce": 360, "zs-cycle": 50, "novikov-solve": 192}
    seen = set()
    for probe in exp.probes:
        if probe.kind in bounds:
            counts.update(elements=0, values=0)
            assert attempt(exp, probe)[0] == "ok"
            assert counts["elements"] <= bounds[probe.kind], probe.kind
            assert counts["values"] <= 160, probe.kind
            seen.add(probe.kind)
    assert seen == set(bounds)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_corpus_covers_every_probe_kind(kind):
    kinds = set()
    for name in GOOD_CONFIGS + ["cap_cells.cfg", "window_too_small.cfg"]:
        text = (CONFIG_DIR / name).read_text(encoding="utf-8")
        for line in text.splitlines():
            if line.startswith("kind =") and "probe" not in line:
                kinds.add(line.split("=", 1)[1].strip())
    assert kind in kinds


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


def _letter_with_a_huge_exponent(res):
    res["path"]["letters"][0] = "a^300000"


def _letter_that_is_a_number(res):
    res["path"]["letters"][0] = 5


def _origin_with_huge_exponents(res):
    res["path"]["origin"] = "a^300000 a^-300000"


def _value_over_a_huge_surd_base(res):
    res["min_phi"] = "sqrt(1000000000000000003)"


def _defect_pair_with_huge_exponents(res):
    res["witness"][0] = "a^300000 a^-300000"


def _defect_pair_member_that_is_a_number(res):
    res["witness"][1] = 5


def _functional_cell_with_huge_exponents(res):
    res["certificate"]["functional"][0][0][1] = "a^300000 a^-300000"


def _functional_cell_based_at_a_number(res):
    res["certificate"]["functional"][0][0][1] = 5


@pytest.mark.parametrize(
    "config, name, tamper, fragment",
    [
        # f2z-example is re-derived, so its path and values are compared,
        # not parsed
        ("f2z_kernel.cfg", "recentre", _letter_with_a_huge_exponent, "path does not replay"),
        ("f2z_kernel.cfg", "recentre", _letter_that_is_a_number, "path does not replay"),
        ("f2z_kernel.cfg", "recentre", _origin_with_huge_exponents, "path does not replay"),
        ("f2z_kernel.cfg", "recentre", _value_over_a_huge_surd_base, "min_phi does not replay"),
        # a recorded witness is parsed, within the token bounds
        ("free_brooks.cfg", "defect-small", _defect_pair_with_huge_exponents,
         "word is longer than 5000 letters"),
        ("free_brooks.cfg", "defect-small", _defect_pair_member_that_is_a_number,
         "bad element payload 5"),
        ("free_unsat.cfg", "no-fill", _functional_cell_with_huge_exponents,
         "word is longer than 5000 letters"),
        ("free_unsat.cfg", "no-fill", _functional_cell_based_at_a_number,
         "malformed cell payload"),
    ],
)
def test_verify_fails_bad_payload_tokens_without_expanding_them(
    tmp_path, capsys, config, name, tamper, fragment
):
    out = tmp_path / "report.json"
    assert main(["run", str(CONFIG_DIR / config), "--out", str(out)]) == 0
    report = _read(out)
    tamper(_probe(report, name)["result"])
    code, printed = _verify_rewritten(out, report, capsys)
    assert code == 4
    assert f"FAIL {name}" in printed and fragment in printed


@pytest.mark.parametrize(
    "letter, fragment",
    [("a^300000", "not a single letter: 'a^300000'"), (5, "not a single letter: 5")],
)
def test_parse_path_refuses_a_letter_token_without_expanding_it(letter, fragment):
    model = GroupModel(free_rank=2, generator_names=("a", "b"), ball_cap=8)
    with pytest.raises(ReplayError) as err:
        parse_path(model, {"origin": "1", "letters": ["a", letter]})
    assert fragment in str(err.value)


def test_parse_path_refuses_an_origin_that_is_not_a_word():
    model = GroupModel(free_rank=2, generator_names=("a", "b"), ball_cap=8)
    with pytest.raises(ReplayError, match="malformed path payload"):
        parse_path(model, {"origin": 5, "letters": []})


@pytest.mark.parametrize(
    "old, new, fragment",
    [
        ("u = sqrt(2)", "u = sqrt(1000000000000000003)", "surd base must be at most 1000000"),
        ("target = a b a^-1 b^-1", "target = a^300000 a^-300000", "word is longer than 5000"),
    ],
)
def test_verify_refuses_an_oversized_echoed_config_in_one_line(tmp_path, capsys, old, new, fragment):
    out = tmp_path / "report.json"
    assert main(["run", str(CONFIG_DIR / "f2z_kernel.cfg"), "--out", str(out)]) == 0
    report = _read(out)
    assert old in report["body"]["config_echo"]
    report["body"]["config_echo"] = report["body"]["config_echo"].replace(old, new)
    out.write_text(json.dumps(report), encoding="utf-8")
    capsys.readouterr()
    assert main(["verify", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and fragment in err


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


def test_an_entry_named_after_no_configured_probe_fails_the_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["run", str(CONFIG_DIR / "f2z_kernel.cfg"), "--out", str(out)]) == 0
    report = _read(out)
    report["body"]["probes"][0]["name"] = "stranger"
    code, printed = _verify_rewritten(out, report, capsys)
    assert code == 4
    assert "stranger" not in printed
    assert (
        "FAIL (report) (-): probe entries are not the configured probes in config order"
        in printed
    )


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
    "forest",
    [
        [[0, 1], [1, 2]],  # another spanning tree of the same graph
        [[0, 1], [0, 3]],  # index out of range
        [[0, 1], [1, 1]],  # a loop
        [[0, 1], [0, 1]],  # a repeated edge leaves a vertex out
    ],
)
def test_verify_checks_each_rips_forest_edge(tmp_path, capsys, forest):
    cfg = tmp_path / "tri.cfg"
    cfg.write_text(RIPS_TRIANGLE, encoding="utf-8")
    out = tmp_path / "report.json"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    report = _read(out)
    result = report["body"]["probes"][0]["result"]
    # pairwise distance 2: the triangle joins at scale 3
    assert result["threshold"] == 3
    assert result["forest_at_threshold"] == [[0, 1], [0, 2]]
    # the forest is re-derived, so only the canonical one replays
    result["forest_at_threshold"] = forest
    code, printed = _verify_rewritten(out, report, capsys)
    assert code == 4
    assert "FAIL tri" in printed and "forest_at_threshold does not replay" in printed


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
    code, printed = _verify_rewritten(out, report, capsys)
    assert code == 4
    assert "FAIL tri" in printed and "forest_at_threshold does not replay" in printed


def _probe(report, name):
    return next(p for p in report["body"]["probes"] if p["name"] == name)


def _verify_rewritten(out, report, capsys):
    out.write_text(json.dumps(report), encoding="utf-8")
    capsys.readouterr()
    code = main(["verify", str(out)])
    return code, capsys.readouterr().out


def _bump_first_exponent(res):
    res["exponents"][0] += 1


def _drop_last_member(res):
    res["members"].pop()


def _raise_a_bound(res):
    res["runs"][2]["bounds"][11] = "2/1"


def _change_an_entry_minimum(res):
    res["entries"][0]["min_phi"] = "-11/1"


def _change_a_spliced_path(res):
    res["steps"][0]["path_after"]["letters"].pop()


def _negate_a_chain_coefficient(res):
    res["chain"]["terms"][0][1] *= -1


def _claim_an_upper_bound(res):
    res["upper"] = "1000/1"


def _claim_a_wider_scan(res):
    res["radius"] = 9


def _raise_the_floor_k(res):
    res["k"] = "100/1"


def _drop_the_extraction(res):
    res["extraction"] = None


def _replace_the_extraction_by_an_error(res):
    res["extraction"] = {"error": "x"}


def _rewrite_the_window(res):
    res["window"] = "7/1"


def _make_a_fill_coefficient_a_float(res):
    res["coefficients"][res["coefficients"].index(1)] = 1.0


def _make_a_functional_coefficient_a_float(res):
    res["certificate"]["functional"][0][1] = 1.5


def _make_the_modulus_a_float(res):
    res["certificate"]["modulus"] = 0.0


def _make_the_radius_a_float(res):
    res["radius"] = float(res["radius"])


def _make_passed_a_float(res):
    res["passed"] = float(res["passed"])


def _make_passed_an_int(res):
    res["passed"] = int(res["passed"])


def _drop_the_null_coefficients(res):
    assert res.pop("coefficients") is None


def _relabel_the_witness_kind(res):
    assert res["witness_kind"] == "commutator"
    res["witness_kind"] = "three-term"


def _make_the_solve_status_unknown(res):
    assert res["status"] == "unsat"
    res["status"] = "maybe"


def _empty_the_witness(res):
    res["witness"] = []


def _drop_the_solve_status(res):
    del res["status"]


def _claim_unsat_without_a_certificate(res):
    assert res["status"] == "sat"
    res["status"] = "unsat"
    del res["certificate"]


def _make_a_forest_index_false(res):
    assert res["forest_at_threshold"] == [[0, 1]]
    res["forest_at_threshold"] = [[False, 1]]


def _make_a_forest_index_true(res):
    assert res["forest_at_threshold"] == [[0, 1]]
    res["forest_at_threshold"] = [[0, True]]


@pytest.mark.parametrize(
    "config, name, tamper, fragment",
    [
        ("free_brooks.cfg", "aker", _bump_first_exponent, "exponents does not replay"),
        ("free_brooks.cfg", "aker", _drop_last_member, "members does not replay"),
        ("free_brooks.cfg", "conjugates", _raise_a_bound, "runs does not replay"),
        ("z2_lattice.cfg", "library", _change_an_entry_minimum, "entries does not replay"),
        ("z2_lattice.cfg", "flatten", _change_a_spliced_path, "steps does not replay"),
        ("z2_lattice.cfg", "zs", _negate_a_chain_coefficient, "chain does not replay"),
        ("free_brooks.cfg", "defect-small", _claim_an_upper_bound, "upper does not replay"),
        ("free_brooks.cfg", "defect-small", _claim_a_wider_scan, "radius does not replay"),
        # a string names the probe whose result replaces this one's
        ("free_brooks.cfg", "defect-small", "defect-doubled", "qm does not replay"),
        # the witness kind is recomputed from the pair, not read
        ("free_brooks.cfg", "defect-small", _relabel_the_witness_kind,
         "witness_kind does not replay"),
        ("free_brooks.cfg", "climb", _raise_the_floor_k, "k does not replay"),
        ("z2_lattice.cfg", "fill", _drop_the_extraction, "extraction does not replay"),
        ("z2_lattice.cfg", "fill", _replace_the_extraction_by_an_error,
         "extraction does not replay"),
        ("z2_lattice.cfg", "fill", _rewrite_the_window, "window does not replay"),
        ("z2_lattice.cfg", "fill", _make_a_fill_coefficient_a_float,
         "one integer coefficient per face is required"),
        ("free_unsat.cfg", "no-fill", _make_a_functional_coefficient_a_float,
         "certificate modulus and coefficients must be integers"),
        ("free_unsat.cfg", "no-fill", _make_the_modulus_a_float,
         "certificate modulus and coefficients must be integers"),
        # JSON 2 and 2.0, or true, 1 and 1.0, are different values
        ("free_brooks.cfg", "defect-small", _make_the_radius_a_float,
         "radius does not replay"),
        ("free_brooks.cfg", "aker", _make_passed_a_float, "passed does not replay"),
        ("free_brooks.cfg", "aker", _make_passed_an_int, "passed does not replay"),
        # a missing key is not the same as a null one
        ("free_unsat.cfg", "no-fill", _drop_the_null_coefficients,
         "coefficients does not replay"),
        ("free_brooks.cfg", "pair-profile", _make_a_forest_index_false,
         "forest_at_threshold does not replay"),
        ("free_brooks.cfg", "pair-profile", _make_a_forest_index_true,
         "forest_at_threshold does not replay"),
        ("free_unsat.cfg", "no-fill", _make_the_solve_status_unknown,
         "unknown solve status 'maybe'"),
        ("free_brooks.cfg", "defect-small", _empty_the_witness,
         "malformed or inconsistent payload: not enough values to unpack"),
        # a result key the replay reads is named when it is missing
        ("z2_lattice.cfg", "fill", _drop_the_solve_status,
         "malformed or inconsistent payload: missing key 'status'"),
        ("z2_lattice.cfg", "fill", _claim_unsat_without_a_certificate,
         "malformed or inconsistent payload: missing key 'certificate'"),
    ],
)
def test_verify_rederives_payloads(tmp_path, capsys, config, name, tamper, fragment):
    out = tmp_path / "report.json"
    assert main(["run", str(CONFIG_DIR / config), "--out", str(out)]) == 0
    report = _read(out)
    if isinstance(tamper, str):
        _probe(report, name)["result"] = _probe(report, tamper)["result"]
    else:
        tamper(_probe(report, name)["result"])
    code, printed = _verify_rewritten(out, report, capsys)
    assert code == 4
    assert f"FAIL {name}" in printed and fragment in printed


@pytest.mark.parametrize(
    "config, name, kind",
    [
        ("free_unsat.cfg", "no-fill", "novikov-solve"),
        ("free_brooks.cfg", "defect-small", "defect"),
        # a re-run kind, refused by the same check
        ("free_brooks.cfg", "aker", "aker-cert"),
    ],
)
def test_verify_refuses_a_result_that_is_not_an_object(tmp_path, capsys, config, name, kind):
    # one message on every interpreter, before a replay reads the result
    out = tmp_path / "report.json"
    assert main(["run", str(CONFIG_DIR / config), "--out", str(out)]) == 0
    report = _read(out)
    for result in ("1", None, []):
        _probe(report, name)["result"] = result
        code, printed = _verify_rewritten(out, report, capsys)
        assert code == 4
        assert (
            f"FAIL {name} ({kind}): malformed or inconsistent payload: result is not an object"
            in printed.splitlines()
        )


def test_a_solver_answer_that_does_not_replay_fails_the_probe(tmp_path, monkeypatch):
    # run puts the solver's filling through the same replay as verify
    monkeypatch.setattr("qmprobe.novikov.check_solution", lambda *args: False)
    out = tmp_path / "report.json"
    assert main(["run", str(CONFIG_DIR / "z2_lattice.cfg"), "--out", str(out)]) == 2
    probe = _probe(_read(out), "fill")
    assert probe["status"] == "failed"
    assert probe["error"] == "boundary of the filling does not match the cycle below the window"


def _solve_sizes(monkeypatch, tmp_path, text):
    """Run a config with one novikov-solve probe and return its result,
    the column count of every per-radius `solve_integer_system` call, in
    order, and that of every elimination."""
    sizes, eliminated = [], []
    solve, eliminate = intsolve.solve_integer_system, intsolve._eliminate

    def counted(columns, rhs):
        sizes.append(len(columns))
        return solve(columns, rhs)

    def counted_elimination(columns, rhs):
        eliminated.append(len(columns))
        return eliminate(columns, rhs)

    monkeypatch.setattr("qmprobe.novikov.solve_integer_system", counted)
    monkeypatch.setattr("qmprobe.intsolve._eliminate", counted_elimination)
    cfg, out = tmp_path / "solve.cfg", tmp_path / "report.json"
    cfg.write_text(text, encoding="utf-8")
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    probes = _read(out)["body"]["probes"]
    (probe,) = [p for p in probes if p["kind"] == "novikov-solve"]
    return probe["result"], sizes, eliminated


def _faces_within(result, k):
    model = GroupModel(free_rank=2, abelian_rank=1, generator_names=("a", "b", "u"))
    return sum(1 for face in result["faces"] if model.parse_element(face[1]).length() <= k)


@pytest.mark.parametrize(
    "seed, radii", [(0, (0, 1, 2)), (1, (0, 1, 2)), (2, (0, 1, 2, 4)), (3, (0, 1, 2, 4))]
)
def test_the_fill_solve_stops_at_the_first_sat_radius(monkeypatch, tmp_path, seed, radii):
    # the bench fill config has R = 6; with end = b or a (seeds 0, 1)
    # ball(2) already holds a filling, with end = b^-1 or a^-1 (seeds
    # 2, 3) ball(4) does
    ((_, text),) = _bench_workloads().configs("fill", seed, ROOT)
    result, sizes, eliminated = _solve_sizes(monkeypatch, tmp_path, text)
    assert result["status"] == "sat"
    assert sizes == [_faces_within(result, k) for k in radii]
    assert sizes[-1] < len(result["faces"])
    # every radius collapses to nothing, so no elimination runs
    assert eliminated == []


def test_z2_lattice_fills_without_the_elimination(monkeypatch, tmp_path):
    # R = 8 is solved at k = 0, 1, 2, 4 and 8, and the squares of Z^2
    # below the window collapse at each of them
    text = (CONFIG_DIR / "z2_lattice.cfg").read_text(encoding="utf-8")
    result, sizes, eliminated = _solve_sizes(monkeypatch, tmp_path, text)
    assert result["status"] == "sat" and len(sizes) == 5
    assert eliminated == []


# F_2 x Z with phi(a) = 1 and phi(b) = phi(u) = 0: phi vanishes on the
# centre, so no filling of its z exists at any radius
GEN = """\
[group]
free_rank = 2
abelian_rank = 1
names = a b u
ball_cap = 8

[quasimorphism phi]
kind = homomorphism
a = 1

[probe fill]
kind = novikov-solve
qm = phi
start = 1
end = b
scaling = a
window = 4
radius = 5
"""


def _unsat_f2z_text():
    # end = a b a b^-1 a^-2 has no filling at radius 3 (108 faces);
    # R = 3 is not a power of two, so the schedule is 0, 1, 2, 3
    ((_, text),) = _bench_workloads().configs("fill", 0, ROOT)
    return text.replace("end = b", "end = a b a b^-1 a^-2").replace(
        "radius = 6", "radius = 3"
    )


@pytest.mark.parametrize(
    "text, radii",
    [
        ((CONFIG_DIR / "free_unsat.cfg").read_text(encoding="utf-8"), None),
        (_unsat_f2z_text(), (0, 1, 2, 3)),
        (GEN, (0, 1, 2, 4, 5)),
    ],
    ids=["free_unsat.cfg", "f2z-unsat-radius3", "gen-R5"],
)
def test_an_unsat_verdict_comes_from_the_solve_over_every_face(monkeypatch, tmp_path, text, radii):
    result, sizes, eliminated = _solve_sizes(monkeypatch, tmp_path, text)
    assert result["status"] == "unsat"
    assert sizes[-1] == len(result["faces"])
    if radii:
        assert sizes == [_faces_within(result, k) for k in radii]
    # the collapse empties every radius, so no elimination runs, and
    # its certificate annihilates every face's column at R
    assert eliminated == []
    cx, z, faces, columns = _solve_system(text)
    assert len(faces) == len(result["faces"])
    cert = result["certificate"]
    functional = {parse_cell(cx, cell): k for cell, k in cert["functional"]}
    assert check_unsat_certificate(columns, z, UnsatCertificate(functional, cert["modulus"]))


def test_an_unsat_run_builds_each_trimmed_column_once(monkeypatch, tmp_path, capsys):
    """At radius 4 end = a b a b^-1 a^-2 has no filling over 330 faces:
    the schedule builds every face's trimmed column, and `settle` checks
    the certificate against those same columns, so `run` builds 330 of
    them, not 660; `verify` has no solve and builds them in `settle`."""
    built = []

    def counted(cx, faces, window):
        built.append(len(faces))
        return trimmed_columns(cx, faces, window)

    trimmed_columns = novikov._trimmed_columns
    monkeypatch.setattr(novikov, "_trimmed_columns", counted)
    ((_, text),) = _bench_workloads().configs("fill", 0, ROOT)
    cfg, out = tmp_path / "unsat.cfg", tmp_path / "report.json"
    cfg.write_text(
        text.replace("end = b", "end = a b a b^-1 a^-2").replace("radius = 6", "radius = 4"),
        encoding="utf-8",
    )
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    result = _read(out)["body"]["probes"][0]["result"]
    assert (result["status"], len(result["faces"]), sum(built)) == ("unsat", 330, 330)
    built.clear()
    assert main(["verify", str(out)]) == 0, capsys.readouterr().out
    assert built == [330]


def test_an_obstruction_with_a_zero_denominator_ends_at_validation(tmp_path, capsys):
    """With psi-bar(a b) every generator has phi-bar 0, so at D* = 0 the
    obstruction's denominator max_s |phi-bar(s)| + D* is 0.  The library
    refused it only when the probe ran, so `run` wrote a `failed` entry
    and `verify` passed it as failing again; validation now calls the
    library's own check, and both refuse the config in one line."""
    text = (
        "[group]\nfree_rank = 2\nnames = a b\n\n"
        "[quasimorphism psi]\nkind = brooks\nword = a b\n\n"
        "[quasimorphism psibar]\nkind = homogenized\nbase = psi\n\n"
        "[probe obs]\nkind = free-obstruction\nqm = psibar\nx = b\n"
        "scaling = a b\ndstar = 0\nmax_depth = 2\n"
    )
    refusal = "[probe obs]: max_s |phi-bar(s)| + D* must be positive\n"
    cfg, out = tmp_path / "obs.cfg", tmp_path / "report.json"
    cfg.write_text(text, encoding="utf-8")
    assert main(["run", str(cfg), "--out", str(out)]) == 2 and not out.exists()
    assert capsys.readouterr().err == "qmprobe: " + refusal
    out.write_text(
        json.dumps({"header": {}, "body": {"schema": "qmprobe-report-1", "config_echo": text}}),
        encoding="utf-8",
    )
    assert main(["verify", str(out)]) == 2
    assert capsys.readouterr().err == "qmprobe: echoed config no longer validates: " + refusal


def test_a_zs_cycle_with_s_equal_to_c_needs_no_search_ball(tmp_path, capsys):
    """For s = c the run searches nothing and returns the zero cycle by
    convention, so validation does not ask s c^n = c^(n + 1) to lie in
    ball(R): at depth 4 and radius 4 it did, and refused the config."""
    text = (
        "[group]\nabelian_rank = 2\nnames = a c\n\n"
        "[quasimorphism phi]\nkind = homomorphism\nc = 1\n\n"
        "[probe zs]\nkind = zs-cycle\nqm = phi\ns = c\nscaling = c\n"
        "depth = 4\nk = 1\nradius = 4\n"
    )
    cfg, out = tmp_path / "zs.cfg", tmp_path / "report.json"
    cfg.write_text(text, encoding="utf-8")
    assert main(["run", str(cfg), "--out", str(out)]) == 0, capsys.readouterr().err
    probe = _probe(_read(out), "zs")
    assert (probe["status"], probe["result"]["status"]) == ("ok", "zero-by-convention")
    assert probe["result"]["chain"] == {"dimension": 1, "window": None, "terms": []}
    assert main(["verify", str(out)]) == 0, capsys.readouterr().out


def test_the_extraction_cuts_the_residual_to_the_window_before_checking_levels():
    """phi(a) = 1 and phi(b) = 2 on F_1 x Z, window -1: the filling is
    minus the face at b^-1, whose value -2 is negative, so the residual
    is the edges (b^-1 a, b) and (1, a), at values -1 and 0.  Cut below
    the window it is empty, which cannot join the rays; checked for
    negative levels before the cut, (b^-1 a, b) would dip below 0."""
    text = (
        "[group]\nfree_rank = 1\nabelian_rank = 1\nnames = a b\n\n"
        "[quasimorphism phi]\nkind = homomorphism\na = 1\nb = 2\n\n"
        "[probe fill]\nkind = novikov-solve\nqm = phi\nstart = b^-1\nend = 1\n"
        "scaling = a\nwindow = -1\nradius = 3\n"
    )
    exp = parse_experiment(text)
    (probe,) = exp.probes
    status, error, result = attempt(exp, probe)
    assert (status, error, result["status"]) == ("ok", None, "sat")
    assert result["extraction"] == {"error": "empty residual support cannot connect the rays"}


# F_2 x Z with phi(a) = 1 and phi(u) = sqrt(2), scaling u: the ends
# u^2 and u^-1 lie on the start's own ray, and a^-1 sits below level 0
RAY_ENDS = """\
[group]
free_rank = 2
abelian_rank = 1
names = a b u

[quasimorphism phi]
kind = homomorphism
a = 1
u = sqrt(2)

[probe fill]
kind = novikov-solve
qm = phi
start = 1
end = {}
scaling = u
window = 4
radius = 4
"""


def _run_and_verify(tmp_path, capsys, text):
    """The result of the config's one probe, after `run` and `verify`
    both pass."""
    cfg, out = tmp_path / "fill.cfg", tmp_path / "report.json"
    cfg.write_text(text, encoding="utf-8")
    assert main(["run", str(cfg), "--out", str(out)]) == 0, capsys.readouterr().err
    assert main(["verify", str(out)]) == 0, capsys.readouterr().out
    return _read(out)["body"]["probes"][0]["result"]


@pytest.mark.parametrize(
    "end, letters, bound", [("u^2", ["u", "u"], "0/1"), ("u^-1", ["u^-1"], "0/1-1/1*sqrt(2)")]
)
def test_an_end_on_the_start_ray_extracts_the_ray_segment(tmp_path, capsys, end, letters, bound):
    """end = start c^k leaves an empty residual, which used to record
    `empty residual support cannot connect the rays`; the ray segment,
    k letters c or -k letters c^-1, joins the endpoints."""
    result = _run_and_verify(tmp_path, capsys, RAY_ENDS.format(end))
    assert result["status"] == "sat"
    assert result["extraction"] == {
        "bound": bound,
        "meets_bound": True,
        "min_phi": bound,
        "path": {"letters": letters, "origin": ""},
    }


def test_the_extraction_bound_reaches_down_to_the_lower_endpoint(tmp_path, capsys):
    """Every path to end = a^-1 reaches level -1, so the bound is
    min(0, phi-bar(start), phi-bar(end)) - D = -1, which the path
    u a^-1 u^-1 meets; against -D = 0 it read meets_bound = false."""
    result = _run_and_verify(tmp_path, capsys, RAY_ENDS.format("a^-1"))
    assert result["extraction"] == {
        "bound": "-1/1",
        "meets_bound": True,
        "min_phi": "-1/1",
        "path": {"letters": ["u", "a^-1", "u^-1"], "origin": ""},
    }


def test_a_fill_without_extraction_records_null_and_verifies(tmp_path, capsys):
    """`extract = no` keeps the filling and records `extraction: null`,
    and `verify` holds the recorded value to that."""
    result = _run_and_verify(tmp_path, capsys, RAY_ENDS.format("a^-1") + "extract = no\n")
    assert (result["status"], result["extraction"]) == ("sat", None)
    assert result["coefficients"]
    out = tmp_path / "report.json"
    report = _read(out)
    _probe(report, "fill")["result"]["extraction"] = {"error": "x"}
    code, printed = _verify_rewritten(out, report, capsys)
    assert code == 4
    assert "FAIL fill" in printed and "extraction does not replay" in printed


def test_extract_false_changes_only_the_extraction(tmp_path, capsys):
    """`extract = false` records `extraction: null` and every other
    result key as `extract = true` records it, and both verify."""
    kept, skipped = (
        _run_and_verify(tmp_path, capsys, RAY_ENDS.format("a^-1") + f"extract = {flag}\n")
        for flag in ("true", "false")
    )
    assert kept.pop("extraction") is not None and skipped.pop("extraction") is None
    assert skipped == kept


def test_a_zs_cycle_whose_high_path_is_not_found_verifies(tmp_path, capsys):
    """On Z^2 with phi = a + c, s = a, scaling c and depth 3, k = -5 asks
    the high path to stay at phi-bar >= 3 phi-bar(c) - k = 8, and its
    own start c^3 sits at 3: the search records why it found nothing,
    and the zs-cycle records no chain."""
    text = (
        "[group]\nabelian_rank = 2\nnames = a c\n\n"
        "[quasimorphism diag]\nkind = homomorphism\na = 1\nc = 1\n\n"
        "[probe zs]\nkind = zs-cycle\nqm = diag\ns = a\nscaling = c\n"
        "depth = 3\nk = -5\nradius = 4\n"
    )
    result = _run_and_verify(tmp_path, capsys, text)
    assert (result["status"], result["chain"], result["high_path"]) == ("not-found", None, None)
    assert (result["reason"], result["explored"]) == ("an endpoint violates the level constraint", 0)


def test_a_library_records_each_pair_it_cannot_connect(tmp_path, capsys):
    """F_2 with phi(a) = 1 and phi(b) = 10, scaling a at depth 4: within
    ball(6) eight of the sixteen pairs have no connecting path below
    their ceiling, and each is recorded with it."""
    text = (
        "[group]\nfree_rank = 2\nnames = a b\n\n"
        "[quasimorphism phi]\nkind = homomorphism\na = 1\nb = 10\n\n"
        "[probe library]\nkind = q-library\nqm = phi\ndstar = 1\nkprime = 3\n"
        "scaling = a\nradius = 6\ndepth = 4\n"
    )
    result = _run_and_verify(tmp_path, capsys, text)
    failures = [e["failure"] for e in result["entries"] if e["failure"]]
    unconnected = Counter(f for f in failures if f.startswith("no connecting path"))
    assert unconnected == {
        f"no connecting path below {ceiling}/1 within ball(6)": n
        for ceiling, n in (("-1", 4), ("8", 2), ("10", 1), ("19", 1))
    }
    assert result["complete"] is False


def _cross_probe_cases():
    fill = [
        pytest.param(_bench_workloads().configs("fill", seed, ROOT)[0][1], id=f"fill-seed{seed}")
        for seed in range(4)
    ]
    ends = [pytest.param(RAY_ENDS.format(end), id=f"end={end}") for end in ("u^2", "u^-1", "a^-1")]
    z2 = (CONFIG_DIR / "z2_lattice.cfg").read_text(encoding="utf-8")
    return fill + [pytest.param(z2, id="z2_lattice")] + ends


@pytest.mark.parametrize("text", _cross_probe_cases())
def test_a_path_search_finds_a_path_at_the_extraction_bound(text):
    """An extracted path that meets its bound stays at or above it, so
    a path-search with k = -bound between the same endpoints, in a ball
    that holds the path, finds a path."""
    exp = parse_experiment(text)
    (probe,) = [p for p in exp.probes if p.kind == "novikov-solve"]
    status, error, result = attempt(exp, probe)
    extraction = result["extraction"]
    assert (status, result["status"], extraction["meets_bound"]) == ("ok", "sat", True), error
    path = parse_path(exp.model, extraction["path"])
    s = probe.settings
    start, end = (x.word_str() or "1" for x in (s["start"], s["end"]))
    search = (
        f"\n[probe cross]\nkind = path-search\nqm = {s['qm']}\nstart = {start}\n"
        f"target = {end}\nk = {-ExactReal.parse(extraction['bound'])}\n"
        f"radius = {max(v.length() for v in path.vertices)}\n"
    )
    exp = parse_experiment(text + search)
    (cross,) = [p for p in exp.probes if p.name == "cross"]
    status, error, found = attempt(exp, cross)
    assert (status, found["found"]) == ("ok", True), error


def test_verify_rederives_a_failed_peak_reduce_claimed_ok(tmp_path, capsys):
    cfg = tmp_path / "z4.cfg"
    text = (CONFIG_DIR / "z2_lattice.cfg").read_text(encoding="utf-8")
    cfg.write_text(text.replace("radius = 30\nletters", "radius = 4\nletters"), encoding="utf-8")
    out = tmp_path / "report.json"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    report = _read(out)
    probe = _probe(report, "flatten")
    assert probe["status"] == "failed"
    assert probe["error"] == "no library path for the pair (c, a)"
    probe.update(status="ok", error=None, result={"steps": [], "final_height": 0})
    code, printed = _verify_rewritten(out, report, capsys)
    assert code == 4
    assert "FAIL flatten" in printed and "re-run gives failed" in printed


def test_verify_rejects_rips_vertices_swapped_for_another_set(tmp_path, capsys):
    cfg = tmp_path / "tri.cfg"
    cfg.write_text(RIPS_TRIANGLE, encoding="utf-8")
    out = tmp_path / "report.json"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    report = _read(out)
    result = report["body"]["probes"][0]["result"]
    assert result["vertices"] == ["a", "a^-1", "b"]
    # also canonical, with the same distances, profile and forest
    result["vertices"] = ["a", "a^-1", "b^-1"]
    code, printed = _verify_rewritten(out, report, capsys)
    assert code == 4
    assert "FAIL tri" in printed and "vertices does not replay" in printed


def test_verify_turns_a_cap_overrun_in_a_replay_into_a_fail(tmp_path, capsys):
    cfg = tmp_path / "big.cfg"
    cfg.write_text(RIPS_TRIANGLE.replace("vertices = a, a^-1, b", "ball_radius = 7"), encoding="utf-8")
    out = tmp_path / "report.json"
    assert main(["run", str(cfg), "--out", str(out)]) == 3
    report = _read(out)
    probe = report["body"]["probes"][0]
    assert probe["status"] == "cap-exceeded"
    # claim an ok profile over the 4,373 vertices of ball(7)
    model = GroupModel(free_rank=2, generator_names=("a", "b"), ball_cap=8)
    probe.update(status="ok", error=None, result={
        "vertices": [g.word_str() for g in model.ball(7)],
        "n_max": 4, "scales": [1, 2, 3, 4], "counts": [4373, 1, 1, 1],
        "threshold": 2, "forest_at_threshold": [],
    })
    report["body"]["caps_hit"] = []
    code, printed = _verify_rewritten(out, report, capsys)
    assert code == 4
    assert "FAIL tri" in printed and "cap" in printed


@pytest.mark.parametrize(
    "config, name, status, error, fragment",
    [
        ("free_brooks.cfg", "aker", "failed", "made up",
         "error does not replay; result does not replay; status does not replay"),
        ("cap_cells.cfg", "fill-capped", "cap-exceeded", "solver 2-cells: requested 2, cap 20",
         "error does not replay"),
    ],
)
def test_verify_reruns_probes_recorded_as_not_ok(
    tmp_path, capsys, config, name, status, error, fragment
):
    out = tmp_path / "report.json"
    assert main(["run", str(CONFIG_DIR / config), "--out", str(out)]) in (0, 3)
    report = _read(out)
    _probe(report, name).update(status=status, error=error, result=None)
    code, printed = _verify_rewritten(out, report, capsys)
    assert code == 4
    assert f"FAIL {name}" in printed and fragment in printed


def test_validation_value_error_is_a_one_line_config_error(tmp_path, capsys):
    cfg = tmp_path / "surds.cfg"
    cfg.write_text(
        "[group]\nfree_rank = 2\nabelian_rank = 1\nnames = a b u\nball_cap = 8\n\n"
        "[quasimorphism phi]\nkind = homomorphism\na = 1\nu = sqrt(2)\n\n"
        "[probe k]\nkind = aker-cert\nqm = phi\ndstar = sqrt(3)\nradius = 2\nscaling = u\n",
        encoding="utf-8",
    )
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "[probe k]" in err and "sqrt(3)" in err


def test_f2z_example_with_a_brooks_qm_is_a_one_line_config_error(tmp_path, capsys):
    cfg = tmp_path / "brooks.cfg"
    cfg.write_text(
        "[group]\nfree_rank = 2\nabelian_rank = 1\nnames = a b u\nball_cap = 8\n\n"
        "[quasimorphism psi]\nkind = brooks\nword = a b\n\n"
        "[probe k]\nkind = f2z-example\nqm = psi\nstart = 1\ntarget = b a b^-1 a^-1\n",
        encoding="utf-8",
    )
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "[probe k]" in err and "needs a homogeneous quasimorphism" in err


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
    # the report still verifies: the capped probe caps again when re-run
    assert main(["verify", str(out)]) == 0


@pytest.mark.parametrize("caps_hit", [[], ["corridor"], ["fill-capped", "fill-capped"]])
def test_verify_checks_caps_hit_against_the_capped_probes(tmp_path, capsys, caps_hit):
    out = tmp_path / "report.json"
    assert main(["run", str(CONFIG_DIR / "cap_cells.cfg"), "--out", str(out)]) == 3
    report = _read(out)
    assert report["body"]["caps_hit"] == ["fill-capped"]
    report["body"]["caps_hit"] = caps_hit
    code, printed = _verify_rewritten(out, report, capsys)
    assert code == 4
    assert "FAIL (report)" in printed and "caps_hit" in printed


def _set_group(key, value):
    def tamper(body):
        body["group"][key] = value

    return tamper


def _set_body(key, value):
    def tamper(body):
        body[key] = value

    return tamper


def _set_entry(name, key, value):
    def tamper(body):
        _probe({"body": body}, name)[key] = value

    return tamper


def _duplicate_the_first_entry(body):
    body["probes"].insert(1, body["probes"][0])


def _forge_a_result_for_the_capped_probe(body):
    entry = _probe({"body": body}, "fill-capped")
    entry["result"] = _probe({"body": body}, "corridor")["result"]


@pytest.mark.parametrize(
    "config, tamper, name, fragment",
    [
        ("free_brooks.cfg", _set_group("ball_cap", 9), "(report)", "group does not replay"),
        ("free_brooks.cfg", _set_group("ball_cap", 8.0), "(report)", "group does not replay"),
        ("free_brooks.cfg", _set_group("ball_cap", "x"), "(report)", "group does not replay"),
        ("free_brooks.cfg", _set_group("ball_cap", [8]), "(report)", "group does not replay"),
        ("free_brooks.cfg", _set_group("free_rank", 2.0), "(report)", "group does not replay"),
        ("free_brooks.cfg", _set_body("version", "0.0.0"), "(report)", "version does not replay"),
        ("free_brooks.cfg", _set_body("tool", "other"), "(report)", "tool does not replay"),
        ("free_brooks.cfg", _set_body("extra", 1), "(report)", "extra does not replay"),
        ("free_brooks.cfg", _duplicate_the_first_entry, "(report)",
         "probe entries are not the configured probes in config order"),
        ("free_brooks.cfg", _set_entry("aker", "error", "boom"), "aker", "error does not replay"),
        ("free_brooks.cfg", _set_entry("aker", "params", {}), "aker", "params does not replay"),
        ("free_brooks.cfg", _set_entry("aker", "kind", "defect"), "aker", "kind does not replay"),
        ("cap_cells.cfg", _forge_a_result_for_the_capped_probe, "fill-capped",
         "result does not replay"),
    ],
    ids=[
        "ball_cap-9", "ball_cap-8.0", "ball_cap-x", "ball_cap-list", "free_rank-2.0",
        "version", "tool", "extra-key", "duplicate-entry",
        "ok-entry-error", "entry-params", "entry-kind", "capped-entry-result",
    ],
)
def test_verify_rebuilds_the_body_and_every_entry(tmp_path, capsys, config, tamper, name, fragment):
    out = tmp_path / "report.json"
    assert main(["run", str(CONFIG_DIR / config), "--out", str(out)]) in (0, 3)
    report = _read(out)
    tamper(report["body"])
    code, printed = _verify_rewritten(out, report, capsys)
    assert code == 4
    assert f"FAIL {name}" in printed and fragment in printed


@pytest.mark.parametrize(
    "old, new",
    [
        ("dstar = 1\nradius = 2", "dstar = 1/0\nradius = 2"),
        ("k = 0", "k = 1/0"),
        ("terms = 2 * psibar", "terms = 1/0 * psibar"),
    ],
)
def test_a_zero_denominator_is_a_one_line_config_error(tmp_path, capsys, old, new):
    text = (CONFIG_DIR / "free_brooks.cfg").read_text(encoding="utf-8")
    assert old in text
    cfg, out = tmp_path / "zero.cfg", tmp_path / "report.json"
    cfg.write_text(text.replace(old, new), encoding="utf-8")
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "zero denominator" in err
    # the same config echoed in a report
    assert main(["run", str(CONFIG_DIR / "free_brooks.cfg"), "--out", str(out)]) == 0
    report = _read(out)
    report["body"]["config_echo"] = report["body"]["config_echo"].replace(old, new)
    out.write_text(json.dumps(report), encoding="utf-8")
    capsys.readouterr()
    assert main(["verify", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "zero denominator" in err


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("k = 0\n", "k = 0\nkmax = 2\n", "[probe climb]: unknown key 'kmax'"),
        (
            "qm = psibar\nradius = 2\n\n[probe defect-doubled]",
            "qm = psibar\nradius = 2\nclaimed_uper = 1/2\n\n[probe defect-doubled]",
            "[probe defect-small]: unknown key 'claimed_uper'",
        ),
        (
            "vertices = 1, a a a a a\n",
            "vertices = 1, a a a a a\nball_radius = 1\n",
            "[probe pair-profile]: unknown key 'ball_radius'",
        ),
    ],
)
def test_an_unread_key_is_a_one_line_config_error(tmp_path, capsys, old, new, message):
    text = (CONFIG_DIR / "free_brooks.cfg").read_text(encoding="utf-8")
    assert text.count(old) == 1
    cfg, out = tmp_path / "unread.cfg", tmp_path / "report.json"
    cfg.write_text(text.replace(old, new), encoding="utf-8")
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"qmprobe: {message}\n"
    assert not out.exists()
    # the same key echoed in a report
    assert main(["run", str(CONFIG_DIR / "free_brooks.cfg"), "--out", str(out)]) == 0
    report = _read(out)
    report["body"]["config_echo"] = report["body"]["config_echo"].replace(old, new)
    out.write_text(json.dumps(report), encoding="utf-8")
    capsys.readouterr()
    assert main(["verify", str(out)]) == 2
    assert capsys.readouterr().err == f"qmprobe: echoed config no longer validates: {message}\n"


@pytest.mark.parametrize("command, what", [("run", "config"), ("verify", "report")])
def test_a_file_that_is_not_utf8_is_a_one_line_error(tmp_path, capsys, command, what):
    path = tmp_path / "latin.txt"
    path.write_bytes(b"\xff\xfe[group]\n")
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"cannot read {what}" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "section",
    [
        "[quasimorphism mixed]\nkind = homomorphism\na = sqrt(2)\nb = sqrt(3)\n",
        "[quasimorphism mixed]\nkind = combination\nterms = sqrt(2) * psibar, sqrt(3) * psibar\n",
    ],
    ids=["homomorphism", "combination"],
)
def test_mixed_surds_are_a_one_line_config_error(tmp_path, capsys, section):
    text = (CONFIG_DIR / "free_brooks.cfg").read_text(encoding="utf-8")
    cfg, out = tmp_path / "mixed.cfg", tmp_path / "report.json"
    cfg.write_text(text + "\n" + section, encoding="utf-8")
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "qmprobe: [quasimorphism mixed]: cannot mix sqrt(2) and sqrt(3)\n"
    assert not out.exists()
    # the same section echoed in a report
    assert main(["run", str(CONFIG_DIR / "free_brooks.cfg"), "--out", str(out)]) == 0
    report = _read(out)
    report["body"]["config_echo"] += "\n" + section
    out.write_text(json.dumps(report), encoding="utf-8")
    capsys.readouterr()
    assert main(["verify", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "[quasimorphism mixed]: cannot mix sqrt(2) and sqrt(3)" in err


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


def test_bad_flags_are_usage_errors(tmp_path, capsys):
    cfg = str(CONFIG_DIR / "f2z_kernel.cfg")
    with pytest.raises(SystemExit) as err:
        main(["run", cfg, "--threads", "1"])  # not an option
    assert err.value.code == 1


def test_run_into_a_missing_directory_is_a_one_line_error(tmp_path, capsys):
    out = tmp_path / "missing" / "report.json"
    assert main(["run", str(CONFIG_DIR / "f2z_kernel.cfg"), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("qmprobe: cannot write report: ")
    assert not out.parent.exists()


def test_missing_config_is_a_validation_error(tmp_path, capsys):
    assert main(["run", str(tmp_path / "ghost.cfg")]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_verify_rejects_non_reports(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["verify", str(bad)]) == 2
    bad.write_text('{"body": {"schema": "other"}}', encoding="utf-8")
    assert main(["verify", str(bad)]) == 2
    assert main(["verify", str(tmp_path / "ghost.json")]) == 2
    capsys.readouterr()


def _first_entry_is_a_number(body):
    body["probes"][0] = 1


def _probes_as_an_object(body):
    body["probes"] = {"recentre": body["probes"][0]}


def _name_as_a_list(body):
    body["probes"][0]["name"] = ["recentre"]


@pytest.mark.parametrize(
    "malform", [_first_entry_is_a_number, _probes_as_an_object, _name_as_a_list]
)
def test_verify_malformed_probe_list_is_one_line_error(tmp_path, capsys, malform):
    out = tmp_path / "report.json"
    assert main(["run", str(CONFIG_DIR / "f2z_kernel.cfg"), "--out", str(out)]) == 0
    report = _read(out)
    malform(report["body"])
    out.write_text(json.dumps(report), encoding="utf-8")
    capsys.readouterr()
    assert main(["verify", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "report probes must be a list of objects" in err


def test_verify_deeply_nested_json_is_one_line_error(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    assert main(["verify", str(deep)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "nested too deeply" in err


def test_verify_an_overlong_integer_is_one_line_error(tmp_path, capsys):
    # json refuses to convert an integer of more than 4,300 digits
    long = tmp_path / "long.json"
    long.write_text('{"body": ' + "7" * 5_000 + "}", encoding="utf-8")
    assert main(["verify", str(long)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("qmprobe: report is not valid JSON: ")


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_explain_every_kind(capsys, kind):
    assert main(["explain", kind]) == 0
    out = capsys.readouterr().out
    assert kind in out.splitlines()[0]


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_a_kind_declares_validate_run_explain_and_replay_only_for_a_witness(kind):
    """A kind module holds its `validate`, `run` and `explain` text, and
    compares nothing: `verify` re-runs it, except `defect` and
    `novikov-solve`, whose `replay` puts the recorded witness where
    the search would be."""
    module = kind_module(kind)
    assert callable(module.validate) and callable(module.run)
    assert isinstance(module.explain, str)
    assert not hasattr(module, "check")
    assert hasattr(module, "replay") == (kind in ("defect", "novikov-solve"))
    assert callable(getattr(module, "replay", len))


def test_explain_defect_matches_the_stored_bounds(capsys):
    assert main(["explain", "defect"]) == 0
    out = capsys.readouterr().out
    assert "2 (|w| - 1)" not in out
    assert "no stored bound" in out


def test_every_constant_an_explain_text_names_is_the_module_value():
    """A constant an `explain` text names is one its kind's module checks
    with, and a value the text gives it is that constant's."""
    named = set()
    for kind in KINDS:
        module = kind_module(kind)
        for name in re.findall(r"\b[A-Z]+(?:_[A-Z]+)+\b", module.explain):
            assert isinstance(getattr(module, name, None), int), (kind, name)
            named.add(name)
        for name, value in re.findall(r"\b([A-Z]+(?:_[A-Z]+)+) = (\d+)", module.explain):
            assert int(value) == getattr(module, name), (kind, name)
    assert named == {
        "MAX_SCAN_PAIRS", "MAX_SEARCH_BALL", "MAX_SOLVE_BALL",
        "MAX_OBSTRUCTION_VERTICES", "MAX_OBSTRUCTION_LETTERS",
    }


def test_readme_cli_synopsis_names_the_argparse_options():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## CLI\n.*?```\n(.*?)```", readme, re.S).group(1)
    synopsis = {
        line.split()[1]: set(re.findall(r"--[\w-]+", line)) for line in block.splitlines()
    }
    parser = _build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {
        name: {o for a in p._actions for o in a.option_strings if o not in ("-h", "--help")}
        for name, p in sub.choices.items()
    }
    assert synopsis == options


def test_readme_explain_kinds_are_the_registry():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    listed = re.search(r"`explain` prints[^(]*\(([^)]*)\)", readme).group(1)
    assert re.findall(r"`([^`]+)`", listed) == sorted(KINDS)


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


def test_round_trip_and_tamper_check_under_python_dash_O(tmp_path):
    """`python -O` strips `assert`; every check `run` and `verify` rely
    on raises explicitly, so the round trip and a failed replay are the
    same under it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    out = tmp_path / "report.json"

    def qmprobe(*args):
        return subprocess.run(
            [sys.executable, "-O", "-m", "qmprobe", *args],
            env=env, capture_output=True, text=True,
        )

    proc = qmprobe("run", str(CONFIG_DIR / "free_brooks.cfg"), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    proc = qmprobe("verify", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = _read(out)
    report["body"]["probes"][0]["result"]["lower"] = "2/1"
    out.write_text(json.dumps(report), encoding="utf-8")
    proc = qmprobe("verify", str(out))
    assert proc.returncode == 4 and "FAIL defect-small" in proc.stdout


def test_a_collapse_solved_fill_round_trips_under_python_dash_O(tmp_path):
    """The seed-2 bench fill config is answered by the collapse at
    k = 4; under `python -O` its run and verify exit codes and its body
    digest are the pinned ones."""
    ((name, text),) = _bench_workloads().configs("fill", 2, ROOT)
    pin = _read(BENCH_PINS)["fill"][_bench_workloads().pin_key("fill", 2)][name]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    cfg, out = tmp_path / name, tmp_path / "report.json"
    cfg.write_text(text, encoding="utf-8")

    def qmprobe(*args):
        return subprocess.run(
            [sys.executable, "-O", "-m", "qmprobe", *args],
            env=env, capture_output=True, text=True,
        )

    proc = qmprobe("run", str(cfg), "--out", str(out))
    assert proc.returncode == pin["run_exit"], proc.stderr
    body = json.dumps(_read(out)["body"], sort_keys=True, indent=2) + "\n"
    assert hashlib.sha256(body.encode("utf-8")).hexdigest() == pin["body_sha256"]
    proc = qmprobe("verify", str(out))
    assert proc.returncode == pin["verify_exit"], proc.stdout + proc.stderr


def _within_a_second(*args):
    """`qmprobe *args` in a fresh process, which must end within a
    second."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "qmprobe", *args],
        env=env, capture_output=True, text=True, timeout=10,
    )
    assert time.monotonic() - start < 1.0
    return proc


def _run_within_a_second(tmp_path, text):
    """`qmprobe run` of the config `text` in a fresh process, which must
    end within a second; the process and the report path."""
    cfg, out = tmp_path / "hostile.cfg", tmp_path / "report.json"
    cfg.write_text(text, encoding="utf-8")
    return _within_a_second("run", str(cfg), "--out", str(out)), out


def test_a_scan_too_large_for_its_bound_ends_at_once(tmp_path):
    """A defect scan of ball(40) in F_4 x Z^2 is refused while the config
    is validated, from the counted ball size: one line, exit 2, well
    before any ball is built."""
    proc, out = _run_within_a_second(
        tmp_path,
        "[group]\nfree_rank = 4\nabelian_rank = 2\nball_cap = 40\n\n"
        "[quasimorphism psi]\nkind = brooks\nword = a b\n\n"
        "[quasimorphism psibar]\nkind = homogenized\nbase = psi\n\n"
        "[probe d]\nkind = defect\nqm = psibar\nradius = 40\n",
    )
    assert proc.returncode == 2 and not out.exists()
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith("qmprobe: [probe d]: defect at radius 40 scans ")
    assert "more than MAX_SCAN_PAIRS" in proc.stderr


def test_a_novikov_ball_too_large_for_its_bound_ends_at_once(tmp_path):
    """The bench fill config at radius 30 would enumerate the faces over
    8.2e14 elements: its ball is counted while the config is validated,
    and `run` and `verify` both end with one line and exit 2."""
    ((_, text),) = _bench_workloads().configs("fill", 0, ROOT)
    text = text.replace("ball_cap = 8", "ball_cap = 30").replace("radius = 6", "radius = 30")
    refusal = (
        "[probe fill]: novikov-solve at radius 30 enumerates 823564528378533 ball "
        "elements, more than MAX_SOLVE_BALL = 50000\n"
    )
    proc, out = _run_within_a_second(tmp_path, text)
    assert proc.returncode == 2 and not out.exists()
    assert proc.stderr == "qmprobe: " + refusal
    out.write_text(
        json.dumps({"header": {}, "body": {"schema": "qmprobe-report-1", "config_echo": text}}),
        encoding="utf-8",
    )
    proc = _within_a_second("verify", str(out))
    assert proc.returncode == 2
    assert proc.stderr == "qmprobe: echoed config no longer validates: " + refusal


def test_a_search_too_large_for_its_bound_ends_at_once(tmp_path):
    """A path-search from a^20 to b^20 in F_2 at radius 40 would walk a
    ball of 2.4e19 elements and ran until killed: its ball is counted
    while the config is validated, and `run` and `verify` both end with
    one line and exit 2."""
    text = (
        "[group]\nfree_rank = 2\nnames = a b\nball_cap = 40\n\n"
        "[quasimorphism phi]\nkind = homomorphism\na = 1\n\n"
        "[probe climb]\nkind = path-search\nqm = phi\nstart = a^20\ntarget = b^20\n"
        "k = 100\nradius = 40\n"
    )
    refusal = (
        "[probe climb]: path-search at radius 40 searches 24315330918113857601 ball "
        "elements, more than MAX_SEARCH_BALL = 200000\n"
    )
    proc, out = _run_within_a_second(tmp_path, text)
    assert proc.returncode == 2 and not out.exists()
    assert proc.stderr == "qmprobe: " + refusal
    out.write_text(
        json.dumps({"header": {}, "body": {"schema": "qmprobe-report-1", "config_echo": text}}),
        encoding="utf-8",
    )
    proc = _within_a_second("verify", str(out))
    assert proc.returncode == 2
    assert proc.stderr == "qmprobe: echoed config no longer validates: " + refusal


def test_an_obstruction_too_deep_for_its_bound_ends_at_once(tmp_path):
    """A free-obstruction on psi-bar(a b) with x = b and c = a b to depth
    100,000 would walk 2e10 geodesic vertices and ran until killed: the
    vertices are counted while the config is validated, and `run` and
    `verify` both end with one line and exit 2.  free_brooks.cfg walks
    up to 57 at depth 3, 39,897 at depth 99 and 40,700 at depth 100."""
    text = (
        "[group]\nfree_rank = 2\nnames = a b\nball_cap = 100000\n\n"
        "[quasimorphism psi]\nkind = brooks\nword = a b\n\n"
        "[quasimorphism psibar]\nkind = homogenized\nbase = psi\n\n"
        "[probe conjugates]\nkind = free-obstruction\nqm = psibar\nx = b\n"
        "scaling = a b\ndstar = 1\nmax_depth = 100000\n"
    )
    refusal = (
        "[probe conjugates]: free-obstruction at max_depth 100000 walks up to "
        "20000500000 geodesic vertices, more than MAX_OBSTRUCTION_VERTICES = 40000\n"
    )
    proc, out = _run_within_a_second(tmp_path, text)
    assert proc.returncode == 2 and not out.exists()
    assert proc.stderr == "qmprobe: " + refusal
    out.write_text(
        json.dumps({"header": {}, "body": {"schema": "qmprobe-report-1", "config_echo": text}}),
        encoding="utf-8",
    )
    proc = _within_a_second("verify", str(out))
    assert proc.returncode == 2
    assert proc.stderr == "qmprobe: echoed config no longer validates: " + refusal
    brooks = (CONFIG_DIR / "free_brooks.cfg").read_text(encoding="utf-8")
    brooks = brooks.replace("ball_cap = 8", "ball_cap = 100")
    parse_experiment(brooks.replace("max_depth = 3", "max_depth = 99"))
    with pytest.raises(ConfigError, match=" walks up to 40700 geodesic vertices, "):
        parse_experiment(brooks.replace("max_depth = 3", "max_depth = 100"))


def test_an_obstruction_reading_too_many_letters_ends_at_once(tmp_path):
    """A free-obstruction with x = b and c = (a b)^2500, 5,000 letters,
    walks 30,006 geodesic vertices to depth 2, within
    MAX_OBSTRUCTION_VERTICES, and took 33 s, since each vertex is read
    in time linear in its length: the letters are counted while the
    config is validated, and `run` and `verify` both end with one line
    and exit 2."""
    text = (
        "[group]\nfree_rank = 2\nnames = a b\n\n"
        "[quasimorphism psi]\nkind = brooks\nword = a b\n\n"
        "[quasimorphism psibar]\nkind = homogenized\nbase = psi\n\n"
        "[probe conjugates]\nkind = free-obstruction\nqm = psibar\nx = b\n"
        f"scaling = {' '.join(['a b'] * 2500)}\ndstar = 1\nmax_depth = 2\n"
    )
    refusal = (
        "[probe conjugates]: free-obstruction at max_depth 2 reads up to "
        "500120006 letters, more than MAX_OBSTRUCTION_LETTERS = 25000000\n"
    )
    proc, out = _run_within_a_second(tmp_path, text)
    assert proc.returncode == 2 and not out.exists()
    assert proc.stderr == "qmprobe: " + refusal
    out.write_text(
        json.dumps({"header": {}, "body": {"schema": "qmprobe-report-1", "config_echo": text}}),
        encoding="utf-8",
    )
    proc = _within_a_second("verify", str(out))
    assert proc.returncode == 2
    assert proc.stderr == "qmprobe: echoed config no longer validates: " + refusal


def test_a_library_counts_one_search_per_pair():
    """z2_lattice's library searches ball(30) of Z^2, 1,861 elements,
    once for each of the 16 ordered generator pairs; at radius 80 the 16
    searches would span 207,376 elements."""
    text = (CONFIG_DIR / "z2_lattice.cfg").read_text(encoding="utf-8")
    text = text.replace("ball_cap = 40", "ball_cap = 80").replace("radius = 30", "radius = 80")
    with pytest.raises(ConfigError) as info:
        parse_experiment(text)
    assert str(info.value) == (
        "[probe library]: q-library at radius 80 searches 207376 ball elements in 16 runs, "
        "more than MAX_SEARCH_BALL = 200000"
    )


def test_a_ball_cap_above_its_bound_ends_at_once(tmp_path):
    """A rips-profile of two vertices with ball_cap = n_max = 10^9 would
    allocate per scale before measuring a pair: the cap is refused when
    [group] is read, and `run` and `verify` both end with one line and
    exit 2."""
    text = (
        "[group]\nfree_rank = 2\nnames = a b\nball_cap = 1000000000\n\n"
        "[probe r]\nkind = rips-profile\nvertices = 1, a\nn_max = 1000000000\n"
    )
    refusal = f"[group]: ball_cap 1000000000 is more than MAX_BALL_CAP = {MAX_BALL_CAP}\n"
    proc, out = _run_within_a_second(tmp_path, text)
    assert proc.returncode == 2 and not out.exists()
    assert proc.stderr == "qmprobe: " + refusal
    out.write_text(
        json.dumps({"header": {}, "body": {"schema": "qmprobe-report-1", "config_echo": text}}),
        encoding="utf-8",
    )
    proc = _within_a_second("verify", str(out))
    assert proc.returncode == 2
    assert proc.stderr == "qmprobe: echoed config no longer validates: " + refusal


@functools.lru_cache(maxsize=None)
def _z2_lattice_report() -> str:
    return dump_report(run_experiment(load_experiment(str(CONFIG_DIR / "z2_lattice.cfg"))))


def _mutated_z2_lattice(under: tuple, seed: int) -> tuple[dict, tuple]:
    """The report `run` writes for z2_lattice.cfg with one node at or
    below `under` dropped, retyped or changed, and the node's path.  The
    seed draws the node by shape, so that every key below `under` is as
    likely as a face in a long list, and then what is done to it."""
    rng = random.Random(seed)
    report = json.loads(_z2_lattice_report())
    shapes = {}
    for shape, paths in paths_by_shape(report).items():
        below = [path for path in paths if path[: len(under)] == under]
        if below:
            shapes[shape] = below
    path = rng.choice(shapes[rng.choice(sorted(shapes, key=repr))])
    parent = report
    for key in path[:-1]:
        parent = parent[key]
    node = parent[path[-1]]
    op = rng.choice((["drop"] if isinstance(parent, dict) else []) + ["retype", "change"])
    if op == "drop":
        del parent[path[-1]]
    elif op == "change" and isinstance(node, bool):
        parent[path[-1]] = not node
    elif op == "change" and isinstance(node, int):
        parent[path[-1]] = node + rng.choice([-1, 1, 2])
    elif op == "change" and isinstance(node, str):
        parent[path[-1]] = node + rng.choice(["a", "^-1", "1", " "])
    else:
        others = [v for v in (None, True, 0, "x", [], {}) if type(v) is not type(node)]
        parent[path[-1]] = rng.choice(others)
    return report, path


# where each seed mutates the z2_lattice report: the header, the config
# echo, a probe entry's status, the fill's replayed filling and the rest
# of its result, and the zs-cycle's re-run result
_MUTATED_AT = [
    ("header",),
    ("body", "config_echo"),
    ("body", "probes", 1, "status"),
    ("body", "probes", 5, "result", "coefficients"),
    ("body", "probes", 5, "result"),
    ("body", "probes", 4, "result"),
]


@pytest.mark.parametrize(
    "seed, under", enumerate(_MUTATED_AT), ids=["/".join(map(str, u)) for u in _MUTATED_AT]
)
def test_a_mutated_report_ends_at_once_in_an_exit_code(tmp_path, seed, under):
    """`python -m qmprobe verify` of a mutated report ends within a
    second, with an exit code in 0-4, one line at most on stderr and no
    traceback, and passes only a header change or a witness it
    replays."""
    report, path = _mutated_z2_lattice(under, seed)
    out = tmp_path / "report.json"
    out.write_text(json.dumps(report), encoding="utf-8")
    proc = _within_a_second("verify", str(out))
    assert proc.returncode in range(5), (path, proc.stderr)
    assert proc.stderr.count("\n") <= 1 and "Traceback" not in proc.stderr, path
    if proc.returncode == 0:
        recorded = json.loads(_z2_lattice_report())
        assert path[0] == "header" or in_replayed_witness(recorded, path), path


# sha256 of the body of the seed-0 bench fill config with each window,
# serialized as the bench pins are
FILL_WINDOW_BODIES = {
    "3 + sqrt(2)": "6eed7c59f1f7b9230f7e72bf81db3ac89bcda5b0ebb76d4ba6969a0034e45db8",
    "7/2": "642621cc2a8fa6e8a0c52de6459061121b2b8f5153ca2e2aefc42900e9f9a4b2",
}


@pytest.mark.parametrize("window", ["4 + sqrt(3)", *FILL_WINDOW_BODIES])
def test_the_fill_window_may_not_mix_surd_bases(tmp_path, capsys, window):
    """phi(u) = sqrt(2) against a sqrt(3) window is refused; a sqrt(2)
    window and a rational one give their pinned bodies."""
    ((_, text),) = _bench_workloads().configs("fill", 0, ROOT)
    cfg, out = tmp_path / "fill.cfg", tmp_path / "report.json"
    cfg.write_text(text.replace("window = 4", f"window = {window}"), encoding="utf-8")
    code = main(["run", str(cfg), "--out", str(out)])
    err = capsys.readouterr().err
    if window not in FILL_WINDOW_BODIES:
        assert code == 2 and not out.exists()
        assert err == "qmprobe: [probe fill]: window: cannot mix sqrt(2) and sqrt(3)\n"
        return
    assert code == 0, err
    body = json.dumps(_read(out)["body"], sort_keys=True, indent=2) + "\n"
    assert hashlib.sha256(body.encode("utf-8")).hexdigest() == FILL_WINDOW_BODIES[window]
    assert main(["verify", str(out)]) == 0


# F_2 x Z with phi(u) = sqrt(2), and for each kind the keys of a probe
# that runs to `ok`; each level bound below is set in turn to its value
# plus sqrt(3)
SURD_PHI = """\
[group]
free_rank = 2
abelian_rank = 1
names = a b u
ball_cap = 8

[quasimorphism phi]
kind = homomorphism
a = 1
u = sqrt(2)

[probe p]
qm = phi
"""
SURD_PROBES = {
    "novikov-solve": {
        "start": "1", "end": "b", "scaling": "u", "window": "4", "radius": "2",
        "slack": "1", "defect": "1",
    },
    "path-search": {"start": "1", "target": "a", "radius": "2", "k": "1", "k_max": "1"},
    "zs-cycle": {
        "s": "a", "scaling": "u", "depth": "1", "radius": "2", "k": "1", "defect": "1",
    },
}


@pytest.mark.parametrize(
    "kind, key",
    [
        ("novikov-solve", "window"),
        ("novikov-solve", "slack"),
        ("novikov-solve", "defect"),
        ("path-search", "k"),
        ("path-search", "k_max"),
        ("zs-cycle", "k"),
        ("zs-cycle", "defect"),
    ],
)
def test_a_level_bound_in_another_surd_base_is_a_config_error(tmp_path, capsys, kind, key):
    """Each exact key the run holds phi-bar's values against is refused
    in another surd base when the config is validated: one line naming
    the probe and the key, phi-bar's base first, exit 2 and no report.
    The same probe with the rational value runs."""
    cfg, out = tmp_path / "p.cfg", tmp_path / "report.json"

    def run(value: str) -> tuple[int, str]:
        keys = dict(SURD_PROBES[kind], kind=kind, **{key: value})
        text = SURD_PHI + "".join(f"{k} = {v}\n" for k, v in keys.items())
        cfg.write_text(text, encoding="utf-8")
        return main(["run", str(cfg), "--out", str(out)]), capsys.readouterr().err

    code, err = run(SURD_PROBES[kind][key])
    assert code == 0, err
    out.unlink()
    code, err = run(SURD_PROBES[kind][key] + " + sqrt(3)")
    assert code == 2 and not out.exists()
    assert err == f"qmprobe: [probe p]: {key}: cannot mix sqrt(2) and sqrt(3)\n"


# Z^2 with the rational phi(a) = phi(c) = 1, under which no level key
# is refused on its own
RATIONAL_PHI = """\
[group]
abelian_rank = 2
names = a c
ball_cap = 8

[quasimorphism phi]
kind = homomorphism
a = 1
c = 1

[probe p]
qm = phi
"""
RATIONAL_PROBES = {
    "novikov-solve": {
        "start": "1", "end": "a", "scaling": "c", "window": "4", "radius": "2",
        "slack": "0", "defect": "0",
    },
    "zs-cycle": {"s": "a", "scaling": "c", "depth": "3", "radius": "8", "k": "1", "defect": "0"},
}


@pytest.mark.parametrize(
    "kind, levels, message",
    [
        ("novikov-solve", {"window": "4 + sqrt(3)", "defect": "sqrt(2)"},
         "window: cannot mix sqrt(2) and sqrt(3)"),
        ("novikov-solve", {"slack": "sqrt(3)", "defect": "sqrt(2)"},
         "slack: cannot mix sqrt(2) and sqrt(3)"),
        ("novikov-solve", {"window": "4 + sqrt(3)", "slack": "sqrt(2)"},
         "window: cannot mix sqrt(2) and sqrt(3)"),
        ("zs-cycle", {"k": "1 + sqrt(3)", "defect": "sqrt(2)"},
         "k: cannot mix sqrt(2) and sqrt(3)"),
    ],
)
def test_levels_a_probe_combines_share_one_surd_base(tmp_path, capsys, kind, levels, message):
    """With a rational phi-bar each level key may take any surd base,
    but the keys a kind adds to each other must share one: a mix is one
    line naming the probe and the later key read, exit 2 and no report.
    Each key alone in its base runs and verifies."""
    cfg, out = tmp_path / "p.cfg", tmp_path / "report.json"

    def run(**changed) -> tuple[int, str]:
        keys = dict(RATIONAL_PROBES[kind], kind=kind, **changed)
        cfg.write_text(RATIONAL_PHI + "".join(f"{k} = {v}\n" for k, v in keys.items()),
                       encoding="utf-8")
        return main(["run", str(cfg), "--out", str(out)]), capsys.readouterr().err

    code, err = run(**levels)
    assert code == 2 and not out.exists()
    assert err == f"qmprobe: [probe p]: {message}\n"
    for key, value in levels.items():
        code, err = run(**{key: value})
        assert code == 0, err
        assert main(["verify", str(out)]) == 0
        out.unlink()


def test_a_path_search_takes_k_and_k_max_in_different_surd_bases(tmp_path, capsys):
    """path-search compares k and k_max with phi-bar but never adds them,
    so under a rational phi-bar they may lie in different bases."""
    cfg, out = tmp_path / "p.cfg", tmp_path / "report.json"
    keys = {"kind": "path-search", "start": "a", "target": "c", "radius": "3",
            "k": "-1 + sqrt(3)", "k_max": "4 + sqrt(2)"}
    cfg.write_text(RATIONAL_PHI + "".join(f"{k} = {v}\n" for k, v in keys.items()),
                   encoding="utf-8")
    assert main(["run", str(cfg), "--out", str(out)]) == 0, capsys.readouterr().err
    assert _probe(_read(out), "p")["status"] == "ok"
    assert main(["verify", str(out)]) == 0


def test_a_mixed_surd_window_is_refused_before_the_path_is_tested():
    """With end = u^-1 the connecting edge (u^-1, u) has the value
    -sqrt(2); the window 4 + sqrt(3) is refused when the config is
    validated, naming phi-bar's base first as it does for end = b."""
    ((_, text),) = _bench_workloads().configs("fill", 0, ROOT)
    text = text.replace("window = 4", "window = 4 + sqrt(3)").replace("end = b", "end = u^-1")
    message = r"^\[probe fill\]: window: cannot mix sqrt\(2\) and sqrt\(3\)$"
    with pytest.raises(ConfigError, match=message):
        parse_experiment(text)


# a genuine quasimorphism potential, phi + 1/4 psi-bar with psi =
# Brooks(a b), whose faces are decided by their corners' minimum
CORNER = """\
[group]
free_rank = 2
abelian_rank = 1
names = a b u
ball_cap = 8

[quasimorphism phi]
kind = homomorphism
a = 1
u = sqrt(2)

[quasimorphism psi]
kind = brooks
word = a b

[quasimorphism psibar]
kind = homogenized
base = psi

[quasimorphism pot]
kind = combination
terms = 1*phi, 1/4*psibar

[probe fill]
kind = novikov-solve
qm = pot
start = 1
end = a b a b^-1 a^-2
scaling = u
window = 4
radius = 5
defect = 1
"""


def test_the_corner_potential_keeps_its_pinned_body(tmp_path, capsys):
    """The corner config is unsat over 974 faces at radius 5; its body,
    serialized as the bench pins are, keeps its digest."""
    cfg, out = tmp_path / "corner.cfg", tmp_path / "report.json"
    cfg.write_text(CORNER, encoding="utf-8")
    assert main(["run", str(cfg), "--out", str(out)]) == 0, capsys.readouterr().err
    body = _read(out)["body"]
    result = body["probes"][0]["result"]
    assert (result["status"], len(result["faces"])) == ("unsat", 974)
    text = json.dumps(body, sort_keys=True, indent=2) + "\n"
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "b52af04c2d2e733075a39f704a072fc83d5fec64e483148cf0f4654a3b194496"
    )
    assert main(["verify", str(out)]) == 0


def test_the_corner_faces_evaluate_each_corner_once(monkeypatch, tmp_path):
    """Elements, values and Brooks hook calls of the corner config's
    face enumeration and trimmed columns at radius 5.  Taking each
    cell's corner minimum as an ExactReal, the enumeration made 9,590
    elements, 7,672 values and 7,672 Brooks calls, and the columns 8,142,
    5,220 and 5,220.  On numerators they build no element and no value,
    and evaluate each distinct corner normal form once: 2,900 and 1,646
    calls.  With a fresh dict of forms for each pass, a whole `run` made
    5,158 calls over 2,905 forms and a whole `verify` 4,585; with one
    per complex they make 2,970 each."""
    import qmprobe.novikov
    from qmprobe.kinds.novikov_solve import _novikov_cycle

    counts = _count_constructors(monkeypatch)
    calls = []
    hnum = BrooksQM._hnum

    def counted(self, free, ab):
        calls.append((free, ab))
        return hnum(self, free, ab)

    # HomogenizedQM binds the hook at construction, so patch before parsing
    monkeypatch.setattr(BrooksQM, "_hnum", counted)
    exp = parse_experiment(CORNER)
    (probe,) = exp.probes
    s = probe.settings
    cx, cycle = _novikov_cycle(exp, probe)
    floor = min(map(cx.value, cycle.chain))
    every = [
        ("f", g.free, g.ab, t) for g in exp.model.ball(5) for t in range(len(cx.square_types))
    ]
    counts.update(elements=0, values=0)
    calls.clear()
    faces = qmprobe.novikov.enumerate_faces(cx, floor, s["window"], s["radius"])
    work = [(dict(counts), list(calls), every)]
    counts.update(elements=0, values=0)
    calls.clear()
    qmprobe.novikov._trimmed_columns(cx, faces, s["window"])
    work.append((dict(counts), list(calls), faces))
    assert len(faces) == 974
    for made, evaluated, examined in work:
        assert made == {"elements": 0, "values": 0}
        assert len(set(evaluated)) == len(evaluated)
        assert set(evaluated) <= {(g.free, g.ab) for f in examined for g in cx.corners(f)}
    # in a whole run and a whole verify, in process, the faces' corners
    # are evaluated once; a form is evaluated again only where the chain
    # layer reads it: on the connecting path or on the rays, which scan
    # 4 edges each here, or at a generator, read as an element for the
    # edge drop and the scaling direction
    steps = [exp.model.generator_element(x) for x in cx.positive]
    rays = [x * s["scaling"] ** k for x in (s["start"], s["end"]) for k in range(5)]
    read = {(g.free, g.ab) for g in (*steps, *cycle.connecting.vertices, *rays)}
    cfg, out = tmp_path / "corner.cfg", tmp_path / "report.json"
    cfg.write_text(CORNER, encoding="utf-8")
    for command in (["run", str(cfg), "--out", str(out)], ["verify", str(out)]):
        calls.clear()
        assert main(command) == 0
        assert {form for form, k in Counter(calls).items() if k > 1} <= read, command[0]


def test_the_gen_unsat_keeps_its_pinned_body(tmp_path, capsys):
    """Gen is unsat over 1,128 faces at radius 5, over Z (modulus 0).
    The collapse empties the system, and its functional, lifted back
    from one edge through the collapses, has 24 cells; the elimination's
    was the six edges (a^3 u^j, a), j = -2, ..., 3, the tree pullback.
    Its body, serialized as the bench pins are, keeps its digest."""
    cfg, out = tmp_path / "gen.cfg", tmp_path / "report.json"
    cfg.write_text(GEN, encoding="utf-8")
    assert main(["run", str(cfg), "--out", str(out)]) == 0, capsys.readouterr().err
    body = _read(out)["body"]
    result = body["probes"][0]["result"]
    assert (result["status"], len(result["faces"])) == ("unsat", 1_128)
    cert = result["certificate"]
    assert (cert["modulus"], len(cert["functional"])) == (0, 24)
    text = json.dumps(body, sort_keys=True, indent=2) + "\n"
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "4ec7b30b45f460df47299f49062d036159cf97fabd208899ed14014b8bf91652"
    )
    assert main(["verify", str(out)]) == 0


def _pad_with_a_vertex(functional):
    functional.insert(0, [["v", "a"], 1])


def _pad_with_a_face(functional):
    functional.append([["f", "a", "a", "u"], 1])


def _pad_with_a_zero_edge(functional):
    functional.insert(0, [["e", "", "a"], 0])


@pytest.mark.parametrize(
    "tamper, fragment",
    [
        (_pad_with_a_vertex, "not an edge: ['v', 'a']"),
        (_pad_with_a_face, "not an edge: ['f', 'a', 'a', 'u']"),
        (_pad_with_a_zero_edge, "the coefficients non-zero"),
    ],
)
def test_verify_refuses_a_certificate_padded_with_what_no_cochain_holds(
    tmp_path, capsys, tamper, fragment
):
    """A certificate is a functional on edges.  Gen's, padded with a
    vertex at its head, a face at its end or an edge with coefficient 0
    at its head, still annihilates every column and is written back as
    recorded, so only the parse and `settle` refuse it."""
    cfg, out = tmp_path / "gen.cfg", tmp_path / "report.json"
    cfg.write_text(GEN, encoding="utf-8")
    assert main(["run", str(cfg), "--out", str(out)]) == 0, capsys.readouterr().err
    report = _read(out)
    tamper(_probe(report, "fill")["result"]["certificate"]["functional"])
    code, printed = _verify_rewritten(out, report, capsys)
    assert code == 4
    assert "FAIL fill" in printed and fragment in printed


# the novikov-solve payload keys that are levels of phi-bar, and so
# scale with it
_LEVEL_KEYS = (
    ("window",), ("slack",), ("defect",), ("floor",), ("cycle", "window"),
    ("extraction", "min_phi"), ("extraction", "bound"),
)


def _scaled_fill(text, lam):
    """The payload of the config's novikov-solve probe with phi, the
    window, the slack and the defect multiplied by lam."""
    exp = parse_experiment(text)
    (probe,) = [p for p in exp.probes if p.kind == "novikov-solve"]
    q = probe.settings["qm"]
    exp.quasimorphisms[q] = HomomorphismQM(
        exp.model, [v * lam for v in exp.quasimorphisms[q].values]
    )
    for key in ("window", "slack", "defect"):
        probe.settings[key] = probe.settings[key] * lam
    return kind_module("novikov-solve").run(exp, probe)


def _fill_homogeneity_cases():
    fill = {seed: _bench_workloads().configs("fill", seed, ROOT)[0][1] for seed in (0, 2)}
    return [
        pytest.param((CONFIG_DIR / "z2_lattice.cfg").read_text(encoding="utf-8"), id="z2_lattice"),
        pytest.param(fill[0], id="fill-seed0"),
        pytest.param(fill[2], id="fill-seed2"),
        pytest.param(GEN, id="gen-R5"),
    ]


@pytest.mark.parametrize("text", _fill_homogeneity_cases())
def test_scaling_phi_and_every_level_scales_only_the_levels(text):
    """phi -> lam phi with the window, slack and defect times lam, for
    lam = 2 and 1/2, keeps the verdict, the faces, the coefficients or
    functional and the extracted path, and multiplies the window, the
    floor and the extraction's minimum and bound by lam."""
    base = _scaled_fill(text, ExactReal(1))
    for lam in (ExactReal(2), ExactReal(1) / 2):
        scaled = _scaled_fill(text, lam)
        for path in _LEVEL_KEYS:
            *outer, key = path
            was, now = base, scaled
            for k in outer:
                was, now = was[k], now[k]
            if was is None:
                assert now is None
                continue
            assert ExactReal.parse(now[key]) == lam * ExactReal.parse(was[key]), path
        assert _without_levels(scaled) == _without_levels(base)


def _without_levels(payload):
    out = json.loads(json.dumps(payload))
    for *outer, key in _LEVEL_KEYS:
        node = out
        for k in outer:
            node = node[k]
        if node is not None:
            node[key] = None
    return out


def _tree_projection(cx, z):
    """z mapped under F_n x Z^m -> F_n onto the tree of F_n: the summed
    coefficient of each tree edge (free word, letter index) that a
    free-letter edge of z maps to, the non-zero ones in canonical order."""
    model = cx.model
    out = {}
    for cell, k in z.items():
        if model.is_free_index(cell[3]):
            out[cell[1], cell[3]] = out.get((cell[1], cell[3]), 0) + k
    origin = (0,) * model.abelian_rank
    edges = sorted(
        (e for e, k in out.items() if k), key=lambda e: cx.cell_sort_key(("e", e[0], origin, e[1]))
    )
    return {e: out[e] for e in edges}


def _solve_system(text):
    """The complex, z, faces and trimmed columns of the system a config's
    one novikov-solve probe solves at its radius."""
    from qmprobe.novikov import _trimmed_columns, boundary_faces
    from qmprobe.kinds.novikov_solve import _novikov_cycle

    exp = parse_experiment(text)
    (probe,) = [p for p in exp.probes if p.kind == "novikov-solve"]
    s = probe.settings
    cx, cycle = _novikov_cycle(exp, probe)
    z = cycle.chain
    _, faces = boundary_faces(cx, z, s["window"], s["radius"], s["slack"], s["cell_cap"])
    return cx, z, faces, _trimmed_columns(cx, faces, s["window"])


def _pulled_back_system(text, tree_edge=None):
    """The trimmed columns and z of a config's novikov-solve probe, and
    the pullback under F_n x Z^m -> F_n of a tree edge (free word, letter
    index), by default the first one on which z projects to a non-zero
    coefficient: every edge (g t, i) with g's free word and t in Z^m,
    cut to the edges of the columns and of z."""
    cx, z, _, columns = _solve_system(text)
    free, index = tree_edge or next(iter(_tree_projection(cx, z)))
    edges = set(z).union(*columns)
    functional = {e: 1 for e in edges if (e[1], e[3]) == (free, index)}
    return columns, z, UnsatCertificate(functional, 0)


def test_the_pullback_of_a_tree_edge_certifies_gen():
    """phi vanishes on u, so the two a-edges of a face (g, a)-(g u, a)
    are kept or trimmed together and cancel under the projection to
    F_2: the pullback of the tree edge (a^3, a), which z crosses once,
    annihilates every column."""
    columns, z, functional = _pulled_back_system(GEN, ((1, 1, 1), 0))
    assert len(functional.functional) == 6
    assert check_unsat_certificate(columns, z, functional)


_PRODUCTS = {(2, 1): "a b u", (2, 2): "a b u v", (3, 1): "a b c u"}


@st.composite
def _central_configs(draw):
    """A novikov-solve config over F_n x Z^m for (n, m) in _PRODUCTS,
    with phi a homomorphism of small values on the free generators and
    0 on Z^m, a free scaling letter with phi > 0 and radius at most 3."""
    n, m = draw(st.sampled_from(sorted(_PRODUCTS)))
    names = _PRODUCTS[n, m].split()
    values = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    positive = [x if v > 0 else f"{x}^-1" for x, v in zip(names, values) if v]
    assume(positive)
    letters = st.sampled_from([x + e for x in names for e in ("", "^-1")])
    start, end = (
        " ".join(draw(st.lists(letters, max_size=3))) or "1" for _ in range(2)
    )
    phi = "".join(f"{x} = {v}\n" for x, v in zip(names, values) if v)
    return (
        f"[group]\nfree_rank = {n}\nabelian_rank = {m}\nnames = {' '.join(names)}\n\n"
        f"[quasimorphism phi]\nkind = homomorphism\n{phi}\n"
        f"[probe fill]\nkind = novikov-solve\nqm = phi\nstart = {start}\nend = {end}\n"
        f"scaling = {draw(st.sampled_from(positive))}\nwindow = {draw(st.integers(1, 4))}\n"
        f"radius = {draw(st.integers(0, 3))}\n"
    )


@settings(max_examples=50, deadline=None)
@given(_central_configs())
def test_a_potential_that_vanishes_on_the_centre_has_no_filling(text):
    """When phi is 0 on Z^m, a face's two free-letter edges have equal
    values and cancel under F_n x Z^m -> F_n, so a z that projects to a
    non-zero chain on the tree of F_n has no filling at any radius: the
    solve is unsat, and the pullback of the first tree edge z crosses
    certifies it."""
    from qmprobe.kinds.novikov_solve import _novikov_cycle

    try:
        exp = parse_experiment(text)
        (probe,) = exp.probes
        cx, cycle = _novikov_cycle(exp, probe)
    except (ConfigError, ValueError):
        assume(False)
    assume(_tree_projection(cx, cycle.chain))
    status, error, result = attempt(exp, probe)
    assert (status, result["status"]) == ("ok", "unsat"), error
    columns, z, functional = _pulled_back_system(text)
    assert check_unsat_certificate(columns, z, functional)


def test_the_pullback_fails_where_the_fill_is_sat():
    """On the bench fill config phi(u) = sqrt(2) and z has a filling, so
    the pullback of the tree edge (1, b) must fail on some column."""
    ((_, text),) = _bench_workloads().configs("fill", 0, ROOT)
    columns, z, functional = _pulled_back_system(text, ((), 1))
    assert functional.functional
    assert not check_unsat_certificate(columns, z, functional)
    assert any(
        sum(k * column.get(e, 0) for e, k in functional.functional.items())
        for column in columns
    )


Z2_LIBRARY = """\
[group]
abelian_rank = 2
names = a c
ball_cap = 3

[quasimorphism phi]
kind = homomorphism
c = 1

[probe library]
kind = q-library
qm = phi
dstar = 1
kprime = 3
scaling = c
radius = 3
depth = {}
"""


def test_a_q_library_deeper_than_its_radius_ends_at_once(tmp_path):
    """c^-n has length n, so at a depth n above the radius every
    sandwich leaves the ball: depth 10^8 records what depth radius + 1
    does, without building a descent of 10^8 letters."""
    proc, out = _run_within_a_second(tmp_path, Z2_LIBRARY.format(10**8))
    assert proc.returncode == 0, proc.stderr
    entries = _read(out)["body"]["probes"][0]["result"]["entries"]
    cfg, shallow = tmp_path / "shallow.cfg", tmp_path / "shallow.json"
    cfg.write_text(Z2_LIBRARY.format(4), encoding="utf-8")
    assert main(["run", str(cfg), "--out", str(shallow)]) == 0
    assert entries == _read(shallow)["body"]["probes"][0]["result"]["entries"]
    assert {e["failure"] for e in entries} == {"sandwich endpoints outside the ball"}


def test_a_rips_ball_over_the_vertex_cap_is_counted_not_built(tmp_path):
    """ball(10) of F_4 x Z^2 is within the default ball cap but holds
    669,570,877 elements; the run counts it and hits the vertex cap
    before building it."""
    proc, out = _run_within_a_second(
        tmp_path,
        "[group]\nfree_rank = 4\nabelian_rank = 2\n\n"
        "[probe r]\nkind = rips-profile\nn_max = 2\nball_radius = 10\n",
    )
    assert proc.returncode == 3
    probe = _read(out)["body"]["probes"][0]
    assert probe["status"] == "cap-exceeded"
    assert probe["error"] == "Rips vertex count: requested 669570877, cap 4096"
