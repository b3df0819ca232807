"""Desk-scale acceptance checks, one per contract item, each printing a
single PASS/FAIL summary line (run pytest with -s to see them live).

Every numeric claim is checked exactly; independent counting oracles
appear inline so the checks do not lean on the code under test."""

import json
import os
import pathlib
import random
import subprocess
import sys
import time
from contextlib import contextmanager

from qmprobe.exact import ExactReal, ONE, ZERO
from qmprobe.novikov import (
    CayleyComplex,
    keep_negative_and_extract_path,
    ray_cycle,
    windowed_boundary_solve,
)
from qmprobe.intsolve import check_unsat_certificate
from qmprobe.paths import path_from_letters, straight_path
from qmprobe.quasimorphisms import (
    HomomorphismQM,
    certify_aker_approximate_subgroup,
)
from qmprobe.rips import connectivity_profile
from qmprobe.search import (
    build_q_library,
    compute_constants,
    free_group_obstruction_probe,
    f2z_kernel_path_normalize,
    peak_reduction,
)


def _equal_below(cx, u, v, level):
    """Whether chains u and v of cx agree on every cell valued below `level`."""
    return all(
        u.get(cell, 0) == v.get(cell, 0)
        for cell in u.keys() | v.keys()
        if cx.value(cell) < level
    )


CONFIG_DIR = pathlib.Path(__file__).parent / "configs"
GOOD_CONFIGS = [
    "free_brooks.cfg",
    "z2_lattice.cfg",
    "f2z_kernel.cfg",
    "free_unsat.cfg",
]


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} FAIL: {label}")
        raise
    print(f"ACCEPTANCE {num} PASS: {label}")


def _random_reduced_word(rng, model, max_len):
    letters = []
    last = None
    for _ in range(rng.randint(1, max_len)):
        while True:
            gen = rng.choice(model.generators())
            if last is None or gen != last.inverted():
                break
        letters.append(gen)
        last = gen
    return path_from_letters(model.identity(), letters).terminus


def _occurrences(seq, pattern):
    hits = 0
    for i in range(len(seq) - len(pattern) + 1):
        if seq[i : i + len(pattern)] == pattern:
            hits += 1
    return hits


def _psi_ab_oracle(g):
    """Occurrences of a b minus occurrences of b^-1 a^-1 in the reduced
    word, counted by a direct sliding-window scan."""
    return _occurrences(g.free, (1, 2)) - _occurrences(g.free, (-2, -1))


def test_criterion_1_exact_homogenization(f2, psi_ab):
    with criterion(1, "homogenization is exactly linear on powers"):
        start = time.monotonic()
        rng = random.Random(101)
        for _ in range(200):
            g = _random_reduced_word(rng, f2, 6)
            base = psi_ab.homogeneous_value(g)
            for n in range(-8, 9):
                assert psi_ab.homogeneous_value(g ** n) == base * n
        comm = f2.parse_element("a b a^-1 b^-1")
        # oracle: the per-period gain of the count over concatenated
        # periods stabilizes at the homogeneous value
        d1 = _psi_ab_oracle(comm ** 2) - _psi_ab_oracle(comm)
        d2 = _psi_ab_oracle(comm ** 3) - _psi_ab_oracle(comm ** 2)
        assert d1 == d2 == 1
        assert psi_ab.homogeneous_value(comm) == ONE
        elapsed = time.monotonic() - start
        assert elapsed < 10, f"took {elapsed:.1f}s, budget 10s"


def test_criterion_2_homogenization_within_defect(f2, psi_ab):
    with criterion(2, "|psi - psi-bar| stays within the brute-force defect"):
        start = time.monotonic()
        ball4 = f2.ball(4)
        oracle = {g: _psi_ab_oracle(g) for g in ball4}
        d_bf = 0
        for g in ball4:
            for h in ball4:
                gap = abs(oracle[g] + oracle[h] - _psi_ab_oracle(g * h))
                if gap > d_bf:
                    d_bf = gap
        assert d_bf == 1
        bound = ExactReal(d_bf)
        for g in f2.ball(6):
            assert abs(psi_ab.value(g) - psi_ab.homogeneous_value(g)) <= bound
        elapsed = time.monotonic() - start
        assert elapsed < 120, f"took {elapsed:.1f}s, budget 120s"


def test_criterion_3_aker_certificate(f2, psibar_ab):
    with criterion(3, "Aker(psi-bar, 1) closes approximately on ball(4)"):
        comm = f2.parse_element("a b a^-1 b^-1")
        cert = certify_aker_approximate_subgroup(psibar_ab, ONE, comm, 4)
        assert cert.passed and cert.counterexample is None
        assert len(cert.witness) == 11
        assert cert.witness == tuple(comm ** m for m in range(5, -6, -1))
        two = ExactReal(2)
        expected_members = tuple(
            g for g in f2.ball(4) if abs(psibar_ab.homogeneous_value(g)) <= two
        )
        assert cert.members == expected_members
        assert len(cert.exponents) == len(cert.members) ** 2
        # spot-replay a seeded sample of the stored exponents
        rng = random.Random(303)
        n = len(cert.members)
        for _ in range(100):
            i, j = rng.randrange(n), rng.randrange(n)
            m = cert.exponents[i * n + j]
            g, h = cert.members[i], cert.members[j]
            assert abs(psibar_ab.homogeneous_value(g * h * comm ** m)) <= two


def test_criterion_4_rips_thresholds(z2, z2_hom11):
    with criterion(4, "Rips thresholds are monotone and hit N = 6 on {1, a^5}"):
        pair = [z2.identity(), z2.parse_element("a a a a a")]
        prof = connectivity_profile(pair, 8)
        assert prof.counts == (2, 2, 2, 2, 2, 1, 1, 1)
        assert prof.threshold == 6  # d = 5 needs scale 6 under the strict d < n rule
        # kernel points of phi(a) = phi(c) = 1 sit 2 apart along the
        # antidiagonal, so they join at scale 3
        kernel = [
            z2.parse_element("a") ** k * z2.parse_element("c") ** (-k)
            for k in range(-3, 4)
        ]
        assert all(z2_hom11.homogeneous_value(g) == ZERO for g in kernel)
        kprof = connectivity_profile(kernel, 4)
        assert all(x >= y for x, y in zip(kprof.counts, kprof.counts[1:]))
        assert kprof.counts == (7, 7, 1, 1)
        assert kprof.threshold == 3


def test_criterion_5_f2z_kernel_band(f2z, f2z_phi):
    with criterion(5, "normalized kernel paths stay inside [-3, 3] in Q(sqrt 2)"):
        start = time.monotonic()
        kernel = [
            g for g in f2z.ball(6) if f2z_phi.homogeneous_value(g) == ZERO
        ]
        assert len(kernel) > 50
        rng = random.Random(505)
        neg3, pos3 = ExactReal(-3), ExactReal(3)
        for _ in range(100):
            g, h = rng.choice(kernel), rng.choice(kernel)
            witness = f2z_kernel_path_normalize(f2z_phi, straight_path(g, h))
            assert neg3 <= witness.min_phi and witness.max_phi <= pos3
        elapsed = time.monotonic() - start
        assert elapsed < 30, f"took {elapsed:.1f}s, budget 30s"


def test_criterion_6_obstruction_growth(f2, psibar_ab):
    with criterion(6, "obstruction maxima grow strictly and clear the level gap"):
        x = f2.parse_element("b")
        comm = f2.parse_element("a b a^-1 b^-1")
        dstar = ExactReal(1) / 2
        phi_c = psibar_ab.homogeneous_value(comm)
        maxgen = max(
            abs(psibar_ab.homogeneous_value(f2.generator_element(s)))
            for s in f2.generators()
        )
        maxima = []
        for n in range(1, 7):
            report = free_group_obstruction_probe(psibar_ab, x, comm, n, dstar)
            threshold = (phi_c * n - dstar - dstar) / (maxgen + dstar) - 1
            assert report.max_bound > threshold
            maxima.append(report.max_bound)
        assert all(lo < hi for lo, hi in zip(maxima, maxima[1:]))
        assert maxima == [ExactReal(v) for v in (0, 2, 4, 6, 8, 10)]


def test_criterion_7_windowed_solver(f2, z2, z2_hom11):
    with criterion(7, "ray cycles: free group refuses, Z^2 fills and extracts"):
        start = time.monotonic()
        window = ExactReal(8)

        # (a) free group: no 2-cells exist, so every nonzero cycle is
        # unfillable, with a certificate that replays from scratch
        phi = HomomorphismQM(f2, (ONE, ZERO))
        cxf = CayleyComplex(phi, ZERO)
        a_el = f2.parse_element("a")
        rng = random.Random(707)
        ball3 = f2.ball(3)
        for _ in range(10):
            while True:
                g, h = rng.sample(ball3, 2)
                diff = g.inverse() * h
                # endpoints on one a-line give the zero cycle; skip them
                if not all(abs(x) == 1 for x in diff.free):
                    break
            cycle = ray_cycle(cxf, straight_path(g, h), a_el, window)
            assert cycle.chain
            got = windowed_boundary_solve(cxf, cycle.chain, window, 6)
            assert got.status == "unsat"
            assert check_unsat_certificate([], cycle.chain, got.certificate)

        # (b) Z^2 with phi(a) = phi(c) = 1: cycles over the strict
        # positivity set fill, and the kept-negative residual yields a
        # connecting path through levels >= -D = 0
        cx2 = CayleyComplex(z2_hom11, ZERO)
        c_el = z2.parse_element("c")
        positive = [
            g for g in z2.ball(4) if z2_hom11.homogeneous_value(g) > ZERO
        ]
        for _ in range(20):
            while True:
                g, h = rng.sample(positive, 2)
                if (g.inverse() * h).ab[0] != 0:
                    break
            cycle = ray_cycle(cx2, straight_path(g, h), c_el, window)
            got = windowed_boundary_solve(cx2, cycle.chain, window, 14)
            assert got.status == "sat"
            assert _equal_below(cx2, cx2.boundary(got.filling), cycle.chain, window)
            extraction = keep_negative_and_extract_path(cx2, got.filling, cycle)
            assert extraction.min_phi >= ZERO
            assert extraction.meets_bound
        elapsed = time.monotonic() - start
        assert elapsed < 120, f"took {elapsed:.1f}s, budget 120s"


def _seeded_peaked_path(rng, z2):
    """Excursions 1 .. c^j .. c^j a^e .. back to level zero; endpoints
    sit in the kernel, every spike tops out above the height bound."""
    letters = []
    c_up = z2.parse_word("c")
    c_down = z2.parse_word("c^-1")
    for _ in range(rng.randint(1, 2)):
        height = rng.randint(5, 8)
        cross = rng.choice(("a", "a^-1"))
        shift = 1 if cross == "a" else -1
        letters.extend(c_up * height)
        letters.extend(z2.parse_word(cross))
        letters.extend(c_down * (height + shift))
    return path_from_letters(z2.identity(), tuple(letters))


def test_criterion_8_peak_reduction(z2, z2_hom11):
    with criterion(8, "peak reduction descends lexicographically to height M"):
        start = time.monotonic()
        c_el = z2.parse_element("c")
        bundle = compute_constants(z2_hom11, ONE, ExactReal(3), c_el)
        library = build_q_library(z2_hom11, bundle, c_el, radius=30)
        assert library.complete
        height_bound = library.bundle.height_bound
        assert height_bound == ExactReal(4)  # M = 3 D* + max_s |phi-bar(s)|
        vertex_bound = height_bound + 2  # M + 2 D*
        rng = random.Random(808)
        for _ in range(50):
            path = _seeded_peaked_path(rng, z2)
            trace = peak_reduction(z2_hom11, path, library)
            assert trace.steps, "seeded paths start above the height bound"
            ladder = [(s.height, s.peaks) for s in trace.steps]
            ladder.append((trace.final_height, trace.final_peaks))
            assert all(hi > lo for hi, lo in zip(ladder, ladder[1:]))
            assert ExactReal(trace.final_height) <= height_bound
            assert trace.max_reduced_phi <= vertex_bound
            assert trace.vertex_bound == vertex_bound
        elapsed = time.monotonic() - start
        assert elapsed < 60, f"took {elapsed:.1f}s, budget 60s"


def test_criterion_9_report_determinism(tmp_path):
    with criterion(9, "report bodies are byte-identical across processes and hash seeds"):
        for name in GOOD_CONFIGS:
            bodies = []
            for seed in ("0", "1"):
                out = tmp_path / f"{name}.{seed}.json"
                proc = subprocess.run(
                    [sys.executable, "-m", "qmprobe", "run", str(CONFIG_DIR / name),
                     "--out", str(out)],
                    env={**os.environ, "PYTHONHASHSEED": seed},
                    capture_output=True,
                    text=True,
                )
                assert proc.returncode == 0, (name, proc.stderr)
                body = json.loads(out.read_text(encoding="utf-8"))["body"]
                bodies.append(json.dumps(body, sort_keys=True))
            assert bodies[0] == bodies[1], name
