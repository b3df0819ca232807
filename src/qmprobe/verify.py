"""Replay checks for report payloads.

Verification trusts nothing but the echoed configuration and the
payload: paths are re-walked and their extrema recomputed, certificates
are re-applied to re-enumerated data, recorded constants are recomputed
from scratch.  Searches are re-run only where the recorded claim is an
absence, since a negative claim has no witness smaller than the search
itself.  Cap-exceeded and failed probes carry no claim and are skipped.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import Experiment, ProbeSpec, parse_experiment
from .errors import ReplayError
from .exact import ZERO, ExactReal, exact_max, exact_min
from .groups import GroupElement, GroupModel, commutator
from .intsolve import UnsatCertificate, check_unsat_certificate
from .novikov import (
    CayleyComplex,
    WindowedChain,
    _trimmed_boundary_column,
    build_zs_cycle,
    enumerate_faces,
    ray_cycle,
)
from .paths import Path, phi_extrema
from .quasimorphisms import Quasimorphism
from .report import (
    cell_payload,
    chain_payload,
    load_report,
    parse_cell,
    parse_exact,
    parse_letter,
    parse_path,
)
from .rips import _prepare_vertices, components_from_edges, connectivity_profile
from .search import (
    NotFoundWithinBall,
    bounded_path_search,
    compute_constants,
    essential_flags,
    height_and_peaks,
    remove_inessential_backtracks,
)


@dataclass(frozen=True)
class ProbeCheck:
    name: str
    kind: str
    run_status: str
    ok: bool
    message: str


@dataclass(frozen=True)
class VerificationOutcome:
    checks: tuple[ProbeCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


def verify_report(report: dict) -> VerificationOutcome:
    body = report.get("body")
    if not isinstance(body, dict):
        raise ReplayError("report has no body object")
    group = body.get("group")
    echo = body.get("config_echo")
    if not isinstance(group, dict) or not isinstance(echo, str):
        raise ReplayError("report body is missing the group block or config echo")
    exp = parse_experiment(echo, ball_cap=group.get("ball_cap"))
    model = exp.model
    if (
        model.free_rank != group.get("free_rank")
        or model.abelian_rank != group.get("abelian_rank")
        or list(model.generator_names) != group.get("names")
        or model.ball_cap != group.get("ball_cap")
    ):
        raise ReplayError("group block does not match the echoed configuration")

    specs = {p.name: p for p in exp.probes}
    checks: list[ProbeCheck] = []
    seen: set[str] = set()
    for entry in body.get("probes", []):
        name = entry.get("name")
        kind = entry.get("kind")
        status = entry.get("status")
        seen.add(name)
        spec = specs.get(name)
        if spec is None or spec.kind != kind or dict(spec.raw) != entry.get("params"):
            checks.append(
                ProbeCheck(
                    name, kind, status, False,
                    "probe entry does not match the echoed configuration",
                )
            )
            continue
        if status == "cap-exceeded":
            checks.append(
                ProbeCheck(name, kind, status, True, "cap exceeded at run time; nothing to replay")
            )
            continue
        if status == "failed":
            checks.append(
                ProbeCheck(name, kind, status, True, "failed at run time; nothing to replay")
            )
            continue
        if status != "ok":
            checks.append(
                ProbeCheck(name, kind, status, False, f"unknown probe status {status!r}")
            )
            continue
        try:
            problems = _CHECKERS[kind](exp, spec, entry["result"])
        except ReplayError as exc:
            problems = [str(exc)]
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            problems = [f"malformed or inconsistent payload: {exc}"]
        if problems:
            checks.append(ProbeCheck(name, kind, status, False, "; ".join(problems)))
        else:
            checks.append(ProbeCheck(name, kind, status, True, "verified"))
    missing = sorted(set(specs) - seen)
    if missing:
        checks.append(
            ProbeCheck(
                "(report)", "-", "-", False,
                "probes missing from the report: " + ", ".join(missing),
            )
        )
    return VerificationOutcome(tuple(checks))


def verify_report_text(text: str) -> VerificationOutcome:
    return verify_report(load_report(text))


# -- shared helpers ------------------------------------------------------


def _expect(problems: list, cond: bool, message: str) -> bool:
    if not cond:
        problems.append(message)
    return cond


def _qm_of(exp: Experiment, res: dict) -> Quasimorphism:
    qm = exp.quasimorphisms.get(res.get("qm"))
    if qm is None:
        raise ReplayError(f"payload references unknown quasimorphism {res.get('qm')!r}")
    return qm


def _element(model: GroupModel, payload: str) -> GroupElement:
    try:
        return model.parse_element(payload)
    except ValueError as exc:
        raise ReplayError(f"bad element payload {payload!r}: {exc}") from exc


# -- per-kind checkers ---------------------------------------------------


def _check_defect(exp: Experiment, spec: ProbeSpec, res: dict) -> list:
    problems: list = []
    qm = _qm_of(exp, res)
    model = exp.model
    radius = res["radius"]
    lower = parse_exact(res["lower"])
    upper = parse_exact(res["upper"])
    value = parse_exact(res["witness_value"])
    g = _element(model, res["witness"][0])
    h = _element(model, res["witness"][1])
    _expect(
        problems,
        g.length() <= radius and h.length() <= radius,
        "witness pair lies outside the scanned ball",
    )
    kind = res["witness_kind"]
    if kind == "three-term":
        replayed = abs(qm.value(g) + qm.value(h) - qm.value(g * h))
    elif kind == "commutator":
        replayed = qm.homogeneous_value(commutator(g, h))
    else:
        return [f"unknown witness kind {kind!r}"]
    _expect(problems, replayed == value, "witness value does not replay")
    _expect(problems, value == lower, "lower bound is not realized by its witness")
    if upper is not None:
        _expect(problems, lower <= upper, "upper bound sits below the certified lower bound")
    return problems


def _check_aker_cert(exp: Experiment, spec: ProbeSpec, res: dict) -> list:
    problems: list = []
    qm = _qm_of(exp, res)
    model = exp.model
    dstar = parse_exact(res["dstar"])
    bound = dstar + dstar
    radius = res["radius"]
    members = [_element(model, w) for w in res["members"]]
    expected = [
        g for g in model.ball(radius) if abs(qm.homogeneous_value(g)) <= bound
    ]
    _expect(
        problems,
        members == expected,
        "member list does not match the level set inside the ball",
    )
    if dstar == ZERO:
        _expect(
            problems,
            res["scaling"] is None and res["witness"] == [model.identity().word_str()],
            "zero-defect certificate must use the singleton witness {1}",
        )
        order: tuple[int, ...] = (0,)
        powers = {0: model.identity()}
    else:
        if not _expect(problems, res["scaling"] is not None, "missing scaling element"):
            return problems
        c = _element(model, res["scaling"])
        v = qm.homogeneous_value(c)
        _expect(
            problems,
            dstar * 4 / 5 < v <= dstar,
            "scaling element value is outside (4 D*/5, D*]",
        )
        _expect(
            problems,
            res["witness"] == [(c ** m).word_str() for m in range(5, -6, -1)],
            "witness set is not {c^5, ..., c^-5}",
        )
        order = (0, 1, -1, 2, -2, 3, -3, 4, -4, 5, -5)
        powers = {m: c ** m for m in order}

    exponents = list(res["exponents"])
    position = 0
    failed_at = None
    for g in members:
        if failed_at is not None:
            break
        for h in members:
            gh = g * h
            chosen = None
            for m in order:
                if abs(qm.homogeneous_value(gh * powers[m])) <= bound:
                    chosen = m
                    break
            if chosen is None:
                failed_at = (g, h)
                break
            if position >= len(exponents):
                return ["exponent table is shorter than the member pair list"]
            if exponents[position] != chosen:
                return [
                    f"exponent for pair ({g.word_str()}, {h.word_str()}) does not replay"
                ]
            position += 1
    _expect(problems, position == len(exponents), "exponent table has trailing entries")
    if failed_at is None:
        _expect(problems, res["passed"] and res["counterexample"] is None,
                "replay closes the subset but the certificate claims failure")
    else:
        recorded = res["counterexample"]
        _expect(
            problems,
            not res["passed"]
            and recorded is not None
            and [_element(model, w) for w in recorded] == list(failed_at),
            "replay finds a counterexample the certificate does not record",
        )
    return problems


def _check_rips_profile(exp: Experiment, spec: ProbeSpec, res: dict) -> list:
    problems: list = []
    model = exp.model
    vertices = tuple(_element(model, w) for w in res["vertices"])
    _expect(
        problems,
        _prepare_vertices(vertices) == vertices,
        "vertex list is not in canonical deduplicated order",
    )
    profile = connectivity_profile(vertices, res["n_max"])
    _expect(problems, list(profile.scales) == res["scales"], "scale list does not replay")
    _expect(problems, list(profile.counts) == res["counts"], "component counts do not replay")
    _expect(problems, profile.threshold == res["threshold"], "threshold does not replay")
    forest = res["forest_at_threshold"]
    if profile.threshold is None:
        _expect(problems, forest is None, "no threshold, yet a forest is recorded")
        return problems
    if not _expect(problems, forest is not None, "missing spanning forest at the threshold"):
        return problems
    edges = [tuple(e) for e in forest]
    _expect(
        problems,
        all(
            0 <= i < j < len(vertices)
            and 0 < vertices[i].distance(vertices[j]) < profile.threshold
            for i, j in edges
        ),
        "forest contains a pair that is not a Rips edge at the threshold",
    )
    _expect(problems, len(edges) == len(vertices) - 1, "forest has the wrong edge count")
    _expect(
        problems,
        components_from_edges(len(vertices), edges).count == 1,
        "forest does not connect the vertex set",
    )
    return problems


def _check_path_search(exp: Experiment, spec: ProbeSpec, res: dict) -> list:
    problems: list = []
    qm = _qm_of(exp, res)
    model = exp.model
    start = _element(model, res["start"])
    target = _element(model, res["target"])
    k = parse_exact(res["k"])
    k_max = parse_exact(res["k_max"])
    radius = res["radius"]
    if res["found"]:
        path = parse_path(model, res["path"])
        _expect(problems, path.origin == start, "path does not start at the start element")
        _expect(problems, path.terminus == target, "path does not end at the target")
        _expect(
            problems,
            all(v.length() <= radius for v in path.vertices),
            "path leaves the ball",
        )
        lo, hi = phi_extrema(qm, path)
        _expect(problems, lo == parse_exact(res["min_phi"]), "minimum value does not replay")
        _expect(problems, hi == parse_exact(res["max_phi"]), "maximum value does not replay")
        _expect(problems, lo >= -k, "path dips below the floor -k")
        if k_max is not None:
            _expect(problems, hi <= k_max, "path exceeds the ceiling k_max")
    else:
        again = bounded_path_search(qm, start, target, k, radius, k_max)
        ok = isinstance(again, NotFoundWithinBall)
        _expect(problems, ok, "a path exists although the report claims none does")
        if ok:
            _expect(
                problems,
                again.explored == res["explored"] and again.reason == res["reason"],
                "the failed search transcript does not replay",
            )
    return problems


def _check_library_payload(
    exp: Experiment, qm: Quasimorphism, payload: dict
) -> tuple[list, dict]:
    """Replays a q-library payload; returns (problems, paths by pair)."""
    problems: list = []
    model = exp.model
    scaling = _element(model, payload["scaling"])
    b = payload["bundle"]
    dstar = parse_exact(b["dstar"])
    kprime = parse_exact(b["kprime"])
    fresh = compute_constants(qm, dstar, kprime, scaling)
    depth = payload["depth"]
    guard = parse_exact(b["level_guard"])
    _expect(problems, b["descent_depth"] == depth, "bundle depth disagrees with the library depth")
    _expect(
        problems,
        parse_exact(b["height_bound"]) == fresh.height_bound
        and b["scaling_distance"] == fresh.scaling_distance
        and parse_exact(b["max_pair_value"]) == fresh.max_pair_value
        and parse_exact(b["max_generator_value"]) == fresh.max_generator_value,
        "derived constants do not replay",
    )
    _expect(problems, guard >= fresh.level_guard, "level guard sits below its defining maximum")
    radius = payload["radius"]
    c_letter = scaling.letters()[0]
    identity = model.identity()
    pairs = [(s, t) for s in model.generators() for t in model.generators()]
    entries = payload["entries"]
    if not _expect(problems, len(entries) == len(pairs), "entry count is not rank^2"):
        return problems, {}
    paths: dict = {}
    min_values = []
    complete = True
    for entry, (s, t) in zip(entries, pairs):
        ps = parse_letter(model, entry["s"])
        pt = parse_letter(model, entry["t"])
        label = f"({entry['s']}, {entry['t']})"
        if not _expect(problems, (ps, pt) == (s, t), f"entry {label} out of canonical order"):
            continue
        if entry["failure"] is not None:
            complete = False
            continue
        path = parse_path(model, entry["path"])
        st = model.generator_element(s) * model.generator_element(t)
        _expect(
            problems,
            path.origin == identity and path.terminus == st,
            f"entry {label} does not run from 1 to st",
        )
        letters = path.edge_letters()
        sandwich = (
            len(letters) >= 2 * depth
            and all(l == c_letter.inverted() for l in letters[:depth])
            and all(l == c_letter for l in letters[-depth:])
        )
        _expect(problems, sandwich, f"entry {label} is not a c^-n ... c^n sandwich")
        if not sandwich:
            continue
        bottom = path.vertices[depth]
        a1 = path.vertices[len(path.vertices) - 1 - depth]
        ceiling = (
            exact_max([qm.homogeneous_value(bottom), qm.homogeneous_value(a1)])
            + kprime
        )
        middle = path.vertices[depth : len(path.vertices) - depth]
        _expect(
            problems,
            all(qm.homogeneous_value(v) <= ceiling for v in middle),
            f"entry {label} exceeds the connecting ceiling",
        )
        _expect(
            problems,
            all(v.length() <= radius for v in middle),
            f"entry {label} leaves the search ball",
        )
        flags = essential_flags(path, scaling)
        _expect(
            problems,
            all(
                qm.homogeneous_value(path.vertices[i]) < -dstar
                for i in range(1, len(flags) - 1)
                if flags[i]
            ),
            f"entry {label} has an interior essential vertex at or above -D*",
        )
        lo, _ = phi_extrema(qm, path)
        _expect(problems, lo == parse_exact(entry["min_phi"]), f"entry {label} minimum does not replay")
        _expect(problems, lo > -guard, f"entry {label} dips to the level guard")
        min_values.append(lo)
        paths[(s, t)] = path
    _expect(problems, payload["complete"] == complete, "completeness flag does not match the entries")
    if min_values:
        needed = -exact_min(min_values) + 1
        expected_guard = needed if needed > fresh.level_guard else fresh.level_guard
        _expect(problems, guard == expected_guard, "raised level guard does not replay")
    return problems, paths


def _check_q_library(exp: Experiment, spec: ProbeSpec, res: dict) -> list:
    qm = _qm_of(exp, res)
    problems, _ = _check_library_payload(exp, qm, res)
    return problems


def _check_peak_reduce(exp: Experiment, spec: ProbeSpec, res: dict) -> list:
    qm = _qm_of(exp, res)
    problems, paths = _check_library_payload(exp, qm, res["library"])
    model = exp.model
    scaling = _element(model, res["library"]["scaling"])
    bundle = res["library"]["bundle"]
    dstar = parse_exact(bundle["dstar"])
    guard = parse_exact(bundle["level_guard"])
    height_bound = parse_exact(bundle["height_bound"])
    two_dstar = dstar + dstar
    current = parse_path(model, res["initial"])
    for endpoint in (current.origin, current.terminus):
        _expect(
            problems,
            abs(qm.homogeneous_value(endpoint)) <= two_dstar,
            "an endpoint sits outside Aker(phi, D*)",
        )
    previous_key = None
    for i, step in enumerate(res["steps"]):
        height, peaks, first = height_and_peaks(qm, current, scaling)
        where = f"step {i}"
        _expect(
            problems,
            step["height"] == height and step["peaks"] == peaks and step["index"] == first,
            f"{where}: recorded peak data does not replay",
        )
        if previous_key is not None:
            _expect(
                problems,
                (height, peaks) < previous_key,
                f"{where}: (height, peak count) failed to decrease",
            )
        previous_key = (height, peaks)
        if not (0 < first < len(current.vertices) - 1):
            problems.append(f"{where}: first peak replays onto an endpoint")
            break
        s = parse_letter(model, step["pair"][0])
        t = parse_letter(model, step["pair"][1])
        v0 = current.vertices[first - 1]
        s_here = (v0.inverse() * current.vertices[first]).letters()[0]
        t_here = (
            current.vertices[first].inverse() * current.vertices[first + 1]
        ).letters()[0]
        _expect(
            problems,
            (s, t) == (s_here, t_here),
            f"{where}: recorded pair disagrees with the peak's edge letters",
        )
        q = paths.get((s, t))
        if q is None:
            problems.append(f"{where}: splice uses a pair missing from the library")
            break
        spliced = Path(
            current.vertices[:first]
            + tuple(v0 * w for w in q.vertices[1:])
            + current.vertices[first + 2 :]
        )
        after = parse_path(model, step["path_after"])
        if not _expect(problems, after == spliced, f"{where}: spliced path does not replay"):
            break
        lo, _ = phi_extrema(qm, after)
        _expect(problems, lo == parse_exact(step["min_phi"]), f"{where}: minimum does not replay")
        _expect(problems, lo > -guard, f"{where}: path dips to the level guard")
        current = after
    final = parse_path(model, res["final"])
    _expect(problems, final == current, "final path is not the last spliced path")
    height, peaks, _ = height_and_peaks(qm, current, scaling)
    _expect(
        problems,
        res["final_height"] == height and res["final_peaks"] == peaks,
        "final peak data does not replay",
    )
    _expect(problems, ExactReal(height) <= height_bound, "final height exceeds the bound M")
    reduced = parse_path(model, res["reduced"])
    _expect(
        problems,
        reduced == remove_inessential_backtracks(current, scaling),
        "backtrack removal does not replay",
    )
    _, hi = phi_extrema(qm, reduced)
    vertex_bound = parse_exact(res["vertex_bound"])
    _expect(problems, hi == parse_exact(res["max_reduced_phi"]), "reduced maximum does not replay")
    _expect(problems, vertex_bound == height_bound + two_dstar, "vertex bound is not M + 2 D*")
    _expect(problems, hi <= vertex_bound, "reduced path exceeds M + 2 D*")
    return problems


def _check_f2z_example(exp: Experiment, spec: ProbeSpec, res: dict) -> list:
    problems: list = []
    qm = _qm_of(exp, res)
    model = exp.model
    start = _element(model, res["start"])
    target = _element(model, res["target"])
    for label, g in (("start", start), ("target", target)):
        _expect(problems, qm.homogeneous_value(g) == ZERO, f"{label} is not in the kernel")
    path = parse_path(model, res["path"])
    _expect(
        problems,
        path.origin == start and path.terminus == target,
        "path endpoints do not match",
    )
    lo, hi = phi_extrema(qm, path)
    _expect(problems, lo == parse_exact(res["min_phi"]), "minimum does not replay")
    _expect(problems, hi == parse_exact(res["max_phi"]), "maximum does not replay")
    three = ExactReal(3)
    _expect(problems, -three <= lo and hi <= three, "path leaves the band [-3, 3]")
    return problems


def _check_free_obstruction(exp: Experiment, spec: ProbeSpec, res: dict) -> list:
    problems: list = []
    qm = _qm_of(exp, res)
    model = exp.model
    x = _element(model, res["x"])
    scaling = _element(model, res["scaling"])
    dstar = parse_exact(res["dstar"])
    two_dstar = dstar + dstar
    denom = (
        exact_max(
            abs(qm.homogeneous_value(model.generator_element(g)))
            for g in model.generators()
        )
        + dstar
    )
    maxima = []
    for i, run in enumerate(res["runs"], start=1):
        where = f"depth {i}"
        if not _expect(problems, run["depth"] == i, f"{where}: depths are not consecutive"):
            return problems
        target = (scaling ** -i) * x * (scaling ** i)
        geodesic = parse_path(model, run["geodesic"])
        _expect(
            problems,
            geodesic.origin == x and geodesic.terminus == target,
            f"{where}: geodesic does not run from x to c^-n x c^n",
        )
        _expect(
            problems,
            len(geodesic) == x.distance(target),
            f"{where}: path is longer than the geodesic distance",
        )
        bounds = [parse_exact(text) for text in run["bounds"]]
        if not _expect(
            problems,
            len(bounds) == len(geodesic.vertices),
            f"{where}: one bound per vertex is required",
        ):
            return problems
        for v, recorded in zip(geodesic.vertices, bounds):
            raw = (abs(qm.homogeneous_value(v)) - two_dstar) / denom
            expected = raw if raw > ZERO else ZERO
            if recorded != expected:
                problems.append(f"{where}: a vertex bound does not replay")
                break
        _expect(
            problems,
            parse_exact(run["max_bound"]) == exact_max(bounds),
            f"{where}: maximum bound does not replay",
        )
        maxima.append(exact_max(bounds))
    _expect(problems, len(maxima) == res["max_depth"], "run count disagrees with max_depth")
    increasing = all(b > a for a, b in zip(maxima, maxima[1:]))
    _expect(
        problems,
        res["maxima_strictly_increasing"] == increasing,
        "monotonicity flag does not replay",
    )
    return problems


def _check_novikov_solve(exp: Experiment, spec: ProbeSpec, res: dict) -> list:
    problems: list = []
    qm = _qm_of(exp, res)
    model = exp.model
    defect = parse_exact(res["defect"])
    cx = CayleyComplex(qm, defect)
    start = _element(model, res["start"])
    end = _element(model, res["end"])
    scaling = _element(model, res["scaling"])
    window = parse_exact(res["window"])
    radius = res["radius"]
    slack = parse_exact(res["slack"])
    cell_cap = spec.settings["cell_cap"]
    connecting = parse_path(model, res["connecting"])
    _expect(
        problems,
        connecting.origin == start and connecting.terminus == end,
        "connecting path endpoints do not match",
    )
    cycle = ray_cycle(cx, start, end, connecting, scaling, window)
    if not _expect(
        problems,
        chain_payload(cx, cycle.chain) == res["cycle"],
        "ray cycle chain does not replay",
    ):
        return problems
    floor = parse_exact(res["floor"])
    support_min = cycle.chain.support_min()
    _expect(
        problems,
        support_min is not None and floor == support_min - slack,
        "enumeration floor does not replay",
    )
    faces = enumerate_faces(cx, floor, window, radius, cell_cap)
    if not _expect(
        problems,
        [cell_payload(cx, f) for f in faces] == res["faces"],
        "face enumeration does not replay",
    ):
        return problems
    rhs = dict(cycle.chain.terms)
    if res["status"] == "sat":
        coefficients = res["coefficients"]
        if not _expect(
            problems,
            isinstance(coefficients, list) and len(coefficients) == len(faces),
            "one coefficient per face is required",
        ):
            return problems
        filling = WindowedChain(
            cx, 2, {f: c for f, c in zip(faces, coefficients) if c}, None
        )
        _expect(
            problems,
            filling.boundary().equal_below(
                cx.chain(1, rhs, window), window
            ),
            "boundary of the filling does not match the cycle below the window",
        )
        extraction = res["extraction"]
        if extraction is not None and "error" not in extraction:
            path = parse_path(model, extraction["path"])
            _expect(
                problems,
                path.origin == start and path.terminus == end,
                "extracted path endpoints do not match",
            )
            lo, _ = phi_extrema(qm, path)
            bound = parse_exact(extraction["bound"])
            _expect(problems, lo == parse_exact(extraction["min_phi"]), "extracted minimum does not replay")
            _expect(problems, bound == -defect, "extraction bound is not -D")
            _expect(
                problems,
                extraction["meets_bound"] == (lo >= bound),
                "meets_bound flag does not replay",
            )
    elif res["status"] == "unsat":
        cert = res["certificate"]
        functional = {
            parse_cell(cx, cell): int(coeff) for cell, coeff in cert["functional"]
        }
        columns = [_trimmed_boundary_column(cx, f, window) for f in faces]
        _expect(
            problems,
            check_unsat_certificate(
                columns, rhs, UnsatCertificate(functional, int(cert["modulus"]))
            ),
            "infeasibility certificate does not annihilate the system",
        )
    else:
        problems.append(f"unknown solve status {res['status']!r}")
    return problems


def _check_zs_cycle(exp: Experiment, spec: ProbeSpec, res: dict) -> list:
    problems: list = []
    qm = _qm_of(exp, res)
    model = exp.model
    defect = parse_exact(res["defect"])
    cx = CayleyComplex(qm, defect)
    scaling = _element(model, res["scaling"])
    letter = parse_letter(model, res["s"])
    depth = res["depth"]
    k = parse_exact(res["k"])
    radius = res["radius"]
    phi_c = qm.homogeneous_value(scaling)
    threshold = res["threshold"]
    _expect(
        problems,
        parse_exact(threshold["n_phi_c"]) == phi_c * depth
        and parse_exact(threshold["required"]) == k + defect + 1
        and threshold["satisfied"] == (phi_c * depth > k + defect + 1),
        "threshold numbers do not replay",
    )
    status = res["status"]
    if status == "zero-by-convention":
        _expect(problems, letter == scaling.letters()[0], "only z_c is zero by convention")
        _expect(problems, res["chain"]["terms"] == [], "conventionally zero cycle has terms")
        return problems
    top = scaling ** depth
    target = model.generator_element(letter) * top
    if status == "not-found":
        again = bounded_path_search(qm, top, target, k - phi_c * depth, radius)
        ok = isinstance(again, NotFoundWithinBall)
        _expect(problems, ok, "a high path exists although the report claims none does")
        if ok:
            _expect(
                problems,
                again.explored == res["explored"] and again.reason == res["reason"],
                "the failed search transcript does not replay",
            )
        return problems
    if status != "ok":
        return [f"unknown status {status!r}"]
    high = parse_path(model, res["high_path"])
    _expect(
        problems,
        high.origin == top and high.terminus == target,
        "high path does not run from c^n to s c^n",
    )
    lo, _ = phi_extrema(qm, high)
    _expect(problems, lo == parse_exact(res["high_min"]), "high path minimum does not replay")
    _expect(problems, lo >= phi_c * depth - k, "high path dips below n phi(c) - K")
    zs = build_zs_cycle(cx, letter, scaling, depth, high, k_bound=k)
    _expect(problems, chain_payload(cx, zs.chain) == res["chain"], "cycle chain does not replay")
    return problems


_CHECKERS = {
    "defect": _check_defect,
    "aker-cert": _check_aker_cert,
    "rips-profile": _check_rips_profile,
    "path-search": _check_path_search,
    "q-library": _check_q_library,
    "peak-reduce": _check_peak_reduce,
    "f2z-example": _check_f2z_example,
    "free-obstruction": _check_free_obstruction,
    "novikov-solve": _check_novikov_solve,
    "zs-cycle": _check_zs_cycle,
}
