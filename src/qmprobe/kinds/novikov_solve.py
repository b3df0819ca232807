"""The `novikov-solve` probe: a windowed boundary solve of a ray cycle,
and the path a filling extracts."""

from __future__ import annotations

from ..errors import ExtractionError, ReplayError
from ..exact import ZERO
from ..groups import _scaling_letter
from ..novikov import (
    DEFAULT_CELL_CAP,
    MAX_SOLVE_BALL,
    BoundarySolveResult,
    CayleyComplex,
    RayCycle,
    boundary_faces,
    keep_negative_and_extract_path,
    ray_cycle,
    settle,
    windowed_boundary_solve,
)
from ..paths import straight_path
from ..probes import (
    Experiment,
    Section,
    _defect_bound,
    _level,
    _need_qm,
    _qm,
    _radius,
    _work_bound,
    boolean,
    integer,
)
from ..quasimorphisms import check_positive_direction
from ..report import certificate_payload, chain_payload, encode, face_payloads, parse_certificate

explain = """\
novikov-solve: the ray cycle z = q + ray(end) - ray(start) glues a
connecting path to two forward scaling rays, truncated below the
window W (the ray on x stops once phi-bar provably exceeds W, after
floor((W - phi-bar(x) + D) / phi-bar(c)) + 1 steps).  The probe solves
the integer system boundary(y) = z over faces with values in
[min z - slack, W) based in ball(R).  It solves on the faces based in
ball(k) for k = 0, 1, 2, 4, ... below R, then on all of them, and
records the first solution found, padded with zeros: a filling over
ball(k) is one over ball(R).  Each radius is first collapsed: a face
with a free edge (an edge in no other remaining face, coefficient +-1)
is removed, and when no face is left every coefficient is forced in
collapse order and is the unique solution, or no solution exists.  The
collapse then writes the certificate of every system it empties: one
edge where the residual is not 0, the first edge of z in no face when
there is one, lifted back through the collapses in reverse order.
Only a core, a system the collapse cannot empty, is eliminated.  A
solution is replayed as an exact filling below W; infeasibility is
certified by a functional that annihilates every face boundary but not
z (modulo m, or over Z when m = 0).  Keeping only the filling's faces
at negative values and taking the boundary leaves a residual supported
at phi-bar >= 0 whose support connects the rays; an empty residual
connects them only when end = start c^k, and the path is then the ray
segment c^k.  The extracted composite path from start to end is
checked against min phi-bar >= min(0, phi-bar(start), phi-bar(end))
- D: the support sits at levels >= 0 and the rays climb from the
endpoints.  An unsat at R certifies only that no integer filling by
the faces admitted in ball(R) exists, not that Novikov homology is
non-zero: a filling may need faces outside the ball.  When phi vanishes on Z^m
and z projects to a non-zero chain on the tree of F_n, no radius fills
z (the pullback of a tree edge z crosses annihilates every face
column), as Bieri, Neumann and Strebel (1987) predict for a character
through F_n.  A radius whose ball holds more than MAX_SOLVE_BALL
elements is refused when the config is validated, as are a c that is
not one generator letter with positive phi-bar and a negative defect
D.  A window that does not hold the connecting path is refused only
when the probe runs, with status `failed`, and `verify` re-runs it and
reports "failed again on re-run"."""


def validate(exp: Experiment, probe: Section) -> None:
    model = exp.model
    qm = _need_qm(exp, probe)
    scaling = probe.get("scaling", model.parse_element)
    _scaling_letter(model, scaling)
    check_positive_direction(qm, scaling)
    defect = _defect_bound(qm, probe)
    radius = _radius(exp, probe)
    _work_bound(
        exp, probe, radius, lambda n: n,
        "enumerates {} ball elements", "MAX_SOLVE_BALL", MAX_SOLVE_BALL,
    )
    slack = _level(qm, probe, "slack", ZERO, combined=(defect,))
    if slack < ZERO:
        raise ValueError("slack must be non-negative")
    probe.settings.update(
        start=probe.get("start", model.parse_element),
        end=probe.get("end", model.parse_element),
        scaling=scaling,
        window=_level(qm, probe, "window", combined=(defect, slack)),
        radius=radius,
        slack=slack,
        defect=defect,
        extract=probe.get("extract", boolean, True),
        cell_cap=probe.get("cell_cap", integer(1), DEFAULT_CELL_CAP),
    )


def _novikov_cycle(exp: Experiment, probe: Section) -> tuple[CayleyComplex, RayCycle]:
    s = probe.settings
    cx = CayleyComplex(_qm(exp, probe), s["defect"])
    connecting = straight_path(s["start"], s["end"])
    return cx, ray_cycle(cx, s["start"], s["end"], connecting, s["scaling"], s["window"])


def _payload(
    probe: Section, cx: CayleyComplex, cycle: RayCycle, outcome: BoundarySolveResult
) -> dict:
    s = probe.settings
    out = {
        **s,
        "connecting": cycle.connecting,
        "cycle": chain_payload(cx, cycle.chain, cycle.window),
        "floor": outcome.floor,
        "status": outcome.status,
        "faces": None,
        "coefficients": None,
        "certificate": None,
        "extraction": None,
    }
    del out["extract"], out["cell_cap"]
    if outcome.status == "sat":
        out["coefficients"] = outcome.coefficients
        if s["extract"]:
            try:
                out["extraction"] = keep_negative_and_extract_path(cx, outcome.filling, cycle)
            except ExtractionError as exc:
                out["extraction"] = {"error": str(exc)}
    else:
        out["certificate"] = certificate_payload(cx, outcome.certificate)
    payload = encode(out, cx.model)
    # written after encoding: the face list is plain JSON already, and
    # encode would only walk its thousands of entries
    payload["faces"] = face_payloads(cx, outcome.faces)
    return payload


def run(exp: Experiment, probe: Section) -> dict:
    s = probe.settings
    cx, cycle = _novikov_cycle(exp, probe)
    outcome = windowed_boundary_solve(
        cx, cycle.chain, s["window"], s["radius"], s["slack"], s["cell_cap"]
    )
    return _payload(probe, cx, cycle, outcome)


def replay(exp: Experiment, probe: Section, res: dict) -> dict:
    """The payload with the recorded filling or infeasibility
    certificate standing in for the solve: `novikov.settle`, the replay
    `run` puts the solver's own answer through, checks it against the
    re-enumerated faces, so any filling or certificate that replays
    will do."""
    s = probe.settings
    cx, cycle = _novikov_cycle(exp, probe)
    floor, faces = boundary_faces(
        cx, cycle.chain, s["window"], s["radius"], s["slack"], s["cell_cap"]
    )
    status = res["status"]
    if status == "sat":
        solution = res["coefficients"]
    elif status == "unsat":
        solution = parse_certificate(cx, res["certificate"])
    else:
        raise ReplayError(f"unknown solve status {status!r}")
    outcome = settle(cx, cycle.chain, s["window"], floor, faces, solution, [])
    return _payload(probe, cx, cycle, outcome)
