"""Probe kinds: one registry entry per kind.

A `ProbeKind` in `KINDS` holds everything the pipeline knows about a
kind:

* `validate(exp, probe, where)` checks a `[probe NAME]` section against
  the preconditions of the operation it will invoke and stores the
  parsed values in `probe.settings`; `where` names the section in error
  messages;
* `run(exp, probe)` makes the library call and hands the result, raw
  values and records carrying the full witness, to `report.encode`,
  which writes the JSON-compatible payload;
* `check(exp, probe, result)` rebuilds the payload from
  `probe.settings` and returns one problem per key where the recorded
  payload differs, none when it replays (see `_rederive`);
* `explain` is the text `qmprobe explain KIND` prints.

`config`, `runner`, `verify` and `cli` dispatch through `KINDS` and hold
no per-kind code.  The entries call the layer functions through this
module's globals rather than storing them, so a wrapper installed on a
module attribute (as the benchmark's tracer does) sees every call.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

from .errors import (
    CapExceededError,
    ConfigError,
    ExtractionError,
    QmprobeError,
    ReplayError,
)
from .exact import ZERO, ExactReal
from .groups import GroupElement, GroupModel
from .intsolve import UnsatCertificate
from .novikov import (
    DEFAULT_CELL_CAP,
    BoundarySolveResult,
    CayleyComplex,
    RayCycle,
    boundary_faces,
    build_zs_cycle,
    keep_negative_and_extract_path,
    ray_cycle,
    settle,
    windowed_boundary_solve,
)
from .paths import path_from_letters, straight_path
from .quasimorphisms import (
    DefectEstimate,
    Quasimorphism,
    certify_aker_approximate_subgroup,
    defect_lower_bound,
    defect_witness,
)
from .report import cell_payload, encode, parse_cell
from .rips import _prepare_vertices, connectivity_profile
from .search import (
    NotFoundWithinBall,
    _is_f2z_example,
    bounded_path_search,
    build_q_library,
    compute_constants,
    f2z_kernel_path_normalize,
    free_group_obstruction_probe,
    peak_reduction,
)


class ProbeSpec:
    """A `[probe NAME]` section; validation fills `kind` and `settings`."""

    __slots__ = ("name", "kind", "raw", "settings")

    def __init__(self, name: str, kind: str, raw: dict[str, str]):
        self.name = name
        self.kind = kind
        self.raw = raw
        self.settings: dict[str, object] = {}


class Experiment:
    __slots__ = ("raw_text", "model", "quasimorphisms", "probes", "output_path")

    def __init__(
        self,
        raw_text: str,
        model: GroupModel,
        quasimorphisms: dict[str, Quasimorphism],
        probes: list[ProbeSpec],
        output_path: Optional[str],
    ):
        self.raw_text = raw_text
        self.model = model
        self.quasimorphisms = quasimorphisms
        self.probes = probes
        self.output_path = output_path


class ProbeKind(NamedTuple):
    validate: Callable[[Experiment, ProbeSpec, str], None]
    run: Callable[[Experiment, ProbeSpec], dict]
    check: Callable[[Experiment, ProbeSpec, dict], list]
    explain: str


def attempt(exp: Experiment, probe: ProbeSpec) -> tuple[str, Optional[str], Optional[dict]]:
    """(status, error, result) of one run of a validated probe.  A cap
    overrun is `cap-exceeded` and a failure `failed`, each with its
    message and no result; `run` and `verify` both go through here, so a
    recorded status can be reproduced."""
    try:
        return "ok", None, KINDS[probe.kind].run(exp, probe)
    except CapExceededError as exc:
        return "cap-exceeded", str(exc), None
    except (QmprobeError, ValueError) as exc:
        return "failed", str(exc), None


# -- reading config keys -------------------------------------------------


def get_int(raw: dict[str, str], key: str, where: str, default=None, minimum=None):
    if key not in raw:
        if default is not None:
            return default
        raise ConfigError(f"{where}: missing key {key!r}")
    try:
        value = int(raw[key])
    except ValueError as exc:
        raise ConfigError(f"{where}: {key} must be an integer") from exc
    if minimum is not None and value < minimum:
        raise ConfigError(f"{where}: {key} must be at least {minimum}")
    return value


def get_exact(raw: dict[str, str], key: str, where: str, default=None):
    if key not in raw:
        if default is not None:
            return default
        raise ConfigError(f"{where}: missing key {key!r}")
    try:
        return ExactReal.parse(raw[key])
    except ValueError as exc:
        raise ConfigError(f"{where}: {key}: {exc}") from exc


def get_element(model, raw, key, where, default=None) -> GroupElement:
    if key not in raw:
        if default is not None:
            return default
        raise ConfigError(f"{where}: missing key {key!r}")
    try:
        return model.parse_element(raw[key])
    except ValueError as exc:
        raise ConfigError(f"{where}: {key}: {exc}") from exc


def get_bool(raw: dict[str, str], key: str, where: str, default: bool) -> bool:
    if key not in raw:
        return default
    text = raw[key].strip().lower()
    if text in ("yes", "true", "on", "1"):
        return True
    if text in ("no", "false", "off", "0"):
        return False
    raise ConfigError(f"{where}: {key} must be a boolean")


# -- validation checks shared by several kinds ---------------------------


def _need_qm(exp: Experiment, probe: ProbeSpec, where: str) -> Quasimorphism:
    name = probe.raw.get("qm")
    if name is None:
        raise ConfigError(f"{where}: missing key 'qm'")
    qm = exp.quasimorphisms.get(name)
    if qm is None:
        raise ConfigError(f"{where}: unknown quasimorphism {name!r}")
    if not qm.is_homogeneous:
        raise ConfigError(
            f"{where}: this probe needs a homogeneous quasimorphism; "
            "wrap the base in a homogenized block"
        )
    probe.settings["qm_name"] = name
    return qm


def _radius(
    exp: Experiment, raw: dict[str, str], where: str, key: str = "radius", minimum: int = 0
) -> int:
    """A radius-like key: at least `minimum` and within the ball cap."""
    value = get_int(raw, key, where, minimum=minimum)
    if value > exp.model.ball_cap:
        raise ConfigError(f"{where}: {key} exceeds the model ball cap")
    return value


def _scaling_in_window(qm: Quasimorphism, scaling: GroupElement, dstar: ExactReal, where: str) -> None:
    value = qm.homogeneous_value(scaling)
    if not (dstar * 4 / ExactReal(5) < value and value <= dstar):
        raise ConfigError(
            f"{where}: scaling element value {value} is not in (4 D*/5, D*]"
        )


def _letter_scaling(model: GroupModel, raw: dict[str, str], where: str) -> GroupElement:
    scaling = get_element(model, raw, "scaling", where)
    if scaling.length() != 1:
        raise ConfigError(f"{where}: scaling must be a single generator letter")
    return scaling


def _positive_direction(qm: Quasimorphism, scaling: GroupElement, where: str) -> None:
    if not qm.homogeneous_value(scaling) > ZERO:
        raise ConfigError(f"{where}: scaling must have positive phi-bar")


def _defect_bound(qm: Quasimorphism, raw: dict[str, str], where: str) -> ExactReal:
    """The probe's `defect`, or the quasimorphism's structural bound."""
    defect = get_exact(raw, "defect", where) if "defect" in raw else qm.defect_upper()
    if defect is None:
        raise ConfigError(
            f"{where}: no defect bound available; set 'defect' explicitly"
        )
    if defect < ZERO:
        raise ConfigError(f"{where}: defect must be non-negative")
    return defect


# -- replay helpers shared by several kinds ------------------------------


def _qm(exp: Experiment, probe: ProbeSpec) -> Quasimorphism:
    return exp.quasimorphisms[probe.settings["qm_name"]]


def _element(model: GroupModel, payload: str) -> GroupElement:
    if not isinstance(payload, str):
        raise ReplayError(f"bad element payload {payload!r}")
    try:
        return model.parse_element(payload)
    except ValueError as exc:
        raise ReplayError(f"bad element payload {payload!r}: {exc}") from exc


def _compare(fresh: dict, res: dict, unchecked: tuple = ()) -> list:
    """One problem per key, outside `unchecked`, where the recorded
    object differs from the one rebuilt from the echoed config.  A key
    missing on one side differs, and values are compared type for type.

    `encode` writes only dicts, lists, strings, ints, bools and None,
    so the fresh payload equals its own JSON round trip and is compared
    as it is: dumping it would build one string per array element,
    which for an aker certificate's exponent table raises the peak
    memory of `verify` by more than the table itself."""
    if not isinstance(res, dict):
        raise TypeError("result is not an object")
    return [
        f"{key} does not replay"
        for key in sorted(fresh.keys() | res.keys())
        if key not in unchecked
        and not (key in fresh and key in res and _same(fresh[key], res[key]))
    ]


def _same(a, b) -> bool:
    """JSON equality type for type: unlike `==`, it tells 1, 1.0 and
    true apart."""
    if type(a) is not type(b):
        return False
    if type(a) is dict:
        return a.keys() == b.keys() and all(_same(v, b[k]) for k, v in a.items())
    if type(a) is list:
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b


def _rederive(exp: Experiment, probe: ProbeSpec, res: dict) -> list:
    """The one rule of `verify`: rebuild the payload from the echoed
    config and compare it key by key with the recorded one.  Here the
    probe is re-run through `attempt`; a re-run that is not `ok` is the
    one problem.  Every kind is re-derived this way except `defect` and
    `novikov-solve`, whose checks rebuild the payload the same way but
    put the recorded witness where the search would be.  A re-derived
    kind accepts only the canonical payload `run` emits, which is well
    defined because the searches break ties canonically; for
    rips-profile that includes the spanning forest."""
    status, error, fresh = attempt(exp, probe)
    if fresh is None:
        return [f"re-run gives {status}: {error}"]
    return _compare(fresh, res)


# -- defect --------------------------------------------------------------


def _validate_defect(exp: Experiment, probe: ProbeSpec, where: str) -> None:
    raw = probe.raw
    _need_qm(exp, probe, where)
    probe.settings.update(
        radius=_radius(exp, raw, where),
        claimed_upper=(
            get_exact(raw, "claimed_upper", where) if "claimed_upper" in raw else None
        ),
    )


def _defect_payload(exp: Experiment, probe: ProbeSpec, est: DefectEstimate) -> dict:
    out = {"qm": probe.settings["qm_name"], "provenance": est.provenance, **est._asdict()}
    return encode(out, exp.model)


def _run_defect(exp: Experiment, probe: ProbeSpec) -> dict:
    s = probe.settings
    est = defect_lower_bound(_qm(exp, probe), s["radius"], upper=s["claimed_upper"])
    return _defect_payload(exp, probe, est)


def _check_defect(exp: Experiment, probe: ProbeSpec, res: dict) -> list:
    """The recorded pair stands in for the scan of ball(radius)^2: it is
    re-evaluated, and any pair realizing the recorded lower bound will
    do."""
    s = probe.settings
    g, h = (_element(exp.model, word) for word in res["witness"])
    est = defect_witness(_qm(exp, probe), s["radius"], s["claimed_upper"], g, h)
    return _compare(_defect_payload(exp, probe, est), res)


# -- aker-cert -----------------------------------------------------------


def _validate_aker_cert(exp: Experiment, probe: ProbeSpec, where: str) -> None:
    raw = probe.raw
    qm = _need_qm(exp, probe, where)
    dstar = get_exact(raw, "dstar", where)
    if dstar < ZERO:
        raise ConfigError(f"{where}: dstar must be non-negative")
    radius = _radius(exp, raw, where)
    scaling = None
    if dstar > ZERO:
        scaling = get_element(exp.model, raw, "scaling", where)
        _scaling_in_window(qm, scaling, dstar, where)
    probe.settings.update(dstar=dstar, radius=radius, scaling=scaling)


def _run_aker_cert(exp: Experiment, probe: ProbeSpec) -> dict:
    s = probe.settings
    cert = certify_aker_approximate_subgroup(
        _qm(exp, probe), s["dstar"], s["scaling"], s["radius"]
    )
    return encode({"qm": s["qm_name"], **cert._asdict()}, exp.model)


# -- rips-profile --------------------------------------------------------


def _validate_rips_profile(exp: Experiment, probe: ProbeSpec, where: str) -> None:
    raw, model = probe.raw, exp.model
    n_max = _radius(exp, raw, where, "n_max", minimum=1)
    if "vertices" in raw:
        try:
            vertices = tuple(
                model.parse_element(token.strip()) for token in raw["vertices"].split(",")
            )
        except ValueError as exc:
            raise ConfigError(f"{where}: vertices: {exc}") from exc
    elif "ball_radius" in raw:
        vertices = model.ball(_radius(exp, raw, where, "ball_radius"))
    else:
        raise ConfigError(f"{where}: needs 'vertices' or 'ball_radius'")
    if not vertices:
        raise ConfigError(f"{where}: vertex list is empty")
    probe.settings.update(n_max=n_max, vertices=vertices)


def _run_rips_profile(exp: Experiment, probe: ProbeSpec) -> dict:
    s = probe.settings
    verts = _prepare_vertices(s["vertices"])
    profile = connectivity_profile(verts, s["n_max"])
    out = {
        "vertices": verts,
        "n_max": s["n_max"],
        "scales": profile.scales,
        "counts": profile.counts,
        "threshold": profile.threshold,
        "forest_at_threshold": profile.forest,
    }
    return encode(out, exp.model)


# -- path-search ---------------------------------------------------------


def _validate_path_search(exp: Experiment, probe: ProbeSpec, where: str) -> None:
    raw, model = probe.raw, exp.model
    _need_qm(exp, probe, where)
    radius = _radius(exp, raw, where)
    start = get_element(model, raw, "start", where)
    target = get_element(model, raw, "target", where)
    for label, g in (("start", start), ("target", target)):
        if g.length() > radius:
            raise ConfigError(f"{where}: {label} lies outside ball(radius)")
    probe.settings.update(
        radius=radius,
        start=start,
        target=target,
        k=get_exact(raw, "k", where),
        k_max=get_exact(raw, "k_max", where) if "k_max" in raw else None,
    )


def _run_path_search(exp: Experiment, probe: ProbeSpec) -> dict:
    s = probe.settings
    got = bounded_path_search(
        _qm(exp, probe), s["start"], s["target"], s["k"], s["radius"], s["k_max"]
    )
    out = {
        "qm": s["qm_name"],
        "start": s["start"],
        "target": s["target"],
        "k": s["k"],
        "k_max": s["k_max"],
        "radius": s["radius"],
    }
    if isinstance(got, NotFoundWithinBall):
        out.update(found=False, explored=got.explored, reason=got.reason)
    else:
        out.update(found=True, path=got.path, min_phi=got.min_phi, max_phi=got.max_phi)
    return encode(out, exp.model)


# -- q-library -----------------------------------------------------------


def _validate_q_library(exp: Experiment, probe: ProbeSpec, where: str) -> None:
    raw = probe.raw
    qm = _need_qm(exp, probe, where)
    dstar = get_exact(raw, "dstar", where)
    kprime = get_exact(raw, "kprime", where)
    if not dstar > ZERO:
        raise ConfigError(f"{where}: dstar must be positive")
    if not kprime > dstar + dstar:
        raise ConfigError(f"{where}: kprime must exceed 2*dstar")
    scaling = _letter_scaling(exp.model, raw, where)
    _scaling_in_window(qm, scaling, dstar, where)
    probe.settings.update(
        dstar=dstar,
        kprime=kprime,
        scaling=scaling,
        radius=_radius(exp, raw, where, minimum=1),
        depth=get_int(raw, "depth", where, minimum=1) if "depth" in raw else None,
    )


def _library(exp: Experiment, probe: ProbeSpec):
    s = probe.settings
    qm = _qm(exp, probe)
    bundle = compute_constants(qm, s["dstar"], s["kprime"], s["scaling"])
    return build_q_library(qm, bundle, s["scaling"], s["radius"], s["depth"])


def _library_payload(library) -> dict:
    """The library as raw values, for `encode`."""
    entries = [
        {
            "s": entry.pair[0],
            "t": entry.pair[1],
            "path": entry.path,
            "min_phi": entry.min_phi,
            "failure": entry.failure,
        }
        for entry in library.entries
    ]
    return {
        "scaling": library.scaling,
        "radius": library.radius,
        "depth": library.depth,
        "complete": library.complete,
        "bundle": library.bundle._asdict(),
        "entries": entries,
    }


def _run_q_library(exp: Experiment, probe: ProbeSpec) -> dict:
    out = _library_payload(_library(exp, probe))
    out["qm"] = probe.settings["qm_name"]
    return encode(out, exp.model)


# -- peak-reduce ---------------------------------------------------------


def _validate_peak_reduce(exp: Experiment, probe: ProbeSpec, where: str) -> None:
    _validate_q_library(exp, probe, where)
    raw, model, s = probe.raw, exp.model, probe.settings
    origin = get_element(model, raw, "origin", where, default=model.identity())
    if "letters" not in raw:
        raise ConfigError(f"{where}: missing key 'letters'")
    try:
        path = path_from_letters(origin, model.parse_word(raw["letters"]))
    except ValueError as exc:
        raise ConfigError(f"{where}: letters: {exc}") from exc
    qm = _qm(exp, probe)
    two_dstar = s["dstar"] + s["dstar"]
    for label, g in (("origin", path.origin), ("terminus", path.terminus)):
        if not abs(qm.homogeneous_value(g)) <= two_dstar:
            raise ConfigError(f"{where}: path {label} is outside Aker(phi, D*)")
    s["path"] = path


def _run_peak_reduce(exp: Experiment, probe: ProbeSpec) -> dict:
    library = _library(exp, probe)
    trace = peak_reduction(_qm(exp, probe), probe.settings["path"], library)
    steps = [
        {
            "height": step.height,
            "peaks": step.peak_count,
            "index": step.peak_index,
            "pair": step.pair,
            "min_phi": step.min_phi,
            "path_after": step.path_after,
        }
        for step in trace.steps
    ]
    out = {
        **trace._asdict(),
        "qm": probe.settings["qm_name"],
        "library": _library_payload(library),
        "steps": steps,
    }
    return encode(out, exp.model)


# -- f2z-example ---------------------------------------------------------


def _validate_f2z_example(exp: Experiment, probe: ProbeSpec, where: str) -> None:
    raw, model = probe.raw, exp.model
    qm = _need_qm(exp, probe, where)
    if not _is_f2z_example(qm):
        raise ConfigError(
            f"{where}: needs the F_2 x Z model with phi = (1, 0, sqrt(2))"
        )
    start = get_element(model, raw, "start", where)
    target = get_element(model, raw, "target", where)
    for label, g in (("start", start), ("target", target)):
        if qm.homogeneous_value(g) != ZERO:
            raise ConfigError(f"{where}: {label} is not in the kernel of phi")
    probe.settings.update(start=start, target=target)


def _run_f2z_example(exp: Experiment, probe: ProbeSpec) -> dict:
    s = probe.settings
    witness = f2z_kernel_path_normalize(
        _qm(exp, probe), straight_path(s["start"], s["target"])
    )
    out = {"qm": s["qm_name"], "start": s["start"], "target": s["target"], **witness._asdict()}
    return encode(out, exp.model)


# -- free-obstruction ----------------------------------------------------


def _validate_free_obstruction(exp: Experiment, probe: ProbeSpec, where: str) -> None:
    raw, model = probe.raw, exp.model
    qm = _need_qm(exp, probe, where)
    if model.abelian_rank != 0:
        raise ConfigError(f"{where}: needs a free group model")
    x = get_element(model, raw, "x", where)
    scaling = get_element(model, raw, "scaling", where)
    if x * scaling == scaling * x:
        raise ConfigError(f"{where}: x and scaling must not commute")
    _positive_direction(qm, scaling, where)
    dstar = get_exact(raw, "dstar", where)
    if dstar < ZERO:
        raise ConfigError(f"{where}: dstar must be non-negative")
    probe.settings.update(
        x=x,
        scaling=scaling,
        dstar=dstar,
        max_depth=_radius(exp, raw, where, "max_depth", minimum=1),
    )


def _run_free_obstruction(exp: Experiment, probe: ProbeSpec) -> dict:
    s = probe.settings
    qm = _qm(exp, probe)
    runs = []
    previous = None
    increasing = True
    for depth in range(1, s["max_depth"] + 1):
        rep = free_group_obstruction_probe(qm, s["x"], s["scaling"], depth, s["dstar"])
        if previous is not None and not rep.max_bound > previous:
            increasing = False
        previous = rep.max_bound
        runs.append(
            {
                "depth": depth,
                "geodesic": rep.geodesic,
                "bounds": rep.bounds,
                "max_bound": rep.max_bound,
            }
        )
    out = {
        "qm": s["qm_name"],
        "x": s["x"],
        "scaling": s["scaling"],
        "dstar": s["dstar"],
        "max_depth": s["max_depth"],
        "runs": runs,
        "maxima_strictly_increasing": increasing,
    }
    return encode(out, exp.model)


# -- novikov-solve -------------------------------------------------------


def _validate_novikov_solve(exp: Experiment, probe: ProbeSpec, where: str) -> None:
    raw, model = probe.raw, exp.model
    qm = _need_qm(exp, probe, where)
    scaling = _letter_scaling(model, raw, where)
    _positive_direction(qm, scaling, where)
    defect = _defect_bound(qm, raw, where)
    radius = _radius(exp, raw, where)
    slack = get_exact(raw, "slack", where, default=ZERO)
    if slack < ZERO:
        raise ConfigError(f"{where}: slack must be non-negative")
    probe.settings.update(
        start=get_element(model, raw, "start", where),
        end=get_element(model, raw, "end", where),
        scaling=scaling,
        window=get_exact(raw, "window", where),
        radius=radius,
        slack=slack,
        defect=defect,
        extract=get_bool(raw, "extract", where, default=True),
        cell_cap=get_int(raw, "cell_cap", where, default=DEFAULT_CELL_CAP, minimum=1),
    )


def _novikov_cycle(exp: Experiment, probe: ProbeSpec) -> tuple[CayleyComplex, RayCycle]:
    s = probe.settings
    cx = CayleyComplex(_qm(exp, probe), s["defect"])
    connecting = straight_path(s["start"], s["end"])
    return cx, ray_cycle(cx, s["start"], s["end"], connecting, s["scaling"], s["window"])


def _novikov_payload(
    probe: ProbeSpec, cx: CayleyComplex, cycle: RayCycle, outcome: BoundarySolveResult
) -> dict:
    s = probe.settings
    out = {
        "qm": s["qm_name"],
        "start": s["start"],
        "end": s["end"],
        "scaling": s["scaling"],
        "window": s["window"],
        "radius": s["radius"],
        "slack": s["slack"],
        "defect": s["defect"],
        "connecting": cycle.connecting,
        "cycle": cycle.chain,
        "floor": outcome.floor,
        "status": outcome.status,
        "faces": [cell_payload(cx, f) for f in outcome.faces],
        "coefficients": None,
        "certificate": None,
        "extraction": None,
    }
    if outcome.status == "sat":
        out["coefficients"] = outcome.coefficients
        if s["extract"]:
            try:
                extraction = keep_negative_and_extract_path(cx, outcome.filling, cycle)
                out["extraction"] = {
                    "path": extraction.path,
                    "min_phi": extraction.min_phi,
                    "bound": extraction.bound,
                    "meets_bound": extraction.meets_bound,
                }
            except ExtractionError as exc:
                out["extraction"] = {"error": str(exc)}
    else:
        cert = outcome.certificate
        cells = sorted(cert.functional, key=cx.cell_sort_key)
        out["certificate"] = {
            "modulus": cert.modulus,
            "functional": [[cell_payload(cx, c), cert.functional[c]] for c in cells],
        }
    return encode(out, cx.model)


def _run_novikov_solve(exp: Experiment, probe: ProbeSpec) -> dict:
    s = probe.settings
    cx, cycle = _novikov_cycle(exp, probe)
    outcome = windowed_boundary_solve(
        cx, cycle.chain, s["window"], s["radius"], s["slack"], s["cell_cap"]
    )
    return _novikov_payload(probe, cx, cycle, outcome)


def _check_novikov_solve(exp: Experiment, probe: ProbeSpec, res: dict) -> list:
    """The recorded filling or infeasibility certificate stands in for
    the solve: `novikov.settle`, the replay `run` puts the solver's own
    answer through, checks it against the re-enumerated faces, so any
    filling or certificate that replays will do."""
    s = probe.settings
    cx, cycle = _novikov_cycle(exp, probe)
    floor, faces = boundary_faces(
        cx, cycle.chain, s["window"], s["radius"], s["slack"], s["cell_cap"]
    )
    status = res["status"]
    if status == "sat":
        solution = res["coefficients"]
    elif status == "unsat":
        cert = res["certificate"]
        solution = UnsatCertificate(
            {parse_cell(cx, cell): coeff for cell, coeff in cert["functional"]},
            cert["modulus"],
        )
    else:
        return [f"unknown solve status {status!r}"]
    outcome = settle(cx, cycle.chain, s["window"], floor, s["radius"], faces, solution)
    return _compare(_novikov_payload(probe, cx, cycle, outcome), res)


# -- zs-cycle ------------------------------------------------------------


def _validate_zs_cycle(exp: Experiment, probe: ProbeSpec, where: str) -> None:
    raw, model = probe.raw, exp.model
    qm = _need_qm(exp, probe, where)
    scaling = _letter_scaling(model, raw, where)
    _positive_direction(qm, scaling, where)
    if "s" not in raw:
        raise ConfigError(f"{where}: missing key 's'")
    try:
        letters = model.parse_word(raw["s"])
    except ValueError as exc:
        raise ConfigError(f"{where}: s: {exc}") from exc
    if len(letters) != 1:
        raise ConfigError(f"{where}: s must be a single generator letter")
    radius = _radius(exp, raw, where, minimum=1)
    depth = get_int(raw, "depth", where, minimum=1)
    if radius < depth + 1:
        raise ConfigError(
            f"{where}: radius must be at least depth + 1 so that both "
            "endpoints of the high path lie inside the search ball"
        )
    defect = _defect_bound(qm, raw, where)
    probe.settings.update(
        s=letters[0],
        scaling=scaling,
        depth=depth,
        k=get_exact(raw, "k", where),
        radius=radius,
        defect=defect,
    )


def _run_zs_cycle(exp: Experiment, probe: ProbeSpec) -> dict:
    s = probe.settings
    qm = _qm(exp, probe)
    cx = CayleyComplex(qm, s["defect"])
    scaling = s["scaling"]
    depth = s["depth"]
    phi_c = qm.homogeneous_value(scaling)
    required = s["k"] + s["defect"] + 1
    out = {
        "qm": s["qm_name"],
        "s": s["s"],
        "scaling": scaling,
        "depth": depth,
        "k": s["k"],
        "radius": s["radius"],
        "defect": s["defect"],
        "threshold": {
            "n_phi_c": phi_c * depth,
            "required": required,
            "satisfied": bool(phi_c * depth > required),
        },
    }
    if s["s"] == scaling.letters()[0]:
        zs = build_zs_cycle(cx, s["s"], scaling, depth, None)
        out.update(status="zero-by-convention", high_path=None, high_min=None, chain=zs.chain)
        return encode(out, exp.model)
    top = scaling ** depth
    target = exp.model.generator_element(s["s"]) * top
    got = bounded_path_search(
        qm, top, target, s["k"] - phi_c * depth, s["radius"]
    )
    if isinstance(got, NotFoundWithinBall):
        out.update(
            status="not-found",
            high_path=None,
            high_min=None,
            chain=None,
            explored=got.explored,
            reason=got.reason,
        )
        return encode(out, exp.model)
    zs = build_zs_cycle(cx, s["s"], scaling, depth, got.path, k_bound=s["k"])
    out.update(status="ok", high_path=zs.high_path, high_min=zs.high_min, chain=zs.chain)
    return encode(out, exp.model)


# -- the registry --------------------------------------------------------


KINDS: dict[str, ProbeKind] = {
    "defect": ProbeKind(
        _validate_defect,
        _run_defect,
        _check_defect,
        """\
defect: certified interval around D(phi) = sup |phi(g) + phi(h) - phi(g h)|.
The lower bound comes from scanning ball(R)^2 with the three-term
expression, and, for homogeneous phi, from phi-bar of commutators
(phi-bar([g, h]) <= D(phi)).  The report stores the witness pair
realizing the lower bound.  The upper bound is the probe's
claimed_upper when given, checked against the lower bound; otherwise
it is structural: 0 for homomorphisms, summed with |coefficients|
through combinations and doubled by homogenization.  A Brooks counting
quasimorphism has no stored bound, so without claimed_upper any phi
built from one reports no upper bound.""",
    ),
    "aker-cert": ProbeKind(
        _validate_aker_cert,
        _run_aker_cert,
        _rederive,
        """\
aker-cert: approximate-subgroup certificate for
Aker(phi, D*) = { g : |phi-bar(g)| <= 2 D* } inside ball(R).
With a scaling element c satisfying 4 D*/5 < phi-bar(c) <= D*, the
witness set is X = { c^5, ..., c^-5 } (just {1} when D* = 0).  For each
member pair (g, h) the certificate records the first exponent m in
0, 1, -1, ..., 5, -5 with |phi-bar(g h c^m)| <= 2 D*.""",
    ),
    "rips-profile": ProbeKind(
        _validate_rips_profile,
        _run_rips_profile,
        _rederive,
        """\
rips-profile: connectivity of the Rips graph on a finite vertex set,
with an edge between distinct g, h whenever 0 < d(g, h) < n.  The
profile lists the component count for n = 1, ..., n_max and the first
scale with a single component; at that scale a spanning forest of
explicit edges certifies connectivity.""",
    ),
    "path-search": ProbeKind(
        _validate_path_search,
        _run_path_search,
        _rederive,
        """\
path-search: breadth-first search inside ball(R) over the admissible
vertices -K <= phi-bar(v) <= K_max (no ceiling when K_max is absent).
A found path is recorded with its exact phi-bar extrema; a failure
records how many admissible vertices were exhausted.""",
    ),
    "q-library": ProbeKind(
        _validate_q_library,
        _run_q_library,
        _rederive,
        """\
q-library: one replacement path per ordered generator pair (s, t),
shaped q_{s,t} = (descent c^-n) . (connecting path) . (ascent c^n)
from 1 to s t, with the connecting part searched inside ball(R) below
max(phi-bar(c^-n), phi-bar(s t c^-n)) + K'.  The descent depth is
n = floor((5 / (4 D*)) (K' + max_{s,t} phi-bar(s t) + D*)) + 3.
Interior essential vertices (those not flanked by a pair of
scaling-letter edges) must sit strictly below -D*.  The level guard is
N = max(K' + 2 D* + 1, 1 - min phi-bar over the library), so every
stored vertex satisfies phi-bar > -N.""",
    ),
    "peak-reduce": ProbeKind(
        _validate_peak_reduce,
        _run_peak_reduce,
        _rederive,
        """\
peak-reduce: height of a path is max floor(phi-bar) over its essential
vertices.  While the height exceeds M = 3 D* + max_s |phi-bar(s)|, the
first highest essential vertex v1 in v0 -> v1 -> v2 is replaced by the
library path v0 q_{s,t}, where s, t spell the incoming and outgoing
edges.  Each step strictly decreases (height, peak count)
lexicographically and stays above -N.  Removing scaling-letter
backtracks afterwards leaves every vertex with phi-bar <= M + 2 D*.""",
    ),
    "f2z-example": ProbeKind(
        _validate_f2z_example,
        _run_f2z_example,
        _rederive,
        """\
f2z-example: the rank-2 free by rank-1 abelian model with phi sending
the free generators to 1 and 0 and the central generator to sqrt(2).
A straight path between kernel elements is corrected prefix by prefix:
after each letter, insert the central power m = -floor(v / sqrt(2) + 1/2)
where v is the current vertex value.  The corrected path stays inside
-3 <= phi-bar <= 3, exactly.""",
    ),
    "free-obstruction": ProbeKind(
        _validate_free_obstruction,
        _run_free_obstruction,
        _rederive,
        """\
free-obstruction: conjugation sends a geodesic for x to one for
c^-n x c^n.  Each geodesic vertex v forces any path staying near the
level set to spend at least
max(0, (|phi-bar(v)| - 2 D*) / (max_s |phi-bar(s)| + D*)) steps at one
Rips scale to clear it.  Strictly increasing maxima over n show that no
single scale connects all the conjugates.""",
    ),
    "novikov-solve": ProbeKind(
        _validate_novikov_solve,
        _run_novikov_solve,
        _check_novikov_solve,
        """\
novikov-solve: the ray cycle z = q + ray(end) - ray(start) glues a
connecting path to two forward scaling rays, truncated below the
window W (the ray on x stops once phi-bar provably exceeds W, after
floor((W - phi-bar(x) + D) / phi-bar(c)) + 1 steps).  The probe solves
the integer system boundary(y) = z over faces with values in
[min z - slack, W) based in ball(R).  A solution is replayed as an
exact filling below W; infeasibility is certified by a functional that
annihilates every face boundary but not z (modulo m, or over Z when
m = 0).  Keeping only the filling's faces at negative values and taking
the boundary leaves a residual supported at phi-bar >= 0 whose support
connects the rays; the extracted composite path from start to end is
checked against min phi-bar >= -D.""",
    ),
    "zs-cycle": ProbeKind(
        _validate_zs_cycle,
        _run_zs_cycle,
        _rederive,
        """\
zs-cycle: for a generator s, z_s is the difference of two paths from
c^n to s c^n: the down-up path through the identity (descend c^-n, step
s, ascend c^n) and a high path with min phi-bar >= n phi-bar(c) - K.
For s = c the two constructions coincide and z_c = 0 by convention.
The cycle is exact (boundary zero with no window), and the regime of
interest is n phi-bar(c) > K + D + 1, reported as a threshold check.""",
    ),
}
