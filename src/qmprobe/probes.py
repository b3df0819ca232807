"""Probe kinds: one registry entry per kind.

A `ProbeKind` in `KINDS` holds everything the pipeline knows about a
kind:

* `validate(exp, probe)` checks a `[probe NAME]` section against the
  preconditions of the operation it will invoke, by calling the checks
  that operation makes itself, and stores the parsed values in
  `probe.settings`, under their config keys; a `ValueError` it raises
  becomes a `ConfigError` naming the section;
* `run(exp, probe)` makes the library call and hands the result, raw
  values and records carrying the full witness, to `report.encode`,
  which writes the JSON-compatible payload; a record is written as the
  object of its fields, so a record that reaches a body names its
  fields as the body does, and no result field is copied here by hand;
* `check(exp, probe, result)` rebuilds the payload from
  `probe.settings` and returns one problem per key where the recorded
  payload differs, none when it replays (see `_rederive`);
* `explain` is the text `qmprobe explain KIND` prints.

Every config section, probe or not, is read through a `Section`:
`get(key, parse, default)` parses one key and records it as read,
`check_used()` refuses any key that nothing read, so a misspelt key is
a config error rather than an absent one, and `apply(build, ...)` runs
a section's reader, naming the section in any `ValueError` it raises,
and then `check_used()`.

`config`, `runner`, `verify` and `cli` dispatch through `KINDS` and hold
no per-kind code.  The entries call the layer functions through this
module's globals rather than storing them, so a wrapper installed on a
module attribute (as the benchmark's tracer does) sees every call.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

from .errors import CapExceededError, ConfigError, ExtractionError, QmprobeError
from .exact import ZERO, ExactReal
from .groups import GroupModel, ball_size
from .novikov import (
    DEFAULT_CELL_CAP,
    MAX_SOLVE_BALL,
    BoundarySolveResult,
    CayleyComplex,
    RayCycle,
    boundary_faces,
    build_zs_cycle,
    check_defect,
    keep_negative_and_extract_path,
    ray_cycle,
    settle,
    windowed_boundary_solve,
)
from .paths import path_from_letters, straight_path
from .quasimorphisms import (
    MAX_SCAN_PAIRS,
    DefectEstimate,
    Quasimorphism,
    certify_aker_approximate_subgroup,
    check_dstar,
    defect_lower_bound,
    defect_witness,
    surd_base,
)
from .report import (
    certificate_payload,
    chain_payload,
    encode,
    face_payloads,
    parse_certificate,
    parse_element,
)
from .rips import DEFAULT_VERTEX_CAP, connectivity_profile
from .search import (
    MAX_OBSTRUCTION_LETTERS,
    MAX_OBSTRUCTION_VERTICES,
    MAX_SEARCH_BALL,
    NotFoundWithinBall,
    _scaling_letter,
    bounded_path_search,
    build_q_library,
    check_aker_endpoints,
    check_kernel_endpoints,
    check_positive_direction,
    check_scaling_window,
    check_search_ball,
    compute_constants,
    f2z_kernel_path_normalize,
    free_group_obstruction_probe,
    obstruction_denominator,
    peak_reduction,
)


_REQUIRED = object()


class Section:
    """One config section: its `title` as messages name it
    (`[probe climb]`), its raw keys, and the keys read so far.  A probe
    section also carries its `name`, the `kind` validation found and the
    parsed `settings`."""

    __slots__ = ("title", "name", "raw", "read", "kind", "settings")

    def __init__(self, title: str, raw: dict[str, str], name: str = ""):
        self.title = title
        self.name = name
        self.raw = raw
        self.read: set[str] = set()
        self.kind = ""
        self.settings: dict[str, object] = {}

    def get(self, key: str, parse: Callable[[str], object], default=_REQUIRED):
        """`parse` of the key's text, or `default` when the key is absent."""
        self.read.add(key)
        if key not in self.raw:
            if default is _REQUIRED:
                raise ConfigError(f"{self.title}: missing key {key!r}")
            return default
        try:
            return parse(self.raw[key])
        except ValueError as exc:
            raise ConfigError(f"{self.title}: {key}: {exc}") from exc

    def check_used(self) -> None:
        for key in self.raw:
            if key not in self.read:
                raise ConfigError(f"{self.title}: unknown key {key!r}")

    def apply(self, build: Callable, *args):
        """`build(*args, self)`, with a ValueError it raises naming this
        section; then every key must have been read."""
        try:
            value = build(*args, self)
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"{self.title}: {exc}") from exc
        self.check_used()
        return value


def integer(minimum: int) -> Callable[[str], int]:
    """The parser of an integer key that must be at least `minimum`."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise ValueError("must be an integer") from None
        if value < minimum:
            raise ValueError(f"must be at least {minimum}")
        return value

    return parse


def boolean(text: str) -> bool:
    text = text.lower()
    if text in ("yes", "true", "on", "1"):
        return True
    if text in ("no", "false", "off", "0"):
        return False
    raise ValueError("must be a boolean")


class Experiment:
    __slots__ = ("raw_text", "model", "quasimorphisms", "probes", "output_path")

    def __init__(
        self,
        raw_text: str,
        model: GroupModel,
        quasimorphisms: dict[str, Quasimorphism],
        probes: list[Section],
        output_path: Optional[str],
    ):
        self.raw_text = raw_text
        self.model = model
        self.quasimorphisms = quasimorphisms
        self.probes = probes
        self.output_path = output_path


class ProbeKind(NamedTuple):
    validate: Callable[[Experiment, Section], None]
    run: Callable[[Experiment, Section], dict]
    check: Callable[[Experiment, Section, dict], list]
    explain: str


def attempt(exp: Experiment, probe: Section) -> tuple[str, Optional[str], Optional[dict]]:
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


# -- validation checks shared by several kinds ---------------------------


def _need_qm(exp: Experiment, probe: Section) -> Quasimorphism:
    name = probe.get("qm", str)
    qm = exp.quasimorphisms.get(name)
    if qm is None:
        raise ValueError(f"unknown quasimorphism {name!r}")
    if not qm.is_homogeneous:
        raise ValueError(
            "this probe needs a homogeneous quasimorphism; "
            "wrap the base in a homogenized block"
        )
    probe.settings["qm"] = name
    return qm


def _radius(exp: Experiment, probe: Section, key: str = "radius", minimum: int = 0) -> int:
    """A radius-like key: at least `minimum` and within the ball cap."""
    value = probe.get(key, integer(minimum))
    if value > exp.model.ball_cap:
        raise ValueError(f"{key} exceeds the model ball cap")
    return value


def _work_bound(
    exp: Experiment,
    probe: Section,
    radius: int,
    work: Callable[[int], int] | int,
    counted: str,
    limit_name: str,
    limit: int,
    key: str = "radius",
) -> None:
    """Refuse a probe whose work at `key` = radius is more than `limit`:
    `work` itself, or `work(N)` for work over ball(radius) of N elements;
    `counted` spells the work around its count, as in "scans {} pairs".
    N is counted with `ball_size`, before any ball is built; ball(radius)
    holds at least the 2 radius + 1 powers of one generator, so a radius
    whose powers alone are too many is refused without counting its
    ball."""
    if isinstance(work, int):
        count, at_least = work, ""
    else:
        count = work(2 * radius + 1)
        at_least = "at least "
        if count <= limit:
            count, at_least = work(ball_size(exp.model, radius)), ""
    if count > limit:
        raise ValueError(
            f"{probe.kind} at {key} {radius} {counted.format(f'{at_least}{count}')}, "
            f"more than {limit_name} = {limit}"
        )


def _search_bound(exp: Experiment, probe: Section, radius: int, runs: int) -> None:
    """Refuse searches that would span more than MAX_SEARCH_BALL ball
    elements: `runs` breadth-first searches inside ball(radius)."""
    counted = "searches {} ball elements" + (f" in {runs} runs" if runs > 1 else "")
    _work_bound(
        exp, probe, radius, lambda n: n * runs, counted, "MAX_SEARCH_BALL", MAX_SEARCH_BALL
    )


def _level(
    qm: Quasimorphism, probe: Section, key: str, default=_REQUIRED, combined: tuple = ()
) -> ExactReal:
    """An exact key that the run holds phi-bar's values against and adds
    to the `combined` levels read before it: one in a surd base other
    than phi-bar's or theirs is refused, as the run's arithmetic would
    refuse it."""

    def parse(text: str) -> ExactReal:
        value = ExactReal.parse(text)
        surd_base(qm, *combined, value)
        return value

    return probe.get(key, parse, default)


def _defect_bound(qm: Quasimorphism, probe: Section) -> ExactReal:
    """The probe's `defect`, or the quasimorphism's structural bound."""
    defect = _level(qm, probe, "defect", qm.defect_upper())
    if defect is None:
        raise ValueError("no defect bound available; set 'defect' explicitly")
    check_defect(defect)
    return defect


# -- replay helpers shared by several kinds ------------------------------


def _qm(exp: Experiment, probe: Section) -> Quasimorphism:
    return exp.quasimorphisms[probe.settings["qm"]]


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


def _rederive(exp: Experiment, probe: Section, res: dict) -> list:
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


def _validate_defect(exp: Experiment, probe: Section) -> None:
    _need_qm(exp, probe)
    radius = _radius(exp, probe)
    _work_bound(
        exp, probe, radius, lambda n: n * (n + 1) // 2,
        "scans {} pairs", "MAX_SCAN_PAIRS", MAX_SCAN_PAIRS,
    )
    probe.settings.update(
        radius=radius,
        claimed_upper=probe.get("claimed_upper", ExactReal.parse, None),
    )


def _defect_payload(exp: Experiment, probe: Section, est: DefectEstimate) -> dict:
    out = {"qm": probe.settings["qm"], "provenance": est.provenance, **est._asdict()}
    return encode(out, exp.model)


def _run_defect(exp: Experiment, probe: Section) -> dict:
    s = probe.settings
    est = defect_lower_bound(_qm(exp, probe), s["radius"], upper=s["claimed_upper"])
    return _defect_payload(exp, probe, est)


def _check_defect(exp: Experiment, probe: Section, res: dict) -> list:
    """The recorded pair stands in for the scan of ball(radius)^2: it is
    re-evaluated, and any pair realizing the recorded lower bound will
    do."""
    s = probe.settings
    g, h = (parse_element(exp.model, word) for word in res["witness"])
    est = defect_witness(_qm(exp, probe), s["radius"], s["claimed_upper"], g, h)
    return _compare(_defect_payload(exp, probe, est), res)


# -- aker-cert -----------------------------------------------------------


def _validate_aker_cert(exp: Experiment, probe: Section) -> None:
    qm = _need_qm(exp, probe)
    dstar = probe.get("dstar", ExactReal.parse)
    check_dstar(dstar)
    radius = _radius(exp, probe)
    _work_bound(
        exp, probe, radius, lambda n: n * n, "scans {} pairs", "MAX_SCAN_PAIRS", MAX_SCAN_PAIRS
    )
    scaling = None
    if dstar > ZERO:
        scaling = probe.get("scaling", exp.model.parse_element)
        check_scaling_window(qm, scaling, dstar)
    probe.settings.update(dstar=dstar, radius=radius, scaling=scaling)


def _run_aker_cert(exp: Experiment, probe: Section) -> dict:
    s = probe.settings
    cert = certify_aker_approximate_subgroup(
        _qm(exp, probe), s["dstar"], s["scaling"], s["radius"]
    )
    return encode({"qm": s["qm"], **cert._asdict()}, exp.model)


# -- rips-profile --------------------------------------------------------


def _validate_rips_profile(exp: Experiment, probe: Section) -> None:
    model = exp.model
    n_max = _radius(exp, probe, "n_max", minimum=1)
    vertices = probe.get(
        "vertices",
        lambda text: tuple(model.parse_element(token.strip()) for token in text.split(",")),
        None,
    )
    if vertices is None:
        if "ball_radius" not in probe.raw:
            raise ValueError("needs 'vertices' or 'ball_radius'")
        probe.settings["ball_radius"] = _radius(exp, probe, "ball_radius")
    probe.settings.update(n_max=n_max, vertices=vertices)


def _run_rips_profile(exp: Experiment, probe: Section) -> dict:
    s = probe.settings
    vertices = s["vertices"]
    if vertices is None:
        # the ball is counted before it is built
        size = ball_size(exp.model, s["ball_radius"])
        if size > DEFAULT_VERTEX_CAP:
            raise CapExceededError("Rips vertex count", size, DEFAULT_VERTEX_CAP)
        vertices = exp.model.ball(s["ball_radius"])
    profile = connectivity_profile(vertices, s["n_max"])
    return encode({"n_max": s["n_max"], **profile._asdict()}, exp.model)


# -- path-search ---------------------------------------------------------


def _validate_path_search(exp: Experiment, probe: Section) -> None:
    model = exp.model
    qm = _need_qm(exp, probe)
    radius = _radius(exp, probe)
    _search_bound(exp, probe, radius, 1)
    start = probe.get("start", model.parse_element)
    target = probe.get("target", model.parse_element)
    check_search_ball(radius, start, target)
    probe.settings.update(
        radius=radius,
        start=start,
        target=target,
        k=_level(qm, probe, "k"),
        k_max=_level(qm, probe, "k_max", None),
    )


def _run_path_search(exp: Experiment, probe: Section) -> dict:
    s = probe.settings
    got = bounded_path_search(
        _qm(exp, probe), s["start"], s["target"], s["k"], s["radius"], s["k_max"]
    )
    out = {**s, "found": not isinstance(got, NotFoundWithinBall), **got._asdict()}
    return encode(out, exp.model)


# -- q-library -----------------------------------------------------------


def _validate_q_library(exp: Experiment, probe: Section) -> None:
    qm = _need_qm(exp, probe)
    dstar = probe.get("dstar", ExactReal.parse)
    kprime = probe.get("kprime", ExactReal.parse)
    scaling = probe.get("scaling", exp.model.parse_element)
    compute_constants(qm, dstar, kprime, scaling)
    _scaling_letter(exp.model, scaling)
    radius = _radius(exp, probe, minimum=1)
    # one search per ordered pair of the 2 * rank generator letters
    _search_bound(exp, probe, radius, (2 * exp.model.rank) ** 2)
    probe.settings.update(
        dstar=dstar,
        kprime=kprime,
        scaling=scaling,
        radius=radius,
        depth=probe.get("depth", integer(1), None),
    )


def _library(exp: Experiment, probe: Section):
    s = probe.settings
    qm = _qm(exp, probe)
    bundle = compute_constants(qm, s["dstar"], s["kprime"], s["scaling"])
    return build_q_library(qm, bundle, s["scaling"], s["radius"], s["depth"])


def _run_q_library(exp: Experiment, probe: Section) -> dict:
    out = {"qm": probe.settings["qm"], **_library(exp, probe)._asdict()}
    return encode(out, exp.model)


# -- peak-reduce ---------------------------------------------------------


def _validate_peak_reduce(exp: Experiment, probe: Section) -> None:
    _validate_q_library(exp, probe)
    model, s = exp.model, probe.settings
    origin = probe.get("origin", model.parse_element, model.identity())
    path = probe.get("letters", lambda text: path_from_letters(origin, model.parse_word(text)))
    check_aker_endpoints(_qm(exp, probe), path, s["dstar"])
    s["path"] = path


def _run_peak_reduce(exp: Experiment, probe: Section) -> dict:
    library = _library(exp, probe)
    trace = peak_reduction(_qm(exp, probe), probe.settings["path"], library)
    out = {"qm": probe.settings["qm"], "library": library, **trace._asdict()}
    return encode(out, exp.model)


# -- f2z-example ---------------------------------------------------------


def _validate_f2z_example(exp: Experiment, probe: Section) -> None:
    model = exp.model
    qm = _need_qm(exp, probe)
    start = probe.get("start", model.parse_element)
    target = probe.get("target", model.parse_element)
    check_kernel_endpoints(qm, start, target)
    probe.settings.update(start=start, target=target)


def _run_f2z_example(exp: Experiment, probe: Section) -> dict:
    s = probe.settings
    witness = f2z_kernel_path_normalize(
        _qm(exp, probe), straight_path(s["start"], s["target"])
    )
    return encode({**s, **witness._asdict()}, exp.model)


# -- free-obstruction ----------------------------------------------------


def _validate_free_obstruction(exp: Experiment, probe: Section) -> None:
    model = exp.model
    qm = _need_qm(exp, probe)
    x = probe.get("x", model.parse_element)
    scaling = probe.get("scaling", model.parse_element)
    dstar = probe.get("dstar", ExactReal.parse)
    obstruction_denominator(qm, x, scaling, dstar)
    depth = _radius(exp, probe, "max_depth", minimum=1)
    # the sum over n <= depth of 2 |x| + 2 n |c| + 1
    vertices = depth * (2 * x.length() + 1) + scaling.length() * depth * (depth + 1)
    _work_bound(
        exp, probe, depth, vertices,
        "walks up to {} geodesic vertices", "MAX_OBSTRUCTION_VERTICES", MAX_OBSTRUCTION_VERTICES,
        key="max_depth",
    )
    # each of those vertices times the longest, |x| + 2 n |c|; the
    # vertex bound keeps depth below 200 here
    lx, lc = x.length(), scaling.length()
    letters = sum((2 * lx + 2 * n * lc + 1) * (lx + 2 * n * lc) for n in range(1, depth + 1))
    _work_bound(
        exp, probe, depth, letters,
        "reads up to {} letters", "MAX_OBSTRUCTION_LETTERS", MAX_OBSTRUCTION_LETTERS,
        key="max_depth",
    )
    probe.settings.update(x=x, scaling=scaling, dstar=dstar, max_depth=depth)


def _run_free_obstruction(exp: Experiment, probe: Section) -> dict:
    s = probe.settings
    qm = _qm(exp, probe)
    runs = [
        free_group_obstruction_probe(qm, s["x"], s["scaling"], depth, s["dstar"])
        for depth in range(1, s["max_depth"] + 1)
    ]
    maxima = [rep.max_bound for rep in runs]
    increasing = all(b > a for a, b in zip(maxima, maxima[1:]))
    out = {**s, "runs": runs, "maxima_strictly_increasing": increasing}
    return encode(out, exp.model)


# -- novikov-solve -------------------------------------------------------


def _validate_novikov_solve(exp: Experiment, probe: Section) -> None:
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


def _novikov_payload(
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


def _run_novikov_solve(exp: Experiment, probe: Section) -> dict:
    s = probe.settings
    cx, cycle = _novikov_cycle(exp, probe)
    outcome = windowed_boundary_solve(
        cx, cycle.chain, s["window"], s["radius"], s["slack"], s["cell_cap"]
    )
    return _novikov_payload(probe, cx, cycle, outcome)


def _check_novikov_solve(exp: Experiment, probe: Section, res: dict) -> list:
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
        solution = parse_certificate(cx, res["certificate"])
    else:
        return [f"unknown solve status {status!r}"]
    outcome = settle(cx, cycle.chain, s["window"], floor, faces, solution, [])
    return _compare(_novikov_payload(probe, cx, cycle, outcome), res)


# -- zs-cycle ------------------------------------------------------------


def _validate_zs_cycle(exp: Experiment, probe: Section) -> None:
    model = exp.model
    qm = _need_qm(exp, probe)
    scaling = probe.get("scaling", model.parse_element)
    c = _scaling_letter(model, scaling)
    check_positive_direction(qm, scaling)
    letters = probe.get("s", model.parse_word)
    if len(letters) != 1:
        raise ValueError("s must be a single generator letter")
    radius = _radius(exp, probe, minimum=1)
    _search_bound(exp, probe, radius, 1)
    depth = probe.get("depth", integer(1))
    if letters[0] != c:
        # the search runs from c^n to s c^n (none for s = c); c^n has
        # length n, so c^(R + 1) is outside ball(R) as every deeper power
        # is, and a huge n is not built
        top = scaling ** min(depth, radius + 1)
        check_search_ball(radius, top, model.generator_element(letters[0]) * top)
    defect = _defect_bound(qm, probe)
    probe.settings.update(
        s=letters[0],
        scaling=scaling,
        depth=depth,
        k=_level(qm, probe, "k", combined=(defect,)),
        radius=radius,
        defect=defect,
    )


def _run_zs_cycle(exp: Experiment, probe: Section) -> dict:
    s = probe.settings
    qm = _qm(exp, probe)
    cx = CayleyComplex(qm, s["defect"])
    scaling = s["scaling"]
    depth = s["depth"]
    phi_c = qm.homogeneous_value(scaling)
    required = s["k"] + s["defect"] + 1
    out = {
        **s,
        "threshold": {
            "n_phi_c": phi_c * depth,
            "required": required,
            "satisfied": bool(phi_c * depth > required),
        },
    }
    if s["s"] == scaling.letters()[0]:
        zs = build_zs_cycle(cx, s["s"], scaling, depth, None)
        chain = chain_payload(cx, zs.chain, None)
        out.update(status="zero-by-convention", high_path=None, high_min=None, chain=chain)
        return encode(out, exp.model)
    top = scaling ** depth
    target = exp.model.generator_element(s["s"]) * top
    got = bounded_path_search(
        qm, top, target, s["k"] - phi_c * depth, s["radius"]
    )
    if isinstance(got, NotFoundWithinBall):
        out.update(status="not-found", high_path=None, high_min=None, chain=None, **got._asdict())
        return encode(out, exp.model)
    zs = build_zs_cycle(cx, s["s"], scaling, depth, got.path, k_bound=s["k"])
    chain = chain_payload(cx, zs.chain, None)
    out.update(status="ok", high_path=zs.high_path, high_min=zs.high_min, chain=chain)
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
built from one reports no upper bound.  The scan evaluates one
position per symmetry orbit of ball(R)^2, but its size is counted over
the whole triangle, N (N + 1) / 2 pairs for a ball of N elements: a
scan of more than MAX_SCAN_PAIRS pairs is refused when the config is
validated.""",
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
0, 1, -1, ..., 5, -5 with |phi-bar(g h c^m)| <= 2 D*.  The m = 0 test
is made once per orbit (g, h), (h, g), (g^-1, h^-1), (h^-1, g^-1), but
the size is counted over the whole square: a ball of N elements with
N^2 above MAX_SCAN_PAIRS is refused when the config is validated, and
so are D* < 0 and, for D* > 0, a c outside that window.""",
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
records how many admissible vertices were exhausted.  The search runs
on normal forms and compares integer numerators with the bounds; a
ball(R) of more than MAX_SEARCH_BALL elements is refused when the
config is validated.""",
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
stored vertex satisfies phi-bar > -N.  One search runs per ordered
pair, (2 rank)^2 in all; searches spanning more than MAX_SEARCH_BALL
ball elements in all are refused when the config is validated, and so
are D* <= 0, K' <= 2 D*, and a c that is not one generator letter with
4 D*/5 < phi-bar(c) <= D*.""",
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
backtracks afterwards leaves every vertex with phi-bar <= M + 2 D*.
The edges s, t, the essential vertices and the backtracks are read off
the path's recorded edge letters.  Validation makes q-library's
checks, bounds its searches the same way, and refuses a path with an
endpoint outside Aker(phi, D*) = { g : |phi-bar(g)| <= 2 D* }.""",
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
        f"""\
free-obstruction: conjugation sends a geodesic for x to one for
c^-n x c^n.  Each geodesic vertex v forces any path staying near the
level set to spend at least
max(0, (|phi-bar(v)| - 2 D*) / (max_s |phi-bar(s)| + D*)) steps at one
Rips scale to clear it.  Strictly increasing maxima over n show that no
single scale connects all the conjugates.  Depths up to max_depth N walk
up to the sum over n <= N of 2 |x| + 2 n |c| + 1 geodesic vertices,
and read up to the sum of those vertices times |x| + 2 n |c| letters,
since a vertex is evaluated in time linear in its length; more than
MAX_OBSTRUCTION_VERTICES = {MAX_OBSTRUCTION_VERTICES} vertices or MAX_OBSTRUCTION_LETTERS =
{MAX_OBSTRUCTION_LETTERS} letters is refused when the config is validated, as are a
model that is not free, x and c that commute, phi-bar(c) <= 0, D* < 0
and a denominator max_s |phi-bar(s)| + D* of 0.""",
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
reports "failed again on re-run".""",
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
interest is n phi-bar(c) > K + D + 1, reported as a threshold check.
The high path is a path-search inside ball(R).  Validation refuses a
ball(R) of more than MAX_SEARCH_BALL elements, a c^n or s c^n outside
ball(R) for s != c, an s that is not one generator letter, and a c that
is not one with positive phi-bar.""",
    ),
}
