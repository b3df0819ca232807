"""Experiment configuration: a plain INI dialect, fully validated
before anything runs.

A config has one `[group]` section, one or more `[quasimorphism NAME]`
sections, probe sections `[probe NAME]`, and an optional `[output]`
section.  Generator names are case-sensitive, so key case is
preserved.  Example:

    [group]
    free_rank = 2
    abelian_rank = 1
    names = a b c
    ball_cap = 12

    [quasimorphism phi]
    kind = homomorphism
    a = 1
    c = sqrt(2)

    [quasimorphism psi]
    kind = brooks
    word = a b

    [probe climb]
    kind = path-search
    qm = phi
    start = 1
    target = a c^-1
    k = 1
    radius = 4

Every probe's parameters are checked against the preconditions of the
operation it will invoke; a violation raises ConfigError naming the
section and key, and nothing is executed.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from typing import Optional

from .errors import ConfigError
from .exact import ExactReal, ZERO
from .groups import DEFAULT_BALL_CAP, GroupElement, GroupModel
from .novikov import DEFAULT_CELL_CAP
from .paths import path_from_letters
from .quasimorphisms import (
    BrooksQM,
    CombinationQM,
    HomogenizedQM,
    HomomorphismQM,
    Quasimorphism,
)
from .search import _is_f2z_example

PROBE_KINDS = (
    "defect",
    "aker-cert",
    "rips-profile",
    "path-search",
    "q-library",
    "peak-reduce",
    "f2z-example",
    "free-obstruction",
    "novikov-solve",
    "zs-cycle",
)


@dataclass
class ProbeSpec:
    name: str
    kind: str
    raw: dict[str, str]
    settings: dict[str, object] = field(default_factory=dict)


@dataclass
class Experiment:
    raw_text: str
    model: GroupModel
    quasimorphisms: dict[str, Quasimorphism]
    probes: list[ProbeSpec]
    output_path: Optional[str]


def load_experiment(path: str, ball_cap: Optional[int] = None) -> Experiment:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_experiment(text, ball_cap=ball_cap)


def parse_experiment(text: str, ball_cap: Optional[int] = None) -> Experiment:
    parser = configparser.ConfigParser(
        delimiters=("=",), interpolation=None, strict=True
    )
    parser.optionxform = str
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc

    if "group" not in parser:
        raise ConfigError("missing [group] section")
    model = _build_model(parser["group"], ball_cap)

    qms: dict[str, Quasimorphism] = {}
    probes: list[ProbeSpec] = []
    output_path = None
    for section in parser.sections():
        if section == "group":
            continue
        if section == "output":
            output_path = parser[section].get("path")
            continue
        if section.startswith("quasimorphism "):
            name = section[len("quasimorphism ") :].strip()
            if not name:
                raise ConfigError("quasimorphism section without a name")
            if name in qms:
                raise ConfigError(f"duplicate quasimorphism name {name!r}")
            qms[name] = _build_qm(model, name, dict(parser[section]), qms)
            continue
        if section.startswith("probe "):
            name = section[len("probe ") :].strip()
            if not name:
                raise ConfigError("probe section without a name")
            if any(p.name == name for p in probes):
                raise ConfigError(f"duplicate probe name {name!r}")
            probes.append(ProbeSpec(name=name, kind="", raw=dict(parser[section])))
            continue
        raise ConfigError(f"unknown section [{section}]")

    if not probes:
        raise ConfigError("config defines no probes")
    exp = Experiment(text, model, qms, probes, output_path)
    for probe in probes:
        _validate_probe(exp, probe)
    return exp


# -- section builders ----------------------------------------------------


def _get_int(raw: dict[str, str], key: str, where: str, default=None, minimum=None):
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


def _get_exact(raw: dict[str, str], key: str, where: str, default=None):
    if key not in raw:
        if default is not None:
            return default
        raise ConfigError(f"{where}: missing key {key!r}")
    try:
        return ExactReal.parse(raw[key])
    except ValueError as exc:
        raise ConfigError(f"{where}: {key}: {exc}") from exc


def _get_element(model, raw, key, where, default=None) -> GroupElement:
    if key not in raw:
        if default is not None:
            return default
        raise ConfigError(f"{where}: missing key {key!r}")
    try:
        return model.parse_element(raw[key])
    except ValueError as exc:
        raise ConfigError(f"{where}: {key}: {exc}") from exc


def _get_bool(raw: dict[str, str], key: str, where: str, default: bool) -> bool:
    if key not in raw:
        return default
    text = raw[key].strip().lower()
    if text in ("yes", "true", "on", "1"):
        return True
    if text in ("no", "false", "off", "0"):
        return False
    raise ConfigError(f"{where}: {key} must be a boolean")


def _build_model(section, ball_cap_override: Optional[int]) -> GroupModel:
    raw = dict(section)
    where = "[group]"
    free_rank = _get_int(raw, "free_rank", where, default=0, minimum=0)
    abelian_rank = _get_int(raw, "abelian_rank", where, default=0, minimum=0)
    cap = _get_int(raw, "ball_cap", where, default=DEFAULT_BALL_CAP, minimum=1)
    if ball_cap_override is not None:
        cap = ball_cap_override
    names: tuple[str, ...] = ()
    if "names" in raw:
        names = tuple(raw["names"].split())
    known = {"free_rank", "abelian_rank", "ball_cap", "names"}
    for key in raw:
        if key not in known:
            raise ConfigError(f"{where}: unknown key {key!r}")
    try:
        return GroupModel(
            free_rank=free_rank,
            abelian_rank=abelian_rank,
            generator_names=names,
            ball_cap=cap,
        )
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _build_qm(
    model: GroupModel,
    name: str,
    raw: dict[str, str],
    known: dict[str, Quasimorphism],
) -> Quasimorphism:
    where = f"[quasimorphism {name}]"
    kind = raw.pop("kind", None)
    if kind is None:
        raise ConfigError(f"{where}: missing key 'kind'")
    if kind == "homomorphism":
        names = [model.generator_name(g) for g in model.positive_generators()]
        values = []
        for gen_name in names:
            values.append(_get_exact(raw, gen_name, where, default=ZERO))
        for key in raw:
            if key not in names:
                raise ConfigError(f"{where}: {key!r} is not a generator name")
        return HomomorphismQM(model, tuple(values))
    if kind == "brooks":
        if "word" not in raw:
            raise ConfigError(f"{where}: missing key 'word'")
        try:
            word = model.parse_word(raw["word"])
            return BrooksQM(model, word)
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    if kind == "homogenized":
        base_name = raw.get("base")
        if base_name is None:
            raise ConfigError(f"{where}: missing key 'base'")
        if base_name not in known:
            raise ConfigError(f"{where}: unknown quasimorphism {base_name!r}")
        try:
            return HomogenizedQM(known[base_name])
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    if kind == "combination":
        spec = raw.get("terms")
        if spec is None:
            raise ConfigError(f"{where}: missing key 'terms'")
        coefficients = []
        parts = []
        for term in spec.split(","):
            term = term.strip()
            if "*" not in term:
                raise ConfigError(f"{where}: term {term!r} is not coeff*name")
            coeff_text, part_name = term.split("*", 1)
            part_name = part_name.strip()
            if part_name not in known:
                raise ConfigError(f"{where}: unknown quasimorphism {part_name!r}")
            try:
                coefficients.append(ExactReal.parse(coeff_text.strip()))
            except ValueError as exc:
                raise ConfigError(f"{where}: {exc}") from exc
            parts.append(known[part_name])
        return CombinationQM(tuple(coefficients), tuple(parts))
    raise ConfigError(f"{where}: unknown kind {kind!r}")


# -- probe validation ----------------------------------------------------


def _need_qm(exp: Experiment, probe: ProbeSpec, where: str) -> Quasimorphism:
    name = probe.raw.get("qm")
    if name is None:
        raise ConfigError(f"{where}: missing key 'qm'")
    qm = exp.quasimorphisms.get(name)
    if qm is None:
        raise ConfigError(f"{where}: unknown quasimorphism {name!r}")
    probe.settings["qm_name"] = name
    return qm


def _need_homogeneous(qm: Quasimorphism, where: str) -> None:
    if not qm.is_homogeneous:
        raise ConfigError(
            f"{where}: this probe needs a homogeneous quasimorphism; "
            "wrap the base in a homogenized block"
        )


def _validate_probe(exp: Experiment, probe: ProbeSpec) -> None:
    raw = probe.raw
    where = f"[probe {probe.name}]"
    kind = raw.get("kind")
    if kind is None:
        raise ConfigError(f"{where}: missing key 'kind'")
    if kind not in PROBE_KINDS:
        raise ConfigError(f"{where}: unknown probe kind {kind!r}")
    probe.kind = kind
    model = exp.model
    s = probe.settings

    if kind == "defect":
        qm = _need_qm(exp, probe, where)
        _need_homogeneous(qm, where)
        s["radius"] = _get_int(raw, "radius", where, minimum=0)
        if s["radius"] > model.ball_cap:
            raise ConfigError(f"{where}: radius exceeds the model ball cap")
        s["claimed_upper"] = (
            _get_exact(raw, "claimed_upper", where) if "claimed_upper" in raw else None
        )
        return

    if kind == "aker-cert":
        qm = _need_qm(exp, probe, where)
        _need_homogeneous(qm, where)
        dstar = _get_exact(raw, "dstar", where)
        if dstar < ZERO:
            raise ConfigError(f"{where}: dstar must be non-negative")
        s["dstar"] = dstar
        s["radius"] = _get_int(raw, "radius", where, minimum=0)
        if s["radius"] > model.ball_cap:
            raise ConfigError(f"{where}: radius exceeds the model ball cap")
        if dstar > ZERO:
            scaling = _get_element(model, raw, "scaling", where)
            value = qm.homogeneous_value(scaling)
            lo = dstar * 4 / ExactReal(5)
            if not (lo < value and value <= dstar):
                raise ConfigError(
                    f"{where}: scaling element value {value} is not in (4 D*/5, D*]"
                )
            s["scaling"] = scaling
        else:
            s["scaling"] = None
        return

    if kind == "rips-profile":
        s["n_max"] = _get_int(raw, "n_max", where, minimum=1)
        if "vertices" in raw:
            try:
                vertices = tuple(
                    model.parse_element(token.strip())
                    for token in raw["vertices"].split(",")
                )
            except ValueError as exc:
                raise ConfigError(f"{where}: vertices: {exc}") from exc
        elif "ball_radius" in raw:
            radius = _get_int(raw, "ball_radius", where, minimum=0)
            if radius > model.ball_cap:
                raise ConfigError(f"{where}: ball_radius exceeds the model ball cap")
            vertices = model.ball(radius)
        else:
            raise ConfigError(f"{where}: needs 'vertices' or 'ball_radius'")
        if not vertices:
            raise ConfigError(f"{where}: vertex list is empty")
        s["vertices"] = vertices
        return

    if kind == "path-search":
        qm = _need_qm(exp, probe, where)
        _need_homogeneous(qm, where)
        radius = _get_int(raw, "radius", where, minimum=0)
        if radius > model.ball_cap:
            raise ConfigError(f"{where}: radius exceeds the model ball cap")
        start = _get_element(model, raw, "start", where)
        target = _get_element(model, raw, "target", where)
        for label, g in (("start", start), ("target", target)):
            if g.length() > radius:
                raise ConfigError(f"{where}: {label} lies outside ball(radius)")
        s.update(
            radius=radius,
            start=start,
            target=target,
            k=_get_exact(raw, "k", where),
            k_max=_get_exact(raw, "k_max", where) if "k_max" in raw else None,
        )
        return

    if kind in ("q-library", "peak-reduce"):
        qm = _need_qm(exp, probe, where)
        _need_homogeneous(qm, where)
        dstar = _get_exact(raw, "dstar", where)
        kprime = _get_exact(raw, "kprime", where)
        if not dstar > ZERO:
            raise ConfigError(f"{where}: dstar must be positive")
        if not kprime > dstar + dstar:
            raise ConfigError(f"{where}: kprime must exceed 2*dstar")
        scaling = _get_element(model, raw, "scaling", where)
        if scaling.length() != 1:
            raise ConfigError(f"{where}: scaling must be a single generator letter")
        value = qm.homogeneous_value(scaling)
        lo = dstar * 4 / ExactReal(5)
        if not (lo < value and value <= dstar):
            raise ConfigError(
                f"{where}: scaling element value {value} is not in (4 D*/5, D*]"
            )
        radius = _get_int(raw, "radius", where, minimum=1)
        if radius > model.ball_cap:
            raise ConfigError(f"{where}: radius exceeds the model ball cap")
        s.update(dstar=dstar, kprime=kprime, scaling=scaling, radius=radius)
        if "depth" in raw:
            s["depth"] = _get_int(raw, "depth", where, minimum=1)
        else:
            s["depth"] = None
        if kind == "peak-reduce":
            origin = _get_element(model, raw, "origin", where, default=model.identity())
            if "letters" not in raw:
                raise ConfigError(f"{where}: missing key 'letters'")
            try:
                letters = model.parse_word(raw["letters"])
                path = path_from_letters(origin, letters)
            except ValueError as exc:
                raise ConfigError(f"{where}: letters: {exc}") from exc
            two_dstar = dstar + dstar
            for label, g in (("origin", path.origin), ("terminus", path.terminus)):
                if not abs(qm.homogeneous_value(g)) <= two_dstar:
                    raise ConfigError(
                        f"{where}: path {label} is outside Aker(phi, D*)"
                    )
            s["path"] = path
        return

    if kind == "f2z-example":
        qm = _need_qm(exp, probe, where)
        if not _is_f2z_example(qm):
            raise ConfigError(
                f"{where}: needs the F_2 x Z model with phi = (1, 0, sqrt(2))"
            )
        start = _get_element(model, raw, "start", where)
        target = _get_element(model, raw, "target", where)
        for label, g in (("start", start), ("target", target)):
            if qm.homogeneous_value(g) != ZERO:
                raise ConfigError(f"{where}: {label} is not in the kernel of phi")
        s.update(start=start, target=target)
        return

    if kind == "free-obstruction":
        qm = _need_qm(exp, probe, where)
        _need_homogeneous(qm, where)
        if model.abelian_rank != 0:
            raise ConfigError(f"{where}: needs a free group model")
        x = _get_element(model, raw, "x", where)
        scaling = _get_element(model, raw, "scaling", where)
        if x * scaling == scaling * x:
            raise ConfigError(f"{where}: x and scaling must not commute")
        if not qm.homogeneous_value(scaling) > ZERO:
            raise ConfigError(f"{where}: scaling must have positive phi-bar")
        dstar = _get_exact(raw, "dstar", where)
        if dstar < ZERO:
            raise ConfigError(f"{where}: dstar must be non-negative")
        s.update(
            x=x,
            scaling=scaling,
            dstar=dstar,
            max_depth=_get_int(raw, "max_depth", where, minimum=1),
        )
        return

    if kind == "novikov-solve":
        qm = _need_qm(exp, probe, where)
        _need_homogeneous(qm, where)
        scaling = _get_element(model, raw, "scaling", where)
        if scaling.length() != 1:
            raise ConfigError(f"{where}: scaling must be a single generator letter")
        if not qm.homogeneous_value(scaling) > ZERO:
            raise ConfigError(f"{where}: scaling must have positive phi-bar")
        defect = (
            _get_exact(raw, "defect", where)
            if "defect" in raw
            else qm.defect_upper()
        )
        if defect is None:
            raise ConfigError(
                f"{where}: no defect bound available; set 'defect' explicitly"
            )
        if defect < ZERO:
            raise ConfigError(f"{where}: defect must be non-negative")
        radius = _get_int(raw, "radius", where, minimum=0)
        if radius > model.ball_cap:
            raise ConfigError(f"{where}: radius exceeds the model ball cap")
        slack = _get_exact(raw, "slack", where, default=ZERO)
        if slack < ZERO:
            raise ConfigError(f"{where}: slack must be non-negative")
        s.update(
            start=_get_element(model, raw, "start", where),
            end=_get_element(model, raw, "end", where),
            scaling=scaling,
            window=_get_exact(raw, "window", where),
            radius=radius,
            slack=slack,
            defect=defect,
            extract=_get_bool(raw, "extract", where, default=True),
            cell_cap=_get_int(
                raw, "cell_cap", where, default=DEFAULT_CELL_CAP, minimum=1
            ),
        )
        return

    if kind == "zs-cycle":
        qm = _need_qm(exp, probe, where)
        _need_homogeneous(qm, where)
        scaling = _get_element(model, raw, "scaling", where)
        if scaling.length() != 1:
            raise ConfigError(f"{where}: scaling must be a single generator letter")
        if not qm.homogeneous_value(scaling) > ZERO:
            raise ConfigError(f"{where}: scaling must have positive phi-bar")
        s_name = raw.get("s")
        if s_name is None:
            raise ConfigError(f"{where}: missing key 's'")
        try:
            letters = model.parse_word(s_name)
        except ValueError as exc:
            raise ConfigError(f"{where}: s: {exc}") from exc
        if len(letters) != 1:
            raise ConfigError(f"{where}: s must be a single generator letter")
        radius = _get_int(raw, "radius", where, minimum=1)
        if radius > model.ball_cap:
            raise ConfigError(f"{where}: radius exceeds the model ball cap")
        depth = _get_int(raw, "depth", where, minimum=1)
        if radius < depth + 1:
            raise ConfigError(
                f"{where}: radius must be at least depth + 1 so that both "
                "endpoints of the high path lie inside the search ball"
            )
        defect = (
            _get_exact(raw, "defect", where)
            if "defect" in raw
            else qm.defect_upper()
        )
        if defect is None:
            raise ConfigError(
                f"{where}: no defect bound available; set 'defect' explicitly"
            )
        s.update(
            s=letters[0],
            scaling=scaling,
            depth=depth,
            k=_get_exact(raw, "k", where),
            radius=radius,
            defect=defect,
        )
        return

    raise ConfigError(f"{where}: unhandled probe kind {kind!r}")  # pragma: no cover
