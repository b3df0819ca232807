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

Every probe's parameters are checked by its kind's entry in
`probes.KINDS` against the preconditions of the operation it will
invoke; a violation raises ConfigError naming the section and key, and
nothing is executed.
"""

from __future__ import annotations

import configparser

from .errors import ConfigError
from .exact import ExactReal, ZERO
from .groups import DEFAULT_BALL_CAP, GroupModel
from .probes import KINDS, Experiment, ProbeSpec, get_exact, get_int
from .quasimorphisms import (
    BrooksQM,
    CombinationQM,
    HomogenizedQM,
    HomomorphismQM,
    Quasimorphism,
)


def load_experiment(path: str) -> Experiment:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_experiment(text)


def parse_experiment(text: str) -> Experiment:
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
    model = _build_model(parser["group"])

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
            qm = _build_qm(model, name, dict(parser[section]), qms)
            surds = sorted(_surds(qm))
            if len(surds) > 1:
                raise ConfigError(
                    f"[quasimorphism {name}]: cannot mix sqrt({surds[0]}) and sqrt({surds[1]})"
                )
            qms[name] = qm
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


def _build_model(section) -> GroupModel:
    raw = dict(section)
    where = "[group]"
    free_rank = get_int(raw, "free_rank", where, default=0, minimum=0)
    abelian_rank = get_int(raw, "abelian_rank", where, default=0, minimum=0)
    cap = get_int(raw, "ball_cap", where, default=DEFAULT_BALL_CAP, minimum=1)
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
            values.append(get_exact(raw, gen_name, where, default=ZERO))
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


def _surds(qm: Quasimorphism) -> set[int]:
    """The bases d of the surds among qm's values and coefficients.
    Arithmetic across two bases fails, so a quasimorphism may use one."""
    if isinstance(qm, HomogenizedQM):
        return _surds(qm.base)
    if isinstance(qm, HomomorphismQM):
        return {v.d for v in qm.values if v.b}
    if isinstance(qm, CombinationQM):
        out = {c.d for c in qm.coefficients if c.b}
        for part in qm.parts:
            out |= _surds(part)
        return out
    return set()  # a Brooks quasimorphism takes integer values


# -- probe validation ----------------------------------------------------


def _validate_probe(exp: Experiment, probe: ProbeSpec) -> None:
    """The single dispatch point: a ValueError from a kind's checks (say,
    exact values over different surds) becomes a ConfigError naming the
    section."""
    where = f"[probe {probe.name}]"
    kind = probe.raw.get("kind")
    if kind is None:
        raise ConfigError(f"{where}: missing key 'kind'")
    if kind not in KINDS:
        raise ConfigError(f"{where}: unknown probe kind {kind!r}")
    probe.kind = kind
    try:
        KINDS[kind].validate(exp, probe, where)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
