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

Every section is read through a `probes.Section`, which names the
section in each error and refuses any key that nothing read, so a
misspelt key is a ConfigError rather than an absent one.  Every
probe's parameters are checked by its kind's module (imported through
`probes.kind_module`) against the preconditions of the operation it
will invoke; a violation raises ConfigError naming the section and
key, and nothing is executed.  Checking a probe imports its kind's
module, so every kind the config names is loaded by the time
validation returns.
"""

from __future__ import annotations

import configparser

from .errors import ConfigError
from .exact import ExactReal, ZERO
from .groups import DEFAULT_BALL_CAP, MAX_BALL_CAP, GroupModel
from .probes import KINDS, Experiment, Section, _known_qm, integer, kind_module
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
    except (OSError, UnicodeDecodeError) as exc:
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
    model = Section("[group]", dict(parser["group"])).apply(_build_model)

    qms: dict[str, Quasimorphism] = {}
    probes: list[Section] = []
    output_path = None
    for title in parser.sections():
        if title == "group":
            continue
        raw = dict(parser[title])
        if title == "output":
            output = Section("[output]", raw)
            output_path = output.get("path", str, None)
            output.check_used()
            continue
        if title.startswith("quasimorphism "):
            name = title[len("quasimorphism ") :].strip()
            if not name:
                raise ConfigError("quasimorphism section without a name")
            if name in qms:
                raise ConfigError(f"duplicate quasimorphism name {name!r}")
            section = Section(f"[quasimorphism {name}]", raw)
            qms[name] = section.apply(_build_qm, model, qms)
            continue
        if title.startswith("probe "):
            name = title[len("probe ") :].strip()
            if not name:
                raise ConfigError("probe section without a name")
            if any(p.name == name for p in probes):
                raise ConfigError(f"duplicate probe name {name!r}")
            probes.append(Section(f"[probe {name}]", raw, name))
            continue
        raise ConfigError(f"unknown section [{title}]")

    if not probes:
        raise ConfigError("config defines no probes")
    exp = Experiment(text, model, qms, probes, output_path)
    for probe in probes:
        _validate_probe(exp, probe)
    return exp


# -- section builders ----------------------------------------------------


def _build_model(group: Section) -> GroupModel:
    ball_cap = group.get("ball_cap", integer(1), DEFAULT_BALL_CAP)
    if ball_cap > MAX_BALL_CAP:
        raise ValueError(f"ball_cap {ball_cap} is more than MAX_BALL_CAP = {MAX_BALL_CAP}")
    return GroupModel(
        free_rank=group.get("free_rank", integer(0), 0),
        abelian_rank=group.get("abelian_rank", integer(0), 0),
        generator_names=group.get("names", lambda text: tuple(text.split()), ()),
        ball_cap=ball_cap,
    )


def _build_qm(
    model: GroupModel, known: dict[str, Quasimorphism], section: Section
) -> Quasimorphism:
    kind = section.get("kind", str)
    if kind == "homomorphism":
        names = [model.generator_name(g) for g in model.positive_generators()]
        # a generator named `kind` keeps the default 0: its key holds the kind
        return HomomorphismQM(
            model,
            tuple(
                ZERO if name == "kind" else section.get(name, ExactReal.parse, ZERO)
                for name in names
            ),
        )
    if kind == "brooks":
        return BrooksQM(model, section.get("word", model.parse_word))
    if kind == "homogenized":
        return HomogenizedQM(_known_qm(known, section.get("base", str)))
    if kind == "combination":
        coefficients = []
        parts = []
        for term in section.get("terms", str).split(","):
            term = term.strip()
            if "*" not in term:
                raise ValueError(f"term {term!r} is not coeff*name")
            coeff_text, part_name = term.split("*", 1)
            parts.append(_known_qm(known, part_name.strip()))
            coefficients.append(ExactReal.parse(coeff_text.strip()))
        return CombinationQM(tuple(coefficients), tuple(parts))
    raise ValueError(f"unknown kind {kind!r}")


# -- probe validation ----------------------------------------------------


def _validate_probe(exp: Experiment, probe: Section) -> None:
    """The single dispatch point: a ValueError from a kind's checks (say,
    exact values over different surds) becomes a ConfigError naming the
    section, and a key the kind did not read is refused."""
    kind = probe.get("kind", str)
    if kind not in KINDS:
        raise ConfigError(f"{probe.title}: unknown probe kind {kind!r}")
    probe.kind = kind
    probe.apply(kind_module(kind).validate, exp)
