"""The probe pipeline's shared parts: config sections, the experiment,
one attempt at a probe, and the registry of probe kinds.

Every config section, probe or not, is read through a `Section`:
`get(key, parse, default)` parses one key and records it as read,
`check_used()` refuses any key that nothing read, so a misspelt key is
a config error rather than an absent one, and `apply(build, ...)` runs
a section's reader, naming the section in any `ValueError` it raises,
and then `check_used()`.

`KINDS` maps each probe kind's name to the path of its module under
`qmprobe.kinds`, which holds the kind's validate, run and `explain`
text, and `replay` where a recorded witness stands in for the search
(see that package).  `kind_module(kind)` imports the module the first
time it is asked for: config validation does that for every probe
before anything runs, so a kind and the layers it uses are loaded by
the time `load_experiment` returns, and a command loads no kind it
does not name.  `config`, `runner`, `verify` and `cli` dispatch
through `kind_module` and hold no per-kind code.  The helpers below
are the ones several kinds share: the key parsers and the validation
checks, among them `_known_qm`, the one lookup of a quasimorphism by
name, which `config` uses for a `base` and a `terms` entry too.
Comparing payloads is `verify`'s alone.
"""

from __future__ import annotations

from importlib import import_module
from typing import Callable, NamedTuple, Optional

from .errors import CapExceededError, ConfigError, QmprobeError
from .exact import ExactReal
from .groups import GroupModel, ball_size
from .quasimorphisms import Quasimorphism, check_homogeneous, check_non_negative, surd_base


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


class Experiment(NamedTuple):
    raw_text: str
    model: GroupModel
    quasimorphisms: dict[str, Quasimorphism]
    probes: list[Section]
    output_path: Optional[str]


def attempt(exp: Experiment, probe: Section) -> tuple[str, Optional[str], Optional[dict]]:
    """(status, error, result) of one run of a validated probe.  A cap
    overrun is `cap-exceeded` and a failure `failed`, each with its
    message and no result; `run` and `verify` both go through here, so a
    recorded status can be reproduced."""
    try:
        return "ok", None, kind_module(probe.kind).run(exp, probe)
    except CapExceededError as exc:
        return "cap-exceeded", str(exc), None
    except (QmprobeError, ValueError) as exc:
        return "failed", str(exc), None


# -- validation checks shared by several kinds ---------------------------


def _known_qm(qms: dict[str, Quasimorphism], name: str) -> Quasimorphism:
    """The quasimorphism configured as `name`: a probe's `qm`, a
    homogenization's `base` or a combination's term."""
    if name not in qms:
        raise ValueError(f"unknown quasimorphism {name!r}")
    return qms[name]


def _need_qm(exp: Experiment, probe: Section) -> Quasimorphism:
    name = probe.get("qm", str)
    qm = _known_qm(exp.quasimorphisms, name)
    check_homogeneous(qm)
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


def _search_bound(exp: Experiment, probe: Section, radius: int, runs: int, limit: int) -> None:
    """Refuse searches that would span more than `limit`, the search
    layer's MAX_SEARCH_BALL, ball elements: `runs` breadth-first searches
    inside ball(radius)."""
    counted = "searches {} ball elements" + (f" in {runs} runs" if runs > 1 else "")
    _work_bound(exp, probe, radius, lambda n: n * runs, counted, "MAX_SEARCH_BALL", limit)


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
    defect = _level(qm, probe, "defect", qm.defect_upper)
    if defect is None:
        raise ValueError("no defect bound available; set 'defect' explicitly")
    check_non_negative("defect", defect)
    return defect


# -- the validated quasimorphism, as run and replay read it --------------


def _qm(exp: Experiment, probe: Section) -> Quasimorphism:
    return exp.quasimorphisms[probe.settings["qm"]]


# -- the registry --------------------------------------------------------


KINDS = {
    name: f".kinds.{name.replace('-', '_')}"
    for name in (
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
}


def kind_module(kind: str):
    """The module of `kind`, imported the first time it is asked for."""
    return import_module(KINDS[kind], __package__)
