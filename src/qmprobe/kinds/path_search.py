"""The `path-search` probe: a breadth-first search inside a level set."""

from __future__ import annotations

from ..probes import Experiment, Section, _level, _need_qm, _qm, _radius, _search_bound
from ..report import encode
from ..search import MAX_SEARCH_BALL, NotFoundWithinBall, bounded_path_search, check_search_ball

explain = """\
path-search: breadth-first search inside ball(R) over the admissible
vertices -K <= phi-bar(v) <= K_max (no ceiling when K_max is absent).
A found path is recorded with its exact phi-bar extrema; a failure
records how many admissible vertices were exhausted.  The search runs
on normal forms and compares integer numerators with the bounds; a
ball(R) of more than MAX_SEARCH_BALL elements is refused when the
config is validated."""


def validate(exp: Experiment, probe: Section) -> None:
    model = exp.model
    qm = _need_qm(exp, probe)
    radius = _radius(exp, probe)
    _search_bound(exp, probe, radius, 1, MAX_SEARCH_BALL)
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


def run(exp: Experiment, probe: Section) -> dict:
    s = probe.settings
    got = bounded_path_search(
        _qm(exp, probe), s["start"], s["target"], s["k"], s["radius"], s["k_max"]
    )
    out = {**s, "found": not isinstance(got, NotFoundWithinBall), **got._asdict()}
    return encode(out, exp.model)
