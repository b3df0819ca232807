"""The `rips-profile` probe: connectivity of Rips graphs by scale."""

from __future__ import annotations

from ..groups import ball_size
from ..probes import Experiment, Section, _radius
from ..report import encode
from ..rips import check_vertex_count, connectivity_profile

explain = """\
rips-profile: connectivity of the Rips graph on a finite vertex set,
with an edge between distinct g, h whenever 0 < d(g, h) < n.  The
profile lists the component count for n = 1, ..., n_max and the first
scale with a single component; at that scale a spanning forest of
explicit edges certifies connectivity."""


def validate(exp: Experiment, probe: Section) -> None:
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


def run(exp: Experiment, probe: Section) -> dict:
    s = probe.settings
    vertices = s["vertices"]
    if vertices is None:
        # the ball is counted before it is built
        check_vertex_count(ball_size(exp.model, s["ball_radius"]))
        vertices = exp.model.ball(s["ball_radius"])
    profile = connectivity_profile(vertices, s["n_max"])
    return encode({"n_max": s["n_max"], **profile._asdict()}, exp.model)
