"""The `free-obstruction` probe: growing level-set obstructions along
conjugates in a free group."""

from __future__ import annotations

from ..exact import ExactReal
from ..probes import Experiment, Section, _need_qm, _qm, _radius, _work_bound
from ..report import encode
from ..search import (
    MAX_OBSTRUCTION_LETTERS,
    MAX_OBSTRUCTION_VERTICES,
    free_group_obstruction_probe,
    obstruction_denominator,
)

explain = f"""\
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
and a denominator max_s |phi-bar(s)| + D* of 0."""


def validate(exp: Experiment, probe: Section) -> None:
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


def run(exp: Experiment, probe: Section) -> dict:
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
