"""The `q-library` probe: one replacement path per generator pair."""

from __future__ import annotations

from ..exact import ExactReal
from ..groups import _scaling_letter
from ..probes import Experiment, Section, _need_qm, _qm, _radius, _search_bound, integer
from ..report import encode
from ..search import MAX_SEARCH_BALL, build_q_library, compute_constants

explain = """\
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
4 D*/5 < phi-bar(c) <= D*."""


def validate(exp: Experiment, probe: Section) -> None:
    qm = _need_qm(exp, probe)
    dstar = probe.get("dstar", ExactReal.parse)
    kprime = probe.get("kprime", ExactReal.parse)
    scaling = probe.get("scaling", exp.model.parse_element)
    compute_constants(qm, dstar, kprime, scaling)
    _scaling_letter(exp.model, scaling)
    radius = _radius(exp, probe, minimum=1)
    # one search per ordered pair of the 2 * rank generator letters
    _search_bound(exp, probe, radius, (2 * exp.model.rank) ** 2, MAX_SEARCH_BALL)
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


def run(exp: Experiment, probe: Section) -> dict:
    out = {"qm": probe.settings["qm"], **_library(exp, probe)._asdict()}
    return encode(out, exp.model)
