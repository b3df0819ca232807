"""The `defect` probe: a certified interval around the defect."""

from __future__ import annotations

from ..exact import ExactReal
from ..probes import Experiment, Section, _need_qm, _qm, _radius, _work_bound
from ..quasimorphisms import MAX_SCAN_PAIRS, DefectEstimate, defect_lower_bound, defect_witness
from ..report import encode, parse_element

explain = """\
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
validated."""


def validate(exp: Experiment, probe: Section) -> None:
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


def _payload(exp: Experiment, probe: Section, est: DefectEstimate) -> dict:
    out = {"qm": probe.settings["qm"], "provenance": est.provenance, **est._asdict()}
    return encode(out, exp.model)


def run(exp: Experiment, probe: Section) -> dict:
    s = probe.settings
    est = defect_lower_bound(_qm(exp, probe), s["radius"], upper=s["claimed_upper"])
    return _payload(exp, probe, est)


def replay(exp: Experiment, probe: Section, res: dict) -> dict:
    """The payload with the recorded pair standing in for the scan of
    ball(radius)^2: the pair is re-evaluated, and any pair realizing the
    recorded lower bound will do."""
    s = probe.settings
    g, h = (parse_element(exp.model, word) for word in res["witness"])
    est = defect_witness(_qm(exp, probe), s["radius"], s["claimed_upper"], g, h)
    return _payload(exp, probe, est)
