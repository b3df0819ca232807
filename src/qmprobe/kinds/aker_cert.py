"""The `aker-cert` probe: an approximate-subgroup certificate for
Aker(phi, D*)."""

from __future__ import annotations

from ..exact import ZERO, ExactReal
from ..probes import Experiment, Section, _need_qm, _qm, _radius, _work_bound
from ..quasimorphisms import (
    MAX_SCAN_PAIRS,
    certify_aker_approximate_subgroup,
    check_dstar,
    check_scaling_window,
)
from ..report import encode

explain = """\
aker-cert: approximate-subgroup certificate for
Aker(phi, D*) = { g : |phi-bar(g)| <= 2 D* } inside ball(R).
With a scaling element c satisfying 4 D*/5 < phi-bar(c) <= D*, the
witness set is X = { c^5, ..., c^-5 } (just {1} when D* = 0).  For each
member pair (g, h) the certificate records the first exponent m in
0, 1, -1, ..., 5, -5 with |phi-bar(g h c^m)| <= 2 D*.  The m = 0 test
is made once per orbit (g, h), (h, g), (g^-1, h^-1), (h^-1, g^-1), but
the size is counted over the whole square: a ball of N elements with
N^2 above MAX_SCAN_PAIRS is refused when the config is validated, and
so are D* < 0 and, for D* > 0, a c outside that window."""


def validate(exp: Experiment, probe: Section) -> None:
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


def run(exp: Experiment, probe: Section) -> dict:
    s = probe.settings
    cert = certify_aker_approximate_subgroup(
        _qm(exp, probe), s["dstar"], s["scaling"], s["radius"]
    )
    return encode({"qm": s["qm"], **cert._asdict()}, exp.model)
