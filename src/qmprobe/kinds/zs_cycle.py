"""The `zs-cycle` probe: the cycle z_s between the down-up path and a
high path from c^n to s c^n."""

from __future__ import annotations

from ..groups import _scaling_letter
from ..novikov import CayleyComplex, build_zs_cycle
from ..probes import (
    Experiment,
    Section,
    _defect_bound,
    _level,
    _need_qm,
    _qm,
    _radius,
    _search_bound,
    integer,
)
from ..quasimorphisms import check_positive_direction
from ..report import chain_payload, encode
from ..search import MAX_SEARCH_BALL, NotFoundWithinBall, bounded_path_search, check_search_ball

explain = """\
zs-cycle: for a generator s, z_s is the difference of two paths from
c^n to s c^n: the down-up path through the identity (descend c^-n, step
s, ascend c^n) and a high path with min phi-bar >= n phi-bar(c) - K.
For s = c the two constructions coincide and z_c = 0 by convention.
The cycle is exact (boundary zero with no window), and the regime of
interest is n phi-bar(c) > K + D + 1, reported as a threshold check.
The high path is a path-search inside ball(R).  Validation refuses a
ball(R) of more than MAX_SEARCH_BALL elements, a c^n or s c^n outside
ball(R) for s != c, an s that is not one generator letter, and a c that
is not one with positive phi-bar."""


def validate(exp: Experiment, probe: Section) -> None:
    model = exp.model
    qm = _need_qm(exp, probe)
    scaling = probe.get("scaling", model.parse_element)
    c = _scaling_letter(scaling)
    check_positive_direction(qm, scaling)
    letters = probe.get("s", model.parse_word)
    if len(letters) != 1:
        raise ValueError("s must be a single generator letter")
    radius = _radius(exp, probe, minimum=1)
    _search_bound(exp, probe, radius, 1, MAX_SEARCH_BALL)
    depth = probe.get("depth", integer(1))
    if letters[0] != c:
        # the search runs from c^n to s c^n (none for s = c); c^n has
        # length n, so c^(R + 1) is outside ball(R) as every deeper power
        # is, and a huge n is not built
        top = scaling ** min(depth, radius + 1)
        check_search_ball(radius, top, model.generator_element(letters[0]) * top)
    defect = _defect_bound(qm, probe)
    probe.settings.update(
        s=letters[0],
        scaling=scaling,
        depth=depth,
        k=_level(qm, probe, "k", combined=(defect,)),
        radius=radius,
        defect=defect,
    )


def run(exp: Experiment, probe: Section) -> dict:
    s = probe.settings
    qm = _qm(exp, probe)
    cx = CayleyComplex(qm, s["defect"])
    scaling = s["scaling"]
    depth = s["depth"]
    phi_c = qm.homogeneous_value(scaling)
    required = s["k"] + s["defect"] + 1
    out = {
        **s,
        "threshold": {
            "n_phi_c": phi_c * depth,
            "required": required,
            "satisfied": bool(phi_c * depth > required),
        },
    }
    high_path, status = None, "zero-by-convention"
    if s["s"] != scaling.letters()[0]:
        top = scaling ** depth
        target = exp.model.generator_element(s["s"]) * top
        got = bounded_path_search(qm, top, target, s["k"] - phi_c * depth, s["radius"])
        if isinstance(got, NotFoundWithinBall):
            out.update(status="not-found", high_path=None, high_min=None, chain=None)
            return encode({**out, **got._asdict()}, exp.model)
        high_path, status = got.path, "ok"
    zs = build_zs_cycle(cx, s["s"], scaling, depth, high_path, k_bound=s["k"])
    chain = chain_payload(cx, zs.chain, None)
    out.update(status=status, high_path=zs.high_path, high_min=zs.high_min, chain=chain)
    return encode(out, exp.model)
