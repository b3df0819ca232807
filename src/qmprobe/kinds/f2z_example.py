"""The `f2z-example` probe: kernel paths in F_2 x Z normalized between
levels."""

from __future__ import annotations

from ..paths import straight_path
from ..probes import Experiment, Section, _need_qm, _qm
from ..report import encode
from ..search import check_kernel_endpoints, f2z_kernel_path_normalize

explain = """\
f2z-example: the rank-2 free by rank-1 abelian model with phi sending
the free generators to 1 and 0 and the central generator to sqrt(2).
A straight path between kernel elements is corrected prefix by prefix:
after each letter, insert the central power m = -floor(v / sqrt(2) + 1/2)
where v is the current vertex value.  The corrected path stays inside
-3 <= phi-bar <= 3, exactly."""


def validate(exp: Experiment, probe: Section) -> None:
    model = exp.model
    qm = _need_qm(exp, probe)
    start = probe.get("start", model.parse_element)
    target = probe.get("target", model.parse_element)
    check_kernel_endpoints(qm, start, target)
    probe.settings.update(start=start, target=target)


def run(exp: Experiment, probe: Section) -> dict:
    s = probe.settings
    witness = f2z_kernel_path_normalize(
        _qm(exp, probe), straight_path(s["start"], s["target"])
    )
    return encode({**s, **witness._asdict()}, exp.model)
