"""The `peak-reduce` probe: peak reduction of a path through a
q-library."""

from __future__ import annotations

from ..paths import path_from_letters
from ..probes import Experiment, Section, _qm
from ..report import encode
from ..search import check_aker_endpoints, peak_reduction
from . import q_library

explain = """\
peak-reduce: height of a path is max floor(phi-bar) over its essential
vertices.  While the height exceeds M = 3 D* + max_s |phi-bar(s)|, the
first highest essential vertex v1 in v0 -> v1 -> v2 is replaced by the
library path v0 q_{s,t}, where s, t spell the incoming and outgoing
edges.  Each step strictly decreases (height, peak count)
lexicographically and stays above -N.  Removing scaling-letter
backtracks afterwards leaves every vertex with phi-bar <= M + 2 D*.
The edges s, t, the essential vertices and the backtracks are read off
the path's recorded edge letters.  Validation makes q-library's
checks, bounds its searches the same way, and refuses a path with an
endpoint outside Aker(phi, D*) = { g : |phi-bar(g)| <= 2 D* }."""


def validate(exp: Experiment, probe: Section) -> None:
    q_library.validate(exp, probe)
    model, s = exp.model, probe.settings
    origin = probe.get("origin", model.parse_element, model.identity())
    path = probe.get("letters", lambda text: path_from_letters(origin, model.parse_word(text)))
    check_aker_endpoints(_qm(exp, probe), path, s["dstar"])
    s["path"] = path


def run(exp: Experiment, probe: Section) -> dict:
    library = q_library._library(exp, probe)
    trace = peak_reduction(_qm(exp, probe), probe.settings["path"], library)
    out = {"qm": probe.settings["qm"], "library": library, **trace._asdict()}
    return encode(out, exp.model)
