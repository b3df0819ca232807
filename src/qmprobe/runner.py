"""Probe execution.

Probes run sequentially in config order, each through its kind's entry
in `probes.KINDS`; the result is a JSON-compatible payload carrying the
full witness so that verification can replay it without re-searching.
Cap overruns and failures mark the probe and leave the rest of the
report intact.
"""

from __future__ import annotations

import time
from datetime import datetime, timezone

from . import __version__
from .probes import Experiment, attempt
from .report import SCHEMA, assemble


def run_experiment(exp: Experiment) -> dict:
    started = time.monotonic()
    probes_out = []
    for probe in exp.probes:
        status, error, result = attempt(exp, probe)
        probes_out.append(
            {
                "name": probe.name,
                "kind": probe.kind,
                "params": dict(probe.raw),
                "status": status,
                "error": error,
                "result": result,
            }
        )
    model = exp.model
    body = {
        "schema": SCHEMA,
        "tool": "qmprobe",
        "version": __version__,
        "config_echo": exp.raw_text,
        "group": {
            "free_rank": model.free_rank,
            "abelian_rank": model.abelian_rank,
            "names": list(model.generator_names),
            "ball_cap": model.ball_cap,
        },
        "probes": probes_out,
        "caps_hit": [p["name"] for p in probes_out if p["status"] == "cap-exceeded"],
    }
    header = {
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "elapsed_ms": int((time.monotonic() - started) * 1000),
    }
    return assemble(body, header)
