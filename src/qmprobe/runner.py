"""Probe execution.

Probes run sequentially in config order, each through its kind's
module's `run` (`probes.attempt`); the result is a JSON-compatible
payload carrying the full witness so that verification can replay it
without re-searching.  Cap overruns and failures mark the probe and
leave the rest of the report intact.

`probe_entry` and `report_body` build the report body around the
probe results; `verify` rebuilds the body from the echoed config
through the same two functions.  The header's `generated_at` is the
UTC time of the run to the second, as `2026-01-31T12:00:00+00:00`,
stamped through `time` so that a run does not load `datetime`.
"""

from __future__ import annotations

import time
from typing import Optional

from . import __version__
from .probes import Experiment, Section, attempt
from .report import SCHEMA


def probe_entry(
    spec: Section, status: str, error: Optional[str], result: Optional[dict]
) -> dict:
    return {
        "name": spec.name,
        "kind": spec.kind,
        "params": dict(spec.raw),
        "status": status,
        "error": error,
        "result": result,
    }


def report_body(exp: Experiment, entries: list) -> dict:
    model = exp.model
    return {
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
        "probes": entries,
        "caps_hit": [e["name"] for e in entries if e["status"] == "cap-exceeded"],
    }


def run_experiment(exp: Experiment) -> dict:
    started = time.monotonic()
    entries = [probe_entry(probe, *attempt(exp, probe)) for probe in exp.probes]
    header = {
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime()),
        "elapsed_ms": int((time.monotonic() - started) * 1000),
    }
    return {"header": header, "body": report_body(exp, entries)}
