"""Replay checks for report payloads.

Verification trusts nothing but the echoed configuration, and checks a
report by one rule: rebuild the body from the validated config with the
builders `run` uses (`runner.probe_entry`, `runner.report_body` and
each kind's entry in `probes.KINDS`) and compare it key by key with the
recorded one.

* An `ok` entry is compared in every key but `result`, which goes to
  its kind's `check`.  Every kind rebuilds its payload by re-running it
  through the library, except where a recorded witness is cheaper to
  check than to find, and there the witness stands in for the search:
  `defect` re-evaluates its witness pair instead of scanning
  ball(R)^2, and `novikov-solve` puts its filling or infeasibility
  certificate through `novikov.settle`, the replay `run` applies to the
  solver's answer, against the re-enumerated faces instead of solving,
  and re-extracts the path from that filling.
* An entry recorded as `failed` or `cap-exceeded` is run again, and its
  whole rebuilt entry, `result: null` included, is compared.
* The entry names must be the configured probe names in config order,
  and the envelope (every body key but `probes`: schema, tool, version,
  config echo, group block and `caps_hit`) must be the rebuilt one.

Values are compared type for type (JSON 1, 1.0 and true differ).  A
re-derived field accepts only the canonical value `run` emits; the
searches break ties canonically, so it is well defined.
"""

from __future__ import annotations

from typing import NamedTuple

from .config import parse_experiment
from .errors import CapExceededError, ReplayError
from .probes import KINDS, Experiment, Section, _compare, attempt
from .runner import probe_entry, report_body


class ProbeCheck(NamedTuple):
    name: str
    kind: str
    ok: bool
    message: str


class VerificationOutcome(NamedTuple):
    checks: tuple[ProbeCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


def _check_entry(exp: Experiment, spec: Section, entry: dict) -> list:
    """One problem per key where the entry differs from the rebuilt one."""
    if entry["status"] != "ok":
        return _compare(probe_entry(spec, *attempt(exp, spec)), entry)
    problems = _compare(probe_entry(spec, "ok", None, None), entry, unchecked=("result",))
    try:
        return problems + KINDS[spec.kind].check(exp, spec, entry.get("result"))
    except ReplayError as exc:
        return problems + [str(exc)]
    except CapExceededError as exc:
        return problems + [f"replay exceeds a cap: {exc}"]
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return problems + [f"malformed or inconsistent payload: {exc}"]


def verify_report(report: dict) -> VerificationOutcome:
    body = report.get("body")
    if not isinstance(body, dict):
        raise ReplayError("report has no body object")
    echo = body.get("config_echo")
    if not isinstance(echo, str):
        raise ReplayError("report body has no config echo")
    exp = parse_experiment(echo)

    entries = body.get("probes")
    if not isinstance(entries, list) or not all(
        isinstance(entry, dict)
        and all(isinstance(entry.get(key), str) for key in ("name", "kind", "status"))
        for entry in entries
    ):
        raise ReplayError(
            "report probes must be a list of objects with string name, kind and status"
        )
    specs = {p.name: p for p in exp.probes}
    checks: list[ProbeCheck] = []
    for entry in entries:
        name, status = entry["name"], entry["status"]
        spec = specs.get(name)
        if spec is None:
            continue  # reported below as a name that is not configured
        problems = _check_entry(exp, spec, entry)
        if problems:
            message = "; ".join(problems)
        else:
            message = "verified" if status == "ok" else f"{status} again on re-run"
        checks.append(ProbeCheck(name, entry["kind"], not problems, message))

    report_problems = []
    if [e["name"] for e in entries] != list(specs):
        report_problems.append("probe entries are not the configured probes in config order")
    report_problems += _compare(report_body(exp, entries), body, unchecked=("probes",))
    if report_problems:
        checks.append(ProbeCheck("(report)", "-", False, "; ".join(report_problems)))
    return VerificationOutcome(tuple(checks))
