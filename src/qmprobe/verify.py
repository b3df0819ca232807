"""Replay checks for report payloads.

Verification trusts nothing but the echoed configuration and the
payload, and checks each probe through its kind's entry in
`probes.KINDS` by one rule: rebuild the payload from the validated
config and compare it key by key with the recorded one.

Every kind is rebuilt by re-running it through the library, except
where a recorded witness is cheaper to check than to find, and there
the witness stands in for the search:

* `defect` re-evaluates its witness pair instead of scanning
  ball(R)^2;
* `novikov-solve` puts its filling or infeasibility certificate
  through `novikov.settle`, the replay `run` applies to the solver's
  answer, against the re-enumerated faces instead of solving, and
  re-extracts the path from that filling;
* `rips-profile` is re-run in every field but its spanning forest,
  which is checked as a witness so that any spanning forest of Rips
  edges passes.

Values are compared type for type (JSON 1, 1.0 and true differ).  A
re-derived field accepts only the canonical value `run` emits; the
searches break ties canonically, so it is well defined.  A probe
recorded as `failed` or `cap-exceeded` is run again, and passes only if
the same status and error text come back, and `caps_hit` must list the
`cap-exceeded` probes in report order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import parse_experiment
from .errors import CapExceededError, ReplayError
from .probes import KINDS, attempt


@dataclass(frozen=True)
class ProbeCheck:
    name: str
    kind: str
    run_status: str
    ok: bool
    message: str


@dataclass(frozen=True)
class VerificationOutcome:
    checks: tuple[ProbeCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


def verify_report(report: dict) -> VerificationOutcome:
    body = report.get("body")
    if not isinstance(body, dict):
        raise ReplayError("report has no body object")
    group = body.get("group")
    echo = body.get("config_echo")
    if not isinstance(group, dict) or not isinstance(echo, str):
        raise ReplayError("report body is missing the group block or config echo")
    exp = parse_experiment(echo, ball_cap=group.get("ball_cap"))
    model = exp.model
    if (
        model.free_rank != group.get("free_rank")
        or model.abelian_rank != group.get("abelian_rank")
        or list(model.generator_names) != group.get("names")
        or model.ball_cap != group.get("ball_cap")
    ):
        raise ReplayError("group block does not match the echoed configuration")

    entries = body.get("probes", [])
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
    seen: set[str] = set()
    for entry in entries:
        name = entry.get("name")
        kind = entry.get("kind")
        status = entry.get("status")
        seen.add(name)
        spec = specs.get(name)
        if spec is None or spec.kind != kind or dict(spec.raw) != entry.get("params"):
            checks.append(
                ProbeCheck(
                    name, kind, status, False,
                    "probe entry does not match the echoed configuration",
                )
            )
            continue
        if status in ("cap-exceeded", "failed"):
            again, error, _ = attempt(exp, spec)
            if (again, error) == (status, entry.get("error")):
                checks.append(ProbeCheck(name, kind, status, True, f"{status} again on re-run"))
            else:
                detail = again if error is None else f"{again}: {error}"
                checks.append(
                    ProbeCheck(
                        name, kind, status, False,
                        f"recorded {status} status does not reproduce; re-run gives {detail}",
                    )
                )
            continue
        if status != "ok":
            checks.append(
                ProbeCheck(name, kind, status, False, f"unknown probe status {status!r}")
            )
            continue
        try:
            problems = KINDS[kind].check(exp, spec, entry["result"])
        except ReplayError as exc:
            problems = [str(exc)]
        except CapExceededError as exc:
            problems = [f"replay exceeds a cap: {exc}"]
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            problems = [f"malformed or inconsistent payload: {exc}"]
        if problems:
            checks.append(ProbeCheck(name, kind, status, False, "; ".join(problems)))
        else:
            checks.append(ProbeCheck(name, kind, status, True, "verified"))
    if body.get("caps_hit") != [e["name"] for e in entries if e["status"] == "cap-exceeded"]:
        checks.append(
            ProbeCheck(
                "(report)", "-", "-", False,
                "caps_hit does not list the cap-exceeded probes in order",
            )
        )
    missing = sorted(set(specs) - seen)
    if missing:
        checks.append(
            ProbeCheck(
                "(report)", "-", "-", False,
                "probes missing from the report: " + ", ".join(missing),
            )
        )
    return VerificationOutcome(tuple(checks))
