"""Replay checks for report payloads.

Verification trusts nothing but the echoed configuration, and checks a
report by one rule: rebuild the body from the validated config with the
builders `run` uses (`runner.probe_entry`, `runner.report_body` and
each kind's module, `probes.kind_module`) and compare it key by key
with the recorded one.  The rule is `_check_entry`'s alone; a kind
module only rebuilds.

* An `ok` entry is compared in every key but `result`, whose payload
  is rebuilt one of two ways and compared once.  A kind with a
  `replay` has a recorded witness that is cheaper to check than to
  find, and the witness stands in for the search: `defect`
  re-evaluates its witness pair instead of scanning ball(R)^2, and
  `novikov-solve` puts its filling or infeasibility certificate
  through `novikov.settle`, the replay `run` applies to the solver's
  answer, against the re-enumerated faces instead of solving, and
  re-extracts the path from that filling.  Any witness that replays
  will do.  Every other kind is re-run through `probes.attempt`, and a
  re-run that is not `ok` is the one problem.
* An entry recorded as `failed` or `cap-exceeded` is run again, and its
  whole rebuilt entry, `result: null` included, is compared.
* The entry names must be the configured probe names in config order,
  and the envelope (every body key but `probes`: schema, tool, version,
  config echo, group block and `caps_hit`) must be the rebuilt one.

`verify_report` takes a report `report.load_report` has read, so its
body is an object of the known schema, and returns its checks: one
`ProbeCheck` per configured entry, then a `(report)` check when the
names or the envelope differ; `qmprobe verify` passes the report when
every check is ok.  An `ok` entry's result that is not an object is
refused before a replay or re-run reads it (`result is not an object`),
and a result key a replay reads and finds missing is named
(`missing key 'status'`).

Values are compared type for type (JSON 1, 1.0 and true differ).  A
re-run kind accepts only the canonical payload `run` emits; the
searches break ties canonically, so it is well defined, and for
rips-profile it includes the spanning forest.
"""

from __future__ import annotations

from typing import NamedTuple

from .config import parse_experiment
from .errors import CapExceededError, ReplayError
from .probes import Experiment, Section, attempt, kind_module
from .runner import probe_entry, report_body


class ProbeCheck(NamedTuple):
    name: str
    kind: str
    ok: bool
    message: str


def _compare(fresh: dict, res: dict, unchecked: tuple = ()) -> list:
    """One problem per key, outside `unchecked`, where the recorded
    object differs from the one rebuilt from the echoed config.  A key
    missing on one side differs, and values are compared type for type.

    `encode` writes only dicts, lists, strings, ints, bools and None,
    so the fresh payload equals its own JSON round trip and is compared
    as it is: dumping it would build one string per array element,
    which for an aker certificate's exponent table raises the peak
    memory of `verify` by more than the table itself."""
    return [
        f"{key} does not replay"
        for key in sorted(fresh.keys() | res.keys())
        if key not in unchecked
        and not (key in fresh and key in res and _same(fresh[key], res[key]))
    ]


def _same(a, b) -> bool:
    """JSON equality type for type: unlike `==`, it tells 1, 1.0 and
    true apart."""
    if type(a) is not type(b):
        return False
    if type(a) is dict:
        return a.keys() == b.keys() and all(_same(v, b[k]) for k, v in a.items())
    if type(a) is list:
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b


def _check_entry(exp: Experiment, spec: Section, entry: dict) -> list:
    """The one replay rule: one problem per key where the entry differs
    from the one rebuilt from the echoed config, whose payload comes from
    the kind's `replay` where it has one and from a re-run otherwise."""
    if entry["status"] != "ok":
        return _compare(probe_entry(spec, *attempt(exp, spec)), entry)
    problems = _compare(probe_entry(spec, "ok", None, None), entry, unchecked=("result",))
    res = entry.get("result")
    if not isinstance(res, dict):
        return problems + ["malformed or inconsistent payload: result is not an object"]
    replay = getattr(kind_module(spec.kind), "replay", None)
    try:
        if replay is not None:
            fresh = replay(exp, spec, res)
        else:
            status, error, fresh = attempt(exp, spec)
            if fresh is None:
                return problems + [f"re-run gives {status}: {error}"]
        return problems + _compare(fresh, res)
    except ReplayError as exc:
        return problems + [str(exc)]
    except CapExceededError as exc:
        return problems + [f"replay exceeds a cap: {exc}"]
    except KeyError as exc:
        return problems + [f"malformed or inconsistent payload: missing key {exc}"]
    except (IndexError, TypeError, ValueError) as exc:
        return problems + [f"malformed or inconsistent payload: {exc}"]


def verify_report(report: dict) -> tuple[ProbeCheck, ...]:
    body = report["body"]
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
    return tuple(checks)
