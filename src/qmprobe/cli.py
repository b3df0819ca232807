"""Batch front door.

Three subcommands: `run` executes a validated experiment config and
writes a JSON report, `verify` replays every certificate in a report,
`explain` prints the constants and formulas behind a probe kind.

Exit codes: 0 success, 1 usage, 2 validation or replay-input error,
3 a probe hit a cap, 4 a certificate failed verification.

Importing this module loads the pipeline and the layers every command
uses (`exact`, `groups`, `quasimorphisms`, `report`).  The layers that
only some probe kinds call (`novikov`, `intsolve`, `paths`, `search`
and `rips`) are registered as placeholders that load on first use, and
each command loads only the kind modules it names, through
`probes.kind_module`, so a config compiles only the code its probes
run, and does so before `load_experiment` returns.  `explain` prints
the named kind module's `explain` text and loads no other kind.
"""

from __future__ import annotations

import argparse
import importlib.util
import sys

from .config import load_experiment
from .errors import ConfigError, ReplayError
from .probes import KINDS, kind_module
from .report import dump_report, load_report
from .runner import run_experiment
from .verify import verify_report


def _register_lazily(*layers: str) -> None:
    """Put each layer in `sys.modules` and on the package as a
    placeholder module, compiled and run on its first attribute access.

    The contract it keeps: the benchmark's tracer (`bench/spans.py`)
    finds every layer it wraps in `sys.modules` right after
    `import qmprobe.cli`, and its lookup of their functions loads them,
    so a traced command loads every layer as before, while an untraced
    one loads a layer only when a kind it names from-imports it.  The
    per-probe counters of ROADMAP item 10, which the bench is to read
    instead of wrapping functions by name, retire this contract and
    these placeholders with it."""
    package = sys.modules[__package__]
    for layer in layers:
        name = f"{__package__}.{layer}"
        if name in sys.modules:
            continue
        spec = importlib.util.find_spec(name)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
        setattr(package, layer, module)


_register_lazily("novikov", "intsolve", "paths", "search", "rips")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_CAP = 3
EXIT_VERIFY = 4


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad flags; the contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
    parser = _Parser(prog="qmprobe", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("config", help="experiment config file")
    p_run.add_argument("--out", help="report file (defaults to the config's output path)")

    p_verify = sub.add_parser("verify", help="replay the certificates in a report")
    p_verify.add_argument("report", help="report file produced by run")

    p_explain = sub.add_parser("explain", help="print the formulas behind a probe kind")
    p_explain.add_argument("kind", choices=sorted(KINDS))
    return parser


def _cmd_run(args) -> int:
    try:
        exp = load_experiment(args.config)
    except ConfigError as exc:
        print(f"qmprobe: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    report = run_experiment(exp)
    text = dump_report(report)
    destination = args.out if args.out is not None else exp.output_path
    if destination:
        try:
            with open(destination, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"qmprobe: cannot write report: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
    else:
        sys.stdout.write(text)
    statuses = [probe["status"] for probe in report["body"]["probes"]]
    for probe in report["body"]["probes"]:
        if probe["status"] != "ok":
            print(
                f"qmprobe: probe {probe['name']}: {probe['status']}: {probe['error']}",
                file=sys.stderr,
            )
    if "failed" in statuses:
        return EXIT_VALIDATION
    if report["body"]["caps_hit"]:
        return EXIT_CAP
    return EXIT_OK


def _cmd_verify(args) -> int:
    try:
        with open(args.report, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"qmprobe: cannot read report: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        outcome = verify_report(load_report(text))
    except ReplayError as exc:
        print(f"qmprobe: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ConfigError as exc:
        print(f"qmprobe: echoed config no longer validates: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    for check in outcome.checks:
        verdict = "PASS" if check.ok else "FAIL"
        print(f"{verdict} {check.name} ({check.kind}): {check.message}")
    return EXIT_OK if outcome.ok else EXIT_VERIFY


def _cmd_explain(args) -> int:
    print(kind_module(args.kind).explain)
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "verify":
        return _cmd_verify(args)
    return _cmd_explain(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
