"""One qmprobe CLI process with timestamps, optionally traced.

    python3 bench/child.py TIMES SPANS -- run CONFIG --out REPORT
    python3 bench/child.py TIMES SPANS -- verify REPORT
    python3 bench/child.py TIMES - --setup-only -- run CONFIG --out REPORT

Behaves as `python -m qmprobe ...` with the same arguments and exit
code.  It writes to TIMES the CLOCK_MONOTONIC instants at which
`import qmprobe.cli` returned, `load_experiment` returned (run only)
and the command returned.  SPANS is `-` for an untraced process;
otherwise the tracer is installed after the import and its spans are
written there.  With --setup-only the process exits with code 0 as soon
as `load_experiment` returns, before any probe runs.
"""

import json
import sys
import time


class _SetupDone(Exception):
    pass


def main() -> int:
    times_path, spans_path, *argv = sys.argv[1:]
    setup_only = argv[:1] == ["--setup-only"]
    if setup_only:
        argv = argv[1:]
    if argv[:1] != ["--"]:
        raise SystemExit("usage: child.py TIMES SPANS [--setup-only] -- qmprobe arguments")
    argv = argv[1:]
    import qmprobe.cli as cli

    times = {"imported": time.monotonic()}
    tracer = None
    if spans_path != "-":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    load = cli.load_experiment

    def timed_load(*args, **kwargs):
        exp = load(*args, **kwargs)
        times["loaded"] = time.monotonic()
        if setup_only:
            raise _SetupDone
        return exp

    cli.load_experiment = timed_load
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    except _SetupDone:
        code = 0
    times["done"] = time.monotonic()
    with open(times_path, "w", encoding="utf-8") as handle:
        json.dump(times, handle)
    if tracer is not None:
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
