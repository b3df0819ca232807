"""Batch front door.

Three subcommands: `run` executes a validated experiment config and
writes a JSON report, `verify` replays every certificate in a report,
`explain` prints the constants and formulas behind a probe kind.

Exit codes: 0 success, 1 usage, 2 validation or replay-input error,
3 a probe hit a cap, 4 a certificate failed verification.
"""

from __future__ import annotations

import argparse
import sys

from .config import load_experiment
from .errors import ConfigError, ReplayError
from .report import dump_report, load_report
from .runner import run_experiment
from .verify import verify_report

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


_EXPLANATIONS = {
    "defect": """\
defect: certified interval around D(phi) = sup |phi(g) + phi(h) - phi(g h)|.
The lower bound comes from scanning ball(R)^2 with the three-term
expression, and, for homogeneous phi, from phi-bar of commutators
(phi-bar([g, h]) <= D(phi)).  The report stores the witness pair
realizing the lower bound.  The upper bound is the probe's
claimed_upper when given, checked against the lower bound; otherwise
it is structural: 0 for homomorphisms, summed with |coefficients|
through combinations and doubled by homogenization.  A Brooks counting
quasimorphism has no stored bound, so without claimed_upper any phi
built from one reports no upper bound.""",
    "aker-cert": """\
aker-cert: approximate-subgroup certificate for
Aker(phi, D*) = { g : |phi-bar(g)| <= 2 D* } inside ball(R).
With a scaling element c satisfying 4 D*/5 < phi-bar(c) <= D*, the
witness set is X = { c^5, ..., c^-5 } (just {1} when D* = 0).  For each
member pair (g, h) the certificate records the first exponent m in
0, 1, -1, ..., 5, -5 with |phi-bar(g h c^m)| <= 2 D*.""",
    "rips-profile": """\
rips-profile: connectivity of the Rips graph on a finite vertex set,
with an edge between distinct g, h whenever 0 < d(g, h) < n.  The
profile lists the component count for n = 1, ..., n_max and the first
scale with a single component; at that scale a spanning forest of
explicit edges certifies connectivity.""",
    "path-search": """\
path-search: breadth-first search inside ball(R) over the admissible
vertices -K <= phi-bar(v) <= K_max (no ceiling when K_max is absent).
A found path is recorded with its exact phi-bar extrema; a failure
records how many admissible vertices were exhausted.""",
    "q-library": """\
q-library: one replacement path per ordered generator pair (s, t),
shaped q_{s,t} = (descent c^-n) . (connecting path) . (ascent c^n)
from 1 to s t, with the connecting part searched inside ball(R) below
max(phi-bar(c^-n), phi-bar(s t c^-n)) + K'.  The descent depth is
n = floor((5 / (4 D*)) (K' + max_{s,t} phi-bar(s t) + D*)) + 3.
Interior essential vertices (those not flanked by a pair of
scaling-letter edges) must sit strictly below -D*.  The level guard is
N = max(K' + 2 D* + 1, 1 - min phi-bar over the library), so every
stored vertex satisfies phi-bar > -N.""",
    "peak-reduce": """\
peak-reduce: height of a path is max floor(phi-bar) over its essential
vertices.  While the height exceeds M = 3 D* + max_s |phi-bar(s)|, the
first highest essential vertex v1 in v0 -> v1 -> v2 is replaced by the
library path v0 q_{s,t}, where s, t spell the incoming and outgoing
edges.  Each step strictly decreases (height, peak count)
lexicographically and stays above -N.  Removing scaling-letter
backtracks afterwards leaves every vertex with phi-bar <= M + 2 D*.""",
    "f2z-example": """\
f2z-example: the rank-2 free by rank-1 abelian model with phi sending
the free generators to 1 and 0 and the central generator to sqrt(2).
A straight path between kernel elements is corrected prefix by prefix:
after each letter, insert the central power m = -floor(v / sqrt(2) + 1/2)
where v is the current vertex value.  The corrected path stays inside
-3 <= phi-bar <= 3, exactly.""",
    "free-obstruction": """\
free-obstruction: conjugation sends a geodesic for x to one for
c^-n x c^n.  Each geodesic vertex v forces any path staying near the
level set to spend at least
max(0, (|phi-bar(v)| - 2 D*) / (max_s |phi-bar(s)| + D*)) steps at one
Rips scale to clear it.  Strictly increasing maxima over n show that no
single scale connects all the conjugates.""",
    "novikov-solve": """\
novikov-solve: the ray cycle z = q + ray(end) - ray(start) glues a
connecting path to two forward scaling rays, truncated below the
window W (the ray on x stops once phi-bar provably exceeds W, after
floor((W - phi-bar(x) + D) / phi-bar(c)) + 1 steps).  The probe solves
the integer system boundary(y) = z over faces with values in
[min z - slack, W) based in ball(R).  A solution is replayed as an
exact filling below W; infeasibility is certified by a functional that
annihilates every face boundary but not z (modulo m, or over Z when
m = 0).  Keeping only the filling's faces at negative values and taking
the boundary leaves a residual supported at phi-bar >= 0 whose support
connects the rays; the extracted composite path from start to end is
checked against min phi-bar >= -D.""",
    "zs-cycle": """\
zs-cycle: for a generator s, z_s is the difference of two paths from
c^n to s c^n: the down-up path through the identity (descend c^-n, step
s, ascend c^n) and a high path with min phi-bar >= n phi-bar(c) - K.
For s = c the two constructions coincide and z_c = 0 by convention.
The cycle is exact (boundary zero with no window), and the regime of
interest is n phi-bar(c) > K + D + 1, reported as a threshold check.""",
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="qmprobe", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("config", help="experiment config file")
    p_run.add_argument("--out", help="report file (defaults to the config's output path)")
    p_run.add_argument("--threads", type=int, default=1, help="worker count (results are identical for any value)")
    p_run.add_argument("--ball-cap", type=int, default=None, dest="ball_cap", help="override the model's ball cap")

    p_verify = sub.add_parser("verify", help="replay the certificates in a report")
    p_verify.add_argument("report", help="report file produced by run")

    p_explain = sub.add_parser("explain", help="print the formulas behind a probe kind")
    p_explain.add_argument("kind", choices=sorted(_EXPLANATIONS))
    return parser


def _cmd_run(args) -> int:
    if args.threads < 1:
        print("qmprobe: --threads must be at least 1", file=sys.stderr)
        return EXIT_USAGE
    if args.ball_cap is not None and args.ball_cap < 0:
        print("qmprobe: --ball-cap must be non-negative", file=sys.stderr)
        return EXIT_USAGE
    try:
        exp = load_experiment(args.config, ball_cap=args.ball_cap)
    except OSError as exc:
        print(f"qmprobe: cannot read config: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ConfigError as exc:
        print(f"qmprobe: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    report = run_experiment(exp, threads=args.threads)
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
    except OSError as exc:
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
    print(_EXPLANATIONS[args.kind])
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
