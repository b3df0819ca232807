"""Spans around the calls into each qmprobe layer, recorded from outside
the package.

`Tracer.install()` replaces each traced function at every module
attribute that holds it, so a caller that bound it with
`from .x import f` reaches the wrapper too.  Spans (name, start, end,
parent) are stamped with CLOCK_MONOTONIC, so they compare with the
parent process's launch time; they stay in memory and are written once,
when the process ends.

Only calls made at layer boundaries are wrapped.  Per-element
primitives (ExactReal arithmetic, GroupElement methods, the payload
helpers) run hundreds of thousands of times per probe; wrapping them
would measure the wrapper, so their time stays in the caller's self
time and `micro.py` times them on fixed operands instead.  The one
exception is `GroupElement.distance`, which gets a bare counter while
a rips span is open.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from time import monotonic as clock

# module -> functions wrapped there; span names are "<layer>.<function>"
TARGETS = {
    "config": ("load_experiment", "parse_experiment"),
    "groups": ("_ball",),
    "quasimorphisms": ("defect_lower_bound", "certify_aker_approximate_subgroup"),
    "rips": ("build_rips", "connectivity_profile", "components", "components_from_edges"),
    "search": (
        "_constrained_bfs",
        "bounded_path_search",
        "compute_constants",
        "build_q_library",
        "peak_reduction",
        "f2z_kernel_path_normalize",
        "free_group_obstruction_probe",
    ),
    "paths": ("path_from_letters", "straight_path", "phi_extrema"),
    "intsolve": ("solve_integer_system", "check_solution", "check_unsat_certificate"),
    "novikov": (
        "enumerate_faces",
        "ray_cycle",
        "windowed_boundary_solve",
        "keep_negative_and_extract_path",
        "build_zs_cycle",
    ),
    "runner": ("run_experiment",),
    "report": ("dump_report", "load_report", "parse_path"),
    "verify": ("verify_report",),
}

HOOK_SPAN = "trace.hook"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.rips_depth = 0
        self._balls_seen: set = set()
        self._rips_sets: set = set()

    def install(self) -> None:
        import qmprobe.groups

        package = [m for n, m in sys.modules.items() if n.startswith("qmprobe")]
        hooks = {
            "groups._ball": self._count_ball,
            "rips.build_rips": self._count_rips,
            "rips.connectivity_profile": self._count_rips,
            "intsolve.solve_integer_system": self._count_system,
            "novikov.enumerate_faces": self._count_faces,
        }
        for layer, names in TARGETS.items():
            module = sys.modules[f"qmprobe.{layer}"]
            for fname in names:
                original = getattr(module, fname)
                span = f"{layer}.{fname}"
                wrapper = self._wrap(span, original, hooks.get(span))
                for mod in package:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
        distance = qmprobe.groups.GroupElement.distance

        def counted_distance(g, h):
            if self.rips_depth:
                self.counts["rips.distance_calls"] += 1
            return distance(g, h)

        qmprobe.groups.GroupElement.distance = counted_distance

    def _wrap(self, name, fn, hook):
        spans, stack = self.spans, self.stack
        is_rips = name.startswith("rips.")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append([name, 0.0, 0.0, parent])
            stack.append(index)
            self.rips_depth += is_rips
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self.rips_depth -= is_rips
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end
            if hook is not None:
                # counting runs outside the span; its own span keeps it
                # out of the caller's self time
                hook(args, result)
                spans.append([HOOK_SPAN, end, clock(), parent])
            return result

        return wrapper

    # -- counts taken from arguments and results ----------------------

    def _count_ball(self, args, result):
        key = (args[0], args[1])
        if key not in self._balls_seen:
            self._balls_seen.add(key)
            self.counts["groups.ball_elements"] += len(result)

    def _count_rips(self, args, result):
        verts = frozenset((v.free, v.ab) for v in args[0])
        if verts not in self._rips_sets:
            self._rips_sets.add(verts)
            n = len(verts)
            self.counts["rips.distinct_pairs"] += n * (n - 1) // 2

    def _count_system(self, args, result):
        columns, rhs = args[0], args[1]
        rows = set(rhs)
        nonzeros = 0
        for col in columns:
            rows.update(col)
            nonzeros += sum(1 for v in col.values() if v)
        self.counts["intsolve.rows"] += len(rows)
        self.counts["intsolve.columns"] += len(columns)
        self.counts["intsolve.nonzeros"] += nonzeros

    def _count_faces(self, args, result):
        self.counts["novikov.faces"] += len(result)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, handle)


# -- aggregation of one process's spans ----------------------------------


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def outer_time(spans: list, names: set) -> float:
    """Time inside spans named in `names`, counting a span only when no
    ancestor is also in `names`, so nested calls are not counted twice."""
    total = 0.0
    for name, start, end, parent in spans:
        if name not in names:
            continue
        p = parent
        while p >= 0 and spans[p][0] not in names:
            p = spans[p][3]
        if p < 0:
            total += end - start
    return total
