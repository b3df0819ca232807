"""Per-operation microbenchmarks on fixed operands.

Run as its own fresh process by the traced pass of `run.py`; prints one
JSON object of per-layer metrics.  Each figure is the median over
several timed repeats, after an untimed warm-up.

    PYTHONPATH=src python3 bench/micro.py
"""

from __future__ import annotations

import json
import statistics
import timeit

from qmprobe.exact import ExactReal
from qmprobe.groups import GroupModel
from qmprobe.quasimorphisms import BrooksQM, HomogenizedQM

REPEATS = 5


def per_op_us(stmt: str, namespace: dict, number: int) -> float:
    timer = timeit.Timer(stmt, globals=namespace)
    timer.timeit(number // 10)  # warm-up, not timed
    return statistics.median(timer.repeat(REPEATS, number)) / number * 1e6


def eval_us(model: GroupModel, word, radius: int) -> tuple[float, float]:
    """Per-element quasimorphism evaluation over ball(radius): first pass
    on a fresh instance (cold value cache), then a second pass (warm)."""
    ball = model.ball(radius)
    cold, warm = [], []
    for _ in range(REPEATS):
        qm = HomogenizedQM(BrooksQM(model, word))
        for samples in (cold, warm):
            start = timeit.default_timer()
            for g in ball:
                qm.value(g)
            samples.append((timeit.default_timer() - start) / len(ball) * 1e6)
    return statistics.median(cold), statistics.median(warm)


def main() -> dict:
    x = ExactReal.parse("3/7+2/5*sqrt(2)")
    y = ExactReal.parse("-5/3+1/4*sqrt(2)")
    model = GroupModel(free_rank=2, generator_names=("a", "b"), ball_cap=8)
    g = model.parse_element("a b a b^-1 a")
    h = model.parse_element("a^-1 b a b")
    ns = {"x": x, "y": y, "g": g, "h": h}
    cold, warm = eval_us(model, model.parse_word("a b"), 6)
    return {
        "exact.add_us": per_op_us("x + y", ns, 5000),
        "exact.cmp_us": per_op_us("x < y", ns, 2500),
        "exact.floor_us": per_op_us("x.floor()", ns, 600),
        "groups.mul_us": per_op_us("g * h", ns, 10000),
        "groups.sort_key_us": per_op_us("g.sort_key()", ns, 5000),
        "quasimorphisms.eval_cold_us": cold,
        "quasimorphisms.eval_warm_us": warm,
    }


if __name__ == "__main__":
    print(json.dumps(main()))
