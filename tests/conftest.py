from __future__ import annotations

from fractions import Fraction

import pytest

from qmprobe.exact import ExactReal, ONE, ZERO
from qmprobe.groups import GroupModel
from qmprobe.quasimorphisms import BrooksQM, HomogenizedQM, HomomorphismQM


def exact(a, b=0, d: int = 2) -> ExactReal:
    """a + b*sqrt(d) for rationals a and b (Fractions or ints), built by
    division: ExactReal takes ints only."""
    a, b = Fraction(a), Fraction(b)
    den = a.denominator * b.denominator
    return ExactReal(a.numerator * b.denominator, b.numerator * a.denominator, d) / den


def product_letters(path) -> tuple:
    """A path's edge letters found from its vertices alone, as an
    oracle: the one letter of each g_i^-1 g_{i+1}."""
    out = []
    for v, w in zip(path.vertices, path.vertices[1:]):
        step = v.inverse() * w
        assert step.length() == 1
        out.append(step.letters()[0])
    return tuple(out)


def paths_by_shape(value) -> dict[tuple, list]:
    """The path to each node below `value`, parsed JSON, keyed by its
    shape: the path with list indices as "*"."""
    shapes: dict[tuple, list] = {}

    def walk(node, at):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            path = at + (key,)
            shape = tuple("*" if isinstance(k, int) else k for k in path)
            shapes.setdefault(shape, []).append(path)
            if isinstance(child, (dict, list)):
                walk(child, path)

    walk(value, ())
    return shapes


# the recorded witnesses `verify` replays instead of re-running the
# probe, by kind: a mutated one may pass, if it replays
_REPLAYED_WITNESSES = {"defect": {"witness"}, "novikov-solve": {"coefficients", "certificate"}}


def in_replayed_witness(report: dict, path: tuple) -> bool:
    """Whether the node of `report` at `path` lies in a recorded witness
    that `verify` replays."""
    if path[:2] != ("body", "probes") or len(path) < 5 or path[3] != "result":
        return False
    kind = report["body"]["probes"][path[2]]["kind"]
    return path[4] in _REPLAYED_WITNESSES.get(kind, ())


@pytest.fixture(scope="session")
def f2() -> GroupModel:
    return GroupModel(free_rank=2, generator_names=("a", "b"), ball_cap=8)


@pytest.fixture(scope="session")
def f3() -> GroupModel:
    return GroupModel(free_rank=3, generator_names=("a", "b", "c"), ball_cap=4)


@pytest.fixture(scope="session")
def psi_ab(f2) -> BrooksQM:
    return BrooksQM(f2, f2.parse_word("a b"))


@pytest.fixture(scope="session")
def psibar_ab(psi_ab) -> HomogenizedQM:
    return HomogenizedQM(psi_ab)


@pytest.fixture(scope="session")
def z2() -> GroupModel:
    return GroupModel(
        free_rank=0, abelian_rank=2, generator_names=("a", "c"), ball_cap=40
    )


@pytest.fixture(scope="session")
def z2_hom11(z2) -> HomomorphismQM:
    """phi(a) = phi(c) = 1."""
    return HomomorphismQM(z2, (ONE, ONE))


@pytest.fixture(scope="session")
def z2_hom01(z2) -> HomomorphismQM:
    """phi(a) = 0, phi(c) = 1."""
    return HomomorphismQM(z2, (ZERO, ONE))


@pytest.fixture(scope="session")
def f2z() -> GroupModel:
    return GroupModel(
        free_rank=2, abelian_rank=1, generator_names=("a", "b", "u"), ball_cap=10
    )


@pytest.fixture(scope="session")
def f2z2() -> GroupModel:
    return GroupModel(
        free_rank=2, abelian_rank=2, generator_names=("a", "b", "u", "v"), ball_cap=10
    )


@pytest.fixture(scope="session")
def f2z_phi(f2z) -> HomomorphismQM:
    """phi(a) = 1, phi(b) = 0, phi(u) = sqrt(2)."""
    return HomomorphismQM(f2z, (ONE, ZERO, ExactReal(0, 1, 2)))
