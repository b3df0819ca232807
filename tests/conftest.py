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
