from __future__ import annotations

import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qmprobe.exact import ExactReal, ONE, ZERO, is_squarefree

from conftest import exact

SQRT2 = ExactReal(0, 1, 2)


def test_rational_canonicalization_ignores_surd_base():
    assert ExactReal(3, 0, 7) == ExactReal(3)
    assert ExactReal(6) / 4 == ExactReal(3) / 2


def test_only_ints_build_a_value():
    for args in ((Fraction(1, 2),), (1.0,), ("1",), (True,), (0, Fraction(1)), (0, 1, 2.0)):
        with pytest.raises(TypeError, match="takes ints"):
            ExactReal(*args)
    # a Fraction is no longer an exact number of this package
    assert ExactReal(1) != Fraction(1) and ExactReal(1) / 2 != Fraction(1, 2)
    assert ExactReal(1) == 1 and ExactReal(2) / 2 == 1


def test_non_squarefree_base_rejected():
    with pytest.raises(ValueError):
        ExactReal(0, 1, 4)
    with pytest.raises(ValueError):
        ExactReal(0, 1, 1)
    assert is_squarefree(2) and is_squarefree(30) and not is_squarefree(12)
    # the bound is checked before trial division, which would not finish here
    with pytest.raises(ValueError, match="at most 1000000"):
        ExactReal.parse("sqrt(1000000000000000003)")
    assert ExactReal(0, 1, 999983).d == 999983  # the largest prime below the bound


def test_mixed_bases_rejected():
    x, y = ExactReal(1, 1, 2), ExactReal(1, 1, 3)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv,
               operator.lt, operator.le, operator.gt, operator.ge):
        with pytest.raises(ValueError, match="cannot mix"):
            op(x, y)
    assert x != y
    # a rational operand adopts the other operand's base
    assert (ExactReal(3, 0, 3) + y).d == 3


def test_immutable():
    x = ExactReal(1, 2, 2)
    for name in ("a", "b", "d", "_p", "_q", "_den", "anything"):
        with pytest.raises(AttributeError):
            setattr(x, name, 5)
    assert x == ExactReal(1, 2, 2)


def test_field_arithmetic_in_q_sqrt2():
    x = ExactReal(1, 2, 2)  # 1 + 2 sqrt(2)
    y = ExactReal(3, -1, 2)  # 3 - sqrt(2)
    assert x + y == ExactReal(4, 1, 2)
    assert x * y == ExactReal(-1, 5, 2)
    assert (x / y) * y == x
    assert x - x == ZERO


def test_sign_resolves_close_surds_exactly():
    # 99/70 is a hair above sqrt(2); 140/99 is a hair below
    assert ExactReal(99) / 70 - SQRT2 > ZERO
    assert ExactReal(140) / 99 - SQRT2 < ZERO
    assert SQRT2 * SQRT2 - ExactReal(2) == ZERO


def test_comparisons_and_abs():
    assert SQRT2 > ONE
    assert -SQRT2 < ZERO
    assert abs(ExactReal(0, -1, 2)) == SQRT2
    assert max([ONE, SQRT2, ZERO]) == SQRT2
    assert min([ONE, SQRT2, ZERO]) == ZERO


@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(1, 50))
def test_floor_matches_float_on_rationals(p, q, r):
    x = ExactReal(p, q, 2) / r
    assert x.floor() == math.floor(p / r + (q / r) * math.sqrt(2))


def test_floor_on_surd_boundaries():
    assert SQRT2.floor() == 1
    assert (-SQRT2).floor() == -2
    assert (SQRT2 * SQRT2).floor() == 2
    assert (ExactReal(-7) / 2).floor() == -4


@given(st.integers(-360, 360), st.integers(-360, 360), st.integers(1, 144))
def test_serialization_round_trip(p, q, den):
    x = ExactReal(p, q, 3) / den
    assert ExactReal.parse(str(x)) == x


def test_parse_shorthands():
    assert ExactReal.parse("sqrt(2)") == SQRT2
    assert ExactReal.parse("-sqrt(2)") == -SQRT2
    assert ExactReal.parse("3/2") == ExactReal(3) / 2
    assert ExactReal.parse("1 + 1/2*sqrt(5)") == ExactReal(2, 1, 5) / 2
    assert ExactReal.parse("-6/4*sqrt(3)+2") == ExactReal(4, -3, 3) / 2
    # a zero coefficient takes no surd base, so its base is not checked
    assert ExactReal.parse("0*sqrt(4)") == ZERO
    for text, message in (
        ("1/0", "zero denominator in '1/0'"),
        ("1+0/0*sqrt(4)", "zero denominator"),
        ("sqrt(4)", "square-free and >= 2, got 4"),
        ("1-1/2*sqrt(1)", "square-free and >= 2, got 1"),
        ("sqrt(1000003)", "at most 1000000, got 1000003"),
    ):
        with pytest.raises(ValueError, match=message):
            ExactReal.parse(text)
    with pytest.raises(ValueError):
        ExactReal.parse("1.5")
    with pytest.raises(ValueError):
        ExactReal.parse("")


def test_never_serializes_floats():
    for x in (SQRT2 / 3, ExactReal(1) / 3, -SQRT2 * 7):
        assert "." not in str(x)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


# -- differential test against the Fraction-backed implementation ----------


class FractionReal:
    """The Fraction-backed a + b*sqrt(d) this package used before its
    integer representation, kept as a reference."""

    def __init__(self, a=0, b=0, d=2):
        self.a, self.b = Fraction(a), Fraction(b)
        self.d = d if self.b else 2

    def sign(self):
        a, b, d = self.a, self.b, self.d
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return 1 if b > 0 else -1
        if (a > 0) == (b > 0):
            return 1 if a > 0 else -1
        lhs, rhs = a * a, b * b * d
        return (1 if lhs > rhs else -1) if a > 0 else (1 if rhs > lhs else -1)

    @staticmethod
    def _coerce(x):
        return x if isinstance(x, FractionReal) else FractionReal(x)

    def _base(self, other):
        if self.b != 0 and other.b != 0 and self.d != other.d:
            raise ValueError(f"cannot mix sqrt({self.d}) and sqrt({other.d})")
        return other.d if self.b == 0 else self.d

    def __add__(self, other):
        other = self._coerce(other)
        return FractionReal(self.a + other.a, self.b + other.b, self._base(other))

    __radd__ = __add__

    def __neg__(self):
        return FractionReal(-self.a, -self.b, self.d)

    def __sub__(self, other):
        return self + -self._coerce(other)

    def __mul__(self, other):
        other = self._coerce(other)
        d = self._base(other)
        return FractionReal(
            self.a * other.a + self.b * other.b * d, self.a * other.b + self.b * other.a, d
        )

    __rmul__ = __mul__

    def inverse(self):
        if self.sign() == 0:
            raise ZeroDivisionError("exact division by zero")
        norm = self.a * self.a - self.b * self.b * self.d
        return FractionReal(self.a / norm, -self.b / norm, self.d)

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __eq__(self, other):
        other = self._coerce(other)
        return (self.a, self.b, self.d) == (other.a, other.b, other.d)

    def __hash__(self):
        return hash(self.a) if self.b == 0 else hash((self.a, self.b, self.d))

    def _cmp(self, other):
        return (self - other).sign()

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def floor(self):
        if self.b == 0:
            return math.floor(self.a)
        # rational bracket for |b| sqrt(d): sqrt(p/q) = sqrt(p q)/q
        t2 = self.b * self.b * self.d
        r = math.isqrt(t2.numerator * t2.denominator)
        if self.b > 0:
            n = math.floor(self.a + Fraction(r, t2.denominator))
        else:
            n = math.floor(self.a - Fraction(r + 1, t2.denominator))
        while (self - (n + 1)).sign() >= 0:
            n += 1
        while (self - n).sign() < 0:
            n -= 1
        return n

    def __str__(self):
        rat = f"{self.a.numerator}/{self.a.denominator}"
        if self.b == 0:
            return rat
        mag = abs(self.b)
        sep = "+" if self.b > 0 else "-"
        return f"{rat}{sep}{mag.numerator}/{mag.denominator}*sqrt({self.d})"


RATIONALS = st.one_of(
    st.fractions(min_value=-40, max_value=40, max_denominator=30),
    st.integers(-10**30, 10**30).map(Fraction),
)
SURDS = st.one_of(st.just(Fraction(0)), RATIONALS)


def _pair(d):
    """Two values of Q(sqrt d), as (reference, integer-backed) pairs."""
    value = st.tuples(RATIONALS, SURDS).map(lambda ab: (FractionReal(*ab, d), exact(*ab, d)))
    return st.tuples(value, value)


PAIRS = st.sampled_from([2, 3]).flatmap(_pair)
ORDER = (operator.lt, operator.le, operator.gt, operator.ge, operator.eq, operator.ne)


def _same(ref, x):
    assert str(x) == str(ref)
    assert (Fraction(x._p, x._den), Fraction(x._q, x._den), x.d) == (ref.a, ref.b, ref.d)


@settings(max_examples=300, deadline=None)
@given(PAIRS, st.integers(-7, 7))
def test_matches_the_fraction_backed_reference(pair, n):
    (rx, x), (ry, y) = pair
    _same(rx, x)
    for op in (operator.add, operator.sub, operator.mul):
        _same(op(rx, ry), op(x, y))
        _same(op(rx, n), op(x, n))
    for op in (operator.add, operator.mul):
        _same(op(n, rx), op(n, x))
    if ry.sign():
        _same(rx / ry, x / y)
        _same(ry.inverse(), y.inverse())
    else:
        with pytest.raises(ZeroDivisionError):
            x / y
        with pytest.raises(ZeroDivisionError):
            y.inverse()
    _same(abs(rx), abs(x))
    _same(-rx, -x)
    for op in ORDER:
        assert op(x, y) == op(rx, ry)
        assert op(x, n) == op(rx, FractionReal(n))
    assert (x > 0) - (x < 0) == rx.sign() and bool(x) == bool(rx.sign())
    assert x.floor() == rx.floor()
    assert ExactReal.parse(str(x)) == x
    z = (x + y) - y  # equal to x, reached another way
    assert z == x and hash(z) == hash(x)


@given(st.integers(-10**40, 10**40), RATIONALS, SURDS)
def test_an_integer_hashes_as_its_int_and_equal_values_hash_alike(n, a, b):
    assert hash(ExactReal(n)) == hash(n) == hash(ExactReal(3 * n) / 3)
    x = exact(a, b)
    for y in ((x * 6) / 6, x + n - n, -(-x), exact(a, b)):
        assert y == x and hash(y) == hash(x)
    assert x - x == ZERO and hash(x - x) == hash(0)
    assert len({x, (x * 2) / 2, x + 1 - 1}) == 1
