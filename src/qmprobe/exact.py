"""Exact arithmetic over Q and real quadratic extensions Q(sqrt(d)).

Every number handled by this package is of the form a + b*sqrt(d) with
a, b rational and d a square-free integer >= 2 (d = 2 unless a config
says otherwise).  Comparisons, floors and serialization are all exact;
no floating point is used anywhere.

Serialized form is "p/q" for rationals and "p/q+r/s*sqrt(d)" otherwise,
with the sign of the surd folded into the separator, e.g.
"0/1-1/2*sqrt(2)".  `ExactReal.parse` also accepts looser input such as
"3", "-1/2", "sqrt(2)" or "1+sqrt(2)".
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import isqrt
from typing import Union

DEFAULT_SQUAREFREE = 2

Rationalish = Union[int, Fraction, "ExactReal"]


def is_squarefree(d: int) -> bool:
    if d < 1:
        return False
    k = 2
    while k * k <= d:
        if d % (k * k) == 0:
            return False
        k += 1
    return True


class ExactReal:
    """An element a + b*sqrt(d) of Q(sqrt(d)), with exact semantics."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a: int | Fraction = 0, b: int | Fraction = 0, d: int = DEFAULT_SQUAREFREE):
        a = Fraction(a)
        b = Fraction(b)
        if b == 0:
            # canonical: rational values all share the default d
            d = DEFAULT_SQUAREFREE
        else:
            if d < 2 or not is_squarefree(d):
                raise ValueError(f"surd base must be square-free and >= 2, got {d}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("ExactReal is immutable")

    # -- constructors ------------------------------------------------

    @staticmethod
    def _coerce(x: Rationalish) -> "ExactReal":
        if isinstance(x, ExactReal):
            return x
        if isinstance(x, (int, Fraction)):
            return ExactReal(x)
        return NotImplemented  # type: ignore[return-value]

    # -- predicates --------------------------------------------------

    def sign(self) -> int:
        """Exact sign in {-1, 0, +1}."""
        a, b, d = self.a, self.b, self.d
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return 1 if b > 0 else -1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # opposite signs: the sign is decided by a^2 vs b^2*d
        lhs, rhs = a * a, b * b * d
        if a > 0:
            return 1 if lhs > rhs else (-1 if lhs < rhs else 0)
        return 1 if rhs > lhs else (-1 if rhs < lhs else 0)

    # -- arithmetic --------------------------------------------------

    def _check_compatible(self, other: "ExactReal") -> int:
        if self.b != 0 and other.b != 0 and self.d != other.d:
            raise ValueError(f"cannot mix sqrt({self.d}) and sqrt({other.d})")
        return other.d if self.b == 0 else self.d

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d = self._check_compatible(other)
        return ExactReal(self.a + other.a, self.b + other.b, d)

    __radd__ = __add__

    def __neg__(self):
        return ExactReal(-self.a, -self.b, self.d)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.__add__(-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other.__add__(-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d = self._check_compatible(other)
        return ExactReal(
            self.a * other.a + self.b * other.b * d,
            self.a * other.b + self.b * other.a,
            d,
        )

    __rmul__ = __mul__

    def inverse(self) -> "ExactReal":
        if self.sign() == 0:
            raise ZeroDivisionError("exact division by zero")
        norm = self.a * self.a - self.b * self.b * self.d
        if norm == 0:  # pragma: no cover - impossible for square-free d
            raise ZeroDivisionError("degenerate quadratic norm")
        return ExactReal(self.a / norm, -self.b / norm, self.d)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.__mul__(other.inverse())

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other.__mul__(self.inverse())

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("only non-negative integer powers")
        out = ExactReal(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- comparisons -------------------------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.b == 0 and other.b == 0:
            return self.a == other.a
        if self.b == 0 or other.b == 0:
            return False
        return self.d == other.d and self.a == other.a and self.b == other.b

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def _cmp(self, other) -> int:
        other = self._coerce(other)
        if other is NotImplemented:
            raise TypeError("cannot compare ExactReal with that type")
        return (self - other).sign()

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __bool__(self):
        return self.sign() != 0

    # -- floor -------------------------------------------------------

    def floor(self) -> int:
        """Largest integer n with n <= self, computed exactly."""
        if self.b == 0:
            return self.a.numerator // self.a.denominator
        # rational bracket for |b|*sqrt(d) via isqrt: sqrt(p/q) = sqrt(p*q)/q
        t2 = self.b * self.b * self.d
        p, q = t2.numerator, t2.denominator
        r = isqrt(p * q)
        lo, hi = Fraction(r, q), Fraction(r + 1, q)
        if self.b > 0:
            est = self.a + lo
        else:
            est = self.a - hi
        n = est.numerator // est.denominator
        while (self - (n + 1)).sign() >= 0:
            n += 1
        while (self - n).sign() < 0:
            n -= 1
        return n

    def __floor__(self) -> int:
        return self.floor()

    # -- serialization -----------------------------------------------

    def __str__(self) -> str:
        rat = f"{self.a.numerator}/{self.a.denominator}"
        if self.b == 0:
            return rat
        sep = "+" if self.b > 0 else "-"
        mag = abs(self.b)
        return f"{rat}{sep}{mag.numerator}/{mag.denominator}*sqrt({self.d})"

    def __repr__(self) -> str:
        return f"ExactReal({self})"

    _TERM = re.compile(
        r"""^(?:
              (?P<coef>-?\d+(?:/\d+)?)\*sqrt\((?P<d1>\d+)\)
            | (?P<bare>-?)sqrt\((?P<d2>\d+)\)
            | (?P<rat>-?\d+(?:/\d+)?)
            )$""",
        re.VERBOSE,
    )

    @classmethod
    def parse(cls, text: str) -> "ExactReal":
        """Parse the canonical form, plus convenient shorthands."""
        s = text.replace(" ", "")
        if not s:
            raise ValueError("empty exact-number literal")
        # split into signed terms, keeping leading sign attached
        terms: list[str] = []
        pos = 0
        for m in re.finditer(r"(?<!^)[+-]", s):
            # a sign inside "sqrt(" never occurs; any interior +/- splits terms
            terms.append(s[pos : m.start()])
            pos = m.start()
        terms.append(s[pos:])
        total = cls(0)
        for term in terms:
            if term.startswith("+"):
                term = term[1:]
            m = cls._TERM.match(term)
            if not m:
                raise ValueError(f"cannot parse exact number term {term!r} in {text!r}")
            if m.group("rat") is not None:
                total = total + cls(Fraction(m.group("rat")))
            elif m.group("coef") is not None:
                total = total + cls(0, Fraction(m.group("coef")), int(m.group("d1")))
            else:
                b = Fraction(-1 if m.group("bare") == "-" else 1)
                total = total + cls(0, b, int(m.group("d2")))
        return total


ZERO = ExactReal(0)
ONE = ExactReal(1)


def exact_max(values) -> ExactReal:
    it = iter(values)
    try:
        best = next(it)
    except StopIteration:
        raise ValueError("exact_max of empty sequence") from None
    for v in it:
        if v > best:
            best = v
    return best


def exact_min(values) -> ExactReal:
    it = iter(values)
    try:
        best = next(it)
    except StopIteration:
        raise ValueError("exact_min of empty sequence") from None
    for v in it:
        if v < best:
            best = v
    return best
