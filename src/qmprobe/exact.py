"""Exact arithmetic over Q and real quadratic extensions Q(sqrt(d)).

Every number handled by this package is of the form a + b*sqrt(d) with
a, b rational and d a square-free integer, 2 <= d <= MAX_SURD_BASE
(d = 2 unless a config says otherwise).  Comparisons, floors and
serialization are all exact; no floating point is used anywhere.

An `ExactReal` stores four plain ints and stands for
(p + q*sqrt(d)) / den, under these invariants:

* den > 0 and gcd(p, q, den) == 1, so each value has exactly one
  representation and equality is equality of the four ints;
* d == DEFAULT_SQUAREFREE whenever q == 0, so rationals all share one
  surd base.

Construction, parsing and arithmetic use ints only.  `ExactReal(a, b, d)`
takes the ints of a + b*sqrt(d); a rational comes from division
(`ExactReal(5) / 4`) or from `ExactReal.parse`.  Because sqrt(d) is
irrational, p + q*sqrt(d) with q != 0 is never 0: its sign is decided
by the integer comparison of p*p with q*q*d, and its floor is
p + isqrt(q*q*d) (q > 0) or p - isqrt(q*q*d) - 1 (q < 0).  Comparisons
take the sign of the cross-multiplied numerators and build no
temporary value.

Serialized form is "p/q" for rationals and "p/q+r/s*sqrt(d)" otherwise,
with the sign of the surd folded into the separator, e.g.
"0/1-1/2*sqrt(2)".  `ExactReal.parse` also accepts looser input such as
"3", "-1/2", "sqrt(2)" or "1+sqrt(2)".
"""

from __future__ import annotations

import re
from math import gcd, isqrt

DEFAULT_SQUAREFREE = 2
# square-freeness is checked by trial division up to sqrt(d)
MAX_SURD_BASE = 10**6


def is_squarefree(d: int) -> bool:
    if d < 1:
        return False
    k = 2
    while k * k <= d:
        if d % (k * k) == 0:
            return False
        k += 1
    return True


def _check_base(d: int) -> None:
    """Refuse a surd base above MAX_SURD_BASE, below 2 or not square-free."""
    if d > MAX_SURD_BASE:
        raise ValueError(f"surd base must be at most {MAX_SURD_BASE}, got {d}")
    if d < 2 or not is_squarefree(d):
        raise ValueError(f"surd base must be square-free and >= 2, got {d}")


class _Fields:
    """The storage of an ExactReal, without its immutability guard."""

    __slots__ = ("_p", "_q", "_den", "d")


_new = object.__new__


def _make(p: int, q: int, den: int, d: int) -> "ExactReal":
    """(p + q*sqrt(d)) / den for ints with den > 0, brought to the
    invariants.  Integers (den == 1) skip the gcd.  The slots are filled
    on a plain `_Fields` instance, which is then retyped: ExactReal's own
    __setattr__ refuses every write."""
    if den != 1:
        g = gcd(p, q, den)
        if g != 1:
            p //= g
            q //= g
            den //= g
    x = _new(_Fields)
    x._p = p
    x._q = q
    x._den = den
    x.d = d if q else DEFAULT_SQUAREFREE
    x.__class__ = ExactReal
    return x


def _base(x: "ExactReal", y: "ExactReal") -> int:
    """The surd base of a result computed from x and y."""
    if not x._q:
        return y.d
    if y._q and y.d != x.d:
        raise ValueError(f"cannot mix sqrt({x.d}) and sqrt({y.d})")
    return x.d


def _sign(p: int, q: int, d: int) -> int:
    """The sign of p + q*sqrt(d), for ints p, q and a square-free d >= 2."""
    if q > 0:
        return 1 if p >= 0 or q * q * d > p * p else -1
    if q < 0:
        return -1 if p <= 0 or q * q * d > p * p else 1
    return (p > 0) - (p < 0)


def _floor(p: int, q: int, den: int, d: int) -> int:
    """floor((p + q*sqrt(d)) / den) for ints with den > 0, in lowest
    terms or not: with x = p + q*sqrt(d) irrational,
    floor(x / den) = floor(floor(x) / den)."""
    if q > 0:
        p += isqrt(q * q * d)
    elif q < 0:
        p -= isqrt(q * q * d) + 1
    return p // den


def _coerce(x: "int | ExactReal") -> "ExactReal":
    if isinstance(x, ExactReal):
        return x
    if isinstance(x, int):
        return _make(int(x), 0, 1, DEFAULT_SQUAREFREE)
    return NotImplemented  # type: ignore[return-value]


def _sum(x: "ExactReal", y: "ExactReal", yp: int, yq: int) -> "ExactReal":
    """x + (yp + yq*sqrt(d)) / y._den: x + y or, with yp, yq negated, x - y."""
    d = _base(x, y)
    den, yden = x._den, y._den
    if den == yden:
        return _make(x._p + yp, x._q + yq, den, d)
    return _make(x._p * yden + yp * den, x._q * yden + yq * den, den * yden, d)


class ExactReal(_Fields):
    """An element a + b*sqrt(d) of Q(sqrt(d)), with exact semantics."""

    __slots__ = ()

    def __new__(cls, a: int = 0, b: int = 0, d: int = DEFAULT_SQUAREFREE):
        if type(a) is not int or type(b) is not int or type(d) is not int:
            raise TypeError("ExactReal(a, b, d) takes ints; divide or parse for a rational")
        if b:
            _check_base(d)
        return _make(a, b, 1, d)

    def __setattr__(self, name, value):
        raise AttributeError("ExactReal is immutable")

    # -- arithmetic --------------------------------------------------

    def __add__(self, other):
        if type(other) is not ExactReal:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return _sum(self, other, other._p, other._q)

    __radd__ = __add__

    def __neg__(self):
        return _make(-self._p, -self._q, self._den, self.d)

    def __sub__(self, other):
        if type(other) is not ExactReal:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return _sum(self, other, -other._p, -other._q)

    def __mul__(self, other):
        if type(other) is not ExactReal:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        d = _base(self, other)
        p1, q1, p2, q2 = self._p, self._q, other._p, other._q
        return _make(p1 * p2 + q1 * q2 * d, p1 * q2 + q1 * p2, self._den * other._den, d)

    __rmul__ = __mul__

    def inverse(self) -> "ExactReal":
        p, q, d = self._p, self._q, self.d
        if not p and not q:
            raise ZeroDivisionError("exact division by zero")
        # den / (p + q sqrt d) = den (p - q sqrt d) / (p^2 - q^2 d); the
        # norm is non-zero because sqrt(d) is irrational
        den = self._den
        norm = p * p - q * q * d
        if norm < 0:
            den, norm = -den, -norm
        return _make(den * p, -den * q, norm, d)

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.__mul__(other.inverse())

    def __abs__(self):
        return -self if _sign(self._p, self._q, self.d) < 0 else self

    # -- comparisons -------------------------------------------------

    def __eq__(self, other):
        if type(other) is not ExactReal:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return (
            self._p == other._p
            and self._q == other._q
            and self._den == other._den
            and self.d == other.d
        )

    def __hash__(self):
        # an integer equals its int, so it must hash like it
        if self._den == 1 and not self._q:
            return hash(self._p)
        return hash((self._p, self._q, self._den, self.d))

    def _cmp(self, other) -> int:
        """The sign of self - other."""
        if type(other) is not ExactReal:
            other = _coerce(other)
            if other is NotImplemented:
                raise TypeError("cannot compare ExactReal with that type")
        d = _base(self, other)
        den, oden = self._den, other._den
        if den == oden:
            return _sign(self._p - other._p, self._q - other._q, d)
        return _sign(self._p * oden - other._p * den, self._q * oden - other._q * den, d)

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __bool__(self):
        return bool(self._p or self._q)

    # -- floor -------------------------------------------------------

    def floor(self) -> int:
        """Largest integer n with n <= self, computed exactly."""
        return _floor(self._p, self._q, self._den, self.d)

    # -- serialization -----------------------------------------------

    def __str__(self) -> str:
        p, q, den = self._p, self._q, self._den
        g = gcd(p, den)
        rat = f"{p // g}/{den // g}"
        if not q:
            return rat
        g = gcd(q, den)
        sep = "+" if q > 0 else "-"
        return f"{rat}{sep}{abs(q) // g}/{den // g}*sqrt({self.d})"

    def __repr__(self) -> str:
        return f"ExactReal({self})"

    _TERM = re.compile(
        r"""^(?:
              (?P<num>-?\d+)(?:/(?P<den>\d+))?(?:\*sqrt\((?P<d1>\d+)\))?
            | (?P<bare>-?)sqrt\((?P<d2>\d+)\)
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
        total = _make(0, 0, 1, DEFAULT_SQUAREFREE)
        for term in terms:
            if term.startswith("+"):
                term = term[1:]
            m = cls._TERM.match(term)
            if not m:
                raise ValueError(f"cannot parse exact number term {term!r} in {text!r}")
            if m["num"] is not None:
                n, den, surd = int(m["num"]), int(m["den"] or 1), m["d1"]
                if not den:
                    raise ValueError(f"zero denominator in {text!r}")
            else:
                n, den, surd = (-1 if m["bare"] else 1), 1, m["d2"]
            if surd is None:
                p, q, d = n, 0, DEFAULT_SQUAREFREE
            else:
                p, q, d = 0, n, int(surd)
                if n:
                    _check_base(d)
            total = total + _make(p, q, den, d)
        return total


ZERO = ExactReal(0)
ONE = ExactReal(1)

