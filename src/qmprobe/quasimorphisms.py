"""Quasimorphisms on the supported group models and the exact
operations the rest of the package relies on.

Variants:

* `HomomorphismQM` -- determined by exact generator values; defect 0.
* `BrooksQM` -- counting quasimorphism of a reduced free word w: the
  number of occurrences of w as a subword of the reduced free part
  (overlaps allowed) minus the number of occurrences of w^-1.
* `CombinationQM` -- exact linear combination of other variants.
* `HomogenizedQM` -- the homogenization of a Brooks quasimorphism or a
  homomorphism, evaluated exactly.

Homogeneous values are available for every variant through
`homogeneous_value`: for a Brooks quasimorphism the value is computed
by cyclically reducing the free part and counting occurrences that
start within one period of the resulting bi-infinite word; for linear
combinations the homogenization is taken term by term (homogenization
is a linear operator, so this is exact).

Numerators.  Each quasimorphism fixes at construction a denominator
`den` and a surd base `d`, and every value it takes is
(p + q sqrt(d)) / den with ints p, q:

* a Brooks count has den 1 and q 0;
* a homomorphism's den is the lcm of its generator values'
  denominators;
* a homogenization keeps its base's den and d;
* a combination's den is the lcm of (coefficient denominator) x (part
  den) over its terms, and (a + b sqrt(d))(p + q sqrt(d)) =
  (a p + b q d) + (a q + b p) sqrt(d) gives its numerators.

A variant evaluates through two hooks, `_num(free, ab)` and
`_hnum(free, ab)`, which return (p, q) for a normal form; `value` and
`homogeneous_value` build an `ExactReal` from them on every call and
keep nothing.  A quasimorphism whose values or coefficients mix two
surd bases is refused at construction.  The pair scans below compare
numerator pairs directly, so they build one `ExactReal` per result
instead of several per pair.

Defects are never guessed.  `defect_lower_bound` scans a ball for
certified lower bounds; every operation that needs an upper defect
bound takes it as an explicit argument (written D* throughout).
"""

from __future__ import annotations

from math import lcm
from operator import mul
from typing import Callable, NamedTuple, Optional, Sequence

from .exact import DEFAULT_SQUAREFREE, ExactReal, ZERO, _make, _sign
from .groups import Generator, GroupElement, GroupModel, _concat_reduce, commutator

# most pairs a `defect` scan (the triangle, N (N + 1) / 2 for a ball of N
# elements) or an `aker-cert` certificate (the square, N^2) may span;
# validation refuses more.  Each scan evaluates one position per orbit,
# but the bound counts them all.  F_2 at radius 5 fits both (117,855 and
# 235,225 pairs), radius 6 does not
MAX_SCAN_PAIRS = 250_000


class Quasimorphism:
    """Base class; concrete variants implement the hooks `_num` and
    `_hnum`, which return the numerators (p, q) of the value and of the
    homogeneous value at a normal form, over the fixed `den` and `d`."""

    def __init__(self, model: GroupModel, den: int = 1, surds: frozenset = frozenset()):
        if len(surds) > 1:
            a, b = sorted(surds)[:2]
            raise ValueError(f"cannot mix sqrt({a}) and sqrt({b})")
        self.model = model
        self.den = den
        # the surd bases among the values and coefficients: none or one
        self.surds = surds
        self.d = next(iter(surds), DEFAULT_SQUAREFREE)

    # subclass hooks ------------------------------------------------

    def _num(self, free: tuple[int, ...], ab: tuple[int, ...]) -> tuple[int, int]:
        raise NotImplementedError

    def _hnum(self, free: tuple[int, ...], ab: tuple[int, ...]) -> tuple[int, int]:
        raise NotImplementedError

    @property
    def is_homogeneous(self) -> bool:
        raise NotImplementedError

    def defect_upper(self) -> Optional[ExactReal]:
        """A certified upper bound on the defect, or None if unknown."""
        raise NotImplementedError

    # shared API ----------------------------------------------------

    def value(self, g: GroupElement) -> ExactReal:
        return _make(*self._num(g.free, g.ab), self.den, self.d)

    def homogeneous_value(self, g: GroupElement) -> ExactReal:
        return _make(*self._hnum(g.free, g.ab), self.den, self.d)


class HomomorphismQM(Quasimorphism):
    def __init__(self, model: GroupModel, values: Sequence[ExactReal]):
        values = tuple(values)
        if len(values) != model.rank:
            raise ValueError(
                f"expected {model.rank} generator values, got {len(values)}"
            )
        den = lcm(*(v._den for v in values))
        super().__init__(model, den, frozenset(v.d for v in values if v._q))
        self.values = values
        ps = [v._p * (den // v._den) for v in values]
        qs = [v._q * (den // v._den) for v in values]
        # the numerators of each free letter, indexed by the signed
        # letter itself (letter -x lands at the end of the list) and
        # read through the list's __getitem__, which `map` calls without
        # a Python frame; then those of each abelian letter
        r = model.free_rank
        letter_p, letter_q = [0] * (2 * r + 1), [0] * (2 * r + 1)
        for x in range(1, r + 1):
            letter_p[x], letter_p[-x] = ps[x - 1], -ps[x - 1]
            letter_q[x], letter_q[-x] = qs[x - 1], -qs[x - 1]
        self._free_p, self._free_q = letter_p.__getitem__, letter_q.__getitem__
        self._ab_p, self._ab_q = tuple(ps[r:]), tuple(qs[r:])

    def _hnum(self, free: tuple[int, ...], ab: tuple[int, ...]) -> tuple[int, int]:
        # the dot product of the exponent sums with the value numerators
        p = sum(map(self._free_p, free)) + sum(map(mul, ab, self._ab_p))
        if not self.surds:
            return p, 0
        return p, sum(map(self._free_q, free)) + sum(map(mul, ab, self._ab_q))

    _num = _hnum

    @property
    def is_homogeneous(self) -> bool:
        return True

    def defect_upper(self) -> Optional[ExactReal]:
        return ZERO


def cyclic_reduce(word: tuple[int, ...]) -> tuple[int, ...]:
    i, j = 0, len(word)
    while j - i >= 2 and word[i] == -word[j - 1]:
        i += 1
        j -= 1
    return word[i:j]


def signed_count(
    seq: tuple[int, ...], w: tuple[int, ...], w_inv: tuple[int, ...], starts: range
) -> int:
    """The number of positions p in `starts` at which w occurs in seq,
    minus the number at which w_inv does.  Indices past the end of seq
    wrap around to its start, so with starts = range(len(seq)) this
    counts in the cyclic word seq over one period; a plain word passes
    the starts at which w fits, and nothing wraps.  w and w_inv may
    share their first letter (w = a b a^-1), so a position is tested
    against both."""
    k = len(w)
    reach = starts.stop + k - 1
    if reach > len(seq):
        seq = seq * -(-reach // len(seq))
    first, first_inv = w[0], w_inv[0]
    count = 0
    for p in starts:
        x = seq[p]
        if x == first and seq[p : p + k] == w:
            count += 1
        if x == first_inv and seq[p : p + k] == w_inv:
            count -= 1
    return count


class BrooksQM(Quasimorphism):
    """Counting quasimorphism of the reduced word `word` (a sequence of
    free generator letters).  The abelian block of a product model is
    invisible to it."""

    def __init__(self, model: GroupModel, word: Sequence[Generator]):
        super().__init__(model)
        if not word:
            raise ValueError("Brooks word must be non-empty")
        letters = []
        for gen in word:
            if not model.is_free_index(gen.index):
                raise ValueError("Brooks word may only use free generators")
            letters.append(-(gen.index + 1) if gen.inverse else gen.index + 1)
        for x, y in zip(letters, letters[1:]):
            if x == -y:
                raise ValueError("Brooks word must be reduced")
        self.word = tuple(letters)
        self.word_inverse = tuple(-x for x in reversed(letters))

    def _num(self, free: tuple[int, ...], ab: tuple[int, ...]) -> tuple[int, int]:
        starts = range(len(free) - len(self.word) + 1)
        return signed_count(free, self.word, self.word_inverse, starts), 0

    def _hnum(self, free: tuple[int, ...], ab: tuple[int, ...]) -> tuple[int, int]:
        cyc = cyclic_reduce(free)
        if not cyc:
            return 0, 0
        return signed_count(cyc, self.word, self.word_inverse, range(len(cyc))), 0

    @property
    def is_homogeneous(self) -> bool:
        return False

    def defect_upper(self) -> Optional[ExactReal]:
        return None


class CombinationQM(Quasimorphism):
    def __init__(self, coefficients: Sequence[ExactReal], parts: Sequence[Quasimorphism]):
        if not parts:
            raise ValueError("combination needs at least one part")
        if len(coefficients) != len(parts):
            raise ValueError("one coefficient per part required")
        coefficients, parts = tuple(coefficients), tuple(parts)
        surds = frozenset(c.d for c in coefficients if c._q).union(*(p.surds for p in parts))
        den = lcm(*(c._den * p.den for c, p in zip(coefficients, parts)))
        super().__init__(parts[0].model, den, surds)
        self.coefficients = coefficients
        self.parts = parts
        # each coefficient's numerators, scaled to the common den
        self._scaled = tuple(
            (c._p * (den // (c._den * p.den)), c._q * (den // (c._den * p.den)))
            for c, p in zip(coefficients, parts)
        )

    def _combine(self, nums) -> tuple[int, int]:
        """The numerators of sum_i c_i x_i from those of the parts' x_i."""
        d, p, q = self.d, 0, 0
        for (a, b), (x, y) in zip(self._scaled, nums):
            p += a * x + b * y * d
            q += a * y + b * x
        return p, q

    def _num(self, free: tuple[int, ...], ab: tuple[int, ...]) -> tuple[int, int]:
        return self._combine(part._num(free, ab) for part in self.parts)

    def _hnum(self, free: tuple[int, ...], ab: tuple[int, ...]) -> tuple[int, int]:
        return self._combine(part._hnum(free, ab) for part in self.parts)

    @property
    def is_homogeneous(self) -> bool:
        return all(p.is_homogeneous for p in self.parts)

    def defect_upper(self) -> Optional[ExactReal]:
        total = ZERO
        for c, p in zip(self.coefficients, self.parts):
            ub = p.defect_upper()
            if ub is None:
                return None
            total = total + abs(c) * ub
        return total


class HomogenizedQM(Quasimorphism):
    """phi-bar for a Brooks quasimorphism or a homomorphism.

    Both hooks are the base's own `_hnum`, bound at construction, so
    `value` and `homogeneous_value` are both the base's
    `homogeneous_value` and no call is forwarded.

    Combinations are deliberately not accepted here: homogenize the
    parts first and combine those (the result is the same and keeps
    each exact homogenization auditable on its own).
    """

    def __init__(self, base: Quasimorphism):
        if not isinstance(base, (BrooksQM, HomomorphismQM)):
            raise ValueError(
                "homogenization is implemented for Brooks and homomorphism "
                "variants; build combinations out of homogenized parts instead"
            )
        super().__init__(base.model, base.den, base.surds)
        self.base = base
        self._hnum = self._num = base._hnum

    @property
    def is_homogeneous(self) -> bool:
        return True

    def defect_upper(self) -> Optional[ExactReal]:
        ub = self.base.defect_upper()
        if ub is None:
            return None
        return ub + ub  # D(phi-bar) <= 2 D(phi)


class DefectEstimate(NamedTuple):
    """An exact interval [lower, upper] around the defect, with a
    witness realizing the lower bound.

    upper is None when no finite bound is known.  witness_kind is
    "commutator" (lower = phi-bar([g, h])) or "three-term"
    (lower = |phi(g) + phi(h) - phi(g h)|).
    """

    lower: ExactReal
    upper: Optional[ExactReal]
    radius: int
    witness_kind: str
    witness: tuple[GroupElement, GroupElement]
    witness_value: ExactReal

    @property
    def provenance(self) -> str:
        return f"commutator and three-term scan over ball({self.radius})^2"


def _inverse_index(elements: Sequence[GroupElement]) -> list[int]:
    """inv[i] is the index of elements[i]^-1 in `elements`, which must
    be closed under inversion (a ball, or the Aker members of one)."""
    index = {(g.free, g.ab): k for k, g in enumerate(elements)}
    return [
        index[tuple([-x for x in reversed(g.free)]), tuple([-x for x in g.ab])]
        for g in elements
    ]


def defect_lower_bound(
    qm: Quasimorphism,
    radius: int,
    upper: Optional[ExactReal] = None,
) -> DefectEstimate:
    """Scan ball(radius)^2 for the largest commutator value
    phi([g, h]) and the largest three-term expression
    |phi(g) + phi(h) - phi(g h)|; both are certified lower bounds on
    the defect of a homogeneous quasimorphism.

    The result is that of the row-major loop over the whole square of
    the canonical ball order (g_0, ..., g_{N-1}), which keeps the first
    strictly largest value, but each value is evaluated only at the
    first position of its orbit.  A homogeneous quasimorphism is a class
    function with phi(x^-1) = -phi(x) (Calegari, *scl*, MSJ Memoirs 20
    (2009), 2.2), and the ball is closed under inversion; write i' for
    the index of g_i^-1.  The commutators [g, h], [h, g^-1],
    [g^-1, h^-1] and [h^-1, g] are conjugate, so the commutator value is
    the same at (i, j), (j, i'), (i', j') and (j', i); the three-term
    value is the same at (i, j), (j, i), (i', j') and (j', i'), since
    phi(h g) = phi(g h) = -phi(g^-1 h^-1).  The first of either orbit in
    row-major order is a position (a, b) whose row is the smallest of
    a, b, a' and b'.  If a = a', then g_a = 1; if a = b', then
    g_b = g_a^-1; if a = b, then g_b = g_a; every value is 0 there.  So
    only the positions with i < j, i < i' and i < j' are evaluated (a row
    with i' <= i is skipped whole), and these include the first position
    of every orbit whose value is not 0.  Each skipped test equals an
    earlier one or is 0, and the running maximum starts at 0 and moves
    only on a strict `>`, so it never moves at a skipped position: the
    bound and its witness are unchanged.

    Within a row the commutator is evaluated once per mirrored pair of
    columns.  h^-1 [h, g] h = [g, h^-1] and [h, g] = [g, h]^-1, so
    phi([g, h^-1]) = -phi([g, h]): the value at (i, j') is the negation
    of the value at (i, j).  The three conditions at (i, j') are those
    at (i, j), as j'' = j, so the row evaluates both or neither, and
    j != j' since only g_0 = 1 is its own inverse.  The first of the two
    in the row is evaluated and the negation is kept for the other;
    the running maximum still compares at every position in row-major
    order, so the bound and its witness are unchanged.

    The scan runs on normal forms and numerator pairs over qm.den:
    [g, h] = (g h) g^-1 h^-1 reuses g h, a commutator's abelian part is
    0, and the values of the products g h, which recur across pairs,
    are kept only for this call."""
    if not qm.is_homogeneous:
        raise ValueError("defect_lower_bound expects a homogeneous quasimorphism")
    model = qm.model
    hnum, d = qm._hnum, qm.d
    abelian = model.abelian_rank > 0
    zero_ab = (0,) * model.abelian_rank
    ball = model.ball(radius)
    inv = _inverse_index(ball)
    entries = [
        (g, g.free, g.ab, ball[k].free, k, *hnum(g.free, g.ab)) for g, k in zip(ball, inv)
    ]
    products: dict[tuple, tuple[int, int]] = {}
    bp = bq = 0
    best_kind = "commutator"
    best_pair = (model.identity(), model.identity())
    for i, (g, g_free, g_ab, g_inv, ii, gp, gq) in enumerate(entries):
        if ii <= i:
            continue
        # column j' -> the commutator value there, read off column j
        mirrored: dict[int, tuple[int, int]] = {}
        for j, (h, h_free, h_ab, h_inv, jj, hp, hq) in enumerate(entries[i + 1 :], i + 1):
            if jj <= i:
                continue
            gh = _concat_reduce(g_free, h_free)
            got = mirrored.pop(j, None)
            if got is None:
                cp, cq = hnum(_concat_reduce(_concat_reduce(gh, g_inv), h_inv), zero_ab)
                mirrored[jj] = (-cp, -cq)
            else:
                cp, cq = got
            if _sign(cp - bp, cq - bq, d) > 0:
                bp, bq, best_kind, best_pair = cp, cq, "commutator", (g, h)
            key = (gh, tuple([x + y for x, y in zip(g_ab, h_ab)]) if abelian else g_ab)
            got = products.get(key)
            if got is None:
                got = products[key] = hnum(*key)
            tp, tq = gp + hp - got[0], gq + hq - got[1]
            if _sign(tp, tq, d) < 0:
                tp, tq = -tp, -tq
            if _sign(tp - bp, tq - bq, d) > 0:
                bp, bq, best_kind, best_pair = tp, tq, "three-term", (g, h)
    best = _make(bp, bq, qm.den, d)
    return DefectEstimate(
        best, _upper_bound(qm, upper, best), radius, best_kind, best_pair, best
    )


def defect_witness(
    qm: Quasimorphism,
    radius: int,
    upper: Optional[ExactReal],
    g: GroupElement,
    h: GroupElement,
) -> DefectEstimate:
    """The estimate `defect_lower_bound` reports when (g, h) is its
    witness pair: the pair is evaluated through the same hook and in the
    same way as the scan evaluates it, the commutator value first and
    the three-term value only where it is strictly larger.  Any pair of
    ball(radius) certifies its value as a lower bound, so this checks a
    recorded witness without the scan."""
    if not qm.is_homogeneous:
        raise ValueError("defect_witness expects a homogeneous quasimorphism")
    if g.length() > radius or h.length() > radius:
        raise ValueError("witness pair lies outside the scanned ball")
    hnum, d = qm._hnum, qm.d
    c, gh = commutator(g, h), g * h
    bp, bq = hnum(c.free, c.ab)
    kind = "commutator"
    (gp, gq), (hp, hq), (xp, xq) = hnum(g.free, g.ab), hnum(h.free, h.ab), hnum(gh.free, gh.ab)
    tp, tq = gp + hp - xp, gq + hq - xq
    if _sign(tp, tq, d) < 0:
        tp, tq = -tp, -tq
    if _sign(tp - bp, tq - bq, d) > 0:
        bp, bq, kind = tp, tq, "three-term"
    best = _make(bp, bq, qm.den, d)
    return DefectEstimate(best, _upper_bound(qm, upper, best), radius, kind, (g, h), best)


def scaled_bound(qm: Quasimorphism, bound: ExactReal) -> tuple[int, int, int, int]:
    """(P, Q, s, d) with which a value (p + q sqrt(d)) / qm.den of qm
    compares to `bound` on integers: bound - value has the sign of
    _sign(P - s p, Q - s q, d), the two quotients cross-multiplied.  A
    rational qm takes the bound's surd base; a bound in a base other
    than qm's is refused."""
    return bound._p * qm.den, bound._q * qm.den, bound._den, surd_base(qm, bound)


def surd_base(qm: Quasimorphism, *bounds: ExactReal) -> int:
    """The one surd base of qm and the bounds compared with it and with
    each other: qm's when it has surds, else that of the first bound
    with one, else qm's default.  A bound in another base is refused,
    naming the base so far first."""
    d = qm.d if qm.surds else 0
    for bound in bounds:
        if bound._q:
            if d and bound.d != d:
                raise ValueError(f"cannot mix sqrt({d}) and sqrt({bound.d})")
            d = bound.d
    return d or qm.d


def _below(qm: Quasimorphism, bound: ExactReal) -> Callable[[int, int], bool]:
    """The test whether a value of qm, given by its numerators (p, q)
    over qm.den, lies strictly below `bound`."""
    bp, bq, s, d = scaled_bound(qm, bound)
    return lambda p, q: _sign(bp - s * p, bq - s * q, d) > 0


def _above(qm: Quasimorphism, bound: ExactReal) -> Callable[[int, int], bool]:
    """The test whether a value of qm, given by its numerators (p, q)
    over qm.den, lies strictly above `bound`."""
    bp, bq, s, d = scaled_bound(qm, bound)
    return lambda p, q: _sign(bp - s * p, bq - s * q, d) < 0


def _upper_bound(
    qm: Quasimorphism, upper: Optional[ExactReal], lower: ExactReal
) -> Optional[ExactReal]:
    """The claimed upper bound, else the structural one, checked against
    the certified lower bound."""
    if upper is None:
        upper = qm.defect_upper()
    if upper is not None and upper < lower:
        raise ValueError(
            f"claimed upper bound {upper} is below the certified lower bound {lower}"
        )
    return upper


# search order for the correcting exponent m: small magnitudes first
_M_ORDER = (0, 1, -1, 2, -2, 3, -3, 4, -4, 5, -5)


class AkerCertificate(NamedTuple):
    """Checked approximate closure of Aker(phi, D*) inside a ball.

    For members g, h (pairs in canonical product order) the certificate
    stores an exponent m with |phi-bar(g h c^m)| <= 2 D*; X is the
    witness set {c^5, ..., c^-5} (just {1} when D* = 0 and the subset is
    an honest kernel)."""

    witness: tuple[GroupElement, ...]
    dstar: ExactReal
    radius: int
    scaling: Optional[GroupElement]
    members: tuple[GroupElement, ...]
    exponents: tuple[int, ...]
    passed: bool
    counterexample: Optional[tuple[GroupElement, GroupElement]]


def check_non_negative(name: str, level: ExactReal) -> None:
    """Refuse a negative level: D* for Aker(phi, D*) and the obstruction
    bounds, a defect bound D, or a solve's slack."""
    if level < ZERO:
        raise ValueError(f"{name} must be non-negative")


def check_scaling_window(qm: Quasimorphism, scaling: GroupElement, dstar: ExactReal) -> None:
    value = qm.homogeneous_value(scaling)
    if not (dstar * 4 / ExactReal(5) < value and value <= dstar):
        raise ValueError(f"scaling element value {value} must lie in (4 D*/5, D*]")


def check_positive_direction(qm: Quasimorphism, scaling: GroupElement) -> None:
    if not qm.homogeneous_value(scaling) > ZERO:
        raise ValueError("the scaling element must have positive phi-bar")


def certify_aker_approximate_subgroup(
    qm: Quasimorphism,
    dstar: ExactReal,
    scaling: Optional[GroupElement],
    radius: int,
) -> AkerCertificate:
    """Members are the ball elements with |phi-bar(g)| <= 2 D*.  Row by
    row over the members g, and along each row over the members h, the
    first exponent m of the search order with |phi-bar(g h c^m)| <= 2 D*
    is recorded; a pair with none is the counterexample and ends the
    scan.

    The m = 0 test is made at most once per orbit, at the orbit's first
    position in row-major order.  Every variant's `homogeneous_value` is
    a class function with phi-bar(x^-1) = -phi-bar(x) (Calegari, *scl*,
    MSJ Memoirs 20 (2009), 2.2), so |phi-bar(g h)| = |phi-bar(h g)| =
    |phi-bar(g^-1 h^-1)| = |phi-bar(h^-1 g^-1)|, and the members are
    closed under inversion.  Writing i' for the index of g_i^-1, the
    test at (i, j) therefore has the outcome of the test at (j, i),
    (i', j') and (j', i'); whichever of these the scan has already
    passed recorded exponent 0 exactly when that test passed.  A row
    with i' < i reads every position off row i'; a row with i' > i reads
    (j, i) for j < i and (j', i') for j' < i.  A 0 read is the exponent;
    any other exponent read means m = 0 failed, and the search starts
    at the next m.  The row of g = 1, the one member with i' = i, is all
    0, since 1 h = h is a member.  Positions are settled in row order,
    so the certificate, its counterexample included, is the one the
    full row-major loop records, and the product g h is formed only
    where the twins leave a test to make.

    Values are numerator pairs over qm.den, tested against 2 D* scaled
    to the same den, and the products g h c^m are evaluated on normal
    forms without caching."""
    check_non_negative("dstar", dstar)
    model = qm.model
    top_p, top_q, scale, d = scaled_bound(qm, dstar + dstar)
    hnum = qm._hnum

    def within(p: int, q: int) -> bool:
        if _sign(p, q, d) < 0:
            p, q = -p, -q
        return _sign(top_p - scale * p, top_q - scale * q, d) >= 0

    members = tuple(g for g in model.ball(radius) if within(*hnum(g.free, g.ab)))

    if dstar == ZERO:
        witness = (model.identity(),)
        order: tuple[int, ...] = (0,)
        powers = {0: model.identity()}
    else:
        if scaling is None:
            raise ValueError("D* > 0 certification needs a scaling element c")
        witness = tuple(scaling ** m for m in range(5, -6, -1))
        order = _M_ORDER
        powers = {m: scaling ** m for m in order}
    abelian = model.abelian_rank > 0
    forms = {m: (c.free, c.ab) for m, c in powers.items()}

    n = len(members)
    inv = _inverse_index(members)
    exponents: list[int] = []
    counterexample = None
    for i, g in enumerate(members):
        ii = inv[i]
        # the exponent at an earlier twin of each position, None where
        # the position is the first of its orbit
        if ii < i:
            twin = exponents[ii * n : ii * n + n]
            row: list = [twin[jj] for jj in inv]
        elif ii > i:
            column = exponents[ii::n]
            row = exponents[i::n] + [column[jj] if jj < i else None for jj in inv[i:]]
        else:
            # g = 1, and g h = h is a member
            row = [0] * n
        g_free, g_ab = g.free, g.ab
        for j, known in enumerate(row):
            if known == 0:
                continue
            h = members[j]
            gh = _concat_reduce(g_free, h.free)
            gh_ab = tuple([x + y for x, y in zip(g_ab, h.ab)]) if abelian else g_ab
            chosen = None
            for m in order if known is None else order[1:]:
                if m:
                    c_free, c_ab = forms[m]
                    num = hnum(
                        _concat_reduce(gh, c_free),
                        tuple([x + y for x, y in zip(gh_ab, c_ab)]) if abelian else gh_ab,
                    )
                else:
                    # c^0 is the identity, so m = 0 tests g h itself
                    num = hnum(gh, gh_ab)
                if within(*num):
                    chosen = m
                    break
            if chosen is None:
                counterexample = (g, h)
                del row[j:]
                break
            row[j] = chosen
        exponents += row
        if counterexample:
            break

    return AkerCertificate(
        witness=witness,
        dstar=dstar,
        radius=radius,
        scaling=scaling,
        members=members,
        exponents=tuple(exponents),
        passed=counterexample is None,
        counterexample=counterexample,
    )
