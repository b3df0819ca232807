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

Defects are never guessed.  `defect_lower_bound` scans a ball for
certified lower bounds; every operation that needs an upper defect
bound takes it as an explicit argument (written D* throughout).
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from .errors import ModelMismatchError
from .exact import ExactReal, ZERO
from .groups import Generator, GroupElement, GroupModel, commutator


class Quasimorphism:
    """Base class; concrete variants implement `_value` and
    `_homogeneous_value`, both exact."""

    def __init__(self, model: GroupModel):
        self.model = model
        self._vcache: dict[tuple, ExactReal] = {}
        self._hcache: dict[tuple, ExactReal] = {}

    # subclass hooks ------------------------------------------------

    def _value(self, g: GroupElement) -> ExactReal:
        raise NotImplementedError

    def _homogeneous_value(self, g: GroupElement) -> ExactReal:
        raise NotImplementedError

    @property
    def is_homogeneous(self) -> bool:
        raise NotImplementedError

    def defect_upper(self) -> Optional[ExactReal]:
        """A certified upper bound on the defect, or None if unknown."""
        raise NotImplementedError

    # shared API ----------------------------------------------------

    def _check(self, g: GroupElement) -> None:
        if g.model is not self.model and g.model != self.model:
            raise ModelMismatchError("element and quasimorphism use different models")

    def value(self, g: GroupElement) -> ExactReal:
        if g.model is not self.model:
            self._check(g)
        key = (g.free, g.ab)
        got = self._vcache.get(key)
        if got is None:
            got = self._vcache[key] = self._value(g)
        return got

    def homogeneous_value(self, g: GroupElement) -> ExactReal:
        if g.model is not self.model:
            self._check(g)
        key = (g.free, g.ab)
        got = self._hcache.get(key)
        if got is None:
            got = self._hcache[key] = self._homogeneous_value(g)
        return got


class HomomorphismQM(Quasimorphism):
    def __init__(self, model: GroupModel, values: Sequence[ExactReal]):
        super().__init__(model)
        if len(values) != model.rank:
            raise ValueError(
                f"expected {model.rank} generator values, got {len(values)}"
            )
        self.values = tuple(values)

    def _value(self, g: GroupElement) -> ExactReal:
        # exponent sum of each generator, then one exact term per generator
        counts = [0] * self.model.free_rank
        for x in g.free:
            if x > 0:
                counts[x - 1] += 1
            else:
                counts[-x - 1] -= 1
        counts.extend(g.ab)
        total = ZERO
        for v, n in zip(self.values, counts):
            if n:
                total = total + v * n
        return total

    _homogeneous_value = _value

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


def count_occurrences(seq: tuple[int, ...], w: tuple[int, ...], starts: range) -> int:
    """The number of positions p in `starts` at which w occurs in seq.
    Indices past the end of seq wrap around to its start, so with
    starts = range(len(seq)) this counts the occurrences in the cyclic
    word seq over one period; a plain word passes the starts at which w
    fits, and nothing wraps."""
    n, k, first = len(seq), len(w), w[0]
    count = 0
    for p in starts:
        if seq[p] == first:
            i = 1
            while i < k and seq[(p + i) % n] == w[i]:
                i += 1
            if i == k:
                count += 1
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

    def _value(self, g: GroupElement) -> ExactReal:
        seq = g.free
        starts = range(len(seq) - len(self.word) + 1)
        n = count_occurrences(seq, self.word, starts) - count_occurrences(
            seq, self.word_inverse, starts
        )
        return ExactReal(n)

    def _homogeneous_value(self, g: GroupElement) -> ExactReal:
        cyc = cyclic_reduce(g.free)
        if not cyc:
            return ZERO
        starts = range(len(cyc))
        n = count_occurrences(cyc, self.word, starts) - count_occurrences(
            cyc, self.word_inverse, starts
        )
        return ExactReal(n)

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
        model = parts[0].model
        for p in parts[1:]:
            if p.model != model:
                raise ModelMismatchError("combination parts use different models")
        super().__init__(model)
        self.coefficients = tuple(coefficients)
        self.parts = tuple(parts)

    def _value(self, g: GroupElement) -> ExactReal:
        total = ZERO
        for c, p in zip(self.coefficients, self.parts):
            total = total + c * p.value(g)
        return total

    def _homogeneous_value(self, g: GroupElement) -> ExactReal:
        total = ZERO
        for c, p in zip(self.coefficients, self.parts):
            total = total + c * p.homogeneous_value(g)
        return total

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

    Both `value` and `homogeneous_value` are the base's
    `homogeneous_value`, served from the base's cache; this wrapper
    keeps no cache of its own.

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
        super().__init__(base.model)
        self.base = base

    def value(self, g: GroupElement) -> ExactReal:
        # read the base's cache rather than keep a copy of it
        return self.base.homogeneous_value(g)

    homogeneous_value = value

    def _homogeneous_value(self, g: GroupElement) -> ExactReal:
        return self.base._homogeneous_value(g)

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


def defect_lower_bound(
    qm: Quasimorphism,
    radius: int,
    upper: Optional[ExactReal] = None,
) -> DefectEstimate:
    """Scan ball(radius)^2 for the largest commutator value
    phi([g, h]) and the largest three-term expression
    |phi(g) + phi(h) - phi(g h)|; both are certified lower bounds on
    the defect of a homogeneous quasimorphism.

    Only the pairs (g_i, g_j) with i <= j of the canonical ball order
    are visited, which gives the same bound and witness as the whole
    square.  A homogeneous quasimorphism is a class function with
    phi(x^-1) = -phi(x) (Calegari, *scl*, MSJ Memoirs 20 (2009), 2.2),
    and the ball is closed under inversion.  So for s < r the three-term
    value at (r, s) equals the one at (s, r), since phi(g h) = phi(h g);
    and the commutator value at (r, s) equals the one at
    (s, index of g_r^-1), since g_r^-1 [g_r, g_s] g_r = [g_s, g_r^-1].
    Both positions lie in row s, which the row-major scan visits
    first, so a strict `>` update never happens below the diagonal."""
    if not qm.is_homogeneous:
        raise ValueError("defect_lower_bound expects a homogeneous quasimorphism")
    ball = qm.model.ball(radius)
    value = qm.value
    # the uncached hook, equal to `value` for homogeneous phi: no later
    # probe reads a commutator, so caching one per pair only holds memory
    uncached = qm._homogeneous_value
    # [g, h] = (g h) g^-1 h^-1 reuses g h: 3 products per pair
    entries = [(g, g.inverse(), value(g)) for g in ball]
    best = ZERO
    best_kind = "commutator"
    best_pair = (qm.model.identity(), qm.model.identity())
    for i, (g, g_inv, vg) in enumerate(entries):
        for h, h_inv, vh in entries[i:]:
            gh = g * h
            cval = uncached(gh * g_inv * h_inv)
            if cval > best:
                best, best_kind, best_pair = cval, "commutator", (g, h)
            tval = abs(vg + vh - value(gh))
            if tval > best:
                best, best_kind, best_pair = tval, "three-term", (g, h)
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
    witness pair: the pair is evaluated as the scan evaluates it, the
    commutator value first and the three-term value only where it is
    strictly larger.  Any pair of ball(radius) certifies its value as a
    lower bound, so this checks a recorded witness without the scan."""
    if g.length() > radius or h.length() > radius:
        raise ValueError("witness pair lies outside the scanned ball")
    value = qm.value
    best, kind = value(commutator(g, h)), "commutator"
    tval = abs(value(g) + value(h) - value(g * h))
    if tval > best:
        best, kind = tval, "three-term"
    return DefectEstimate(best, _upper_bound(qm, upper, best), radius, kind, (g, h), best)


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

    The m = 0 test of a pair below the diagonal is read off the mirrored
    pair: every variant's `homogeneous_value` is a class function
    (Calegari, *scl*, MSJ Memoirs 20 (2009), 2.2), so
    |phi-bar(g_i g_j)| = |phi-bar(g_j g_i)|, and for j < i row j has
    tested g_j g_i at m = 0 already, with exponent 0 exactly when that
    test passed.  The product g_i g_j is formed only when j >= i or some
    m != 0 is needed, and the certificate is the one the full row-major
    loop records."""
    if dstar < ZERO:
        raise ValueError("D* must be non-negative")
    model = qm.model
    bound = dstar + dstar
    members = tuple(g for g in model.ball(radius) if abs(qm.homogeneous_value(g)) <= bound)

    if dstar == ZERO:
        witness = (model.identity(),)
        order: tuple[int, ...] = (0,)
        powers = {0: model.identity()}
    else:
        if scaling is None:
            raise ValueError("D* > 0 certification needs a scaling element c")
        if scaling.model != model:
            raise ModelMismatchError("scaling element from a different model")
        witness = tuple(scaling ** m for m in range(5, -6, -1))
        order = _M_ORDER
        powers = {m: scaling ** m for m in order}

    value = qm.homogeneous_value
    n = len(members)
    exponents: list[int] = []
    counterexample = None
    for i, g in enumerate(members):
        if counterexample:
            break
        for j, h in enumerate(members):
            tries = order
            if j < i:
                # row j tested h g at m = 0, and |phi-bar(g h)| = |phi-bar(h g)|
                if exponents[j * n + i] == 0:
                    exponents.append(0)
                    continue
                tries = order[1:]
            gh = g * h
            chosen = None
            for m in tries:
                # c^0 is the identity, so m = 0 tests g h itself
                if abs(value(gh * powers[m] if m else gh)) <= bound:
                    chosen = m
                    break
            if chosen is None:
                counterexample = (g, h)
                break
            exponents.append(chosen)

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
