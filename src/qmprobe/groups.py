"""Group models with exact word arithmetic.

Two families are supported: free groups F_n and direct products
F_n x Z^k.  Elements are kept in normal form as a reduced free word
together with an integer vector for the abelian block; the word metric
of the standard generating set is then just (free length) + (l1 norm of
the abelian vector), and balls can be enumerated by breadth-first
search.

The canonical order used everywhere (ball listings, tie-breaking in
searches, certificate output) is: generators sorted by index with the
plain letter before its inverse, elements sorted by word length and
then lexicographically on their canonical spelling.

`GroupElement` is a `__slots__` class holding `model`, `free` (the
reduced word as signed 1-based letters) and `ab` (the abelian vector).
Every result of group arithmetic comes from one internal constructor,
`_element`, which fills the slots on a guard-free `_ElementFields`
instance and then retypes it; the public `GroupElement(model, free, ab)`
goes through the same constructor, and `__setattr__` refuses every
write.  Two elements are equal when their free words, abelian vectors
and models are; the hash is `hash((free, ab))`, which equal elements
share, so the model is never hashed.  A run builds one model and
every element from it, so products and distances do not compare
models, and they skip the abelian arithmetic in a free group
(ab == ()).

Walks in the Cayley graph step a normal form by one letter with
`_step_form`: paths, searches and the ball listing all go from a
vertex and a letter to the next vertex, and none recovers a letter
from two vertices.
"""

from __future__ import annotations

import re
from math import comb
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import CapExceededError

DEFAULT_BALL_CAP = 10
# largest ball_cap a config may set; it bounds every radius-like key,
# a rips-profile's n_max among them
MAX_BALL_CAP = 100_000
# longest word parse_word spells; each token is counted before it is expanded
MAX_WORD_LETTERS = 5_000
_ALPHABET = "abcdefghijklmnopqrstuvwxyz"


class Generator(NamedTuple):
    """A generator letter: an index into the model's generating set plus
    an inverse flag."""

    index: int
    inverse: bool = False

    def inverted(self) -> "Generator":
        return Generator(self.index, not self.inverse)


class _ModelFields(NamedTuple):
    """The storage of a GroupModel, without its checks."""

    free_rank: int
    abelian_rank: int
    generator_names: tuple[str, ...]
    ball_cap: int


class GroupModel(_ModelFields):
    """F_n (abelian_rank == 0) or F_n x Z^k, with named generators.

    Free generators come first, abelian generators after them; the
    global generator index runs over both blocks.  `ball_cap` bounds the
    radius of any ball this model will enumerate.  Models are equal and
    hash alike when their fields are.
    """

    __slots__ = ()

    def __new__(
        cls,
        free_rank: int,
        abelian_rank: int = 0,
        generator_names: tuple[str, ...] = (),
        ball_cap: int = DEFAULT_BALL_CAP,
    ):
        rank = free_rank + abelian_rank
        if free_rank < 0 or abelian_rank < 0:
            raise ValueError("ranks must be non-negative")
        if rank == 0:
            raise ValueError("need at least one generator")
        if not generator_names:
            if rank > len(_ALPHABET):
                raise ValueError("too many generators for default names")
            generator_names = tuple(_ALPHABET[:rank])
        if len(generator_names) != rank:
            raise ValueError(
                f"expected {rank} generator names, got {len(generator_names)}"
            )
        if len(set(generator_names)) != rank:
            raise ValueError("generator names must be distinct")
        for name in generator_names:
            if not re.fullmatch(r"[A-Za-z][A-Za-z0-9_]*", name):
                raise ValueError(f"bad generator name {name!r}")
        if ball_cap < 0:
            raise ValueError("ball_cap must be non-negative")
        return _ModelFields.__new__(cls, free_rank, abelian_rank, generator_names, ball_cap)

    @property
    def rank(self) -> int:
        return self.free_rank + self.abelian_rank

    def is_free_index(self, index: int) -> bool:
        return index < self.free_rank

    def generators(self) -> tuple[Generator, ...]:
        """All 2*rank generator letters in canonical order."""
        out = []
        for i in range(self.rank):
            out.append(Generator(i, False))
            out.append(Generator(i, True))
        return tuple(out)

    def positive_generators(self) -> tuple[Generator, ...]:
        return tuple(Generator(i, False) for i in range(self.rank))

    def identity(self) -> "GroupElement":
        return _element(self, (), (0,) * self.abelian_rank)

    def generator_element(self, gen: Generator) -> "GroupElement":
        return reduce_word(self, (gen,))

    def generator_name(self, gen: Generator) -> str:
        base = self.generator_names[gen.index]
        return base + "^-1" if gen.inverse else base

    # -- word parsing / formatting -----------------------------------

    def parse_word(self, text: str) -> tuple[Generator, ...]:
        """Parse whitespace-separated letter tokens `name`, `name^k`,
        `name^-k` into a generator sequence (exponents are expanded).
        The token `1` spells the empty word.  A word of more than
        MAX_WORD_LETTERS letters is refused before it is expanded."""
        name_to_index = {n: i for i, n in enumerate(self.generator_names)}
        out: list[Generator] = []
        for token in text.split():
            if token == "1":
                continue
            m = re.fullmatch(r"([A-Za-z][A-Za-z0-9_]*)(?:\^(-?\d+))?", token)
            if not m:
                raise ValueError(f"bad word token {token!r}")
            name, exp = m.group(1), int(m.group(2) or 1)
            if name not in name_to_index:
                raise ValueError(f"unknown generator {name!r}")
            if len(out) + abs(exp) > MAX_WORD_LETTERS:
                raise ValueError(f"word is longer than {MAX_WORD_LETTERS} letters")
            out.extend([Generator(name_to_index[name], exp < 0)] * abs(exp))
        return tuple(out)

    def parse_element(self, text: str) -> "GroupElement":
        return reduce_word(self, self.parse_word(text))

    def ball(self, radius: int) -> tuple["GroupElement", ...]:
        """All elements of word length <= radius, canonically sorted."""
        return tuple([_element(self, free, ab) for free, ab, _, _ in _ball(self, radius)])


class _ElementFields:
    """The storage of a GroupElement, without its immutability guard."""

    __slots__ = ("model", "free", "ab")


_new = object.__new__


def _element(model: GroupModel, free: tuple[int, ...], ab: tuple[int, ...]) -> "GroupElement":
    """The element with normal form (free, ab).  The slots are filled on
    a plain `_ElementFields` instance, which is then retyped:
    GroupElement's own __setattr__ refuses every write."""
    x = _new(_ElementFields)
    x.model = model
    x.free = free
    x.ab = ab
    x.__class__ = GroupElement
    return x


class GroupElement(_ElementFields):
    """Normal form: reduced free word (signed letters, 1-based index)
    plus an integer vector for the abelian block."""

    __slots__ = ()

    def __new__(cls, model: GroupModel, free: tuple[int, ...], ab: tuple[int, ...]):
        return _element(model, free, ab)

    def __setattr__(self, name, value):
        raise AttributeError("GroupElement is immutable")

    def __delattr__(self, name):
        raise AttributeError("GroupElement is immutable")

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not GroupElement:
            return NotImplemented
        return (
            self.free == other.free
            and self.ab == other.ab
            and (self.model is other.model or self.model == other.model)
        )

    def __hash__(self):
        return hash((self.free, self.ab))

    def __reduce__(self):
        # copy and pickle rebuild through the public constructor, since
        # the default slot-by-slot restore would trip the write guard
        return (GroupElement, (self.model, self.free, self.ab))

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        ab = self.ab
        if ab:
            ab = tuple([x + y for x, y in zip(ab, other.ab)])
        return _element(self.model, _concat_reduce(self.free, other.free), ab)

    def inverse(self) -> "GroupElement":
        ab = self.ab
        if ab:
            ab = tuple([-x for x in ab])
        return _element(self.model, tuple([-x for x in reversed(self.free)]), ab)

    def __pow__(self, m: int) -> "GroupElement":
        """g^m, spelled out and reduced in one pass, in time linear in
        |m| |g|."""
        base = self if m >= 0 else self.inverse()
        return reduce_word(self.model, base.letters() * abs(m))

    def length(self) -> int:
        """Word length of the normal form; equals d(1, g)."""
        return len(self.free) + sum(abs(x) for x in self.ab)

    def distance(self, other: "GroupElement") -> int:
        """|g^-1 h|: the free words cancel down to their common prefix,
        so it is |u| + |v| - 2 (common prefix) + sum |delta ab|."""
        u, v = self.free, other.free
        common = 0
        for x, y in zip(u, v):
            if x != y:
                break
            common += 1
        d = len(u) + len(v) - 2 * common
        if self.ab:
            d += sum([abs(x - y) for x, y in zip(self.ab, other.ab)])
        return d

    def letters(self) -> tuple[Generator, ...]:
        """Canonical spelling: free letters in word order, then each
        abelian generator's run."""
        out = [
            Generator(abs(x) - 1, x < 0)
            for x in self.free
        ]
        for j, v in enumerate(self.ab):
            gen = Generator(self.model.free_rank + j, v < 0)
            out.extend([gen] * abs(v))
        return tuple(out)

    def sort_key(self) -> tuple:
        """(length, ((index, 0 for a plain letter | 1 for an inverse), ...))
        over the canonical spelling, built from the normal form."""
        key = [(x - 1, 0) if x > 0 else (-x - 1, 1) for x in self.free]
        if self.ab:
            r = self.model.free_rank
            for j, v in enumerate(self.ab):
                if v:
                    key.extend([(r + j, 0) if v > 0 else (r + j, 1)] * abs(v))
        return (len(key), tuple(key))

    def word_str(self) -> str:
        """Inverse of GroupModel.parse_element for normal forms, with
        adjacent equal letters compressed into exponents: one term per
        run of equal free letters, then one per nonzero abelian
        coordinate."""
        names = self.model.generator_names
        word = _free_word(names, self.free)
        if self.ab:
            word = _join_words(word, _abelian_word(names, self.model.free_rank, self.ab))
        return word

    def __repr__(self) -> str:
        return f"<{self.word_str() or '1'}>"


def _free_word(names: tuple[str, ...], free: tuple[int, ...]) -> str:
    """The free part of `word_str`: one term per run of equal letters."""
    parts = []
    n, i = len(free), 0
    while i < n:
        x, j = free[i], i + 1
        while j < n and free[j] == x:
            j += 1
        name, exp = names[abs(x) - 1], (j - i if x > 0 else i - j)
        parts.append(name if exp == 1 else f"{name}^{exp}")
        i = j
    return " ".join(parts)


def _abelian_word(names: tuple[str, ...], free_rank: int, ab: tuple[int, ...]) -> str:
    """The abelian part of `word_str`: one term per nonzero coordinate."""
    parts = []
    for j, v in enumerate(ab):
        if v:
            name = names[free_rank + j]
            parts.append(name if v == 1 else f"{name}^{v}")
    return " ".join(parts)


def _join_words(free: str, abelian: str) -> str:
    return f"{free} {abelian}" if free and abelian else free or abelian


def _concat_reduce(u: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
    if not u or not v or u[-1] != -v[0]:
        return u + v
    i, j = len(u), 0
    while i > 0 and j < len(v) and u[i - 1] == -v[j]:
        i -= 1
        j += 1
    return u[:i] + v[j:]


def reduce_word(model: GroupModel, word: Iterable[Generator]) -> GroupElement:
    """Multiply out a letter sequence, cancelling as it goes."""
    free_rank, rank = model.free_rank, model.rank
    free: list[int] = []
    ab = [0] * model.abelian_rank
    for index, inverse in word:
        if not 0 <= index < rank:
            raise ValueError(f"generator index {index} out of range for rank {rank}")
        if index < free_rank:
            letter = -index - 1 if inverse else index + 1
            if free and free[-1] == -letter:
                free.pop()
            else:
                free.append(letter)
        else:
            ab[index - free_rank] += -1 if inverse else 1
    return _element(model, tuple(free), tuple(ab))


def commutator(g: GroupElement, h: GroupElement) -> GroupElement:
    return g * h * g.inverse() * h.inverse()


def _scaling_letter(scaling: GroupElement) -> Generator:
    if scaling.length() != 1:
        raise ValueError("the scaling element must be a single generator letter")
    return scaling.letters()[0]


def _step_form(
    free_rank: int, free: tuple[int, ...], ab: tuple[int, ...], letter: Generator
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The normal form of (free, ab) times one generator letter, whose
    index must be in range."""
    index, inverse = letter
    if index < free_rank:
        x = -index - 1 if inverse else index + 1
        if free and free[-1] == -x:
            return free[:-1], ab
        return free + (x,), ab
    vec = list(ab)
    vec[index - free_rank] += -1 if inverse else 1
    return free, tuple(vec)


def ball_size(model: GroupModel, radius: int) -> int:
    """len(model.ball(radius)) in closed form, without enumerating: the
    sum over free lengths k <= radius of the free sphere of radius k,
    2n (2n - 1)^(k - 1) words for k >= 1, times the Z^m ball of radius
    radius - k, which holds sum_j 2^j C(m, j) C(radius - k, j) vectors."""
    n, m = model.free_rank, model.abelian_rank
    total, sphere = 0, 1
    for k in range(radius + 1):
        rest = radius - k
        total += sphere * sum(
            2**j * comb(m, j) * comb(rest, j) for j in range(min(m, rest) + 1)
        )
        sphere = 2 * n * (2 * n - 1) ** k
    return total


def _ball(
    model: GroupModel, radius: int, step_nums: Optional[Sequence[tuple[int, int]]] = None
) -> list[tuple[tuple[int, ...], tuple[int, ...], int, int]]:
    """The normal forms of the ball in canonical order, each as
    (free, ab, p, q), built sphere by sphere.  A canonical spelling
    minus its last letter is still canonical, so listing each sphere's
    forms in order, each followed by its children in letter order, lists
    the next sphere in order too: this is shortlex order (Epstein et al.,
    *Word Processing in Groups* (1992), ch. 2), the order of `sort_key`.
    The children of a form with ab = 0 add a free letter that does not
    cancel the last one, or any abelian letter; the children of any
    other form add an abelian letter with the last run's index and sign,
    or with a higher index.

    `step_nums` are the numerators (p, q) of an additive potential, a
    homomorphism, at each positive generator in index order; a letter's
    inverse has their negation.  A child's numerators are its parent's
    plus those of the letter it adds, so (p, q) of each form are the
    potential's at it with no form evaluated.  Without `step_nums` they
    are 0.  A radius above the model's ball_cap is refused."""
    if radius < 0:
        raise ValueError("radius must be non-negative")
    if radius > model.ball_cap:
        raise CapExceededError("ball radius", radius, model.ball_cap)
    r, m = model.free_rank, model.abelian_rank
    nums = step_nums or [(0, 0)] * model.rank
    # each free letter with its numerators, in letter order
    letters = []
    for x, (p, q) in enumerate(nums[:r], 1):
        letters += [(x, p, q), (-x, -p, -q)]
    ab_nums = nums[r:]
    sphere = [((), (0,) * m, 0, 0)]
    forms = list(sphere)
    for _ in range(radius):
        nxt = []
        for free, ab, p, q in sphere:
            last = m - 1
            while last >= 0 and not ab[last]:
                last -= 1
            if last < 0:
                back = -free[-1] if free else 0
                nxt += [(free + (x,), ab, p + xp, q + xq) for x, xp, xq in letters if x != back]
            else:
                s = 1 if ab[last] > 0 else -1
                vec = list(ab)
                vec[last] += s
                xp, xq = ab_nums[last]
                nxt.append((free, tuple(vec), p + s * xp, q + s * xq))
            for j in range(last + 1, m):
                xp, xq = ab_nums[j]
                for s in (1, -1):
                    vec = list(ab)
                    vec[j] = s
                    nxt.append((free, tuple(vec), p + s * xp, q + s * xq))
        forms += nxt
        sphere = nxt
    return forms
