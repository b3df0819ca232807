"""Edge paths in the Cayley graph and their algebra.

A path is an origin g_0 and edge letters x_1, ..., x_k, the generator
letters with g_i = g_{i-1} x_i.  `path_from_letters(origin, letters)`
is the one public way to build one: it walks the vertices
(g_0, ..., g_k) on normal forms and records them with the letters, so
`vertices` and `edge_letters()` read them back without recomputing.
The builders here and in `search` that know a path's vertices and
letters already, from a walk of their own, build it with `_path`.

Concatenation translates the second path so that it continues from the
end of the first:

    p q = (g_0, ..., g_k, g_k h_0^-1 h_1, ..., g_k h_0^-1 h_n)

Left translation is an automorphism of the Cayley graph, so the
translated vertices are the walk from g_k along the second path's
letters, and the letters of p q are those of p followed by those of q.

`phi_extrema` reports the exact min and max of the homogeneous value
over every vertex, the endpoints included.  It compares numerator pairs
over qm.den and builds only the two values it returns.
"""

from __future__ import annotations

from typing import Iterable

from .exact import ExactReal, _make, _sign
from .groups import Generator, GroupElement, _element, _step_form
from .quasimorphisms import Quasimorphism

_new = object.__new__
_set = object.__setattr__


class Path:
    """An immutable vertex sequence with its edge letters, equal to
    another when the vertices are.  Not a tuple: `len` counts edges.
    Built by `path_from_letters`; calling the class is refused."""

    __slots__ = ("vertices", "_letters")

    def __new__(cls, *args, **kwargs):
        raise TypeError("a Path is built by path_from_letters")

    def __setattr__(self, name, value):
        raise AttributeError("Path is immutable")

    def __delattr__(self, name):
        raise AttributeError("Path is immutable")

    def __eq__(self, other):
        if type(other) is not Path:
            return NotImplemented
        return self.vertices == other.vertices

    def __hash__(self):
        return hash(self.vertices)

    def __reduce__(self):
        return (path_from_letters, (self.origin, self._letters))

    def __repr__(self) -> str:
        return f"Path({self.vertices!r})"

    @property
    def origin(self) -> GroupElement:
        return self.vertices[0]

    @property
    def terminus(self) -> GroupElement:
        return self.vertices[-1]

    def __len__(self) -> int:
        """Number of edges."""
        return len(self.vertices) - 1

    def edge_letters(self) -> tuple[Generator, ...]:
        return self._letters

    def concat(self, other: "Path") -> "Path":
        walked = _walk(self.terminus, other._letters)
        return _path(self.vertices + walked[1:], self._letters + other._letters)


def _path(vertices: tuple[GroupElement, ...], letters: tuple[Generator, ...]) -> Path:
    """The path with these vertices, whose edge letters the caller
    knows to be `letters`; nothing is checked."""
    path = _new(Path)
    _set(path, "vertices", vertices)
    _set(path, "_letters", letters)
    return path


def _walk(origin: GroupElement, letters: tuple[Generator, ...]) -> tuple[GroupElement, ...]:
    """origin, origin x_1, origin x_1 x_2, ..., stepped on normal forms;
    each letter's index must be in range."""
    model = origin.model
    free_rank = model.free_rank
    free, ab = origin.free, origin.ab
    out = [origin]
    for letter in letters:
        free, ab = _step_form(free_rank, free, ab, letter)
        out.append(_element(model, free, ab))
    return tuple(out)


def path_from_letters(origin: GroupElement, letters: Iterable[Generator]) -> Path:
    """The path from origin along the letters; each letter's index must
    be in range for the origin's model."""
    letters = tuple(letters)
    rank = origin.model.rank
    for index, _ in letters:
        if not 0 <= index < rank:
            raise ValueError(f"generator index {index} out of range for rank {rank}")
    return _path(_walk(origin, letters), letters)


def straight_path(origin: GroupElement, target: GroupElement) -> Path:
    """The path spelling the normal form of origin^-1 * target, letter
    by letter.  In a free group this is the unique geodesic."""
    return path_from_letters(origin, (origin.inverse() * target).letters())


def phi_extrema(qm: Quasimorphism, path: Path) -> tuple[ExactReal, ExactReal]:
    """The least and the greatest homogeneous value along the path, as
    `min` and `max` of the values give them: two values over one den
    are equal exactly when their numerators are."""
    hnum, d = qm._hnum, qm.d
    nums = [hnum(v.free, v.ab) for v in path.vertices]
    lo = hi = nums[0]
    for p, q in nums:
        if _sign(p - lo[0], q - lo[1], d) < 0:
            lo = (p, q)
        elif _sign(p - hi[0], q - hi[1], d) > 0:
            hi = (p, q)
    return _make(*lo, qm.den, d), _make(*hi, qm.den, d)
