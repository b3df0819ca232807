"""Edge paths in the Cayley graph and their algebra.

A path is a vertex sequence (g_0, ..., g_k) with each g_i^-1 g_{i+1} a
generator letter.  Concatenation translates the second path so that it
continues from the end of the first:

    p q = (g_0, ..., g_k, g_k h_0^-1 h_1, ..., g_k h_0^-1 h_n)

`phi_extrema` reports the exact min and max of the homogeneous value
over every vertex, the endpoints included.
"""

from __future__ import annotations

from typing import Iterable

from .errors import ModelMismatchError
from .exact import ExactReal
from .groups import Generator, GroupElement, edge_letter
from .quasimorphisms import Quasimorphism


class Path:
    """An immutable vertex sequence, equal to another when the vertices
    are.  Not a tuple: `len` counts edges."""

    __slots__ = ("vertices",)

    def __init__(self, vertices: tuple[GroupElement, ...]):
        if not vertices:
            raise ValueError("a path needs at least one vertex")
        model = vertices[0].model
        for v, w in zip(vertices, vertices[1:]):
            if v.model != model:
                raise ModelMismatchError("path vertices use different models")
            if v.distance(w) != 1:
                raise ValueError(
                    f"consecutive path vertices {v!r}, {w!r} are not adjacent"
                )
        object.__setattr__(self, "vertices", vertices)

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
        return (Path, (self.vertices,))

    def __repr__(self) -> str:
        return f"Path({self.vertices!r})"

    @property
    def model(self):
        return self.vertices[0].model

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
        return tuple(
            edge_letter(v, w) for v, w in zip(self.vertices, self.vertices[1:])
        )

    def concat(self, other: "Path") -> "Path":
        if other.model != self.model:
            raise ModelMismatchError("cannot concatenate paths from different models")
        shift = self.terminus * other.origin.inverse()
        return Path(self.vertices + tuple(shift * h for h in other.vertices[1:]))


def path_from_letters(origin: GroupElement, letters: Iterable[Generator]) -> Path:
    vertices = [origin]
    for gen in letters:
        vertices.append(vertices[-1] * origin.model.generator_element(gen))
    return Path(tuple(vertices))


def straight_path(origin: GroupElement, target: GroupElement) -> Path:
    """The path spelling the normal form of origin^-1 * target, letter
    by letter.  In a free group this is the unique geodesic."""
    return path_from_letters(origin, (origin.inverse() * target).letters())


def phi_extrema(qm: Quasimorphism, path: Path) -> tuple[ExactReal, ExactReal]:
    values = [qm.homogeneous_value(v) for v in path.vertices]
    return min(values), max(values)
