"""Rips graphs at scale n over finite vertex sets in the word metric.

Vertices x != y are joined when d(x, y) < n -- strictly, so scale n
admits jumps of length at most n - 1.  Components come with a
`ComponentCertificate`, a tuple of per-vertex component ids and a
spanning forest whose edges are genuine graph edges, built by a
deterministic Kruskal pass over the sorted edge list; the component
representative is the canonically smallest vertex.  `build_rips` and
`components` build one scale at a time; the profile reads only the
forest, at its threshold.

A profile measures only the pairs that can lie below n_max.  With free
parts u and v, d(x, y) >= |u| + |v| - 2 lcp(u, v), so such a pair shares
a free prefix of length ceil((|u| + |v| - n_max + 1) / 2); the vertices
are indexed by (free length, free prefix), and each vertex measures the
later vertices of the buckets its prefixes select.  The pairs below
n_max are grouped by distance; one union-find sweep over the groups
counts every scale, and `components_from_edges`, which sorts its edges,
gives the forest from the same pairs.

Both builders refuse more than `DEFAULT_VERTEX_CAP` vertices, read when
they are called.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable, NamedTuple

from .errors import CapExceededError
from .groups import GroupElement

DEFAULT_VERTEX_CAP = 4096


class RipsGraph(NamedTuple):
    vertices: tuple[GroupElement, ...]  # canonically sorted, no duplicates
    scale: int
    edges: tuple[tuple[int, int], ...]  # index pairs i < j with 0 < d < scale


class ComponentCertificate(NamedTuple):
    """component_ids[i] is the index of the canonical representative of
    vertex i's component; forest lists parent edges (i, j), each an
    actual edge of the graph, spanning every component."""

    component_ids: tuple[int, ...]
    forest: tuple[tuple[int, int], ...]


def _prepare_vertices(vertices: Iterable[GroupElement]) -> tuple[GroupElement, ...]:
    seen = set()
    out = []
    for v in vertices:
        key = (v.free, v.ab)
        if key not in seen:
            seen.add(key)
            out.append(v)
    if not out:
        raise ValueError("empty vertex set")
    return tuple(sorted(out, key=GroupElement.sort_key))


def build_rips(vertices: Iterable[GroupElement], scale: int) -> RipsGraph:
    if scale < 1:
        raise ValueError("scale must be a positive integer")
    verts = _prepare_vertices(vertices)
    if len(verts) > DEFAULT_VERTEX_CAP:
        raise CapExceededError("Rips vertex count", len(verts), DEFAULT_VERTEX_CAP)
    edges = []
    for i in range(len(verts)):
        for j in range(i + 1, len(verts)):
            if 0 < verts[i].distance(verts[j]) < scale:
                edges.append((i, j))
    return RipsGraph(verts, scale, tuple(edges))


def _root(parent: list[int], x: int) -> int:
    """Union-find root of x, compressing the path behind it."""
    root = x
    while parent[root] != root:
        root = parent[root]
    while parent[x] != root:
        parent[x], x = root, parent[x]
    return root


def components_from_edges(
    nvertices: int, edges: Iterable[tuple[int, int]]
) -> ComponentCertificate:
    """Union-find over an explicit edge list, merging in sorted order."""
    parent = list(range(nvertices))
    forest = []
    for i, j in sorted(edges):
        ri, rj = _root(parent, i), _root(parent, j)
        if ri != rj:
            # the smaller index stays the representative
            parent[max(ri, rj)] = min(ri, rj)
            forest.append((i, j))
    ids = tuple(_root(parent, i) for i in range(nvertices))
    return ComponentCertificate(ids, tuple(forest))


def components(graph: RipsGraph) -> ComponentCertificate:
    return components_from_edges(len(graph.vertices), graph.edges)


class ConnectivityProfile(NamedTuple):
    """The vertices, canonically sorted and without duplicates, that the
    forest's indices refer to; component counts for scales 1..n_max, the
    first scale (if any) at which the graph is connected, and the
    spanning forest at that scale as `components` certifies it.  Counts
    are non-increasing in the scale because edge sets only grow."""

    vertices: tuple[GroupElement, ...]
    scales: tuple[int, ...]
    counts: tuple[int, ...]
    threshold: int | None
    forest_at_threshold: tuple[tuple[int, int], ...] | None


def connectivity_profile(vertices: Iterable[GroupElement], n_max: int) -> ConnectivityProfile:
    if n_max < 1:
        raise ValueError("n_max must be positive")
    verts = _prepare_vertices(vertices)
    nv = len(verts)
    if nv > DEFAULT_VERTEX_CAP:
        raise CapExceededError("Rips vertex count", nv, DEFAULT_VERTEX_CAP)
    # by_prefix[(b, w)]: ascending indices of the vertices whose free
    # part has length b and starts with w
    by_prefix: dict[tuple[int, tuple[int, ...]], list[int]] = {}
    for i, x in enumerate(verts):
        u = x.free
        for k in range(len(u) + 1):
            by_prefix.setdefault((len(u), u[:k]), []).append(i)
    lengths = sorted({len(x.free) for x in verts})
    # by_distance[d]: the pairs at distance d, an edge from scale d + 1
    by_distance: list[list[tuple[int, int]]] = [[] for _ in range(n_max)]
    for i, x in enumerate(verts):
        u = x.free
        a = len(u)
        for b in lengths:
            # the shortest common free prefix a pair below n_max can have
            k = max(0, (a + b - n_max + 2) // 2)
            if k > min(a, b):
                continue
            bucket = by_prefix.get((b, u[:k]), ())
            for j in bucket[bisect_right(bucket, i):]:
                d = x.distance(verts[j])
                if d < n_max:
                    by_distance[d].append((i, j))
    parent = list(range(nv))
    count, counts = nv, []
    for pairs in by_distance:
        for i, j in pairs:
            ri, rj = _root(parent, i), _root(parent, j)
            if ri != rj:
                parent[ri] = rj
                count -= 1
        counts.append(count)
    threshold = counts.index(1) + 1 if 1 in counts else None
    forest = None
    if threshold is not None:
        edges = [e for pairs in by_distance[:threshold] for e in pairs]
        forest = components_from_edges(nv, edges).forest
    return ConnectivityProfile(
        verts, tuple(range(1, n_max + 1)), tuple(counts), threshold, forest
    )
