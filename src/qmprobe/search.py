"""Searches and path surgery constrained by quasimorphism level sets.

`bounded_path_search` runs a breadth-first search inside a ball,
restricted to vertices whose homogeneous value stays above a floor
(and, two-sided, below a ceiling).  A positive answer is a replayable
path witness; a negative answer records how many admissible vertices
it exhausted and is evidence only at that (K, R) -- nothing outside
the ball was examined.  The probes validate the searches' size against
MAX_SEARCH_BALL before any runs.  Each precondition is raised by one
function that they call too: a `check_*` here or in `quasimorphisms`,
`groups._scaling_letter`, or `obstruction_denominator`.

The level-set machinery below works on normal forms (free, ab) and on
numerator pairs (p, q) over qm.den, the way the pair scans do: the
BFS keys, steps and tests normal forms, and builds a `GroupElement`
only for the vertices of the path it returns; essential vertices,
backtracks and the letters s, t of a peak are read off a path's
recorded edge letters; the library's essential-vertex test and the
heights compare numerators.  `ExactReal`s are built for the bounds
and thresholds, once per call, and for the values a result records.

On top of that sit the pieces used to push paths out of high levels:

* `compute_constants` evaluates the threshold bundle (descent depth n,
  level guard N, height bound M) from D*, K' and the scaling element.
* `build_q_library` searches, for every ordered generator pair (s, t),
  a replacement path 1 -> st of the sandwich form
  (1, c^-1, ..., c^-n) q' (1, c, ..., c^n) whose interior essential
  vertices sit strictly below -D*.
* `peak_reduction` repeatedly replaces the first highest essential
  vertex with a library path; the pair (height, number of peaks)
  decreases lexicographically at every step, for at most
  `MAX_PEAK_STEPS` steps.
* `f2z_kernel_path_normalize` rewrites a kernel-to-kernel path in
  F_2 x Z by inserting central corrections c^m after each edge, keeping
  every value inside [-sqrt(2)/2, sqrt(2)/2] up to one edge step.
* `free_group_obstruction_probe` walks the tree geodesic from x to
  c^-n x c^n and certifies per-vertex lower bounds on the distance to
  the approximate kernel.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple, Optional

from .errors import CapExceededError, LibraryIncompleteError
from .exact import ExactReal, ZERO, _floor
from .groups import Generator, GroupElement, _scaling_letter, _step_form
from .paths import Path, _path, _walk, path_from_letters, phi_extrema, straight_path
from .quasimorphisms import (
    HomomorphismQM,
    HomogenizedQM,
    Quasimorphism,
    _above,
    _below,
    check_non_negative,
    check_positive_direction,
    check_scaling_window,
)


# most ball elements the searches of one probe may span: ball(radius)
# once for `path-search` and `zs-cycle`, once per ordered generator pair
# for `q-library` and `peak-reduce`; validation refuses more.  One BFS
# over 120,000-200,000 elements of F_2, F_3 or Z^2 took 0.2-1.3 s on a
# 2-vCPU VM with Python 3.11.7
MAX_SEARCH_BALL = 200_000
# most library substitutions one `peak_reduction` makes before it stops
# with a cap overrun
MAX_PEAK_STEPS = 10_000


class PathWitness(NamedTuple):
    """A path with its exact phi-bar extrema."""

    path: Path
    min_phi: ExactReal
    max_phi: ExactReal


class NotFoundWithinBall(NamedTuple):
    """Exhausted the admissible region without reaching the target:
    how many admissible vertices were labelled, and why the search
    stopped.  Evidence at the search's bounds and radius; never a
    theorem."""

    explored: int
    reason: str


def check_search_ball(radius: int, start: GroupElement, target: GroupElement) -> None:
    """Refuse a search whose start or target lies outside ball(radius)."""
    if start.length() > radius or target.length() > radius:
        raise ValueError(f"search endpoints must lie in ball({radius})")


def _constrained_bfs(
    qm: Quasimorphism,
    start: GroupElement,
    target: GroupElement,
    radius: int,
    lo: Optional[ExactReal],
    hi: Optional[ExactReal],
) -> Path | NotFoundWithinBall:
    """Breadth-first search from the target over the vertices of
    ball(radius) with lo <= phi-bar <= hi, labelling each with its
    distance to the target until the start is labelled; then the walk
    from the start takes, at every vertex, the canonically first letter
    that steps one label down.

    Vertices are normal forms (free, ab), with length
    len(free) + sum |ab|, stepped by `_step_form`; values are numerator
    pairs over qm.den, compared on integers with the bounds scaled once
    per call.  Elements are built only for the vertices of the returned
    path."""
    model = qm.model
    if radius > model.ball_cap:
        raise CapExceededError("search radius", radius, model.ball_cap)
    check_search_ball(radius, start, target)
    hnum = qm._hnum
    below = None if lo is None else _below(qm, lo)
    above = None if hi is None else _above(qm, hi)

    def admissible(free: tuple[int, ...], ab: tuple[int, ...]) -> bool:
        p, q = hnum(free, ab)
        return not (below is not None and below(p, q) or above is not None and above(p, q))

    first, last = (start.free, start.ab), (target.free, target.ab)
    if not (admissible(*first) and admissible(*last)):
        return NotFoundWithinBall(0, "an endpoint violates the level constraint")
    free_rank = model.free_rank
    letters = model.generators()
    # distances to the target over the admissible region
    dist: dict[tuple, int] = {last: 0}
    frontier = deque([last])
    found = first == last
    while frontier and not found:
        form = frontier.popleft()
        free, ab = form
        d = dist[form] + 1
        for letter in letters:
            w = _step_form(free_rank, free, ab, letter)
            if w in dist:
                continue
            size = len(w[0]) + sum(map(abs, w[1]))
            if size > radius or not admissible(*w):
                continue
            dist[w] = d
            if w == first:
                found = True
                break
            frontier.append(w)
    if not found:
        return NotFoundWithinBall(len(dist), "admissible region exhausted")
    # walk from the start, taking the canonically first descending step
    walk: list[Generator] = []
    free, ab = first
    for remaining in range(dist[first] - 1, -1, -1):
        for letter in letters:
            w = _step_form(free_rank, free, ab, letter)
            if dist.get(w) == remaining:
                walk.append(letter)
                free, ab = w
                break
        else:  # pragma: no cover - BFS guarantees a descending neighbour
            raise RuntimeError("inconsistent BFS distance map")
    return _path(_walk(start, tuple(walk)), tuple(walk))


def bounded_path_search(
    qm: Quasimorphism,
    start: GroupElement,
    target: GroupElement,
    k: ExactReal,
    radius: int,
    k_max: Optional[ExactReal] = None,
) -> PathWitness | NotFoundWithinBall:
    """Shortest admissible path from start to target, with phi-bar >= -k
    on every vertex (and <= k_max when given).  Ties are broken towards
    the canonically smallest edge sequence."""
    got = _constrained_bfs(qm, start, target, radius, -k, k_max)
    if isinstance(got, NotFoundWithinBall):
        return got
    return PathWitness(got, *phi_extrema(qm, got))


# -- constants bundle ----------------------------------------------------


class ConstantsBundle(NamedTuple):
    """Exact thresholds steering the level-set machinery.

    descent_depth   n:  how far the library paths dive along c^-1
    level_guard     N:  reduction never sends a vertex below -N
    height_bound    M:  peak reduction stops once the height is <= M
    scaling_distance C: word length of the scaling element
    """

    dstar: ExactReal
    kprime: ExactReal
    descent_depth: int
    level_guard: ExactReal
    height_bound: ExactReal
    scaling_distance: int
    max_pair_value: ExactReal
    max_generator_value: ExactReal


def compute_constants(
    qm: Quasimorphism,
    dstar: ExactReal,
    kprime: ExactReal,
    scaling: GroupElement,
) -> ConstantsBundle:
    if dstar <= ZERO:
        raise ValueError("dstar must be positive")
    if not kprime > dstar + dstar:
        raise ValueError("kprime must exceed 2 dstar")
    check_scaling_window(qm, scaling, dstar)
    model = qm.model
    gens = [model.generator_element(g) for g in model.generators()]
    maxst = max(qm.homogeneous_value(s * t) for s in gens for t in gens)
    maxgen = max(abs(qm.homogeneous_value(s)) for s in gens)
    five_over_4d = ExactReal(5) / (dstar * 4)
    depth = (five_over_4d * (kprime + maxst + dstar)).floor() + 3
    return ConstantsBundle(
        dstar=dstar,
        kprime=kprime,
        descent_depth=depth,
        level_guard=kprime + dstar + dstar + 1,
        height_bound=dstar * 3 + maxgen,
        scaling_distance=scaling.length(),
        max_pair_value=maxst,
        max_generator_value=maxgen,
    )


# -- q-library -----------------------------------------------------------


def _scaling_letters(scaling: GroupElement) -> tuple[Generator, ...]:
    """The letters of the steps by scaling^1 and scaling^-1: none unless
    scaling is a one-letter element, since no edge steps by anything
    else."""
    if scaling.length() != 1:
        return ()
    c = scaling.letters()[0]
    return (c, c.inverted())


def essential_flags(path: Path, scaling: GroupElement) -> tuple[bool, ...]:
    """A vertex is inessential when both incident edges are steps by the
    scaling letter (in either direction); endpoints are always
    essential.  Read off the path's edge letters."""
    letters = path.edge_letters()
    if not letters:
        return (True,)
    cs = _scaling_letters(scaling)
    inner = [not (x in cs and y in cs) for x, y in zip(letters, letters[1:])]
    return (True, *inner, True)


class QLibraryEntry(NamedTuple):
    s: Generator
    t: Generator
    path: Optional[Path]
    min_phi: Optional[ExactReal]
    failure: Optional[str]


class QLibrary(NamedTuple):
    """The entries, and whether every one of them succeeded."""

    scaling: GroupElement
    bundle: ConstantsBundle
    radius: int
    depth: int
    entries: tuple[QLibraryEntry, ...]
    complete: bool

    def lookup(self, s: Generator, t: Generator) -> Path:
        for e in self.entries:
            if e.s == s and e.t == t and e.path is not None and e.failure is None:
                return e.path
        name = self.scaling.model.generator_name
        raise LibraryIncompleteError(f"no library path for the pair ({name(s)}, {name(t)})")


def build_q_library(
    qm: Quasimorphism,
    bundle: ConstantsBundle,
    scaling: GroupElement,
    radius: int,
    depth: Optional[int] = None,
) -> QLibrary:
    """Search a replacement path for every ordered generator pair and
    verify the interior essential-vertex condition phi-bar < -D*.

    The level guard N of the returned bundle is raised so that
    -N < min phi-bar(q) over every successful entry.
    """
    model = qm.model
    c_letter = _scaling_letter(scaling)
    n = bundle.descent_depth if depth is None else depth
    if n < 1:
        raise ValueError("descent depth must be positive")
    identity = model.identity()
    # c^-n has length n, so past the radius every sandwich leaves the
    # ball and the descent and ascent are never used
    if n <= radius:
        down = path_from_letters(identity, [c_letter.inverted()] * n)
        up = path_from_letters(identity, [c_letter] * n)
        bottom = down.terminus  # c^-n

    hnum = qm._hnum
    below_dstar = _below(qm, -bundle.dstar)
    entries: list[QLibraryEntry] = []
    min_values: list[ExactReal] = []
    for s in model.generators():
        s_el = model.generator_element(s)
        for t in model.generators():
            t_el = model.generator_element(t)
            st = s_el * t_el
            if n > radius or (a1 := st * bottom).length() > radius:
                entries.append(
                    QLibraryEntry(s, t, None, None, "sandwich endpoints outside the ball")
                )
                continue
            ceiling = max(qm.homogeneous_value(bottom), qm.homogeneous_value(a1)) + bundle.kprime
            got = _constrained_bfs(qm, bottom, a1, radius, None, ceiling)
            if isinstance(got, NotFoundWithinBall):
                failure = f"no connecting path below {ceiling} within ball({radius})"
                entries.append(QLibraryEntry(s, t, None, None, failure))
                continue
            q = down.concat(got).concat(up)
            if q.origin != identity or q.terminus != st:
                raise RuntimeError("q-library path does not join 1 to s t")
            flags = essential_flags(q, scaling)
            bad = None
            for i, flag in enumerate(flags[1:-1], start=1):
                if flag and not below_dstar(*hnum(q.vertices[i].free, q.vertices[i].ab)):
                    bad = i
                    break
            if bad is not None:
                failure = f"essential vertex {q.vertices[bad]!r} not below -D*"
                entries.append(QLibraryEntry(s, t, q, None, failure))
                continue
            mn, _ = phi_extrema(qm, q)
            min_values.append(mn)
            entries.append(QLibraryEntry(s, t, q, mn, None))

    guard = bundle.level_guard
    if min_values:
        needed = -min(min_values) + 1
        if needed > guard:
            guard = needed
    raised = bundle._replace(descent_depth=n, level_guard=guard)
    complete = all(e.failure is None for e in entries)
    return QLibrary(scaling, raised, radius, n, tuple(entries), complete)


# -- backtrack removal and peak reduction --------------------------------


def remove_inessential_backtracks(path: Path, scaling: GroupElement) -> Path:
    """Cancel immediate backtracks along the scaling letter:
    (..., u, u c^e, u, ...) collapses to (..., u, ...).

    On edge letters: a step x followed by x^-1 returns to its vertex, so
    with x a scaling letter both steps are dropped.  What is kept was
    left unreduced when it was kept, so one test per step suffices."""
    cs = _scaling_letters(scaling)
    vertices = [path.vertices[0]]
    letters: list[Generator] = []
    for v, x in zip(path.vertices[1:], path.edge_letters()):
        if letters and letters[-1] in cs and x == letters[-1].inverted():
            letters.pop()
            vertices.pop()
        else:
            letters.append(x)
            vertices.append(v)
    return _path(tuple(vertices), tuple(letters))


class PeakStep(NamedTuple):
    """The height, the number of peaks and the index of the first one
    before the step, the letters s, t around it, and the path after."""

    height: int
    peaks: int
    index: int
    pair: tuple[Generator, Generator]
    min_phi: ExactReal
    path_after: Path


class PeakReductionTrace(NamedTuple):
    initial: Path
    steps: tuple[PeakStep, ...]
    final: Path
    final_height: int
    final_peaks: int
    reduced: Path
    max_reduced_phi: ExactReal
    vertex_bound: ExactReal  # M + 2 D*


def height_and_peaks(
    qm: Quasimorphism, path: Path, scaling: GroupElement
) -> tuple[int, int, int]:
    """(height, number of peaks, index of the first peak) over the
    essential vertices, with floors taken on numerators over qm.den."""
    hnum, den, d = qm._hnum, qm.den, qm.d
    floors = [
        _floor(*hnum(v.free, v.ab), den, d) if flag else None
        for v, flag in zip(path.vertices, essential_flags(path, scaling))
    ]
    # the endpoints are essential, so some floor is not None
    height = max(f for f in floors if f is not None)
    return height, floors.count(height), floors.index(height)


def check_aker_endpoints(qm: Quasimorphism, path: Path, dstar: ExactReal) -> None:
    """Refuse a path with an endpoint outside Aker(phi, D*): |phi-bar| > 2 D*."""
    for label, g in (("origin", path.origin), ("terminus", path.terminus)):
        if not abs(qm.homogeneous_value(g)) <= dstar + dstar:
            raise ValueError(f"path {label} is outside Aker(phi, D*)")


def peak_reduction(qm: Quasimorphism, path: Path, library: QLibrary) -> PeakReductionTrace:
    """Replace the first highest essential vertex with a library path
    until the height drops to the bundle's height bound M.

    Preconditions: both endpoints lie in Aker(phi, D*).  Each step
    strictly decreases (height, peak count) lexicographically and keeps
    every vertex above -N; violations raise, since they would falsify
    the library's guarantees.  A reduction that needs more than
    MAX_PEAK_STEPS steps exceeds a cap.
    """
    bundle = library.bundle
    scaling = library.scaling
    check_aker_endpoints(qm, path, bundle.dstar)
    steps: list[PeakStep] = []
    current = path
    height, peaks, first = height_and_peaks(qm, current, scaling)
    while ExactReal(height) > bundle.height_bound:
        if len(steps) >= MAX_PEAK_STEPS:
            raise CapExceededError("peak reduction iterations", len(steps) + 1, MAX_PEAK_STEPS)
        if first <= 0 or first >= len(current.vertices) - 1:
            raise RuntimeError("a path endpoint turned out to be a peak")
        vertices, letters = current.vertices, current.edge_letters()
        s, t = letters[first - 1], letters[first]
        q = library.lookup(s, t)
        # v0 q, walked from v0 = vertices[first - 1], ends at v0 s t
        middle = _walk(vertices[first - 1], q.edge_letters())
        if middle[-1] != vertices[first + 1]:
            raise RuntimeError("the library path for the pair does not end at s t")
        new_path = _path(
            vertices[:first] + middle[1:] + vertices[first + 2 :],
            letters[: first - 1] + q.edge_letters() + letters[first + 1 :],
        )
        mn, _ = phi_extrema(qm, new_path)
        if not mn > -bundle.level_guard:
            raise RuntimeError(
                f"reduction step dropped below the level guard: {mn} <= -{bundle.level_guard}"
            )
        new_height, new_peaks, new_first = height_and_peaks(qm, new_path, scaling)
        if not (new_height, new_peaks) < (height, peaks):
            raise RuntimeError(
                "peak replacement failed to decrease (height, peak count); "
                "the library does not satisfy its essential-vertex guarantee"
            )
        steps.append(PeakStep(height, peaks, first, (s, t), mn, new_path))
        current = new_path
        height, peaks, first = new_height, new_peaks, new_first
    reduced = remove_inessential_backtracks(current, scaling)
    _, mx = phi_extrema(qm, reduced)
    bound = bundle.height_bound + bundle.dstar + bundle.dstar
    if not mx <= bound:
        raise RuntimeError(
            f"backtrack removal left a vertex at {mx}, above the bound {bound}"
        )
    return PeakReductionTrace(
        initial=path,
        steps=tuple(steps),
        final=current,
        final_height=height,
        final_peaks=peaks,
        reduced=reduced,
        max_reduced_phi=mx,
        vertex_bound=bound,
    )


# -- the F_2 x Z kernel example ------------------------------------------


def check_kernel_endpoints(qm: Quasimorphism, origin: GroupElement, terminus: GroupElement) -> None:
    """Refuse a kernel path off the F_2 x Z example or off its kernel."""
    base = qm.base if isinstance(qm, HomogenizedQM) else qm
    if not (
        isinstance(base, HomomorphismQM)
        and (base.model.free_rank, base.model.abelian_rank) == (2, 1)
        and base.values == (ExactReal(1), ExactReal(0), ExactReal(0, 1, 2))
    ):
        raise ValueError("kernel path normalization needs F_2 x Z with phi = (1, 0, sqrt(2))")
    for label, g in (("origin", origin), ("terminus", terminus)):
        if qm.homogeneous_value(g) != ZERO:
            raise ValueError(f"path {label} is not in the kernel of phi")


def f2z_kernel_path_normalize(qm: Quasimorphism, path: Path) -> PathWitness:
    """Rewrite a kernel-to-kernel path in F_2 x Z = <a, b> x <c> with
    phi = (a -> 1, b -> 0, c -> sqrt(2)): after each original edge a
    central correction c^m recentres the value into
    (-sqrt(2)/2, sqrt(2)/2].  Every vertex of the result then satisfies
    |phi| <= 1 + sqrt(2)/2, which certifies the exact bounds
    -3 <= phi <= 3; the endpoints are untouched.
    """
    model = qm.model
    check_kernel_endpoints(qm, path.origin, path.terminus)
    c_letter = Generator(2, False)
    c = model.generator_element(c_letter)
    sqrt2 = ExactReal(0, 1, 2)
    half = ExactReal(1) / 2

    letters: list[Generator] = []
    current = path.origin
    for letter in path.edge_letters():
        current = current * model.generator_element(letter)
        m = -((qm.homogeneous_value(current) / sqrt2 + half).floor())
        letters += [letter] + [c_letter if m > 0 else c_letter.inverted()] * abs(m)
        current = current * c**m
    witness = path_from_letters(path.origin, letters)
    if witness.terminus != path.terminus:
        raise RuntimeError("normalized kernel path changed its terminus")
    mn, mx = phi_extrema(qm, witness)
    if not (-3 <= mn and mx <= 3):
        raise RuntimeError(
            f"normalized kernel path escaped [-3, 3]: min {mn}, max {mx}"
        )
    return PathWitness(witness, mn, mx)


# -- free-group obstruction probe ----------------------------------------

# most geodesic vertices a `free-obstruction` may walk over its depths
# n <= N; validation refuses more.  The geodesic from x to c^-n x c^n
# has at most 2 |x| + 2 n |c| + 1 vertices.  With psi-bar(a b), x = b
# and c = a b, 20,500 took 0.5 s and 81,000 took 3.1 s, and with
# c = a b a^-1 b^-1, 40,700 took 1.8 s, on a 2-vCPU VM with Python 3.11.7
MAX_OBSTRUCTION_VERTICES = 40_000
# most letters a `free-obstruction` may read over its depths n <= N,
# counted as the vertices of each geodesic times their longest length,
# |x| + 2 n |c|: each vertex is evaluated in time linear in its length.
# With psi-bar(a b) and x = b, c = (a b)^500 at N = 2 (20,024,006) took
# 1.8 s, c = a b a^-1 b^-1 at N = 99 (21,173,097) 1.9 s and c = a b at
# N = 140 (14,950,180) 1.6 s, in a fresh process on a 2-vCPU VM with
# Python 3.11.7
MAX_OBSTRUCTION_LETTERS = 25_000_000


class ObstructionReport(NamedTuple):
    """Per-vertex lower bounds d(v, Aker) >= (|phi-bar(v)| - 2D*) / L
    along the tree geodesic from x to c^-n x c^n, with
    L = max_s |phi-bar(s)| + D*.  In a free group every path between
    the endpoints passes through these vertices, so the maximum bound
    is a certified obstruction scale."""

    depth: int
    geodesic: Path
    bounds: tuple[ExactReal, ...]
    max_bound: ExactReal


def obstruction_denominator(
    qm: Quasimorphism, x: GroupElement, scaling: GroupElement, dstar: ExactReal
) -> ExactReal:
    """L = max_s |phi-bar(s)| + D*, refusing arguments the obstruction
    does not hold for: a model that is not free, x and c that commute,
    c without positive phi-bar, D* < 0 or L = 0."""
    model = qm.model
    if model.abelian_rank != 0:
        raise ValueError("the obstruction probe works in free groups only")
    check_non_negative("dstar", dstar)
    check_positive_direction(qm, scaling)
    if x * scaling == scaling * x:
        raise ValueError("x and the scaling element must not commute")
    gens = [model.generator_element(g) for g in model.generators()]
    denom = max(abs(qm.homogeneous_value(s)) for s in gens) + dstar
    if not denom > ZERO:
        raise ValueError("max_s |phi-bar(s)| + D* must be positive")
    return denom


def free_group_obstruction_probe(
    qm: Quasimorphism,
    x: GroupElement,
    scaling: GroupElement,
    depth: int,
    dstar: ExactReal,
) -> ObstructionReport:
    if depth < 0:
        raise ValueError("depth must be non-negative")
    denom = obstruction_denominator(qm, x, scaling, dstar)
    target = (scaling ** -depth) * x * (scaling ** depth)
    geodesic = straight_path(x, target)
    two_dstar = dstar + dstar
    bounds = []
    for v in geodesic.vertices:
        raw = (abs(qm.homogeneous_value(v)) - two_dstar) / denom
        bounds.append(raw if raw > ZERO else ZERO)
    return ObstructionReport(depth, geodesic, tuple(bounds), max(bounds))
