"""Group-ring chains over a Cayley 2-complex, cut below one window.

A full Novikov-style completion keeps formal sums with finitely many
terms below every level of the potential.  At desk scale we work with
the only honest finite shadow of that object: a chain is a plain dict
from cells to non-zero integer coefficients, and the one window W in
play is the ray cycle's own: the cycle holds exact coefficients for
every cell whose value is below W and says nothing about higher cells.

The complex has the group elements as 0-cells, one edge orbit per
positive generator, and one square orbit per commuting generator pair
(free-times-abelian and abelian-abelian; a free group has no squares).
The value of a cell is the minimum of the homogeneous quasimorphism
over its corners.  The below-bound tests of the ray cycle's connecting
path, rays and boundary, the solver's faces and trimmed columns and
the extraction compare the integer numerators of phi-bar at the
corners against a bound scaled once to the quasimorphism's
denominator, by one rule for every potential, and build no element
and no value.  For a homomorphism (homogeneous, defect bound 0)
phi-bar(g c) = phi-bar(g) + phi-bar(c), so a face corner's numerators
are its base's plus its steps', and the ball walk that lists the bases
carries theirs from the generators'.  Any other potential evaluates
each distinct face corner normal form once per complex.

On top of the cells sit the desk-scale homology probes: `ray_cycle`
builds the 1-cycle formed by a connecting path and two truncated rays
along a positive-direction element, `build_zs_cycle` compares the two
standard paths from c^n to s c^n, `windowed_boundary_solve` decides
∂y ≡ z below the window by collapsing faces through free edges, or by
exact integer elimination where a core is left, and
`keep_negative_and_extract_path` turns a filling into a connecting path
through non-negative levels, held against min(0, phi-bar(start),
phi-bar(end)) - D.  Every answer to ∂y ≡ z, the solver's in
`run` or a recorded one in `verify`, is replayed and wrapped by the one
function `settle`.

A filling is local, so the solver tries small balls first and
collapses each one before it eliminates; `windowed_boundary_solve`
says why a filling over a smaller ball is one over ball(R), and
`intsolve.collapse_solve` why a collapse that empties a system decides
it and certifies an unsat.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from typing import Callable, NamedTuple, Optional

from .errors import CapExceededError, ExtractionError, ModelMismatchError, ReplayError
from .exact import ExactReal, ZERO, _make
from .groups import (
    Generator,
    GroupElement,
    GroupModel,
    _ball,
    _element,
    _scaling_letter,
    _step_form,
)
from .intsolve import (
    UnsatCertificate,
    check_solution,
    check_unsat_certificate,
    collapse_solve,
    solve_integer_system,
)
from .paths import Path, path_from_letters, phi_extrema
from .quasimorphisms import Quasimorphism, _below, check_defect, check_positive_direction

RAY_STEP_CAP = 100_000
DEFAULT_CELL_CAP = 50_000
# most elements of the ball(R) a `novikov-solve` enumerates its faces
# over; validation refuses more.  F_2 x Z fits at radius 8 (26,225
# elements) and not at radius 9 (78,711)
MAX_SOLVE_BALL = 50_000

Cell = tuple
# a chain: each cell of one dimension -> its non-zero coefficient
Chain = dict[Cell, int]


class CayleyComplex:
    """Cells, values and boundaries of the Cayley 2-complex of a model,
    measured by a homogeneous quasimorphism with a known defect bound.

    Cells are tuples: ("v", free, ab), ("e", free, ab, i) for the edge
    from g to g s_i, and ("f", free, ab, t) for the commutation square
    of the t-th commuting pair based at g.

    A cell's corners are normal forms stepped from its base with
    `_step_form`.  `below(b)` tests a cell's value, the minimum of
    phi-bar over its corners, against b on the corners' numerators and
    keeps nothing; `face_corners`, built once per complex, gives the
    solver the numerators at a face's four corners.  `value`, the corner
    minimum as an exact number, is built only to hold the connecting
    path against the window and for the solver's floor."""

    def __init__(self, qm: Quasimorphism, defect_bound: ExactReal):
        check_defect(defect_bound)
        self.qm = qm
        self.model: GroupModel = qm.model
        self.defect = defect_bound
        self.positive = self.model.positive_generators()
        types = []
        for i in range(len(self.positive)):
            for j in range(i + 1, len(self.positive)):
                both_free = self.model.is_free_index(i) and self.model.is_free_index(j)
                if not both_free:
                    types.append((i, j))
        self.square_types: tuple[tuple[int, int], ...] = tuple(types)
        self._steps = tuple(self.model.generator_element(s) for s in self.positive)
        # phi-bar's numerators at the positive generators when it is a
        # homomorphism, so that a corner's are its base's plus its steps'
        self._step_nums: Optional[list[tuple[int, int]]] = None
        if qm.is_homogeneous and qm.defect_upper() == ZERO:
            self._step_nums = [qm._hnum(s.free, s.ab) for s in self._steps]
        self.face_corners = _corner_numerators(self)

    # -- cells ---------------------------------------------------------

    def element(self, cell: Cell) -> GroupElement:
        return _element(self.model, cell[1], cell[2])

    def edge_cell(self, g: GroupElement, index: int) -> Cell:
        return ("e", g.free, g.ab, index)

    def _forms(self, cell: Cell) -> tuple:
        """The normal forms of a cell's corners: g; g and g s_i for an
        edge; g, g x, g y and g x y for a square with steps x and y."""
        free, ab = cell[1], cell[2]
        if cell[0] == "v":
            return ((free, ab),)
        r, steps = self.model.free_rank, self.positive
        if cell[0] == "e":
            return ((free, ab), _step_form(r, free, ab, steps[cell[3]]))
        i, j = self.square_types[cell[3]]
        gx = _step_form(r, free, ab, steps[i])
        return ((free, ab), gx, _step_form(r, free, ab, steps[j]), _step_form(r, *gx, steps[j]))

    def corners(self, cell: Cell) -> tuple[GroupElement, ...]:
        return tuple(_element(self.model, *form) for form in self._forms(cell))

    def below(self, bound: ExactReal) -> Callable[[Cell], bool]:
        """The test whether a cell's value is strictly below `bound`:
        whether some corner's numerators are, by `quasimorphisms._below`."""
        under, hnum, forms = _below(self.qm, bound), self.qm._hnum, self._forms
        return lambda cell: any(under(*hnum(*form)) for form in forms(cell))

    def value(self, cell: Cell) -> ExactReal:
        qm = self.qm
        return min(_make(*qm._hnum(*form), qm.den, qm.d) for form in self._forms(cell))

    def cell_sort_key(self, cell: Cell):
        index = cell[3] if len(cell) > 3 else -1
        return ("vef".index(cell[0]), self.element(cell).sort_key(), index)

    # -- chains --------------------------------------------------------

    def boundary_of_cell(self, cell: Cell) -> Chain:
        if cell[0] == "v":
            raise ValueError("0-cells have no boundary")
        forms = self._forms(cell)
        if cell[0] == "e":
            return {("v", *forms[1]): 1, ("v", *forms[0]): -1}
        i, j = self.square_types[cell[3]]
        g, gx, gy, _ = forms
        return {("e", *g, i): 1, ("e", *gx, j): 1, ("e", *gy, i): -1, ("e", *g, j): -1}

    def boundary(self, chain: Chain) -> Chain:
        out: Chain = {}
        for cell, coeff in chain.items():
            for bcell, bcoeff in self.boundary_of_cell(cell).items():
                _accumulate(out, bcell, coeff * bcoeff)
        return out

    def edge_drop(self) -> ExactReal:
        """How far below its edges' lowest value a 1-chain's boundary can
        reach: max |phi-bar(s)| + D over the generators."""
        return max(abs(self.qm.homogeneous_value(s)) for s in self._steps) + self.defect

    def path_chain(self, path: Path) -> Chain:
        """The 1-chain of a path's edges: +1 along the edge (g, i) from g,
        -1 back along it from g s_i."""
        if path.model != self.model:
            raise ModelMismatchError("path uses a different model")
        terms: Chain = {}
        vertices = path.vertices
        for v, w, (index, inverse) in zip(vertices, vertices[1:], path.edge_letters()):
            _accumulate(terms, self.edge_cell(w if inverse else v, index), -1 if inverse else 1)
        return terms


def _accumulate(terms: Chain, cell: Cell, coeff: int) -> None:
    new = terms.get(cell, 0) + coeff
    if new:
        terms[cell] = new
    else:
        terms.pop(cell, None)


# -- ray cycles ----------------------------------------------------------


class RayCycle(NamedTuple):
    chain: Chain
    start: GroupElement
    end: GroupElement
    scaling: GroupElement
    connecting: Path
    window: ExactReal


def ray_cycle(
    cx: CayleyComplex,
    start: GroupElement,
    end: GroupElement,
    connecting: Path,
    scaling: GroupElement,
    window: ExactReal,
) -> RayCycle:
    """The 1-cycle below the window: connecting path from start to end,
    plus the truncated c-ray out of end, minus the one out of start.
    Its boundary must vanish below the window less the edge drop."""
    _scaling_letter(cx.model, scaling)
    check_positive_direction(cx.qm, scaling)
    if connecting.origin != start or connecting.terminus != end:
        raise ValueError("connecting path endpoints do not match")
    z = cx.path_chain(connecting)
    below = cx.below(window)
    if not all(map(below, z)):
        raise ValueError("window too small to contain the connecting path")
    # the ray x -> xc -> xc^2 -> ... is scanned for k_stop edges: for k
    # with phi-bar(x) + k phi-bar(c) - D >= window the vertex x c^k
    # already sits at or above the window, so no later edge is below it
    phi_c = cx.qm.homogeneous_value(scaling)
    rays = [
        (x, sign, ((window - cx.qm.homogeneous_value(x) + cx.defect) / phi_c).floor() + 1)
        for x, sign in ((end, 1), (start, -1))
    ]
    boundary_level = window - cx.edge_drop()
    for x, sign, k_stop in rays:
        if k_stop > RAY_STEP_CAP:
            raise CapExceededError("ray edges", k_stop, RAY_STEP_CAP)
        ray = path_from_letters(x, scaling.letters() * max(k_stop, 0))
        for cell, coeff in cx.path_chain(ray).items():
            if below(cell):
                _accumulate(z, cell, sign * coeff)
    if any(map(cx.below(boundary_level), cx.boundary(z))):
        raise RuntimeError("ray cycle failed its boundary check")
    return RayCycle(z, start, end, scaling, connecting, window)


# -- the z_s cycles ------------------------------------------------------


class ZsCycle(NamedTuple):
    generator: Generator
    depth: int
    chain: Chain
    down_up: Optional[Path]
    high_path: Optional[Path]
    high_min: Optional[ExactReal]


def build_zs_cycle(
    cx: CayleyComplex,
    s: Generator,
    scaling: GroupElement,
    depth: int,
    high_path: Optional[Path],
    k_bound: Optional[ExactReal] = None,
) -> ZsCycle:
    """Compare the two standard paths from c^n to s c^n: the down-up
    path through the identity and a path staying above
    n phi-bar(c) - K.  For s equal to the scaling letter the two
    constructions coincide and the cycle is zero by convention."""
    c_letter = _scaling_letter(cx.model, scaling)
    check_positive_direction(cx.qm, scaling)
    if depth < 1:
        raise ValueError("depth must be positive")
    if s == c_letter:
        return ZsCycle(s, depth, {}, None, None, None)
    top = scaling ** depth
    s_el = cx.model.generator_element(s)
    down_up = path_from_letters(
        top, [c_letter.inverted()] * depth + [s] + [c_letter] * depth
    )
    if high_path is None:
        raise ValueError("a high connecting path is required for s != c")
    if high_path.origin != top or high_path.terminus != s_el * top:
        raise ValueError("high path must connect c^n to s c^n")
    high_min, _ = phi_extrema(cx.qm, high_path)
    if k_bound is not None:
        floor = cx.qm.homogeneous_value(scaling) * depth - k_bound
        if not high_min >= floor:
            raise ValueError(
                f"high path dips to {high_min}, below the required floor {floor}"
            )
    z = cx.path_chain(down_up)
    for cell, coeff in cx.path_chain(high_path).items():
        _accumulate(z, cell, -coeff)
    if cx.boundary(z):
        raise RuntimeError("z_s cycle failed its boundary check")
    return ZsCycle(s, depth, z, down_up, high_path, high_min)


# -- windowed boundary solving -------------------------------------------


class BoundarySolveResult(NamedTuple):
    status: str  # "sat" | "unsat"
    window: ExactReal
    floor: Optional[ExactReal]
    faces: tuple[Cell, ...]
    coefficients: Optional[tuple[int, ...]]
    filling: Optional[Chain]  # the faces with non-zero coefficients
    certificate: Optional[UnsatCertificate]


def _corner_numerators(cx: CayleyComplex):
    """`corners(free, ab, nums, t)`: the numerators over qm.den of
    phi-bar at the corners g, g x, g y and g x y of the face of type t
    based at g = (free, ab), with steps x and y, as a tuple of four p
    and one of four q.  For a homomorphism they are `nums`, phi-bar's at
    g, plus the steps' `cx._step_nums`, and nothing is evaluated.  For
    any other potential `nums` is not read, and each distinct corner
    normal form, stepped with `_step_form`, is evaluated once, in a dict
    that lives as long as `corners`: as long as the complex, which builds
    it once as `cx.face_corners`."""
    types, step_nums = cx.square_types, cx._step_nums
    if step_nums is not None:
        type_nums = [(*step_nums[i], *step_nums[j]) for i, j in types]

        def corners(free, ab, nums, t):
            (p, q), (xp, xq, yp, yq) = nums, type_nums[t]
            return (p, p + xp, p + yp, p + xp + yp), (q, q + xq, q + yq, q + xq + yq)

        return corners
    r, hnum, steps, values = cx.model.free_rank, cx.qm._hnum, cx.positive, {}

    def corners(free, ab, nums, t):
        i, j = types[t]
        gx = _step_form(r, free, ab, steps[i])
        forms = ((free, ab), gx, _step_form(r, free, ab, steps[j]), _step_form(r, *gx, steps[j]))
        for form in forms:
            if form not in values:
                values[form] = hnum(*form)
        return tuple(zip(*[values[form] for form in forms]))

    return corners


def enumerate_faces(
    cx: CayleyComplex,
    floor: Optional[ExactReal],
    ceiling: ExactReal,
    radius: int,
    cell_cap: int = DEFAULT_CELL_CAP,
) -> list[Cell]:
    """All 2-cells based in ball(radius) with value in [floor, ceiling),
    in canonical base-then-type order.

    A face's value, its corners' minimum, is in [floor, ceiling) exactly
    when some corner is below the ceiling and none is below the floor;
    its corners' numerators are tested against both bounds, scaled once
    per call.  For a homomorphism the ball walk carries each base's
    numerators, which alone decide the types a base admits; the bases
    take few distinct pairs, and each is decided once, in a dict that
    lives for the call."""
    under_ceiling = _below(cx.qm, ceiling)
    under_floor = None if floor is None else _below(cx.qm, floor)
    step_nums, corners = cx._step_nums, cx.face_corners

    def admitted(free, ab, nums):
        out = []
        for t in range(len(cx.square_types)):
            ps, qs = corners(free, ab, nums, t)
            if any(map(under_ceiling, ps, qs)) and not (
                under_floor and any(map(under_floor, ps, qs))
            ):
                out.append(t)
        return out

    # a homomorphism's numerator pair -> the face types it admits
    decided: dict[tuple[int, int], list[int]] = {}
    faces: list[Cell] = []
    for free, ab, p, q in _ball(cx.model, radius, step_nums):
        if step_nums is None:
            got = admitted(free, ab, None)
        else:
            got = decided.get((p, q))
            if got is None:
                got = decided[p, q] = admitted(free, ab, (p, q))
        for t in got:
            faces.append(("f", free, ab, t))
            if len(faces) > cell_cap:
                raise CapExceededError("solver 2-cells", len(faces), cell_cap)
    return faces


def _trimmed_columns(
    cx: CayleyComplex, faces: list[Cell], window: ExactReal
) -> list[dict[Cell, int]]:
    """The boundary column of each face, trimmed to the edges with value
    below the window.  The square of type (i, j) based at g, with steps
    x = s_i and y = s_j, has the edges (g, i), (g x, j), (g y, i) and
    (g, j), with coefficients 1, 1, -1, -1, kept in that order.

    An edge is kept when either of its two corners is below the window:
    each of the face's four corners takes one integer bound test, and a
    neighbour's normal form is built only for an edge that is kept.  A
    homomorphism's numerators at g are evaluated once per run of faces
    on g."""
    under, corners = _below(cx.qm, window), cx.face_corners
    additive, hnum = cx._step_nums is not None, cx.qm._hnum
    r, steps = cx.model.free_rank, cx.positive
    columns = []
    last = nums = None
    for _, free, ab, t in faces:
        if additive and last != (free, ab):
            last = (free, ab)
            nums = hnum(free, ab)
        g, gx, gy, gxy = map(under, *corners(free, ab, nums, t))
        i, j = cx.square_types[t]
        column: dict[Cell, int] = {}
        if g or gx:
            column[("e", free, ab, i)] = 1
        if gx or gxy:
            column[("e", *_step_form(r, free, ab, steps[i]), j)] = 1
        if gy or gxy:
            column[("e", *_step_form(r, free, ab, steps[j]), i)] = -1
        if g or gy:
            column[("e", free, ab, j)] = -1
        columns.append(column)
    return columns


def boundary_faces(
    cx: CayleyComplex,
    z: Chain,
    window: ExactReal,
    radius: int,
    slack: ExactReal = ZERO,
    cell_cap: int = DEFAULT_CELL_CAP,
) -> tuple[Optional[ExactReal], list[Cell]]:
    """(floor, faces) of the boundary equation for z below the window:
    the faces based in ball(radius) with values in
    [min level of z - slack, window).  No admissible face can produce
    an edge below that floor, because a face's value is the minimum
    over its corners."""
    if not all(map(cx.below(window), z)):
        raise ValueError("right-hand side has support at or above the window")
    floor = min((cx.value(cell) for cell in z), default=None)
    if floor is not None:
        floor = floor - slack
    return floor, enumerate_faces(cx, floor, window, radius, cell_cap)


def _solve_radii(radius: int) -> list[int]:
    """0, 1, 2, 4, 8, ... below the radius, then the radius itself."""
    radii, k = [0], 1
    while k < radius:
        radii.append(k)
        k *= 2
    if radius:
        radii.append(radius)
    return radii


def windowed_boundary_solve(
    cx: CayleyComplex,
    z: Chain,
    window: ExactReal,
    radius: int,
    slack: ExactReal = ZERO,
    cell_cap: int = DEFAULT_CELL_CAP,
) -> BoundarySolveResult:
    """Decide whether some integer 2-chain y supported on the
    `boundary_faces` has boundary equal to z on every edge below the
    window.

    The faces are enumerated once at the configured radius R, which is
    what `cell_cap` bounds, and then solved small first: on the faces
    based in ball(k) for k = 0, 1, 2, 4, 8, ... below R, then on all of
    them, stopping at the first filling found.  A filling found at k is
    a filling at R, and it is the one recorded:
    - the faces based in ball(k) are a prefix of the R faces, since the
      ball is listed length-first and a face's value does not depend on
      the radius;
    - the floor, min level of z - slack, does not depend on the radius
      either, so an admissible face at k is admissible at R;
    - a face's trimmed column depends only on the face and the window;
    - so the filling padded with zeros for the faces based outside
      ball(k) solves the R system, and `settle` replays it there.
    Only the whole system at R can be unsat, and its certificate is
    the one its own solve at R gives, over every face's column.

    One solver decides each radius: `intsolve.collapse_solve`, which
    removes faces through free edges (edges in exactly one remaining
    face, with coefficient +-1) and decides every system it empties,
    certificate included (its docstring holds the proof), and
    `solve_integer_system` only for a core, a system the collapse cannot
    empty.  An unsat below R moves on to the next radius; a filling ends
    the schedule."""
    floor, faces = boundary_faces(cx, z, window, radius, slack, cell_cap)
    columns: list[dict[Cell, int]] = []
    for k in _solve_radii(radius):
        end = bisect_right(faces, k, key=lambda f: cx.element(f).length())
        columns += _trimmed_columns(cx, faces[len(columns):end], window)
        solution = collapse_solve(columns, z)
        if solution == "core":
            solution = solve_integer_system(columns, z)
        if isinstance(solution, list):
            solution.extend([0] * (len(faces) - end))
            break
    return settle(cx, z, window, floor, faces, solution, columns)


def settle(
    cx: CayleyComplex,
    z: Chain,
    window: ExactReal,
    floor: Optional[ExactReal],
    faces: list[Cell],
    solution: list[int] | UnsatCertificate,
    columns: list[dict[Cell, int]],
) -> BoundarySolveResult:
    """Replay an answer to the boundary equation for z over `faces`
    below the window and wrap it in a result, or raise `ReplayError`.

    A coefficient list must hold one integer per face, and the columns
    of its support must sum to z; an infeasibility certificate must
    have integer entries and annihilate every face's column but not z.
    The solver's answer and a recorded one both go through here, with
    the trimmed columns of a prefix of `faces` built so far: the
    solver's, or none; a certificate's are extended to every face."""
    faces = tuple(faces)
    if isinstance(solution, UnsatCertificate):
        if not (
            type(solution.modulus) is int
            and all(type(c) is int and c for c in solution.functional.values())
        ):
            raise ReplayError(
                "certificate modulus and coefficients must be integers, the coefficients non-zero"
            )
        columns = columns + _trimmed_columns(cx, faces[len(columns):], window)
        if not check_unsat_certificate(columns, z, solution):
            raise ReplayError("infeasibility certificate does not annihilate the system")
        return BoundarySolveResult("unsat", window, floor, faces, None, None, solution)
    if not (
        isinstance(solution, list)
        and len(solution) == len(faces)
        and all(type(c) is int for c in solution)
    ):
        raise ReplayError("one integer coefficient per face is required")
    support = {f: c for f, c in zip(faces, solution) if c}
    columns = _trimmed_columns(cx, list(support), window)
    if not check_solution(columns, z, list(support.values())):
        raise ReplayError("boundary of the filling does not match the cycle below the window")
    return BoundarySolveResult("sat", window, floor, faces, tuple(solution), support, None)


# -- keep-negative extraction --------------------------------------------


class ExtractionResult(NamedTuple):
    path: Path
    min_phi: ExactReal
    bound: ExactReal
    meets_bound: bool


def keep_negative_and_extract_path(
    cx: CayleyComplex, filling: Chain, cycle: RayCycle
) -> ExtractionResult:
    """Drop the filling's cells at negative values; the boundary of the
    rest differs from the ray cycle by a 1-chain supported at values
    >= 0, and that support contains a connecting path between the two
    rays.  The composite start -> start c^m -> ... -> end c^n -> end is
    returned with its exact minimum, to compare against the bound
    min(0, phi-bar(start), phi-bar(end)) - D: the support sits at
    levels >= 0, and the rays climb from the endpoints, so no path
    through the support can be asked to stay above the lower endpoint.

    The support graph keeps, with each neighbour, the letter of the
    edge to it: s_i along the edge (g, i) from g, s_i^-1 back from
    g s_i.  The path is built from its letters: c^m up the start ray,
    the letters of the canonical shortest path from start c^m to
    end c^n inside the support, and c^-n down the end ray.  An empty
    support joins the rays only when end = start c^k lies on the start's
    own ray; the path is then that ray segment, k letters c or -k
    letters c^-1, and none when start = end."""
    if any(cell[0] != "f" for cell in filling):
        raise ValueError("extraction needs a 2-chain filling")
    negative = cx.below(ZERO)
    residual = cx.boundary({cell: k for cell, k in filling.items() if negative(cell)})
    for cell, coeff in cycle.chain.items():
        _accumulate(residual, cell, -coeff)
    # the cycle is known only below its window: cut there first, and
    # only then ask the rest to stay at or above level zero
    below = cx.below(cycle.window)
    residual = {cell: k for cell, k in residual.items() if below(cell)}
    if any(map(negative, residual)):
        raise ExtractionError("residual support dips below level zero")

    support = sorted(residual, key=cx.cell_sort_key)
    # each support vertex -> (neighbour, letter of the step to it)
    adjacency: dict[GroupElement, list[tuple[GroupElement, Generator]]] = {}
    for cell in support:
        a, b = cx.corners(cell)
        adjacency.setdefault(a, []).append((b, Generator(cell[3], False)))
        adjacency.setdefault(b, []).append((a, Generator(cell[3], True)))

    c = cycle.scaling

    def ray_entry(x: GroupElement) -> tuple[int, GroupElement]:
        current = x
        for k in range(RAY_STEP_CAP):
            if current in adjacency:
                return k, current
            current = current * c
        raise ExtractionError("ray never meets the residual support")

    if not support:
        return _extracted(cx, cycle, _ray_segment(cycle))

    m_start, entry_start = ray_entry(cycle.start)
    m_end, entry_end = ray_entry(cycle.end)

    # canonical shortest path inside the support graph: neighbours in
    # canonical order, each reached by the letter of its edge
    for g in adjacency:
        adjacency[g].sort(key=lambda step: step[0].sort_key())
    parents: dict[GroupElement, Optional[tuple[GroupElement, Generator]]] = {entry_start: None}
    queue = deque([entry_start])
    while queue:
        v = queue.popleft()
        if v == entry_end:
            break
        for w, letter in adjacency[v]:
            if w not in parents:
                parents[w] = (v, letter)
                queue.append(w)
    if entry_end not in parents:
        raise ExtractionError("residual support does not connect the two rays")
    middle: list[Generator] = []
    step = parents[entry_end]
    while step is not None:
        middle.append(step[1])
        step = parents[step[0]]
    middle.reverse()

    c_letter = c.letters()[0]
    return _extracted(cx, cycle, [c_letter] * m_start + middle + [c_letter.inverted()] * m_end)


def _ray_segment(cycle: RayCycle) -> list[Generator]:
    """The letters of c^k from start to end = start c^k, or
    ExtractionError when end is not on the start's ray: k = +-d(start,
    end), since c is one letter."""
    c, start, end = cycle.scaling, cycle.start, cycle.end
    d = start.distance(end)
    for k in (d, -d):
        if start * c ** k == end:
            letter = c.letters()[0]
            return [letter if k > 0 else letter.inverted()] * d
    raise ExtractionError("empty residual support cannot connect the rays")


def _extracted(cx: CayleyComplex, cycle: RayCycle, letters: list[Generator]) -> ExtractionResult:
    """The path from start spelt by the letters, with its exact minimum
    and the bound min(0, phi-bar(start), phi-bar(end)) - D."""
    path = path_from_letters(cycle.start, letters)
    if path.terminus != cycle.end:
        raise RuntimeError("extracted path does not join the cycle's endpoints")
    mn, _ = phi_extrema(cx.qm, path)
    level = cx.qm.homogeneous_value
    bound = min(ZERO, level(cycle.start), level(cycle.end)) - cx.defect
    return ExtractionResult(path, mn, bound, mn >= bound)
