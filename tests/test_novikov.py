"""The Cayley 2-complex and its chains, plain dicts from cells to
coefficients: cells, boundaries and the corner rule `below` against an
exact corner-minimum oracle, ray and z_s cycles, the windowed boundary
solver, and keep-negative path extraction."""

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmprobe.errors import CapExceededError, ExtractionError, ReplayError
from qmprobe.exact import ExactReal, ONE, ZERO, _make
from qmprobe.groups import Generator, GroupModel, _ball, reduce_word
from qmprobe.intsolve import (
    UnsatCertificate,
    _collapse,
    _eliminate,
    check_unsat_certificate,
    solve_integer_system,
)
from qmprobe.novikov import (
    CayleyComplex,
    RayCycle,
    _trimmed_columns,
    boundary_faces,
    build_zs_cycle,
    enumerate_faces,
    keep_negative_and_extract_path,
    ray_cycle,
    settle,
    windowed_boundary_solve,
)
from qmprobe.paths import path_from_letters, straight_path
from qmprobe.quasimorphisms import BrooksQM, CombinationQM, HomogenizedQM, HomomorphismQM

from conftest import exact


def _vertex(g):
    """The 0-cell at g."""
    return ("v", g.free, g.ab)


def _face(g, t):
    """The square of the t-th commuting pair based at g."""
    return ("f", g.free, g.ab, t)


def _corner_values(cx, cell):
    """phi-bar at a cell's corners as exact numbers, the corners built by
    multiplying the base by the generators."""
    g = cx.element(cell)
    steps = [cx.model.generator_element(s) for s in cx.positive]
    if cell[0] == "v":
        corners = (g,)
    elif cell[0] == "e":
        corners = (g, g * steps[cell[3]])
    else:
        i, j = cx.square_types[cell[3]]
        corners = (g, g * steps[i], g * steps[j], g * steps[i] * steps[j])
    return [cx.qm.homogeneous_value(v) for v in corners]


def _corner_min(cx, cell):
    """A cell's value, the least of its corner values."""
    return min(_corner_values(cx, cell))


def _equal_below(cx, u, v, level):
    """Whether chains u and v of cx agree on every cell valued below `level`."""
    return all(
        u.get(cell, 0) == v.get(cell, 0)
        for cell in u.keys() | v.keys()
        if _corner_min(cx, cell) < level
    )


@pytest.fixture(scope="module")
def cx2(z2, z2_hom11):
    return CayleyComplex(z2_hom11, ZERO)


@pytest.fixture(scope="module")
def cxf(f2):
    return CayleyComplex(HomomorphismQM(f2, (ONE, ZERO)), ZERO)


@pytest.fixture(scope="module")
def cxm(f2z, f2z_phi):
    return CayleyComplex(f2z_phi, ZERO)


# -- cells --------------------------------------------------------------


def test_square_types_by_model(cx2, cxf, cxm):
    assert cxf.square_types == ()  # a free group has no commutation squares
    assert cx2.square_types == ((0, 1),)
    assert cxm.square_types == ((0, 2), (1, 2))  # each free letter against u


def test_cell_value_is_min_over_corners(z2, cx2, f2z, f2z_phi):
    g = z2.parse_element("a^-1")
    face = _face(g, 0)
    assert cx2.corners(face) == (
        g,
        z2.parse_element("a^-1 a"),
        z2.parse_element("a^-1 c"),
        z2.parse_element("c"),
    )
    assert cx2.value(face) == ExactReal(-1)
    edge = cx2.edge_cell(g, 0)
    assert cx2.value(edge) == ExactReal(-1)
    assert cx2.value(_vertex(g)) == ExactReal(-1)
    # the corner numerators the solver compares against its bounds are
    # phi-bar's at the corners: for a homomorphism, from the numerators
    # the ball walk carries for the base; for psi-bar, evaluated
    other = HomomorphismQM(f2z, (ZERO, ONE, ExactReal(-1, 1, 2)))
    psibar = HomogenizedQM(BrooksQM(f2z, f2z.parse_word("a b")))
    for qm in (
        f2z_phi,
        HomogenizedQM(f2z_phi),
        CombinationQM((ONE, ExactReal(-3, 1, 2)), (f2z_phi, other)),
        psibar,
    ):
        cx = CayleyComplex(qm, ZERO)
        corners = cx.face_corners
        assert (cx._step_nums is None) == (qm is psibar)
        for free, ab, p, q in _ball(f2z, 3, cx._step_nums):
            for t in range(len(cx.square_types)):
                cell = ("f", free, ab, t)
                ps, qs = corners(free, ab, (p, q), t)
                got = [_make(x, y, qm.den, qm.d) for x, y in zip(ps, qs)]
                assert got == [qm.homogeneous_value(v) for v in cx.corners(cell)]
                assert min(got) == cx.value(cell) == _corner_min(cx, cell)


def _cell(cx, kind, g, index):
    """The vertex, edge or face of cx at g; `index` picks the edge's
    generator or the face's type."""
    if kind == "v":
        return _vertex(g)
    if kind == "e":
        return cx.edge_cell(g, index % len(cx.positive))
    return _face(g, index % len(cx.square_types))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_below_tests_the_corner_minimum(f2z, f2z_phi, data):
    # potentials: a rational homomorphism, a sqrt(2) one, psi-bar, and
    # the sqrt(2) one plus 1/4 psi-bar; bounds: a corner value of the
    # cell or of another, so that ties are hit, or one of those plus or
    # minus 1
    rational = HomomorphismQM(f2z, (ONE, ExactReal(-1) / 2, ExactReal(2)))
    psibar = HomogenizedQM(BrooksQM(f2z, f2z.parse_word("a b")))
    combination = CombinationQM((ONE, ExactReal(1) / 4), (f2z_phi, psibar))
    potentials = (rational, f2z_phi, psibar, combination)
    cx = CayleyComplex(data.draw(st.sampled_from(potentials)), ZERO)
    ball = f2z.ball(3)
    kind, other = data.draw(st.sampled_from("vef")), data.draw(st.sampled_from("vef"))
    cell = _cell(cx, kind, data.draw(st.sampled_from(ball)), data.draw(st.integers(0, 5)))
    near = _cell(cx, other, data.draw(st.sampled_from(ball)), data.draw(st.integers(0, 5)))
    bound = data.draw(st.sampled_from(_corner_values(cx, cell) + _corner_values(cx, near)))
    bound = bound + data.draw(st.sampled_from((-1, 0, 1)))
    assert cx.below(bound)(cell) == (_corner_min(cx, cell) < bound)


def test_defect_bound_must_be_non_negative(z2_hom11):
    with pytest.raises(ValueError):
        CayleyComplex(z2_hom11, ExactReal(-1))


# -- boundaries ---------------------------------------------------------


def test_edge_boundary_is_difference_of_endpoints(z2, cx2):
    g = z2.parse_element("c")
    got = cx2.boundary_of_cell(cx2.edge_cell(g, 0))
    assert got == {
        _vertex(z2.parse_element("c a")): 1,
        _vertex(g): -1,
    }
    with pytest.raises(ValueError):
        cx2.boundary_of_cell(_vertex(g))


def test_path_chain_boundary_telescopes(z2, cx2):
    p = path_from_letters(z2.identity(), z2.parse_word("a c c^-1 a a^-1"))
    b = cx2.boundary(cx2.path_chain(p))
    assert b == {
        _vertex(p.terminus): 1,
        _vertex(p.origin): -1,
    }


def test_closed_path_chain_is_a_cycle(z2, cx2):
    p = path_from_letters(z2.identity(), z2.parse_word("a c a^-1 c^-1"))
    assert p.terminus == z2.identity()
    assert cx2.boundary(cx2.path_chain(p)) == {}


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_boundary_of_boundary_vanishes(z2, cx2, seed):
    rng = random.Random(seed)
    ball = z2.ball(3)
    terms = {}
    for _ in range(rng.randint(1, 6)):
        g = rng.choice(ball)
        terms[_face(g, 0)] = rng.randint(-3, 3)
    assert cx2.boundary(cx2.boundary(terms)) == {}


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_boundary_of_boundary_vanishes_mixed_model(f2z, cxm, seed):
    rng = random.Random(seed)
    ball = f2z.ball(2)
    terms = {}
    for _ in range(rng.randint(1, 5)):
        g = rng.choice(ball)
        terms[_face(g, rng.randint(0, 1))] = rng.randint(-2, 2)
    assert cxm.boundary(cxm.boundary(terms)) == {}


def test_edge_drop(cx2, cxf, cxm):
    # drop by one edge: max |phi(s)| + D
    assert cx2.edge_drop() == ONE
    assert cxf.edge_drop() == ONE
    assert cxm.edge_drop() == ExactReal(0, 1)  # phi = (1, 0, sqrt(2))


def test_equal_below_ignores_cells_at_or_above_level(z2, cx2):
    c2 = z2.parse_element("c c")
    u = {_vertex(z2.identity()): 1}
    v = {_vertex(z2.identity()): 1, _vertex(c2): 7}
    assert _equal_below(cx2, u, v, ExactReal(2))
    assert not _equal_below(cx2, u, v, ExactReal(3))


def test_path_chain_signs(z2, cx2):
    p = path_from_letters(z2.parse_element("a"), z2.parse_word("a^-1"))
    # a step by a^-1 traverses the positive a-edge backwards
    assert cx2.path_chain(p) == {cx2.edge_cell(z2.identity(), 0): -1}


def test_path_chain_drops_cancelled_edges(z2, cx2):
    # c c^-1 and a a^-1 walk an edge out and back: both cancel, and no
    # zero coefficient is left behind, so the chain compares equal to
    # the one-edge chain and a backtrack alone is the empty chain
    p = path_from_letters(z2.identity(), z2.parse_word("a c c^-1 a a^-1"))
    assert cx2.path_chain(p) == {cx2.edge_cell(z2.identity(), 0): 1}
    back = path_from_letters(z2.identity(), z2.parse_word("c c^-1"))
    assert cx2.path_chain(back) == {}


# -- ray cycles ---------------------------------------------------------


def test_ray_cycle_is_a_cycle(z2, cx2):
    a = z2.parse_element("a")
    cyc = ray_cycle(
        cx2, straight_path(z2.identity(), a), z2.parse_element("c"), ExactReal(6)
    )
    assert cyc.window == ExactReal(6)
    # both rays truncate at the window, so the support is finite: the
    # start ray's edges on 1, ..., c^5 and the end ray's on a, ..., a c^4
    assert len(cyc.chain) == 12
    # its boundary is the two ray tips, at the window, where the cycle
    # is no longer exact
    assert cx2.boundary(cyc.chain) == {
        _vertex(z2.parse_element("a c^5")): 1,
        _vertex(z2.parse_element("c^6")): -1,
    }


def test_ray_cycle_window_must_contain_connecting_path(z2, cx2):
    a = z2.parse_element("a")
    with pytest.raises(ValueError):
        ray_cycle(cx2, straight_path(z2.identity(), a), z2.parse_element("c"), ZERO)


def test_ray_cycle_validations(z2, cx2):
    a = z2.parse_element("a")
    p = straight_path(z2.identity(), a)
    with pytest.raises(ValueError):
        ray_cycle(cx2, p, z2.parse_element("c c"), ExactReal(4))
    with pytest.raises(ValueError):
        ray_cycle(cx2, p, z2.parse_element("c^-1"), ExactReal(4))


# -- z_s cycles ---------------------------------------------------------


def test_zs_cycle_zero_for_the_scaling_letter(z2, cx2):
    got = build_zs_cycle(cx2, Generator(1, False), z2.parse_element("c"), 3, None)
    assert got.chain == {}
    assert got.down_up is None and got.high_path is None and got.high_min is None


def test_zs_cycle_compares_two_paths(z2, cx2):
    c = z2.parse_element("c")
    high = path_from_letters(z2.parse_element("c c"), [Generator(0, False)])
    got = build_zs_cycle(cx2, Generator(0, False), c, 2, high, k_bound=ZERO)
    assert cx2.boundary(got.chain) == {}
    assert got.chain
    assert got.high_min == ExactReal(2)
    assert got.down_up.origin == z2.parse_element("c c")
    assert got.down_up.terminus == z2.parse_element("a c c")
    assert len(got.down_up) == 5  # down 2, across, up 2


def test_zs_cycle_validations(z2, cx2):
    c = z2.parse_element("c")
    a_letter = Generator(0, False)
    with pytest.raises(ValueError):
        build_zs_cycle(cx2, a_letter, c, 0, None)
    with pytest.raises(ValueError):
        build_zs_cycle(cx2, a_letter, c, 2, None)  # a high path is required
    wrong = path_from_letters(z2.identity(), [a_letter])
    with pytest.raises(ValueError):
        build_zs_cycle(cx2, a_letter, c, 2, wrong)
    # the high path must stay above n phi(c) - K
    high = path_from_letters(z2.parse_element("c c"), [a_letter])
    with pytest.raises(ValueError):
        build_zs_cycle(cx2, a_letter, c, 2, high, k_bound=ExactReal(-1))


# -- boundary solver ----------------------------------------------------


def test_solver_fills_zs_cycle(z2, cx2):
    c = z2.parse_element("c")
    high = path_from_letters(z2.parse_element("c c"), [Generator(0, False)])
    zs = build_zs_cycle(cx2, Generator(0, False), c, 2, high, k_bound=ZERO)
    got = windowed_boundary_solve(cx2, zs.chain, ExactReal(10), 6)
    assert got.status == "sat"
    assert got.floor == ZERO
    assert len(got.coefficients) == len(got.faces)
    # the unique filling is the two squares between the paths
    assert got.filling == {
        _face(z2.identity(), 0): 1,
        _face(c, 0): 1,
    }
    assert _equal_below(cx2, cx2.boundary(got.filling), zs.chain, ExactReal(10))


def test_solver_unsat_in_free_group(f2, cxf):
    b = f2.parse_element("b")
    cyc = ray_cycle(cxf, straight_path(f2.identity(), b), f2.parse_element("a"), ExactReal(8))
    got = windowed_boundary_solve(cxf, cyc.chain, ExactReal(8), 6)
    assert got.status == "unsat"
    assert got.faces == ()  # no 2-cells exist in a free group
    assert got.certificate is not None and got.certificate.modulus == 0


def test_a_closed_cube_leaves_a_core_for_the_elimination(monkeypatch):
    """Each of the twelve edges of a unit cube in Z^3 lies in two of its
    six squares, so no edge is free and the collapse stops at once.  A ray
    system over Z^3 whose faces hold such cubes is decided by the
    elimination, with the answer the full-radius solve gives: a filling
    for end = a b, and for end = a^2 b, whose cycle leaves ball(1), the
    elimination's certificate."""
    model = GroupModel(free_rank=0, abelian_rank=3, generator_names=("a", "b", "c"))
    cx = CayleyComplex(HomomorphismQM(model, (ZERO, ZERO, ONE)), ZERO)
    a, b, c = (model.generator_element(s) for s in cx.positive)
    g = model.identity()
    cube = [_face(g, t) for t in range(3)]
    cube += [_face(c, 0), _face(b, 1), _face(a, 2)]
    columns = [cx.boundary_of_cell(f) for f in cube]
    edges = Counter(e for col in columns for e in col)
    assert len(edges) == 12 and set(edges.values()) == {2}
    assert _collapse(columns, columns[0]) is None
    assert solve_integer_system(columns, columns[0]) == [1, 0, 0, 0, 0, 0]

    eliminated = []

    def counted(columns, rhs):
        eliminated.append(len(columns))
        return _eliminate(columns, rhs)

    monkeypatch.setattr("qmprobe.intsolve._eliminate", counted)
    end, window = a * b, ExactReal(1)
    z = ray_cycle(cx, straight_path(g, end), c, window).chain
    got = windowed_boundary_solve(cx, z, window, 1)
    assert (got.status, len(got.faces), eliminated) == ("sat", 15, [15])
    assert got.coefficients == _full_radius_solve(cx, z, window, 1, ZERO).coefficients
    eliminated.clear()
    end = a * a * b
    z = ray_cycle(cx, straight_path(g, end), c, window).chain
    got = windowed_boundary_solve(cx, z, window, 1)
    assert (got.status, len(got.faces), eliminated) == ("unsat", 15, [15])
    assert got.certificate == _full_radius_solve(cx, z, window, 1, ZERO).certificate


def test_solver_validates_rhs(z2, cx2):
    p = path_from_letters(z2.parse_element("c c c"), z2.parse_word("a"))
    chain = cx2.path_chain(p)
    # support at level 3 is not below a window of 2
    with pytest.raises(ValueError, match="right-hand side has support at or above the window"):
        windowed_boundary_solve(cx2, chain, ExactReal(2), 5)


def test_solver_cell_cap(z2, cx2):
    c = z2.parse_element("c")
    high = path_from_letters(z2.parse_element("c c"), [Generator(0, False)])
    zs = build_zs_cycle(cx2, Generator(0, False), c, 2, high)
    with pytest.raises(CapExceededError):
        windowed_boundary_solve(cx2, zs.chain, ExactReal(10), 6, cell_cap=10)


def test_the_face_walk_keeps_the_ball_and_cell_caps(f2z, cx2, cxm):
    # the homomorphism walk and the corner minimum refuse alike: a
    # radius above the ball cap before any face is listed, and the face
    # one past cell_cap as it is appended
    corner = CayleyComplex(HomogenizedQM(BrooksQM(f2z, f2z.parse_word("a b"))), ONE)
    ceiling = ExactReal(100)
    for cx in (cx2, cxm, corner):
        cap = cx.model.ball_cap
        with pytest.raises(CapExceededError, match=rf"^ball radius: requested {cap + 1}, cap {cap}$"):
            enumerate_faces(cx, None, ceiling, cap + 1)
        n = len(enumerate_faces(cx, None, ceiling, 2))
        assert len(enumerate_faces(cx, None, ceiling, 2, cell_cap=n)) == n
        with pytest.raises(CapExceededError, match=rf"^solver 2-cells: requested {n}, cap {n - 1}$"):
            enumerate_faces(cx, None, ceiling, 2, cell_cap=n - 1)


def _corner_faces(cx, floor, ceiling, radius):
    """The admissible faces as they were first enumerated: one cached
    corner-minimum value per (base, type)."""
    return [
        _face(g, t)
        for g in cx.model.ball(radius)
        for t in range(len(cx.square_types))
        if _corner_min(cx, _face(g, t)) < ceiling
        and (floor is None or floor <= _corner_min(cx, _face(g, t)))
    ]


def _face_values(cx, radius):
    return [
        _corner_min(cx, _face(g, t))
        for g in cx.model.ball(radius)
        for t in range(len(cx.square_types))
    ]


# (free rank, abelian rank, radius) of the models the face walk is
# checked on; the abelian blocks of rank 2 and 3 take the walk's rule
# for extending the last abelian run and for opening a later one
_WALK_MODELS = ((0, 2, 4), (2, 1, 4), (3, 2, 3), (0, 3, 4), (1, 2, 4))


@pytest.mark.parametrize("seed", range(20))
def test_faces_of_a_homomorphism_match_the_corner_minimum(seed):
    # seed % 5 picks the model and seed % 4 the bounds: integers, a
    # ceiling or a floor equal to some face's value, or a sqrt(3)
    # ceiling over a rational potential
    rng = random.Random(seed)
    free_rank, abelian_rank, radius = _WALK_MODELS[seed % 5]
    model = GroupModel(free_rank, abelian_rank, ball_cap=radius)
    mode = seed % 4
    values = [
        exact(
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
            0 if mode == 3 else Fraction(rng.choice((0, 1, -1)), rng.randint(1, 3)),
        )
        for _ in range(model.rank)
    ]
    cx = CayleyComplex(HomomorphismQM(model, values), ZERO)
    ceiling = ExactReal(rng.randint(-1, 3))
    floor = rng.choice((None, ExactReal(rng.randint(-4, 0))))
    if mode == 1:
        ceiling = rng.choice(_face_values(cx, 2))
    elif mode == 2:
        floor = rng.choice(_face_values(cx, 2))
        ceiling = floor + 1
    elif mode == 3:
        ceiling = ExactReal(rng.randint(-1, 2), rng.choice((1, -1)), 3)
        surd = CayleyComplex(HomomorphismQM(model, values[:-1] + [ExactReal(0, 1)]), ZERO)
        with pytest.raises(ValueError, match="cannot mix sqrt"):
            enumerate_faces(surd, floor, ceiling, 1)
    faces = enumerate_faces(cx, floor, ceiling, radius)
    assert faces == _corner_faces(cx, floor, ceiling, radius)
    if mode in (1, 2):
        # some face's value is the bound: the floor admits it, the ceiling not
        bound = ceiling if mode == 1 else floor
        met = [
            f
            for f in _corner_faces(cx, bound, bound + 1, radius)
            if _corner_min(cx, f) == bound
        ]
        assert met and all((f in faces) == (mode == 2) for f in met)


@pytest.mark.parametrize("seed", range(6))
def test_faces_of_a_corner_minimum_potential_match_the_oracle(seed):
    # a homogenized Brooks count, alone (even seeds) or plus a
    # homomorphism (odd seeds), is not additive: each face's corners are
    # evaluated
    rng = random.Random(seed)
    model = GroupModel(free_rank=2, abelian_rank=1, generator_names=("a", "b", "u"))
    qm = HomogenizedQM(BrooksQM(model, model.parse_word(rng.choice(("a b", "a a b", "a b^-1")))))
    if seed % 2:
        hom = HomomorphismQM(model, [ExactReal(rng.randint(-2, 2)) for _ in range(model.rank)])
        qm = CombinationQM((ONE, ExactReal(1) / 2), (qm, hom))
    cx = CayleyComplex(qm, ONE)
    assert cx._step_nums is None
    ceiling = rng.choice(_face_values(cx, 2)) + 1
    floor = rng.choice((None, ceiling - 2))
    faces = enumerate_faces(cx, floor, ceiling, 3)
    assert faces and faces == _corner_faces(cx, floor, ceiling, 3)


def _trimmed_boundary_column(cx, face, window):
    """A face's trimmed column as the solver first built it: the face's
    boundary, kept where the edge's value is below the window."""
    return {
        cell: coeff
        for cell, coeff in cx.boundary_of_cell(face).items()
        if _corner_min(cx, cell) < window
    }


@pytest.mark.parametrize("seed", range(8))
def test_trimmed_columns_match_the_boundary_of_each_face(seed):
    rng = random.Random(seed)
    model = GroupModel(free_rank=2, abelian_rank=1, generator_names=("a", "b", "u"))
    if seed % 2:
        model = GroupModel(free_rank=1, abelian_rank=2, generator_names=("a", "c", "u"))
    values = [
        exact(
            Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
            Fraction(rng.choice((0, 1, -1)), rng.randint(1, 2)),
        )
        for _ in range(model.rank)
    ]
    # a homomorphism, and a potential whose corners are evaluated
    potentials = [
        HomomorphismQM(model, values),
        HomogenizedQM(BrooksQM(model, model.parse_word("a a"))),
    ]
    for qm in potentials:
        cx = CayleyComplex(qm, ZERO)
        faces = [
            _face(g, t) for g in model.ball(3) for t in range(len(cx.square_types))
        ]
        edge_values = [
            _corner_min(cx, cx.edge_cell(g, i)) for g in model.ball(1) for i in range(3)
        ]
        windows = (ExactReal(rng.randint(-2, 3)), rng.choice(edge_values), ExactReal(20))
        got = [_trimmed_columns(cx, faces, window) for window in windows]
        for window, columns in zip(windows, got):
            want = [_trimmed_boundary_column(cx, f, window) for f in faces]
            assert [list(c.items()) for c in columns] == [list(c.items()) for c in want]
    # the step a cancels the last letter of the base a^-1: g x is the
    # identity, and its edge is spelt in normal form
    cx = CayleyComplex(potentials[0], ZERO)
    g = model.parse_element("a^-1")
    (column,) = _trimmed_columns(cx, [_face(g, 0)], ExactReal(20))
    assert list(column) == [
        cx.edge_cell(g, 0),
        cx.edge_cell(model.identity(), cx.square_types[0][1]),
        cx.edge_cell(g * model.generator_element(cx.positive[cx.square_types[0][1]]), 0),
        cx.edge_cell(g, cx.square_types[0][1]),
    ]


def _zs_filling_problem(z2, cx2):
    c = z2.parse_element("c")
    high = path_from_letters(z2.parse_element("c c"), [Generator(0, False)])
    return build_zs_cycle(cx2, Generator(0, False), c, 2, high, k_bound=ZERO).chain


def _settle_again(cx, z, got, solution):
    # every solve it replays is below the window 10
    return settle(cx, z, ExactReal(10), got.floor, list(got.faces), solution, [])


def test_settle_agrees_with_the_solver_on_a_filling(z2, cx2):
    z = _zs_filling_problem(z2, cx2)
    got = windowed_boundary_solve(cx2, z, ExactReal(10), 6)
    again = _settle_again(cx2, z, got, list(got.coefficients))
    assert (again.status, again.floor, again.faces, again.coefficients) == (
        "sat", got.floor, got.faces, got.coefficients
    )
    assert again.filling == got.filling
    assert again.certificate is None


def test_settle_agrees_with_the_solver_on_a_certificate(z2, cx2):
    # ball(0) holds one face, and the two squares the cycle needs are
    # not both there
    z = _zs_filling_problem(z2, cx2)
    got = windowed_boundary_solve(cx2, z, ExactReal(10), 0)
    assert got.status == "unsat" and len(got.faces) == 1
    again = _settle_again(cx2, z, got, got.certificate)
    assert (again.status, again.floor, again.faces, again.certificate) == (
        "unsat", got.floor, got.faces, got.certificate
    )
    assert again.coefficients is None and again.filling is None


def test_settle_refuses_a_coefficient_list_that_does_not_replay(z2, cx2):
    z = _zs_filling_problem(z2, cx2)
    got = windowed_boundary_solve(cx2, z, ExactReal(10), 6)
    coefficients = list(got.coefficients)
    with pytest.raises(ReplayError, match="one integer coefficient per face is required"):
        _settle_again(cx2, z, got, coefficients[:-1])
    as_float = coefficients.copy()
    as_float[as_float.index(1)] = 1.0
    with pytest.raises(ReplayError, match="one integer coefficient per face is required"):
        _settle_again(cx2, z, got, as_float)
    perturbed = coefficients.copy()
    perturbed[-1] += 1
    with pytest.raises(
        ReplayError,
        match="boundary of the filling does not match the cycle below the window",
    ):
        _settle_again(cx2, z, got, perturbed)


def test_settle_refuses_a_certificate_that_does_not_replay(z2, cx2):
    z = _zs_filling_problem(z2, cx2)
    got = windowed_boundary_solve(cx2, z, ExactReal(10), 0)
    # an edge of the one face's boundary: the functional no longer
    # annihilates that face's column
    edge = cx2.edge_cell(z2.identity(), 0)
    with pytest.raises(
        ReplayError, match="infeasibility certificate does not annihilate the system"
    ):
        _settle_again(cx2, z, got, UnsatCertificate({edge: 1}, 0))
    with pytest.raises(
        ReplayError, match="certificate modulus and coefficients must be integers"
    ):
        _settle_again(cx2, z, got, UnsatCertificate(got.certificate.functional, 0.0))


def _full_radius_solve(cx, z, window, radius, slack):
    """The solve `windowed_boundary_solve` first did: one system over
    every admissible face at the configured radius."""
    floor, faces = boundary_faces(cx, z, window, radius, slack)
    columns = [_trimmed_boundary_column(cx, f, window) for f in faces]
    return settle(cx, z, window, floor, faces, solve_integer_system(columns, z), [])


def _random_ray_system(seed, z3=False):
    """(complex, ray cycle, window, radius, slack) over F_2 x Z or Z^2,
    or over Z^3 when `z3`, with a random homomorphism, endpoints, window
    and radius <= 4."""
    rng = random.Random(seed)
    if z3:
        # the cubes of Z^3 are closed surfaces, which no collapse empties
        model = GroupModel(free_rank=0, abelian_rank=3, generator_names=("a", "b", "c"))
        values = tuple(ExactReal(rng.choice((-1, 0, 1))) for _ in range(2))
        qm = HomomorphismQM(model, values + (ONE,))
        scaling = model.parse_element("c")
    elif rng.random() < 0.5:
        model = GroupModel(free_rank=2, abelian_rank=1, generator_names=("a", "b", "u"))
        values = (ExactReal(rng.choice((-1, 0, 1))), ExactReal(rng.choice((0, 1))))
        qm = HomomorphismQM(model, values + (ExactReal(0, 1, 2),))
        scaling = model.parse_element("u")
    else:
        model = GroupModel(free_rank=0, abelian_rank=2, generator_names=("a", "c"))
        qm = HomomorphismQM(model, (ExactReal(rng.choice((-1, 0, 1, 2))), ONE))
        scaling = model.parse_element("c")
    cx = CayleyComplex(qm, ZERO)

    def word(max_len):
        letters = [rng.choice(model.generators()) for _ in range(rng.randint(0, max_len))]
        return reduce_word(model, letters)

    start, end = word(2), word(4)
    connecting = straight_path(start, end)
    top = max(map(cx.value, cx.path_chain(connecting)), default=ZERO)
    window = ExactReal(top.floor() + rng.randint(1, 3))
    cycle = ray_cycle(cx, connecting, scaling, window)
    return cx, cycle.chain, window, rng.randint(0, 4), ExactReal(rng.randint(0, 1))


def test_solving_small_first_agrees_with_the_full_radius_solve():
    """100 draws over F_2 x Z and Z^2, whose unsat systems the collapse
    empties, and 40 over Z^3, where two unsat systems leave a core."""
    verdicts = {"sat": 0, "unsat": 0, "sat below the radius": 0, "unsat on a core": 0}
    draws = [(seed, False) for seed in range(100)] + [(seed, True) for seed in range(40)]
    for seed, z3 in draws:
        cx, z, window, radius, slack = _random_ray_system(seed, z3)
        got = windowed_boundary_solve(cx, z, window, radius, slack)
        want = _full_radius_solve(cx, z, window, radius, slack)
        assert (got.status, got.floor, got.faces) == (want.status, want.floor, want.faces)
        verdicts[got.status] += 1
        if got.status == "sat":
            again = settle(cx, z, window, got.floor, list(got.faces), list(got.coefficients), [])
            assert again.filling == got.filling
            bases = [cx.element(f).length() for f in got.filling]
            if bases and max(bases) < radius:
                verdicts["sat below the radius"] += 1
        else:
            # the certificate is the collapse's when the collapse empties
            # the system at R, and the elimination's on a core
            columns = _trimmed_columns(cx, list(got.faces), window)
            assert check_unsat_certificate(columns, z, got.certificate)
            if _collapse(columns, z) is None:
                assert got.certificate == want.certificate
                verdicts["unsat on a core"] += 1
    assert all(verdicts.values()), verdicts


# -- extraction ---------------------------------------------------------


def test_extraction_connects_the_rays(z2, cx2):
    a = z2.parse_element("a")
    cyc = ray_cycle(
        cx2, straight_path(z2.identity(), a), z2.parse_element("c"), ExactReal(6)
    )
    sol = windowed_boundary_solve(cx2, cyc.chain, ExactReal(6), 8)
    assert sol.status == "sat"
    got = keep_negative_and_extract_path(cx2, sol.filling, cyc)
    assert got.path.origin == z2.identity() and got.path.terminus == a
    assert got.min_phi == ZERO
    assert got.bound == ZERO  # -D with D = 0
    assert got.meets_bound


def test_extraction_trivial_when_endpoints_coincide(z2, cx2):
    cyc = ray_cycle(
        cx2, path_from_letters(z2.identity(), ()), z2.parse_element("c"), ExactReal(4)
    )
    assert cyc.chain == {}
    got = keep_negative_and_extract_path(cx2, {}, cyc)
    assert len(got.path) == 0
    assert got.meets_bound


def test_extraction_rejects_negative_residual(z2, cx2):
    start = z2.parse_element("a^-1")
    end = z2.parse_element("a^-2")
    cyc = ray_cycle(cx2, straight_path(start, end), z2.parse_element("c"), ExactReal(4))
    # with an empty filling the residual is the cycle, whose connecting
    # edge sits at level -2
    with pytest.raises(ExtractionError, match="residual support dips below level zero"):
        keep_negative_and_extract_path(cx2, {}, cyc)


def test_extraction_follows_the_ray_when_the_residual_is_empty(z2, cx2):
    start = z2.parse_element("a^-1")
    end = z2.parse_element("a^-1 c")
    cyc = ray_cycle(cx2, straight_path(start, end), z2.parse_element("c"), ExactReal(4))
    # the connecting edge is the first edge of the start ray, so the
    # cycle cancels to zero, and the ray segment c joins the endpoints
    assert cyc.chain == {}
    got = keep_negative_and_extract_path(cx2, {}, cyc)
    assert got.path.edge_letters() == (Generator(1, False),)
    # phi-bar(a^-1) = -1: the bound is min(0, -1, 0) - D
    assert (got.min_phi, got.bound, got.meets_bound) == (ExactReal(-1), ExactReal(-1), True)


def test_extraction_rejects_empty_residual(z2, cx2):
    a, c = z2.parse_element("a"), z2.parse_element("c")
    connecting = straight_path(z2.identity(), a)
    # an empty cycle whose end is off the start's ray: nothing joins them
    tampered = RayCycle({}, c, connecting, ExactReal(4))
    with pytest.raises(
        ExtractionError, match="empty residual support cannot connect the rays"
    ):
        keep_negative_and_extract_path(cx2, {}, tampered)


def test_extraction_rejects_disconnected_residual(z2, cx2):
    a = z2.parse_element("a")
    connecting = straight_path(z2.identity(), a)
    cyc = ray_cycle(cx2, connecting, z2.parse_element("c"), ExactReal(4))
    # strip the connecting edge out of the cycle: the two rays remain,
    # and nothing in the residual joins them
    rays_only = dict(cyc.chain)
    del rays_only[cx2.edge_cell(z2.identity(), 0)]
    tampered = RayCycle(rays_only, z2.parse_element("c"), connecting, ExactReal(4))
    with pytest.raises(
        ExtractionError, match="residual support does not connect the two rays"
    ):
        keep_negative_and_extract_path(cx2, {}, tampered)


def test_extraction_needs_a_2_chain(z2, cx2):
    a = z2.parse_element("a")
    cyc = ray_cycle(
        cx2, straight_path(z2.identity(), a), z2.parse_element("c"), ExactReal(4)
    )
    with pytest.raises(ValueError, match="extraction needs a 2-chain filling"):
        keep_negative_and_extract_path(cx2, {cx2.edge_cell(z2.identity(), 0): 1}, cyc)
