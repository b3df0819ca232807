"""The windowed chain complex: cells and boundaries, truncation
windows, ray and z_s cycles, the windowed boundary solver, and
keep-negative path extraction."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmprobe.errors import CapExceededError, ExtractionError, ReplayError
from qmprobe.exact import ExactReal, ONE, ZERO, _make
from qmprobe.groups import Generator, GroupModel, _ball, reduce_word
from qmprobe.intsolve import UnsatCertificate, solve_integer_system
from qmprobe.novikov import (
    CayleyComplex,
    RayCycle,
    WindowedChain,
    _corner_numerators,
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


def _equal_below(u, v, level):
    """Whether chains u and v agree on every cell valued below `level`."""
    return all(
        u.terms.get(cell, 0) == v.terms.get(cell, 0)
        for cell in u.terms.keys() | v.terms.keys()
        if u.complex.value(cell) < level
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
    face = cx2.face_cell(g, 0)
    assert cx2.corners(face) == (
        g,
        z2.parse_element("a^-1 a"),
        z2.parse_element("a^-1 c"),
        z2.parse_element("c"),
    )
    assert cx2.value(face) == ExactReal(-1)
    edge = cx2.edge_cell(g, 0)
    assert cx2.value(edge) == ExactReal(-1)
    assert cx2.value(cx2.vertex_cell(g)) == ExactReal(-1)
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
        corners = _corner_numerators(cx)
        assert (cx._step_nums is None) == (qm is psibar)
        for free, ab, p, q in _ball(f2z, 3, cx._step_nums):
            for t in range(len(cx.square_types)):
                cell = ("f", free, ab, t)
                ps, qs = corners(free, ab, (p, q), t)
                got = [_make(x, y, qm.den, qm.d) for x, y in zip(ps, qs)]
                assert got == [qm.homogeneous_value(v) for v in cx.corners(cell)]
                assert min(got) == cx.value(cell)


def test_defect_bound_must_be_non_negative(z2_hom11):
    with pytest.raises(ValueError):
        CayleyComplex(z2_hom11, ExactReal(-1))


# -- boundaries ---------------------------------------------------------


def test_edge_boundary_is_difference_of_endpoints(z2, cx2):
    g = z2.parse_element("c")
    got = cx2.boundary_of_cell(cx2.edge_cell(g, 0))
    assert got == {
        cx2.vertex_cell(z2.parse_element("c a")): 1,
        cx2.vertex_cell(g): -1,
    }
    with pytest.raises(ValueError):
        cx2.boundary_of_cell(cx2.vertex_cell(g))


def test_path_chain_boundary_telescopes(z2, cx2):
    p = path_from_letters(z2.identity(), z2.parse_word("a c c^-1 a a^-1"))
    b = cx2.chain_from_path(p).boundary()
    assert b.terms == {
        cx2.vertex_cell(p.terminus): 1,
        cx2.vertex_cell(p.origin): -1,
    }


def test_closed_path_chain_is_a_cycle(z2, cx2):
    p = path_from_letters(z2.identity(), z2.parse_word("a c a^-1 c^-1"))
    assert p.terminus == z2.identity()
    assert cx2.chain_from_path(p).boundary().is_zero()


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_boundary_of_boundary_vanishes(z2, cx2, seed):
    rng = random.Random(seed)
    ball = z2.ball(3)
    terms = {}
    for _ in range(rng.randint(1, 6)):
        g = rng.choice(ball)
        terms[cx2.face_cell(g, 0)] = rng.randint(-3, 3)
    chain = cx2.chain(2, terms, None)
    assert chain.boundary().boundary().is_zero()


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_boundary_of_boundary_vanishes_mixed_model(f2z, cxm, seed):
    rng = random.Random(seed)
    ball = f2z.ball(2)
    terms = {}
    for _ in range(rng.randint(1, 5)):
        g = rng.choice(ball)
        terms[cxm.face_cell(g, rng.randint(0, 1))] = rng.randint(-2, 2)
    chain = cxm.chain(2, terms, None)
    assert chain.boundary().boundary().is_zero()


def test_drops(cx2, cxf):
    # drop by one edge: |phi(s)| + D; by one face: |phi(x)| + |phi(y)| + 2D
    assert cx2.edge_drop() == ONE
    assert cx2.face_drop() == ExactReal(2)
    assert cxf.edge_drop() == ONE
    assert cxf.face_drop() == ZERO  # no squares at all


def test_boundary_shrinks_window_by_drop(z2, cx2):
    p = path_from_letters(z2.identity(), z2.parse_word("a"))
    chain = cx2.chain_from_path(p, ExactReal(7))
    assert chain.boundary().window == ExactReal(6)


# -- windowed chain arithmetic ------------------------------------------


def test_constructor_truncates_at_window(z2, cx2):
    c3 = z2.parse_element("c c c")
    terms = {cx2.vertex_cell(z2.identity()): 1, cx2.vertex_cell(c3): 5}
    chain = cx2.chain(0, terms, ExactReal(2))
    assert chain.terms == {cx2.vertex_cell(z2.identity()): 1}
    assert chain.support_min() == ZERO
    # with no window everything is kept
    assert cx2.chain(0, terms, None).terms == terms


def test_chain_rejects_mixed_dimensions(z2, cx2):
    terms = {cx2.vertex_cell(z2.identity()): 1}
    with pytest.raises(ValueError):
        cx2.chain(1, terms, None)


def test_add_takes_window_minimum(z2, cx2):
    u = cx2.chain(0, {cx2.vertex_cell(z2.identity()): 1}, ExactReal(5))
    v = cx2.chain(0, {cx2.vertex_cell(z2.parse_element("a")): 1}, ExactReal(3))
    w = u.add(v)
    assert w.window == ExactReal(3)
    assert u.add(u.negate()).is_zero()
    assert u.subtract(u).is_zero()


def test_equal_below_ignores_cells_at_or_above_level(z2, cx2):
    c2 = z2.parse_element("c c")
    u = cx2.chain(0, {cx2.vertex_cell(z2.identity()): 1}, None)
    v = cx2.chain(
        0, {cx2.vertex_cell(z2.identity()): 1, cx2.vertex_cell(c2): 7}, None
    )
    assert _equal_below(u, v, ExactReal(2))
    assert not _equal_below(u, v, ExactReal(3))


def test_chain_from_path_signs(z2, cx2):
    p = path_from_letters(z2.parse_element("a"), z2.parse_word("a^-1"))
    chain = cx2.chain_from_path(p)
    # a step by a^-1 traverses the positive a-edge backwards
    assert chain.terms == {cx2.edge_cell(z2.identity(), 0): -1}


# -- ray cycles ---------------------------------------------------------


def test_ray_cycle_is_a_cycle(z2, cx2):
    a = z2.parse_element("a")
    cyc = ray_cycle(
        cx2, z2.identity(), a, straight_path(z2.identity(), a), z2.parse_element("c"),
        ExactReal(6),
    )
    assert cyc.chain.boundary().is_zero()
    assert cyc.chain.window == ExactReal(6)
    # both rays truncate at the window, so the support is finite
    assert len(cyc.chain.terms) == 12


def test_ray_cycle_window_must_contain_connecting_path(z2, cx2):
    a = z2.parse_element("a")
    with pytest.raises(ValueError):
        ray_cycle(
            cx2, z2.identity(), a, straight_path(z2.identity(), a),
            z2.parse_element("c"), ZERO,
        )


def test_ray_cycle_validations(z2, cx2):
    a = z2.parse_element("a")
    p = straight_path(z2.identity(), a)
    with pytest.raises(ValueError):
        ray_cycle(cx2, z2.identity(), a, p, z2.parse_element("c c"), ExactReal(4))
    with pytest.raises(ValueError):
        ray_cycle(cx2, z2.identity(), a, p, z2.parse_element("c^-1"), ExactReal(4))
    with pytest.raises(ValueError):
        ray_cycle(cx2, a, z2.identity(), p, z2.parse_element("c"), ExactReal(4))


# -- z_s cycles ---------------------------------------------------------


def test_zs_cycle_zero_for_the_scaling_letter(z2, cx2):
    got = build_zs_cycle(cx2, Generator(1, False), z2.parse_element("c"), 3, None)
    assert got.chain.is_zero()
    assert got.down_up is None and got.high_path is None and got.high_min is None


def test_zs_cycle_compares_two_paths(z2, cx2):
    c = z2.parse_element("c")
    high = path_from_letters(z2.parse_element("c c"), [Generator(0, False)])
    got = build_zs_cycle(cx2, Generator(0, False), c, 2, high, k_bound=ZERO)
    assert got.chain.boundary().is_zero()
    assert not got.chain.is_zero()
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
    assert got.filling.terms == {
        cx2.face_cell(z2.identity(), 0): 1,
        cx2.face_cell(c, 0): 1,
    }
    target = cx2.chain(1, dict(zs.chain.terms), ExactReal(10))
    assert _equal_below(got.filling.boundary(), target, ExactReal(10))


def test_solver_unsat_in_free_group(f2, cxf):
    b = f2.parse_element("b")
    cyc = ray_cycle(
        cxf, f2.identity(), b, straight_path(f2.identity(), b),
        f2.parse_element("a"), ExactReal(8),
    )
    got = windowed_boundary_solve(cxf, cyc.chain, ExactReal(8), 6)
    assert got.status == "unsat"
    assert got.faces == ()  # no 2-cells exist in a free group
    assert got.certificate is not None and got.certificate.modulus == 0


def test_solver_validates_rhs(z2, cx2):
    p = path_from_letters(z2.parse_element("c c c"), z2.parse_word("a"))
    chain = cx2.chain_from_path(p)
    # support at level 3 is not below a window of 2
    with pytest.raises(ValueError):
        windowed_boundary_solve(cx2, chain, ExactReal(2), 5)
    small = cx2.chain_from_path(p, ExactReal(3))
    with pytest.raises(ValueError):
        windowed_boundary_solve(cx2, small, ExactReal(5), 5)
    zero_chain = cx2.zero(0, None)
    with pytest.raises(ValueError):
        windowed_boundary_solve(cx2, zero_chain, ExactReal(5), 5)


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
        cx.face_cell(g, t)
        for g in cx.model.ball(radius)
        for t in range(len(cx.square_types))
        if cx._corner_min(cx.face_cell(g, t)) < ceiling
        and (floor is None or floor <= cx._corner_min(cx.face_cell(g, t)))
    ]


def _face_values(cx, radius):
    return [
        cx._corner_min(cx.face_cell(g, t))
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
            if cx._corner_min(f) == bound
        ]
        assert met and all((f in faces) == (mode == 2) for f in met)
    # the face values are not cached; they are read again only for a filling
    assert not any(cell[0] == "f" for cell in cx._values)


@pytest.mark.parametrize("seed", range(6))
def test_faces_of_a_corner_minimum_potential_match_the_oracle(seed):
    # a homogenized Brooks count, alone (even seeds) or plus a
    # homomorphism (odd seeds), is not additive: each face's corners are
    # evaluated, and no value is cached
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
    assert not any(cell[0] == "f" for cell in cx._values)


def _trimmed_boundary_column(cx, face, window):
    """A face's trimmed column as the solver first built it: the face's
    boundary, kept where the edge's cached value is below the window."""
    return {
        cell: coeff
        for cell, coeff in cx.boundary_of_cell(face).items()
        if cx.value(cell) < window
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
            cx.face_cell(g, t) for g in model.ball(3) for t in range(len(cx.square_types))
        ]
        edge_values = [
            cx._corner_min(cx.edge_cell(g, i)) for g in model.ball(1) for i in range(3)
        ]
        windows = (ExactReal(rng.randint(-2, 3)), rng.choice(edge_values), ExactReal(20))
        got = [_trimmed_columns(cx, faces, window) for window in windows]
        # the columns read no value and cache nothing
        assert not cx._values
        for window, columns in zip(windows, got):
            want = [_trimmed_boundary_column(cx, f, window) for f in faces]
            assert [list(c.items()) for c in columns] == [list(c.items()) for c in want]
    # the step a cancels the last letter of the base a^-1: g x is the
    # identity, and its edge is spelt in normal form
    cx = CayleyComplex(potentials[0], ZERO)
    g = model.parse_element("a^-1")
    (column,) = _trimmed_columns(cx, [cx.face_cell(g, 0)], ExactReal(20))
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
    return settle(cx, z, got.window, got.floor, list(got.faces), solution, [])


def test_settle_agrees_with_the_solver_on_a_filling(z2, cx2):
    z = _zs_filling_problem(z2, cx2)
    got = windowed_boundary_solve(cx2, z, ExactReal(10), 6)
    again = _settle_again(cx2, z, got, list(got.coefficients))
    assert (again.status, again.floor, again.faces, again.coefficients) == (
        "sat", got.floor, got.faces, got.coefficients
    )
    assert again.filling.terms == got.filling.terms
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
    return settle(cx, z, window, floor, faces, solve_integer_system(columns, z.terms), [])


def _random_ray_system(seed):
    """(complex, ray cycle, window, radius, slack) over F_2 x Z or Z^2
    with a random homomorphism, endpoints, window and radius <= 4."""
    rng = random.Random(seed)
    if rng.random() < 0.5:
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
    top = max((cx.value(c) for c in cx.chain_from_path(connecting).terms), default=ZERO)
    window = ExactReal(top.floor() + rng.randint(1, 3))
    cycle = ray_cycle(cx, start, end, connecting, scaling, window)
    return cx, cycle.chain, window, rng.randint(0, 4), ExactReal(rng.randint(0, 1))


def test_solving_small_first_agrees_with_the_full_radius_solve():
    verdicts = {"sat": 0, "unsat": 0, "sat below the radius": 0}
    for seed in range(100):
        cx, z, window, radius, slack = _random_ray_system(seed)
        got = windowed_boundary_solve(cx, z, window, radius, slack)
        want = _full_radius_solve(cx, z, window, radius, slack)
        assert (got.status, got.floor, got.faces) == (want.status, want.floor, want.faces)
        verdicts[got.status] += 1
        if got.status == "sat":
            again = settle(cx, z, window, got.floor, list(got.faces), list(got.coefficients), [])
            assert again.filling.terms == got.filling.terms
            bases = [cx.element(f).length() for f in got.filling.terms]
            if bases and max(bases) < radius:
                verdicts["sat below the radius"] += 1
        else:
            assert got.certificate == want.certificate
    assert all(verdicts.values()), verdicts


# -- extraction ---------------------------------------------------------


def test_extraction_connects_the_rays(z2, cx2):
    a = z2.parse_element("a")
    cyc = ray_cycle(
        cx2, z2.identity(), a, straight_path(z2.identity(), a),
        z2.parse_element("c"), ExactReal(6),
    )
    sol = windowed_boundary_solve(cx2, cyc.chain, ExactReal(6), 8)
    assert sol.status == "sat"
    got = keep_negative_and_extract_path(cx2, sol.filling, cyc)
    assert got.path.origin == z2.identity() and got.path.terminus == a
    assert got.min_phi == ZERO
    assert got.bound == ZERO  # -D with D = 0
    assert got.meets_bound
    assert len(got.residual_cells) == 12


def test_extraction_trivial_when_endpoints_coincide(z2, cx2):
    cyc = ray_cycle(
        cx2, z2.identity(), z2.identity(), path_from_letters(z2.identity(), ()),
        z2.parse_element("c"), ExactReal(4),
    )
    assert cyc.chain.is_zero()
    got = keep_negative_and_extract_path(cx2, cx2.zero(2, None), cyc)
    assert len(got.path) == 0
    assert got.residual_cells == ()
    assert got.meets_bound


def test_extraction_rejects_negative_residual(z2, cx2):
    start = z2.parse_element("a^-1")
    end = z2.parse_element("a^-2")
    cyc = ray_cycle(
        cx2, start, end, straight_path(start, end), z2.parse_element("c"),
        ExactReal(4),
    )
    # with an empty filling the residual is the cycle, whose connecting
    # edge sits at level -2
    with pytest.raises(ExtractionError, match="residual support dips below level zero"):
        keep_negative_and_extract_path(cx2, cx2.zero(2, None), cyc)


def test_extraction_rejects_empty_residual(z2, cx2):
    start = z2.parse_element("a^-1")
    end = z2.parse_element("a^-1 c")
    cyc = ray_cycle(
        cx2, start, end, straight_path(start, end), z2.parse_element("c"),
        ExactReal(4),
    )
    # the connecting edge is the first edge of the start ray, so the
    # cycle cancels to zero
    assert cyc.chain.is_zero()
    with pytest.raises(
        ExtractionError, match="empty residual support cannot connect the rays"
    ):
        keep_negative_and_extract_path(cx2, cx2.zero(2, None), cyc)


def test_extraction_rejects_disconnected_residual(z2, cx2):
    a = z2.parse_element("a")
    connecting = straight_path(z2.identity(), a)
    cyc = ray_cycle(
        cx2, z2.identity(), a, connecting, z2.parse_element("c"), ExactReal(4)
    )
    # strip the connecting edge out of the cycle: the two rays remain,
    # and nothing in the residual joins them
    rays_only = cyc.chain.subtract(cx2.chain_from_path(connecting, ExactReal(4)))
    tampered = RayCycle(
        rays_only, z2.identity(), a, z2.parse_element("c"), connecting, ExactReal(4)
    )
    with pytest.raises(
        ExtractionError, match="residual support does not connect the two rays"
    ):
        keep_negative_and_extract_path(cx2, cx2.zero(2, None), tampered)


def test_extraction_needs_a_2_chain(z2, cx2):
    a = z2.parse_element("a")
    cyc = ray_cycle(
        cx2, z2.identity(), a, straight_path(z2.identity(), a),
        z2.parse_element("c"), ExactReal(4),
    )
    with pytest.raises(ValueError, match="extraction needs a 2-chain filling"):
        keep_negative_and_extract_path(cx2, cx2.zero(1, None), cyc)
