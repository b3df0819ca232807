"""Level-constrained path search, the threshold constants, the q-library,
peak reduction, the F_2 x Z kernel normalization, and the free-group
obstruction probe."""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmprobe.errors import CapExceededError, LibraryIncompleteError
from qmprobe.exact import ExactReal, ONE, ZERO
from qmprobe.groups import Generator
from qmprobe.paths import Path, path_from_letters, phi_extrema, straight_path
from qmprobe.quasimorphisms import HomomorphismQM
from qmprobe.search import (
    NotFoundWithinBall,
    PathWitness,
    _constrained_bfs,
    bounded_path_search,
    build_q_library,
    compute_constants,
    essential_flags,
    f2z_kernel_path_normalize,
    free_group_obstruction_probe,
    height_and_peaks,
    peak_reduction,
    remove_inessential_backtracks,
)

from conftest import product_letters

NEG_ONE = ExactReal(-1)


# -- bounded search -----------------------------------------------------


def test_search_finds_shortest_path(z2, z2_hom11):
    got = bounded_path_search(
        z2_hom11, z2.identity(), z2.parse_element("a c"), ZERO, 4
    )
    assert isinstance(got, PathWitness)
    assert len(got.path) == 2
    assert got.path.origin == z2.identity()
    assert got.path.terminus == z2.parse_element("a c")
    assert (got.min_phi, got.max_phi) == phi_extrema(z2_hom11, got.path)
    assert got.min_phi >= ZERO


def test_search_trivial_when_start_equals_target(z2, z2_hom11):
    got = bounded_path_search(z2_hom11, z2.identity(), z2.identity(), ZERO, 2)
    assert isinstance(got, PathWitness)
    assert len(got.path) == 0
    assert got.min_phi == got.max_phi == ZERO


def test_search_detours_around_excluded_vertices(z2, z2_hom11):
    # requiring phi-bar >= 1 bars the identity, so a -> c must route
    # through a c instead; the admissible distance is still 2
    got = bounded_path_search(
        z2_hom11, z2.parse_element("a"), z2.parse_element("c"), NEG_ONE, 3
    )
    assert isinstance(got, PathWitness)
    assert len(got.path) == 2
    assert z2.identity() not in got.path.vertices
    assert got.min_phi == ONE


def test_search_level_line_has_no_edges(z2, z2_hom11):
    # pinning phi-bar to exactly 1 forbids every step, since each
    # generator changes the value by 1
    got = bounded_path_search(
        z2_hom11, z2.parse_element("a"), z2.parse_element("c"), NEG_ONE, 3, k_max=ONE
    )
    assert isinstance(got, NotFoundWithinBall)
    assert got.reason == "admissible region exhausted"
    assert got.explored == 1  # only the target entered the distance map


def test_search_rejects_bad_endpoint_level(z2, z2_hom11):
    got = bounded_path_search(
        z2_hom11, z2.identity(), z2.parse_element("a"), NEG_ONE, 3
    )
    assert isinstance(got, NotFoundWithinBall)
    assert got.explored == 0
    assert got.reason == "an endpoint violates the level constraint"


def test_search_validates_radius_and_endpoints(z2, z2_hom11):
    with pytest.raises(CapExceededError):
        bounded_path_search(z2_hom11, z2.identity(), z2.identity(), ZERO, 50)
    with pytest.raises(ValueError):
        bounded_path_search(
            z2_hom11, z2.parse_element("a a a a a"), z2.identity(), ZERO, 3
        )


def _oracle_admissible(qm, v, radius, lo, hi):
    if v.length() > radius:
        return False
    val = qm.homogeneous_value(v)
    if lo is not None and val < lo:
        return False
    if hi is not None and val > hi:
        return False
    return True


def _oracle_bfs(qm, start, target, radius, lo, hi):
    """The constrained BFS as first written: an element and an ExactReal
    per neighbour, compared with the bounds as values."""
    model = qm.model
    if not (
        _oracle_admissible(qm, start, radius, lo, hi)
        and _oracle_admissible(qm, target, radius, lo, hi)
    ):
        return NotFoundWithinBall(0, "an endpoint violates the level constraint")
    letters = model.generators()
    steps = [model.generator_element(gen) for gen in letters]
    dist = {target: 0}
    frontier = deque([target])
    found = start == target
    while frontier and not found:
        v = frontier.popleft()
        for step in steps:
            w = v * step
            if w in dist or not _oracle_admissible(qm, w, radius, lo, hi):
                continue
            dist[w] = dist[v] + 1
            if w == start:
                found = True
                break
            frontier.append(w)
    if not found:
        return NotFoundWithinBall(len(dist), "admissible region exhausted")
    walk, v = [], start
    while dist[v] > 0:
        letter, v = next(
            (x, v * step) for x, step in zip(letters, steps) if dist.get(v * step) == dist[v] - 1
        )
        walk.append(letter)
    return path_from_letters(start, walk)


# how far a window bound sits outside the endpoints' values; a negative
# slack leaves an endpoint outside, None leaves the side open
_SLACKS = [None, ZERO, ZERO, ExactReal(1) / 2, ONE, ExactReal(-1, 1, 2),
           ExactReal(-1) / 2]


@pytest.mark.parametrize("name", ["psibar_ab", "f2z_phi"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_constrained_bfs_matches_the_oracle(request, name, data):
    # a homogenized Brooks quasimorphism and a surd homomorphism, on
    # random windows [lo, hi] around the endpoints' values
    qm = request.getfixturevalue(name)
    radius = data.draw(st.integers(1, 4))
    ball = qm.model.ball(radius)
    start, target = (data.draw(st.sampled_from(ball)) for _ in range(2))
    low, high = sorted(qm.homogeneous_value(g) for g in (start, target))
    below, above = (data.draw(st.sampled_from(_SLACKS)) for _ in range(2))
    lo = None if below is None else low - below
    hi = None if above is None else high + above
    expected = _oracle_bfs(qm, start, target, radius, lo, hi)
    got = _constrained_bfs(qm, start, target, radius, lo, hi)
    assert got == expected
    if isinstance(got, Path):
        assert product_letters(got) == got.edge_letters()


# -- constants ----------------------------------------------------------


def test_constants_frozen_for_z2(z2, z2_hom01):
    bundle = compute_constants(z2_hom01, ONE, ExactReal(3), z2.parse_element("c"))
    assert bundle.descent_depth == 10
    assert bundle.level_guard == ExactReal(6)
    assert bundle.height_bound == ExactReal(4)
    assert bundle.scaling_distance == 1
    assert bundle.max_pair_value == ExactReal(2)
    assert bundle.max_generator_value == ONE


def test_constants_match_formula(z2, z2_hom11):
    dstar, kprime = ONE, ExactReal(4)
    bundle = compute_constants(z2_hom11, dstar, kprime, z2.parse_element("c"))
    maxst = max(
        z2_hom11.homogeneous_value(z2.generator_element(s) * z2.generator_element(t))
        for s in z2.generators()
        for t in z2.generators()
    )
    assert bundle.max_pair_value == maxst
    expected_depth = (
        ExactReal(5) / 4 / dstar * (kprime + maxst + dstar)
    ).floor() + 3
    assert bundle.descent_depth == expected_depth
    assert bundle.level_guard == kprime + dstar + dstar + 1
    assert bundle.height_bound == dstar * 3 + bundle.max_generator_value


def test_constants_validate_inputs(z2, z2_hom01):
    c = z2.parse_element("c")
    with pytest.raises(ValueError):
        compute_constants(z2_hom01, ZERO, ExactReal(3), c)
    with pytest.raises(ValueError):
        compute_constants(z2_hom01, ONE, ExactReal(2), c)  # K' must exceed 2 D*
    # phi-bar(c) = 1 misses (4 D*/5, D*] = (8/5, 2] when D* = 2
    with pytest.raises(ValueError):
        compute_constants(z2_hom01, ExactReal(2), ExactReal(5), c)
    # phi-bar(a) = 0 is never inside the window
    with pytest.raises(ValueError):
        compute_constants(z2_hom01, ONE, ExactReal(3), z2.parse_element("a"))


# -- essential vertices and backtracks ----------------------------------


def test_essential_flags(z2):
    c = z2.parse_element("c")
    p = path_from_letters(z2.identity(), z2.parse_word("c c a"))
    assert essential_flags(p, c) == (True, False, True, True)


def test_essential_flags_endpoints_always_essential(z2):
    c = z2.parse_element("c")
    p = path_from_letters(z2.identity(), z2.parse_word("c c"))
    assert essential_flags(p, c) == (True, False, True)


def _oracle_essential_flags(path, scaling):
    """essential_flags as first written, on the products of adjacent
    vertices."""
    c, cinv = scaling, scaling.inverse()
    k = len(path.vertices)
    flags = [True] * k
    for i in range(1, k - 1):
        before = path.vertices[i - 1].inverse() * path.vertices[i]
        after = path.vertices[i].inverse() * path.vertices[i + 1]
        if before in (c, cinv) and after in (c, cinv):
            flags[i] = False
    return tuple(flags)


def _oracle_backtracks(path, scaling):
    """remove_inessential_backtracks as first written, on vertices, with
    each kept vertex's letter found from the product of its neighbours."""
    c, cinv = scaling, scaling.inverse()
    out, letters = [path.vertices[0]], []
    for v, x in zip(path.vertices[1:], product_letters(path)):
        out.append(v)
        letters.append(x)
        while len(out) >= 3 and out[-1] == out[-3] and out[-3].inverse() * out[-2] in (c, cinv):
            del out[-2:], letters[-2:]
    return path_from_letters(path.origin, letters)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_essential_flags_and_backtracks_match_the_oracles(z2, f2z, data):
    # paths rich in steps by the letter of index 1; scaling is that
    # letter, its inverse or another letter, and a longer element is
    # refused
    model = data.draw(st.sampled_from([z2, f2z]))
    weights = [g for g in model.generators() for _ in range(3 if g.index == 1 else 1)]
    letters = data.draw(st.lists(st.sampled_from(weights), max_size=12))
    p = path_from_letters(model.identity(), letters)
    scaling = data.draw(
        st.sampled_from(
            [
                model.generator_element(Generator(1, False)),
                model.generator_element(Generator(1, True)),
                model.generator_element(Generator(0, False)),
            ]
        )
    )
    assert essential_flags(p, scaling) == _oracle_essential_flags(p, scaling)
    reduced = remove_inessential_backtracks(p, scaling)
    expected = _oracle_backtracks(p, scaling)
    assert reduced == expected and reduced.edge_letters() == expected.edge_letters()
    with pytest.raises(ValueError, match="single generator letter"):
        remove_inessential_backtracks(p, model.generator_element(Generator(1, False)) ** 2)


def test_backtrack_removal_simple(z2):
    c = z2.parse_element("c")
    p = path_from_letters(z2.identity(), z2.parse_word("c c^-1 a"))
    assert remove_inessential_backtracks(p, c).vertices == (
        z2.identity(),
        z2.parse_element("a"),
    )


def test_backtrack_removal_cascades(z2):
    c = z2.parse_element("c")
    p = path_from_letters(z2.identity(), z2.parse_word("c c c^-1 c^-1 a"))
    assert remove_inessential_backtracks(p, c).vertices == (
        z2.identity(),
        z2.parse_element("a"),
    )


def test_backtrack_removal_ignores_other_letters(z2):
    c = z2.parse_element("c")
    p = path_from_letters(z2.identity(), z2.parse_word("a a^-1 c"))
    assert remove_inessential_backtracks(p, c) == p


# -- q-library ----------------------------------------------------------


@pytest.fixture(scope="module")
def z2_library(z2, z2_hom01):
    c = z2.parse_element("c")
    bundle = compute_constants(z2_hom01, ONE, ExactReal(3), c)
    return build_q_library(z2_hom01, bundle, c, radius=30)


def test_z2_library_is_complete(z2, z2_library):
    lib = z2_library
    assert lib.complete
    assert len(lib.entries) == 16
    assert lib.depth == 10
    # entries follow the canonical ordered-pair enumeration
    gens = z2.generators()
    assert [(e.s, e.t) for e in lib.entries] == [(s, t) for s in gens for t in gens]


def test_z2_library_raises_level_guard(z2_library):
    # the deepest entry bottoms out at c^-12, so the guard moves to 13
    assert z2_library.bundle.level_guard == ExactReal(13)
    deepest = min(e.min_phi for e in z2_library.entries)
    assert deepest == ExactReal(-12)


def test_z2_library_entry_shape(z2, z2_hom01, z2_library):
    lib = z2_library
    c_letter = Generator(1, False)
    entry = lib.entries[0]
    q = entry.path
    assert q.origin == z2.identity()
    s_el = z2.generator_element(entry.s)
    t_el = z2.generator_element(entry.t)
    assert q.terminus == s_el * t_el
    letters = q.edge_letters()
    assert letters[: lib.depth] == (c_letter.inverted(),) * lib.depth
    assert letters[-lib.depth :] == (c_letter,) * lib.depth
    # interior essential vertices sit strictly below -D*
    flags = essential_flags(q, lib.scaling)
    for i in range(1, len(q.vertices) - 1):
        if flags[i]:
            assert z2_hom01.homogeneous_value(q.vertices[i]) < -lib.bundle.dstar
    assert entry.min_phi == phi_extrema(z2_hom01, q)[0]


def test_z2_library_lookup(z2, z2_library):
    q = z2_library.lookup(Generator(1, False), Generator(0, False))
    assert q.terminus == z2.parse_element("c a")


def test_f2_library_fails_on_essential_vertices(f2):
    # phi = (a -> 1, b -> 0) with scaling a: the geodesic for the pair
    # (b, b) must cross the identity, an essential vertex at value 0
    qm = HomomorphismQM(f2, (ONE, ZERO))
    a = f2.parse_element("a")
    bundle = compute_constants(qm, ONE, ExactReal(3), a)
    lib = build_q_library(qm, bundle, a, radius=4, depth=2)
    assert not lib.complete
    assert lib.depth == 2
    by_pair = {(e.s, e.t): e for e in lib.entries}
    bb = by_pair[(Generator(1, False), Generator(1, False))]
    assert bb.failure is not None and bb.failure.startswith("essential vertex")
    assert bb.path is not None and bb.min_phi is None
    with pytest.raises(LibraryIncompleteError):
        lib.lookup(Generator(1, False), Generator(1, False))
    # pairs whose sandwich needs no interior work still succeed
    ok = by_pair[(Generator(0, False), Generator(0, True))]
    assert ok.failure is None
    assert lib.lookup(ok.s, ok.t).terminus == f2.identity()


def test_library_rejects_composite_scaling(z2, z2_hom11):
    bundle = compute_constants(z2_hom11, ONE, ExactReal(3), z2.parse_element("c"))
    with pytest.raises(ValueError):
        build_q_library(z2_hom11, bundle, z2.parse_element("a c c"), radius=10)


# -- peak reduction -----------------------------------------------------


def _spike_path(z2):
    """1 -> c^6 -> c^6 a -> a: a single excursion to height 6."""
    letters = (
        z2.parse_word("c c c c c c")
        + z2.parse_word("a")
        + z2.parse_word("c^-1 c^-1 c^-1 c^-1 c^-1 c^-1")
    )
    return path_from_letters(z2.identity(), letters)


def test_height_and_peaks_on_spike(z2, z2_hom01):
    p = _spike_path(z2)
    height, count, first = height_and_peaks(z2_hom01, p, z2.parse_element("c"))
    assert height == 6
    assert count == 2  # c^6 and c^6 a both sit at the top
    assert first == 6


def test_peak_reduction_flattens_spike(z2, z2_hom01, z2_library):
    p = _spike_path(z2)
    trace = peak_reduction(z2_hom01, p, z2_library)
    assert len(trace.steps) == 1
    step = trace.steps[0]
    assert (step.height, step.peaks, step.index) == (6, 2, 6)
    assert step.pair == (Generator(1, False), Generator(0, False))
    assert trace.final_height <= 4  # the bundle's height bound M
    assert trace.final.origin == p.origin and trace.final.terminus == p.terminus
    assert trace.vertex_bound == ExactReal(6)  # M + 2 D*
    assert trace.max_reduced_phi <= trace.vertex_bound
    assert trace.reduced.origin == p.origin and trace.reduced.terminus == p.terminus
    mn, _ = phi_extrema(z2_hom01, trace.final)
    assert mn > -z2_library.bundle.level_guard


def test_peak_reduction_no_op_below_height_bound(z2, z2_hom01, z2_library):
    p = path_from_letters(z2.identity(), z2.parse_word("a a"))
    trace = peak_reduction(z2_hom01, p, z2_library)
    assert trace.steps == ()
    assert trace.final == p


def test_peak_reduction_requires_kernel_endpoints(z2, z2_hom01, z2_library):
    p = path_from_letters(z2.parse_element("c c c"), z2.parse_word("a"))
    with pytest.raises(ValueError):
        peak_reduction(z2_hom01, p, z2_library)


def test_peak_reduction_iteration_cap(z2, z2_hom01, z2_library, monkeypatch):
    monkeypatch.setattr("qmprobe.search.MAX_PEAK_STEPS", 0)
    with pytest.raises(CapExceededError):
        peak_reduction(z2_hom01, _spike_path(z2), z2_library)


# -- F_2 x Z kernel normalization ---------------------------------------


def test_f2z_normalize_recentres_values(f2z, f2z_phi):
    p = straight_path(f2z.identity(), f2z.parse_element("a b a^-1 b^-1"))
    got = f2z_kernel_path_normalize(f2z_phi, p)
    assert got.path.origin == p.origin
    assert got.path.terminus == p.terminus
    assert -3 <= got.min_phi and got.max_phi <= 3
    # every vertex in fact stays within one edge of (-sqrt(2)/2, sqrt(2)/2]
    tight = ONE + ExactReal(0, 1, 2) / 2
    for v in got.path.vertices:
        assert abs(f2z_phi.homogeneous_value(v)) <= tight


def test_f2z_normalize_leaves_kernel_vertices_alone(f2z, f2z_phi):
    p = straight_path(f2z.identity(), f2z.parse_element("b b"))
    got = f2z_kernel_path_normalize(f2z_phi, p)
    assert got.path == p  # already level, nothing to correct
    assert got.min_phi == got.max_phi == ZERO


def test_f2z_normalize_requires_kernel_endpoints(f2z, f2z_phi):
    p = straight_path(f2z.identity(), f2z.parse_element("a"))
    with pytest.raises(ValueError):
        f2z_kernel_path_normalize(f2z_phi, p)


def test_f2z_normalize_rejects_other_models(z2, z2_hom11):
    p = straight_path(z2.identity(), z2.parse_element("a c"))
    with pytest.raises(ValueError):
        f2z_kernel_path_normalize(z2_hom11, p)


# -- obstruction probe --------------------------------------------------


def test_obstruction_maxima_frozen(f2, psibar_ab):
    b = f2.parse_element("b")
    comm = f2.parse_element("a b a^-1 b^-1")
    got_one = [
        free_group_obstruction_probe(psibar_ab, b, comm, n, ONE).max_bound
        for n in range(1, 7)
    ]
    assert got_one == [ExactReal(v) for v in (0, 0, 1, 2, 3, 4)]
    half = ExactReal(1) / 2
    got_half = [
        free_group_obstruction_probe(psibar_ab, b, comm, n, half).max_bound
        for n in range(1, 7)
    ]
    assert got_half == [ExactReal(v) for v in (0, 2, 4, 6, 8, 10)]


def test_obstruction_bounds_match_formula(f2, psibar_ab):
    b = f2.parse_element("b")
    comm = f2.parse_element("a b a^-1 b^-1")
    report = free_group_obstruction_probe(psibar_ab, b, comm, 3, ONE)
    assert report.geodesic.origin == b
    assert report.geodesic.terminus == comm ** -3 * b * comm ** 3
    assert len(report.geodesic) == b.distance(comm ** -3 * b * comm ** 3)
    denom = ONE  # max_s |phi-bar(s)| = 0 for the free generators
    for v, bound in zip(report.geodesic.vertices, report.bounds):
        raw = (abs(psibar_ab.homogeneous_value(v)) - 2) / denom
        assert bound == (raw if raw > ZERO else ZERO)
    assert report.max_bound == max(report.bounds)


def test_obstruction_probe_validations(f2, z2, psibar_ab, z2_hom11):
    b = f2.parse_element("b")
    comm = f2.parse_element("a b a^-1 b^-1")
    with pytest.raises(ValueError):
        free_group_obstruction_probe(
            z2_hom11, z2.parse_element("a"), z2.parse_element("c"), 2, ONE
        )
    with pytest.raises(ValueError):
        free_group_obstruction_probe(psibar_ab, comm, comm, 2, ONE)
    with pytest.raises(ValueError):
        free_group_obstruction_probe(psibar_ab, b, comm, -1, ONE)
    with pytest.raises(ValueError):
        free_group_obstruction_probe(psibar_ab, comm, b, 2, ONE)
