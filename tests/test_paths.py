"""Edge-path algebra: construction, concatenation, and exact value
extrema along the vertices."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmprobe.exact import ExactReal
from qmprobe.groups import Generator
from qmprobe.paths import Path, path_from_letters, phi_extrema, straight_path

from conftest import product_letters

ZERO = ExactReal(0)


def _letters(model, max_len=6):
    gens = st.sampled_from(model.generators())
    return st.lists(gens, min_size=0, max_size=max_len)


# -- construction -------------------------------------------------------


def test_a_path_is_built_from_its_letters_only(f2):
    with pytest.raises(TypeError, match="path_from_letters"):
        Path((f2.identity(),))


def test_path_from_letters_refuses_an_index_out_of_range(f2):
    with pytest.raises(ValueError, match="^generator index 2 out of range for rank 2$"):
        path_from_letters(f2.identity(), [Generator(0, False), Generator(2, True)])


def test_single_vertex_path(f2):
    p = path_from_letters(f2.identity(), ())
    assert len(p) == 0
    assert p.origin == p.terminus == f2.identity()
    assert p.edge_letters() == ()


# -- letters round trip -------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_letters_round_trip(f2, data):
    letters = data.draw(_letters(f2))
    p = path_from_letters(f2.identity(), letters)
    assert len(p) == len(letters)
    assert p.edge_letters() == tuple(letters)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_letters_round_trip_abelian(z2, data):
    letters = data.draw(_letters(z2))
    p = path_from_letters(z2.identity(), letters)
    assert p.edge_letters() == tuple(letters)


@pytest.mark.parametrize("name", ["f2", "f2z", "z2", "f2z2"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_recorded_letters_match_the_products(request, name, data):
    # letters recorded by path_from_letters and concat spell the vertices
    model = request.getfixturevalue(name)
    origin = path_from_letters(model.identity(), data.draw(_letters(model))).terminus
    p = path_from_letters(origin, data.draw(_letters(model)))
    q = path_from_letters(model.identity(), data.draw(_letters(model)))
    for path in (p, q, p.concat(q), q.concat(p).concat(q)):
        assert path.edge_letters() == product_letters(path)


# -- concat ------------------------------------------------------------


def test_concat_translates_second_path(f2):
    p = path_from_letters(f2.identity(), f2.parse_word("a b"))
    q = path_from_letters(f2.identity(), f2.parse_word("b a^-1"))
    pq = p.concat(q)
    assert pq.origin == f2.identity()
    assert pq.terminus == f2.parse_element("a b b a^-1")
    assert pq.edge_letters() == p.edge_letters() + q.edge_letters()


def test_concat_ignores_second_basepoint(f2):
    p = path_from_letters(f2.identity(), f2.parse_word("a"))
    q = path_from_letters(f2.parse_element("b b b"), f2.parse_word("a"))
    assert p.concat(q).terminus == f2.parse_element("a a")


# -- straight paths -----------------------------------------------------


def test_straight_path_spells_normal_form(f2):
    x = f2.parse_element("a b")
    y = f2.parse_element("a b a^-1 b")
    p = straight_path(x, y)
    assert p.origin == x
    assert p.terminus == y
    assert len(p) == x.distance(y)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_straight_path_is_geodesic_in_free(f2, data):
    letters_x = data.draw(_letters(f2, 4))
    letters_y = data.draw(_letters(f2, 4))
    x = path_from_letters(f2.identity(), letters_x).terminus
    y = path_from_letters(f2.identity(), letters_y).terminus
    p = straight_path(x, y)
    assert p.origin == x and p.terminus == y
    assert len(p) == x.distance(y)


def test_straight_path_abelian_endpoints(z2):
    x = z2.parse_element("a c")
    y = z2.parse_element("c^-1")
    p = straight_path(x, y)
    assert p.origin == x and p.terminus == y
    assert len(p) == x.distance(y)


# -- extrema ------------------------------------------------------------


def test_phi_extrema_includes_endpoints(psibar_ab, f2):
    # along 1 -> a -> ab -> abab the maximum sits at the far endpoint
    p = path_from_letters(f2.identity(), f2.parse_word("a b a b"))
    lo, hi = phi_extrema(psibar_ab, p)
    assert lo == ZERO
    assert hi == ExactReal(2)


def test_phi_extrema_interior_dip(psibar_ab, f2):
    # both endpoints sit at value 1 but the path passes through the
    # identity, so the reported minimum is the interior value 0
    p = straight_path(f2.parse_element("a b"), f2.parse_element("b a"))
    lo, hi = phi_extrema(psibar_ab, p)
    assert lo == ZERO
    assert hi == ExactReal(1)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_phi_extrema_matches_the_values(psibar_ab, f2z, f2z_phi, data):
    for qm in (psibar_ab, f2z_phi):
        model = qm.model
        p = path_from_letters(model.identity(), data.draw(_letters(model, 10)))
        values = [qm.homogeneous_value(v) for v in p.vertices]
        assert phi_extrema(qm, p) == (min(values), max(values))


def test_phi_extrema_single_vertex(psibar_ab, f2):
    g = f2.parse_element("a b")
    lo, hi = phi_extrema(psibar_ab, path_from_letters(g, ()))
    assert lo == hi == psibar_ab.homogeneous_value(g)
