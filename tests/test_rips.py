"""Rips graphs: the strict distance cutoff, spanning-forest component
certificates, and the scale sweep with its connectivity threshold."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmprobe.errors import CapExceededError
from qmprobe.groups import GroupElement, reduce_word
from qmprobe.rips import (
    build_rips,
    components,
    components_from_edges,
    connectivity_profile,
)


def _ball_vertices(model, radius):
    return model.ball(radius)


def _count(cert):
    """The number of components a certificate names."""
    return len(set(cert.component_ids))


# -- edge rule ----------------------------------------------------------


def test_edge_rule_is_strict(f2):
    # d(1, a^5) = 5: scale 5 leaves the pair apart, scale 6 joins it
    pair = [f2.identity(), f2.parse_element("a a a a a")]
    assert build_rips(pair, 5).edges == ()
    assert build_rips(pair, 6).edges == ((0, 1),)


def test_no_self_loops_or_duplicates(f2):
    a = f2.parse_element("a")
    graph = build_rips([a, a, f2.identity()], 3)
    assert len(graph.vertices) == 2
    assert graph.edges == ((0, 1),)


def test_vertices_canonically_sorted(f2):
    vs = [f2.parse_element(w) for w in ("b a", "a", "a b", "b^-1")]
    graph = build_rips(vs, 1)
    keys = [v.sort_key() for v in graph.vertices]
    assert keys == sorted(keys)
    # the same set in any order produces the same graph
    graph2 = build_rips(list(reversed(vs)), 1)
    assert graph2.vertices == graph.vertices


def test_scale_must_be_positive(f2):
    with pytest.raises(ValueError):
        build_rips([f2.identity()], 0)


def test_empty_vertex_set_rejected():
    with pytest.raises(ValueError):
        build_rips([], 2)


def test_vertex_cap(f2, monkeypatch):
    monkeypatch.setattr("qmprobe.rips.DEFAULT_VERTEX_CAP", 10)
    with pytest.raises(CapExceededError):
        build_rips(f2.ball(2), 2)


# -- components ---------------------------------------------------------


def test_component_certificate_on_two_clusters(f2):
    far = f2.parse_element("a a a a a a")
    vs = [f2.identity(), f2.parse_element("a"), far, far * f2.parse_element("b")]
    graph = build_rips(vs, 2)
    cert = components(graph)
    assert _count(cert) == 2
    # forest edges are genuine graph edges, one per merge
    assert set(cert.forest) <= set(graph.edges)
    assert len(cert.forest) == len(graph.vertices) - _count(cert)
    # representatives are the smallest index in each component
    for i, rep in enumerate(cert.component_ids):
        assert rep <= i
        assert cert.component_ids[rep] == rep


def test_components_from_edges_isolated_vertices():
    cert = components_from_edges(4, [])
    assert _count(cert) == 4
    assert cert.component_ids == (0, 1, 2, 3)
    assert cert.forest == ()


def test_components_from_edges_chain():
    cert = components_from_edges(4, [(2, 3), (0, 1), (1, 2)])
    assert _count(cert) == 1
    assert cert.component_ids == (0, 0, 0, 0)
    assert len(cert.forest) == 3


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=12),
    edges=st.lists(
        st.tuples(st.integers(0, 11), st.integers(0, 11)).filter(
            lambda e: e[0] < e[1]
        ),
        max_size=30,
    ),
)
def test_forest_certificate_replays(n, edges):
    edges = [e for e in edges if e[1] < n]
    cert = components_from_edges(n, edges)
    # replaying only the forest edges reproduces the partition
    again = components_from_edges(n, cert.forest)
    assert again.component_ids == cert.component_ids
    assert len(cert.forest) == n - _count(cert)


# -- profile ------------------------------------------------------------


def test_profile_pair_threshold(f2):
    vs = [f2.identity(), f2.parse_element("a a a a a")]
    prof = connectivity_profile(vs, 8)
    assert prof.scales == tuple(range(1, 9))
    assert prof.counts == (2, 2, 2, 2, 2, 1, 1, 1)
    assert prof.threshold == 6


def test_profile_counts_non_increasing(f2):
    prof = connectivity_profile(f2.ball(2), 5)
    assert all(x >= y for x, y in zip(prof.counts, prof.counts[1:]))
    # a ball is connected as soon as single steps are allowed
    assert prof.threshold == 2
    assert prof.counts[0] == len(f2.ball(2))


def test_profile_threshold_can_be_absent(f2):
    vs = [f2.identity(), f2.parse_element("a a a a a")]
    prof = connectivity_profile(vs, 4)
    assert prof.threshold is None
    assert prof.counts == (2, 2, 2, 2)


def test_profile_matches_fresh_builds(z2):
    vs = [z2.parse_element(w) for w in ("1", "a c", "a^-1 c^-1", "c c c")]
    prof = connectivity_profile(vs, 6)
    for scale, count in zip(prof.scales, prof.counts):
        assert _count(components(build_rips(vs, scale))) == count


def test_profile_validates_inputs(f2, monkeypatch):
    with pytest.raises(ValueError):
        connectivity_profile([f2.identity()], 0)
    monkeypatch.setattr("qmprobe.rips.DEFAULT_VERTEX_CAP", 5)
    with pytest.raises(CapExceededError):
        connectivity_profile(f2.ball(2), 3)


# -- the one-pass profile against per-scale rebuilds ---------------------


def _vertex_sets(model, max_len):
    gens = st.sampled_from(model.generators())
    words = st.lists(gens, max_size=max_len).map(lambda letters: reduce_word(model, letters))
    return st.lists(words, min_size=1, max_size=12)


def _check_against_rebuilds(vertices, n_max):
    prof = connectivity_profile(vertices, n_max)
    counts = tuple(
        _count(components(build_rips(vertices, n))) for n in range(1, n_max + 1)
    )
    assert prof.scales == tuple(range(1, n_max + 1))
    assert prof.counts == counts
    threshold = counts.index(1) + 1 if 1 in counts else None
    assert prof.threshold == threshold
    if threshold is None:
        assert prof.forest_at_threshold is None
    else:
        assert prof.forest_at_threshold == components(build_rips(vertices, threshold)).forest


@settings(max_examples=40, deadline=None)
@given(data=st.data(), n_max=st.integers(1, 7))
def test_profile_matches_rebuilds_in_f2(f2, data, n_max):
    _check_against_rebuilds(data.draw(_vertex_sets(f2, 6)), n_max)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), n_max=st.integers(1, 7))
def test_profile_matches_rebuilds_in_z2(z2, data, n_max):
    _check_against_rebuilds(data.draw(_vertex_sets(z2, 6)), n_max)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), n_max=st.integers(1, 7))
def test_profile_matches_rebuilds_in_f2z(f2z, data, n_max):
    _check_against_rebuilds(data.draw(_vertex_sets(f2z, 6)), n_max)


def test_profile_forest_on_a_ball_matches_rebuild(f2):
    _check_against_rebuilds(f2.ball(3), 4)


@pytest.mark.parametrize(
    "model, radius",
    [("f2", r) for r in range(5)]
    + [("f3", r) for r in range(3)]
    + [("f2z", r) for r in range(4)]
    + [("z2", r) for r in range(5)],
)
def test_profile_matches_rebuilds_on_whole_balls(request, model, radius):
    # every n_max up to past the diameter, where the prefix buckets vary most
    model = request.getfixturevalue(model)
    ball = model.ball(radius)
    for n_max in range(1, 2 * radius + 3):
        _check_against_rebuilds(ball, n_max)


def test_profile_measures_only_pairs_that_share_a_long_enough_prefix(f2, monkeypatch):
    calls = 0
    distance = GroupElement.distance

    def counted(g, h):
        nonlocal calls
        calls += 1
        return distance(g, h)

    monkeypatch.setattr(GroupElement, "distance", counted)
    prof = connectivity_profile(f2.ball(5), 4)
    assert prof.counts == (485, 1, 1, 1)
    # all 117,370 pairs of the 485 vertices would be measured without pruning
    assert calls <= 3_000
