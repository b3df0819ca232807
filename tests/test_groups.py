from __future__ import annotations

import copy
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from qmprobe.errors import CapExceededError
from qmprobe.exact import ExactReal
from qmprobe.groups import (
    Generator,
    GroupElement,
    GroupModel,
    _ball,
    ball_size,
    commutator,
    reduce_word,
)
from qmprobe.quasimorphisms import HomomorphismQM


def _random_words(model, max_len):
    gens = st.sampled_from(model.generators())
    return st.lists(gens, max_size=max_len).map(
        lambda letters: reduce_word(model, tuple(letters))
    )


# -- normal forms --------------------------------------------------------


def test_reduce_cancels_free_inverses(f2):
    assert f2.parse_element("a b b^-1 a^-1") == f2.identity()
    assert f2.parse_element("a b b^-1 a") == f2.parse_element("a^2")


def test_identity_token(f2):
    assert f2.parse_element("1") == f2.identity()
    assert f2.parse_element("") == f2.identity()


def test_word_str_round_trip(f2, f2z):
    for model, text in (
        (f2, "a b^-2 a^3"),
        (f2z, "a b a^-1 u^-2"),
        (f2z, "u^3"),
    ):
        g = model.parse_element(text)
        assert model.parse_element(g.word_str()) == g


def _old_word_str(g):
    """The spelling word_str first had: one Generator per letter of the
    canonical spelling, runs of equal letters grouped into powers."""
    if g == g.model.identity():
        return ""
    parts, run = [], []

    def flush():
        gen, n = run[0], len(run)
        name = g.model.generator_names[gen.index]
        exp = -n if gen.inverse else n
        parts.append(name if exp == 1 else f"{name}^{exp}")

    for gen in g.letters():
        if run and run[-1] == gen:
            run.append(gen)
        else:
            if run:
                flush()
            run = [gen]
    flush()
    return " ".join(parts)


def _runs_of_letters(model):
    """Elements built from runs of up to 4 equal letters, so exponents
    other than +-1 are common."""
    runs = st.lists(
        st.tuples(st.sampled_from(model.generators()), st.integers(1, 4)), max_size=6
    )
    return runs.map(
        lambda rs: reduce_word(model, tuple(gen for gen, n in rs for _ in range(n)))
    )


@pytest.mark.parametrize("name", ["f2", "f2z", "z2"])
@settings(max_examples=80)
@given(data=st.data())
def test_word_str_matches_the_letter_by_letter_spelling(request, name, data):
    model = request.getfixturevalue(name)
    g = data.draw(st.one_of(_random_words(model, 8), _runs_of_letters(model)))
    assert g.word_str() == _old_word_str(g)
    assert model.parse_element(g.word_str()) == g


def test_abelian_letters_commute(f2z):
    assert f2z.parse_element("u a") == f2z.parse_element("a u")
    assert f2z.parse_element("a u a^-1") == f2z.parse_element("u")


@given(data=st.data())
def test_reduction_idempotent_and_involutive(f2, data):
    g = data.draw(_random_words(f2, 10))
    assert reduce_word(f2, g.letters()) == g
    assert g.inverse().inverse() == g
    assert g * g.inverse() == f2.identity()


@given(data=st.data())
def test_multiplication_associative(f2z, data):
    g = data.draw(_random_words(f2z, 6))
    h = data.draw(_random_words(f2z, 6))
    k = data.draw(_random_words(f2z, 6))
    assert (g * h) * k == g * (h * k)


# -- word metric ---------------------------------------------------------


def test_length_counts_letters(f2z):
    assert f2z.parse_element("a b^-2 u^3").length() == 6
    assert f2z.identity().length() == 0


@given(data=st.data())
def test_metric_axioms(f2, data):
    g = data.draw(_random_words(f2, 6))
    h = data.draw(_random_words(f2, 6))
    k = data.draw(_random_words(f2, 6))
    assert g.distance(h) == h.distance(g)
    assert (g.distance(h) == 0) == (g == h)
    assert g.distance(k) <= g.distance(h) + h.distance(k)
    # left invariance
    assert (k * g).distance(k * h) == g.distance(h)


def test_power_matches_repeated_product(f2):
    g = f2.parse_element("a b")
    assert g ** 3 == g * g * g
    assert g ** -2 == (g * g).inverse()
    assert g ** 0 == f2.identity()


# -- balls ---------------------------------------------------------------


def test_free_ball_sizes(f2):
    # |B(r)| = 1 + 4 (3^r - 1)/2 in a rank-2 free group
    assert len(f2.ball(0)) == 1
    assert len(f2.ball(1)) == 5
    assert len(f2.ball(2)) == 17
    assert len(f2.ball(3)) == 53


def test_abelian_ball_sizes(z2):
    # |B(r)| = 2 r^2 + 2 r + 1 in Z^2
    for r in (0, 1, 2, 5):
        assert len(z2.ball(r)) == 2 * r * r + 2 * r + 1


def test_ball_is_sorted_and_deduplicated(f2):
    ball = f2.ball(3)
    keys = [g.sort_key() for g in ball]
    assert keys == sorted(keys)
    assert len(set(ball)) == len(ball)


def test_ball_respects_cap(f2):
    with pytest.raises(CapExceededError):
        f2.ball(f2.ball_cap + 1)


_BALL_MODELS = [(1, 0), (2, 0), (3, 0), (0, 2), (2, 1), (2, 2)]


def _product_ball(model, radius):
    """ball(radius) as first enumerated: breadth-first search multiplying
    by every generator letter, keeping the products of length r."""
    letters = [model.generator_element(gen) for gen in model.generators()]
    seen = {model.identity()}
    frontier = [model.identity()]
    for r in range(1, radius + 1):
        frontier = [h for g in frontier for h in (g * s for s in letters) if h.length() == r]
        frontier = [h for h in dict.fromkeys(frontier) if h not in seen]
        seen.update(frontier)
    return tuple(sorted(seen, key=GroupElement.sort_key))


@pytest.mark.parametrize("ranks", _BALL_MODELS, ids=lambda r: f"F{r[0]}xZ{r[1]}")
def test_ball_size_counts_the_ball(ranks):
    model = GroupModel(free_rank=ranks[0], abelian_rank=ranks[1], ball_cap=5)
    for r in range(6):
        assert ball_size(model, r) == len(model.ball(r))


@pytest.mark.parametrize("ranks", _BALL_MODELS, ids=lambda r: f"F{r[0]}xZ{r[1]}")
def test_ball_on_normal_forms_matches_the_product_search(ranks):
    model = GroupModel(free_rank=ranks[0], abelian_rank=ranks[1], ball_cap=5)
    for r in range(6):
        assert model.ball(r) == _product_ball(model, r)


@pytest.mark.parametrize(
    "ranks", _BALL_MODELS + [(3, 2), (0, 3)], ids=lambda r: f"F{r[0]}xZ{r[1]}"
)
def test_the_ball_walk_carries_a_homomorphisms_numerators(ranks):
    # a child's numerators are its parent's plus its letter's: compare
    # each form's with the homomorphism evaluated there
    model = GroupModel(free_rank=ranks[0], abelian_rank=ranks[1], ball_cap=4)
    values = [ExactReal(k - 2, (-1) ** k * (k + 1)) / (k + 1) for k in range(model.rank)]
    qm = HomomorphismQM(model, values)
    steps = [model.generator_element(s) for s in model.positive_generators()]
    walk = _ball(model, 4, [qm._hnum(s.free, s.ab) for s in steps])
    assert [(free, ab) for free, ab, _, _ in walk] == [
        (g.free, g.ab) for g in _product_ball(model, 4)
    ]
    assert all((p, q) == qm._hnum(free, ab) for free, ab, p, q in walk)
    assert {(p, q) for _, _, p, q in _ball(model, 4)} == {(0, 0)}


# -- commutators and mixed models ---------------------------------------


def test_commutator_identity_for_commuting_pairs(f2z, f2):
    u = f2z.parse_element("u")
    a = f2z.parse_element("a")
    assert commutator(u, a) == f2z.identity()
    x = f2.parse_element("a")
    y = f2.parse_element("b")
    assert commutator(x, y) == f2.parse_element("a b a^-1 b^-1")


@pytest.mark.parametrize("name", ["f2", "z2", "f2z"])
def test_distance_matches_inverse_product(request, name):
    model = request.getfixturevalue(name)
    ball = model.ball(3)
    for g in ball[::3]:
        for h in ball[::2]:
            assert g.distance(h) == (g.inverse() * h).length()


@given(data=st.data())
def test_distance_matches_inverse_product_on_random_words(f2z, data):
    g = data.draw(_random_words(f2z, 10))
    h = data.draw(_random_words(f2z, 10))
    assert g.distance(h) == (g.inverse() * h).length()


# -- slotted elements ----------------------------------------------------


def _letter_key(gen):
    # the spelling key sort_key was first defined by
    return (gen.index, 1 if gen.inverse else 0)


@pytest.mark.parametrize("name", ["f2", "f2z", "z2"])
@settings(max_examples=60)
@given(data=st.data())
def test_arithmetic_hash_and_sort_key_on_random_words(request, name, data):
    model = request.getfixturevalue(name)
    g = data.draw(_random_words(model, 8))
    h = data.draw(_random_words(model, 8))
    gh = reduce_word(model, g.letters() + h.letters())
    assert g * h == gh
    assert hash(g * h) == hash(gh)
    inv = reduce_word(model, tuple(gen.inverted() for gen in reversed(g.letters())))
    assert g.inverse() == inv
    assert hash(g.inverse()) == hash(inv)
    for x in (g, h, g * h, g.inverse()):
        assert x.sort_key() == (x.length(), tuple(_letter_key(gen) for gen in x.letters()))
    assert (g == h) == (g.sort_key() == h.sort_key())


def test_element_is_immutable_and_has_no_dict(f2z):
    g = f2z.parse_element("a b u^2")
    for name in ("model", "free", "ab", "other"):
        with pytest.raises(AttributeError):
            setattr(g, name, None)
    with pytest.raises(AttributeError):
        del g.free
    assert not hasattr(g, "__dict__")
    assert g.free == (1, 2) and g.ab == (2,)


def test_public_constructor(f2z):
    g = GroupElement(f2z, (1, -2), (3,))
    assert type(g) is GroupElement
    assert g == f2z.parse_element("a b^-1 u^3")
    assert hash(g) == hash(f2z.parse_element("a b^-1 u^3"))
    assert GroupElement(model=f2z, free=(), ab=(0,)) == f2z.identity()
    # equal normal forms over different models are different elements
    other = GroupModel(free_rank=2, abelian_rank=1, generator_names=("x", "y", "z"))
    assert GroupElement(other, (1, -2), (3,)) != g
    assert g != (1, -2)
    assert copy.copy(g) == g
    assert pickle.loads(pickle.dumps(g)) == g
