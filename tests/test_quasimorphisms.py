from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from qmprobe.exact import ExactReal, ONE, ZERO, _make
from qmprobe.groups import Generator, GroupModel, commutator, reduce_word
from qmprobe.quasimorphisms import (
    BrooksQM,
    CombinationQM,
    HomogenizedQM,
    AkerCertificate,
    DefectEstimate,
    HomomorphismQM,
    certify_aker_approximate_subgroup,
    cyclic_reduce,
    defect_lower_bound,
    defect_witness,
    signed_count,
    surd_base,
)

from conftest import exact

# -- independent oracles -------------------------------------------------
# The library counts occurrences inside one period of a cyclic power;
# the oracle below never looks at that code path.  It counts in the
# plain normal form and reads the homogenization off the stabilized
# slope of k -> psi(g^k).


def _oracle_count(seq, w):
    m = len(w)
    return sum(1 for i in range(len(seq) - m + 1) if seq[i : i + m] == w)


def _oracle_psi_ab(g):
    return _oracle_count(g.free, (1, 2)) - _oracle_count(g.free, (-2, -1))


def _oracle_psibar_ab(g):
    if g == g.model.identity():
        return 0
    slopes = [
        _oracle_psi_ab(g ** (k + 1)) - _oracle_psi_ab(g ** k) for k in (8, 9, 10)
    ]
    assert slopes[0] == slopes[1] == slopes[2], "slope did not stabilize"
    return slopes[0]


# -- plain values --------------------------------------------------------


def test_brooks_counts_frozen_values(f2, psi_ab):
    for text, expected in (
        ("a b", 1),
        ("a b a b", 2),
        ("b^-1 a^-1", -1),
        ("a", 0),
        ("a b a^-1", 1),
        ("a^2 b^2", 1),
        ("b a", 0),
        ("a^3 b^-2 a b", 1),
    ):
        assert psi_ab.value(f2.parse_element(text)) == ExactReal(expected)


@given(data=st.data())
@settings(max_examples=150)
def test_brooks_matches_count_oracle(f2, psi_ab, data):
    letters = data.draw(st.lists(st.sampled_from(f2.generators()), max_size=12))
    g = reduce_word(f2, tuple(letters))
    assert psi_ab.value(g) == ExactReal(_oracle_psi_ab(g))


def test_brooks_word_must_be_reduced_and_free(f2, f2z):
    with pytest.raises(ValueError):
        BrooksQM(f2, f2.parse_word("a a^-1"))
    with pytest.raises(ValueError):
        BrooksQM(f2z, f2z.parse_word("a u"))
    with pytest.raises(ValueError):
        BrooksQM(f2, ())


def test_brooks_ignores_the_abelian_block(f2z):
    psi = BrooksQM(f2z, f2z.parse_word("a b"))
    assert psi.value(f2z.parse_element("a b u^5")) == ONE
    assert psi.homogeneous_value(f2z.parse_element("a b u^5")) == ONE


def test_homomorphism_is_linear(f2z, f2z_phi):
    g = f2z.parse_element("a b u")
    h = f2z.parse_element("b^-1 u^2")
    assert f2z_phi.value(g * h) == f2z_phi.value(g) + f2z_phi.value(h)
    assert f2z_phi.value(f2z.parse_element("u")) == ExactReal(0, 1, 2)
    assert f2z_phi.defect_upper == ZERO


# -- exact homogenization ------------------------------------------------


def test_homogenization_frozen_values(f2, psibar_ab):
    for text, expected in (
        ("a b", 1),
        ("b a", 1),  # conjugation invariance, unlike psi("b a") = 0
        ("a b a^-1", 0),
        ("a b a b", 2),
        ("a b a^-1 b^-1", 1),
        ("a", 0),
        ("b^-1", 0),
    ):
        assert psibar_ab.homogeneous_value(f2.parse_element(text)) == ExactReal(expected)


def test_commutator_value_is_one(f2, psibar_ab):
    c = commutator(f2.parse_element("a"), f2.parse_element("b"))
    assert psibar_ab.homogeneous_value(c) == ONE


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_homogenization_matches_slope_oracle(f2, psibar_ab, data):
    letters = data.draw(st.lists(st.sampled_from(f2.generators()), max_size=8))
    g = reduce_word(f2, tuple(letters))
    assert psibar_ab.homogeneous_value(g) == ExactReal(_oracle_psibar_ab(g))


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_homogenization_additive_on_powers(f2, psi_ab, data):
    letters = data.draw(st.lists(st.sampled_from(f2.generators()), max_size=6))
    g = reduce_word(f2, tuple(letters))
    n = data.draw(st.integers(-8, 8))
    assert psi_ab.homogeneous_value(g ** n) == ExactReal(n) * psi_ab.homogeneous_value(g)


def test_homogenization_conjugation_invariant(f2, psibar_ab):
    rng = random.Random(7)
    ball = f2.ball(3)
    for _ in range(40):
        g = rng.choice(ball)
        h = rng.choice(ball)
        assert psibar_ab.homogeneous_value(h * g * h.inverse()) == (
            psibar_ab.homogeneous_value(g)
        )


def test_homogenized_wrapper_is_homogeneous(psi_ab, psibar_ab):
    assert not psi_ab.is_homogeneous
    assert psibar_ab.is_homogeneous
    assert psibar_ab.value is not None  # value and homogeneous value agree
    g = psi_ab.model.parse_element("a b a")
    assert psibar_ab.value(g) == psibar_ab.homogeneous_value(g)


def test_homogenized_rejects_combinations(psi_ab):
    combo = CombinationQM((ONE,), (psi_ab,))
    with pytest.raises(ValueError):
        HomogenizedQM(combo)


def test_combination_homogenizes_termwise(f2, psi_ab, psibar_ab):
    psi_ba = BrooksQM(f2, f2.parse_word("b a"))
    combo = CombinationQM(
        (ExactReal(2), ExactReal(-1)), (psibar_ab, HomogenizedQM(psi_ba))
    )
    assert combo.is_homogeneous
    g = f2.parse_element("a b a b a^-1")
    expected = ExactReal(2) * psibar_ab.homogeneous_value(g) - HomogenizedQM(
        psi_ba
    ).homogeneous_value(g)
    assert combo.homogeneous_value(g) == expected


# -- defect --------------------------------------------------------------


def test_defect_lower_bound_frozen(f2, psibar_ab):
    # radius 2 finds the basic commutator, radius 3 a value-2 pair
    est2 = defect_lower_bound(psibar_ab, 2)
    assert est2.lower == ONE and est2.witness_kind == "commutator"
    est3 = defect_lower_bound(psibar_ab, 3)
    assert est3.lower == ExactReal(2)
    assert est3.upper is None
    g, h = est3.witness
    assert psibar_ab.homogeneous_value(commutator(g, h)) == est3.witness_value
    assert est3.witness_value == est3.lower


def _scan_with_commutators(qm, radius):
    """The defect scan as first written: 4 products and 2 inverses per
    pair, through `commutator`."""
    ball = qm.model.ball(radius)
    best, best_kind = ZERO, "commutator"
    best_pair = (qm.model.identity(), qm.model.identity())
    for g in ball:
        vg = qm.value(g)
        for h in ball:
            cval = qm.value(commutator(g, h))
            if cval > best:
                best, best_kind, best_pair = cval, "commutator", (g, h)
            tval = abs(vg + qm.value(h) - qm.value(g * h))
            if tval > best:
                best, best_kind, best_pair = tval, "three-term", (g, h)
    return best, best_kind, best_pair


def test_defect_scan_matches_the_commutator_loop(f2, f2z, f2z_phi, psibar_ab):
    psibar_ba = HomogenizedQM(BrooksQM(f2, f2.parse_word("b a^-1")))
    psibar_f2z = HomogenizedQM(BrooksQM(f2z, f2z.parse_word("a b")))
    # psi-bar of a^2 has a three-term witness, the others a commutator
    psibar_aa = HomogenizedQM(BrooksQM(f2, f2.parse_word("a a")))
    assert defect_lower_bound(psibar_aa, 3).witness_kind == "three-term"
    for qm, radius in (
        (psibar_ab, 3),
        (psibar_aa, 3),
        (CombinationQM((ExactReal(2), ExactReal(0, -1)), (psibar_ab, psibar_ba)), 3),
        (CombinationQM((ONE, ONE), (psibar_f2z, f2z_phi)), 2),
    ):
        est = defect_lower_bound(qm, radius)
        assert (est.lower, est.witness_kind, est.witness) == _scan_with_commutators(
            qm, radius
        )


def _free_word(model, max_size):
    """A non-empty reduced word in the free generators of `model`."""
    free = [g for g in model.generators() if model.is_free_index(g.index)]
    return (
        st.lists(st.sampled_from(free), min_size=1, max_size=max_size)
        .map(lambda letters: reduce_word(model, letters))
        .filter(lambda g: g.free)
        .map(lambda g: [Generator(abs(x) - 1, x < 0) for x in g.free])
    )


def _coefficient():
    """A nonzero a + b sqrt(2) with small fractions a and b, so that the
    denominators of values and coefficients vary."""
    return st.builds(
        exact,
        st.fractions(-3, 3, max_denominator=4),
        st.fractions(-2, 2, max_denominator=3),
    ).filter(lambda c: c != ZERO)


@st.composite
def _homogeneous_combinations(draw, models):
    """A combination of homogenized Brooks quasimorphisms with surd
    coefficients over one of `models`; on a model with an abelian block
    some also add a homomorphism."""
    model = draw(st.sampled_from(models))
    words = draw(st.lists(_free_word(model, 3), min_size=1, max_size=3))
    parts = [HomogenizedQM(BrooksQM(model, w)) for w in words]
    if model.abelian_rank and draw(st.booleans()):
        values = draw(st.lists(_coefficient(), min_size=model.rank, max_size=model.rank))
        parts.append(HomomorphismQM(model, values))
    coefficients = draw(st.lists(_coefficient(), min_size=len(parts), max_size=len(parts)))
    return CombinationQM(coefficients, parts)


@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_defect_scan_matches_the_full_square_on_combinations(f2, f3, f2z, f2z2, data):
    # the scan visits one position per orbit; the oracle visits every pair
    qm = data.draw(_homogeneous_combinations((f2, f3, f2z, f2z2)))
    est = defect_lower_bound(qm, 2)
    assert (est.lower, est.witness_kind, est.witness) == _scan_with_commutators(qm, 2)


def _variants(model, phi):
    psi = BrooksQM(model, model.parse_word("a b a^-1"))
    psibar = HomogenizedQM(BrooksQM(model, model.parse_word("a b")))
    return {
        "brooks": psi,
        "homomorphism": phi,
        "homogenized": psibar,
        "combination": CombinationQM(
            (ExactReal(1, 1), ExactReal(-2), ExactReal(0, 3)), (psibar, phi, psi)
        ),
    }


@pytest.mark.parametrize("variant", ["brooks", "homomorphism", "homogenized", "combination"])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_homogeneous_value_is_an_odd_class_function(f2z, f2z_phi, variant, data):
    # the orbits both pair scans skip rest on this
    v = _variants(f2z, f2z_phi)[variant].homogeneous_value
    words = st.lists(st.sampled_from(f2z.generators()), max_size=8)
    g = reduce_word(f2z, data.draw(words))
    h = reduce_word(f2z, data.draw(words))
    assert v(g * h) == v(h * g)
    assert v(g.inverse()) == -v(g)


@pytest.mark.parametrize("variant", ["brooks", "homomorphism", "homogenized", "combination"])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_pair_values_are_constant_on_the_scan_orbits(f2z, f2z_phi, variant, data):
    # the pair scans evaluate one position per orbit and reuse it for the rest
    v = _variants(f2z, f2z_phi)[variant].homogeneous_value
    words = st.lists(st.sampled_from(f2z.generators()), max_size=6)
    g = reduce_word(f2z, data.draw(words))
    h = reduce_word(f2z, data.draw(words))
    gi, hi = g.inverse(), h.inverse()
    # (g, h) -> (h, g^-1) -> (g^-1, h^-1) -> (h^-1, g): conjugate commutators
    assert len({v(commutator(x, y)) for x, y in ((g, h), (h, gi), (gi, hi), (hi, g))}) == 1
    klein = ((g, h), (h, g), (gi, hi), (hi, gi))
    assert len({abs(v(x) + v(y) - v(x * y)) for x, y in klein}) == 1
    assert abs(v(g * h)) == abs(v(gi * hi))


def test_a_misstated_commutator_orbit_is_caught(f2, psibar_ab):
    # (g, h^-1) is not in the orbit of (g, h), and its commutator differs
    a, b = f2.parse_element("a"), f2.parse_element("b")
    v = psibar_ab.homogeneous_value
    assert (v(commutator(a, b)), v(commutator(a, b.inverse()))) == (ONE, -ONE)


@pytest.mark.parametrize("variant", ["brooks", "homomorphism", "homogenized", "combination"])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_mirrored_columns_have_negated_commutators(f2z, f2z_phi, variant, data):
    # the defect scan evaluates one of the columns h and h^-1 of a row
    # and records the negation for the other: h^-1 [h, g] h = [g, h^-1]
    v = _variants(f2z, f2z_phi)[variant].homogeneous_value
    words = st.lists(st.sampled_from(f2z.generators()), max_size=6)
    g = reduce_word(f2z, data.draw(words))
    h = reduce_word(f2z, data.draw(words))
    assert v(commutator(g, h.inverse())) == -v(commutator(g, h))


def test_mirrored_commutators_need_a_homogeneous_value(f2):
    # negative control: the plain Brooks count is no class function, and
    # its commutators at the columns h and h^-1 are not negations
    psi = BrooksQM(f2, f2.parse_word("a b"))
    a, ab = f2.parse_element("a"), f2.parse_element("a b")
    assert (psi.value(commutator(a, ab)), psi.value(commutator(a, ab.inverse()))) == (ZERO, -ONE)
    psibar = HomogenizedQM(psi).homogeneous_value
    assert psibar(commutator(a, ab.inverse())) == -psibar(commutator(a, ab))


def _reduced_free_words(model, max_size):
    return st.lists(st.sampled_from(model.generators()), max_size=max_size).map(
        lambda letters: reduce_word(model, tuple(letters)).free
    )


@given(data=st.data())
@settings(max_examples=200)
def test_brooks_counting_matches_slicing(f2, data):
    seq = data.draw(_reduced_free_words(f2, 14))
    w = data.draw(_reduced_free_words(f2, 5).filter(bool))
    w_inv = tuple(-x for x in reversed(w))
    k = len(w)
    starts = range(len(seq) - k + 1)
    assert signed_count(seq, w, w_inv, starts) == sum(
        1 for p in starts if seq[p : p + k] == w
    ) - sum(1 for p in starts if seq[p : p + k] == w_inv)
    # the homogeneous count as first written: one period of a cyclic power
    psi = BrooksQM(f2, [Generator(abs(x) - 1, x < 0) for x in w])
    cyc = cyclic_reduce(seq)
    expected = 0
    if cyc:
        big = cyc * -(-(len(cyc) - 1 + k) // len(cyc))
        periods = range(len(cyc))
        expected = sum(1 for p in periods if big[p : p + k] == psi.word) - sum(
            1 for p in periods if big[p : p + k] == psi.word_inverse
        )
    g = reduce_word(f2, [Generator(abs(x) - 1, x < 0) for x in seq])
    assert psi.homogeneous_value(g) == ExactReal(expected)


def test_defect_of_homomorphism_is_zero(f2z, f2z_phi):
    est = defect_lower_bound(f2z_phi, 2, upper=ZERO)
    assert est.lower == ZERO and est.upper == ZERO


def test_defect_claimed_upper_below_lower_rejected(psibar_ab):
    with pytest.raises(ValueError):
        defect_lower_bound(psibar_ab, 2, upper=ZERO)


@pytest.mark.parametrize("upper", [None, ExactReal(5)])
def test_defect_witness_replays_the_scan(f2, f2z_phi, psibar_ab, upper):
    # psi-bar_ab's witness (a, b) ties its commutator and three-term
    # values at 1, psi-bar of a^2 has a three-term witness, and a
    # homomorphism's is the identity pair
    psibar_aa = HomogenizedQM(BrooksQM(f2, f2.parse_word("a a")))
    for qm, radius in ((psibar_ab, 2), (psibar_aa, 3), (f2z_phi, 2)):
        est = defect_lower_bound(qm, radius, upper=upper)
        assert defect_witness(qm, radius, upper, *est.witness) == est
    assert defect_lower_bound(psibar_ab, 2).witness_kind == "commutator"
    assert defect_lower_bound(psibar_aa, 3).witness_kind == "three-term"
    assert defect_lower_bound(f2z_phi, 2).witness == (f2z_phi.model.identity(),) * 2


def test_defect_witness_refuses_a_pair_outside_the_ball_or_above_the_bound(f2, psibar_ab):
    a, b = f2.parse_element("a"), f2.parse_element("b")
    with pytest.raises(ValueError, match="outside the scanned ball"):
        defect_witness(psibar_ab, 1, None, a, f2.parse_element("b b"))
    with pytest.raises(ValueError, match="below the certified lower bound"):
        defect_witness(psibar_ab, 1, ZERO, a, b)


def test_defect_scan_caches_no_commutator(f2):
    """The scan keeps the values of its products g h in a dict local to
    the call and evaluates its commutators uncached."""
    psi = BrooksQM(f2, f2.parse_word("a b"))
    est = defect_lower_bound(HomogenizedQM(psi), 4)
    assert (est.lower, est.witness_kind) == (ExactReal(2), "three-term")
    c = commutator(f2.parse_element("a"), f2.parse_element("b"))
    assert certify_aker_approximate_subgroup(HomogenizedQM(psi), ONE, c, 3).passed


def test_defect_scan_needs_homogeneous_input(psi_ab):
    with pytest.raises(ValueError):
        defect_lower_bound(psi_ab, 2)


def test_homogeneous_defect_bound_via_commutators(f2, psibar_ab):
    est = defect_lower_bound(psibar_ab, 2, upper=ExactReal(2))
    assert est.lower >= ONE  # phi-bar([a, b]) = 1 is in range
    assert est.witness_kind in ("commutator", "three-term")


# -- the approximate kernel ---------------------------------------------


def test_aker_certificate_zero_defect_is_honest_kernel(f2z, f2z_phi):
    cert = certify_aker_approximate_subgroup(f2z_phi, ZERO, None, 2)
    assert cert.passed
    assert cert.witness == (f2z.identity(),)
    assert all(f2z_phi.homogeneous_value(g) == ZERO for g in cert.members)
    assert set(cert.exponents) <= {0}


def test_aker_certificate_small_ball(f2, psibar_ab):
    c = commutator(f2.parse_element("a"), f2.parse_element("b"))
    cert = certify_aker_approximate_subgroup(psibar_ab, ONE, c, 2)
    assert cert.passed and cert.counterexample is None
    assert len(cert.witness) == 11
    assert cert.witness[0] == c ** 5
    assert cert.witness[-1] == c ** -5
    two = ExactReal(2)
    n = len(cert.members)
    assert len(cert.exponents) == n * n
    powers = {m: c ** m for m in range(-5, 6)}
    k = 0
    for g in cert.members:
        for h in cert.members:
            m = cert.exponents[k]
            assert abs(psibar_ab.homogeneous_value(g * h * powers[m])) <= two
            k += 1


def _aker_full_loop(qm, dstar, scaling, radius):
    """The Aker certificate as first written: every pair (g, h) forms
    g h and tries the exponents in order, m = 0 included."""
    model = qm.model
    bound = dstar + dstar
    members = tuple(g for g in model.ball(radius) if abs(qm.homogeneous_value(g)) <= bound)
    if dstar == ZERO:
        witness, order = (model.identity(),), (0,)
    else:
        witness = tuple(scaling ** m for m in range(5, -6, -1))
        order = (0, 1, -1, 2, -2, 3, -3, 4, -4, 5, -5)
    exponents, counterexample = [], None
    for g in members:
        if counterexample:
            break
        for h in members:
            chosen = next(
                (
                    m
                    for m in order
                    if abs(qm.homogeneous_value(g * h * scaling ** m if m else g * h))
                    <= bound
                ),
                None,
            )
            if chosen is None:
                counterexample = (g, h)
                break
            exponents.append(chosen)
    return AkerCertificate(
        witness=witness,
        dstar=dstar,
        radius=radius,
        scaling=scaling,
        members=members,
        exponents=tuple(exponents),
        passed=counterexample is None,
        counterexample=counterexample,
    )


def test_aker_matches_the_full_loop_with_nonzero_exponents(f2, psibar_ab):
    c = commutator(f2.parse_element("a"), f2.parse_element("b"))
    cert = certify_aker_approximate_subgroup(psibar_ab, ONE, c, 3)
    assert cert.passed and set(cert.exponents) - {0}
    assert cert == _aker_full_loop(psibar_ab, ONE, c, 3)


def test_aker_matches_the_full_loop_when_a_row_stops_early(psibar_ab):
    cert = certify_aker_approximate_subgroup(psibar_ab, ZERO, None, 2)
    assert not cert.passed
    # the counterexample ends its row partway through
    assert len(cert.exponents) % len(cert.members) != 0
    assert cert == _aker_full_loop(psibar_ab, ZERO, None, 2)


def test_aker_matches_the_full_loop_for_a_homomorphism(f2z_phi):
    cert = certify_aker_approximate_subgroup(f2z_phi, ZERO, None, 3)
    assert cert.passed
    assert cert == _aker_full_loop(f2z_phi, ZERO, None, 3)


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_aker_matches_the_full_loop_on_combinations(f2, f3, f2z, f2z2, data):
    # D* = 0 and 1/2 fail often, so counterexamples are met too
    qm = data.draw(_homogeneous_combinations((f2, f3, f2z, f2z2)))
    dstar = data.draw(st.sampled_from((ZERO, ExactReal(1) / 2, ONE, ExactReal(2))))
    c = qm.model.parse_element(data.draw(st.sampled_from(("a", "a^2", "a b a^-1 b^-1"))))
    cert = certify_aker_approximate_subgroup(qm, dstar, c, 2)
    assert cert == _aker_full_loop(qm, dstar, c, 2)


def test_aker_counterexample_after_a_reused_twin(f2, psibar_ab):
    # the failing row i reads row i' < i, where its twin needed m != 0,
    # so the search at the counterexample starts past m = 0
    a = f2.parse_element("a")
    half = ExactReal(1) / 2
    cert = certify_aker_approximate_subgroup(psibar_ab, half, a, 3)
    assert not cert.passed
    n = len(cert.members)
    i, j = divmod(len(cert.exponents), n)
    assert cert.counterexample == (cert.members[i], cert.members[j])
    ii, jj = (cert.members.index(x.inverse()) for x in cert.counterexample)
    assert ii < i and cert.exponents[ii * n + jj] != 0
    assert cert == _aker_full_loop(psibar_ab, half, a, 3)


# -- numerator hooks against the ExactReal evaluation --------------------
# The oracles below are the ExactReal code the numerator hooks and the
# pair scans replaced: one exact term per generator, per part and per
# pair, with no common denominator anywhere.


def _exact_value(qm, g, homogeneous):
    """The value of qm at g as the ExactReal hooks computed it."""
    if isinstance(qm, HomomorphismQM):
        counts = [0] * qm.model.free_rank
        for x in g.free:
            counts[abs(x) - 1] += 1 if x > 0 else -1
        total = ZERO
        for v, n in zip(qm.values, counts + list(g.ab)):
            total = total + v * n
        return total
    if isinstance(qm, HomogenizedQM):
        return _exact_value(qm.base, g, True)
    if isinstance(qm, CombinationQM):
        total = ZERO
        for c, part in zip(qm.coefficients, qm.parts):
            total = total + c * _exact_value(part, g, homogeneous)
        return total
    seq, k = g.free, len(qm.word)
    if homogeneous:
        seq = cyclic_reduce(seq)
        if not seq:
            return ZERO
        periods = range(len(seq))
        seq = seq * -(-(len(seq) - 1 + k) // len(seq))
    else:
        periods = range(len(seq) - k + 1)
    return ExactReal(
        sum(1 for p in periods if seq[p : p + k] == qm.word)
        - sum(1 for p in periods if seq[p : p + k] == qm.word_inverse)
    )


def _exact_phibar(qm):
    """g -> the homogeneous value of qm at g, through `_exact_value`."""
    memo = {}

    def value(g):
        if g not in memo:
            memo[g] = _exact_value(qm, g, True)
        return memo[g]

    return value


def _exact_defect_scan(qm, radius, upper=None):
    """The defect scan over i <= j as it ran on ExactReal values."""
    ball = qm.model.ball(radius)
    value = _exact_phibar(qm)
    entries = [(g, g.inverse(), value(g)) for g in ball]
    best, best_kind = ZERO, "commutator"
    best_pair = (qm.model.identity(), qm.model.identity())
    for i, (g, g_inv, vg) in enumerate(entries):
        for h, h_inv, vh in entries[i:]:
            gh = g * h
            cval = value(gh * g_inv * h_inv)
            if cval > best:
                best, best_kind, best_pair = cval, "commutator", (g, h)
            tval = abs(vg + vh - value(gh))
            if tval > best:
                best, best_kind, best_pair = tval, "three-term", (g, h)
    if upper is None:
        upper = qm.defect_upper
    return DefectEstimate(best, upper, radius, best_kind, best_pair, best)


def _exact_aker(qm, dstar, scaling, radius):
    """The Aker certificate with the mirrored m = 0 test, as it ran on
    ExactReal values."""
    model = qm.model
    value = _exact_phibar(qm)
    bound = dstar + dstar
    members = tuple(g for g in model.ball(radius) if abs(value(g)) <= bound)
    if dstar == ZERO:
        order, powers = (0,), {0: model.identity()}
    else:
        order = (0, 1, -1, 2, -2, 3, -3, 4, -4, 5, -5)
        powers = {m: scaling ** m for m in order}
    n = len(members)
    exponents, counterexample = [], None
    for i, g in enumerate(members):
        if counterexample:
            break
        for j, h in enumerate(members):
            tries = order
            if j < i:
                if exponents[j * n + i] == 0:
                    exponents.append(0)
                    continue
                tries = order[1:]
            gh = g * h
            chosen = next(
                (m for m in tries if abs(value(gh * powers[m])) <= bound), None
            )
            if chosen is None:
                counterexample = (g, h)
                break
            exponents.append(chosen)
    return members, tuple(exponents), counterexample


@st.composite
def _any_variant(draw, f2, f3, f2z):
    """Any variant over F_2, F_3 or F_2 x Z: a Brooks count, its
    homogenization, a homomorphism with fractional surd values, or a
    combination of homogeneous parts, plain or homogenized."""
    kind = draw(st.sampled_from(("brooks", "homogenized", "homomorphism", "combination")))
    model = draw(st.sampled_from((f2, f3, f2z)))
    if kind == "brooks":
        return BrooksQM(model, draw(_free_word(model, 4)))
    if kind == "homogenized":
        return HomogenizedQM(BrooksQM(model, draw(_free_word(model, 4))))
    if kind == "homomorphism":
        values = draw(st.lists(_coefficient(), min_size=model.rank, max_size=model.rank))
        return HomomorphismQM(model, values)
    return draw(_homogeneous_combinations((f2, f3, f2z)))


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_numerator_hooks_match_the_exact_values(f2, f3, f2z, data):
    qm = data.draw(_any_variant(f2, f3, f2z))
    words = st.lists(st.sampled_from(qm.model.generators()), max_size=10)
    for _ in range(5):
        g = reduce_word(qm.model, data.draw(words))
        plain, homogeneous = _exact_value(qm, g, False), _exact_value(qm, g, True)
        assert _make(*qm._num(g.free, g.ab), qm.den, qm.d) == plain
        assert _make(*qm._hnum(g.free, g.ab), qm.den, qm.d) == homogeneous
        assert qm.homogeneous_value(g) == homogeneous
        if not isinstance(qm, HomogenizedQM):
            assert qm.value(g) == plain


def test_denominators_and_surd_bases_are_fixed_at_construction(f2z, f2z_phi):
    phi = HomomorphismQM(f2z, (ExactReal(1) / 2, ZERO, ExactReal(0, 1) / 3))
    assert (phi.den, phi.d, HomogenizedQM(phi).den) == (6, 2, 6)
    psibar = HomogenizedQM(BrooksQM(f2z, f2z.parse_word("a b")))
    assert (psibar.den, psibar.surds) == (1, frozenset())
    combo = CombinationQM((ExactReal(3) / 4, ExactReal(0, 1) / 5), (phi, psibar))
    assert (combo.den, combo.d) == (120, 2)  # lcm(4 * 6, 5 * 1)
    sqrt3 = ExactReal(0, 1, 3)
    assert CombinationQM((sqrt3,), (psibar,)).d == 3
    with pytest.raises(ValueError, match=r"^cannot mix sqrt\(2\) and sqrt\(3\)$"):
        CombinationQM((sqrt3,), (phi,))
    with pytest.raises(ValueError, match=r"^cannot mix sqrt\(2\) and sqrt\(3\)$"):
        HomomorphismQM(f2z, (sqrt3, ZERO, ExactReal(0, 1)))
    with pytest.raises(ValueError, match=r"^cannot mix sqrt\(2\) and sqrt\(3\)$"):
        certify_aker_approximate_subgroup(f2z_phi, sqrt3, f2z.parse_element("u"), 1)


def test_bounds_combined_with_a_rational_qm_share_one_surd_base(f2z_phi, psibar_ab):
    sqrt2, sqrt3 = ExactReal(0, 1, 2), ExactReal(0, 1, 3)
    # a rational phi-bar takes the first surd bound's base
    assert surd_base(psibar_ab) == surd_base(psibar_ab, ONE) == psibar_ab.d
    assert surd_base(psibar_ab, ONE, sqrt3 + 4, sqrt3) == 3
    with pytest.raises(ValueError, match=r"^cannot mix sqrt\(3\) and sqrt\(2\)$"):
        surd_base(psibar_ab, sqrt3 + 4, ONE, sqrt2)
    # a surd phi-bar's base comes first
    assert surd_base(f2z_phi, sqrt2, ONE) == 2
    with pytest.raises(ValueError, match=r"^cannot mix sqrt\(2\) and sqrt\(3\)$"):
        surd_base(f2z_phi, ONE, sqrt3)


@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_defect_scan_and_aker_match_the_exact_loops(f2, f3, f2z, f2z2, data):
    qm = data.draw(_homogeneous_combinations((f2, f3, f2z, f2z2)))
    assert defect_lower_bound(qm, 2) == _exact_defect_scan(qm, 2)
    ball = qm.model.ball(2)
    dstar = data.draw(st.sampled_from((ZERO, ExactReal(1) / 2, ONE, ExactReal(0, 1))))
    scaling = data.draw(st.sampled_from(ball[1:]))
    cert = certify_aker_approximate_subgroup(qm, dstar, scaling, 2)
    assert (cert.members, cert.exponents, cert.counterexample) == _exact_aker(
        qm, dstar, scaling, 2
    )
    g, h = data.draw(st.sampled_from(ball)), data.draw(st.sampled_from(ball))
    assert defect_witness(qm, 2, None, g, h) == _exact_witness(qm, g, h)


def _exact_witness(qm, g, h):
    """`defect_witness` at radius 2 as it ran on ExactReal values."""
    value = _exact_phibar(qm)
    best, kind = value(commutator(g, h)), "commutator"
    tval = abs(value(g) + value(h) - value(g * h))
    if tval > best:
        best, kind = tval, "three-term"
    return DefectEstimate(best, qm.defect_upper, 2, kind, (g, h), best)


def test_aker_matches_the_exact_loop_with_an_abelian_scaling(f2z, f2z_phi):
    # phi(u) = sqrt(2): the products g h u^m need their abelian parts summed
    u = f2z.parse_element("u")
    for qm in (f2z_phi, CombinationQM((ONE, ExactReal(1) / 2), (f2z_phi, f2z_phi))):
        cert = certify_aker_approximate_subgroup(qm, ONE, u, 2)
        assert cert.passed and set(cert.exponents) - {0}
        assert (cert.members, cert.exponents, cert.counterexample) == _exact_aker(qm, ONE, u, 2)
