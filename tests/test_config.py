"""Experiment configs: the INI dialect, quasimorphism blocks, and the
per-kind probe validation that runs before anything executes."""

import pathlib
import re

import pytest
from hypothesis import given, settings, strategies as st

from qmprobe.config import parse_experiment
from qmprobe.errors import ConfigError
from qmprobe.exact import ExactReal, ONE, ZERO
from qmprobe.groups import MAX_BALL_CAP
from qmprobe.novikov import MAX_SOLVE_BALL, CayleyComplex, build_zs_cycle, ray_cycle
from qmprobe.paths import path_from_letters, straight_path
from qmprobe.probes import attempt
from qmprobe.quasimorphisms import (
    MAX_SCAN_PAIRS,
    BrooksQM,
    CombinationQM,
    HomogenizedQM,
    HomomorphismQM,
    certify_aker_approximate_subgroup,
    check_scaling_window,
)
from qmprobe.search import (
    bounded_path_search,
    build_q_library,
    compute_constants,
    f2z_kernel_path_normalize,
    free_group_obstruction_probe,
    peak_reduction,
)

FREE_GROUP = """\
[group]
free_rank = 2
names = a b
ball_cap = 8
"""

Z2_GROUP = """\
[group]
abelian_rank = 2
names = a c
ball_cap = 20
"""

PSIBAR = """\
[quasimorphism psi]
kind = brooks
word = a b

[quasimorphism psibar]
kind = homogenized
base = psi
"""

DEFECT_PROBE = """\
[probe d]
kind = defect
qm = psibar
radius = 2
"""


def test_full_parse(tmp_path):
    text = (
        FREE_GROUP
        + PSIBAR
        + DEFECT_PROBE
        + "\n[probe climb]\nkind = path-search\nqm = psibar\nstart = 1\n"
        + "target = a b\nk = 0\nradius = 3\n"
        + "\n[output]\npath = out.json\n"
    )
    exp = parse_experiment(text)
    assert exp.model.free_rank == 2 and exp.model.abelian_rank == 0
    assert exp.model.ball_cap == 8
    assert sorted(exp.quasimorphisms) == ["psi", "psibar"]
    assert isinstance(exp.quasimorphisms["psi"], BrooksQM)
    assert isinstance(exp.quasimorphisms["psibar"], HomogenizedQM)
    assert [p.name for p in exp.probes] == ["d", "climb"]
    assert exp.probes[0].kind == "defect"
    assert exp.probes[1].settings["radius"] == 3
    assert exp.output_path == "out.json"
    assert exp.raw_text == text


def test_homomorphism_defaults_missing_generators_to_zero():
    text = Z2_GROUP + "[quasimorphism phi]\nkind = homomorphism\nc = 1\n"
    text += "[probe d]\nkind = defect\nqm = phi\nradius = 1\n"
    phi = parse_experiment(text).quasimorphisms["phi"]
    assert isinstance(phi, HomomorphismQM)
    assert phi.values == (ZERO, ONE)


def test_a_generator_named_kind_keeps_the_default_zero():
    text = "[group]\nabelian_rank = 2\nnames = a kind\n"
    text += "[quasimorphism phi]\nkind = homomorphism\na = 1\n"
    text += "[probe d]\nkind = defect\nqm = phi\nradius = 1\n"
    assert parse_experiment(text).quasimorphisms["phi"].values == (ONE, ZERO)


def test_combination_parse():
    text = FREE_GROUP + PSIBAR
    text += "[quasimorphism mix]\nkind = combination\nterms = 2 * psibar, -1/3 * psibar\n"
    text += "[probe d]\nkind = defect\nqm = mix\nradius = 1\n"
    mix = parse_experiment(text).quasimorphisms["mix"]
    assert isinstance(mix, CombinationQM)
    assert mix.coefficients == (ExactReal(2), ExactReal.parse("-1/3"))


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("[probe d]\nkind = defect\n", "missing [group]"),
        (FREE_GROUP, "no probes"),
        (FREE_GROUP + "[nonsense]\nx = 1\n" + PSIBAR + DEFECT_PROBE, "unknown section"),
        (FREE_GROUP + PSIBAR + PSIBAR + DEFECT_PROBE, "already exists"),
        (
            FREE_GROUP + PSIBAR
            + "[quasimorphism  psi]\nkind = brooks\nword = b\n" + DEFECT_PROBE,
            "duplicate quasimorphism",
        ),
        (
            FREE_GROUP + PSIBAR + DEFECT_PROBE
            + "[probe d ]\nkind = defect\nqm = psibar\nradius = 2\n",
            "duplicate probe",
        ),
        (
            FREE_GROUP + PSIBAR + "[probe x]\nkind = astrology\nqm = psibar\n",
            "unknown probe kind",
        ),
        (
            FREE_GROUP + "[quasimorphism q]\nword = a\n" + DEFECT_PROBE,
            "missing key 'kind'",
        ),
        (
            FREE_GROUP + "[quasimorphism psibar]\nkind = homogenized\nbase = ghost\n"
            + DEFECT_PROBE,
            "unknown quasimorphism",
        ),
        (
            FREE_GROUP + PSIBAR + "[probe d]\nkind = defect\nqm = psibar\nradius = 9\n",
            "ball cap",
        ),
        (
            FREE_GROUP + PSIBAR + "[probe d]\nkind = defect\nqm = psi\nradius = 2\n",
            "homogeneous",
        ),
        (
            FREE_GROUP + PSIBAR
            + "[probe d]\nkind = defect\nqm = psibar\nradius = 2\nclaimed_upper = 1.5\n",
            "claimed_upper",
        ),
        (
            FREE_GROUP + PSIBAR
            + "[probe o]\nkind = free-obstruction\nqm = psibar\nx = b\n"
            + "scaling = a b a^-1 b^-1\ndstar = 1\nmax_depth = 100000000\n",
            "max_depth exceeds the model ball cap",
        ),
        (
            FREE_GROUP + "[probe r]\nkind = rips-profile\nn_max = 200000\nvertices = 1, a\n",
            "n_max exceeds the model ball cap",
        ),
        (
            FREE_GROUP + "[quasimorphism psi]\nkind = brooks\nword = a^300000 a^-300000\n"
            + DEFECT_PROBE,
            "word is longer than 5000 letters",
        ),
        (
            FREE_GROUP + PSIBAR
            + "[probe p]\nkind = path-search\nqm = psibar\nstart = 1\n"
            + "target = a^4000 b^1001\nk = 0\nradius = 3\n",
            "target: word is longer than 5000 letters",
        ),
        (
            FREE_GROUP + "[quasimorphism phi]\nkind = homomorphism\n"
            + "a = sqrt(1000000000000000003)\n" + DEFECT_PROBE,
            "surd base must be at most 1000000",
        ),
        (
            FREE_GROUP + PSIBAR
            + "[quasimorphism mix]\nkind = combination\n"
            + "terms = sqrt(1000000000000000003) * psibar\n" + DEFECT_PROBE,
            "surd base must be at most 1000000",
        ),
        (
            FREE_GROUP + PSIBAR + "[quasimorphism phi]\nkind = homomorphism\na = 1\nc = 1\n"
            + DEFECT_PROBE,
            "[quasimorphism phi]: unknown key 'c'",
        ),
        (
            FREE_GROUP + PSIBAR.replace("word = a b\n", "word = a b\nweight = 2\n")
            + DEFECT_PROBE,
            "[quasimorphism psi]: unknown key 'weight'",
        ),
        (
            FREE_GROUP + PSIBAR.replace("base = psi\n", "base = psi\nword = a\n")
            + DEFECT_PROBE,
            "[quasimorphism psibar]: unknown key 'word'",
        ),
        (
            FREE_GROUP + PSIBAR
            + "[quasimorphism mix]\nkind = combination\nterms = 2 * psibar\nbase = psibar\n"
            + DEFECT_PROBE,
            "[quasimorphism mix]: unknown key 'base'",
        ),
        (
            Z2_GROUP + "[quasimorphism phi]\nkind = homomorphism\nc = 1\n"
            + "[probe k]\nkind = aker-cert\nqm = phi\ndstar = 0\nradius = 2\nscaling = c\n",
            "[probe k]: unknown key 'scaling'",
        ),
        (
            FREE_GROUP + PSIBAR + DEFECT_PROBE + "[output]\npath = out.json\nformat = json\n",
            "[output]: unknown key 'format'",
        ),
        (
            FREE_GROUP + PSIBAR + DEFECT_PROBE.replace("radius = 2", "radius = two"),
            "[probe d]: radius: must be an integer",
        ),
        (
            FREE_GROUP.replace("free_rank = 2", "free_rank = -1") + PSIBAR + DEFECT_PROBE,
            "[group]: free_rank: must be at least 0",
        ),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(ConfigError) as err:
        parse_experiment(text)
    assert fragment in str(err.value)


R2_R3 = """\
[quasimorphism r2]
kind = homomorphism
a = sqrt(2)

[quasimorphism r3]
kind = homomorphism
b = 1 + sqrt(3)
"""


@pytest.mark.parametrize(
    "section",
    [
        "[quasimorphism mixed]\nkind = homomorphism\na = sqrt(2)\nb = sqrt(3)\n",
        "[quasimorphism mixed]\nkind = homomorphism\na = 1 - sqrt(3)\nb = 1/2 * sqrt(2)\n",
        "[quasimorphism mixed]\nkind = combination\nterms = sqrt(2) * psibar, sqrt(3) * psibar\n",
        "[quasimorphism mixed]\nkind = combination\nterms = 1 * r2, 1 * r3\n",
        "[quasimorphism mixed]\nkind = combination\nterms = sqrt(3) * r2\n",
        "[quasimorphism r3bar]\nkind = homogenized\nbase = r3\n"
        "[quasimorphism mixed]\nkind = combination\nterms = 1 * psibar, 2 * r2, -1 * r3bar\n",
    ],
    ids=["hom", "hom-1/2", "coefficients", "parts", "coefficient-and-part", "homogenized-part"],
)
def test_one_surd_base_per_quasimorphism(section):
    text = FREE_GROUP + PSIBAR + R2_R3 + section + DEFECT_PROBE
    with pytest.raises(ConfigError, match=r"^\[quasimorphism mixed\]: cannot mix sqrt\(2\) and sqrt\(3\)$"):
        parse_experiment(text)


def test_surds_that_are_never_combined_stay_valid():
    text = FREE_GROUP + PSIBAR + R2_R3
    text += "[quasimorphism lift]\nkind = combination\nterms = sqrt(3) * psibar, 1 * r3\n"
    text += DEFECT_PROBE
    exp = parse_experiment(text)
    assert exp.quasimorphisms["r2"].values == (ExactReal(0, 1, 2), ZERO)
    assert exp.quasimorphisms["lift"].coefficients[0] == ExactReal(0, 1, 3)


def test_aker_scaling_window_enforced():
    text = FREE_GROUP + PSIBAR
    # phi-bar(a) = 0 misses (4/5, 1]
    text += "[probe k]\nkind = aker-cert\nqm = psibar\ndstar = 1\nradius = 2\nscaling = a\n"
    with pytest.raises(ConfigError) as err:
        parse_experiment(text)
    assert "(4 D*/5, D*]" in str(err.value)


def test_aker_dstar_zero_needs_no_scaling():
    text = Z2_GROUP + "[quasimorphism phi]\nkind = homomorphism\nc = 1\n"
    text += "[probe k]\nkind = aker-cert\nqm = phi\ndstar = 0\nradius = 2\n"
    probe = parse_experiment(text).probes[0]
    assert probe.settings["scaling"] is None


def test_library_kprime_must_clear_two_dstar():
    text = Z2_GROUP + "[quasimorphism phi]\nkind = homomorphism\nc = 1\n"
    text += (
        "[probe lib]\nkind = q-library\nqm = phi\ndstar = 1\nkprime = 2\n"
        "scaling = c\nradius = 10\n"
    )
    with pytest.raises(ConfigError) as err:
        parse_experiment(text)
    assert "kprime" in str(err.value)


def test_peak_reduce_endpoints_must_be_near_kernel():
    text = Z2_GROUP + "[quasimorphism phi]\nkind = homomorphism\nc = 1\n"
    text += (
        "[probe flat]\nkind = peak-reduce\nqm = phi\ndstar = 1\nkprime = 3\n"
        "scaling = c\nradius = 10\nletters = c c c\n"
    )
    with pytest.raises(ConfigError) as err:
        parse_experiment(text)
    assert "Aker" in str(err.value)


def test_f2z_example_needs_the_specific_model():
    text = Z2_GROUP + "[quasimorphism phi]\nkind = homomorphism\nc = 1\n"
    text += "[probe e]\nkind = f2z-example\nqm = phi\nstart = 1\ntarget = 1\n"
    with pytest.raises(ConfigError) as err:
        parse_experiment(text)
    assert "F_2 x Z" in str(err.value)


def test_free_obstruction_rejects_abelian_models():
    text = Z2_GROUP + "[quasimorphism phi]\nkind = homomorphism\nc = 1\n"
    text += (
        "[probe o]\nkind = free-obstruction\nqm = phi\nx = a\nscaling = c\n"
        "dstar = 1\nmax_depth = 2\n"
    )
    with pytest.raises(ConfigError) as err:
        parse_experiment(text)
    assert "free group" in str(err.value)


def test_novikov_needs_a_defect_bound():
    # a Brooks base has no certified structural defect constant, so the
    # probe demands an explicit bound
    text = FREE_GROUP + PSIBAR
    text += (
        "[probe n]\nkind = novikov-solve\nqm = psibar\nstart = 1\nend = 1\n"
        "scaling = a b a^-1 b^-1\nwindow = 4\nradius = 4\n"
    )
    with pytest.raises(ConfigError) as err:
        parse_experiment(text)
    assert "the scaling element must be a single generator letter" in str(err.value)
    text = text.replace("scaling = a b a^-1 b^-1", "scaling = a")
    with pytest.raises(ConfigError) as err:
        parse_experiment(text)
    # phi-bar(a) = 0 under psibar: the direction check fires first
    assert "the scaling element must have positive phi-bar" in str(err.value)


FILL_Z2 = Z2_GROUP + (
    "[quasimorphism phi]\nkind = homomorphism\nc = 1\n"
    "[probe fill]\nkind = novikov-solve\nqm = phi\nstart = 1\nend = a\n"
    "scaling = c\nwindow = 4\nradius = 2\n"
)


@pytest.mark.parametrize(
    "spelling, value",
    [(None, True), ("yes", True), ("TRUE", True), ("on", True), ("1", True),
     ("no", False), ("False", False), ("off", False), ("0", False)],
)
def test_extract_takes_each_boolean_spelling(spelling, value):
    text = FILL_Z2 + (f"extract = {spelling}\n" if spelling else "")
    (probe,) = parse_experiment(text).probes
    assert probe.settings["extract"] is value


@pytest.mark.parametrize("spelling", ["maybe", "2", "y", ""])
def test_extract_refuses_any_other_spelling(spelling):
    with pytest.raises(ConfigError, match=r"^\[probe fill\]: extract: must be a boolean$"):
        parse_experiment(FILL_Z2 + f"extract = {spelling}\n")


def test_novikov_defect_bound_missing_message():
    text = FREE_GROUP
    text += "[quasimorphism lead]\nkind = brooks\nword = a\n"
    text += "[quasimorphism bar]\nkind = homogenized\nbase = lead\n"
    text += (
        "[probe n]\nkind = novikov-solve\nqm = bar\nstart = 1\nend = 1\n"
        "scaling = a\nwindow = 4\nradius = 4\n"
    )
    with pytest.raises(ConfigError) as err:
        parse_experiment(text)
    assert "no defect bound available" in str(err.value)


def test_zs_radius_must_cover_the_high_path():
    text = Z2_GROUP + "[quasimorphism phi]\nkind = homomorphism\nc = 1\n"
    text += (
        "[probe z]\nkind = zs-cycle\nqm = phi\ns = a\nscaling = c\n"
        "depth = 4\nk = 1\nradius = 4\n"
    )
    with pytest.raises(ConfigError) as err:
        parse_experiment(text)
    assert str(err.value) == "[probe z]: search endpoints must lie in ball(4)"


def test_zs_radius_may_equal_the_depth_for_s_the_inverse_of_c():
    # s c^n = c^(n - 1) for s = c^-1, so both endpoints lie in ball(n)
    text = Z2_GROUP + "[quasimorphism phi]\nkind = homomorphism\nc = 1\n"
    text += (
        "[probe z]\nkind = zs-cycle\nqm = phi\ns = c^-1\nscaling = c\n"
        "depth = 4\nk = 1\nradius = 4\n"
    )
    exp = parse_experiment(text)
    status, error, result = attempt(exp, exp.probes[0])
    assert (status, error, result["status"]) == ("ok", None, "ok")


def test_zs_s_must_be_a_letter():
    text = Z2_GROUP + "[quasimorphism phi]\nkind = homomorphism\nc = 1\n"
    text += (
        "[probe z]\nkind = zs-cycle\nqm = phi\ns = a a\nscaling = c\n"
        "depth = 2\nk = 1\nradius = 6\n"
    )
    with pytest.raises(ConfigError) as err:
        parse_experiment(text)
    assert str(err.value) == "[probe z]: s must be a single generator letter"


Z2_PHI = Z2_GROUP + "[quasimorphism phi]\nkind = homomorphism\nc = 1\n"
F2Z_PHI = (
    "[group]\nfree_rank = 2\nabelian_rank = 1\nnames = a b u\nball_cap = 8\n"
    "[quasimorphism phi]\nkind = homomorphism\na = 1\nu = sqrt(2)\n"
)
# the group and quasimorphisms of a config, and the quasimorphism its probe uses
WORLDS = {"z2": (Z2_PHI, "phi"), "f2": (FREE_GROUP + PSIBAR, "psibar"), "f2z": (F2Z_PHI, "phi")}
X = ExactReal.parse


def _q_library(qm, e, dstar, kprime, scaling, radius=4):
    c = e(scaling)
    return build_q_library(qm, compute_constants(qm, X(dstar), X(kprime), c), c, radius)


def _ray(qm, e, scaling):
    connecting = straight_path(e("1"), e("b"))
    return ray_cycle(CayleyComplex(qm, ZERO), connecting, e(scaling), X("4"))


def _zs(qm, e, scaling):
    return build_zs_cycle(CayleyComplex(qm, ZERO), e("a").letters()[0], e(scaling), 2, None)


def _obstruction(qm, e, x, scaling, dstar):
    return free_group_obstruction_probe(qm, e(x), e(scaling), 1, X(dstar))


def _search(qm, e, start, target, radius):
    return bounded_path_search(qm, e(start), e(target), X("1"), radius)


LIBRARY = "kind = q-library\nradius = 4\n"
NOVIKOV = "kind = novikov-solve\nstart = 1\nend = b\nwindow = 4\nradius = 2\n"
ZS = "kind = zs-cycle\ns = a\ndepth = 2\nk = 1\nradius = 4\n"
OBSTRUCTION = "kind = free-obstruction\nmax_depth = 2\n"
# (world, probe keys, message, the library call the probe would make)
PRECONDITIONS = {
    "dstar-positive": (
        "z2", LIBRARY + "dstar = 0\nkprime = 3\nscaling = c\n", "dstar must be positive",
        lambda qm, e: compute_constants(qm, X("0"), X("3"), e("c")),
    ),
    "kprime": (
        "z2", LIBRARY + "dstar = 1\nkprime = 2\nscaling = c\n", "kprime must exceed 2 dstar",
        lambda qm, e: compute_constants(qm, X("1"), X("2"), e("c")),
    ),
    "window-q-library": (
        "z2", LIBRARY + "dstar = 2\nkprime = 5\nscaling = c\n",
        "scaling element value 1/1 must lie in (4 D*/5, D*]",
        lambda qm, e: compute_constants(qm, X("2"), X("5"), e("c")),
    ),
    # certify_aker_approximate_subgroup replays for any c, so the window
    # is the probe's precondition alone
    "window-aker-cert": (
        "z2", "kind = aker-cert\ndstar = 2\nscaling = c\nradius = 2\n",
        "scaling element value 1/1 must lie in (4 D*/5, D*]",
        lambda qm, e: check_scaling_window(qm, e("c"), X("2")),
    ),
    "letter-q-library": (
        "z2", LIBRARY + "dstar = 2\nkprime = 5\nscaling = c c\n",
        "the scaling element must be a single generator letter",
        lambda qm, e: _q_library(qm, e, "2", "5", "c c"),
    ),
    "letter-novikov-solve": (
        "f2z", NOVIKOV + "scaling = u u\n", "the scaling element must be a single generator letter",
        lambda qm, e: _ray(qm, e, "u u"),
    ),
    "letter-zs-cycle": (
        "z2", ZS + "scaling = c c\n", "the scaling element must be a single generator letter",
        lambda qm, e: _zs(qm, e, "c c"),
    ),
    "positive-novikov-solve": (
        "f2z", NOVIKOV + "scaling = u^-1\n", "the scaling element must have positive phi-bar",
        lambda qm, e: _ray(qm, e, "u^-1"),
    ),
    "positive-zs-cycle": (
        "z2", ZS + "scaling = c^-1\n", "the scaling element must have positive phi-bar",
        lambda qm, e: _zs(qm, e, "c^-1"),
    ),
    "positive-free-obstruction": (
        "f2", OBSTRUCTION + "x = b\nscaling = b^-1 a^-1\ndstar = 1\n",
        "the scaling element must have positive phi-bar",
        lambda qm, e: _obstruction(qm, e, "b", "b^-1 a^-1", "1"),
    ),
    "aker-endpoints": (
        "z2",
        "kind = peak-reduce\nradius = 4\ndstar = 1\nkprime = 3\nscaling = c\nletters = c c c\n",
        "path terminus is outside Aker(phi, D*)",
        lambda qm, e: peak_reduction(
            qm, path_from_letters(e("1"), e("c c c").letters()), _q_library(qm, e, "1", "3", "c", 1)
        ),
    ),
    "f2z-model": (
        "z2", "kind = f2z-example\nstart = 1\ntarget = 1\n",
        "kernel path normalization needs F_2 x Z with phi = (1, 0, sqrt(2))",
        lambda qm, e: f2z_kernel_path_normalize(qm, straight_path(e("1"), e("1"))),
    ),
    "kernel-endpoints": (
        "f2z", "kind = f2z-example\nstart = 1\ntarget = a\n",
        "path terminus is not in the kernel of phi",
        lambda qm, e: f2z_kernel_path_normalize(qm, straight_path(e("1"), e("a"))),
    ),
    "free-model": (
        "z2", OBSTRUCTION + "x = a\nscaling = c\ndstar = 1\n",
        "the obstruction probe works in free groups only",
        lambda qm, e: _obstruction(qm, e, "a", "c", "1"),
    ),
    "commuting": (
        "f2", OBSTRUCTION + "x = a b\nscaling = a b\ndstar = 1\n",
        "x and the scaling element must not commute",
        lambda qm, e: _obstruction(qm, e, "a b", "a b", "1"),
    ),
    "dstar-non-negative": (
        "f2", OBSTRUCTION + "x = b\nscaling = a b\ndstar = -1\n", "dstar must be non-negative",
        lambda qm, e: _obstruction(qm, e, "b", "a b", "-1"),
    ),
    "search-ball-path-search": (
        "z2", "kind = path-search\nstart = a a a\ntarget = c\nk = 1\nradius = 2\n",
        "search endpoints must lie in ball(2)",
        lambda qm, e: _search(qm, e, "a a a", "c", 2),
    ),
    # the high path's search runs from c^n to s c^n
    "search-ball-zs-cycle": (
        "z2", ZS.replace("radius = 4", "radius = 2") + "scaling = c\n",
        "search endpoints must lie in ball(2)",
        lambda qm, e: _search(qm, e, "c c", "a c c", 2),
    ),
    "defect": (
        "f2z", NOVIKOV + "scaling = u\ndefect = -1\n", "defect must be non-negative",
        lambda qm, e: CayleyComplex(qm, X("-1")),
    ),
    "dstar-aker-cert": (
        "z2", "kind = aker-cert\ndstar = -1\nradius = 2\n", "dstar must be non-negative",
        lambda qm, e: certify_aker_approximate_subgroup(qm, X("-1"), None, 2),
    ),
    "denominator": (
        "f2", OBSTRUCTION + "x = b\nscaling = a b\ndstar = 0\n",
        "max_s |phi-bar(s)| + D* must be positive",
        lambda qm, e: _obstruction(qm, e, "b", "a b", "0"),
    ),
}


@pytest.mark.parametrize("rule", sorted(PRECONDITIONS))
def test_validation_and_the_library_refuse_each_precondition_alike(rule):
    world, keys, message, library = PRECONDITIONS[rule]
    text, qm_name = WORLDS[world]
    with pytest.raises(ConfigError) as err:
        parse_experiment(text + f"[probe bad]\nqm = {qm_name}\n{keys}")
    assert str(err.value) == f"[probe bad]: {message}"
    exp = parse_experiment(text + f"[probe d]\nkind = defect\nqm = {qm_name}\nradius = 0\n")
    with pytest.raises(ValueError) as err:
        library(exp.quasimorphisms[qm_name], exp.model.parse_element)
    assert str(err.value) == message


def test_rips_profile_accepts_ball_radius():
    text = FREE_GROUP + "[probe r]\nkind = rips-profile\nn_max = 2\nball_radius = 1\n"
    exp = parse_experiment(text)
    probe = exp.probes[0]
    assert probe.settings["ball_radius"] == 1
    # the ball is built when the probe runs
    status, _, result = attempt(exp, probe)
    assert status == "ok" and len(result["vertices"]) == 5


def test_corpus_configs_parse(pytestconfig):
    root = pytestconfig.rootpath / "tests" / "configs"
    names = sorted(p.name for p in root.glob("*.cfg"))
    assert names, "config corpus is missing"
    for name in names:
        text = (root / name).read_text(encoding="utf-8")
        exp = parse_experiment(text)
        assert exp.probes, name


def _key_lines():
    """(config text, line index, section header) of every `key = value`
    line of the corpus configs."""
    out = []
    for path in sorted((pathlib.Path(__file__).parent / "configs").glob("*.cfg")):
        text, header = path.read_text(encoding="utf-8"), None
        for index, line in enumerate(text.splitlines()):
            if line.startswith("["):
                header = line
            elif "=" in line:
                out.append((text, index, header))
    return out


KEY_LINES = _key_lines()


@settings(max_examples=5, deadline=None)
@given(suffix=st.from_regex(r"[a-z0-9_]{1,8}", fullmatch=True))
def test_a_renamed_key_is_a_one_line_config_error_naming_its_section(suffix):
    # no section reads a key with this prefix, so the renamed key is fresh;
    # every key line is renamed in turn, as a renamed optional key (say
    # cell_cap) is caught by this rule alone
    for text, index, header in KEY_LINES:
        lines = text.splitlines()
        lines[index] = f"unread_{suffix} =" + lines[index].split("=", 1)[1]
        with pytest.raises(ConfigError) as err:
            parse_experiment("\n".join(lines) + "\n")
        message = str(err.value)
        assert message.startswith(f"{header}: ") and "\n" not in message, message


# the keys that carry a precondition of the operation a probe invokes;
# the keys that size its work are left alone
PRECONDITION_KEYS = (
    "dstar", "kprime", "scaling", "x", "start", "target", "origin", "letters", "k", "defect",
    "slack", "s",
)
# optional precondition keys the corpus leaves out, added after the kind
OPTIONAL_KEYS = {"novikov-solve": ("defect", "slack"), "zs-cycle": ("defect",),
                 "peak-reduce": ("origin",)}
RULE_MESSAGES = (
    "dstar must be positive",
    "kprime must exceed 2 dstar",
    "must lie in (4 D*/5, D*]",
    "the scaling element must be a single generator letter",
    "the scaling element must have positive phi-bar",
    "is outside Aker(phi, D*)",
    "kernel path normalization needs F_2 x Z",
    "is not in the kernel of phi",
    "the obstruction probe works in free groups only",
    "x and the scaling element must not commute",
    "dstar must be non-negative",
    "max_s |phi-bar(s)| + D* must be positive",
    "search endpoints must lie in ball(",
    "defect must be non-negative",
)


def _precondition_sites():
    """(config text, line index, key, whether the key is added after that
    line) of every precondition key of a corpus probe section."""
    sites = []
    for text, index, header in KEY_LINES:
        key, value = (part.strip() for part in text.splitlines()[index].split("=", 1))
        if header.startswith("[probe ") and key in PRECONDITION_KEYS:
            sites.append((text, index, key, False))
        if header.startswith("[probe ") and key == "kind":
            sites += [(text, index, extra, True) for extra in OPTIONAL_KEYS.get(value, ())]
    return sites


def _token(names):
    """An integer or exact number of magnitude at most 10, or a word of
    at most 6 letters over `names`."""
    letter = st.sampled_from([f"{n}{e}" for n in names for e in ("", "^-1")])
    return st.one_of(
        # where the rules bite: D* = 0, a value of 0, the identity
        st.sampled_from(("0", "1", "-1")),
        st.integers(-10, 10).map(str),
        st.builds("{}/{}".format, st.integers(-10, 10), st.integers(1, 10)),
        st.builds(
            lambda p, r: f"{p} {'-' if r < 0 else '+'} {abs(r)}/2 * sqrt(2)",
            st.integers(-5, 5), st.integers(-5, 5),
        ),
        st.lists(letter, max_size=6).map(lambda word: " ".join(word) or "1"),
    )


@settings(max_examples=500, deadline=2000)
@given(data=st.data())
def test_a_hostile_precondition_ends_at_validation_or_not_on_its_rule(data):
    # each precondition is refused by validation, or the probe runs
    # without its library call failing on one
    text, index, key, added = data.draw(st.sampled_from(_precondition_sites()))
    names = re.search(r"^names = (.*)$", text, re.M).group(1).split()
    lines = text.splitlines()
    header = next(line for line in reversed(lines[:index]) if line.startswith("["))
    line = f"{key} = {data.draw(_token(names))}"
    lines[index:index + 1] = [lines[index], line] if added else [line]
    try:
        exp = parse_experiment("\n".join(lines) + "\n")
    except ConfigError:
        return
    probe = next(p for p in exp.probes if p.title == header)
    status, error, _ = attempt(exp, probe)
    assert not (status == "failed" and any(m in error for m in RULE_MESSAGES)), (line, error)


def test_ball_cap_is_bounded_when_the_group_is_read():
    text = FREE_GROUP.replace("ball_cap = 8", "ball_cap = {}") + PSIBAR + DEFECT_PROBE
    assert parse_experiment(text.format(MAX_BALL_CAP)).model.ball_cap == MAX_BALL_CAP
    with pytest.raises(ConfigError) as err:
        parse_experiment(text.format(MAX_BALL_CAP + 1))
    assert str(err.value) == (
        f"[group]: ball_cap {MAX_BALL_CAP + 1} is more than MAX_BALL_CAP = {MAX_BALL_CAP}"
    )


def test_a_novikov_solve_ball_is_bounded_before_it_is_built():
    # F_2 x Z: ball(8) holds 26,225 elements and ball(9) 78,711
    text = (
        "[group]\nfree_rank = 2\nabelian_rank = 1\nnames = a b u\nball_cap = 30000\n\n"
        "[quasimorphism phi]\nkind = homomorphism\na = 1\nu = sqrt(2)\n\n"
        "[probe n]\nkind = novikov-solve\nqm = phi\nstart = 1\nend = b\n"
        "scaling = u\nwindow = 4\nradius = {}\n"
    )
    parse_experiment(text.format(8))
    for radius, count in ((9, "78711"), (30000, "at least 60001")):
        with pytest.raises(ConfigError) as err:
            parse_experiment(text.format(radius))
        assert str(err.value) == (
            f"[probe n]: novikov-solve at radius {radius} enumerates {count} ball "
            f"elements, more than MAX_SOLVE_BALL = {MAX_SOLVE_BALL}"
        )


@pytest.mark.parametrize(
    "probe, fits, over",
    [
        # F_2: ball(5) has 485 elements and ball(6) 1,457
        ("kind = defect\nqm = psibar", 5, "defect at radius 6 scans 1062153 pairs"),
        (
            "kind = aker-cert\nqm = psibar\ndstar = 1\nscaling = a b a^-1 b^-1",
            5,
            "aker-cert at radius 6 scans 2122849 pairs",
        ),
        # 2 * 400 + 1 powers of a alone give more than MAX_SCAN_PAIRS pairs
        ("kind = defect\nqm = psibar", 5, "defect at radius 400 scans at least 321201 pairs"),
    ],
)
def test_pair_scans_are_bounded_before_the_ball_is_built(probe, fits, over):
    radius = int(re.search(r"radius (\d+)", over).group(1))
    group = FREE_GROUP.replace("ball_cap = 8", f"ball_cap = {radius}")
    section = f"[probe s]\n{probe}\nradius = {{}}\n"
    parse_experiment(group + PSIBAR + section.format(fits))
    with pytest.raises(ConfigError) as err:
        parse_experiment(group + PSIBAR + section.format(radius))
    assert str(err.value) == (
        f"[probe s]: {over}, more than MAX_SCAN_PAIRS = {MAX_SCAN_PAIRS}"
    )
