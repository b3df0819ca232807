from __future__ import annotations

import json
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from qmprobe.config import load_experiment
from qmprobe.errors import ReplayError
from qmprobe.exact import ExactReal, ZERO
from qmprobe.groups import Generator
from qmprobe.novikov import CayleyComplex
from qmprobe.probes import _same
from qmprobe.paths import path_from_letters
from qmprobe.intsolve import UnsatCertificate
from qmprobe.report import (
    cell_payload,
    certificate_payload,
    chain_payload,
    encode,
    load_report,
    parse_cell,
    parse_certificate,
)
from qmprobe.runner import run_experiment
from qmprobe.search import PeakReductionTrace, PeakStep

CONFIG_DIR = pathlib.Path(__file__).parent / "configs"


def test_encode_writes_a_letter_inside_a_tuple_as_its_name(f2):
    pair = (Generator(0), Generator(1, True))
    assert encode(pair, f2) == ["a", "b^-1"]
    assert encode({"pair": [pair]}, f2) == {"pair": [["a", "b^-1"]]}


def test_encode_turns_nested_tuples_into_lists(f2):
    value = ((1, (2, 3)), [(), [4]])
    assert encode(value, f2) == [[1, [2, 3]], [[], [4]]]


@pytest.mark.parametrize("value", [None, True, False, 0, -7, "", "a b"])
def test_encode_passes_json_scalars_through(f2, value):
    assert encode(value, f2) is value


def test_encode_writes_a_record_as_the_object_of_its_fields(f2):
    """Records nested in a record, holding paths and letters, are
    written field by field: a peak-reduction trace comes out as the
    peak-reduce body records it, each step an object of six keys."""
    a, b = Generator(0), Generator(1)
    initial = path_from_letters(f2.identity(), (a, b))
    after = path_from_letters(f2.parse_element("a"), (b.inverted(), a))
    steps = (PeakStep(3, 2, 1, (a, b), ExactReal(-1) / 2, after),)
    trace = PeakReductionTrace(
        initial, steps, after, 1, 1, initial, ExactReal(0, 1, 2), ExactReal(2)
    )
    ab = {"origin": "", "letters": ["a", "b"]}
    ba = {"origin": "a", "letters": ["b^-1", "a"]}
    assert encode(trace, f2) == {
        "initial": ab,
        "steps": [
            {
                "height": 3,
                "peaks": 2,
                "index": 1,
                "pair": ["a", "b"],
                "min_phi": "-1/2",
                "path_after": ba,
            }
        ],
        "final": ba,
        "final_height": 1,
        "final_peaks": 1,
        "reduced": ab,
        "max_reduced_phi": "0/1+1/1*sqrt(2)",
        "vertex_bound": "2/1",
    }


@pytest.mark.parametrize("value", [{1, 2}, 0.5, object()], ids=["set", "float", "object"])
def test_encode_refuses_sets_floats_and_unknown_types(f2, value):
    with pytest.raises(TypeError):
        encode(value, f2)
    with pytest.raises(TypeError):
        encode({"nested": [value]}, f2)


def test_chain_payload_lists_terms_in_cell_order(z2, z2_hom11):
    # the terms come out in canonical cell order, whatever the dict's
    # insertion order; a window of None means known everywhere
    cx = CayleyComplex(z2_hom11, ZERO)
    terms = {
        cx.edge_cell(z2.parse_element("a"), 1): -2,
        cx.edge_cell(z2.identity(), 1): 1,
        cx.edge_cell(z2.identity(), 0): 3,
    }
    payload = chain_payload(cx, terms, ExactReal(6))
    assert payload == {
        "dimension": 1,
        "window": encode(ExactReal(6), z2),
        "terms": [[["e", "", "a"], 3], [["e", "", "c"], 1], [["e", "a", "c"], -2]],
    }
    assert chain_payload(cx, {}, None) == {"dimension": 1, "window": None, "terms": []}


def test_a_certificate_round_trips_through_its_payload(f2z, f2z_phi):
    cx = CayleyComplex(f2z_phi, ZERO)
    edges = [cx.edge_cell(g, i) for g in f2z.ball(2) for i in range(len(cx.positive))]
    cert = UnsatCertificate({e: k for k, e in enumerate(reversed(edges), 1)}, 3)
    payload = certificate_payload(cx, cert)
    assert payload["modulus"] == 3
    n = len(edges)
    assert payload["functional"][:2] == [[["e", "", "a"], n], [["e", "", "b"], n - 1]]
    assert [cell for cell, _ in payload["functional"]] == [cell_payload(cx, e) for e in edges]
    assert parse_certificate(cx, json.loads(json.dumps(payload))) == cert


@pytest.mark.parametrize(
    "payload, fragment",
    [
        (["v", "a"], "not an edge: ['v', 'a']"),
        (["f", "a", "a", "u"], "not an edge: ['f', 'a', 'a', 'u']"),
        (["x", "a", "a"], "not an edge"),
        (["e", "a", "a", "u"], "not an edge"),
        ("e a a", "not an edge"),
        (["e", "a", "c"], "malformed cell payload"),
        (["e", ["a"], "a"], "malformed cell payload"),
    ],
)
def test_parse_cell_reads_edges_only(f2z, f2z_phi, payload, fragment):
    """Chains are 1-chains and certificates 1-cochains, so a recorded
    cell is an edge, spelt as `cell_payload` spells it, or refused."""
    cx = CayleyComplex(f2z_phi, ZERO)
    with pytest.raises(ReplayError) as err:
        parse_cell(cx, payload)
    assert fragment in str(err.value)


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.cfg")), ids=lambda p: p.name)
def test_every_ok_payload_equals_its_json_round_trip(path):
    """`probes._compare` holds a fresh payload, as built, against one read
    back from JSON; that is sound only if the two cannot differ."""
    body = run_experiment(load_experiment(str(path)))["body"]
    results = [p["result"] for p in body["probes"] if p["status"] == "ok"]
    assert results
    for result in results:
        assert _same(result, json.loads(json.dumps(result)))


# report text made of JSON tokens, the start of a valid report, integers
# past json's 4,300-digit limit, nesting past the recursion limit and
# arbitrary characters
_REPORT_TEXT = st.lists(
    st.one_of(
        st.sampled_from(
            ["{", "}", "[", "]", ",", ":", '"body"', '"schema"', '"qmprobe-report-1"',
             '{"body": {"schema": "qmprobe-report-1"', "null", "-", "1e999", "0."]
        ),
        st.integers(1, 6_000).map(lambda n: "9" * n),
        st.integers(1, 100_000).map(lambda n: "[" * n),
        st.text(max_size=8),
    ),
    max_size=8,
).map("".join)


@settings(max_examples=60, deadline=None)
@given(_REPORT_TEXT)
def test_load_report_returns_a_report_or_raises_replay_error(text):
    try:
        report = load_report(text)
    except ReplayError:
        return
    assert isinstance(report, dict)

