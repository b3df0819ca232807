"""Report serialization.

Reports are JSON files with two top-level objects: a `header` carrying
run metadata (timestamp and elapsed time) and a `body` carrying
everything a verifier needs.  The determinism contract covers the body
only: for a fixed config the body is byte-identical across
runs, which is why every exact value serializes as a canonical string
("p/q" or "p/q+r/s*sqrt(d)", never a float) and every collection is
emitted in a canonical order.

`encode` is the one serializer: every probe hands it raw values and
records, so it alone decides how a value is written.  A record is
written as the object of its fields, so a record that reaches a body
names its fields as the body does.  Paths serialize as an origin word
plus edge letters.  Cells and chains are bare tuples
and dicts.  A chain is a 1-chain and a certificate a 1-cochain, so the
one cell spelt and parsed is an edge: `cell_payload` writes it,
`chain_payload` a 1-chain as sorted (edge, coefficient) lists under its
window, `certificate_payload` an infeasibility certificate the same
way, and `face_payloads` lists a solver's faces, spelling each base
once.  Verification parses back only what stands in for a search: the
elements of a defect witness (`parse_element`) and an infeasibility
certificate (`parse_certificate`, through `parse_cell`).

Every command loads this module, so it imports no layer that only some
probe kinds use: `paths` and `intsolve` are looked up inside the
functions that build or parse a path or a certificate, and `encode`
checks for a path only after every other type, so a report with no
path never loads `paths`.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

from .errors import ReplayError
from .exact import ExactReal
from .groups import Generator, GroupElement, GroupModel, _abelian_word, _free_word, _join_words

if TYPE_CHECKING:
    from .intsolve import UnsatCertificate
    from .novikov import CayleyComplex, Cell, Chain
    from .paths import Path

SCHEMA = "qmprobe-report-1"
_PLAIN = frozenset((int, bool, str, type(None)))


def encode(value, model: GroupModel):
    """The JSON form of a report value: an exact value as its canonical
    string, an element as its word, a letter as its name, a path as its
    origin and letters, a record as the object of its fields; tuples and
    lists become lists and dicts are encoded value by value.  ints,
    bools, strings and None pass through, and any other type raises
    `TypeError`."""
    kind = type(value)
    if kind in _PLAIN:
        return value
    if kind is ExactReal:
        return str(value)
    if kind is GroupElement:
        return value.word_str()
    if kind is Generator:
        return model.generator_name(value)
    if kind is tuple or kind is list:
        # scalars inline: an aker exponent table holds tens of thousands
        return [v if type(v) in _PLAIN else encode(v, model) for v in value]
    if kind is dict:
        return {k: encode(v, model) for k, v in value.items()}
    if isinstance(value, tuple) and hasattr(kind, "_fields"):
        return {k: encode(v, model) for k, v in zip(kind._fields, value)}
    from .paths import Path  # the last type with an encoding: `paths` loads here

    if kind is Path:
        return {
            "origin": value.origin.word_str(),
            "letters": [model.generator_name(g) for g in value.edge_letters()],
        }
    raise TypeError(f"no report encoding for {kind.__name__}")


def parse_element(model: GroupModel, payload: str) -> GroupElement:
    """The element `encode` spells as its word; anything but a string is
    refused."""
    if not isinstance(payload, str):
        raise ReplayError(f"bad element payload {payload!r}")
    try:
        return model.parse_element(payload)
    except ValueError as exc:
        raise ReplayError(f"bad element payload {payload!r}: {exc}") from exc


def parse_letter(model: GroupModel, payload: str) -> Generator:
    """The letter `encode` spells as `name` or `name^-1`; any other
    token is refused without being expanded."""
    if isinstance(payload, str):
        inverse = payload.endswith("^-1")
        name = payload[:-3] if inverse else payload
        if name in model.generator_names:
            return Generator(model.generator_names.index(name), inverse)
    raise ReplayError(f"not a single letter: {payload!r}")


def parse_path(model: GroupModel, payload: dict) -> Path:
    from .paths import path_from_letters

    try:
        origin = model.parse_element(payload["origin"])
        letters = [parse_letter(model, token) for token in payload["letters"]]
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ReplayError(f"malformed path payload: {exc}") from exc
    return path_from_letters(origin, letters)


# -- edges, chains and certificates -------------------------------------


def cell_payload(cx: CayleyComplex, cell: Cell) -> list:
    """The edge ("e", free, ab, i) from g to g s_i as ["e", g, s_i]."""
    return ["e", cx.element(cell).word_str(), cx.model.generator_name(cx.positive[cell[3]])]


def parse_cell(cx: CayleyComplex, payload: list) -> Cell:
    """The edge `cell_payload` spells; any other cell is refused."""
    if not (isinstance(payload, list) and len(payload) == 3 and payload[0] == "e"):
        raise ReplayError(f"not an edge: {payload!r}")
    try:
        g = cx.model.parse_element(payload[1])
        names = [cx.model.generator_name(p) for p in cx.positive]
        return cx.edge_cell(g, names.index(payload[2]))
    except (AttributeError, ValueError) as exc:
        raise ReplayError(f"malformed cell payload {payload!r}: {exc}") from exc


def _terms(cx: CayleyComplex, terms: dict) -> list:
    """(edge, coefficient) pairs in canonical cell order."""
    return [[cell_payload(cx, c), terms[c]] for c in sorted(terms, key=cx.cell_sort_key)]


def chain_payload(cx: CayleyComplex, terms: Chain, window: ExactReal | None) -> dict:
    """A 1-chain known below `window` (None: everywhere)."""
    return {
        "dimension": 1,
        "window": encode(window, cx.model),
        "terms": _terms(cx, terms),
    }


def certificate_payload(cx: CayleyComplex, cert: UnsatCertificate) -> dict:
    """An infeasibility certificate: its modulus and its functional."""
    return {"modulus": cert.modulus, "functional": _terms(cx, cert.functional)}


def parse_certificate(cx: CayleyComplex, payload: dict) -> UnsatCertificate:
    """The certificate `certificate_payload` writes, its edges parsed
    back; `novikov.settle` checks its modulus and coefficients."""
    from .intsolve import UnsatCertificate

    if not isinstance(payload, dict):
        raise ValueError("certificate is not an object")
    functional = {parse_cell(cx, cell): coeff for cell, coeff in payload["functional"]}
    return UnsatCertificate(functional, payload["modulus"])


def face_payloads(cx: CayleyComplex, faces) -> list:
    """Each 2-cell of `faces` as ["f", g, x, y], the square on the steps
    x and y at g.  Faces come base then type, so each base is spelt once
    per run of faces on it, from the spellings of its free and abelian
    parts; many bases share these, so each distinct part is spelt once
    per call.  Each type's generator names are looked up once."""
    model = cx.model
    names, free_rank = model.generator_names, model.free_rank
    pairs = [
        (model.generator_name(cx.positive[i]), model.generator_name(cx.positive[j]))
        for i, j in cx.square_types
    ]
    free_words: dict[tuple[int, ...], str] = {}
    abelian_words: dict[tuple[int, ...], str] = {}
    out = []
    last = None
    for _, free, ab, t in faces:
        if last != (free, ab):
            last = (free, ab)
            u = free_words.get(free)
            if u is None:
                u = free_words[free] = _free_word(names, free)
            v = abelian_words.get(ab)
            if v is None:
                v = abelian_words[ab] = _abelian_word(names, free_rank, ab)
            base = _join_words(u, v)
        out.append(["f", base, *pairs[t]])
    return out


# -- whole-report helpers ------------------------------------------------


def dump_report(report: dict) -> str:
    # without indent json runs its C encoder; ": " keeps each key and
    # value spelt as the indented form spelt them, for readers that grep
    return json.dumps(report, sort_keys=True, separators=(",", ": ")) + "\n"


def load_report(text: str) -> dict:
    try:
        report = json.loads(text)
    except ValueError as exc:
        # a JSONDecodeError, or an integer too long to convert
        raise ReplayError(f"report is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ReplayError("report JSON is nested too deeply") from exc
    if not isinstance(report, dict) or "body" not in report:
        raise ReplayError("report has no body object")
    body = report["body"]
    if not isinstance(body, dict) or body.get("schema") != SCHEMA:
        raise ReplayError("report body has an unknown schema")
    return report
