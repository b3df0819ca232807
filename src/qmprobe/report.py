"""Report serialization.

Reports are JSON files with two top-level objects: a `header` carrying
run metadata (timestamp and elapsed time) and a `body` carrying
everything a verifier needs.  The determinism contract covers the body
only: for a fixed config the body is byte-identical across
runs, which is why every exact value serializes as a canonical string
("p/q" or "p/q+r/s*sqrt(d)", never a float) and every collection is
emitted in a canonical order.

Paths serialize as an origin word plus edge letters; chains as sorted
(cell, coefficient) lists.  Exact values, letters, paths and cells have
matching parsers so that verification can rebuild the objects without
re-running any search; recorded chains are compared as payloads.
"""

from __future__ import annotations

import json
from typing import Optional

from .errors import ReplayError
from .exact import ExactReal
from .groups import Generator, GroupElement, GroupModel
from .novikov import CayleyComplex, Cell, WindowedChain
from .paths import Path, path_from_letters

SCHEMA = "qmprobe-report-1"


def exact_payload(value: Optional[ExactReal]) -> Optional[str]:
    return None if value is None else str(value)


def element_payload(g: GroupElement) -> str:
    return g.word_str()


def letter_payload(model: GroupModel, letter: Generator) -> str:
    return model.generator_name(letter)


def parse_letter(model: GroupModel, payload: str) -> Generator:
    """The letter `letter_payload` spells as `name` or `name^-1`; any
    other token is refused without being expanded."""
    if isinstance(payload, str):
        inverse = payload.endswith("^-1")
        name = payload[:-3] if inverse else payload
        if name in model.generator_names:
            return Generator(model.generator_names.index(name), inverse)
    raise ReplayError(f"not a single letter: {payload!r}")


def path_payload(path: Path) -> dict:
    model = path.model
    return {
        "origin": element_payload(path.origin),
        "letters": [letter_payload(model, g) for g in path.edge_letters()],
    }


def parse_path(model: GroupModel, payload: dict) -> Path:
    try:
        origin = model.parse_element(payload["origin"])
        letters = [parse_letter(model, token) for token in payload["letters"]]
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ReplayError(f"malformed path payload: {exc}") from exc
    return path_from_letters(origin, letters)


# -- cells and chains ----------------------------------------------------


def cell_payload(cx: CayleyComplex, cell: Cell) -> list:
    base = element_payload(cx.element(cell))
    if cell[0] == "v":
        return ["v", base]
    if cell[0] == "e":
        return ["e", base, cx.model.generator_name(cx.positive[cell[3]])]
    i, j = cx.square_types[cell[3]]
    return [
        "f",
        base,
        cx.model.generator_name(cx.positive[i]),
        cx.model.generator_name(cx.positive[j]),
    ]


def parse_cell(cx: CayleyComplex, payload: list) -> Cell:
    try:
        tag = payload[0]
        g = cx.model.parse_element(payload[1])
        if tag == "v":
            return cx.vertex_cell(g)
        names = [cx.model.generator_name(p) for p in cx.positive]
        if tag == "e":
            return cx.edge_cell(g, names.index(payload[2]))
        if tag == "f":
            pair = (names.index(payload[2]), names.index(payload[3]))
            return cx.face_cell(g, cx.square_types.index(pair))
    except (AttributeError, IndexError, TypeError, ValueError) as exc:
        raise ReplayError(f"malformed cell payload {payload!r}: {exc}") from exc
    raise ReplayError(f"unknown cell tag in {payload!r}")


def chain_payload(cx: CayleyComplex, chain: WindowedChain) -> dict:
    return {
        "dimension": chain.dimension,
        "window": exact_payload(chain.window),
        "terms": [
            [cell_payload(cx, cell), chain.terms[cell]]
            for cell in chain.sorted_cells()
        ],
    }


# -- whole-report helpers ------------------------------------------------


def assemble(body: dict, header: dict) -> dict:
    return {"header": header, "body": body}


def dump_report(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def load_report(text: str) -> dict:
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ReplayError(f"report is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ReplayError("report JSON is nested too deeply") from exc
    if not isinstance(report, dict) or "body" not in report:
        raise ReplayError("report has no body object")
    body = report["body"]
    if not isinstance(body, dict) or body.get("schema") != SCHEMA:
        raise ReplayError("report body has an unknown schema")
    return report
