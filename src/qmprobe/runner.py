"""Probe execution.

Each probe in a validated experiment maps to one library call; the
result is flattened into a JSON-compatible payload carrying the full
witness so that verification can replay it without re-searching.
Probes run sequentially in config order (a threads argument is
accepted for interface stability, but every search here is

deterministic and cheap enough that fanning out would only buy noise).
Cap overruns mark the probe and leave the rest of the report intact.
"""

from __future__ import annotations

import time
from datetime import datetime, timezone

from . import __version__
from .config import Experiment, ProbeSpec
from .errors import CapExceededError, ExtractionError, QmprobeError
from .novikov import (
    CayleyComplex,
    build_zs_cycle,
    keep_negative_and_extract_path,
    ray_cycle,
    windowed_boundary_solve,
)
from .paths import straight_path
from .quasimorphisms import (
    certify_aker_approximate_subgroup,
    defect_lower_bound,
)
from .report import (
    SCHEMA,
    assemble,
    cell_payload,
    chain_payload,
    element_payload,
    exact_payload,
    letter_payload,
    path_payload,
)
from .rips import _prepare_vertices, connectivity_profile
from .search import (
    NotFoundWithinBall,
    bounded_path_search,
    build_q_library,
    compute_constants,
    f2z_kernel_path_normalize,
    free_group_obstruction_probe,
    peak_reduction,
)


def run_experiment(exp: Experiment, threads: int = 1) -> dict:
    started = time.monotonic()
    probes_out = []
    caps_hit = []
    for probe in exp.probes:
        entry = {
            "name": probe.name,
            "kind": probe.kind,
            "params": dict(probe.raw),
            "status": "ok",
            "error": None,
            "result": None,
        }
        runner = _RUNNERS[probe.kind]
        try:
            entry["result"] = runner(exp, probe)
        except CapExceededError as exc:
            entry["status"] = "cap-exceeded"
            entry["error"] = str(exc)
            caps_hit.append(probe.name)
        except (QmprobeError, ValueError) as exc:
            entry["status"] = "failed"
            entry["error"] = str(exc)
        probes_out.append(entry)
    model = exp.model
    body = {
        "schema": SCHEMA,
        "tool": "qmprobe",
        "version": __version__,
        "config_echo": exp.raw_text,
        "group": {
            "free_rank": model.free_rank,
            "abelian_rank": model.abelian_rank,
            "names": list(model.generator_names),
            "ball_cap": model.ball_cap,
        },
        "probes": probes_out,
        "caps_hit": caps_hit,
    }
    header = {
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "elapsed_ms": int((time.monotonic() - started) * 1000),
        "threads": threads,
    }
    return assemble(body, header)


def _qm(exp: Experiment, probe: ProbeSpec):
    return exp.quasimorphisms[probe.settings["qm_name"]]


def _run_defect(exp: Experiment, probe: ProbeSpec) -> dict:
    s = probe.settings
    qm = _qm(exp, probe)
    est = defect_lower_bound(qm, s["radius"], upper=s["claimed_upper"])
    return {
        "qm": probe.settings["qm_name"],
        "radius": est.radius,
        "lower": exact_payload(est.lower),
        "upper": None if est.upper is None else exact_payload(est.upper),
        "provenance": est.provenance,
        "witness_kind": est.witness_kind,
        "witness": [element_payload(g) for g in est.witness],
        "witness_value": exact_payload(est.witness_value),
    }


def _run_aker_cert(exp: Experiment, probe: ProbeSpec) -> dict:
    s = probe.settings
    qm = _qm(exp, probe)
    cert = certify_aker_approximate_subgroup(qm, s["dstar"], s["scaling"], s["radius"])
    return {
        "qm": probe.settings["qm_name"],
        "dstar": exact_payload(cert.dstar),
        "radius": cert.radius,
        "scaling": None if cert.scaling is None else element_payload(cert.scaling),
        "witness": [element_payload(g) for g in cert.subset.witness],
        "members": [element_payload(g) for g in cert.members],
        "exponents": list(cert.exponents),
        "passed": cert.passed,
        "counterexample": (
            None
            if cert.counterexample is None
            else [element_payload(g) for g in cert.counterexample]
        ),
    }


def _run_rips_profile(exp: Experiment, probe: ProbeSpec) -> dict:
    s = probe.settings
    verts = _prepare_vertices(s["vertices"])
    profile = connectivity_profile(verts, s["n_max"])
    return {
        "vertices": [element_payload(v) for v in verts],
        "n_max": s["n_max"],
        "scales": list(profile.scales),
        "counts": list(profile.counts),
        "threshold": profile.threshold,
        "forest_at_threshold": None if profile.forest is None else [list(e) for e in profile.forest],
    }


def _run_path_search(exp: Experiment, probe: ProbeSpec) -> dict:
    s = probe.settings
    qm = _qm(exp, probe)
    got = bounded_path_search(
        qm, s["start"], s["target"], s["k"], s["radius"], s["k_max"]
    )
    out = {
        "qm": probe.settings["qm_name"],
        "start": element_payload(s["start"]),
        "target": element_payload(s["target"]),
        "k": exact_payload(s["k"]),
        "k_max": None if s["k_max"] is None else exact_payload(s["k_max"]),
        "radius": s["radius"],
    }
    if isinstance(got, NotFoundWithinBall):
        out.update(
            found=False,
            explored=got.explored,
            reason=got.reason,
        )
    else:
        out.update(
            found=True,
            path=path_payload(got.path),
            min_phi=exact_payload(got.min_phi),
            max_phi=exact_payload(got.max_phi),
        )
    return out


def _bundle_payload(bundle) -> dict:
    return {
        "dstar": exact_payload(bundle.dstar),
        "kprime": exact_payload(bundle.kprime),
        "descent_depth": bundle.descent_depth,
        "level_guard": exact_payload(bundle.level_guard),
        "height_bound": exact_payload(bundle.height_bound),
        "scaling_distance": bundle.scaling_distance,
        "max_pair_value": exact_payload(bundle.max_pair_value),
        "max_generator_value": exact_payload(bundle.max_generator_value),
    }


def _library(exp: Experiment, probe: ProbeSpec):
    s = probe.settings
    qm = _qm(exp, probe)
    bundle = compute_constants(qm, s["dstar"], s["kprime"], s["scaling"])
    return build_q_library(qm, bundle, s["scaling"], s["radius"], s["depth"])


def _library_payload(exp: Experiment, library) -> dict:
    model = exp.model
    entries = []
    for entry in library.entries:
        entries.append(
            {
                "s": letter_payload(model, entry.pair[0]),
                "t": letter_payload(model, entry.pair[1]),
                "path": None if entry.path is None else path_payload(entry.path),
                "min_phi": exact_payload(entry.min_phi),
                "failure": entry.failure,
            }
        )
    return {
        "scaling": element_payload(library.scaling),
        "radius": library.radius,
        "depth": library.depth,
        "complete": library.complete,
        "bundle": _bundle_payload(library.bundle),
        "entries": entries,
    }


def _run_q_library(exp: Experiment, probe: ProbeSpec) -> dict:
    library = _library(exp, probe)
    out = _library_payload(exp, library)
    out["qm"] = probe.settings["qm_name"]
    return out


def _run_peak_reduce(exp: Experiment, probe: ProbeSpec) -> dict:
    s = probe.settings
    qm = _qm(exp, probe)
    library = _library(exp, probe)
    trace = peak_reduction(qm, s["path"], library)
    steps = []
    for step in trace.steps:
        steps.append(
            {
                "height": step.height,
                "peaks": step.peak_count,
                "index": step.peak_index,
                "pair": [
                    letter_payload(exp.model, step.pair[0]),
                    letter_payload(exp.model, step.pair[1]),
                ],
                "min_phi": exact_payload(step.min_phi),
                "path_after": path_payload(step.path_after),
            }
        )
    return {
        "qm": probe.settings["qm_name"],
        "library": _library_payload(exp, library),
        "initial": path_payload(trace.initial),
        "steps": steps,
        "final": path_payload(trace.final),
        "final_height": trace.final_height,
        "final_peaks": trace.final_peaks,
        "reduced": path_payload(trace.reduced),
        "max_reduced_phi": exact_payload(trace.max_reduced_phi),
        "vertex_bound": exact_payload(trace.vertex_bound),
    }


def _run_f2z_example(exp: Experiment, probe: ProbeSpec) -> dict:
    s = probe.settings
    qm = _qm(exp, probe)
    witness = f2z_kernel_path_normalize(qm, straight_path(s["start"], s["target"]))
    return {
        "qm": probe.settings["qm_name"],
        "start": element_payload(s["start"]),
        "target": element_payload(s["target"]),
        "path": path_payload(witness.path),
        "min_phi": exact_payload(witness.min_phi),
        "max_phi": exact_payload(witness.max_phi),
    }


def _run_free_obstruction(exp: Experiment, probe: ProbeSpec) -> dict:
    s = probe.settings
    qm = _qm(exp, probe)
    runs = []
    previous = None
    increasing = True
    for depth in range(1, s["max_depth"] + 1):
        rep = free_group_obstruction_probe(qm, s["x"], s["scaling"], depth, s["dstar"])
        if previous is not None and not rep.max_bound > previous:
            increasing = False
        previous = rep.max_bound
        runs.append(
            {
                "depth": depth,
                "geodesic": path_payload(rep.geodesic),
                "bounds": [exact_payload(b) for b in rep.bounds],
                "max_bound": exact_payload(rep.max_bound),
            }
        )
    return {
        "qm": probe.settings["qm_name"],
        "x": element_payload(s["x"]),
        "scaling": element_payload(s["scaling"]),
        "dstar": exact_payload(s["dstar"]),
        "max_depth": s["max_depth"],
        "runs": runs,
        "maxima_strictly_increasing": increasing,
    }


def _run_novikov_solve(exp: Experiment, probe: ProbeSpec) -> dict:
    s = probe.settings
    qm = _qm(exp, probe)
    cx = CayleyComplex(qm, s["defect"])
    connecting = straight_path(s["start"], s["end"])
    cycle = ray_cycle(cx, s["start"], s["end"], connecting, s["scaling"], s["window"])
    outcome = windowed_boundary_solve(
        cx, cycle.chain, s["window"], s["radius"], s["slack"], s["cell_cap"]
    )
    out = {
        "qm": probe.settings["qm_name"],
        "start": element_payload(s["start"]),
        "end": element_payload(s["end"]),
        "scaling": element_payload(s["scaling"]),
        "window": exact_payload(s["window"]),
        "radius": s["radius"],
        "slack": exact_payload(s["slack"]),
        "defect": exact_payload(s["defect"]),
        "connecting": path_payload(connecting),
        "cycle": chain_payload(cx, cycle.chain),
        "floor": exact_payload(outcome.floor),
        "status": outcome.status,
        "faces": [cell_payload(cx, f) for f in outcome.faces],
        "coefficients": None,
        "certificate": None,
        "extraction": None,
    }
    if outcome.status == "sat":
        out["coefficients"] = list(outcome.coefficients)
        if s["extract"]:
            try:
                extraction = keep_negative_and_extract_path(cx, outcome.filling, cycle)
                out["extraction"] = {
                    "path": path_payload(extraction.path),
                    "min_phi": exact_payload(extraction.min_phi),
                    "bound": exact_payload(extraction.bound),
                    "meets_bound": extraction.meets_bound,
                }
            except ExtractionError as exc:
                out["extraction"] = {"error": str(exc)}
    else:
        cert = outcome.certificate
        functional = sorted(
            cert.functional.items(), key=lambda item: cx.cell_sort_key(item[0])
        )
        out["certificate"] = {
            "modulus": cert.modulus,
            "functional": [
                [cell_payload(cx, cell), coeff] for cell, coeff in functional
            ],
        }
    return out


def _run_zs_cycle(exp: Experiment, probe: ProbeSpec) -> dict:
    s = probe.settings
    qm = _qm(exp, probe)
    cx = CayleyComplex(qm, s["defect"])
    scaling = s["scaling"]
    depth = s["depth"]
    phi_c = qm.homogeneous_value(scaling)
    required = s["k"] + s["defect"] + 1
    out = {
        "qm": probe.settings["qm_name"],
        "s": letter_payload(exp.model, s["s"]),
        "scaling": element_payload(scaling),
        "depth": depth,
        "k": exact_payload(s["k"]),
        "radius": s["radius"],
        "defect": exact_payload(s["defect"]),
        "threshold": {
            "n_phi_c": exact_payload(phi_c * depth),
            "required": exact_payload(required),
            "satisfied": bool(phi_c * depth > required),
        },
    }
    if s["s"] == scaling.letters()[0]:
        zs = build_zs_cycle(cx, s["s"], scaling, depth, None)
        out.update(
            status="zero-by-convention",
            high_path=None,
            high_min=None,
            chain=chain_payload(cx, zs.chain),
        )
        return out
    top = scaling ** depth
    target = exp.model.generator_element(s["s"]) * top
    got = bounded_path_search(
        qm, top, target, s["k"] - phi_c * depth, s["radius"]
    )
    if isinstance(got, NotFoundWithinBall):
        out.update(
            status="not-found",
            high_path=None,
            high_min=None,
            chain=None,
            explored=got.explored,
            reason=got.reason,
        )
        return out
    zs = build_zs_cycle(cx, s["s"], scaling, depth, got.path, k_bound=s["k"])
    out.update(
        status="ok",
        high_path=path_payload(zs.high_path),
        high_min=exact_payload(zs.high_min),
        chain=chain_payload(cx, zs.chain),
    )
    return out


_RUNNERS = {
    "defect": _run_defect,
    "aker-cert": _run_aker_cert,
    "rips-profile": _run_rips_profile,
    "path-search": _run_path_search,
    "q-library": _run_q_library,
    "peak-reduce": _run_peak_reduce,
    "f2z-example": _run_f2z_example,
    "free-obstruction": _run_free_obstruction,
    "novikov-solve": _run_novikov_solve,
    "zs-cycle": _run_zs_cycle,
}
