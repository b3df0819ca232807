"""Benchmark inputs: the experiment configs of each workload.

`scan` and `fill` are generated from the seed.  The seed picks a
renaming of the free generators a, b (swap them or not) and an
inversion (invert b or not), and applies it to every word, value and
endpoint, so each seed asks the same questions of an isomorphic input
with the same amount of work.  a is never inverted: in `fill`, where
phi(a) = 1, that changes which faces fall in the window (2,432 instead
of 2,704), so runs on different seeds would not be comparable.  Seed 0
(and every seed = 0 mod 4) is the identity, which gives exactly the
ROADMAP baseline cases.  `suite` is the committed tests/configs/*.cfg,
used as they are, whatever the seed.
"""

from __future__ import annotations

from pathlib import Path

WORKLOADS = ("scan", "fill", "suite")
VARIANTS = 4

_SCAN = """\
[group]
free_rank = 2
names = a b
ball_cap = 8

[quasimorphism psi]
kind = brooks
word = {a} {b}

[quasimorphism psibar]
kind = homogenized
base = psi

[probe defect]
kind = defect
qm = psibar
radius = 4

[probe aker]
kind = aker-cert
qm = psibar
dstar = 1
radius = 4
scaling = {a} {b} {a_inv} {b_inv}

[probe profile]
kind = rips-profile
n_max = 4
ball_radius = 5
"""

_FILL = """\
[group]
free_rank = 2
abelian_rank = 1
names = a b u
ball_cap = 8

[quasimorphism phi]
kind = homomorphism
{phi_a}
u = sqrt(2)

[probe fill]
kind = novikov-solve
qm = phi
start = 1
end = {b}
scaling = u
window = 4
radius = 6
extract = true
"""


def variant(seed: int) -> int:
    """The renaming a seed selects; pins are kept per variant."""
    return seed % VARIANTS


def pin_key(workload: str, seed: int) -> str:
    """Key of the pinned exit codes and digests that apply to a seed."""
    return "any" if workload == "suite" else str(variant(seed))


def _renaming(seed: int) -> dict[str, tuple[str, int]]:
    """Free generator -> (name of its image, exponent sign)."""
    v = variant(seed)
    names = ("b", "a") if v & 1 else ("a", "b")
    return {
        "a": (names[0], 1),
        "b": (names[1], -1 if v & 2 else 1),
    }


def _letter(image: tuple[str, int], exponent: int = 1) -> str:
    name, sign = image
    e = sign * exponent
    return name if e == 1 else f"{name}^{e}"


def configs(workload: str, seed: int, root: Path) -> list[tuple[str, str]]:
    """(file name, config text) pairs, in the order they are run."""
    if workload == "suite":
        paths = sorted((root / "tests" / "configs").glob("*.cfg"))
        if not paths:
            raise FileNotFoundError("no tests/configs/*.cfg under the checkout")
        return [(p.name, p.read_text(encoding="utf-8")) for p in paths]
    rn = _renaming(seed)
    if workload == "scan":
        text = _SCAN.format(
            a=_letter(rn["a"]),
            b=_letter(rn["b"]),
            a_inv=_letter(rn["a"], -1),
            b_inv=_letter(rn["b"], -1),
        )
        return [("scan.cfg", text)]
    if workload == "fill":
        # phi(a) = 1 and phi(b) = 0 move with the renaming; u is central
        # and keeps phi(u) = sqrt(2)
        name, sign = rn["a"]
        text = _FILL.format(phi_a=f"{name} = {sign}", b=_letter(rn["b"]))
        return [("fill.cfg", text)]
    raise ValueError(f"unknown workload {workload!r}")
