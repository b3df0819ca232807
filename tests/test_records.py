"""Value records: the tuple records, the `__slots__` records and the
launch cost they keep out of every process."""

import copy
import importlib
import os
import pickle
import subprocess
import sys

import pytest

import qmprobe
from qmprobe.exact import ExactReal
from qmprobe.groups import GroupModel
from qmprobe.paths import path_from_letters
from qmprobe.probes import Section
from qmprobe.rips import ComponentCertificate
from qmprobe.search import ConstantsBundle, build_q_library, compute_constants

MODULES = [
    "groups", "intsolve", "novikov", "paths", "probes",
    "quasimorphisms", "rips", "search", "verify",
]


def _tuple_records():
    """Every tuple record class the package defines."""
    out = []
    for name in MODULES:
        module = importlib.import_module(f"qmprobe.{name}")
        for value in vars(module).values():
            if (
                isinstance(value, type)
                and issubclass(value, tuple)
                and value.__module__ == module.__name__
                and hasattr(value, "_fields")
            ):
                out.append(value)
    return out


def test_importing_the_cli_loads_no_dataclasses_inspect_or_number_tower():
    # exact numbers are built from ints alone, so neither fractions nor
    # the decimal and numbers modules it imports are loaded at launch
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    src = os.path.dirname(os.path.dirname(qmprobe.__file__))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    banned = ("dataclasses", "inspect", "fractions", "decimal", "_decimal", "numbers")
    code = f"import sys, qmprobe.cli; print(sorted(set({banned!r}) & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"free_rank": -1, "abelian_rank": 2}, "ranks must be non-negative"),
        ({"free_rank": 1, "abelian_rank": -1}, "ranks must be non-negative"),
        ({"free_rank": 0}, "need at least one generator"),
        ({"free_rank": 2, "generator_names": ("a",)}, "expected 2 generator names, got 1"),
        ({"free_rank": 2, "generator_names": ("a", "a")}, "generator names must be distinct"),
        ({"free_rank": 1, "generator_names": ("1",)}, "bad generator name '1'"),
        ({"free_rank": 27}, "too many generators for default names"),
        ({"free_rank": 1, "ball_cap": -1}, "ball_cap must be non-negative"),
    ],
)
def test_group_model_checks(kwargs, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        GroupModel(**kwargs)


def test_group_model_defaults_and_value_semantics():
    model = GroupModel(2, 1)
    assert model.generator_names == ("a", "b", "c")
    assert model.ball_cap == 10 and model.rank == 3
    same = GroupModel(free_rank=2, abelian_rank=1, generator_names=("a", "b", "c"))
    assert same == model and hash(same) == hash(model) and same is not model
    assert GroupModel(2, 1, ball_cap=11) != model
    assert model.ball(2) == same.ball(2)
    assert copy.copy(model) == model
    assert pickle.loads(pickle.dumps(model)) == model


def test_frozen_records_refuse_writes(f2):
    records = _tuple_records()
    names = {cls.__name__ for cls in records}
    assert {
        "Generator", "GroupModel", "ConstantsBundle", "ProbeKind", "ProbeCheck",
        "ComponentCertificate",
    } <= names
    for cls in records:
        record = cls._make([None] * len(cls._fields))
        with pytest.raises(AttributeError):
            setattr(record, cls._fields[0], 1)
    path = path_from_letters(f2.identity(), f2.parse_word("a"))
    cert = ComponentCertificate((0, 0), ((0, 1),))
    for record, field in [(path, "vertices"), (cert, "component_ids"), (cert, "forest")]:
        with pytest.raises(AttributeError):
            setattr(record, field, ())
        with pytest.raises(AttributeError):
            delattr(record, field)


def test_no_two_records_share_one_shape():
    """A record is defined once: two record classes with the same fields
    are allowed only where one subclasses the other."""
    records = _tuple_records()
    for i, first in enumerate(records):
        for second in records[i + 1 :]:
            if first._fields == second._fields:
                assert issubclass(first, second) or issubclass(second, first), (
                    f"{first.__qualname__} and {second.__qualname__} share {first._fields}"
                )


def test_path_and_certificate_are_values(f2):
    a, word = f2.parse_element("a"), f2.parse_word("a")
    p = path_from_letters(f2.identity(), word)
    same = path_from_letters(f2.identity(), word)
    assert p == same and hash(p) == hash(same)
    assert p != path_from_letters(a, f2.parse_word("a^-1")) and p != (f2.identity(), a)
    assert len(p) == 1
    for copied in (copy.copy(p), pickle.loads(pickle.dumps(p))):
        assert copied == p and copied.edge_letters() == p.edge_letters()
    cert = ComponentCertificate((0, 0, 2), ((0, 1),))
    assert cert == ComponentCertificate((0, 0, 2), ((0, 1),))
    assert hash(cert) == hash(ComponentCertificate((0, 0, 2), ((0, 1),)))


def test_probe_specs_do_not_share_settings():
    first, second = Section("[probe x]", {}, "x"), Section("[probe y]", {}, "y")
    first.settings["radius"] = 3
    first.read.add("radius")
    assert second.settings == {} and second.read == set()
    first.kind = "defect"
    assert first.kind == "defect" and second.kind == ""


def test_the_raised_bundle_keeps_every_field_it_does_not_set(z2, z2_hom01):
    c = z2.parse_element("c")
    bundle = compute_constants(z2_hom01, ExactReal(6) / 5, ExactReal(3), c)
    lib = build_q_library(z2_hom01, bundle, c, radius=30, depth=12)
    raised = lib.bundle
    assert type(raised) is ConstantsBundle
    assert raised.descent_depth == 12 != bundle.descent_depth
    assert raised.level_guard > bundle.level_guard
    for field in ConstantsBundle._fields:
        if field not in ("descent_depth", "level_guard"):
            # repr tells the int 1 from ExactReal(1)
            assert repr(getattr(raised, field)) == repr(getattr(bundle, field)), field
