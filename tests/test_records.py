"""Public contract of the plain record and value classes: repr, value equality
and hashing, immutability of the value types, fresh default containers, and
an import of the package that loads neither `dataclasses` nor `inspect`."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from kappahopf import (
    Basis,
    BoundSet,
    Convention,
    GaussianRational,
    KinematicParams,
    PairingContext,
)
from kappahopf.reports import (
    BasisMapCandidate,
    BasisMapReport,
    CheckEntry,
    CheckReport,
    DerivationEntry,
    DerivationReport,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_loads_neither_dataclasses_nor_inspect():
    code = (
        "import sys; before = set(sys.modules); import kappahopf; "
        "print(*sorted(set(sys.modules) - before))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    added = set(done.stdout.split())
    assert "kappahopf.kinematics" in added
    assert not added & {"dataclasses", "inspect"}


# each object with its repr as the former dataclasses printed it
REPRS = [
    (
        GaussianRational(Fraction(1), Fraction(2)),
        "GaussianRational(re=Fraction(1, 1), im=Fraction(2, 1))",
    ),
    (KinematicParams(2.0), "KinematicParams(kappa=2.0, c=1.0, hbar=1.0, M=0.0, Pvec=0.0)"),
    (
        KinematicParams(kappa=1e3, c=3.0, hbar=0.5, M=1.5, Pvec=2.0),
        "KinematicParams(kappa=1000.0, c=3.0, hbar=0.5, M=1.5, Pvec=2.0)",
    ),
    (
        PairingContext(Basis.STANDARD, Convention.RIGHT),
        "PairingContext(basis=<Basis.STANDARD: 'standard'>, "
        "convention=<Convention.RIGHT: 'right'>)",
    ),
    (
        BoundSet(0.0, 0.5, 0.5, 1.0),
        "BoundSet(time_position=0.0, momentum_position=0.5, energy_time=0.5, "
        "momentum_time=1.0)",
    ),
    (CheckEntry("x", True), "CheckEntry(subject='x', passed=True, residual='0')"),
    (
        CheckReport("p", "a", [CheckEntry("s", False, "1")]),
        "CheckReport(preset='p', axiom='a', "
        "entries=[CheckEntry(subject='s', passed=False, residual='1')])",
    ),
    (
        DerivationEntry("[x0, x1]", "a", "b", True),
        "DerivationEntry(pair='[x0, x1]', derived='a', table='b', match=True)",
    ),
    (
        DerivationReport("bicross", "left"),
        "DerivationReport(basis='bicross', convention='left', entries=[])",
    ),
    (
        BasisMapCandidate("standard->bicross", 1, True, False, True),
        "BasisMapCandidate(direction='standard->bicross', sign=1, intertwines=True, "
        "intertwines_flipped=False, counit_compatible=True, residuals={})",
    ),
    (BasisMapReport([]), "BasisMapReport(candidates=[])"),
]


@pytest.mark.parametrize("obj, text", REPRS, ids=[type(o).__name__ for o, _ in REPRS])
def test_repr(obj, text):
    assert repr(obj) == text


# two equal values built apart, one that differs in a single field, and
# that field's name
FROZEN = [
    (GaussianRational.of(1, 2), GaussianRational(Fraction(1), Fraction(2)),
     GaussianRational.of(1, 3), "im"),
    (PairingContext(Basis.BICROSS), PairingContext(Basis.BICROSS, Convention.LEFT),
     PairingContext(Basis.BICROSS, Convention.RIGHT), "convention"),
    (KinematicParams(2.0, M=1.0), KinematicParams(kappa=2.0, c=1.0, hbar=1.0, M=1.0),
     KinematicParams(2.0, M=1.5), "M"),
    (BoundSet(0.0, 0.5, 0.5, 1.0), BoundSet(0.0, 0.5, 0.5, 1.0),
     BoundSet(0.0, 0.5, 0.5, 2.0), "momentum_time"),
]
FROZEN_IDS = [type(a).__name__ for a, *_ in FROZEN]


@pytest.mark.parametrize("a, b, other, field", FROZEN, ids=FROZEN_IDS)
def test_frozen_value_equality_and_hash(a, b, other, field):
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert a != other
    assert len({a, b, other}) == 2


@pytest.mark.parametrize("a, b, other, field", FROZEN, ids=FROZEN_IDS)
def test_frozen_fields_cannot_change(a, b, other, field):
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(other, field))
    with pytest.raises(AttributeError):
        delattr(a, field)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == b and a != other


@pytest.mark.parametrize("a, b, other, field", FROZEN, ids=FROZEN_IDS)
def test_frozen_copy_and_pickle(a, b, other, field):
    for clone in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(clone) is type(a) and clone == a


def test_mutable_records_compare_by_value_and_are_unhashable():
    assert CheckEntry("x", True) == CheckEntry("x", True, "0")
    assert CheckEntry("x", True) != CheckEntry("x", False)
    assert DerivationReport("bicross", "left") == DerivationReport("bicross", "left", [])
    with pytest.raises(TypeError):
        hash(CheckReport("p", "a"))
    report = CheckReport("p", "a")
    report.entries.append(CheckEntry("x", True))
    report.axiom = "b"
    assert report.to_dict()["axiom"] == "b"


@pytest.mark.parametrize(
    "make, field",
    [
        (lambda: CheckReport("p", "a"), "entries"),
        (lambda: DerivationReport("bicross", "left"), "entries"),
        (lambda: BasisMapCandidate("standard->bicross", 1, True, False, True), "residuals"),
    ],
    ids=["CheckReport", "DerivationReport", "BasisMapCandidate"],
)
def test_default_containers_are_fresh(make, field):
    first, second = make(), make()
    assert getattr(first, field) is not getattr(second, field)
    assert not getattr(first, field)


def test_to_dict():
    assert BasisMapCandidate("a->b", -1, False, True, True, {"P1": "0"}).to_dict() == {
        "direction": "a->b",
        "sign": -1,
        "intertwines": False,
        "intertwines_flipped": True,
        "counit_compatible": True,
        "residuals": {"P1": "0"},
    }
