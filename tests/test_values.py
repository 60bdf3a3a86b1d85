"""Value semantics of the frozen result and data classes.

Each class gets one instance, built fresh by its factory.  The pinned
reprs are the text these classes printed as ``dataclasses`` classes.
"""

import copy
import pickle

import pytest

from bettiforge._frozen import Frozen
from bettiforge.aci import (
    AciBetti,
    AciTypeFailure,
    GorensteinFailure,
    LinkResult,
    Verdict,
    check_betti,
    link_betti,
)
from bettiforge.exact import parse_matrix
from bettiforge.gorenstein import (
    GorensteinBetti,
    GorensteinVerdict,
    HilbertFn,
    check_gorenstein_betti,
    hilbert_of_ci,
)
from bettiforge.multiset import IntMultiset
from bettiforge.pfaffian import AlternatingMatrix
from bettiforge.structure import (
    AlternatingPresentation,
    ComplexReport,
    GradedComplex,
    GradedFreeModule,
    PairReport,
    build_aci_complex,
    verify_complex,
)

ms = IntMultiset.from_values

_LINEAR_5X5 = [
    ["0", "x", "y", "z", "0"],
    ["-x", "0", "0", "y", "z"],
    ["-y", "0", "0", "x", "0"],
    ["-z", "-y", "-x", "0", "x"],
    ["0", "-z", "0", "-x", "0"],
]


def _presentation():
    matrix = AlternatingMatrix.from_poly_matrix(parse_matrix(_LINEAR_5X5))
    return AlternatingPresentation(matrix, (1, 2, 3), (2, 2, 2, 2, 2))


# class -> (factory, repr of the instance it builds)
VALUES = {
    IntMultiset: (lambda: ms([3, 3, 5]), "IntMultiset(entries=((3, 2), (5, 1)))"),
    GorensteinVerdict: (
        lambda: check_gorenstein_betti(ms([1, 2])),
        "GorensteinVerdict(admissible=False, theta=None, reason='|gens| = 2 must be odd and >= 3')",
    ),
    GorensteinBetti: (
        lambda: GorensteinBetti.from_gens(ms([2, 2, 2])),
        "GorensteinBetti(gens=IntMultiset(entries=((2, 3),)), theta=6)",
    ),
    HilbertFn: (lambda: hilbert_of_ci([2, 2, 2], 3), "HilbertFn(values=(1, 3, 3, 1))"),
    AciBetti: (
        lambda: AciBetti.from_values([2, 2, 2, 3], [4, 4, 4, 4, 5], [5, 6]),
        "AciBetti(d=IntMultiset(entries=((2, 3), (3, 1))), e=IntMultiset(entries=((4, 4), (5, 1))), "
        "f=IntMultiset(entries=((5, 1), (6, 1))))",
    ),
    AciTypeFailure: (
        lambda: AciTypeFailure(3, ((4,), (5, 5))),
        "AciTypeFailure(clause=3, vals=((4,), (5, 5)))",
    ),
    GorensteinFailure: (
        lambda: GorensteinFailure("parity", (1, 2), 4),
        "GorensteinFailure(kind='parity', g0=(1, 2), theta_g=4)",
    ),
    Verdict: (
        lambda: check_betti(AciBetti.from_values([2, 2, 2, 3], [4, 4, 4, 4, 5], [5, 6])),
        "Verdict(admissible=False, stage=1, failure=AciTypeFailure(clause=2, vals=((3,),)), "
        "g0=None, theta_g=None, mci=None)",
    ),
    LinkResult: (
        lambda: link_betti(ms([2, 2, 2, 2, 2]), 5, (2, 2, 8), ms([8])),
        "LinkResult(d0=7, d=19, d_level=IntMultiset(entries=((2, 2), (7, 1), (8, 1))), "
        "e_level=IntMultiset(entries=((4, 1), (9, 5), (15, 1))), "
        "f_level=IntMultiset(entries=((10, 3), (15, 1))), "
        "minimal=AciBetti(d=IntMultiset(entries=((2, 2), (7, 1), (8, 1))), "
        "e=IntMultiset(entries=((4, 1), (9, 5))), f=IntMultiset(entries=((10, 3),))))",
    ),
    GradedFreeModule: (lambda: GradedFreeModule((2, 2, 2, 1)), "GradedFreeModule(twists=(2, 2, 2, 1))"),
    GradedComplex: (
        lambda: build_aci_complex(_presentation()),
        "GradedComplex(modules=(GradedFreeModule(twists=(0,)), GradedFreeModule(twists=(2, 2, 2, 1)), "
        "GradedFreeModule(twists=(3, 3, 3, 3, 3)), GradedFreeModule(twists=(4, 4))), "
        "maps=(PolyMatrix(1x4), PolyMatrix(4x5), PolyMatrix(5x2)))",
    ),
    AlternatingPresentation: (
        _presentation,
        "AlternatingPresentation(matrix=AlternatingMatrix(size=5), g_indices=(1, 2, 3), "
        "twists=(2, 2, 2, 2, 2), theta=5)",
    ),
    PairReport: (
        lambda: PairReport(False, "(1,1) = x"),
        "PairReport(composition_zero=False, composition_witness='(1,1) = x')",
    ),
    ComplexReport: (
        lambda: verify_complex(build_aci_complex(_presentation())),
        "ComplexReport(pairs=(PairReport(composition_zero=True, composition_witness=None), "
        "PairReport(composition_zero=True, composition_witness=None)), homogeneous=True, "
        "homogeneity_witness=None, rank_ok=True)",
    ),
}
# a field holds a matrix, which is unhashable, so the value is too
UNHASHABLE = {GradedComplex, AlternatingPresentation}

CLASSES = pytest.mark.parametrize("cls", list(VALUES), ids=lambda cls: cls.__name__)


def _build(cls):
    value = VALUES[cls][0]()
    assert type(value) is cls
    return value


@CLASSES
def test_equal_by_value(cls):
    a, b = _build(cls), _build(cls)
    assert a is not b and a == b and not a != b
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


@CLASSES
def test_unequal_to_another_class_with_the_same_fields(cls):
    a = _build(cls)
    lookalike = type("Lookalike", (Frozen,), {"_fields": cls._fields})
    other = object.__new__(lookalike)
    for name in cls._fields:
        object.__setattr__(other, name, getattr(a, name))
    assert a != other and other != a and not a == other
    assert a != tuple(getattr(a, name) for name in cls._fields)


@CLASSES
def test_repr_is_pinned(cls):
    assert repr(_build(cls)) == VALUES[cls][1]


@CLASSES
def test_fields_cannot_be_assigned_or_deleted(cls):
    a = _build(cls)
    for name in cls._fields:
        before = getattr(a, name)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(a, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(a, name)
        assert getattr(a, name) is before
    with pytest.raises(AttributeError):
        a.extra = 1


@CLASSES
def test_pickle_and_deepcopy_round_trip(cls):
    a = _build(cls)
    for back in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a), copy.copy(a)):
        assert type(back) is cls and back == a and repr(back) == repr(a)


def test_unpickling_skips_validation(monkeypatch):
    b = _build(AciBetti)
    data = pickle.dumps(b)

    def refuse(*args):
        raise AssertionError("validation ran while unpickling")

    monkeypatch.setattr(AciBetti, "__init__", refuse)
    monkeypatch.setattr(IntMultiset, "__init__", refuse)
    assert pickle.loads(data) == b
    assert copy.deepcopy(b) == b


def _frozen_subclasses():
    found, todo = [], [Frozen]
    while todo:
        for sub in todo.pop().__subclasses__():
            found.append(sub)
            todo.append(sub)
    return [cls for cls in found if cls.__module__.startswith("bettiforge.")]


def test_fields_are_the_annotated_names_in_order():
    # Frozen's positional __init__ and the repr read the fields in the order of _fields
    classes = _frozen_subclasses()
    assert set(classes) == set(VALUES)
    for cls in classes:
        assert cls._fields == tuple(cls.__dict__["__annotations__"]), cls.__name__


# the records whose __init__ only stores its arguments
RECORDS = [GorensteinVerdict, LinkResult, GradedFreeModule, PairReport, ComplexReport]


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_records_take_one_argument_per_field(cls):
    a = _build(cls)
    values = [getattr(a, name) for name in cls._fields]
    assert cls(*values) == a
    for wrong in ([], values + [None]):
        with pytest.raises(TypeError):
            cls(*wrong)
