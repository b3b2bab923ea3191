"""The value classes: frozen ``__slots__`` records with dataclass behaviour.

Every ``repr`` below is the one the package printed when these classes were
``@dataclass(frozen=True)``; the four identity classes were ``eq=False``.
"""

import copy
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

from loopsix.errors import InputError
from loopsix.groups import FGAbelianGroup, SphereTable
from loopsix.homotopy import (
    Circle,
    Loop,
    LoopFactorMultiset,
    Product,
    Smash,
    Sphere,
    SphereModN,
    Wedge,
    YSpaceReport,
)
from loopsix.linalg import det_int
from loopsix.manifold import (
    BundleData,
    FourManifold,
    SixManifoldRing,
    bundle_from_classes,
    cohomology_ring,
    new_four_manifold,
)
from loopsix.rational import CoformalityReport, QuadraticPresentation, SullivanModel
from loopsix.series import (
    GradedLieDims,
    NegativeLieDimension,
    TruncatedSeries,
    pbw_expand,
)

from conftest import REPO_ROOT

#: A rank-1 ring, the source of the QuadraticPresentation record below.
_D1 = new_four_manifold([[1]])
D1_RING = cohomology_ring(_D1, bundle_from_classes(_D1, [1], 5))

#: (class, keyword arguments, repr); FGAbelianGroup leaves its defaulted
#: fields out.
RECORDS = [
    (Circle, {}, "Circle()"),
    (Sphere, {"dim": 2}, "Sphere(dim=2)"),
    (SphereModN, {"order": 3}, "SphereModN(order=3)"),
    (Loop, {"space": Sphere(2)}, "Loop(space=Sphere(dim=2))"),
    (
        Product,
        {"factors": (Circle(), Loop(Sphere(3)))},
        "Product(factors=(Circle(), Loop(space=Sphere(dim=3))))",
    ),
    (
        Wedge,
        {"summands": (Sphere(2), Sphere(3))},
        "Wedge(summands=(Sphere(dim=2), Sphere(dim=3)))",
    ),
    (
        Smash,
        {"factors": (Sphere(2), Sphere(3))},
        "Smash(factors=(Sphere(dim=2), Sphere(dim=3)))",
    ),
    (
        YSpaceReport,
        dict(beta=(1, 0), parity="odd", case="I", route="r", y_cells="S^5"),
        "YSpaceReport(beta=(1, 0), parity='odd', case='I', route='r', y_cells='S^5')",
    ),
    (
        LoopFactorMultiset,
        dict(
            circles=1, sphere_loops=((2, 1),), mod_factors=(3,), truncated=False, cutoff=4
        ),
        "LoopFactorMultiset(circles=1, sphere_loops=((2, 1),), mod_factors=(3,), "
        "truncated=False, cutoff=4)",
    ),
    (
        FourManifold,
        {"form": ((0, 1), (1, 0)), "determinant": -1},
        "FourManifold(form=((0, 1), (1, 0)), determinant=-1)",
    ),
    (
        BundleData,
        dict(w2=(1, 0), p1=5, alpha=(1, 0), ell=1),
        "BundleData(w2=(1, 0), p1=5, alpha=(1, 0), ell=1)",
    ),
    (
        SixManifoldRing,
        dict(d=0, basis=("1", "y"), _degrees={"1": 0, "y": 4}, _table={}),
        "SixManifoldRing(d=0, basis=('1', 'y'), _degrees={'1': 0, 'y': 4}, _table={})",
    ),
    (
        QuadraticPresentation,
        {"ring": D1_RING},
        f"QuadraticPresentation(ring={D1_RING!r})",
    ),
    (
        SullivanModel,
        dict(generators=(("a", 2), ("b", 3)), differential={"b": {(2, 0): Fraction(1)}}),
        "SullivanModel(generators=(('a', 2), ('b', 3)), "
        "differential={'b': {(2, 0): Fraction(1, 1)}})",
    ),
    (
        CoformalityReport,
        {"status": "coformal", "witness": "w"},
        "CoformalityReport(status='coformal', witness='w')",
    ),
    (
        TruncatedSeries,
        {"coeffs": (1, Fraction(1, 2))},
        "TruncatedSeries(coeffs=(1, Fraction(1, 2)))",
    ),
    (GradedLieDims, {"dims": (1, 0, 2)}, "GradedLieDims(dims=(1, 0, 2))"),
    (FGAbelianGroup, {"free_rank": 1}, "FGAbelianGroup(free_rank=1, counts=())"),
    (
        SphereTable,
        dict(
            entries={(3, 4): FGAbelianGroup(0, (((2, 2), 1),))},
            max_n=3,
            max_k=4,
            source="t",
        ),
        "SphereTable(entries={(3, 4): FGAbelianGroup(free_rank=0, "
        "counts=(((2, 2), 1),))}, max_n=3, max_k=4, source='t')",
    ),
]
IDENTITY = (SixManifoldRing, SphereTable, QuadraticPresentation, SullivanModel)
IDS = [cls.__name__ for cls, _, _ in RECORDS]


@pytest.mark.parametrize("cls, kwargs, text", RECORDS, ids=IDS)
class TestRecordContract:
    def test_repr_keyword_and_positional(self, cls, kwargs, text):
        assert repr(cls(**kwargs)) == text
        assert repr(cls(*kwargs.values())) == text

    def test_frozen_and_slotted(self, cls, kwargs, text):
        record = cls(**kwargs)
        name = next(iter(kwargs), "anything")
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert not hasattr(record, "__dict__")
        assert repr(record) == text

    def test_equality_and_hash(self, cls, kwargs, text):
        a, b = cls(**kwargs), cls(**kwargs)
        if cls in IDENTITY:
            assert a == a and a != b
            assert hash(a) == object.__hash__(a)
        else:
            assert a == b and not a != b
            assert hash(a) == hash(b)

    def test_copy_and_pickle_keep_the_fields(self, cls, kwargs, text):
        record = cls(**kwargs)
        for clone in (copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
            assert type(clone) is cls and repr(clone) == text


def test_defaults_fill_omitted_fields():
    assert FGAbelianGroup(1).counts == ()


def test_classes_with_equal_fields_differ():
    factors = (Sphere(2),)
    assert Product(factors) != Wedge(factors)
    assert Product(factors) != Smash(factors)  # the same field name, too
    assert Sphere(2) != Loop(2) and Sphere(2) != (2,)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: Sphere(0), ValueError, "sphere dimension must be >= 1"),
        (lambda: SphereModN(1), ValueError, "S^3{n} needs n >= 2"),
        (lambda: TruncatedSeries(()), ValueError, "a series needs at least its "
         "constant term"),
        (lambda: GradedLieDims((1, -1)), NegativeLieDimension,
         "negative dimension in (1, -1)"),
        (lambda: Sphere(2.5), ValueError, "sphere dimension must be an int, got 2.5"),
        (lambda: Sphere(True), ValueError, "sphere dimension must be an int, got True"),
        (lambda: SphereModN(3.5), ValueError, "S^3{n} needs an int n, got 3.5"),
        (lambda: TruncatedSeries.from_coefficients([True]), ValueError,
         "expected an int or Fraction, got bool"),
        (lambda: GradedLieDims.from_dims([1.7, True]), InputError,
         "Lie dimensions must be integers"),
        (lambda: GradedLieDims((1.5, True)), InputError,
         "Lie dimensions must be integers"),
        (lambda: GradedLieDims((True,)), InputError, "Lie dimensions must be integers"),
        (lambda: pbw_expand(GradedLieDims((1.5,)), 3), InputError,
         "Lie dimensions must be integers"),
        (lambda: FGAbelianGroup.from_orders(4.5, 2), InputError,
         "group orders and free rank must be integers"),
        (lambda: FGAbelianGroup(2.5), InputError,
         "free rank must be a non-negative int, got 2.5"),
        (lambda: FGAbelianGroup(True), InputError,
         "free rank must be a non-negative int, got True"),
        (lambda: FGAbelianGroup(-1), InputError,
         "free rank must be a non-negative int, got -1"),
        (lambda: FGAbelianGroup.from_orders(free_rank=-2), InputError,
         "free rank must be a non-negative int, got -2"),
        (lambda: TruncatedSeries((1.5, 1)), ValueError,
         "expected an int or Fraction, got float"),
        (lambda: TruncatedSeries((1, True)), ValueError,
         "expected an int or Fraction, got bool"),
        (lambda: det_int([[1.5]]), InputError, "matrix entries must be integers"),
    ],
    ids=["Sphere", "SphereModN", "TruncatedSeries", "GradedLieDims", "Sphere-float",
         "Sphere-bool", "SphereModN-float", "TruncatedSeries-bool",
         "GradedLieDims-inexact", "GradedLieDims-float", "GradedLieDims-bool",
         "pbw_expand-float", "FGAbelianGroup-float", "FGAbelianGroup-rank-float",
         "FGAbelianGroup-rank-bool", "FGAbelianGroup-rank-negative",
         "FGAbelianGroup-from-orders-negative", "TruncatedSeries-float",
         "TruncatedSeries-bool-coefficient", "det_int-float"],
)
def test_constructor_checks(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error and str(info.value) == message


def test_cli_start_up_loads_no_dataclasses():
    # -S keeps site-packages' own start-up imports out of the check
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(REPO_ROOT / 'src')!r})\n"
        "import loopsix.cli\n"
        "from loopsix import groups\n"
        "groups.load_table()\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
