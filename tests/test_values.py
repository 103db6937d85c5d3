"""Value semantics of the engine's record classes (`purity.record.Record`):
equal fields give equal objects of one class, hashed as their field tuple;
records have no order; and the reprs that error messages print are
pinned."""

import pytest

from purity import linalg
from purity.cohomology import (BlownUp, CohomologyError, Product, Projective,
                               SurfaceSpec, gen_e)
from purity.geometry import make_subvariety
from purity.lefschetz import PrimitiveDecomposition, omega_form
from purity.linalg import SignatureReport
from purity.zeta import FactoredRationalT

# each call builds a new object from new, equal fields
VALUES = {
    "LinearSubvariety": lambda: make_subvariety(2, [[1, 1, 0]], 3),
    "Projective": lambda: Projective(2),
    "BlownUp": lambda: BlownUp(3, 2),
    "Product": lambda: Product((Projective(1), BlownUp(2, 2))),
    "SurfaceSpec": lambda: SurfaceSpec(("a", "b"),
                                       linalg.mat([[1, 0], [0, -1]])),
    "SignatureReport": lambda: SignatureReport(3, 1, 0),
    "InvariantDivisorForm": lambda: omega_form(3, 2),
    "FactoredRationalT": lambda: FactoredRationalT(2, ((0, 1), (1, -1))),
}


@pytest.mark.parametrize("name", list(VALUES))
def test_equal_fields_give_equal_values_with_equal_hashes(name):
    a, b = VALUES[name](), VALUES[name]()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert hash(a) == hash(tuple(getattr(a, f) for f in type(a)._fields))
    assert len({a, b}) == 1


@pytest.mark.parametrize("name", list(VALUES))
def test_values_of_different_classes_are_never_equal(name):
    value = VALUES[name]()
    for other, make in VALUES.items():
        if other != name:
            assert value != make() and make() != value
            with pytest.raises(TypeError):
                value < make()
    # not even a subclass with the same fields
    cls = type(value)
    twin = object.__new__(type("Twin", (cls,), {"__slots__": ()}))
    for slot in cls.__slots__:
        setattr(twin, slot, getattr(value, slot))
    assert value != twin and twin != value
    for a, b in ((value, twin), (twin, value)):
        with pytest.raises(TypeError):
            a < b


def test_a_primitive_decomposition_compares_by_its_columns():
    a = PrimitiveDecomposition({0: linalg.identity(1)})
    assert a == PrimitiveDecomposition({0: linalg.identity(1)})
    assert a != PrimitiveDecomposition({0: linalg.zeros(1, 0)})
    assert a != {0: linalg.identity(1)}
    with pytest.raises(TypeError, match="unhashable"):
        hash(a)


def test_reprs_are_pinned():
    assert repr(SignatureReport(3, 1, 0)) == (
        "SignatureReport(n_plus=3, n_minus=1, n_zero=0)")
    assert repr(BlownUp(3, 4)) == "BlownUp(n=3, q=4)"
    point = make_subvariety(2, [[1, 1, 0]], 3)
    assert repr(point) == (
        "LinearSubvariety(ambient_n=2, dim=0, basis=((1, 1, 0),), q=3)")
    plane = make_subvariety(2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], 2)
    with pytest.raises(CohomologyError) as err:
        gen_e(plane)
    assert str(err.value) == (
        "LinearSubvariety(ambient_n=2, dim=2, basis=((1, 0, 0), (0, 1, 0), "
        "(0, 0, 1)), q=2) is not a proper subvariety of P^2")
