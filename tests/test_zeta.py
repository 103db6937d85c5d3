import pytest

from purity.fixtures import drinfeld_local, tate_cycle, triangle_of_planes, \
    two_planes
from purity.zeta import (FactoredRationalT, ZetaError, l_factor, mu_from_e2,
                         theorem_shape, zeta_function,
                         zeta_matches_weight_table)


@pytest.fixture(scope="module")
def tate32():
    return tate_cycle(3, 2)


def degree_balance(f):
    """Degree of the denominator minus degree of the numerator."""
    return -sum(m for _, m in f.factors)


def test_factored_arithmetic():
    f = FactoredRationalT.from_dict(2, {0: 1, 1: 0, 2: -1})
    assert f.factors == ((0, 1), (2, -1))
    assert str(f) == "(1 - T) / (1 - 4T)"
    assert str(FactoredRationalT.from_dict(2, {})) == "1"
    assert degree_balance(f) == 0


def test_l_factors_tate(tate32):
    cx = tate32
    assert str(l_factor(cx, 0)) == "1 / (1 - T)"
    assert str(l_factor(cx, 1)) == "1 / (1 - T)"
    assert str(l_factor(cx, 2)) == "1 / (1 - 2T)"


@pytest.mark.parametrize("m,q", [(2, 2), (3, 2), (5, 2), (2, 3), (3, 3), (5, 3)])
def test_tate_zeta_theorem_shape(m, q):
    cx = tate_cycle(m, q)
    assert mu_from_e2(cx, 1) == 1
    z = zeta_function(cx)
    assert dict(z.factors) == {1: -1}
    assert str(z) == "1 / (1 - %dT)" % q
    shape = theorem_shape(cx, 1)
    assert shape["match"] and shape["mu"] == 1 and shape["sign_exponent"] == 1


def test_two_planes_zeta():
    cx = two_planes(2, 2)
    z = zeta_function(cx)
    assert dict(z.factors) == {0: -1, 1: -2, 2: -1}
    assert str(z) == "1 / ((1 - T) (1 - 2T)^2 (1 - 4T))"
    assert zeta_matches_weight_table(cx)
    assert mu_from_e2(cx, 2) == 0


def test_triangle_zeta():
    cx = triangle_of_planes(2)
    z = zeta_function(cx)
    assert dict(z.factors) == {0: -1, 1: -7, 2: -1}
    assert zeta_matches_weight_table(cx)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_drinfeld_mu_is_the_euler_characteristic_of_the_dual_complex(q):
    # dual complex: 3 vertices, 3m edges, (q+1)m triangles with m = q^2+q+1,
    # and H^1 = 0, so mu = chi - 1 = 2 + (q-2)m
    cx = drinfeld_local(2, q)
    assert mu_from_e2(cx, 2) == 2 + (q - 2) * (q * q + q + 1)


def test_drinfeld_zeta_theorem_shape():
    cx = drinfeld_local(2, 2)
    shape = theorem_shape(cx, 2)
    assert shape["match"]
    assert shape["sign_exponent"] == -1
    assert shape["mu"] == 2
    assert str(shape["actual"]) == "1 / ((1 - T)^3 (1 - 2T) (1 - 4T))"
    assert zeta_matches_weight_table(cx)


def test_degree_balance_equals_alternating_invariant_dims(tate32):
    cx = tate32
    from purity.weightss import inertia_invariants
    z = zeta_function(cx)
    alt = sum((-1) ** w * sum(inertia_invariants(cx, w).values())
              for w in range(0, 2 * cx.n + 1))
    assert degree_balance(z) == alt


def test_zeta_refuses_unverified_purity(tate32, monkeypatch):
    import purity.zeta as zeta_mod
    monkeypatch.setattr(zeta_mod, "check_purity", lambda cx, w: (False, []))
    with pytest.raises(ZetaError):
        zeta_function(tate32)


def test_json_shape(tate32):
    z = zeta_function(tate32)
    data = z.to_json()
    assert data == {"factors": [{"a": 1, "multiplicity": -1}]}


def test_good_reduction_single_component():
    # one smooth component, no deeper strata: all weights even, no monodromy
    from purity.cohomology import build_ring, proj
    from purity.weightss import SemistableComplex, Stratum
    cx = SemistableComplex([Stratum("X", frozenset([0]),
                                    build_ring(proj(2)), {})], 2,
                           name="good-reduction-P2")
    z = zeta_function(cx)
    assert dict(z.factors) == {0: -1, 1: -1, 2: -1}
    assert str(z) == "1 / ((1 - T) (1 - 2T) (1 - 4T))"
    assert mu_from_e2(cx, 2) == 0
