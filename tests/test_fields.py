from math import isqrt

import pytest

from purity.fields import (MR_BOUND, FieldError, FieldSpec, _prime_power,
                           field_spec, get_field, is_prime)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_field_axioms_exhaustive(q):
    fq = get_field(field_spec(q))
    els = list(fq.elements())
    assert len(els) == q
    for a in els:
        assert fq.add(a, 0) == a
        assert fq.mul(a, 1) == a
        assert fq.add(a, fq.sub(0, a)) == 0
        if a:
            assert fq.mul(a, fq.inv(a)) == 1
    for a in els:
        for b in els:
            assert fq.add(a, b) == fq.add(b, a)
            assert fq.mul(a, b) == fq.mul(b, a)
            for c in els:
                assert fq.mul(a, fq.add(b, c)) == fq.add(fq.mul(a, b), fq.mul(a, c))
                assert fq.mul(fq.mul(a, b), c) == fq.mul(a, fq.mul(b, c))


def test_prime_power_detection():
    assert field_spec(9).p == 3 and field_spec(9).e == 2
    with pytest.raises(FieldError):
        field_spec(6)
    with pytest.raises(FieldError):
        field_spec(1)
    with pytest.raises(FieldError):
        field_spec(32)   # beyond the supported bound


@pytest.mark.parametrize("q,pe", [(2, (2, 1)), (4, (2, 2)), (9, (3, 2)),
                                  (17, (17, 1)), (2 ** 40, (2, 40)),
                                  (3 ** 19, (3, 19)),
                                  (1000000007, (1000000007, 1))])
def test_prime_power_split(q, pe):
    # trial division up to sqrt(q): a large prime is answered at once
    assert _prime_power(q) == pe


@pytest.mark.parametrize("q", [-2, 0, 1, 6, 12, 2 ** 20 * 3, 1000000007 * 2])
def test_prime_power_rejects(q):
    with pytest.raises(FieldError):
        _prime_power(q)


def test_prime_power_by_integer_roots():
    assert _prime_power(3 ** 50) == (3, 50)
    assert _prime_power(2 ** 61 - 1) == (2 ** 61 - 1, 1)
    with pytest.raises(FieldError, match="not a prime power"):
        _prime_power(1000000007 * 1000000009)


def test_prime_power_refuses_sizes_beyond_the_primality_bound():
    assert 2 ** 89 - 1 > MR_BOUND
    with pytest.raises(FieldError, match="bound"):
        _prime_power(2 ** 89 - 1)
    with pytest.raises(FieldError, match="bound"):
        is_prime(MR_BOUND)


def test_miller_rabin_matches_trial_division():
    for m in range(-3, 5000):
        assert is_prime(m) == (m > 1 and all(m % d for d in
                                             range(2, isqrt(m) + 1)))
    # strong pseudoprimes to the first bases are composite
    for m in (2047, 1373653, 3215031751, 3825123056546413051):
        assert not is_prime(m)


def test_modulus_validation():
    # x^2 + 1 is reducible over F_2 ((x+1)^2), so this must be rejected
    with pytest.raises(FieldError):
        FieldSpec(2, 2, (1, 0, 1))
    # and irreducible over F_3
    FieldSpec(3, 2, (1, 0, 1))
    with pytest.raises(FieldError):
        FieldSpec(4, 1, ())   # characteristic must be prime


@pytest.mark.parametrize("modulus", [[1, 1, 1], None, (1.0, 1, 1),
                                     (1, True, 1)])
def test_an_extension_modulus_is_a_tuple_of_ints(modulus):
    # a list modulus would construct, and then fail hashed by a ring cache
    with pytest.raises(FieldError, match="modulus must be a tuple of ints"):
        FieldSpec(2, 2, modulus)
    assert FieldSpec(2, 2, (1, 1, 1)) == field_spec(4)


# a prime field has one spec, FieldSpec(p, 1, ()): a None modulus would give
# an unequal spec of the same field, and with it a second ring cache key
@pytest.mark.parametrize("modulus", [None, [], (1,), (0, 1)])
def test_a_prime_field_takes_only_the_empty_modulus(modulus):
    with pytest.raises(FieldError, match="prime field takes no modulus"):
        FieldSpec(2, 1, modulus)
    assert FieldSpec(2, 1, ()) == FieldSpec(2, 1) == field_spec(2)


def test_frobenius_is_additive():
    fq = get_field(field_spec(8))
    for a in fq.elements():
        for b in fq.elements():
            fa = fq.mul(a, a)
            fb = fq.mul(b, b)
            s = fq.add(a, b)
            assert fq.mul(s, s) == fq.add(fa, fb)
