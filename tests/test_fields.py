from math import isqrt

import pytest

from purity import fields
from purity.fields import (IRREDUCIBLE_MODULI, MAX_Q, MR_BOUND, FieldError, Fq,
                           _prime_power, get_field, is_prime)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_field_axioms_exhaustive(q):
    fq = get_field(q)
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
    assert get_field(9).p == 3 and get_field(9).e == 2
    with pytest.raises(FieldError):
        get_field(6)
    with pytest.raises(FieldError):
        get_field(1)
    with pytest.raises(FieldError):
        get_field(32)   # beyond the supported bound


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


@pytest.mark.parametrize("q", [4.0, 2.0, 3.5, "4", None, True])
def test_a_field_size_that_is_no_int_is_refused(q):
    with pytest.raises(FieldError, match="must be an int"):
        _prime_power(q)
    with pytest.raises(FieldError, match="must be an int"):
        get_field(q)


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


def test_every_prime_power_up_to_max_q_has_a_table_modulus():
    extensions = set()
    for q in range(2, MAX_Q + 1):
        try:
            p, e = _prime_power(q)
        except FieldError:
            continue
        if e > 1:
            extensions.add(q)
            modulus = IRREDUCIBLE_MODULI[q]
            assert len(modulus) == e + 1 and modulus[-1] == 1
        assert get_field(q).q == q
    assert set(IRREDUCIBLE_MODULI) == extensions == {4, 8, 9, 16}


# each modulus has a root or a square factor: (x+1)^2, (x+1)(x^2+x+1),
# (x-1)(x+1) and (x^2+x+1)^2, so the tables have a zero divisor
@pytest.mark.parametrize("q,modulus", [(4, (1, 0, 1)), (8, (1, 0, 0, 1)),
                                       (9, (2, 0, 1)), (16, (1, 0, 1, 0, 1))])
def test_a_reducible_table_modulus_is_refused(monkeypatch, q, modulus):
    monkeypatch.setitem(fields.IRREDUCIBLE_MODULI, q, modulus)
    with pytest.raises(FieldError, match="has no inverse"):
        Fq(q)   # get_field is cached


def test_frobenius_is_additive():
    fq = get_field(8)
    for a in fq.elements():
        for b in fq.elements():
            fa = fq.mul(a, a)
            fb = fq.mul(b, b)
            s = fq.add(a, b)
            assert fq.mul(s, s) == fq.add(fa, fb)
