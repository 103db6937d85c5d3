"""Arithmetic in small finite fields F_q, q = p^e <= 16.

A field is named by its size q: F_q is unique up to isomorphism, and
`get_field(q)` builds its tables over the one built-in modulus of each
non-prime q (IRREDUCIBLE_MODULI).  Elements are encoded as integers 0..q-1,
read as base-p digit vectors (little-endian) of polynomials over F_p modulo
that modulus.  For prime q the encoding is plain residues mod p.
"""

from __future__ import annotations

from functools import lru_cache

# Monic irreducible modulus for the non-prime field sizes we support,
# as coefficient tuples (c0, c1, ..., 1), constant term first.
IRREDUCIBLE_MODULI = {
    4: (1, 1, 1),        # x^2 + x + 1 over F_2
    8: (1, 1, 0, 1),     # x^3 + x + 1 over F_2
    9: (1, 0, 1),        # x^2 + 1 over F_3
    16: (1, 1, 0, 0, 1), # x^4 + x + 1 over F_2
}

MAX_Q = 16


class FieldError(ValueError):
    pass


# Miller-Rabin on the prime bases 2..41 decides primality exactly below this
# bound (Sorenson and Webster 2015); larger sizes are refused.
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_BOUND = 3317044064679887385961981


def is_prime(m):
    """Deterministic Miller-Rabin test; raises FieldError at or above MR_BOUND."""
    if m < 2:
        return False
    if m >= MR_BOUND:
        raise FieldError("%d is beyond the primality bound %d" % (m, MR_BOUND))
    for p in MR_BASES:
        if m % p == 0:
            return m == p
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in MR_BASES:
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def _iroot(q, k):
    """The integer k-th root of q >= 1, rounded down (Newton from above)."""
    x = 1 << -(-q.bit_length() // k)   # 2^ceil(bits/k) > q^(1/k)
    while True:
        y = ((k - 1) * x + q // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _prime_power(q):
    """Split q into (p, e) with p prime, or raise.

    q = p^e for exactly one exponent: the one whose integer e-th root is a
    prime raised back to q.
    """
    if type(q) is not int:
        raise FieldError("field size must be an int, got %r" % (q,))
    if q < 2:
        raise FieldError("field size must be >= 2, got %r" % (q,))
    if q >= MR_BOUND:
        raise FieldError("field size %d is beyond the primality bound %d"
                         % (q, MR_BOUND))
    for e in range(q.bit_length(), 0, -1):
        p = _iroot(q, e)
        if p ** e == q and is_prime(p):
            return p, e
    raise FieldError("%d is not a prime power" % q)


def _poly_mod(num, den, p):
    """Remainder of num by den over F_p; polynomials as lists, constant first."""
    num = list(num)
    dn = len(den) - 1
    inv_lead = pow(den[-1], p - 2, p) if p > 2 else den[-1]
    while len(num) - 1 >= dn and any(num):
        while num and num[-1] % p == 0:
            num.pop()
        if len(num) - 1 < dn:
            break
        shift = len(num) - 1 - dn
        factor = (num[-1] * inv_lead) % p
        for i, c in enumerate(den):
            num[shift + i] = (num[shift + i] - factor * c) % p
    while num and num[-1] % p == 0:
        num.pop()
    return num


class Fq:
    """Table-driven arithmetic in F_q. Elements are ints 0..q-1."""

    def __init__(self, q):
        self.p, self.e = _prime_power(q)
        if q > MAX_Q:
            raise FieldError("field size %d exceeds supported bound %d"
                             % (q, MAX_Q))
        self.q = q
        self._build_tables()

    def _digits(self, a):
        out = []
        for _ in range(self.e):
            out.append(a % self.p)
            a //= self.p
        return out

    def _pack(self, digits):
        val = 0
        for d in reversed(digits):
            val = val * self.p + (d % self.p)
        return val

    def _build_tables(self):
        p, e, q = self.p, self.e, self.q
        add = [[0] * q for _ in range(q)]
        mul = [[0] * q for _ in range(q)]
        for a in range(q):
            da = self._digits(a)
            for b in range(q):
                db = self._digits(b)
                add[a][b] = self._pack([(x + y) % p for x, y in zip(da, db)])
                prod = [0] * (2 * e - 1)
                for i, x in enumerate(da):
                    if x:
                        for j, y in enumerate(db):
                            prod[i + j] = (prod[i + j] + x * y) % p
                if e > 1:
                    prod = _poly_mod(prod, IRREDUCIBLE_MODULI[q], p)
                else:
                    prod = [prod[0] % p]
                prod += [0] * (e - len(prod))
                mul[a][b] = self._pack(prod[:e])
        self.add_table = add
        self.mul_table = mul
        self.neg_table = [0] * q
        for a in range(q):
            da = self._digits(a)
            self.neg_table[a] = self._pack([(-x) % p for x in da])
        self.inv_table = [0] * q
        for a in range(1, q):
            for b in range(1, q):
                if mul[a][b] == 1:
                    self.inv_table[a] = b
                    break
            else:
                raise FieldError("element %d has no inverse; modulus not irreducible?" % a)

    def add(self, a, b):
        return self.add_table[a][b]

    def sub(self, a, b):
        return self.add_table[a][self.neg_table[b]]

    def mul(self, a, b):
        return self.mul_table[a][b]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in F_%d" % self.q)
        return self.inv_table[a]

    def elements(self):
        return range(self.q)


# typed, so that a float equal to a cached size is not answered from the
# int's entry (Fq itself refuses a float)
@lru_cache(maxsize=None, typed=True)
def get_field(q) -> Fq:
    """F_q, for a prime power q <= MAX_Q; refuses any other q."""
    return Fq(q)
