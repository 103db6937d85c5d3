"""Arithmetic in small finite fields F_q, q = p^e <= 16.

Elements are encoded as integers 0..q-1, read as base-p digit vectors
(little-endian) of polynomials over F_p modulo a fixed irreducible modulus.
For prime q the encoding is plain residues mod p.
"""

from __future__ import annotations

from functools import lru_cache

from .record import Record

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


def _is_irreducible(modulus, p):
    """Trial division by all lower-degree monic polynomials; fine for e <= 4."""
    e = len(modulus) - 1
    if e < 1 or modulus[-1] % p != 1:
        return False
    if e == 1:
        return True
    for deg in range(1, e // 2 + 1):
        for code in range(p ** deg):
            div = []
            m = code
            for _ in range(deg):
                div.append(m % p)
                m //= p
            div.append(1)
            if not _poly_mod(modulus, div, p):
                return False
    return True


class FieldSpec(Record):
    """Description of F_q: characteristic p, degree e, and modulus (empty for
    e=1), a tuple of ints (c0, c1, ..., 1) as in IRREDUCIBLE_MODULI."""

    __slots__ = _fields = ("p", "e", "modulus")

    def __init__(self, p, e, modulus=()):
        if not is_prime(p):
            raise FieldError("characteristic %r is not prime" % (p,))
        if e < 1:
            raise FieldError("extension degree must be >= 1")
        if e == 1:
            if modulus != ():
                raise FieldError("prime field takes no modulus")
        else:
            if type(modulus) is not tuple or any(type(c) is not int
                                                 for c in modulus):
                raise FieldError("modulus must be a tuple of ints, got %r"
                                 % (modulus,))
            if len(modulus) != e + 1:
                raise FieldError("modulus must have degree %d" % e)
            if not _is_irreducible(modulus, p):
                raise FieldError("modulus %r is not irreducible over F_%d"
                                 % (modulus, p))
        self.p, self.e, self.modulus = p, e, modulus

    @property
    def q(self):
        return self.p ** self.e


def field_spec(q):
    """FieldSpec for F_q using the built-in modulus table."""
    p, e = _prime_power(q)
    if q > MAX_Q:
        raise FieldError("field size %d exceeds supported bound %d" % (q, MAX_Q))
    if e == 1:
        return FieldSpec(p, 1, ())
    if q not in IRREDUCIBLE_MODULI:
        raise FieldError("no built-in modulus for q=%d" % q)
    return FieldSpec(p, e, IRREDUCIBLE_MODULI[q])


class Fq:
    """Table-driven arithmetic for one FieldSpec. Elements are ints 0..q-1."""

    def __init__(self, spec: FieldSpec):
        self.spec = spec
        self.p = spec.p
        self.e = spec.e
        self.q = spec.q
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
                    prod = _poly_mod(prod, list(self.spec.modulus), p)
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


@lru_cache(maxsize=None)
def get_field(spec: FieldSpec) -> Fq:
    return Fq(spec)
