"""Cycle-generated cohomology rings of iterated blow-ups of projective space.

B^n denotes P^n blown up along all F_q-rational linear subvarieties, in order
of increasing dimension 0, 1, ..., n-2.  Rational cohomology is indexed here
by algebraic degree j (classes of codimension j, i.e. H^{2j}); odd-degree
cohomology vanishes throughout.

The ring is computed from two ingredients:

* the unique representation of a divisor as a combination of the hyperplane
  pullback h and the exceptional classes e_V for dim V <= n-2, together with
  the strict-transform relation expressing a blown-up hyperplane as
  h - sum of the e_W it contains;

* the product structure D_V = B^d x B^{n-d-1}, under which a generator
  restricts to a first-factor class (for subvarieties of V), a second-factor
  class through the quotient geometry (for subvarieties containing V), or
  zero (incomparable centers are disjoint).  P^0 is the unit of products,
  so the D_V of a point or a hyperplane is B^(n-1) itself.

A generator is an int: GEN_H (-1) is h, and e_V is the number of V in
`geometry.ambient_geometry(n, q)`, which orders the flats by (dim,
echelon basis).  A monomial is a sorted tuple of generators, so h comes
first and the centers follow in that order; bit g of a center mask is e_g.

Top intersection numbers follow by structural recursion on dimension.  The
basis is the Feichtner-Yuzvinsky chain basis (Invent. Math. 2004), which the
blow-up Betti recursion (Keel 1992) counts: h^a e_(V_1)^(b_1) ... e_(V_k)^(b_k)
over chains V_1 < ... < V_k with 1 <= b_i <= d_(i+1) - d_i - 1
(d_i = dim V_i, d_(k+1) = n) and a <= d_1 (a <= n with no center).
Construction fails loudly unless its sizes are the Betti numbers, and
`GradedRing` refuses a pairing of less than full rank, which proves the basis
independent.

A top monomial h^a prod e_(V_i)^(b_i) vanishes unless its centers form a
chain V_1 < ... < V_k (incomparable centers are disjoint).  PGL_(n+1)(F_q)
fixes h, permutes the e_V and acts transitively on the flags of one
signature, so on a chain the number depends only on the flag type
(a, (dim V_i, b_i)).  It is computed by descent, in integers, once per type
and kept in one integer table keyed by the type's count code.

Every matrix of top intersection numbers is one routine, `GradedRing.block`:
E[d][b] = sum c int a.b.d for a class sum c.a, each number read by the count
code of its flag type behind the chain masks (factor by factor on a product).
The Poincare pairings are the blocks of the unit, pairing[n-j] stored as the
transpose of pairing[j].  On every ring kind, products included, the
coordinates of a non-basis monomial of degree j are the cached inverse of
pairing[n-j] times its one-column block (`GradedRing.dual_solve`).  Every ring
product is `GradedRing.cup_matrix`: the matrix of x -> v.x is that inverse
times the block of v.  The Lefschetz operators, `GradedRing.multiply`, the
`ring --products` tables and the multiplicativity check of restrictions in
`weightss` all call it.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache
from math import lcm

from . import linalg
from .fields import get_field
from .geometry import (LinearSubvariety, ambient_geometry, gaussian_binomial,
                       quotient_image, sub_image)
from .record import Record, _memoized


class CohomologyError(ValueError):
    pass


class ResourceGuardError(CohomologyError):
    pass


# Resource guard.  A variety above MAX_DIMENSION is refused before its Betti
# numbers are computed.  SIZE_BUDGET bounds the total dimension the exact
# eliminations run over: the sum of the Betti numbers of a ring, and the total
# E1 dimension of a complex (see `weightss.SemistableComplex`).  It admits
# B^3/F_5 (total 1928) and drinfeld-local:2,8 (3075), and refuses B^3/F_7
# (6504), B^4/F_3 (24568) and drinfeld-local:2,9 (4104).
MAX_DIMENSION = 4
SIZE_BUDGET = 4000


def check_size_budget(total, what):
    """Refuse a computation whose `what` (a total dimension) exceeds
    SIZE_BUDGET."""
    if total > SIZE_BUDGET:
        raise ResourceGuardError("%s %d exceeds the size budget %d"
                                 % (what, total, SIZE_BUDGET))


# -- variety specifications -------------------------------------------------

class Projective(Record):
    __slots__ = _fields = ("n",)


class BlownUp(Record):
    __slots__ = _fields = ("n", "q")


class Product(Record):
    __slots__ = _fields = ("factors",)


class SurfaceSpec(Record):
    """A smooth projective surface given by the labels of an N^1 basis and
    its intersection matrix (see `weightss.explicit_surface_ring`)."""

    __slots__ = _fields = ("labels", "intersection")


def proj(n):
    if n < 0:
        raise CohomologyError("P^n needs n >= 0, got n=%d" % n)
    return Projective(n)


def blowup(n, q):
    """B^n over F_q.  For n <= 1 no centers exist and B^n = P^n."""
    if n < 0:
        raise CohomologyError("B^n needs n >= 0, got n=%d" % n)
    get_field(q)   # refuses a q that is no field size, for every n
    if n <= 1:
        return Projective(n)
    return BlownUp(n, q)


def product(*specs):
    """The product of the given specs.  Nested products are flattened and
    P^0, the unit, is dropped: one factor left is that factor, and none is
    P^0."""
    flat = [f for s in specs
            for f in (s.factors if isinstance(s, Product) else (s,))
            if f != Projective(0)]
    if len(flat) > 1:
        return Product(tuple(flat))
    return flat[0] if flat else Projective(0)


def dimension(spec):
    if isinstance(spec, (Projective, BlownUp)):
        return spec.n
    if isinstance(spec, SurfaceSpec):
        return 2
    return sum(dimension(f) for f in spec.factors)


# -- generators and monomials ------------------------------------------------

GEN_H = -1


def gen_e(V: LinearSubvariety):
    """The generator e_V: V's number in `ambient_geometry`."""
    number = ambient_geometry(V.ambient_n, V.q).bits.get(V)
    if number is None:
        raise CohomologyError("%r is not a proper subvariety of P^%d"
                              % (V, V.ambient_n))
    return number


def monomial(gens):
    return tuple(sorted(gens))


def generators(spec):
    """Degree-1 generators, h first, then the centers in number order."""
    if isinstance(spec, Projective):
        return [GEN_H] if spec.n >= 1 else []
    geom = ambient_geometry(spec.n, spec.q)
    return [GEN_H] + list(range(len(geom.proper) - len(geom.by_dim[-1])))


def hyperplane_relation(spec, V):
    """Class of the strict transform D_V of a hyperplane V: h minus the e_W
    of the centers W strictly inside V; on P^n it is h."""
    if not isinstance(spec, (Projective, BlownUp)):
        raise CohomologyError("hyperplane_relation needs a P^n or blow-up "
                              "spec, not a %s" % type(spec).__name__)
    if V.ambient_n != spec.n:
        raise CohomologyError("hyperplane_relation needs V in P^%d, not in "
                              "P^%d" % (spec.n, V.ambient_n))
    if V.dim != spec.n - 1:
        raise CohomologyError("hyperplane_relation needs dim V = n-1")
    out = {GEN_H: 1}
    if isinstance(spec, BlownUp):
        if V.q != spec.q:
            raise CohomologyError("hyperplane_relation needs V over F_%d, not "
                                  "over F_%d" % (spec.q, V.q))
        out.update(dict.fromkeys(ambient_geometry(spec.n, spec.q)
                                 .strict_subs(gen_e(V)), -1))
    return out


# -- restriction of generators to an exceptional divisor ----------------------

def factor_specs(spec, d):
    """The two factors of D_V = B^d x B^(n-d-1), for a center V of dim d."""
    return blowup(d, spec.q), blowup(spec.n - d - 1, spec.q)


@lru_cache(maxsize=None)
def restrict_generator(spec, v, g):
    """Restriction of a degree-1 generator of B^n to D_V = B^d x B^(n-d-1),
    V the center numbered v.

    Returns a tuple of ((side, generator), integer coefficient) items,
    nonzero coefficients only, with side 0 the B^d factor and side 1 the
    B^(n-d-1) factor.  Incomparable exceptional generators restrict to zero
    (their centers are disjoint from V).  The result is memoized per
    (spec, v, g).
    """
    geom = ambient_geometry(spec.n, spec.q)
    if g == GEN_H:
        return (((0, GEN_H), 1),) if geom.proper[v].dim >= 1 else ()
    if g != v:
        return tuple(_restrict_subvariety_divisor(spec, v, g).items())
    # rewrite D_V through the least hyperplane H containing V,
    # D_V = h - H~ - (the D_U of the other U < H), and restrict term by term
    h = geom.least_hyperplane_containing(v)
    out = dict(restrict_generator(spec, v, GEN_H))
    for u in [h] + [u for u in geom.strict_subs(h) if u != v]:
        for key, c in _restrict_subvariety_divisor(spec, v, u).items():
            out[key] = out.get(key, 0) - c
    return tuple((k, c) for k, c in out.items() if c)


def _restrict_subvariety_divisor(spec, v, w):
    """Restriction of the divisor D_W (w != v, any dim 0..n-1) to D_V, as
    {(side, generator): coefficient}.  A W inside V meets the first factor
    and a W containing V the second, in the class of its image there: a
    hyperplane class, or an exceptional generator when the image has
    codimension 2 or more (the image of a proper W is never the whole
    factor).  An incomparable W restricts to zero."""
    geom = ambient_geometry(spec.n, spec.q)
    V, W = geom.proper[v], geom.proper[w]
    if geom.below[v] >> w & 1:
        side, image = 0, sub_image(V, W)
    elif geom.above[v] >> w & 1:
        side, image = 1, quotient_image(V, W)
    else:
        return {}
    factor = factor_specs(spec, V.dim)[side]
    if image.dim < factor.n - 1:
        return {(side, gen_e(image)): 1}
    return {(side, g): c
            for g, c in hyperplane_relation(factor, image).items()}


def _restricted_product(spec, v, gens):
    """The product of the degree-1 generators `gens` restricted to D_V, V
    the center numbered v, as {(first-factor monomial, second-factor
    monomial): integer coefficient}, nonzero coefficients only (empty when
    the product restricts to zero)."""
    terms = {((), ()): 1}
    for g in gens:
        new_terms = {}
        for (m0, m1), c in terms.items():
            for (side, gg), cc in restrict_generator(spec, v, g):
                k = (monomial(m0 + (gg,)), m1) if side == 0 \
                    else (m0, monomial(m1 + (gg,)))
                new_terms[k] = new_terms.get(k, 0) + c * cc
        terms = {k: c for k, c in new_terms.items() if c}
        if not terms:
            break
    return terms


# -- intersection numbers -----------------------------------------------------

# Top intersection numbers of blow-ups by flag type:
# (spec, count code of `_support_keys`) -> int.  A dict of its own, not an
# `lru_cache`: perfbench/tracer.py reads it by name.
_EVAL_MEMO = {}


def _support_keys(spec, mono):
    """(centers, comparable, count code) of a blow-up monomial: the bitmask of
    its centers, the AND of their comparable masks (-1 with no center), and
    its flag type as a count vector, one base-(n+1) digit per dimension -1..n-2
    (h counted as -1).  Distinct centers of a chain have distinct dimensions,
    so on a chain the code is the signature (a, (dim V_i, b_i)).  Two
    monomials multiply to a chain iff one's centers lie in the other's
    comparable mask, and the count code of the product is the sum of theirs."""
    geom = ambient_geometry(spec.n, spec.q)
    base = spec.n + 1
    centers, comparable, code = 0, -1, 0
    for g in mono:
        if g == GEN_H:
            code += 1
        else:
            centers |= 1 << g
            comparable &= geom.comparable[g]
            code += base ** (geom.proper[g].dim + 1)
    return centers, comparable, code


def intersection_number(spec, mono, chooser=None):
    """Top intersection number of a monomial of degree dim(spec).

    On an explicit surface it is the entry of the given intersection form.
    On a blow-up a monomial whose centers do not form a chain gives 0.  A
    chain monomial is read from the table by the count code of its flag
    type, filled by descent the first time the type is met.  `chooser`
    overrides the default lexicographically-least choice of an exceptional
    factor for descent and bypasses the table; the value is independent of
    the choice.
    """
    if isinstance(spec, Product):
        if len(mono) != len(spec.factors):
            raise CohomologyError("product monomial must be factor-split")
        val = 1
        for f, m in zip(spec.factors, mono):
            if len(m) != dimension(f):
                return 0
            val *= intersection_number(f, m, chooser)
            if not val:
                return 0
        return val

    if len(mono) != dimension(spec):
        raise CohomologyError("monomial degree %d != dimension %d"
                              % (len(mono), dimension(spec)))

    if isinstance(spec, Projective):
        if any(g != GEN_H for g in mono):
            raise CohomologyError("projective space has only the generator h")
        return 1

    if isinstance(spec, SurfaceSpec):   # the given form, entry by label
        a, b = (spec.labels.index(g[1]) for g in mono)
        return spec.intersection.entry(a, b)

    # the centers form a chain iff each lies in the comparable mask of all
    centers, comparable, code = _support_keys(spec, mono)
    if centers & ~comparable:
        return 0
    if chooser is not None:
        return _eval_blowup(spec, mono, chooser)
    val = _EVAL_MEMO.get((spec, code))
    if val is None:
        val = _EVAL_MEMO[spec, code] = _eval_blowup(spec, mono, None)
    return val


def _eval_blowup(spec, mono, chooser):
    """Descent through D_V for the first (or the chosen) center V of a chain
    monomial, in integers."""
    exc = sorted(set(mono) - {GEN_H})
    if not exc:
        return 1
    g0 = exc[0] if chooser is None else chooser(exc)
    rest = list(mono)
    rest.remove(g0)
    d = ambient_geometry(spec.n, spec.q).proper[g0].dim
    f1, f2 = factor_specs(spec, d)
    total = 0
    for (m0, m1), c in _restricted_product(spec, g0, rest).items():
        if len(m0) != d or len(m1) != spec.n - d - 1:
            continue
        total += c * intersection_number(f1, m0, chooser) \
                   * intersection_number(f2, m1, chooser)
    return total


# -- Betti numbers -------------------------------------------------------------

def betti_numbers(spec):
    """Even Betti numbers b_0, b_2, ..., b_2n as ranks of the N^j.

    For blow-ups these follow the stage-by-stage recursion: blowing up along
    the stage-k centers (all of them copies of B^k, of codimension n-k) adds
    codim-1 copies of the center cohomology, shifted by 1..codim-1.
    """
    if isinstance(spec, Projective):
        return [1] * (spec.n + 1)
    if isinstance(spec, SurfaceSpec):
        return [1, len(spec.labels), 1]
    if isinstance(spec, Product):
        out = [1]
        for f in spec.factors:
            fb = betti_numbers(f)
            new = [0] * (len(out) + len(fb) - 1)
            for i, x in enumerate(out):
                for j, y in enumerate(fb):
                    new[i + j] += x * y
            out = new
        return out
    n, q = spec.n, spec.q
    b = [1] * (n + 1)
    for k in range(n - 1):
        codim = n - k
        centers = gaussian_binomial(n + 1, k + 1, q)
        cb = betti_numbers(blowup(k, q))
        nb = list(b)
        for j in range(n + 1):
            for m in range(codim - 1):
                idx = j - 1 - m
                if 0 <= idx < len(cb):
                    nb[j] += centers * cb[idx]
        b = nb
    return b


# -- graded rings ---------------------------------------------------------------

class PairingRows(Sequence):
    """The rows of a `linalg.Matrix` as lists of entry strings, each row
    rendered only when it is read, so a report can be written row by row
    without holding every entry string at once."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        self.matrix = matrix

    def __len__(self):
        return self.matrix.nrows

    def __getitem__(self, i):
        m = self.matrix
        if m.den == 1:
            return list(map(str, m.rows[i]))
        return list(map(str, m[i]))


class ProductRows(Sequence):
    """The (j, k) products table of a ring: row a is the `PairingRows` of
    the transposed `GradedRing.cup_matrix(j, e_a, k)`, computed when read."""

    __slots__ = ("ring", "j", "k")

    def __init__(self, ring, j, k):
        self.ring, self.j, self.k = ring, j, k

    def __len__(self):
        return len(self.ring.basis[self.j])

    def __getitem__(self, a):
        unit = self.ring.zero(self.j)
        unit[a] = Fraction(1)
        return PairingRows(linalg.transpose(
            self.ring.cup_matrix(self.j, unit, self.k)))


class GradedRing:
    """Exact rational cohomology ring with chosen monomial bases.

    basis[j] lists the monomials spanning N^j; pairing[j] is the
    `linalg.Matrix` of top intersection numbers between basis[j] and
    basis[n-j], the `block` of the unit; pairing[n-j] is stored as its
    transpose.  Construction ranks pairing[j] for j <= n/2 and refuses a
    degenerate one, so on every ring kind the pairings are nondegenerate
    (Poincare duality).  A non-basis monomial's coordinates solve its one-column
    block by `dual_solve`, on products as on every other ring, and every
    product of classes is read from one `cup_matrix`.
    """

    def __init__(self, spec, basis):
        self.spec = spec
        self.n = n = len(basis) - 1
        self.basis = basis
        self.index = [{m: i for i, m in enumerate(bs)} for bs in basis]
        self._coords_memo = {}   # read by name by perfbench/tracer.py
        self.memo = {}
        self.pairing = [None] * (n + 1)
        unit = list(zip(basis[0], self.basis_keys(0), [1]))
        for j in range(n // 2 + 1):
            p = self.block(0, unit, n - j)
            r = linalg.rank(p)
            if not r == len(basis[j]) == len(basis[n - j]):
                raise CohomologyError(
                    "degree %d: Poincare pairing of rank %d on %d x %d basis "
                    "monomials" % (j, r, len(basis[j]), len(basis[n - j])))
            self.pairing[j], self.pairing[n - j] = p, linalg.transpose(p)

    def dims(self):
        return [len(b) for b in self.basis]

    def zero(self, j):
        return [Fraction(0)] * len(self.basis[j])

    def dual_solve(self, j, e):
        """pairing[n-j]^(-1) e for a `linalg.Matrix` e with dim N^j rows:
        the N^j coordinates of the classes whose pairings with basis[n-j] are
        the columns of e.  pairing[n-j] is the stored transpose of
        pairing[j], and its inverse is computed once per degree."""
        return linalg.matmul(self._dual_inv(j), e)

    @_memoized
    def _dual_inv(self, j):
        return linalg.inverse(self.pairing[self.n - j])

    def monomial_coords(self, mono):
        """Coordinates of a monomial of a blow-up, P^n, an explicit surface or
        a product of blow-ups and P^n."""
        j = sum(map(len, mono)) if isinstance(self.spec, Product) else len(mono)
        if j > self.n:
            raise CohomologyError("monomial degree exceeds dimension")
        idx = self.index[j].get(mono)
        if idx is not None:
            v = self.zero(j)
            v[idx] = Fraction(1)
            return v
        if mono in self._coords_memo:
            return list(self._coords_memo[mono])
        v = self._coords_vector(mono, j)
        self._coords_memo[mono] = tuple(v)
        return v

    def _coords_vector(self, mono, j):
        keys = self.support_keys(mono)
        if keys[0] & ~keys[1]:   # not a chain: the class is zero
            return self.zero(j)
        return [r[0] for r in self.dual_solve(j, self.block(
            j, [(mono, keys, 1)], 0))]

    def support_keys(self, mono):
        """(centers, comparable, count code) of a monomial (see
        `_support_keys`): a product of monomials can be nonzero only if each
        one's centers lie in the others' comparable masks.  A ring without
        blow-up centers gives (0, -1, 0): every product is allowed, and the
        code tells no two apart."""
        if isinstance(self.spec, BlownUp):
            return _support_keys(self.spec, mono)
        return 0, -1, 0

    @_memoized
    def basis_keys(self, j):
        """`support_keys` of each monomial of basis[j], computed once."""
        return [self.support_keys(x) for x in self.basis[j]]

    def block(self, j, terms, k):
        """The `linalg.Matrix` E[d][b] = sum c int a.b.d over the terms
        (a, support keys of a, integer c) of degree j, with b over basis[k]
        and d over basis[n-j-k].  Every matrix of top intersection numbers is
        one: the pairings (the unit's blocks), the cup matrices and the
        coordinates of a monomial.  It is an integer matrix unless the given
        form of an explicit surface has denominators.

        A term is visited only where the chain masks allow the triple
        product, whose number is then read by count code, each code evaluated
        once per call; on a product ring it is computed factor by factor, and
        on a surface read from its form, by `intersection_number`.
        """
        spec, by_code = self.spec, {}

        def top(a, b, d, code):
            """int a.b.d, for a triple the chain masks allow (on P^n every
            code is 0 and every number 1)."""
            if isinstance(spec, Product):
                return intersection_number(spec, tuple(
                    monomial(x + y + z) for x, y, z in zip(a, b, d)))
            if isinstance(spec, SurfaceSpec):
                return intersection_number(spec, a + b + d)
            value = by_code.get(code)
            if value is None:
                value = by_code[code] = intersection_number(
                    spec, monomial(a + b + d))
            return value

        # the terms by the lowest bit of their centers: a term can meet a
        # mask only if that bit is in it, and center-free terms (bit 0) meet
        # every mask
        groups = {}
        for a, (centers, _, code), c in terms:
            if c:
                groups.setdefault(centers & -centers, []).append(
                    (a, centers, code, c))
        free = groups.pop(0, [])
        group_bits = sum(groups)    # distinct single bits: their union

        def candidates(mask):
            """The terms whose centers may lie in mask.  A mask of -1 (no
            center) has endless bits, so it is cut to group_bits first."""
            found = list(free)
            mask &= group_bits
            while mask:
                bit = mask & -mask
                found += groups[bit]
                mask ^= bit
            return found

        def meets(comparable):
            """Some term times a monomial with this mask is a chain."""
            return any(not a_centers & ~comparable
                       for _, a_centers, _, _ in candidates(comparable))

        width = len(self.basis[k])
        cols = [(col, b, centers, comparable, code) for col, (b, (
            centers, comparable, code)) in enumerate(zip(
                self.basis[k], self.basis_keys(k))) if meets(comparable)]
        rows = []
        for d, (_, d_comparable, d_code) in zip(
                self.basis[self.n - j - k], self.basis_keys(self.n - j - k)):
            row = [0] * width
            rows.append(row)
            if not meets(d_comparable):
                continue
            d_outside = ~d_comparable
            for col, b, centers, comparable, code in cols:
                if centers & d_outside:
                    continue        # b.d is not a chain
                allowed = comparable & d_comparable
                outside = ~allowed
                code += d_code
                row[col] = sum(c * top(a, b, d, code + a_code)
                               for a, a_centers, a_code, c in
                               candidates(allowed)
                               if not a_centers & outside)
        if isinstance(spec, SurfaceSpec):   # Fraction entries of its form
            return linalg.mat(rows)
        return linalg.Matrix(rows, 1, width)

    def cup_matrix(self, j, v, k):
        """The `linalg.Matrix` of x -> v.x from N^k to N^(j+k), for v in N^j
        in basis coordinates (0 x dim N^k past the top degree).

        It is `dual_solve(j+k, E)`, E the `block` of v over the bases of
        N^k and N^(n-j-k).  With k = 0 it is v itself, and with j + k = n E
        is the row pairing[k] v.
        """
        n, m = self.n, j + k
        if m > n:
            return linalg.zeros(0, len(self.basis[k]))
        v = [Fraction(x) for x in v]
        if k == 0:
            return linalg.mat([[x] for x in v])
        if m == n:              # E is the row of pairings of v with the b
            return self.dual_solve(n, linalg.mat(
                [linalg.matvec(self.pairing[k], v)]))
        den = lcm(1, *(c.denominator for c in v))
        e = self.block(j, zip(self.basis[j], self.basis_keys(j), (
            c.numerator * (den // c.denominator) for c in v)), k)
        return self.dual_solve(m, linalg.Matrix(e.rows, den * e.den, e.ncols))

    def multiply(self, j, vj, k, vk):
        """Product N^j x N^k -> N^(j+k) in basis coordinates."""
        return linalg.matvec(self.cup_matrix(j, vj, k), vk)

    def to_json(self, include_products=True):
        """The ring as report data.  Each pairing block is a lazy
        `PairingRows`, `[list(row) for row in rows]` gives plain lists, and
        each products table a lazy `ProductRows` of them."""
        out = {
            "dimension": self.n,
            "dims": self.dims(),
            "basis": [[[_gen_json(self.spec, g) for g in m] for m in bs]
                      for bs in self.basis],
            "pairing": {str(j): PairingRows(self.pairing[j])
                        for j in range(self.n + 1)},
        }
        if include_products:
            out["products"] = {"%d,%d" % (j, k): ProductRows(self, j, k)
                               for j in range(1, self.n + 1)
                               for k in range(j, self.n + 1 - j)}
        return out


def _gen_json(spec, g):
    """A generator as report data: "h", or e_V as {"e": {"dim", "basis"}}."""
    if g == GEN_H:
        return "h"
    V = ambient_geometry(spec.n, spec.q).proper[g]
    return {"e": {"dim": V.dim, "basis": [list(r) for r in V.basis]}}


# -- ring construction ----------------------------------------------------------

def chain_basis(spec, degree):
    """The chain basis of N^degree (see the module docstring) in the order of
    sorted generators.  Counting h as a center of dimension -1 makes its bound
    a <= d_1 the bound b_i <= d_(i+1) - d_i - 1 of the others.  Each step
    repeats the last generator or takes a larger center containing it; a
    branch stops once the degree left exceeds the room n - d - 1 - b of its
    last exponent, as a further center leaves less."""
    n = spec.n
    geom = ambient_geometry(n, spec.q)
    centers = generators(spec)[1:]
    # the first number of each dimension 0..n-1 (no center has dim n-1)
    first = list(itertools.accumulate(map(len, geom.by_dim[:-1]), initial=0))
    out = []

    def extend(prefix, last, dim, exp, remaining, allowed):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        if remaining > n - dim - 1 - exp:
            return
        prefix.append(last)   # one more copy of the last generator
        extend(prefix, last, dim, exp + 1, remaining - 1, allowed)
        prefix.pop()
        for g in centers[first[dim + exp + 1]:]:
            if allowed >> g & 1:
                prefix.append(g)
                extend(prefix, g, geom.proper[g].dim, 1, remaining - 1,
                       allowed & geom.comparable[g])
                prefix.pop()

    extend([], GEN_H, -1, 0, degree, -1)
    return out


def check_resource_guard(spec):
    """Refuse a variety of dimension above MAX_DIMENSION, then one whose
    Betti numbers sum to more than SIZE_BUDGET."""
    if dimension(spec) > MAX_DIMENSION:
        raise ResourceGuardError("variety dimension %d exceeds guard %d"
                                 % (dimension(spec), MAX_DIMENSION))
    check_size_budget(sum(betti_numbers(spec)), "Betti total")


@lru_cache(maxsize=None)
def build_ring(spec):
    """Construct the graded ring of spec; results are cached per spec, and a
    refused spec raises, so it is never cached."""
    check_resource_guard(spec)
    if isinstance(spec, Projective):
        return _build_projective(spec)
    if isinstance(spec, BlownUp):
        return _build_blowup(spec)
    if isinstance(spec, SurfaceSpec):
        return _build_surface(spec)
    return _build_product(spec)


def _build_projective(spec):
    return GradedRing(spec, [[tuple([GEN_H] * j)] for j in range(spec.n + 1)])


def _build_blowup(spec):
    basis = [chain_basis(spec, j) for j in range(spec.n + 1)]
    sizes, betti = [len(bs) for bs in basis], betti_numbers(spec)
    if sizes != betti:
        raise CohomologyError("chain basis sizes %s are not the Betti numbers "
                              "%s of B^%d/F_%d" % (sizes, betti, spec.n, spec.q))
    return GradedRing(spec, basis)


def _build_surface(spec):
    """N^0, the label generators, and the top monomial named by the first
    nonzero entry of the form (see `weightss.explicit_surface_ring`)."""
    gens = [("s", lbl) for lbl in spec.labels]
    i, j = next((i, j) for i, row in enumerate(spec.intersection.rows)
                for j, x in enumerate(row) if x)
    return GradedRing(spec, [[()], [(g,) for g in gens],
                             [tuple(sorted((gens[i], gens[j])))]])


def _build_product(spec):
    """The tensor basis: in each total degree, the factor degree tuples in
    lex order, and within one tuple the factor basis monomials in lex order.
    Saved complexes store restriction matrices in these coordinates."""
    rings = [build_ring(f) for f in spec.factors]
    basis = [[] for _ in range(dimension(spec) + 1)]
    for degs in itertools.product(*[range(r.n + 1) for r in rings]):
        basis[sum(degs)].extend(itertools.product(
            *[r.basis[a] for r, a in zip(rings, degs)]))
    return GradedRing(spec, basis)


# -- restriction to an exceptional divisor ---------------------------------------

def restrict_to_divisor(ring, V):
    """Restriction maps from the ring of B^n onto D_V = B^d x B^(n-d-1).

    Returns (target_ring, matrices) with one matrix per degree j, sending
    source basis coordinates to target basis coordinates.  The target is the
    ring of `product(B^d, B^(n-d-1))`, so at a point or a hyperplane, where
    one factor is P^0, it is the ring of B^(n-1) itself.  Each map is a ring
    homomorphism; this is exercised by the tests rather than assumed.
    """
    spec = ring.spec
    if not isinstance(spec, BlownUp):
        raise CohomologyError("restriction is defined on blow-up rings")
    if V.ambient_n != spec.n or V.q != spec.q or not (0 <= V.dim <= spec.n - 1):
        raise CohomologyError("%r is not a center of B^%d" % (V, spec.n))
    v = gen_e(V)
    f1, f2 = factor_specs(spec, V.dim)
    target = build_ring(product(f1, f2))
    split = isinstance(target.spec, Product)
    matrices = []
    for j in range(ring.n + 1):
        rows = len(target.basis[j]) if j <= target.n else 0
        cols = []
        for mono in ring.basis[j]:
            col = [Fraction(0)] * rows
            for (m0, m1), c in _restricted_product(spec, v, mono).items():
                # N^n restricts to zero, and so does a class above the
                # dimension of its factor (on P^0 every nonempty monomial)
                if j > target.n or len(m0) > dimension(f1) \
                        or len(m1) > dimension(f2):
                    continue
                vec = target.monomial_coords((m0, m1) if split else m0 + m1)
                for i, x in enumerate(vec):
                    if x:
                        col[i] += c * x
            cols.append(col)
        matrices.append(linalg.transpose(linalg.mat(cols)))
    return target, matrices

