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
  zero (incomparable centers are disjoint).

Top intersection numbers follow by structural recursion on dimension, and the
graded ring is the span of monomials in divisor classes with basis chosen by
exact pairing rank.  The rank in each degree is independently predicted by
the blow-up Betti recursion; construction fails loudly on any mismatch.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

from . import linalg
from .fields import FieldSpec, field_spec
from .geometry import (LinearSubvariety, ambient_geometry, gaussian_binomial,
                       quotient_image, sub_image)


class CohomologyError(ValueError):
    pass


class ResourceGuardError(CohomologyError):
    pass


# configurable guard for blow-up ring construction (see also the CLI)
RESOURCE_LIMITS = {"max_dim": 4, "max_q": 4}


# -- variety specifications -------------------------------------------------

@dataclass(frozen=True)
class Projective:
    n: int


@dataclass(frozen=True)
class BlownUp:
    n: int
    field: FieldSpec


@dataclass(frozen=True)
class Product:
    factors: tuple


def proj(n):
    return Projective(n)


def blowup(n, q):
    """B^n over F_q.  For n <= 1 no centers exist and B^n = P^n."""
    if n < 0:
        raise CohomologyError("B^n needs n >= 0, got n=%d" % n)
    field = q if isinstance(q, FieldSpec) else field_spec(q)
    if n <= 1:
        return Projective(n)
    return BlownUp(n, field)


def product(*specs):
    flat = []
    for s in specs:
        if isinstance(s, Product):
            flat.extend(s.factors)
        else:
            flat.append(s)
    if len(flat) == 1:
        return flat[0]
    return Product(tuple(flat))


def dimension(spec):
    if isinstance(spec, Projective):
        return spec.n
    if isinstance(spec, BlownUp):
        return spec.n
    return sum(dimension(f) for f in spec.factors)


# -- generators and monomials ------------------------------------------------

GEN_H = ("h",)


def gen_e(V: LinearSubvariety):
    return ("e", V.dim, V.basis)


def gen_key(g):
    if g == GEN_H:
        return (0, 0, ())
    if g[0] == "e":
        return (1, g[1], g[2])
    return (2, g[1], ())   # explicit ring generators, ordered by label


@lru_cache(maxsize=None)
def _gen_table(spec):
    """Generator key -> (subvariety, bit, comparable mask) for every proper
    subvariety of P^n, built once per blow-up.  The subvariety is the canonical
    object of `ambient_geometry`; bit and mask follow its numbering."""
    geom = ambient_geometry(spec.n, spec.field)
    return {gen_e(V): (V, 1 << geom.bit(V), geom.comparable_mask(V))
            for V in geom.all_proper()}


def gen_subvariety(spec, g):
    try:
        return _gen_table(spec)[g][0]
    except KeyError:
        raise CohomologyError("generator %r does not live on B^%d"
                              % (g, spec.n)) from None


def monomial(gens):
    return tuple(sorted(gens, key=gen_key))


def generators(spec):
    """Degree-1 generator keys, h first, exceptionals by (dim, echelon basis)."""
    if isinstance(spec, Projective):
        return [GEN_H] if spec.n >= 1 else []
    geom = ambient_geometry(spec.n, spec.field)
    gens = [GEN_H]
    for d in range(spec.n - 1):
        gens.extend(gen_e(V) for V in geom.subvarieties(d))
    return gens


def normalize_divisor(spec, coeffs):
    """Unique h / e_V representation; eliminates dim n-1 exceptional keys.

    A key of dimension n-1 denotes the strict transform of a hyperplane H and
    is rewritten as h - sum of e_W over proper subvarieties W of H.
    """
    if isinstance(spec, Projective):
        out = {}
        for g, c in coeffs.items():
            if g != GEN_H:
                raise CohomologyError("projective space has only the class h")
            out[GEN_H] = out.get(GEN_H, Fraction(0)) + Fraction(c)
        return {g: c for g, c in out.items() if c}
    geom = ambient_geometry(spec.n, spec.field)
    out = {}
    for g, c in coeffs.items():
        c = Fraction(c)
        if not c:
            continue
        if g == GEN_H or g[1] <= spec.n - 2:
            out[g] = out.get(g, Fraction(0)) + c
            continue
        if g[1] != spec.n - 1:
            raise CohomologyError("generator %r does not live on B^%d" % (g, spec.n))
        H = gen_subvariety(spec, g)
        out[GEN_H] = out.get(GEN_H, Fraction(0)) + c
        for W in geom.strict_subs(H):
            k = gen_e(W)
            out[k] = out.get(k, Fraction(0)) - c
    return {g: c for g, c in out.items() if c}


def hyperplane_relation(spec, V):
    """Class of the strict transform D_V of a hyperplane V, normalized."""
    if V.dim != spec.n - 1:
        raise CohomologyError("hyperplane_relation needs dim V = n-1")
    return normalize_divisor(spec, {gen_e(V): Fraction(1)})


# -- restriction of generators to an exceptional divisor ----------------------

def factor_specs(spec, V):
    """The two factors of D_V = B^d x B^(n-d-1)."""
    d = V.dim
    return blowup(d, spec.field), blowup(spec.n - d - 1, spec.field)


def _divisor_class_on_factor(factor_spec, image):
    """Class of the divisor attached to `image` inside the factor variety.

    `image` has codimension >= 1 in the factor's projective space; dimension
    exactly one less gives a strict-transform hyperplane class, anything
    smaller is an exceptional generator.
    """
    m = dimension(factor_spec)
    out = {}
    if image.dim <= m - 2:
        out[gen_e(image)] = Fraction(1)
        return out
    if image.dim != m - 1:
        raise CohomologyError("image is not a divisor in its factor")
    if isinstance(factor_spec, Projective):
        out[GEN_H] = Fraction(1)
        return out
    return hyperplane_relation(factor_spec, image)


@lru_cache(maxsize=None)
def restrict_generator(spec, V, g):
    """Restriction of a degree-1 generator of B^n to D_V = B^d x B^(n-d-1).

    Returns a read-only mapping {(side, generator): coefficient} with side 0
    the B^d factor and side 1 the B^(n-d-1) factor.  Incomparable exceptional
    generators restrict to zero (their centers are disjoint from V).  The
    result is memoized per (spec, V, g).
    """
    return MappingProxyType(_restrict_generator(spec, V, g))


def _restrict_generator(spec, V, g):
    geom = ambient_geometry(spec.n, spec.field)
    d = V.dim
    out = {}

    def add(side, cls, coeff):
        for gg, cc in cls.items():
            key = (side, gg)
            out[key] = out.get(key, Fraction(0)) + coeff * cc

    if g == GEN_H:
        if d >= 1:
            add(0, {GEN_H: Fraction(1)}, Fraction(1))
        return {k: c for k, c in out.items() if c}

    W = gen_subvariety(spec, g)
    if W == V:
        # rewrite one copy through the least hyperplane containing V, then
        # restrict the rewritten expression term by term
        H = geom.least_hyperplane_containing(V)
        terms = [(GEN_H, Fraction(1)), (("strict", H), Fraction(-1))]
        terms += [(gen_e(U), Fraction(-1))
                  for U in geom.strict_subs(H) if U != V]
        for term, coeff in terms:
            if term == GEN_H:
                if d >= 1:
                    add(0, {GEN_H: Fraction(1)}, coeff)
                continue
            U = H if term[0] == "strict" else gen_subvariety(spec, term)
            for key, c in _restrict_subvariety_divisor(spec, V, U).items():
                out[key] = out.get(key, Fraction(0)) + coeff * c
        return {k: c for k, c in out.items() if c}

    return _restrict_subvariety_divisor(spec, V, W)


def _restrict_subvariety_divisor(spec, V, W):
    """Restriction of the divisor D_W (W != V, any dim 0..n-1) to D_V."""
    geom = ambient_geometry(spec.n, spec.field)
    f1, f2 = factor_specs(spec, V)
    out = {}
    if geom.contains(V, W):        # W strictly inside V: first factor
        image = sub_image(V, W)
        for gg, cc in _divisor_class_on_factor(f1, image).items():
            out[(0, gg)] = out.get((0, gg), Fraction(0)) + cc
    elif geom.contains(W, V):      # W strictly contains V: second factor
        image = quotient_image(V, W)
        for gg, cc in _divisor_class_on_factor(f2, image).items():
            out[(1, gg)] = out.get((1, gg), Fraction(0)) + cc
    return {k: c for k, c in out.items() if c}


# -- intersection numbers -----------------------------------------------------

_EVAL_MEMO = {}


def _support_is_chain(spec, mono):
    """True iff the centers of the exceptional factors are pairwise comparable."""
    table = _gen_table(spec)
    allowed = -1   # subvarieties comparable with every center seen so far
    for g in mono:
        if g != GEN_H:
            _, bit, comparable = table[g]
            if not allowed & bit:
                return False
            allowed &= comparable
    return True


def intersection_number(spec, mono, chooser=None):
    """Top intersection number of a monomial of degree dim(spec).

    `chooser` overrides the default lexicographically-least choice of an
    exceptional factor for descent; the value is independent of the choice.
    """
    if isinstance(spec, Product):
        if len(mono) != len(spec.factors):
            raise CohomologyError("product monomial must be factor-split")
        val = Fraction(1)
        for f, m in zip(spec.factors, mono):
            if len(m) != dimension(f):
                return Fraction(0)
            val *= intersection_number(f, m, chooser)
            if not val:
                return Fraction(0)
        return val

    if len(mono) != dimension(spec):
        raise CohomologyError("monomial degree %d != dimension %d"
                              % (len(mono), dimension(spec)))

    if isinstance(spec, Projective):
        if any(g != GEN_H for g in mono):
            raise CohomologyError("projective space has only the generator h")
        return Fraction(1)

    use_memo = chooser is None
    key = (spec, mono)
    if use_memo and key in _EVAL_MEMO:
        return _EVAL_MEMO[key]
    val = _eval_blowup(spec, mono, chooser)
    if use_memo:
        _EVAL_MEMO[key] = val
    return val


def _eval_blowup(spec, mono, chooser):
    if all(g == GEN_H for g in mono):
        return Fraction(1)
    if not _support_is_chain(spec, mono):
        return Fraction(0)
    exc = sorted(set(g for g in mono if g != GEN_H), key=gen_key)
    g0 = exc[0] if chooser is None else chooser(exc)
    V = gen_subvariety(spec, g0)
    rest = list(mono)
    rest.remove(g0)
    f1, f2 = factor_specs(spec, V)
    # multilinear expansion of the product of the restricted factors
    terms = {((), ()): Fraction(1)}
    for g in rest:
        cls = restrict_generator(spec, V, g)
        if not cls:
            return Fraction(0)
        new_terms = {}
        for (m0, m1), c in terms.items():
            for (side, gg), cc in cls.items():
                nm0, nm1 = (monomial(m0 + (gg,)), m1) if side == 0 \
                    else (m0, monomial(m1 + (gg,)))
                k = (nm0, nm1)
                new_terms[k] = new_terms.get(k, Fraction(0)) + c * cc
        terms = {k: c for k, c in new_terms.items() if c}
        if not terms:
            return Fraction(0)
    d = V.dim
    total = Fraction(0)
    for (m0, m1), c in terms.items():
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
    n, q = spec.n, spec.field.q
    b = [1] * (n + 1)
    for k in range(n - 1):
        codim = n - k
        centers = gaussian_binomial(n + 1, k + 1, q)
        cb = betti_numbers(blowup(k, spec.field))
        nb = list(b)
        for j in range(n + 1):
            for m in range(codim - 1):
                idx = j - 1 - m
                if 0 <= idx < len(cb):
                    nb[j] += centers * cb[idx]
        b = nb
    return b


# -- graded rings ---------------------------------------------------------------

class GradedRing:
    """Exact rational cohomology ring with chosen monomial bases.

    basis[j] lists the monomials spanning N^j; pairing[j] is the matrix of
    top intersection numbers between basis[j] and basis[n-j].  All pairings
    are nondegenerate (Poincare duality) by construction.
    """

    def __init__(self, spec, basis, pairing, topeval=None):
        self.spec = spec
        self.n = dimension(spec) if topeval is None else len(basis) - 1
        self.basis = basis
        self.pairing = pairing
        self.index = [{m: i for i, m in enumerate(bs)} for bs in basis]
        self._coords_memo = {}
        self._pairing_inv_t = [None] * (self.n + 1)
        self.factors = None
        self.topeval = topeval   # top-degree evaluation for explicit rings

    def dims(self):
        return [len(b) for b in self.basis]

    @property
    def components(self):
        return 1

    def zero(self, j):
        return [Fraction(0)] * len(self.basis[j])

    def _pairing_solver(self, j):
        """Inverse of the transposed degree-j pairing as (integer rows,
        denominator), cleared once per degree."""
        if self._pairing_inv_t[j] is None:
            inv = linalg.inverse(linalg.transpose(self.pairing[j]))
            self._pairing_inv_t[j] = linalg.integer_rows(inv)
        return self._pairing_inv_t[j]

    def monomial_coords(self, mono):
        """Coordinates of an arbitrary monomial in the degree-j basis."""
        j = self._degree_of(mono)
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

    def _degree_of(self, mono):
        if isinstance(self.spec, Product):
            return sum(len(m) for m in mono)
        return len(mono)

    def _coords_vector(self, mono, j):
        if isinstance(self.spec, Product):
            if any(len(m) > r.n for r, m in zip(self.factors, mono)):
                return self.zero(j)   # a factor class above its top degree
            # tensor of factor coordinates
            parts = [r.monomial_coords(m) for r, m in zip(self.factors, mono)]
            degs = [len(m) for m in mono]
            v = self.zero(j)
            nonzero = [[(i, c) for i, c in enumerate(p) if c] for p in parts]
            for combo in itertools.product(*nonzero):
                coeff = Fraction(1)
                label = []
                for (i, c), ring, d in zip(combo, self.factors, degs):
                    coeff *= c
                    label.append(ring.basis[d][i])
                v[self.index[j][tuple(label)]] += coeff
            return v
        if isinstance(self.spec, BlownUp) and not _support_is_chain(self.spec, mono):
            return self.zero(j)
        rhs = [self._pair_value(mono, dual) for dual in self.basis[self.n - j]]
        if not rhs:
            return []
        rows, den = self._pairing_solver(j)
        return linalg.integer_matvec(rows, den, rhs)

    def _pair_value(self, mono, dual):
        merged = self._merge(mono, dual)
        if self.topeval is not None:
            return self.topeval(merged)
        return intersection_number(self.spec, merged)

    def _merge(self, m1, m2):
        if isinstance(self.spec, Product):
            return tuple(monomial(a + b) for a, b in zip(m1, m2))
        return monomial(m1 + m2)

    def multiply(self, j, vj, k, vk):
        """Product N^j x N^k -> N^(j+k) in basis coordinates."""
        if j + k > self.n:
            return []
        out = self.zero(j + k)
        for a, ca in enumerate(vj):
            if not ca:
                continue
            ma = self.basis[j][a]
            for b, cb in enumerate(vk):
                if not cb:
                    continue
                prod = self.monomial_coords(self._merge(ma, self.basis[k][b]))
                f = ca * cb
                for i, x in enumerate(prod):
                    if x:
                        out[i] += f * x
        return out

    def pair(self, j, vj, vk):
        """Intersection pairing N^j x N^(n-j) -> Q on coordinate vectors."""
        p = self.pairing[j]
        total = Fraction(0)
        for a, ca in enumerate(vj):
            if not ca:
                continue
            row = p[a]
            for b, cb in enumerate(vk):
                if cb:
                    total += ca * cb * row[b]
        return total

    def divisor_vector(self, coeffs):
        """Coordinates in N^1 of a normalized divisor class dict."""
        coeffs = normalize_divisor(self.spec, coeffs) \
            if not isinstance(self.spec, Product) else coeffs
        v = self.zero(1)
        for g, c in coeffs.items():
            mono = (g,) if not isinstance(self.spec, Product) else g
            idx = self.index[1].get(mono)
            if idx is None:
                raise CohomologyError("generator %r is not a basis monomial" % (g,))
            v[idx] += Fraction(c)
        return v

    def to_json(self, include_products=True):
        def mono_json(m):
            if isinstance(self.spec, Product):
                return [[_gen_json(g) for g in part] for part in m]
            return [_gen_json(g) for g in m]

        out = {
            "dimension": self.n,
            "dims": self.dims(),
            "basis": [[mono_json(m) for m in bs] for bs in self.basis],
            "pairing": {str(j): [[str(x) for x in row] for row in self.pairing[j]]
                        for j in range(self.n + 1)},
        }
        if include_products:
            tables = {}
            for j in range(1, self.n + 1):
                for k in range(j, self.n + 1 - j):
                    table = []
                    for ma in self.basis[j]:
                        row = []
                        for mb in self.basis[k]:
                            coords = self.monomial_coords(self._merge(ma, mb))
                            row.append([str(x) for x in coords])
                        table.append(row)
                    tables["%d,%d" % (j, k)] = table
            out["products"] = tables
        return out


def _gen_json(g):
    if g == GEN_H:
        return "h"
    return {"e": {"dim": g[1], "basis": [list(r) for r in g[2]]}}


# -- ring construction ----------------------------------------------------------

_RING_CACHE = {}


def _chain_monomials(spec, degree):
    """All degree-d monomials in the generators whose support is a chain."""
    gens = generators(spec)
    table = _gen_table(spec)
    # h has no center: it passes every chain test and narrows nothing
    masks = [(-1, -1) if g == GEN_H else table[g][1:] for g in gens]
    out = []

    def extend(prefix, start, remaining, allowed):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for i in range(start, len(gens)):
            bit, comparable = masks[i]
            if not allowed & bit:
                continue
            prefix.append(gens[i])
            extend(prefix, i, remaining - 1, allowed & comparable)
            prefix.pop()

    extend([], 0, degree, -1)
    return out


def check_resource_guard(spec, limits=None):
    limits = limits or RESOURCE_LIMITS
    max_dim = int(os.environ.get("PURITY_MAX_DIM", limits["max_dim"]))
    if isinstance(spec, Product):
        for f in spec.factors:
            check_resource_guard(f, limits)
        return
    if isinstance(spec, BlownUp):
        if spec.n > max_dim:
            raise ResourceGuardError(
                "blow-up dimension %d exceeds guard %d (set PURITY_MAX_DIM to raise)"
                % (spec.n, max_dim))
        if spec.field.q > limits["max_q"]:
            raise ResourceGuardError(
                "field size %d exceeds guard %d" % (spec.field.q, limits["max_q"]))


def build_ring(spec):
    """Construct the graded ring of spec; results are cached per spec."""
    if spec in _RING_CACHE:
        return _RING_CACHE[spec]
    check_resource_guard(spec)
    if isinstance(spec, Projective):
        ring = _build_projective(spec)
    elif isinstance(spec, BlownUp):
        ring = _build_blowup(spec)
    else:
        ring = _build_product(spec)
    _RING_CACHE[spec] = ring
    return ring


def _build_projective(spec):
    n = spec.n
    basis = [[tuple([GEN_H] * j)] for j in range(n + 1)]
    pairing = [[[Fraction(1)]] for _ in range(n + 1)]
    return GradedRing(spec, basis, pairing)


def _build_blowup(spec):
    n = spec.n
    expected = betti_numbers(spec)
    candidates = [_chain_monomials(spec, j) for j in range(n + 1)]
    # full candidate pairing matrices, one per complementary pair of degrees
    full = {}
    for j in range(n // 2 + 1):
        rows = candidates[j]
        cols = candidates[n - j]
        m = [[intersection_number(spec, monomial(r + c)) for c in cols]
             for r in rows]
        full[j] = m
        full[n - j] = linalg.transpose(m)
    picks = []
    for j in range(n + 1):
        picked = linalg.independent_rows(full[j], expected[j])
        if len(picked) != expected[j]:
            raise CohomologyError(
                "degree %d: pairing rank %d disagrees with Betti number %d on B^%d/F_%d"
                % (j, len(picked), expected[j], n, spec.field.q))
        picks.append(picked)
    basis = [[candidates[j][i] for i in picked] for j, picked in enumerate(picks)]
    pairing = []
    for j in range(n + 1):
        sub = [[full[j][r][c] for c in picks[n - j]] for r in picks[j]]
        if linalg.rank(sub) != len(basis[j]):
            raise CohomologyError("Poincare pairing degenerate in degree %d" % j)
        pairing.append(sub)
    return GradedRing(spec, basis, pairing)


def _build_product(spec):
    rings = [build_ring(f) for f in spec.factors]
    n = dimension(spec)
    basis = []
    for j in range(n + 1):
        bs = []
        for split in _compositions(j, [r.n for r in rings]):
            for combo in itertools.product(*[r.basis[a] for r, a in zip(rings, split)]):
                bs.append(tuple(combo))
        basis.append(bs)
    pairing = []
    for j in range(n + 1):
        rows = basis[j]
        cols = basis[n - j]
        m = []
        for r in rows:
            row = []
            for c in cols:
                val = Fraction(1)
                for ring, a, b in zip(rings, r, c):
                    da = len(a)
                    if da + len(b) != ring.n:
                        val = Fraction(0)
                        break
                    val *= ring.pairing[da][ring.index[da][a]][ring.index[ring.n - da][b]]
                row.append(val)
            m.append(row)
        pairing.append(m)
    ring = GradedRing(spec, basis, pairing)
    ring.factors = rings
    return ring


def _compositions(total, caps):
    if not caps:
        if total == 0:
            yield ()
        return
    for first in range(min(total, caps[0]) + 1):
        for rest in _compositions(total - first, caps[1:]):
            yield (first,) + rest


def kunneth(r1, r2):
    """Ring of the product variety with tensor basis and factorwise pairing."""
    return build_ring(product(r1.spec, r2.spec))


# -- restriction to an exceptional divisor ---------------------------------------

def restrict_to_divisor(ring, V):
    """Restriction maps from the ring of B^n onto D_V = B^d x B^(n-d-1).

    Returns (target_ring, matrices) with one matrix per degree j, sending
    source basis coordinates to target basis coordinates.  Each map is a ring
    homomorphism; this is exercised by the tests rather than assumed.
    """
    spec = ring.spec
    if not isinstance(spec, BlownUp):
        raise CohomologyError("restriction is defined on blow-up rings")
    if V.ambient_n != spec.n or V.field != spec.field or not (0 <= V.dim <= spec.n - 1):
        raise CohomologyError("%r is not a center of B^%d" % (V, spec.n))
    f1, f2 = factor_specs(spec, V)
    target = build_ring(product(f1, f2))
    matrices = []
    for j in range(ring.n + 1):
        cols = []
        for mono in ring.basis[j]:
            terms = {((), ()): Fraction(1)}
            for g in mono:
                cls = restrict_generator(spec, V, g)
                new_terms = {}
                for (m0, m1), c in terms.items():
                    for (side, gg), cc in cls.items():
                        nm = (monomial(m0 + (gg,)), m1) if side == 0 \
                            else (m0, monomial(m1 + (gg,)))
                        new_terms[nm] = new_terms.get(nm, Fraction(0)) + c * cc
                terms = {k: c for k, c in new_terms.items() if c}
                if not terms:
                    break
            col = target.zero(j) if j <= target.n else []
            if j > target.n:
                cols.append(col)
                continue
            for (m0, m1), c in terms.items():
                if len(m0) > dimension(f1) or len(m1) > dimension(f2):
                    continue
                vec = target.monomial_coords((m0, m1))
                for i, x in enumerate(vec):
                    if x:
                        col[i] += c * x
            cols.append(col)
        rows = len(target.basis[j]) if j <= target.n else 0
        matrices.append([[cols[c][r] for c in range(len(cols))] for r in range(rows)])
    return target, matrices

