"""F_q-rational linear subvarieties of P^n and their incidence structure.

A linear subvariety of projective dimension d is stored as the reduced
row-echelon basis of the corresponding (d+1)-dimensional linear subspace of
F_q^(n+1).  Reduced echelon form is a canonical representative of the row
space, so equality of subvarieties is equality of matrices.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .fields import FieldSpec, field_spec, get_field

MAX_AMBIENT = 6


class GeometryError(ValueError):
    pass


def rref(rows, fq):
    """Reduced row echelon form over F_q; returns (rows_tuple, pivot_cols)."""
    rows = [list(r) for r in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if rows[i][c]:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = fq.inv(rows[r][c])
        rows[r] = [fq.mul(inv, x) for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [fq.sub(x, fq.mul(f, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    rows = rows[:r]
    return tuple(tuple(row) for row in rows), tuple(pivots)


@dataclass(frozen=True, order=True)
class LinearSubvariety:
    """Canonical form of an F_q-rational linear subvariety of P^ambient_n.

    dim == -1 encodes the empty subvariety (basis is the empty matrix); it can
    appear as a meet but is never produced by enumeration.
    """

    ambient_n: int
    dim: int
    basis: tuple
    field: FieldSpec

    def __post_init__(self):
        if self.dim != len(self.basis) - 1:
            raise GeometryError("dimension does not match basis row count")

    @property
    def pivots(self):
        piv = []
        for row in self.basis:
            for c, x in enumerate(row):
                if x:
                    piv.append(c)
                    break
        return tuple(piv)

    def sort_key(self):
        return (self.dim, self.basis)


def make_subvariety(ambient_n, rows, field):
    fq = get_field(field)
    reduced, _ = rref(rows, fq)
    return LinearSubvariety(ambient_n, len(reduced) - 1, reduced, field)


def empty_subvariety(ambient_n, field):
    return LinearSubvariety(ambient_n, -1, (), field)


def whole_space(ambient_n, field):
    rows = tuple(tuple(1 if j == i else 0 for j in range(ambient_n + 1))
                 for i in range(ambient_n + 1))
    return LinearSubvariety(ambient_n, ambient_n, rows, field)


def _reduce_vector(vec, V, fq):
    """Reduce vec modulo the row space of V (in rref)."""
    vec = list(vec)
    for row, c in zip(V.basis, V.pivots):
        if vec[c]:
            f = vec[c]
            vec = [fq.sub(x, fq.mul(f, y)) for x, y in zip(vec, row)]
    return vec


def contains(V, W):
    """True iff W is contained in V (as subvarieties: row space inclusion)."""
    if V.ambient_n != W.ambient_n or V.field != W.field:
        raise GeometryError("ambient space mismatch")
    if W.dim > V.dim:
        return False
    fq = get_field(V.field)
    for row in W.basis:
        if any(_reduce_vector(row, V, fq)):
            return False
    return True


def comparable(V, W):
    return contains(V, W) or contains(W, V)


def meet(V, W):
    """Intersection of subvarieties; may be the empty subvariety (dim -1)."""
    if V.ambient_n != W.ambient_n or V.field != W.field:
        raise GeometryError("ambient space mismatch")
    fq = get_field(V.field)
    # Solve lam * V.basis = mu * W.basis: kernel of the stacked system.
    a, b = len(V.basis), len(W.basis)
    if a == 0 or b == 0:
        return empty_subvariety(V.ambient_n, V.field)
    ncols = V.ambient_n + 1
    rows = []
    for j in range(ncols):
        rows.append([V.basis[i][j] for i in range(a)]
                    + [fq.neg(W.basis[i][j]) for i in range(b)])
    # kernel of the (ncols x (a+b)) matrix
    red, pivots = rref(rows, fq)
    free = [c for c in range(a + b) if c not in pivots]
    vecs = []
    for fcol in free:
        sol = [0] * (a + b)
        sol[fcol] = 1
        for row, piv in zip(reversed(red), reversed(pivots)):
            s = 0
            for c in range(piv + 1, a + b):
                s = fq.add(s, fq.mul(row[c], sol[c]))
            sol[piv] = fq.neg(s)
        vecs.append(sol)
    inter_rows = []
    for sol in vecs:
        vec = [0] * ncols
        for i in range(a):
            if sol[i]:
                vec = [fq.add(x, fq.mul(sol[i], y)) for x, y in zip(vec, V.basis[i])]
        if any(vec):
            inter_rows.append(vec)
    if not inter_rows:
        return empty_subvariety(V.ambient_n, V.field)
    return make_subvariety(V.ambient_n, inter_rows, V.field)


def point_count(k, q):
    """Number of F_q-points of P^k: (q^(k+1) - 1) / (q - 1)."""
    if k < 0:
        return 0
    if q < 2:
        raise GeometryError("field size must be >= 2")
    return (q ** (k + 1) - 1) // (q - 1)


def gaussian_binomial(n, k, q):
    """Number of k-dimensional linear subspaces of F_q^n, exactly."""
    if k < 0 or k > n:
        return 0
    num = 1
    den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (k - i) - 1
    assert num % den == 0
    return num // den


def enumerate_subspaces(n, field, d):
    """All d-dimensional F_q-rational linear subvarieties of P^n.

    Deterministic output, sorted lexicographically on echelon matrices; the
    count is the Gaussian binomial [n+1 choose d+1]_q.
    """
    if not isinstance(field, FieldSpec):
        field = field_spec(field)
    if n < 0 or n > MAX_AMBIENT:
        raise GeometryError("ambient dimension %r out of supported range 0..%d"
                            % (n, MAX_AMBIENT))
    if d < 0 or d > n:
        raise GeometryError("subvariety dimension %r out of range 0..%d" % (d, n))
    fq = get_field(field)
    k = d + 1
    ncols = n + 1
    out = []
    for pivots in itertools.combinations(range(ncols), k):
        free_pos = []
        for i in range(k):
            for c in range(pivots[i] + 1, ncols):
                if c not in pivots:
                    free_pos.append((i, c))
        for vals in itertools.product(fq.elements(), repeat=len(free_pos)):
            rows = [[0] * ncols for _ in range(k)]
            for i in range(k):
                rows[i][pivots[i]] = 1
            for (i, c), v in zip(free_pos, vals):
                rows[i][c] = v
            out.append(LinearSubvariety(n, d, tuple(tuple(r) for r in rows), field))
    out.sort(key=lambda V: V.basis)
    assert len(out) == gaussian_binomial(n + 1, k, field.q)
    return out


def quotient_image(V, W):
    """Image of W (strictly containing V) in P(F_q^(n+1) / V) = P^(n-d-1).

    Containment-preserving in both directions; dim of the image is
    dim W - dim V - 1.
    """
    if not contains(W, V) or W == V:
        raise GeometryError("W must strictly contain V")
    if V.dim == V.ambient_n:
        raise GeometryError("cannot form the quotient by the whole space")
    fq = get_field(V.field)
    piv = set(V.pivots)
    keep = [c for c in range(V.ambient_n + 1) if c not in piv]
    rows = []
    for row in W.basis:
        red = _reduce_vector(row, V, fq)
        vec = [red[c] for c in keep]
        if any(vec):
            rows.append(vec)
    return make_subvariety(V.ambient_n - V.dim - 1, rows, V.field)


def sub_image(V, W):
    """Coordinates of W (contained in V) inside V identified with P^(dim V)."""
    if not contains(V, W):
        raise GeometryError("W must be contained in V")
    rows = []
    for row in W.basis:
        rows.append([row[c] for c in V.pivots])
    return make_subvariety(V.dim, rows, V.field)


def quotient_geometry(V):
    """The bijection {W : W strictly contains V} -> subvarieties of P^(n-d-1)."""
    geom = ambient_geometry(V.ambient_n, V.field)
    return {W: quotient_image(V, W) for W in geom.strict_supers(V)}


class AmbientGeometry:
    """Cached incidence structure of all F_q-rational linear subvarieties of P^n.

    The proper subvarieties are numbered once, on first use, in the order of
    `all_proper`; bit i of an int mask stands for subvariety i.  Each
    subvariety keeps the mask of the proper subvarieties it contains and the
    mask of those containing it (itself included in both), so containment is
    one shift and AND.
    """

    def __init__(self, n, field):
        self.n = n
        self.field = field
        self.q = field.q
        self._by_dim = {}
        self._proper = None    # bit index -> proper subvariety
        self._bits = None      # proper subvariety -> bit index
        self._below = None     # bit index -> mask of the subvarieties it contains
        self._above = None     # bit index -> mask of the subvarieties containing it
        self._subs = {}
        self._supers = {}

    def subvarieties(self, d):
        if d not in self._by_dim:
            self._by_dim[d] = enumerate_subspaces(self.n, self.field, d)
        return self._by_dim[d]

    def all_proper(self):
        """All subvarieties of dimension 0..n-1 in canonical order."""
        out = []
        for d in range(self.n):
            out.extend(self.subvarieties(d))
        return out

    def _numbering(self):
        """Number the proper subvarieties and fill both incidence masks.

        A subvariety is the span of its F_q-points, so V lies in W exactly
        when every point of V is a point of W.  The points of V (basis in
        reduced echelon form) are the combinations whose first nonzero
        coefficient is 1; those combinations are already in canonical form.
        """
        if self._bits is None:
            proper = self.all_proper()
            fq = get_field(self.field)
            point_bit = {P.basis: 1 << i for i, P in enumerate(self.subvarieties(0))}
            through = [0] * len(point_bit)   # point index -> mask of subvarieties on it
            points_of = []
            for i, V in enumerate(proper):
                mask = 0
                for lead, row in enumerate(V.basis):
                    rest = V.basis[lead + 1:]
                    for coeffs in itertools.product(fq.elements(), repeat=len(rest)):
                        vec = row
                        for c, other in zip(coeffs, rest):
                            if c:
                                vec = tuple(fq.add(x, fq.mul(c, y))
                                            for x, y in zip(vec, other))
                        mask |= point_bit[(vec,)]
                points_of.append(mask)
                for p in _bit_indices(mask):
                    through[p] |= 1 << i
            above = []
            for mask in points_of:
                sup = -1
                for p in _bit_indices(mask):
                    sup &= through[p]
                above.append(sup)
            below = [0] * len(proper)
            for i, sup in enumerate(above):
                for j in _bit_indices(sup):
                    below[j] |= 1 << i
            self._proper, self._below, self._above = proper, below, above
            self._bits = {V: i for i, V in enumerate(proper)}
        return self._bits

    def bit(self, V):
        """Index of a proper subvariety in the canonical numbering."""
        return self._numbering()[V]

    def comparable_mask(self, V):
        """Mask of the proper subvarieties comparable with V (V included)."""
        i = self.bit(V)
        return self._below[i] | self._above[i]

    def _members(self, mask):
        return tuple(self._proper[i] for i in _bit_indices(mask))

    def contains(self, V, W):
        """True iff W is contained in V, read from the incidence masks."""
        bits = self._numbering()
        for U in (V, W):
            if U not in bits:
                raise GeometryError("%r is not a proper subvariety of P^%d"
                                    % (U, self.n))
        return bool(self._below[bits[V]] >> bits[W] & 1)

    def comparable(self, V, W):
        return self.contains(V, W) or self.contains(W, V)

    def strict_subs(self, V):
        """All proper nonempty subvarieties strictly contained in V."""
        if V not in self._subs:
            i = self.bit(V)
            self._subs[V] = self._members(self._below[i] & ~(1 << i))
        return self._subs[V]

    def strict_supers(self, V):
        """All proper subvarieties of P^n strictly containing V."""
        if V not in self._supers:
            i = self.bit(V)
            self._supers[V] = self._members(self._above[i] & ~(1 << i))
        return self._supers[V]

    def least_hyperplane_containing(self, V):
        hyperplanes = self.subvarieties(self.n - 1)
        first = len(self._numbering()) - len(hyperplanes)
        mask = self._above[self.bit(V)] >> first
        if not mask:
            raise GeometryError("no hyperplane contains %r" % (V,))
        return hyperplanes[(mask & -mask).bit_length() - 1]


def _bit_indices(mask):
    """Indices of the set bits of a nonnegative mask, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


@lru_cache(maxsize=None)
def ambient_geometry(n, field):
    return AmbientGeometry(n, field)
