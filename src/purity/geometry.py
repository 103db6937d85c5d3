"""F_q-rational linear subvarieties of P^n and their incidence structure.

A linear subvariety of projective dimension d is stored as the reduced
row-echelon basis of the corresponding (d+1)-dimensional linear subspace of
F_q^(n+1).  Reduced echelon form is a canonical representative of the row
space, so equality of subvarieties is equality of matrices.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .fields import get_field
from .record import Record

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


class LinearSubvariety(Record):
    """Canonical form of an F_q-rational linear subvariety of P^ambient_n.

    dim is the projective dimension, one less than the number of basis rows;
    enumeration produces dims 0..ambient_n, and q is the size of the field.
    The hash is taken once, as subvarieties key `AmbientGeometry.bits`, the
    numbering that names the blow-up generators.
    """

    _fields = ("ambient_n", "dim", "basis", "q")
    __slots__ = _fields + ("_hash",)

    def __init__(self, ambient_n, dim, basis, q):
        if dim != len(basis) - 1:
            raise GeometryError("dimension does not match basis row count")
        self.ambient_n, self.dim, self.basis, self.q = ambient_n, dim, basis, q
        self._hash = hash(self._values())

    def __hash__(self):
        return self._hash

    @property
    def pivots(self):
        piv = []
        for row in self.basis:
            for c, x in enumerate(row):
                if x:
                    piv.append(c)
                    break
        return tuple(piv)


def make_subvariety(ambient_n, rows, q):
    reduced, _ = rref(rows, get_field(q))
    return LinearSubvariety(ambient_n, len(reduced) - 1, reduced, q)


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
    if V.ambient_n != W.ambient_n or V.q != W.q:
        raise GeometryError("ambient space mismatch")
    if W.dim > V.dim:
        return False
    fq = get_field(V.q)
    for row in W.basis:
        if any(_reduce_vector(row, V, fq)):
            return False
    return True


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


def enumerate_subspaces(n, q, d):
    """All d-dimensional F_q-rational linear subvarieties of P^n.

    Deterministic output, sorted lexicographically on echelon matrices; the
    count is the Gaussian binomial [n+1 choose d+1]_q.
    """
    fq = get_field(q)
    if n < 0 or n > MAX_AMBIENT:
        raise GeometryError("ambient dimension %r out of supported range 0..%d"
                            % (n, MAX_AMBIENT))
    if d < 0 or d > n:
        raise GeometryError("subvariety dimension %r out of range 0..%d" % (d, n))
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
            out.append(LinearSubvariety(n, d, tuple(tuple(r) for r in rows), q))
    out.sort(key=lambda V: V.basis)
    assert len(out) == gaussian_binomial(n + 1, k, q)
    return out


def quotient_image(V, W):
    """Image of W in P(F_q^(n+1) / V) = P^(n-d-1), for W strictly
    containing V (not checked).

    Containment-preserving in both directions; dim of the image is
    dim W - dim V - 1.
    """
    fq = get_field(V.q)
    piv = set(V.pivots)
    keep = [c for c in range(V.ambient_n + 1) if c not in piv]
    rows = []
    for row in W.basis:
        red = _reduce_vector(row, V, fq)
        vec = [red[c] for c in keep]
        if any(vec):
            rows.append(vec)
    return make_subvariety(V.ambient_n - V.dim - 1, rows, V.q)


def sub_image(V, W):
    """Coordinates of W inside V identified with P^(dim V), for W contained
    in V (not checked)."""
    rows = []
    for row in W.basis:
        rows.append([row[c] for c in V.pivots])
    return make_subvariety(V.dim, rows, V.q)


class AmbientGeometry:
    """Incidence structure of all F_q-rational linear subvarieties of P^n.

    The proper subvarieties are numbered once, at construction, by
    (dimension, echelon basis): `proper` lists them in that order, `bits`
    maps each to its number and `by_dim[d]` lists those of dimension d.  The
    number of a subvariety V is the generator e_V of the blow-ups of P^n
    (see `cohomology`), and bit i of an int mask stands for subvariety i.
    `below[i]` is the mask of the proper subvarieties that subvariety i
    contains, `above[i]` that of those containing it and `comparable[i]`
    their union (i itself is in all three), so containment is one shift and
    AND: flat i contains flat j iff `below[i] >> j & 1`.  The queries take
    and return numbers, and `bits` is the one way from a subvariety to its
    number.

    A subvariety is the span of its F_q-points, so V lies in W exactly when
    every point of V is a point of W.  The points of V (basis in reduced
    echelon form) are the combinations whose first nonzero coefficient is 1;
    those combinations are already in canonical form.
    """

    def __init__(self, n, q):
        self.n = n
        self.by_dim = [enumerate_subspaces(n, q, d) for d in range(n)]
        self.proper = [V for subs in self.by_dim for V in subs]
        self.bits = {V: i for i, V in enumerate(self.proper)}
        fq = get_field(q)
        point_bit = {P.basis: 1 << i for i, P in enumerate(self.proper)
                     if P.dim == 0}
        through = [0] * len(point_bit)   # point index -> mask of subvarieties on it
        points_of = []
        for i, V in enumerate(self.proper):
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
        self.above = []
        for mask in points_of:
            sup = -1
            for p in _bit_indices(mask):
                sup &= through[p]
            self.above.append(sup)
        self.below = [0] * len(self.proper)
        for i, sup in enumerate(self.above):
            for j in _bit_indices(sup):
                self.below[j] |= 1 << i
        self.comparable = [b | a for b, a in zip(self.below, self.above)]

    def strict_subs(self, i):
        """The numbers of the flats strictly inside flat i."""
        return _bit_indices(self.below[i] & ~(1 << i))

    def least_hyperplane_containing(self, i):
        """The number of the first hyperplane containing flat i; every
        proper flat lies in one."""
        first = len(self.proper) - len(self.by_dim[-1])
        mask = self.above[i] >> first << first
        return (mask & -mask).bit_length() - 1


def _bit_indices(mask):
    """Indices of the set bits of a nonnegative mask, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


# typed, as `get_field`: a float equal to a cached size is refused, not
# answered from the int's entry
@lru_cache(maxsize=None, typed=True)
def ambient_geometry(n, q):
    return AmbientGeometry(n, q)
