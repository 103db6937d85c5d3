"""Exact linear algebra over the rationals.

There is one matrix type, `Matrix`: integer rows over one positive
denominator, with an explicit shape (the layout of FLINT's `fmpq_mat`, used as
a design, not as a dependency).  A matrix is kept canonical -- the gcd of the
denominator and all entries is 1 -- so two matrices are equal as rational
matrices exactly when they compare `==`, and 0 x k and k x 0 shapes are exact.
The value of a matrix never changes after construction, so results may be
shared.  Each matrix also carries its own echelon memo: `rref` eliminates a
given `Matrix` once and keeps its RREF and pivots (a tuple) on it, and `rank`
reads the rank from there or keeps the rank it computed.  `column_space` and
`kernel_basis` mark their results as of full column rank.  Asking `rank`,
`rref`, `kernel_basis` or `column_space` of the same matrix again makes no new
elimination, and `subspace_equal(a, b)` eliminates only [a | b] once the
ranks of a and b are known.

Every function here takes and returns `Matrix`; scalars and coordinate vectors
(`matvec`) are `Fraction`.  `len`, row indexing and iteration read a matrix as
rows of `Fraction`, for output and tests; the algorithms work on the integer
rows.  Everything is exact; no floating point is used anywhere.  `rank` and
`rref` share one sparse fraction-free forward elimination (`_forward`) on
rows held as {column: value}, which visits only nonzero entries and divides
each kept row by its content once: `rank` counts the kept rows, and `rref`
finishes them by back substitution (`_echelon`).
Inertia and definiteness are one sweep (`_pivot_signs`) over the same sparse
rows with the same `_clear` step: a least-degree nonzero diagonal pivot, or a
2 x 2 hyperbolic block where the diagonal is zero.  Rows are only ever scaled
by positive factors, so each pivot has the sign of the true one, and by
Sylvester's law of inertia the pivot order is free.
"""

from __future__ import annotations

import re
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import chain, compress, count
from math import gcd, lcm

from .record import Record


_ZERO = Fraction(0)

# the documented string forms of a rational input, "n" and "p/q": Fraction
# would also read exponents, and reading "1e-9999999" alone takes seconds
RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


class LinAlgError(ValueError):
    pass


def _fractions(row, den):
    return [Fraction(x, den) if x else _ZERO for x in row]


def _width(rows, ncols):
    """The common row length, `ncols` or else that of the first row."""
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    if any(len(r) != ncols for r in rows):
        raise LinAlgError("rows of a %d-column matrix differ in length" % ncols)
    return ncols


class Matrix:
    """An exact rational matrix: `rows`, a tuple of `nrows` tuples of `ncols`
    ints, over the positive denominator `den`.

    The constructor takes any integer rows and nonzero denominator and brings
    them to canonical form; `ncols` defaults to the length of the first row.
    `_rref` and `_rank` are the echelon memo, filled by `rref` and `rank`.
    """

    __slots__ = ("rows", "den", "nrows", "ncols", "_rref", "_rank")

    def __init__(self, rows, den=1, ncols=None):
        rows = list(rows)
        ncols = _width(rows, ncols)
        if not den:
            raise LinAlgError("zero denominator")
        if den < 0:
            den, rows = -den, [[-x for x in r] for r in rows]
        g = den
        for r in rows:
            if g == 1:
                break
            g = gcd(g, *r)
        if g > 1:
            den //= g
            rows = [[x // g for x in r] for r in rows]
        self._set(tuple(map(tuple, rows)), den, ncols)

    def _set(self, rows, den, ncols):
        self.rows, self.den, self.nrows, self.ncols = rows, den, len(rows), ncols
        self._rref = self._rank = None

    @classmethod
    def _canonical(cls, rows, den, ncols):
        """A matrix from rows (a tuple of int tuples) and den already in
        canonical form; nothing is checked."""
        m = object.__new__(cls)
        m._set(rows, den, ncols)
        return m

    @property
    def shape(self):
        return self.nrows, self.ncols

    def entry(self, i, j):
        return Fraction(self.rows[i][j], self.den)

    # the Fraction read path: output and tests, never a hot loop
    def __len__(self):
        return self.nrows

    def __getitem__(self, i):
        return _fractions(self.rows[i], self.den)

    def __iter__(self):
        for row in self.rows:
            yield _fractions(row, self.den)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.ncols, self.den, self.rows) == (other.ncols, other.den, other.rows)

    def __hash__(self):
        return hash((self.ncols, self.den, self.rows))

    def __repr__(self):
        return "Matrix(%r, den=%d, ncols=%d)" % (
            [list(r) for r in self.rows], self.den, self.ncols)


def mat(entries):
    """Matrix of rational entries (ints, Fractions, or anything `Fraction`
    accepts), cleared to integers over their least common denominator; the
    column count is that of the first row (`zeros(0, k)` is the 0 x k
    matrix)."""
    rows = [[x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row]
            for row in entries]
    ncols = _width(rows, None)
    den = 1
    for row in rows:
        den = lcm(den, *(x.denominator for x in row))
    # over the least common denominator the rows are canonical as they stand
    return Matrix._canonical(
        tuple(tuple(x.numerator * (den // x.denominator) for x in row)
              for row in rows), den, ncols)


def zeros(nrows, ncols):
    return Matrix._canonical(((0,) * ncols,) * nrows, 1, ncols)


def identity(n):
    rows = []
    for i in range(n):
        row = [0] * n
        row[i] = 1
        rows.append(tuple(row))
    return Matrix._canonical(tuple(rows), 1, n)


def transpose(m):
    rows = tuple(zip(*m.rows)) if m.nrows else ((),) * m.ncols
    return Matrix._canonical(rows, m.den, m.nrows)


def matmul(a, b):
    """Exact product; only the nonzero entries of b's rows are visited."""
    if a.ncols != b.nrows:
        raise LinAlgError("shape mismatch %sx%s @ %sx%s"
                          % (a.nrows, a.ncols, b.nrows, b.ncols))
    sparse_b = [[(j, y) for j, y in enumerate(row) if y] for row in b.rows]
    out = []
    for row in a.rows:
        acc = [0] * b.ncols
        for x, nz in zip(row, sparse_b):
            if x:
                for j, y in nz:
                    acc[j] += x * y
        out.append(acc)
    return Matrix(out, a.den * b.den, b.ncols)


def matvec(m, v):
    """m @ v for a vector v of Fractions, as a list of Fractions; only the
    nonzero entries of v are visited."""
    if len(v) != m.ncols:
        raise LinAlgError("shape mismatch %sx%s @ vector of length %d"
                          % (m.nrows, m.ncols, len(v)))
    dv = lcm(1, *(x.denominator for x in v))
    nz = [(k, x.numerator * (dv // x.denominator)) for k, x in enumerate(v) if x]
    return _fractions([sum(row[k] * y for k, y in nz) for row in m.rows],
                      m.den * dv)


def is_zero_matrix(m):
    return not any(map(any, m.rows))


def is_signed_permutation(m):
    """Whether m is square with exactly one nonzero entry in each row, 1 or
    -1, and those entries in distinct columns.  Such a matrix is invertible,
    and its inverse is its transpose."""
    if m.den != 1 or m.nrows != m.ncols:
        return False
    cols = range(m.ncols)
    seen = set()
    for row in m.rows:
        nz = list(compress(cols, row))
        if len(nz) != 1 or row[nz[0]] not in (1, -1):
            return False
        seen.add(nz[0])
    return len(seen) == m.nrows


def scale(m, c):
    c = Fraction(c)
    return Matrix([[c.numerator * x for x in row] for row in m.rows],
                  m.den * c.denominator, m.ncols)


def add(a, b):
    if a.shape != b.shape:
        raise LinAlgError("shape mismatch in add")
    den = lcm(a.den, b.den)
    fa, fb = den // a.den, den // b.den
    return Matrix([[fa * x + fb * y for x, y in zip(ra, rb)]
                   for ra, rb in zip(a.rows, b.rows)], den, a.ncols)


def submatrix(m, rows=None, cols=None):
    """The entries of m in the given rows and columns, in the given order;
    None keeps them all."""
    picked = m.rows if rows is None else [m.rows[i] for i in rows]
    if cols is None:
        return Matrix(picked, m.den, m.ncols)
    cols = list(cols)
    return Matrix([[r[c] for c in cols] for r in picked], m.den, len(cols))


def stack_columns(first, *rest):
    """[first | rest...]: the columns of matrices with one row count."""
    mats = (first,) + rest
    if any(m.nrows != first.nrows for m in rest):
        raise LinAlgError("stack_columns: row mismatch")
    den = lcm(*(m.den for m in mats))
    scaled = [m.rows if m.den == den else
              [[x * (den // m.den) for x in r] for r in m.rows] for m in mats]
    # side by side, each canonical part scaled to the lcm: still canonical
    rows = tuple(tuple(chain.from_iterable(part[i] for part in scaled))
                 for i in range(first.nrows))
    return Matrix._canonical(rows, den, sum(m.ncols for m in mats))


def assemble(nrows, ncols, blocks):
    """nrows x ncols matrix holding sign * block at (row0, col0) for each
    (row0, col0, block, sign) of `blocks`; zero elsewhere."""
    den = lcm(1, *(block.den for _, _, block, _ in blocks))
    out = [[0] * ncols for _ in range(nrows)]
    for row0, col0, block, sign in blocks:
        f = sign * (den // block.den)
        for r, row in enumerate(block.rows):
            target = out[row0 + r]
            for c, x in enumerate(row):
                if x:
                    target[col0 + c] += f * x
    return Matrix(out, den, ncols)


def rank(m):
    """Exact rank, computed once per matrix: read from the RREF when `rref`
    has run on m, else counted as the rows `_forward` keeps and kept on m."""
    if m._rank is None:
        m._rank = len(_forward(m.rows))
    return m._rank


def _forward(rows):
    """Sparse fraction-free forward elimination of integer rows: the kept
    rows, in order, as (pivot column, {column: value}) with a positive pivot.

    A row is held as its nonzero entries and reduced, in order, by each kept
    row whose pivot column it meets: p * row - f * kept, both divided by
    gcd(p, f), an update that visits only the kept row's nonzeros.  A row
    that reduces to zero depends on the rows before it and is dropped;
    otherwise it is kept, with its first nonzero column as pivot and its
    content divided out once.  So each kept row is zero at the pivots kept
    before it, the kept rows span the row space, and their number is the
    rank.
    """
    kept = []
    for row in rows:
        work = _sparse(row)
        for c, nz in kept:
            if c in work:
                work = _clear(work, c, nz)
                if not work:
                    break
        if work:
            c = min(work)
            kept.append((c, _primitive(work, work[c] < 0)))
    return kept


def _sparse(row):
    """A dense integer row as {column: value} over its nonzero entries."""
    return dict(zip(compress(count(), row), filter(None, row)))


def _primitive(row, negate=False):
    """A {column: value} row divided by the gcd of its entries, and negated
    too when `negate`."""
    g = -gcd(*row.values()) if negate else gcd(*row.values())
    return row if g == 1 else {j: x // g for j, x in row.items()}


def _clear(work, c, nz):
    """p * work - f * nz over gcd(p, f), with p and f the entries of nz and
    work at column c: work cleared at c, integer, visiting nz's nonzeros
    only.  p > 0, so the signs of work's other entries are kept."""
    p, f = nz[c], work[c]
    g = gcd(p, f)
    if g != p:
        s = p // g
        work = {j: s * x for j, x in work.items()}
    f //= g
    for j, y in nz.items():
        x = work.get(j, 0) - f * y
        if x:
            work[j] = x
        else:
            del work[j]
    return work


def rref(m):
    """Reduced row echelon form over Q: (the RREF as a `Matrix`, the tuple of
    pivot columns), computed once per matrix and returned shared."""
    if m._rref is None:
        m._rref = _echelon(m)
        m._rank = len(m._rref[1])
    return m._rref


def _echelon(m):
    """The RREF of m and its pivot columns: `_forward`, then back
    substitution.

    The kept rows are finished from the last pivot column to the first: a
    row is nonzero only from its pivot on, and the rows with later pivots are
    already zero at every pivot but their own, so subtracting them clears
    the row at every other pivot without touching one.  Each finished row is
    divided by its content once, with a positive pivot; it is then a
    positive multiple of the corresponding row of the (unique) RREF, so the
    result is exact and does not depend on the order of elimination.
    """
    done = {}                       # pivot column -> finished row
    for c, row in sorted(_forward(m.rows), reverse=True):
        for c2 in [j for j in row if j in done]:
            row = _clear(row, c2, done[c2])
        done[c] = _primitive(row)
    # each row / its pivot is canonical, and so is the whole over the lcm of
    # the pivots
    pivots = sorted(done)
    den = lcm(1, *(done[c][c] for c in pivots))
    rows = []
    for c in pivots:
        f = den // done[c][c]
        out = [0] * m.ncols
        for j, x in done[c].items():
            out[j] = f * x
        rows.append(tuple(out))
    return _with_rank(Matrix._canonical(tuple(rows), den, m.ncols),
                      len(pivots)), tuple(pivots)


def _with_rank(m, r):
    """m with its rank r, known to the caller, put in its echelon memo."""
    m._rank = r
    return m


def free_columns(m):
    """The non-pivot columns of m's rref, in order."""
    pivot_set = set(rref(m)[1])
    return [c for c in range(m.ncols) if c not in pivot_set]


def kernel_basis(m):
    """The right null space of m as the columns of an m.ncols x nullity
    matrix: one column per free column of the rref, 1 there and 0 at the other
    free columns.  rank + nullity == m.ncols, exactly."""
    red, pivots = rref(m)
    free = free_columns(m)
    rows = [[0] * len(free) for _ in range(m.ncols)]
    for k, fc in enumerate(free):
        rows[fc][k] = red.den
        for row, piv in zip(red.rows, pivots):
            rows[piv][k] = -row[fc]
    return _with_rank(Matrix(rows, red.den, len(free)), len(free))


def solve(a, b):
    """The x with a @ x = b, column by column; raises if inconsistent.

    `a` must have full column rank for uniqueness.
    """
    if a.nrows != b.nrows:
        raise LinAlgError("solve: row mismatch")
    ca = a.ncols
    red, pivots = rref(stack_columns(a, b))
    if any(p >= ca for p in pivots):
        raise LinAlgError("solve: inconsistent system")
    if len(pivots) < ca:
        raise LinAlgError("solve: singular system (rank %d < %d)" % (len(pivots), ca))
    # full column rank: rref row r has its pivot in column r
    return submatrix(red, cols=range(ca, ca + b.ncols))


def inverse(a):
    if a.nrows != a.ncols:
        raise LinAlgError("inverse of non-square matrix")
    return solve(a, identity(a.nrows))


class SignatureReport(Record):
    """The inertia (n_plus, n_minus, n_zero) of a symmetric matrix."""

    __slots__ = _fields = ("n_plus", "n_minus", "n_zero")

    @property
    def signature(self):
        return self.n_plus - self.n_minus


def _check_symmetric(g):
    if g.nrows != g.ncols:
        raise LinAlgError("not square")
    if g != transpose(g):
        raise LinAlgError("matrix is not symmetric")


def _pivot_signs(g):
    """The signs of the pivots of a symmetric elimination of g, one per row:
    +1 or -1 for each nonsingular pivot, +1 and -1 for each 2 x 2 hyperbolic
    block, 0 for each row left in the radical.

    A sweep over g's integer rows held as {column: value} (g's positive
    denominator changes no sign).  Each step pivots on the diagonal of the
    remaining row with the fewest nonzeros (ties by index) whose diagonal is
    nonzero, yields its sign and negates the pivot row if needed so that the
    pivot is positive; `_clear` then removes the pivot column from each row
    the pivot row meets, and each such row is divided by its content.  So a
    row is only ever scaled by positive factors: every remaining row is a
    positive multiple of the same row of the Schur complement, the nonzero
    pattern stays symmetric, and each stored diagonal has the sign of the
    true one.  When no nonzero diagonal is left, a nonzero a_ij (i the least
    nonzero row, j its first column) is a block [[0, b], [b, 0]], one +1 and
    one -1: rows i and j are made positive at (i, j) and (j, i), column i is
    cleared by row j and then column j by row i, which leaves b^2 times the
    Schur complement of the block, again up to positive factors.  A zero
    rest yields 0s.  By Sylvester's law of inertia, with Haynsworth's
    additivity In(g) = In(pivot block) + In(Schur complement), the counts do
    not depend on the pivot order.
    """
    _check_symmetric(g)
    rows = dict(enumerate(map(_sparse, g.rows)))
    # (nonzeros, index) of each row with a nonzero diagonal, pushed again
    # whenever the row changes; an entry that no longer matches is stale
    heap = [(len(row), k) for k, row in rows.items() if k in row]
    heapify(heap)

    def store(u, row):
        rows[u] = row
        if u in row:
            heappush(heap, (len(row), u))

    def least_pivot():
        while heap:
            size, t = heappop(heap)
            if t in rows.get(t, ()) and len(rows[t]) == size:
                return t
        return None

    def least(keys):
        return min(keys, default=None, key=lambda k: (len(rows[k]), k))

    while rows:
        t = least_pivot()
        if t is not None:
            p = rows.pop(t)
            yield 1 if p[t] > 0 else -1
            p = _primitive(p, p[t] < 0)
            for u in p.keys() - {t}:
                store(u, _primitive(_clear(rows[u], t, p)))
            continue
        i = least(k for k, row in rows.items() if row)
        if i is None:
            yield from [0] * len(rows)
            return
        yield 1
        yield -1
        j = min(rows[i])
        ri, rj = rows.pop(i), rows.pop(j)
        ri, rj = _primitive(ri, ri[j] < 0), _primitive(rj, rj[i] < 0)
        for c, nz, meets in ((i, rj, ri), (j, ri, rj)):
            for u in meets.keys() - {i, j}:
                store(u, _primitive(_clear(rows[u], c, nz)))


def symmetric_signature(g):
    """Exact inertia of a symmetric rational matrix: the sign count of the
    pivots of `_pivot_signs`, invariant under congruence g -> P^T g P by
    Sylvester's law of inertia."""
    signs = list(_pivot_signs(g))
    return SignatureReport(signs.count(1), signs.count(-1), signs.count(0))


def is_positive_definite(g):
    """True iff the inertia of g is (n, 0, 0): every pivot of `_pivot_signs`
    is positive (the sweep stops at the first that is not)."""
    return all(x > 0 for x in _pivot_signs(g))


# -- subspace calculus (columns span the subspace) --------------------------

def column_space(m):
    """The columns of m at the pivots of its rref: a basis of its span."""
    pivots = rref(m)[1]
    return _with_rank(submatrix(m, cols=pivots), len(pivots))


def subspace_sum(a, b):
    return column_space(stack_columns(a, b))


def subspace_intersection(a, b):
    """Columns spanning col(a) n col(b)."""
    ker = kernel_basis(stack_columns(a, scale(b, -1)))
    return column_space(matmul(a, submatrix(ker, rows=range(a.ncols))))


def subspace_leq(a, b):
    """True iff col(a) is contained in col(b)."""
    return rank(b) == rank(stack_columns(a, b))


def subspace_equal(a, b):
    """True iff col(a) == col(b): both have the rank of [a | b]."""
    return rank(a) == rank(b) == rank(stack_columns(a, b))
