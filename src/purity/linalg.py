"""Exact linear algebra over the rationals.

Matrices are lists of lists of Fraction (row-major) at the interface.
Everything here is exact; no floating point is used anywhere.  Products,
rank, RREF and definiteness clear each operand to integer rows over one
common denominator and work on integers inside; the result is converted back
to Fractions once, so callers see the same matrices as plain Fraction
arithmetic would give.  RREF and rank divide each eliminated row by its
content, and rank eliminates on sparse rows; definiteness is one Bareiss
sweep.  The integer copies live only for one call, except where a caller keeps
the `integer_rows` of a matrix it applies many times (`integer_matvec`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd


_ZERO = Fraction(0)


class LinAlgError(ValueError):
    pass


def mat(rows):
    return [[Fraction(x) for x in row] for row in rows]


def zeros(r, c):
    return [[Fraction(0)] * c for _ in range(r)]


def identity(n):
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = Fraction(1)
    return m


def shape(m):
    return len(m), len(m[0]) if m else 0


def matmul(a, b):
    """Exact product, computed on integer rows over one common denominator per
    operand; only the nonzero entries of b's rows are visited."""
    ra, ca = shape(a)
    rb, cb = shape(b)
    if ca != rb:
        raise LinAlgError("shape mismatch %sx%s @ %sx%s" % (ra, ca, rb, cb))
    ia, da = integer_rows(a)
    ib, db = integer_rows(b)
    sparse_b = [[(j, y) for j, y in enumerate(row) if y] for row in ib]
    den = da * db
    out = []
    for row in ia:
        acc = [0] * cb
        for x, nz in zip(row, sparse_b):
            if x:
                for j, y in nz:
                    acc[j] += x * y
        out.append(_to_fractions(acc, den))
    return out


def matvec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def transpose(m):
    return [list(col) for col in zip(*m)] if m else []


def mat_equal(a, b):
    return shape(a) == shape(b) and all(x == y for ra, rb in zip(a, b)
                                        for x, y in zip(ra, rb))


def is_zero_matrix(m):
    return all(x == 0 for row in m for x in row)


def scale(m, c):
    c = Fraction(c)
    return [[c * x for x in row] for row in m]


def add(a, b):
    if shape(a) != shape(b):
        raise LinAlgError("shape mismatch in add")
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def integer_rows(m):
    """(rows, den): integer rows with m == rows / den, den the least common
    denominator of all entries.  Row space, rank and RREF are those of m."""
    den = 1
    for row in m:
        for x in row:
            d = x.denominator
            if d != 1 and den % d:
                den = den * d // gcd(den, d)
    if den == 1:
        return [[x.numerator for x in row] for row in m], 1
    return [[x.numerator * (den // x.denominator) for x in row] for row in m], den


def _to_fractions(row, den):
    if den == 1:
        return [Fraction(x) if x else _ZERO for x in row]
    return [Fraction(x, den) if x else _ZERO for x in row]


def integer_matvec(rows, den, v):
    """(rows / den) @ v as Fractions, for (rows, den) from `integer_rows` and a
    Fraction vector v; only the nonzero entries of v are visited."""
    [iv], dv = integer_rows([v])
    nz = [(k, y) for k, y in enumerate(iv) if y]
    return _to_fractions([sum(row[k] * y for k, y in nz) for row in rows], den * dv)


def independent_rows(m, limit=None):
    """Indices i, in order, of the rows of m that are independent of rows
    0..i-1 (the greedy row basis); stops once `limit` rows are picked.

    Sparse fraction-free elimination on integer rows.  Each picked row is kept
    sparse, reduced by the rows picked before it, with its first nonzero column
    as pivot.  A new row is reduced by a kept row only when it has a nonzero in
    that row's pivot column, and the update visits only the kept row's
    nonzeros; after each step the row is divided by its content.  What is left
    is zero exactly when the row depends on the rows before it, so the picks do
    not depend on the elimination order.
    """
    rows, _ = integer_rows(m)
    kept = []     # (pivot column, pivot value, nonzero (column, value) pairs)
    picked = []
    for i, row in enumerate(rows):
        if limit is not None and len(picked) == limit:
            break
        work = {j: x for j, x in enumerate(row) if x}
        for c, p, nz in kept:
            f = work.get(c)
            if not f:
                continue
            g = gcd(p, f)
            s = p // g
            if s != 1:
                work = {j: s * x for j, x in work.items()}
            f //= g
            for j, y in nz:
                x = work.get(j, 0) - f * y
                if x:
                    work[j] = x
                else:
                    del work[j]
            if not work:
                break
            g = gcd(*work.values())
            if g > 1:
                work = {j: x // g for j, x in work.items()}
        if work:
            c = min(work)
            kept.append((c, work[c], list(work.items())))
            picked.append(i)
    return picked


def rank(m):
    """Exact rank by sparse fraction-free elimination (`independent_rows`)."""
    return len(independent_rows(m))


def rref(m):
    """Reduced row echelon form over Q; returns (rref_rows, pivot_columns).

    Fraction-free Gauss-Jordan: rows stay integer, each eliminated row is
    divided by its content, and a pivot row is divided by its pivot only when
    it is emitted.  Every row is then a nonzero multiple of the corresponding
    row of the (unique) RREF, so the result is exact.
    """
    rows, cols = shape(m)
    a, _ = integer_rows(m)
    pivots = []
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if a[i][c]:
                piv = i
                break
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        prow = a[r]
        p = prow[c]
        nz = [(j, y) for j, y in enumerate(prow) if y]
        for i in range(rows):
            f = a[i][c]
            if i == r or not f:
                continue
            row = a[i] if p == 1 else [p * x for x in a[i]]
            for j, y in nz:
                row[j] -= f * y
            g = gcd(*row)
            a[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return [_to_fractions(row, row[c]) for row, c in zip(a, pivots)], pivots


def kernel_basis(m):
    """Basis of the right null space; rank + len(basis) == cols, exactly."""
    rows, cols = shape(m)
    if rows == 0:
        return [[Fraction(1) if j == i else Fraction(0) for j in range(cols)]
                for i in range(cols)]
    red, pivots = rref(m)
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for row, piv in zip(red, pivots):
            v[piv] = -row[fc]
        basis.append(v)
    return basis


def rank_kernel(m):
    """(rank, kernel basis) with rank computed fraction-free."""
    k = kernel_basis(m)
    _, cols = shape(m)
    return cols - len(k), k


def solve(a, b_cols):
    """Solve a @ x = b for each column of b_cols; raises if inconsistent.

    b_cols is a matrix whose columns are right-hand sides; returns the matrix
    of solution columns.  `a` must have full column rank for uniqueness.
    """
    ra, ca = shape(a)
    rb, cb = shape(b_cols)
    if ra != rb:
        raise LinAlgError("solve: row mismatch")
    aug = [list(a[i]) + list(b_cols[i]) for i in range(ra)]
    red, pivots = rref(aug)
    if any(p >= ca for p in pivots):
        raise LinAlgError("solve: inconsistent system")
    if len(pivots) < ca:
        raise LinAlgError("solve: singular system (rank %d < %d)" % (len(pivots), ca))
    x = zeros(ca, cb)
    for row, piv in zip(red, pivots):
        for j in range(cb):
            x[piv][j] = row[ca + j]
    return x


def inverse(a):
    n, m = shape(a)
    if n != m:
        raise LinAlgError("inverse of non-square matrix")
    return solve(a, identity(n))


@dataclass(frozen=True)
class SignatureReport:
    n_plus: int
    n_minus: int
    n_zero: int

    @property
    def signature(self):
        return self.n_plus - self.n_minus

    @property
    def dim(self):
        return self.n_plus + self.n_minus + self.n_zero


def _check_symmetric(g):
    r, c = shape(g)
    if r != c:
        raise LinAlgError("not square")
    for i in range(r):
        for j in range(i):
            if g[i][j] != g[j][i]:
                raise LinAlgError("matrix is not symmetric")


def symmetric_signature(g):
    """Exact inertia of a symmetric rational matrix via congruence reduction.

    Uses diagonal pivots when available and hyperbolic 2x2 blocks otherwise
    (a 2x2 block [[0,a],[a,0]] contributes one +1 and one -1).  Invariant
    under congruence g -> P^T g P by Sylvester's law of inertia.
    """
    _check_symmetric(g)
    a = [list(row) for row in g]
    active = list(range(len(a)))
    n_plus = n_minus = n_zero = 0
    while active:
        piv = None
        for i in active:
            if a[i][i] != 0:
                piv = i
                break
        if piv is not None:
            d = a[piv][piv]
            if d > 0:
                n_plus += 1
            else:
                n_minus += 1
            active.remove(piv)
            for i in active:
                f = a[i][piv] / d
                if f:
                    for j in active:
                        a[i][j] -= f * a[piv][j]
            for i in active:
                a[i][piv] = a[piv][i] = Fraction(0)
            continue
        pair = None
        for ii, i in enumerate(active):
            for j in active[ii + 1:]:
                if a[i][j] != 0:
                    pair = (i, j)
                    break
            if pair:
                break
        if pair is None:
            n_zero += len(active)
            break
        i, j = pair
        n_plus += 1
        n_minus += 1
        b = a[i][j]
        active.remove(i)
        active.remove(j)
        # Schur complement of the block [[0, b], [b, 0]]
        for u in active:
            fu_i = a[u][i]
            fu_j = a[u][j]
            if fu_i or fu_j:
                for v in active:
                    a[u][v] -= (fu_i * a[j][v] + fu_j * a[i][v]) / b
        for u in active:
            a[u][i] = a[u][j] = a[i][u] = a[j][u] = Fraction(0)
    return SignatureReport(n_plus, n_minus, n_zero)


def is_positive_definite(g):
    """Sylvester criterion: all leading principal minors positive.

    The pivots of no-exchange fraction-free elimination are ratios of leading
    principal minors, so a single Bareiss sweep decides this exactly.
    """
    _check_symmetric(g)
    n, _ = shape(g)
    if n == 0:
        return True
    # scale by a common denominator (symmetric, positive: minors keep signs)
    a, _ = integer_rows(g)
    prev = 1
    for k in range(n):
        if a[k][k] <= 0:
            return False
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[k][k] * a[i][j] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return True


# -- subspace calculus (columns span the subspace) --------------------------

def column_space(m):
    """Subset of columns forming a basis of the column space (as a matrix)."""
    rows, cols = shape(m)
    if cols == 0:
        return [[] for _ in range(rows)]
    red, pivots = rref(m)
    return [[m[i][c] for c in pivots] for i in range(rows)]


def stack_columns(*mats):
    mats = [m for m in mats if shape(m)[1] > 0]
    if not mats:
        return []
    rows = shape(mats[0])[0]
    out = [[] for _ in range(rows)]
    for m in mats:
        if shape(m)[0] != rows:
            raise LinAlgError("stack_columns: row mismatch")
        for i in range(rows):
            out[i].extend(m[i])
    return out


def subspace_sum(a, b):
    return column_space(stack_columns(a, b))


def subspace_intersection(a, b):
    """Columns spanning col(a) n col(b)."""
    ra, ca = shape(a)
    rb, cb = shape(b)
    if ca == 0 or cb == 0:
        return [[] for _ in range(ra)]
    stacked = stack_columns(a, scale(b, -1))
    ker = kernel_basis(stacked)
    if not ker:
        return [[] for _ in range(ra)]
    return column_space(matmul(a, transpose(ker)[:ca]))


def subspace_leq(a, b):
    """True iff col(a) is contained in col(b)."""
    return rank(b) == rank(stack_columns(a, b))


def subspace_equal(a, b):
    return subspace_leq(a, b) and subspace_leq(b, a)

