import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from purity import linalg
from purity.cohomology import blowup, build_ring
from purity.lefschetz import (check_hard_lefschetz, check_hodge_standard,
                              lefschetz_pairing_gram, lefschetz_power,
                              make_context, omega_form)
from purity.linalg import (LinAlgError, Matrix, identity, inverse,
                           is_positive_definite, kernel_basis, mat, matmul,
                           rank, symmetric_signature)
from oracle import pivot_signs_by_scans

fractions = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def square(n):
    return st.lists(st.lists(fractions, min_size=n, max_size=n),
                    min_size=n, max_size=n)


def test_rank_kernel_examples():
    assert rank(identity(3)) == 3
    assert kernel_basis(identity(3)).shape == (3, 0)
    assert rank(mat([[0, 0], [0, 0]])) == 0
    assert kernel_basis(mat([[0, 0], [0, 0]])) == identity(2)
    m = mat([[1, 2], [2, 4]])
    k = kernel_basis(m)
    assert rank(m) == 1 and k.shape == (2, 1)
    assert linalg.is_zero_matrix(matmul(m, k))   # proportional to (2, -1)


def test_signature_examples():
    s = symmetric_signature(mat([[1, 0, 0], [0, -1, 0], [0, 0, 0]]))
    assert (s.n_plus, s.n_minus, s.n_zero) == (1, 1, 1) and s.signature == 0
    s = symmetric_signature(mat([[2, 0], [0, 3]]))
    assert (s.n_plus, s.n_minus, s.n_zero) == (2, 0, 0)
    s = symmetric_signature(mat([[0, 1], [1, 0]]))
    assert (s.n_plus, s.n_minus, s.n_zero) == (1, 1, 0)
    # a negative pivot, then a hyperbolic block: [-1] + the 3x3 all-ones
    # matrix minus I, whose eigenvalues are 2, -1, -1
    s = symmetric_signature(mat([[0, 0, 1, 1], [0, -1, 0, 0],
                                 [1, 0, 0, 1], [1, 0, 1, 0]]))
    assert (s.n_plus, s.n_minus, s.n_zero) == (1, 3, 0)


def test_positive_definite_examples():
    assert is_positive_definite(mat([[2, 1], [1, 2]]))
    assert not is_positive_definite(mat([[1, 2], [2, 1]]))
    assert is_positive_definite(mat([]))
    with pytest.raises(LinAlgError):
        is_positive_definite(mat([[1, 2], [0, 1]]))


@settings(max_examples=60, deadline=None)
@given(square(3))
def test_kernel_vectors_are_exact(rows):
    m = mat(rows)
    kernel = kernel_basis(m)
    assert rank(m) + kernel.ncols == 3
    assert linalg.is_zero_matrix(matmul(m, kernel))


@settings(max_examples=40, deadline=None)
@given(square(3), square(3))
def test_signature_invariant_under_congruence(g_rows, p_rows):
    g = mat(g_rows)
    g = linalg.add(g, linalg.transpose(g))   # symmetrize
    p = mat(p_rows)
    if rank(p) != 3:
        return
    before = symmetric_signature(g)
    after = symmetric_signature(matmul(linalg.transpose(p), matmul(g, p)))
    assert (before.n_plus, before.n_minus, before.n_zero) == \
        (after.n_plus, after.n_minus, after.n_zero)


@settings(max_examples=60, deadline=None)
@given(square(3))
def test_positive_definite_iff_full_positive_inertia(rows):
    g = mat(rows)
    g = linalg.add(g, linalg.transpose(g))
    s = symmetric_signature(g)
    assert is_positive_definite(g) == ((s.n_plus, s.n_minus, s.n_zero) == (3, 0, 0))


def test_solve_and_inverse():
    a = mat([[2, 1], [1, 1]])
    ainv = inverse(a)
    assert matmul(a, ainv) == identity(2)
    with pytest.raises(LinAlgError):
        inverse(mat([[1, 2], [2, 4]]))


@pytest.mark.parametrize("rows,den,signed", [
    ([[0, -1, 0], [0, 0, 1], [1, 0, 0]], 1, True),
    ([], 1, True),
    ([[0, 1], [0, -1]], 1, False),            # a repeated column
    ([[2, 0], [0, 1]], 1, False),             # a +-2 entry
    ([[-2, 0], [0, 1]], 1, False),
    ([[1, 0], [0, 1]], 2, False),             # entries 1/2
    ([[1, 1], [0, 1]], 1, False),             # two nonzeros in a row
    ([[1, 0], [0, 0]], 1, False),             # a zero row
    ([[1, 0, 0], [0, 1, 0]], 1, False),       # not square
], ids=["signed", "empty", "repeated-column", "two", "minus-two", "half",
        "two-in-a-row", "zero-row", "not-square"])
def test_is_signed_permutation_examples(rows, den, signed):
    m = Matrix(rows, den, len(rows[0]) if rows else 0)
    assert linalg.is_signed_permutation(m) is signed
    if signed:
        assert inverse(m) == linalg.transpose(m)


@settings(max_examples=100, deadline=None)
@given(st.permutations(range(6)), st.lists(st.sampled_from([1, -1]),
                                           min_size=6, max_size=6))
def test_signed_permutation_is_inverted_by_its_transpose(perm, signs):
    rows = [[0] * 6 for _ in range(6)]
    for i, (j, sign) in enumerate(zip(perm, signs)):
        rows[i][j] = sign
    m = Matrix(rows)
    assert linalg.is_signed_permutation(m)
    assert inverse(m) == linalg.transpose(m)
    assert matmul(m, linalg.transpose(m)) == identity(6)


def test_rank_fraction_free_matches_rref():
    m = mat([[Fraction(1, 2), 2, 3], [1, 4, 6], [0, 1, 1]])
    red, pivots = linalg.rref(m)
    assert rank(m) == len(pivots) == 2


def test_subspace_calculus():
    a = mat([[1, 0], [0, 1], [0, 0]])
    b = mat([[1], [1], [1]])
    s = linalg.subspace_sum(a, b)
    assert linalg.rank(s) == 3
    inter = linalg.subspace_intersection(a, b)
    assert linalg.rank(inter) == 0
    c = mat([[1], [1], [0]])
    inter2 = linalg.subspace_intersection(a, c)
    assert linalg.rank(inter2) == 1
    assert linalg.subspace_leq(c, a)
    assert not linalg.subspace_leq(b, a)


# -- canonical form ------------------------------------------------------------

def _is_canonical(m):
    return (type(m) is Matrix and m.den > 0 and len(m.rows) == m.nrows
            and all(type(r) is tuple and len(r) == m.ncols for r in m.rows)
            and all(type(x) is int for r in m.rows for x in r)
            and gcd(m.den, *(x for r in m.rows for x in r)) == 1)


def test_canonical_equality_examples():
    half = mat([[Fraction(1, 2), 1]])
    same = [Matrix([[2, 4]], 4), Matrix([[-1, -2]], -2), Matrix([[3, 6]], 6),
            mat([["1/2", Fraction(2, 2)]])]
    for m in same:
        assert m == half and hash(m) == hash(half) and _is_canonical(m)
    assert (half.rows, half.den) == (((1, 2),), 2)
    assert Matrix([[0, 0]], 7) == linalg.zeros(1, 2)
    assert linalg.zeros(1, 2).den == 1
    # shapes are part of the value, also when there are no entries
    assert linalg.zeros(0, 3) != linalg.zeros(0, 2)
    assert linalg.zeros(3, 0) != linalg.zeros(2, 0)
    assert linalg.zeros(0, 3) == Matrix([], 5, 3)
    assert half != [[Fraction(1, 2), Fraction(1)]]
    with pytest.raises(LinAlgError):
        Matrix([[1, 2], [3]], 1)
    with pytest.raises(LinAlgError):
        Matrix([[1]], 0)


# -- oracle: every operation against plain-Fraction reference code ------------
#
# A reference value is (shape, list of Fraction rows); `_val` reads a Matrix
# the same way, so 0 x k and k x 0 results compare exactly.

def _m(rows, ncols):
    """The Matrix of Fraction rows with ncols columns (also with no rows)."""
    return mat(rows) if rows else linalg.zeros(0, ncols)


def _val(m):
    assert _is_canonical(m)
    return m.shape, [list(row) for row in m]


def _ref(rows, ncols):
    return (len(rows), ncols), [list(r) for r in rows]


def _ref_transpose(rows, ncols):
    return [[rows[i][j] for i in range(len(rows))] for j in range(ncols)]


def _ref_matmul(a, b, ca, cb):
    """Row-by-column product on Fractions (a has ca columns, b has cb)."""
    if ca != len(b):
        raise LinAlgError("shape mismatch")
    bt = _ref_transpose(b, cb)
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in bt]
            for row in a]


def _ref_rref(m, cols):
    """Gauss-Jordan on Fractions, dividing the pivot row first."""
    rows = len(m)
    a = [list(row) for row in m]
    pivots = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a[:r], pivots


def _ref_kernel(m, cols):
    """Kernel columns: 1 at a free column, minus the rref entries at pivots."""
    red, pivots = _ref_rref(m, cols)
    free = [c for c in range(cols) if c not in pivots]
    vecs = []
    for fc in free:
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for row, piv in zip(red, pivots):
            v[piv] = -row[fc]
        vecs.append(v)
    return _ref_transpose(vecs, cols), len(free)


def _ref_solve(a, b_cols, ca, cb):
    red, pivots = _ref_rref([list(ra) + list(rb) for ra, rb in zip(a, b_cols)],
                            ca + cb)
    if any(p >= ca for p in pivots):
        raise LinAlgError("solve: inconsistent system")
    if len(pivots) < ca:
        raise LinAlgError("solve: singular system (rank %d < %d)"
                          % (len(pivots), ca))
    x = [[Fraction(0)] * cb for _ in range(ca)]
    for row, piv in zip(red, pivots):
        for j in range(cb):
            x[piv][j] = row[ca + j]
    return x


def _ref_columns(m, cols):
    return [[row[c] for c in cols] for row in m]


def _ref_column_space(m, cols):
    pivots = _ref_rref(m, cols)[1]
    return _ref_columns(m, pivots), len(pivots)


def _ref_intersection(a, b, ca, cb):
    """The kernel of [a | -b], cut to its first ca rows, through a."""
    stacked = [list(ra) + [-x for x in rb] for ra, rb in zip(a, b)]
    ker, width = _ref_kernel(stacked, ca + cb)
    return _ref_column_space(_ref_matmul(a, ker[:ca], ca, width), width)


def _ref_charpoly(g):
    """Coefficients c_0..c_n of det(x I - g), by Faddeev-LeVerrier."""
    n = len(g)
    coeffs = [Fraction(0)] * n + [Fraction(1)]
    m = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        m = _ref_matmul(g, m, n, n)
        for i in range(n):
            m[i][i] += coeffs[n - k + 1]
        gm = _ref_matmul(g, m, n, n)
        coeffs[n - k] = -sum(gm[i][i] for i in range(n)) / k
    return coeffs


def _sign_changes(seq):
    signs = [x > 0 for x in seq if x != 0]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def _ref_inertia(g):
    """Descartes' rule of signs on the characteristic polynomial, exact for a
    real symmetric matrix (all roots real)."""
    c = _ref_charpoly(g)
    n_zero = next(k for k, x in enumerate(c) if x != 0)
    n_plus = _sign_changes(c)
    n_minus = _sign_changes([x if k % 2 == 0 else -x for k, x in enumerate(c)])
    return n_plus, n_minus, n_zero


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except LinAlgError as exc:
        return "error", " ".join(str(exc).split()[:2])


entries = st.one_of(st.just(Fraction(0)), fractions,
                    st.fractions(min_value=-300, max_value=300,
                                 max_denominator=97))


@st.composite
def matrices(draw, rows=None, cols=None):
    """Sparse rational matrices as (Fraction rows, column count), with 0 x k
    and k x 0 shapes, sometimes a zero row, a zero column or a row that is a
    combination of two others (rank deficiency)."""
    r = draw(st.integers(0, 6)) if rows is None else rows
    c = draw(st.integers(0, 6)) if cols is None else cols
    m = draw(st.lists(st.lists(entries, min_size=c, max_size=c),
                      min_size=r, max_size=r))
    if r >= 2 and draw(st.booleans()):
        i = draw(st.integers(0, r - 1))
        f, g = draw(fractions), draw(fractions)
        m[i] = [f * x + g * y for x, y in zip(m[i - 1], m[i - 2])]
    if r and draw(st.booleans()):
        m[draw(st.integers(0, r - 1))] = [Fraction(0)] * c
    if r and c and draw(st.booleans()):
        k = draw(st.integers(0, c - 1))
        for row in m:
            row[k] = Fraction(0)
    return m, c


@st.composite
def products(draw):
    r, k, c = (draw(st.integers(0, 6)) for _ in range(3))
    return draw(matrices(r, k)), draw(matrices(k, c))


@settings(max_examples=100, deadline=None)
@given(products())
def test_matmul_matches_fraction_reference(ab):
    (a, ca), (b, cb) = ab
    assert _val(matmul(_m(a, ca), _m(b, cb))) == \
        _ref(_ref_matmul(a, b, ca, cb), cb)


@settings(max_examples=30, deadline=None)
@given(matrices(), st.data())
def test_matmul_shape_mismatch_is_an_error(m, data):
    rows, c = m
    other, oc = data.draw(matrices(data.draw(st.integers(0, 6)
                                             .filter(lambda k: k != c))))
    with pytest.raises(LinAlgError):
        matmul(_m(rows, c), _m(other, oc))


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_rref_matches_fraction_reference(m):
    rows, c = m
    red, pivots = linalg.rref(_m(rows, c))
    ref_red, ref_pivots = _ref_rref(rows, c)
    assert (_val(red), pivots) == (_ref(ref_red, c), tuple(ref_pivots))
    assert rank(_m(rows, c)) == len(pivots)


@st.composite
def systems(draw):
    r, c, k = (draw(st.integers(0, 5)) for _ in range(3))
    a, _ = draw(matrices(r, c))
    if r and c and draw(st.booleans()):      # consistent right-hand sides
        b = _ref_matmul(a, draw(matrices(c, k))[0], c, k)
    else:
        b = draw(matrices(r, k))[0]
    return (a, c), (b, k)


@settings(max_examples=100, deadline=None)
@given(systems())
def test_solve_matches_fraction_reference(ab):
    (a, ca), (b, cb) = ab
    got = _outcome(linalg.solve, _m(a, ca), _m(b, cb))
    want = _outcome(_ref_solve, a, b, ca, cb)
    assert got[0] == want[0]
    assert got[1] == want[1] if got[0] == "error" else \
        _val(got[1]) == _ref(want[1], cb)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 5).flatmap(lambda n: matrices(n, n)))
def test_inverse_matches_fraction_reference(m):
    rows, n = m
    got = _outcome(inverse, _m(rows, n))
    eye = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    want = _outcome(_ref_solve, rows, eye, n, n)
    assert got[0] == want[0]
    if got[0] == "ok":
        assert _val(got[1]) == _ref(want[1], n)


@settings(max_examples=50, deadline=None)
@given(matrices())
def test_kernel_basis_matches_fraction_reference(m):
    rows, c = m
    assert _val(kernel_basis(_m(rows, c))) == _ref(*_ref_kernel(rows, c))


@settings(max_examples=50, deadline=None)
@given(matrices())
def test_column_space_matches_fraction_reference(m):
    rows, c = m
    assert _val(linalg.column_space(_m(rows, c))) == \
        _ref(*_ref_column_space(rows, c))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 6).flatmap(
    lambda r: st.tuples(matrices(r, None), matrices(r, None))))
def test_subspaces_match_fraction_reference(pair):
    (a, ca), (b, cb) = pair
    ma, mb = _m(a, ca), _m(b, cb)
    assert _val(linalg.subspace_intersection(ma, mb)) == \
        _ref(*_ref_intersection(a, b, ca, cb))
    both = [ra + rb for ra, rb in zip(a, b)]
    assert _val(linalg.subspace_sum(ma, mb)) == \
        _ref(*_ref_column_space(both, ca + cb))
    leq = len(_ref_rref(b, cb)[1]) == len(_ref_rref(both, ca + cb)[1])
    geq = len(_ref_rref(a, ca)[1]) == len(_ref_rref(both, ca + cb)[1])
    assert linalg.subspace_leq(ma, mb) == leq
    assert linalg.subspace_equal(ma, mb) == (leq and geq)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 6).flatmap(
    lambda r: st.lists(matrices(r, None), min_size=1, max_size=4)))
def test_stack_columns_matches_fraction_reference(parts):
    got = linalg.stack_columns(*(_m(rows, c) for rows, c in parts))
    rows = [sum((part[0][i] for part in parts), [])
            for i in range(len(parts[0][0]))]
    assert _val(got) == _ref(rows, sum(c for _, c in parts))


@settings(max_examples=50, deadline=None)
@given(matrices(), st.data())
def test_shape_operations_match_fraction_reference(m, data):
    rows, c = m
    a = _m(rows, c)
    assert _val(linalg.transpose(a)) == _ref(_ref_transpose(rows, c), len(rows))
    f = data.draw(fractions)
    assert _val(linalg.scale(a, f)) == _ref([[f * x for x in r] for r in rows], c)
    other, _ = data.draw(matrices(len(rows), c))
    assert _val(linalg.add(a, _m(other, c))) == \
        _ref([[x + y for x, y in zip(r, s)] for r, s in zip(rows, other)], c)
    pick_r = data.draw(st.lists(st.integers(0, len(rows) - 1), max_size=4)) \
        if rows else []
    pick_c = data.draw(st.lists(st.integers(0, c - 1), max_size=4)) if c else []
    assert _val(linalg.submatrix(a, pick_r, pick_c)) == \
        _ref(_ref_columns([rows[i] for i in pick_r], pick_c), len(pick_c))
    assert linalg.is_zero_matrix(a) == all(x == 0 for r in rows for x in r)
    # the Fraction read path
    assert len(a) == len(rows) and list(a) == rows
    assert all(a[i] == rows[i] for i in range(len(rows)))
    assert all(a.entry(i, j) == rows[i][j]
               for i in range(len(rows)) for j in range(c))


@settings(max_examples=50, deadline=None)
@given(matrices(), st.integers(1, 50), st.booleans())
def test_scaled_numerators_compare_equal(m, k, negate):
    # one rational matrix written over different denominators is one value
    rows, c = m
    a = _m(rows, c)
    k = -k if negate else k
    b = Matrix([[k * x for x in r] for r in a.rows], k * a.den, c)
    assert b == a and hash(b) == hash(a) and _is_canonical(b)
    assert (b.rows, b.den) == (a.rows, a.den)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.data())
def test_assemble_matches_fraction_reference(nrows, ncols, data):
    ref = [[Fraction(0)] * ncols for _ in range(nrows)]
    blocks = []
    for _ in range(data.draw(st.integers(0, 3))):
        r0 = data.draw(st.integers(0, nrows))
        c0 = data.draw(st.integers(0, ncols))
        block, bc = data.draw(matrices(data.draw(st.integers(0, nrows - r0)),
                                       data.draw(st.integers(0, ncols - c0))))
        sign = data.draw(st.sampled_from([1, -1]))
        blocks.append((r0, c0, _m(block, bc), sign))
        for r, row in enumerate(block):
            for cc, x in enumerate(row):
                ref[r0 + r][c0 + cc] += sign * x
    assert _val(linalg.assemble(nrows, ncols, blocks)) == _ref(ref, ncols)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 4).flatmap(lambda n: matrices(n, n)))
def test_definiteness_and_inertia_match_fraction_reference(m):
    rows, n = m
    g = [[rows[i][j] + rows[j][i] for j in range(n)] for i in range(n)]
    s = symmetric_signature(_m(g, n))
    assert (s.n_plus, s.n_minus, s.n_zero) == _ref_inertia(g)
    # Sylvester: every leading principal minor positive
    minors = [_ref_det([row[:k] for row in g[:k]]) for k in range(1, n + 1)]
    assert is_positive_definite(_m(g, n)) == all(d > 0 for d in minors)


def _ref_det(m):
    a = [list(row) for row in m]
    det = Fraction(1)
    for c in range(len(a)):
        piv = next((i for i in range(c, len(a)) if a[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        for i in range(c + 1, len(a)):
            f = a[i][c] / a[c][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return det


@st.composite
def symmetric_integer_matrices(draw):
    """Symmetric matrices up to 9x9 as (integer rows, denominator), in
    shuffled order: a diagonal block of either sign beside a block with a
    mostly zero diagonal and often sparse rows, so that hyperbolic blocks
    come up, also after negative pivots; and sometimes rank deficiency made
    by a congruence P^T g P with P of fewer rows than columns."""
    k = draw(st.integers(0, 9))
    d = draw(st.integers(0, k))
    small = st.integers(-4, 4)
    diag = st.sampled_from([0] * 3 + [-3, -1, 1, 2]) if draw(st.booleans()) \
        else st.just(0)
    sparse = draw(st.integers(0, 3))
    g = [[0] * k for _ in range(k)]
    for i in range(k):
        g[i][i] = draw(small if i < d else diag)
        for j in range(d, i):
            if not draw(st.integers(0, sparse)):
                g[i][j] = g[j][i] = draw(small)
    perm = draw(st.permutations(range(k)))
    g = [[g[u][v] for v in perm] for u in perm]
    if k and not draw(st.integers(0, 3)):
        n = draw(st.integers(k, 9))
        p = draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                          min_size=k, max_size=k))
        gp = [[sum(g[i][t] * p[t][v] for t in range(k)) for v in range(n)]
              for i in range(k)]
        g = [[sum(p[t][u] * gp[t][v] for t in range(k)) for v in range(n)]
             for u in range(n)]
    return g, draw(st.integers(1, 12))


@settings(max_examples=150, deadline=None)
@given(symmetric_integer_matrices())
def test_integer_inertia_matches_fraction_reference(m):
    rows, den = m
    g = Matrix(rows, den, len(rows))
    ref = [[Fraction(x, den) for x in row] for row in rows]
    s = symmetric_signature(g)
    assert (s.n_plus, s.n_minus, s.n_zero) == _ref_inertia(ref)
    minors = [_ref_det([row[:k] for row in ref[:k]])
              for k in range(1, len(ref) + 1)]
    assert is_positive_definite(g) == all(d > 0 for d in minors)


@pytest.mark.parametrize("rows,inertia", [
    # the diagonal is all zero only after the first pivot: the rest is the
    # hyperbolic block [[0, 1], [1, 0]]
    ([[1, 1, 0], [1, 1, 1], [0, 1, 0]], (2, 1, 0)),
    # the Schur complement of the first pivot is [[0, 0], [0, 1]]
    ([[1, 1, 1], [1, 1, 1], [1, 1, 2]], (2, 0, 1)),
    # the Schur complement of the first hyperbolic block is zero
    ([[0, 1, 1, 0], [1, 0, 0, 1], [1, 0, 0, 1], [0, 1, 1, 0]], (1, 1, 2)),
    # a hyperbolic block whose Schur complement is another one
    ([[0, -2, 0, 1], [-2, 0, 3, 0], [0, 3, 0, 0], [1, 0, 0, 0]], (2, 2, 0)),
    # a negative hyperbolic entry, then a negative pivot and a zero row
    ([[0, -2, 1, 0], [-2, 0, -1, 0], [1, -1, 0, 0], [0, 0, 0, 0]], (1, 2, 1)),
    # a negative hyperbolic entry a_10 with a row (2) that meets one side of
    # the block only; the rest [[0, -1], [-1, -8]] has a negative pivot
    ([[0, -1, -1, -2], [-1, 0, 0, 2], [-1, 0, 0, 1], [-2, 2, 1, 0]],
     (2, 2, 0)),
])
def test_inertia_after_fill_and_singular_schur_complements(rows, inertia):
    s = symmetric_signature(mat(rows))
    assert (s.n_plus, s.n_minus, s.n_zero) == inertia
    assert inertia == _ref_inertia([[Fraction(x) for x in r] for r in rows])


@settings(max_examples=150, deadline=None)
@given(symmetric_integer_matrices())
def test_pivot_order_matches_the_scan_route(m):
    rows, den = m
    g = Matrix(rows, den, len(rows))
    assert list(linalg._pivot_signs(g)) == pivot_signs_by_scans(g)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_omega_gram_pivot_order_matches_the_scan_route(q):
    ring = build_ring(blowup(3, q))
    ctx = make_context(ring, omega_form(3, q).vector(ring))
    for j in (0, 1):
        g = lefschetz_pairing_gram(ctx, j)
        assert list(linalg._pivot_signs(g)) == pivot_signs_by_scans(g)


@pytest.mark.parametrize("q", [2, 3])
def test_omega_gram_inertia_survives_symmetric_permutations(q):
    # Q_0 and Q_1 of omega on B^3/F_q in seeded orders P G P^T; by
    # Hodge-Riemann Q_0 is positive and Q_1 has one negative direction, L P_0
    ring = build_ring(blowup(3, q))
    ctx = make_context(ring, omega_form(3, q).vector(ring))
    rng = random.Random(q)
    for j, inertia in ((0, (1, 0, 0)), (1, (len(ring.basis[1]) - 1, 1, 0))):
        g = lefschetz_pairing_gram(ctx, j)
        for _ in range(3):
            perm = rng.sample(range(g.nrows), g.nrows)
            s = symmetric_signature(Matrix(
                [[g.rows[u][v] for v in perm] for u in perm], g.den, g.ncols))
            assert (s.n_plus, s.n_minus, s.n_zero) == inertia, (j, perm)


@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
def test_empty_shapes_are_exact(shape):
    r, c = shape
    z = linalg.zeros(r, c)
    assert z.shape == shape and len(z) == r and list(z) == [[]] * r
    assert linalg.transpose(z).shape == (c, r)
    assert linalg.column_space(z).shape == (r, 0)
    assert kernel_basis(z) == identity(c)
    assert rank(z) == 0 and linalg.rref(z)[1] == ()
    assert matmul(z, linalg.zeros(c, 2)) == linalg.zeros(r, 2)
    assert matmul(linalg.zeros(2, r), z) == linalg.zeros(2, c)
    assert linalg.matvec(z, [Fraction(1)] * c) == [Fraction(0)] * r
    assert linalg.stack_columns(z, linalg.zeros(r, 1)).shape == (r, c + 1)
    assert linalg.subspace_intersection(z, linalg.zeros(r, 2)).shape == (r, 0)
    assert linalg.solve(linalg.zeros(r, 0), z).shape == (0, c)
    assert linalg.is_zero_matrix(z)
    with pytest.raises(LinAlgError):
        matmul(z, linalg.zeros(c + 1, 1))


# -- oracle: the sparse row elimination behind rank --------------------------

@st.composite
def sparse_matrices(draw):
    """Up to 10x10, about one entry in four nonzero, with the zero rows, zero
    columns and dependent rows of `matrices`."""
    r, c = draw(st.integers(0, 10)), draw(st.integers(0, 10))
    m, _ = draw(matrices(r, c))
    for row in m:
        for k in range(c):
            if draw(st.integers(0, 3)):
                row[k] = Fraction(0)
    return m, c


@settings(max_examples=100, deadline=None)
@given(st.one_of(matrices(), sparse_matrices()))
def test_rank_matches_fraction_reference(m):
    rows, c = m
    assert rank(_m(rows, c)) == len(_ref_rref(rows, c)[1])


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 6).flatmap(
    lambda k: st.tuples(matrices(None, k), matrices(1, k))))
def test_matvec_matches_fraction_product(pair):
    (a, c), ([v], _) = pair
    got = linalg.matvec(_m(a, c), v)
    assert got == [sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in a]
    assert all(type(x) is Fraction for x in got)
    with pytest.raises(LinAlgError):
        linalg.matvec(_m(a, c), v + [Fraction(1)])


# -- the echelon memo ---------------------------------------------------------

def _count_eliminations(monkeypatch):
    """Record every elimination behind `rref` and `rank` by its rows: each
    runs `_forward` once."""
    calls = []
    real_forward = linalg._forward

    def forward(rows):
        calls.append(rows)
        return real_forward(rows)

    monkeypatch.setattr(linalg, "_forward", forward)
    return calls


def test_a_matrix_is_eliminated_once(monkeypatch):
    calls = _count_eliminations(monkeypatch)
    a = mat([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    first = (linalg.rref(a), rank(a), kernel_basis(a), linalg.column_space(a))
    assert len(calls) == 1
    assert (linalg.rref(a), rank(a), kernel_basis(a),
            linalg.column_space(a)) == first
    assert len(calls) == 1 and first[1] == 2
    assert type(first[0][1]) is tuple and first[0][1] == (0, 1)
    # rank first: one sparse elimination, kept; a later rref still eliminates
    b = mat([[1, 1], [1, 1]])
    assert rank(b) == rank(b) == 1 and len(calls) == 2
    assert linalg.rref(b)[1] == (0,) and rank(b) == 1 and len(calls) == 3


def test_subspace_questions_reuse_the_memo(monkeypatch):
    calls = _count_eliminations(monkeypatch)
    a = mat([[1, 0], [0, 1], [1, 1]])
    span = linalg.column_space(a)              # one rref of a
    ker = kernel_basis(mat([[1, 1, -1]]))      # one rref
    assert len(calls) == 2
    # results of column_space and kernel_basis carry their rank
    assert rank(span) == rank(ker) == 2 and len(calls) == 2
    # one new elimination, of [span | ker], per question
    assert linalg.subspace_equal(span, ker) and len(calls) == 3
    assert linalg.subspace_equal(span, ker) and len(calls) == 4
    assert calls[2:] == [linalg.stack_columns(span, ker).rows] * 2
    assert linalg.subspace_leq(span, ker) and len(calls) == 5


def test_hodge_check_sweeps_each_lefschetz_gram_once(monkeypatch):
    # hard Lefschetz and Hodge-Riemann read one inertia per degree; no power
    # L^(n-2j) is eliminated for its rank
    ring = build_ring(blowup(3, 2))
    ctx = make_context(ring, omega_form(3, 2).vector(ring))
    calls = _count_eliminations(monkeypatch)
    sweeps = []
    real_pivot_signs = linalg._pivot_signs

    def pivot_signs(g):
        sweeps.append(g)
        return real_pivot_signs(g)

    monkeypatch.setattr(linalg, "_pivot_signs", pivot_signs)
    assert check_hard_lefschetz(ctx)[0] and check_hodge_standard(ctx)[0]
    assert len(sweeps) == 2 and all(
        s is lefschetz_pairing_gram(ctx, j) for j, s in enumerate(sweeps))
    powers = [lefschetz_power(ctx, j, 3 - 2 * j) for j in (0, 1)]
    assert not [c for c in calls for p in powers if c is p or c is p.rows]


@settings(max_examples=50, deadline=None)
@given(matrices())
def test_memo_answers_as_a_fresh_elimination(m):
    rows, c = m
    a = _m(rows, c)
    red, pivots = linalg.rref(a)
    assert type(pivots) is tuple
    # a memoized answer equals that of an equal matrix without a memo
    fresh = _m(rows, c)
    assert rank(fresh) == rank(a) == len(pivots)
    assert linalg.rref(_m(rows, c)) == (red, pivots)
    assert linalg.rref(red) == (red, pivots)
    # the ranks marked on kernel_basis and column_space results are true
    for got in (kernel_basis(a), linalg.column_space(a)):
        assert rank(got) == len(linalg._forward(got.rows)) == got.ncols


@st.composite
def sparse_sign_matrices(draw):
    """Sparse +-1 integer matrices shaped like the level maps of the lemma
    suite, as (Fraction rows, column count): wide or tall, about one entry in
    five nonzero, sometimes with a zero row, a repeated row or a row that is
    the sum or difference of two others."""
    short, long = draw(st.integers(0, 8)), draw(st.integers(0, 24))
    r, c = (short, long) if draw(st.booleans()) else (long, short)
    sign = st.sampled_from([0, 0, 0, 0, 0, 0, 0, 0, 1, -1])
    m = [[Fraction(x) for x in row] for row in draw(
        st.lists(st.lists(sign, min_size=c, max_size=c),
                 min_size=r, max_size=r))]
    if r >= 2 and draw(st.booleans()):
        i, j = draw(st.integers(0, r - 1)), draw(st.integers(0, r - 1))
        m[i] = list(m[j])
    if r >= 3 and draw(st.booleans()):
        i, j, k = (draw(st.integers(0, r - 1)) for _ in range(3))
        e = draw(st.sampled_from([1, -1]))
        m[i] = [x + e * y for x, y in zip(m[j], m[k])]
    if r and draw(st.booleans()):
        m[draw(st.integers(0, r - 1))] = [Fraction(0)] * c
    return m, c


@settings(max_examples=150, deadline=None)
@given(sparse_sign_matrices())
def test_sparse_elimination_matches_fraction_reference(m):
    rows, c = m
    red, pivots = linalg.rref(_m(rows, c))
    ref_red, ref_pivots = _ref_rref(rows, c)
    assert (_val(red), pivots) == (_ref(ref_red, c), tuple(ref_pivots))
    # rank by the forward elimination alone, on fresh copies without a memo
    assert rank(_m(rows, c)) == len(pivots) == len(linalg._forward(
        _m(rows, c).rows))
    assert rank(linalg.transpose(_m(rows, c))) == len(pivots)
