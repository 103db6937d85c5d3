from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from purity import linalg
from purity.linalg import (LinAlgError, identity, inverse, is_positive_definite,
                           mat, matmul, rank, rank_kernel, symmetric_signature)
from purity.weightss import _quotient_basis

fractions = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def square(n):
    return st.lists(st.lists(fractions, min_size=n, max_size=n),
                    min_size=n, max_size=n)


def test_rank_kernel_examples():
    r, k = rank_kernel(identity(3))
    assert r == 3 and k == []
    r, k = rank_kernel(mat([[0, 0], [0, 0]]))
    assert r == 0 and len(k) == 2
    r, k = rank_kernel(mat([[1, 2], [2, 4]]))
    assert r == 1 and len(k) == 1
    v = k[0]
    assert v[0] * 1 + v[1] * 2 == 0   # proportional to (2, -1)


def test_signature_examples():
    s = symmetric_signature(mat([[1, 0, 0], [0, -1, 0], [0, 0, 0]]))
    assert (s.n_plus, s.n_minus, s.n_zero) == (1, 1, 1) and s.signature == 0
    s = symmetric_signature(mat([[2, 0], [0, 3]]))
    assert (s.n_plus, s.n_minus, s.n_zero) == (2, 0, 0)
    s = symmetric_signature(mat([[0, 1], [1, 0]]))
    assert (s.n_plus, s.n_minus, s.n_zero) == (1, 1, 0)


def test_positive_definite_examples():
    assert is_positive_definite(mat([[2, 1], [1, 2]]))
    assert not is_positive_definite(mat([[1, 2], [2, 1]]))
    assert is_positive_definite([])
    with pytest.raises(LinAlgError):
        is_positive_definite(mat([[1, 2], [0, 1]]))


@settings(max_examples=60, deadline=None)
@given(square(3))
def test_kernel_vectors_are_exact(rows):
    m = mat(rows)
    r, kernel = rank_kernel(m)
    assert r + len(kernel) == 3
    for v in kernel:
        assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in m)


@settings(max_examples=40, deadline=None)
@given(square(3), square(3))
def test_signature_invariant_under_congruence(g_rows, p_rows):
    g = mat(g_rows)
    g = [[g[i][j] + g[j][i] for j in range(3)] for i in range(3)]  # symmetrize
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
    g = [[g[i][j] + g[j][i] for j in range(3)] for i in range(3)]
    s = symmetric_signature(g)
    assert is_positive_definite(g) == ((s.n_plus, s.n_minus, s.n_zero) == (3, 0, 0))


def test_solve_and_inverse():
    a = mat([[2, 1], [1, 1]])
    ainv = inverse(a)
    assert matmul(a, ainv) == identity(2)
    with pytest.raises(LinAlgError):
        inverse(mat([[1, 2], [2, 4]]))


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


# -- oracle: the integer kernel against plain-Fraction reference code ---------

def _ref_matmul(a, b):
    """Row-by-column product on Fractions."""
    if linalg.shape(a)[1] != linalg.shape(b)[0]:
        raise LinAlgError("shape mismatch")
    bt = list(zip(*b)) if b else []
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in bt]
            for row in a]


def _ref_rref(m):
    """Gauss-Jordan on Fractions, dividing the pivot row first."""
    rows, cols = linalg.shape(m)
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


def _ref_solve(a, b_cols):
    ca = linalg.shape(a)[1]
    cb = linalg.shape(b_cols)[1]
    red, pivots = _ref_rref([list(ra) + list(rb) for ra, rb in zip(a, b_cols)])
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


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except LinAlgError as exc:
        return "error", " ".join(str(exc).split()[:2])


def _all_fractions(m):
    return all(type(x) is Fraction for row in m for x in row)


entries = st.one_of(st.just(Fraction(0)), fractions,
                    st.fractions(min_value=-300, max_value=300,
                                 max_denominator=97))


@st.composite
def matrices(draw, rows=None, cols=None):
    """Sparse rational matrices, sometimes with a zero row, a zero column or a
    row that is a combination of two others (rank deficiency)."""
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
    return m


@st.composite
def products(draw):
    r, k, c = (draw(st.integers(0, 6)) for _ in range(3))
    return draw(matrices(r, k)), draw(matrices(k, c))


@settings(max_examples=100, deadline=None)
@given(products())
def test_matmul_matches_fraction_reference(ab):
    a, b = ab
    got = _outcome(matmul, a, b)
    assert got == _outcome(_ref_matmul, a, b)
    assert got[0] == "error" or _all_fractions(got[1])


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_rref_matches_fraction_reference(m):
    red, pivots = linalg.rref(m)
    assert (red, pivots) == _ref_rref(m)
    assert _all_fractions(red)
    assert rank(m) == len(pivots)


@st.composite
def systems(draw):
    r, c, k = (draw(st.integers(0, 5)) for _ in range(3))
    a = draw(matrices(r, c))
    if r and c and draw(st.booleans()):      # consistent right-hand sides
        b = _ref_matmul(a, draw(matrices(c, k)))
    else:
        b = draw(matrices(r, k))
    return a, b


@settings(max_examples=100, deadline=None)
@given(systems())
def test_solve_matches_fraction_reference(ab):
    a, b = ab
    got = _outcome(linalg.solve, a, b)
    assert got == _outcome(_ref_solve, a, b)
    assert got[0] == "error" or _all_fractions(got[1])


def _greedy_quotient_columns(cycles, boundaries):
    """Keep a cycle column when it raises the rank of the columns kept so far
    together with the boundaries."""
    rows = len(cycles)
    chosen = [[] for _ in range(rows)]
    current = rank(boundaries) if linalg.shape(boundaries)[1] else 0
    for c in range(linalg.shape(cycles)[1]):
        col = [[cycles[r][c]] for r in range(rows)]
        if rank(linalg.stack_columns(boundaries, chosen, col)) > current:
            for r in range(rows):
                chosen[r].append(cycles[r][c])
            current += 1
    return chosen


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda r: st.tuples(matrices(r, None), matrices(r, None))))
def test_quotient_basis_keeps_the_greedy_columns(pair):
    cycles, boundaries = pair
    assert _quotient_basis(cycles, boundaries) == \
        _greedy_quotient_columns(cycles, boundaries)
