import itertools
import random
from fractions import Fraction

import pytest

from purity import geometry, linalg
from purity.cohomology import (GEN_H, CohomologyError, ResourceGuardError,
                               _chain_monomials, _support_is_chain,
                               betti_numbers, blowup, build_ring,
                               check_resource_guard, gen_e, generators,
                               hyperplane_relation, intersection_number,
                               kunneth, monomial, normalize_divisor, proj,
                               product, restrict_to_divisor)
from purity.fields import field_spec
from purity.geometry import LinearSubvariety, ambient_geometry


F2 = field_spec(2)
F3 = field_spec(3)


def geom(n, field=F2):
    return ambient_geometry(n, field)


# -- hyperplane relation -----------------------------------------------------

def test_hyperplane_relation_on_surface():
    spec = blowup(2, 2)
    g = geom(2)
    line = g.subvarieties(1)[0]
    cls = hyperplane_relation(spec, line)
    pts_on = [p for p in g.subvarieties(0) if g.contains(line, p)]
    assert cls[GEN_H] == 1
    assert len(pts_on) == 3
    for p in pts_on:
        assert cls[gen_e(p)] == -1
    assert len(cls) == 4


def test_hyperplane_relation_sum_over_all_lines():
    # summing D_V over the 7 lines gives 7h - 3 sum(e_P): each point lies on 3
    spec = blowup(2, 2)
    g = geom(2)
    total = {}
    for line in g.subvarieties(1):
        for k, c in hyperplane_relation(spec, line).items():
            total[k] = total.get(k, 0) + c
    assert total[GEN_H] == 7
    for p in g.subvarieties(0):
        assert total[gen_e(p)] == -3


def test_normalize_rejects_foreign_generators():
    spec = blowup(2, 2)
    with pytest.raises(CohomologyError):
        normalize_divisor(spec, {("e", 5, ()): Fraction(1)})


# -- intersection numbers ------------------------------------------------------

def test_intersection_examples_surface():
    spec = blowup(2, 2)
    pts = geom(2).subvarieties(0)
    h = GEN_H
    assert intersection_number(spec, monomial([h, h])) == 1
    assert intersection_number(spec, monomial([gen_e(pts[0])] * 2)) == -1
    assert intersection_number(spec, monomial([gen_e(pts[0]), gen_e(pts[1])])) == 0
    assert intersection_number(spec, monomial([h, gen_e(pts[0])])) == 0


def test_intersection_examples_threefold():
    # frozen from the classical blow-up formulas: the exceptional over a point
    # is a plane with O(-1), the one over a line is P1 x P1 with O(-2,-1)
    spec = blowup(3, 2)
    g = geom(3)
    P = g.subvarieties(0)[0]
    L = next(l for l in g.subvarieties(1) if g.contains(l, P))
    e_p, e_l, h = gen_e(P), gen_e(L), GEN_H
    assert intersection_number(spec, monomial([h] * 3)) == 1
    assert intersection_number(spec, monomial([e_p] * 3)) == 1
    assert intersection_number(spec, monomial([e_l] * 3)) == 4
    assert intersection_number(spec, monomial([e_l, e_l, h])) == -1
    assert intersection_number(spec, monomial([e_p, e_l, e_l])) == -1
    assert intersection_number(spec, monomial([e_p, e_l, h])) == 0
    assert intersection_number(spec, monomial([e_p, e_p, h])) == 0
    M = next(l for l in g.subvarieties(1) if not g.comparable(l, L))
    assert intersection_number(spec, monomial([e_l, gen_e(M), h])) == 0


def test_descent_order_independence():
    spec = blowup(3, 2)
    ring = build_ring(spec)
    rng = random.Random(20240811)
    candidates = ring.basis[1]
    count = 0
    for _ in range(200):
        mono = monomial(sum((rng.choice(candidates) for _ in range(3)), ()))
        reference = intersection_number(spec, mono)
        shuffled = intersection_number(spec, mono,
                                       chooser=lambda opts: rng.choice(opts))
        assert shuffled == reference
        count += 1
    assert count == 200


def test_projective_linear_equivariance():
    # relabelling the centers by a linear automorphism preserves numbers
    from purity.fields import get_field
    from purity.geometry import make_subvariety
    spec = blowup(2, 2)
    g = geom(2)
    fq = get_field(F2)
    mat = [[1, 1, 0], [0, 1, 0], [1, 0, 1]]   # invertible over F_2

    def act(v):
        rows = [[_dot(fq, row, [mat[k][j] for k in range(3)])
                 for j in range(3)] for row in v.basis]
        return make_subvariety(2, rows, F2)

    def _dot(f, u, w):
        s = 0
        for x, y in zip(u, w):
            s = f.add(s, f.mul(x, y))
        return s

    rng = random.Random(5)
    pts = g.subvarieties(0)
    for _ in range(20):
        chosen = [rng.choice(pts) for _ in range(2)]
        before = intersection_number(
            spec, monomial([gen_e(v) for v in chosen]))
        after = intersection_number(
            spec, monomial([gen_e(act(v)) for v in chosen]))
        assert before == after


# -- Betti numbers and ring construction ------------------------------------------

def test_betti_numbers():
    assert betti_numbers(blowup(1, 2)) == [1, 1]
    assert betti_numbers(blowup(2, 2)) == [1, 8, 1]
    assert betti_numbers(blowup(2, 3)) == [1, 14, 1]
    assert betti_numbers(blowup(3, 2)) == [1, 51, 51, 1]
    assert betti_numbers(proj(4)) == [1, 1, 1, 1, 1]
    assert betti_numbers(product(blowup(1, 2), blowup(2, 2))) == [1, 9, 9, 1]


@pytest.mark.parametrize("spec,dims", [
    (proj(3), [1, 1, 1, 1]),
    (blowup(2, 2), [1, 8, 1]),
    (blowup(2, 3), [1, 14, 1]),
    (product(proj(1), proj(1)), [1, 2, 1]),
])
def test_ring_dims(spec, dims):
    ring = build_ring(spec)
    assert ring.dims() == dims
    for j in range(ring.n + 1):
        assert linalg.rank(ring.pairing[j]) == dims[j]


def test_ring_b3_poincare_and_betti():
    ring = build_ring(blowup(3, 2))
    assert ring.dims() == [1, 51, 51, 1]
    for j in range(4):
        assert linalg.rank(ring.pairing[j]) == ring.dims()[j]


def test_product_middle_pairing_hyperbolic():
    ring = build_ring(product(proj(1), proj(1)))
    assert ring.pairing[1] == linalg.mat([[0, 1], [1, 0]])


def test_multiplication_is_associative_on_samples():
    ring = build_ring(blowup(3, 2))
    rng = random.Random(3)
    nb = len(ring.basis[1])
    for _ in range(25):
        a, b, c = (rng.randrange(nb) for _ in range(3))
        va = ring.zero(1); va[a] = Fraction(1)
        vb = ring.zero(1); vb[b] = Fraction(1)
        vc = ring.zero(1); vc[c] = Fraction(1)
        left = ring.multiply(2, ring.multiply(1, va, 1, vb), 1, vc)
        right = ring.multiply(1, va, 2, ring.multiply(1, vb, 1, vc))
        assert left == right


def test_resource_guard():
    with pytest.raises(ResourceGuardError):
        check_resource_guard(blowup(5, 2))
    with pytest.raises(ResourceGuardError):
        check_resource_guard(blowup(2, 8))
    check_resource_guard(blowup(3, 2))


def test_guard_env_override(monkeypatch):
    monkeypatch.setenv("PURITY_MAX_DIM", "2")
    with pytest.raises(ResourceGuardError):
        check_resource_guard(blowup(3, 2))


# -- restriction --------------------------------------------------------------------

def test_restriction_examples_on_surface():
    ring = build_ring(blowup(2, 2))
    g = geom(2)
    P = g.subvarieties(0)[0]
    target, mats = restrict_to_divisor(ring, P)
    # h restricts to zero (the first factor is a point)
    h_idx = ring.index[1][(GEN_H,)]
    col = [mats[1][r][h_idx] for r in range(len(mats[1]))]
    assert all(x == 0 for x in col)
    # a line through P restricts to the second-factor point class
    line = next(l for l in g.subvarieties(1) if g.contains(l, P))
    vec = ring.divisor_vector(hyperplane_relation(ring.spec, line))
    out = linalg.matvec(mats[1], vec)
    assert any(x != 0 for x in out)
    # an incomparable center restricts to zero
    far = next(p for p in g.subvarieties(0) if p != P)
    col2 = [mats[1][r][ring.index[1][(gen_e(far),)]] for r in range(len(mats[1]))]
    assert all(x == 0 for x in col2)


def test_restriction_is_ring_homomorphism():
    ring = build_ring(blowup(2, 2))
    g = geom(2)
    for V in [g.subvarieties(0)[0], g.subvarieties(1)[0]]:
        target, mats = restrict_to_divisor(ring, V)
        nb = len(ring.basis[1])
        for a in range(nb):
            va = ring.zero(1); va[a] = Fraction(1)
            ra = linalg.matvec(mats[1], va)
            for b in range(a, nb):
                vb = ring.zero(1); vb[b] = Fraction(1)
                lhs = linalg.matvec(mats[2], ring.multiply(1, va, 1, vb))
                rhs = target.multiply(1, ra, 1, linalg.matvec(mats[1], vb))
                assert lhs == rhs


def test_restriction_kernel_is_zero_below_top():
    # a degree-1 class restricting to zero on every divisor is zero
    for (n, q) in [(2, 2), (3, 2)]:
        ring = build_ring(blowup(n, q))
        g = ambient_geometry(n, field_spec(q))
        rows = []
        for d in range(n):
            for V in g.subvarieties(d):
                _, mats = restrict_to_divisor(ring, V)
                rows.extend(mats[1])
        assert linalg.kernel_basis(rows) == []


def test_kunneth_dims_and_factors():
    r1 = build_ring(blowup(1, 2))
    r2 = build_ring(blowup(2, 2))
    r = kunneth(r1, r2)
    assert r.dims() == [1, 9, 9, 1]
    assert len(r.factors) == 2


def test_ring_serialization_roundtrip_shape():
    ring = build_ring(blowup(2, 2))
    data = ring.to_json()
    assert data["dims"] == [1, 8, 1]
    assert len(data["basis"][1]) == 8
    assert data["pairing"]["1"][0][0] == "1"


# -- oracles for the incidence masks and the ring-basis pick -------------------

def _pairwise_comparable(spec, mono):
    """The centers of mono's exceptional factors, rebuilt from their keys, are
    pairwise comparable under F_q containment."""
    centers = [LinearSubvariety(spec.n, g[1], g[2], spec.field)
               for g in mono if g != GEN_H]
    return all(geometry.comparable(a, b)
               for a, b in itertools.combinations(centers, 2))


@pytest.mark.parametrize("n,q", [(2, 3), (3, 2)])
def test_mask_chain_test_matches_pairwise_comparable(n, q):
    spec = blowup(n, q)
    gens = generators(spec)
    for d in range(n + 1):
        every = list(itertools.combinations_with_replacement(gens, d))
        chains = [m for m in every if _pairwise_comparable(spec, m)]
        assert [m for m in every if _support_is_chain(spec, m)] == chains
        assert _chain_monomials(spec, d) == chains


def _fraction_greedy_rows(matrix, target_rank):
    """The ring-basis pick on Fractions: row i is picked when it is
    independent of the rows picked before it."""
    chosen = []
    reduced = []   # rref rows of the chosen set
    for i, row in enumerate(matrix):
        vec = [Fraction(x) for x in row]
        for rrow, piv in reduced:
            if vec[piv]:
                f = vec[piv]
                vec = [x - f * y for x, y in zip(vec, rrow)]
        piv = next((c for c, x in enumerate(vec) if x), None)
        if piv is None:
            continue
        inv = 1 / vec[piv]
        reduced.append(([x * inv for x in vec], piv))
        chosen.append(i)
        if len(chosen) == target_rank:
            break
    return chosen


@pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (3, 2)])
def test_basis_pick_matches_fraction_greedy(n, q):
    spec = blowup(n, q)
    ring = build_ring(spec)
    expected = betti_numbers(spec)
    for j in range(n + 1):
        rows, cols = _chain_monomials(spec, j), _chain_monomials(spec, n - j)
        full = [[intersection_number(spec, monomial(r + c)) for c in cols]
                for r in rows]
        picked = linalg.independent_rows(full, expected[j])
        assert picked == _fraction_greedy_rows(full, expected[j])
        assert [rows[i] for i in picked] == ring.basis[j]
