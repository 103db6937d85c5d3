import collections
import functools
import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from purity import cohomology, linalg
from purity.cohomology import (GEN_H, CohomologyError, ResourceGuardError,
                               betti_numbers, blowup, build_ring, chain_basis,
                               check_resource_guard, gen_e, generators,
                               hyperplane_relation,
                               intersection_number, monomial, proj, product,
                               restrict_to_divisor)
from purity.fixtures import two_planes
from purity.geometry import ambient_geometry
from purity.weightss import explicit_surface_ring
from oracle import (comparable, cup_matrix, divisor_vector, merge, multiply,
                    normalize_divisor, product_pairing, tensor_coords,
                    top_number)


def geom(n, q=2):
    return ambient_geometry(n, q)


def _support_is_chain(spec, mono):
    """The mask test of `intersection_number`: each center of mono lies in
    the comparable mask of all of them."""
    centers, comparable, _ = cohomology._support_keys(spec, mono)
    return not centers & ~comparable


def _pairwise_comparable(spec, mono):
    """The centers of mono's exceptional factors, read from the geometry by
    their numbers, are pairwise comparable under F_q containment."""
    proper = geom(spec.n, spec.q).proper
    centers = [proper[g] for g in mono if g != GEN_H]
    return all(comparable(a, b)
               for a, b in itertools.combinations(centers, 2))


@functools.lru_cache(maxsize=None)
def _chain_candidates(spec, degree):
    """Every degree-d monomial in the generators whose centers are pairwise
    comparable, in `combinations_with_replacement` order."""
    return [m for m in itertools.combinations_with_replacement(
        generators(spec), degree) if _pairwise_comparable(spec, m)]


# -- hyperplane relation -----------------------------------------------------

def test_hyperplane_relation_on_surface():
    spec = blowup(2, 2)
    g = geom(2)
    line = g.by_dim[1][0]
    cls = hyperplane_relation(spec, line)
    pts_on = [p for p in range(len(g.by_dim[0]))
              if g.below[gen_e(line)] >> p & 1]
    assert cls[GEN_H] == 1
    assert len(pts_on) == 3
    for p in pts_on:
        assert cls[p] == -1
    assert len(cls) == 4


def test_hyperplane_relation_sum_over_all_lines():
    # summing D_V over the 7 lines gives 7h - 3 sum(e_P): each point lies on 3
    spec = blowup(2, 2)
    g = geom(2)
    total = {}
    for line in g.by_dim[1]:
        for k, c in hyperplane_relation(spec, line).items():
            total[k] = total.get(k, 0) + c
    assert total[GEN_H] == 7
    for p in g.by_dim[0]:
        assert total[gen_e(p)] == -3


@pytest.mark.parametrize("n,q", [(1, 2), (1, 3), (2, 2)])
def test_hyperplane_relation_on_projective_space(n, q):
    # every hyperplane of P^n has the class h
    for H in geom(n, q).by_dim[n - 1]:
        assert hyperplane_relation(proj(n), H) == {GEN_H: 1}


@pytest.mark.parametrize("spec", [proj(2), blowup(2, 2)], ids=["P^2", "B^2"])
def test_hyperplane_relation_refuses_a_foreign_subvariety(spec):
    with pytest.raises(CohomologyError, match="needs dim V = n-1"):
        hyperplane_relation(spec, geom(2).by_dim[0][0])
    with pytest.raises(CohomologyError, match=r"needs V in P\^2, not in P\^3"):
        hyperplane_relation(spec, geom(3).by_dim[1][0])


@pytest.mark.parametrize("q,other", [(3, 2), (2, 3)])
def test_hyperplane_relation_refuses_a_hyperplane_over_another_field(q, other):
    line = geom(2, other).by_dim[1][0]
    with pytest.raises(CohomologyError, match=r"needs V over F_%d, not over "
                                              r"F_%d$" % (q, other)):
        hyperplane_relation(blowup(2, q), line)


@pytest.mark.parametrize("spec,kind", [
    (lambda: two_planes().strata["X1"].ring.spec, "SurfaceSpec"),
    (lambda: product(proj(1), blowup(2, 2)), "Product")],
    ids=["surface", "product"])
def test_hyperplane_relation_refuses_a_spec_without_named_hyperplanes(
        spec, kind):
    with pytest.raises(CohomologyError, match=r"needs a P\^n or blow-up "
                                              "spec, not a %s$" % kind):
        hyperplane_relation(spec(), geom(2).by_dim[1][0])


def test_normalize_rejects_foreign_generators():
    # a generator of B^2/F_2 is GEN_H or one of the 14 flat numbers 0..13
    spec = blowup(2, 2)
    for g in (len(geom(2).proper), -2, "h"):
        with pytest.raises(CohomologyError, match=r"does not live on B\^2"):
            normalize_divisor(spec, {g: Fraction(1)})


# -- generators are the flat numbers of the geometry ---------------------------

@pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3),
                                 (4, 2)])
def test_generators_are_the_flat_numbers(n, q):
    # h, then the centers (the flats of dim <= n-2) by their numbers
    g = geom(n, q)
    centers = sum(len(subs) for subs in g.by_dim[:-1])
    assert generators(blowup(n, q)) == [GEN_H] + list(range(centers))
    assert [gen_e(V) for V in g.proper] == [g.bits[V] for V in g.proper] \
        == list(range(len(g.proper)))


def test_sorted_generators_are_h_then_dim_and_echelon_basis():
    gens = generators(blowup(3, 2))
    shuffled = list(gens)
    random.Random(5).shuffle(shuffled)
    assert sorted(shuffled) == gens and gens[0] == GEN_H
    proper = geom(3).proper
    keys = [(proper[g].dim, proper[g].basis) for g in gens[1:]]
    assert keys == sorted(keys)


# -- intersection numbers ------------------------------------------------------

def test_intersection_examples_surface():
    spec = blowup(2, 2)
    pts = geom(2).by_dim[0]
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
    e_p, h = gen_e(g.by_dim[0][0]), GEN_H
    e_l = next(l for l in map(gen_e, g.by_dim[1]) if g.above[e_p] >> l & 1)
    assert intersection_number(spec, monomial([h] * 3)) == 1
    assert intersection_number(spec, monomial([e_p] * 3)) == 1
    assert intersection_number(spec, monomial([e_l] * 3)) == 4
    assert intersection_number(spec, monomial([e_l, e_l, h])) == -1
    assert intersection_number(spec, monomial([e_p, e_l, e_l])) == -1
    assert intersection_number(spec, monomial([e_p, e_l, h])) == 0
    assert intersection_number(spec, monomial([e_p, e_p, h])) == 0
    e_m = next(m for m in map(gen_e, g.by_dim[1])
               if not g.comparable[e_l] >> m & 1)
    assert intersection_number(spec, monomial([e_l, e_m, h])) == 0


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
    fq = get_field(2)
    mat = [[1, 1, 0], [0, 1, 0], [1, 0, 1]]   # invertible over F_2

    def act(v):
        rows = [[_dot(fq, row, [mat[k][j] for k in range(3)])
                 for j in range(3)] for row in v.basis]
        return make_subvariety(2, rows, 2)

    def _dot(f, u, w):
        s = 0
        for x, y in zip(u, w):
            s = f.add(s, f.mul(x, y))
        return s

    rng = random.Random(5)
    pts = g.by_dim[0]
    for _ in range(20):
        chosen = [rng.choice(pts) for _ in range(2)]
        before = intersection_number(
            spec, monomial([gen_e(v) for v in chosen]))
        after = intersection_number(
            spec, monomial([gen_e(act(v)) for v in chosen]))
        assert before == after


@pytest.mark.parametrize("n,q,types", [(2, 2, 3), (2, 3, 3), (3, 2, 10)])
def test_type_table_matches_chooser_descent(monkeypatch, n, q, types):
    # every top chain monomial: the flag-type value equals a random descent,
    # which bypasses every memo (the table stays empty while it runs)
    spec = blowup(n, q)
    chains = _chain_candidates(spec, n)
    rng = random.Random(7 * n + q)
    table = {}
    monkeypatch.setattr(cohomology, "_EVAL_MEMO", table)
    descents = [intersection_number(spec, m, chooser=rng.choice)
                for m in chains]
    assert table == {}
    for m, value in zip(chains, descents):
        assert intersection_number(spec, m) == value
    assert all(type(v) is int for v in table.values())
    by_spec = [code for s, code in table if s == spec]
    assert len(by_spec) == types
    assert {cohomology._support_keys(spec, m)[2] for m in chains} == \
        set(by_spec)


@pytest.mark.parametrize("n,q", [(2, 3), (3, 2)])
def test_non_chain_monomials_vanish_without_a_table_entry(monkeypatch, n, q):
    spec = blowup(n, q)
    gens = generators(spec)
    rng = random.Random(11)
    sample = []
    while len(sample) < 50:
        m = monomial(rng.choice(gens) for _ in range(n))
        if not _support_is_chain(spec, m):
            sample.append(m)
    table = {}
    monkeypatch.setattr(cohomology, "_EVAL_MEMO", table)
    assert all(intersection_number(spec, m) == 0 for m in sample)
    assert table == {}


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


def test_p0_is_the_unit_of_products():
    b2 = blowup(2, 2)
    assert product(proj(0), b2) == b2 == product(b2, proj(0))
    assert product(proj(0), proj(0)) == product() == proj(0)
    # nested products flatten, and their P^0 factors drop at every depth
    nested = product(proj(1), product(proj(0), b2), proj(0))
    assert nested == product(proj(1), b2)
    assert nested.factors == (proj(1), b2)
    assert product(product(proj(1), proj(0)), product(proj(1), b2)).factors \
        == (proj(1), proj(1), b2)
    assert build_ring(product(proj(0), b2)) is build_ring(b2)


def test_product_basis_orders_degree_tuples_then_monomials():
    # saved complexes store restriction matrices in these coordinates, so the
    # order is part of the file format: in each total degree the factor degree
    # tuples come in lex order, and the monomials of one tuple after each other
    b2, p1 = blowup(2, 2), proj(1)
    ring = build_ring(product(b2, p1, p1))
    e, (h,) = build_ring(b2).basis, build_ring(p1).basis[1]
    assert ring.basis[2] == ([((), h, h)] + [(m, (), h) for m in e[1]]
                             + [(m, h, ()) for m in e[1]]
                             + [(m, (), ()) for m in e[2]])
    assert hashlib.sha256(repr(ring.basis).encode()).hexdigest() == \
        "62fd3702eb6062e42f5621d16a6b6d59903a357bad92621349909bcdff19d929"


def test_product_middle_pairing_hyperbolic():
    ring = build_ring(product(proj(1), proj(1)))
    assert ring.pairing[1] == linalg.mat([[0, 1], [1, 0]])


@pytest.mark.parametrize("factors", [
    [(1, 2), (2, 2)], [(1, 3), (2, 3)], [(2, 2), (2, 2)],
    [(1, 2), (1, 2), (2, 2)]],
    ids=["b1-x-b2f2", "b1-x-b2f3", "b2-x-b2f2", "b1-x-b1-x-b2f2"])
def test_product_pairing_equals_the_factor_entries(factors):
    # the ring reads intersection_number of the merged monomials; the oracle
    # multiplies the factor pairing entries
    ring = build_ring(product(*(blowup(n, q) for n, q in factors)))
    for j in range(ring.n + 1):
        assert ring.pairing[j] == product_pairing(ring, j)


def test_multiplication_is_associative_on_samples():
    ring = build_ring(blowup(3, 2))
    rng = random.Random(3)
    nb = len(ring.basis[1])
    for _ in range(25):
        a, b, c = (rng.randrange(nb) for _ in range(3))
        va = ring.zero(1); va[a] = Fraction(1)
        vb = ring.zero(1); vb[b] = Fraction(1)
        vc = ring.zero(1); vc[c] = Fraction(1)
        left = multiply(ring, 2, multiply(ring, 1, va, 1, vb), 1, vc)
        right = multiply(ring, 1, va, 2, multiply(ring, 1, vb, 1, vc))
        assert left == right


_CUP_RINGS = {
    "B^2/F_2": lambda: build_ring(blowup(2, 2)),
    "B^3/F_2": lambda: build_ring(blowup(3, 2)),
    "B^1xB^2": lambda: build_ring(product(blowup(1, 2), blowup(2, 2))),
    "P^3": lambda: build_ring(proj(3)),
    "surface": lambda: explicit_surface_ring(
        ["h", "e"], linalg.mat([[1, 0], [0, -1]])),
}


@pytest.mark.parametrize("name", sorted(_CUP_RINGS))
def test_cup_matrix_matches_the_monomial_route(name):
    # the oracle merges monomials and solves against the pairing; the ring
    # reads triples by count code behind the chain masks
    ring = _CUP_RINGS[name]()
    rng = random.Random(name)
    for j in range(ring.n + 1):
        size = len(ring.basis[j])
        unit = ring.zero(j)
        unit[rng.randrange(size)] = Fraction(1)
        sparse = ring.zero(j)
        for i in rng.sample(range(size), min(size, 4)):
            sparse[i] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        for k in range(ring.n + 1 - j):
            for v in (unit, sparse):
                assert ring.cup_matrix(j, v, k) == cup_matrix(ring, j, v, k), \
                    (j, k, v)


@pytest.mark.parametrize("spec", [
    proj(3), blowup(2, 2), blowup(2, 3), blowup(2, 4), blowup(3, 2),
    blowup(3, 3), product(blowup(1, 2), blowup(2, 2)),
    product(blowup(1, 3), blowup(2, 3))],
    ids=["P^3", "B^2/F_2", "B^2/F_3", "B^2/F_4", "B^3/F_2", "B^3/F_3",
         "B^1xB^2/F_2", "B^1xB^2/F_3"])
def test_pairing_equals_the_all_pairs_top_numbers(spec):
    # the ring reads the unit's block behind the chain masks by count code;
    # the oracle merges every pair of basis monomials
    ring = build_ring(spec)
    for j in range(ring.n + 1):
        assert ring.pairing[j] == linalg.mat(
            [[top_number(ring, merge(ring, r, c))
              for c in ring.basis[ring.n - j]] for r in ring.basis[j]]), j


@pytest.mark.parametrize("n,q", [(2, 3), (3, 2)])
def test_monomial_coords_solve_against_all_top_numbers(n, q):
    # the ring reads the monomial's one-column block behind its chain masks;
    # the oracle solves the transposed pairing against every top number.
    # The sample is h and the first three centers of each dimension, so it
    # holds chains, non-chains and powers of one center.
    ring = build_ring(blowup(n, q))
    sample = [GEN_H] + [gen_e(V) for d in range(n - 1)
                        for V in geom(n, q).by_dim[d][:3]]
    seen = collections.Counter()
    for j in range(n + 1):
        for mono in itertools.combinations_with_replacement(sample, j):
            mono = monomial(mono)
            if mono in ring.index[j]:
                continue
            col = [[top_number(ring, merge(ring, mono, d))]
                   for d in ring.basis[n - j]]
            want = linalg.solve(linalg.transpose(ring.pairing[j]),
                                linalg.mat(col))
            got = ring.monomial_coords(mono)
            assert got == [row[0] for row in want], mono
            chain = _support_is_chain(ring.spec, mono)
            assert chain or not any(got), mono
            power = any(g != GEN_H and mono.count(g) > 1 for g in mono)
            seen[j, chain, power] += 1
    for j in range(2, n + 1):
        assert seen[j, False, False] and seen[j, True, True], (j, seen)


@pytest.mark.parametrize("spec", [
    product(blowup(1, 2), blowup(2, 2)),
    product(blowup(1, 2), blowup(1, 2), blowup(2, 2)),
    product(blowup(2, 3), blowup(1, 3)), product(proj(1), blowup(2, 2))],
    ids=["B^1xB^2/F_2", "B^1xB^1xB^2/F_2", "B^2xB^1/F_3", "P^1xB^2/F_2"])
def test_product_monomial_coords_solve_against_all_top_numbers(spec):
    # a product monomial's one-column block is solved as on any ring; the
    # oracles solve against every top number and tensor the factor
    # coordinates.  The sample is every non-basis factor-split monomial in h
    # and the first two centers of each factor, so it holds non-chain factors
    # and factor classes above their factor's top degree.
    ring = build_ring(spec)
    n = ring.n
    samples = [generators(f)[:3] for f in spec.factors]
    seen = collections.Counter()
    for j in range(1, n + 1):
        for split in itertools.product(range(j + 1), repeat=len(samples)):
            if sum(split) != j:
                continue
            for mono in itertools.product(*(
                    itertools.combinations_with_replacement(s, d)
                    for s, d in zip(samples, split))):
                mono = tuple(monomial(m) for m in mono)
                if mono in ring.index[j]:
                    continue
                col = [[top_number(ring, merge(ring, mono, d))]
                       for d in ring.basis[n - j]]
                want = linalg.solve(linalg.transpose(ring.pairing[j]),
                                    linalg.mat(col))
                got = ring.monomial_coords(mono)
                assert got == [row[0] for row in want], mono
                assert got == tensor_coords(ring, mono), mono
                above = any(len(m) > cohomology.dimension(f)
                            for f, m in zip(spec.factors, mono))
                chain = all(_support_is_chain(f, m)
                            for f, m in zip(spec.factors, mono)
                            if isinstance(f, cohomology.BlownUp))
                seen[above, chain] += 1
    assert seen[False, False] and seen[False, True], seen
    # a factor with generators below the dimension n can go above its top
    assert bool(seen[True, True]) == any(
        s and cohomology.dimension(f) < n
        for f, s in zip(spec.factors, samples)), seen


@pytest.mark.parametrize("form", [[[1, 0], [0, -1]],
                                  [["1/2", 1], [1, "-1/3"]]],
                         ids=["integral", "rational"])
def test_surface_monomial_coords_are_entries_over_the_top_entry(form):
    # the pairings are the unit's blocks, read from the given form; the top
    # monomial is a.a, named by the first nonzero entry, so a non-basis
    # monomial x.y is its form entry over that of a.a times the top class
    form = linalg.mat(form)
    ring = explicit_surface_ring(["a", "b"], form)
    top = linalg.mat([[form.entry(0, 0)]])
    assert ring.pairing == [top, form, top]
    for x, y in [("a", "b"), ("b", "b")]:
        mono = monomial([("s", x), ("s", y)])
        assert mono not in ring.index[2]
        want = form.entry("ab".index(x), "ab".index(y)) / form.entry(0, 0)
        assert ring.monomial_coords(mono) == [want]


def test_cup_matrix_reads_the_basis_keys_once(monkeypatch):
    # a fresh ring on the cached B^3/F_2 bases, so no key is known yet; its
    # pairings and the cup matrices below share the keys
    built = build_ring(blowup(3, 2))
    seen = collections.Counter()
    support_keys = cohomology._support_keys

    def counted(spec, mono):
        seen[mono] += 1
        return support_keys(spec, mono)

    monkeypatch.setattr(cohomology, "_support_keys", counted)
    ring = cohomology.GradedRing(built.spec, built.basis)
    assert ring.pairing == built.pairing
    v = ring.zero(1)
    v[0], v[-1] = Fraction(1), Fraction(-2)
    first = ring.cup_matrix(1, v, 1)
    assert ring.cup_matrix(1, v, 1) == first
    # below the top degree; top products are evaluated by intersection_number
    below = list(itertools.chain(*ring.basis[:ring.n]))
    assert 0 < sum(seen[m] for m in below) <= len(below)
    assert max(seen[m] for m in below) == 1


def test_resource_guard():
    with pytest.raises(ResourceGuardError,
                       match="variety dimension 5 exceeds guard 4"):
        check_resource_guard(blowup(5, 2))
    # no field-size cap: B^2/F_8 (Betti 1, 74, 1) is admitted
    check_resource_guard(blowup(2, 8))
    check_resource_guard(blowup(3, 2))


def test_a_huge_dimension_is_refused_before_the_betti_recursion(monkeypatch):
    def no_recursion(spec):
        raise AssertionError("betti_numbers called")
    monkeypatch.setattr(cohomology, "betti_numbers", no_recursion)
    with pytest.raises(ResourceGuardError,
                       match="variety dimension 3000 exceeds guard 4"):
        check_resource_guard(blowup(3000, 2))


BUILTIN_Q = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)


def test_resource_guard_refuses_exactly_over_the_size_budget():
    admitted = set()
    for n, q in itertools.product((2, 3, 4), BUILTIN_Q):
        total = sum(betti_numbers(blowup(n, q)))
        if total > cohomology.SIZE_BUDGET:
            with pytest.raises(ResourceGuardError) as err:
                check_resource_guard(blowup(n, q))
            assert str(err.value) == ("Betti total %d exceeds the size "
                                      "budget %d" % (total, 4000))
        else:
            check_resource_guard(blowup(n, q))
            admitted.add((n, q))
    # every B^2/F_q, B^3/F_q for q <= 5, and B^4/F_2 (Betti total 2268)
    assert admitted == {(2, q) for q in BUILTIN_Q} | \
        {(3, 2), (3, 3), (3, 4), (3, 5), (4, 2)}


def test_resource_guard_sums_the_betti_numbers_of_a_product():
    # B^2/F_16 alone totals 276; the product totals 276^2
    check_resource_guard(blowup(2, 16))
    with pytest.raises(ResourceGuardError, match="Betti total 76176 exceeds"):
        build_ring(product(blowup(2, 16), blowup(2, 16)))


# -- restriction --------------------------------------------------------------------

def test_restriction_examples_on_surface():
    ring = build_ring(blowup(2, 2))
    g = geom(2)
    P = g.by_dim[0][0]
    target, mats = restrict_to_divisor(ring, P)
    # h restricts to zero (the first factor is a point)
    h_idx = ring.index[1][(GEN_H,)]
    col = [mats[1][r][h_idx] for r in range(len(mats[1]))]
    assert all(x == 0 for x in col)
    # a line through P restricts to the second-factor point class
    line = next(l for l in g.by_dim[1] if g.above[gen_e(P)] >> gen_e(l) & 1)
    vec = divisor_vector(ring, hyperplane_relation(ring.spec, line))
    out = linalg.matvec(mats[1], vec)
    assert any(x != 0 for x in out)
    # an incomparable center restricts to zero
    far = next(p for p in g.by_dim[0] if p != P)
    col2 = [mats[1][r][ring.index[1][(gen_e(far),)]] for r in range(len(mats[1]))]
    assert all(x == 0 for x in col2)


def test_restriction_is_ring_homomorphism():
    ring = build_ring(blowup(2, 2))
    g = geom(2)
    for V in [g.by_dim[0][0], g.by_dim[1][0]]:
        target, mats = restrict_to_divisor(ring, V)
        nb = len(ring.basis[1])
        for a in range(nb):
            va = ring.zero(1); va[a] = Fraction(1)
            ra = linalg.matvec(mats[1], va)
            for b in range(a, nb):
                vb = ring.zero(1); vb[b] = Fraction(1)
                lhs = linalg.matvec(mats[2], multiply(ring, 1, va, 1, vb))
                rhs = multiply(target, 1, ra, 1, linalg.matvec(mats[1], vb))
                assert lhs == rhs


def _is_ring_homomorphism(ring, target, mats):
    """mats[0] sends 1 to 1, and for every basis class a of N^1 and every k,
    mats[k+1] (a.x) = mats[1](a) . mats[k](x); N^1 generates the ring."""
    if mats[0] != linalg.identity(1):
        return False
    for a in range(len(ring.basis[1])):
        va = ring.zero(1)
        va[a] = Fraction(1)
        ra = linalg.matvec(mats[1], va)
        for k in range(ring.n):
            if linalg.matmul(mats[k + 1], ring.cup_matrix(1, va, k)) != \
                    linalg.matmul(target.cup_matrix(1, ra, k), mats[k]):
                return False
    return True


def test_restriction_at_a_point_targets_the_ring_of_b_n_minus_1():
    # D_P = P^0 x B^2 is B^2 itself
    ring = build_ring(blowup(3, 2))
    target, mats = restrict_to_divisor(ring, geom(3).by_dim[0][0])
    assert target is build_ring(blowup(2, 2))
    assert [m.shape for m in mats] == [(1, 1), (8, 51), (1, 51), (0, 1)]
    assert _is_ring_homomorphism(ring, target, mats)


def test_restriction_at_a_line_of_b2_targets_the_ring_of_p1():
    # D_L = P^1 x P^0 is P^1 itself
    ring = build_ring(blowup(2, 2))
    target, mats = restrict_to_divisor(ring, geom(2).by_dim[1][0])
    assert target is build_ring(proj(1))
    assert [m.shape for m in mats] == [(1, 1), (1, 8), (0, 1)]
    assert _is_ring_homomorphism(ring, target, mats)


def test_restriction_kernel_is_zero_below_top():
    # a degree-1 class restricting to zero on every divisor is zero
    for (n, q) in [(2, 2), (3, 2)]:
        ring = build_ring(blowup(n, q))
        g = ambient_geometry(n, q)
        rows = []
        for d in range(n):
            for V in g.by_dim[d]:
                _, mats = restrict_to_divisor(ring, V)
                rows.extend(mats[1])
        assert linalg.kernel_basis(linalg.mat(rows)).ncols == 0


def test_kunneth_dims_and_factors():
    r1 = build_ring(blowup(1, 2))
    r2 = build_ring(blowup(2, 2))
    r = build_ring(product(r1.spec, r2.spec))
    assert r.dims() == [1, 9, 9, 1]
    assert len(r.spec.factors) == 2


def test_ring_serialization_roundtrip_shape():
    ring = build_ring(blowup(2, 2))
    data = ring.to_json()
    assert data["dims"] == [1, 8, 1]
    assert len(data["basis"][1]) == 8
    assert data["pairing"]["1"] is ring.pairing[1]
    assert data["pairing"]["1"].entry(0, 0) == 1


@pytest.mark.parametrize("n,q,degrees", [
    (2, 2, [0, 1, 2]), (2, 3, [0, 1, 2]), (2, 4, [0, 1, 2]),
    (3, 2, [0, 1, 2, 3]), (3, 3, [0, 1, 2, 3]), (4, 2, [0, 1, 3, 4])])
def test_signed_permutation_pairings_are_inverted_by_transpose(n, q, degrees):
    # in the chain basis only the middle degree of B^4 is no signed
    # permutation
    ring = build_ring(blowup(n, q))
    assert [j for j in range(n + 1) if ring.signed[j]] == degrees
    for j in degrees:
        if len(ring.basis[j]) <= 400:
            assert ring._dual_inv(j) == linalg.inverse(ring.pairing[n - j])


def _explicit_surface(form, top):
    a, b = ("s", "a"), ("s", "b")
    spec = cohomology.SurfaceSpec(("a", "b"), linalg.mat(form))
    return cohomology.GradedRing(spec, [[()], [(a,), (b,)],
                                        [tuple(("s", g) for g in top)]])


@pytest.mark.parametrize("form,top,signed", [
    ([[0, 1], [1, 0]], "ab", True), ([[-1, 0], [0, 1]], "bb", True),
    ([[2, 0], [0, -1]], "bb", False), ([[1, 1], [1, 0]], "aa", False)],
    ids=["hyperbolic", "diagonal", "two", "not-a-permutation"])
def test_only_a_signed_permutation_pairing_skips_elimination(monkeypatch,
                                                            form, top,
                                                            signed):
    ranked, inverted = [], []
    rank, inverse = linalg.rank, linalg.inverse
    monkeypatch.setattr(linalg, "rank",
                        lambda m: ranked.append(m) or rank(m))
    monkeypatch.setattr(linalg, "inverse",
                        lambda m: inverted.append(m) or inverse(m))
    ring = _explicit_surface(form, top)
    assert ring.signed[1] is signed
    assert ring._dual_inv(1) == inverse(ring.pairing[1])
    assert (linalg.mat(form) in ranked) is not signed
    assert (linalg.mat(form) in inverted) is not signed


# -- oracles for the incidence masks and the chain basis -----------------------

@pytest.mark.parametrize("n,q", [(2, 3), (3, 2)])
def test_mask_chain_test_matches_pairwise_comparable(n, q):
    spec = blowup(n, q)
    gens = generators(spec)
    for d in range(n + 1):
        every = itertools.combinations_with_replacement(gens, d)
        assert [m for m in every if _support_is_chain(spec, m)] == \
            _chain_candidates(spec, d)


def _fraction_greedy_rows(matrix, target_rank):
    """The greedy basis pick on Fractions: row i is picked when it is
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
    # the chain basis is the greedy row basis of the full pairing between all
    # chain monomials of complementary degrees, in the same order
    spec = blowup(n, q)
    ring = build_ring(spec)
    expected = betti_numbers(spec)
    for j in range(n + 1):
        rows, cols = _chain_candidates(spec, j), _chain_candidates(spec, n - j)
        full = [[intersection_number(spec, monomial(r + c)) for c in cols]
                for r in rows]
        picked = _fraction_greedy_rows(full, expected[j])
        assert [rows[i] for i in picked] == ring.basis[j] == chain_basis(spec, j)


def _exponent_bounds_hold(spec, mono):
    """The Feichtner-Yuzvinsky bounds on a chain monomial h^a prod e_(V_i)^(b_i):
    b_i <= d_(i+1) - d_i - 1 with d_0 = -1 for h (b_0 = a) and d_(k+1) = n."""
    proper = geom(spec.n, spec.q).proper
    centers = sorted({g for g in mono if g != GEN_H},
                     key=lambda g: proper[g].dim)
    dims = [-1] + [proper[g].dim for g in centers] + [spec.n]
    exponents = [mono.count(GEN_H)] + [mono.count(g) for g in centers]
    return all(b <= dims[i + 1] - dims[i] - 1 for i, b in enumerate(exponents))


@pytest.mark.parametrize("n,q", [(2, 3), (3, 2)])
def test_chain_basis_matches_brute_force_definition(n, q):
    spec = blowup(n, q)
    for d in range(n + 1):
        brute = [m for m in _chain_candidates(spec, d)
                 if _exponent_bounds_hold(spec, m)]
        assert chain_basis(spec, d) == brute


@pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4),
                                 (4, 2)])
def test_chain_basis_sizes_are_the_betti_numbers(n, q):
    spec = blowup(n, q)
    assert [len(chain_basis(spec, j)) for j in range(n + 1)] == \
        betti_numbers(spec)


def test_betti_mismatch_is_refused(monkeypatch):
    monkeypatch.setattr(cohomology, "betti_numbers", lambda spec: [1, 9, 1])
    with pytest.raises(CohomologyError, match=r"Betti numbers \[1, 9, 1\]"):
        cohomology._build_blowup(blowup(2, 2))


def test_degenerate_pairing_is_refused(monkeypatch):
    # a repeated monomial keeps the count right but makes the pairing singular
    real = cohomology.chain_basis

    def repeated(spec, degree):
        bs = real(spec, degree)
        return bs[:-1] + bs[:1] if degree == 1 else bs

    monkeypatch.setattr(cohomology, "chain_basis", repeated)
    with pytest.raises(CohomologyError, match="pairing of rank 7 on 8 x 8"):
        cohomology._build_blowup(blowup(2, 2))


def _degenerate_product():
    # h x 1 twice in N^1 of P^1 x P^1: the count is right, but h^2 = 0 there
    h, one = (GEN_H,), ()
    return cohomology.GradedRing(product(proj(1), proj(1)), [
        [(one, one)], [(h, one), (h, one)], [(h, h)]])


def _degenerate_surface():
    a, b = ("s", "a"), ("s", "b")
    spec = cohomology.SurfaceSpec(("a", "b"), linalg.mat([[1, 1], [1, 1]]))
    return cohomology.GradedRing(spec, [[()], [(a,), (b,)], [(a, a)]])


@pytest.mark.parametrize("build,rank", [(_degenerate_product, 0),
                                        (_degenerate_surface, 1)],
                         ids=["product", "surface"])
def test_every_ring_kind_refuses_a_degenerate_pairing(build, rank):
    with pytest.raises(CohomologyError,
                       match="degree 1: Poincare pairing of rank %d on 2 x 2"
                       % rank):
        build()
