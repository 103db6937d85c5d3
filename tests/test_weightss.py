import copy
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from purity import linalg, weightss, zeta
from purity.cli import main
from purity.cohomology import (ResourceGuardError, betti_numbers, blowup,
                               build_ring, proj, restrict_to_divisor)
from purity.fixtures import (drinfeld_local, make_fixture, tate_cycle,
                             triangle_of_planes, two_planes)
from purity.geometry import ambient_geometry
from purity.weightss import (ComplexValidationError,
                             SemistableComplex, Stratum, _chain,
                             _homology, check_purity,
                             complex_to_json, euler_check,
                             explicit_surface_ring, inertia_invariants,
                             load_complex, verify_rz_lemmas, weight_table)
from oracle import (e1_monodromy_failures, inertia_invariants_by_ranks,
                    level_primitive, pair, verify_rz_lemmas_by_subspaces)


@pytest.fixture(scope="module")
def tate32():
    return tate_cycle(3, 2)


@pytest.fixture(scope="module")
def quadric():
    return two_planes(2, 2)


@pytest.fixture(scope="module")
def drinfeld22():
    return drinfeld_local(2, 2)


@pytest.fixture(scope="module")
def oracle_complexes(tate32, quadric, drinfeld22):
    """tate-cycle:3,2, two-planes:2, triangle-of-planes:2, drinfeld-local:2,2"""
    return [tate32, quadric, triangle_of_planes(2), drinfeld22]


def column(cx, w, page=1):
    """{(i, w - i): dim} over the nonzero E1 (page 1) or E2 (page 2) entries
    of the degree-w column of the weight table of cx."""
    table = weight_table(cx)
    dim = table.e1_dim if page == 1 else table.e2_dim
    return {(i, j): dim(i, j) for (i, j) in table.entries
            if i + j == w and dim(i, j)}


def test_tate_cycle_e1_shape(tate32):
    cx = tate32
    assert column(cx, 1) == {(-1, 2): 3, (1, 0): 3}
    assert column(cx, 0) == {(0, 0): 3}


def test_tate_cycle_e2_and_purity(tate32):
    cx = tate32
    assert column(cx, 1, page=2) == {(-1, 2): 1, (1, 0): 1}
    for w in range(3):
        ok, report = check_purity(cx, w)
        assert ok
    # r beyond the column span is vacuous
    ok, report = check_purity(cx, 2)
    assert all(r["ok"] for r in report)
    assert euler_check(cx)[0]


def test_tate_cycle_inertia(tate32):
    cx = tate32
    assert inertia_invariants(cx, 1) == {0: 1}
    assert inertia_invariants(cx, 0) == {0: 1}
    assert inertia_invariants(cx, 2) == {2: 1}


def test_two_planes_matches_quadric(quadric):
    cx = quadric
    totals = [sum(column(cx, w, page=2).values()) for w in range(5)]
    assert totals == [1, 0, 2, 0, 1]
    assert all(check_purity(cx, w)[0] for w in range(5))
    ok, euler = euler_check(cx)
    assert ok and euler == {"e1": 4, "e2": 4}


def test_triangle_matches_cubic_surface():
    cx = triangle_of_planes(2)
    totals = [sum(column(cx, w, page=2).values()) for w in range(5)]
    assert totals == [1, 0, 7, 0, 1]
    assert all(check_purity(cx, w)[0] for w in range(5))
    ok, _ = verify_rz_lemmas(cx)
    assert ok


def test_drinfeld_local_purity_and_middle(drinfeld22):
    cx = drinfeld22
    assert all(check_purity(cx, w)[0] for w in range(5))
    dims = column(cx, 2, page=2)
    # middle degree: a two-dimensional weight-0 block moved by N^2
    assert dims[(-2, 4)] == dims[(2, 0)] == 2
    assert euler_check(cx)[0]


def test_drinfeld_q3_builds_and_passes():
    cx = drinfeld_local(2, 3)
    assert all(check_purity(cx, w)[0] for w in range(5))


def test_gysin_adjoint_relation(quadric):
    cx = quadric
    # <gysin(b), x>_parent = <b, restriction(x)>_child, degree by degree
    stratum = cx.strata["L"]
    rng = random.Random(1)
    for m, (pid, mats) in stratum.parents.items():
        parent = cx.strata[pid].ring
        child = stratum.ring
        gys = cx.gysin("L", m)
        for j in range(child.n + 1):
            for _ in range(5):
                b = [Fraction(rng.randint(-3, 3)) for _ in child.basis[j]]
                x = [Fraction(rng.randint(-3, 3))
                     for _ in parent.basis[parent.n - j - 1]]
                lhs = pair(parent, j + 1, linalg.matvec(gys[j], b), x)
                rhs = pair(child, j, b, linalg.matvec(mats[child.n - j], x))
                assert lhs == rhs


def test_lemma_suite_passes_on_fixtures(tate32, quadric, drinfeld22):
    for cx in (tate32, quadric, drinfeld22):
        ok, rows = verify_rz_lemmas(cx)
        assert ok, [r["lemma"] for r in rows if not r["ok"]]


def test_lemma_suite_names_cover_the_statements(drinfeld22):
    _, rows = verify_rz_lemmas(drinfeld22)
    names = {r["lemma"].split("[")[0] for r in rows}
    assert {"rho_rho_zero", "tau_tau_zero", "anticommute", "rho_tau_rho_zero",
            "hard_lefschetz_im0_rho", "hard_lefschetz_im1_rho", "duality_dims",
            "nondegenerate_im0_rho", "nondegenerate_im0_tau",
            "isomorphism_im0_to_im1", "orthogonal_splitting_tau",
            "ker_tau_cap_im_rho", "ker_rho_cap_im_tau"} <= names


def _check_roundtrip(capsys, tmp_path, cx, fixture):
    blob = json.dumps(complex_to_json(cx), sort_keys=True)
    cx2 = load_complex(json.loads(blob))
    assert sorted(cx2.strata) == sorted(cx.strata)
    assert all(check_purity(cx2, w)[0] for w in range(5))
    # determinism: serializing again gives the same bytes
    blob2 = json.dumps(complex_to_json(cx2), sort_keys=True)
    assert blob == blob2
    # the dump, read back by the CLI, gives the fixture's report
    path = tmp_path / "cx.json"
    path.write_text(blob)
    reports = []
    for source in (["--input", str(path)], ["--fixture", fixture]):
        assert main(["--json", "wss", *source, "--zeta"]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]


def test_json_roundtrip(capsys, tmp_path, quadric):
    _check_roundtrip(capsys, tmp_path, quadric, "two-planes:2")


@pytest.mark.parametrize("q", [2, 3])
def test_drinfeld_json_roundtrip(capsys, tmp_path, q):
    # the stratum labels come from the Singer trace sequence
    _check_roundtrip(capsys, tmp_path, drinfeld_local(2, q),
                     "drinfeld-local:2,%d" % q)


def test_corrupted_restriction_is_rejected():
    cx = drinfeld_local(2, 2)
    data = complex_to_json(cx)
    bad = copy.deepcopy(data)
    for node in bad["strata"]:
        if len(node["subset"]) == 3:
            key = sorted(node["parents"])[0]
            node["parents"][str(key)]["restriction"][0][0][0] = "2"
            break
    with pytest.raises(ComplexValidationError) as err:
        load_complex(bad)
    assert "does not commute" in str(err.value) or "unit" in str(err.value)


def _two_glued(ring, child, mats):
    """Two copies of `ring` glued along `child` by the restriction `mats`."""
    return SemistableComplex([
        Stratum("X0", frozenset({0}), ring, {}),
        Stratum("X1", frozenset({1}), ring, {}),
        Stratum("D", frozenset({0, 1}), child,
                {0: ("X1", mats), 1: ("X0", mats)})], 2)


def test_multiplicativity_is_checked_on_a_plane_stratum():
    # two P^3 glued along a P^2: h restricts to h, so h^2 to h^2
    p3, p2 = build_ring(proj(3)), build_ring(proj(2))
    one = linalg.identity(1)
    _two_glued(p3, p2, [one, one, one])
    with pytest.raises(ComplexValidationError,
                       match="is not a ring homomorphism"):
        _two_glued(p3, p2, [one, one, linalg.mat([[2]])])


def test_multiplicativity_is_checked_on_a_blown_up_plane():
    # two B^3/F_2 glued along the divisor of a plane
    ring = build_ring(blowup(3, 2))
    plane = ambient_geometry(3, 2).by_dim[2][0]
    target, mats = restrict_to_divisor(ring, plane)
    _two_glued(ring, target, mats)
    m = mats[2]
    rows = [list(r) for r in m.rows]
    rows[0][0] += m.den      # one entry raised by 1
    bad = mats[:2] + [linalg.Matrix(rows, m.den, m.ncols)] + mats[3:]
    with pytest.raises(ComplexValidationError,
                       match="is not a ring homomorphism"):
        _two_glued(ring, target, bad)


def test_schema_validation_errors():
    with pytest.raises(ComplexValidationError):
        load_complex({"schema_version": 99, "q": 2, "strata": []})
    with pytest.raises(ComplexValidationError):
        load_complex({"schema_version": 1, "q": 2, "strata": []})
    # wrong stratum dimension is caught
    cx = tate_cycle(3, 2)
    data = complex_to_json(cx)
    bad = copy.deepcopy(data)
    for node in bad["strata"]:
        if len(node["subset"]) == 2:
            node["variety"] = {"kind": "projective", "n": 1}
            break
    with pytest.raises(ComplexValidationError):
        load_complex(bad)


def test_explicit_surface_ring_sanity():
    ring = explicit_surface_ring(["h", "e"], linalg.mat([[1, 0], [0, -1]]))
    assert ring.dims() == [1, 2, 1]
    va = ring.zero(1); va[0] = Fraction(1)
    vb = ring.zero(1); vb[1] = Fraction(1)
    assert pair(ring, 1, va, va) == 1
    assert pair(ring, 1, vb, vb) == -1
    prod = ring.multiply(1, va, 1, va)
    assert pair(ring, 2, prod, [Fraction(1)]) == 1
    with pytest.raises(ComplexValidationError):
        explicit_surface_ring(["a"], linalg.mat([[0]]))


def test_equal_surface_forms_give_one_ring():
    # build_ring keeps one ring per (labels, form), so one Lefschetz context
    # serves every stratum on it
    ring = explicit_surface_ring(["h", "e"], linalg.mat([[1, 0], [0, -1]]))
    assert explicit_surface_ring(
        ["h", "e"], linalg.mat([[1, 0], [0, -1]])) is ring
    assert build_ring(ring.spec) is ring
    assert explicit_surface_ring(
        ["h", "f"], linalg.mat([[1, 0], [0, -1]])) is not ring
    assert betti_numbers(ring.spec) == ring.dims() == [1, 2, 1]


def test_fixture_registry():
    cx = make_fixture("tate-cycle", 4, 2)
    assert len(cx.strata) == 8
    with pytest.raises(Exception):
        make_fixture("unknown-fixture")


def test_spectral_table_views(tate32):
    cx = tate32
    assert sorted(j for _, j in column(cx, 1, page=2)) == [0, 2]
    assert column(cx, 7) == column(cx, 7, page=2) == {}


@pytest.mark.parametrize("fixture,total", [
    (("tate-cycle", 10, 2), 40), (("two-planes", 2), 12),
    (("triangle-of-planes", 2), 33), (("drinfeld-local", 2, 3), 360),
    (("drinfeld-local", 2, 4), 639), (("drinfeld-local", 2, 2), 177),
    (("drinfeld-local", 2, 5), 1032)])
def test_the_size_budget_reads_the_total_e1_dimension(fixture, total):
    cx = make_fixture(*fixture)
    table = weight_table(cx)
    assert sum(table.e1_dim(i, j) for i, j in table.entries) == total == \
        sum(s.level * sum(s.ring.dims()) for s in cx.strata.values())
    if fixture[0] == "drinfeld-local":
        # the total drinfeld_local refuses from before building anything
        q = fixture[2]
        assert total == 9 + 3 * (q * q + q + 1) * (q + 6)


def test_a_complex_over_the_size_budget_is_refused_before_validation(
        monkeypatch):
    def unreachable(self):
        raise AssertionError("SemistableComplex._validate ran")
    monkeypatch.setattr(SemistableComplex, "_validate", unreachable)
    line = build_ring(proj(1))
    # 2001 lines: E1 total 4002
    strata = [Stratum("c%d" % i, frozenset([i]), line, {})
              for i in range(2001)]
    with pytest.raises(ResourceGuardError,
                       match="E1 total dimension 4002 exceeds the size "
                             "budget 4000"):
        SemistableComplex(strata, 2)


def test_monodromy_squares_to_zero_on_e1(tate32):
    cx = tate32
    table = weight_table(cx)
    for (i, j) in table.entries:
        n1 = table.n_map(i, j)
        n2 = table.n_map(i + 2, j - 2)
        # N^2 vanishes on the Tate curve (columns are two steps apart)
        assert linalg.is_zero_matrix(linalg.matmul(n2, n1))


def test_assembled_maps_are_exact(drinfeld22):
    # signs enter as integers: a float sign such as (-1) ** -1 would leak into
    # the integer rows of every block it multiplies
    cx = drinfeld22
    table = weight_table(cx)
    mats = []
    for (i, j) in table.entries:
        mats += [table.d1(i, j), table.n_map(i, j)]
    for t in sorted(cx.levels):
        for i in range(0, 2 * cx.n + 1, 2):
            mats += [cx.rho(t, i), cx.gram(t, i), level_primitive(cx, t, i)]
            mats += [cx.lef_power(t, i, p) for p in range(cx.n + 1)]
            if t >= 2:
                mats.append(cx.tau(t, i))
    assert all(type(m) is linalg.Matrix for m in mats)
    assert all(type(x) is int for m in mats for row in m.rows for x in row)


def test_induced_n_is_computed_once(monkeypatch):
    # a fresh complex: the module fixtures share their weight table
    cx = tate_cycle(3, 2)
    calls = []
    real_matmul = linalg.matmul

    def counting_matmul(a, b):
        calls.append(a.shape)
        return real_matmul(a, b)

    monkeypatch.setattr(linalg, "matmul", counting_matmul)
    first = zeta.zeta_function(cx)
    products = len(calls)
    assert products > 0
    assert zeta.zeta_function(cx) == first
    assert len(calls) == products


def test_inertia_invariants_match_the_rank_route(oracle_complexes):
    larger = [tate_cycle(4, 3), two_planes(2, 3), triangle_of_planes(3),
              drinfeld_local(2, 3)]
    for cx in oracle_complexes + larger:
        for w in range(2 * cx.n + 1):
            if check_purity(cx, w)[0]:
                assert inertia_invariants(cx, w) == \
                    inertia_invariants_by_ranks(cx, w), (cx.name, w)


def test_zeta_after_purity_makes_no_elimination(monkeypatch):
    # a fresh complex: purity ranks its N^r here, before the patch
    cx = drinfeld_local(2, 3)
    assert all(check_purity(cx, w)[0] for w in range(2 * cx.n + 1))
    calls = []
    for name in ("_forward", "_echelon", "matmul"):
        real = getattr(linalg, name)
        monkeypatch.setattr(linalg, name, lambda *args, real=real, name=name:
                            calls.append(name) or real(*args))
    assert str(zeta.zeta_function(cx)) == \
        "1 / ((1 - T)^16 (1 - 3T) (1 - 9T))"
    assert zeta.zeta_matches_weight_table(cx)
    assert calls == []


def test_induced_n_makes_no_elimination(monkeypatch):
    # a fresh complex: its E2 slots are computed here, before the patch
    cx = drinfeld_local(2, 3)
    table = weight_table(cx)
    table.e2()
    calls = []
    for name in ("_echelon", "_forward", "solve"):
        real = getattr(linalg, name)
        monkeypatch.setattr(linalg, name, lambda *args, real=real, name=name:
                            calls.append(name) or real(*args))
    induced = [table.induced_n(i, j) for (i, j) in table.entries]
    assert any(m.nrows and m.ncols for m in induced)
    assert calls == []


def test_check_purity_is_computed_once(monkeypatch):
    # a fresh complex whose N^2 on E2 is nonzero (w = 2, r = 2)
    cx = drinfeld_local(2, 2)
    first = check_purity(cx, 2)
    assert first[1][1] == {"r": 2, "dim_source": 2, "dim_target": 2,
                           "rank": 2, "ok": True}
    calls = []
    for name in ("matmul", "_echelon", "_forward"):
        real = getattr(linalg, name)
        monkeypatch.setattr(linalg, name, lambda *args, real=real, name=name:
                            calls.append(name) or real(*args))
    assert check_purity(cx, 2) == first
    assert calls == []


# -- oracle: E2 and the induced N ------------------------------------------------

def _fresh_rank(m):
    """The rank of m by an elimination of its own, whatever m's memo holds."""
    return len(linalg._forward(m.rows))


def _greedy_quotient_columns(cycles, boundaries):
    """Keep a cycle column when it raises the rank of the columns kept so far
    together with the boundaries."""
    chosen = linalg.zeros(cycles.nrows, 0)
    current = _fresh_rank(boundaries)
    for c in range(cycles.ncols):
        col = linalg.submatrix(cycles, cols=[c])
        if _fresh_rank(linalg.stack_columns(boundaries, chosen, col)) > current:
            chosen = linalg.stack_columns(chosen, col)
            current += 1
    return chosen


def _full_coordinate_induced_n(table, i, j):
    """N on E2 solved in the full E1 coordinates of the target: the
    reference for `WeightTable.induced_n`, which reads the coordinates off
    the boundaries' RREF without a solve."""
    sdim, tdim = table.e2_dim(i, j), table.e2_dim(i + 2, j - 2)
    if sdim == 0 or tdim == 0:
        return linalg.zeros(tdim, sdim)
    src, tgt = table.e2()[(i, j)], table.e2()[(i + 2, j - 2)]
    images = linalg.matmul(table.n_map(i, j), src["quotient"])
    basis = linalg.stack_columns(tgt["boundaries"], tgt["quotient"])
    coords = linalg.solve(basis, images)
    return linalg.submatrix(coords, rows=range(tgt["boundaries"].ncols,
                                               coords.nrows))


def test_e2_quotient_is_a_basis_of_cycles_modulo_boundaries(oracle_complexes):
    for cx in oracle_complexes:
        table = weight_table(cx)
        for (i, j), slot in table.e2().items():
            d_out, d_in = table.d1(i, j), table.d1(i - 1, j)
            quot, bnd = slot["quotient"], slot["boundaries"]
            assert linalg.is_zero_matrix(linalg.matmul(d_out, quot))
            assert _fresh_rank(linalg.stack_columns(bnd, quot)) \
                == _fresh_rank(bnd) + quot.ncols
            nullity = d_out.ncols - _fresh_rank(d_out)
            assert quot.ncols == nullity - _fresh_rank(d_in), (cx.name, i, j)


def test_quotient_basis_keeps_the_greedy_columns(oracle_complexes):
    for cx in oracle_complexes:
        for slot in weight_table(cx).e2().values():
            assert slot["quotient"] == _greedy_quotient_columns(
                slot["cycles"], slot["boundaries"])


@st.composite
def _differential_pairs(draw):
    """(d_out, d_in) with d_out . d_in = 0: d_in is a random combination of
    the cycles of a random small integer d_out."""
    r, c, k = (draw(st.integers(0, 6)) for _ in range(3))
    entries = st.integers(-2, 2)
    d_out = linalg.Matrix(draw(st.lists(st.lists(entries, min_size=c,
                                                 max_size=c),
                                        min_size=r, max_size=r)), 1, c)
    cycles = linalg.kernel_basis(d_out)
    mix = linalg.Matrix(draw(st.lists(st.lists(entries, min_size=k, max_size=k),
                                      min_size=cycles.ncols,
                                      max_size=cycles.ncols)), 1, k)
    return d_out, linalg.matmul(cycles, mix)


@settings(max_examples=100, deadline=None)
@given(_differential_pairs())
def test_homology_of_random_differentials_keeps_the_greedy_columns(pair):
    d_out, d_in = pair
    slot = _homology(d_out, d_in)
    assert slot["quotient"] == _greedy_quotient_columns(slot["cycles"],
                                                        slot["boundaries"])
    assert slot["quotient"].ncols == \
        d_out.ncols - _fresh_rank(d_out) - _fresh_rank(d_in)


def test_induced_n_matches_the_full_coordinate_solve(oracle_complexes):
    for cx in oracle_complexes:
        table = weight_table(cx)
        for (i, j) in table.entries:
            assert table.induced_n(i, j) == \
                _full_coordinate_induced_n(table, i, j), (cx.name, i, j)
        ref = lambda i, j: _full_coordinate_induced_n(table, i, j)
        for w in range(2 * cx.n + 1):
            ok, rows = check_purity(cx, w)
            for row in rows:
                if row["dim_source"] or row["dim_target"]:
                    r = row["r"]
                    assert row["rank"] == _fresh_rank(
                        _chain(ref, -r, w + r, r)), (cx.name, w, r)
            if not ok:
                continue
            expected = {}
            for i in range(-cx.n - 1, cx.n + 2):
                dim = table.e2_dim(i, w - i)
                kdim = dim - _fresh_rank(ref(i, w - i)) if dim else 0
                if kdim:
                    expected[w - i] = expected.get(w - i, 0) + kdim
            assert inertia_invariants(cx, w) == expected, (cx.name, w)


def test_e2_eliminates_each_differential_once(monkeypatch):
    cx = drinfeld_local(2, 2)     # fresh: no memo from other tests
    table = weight_table(cx)
    eliminated = []
    real = linalg._echelon

    def counting(m):
        eliminated.append(m)
        return real(m)

    monkeypatch.setattr(linalg, "_echelon", counting)
    slots = table.e2()
    differentials = [table.d1(i, j) for (i, j) in table.entries]
    for d in differentials:
        times = sum(m is d for m in eliminated)
        assert times == 1 or (times == 0 and linalg.is_zero_matrix(d))
    # the rest, empty matrices aside: at most one small elimination per slot,
    # of its boundaries in free coordinates (transposed)
    others = [m for m in eliminated if m.nrows and m.ncols
              and not any(m is d for d in differentials)]
    small = {(s["boundaries"].ncols, s["cycles"].ncols)
             for s in slots.values()}
    assert len(others) <= len(slots)
    assert all(m.shape in small for m in others)
    count = len(eliminated)
    table.e2()
    for (i, j) in table.entries:
        table.e2_dim(i, j)
    assert len(eliminated) == count


def _verdicts(rows):
    return [(r["lemma"], r["ok"]) for r in rows]


# the rows whose verdict the rank identities and the Im0 kernel cut decide
_REWRITTEN = ("ker_tau_cap_im_rho", "ker_rho_cap_im_tau",
              "hard_lefschetz_im0_rho", "hard_lefschetz_im1_rho",
              "duality_dims", "nondegenerate_im0_rho", "nondegenerate_im0_tau",
              "isomorphism_im0_to_im1", "orthogonal_splitting_tau")


def test_lemma_rows_match_the_subspace_route(tate32, quadric, drinfeld22):
    for cx in (tate32, quadric, triangle_of_planes(2), drinfeld22):
        ok, rows = verify_rz_lemmas(cx)
        want_ok, want = verify_rz_lemmas_by_subspaces(cx)
        assert ok and want_ok
        assert _verdicts(rows) == _verdicts(want)


def _perturb_rho(cx, t, i, row, col):
    """Raise entry (row, col) of the complex's rho(t, i) by one."""
    m = cx.rho(t, i)
    rows = [list(r) for r in m.rows]
    rows[row][col] += m.den
    cx.memo[("rho", t, i)] = linalg.Matrix(rows, m.den, m.ncols)


@pytest.mark.parametrize("t,i,row,col", [(1, 0, 0, 0), (1, 2, 0, 0),
                                         (2, 0, 5, 1)])
def test_perturbed_rho_fails_the_same_rows_on_both_routes(t, i, row, col):
    # a fresh complex: the perturbed map stays on it
    cx = drinfeld_local(2, 2)
    _perturb_rho(cx, t, i, row, col)
    ok, rows = verify_rz_lemmas(cx)
    want_ok, want = verify_rz_lemmas_by_subspaces(cx)
    assert not ok and not want_ok
    assert _verdicts(rows) == _verdicts(want)
    assert any(not r["ok"] and r["lemma"].startswith(_REWRITTEN) for r in rows)
    if (t, i, row, col) == (1, 0, 0, 0):
        assert not dict(_verdicts(rows))["orthogonal_splitting_tau[t=1,i=0]"]


def test_lemma_suite_takes_no_subspace_intersection(monkeypatch):
    cx = drinfeld_local(2, 2)
    calls = []
    real = linalg.subspace_intersection

    def counted(a, b):
        calls.append((a.shape, b.shape))
        return real(a, b)

    monkeypatch.setattr(linalg, "subspace_intersection", counted)
    ok, _ = verify_rz_lemmas(cx)
    assert ok and calls == []


# -- one layout for d1, N and the lemma suite --------------------------------------

def test_d1_is_made_of_signed_level_maps(oracle_complexes):
    # part k of E1[i, j] goes to part k+1 of E1[i+1, j] by (-1)^(k-i)
    # rho(t, s) and to part k by (-1)^k tau(t, s); every other block is zero
    for cx in oracle_complexes:
        table = weight_table(cx)
        for (i, j) in table.entries:
            d = table.d1(i, j)
            src, _ = table.parts(i, j)
            tgt, _ = table.parts(i + 1, j)
            for k, (t, s, col) in src.items():
                cols = range(col, col + cx.level_dim(t, s))
                for k2, (t2, s2, row) in tgt.items():
                    rows = range(row, row + cx.level_dim(t2, s2))
                    if k2 == k + 1:
                        want = linalg.scale(cx.rho(t, s), (-1) ** (k - i))
                    elif k2 == k:
                        want = linalg.scale(cx.tau(t, s), (-1) ** k)
                    else:
                        want = linalg.zeros(len(rows), len(cols))
                    assert linalg.submatrix(d, rows, cols) == want, \
                        (cx.name, i, j, k, k2)


def test_n_is_the_signed_identity_from_each_part_to_the_next(
        oracle_complexes):
    # part k of E1[i, j] goes to part k+1 of E1[i+2, j-2], the same
    # H^s(X^(t)), by (-1)^i times the identity; every other block is zero.
    # The table checks neither of the identities this gives, so they are
    # recomputed here: N d1 = d1 N at every entry, N^r bijective on E1
    roundtrip = load_complex(complex_to_json(oracle_complexes[1]))
    for cx in oracle_complexes + [roundtrip]:
        table = weight_table(cx)
        for (i, j) in table.entries:
            n = table.n_map(i, j)
            src, _ = table.parts(i, j)
            tgt, _ = table.parts(i + 2, j - 2)
            for k, (t, s, col) in src.items():
                cols = range(col, col + cx.level_dim(t, s))
                for k2, (t2, s2, row) in tgt.items():
                    rows = range(row, row + cx.level_dim(t2, s2))
                    want = linalg.scale(linalg.identity(len(cols)), (-1) ** i) \
                        if k2 == k + 1 else linalg.zeros(len(rows), len(cols))
                    assert linalg.submatrix(n, rows, cols) == want, \
                        (cx.name, i, j, k, k2)
        assert e1_monodromy_failures(table) == ([], []), cx.name


def _span(cx, t, i, sid):
    """The rows or columns of stratum sid in H^i(X^(t))."""
    offsets, _ = cx.level_layout(t, i)
    ring = cx.strata[sid].ring
    return range(offsets[sid], offsets[sid] + len(ring.basis[i // 2])
                 if i // 2 <= ring.n else offsets[sid])


def test_level_maps_carry_the_cech_signs(oracle_complexes):
    # the block of rho(t, i) from a parent to a child that drops index m is
    # (-1)^(position of m in the child's subset) times the restriction, and
    # that of tau(t+1, i) from the child to the parent the same sign times
    # the Gysin map
    for cx in oracle_complexes:
        for t in sorted(cx.levels):
            for i in range(0, 2 * cx.n + 1, 2):
                for cid in cx.levels.get(t + 1, []):
                    child = cx.strata[cid]
                    for m, (pid, mats) in child.parents.items():
                        sign = (-1) ** sorted(child.subset).index(m)
                        rows, cols = _span(cx, t + 1, i, cid), _span(cx, t, i, pid)
                        if rows and cols:
                            assert linalg.submatrix(cx.rho(t, i), rows, cols) \
                                == linalg.scale(mats[i // 2], sign)
                        rows, cols = _span(cx, t, i + 2, pid), \
                            _span(cx, t + 1, i, cid)
                        if rows and cols:
                            assert linalg.submatrix(cx.tau(t + 1, i), rows,
                                                    cols) \
                                == linalg.scale(cx.gysin(cid, m)[i // 2], sign)


def test_lemma_suite_reads_the_level_maps_of_d1():
    cx = drinfeld_local(2, 2)     # fresh: no memo from other tests
    weight_table(cx)
    built = {key: m for key, m in cx.memo.items() if key[0] in ("rho", "tau")}
    assert built
    ok, _ = verify_rz_lemmas(cx)
    assert ok
    assert all(cx.memo[key] is m for key, m in built.items())
    # the suite adds only the tau out of degree -2 (the rho tau' of its
    # kernel-image rows at i = 0), a map from the zero space
    added = {key: cx.memo[key] for key in cx.memo
             if key[0] in ("rho", "tau") and key not in built}
    assert all(key[2] < 0 and m.ncols == 0 for key, m in added.items())


def test_one_lefschetz_context_per_ring_and_class(monkeypatch):
    cx = drinfeld_local(2, 3)
    rings = []
    real = weightss.make_context
    monkeypatch.setattr(weightss, "make_context",
                        lambda ring, cls: rings.append(ring) or real(ring, cls))
    ok, _ = verify_rz_lemmas(cx)
    assert ok
    assert len(cx.strata) == 94 and len(rings) == 3   # 3 distinct pairs


def test_triangle_of_planes_makes_one_context_per_ring_and_class(
        monkeypatch):
    # its three components share one surface ring and one class
    cx = triangle_of_planes(2)
    rings = []
    real = weightss.make_context
    monkeypatch.setattr(weightss, "make_context",
                        lambda ring, cls: rings.append(ring) or real(ring, cls))
    ok, _ = verify_rz_lemmas(cx)
    assert ok
    assert len({id(cx.strata["X%d" % i].ring) for i in range(3)}) == 1
    assert len(rings) == 3   # the surface, the double curves, the point


def test_the_drinfeld_double_strata_share_one_p1_ring():
    # the D_V of a point (P^0 x P^1) and of a line (P^1 x P^0) are one ring,
    # so both parents restrict into it with no change of coordinates
    cx = drinfeld_local(2, 3)
    p1 = build_ring(proj(1))
    doubles = [s for s in cx.strata.values() if len(s.subset) == 2]
    assert len(doubles) == 39
    for s in doubles:
        assert s.ring is p1
        for _, mats in s.parents.values():
            assert [m.shape for m in mats] == [(1, 1), (1, 14)], s.id
    component = cx.strata["X0"].ring
    point, line = (ambient_geometry(2, 3).by_dim[d][0]
                   for d in (0, 1))
    assert restrict_to_divisor(component, point)[0] is p1
    assert restrict_to_divisor(component, line)[0] is p1


def _repolarized(cx, **classes):
    """cx rebuilt with the polarizations of the named strata replaced."""
    return SemistableComplex(
        [Stratum(s.id, s.subset, s.ring, s.parents,
                 classes.get(s.id, s.polarization))
         for s in cx.strata.values()], cx.q, cx.name)


def test_hard_lefschetz_failure_names_the_stratum():
    # c0 and c1 share their ring; only c1's class fails hard Lefschetz
    cx = _repolarized(tate_cycle(3, 2), c1=[0])
    with pytest.raises(ValueError,
                       match="hard Lefschetz fails on stratum c1;"):
        verify_rz_lemmas(cx)


def test_every_fixture_stratum_carries_its_polarization(oracle_complexes):
    for cx in oracle_complexes:
        assert all(type(s.polarization) is tuple
                   and all(type(x) is Fraction for x in s.polarization)
                   for s in cx.strata.values()), cx.name
    assert two_planes(2, 2).strata["X1"].polarization == (3, -1, -1)


def test_a_class_that_is_no_restriction_is_refused_by_name():
    # h restricts to [1] on the line L; [5] passed the lemma suite when the
    # classes were not checked against the restrictions
    with pytest.raises(ComplexValidationError,
                       match="^polarization mismatch on L$"):
        _repolarized(two_planes(2, 2), L=[5])
    # a parent without a class constrains nothing
    cx = _repolarized(two_planes(2, 2), X0=None, X1=None, L=[5])
    assert cx.strata["L"].polarization == (5,)


@pytest.mark.parametrize("sid,cls,size", [("c1", [1, 2], 1),
                                          ("node0", [1], 0)])
def test_a_class_of_the_wrong_length_is_refused_by_name(sid, cls, size):
    with pytest.raises(ComplexValidationError,
                       match=r"^stratum %s: polarization has length %d, "
                             r"dim N\^1 is %d$" % (sid, len(cls), size)):
        _repolarized(tate_cycle(3, 2), **{sid: cls})


def test_the_lemma_suite_needs_a_polarization_on_every_stratum():
    cx = load_complex(complex_to_json(tate_cycle(3, 2)))
    assert all(s.polarization is None for s in cx.strata.values())
    with pytest.raises(ValueError, match="stratum c0 carries no polarization"):
        verify_rz_lemmas(cx)
