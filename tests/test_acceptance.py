"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Tolerances are exact: every assertion is integer or rational equality.
"""

import json
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
from oracle import divisor_vector, product_lefschetz_vector, subspaces_by_dim

from purity import linalg
from purity.cli import main as cli_main
from purity.cohomology import (GEN_H, betti_numbers, blowup, build_ring,
                               gen_e, intersection_number, monomial, product)
from purity.fixtures import drinfeld_local, tate_cycle, two_planes
from purity.geometry import ambient_geometry, enumerate_subspaces, \
    gaussian_binomial
from purity.lefschetz import (check_hard_lefschetz, check_hodge_standard,
                              is_positive, make_context, omega_form)
from purity.weightss import (ComplexValidationError, check_purity,
                             complex_to_json, euler_check, load_complex,
                             verify_rz_lemmas, weight_table)
from purity.zeta import mu_from_e2, zeta_function, zeta_matches_weight_table

from test_geometry import packed_points


def report(num, label, elapsed=None):
    suffix = "" if elapsed is None else " (%.1fs)" % elapsed
    print("\nACCEPTANCE %d [%s]: PASS%s" % (num, label, suffix))


def test_criterion_1_enumeration():
    t0 = time.time()
    for q in (2, 3, 4):
        for n in range(1, 5):
            oracle_levels = subspaces_by_dim(q, n + 1)
            for d in range(0, n + 1):
                subs = enumerate_subspaces(n, q, d)
                assert len(subs) == gaussian_binomial(n + 1, d + 1, q)
                assert {packed_points(V) for V in subs} == set(oracle_levels[d + 1])
    elapsed = time.time() - t0
    assert elapsed < 10.0, "enumeration took %.1fs, budget 10s" % elapsed
    report(1, "subspace enumeration vs Gaussian binomials and brute force",
           elapsed)


def test_criterion_2_ring_integrity():
    t0 = time.time()
    for (n, q) in [(1, 2), (2, 2), (2, 3), (3, 2)]:
        spec = blowup(n, q)
        ring = build_ring(spec)
        assert ring.dims() == betti_numbers(spec)
        for j in range(ring.n + 1):
            assert linalg.rank(ring.pairing[j]) == ring.dims()[j]
    spec3 = blowup(3, 2)
    ring3 = build_ring(spec3)
    rng = random.Random(1234)
    gens = ring3.basis[1]
    for _ in range(200):
        mono = monomial(sum((rng.choice(gens) for _ in range(3)), ()))
        assert intersection_number(spec3, mono,
                                   chooser=lambda opts: rng.choice(opts)) \
            == intersection_number(spec3, mono)
    elapsed = time.time() - t0
    assert elapsed < 120.0
    report(2, "ring integrity, Betti match, descent-order independence",
           elapsed)


def test_criterion_3_hodge_standard_desk_scale():
    t0 = time.time()
    inertia_checked = False
    for (n, q) in [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2)]:
        ring = build_ring(blowup(n, q))
        ctx = make_context(ring, omega_form(n, q).vector(ring))
        hl, _ = check_hard_lefschetz(ctx)
        assert hl, (n, q)
        hodge, rep = check_hodge_standard(ctx)
        assert hodge, (n, q)
        if (n, q) == (2, 2):
            from purity.lefschetz import lefschetz_pairing_gram
            cup = linalg.scale(lefschetz_pairing_gram(ctx, 1), -1)
            sig = linalg.symmetric_signature(cup)
            assert (sig.n_plus, sig.n_minus, sig.n_zero) == (1, 7, 0)
            inertia_checked = True
    assert inertia_checked
    elapsed = time.time() - t0
    assert elapsed < 300.0
    report(3, "hard Lefschetz + Hodge positivity for omega on B^1..B^3; "
              "cup form inertia (1,7) on B^2/F_2", elapsed)


def test_criterion_4_positivity_criterion():
    form = omega_form(2, 2)
    assert is_positive(form)
    margin = form.levels[0] + form.alpha * Fraction(3, 7)
    assert margin == Fraction(5, 7)
    from purity.lefschetz import normalize_invariant
    assert not is_positive(normalize_invariant(2, 2, 1, [-1, 0]))
    assert not is_positive(normalize_invariant(2, 2, 0, [1, 0]))
    # the non-unique representation D_0 + D_1 is genuinely positive
    assert is_positive(normalize_invariant(2, 2, 0, [1, 1]))
    report(4, "positivity criterion exact, omega margin 5/7 on B^2/F_2")


def test_criterion_5_kunneth():
    t0 = time.time()
    r1 = build_ring(blowup(1, 2))
    b2 = build_ring(blowup(2, 2))
    for factors in [(r1, r1), (r1, b2)]:
        ring = build_ring(product(*(r.spec for r in factors)))
        vec = product_lefschetz_vector(
            ring, [omega_form(r.n, 2).vector(r) for r in factors])
        ctx = make_context(ring, vec)
        assert check_hard_lefschetz(ctx)[0]
        assert check_hodge_standard(ctx)[0]
    report(5, "Kunneth: HL + Hodge on B^1 x B^1 and B^1 x B^2",
           time.time() - t0)


FIXTURES = None


def _fixtures():
    global FIXTURES
    if FIXTURES is None:
        FIXTURES = {
            "tate-cycle(3,2)": tate_cycle(3, 2),
            "tate-cycle(5,3)": tate_cycle(5, 3),
            "two-planes(2)": two_planes(2, 2),
            "drinfeld-local(2,2)": drinfeld_local(2, 2),
        }
    return FIXTURES


def test_criterion_6_spectral_sequence():
    for name, cx in _fixtures().items():
        t0 = time.time()
        weight_table(cx)      # d1^2 = 0, N d1 = d1 N, E1 N^r isomorphisms
        ok_euler, _ = euler_check(cx)
        assert ok_euler, name
        for w in range(0, 2 * cx.n + 1):
            ok, _ = check_purity(cx, w)
            assert ok, (name, w)
        elapsed = time.time() - t0
        assert elapsed < 120.0, (name, elapsed)
    report(6, "d1^2 = 0, monodromy commutation, E1 isomorphisms, Euler "
              "conservation and purity on all four fixtures")


def test_criterion_7_lemma_suite():
    for name, cx in _fixtures().items():
        ok, rows = verify_rz_lemmas(cx)
        assert ok, (name, [r["lemma"] for r in rows if not r["ok"]])
    report(7, "positivity lemma suite exact on all four fixtures")


def test_criterion_8_zeta_reproduction():
    for m in (2, 3, 5):
        for q in (2, 3):
            cx = tate_cycle(m, q)
            assert mu_from_e2(cx, 1) == 1
            z = zeta_function(cx)
            assert dict(z.factors) == {1: -1}, (m, q)   # = 1 / (1 - qT)
    for name, cx in _fixtures().items():
        assert zeta_matches_weight_table(cx), name
    report(8, "zeta = 1/(1-qT) for Tate cycles; factored form matches the "
              "weight table bijectively on every purity-passing fixture")


def test_criterion_9_negative_controls(tmp_path, capsys):
    ring = build_ring(blowup(2, 2))
    geom = ambient_geometry(2, 2)
    P = geom.by_dim[0][0]
    # e_P is not positive; the combined verification fails (Hodge positivity:
    # its square -1 still gives an isomorphism H^0 -> H^4)
    ctx = make_context(ring, divisor_vector(ring, {gen_e(P): Fraction(1)}))
    assert check_hard_lefschetz(ctx)[0]
    assert not check_hodge_standard(ctx)[0]
    # a non-positive class that kills hard Lefschetz outright: (h - e_P)^2 = 0
    ctx2 = make_context(ring, divisor_vector(
        ring, {GEN_H: Fraction(1), gen_e(P): Fraction(-1)}))
    assert not check_hard_lefschetz(ctx2)[0]
    # corrupted restriction matrix: rejected at load, CLI exit code 2
    cx = drinfeld_local(2, 2)
    data = complex_to_json(cx)
    for node in data["strata"]:
        if len(node["subset"]) == 3:
            key = sorted(node["parents"])[0]
            node["parents"][str(key)]["restriction"][0][0][0] = "2"
            break
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    with pytest.raises(ComplexValidationError):
        load_complex(json.loads(bad.read_text()))
    code = cli_main(["wss", "--input", str(bad)])
    capsys.readouterr()
    assert code == 2
    report(9, "negative controls: non-positive divisors fail verification "
              "(e_P via Hodge positivity, h - e_P via hard Lefschetz); "
              "corrupted input rejected with exit 2")
