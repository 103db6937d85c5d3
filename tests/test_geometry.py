import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
from oracle import subspaces_by_dim

from purity.fields import field_spec, get_field
from purity.geometry import (AmbientGeometry, GeometryError, ambient_geometry,
                             contains,
                             enumerate_subspaces, gaussian_binomial,
                             make_subvariety, meet, point_count,
                             quotient_geometry, quotient_image, sub_image,
                             whole_space)


def packed_points(V):
    """All nonzero vectors of the row space, packed base q (oracle format)."""
    fq = get_field(V.field)
    q = fq.q
    vectors = {tuple([0] * (V.ambient_n + 1))}
    for row in V.basis:
        new = set(vectors)
        for c in range(1, q):
            crow = tuple(fq.mul(c, x) for x in row)
            for v in vectors:
                new.add(tuple(fq.add(a, b) for a, b in zip(v, crow)))
        vectors = new
    out = set()
    for v in vectors:
        if any(v):
            packed = 0
            for x in reversed(v):
                packed = packed * q + x
            out.add(packed)
    return frozenset(out)


def test_point_count_examples():
    assert point_count(2, 2) == 7
    assert point_count(0, 5) == 1
    assert point_count(3, 3) == 40


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_enumeration_matches_brute_force(n, q):
    field = field_spec(q)
    oracle_levels = subspaces_by_dim(q, n + 1)
    for d in range(0, n + 1):
        subs = enumerate_subspaces(n, field, d)
        assert len(subs) == gaussian_binomial(n + 1, d + 1, q)
        assert len(set(subs)) == len(subs)
        ours = {packed_points(V) for V in subs}
        theirs = set(oracle_levels[d + 1])
        assert ours == theirs


def test_enumeration_examples():
    assert len(enumerate_subspaces(1, field_spec(2), 0)) == 3
    assert len(enumerate_subspaces(2, field_spec(2), 1)) == 7
    assert len(enumerate_subspaces(3, field_spec(2), 1)) == 35


def test_enumeration_rejects_bad_input():
    with pytest.raises(GeometryError):
        enumerate_subspaces(2, field_spec(2), 3)
    with pytest.raises(GeometryError):
        enumerate_subspaces(7, field_spec(2), 1)


def test_contains_is_partial_order():
    field = field_spec(2)
    geom = ambient_geometry(2, field)
    all_subs = geom.all_proper() + [geom.subvarieties(2)[0]] \
        if False else geom.all_proper()
    for v in all_subs:
        assert contains(v, v)
    rng = random.Random(7)
    for _ in range(200):
        a, b, c = (rng.choice(all_subs) for _ in range(3))
        if contains(a, b) and contains(b, a):
            assert a == b
        if contains(a, b) and contains(b, c):
            assert contains(a, c)


def test_containment_by_construction():
    field = field_spec(3)
    geom = ambient_geometry(2, field)
    line = geom.subvarieties(1)[0]
    pts_on = [p for p in geom.subvarieties(0) if contains(line, p)]
    assert len(pts_on) == 4
    others = [p for p in geom.subvarieties(0) if p not in pts_on]
    assert all(not contains(line, p) for p in others)


def test_quotient_geometry_examples():
    field = field_spec(2)
    geom = ambient_geometry(2, field)
    P = geom.subvarieties(0)[0]
    qmap = quotient_geometry(P)
    lines_through = [w for w in qmap if w.dim == 1]
    assert len(lines_through) == 3
    images = {qmap[w] for w in lines_through}
    assert len(images) == 3
    assert all(v.ambient_n == 1 and v.dim == 0 for v in images)
    # top element maps to the whole target
    geom3 = ambient_geometry(3, field)
    L = geom3.subvarieties(1)[0]
    from purity.geometry import whole_space
    top = whole_space(3, field)
    img = quotient_image(L, top)
    assert img.dim == 1 and img.ambient_n == 1


def test_quotient_preserves_containment():
    field = field_spec(2)
    geom = ambient_geometry(3, field)
    P = geom.subvarieties(0)[0]
    qmap = quotient_geometry(P)
    planes = [w for w in qmap if w.dim == 2]
    assert len(planes) == 7
    assert len({qmap[w] for w in planes}) == 7
    for w1 in qmap:
        for w2 in qmap:
            assert contains(w1, w2) == contains(qmap[w1], qmap[w2])


def test_sub_image_preserves_containment():
    field = field_spec(2)
    geom = ambient_geometry(3, field)
    plane = geom.subvarieties(2)[0]
    inside = [w for w in geom.all_proper()
              if w.dim < 2 and contains(plane, w)]
    images = {w: sub_image(plane, w) for w in inside}
    for w1 in inside:
        for w2 in inside:
            assert contains(w1, w2) == contains(images[w1], images[w2])


def test_canonical_form_under_coordinate_permutation():
    field = field_spec(3)
    rng = random.Random(11)
    perm = list(range(4))
    rng.shuffle(perm)
    subs = enumerate_subspaces(3, field, 1)
    permuted = set()
    for v in subs:
        rows = [tuple(row[perm[j]] for j in range(4)) for row in v.basis]
        permuted.add(make_subvariety(3, rows, field))
    assert permuted == set(subs)


def test_meet_is_the_lattice_meet():
    field = field_spec(2)
    geom = ambient_geometry(2, field)
    lines = geom.subvarieties(1)
    a, b = lines[0], lines[1]
    m = meet(a, b)
    assert m.dim == 0 and contains(a, m) and contains(b, m)
    pts = geom.subvarieties(0)
    p, r = pts[0], pts[1]
    assert meet(p, r).dim == -1


@pytest.mark.parametrize("n,q", [(1, 3), (2, 3), (3, 2), (3, 3)])
def test_incidence_masks_match_fq_containment(n, q):
    geom = AmbientGeometry(n, field_spec(q))   # fresh: numbered on first use
    proper = geom.all_proper()
    for V in proper:
        assert [geom.contains(V, W) for W in proper] == \
            [contains(V, W) for W in proper]
        assert geom.strict_subs(V) == tuple(
            W for W in proper if W.dim < V.dim and contains(V, W))
        assert geom.strict_supers(V) == tuple(
            W for W in proper if W.dim > V.dim and contains(W, V))
        assert geom.least_hyperplane_containing(V) == next(
            H for H in geom.subvarieties(n - 1) if contains(H, V))


def test_incidence_rejects_subvarieties_outside_the_numbering():
    geom = ambient_geometry(2, field_spec(2))
    P = geom.subvarieties(0)[0]
    with pytest.raises(GeometryError, match="not a proper subvariety"):
        geom.contains(whole_space(2, field_spec(2)), P)
