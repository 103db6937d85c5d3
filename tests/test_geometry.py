import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
from oracle import subspaces_by_dim

from purity.fields import FieldError, get_field
from purity.geometry import (AmbientGeometry, GeometryError,
                             LinearSubvariety, ambient_geometry, contains,
                             enumerate_subspaces, gaussian_binomial,
                             make_subvariety, point_count, quotient_image,
                             sub_image)


def whole_space(ambient_n, q):
    rows = tuple(tuple(1 if j == i else 0 for j in range(ambient_n + 1))
                 for i in range(ambient_n + 1))
    return LinearSubvariety(ambient_n, ambient_n, rows, q)


def quotient_map(V):
    """{W: its quotient image} over the proper W strictly containing V."""
    geom = ambient_geometry(V.ambient_n, V.q)
    return {W: quotient_image(V, W) for W in geom.proper
            if W != V and contains(W, V)}


def packed_points(V):
    """All nonzero vectors of the row space, packed base q (oracle format)."""
    fq = get_field(V.q)
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
    oracle_levels = subspaces_by_dim(q, n + 1)
    for d in range(0, n + 1):
        subs = enumerate_subspaces(n, q, d)
        assert len(subs) == gaussian_binomial(n + 1, d + 1, q)
        assert len(set(subs)) == len(subs)
        ours = {packed_points(V) for V in subs}
        theirs = set(oracle_levels[d + 1])
        assert ours == theirs


def test_enumeration_examples():
    assert len(enumerate_subspaces(1, 2, 0)) == 3
    assert len(enumerate_subspaces(2, 2, 1)) == 7
    assert len(enumerate_subspaces(3, 2, 1)) == 35


def test_enumeration_rejects_bad_input():
    with pytest.raises(GeometryError):
        enumerate_subspaces(2, 2, 3)
    with pytest.raises(GeometryError):
        enumerate_subspaces(7, 2, 1)


def test_contains_is_partial_order():
    q = 2
    geom = ambient_geometry(2, q)
    for v in geom.proper:
        assert contains(v, v)
    rng = random.Random(7)
    for _ in range(200):
        a, b, c = (rng.choice(geom.proper) for _ in range(3))
        if contains(a, b) and contains(b, a):
            assert a == b
        if contains(a, b) and contains(b, c):
            assert contains(a, c)


def test_containment_by_construction():
    q = 3
    geom = ambient_geometry(2, q)
    line = geom.by_dim[1][0]
    pts_on = [p for p in geom.by_dim[0] if contains(line, p)]
    assert len(pts_on) == 4
    others = [p for p in geom.by_dim[0] if p not in pts_on]
    assert all(not contains(line, p) for p in others)


def test_quotient_geometry_examples():
    q = 2
    geom = ambient_geometry(2, q)
    P = geom.by_dim[0][0]
    qmap = quotient_map(P)
    lines_through = [w for w in qmap if w.dim == 1]
    assert len(lines_through) == 3
    images = {qmap[w] for w in lines_through}
    assert len(images) == 3
    assert all(v.ambient_n == 1 and v.dim == 0 for v in images)
    # top element maps to the whole target
    geom3 = ambient_geometry(3, q)
    L = geom3.by_dim[1][0]
    top = whole_space(3, q)
    img = quotient_image(L, top)
    assert img.dim == 1 and img.ambient_n == 1


def test_quotient_preserves_containment():
    q = 2
    geom = ambient_geometry(3, q)
    P = geom.by_dim[0][0]
    qmap = quotient_map(P)
    planes = [w for w in qmap if w.dim == 2]
    assert len(planes) == 7
    assert len({qmap[w] for w in planes}) == 7
    for w1 in qmap:
        for w2 in qmap:
            assert contains(w1, w2) == contains(qmap[w1], qmap[w2])


def test_sub_image_preserves_containment():
    q = 2
    geom = ambient_geometry(3, q)
    plane = geom.by_dim[2][0]
    inside = [w for w in geom.proper
              if w.dim < 2 and contains(plane, w)]
    images = {w: sub_image(plane, w) for w in inside}
    for w1 in inside:
        for w2 in inside:
            assert contains(w1, w2) == contains(images[w1], images[w2])


def test_canonical_form_under_coordinate_permutation():
    q = 3
    rng = random.Random(11)
    perm = list(range(4))
    rng.shuffle(perm)
    subs = enumerate_subspaces(3, q, 1)
    permuted = set()
    for v in subs:
        rows = [tuple(row[perm[j]] for j in range(4)) for row in v.basis]
        permuted.add(make_subvariety(3, rows, q))
    assert permuted == set(subs)


@pytest.mark.parametrize("n,q", [(0, 2), (1, 3), (2, 3), (3, 2), (3, 3)])
def test_incidence_masks_match_fq_containment(n, q):
    geom = AmbientGeometry(n, q)   # fresh: numbered at construction
    proper = geom.proper
    assert geom.by_dim == [enumerate_subspaces(n, q, d)
                           for d in range(n)]
    assert proper == [V for subs in geom.by_dim for V in subs]
    assert geom.bits == {V: i for i, V in enumerate(proper)}
    for i, V in enumerate(proper):
        inside = [j for j, W in enumerate(proper) if contains(V, W)]
        around = [j for j, W in enumerate(proper) if contains(W, V)]
        assert geom.below[i] == sum(1 << j for j in inside)
        assert geom.above[i] == sum(1 << j for j in around)
        assert geom.comparable[i] == geom.below[i] | geom.above[i]
        assert geom.strict_subs(i) == [j for j in inside if j != i]
        assert geom.least_hyperplane_containing(i) == next(
            j for j in around if proper[j].dim == n - 1)


def test_a_float_field_size_is_refused_before_and_after_the_int():
    # the geometry cache is typed: the int's entry does not answer a float
    with pytest.raises(FieldError, match="must be an int"):
        ambient_geometry(2, 4.0)
    ambient_geometry(2, 4)
    with pytest.raises(FieldError, match="must be an int"):
        ambient_geometry(2, 4.0)
