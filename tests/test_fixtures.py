"""The Drinfeld fixture's Singer labelling and flag matching, checked from
their definitions with no ring built: the trace sequence labels every point
of P^2 once, its zero set D is a multiplier-fixed perfect difference set that
gives the incidences, and the matching covers the incident pairs on each side
of the triangle exactly once."""

import pytest

from purity.fixtures import _singer_labelling, _triangle_matching
from purity.geometry import contains, enumerate_subspaces, make_subvariety

QS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]


@pytest.mark.parametrize("q", QS)
def test_the_labelling_is_every_point_once(q):
    points, _ = _singer_labelling(q)
    assert len(points) == q * q + q + 1
    assert set(points) == set(enumerate_subspaces(2, q, 0))


@pytest.mark.parametrize("q", QS)
def test_the_trace_zero_set_is_a_multiplier_fixed_difference_set(q):
    _, D = _singer_labelling(q)
    m = q * q + q + 1
    # a perfect difference set: every nonzero residue is one difference
    diffs = sorted((a - b) % m for a in D for b in D if a != b)
    assert len(D) == q + 1 and diffs == list(range(1, m))
    assert {q * d % m for d in D} == set(D)


@pytest.mark.parametrize("q", [q for q in QS if q <= 8])
def test_the_lines_are_the_translates_of_D(q):
    # l_a, the line through p_(a+d) for the first two d in D, holds p_b iff
    # b - a is in D; l_0 is the line x_0 = 0
    points, D = _singer_labelling(q)
    m = len(points)
    assert {b for b in range(m) if points[b].basis[0][0] == 0} == set(D)
    for a in range(m):
        line = make_subvariety(2, [points[(a + d) % m].basis[0]
                                   for d in D[:2]], q)
        assert {b for b in range(m) if contains(line, points[b])} \
            == {(a + d) % m for d in D}


@pytest.mark.parametrize("q", QS)
def test_the_flag_matching_is_an_exact_cover(q):
    _, D = _singer_labelling(q)
    m = q * q + q + 1
    matching = _triangle_matching(D, q)
    # (a, b) is incident when p_b lies on l_a, i.e. b - a in D
    incident = {(a, (a + d) % m) for a in range(m) for d in D}
    assert len(matching) == len(incident) == m * (q + 1)
    for side in ([(i, j) for i, j, _ in matching],
                 [(j, k) for _, j, k in matching],
                 [(k, i) for i, _, k in matching]):
        assert len(set(side)) == len(side) and set(side) == incident
