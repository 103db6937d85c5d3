"""The Drinfeld fixture's flag matching, checked from its definition: an exact
cover of the incident pairs on each side of the triangle, with no ring
built."""

import pytest

from purity.fields import field_spec
from purity.fixtures import _singer_labelling, _triangle_matching
from purity.geometry import contains


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_the_flag_matching_is_an_exact_cover(q):
    points, lines = _singer_labelling(2, field_spec(q))
    m = q * q + q + 1
    assert len(points) == len(lines) == m
    d0 = {b for b in range(m) if contains(lines[0], points[b])}
    # a perfect difference set: every nonzero residue is one difference
    diffs = sorted((a - b) % m for a in d0 for b in d0 if a != b)
    assert len(d0) == q + 1 and diffs == list(range(1, m))

    offset, matching = _triangle_matching(points, lines, q)

    def translate(c):
        return {(x + c) % m for x in d0}

    fixed = [c for c in range(m) if {q * x % m for x in translate(c)}
             == translate(c)]
    # D + t is fixed as well iff (q - 1)t = 0 mod m: gcd(q - 1, m) in all
    assert offset == fixed[0] and len(fixed) == (3 if m % 3 == 0 else 1)

    # (a, b) is incident when p_b lies on l_(a + offset), i.e. b - a in D
    incident = {(a, (a + x) % m) for a in range(m) for x in translate(offset)}
    if q <= 8:
        assert incident == {(a, b) for a in range(m) for b in range(m)
                            if contains(lines[(a + offset) % m], points[b])}
    assert len(matching) == len(incident) == m * (q + 1)
    for side in ([(i, j) for i, j, _ in matching],
                 [(j, k) for _, j, k in matching],
                 [(k, i) for i, _, k in matching]):
        assert len(set(side)) == len(side) and set(side) == incident
