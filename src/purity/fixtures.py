"""Built-in semistable complexes.

All fixtures are generated in process so they always match the live schema:

* tate_cycle(m, q): a cycle of m projective lines (the m-gon degeneration of
  an elliptic curve); m = 2 gives two components meeting in two points.
* two_planes(n=2, q): the minimal two-component semistable degeneration of a
  smooth quadric surface: a plane and a plane blown up in two points, glued
  along a line whose normal degrees are +1 and -1.
* triangle_of_planes(q): three planes pairwise glued along lines with a
  single triple point; each plane carries three blow-ups placed so that every
  double curve has total normal degree -1 (the semistable cubic-surface
  degeneration).
* drinfeld_local(d=2, q): the one-vertex-per-type quotient shape of the
  Drinfeld special fiber: three components isomorphic to B^2, glued along all
  their exceptional-type divisors, with triple points indexed by a flag
  matching found by exact cover over a cyclic (Singer) labelling.
"""

from __future__ import annotations

import inspect
import itertools
from fractions import Fraction

from . import linalg
from .cohomology import blowup, build_ring, proj, restrict_to_divisor
from .fields import _prime_power, field_spec, get_field
from .geometry import ambient_geometry, contains, make_subvariety
from .lefschetz import omega_vector
from .weightss import SemistableComplex, Stratum, explicit_surface_ring


class FixtureError(ValueError):
    pass


def _one():
    return [[Fraction(1)]]


def tate_cycle(m, q):
    """Cycle of m projective lines over F_q; the special fiber of a Tate curve."""
    if m < 2:
        raise FixtureError("tate-cycle needs at least 2 components")
    _prime_power(q)   # q must be a field size: raises FieldError otherwise
    p1 = build_ring(proj(1))
    pt = build_ring(proj(0))
    strata = []
    l_system = {}
    for i in range(m):
        sid = "c%d" % i
        strata.append(Stratum(sid, frozenset([i]), p1, {}))
        l_system[sid] = [Fraction(1)]
    for i in range(m):
        a, b = i, (i + 1) % m
        if m == 2 and i == 1:
            a, b = 0, 1   # second node between the same two components
        sid = "node%d" % i
        strata.append(Stratum(sid, frozenset([a, b]), pt,
                              {a: ("c%d" % b, [_one()]),
                               b: ("c%d" % a, [_one()])}))
        l_system[sid] = []
    cx = SemistableComplex(strata, q, name="tate-cycle(%d,%d)" % (m, q))
    return cx, l_system


def two_planes(n=2, q=2):
    """Semistable quadric degeneration: P^2 and Bl_2 P^2 glued along a line."""
    if n != 2:
        raise FixtureError("two-planes is implemented for n=2")
    plane = build_ring(proj(2))
    blown = explicit_surface_ring(
        ["h", "e1", "e2"],
        linalg.mat([[1, 0, 0], [0, -1, 0], [0, 0, -1]]))
    line = build_ring(proj(1))
    strata = [
        Stratum("X0", frozenset([0]), plane, {}),
        Stratum("X1", frozenset([1]), blown, {}),
        Stratum("L", frozenset([0, 1]), line,
                {0: ("X1", [_one(), linalg.mat([[1, 1, 1]])]),
                 1: ("X0", [_one(), linalg.mat([[1]])])}),
    ]
    l_system = {
        "X0": [Fraction(1)],                            # h
        "X1": [Fraction(3), Fraction(-1), Fraction(-1)],  # 3h - e1 - e2
        "L": [Fraction(1)],
    }
    cx = SemistableComplex(strata, q, name="two-planes(%d)" % n)
    return cx, l_system


def triangle_of_planes(q=2):
    """Cycle of three blown planes with one triple point (cubic degeneration).

    Component i carries exceptional classes a1, a2 on its curve toward
    component i+1 and b1 on its curve toward component i-1, so the two curves
    in each component have self-intersection -1 and 0, and every double curve
    has balanced normal degrees (-1) + (0) + one triple point.
    """
    ints = linalg.mat([
        [1, 0, 0, 0],
        [0, -1, 0, 0],
        [0, 0, -1, 0],
        [0, 0, 0, -1],
    ])
    comps = [explicit_surface_ring(["h", "a1", "a2", "b1"], ints)
             for _ in range(3)]
    line = build_ring(proj(1))
    pt = build_ring(proj(0))
    strata = []
    l_system = {}
    for i in range(3):
        sid = "X%d" % i
        strata.append(Stratum(sid, frozenset([i]), comps[i], {}))
        # 3h - a1 - a2 - b1 is ample (del Pezzo style) and restricts to
        # degree 1 on the a-curve and degree 2 on the b-curve; to share one
        # polarization use 4h - a1 - a2 - 2 b1: a-curve 4-1-1 = 2, b-curve
        # 4-2 = 2.
        l_system[sid] = [Fraction(4), Fraction(-1), Fraction(-1), Fraction(-2)]
    restrict_a = [_one(), linalg.mat([[1, 1, 1, 0]])]
    restrict_b = [_one(), linalg.mat([[1, 0, 0, 1]])]
    for i in range(3):
        j = (i + 1) % 3
        sid = "C%d%d" % tuple(sorted((i, j)))
        strata.append(Stratum(sid, frozenset([i, j]), line,
                              {i: ("X%d" % j, restrict_b),
                               j: ("X%d" % i, restrict_a)}))
        l_system[sid] = [Fraction(2)]
    strata.append(Stratum("T", frozenset([0, 1, 2]), pt,
                          {0: ("C12", [_one()]),
                           1: ("C02", [_one()]),
                           2: ("C01", [_one()])}))
    l_system["T"] = []
    cx = SemistableComplex(strata, q, name="triangle-of-planes")
    return cx, l_system


# -- the Drinfeld vertex-star quotient -------------------------------------------

def _singer_labelling(n, field):
    """Cyclic labelling of the points and lines of P^n(F_q) by a Singer cycle.

    Returns (points, lines) as label-indexed lists of subvarieties, where the
    collineation induced by a primitive companion matrix shifts both lists by
    one.  Only used for n = 2.
    """
    fq = get_field(field)
    q = field.q
    size = (q ** (n + 1) - 1) // (q - 1)

    def mat_mul(a, b):
        return tuple(tuple(
            _dot(fq, [a[i][k] for k in range(n + 1)],
                 [b[k][j] for k in range(n + 1)])
            for j in range(n + 1)) for i in range(n + 1))

    def act_on(sub, c):
        rows = [[_dot(fq, row, [c[k][j] for k in range(n + 1)])
                 for j in range(n + 1)] for row in sub.basis]
        return make_subvariety(sub.ambient_n, rows, field)

    # search for a companion matrix of projective order q^2+q+1
    target = None
    for coeffs in itertools.product(fq.elements(), repeat=n + 1):
        if coeffs[0] == 0:
            continue
        comp = [[0] * (n + 1) for _ in range(n + 1)]
        for i in range(1, n + 1):
            comp[i][i - 1] = 1
        for i in range(n + 1):
            comp[i][n] = fq.neg(coeffs[i])
        cmat = tuple(tuple(row) for row in comp)
        # projective order: orbit length of a point
        start = make_subvariety(n, [[1] + [0] * n], field)
        seen = {start}
        cur = start
        order = 0
        for _ in range(size + 1):
            cur = act_on(cur, _transpose_rows(cmat))
            order += 1
            if cur == start:
                break
        if order == size:
            target = cmat
            break
    if target is None:
        raise FixtureError("no Singer cycle found for q=%d" % q)
    ct = _transpose_rows(target)
    geom = ambient_geometry(n, field)
    start_pt = make_subvariety(n, [[1] + [0] * n], field)
    start_line = geom.subvarieties(n - 1)[0]
    points, lines = [], []
    cur_p, cur_l = start_pt, start_line
    for _ in range(size):
        points.append(cur_p)
        lines.append(cur_l)
        cur_p = act_on(cur_p, ct)
        cur_l = act_on(cur_l, ct)
    if len(set(points)) != size or len(set(lines)) != size:
        raise FixtureError("Singer orbit degenerate")
    return points, lines


def _transpose_rows(m):
    return tuple(tuple(m[j][i] for j in range(len(m))) for i in range(len(m)))


def _dot(fq, u, v):
    s = 0
    for x, y in zip(u, v):
        s = fq.add(s, fq.mul(x, y))
    return s


def _flag_matching(points, lines, offset):
    """Exact cover by triples (i, j, k) with p_j in l_(i+c), p_k in l_(j+c),
    p_i in l_(k+c); one triple through every incident pair on each of the
    three sides, or None if the offset admits no cover."""
    size = len(points)

    def incident(a, b):      # p_b on the line labelled for a
        return contains(lines[(a + offset) % size], points[b])

    flags01 = [(i, j) for i in range(size) for j in range(size) if incident(i, j)]
    candidates = {}
    for (i, j) in flags01:
        opts = [k for k in range(size) if incident(j, k) and incident(k, i)]
        if not opts:
            return None
        candidates[(i, j)] = opts
    used12 = set()
    used20 = set()
    chosen = {}
    order = sorted(flags01, key=lambda f: len(candidates[f]))

    def solve(idx):
        if idx == len(order):
            return True
        i, j = order[idx]
        for k in candidates[(i, j)]:
            if (j, k) in used12 or (k, i) in used20:
                continue
            used12.add((j, k))
            used20.add((k, i))
            chosen[(i, j)] = k
            if solve(idx + 1):
                return True
            used12.discard((j, k))
            used20.discard((k, i))
            del chosen[(i, j)]
        return False

    if not solve(0):
        return None
    return [(i, j, chosen[(i, j)]) for (i, j) in flags01]


def _swap_matrices(ring_src, ring_dst):
    """Coordinate change from a two-factor product ring onto the ring of the
    swapped product, degree by degree."""
    out = []
    for j in range(ring_src.n + 1):
        rows = len(ring_dst.basis[j])
        cols = len(ring_src.basis[j])
        m = [[Fraction(0)] * cols for _ in range(rows)]
        for c, (m1, m2) in enumerate(ring_src.basis[j]):
            r = ring_dst.index[j][(m2, m1)]
            m[r][c] = Fraction(1)
        out.append(m)
    return out


def drinfeld_local(d=2, q=2):
    """Three B^d components glued along all their divisors D_V, one vertex per
    type, with triple points given by a flag matching."""
    if d != 2:
        raise FixtureError("drinfeld-local is implemented for d=2")
    if q not in (2, 3):
        raise FixtureError("drinfeld-local supports q in {2, 3}")
    field = field_spec(q)
    spec = blowup(2, field)
    ring = build_ring(spec)
    points, lines = _singer_labelling(2, field)
    size = len(points)
    matching = None
    offset_used = None
    for offset in range(size):
        matching = _flag_matching(points, lines, offset)
        if matching is not None:
            offset_used = offset
            break
    if matching is None:
        raise FixtureError("no flag matching found for q=%d" % q)

    def line_for(label):
        return lines[(label + offset_used) % size]

    # restriction data, computed once per center
    point_side = {i: restrict_to_divisor(ring, points[i]) for i in range(size)}
    line_side = {i: restrict_to_divisor(ring, line_for(i)) for i in range(size)}
    target_pt = point_side[0][0]     # Product(B^0, B^1)
    target_ln = line_side[0][0]      # Product(B^1, B^0)
    swap = _swap_matrices(target_ln, target_pt)

    omega = omega_vector(ring)
    strata = []
    l_system = {}
    pairs = [(0, 1), (1, 2), (2, 0)]
    pair_stratum = {}
    for (a, b) in pairs:
        for i in range(size):
            sid = "s%d%d_%02d" % (a, b, i)
            pair_stratum[(a, b, i)] = sid
            mats_point = [m for m in point_side[i][1][:2]]
            raw_line = line_side[i][1][:2]
            mats_line = [linalg.matmul(swap[j], raw_line[j]) for j in range(2)]
            # parent under removing a is the b-component and vice versa
            parents = {a: ("X%d" % b, mats_line), b: ("X%d" % a, mats_point)}
            strata.append(Stratum(sid, frozenset([a, b]), target_pt, parents))
            l_here = linalg.matvec(mats_point[1], omega)
            l_other = linalg.matvec(mats_line[1], omega)
            if l_here != l_other:
                raise FixtureError("polarization mismatch on %s" % sid)
            l_system[sid] = l_here
    for c in range(3):
        sid = "X%d" % c
        strata.append(Stratum(sid, frozenset([c]), ring, {}))
        l_system[sid] = omega
    pt_ring = build_ring(proj(0))
    for (i, j, k) in sorted(matching):
        sid = "t%02d_%02d_%02d" % (i, j, k)
        parents = {
            2: (pair_stratum[(0, 1, i)], [_one()]),
            0: (pair_stratum[(1, 2, j)], [_one()]),
            1: (pair_stratum[(2, 0, k)], [_one()]),
        }
        strata.append(Stratum(sid, frozenset([0, 1, 2]), pt_ring, parents))
        l_system[sid] = []
    cx = SemistableComplex(strata, q, name="drinfeld-local(%d,%d)" % (d, q))
    return cx, l_system


FIXTURES = {
    "tate-cycle": tate_cycle,
    "two-planes": two_planes,
    "triangle-of-planes": triangle_of_planes,
    "drinfeld-local": drinfeld_local,
}


def make_fixture(name, *args):
    if name not in FIXTURES:
        raise FixtureError("unknown fixture %r (have: %s)"
                           % (name, ", ".join(sorted(FIXTURES))))
    signature = inspect.signature(FIXTURES[name])
    try:
        signature.bind(*args)
    except TypeError:
        raise FixtureError("fixture %r takes arguments %s, got %d"
                           % (name, signature, len(args))) from None
    return FIXTURES[name](*args)
