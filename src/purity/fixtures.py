"""Built-in semistable complexes.

All fixtures are generated in process so they always match the live schema.
Each stratum carries its polarization, the restriction of one ample class of
the fiber, which `SemistableComplex` validation checks against every parent:

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
  matching over a cyclic (Singer) labelling.  Each double stratum is the D_V
  of a point in one component and of a line in the other, plain P^1 both
  ways.  The labelling is the trace sequence s_i = Tr(x^i) of a Singer
  cycle; D = {i : s_i = 0} is a perfect difference set, fixed by the
  multiplier q with no offset because the trace is Frobenius-invariant, and
  the matching is a closed form in D.  Its E1 total is 9 + 3m(q+6),
  m = q^2+q+1, so q >= 9 is refused over the size budget before anything
  is built.
"""

from __future__ import annotations

import itertools

from . import linalg
from .cohomology import (SIZE_BUDGET, blowup, build_ring, check_size_budget,
                         proj, restrict_to_divisor)
from .fields import field_spec, get_field
from .geometry import make_subvariety
from .lefschetz import omega_form
from .weightss import SemistableComplex, Stratum, explicit_surface_ring


class FixtureError(ValueError):
    pass


_ONE = linalg.identity(1)


# an m-gon has E1 total dimension 4m: refuse it over the size budget before
# any stratum is built
MAX_TATE_COMPONENTS = SIZE_BUDGET // 4


def tate_cycle(m, q):
    """Cycle of m projective lines over F_q; the special fiber of a Tate curve."""
    if m < 2:
        raise FixtureError("tate-cycle needs at least 2 components")
    if m > MAX_TATE_COMPONENTS:
        raise FixtureError("tate-cycle takes at most %d components, got %d"
                           % (MAX_TATE_COMPONENTS, m))
    p1 = build_ring(proj(1))
    pt = build_ring(proj(0))
    strata = [Stratum("c%d" % i, frozenset([i]), p1, {}, [1])
              for i in range(m)]
    for i in range(m):
        a, b = i, (i + 1) % m
        if m == 2 and i == 1:
            a, b = 0, 1   # second node between the same two components
        strata.append(Stratum("node%d" % i, frozenset([a, b]), pt,
                              {a: ("c%d" % b, [_ONE]),
                               b: ("c%d" % a, [_ONE])}, []))
    return SemistableComplex(strata, q, name="tate-cycle(%d,%d)" % (m, q))


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
        Stratum("X0", frozenset([0]), plane, {}, [1]),            # h
        Stratum("X1", frozenset([1]), blown, {}, [3, -1, -1]),    # 3h - e1 - e2
        Stratum("L", frozenset([0, 1]), line,
                {0: ("X1", [_ONE, linalg.mat([[1, 1, 1]])]),
                 1: ("X0", [_ONE, linalg.mat([[1]])])}, [1]),
    ]
    return SemistableComplex(strata, q, name="two-planes(%d)" % n)


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
    # 3h - a1 - a2 - b1 is ample (del Pezzo style) and restricts to degree 1
    # on the a-curve and degree 2 on the b-curve; to share one polarization
    # use 4h - a1 - a2 - 2 b1: a-curve 4-1-1 = 2, b-curve 4-2 = 2.
    strata = [Stratum("X%d" % i, frozenset([i]), comps[i], {}, [4, -1, -1, -2])
              for i in range(3)]
    restrict_a = [_ONE, linalg.mat([[1, 1, 1, 0]])]
    restrict_b = [_ONE, linalg.mat([[1, 0, 0, 1]])]
    for i in range(3):
        j = (i + 1) % 3
        strata.append(Stratum("C%d%d" % tuple(sorted((i, j))),
                              frozenset([i, j]), line,
                              {i: ("X%d" % j, restrict_b),
                               j: ("X%d" % i, restrict_a)}, [2]))
    strata.append(Stratum("T", frozenset([0, 1, 2]), pt,
                          {0: ("C12", [_ONE]),
                           1: ("C02", [_ONE]),
                           2: ("C01", [_ONE])}, []))
    return SemistableComplex(strata, q, name="triangle-of-planes")


# -- the Drinfeld vertex-star quotient -------------------------------------------

def _singer_labelling(field):
    """(points, D): the points of P^2(F_q) labelled by the trace sequence of
    a Singer cycle, and the labels on the line x_0 = 0.

    For each cubic X^3 - c2 X^2 - c1 X - c0 with c0 != 0 run
    s_(i+3) = c0 s_i + c1 s_(i+1) + c2 s_(i+2) from the power sums
    s_0, s_1, s_2 = 3, c2, c2^2 + 2 c1 (Newton's identities), so that
    s_i = Tr(x^i) for a root x.  The first cubic whose states
    [s_i : s_(i+1) : s_(i+2)], i < m = q^2+q+1, are m distinct points is a
    Singer cycle (Singer 1938): p_i is state i, and the companion matrix
    shifts the labels by one.  D = {i : s_i = 0} is well defined mod m,
    since s_(i+m) = x^m s_i with x^m in F_q^*; it is a perfect difference
    set, and qD = D because Tr(y^q) = Tr(y).
    """
    fq = get_field(field)
    m = field.q ** 2 + field.q + 1
    for c0, c1, c2 in itertools.product(fq.elements(), repeat=3):
        if c0 == 0:
            continue
        s = [fq.add(1, fq.add(1, 1)), c2,
             fq.add(fq.mul(c2, c2), fq.add(c1, c1))]
        for i in range(m - 1):
            s.append(fq.add(fq.add(fq.mul(c0, s[i]), fq.mul(c1, s[i + 1])),
                            fq.mul(c2, s[i + 2])))
        states = {_projective_point(fq, s[i:i + 3]) for i in range(m)}
        if len(states) == m:
            break
    else:
        raise FixtureError("no Singer cycle found for q=%d" % field.q)
    points = [make_subvariety(2, [s[i:i + 3]], field) for i in range(m)]
    return points, [i for i in range(m) if s[i] == 0]


def _projective_point(fq, v):
    """v scaled so that its first nonzero entry is 1 (zero stays zero)."""
    lead = fq.inv(next((x for x in v if x), 1))
    return tuple(fq.mul(lead, x) for x in v)


def _triangle_matching(D, q):
    """The flag matching of the Singer labelling, in closed form.

    With l_a the line through the p_(a+d), d in D, p_b lies on l_a iff
    b - a is in D.  Since qD = D, with d in D also qd and q^2 d = -(1+q)d are
    in D mod m = q^2+q+1, so the triples
    T = {(i, i+d, i+(1+q)d) mod m : i in Z/m, d in D} use every incident pair
    (i, j), (j, k), (k, i) exactly once: the difference-set form of a
    triangle presentation (Cartwright, Mantero, Steger and Zappa 1993).
    """
    m = q * q + q + 1
    return [(i, (i + d) % m, (i + (1 + q) * d) % m)
            for i in range(m) for d in D]


def drinfeld_local(d=2, q=2):
    """Three B^d components glued along all their divisors D_V, one vertex per
    type, with triple points given by a flag matching (`_triangle_matching`).
    The E1 total dimension is 9 + 3m(q+6), m = q^2+q+1, so a q over the size
    budget is refused before anything is built."""
    if d != 2:
        raise FixtureError("drinfeld-local is implemented for d=2")
    field = field_spec(q)
    size = q * q + q + 1
    check_size_budget(9 + 3 * size * (q + 6), "E1 total dimension")
    spec = blowup(2, field)
    ring = build_ring(spec)
    points, D = _singer_labelling(field)
    # l_a is the line through p_(a+d) for the first two d in D
    lines = [make_subvariety(2, [points[(a + d) % size].basis[0]
                                 for d in D[:2]], field)
             for a in range(size)]

    # restriction data, computed once per center; the D_V of a point and of
    # a line are both P^1 (P^0 x P^1 and P^1 x P^0), one ring
    point_side = [restrict_to_divisor(ring, p)[1][:2] for p in points]
    line_side = [restrict_to_divisor(ring, l)[1][:2] for l in lines]
    p1 = build_ring(proj(1))

    omega = omega_form(2, q).vector(ring)
    strata = []
    pairs = [(0, 1), (1, 2), (2, 0)]
    pair_stratum = {}
    for (a, b) in pairs:
        for i in range(size):
            sid = "s%d%d_%02d" % (a, b, i)
            pair_stratum[(a, b, i)] = sid
            # parent under removing a is the b-component and vice versa
            parents = {a: ("X%d" % b, line_side[i]),
                       b: ("X%d" % a, point_side[i])}
            # validation checks it against the other parent's restriction
            strata.append(Stratum(sid, frozenset([a, b]), p1, parents,
                                  linalg.matvec(point_side[i][1], omega)))
    strata += [Stratum("X%d" % c, frozenset([c]), ring, {}, omega)
               for c in range(3)]
    pt_ring = build_ring(proj(0))
    for (i, j, k) in sorted(_triangle_matching(D, q)):
        sid = "t%02d_%02d_%02d" % (i, j, k)
        parents = {
            2: (pair_stratum[(0, 1, i)], [_ONE]),
            0: (pair_stratum[(1, 2, j)], [_ONE]),
            1: (pair_stratum[(2, 0, k)], [_ONE]),
        }
        strata.append(Stratum(sid, frozenset([0, 1, 2]), pt_ring, parents, []))
    return SemistableComplex(strata, q, name="drinfeld-local(%d,%d)" % (d, q))


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
    fn = FIXTURES[name]
    code, defaults = fn.__code__, fn.__defaults__ or ()
    params = code.co_varnames[:code.co_argcount]
    required = len(params) - len(defaults)
    if not required <= len(args) <= len(params):
        shown = params[:required] + tuple(
            "%s=%r" % kv for kv in zip(params[required:], defaults))
        raise FixtureError("fixture %r takes arguments (%s), got %d"
                           % (name, ", ".join(shown), len(args)))
    return fn(*args)
