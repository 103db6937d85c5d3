"""Lefschetz operators, hard Lefschetz checks, primitive decomposition and
positivity of the signed Lefschetz pairings, all in exact arithmetic.

Degrees are algebraic: N^j sits in cohomological degree 2j, so the classical
statements about H^k appear here with k = 2j.  Odd degrees vanish.  The
operator of a class D on N^j is the ring's cup matrix of D
(`GradedRing.cup_matrix`), built once per context by `make_context`, which
takes D by its N^1 coordinates only.  The invariant classes
alpha h + sum a_d D_d of B^n (`InvariantDivisorForm`, omega among them) have
one route there, `InvariantDivisorForm.vector`.

Both checks read one inertia per degree, that of the signed Lefschetz
pairing Q_j = (-1)^j (L^(n-2j))^T P_(n-j) (`lefschetz_inertia`), with P_(n-j)
the Poincare pairing of N^(n-j) with N^j.  Hard Lefschetz reads the rank of
L^(n-2j) as n_plus + n_minus of it: rank(A^T P) <= rank A for any A, so a
full rank is never claimed falsely, and equality holds because P is
nondegenerate (`GradedRing` refuses a degenerate one on every ring kind).
Hodge-Riemann needs no primitive Gram: once hard Lefschetz holds, the Lefschetz splitting is
orthogonal for the Q_j, so Q_j is positive definite on the primitive part
P_j iff sig Q_j + sig Q_(j-1) = dim N^j - dim N^(j-1) (Adiprasito-Huh-Katz,
Ann. Math. 2018, section 7; the argument is in `check_hodge_standard`).
"""

from __future__ import annotations

import functools
from fractions import Fraction

from . import linalg
from .cohomology import blowup
from .geometry import ambient_geometry, point_count
from .record import Record


class LefschetzError(ValueError):
    pass


class LefschetzContext:
    """The cup-action matrices of one degree-1 class on one ring.

    `divisor` is the class in N^1 coordinates, `operators[j]` the Matrix
    N^j -> N^(j+1).  Powers, the hard Lefschetz report, the primitive
    decomposition, the pairing Grams and their inertias are computed once per
    context into `memo` and returned shared: callers must not mutate them.
    """

    __slots__ = ("ring", "divisor", "operators", "memo")

    def __init__(self, ring, divisor, operators):
        self.ring, self.divisor, self.operators = ring, divisor, operators
        self.memo = {}

    @property
    def n(self):
        return self.ring.n


def _memoized(fn):
    """Compute fn(ctx, *args) once per context and argument tuple."""
    @functools.wraps(fn)
    def wrapper(ctx, *args):
        key = (fn.__name__,) + args
        if key not in ctx.memo:
            ctx.memo[key] = fn(ctx, *args)
        return ctx.memo[key]
    return wrapper


def make_context(ring, divisor):
    """Context with the cup-action matrices of a degree-1 class D, given by
    its N^1 coordinates `divisor`.  The operator L_j: N^j -> N^(j+1) is
    `ring.cup_matrix(1, D, j)`.
    """
    if ring.n == 0:
        return LefschetzContext(ring, [], [])
    if len(divisor) != len(ring.basis[1]):
        raise LefschetzError("operator class is not a degree-1 class")
    divisor = [Fraction(x) for x in divisor]
    return LefschetzContext(ring, divisor, [ring.cup_matrix(1, divisor, j)
                                            for j in range(ring.n)])


@_memoized
def lefschetz_power(ctx, j, power):
    """Matrix of L^power from N^j to N^(j+power); zero map past top degree."""
    if j + power > ctx.ring.n:
        return linalg.zeros(0, len(ctx.ring.basis[j]))
    if power == 0:
        return linalg.identity(len(ctx.ring.basis[j]))
    if power == 1:
        return ctx.operators[j]
    return linalg.matmul(ctx.operators[j + power - 1],
                         lefschetz_power(ctx, j, power - 1))


@_memoized
def check_hard_lefschetz(ctx):
    """L^(n-2j): N^j -> N^(n-j) bijective for all j <= n/2, with rank report.
    The rank is n_plus + n_minus of `lefschetz_inertia(ctx, j)`."""
    ring = ctx.ring
    n = ring.n
    report = []
    ok = True
    for j in range(0, n // 2 + 1):
        inertia = lefschetz_inertia(ctx, j)
        dim_lo = len(ring.basis[j])
        dim_hi = len(ring.basis[n - j])
        r = inertia.n_plus + inertia.n_minus
        good = (r == dim_lo == dim_hi)
        ok = ok and good
        report.append({"degree": 2 * j, "power": n - 2 * j, "rank": r,
                       "expected": dim_lo, "ok": good})
    return ok, report


class PrimitiveDecomposition(Record):
    """`primitive[j]`: a Matrix whose columns span P_j inside N^j."""

    __slots__ = _fields = ("primitive",)
    __hash__ = None     # `primitive` is a dict


@_memoized
def primitive_decomposition(ctx):
    """P_j = Ker(L^(n-2j+1)) on N^j for j <= n/2, as kernel columns."""
    ok, _ = check_hard_lefschetz(ctx)
    if not ok:
        raise LefschetzError("hard Lefschetz fails; decomposition undefined")
    n = ctx.n
    return PrimitiveDecomposition(
        {j: linalg.kernel_basis(lefschetz_power(ctx, j, n - 2 * j + 1))
         for j in range(0, n // 2 + 1)})


@_memoized
def lefschetz_pairing_gram(ctx, j):
    """Gram matrix of <x,y> = (-1)^j sum(L^(n-2j) x cup y) on all of N^j."""
    ring = ctx.ring
    n = ring.n
    if 2 * j > n:
        raise LefschetzError("no Lefschetz pairing above the middle degree")
    m = lefschetz_power(ctx, j, n - 2 * j)
    return linalg.matmul(linalg.scale(linalg.transpose(m), (-1) ** j),
                         ring.pairing[n - j])


@_memoized
def lefschetz_inertia(ctx, j):
    """The inertia (`linalg.SignatureReport`) of `lefschetz_pairing_gram`."""
    return linalg.symmetric_signature(lefschetz_pairing_gram(ctx, j))


def check_hodge_standard(ctx):
    """Hodge-Riemann: Q_j(x, y) = (-1)^j int L^(n-2j) x y (see
    `lefschetz_pairing_gram`) is positive definite on each primitive part
    P_j, j <= n/2; plus the signature identity
    sig Q_j = sum_i (-1)^i dim P_(j-i).  One inertia of each full Gram
    decides both.

    Hard Lefschetz splits N^j = sum_i L^i P_(j-i), with
    dim P_j = dim N^j - dim N^(j-1) and Q_j nondegenerate.  The splitting is
    Q_j-orthogonal: for x in P_(j-a), y in P_(j-b), a < b, the number
    Q_j(L^a x, L^b y) = +-int L^(n-2j+a+b) x y vanishes, as
    n-2j+a+b >= n-2(j-a)+1 and L^(n-2(j-a)+1) x = 0.  On L^i P_(j-i), Q_j is
    (-1)^i Q_(j-i).  So with s_k the signature of Q_k on P_k,
    sig Q_j = sum_i (-1)^i s_(j-i), that is s_j = sig Q_j + sig Q_(j-1),
    and Q_j is positive definite on P_j iff s_j = dim P_j.  This is the
    signature form of Hodge-Riemann (Adiprasito-Huh-Katz, Ann. Math. 2018,
    section 7); the orthogonality being a theorem, the report states it.
    Returns (verdict, one report row per degree 2j), as
    `check_hard_lefschetz` does.
    """
    if not check_hard_lefschetz(ctx)[0]:
        raise LefschetzError("hard Lefschetz fails; Hodge check undefined")
    dims = ctx.ring.dims()
    verdict = True
    report = []
    sig_below = expected_below = 0
    for j in range(0, ctx.n // 2 + 1):
        sig = lefschetz_inertia(ctx, j)
        prim_dim = dims[j] - (dims[j - 1] if j > 0 else 0)
        pos = sig.signature + sig_below == prim_dim
        expected_sig = prim_dim - expected_below
        sig_ok = sig.signature == expected_sig
        verdict = verdict and pos and sig_ok
        report.append({
            "degree": 2 * j,
            "primitive_dim": prim_dim,
            "positive_definite": pos,
            "inertia": {"n_plus": sig.n_plus, "n_minus": sig.n_minus,
                        "n_zero": sig.n_zero},
            "signature": sig.signature,
            "signature_expected": expected_sig,
            "orthogonal_splitting": True,
            "ok": pos and sig_ok,
        })
        sig_below, expected_below = sig.signature, expected_sig
    return verdict, report


# -- invariant divisors --------------------------------------------------------

class InvariantDivisorForm(Record):
    """alpha * h + sum a_d * (level sum of the D_V in dimension d) on B^n
    over F_q; `levels` is the tuple of the a_d.

    Normal form: the top level (d = n-1) is folded into alpha and the lower
    levels through the hyperplane relation, so levels[n-1] == 0.
    """

    __slots__ = _fields = ("n", "q", "alpha", "levels")

    def vector(self, ring):
        """The class in N^1 coordinates of the ring of B^n over F_q (P^1 when
        n = 1): alpha on h and levels[d] on each e_V with dim V = d.  The
        normal form leaves no hyperplane class to rewrite."""
        if ring.spec != blowup(self.n, self.q):
            raise LefschetzError("a class of B^%d/F_%d is not a class of this "
                                 "ring" % (self.n, self.q))
        # the N^1 basis is h, then the e_V with dim V <= n-2, each once
        proper = ambient_geometry(self.n, self.q).proper
        return [self.alpha] + [self.levels[proper[g].dim]
                               for (g,) in ring.basis[1][1:]]


def normalize_invariant(n, q, alpha, levels):
    """Fold a possibly nonzero top level into alpha and the lower levels."""
    if n < 1:
        raise LefschetzError("B^%d has no degree-1 class; an invariant class "
                             "needs n >= 1" % n)
    levels = [Fraction(a) for a in levels]
    if len(levels) != n:
        raise LefschetzError("expected %d level coefficients" % n)
    alpha = Fraction(alpha)
    top = levels[n - 1]
    if top:
        # sum of all blown-up hyperplanes = |P^n| h - sum |P^(n-d-1)| D_d
        alpha += top * point_count(n, q)
        for d in range(n - 1):
            levels[d] -= top * point_count(n - d - 1, q)
        levels[n - 1] = Fraction(0)
    return InvariantDivisorForm(n, q, alpha, tuple(levels))


def margins(form: InvariantDivisorForm):
    """[c_0, ..., c_(n+1)] with c_k = a_(n-k) + alpha |P^(k-1)| / |P^n| for
    k = 1..n and c_0 = c_(n+1) = 0: the coefficients of the class on the
    Feichtner-Yuzvinsky generators x_F of the flats of rank k (see
    `is_positive`)."""
    n, q = form.n, form.q
    pn = point_count(n, q)
    return [Fraction(0)] + [
        form.levels[n - k] + form.alpha * Fraction(point_count(k - 1, q), pn)
        for k in range(1, n + 1)] + [Fraction(0)]


def is_positive(form: InvariantDivisorForm):
    """Ampleness criterion: the margins pass every wall inequality,
    (q+1) c_k > c_(k+1) + q c_(k-1) for k = 1..n (they are strictly
    q-concave).  A refusal is sound: a failed wall is a curve on which the
    class has non-positive degree, so the class is not ample.  Acceptance
    rests on strict convexity at every wall implying ampleness
    (Adiprasito-Huh-Katz, Ann. Math. 2018, section 4), which is not proved
    here; `hodge` still checks hard Lefschetz and Hodge-Riemann on every
    class it accepts, so no verdict rests on that step.

    B^n is the wonderful model of the arrangement of all F_q-rational
    hyperplanes of P^n with the maximal building set, so N^*(B^n) is the
    Chow ring A(M) of the matroid M of that arrangement (Feichtner-Yuzvinsky).
    The flats of M are the linear subspaces V of P^n, a flat F of rank
    k = n - dim V; A(M) has one generator x_F per nonempty proper flat, the
    class of D_V: e_V when k >= 2, the strict transform
    h - sum_(W < V) e_W of the hyperplane V when k = 1.  Summing the strict
    transforms of all hyperplanes gives
    |P^n| h = sum_V |P^(n - dim V - 1)| x_V, so the class
    alpha h + sum_d a_d sum_(dim V = d) e_V (with a_(n-1) = 0) is
    sum_F c(F) x_F with c(F) = c_(rk F), the margins above; on invariant
    classes these coordinates are unique.

    Adiprasito-Huh-Katz (Ann. Math. 2018, section 4 and Thm 8.8): every
    class of the ample cone K_M satisfies hard Lefschetz and the
    Hodge-Riemann relations on A(M), and a class is in K_M when the
    piecewise-linear function on the Bergman fan of M with value c(F) on
    the ray e_F = sum_(i in F) e_i of each flat (c = 0 on e_empty and on
    e_E, which is 0 modulo the lineality space) is strictly convex.  A
    wall of the fan is a flag of flats missing one rank k = 1..n, between a
    flat G of rank k - 1 and a flat G' of rank k + 1.  It is completed by
    the q + 1 flats F_0..F_q of rank k between G and G' (the points of the
    projective line G'/G over F_q), and each atom of G' outside G lies in
    exactly one of them, so their rays satisfy the balancing relation

        sum_i e_(F_i) = e_(G') + q e_G.

    Strict convexity across the wall is sum_i c(F_i) > c(G') + q c(G),
    which for an invariant class, c(F) = c_(rk F), is the wall inequality
    of k.  Its left side less its right is the degree of the class on the
    curve cut out by the x_F of the wall's flag (on B^2: -a_0 on e_P for a
    point P, alpha + (q+1) a_0 on the strict transform of a line), so an
    ample class passes every wall.  The gate takes the walls as the whole
    criterion; that strict convexity across each wall makes the function
    strictly convex on the whole fan is the step taken from AHK, and every
    class it accepts in the tests passes hard Lefschetz and Hodge-Riemann.
    Concavity, 2 c_k > c_(k-1) + c_(k+1), is
    a different test: alpha,a_0,a_1 = 73/2,-11,-2 on B^3/F_3 is concave, has
    wall 3 = -3/2 and fails Hodge-Riemann; 15,-5,-1/2 on B^3/F_2 is not
    concave, has walls 1/2, 7/2, 1 and passes both.  Positive margins are
    not enough either: 3,1,1 on B^3/F_2 has margins 0, 1/5, 8/5, 12/5, 0,
    wall 1 = -1, and fails Hodge-Riemann in degree 0.
    """
    c, q = margins(form), form.q
    return all((q + 1) * c[k] > c[k + 1] + q * c[k - 1]
               for k in range(1, form.n + 1))


def omega_form(n, q):
    """The canonical ample invariant class: -(n+1) h + sum (n-d) D_d."""
    return normalize_invariant(n, q, -(n + 1), [n - d for d in range(n)])
