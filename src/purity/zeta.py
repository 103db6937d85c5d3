"""Local L-factors and zeta functions from weight spectral sequence output.

Everything is a finite product of factors (1 - q^a T)^m with integer a >= 0
and integer exponent m (positive exponents in the numerator).  T stands for
q^(-s).  The L-factor of degree w is det(1 - q^(-s) Fr; inertia invariants)
inverted, with Frobenius acting on the weight-j part by the scalar q^(j/2);
the zeta function is the alternating product over degrees.
"""

from __future__ import annotations

from .record import Record
from .weightss import inertia_invariants, check_purity


class ZetaError(ValueError):
    pass


class FactoredRationalT(Record):
    """Product of (1 - q^a T)^multiplicity in canonical sorted, reduced form:
    `factors` is the sorted tuple of (a, multiplicity), multiplicity != 0, so
    equal products compare and hash equal."""

    __slots__ = _fields = ("q", "factors")

    @staticmethod
    def from_dict(q, d):
        items = tuple(sorted((a, m) for a, m in d.items() if m))
        return FactoredRationalT(q, items)

    def _piece(self, a, m):
        base = "(1 - T)" if a == 0 else "(1 - %dT)" % (self.q ** a)
        return base if m == 1 else "%s^%d" % (base, m)

    def __str__(self):
        num = [(a, m) for a, m in self.factors if m > 0]
        den = [(a, -m) for a, m in self.factors if m < 0]
        top = " ".join(self._piece(a, m) for a, m in num) or "1"
        if not den:
            return top
        bottom = " ".join(self._piece(a, m) for a, m in den)
        if len(den) > 1 or den[0][1] > 1:
            bottom = "(%s)" % bottom
        return "%s / %s" % (top, bottom)

    def to_json(self):
        return {"factors": [{"a": a, "multiplicity": m} for a, m in self.factors]}


def l_factor(cx, w):
    """L-factor of degree w: product of (1 - q^(j/2) T)^(-dim) over the
    weight-j inertia invariants.  Requires purity in degree w.  Every j is
    even: E1[i, j] is made of H^s with s - j even, and odd degrees vanish."""
    inv = inertia_invariants(cx, w)
    out = {}
    for j, dim in inv.items():
        out[j // 2] = out.get(j // 2, 0) - dim
    return FactoredRationalT.from_dict(cx.q, out)


def zeta_function(cx):
    """Alternating product of the degree-w L-factors, 0 <= w <= 2 dim: the
    sum of their exponents, each times (-1)^w."""
    total = {}
    for w in range(0, 2 * cx.n + 1):
        ok, _ = check_purity(cx, w)
        if not ok:
            raise ZetaError("purity unverified in degree %d; zeta undefined" % w)
        for a, m in l_factor(cx, w).factors:
            total[a] = total.get(a, 0) + (-1) ** w * m
    return FactoredRationalT.from_dict(cx.q, total)


def mu_from_e2(cx, d):
    """Multiplicity of the weight-0 line in the middle-degree invariants."""
    inv = inertia_invariants(cx, d)
    return inv.get(0, 0)


def theorem_shape(cx, d):
    """The closed form (1-T)^(mu (-1)^(d+1)) prod_k (1 - q^k T)^(-1) and
    whether the computed zeta matches it exactly."""
    mu = mu_from_e2(cx, d)
    sign_exponent = (-1) ** (d + 1)
    expected = {0: mu * sign_exponent}
    for k in range(0, d + 1):
        expected[k] = expected.get(k, 0) - 1
    shape = FactoredRationalT.from_dict(cx.q, expected)
    actual = zeta_function(cx)
    return {
        "mu": mu,
        "sign_exponent": sign_exponent,
        "expected": shape,
        "actual": actual,
        "match": shape == actual,
    }


def zeta_matches_weight_table(cx):
    """The factored zeta output corresponds bijectively to the weight-0-kernel
    table: every factor (1 - q^a T)^m comes from weight-2a invariants with
    total signed multiplicity m."""
    expected = {}
    for w in range(0, 2 * cx.n + 1):
        for j, dim in inertia_invariants(cx, w).items():
            a = j // 2
            expected[a] = expected.get(a, 0) - dim * (-1) ** w
    expected = {a: m for a, m in expected.items() if m}
    actual = dict(zeta_function(cx).factors)
    return expected == actual
