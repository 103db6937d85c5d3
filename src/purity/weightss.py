"""Weight spectral sequence of a combinatorial strictly semistable fiber.

A complex is a family of stratum records: the components (index subsets of
size 1) and, for every larger index subset with nonempty intersection, one
record per connected piece, each carrying an exact cohomology ring and the
restriction matrices from its parents.  Gysin maps are never supplied: they
are the pairing adjoints of the restrictions, which forces the restriction /
Gysin duality exactly.

The first page has entries

    E1[i][j] = sum over k >= max(0, i) of H^(j+2i-2k) of the level-(2k-i+1)
               strata, carrying weight tag j,

with the differential assembled from restrictions (Cech signs times
(-1)^(k-i)) and Gysin maps (Cech signs times (-1)^k).  d1 o d1 = 0 is the
anticommutation of the input's restrictions and Gysin maps, so it is checked
once when the table is built, not trusted.  The monodromy map N reindexes
k -> k+1 with the sign (-1)^i, the identity on the same H^s(X^(t)), so it
commutes with d1 and gives isomorphisms E1[-r, w+r] -> E1[r, w-r] by
construction, whatever the restriction maps (`WeightTable` says why).  E2 and
the induced N rely on these facts and recheck neither; once purity holds in a
degree (Deligne, Weil II, 1.6), the E2 dimensions fix the kernel of N there.

The strata of one level t lay out H^i(X^(t)), the sum of their H^i, and
the complex assembles its level maps rho(t, i) (restrictions) and tau(t, i)
(Gysin maps), with Cech signs, once each.  E1 is laid out in level parts, so
d1 and N are signed copies of rho, tau and identities, and the lemma suite
reads the same rho and tau.  Every block matrix is written by
`linalg.assemble`.  Matrices are `linalg.Matrix` throughout, with exact
shapes: a map from or to a zero space is a k x 0 or 0 x k matrix, never a
special case.

A stratum carries its polarization, a Lefschetz class in N^1 coordinates,
or None.  The positivity argument needs one polarization of the whole fiber,
an ample class whose restrictions polarize every stratum (M. Saito, Modules
de Hodge polarisables, Publ. RIMS 24, 1988, 4.2), so validation refuses, by
stratum name, a class of the wrong length and a class that is not the
restriction of a polarized parent's class.  The lemma suite reads the
block-diagonal L^k and Lefschetz Grams of the level layout from one
Lefschetz context per distinct (ring, class) pair.  The JSON schema has no
polarization yet, so a complex from `load_complex` carries none and the lemma
suite does not run on it.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction

from . import linalg
from .cohomology import (ResourceGuardError, SurfaceSpec, build_ring,
                         check_size_budget)
from .fields import FieldError, _prime_power
from .lefschetz import (check_hard_lefschetz, lefschetz_pairing_gram,
                        lefschetz_power, make_context)
from .record import _memoized


class ComplexValidationError(ValueError):
    """Raised when an input complex is rejected; maps to CLI exit code 2."""


class SpectralSequenceError(ValueError):
    """A consistency check on the assembled pages failed; maps to exit 2."""


def _subset_name(subset):
    return "{%s}" % ",".join(str(i) for i in sorted(subset))


class Stratum:
    """A stratum `id` of the special fiber, the intersection of the
    components in `subset`, with cohomology `ring`; `parents` maps a removed
    index m to (parent_id, [restriction Matrix per degree]).  `polarization`
    is the stratum's Lefschetz class in N^1 coordinates, kept as a tuple of
    `Fraction`, or None for a stratum that carries none."""

    __slots__ = ("id", "subset", "ring", "parents", "polarization")

    def __init__(self, id, subset, ring, parents, polarization=None):
        self.id, self.subset, self.ring, self.parents = id, subset, ring, parents
        self.polarization = None if polarization is None \
            else tuple(map(Fraction, polarization))

    @property
    def level(self):
        return len(self.subset)


class SemistableComplex:
    def __init__(self, strata, q, name="complex"):
        try:
            _prime_power(q)   # q only enters the zeta factors: below MR_BOUND
        except FieldError as exc:
            raise ComplexValidationError("q: %s" % exc) from None
        self.strata = {s.id: s for s in strata}
        if len(self.strata) != len(strata):
            raise ComplexValidationError("duplicate stratum ids")
        self.q = q
        self.name = name
        # H^i(X^(t)) lies in t level parts of E1, so this is its total dimension
        check_size_budget(sum(s.level * sum(s.ring.dims()) for s in strata),
                          "E1 total dimension")
        comps = [s for s in strata if s.level == 1]
        if not comps:
            raise ComplexValidationError("no components (level-1 strata)")
        dims = {s.ring.n for s in comps}
        if len(dims) != 1:
            raise ComplexValidationError(
                "components have mixed dimensions %s" % sorted(dims))
        self.n = dims.pop()
        self.levels = {}
        for s in strata:
            self.levels.setdefault(s.level, []).append(s.id)
        for t in self.levels:
            self.levels[t].sort()
        # edges[t]: (child id, m, parent id) of each parent link of a
        # level-t stratum, the blocks of rho(t - 1, .) and tau(t, .)
        self.edges = {t: [(sid, m, self.strata[sid].parents[m][0])
                          for sid in ids
                          for m in sorted(self.strata[sid].parents)]
                      for t, ids in self.levels.items()}
        self._gysin_cache = {}   # read by name by perfbench/tracer.py
        self.memo = {}
        self._validate()

    # -- levels and level maps --------------------------------------------------

    @_memoized
    def level_layout(self, t, i):
        """({stratum id: offset}, dimension) of H^i(X^(t)), the sum of the H^i
        of the level-t strata in id order; zero in odd or absent degrees."""
        offsets, dim = {}, 0
        for sid in self.levels.get(t, []):
            offsets[sid] = dim
            ring = self.strata[sid].ring
            if i % 2 == 0 and 0 <= i // 2 <= ring.n:
                dim += len(ring.basis[i // 2])
        return offsets, dim

    def level_dim(self, t, i):
        return self.level_layout(t, i)[1]

    def level_map(self, t, i, t2, i2, blocks):
        """H^i(X^(t)) -> H^i2(X^(t2)) from (source id, target id, block, sign)."""
        (src, ncols), (tgt, nrows) = self.level_layout(t, i), \
            self.level_layout(t2, i2)
        return linalg.assemble(nrows, ncols, [(tgt[tid], src[sid], m, sign)
                                              for sid, tid, m, sign in blocks])

    @_memoized
    def rho(self, t, i):
        """H^i(X^(t)) -> H^i(X^(t+1)): the restrictions, with Cech signs."""
        j = i // 2
        return self.level_map(t, i, t + 1, i, [
            (pid, cid, self.strata[cid].parents[m][1][j],
             _cech_sign(m, self.strata[cid].subset))
            for cid, m, pid in self.edges.get(t + 1, [])
            if 0 <= j <= self.strata[cid].ring.n])

    @_memoized
    def tau(self, t, i):
        """H^i(X^(t)) -> H^(i+2)(X^(t-1)): the Gysin maps, with Cech signs
        (t >= 2); the zero map for i < 0."""
        j = i // 2
        return self.level_map(t, i, t - 1, i + 2, [
            (cid, pid, self.gysin(cid, m)[j],
             _cech_sign(m, self.strata[cid].subset))
            for cid, m, pid in self.edges.get(t, [])
            if 0 <= j <= self.strata[cid].ring.n])

    def gysin(self, child_id, m):
        """Pairing adjoint of the restriction from parent to child, per degree.

        In degree j it maps N^j(child) -> N^(j+1)(parent) and satisfies
        <gysin(b), x>_parent = <b, restriction(x)>_child exactly.
        """
        key = (child_id, m)
        if key not in self._gysin_cache:
            pid, mats = self.strata[child_id].parents[m]
            child = self.strata[child_id].ring
            parent = self.strata[pid].ring
            a = child.n
            out = []
            for j in range(a + 1):
                # G^T . pairing_parent[j+1] = pairing_child[j] . R_(a-j), so
                # G = (pairing_parent[j+1]^T)^(-1) . (pairing_child[j] . R)^T
                rhs = linalg.matmul(child.pairing[j], mats[a - j])
                out.append(parent.dual_solve(j + 1, linalg.transpose(rhs)))
            self._gysin_cache[key] = out
        return self._gysin_cache[key]

    # -- the polarization and the lemma suite's level maps ------------------------
    #
    # Computed once per argument tuple and returned shared, as
    # `LefschetzContext` results are: callers must not mutate them, and the
    # lemma suite's repeated rank and subspace questions on one map reuse its
    # echelon memo.

    def context(self, sid):
        """The Lefschetz context of the polarization of stratum sid, one per
        distinct (ring, class) pair."""
        s = self.strata[sid]
        if s.polarization is None:
            raise ValueError("stratum %s carries no polarization" % sid)
        return self._context(s.ring, s.polarization)

    @_memoized
    def _context(self, ring, cls):
        return make_context(ring, cls)

    @_memoized
    def rho_tau(self, t, i):
        """rho(t, i) tau(t+1, i-2): H^(i-2)(X^(t+1)) -> H^i(X^(t+1))."""
        return linalg.matmul(self.rho(t, i), self.tau(t + 1, i - 2))

    @_memoized
    def tau_rho(self, t, i):
        """tau(t+1, i) rho(t, i): H^i(X^(t)) -> H^(i+2)(X^(t))."""
        return linalg.matmul(self.tau(t + 1, i), self.rho(t, i))

    @_memoized
    def lef_power(self, t, i, power):
        """Block-diagonal L^power: H^i(X^(t)) -> H^(i+2 power)(X^(t))."""
        j = i // 2
        return self.level_map(t, i, t, i + 2 * power, [
            (sid, sid, lefschetz_power(self.context(sid), j, power), 1)
            for sid in self.levels.get(t, [])
            if j + power <= self.strata[sid].ring.n])

    @_memoized
    def gram(self, t, i):
        """Sum of Lefschetz pairings <a, b> = sigma(L^(dim - i) a cup b)."""
        j = i // 2
        # lefschetz_pairing_gram carries the sign (-1)^j; undo it
        return self.level_map(t, i, t, i, [
            (sid, sid, lefschetz_pairing_gram(self.context(sid), j),
             -1 if j % 2 else 1)
            for sid in self.levels.get(t, [])
            if 2 * j <= self.strata[sid].ring.n])

    # -- validation -------------------------------------------------------------

    def _validate(self):
        for s in self.strata.values():
            expected_dim = self.n - s.level + 1
            if s.ring.n != expected_dim:
                raise ComplexValidationError(
                    "stratum %s %s has dimension %d, expected %d"
                    % (s.id, _subset_name(s.subset), s.ring.n, expected_dim))
            size = len(s.ring.basis[1]) if s.ring.n else 0
            if s.polarization is not None and len(s.polarization) != size:
                raise ComplexValidationError(
                    "stratum %s: polarization has length %d, dim N^1 is %d"
                    % (s.id, len(s.polarization), size))
            if s.level == 1:
                if s.parents:
                    raise ComplexValidationError("component %s has parents" % s.id)
                continue
            if set(s.parents) != set(s.subset):
                raise ComplexValidationError(
                    "stratum %s %s must name one parent per removed index"
                    % (s.id, _subset_name(s.subset)))
            for m, (pid, mats) in s.parents.items():
                if pid not in self.strata:
                    raise ComplexValidationError("unknown parent id %r" % pid)
                parent = self.strata[pid]
                if parent.subset != s.subset - {m}:
                    raise ComplexValidationError(
                        "parent of %s under %d has subset %s, expected %s"
                        % (s.id, m, _subset_name(parent.subset),
                           _subset_name(s.subset - {m})))
                if len(mats) < s.ring.n + 1:
                    raise ComplexValidationError(
                        "restriction %s->%s misses degrees"
                        % (pid, s.id))
                for j in range(s.ring.n + 1):
                    rows, cols = mats[j].shape
                    if rows != len(s.ring.basis[j]) or cols != len(parent.ring.basis[j]):
                        raise ComplexValidationError(
                            "restriction %s->%s degree %d has shape %dx%d, "
                            "expected %dx%d" % (pid, s.id, j, rows, cols,
                                                len(s.ring.basis[j]),
                                                len(parent.ring.basis[j])))
        self._check_unit_and_rings()
        self._check_squares()
        self._check_polarizations()

    def _check_polarizations(self):
        """A polarized stratum of positive dimension carries the restriction
        of each polarized parent's class."""
        for s in self.strata.values():
            if s.polarization is None or not s.ring.n:
                continue
            for pid, mats in s.parents.values():
                cls = self.strata[pid].polarization
                if cls is not None and \
                        tuple(linalg.matvec(mats[1], cls)) != s.polarization:
                    raise ComplexValidationError(
                        "polarization mismatch on %s" % s.id)

    def _check_unit_and_rings(self):
        for s in self.strata.values():
            for m, (pid, mats) in s.parents.items():
                parent = self.strata[pid]
                if mats[0] != linalg.identity(1):
                    raise ComplexValidationError(
                        "restriction %s->%s does not preserve the unit"
                        % (pid, s.id))
                self._check_multiplicative(parent, s, mats)

    def _check_multiplicative(self, parent, child, mats):
        """rho(x.y) = rho(x).rho(y) on degree-1 classes, where defined: for
        each degree-1 basis class e, rho_2 (e .) = (rho_1(e) .) rho_1 as maps
        N^1 -> N^2, read from `GradedRing.cup_matrix`."""
        pring, cring = parent.ring, child.ring
        if cring.n < 2 or pring.n < 1:
            return
        for a in range(len(pring.basis[1])):
            e = pring.zero(1)
            e[a] = Fraction(1)
            lhs = linalg.matmul(mats[2], pring.cup_matrix(1, e, 1))
            rhs = linalg.matmul(
                cring.cup_matrix(1, linalg.matvec(mats[1], e), 1), mats[1])
            if lhs != rhs:
                raise ComplexValidationError(
                    "restriction %s->%s is not a ring homomorphism"
                    % (parent.id, child.id))

    def _check_squares(self):
        for s in self.strata.values():
            if s.level < 3:
                continue
            for m1, m2 in itertools.combinations(sorted(s.subset), 2):
                p1_id, mats1 = s.parents[m1]
                p2_id, mats2 = s.parents[m2]
                p1 = self.strata[p1_id]
                p2 = self.strata[p2_id]
                if m2 not in p1.parents or m1 not in p2.parents:
                    raise ComplexValidationError(
                        "missing grandparent links at %s" % _subset_name(s.subset))
                g1_id, g_mats1 = p1.parents[m2]
                g2_id, g_mats2 = p2.parents[m1]
                if g1_id != g2_id:
                    raise ComplexValidationError(
                        "grandparents disagree at %s" % _subset_name(s.subset))
                for j in range(s.ring.n + 1):
                    path1 = linalg.matmul(mats1[j], g_mats1[j])
                    path2 = linalg.matmul(mats2[j], g_mats2[j])
                    if path1 != path2:
                        raise ComplexValidationError(
                            "restriction square does not commute at strata "
                            "%s->%s" % (_subset_name(self.strata[g1_id].subset),
                                        _subset_name(s.subset)))


# -- JSON input ---------------------------------------------------------------

SCHEMA_VERSION = 1


def _frac(x):
    # a JSON true or false is not the matrix entry 1 or 0
    if isinstance(x, str) and linalg.RATIONAL.fullmatch(x) or \
            isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ComplexValidationError(
                "matrix entry %r has a zero denominator" % (x,)) from None
    raise ComplexValidationError("matrix entries must be integers or 'p/q' strings")


def _matrix(data):
    if not isinstance(data, list) or \
            not all(isinstance(row, list) for row in data):
        raise ComplexValidationError(
            "a matrix must be a JSON array of arrays, got %r" % (data,))
    return linalg.mat([[_frac(x) for x in row] for row in data])


def _json_int(node, key):
    x = node[key]
    if type(x) is not int:
        raise ComplexValidationError("%r must be a JSON integer, got %r" % (key, x))
    return x


def _variety_from_json(node):
    from . import cohomology
    if not isinstance(node, dict) or "kind" not in node:
        raise ComplexValidationError("variety spec must be an object with 'kind'")
    kind = node["kind"]
    if kind == "projective":
        return build_ring(cohomology.proj(_json_int(node, "n")))
    if kind == "blowup":
        return build_ring(cohomology.blowup(_json_int(node, "n"),
                                            _json_int(node, "q")))
    if kind == "product":
        factors = node["factors"]
        if not isinstance(factors, list):
            raise ComplexValidationError("'factors' must be a JSON array, "
                                         "got %r" % (factors,))
        if any(isinstance(f, dict) and f.get("kind") in ("product", "surface")
               for f in factors):
            raise ComplexValidationError("nested product factors unsupported")
        return build_ring(cohomology.product(
            *(_variety_from_json(f).spec for f in factors)))
    if kind == "surface":
        labels = node["labels"]
        if not (isinstance(labels, list)
                and all(isinstance(x, str) for x in labels)):
            raise ComplexValidationError("surface 'labels' must be a JSON "
                                         "array of strings, got %r" % (labels,))
        return explicit_surface_ring(labels, _matrix(node["intersection"]))
    raise ComplexValidationError("unknown variety kind %r" % kind)


def explicit_surface_ring(labels, intersection):
    """Ring of a smooth projective surface given by the labels (distinct
    strings) of an N^1 basis and its intersection matrix (a `linalg.Matrix`),
    checked here and then built, once per (labels, form), by `build_ring`."""
    r = len(labels)
    if r == 0:
        raise ComplexValidationError("a surface needs at least one label")
    if len(set(labels)) != r:
        raise ComplexValidationError("surface labels must be distinct")
    if intersection.shape != (r, r):
        raise ComplexValidationError("intersection matrix shape mismatch")
    if intersection != linalg.transpose(intersection):
        raise ComplexValidationError("surface intersection form is not "
                                     "symmetric")
    if linalg.rank(intersection) != r:
        raise ComplexValidationError("surface intersection form is degenerate")
    return build_ring(SurfaceSpec(tuple(labels), intersection))


def load_complex(data):
    """Build and validate a complex from a parsed JSON object (or a path)."""
    if isinstance(data, str):
        with open(data) as fh:
            try:
                data = json.load(fh)
            except RecursionError:
                raise ComplexValidationError(
                    "JSON input is nested too deeply") from None
    if not isinstance(data, dict):
        raise ComplexValidationError("top-level JSON must be an object")
    if data.get("schema_version") != SCHEMA_VERSION:
        raise ComplexValidationError("unsupported schema_version %r"
                                     % data.get("schema_version"))
    try:
        q = _json_int(data, "q")
        strata_json = data["strata"]
    except KeyError as exc:
        raise ComplexValidationError("missing required key %s" % exc)
    if not isinstance(strata_json, list):
        raise ComplexValidationError("'strata' must be a JSON array")
    strata = []
    for node in strata_json:
        try:
            sid = node["id"]
            if not isinstance(sid, str):
                raise ComplexValidationError(
                    "stratum 'id' must be a JSON string, got %r" % (sid,))
            subset = node["subset"]
            if not isinstance(subset, list) or \
                    any(type(x) is not int for x in subset):
                raise ComplexValidationError(
                    "stratum %s: 'subset' must be a JSON array of integers" % sid)
            if not subset or len(set(subset)) != len(subset):
                raise ComplexValidationError(
                    "stratum %s: 'subset' must be nonempty with no repeated "
                    "index, got %r" % (sid, subset))
            subset = frozenset(subset)
            ring = _variety_from_json(node["variety"])
            parents_json = node.get("parents", {})
            if not isinstance(parents_json, dict):
                raise ComplexValidationError(
                    "stratum %s: 'parents' must be a JSON object" % sid)
            parents = {}
            for m, pnode in parents_json.items():
                if str(int(m)) != m:
                    raise ComplexValidationError(
                        "stratum %s: 'parents' key %r is not a decimal "
                        "integer" % (sid, m))
                mats = pnode["restriction"]
                if not isinstance(mats, list):
                    raise ComplexValidationError(
                        "stratum %s: 'restriction' must be a JSON array of "
                        "matrices" % sid)
                if not isinstance(pnode["of"], str):
                    raise ComplexValidationError(
                        "stratum %s: parent 'of' must be a JSON string, got %r"
                        % (sid, pnode["of"]))
                parents[int(m)] = (pnode["of"], [_matrix(mj) for mj in mats])
        except (ComplexValidationError, ResourceGuardError):
            raise   # named already; a refused size is no malformed record
        except KeyError as exc:
            raise ComplexValidationError(
                "malformed stratum record: missing key %s" % exc) from None
        except (TypeError, ValueError) as exc:
            raise ComplexValidationError("malformed stratum record: %s" % exc)
        strata.append(Stratum(sid, subset, ring, parents))
    name = data.get("name", "complex")
    if not isinstance(name, str):
        raise ComplexValidationError("'name' must be a JSON string, got %r"
                                     % (name,))
    cx = SemistableComplex(strata, q, name=name)
    if "dimension" in data and _json_int(data, "dimension") != cx.n:
        raise ComplexValidationError(
            "'dimension' is %d, but the components have dimension %d"
            % (data["dimension"], cx.n))
    return cx


def complex_to_json(cx):
    """Serialize a complex; rings built from specs keep their spec description."""
    from . import cohomology

    def variety_json(spec):
        if isinstance(spec, SurfaceSpec):
            return {"kind": "surface", "labels": list(spec.labels),
                    "intersection": [[str(x) for x in row]
                                     for row in spec.intersection]}
        if isinstance(spec, cohomology.Projective):
            return {"kind": "projective", "n": spec.n}
        if isinstance(spec, cohomology.BlownUp):
            return {"kind": "blowup", "n": spec.n, "q": spec.q}
        return {"kind": "product",
                "factors": [variety_json(f) for f in spec.factors]}

    strata = []
    for sid in sorted(cx.strata):
        s = cx.strata[sid]
        node = {"id": s.id, "subset": sorted(s.subset),
                "variety": variety_json(s.ring.spec), "parents": {}}
        for m, (pid, mats) in sorted(s.parents.items()):
            node["parents"][str(m)] = {
                "of": pid,
                "restriction": [[[str(x) for x in row] for row in mat]
                                for mat in mats],
            }
        strata.append(node)
    return {"schema_version": SCHEMA_VERSION, "q": cx.q, "name": cx.name,
            "dimension": cx.n, "strata": strata}


# -- the E1 page ------------------------------------------------------------------

class WeightTable:
    """Full E1/E2 table with differentials and monodromy, all degrees at once.

    E1[i, j] is laid out as level parts: part k >= max(0, i) is H^s(X^(t)),
    t = 2k-i+1 and s = j+2i-2k, after the parts before it.  d1 sends part k
    by (-1)^(k-i) rho(t, s) to part k+1 and by (-1)^k tau(t, s) to part k of
    E1[i+1, j]; N sends it by (-1)^i to part k+1 of E1[i+2, j-2].  Layouts,
    maps and E2 data are computed once per argument tuple and returned
    shared: callers must not mutate them.

    N d1 = d1 N holds for any rho and tau, so it is not checked.  From part
    k, the rho route to part k+2 carries (-1)^(k-i) (-1)^(i+1) one way and
    (-1)^i (-1)^(k+1-(i+2)) the other, both (-1)^(k+1), and the tau route to
    part k+1 carries (-1)^(k+i+1) both ways; each side uses the same block
    and exists for the same k.  N^r sends part k of E1[-r, w+r] to part k+r
    of E1[r, w-r], the same space, by +-1.  Every target part k' >= r comes
    from k = k' - r, and a source part with k + r > n + 1 has level above
    n + 1, where validation leaves no stratum, so N^r is bijective on E1."""

    def __init__(self, cx):
        self.cx = cx
        self.memo = {}
        n = cx.n
        self.entries = [(i, j) for i in range(-(n + 2), n + 3)
                        for j in range(0, 2 * n + 3) if self.e1_dim(i, j)]
        self._check_d1_squared()

    # dimensions ------------------------------------------------------------------

    @_memoized
    def parts(self, i, j):
        """({k: (t, s, offset)}, dimension) of E1[i, j]."""
        parts, dim = {}, 0
        for k in range(max(0, i), self.cx.n + 2):
            t, s = 2 * k - i + 1, j + 2 * i - 2 * k
            parts[k] = (t, s, dim)
            dim += self.cx.level_dim(t, s)
        return parts, dim

    def e1_dim(self, i, j):
        return self.parts(i, j)[1]

    # -- d1 and N -------------------------------------------------------------------

    @_memoized
    def d1(self, i, j):
        """d1: E1[i,j] -> E1[i+1,j]; a k x 0 matrix where E1[i,j] is zero."""
        cx = self.cx
        (src, ncols), (tgt, nrows) = self.parts(i, j), self.parts(i + 1, j)
        blocks = []
        for k, (t, s, col) in src.items():
            if not cx.level_dim(t, s):
                continue
            if k + 1 in tgt:
                blocks.append((tgt[k + 1][2], col, cx.rho(t, s),
                               (-1) ** (k - i)))
            if k in tgt:
                blocks.append((tgt[k][2], col, cx.tau(t, s), (-1) ** k))
        return linalg.assemble(nrows, ncols, blocks)

    def _check_d1_squared(self):
        for (i, j) in self.entries:
            if not linalg.is_zero_matrix(linalg.matmul(self.d1(i + 1, j),
                                                       self.d1(i, j))):
                raise SpectralSequenceError(
                    "d1 o d1 != 0 at entry (%d, %d); sign assembly or input "
                    "geometry is inconsistent" % (i, j))

    @_memoized
    def n_map(self, i, j):
        """Matrix of N: E1[i,j] -> E1[i+2, j-2]."""
        (src, ncols), (tgt, nrows) = self.parts(i, j), self.parts(i + 2, j - 2)
        sign = -1 if i % 2 else 1
        return linalg.assemble(nrows, ncols, [
            (tgt[k + 1][2], col, linalg.identity(self.cx.level_dim(t, s)), sign)
            for k, (t, s, col) in src.items() if k + 1 in tgt])

    # -- E2 --------------------------------------------------------------------------

    @_memoized
    def e2(self):
        """E2 per slot, from one RREF per differential (see `_homology`).

        The boundaries are columns of d1(i-1, j), so d1(i, j) kills them
        because d1(i, j) d1(i-1, j) = 0, which `_check_d1_squared` verified
        at the entry (i-1, j) when the table was built."""
        return {(i, j): _homology(self.d1(i, j), self.d1(i - 1, j))
                for (i, j) in self.entries}

    def e2_dim(self, i, j):
        slot = self.e2().get((i, j))
        return slot["quotient"].ncols if slot else 0

    @_memoized
    def induced_n(self, i, j):
        """Matrix of N on E2 quotient bases, (i,j) -> (i+2, j-2): the target
        slot's `coords` (see `_homology`) applied to N(quotient).  One matmul,
        no new elimination.  N(quotient) is made of cycles: for a cycle Q,
        d1 N Q = N d1 Q = 0, as N commutes with d1 by construction (see
        `WeightTable`)."""
        sdim, tdim = self.e2_dim(i, j), self.e2_dim(i + 2, j - 2)
        if sdim == 0 or tdim == 0:
            return linalg.zeros(tdim, sdim)
        images = linalg.matmul(self.n_map(i, j), self.e2()[(i, j)]["quotient"])
        return linalg.matmul(self.e2()[(i + 2, j - 2)]["coords"], images)

    @_memoized
    def induced_n_power(self, i, j, r):
        """N^r on E2 quotient bases, (i,j) -> (i+2r, j-2r): the composite of
        `induced_n`."""
        return _chain(self.induced_n, i, j, r)


def _cech_sign(m, subset):
    pos = sorted(subset).index(m)
    return (-1) ** pos


def _homology(d_out, d_in):
    """Cycles of d_out, a basis of the boundaries of d_in, the cycles that
    complete it to a basis of the cycles (the quotient basis), and `coords`,
    which sends a cycle to its quotient coordinates modulo the boundaries.

    The RREF of d_out gives the cycles as `kernel_basis`, and that of d_in
    the boundaries as `column_space`; each differential is the d_out of one
    slot and the d_in of the next, so it is eliminated once.  Restriction to
    the free columns of d_out's RREF maps the cycles isomorphically onto
    Q^free, cycle k to e_k, so a cycle is its vector x of free coordinates.
    In them, let R be the RREF of the boundaries read from the last free
    coordinate (the code indexes coordinate k by c = len(free) - 1 - k):
    each row is a boundary that is 1 at its last nonzero coordinate p, its
    pivot, and 0 at the other pivots.  Cycle
    k joins the quotient basis iff k is no pivot.  x - sum_p x_p R[p] is x
    modulo the boundaries and zero at every pivot, so its other entries are
    x's quotient coordinates; `coords` is that map on all of d_out's
    columns, zero off the free ones, and exact on cycles.
    """
    cycles = linalg.kernel_basis(d_out)
    boundaries = linalg.column_space(d_in)
    rev = linalg.free_columns(d_out)[::-1]
    red, pivots = linalg.rref(linalg.transpose(
        linalg.submatrix(boundaries, rows=rev)))
    kept = sorted(set(range(len(rev))) - set(pivots), reverse=True)
    quotient = linalg.submatrix(cycles, cols=[len(rev) - 1 - c for c in kept])
    coords = [[0] * d_out.ncols for _ in kept]
    for row, c in zip(coords, kept):
        row[rev[c]] = red.den
        for r, p in zip(red.rows, pivots):
            row[rev[p]] = -r[c]
    return {"cycles": cycles, "boundaries": boundaries, "quotient": quotient,
            "coords": linalg.Matrix(coords, red.den, d_out.ncols)}


def _chain(step_map, i, j, r):
    """The r-fold composite of step_map, each step (i, j) -> (i+2, j-2)."""
    m = step_map(i, j)
    for s in range(1, r):
        m = linalg.matmul(step_map(i + 2 * s, j - 2 * s), m)
    return m


@_memoized
def weight_table(cx):
    """The `WeightTable` of cx, built once per complex."""
    return WeightTable(cx)


def check_purity(cx, w):
    """N^r: E2[-r, w+r] -> E2[r, w-r] bijective for every r >= 1."""
    table = weight_table(cx)
    report = []
    verdict = True
    for r in range(1, cx.n + 2):
        sdim = table.e2_dim(-r, w + r)
        tdim = table.e2_dim(r, w - r)
        rk = linalg.rank(table.induced_n_power(-r, w + r, r))
        ok = (sdim == tdim == rk)
        verdict = verdict and ok
        report.append({"r": r, "dim_source": sdim, "dim_target": tdim,
                       "rank": rk, "ok": ok})
    return verdict, report


def inertia_invariants(cx, w):
    """Kernel of the induced N on the degree-w E2 column, graded by weight tag.

    Defined only when purity holds in degree w; the weight-j part carries the
    Frobenius scalar q^(j/2).  Purity fixes the kernel by dimensions alone,
    with no rank: N^r is injective on E2[-r], so N is injective on E2[i] for
    i < 0, and for i >= -1, E2[i+2] = N^(i+2) E2[-i-2] = N(N^(i+1) E2[-i-2])
    lies in N(E2[i]), so N maps E2[i] onto E2[i+2] and its kernel there has
    dimension dim E2[i] - dim E2[i+2] for i >= 0."""
    ok, _ = check_purity(cx, w)
    if not ok:
        raise SpectralSequenceError("purity fails in degree %d; inertia "
                                    "invariants undefined" % w)
    table = weight_table(cx)
    out = {}
    for i in range(0, cx.n + 2):
        kdim = table.e2_dim(i, w - i) - table.e2_dim(i + 2, w - i - 2)
        if kdim:
            out[w - i] = kdim
    return out


def euler_check(cx):
    """(agree, {"e1", "e2"}): the alternating sums of the E1 and E2
    dimensions.  They agree for any maps with d1 o d1 = 0, whatever the
    geometry, so this is a linear-algebra check: it tests that the E2
    dimensions `_homology` reads from `kernel_basis`, `column_space` and
    `rref` agree with one another, not the complex."""
    table = weight_table(cx)
    e1 = sum((-1) ** (i + j) * table.e1_dim(i, j) for (i, j) in table.entries)
    e2 = sum((-1) ** (i + j) * table.e2_dim(i, j) for (i, j) in table.entries)
    return e1 == e2, {"e1": e1, "e2": e2}


# -- the level-map lemma suite -----------------------------------------------------

def verify_rz_lemmas(cx):
    """Run the positivity lemma suite; returns (verdict, report rows).

    Every stratum must carry its polarization (`Stratum.polarization`), which
    validation has checked against the restrictions; the built-in fixtures
    carry one, a complex read from JSON none yet.  Hard Lefschetz must hold
    on every stratum for its class.

    The kernel-image rows ask for ranks of composites, never for a basis of
    an intersection.  With rho = rho(t, i), tau = tau(t+1, i) and
    tau' = tau(t+1, i-2), Im(rho tau') lies in Im rho, and it lies in
    Ker tau iff tau rho tau' = 0.  Then Ker tau n Im rho = Im(rho tau') iff
    the two have one dimension, and dim(Ker tau n Im rho) =
    dim Im rho - dim tau(Im rho) = rank rho - rank(tau rho).  So the row
    holds iff tau rho tau' = 0 and rank(rho tau') = rank rho - rank(tau rho);
    Ker rho(t, i+2) n Im tau = Im(tau rho) is the same argument with the
    roles of rho and tau exchanged (`_ker_cap_im`).  Im0 cuts an image with a
    primitive part by one kernel per degree (`_im0`).  The splitting
    Im tau = Im0 tau + tau Im0 rho reuses the rank of [Im0 tau | tau Im0 rho]
    taken for the isomorphism row, with one containment test (`_tau_splits`).
    """
    report = []
    ok_all = True

    def add(name, ok, detail=""):
        nonlocal ok_all
        ok_all = ok_all and ok
        report.append({"lemma": name, "ok": ok, "detail": detail})

    for sid in sorted(cx.strata):
        hl, _ = check_hard_lefschetz(cx.context(sid))
        if not hl:
            raise ValueError("hard Lefschetz fails on stratum %s; lemma suite "
                             "undefined" % sid)

    n = cx.n
    max_i = 2 * n + 2
    # composition identities
    def dims_ok(*pairs):
        return all(cx.level_dim(t_, i_) for t_, i_ in pairs)

    for t in sorted(cx.levels):
        for i in range(0, max_i, 2):
            if cx.level_dim(t, i) == 0:
                continue
            if dims_ok((t + 1, i), (t + 2, i)):
                add("rho_rho_zero[t=%d,i=%d]" % (t, i),
                    linalg.is_zero_matrix(
                        linalg.matmul(cx.rho(t + 1, i), cx.rho(t, i))))
            if t >= 3 and dims_ok((t - 1, i + 2), (t - 2, i + 4)):
                add("tau_tau_zero[t=%d,i=%d]" % (t, i),
                    linalg.is_zero_matrix(
                        linalg.matmul(cx.tau(t - 1, i + 2), cx.tau(t, i))))
            if t >= 2 and cx.level_dim(t, i + 2):
                # tau rho + rho tau = 0 between interior levels
                add("anticommute[t=%d,i=%d]" % (t, i),
                    linalg.is_zero_matrix(linalg.add(
                        cx.tau_rho(t, i), cx.rho_tau(t - 1, i + 2))))
            # rho tau rho = 0 including the boundary level
            if dims_ok((t + 1, i), (t, i + 2), (t + 1, i + 2)):
                add("rho_tau_rho_zero[t=%d,i=%d]" % (t, i),
                    linalg.is_zero_matrix(
                        linalg.matmul(cx.rho(t, i + 2), cx.tau_rho(t, i))))

    for t in sorted(cx.levels):
        if t + 1 not in cx.levels:
            continue
        dim_hi = n - t          # dim X^(t+1)
        dim_lo = n - t + 1      # dim X^(t)
        degrees = range(0, 2 * dim_hi + 1, 2)
        im_rho = {i: linalg.column_space(cx.rho(t, i)) for i in degrees}
        im_tau = {i: linalg.column_space(cx.tau(t + 1, i)) for i in degrees}
        im0_rho = _im0(cx, im_rho, t + 1, 0)
        im0_tau = _im0(cx, im_tau, t, 2)

        def im1_rho_dim(i):
            if i not in im_rho:
                return 0
            return im_rho[i].ncols - im0_rho[i].ncols

        for i in degrees:
            d_im0_rho = im0_rho[i].ncols
            # hard Lefschetz for Im0: L^(dim-i) is an isomorphism onto the
            # Im0 space in the dual degree
            p0 = dim_hi - i
            if p0 >= 0:
                img = linalg.matmul(cx.lef_power(t + 1, i, p0), im0_rho[i])
                add("hard_lefschetz_im0_rho[t=%d,i=%d]" % (t, i),
                    linalg.rank(img) == d_im0_rho
                    and linalg.subspace_equal(img, im0_rho[2 * dim_hi - i]))
            # hard Lefschetz for Im1: symmetry center shifted by one
            p1 = dim_hi + 1 - i
            i_tgt = 2 * (dim_hi + 1) - i
            if p1 >= 0:
                src_q = im1_rho_dim(i)
                tgt_q = im1_rho_dim(i_tgt)
                if i_tgt > 2 * dim_hi:
                    add("hard_lefschetz_im1_rho[t=%d,i=%d]" % (t, i), src_q == 0)
                elif src_q or tgt_q:
                    img = linalg.matmul(cx.lef_power(t + 1, i, p1), im_rho[i])
                    inside = linalg.subspace_leq(img, im_rho[i_tgt])
                    quot_rank = linalg.rank(linalg.stack_columns(
                        im0_rho[i_tgt], img)) - im0_rho[i_tgt].ncols
                    add("hard_lefschetz_im1_rho[t=%d,i=%d]" % (t, i),
                        inside and src_q == tgt_q == quot_rank)
            # duality of dimensions: dim Im0 rho_i = dim Im1 tau_i and
            # dim Im1 rho_(i+2) = dim Im0 tau_i
            d_im0_tau = im0_tau[i].ncols
            d_im1_tau = im_tau[i].ncols - d_im0_tau
            add("duality_dims[t=%d,i=%d]" % (t, i),
                d_im0_rho == d_im1_tau and im1_rho_dim(i + 2) == d_im0_tau)
            # nondegeneracy of the Lefschetz pairing on Im0 (middle range)
            if d_im0_rho and i <= dim_hi:
                g_hi = cx.gram(t + 1, i)
                sub = linalg.matmul(linalg.transpose(im0_rho[i]),
                                    linalg.matmul(g_hi, im0_rho[i]))
                add("nondegenerate_im0_rho[t=%d,i=%d]" % (t, i),
                    linalg.rank(sub) == d_im0_rho)
            g_lo = cx.gram(t, i + 2) if i + 2 <= dim_lo else None
            if d_im0_tau and g_lo is not None:
                sub = linalg.matmul(linalg.transpose(im0_tau[i]),
                                    linalg.matmul(g_lo, im0_tau[i]))
                add("nondegenerate_im0_tau[t=%d,i=%d]" % (t, i),
                    linalg.rank(sub) == d_im0_tau)
            # isomorphism Im0 rho -> Im1 tau and the orthogonal splitting
            if d_im0_rho or d_im1_tau:
                img = linalg.matmul(cx.tau(t + 1, i), im0_rho[i])
                got = linalg.rank(linalg.stack_columns(im0_tau[i], img)) \
                    - d_im0_tau
                add("isomorphism_im0_to_im1[t=%d,i=%d]" % (t, i),
                    got == d_im0_rho == d_im1_tau)
                split_ok = _tau_splits(im_tau[i], im0_tau[i], img,
                                       d_im0_tau + got)
                cross_ok = g_lo is None or linalg.is_zero_matrix(
                    linalg.matmul(linalg.transpose(im0_tau[i]),
                                  linalg.matmul(g_lo, img)))
                add("orthogonal_splitting_tau[t=%d,i=%d]" % (t, i),
                    split_ok and cross_ok)
            tau_ok, rho_ok = _ker_cap_im(cx, t, i)
            add("ker_tau_cap_im_rho[t=%d,i=%d]" % (t, i), tau_ok)
            add("ker_rho_cap_im_tau[t=%d,i=%d]" % (t, i), rho_ok)

    return ok_all, report


def _tau_splits(im_tau, im0_tau, img, sum_rank):
    """Whether Im tau = Im0 tau + img, where img = tau . Im0 rho and sum_rank
    is the rank of [Im0 tau | img].  img lies in Im tau by construction, so
    the sum equals Im tau iff it has dimension dim Im tau and Im0 tau lies in
    Im tau."""
    return sum_rank == im_tau.ncols and linalg.subspace_leq(im0_tau, im_tau)


def _ker_cap_im(cx, t, i):
    """Whether Ker tau(t+1, i) n Im rho(t, i) = Im(rho(t, i) tau(t+1, i-2))
    and Ker rho(t, i+2) n Im tau(t+1, i) = Im(tau(t+1, i) rho(t, i)), by the
    rank identities of `verify_rz_lemmas`."""
    rank, zero, matmul = linalg.rank, linalg.is_zero_matrix, linalg.matmul
    rho, tau = cx.rho(t, i), cx.tau(t + 1, i)
    rt, tr = cx.rho_tau(t, i), cx.tau_rho(t, i)
    return (zero(matmul(tau, rt)) and rank(rt) == rank(rho) - rank(tr),
            zero(matmul(cx.rho(t, i + 2), tr))
            and rank(tr) == rank(tau) - rank(cx.rho_tau(t, i + 2)))


def _im0(cx, images, t, shift):
    """Im0 per degree i: images[i] cut with the primitive part P_j of
    H^(2j)(X^(t)), 2j = i + shift, then closed under L from the lower degrees.

    images[i] = A has full column rank, and P_j = Ker L^(d-2j+1) with d the
    dimension of the level-t strata (P_j = 0 for 2j > d), so the cut is
    A . Ker(L^(d-2j+1) A), a basis of col(A) n P_j.
    """
    d = cx.n - t + 1
    im0 = {}
    for i, a in images.items():
        j = (i + shift) // 2
        im0[i] = linalg.zeros(a.nrows, 0) if 2 * j > d else linalg.matmul(
            a, linalg.kernel_basis(linalg.matmul(
                cx.lef_power(t, i + shift, d - 2 * j + 1), a)))
    for i in images:
        for jj in range(1, i // 2 + 1):
            im0[i] = linalg.subspace_sum(
                im0[i], linalg.matmul(cx.lef_power(t, i + shift - 2 * jj, jj),
                                      im0[i - 2 * jj]))
    return im0


