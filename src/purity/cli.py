"""Command-line front end.

Exit codes: 0 = all requested checks pass, 1 = a mathematical check failed,
2 = invalid input or validation failure.  Reports are deterministic; pass
--json for machine-readable output.  The environment variable PURITY_MAX_DIM
overrides the blow-up dimension guard.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import cohomology, fixtures, lefschetz, weightss, zeta
from .cohomology import ResourceGuardError, CohomologyError
from .fields import FieldError
from .geometry import GeometryError
from .weightss import ComplexValidationError, SpectralSequenceError

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INVALID = 2


def _emit(args, payload, text_lines):
    if args.json:
        payload = {"schema_version": SCHEMA_VERSION, **payload}
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _parse_divisor(spec_str, n, q, ring):
    """'omega' or comma-separated alpha,a_0..a_(n-1) level coefficients."""
    if spec_str == "omega":
        form = lefschetz.omega_form(n, q) if n >= 2 else None
        if n >= 2:
            vec = ring.divisor_vector(form.as_divisor(ring.spec))
        else:
            vec = lefschetz.omega_vector(ring, q)
        return vec, form
    try:
        parts = [Fraction(p) for p in spec_str.split(",")]
    except ZeroDivisionError:
        raise ValueError("divisor coefficient with zero denominator in %r"
                         % spec_str) from None
    if len(parts) == n:          # canonical form: the top level is implicit 0
        parts = parts + [Fraction(0)]
    if len(parts) != n + 1:
        raise ValueError("divisor needs alpha and %d or %d level coefficients"
                         % (n - 1, n))
    form = lefschetz.normalize_invariant(n, q, parts[0], parts[1:])
    if n >= 2:
        vec = ring.divisor_vector(form.as_divisor(ring.spec))
    else:
        v = ring.zero(1)
        v[0] = form.alpha
        vec = v
    return vec, form


def cmd_ring(args):
    ring = cohomology.build_ring(cohomology.blowup(args.n, args.q))
    betti = cohomology.betti_numbers(ring.spec)
    dims = ring.dims()
    lines = ["ring: blow-up of P^%d along all F_%d-rational linear centers"
             % (args.n, args.q),
             "betti: %s" % " ".join(str(b) for b in betti),
             "basis sizes: %s" % " ".join(str(d) for d in dims)]
    payload = {"command": "ring", "n": args.n, "q": args.q,
               "betti": betti, "basis_sizes": dims}
    if args.json:
        payload["ring"] = ring.to_json(include_products=args.products)
    if args.degree is not None:
        k = args.degree
        if not (0 <= k <= ring.n):
            raise ValueError("degree out of range 0..%d" % ring.n)
        pairing = [[str(x) for x in row] for row in ring.pairing[k]]
        payload["pairing_degree"] = k
        payload["pairing"] = pairing
        lines.append("pairing in degree %d:" % k)
        for row in pairing:
            lines.append("  [%s]" % " ".join(row))
    _emit(args, payload, lines)
    return EXIT_OK if dims == betti else EXIT_CHECK_FAILED


def cmd_hodge(args):
    if args.n < 1:
        raise lefschetz.LefschetzError(
            "hodge needs n >= 1 (a degree-1 class), got n=%d" % args.n)
    ring = cohomology.build_ring(cohomology.blowup(args.n, args.q))
    vec, form = _parse_divisor(args.divisor, args.n, args.q, ring)
    lines = ["variety: B^%d over F_%d" % (args.n, args.q)]
    payload = {"command": "hodge", "n": args.n, "q": args.q,
               "divisor": args.divisor}
    if form is not None:
        positive = lefschetz.is_positive(form)
        payload["positive"] = positive
        payload["alpha"] = str(form.alpha)
        payload["levels"] = [str(a) for a in form.levels]
        lines.append("positivity criterion: %s (alpha=%s, levels=%s)"
                     % ("positive" if positive else "NOT positive",
                        form.alpha, ",".join(str(a) for a in form.levels)))
        if not positive:
            lines.append("REFUSED: class is not positive; "
                         "Lefschetz verification needs a positive class")
            payload["verdict"] = "refused"
            _emit(args, payload, lines)
            return EXIT_CHECK_FAILED
    ctx = lefschetz.make_context(ring, vec)
    hl, hl_report = lefschetz.check_hard_lefschetz(ctx)
    payload["hard_lefschetz"] = {"ok": hl, "degrees": hl_report}
    for row in hl_report:
        lines.append("hard Lefschetz H^%d: rank %d / %d %s"
                     % (row["degree"], row["rank"], row["expected"],
                        "ok" if row["ok"] else "FAIL"))
    if not hl:
        lines.append("verdict: FAIL (hard Lefschetz)")
        payload["verdict"] = "fail"
        _emit(args, payload, lines)
        return EXIT_CHECK_FAILED
    hodge, report = lefschetz.check_hodge_standard(ctx)
    payload["hodge_standard"] = {"ok": hodge, "degrees": report["degrees"]}
    for row in report["degrees"]:
        sig = row["inertia"]
        lines.append(
            "Hodge positivity H^%d: primitive dim %d, %s; inertia "
            "(%d,%d,%d), signature %d (expected %d)"
            % (row["degree"], row["primitive_dim"],
               "positive definite" if row["positive_definite"] else "NOT definite",
               sig["n_plus"], sig["n_minus"], sig["n_zero"],
               row["signature"], row["signature_expected"]))
    verdict = hl and hodge
    lines.append("verdict: %s" % ("PASS" if verdict else "FAIL"))
    payload["verdict"] = "pass" if verdict else "fail"
    _emit(args, payload, lines)
    return EXIT_OK if verdict else EXIT_CHECK_FAILED


def _fixture_from_arg(text):
    if ":" in text:
        name, argstr = text.split(":", 1)
        fargs = [int(x) for x in argstr.split(",") if x != ""]
    else:
        name, fargs = text, []
    return fixtures.make_fixture(name, *fargs)


def cmd_wss(args):
    if args.fixture:
        cx, l_system = _fixture_from_arg(args.fixture)
    else:
        cx = weightss.load_complex(args.input)
        l_system = None
    lines = ["complex: %s (%d strata, dimension %d, q=%d)"
             % (cx.name, len(cx.strata), cx.n, cx.q)]
    payload = {"command": "wss", "complex": cx.name, "q": cx.q,
               "dimension": cx.n, "strata": len(cx.strata)}
    table = weightss.weight_table(cx)   # raises on d1^2 or monodromy failure
    lines.append("d1 o d1 = 0: ok")
    lines.append("N o d1 = d1 o N: ok")
    lines.append("E1 monodromy isomorphisms N^r: ok")
    euler_ok, euler = weightss.euler_check(cx)
    lines.append("Euler conservation E1 vs E2: %s (%d = %d)"
                 % ("ok" if euler_ok else "FAIL", euler["e1"], euler["e2"]))
    payload["euler"] = euler
    all_ok = euler_ok
    purity_all = True
    purity_payload = {}
    for w in range(0, 2 * cx.n + 1):
        ok, rows = weightss.check_purity(cx, w)
        purity_all = purity_all and ok
        purity_payload[str(w)] = {"ok": ok, "ranks": rows}
        dims = weightss.build_e1(cx, w).e2_entry_dims()
        total = sum(dims.values())
        lines.append("purity w=%d: %s (E2 total dim %d)"
                     % (w, "PASS" if ok else "FAIL", total))
    payload["purity"] = purity_payload
    all_ok = all_ok and purity_all
    if args.check_lemmas:
        if l_system is None:
            raise ComplexValidationError(
                "lemma suite needs built-in fixtures (they carry the "
                "polarization data)")
        lem_ok, rows = weightss.verify_rz_lemmas(cx, l_system)
        failed = [r["lemma"] for r in rows if not r["ok"]]
        lines.append("positivity lemma suite: %s (%d checks%s)"
                     % ("PASS" if lem_ok else "FAIL", len(rows),
                        "" if lem_ok else "; failing: " + ", ".join(failed[:8])))
        payload["lemmas"] = {"ok": lem_ok, "checks": len(rows),
                             "failed": failed}
        all_ok = all_ok and lem_ok
    if args.zeta:
        if purity_all:
            zf = zeta.zeta_function(cx)
            match = zeta.zeta_matches_weight_table(cx)
            lines.append("zeta: %s" % zf)
            lines.append("zeta factors match weight table: %s"
                         % ("ok" if match else "FAIL"))
            lines.append("p-adic variant: identical (Frobenius acts by "
                         "q^(j/2) scalars on all weight-j pieces)")
            payload["zeta"] = {**zf.to_json(), "display": str(zf),
                               "weight_table_match": match,
                               "p_adic_variant": "identical"}
            all_ok = all_ok and match
        else:
            lines.append("zeta: skipped (purity failed)")
            payload["zeta"] = None
    _emit(args, payload, lines)
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


def build_parser():
    parser = argparse.ArgumentParser(
        prog="purity",
        description="Exact checks of hard Lefschetz, Hodge positivity and "
                    "monodromy purity on blow-ups of projective space")
    parser.add_argument("--json", action="store_true",
                        help="emit a JSON report instead of text")
    parser.add_argument("--timeout", type=int, default=None,
                        help="abort with exit code 2 after this many seconds")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ring = sub.add_parser("ring", help="build a cohomology ring and report "
                                         "Betti numbers and pairings")
    p_ring.add_argument("--n", type=int, required=True)
    p_ring.add_argument("--q", type=int, required=True)
    p_ring.add_argument("--degree", type=int, default=None,
                        help="also print the pairing matrix in this degree")
    p_ring.add_argument("--products", action="store_true",
                        help="include full product tables in the JSON dump")
    p_ring.set_defaults(func=cmd_ring)

    p_hodge = sub.add_parser("hodge", help="verify hard Lefschetz and Hodge "
                                           "positivity for a divisor class")
    p_hodge.add_argument("--n", type=int, required=True)
    p_hodge.add_argument("--q", type=int, required=True)
    p_hodge.add_argument("--divisor", default="omega",
                         help="'omega' or 'alpha,a0,...' level coefficients")
    p_hodge.set_defaults(func=cmd_hodge)

    p_wss = sub.add_parser("wss", help="run the weight spectral sequence on a "
                                       "fixture or JSON complex")
    src = p_wss.add_mutually_exclusive_group(required=True)
    src.add_argument("--fixture", help="name[:args], e.g. tate-cycle:3,2")
    src.add_argument("--input", help="path to a JSON complex")
    p_wss.add_argument("--check-lemmas", action="store_true")
    p_wss.add_argument("--zeta", action="store_true")
    p_wss.set_defaults(func=cmd_wss)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    old_alarm = None
    if getattr(args, "timeout", None):
        import signal

        def _on_alarm(signum, frame):
            raise TimeoutError("timeout of %ds exceeded" % args.timeout)

        old_alarm = signal.signal(signal.SIGALRM, _on_alarm)
        signal.alarm(args.timeout)
    try:
        return args.func(args)
    except (ComplexValidationError, SpectralSequenceError, FieldError,
            GeometryError, ResourceGuardError, CohomologyError,
            fixtures.FixtureError, ValueError, OSError, TimeoutError,
            json.JSONDecodeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INVALID
    finally:
        if old_alarm is not None:
            import signal
            signal.alarm(0)
            signal.signal(signal.SIGALRM, old_alarm)


if __name__ == "__main__":
    sys.exit(main())
