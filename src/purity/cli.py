"""Command-line front end.

Each command builds one report, a JSON payload, and says whether every
requested check passed; `main` alone writes it.  With --json the report is
streamed to stdout as it is written, and its bytes are those of
json.dumps(report, indent=2, sort_keys=True); without it, the text report is
rendered from the same payload by the command's renderer in `_TEXT`, so the
two cannot disagree.  Reports are deterministic.

Exit codes: 0 = all requested checks pass, 1 = a mathematical check failed,
2 = invalid input or validation failure.  Oversized requests exit 2 up
front: a variety of dimension above cohomology.MAX_DIMENSION (4), a ring whose
Betti numbers sum to more than cohomology.SIZE_BUDGET (4000), or a complex
whose E1 page has a larger total dimension (see README.md for the measured
boundary).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from collections.abc import Sequence
from fractions import Fraction
from itertools import compress
from json.encoder import encode_basestring_ascii as _json_str

from . import cohomology, linalg

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INVALID = 2


# characters per stdout write: with PYTHONUNBUFFERED=1 every write is a syscall
_BATCH = 1 << 16


def _write_json(obj, write):
    """Write the text of `json.dumps(obj, indent=2, sort_keys=True)` through
    `write`, in batches of about _BATCH characters, without ever building the
    whole text.  A list or tuple whose items are all str, or all int, is
    written as one piece; any other sequence, such as the lazy
    `cohomology.ProductRows`, is read once, item by item.  A `linalg.Matrix`
    is written as the list of its rows, each a list of entry strings ("n" or
    "p/q", as `str` of a `Fraction`), one row at a time: a row starts as
    "0" cells and only its nonzeros are rendered, and a cell, made of digits,
    "-" and "/", needs no JSON escape."""
    pieces = []
    size = 0

    def put(s):
        nonlocal size
        pieces.append(s)
        size += len(s)
        if size >= _BATCH:
            write("".join(pieces))
            pieces.clear()
            size = 0

    def value(o, nl):
        t = type(o)
        if t is str:
            put(_json_str(o))
        elif t is int:
            put(int.__repr__(o))
        elif t is dict:
            inner = nl + "  "
            sep = "{" + inner
            for k in sorted(o):
                put(sep + _json_str(k) + ": ")
                value(o[k], inner)
                sep = "," + inner
            put("{}" if not o else nl + "}")
        elif t is linalg.Matrix:
            inner = nl + "  "
            cell = inner + "  "
            cols = range(o.ncols)
            den = o.den
            sep = "[" + inner
            for row in o.rows:
                cells = ['"0"'] * o.ncols
                for j in compress(cols, row):
                    cells[j] = '"%s"' % (row[j] if den == 1
                                         else Fraction(row[j], den))
                put(sep + ("[" + cell + ("," + cell).join(cells) + inner + "]"
                           if cells else "[]"))
                sep = "," + inner
            put("[]" if not o.nrows else nl + "]")
        elif t is list or t is tuple or (isinstance(o, Sequence) and
                                         not isinstance(o, (str, bytes))):
            inner = nl + "  "
            if t is list or t is tuple:
                kinds = set(map(type, o))
                # by type, not isinstance: a bool must not print as an int
                if kinds == {str} or kinds == {int}:
                    each = _json_str if str in kinds else int.__repr__
                    put("[" + inner + ("," + inner).join(map(each, o))
                        + nl + "]")
                    return
            first = sep = "[" + inner
            for item in o:
                put(sep)
                value(item, inner)
                sep = "," + inner
            put("[]" if sep is first else nl + "]")
        else:   # bool, None, float; TypeError for what JSON cannot hold
            put(json.dumps(o))

    value(obj, "\n")
    write("".join(pieces))


def _parse_divisor(spec_str, n, q):
    """The `lefschetz.InvariantDivisorForm` of 'omega' or of comma-separated
    alpha,a_0..a_(n-1) level coefficients."""
    from . import lefschetz
    if spec_str == "omega":
        return lefschetz.omega_form(n, q)
    parts = spec_str.split(",")
    bad = next((p for p in parts if not linalg.RATIONAL.fullmatch(p)), None)
    if bad is not None:
        raise ValueError("divisor coefficient %r is not an integer or 'p/q'"
                         % bad)
    try:
        parts = [Fraction(p) for p in parts]
    except ZeroDivisionError:
        raise ValueError("divisor coefficient with zero denominator in %r"
                         % spec_str) from None
    if len(parts) == n:          # canonical form: the top level is implicit 0
        parts = parts + [Fraction(0)]
    if len(parts) != n + 1:
        raise ValueError("divisor needs alpha and %d or %d level coefficients"
                         % (n - 1, n))
    return lefschetz.normalize_invariant(n, q, parts[0], parts[1:])


def cmd_ring(args):
    spec = cohomology.blowup(args.n, args.q)
    k = args.degree
    if k is not None and not 0 <= k <= args.n:
        raise ValueError("degree out of range 0..%d" % args.n)
    ring = cohomology.build_ring(spec)
    payload = {"command": "ring", "n": args.n, "q": args.q,
               "betti": cohomology.betti_numbers(ring.spec),
               "basis_sizes": ring.dims(),
               "ring": ring.to_json(include_products=args.products)}
    if k is not None:
        payload["pairing_degree"] = k
        payload["pairing"] = ring.pairing[k]
    return payload, True


def _ring_text(p):
    yield ("ring: blow-up of P^%d along all F_%d-rational linear centers"
           % (p["n"], p["q"]))
    yield "betti: %s" % " ".join(map(str, p["betti"]))
    yield "basis sizes: %s" % " ".join(map(str, p["basis_sizes"]))
    if "pairing" in p:
        yield "pairing in degree %d:" % p["pairing_degree"]
        for row in p["pairing"]:
            yield "  [%s]" % " ".join(map(str, row))


def cmd_hodge(args):
    from . import lefschetz
    if args.n < 1:
        raise lefschetz.LefschetzError(
            "hodge needs n >= 1 (a degree-1 class), got n=%d" % args.n)
    spec = cohomology.blowup(args.n, args.q)
    cohomology.check_resource_guard(spec)   # before omega_form's n levels
    form = _parse_divisor(args.divisor, args.n, args.q)
    ok = lefschetz.is_positive(form)
    payload = {"command": "hodge", "n": args.n, "q": args.q,
               "divisor": args.divisor, "positive": ok,
               "alpha": str(form.alpha), "verdict": "refused",
               "levels": [str(a) for a in form.levels]}
    if ok:
        ring = cohomology.build_ring(spec)
        ctx = lefschetz.make_context(ring, form.vector(ring))
        ok, rows = lefschetz.check_hard_lefschetz(ctx)
        payload["hard_lefschetz"] = {"ok": ok, "degrees": rows}
        if ok:
            ok, rows = lefschetz.check_hodge_standard(ctx)
            payload["hodge_standard"] = {"ok": ok, "degrees": rows}
        payload["verdict"] = "pass" if ok else "fail"
    return payload, ok


def _hodge_text(p):
    yield "variety: B^%d over F_%d" % (p["n"], p["q"])
    yield ("positivity criterion: %s (alpha=%s, levels=%s)"
           % ("positive" if p["positive"] else "NOT positive",
              p["alpha"], ",".join(p["levels"])))
    if not p["positive"]:
        yield ("REFUSED: class is not positive; "
               "Lefschetz verification needs a positive class")
        return
    for row in p["hard_lefschetz"]["degrees"]:
        yield ("hard Lefschetz H^%d: rank %d / %d %s"
               % (row["degree"], row["rank"], row["expected"],
                  "ok" if row["ok"] else "FAIL"))
    if "hodge_standard" not in p:
        yield "verdict: FAIL (hard Lefschetz)"
        return
    for row in p["hodge_standard"]["degrees"]:
        sig = row["inertia"]
        yield ("Hodge positivity H^%d: primitive dim %d, %s; inertia "
               "(%d,%d,%d), signature %d (expected %d)"
               % (row["degree"], row["primitive_dim"], "positive definite"
                  if row["positive_definite"] else "NOT definite",
                  sig["n_plus"], sig["n_minus"], sig["n_zero"],
                  row["signature"], row["signature_expected"]))
    yield "verdict: %s" % p["verdict"].upper()


def _fixture_from_arg(text):
    """`name[:args]`: each comma field of args must match -?[0-9]+."""
    from .fixtures import FixtureError, make_fixture
    name, colon, argstr = text.partition(":")
    fields = argstr.split(",") if colon else []
    for field in fields:
        if not re.fullmatch("-?[0-9]+", field):
            raise FixtureError("fixture argument %r in %r is not an integer"
                               % (field, text))
    return make_fixture(name, *map(int, fields))


def cmd_wss(args):
    from . import weightss, zeta
    if args.input is not None and args.check_lemmas:
        raise weightss.ComplexValidationError(
            "lemma suite needs built-in fixtures (they carry the "
            "polarization data)")
    if args.fixture is not None:
        cx = _fixture_from_arg(args.fixture)
    else:
        cx = weightss.load_complex(args.input)
    payload = {"command": "wss", "complex": cx.name, "q": cx.q,
               "dimension": cx.n, "strata": len(cx.strata)}
    ok, payload["euler"] = weightss.euler_check(cx)
    purity = payload["purity"] = {}
    for w in range(0, 2 * cx.n + 1):
        w_ok, rows = weightss.check_purity(cx, w)
        purity[str(w)] = {"ok": w_ok, "ranks": rows}
    pure = all(entry["ok"] for entry in purity.values())
    ok = ok and pure
    if args.check_lemmas:
        lem_ok, rows = weightss.verify_rz_lemmas(cx)
        payload["lemmas"] = {"ok": lem_ok, "checks": len(rows),
                             "failed": [r["lemma"] for r in rows
                                        if not r["ok"]]}
        ok = ok and lem_ok
    if args.zeta:
        payload["zeta"] = None
        if pure:
            zf = zeta.zeta_function(cx)
            match = zeta.zeta_matches_weight_table(cx)
            payload["zeta"] = {**zf.to_json(), "display": str(zf),
                               "weight_table_match": match,
                               "p_adic_variant": "identical"}
            ok = ok and match
    return payload, ok


def _wss_text(p):
    yield ("complex: %s (%d strata, dimension %d, q=%d)"
           % (p["complex"], p["strata"], p["dimension"], p["q"]))
    # constant: weight_table raises before any report exists if it fails
    yield "d1 o d1 = 0: ok"
    e1, e2 = p["euler"]["e1"], p["euler"]["e2"]
    yield ("E1/E2 Euler characteristics agree (linear-algebra check): "
           "%s (%d = %d)" % ("ok" if e1 == e2 else "FAIL", e1, e2))
    for w in range(0, 2 * p["dimension"] + 1):
        fails = ["N^%d: rank %d, E2 dims %d -> %d"
                 % (r["r"], r["rank"], r["dim_source"], r["dim_target"])
                 for r in p["purity"][str(w)]["ranks"] if not r["ok"]]
        verdict = "FAIL (%s)" % "; ".join(fails) if fails else "PASS"
        yield "purity w=%d: %s" % (w, verdict)
    if "lemmas" in p:
        lemmas = p["lemmas"]
        yield ("positivity lemma suite: %s (%d checks%s)"
               % ("PASS" if lemmas["ok"] else "FAIL", lemmas["checks"],
                  "" if lemmas["ok"]
                  else "; failing: " + ", ".join(lemmas["failed"][:8])))
    z = p.get("zeta", {})
    if z is None:
        yield "zeta: skipped (purity failed)"
    elif z:
        yield "zeta: %s" % z["display"]
        yield ("zeta factors match weight table: %s"
               % ("ok" if z["weight_table_match"] else "FAIL"))
        yield ("p-adic variant: %s (Frobenius acts by q^(j/2) scalars on "
               "all weight-j pieces)" % z["p_adic_variant"])


# command -> the lines of its text report, read from the payload alone
_TEXT = {"ring": _ring_text, "hodge": _hodge_text, "wss": _wss_text}


# `signal.alarm` reads 0 as no alarm, wraps a negative count to about 136
# years and overflows above a C int
MAX_TIMEOUT = 2 ** 31 - 1


def _timeout_seconds(text):
    """A whole number of seconds in 1..MAX_TIMEOUT, or a parse error."""
    try:
        seconds = int(text)
    except ValueError:
        seconds = 0
    if not 1 <= seconds <= MAX_TIMEOUT:
        raise argparse.ArgumentTypeError(
            "timeout must be a whole number of seconds in 1..%d, got %r"
            % (MAX_TIMEOUT, text))
    return seconds


def build_parser():
    parser = argparse.ArgumentParser(
        prog="purity",
        description="Exact checks of hard Lefschetz, Hodge positivity and "
                    "monodromy purity on blow-ups of projective space")
    parser.add_argument("--json", action="store_true",
                        help="emit a JSON report instead of text")
    parser.add_argument("--timeout", type=_timeout_seconds, default=None,
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
                         help="'omega' or 'alpha,a0,...' level coefficients, "
                              "each an integer or p/q; give a value with a "
                              "leading minus as --divisor=-4,3,2,1")
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
    if args.timeout is not None:
        import signal

        def _on_alarm(signum, frame):
            raise TimeoutError("timeout of %ds exceeded" % args.timeout)

        old_alarm = signal.signal(signal.SIGALRM, _on_alarm)
        signal.alarm(args.timeout)
    try:
        payload, ok = args.func(args)
        try:
            if args.json:
                _write_json({"schema_version": SCHEMA_VERSION, **payload},
                            sys.stdout.write)
                sys.stdout.write("\n")
            else:
                for line in _TEXT[args.command](payload):
                    print(line)
            sys.stdout.flush()   # a closed pipe fails here, not at exit
        except BrokenPipeError:
            # the reader stopped early, which does not change the verdict;
            # with fd 1 on devnull the interpreter's exit flush cannot fail
            import os
            with open(os.devnull, "w") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
        return EXIT_OK if ok else EXIT_CHECK_FAILED
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INVALID
    finally:
        if old_alarm is not None:
            import signal
            signal.alarm(0)
            signal.signal(signal.SIGALRM, old_alarm)


if __name__ == "__main__":
    sys.exit(main())
