import contextlib
import functools
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from purity import fixtures
from purity.cli import _BATCH, _TEXT, _write_json, main
from purity.cohomology import SIZE_BUDGET, PairingRows, blowup, build_ring
from purity.fixtures import drinfeld_local, make_fixture
from purity.linalg import Matrix
from purity.weightss import (ComplexValidationError, SemistableComplex,
                             complex_to_json, load_complex)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_ring_command(capsys):
    code, out, _ = run(capsys, "ring", "--n", "2", "--q", "2")
    assert code == 0
    assert "betti: 1 8 1" in out


def test_ring_command_curve(capsys):
    code, out, _ = run(capsys, "ring", "--n", "1", "--q", "5")
    assert code == 0
    assert "betti: 1 1" in out


def test_ring_json_deterministic(capsys):
    code, out1, _ = run(capsys, "--json", "ring", "--n", "2", "--q", "2",
                        "--degree", "1")
    code2, out2, _ = run(capsys, "--json", "ring", "--n", "2", "--q", "2",
                         "--degree", "1")
    assert code == code2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert data["betti"] == [1, 8, 1]
    assert data["schema_version"] == 1


def test_ring_guard(capsys):
    code, _, err = run(capsys, "ring", "--n", "5", "--q", "2")
    assert code == 2
    assert "guard" in err


@pytest.mark.parametrize("degree", ["-1", "5", "9"])
def test_ring_degree_out_of_range_is_refused_before_the_ring_is_built(
        monkeypatch, capsys, degree):
    from purity import cohomology

    def unreachable(spec):
        raise AssertionError("build_ring ran")
    monkeypatch.setattr(cohomology, "build_ring", unreachable)
    code, out, err = run(capsys, "ring", "--n", "4", "--q", "2",
                         "--degree", degree)
    assert (code, out, err) == (2, "", "error: degree out of range 0..4\n")


def test_hodge_pass(capsys):
    code, out, _ = run(capsys, "hodge", "--n", "2", "--q", "2",
                       "--divisor", "omega")
    assert code == 0
    assert "verdict: PASS" in out


def test_hodge_curve(capsys):
    code, out, _ = run(capsys, "hodge", "--n", "1", "--q", "3",
                       "--divisor", "omega")
    assert code == 0
    assert "verdict: PASS" in out


@pytest.mark.parametrize("n,q,numeric", [(1, 3, "-2,1"), (2, 3, "-3,2,1"),
                                         (3, 2, "-4,3,2,1")])
def test_omega_and_its_numeric_form_give_one_report(capsys, n, q, numeric):
    # omega is -(n+1) h + sum (n-d) D_d at every n >= 1, through the same
    # positivity gate and the same coordinates as any numeric class
    reports = []
    for divisor in ("omega", numeric):
        code, out, _ = run(capsys, "--json", "hodge", "--n", str(n),
                           "--q", str(q), "--divisor=" + divisor)
        assert code == 0
        report = json.loads(out)
        assert report.pop("divisor") == divisor
        reports.append(report)
    assert reports[0] == reports[1]
    assert reports[0]["positive"] is True


def test_a_divisor_with_a_leading_minus_needs_the_equals_form(capsys):
    # argparse reads "--divisor -4,3,2,1" as an option with no value, so the
    # help and the README give "--divisor=-4,3,2,1", whose report is omega's
    # (test_omega_and_its_numeric_form_give_one_report)
    for argv, code in [(["hodge", "--n", "3", "--q", "2", "--divisor",
                         "-4,3,2,1"], 2), (["hodge", "--help"], 0)]:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == code
    out, err = capsys.readouterr()
    assert "expected one argument" in err
    assert "--divisor=-4,3,2,1" in " ".join(out.split())
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    assert "purity hodge --n 3 --q 2 --divisor=-4,3,2,1" in readme


def test_hodge_refuses_non_positive(capsys):
    code, out, _ = run(capsys, "hodge", "--n", "2", "--q", "2",
                       "--divisor", "1,-1")
    assert code == 1
    assert "REFUSED" in out and "NOT positive" in out


@pytest.mark.parametrize("divisor,code,out,err", [
    ("abc", 2, "", "error: divisor coefficient 'abc' is not an integer or "
                   "'p/q'\n"),
    ("0,0,0,0,0", 1, "variety: B^4 over F_2\n"
                     "positivity criterion: NOT positive (alpha=0, "
                     "levels=0,0,0,0)\n"
                     "REFUSED: class is not positive; Lefschetz verification "
                     "needs a positive class\n", ""),
], ids=["malformed", "not-positive"])
def test_hodge_refuses_a_divisor_before_the_ring_is_built(
        monkeypatch, capsys, divisor, code, out, err):
    from purity import cohomology

    def unreachable(spec):
        raise AssertionError("build_ring ran")
    monkeypatch.setattr(cohomology, "build_ring", unreachable)
    assert run(capsys, "hodge", "--n", "4", "--q", "2",
               "--divisor", divisor) == (code, out, err)


def test_hodge_refuses_positive_margins_that_are_not_concave(capsys):
    # margins 0, 1/5, 8/5, 12/5, 0: all positive, but the class fails
    # Hodge-Riemann in degree 0 (see lefschetz.is_positive)
    code, out, _ = run(capsys, "--json", "hodge", "--n", "3", "--q", "2",
                       "--divisor", "3,1,1")
    data = json.loads(out)
    assert (code, data["positive"], data["verdict"]) == (1, False, "refused")


# the gate is the wall inequalities (q+1) c_k > c_(k+1) + q c_(k-1), not
# concavity: the first two are concave and fail wall 3 (and Hodge-Riemann),
# the third is not concave and passes every wall, HL and HR
@pytest.mark.parametrize("n,q,divisor,code,verdict", [
    ("3", "3", "73/2,-11,-2", 1, "refused"),
    ("3", "2", "555/8,-225/8,-23/4", 1, "refused"),
    ("3", "2", "15,-5,-1/2", 0, "pass"),
])
def test_hodge_gates_on_the_wall_inequalities(capsys, n, q, divisor, code,
                                              verdict):
    got, out, _ = run(capsys, "--json", "hodge", "--n", n, "--q", q,
                      "--divisor", divisor)
    data = json.loads(out)
    assert (got, data["positive"], data["verdict"]) == (code, code == 0,
                                                        verdict)


@pytest.mark.parametrize("value", ["-5", "0", "x", "2147483648"])
def test_timeout_outside_the_alarm_range_is_invalid_input(capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["--timeout", value, "ring", "--n", "2", "--q", "2"])
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, "")
    assert "timeout must be a whole number of seconds in 1..2147483647" \
        in captured.err


def test_wss_fixture_with_zeta(capsys):
    code, out, _ = run(capsys, "wss", "--fixture", "tate-cycle:3,2", "--zeta")
    assert code == 0
    assert "purity w=1: PASS" in out
    assert "zeta: 1 / (1 - 2T)" in out


def test_wss_lemmas(capsys):
    code, out, _ = run(capsys, "wss", "--fixture", "two-planes:2",
                       "--check-lemmas")
    assert code == 0
    assert "lemma suite: PASS" in out


def test_wss_drinfeld(capsys):
    code, out, _ = run(capsys, "wss", "--fixture", "drinfeld-local:2,2",
                       "--check-lemmas", "--zeta")
    assert code == 0
    assert "lemma suite: PASS" in out
    assert "zeta: 1 / ((1 - T)^3 (1 - 2T) (1 - 4T))" in out


def test_wss_rejects_corrupted_input(tmp_path, capsys):
    cx = drinfeld_local(2, 2)
    data = complex_to_json(cx)
    for node in data["strata"]:
        if len(node["subset"]) == 3:
            key = sorted(node["parents"])[0]
            node["parents"][str(key)]["restriction"][0][0][0] = "2"
            break
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, _, err = run(capsys, "wss", "--input", str(bad))
    assert code == 2
    assert "error:" in err


def test_wss_input_with_nonzero_d1_squared_is_invalid_input(tmp_path, capsys):
    # the degree-1 restriction of one plane to the double curve, off by one:
    # the record loads, and the weight table refuses it with a
    # SpectralSequenceError
    cx = make_fixture("two-planes", 2)
    data = complex_to_json(cx)
    entry = data["strata"][0]["parents"]["0"]["restriction"][1][0]
    entry[0] = str(int(entry[0]) + 1)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, _, err = run(capsys, "wss", "--input", str(bad))
    assert code == 2
    assert "d1 o d1 != 0" in err


def test_wss_input_with_check_lemmas_is_refused_up_front(tmp_path):
    # only built-in fixtures carry a Lefschetz class per stratum
    path = tmp_path / "cx.json"
    path.write_text(json.dumps(complex_to_json(drinfeld_local(2, 2))))
    code, out, err = _cli_process("wss", "--input", str(path),
                                  "--check-lemmas")
    assert (code, out) == (2, "")
    assert "lemma suite needs built-in fixtures (they carry the " \
        "polarization data)" in err


def test_wss_input_with_check_lemmas_does_not_load_the_input(monkeypatch,
                                                              capsys):
    from purity import weightss
    loaded = []

    def load(path):
        loaded.append(path)
        raise AssertionError("load_complex(%r) was called" % path)

    monkeypatch.setattr(weightss, "load_complex", load)
    code, out, err = run(capsys, "wss", "--input", "cx.json", "--zeta",
                         "--check-lemmas")
    assert (code, out, loaded) == (2, "", [])
    assert "lemma suite needs built-in fixtures" in err


def test_wss_rejects_missing_file(capsys):
    code, _, err = run(capsys, "wss", "--input", "/nonexistent/x.json")
    assert code == 2


def test_unknown_fixture(capsys):
    code, _, err = run(capsys, "wss", "--fixture", "bogus:1")
    assert code == 2
    assert "unknown fixture" in err


def test_empty_fixture_name_is_an_unknown_fixture(capsys):
    code, out, err = run(capsys, "wss", "--fixture", "")
    assert (code, out) == (2, "")
    assert "unknown fixture ''" in err


# the arity message names the parameters, defaults included
_ARITY_ERRORS = {
    "tate-cycle:3": "'tate-cycle' takes arguments (m, q), got 1",
    "tate-cycle:3,2,1": "'tate-cycle' takes arguments (m, q), got 3",
    "two-planes:1,2,3": "'two-planes' takes arguments (n=2, q=2), got 3",
    "drinfeld-local:2,3,4":
        "'drinfeld-local' takes arguments (d=2, q=2), got 3",
}


@pytest.mark.parametrize("spec", list(_ARITY_ERRORS))
def test_fixture_arity_is_invalid_input(capsys, spec):
    code, _, err = run(capsys, "wss", "--fixture", spec)
    assert code == 2
    assert _ARITY_ERRORS[spec] in err


def test_fixture_without_arguments_runs_its_defaults(capsys):
    assert run(capsys, "--json", "wss", "--fixture", "drinfeld-local") == \
        run(capsys, "--json", "wss", "--fixture", "drinfeld-local:2,2")


# each comma field must match -?[0-9]+: no empty field, no '+', spaces,
# underscores or non-ASCII digits that int() would take
@pytest.mark.parametrize("spec,field", [
    ("tate-cycle:3,,2", ""), ("tate-cycle:3,2,", ""), ("tate-cycle:x,2", "x"),
    ("tate-cycle:3_0,2", "3_0"), ("tate-cycle:+3,2", "+3"),
    ("tate-cycle: 3,2", " 3"), ("tate-cycle:\u0663,2", "\u0663"),
    ("drinfeld-local:", "")])
def test_fixture_argument_fields_are_integers(capsys, spec, field):
    code, out, err = run(capsys, "wss", "--fixture", spec)
    assert (code, out) == (2, "")
    assert ("fixture argument %r in %r is not an integer" % (field, spec)
            in err), err


def _validate_must_not_run(monkeypatch):
    def unreachable(self):
        raise AssertionError("SemistableComplex._validate ran")
    monkeypatch.setattr(SemistableComplex, "_validate", unreachable)


# E1 total 9 + 3m(q+6) with m = q^2+q+1, refused from q before anything is
# built
@pytest.mark.parametrize("q,total", [(9, 4104), (11, 6792), (13, 10440),
                                     (16, 18027)])
def test_drinfeld_local_over_the_size_budget_is_refused(monkeypatch, capsys,
                                                        q, total):
    _validate_must_not_run(monkeypatch)
    for name in ("restrict_to_divisor", "build_ring", "_singer_labelling"):
        def unreachable(*args, name=name):
            raise AssertionError("fixtures.%s ran" % name)
        monkeypatch.setattr(fixtures, name, unreachable)
    start = time.perf_counter()
    code, out, err = run(capsys, "wss", "--fixture", "drinfeld-local:2,%d" % q,
                         "--check-lemmas", "--zeta")
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (
        2, "", "error: E1 total dimension %d exceeds the size budget 4000\n"
        % total)


@pytest.mark.parametrize("argv,total", [
    (("ring", "--n", "4", "--q", "3"), 24568),
    (("ring", "--n", "4", "--q", "4"), 163344),
    (("hodge", "--n", "3", "--q", "7", "--divisor", "omega"), 6504),
], ids=["ring-b4f3", "ring-b4f4", "hodge-b3f7"])
def test_rings_over_the_size_budget_are_refused_up_front(capsys, argv, total):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (
        2, "", "error: Betti total %d exceeds the size budget 4000\n" % total)


@pytest.mark.parametrize("argv", [("hodge", "--n", "0", "--q", "2"),
                                  ("hodge", "--n", "-1", "--q", "2"),
                                  ("ring", "--n", "-1", "--q", "2")])
def test_out_of_range_n_is_invalid_input(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "needs n >= " in err


@pytest.mark.parametrize("spec,msg", [
    ("tate-cycle:3,-2", "field size must be >= 2"),
    ("tate-cycle:3,0", "field size must be >= 2"),
    ("tate-cycle:3,6", "6 is not a prime power"),
])
def test_tate_cycle_field_size_is_invalid_input(capsys, spec, msg):
    code, _, err = run(capsys, "wss", "--fixture", spec, "--zeta")
    assert code == 2
    assert msg in err


def test_tate_cycle_field_size_has_no_upper_bound(capsys):
    # q only enters the zeta factor: no F_q arithmetic, so no MAX_Q
    code, out, _ = run(capsys, "wss", "--fixture", "tate-cycle:3,17", "--zeta")
    assert code == 0
    assert "zeta: 1 / (1 - 17T)" in out


def test_tate_cycle_large_prime_field_size_is_answered(capsys):
    # a 61-bit prime q is split by Miller-Rabin, not by trial division
    code, out, _ = run(capsys, "wss", "--fixture",
                       "tate-cycle:3,2305843009213693951", "--zeta")
    assert code == 0
    assert "zeta: 1 / (1 - 2305843009213693951T)" in out


def test_tate_cycle_field_size_beyond_the_primality_bound(capsys):
    code, _, err = run(capsys, "wss", "--fixture",
                       "tate-cycle:3,%d" % (2 ** 89 - 1), "--zeta")
    assert code == 2
    assert "primality bound" in err


@pytest.mark.parametrize("m", [1001, 100000])
def test_tate_cycle_component_count_is_bounded(m):
    start = time.perf_counter()
    code, out, err = _cli_process("wss", "--fixture", "tate-cycle:%d,2" % m,
                                  "--check-lemmas", "--zeta", timeout=30)
    assert time.perf_counter() - start < 10
    assert (code, out) == (2, "")
    assert "tate-cycle takes at most 1000 components, got %d" % m in err


def test_zero_denominator_divisor_is_invalid_input(capsys):
    code, _, err = run(capsys, "hodge", "--n", "2", "--q", "2",
                       "--divisor", "1/0,1")
    assert code == 2
    assert "zero denominator" in err


def _cli_process(*argv, timeout=60):
    """One fresh `python -m purity.cli` process: (exit code, stdout, stderr)."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run([sys.executable, "-m", "purity.cli", *argv],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=timeout)
    return done.returncode, done.stdout, done.stderr


# Fraction alone reads exponents and decimals, and the digits of 10^20000000
# would take minutes
@pytest.mark.parametrize("divisor", ["1e-20000000,1", "0.5,1", ",,"])
def test_divisor_coefficients_are_integers_or_fractions(divisor):
    start = time.perf_counter()
    code, out, err = _cli_process("hodge", "--n", "2", "--q", "2",
                                  "--divisor", divisor, timeout=30)
    assert time.perf_counter() - start < 10
    assert (code, out) == (2, "")
    assert "is not an integer or 'p/q'" in err
    assert "Traceback" not in err


def _one_line_data(q=2, variety=None):
    """A one-component complex on P^1, with q and the component's variety
    replaceable."""
    return {"schema_version": 1, "q": q, "name": "line", "strata": [
        {"id": "c0", "subset": [0], "parents": {},
         "variety": variety or {"kind": "projective", "n": 1}}]}


def _one_line_complex(tmp_path, q=2, variety=None):
    """`_one_line_data` written as JSON; its path."""
    path = tmp_path / "cx.json"
    path.write_text(json.dumps(_one_line_data(q, variety)))
    return str(path)


@pytest.mark.parametrize("q,msg", [
    (0, "field size must be >= 2"),
    (-2, "field size must be >= 2"),
    (1, "field size must be >= 2"),
    (6, "6 is not a prime power"),
    ("3", "'q' must be a JSON integer"),
])
def test_json_complex_field_size_is_invalid_input(tmp_path, capsys, q, msg):
    code, out, err = run(capsys, "wss", "--input",
                         _one_line_complex(tmp_path, q=q), "--zeta")
    assert (code, out) == (2, "")
    assert msg in err


@pytest.mark.parametrize("q", [17, 1000000007])
def test_json_complex_field_size_has_no_upper_bound(tmp_path, capsys, q):
    code, out, _ = run(capsys, "wss", "--input",
                       _one_line_complex(tmp_path, q=q), "--zeta")
    assert code == 0
    assert "zeta: 1 / ((1 - T) (1 - %dT))" % q in out


@pytest.mark.parametrize("variety,msg", [
    ({"kind": "projective", "n": -1}, "P^n needs n >= 0"),
    ({"kind": "projective", "n": 1.5}, "'n' must be a JSON integer"),
    ({"kind": "projective", "n": True}, "'n' must be a JSON integer"),
    ({"kind": "projective", "n": 3000}, "exceeds guard 4"),
    ({"kind": "blowup", "n": 2, "q": "2"}, "'q' must be a JSON integer"),
    ({"kind": "product", "factors": [{"kind": "projective", "n": 1.0}]},
     "'n' must be a JSON integer"),
    ({"kind": "surface", "labels": [], "intersection": []},
     "a surface needs at least one label"),
    ({"kind": "surface", "labels": ["a", "b"],
      "intersection": [[1, 2], [0, -1]]},
     "surface intersection form is not symmetric"),
    ({"kind": "surface", "labels": ["a", "a"],
      "intersection": [[1, 0], [0, -1]]},
     "surface labels must be distinct"),
    ({"kind": "surface", "labels": ["a"], "intersection": [[True]]},
     "matrix entries must be integers or 'p/q' strings"),
    # Fraction reads exponents, and computing 10^999999999 would not end
    ({"kind": "surface", "labels": ["a"], "intersection": [["1e-999999999"]]},
     "matrix entries must be integers or 'p/q' strings"),
    ({"kind": "surface", "labels": ["a"], "intersection": [["1e999999"]]},
     "matrix entries must be integers or 'p/q' strings"),
    ({"kind": "surface", "labels": ["a"], "intersection": [["0.5"]]},
     "matrix entries must be integers or 'p/q' strings"),
    ({"kind": "surface", "labels": ["a"], "intersection": [[" 1"]]},
     "matrix entries must be integers or 'p/q' strings"),
    ({"kind": "surface", "labels": "ab", "intersection": [[1, 0], [0, -1]]},
     "surface 'labels' must be a JSON array"),
    ({"kind": "surface", "labels": [{"x": 1}], "intersection": [[1]]},
     "surface 'labels' must be a JSON array of strings"),
    ({"kind": "surface", "labels": [True], "intersection": [[1]]},
     "surface 'labels' must be a JSON array of strings"),
    ({"kind": "surface", "labels": [1], "intersection": [[1]]},
     "surface 'labels' must be a JSON array of strings"),
    ({"kind": "product", "factors": 5}, "'factors' must be a JSON array"),
    ({"kind": "product", "factors": {"a": 1}},
     "'factors' must be a JSON array"),
    ({"kind": "product", "factors": ["x"]},
     "variety spec must be an object with 'kind'"),
    ({"kind": "product", "factors": [{"n": 1}]},
     "variety spec must be an object with 'kind'"),
    ({"kind": "product", "factors": [{"kind": "product", "factors": []}]},
     "nested product factors unsupported"),
    ({"kind": "product", "factors": [
        {"kind": "surface", "labels": ["a"], "intersection": [[1]]}]},
     "nested product factors unsupported"),
])
def test_json_variety_is_checked(tmp_path, capsys, variety, msg):
    code, out, err = run(capsys, "--timeout", "30", "wss", "--input",
                         _one_line_complex(tmp_path, variety=variety))
    assert (code, out) == (2, "")
    assert msg in err


def test_json_product_of_no_factors_is_a_point(tmp_path, capsys):
    reports = []
    for variety in ({"kind": "product", "factors": []},
                    {"kind": "projective", "n": 0}):
        path = tmp_path / "pt.json"
        path.write_text(json.dumps({
            "schema_version": 1, "q": 2, "name": "pt", "strata": [
                {"id": "c0", "subset": [0], "parents": {},
                 "variety": variety}]}))
        code, out, _ = run(capsys, "--json", "wss", "--input", str(path),
                           "--zeta")
        assert code == 0
        reports.append(out)
    assert reports[0] == reports[1]


@settings(max_examples=200, deadline=2000)
@given(st.text(alphabet="0123456789/eE.+-_ ", max_size=12),
       st.integers(0, 1), st.integers(0, 1))
def test_any_matrix_entry_string_loads_or_is_refused_quickly(entry, row, col):
    intersection = [[1, 0], [0, -1]]
    intersection[row][col] = entry
    data = _one_line_data(variety={"kind": "surface", "labels": ["a", "b"],
                                   "intersection": intersection})
    try:
        load_complex(data)
    except ComplexValidationError:
        pass


def _meeting_point(restriction):
    """A mutation that adds a second line and the point where it meets the
    first, the point's restriction from the second line replaced."""
    def mutate(data):
        line = data["strata"][0]
        point = {"id": "p", "subset": [0, 1],
                 "variety": {"kind": "projective", "n": 0},
                 "parents": {"0": {"of": "c1", "restriction": restriction},
                             "1": {"of": "c0", "restriction": [[[1]]]}}}
        data["strata"] += [dict(line, id="c1", subset=[1]), point]
    return mutate


def _object_parent_reference(data):
    """The meeting point of `_meeting_point`, with its reference to the first
    line replaced by a JSON object."""
    _meeting_point([[[1]]])(data)
    data["strata"][2]["parents"]["1"]["of"] = {"x": 1}


def _object_ids(data):
    """`_object_parent_reference`, with the first line's id the same object."""
    _object_parent_reference(data)
    data["strata"][0]["id"] = {"x": 1}


def _tate_cycle_data(m):
    """The JSON complex of an m-gon of lines over F_2 (E1 total 4m), written
    out directly: the tate-cycle fixture takes at most 1000 components."""
    line, point = {"kind": "projective", "n": 1}, {"kind": "projective", "n": 0}
    strata = [{"id": "c%d" % i, "subset": [i], "variety": line, "parents": {}}
              for i in range(m)]
    for a in range(m):
        b = (a + 1) % m
        strata.append({"id": "node%d" % a, "subset": [a, b], "variety": point,
                       "parents": {str(a): {"of": "c%d" % b,
                                            "restriction": [[[1]]]},
                                   str(b): {"of": "c%d" % a,
                                            "restriction": [[[1]]]}}})
    return {"schema_version": 1, "q": 2, "name": "%d-gon" % m,
            "strata": strata}


def test_json_tate_cycle_data_is_a_tate_cycle(tmp_path, capsys):
    path = tmp_path / "cx.json"
    path.write_text(json.dumps(_tate_cycle_data(3)))
    code, out, _ = run(capsys, "wss", "--input", str(path), "--zeta")
    assert code == 0
    assert "zeta: 1 / (1 - 2T)" in out


@pytest.mark.parametrize("data,line", [
    (_one_line_data(variety={"kind": "blowup", "n": 3000, "q": 2}),
     "variety dimension 3000 exceeds guard 4"),
    (_one_line_data(variety={"kind": "blowup", "n": 3, "q": 7}),
     "Betti total 6504 exceeds the size budget 4000"),
    (_tate_cycle_data(1001),
     "E1 total dimension 4004 exceeds the size budget 4000"),
], ids=["blowup-n3000", "blowup-b3f7", "1001-gon"])
def test_json_complex_over_the_guard_is_refused_up_front(
        tmp_path, monkeypatch, capsys, data, line):
    path = tmp_path / "cx.json"
    path.write_text(json.dumps(data))
    _validate_must_not_run(monkeypatch)
    start = time.perf_counter()
    code, out, err = run(capsys, "wss", "--input", str(path))
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (2, "", "error: %s\n" % line)


def test_json_lines_meeting_in_a_point_are_accepted(tmp_path, capsys):
    path = _one_line_complex(tmp_path)
    with open(path) as fh:
        data = json.load(fh)
    _meeting_point([[[1]]])(data)
    data["dimension"] = 1
    with open(path, "w") as fh:
        json.dump(data, fh)
    code, out, _ = run(capsys, "wss", "--input", path, "--zeta")
    assert code == 0
    assert "zeta: 1 / ((1 - T) (1 - 2T))" in out


@pytest.mark.parametrize("mutate,msg", [
    (lambda data: data.update(strata=None), "'strata' must be a JSON array"),
    (lambda data: data["strata"][0].update(parents=[]),
     "'parents' must be a JSON object"),
    (lambda data: data["strata"][0].update(parents=None),
     "'parents' must be a JSON object"),
    (lambda data: data["strata"][0].update(subset=[0.9]),
     "'subset' must be a JSON array of integers"),
    (lambda data: data["strata"][0].update(subset="0"),
     "'subset' must be a JSON array of integers"),
    (lambda data: data["strata"][0].update(subset=[True]),
     "'subset' must be a JSON array of integers"),
    (lambda data: data["strata"][0].update(parents={" 0 ": {}}),
     "'parents' key ' 0 ' is not a decimal integer"),
    (lambda data: data["strata"][0].update(parents={"+0": {}}),
     "'parents' key '+0' is not a decimal integer"),
    (lambda data: data["strata"][0].update(parents={"0_0": {}}),
     "'parents' key '0_0' is not a decimal integer"),
    (_meeting_point("1"), "'restriction' must be a JSON array of matrices"),
    (_meeting_point(["1"]), "a matrix must be a JSON array of arrays"),
    (_meeting_point([[1]]), "a matrix must be a JSON array of arrays"),
    (_meeting_point({"0": [[1]]}),
     "'restriction' must be a JSON array of matrices"),
    (lambda data: data["strata"][0].update(variety={
        "kind": "surface", "labels": ["a"], "intersection": "1"}),
     "a matrix must be a JSON array of arrays"),
    (lambda data: data["strata"][0].update(variety={
        "kind": "surface", "labels": ["a"], "intersection": ["1"]}),
     "a matrix must be a JSON array of arrays"),
    (lambda data: data.update(dimension="1"),
     "'dimension' must be a JSON integer"),
    (lambda data: data.update(dimension=True),
     "'dimension' must be a JSON integer"),
    (lambda data: data.update(dimension=10 ** 9),
     "'dimension' is 1000000000, but the components have dimension 1"),
    (lambda data: data.update(dimension=2),
     "'dimension' is 2, but the components have dimension 1"),
    (lambda data: data["strata"].append(
        {"id": "x", "subset": [], "parents": {},
         "variety": {"kind": "projective", "n": 2}}),
     "stratum x: 'subset' must be nonempty with no repeated index"),
    (lambda data: data["strata"][0].update(subset=[0, 0]),
     "stratum c0: 'subset' must be nonempty with no repeated index"),
    (_object_ids, "stratum 'id' must be a JSON string"),
    (_object_parent_reference, "stratum p: parent 'of' must be a JSON string"),
    (lambda data: data.update(name={"a": [1, 2]}),
     "'name' must be a JSON string"),
], ids=["strata-null", "parents-list", "parents-null", "subset-float",
        "subset-string", "subset-bool", "parents-key-spaces",
        "parents-key-plus", "parents-key-underscore", "restriction-string",
        "restriction-matrix-string", "restriction-matrix-flat",
        "restriction-object", "intersection-string",
        "intersection-row-string", "dimension-string", "dimension-bool",
        "dimension-huge", "dimension-wrong", "subset-empty",
        "subset-repeated", "id-object", "parent-of-object", "name-object"])
def test_json_complex_structure_is_checked(tmp_path, capsys, mutate, msg):
    path = _one_line_complex(tmp_path)
    with open(path) as fh:
        data = json.load(fh)
    mutate(data)
    with open(path, "w") as fh:
        json.dump(data, fh)
    code, out, err = run(capsys, "wss", "--input", path)
    assert (code, out) == (2, "")
    assert msg in err


@pytest.mark.parametrize("mutate,line", [
    (lambda data: data["strata"][0].update(subset=[0, 0]),
     "stratum c0: 'subset' must be nonempty with no repeated index, "
     "got [0, 0]"),
    (lambda data: data["strata"][0].update(id=5),
     "stratum 'id' must be a JSON string, got 5"),
], ids=["subset-repeated", "id-int"])
def test_json_stratum_error_is_reported_once(tmp_path, capsys, mutate, line):
    data = _one_line_data()
    mutate(data)
    path = tmp_path / "cx.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "wss", "--input", str(path))
    assert (code, out, err) == (2, "", "error: %s\n" % line)


# -- mutated fixture JSON -------------------------------------------------------

_FUZZ_BASES = [("tate-cycle", 3, 2), ("two-planes", 2),
               ("triangle-of-planes", 2)]


@functools.lru_cache(maxsize=None)
def _fixture_text(fixture):
    return json.dumps(complex_to_json(make_fixture(*fixture)))


def _two_strata(data, draw):
    return draw(st.lists(st.sampled_from(data["strata"]), min_size=2,
                         max_size=2, unique_by=id))


def _restriction_link(data, draw):
    node = draw(st.sampled_from([n for n in data["strata"] if n["parents"]]))
    return node["parents"][draw(st.sampled_from(sorted(node["parents"])))]


def _wrong_shape(data, draw):
    mats = _restriction_link(data, draw)["restriction"]
    j = draw(st.integers(0, len(mats) - 1))
    how = draw(st.sampled_from(["drop-degree", "drop-row", "drop-column",
                                "add-row", "add-column", "ragged", "flat"]))
    m = mats[j]
    if how == "drop-degree":
        del mats[j]
    elif how == "drop-row":
        del m[-1]
    elif how == "drop-column":
        for row in m:
            del row[-1]
    elif how == "add-row":
        m.append(["0"] * len(m[0]))
    elif how == "add-column":
        for row in m:
            row.append(1)
    elif how == "ragged":
        m.append([1] * (len(m[0]) + 1))
    else:
        mats[j] = [x for row in m for x in row]


def _perturbed_entry(data, draw):
    mats = _restriction_link(data, draw)["restriction"]
    row = draw(st.sampled_from(draw(st.sampled_from(mats))))
    row[draw(st.integers(0, len(row) - 1))] = draw(
        st.sampled_from([0, 2, -1, "1/2", "-3/7"]))


def _missing_parent(data, draw):
    node = draw(st.sampled_from([n for n in data["strata"] if n["parents"]]))
    m = draw(st.sampled_from(sorted(node["parents"])))
    if draw(st.booleans()):
        del node["parents"][m]
    else:
        node["parents"][m]["of"] = "no-such-stratum"


def _cyclic_parent(data, draw):
    """A parent link, new or replaced, onto the stratum itself or onto a
    stratum that names it as a parent."""
    node = draw(st.sampled_from(data["strata"]))
    children = [c["id"] for c in data["strata"]
                if any(p["of"] == node["id"] for p in c["parents"].values())]
    m = str(draw(st.sampled_from(sorted(node["subset"]))))
    link = node["parents"].setdefault(m, {"restriction": [[[1]]]})
    link["of"] = draw(st.sampled_from([node["id"]] + children))


def _duplicate_id(data, draw):
    a, b = _two_strata(data, draw)
    a["id"] = b["id"]


def _swapped_strata(data, draw):
    """Two strata swap their place in the list (the same complex) or one of
    their fields."""
    a, b = _two_strata(data, draw)
    key = draw(st.sampled_from(["place", "id", "subset", "variety",
                                "parents"]))
    if key == "place":
        strata = data["strata"]
        i, j = strata.index(a), strata.index(b)
        strata[i], strata[j] = b, a
    else:
        a[key], b[key] = b[key], a[key]


def _over_budget(data, draw):
    """One stratum on a ring over the size budget, or copies of one component
    on new indices until the E1 total is over it."""
    if draw(st.booleans()):
        draw(st.sampled_from(data["strata"]))["variety"] = draw(
            st.sampled_from([
                {"kind": "blowup", "n": 3, "q": 7},
                {"kind": "blowup", "n": 4, "q": 3},
                {"kind": "product",
                 "factors": [{"kind": "blowup", "n": 2, "q": 16}] * 2}]))
        return
    comp = draw(st.sampled_from([n for n in data["strata"]
                                 if len(n["subset"]) == 1]))
    first = 1 + max(i for n in data["strata"] for i in n["subset"])
    # the components of the bases are P^n and surfaces
    variety = comp["variety"]
    betti_total = variety["n"] + 1 if variety["kind"] == "projective" \
        else len(variety["labels"]) + 2
    for k in range(SIZE_BUDGET // betti_total + 1):
        data["strata"].append(dict(comp, id="copy%d" % k, subset=[first + k]))


_JUNK = [None, True, 0, -1, 2.5, "", "x", [], [[]], {}, {"kind": "surface"}]


def _junk_value(data, draw):
    """Any one value of the document, at any depth, replaced or deleted."""
    slots = []

    def walk(node):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            slots.append((node, key))
            if isinstance(value, (dict, list)):
                walk(value)

    walk(data)
    node, key = draw(st.sampled_from(slots))
    if draw(st.booleans()):
        del node[key]
    else:
        node[key] = draw(st.sampled_from(_JUNK))


_MUTATIONS = [_wrong_shape, _perturbed_entry, _missing_parent, _cyclic_parent,
              _duplicate_id, _swapped_strata, _over_budget, _junk_value]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(_FUZZ_BASES), st.sampled_from(_MUTATIONS), st.data())
def test_mutated_fixture_json_is_answered_or_refused_by_name(
        tmp_path_factory, fixture, mutate, data):
    doc = json.loads(_fixture_text(fixture))
    mutate(doc, data.draw)
    path = tmp_path_factory.getbasetemp() / "mutated.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["wss", "--input", str(path), "--zeta"])
    if code == 2:
        assert out.getvalue() == ""
        assert re.fullmatch(r"error: \S[^\n]*\n", err.getvalue())
    else:
        assert code in (0, 1) and err.getvalue() == ""


def _nested(depth):
    return "[" * depth + "]" * depth


def _tate_cycle_with_nested_intersection():
    """The tate-cycle:3,2 complex with its first component replaced by a
    surface whose intersection form is nested 50000 deep."""
    data = complex_to_json(make_fixture("tate-cycle", 3, 2))
    data["strata"][0]["variety"] = {"kind": "surface", "labels": ["a"],
                                    "intersection": "@"}
    return json.dumps(data).replace('"@"', _nested(50000))


@pytest.mark.parametrize("text", [
    lambda: _nested(100000), _tate_cycle_with_nested_intersection],
    ids=["arrays", "surface-intersection"])
def test_deeply_nested_json_is_invalid_input(tmp_path, text):
    path = tmp_path / "cx.json"
    path.write_text(text())
    code, out, err = _cli_process("wss", "--input", str(path))
    assert (code, out) == (2, "")
    assert err == "error: JSON input is nested too deeply\n"


def test_json_zero_denominator_entry_is_invalid_input(tmp_path, capsys):
    cx = drinfeld_local(2, 2)
    data = complex_to_json(cx)
    node = next(n for n in data["strata"] if n["parents"])
    node["parents"][sorted(node["parents"])[0]]["restriction"][0][0][0] = "1/0"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, _, err = run(capsys, "wss", "--input", str(bad))
    assert code == 2
    assert "zero denominator" in err


def test_wss_json_report(capsys):
    code, out, _ = run(capsys, "--json", "wss", "--fixture", "tate-cycle:2,2",
                       "--zeta")
    assert code == 0
    data = json.loads(out)
    assert data["purity"]["1"]["ok"] is True
    assert data["zeta"]["factors"] == [{"a": 1, "multiplicity": -1}]


# -- one report, two renderings -----------------------------------------------

def _rendered(payload):
    return "".join(line + "\n" for line in _TEXT[payload["command"]](payload))


@pytest.mark.parametrize("argv", [
    ("ring", "--n", "2", "--q", "2"),
    ("ring", "--n", "3", "--q", "2", "--degree", "1"),
    ("hodge", "--n", "2", "--q", "2", "--divisor", "omega"),
    ("hodge", "--n", "2", "--q", "2", "--divisor", "1,-1"),
    ("wss", "--fixture", "two-planes:2", "--check-lemmas", "--zeta"),
    ("wss", "--fixture", "tate-cycle:3,2", "--zeta"),
], ids=["ring", "ring-degree", "hodge-pass", "hodge-refused",
        "wss-lemmas-zeta", "wss-zeta"])
def test_the_text_report_is_rendered_from_the_json_report(capsys, argv):
    code, out, _ = run(capsys, *argv)
    json_code, json_out, _ = run(capsys, "--json", *argv)
    assert code == json_code
    assert out == _rendered(json.loads(json_out))


def _report(capsys, *argv):
    code, out, _ = run(capsys, "--json", *argv)
    assert code == 0
    return json.loads(out)


def test_hodge_text_names_a_failing_hard_lefschetz_degree(capsys):
    report = _report(capsys, "hodge", "--n", "2", "--q", "2")
    report["hard_lefschetz"]["degrees"][1].update(rank=7, ok=False)
    report["hard_lefschetz"]["ok"] = False
    del report["hodge_standard"]
    report["verdict"] = "fail"
    lines = _rendered(report).splitlines()
    assert lines[-2:] == ["hard Lefschetz H^2: rank 7 / 8 FAIL",
                          "verdict: FAIL (hard Lefschetz)"]


def test_hodge_text_names_a_form_that_is_not_definite(capsys):
    report = _report(capsys, "hodge", "--n", "2", "--q", "2")
    row = report["hodge_standard"]["degrees"][1]
    row.update(positive_definite=False, ok=False)
    report["verdict"] = "fail"
    lines = _rendered(report).splitlines()
    assert lines[-2:] == [
        "Hodge positivity H^2: primitive dim 7, NOT definite; inertia "
        "(7,1,0), signature 6 (expected 6)", "verdict: FAIL"]


def test_wss_text_names_failing_purity_ranks_lemmas_and_skipped_zeta(capsys):
    report = _report(capsys, "wss", "--fixture", "two-planes:2",
                     "--check-lemmas", "--zeta")
    ranks = report["purity"]["2"]["ranks"]
    ranks[0].update(dim_source=3, dim_target=3, rank=2, ok=False)
    ranks[2].update(dim_source=1, dim_target=0, rank=0, ok=False)
    report["purity"]["2"]["ok"] = False
    report["lemmas"].update(ok=False, failed=["tau_rho_zero[t=1,i=0]"])
    report["zeta"] = None
    lines = _rendered(report).splitlines()
    assert "purity w=2: FAIL (N^1: rank 2, E2 dims 3 -> 3; "\
           "N^3: rank 0, E2 dims 1 -> 0)" in lines
    assert "purity w=1: PASS" in lines
    assert lines[-2:] == ["positivity lemma suite: FAIL (15 checks; failing: "
                          "tau_rho_zero[t=1,i=0])",
                          "zeta: skipped (purity failed)"]


def test_wss_text_names_a_failing_euler_row_and_zeta_match(capsys):
    report = _report(capsys, "wss", "--fixture", "tate-cycle:3,2", "--zeta")
    report["euler"]["e2"] = 1
    report["zeta"]["weight_table_match"] = False
    text = _rendered(report)
    assert "E1/E2 Euler characteristics agree (linear-algebra check): " \
           "FAIL (0 = 1)\n" in text
    assert "zeta factors match weight table: FAIL\n" in text


def test_timeout_covers_the_products_written_with_the_report():
    # the B^3/F_3 ring builds in well under a second; its product tables
    # are computed row by row as the report is written, for far longer
    src = str(Path(__file__).resolve().parents[1] / "src")
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "purity.cli", "--timeout",
                           "1", "--json", "ring", "--n", "3", "--q", "3",
                           "--products"],
                          env=dict(os.environ, PYTHONPATH=src),
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=60)
    assert (done.returncode, done.stderr) == (
        2, "error: timeout of 1s exceeded\n")
    assert time.perf_counter() - start < 30


@pytest.mark.parametrize("argv,nbytes,code", [
    (("--json", "ring", "--n", "3", "--q", "3"), 100, 0),
    (("ring", "--n", "3", "--q", "3", "--degree", "1"), 100, 0),
    (("hodge", "--n", "2", "--q", "2", "--divisor", "1,-1"), 0, 1),
], ids=["json", "text", "refused-small-text-unread"])
def test_a_reader_that_stops_early_keeps_the_verdict(argv, nbytes, code):
    # a reader that closes the pipe early is no invalid input: the exit code
    # is the verdict's, and nothing goes to stderr.  Buffered, a small report
    # meets the closed pipe only when stdout is flushed
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1]
                                          / "src"))
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.Popen([sys.executable, "-m", "purity.cli", *argv],
                            env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    assert len(proc.stdout.read(nbytes)) == nbytes
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (code, b"")


# Exit code and sha256 of the --json report for fixed runs.  Report bytes are
# part of the interface: a change that alters them must say why and update the
# digest here.
GOLDEN = [
    pytest.param(("wss", "--fixture", "tate-cycle:3,2", "--check-lemmas",
                  "--zeta"), 0,
                 "58c7a1fd6e7b07932b6dc443f5e5586255caa33946aa8ffd56256f7c9d6e0ebc",
                 id="wss-tate-cycle:3,2"),
    pytest.param(("wss", "--fixture", "two-planes:2", "--check-lemmas",
                  "--zeta"), 0,
                 "e454a9ef4709321ea356024a15e65fc711e88e44c20f5a8d561a3692742e8d65",
                 id="wss-two-planes:2"),
    pytest.param(("wss", "--fixture", "triangle-of-planes:2", "--check-lemmas",
                  "--zeta"), 0,
                 "ac0ff542c4331ca7a0829e62ed22084383d7c8c2a5782de8a5ab45f269b7a4d3",
                 id="wss-triangle-of-planes:2"),
    pytest.param(("wss", "--fixture", "drinfeld-local:2,2", "--check-lemmas",
                  "--zeta"), 0,
                 "c07ef29f8385d198b253095673d42eef8ad7f78b3614241f51ecee03cc0d3ef0",
                 id="wss-drinfeld-local:2,2"),
    pytest.param(("wss", "--fixture", "drinfeld-local:2,3", "--check-lemmas",
                  "--zeta"), 0,
                 "e455cc2145cecc7ca8242f9c19594707c11703ef31e93c7453e0369469fcdfd7",
                 id="wss-drinfeld-local:2,3"),
    pytest.param(("hodge", "--n", "1", "--q", "3", "--divisor", "omega"), 0,
                 "ee19ddab7b3a63b108e4494e1d720f2591b411c1b4423dbdf4358f95cb0041e6",
                 id="hodge-b1f3-omega"),
    pytest.param(("hodge", "--n", "2", "--q", "3", "--divisor", "omega"), 0,
                 "7afcd3c0cfc1bf486de63f99f31267195df049a58525714818b05b9dce2e5126",
                 id="hodge-b2f3-omega"),
    pytest.param(("hodge", "--n", "3", "--q", "2", "--divisor", "omega"), 0,
                 "106ba59a82ccfa75cc6ab27858cf14d07522704ae7bf6315696dfd5b094f2385",
                 id="hodge-b3f2-omega"),
    pytest.param(("hodge", "--n", "3", "--q", "3", "--divisor", "omega"), 0,
                 "3f2d2e4e84ce3b4ed005043152e3af90fe63485e21351105ddeccf4dd2688775",
                 id="hodge-b3f3-omega"),
    pytest.param(("hodge", "--n", "3", "--q", "4", "--divisor", "omega"), 0,
                 "3a61f0367b319d328058376bf1773df2196d0d470d5ad1dfe2c03b8f4a9a311d",
                 id="hodge-b3f4-omega"),
    pytest.param(("ring", "--n", "2", "--q", "2", "--products"), 0,
                 "9794f45458eb7a316d0f0d91312a00d6e682785d1b9e08ca344472ecb1242ec5",
                 id="ring-b2f2-products"),
    pytest.param(("ring", "--n", "3", "--q", "2"), 0,
                 "3e761fb8ca9d814f1cce0a21ba1b82b963f7f035ad18289213cee546e2e8b584",
                 id="ring-b3f2"),
    pytest.param(("ring", "--n", "3", "--q", "2", "--degree", "1"), 0,
                 "245d9958bea1c6f23ce60fde03af87e704a45ce8b02183e3651b766c041feeeb",
                 id="ring-b3f2-degree-1"),
    pytest.param(("ring", "--n", "3", "--q", "3"), 0,
                 "9aa3ffe8172916c9adf650d48cb900d3170ed47be4e8e475f774c6c7e8ae0687",
                 id="ring-b3f3"),
    pytest.param(("ring", "--n", "2", "--q", "4", "--products"), 0,
                 "1a4a41bb53e78bfa2c39b387ff3790fb12a91d7fb94a2c396777422a9f9ed6fc",
                 id="ring-b2f4-products"),
    pytest.param(("ring", "--n", "3", "--q", "2", "--products"), 0,
                 "d06ae27974d47a5410abcd80b59da306857c33d77020eb5fb844a9cd7576f763",
                 id="ring-b3f2-products"),
    pytest.param(("wss", "--fixture", "drinfeld-local:2,4", "--check-lemmas",
                  "--zeta"), 0,
                 "46c1fd5f410354db1c7545e7615cf2d42e26d755be6da6c7217118823629f854",
                 id="wss-drinfeld-local:2,4"),
    pytest.param(("wss", "--fixture", "drinfeld-local:2,5", "--check-lemmas",
                  "--zeta"), 0,
                 "c63a4367fe0d5eef72ccc094c5520260724e0c2946ec3844862fd0b31e1cd75a",
                 id="wss-drinfeld-local:2,5"),
]


@pytest.mark.parametrize("argv,code,digest", GOLDEN)
def test_json_report_bytes_are_pinned(capsys, argv, code, digest):
    got, out, _ = run(capsys, "--json", *argv)
    assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)


# -- the streamed --json writer ------------------------------------------------

def _written(obj):
    out = io.StringIO()
    _write_json(obj, out.write)
    return out.getvalue()


_text = st.text() | st.text(alphabet='"\\/\x00\x07\x1f\x7f \xe9\u20ac\U0001d11e')
_ints = st.integers() | st.integers(min_value=-10 ** 40, max_value=10 ** 40)
_json_trees = st.recursive(
    st.none() | st.booleans() | st.floats() | _ints | _text
    | st.lists(_text) | st.lists(_ints) | st.lists(st.booleans())
    | st.lists(_ints | st.booleans()),
    lambda kids: (st.lists(kids) | st.lists(kids).map(tuple)
                  | st.dictionaries(_text, kids)),
    max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(_json_trees)
def test_streamed_json_matches_json_dumps(obj):
    assert _written(obj) == json.dumps(obj, indent=2, sort_keys=True)


def test_streamed_json_renders_pairing_rows_in_batches():
    big = Matrix([[i * j - 7 for j in range(200)] for i in range(200)])
    obj = {"n": 2, "pairing": {
        "int": PairingRows(Matrix([[1, -2], [0, 3]])),
        "frac": PairingRows(Matrix([[1, 2], [3, -4]], 6)),
        "empty": PairingRows(Matrix([], 1, 0)),
        "big": PairingRows(big)}}
    plain = {"n": 2, "pairing": {k: [list(row) for row in rows]
                                 for k, rows in obj["pairing"].items()}}
    assert plain["pairing"]["frac"] == [["1/6", "1/3"], ["1/2", "-2/3"]]
    writes = []
    _write_json(obj, writes.append)
    assert "".join(writes) == json.dumps(plain, indent=2, sort_keys=True)
    assert len(writes) > 1 and max(map(len, writes)) < 2 * _BATCH


def test_json_report_is_streamed_in_small_memory(monkeypatch):
    build_ring(blowup(3, 3))     # cached, so the measured run only reports it

    class Sink(io.TextIOBase):
        def write(self, text):
            return len(text)

    monkeypatch.setattr(sys, "stdout", Sink())
    tracemalloc.start()
    try:
        code = main(["--json", "ring", "--n", "3", "--q", "3"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the 1 MB report held as one string, with every pairing entry as a
    # str, peaks at 9.35 MB
    assert code == 0 and peak < 2 * 2 ** 20


def test_products_report_is_streamed_in_small_memory(monkeypatch):
    build_ring(blowup(3, 2))     # cached, so the measured run only reports it

    class Sink(io.TextIOBase):
        def write(self, text):
            return len(text)

    monkeypatch.setattr(sys, "stdout", Sink())
    tracemalloc.start()
    try:
        code = main(["--json", "ring", "--n", "3", "--q", "2", "--products"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # every products table held as nested lists of strings before the
    # report is written peaks at 9.5 MB
    assert code == 0 and peak < 2 * 2 ** 20


# -- loading only what a command runs ------------------------------------------

# `purity.__all__` before its names were resolved on first access, less
# `primitive_gram` and `hodge_sweep`, which moved into the tests' oracle, less
# `build_e1` and `quotient_geometry`, which no command ran, and less
# `invariant_form` and `omega_class`, the generator-dict route of invariant
# classes that `InvariantDivisorForm.vector` replaced, and less `FieldSpec`
# and `field_spec`: a field is named by its size q
PUBLIC_NAMES = [
    "BlownUp", "LinearSubvariety", "Product", "Projective",
    "SemistableComplex", "Stratum", "betti_numbers", "blowup", "build_ring",
    "check_hard_lefschetz", "check_hodge_standard", "check_purity",
    "cohomology", "complex_to_json", "contains", "enumerate_subspaces",
    "euler_check", "explicit_surface_ring", "fields", "fixtures",
    "gaussian_binomial", "geometry", "hyperplane_relation",
    "inertia_invariants", "intersection_number", "is_positive", "l_factor",
    "lefschetz", "linalg", "load_complex", "make_context", "make_fixture",
    "mu_from_e2", "omega_form",
    "point_count", "primitive_decomposition", "product", "proj",
    "restrict_to_divisor", "theorem_shape", "verify_rz_lemmas", "weight_table",
    "weightss", "zeta", "zeta_function", "zeta_matches_weight_table"]


def test_package_exports_are_pinned():
    import purity
    assert purity.__all__ == PUBLIC_NAMES
    names = {}
    exec("from purity import *", names)
    assert sorted(k for k in names if k != "__builtins__") == PUBLIC_NAMES
    assert names["make_context"] is purity.lefschetz.make_context
    assert names["zeta"] is purity.zeta
    for gone in ("primitive_gram", "hodge_sweep", "invariant_form",
                 "omega_class"):
        with pytest.raises(AttributeError):
            getattr(purity, gone)


_LOADED = """
import sys
bare = set(sys.modules)   # what `python -c pass` has loaded
import contextlib, io, json
from purity import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(set(sys.modules) - bare)]))
"""

# the standard library's introspection stack: `dataclasses` and `inspect`
# pull in the rest, and loading it costs every call milliseconds
_INTROSPECTION = {"dataclasses", "inspect", "ast", "dis", "tokenize"}


def _modules_loaded_by(*argv):
    """The modules a CLI call loads over a bare interpreter."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", _LOADED, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    code, modules = json.loads(done.stdout)
    assert code == 0, done.stderr
    return set(modules)


@pytest.mark.parametrize("argv,absent", [
    (("ring", "--n", "2", "--q", "2"),
     {"lefschetz", "weightss", "fixtures", "zeta"}),
    (("hodge", "--n", "2", "--q", "2", "--divisor", "omega"),
     {"weightss", "fixtures", "zeta"}),
    (("wss", "--fixture", "drinfeld-local:2,2", "--check-lemmas", "--zeta"),
     set()),
])
def test_a_command_loads_only_the_layers_it_runs(argv, absent):
    loaded = _modules_loaded_by(*argv)
    assert "purity.cohomology" in loaded
    assert not loaded & _INTROSPECTION
    assert not loaded & {"purity." + m for m in absent}
