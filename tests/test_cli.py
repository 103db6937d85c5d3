import hashlib
import json

import pytest

from purity.cli import main
from purity.fixtures import drinfeld_local
from purity.weightss import complex_to_json


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


def test_hodge_refuses_non_positive(capsys):
    code, out, _ = run(capsys, "hodge", "--n", "2", "--q", "2",
                       "--divisor", "1,-1")
    assert code == 1
    assert "REFUSED" in out and "NOT positive" in out


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
    cx, _ = drinfeld_local(2, 2)
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


def test_wss_rejects_missing_file(capsys):
    code, _, err = run(capsys, "wss", "--input", "/nonexistent/x.json")
    assert code == 2


def test_unknown_fixture(capsys):
    code, _, err = run(capsys, "wss", "--fixture", "bogus:1")
    assert code == 2
    assert "unknown fixture" in err


@pytest.mark.parametrize("spec", ["tate-cycle:3", "tate-cycle:3,2,1"])
def test_fixture_arity_is_invalid_input(capsys, spec):
    code, _, err = run(capsys, "wss", "--fixture", spec)
    assert code == 2
    assert "'tate-cycle' takes arguments (m, q)" in err


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


def test_zero_denominator_divisor_is_invalid_input(capsys):
    code, _, err = run(capsys, "hodge", "--n", "2", "--q", "2",
                       "--divisor", "1/0,1")
    assert code == 2
    assert "zero denominator" in err


def test_wss_json_report(capsys):
    code, out, _ = run(capsys, "--json", "wss", "--fixture", "tate-cycle:2,2",
                       "--zeta")
    assert code == 0
    data = json.loads(out)
    assert data["purity"]["1"]["ok"] is True
    assert data["zeta"]["factors"] == [{"a": 1, "multiplicity": -1}]


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
    pytest.param(("hodge", "--n", "2", "--q", "3", "--divisor", "omega"), 0,
                 "7afcd3c0cfc1bf486de63f99f31267195df049a58525714818b05b9dce2e5126",
                 id="hodge-b2f3-omega"),
    pytest.param(("ring", "--n", "2", "--q", "2", "--products"), 0,
                 "9794f45458eb7a316d0f0d91312a00d6e682785d1b9e08ca344472ecb1242ec5",
                 id="ring-b2f2-products"),
    pytest.param(("ring", "--n", "3", "--q", "2"), 0,
                 "3e761fb8ca9d814f1cce0a21ba1b82b963f7f035ad18289213cee546e2e8b584",
                 id="ring-b3f2"),
]


@pytest.mark.parametrize("argv,code,digest", GOLDEN)
def test_json_report_bytes_are_pinned(capsys, argv, code, digest):
    got, out, _ = run(capsys, "--json", *argv)
    assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)
