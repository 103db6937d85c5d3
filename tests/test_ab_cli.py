"""`tools/ab_cli.py`: the paired summary on fixed numbers, the workload
argvs read from perfbench/run.py, one launcher-measured call, and one extra
rung compared end to end and written as JSON."""

import hashlib
import importlib.util
import json
import os
import platform
import shutil
import sys
from pathlib import Path

from purity.cli import main

TOOL = Path(__file__).resolve().parent.parent / "tools" / "ab_cli.py"

_spec = importlib.util.spec_from_file_location("ab_cli", TOOL)
ab_cli = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_cli)


def test_summary_of_fixed_pairs():
    parent = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    change = [0.5, 2.0, 3.5, 3.0, 4.0, 7.0, 6.0, 8.0, 8.0, 9.0]
    # exclusive quartiles of 1..10 sit at positions 2.75 and 8.25
    assert ab_cli.summary(parent, change) == {
        "parent": 5.5, "quartiles": (2.75, 8.25), "change": 5.0,
        "wins": 6, "pairs": 10}


def test_workloads_are_read_from_the_benchmark():
    workloads = ab_cli.read_workloads()
    assert sorted(workloads) == ["hodge-b3f2", "ring-b3f3", "wss-drinfeld-q3"]
    assert workloads["ring-b3f3"] == ("ring", "--n", "3", "--q", "3")


def test_launcher_measures_one_call(tmp_path):
    argv = [sys.executable, "-c", "import sys; print('ab'); sys.exit(3)"]
    wall, cpu, rss_mb, code, sha = ab_cli.measure(argv, tmp_path,
                                                  dict(os.environ))
    assert (code, sha) == (3, hashlib.sha256(b"ab\n").hexdigest())
    assert wall > 0 and cpu > 0 and rss_mb > 1


def test_the_import_probe_runs_from_this_checkout():
    root = TOOL.parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    _, _, _, code, sha = ab_cli.measure(ab_cli.PROBE, root, env)
    assert (code, sha) == (0, hashlib.sha256(b"").hexdigest())


def test_an_extra_rung_is_compared_and_written_as_json(tmp_path, monkeypatch,
                                                       capsys):
    # two clean copies of this checkout's engine, and no benchmark workload
    root = TOOL.parent.parent
    sides = []
    for side in ("parent", "change"):
        shutil.copytree(root / "src", tmp_path / side / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
        sides.append(str(tmp_path / side))
    monkeypatch.setattr(ab_cli, "read_workloads", dict)
    monkeypatch.setattr(ab_cli, "PAIRS", 2)
    out = tmp_path / "BENCH_test.json"
    assert ab_cli.main([*sides, "--extra", "ring --n 1 --q 2",
                        "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert main(["--json", "ring", "--n", "1", "--q", "2"]) == 0
    sha = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    bench = json.loads(out.read_text())
    assert bench["python"] == platform.python_version()
    rung = bench["workloads"]["ring --n 1 --q 2"]
    assert (rung["args"], rung["exit_code"], rung["stdout_sha256"]) == (
        ["ring", "--n", "1", "--q", "2"], 0, sha)
    assert sorted(rung["metrics"]) == ["cpu_s", "rss_mb", "setup_s", "wall_s"]
    for s in rung["metrics"].values():
        assert s["pairs"] == 2 and 0 <= s["wins"] <= 2
        assert s["quartiles"][0] <= s["quartiles"][1]
    assert printed.startswith("ring --n 1 --q 2: exit 0, sha256 %s, 2 pairs\n"
                              % sha[:8])
    assert printed.count("\n") == 5

