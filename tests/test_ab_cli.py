"""`tools/ab_cli.py`: the paired summary on fixed numbers, the workload
argvs read from perfbench/run.py, and one launcher-measured call."""

import hashlib
import importlib.util
import os
import sys
from pathlib import Path

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
