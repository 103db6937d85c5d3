"""Self-tests of the benchmark.  They run real CLI calls and take a few minutes:

    python3 -m pytest -q perfbench/selftest.py

The file name keeps them out of the repository's default test collection.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
import run  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# exact counts the traced run must give on each workload
EXPECTED_CALLS = {
    "ring-b3f3": {"cohomology.intersection_number.calls": 152008,
                  "cohomology.build_ring.calls": 1},
    "hodge-b3f2": {"lefschetz.check_hard_lefschetz.calls": 5,
                   "lefschetz.primitive_decomposition.calls": 3,
                   "lefschetz.lefschetz_pairing_gram.calls": 5},
    "wss-drinfeld-q3": {"weightss.check_purity.calls": 30,
                        "weightss.induced_n.calls": 27,
                        "linalg.matmul.calls": 1266},
}


def bench(*args, cwd=run.ROOT):
    proc = subprocess.run([sys.executable, str(Path("perfbench") / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(run.WORKLOADS)
    assert [m["name"] for m in SPEC["per_layer"]] == tracer.per_layer_names()


def test_corrupted_stdout_counts_as_failed():
    r = run.Run("ring-b3f3")
    corrupt = run.Call(1.0, 1.0, 0, b'{"schema_version": 1}\n', b"", False)
    assert run.failure(corrupt, r.workload) == "stdout digest differs from golden"
    assert r.call([sys.executable, "-c", "print('{}')"], 30) is None
    assert r.result({}) == {"correct": False, "attempted": 1, "failed": 1,
                            "metrics": {}}


def test_wrong_exit_code_counts_as_failed():
    r = run.Run("hodge-b3f2")
    assert r.call([sys.executable, "-c", "raise SystemExit(1)"], 30) is None
    assert r.failed == 1


def test_deadline_kills_and_fails_the_call():
    r = run.Run("ring-b3f3")
    t0 = time.perf_counter()
    assert r.call([sys.executable, "-c", "import time; time.sleep(60)"], 0.5) is None
    assert time.perf_counter() - t0 < 10
    assert (r.attempted, r.failed) == (1, 1)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_output_names_every_metric(trace, section):
    proc = bench("--workload", "ring-b3f3", "--seed", "3", "--seconds", "1",
                 "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float))
               for v in result["metrics"].values())


def test_refuses_to_run_without_engine_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "ring-b3f3", "--seed", "1", "--seconds", "1",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def traced_counts(name, tmp_path, tag):
    workload = run.WORKLOADS[name]
    out = tmp_path / ("%s.json" % tag)
    call = run.run_call(run.traced_argv(workload, out), 600)
    assert run.failure(call, workload) is None, call.stderr.decode()
    metrics = tracer.summarize(json.loads(out.read_text()))
    return {k: v for k, v in metrics.items()
            if k.endswith((".calls", ".mul_adds", ".max_entry_bits", ".max_dim"))}


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_traced_counts_repeat_exactly(name, tmp_path):
    first = traced_counts(name, tmp_path, "a")
    assert first == traced_counts(name, tmp_path, "b")
    for metric, count in EXPECTED_CALLS[name].items():
        assert first[metric] == count, metric
