"""Benchmark of the purity CLI on fixed rungs of the paper's ladder.

    python3 perfbench/run.py --workload ring-b3f3 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the engine is imported from `src/`
through PYTHONPATH, so the commit under test is what runs.  Every call is a
fresh `python -m purity.cli --json ...` process, one at a time, as a user runs
it.  A call fails when its exit code or the sha256 of its stdout differs from
the golden value recorded for the workload, or when it overruns its deadline
and is killed; a failed call gives no timing sample.

With --trace 0 the run repeats the workload's call until --seconds are used
up and reports end-to-end medians of the raw times.  With --trace 1 it makes
one untraced and one traced call (see tracer.py) and reports per-layer
metrics.  The seed sets only the interleaving order of the calls and the
import probes; the inputs are fixed.  The last stdout line is one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

sys.path.insert(0, str(BENCH_DIR))
import tracer  # noqa: E402


@dataclass(frozen=True)
class Workload:
    args: tuple          # CLI arguments after `purity --json`
    exit_code: int       # golden exit code
    sha256: str          # golden sha256 of the --json stdout
    deadline_s: float    # an untraced call running longer is killed and failed


# Golden values recorded at the commit that introduced the benchmark.
WORKLOADS = {
    "ring-b3f3": Workload(
        ("ring", "--n", "3", "--q", "3"), 0,
        "9aa3ffe8172916c9adf650d48cb900d3170ed47be4e8e475f774c6c7e8ae0687", 60),
    "hodge-b3f2": Workload(
        ("hodge", "--n", "3", "--q", "2", "--divisor", "omega"), 0,
        "106ba59a82ccfa75cc6ab27858cf14d07522704ae7bf6315696dfd5b094f2385", 90),
    "wss-drinfeld-q3": Workload(
        ("wss", "--fixture", "drinfeld-local:2,3", "--check-lemmas", "--zeta"), 0,
        "e455cc2145cecc7ca8242f9c19594707c11703ef31e93c7453e0369469fcdfd7", 120),
}

SETUP_PROBES = 7          # fresh `import purity.cli` processes per run
RUN_LIMIT_S = 170.0       # every call is killed before a run passes this
TRACED_SLOWDOWN = 2.0     # deadline factor for the traced call


@dataclass
class Call:
    wall_s: float
    cpu_s: float
    exit_code: int | None   # None when the call was killed at its deadline
    stdout: bytes
    stderr: bytes
    timed_out: bool


def child_env():
    env = dict(os.environ)
    env.pop("PURITY_MAX_DIM", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_call(argv, deadline_s):
    """Run argv to its end or its deadline; time it and take its user + sys
    CPU time from this process's children rusage (one child runs at a time)."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=child_env(),
                              stdin=subprocess.DEVNULL, capture_output=True,
                              timeout=max(deadline_s, 0.01))
        code, out, err, timed_out = proc.returncode, proc.stdout, proc.stderr, False
    except subprocess.TimeoutExpired as exc:   # run() has killed and reaped it
        code, out, err, timed_out = None, exc.stdout or b"", exc.stderr or b"", True
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return Call(wall, cpu, code, out, err, timed_out)


def peak_child_rss_mb():
    """Largest maximum RSS of any child this process has waited for."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def failure(call, workload):
    """Why a finished call does not match the workload's golden, or None."""
    if call.timed_out:
        return "deadline"
    if call.exit_code != workload.exit_code:
        return "exit code %d, expected %d" % (call.exit_code, workload.exit_code)
    if hashlib.sha256(call.stdout).hexdigest() != workload.sha256:
        return "stdout digest differs from golden"
    return None


def cli_argv(workload):
    return [sys.executable, "-m", "purity.cli", "--json", *workload.args]


def traced_argv(workload, out_path):
    return [sys.executable, str(BENCH_DIR / "tracer.py"), str(out_path), "--",
            "--json", *workload.args]


class Run:
    """Counts attempts and failures of the workload calls in one run."""

    def __init__(self, name):
        self.name = name
        self.workload = WORKLOADS[name]
        self.start = time.perf_counter()
        self.attempted = 0
        self.failed = 0

    def remaining(self):
        return RUN_LIMIT_S - (time.perf_counter() - self.start)

    def call(self, argv, deadline_s):
        """One checked call; returns the Call, or None if it failed."""
        self.attempted += 1
        call = run_call(argv, min(deadline_s, self.remaining()))
        why = failure(call, self.workload)
        if why is None:
            return call
        self.failed += 1
        print("%s: call failed (%s): %s" % (self.name, why,
              call.stderr.decode(errors="replace").strip()[-500:]), file=sys.stderr)
        return None

    def import_probe(self):
        """Wall time of a fresh `import purity.cli`."""
        call = run_call([sys.executable, "-c", "import purity.cli"],
                        min(60, self.remaining()))
        if call.exit_code != 0 or call.timed_out:
            raise RuntimeError("import purity.cli failed: %s"
                               % call.stderr.decode(errors="replace"))
        return call.wall_s

    def result(self, metrics):
        return {"correct": self.failed == 0, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}


def _median(values):
    return statistics.median(values) if values else None


def measure(name, seed, seconds):
    """End-to-end metrics: medians over the calls that fit in `seconds`."""
    run = Run(name)
    rng = random.Random(seed)
    run.import_probe()          # warm-up: writes bytecode caches, not timed
    end = time.perf_counter() + seconds
    setup, walls, cpus = [], [], []
    probes_left = SETUP_PROBES
    while run.remaining() > 0:
        if run.attempted and time.perf_counter() + _median(walls or [0.0]) > end:
            break
        k = rng.randint(0, min(2, probes_left))
        setup += [run.import_probe() for _ in range(k)]
        probes_left -= k
        call = run.call(cli_argv(run.workload), run.workload.deadline_s)
        if call is None:
            if not walls:
                break
            continue
        walls.append(call.wall_s)
        cpus.append(call.cpu_s)
    # The workload calls use far more memory than the import probes, so the
    # children's peak is that of the workload.
    rss = peak_child_rss_mb() if walls else None
    setup += [run.import_probe() for _ in range(probes_left)]
    print("%s: %d valid calls" % (name, len(walls)), file=sys.stderr)
    metrics = {"wall_s": (_median(walls), "s"), "cpu_s": (_median(cpus), "s"),
               "setup_s": (_median(setup), "s"), "peak_rss_mb": (rss, "MB")}
    return run.result({k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})


PER_LAYER_UNITS = {"self_s": "s", "calls": "count", "hit_ratio": "ratio",
                   "overhead_ratio": "ratio", "mul_adds": "count",
                   "max_entry_bits": "bits", "max_dim": "rows"}


def per_layer_unit(metric):
    return PER_LAYER_UNITS[metric.rsplit(".", 1)[1]]


def trace(name, seed):
    """Per-layer metrics from one traced call, plus its overhead ratio
    against one untraced call; the seed picks which of the two runs first."""
    run = Run(name)
    run.import_probe()
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / ("trace-%s.json" % name)
    calls = {}
    order = ["plain", "traced"]
    random.Random(seed).shuffle(order)
    for kind in order:
        if kind == "plain":
            calls[kind] = run.call(cli_argv(run.workload), run.workload.deadline_s)
        else:
            calls[kind] = run.call(traced_argv(run.workload, out_path),
                                   run.workload.deadline_s * TRACED_SLOWDOWN)
    values = dict.fromkeys(tracer.per_layer_names())
    traced, plain = calls["traced"], calls["plain"]
    if traced is not None:
        with open(out_path) as fh:
            values.update(tracer.summarize(json.load(fh)))
        if plain is not None:
            values["trace.overhead_ratio"] = traced.wall_s / plain.wall_s
    return run.result({k: {"value": v, "unit": per_layer_unit(k)}
                       for k, v in values.items()})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "purity" / "cli.py").is_file():
        print("error: no engine source at %s; run from a purity checkout" % SRC,
              file=sys.stderr)
        return 2
    if args.trace:
        result = trace(args.workload, args.seed)
    else:
        result = measure(args.workload, args.seed, args.seconds)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
