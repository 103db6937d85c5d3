"""A/B of the purity CLI between two checkouts, in fresh processes.

    python tools/ab_cli.py PARENT CHANGE

For each workload of `perfbench/run.py`'s `WORKLOADS` (read from its syntax
tree, never imported or run) it makes PAIRS pairs of calls, one on each
checkout, alternating which side runs first.  A call is `python -m
purity.cli --json ARGS` from the checkout's root with its `src` on
PYTHONPATH and PYTHONDONTWRITEBYTECODE=1.  A checkout whose `src` holds a
`__pycache__` is refused, so every call compiles the engine from source, as
a benchmark call does, and neither side reads a bytecode cache the other
lacks.

Each call is started by its own small launcher (`python -S`), which forks
the CLI, hashes its stdout and takes its CPU time and peak RSS from `wait4`.
A forked child's `ru_maxrss` counts the memory of the process it was forked
from, so the CLI's peak carries at most the launcher's small size, not this
harness's.

In each pair each side also makes one `PROBE` call, a fresh `import
purity.cli`, right after its workload call: its wall time is the benchmark's
`setup_s`.

Both sides must print the same stdout sha256 with the same exit code on
every call, and every probe must exit 0 with no output; the tool stops with
exit 1 otherwise.  Per workload and metric (wall s, CPU s, peak RSS MB,
setup s) it prints the parent's median and quartiles, the change's median
and the pairs the change won (lower wins; ties count for neither side).
"""

import ast
import os
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 10
RUN_PY = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"
# the import probe of perfbench/run.py
PROBE = [sys.executable, "-c", "import purity.cli"]
EMPTY_SHA256 = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

# argv[1:] is the command; prints "wall cpu maxrss_kb exit_code sha256"
LAUNCHER = r"""
import hashlib, os, sys, time
r, w = os.pipe()
t0 = time.perf_counter()
pid = os.fork()
if pid == 0:
    try:
        os.dup2(w, 1)
        os.execv(sys.argv[1], sys.argv[1:])
    finally:
        os._exit(127)
os.close(w)
digest = hashlib.sha256()
with os.fdopen(r, "rb") as out:
    for chunk in iter(lambda: out.read(1 << 16), b""):
        digest.update(chunk)
_, status, use = os.wait4(pid, 0)
wall = time.perf_counter() - t0
print(wall, use.ru_utime + use.ru_stime, use.ru_maxrss,
      os.waitstatus_to_exitcode(status), digest.hexdigest())
"""


def read_workloads(path=RUN_PY):
    """name -> CLI argument tuple of each `WORKLOADS` entry of run.py."""
    tree = ast.parse(Path(path).read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "WORKLOADS"
                for t in node.targets):
            return {ast.literal_eval(k): ast.literal_eval(v.args[0])
                    for k, v in zip(node.value.keys, node.value.values)}
    raise SystemExit("%s assigns no WORKLOADS" % path)


def measure(argv, cwd, env):
    """(wall s, CPU s, peak RSS MB, exit code, stdout sha256) of one call."""
    done = subprocess.run([sys.executable, "-S", "-c", LAUNCHER, *argv],
                          cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                          stdout=subprocess.PIPE, check=True, text=True)
    wall, cpu, rss_kb, code, sha = done.stdout.split()
    return float(wall), float(cpu), int(rss_kb) / 1024.0, int(code), sha


def summary(parent, change):
    """Parent median and quartiles, change median and the change's wins over
    paired runs of one metric, lower being better."""
    q1, _, q3 = statistics.quantiles(parent, n=4)
    return {"parent": statistics.median(parent), "quartiles": (q1, q3),
            "change": statistics.median(change),
            "wins": sum(c < p for p, c in zip(parent, change)),
            "pairs": len(parent)}


def main(argv):
    if len(argv) != 2:
        print("usage: python tools/ab_cli.py PARENT CHANGE", file=sys.stderr)
        return 2
    roots = [Path(a).resolve() for a in argv]
    for root in roots:
        if next((root / "src").rglob("__pycache__"), None):
            print("%s/src holds bytecode caches; remove them or give a clean "
                  "export" % root, file=sys.stderr)
            return 2
    envs = [dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                 PYTHONPATH=str(root / "src")) for root in roots]
    for name, args in read_workloads().items():
        cli = [sys.executable, "-m", "purity.cli", "--json", *args]
        runs, probes = ([], []), ([], [])
        for i in range(PAIRS):
            for side in (0, 1) if i % 2 == 0 else (1, 0):
                runs[side].append(measure(cli, roots[side], envs[side]))
                probes[side].append(measure(PROBE, roots[side], envs[side]))
        outputs = {run[3:] for side in runs for run in side}
        if len(outputs) != 1:
            print("%s: the sides differ in (exit code, sha256): %s"
                  % (name, sorted(outputs)), file=sys.stderr)
            return 1
        probe_outputs = {run[3:] for side in probes for run in side}
        if probe_outputs != {(0, EMPTY_SHA256)}:
            print("%s: an import probe failed or printed: %s"
                  % (name, sorted(probe_outputs)), file=sys.stderr)
            return 1
        (code, sha), = outputs
        print("%s: exit %d, sha256 %s, %d pairs" % (name, code, sha[:8], PAIRS))
        rows = [(metric, [[r[k] for r in side] for side in runs])
                for k, metric in enumerate(("wall_s", "cpu_s", "rss_mb"))]
        rows.append(("setup_s", [[r[0] for r in side] for side in probes]))
        for metric, (parent, change) in rows:
            s = summary(parent, change)
            print("  %-7s parent %.4f [%.4f, %.4f]  change %.4f  wins %d/%d"
                  % (metric, s["parent"], *s["quartiles"], s["change"],
                     s["wins"], s["pairs"]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
