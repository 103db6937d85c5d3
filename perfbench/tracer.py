"""Outside-in tracer for the purity engine.

It wraps the public functions and methods of each engine module from the
outside, so the engine itself carries no tracing code.  Every call becomes a
span (name, start, end, parent) kept in memory and written out as JSON when the
traced CLI call ends.  `summarize` turns a written trace into the benchmark's
per-layer metrics.

Run as a script it is the traced child of `run.py`:

    PYTHONPATH=src python3 perfbench/tracer.py OUT.json -- --json ring --n 3 --q 3

The arguments after `--` are passed to `purity.cli.main`; its report goes to
stdout and its exit code becomes the script's exit code, as for the CLI.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (module, class or None, attribute): the layer boundaries that get spans.
# A span is named "<module>.<attribute>", the class name left out.
TARGETS = (
    [("geometry", None, "enumerate_subspaces")]
    + [("cohomology", None, f) for f in
       ("build_ring", "intersection_number", "restrict_to_divisor")]
    + [("cohomology", "GradedRing", f) for f in ("monomial_coords", "multiply")]
    + [("linalg", None, f) for f in
       ("matmul", "rank", "rref", "kernel_basis", "solve", "inverse",
        "symmetric_signature", "is_positive_definite", "column_space",
        "subspace_intersection", "subspace_leq")]
    + [("lefschetz", None, f) for f in
       ("make_context", "lefschetz_power", "check_hard_lefschetz",
        "primitive_decomposition", "lefschetz_pairing_gram",
        "check_hodge_standard")]
    + [("weightss", None, "weight_table")]
    + [("weightss", "WeightTable", f) for f in ("e2", "induced_n")]
    + [("weightss", None, f) for f in
       ("check_purity", "inertia_invariants", "verify_rz_lemmas")]
    + [("weightss", "SemistableComplex", "gysin")]
    + [("fixtures", None, "make_fixture")]
    + [("zeta", None, f) for f in ("zeta_function", "zeta_matches_weight_table")]
)

PACKAGE = "purity"
ROOT_SPAN = "cli.main"

# The matrix arguments of every traced linalg function are scanned for size
# and entry bits: the first argument, and the second for these.
_TWO_MATRIX_ARGS = {"matmul", "solve", "subspace_intersection", "subspace_leq"}

COUNTERS = ("linalg.matmul.mul_adds", "linalg.max_entry_bits", "linalg.max_dim")

# Caches read from outside: metric name -> (module, class or None, attribute,
# function that fills it).  Instance caches are read on the objects passed as
# `self` to that method.
CACHES = {
    "cohomology.eval_memo": ("cohomology", None, "_EVAL_MEMO",
                             "intersection_number"),
    "cohomology.coords_memo": ("cohomology", "GradedRing", "_coords_memo",
                               "monomial_coords"),
    "weightss.gysin_cache": ("weightss", "SemistableComplex", "_gysin_cache",
                             "gysin"),
}


def _entry_bits(m):
    """Largest bit length of a numerator or denominator among m's entries."""
    top = 0
    for row in m:
        for x in row:
            v = max(abs(x.numerator), x.denominator)
            if v > top:
                top = v
    return top.bit_length()


class Tracer:
    """Span recorder.  Spans are lists [name, start, end, parent, extra]:
    `parent` is the index of the enclosing span (-1 for none) and `extra` is
    the tracer's own time spent for this span outside [start, end], which
    `summarize` keeps out of the parent's self time."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.instances = {key: {} for key in CACHES}   # id -> (obj, size at first call)
        self.module_cache_start = {}
        self.absent = []

    def wrap(self, name, fn, probe=None):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t_in = clock()
            if probe is not None:
                probe(args)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0.0]
            stack.append(len(spans))
            spans.append(span)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                span[1], span[2] = t0, t1
                span[4] = (t0 - t_in) + (clock() - t1)
        return traced

    def _matrix_probe(self, fname):
        two = fname in _TWO_MATRIX_ARGS
        counters = self.counters

        def probe(args):
            dims = [len(args[0]), len(args[0][0]) if args[0] else 0]
            bits = _entry_bits(args[0])
            if two:
                b = args[1]
                dims += [len(b), len(b[0]) if b else 0]
                bits = max(bits, _entry_bits(b))
            if fname == "matmul":
                counters["linalg.matmul.mul_adds"] += dims[0] * dims[1] * dims[3]
            counters["linalg.max_dim"] = max(counters["linalg.max_dim"], *dims)
            counters["linalg.max_entry_bits"] = max(
                counters["linalg.max_entry_bits"], bits)
        return probe

    def _instance_probe(self, key, attr):
        seen = self.instances[key]

        def probe(args):
            obj = args[0]
            if id(obj) not in seen:
                cache = getattr(obj, attr, None)
                seen[id(obj)] = (obj, None if cache is None else len(cache))
        return probe

    def install(self):
        """Wrap every target, in every module namespace that binds it."""
        modules = {m: importlib.import_module("%s.%s" % (PACKAGE, m))
                   for m in {t[0] for t in TARGETS} | {"cli"}}
        for key, (mod, owner, attr, _) in CACHES.items():
            if owner is None:
                cache = getattr(modules[mod], attr, None)
                if cache is None:
                    self.absent.append(key)
                else:
                    self.module_cache_start[key] = len(cache)
        instance_probes = {(CACHES[k][0], CACHES[k][1], CACHES[k][3]):
                           self._instance_probe(k, CACHES[k][2])
                           for k in CACHES if CACHES[k][1] is not None}
        namespaces = [m for name, m in sys.modules.items()
                      if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for mod, owner, attr in TARGETS + [("cli", None, "main")]:
            name = ROOT_SPAN if mod == "cli" else "%s.%s" % (mod, attr)
            holder = modules[mod] if owner is None else \
                getattr(modules[mod], owner, None)
            fn = getattr(holder, attr, None) if holder is not None else None
            if fn is None:
                self.absent.append(name)
                continue
            probe = instance_probes.get((mod, owner, attr))
            if mod == "linalg":
                probe = self._matrix_probe(attr)
            traced = self.wrap(name, fn, probe)
            if owner is not None:
                setattr(holder, attr, traced)
                continue
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is fn:
                        setattr(ns, key, traced)

    def cache_growth(self):
        """Entries each cache gained during the call, or None if it is absent."""
        out = {}
        for key, (mod, owner, attr, _) in CACHES.items():
            if key in self.absent:
                out[key] = None
            elif owner is None:
                cache = getattr(sys.modules["%s.%s" % (PACKAGE, mod)], attr, None)
                out[key] = None if cache is None else \
                    len(cache) - self.module_cache_start[key]
            elif any(start is None for _, start in self.instances[key].values()):
                out[key] = None
            else:
                out[key] = sum(len(getattr(obj, attr)) - start
                               for obj, start in self.instances[key].values())
        return out

    def dump(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        data = {"names": names,
                "spans": [[index[s[0]], s[1] - t0, s[2] - t0, s[3], s[4]]
                          for s in self.spans],
                "counters": self.counters,
                "cache_growth": self.cache_growth(),
                "absent": self.absent}
        with open(path, "w") as fh:
            json.dump(data, fh, separators=(",", ":"))


def per_layer_names():
    """Every per-layer metric `summarize` reports, in a fixed order."""
    names = []
    for mod, _, attr in TARGETS:
        names += ["%s.%s.calls" % (mod, attr), "%s.%s.self_s" % (mod, attr)]
    names += list(COUNTERS)
    names += ["%s.hit_ratio" % key for key in CACHES]
    names += ["cli.self_s", "trace.overhead_ratio"]
    return names


def summarize(trace):
    """Per-layer metrics from a dumped trace (overhead ratio left to the caller).

    Returns {metric: value}; a value is None when the engine no longer has the
    function or cache the metric reads."""
    names = trace["names"]
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    for _, start, end, parent, extra in spans:
        if parent >= 0:
            child_time[parent] += end - start + extra
    calls, self_s = {}, {}
    for i, (ni, start, end, _, _) in enumerate(spans):
        name = names[ni]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (end - start - child_time[i])
    out = {}
    for mod, _, attr in TARGETS:
        name = "%s.%s" % (mod, attr)
        gone = name in trace["absent"]
        out[name + ".calls"] = None if gone else calls.get(name, 0)
        out[name + ".self_s"] = None if gone else self_s.get(name, 0.0)
    out.update(trace["counters"])
    for key, (mod, _, _, filler) in CACHES.items():
        growth = trace["cache_growth"][key]
        lookups = out["%s.%s.calls" % (mod, filler)]
        if growth is None or lookups is None:
            out[key + ".hit_ratio"] = None
        elif lookups == 0:
            # No lookup means no miss.  1 keeps a change that removes every
            # lookup from reading as a cache regression, and keeps the value
            # a number, as the benchmark's output requires.
            out[key + ".hit_ratio"] = 1.0
        else:
            out[key + ".hit_ratio"] = 1.0 - growth / lookups
    out["cli.self_s"] = None if ROOT_SPAN in trace["absent"] else \
        self_s.get(ROOT_SPAN, 0.0)
    return out


def main(argv):
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py OUT.json -- CLI-ARGS...", file=sys.stderr)
        return 2
    tracer = Tracer()
    tracer.install()
    from purity import cli
    code = cli.main(argv[2:])
    sys.stdout.flush()
    tracer.dump(argv[0])
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
