"""The benchmark's tracer names engine functions and caches by module,
class and attribute; one that no longer resolves reads as a null metric.
`perfbench/tracer.py` is loaded read-only and never installed here.

Each benchmark workload's golden argv, exit code and stdout sha256 is also a
`GOLDEN` of the CLI tests, so a change to a rung's bytes fails here as well
as in the benchmark.  `perfbench/run.py` is read as a syntax tree, never
imported or run."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

from purity.cohomology import build_ring, proj
from purity.fixtures import make_fixture
from test_cli import GOLDEN

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_TRACER = _tracer()


def _holder(module, owner):
    mod = importlib.import_module("%s.%s" % (_TRACER.PACKAGE, module))
    return mod if owner is None else getattr(mod, owner)


@pytest.mark.parametrize("module,owner,attr", _TRACER.TARGETS,
                         ids=lambda part: str(part))
def test_every_traced_target_resolves(module, owner, attr):
    assert callable(getattr(_holder(module, owner), attr))


# one instance of each class that owns a traced cache: a cache the class
# sets up in its constructor is read there on every traced call
_INSTANCES = {
    "cohomology.coords_memo": lambda: build_ring(proj(1)),
    "weightss.gysin_cache": lambda: make_fixture("tate-cycle", 3, 2),
}


@pytest.mark.parametrize("key", sorted(_TRACER.CACHES))
def test_every_traced_cache_resolves(key):
    module, owner, attr, filler = _TRACER.CACHES[key]
    holder = _holder(module, owner)
    assert callable(getattr(holder, filler))
    if owner is None:
        assert hasattr(holder, attr)
    else:
        assert hasattr(_INSTANCES[key](), attr)


def _workloads():
    """name -> (argv, exit code, sha256) of each `WORKLOADS` entry of
    perfbench/run.py, read from its syntax tree."""
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "WORKLOADS"
                for t in node.targets):
            return {ast.literal_eval(k): tuple(map(ast.literal_eval,
                                                   v.args[:3]))
                    for k, v in zip(node.value.keys, node.value.values)}
    raise AssertionError("perfbench/run.py assigns no WORKLOADS")


@pytest.mark.parametrize("name,workload", sorted(_workloads().items()))
def test_every_benchmark_workload_is_a_cli_golden(name, workload):
    assert workload in {tuple(p.values) for p in GOLDEN}, name
