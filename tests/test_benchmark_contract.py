"""The benchmark's tracer names engine functions and caches by module,
class and attribute; one that no longer resolves reads as a null metric.
`perfbench/tracer.py` is loaded read-only and never installed here."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from purity.cohomology import build_ring, proj
from purity.fixtures import make_fixture

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
    "weightss.gysin_cache": lambda: make_fixture("tate-cycle", 3, 2)[0],
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
