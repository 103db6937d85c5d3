"""Every top-level function, class and method of the engine has a use: a
reference somewhere in `src/purity` outside its own definition, a package
export (`purity._EXPORTS`), or a name the benchmark's tracer wraps or reads
(`TARGETS` and `CACHES` of `perfbench/tracer.py`).  Dunder methods are called
by Python itself and are left out.  Tests are no use: code only the tests
call belongs in the tests."""

import ast
from pathlib import Path

import purity
from test_benchmark_contract import _TRACER

SRC = Path(purity.__file__).resolve().parent


def _definitions(tree):
    """(name, node) of the module's functions and classes and of the
    methods of its classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield item.name, item


def _references(tree):
    """(name, line) of every identifier the module reads: bare names and
    attributes."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def _kept_by_name():
    names = {name for names in purity._EXPORTS.values()
             for name in names.split()}
    for _, owner, attr in _TRACER.TARGETS:
        names.update(filter(None, (owner, attr)))
    for _, owner, attr, filler in _TRACER.CACHES.values():
        names.update(filter(None, (owner, attr, filler)))
    return names


def unused_definitions(src=SRC):
    """"module:line name" of each definition with no use."""
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(src.glob("*.py"))}
    refs = [(module, name, line) for module, tree in trees.items()
            for name, line in _references(tree)]
    kept = _kept_by_name()
    out = []
    for module, tree in trees.items():
        for name, node in _definitions(tree):
            if name in kept or name.startswith("__") and name.endswith("__"):
                continue
            if not any(ref == name and not (
                    module == ref_module
                    and node.lineno <= line <= node.end_lineno)
                    for ref_module, ref, line in refs):
                out.append("%s:%d %s" % (module, node.lineno, name))
    return out


def test_every_engine_definition_has_a_use():
    assert unused_definitions() == []


def test_an_unused_definition_is_reported(tmp_path):
    (tmp_path / "a.py").write_text(
        "def used():\n    return 1\n\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else used()\n\n\n"
        "class Holder:\n    def spare(self):\n        return 0\n\n"
        "    def __len__(self):\n        return 0\n")
    (tmp_path / "b.py").write_text(
        "from a import Holder\n\nHOLDER = Holder()\n")
    assert unused_definitions(tmp_path) == ["a.py:5 recursive",
                                            "a.py:10 spare"]
