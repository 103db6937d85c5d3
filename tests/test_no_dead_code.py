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


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _bound(function):
    """The names a function binds itself: its parameters, and every name it
    stores to or defines outside its nested functions and classes."""
    args = function.args
    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    names.update(a.arg for a in (args.vararg, args.kwarg) if a)
    body = list(ast.iter_child_nodes(function))
    while body:
        node = body.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            names.add(node.name)
        if not isinstance(node, (*_FUNCTIONS, ast.ClassDef)):
            body.extend(ast.iter_child_nodes(node))
    return names


def _references(node, local=frozenset()):
    """(name, line) of every identifier the module reads: attributes, and
    bare names that no enclosing function binds as a parameter or local."""
    if isinstance(node, _FUNCTIONS):
        local = local | _bound(node)
    if isinstance(node, ast.Name) and node.id not in local:
        yield node.id, node.lineno
    elif isinstance(node, ast.Attribute):
        yield node.attr, node.lineno
    for child in ast.iter_child_nodes(node):
        yield from _references(child, local)


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
    # a parameter or local of the same name is no use of a definition
    (tmp_path / "a.py").write_text(
        "def used():\n    return 1\n\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else used()\n\n\n"
        "class Holder:\n    def spare(self):\n        return 0\n\n"
        "    def __len__(self):\n        return 0\n\n\n"
        "def shadowed():\n    return 0\n\n\n"
        "def reader(shadowed):\n    spare = [x for x in shadowed]\n"
        "    return lambda: spare\n")
    (tmp_path / "b.py").write_text(
        "from a import Holder, reader\n\n"
        "HOLDER = Holder()\nREAD = reader([])\n")
    assert unused_definitions(tmp_path) == ["a.py:5 recursive",
                                            "a.py:10 spare",
                                            "a.py:17 shadowed"]
