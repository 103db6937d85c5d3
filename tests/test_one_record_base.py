"""Value semantics are written once, in `purity.record.Record`: no other
class of the engine defines `__eq__`, `__hash__`, `__lt__` or `__repr__`.
`Matrix` compares its canonical rows, and `LinearSubvariety` returns the
hash it took at construction.  `__hash__ = None`, which makes a record
unhashable, defines nothing."""

import ast
from pathlib import Path

import purity

SRC = Path(purity.__file__).resolve().parent
VALUE_METHODS = {"__eq__", "__hash__", "__lt__", "__repr__"}
ALLOWED = {("record", "Record", name) for name in VALUE_METHODS} | {
    ("linalg", "Matrix", name) for name in VALUE_METHODS} | {
    ("geometry", "LinearSubvariety", "__hash__")}


def _value_methods(tree):
    """(class, name) of each value method a class of the module defines,
    by `def` or by assigning anything but None."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, ast.FunctionDef):
                names = [item.name]
            elif (isinstance(item, ast.Assign)
                  and not (isinstance(item.value, ast.Constant)
                           and item.value.value is None)):
                names = [t.id for t in item.targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in VALUE_METHODS.intersection(names):
                yield node.name, name


def test_only_record_defines_value_methods():
    found = {(path.stem, cls, name)
             for path in sorted(SRC.glob("*.py"))
             for cls, name in _value_methods(ast.parse(path.read_text()))}
    assert found - ALLOWED == set()
    # the guard sees the definitions it allows
    assert ("record", "Record", "__eq__") in found
    assert ("geometry", "LinearSubvariety", "__hash__") in found


def test_the_guard_sees_a_hand_written_method():
    tree = ast.parse("class Spec(Record):\n"
                     "    def __eq__(self, other):\n"
                     "        return True\n"
                     "    __hash__ = object.__hash__\n"
                     "class Table:\n"
                     "    __hash__ = None\n")
    assert set(_value_methods(tree)) == {("Spec", "__eq__"),
                                         ("Spec", "__hash__")}
