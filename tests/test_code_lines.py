"""`tools/code_lines.py` counts code lines by the rule of ROADMAP.md: a line
counts when it holds a token that is not a comment and not part of a module,
class or function docstring."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# 9 code lines: the import, the constant, both lines of the call, the
# class and function headers, the two-line string that is not a docstring,
# and the return; docstrings, comments and blanks count for nothing
SAMPLE = '''"""A module docstring
over two lines."""

import os   # a trailing comment leaves the line a code line

# a comment line
LIMIT = 3
print(LIMIT,
      os.sep)


class Box:
    """A class docstring."""

    def size(self):
        """A function docstring
        over two lines."""
        text = """a string that
is not a docstring"""
        return len(text)
'''


def test_a_sample_module_has_its_known_count():
    assert code_lines.code_lines(SAMPLE) == 9
    assert code_lines.code_lines("") == 0
    assert code_lines.code_lines('"""Only a docstring."""\n') == 0


def test_the_tool_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SAMPLE)
    (tmp_path / "b.py").write_text("x = 1\n\n# note\ny = [x,\n     2]\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    code_lines.main(["code_lines.py", str(tmp_path)])
    assert capsys.readouterr().out.split("\n") == [
        "     9  a.py", "     3  b.py", "    12  total", ""]
