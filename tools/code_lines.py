"""Count the code lines of the `purity` package.

A code line holds at least one token that is not a comment and not part of a
module, class or function docstring; blank lines count for nothing.  A token
that spans several lines (a multi-line string that is not a docstring, say)
makes each of them a code line.

    python tools/code_lines.py [DIR]

prints the count of each module of DIR (default: the repository's
src/purity) and the total.
"""

import ast
import io
import os
import sys
import tokenize

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_starts(tree):
    """The (line, column) of every module, class and function docstring."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(
                    first.value, ast.Constant) and isinstance(
                    first.value.value, str):
                out.add((first.lineno, first.col_offset))
    return out


def code_lines(source):
    """The number of code lines of a Python source text."""
    docstrings = _docstring_starts(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT:
            continue
        if tok.type == tokenize.STRING and tok.start in docstrings:
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv):
    root = argv[1] if len(argv) > 1 else os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "src", "purity")
    total = 0
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            with open(os.path.join(root, name), encoding="utf-8") as fh:
                count = code_lines(fh.read())
            print("%6d  %s" % (count, name))
            total += count
    print("%6d  total" % total)


if __name__ == "__main__":
    main(sys.argv)
