"""Print the code lines of each module of src/eightvertex and their total.

A code line is a non-blank line that is neither a comment nor part of a
module, class or function docstring.  Docstrings are found through
``ast`` (the string expression that opens a module, class or function
body); comments are the lines whose text starts with '#'.

Usage: python3 scripts/code_lines.py
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "eightvertex"
_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set:
    """The line numbers covered by the docstrings in tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _OWNERS) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: pathlib.Path) -> int:
    text = path.read_text(encoding="utf-8")
    skip = docstring_lines(ast.parse(text))
    return sum(1 for n, line in enumerate(text.splitlines(), 1)
               if n not in skip and line.strip()
               and not line.lstrip().startswith("#"))


def main() -> None:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        n = code_lines(path)
        total += n
        print(f"{n:6d}  {path.name}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main()
