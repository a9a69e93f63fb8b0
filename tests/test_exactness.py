"""The exactness contract: no floats in the package outside SVG number formatting.

Every combinatorial answer is computed on Python ints and `Fraction`s. The
scan flags each use of the name `float` and each float literal in
`src/arrdepth/*.py`. Only `geometry.frac` (which parses a float input into
a rational) and `planar._fmt` (which formats an SVG coordinate) may use one.
"""

import ast
from pathlib import Path

import arrdepth

ALLOWED = {("geometry", "frac"), ("planar", "_fmt")}


def _float_uses(tree):
    """(outermost enclosing function or None, line) of every `float` name and float literal."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and func is None:
            func = node.name
        if (isinstance(node, ast.Name) and node.id == "float") or (
            isinstance(node, ast.Constant) and isinstance(node.value, (float, complex))
        ):
            found.append((func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_scanner_sees_floats():
    src = "X = 1e-9\n\ndef f(x):\n    return float(x) / 2.0\n"
    assert _float_uses(ast.parse(src)) == [(None, 1), ("f", 4), ("f", 4)]


def test_no_floats_outside_svg_formatting():
    package = Path(arrdepth.__file__).parent
    offending = []
    for path in sorted(package.glob("*.py")):
        for func, line in _float_uses(ast.parse(path.read_text())):
            if (path.stem, func) not in ALLOWED:
                offending.append(f"{path.name}:{line} in {func}")
    assert offending == []
