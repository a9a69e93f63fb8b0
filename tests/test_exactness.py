"""The exactness contract: no floats in the package outside SVG number formatting.

Every combinatorial answer is computed on Python ints and `Fraction`s. The
scan flags each use of the name `float` and each float literal in
`src/arrdepth/*.py`. Only `geometry.frac` (which parses a float input into
a rational) and `planar._fmt` (which formats an SVG coordinate) may use one.

A second scan keeps generated code out of the package: no module imports
`dataclasses` (whose classes are built by `exec` of generated source at
import), and none calls `exec` or `eval`. Records use `geometry.record`.
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


def _generated_code_uses(tree):
    """(what, line) of every import of `dataclasses` and every call of `exec` or `eval`."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [("import dataclasses", node.lineno) for a in node.names if a.name.split(".")[0] == "dataclasses"]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "dataclasses":
            found.append(("import dataclasses", node.lineno))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in ("exec", "eval"):
            found.append((node.func.id, node.lineno))
    return sorted(found, key=lambda item: item[1])


def test_scanner_sees_generated_code():
    src = (
        "import dataclasses\nfrom dataclasses import dataclass\nimport dataclasses as dc, json\n"
        "from . import dataclasses_free\nexec('x = 1')\ny = eval('2')\nliteral_eval('3')\n"
    )
    assert _generated_code_uses(ast.parse(src)) == [
        ("import dataclasses", 1),
        ("import dataclasses", 2),
        ("import dataclasses", 3),
        ("exec", 5),
        ("eval", 6),
    ]


def test_no_dataclasses_exec_or_eval_in_the_package():
    package = Path(arrdepth.__file__).parent
    offending = []
    for path in sorted(package.glob("*.py")):
        for what, line in _generated_code_uses(ast.parse(path.read_text())):
            offending.append(f"{path.name}:{line} {what}")
    assert offending == []
