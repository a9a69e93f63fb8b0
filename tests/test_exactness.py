"""The exactness contract: no floats in the package outside SVG number formatting.

Every combinatorial answer is computed on Python ints and `Fraction`s. The
scan flags each use of the name `float` and each float literal in
`src/arrdepth/*.py`. Only `geometry.frac` (which parses a float input into
a rational) and `planar._fmt` (which formats an SVG coordinate) may use one.

A second scan keeps generated code out of the package: no module imports
`dataclasses` (whose classes are built by `exec` of generated source at
import), and none calls `exec` or `eval`. Records use `geometry.record`.

A third scan keeps module-global mutable caches out: no function changes a
module-level name. Per-arrangement results live on the arrangement (its
cached properties and its query record), per-call ones in locals.

A fourth scan keeps dead helpers out: every module-level function is named
somewhere in the package outside its own body, or exported by
`arrdepth/__init__.py`. Test-only code lives in `tests/` as an oracle.

A fifth scan keeps the query record `geometry`'s own: no other module names
`_slot`, `_Query` or `_keep`, so the measures reach q's state only through
`Arrangement._query` and the record's named fields.
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


# Methods that change their container in place.
MUTATORS = {"append", "extend", "insert", "remove", "update", "setdefault", "add", "discard", "clear", "pop", "popitem"}


def _root(node):
    """The name an attribute or subscript chain starts from (x for x.a[1].b)."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node


def _module_mutations(tree):
    """(function, line) of every `global` statement in a function, and of every item or
    attribute assignment, deletion and mutating method call there on a module-level name
    that the function does not bind itself."""
    module_names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            module_names.add(node.name)
            continue
        for sub in ast.walk(node):
            if isinstance(sub, (ast.Import, ast.ImportFrom)):
                module_names.update((a.asname or a.name).split(".")[0] for a in sub.names)
            elif isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
                module_names.add(sub.id)

    def functions(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield child
            elif isinstance(child, ast.ClassDef):
                yield from functions(child)

    found = []
    for func in functions(tree):
        nodes = list(ast.walk(func))
        local = {n.arg for n in nodes if isinstance(n, ast.arg)}
        local |= {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, (ast.Store, ast.Del))}
        for node in nodes:
            if isinstance(node, ast.Global):
                found.append((func.name, node.lineno))
                continue
            if isinstance(node, (ast.Attribute, ast.Subscript)) and isinstance(node.ctx, (ast.Store, ast.Del)):
                target = _root(node)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in MUTATORS:
                target = _root(node.func.value)
            else:
                continue
            if isinstance(target, ast.Name) and target.id in module_names and target.id not in local:
                found.append((func.name, node.lineno))
    return sorted(found, key=lambda item: item[1])


def test_scanner_sees_module_mutations():
    src = (
        "import json\nCACHE = {}\nSEEN = []\nif True:\n    TABLE = [[0]]\n\n"
        "def f(a):\n    CACHE[a] = 1\n    SEEN.append(a)\n    CACHE.setdefault(a, 2)\n"  # lines 8-10
        "    json.cache = a\n    TABLE[0][0] = a\n    del CACHE[a]\n"  # lines 11-13
        "def g(CACHE):\n    CACHE[1] = 2\n    memo = {}\n    memo.update(x=1)\n    return SEEN.count(1)\n"
        "class C:\n    def m(self):\n        global Z\n        Z = 1\n"  # line 21
        "        def inner():\n            SEEN.clear()\n            TABLE.pop()\n            CACHE.add(1)\n"  # 24-26
    )
    assert _module_mutations(ast.parse(src)) == [
        ("f", 8), ("f", 9), ("f", 10), ("f", 11), ("f", 12), ("f", 13), ("m", 21), ("m", 24), ("m", 25), ("m", 26)
    ]


def test_no_module_level_state_changes_in_the_package():
    package = Path(arrdepth.__file__).parent
    offending = []
    for path in sorted(package.glob("*.py")):
        for func, line in _module_mutations(ast.parse(path.read_text())):
            offending.append(f"{path.name}:{line} in {func}")
    assert offending == []


def _dead_helpers(trees, exported):
    """(module, function) of every module-level function of ``trees`` ({module: ast}) that no code
    outside its own body names, as a name, an attribute or an imported name, and that is not in
    ``exported``. Dunders and `_cmd_*` subcommand handlers are exempt."""
    named = {}  # name -> ids of the function bodies (None for module level) it is named in
    for tree in trees.values():

        def visit(node, body):
            if isinstance(node, ast.Name):
                named.setdefault(node.id, set()).add(body)
            elif isinstance(node, ast.Attribute):
                named.setdefault(node.attr, set()).add(body)
            elif isinstance(node, ast.alias):
                named.setdefault(node.name, set()).add(body)
            for child in ast.iter_child_nodes(node):
                visit(child, id(child) if body is None and isinstance(child, ast.FunctionDef) else body)

        visit(tree, None)
    found = []
    for module, tree in trees.items():
        for func in tree.body:
            if not isinstance(func, ast.FunctionDef) or func.name in exported:
                continue
            if (func.name.startswith("__") and func.name.endswith("__")) or func.name.startswith("_cmd_"):
                continue
            if not named.get(func.name, set()) - {id(func)}:
                found.append((module, func.name))
    return found


def test_scanner_sees_dead_helpers():
    trees = {
        "a": ast.parse(
            "def used():\n    pass\n\ndef dead(n):\n    return dead(n - 1)\n\ndef _cmd_run():\n    pass\n\n"
            "def __getattr__(name):\n    pass\n\ndef public():\n    pass\n\ndef by_attr():\n    pass\n\n"
            "def by_import():\n    pass\n\nclass C:\n    def method(self):\n        return used()\n"
        ),
        "b": ast.parse("from .a import by_import\nfrom . import a\n\ndef unused():\n    return a.by_attr()\n"),
    }
    assert _dead_helpers(trees, {"public"}) == [("a", "dead"), ("b", "unused")]


def test_no_dead_helpers_in_the_package():
    package = Path(arrdepth.__file__).parent
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    exported = {name for names in arrdepth._EXPORTS.values() for name in names}
    assert _dead_helpers(trees, exported) == []


# What only `geometry` may know of an arrangement's query record.
RECORD_INTERNALS = {"_slot", "_Query", "_keep"}


def _record_internals(tree):
    """Lines that name one of RECORD_INTERNALS: as a name, an attribute, an imported name or a string."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name
        elif isinstance(node, ast.Constant):
            name = node.value
        else:
            continue
        if name in RECORD_INTERNALS:
            found.append(node.lineno)
    return sorted(set(found))


def test_scanner_sees_record_internals():
    src = (
        "from .geometry import _Query\n"  # line 1
        "def f(arr, q):\n    slot = arr._query(q)\n    return slot.pos, arr._slot\n"  # line 4
        "def g(arr):\n    return vars(arr)['_slot'], getattr(arr, '_keep'), _Query\n"  # line 6
    )
    assert _record_internals(ast.parse(src)) == [1, 4, 6]


def test_only_geometry_knows_the_query_record():
    package = Path(arrdepth.__file__).parent
    offending = []
    for path in sorted(package.glob("*.py")):
        if path.stem != "geometry":
            offending += [f"{path.name}:{line}" for line in _record_internals(ast.parse(path.read_text()))]
    assert offending == []
