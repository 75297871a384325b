"""Every private module-level name in src/polypack has a use.

A module-level function, class or assignment whose name starts with "_"
(a dunder such as `__version__` aside) is the package's own; one that is named nowhere in src/polypack outside its
own definition is dead code, and this test names it.  So is a name that a
module imports at module level and never uses.
"""

import ast
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "polypack"


def _private_definitions(tree):
    """(name, first line, last line) per private module-level definition."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.endswith("__"):
                yield name, node.lineno, node.end_lineno


def _references(tree):
    """(name, line) per name, attribute, import or global statement."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            yield from ((name, node.lineno) for name in node.names)


def _definitions_and_references():
    trees = {p.name: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}
    refs = defaultdict(list)
    for module, tree in trees.items():
        for name, line in _references(tree):
            refs[name].append((module, line))
    defs = [(module, *d) for module, tree in trees.items() for d in _private_definitions(tree)]
    return defs, refs


def test_definitions_found():
    defs, _ = _definitions_and_references()
    assert any(name == "_program" for _, name, _, _ in defs)


def test_every_private_name_has_a_use():
    defs, refs = _definitions_and_references()
    dead = [f"{module}:{lo} {name}" for module, name, lo, hi in defs
            if all(m == module and lo <= line <= hi for m, line in refs[name])]
    assert dead == []


# Imported for others to find by name: perfbench's tracer hooks
# `polypack.runtime.iter_point_chunks` (see test_traced_names.py).
KEPT_IMPORTS = {("runtime.py", "iter_point_chunks")}


def test_every_import_has_a_use():
    unused = []
    for p in sorted(SRC.glob("*.py")):
        tree = ast.parse(p.read_text(), str(p))
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used and (p.name, name) not in KEPT_IMPORTS:
                        unused.append(f"{p.name}:{node.lineno} {name}")
    assert unused == []


# Each reach of one module into another's private names, as (importing
# module, source module, name).  A new one fails the test below: make the
# name public, or pin it here with the reason it must stay private.
PINNED_PRIVATE_IMPORTS = {
    ("cli", "runtime", "_frac"),
    ("indexing", "polyhedra", "_empty_cache"),
    ("indexing", "codegen", "_program"),
    ("runtime", "codegen", "_AXIS_EXTENT"),
    ("runtime", "codegen", "_c_library"),
    ("runtime", "codegen", "_check_int64"),
    ("runtime", "codegen", "_lowered"),
    ("runtime", "codegen", "_run"),
    ("stur", "polyhedra", "_refine_box"),
}


def test_private_imports_are_pinned():
    found = set()
    for p in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(p.read_text(), str(p))):   # nested imports too
            if isinstance(node, ast.ImportFrom) and node.level:
                found.update((p.stem, node.module, alias.name) for alias in node.names
                             if alias.name.startswith("_"))
    assert found == PINNED_PRIVATE_IMPORTS
