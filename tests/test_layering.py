"""Module layering: the verifier's module and the modules below the
solvers import no solver, recognizer or front end; the package ships no
public function or class that only the tests call; and no test module
keeps an import it never reads.

`coloring` holds the rules every solver shares (feasibility, the
self-check, the checked outcome), so `oracle`, `interval` and
`hardness` need nothing from `polysolve`.  The imports are read from
the source with `ast`, so an import inside a function counts too.
"""

import ast
from pathlib import Path

import pytest

import cfcolor

PACKAGE = Path(cfcolor.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
BENCH = TESTS.parent / "bench"
LOWER = ("coloring", "graph", "oracle", "interval", "hardness")
UPPER = ("polysolve", "graphclasses", "fpt", "ladder", "cli")


def imported_modules(name: str) -> set[str]:
    """The cfcolor modules `name` imports, by their short names."""
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                found.add(node.module or "")
            elif node.module:
                found.add(node.module)
            else:  # `from . import x`
                found.update(alias.name for alias in node.names)
    return {m.removeprefix("cfcolor.") for m in found}


@pytest.mark.parametrize("name", LOWER)
def test_lower_modules_import_no_solver(name):
    assert not imported_modules(name) & set(UPPER)


def test_imports_are_read():
    # the reader sees the imports it is meant to forbid
    assert {"coloring", "graphclasses"} <= imported_modules("polysolve")
    assert {"oracle", "polysolve"} <= imported_modules("fpt")
    assert "coloring" in imported_modules("hardness")


def _docstrings(tree: ast.Module) -> set[int]:
    """The ids of the docstring nodes of the module, its classes and
    its functions."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                found.add(id(first.value))
    return found


def _mentions(node: ast.AST, docstrings: set[int]) -> set[str]:
    """Every name, attribute, import alias and identifier-shaped string
    constant under `node`; `bench/spans.py` names the traced functions
    by string."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.update(sub.name.split("."))
            if sub.asname:
                found.add(sub.asname)
        elif (isinstance(sub, ast.Constant) and isinstance(sub.value, str)
              and sub.value.isidentifier() and id(sub) not in docstrings):
            found.add(sub.value)
    return found


def test_every_public_definition_is_used_outside_the_tests():
    # a top-level statement's own name does not count inside it, so a
    # recursive function is not its own caller
    defined = set()
    used = set()
    sources = sorted(PACKAGE.glob("*.py")) + sorted(BENCH.glob("*.py"))
    for path in sources:
        tree = ast.parse(path.read_text())
        docstrings = _docstrings(tree)
        for stmt in tree.body:
            names = _mentions(stmt, docstrings)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.discard(stmt.name)
                if path.parent == PACKAGE and not stmt.name.startswith("_"):
                    defined.add((path.stem, stmt.name))
            used |= names
    unused = sorted(f"{module}.{name}" for module, name in defined if name not in used)
    assert not unused, f"named only by the tests: {', '.join(unused)}"


def test_test_modules_read_every_import():
    # a top-level import that no name in its test module reads is dead;
    # `from __future__` imports switch on features and are exempt
    unused = []
    for path in sorted(TESTS.glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for stmt in tree.body:
            if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
                continue
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                for alias in stmt.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        unused.append(f"{path.name}: {name}")
    assert not unused, f"imported and never read: {', '.join(unused)}"
