"""Module layering: the verifier's module and the modules below the
solvers import no solver, recognizer or front end.

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
LOWER = ("coloring", "graph", "oracle", "interval", "hardness")
UPPER = ("polysolve", "graphclasses", "fpt", "cli")


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
