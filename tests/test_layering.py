"""The package's import layers, read from each module's source.

Importing any submodule runs the package `__init__`, which imports
every module, so the layers are checked on the relative imports that
`ast` reads from each file rather than on `sys.modules`.
"""

import ast
import pathlib

import pytest

import aggchoice

PACKAGE = pathlib.Path(aggchoice.__file__).parent


def relative_imports(module: str) -> set[str]:
    """The package modules that `module` imports, by name."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:  # from . import x, y
                names.update(alias.name for alias in node.names)
            else:
                names.add(node.module.split(".")[0])
    return names


def test_lattice_sits_below_the_checks():
    assert relative_imports("lattice") <= {"errors", "model", "tolerances"}


@pytest.mark.parametrize("above", ["geometry", "simulation", "rationalize"])
def test_axioms_import_nothing_above_them(above):
    assert above not in relative_imports("axioms")


def test_the_reader_finds_both_import_forms():
    # `from . import linprog` and `from .lattice import ...`.
    assert {"linprog", "lattice", "axioms"} <= relative_imports("geometry")
