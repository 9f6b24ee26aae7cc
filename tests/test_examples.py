"""Every ``examples/*.py`` imports only names the package still has.

The examples are not run here (some take minutes); their ``repro``
imports are parsed and resolved, so deleting or renaming a public name
that an example uses fails tier-1 instead of the example.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parents[1] / "examples").glob("*.py"))


def _repro_imports(path: Path) -> list[tuple[str, str | None]]:
    """(module, name) pairs; name is None for a plain ``import repro.x``."""
    found: list[tuple[str, str | None]] = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            module = node.module or ""
            if module.split(".")[0] == "repro":
                found.extend((module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            found.extend(
                (alias.name, None)
                for alias in node.names
                if alias.name.split(".")[0] == "repro"
            )
    return found


def test_examples_exist():
    assert EXAMPLES


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_imports_resolve(path):
    imports = _repro_imports(path)
    assert imports, f"{path.name} imports nothing from repro"
    for module_name, name in imports:
        module = importlib.import_module(module_name)
        if name is None or hasattr(module, name):
            continue
        # ``from repro import exec`` style: a submodule, not an attribute.
        importlib.import_module(f"{module_name}.{name}")
