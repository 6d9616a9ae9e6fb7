"""The order in which simdna's modules may import each other: each layer
imports only the layers below it (``cli`` and the package sit on top)."""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

import simdna

SRC = Path(simdna.__file__).resolve().parent

# module -> the simdna modules it may import
BELOW = {
    "model": set(),
    "tm": {"model"},
    "engine": {"model"},
    "render": {"model", "engine"},
    "compiler": {"model", "engine", "tm"},
}


def _simdna_imports(module: str) -> set[str]:
    """The simdna modules that ``module``'s source imports, at any depth."""
    found = set()
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            # ``from .x import ...`` names module x; ``from . import x, y``
            # names x and y
            found |= {node.module} if node.module else {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "simdna":
            parts = node.module.split(".")
            found |= {parts[1]} if len(parts) > 1 else {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            found |= {a.name.split(".")[1] for a in node.names if a.name.startswith("simdna.")}
    return found


@pytest.mark.parametrize("module", sorted(BELOW))
def test_a_module_imports_only_the_layers_below_it(module):
    assert _simdna_imports(module) <= BELOW[module]


def test_the_import_check_sees_every_form():
    # the layers above do import what the check looks for
    assert _simdna_imports("cli") >= {"model", "engine", "tm", "compiler", "render"}
    assert _simdna_imports("compiler") == {"model", "engine", "tm"}
