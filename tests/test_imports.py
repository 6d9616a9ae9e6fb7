"""The order in which simdna's modules may import each other: each layer
imports only the layers below it (``cli`` and the package sit on top).
Every name a module or a test module imports is used, and only ``model``
spells the bytes of a register document."""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

import simdna

SRC = Path(simdna.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent

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


def _unused_imports(source: str) -> set[str]:
    """The names an ``import`` of ``source`` binds that it never reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names}
    return bound - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("module", sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__"))
def test_a_module_uses_every_name_it_imports(module):
    # ``__init__`` imports names to export them
    assert _unused_imports((SRC / f"{module}.py").read_text()) == set()


@pytest.mark.parametrize("module", sorted(p.stem for p in TESTS.glob("*.py")))
def test_a_test_module_uses_every_name_it_imports(module):
    assert _unused_imports((TESTS / f"{module}.py").read_text()) == set()


def test_the_unused_import_check_sees_every_form():
    source = "import os.path\nimport json as j\nfrom a import b, c as d\nfrom . import e\nj.dumps(b)\n"
    assert _unused_imports(source) == {"os", "d", "e"}


# the keys of a register document: ``model`` alone writes its bytes
_REGISTER_KEYS = (b"layout", b"strands", b"offset", b"tokens")


def _register_bytes(source: str) -> list[bytes]:
    """The bytes literals of ``source`` that spell a key of a register
    document."""
    return [
        node.value
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Constant) and isinstance(node.value, bytes)
        and any(key in node.value for key in _REGISTER_KEYS)
    ]


@pytest.mark.parametrize("module", sorted(p.stem for p in SRC.glob("*.py") if p.stem != "model"))
def test_only_model_spells_a_register_document_in_bytes(module):
    assert _register_bytes((SRC / f"{module}.py").read_text()) == []


def test_the_register_bytes_check_sees_every_form():
    source = 'a = b\'{"layout":\'\nb = rb"\\d+,\\"tokens\\""\nc = b"%d" % 1\nd = "offset"\n'
    assert _register_bytes(source) == [b'{"layout":', b'\\d+,\\"tokens\\"']
    assert _register_bytes((SRC / "model.py").read_text())
