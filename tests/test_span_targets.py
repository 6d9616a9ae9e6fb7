"""The benchmark's span recorder patches simdna functions by name; every
name it lists must exist where it patches it, or ``--trace 1`` runs fail."""
from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_span_targets_resolve():
    targets = _targets()
    assert targets
    for span_name, attr, owners, _note in targets:
        home = span_name.split(".")[0]
        for name in (home, *owners):
            module = importlib.import_module(f"simdna.{name}")
            assert callable(getattr(module, attr, None)), f"simdna.{name}.{attr} ({span_name})"
