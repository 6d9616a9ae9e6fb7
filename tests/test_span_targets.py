"""The benchmark's span recorder patches simdna functions by name; every
name it lists must exist where it patches it, and the spans its required
per-layer metrics read must be recorded, or ``--trace 1`` runs fail."""
from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_span_targets_resolve():
    targets = _spans().TARGETS
    assert targets
    for span_name, attr, owners, _note in targets:
        home = span_name.split(".")[0]
        for name in (home, *owners):
            module = importlib.import_module(f"simdna.{name}")
            assert callable(getattr(module, attr, None)), f"simdna.{name}.{attr} ({span_name})"


def test_engine_run_records_the_per_layer_spans(increment_spec, increment_compiled_s3):
    """``model.validate_us`` of the engine workloads comes only from the
    engine's entry ``validate_state``, called through the engine's own
    namespace, as ``applicable_reactions`` is."""
    from simdna import cli, compiler, engine, model, render, tm
    from simdna.tm import TMConfig

    cp = increment_compiled_s3
    reg, _ = compiler.encode_config(increment_spec, cp.scheme, TMConfig(("0", "1", "_"), 1, "a"), 3)
    recorder = _spans().SpanRecorder()
    recorder.install(
        {"cli": cli, "compiler": compiler, "engine": engine, "model": model, "render": render, "tm": tm}
    )
    try:
        engine.run_many([reg], cp.program)
    finally:
        recorder.uninstall()
    recorded = recorder.summary()
    for name in ("model.validate_state", "engine.applicable_reactions", "engine.run_instruction"):
        assert recorded.get(name, {}).get("calls"), name
