"""The benchmark tracer finds every boundary name it wraps in the library."""
import importlib.util
import pathlib

import symmpoly

SPANS = pathlib.Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_tracer_installs_on_every_boundary():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer("t")
    try:
        # a boundary name the library no longer has raises AttributeError
        spans.install(tracer, symmpoly)
        patches = list(tracer._patches)
        assert patches
        assert all(getattr(module, attr) is not orig
                   for module, attr, orig in patches)
    finally:
        tracer.restore()
    assert all(getattr(module, attr) is orig for module, attr, orig in patches)
