"""The benchmark tracer finds every boundary name it wraps in the library,
and a traced pass still sees every layer."""
import importlib.util
import pathlib
import subprocess
import sys

import symmpoly

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    # Registered before exec_module: the dataclass decorator in workloads.py
    # looks its module up in sys.modules.
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_every_boundary():
    spans = _load("spans")
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


def test_traced_torsion_moments_sees_the_kernels(tmp_path):
    # A kernel bound where the wrappers cannot reach it drops its layer from
    # the trace and its angles from the count.
    spans = _load("spans")
    workloads = _load("workloads")
    wl = workloads.WORKLOADS["torsion-moments"]
    size = wl.sizes["tiny"]
    tracer = spans.Tracer("t")
    try:
        spans.install(tracer, symmpoly)
        out = tracer.root(lambda: wl.run(symmpoly, 7, 1, size, tmp_path))
    finally:
        tracer.restore()
    assert all(op.ok for op in wl.check(symmpoly, out, size).ops)
    layers = {layer for _, layer, _, _, _ in tracer.spans}
    assert {"polygons", "functionals.turning", "functionals.torsion"} <= layers
    # pol3 n=20: 20 + 20 angles; arm3 n=20: 19 + 18; pol2 n=40: 40; 5000 each
    assert tracer.counts["angles"] == 585_000
    assert tracer.counts["chunks"] == 6


def test_bench_selftest_passes():
    # about 5 s; writes only under the benchmark's output directory
    done = subprocess.run([sys.executable, str(BENCH / "selftest.py")],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
