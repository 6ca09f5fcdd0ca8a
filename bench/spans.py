"""In-memory span tracing around symmpoly's layer boundaries.

The benchmark traces the library from the outside: it replaces, for the
length of one traced pass, the names each module uses to call into the next
layer (``ensembles.space_edges_batch``, ``verify.estimate_tv``, ...) with
wrappers that record a span and update counts. No library file changes.

A span is (name, layer, start, end, parent, run id). A layer's self time is
the time of its spans minus the time their direct child spans cover, so the
self times of all layers add up to the root span, the traced pass.

Boundaries are looked up by name: a name the library no longer has raises
AttributeError when the wrappers are installed, and a count hook that
raises fails the library call it wraps, so a layer cannot drop silently out
of the trace.
"""
from __future__ import annotations

import collections
import json
import math
import statistics
import time

# Layers whose self times partition the traced pass.
LAYERS = ("bench", "verify", "ensembles", "ensembles.histogram",
          "ensembles.bootstrap", "polygons", "functionals.turning",
          "functionals.torsion", "haar", "densities", "bounds", "io", "cli")

# Per-chunk medians are taken on full chunks of this shape only, the shape
# the ROADMAP baseline was measured at.
BASE_CHUNK = 4096
BASE_N = 100
BASE_HAAR_N = 10

# The bounds and densities functions verify and the workloads call.
BOUNDS_FUNCTIONS = ("b2", "b3", "ortho_block_bound", "sphere_marginal_bound",
                    "unitary_block_bound", "asymptotic_slope", "alpha_threshold",
                    "curvature_variance_bound", "torsion_variance_bound",
                    "chebyshev_interval")
DENSITIES_FUNCTIONS = ("block_density", "ratio_profile")


def _arg(args, kwargs, index, name):
    if len(args) > index:
        return args[index]
    return kwargs[name]


class Tracer:
    """Spans and counts of one traced pass, kept in memory until written."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []          # [name, layer, start, end, parent index]
        self.counts = collections.Counter()
        self.chunk_ms = collections.defaultdict(list)
        self._stack = []
        self._patches = []
        self._streams = set()

    # -- recording ---------------------------------------------------------

    def _open(self, name: str, layer: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [name, layer, time.perf_counter(), None, parent]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[3] = time.perf_counter()
        self._stack.pop()

    def root(self, fn):
        """Run fn() as the root span of the pass and return its result."""
        rec = self._open("bench.pass", "bench")
        try:
            return fn()
        finally:
            self._close(rec)

    def wrap(self, module, attr: str, name: str, layer: str, hook=None,
             collapse: bool = False) -> None:
        """Replace module.attr by a recording wrapper until restore().

        hook(tracer, args, kwargs, result, seconds) updates counts after the
        call. With collapse, a call made from inside a span of the same
        layer records nothing (recursion within one layer).
        """
        orig = getattr(module, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if collapse and stack and tracer.spans[stack[-1]][1] == layer:
                return orig(*args, **kwargs)
            rec = tracer._open(name, layer)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer._close(rec)
            if hook is not None:
                hook(tracer, args, kwargs, result, rec[3] - rec[2])
            return result

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, orig))

    def restore(self) -> None:
        for module, attr, orig in reversed(self._patches):
            setattr(module, attr, orig)
        self._patches.clear()

    def draw(self, key) -> None:
        """Count one draw of a random stream; a repeated key is a redraw."""
        self.counts["stream_draws"] += 1
        if key in self._streams:
            self.counts["stream_redraws"] += 1
        self._streams.add(key)

    # -- analysis ----------------------------------------------------------

    def self_times(self):
        """(per-span self seconds, per-layer self seconds)."""
        child = [0.0] * len(self.spans)
        for name, layer, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        per_span = [end - start - child[i]
                    for i, (_, _, start, end, _) in enumerate(self.spans)]
        per_layer = dict.fromkeys(LAYERS, 0.0)
        for (_, layer, _, _, _), s in zip(self.spans, per_span):
            per_layer[layer] += s
        return per_span, per_layer

    def wall(self) -> float:
        """Duration of the root span."""
        root = self.spans[0]
        return root[3] - root[2]

    def dump(self, path) -> None:
        """Write spans (times relative to the root start) and counts as JSON."""
        t0 = self.spans[0][2] if self.spans else 0.0
        payload = {
            "run_id": self.run_id,
            "fields": ["name", "layer", "start_s", "end_s", "parent"],
            "spans": [[n, l, s - t0, e - t0, p] for n, l, s, e, p in self.spans],
            "counts": dict(self.counts),
            "chunk_ms": dict(self.chunk_ms),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


# -- count hooks ------------------------------------------------------------

def _on_edges(t: Tracer, args, kwargs, result, seconds):
    count = _arg(args, kwargs, 1, "count")
    space = _arg(args, kwargs, 2, "space")
    n = _arg(args, kwargs, 3, "n")
    edges = count * n
    t.counts["samples_drawn"] += count
    t.counts["edges_drawn"] += edges
    t.counts["bytes_out"] += edges * (2 if space.endswith("2") else 3) * 8
    if count == BASE_CHUNK and n == BASE_N:
        t.chunk_ms[f"polygons.{space}"].append(1e3 * seconds)


def _on_eval_chunk(t: Tracer, args, kwargs, result, seconds):
    _space, n, _seed, _sid, _chunk, count, task = args[0]
    t.counts["chunks"] += 1
    t.counts["edges_read"] += count * (task[1] if task[0] == "segments" else n)


def _on_chunk_functionals(t: Tracer, args, kwargs, result, seconds):
    t.counts["excluded"] += int(result[1])


def _kernel_hook(kind: str):
    def hook(t: Tracer, args, kwargs, result, seconds):
        edges = _arg(args, kwargs, 0, "edges")
        t.counts["angles"] += int(result[0].size)
        if edges.shape[:2] == (BASE_CHUNK, BASE_N):
            t.chunk_ms[f"functionals.{kind}"].append(1e3 * seconds)
    return hook


def _on_run_chunks(t: Tracer, args, kwargs, result, seconds):
    # The runner opens a pool whenever it has more than one chunk and more
    # than one worker; the traced pass runs at one worker, so count the
    # pools the same call opens at the timed worker count.
    if len(result) > 1:
        t.counts["pool_starts"] += 1
    t.draw((_arg(args, kwargs, 3, "seed"), _arg(args, kwargs, 4, "stream_id")))


def _on_block_gram(t: Tracer, args, kwargs, result, seconds):
    t.draw((_arg(args, kwargs, 0, "seed"), _arg(args, kwargs, 1, "stream_id")))


def _on_haar(t: Tracer, args, kwargs, result, seconds):
    count = _arg(args, kwargs, 1, "count")
    t.counts["unitaries"] += count
    if count == BASE_CHUNK and _arg(args, kwargs, 2, "n") == BASE_HAAR_N:
        t.chunk_ms["haar"].append(1e3 * seconds)


def install(tracer: Tracer, sp) -> None:
    """Wrap every layer boundary of the symmpoly package ``sp``."""
    ens, ver, cli = sp.ensembles, sp.verify, sp.cli
    w = tracer.wrap
    # bench -> library entry points
    w(ver, "run_verify", "verify.run_verify", "verify")
    w(cli, "run", "cli.run", "cli")
    # verify -> ensembles / haar / densities / bounds
    w(ver, "functional_samples", "verify.functional_samples", "ensembles")
    w(ver, "estimate_tv", "verify.estimate_tv", "ensembles.histogram")
    w(ver, "covariance_partition", "verify.covariance_partition", "ensembles")
    w(ver, "bootstrap_se", "verify.bootstrap_se", "ensembles.bootstrap")
    w(ver, "bootstrap_stat_se", "verify.bootstrap_stat_se", "ensembles.bootstrap")
    w(ver, "chebyshev_coverage", "verify.chebyshev_coverage", "ensembles")
    w(ver, "ks_distance", "verify.ks_distance", "ensembles")
    w(ver, "_block_gram_scalars", "verify._block_gram_scalars", "verify",
      hook=_on_block_gram)
    w(ver, "_haar_unitary_batch", "verify._haar_unitary_batch", "haar",
      hook=_on_haar)
    for fn in DENSITIES_FUNCTIONS:
        w(sp.densities, fn, f"densities.{fn}", "densities", collapse=True)
    for fn in BOUNDS_FUNCTIONS:
        w(sp.bounds, fn, f"bounds.{fn}", "bounds", collapse=True)
    # cli -> ensembles / io
    w(cli, "segment_samples", "cli.segment_samples", "ensembles")
    w(cli, "write_ensemble", "cli.write_ensemble", "io", collapse=True)
    w(sp.io, "polygon_record_line", "io.polygon_record_line", "io", collapse=True)
    # ensembles -> chunk runner -> polygons / functionals
    w(ens, "functional_samples", "ensembles.functional_samples", "ensembles")
    w(ens, "estimate_tv", "ensembles.estimate_tv", "ensembles.histogram")
    w(ens, "segment_samples", "ensembles.segment_samples", "ensembles")
    w(ens, "_run_chunks", "ensembles._run_chunks", "ensembles",
      hook=_on_run_chunks)
    w(ens, "_eval_chunk", "ensembles._eval_chunk", "ensembles",
      hook=_on_eval_chunk)
    w(ens, "_chunk_functionals", "ensembles._chunk_functionals", "ensembles",
      hook=_on_chunk_functionals)
    w(ens, "space_edges_batch", "ensembles.space_edges_batch", "polygons",
      hook=_on_edges)
    w(ens, "_batch_turning", "ensembles._batch_turning", "functionals.turning",
      hook=_kernel_hook("turning"))
    w(ens, "_batch_torsion", "ensembles._batch_torsion", "functionals.torsion",
      hook=_kernel_hook("torsion"))


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def per_layer_metrics(tracer: Tracer, untraced_w1: float, untraced_w2: float,
                      io_counts) -> dict:
    """Per-layer metric values (name -> (value, unit)) of one traced pass."""
    _, layer = tracer.self_times()
    c = tracer.counts
    edges_drawn = c["edges_drawn"]
    m = {
        "polygons.sample_s": (layer["polygons"], "s"),
        "polygons.edges_drawn": (edges_drawn, "count"),
        "polygons.edge_yield": (c["edges_read"] / edges_drawn if edges_drawn else 0.0,
                                "ratio"),
        "polygons.bytes_out": (c["bytes_out"], "bytes"),
    }
    for space in ("arm2", "pol2", "arm3", "pol3"):
        m[f"polygons.chunk_ms.{space}"] = (_median(tracer.chunk_ms[f"polygons.{space}"]), "ms")
    m.update({
        "functionals.turning_s": (layer["functionals.turning"], "s"),
        "functionals.torsion_s": (layer["functionals.torsion"], "s"),
        "functionals.turning_chunk_ms": (_median(tracer.chunk_ms["functionals.turning"]), "ms"),
        "functionals.torsion_chunk_ms": (_median(tracer.chunk_ms["functionals.torsion"]), "ms"),
        "functionals.angles": (c["angles"], "count"),
        "functionals.excluded": (c["excluded"], "count"),
        "ensembles.self_s": (layer["ensembles"], "s"),
        "ensembles.pool_starts": (c["pool_starts"], "count"),
        "ensembles.chunks": (c["chunks"], "count"),
        "ensembles.histogram_s": (layer["ensembles.histogram"], "s"),
        "ensembles.bootstrap_s": (layer["ensembles.bootstrap"], "s"),
        "ensembles.parallel_efficiency": (untraced_w1 / (2.0 * untraced_w2), "ratio"),
        "verify.self_s": (layer["verify"], "s"),
        "verify.stream_draws": (c["stream_draws"], "count"),
        "verify.stream_redraws": (c["stream_redraws"], "count"),
        "haar.unitary_s": (layer["haar"], "s"),
        "haar.unitaries": (c["unitaries"], "count"),
        "haar.chunk_ms": (_median(tracer.chunk_ms["haar"]), "ms"),
        "densities.s": (layer["densities"], "s"),
        "bounds.s": (layer["bounds"], "s"),
        "io.write_s": (layer["io"], "s"),
        "io.records": (io_counts.get("records", 0), "count"),
        "io.bytes": (io_counts.get("bytes", 0), "bytes"),
        "cli.self_s": (layer["cli"], "s"),
        "bench.self_s": (layer["bench"], "s"),
        "trace.wall_s": (tracer.wall(), "s"),
        "trace.untraced_wall_s": (untraced_w1, "s"),
        "trace.overhead_s": (tracer.wall() - untraced_w1, "s"),
        "trace.spans": (len(tracer.spans), "count"),
    })
    return m


def check_self_times(tracer: Tracer, outer_wall: float):
    """Problems with the span tree; empty when self times are consistent.

    Every self time must be non-negative, and the layer self times must add
    up to the root span, which in turn must match the pass wall time the
    caller measured around it.
    """
    problems = []
    per_span, per_layer = tracer.self_times()
    worst = min(per_span) if per_span else 0.0
    if worst < -1e-6:
        problems.append(f"negative span self time {worst:.3g} s")
    negative = [k for k, v in per_layer.items() if v < -1e-6]
    if negative:
        problems.append(f"negative layer self time in {negative}")
    total = sum(per_layer.values())
    if not math.isclose(total, tracer.wall(), rel_tol=1e-9, abs_tol=1e-6):
        problems.append(f"layer self times add to {total:.6f} s, "
                        f"root span is {tracer.wall():.6f} s")
    if not math.isclose(tracer.wall(), outer_wall, rel_tol=0.01, abs_tol=0.005):
        problems.append(f"root span {tracer.wall():.6f} s differs from the "
                        f"measured pass {outer_wall:.6f} s")
    if any(rec[3] is None for rec in tracer.spans):
        problems.append("unclosed span")
    return problems


# Counts that must repeat exactly between two traced passes of one input.
REPEATABLE_COUNTS = ("edges_drawn", "chunks", "pool_starts", "stream_redraws",
                     "excluded")
