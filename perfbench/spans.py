"""Spans around flowcomplete's public functions, recorded from outside.

`Tracer.install()` replaces each traced function on every flowcomplete
module attribute that holds it, because callers resolve the name in their
own module: `nearest_neighbor_map` is imported by name into `coupling`,
`objective` and `field`, and `geometry`'s chamfer helpers call it too.
Nothing under `src/` changes, and `uninstall()` puts the originals back.

Time the wrappers spend on their own bookkeeping and on the NN oracle is
taken off the span clock, so every span and self time is net of tracing;
that excluded time is the tracing overhead.
"""
from __future__ import annotations

import functools
import importlib
import os
import time
from dataclasses import dataclass, field

import numpy as np

# (module, function, span name). The span name is the layer metric prefix.
TRACED = (
    ("geometry", "nearest_neighbor_map", "geometry.nn_map"),
    ("geometry", "farthest_point_sample", "geometry.farthest_point_sample"),
    ("geometry", "voxelize", "geometry.voxelize"),
    ("geometry", "bev_histogram", "geometry.bev_histogram"),
    ("scenes", "generate_scene", "scenes.generate_scene"),
    ("scenes", "simulate_scan", "scenes.simulate_scan"),
    ("cloud_io", "write_cloud", "cloud_io.write_cloud"),
    ("cloud_io", "read_cloud", "cloud_io.read_cloud"),
    ("coupling", "noisy_initial_cloud", "coupling.noisy_initial_cloud"),
    ("coupling", "nearest_neighbor_flow", "coupling.nearest_neighbor_flow"),
    ("objective", "total_loss_grad", "objective.total_loss_grad"),
    ("objective", "flow_matching_loss_grad", "objective.flow_matching_loss_grad"),
    ("objective", "chamfer_loss_grad", "objective.chamfer_loss_grad"),
    ("field", "condition_feature_matrix", "field.condition_feature_matrix"),
    ("field", "loss_and_grad", "field.loss_and_grad"),
    ("field", "forward", "field.forward"),
    ("field", "train_batch", "field.train_batch"),
    ("field", "apply_gradient", "field.apply_gradient"),
    ("field", "ema_update", "field.ema_update"),
    ("field", "save_checkpoint", "field.save_checkpoint"),
    ("field", "load_checkpoint", "field.load_checkpoint"),
    ("sampler", "guided_field", "sampler.guided_field"),
    ("sampler", "euler_integrate", "sampler.euler_integrate"),
    ("metrics", "eval_chamfer", "metrics.eval_chamfer"),
    ("metrics", "eval_voxel_iou", "metrics.eval_voxel_iou"),
    ("metrics", "eval_bev_jsd", "metrics.eval_bev_jsd"),
)

MODULES = ("geometry", "scenes", "cloud_io", "coupling", "objective", "field",
           "sampler", "metrics", "config", "cli")

NN_SPAN = "geometry.nn_map"
# The fixed-cloud call sites of the NN map, keyed by the enclosing span.
NN_CALL_SITES = {
    "coupling.nearest_neighbor_flow": "coupling",
    "objective.chamfer_loss_grad": "objective",
    "field.condition_feature_matrix": "field",
    "metrics.eval_chamfer": "metrics",
}
ORACLE_ROWS = 32


@dataclass(eq=False)
class Span:
    name: str
    start: float = 0.0
    end: float = 0.0
    parent: "Span | None" = field(default=None, repr=False)
    children: list = field(default_factory=list, repr=False)
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_time(span: Span) -> float:
    """Span duration minus the part of it that child spans cover."""
    covered = 0.0
    run_start = run_end = None
    for s, e in sorted((max(c.start, span.start), min(c.end, span.end))
                       for c in span.children):
        if e <= s:
            continue
        if run_end is None or s > run_end:
            if run_end is not None:
                covered += run_end - run_start
            run_start, run_end = s, e
        else:
            run_end = max(run_end, e)
    if run_end is not None:
        covered += run_end - run_start
    return span.duration - covered


def walk(spans):
    stack = list(spans)
    while stack:
        span = stack.pop()
        yield span
        stack.extend(span.children)


def exhaustive_nearest(query: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Lowest-index nearest target row for each query row, by full scan."""
    d2 = ((query[:, None, :] - target[None, :, :]) ** 2).sum(axis=2)
    best = d2.min(axis=1, keepdims=True)
    return np.array([np.flatnonzero(row)[0] for row in d2 == best],
                    dtype=np.int64)


class Tracer:
    """Span recorder plus the counters and checks hung on the spans."""

    def __init__(self, seed: int):
        self.roots: list[Span] = []
        self.excluded_s = 0.0
        self.enabled = True
        self.oracle_checked = 0
        self.oracle_mismatches = 0
        self._stack: list[Span] = []
        self._rng = np.random.default_rng([seed, 0x0AC1E])
        self._patches = []

    def now(self) -> float:
        """Span clock: wall time with the tracer's own time taken off."""
        return time.perf_counter() - self.excluded_s

    @property
    def current(self) -> Span | None:
        return self._stack[-1] if self._stack else None

    def open(self, name: str) -> Span:
        span = Span(name, parent=self.current)
        (span.parent.children if span.parent else self.roots).append(span)
        self._stack.append(span)
        span.start = self.now()
        return span

    def close(self, span: Span) -> None:
        span.end = self.now()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def wrap(self, name: str, fn):
        after = {NN_SPAN: self._after_nn_map,
                 "cloud_io.write_cloud": _after_cloud_io,
                 "cloud_io.read_cloud": _after_cloud_io}.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            entered = time.perf_counter()
            span = self.open(name)
            begun = time.perf_counter()
            self.excluded_s += begun - entered
            span.start = begun - self.excluded_s
            try:
                result = fn(*args, **kwargs)
            finally:
                finished = time.perf_counter()
                span.end = finished - self.excluded_s
                self._stack.pop()
            if after is not None:
                after(span, args, result)
            self.excluded_s += time.perf_counter() - finished
            return result
        return traced

    def _after_nn_map(self, span: Span, args, result) -> None:
        query = np.asarray(args[0], dtype=np.float64).reshape(-1, 3)
        target = np.asarray(args[1], dtype=np.float64).reshape(-1, 3)
        span.attrs["query_rows"] = len(query)
        span.attrs["target_rows"] = len(target)
        if len(query) == 0:
            return
        rows = self._rng.choice(len(query), size=min(ORACLE_ROWS, len(query)),
                                replace=False)
        expected = exhaustive_nearest(query[rows], target)
        self.oracle_checked += len(rows)
        self.oracle_mismatches += int(np.count_nonzero(expected != result[rows]))

    def install(self) -> None:
        """Wrap every TRACED function wherever a package module holds it."""
        modules = {m: importlib.import_module(f"flowcomplete.{m}") for m in MODULES}
        for module_name, attr, span_name in TRACED:
            original = getattr(modules[module_name], attr)
            wrapper = self.wrap(span_name, original)
            for module in modules.values():
                if getattr(module, attr, None) is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()


def _after_cloud_io(span: Span, args, result) -> None:
    span.attrs["bytes"] = os.path.getsize(args[1] if span.name.endswith("write_cloud")
                                          else args[0])


def nn_call_site(span: Span) -> str:
    ancestor = span.parent
    while ancestor is not None:
        if ancestor.name in NN_CALL_SITES:
            return NN_CALL_SITES[ancestor.name]
        ancestor = ancestor.parent
    return "other"


def layer_metrics(tracer: Tracer, iterations: int) -> dict:
    """Per-layer totals per pipeline iteration: {name: (value, unit)}."""
    calls, total_ms, self_ms = {}, {}, {}
    nn_rows = {"query_rows": 0, "target_rows": 0}
    nn_site_ms = {site: 0.0 for site in NN_CALL_SITES.values()}
    io_bytes = 0
    for span in walk(tracer.roots):
        calls[span.name] = calls.get(span.name, 0) + 1
        total_ms[span.name] = total_ms.get(span.name, 0.0) + 1e3 * span.duration
        self_ms[span.name] = self_ms.get(span.name, 0.0) + 1e3 * self_time(span)
        if span.name == NN_SPAN:
            for key in nn_rows:
                nn_rows[key] += span.attrs[key]
            site = nn_call_site(span)
            nn_site_ms[site] = nn_site_ms.get(site, 0.0) + 1e3 * span.duration
        io_bytes += span.attrs.get("bytes", 0)

    per = 1.0 / iterations
    out = {}

    def put(name, value, unit):
        out[name] = (value * per, unit)

    put(f"{NN_SPAN}.calls", calls.get(NN_SPAN, 0), "count")
    put(f"{NN_SPAN}.ms", total_ms.get(NN_SPAN, 0.0), "ms")
    put(f"{NN_SPAN}.query_rows", nn_rows["query_rows"], "rows")
    put(f"{NN_SPAN}.target_rows", nn_rows["target_rows"], "rows")
    for site, ms in nn_site_ms.items():
        put(f"{NN_SPAN}.{site}.ms", ms, "ms")
    out[f"{NN_SPAN}.oracle_mismatches"] = (tracer.oracle_mismatches, "count")
    out[f"{NN_SPAN}.oracle_rows"] = (tracer.oracle_checked, "count")
    for name in ("geometry.farthest_point_sample", "geometry.voxelize",
                 "geometry.bev_histogram", "scenes.simulate_scan",
                 "scenes.generate_scene", "cloud_io.write_cloud",
                 "cloud_io.read_cloud", "coupling.noisy_initial_cloud",
                 "objective.total_loss_grad", "objective.flow_matching_loss_grad",
                 "field.apply_gradient", "field.ema_update",
                 "field.save_checkpoint", "field.load_checkpoint",
                 "metrics.eval_chamfer", "metrics.eval_voxel_iou",
                 "metrics.eval_bev_jsd"):
        put(f"{name}.ms", total_ms.get(name, 0.0), "ms")
    put("cloud_io.bytes", io_bytes, "bytes")
    for name in ("coupling.nearest_neighbor_flow", "objective.chamfer_loss_grad",
                 "field.condition_feature_matrix", "field.loss_and_grad",
                 "field.forward", "field.train_batch", "sampler.guided_field",
                 "sampler.euler_integrate", "cli.make-data", "cli.train",
                 "cli.complete", "cli.eval"):
        put(f"{name}.self_ms", self_ms.get(name, 0.0), "ms")
    for name in ("field.condition_feature_matrix", "field.forward",
                 "sampler.guided_field"):
        put(f"{name}.calls", calls.get(name, 0), "count")
    put("trace.overhead_s", tracer.excluded_s, "s")
    return out


def span_records(tracer: Tracer) -> list:
    """Flat span list for the trace file, parents before children."""
    ids = {}
    records = []
    stack = list(reversed(tracer.roots))
    while stack:
        span = stack.pop()
        ids[id(span)] = len(records)
        records.append({
            "id": len(records), "name": span.name,
            "parent": ids[id(span.parent)] if span.parent else None,
            "start_s": round(span.start, 9), "end_s": round(span.end, 9),
            **span.attrs,
        })
        stack.extend(reversed(span.children))
    return records
