"""Driver-side span tracer for the benchmark.

Spans are recorded around the public entry points of each engine layer
by swapping the module attributes the engine calls through; the program
itself is not edited. Spans stay in memory as
``(name, start, end, parent, epoch)`` and are written out when the run
ends, together with a per-layer table of self time and counts.

A span's self time is its duration minus the part of its interval that
its direct children cover. The benchmark opens one ``engine.epoch`` root
span per ``run(max_epochs=1)`` call, so the child spans plus
``engine.epoch`` self time account for the whole epoch wall time.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass

# (module, attribute the engine resolves at call time, span name). The
# span name's first component is the layer.
ENTRY_POINTS = [
    ("silk_ray.cdc.engine", "run_epoch", "merge.run_epoch"),
    ("silk_ray.cdc.engine", "update_links", "incremental.update_links"),
    ("silk_ray.cdc.engine", "gc_lake", "gc.gc_lake"),
    ("silk_ray.cdc.engine", "gc_link_inputs", "gc.gc_link_inputs"),
    ("silk_ray.cdc.engine", "gc_blockmap", "gc.gc_blockmap"),
    ("silk_ray.cdc.clusters", "update_clusters", "clusters.update_clusters"),
    ("silk_ray.cdc.clusters", "gc_clusters", "gc.gc_clusters"),
    ("silk_ray.cdc.clusters", "commit_clusterstate", "checkpoint.commit_clusterstate"),
    ("silk_ray.cdc.matview", "update_aggregates", "matview.update_aggregates"),
    ("silk_ray.cdc.matview", "gc_aggview", "gc.gc_aggview"),
    ("silk_ray.cdc.matview", "commit_aggstate", "checkpoint.commit_aggstate"),
    ("silk_ray.cdc.egress", "update_egress", "egress.update_egress"),
    ("silk_ray.cdc.egress", "commit_egressstate", "checkpoint.commit_egressstate"),
    ("silk_ray.cdc.incremental", "commit_linkstate", "checkpoint.commit_linkstate"),
    ("silk_ray.cdc.checkpoint", "commit_manifest", "checkpoint.commit_manifest"),
    ("silk_ray.cdc.checkpoint", "write_metrics", "checkpoint.write_metrics"),
    ("silk_ray.cdc.merge", "lookup_keys", "merge.lookup_keys"),
]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    epoch: int | None


class Tracer:
    """Records nested spans on one thread; ``overhead_s`` is the time
    spent in the tracer's own bookkeeping, outside every span."""

    def __init__(self):
        self.spans: list[Span] = []
        self.epoch: int | None = None
        self.overhead_s = 0.0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, *args, **kwargs):
        t0 = time.perf_counter()
        idx = len(self.spans)
        self.spans.append(Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.epoch))
        self._stack.append(idx)
        t1 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t2 = time.perf_counter()
            self._stack.pop()
            span = self.spans[idx]
            span.start, span.end = t1, t2
            self.overhead_s += (t1 - t0) + (time.perf_counter() - t2)

    def install(self, entry_points=ENTRY_POINTS) -> None:
        for mod_name, attr, name in entry_points:
            mod = importlib.import_module(mod_name)
            orig = getattr(mod, attr)
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, self._wrap(name, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def to_records(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "epoch": s.epoch}
            for s in self.spans
        ]


def self_times(spans: list[Span]) -> list[float]:
    """Per span: duration minus the union of its direct children's
    intervals, clipped to the span."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in sorted(children.get(i, [])):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((s.end - s.start) - covered)
    return out


def layer_table(spans: list[Span]) -> dict[str, dict]:
    """Span name -> {count, total_s, self_s}, plus one ``<layer>.*`` row
    per layer summing its spans' self time."""
    table: dict[str, dict] = {}
    for s, self_s in zip(spans, self_times(spans)):
        for key in (s.name, s.name.split(".")[0] + ".*"):
            row = table.setdefault(key, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += s.end - s.start
            row["self_s"] += self_s
    return dict(sorted(table.items()))
