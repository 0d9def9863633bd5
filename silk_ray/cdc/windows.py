"""Event-time tumbling windows with watermarks over the CDC stream.

The reference's execution model is batch-only — "no ordering
assumption, no late data" (SURVEY.md §2.10). A continuously-tailing
ingest engine needs the streaming counterpart: aggregates over
**event time** (a timestamp carried by the event) while consuming in
**arrival order** (changelog offsets), with an explicit policy for
events that arrive after their window's result was already emitted.

Semantics (micro-batch watermarks, the Spark-Structured-Streaming /
Flink model adapted to this engine's epoch loop):

- tumbling windows of ``width_s`` seconds over ``ts_col``, grouped by
  ``group_by``; measures = exact int64 count + float64 sums;
- the **watermark** after epoch ``e`` is ``max(event time seen in
  epochs ≤ e) − allowed_lateness_s`` — monotone by construction;
- a window **finalizes** at the first epoch whose watermark reaches
  its end: its aggregate is emitted append-only and never revised.
  Finalization is epoch-aligned, so results are deterministic and
  replay-stable for a given epoch size (watermarks advance at
  micro-batch boundaries — the same contract Spark triggers give);
- an event whose window already finalized is **late**: it is routed
  to a per-epoch late side output (offset, event time, window, group)
  instead of silently mutating emitted results — the observability
  counterpart of the ingest DLQ.

Per-epoch cost is O(epoch events + open windows), never O(history):
arrival-window reads fan out as Ray tasks per changelog fragment,
partials combine deterministically (task-index order), and only the
open-window partial state (tiny: windows × groups not yet closed) is
rewritten. Finalized and late outputs are append-only per epoch with
the pointer-swap commit idiom every other store here uses; replay of
a committed epoch is a no-op and crash catch-up re-derives identical
bytes (float sums combine in a fixed order).

Oracle story: epochs are offset windows ``[(e−1)·sz, e·sz)``, so the
watermark sequence, every window's finalization epoch, its contributing
event set and the late set are all reproducible in SQL over the same
changelog — see ``events_windowed`` / ``events_windowed_late`` in
pipelines/queries.py.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from silk_ray.cdc import checkpoint as ckpt, remote

_US = 1_000_000


@dataclass(frozen=True)
class WindowSpec:
    """Tumbling event-time windows: GROUP BY (window, *group_by) with
    an exact int64 count and float64 sums. ``ts_col`` must be a
    timestamp or integer-microseconds column; windows are aligned to
    the unix epoch (``floor(ts_us / width) * width``)."""

    ts_col: str
    width_s: int
    allowed_lateness_s: int = 0
    group_by: tuple[str, ...] = ()
    count_col: str = "n"
    sums: dict[str, str] = field(default_factory=dict)  # out -> src column

    def __post_init__(self):
        object.__setattr__(self, "group_by", tuple(self.group_by))
        if self.width_s <= 0:
            raise ValueError("width_s must be positive")
        for out in self.sums:
            if out == self.count_col or out in self.group_by:
                raise ValueError(f"sum name {out!r} collides with window columns")

    @property
    def width_us(self) -> int:
        return self.width_s * _US

    def fingerprint(self) -> str:
        return json.dumps(
            {
                "ts_col": self.ts_col,
                "width_s": self.width_s,
                "allowed_lateness_s": self.allowed_lateness_s,
                "group_by": list(self.group_by),
                "count_col": self.count_col,
                "sums": {k: self.sums[k] for k in sorted(self.sums)},
            },
            sort_keys=True,
        )


# ------------------------------------------------------------------ state


read_winstate = ckpt.WINDOWS.read
commit_winstate = ckpt.WINDOWS.commit


# --------------------------------------------------------------- kernels


def _ts_us(col: pa.ChunkedArray | pa.Array) -> pa.Array:
    """Event-time column → int64 unix microseconds."""
    if pa.types.is_timestamp(col.type):
        col = pc.cast(col, pa.timestamp("us"))
    return pc.cast(col, pa.int64())


def _partial(t: pa.Table, spec: WindowSpec) -> pa.Table:
    """Combine contribution rows: one row per (window, *group)."""
    keys = ["_w"] + list(spec.group_by)
    aggs = [(spec.count_col, "sum")] + [(m, "sum") for m in spec.sums]
    g = t.group_by(keys).aggregate(aggs)
    ren = {f"{c}_sum": c for c, _ in aggs}
    return g.rename_columns([ren.get(c, c) for c in g.column_names])


def _contribution(
    batch: pa.Table, spec: WindowSpec, watermark_us: int | None
) -> tuple[pa.Table | None, pa.Table | None, int | None]:
    """One arrival batch → (on-time partials, late rows, max event ts).

    Late = the event's window end ≤ the pre-epoch watermark (the window
    finalized in an earlier epoch — monotone watermarks make this the
    exact test)."""
    n = batch.num_rows
    if not n:
        return None, None, None
    ts = _ts_us(batch[spec.ts_col].combine_chunks())
    valid = pc.is_valid(ts)
    if not pc.all(valid).as_py():
        batch = batch.filter(valid)
        ts = _ts_us(batch[spec.ts_col].combine_chunks())
        n = batch.num_rows
        if not n:
            return None, None, None
    ts_np = ts.to_numpy()
    w = (ts_np // spec.width_us) * spec.width_us
    max_ts = int(ts_np.max())
    late_mask = (
        (w + spec.width_us) <= watermark_us
        if watermark_us is not None
        else np.zeros(n, dtype=bool)
    )

    def rows(mask: np.ndarray, with_offset: bool) -> pa.Table | None:
        if not mask.any():
            return None
        sub = batch.filter(pa.array(mask))
        cols: dict[str, pa.Array] = {"_w": pa.array(w[mask], pa.int64())}
        for g in spec.group_by:
            cols[g] = sub[g].combine_chunks()
        if with_offset:
            cols["offset"] = sub["offset"].combine_chunks()
            cols["ts_us"] = pa.array(ts_np[mask], pa.int64())
            return pa.table(cols)
        m = int(mask.sum())
        cols[spec.count_col] = pa.array(np.ones(m, dtype=np.int64), pa.int64())
        for out, src in spec.sums.items():
            vals = pc.cast(sub[src].combine_chunks(), pa.float64())
            cols[out] = pc.fill_null(vals, 0.0)
        return _partial(pa.table(cols), spec)

    return rows(~late_mask, False), rows(late_mask, True), max_ts


def _merge_partials(parts: list[pa.Table], spec: WindowSpec) -> pa.Table | None:
    parts = [p for p in parts if p is not None and p.num_rows]
    if not parts:
        return None
    return _partial(pa.concat_tables(parts, promote_options="default"), spec)


def _with_window_ts(t: pa.Table) -> pa.Table:
    """_w int64 micros → window_start timestamp[us] output column."""
    w = pc.cast(t["_w"], pa.timestamp("us"))
    out = t.drop_columns(["_w"])
    return pa.table({"window_start": w, **{c: out[c] for c in out.column_names}})


def _sort_keys(spec: WindowSpec) -> list[tuple[str, str]]:
    return [("_w", "ascending")] + [(g, "ascending") for g in spec.group_by]


# ---------------------------------------------------------------- update


def _frag_window(frag, lo: int, hi: int, columns=None) -> pa.Table:
    """One arrival slice's events in ``[lo, hi)``: a table slice is
    already windowed; a parquet fragment is footer-pruned to candidates."""
    if isinstance(frag, pa.Table):
        return frag
    t = pq.read_table(frag, columns=columns)
    return t.filter(pc.and_(pc.greater_equal(t["offset"], lo), pc.less(t["offset"], hi)))


def _frag_offsets(frag, lo: int, hi: int):
    return _frag_window(frag, lo, hi, ["offset"])["offset"].combine_chunks().to_numpy()


def _frag_contribution(frag, lo: int, hi: int, keep, spec: "WindowSpec", wm_prev):
    """One slice's window contribution; ``keep`` is its first-occurrence
    mask, None when the window has no duplicate offsets."""
    t = _frag_window(frag, lo, hi)
    return _contribution(t if keep is None else t.filter(pa.array(keep)), spec, wm_prev)


def update_windows(
    root: str, changelog, epoch: int, lo: int, hi: int, spec: WindowSpec
) -> dict:
    """Consume arrival offsets ``[lo, hi)`` as epoch ``epoch``.

    Idempotent (committed epochs are replay no-ops) and sequential —
    the engine loop / catch-up guarantee ``epoch == state.epoch + 1``.
    """
    import ray

    from silk_ray.cdc.merge import _window_fragments

    state = read_winstate(root)
    if state["spec"] not in (None, spec.fingerprint()):
        raise ValueError("window spec changed mid-stream — start a fresh store")
    if state.get("flushed"):
        raise RuntimeError("window stream was flushed (end-of-stream); no further epochs")
    if epoch <= int(state["epoch"]):
        return {"epoch": epoch, "mode": "replay_noop", "finalized": 0, "late": 0}
    if epoch != int(state["epoch"]) + 1:
        raise RuntimeError(
            f"window state at epoch {state['epoch']} cannot jump to {epoch} — "
            "catch up sequentially"
        )
    wm_prev = state["watermark_us"]

    # arrival reads fan out per changelog fragment (parquet) or table slice
    if isinstance(changelog, pa.Table):
        win = changelog.filter(
            pc.and_(
                pc.greater_equal(changelog["offset"], lo),
                pc.less(changelog["offset"], hi),
            )
        )
        slices = [win.slice(o, 65536) for o in range(0, max(win.num_rows, 1), 65536)]
    else:
        slices = _window_fragments(changelog, lo, hi)

    # exactly-once vs redelivery: a duplicate-offset event must not
    # double-count in the aggregates. Wave A reads only the offset
    # column; global first-occurrence winners are computed in
    # deterministic slice order (sorted fragment paths / slice index)
    # and wave B filters each slice to its winners. Duplicates always
    # share the arrival window (windows are offset ranges), so
    # same-epoch dedup is complete — the exact argument the merge path
    # makes. Conflicting twins (same offset, different payload — a
    # producer bug) resolve to the first slice's row; the LAKE is the
    # authority for those (merge.py fingerprint-min), the window store
    # is a derived view.
    offs = ray.get([remote(_frag_offsets).remote(s, lo, hi) for s in slices])
    lens = [len(o) for o in offs]
    keeps: list = [None] * len(slices)
    if lens:
        all_off = np.concatenate(offs) if len(offs) > 1 else offs[0]
        if len(all_off) != len(np.unique(all_off)):
            first = np.zeros(len(all_off), bool)
            first[np.unique(all_off, return_index=True)[1]] = True
            pos = 0
            for i, n_ in enumerate(lens):
                keeps[i] = first[pos : pos + n_]
                pos += n_
    results = ray.get(
        [remote(_frag_contribution).remote(s, lo, hi, keeps[i], spec, wm_prev)
         for i, s in enumerate(slices)]
    )
    # deterministic combine order: task-index order (float sums)
    on_time = _merge_partials([r[0] for r in results], spec)
    late_parts = [r[1] for r in results if r[1] is not None and r[1].num_rows]
    max_ts = max((r[2] for r in results if r[2] is not None), default=None)

    open_prev = (
        pq.read_table(os.path.join(root, state["open"])) if state["open"] else None
    )
    merged = _merge_partials([open_prev, on_time], spec)

    wm_new = wm_prev
    if max_ts is not None:
        cand = max_ts - spec.allowed_lateness_s * _US
        wm_new = cand if wm_prev is None else max(wm_prev, cand)

    new_state = {
        **state, "epoch": epoch, "watermark_us": wm_new,
        "spec": spec.fingerprint(),
        "final": dict(state["final"]), "late": dict(state["late"]),
    }
    n_final = 0
    if merged is not None and merged.num_rows:
        if wm_new is not None:
            w_end = pc.add(merged["_w"], pa.scalar(spec.width_us, pa.int64()))
            fin_mask = pc.less_equal(w_end, pa.scalar(wm_new, pa.int64()))
        else:
            fin_mask = pa.array(np.zeros(merged.num_rows, dtype=bool))
        fin = merged.filter(fin_mask)
        still_open = merged.filter(pc.invert(fin_mask))
        if fin.num_rows:
            rel = os.path.join("windows", f"final-epoch-{epoch:06d}.parquet")
            ckpt.atomic_write_parquet(
                _with_window_ts(fin.sort_by(_sort_keys(spec))),
                os.path.join(root, rel),
            )
            new_state["final"][str(epoch)] = rel
            n_final = fin.num_rows
        if still_open.num_rows:
            rel = os.path.join("windows", f"open-epoch-{epoch:06d}.parquet")
            ckpt.atomic_write_parquet(
                still_open.sort_by(_sort_keys(spec)), os.path.join(root, rel)
            )
            new_state["open"] = rel
        else:
            new_state["open"] = None
    n_late = 0
    if late_parts:
        late = pa.concat_tables(late_parts, promote_options="default").sort_by(
            [("offset", "ascending")]
        )
        rel = os.path.join("windows", f"late-epoch-{epoch:06d}.parquet")
        ckpt.atomic_write_parquet(_with_window_ts(late), os.path.join(root, rel))
        new_state["late"][str(epoch)] = rel
        n_late = late.num_rows
    commit_winstate(root, new_state)
    return {
        "epoch": epoch, "mode": "delta", "finalized": int(n_final),
        "late": int(n_late), "watermark_us": wm_new,
    }


def flush_windows(root: str, spec: WindowSpec) -> dict:
    """End-of-stream: finalize every still-open window (their events
    all arrived — nothing is late at flush). Terminal: the store
    accepts no further epochs. Idempotent."""
    state = read_winstate(root)
    if state.get("flushed"):
        return {"mode": "replay_noop", "finalized": 0}
    n = 0
    new_state = {**state, "flushed": True, "final": dict(state["final"])}
    if state["open"]:
        open_t = pq.read_table(os.path.join(root, state["open"]))
        if open_t.num_rows:
            rel = os.path.join("windows", "final-flush.parquet")
            ckpt.atomic_write_parquet(
                _with_window_ts(open_t.sort_by(_sort_keys(spec))),
                os.path.join(root, rel),
            )
            new_state["final"]["flush"] = rel
            n = open_t.num_rows
        new_state["open"] = None
    commit_winstate(root, new_state)
    return {"mode": "flush", "finalized": int(n)}


def run_window_stream(
    root: str, changelog, spec: WindowSpec, epoch_size: int,
    max_epochs: int | None = None, flush: bool = True,
) -> list[dict]:
    """Standalone driver: consume a changelog in arrival-offset epochs
    of ``epoch_size`` (resuming from the committed window epoch) and
    optionally flush at exhaustion. The lake-integrated path is
    ``EngineConfig.window_spec``."""
    from silk_ray.cdc.merge import _next_existing_offset

    out = []
    state = read_winstate(root)
    lo = int(state["epoch"]) * epoch_size
    epochs = 0
    while max_epochs is None or epochs < max_epochs:
        if _next_existing_offset(changelog, lo) is None:
            break
        e = lo // epoch_size + 1
        out.append(update_windows(root, changelog, e, lo, lo + epoch_size, spec))
        lo += epoch_size
        epochs += 1
    if flush and (max_epochs is None or epochs < max_epochs):
        out.append(flush_windows(root, spec))
    return out


# --------------------------------------------------------------- readers


def windows_table(root: str) -> pa.Table:
    """Finalized windows (incl. a flush), sorted by (window, group)."""
    state = read_winstate(root)
    rels = [state["final"][k] for k in sorted(state["final"], key=lambda s: (s == "flush", s))]
    parts = [pq.read_table(os.path.join(root, r)) for r in rels]
    parts = [t for t in parts if t.num_rows]
    if not parts:
        return pa.table({})
    out = pa.concat_tables(parts, promote_options="default")
    return out.sort_by([("window_start", "ascending")] + [
        (c, "ascending") for c in out.column_names
        if c != "window_start" and pa.types.is_string(out.schema.field(c).type)
    ])


def late_table(root: str) -> pa.Table:
    """Late side output across epochs, in arrival order."""
    state = read_winstate(root)
    rels = [state["late"][k] for k in sorted(state["late"], key=int)]
    parts = [pq.read_table(os.path.join(root, r)) for r in rels]
    parts = [t for t in parts if t.num_rows]
    if not parts:
        return pa.table({})
    return pa.concat_tables(parts, promote_options="default").sort_by(
        [("offset", "ascending")]
    )


# delete superseded open-partial files outside the rollback window
# (finalized/late outputs are the product — never GC'd)
gc_windows = ckpt.WINDOWS.gc
