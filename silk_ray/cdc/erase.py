"""Predicate erasure, expressed CDC-natively: delete-where as events.

A compliance deletion ("erase every row whose lang is X / whose path
matches Y") must not be a side-channel mutation of lake files — that
would bypass the exactly-once machinery and desynchronize every
downstream store (links, clusters, aggregate views, egress consumers).
The CDC-native move is to *emit the erasure as ordinary changelog
events*: scan the live state for matching keys, append one ``D`` event
per key to the binlog at fresh offsets, and let the normal merge path
apply them. Everything downstream — idempotent replay, HWMs, change
sets, incremental re-linking, cluster maintenance, view deltas,
egress before-images, time travel, the DLQ — handles an erasure
identically to any organic delete, because it IS one.

Mechanics:

- the predicate is a small JSON-able spec (ANDed conditions over lake
  columns: ==, !=, <, <=, >, >=, contains, prefix, in), compiled to
  vectorized pyarrow.compute kernels and evaluated inside the
  snapshot's per-partition reconcile tasks — the scan is distributed
  and only matching (repo, path) keys reach the driver;
- offsets start after everything the binlog or the lake has seen
  (``max(changelog max offset, manifest.next_offset - 1) + 1``), so
  the events are a pure append;
- the segment is written atomically as ``erasure-{start}.parquet`` in
  the changelog directory with just (offset, op, repo, path) — D
  events carry no payload; the schema-evolution path pads the rest —
  and a same-start collision is refused (an erasure is an explicit
  operator action, not an idempotent background job: rerunning after a
  partial tail would select a different key set);
- the emit does NOT apply anything: the engine tails the new events on
  its next run, which keeps a single write path into the lake.

Reference framing: Silk has no mutable store to erase from; this is
from-scratch CDC-tier design (the spirit is GDPR-style erasure in
log-structured systems: tombstones through the log, never in-place).
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.compute as pc

from silk_ray.cdc import checkpoint as ckpt
from silk_ray.cdc.merge import _changelog_max_offset, snapshot_dataset

_OPS = {
    "==": pc.equal,
    "!=": pc.not_equal,
    "<": pc.less,
    "<=": pc.less_equal,
    ">": pc.greater,
    ">=": pc.greater_equal,
}


def compile_predicate(where):
    """where: a condition dict or list of dicts (ANDed); each is
    {"column": c, "op": o, "value": v}. Returns a vectorized
    batch -> bool-mask callable."""
    conds = [where] if isinstance(where, dict) else list(where)
    if not conds:
        raise ValueError("empty predicate: refusing to erase the whole lake "
                         "implicitly (write an explicit always-true condition "
                         "if you truly mean it)")
    for c in conds:
        missing = {"column", "op", "value"} - set(c)
        if missing:
            raise ValueError(f"predicate condition {c!r} missing {sorted(missing)}")
        if c["op"] not in (*_OPS, "contains", "prefix", "in"):
            raise ValueError(f"unknown predicate op {c['op']!r}")

    def mask(batch: pa.Table) -> pa.Array:
        m = None
        for c in conds:
            col_name, op, value = c["column"], c["op"], c["value"]
            if col_name not in batch.column_names:
                # evolution: rows predating the column can't match it
                part = pa.array([False] * batch.num_rows)
            else:
                col = batch[col_name]
                if op == "contains":
                    part = pc.match_substring(col, value)
                elif op == "prefix":
                    part = pc.starts_with(col, value)
                elif op == "in":
                    part = pc.is_in(col, value_set=pa.array(list(value)))
                else:
                    part = _OPS[op](col, value)
            part = pc.fill_null(part, False)
            m = part if m is None else pc.and_(m, part)
        return m

    return mask


def _scan_matching(root: str, changelog_dir: str, where, columns):
    """Distributed predicate scan over the live state; ``columns`` or
    all non-internal columns of the matching rows reach the driver,
    sorted by key. Returns (manifest, table | None)."""
    manifest = ckpt.read_manifest(root)
    if manifest.epoch == 0:
        raise ValueError(f"lake at {root!r} has no committed epochs")
    if not os.path.isdir(changelog_dir):
        raise ValueError(
            f"changelog {changelog_dir!r} is not a directory — DML emits append "
            "a segment file, so the binlog must be directory-shaped"
        )
    mask = compile_predicate(where)

    def match(batch: pa.Table) -> pa.Table:
        hit = batch.filter(mask(batch))
        if columns is not None:
            return hit.select(columns)
        drop = [c for c in ("_offset", "_kh") if c in hit.column_names]
        return hit.drop_columns(drop)

    scan = snapshot_dataset(root).map_batches(match, batch_format="pyarrow")
    parts = [
        t for t in scan.iter_batches(batch_format="pyarrow", batch_size=None)
        if t.num_rows
    ]
    if not parts:
        return manifest, None
    # schema union: evolution-added columns exist only where touched
    merged = pa.concat_tables(parts, promote_options="default").sort_by(
        [("repo", "ascending"), ("path", "ascending")]
    )
    return manifest, merged


def _emit_segment(
    manifest, changelog_dir: str, kind: str, op: str, rows: pa.Table
) -> dict:
    """Append ``rows`` as ``op`` events at fresh offsets; atomic write,
    same-offset re-emits refused."""
    n = rows.num_rows
    start = max(_changelog_max_offset(changelog_dir) or -1, manifest.next_offset - 1) + 1
    cols = {
        "offset": pa.array(range(start, start + n), pa.int64()),
        "op": pa.array([op] * n, pa.string()),
        "repo": rows["repo"].combine_chunks(),
        "path": rows["path"].combine_chunks(),
    }
    for c in rows.column_names:
        if c not in cols:
            cols[c] = rows[c].combine_chunks()
    seg = pa.table(cols)
    path = os.path.join(changelog_dir, f"{kind}-{start:012d}.parquet")
    if os.path.exists(path):
        raise FileExistsError(
            f"{path} already exists — a {kind} segment at this offset was "
            "already emitted; tail it with the engine (or remove it first if "
            "it was never consumed and the predicate was wrong)"
        )
    ckpt.atomic_write_parquet(seg, path)
    return {
        "events": n,
        "segment": path,
        "offset_lo": start,
        "offset_hi": start + n - 1,
    }


def erase_where(root: str, changelog_dir: str, where) -> dict:
    """Emit D events for every live lake row matching ``where``.

    Returns {"events", "segment", "offset_lo", "offset_hi"}. Nothing is
    applied here — run the engine to tail the new events."""
    manifest, keys = _scan_matching(root, changelog_dir, where, ["repo", "path"])
    if keys is None:
        return {"events": 0, "segment": None}
    return _emit_segment(manifest, changelog_dir, "erasure", "D", keys)


def rewrite_where(root: str, changelog_dir: str, where, set_rules: list[dict]) -> dict:
    """SET ... WHERE ... through the binlog: emit one U event per live
    matching row, carrying the row's FULL current payload with the
    ``set_rules`` targets overwritten (or added — schema evolution
    handles a new column). ``set_rules`` is the same JSON transform-rule
    DSL as ingest enrichment (``EngineConfig.enrich_rules``), so a
    rewrite can be a constant, a regex extraction, a typed cast — any
    registered transformer tree.

    Full payload is mandatory: last-writer-wins replaces the whole row,
    so a partial U would null the untouched columns. A rule error on any
    matched row ABORTS the emit (an explicit operator action with a
    broken rule must not half-apply or quarantine), unlike ingest
    enrichment where bad producer rows quarantine to the DLQ."""
    from silk_ray.cdc.merge import _enrich_events

    manifest, rows = _scan_matching(root, changelog_dir, where, None)
    if rows is None:
        return {"events": 0, "segment": None}
    out, dead = _enrich_events(rows, set_rules)
    if dead is not None and dead.num_rows:
        sample = dead.select(["repo", "path", "reason"]).slice(0, 3).to_pylist()
        raise ValueError(
            f"rewrite rule failed on {dead.num_rows} of {rows.num_rows} matched "
            f"rows (first: {sample}) — aborting the emit; fix the rule (erasure "
            "of bad rows is erase_where's job)"
        )
    return _emit_segment(manifest, changelog_dir, "rewrite", "U", out)
