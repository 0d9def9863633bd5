"""CDC egress: the lake as an exactly-once CDC *producer*.

The north rule asks for a "binlog/WAL tail → lake upsert → exactly-once
sink". The sink side deserves first-class treatment: downstream
consumers of a CDC lake (replicas, caches, search indexes, other
engines) want the lake's own change stream, not its snapshots. This
module emits, per committed merge epoch, a **downstream changelog** of
the lake's net state delta — one row per changed key carrying the
change op (I/U/D), the full **after image** (``new_*``) and the full
**before image** (``old_*``) — the Debezium-style envelope.

The source material is cheap: every merge epoch has a *change set*
with exactly this content (``merge.epoch_changes`` — change ∈ {I,U,D},
typed old/new payload images, keys inserted-then-deleted within the
epoch excluded), handed over in memory by the merge tasks or derived
from the lake's delta chains. Egress is therefore an O(delta) reshape,
never a state scan, done in one plain pyarrow pass on the driver with
no Ray task:

- take each change table, rename ``change`` to ``op`` and split its rows
  by key-hash shard (md5-lower-64 of ``repo\\x1fpath`` mod num_shards —
  the interpreter-stable, *SQL-reproducible* hash the oracle suite
  standardizes on);
- per touched shard: concat the shard's parts, cast to the epoch's
  canonical union schema, sort by key, assign the global sequence
  number, atomic-write ``egress/shard-SSSSS-epoch-EEEEEE.parquet``.

Every emitted row passes through the driver once; the epoch's change
rows are delta-sized (a few tables of delta/P rows), so holding them
costs less than starting a task wave per epoch would.

**Determinism / exactly-once.** Egress output is byte-identical across
partition counts, replays and crash recoveries:

- shard assignment and intra-shard order (``repo, path``) depend only
  on row content; the per-epoch column set is the union across *all*
  change tables (partition-independent) in canonical order;
- ``seq`` — the global position a consumer resumes from — numbers rows
  (epoch-major, then shard, then key) from a ``next_seq`` carried in
  the committed egress state, so it is replay-stable;
- files are written atomically and the ``_egressstate.json`` pointer
  swap is the sole commit point: a crash after file writes but before
  the swap re-derives the *same bytes* on catch-up (writers converge).

**Lag discipline.** Egress commits inside the engine loop, which
applies each missed epoch in turn; an epoch's change set derives from
the lake while its pre-epoch manifest is retained
(``EngineConfig.retain_epochs``). Enabling egress *late* on a lake with
history, or pausing it past the retention window, cannot reconstruct
the missed deltas — :func:`update_egress` then refuses loudly, and
:func:`egress_resync` performs the standard CDC-producer move: an
initial-snapshot epoch (every live row as an ``I`` with null
before-image) from which the delta stream continues.

A consumer round trip closes the loop: :func:`egress_as_changelog`
re-shapes the stream into the engine's own ingest schema (seq →
offset, after-images → payload), and feeding it to a second engine
reproduces the first lake's state byte-for-byte (tests/test_egress.py).

Reference framing: Silk writes link/entity outputs through sinks
(``WriteLinks.scala``, ``datasets/CsvSink.scala``); it has no notion of
an incremental output stream — this is a from-scratch design for the
CDC tier, not a port.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from silk_ray.cdc import checkpoint as ckpt
from silk_ray.cdc.merge import epoch_changes, inserts_table
from silk_ray.kernel.index import md5_lower64_batch

KEY_COLS = ("repo", "path")
_SEP = "\x1f"


# ------------------------------------------------------------------ state


read_egressstate = ckpt.EGRESS.read
commit_egressstate = ckpt.EGRESS.commit


def _shard_rel(epoch: int, shard: int) -> str:
    return os.path.join("egress", f"shard-{shard:05d}-epoch-{epoch:06d}.parquet")


# --------------------------------------------------------------- reshape


def _shard_ids(t: pa.Table, num_shards: int) -> np.ndarray:
    """md5-lower-64 of ``repo\\x1fpath`` mod num_shards, hashing each
    distinct key once; the hash choice buys SQL reproducibility (DuckDB
    ``md5_number_lower``)."""
    keys = pc.binary_join_element_wise(t["repo"], t["path"], _SEP)
    return (md5_lower64_batch(keys) % np.uint64(num_shards)).astype(np.int64)


def _canonical_fields(schemas: list[pa.Schema]) -> list[pa.Field]:
    """Union of the epoch's change schemas in canonical (P-independent)
    order: op, repo, path, new_* sorted, old_* sorted. The union over
    ALL partitions' change tables depends only on what the lake state and
    this epoch's payloads contain — not on the partition count."""
    merged: dict[str, pa.Field] = {}
    for s in schemas:
        for f in s:
            prev = merged.get(f.name)
            if prev is None or pa.types.is_null(prev.type):
                merged[f.name] = f
    news = sorted(n for n in merged if n.startswith("new_"))
    olds = sorted(n for n in merged if n.startswith("old_"))
    fields = [pa.field("op", pa.string())]
    fields += [pa.field(k, pa.string()) for k in KEY_COLS]
    fields += [merged[n] for n in news + olds]
    return fields


def _finalize_shard(
    parts: list[pa.Table], fields: list[pa.Field], epoch: int, seq_base: int
) -> pa.Table:
    """Concat a shard's parts, cast to the canonical epoch schema
    (missing columns → typed nulls), key-sort, stamp epoch + seq."""
    merged = pa.concat_tables(parts, promote_options="default")
    n = merged.num_rows
    cols: dict[str, pa.Array] = {}
    for f in fields:
        if f.name in merged.column_names:
            c = merged[f.name].combine_chunks()
            cols[f.name] = c if c.type == f.type else pc.cast(c, f.type)
        else:
            cols[f.name] = pa.nulls(n, f.type)
    out = pa.table(cols).sort_by([(k, "ascending") for k in KEY_COLS])
    out = pa.table(
        {
            "seq": pa.array(seq_base + np.arange(n, dtype=np.int64), pa.int64()),
            "epoch": pa.array(np.full(n, epoch, dtype=np.int64), pa.int64()),
            **{c: out[c] for c in out.column_names},
        }
    )
    return out


def _write_epoch(
    root: str, epoch: int, tables: list[pa.Table], num_shards: int, seq: int
) -> tuple[list[str], int]:
    """Split the epoch's change tables by key-hash shard and write one
    key-sorted, seq-stamped file per touched shard (``change`` becomes
    ``op``), numbering rows from ``seq`` in shard order. The column set
    is the union over all ``tables``, empty ones included. Returns
    (files written, next seq)."""
    tables = [
        t.rename_columns(["op" if c == "change" else c for c in t.column_names]) for t in tables
    ]
    by_shard: dict[int, list[pa.Table]] = {}
    for t in tables:
        sid = _shard_ids(t, num_shards)
        for s in np.unique(sid):
            by_shard.setdefault(int(s), []).append(t.filter(pa.array(sid == s)))
    fields = _canonical_fields([t.schema for t in tables])
    rels = []
    for s in sorted(by_shard):
        out = _finalize_shard(by_shard[s], fields, epoch, seq)
        rels.append(_shard_rel(epoch, s))
        ckpt.atomic_write_parquet(out, os.path.join(root, rels[-1]))
        seq += out.num_rows
    return rels, seq


# ---------------------------------------------------------------- update


def update_egress(root: str, epoch: int, num_shards: int = 16) -> dict:
    """Emit the downstream changelog for one committed merge epoch.

    Idempotent: an epoch at or below the committed egress epoch is a
    replay no-op. Sequential: ``epoch`` must be ``state.epoch + 1``
    (the engine's egress stage applies each missed epoch in turn, per
    epoch and in ``engine.catch_up``); a larger gap, or an epoch whose
    change set can no longer be derived (its pre-epoch manifest fell
    out of the retention window), means the inputs are gone — refuse
    loudly and point at :func:`egress_resync`.
    """
    state = read_egressstate(root)
    if state["num_shards"] not in (None, num_shards):
        raise ValueError(
            f"egress stream was committed with num_shards={state['num_shards']}; "
            f"changing to {num_shards} mid-stream would break consumer resume — "
            "resync into a fresh stream instead"
        )
    if epoch <= int(state["epoch"]):
        return {"epoch": epoch, "mode": "replay_noop", "rows": 0, "files": 0}
    changes = None
    if epoch == int(state["epoch"]) + 1:
        try:
            changes = epoch_changes(root, epoch)
        except FileNotFoundError:
            pass  # the epoch's manifests were GC'd
    if changes is None:
        raise RuntimeError(
            f"egress at epoch {state['epoch']} cannot emit epoch {epoch}: the change set "
            f"of epoch {int(state['epoch']) + 1} is outside the retention window "
            "(EngineConfig.retain_epochs) — deltas are unrecoverable. Run "
            "egress_resync(root) and have consumers re-snapshot."
        )
    start = int(state["next_seq"])
    rels, seq = _write_epoch(root, epoch, changes, num_shards, start)
    new_files = dict(state["files"])
    if rels:
        new_files[str(epoch)] = rels
    commit_egressstate(root, {
        **state,
        "epoch": epoch, "next_seq": seq, "files": new_files, "num_shards": num_shards,
    })
    return {
        "epoch": epoch, "mode": "delta", "rows": seq - start,
        "files": len(rels), "next_seq": seq,
    }


def egress_resync(root: str, num_shards: int = 16) -> dict:
    """Initial-snapshot epoch: every live lake row as an ``I`` with a
    null before-image, stamped at the current merge epoch; the delta
    stream continues from there. The standard CDC-producer answer to
    "the binlog was purged": consumers re-snapshot, then resume.

    Scale note: this is the ONE egress path that scans state — it runs
    as a streaming Dataset over the lake snapshot, reshaped per batch
    inside the scan and iterated on the driver, executed once per
    resync, never per epoch."""
    from silk_ray.cdc.merge import snapshot_dataset

    state = read_egressstate(root)
    if state["num_shards"] not in (None, num_shards):
        raise ValueError("num_shards differs from the committed stream")
    merge_epoch = ckpt.read_manifest(root).epoch

    scan = snapshot_dataset(root).map_batches(inserts_table, batch_format="pyarrow")
    parts = [
        t for t in scan.iter_batches(batch_format="pyarrow", batch_size=None)
        if t.num_rows
    ]
    start = int(state["next_seq"])
    rels, seq = _write_epoch(root, merge_epoch, parts, num_shards, start)
    new_files = dict(state["files"])
    new_files[str(merge_epoch)] = rels
    commit_egressstate(
        root,
        {
            "epoch": merge_epoch, "next_seq": seq, "files": new_files,
            "num_shards": num_shards, "resync_epochs": sorted(
                set(state.get("resync_epochs", [])) | {merge_epoch}
            ),
        },
    )
    return {"epoch": merge_epoch, "mode": "snapshot_resync",
            "rows": seq - start, "files": len(rels), "next_seq": seq}


# --------------------------------------------------------------- readers


def _live_rels(state: dict, from_epoch: int | None = None) -> list[str]:
    rels = []
    for e in sorted(state.get("files", {}), key=int):
        if from_epoch is not None and int(e) < from_epoch:
            continue
        rels.extend(state["files"][e])
    return rels


def egress_dataset(root: str, from_epoch: int | None = None):
    """The downstream changelog as a streaming Dataset (the scale
    path: consumers tail from a seq/epoch position)."""
    import ray.data as rd

    rels = _live_rels(read_egressstate(root), from_epoch)
    if not rels:
        return rd.from_arrow(pa.table({"seq": pa.array([], pa.int64())}))
    return rd.read_parquet([os.path.join(root, r) for r in rels])


def egress_table(root: str, from_epoch: int | None = None) -> pa.Table:
    """Driver-side egress stream in seq order, schemas unified across
    epochs (early epochs may predate evolved columns). Test/small-lake
    helper — the streaming path is :func:`egress_dataset`."""
    rels = _live_rels(read_egressstate(root), from_epoch)
    parts = [pq.read_table(os.path.join(root, r)) for r in rels]
    parts = [t for t in parts if t.num_rows]
    if not parts:
        return pa.table({})
    out = pa.concat_tables(parts, promote_options="default")
    # canonical cross-epoch column order (an epoch file's own order is
    # canonical already; the union just appends late-appearing columns)
    head = ["seq", "epoch", "op", *KEY_COLS]
    news = sorted(c for c in out.column_names if c.startswith("new_"))
    olds = sorted(c for c in out.column_names if c.startswith("old_"))
    return out.select(head + news + olds).sort_by([("seq", "ascending")])


def egress_as_changelog(t: pa.Table) -> pa.Table:
    """Re-shape the egress stream into the engine's own ingest schema
    (seq → offset, after-images → payload columns) — the consumer
    round trip: a second engine fed this changelog reproduces the
    producer lake's state byte-for-byte."""
    cols: dict[str, pa.Array] = {
        "offset": t["seq"].combine_chunks(),
        "op": t["op"].combine_chunks(),
        "repo": t["repo"].combine_chunks(),
        "path": t["path"].combine_chunks(),
    }
    for c in t.column_names:
        if c.startswith("new_"):
            cols[c[len("new_"):]] = t[c].combine_chunks()
    return pa.table(cols)


# ---------------------------------------------------------------------------
# consumer groups: committed-seq offsets with at-least-once delivery
# ---------------------------------------------------------------------------
#
# The egress stream is a replay-stable, globally-sequenced changelog;
# what downstream systems need on top is a resume position. A consumer
# group is a named committed seq: ``consume_egress`` returns rows with
# seq > committed (pruned by parquet footer statistics — a caught-up
# consumer touches only footers), the caller processes them and then
# ``commit_consumer``s the last seq it handled. A crash between the two
# redelivers from the committed position — at-least-once, which the
# deterministic seq makes effectively exactly-once for any idempotent
# or transactional consumer. Commits are atomic (os.replace) and
# monotone (a seq regression is refused loudly — it is always a bug,
# never a recovery). ``truncate_egress`` refuses to drop files any
# registered group still needs, so retention is enforced against real
# consumer lag rather than hope.


def _consumer_path(root: str, group: str) -> str:
    if not group or "/" in group or group.startswith("."):
        raise ValueError(f"invalid consumer group name {group!r}")
    return os.path.join(root, "egress", "_consumers", f"{group}.json")


def read_consumer(root: str, group: str) -> dict:
    return ckpt.read_json(_consumer_path(root, group), {"group": group, "seq": -1})


def commit_consumer(root: str, group: str, seq: int) -> None:
    """Atomically record that ``group`` has processed through ``seq``."""
    cur = read_consumer(root, group)["seq"]
    if seq < cur:
        raise ValueError(
            f"consumer group {group!r} is committed at seq {cur}; committing "
            f"{seq} would move it backwards — redeliver by just consuming "
            "again, never by regressing the commit"
        )
    ckpt.atomic_write_json(_consumer_path(root, group), {"group": group, "seq": int(seq)})


def consumer_groups(root: str) -> dict[str, int]:
    """group -> committed seq for every registered group."""
    d = os.path.join(root, "egress", "_consumers")
    if not os.path.isdir(d):
        return {}
    out = {}
    for f in sorted(os.listdir(d)):
        if f.endswith(".json"):
            st = ckpt.read_json(os.path.join(d, f))
            out[st["group"]] = int(st["seq"])
    return out


def _file_seq_range(path: str) -> tuple[int, int] | None:
    """(min, max) of the seq column from the parquet footer — metadata
    only, no row reads."""
    md = pq.ParquetFile(path).metadata
    idx = {md.schema.column(i).name: i for i in range(md.num_columns)}.get("seq")
    if idx is None:
        return None
    lo = hi = None
    for rg in range(md.num_row_groups):
        st = md.row_group(rg).column(idx).statistics
        if st is None or not st.has_min_max:
            return None
        lo = st.min if lo is None else min(lo, st.min)
        hi = st.max if hi is None else max(hi, st.max)
    return (int(lo), int(hi)) if lo is not None else None


def consume_egress(root: str, group: str, max_rows: int | None = None) -> pa.Table:
    """Rows with seq > the group's committed position, in seq order.

    File selection is footer-pruned on the seq statistics: a caught-up
    consumer touches no row data. ``max_rows`` caps the batch (rows are
    never split mid-seq — seqs are unique, so any prefix is valid). The
    caller processes the batch, then ``commit_consumer(root, group,
    batch["seq"][-1])`` — crash before the commit and the same rows
    come back."""
    committed = read_consumer(root, group)["seq"]
    state = read_egressstate(root)
    parts = []
    for rel in _live_rels(state):
        path = os.path.join(root, rel)
        rng = _file_seq_range(path)
        if rng is not None and rng[1] <= committed:
            continue
        t = pq.read_table(path, filters=[("seq", ">", committed)])
        if t.num_rows:
            parts.append(t)
    if not parts:
        return pa.table({"seq": pa.array([], pa.int64())})
    out = pa.concat_tables(parts, promote_options="default").sort_by(
        [("seq", "ascending")]
    )
    if max_rows is not None and out.num_rows > max_rows:
        out = out.slice(0, max_rows)
    return out


def consumer_lag(root: str) -> dict[str, int]:
    """group -> rows not yet committed (the operator's 'is every
    downstream keeping up' gauge; pairs with the engine's
    lag_offsets)."""
    state = read_egressstate(root)
    head = int(state["next_seq"]) - 1
    return {g: head - s for g, s in consumer_groups(root).items()}


def truncate_egress(root: str, upto_epoch: int, force: bool = False) -> int:
    """Consumer-acknowledged truncation: drop egress epochs ≤
    ``upto_epoch`` from the stream (the producer never auto-GCs its
    output — retention is the consumer contract). A file some
    registered consumer group has not committed past is refused loudly
    (its footer max seq exceeds the group's position) unless ``force``
    — forcing strands that group and is the operator saying so.
    Returns files removed."""
    state = read_egressstate(root)
    floor = min(consumer_groups(root).values(), default=None)
    removed = 0
    files = dict(state["files"])
    for e in list(files):
        if int(e) <= upto_epoch:
            if not force and floor is not None:
                for rel in files[e]:
                    rng = _file_seq_range(os.path.join(root, rel))
                    if rng is not None and rng[1] > floor:
                        slow = [g for g, s in consumer_groups(root).items() if s == floor]
                        raise ValueError(
                            f"truncating egress epoch {e} would drop seqs up to "
                            f"{rng[1]} but consumer group(s) {slow} are committed "
                            f"at {floor}; let them catch up or pass force=True to "
                            "strand them"
                        )
            for rel in files.pop(e):
                try:
                    os.remove(os.path.join(root, rel))
                    removed += 1
                except OSError:
                    pass
    commit_egressstate(root, {**state, "files": files})
    return removed
