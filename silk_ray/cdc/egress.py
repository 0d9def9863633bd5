"""CDC egress: the lake as an exactly-once CDC *producer*.

The north rule asks for a "binlog/WAL tail → lake upsert → exactly-once
sink". The sink side deserves first-class treatment: downstream
consumers of a CDC lake (replicas, caches, search indexes, other
engines) want the lake's own change stream, not its snapshots. This
module emits, per committed merge epoch, a **downstream changelog** of
the lake's net state delta — one row per changed key carrying the
change op (I/U/D), the **after image** (``new_*``) and the **before
image** (``old_*``) — the Debezium-style envelope.

**Pointers, not images.** The lake already holds every image: epoch E's
delta file holds the after-image of each key E changed, and a key's
before-image is its row as the epoch of its previous write wrote it. So
an egress file stores ``seq, epoch, op, repo, path, prev_epoch`` and no
payload, as Delta Lake's log references immutable data files instead of
copying them:

- the after-image is the key's row in the lake delta file written by
  ``epoch`` (a D row has none);
- the before-image is the key's row in the file written by
  ``prev_epoch`` (an I row has none). The merge hands egress the old
  row's ``_offset`` (``merge.changes_table``'s ``_old_offset``), and
  the offset log's per-epoch windows (``_checkpoints/offsets-E.json``)
  name the epoch that applied it. It is clamped to the latest *anchor*
  (below).

A pointer is an epoch plus the key, never a file path, so the files are
byte-identical across partition counts. A reader maps (epoch, key) to a
file with the layout that wrote that epoch: ``pid = crc32 % N`` at that
epoch, then ``checkpoint.partition_file``. An anchor epoch resolves
through the lake chain it recorded instead. The egress state records
what the lake cannot tell later:

- ``layouts``: ``[epoch, N]`` from each epoch on whose layout differs
  from the previous one (``repartition.repartition_lake`` changes it;
  the stage records the change in the commit of the epoch that has it);
- ``anchors``: epoch → the lake chain files per pid that
  :func:`egress_resync` snapshotted, or that :func:`truncate_egress`
  kept for the before-images of keys last written in truncated epochs;
- ``epochs``: per egress epoch, the lake (epoch, pid) files its
  pointers name (``refs``, after- and before-images both) and the key
  of its image schema in ``images``: the payload columns, in canonical
  order and types, from which readers rebuild the same ``new_*`` and
  ``old_*`` columns. Epochs of one schema share one entry.

``checkpoint.LAKE``'s GC keeps every lake file a committed egress epoch
points to (:func:`lake_refs`, read from the state alone) and the latest
anchor's chain; truncating egress epochs releases theirs.

**Read cost.** A reader decodes every lake file its rows point to,
whole: the keyed read is an ``is_in`` filter on ``_kh``, which prunes
no row group (``checkpoint.LAKE_ROW_GROUP``). A before-image usually
points at an old file, on a tailing lake at the bootstrap epoch's, so
even a small :func:`consume_egress` batch costs O(referenced files),
up to the size of the lake, where an image copy cost its own rows. On
a tail_head window (bootstrap + 11 epochs, P = 4, 3.7 K egress rows;
a 4-core host held to one CPU) a 50-row batch decoded 4.6-4.9 MB of
Parquet in 104-131 ms against 0.2 MB in 21-32 ms for image copies, and
one epoch's ``egress_table(from_epoch=e)`` 4.4-4.5 MB against 0.12 MB.

The write is an O(delta) reshape on the driver, no Ray task: take the
epoch's change tables (``merge.epoch_changes`` without old payload),
split their rows by key-hash shard (md5-lower-64 of ``repo\\x1fpath``
mod num_shards — the interpreter-stable, *SQL-reproducible* hash the
oracle suite standardizes on), sort each touched shard by key, assign
the global sequence number, atomic-write
``egress/shard-SSSSS-epoch-EEEEEE.parquet``. Readers
(:func:`egress_table`, :func:`egress_dataset`, :func:`consume_egress`)
resolve the pointers with one keyed read per referenced lake file.

**Determinism / exactly-once.** Egress output is byte-identical across
partition counts, replays and crash recoveries:

- shard assignment and intra-shard order (``repo, path``) depend only
  on row content; the per-epoch image schema is the union across *all*
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

import base64
import hashlib
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from silk_ray.cdc import chain
from silk_ray.cdc import checkpoint as ckpt
from silk_ray.cdc.merge import (
    _as_array, _read_chain, epoch_changes, inserts_table, key_hash, reconcile_tables,
)
from silk_ray.kernel.index import md5_lower64_batch

KEY_COLS = ("repo", "path")
_SEP = "\x1f"


# ------------------------------------------------------------------ state


def read_egressstate(root: str) -> dict:
    """The committed egress state. A stream written as image copies
    (before egress files became pointers) has no ``layouts``: its files
    cannot be resolved, so it is refused loudly."""
    state = ckpt.EGRESS.read(root)
    if "layouts" not in state:
        raise RuntimeError(
            f"the egress stream at {root!r} holds image copies, not pointers into the "
            "lake: remove egress/ and _egressstate.json, then run egress_resync(root) "
            "and have consumers re-snapshot"
        )
    return state


commit_egressstate = ckpt.EGRESS.commit


def _shard_rel(epoch: int, shard: int) -> str:
    return os.path.join("egress", f"shard-{shard:05d}-epoch-{epoch:06d}.parquet")


def _with_layout(state: dict, epoch: int, num_partitions: int) -> dict:
    """``state`` with the lake layout of ``epoch`` recorded (a new
    ``layouts`` entry only when it differs from the latest)."""
    layouts = [list(x) for x in state["layouts"]]
    if not layouts or layouts[-1][1] != num_partitions:
        layouts.append([epoch, num_partitions])
    return {**state, "layouts": layouts}


def _layout(state: dict, epoch: int) -> int:
    """The lake's partition count at ``epoch``."""
    n = None
    for start, num in state["layouts"]:
        if start > epoch:
            break
        n = num
    if n is None:
        raise RuntimeError(f"egress state records no lake layout at epoch {epoch}")
    return n


def _anchor_floor(state: dict) -> int:
    """The latest anchor epoch (1 without one): no pointer written from
    now on names an earlier epoch."""
    return max((int(e) for e in state["anchors"]), default=1)


def _with_anchor(root: str, state: dict, epoch: int) -> dict:
    """``state`` with lake epoch ``epoch``'s chain recorded as an anchor."""
    manifest = ckpt.read_manifest_at(root, epoch)
    chains = {str(pid): list(info["files"])
              for pid, info in sorted(manifest.partitions.items()) if info.get("files")}
    anchors = {**state["anchors"], str(epoch): chains}
    return _with_layout({**state, "anchors": anchors}, epoch, manifest.num_partitions)


# --------------------------------------------------------------- reshape


def _shard_ids(t: pa.Table, num_shards: int) -> np.ndarray:
    """md5-lower-64 of ``repo\\x1fpath`` mod num_shards, hashing each
    distinct key once; the hash choice buys SQL reproducibility (DuckDB
    ``md5_number_lower``)."""
    keys = pc.binary_join_element_wise(t["repo"], t["path"], _SEP)
    return (md5_lower64_batch(keys) % np.uint64(num_shards)).astype(np.int64)


def _image_fields(tables: list[pa.Table]) -> list[pa.Field]:
    """The payload columns whose ``new_*``/``old_*`` pairs the epoch's
    change tables carry, in canonical (P-independent) order: sorted by
    name. The union over ALL partitions' change tables depends only on
    what the lake state and this epoch's payloads contain — not on the
    partition count. Both sides of a pair have the payload column's
    type, so one list describes both."""
    merged: dict[str, pa.Field] = {}
    for t in tables:
        for f in t.schema:
            if not f.name.startswith("new_"):
                continue
            name = f.name[len("new_"):]
            prev = merged.get(name)
            if prev is None or pa.types.is_null(prev.type):
                merged[name] = f.with_name(name)
    return [merged[n] for n in sorted(merged)]


def _offset_epochs(root: str, offsets: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """The epoch in ``[lo, hi]`` that applied each lake row offset: the
    first whose committed ``next_offset`` (the offset log) exceeds it.
    An offset applied before ``lo`` maps to ``lo``. Bisects the epochs
    over the sorted offsets, reading each probed epoch's record once."""
    order = np.argsort(offsets, kind="stable")
    srt = offsets[order]
    out = np.empty(len(srt), np.int64)
    nxt: dict[int, int] = {}

    def next_offset(e: int) -> int:
        if e not in nxt:
            nxt[e] = int(ckpt.read_json(ckpt.offsets_path(root, e))["next_offset"])
        return nxt[e]

    def split(a: int, b: int, i: int, j: int) -> None:
        if i == j:
            return
        if a >= b:
            out[i:j] = a
            return
        mid = (a + b) // 2
        k = i + int(np.searchsorted(srt[i:j], next_offset(mid), side="left"))
        split(a, mid, i, k)
        split(mid + 1, b, k, j)

    split(lo, hi, 0, len(srt))
    res = np.empty_like(out)
    res[order] = out
    return res


def _pointer_table(t: pa.Table, prev_epoch) -> pa.Table:
    """One change table's pointer columns: ``change`` becomes ``op``,
    ``_old_offset`` becomes ``prev_epoch`` via ``prev_epoch(offsets)``."""
    off = t["_old_offset"].combine_chunks()
    prev = pa.nulls(t.num_rows, pa.int64())
    if off.null_count < len(off):  # an insert-only table names no old row
        valid = pc.is_valid(off)
        e = prev_epoch(off.filter(valid).to_numpy())
        full = np.zeros(t.num_rows, np.int64)
        full[valid.to_numpy(zero_copy_only=False)] = e
        prev = pa.array(full, pa.int64(), mask=~valid.to_numpy(zero_copy_only=False))
    return pa.table({"op": t["change"], "repo": t["repo"], "path": t["path"],
                     "prev_epoch": prev})


def _write_epoch(
    root: str, state: dict, epoch: int, tables: list[pa.Table], num_shards: int, prev_epoch
) -> dict:
    """Split the epoch's change tables by key-hash shard and write one
    key-sorted, seq-stamped pointer file per touched shard, numbering
    rows from ``state["next_seq"]`` in shard order. Returns ``state``
    advanced to ``epoch``: its files, and under ``epochs`` the lake
    (epoch, pid) files its pointers name (``refs``) and its image
    schema, kept once in ``images`` for every epoch that shares it (the
    union of all ``tables``' payload columns, empty tables included)."""
    by_shard: dict[int, list[pa.Table]] = {}
    for t in tables:
        if not t.num_rows:
            continue
        ptr = _pointer_table(t, prev_epoch)
        sid = _shard_ids(ptr, num_shards)
        for s in np.unique(sid):
            by_shard.setdefault(int(s), []).append(ptr.filter(pa.array(sid == s)))
    seq = int(state["next_seq"])
    rels, refs = [], {}
    for s in sorted(by_shard):
        part = pa.concat_tables(by_shard[s]).sort_by([(k, "ascending") for k in KEY_COLS])
        n = part.num_rows
        out = pa.table({
            "seq": pa.array(seq + np.arange(n, dtype=np.int64), pa.int64()),
            "epoch": pa.array(np.full(n, epoch, dtype=np.int64), pa.int64()),
            **{c: part[c] for c in part.column_names},
        })
        after, before, kh = _pointers(out)
        for ptr in (after, before):
            for e, p in _groups(state, ptr, kh):
                refs.setdefault(str(e), set()).add(p)
        rels.append(_shard_rel(epoch, s))
        ckpt.atomic_write_parquet(out, os.path.join(root, rels[-1]))
        seq += n
    state = {**state, "epoch": epoch, "next_seq": seq, "num_shards": num_shards}
    if rels:
        images = base64.b64encode(pa.schema(_image_fields(tables)).serialize().to_pybytes())
        key = hashlib.sha256(images).hexdigest()[:16]
        state["files"] = {**state["files"], str(epoch): rels}
        state["images"] = {**state["images"], key: images.decode()}
        state["epochs"] = {**state["epochs"], str(epoch): {
            "images": key, "refs": {e: sorted(p) for e, p in sorted(refs.items())}}}
    return state


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
            changes = epoch_changes(root, epoch, old_payload=False)
            layout = ckpt.read_manifest_at(root, epoch).num_partitions
        except FileNotFoundError:
            changes = None  # the epoch's manifests were GC'd
    if changes is None:
        raise RuntimeError(
            f"egress at epoch {state['epoch']} cannot emit epoch {epoch}: the change set "
            f"of epoch {int(state['epoch']) + 1} is outside the retention window "
            "(EngineConfig.retain_epochs) — deltas are unrecoverable. Run "
            "egress_resync(root) and have consumers re-snapshot."
        )
    state = _with_layout(state, epoch, layout)
    floor = _anchor_floor(state)
    start = int(state["next_seq"])
    state = _write_epoch(root, state, epoch, changes, num_shards,
                         lambda offs: _offset_epochs(root, offs, floor, epoch - 1))
    commit_egressstate(root, state)
    seq = state["next_seq"]
    return {
        "epoch": epoch, "mode": "delta", "rows": seq - start,
        "files": len(state["files"].get(str(epoch), [])), "next_seq": seq,
    }


def egress_resync(root: str, num_shards: int = 16) -> dict:
    """Initial-snapshot epoch: every live lake row as an ``I`` with a
    null before-image, stamped at the current merge epoch R; the delta
    stream continues from there. The standard CDC-producer answer to
    "the binlog was purged": consumers re-snapshot, then resume. R
    becomes an anchor: its pointers, and every later before-image of a
    key last written before R, resolve through the chain at R.

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
    state = _with_anchor(root, state, merge_epoch)
    start = int(state["next_seq"])
    state = _write_epoch(root, state, merge_epoch, parts, num_shards, None)
    state["resync_epochs"] = sorted(set(state.get("resync_epochs", [])) | {merge_epoch})
    commit_egressstate(root, state)
    seq = state["next_seq"]
    return {"epoch": merge_epoch, "mode": "snapshot_resync", "rows": seq - start,
            "files": len(state["files"].get(str(merge_epoch), [])), "next_seq": seq}


# -------------------------------------------------------------- pointers


def _pointers(t: pa.Table) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A pointer table's after- and before-image epochs per row (-1
    where the row has no such image) and its rows' key hashes."""
    is_del = pc.equal(t["op"], "D").combine_chunks().to_numpy(zero_copy_only=False)
    after = np.where(is_del, -1, t["epoch"].combine_chunks().to_numpy())
    before = pc.fill_null(t["prev_epoch"], -1).combine_chunks().to_numpy()
    return after, before, key_hash(t)


def _lake_files(state: dict, epoch: int, pids) -> list[str]:
    """The lake files (relative to the root) that hold epoch ``epoch``'s
    images of keys in partitions ``pids``."""
    anchor = state["anchors"].get(str(epoch))
    if anchor is not None:
        return [f for p in pids for f in anchor.get(str(p), [])]
    return [ckpt.partition_file("", int(p), epoch) for p in pids]


def _groups(state: dict, ptr: np.ndarray, kh: np.ndarray) -> dict[tuple, np.ndarray]:
    """(epoch, pid) → the rows whose pointer resolves there."""
    out = {}
    for e in np.unique(ptr[ptr >= 0]):
        rows = np.flatnonzero(ptr == e)
        pids = kh[rows] % _layout(state, int(e))
        for p in np.unique(pids):
            out[(int(e), int(p))] = rows[pids == p]
    return out


def _resolve(root: str, state: dict, parts: list[tuple[str, pa.Table]]) -> list[pa.Table]:
    """(egress file, pointer rows read from it) pairs → the egress rows
    with their images: ``seq, epoch, op, repo, path`` and the epoch's
    ``new_*``/``old_*`` columns. One keyed read per referenced lake
    file (an anchor's chain is reconciled); each decodes the whole
    file, so a read costs the referenced files, not its rows."""
    sides = []  # per table: (after groups, before groups, rows)
    want: dict[tuple, list[np.ndarray]] = {}
    for _rel, t in parts:
        after, before, kh = _pointers(t)
        groups = (_groups(state, after, kh), _groups(state, before, kh), t.num_rows)
        for side in groups[:2]:
            for g, rows in side.items():
                want.setdefault(g, []).append(kh[rows])
        sides.append(groups)
    images = {}
    for (e, p), khs in sorted(want.items()):
        kh_filter = pa.array(np.unique(np.concatenate(khs)), pa.int64())
        img = reconcile_tables(_read_chain(root, _lake_files(state, e, [p]), kh_filter))
        images[(e, p)] = img.append_column("_k", chain.LAKE.key(img))
    out = []
    for (rel, t), (after, before, n) in zip(parts, sides):
        epoch = state["epochs"][str(ckpt.file_epoch(rel))]
        fields = pa.ipc.read_schema(pa.py_buffer(base64.b64decode(
            state["images"][epoch["images"]])))
        keys = chain.LAKE.key(t)
        cols = {c: t[c].combine_chunks() for c in ("seq", "epoch", "op", *KEY_COLS)}
        for prefix, groups in (("new_", after), ("old_", before)):
            cols.update(_take_images(groups, n, keys, fields, prefix, images))
        out.append(pa.table(cols))
    return out


def _take_images(groups, n, keys, fields, prefix, images) -> dict[str, pa.Array]:
    """``prefix`` + each payload column of ``fields`` for the ``n``
    rows, from the image each row's pointer names (``groups``); null
    where a row has none."""
    pieces: dict[str, list[pa.Array]] = {f.name: [] for f in fields}
    order = []
    for g, rows in groups.items():
        img = images[g]
        pos = pc.index_in(keys.take(pa.array(rows)), value_set=img["_k"])
        if pos.null_count:
            raise RuntimeError(
                f"an egress pointer to epoch {g[0]}, partition {g[1]} names a key that "
                "the lake file does not hold"
            )
        for f in fields:
            col = (_as_array(img[f.name]).take(pos) if f.name in img.column_names
                   else pa.nulls(len(rows), f.type))
            pieces[f.name].append(col if col.type == f.type else pc.cast(col, f.type))
        order.append(rows)
    hit = np.zeros(n, bool)
    for rows in order:
        hit[rows] = True
    rest = np.flatnonzero(~hit)
    inverse = pa.array(np.argsort(np.concatenate([*order, rest]), kind="stable"))
    return {
        prefix + f.name:
            pa.concat_arrays([*pieces[f.name], pa.nulls(len(rest), f.type)]).take(inverse)
        for f in fields
    }


def lake_refs(root: str) -> set[str]:
    """Every lake file (relative to the root) that a committed egress
    epoch points to, through after- and before-images (each epoch's
    ``refs`` in the state), plus the latest anchor's chain: later
    before-images may still point there."""
    state = read_egressstate(root)
    out = {f for e in state["files"] for le, pids in state["epochs"][e]["refs"].items()
           for f in _lake_files(state, int(le), pids)}
    if state["anchors"]:
        latest = state["anchors"][str(_anchor_floor(state))]
        out.update(f for files in latest.values() for f in files)
    return {os.path.normpath(f) for f in out}


def egress_storage(root: str) -> dict:
    """What the stream costs on disk: its files' bytes, and the lake
    files (and bytes) that only its pointers keep — no lake state names
    them, so truncating the stream would release them."""
    def size(rel: str) -> int:
        try:
            return os.path.getsize(os.path.join(root, rel))
        except OSError:  # removed by a concurrent GC
            return 0

    only = lake_refs(root) - ckpt.LAKE.named(root, ckpt.LAKE.read(root), pins=False)
    return {"bytes": sum(size(r) for r in _live_rels(read_egressstate(root))),
            "lake_pinned_files": len(only), "lake_pinned_bytes": sum(size(f) for f in only)}


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
    path: consumers tail from a seq/epoch position), one resolving task
    per egress file."""
    import ray.data as rd

    rels = _live_rels(read_egressstate(root), from_epoch)
    if not rels:
        return rd.from_arrow(pa.table({"seq": pa.array([], pa.int64())}))

    def load(batch: pa.Table) -> pa.Table:
        # the state as the task runs, not as the Dataset was built: a
        # truncate in between may re-anchor an epoch, and the lake GC
        # keeps only the files the committed state points to
        state = read_egressstate(root)
        parts = [(r, pq.read_table(os.path.join(root, r))) for r in batch["rel"].to_pylist()]
        return pa.concat_tables(_resolve(root, state, parts), promote_options="default")

    return rd.from_items([{"rel": r} for r in rels]).map_batches(
        load, batch_format="pyarrow", batch_size=1
    )


def egress_table(root: str, from_epoch: int | None = None) -> pa.Table:
    """Driver-side egress stream in seq order, schemas unified across
    epochs (early epochs may predate evolved columns). Test/small-lake
    helper — the streaming path is :func:`egress_dataset`."""
    state = read_egressstate(root)
    parts = [(r, pq.read_table(os.path.join(root, r))) for r in _live_rels(state, from_epoch)]
    parts = _resolve(root, state, [(r, t) for r, t in parts if t.num_rows])
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
    consumer touches no row data. The batch's images are read from the
    lake files its rows point to, each decoded whole (see "Read cost"
    in the module docstring). ``max_rows`` caps the batch (rows are never
    split mid-seq — seqs are unique, so any prefix is valid). The
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
            parts.append((rel, t))
    if not parts:
        return pa.table({"seq": pa.array([], pa.int64())})
    if max_rows is not None:
        # the batch's last seq; a file past it still lends its columns
        seqs = np.sort(np.concatenate([t["seq"].to_numpy() for _rel, t in parts]))
        if len(seqs) > max_rows:
            last = pa.scalar(int(seqs[max_rows - 1]) if max_rows else -1, pa.int64())
            parts = [(rel, t.filter(pc.less_equal(t["seq"], last))) for rel, t in parts]
    out = pa.concat_tables(_resolve(root, state, parts), promote_options="default")
    return out.sort_by([("seq", "ascending")])


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

    Every epoch is checked before anything changes; then the trimmed
    state commits, and only then are the files deleted, so a refusal
    or a crash never leaves the committed state naming a deleted file
    (a crash leaves unreferenced files, which the egress GC sweeps).
    The commit anchors the stream at its epoch: keys last written in a
    truncated epoch keep their before-images in that epoch's lake chain,
    and the lake files that only the dropped epochs pointed to are
    released to the lake GC. Returns files removed."""
    state = read_egressstate(root)
    drop = {e: rels for e, rels in state["files"].items() if int(e) <= upto_epoch}
    groups = consumer_groups(root)
    floor = min(groups.values(), default=None)
    if not force and floor is not None:
        for e in sorted(drop, key=int):
            for rel in drop[e]:
                rng = _file_seq_range(os.path.join(root, rel))
                if rng is not None and rng[1] > floor:
                    slow = [g for g, s in groups.items() if s == floor]
                    raise ValueError(
                        f"truncating egress epoch {e} would drop seqs up to "
                        f"{rng[1]} but consumer group(s) {slow} are committed "
                        f"at {floor}; let them catch up or pass force=True to "
                        "strand them"
                    )
    if not drop:
        return 0
    files = {e: rels for e, rels in state["files"].items() if e not in drop}
    epochs = {e: v for e, v in state["epochs"].items() if e not in drop}
    state = {**state, "files": files, "epochs": epochs,
             "images": {k: v for k, v in state["images"].items()
                        if any(x["images"] == k for x in epochs.values())}}
    try:
        state = _with_anchor(root, state, int(state["epoch"]))
    except FileNotFoundError:
        pass  # the stream's epoch fell out of retention: it resumes by a resync
    # an anchor stays while a kept epoch points at it; the latest always
    kept = {int(e) for x in epochs.values() for e in x["refs"]}
    state["anchors"] = {e: a for e, a in state["anchors"].items()
                        if int(e) in kept or int(e) == _anchor_floor(state)}
    commit_egressstate(root, state)
    return sum(ckpt._remove(os.path.join(root, rel)) for rels in drop.values() for rel in rels)
