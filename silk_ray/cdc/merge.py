"""Commit-ordered, idempotent, **delta-native** merge-apply of changelog
epochs into the lake.

The stateful heart of the engine (north_rule; SURVEY.md §7.0/§7.1 step 5),
LSM-style so per-epoch cost is O(delta), not O(state):

- events for epoch E = offset window ``[next_offset, next_offset+size)``
  read with Parquet row-group pushdown;
- key partitioning: ``pid = crc32(repo \\x00 path) % P`` added in a
  ``map_batches`` stage (the crc is also persisted as the ``_kh`` row
  key-hash used for row-group pruning), then ``groupby("pid")``
  co-locates every key's events — the shuffle key reused by all lake
  operations;
- per-partition merge task (``map_groups``), fully vectorized Arrow:

  1. drop events at-or-below the partition HWM and duplicate offsets
     (sort + neighbor-compare masks);
  2. reduce to the **net** last event per key (last-writer-wins within
     the epoch: sort by (key, offset), keep last per key);
  3. look up the pre-epoch payload of just the changed keys from the
     partition's delta chain (reads filtered on ``_kh`` so Parquet
     row-group statistics prune untouched row groups);
  4. write ONE per-epoch **delta file**: net upserts (full payload +
     ``_offset``) and tombstones (``_deleted=true``) — never a rewrite
     of the whole partition;
  5. when the chain exceeds ``LAKE_COMPACT_AT`` files, reconcile it
     (newest-file-wins per key, tombstones drop out) and rewrite one
     compact file — the only O(partition-state) moment, amortized
     1/LAKE_COMPACT_AT per epoch.

  Deterministic bytes ⇒ task retries and epoch replays converge
  (exactly-once = idempotence + atomic manifest swap);
- schema evolution: new event payload columns are unified into the
  state schema (missing → null, on both sides); renamed columns are
  mapped through a Silk-style DirectMapping rename
  (EntitySchema.renameProperty, silk-core/.../entity/EntitySchema.scala:147-153);
- each epoch also writes a per-partition *dirty delta* (old + new
  payload per changed key, **typed** per the unified schema) for the
  stores that read it (agg view, egress, un-fused re-linking; see
  ``run_epoch``), plus lineage metrics (events applied, skew ratio,
  live rows tracked incrementally).

State is never authoritative in RAM: everything reconstructs from
(lake delta chains + offset log) — SURVEY.md §7.3 "actor-state restart".
"""

from __future__ import annotations

import glob
import os
import shutil
import time
import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from silk_ray.cdc import checkpoint as ckpt, remote

KEY_COLS = ("repo", "path")
META_COLS = ("offset", "op", "txn")  # txn: transaction grouping (snap_txn_boundary), never payload
INTERNAL_COLS = ("_offset", "_deleted", "_kh")
DEFAULT_PARTITIONS = 64
LAKE_COMPACT_AT = 8  # delta files per lake partition before compaction
# the stores that read an epoch's dirty delta (the link store through
# the linker summaries too)
DIRTY_READERS = (ckpt.LINKS, ckpt.AGG_VIEW, ckpt.EGRESS)


def key_partition(repo: str, path: str, num_partitions: int) -> int:
    return zlib.crc32(f"{repo}\x00{path}".encode()) % num_partitions


def _crc_keys(keys) -> np.ndarray:
    """crc32 per composite key, semantics identical to
    ``zlib.crc32(k)`` row by row (the persisted ``_kh`` layout).

    Fast path: a pyarrow binary Array is dictionary-encoded first so
    each DISTINCT key is hashed once and the per-row values come from
    a numpy take — binlog streams are key-skewed (hot repos/paths
    repeat within every batch), so uniques << rows and the last
    per-row Python loop on the per-event hot path collapses to a
    per-unique loop. A plain list of bytes still takes the direct
    per-row path."""
    if isinstance(keys, (pa.Array, pa.ChunkedArray)):
        arr = _as_array(keys)
        if arr.null_count:
            # a null repo/path survives binary_join as a null key; its
            # null dictionary index would become NaN -> INT64_MIN under
            # to_numpy and fancy-index garbage out of crc_u — fail as
            # loudly as zlib.crc32(None) did on the old path
            raise TypeError(
                f"_crc_keys: {arr.null_count} null key(s) — repo/path must be "
                "non-null (malformed events belong in the DLQ before keying)"
            )
        enc = arr.dictionary_encode()
        uniq = enc.dictionary.to_pylist()
        crc_u = np.fromiter((zlib.crc32(k) for k in uniq), dtype=np.int64, count=len(uniq))
        idx = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64, copy=False)
        return crc_u[idx] if len(uniq) else np.empty(0, np.int64)
    return np.fromiter((zlib.crc32(k) for k in keys), dtype=np.int64, count=len(keys))


def add_pid_column(num_partitions: int):
    """Append ``_kh`` (stable key hash, persisted for row-group pruning)
    and ``pid`` (= _kh % P, the merge shuffle key)."""

    def fn(batch: pa.Table) -> pa.Table:
        joined = pc.binary_join_element_wise(
            pc.cast(batch["repo"], pa.binary()), pc.cast(batch["path"], pa.binary()), b"\x00"
        )
        kh = _crc_keys(joined)
        batch = batch.append_column("_kh", pa.array(kh, pa.int64()))
        return batch.append_column("pid", pa.array(kh % num_partitions, pa.int32()))

    return fn


def _key_column(table: pa.Table) -> pa.Array:
    """repo \\x00 path composite key as a single Array."""
    return _as_array(pc.binary_join_element_wise(table["repo"], table["path"], "\x00"))


def _payload_columns(event_schema: pa.Schema) -> list[str]:
    return [n for n in event_schema.names if n not in META_COLS and n not in ("pid", "_kh")]


def _as_array(col) -> pa.Array:
    return col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col


def _row_fingerprint(t: pa.Table) -> pa.Array:
    """Deterministic per-row string fingerprint (all columns, sorted by
    name, cast to string, null-marked, joined) — the tiebreak that makes
    conflicting duplicate offsets resolve identically under ANY fragment
    or row order. Only computed when duplicates are present."""
    parts = []
    for name in sorted(t.column_names):
        col = t[name].combine_chunks()
        try:
            s = col if pa.types.is_string(col.type) else pc.cast(col, pa.string())
        except pa.ArrowInvalid:
            s = pa.array([str(v) for v in col.to_pylist()], pa.string())
        # length-prefix each part so the encoding is injective — a bare
        # separator join would collide when a value contains the
        # separator, re-admitting order dependence for that pair. The
        # null marker lives OUTSIDE the value alphabet (a validity flag,
        # not a fill value): filling nulls with any string S would make
        # null and a literal S encode identically, and that pair would
        # tie and fall back to row order — the exact nondeterminism this
        # fingerprint exists to remove.
        filled = pc.fill_null(s, "")
        encoded = pc.binary_join_element_wise(
            "v", pc.cast(pc.utf8_length(filled), pa.string()), filled, ":"
        )
        parts.append(pc.if_else(pc.is_valid(s), encoded, pa.scalar("n", pa.string())))
    return pc.binary_join_element_wise(*parts, "\x1f")


def _first_occurrence_mask(arr) -> pa.Array:
    """True at rows whose value differs from the previous row (input
    must be sorted by this column)."""
    arr = _as_array(arr)
    n = len(arr)
    if n <= 1:
        return pa.array([True] * n, pa.bool_())
    neq = _as_array(pc.not_equal(arr.slice(1), arr.slice(0, n - 1)))
    return pa.concat_arrays([pa.array([True]), neq])


def _last_occurrence_mask(arr) -> pa.Array:
    """True at the LAST row of each equal-value run (sorted input)."""
    arr = _as_array(arr)
    n = len(arr)
    if n <= 1:
        return pa.array([True] * n, pa.bool_())
    neq = _as_array(pc.not_equal(arr.slice(1), arr.slice(0, n - 1)))
    return pa.concat_arrays([neq, pa.array([True])])


class SchemaConflictError(ValueError):
    """A payload column arrived with an Arrow type that cannot be
    safely promoted against what the lake already holds."""


def _promote_type(name: str, a: pa.DataType, b: pa.DataType) -> pa.DataType:
    """Deterministic safe type promotion (Arrow's permissive unify
    lattice: null→anything, numeric widening int32+int64→int64,
    int+float→float64). Order-independent, so replay under any epoch
    shape converges to the same state schema. Incompatible kinds
    (numeric vs string, …) fail LOUDLY with the remedies named —
    the alternative is an opaque cast error deep in a merge task."""
    if a.equals(b):
        return a
    try:
        return pa.unify_schemas(
            [pa.schema([pa.field(name, a)]), pa.schema([pa.field(name, b)])],
            promote_options="permissive",
        ).field(name).type
    except Exception:
        raise SchemaConflictError(
            f"payload column {name!r} arrives as {b} but the lake holds {a} — no "
            "safe promotion exists. Remedies: fix the producer; migrate the lake "
            "to the new type through the binlog (rewrite_where with a typed "
            "transform rule on every live key, then resume); or declare "
            "payload_schema so lexically-invalid rows quarantine to the DLQ "
            "instead of changing the column's type."
        ) from None


def _unify_chain_schema(tables: list[pa.Table]) -> pa.Schema:
    """Union of payload schemas across chain files (insertion order:
    oldest file first, new columns appended as they appear; same-name
    fields with different types promote through the safe lattice)."""
    fields: dict[str, pa.Field] = {}
    for t in tables:
        for f in t.schema:
            prev = fields.get(f.name)
            if prev is None:
                fields[f.name] = f
            elif not prev.type.equals(f.type):
                fields[f.name] = pa.field(
                    f.name, _promote_type(f.name, prev.type, f.type)
                )
    return pa.schema(list(fields.values()))


def _pad_to_schema(t: pa.Table, schema: pa.Schema) -> pa.Table:
    cols = {}
    for f in schema:
        if f.name in t.column_names:
            col = t[f.name]
            cols[f.name] = col if col.type == f.type else pc.cast(col, f.type)
        else:
            cols[f.name] = pa.nulls(t.num_rows, f.type)
    return pa.table(cols)


def reconcile_tables(tables: list[pa.Table]) -> pa.Table:
    """Reconcile a delta chain (ordered oldest→newest): for each
    (repo, path) key only the newest file's row is authoritative;
    tombstone rows (``_deleted``) drop the key. Output keeps the
    internal ``_offset``/``_kh`` columns, drops ``_deleted``."""
    tables = [t for t in tables if t.num_rows]
    if not tables:
        return pa.schema(
            [pa.field("repo", pa.string()), pa.field("path", pa.string())]
        ).empty_table()
    schema = _unify_chain_schema(tables)
    parts = []
    for i, t in enumerate(tables):
        t = _pad_to_schema(t, schema)
        parts.append(t.append_column("_fidx", pa.array(np.full(t.num_rows, i, np.int32))))
    allt = pa.concat_tables(parts)
    allt = allt.append_column("_k", _key_column(allt))
    order = pc.sort_indices(
        allt, sort_keys=[("_k", "ascending"), ("_fidx", "descending")]
    )
    allt = allt.take(order)
    mask = _first_occurrence_mask(allt["_k"].combine_chunks())
    live = allt.filter(mask)
    if "_deleted" in live.column_names:
        live = live.filter(
            pc.invert(pc.fill_null(live["_deleted"], False))
        ).drop_columns(["_deleted"])
    return live.drop_columns(["_fidx", "_k"])


def _read_chain(
    root: str,
    files: list[str],
    kh_filter: pa.Array | None = None,
    columns: list[str] | None = None,
) -> list[pa.Table]:
    """Read a partition's delta chain; with ``kh_filter`` set, reads are
    filtered on the persisted ``_kh`` key hash so Parquet row-group
    statistics can prune row groups holding no changed key. With
    ``columns`` set, only those columns (intersected with each file's
    own schema — evolution means chains are ragged) leave storage;
    callers must include the key/internal columns reconcile needs."""
    out = []
    for f in files:
        path = os.path.join(root, f)
        cols = None
        if columns is not None:
            have = set(pq.ParquetFile(path).schema_arrow.names)
            cols = [c for c in columns if c in have]
        if kh_filter is not None:
            t = pq.read_table(path, filters=pc.field("_kh").isin(kh_filter), columns=cols)
        else:
            t = pq.read_table(path, columns=cols)
        out.append(t)
    return out


class MergePartition:
    """Per-partition merge task body. Instantiated on the driver with the
    epoch's small control state (HWM map, chain map) and shipped to tasks."""

    def __init__(
        self,
        root: str,
        epoch: int,
        hwm: dict[int, int],
        part_files: dict[int, list[str]],
        part_rows: dict[int, int],
        renames: dict[str, str] | None = None,
        link_spec: dict | None = None,
        n_block_partitions: int = 64,
        compact_at: int = LAKE_COMPACT_AT,
        *,
        write_dirty: bool,
    ):
        self.root = root
        self.epoch = epoch
        self.hwm = hwm
        self.part_files = part_files
        self.part_rows = part_rows
        self.renames = renames or {}  # event column -> state column
        # fused incremental-linking delta index: computing blocking-key
        # deltas here (while the dirty payloads are already in memory)
        # saves a whole Ray execution + dirty-file re-read per epoch
        self.link_spec = link_spec
        self.n_block_partitions = n_block_partitions
        self.compact_at = compact_at
        self.write_dirty = write_dirty
        self._delta_stage = None

    def _get_delta_stage(self):
        if self._delta_stage is None and self.link_spec is not None:
            from silk_ray.cdc.incremental import DeltaIndexStage

            self._delta_stage = DeltaIndexStage(
                self.link_spec,
                self.n_block_partitions,
                shard_root=self.root,
                epoch=self.epoch,
            )
        return self._delta_stage

    def __call__(self, group: pa.Table) -> pa.Table:
        pid = int(group["pid"][0].as_py())
        events = group.drop_columns(["pid"])
        if self.renames:
            names = [self.renames.get(n, n) for n in events.column_names]
            events = events.rename_columns(names)

        chain = list(self.part_files.get(pid) or [])
        hwm = self.hwm.get(pid, -1)
        prev_rows = int(self.part_rows.get(pid, 0))

        # -- 1. HWM + duplicate-offset filtering (vectorized) -----------
        n_in = events.num_rows
        ev = events.filter(pc.greater(events["offset"], hwm))
        below_hwm = n_in - ev.num_rows
        ev = ev.sort_by("offset")
        first = _first_occurrence_mask(ev["offset"].combine_chunks())
        dup_skipped = ev.num_rows - int(pc.sum(first).as_py() or 0)
        if dup_skipped:
            # duplicate offsets present: the survivor must not depend on
            # fragment/read order, or a replay that reads segments in a
            # different order diverges byte-wise. Verbatim duplicates
            # (the normal redelivery case) are unaffected; CONFLICTING
            # duplicates (a producer bug) deterministically resolve to
            # the fingerprint-min row. The fingerprint is computed ONLY
            # over the duplicated rows (dup_frac-sized, not window-sized)
            # and a Python loop runs only over the duplicate groups.
            o = ev["offset"].combine_chunks().to_numpy()
            dup_mask = np.zeros(len(o), bool)
            dup_mask[1:] = o[1:] == o[:-1]
            dup_mask[:-1] |= dup_mask[1:]
            idx = np.flatnonzero(dup_mask)
            fp = _row_fingerprint(ev.take(pa.array(idx))).to_pylist()
            keep = first.to_numpy(zero_copy_only=False).copy()
            keep[idx] = False
            start = 0
            for i in range(1, len(idx) + 1):
                if i == len(idx) or o[idx[i]] != o[idx[start]]:
                    w = min(range(start, i), key=fp.__getitem__)
                    keep[idx[w]] = True
                    start = i
            ev = ev.filter(pa.array(keep))
        else:
            ev = ev.filter(first)
        applied = ev.num_rows
        new_hwm = int(ev["offset"][-1].as_py()) if applied else hwm
        upserts = int(
            pc.sum(pc.cast(pc.not_equal(ev["op"], "D"), pa.int64())).as_py() or 0
        )

        # -- 2. net last event per key -----------------------------------
        ev = ev.append_column("_k", _key_column(ev))
        order = pc.sort_indices(ev, sort_keys=[("_k", "ascending"), ("offset", "ascending")])
        ev = ev.take(order)
        net = ev.filter(_last_occurrence_mask(ev["_k"].combine_chunks()))
        payload_cols = _payload_columns(events.schema)

        # -- 3. pre-epoch payload of changed keys (pruned chain read) ----
        old = None
        if net.num_rows and chain:
            kh_filter = pc.unique(net["_kh"].combine_chunks())
            old = reconcile_tables(_read_chain(self.root, chain, kh_filter))
            old = old.append_column("_k", _key_column(old))
            # exact-match (crc is just the prefilter)
            old = old.filter(pc.is_in(old["_k"], value_set=net["_k"].combine_chunks()))

        state_schema = self._state_schema(net, old, payload_cols)
        state_cols = [
            f.name for f in state_schema if f.name not in ("_offset", "_deleted", "_kh")
        ]

        # align old rows to net rows positionally (delta-sized python
        # index; payload stays in Arrow)
        old_idx_by_key: dict = {}
        if old is not None and old.num_rows:
            for i, k in enumerate(old["_k"].to_pylist()):
                old_idx_by_key[k] = i
        net_keys = net["_k"].to_pylist()
        net_ops = net["op"].to_pylist()
        old_pos = [old_idx_by_key.get(k, -1) for k in net_keys]  # -1 = absent

        is_del = np.array([op == "D" for op in net_ops])
        had_old = np.array([p >= 0 for p in old_pos])
        inserts_net = int((~is_del & ~had_old).sum())
        deletes_net = int((is_del & had_old).sum())
        new_rows = prev_rows + inserts_net - deletes_net

        # -- 4. epoch delta file: upserts + tombstones --------------------
        keep = ~is_del | had_old  # net-D with no prior row → nothing at all
        keep_arr = pa.array(keep)
        delta_src = net.filter(keep_arr)
        d_is_del = pa.array(is_del[keep])
        delta_cols: dict[str, pa.Array] = {}
        for name in state_cols:
            if name in KEY_COLS:
                delta_cols[name] = delta_src[name].combine_chunks()
            elif name in delta_src.column_names:
                ftype = state_schema.field(name).type
                col = delta_src[name]
                col = col if col.type == ftype else pc.cast(col, ftype)
                # tombstones carry no payload
                delta_cols[name] = pc.if_else(
                    d_is_del, pa.nulls(delta_src.num_rows, ftype), col.combine_chunks()
                )
            else:
                delta_cols[name] = pa.nulls(
                    delta_src.num_rows, state_schema.field(name).type
                )
        delta_cols["_offset"] = delta_src["offset"].combine_chunks()
        delta_cols["_deleted"] = d_is_del
        delta_cols["_kh"] = delta_src["_kh"].combine_chunks()
        delta_table = pa.table(delta_cols).sort_by(
            [("_kh", "ascending"), ("repo", "ascending"), ("path", "ascending")]
        )
        delta_path = ckpt.partition_file(self.root, pid, self.epoch)
        ckpt.atomic_write_parquet(delta_table, delta_path)
        chain.append(os.path.relpath(delta_path, self.root))

        # -- 5. compaction: bound the chain length ------------------------
        if len(chain) > self.compact_at:
            full = reconcile_tables(_read_chain(self.root, chain))
            full = full.sort_by(
                [("_kh", "ascending"), ("repo", "ascending"), ("path", "ascending")]
            )
            full = full.append_column(
                "_deleted", pa.array(np.zeros(full.num_rows, dtype=bool))
            )
            compact_path = ckpt.compact_file(self.root, pid, self.epoch)
            ckpt.atomic_write_parquet(full, compact_path)
            chain = [os.path.relpath(compact_path, self.root)]

        # -- 6. dirty delta (typed): written for the stores that read it,
        # built for them and for the fused delta index -----------------
        n_dirty = int((~(is_del & ~had_old)).sum())  # _dirty_table's rows
        delta_stage = self._get_delta_stage()
        if self.write_dirty or delta_stage is not None:
            dirty_table = self._dirty_table(
                net, old, old_pos, is_del, had_old, state_schema, state_cols
            )
            if self.write_dirty:
                ckpt.atomic_write_parquet(
                    dirty_table, ckpt.dirty_file(self.root, pid, self.epoch)
                )
        # fused delta index: write blockmap shards + linker summary now
        if delta_stage is not None:
            summary = delta_stage(dirty_table)
            summary_path = os.path.join(
                self.root, "summaries", f"p={pid:05d}", f"epoch-{self.epoch:06d}.parquet"
            )
            ckpt.atomic_write_parquet(summary, summary_path)

        return pa.table(
            {
                "pid": pa.array([pid], pa.int32()),
                "events_in": pa.array([n_in], pa.int64()),
                "applied": pa.array([applied], pa.int64()),
                "dup_skipped": pa.array([dup_skipped], pa.int64()),
                "below_hwm": pa.array([below_hwm], pa.int64()),
                "upserts": pa.array([upserts], pa.int64()),
                "deletes": pa.array([deletes_net], pa.int64()),
                "rows": pa.array([new_rows], pa.int64()),
                "hwm": pa.array([new_hwm], pa.int64()),
                "files": pa.array([chain], pa.list_(pa.string())),
                "dirty": pa.array([n_dirty], pa.int64()),
            }
        )

    def _state_schema(
        self, net: pa.Table, old: pa.Table | None, payload_cols: list[str]
    ) -> pa.Schema:
        """Union of pre-epoch chain schema and event payload columns;
        a column arriving with a different Arrow type promotes through
        the safe lattice or fails loudly (SchemaConflictError)."""
        fields: dict[str, pa.Field] = {}
        if old is not None:
            for f in old.schema:
                if f.name not in ("_offset", "_kh", "_k"):
                    fields[f.name] = f
        for c in payload_cols:
            etype = net.schema.field(c).type
            prev = fields.get(c)
            if prev is None:
                fields[c] = pa.field(c, etype)
            elif not prev.type.equals(etype):
                fields[c] = pa.field(c, _promote_type(c, prev.type, etype))
        return pa.schema(list(fields.values()))

    def _dirty_table(
        self,
        net: pa.Table,
        old: pa.Table | None,
        old_pos: list[int],
        is_del: np.ndarray,
        had_old: np.ndarray,
        state_schema: pa.Schema,
        state_cols: list[str],
    ) -> pa.Table:
        """(repo, path, change, new_*, old_*) per changed key, typed per
        the unified state schema; keys inserted-then-deleted within the
        epoch (no old, no new) are excluded."""
        keep = ~(is_del & ~had_old)
        keep_arr = pa.array(keep)
        src = net.filter(keep_arr)
        k_is_del = is_del[keep]
        k_had_old = had_old[keep]
        take_old = pa.array(
            [p if p >= 0 else None for p, kp in zip(old_pos, keep) if kp],
            pa.int64(),
        )
        change = np.where(k_is_del, "D", np.where(k_had_old, "U", "I"))
        cols: dict[str, pa.Array] = {
            "repo": src["repo"].combine_chunks(),
            "path": src["path"].combine_chunks(),
            "change": pa.array(change.tolist(), pa.string()),
        }
        n = src.num_rows
        del_mask = pa.array(k_is_del)
        for c in state_cols:
            if c in KEY_COLS:
                continue
            ftype = state_schema.field(c).type
            if c in src.column_names:
                col = src[c]
                col = col if col.type == ftype else pc.cast(col, ftype)
                cols[f"new_{c}"] = pc.if_else(del_mask, pa.nulls(n, ftype), col.combine_chunks())
            else:
                cols[f"new_{c}"] = pa.nulls(n, ftype)
            if old is not None and c in old.column_names:
                ocol = old[c].combine_chunks()
                ocol = ocol if ocol.type == ftype else pc.cast(ocol, ftype)
                cols[f"old_{c}"] = ocol.take(take_old)
            else:
                cols[f"old_{c}"] = pa.nulls(n, ftype)
        return pa.table(cols).sort_by([("repo", "ascending"), ("path", "ascending")])


def _next_existing_offset(changelog, lo: int) -> int | None:
    """Smallest changelog offset >= lo, or None when exhausted. For
    Parquet changelogs this scans fragment row-group statistics first,
    reading only candidate row groups (offset-gap resilience)."""
    if isinstance(changelog, pa.Table):
        t = changelog.filter(pc.greater_equal(changelog["offset"], lo))
        if t.num_rows == 0:
            return None
        return int(pc.min(t["offset"]).as_py())

    import pyarrow.dataset as pads

    dataset = pads.dataset(changelog, format="parquet")
    best: int | None = None
    for frag in dataset.get_fragments():
        try:
            frag.ensure_complete_metadata()
            rg_stats = [
                rg.statistics.get("offset") if rg.statistics else None
                for rg in frag.row_groups
            ]
        except Exception:
            rg_stats = None
        if rg_stats and all(s is not None for s in rg_stats):
            if all(s["max"] < lo for s in rg_stats):
                continue
        t = frag.to_table(columns=["offset"], filter=pc.field("offset") >= lo)
        if t.num_rows:
            m = int(pc.min(t["offset"]).as_py())
            best = m if best is None else min(best, m)
    return best


def _window_fragments(changelog, lo: int, hi: int) -> list:
    """Changelog fragments (file paths, or the table itself) that can
    contain window rows — fully-outside files pruned via row-group
    offset statistics (one footer read per file per epoch)."""
    if isinstance(changelog, pa.Table):
        t = changelog.filter(
            pc.and_(pc.greater_equal(changelog["offset"], lo), pc.less(changelog["offset"], hi))
        )
        return [t] if t.num_rows else []

    import pyarrow.dataset as pads

    out = []
    for frag in pads.dataset(changelog, format="parquet").get_fragments():
        keep = True
        try:
            frag.ensure_complete_metadata()
            stats = [
                rg.statistics.get("offset") if rg.statistics else None for rg in frag.row_groups
            ]
            if stats and all(s is not None for s in stats):
                keep = any(s["min"] < hi and s["max"] >= lo for s in stats)
        except Exception:
            pass
        if keep:
            out.append(frag.path)
    return out


# per-file max-offset cache: changelog segment files are immutable, so
# a footer read per file happens once per process, not once per epoch
_MAX_OFF_CACHE: dict[str, int | None] = {}
_MISSING = object()


def _changelog_max_offset(changelog) -> int | None:
    """Highest offset present in the changelog — the lag reference
    point. Footer row-group statistics only (cached per immutable
    file); a file without stats falls back to one offset-column read."""
    if isinstance(changelog, pa.Table):
        v = pc.max(changelog["offset"]).as_py()
        return int(v) if v is not None else None

    import pyarrow.dataset as pads

    out: int | None = None
    for frag in pads.dataset(changelog, format="parquet").get_fragments():
        m = _MAX_OFF_CACHE.get(frag.path, _MISSING)
        if m is _MISSING:
            m = None
            try:
                frag.ensure_complete_metadata()
                stats = [
                    rg.statistics.get("offset") if rg.statistics else None
                    for rg in frag.row_groups
                ]
                if stats and all(s is not None for s in stats):
                    m = max(int(s["max"]) for s in stats)
            except Exception:
                pass
            if m is None:
                col = pq.read_table(frag.path, columns=["offset"])["offset"]
                v = pc.max(col).as_py()
                m = int(v) if v is not None else None
            _MAX_OFF_CACHE[frag.path] = m
        if m is not None:
            out = m if out is None else max(out, m)
    return out


def _txn_column_present(changelog) -> bool:
    if isinstance(changelog, pa.Table):
        return "txn" in changelog.column_names
    import pyarrow.dataset as pads

    return "txn" in pads.dataset(changelog, format="parquet").schema.names


def _read_offset_txn(changelog, lo: int, hi: int) -> pa.Table:
    """(offset, txn) rows with ``lo <= offset < hi``, offset-sorted.
    Parquet changelogs read only the two columns with the range filter
    pushed down (row-group statistics prune untouched groups)."""
    if isinstance(changelog, pa.Table):
        t = changelog.select(["offset", "txn"])
        t = t.filter(pc.and_(pc.greater_equal(t["offset"], lo), pc.less(t["offset"], hi)))
    else:
        import pyarrow.dataset as pads

        t = pads.dataset(changelog, format="parquet").to_table(
            columns=["offset", "txn"],
            filter=(pc.field("offset") >= lo) & (pc.field("offset") < hi),
        )
    return t.sort_by([("offset", "ascending")]) if t.num_rows else t


def snap_txn_boundary(changelog, lo: int, hi: int) -> int:
    """Largest window end ``<= hi`` — or, when one transaction swallows
    the whole window, the smallest end ``> hi`` — such that no
    transaction spans the ``[lo, end)`` boundary.

    Binlog transaction semantics (MySQL binlog / Postgres WAL shape): a
    ``txn`` changelog column groups events into transactions that must
    commit atomically — a committed epoch must never expose half of
    one. Transactions are required to be CONTIGUOUS in offset order
    (the binlog shape: a transaction's events are emitted together at
    commit time); null ``txn`` marks a singleton. Three cases:

    - the last in-window event's transaction does not continue past
      ``hi`` → ``hi`` stands;
    - it continues, and it started after ``lo`` → shrink to its first
      offset (the whole transaction defers to the next epoch);
    - it continues and occupies the entire window → grow to its last
      offset + 1 (a transaction larger than the window still applies
      atomically, in one epoch).

    Enabling ``txn_atomic`` on a lake whose committed ``next_offset``
    sits mid-transaction (e.g. a prior non-atomic run) cannot repair
    that boundary — start from a transaction boundary.
    """
    if not _txn_column_present(changelog):
        return hi
    win = _read_offset_txn(changelog, lo, hi)
    if win.num_rows == 0:
        return hi
    t_last = win["txn"][win.num_rows - 1].as_py()
    if t_last is None:
        return hi  # singleton: never spans
    nxt = _next_existing_offset(changelog, hi)
    if nxt is None:
        return hi
    after = _read_offset_txn(changelog, nxt, nxt + 1)
    if after.num_rows == 0 or after["txn"][0].as_py() != t_last:
        return hi
    # t_last spans the boundary
    scalar = pa.scalar(t_last, type=win.schema.field("txn").type)
    mine = win.filter(pc.fill_null(pc.equal(win["txn"], scalar), False))
    first_off = int(pc.min(mine["offset"]).as_py())
    if first_off > lo:
        return first_off
    # the transaction swallows the window: grow to its end. Contiguity
    # means its rows are a prefix of everything from `nxt` onward, so a
    # forward chunk scan stops at the first non-matching row.
    end = nxt
    step = max(hi - lo, 4096)
    cur = nxt + 1
    while True:
        chunk = _read_offset_txn(changelog, cur, cur + step)
        if chunk.num_rows == 0:
            nn = _next_existing_offset(changelog, cur)
            if nn is None:
                break
            cur = nn
            continue
        neq = pc.invert(pc.fill_null(pc.equal(chunk["txn"], scalar), False))
        stop = None
        if bool(pc.any(neq).as_py()):
            stop = int(pc.index(neq, True).as_py())
        if stop == 0:
            break
        last_mine = chunk.num_rows - 1 if stop is None else stop - 1
        end = int(chunk["offset"][last_mine].as_py())
        if stop is not None:
            break
        cur = int(chunk["offset"][chunk.num_rows - 1].as_py()) + 1
    return end + 1


def _split_by_pid(t: pa.Table, num_partitions: int) -> dict[int, pa.Table]:
    """Sort by pid once, slice contiguous runs (combine_chunks so each
    shard serializes only its own rows into the object store)."""
    t = add_pid_column(num_partitions)(t)
    pid = t["pid"].to_numpy(zero_copy_only=False)
    order = np.argsort(pid, kind="stable")
    t = t.take(pa.array(order))
    spid = pid[order]
    uniq, starts = np.unique(spid, return_index=True)
    bounds = list(starts) + [len(spid)]
    return {
        int(u): t.slice(bounds[i], bounds[i + 1] - bounds[i]).combine_chunks()
        for i, u in enumerate(uniq)
    }


_VALID_OPS = ("I", "U", "D")


def _validate_events(
    t: pa.Table,
    payload_schema: dict[str, str] | None = None,
    strict_columns: bool = False,
) -> tuple[pa.Table, pa.Table | None]:
    """Split a changelog window into (valid, dead-lettered) events.

    Structural validation: an unknown op code or a null/empty repo/path
    cannot be merge-applied (the partition key hash is undefined, and
    pre-DLQ an unknown op was silently treated as an upsert) — such
    events are quarantined with a ``reason`` column instead of crashing
    the epoch or poisoning the lake. Null *offsets* need no rule here:
    the window filter (``offset >= lo AND offset < hi``) is the
    delivery contract, and a null offset never satisfies it.

    ``payload_schema`` (column name → ValueType id, e.g.
    ``{"lang": "StringValueType", "size": "IntegerValueType"}``) adds
    typed enforcement at ingest: the column's lexical form is validated
    with the reference's ValueType semantics (kernel/valuetypes.py) as a
    vectorized mask per column; a failing row quarantines with reason
    ``invalid_type:<col>``. Nulls pass (an absent value is never
    validated — MappingTarget semantics) and declared columns missing
    from this window's schema are skipped (schema evolution: the column
    may not exist yet). Deletes are validated like any event: a
    malformed payload on a D is a producer bug worth surfacing, and the
    delete itself can be replayed from the quarantine.

    ``strict_columns`` (requires ``payload_schema``) closes the schema
    world: a row carrying a NON-NULL value in any column outside
    (offset, op, keys, declared payload) quarantines with reason
    ``unknown_column:<col>`` instead of flowing into the lake as silent
    schema evolution. Off by default — open-world evolution is the CDC
    norm; strict is for governed pipelines where an undeclared producer
    column is a contract violation, not a migration.

    Returns ``(valid, dead)`` with ``dead=None`` when every event is
    well-formed (the overwhelmingly common case — one boolean reduction,
    no copies)."""
    op_ok = pc.fill_null(pc.is_in(t["op"], value_set=pa.array(list(_VALID_OPS))), False)

    def _key_ok(name: str):
        lens = pc.utf8_length(pc.cast(t[name], pa.string()))
        return pc.fill_null(pc.greater(lens, 0), False)

    key_ok = pc.and_(_key_ok("repo"), _key_ok("path"))
    valid = pc.and_(op_ok, key_ok)

    col_reason = None  # strict mode: per-row first undeclared column, or null
    if strict_columns:
        if not payload_schema:
            raise ValueError(
                "strict_columns requires payload_schema (the declared column "
                "set IS the closed world)"
            )
        # META_COLS, not a hand-listed subset: `txn` is engine metadata
        # (txn_atomic grouping), and quarantining it as an unknown
        # column would dead-letter every row of a txn-tagged changelog
        known = {*META_COLS, *KEY_COLS, *payload_schema}
        for col in sorted(c for c in t.column_names if c not in known):
            present = pc.is_valid(t[col])
            if pc.any(present).as_py() is not True:
                continue
            label = pa.scalar(f"unknown_column:{col}", type=pa.string())
            none_s = pa.scalar(None, type=pa.string())
            hit = pc.if_else(present, label, none_s)
            col_reason = hit if col_reason is None else pc.coalesce(col_reason, hit)
        if col_reason is not None:
            valid = pc.and_(valid, pc.is_null(col_reason))

    type_reason = None  # string array: per-row first failing column, or null
    if payload_schema:
        from silk_ray.kernel.valuetypes import value_type_by_id

        for col in sorted(payload_schema):
            if col not in t.column_names:
                continue
            vt = value_type_by_id(payload_schema[col])
            mask = vt.validate_array(pc.cast(t[col], pa.string()).combine_chunks())
            if pc.all(mask).as_py() is not False:
                continue
            label = pa.scalar(f"invalid_type:{col}", type=pa.string())
            none_s = pa.scalar(None, type=pa.string())
            hit = pc.if_else(mask, none_s, label)
            type_reason = hit if type_reason is None else pc.coalesce(type_reason, hit)
        if type_reason is not None:
            valid = pc.and_(valid, pc.is_null(type_reason))

    if t.num_rows == 0 or pc.all(valid).as_py():
        return t, None

    def _arr(a):  # normalize: pc kernels reject Array/ChunkedArray mixes
        return a.combine_chunks() if isinstance(a, pa.ChunkedArray) else a

    dead_mask = _arr(pc.invert(valid))
    dead = t.filter(dead_mask)
    tail = (
        _arr(type_reason).filter(dead_mask)
        if type_reason is not None
        else pa.nulls(dead.num_rows, pa.string())
    )
    if col_reason is not None:
        # strict violations outrank type failures (the column should
        # not exist at all, so its lexical form is moot)
        tail = pc.coalesce(_arr(col_reason).filter(dead_mask), tail)
    reason = pc.if_else(
        pc.invert(_arr(op_ok).filter(dead_mask)),
        pa.scalar("unknown_op", type=pa.string()),
        pc.if_else(
            pc.invert(_arr(key_ok).filter(dead_mask)),
            pa.scalar("null_key", type=pa.string()),
            tail,
        ),
    )
    return t.filter(valid), dead.append_column("reason", pc.cast(reason, pa.string()))


_ENRICH_CACHE: dict[str, object] = {}


def _enrich_transform(enrich_specs: list[dict]):
    """Compile enrichment rule specs once per worker process (the specs
    travel as plain dicts; the compiled tree is cached by its JSON
    form — actor-style setup-once without needing an actor)."""
    import json as _json

    key = _json.dumps(enrich_specs, sort_keys=True)
    ct = _ENRICH_CACHE.get(key)
    if ct is None:
        from silk_ray.kernel.rule import CompiledTransform, transform_rule_from_dict

        ct = CompiledTransform(
            [transform_rule_from_dict(s) for s in enrich_specs],
            error_column="__enrich_error",
            typed_output=True,
        )
        _ENRICH_CACHE[key] = ct
    return ct


def _enrich_events(
    t: pa.Table, enrich_specs: list[dict]
) -> tuple[pa.Table, pa.Table | None]:
    """Apply ingest-time enrichment rules (the JSON transform-rule DSL,
    incl. typed ValueType targets) to a validated window: each rule's
    target becomes/overwrites a payload column that flows into the lake
    like any producer column (schema evolution handles the add). Rows
    where a rule errors or fails its type are quarantined with reason
    ``enrich_error:<target>`` — the DLQ is this engine's transform error
    sink (ExecuteTransform.scala:76-79 routes failed entities to an
    error sink; here the quarantine is that sink). Deterministic by
    construction, so replay rewrites identical shards and lake state."""
    out = _enrich_transform(enrich_specs)(t)
    dead = None
    if "__enrich_error" in out.column_names:
        err = out["__enrich_error"].combine_chunks()
        bad = pc.is_valid(err)
        if pc.any(bad).as_py():
            # reason carries the failing rule's target (the error string
            # is "<target>: <message>")
            prefix = pc.extract_regex(err.filter(bad), r"^(?P<t>[^:]+):")
            reason = pc.binary_join_element_wise(
                pa.array(["enrich_error"] * pc.sum(pc.cast(bad, pa.int64())).as_py()),
                pc.struct_field(prefix, "t"),
                ":",
            )
            dead = t.filter(bad).append_column("reason", pc.cast(reason, pa.string()))
            keep = pc.invert(bad)
            t = t.filter(keep)
            out = out.filter(keep)
    for rule_col in out.column_names:
        if rule_col == "__enrich_error":
            continue
        col = out[rule_col]
        if rule_col in t.column_names:
            t = t.set_column(t.column_names.index(rule_col), rule_col, col)
        else:
            t = t.append_column(rule_col, col)
    return t, dead


def _dlq_dir(root: str, epoch: int) -> str:
    return os.path.join(root, "deadletter", f"epoch-{epoch:06d}")


def _write_dead_shard(root: str, epoch: int, frag_idx: int, dead: pa.Table) -> dict:
    """Persist one fragment's quarantined events to
    ``deadletter/epoch-NNNNNN/part-NNNN.parquet`` (atomic tmp+rename)
    from inside the read task — the dead rows (which carry full
    payloads) never travel to the driver; only this summary does. The
    epoch dir is cleared by the driver before dispatch, so a
    crash-replay of the window rewrites identical shards. The DLQ is
    exempt from lake GC — quarantine is an operator-facing audit
    surface."""
    dead = dead.sort_by([("offset", "ascending"), ("op", "ascending"), ("repo", "ascending")])
    d = _dlq_dir(root, epoch)
    os.makedirs(d, exist_ok=True)
    final = os.path.join(d, f"part-{frag_idx:04d}.parquet")
    tmp = f"{final}.tmp-{os.getpid()}"
    pq.write_table(dead, tmp)
    os.replace(tmp, final)
    vc = pc.value_counts(dead["reason"])
    return {
        "count": dead.num_rows,
        "max_offset": int(pc.max(dead["offset"]).as_py()),
        "reasons": {s["values"]: int(s["counts"]) for s in vc.to_pylist()},
    }


def dead_letters_table(root: str) -> pa.Table:
    """All quarantined events across epochs (driver-side audit helper;
    distributed consumers ``read_parquet`` the ``deadletter/`` dir)."""
    base = os.path.join(root, "deadletter")
    files = []
    if os.path.isdir(base):
        for ep in sorted(os.listdir(base)):
            d = os.path.join(base, ep)
            if os.path.isdir(d):
                files += [
                    os.path.join(d, f) for f in sorted(os.listdir(d)) if f.endswith(".parquet")
                ]
    if not files:
        return pa.table(
            {"offset": pa.array([], pa.int64()), "reason": pa.array([], pa.string())}
        )
    return pa.concat_tables([pq.read_table(f) for f in files], promote_options="default")


def _read_split_task(
    src, lo: int, hi: int, num_partitions: int, root: str, epoch: int, frag_idx: int,
    payload_schema: dict[str, str] | None = None,
    enrich_specs: list[dict] | None = None,
    strict_columns: bool = False,
) -> tuple[dict, dict | None]:
    """Exchange stage A: read one window fragment, validate, split the
    valid events by pid, put each shard into the object store. Only
    (pid -> ref) maps and a dead-letter count summary travel to the
    driver; quarantined rows are written to the DLQ from here (they can
    be window-sized under an adversarial stream)."""
    import ray

    if isinstance(src, pa.Table):
        t = src
    else:
        t = pq.read_table(src, filters=[("offset", ">=", lo), ("offset", "<", hi)])
    if t.num_rows == 0:
        return {}, None
    t, dead = _validate_events(t, payload_schema, strict_columns=strict_columns)
    if enrich_specs and t.num_rows:
        t, dead2 = _enrich_events(t, enrich_specs)
        if dead2 is not None:
            dead = dead2 if dead is None else pa.concat_tables(
                [dead, dead2], promote_options="default"
            )
    summary = _write_dead_shard(root, epoch, frag_idx, dead) if dead is not None else None
    if t.num_rows == 0:
        return {}, summary
    return {pid: ray.put(tbl) for pid, tbl in _split_by_pid(t, num_partitions).items()}, summary


def _merge_pid_task(merger, *shards) -> dict:
    """Exchange stage B: run the merge body (``MergePartition.__call__``)
    over this partition's shards.

    Multi-node: the shards arrive as DIRECT ObjectRef args (not a list),
    so Ray materializes them before the task body starts AND its
    locality-aware scheduler places the task on the node already holding
    the largest share of the shard bytes — the shuffle read is mostly
    node-local; the remainder moves via plasma object transfer and
    spills to disk under memory pressure rather than OOMing."""
    tables = list(shards)
    group = tables[0] if len(tables) == 1 else pa.concat_tables(tables, promote_options="default")
    return merger(group).to_pylist()[0]


def run_epoch(
    root: str,
    changelog,
    epoch_size: int = 100_000,
    num_partitions: int = DEFAULT_PARTITIONS,
    renames: dict[str, str] | None = None,
    link_spec: dict | None = None,
    n_block_partitions: int = 64,
    compact_at: int = LAKE_COMPACT_AT,
    payload_schema: dict[str, str] | None = None,
    enrich_specs: list[dict] | None = None,
    strict_columns: bool = False,
    txn_atomic: bool = False,
) -> dict | None:
    """Tail one epoch window off the changelog and merge-apply it.

    ``changelog`` is a parquet path/dir (the binlog segments) or an
    in-memory ``pa.Table`` (tests). Returns the epoch metrics dict, or
    None when no events remain. Offset gaps larger than one window are
    skipped over (the window anchors at the next existing offset).

    The events→partitions exchange is a direct two-stage raw-Ray
    shuffle (read-and-split tasks → per-pid object-store shards →
    one merge task per dirty partition) instead of
    ``groupby(pid).map_groups``: a sort-based groupby on a bounded
    epoch window pays boundary sampling + two all-to-all barriers for
    data that is already hash-partitionable in one pass — measured
    5-12 s fixed overhead per epoch at sf0.1 (most of the epoch).
    This is the documented raw-Ray exception: a keyed exchange whose
    partitioning (crc32 key hash mod P, stable across epochs) the
    Dataset API cannot express without a sort.
    """
    import ray

    manifest = ckpt.read_manifest(root)
    if manifest.num_partitions is not None and manifest.num_partitions != num_partitions:
        raise ValueError(
            f"lake at {root!r} is partitioned {manifest.num_partitions}-way but this "
            f"run was configured with num_partitions={num_partitions}. Merging with a "
            "different count would scatter keys across two layouts (duplicate live "
            "rows). Pass the pinned value, or change the layout with "
            "silk_ray.cdc.repartition.repartition_lake(root, new_num_partitions)."
        )
    lo = manifest.next_offset
    nxt = _next_existing_offset(changelog, lo)
    if nxt is None:
        return None
    lo = max(lo, nxt)
    hi = lo + epoch_size
    if txn_atomic:
        # binlog transaction atomicity: the committed epoch must hold
        # whole transactions only (snap_txn_boundary docstring)
        hi = snap_txn_boundary(changelog, lo, hi)

    fragments = _window_fragments(changelog, lo, hi)
    if not fragments:
        return None

    epoch = manifest.epoch + 1
    hwm = {pid: info["hwm"] for pid, info in manifest.partitions.items()}
    part_files = {pid: info["files"] for pid, info in manifest.partitions.items()}
    part_rows = {pid: info.get("rows", 0) for pid, info in manifest.partitions.items()}

    # the dirty delta is written only when a store that reads it has
    # committed epoch E-1 (an absent store reads as epoch 0, so the
    # first epoch always writes); the fused delta index reads it in
    # memory, so the link store counts only for an un-fused merge
    readers = [s for s in DIRTY_READERS if s is not ckpt.LINKS or link_spec is None]
    merger = MergePartition(
        root, epoch, hwm, part_files, part_rows, renames,
        link_spec=link_spec, n_block_partitions=n_block_partitions,
        compact_at=compact_at,
        write_dirty=any(int(s.read(root)["epoch"]) == epoch - 1 for s in readers),
    )

    t0 = time.perf_counter()
    # a crashed attempt may have left DLQ shards for this epoch; clear
    # so the replay's shard set is exactly this window's (idempotent —
    # the quarantine is written pre-commit, from the read tasks)
    if os.path.isdir(_dlq_dir(root, epoch)):
        shutil.rmtree(_dlq_dir(root, epoch))
    results = ray.get(
        [
            remote(_read_split_task).remote(
                f, lo, hi, num_partitions, root, epoch, i, payload_schema,
                enrich_specs, strict_columns,
            )
            for i, f in enumerate(fragments)
        ]
    )
    by_pid: dict[int, list] = {}
    dead_count, dead_max, dead_reasons = 0, None, {}
    for m, dead in results:
        for pid, ref in m.items():
            by_pid.setdefault(pid, []).append(ref)
        if dead is not None:
            dead_count += dead["count"]
            dead_max = dead["max_offset"] if dead_max is None else max(dead_max, dead["max_offset"])
            for k, v in dead["reasons"].items():
                dead_reasons[k] = dead_reasons.get(k, 0) + v
    if not by_pid and not dead_count:
        return None
    t_exchange = time.perf_counter() - t0
    metrics_rows = []
    if by_pid:
        merger_ref = ray.put(merger)
        metrics_rows = ray.get(
            [remote(_merge_pid_task).remote(merger_ref, *refs)
             for _, refs in sorted(by_pid.items())]
        )
    t_merge = time.perf_counter() - t0 - t_exchange

    # ---- commit ----
    # dead-lettered offsets advance the window too: a trailing malformed
    # event must not pin next_offset (the engine would re-read it forever)
    max_off = max(
        [r["hwm"] for r in metrics_rows] + ([dead_max] if dead_max is not None else [])
    )
    new_partitions = dict(manifest.partitions)
    for r in metrics_rows:
        new_partitions[int(r["pid"])] = {
            "files": list(r["files"]),
            "hwm": int(r["hwm"]),
            "rows": int(r["rows"]),
            "epoch": epoch,
        }
    new_manifest = ckpt.Manifest(
        epoch=epoch,
        next_offset=max(int(max_off) + 1, lo),
        partitions=new_partitions,
        prev_files=manifest.chain_files(),
        num_partitions=num_partitions,
    )
    ckpt.commit_manifest(root, new_manifest, window=(lo, hi))

    per_part = {
        int(r["pid"]): {k: int(v) for k, v in r.items() if k not in ("pid", "files")}
        for r in metrics_rows
    }
    events_per_part = [r["events_in"] for r in metrics_rows]
    mean_ev = sum(events_per_part) / len(events_per_part) if events_per_part else 0.0
    metrics = {
        "epoch": epoch,
        "window": [lo, hi],
        "events_applied": int(sum(r["applied"] for r in metrics_rows)),
        "dup_skipped": int(sum(r["dup_skipped"] for r in metrics_rows)),
        "below_hwm": int(sum(r["below_hwm"] for r in metrics_rows)),
        "rows_total": int(sum(r["rows"] for r in metrics_rows))
        + int(sum(part_rows.get(pid, 0) for pid in part_rows if pid not in per_part)),
        "dirty_total": int(sum(r["dirty"] for r in metrics_rows)),
        "partitions_touched": len(metrics_rows),
        "skew_ratio": (max(events_per_part) / mean_ev) if mean_ev else 0.0,
        # tailing lag: offsets still unconsumed after this commit (an
        # operator's "is the engine keeping up with the binlog" gauge)
        "lag_offsets": max(
            0, (_changelog_max_offset(changelog) or 0) - (new_manifest.next_offset - 1)
        ),
        "dead_lettered": int(dead_count),
        "dead_reasons": dead_reasons,
        "exchange_seconds": round(t_exchange, 3),
        "merge_seconds": round(t_merge, 3),
        "per_partition": per_part,
    }
    ckpt.write_metrics(root, epoch, metrics)
    return metrics


_file_epoch = ckpt.file_epoch

# Delete lake partition files no retained manifest references (chain
# members superseded by compaction past the retention window, partial
# files of a crashed in-flight epoch) and trim manifest snapshots past
# the window, so a time-travel read never resolves a manifest whose
# files are gone. ``retain_epochs`` is the as-of-epoch depth
# (``snapshot_dataset(root, at_epoch=...)``); the current manifest's
# ``prev_files`` are kept regardless (crash replay). Returns files
# removed. Without it a tailing engine grows storage without bound.
gc_lake = ckpt.LAKE.gc


def epoch_inputs(root: str, sub: str, epoch: int) -> list[str]:
    """Merge epoch ``epoch``'s per-partition input files under ``sub``
    (``dirty`` or ``summaries``), in partition order."""
    return sorted(glob.glob(os.path.join(root, sub, "*", f"epoch-{epoch:06d}.parquet")))


def epoch_changed_nothing(root: str, epoch: int) -> bool:
    """Merge epoch ``epoch`` changed no key, so it has no inputs to
    read: no dirty row (a repartition's record has no ``dirty_total``).
    An absent record counts as a change."""
    record = ckpt.read_json(ckpt.metrics_path(root, epoch))
    return record is not None and not record.get("dirty_total")


def gc_link_inputs(root: str) -> int:
    """Delete the dirty-delta and linker-summary files no present
    reader store (agg view, egress, links) can still read. A reader at
    epoch s reads s+1 next and s again after a one-epoch rollback; a
    store further behind rebuilds from the snapshot instead. With no
    reader, nothing older than the merge epoch is kept. Returns files
    removed."""
    merge_epoch = ckpt.read_manifest(root).epoch
    keep = set()
    for store in DIRTY_READERS:
        s = int(store.read(root)["epoch"])
        if s:
            keep.update((s, s + 1))
    removed = 0
    for sub in ("dirty", "summaries"):
        for f in glob.glob(os.path.join(root, sub, "*", "*.parquet")):
            e = _file_epoch(os.path.basename(f))
            if e is not None and e < merge_epoch and e not in keep:
                removed += ckpt._remove(f)
    return removed


def run_to_completion(root: str, changelog, epoch_size: int = 100_000, **kw) -> list[dict]:
    """Tail the changelog until exhausted; one manifest commit per epoch."""
    out = []
    while True:
        m = run_epoch(root, changelog, epoch_size=epoch_size, **kw)
        if m is None:
            return out
        out.append(m)


# ---------------------------------------------------------------------------
# snapshot access
# ---------------------------------------------------------------------------


def partition_chains(root: str, at_epoch: int | None = None) -> dict[int, list[str]]:
    """pid → ordered delta-chain file paths (absolute).

    ``at_epoch`` reads the manifest snapshot committed at that epoch
    (time-travel within the GC retention window) instead of the
    current one."""
    manifest = (
        ckpt.read_manifest(root)
        if at_epoch is None
        else ckpt.read_manifest_at(root, at_epoch)
    )
    return {
        pid: [os.path.join(root, f) for f in info.get("files", [])]
        for pid, info in sorted(manifest.partitions.items())
        if info.get("files")
    }


def _load_partition(files: list[str], drop_internal: bool = True) -> pa.Table:
    t = reconcile_tables([pq.read_table(f) for f in files])
    if drop_internal:
        t = t.drop_columns([c for c in ("_kh",) if c in t.column_names])
    return t


def snapshot_dataset(root: str, at_epoch: int | None = None):
    """The lake's state as a Ray Dataset: one reconcile task per
    partition chain (streaming; never materializes the lake).
    ``at_epoch`` time-travels to a retained earlier commit."""
    import ray.data as rd

    chains = partition_chains(root, at_epoch=at_epoch)
    if not chains:
        import pandas as pd

        return rd.from_pandas(pd.DataFrame({"repo": [], "path": []}))

    def load(batch: pa.Table) -> pa.Table:
        out = [_load_partition(row["files"]) for row in batch.to_pylist()]
        return out[0] if len(out) == 1 else pa.concat_tables(out, promote_options="default")

    return rd.from_items(
        [{"pid": pid, "files": files} for pid, files in chains.items()]
    ).map_batches(load, batch_format="pyarrow", batch_size=1)


def scan_dataset(
    root: str,
    columns: list[str] | None = None,
    where=None,
    at_epoch: int | None = None,
):
    """Column-pruned, predicate-filtered streaming scan of the lake
    state ("prune at the read" for lake consumers).

    - ``columns``: only these payload columns (plus the key/internal
      columns reconcile needs) leave storage — the parquet reads are
      projected per file, so a 2-column scan of a wide lake never
      deserializes the other columns.
    - ``where``: a predicate spec (cdc/erase.py ``compile_predicate``
      form: ANDed ==/!=/</<=/>/>=/contains/prefix/in conditions)
      applied AFTER the per-partition reconcile — newest-wins must see
      every row of a key, so row skipping cannot precede reconcile;
      only the projected columns are ever materialized, which bounds
      what the filter step holds.
    - ``at_epoch``: time-travel, same contract as snapshot_dataset.
    """
    import ray.data as rd

    from silk_ray.cdc.erase import compile_predicate

    mask = compile_predicate(where) if where is not None else None
    need = None
    if columns is not None:
        pred_cols = []
        if where is not None:
            conds = [where] if isinstance(where, dict) else list(where)
            pred_cols = [c["column"] for c in conds]
        # reconcile needs keys + lineage; evolution pads the rest
        need = list(dict.fromkeys(
            [*KEY_COLS, "_offset", "_deleted", "_kh", *pred_cols, *columns]
        ))

    chains = partition_chains(root, at_epoch=at_epoch)
    if not chains:
        import pandas as pd

        return rd.from_pandas(pd.DataFrame({"repo": [], "path": []}))

    out_cols = columns

    def load(batch: pa.Table) -> pa.Table:
        outs = []
        for row in batch.to_pylist():
            t = reconcile_tables(_read_chain(root, row["files"], columns=need))
            if mask is not None and t.num_rows:
                t = t.filter(mask(t))
            t = t.drop_columns([c for c in ("_offset", "_kh") if c in t.column_names])
            if out_cols is not None:
                keep = [c for c in [*KEY_COLS, *out_cols] if c in t.column_names]
                t = t.select(list(dict.fromkeys(keep)))
            outs.append(t)
        return outs[0] if len(outs) == 1 else pa.concat_tables(outs, promote_options="default")

    return rd.from_items(
        [{"pid": pid, "files": files} for pid, files in chains.items()]
    ).map_batches(load, batch_format="pyarrow", batch_size=1)


def state_table(
    root: str, drop_offset: bool = True, at_epoch: int | None = None
) -> pa.Table:
    """Driver-side full state (tests / small lakes only), sorted by key;
    chain schemas unified (evolution-added columns null-padded).
    ``at_epoch`` time-travels to a retained earlier commit."""
    chains = partition_chains(root, at_epoch=at_epoch)
    if not chains:
        return pa.table({"repo": pa.array([], pa.string()), "path": pa.array([], pa.string())})
    tables = [_load_partition(files) for files in chains.values()]
    schema = _unify_chain_schema([t for t in tables if t.num_rows]) if any(
        t.num_rows for t in tables
    ) else tables[0].schema
    aligned = [_pad_to_schema(t, schema) for t in tables]
    out = pa.concat_tables(aligned).sort_by(
        [("repo", "ascending"), ("path", "ascending")]
    )
    drop = [c for c in (("_offset",) if drop_offset else ()) if c in out.column_names]
    if drop:
        out = out.drop_columns(drop)
    return out


def lookup_keys(
    root: str,
    keys: list[tuple[str, str]],
    at_epoch: int | None = None,
    num_partitions: int | None = None,
) -> pa.Table:
    """Point lookup: the live (or as-of-epoch) rows for specific
    (repo, path) keys WITHOUT a lake scan.

    Routing uses the pinned partition layout: key → crc32 → pid selects
    the one chain to read, and the persisted ``_kh`` column lets Parquet
    row-group statistics prune row groups holding no requested key — at
    100 TB a k-key lookup touches k partitions' footers plus a handful
    of row groups, not the lake. Keys are deduplicated; absent or
    deleted keys simply produce no row. Driver-side by design (point
    lookups are small); bulk key joins belong in the merge/link paths.

    ``num_partitions`` is only consulted for legacy lakes whose manifest
    predates layout pinning.
    """
    manifest = (
        ckpt.read_manifest_at(root, at_epoch) if at_epoch is not None
        else ckpt.read_manifest(root)
    )
    n = manifest.num_partitions or num_partitions
    if n is None:
        raise ValueError(
            f"manifest at {root!r} predates layout pinning and does not record "
            "num_partitions; pass num_partitions= explicitly"
        )
    per_pid: dict[int, dict] = {}
    for repo, path in keys:
        kb = f"{repo}\x00{path}".encode()
        kh = zlib.crc32(kb)
        d = per_pid.setdefault(kh % n, {"khs": set(), "keys": set()})
        d["khs"].add(kh)
        d["keys"].add(f"{repo}\x00{path}")
    hits = []
    for pid, want in sorted(per_pid.items()):
        files = (manifest.partitions.get(pid) or {}).get("files") or []
        if not files:
            continue
        t = reconcile_tables(
            _read_chain(root, files, kh_filter=pa.array(sorted(want["khs"]), pa.int64()))
        )
        if not t.num_rows:
            continue
        t = t.append_column("_k", _key_column(t))
        t = t.filter(pc.is_in(t["_k"], value_set=pa.array(sorted(want["keys"]))))
        if t.num_rows:
            hits.append(t.drop_columns(["_k"]))
    if not hits:
        return pa.table({"repo": pa.array([], pa.string()), "path": pa.array([], pa.string())})
    schema = _unify_chain_schema(hits)
    out = pa.concat_tables([_pad_to_schema(t, schema) for t in hits])
    out = out.sort_by([("repo", "ascending"), ("path", "ascending")])
    return out.drop_columns([c for c in ("_offset", "_kh") if c in out.column_names])


def lake_schema(root: str, at_epoch: int | None = None) -> list[tuple[str, str]]:
    """The lake's current (or as-of-epoch) unified payload schema —
    parquet footers only, no data read. Same-name fields across chain
    files promote through the same lattice the read path uses, so this
    reports exactly the schema ``state_table``/``scan_dataset`` would
    materialize. Internal columns omitted."""
    fields: dict[str, pa.Field] = {}
    for _pid, files in sorted(partition_chains(root, at_epoch).items()):
        for f in files:
            for fld in pq.read_metadata(f).schema.to_arrow_schema():
                if fld.name in INTERNAL_COLS:
                    continue
                prev = fields.get(fld.name)
                if prev is None:
                    fields[fld.name] = fld
                elif not prev.type.equals(fld.type):
                    fields[fld.name] = pa.field(
                        fld.name, _promote_type(fld.name, prev.type, fld.type)
                    )
    return [(f.name, str(f.type)) for f in fields.values()]


def state_sha256(root: str, at_epoch: int | None = None) -> str:
    """Digest over the sorted state's per-row (repo, path, content sha256)
    — the replay-equality invariant (BASELINE.json input_hint)."""
    import hashlib

    t = state_table(root, at_epoch=at_epoch)
    h = hashlib.sha256()
    contents = t["content"].to_pylist() if "content" in t.column_names else [None] * t.num_rows
    for repo, path, content in zip(t["repo"].to_pylist(), t["path"].to_pylist(), contents):
        c = "" if content is None else content
        h.update(repo.encode())
        h.update(b"\x00")
        h.update(path.encode())
        h.update(b"\x00")
        h.update(hashlib.sha256(c.encode()).hexdigest().encode())
        h.update(b"\n")
    return h.hexdigest()
