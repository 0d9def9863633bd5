"""Commit-ordered, idempotent, **delta-native** merge-apply of changelog
epochs into the lake.

The stateful heart of the engine (north_rule; SURVEY.md §7.0/§7.1 step 5),
LSM-style so per-epoch cost is O(delta), not O(state):

- events for epoch E = offset window ``[next_offset, next_offset+size)``
  read with Parquet row-group pushdown;
- key partitioning: ``pid = crc32(repo \\x00 path) % P``; the crc is
  also persisted as the ``_kh`` row key-hash, the chain files' sort key
  and the filter of their keyed reads.
  A direct two-stage exchange (read-and-split tasks → per-pid
  object-store shards, see :func:`run_epoch`) co-locates every key's
  events in one merge task per touched partition;
- per-partition merge task (:class:`MergePartition`), fully vectorized
  Arrow:

  1. drop events at-or-below the partition HWM and duplicate offsets
     (sort + neighbor-compare masks);
  2. reduce to the **net** last event per key (last-writer-wins within
     the epoch: sort by (key, offset), keep last per key);
  3. look up the pre-epoch rows of just the changed keys in the
     partition's delta chain: each file is read with a ``_kh`` ``is_in``
     filter, which drops rows after decoding and prunes no row group
     (pyarrow never tests ``is_in`` against row-group statistics, and an
     engine file is one row group), then the chain reconcile of
     ``chain.py`` (newest file wins, tombstones drop out). The payload
     columns are read only for the agg view, which takes the old
     images; egress needs only the old rows' ``_offset`` and the link
     index only which keys were there (step 6);
  4. write ONE per-epoch **delta file**: net upserts (full payload +
     ``_offset``) and tombstones (``_deleted=true``) — never a rewrite
     of the whole partition. Steps 1, 2 and the file's row order run
     on the key and meta columns; each payload column is copied once;
  5. when the driver marked the partition for compaction (its chain
     outgrows ``chain.COMPACT_AT`` files), compact it with
     ``chain.compact``: its files past the base merged into one file
     while they hold fewer bytes than the base, else the whole chain
     rewritten as one file — the only O(partition-state) moment, which
     comes once the deltas outgrow the base, not every COMPACT_AT
     epochs;
  6. build the partition's change table for the stores that read it
     and, given a link rule, run the link index's delta stage over its
     new side (``incremental.DeltaIndexStage``), returning its rows —
     nothing of either is written.

  Deterministic bytes ⇒ task retries and epoch replays converge
  (exactly-once = idempotence + atomic manifest swap);
- schema evolution: new event payload columns are unified into the
  state schema (missing → null, on both sides); renamed columns are
  mapped through a Silk-style DirectMapping rename
  (EntitySchema.renameProperty, silk-core/.../entity/EntitySchema.scala:147-153);
- each epoch's *change set* (old + new payload per changed key,
  **typed** per the unified schema; :func:`epoch_changes`) feeds the
  agg view, egress and re-linking: handed over in memory by the merge
  tasks, or derived from the lake's delta chains — never written. So
  do the link index's delta rows (:func:`take_epoch_index`): the merge
  tasks' when ``run_epoch`` got the link rule, else the link stage
  derives them from the change set. Plus lineage metrics (events
  applied, skew ratio, live rows tracked incrementally).

State is never authoritative in RAM: everything reconstructs from
(lake delta chains + offset log) — SURVEY.md §7.3 "actor-state restart".
"""

from __future__ import annotations

import glob
import os
import shutil
import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq

from silk_ray.cdc import chain, checkpoint as ckpt, exchange, split
from silk_ray.cdc.chain import SchemaConflictError  # noqa: F401 — callers catch it from here

KEY_COLS = ("repo", "path")
META_COLS = ("offset", "op", "txn")  # txn: transaction grouping (snap_txn_boundary), never payload
INTERNAL_COLS = ("_offset", "_deleted", "_kh")
DEFAULT_PARTITIONS = 64


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


def key_hash(t: pa.Table) -> np.ndarray:
    """The persisted ``_kh`` of each row: crc32 of ``repo \\x00 path``."""
    return _crc_keys(pc.binary_join_element_wise(
        pc.cast(t["repo"], pa.binary()), pc.cast(t["path"], pa.binary()), b"\x00"
    ))


def add_pid_column(num_partitions: int):
    """Append ``_kh`` (stable key hash, persisted as the chain files'
    sort and read-filter key) and ``pid`` (= _kh % P, the merge shuffle
    key)."""

    def fn(batch: pa.Table) -> pa.Table:
        kh = key_hash(batch)
        batch = batch.append_column("_kh", pa.array(kh, pa.int64()))
        return batch.append_column("pid", pa.array(kh % num_partitions, pa.int32()))

    return fn


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


def _run_edge_mask(arr, last: bool = False) -> pa.Array:
    """True at the first row (``last``: the last row) of each
    equal-value run of a sorted column."""
    arr = _as_array(arr)
    n = len(arr)
    if n <= 1:
        return pa.array([True] * n, pa.bool_())
    neq = _as_array(pc.not_equal(arr.slice(1), arr.slice(0, n - 1)))
    edge = pa.array([True])
    return pa.concat_arrays([neq, edge] if last else [edge, neq])


def reconcile_tables(tables: list[pa.Table]) -> pa.Table:
    """Reconcile a lake delta chain (ordered oldest→newest) with
    ``chain.reconcile``, sorted by (repo, path) key. Output keeps the
    internal ``_offset``/``_kh`` columns, drops ``_deleted``."""
    live = chain.reconcile(tables, chain.LAKE)
    if live is None:
        return pa.schema(
            [pa.field("repo", pa.string()), pa.field("path", pa.string())]
        ).empty_table()
    live = live.drop_columns([c for c in ("_deleted",) if c in live.column_names])
    return live.take(pc.sort_indices(chain.LAKE.key(live)))


def _read_chain(
    root: str,
    files: list[str],
    kh_filter: pa.Array | None = None,
    columns: list[str] | None = None,
) -> list[pa.Table]:
    """Read a partition's delta chain; with ``kh_filter`` set, only rows
    whose persisted ``_kh`` key hash is in it are kept. The filter is
    applied after each file is decoded: it is an ``is_in``, which
    pyarrow never tests against row-group statistics, so it saves
    memory, not reads. With ``columns`` set, only those columns
    (intersected with each file's own schema — evolution means chains
    are ragged) leave storage; callers must include the key/internal
    columns reconcile needs."""
    return [t for t, _schema in _read_files(root, files, kh_filter, columns)]


def _read_files(
    root: str,
    files: list[str],
    kh_filter: pa.Array | None = None,
    columns: list[str] | None = None,
) -> list[tuple[pa.Table, pa.Schema]]:
    """:func:`_read_chain`'s tables, each with its file's full schema
    (the footer's, when ``columns`` projects the read)."""
    out = []
    for f in files:
        path = os.path.join(root, f)
        cols = schema = None
        if columns is not None:
            schema = pq.read_schema(path)
            cols = [c for c in columns if c in schema.names]
        if kh_filter is not None:
            t = pq.read_table(path, filters=pc.field("_kh").isin(kh_filter), columns=cols)
        else:
            t = pq.read_table(path, columns=cols)
        out.append((t, t.schema if schema is None else schema))
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
        link_spec=None,
        n_block_partitions: int = 64,
        *,
        compact: frozenset,
        hand_off: bool,
        old_payload: bool = True,
    ):
        self.root = root
        self.epoch = epoch
        self.hwm = hwm
        self.part_files = part_files
        self.part_rows = part_rows
        self.renames = renames or {}  # event column -> state column
        # the link rule (a dict or a compiled LinkageRule): the link
        # index's delta rows are computed here, while the changed
        # payloads are already in memory
        self.link_spec = link_spec
        self.n_block_partitions = n_block_partitions
        self.compact = compact  # pids whose chain this epoch compacts
        self.hand_off = hand_off  # return the change table to the driver
        # the handed-off table carries the old payload images (else only
        # the old rows' ``_offset``)
        self.old_payload = old_payload

    def __call__(self, group: pa.Table) -> dict:
        """Merge one partition's events; returns its metrics, plus its
        change table under ``changes`` (None unless ``hand_off``) and its
        link-index delta rows under ``index`` (None without a link
        rule)."""
        pid = int(group["pid"][0].as_py())
        events = group.drop_columns(["pid"])
        if self.renames:
            names = [self.renames.get(n, n) for n in events.column_names]
            events = events.rename_columns(names)

        files = list(self.part_files.get(pid) or [])
        hwm = self.hwm.get(pid, -1)
        prev_rows = int(self.part_rows.get(pid, 0))

        # steps 1, 2 and 4's row order run on the key and meta columns
        # plus a row id into ``events``; step 4 takes each payload
        # column once, by that id
        n_in = events.num_rows
        ev = events.select(["offset", "op", "_kh", *KEY_COLS]).append_column(
            "_r", pa.array(np.arange(n_in, dtype=np.int64))
        )

        # -- 1. HWM + duplicate-offset filtering (vectorized) -----------
        ev = ev.filter(pc.greater(ev["offset"], hwm))
        below_hwm = n_in - ev.num_rows
        ev = ev.sort_by("offset")
        first = _run_edge_mask(ev["offset"])
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
            fp = _row_fingerprint(events.take(ev["_r"].take(pa.array(idx)))).to_pylist()
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
        ev = ev.append_column("_k", chain.LAKE.key(ev))
        order = pc.sort_indices(ev, sort_keys=[("_k", "ascending"), ("offset", "ascending")])
        ev = ev.take(order)
        net = ev.filter(_run_edge_mask(ev["_k"], last=True))
        payload_cols = _payload_columns(events.schema)

        # -- 3. pre-epoch rows of changed keys (keyed chain read) -------
        # Only a change table handed off with its old images reads their
        # payload (egress points at old rows by their ``_offset``; the
        # link index takes its old key sets from its own entity chain).
        # Otherwise the read is projected to the key and internal
        # columns, and the state schema comes from the footers of the
        # files whose filtered read had rows: the schema the full read
        # unifies.
        old = chain_schema = None
        payload_read = False
        if net.num_rows and files:
            payload_read = self.hand_off and self.old_payload
            read = _read_files(
                self.root, files, pc.unique(net["_kh"].combine_chunks()),
                None if payload_read else [*KEY_COLS, *INTERNAL_COLS],
            )
            old = reconcile_tables([t for t, _schema in read])
            hit = [schema for t, schema in read if t.num_rows]
            chain_schema = chain.unify_schema(hit) if hit else old.schema
            old = old.append_column("_k", chain.LAKE.key(old))

        state_schema = self._state_schema(events.schema, chain_schema, payload_cols)
        state_cols = [f.name for f in state_schema if f.name not in INTERNAL_COLS]

        # which changed keys the pre-epoch chain holds (exact key match;
        # the crc read filter only prefilters)
        is_del = pc.equal(net["op"], "D").to_numpy(zero_copy_only=False)
        old_keys = pa.array([], pa.string()) if old is None else old["_k"].combine_chunks()
        had_old = pc.is_in(net["_k"], value_set=old_keys).to_numpy(zero_copy_only=False)
        inserts_net = int((~is_del & ~had_old).sum())
        deletes_net = int((is_del & had_old).sum())
        new_rows = prev_rows + inserts_net - deletes_net

        # -- 4. epoch delta file: upserts + tombstones --------------------
        keep = ~is_del | had_old  # net-D with no prior row → nothing at all
        d = net.filter(pa.array(keep))
        order = pc.sort_indices(d, sort_keys=list(chain.LAKE.order)).to_numpy()
        d = d.take(pa.array(order))
        d_is_del = pa.array(is_del[keep][order])
        # tombstones carry no payload: their row id is null
        rows = pc.if_else(d_is_del, pa.nulls(d.num_rows, pa.int64()), d["_r"])
        delta_cols: dict[str, pa.Array] = {}
        for name in state_cols:
            ftype = state_schema.field(name).type
            if name in KEY_COLS:
                delta_cols[name] = d[name]
            elif name in events.column_names:
                col = events[name].take(rows)
                delta_cols[name] = col if col.type == ftype else pc.cast(col, ftype)
            else:
                delta_cols[name] = pa.nulls(d.num_rows, ftype)
        delta_cols["_offset"] = d["offset"]
        delta_cols["_deleted"] = d_is_del
        delta_cols["_kh"] = d["_kh"]
        delta_table = pa.table(delta_cols)
        delta_path = ckpt.partition_file(self.root, pid, self.epoch)
        ckpt.atomic_write_parquet(delta_table, delta_path)
        bytes_written = os.path.getsize(delta_path)
        files.append(os.path.relpath(delta_path, self.root))

        # -- 5. compaction, when the driver marked this partition ---------
        compaction = None
        if pid in self.compact:
            files, kind, nbytes = chain.compact(
                self.root, files, chain.LAKE, pid, self.epoch,
                lambda fs: _read_chain(self.root, fs),
            )
            bytes_written += nbytes
            compaction = (kind, nbytes)

        # -- 6. change table and link-index rows, handed to the driver -
        changes = index = None
        if self.hand_off or self.link_spec is not None:
            changes = changes_table(delta_table, old)
        if self.link_spec is not None:
            from silk_ray.cdc.incremental import DeltaIndexStage

            index = DeltaIndexStage(self.link_spec, self.n_block_partitions)(changes)

        return {
            "pid": pid,
            "events_in": n_in,
            "applied": applied,
            "dup_skipped": dup_skipped,
            "below_hwm": below_hwm,
            "upserts": upserts,
            "deletes": deletes_net,
            "rows": new_rows,
            "hwm": new_hwm,
            "files": files,
            "dirty": delta_table.num_rows,  # one change row per delta row
            "bytes_written": bytes_written,
            "compaction": compaction,  # (kind, bytes) or None
            "payload_read": payload_read,
            "changes": changes if self.hand_off else None,
            "index": index,
        }

    def _state_schema(
        self, event_schema: pa.Schema, chain_schema: pa.Schema | None, payload_cols: list[str]
    ) -> pa.Schema:
        """Union of the pre-epoch chain schema and the event payload
        columns; a column arriving with a different Arrow type promotes
        through the safe lattice or fails loudly (SchemaConflictError)."""
        fields: dict[str, pa.Field] = {}
        if chain_schema is not None:
            for f in chain_schema:
                if f.name not in INTERNAL_COLS:
                    fields[f.name] = f
        for c in payload_cols:
            etype = event_schema.field(c).type
            prev = fields.get(c)
            if prev is None:
                fields[c] = pa.field(c, etype)
            elif not prev.type.equals(etype):
                fields[c] = pa.field(c, chain.promote_type(c, prev.type, etype))
        return pa.schema(list(fields.values()))


def changes_table(delta: pa.Table, old: pa.Table | None) -> pa.Table:
    """One partition's change rows ``(repo, path, change, new_*, old_*,
    _old_offset)``, one per row of its epoch delta file (a key inserted
    and deleted within the epoch has none), sorted by key: D for a
    tombstone, U for a key the pre-epoch chain rows ``old`` hold, else
    I; ``new_*`` from the delta (null on a tombstone), ``old_*`` from
    ``old``, a pair per payload column in the delta's order and types;
    ``_old_offset`` is the old row's ``_offset`` (null on an I), which
    names the epoch that wrote it. An ``old`` read without payload (keys
    and internal columns only) gives null ``old_*``: enough for the
    link index, which reads the new side, and for egress, which points
    at the old row by its offset."""
    delta = delta.sort_by([("repo", "ascending"), ("path", "ascending")])
    n = delta.num_rows
    if old is not None and old.num_rows:
        pos = pc.index_in(chain.LAKE.key(delta), value_set=chain.LAKE.key(old))
    else:
        pos = pa.nulls(n, pa.int32())
    deleted = delta["_deleted"].combine_chunks()
    cols: dict[str, pa.Array] = {
        "repo": delta["repo"].combine_chunks(),
        "path": delta["path"].combine_chunks(),
        "change": pc.if_else(deleted, "D", pc.if_else(pc.is_valid(pos), "U", "I")),
    }
    for f in delta.schema:
        if f.name in KEY_COLS or f.name in INTERNAL_COLS:
            continue
        cols[f"new_{f.name}"] = delta[f.name].combine_chunks()
        if old is not None and f.name in old.column_names:
            ocol = old[f.name].combine_chunks()
            ocol = ocol if ocol.type == f.type else pc.cast(ocol, f.type)
            cols[f"old_{f.name}"] = ocol.take(pos)
        else:
            cols[f"old_{f.name}"] = pa.nulls(n, f.type)
    if old is not None and old.num_rows:
        cols["_old_offset"] = pc.cast(old["_offset"].combine_chunks(), pa.int64()).take(pos)
    else:
        cols["_old_offset"] = pa.nulls(n, pa.int64())
    return pa.table(cols)


def inserts_table(rows: pa.Table) -> pa.Table:
    """Live lake rows as a change table of inserts (no old images)."""
    live = pa.array(np.zeros(rows.num_rows, bool))
    return changes_table(rows.append_column("_deleted", live), None)


def _next_existing_offset(changelog, lo: int) -> int | None:
    """Smallest changelog offset >= lo, or None when exhausted. For
    Parquet changelogs this scans fragment row-group statistics first,
    reading only candidate row groups (offset-gap resilience); a
    snapshot list answers from its entries."""
    if isinstance(changelog, pa.Table):
        t = changelog.filter(pc.greater_equal(changelog["offset"], lo))
        if t.num_rows == 0:
            return None
        return int(pc.min(t["offset"]).as_py())
    if isinstance(changelog, list):
        return min((max(lo, s) for _f, s, n in changelog if n and s + n > lo), default=None)

    best: int | None = None
    for frag in pads.dataset(changelog, format="parquet").get_fragments():
        stats = _offset_stats(frag)
        if stats is not None and all(s["max"] < lo for s in stats):
            continue
        t = frag.to_table(columns=["offset"], filter=pc.field("offset") >= lo)
        if t.num_rows:
            m = int(pc.min(t["offset"]).as_py())
            best = m if best is None else min(best, m)
    return best


def _window_fragments(changelog, lo: int, hi: int) -> list:
    """Changelog fragments (file paths, the table itself, or snapshot
    list entries) that can contain window rows — fully-outside files
    pruned via row-group offset statistics (one footer read per file
    per epoch)."""
    if isinstance(changelog, pa.Table):
        t = changelog.filter(
            pc.and_(pc.greater_equal(changelog["offset"], lo), pc.less(changelog["offset"], hi))
        )
        return [t] if t.num_rows else []
    if isinstance(changelog, list):
        return [e for e in changelog if e[2] and e[1] < hi and e[1] + e[2] > lo]
    return [
        frag.path for frag in pads.dataset(changelog, format="parquet").get_fragments()
        if (stats := _offset_stats(frag)) is None
        or any(s["min"] < hi and s["max"] >= lo for s in stats)
    ]


def _offset_stats(frag) -> list[dict] | None:
    """A changelog fragment's per-row-group ``offset`` statistics, or
    None unless every row group has them."""
    try:
        frag.ensure_complete_metadata()
        stats = [rg.statistics.get("offset") if rg.statistics else None
                 for rg in frag.row_groups]
    except Exception:
        return None
    return stats if stats and all(s is not None for s in stats) else None


# per-file max-offset cache: changelog segment files are immutable, so
# a footer read per file happens once per process, not once per epoch
_MAX_OFF_CACHE: dict[str, int | None] = {}
_MISSING = object()


def _changelog_max_offset(changelog) -> int | None:
    """Highest offset present in the changelog — the lag reference
    point. Footer row-group statistics only (cached per immutable
    file); a file without stats falls back to one offset-column read,
    and a snapshot list answers from its entries."""
    if isinstance(changelog, pa.Table):
        v = pc.max(changelog["offset"]).as_py()
        return int(v) if v is not None else None
    if isinstance(changelog, list):
        return max((s + n - 1 for _f, s, n in changelog if n), default=None)

    out: int | None = None
    for frag in pads.dataset(changelog, format="parquet").get_fragments():
        m = _MAX_OFF_CACHE.get(frag.path, _MISSING)
        if m is _MISSING:
            stats = _offset_stats(frag)
            m = None if stats is None else max(int(s["max"]) for s in stats)
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
    return "txn" in pads.dataset(changelog, format="parquet").schema.names


def _read_offset_txn(changelog, lo: int, hi: int) -> pa.Table:
    """(offset, txn) rows with ``lo <= offset < hi``, offset-sorted.
    Parquet changelogs read only the two columns with the range filter
    pushed down (row-group statistics prune untouched groups)."""
    if isinstance(changelog, pa.Table):
        t = changelog.select(["offset", "txn"])
        t = t.filter(pc.and_(pc.greater_equal(t["offset"], lo), pc.less(t["offset"], hi)))
    else:
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
    t = add_pid_column(num_partitions)(t)
    return split(t, t["pid"])


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
    path = os.path.join(_dlq_dir(root, epoch), f"part-{frag_idx:04d}.parquet")
    ckpt.atomic_write_parquet(dead, path)
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
    """Exchange map: read one window fragment, validate, split the
    valid events by pid. Beside the shards only a dead-letter count
    summary travels to the driver; quarantined rows are written to the
    DLQ from here (they can be window-sized under an adversarial
    stream). A snapshot list entry ``(file, first offset, rows)``
    becomes its insert events here."""
    if isinstance(src, pa.Table):
        t = src
    elif isinstance(src, tuple):
        from silk_ray.cdc.bootstrap import _synth_table

        path, start, n = src
        a, b = max(lo - start, 0), min(hi - start, n)
        t = _synth_table(pq.read_table(path), start).slice(a, b - a)
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
    return _split_by_pid(t, num_partitions), summary


def _merge_pid_task(pid: int, merger, *shards) -> dict:
    """Exchange reduce: run the merge body (``MergePartition.__call__``)
    over partition ``pid``'s shards."""
    group = shards[0] if len(shards) == 1 else pa.concat_tables(shards, promote_options="default")
    return merger(group)


def run_epoch(
    root: str,
    changelog,
    epoch_size: int = 100_000,
    num_partitions: int = DEFAULT_PARTITIONS,
    renames: dict[str, str] | None = None,
    link_spec=None,
    n_block_partitions: int = 64,
    payload_schema: dict[str, str] | None = None,
    enrich_specs: list[dict] | None = None,
    strict_columns: bool = False,
    txn_atomic: bool = False,
) -> dict | None:
    """Tail one epoch window off the changelog and merge-apply it.

    ``changelog`` is a parquet path/dir (the binlog segments), an
    in-memory ``pa.Table`` (tests), or a snapshot as a list of
    ``(parquet file, first offset, rows)`` entries, whose rows become
    insert events at consecutive offsets inside the read tasks
    (``bootstrap.py``). Returns the epoch metrics dict, or
    None when no events remain. Offset gaps larger than one window are
    skipped over (the window anchors at the next existing offset).

    The events→partitions shuffle is one :func:`silk_ray.cdc.exchange`:
    read-and-split tasks per window fragment, then one merge task per
    dirty partition (crc32 key hash mod P, stable across epochs).

    With ``link_spec`` (a rule dict or a compiled ``LinkageRule``) the
    merge tasks also return the link index's delta rows for
    ``n_block_partitions``, kept in memory for the link stage
    (:func:`take_epoch_index`).
    """
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

    # the merge tasks hand the epoch's change tables to the driver only
    # when a store that reads them committed E-1 (an absent store reads
    # as epoch 0, hence epoch > 1), with the old payload images only for
    # the agg view (egress needs the old rows' offsets alone); the link
    # store gets its index rows instead, or derives them from the lake
    due = {s.name: epoch > 1 and int(s.read(root)["epoch"]) == epoch - 1
           for s in (ckpt.AGG_VIEW, ckpt.EGRESS)}
    merger = MergePartition(
        root, epoch, hwm, part_files, part_rows, renames,
        link_spec=link_spec, n_block_partitions=n_block_partitions,
        # a touched partition's chain grows by this epoch's delta file
        compact=frozenset(p for p, fs in part_files.items() if chain.compact_due(len(fs) + 1)),
        hand_off=any(due.values()),
        old_payload=due[ckpt.AGG_VIEW.name],
    )

    # a crashed attempt may have left DLQ shards for this epoch; clear
    # so the replay's shard set is exactly this window's (idempotent —
    # the quarantine is written pre-commit, from the read tasks)
    if os.path.isdir(_dlq_dir(root, epoch)):
        shutil.rmtree(_dlq_dir(root, epoch))
    deads, merged, (t_exchange, t_merge) = exchange(
        [
            (_read_split_task, f, lo, hi, num_partitions, root, epoch, i, payload_schema,
             enrich_specs, strict_columns)
            for i, f in enumerate(fragments)
        ],
        _merge_pid_task,
        merger,
    )
    metrics_rows = list(merged.values())
    dead_count, dead_max, dead_reasons = 0, None, {}
    for dead in deads:
        if dead is not None:
            dead_count += dead["count"]
            dead_max = dead["max_offset"] if dead_max is None else max(dead_max, dead["max_offset"])
            for k, v in dead["reasons"].items():
                dead_reasons[k] = dead_reasons.get(k, 0) + v
    if not metrics_rows and not dead_count:
        return None

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
    changes = [r.pop("changes") for r in metrics_rows]
    index = [r.pop("index") for r in metrics_rows]
    payload_reads = sum(r.pop("payload_read") for r in metrics_rows)
    compactions = [c for c in (r.pop("compaction") for r in metrics_rows) if c is not None]
    _remember_changes(root, epoch, changes if merger.hand_off else None,
                      None if link_spec is None else (link_spec, n_block_partitions, index),
                      merger.old_payload)

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
        # delta and compact files the merge tasks wrote, each sized in its task
        "bytes_written": int(sum(r["bytes_written"] for r in metrics_rows)),
        # the epoch's chain compactions per kind: merges of the deltas
        # and base rewrites, with the bytes each kind wrote
        "compactions": chain.count_compactions(compactions),
        # merge tasks whose pre-epoch chain read decoded payload columns
        "payload_reads": payload_reads,
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


# Delete lake partition files no retained manifest references (chain
# members superseded by compaction past the retention window, partial
# files of a crashed in-flight epoch) and trim manifest snapshots past
# the window, so a time-travel read never resolves a manifest whose
# files are gone. ``retain_epochs`` is the as-of-epoch depth
# (``snapshot_dataset(root, at_epoch=...)``); the current manifest's
# ``prev_files`` are kept regardless (crash replay). Returns files
# removed. Without it a tailing engine grows storage without bound.
gc_lake = ckpt.LAKE.gc


def epoch_changed_nothing(root: str, epoch: int) -> bool:
    """Merge epoch ``epoch`` changed no key, so it has no inputs to
    read: no change row (a repartition's record has no ``dirty_total``).
    An absent record counts as a change."""
    record = ckpt.read_json(ckpt.metrics_path(root, epoch))
    return record is not None and not record.get("dirty_total")


# The latest epoch this process merged or derived, one entry keyed by
# root, epoch and the identity of the epoch's manifest snapshot file (a
# lake rewritten under the same root is never served stale rows): its
# change set (None until handed off or derived) and the merge tasks'
# link-index rows, tagged with their rule and block-partition count
# (None once taken). run_epoch primes it, epoch_changes fills it on a
# miss.
_CHANGES: dict = {}


def _changes_key(root: str, epoch: int) -> tuple:
    st = os.stat(ckpt.LAKE._snapshot_path(root, epoch))
    return (os.path.realpath(root), epoch, st.st_ino, st.st_mtime_ns)


def _remember_changes(root: str, epoch: int, tables: list[pa.Table] | None,
                      index: tuple | None = None, old_payload: bool = True) -> None:
    """Remember ``tables`` (None: nothing) as the epoch's change set,
    ``[]`` when no table has a row (as :func:`epoch_changes` derives it),
    ``old_payload`` telling whether their ``old_*`` images were read,
    and ``index`` (``(rule, n_block_partitions, rows)`` or None) as its
    link-index rows."""
    _CHANGES.clear()
    if tables is not None and not any(t.num_rows for t in tables):
        tables = []
    _CHANGES[_changes_key(root, epoch)] = {"changes": tables, "index": index,
                                           "old_payload": old_payload}


def epoch_changes(root: str, epoch: int, old_payload: bool = True) -> list[pa.Table]:
    """Merge epoch ``epoch``'s change set: one :func:`changes_table` per
    touched partition in partition order, ``[]`` when no key changed.
    The merge tasks' in-memory tables when this process committed the
    epoch for a reader at ``epoch - 1``; otherwise derived (same rows,
    schema and order) from each touched partition's epoch delta file and
    its chain at manifest ``epoch - 1``, which raises FileNotFoundError
    outside the retention window (``EngineConfig.retain_epochs``).
    Without ``old_payload`` the ``old_*`` images may be null (only
    ``_old_offset`` names the old rows), and a derived read skips the
    old payload."""
    key = _changes_key(root, epoch)
    entry = _CHANGES.get(key) or {}
    if entry.get("changes") is None or (old_payload and not entry["old_payload"]):
        prev = ckpt.read_manifest_at(root, epoch - 1).partitions if epoch > 1 else {}
        tables = []
        if not epoch_changed_nothing(root, epoch):
            for pid, info in sorted(ckpt.read_manifest_at(root, epoch).partitions.items()):
                if info.get("epoch") != epoch:  # untouched this epoch
                    continue
                delta = pq.read_table(ckpt.partition_file(root, pid, epoch))
                files = (prev.get(pid) or {}).get("files")
                old = None
                if delta.num_rows and files:
                    old = reconcile_tables(_read_chain(
                        root, files, pc.unique(delta["_kh"].combine_chunks()),
                        None if old_payload else [*KEY_COLS, *INTERNAL_COLS],
                    ))
                tables.append(changes_table(delta, old))
        _remember_changes(root, epoch, tables, entry.get("index"), old_payload)
    return list(_CHANGES[key]["changes"])


def take_epoch_index(root: str, epoch: int, rule_spec, n_block_partitions: int) -> list | None:
    """The merge tasks' link-index rows of epoch ``epoch`` (one
    ``DeltaIndexStage`` output per touched partition, in partition
    order) when this process merged the epoch with this rule (``is`` or
    ``==``) and ``n_block_partitions``; else None. The memo drops them
    either way, so nothing stays pinned."""
    entry = _CHANGES.get(_changes_key(root, epoch))
    if entry is None or entry["index"] is None:
        return None
    rule, nbp, rows = entry["index"]
    entry["index"] = None
    return rows if nbp == n_block_partitions and (rule is rule_spec or rule == rule_spec) else None


def gc_link_inputs(root: str) -> int:
    """Delete the ``summaries/`` directory that a lake written before the
    link index's in-memory hand-off holds: nothing reads it any more.
    Returns files removed."""
    removed = sum(ckpt._remove(f) for f in glob.glob(os.path.join(root, "summaries", "*", "*")))
    shutil.rmtree(os.path.join(root, "summaries"), ignore_errors=True)
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
    out = chain.concat([t for t in tables if t.num_rows] or tables[:1]).sort_by(
        [("repo", "ascending"), ("path", "ascending")]
    )
    drop = [c for c in (("_offset",) if drop_offset else ()) if c in out.column_names]
    if drop:
        out = out.drop_columns(drop)
    return out


def lookup_keys(
    root: str, keys: list[tuple[str, str]], at_epoch: int | None = None
) -> pa.Table:
    """Point lookup: the live (or as-of-epoch) rows for specific
    (repo, path) keys WITHOUT a lake scan.

    Routing uses the pinned partition layout: key → crc32 → pid selects
    the one chain to read, so a k-key lookup reads at most k partitions'
    chains, not the lake. Each chain file is decoded whole: the
    persisted ``_kh`` filter is an ``is_in``, which pyarrow applies to
    decoded rows and never to row-group statistics. Keys are
    deduplicated; absent or deleted keys simply produce no row.
    Driver-side by design (point lookups are small); bulk key joins
    belong in the merge/link paths. A manifest that predates layout
    pinning (no ``num_partitions``) is refused.
    """
    manifest = (
        ckpt.read_manifest_at(root, at_epoch) if at_epoch is not None
        else ckpt.read_manifest(root)
    )
    n = manifest.num_partitions
    if n is None:
        raise ValueError(
            f"manifest at {root!r} predates layout pinning and does not record "
            "num_partitions; its key routing is unknown"
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
        t = t.append_column("_k", chain.LAKE.key(t))
        t = t.filter(pc.is_in(t["_k"], value_set=pa.array(sorted(want["keys"]))))
        if t.num_rows:
            hits.append(t.drop_columns(["_k"]))
    if not hits:
        return pa.table({"repo": pa.array([], pa.string()), "path": pa.array([], pa.string())})
    out = chain.concat(hits).sort_by([("repo", "ascending"), ("path", "ascending")])
    return out.drop_columns([c for c in ("_offset", "_kh") if c in out.column_names])


def lake_schema(root: str, at_epoch: int | None = None) -> list[tuple[str, str]]:
    """The lake's current (or as-of-epoch) unified payload schema —
    parquet footers only, no data read. Same-name fields across chain
    files promote through the same lattice the read path uses, so this
    reports exactly the schema ``state_table``/``scan_dataset`` would
    materialize. Internal columns omitted."""
    schema = chain.unify_schema([
        pq.read_metadata(f).schema.to_arrow_schema()
        for _pid, files in sorted(partition_chains(root, at_epoch).items())
        for f in files
    ])
    return [(f.name, str(f.type)) for f in schema if f.name not in INTERNAL_COLS]


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
