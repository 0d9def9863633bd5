"""Incremental re-linking: maintain the linked table over the changelog.

The RD re-expression of "only entities whose blocking keys changed are
re-compared" (north_star; Silk's MultiBlock semantics from
rule/execution/methods/MultiBlock.scala applied delta-wise):

Persisted link state under ``lake_root/`` (LSM-style)::

    blockmap/bp={B}/delta-{E}-*.parquet    # per-epoch delta shards, one
                                           # row per (side, uri) entity:
                                           # (action, side, uri, keys,
                                           # vals_0..m), sorted by
                                           # (side, uri)
    blockmap/bp={B}/compact-{E}.parquet    # compacted chain (all 'add')
    links/epoch-{E}/part-*.parquet         # UNFILTERED link set as a file
                                           # MANIFEST: the linkstate lists
                                           # (file, rows, uri-bitset sketch)
                                           # entries across epoch dirs; an
                                           # epoch rewrites only files whose
                                           # sketch hits a dirty uri
    _linkstate.json                        # atomic pointer {epoch, per-bp
                                           # file chains, links manifest}

An entity's row sits in every block partition ``k % B`` of its blocking
keys ``k`` and carries its FULL sorted key set; its blocks in partition
``b`` are ``{k ∈ keys : k % B == b}``, exploded at read time. A blockmap
file with a ``key`` column (the older one-row-per-key layout) is
refused: the link store must be rebuilt from the snapshot.

Per merge epoch E (consuming the fused index's ``summaries/p=*/epoch-{E}``
files or the ``dirty/p=*/epoch-{E}.parquet`` deltas; a store more than
one epoch behind consumes the snapshot instead, see :func:`update_links`):

1. **delta index + shard write** (fused into the merge tasks, or its
   own ``map_batches`` pass; no shuffle): for every changed key and
   link side, compute the OLD payload's blocking keys and the NEW
   payload's keys + leaf-comparison values; write one 'add' entity row
   per partition of the new keys and one payload-less 'del' row per
   partition only the old keys had.
   Each task writes its per-bp shard files directly (same-epoch shards
   of one bp touch disjoint uris, so reconciliation order among them is
   irrelevant) and returns only a small ``(bp, file, key, uri)``
   summary, one row per old and new key. O(delta) writes.
2. **compaction**: partitions whose delta chain exceeds ``COMPACT_AT``
   are reconciled and rewritten to one file of entity rows (amortized
   O(lake/K)).
3. **delta re-score** (raw-task wave 1): per cost-balanced loader
   bucket, reconcile each chain once (newest-file-wins per uri), keep
   the affected blocks (vectorized ``is_in``), key-sub-split hot bps,
   dedupe entities by (uri, side) across the bucket's partitions and
   score them with :meth:`PairScorer.score_entities`: candidate pairs
   are enumerated in numpy over the sorted block index — pairs need ≥1
   dirty side (clean∩clean pairs keep their stored links) and are
   scored in their smallest shared block — then scored column-at-a-time,
   one batch kernel per leaf comparison and a columnar fold of the
   aggregation tree (:meth:`LinkageRule.score_pairs`). Work is
   O(entities touched by the delta), not O(rows in the affected
   blocks).
4. **links merge** (wave 1 drop-dirty tasks + wave 2 bundle-write
   tasks over the AFFECTED manifest files only): drop stored links
   touching a dirty uri, add the recomputed ones; each write task
   computes its own manifest entry (rows, uri sketch, n_new);
   unaffected files carry over by reference — O(delta + affected
   files) per epoch, not O(total links). Every wave-1 and write task
   times its own steps; the sums, the task counts and the candidate
   pairs scored and kept (``pairs``, ``pairs_kept``) are the ``task_s``
   map of ``_metrics/links-E.json``. Raw Ray tasks, not a
   Dataset: per-epoch deltas are small and the streaming-executor
   startup (~1.5 s/epoch) dominated the useful work (measured, see
   BASELINE.md); the batch-linking path stays a Dataset pipeline.

The maintained set is UNFILTERED (every pair with confidence ≥ limit);
the per-source top-k LinkFilter (Filter.scala:31-57) is applied as a
view by :func:`filtered_links` — incremental maintenance of a top-k
filtered set would otherwise need non-local re-ranking when a stored
best link disappears.

Bootstrap falls out naturally: after the first merge epoch every key is
dirty (all inserts), so the delta pass builds the full index and link
set.
"""

from __future__ import annotations

import glob
import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from silk_ray.cdc import checkpoint as ckpt, remote
from silk_ray.cdc.merge import INTERNAL_COLS, KEY_COLS, epoch_changed_nothing, epoch_inputs
from silk_ray.kernel.rule import LinkageRule
from silk_ray.linking.pipeline import _compile_rule

DEFAULT_BLOCK_PARTITIONS = 64


# ---------------------------------------------------------------------------
# link state: the checkpoint.LINKS epoch store
# ---------------------------------------------------------------------------


read_linkstate = ckpt.LINKS.read
commit_linkstate = ckpt.LINKS.commit
read_linkstate_at = ckpt.LINKS.read_at


# ---------------------------------------------------------------------------
# stage 1: delta index
# ---------------------------------------------------------------------------


class DeltaIndexStage:
    """Turn dirty rows into blockmap entity delta rows (both link sides).

    Per dirty row and side: one ``add`` row — the entity's full sorted
    ``keys`` and its leaf values — in every block partition
    ``{k % B : k ∈ new keys}``, and one payload-less ``del`` row in
    every partition ``{k % B : k ∈ old keys}`` the entity left.

    Each task writes its per-bp delta shard files DIRECTLY (no shuffle:
    every (uri, bp) pair is produced by exactly one task because the
    merge stage emits one dirty row per key per epoch, so same-epoch
    shards of one bp touch disjoint uris and their reconciliation order
    is irrelevant) and returns only a small summary ``(bp, file, key,
    uri)``, one row per old and new key and side — ``update_links``
    registers the shards and collects affected keys / dirty uris from
    it."""

    def __init__(self, rule_spec, n_block_partitions: int, shard_root: str, epoch: int = 0):
        from silk_ray.linking.pipeline import _spec_symmetric

        self.rule = _compile_rule(rule_spec)
        self.nbp = n_block_partitions
        self.shard_root = shard_root
        self.epoch = epoch
        self.n_leaves = len(self.rule.leaf_comparisons())
        self.schema = _delta_schema(self.n_leaves)
        # symmetric rules (every leaf's source == target spec): side-1
        # and side-0 evaluations coincide, so transforms/index hashing
        # run once per entity instead of per side
        self.symmetric = isinstance(rule_spec, dict) and _spec_symmetric(rule_spec)

    def _payload_entity(self, row: dict, prefix: str) -> dict | None:
        ent = {"repo": [row["repo"]], "path": [row["path"]]}
        any_val = False
        for k, v in row.items():
            if k.startswith(prefix):
                name = k[len(prefix):]
                ent[name] = [] if v is None else [str(v)]
                if v is not None:
                    any_val = True
        return ent if any_val else None

    def __call__(self, batch: pa.Table) -> pa.Table:
        from silk_ray.cdc.generator import make_uri

        rows: dict[str, list] = {f.name: [] for f in self.schema}
        row_bp: list[int] = []
        sum_key, sum_uri = [], []
        rule, nbp = self.rule, self.nbp
        no_vals = [None] * self.n_leaves

        def emit(bp, action, side, uri, keys, vals):
            row_bp.append(bp)
            rows["action"].append(action)
            rows["side"].append(side)
            rows["uri"].append(uri)
            rows["keys"].append(keys)
            for i, v in enumerate(vals):
                rows[f"vals_{i}"].append(v)

        for row in batch.to_pylist():
            uri = make_uri(row["repo"], row["path"])
            old_ent = self._payload_entity(row, "old_")
            new_ent = self._payload_entity(row, "new_")
            old_keys = new_keys = new_vals = None
            for side in (1, 0):
                sot = side == 1
                if old_ent is not None and (old_keys is None or not self.symmetric):
                    old_keys = sorted(rule.index_keys(old_ent, sot))
                if new_ent is not None and (new_keys is None or not self.symmetric):
                    new_keys, new_vals = rule.index_keys_and_values(new_ent, sot)
                    new_keys = sorted(new_keys)
                touched = (old_keys or []) + (new_keys or [])
                sum_key.extend(touched)
                sum_uri.extend([uri] * len(touched))
                new_bps = sorted({k % nbp for k in new_keys or ()})
                for bp in new_bps:
                    emit(bp, "add", side, uri, new_keys, new_vals)
                for bp in sorted({k % nbp for k in old_keys or ()}.difference(new_bps)):
                    emit(bp, "del", side, uri, None, no_vals)
        table = pa.Table.from_arrays(
            [pa.array(rows[f.name], type=f.type) for f in self.schema], schema=self.schema
        )
        return self._write_shards(table, np.asarray(row_bp, np.int64), sum_key, sum_uri)

    def _write_shards(self, table: pa.Table, row_bp: np.ndarray, sum_key, sum_uri) -> pa.Table:
        """Write one shard file per touched bp locally, rows sorted by
        (side, uri); return the summary rows, grouped by bp in order of
        first appearance."""
        import uuid

        sum_bp = [k % self.nbp for k in sum_key]
        rel_of: dict[int, str] = {}
        for bp in dict.fromkeys(sum_bp):
            shard = table.filter(pa.array(row_bp == bp)).sort_by(_ENTITY_ORDER)
            rel = os.path.join(
                "blockmap", f"bp={bp:05d}",
                f"delta-{self.epoch:06d}-{uuid.uuid4().hex[:8]}.parquet",
            )
            ckpt.atomic_write_parquet(shard, os.path.join(self.shard_root, rel))
            rel_of[bp] = rel
        rank = {bp: i for i, bp in enumerate(rel_of)}
        order = np.argsort([rank[bp] for bp in sum_bp], kind="stable").tolist()
        return pa.table(
            {
                "bp": pa.array([sum_bp[r] for r in order], pa.int32()),
                "file": pa.array([rel_of[sum_bp[r]] for r in order], pa.string()),
                "key": pa.array([sum_key[r] for r in order], pa.int64()),
                "uri": pa.array([sum_uri[r] for r in order], pa.string()),
            }
        )


# ---------------------------------------------------------------------------
# stage 2: blockmap partition rewrite
# ---------------------------------------------------------------------------


COMPACT_AT = 8  # delta files per blockmap partition before compaction
SPLIT_ROWS = 1000  # delta rows per loader task before a bp is key-sub-split

# blockmap row order within a file: newest-file-wins reconcile keeps it,
# so a block's entities come out in (file, side, uri) order
_ENTITY_ORDER = [("side", "ascending"), ("uri", "ascending"), ("action", "ascending")]


def _entity_schema(n_leaves: int) -> pa.Schema:
    """One blockmap entity: link side, uri, its full sorted blocking
    key set, and its leaf-comparison values."""
    fields = [
        pa.field("side", pa.int8()),
        pa.field("uri", pa.string()),
        pa.field("keys", pa.list_(pa.int64())),
    ]
    return pa.schema(fields + [pa.field(f"vals_{i}", pa.list_(pa.string())) for i in range(n_leaves)])


def _delta_schema(n_leaves: int) -> pa.Schema:
    return pa.schema([pa.field("action", pa.string())] + list(_entity_schema(n_leaves)))


def read_bp_reconciled(root: str, files: list[str], n_leaves: int) -> pa.Table:
    """Reconcile a blockmap partition from its ordered delta files
    (LSM-style) into its entity rows ``(side, uri, keys, vals_*)``: for
    every uri, only the NEWEST file mentioning it is authoritative (it
    holds the uri's current 'add' rows, one per side, for this
    partition; a 'del' row is a pure tombstone — a uri whose newest
    mention is del-only has left this partition)."""
    import pyarrow.compute as pc

    schema = _entity_schema(n_leaves)
    if not files:
        return schema.empty_table()
    tables = []
    for f in files:
        t = pq.read_table(os.path.join(root, f))
        if "key" in t.column_names:
            raise ValueError(
                f"blockmap file {f} has the old per-key layout (a 'key' column); "
                "the link store must be rebuilt: remove blockmap/, links/ and "
                "_linkstate.json, then engine.catch_up re-indexes the "
                "snapshot at the merge epoch (update_links' full mode)"
            )
        tables.append(t)
    if len(tables) == 1:
        t = tables[0]
        return t.filter(pc.equal(t["action"], "add")).select(schema.names).cast(schema)
    # vectorized newest-file-wins (the reconcile_tables shape,
    # merge.py): dictionary-encode uris across the chain, take the max
    # file index per code, keep each file's 'add' rows only where that
    # file is the uri's newest mention — no Python loop over uri lists
    allt = pa.concat_tables(
        [
            t.append_column("_fidx", pa.array(np.full(t.num_rows, i, np.int32)))
            for i, t in enumerate(tables)
        ]
    )
    codes_arr = pc.dictionary_encode(allt["uri"].combine_chunks()).indices
    codes = codes_arr.to_numpy(zero_copy_only=False).astype(np.int64)
    fidx = allt["_fidx"].to_numpy(zero_copy_only=False)
    newest = np.full(int(codes.max()) + 1 if codes.size else 0, -1, np.int32)
    np.maximum.at(newest, codes, fidx)
    mask = (fidx == newest[codes]) & pc.equal(allt["action"], "add").to_numpy(
        zero_copy_only=False
    )
    return allt.filter(pa.array(mask)).select(schema.names).cast(schema)


def _bp_blocks(ents: pa.Table, bp: int, n_block_partitions: int):
    """The block index ``(key, entity row)`` of one partition's entity
    rows: an entity sits in its blocks ``k ∈ keys`` with ``k % B == bp``
    (its other keys live in other partitions)."""
    import pyarrow.compute as pc

    keys = ents["keys"].combine_chunks()
    flat = pc.list_flatten(keys).to_numpy(zero_copy_only=False)
    parent = pc.list_parent_indices(keys).to_numpy(zero_copy_only=False)
    mine = flat % n_block_partitions == bp
    return flat[mine], parent[mine]


def _consolidate_bundle(root: str, bps: list[int], shard_lists: list[list[str]], epoch: int):
    """Merge each bp's SAME-EPOCH shard files (one per merge task that
    touched the bp; disjoint uris, so concat order is irrelevant) into
    one delta file. O(this epoch's delta). Deterministic content
    (sorted input file list, sorted rows) → idempotent on replay."""
    out = []
    for bp, files in zip(bps, shard_lists):
        rel = os.path.join("blockmap", f"bp={bp:05d}", f"delta-{epoch:06d}-merged.parquet")
        # replay fast-path: the merged file's content is uniquely
        # determined by (bp, epoch) — the shard set is fixed by the
        # epoch's committed summaries — so an existing file IS the
        # result (and after a post-commit rollback the original shards
        # may already be GC'd)
        if not os.path.exists(os.path.join(root, rel)):
            tables = [pq.read_table(os.path.join(root, f)) for f in sorted(files)]
            merged = pa.concat_tables(tables).sort_by(_ENTITY_ORDER)
            ckpt.atomic_write_parquet(merged, os.path.join(root, rel))
        out.append((bp, rel))
    return out


def _compact_bundle(root: str, bps: list[int], chains: list[list[str]], n_leaves: int, epoch: int):
    out = []
    for bp, files in zip(bps, chains):
        merged = read_bp_reconciled(root, files, n_leaves)
        merged = merged.add_column(
            0, "action", pa.array(["add"] * merged.num_rows, pa.string())
        ).sort_by(_ENTITY_ORDER)
        rel = os.path.join("blockmap", f"bp={bp:05d}", f"compact-{epoch:06d}.parquet")
        ckpt.atomic_write_parquet(merged, os.path.join(root, rel))
        out.append((bp, rel))
    return out


def _links_empty_table() -> pa.Table:
    return pa.table(
        {
            "source": pa.array([], pa.string()),
            "target": pa.array([], pa.string()),
            "confidence": pa.array([], pa.float64()),
            "epoch_added": pa.array([], pa.int32()),
        }
    )


def _lrs_bundle(
    root: str,
    bucket: dict,
    key_arr: pa.Array,
    uri_arr: pa.Array,
    payload,
    limit: float,
    n_leaves: int,
    n_block_partitions: int,
    epoch: int,
) -> tuple[pa.Table, dict]:
    """One cost-balanced loader bucket: reconcile each chain once, keep
    the blocks that are affected (vectorized ``is_in``) and in the
    item's key sub-split, dedupe entities by (uri, side) across the
    bucket's partitions — every partition's newest 'add' row for a uri
    comes from the same write, so the payload is identical — and score
    (no shuffle — bp co-locates every row of a key; see update_links).
    Returns the links and the task's seconds per step and pair counts."""
    import itertools
    import time

    import pyarrow.compute as pc

    from silk_ray.linking.pipeline import PairScorer

    t0 = time.perf_counter()
    items = zip(bucket["bps"], bucket["files"], bucket["msplits"], bucket["rsplits"])
    parts, blk_key, blk_ent = [], [], []
    n_ents = 0
    # a bucket is sorted by (bp, rsplit): one chain's items are adjacent
    for bp, group in itertools.groupby(items, key=lambda it: it[0]):
        group = list(group)
        ents = read_bp_reconciled(root, group[0][1], n_leaves)
        key, parent = _bp_blocks(ents, bp, n_block_partitions)
        hit = pc.is_in(pa.array(key), value_set=key_arr).to_numpy(zero_copy_only=False)
        key, parent = key[hit], parent[hit]
        keys_in, ents_in = [], []
        for _bp, _files, msplit, rsplit in group:
            mine = (key // n_block_partitions) % msplit == rsplit
            keys_in.append(key[mine])
            ents_in.append(parent[mine])
        key, parent = np.concatenate(keys_in), np.concatenate(ents_in)
        used, parent = np.unique(parent, return_inverse=True)
        parts.append(ents.take(pa.array(used)))
        blk_key.append(key)
        blk_ent.append(parent + n_ents)
        n_ents += len(used)
    ents = pa.concat_tables(parts) if parts else _entity_schema(n_leaves).empty_table()
    key = np.concatenate(blk_key) if blk_key else np.zeros(0, np.int64)
    ent = np.concatenate(blk_ent) if blk_ent else np.zeros(0, np.int64)
    if len(parts) > 1:
        codes = pc.dictionary_encode(ents["uri"].combine_chunks()).indices.to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        ident = codes * 2 + ents["side"].to_numpy(zero_copy_only=False)
        _u, first, inverse = np.unique(ident, return_index=True, return_inverse=True)
        ents = ents.take(pa.array(first))
        ent = inverse[ent]
    ents = ents.append_column("dirty", pc.is_in(ents["uri"], value_set=uri_arr))
    timings = {"load_s": time.perf_counter() - t0}
    scorer = PairScorer(payload, limit=limit, source_equals_target=True, dirty_col="dirty")
    out = scorer.score_entities(ents, key, ent, timings)
    out = out.append_column("epoch_added", pa.array(np.full(out.num_rows, epoch, np.int32)))
    return out, timings


def _drop_dirty_files(root: str, files: list[str], uri_arr: pa.Array) -> tuple[pa.Table, dict]:
    """Stored link files minus links touching a dirty uri, and the
    task's seconds."""
    import time

    import pyarrow.compute as pc

    t0 = time.perf_counter()
    parts = []
    for f in files:
        t = pq.read_table(os.path.join(root, f))
        keep = pc.and_(
            pc.invert(pc.is_in(t["source"], value_set=uri_arr)),
            pc.invert(pc.is_in(t["target"], value_set=uri_arr)),
        )
        parts.append(t.filter(keep))
    out = pa.concat_tables(parts) if parts else _links_empty_table()
    return out, {"drop_s": time.perf_counter() - t0}


LINK_FILE_ROWS = 500_000  # target rows per manifest file


def _write_links_bundle(
    root: str, dir_new: str, name: str, epoch: int, *bundle
) -> tuple[list[dict], dict]:
    """Concat a bundle of wave-1 ``(links, seconds)`` results and write
    size-bounded manifest files (≤ ``LINK_FILE_ROWS`` rows each — an
    oversized input file re-splits here, keeping per-epoch rewrite cost
    bounded per file), returning their entries + this epoch's
    recomputed counts (sketch computed here, not re-read by the caller)
    and the bundle's summed task seconds, this write included. An empty
    bundle writes nothing. The wave-1 outputs arrive as DIRECT
    ObjectRef args so Ray's locality-aware scheduler runs each write
    task where most of its bundle's bytes already live (multi-node:
    mostly node-local reads, remainder via plasma transfer)."""
    import time

    import pyarrow.compute as pc

    t0 = time.perf_counter()
    seconds: dict[str, float] = {}
    for _t, task_s in bundle:
        for k, v in task_s.items():
            seconds[k] = seconds.get(k, 0) + v
    tables = [t for t, _s in bundle if t.num_rows]
    merged = pa.concat_tables(tables) if tables else _links_empty_table()
    out = []
    n_chunks = -(-merged.num_rows // LINK_FILE_ROWS)
    per = -(-merged.num_rows // max(1, n_chunks))
    for j in range(n_chunks):
        chunk = merged.slice(j * per, per)
        if not chunk.num_rows:
            continue
        p = os.path.join(dir_new, f"{name}-{j:03d}.parquet")
        ckpt.atomic_write_parquet(chunk, p)
        n_new = int(
            pc.sum(pc.cast(pc.equal(chunk["epoch_added"], epoch), pa.int64())).as_py() or 0
        )
        out.append(
            {
                "file": os.path.relpath(p, root),
                "rows": chunk.num_rows,
                "sketch": _sketch_of_links(chunk),
                "n_new": n_new,
            }
        )
    seconds["write_s"] = time.perf_counter() - t0
    return out, seconds


# ---------------------------------------------------------------------------
# stage 3+4: delta re-score and links merge
# ---------------------------------------------------------------------------


def _as_inserts(t: pa.Table) -> pa.Table:
    """Snapshot rows as all-insert dirty rows: keys plus ``new_*``."""
    payload = [c for c in t.column_names if c not in KEY_COLS + INTERNAL_COLS]
    return t.select([*KEY_COLS, *payload]).rename_columns(
        [*KEY_COLS, *(f"new_{c}" for c in payload)]
    )


def update_links(
    root: str,
    rule_spec: dict | LinkageRule,
    epoch: int,
    *,
    limit: float = 0.0,
    n_block_partitions: int = DEFAULT_BLOCK_PARTITIONS,
    retain_epochs: int = 1,
) -> dict:
    """Process merge epoch ``epoch``'s delta into the link state.

    The delta comes from the fused index's summary files, or else from
    the epoch's dirty files through the delta-index stage. A store more
    than one epoch behind — or one whose epoch inputs were never written
    because no store read them — re-indexes the snapshot at ``epoch``
    through the same stage over an empty index and link set (``mode``
    ``"full"``; the cluster store then full-rebuilds too). An epoch
    that changed no key is a no-op commit.

    Returns link metrics (links_recomputed, links_removed, ...); a
    store already at or past ``epoch`` is a replay no-op.
    ``retain_epochs`` = as-of-epoch read depth for the link store
    (``links_table(at_epoch=)``); the replaced-file GC keeps that many
    past manifests' files.
    """
    state = read_linkstate(root)
    if state["epoch"] >= epoch:
        return {"epoch": epoch, "mode": "replay_noop"}

    import ray
    import ray.data as rd
    import pyarrow.compute as pc

    _phases: list[tuple[str, float]] = []
    _t_prev = [time.perf_counter()]

    def _mark(name: str) -> None:
        # per-phase wall clock: the ``phases`` map of the metrics record
        now = time.perf_counter()
        _phases.append((name, now - _t_prev[0]))
        _t_prev[0] = now

    rule = _compile_rule(rule_spec)
    n_leaves = len(rule.leaf_comparisons())
    payload = rule_spec if isinstance(rule_spec, dict) else rule

    summary_files = epoch_inputs(root, "summaries", epoch)
    dirty_files = [] if summary_files else epoch_inputs(root, "dirty", epoch)
    mode = "delta"
    if state["epoch"] < epoch - 1 or not (summary_files or dirty_files):
        if state["epoch"] == epoch - 1 and epoch_changed_nothing(root, epoch):
            state["epoch"] = epoch
            commit_linkstate(root, state)
            return {"epoch": epoch, "mode": "noop", "links_recomputed": 0,
                    "links_removed": 0, "links_total": _count_links(state)}
        mode = "full"

    # -- stage 1+2: delta index + per-bp shard writes --------------------
    # Preferred path: the merge stage already ran the delta index fused
    # into its tasks (MergePartition.link_spec) and left per-partition
    # summary files — read them driver-side, zero extra Ray executions.
    if mode == "delta" and summary_files:
        summary_batches = [pq.read_table(f) for f in summary_files]
        _mark("read_summaries")
    else:
        # the delta index as its own execution: over the dirty files
        # (the merge ran without link_spec), or over the snapshot as
        # all-insert rows (full mode)
        from silk_ray.linking.pipeline import cached_stage

        if mode == "full":
            from silk_ray.cdc.merge import snapshot_dataset

            src = snapshot_dataset(root, at_epoch=epoch).map_batches(
                _as_inserts, batch_format="pyarrow"
            )
        else:
            src = rd.read_parquet(dirty_files)
        summary_ds = src.map_batches(
            cached_stage(
                DeltaIndexStage,
                rule_spec=payload,
                n_block_partitions=n_block_partitions,
                shard_root=root,
                epoch=epoch,
            ),
            batch_format="pyarrow",
        )
        summary_batches = list(summary_ds.iter_batches(batch_format="pyarrow"))
        _mark("delta_index")

    import pyarrow.compute as pc

    # full mode indexes into an empty blockmap and link set
    base = {"blockmap": {}, "links_files": []} if mode == "full" else state
    bm_files: dict[int, list[str]] = {int(k): list(v) for k, v in base["blockmap"].items()}
    # vectorized driver-side collection (these summaries are delta-sized
    # but still ~K× the dirty count; python set loops here were a
    # measurable serial chunk per epoch)
    summary_all = pa.concat_tables(summary_batches) if summary_batches else None
    affected_keys: set[int] = set()
    dirty_uris: set[str] = set()
    new_shards: dict[int, list[str]] = {}
    if summary_all is not None and summary_all.num_rows:
        affected_keys = set(pc.unique(summary_all["key"]).to_pylist())
        dirty_uris = set(pc.unique(summary_all["uri"]).to_pylist())
        files_tbl = pa.table(
            {"bp": summary_all["bp"], "file": summary_all["file"]}
        ).group_by(["bp", "file"]).aggregate([])
        for bp, f in zip(files_tbl["bp"].to_pylist(), files_tbl["file"].to_pylist()):
            new_shards.setdefault(bp, []).append(f)
    # consolidate same-epoch shards (one per merge task that touched the
    # bp) into ONE delta file per bp: chains then grow O(1) per epoch,
    # so the full COMPACT_AT reconcile fires every ~COMPACT_AT epochs
    # per bp (amortized O(state/COMPACT_AT)) instead of every epoch —
    # without this, ~P shards/bp/epoch tripped compaction into an
    # O(total blockmap) rewrite per epoch (measured 0.6-0.9 s/epoch at
    # sf0.1, growing with state)
    multi = {bp: sorted(set(s)) for bp, s in new_shards.items() if len(set(s)) > 1}
    if multi:
        task = remote(_consolidate_bundle)
        items = sorted(multi.items())
        # one wave across the cluster: the cost is per-small-file IO
        # (~P shards per bp), so spread bps over ~2 tasks per CPU
        ncpu_c = int(ray.cluster_resources().get("CPU", 8))
        per = max(1, -(-len(items) // (2 * ncpu_c)))
        merged = ray.get(
            [
                task.remote(root, [bp for bp, _ in items[i : i + per]],
                            [fs for _, fs in items[i : i + per]], epoch)
                for i in range(0, len(items), per)
            ]
        )
        for bundle in merged:
            for bp, rel in bundle:
                new_shards[int(bp)] = [rel]
        _mark("consolidate")
    for bp, shards in new_shards.items():
        bm_files.setdefault(bp, []).extend(sorted(set(shards)))
    affected_bps = sorted({k % n_block_partitions for k in affected_keys})

    # -- compaction: bound each partition's delta chain ------------------
    # raw Ray tasks, not a Dataset: this is a driver-coordinated chain
    # maintenance op over a known small bp list; the streaming-executor
    # fixed cost (~0.5-1 s) was a measurable slice of every epoch
    to_compact = [bp for bp in bm_files if len(bm_files[bp]) > COMPACT_AT]
    if to_compact:
        task = remote(_compact_bundle)
        compacted = ray.get(
            [
                task.remote(root, to_compact[i : i + 4],
                            [bm_files[bp] for bp in to_compact[i : i + 4]],
                            n_leaves, epoch)
                for i in range(0, len(to_compact), 4)
            ]
        )
        for bundle in compacted:
            for bp, rel in bundle:
                bm_files[int(bp)] = [rel]
        _mark("compaction")

    # -- stage 3: re-score affected blocks ------------------------------
    keys_ref = ray.put(pa.array(sorted(affected_keys), pa.int64()))
    uris_ref = ray.put(pa.array(sorted(dirty_uris), pa.string()))

    # per-bp delta row counts (driver-side, from the summary): large
    # bps are SUB-SPLIT by key so no single scoring task becomes the
    # serial tail — pair scoring is O(block²)-ish and task-level skew
    # was the measured scaling blocker (straggler tasks of 5-6 s)
    rows_per_bp: dict[int, int] = {}
    if summary_all is not None and summary_all.num_rows:
        bp_counts = pa.table({"bp": summary_all["bp"]}).group_by("bp").aggregate([("bp", "count")])
        rows_per_bp = dict(
            zip(bp_counts["bp"].to_pylist(), bp_counts["bp_count"].to_pylist())
        )
    loader_items = []
    for bp in affected_bps:
        if not bm_files.get(bp):
            continue
        msplit = max(1, -(-rows_per_bp.get(bp, 0) // SPLIT_ROWS))
        for r in range(msplit):
            loader_items.append(
                {"bp": bp, "files": bm_files[bp], "msplit": msplit, "rsplit": r}
            )

    # adaptive parallelism: size loader tasks by the work actually
    # present — affected-chain bytes (driver-side getsize) AND the
    # delta-summary row count (pair scoring is CPU-bound per exploded
    # row, so compressed bytes alone undercount it). Fixed counts
    # (64/64) cost ~10s of pure task/shuffle overhead per epoch on
    # small deltas while the useful compute is milliseconds; both terms
    # grow the counts back to the cap at scale.
    n_summary = int(summary_all.num_rows) if summary_all is not None else 0
    total_bm_bytes = 0
    for bp in affected_bps:
        for f in bm_files.get(bp) or ():
            try:
                total_bm_bytes += os.path.getsize(os.path.join(root, f))
            except OSError:
                pass
    # cap at 4 waves of cluster CPUs: past that, extra tasks only add
    # scheduling overhead + redundant chain reads (each task rebuilds
    # the affected-key hash set and re-reads any chain split across
    # task boundaries)
    ncpu = int(ray.cluster_resources().get("CPU", 8))
    n_loader_tasks = int(
        max(
            1,
            min(
                len(loader_items),
                max(total_bm_bytes // (8 << 20), n_summary // 1_500) + 1,
                4 * ncpu,
            ),
        )
    )
    # explicit greedy bin-packing into n_loader_tasks buckets: pair
    # scoring is ~quadratic in a split's block sizes, so hot splits
    # must SPREAD across tasks (contiguous bp-major batching clumps a
    # hot bp's splits into one task — measured 2.7x-mean stragglers),
    # while same-chain items stay adjacent inside a bucket so the
    # loader memo still dedups chain reads
    est = {
        id(it): (rows_per_bp.get(it["bp"], 0) / it["msplit"]) ** 2 / 1_000
        + rows_per_bp.get(it["bp"], 0) / it["msplit"]
        for it in loader_items
    }
    buckets: list[list] = [[] for _ in range(n_loader_tasks)]
    loads = [0.0] * n_loader_tasks
    for it in sorted(loader_items, key=lambda x: -est[id(x)]):
        i = loads.index(min(loads))
        buckets[i].append(it)
        loads[i] += est[id(it)]
    # one dict per bucket (parallel lists); each wave-1 task takes
    # exactly one cost-balanced bucket
    loader_buckets = [
        {
            "bps": [it["bp"] for it in b],
            "files": [it["files"] for it in b],
            "msplits": [it["msplit"] for it in b],
            "rsplits": [it["rsplit"] for it in b],
        }
        for b in (sorted(b, key=lambda x: (x["bp"], x["rsplit"])) for b in buckets)
        if b
    ]

    # -- stage 3 (score) + stage 4 (links merge) as TWO RAW-TASK WAVES --
    # The stored link set is a MANIFEST of size-bounded parquet files,
    # each carrying a small uri-bitset sketch. Per epoch only files
    # whose sketch intersects the dirty-uri bits are rewritten
    # (drop-dirty + union with the recomputed links); every other file
    # is carried over BY REFERENCE. Per-epoch link-merge cost is
    # O(delta + affected files), not O(total links) — the same
    # delta-not-state principle as the blockmap LSM and the lake
    # merge-apply.
    #
    # Raw Ray tasks instead of a Dataset plan: wave 1 scores each
    # loader bucket / drop-dirties each affected-file group and returns
    # table refs; wave 2 concats refs per output file, writes it, and
    # computes its manifest entry (rows, sketch, n_new) IN the task —
    # no per-epoch streaming-executor startup and no driver-side
    # re-read of written files. Same shape as the merge stage's direct
    # exchange (merge.py), which replaced a sort-groupby for the same
    # reason.
    manifest = _links_manifest(base)
    dirty_bits = _uri_bits(sorted(dirty_uris))
    affected, carried = [], []
    for entry in manifest:
        if len(manifest) > MAX_LINK_FILES or _sketch_hits(entry["sketch"], dirty_bits):
            affected.append(entry)
        else:
            carried.append(entry)
    # above MAX_LINK_FILES every file became "affected" → this epoch's
    # write doubles as full compaction

    links_dir_new = os.path.join(root, "links", f"epoch-{epoch:06d}")
    affected_rows = sum(e["rows"] for e in affected)
    n_link_blocks = max(1, min(64, affected_rows // 500_000 + 1))

    lrs = remote(_lrs_bundle)
    refs = [
        lrs.remote(root, bucket, keys_ref, uris_ref, payload, limit,
                   n_leaves, n_block_partitions, epoch)
        for bucket in loader_buckets
    ]
    if affected:
        drop = remote(_drop_dirty_files)
        files = [e["file"] for e in affected]
        per = max(1, len(files) // n_link_blocks)
        refs += [
            drop.remote(root, files[i : i + per], uris_ref)
            for i in range(0, len(files), per)
        ]

    # Idempotent replay: a crash between this write and commit_linkstate
    # would otherwise leave a partial epoch dir that a replay doubles.
    # Clearing any previous attempt first keeps the linkstate pointer
    # swap the sole commit point.
    import shutil

    shutil.rmtree(links_dir_new, ignore_errors=True)
    os.makedirs(links_dir_new, exist_ok=True)
    _mark("plan_build")
    written: list[dict] = []
    # worker-side seconds per step, summed over the wave-1 and write
    # tasks, the task counts and the candidate pairs scored and kept (a
    # map of its own: ``phases`` sums to the wall time of this call)
    task_s = dict.fromkeys(("load_s", "enumerate_s", "score_s", "drop_s", "write_s"), 0.0)
    task_s.update(lrs_tasks=len(loader_buckets), drop_tasks=len(refs) - len(loader_buckets),
                  write_tasks=0, pairs=0, pairs_kept=0)
    if refs:
        write = remote(_write_links_bundle)
        n_out = min(n_link_blocks, len(refs))
        bundles = [refs[i::n_out] for i in range(n_out)]
        write_refs = [
            write.remote(root, links_dir_new, f"part-{i:05d}", epoch, *b)
            for i, b in enumerate(bundles)
        ]
        task_s["write_tasks"] = len(write_refs)
        # release the driver's pins on wave-1 outputs: each write task
        # holds its own bundle's refs, so blocks free as writes finish
        # instead of all living until update_links returns
        del refs, bundles
        for entry_list, seconds in ray.get(write_refs):
            written.extend(entry_list)
            for k, v in seconds.items():
                task_s[k] += v
    # no refs at all (no loader buckets, no affected files) → nothing
    # written this epoch; the manifest simply carries existing entries
    _mark("score_and_write")
    n_new = sum(e.pop("n_new") for e in written)

    prev_files = [{"file": e["file"]} for e in _links_manifest(state)]
    prev_blockmap = [f for v in state.get("blockmap", {}).values() for f in v]
    state = {
        "epoch": epoch,
        "blockmap": {str(k): v for k, v in bm_files.items()},
        "links_files": carried + written,
        # previous manifest's file list: GC keeps these too, so a crash
        # between a future epoch's links write and its linkstate commit
        # can still replay against this epoch's intact file set
        "links_files_prev": prev_files,
        # previous blockmap chains: same one-epoch GC retention, so a
        # rolled-back linkstate can still reconcile its chains
        "blockmap_prev": prev_blockmap,
    }
    _mark("manifest_post")
    commit_linkstate(root, state)
    ckpt.LINKS.gc(root, retain_epochs, state)
    _mark("commit_gc")

    metrics = {
        "epoch": epoch,
        "mode": mode,
        "links_recomputed": int(n_new),
        # rows in rewritten files minus what survived = stored links
        # dropped this epoch (dirty-uri links; recomputed ones that
        # still hold come back via n_new)
        "links_removed": int(affected_rows - (sum(e["rows"] for e in written) - n_new)),
        "dirty_uris": len(dirty_uris),
        "affected_keys": len(affected_keys),
        "affected_block_partitions": len(affected_bps),
        "links_total": _count_links(state),
    }
    _mark("metrics")
    metrics["phases"] = {name: round(sec, 6) for name, sec in _phases}
    metrics["task_s"] = {k: round(v, 6) for k, v in task_s.items()}
    ckpt.write_metrics(root, epoch, metrics, kind="links")
    return metrics


# links-manifest machinery: per-file 8192-bit uri sketches gate which
# stored files an epoch must rewrite (false positive → harmless extra
# rewrite; false negatives impossible)
LINK_SKETCH_BITS = 8192
MAX_LINK_FILES = 64


def _uri_bits(uris) -> set[int]:
    import zlib

    return {zlib.crc32(u.encode()) % LINK_SKETCH_BITS for u in uris}


def _sketch_of_links(t: pa.Table) -> str:
    import base64

    import numpy as np

    bits = np.zeros(LINK_SKETCH_BITS // 8, dtype=np.uint8)
    for col in ("source", "target"):
        for b in _uri_bits(t[col].to_pylist()):
            bits[b >> 3] |= 1 << (b & 7)
    return base64.b64encode(bits.tobytes()).decode()


def _sketch_hits(sketch_b64: str, dirty_bits: set[int]) -> bool:
    import base64

    raw = base64.b64decode(sketch_b64)
    return any(raw[b >> 3] & (1 << (b & 7)) for b in dirty_bits)


def _links_manifest(state: dict) -> list[dict]:
    """The link set's manifest entries (``file``, ``rows``, ``sketch``)."""
    return state.get("links_files") or []


def gc_blockmap(root: str, state: dict | None = None) -> int:
    """Delete blockmap files neither the committed linkstate nor its
    one-epoch rollback window (``blockmap_prev``) references:
    pre-compaction chain members two commits back and orphaned shards
    from crashed/retried delta-index attempts (shard names carry a
    random suffix, so a retry never overwrites its predecessor — the
    summary file registers exactly one attempt's shards and the rest
    are garbage). Files whose embedded epoch is NEWER than the
    linkstate epoch are kept: a pending catch-up ``update_links`` will
    register them from the summaries. Run only after
    ``commit_linkstate``. Returns files removed."""
    if state is None:
        state = read_linkstate(root)
    link_epoch = int(state.get("epoch", 0))
    live = {
        os.path.normpath(f)
        for files in state.get("blockmap", {}).values()
        for f in files
    }
    live |= {os.path.normpath(f) for f in state.get("blockmap_prev", [])}
    removed = 0
    for f in glob.glob(os.path.join(root, "blockmap", "*", "*.parquet")):
        e = ckpt.file_epoch(os.path.basename(f))
        if os.path.relpath(f, root) not in live and e is not None and e <= link_epoch:
            removed += ckpt._remove(f)
    return removed


def _count_links(state: dict) -> int:
    return sum(e["rows"] for e in _links_manifest(state))


# ---------------------------------------------------------------------------
# link views
# ---------------------------------------------------------------------------


def links_table(root: str, at_epoch: int | None = None) -> pa.Table:
    """The maintained unfiltered link set, sorted (driver-side;
    test/small-lake helper — distributed consumers read the manifest
    files as a Dataset). ``at_epoch`` time-travels to a retained
    earlier link commit."""
    empty = pa.table({"source": pa.array([], pa.string()), "target": pa.array([], pa.string()),
                      "confidence": pa.array([], pa.float64())})
    state = read_linkstate(root) if at_epoch is None else read_linkstate_at(root, at_epoch)
    tables = []
    for e in _links_manifest(state):
        p = os.path.join(root, e["file"])
        if os.path.exists(p):
            tables.append(pq.read_table(p))
    tables = [t for t in tables if t.num_rows]
    if not tables:
        return empty
    return pa.concat_tables(tables, promote_options="default").sort_by(
        [("source", "ascending"), ("target", "ascending")]
    )


def filtered_links(root: str, filter_limit: int | None, unambiguous: bool = False) -> pa.Table:
    """Per-source top-k view (LinkFilter, Filter.scala:40-44); with
    ``unambiguous`` keep only single-link sources (Filter.scala:46-57)."""
    t = links_table(root)
    if not filter_limit or t.num_rows == 0:
        return t
    import pandas as pd

    df = t.to_pandas()
    if unambiguous:
        n = df.groupby("source", sort=False)["target"].transform("size")
        return pa.Table.from_pandas(df[n == 1].reset_index(drop=True), preserve_index=False)
    df = df.sort_values(["source", "confidence", "target"], ascending=[True, False, True], kind="mergesort")
    df = df.groupby("source", sort=True).head(filter_limit).reset_index(drop=True)
    return pa.Table.from_pandas(df, preserve_index=False)
