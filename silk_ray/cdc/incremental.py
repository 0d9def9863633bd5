"""Incremental re-linking: maintain the linked table over the changelog.

The RD re-expression of "only entities whose blocking keys changed are
re-compared" (north_star; Silk's MultiBlock semantics from
rule/execution/methods/MultiBlock.scala applied delta-wise):

Persisted link state under ``lake_root/`` (LSM-style)::

    blockmap/bp={B}/delta-{E}.parquet      # postings: one delta file per
                                           # touched chain and epoch, one
                                           # row per (side, uri) entity:
                                           # (action, side, uri, keys), only
                                           # its keys k of this partition
                                           # (k % n_bps == B), sorted by
                                           # (side, uri)
    blockmap/bp={B}/compact-{E}.parquet    # compaction's file: the base
                                           # rewritten (all 'add') or the
                                           # deltas merged (chain.py)
    blockmap/ent=00000/delta-{E}.parquet   # entity chain: one row per
    blockmap/ent=00000/compact-{E}.parquet # changed (side, uri) entity:
                                           # (action, side, uri, keys,
                                           # vals_0..m), its FULL sorted
                                           # key set and leaf values
    links/epoch-{E}/part-*.parquet         # UNFILTERED link set as a file
                                           # MANIFEST: the linkstate lists
                                           # (file, rows, uri-bitset sketch)
                                           # entries across epoch dirs; an
                                           # epoch rewrites only files whose
                                           # sketch hits a dirty uri
    _linkstate.json                        # atomic pointer {epoch, per-bp
                                           # postings chains, the entity
                                           # chain, links manifest}

Each entity's key set and leaf values are stored once, in the entity
chain (PAPER.md §1.1: an entity is a uri plus its values; a block only
groups entities). Its postings row in block partition ``b`` holds only
its blocks there, ``{k ∈ keys : k % B == b}``. A symmetric rule (every
leaf's source and target inputs alike) indexes side 1 alone, whose rows
play both link roles. A link-index file in another layout — the older
one-row-per-key postings (a ``key`` column), postings that carry
``vals_*``, an entity chain without ``keys`` — is refused: the link
store must be rebuilt from the snapshot.

Per merge epoch E (a store more than one epoch behind re-indexes the
snapshot instead, see :func:`update_links`):

1. **delta index** (:class:`DeltaIndexStage`, then the driver; no
   shuffle): the stage evaluates the rule over each changed entity's NEW
   payload only: one 'add' postings row per partition of its new keys,
   one entity-chain row (its key set and values, or a 'del' when it has
   no keys) and a ``(bp, key, uri)`` row per new key. The merge tasks
   run it while the changed payloads are in memory and hand the rows to
   :func:`update_links` beside the epoch's change set
   (``merge.take_epoch_index``); on a miss (a new process, a crash
   catch-up, a merge run without the rule) it runs on the driver over
   the epoch's change set (``merge.epoch_changes``). The driver then
   reads the changed entities' OLD key sets from the committed entity
   chain (``side, uri, keys`` only) and adds a key-less 'del' postings
   row per partition an entity left and a ``(bp, key, uri)`` row per old
   key, and keeps an entity 'del' only for an entity the index held
   (:func:`_with_old_keys`). Nothing reads an old payload. O(delta).
2. **delta write + compaction**: each touched chain's rows of the epoch
   are written once, by the driver, as ``delta-E`` (a deterministic
   name and content, so a replay rewrites the same bytes), so each
   chain grows one file per epoch; a chain past ``chain.COMPACT_AT``
   files is compacted by ``chain.compact``, the lake's policy and
   writer: its deltas merged into one file while they hold fewer bytes
   than its base, else the whole chain rewritten as one file. The
   entity chain is one more chain.
3. **delta re-score** (the map tasks of one :func:`silk_ray.cdc.exchange`
   with stage 4): per cost-balanced loader
   bucket, reconcile each postings chain once (newest-file-wins per
   uri), keep the affected blocks (vectorized ``is_in``), key-sub-split
   hot bps and dedupe entities by (uri, side) across the bucket's
   partitions; then read the entity chain once, only the rows of those
   entities, and attach their full key sets and values (a symmetric
   rule's side-1 rows get a side-0 twin). The entities are scored with
   :meth:`PairScorer.score_entities`: candidate pairs
   are enumerated in numpy over the sorted block index — pairs need ≥1
   dirty side (clean∩clean pairs keep their stored links) and are
   scored in their smallest shared block — then scored column-at-a-time,
   one batch kernel per leaf comparison and a columnar fold of the
   aggregation tree (:meth:`LinkageRule.score_pairs`). Work is
   O(entities touched by the delta), not O(rows in the affected
   blocks).
4. **links merge** (drop-dirty map tasks + bundle-write reduce
   tasks over the AFFECTED manifest files only): drop stored links
   touching a dirty uri, add the recomputed ones; each write task
   computes its own manifest entry (rows, uri sketch, n_new);
   unaffected files carry over by reference — O(delta + affected
   files) per epoch, not O(total links). Every map and write task
   times its own steps; the sums, the task counts and the candidate
   pairs scored and kept (``pairs``, ``pairs_kept``) are the ``task_s``
   map of ``_metrics/links-E.json``; its ``index_bytes`` map holds the
   live bytes of the postings chains and the entity chain and the bytes
   this epoch added to each. Raw Ray tasks, not a
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

import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from silk_ray.cdc import chain, checkpoint as ckpt, exchange, remote
from silk_ray.cdc.merge import (
    _load_partition,
    epoch_changed_nothing,
    epoch_changes,
    inserts_table,
    partition_chains,
    take_epoch_index,
)
from silk_ray.kernel.rule import LinkageRule
from silk_ray.linking.pipeline import _compile_rule, _spec_symmetric

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
    """Turn change rows (``merge.changes_table``) into the link index's
    delta rows of their NEW payloads; the old side is the driver's
    (:func:`_with_old_keys`). It writes nothing; ``update_links`` writes
    each touched chain's rows of an epoch as one file.

    Per change row and indexed side (side 1 alone for a symmetric rule,
    whose rows play both link roles): one entity-chain row — ``add``
    with the entity's full sorted ``keys`` and leaf values while it has
    keys, else a key-less ``del`` — and one ``add`` postings row in
    every block partition ``b`` of its keys, holding the keys ``k % B ==
    b``. The rule runs once per row and side; the ``old_*`` columns are
    not read.

    Returns ``(chains, touched)``: ``chains`` maps each touched chain —
    block partition ``0..B-1`` in :data:`POSTINGS`, the entity chain
    :data:`ENT` in :func:`_entity_schema` — to its rows; ``touched``
    holds one ``(bp, key, uri)`` row per new key and link role
    (:data:`TOUCHED`). The merge emits one change row per key per epoch,
    so the outputs of an epoch's calls touch disjoint uris and
    concatenate per chain in any order."""

    def __init__(self, rule_spec, n_block_partitions: int):
        self.rule = _compile_rule(rule_spec)
        self.nbp = n_block_partitions
        self.n_leaves = len(self.rule.leaf_comparisons())
        # a symmetric rule (every leaf's source == target spec) indexes
        # side 1 alone: side 0's keys and values would be the same
        self.sides = _index_sides(rule_spec)

    def __call__(self, batch: pa.Table) -> tuple[dict[int, pa.Table], pa.Table]:
        from silk_ray.cdc.generator import make_uri

        post: dict[int, list[tuple]] = {}  # bp -> (action, side, uri, keys)
        ents = []  # (action, side, uri, keys, *vals)
        sum_key, sum_uri = [], []
        rule, nbp = self.rule, self.nbp
        no_vals = [None] * self.n_leaves
        roles = 2 // len(self.sides)  # a symmetric rule's keys count for both roles
        new = [c for c in batch.column_names if c.startswith("new_")]
        for row in batch.select(["repo", "path", *new]).to_pylist():
            uri = make_uri(row["repo"], row["path"])
            ent = {"repo": [row["repo"]], "path": [row["path"]]}
            for c in new:
                ent[c[4:]] = [] if row[c] is None else [str(row[c])]
            has_payload = any(row[c] is not None for c in new)
            for side in self.sides:
                keys = vals = None
                if has_payload:
                    keys, vals = rule.index_keys_and_values(ent, side == 1)
                    keys = sorted(keys)
                if not keys:
                    ents.append(("del", side, uri, None, *no_vals))
                    continue
                ents.append(("add", side, uri, keys, *vals))
                local: dict[int, list[int]] = {}
                for k in keys:
                    local.setdefault(k % nbp, []).append(k)
                for bp, part in local.items():
                    post.setdefault(bp, []).append(("add", side, uri, part))
                sum_key.extend(keys * roles)
                sum_uri.extend([uri] * (len(keys) * roles))
        chains = {bp: _rows_table(rows, POSTINGS) for bp, rows in post.items()}
        if ents:
            chains[ENT] = _rows_table(ents, _entity_schema(self.n_leaves))
        return chains, _touched_table(np.asarray(sum_key, np.int64),
                                      pa.array(sum_uri, pa.string()), nbp)


def _index_sides(rule_spec) -> tuple[int, ...]:
    """The link sides the index stores: side 1 alone for a symmetric
    rule, whose side-1 rows play both roles, else sides 1 and 0."""
    return (1,) if _spec_symmetric(rule_spec) else (1, 0)


def _touched_table(keys: np.ndarray, uris: pa.Array, nbp: int) -> pa.Table:
    return pa.table([pa.array(keys % nbp, pa.int32()), pa.array(keys), uris], schema=TOUCHED)


def _rows_table(rows: list[tuple], schema: pa.Schema) -> pa.Table:
    cols = list(zip(*rows)) or [()] * len(schema)
    return pa.Table.from_arrays([pa.array(list(c), f.type) for c, f in zip(cols, schema)],
                                schema=schema)


def _write_sorted(root: str, t: pa.Table, rel: str) -> str:
    ckpt.atomic_write_parquet(t.sort_by(list(chain.BLOCKMAP.order)), os.path.join(root, rel))
    return rel


# ---------------------------------------------------------------------------
# stage 2: the link index's chains (chain.BLOCKMAP, chain.ENTITIES)
# ---------------------------------------------------------------------------


SPLIT_ROWS = 1000  # delta rows per loader task before a bp is key-sub-split
ENT = -1  # the entity chain's id beside the postings chains' bps 0..B-1

# a postings row: link side, uri, the entity's sorted blocking keys in
# this block partition
POSTINGS = pa.schema([
    pa.field("action", pa.string()),
    pa.field("side", pa.int8()),
    pa.field("uri", pa.string()),
    pa.field("keys", pa.list_(pa.int64())),
])
# a delta-index key row: block partition, one old or new key, its uri
TOUCHED = pa.schema([
    pa.field("bp", pa.int32()),
    pa.field("key", pa.int64()),
    pa.field("uri", pa.string()),
])


def _entity_schema(n_leaves: int) -> pa.Schema:
    """An entity-chain row: link side, uri, the entity's full sorted
    blocking key set and its leaf-comparison values."""
    return pa.schema(list(POSTINGS) + [
        pa.field(f"vals_{i}", pa.list_(pa.string())) for i in range(n_leaves)
    ])


def _link_chain(part: int) -> tuple[chain.Format, int]:
    """Link-index chain ``part``'s format and directory number: block
    partition ``part``'s postings chain, or the entity chain
    (:data:`ENT`)."""
    return (chain.ENTITIES, 0) if part == ENT else (chain.BLOCKMAP, part)


def _chain_file(part: int, name: str) -> str:
    """Path of chain ``part``'s file ``name``, relative to the lake root."""
    fmt, n = _link_chain(part)
    return os.path.join(f"{fmt.part_dir}={n:05d}", name)


def _chain_schema(part: int, n_leaves: int) -> pa.Schema:
    return _entity_schema(n_leaves) if part == ENT else POSTINGS


_REBUILD_HINT = (
    "the link store must be rebuilt: remove blockmap/, links/ and _linkstate.json, "
    "then engine.catch_up re-indexes the snapshot at the merge epoch (update_links' "
    "full mode)"
)


def _read_link_files(root: str, files: list[str], schema: pa.Schema,
                     uris: pa.Array | None = None,
                     columns: list[str] | None = None) -> list[pa.Table]:
    """A link-index chain's tables in ``schema`` (a parquet read names
    list items ``element``, the schema ``item``), only the rows of
    ``uris`` and the ``columns`` when given. A file in another layout —
    a per-key postings file, a postings file that still carries
    ``vals_*``, an entity file without ``keys`` or of another rule — is
    refused."""
    names = schema.names if columns is None else list(columns)
    out_schema = pa.schema([schema.field(n) for n in names])
    tables = []
    for f in files:
        pf = pq.ParquetFile(os.path.join(root, f))
        if pf.schema_arrow.names != schema.names:
            raise ValueError(
                f"link-index file {f} has columns {pf.schema_arrow.names}, not this "
                f"layout's {schema.names}; {_REBUILD_HINT}"
            )
        t = pf.read(columns=names)
        if uris is not None:
            t = t.filter(pc.is_in(t["uri"], value_set=uris))
        tables.append(t.cast(out_schema))
    return tables


def read_bp_reconciled(root: str, files: list[str]) -> pa.Table:
    """A blockmap partition's entity postings ``(side, uri, keys)`` from
    its ordered chain (``chain.reconcile``: every uri's rows from the
    newest file that mentions it, one per side; a uri whose newest
    mention is del-only has left this partition). Rows keep chain
    order, so a block's entities come out in (file, side, uri) order."""
    live = chain.reconcile(_read_link_files(root, files, POSTINGS), chain.BLOCKMAP)
    return (POSTINGS.empty_table() if live is None else live).select(POSTINGS.names[1:])


def read_entity_values(root: str, files: list[str], n_leaves: int, uris: pa.Array,
                       columns: list[str] | None = None) -> pa.Table:
    """The live entity-chain rows ``(side, uri, keys, vals_*)`` of
    ``uris``; with ``columns`` (the chain's own, ``action`` included),
    only those."""
    schema = _entity_schema(n_leaves)
    live = chain.reconcile(_read_link_files(root, files, schema, uris, columns),
                           chain.ENTITIES)
    names = schema.names if columns is None else list(columns)
    if live is None:
        live = pa.schema([schema.field(n) for n in names]).empty_table()
    return live.select(names[1:])


def _attach_values(ents: pa.Table, vals: pa.Table) -> pa.Table:
    """``ents``' ``(side, uri)`` with each entity's full ``keys`` and
    ``vals_*`` from its entity-chain row in ``vals``. An entity without
    one means a broken index: it raises rather than score as missing
    values."""
    side = ents["side"].to_numpy(zero_copy_only=False)
    vside = vals["side"].to_numpy(zero_copy_only=False)
    pos = np.full(ents.num_rows, -1, np.int64)
    for s in (0, 1):
        mine, theirs = np.flatnonzero(side == s), np.flatnonzero(vside == s)
        if not len(mine):
            continue
        at = pc.index_in(ents["uri"].take(mine), value_set=vals["uri"].take(theirs))
        at = pc.fill_null(at, -1).to_numpy(zero_copy_only=False)
        pos[mine[at >= 0]] = theirs[at[at >= 0]]
    if (pos < 0).any():
        i = int(np.flatnonzero(pos < 0)[0])
        raise ValueError(
            f"link index: entity {ents['uri'][i].as_py()!r} (side {int(side[i])}) has "
            f"postings but no values in the entity chain; {_REBUILD_HINT}"
        )
    take = pa.array(pos)
    out = ents.select(["side", "uri"])
    for name in vals.column_names[2:]:
        out = out.append_column(name, vals[name].take(take))
    return out


def _both_roles(ents: pa.Table, key: np.ndarray, ent: np.ndarray):
    """A symmetric rule's side-1 entities and block index with a side-0
    twin of each entity in the same blocks: one stored row plays both
    link roles."""
    n = ents.num_rows
    twins = ents.set_column(0, "side", pa.array(np.zeros(n, np.int8)))
    return (pa.concat_tables([ents, twins]), np.concatenate([key, key]),
            np.concatenate([ent, ent + n]))


def _bp_blocks(ents: pa.Table, bp: int, n_block_partitions: int):
    """The block index ``(key, entity row)`` of one partition's entity
    rows: an entity sits in its blocks ``k ∈ keys`` with ``k % B == bp``
    (a postings row holds only these; an entity-chain row all of the
    entity's keys)."""
    flat, parent = _flat_keys(ents)
    mine = flat % n_block_partitions == bp
    return flat[mine], parent[mine]


def _with_old_keys(root: str, ent_files: list[str], rows: list, n_block_partitions: int,
                   n_leaves: int, sides: tuple[int, ...]) -> tuple[dict[int, pa.Table], pa.Table]:
    """An epoch's :class:`DeltaIndexStage` outputs ``rows`` completed
    with the changed entities' old key sets, read from the committed
    entity chain ``ent_files`` (``[]`` in full mode: an empty index):
    returns ``(chains, touched)`` as the stage does, for the whole epoch.

    Per changed (side, uri) the chain held: a key-less 'del' postings
    row in every block partition of its old keys that its new keys left,
    and a ``touched`` row per old key and link role. An entity-chain
    'del' stays only for an entity the chain held."""
    nbp = n_block_partitions
    chains: dict = {}
    for stage_chains, _touched in rows:
        for part, t in stage_chains.items():
            chains.setdefault(part, []).append(t)
    chains = {part: pa.concat_tables(ts) for part, ts in chains.items()}
    touched = [TOUCHED.empty_table()] + [t for _c, t in rows]
    new = chains.pop(ENT, None)
    if new is not None:
        old = read_entity_values(root, ent_files, n_leaves, pc.unique(new["uri"]),
                                 POSTINGS.names)
        old_ids = _entity_ids(old)
        new = new.filter(pc.or_(pc.equal(new["action"], "add"),
                                pc.is_in(_entity_ids(new), value_set=old_ids)))
        if new.num_rows:
            chains[ENT] = new
        o_key, o_row = _flat_keys(old)
        roles = 2 // len(sides)  # as the stage counts them
        uris = old["uri"].combine_chunks().take(pa.array(np.tile(o_row, roles)))
        touched.append(_touched_table(np.tile(o_key, roles), uris, nbp))
        # (old row, partition) pairs the entity's new keys no longer reach;
        # a new entity's row is -1, so its pairs match none
        n_key, n_row = _flat_keys(new)
        n_old = pc.fill_null(pc.index_in(_entity_ids(new), value_set=old_ids), -1)
        n_old = n_old.to_numpy(zero_copy_only=False).astype(np.int64)[n_row]
        gone = np.setdiff1d(o_row * nbp + o_key % nbp, n_old * nbp + n_key % nbp)
        at = pa.array(gone // nbp)
        dels = pa.table([pa.array(["del"] * len(gone)), old["side"].take(at), old["uri"].take(at),
                         pa.nulls(len(gone), POSTINGS.field("keys").type)], schema=POSTINGS)
        for bp in np.unique(gone % nbp).tolist():
            part = dels.filter(pa.array(gone % nbp == bp))
            chains[bp] = pa.concat_tables([chains[bp], part]) if bp in chains else part
    return chains, pa.concat_tables(touched)


def _flat_keys(t: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    """Every key of ``t``'s ``keys`` lists with its row."""
    keys = t["keys"].combine_chunks()
    return (pc.list_flatten(keys).to_numpy(zero_copy_only=False),
            pc.list_parent_indices(keys).to_numpy(zero_copy_only=False))


def _entity_ids(t: pa.Table) -> pa.Array:
    """One ``side:uri`` identity per row of a link-index table."""
    ids = pc.binary_join_element_wise(pc.cast(t["side"], pa.string()), t["uri"], ":")
    return ids.combine_chunks() if isinstance(ids, pa.ChunkedArray) else ids


def _index_snapshot_partition(files: list[str], rule_spec, n_block_partitions: int):
    """Full mode's delta index over one lake partition: its live rows
    (chain ``files``, absolute paths) as inserts."""
    return DeltaIndexStage(rule_spec, n_block_partitions)(inserts_table(_load_partition(files)))


def _compact_bundle(root: str, items: list[tuple[int, list[str]]], n_leaves: int, epoch: int):
    """One compaction task: each ``(chain, files)`` item's
    ``chain.compact`` as ``(chain, new files, kind, bytes)``."""
    out = []
    for part, files in items:
        fmt, n = _link_chain(part)
        schema = _chain_schema(part, n_leaves)
        out.append((part, *chain.compact(root, files, fmt, n, epoch,
                                         lambda fs: _read_link_files(root, fs, schema))))
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
    out: int,
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
    """One cost-balanced loader bucket: reconcile each postings chain
    once, keep the blocks that are affected (vectorized ``is_in``) and
    in the item's key sub-split, dedupe entities by (uri, side) across
    the bucket's partitions, then read the entity chain
    (``bucket["entities"]``) once for those entities' full key sets and
    values — a symmetric rule's side-1 entities play both roles — and
    score (no shuffle — bp co-locates every row of a key; see
    update_links). Returns ``({out: links}, the task's seconds per step
    and pair counts)``."""
    import itertools

    from silk_ray.linking.pipeline import PairScorer

    t0 = time.perf_counter()
    items = zip(bucket["bps"], bucket["files"], bucket["msplits"], bucket["rsplits"])
    parts, blk_key, blk_ent = [], [], []
    n_ents = 0
    # a bucket is sorted by (bp, rsplit): one chain's items are adjacent
    for bp, group in itertools.groupby(items, key=lambda it: it[0]):
        group = list(group)
        ents = read_bp_reconciled(root, group[0][1])
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
        parts.append(ents.take(pa.array(used)).select(["side", "uri"]))
        blk_key.append(key)
        blk_ent.append(parent + n_ents)
        n_ents += len(used)
    ents = pa.concat_tables(parts) if parts else POSTINGS.empty_table().select(["side", "uri"])
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
    vals = read_entity_values(root, bucket["entities"] if ents.num_rows else [], n_leaves,
                              pc.unique(ents["uri"].combine_chunks()))
    ents = _attach_values(ents, vals)
    if _spec_symmetric(payload):
        ents, key, ent = _both_roles(ents, key, ent)
    ents = ents.append_column("dirty", pc.is_in(ents["uri"], value_set=uri_arr))
    timings = {"load_s": time.perf_counter() - t0}
    scorer = PairScorer(payload, limit=limit, source_equals_target=True, dirty_col="dirty")
    links = scorer.score_entities(ents, key, ent, timings)
    links = links.append_column("epoch_added", pa.array(np.full(links.num_rows, epoch, np.int32)))
    return {out: links}, timings


def _drop_dirty_links(out: int, root: str, files: list[str], uri_arr: pa.Array) -> tuple[dict, dict]:
    """``({out: stored link files minus links touching a dirty uri},
    the task's seconds)``."""
    t0 = time.perf_counter()
    parts = []
    for f in files:
        t = pq.ParquetFile(os.path.join(root, f)).read()
        keep = pc.and_(
            pc.invert(pc.is_in(t["source"], value_set=uri_arr)),
            pc.invert(pc.is_in(t["target"], value_set=uri_arr)),
        )
        parts.append(t.filter(keep))
    links = pa.concat_tables(parts) if parts else _links_empty_table()
    return {out: links}, {"drop_s": time.perf_counter() - t0}


LINK_FILE_ROWS = 500_000  # target rows per manifest file


def _write_links_bundle(
    part: int, root: str, dir_new: str, epoch: int, *bundle
) -> tuple[list[dict], dict]:
    """Concat a bundle of scored and drop-dirtied link tables and write
    size-bounded manifest files ``part-{part}-*`` (≤ ``LINK_FILE_ROWS``
    rows each — an oversized input file re-splits here, keeping
    per-epoch rewrite cost bounded per file), returning their entries +
    this epoch's recomputed counts (sketch computed here, not re-read by
    the caller) and the write's seconds. An empty bundle writes
    nothing."""
    t0 = time.perf_counter()
    tables = [t for t in bundle if t.num_rows]
    merged = pa.concat_tables(tables) if tables else _links_empty_table()
    out = []
    n_chunks = -(-merged.num_rows // LINK_FILE_ROWS)
    per = -(-merged.num_rows // max(1, n_chunks))
    for j in range(n_chunks):
        chunk = merged.slice(j * per, per)
        if not chunk.num_rows:
            continue
        p = os.path.join(dir_new, f"part-{part:05d}-{j:03d}.parquet")
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
    return out, {"write_s": time.perf_counter() - t0}


# ---------------------------------------------------------------------------
# stage 3+4: delta re-score and links merge
# ---------------------------------------------------------------------------


def update_links(
    root: str,
    rule_spec: dict | LinkageRule,
    epoch: int,
    *,
    limit: float = 0.0,
    n_block_partitions: int = DEFAULT_BLOCK_PARTITIONS,
) -> dict:
    """Process merge epoch ``epoch``'s delta into the link state.

    The delta is :class:`DeltaIndexStage`'s rows for the epoch: the
    merge tasks' when ``merge.run_epoch`` ran with this rule and
    ``n_block_partitions``, else the stage's over the epoch's change set
    (``merge.epoch_changes``), run on the driver. A store more than one
    epoch behind re-indexes the snapshot at ``epoch`` through the same
    stage over an empty index and link set (``mode`` ``"full"``). An
    epoch that changed no key is a no-op commit.

    Returns link metrics (links_recomputed, links_removed, ...); a
    store already at or past ``epoch`` is a replay no-op. Superseded
    link, postings and entity files stay until the link store's sweep
    (:data:`gc_blockmap`).
    """
    state = read_linkstate(root)
    if state["epoch"] >= epoch:
        return {"epoch": epoch, "mode": "replay_noop"}

    import ray

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

    mode = "delta" if state["epoch"] == epoch - 1 else "full"
    if mode == "delta" and epoch_changed_nothing(root, epoch):
        state["epoch"] = epoch
        commit_linkstate(root, state)
        return {"epoch": epoch, "mode": "noop", "links_recomputed": 0,
                "links_removed": 0, "links_total": _count_links(state)}

    # -- stage 1: the epoch's delta-index rows ---------------------------
    # in memory from the merge tasks when they ran the stage with this
    # rule and B; else the same stage on the driver over the epoch's
    # change set. Full mode runs it over the snapshot at ``epoch``, one
    # task per lake partition, into an empty index and link set.
    rows = take_epoch_index(root, epoch, rule_spec, n_block_partitions)
    if mode == "full":
        task = remote(_index_snapshot_partition)
        rows = ray.get([task.remote(files, payload, n_block_partitions)
                        for files in partition_chains(root, at_epoch=epoch).values()])
        _mark("delta_index")
    elif rows is None:
        stage = DeltaIndexStage(payload, n_block_partitions)
        rows = [stage(t) for t in epoch_changes(root, epoch)]
        _mark("delta_index")

    # the old side: the changed entities' key sets in the committed
    # entity chain (none in full mode: the index starts empty)
    base = {"blockmap": {}, "links_files": []} if mode == "full" else state
    chains, touched = _with_old_keys(root, list(base.get("entities", [])), rows,
                                     n_block_partitions, n_leaves, _index_sides(payload))
    del rows
    _mark("old_keys")

    # -- stage 2: one delta file per touched chain -----------------------
    # the entity chain sits among the postings chains as part ENT
    bm_files: dict[int, list[str]] = {ENT: list(base.get("entities", []))}
    bm_files.update((int(k), list(v)) for k, v in base["blockmap"].items())
    for part, t in sorted(chains.items()):
        name = _chain_file(part, f"delta-{epoch:06d}.parquet")
        bm_files.setdefault(part, []).append(_write_sorted(root, t, name))
    del chains
    affected_keys = set(pc.unique(touched["key"]).to_pylist())
    dirty_uris = set(pc.unique(touched["uri"]).to_pylist())
    # per-bp delta row counts: large bps are SUB-SPLIT by key so no
    # single scoring task becomes the serial tail — pair scoring is
    # O(block²)-ish and task-level skew was the measured scaling blocker
    # (straggler tasks of 5-6 s)
    bp_counts = touched.group_by("bp").aggregate([("bp", "count")])
    rows_per_bp = dict(zip(bp_counts["bp"].to_pylist(), bp_counts["bp_count"].to_pylist()))
    affected_bps = sorted(rows_per_bp)
    _mark("write_index")

    # -- compaction: bound each chain ------------------------------------
    # raw Ray tasks, not a Dataset: this is a driver-coordinated chain
    # maintenance op over a known small bp list; the streaming-executor
    # fixed cost (~0.5-1 s) was a measurable slice of every epoch
    to_compact = [(bp, fs) for bp, fs in bm_files.items() if chain.compact_due(len(fs))]
    compactions = {"postings": [], "entities": []}
    if to_compact:
        task = remote(_compact_bundle)
        compacted = ray.get(
            [task.remote(root, to_compact[i : i + 4], n_leaves, epoch)
             for i in range(0, len(to_compact), 4)]
        )
        for bundle in compacted:
            for bp, files, kind, nbytes in bundle:
                bm_files[int(bp)] = files
                compactions["entities" if bp == ENT else "postings"].append((kind, nbytes))
        _mark("compaction")

    # -- stage 3: re-score affected blocks ------------------------------
    keys_ref = ray.put(pa.array(sorted(affected_keys), pa.int64()))
    uris_ref = ray.put(pa.array(sorted(dirty_uris), pa.string()))

    loader_items = []
    for bp in affected_bps:
        if not bm_files.get(bp):
            continue
        msplit = max(1, -(-rows_per_bp[bp] // SPLIT_ROWS))
        for r in range(msplit):
            loader_items.append(
                {"bp": bp, "files": bm_files[bp], "msplit": msplit, "rsplit": r}
            )

    # adaptive parallelism: size loader tasks by the work actually
    # present — affected-chain bytes (driver-side getsize) AND the
    # delta key-row count (pair scoring is CPU-bound per exploded
    # row, so compressed bytes alone undercount it). Fixed counts
    # (64/64) cost ~10s of pure task/shuffle overhead per epoch on
    # small deltas while the useful compute is milliseconds; both terms
    # grow the counts back to the cap at scale.
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
                max(total_bm_bytes // (8 << 20), touched.num_rows // 1_500) + 1,
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
    # one dict per bucket (parallel lists); each scoring task takes
    # exactly one cost-balanced bucket
    loader_buckets = [
        {
            "bps": [it["bp"] for it in b],
            "files": [it["files"] for it in b],
            "msplits": [it["msplit"] for it in b],
            "rsplits": [it["rsplit"] for it in b],
            "entities": bm_files[ENT],
        }
        for b in (sorted(b, key=lambda x: (x["bp"], x["rsplit"])) for b in buckets)
        if b
    ]

    # -- stage 3 (score) + stage 4 (links merge) as one exchange -------
    # The stored link set is a MANIFEST of size-bounded parquet files,
    # each carrying a small uri-bitset sketch. Per epoch only files
    # whose sketch intersects the dirty-uri bits are rewritten
    # (drop-dirty + union with the recomputed links); every other file
    # is carried over BY REFERENCE. Per-epoch link-merge cost is
    # O(delta + affected files), not O(total links) — the same
    # delta-not-state principle as the blockmap LSM and the lake
    # merge-apply.
    #
    # The map tasks score each loader bucket / drop-dirty each
    # affected-file group; map task i feeds output file i % n_out, whose
    # write task computes its manifest entry (rows, sketch, n_new) —
    # no driver-side re-read of written files.
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

    maps = [
        (_lrs_bundle, root, bucket, keys_ref, uris_ref, payload, limit,
         n_leaves, n_block_partitions, epoch)
        for bucket in loader_buckets
    ]
    files = [e["file"] for e in affected]
    per = max(1, len(files) // n_link_blocks)
    maps += [(_drop_dirty_links, root, files[i : i + per], uris_ref)
             for i in range(0, len(files), per)]
    n_out = min(n_link_blocks, len(maps))
    maps = [(fn, i % n_out, *args) for i, (fn, *args) in enumerate(maps)]

    # Idempotent replay: a crash between this write and commit_linkstate
    # would otherwise leave a partial epoch dir that a replay doubles.
    # Clearing any previous attempt first keeps the linkstate pointer
    # swap the sole commit point.
    import shutil

    shutil.rmtree(links_dir_new, ignore_errors=True)
    os.makedirs(links_dir_new, exist_ok=True)
    _mark("plan_build")
    # no maps at all (no loader buckets, no affected files) → nothing
    # written this epoch; the manifest simply carries existing entries
    seconds, writes, _ = exchange(maps, _write_links_bundle, root, links_dir_new, epoch)
    # worker-side seconds per step, summed over the map and write tasks,
    # the task counts and the candidate pairs scored and kept (a map of
    # its own: ``phases`` sums to the wall time of this call)
    task_s = dict.fromkeys(("load_s", "enumerate_s", "score_s", "drop_s", "write_s"), 0.0)
    task_s.update(lrs_tasks=len(loader_buckets), drop_tasks=len(maps) - len(loader_buckets),
                  write_tasks=len(writes), pairs=0, pairs_kept=0)
    written: list[dict] = []
    for entries, write_s in writes.values():
        written.extend(entries)
        seconds.append(write_s)
    for task in seconds:
        for k, v in task.items():
            task_s[k] += v
    _mark("score_and_write")
    n_new = sum(e.pop("n_new") for e in written)

    prev_files = [{"file": e["file"]} for e in _links_manifest(state)]
    prev_blockmap = [f for v in state.get("blockmap", {}).values() for f in v]
    prev_blockmap += state.get("entities", [])
    entities = bm_files.pop(ENT)
    state = {
        "epoch": epoch,
        "blockmap": {str(k): v for k, v in bm_files.items()},
        "entities": entities,
        "links_files": carried + written,
        # previous manifest's file list: GC keeps these too, so a crash
        # between a future epoch's links write and its linkstate commit
        # can still replay against this epoch's intact file set
        "links_files_prev": prev_files,
        # previous postings and entity chains: same one-epoch GC
        # retention, so a rolled-back linkstate can still reconcile them
        "blockmap_prev": prev_blockmap,
    }
    _mark("manifest_post")
    commit_linkstate(root, state)
    _mark("commit")

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
        "index_bytes": _index_bytes(root, state, set(prev_blockmap)),
        # the epoch's chain compactions per chain kind, as the merge's
        "compactions": {name: chain.count_compactions(done)
                        for name, done in compactions.items()},
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
    """The uri bitset of a link table: each distinct source or target
    uri hashed once."""
    import base64

    uris = pc.unique(pa.chunked_array(t["source"].chunks + t["target"].chunks, pa.string()))
    bits = np.zeros(LINK_SKETCH_BITS // 8, dtype=np.uint8)
    for b in _uri_bits(uris.to_pylist()):
        bits[b >> 3] |= 1 << (b & 7)
    return base64.b64encode(bits.tobytes()).decode()


def _sketch_hits(sketch_b64: str, dirty_bits: set[int]) -> bool:
    import base64

    raw = base64.b64decode(sketch_b64)
    return any(raw[b >> 3] & (1 << (b & 7)) for b in dirty_bits)


def _links_manifest(state: dict) -> list[dict]:
    """The link set's manifest entries (``file``, ``rows``, ``sketch``)."""
    return state.get("links_files") or []


# The link store's sweep, run once per epoch by the engine's GC loop:
# links/ and blockmap/ files no retained link state names (chain members
# superseded by compaction, files of a crashed attempt), and snapshots
# past the retention window.
gc_blockmap = ckpt.LINKS.gc


def _index_bytes(root: str, state: dict, prev: set[str]) -> dict:
    """Live bytes of the link index's postings chains and entity chain
    in ``state``, and the bytes of their files not in ``prev`` (this
    epoch's additions)."""
    out = {}
    for name, files in (("postings", [f for v in state["blockmap"].values() for f in v]),
                        ("entities", state["entities"])):
        size = {f: os.path.getsize(os.path.join(root, f)) for f in files}
        out[name] = {"live": sum(size.values()),
                     "added": sum(n for f, n in size.items() if f not in prev)}
    return out


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
        if not os.path.exists(p):
            raise FileNotFoundError(
                f"link file {e['file']} named by the link state at epoch {state['epoch']} "
                f"is missing; {_REBUILD_HINT}"
            )
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
