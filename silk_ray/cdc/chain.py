"""LSM delta chains: the reconcile, compaction policy and file writers
that every chain of the engine shares. There are three kinds:

- the lake's partitions (``partitions/p=*``, :data:`LAKE`): one row per
  key with its payload;
- the link index's postings (``blockmap/bp=*``, :data:`BLOCKMAP`): one
  row per (side, uri) entity in each block partition ``b`` of its keys,
  holding only its keys ``k % B == b`` (side 1 alone for a symmetric
  rule);
- the link index's entity chain (``blockmap/ent=00000``,
  :data:`ENTITIES`): one row per (side, uri) entity with its full
  sorted key set and its leaf values, written once however many
  partitions hold its keys — the one copy of each key set, whence the
  link stage also takes an entity's old keys.

A chain is an ordered list of parquet files, oldest first: the first
is its *base*, and each epoch appends a delta file. A chain past
:data:`COMPACT_AT` files is compacted by :func:`compact`, which decides
from the files' on-disk sizes alone (Delta Lake's OPTIMIZE likewise
bin-packs small files, leaves large ones alone and changes no rows):

- while the non-base files hold fewer bytes than :data:`MERGE_BELOW`
  times the base, only they are read and merged into one ``compact-E``
  file (:func:`merged`: each key's rows from its newest file,
  tombstones included), and the chain becomes ``[base, compact-E]``;
- otherwise the whole chain is rewritten as one ``compact-E`` file of
  live rows (:func:`compacted`), the base included.

So a chain's bytes stay under twice its base's after every compaction,
and a base is rewritten only once the deltas outgrow it, not every
``COMPACT_AT`` epochs. Either file is a function of its rows, so a
replay rewrites the same bytes. A :class:`Format` names what differs
between the kinds — the key (``repo\\0path`` / ``uri``), the tombstone
(``_deleted`` / ``action == "del"``), the compact files' row order and
their directory. GC of chain files is the owning epoch store's rule
(``checkpoint.LAKE`` / ``checkpoint.LINKS``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from silk_ray.cdc import checkpoint as ckpt

COMPACT_AT = 8  # chain files (of any kind) before compaction
# a compaction merges only the non-base files while their bytes are
# under this fraction of the base's, else it rewrites the base too
MERGE_BELOW = 1


def compact_due(n_files: int) -> bool:
    """Whether a chain of ``n_files`` files, the base and a merged file
    included, is compacted this epoch (:func:`compact`). The count
    bounds the fan-in of every chain read."""
    return n_files > COMPACT_AT


@dataclass(frozen=True)
class Format:
    """How one LSM's files are keyed, tombstoned, ordered and named."""

    key: Callable[[pa.Table], pa.Array]  # one reconcile key per row
    tombstone: str  # the column that marks tombstone rows
    live: object  # its value on a live row (any other value is a tombstone)
    live_first: bool  # a compact file carries it first (else last)
    order: tuple  # sort keys of a compact file's rows
    part_dir: str  # "<data dir>/<partition prefix>"


def _lake_key(t: pa.Table) -> pa.Array:
    """repo \\x00 path composite key as a single Array."""
    k = pc.binary_join_element_wise(t["repo"], t["path"], "\x00")
    return k.combine_chunks() if isinstance(k, pa.ChunkedArray) else k


LAKE = Format(
    _lake_key, "_deleted", False, False,
    (("_kh", "ascending"), ("repo", "ascending"), ("path", "ascending")),
    "partitions/p",
)
def _uri_key(t: pa.Table) -> pa.Array:
    return t["uri"].combine_chunks()


# the link index's two kinds: a uri's newest write holds all its sides
_LINK_ORDER = (("side", "ascending"), ("uri", "ascending"), ("action", "ascending"))
BLOCKMAP = Format(_uri_key, "action", "add", True, _LINK_ORDER, "blockmap/bp")
ENTITIES = Format(_uri_key, "action", "add", True, _LINK_ORDER, "blockmap/ent")


class SchemaConflictError(ValueError):
    """A payload column arrived with an Arrow type that cannot be
    safely promoted against what the lake already holds."""


def promote_type(name: str, a: pa.DataType, b: pa.DataType) -> pa.DataType:
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


def unify_schema(schemas: list[pa.Schema]) -> pa.Schema:
    """Union of schemas (insertion order: oldest file first, new
    columns appended as they appear; same-name fields with different
    types promote through the safe lattice)."""
    fields: dict[str, pa.Field] = {}
    for schema in schemas:
        for f in schema:
            prev = fields.get(f.name)
            if prev is None:
                fields[f.name] = f
            elif not prev.type.equals(f.type):
                fields[f.name] = pa.field(f.name, promote_type(f.name, prev.type, f.type))
    return pa.schema(list(fields.values()))


def pad_to_schema(t: pa.Table, schema: pa.Schema) -> pa.Table:
    cols = {}
    for f in schema:
        if f.name in t.column_names:
            col = t[f.name]
            cols[f.name] = col if col.type == f.type else pc.cast(col, f.type)
        else:
            cols[f.name] = pa.nulls(t.num_rows, f.type)
    return pa.table(cols)


def concat(tables: list[pa.Table]) -> pa.Table:
    """The tables stacked under their unified schema (missing columns
    null-padded)."""
    schema = unify_schema([t.schema for t in tables])
    return pa.concat_tables(
        [t if t.schema.equals(schema) else pad_to_schema(t, schema) for t in tables]
    )


def _newest(tables: list[pa.Table], fmt: Format) -> tuple[pa.Table, np.ndarray] | None:
    """A chain's tables (oldest first) stacked under their unified
    schema, and the mask of each key's rows from the newest table that
    holds the key. None when no table has a row."""
    tables = [t for t in tables if t.num_rows]
    if not tables:
        return None
    allt = concat(tables)
    keep = np.ones(allt.num_rows, bool)
    if len(tables) > 1:
        # a key's newest file = the max file index over its rows
        codes = pc.dictionary_encode(fmt.key(allt)).indices.to_numpy(zero_copy_only=False)
        fidx = np.repeat(np.arange(len(tables), dtype=np.int32), [t.num_rows for t in tables])
        newest = np.full(int(codes.max()) + 1, -1, np.int32)
        np.maximum.at(newest, codes, fidx)
        keep = fidx == newest[codes]
    return allt, keep


def reconcile(tables: list[pa.Table], fmt: Format) -> pa.Table | None:
    """Newest-file-wins over a chain's tables (oldest first): each
    key's rows from the newest table that holds the key, minus
    tombstones, in chain order. Schemas are unified across the chain
    (evolution: missing columns null-padded). The tombstone column, when
    present, is kept (every surviving row is live). None when no table
    has a row."""
    stacked = _newest(tables, fmt)
    if stacked is None:
        return None
    allt, keep = stacked
    if fmt.tombstone in allt.column_names:
        dead = pc.fill_null(pc.not_equal(allt[fmt.tombstone], fmt.live), False)
        keep &= ~dead.to_numpy(zero_copy_only=False)
    return allt if keep.all() else allt.filter(pa.array(keep))


def compacted(tables: list[pa.Table], fmt: Format) -> pa.Table:
    """A base rewrite's rows: the reconciled chain, every row marked
    live, sorted in the chain's file order."""
    live = reconcile(tables, fmt)
    if live is None:
        live = unify_schema([t.schema for t in tables]).empty_table()
    if fmt.tombstone in live.column_names:
        live = live.drop_columns([fmt.tombstone])
    flag = pa.array(np.full(live.num_rows, fmt.live))
    if fmt.live_first:
        live = live.add_column(0, fmt.tombstone, flag)
    else:
        live = live.append_column(fmt.tombstone, flag)
    return live.sort_by(list(fmt.order))


def merged(tables: list[pa.Table], fmt: Format) -> pa.Table:
    """A merged file's rows: each key's rows from the newest of
    ``tables`` (a chain's non-base files, oldest first) that holds the
    key, tombstones included, sorted in the chain's file order. A chain
    ``[base, merged(rest)]`` reconciles as ``[base, *rest]`` does."""
    stacked = _newest(tables, fmt)
    if stacked is None:
        return unify_schema([t.schema for t in tables]).empty_table()
    allt, keep = stacked
    return (allt if keep.all() else allt.filter(pa.array(keep))).sort_by(list(fmt.order))


def _write(root: str, t: pa.Table, fmt: Format, part: int, epoch: int) -> str:
    """Write ``t`` as partition ``part``'s ``compact-E`` file; returns
    its path relative to ``root``."""
    rel = os.path.join(f"{fmt.part_dir}={part:05d}", f"compact-{epoch:06d}.parquet")
    ckpt.atomic_write_parquet(t, os.path.join(root, rel))
    return rel


def write_compact(root: str, tables: list[pa.Table], fmt: Format, part: int, epoch: int) -> str:
    """Write partition ``part``'s chain (its tables, oldest first) as one
    ``compact-E`` file of live rows; returns its path relative to
    ``root``. The content is a function of the rows, so a replay
    rewrites the same bytes."""
    return _write(root, compacted(tables, fmt), fmt, part, epoch)


def compact(root: str, files: list[str], fmt: Format, part: int, epoch: int,
            read: Callable[[list[str]], list[pa.Table]]) -> tuple[list[str], str, int]:
    """Compact partition ``part``'s chain ``files`` (relative to
    ``root``, oldest first) at ``epoch``; ``read`` maps a list of them to
    their tables. Returns the new chain, the kind of compaction and the
    bytes it wrote:

    - ``"merge"`` while ``files[1:]`` hold fewer bytes than
      :data:`MERGE_BELOW` times ``files[0]``: only they are read, and
      merged (:func:`merged`) into one file; the chain is
      ``[files[0], compact-E]``;
    - ``"rewrite"`` otherwise: the whole chain as one file of live rows
      (:func:`write_compact`).
    """
    size = [os.path.getsize(os.path.join(root, f)) for f in files]
    if sum(size[1:]) < MERGE_BELOW * size[0]:
        new = [files[0], _write(root, merged(read(files[1:]), fmt), fmt, part, epoch)]
        kind = "merge"
    else:
        new = [write_compact(root, read(files), fmt, part, epoch)]
        kind = "rewrite"
    return new, kind, os.path.getsize(os.path.join(root, new[-1]))


def chain_bytes(root: str, chains) -> dict:
    """Base against non-base bytes over ``chains`` (file lists relative
    to ``root``): how close the chains are to their next base rewrite.
    ``max_ratio`` is the largest non-base ÷ base ratio of one chain."""
    base = rest = 0
    ratio = 0.0
    for files in chains:
        if not files:
            continue
        head, *tail = [os.path.getsize(os.path.join(root, f)) for f in files]
        base += head
        rest += sum(tail)
        ratio = max(ratio, sum(tail) / max(head, 1))
    return {"base_bytes": base, "delta_bytes": rest, "max_ratio": round(ratio, 3)}


def count_compactions(done) -> dict:
    """An epoch record's ``compactions`` entry from its compactions'
    ``(kind, bytes)`` pairs: per kind, how many ran and the bytes they
    wrote."""
    out = {kind: {"count": 0, "bytes": 0} for kind in ("merge", "rewrite")}
    for kind, nbytes in done:
        out[kind]["count"] += 1
        out[kind]["bytes"] += int(nbytes)
    return out
