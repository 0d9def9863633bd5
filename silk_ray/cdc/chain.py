"""LSM delta chains: the reconcile, compaction rule and compact-file
writer that every chain of the engine shares. There are three kinds:

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

A chain is an ordered list of parquet files, oldest first: each epoch
appends a delta file, and a compaction rewrites the chain as one
``compact-E`` file. A :class:`Format` names what differs between the
kinds — the key (``repo\\0path`` / ``uri``), the tombstone
(``_deleted`` / ``action == "del"``), the compact file's row order and
its directory. GC of chain files is the owning epoch store's rule
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


def compact_due(n_files: int) -> bool:
    """Whether a chain of ``n_files`` files is compacted this epoch."""
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


def reconcile(tables: list[pa.Table], fmt: Format) -> pa.Table | None:
    """Newest-file-wins over a chain's tables (oldest first): each
    key's rows from the newest table that holds the key, minus
    tombstones, in chain order. Schemas are unified across the chain
    (evolution: missing columns null-padded). The tombstone column, when
    present, is kept (every surviving row is live). None when no table
    has a row."""
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
    if fmt.tombstone in allt.column_names:
        dead = pc.fill_null(pc.not_equal(allt[fmt.tombstone], fmt.live), False)
        keep &= ~dead.to_numpy(zero_copy_only=False)
    return allt if keep.all() else allt.filter(pa.array(keep))


def compacted(tables: list[pa.Table], fmt: Format) -> pa.Table:
    """A compact file's rows: the reconciled chain, every row marked
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


def write_compact(root: str, tables: list[pa.Table], fmt: Format, part: int, epoch: int) -> str:
    """Write partition ``part``'s chain (its tables, oldest first) as one
    ``compact-E`` file; returns its path relative to ``root``. The
    content is a function of the rows, so a replay rewrites the same
    bytes."""
    rel = os.path.join(f"{fmt.part_dir}={part:05d}", f"compact-{epoch:06d}.parquet")
    ckpt.atomic_write_parquet(compacted(tables, fmt), os.path.join(root, rel))
    return rel
