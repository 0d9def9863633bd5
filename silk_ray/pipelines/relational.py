"""Relational building blocks over Ray Datasets: broadcast joins,
pre-aggregation, deterministic top-k.

Join strategy per ray_guide: the small side is materialized once,
shipped via ``ray.put`` and read in each task/actor — no shuffle. Both
stages pre-aggregate inside ``map_batches`` where possible so the
``groupby`` shuffle moves partial rows, not raw rows. The keyed
shuffle operators (lookup, semi/anti filter, grouped apply, as-of and
range joins) all run through one :func:`keyed_exchange`.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc


def broadcast_semi_filter(ds, key_col: str, keys):
    """Semi-join: keep rows whose key is in the broadcast key set."""
    import ray

    ref = ray.put(np.asarray(sorted(keys)))

    def fn(batch: pa.Table) -> pa.Table:
        sorted_keys = ray.get(ref)
        vals = batch[key_col].to_numpy(zero_copy_only=False)
        idx = np.searchsorted(sorted_keys, vals)
        idx[idx >= len(sorted_keys)] = len(sorted_keys) - 1 if len(sorted_keys) else 0
        mask = len(sorted_keys) > 0 and sorted_keys[idx] == vals
        return batch.filter(pa.array(mask if isinstance(mask, np.ndarray) else [False] * batch.num_rows))

    return ds.map_batches(fn, batch_format="pyarrow")


def broadcast_anti_filter(ds, key_col: str, keys):
    """Anti-join: drop rows whose key is in the broadcast key set (the
    complement of :func:`broadcast_semi_filter`, same sorted-array
    membership kernel)."""
    import ray

    ref = ray.put(np.asarray(sorted(keys)))

    def fn(batch: pa.Table) -> pa.Table:
        sorted_keys = ray.get(ref)
        if len(sorted_keys) == 0:
            return batch
        vals = batch[key_col].to_numpy(zero_copy_only=False)
        hit, _ = lookup_sorted(sorted_keys, sorted_keys, vals)
        return batch.filter(pa.array(~hit))

    return ds.map_batches(fn, batch_format="pyarrow")


def broadcast_lookup(ds, key_col: str, mapping: dict, out_col: str, drop_missing: bool = True):
    """Dimension join: map key → value via a broadcast dict (pandas map)."""
    import ray

    ref = ray.put(mapping)

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        m = ray.get(ref)
        df[out_col] = df[key_col].map(m)
        if drop_missing:
            df = df[df[out_col].notna()]
        return df

    return ds.map_batches(fn, batch_format="pandas")


def lookup_sorted(sorted_keys, sorted_vals, vals):
    """Vectorized membership + value lookup of ``vals`` against aligned
    ``(sorted_keys, sorted_vals)`` arrays. Returns ``(hit mask, values
    at the matched positions)`` — positions for misses are arbitrary, so
    gate every use on the mask."""
    if len(sorted_keys) == 0:
        return np.zeros(len(vals), dtype=bool), np.empty(len(vals), dtype=object)
    idx = np.clip(np.searchsorted(sorted_keys, vals), 0, len(sorted_keys) - 1)
    return sorted_keys[idx] == vals, sorted_vals[idx]


def broadcast_lookup_sorted(ds, key_col: str, keys, values, out_col: str, drop_missing: bool = True):
    """Dimension join via broadcast sorted arrays + vectorized
    ``np.searchsorted`` — same shape as :func:`broadcast_lookup` but
    ships two numpy arrays instead of a Python dict (hash-free lookup,
    ~10x smaller serialized payload for large dimensions)."""
    import ray

    keys = np.asarray(keys)
    order = np.argsort(keys)
    ref = ray.put((keys[order], np.asarray(values, dtype=object)[order]))

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        sorted_keys, sorted_vals = ray.get(ref)
        hit, looked = lookup_sorted(sorted_keys, sorted_vals, df[key_col].to_numpy())
        out = np.full(len(df), None, dtype=object)
        out[hit] = looked[hit]
        df[out_col] = out
        if drop_missing:
            df = df[hit]
        return df

    return ds.map_batches(fn, batch_format="pandas")


_NULL_HASH = np.int64(0x3C6EF372FE94F82B)  # the one tag of a null key
_TAG = "__xkey"
_MARK = "__xempty"  # keyed_exchange's marker row for a typed empty output


def _key_hash(arr) -> np.ndarray:
    """Int64 hash of every value of an Arrow array, for the
    :func:`keyed_exchange` tag: equal values hash equal, and every null
    gets the one fixed ``_NULL_HASH``. Strings and binaries hash once
    per DISTINCT value (dictionary-encode, crc32 per unique, numpy
    take); other types get a splitmix-style uint64 mix of their integer
    image."""
    import zlib

    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if arr.null_count:
        valid = arr.is_valid()
        out = np.full(len(arr), _NULL_HASH, np.int64)
        out[valid.to_numpy(zero_copy_only=False)] = _key_hash(arr.filter(valid))
        return out
    t = arr.type
    if pa.types.is_string(t) or pa.types.is_large_string(t) or pa.types.is_binary(t) or pa.types.is_large_binary(t):
        enc = arr.dictionary_encode()
        uniq = enc.dictionary.to_pylist()
        crc_u = np.fromiter(
            (zlib.crc32(v if isinstance(v, bytes) else v.encode()) for v in uniq), np.int64, len(uniq)
        )
        return crc_u[enc.indices.to_numpy(zero_copy_only=False)]
    a = arr.to_numpy(zero_copy_only=False).astype(np.uint64, copy=False)
    h = a * np.uint64(0x9E3779B97F4A7C15)
    h ^= h >> np.uint64(31)
    return h.view(np.int64)


def _keys_hash(b: pa.Table, keys: list[str]) -> np.ndarray:
    """One int64 tag over several key columns: each column's
    :func:`_key_hash`, folded left by a multiply-xorshift pair mix."""
    h = _key_hash(b[keys[0]])
    for k in keys[1:]:
        m = h.view(np.uint64) * np.uint64(0xA24BAED4963EE407) ^ _key_hash(b[k]).view(np.uint64)
        m ^= m >> np.uint64(29)
        h = m.view(np.int64)
    return h


def keyed_exchange(ds, key: str | list[str], reduce, *, blocks: int | None = None,
                   batch_format: str = "pyarrow", empty: pa.Table | None = None):
    """The Ray Data keyed exchange: bring every row of one key into one
    block, then call ``reduce`` once per block. ``ds`` is a Dataset or
    a list of Datasets with one schema (the sides of a join), which are
    exchanged as their union.

    1. tag each row with :func:`_key_hash` of ``key`` (a list of key
       columns gets one mixed hash; every null key gets the same tag),
       each side before the union, so the tag fuses with the side's
       last map;
    2. repartition to ``blocks`` when given;
    3. range-``sort`` on the tag;
    4. drop the tag and call ``reduce`` on each block as ``batch_format``
       (``batch_size=None``: the whole block, never a slice of it).

    ``blocks == 1`` skips the tag and the sort: the one block already
    holds every key.

    Ray's sort keeps equal sort keys in one output block, so each key
    group reaches ``reduce`` whole; a block holds many groups, and
    ``reduce`` groups in memory. The tag is full-range, not
    ``hash % P``: it keeps the sort boundaries high-cardinality, since
    duplicate boundaries are what create empty range partitions. Ray
    2.49 builds an empty range partition as a zero-row block with no
    schema, and its ``map_batches`` hands zero-row blocks on without
    calling the UDF; this exchange hands them on unchanged too, so
    ``reduce`` sees only non-empty blocks and needs no zero-row guard.
    An empty block holds no rows and no columns, and every reader
    skips it; a wholly empty exchange therefore has no schema. Pass
    ``blocks=1`` for a stream known to be small with fewer keys than
    blocks (e.g. a local pre-aggregation pruned it), where a range
    split would make most partitions empty.

    ``empty``, a zero-row table in ``reduce``'s output schema, gives
    the output that schema whatever the input: one marker row rides the
    exchange, and the block that holds it is reduced without it, or
    becomes ``empty`` when the marker is all it holds."""

    fmt = batch_format if empty is None else "pyarrow"  # the marker is dropped in Arrow

    def run(block):
        if not len(block):
            return block
        if empty is not None and _MARK in block.column_names:
            block = block.filter(pc.is_null(block[_MARK])).drop_columns([_MARK])
            if not block.num_rows:
                return empty
        if blocks != 1:
            block = block.drop(columns=_TAG) if fmt == "pandas" else block.drop_columns([_TAG])
        return reduce(block if fmt == batch_format else block.to_pandas())

    sides = list(ds) if isinstance(ds, list) else [ds]
    marker = None
    if empty is not None:
        import ray.data as rd

        marker = {_MARK: pa.array([True])}
        if blocks != 1:
            marker[_TAG] = pa.array([0], pa.int64())
        marker = rd.from_arrow(pa.table(marker))
    if blocks == 1:
        sides += [marker] if marker is not None else []
        whole = sides[0].union(*sides[1:]) if len(sides) > 1 else sides[0]
        return whole.repartition(1).map_batches(run, batch_format=fmt, batch_size=None)
    keys = [key] if isinstance(key, str) else list(key)

    def tag(b: pa.Table) -> pa.Table:
        return b.append_column(_TAG, pa.array(_keys_hash(b, keys), pa.int64()))

    tagged = [side.map_batches(tag, batch_format="pyarrow") for side in sides]
    tagged += [marker] if marker is not None else []
    tagged = tagged[0].union(*tagged[1:]) if len(tagged) > 1 else tagged[0]
    if blocks:
        tagged = tagged.repartition(blocks)
    return tagged.sort(_TAG).map_batches(run, batch_format=fmt, batch_size=None)


def _lookup_sides(ds, key_col: str, dim, dim_key: str, dim_val: str | None = None, out_col: str | None = None):
    """A fact and a dimension side under the fact schema, for one
    :func:`keyed_exchange`: fact rows carry ``_dside`` 1; dimension
    rows carry ``_dside`` 0, their key cast to the fact key's type in
    ``key_col`` and typed nulls in every other fact column. With
    ``dim_val`` the dimension's value rides along as ``out_col`` (null
    on fact rows)."""
    base = ds.schema().base_schema
    key_type = base.field(key_col).type
    val_type = dim.schema().base_schema.field(dim_val).type if dim_val else None

    def tag_fact(b: pa.Table) -> pa.Table:
        if dim_val:
            b = b.append_column(out_col, pa.nulls(b.num_rows, val_type))
        return b.append_column("_dside", pa.array(np.ones(b.num_rows, np.int8)))

    def tag_dim(b: pa.Table) -> pa.Table:
        keys = b[dim_key].cast(key_type)
        cols = {f.name: keys if f.name == key_col else pa.nulls(b.num_rows, f.type) for f in base}
        if dim_val:
            cols[out_col] = b[dim_val]
        cols["_dside"] = pa.array(np.zeros(b.num_rows, np.int8))
        return pa.table(cols)

    return [
        ds.map_batches(tag_fact, batch_format="pyarrow"),
        dim.map_batches(tag_dim, batch_format="pyarrow"),
    ]


def _split_sides(g: pa.Table):
    """(fact rows, dimension rows) of one exchanged block."""
    fact = pc.equal(g["_dside"], 1)
    return g.filter(fact).drop_columns(["_dside"]), g.filter(pc.invert(fact))


def shuffle_lookup(ds, key_col: str, dim, dim_key: str, dim_val: str, out_col: str):
    """Hash-shuffle dimension join (inner): attach ``dim_val`` as
    ``out_col`` to every ``ds`` row whose key matches a ``dim`` row;
    unmatched rows drop, and so do null-keyed rows (a null key matches
    nothing). The scale path when the dimension exceeds the broadcast
    gate: both sides go through one :func:`keyed_exchange` and each
    block joins with an Arrow hash lookup (``index_in``). Dimension keys
    are assumed unique (a duplicate keeps its first value in the block,
    fine for key-unique dimensions)."""
    if out_col in ds.schema().base_schema.names:
        raise ValueError(f"out_col {out_col!r} already exists")

    def join_block(g: pa.Table) -> pa.Table:
        fact, dim_rows = _split_sides(g)
        idx = pc.index_in(
            fact[key_col], value_set=dim_rows[key_col].combine_chunks(), skip_nulls=True
        )
        hit = pc.is_valid(idx)
        return fact.drop_columns([out_col]).filter(hit).append_column(
            out_col, dim_rows[out_col].take(idx.filter(hit))
        )

    return keyed_exchange(_lookup_sides(ds, key_col, dim, dim_key, dim_val, out_col), key_col, join_block)


def _shuffle_member_filter(ds, key_col: str, keys_ds, keys_col: str, keep_hits: bool):
    """Keep (semi) or drop (anti) the ``ds`` rows whose key appears in
    ``keys_ds``, through one :func:`keyed_exchange` of both sides. A
    null key is never a hit."""

    def filter_block(g: pa.Table) -> pa.Table:
        fact, dim_rows = _split_sides(g)
        hit = pc.is_in(fact[key_col], value_set=dim_rows[key_col].combine_chunks(), skip_nulls=True)
        return fact.filter(hit if keep_hits else pc.invert(hit))

    return keyed_exchange(_lookup_sides(ds, key_col, keys_ds, keys_col), key_col, filter_block)


def shuffle_semi_filter(ds, key_col: str, keys_ds, keys_col: str):
    """Hash-shuffle semi-join: keep ``ds`` rows whose key appears in
    ``keys_ds``; null-keyed rows drop. The fallback when the key side is
    too big for :func:`broadcast_semi_filter`'s driver-side set."""
    return _shuffle_member_filter(ds, key_col, keys_ds, keys_col, keep_hits=True)


def shuffle_anti_filter(ds, key_col: str, keys_ds, keys_col: str):
    """Hash-shuffle anti-join: drop ``ds`` rows whose key appears in
    ``keys_ds``; null-keyed rows stay (a null matches nothing). The
    scale fallback when the drop set exceeds
    :func:`broadcast_anti_filter`'s driver-side array (e.g. the
    non-representative members of duplicate clusters at corpus scale)."""
    return _shuffle_member_filter(ds, key_col, keys_ds, keys_col, keep_hits=False)


def grouped_apply(ds, key_col: str, fn, coalesce: int | None = None):
    """Keyed grouped apply: one :func:`keyed_exchange` on ``key_col``,
    then a vectorized pandas ``groupby`` inside each block, which
    avoids Ray's per-group map_groups overhead when there are many
    small groups (same trick as the linking scorer).

    ``fn`` receives a pandas DataFrame of ONE key group and returns a
    DataFrame (the classic map_groups contract). Null-keyed rows drop
    (pandas' ``groupby`` default ``dropna``). ``coalesce`` is the
    exchange's ``blocks``: pass 1 when the stream is small and the key
    low-cardinality (e.g. top-k per language after a local prune)."""

    def apply_block(part: pd.DataFrame) -> pd.DataFrame:
        outs = [fn(g) for _, g in part.groupby(key_col, sort=True)]
        return pd.concat(outs, ignore_index=True) if outs else pd.DataFrame()

    return keyed_exchange(ds, key_col, apply_block, blocks=coalesce, batch_format="pandas")


def _merge_sides(left, right, by: str, on: str, value_cols: dict[str, str]):
    """Both join sides under one explicit unified Arrow schema (left
    types win for shared names; right-only value columns keep their own
    type; padding is typed nulls, so the union never sees null-type vs
    typed-column conflicts), without the rows whose ``by`` or ``on`` is
    null (SQL join semantics: they match nothing). A self-join
    (``right is left``) tags both sides from ONE scan instead of
    re-running the shared lineage twice. Returns ``(sides, left_cols)``."""
    left_schema = left.schema().base_schema
    right_schema = right.schema().base_schema if right is not left else left_schema
    left_cols = list(left_schema.names)
    right_keep = [by, on] + sorted(set(value_cols) - {by, on})
    fields = list(left_schema)
    for c in right_keep:
        if c not in left_cols:
            fields.append(right_schema.field(c))
    unified = pa.schema(fields + [pa.field("_side", pa.int8())])

    def retype(batch: pa.Table, side: int) -> pa.Table:
        keep = set(left_cols) if side == 0 else set(right_keep)
        cols = {}
        for f in unified:
            if f.name == "_side":
                cols[f.name] = pa.nulls(batch.num_rows, pa.int8()).fill_null(side)
            elif f.name in keep and f.name in batch.column_names:
                col = batch[f.name]
                cols[f.name] = col if col.type == f.type else col.cast(f.type)
            else:
                cols[f.name] = pa.nulls(batch.num_rows, f.type)
        out = pa.table(cols)
        valid = pc.and_(pc.is_valid(out[by]), pc.is_valid(out[on]))
        return out if pc.all(valid).as_py() else out.filter(valid)

    if right is left:
        sides = [left.map_batches(
            lambda b: pa.concat_tables([retype(b, 0), retype(b, 1)]),
            batch_format="pyarrow",
        )]
    else:
        sides = [
            left.map_batches(lambda b: retype(b, 0), batch_format="pyarrow"),
            right.map_batches(lambda b: retype(b, 1), batch_format="pyarrow"),
        ]
    return sides, left_cols


def _keyed_merge_join(left, right, by, on, value_cols, emit):
    """Shared machinery of :func:`asof_join` / :func:`range_join` —
    Arrow-native throughout (typed-null padding never passes through a
    pandas conversion, so integer value columns stay exact int64):

    1. both sides under one unified schema, without null ``by`` or
       ``on`` rows (:func:`_merge_sides`);
    2. one :func:`keyed_exchange` on ``by``;
    3. per block: ONE sort by ``(by, _side, on, value srcs)`` (the
       trailing value columns make tie-breaking among equal ``on``
       rows deterministic regardless of shuffle arrival order), then a
       per-key vectorized merge: ``emit(l_on, r_on)`` returns the
       matched (left, right) local index arrays from two binary
       searches, and the output is built by two ``take`` calls."""
    sides, left_cols = _merge_sides(left, right, by, on, value_cols)
    tie_cols = [c for c in sorted(set(value_cols)) if c not in (by, on)]

    def merge_block(part: pa.Table) -> pa.Table:
        order = pc.sort_indices(
            part,
            sort_keys=[(by, "ascending"), ("_side", "ascending"), (on, "ascending")]
            + [(c, "ascending") for c in tie_cols],
        )
        part = part.take(order).combine_chunks()
        by_np = part[by].to_numpy(zero_copy_only=False)
        side_np = part["_side"].to_numpy()
        on_np = part[on].to_numpy(zero_copy_only=False)
        changes = np.nonzero(by_np[1:] != by_np[:-1])[0] + 1
        starts = np.concatenate(([0], changes, [len(by_np)]))
        l_takes, r_takes = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
        for s, e in zip(starts[:-1], starts[1:]):
            mid = s + int(np.searchsorted(side_np[s:e], 1, side="left"))
            if mid == s or mid == e:  # one side empty for this key
                continue
            li, ri = emit(on_np[s:mid], on_np[mid:e])
            l_takes.append(li + s)
            r_takes.append(ri + mid)
        lt = part.take(pa.array(np.concatenate(l_takes)))
        rt = part.take(pa.array(np.concatenate(r_takes)))
        cols = {c: lt[c] for c in left_cols}
        for src, dst in value_cols.items():
            cols[dst] = rt[src]
        return pa.table(cols)

    return keyed_exchange(sides, by, merge_block)


def asof_join(
    left,
    right,
    by: str,
    on: str,
    value_cols: dict[str, str],
    strict: bool = True,
):
    """Backward as-of join (inner): each left row is matched to the
    single right row with the greatest ``on`` value at-or-before
    (``strict``: strictly before) the left row's ``on``, within the
    same ``by`` key. ``value_cols`` maps right column → output name.
    Left rows with no predecessor are dropped (inner semantics, so
    output types stay non-null), and so is every row with a null
    ``by`` or ``on`` value. Ties among right rows with equal
    ``on`` are broken deterministically by the value columns' sort
    order.

    Partitioning: both sides are hash-co-partitioned on ``by`` (the
    same coarse shuffle key every other keyed op uses); the per-key
    merge is sort + ``np.searchsorted`` — O((n+m) log (n+m)) per key,
    no per-pair work. Assumption: one ``by``-key group fits a single
    task (same as grouped_apply); salt hot keys upstream if a single
    key's rows exceed a task's memory."""
    return _keyed_merge_join(left, right, by, on, value_cols, _asof_emit(strict))


def _asof_emit(strict: bool):
    """Per-key as-of match kernel on sorted ``on`` arrays: local (left,
    right) index pairs of each left row's latest predecessor."""
    side = "left" if strict else "right"

    def emit(l_on: np.ndarray, r_on: np.ndarray):
        idx = np.searchsorted(r_on, l_on, side=side) - 1
        hit = np.nonzero(idx >= 0)[0]
        return hit, idx[hit]

    return emit


def range_join(
    left,
    right,
    by: str,
    on: str,
    lo,
    hi,
    value_cols: dict[str, str],
):
    """Banded non-equi join (inner): each left row matched to EVERY
    right row of the same ``by`` key whose ``on`` lies in
    ``[left.on + lo, left.on + hi)`` (half-open; ``lo``/``hi`` may be
    negative, e.g. ``lo=-Timedelta('30m'), hi=Timedelta(0)`` = the
    preceding 30-minute window). Emits one row per matched pair:
    left columns + ``value_cols`` (right column → output name). Rows
    with a null ``by`` or ``on`` value match nothing.

    Partitioning: both sides hash-co-partitioned on ``by``; per key
    the right side is sorted once and each left row's band is found
    with two binary searches, pairs materialized by vectorized repeat
    — O((n+m) log (n+m) + pairs) per key, never O(n·m) probing.
    Assumptions: one ``by``-key group fits a task, and the band is
    selective enough that ``pairs`` per key fits a task's memory (cap
    the band upstream for hot keys)."""
    if not (lo <= hi):
        raise ValueError(f"range_join requires lo <= hi, got lo={lo!r} hi={hi!r}")
    return _keyed_merge_join(left, right, by, on, value_cols, _range_emit(lo, hi))


def _range_emit(lo, hi):
    """Per-key band-match kernel on sorted ``on`` arrays: local (left,
    right) index pairs for every right row in ``[l+lo, l+hi)``."""

    def emit(l_on: np.ndarray, r_on: np.ndarray):
        lo_idx = np.searchsorted(r_on, l_on + lo, side="left")
        hi_idx = np.searchsorted(r_on, l_on + hi, side="left")
        counts = np.maximum(hi_idx - lo_idx, 0)
        total = int(counts.sum())
        left_take = np.repeat(np.arange(len(l_on)), counts)
        offsets = np.repeat(np.cumsum(counts) - counts, counts)
        right_take = np.repeat(lo_idx, counts) + (np.arange(total) - offsets)
        return left_take, right_take

    return emit


def round_columns(ds, cols: dict[str, int]):
    def fn(df: pd.DataFrame) -> pd.DataFrame:
        for c, nd in cols.items():
            df[c] = df[c].round(nd)
        return df

    return ds.map_batches(fn, batch_format="pandas")
