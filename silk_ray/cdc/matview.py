"""Incrementally maintained aggregate views (materialized GROUP BY)
over the CDC lake.

The engine maintains the *row* state per epoch (cdc/merge.py), the
*link* set (cdc/incremental.py) and the *cluster* table
(cdc/clusters.py); this module maintains materialized aggregates —
``GROUP BY g → count(*), SUM(expr)…`` — the standing dashboards /
feature-stat tables every ingest pipeline keeps next to the lake
(the reference emits per-execution transform/link reports,
e.g. silk-rules TransformReport / ExecutionReport; a continuously
tailing engine needs the maintained equivalent).

Delta-native: each merge epoch has a *change set*
(``merge.epoch_changes``) carrying ``change ∈ {I,U,D}`` plus the full
``old_*``/``new_*`` payload of every changed key, one table per touched
partition. That is exactly the Δ a subtractable aggregate needs:

    I → +new      U → +new −old      D → −old

so per epoch the view update reads ONLY the change set (O(delta)) —
the merge tasks' in-memory tables when the view sat at the previous
epoch, else the same rows derived from the lake — pre-aggregates each
table's contributions (one partial row per distinct touched group,
plus the min/max support partials below), and merges the combined
group delta into the stored view. Sum measures are **exact-integer sums**
(``sum`` of an int column, ``sum_strlen`` of a string column) — order-
independent and replay-byte-identical, unlike float accumulation;
count-0 groups must zero out exactly and are dropped (enforced: a
nonzero residue raises).

**min/max** are not subtractable (a delete of a group's extremum
would need a group rescan), so they are maintained through the
classic IVM *support structure*: a co-sharded ``(group, value) →
count`` store, whose per-value count IS subtractable and therefore
updates in O(delta); the group's min/max reduce over its surviving
support rows at read time. Storage is O(groups × distinct values per
group) — declare min/max over bounded-cardinality columns.

Storage is an LSM-ish sharded manifest, the same idiom as the link
store: the view is hash-sharded by group key (crc32, interpreter-
independent) into ``num_shards`` parquet files; an epoch rewrites only
the shards whose groups were touched, the manifest carries every other
shard file forward verbatim — per-epoch I/O is O(delta), not O(view).
Commit is an atomic ``_aggstate.json`` pointer swap with per-epoch
snapshots for as-of-epoch reads and retention-aware GC, exactly like
the lake / links / clusters stores. A catch-up lag of more than one
epoch triggers a loud FULL rebuild (one streaming pass over
``snapshot_dataset``), which is always correct, and the metrics say it
happened.

Execution: the per-epoch delta path is one plain pyarrow pass on the
driver — pre-aggregate each change table, merge each affected shard
with its committed file and write it — with no Ray Data execution and
no Ray task. Its input is O(delta): a few tables of delta/P rows, the
same rows the egress stage reads, so a fixed executor start per epoch
would cost far more than the work. The full rebuild stays a streaming
Ray Data scan of ``snapshot_dataset`` (one reconcile task per
partition); its batches
are pre-aggregated one at a time as the driver iterates them, so the
driver holds group partials, never the state.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from silk_ray.cdc import checkpoint as ckpt
from silk_ray.cdc.merge import epoch_changes

# measure fns: name -> (evaluate(column) -> int64 array, nulls already 0)
_NULL_TOKEN = "\x00\x00null"  # group-key serialization marker for shard hashing


@dataclass(frozen=True)
class AggViewSpec:
    """A maintained view: GROUP BY ``group_by`` with exact measures.

    measures: out_column -> (fn, src_column); fn in {"sum",
    "sum_strlen", "min", "max"}. ``sum`` totals an integer column
    (nulls count 0 — pair it with COALESCE(x, 0) in SQL);
    ``sum_strlen`` totals utf8 char lengths; ``min``/``max`` take the
    extremum of the source column in its own type (nulls ignored, SQL
    semantics) via the co-sharded support store — see
    ``minmax_measures``. Key columns (repo/path) may appear in
    group_by; they never change, so both event sides read the bare
    column.
    """

    group_by: tuple[str, ...]
    measures: dict[str, tuple[str, str]] = field(default_factory=dict)
    count_col: str = "n"
    num_shards: int = 32

    def __post_init__(self):
        object.__setattr__(self, "group_by", tuple(self.group_by))
        for out, (fn, _src) in self.measures.items():
            if fn not in ("sum", "sum_strlen", "min", "max"):
                raise ValueError(f"unknown measure fn {fn!r} for {out!r}")
            if out == self.count_col or out in self.group_by:
                raise ValueError(f"measure name {out!r} collides with view columns")

    @property
    def sum_measures(self) -> dict[str, tuple[str, str]]:
        return {o: fs for o, fs in self.measures.items() if fs[0] in ("sum", "sum_strlen")}

    @property
    def minmax_measures(self) -> dict[str, tuple[str, str]]:
        """min/max are NOT subtractable — they are maintained via a
        co-sharded SUPPORT store of (group, value) -> count rows (the
        classic IVM support-structure technique): the per-value count IS
        subtractable, so the support updates in O(delta), and min/max
        per group reduce over the group's surviving support rows at read
        time (``agg_table``). Storage is O(groups x distinct values per
        group); a delete of a group's extremum costs nothing extra —
        its support row just drops to count 0."""
        return {o: fs for o, fs in self.measures.items() if fs[0] in ("min", "max")}

    @property
    def support_srcs(self) -> list[str]:
        return sorted({src for _fn, src in self.minmax_measures.values()})

    def fingerprint(self) -> str:
        return json.dumps(
            {
                "group_by": list(self.group_by),
                "measures": {k: list(v) for k, v in sorted(self.measures.items())},
                "count_col": self.count_col,
                "num_shards": self.num_shards,
            },
            sort_keys=True,
        )


read_aggstate = ckpt.AGG_VIEW.read
read_aggstate_at = ckpt.AGG_VIEW.read_at
commit_aggstate = ckpt.AGG_VIEW.commit


def _measure_values(t: pa.Table, col_name: str | None, fn: str, n: int) -> pa.Array:
    """Evaluate one measure over a payload side; absent column (pre-
    evolution change schema) and nulls contribute 0."""
    if col_name is None or col_name not in t.column_names:
        return pa.array(np.zeros(n, dtype=np.int64), pa.int64())
    col = t[col_name]
    if fn == "sum_strlen":
        vals = pc.cast(pc.utf8_length(col), pa.int64())
    else:  # "sum"
        vals = pc.cast(col, pa.int64())
    return pc.fill_null(vals, 0)


def _partial_agg(t: pa.Table, spec: AggViewSpec) -> pa.Table:
    """Combine contribution rows: one row per distinct group."""
    keys = list(spec.group_by)
    aggs = [(spec.count_col, "sum")] + [(m, "sum") for m in spec.sum_measures]
    g = t.group_by(keys).aggregate(aggs)
    # pyarrow names results "<col>_sum"
    renames = {f"{c}_sum": c for c, _ in aggs}
    return g.rename_columns([renames.get(c, c) for c in g.column_names])


def _change_sides(changes: pa.Table) -> list[tuple[pa.Table, str, int]]:
    """A change table's event sides: I → +new, U → +new −old, D → −old."""
    return [
        (changes.filter(pc.is_in(changes["change"], value_set=pa.array(list(kinds)))), prefix, w)
        for prefix, kinds, w in (("new", ("I", "U"), 1), ("old", ("U", "D"), -1))
    ]


def _side_col(t: pa.Table, name: str, prefix: str | None) -> str:
    """Column holding ``name`` on one event side. Key columns (never
    prefixed in a change table) and snapshot rows (``prefix`` None)
    read the bare column, change payload columns ``{prefix}_{name}``."""
    return name if prefix is None or name in t.column_names else f"{prefix}_{name}"


def _contribute(
    sides: list[tuple[pa.Table, str | None, int]], spec: AggViewSpec
) -> tuple[pa.Table | None, dict[str, pa.Table | None]]:
    """±1 contributions of event sides ``(rows, prefix, weight)``,
    pre-aggregated: the view partial and, per min/max source, the
    support partial (None when empty). A column missing from the
    side's schema (schema evolution) puts its rows in the NULL group,
    adds 0 to sums and no support; null values add no support (SQL
    MIN/MAX ignore nulls)."""
    view: list[pa.Table] = []
    support: dict[str, list[pa.Table]] = {src: [] for src in spec.support_srcs}
    for t, prefix, w in sides:
        n = t.num_rows
        if not n:
            continue
        groups = {}
        for g in spec.group_by:
            c = _side_col(t, g, prefix)
            groups[g] = t[c].combine_chunks() if c in t.column_names else pa.nulls(n, pa.string())
        weight = pa.array(np.full(n, w, dtype=np.int64), pa.int64())
        cols = {**groups, spec.count_col: weight}
        for out, (fn, src) in spec.sum_measures.items():
            vals = _measure_values(t, _side_col(t, src, prefix), fn, n)
            cols[out] = vals if w > 0 else pc.negate(vals)
        view.append(pa.table(cols))
        for src, parts in support.items():
            c = _side_col(t, src, prefix)
            if c not in t.column_names:
                continue
            v = t[c].combine_chunks()
            keep = pc.is_valid(v)
            if pc.any(keep).as_py():
                parts.append(pa.table({**groups, _SUP_V: v, _SUP_N: weight}).filter(keep))
    return _combine(view, _partial_agg, spec), {
        src: _combine(parts, _support_partial, spec) for src, parts in support.items()
    }


def _combine(parts: list, reduce, spec: AggViewSpec) -> pa.Table | None:
    """Concat the non-empty partials and ``reduce`` them to one row per
    key; None when there are none. A column that is all-null in one
    input may be null-typed there, so each column takes the first
    non-null type among the partials."""
    parts = [p for p in parts if p is not None and p.num_rows]
    if not parts:
        return None
    types: dict[str, pa.DataType] = {}
    for p in parts:
        for f in p.schema:
            if pa.types.is_null(types.get(f.name, pa.null())):
                types[f.name] = f.type
    parts = [
        p.cast(pa.schema([f.with_type(types[f.name]) for f in p.schema]))
        if any(f.type != types[f.name] for f in p.schema) else p
        for p in parts
    ]
    return reduce(pa.concat_tables(parts, promote_options="default"), spec)


def _epoch_delta(
    inputs, spec: AggViewSpec
) -> tuple[pa.Table, dict[str, pa.Table | None]]:
    """The view delta and per-source support deltas of an iterable of
    inputs, each a list of event sides: a change table's two sides, or
    one snapshot batch as a +1 side. Each input is pre-aggregated on
    its own, so a full scan holds partials, never the state."""
    parts = [_contribute(sides, spec) for sides in inputs]
    view = _combine([v for v, _ in parts], _partial_agg, spec)
    support = {
        src: _combine([s[src] for _, s in parts], _support_partial, spec)
        for src in spec.support_srcs
    }
    return (_empty_view(spec) if view is None else view), support


def _empty_view(spec: AggViewSpec) -> pa.Table:
    cols: dict[str, pa.Array] = {g: pa.array([], pa.string()) for g in spec.group_by}
    cols[spec.count_col] = pa.array([], pa.int64())
    for m in spec.sum_measures:
        cols[m] = pa.array([], pa.int64())
    return pa.table(cols)


def _shard_ids(t: pa.Table, spec: AggViewSpec) -> np.ndarray:
    """crc32 of the serialized group tuple — stable across interpreters
    (PYTHONHASHSEED-independent), the same idiom as the lake's _kh."""
    if t.num_rows == 0:
        return np.zeros(0, dtype=np.int64)
    key_parts = []
    for g in spec.group_by:
        s = pc.cast(t[g], pa.string())
        key_parts.append(pc.fill_null(s, _NULL_TOKEN))
    joined = key_parts[0] if len(key_parts) == 1 else pc.binary_join_element_wise(
        *key_parts, "\x1f"
    )
    keys = joined.to_pylist()
    return np.fromiter(
        (zlib.crc32(k.encode()) for k in keys), dtype=np.int64, count=len(keys)
    ) % spec.num_shards


def _merge_shard(old: pa.Table | None, delta: pa.Table, spec: AggViewSpec) -> pa.Table:
    """old view rows ⊕ delta rows → new shard content (deterministic:
    sorted by group key). Count-0 groups drop; a count-0 group with a
    nonzero measure residue, or any negative count, is a maintenance
    bug and raises."""
    tables = [delta] if old is None or old.num_rows == 0 else [old, delta]
    merged = _partial_agg(
        pa.concat_tables(tables, promote_options="default"), spec
    )
    counts = merged[spec.count_col].to_numpy(zero_copy_only=False)
    if (counts < 0).any():
        raise AssertionError("agg view: negative group count — delta double-applied?")
    zero = counts == 0
    if zero.any():
        for m in spec.sum_measures:
            residue = merged[m].to_numpy(zero_copy_only=False)[zero]
            if (residue != 0).any():
                raise AssertionError(
                    f"agg view: count-0 group with nonzero {m} residue — "
                    "non-subtractable measure or lost delta"
                )
        merged = merged.filter(pa.array(~zero))
    return merged.sort_by([(g, "ascending") for g in spec.group_by])


# --------------------------------------------------------------- support
# (group, value) -> count rows backing min/max measures. Same LSM-shard
# idiom, co-sharded with the view by GROUP hash so a group's support
# always lives in the shard the view update is already touching.

_SUP_V = "_v"  # support value column
_SUP_N = "_sn"  # support count column


def _support_partial(t: pa.Table, spec: AggViewSpec) -> pa.Table:
    keys = list(spec.group_by) + [_SUP_V]
    g = t.group_by(keys).aggregate([(_SUP_N, "sum")])
    return g.rename_columns(
        [_SUP_N if c == f"{_SUP_N}_sum" else c for c in g.column_names]
    )


def _merge_support(old: pa.Table | None, delta: pa.Table, spec: AggViewSpec) -> pa.Table:
    """old support ⊕ delta → new shard support; count-0 value rows drop,
    negative counts raise (same invariants as the view merge)."""
    tables = [delta] if old is None or old.num_rows == 0 else [old, delta]
    merged = _support_partial(
        pa.concat_tables(tables, promote_options="default"), spec
    )
    counts = merged[_SUP_N].to_numpy(zero_copy_only=False)
    if (counts < 0).any():
        raise AssertionError("agg support: negative value count — delta double-applied?")
    zero = counts == 0
    if zero.any():
        merged = merged.filter(pa.array(~zero))
    return merged.sort_by(
        [(g, "ascending") for g in spec.group_by] + [(_SUP_V, "ascending")]
    )


def _support_rel(src: str, epoch: int, shard: int) -> str:
    return os.path.join(
        "aggview", f"support-{src}-shard-{shard:05d}-epoch-{epoch:06d}.parquet"
    )


def _shard_rel(epoch: int, shard: int) -> str:
    return os.path.join("aggview", f"shard-{shard:05d}-epoch-{epoch:06d}.parquet")


def update_aggregates(root: str, epoch: int, spec: AggViewSpec) -> dict:
    """Bring the aggregate view up to merge epoch ``epoch``.

    Idempotent (a replayed epoch is a no-op); a catch-up lag of more
    than one epoch triggers a loud full rebuild."""
    state = read_aggstate(root)
    if state.get("spec") not in (None, spec.fingerprint()):
        raise ValueError(
            "agg view spec changed for an existing view state; use a fresh "
            "root or delete _aggstate.json to rebuild under the new spec"
        )
    if state["epoch"] >= epoch:
        return {"epoch": epoch, "mode": "replay_noop", "groups": _state_rows(root, state)}

    full_rebuild = state["epoch"] < epoch - 1 or (
        state["epoch"] > 0 and not state.get("shards")
    )
    if full_rebuild or state["epoch"] == 0:
        from silk_ray.cdc.merge import snapshot_dataset

        mode = "full"
        inputs = (
            [(batch, None, 1)]
            for batch in snapshot_dataset(root).iter_batches(
                batch_format="pyarrow", batch_size=None
            )
        )
        old_shards: dict[str, str] = {}
        old_support: dict[str, dict[str, str]] = {}
    else:
        mode = "delta"
        inputs = (_change_sides(t) for t in epoch_changes(root, epoch))
        old_shards = dict(state.get("shards") or {})
        old_support = {
            src: dict(m) for src, m in (state.get("support") or {}).items()
        }
    delta, support_deltas = _epoch_delta(inputs, spec)

    sid = _shard_ids(delta, spec)
    affected = set(int(s) for s in sid)
    support_sids = {
        src: _shard_ids(sd, spec) for src, sd in support_deltas.items() if sd is not None
    }
    for ssid in support_sids.values():
        affected.update(int(s) for s in ssid)
    affected = sorted(affected)
    if mode == "delta" and not affected:
        new_state = {
            "epoch": epoch, "shards": old_shards, "support": old_support,
            "spec": spec.fingerprint(),
        }
        commit_aggstate(root, new_state)
        return {
            "epoch": epoch, "mode": "noop", "groups": _state_rows(root, new_state),
            "affected_shards": 0, "delta_groups": 0,
        }

    new_shards = dict(old_shards)
    for s in affected:
        shard_delta = delta.filter(pa.array(sid == s))
        if shard_delta.num_rows == 0 and mode == "delta":
            continue  # shard touched only by a support delta
        _rewrite_shard(root, new_shards, s, _shard_rel(epoch, s), shard_delta,
                       _merge_shard, spec)
    new_support = {src: dict(m) for src, m in old_support.items()}
    for src, ssid in support_sids.items():
        files = new_support.setdefault(src, {})
        for s in np.unique(ssid):
            _rewrite_shard(root, files, int(s), _support_rel(src, epoch, int(s)),
                           support_deltas[src].filter(pa.array(ssid == s)),
                           _merge_support, spec)
    new_state = {
        "epoch": epoch, "shards": new_shards, "support": new_support,
        "spec": spec.fingerprint(),
    }
    commit_aggstate(root, new_state)
    return {
        "epoch": epoch,
        "mode": mode,
        "groups": _state_rows(root, new_state),
        "affected_shards": len(affected),
        "delta_groups": delta.num_rows,
    }


def _rewrite_shard(
    root: str, files: dict[str, str], shard: int, rel: str, delta: pa.Table, merge,
    spec: AggViewSpec,
) -> None:
    """Merge one shard's delta into its committed file (``files``
    still maps the shard to it), write the result to ``rel`` and point
    ``files`` at it; a shard that emptied out leaves ``files``."""
    old_rel = files.get(str(shard))
    old = pq.read_table(os.path.join(root, old_rel)) if old_rel else None
    merged = merge(old, delta, spec)
    ckpt.atomic_write_parquet(merged, os.path.join(root, rel))
    if merged.num_rows:
        files[str(shard)] = rel
    else:
        files.pop(str(shard), None)


def _state_rows(root: str, state: dict) -> int:
    total = 0
    for rel in (state.get("shards") or {}).values():
        p = os.path.join(root, rel)
        if os.path.exists(p):
            total += pq.read_metadata(p).num_rows
    return total


def agg_table(root: str, at_epoch: int | None = None) -> pa.Table:
    """Driver-side snapshot of the maintained view (the view is
    O(groups); for group-key cardinalities where that doesn't hold,
    read the shard files as a Dataset). ``at_epoch`` time-travels to a
    retained earlier commit. min/max measures are reduced here from the
    maintained support store (count>0 rows only, by construction) and
    left-joined onto the view — a group whose values were all null gets
    a null extremum (SQL semantics)."""
    state = read_aggstate(root) if at_epoch is None else read_aggstate_at(root, at_epoch)
    shards = state.get("shards") or {}
    parts = []
    for s in sorted(shards, key=int):
        parts.append(pq.read_table(os.path.join(root, shards[s])))
    if not parts:
        return pa.table({})
    out = pa.concat_tables(parts, promote_options="default")

    # recover the spec shape from the committed fingerprint
    fp = state.get("spec")
    sp = json.loads(fp) if fp else {}
    group_by = [g for g in sp.get("group_by", []) if g in out.column_names] or [
        c for c in out.column_names
    ]
    minmax = {
        o: (fs[0], fs[1])
        for o, fs in (sp.get("measures") or {}).items()
        if fs[0] in ("min", "max")
    }
    if minmax and out.num_rows:
        def _jk(t: pa.Table) -> pa.Array:
            ps = [
                pc.fill_null(pc.cast(t[g].combine_chunks(), pa.string()), _NULL_TOKEN)
                for g in group_by
            ]
            return ps[0] if len(ps) == 1 else pc.binary_join_element_wise(*ps, "\x1f")

        out = out.append_column("_jk", _jk(out))
        sup_state = state.get("support") or {}
        for src in sorted({s for _f, s in minmax.values()}):
            rels = sorted((sup_state.get(src) or {}).values())
            sup_parts = [pq.read_table(os.path.join(root, r)) for r in rels]
            sup_parts = [t for t in sup_parts if t.num_rows]
            cols = {o: fn for o, (fn, s2) in minmax.items() if s2 == src}
            if not sup_parts:
                for o in cols:
                    out = out.append_column(o, pa.nulls(out.num_rows))
                continue
            sup = pa.concat_tables(sup_parts, promote_options="default")
            red = sup.group_by(group_by).aggregate(
                [(_SUP_V, "min"), (_SUP_V, "max")]
            )
            red = red.append_column("_jk", _jk(red))
            sel = {f"{_SUP_V}_min": "min", f"{_SUP_V}_max": "max"}
            right = red.select(["_jk"] + list(sel))
            for o, fn in cols.items():
                right = right.append_column(
                    o, right[f"{_SUP_V}_{fn}"].combine_chunks()
                )
            right = right.drop_columns(list(sel))
            out = out.join(right, keys="_jk", join_type="left outer")
        out = out.drop_columns(["_jk"])

    return out.sort_by([(g, "ascending") for g in group_by])


# delete shard and support files no live or retained state references
# and trim snapshots past the window; carried-forward shard files are
# referenced by many epochs and survive while any retained state does
gc_aggview = ckpt.AGG_VIEW.gc
