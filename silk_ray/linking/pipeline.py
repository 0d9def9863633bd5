"""MultiBlock link generation as a Ray Data pipeline.

The RD re-expression of the reference's GenerateLinks/Matcher flow
(silk-rules/.../rule/execution/GenerateLinks.scala:35-196,
Matcher.scala:38-292), per SURVEY.md §2.4/§7:

1. **index stage** (``map_batches`` tasks; per-worker compiled-rule
   cache): per row, evaluate the rule's leaf-comparison inputs once and
   compute the MultiBlock blocking keys (LinkageRule.index →
   Index.flatten); emit exploded rows ``(key, side, uri, keys,
   vals_0..vals_{m-1})``. Transforms run once per row here, never per
   candidate pair.
2. **shuffle**: ``groupby("key")`` co-locates rows sharing a blocking
   key (the RD equivalent of EntityCache blocks + comparisonPairs).
   Optional hot-key **salting**: keys whose row count exceeds a
   threshold are split into ``n_salt`` sub-keys (source rows hashed to
   one salt, target rows replicated to all) so one hot block cannot
   become a straggler task (north_rule skew requirement).
3. **scoring** (``map_groups``): source×target pairs in each block.
   Each exploded row carries its full emitted key set; a pair is scored
   ONLY in its minimum common key's group, so every pair is scored and
   emitted exactly once — Silk's set-dedup of links (Link.scala:59-70)
   without a dedup shuffle, and no duplicate scoring work.
   Pairs kept iff confidence >= limit (Matcher.scala:273-281).
4. **link filter**: per-source top-k = ``groupby(source).map_groups``
   with deterministic (-confidence, target) ordering (Filter.scala:31-57).
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np
import pyarrow as pa

from silk_ray.kernel.index import _mix64, stable_str_hash
from silk_ray.kernel.rule import Comparison, LinkageRule, rule_from_dict

_DUCK = None


def _duck():
    """Per-process DuckDB connection for vectorized scoring kernels
    (threads=1: each Ray task owns one CPU)."""
    global _DUCK
    if _DUCK is None:
        import duckdb

        _DUCK = duckdb.connect()
        _DUCK.execute("SET threads TO 1")
    return _DUCK

_RULE_CACHE: dict[str, LinkageRule] = {}
_STAGE_CACHE: dict[str, Any] = {}


def _compile_rule(rule_spec: dict | LinkageRule) -> LinkageRule:
    if isinstance(rule_spec, LinkageRule):
        return rule_spec
    key = json.dumps(rule_spec, sort_keys=True)
    rule = _RULE_CACHE.get(key)
    if rule is None:
        rule = rule_from_dict(rule_spec)
        _RULE_CACHE[key] = rule
    return rule


def cached_stage(cls, **kwargs):
    """Task-friendly stage factory: returns a plain function whose
    underlying stage object is constructed once per worker process and
    cached (regex compiles / rule compilation amortized) — cheaper than
    an actor pool for lightweight state, since tasks reuse Ray's warm
    worker pool with no per-execution pool spin-up."""
    import cloudpickle

    blob = cloudpickle.dumps((cls, kwargs))
    cache_key = f"{cls.__module__}.{cls.__qualname__}:{hash(blob)}"

    def fn(batch):
        stage = _STAGE_CACHE.get(cache_key)
        if stage is None:
            c, kw = cloudpickle.loads(blob)
            stage = c(**kw)
            _STAGE_CACHE[cache_key] = stage
        return stage(batch)

    return fn


def _spec_symmetric(spec) -> bool:
    """True when every leaf comparison's source and target input trees
    are structurally identical (JSON equality) — then a self-link's
    side-1 and side-0 index keys and leaf values coincide and the index
    stage can evaluate transforms ONCE per row instead of per side."""
    if not isinstance(spec, dict):
        return False
    op = spec.get("operator", spec)

    def walk(node) -> bool:
        if "metric" in node:
            return node.get("source") == node.get("target")
        if "aggregator" in node:
            return all(walk(child) for child in node.get("operators", []))
        return False

    try:
        return walk(op)
    except Exception:
        return False


def add_uri_column(ds, cols=("repo", "path"), sep: str = "//", name: str = "uri"):
    """Append a composite natural-key URI column (Entity.uri equivalent;
    uri = repo + '//' + path per BASELINE.json input_hint)."""
    import pyarrow.compute as pc

    def fn(batch: pa.Table) -> pa.Table:
        parts = []
        for i, c in enumerate(cols):
            if i:
                parts.append(sep)
            parts.append(batch[c])
        uri = pc.binary_join_element_wise(
            *[p if isinstance(p, str) else pc.cast(p, pa.string()) for p in parts], ""
        )
        return batch.append_column(name, uri)

    return ds.map_batches(fn, batch_format="pyarrow")


def _batch_to_entities(batch: pa.Table, paths: list[str]) -> list[dict]:
    cols = {}
    for p in paths:
        if p in batch.column_names:
            cols[p] = batch[p].to_pylist()
    n = batch.num_rows
    out = []
    for i in range(n):
        ent = {}
        for p, vals in cols.items():
            v = vals[i]
            if v is None:
                ent[p] = []
            elif isinstance(v, list):
                ent[p] = ["" if x is None else str(x) for x in v]
            else:
                ent[p] = [str(v)]
        out.append(ent)
    return out


def _list_column_to_pylist(col: pa.Array | pa.ChunkedArray) -> list:
    """``col.to_pylist()`` for a list column of strings or numbers, in one
    vectorised pass per chunk: the flattened child converts to Python
    objects at once and each row is a slice of it by the list offsets.
    ``to_pylist()`` builds one scalar per element (about 1.5 µs per
    string). Same values: ``None`` for a null list, ``[]`` for an empty
    list, ``None`` for a null element."""
    out: list = []
    for arr in col.chunks if isinstance(col, pa.ChunkedArray) else [col]:
        if not len(arr):
            continue
        offs = arr.offsets.to_numpy()
        lo = int(offs[0])
        child = arr.values.slice(lo, int(offs[-1]) - lo)
        flat = child.to_numpy(zero_copy_only=False)
        if child.null_count and flat.dtype != object:  # numbers: nulls came back as NaN
            flat = child.fill_null(0).to_numpy(zero_copy_only=False).astype(object)
            flat[child.is_null().to_numpy(zero_copy_only=False)] = None
        flat = flat.tolist()
        bounds = (offs - lo).tolist()
        rows = [flat[a:b] for a, b in zip(bounds, bounds[1:])]
        if arr.null_count:
            for i in np.flatnonzero(arr.is_null().to_numpy(zero_copy_only=False)).tolist():
                rows[i] = None
        out.extend(rows)
    return out


_LINKS_SCHEMA = pa.schema(
    [("source", pa.string()), ("target", pa.string()), ("confidence", pa.float64())]
)


def _exploded_schema(n_leaves: int) -> pa.Schema:
    fields = [
        pa.field("key", pa.int64()),
        pa.field("side", pa.int8()),
        pa.field("uri", pa.string()),
        pa.field("keys", pa.list_(pa.int64())),
    ]
    for i in range(n_leaves):
        fields.append(pa.field(f"vals_{i}", pa.list_(pa.string())))
    return pa.schema(fields)


class IndexStage:
    """Index-explosion stage body (state constructed once per worker via
    :func:`cached_stage`)."""

    def __init__(
        self,
        rule_spec: dict,
        side: int,
        limit: float = 0.0,
        hot_keys: dict[int, bool] | None = None,
        n_salt: int = 8,
        both_sides: bool = False,
        keys_only: bool = False,
        execution_method=None,
    ):
        self.rule = _compile_rule(rule_spec)
        self.side = side
        self.limit = limit
        self.hot_keys = hot_keys or {}
        self.n_salt = n_salt
        self.both_sides = both_sides
        self.keys_only = keys_only
        self.execution_method = execution_method
        self.n_leaves = len(self.rule.leaf_comparisons())
        self.schema = _exploded_schema(self.n_leaves)
        # symmetric self-link fast path: side-1/side-0 evaluations
        # coincide, so transforms/index hashing run once per row
        self.symmetric = (
            both_sides
            and execution_method is None
            and isinstance(rule_spec, dict)
            and _spec_symmetric(rule_spec)
        )

    def _pre(self, ent):
        """One shared (keys, vals) evaluation for a symmetric self-link
        row (side-1 == side-0 by construction)."""
        keys = self.rule.index_keys(ent, True, self.limit)
        vals = None if self.keys_only else self.rule.leaf_values(ent, True)
        return (keys, vals)

    def _emit(self, ent, uri, side, out, pre=None):
        rule = self.rule
        source_or_target = side == 1
        if pre is not None:
            keys = pre[0]
        elif self.execution_method is not None:
            keys = self.execution_method.index_keys(ent, source_or_target)
        else:
            keys = rule.index_keys(ent, source_or_target, self.limit)
        if not keys:
            return
        if self.keys_only:
            for key in keys:
                out["key"].append(key)
            return
        vals = pre[1] if pre is not None else rule.leaf_values(ent, source_or_target)
        emitted: list[int] = []
        for key in sorted(keys):
            if key in self.hot_keys:
                if side == 1:
                    salts = [stable_str_hash(uri) % self.n_salt]
                else:
                    salts = range(self.n_salt)
                for s in salts:
                    emitted.append(_mix64(key * 31 + s + 1))
            else:
                emitted.append(key)
        # a salted image _mix64(key*31+s+1) can collide with another of
        # the row's RAW index keys (observed: hot key 0, salt s → the
        # row's own q-gram key) — the same block value twice would make
        # the scorer see the row twice in that block and emit duplicate
        # pairs; same value = same block, so per-row dedup is exact
        if len(emitted) > 1:
            emitted = list(dict.fromkeys(emitted))
        for key in emitted:
            out["key"].append(key)
            out["side"].append(side)
            out["uri"].append(uri)
            out["keys"].append(emitted)
            for i, v in enumerate(vals):
                out[f"vals_{i}"].append(v)

    def __call__(self, batch: pa.Table) -> pa.Table:
        paths = sorted(set(self.rule.source_paths()) | set(self.rule.target_paths()))
        entities = _batch_to_entities(batch, paths)
        uris = batch["uri"].to_pylist()
        if self.keys_only:
            out: dict[str, list] = {"key": []}
            for uri, ent in zip(uris, entities):
                if self.both_sides:
                    if self.symmetric:
                        pre = self._pre(ent)
                        self._emit(ent, uri, 1, out, pre=pre)
                        self._emit(ent, uri, 0, out, pre=pre)
                    else:
                        self._emit(ent, uri, 1, out)
                        self._emit(ent, uri, 0, out)
                else:
                    self._emit(ent, uri, self.side, out)
            return pa.table({"key": pa.array(out["key"], pa.int64())})
        out = {f.name: [] for f in self.schema}
        for uri, ent in zip(uris, entities):
            if self.both_sides:
                if self.symmetric:
                    pre = self._pre(ent)
                    self._emit(ent, uri, 1, out, pre=pre)
                    self._emit(ent, uri, 0, out, pre=pre)
                else:
                    self._emit(ent, uri, 1, out)
                    self._emit(ent, uri, 0, out)
            else:
                self._emit(ent, uri, self.side, out)
        arrays = [pa.array(out[f.name], type=f.type) for f in self.schema]
        return pa.Table.from_arrays(arrays, schema=self.schema)


class PairScorer:
    """Post-shuffle scoring over one coarse shuffle partition holding
    MANY block groups (shuffling on ``part = key % P`` instead of the
    raw key avoids per-tiny-group map_groups overhead; blocks are
    re-grouped in-memory here). Min-common-key dedup: each pair scored
    exactly once across all its shared blocks.

    ``dirty_col``: when set (incremental re-link), pairs need >=1 dirty
    side and blocks with no dirty row are skipped entirely.

    The ``keys`` and ``vals_*`` list columns reach Python through
    :func:`_list_column_to_pylist`, one vectorised pass per column:
    element-wise ``to_pylist()`` was half of the scorer's time."""

    def __init__(
        self,
        rule_spec: dict,
        limit: float = 0.0,
        source_equals_target: bool = False,
        dirty_col: str | None = None,
    ):
        self.rule_spec = rule_spec
        self.limit = limit
        self.source_equals_target = source_equals_target
        self.dirty_col = dirty_col

    def _score_levenshtein_vectorized(self, part: pa.Table, op) -> pa.Table:
        """Fast path for a single-``levenshteinDistance``-comparison rule
        (the reference's own benchmark shape, names corpus): the whole
        partition's block cross-products run as ONE DuckDB join with a
        native levenshtein kernel (~20x the per-pair Python loop;
        identical output — min over the value cross-product, 1-d/θ
        confidence, min-common-key dedup and triangular/dirty filters
        applied over the surviving candidates). Returns ``None`` when
        any value is non-ASCII (the native kernel is byte-level, the
        kernel library character-level) — caller falls back to the
        generic per-pair path."""
        import pyarrow.compute as pc

        theta = op.threshold
        d_max = theta * (1.0 - self.limit) + 1e-9
        sides = part["side"].to_numpy(zero_copy_only=False)
        rid = pa.array(np.arange(part.num_rows, dtype=np.int64))
        vals = part["vals_0"].combine_chunks() if part.num_rows else part["vals_0"]
        parent = pc.list_parent_indices(vals)
        flat_v = pc.list_flatten(vals)
        # the native kernel computes BYTE-level edit distance; the
        # kernel library is character-level. Identical only for pure
        # ASCII — any multi-byte value sends the whole part to the
        # generic per-pair path.
        non_null = pc.drop_null(flat_v)
        if len(non_null) and not pc.all(
            pc.equal(pc.binary_length(pc.cast(non_null, pa.binary())), pc.utf8_length(non_null))
        ).as_py():
            return None
        cols = {
            "rid": pc.take(rid, parent),
            "key": pc.take(part["key"].combine_chunks(), parent),
            "side": pa.array(np.asarray(sides)[parent.to_numpy(zero_copy_only=False)]),
            "v": flat_v,
        }
        dirty_filter = ""
        if self.dirty_col:
            dcol = pa.array(
                part[self.dirty_col].to_numpy(zero_copy_only=False)[
                    parent.to_numpy(zero_copy_only=False)
                ]
            )
            cols["dirty"] = dcol
            # clean∩clean pairs keep their stored links — skip them
            # BEFORE the native scoring, like the generic path does
            dirty_filter = " AND (s.dirty OR t.dirty)"
        flat = pa.table(cols)
        src = flat.filter(pc.equal(flat["side"], 1)).drop_columns(["side"])
        tgt = flat.filter(pc.equal(flat["side"], 0)).drop_columns(["side"])
        if not src.num_rows or not tgt.num_rows:
            return _LINKS_SCHEMA.empty_table()
        con = _duck()
        con.register("_sr_src", src)
        con.register("_sr_tgt", tgt)
        cand = con.execute(
            f"""
            SELECT s.key AS k, s.rid AS i, t.rid AS j,
                   min(levenshtein(s.v, t.v)) AS d
            FROM _sr_src s JOIN _sr_tgt t ON s.key = t.key
            WHERE s.v IS NOT NULL AND t.v IS NOT NULL{dirty_filter}
            GROUP BY 1, 2, 3
            HAVING min(levenshtein(s.v, t.v)) <= ?
            """,
            [d_max],
        ).arrow()
        con.unregister("_sr_src")
        con.unregister("_sr_tgt")
        uris = part["uri"].to_pylist()
        keysets = _list_column_to_pylist(part["keys"])
        dirty = part[self.dirty_col].to_numpy(zero_copy_only=False) if self.dirty_col else None
        set_cache: dict[int, frozenset] = {}

        def kset(i: int) -> frozenset:
            s = set_cache.get(i)
            if s is None:
                s = frozenset(keysets[i])
                set_cache[i] = s
            return s

        out_s, out_t, out_c = [], [], []
        for k, i, j, d in zip(
            cand["k"].to_pylist(), cand["i"].to_pylist(), cand["j"].to_pylist(), cand["d"].to_pylist()
        ):
            s_uri, t_uri = uris[i], uris[j]
            if self.source_equals_target and s_uri >= t_uri:
                continue
            if dirty is not None and not (dirty[i] or dirty[j]):
                continue
            common = kset(i) & kset(j)
            if min(common) != k:
                continue  # scored in a smaller shared block
            out_s.append(s_uri)
            out_t.append(t_uri)
            out_c.append(1.0 - d / theta)
        return pa.table(
            {
                "source": pa.array(out_s, pa.string()),
                "target": pa.array(out_t, pa.string()),
                "confidence": pa.array(out_c, pa.float64()),
            }
        )

    def __call__(self, part: pa.Table) -> pa.Table:
        rule = _compile_rule(self.rule_spec)
        n_leaves = len(rule.leaf_comparisons())
        op = rule.operator
        if (
            part.num_rows
            and isinstance(op, Comparison)
            and getattr(type(op.metric), "id", None) == "levenshteinDistance"
            and op.threshold > 0
        ):
            fast = self._score_levenshtein_vectorized(part, op)
            if fast is not None:  # None = non-ASCII values, byte-level kernel unsafe
                return fast
        if part.num_rows:
            order = pa.compute.sort_indices(part["key"])
            part = part.take(order)
        keys_col = part["key"].to_numpy(zero_copy_only=False)
        sides = part["side"].to_numpy(zero_copy_only=False)
        uris = part["uri"].to_pylist()
        key_sets = [frozenset(k) for k in _list_column_to_pylist(part["keys"])]
        vals_cols = [_list_column_to_pylist(part[f"vals_{i}"]) for i in range(n_leaves)]
        dirty = part[self.dirty_col].to_numpy(zero_copy_only=False) if self.dirty_col else None
        # per-row prepared leaf values, computed lazily once per row
        prepared: list = [None] * len(uris)

        def prep(i: int):
            p = prepared[i]
            if p is None:
                p = rule.prepare_leaf_values([vals_cols[k][i] for k in range(n_leaves)])
                prepared[i] = p
            return p
        out_s, out_t, out_c = [], [], []
        limit = self.limit
        n = len(keys_col)
        run_start = 0
        while run_start < n:
            run_end = run_start
            gk = keys_col[run_start]
            while run_end < n and keys_col[run_end] == gk:
                run_end += 1
            idx = range(run_start, run_end)
            run_start, lo = run_end, idx[0]
            if dirty is not None and not dirty[lo : idx[-1] + 1].any():
                continue
            src_idx = [i for i in idx if sides[i] == 1]
            tgt_idx = [i for i in idx if sides[i] == 0]
            if not src_idx or not tgt_idx:
                continue
            for i in src_idx:
                s_uri = uris[i]
                s_keys = key_sets[i]
                s_dirty = dirty[i] if dirty is not None else True
                s_prep = None
                for j in tgt_idx:
                    t_uri = uris[j]
                    if self.source_equals_target and s_uri >= t_uri:
                        continue
                    if dirty is not None and not (s_dirty or dirty[j]):
                        continue
                    common = s_keys & key_sets[j]
                    if min(common) != gk:
                        continue  # scored in a smaller shared block
                    if s_prep is None:
                        s_prep = prep(i)
                    score = rule.score_from_prepared(s_prep, prep(j), limit)
                    if score is not None and score >= limit:
                        out_s.append(s_uri)
                        out_t.append(t_uri)
                        out_c.append(score)
        return pa.table(
            {
                "source": pa.array(out_s, pa.string()),
                "target": pa.array(out_t, pa.string()),
                "confidence": pa.array(out_c, pa.float64()),
            }
        )


def _score_partitioned(exploded, scorer, score_partitions: int):
    """Coarse-partition shuffle + multi-block scoring per partition.

    With ``score_partitions == 1`` (tiny deltas) the all-to-all shuffle
    is skipped entirely: coalesce to one block and score it directly —
    the sort-based groupby costs seconds of fixed overhead per run."""
    if score_partitions <= 1:
        return exploded.repartition(1).map_batches(
            lambda part: scorer(part), batch_format="pyarrow", batch_size=None
        )

    # task parallelism follows the input block count, and the exploded
    # dataset often arrives in a handful of read blocks — spread it so
    # the post-sort scoring runs one task per sorted block, not one
    # task per input block (measured 86.9s -> 38.4s on a 32-CPU
    # 600k-pair salted run with identical output)
    import ray as _ray

    ncpu = int(_ray.cluster_resources().get("CPU", 8)) if _ray.is_initialized() else 8
    exploded = exploded.repartition(min(score_partitions, 2 * ncpu))

    def score_part(group: pa.Table) -> pa.Table:
        import time as _time

        if group.num_rows == 0:
            return _LINKS_SCHEMA.empty_table()
        t0 = _time.perf_counter()
        out = scorer(group)
        dt = _time.perf_counter() - t0
        if dt > 5.0:
            # straggler diagnostics (worker log): which key range, how big
            print(
                f"[silk_ray] slow score_part: rows={group.num_rows} "
                f"pairs_out={out.num_rows} took {dt:.1f}s"
            )
        return out

    # range-sort directly on the FULL-RANGE blocking key (high
    # cardinality: no duplicate sort boundaries, hence no schema-less
    # empty range blocks) — each sorted block holds whole key groups,
    # and the scorer already iterates key groups within a block
    return exploded.sort("key").map_batches(
        score_part, batch_format="pyarrow", batch_size=None
    )


def _add_spart(filter_partitions: int):
    import pandas as pd
    import zlib

    def add_spart(df: pd.DataFrame) -> pd.DataFrame:
        srcs = df["source"]
        # FULL-RANGE crc over the unique sources per batch (links per
        # source cluster, so uniques are far fewer than rows); full
        # range keeps the exchange sort's boundaries high-cardinality
        uniq = {s: zlib.crc32(s.encode()) for s in srcs.unique()}
        df["spart"] = srcs.map(uniq)
        return df

    return add_spart


def apply_link_filter(links, limit_per_source: int, filter_partitions: int = 64):
    """Per-source top-k (Filter.scala:40-44) via a hashed-source
    exchange with deterministic (confidence desc, target asc) ordering.
    Top-k is distributive, so each block prunes LOCALLY to its own
    top-k per source before the shuffle — the exchange carries at most
    sources × k rows per block, never the link set."""
    import pandas as pd

    def local_prune(df: pd.DataFrame) -> pd.DataFrame:
        return _topk_per_source(df, limit_per_source)

    return (
        links.map_batches(local_prune, batch_format="pandas")
        .map_batches(_add_spart(filter_partitions), batch_format="pandas")
        .sort("spart")
        .map_batches(
            lambda g: _topk_block(g, limit_per_source), batch_format="pandas", batch_size=None
        )
    )


def _topk_block(g, k: int):
    """Top-k over one post-exchange block. A zero-row block may arrive
    schema-less from the sort: it becomes the typed empty links table."""
    if len(g) == 0:
        return _LINKS_SCHEMA.empty_table()
    return _topk_per_source(g, k).drop(columns=["spart"])


def _topk_per_source(df, k: int):
    """Deterministic per-source top-k in (confidence desc, target asc)
    order — the exact ``sort_values(["source", "confidence", "target"],
    ascending=[True, False, True])`` + ``groupby.head(k)`` contract,
    computed with sorted-factorize codes + one stable ``np.lexsort``
    (string multi-key pandas sorts were the filter's dominant cost on
    600k-link batches)."""
    import numpy as np
    import pandas as pd

    if len(df) == 0:
        return df
    s_codes, _ = pd.factorize(df["source"], sort=True, use_na_sentinel=False)
    t_codes, _ = pd.factorize(df["target"], sort=True, use_na_sentinel=False)
    conf = df["confidence"].to_numpy()
    order = np.lexsort((t_codes, -conf, s_codes))
    s_sorted = s_codes[order]
    starts = np.concatenate(([0], np.flatnonzero(s_sorted[1:] != s_sorted[:-1]) + 1))
    rank = np.arange(len(order)) - np.repeat(starts, np.diff(np.append(starts, len(order))))
    return df.iloc[order[rank < k]]


def apply_unambiguous_filter(links, filter_partitions: int = 64):
    """LinkFilter "unambiguous" mode (Filter.scala:46-57): keep a source
    URI's single link iff that source has EXACTLY ONE distinct link.
    The scoring pipeline already emits each (source, target) pair once,
    so distinct-link count per source == row count per source."""
    return (
        links.map_batches(_add_spart(filter_partitions), batch_format="pandas")
        .sort("spart")
        .map_batches(_unambiguous_block, batch_format="pandas", batch_size=None)
    )


def _unambiguous_block(g):
    """Sources with exactly one link in one post-exchange block (the
    exchange puts all of a source's links in one block). A zero-row
    block may arrive schema-less: it becomes the typed empty links table."""
    if len(g) == 0:
        return _LINKS_SCHEMA.empty_table()
    n = g.groupby("source", sort=False)["target"].transform("size")
    return g[n == 1].drop(columns=["spart"])


def include_reference_links(links, positive=None, negative=None):
    """GenerateLinks.scala:115-118 (``includeReferenceLinks``): remove
    negative reference links from the output and add the positive ones.
    Reference-link sets are human-curated (small), so the negative set
    broadcasts via ``ray.put`` for an anti-join filter inside
    ``map_batches``; positives append as one extra block with
    confidence 1.0 (reference links carry no score)."""
    import ray
    import ray.data as rd

    negative = {(s, t) for s, t in (negative or [])}
    if negative:
        nref = ray.put(negative)

        def drop_negatives(batch: pa.Table) -> pa.Table:
            neg = ray.get(nref)
            keep = [
                (s, t) not in neg
                for s, t in zip(batch["source"].to_pylist(), batch["target"].to_pylist())
            ]
            return batch.filter(pa.array(keep))

        links = links.map_batches(drop_negatives, batch_format="pyarrow")
    positive = [(s, t) for s, t in (positive or []) if (s, t) not in negative]
    if positive:
        # Scala ``toSet ++ positive`` keeps the EXISTING element on
        # collision — so a positive that the engine already found keeps
        # its computed confidence; only genuinely-missing positives are
        # added (confidence 1.0, reference links carry no score). The
        # dedup shuffle runs over post-filter links (already reduced).
        import pandas as pd

        pos = pa.table(
            {
                "source": pa.array([s for s, _ in positive], pa.string()),
                "target": pa.array([t for _, t in positive], pa.string()),
                "confidence": pa.array([1.0] * len(positive), pa.float64()),
                "_is_ref": pa.array([1] * len(positive), pa.int8()),
            }
        )

        def tag(batch: pa.Table) -> pa.Table:
            return batch.append_column("_is_ref", pa.array([0] * batch.num_rows, pa.int8()))

        def keep_engine_row(g: pd.DataFrame) -> pd.DataFrame:
            g = g.sort_values(["source", "target", "_is_ref"], kind="mergesort")
            out = g.drop_duplicates(["source", "target"], keep="first")
            return out.drop(columns=["_is_ref"])

        links = (
            links.map_batches(tag, batch_format="pyarrow")
            .union(rd.from_arrow(pos))
            .groupby(["source", "target"])
            .map_groups(keep_engine_row, batch_format="pandas")
        )
    return links


def find_hot_keys(ds, rule_spec, limit, threshold, both_sides=False, side=1):
    """Pre-pass: count rows per blocking key, return keys above threshold.

    Cheap rows (one int64 per exploded key); the result is a small
    driver-side dict broadcast into the index tasks."""
    # two-round partial-count tree, NO sort/groupby exchange: per-block
    # combiners (one count row per key per block), a round-robin merge
    # to 16 blocks, a second combine, then a driver-side dict sum over
    # the ≤ uniques×16 remaining partial rows. A count table needs no
    # key co-location, so the range-sort exchange — whose boundary
    # sampling duplicates Zipf-hot keys and emits schema-less empty
    # range blocks — is pure overhead here.
    def partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by("key").aggregate([("key", "count")])
        return g.rename_columns(["key", "p_n"])

    def combine(batch: pa.Table) -> pa.Table:
        g = batch.group_by("key").aggregate([("p_n", "sum")])
        return g.rename_columns(["key", "p_n"])

    counted = (
        ds.map_batches(
            cached_stage(
                IndexStage,
                rule_spec=rule_spec,
                side=side,
                limit=limit,
                both_sides=both_sides,
                keys_only=True,
            ),
            batch_format="pyarrow",
        )
        .map_batches(partial, batch_format="pyarrow")
        .repartition(16)
        .map_batches(combine, batch_format="pyarrow", batch_size=None)
    )
    totals: dict[int, int] = {}
    for b in counted.iter_batches(batch_format="pyarrow"):
        for k, c in zip(b["key"].to_pylist(), b["p_n"].to_pylist()):
            totals[k] = totals.get(k, 0) + c
    return {k: True for k, c in totals.items() if c > threshold}


def generate_links(
    source_ds,
    target_ds=None,
    rule_spec: dict | LinkageRule | None = None,
    *,
    limit: float = 0.0,
    link_limit: int | None = 1_000_000,
    source_equals_target: bool = False,
    salt_threshold: int | None = None,
    n_salt: int = 8,
    batch_size: int = 4096,
    execution_method=None,
    score_partitions: int = 256,
    push_filters: bool = False,
):
    """Run the blocked linking pipeline; returns a Dataset
    ``(source, target, confidence)`` with each pair exactly once.

    ``link_limit`` mirrors the reference default of 1,000,000 links
    (reference.conf:68-78, LinkSpec.scala:182-204). Inputs must carry a
    ``uri`` column (see :func:`add_uri_column`) plus the rule's paths.
    """
    import ray.data  # noqa: F401  (Dataset ops)

    rule = _compile_rule(rule_spec)
    spec = rule_spec if isinstance(rule_spec, dict) else None
    payload = spec if spec is not None else rule  # prefer JSON for worker cache

    if push_filters and spec is not None:
        # prune at the read: push the rule's constant-equality clauses
        # into per-side prefilters (ComparisonToRestrictionConverter
        # analogue; see linking/pushdown.py). Off by default like the
        # reference (reference.conf:85). Self-link: the one dataset
        # serves both roles, so rows are pruned only when BOTH side
        # restrictions reject them.
        from silk_ray.linking.pushdown import push_rule_filters, push_rule_filters_self

        if target_ds is None or source_equals_target:
            source_ds = push_rule_filters_self(source_ds, spec)
        else:
            source_ds = push_rule_filters(source_ds, spec, source_or_target=True)
            target_ds = push_rule_filters(target_ds, spec, source_or_target=False)

    hot_keys = {}
    if salt_threshold:
        hot_keys = find_hot_keys(
            source_ds, payload, limit, salt_threshold, both_sides=source_equals_target, side=1
        )
        if target_ds is not None and not source_equals_target:
            hot_keys.update(find_hot_keys(target_ds, payload, limit, salt_threshold, side=0))

    common = dict(batch_format="pyarrow", batch_size=batch_size)
    if source_equals_target or target_ds is None:
        exploded = source_ds.map_batches(
            cached_stage(
                IndexStage,
                rule_spec=payload,
                side=1,
                limit=limit,
                hot_keys=hot_keys,
                n_salt=n_salt,
                both_sides=True,
                execution_method=execution_method,
            ),
            **common,
        )
        source_equals_target = True
    else:
        src = source_ds.map_batches(
            cached_stage(IndexStage, rule_spec=payload, side=1, limit=limit, hot_keys=hot_keys, n_salt=n_salt, execution_method=execution_method),
            **common,
        )
        tgt = target_ds.map_batches(
            cached_stage(IndexStage, rule_spec=payload, side=0, limit=limit, hot_keys=hot_keys, n_salt=n_salt, execution_method=execution_method),
            **common,
        )
        exploded = src.union(tgt)

    scorer = PairScorer(payload, limit=limit, source_equals_target=source_equals_target)
    links = _score_partitioned(exploded, scorer, score_partitions)

    if rule.filter_limit:
        # Filter.scala:36-48: within the limit branch, unambiguous mode
        # replaces top-k (keeps only single-link sources)
        if rule.filter_unambiguous:
            links = apply_unambiguous_filter(links)
        else:
            links = apply_link_filter(links, rule.filter_limit)
    if link_limit is not None:
        links = links.limit(link_limit)
    return links
