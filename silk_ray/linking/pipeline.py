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
    """Blocked pair scoring with one core, :meth:`score_entities`, over
    an *entity table* (``side, uri, keys, vals_0..m`` and optionally the
    ``dirty_col`` flag, one row per entity) and a *block index*: parallel
    ``(key, entity row)`` arrays, one entry per block an entity sits in.

    The core enumerates candidate pairs from ``uri`` and ``keys`` alone,
    block by block in ascending key order: side-1 × side-0 entities of
    one block, ``source < target`` when ``source_equals_target``, and
    min-common-key dedup (a pair is kept only in the smallest block its
    two key sets share, so each pair is scored exactly once across its
    shared blocks). With ``dirty_col`` set (incremental re-link) a pair
    needs ≥1 dirty side: blocks without a dirty entity are skipped, a
    clean source pairs only with the block's dirty targets, and a dirty
    source with all of them. Only then are ``vals_*`` converted and
    leaf values prepared, once per entity that appears in a candidate
    pair; pairs are kept iff confidence >= limit. A single
    ``levenshteinDistance`` rule scores the candidates in one DuckDB
    query instead (see :meth:`_levenshtein_scores`).

    ``__call__(part)`` keeps the exploded-row signature of the batch
    pipeline (``key, side, uri, keys, vals_*``, one row per (block,
    entity)): every row is its own entity there, because batch input
    does not guarantee unique uris. Shuffling on a coarse partition
    instead of the raw key avoids per-tiny-group ``map_groups``
    overhead; blocks are re-grouped in memory here."""

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

    def __call__(self, part: pa.Table) -> pa.Table:
        key = part["key"].to_numpy(zero_copy_only=False)
        return self.score_entities(part, key, np.arange(part.num_rows))

    def score_entities(
        self, ents: pa.Table, key: np.ndarray, ent: np.ndarray, timings: dict | None = None
    ) -> pa.Table:
        """Score the candidate pairs of the blocks in ``(key, ent)``.
        ``timings``, when given, accumulates ``enumerate_s`` and
        ``score_s`` (convert, prepare and score)."""
        import time

        t0 = time.perf_counter()
        pi, pj = self._candidates(ents, key, ent)
        t1 = time.perf_counter()
        out = self._score_pairs(ents, pi, pj)
        if timings is not None:
            timings["enumerate_s"] = timings.get("enumerate_s", 0.0) + t1 - t0
            timings["score_s"] = timings.get("score_s", 0.0) + time.perf_counter() - t1
        return out

    def _candidates(self, ents: pa.Table, key: np.ndarray, ent: np.ndarray):
        """Candidate pairs as parallel (source row, target row) lists,
        in block order, then source order, then target order."""
        if not len(key):
            return [], []
        order = np.argsort(key, kind="stable")
        key, ent = key[order], ent[order]
        sides = ents["side"].to_numpy(zero_copy_only=False)
        is_src = sides[ent] == 1
        starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
        # blocks with a source and a target (and a dirty entity)
        keep = np.logical_or.reduceat(is_src, starts) & np.logical_or.reduceat(~is_src, starts)
        dirty = None
        if self.dirty_col:
            dirty_np = ents[self.dirty_col].to_numpy(zero_copy_only=False)
            keep &= np.logical_or.reduceat(dirty_np[ent], starts)
            dirty = dirty_np.tolist()
        bounds = np.r_[starts, len(key)]
        uris = ents["uri"].to_pylist()
        key_lists = _list_column_to_pylist(ents["keys"])
        # an entity in the block of its smallest key needs no key-set
        # intersection there: every key it shares is >= that block's key
        kmin = [min(k) if k else None for k in key_lists]
        key_sets: dict[int, frozenset] = {}

        def kset(e: int) -> frozenset:
            ks = key_sets.get(e)
            if ks is None:
                ks = key_sets[e] = frozenset(key_lists[e])
            return ks

        side_l, ent_l, key_l = sides.tolist(), ent.tolist(), key.tolist()
        pi, pj = [], []
        for b in np.flatnonzero(keep).tolist():
            lo, hi = int(bounds[b]), int(bounds[b + 1])
            gk = key_l[lo]
            src, tgt, tgt_dirty = [], [], []
            for e in ent_l[lo:hi]:
                if side_l[e] == 1:
                    src.append(e)
                else:
                    tgt.append(e)
                    if dirty is not None and dirty[e]:
                        tgt_dirty.append(e)
            for i in src:
                cand = tgt if dirty is None or dirty[i] else tgt_dirty
                if self.source_equals_target:
                    s_uri = uris[i]
                    cand = [j for j in cand if s_uri < uris[j]]
                if kmin[i] != gk:
                    # keep a pair only in its smallest shared block
                    s_keys = kset(i)
                    cand = [j for j in cand if kmin[j] == gk or min(s_keys & kset(j)) == gk]
                pi.extend([i] * len(cand))
                pj.extend(cand)
        return pi, pj

    def _score_pairs(self, ents: pa.Table, pi: list, pj: list) -> pa.Table:
        if not pi:
            return _LINKS_SCHEMA.empty_table()
        rule = _compile_rule(self.rule_spec)
        op = rule.operator
        limit = self.limit
        scored = None
        if (
            isinstance(op, Comparison)
            and getattr(type(op.metric), "id", None) == "levenshteinDistance"
            and op.threshold > 0
        ):
            # None = non-ASCII values, byte-level kernel unsafe
            scored = self._levenshtein_scores(ents, pi, pj, op)
        if scored is None:
            # convert and prepare each entity of a candidate pair once
            needed = sorted(set(pi) | set(pj))
            n_leaves = len(rule.leaf_comparisons())
            sub = ents.select([f"vals_{k}" for k in range(n_leaves)]).take(
                pa.array(needed, pa.int64())
            )
            cols = [_list_column_to_pylist(sub[f"vals_{k}"]) for k in range(n_leaves)]
            prepared = {
                e: rule.prepare_leaf_values([c[r] for c in cols]) for r, e in enumerate(needed)
            }
            kept, conf = [], []
            for n, (i, j) in enumerate(zip(pi, pj)):
                score = rule.score_from_prepared(prepared[i], prepared[j], limit)
                if score is not None and score >= limit:
                    kept.append(n)
                    conf.append(score)
            scored = (np.asarray(kept, np.int64), conf)
        kept, conf = scored
        return pa.table(
            {
                "source": ents["uri"].take(np.asarray(pi, np.int64)[kept]).cast(pa.string()),
                "target": ents["uri"].take(np.asarray(pj, np.int64)[kept]).cast(pa.string()),
                "confidence": pa.array(conf, pa.float64()),
            }
        )

    def _levenshtein_scores(self, ents: pa.Table, pi: list, pj: list, op):
        """Scoring kernel for a single-``levenshteinDistance`` rule (the
        reference's own benchmark shape, names corpus): the candidate
        pairs' value cross-products run as ONE DuckDB query with a
        native levenshtein kernel (~20x the per-pair Python loop;
        identical output — min over the value cross-product, 1-d/θ
        confidence). Returns ``(kept pair positions, confidences)``, or
        ``None`` when any value is non-ASCII (the native kernel is
        byte-level, the kernel library character-level) — the caller
        then takes the generic path."""
        import pyarrow.compute as pc

        theta = op.threshold
        d_max = theta * (1.0 - self.limit) + 1e-9
        vals = ents["vals_0"].combine_chunks()
        flat_v = pc.list_flatten(vals)
        # identical to the character-level kernel only for pure ASCII:
        # any multi-byte value sends the whole table to the generic path
        non_null = pc.drop_null(flat_v)
        if len(non_null) and not pc.all(
            pc.equal(pc.binary_length(pc.cast(non_null, pa.binary())), pc.utf8_length(non_null))
        ).as_py():
            return None
        ev = pa.table({"e": pc.list_parent_indices(vals), "v": flat_v})
        pairs = pa.table(
            {
                "n": pa.array(np.arange(len(pi), dtype=np.int64)),
                "i": pa.array(pi, pa.int64()),
                "j": pa.array(pj, pa.int64()),
            }
        )
        con = _duck()
        con.register("_sr_ev", ev)
        con.register("_sr_pairs", pairs)
        res = con.execute(
            """
            SELECT p.n AS n, min(levenshtein(s.v, t.v)) AS d
            FROM _sr_pairs p
            JOIN _sr_ev s ON s.e = p.i
            JOIN _sr_ev t ON t.e = p.j
            WHERE s.v IS NOT NULL AND t.v IS NOT NULL
            GROUP BY 1
            HAVING min(levenshtein(s.v, t.v)) <= ?
            ORDER BY 1
            """,
            [d_max],
        ).arrow()
        con.unregister("_sr_ev")
        con.unregister("_sr_pairs")
        return (
            res["n"].to_numpy(zero_copy_only=False),
            [1.0 - d / theta for d in res["d"].to_pylist()],
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
