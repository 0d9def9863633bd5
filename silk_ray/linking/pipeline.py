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
2. **shuffle**: one ``keyed_exchange`` on ``key`` co-locates rows
   sharing a blocking key (the RD equivalent of EntityCache blocks +
   comparisonPairs).
   Optional hot-key **salting**: keys whose row count exceeds a
   threshold are split into ``n_salt`` sub-keys (source rows hashed to
   one salt, target rows replicated to all) so one hot block cannot
   become a straggler task (north_rule skew requirement).
3. **scoring** (one reduce per exchanged block): source×target pairs
   in each blocking-key group.
   Each exploded row carries its full emitted key set; a pair is scored
   ONLY in its minimum common key's group, so every pair is scored and
   emitted exactly once — Silk's set-dedup of links (Link.scala:59-70)
   without a dedup shuffle, and no duplicate scoring work.
   Pairs kept iff confidence >= limit (Matcher.scala:273-281).
4. **link filter**: per-source top-k after a ``keyed_exchange`` on
   ``source``, with deterministic (-confidence, target) ordering
   (Filter.scala:31-57).
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np
import pyarrow as pa

from silk_ray.kernel.distances import ValueColumn, ragged_arange
from silk_ray.kernel.index import _mix64, stable_str_hash
from silk_ray.kernel.rule import LinkageRule, rule_from_dict

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
    are structurally identical — JSON equality for a rule dict, input
    equality for a compiled ``LinkageRule`` — then a self-link's side-1
    and side-0 index keys and leaf values coincide and the index stage
    can evaluate transforms ONCE per row instead of per side. A
    transformer compares equal to itself only, so a compiled rule
    answers True where its inputs share their transformers (as
    ``operator_from_dict`` builds them) and conservatively False
    otherwise."""
    if isinstance(spec, LinkageRule):
        return all(c.source_input == c.target_input for c in spec.leaf_comparisons())
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
            and _spec_symmetric(rule_spec)
        )

    def _pre(self, ent, source_or_target: bool = True):
        """One (keys, vals) evaluation of a row's side: each leaf input
        runs once for both. A symmetric self-link row shares it between
        side 1 and side 0."""
        if self.keys_only:
            return self.rule.index_keys(ent, source_or_target, self.limit), None
        return self.rule.index_keys_and_values(ent, source_or_target, self.limit)

    def _emit(self, ent, uri, side, out, pre=None):
        source_or_target = side == 1
        if pre is None and self.execution_method is not None:
            keys = self.execution_method.index_keys(ent, source_or_target)
            vals = None
        else:
            keys, vals = pre if pre is not None else self._pre(ent, source_or_target)
        if not keys:
            return
        if self.keys_only:
            for key in keys:
                out["key"].append(key)
            return
        if vals is None:
            vals = self.rule.leaf_values(ent, source_or_target)
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


PAIR_CHUNK = 1 << 15  # candidate pairs enumerated and scored per step


class PairScorer:
    """Blocked pair scoring with one core, :meth:`score_entities`, over
    an *entity table* (``side, uri, keys, vals_0..m`` and optionally the
    ``dirty_col`` flag, one row per entity) and a *block index*: parallel
    ``(key, entity row)`` arrays, one entry per block an entity sits in.

    The core enumerates candidate pairs in numpy from ``uri``, ``keys``
    and the sorted block index alone, block by block in ascending key
    order: side-1 × side-0 entities of one block, ``source < target``
    when ``source_equals_target``, and min-common-key dedup (a pair is
    kept only in the smallest block its two full key sets share, so each
    pair is scored exactly once across its shared blocks). With
    ``dirty_col`` set (incremental re-link) a pair needs ≥1 dirty side:
    a clean source pairs only with the block's dirty targets, a dirty
    source with all of them. Pairs come in ``PAIR_CHUNK``-sized steps,
    each scored column-at-a-time by :meth:`LinkageRule.score_pairs`
    (one batch kernel per leaf comparison, a columnar fold of the
    aggregation tree) and kept iff confidence >= limit — one scoring
    path for every rule, in bounded memory.

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
        ``timings``, when given, accumulates ``enumerate_s``,
        ``score_s`` (convert and score) and the counts ``pairs``
        (candidates scored) and ``pairs_kept``."""
        import time

        rule = _compile_rule(self.rule_spec)
        t0 = time.perf_counter()
        columns = [ValueColumn(ents[f"vals_{k}"]) for k in range(len(rule.leaf_comparisons()))]
        parts = []
        spent = {"enumerate_s": 0.0, "score_s": time.perf_counter() - t0,
                 "pairs": 0, "pairs_kept": 0}
        t0 = time.perf_counter()
        for pi, pj in self._candidates(ents, key, ent):
            t1 = time.perf_counter()
            spent["enumerate_s"] += t1 - t0
            kept, conf = rule.score_pairs(columns, pi, pj, self.limit)
            parts.append(
                pa.table(
                    {
                        "source": ents["uri"].take(pi[kept]).cast(pa.string()),
                        "target": ents["uri"].take(pj[kept]).cast(pa.string()),
                        "confidence": pa.array(conf, pa.float64()),
                    }
                )
            )
            spent["pairs"] += len(pi)
            spent["pairs_kept"] += len(kept)
            t0 = time.perf_counter()
            spent["score_s"] += t0 - t1
        spent["enumerate_s"] += time.perf_counter() - t0
        if timings is not None:
            for k, v in spent.items():
                timings[k] = timings.get(k, 0) + v
        return pa.concat_tables(parts) if parts else _LINKS_SCHEMA.empty_table()

    def _candidates(self, ents: pa.Table, key: np.ndarray, ent: np.ndarray):
        """Candidate pairs as (source rows, target rows) arrays of at most
        about ``PAIR_CHUNK`` pairs each, in block order, then source
        order, then target order (block-index order within a block)."""
        import pyarrow.compute as pc

        if not len(key):
            return
        is_tgt = ents["side"].to_numpy(zero_copy_only=False)[ent] != 1
        dirty = None
        if self.dirty_col:
            dirty = ents[self.dirty_col].to_numpy(zero_copy_only=False).astype(bool)
        # per block: its sources, then its dirty targets, then the clean
        # ones, each in block-index order (lexsort is stable)
        clean_tgt = is_tgt & ~dirty[ent] if dirty is not None else np.zeros(len(ent), bool)
        order = np.lexsort((clean_tgt, is_tgt, key))
        key, ent, is_tgt, clean_tgt = key[order], ent[order], is_tgt[order], clean_tgt[order]
        starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
        block = np.cumsum(np.r_[False, key[1:] != key[:-1]])
        n_tgt = np.add.reduceat(is_tgt.astype(np.int64), starts)
        n_src = np.diff(np.r_[starts, len(key)]) - n_tgt
        n_dirty_tgt = n_tgt - np.add.reduceat(clean_tgt.astype(np.int64), starts)
        src = np.flatnonzero(~is_tgt)
        b = block[src]
        first_tgt = starts[b] + n_src[b]
        count = n_tgt[b] if dirty is None else np.where(dirty[ent[src]], n_tgt[b], n_dirty_tgt[b])
        uri_rank = None
        if self.source_equals_target:
            uri_rank = pc.rank(ents["uri"], sort_keys="ascending", tiebreaker="dense")
            uri_rank = uri_rank.to_numpy(zero_copy_only=False)
        keys = _KeySets(ents["keys"])
        total = np.cumsum(count)
        lo = 0
        while lo < len(src):
            # the next sources whose pairs fit in one chunk (at least one)
            end = total[lo] - count[lo] + PAIR_CHUNK
            hi = max(lo + 1, int(np.searchsorted(total, end, "right")))
            tpos, owner = ragged_arange(first_tgt[lo:hi], count[lo:hi])
            i, j, gk = ent[src[lo:hi]][owner], ent[tpos], key[src[lo:hi]][owner]
            keep = np.ones(len(i), bool)
            if uri_rank is not None:
                keep &= uri_rank[i] < uri_rank[j]
            keep[keep] = ~keys.share_below(i[keep], j[keep], gk[keep])
            sel = np.flatnonzero(keep)
            if dirty is not None:
                # a dirty source sees its block's targets dirty-first:
                # back to block-index order
                sel = sel[np.lexsort((order[tpos[sel]], owner[sel]))]
            if len(sel):
                yield i[sel], j[sel]
            lo = hi


class _KeySets:
    """The full blocking-key sets of an entity table (its ``keys`` list
    column), for the min-common-key dedup."""

    def __init__(self, keys: pa.ChunkedArray | pa.Array):
        self.col = ValueColumn(keys)
        flat = self.col.flat.to_numpy(zero_copy_only=False)
        n = self.col.lengths
        # smallest key per entity; an entity without keys matches no block
        self.kmin = np.full(len(n), np.iinfo(np.int64).max)
        spanned = self.col.spans > 0
        if spanned.any():
            self.kmin[spanned] = np.minimum.reduceat(flat, self.col.starts[spanned])
        self.has = n > 0
        self.flat = flat
        self._sorted = None

    def share_below(self, i: np.ndarray, j: np.ndarray, gk: np.ndarray) -> np.ndarray:
        """Per pair: do entities ``i`` and ``j`` share a key below block
        key ``gk``? Only an entity whose smallest key is below ``gk``
        can, so only pairs of two such entities are looked up."""
        out = np.zeros(len(i), bool)
        need = np.flatnonzero(
            ~(self.has[i] & (self.kmin[i] == gk)) & ~(self.has[j] & (self.kmin[j] == gk))
        )
        if not len(need):
            return out
        if self._sorted is None:
            # every (entity, key) as one sortable int64: entity * K + key rank
            owner = np.repeat(np.arange(len(self.col.spans)), self.col.spans)
            uniq, rank = np.unique(self.flat, return_inverse=True)
            self._rank, self._n_keys = rank, len(uniq)
            self._sorted = np.sort(owner * self._n_keys + rank)
        idx, own = ragged_arange(self.col.starts[i[need]], self.col.lengths[i[need]])
        below = self.flat[idx] < gk[need][own]
        idx, own = idx[below], own[below]
        probe = j[need][own] * self._n_keys + self._rank[idx]
        at = np.minimum(np.searchsorted(self._sorted, probe), len(self._sorted) - 1)
        hit = self._sorted[at] == probe
        out[need] = np.bincount(own[hit], minlength=len(need)) > 0
        return out


def _score_partitioned(exploded, scorer, score_partitions: int):
    """One :func:`keyed_exchange` on the blocking key, then
    multi-block scoring per exchanged block (the scorer re-groups
    blocks in memory).

    With ``score_partitions == 1`` (tiny deltas) the exchange coalesces
    to one block and skips the sort — the sort-based shuffle costs
    seconds of fixed overhead per run. Otherwise it spreads the rows
    over ``min(score_partitions, 2 * CPUs)`` blocks before the sort:
    task parallelism follows the input block count, and the exploded
    dataset often arrives in a handful of read blocks (measured 86.9s
    -> 38.4s on a 32-CPU 600k-pair salted run with identical output)."""
    from silk_ray.pipelines.relational import keyed_exchange

    blocks = 1
    if score_partitions > 1:
        import ray as _ray

        ncpu = int(_ray.cluster_resources().get("CPU", 8)) if _ray.is_initialized() else 8
        blocks = min(score_partitions, 2 * ncpu)
    return keyed_exchange(exploded, "key", scorer, blocks=blocks, empty=_LINKS_SCHEMA.empty_table())


def apply_link_filter(links, limit_per_source: int):
    """Per-source top-k (Filter.scala:40-44) via a keyed exchange on the
    source with deterministic (confidence desc, target asc) ordering.
    Top-k is distributive, so each block prunes LOCALLY to its own
    top-k per source before the shuffle — the exchange carries at most
    sources × k rows per block, never the link set."""
    from silk_ray.pipelines.relational import keyed_exchange

    def topk(df):
        return _topk_per_source(df, limit_per_source)

    pruned = links.map_batches(topk, batch_format="pandas")
    return keyed_exchange(pruned, "source", topk, batch_format="pandas",
                          empty=_LINKS_SCHEMA.empty_table())


def _topk_per_source(df, k: int):
    """Deterministic per-source top-k in (confidence desc, target asc)
    order — the exact ``sort_values(["source", "confidence", "target"],
    ascending=[True, False, True])`` + ``groupby.head(k)`` contract,
    computed with sorted-factorize codes + one stable ``np.lexsort``
    (string multi-key pandas sorts were the filter's dominant cost on
    600k-link batches)."""
    import numpy as np
    import pandas as pd

    s_codes, _ = pd.factorize(df["source"], sort=True, use_na_sentinel=False)
    t_codes, _ = pd.factorize(df["target"], sort=True, use_na_sentinel=False)
    conf = df["confidence"].to_numpy()
    order = np.lexsort((t_codes, -conf, s_codes))
    s_sorted = s_codes[order]
    starts = np.concatenate(([0], np.flatnonzero(s_sorted[1:] != s_sorted[:-1]) + 1))
    rank = np.arange(len(order)) - np.repeat(starts, np.diff(np.append(starts, len(order))))
    return df.iloc[order[rank < k]]


def apply_unambiguous_filter(links):
    """LinkFilter "unambiguous" mode (Filter.scala:46-57): keep a source
    URI's single link iff that source has EXACTLY ONE distinct link.
    The scoring pipeline already emits each (source, target) pair once,
    so distinct-link count per source == row count per source, counted
    per block after a keyed exchange on the source."""
    from silk_ray.pipelines.relational import keyed_exchange

    def single_link(g):
        return g[g.groupby("source", sort=False)["target"].transform("size") == 1]

    return keyed_exchange(links, "source", single_link, batch_format="pandas",
                          empty=_LINKS_SCHEMA.empty_table())


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
