"""Deduplication operators: exact, MinHash-LSH, SimHash, n-gram Jaccard.

All expressed Ray-Data-first (ray_guide patterns): vectorized hash
computation in ``map_batches``, candidate generation via
``groupby(bucket)`` shuffles, pairwise verification only inside small
buckets — no driver-side O(n²).
"""

from __future__ import annotations

import hashlib
import re
import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_WS = re.compile(r"\s+")


def _tokens(text: str) -> list[str]:
    return [t for t in _WS.split(text or "") if t]


def shingles(text: str, k: int = 3) -> set[str]:
    """Word k-shingles."""
    toks = _tokens(text)
    if len(toks) < k:
        return {" ".join(toks)} if toks else set()
    return {" ".join(toks[i : i + k]) for i in range(len(toks) - k + 1)}


# ---------------------------------------------------------------------------
# exact dedup
# ---------------------------------------------------------------------------


def add_content_hash(batch: pa.Table, text_col: str = "text", out_col: str = "content_hash") -> pa.Table:
    hashes = [
        hashlib.sha256((t or "").encode()).hexdigest() for t in batch[text_col].to_pylist()
    ]
    return batch.append_column(out_col, pa.array(hashes, pa.string()))


def exact_dedup(ds, id_col: str = "doc_id", text_col: str = "text"):
    """Keep the smallest-id row per exact content hash:
    hash in map_batches → groupby(hash) → min-id row per group."""
    import pandas as pd

    hashed = ds.map_batches(
        lambda b: add_content_hash(b, text_col), batch_format="pyarrow"
    )

    def first_per_group(g: pd.DataFrame) -> pd.DataFrame:
        return g.sort_values(id_col, kind="mergesort").head(1)

    return hashed.groupby("content_hash").map_groups(first_per_group, batch_format="pandas")


# ---------------------------------------------------------------------------
# MinHash + LSH near-dedup
# ---------------------------------------------------------------------------

_MERSENNE = (1 << 61) - 1


# md5-lower-64 (== DuckDB ``md5_number_lower``) keeps every hash in the
# MinHash pipeline reproducible in SQL (the ``dedup_minhash`` oracle)
from silk_ray.kernel.index import md5_lower64 as _md5_lower64  # noqa: E402


class MinHasher:
    """n_perm universal-hash MinHash signatures over word shingles.
    Permutation parameters and the shingle base hash both derive from
    md5-lower-64 (not a seeded RNG), so signatures are exactly
    SQL-reproducible."""

    def __init__(self, n_perm: int = 64, k_shingle: int = 3, text_col: str = "text", id_col: str = "doc_id"):
        # a, x < 2^32 so a*x + b < 2^64: exact in uint64, then mod p
        self.a = np.array(
            [1 + _md5_lower64(f"minhash-a-{i}") % ((1 << 32) - 1) for i in range(n_perm)],
            dtype=np.uint64,
        )
        self.b = np.array(
            [_md5_lower64(f"minhash-b-{i}") % (1 << 32) for i in range(n_perm)],
            dtype=np.uint64,
        )
        self.n_perm = n_perm
        self.k = k_shingle
        self.text_col = text_col
        self.id_col = id_col

    def signature(self, text: str) -> np.ndarray:
        sh = shingles(text, self.k)
        if not sh:
            return np.zeros(self.n_perm, dtype=np.uint64)
        base = np.array([_md5_lower64(s) % (1 << 32) for s in sh], dtype=np.uint64)
        # (n_perm, |sh|) fully vectorized universal hash, min per row
        hashed = (self.a[:, None] * base[None, :] + self.b[:, None]) % np.uint64(_MERSENNE)
        return hashed.min(axis=1)

    def __call__(self, batch: pa.Table) -> pa.Table:
        sigs = [self.signature(t) for t in batch[self.text_col].to_pylist()]
        return pa.table(
            {
                self.id_col: batch[self.id_col],
                "minhash": pa.array([s.tolist() for s in sigs], pa.list_(pa.uint64())),
            }
        )


def _sketch_of(text: str, k: int) -> np.ndarray:
    """Sorted unique crc32 hashes of the doc's word k-shingles — the
    compact per-doc payload that replaces raw text in every shuffle.
    Jaccard over hashed shingles equals Jaccard over the shingles
    themselves (up to crc collisions)."""
    sh = shingles(text, k)
    if not sh:
        return np.empty(0, dtype=np.uint32)
    return np.unique(np.fromiter((zlib.crc32(s.encode()) for s in sh), np.uint32, len(sh)))


def _find_hot_buckets(band_rows, hot_cap: int, n_salt_max: int) -> dict[int, int]:
    """Pre-pass (mirror of linking's ``find_hot_keys``): count rows per
    bucket, return ``{bucket: n_salt}`` for buckets above the cap. Only
    counts move — the result is a small driver-side dict (hot buckets
    are rare by construction) broadcast into the salt stage."""
    # two-round partial-count tree, no sort/groupby exchange (a count
    # table needs no key co-location; see linking.pipeline.find_hot_keys)
    def partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by("bucket").aggregate([("bucket", "count")])
        return g.rename_columns(["bucket", "p_n"])

    def combine(batch: pa.Table) -> pa.Table:
        g = batch.group_by("bucket").aggregate([("p_n", "sum")])
        return g.rename_columns(["bucket", "p_n"])

    counted = (
        band_rows.map_batches(partial, batch_format="pyarrow")
        .repartition(16)
        .map_batches(combine, batch_format="pyarrow", batch_size=None)
    )
    totals: dict[int, int] = {}
    for b in counted.iter_batches(batch_format="pyarrow"):
        for k, c in zip(b["bucket"].to_pylist(), b["p_n"].to_pylist()):
            totals[k] = totals.get(k, 0) + c
    return {
        k: min(n_salt_max, -(-c // hot_cap)) for k, c in totals.items() if c > hot_cap
    }


def _salt_triangle(band_rows, id_col: str, carry: list[str], hot: dict[int, int]):
    """Triangle-salt oversized buckets: each row gets a stable salt
    ``s = crc32(id) % S`` and is replicated into every group
    ``(bucket, min(s,j), max(s,j))`` for ``j in 0..S-1``. A pair (a, b)
    then meets in exactly ONE group — {s_a, s_b} — so the pair set is
    identical to the unsalted bucket while per-task work drops from
    O(n²) to O((n/S)²) (cross) per group. Non-hot rows pass through
    with g_lo = g_hi = salt = 0."""
    import ray

    def passthrough(batch: pa.Table) -> pa.Table:
        zeros = np.zeros(batch.num_rows, np.int8)
        cols = {
            "bucket": batch["bucket"],
            "g_lo": pa.array(zeros, pa.int8()),
            "g_hi": pa.array(zeros, pa.int8()),
            "salt": pa.array(zeros, pa.int8()),
            id_col: batch[id_col],
        }
        for c in carry:
            cols[c] = batch[c]
        return pa.table(cols)

    if not hot:
        return band_rows.map_batches(passthrough, batch_format="pyarrow")

    hot_ref = ray.put(hot)
    hot_keys_arr = np.fromiter(hot.keys(), np.int64, len(hot))

    def salt(batch: pa.Table) -> pa.Table:
        h = ray.get(hot_ref)
        buckets = batch["bucket"].to_numpy(zero_copy_only=False)
        hot_mask = np.isin(buckets, hot_keys_arr)
        cold = batch.filter(pa.array(~hot_mask))
        zeros = np.zeros(cold.num_rows, np.int8)
        out_cols = {
            "bucket": cold["bucket"],
            "g_lo": pa.array(zeros, pa.int8()),
            "g_hi": pa.array(zeros, pa.int8()),
            "salt": pa.array(zeros, pa.int8()),
            id_col: cold[id_col],
        }
        for c in carry:
            out_cols[c] = cold[c]
        tables = [pa.table(out_cols)]
        if hot_mask.any():
            hot_tbl = batch.filter(pa.array(hot_mask))
            ids = hot_tbl[id_col].to_pylist()
            hb = hot_tbl["bucket"].to_pylist()
            rows, lo, hi, sa = [], [], [], []
            for i, (b, doc) in enumerate(zip(hb, ids)):
                n_salt = h[b]
                s = zlib.crc32(str(doc).encode()) % n_salt
                for j in range(n_salt):
                    rows.append(i)
                    lo.append(min(s, j))
                    hi.append(max(s, j))
                    sa.append(s)
            take = pa.array(rows, pa.int64())
            sub = hot_tbl.take(take)
            cols = {
                "bucket": sub["bucket"],
                "g_lo": pa.array(lo, pa.int8()),
                "g_hi": pa.array(hi, pa.int8()),
                "salt": pa.array(sa, pa.int8()),
                id_col: sub[id_col],
            }
            for c in carry:
                cols[c] = sub[c]
            tables.append(pa.table(cols))
        return pa.concat_tables(tables)

    return band_rows.map_batches(salt, batch_format="pyarrow")


def _group_sides(group: pa.Table, id_col: str):
    """Distinct rows of one (bucket, g_lo, g_hi) group → (row indices
    into the group in ascending-id order, left positions, right
    positions): triangular pairs for a same-salt group, full cross for
    a mixed-salt group. Pure numpy — most groups are tiny (1-3 rows),
    so no per-group pandas construction."""
    ids = group[id_col].to_numpy(zero_copy_only=False)
    order = np.argsort(ids, kind="stable")
    sids = ids[order]
    if len(sids) > 1:
        keep = np.empty(len(sids), np.bool_)
        keep[0] = True
        keep[1:] = sids[1:] != sids[:-1]
        uniq_idx = order[keep]
    else:
        uniq_idx = order
    n = uniq_idx.size
    if "g_lo" in group.column_names:
        g_lo = group["g_lo"][0].as_py()
        g_hi = group["g_hi"][0].as_py()
    else:  # unsalted plain bucket group
        g_lo = g_hi = 0
    if g_lo == g_hi:
        if n < 2:
            return uniq_idx, None, None
        li, ri = np.triu_indices(n, k=1)
        return uniq_idx, li, ri
    salts = group["salt"].to_numpy(zero_copy_only=False)[uniq_idx]
    a = np.flatnonzero(salts == g_lo)
    b = np.flatnonzero(salts == g_hi)
    if a.size == 0 or b.size == 0:
        return uniq_idx, None, None
    li = np.repeat(a, b.size)
    ri = np.tile(b, a.size)
    # normalize to id order (positions are in ascending-id order)
    return uniq_idx, np.minimum(li, ri), np.maximum(li, ri)


def _pair_blocks(n_rows: int | None) -> int | None:
    """Pre-sort block count for a candidate-pair stream, from the
    CORPUS row count (the only size known at plan time): ≥~8k rows per
    block so no block is empty (zero-block bundles out of Ray's sort
    bypass the typed-empty UDFs entirely), capped at 512 so a 100 TB
    pair stream still sorts wide."""
    if n_rows is None:
        return None
    return max(1, min(512, n_rows // 8192))


def _distinct_pairs(pairs, id_type, min_col: str | None = None, coalesce: int | None = None):
    """Global pair dedup (the same pair surfaces from several buckets /
    bands): FULL-RANGE sort on a mixed (left,right) hash + one per-block
    Arrow ``group_by`` — equal hashes co-locate in one sorted block, so
    each distinct pair reduces exactly once. ``min_col`` keeps the
    per-pair minimum of that column (the SimHash hamming merge).

    Full-range single-int sort keys keep Ray's range boundaries
    high-cardinality (duplicate boundaries ⇒ schema-less empty range
    blocks ⇒ "RefBundle with a different schema" warnings), and empty
    blocks emit the TYPED pair schema."""
    from silk_ray.pipelines.relational import _key_hash

    def add_ph(b: pa.Table) -> pa.Table:
        l = _key_hash(b["left_id"]).view(np.uint64)
        r = _key_hash(b["right_id"]).view(np.uint64)
        h = l * np.uint64(0xA24BAED4963EE407) ^ r
        h ^= h >> np.uint64(29)
        return b.append_column("_ph", pa.array(h.view(np.int64), pa.int64()))

    fields = [("left_id", id_type), ("right_id", id_type)]
    if min_col:
        fields.append((min_col, pa.int64()))
    out_schema = pa.schema(fields)

    def dedup_block(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return out_schema.empty_table()
        b = b.drop_columns(["_ph"])
        if min_col:
            g = b.group_by(["left_id", "right_id"]).aggregate([(min_col, "min")])
            return g.rename_columns(["left_id", "right_id", min_col])
        return b.group_by(["left_id", "right_id"]).aggregate([])

    tagged = pairs.map_batches(add_ph, batch_format="pyarrow")
    if coalesce:
        # bound the block count BEFORE the sort: the emit stage leaves
        # one (mostly tiny or empty) block per bucket group, and more
        # sort-input blocks than distinct hash values guarantees empty
        # (schema-less, zero-block) range partitions
        tagged = tagged.repartition(coalesce)
    return tagged.sort("_ph").map_batches(
        dedup_block, batch_format="pyarrow", batch_size=None
    )


def _candidate_pairs(band_rows, id_col: str, id_type: pa.DataType, hot_cap: int = 4096, n_salt_max: int = 64, n_rows: int | None = None):
    """(bucket, id) rows → distinct (left_id, right_id) candidate pairs
    with left < right, typed ``id_type`` (the id column's type, which
    also types the empty blocks of the pair stream). Only ids move
    through both shuffles. Buckets above ``hot_cap`` rows are
    triangle-salted (see :func:`_salt_triangle`)
    so one degenerate bucket (e.g. all-empty docs sharing MinHash
    signature 0) cannot become a single O(n²) straggler task; pair
    emission is vectorized (np.triu_indices / repeat+tile).

    The detection pre-pass is itself a shuffle, so it only runs when the
    corpus is big enough for a degenerate bucket to hurt
    (``n_rows > 2*hot_cap``): below that the worst possible bucket is
    corpus-sized — ≤ 2·hot_cap² vectorized pair emissions in one task —
    cheaper than paying an extra count shuffle on every call."""
    if n_rows is not None and n_rows <= 2 * hot_cap:
        hot: dict[int, int] = {}
    else:
        hot = _find_hot_buckets(band_rows, hot_cap, n_salt_max)

    def emit_pairs(group: pa.Table) -> pa.Table:
        uniq_idx, li, ri = _group_sides(group, id_col)
        if li is None:
            return pa.schema([("left_id", id_type), ("right_id", id_type)]).empty_table()
        ids = group[id_col].to_numpy(zero_copy_only=False)[uniq_idx]
        return pa.table(
            {"left_id": pa.array(ids[li], id_type), "right_id": pa.array(ids[ri], id_type)}
        )

    if hot:
        salted = _salt_triangle(band_rows, id_col, [], hot)
        pairs = salted.groupby(["bucket", "g_lo", "g_hi"]).map_groups(
            emit_pairs, batch_format="pyarrow"
        )
    else:  # no salting needed: single-key shuffle, no extra map stage
        pairs = band_rows.groupby("bucket").map_groups(emit_pairs, batch_format="pyarrow")
    # same pair can surface from several buckets → distinct
    return _distinct_pairs(pairs, id_type, coalesce=_pair_blocks(n_rows))


def _attach_sketch(pairs, sketches, id_col: str, pair_key: str, carry: list[str], out_name: str):
    """Hash-shuffle equi-join of the per-doc sketch onto pair rows,
    expressed as union + groupby(key) + map_groups (no Dataset.join:
    Arrow's hash join rejects list payloads and its aggregator pool can
    deadlock when partitions exceed session CPUs). Inner semantics:
    pair rows whose key has no sketch row are dropped. ``carry`` columns
    ending in ``_l``/``_r`` are binary sketches; the rest are doc ids."""

    def tag_pairs(b: pa.Table) -> pa.Table:
        cols = {"_jk": b[pair_key], "_side": pa.array(np.ones(b.num_rows, np.int8))}
        for c in carry:
            cols[c] = b[c]
        cols[out_name] = pa.nulls(b.num_rows, pa.binary())
        return pa.table(cols)

    def tag_sketches(b: pa.Table) -> pa.Table:
        id_type = b[id_col].type
        cols = {"_jk": b[id_col], "_side": pa.array(np.zeros(b.num_rows, np.int8))}
        for c in carry:
            ctype = pa.binary() if c.endswith(("_l", "_r")) else id_type
            cols[c] = pa.nulls(b.num_rows, ctype)
        cols[out_name] = b["sketch"]
        return pa.table(cols)

    tagged = pairs.map_batches(tag_pairs, batch_format="pyarrow").union(
        sketches.map_batches(tag_sketches, batch_format="pyarrow")
    )

    def merge_group(g: pa.Table) -> pa.Table:
        side = g["_side"].to_numpy(zero_copy_only=False)
        sk_rows = np.flatnonzero(side == 0)
        pair_rows = np.flatnonzero(side == 1)
        out_schema = pa.schema(
            [g.schema.field(c) for c in carry] + [pa.field(out_name, pa.binary())]
        )
        if sk_rows.size == 0 or pair_rows.size == 0:
            return out_schema.empty_table()
        sketch_val = g[out_name][int(sk_rows[0])].as_py()
        sub = g.take(pa.array(pair_rows))
        cols = {c: sub[c] for c in carry}
        cols[out_name] = pa.array([sketch_val] * sub.num_rows, pa.binary())
        return pa.table(cols)

    return tagged.groupby("_jk").map_groups(merge_group, batch_format="pyarrow")


def _verify_pairs(pairs, sketches, id_col: str, threshold: float, score_col: str):
    """Attach each side's shingle-hash sketch to the candidate pairs
    (two hash-shuffle joins over pair-sized data) and compute the exact
    Jaccard from the sorted sketches."""
    left = _attach_sketch(pairs, sketches, id_col, "left_id", ["left_id", "right_id"], "sketch_l")
    both = _attach_sketch(left, sketches, id_col, "right_id", ["left_id", "right_id", "sketch_l"], "sketch_r")

    def score(batch: pa.Table) -> pa.Table:
        id_type = batch["left_id"].type
        ls, rs, js = [], [], []
        for lid, rid, sl, sr in zip(
            batch["left_id"].to_pylist(),
            batch["right_id"].to_pylist(),
            batch["sketch_l"].to_pylist(),
            batch["sketch_r"].to_pylist(),
        ):
            a = np.frombuffer(sl or b"", dtype=np.uint32)
            b = np.frombuffer(sr or b"", dtype=np.uint32)
            inter = np.intersect1d(a, b, assume_unique=True).size
            union = a.size + b.size - inter
            j = inter / union if union else 0.0
            if j >= threshold:
                ls.append(lid)
                rs.append(rid)
                js.append(j)
        return pa.table(
            {"left_id": pa.array(ls, id_type), "right_id": pa.array(rs, id_type), score_col: pa.array(js, pa.float64())}
        )

    return both.map_batches(score, batch_format="pyarrow")


def _verify_adaptive(cand, sketched, id_col: str, threshold: float, score_col: str):
    """Adaptive pair verification. Below the broadcast threshold the
    whole {id: sketch} map ships once via ``ray.put`` and pairs verify
    in one map stage (the sketched table is already materialized, so
    ``size_bytes`` is free); at scale the sketch map won't fit a worker
    heap and verification runs as two hash-shuffle joins over
    pair-sized data instead."""
    sketches = sketched.select_columns([id_col, "sketch"])
    sk_bytes = sketched.size_bytes() or 0
    if sk_bytes > (256 << 20):
        return _verify_pairs(cand, sketches, id_col, threshold, score_col)
    import ray

    tbl = pa.concat_tables(ray.get(sketches.to_arrow_refs()))
    ref = ray.put(dict(zip(tbl[id_col].to_pylist(), tbl["sketch"].to_pylist())))

    def score_direct(batch: pa.Table) -> pa.Table:
        m = ray.get(ref)
        id_type = batch["left_id"].type
        ls, rs, js = [], [], []
        for lid, rid in zip(batch["left_id"].to_pylist(), batch["right_id"].to_pylist()):
            a = np.frombuffer(m.get(lid) or b"", dtype=np.uint32)
            b = np.frombuffer(m.get(rid) or b"", dtype=np.uint32)
            inter = np.intersect1d(a, b, assume_unique=True).size
            union = a.size + b.size - inter
            j = inter / union if union else 0.0
            if j >= threshold:
                ls.append(lid)
                rs.append(rid)
                js.append(j)
        return pa.table(
            {
                "left_id": pa.array(ls, id_type),
                "right_id": pa.array(rs, id_type),
                score_col: pa.array(js, pa.float64()),
            }
        )

    return cand.map_batches(score_direct, batch_format="pyarrow")


def minhash_lsh_pairs(
    ds,
    id_col: str = "doc_id",
    text_col: str = "text",
    n_perm: int = 64,
    bands: int = 16,
    k_shingle: int = 3,
    jaccard_threshold: float = 0.7,
    concurrency=(1, 8),
    hot_cap: int = 4096,
    n_salt_max: int = 64,
):
    """MinHash → band buckets → candidate pairs → sketch-Jaccard verify.

    Returns a Dataset ``(left_id, right_id, jaccard)`` with left < right.
    Classic shingle→minhash→band→bucket-groupby plan. Scale shape: the
    band shuffle carries only ``(bucket, id)`` (raw text never leaves
    the first stage — shuffle bytes per doc are O(bands·8), not
    O(bands·|text|)); verification joins each side's compact
    shingle-hash sketch onto the candidate pairs and computes the exact
    Jaccard from the sketches (identical to shingle-set Jaccard)."""
    rows_per_band = n_perm // bands

    class SketchStage(MinHasher):
        """Per doc: banded LSH bucket keys + the shingle-hash sketch."""

        def __call__(self, batch: pa.Table) -> pa.Table:
            ids = batch[self.id_col].to_pylist()
            texts = batch[self.text_col].to_pylist()
            buckets = []
            sk = []
            for t in texts:
                sig = self.signature(t)
                sk.append(_sketch_of(t, self.k).tobytes())
                buckets.append(
                    [
                        (band << 32) | zlib.crc32(sig[band * rows_per_band : (band + 1) * rows_per_band].tobytes())
                        for band in range(bands)
                    ]
                )
            return pa.table(
                {
                    self.id_col: batch[self.id_col],
                    "buckets": pa.array(buckets, pa.list_(pa.int64())),
                    "sketch": pa.array(sk, pa.binary()),
                }
            )

    # Computed ONCE and pinned (object store, spillable): the sketch
    # table feeds three consumers (band explode + both join sides);
    # without materializing, each consumer re-runs the shingling, and
    # the triple actor-pool lineage can deadlock Ray's resource
    # reservation on small CPU counts. Task-based stage via
    # cached_stage: per-worker construction, no actor-pool reservation.
    from silk_ray.linking.pipeline import cached_stage

    sketched = ds.map_batches(
        cached_stage(
            SketchStage, n_perm=n_perm, k_shingle=k_shingle, text_col=text_col, id_col=id_col
        ),
        batch_format="pyarrow",
    ).materialize()

    def explode_bands(batch: pa.Table) -> pa.Table:
        flat = pa.Table.from_arrays(
            [
                pc.list_parent_indices(batch["buckets"].combine_chunks()),
                pc.list_flatten(batch["buckets"].combine_chunks()),
            ],
            names=["_row", "bucket"],
        )
        ids = batch[id_col].take(flat["_row"])
        return pa.table({"bucket": flat["bucket"], id_col: ids})

    band_rows = sketched.map_batches(explode_bands, batch_format="pyarrow")
    cand = _candidate_pairs(
        band_rows, id_col, hot_cap=hot_cap, n_salt_max=n_salt_max, n_rows=sketched.count(),
        id_type=sketched.schema().base_schema.field(id_col).type,
    )
    return _verify_adaptive(cand, sketched, id_col, jaccard_threshold, "jaccard")


# ---------------------------------------------------------------------------
# SimHash
# ---------------------------------------------------------------------------


def simhash64(text: str) -> int:
    """64-bit SimHash over word tokens (weighted by term frequency).

    Per-token hash = the lower 64 bits of md5 (little-endian of digest
    bytes 8..16) — chosen because it equals DuckDB's
    ``md5_number_lower``, which makes the whole SimHash pipeline
    (weighted bit majority, banding, hamming verify) exactly
    reproducible in SQL (the ``dedup_simhash`` oracle)."""
    from collections import Counter

    counts = Counter(_tokens(text))
    if not counts:
        return 0
    # _md5_lower64 IS this expression (utf-8 surrogatepass encode is
    # identical for valid text) — routed through it for the shared
    # process-level token→hash LRU (Zipfian token reuse across docs)
    hashes = np.array([_md5_lower64(tok) for tok in counts], dtype=np.uint64)
    weights = np.fromiter(counts.values(), dtype=np.int64, count=len(counts))
    # (T, 64) bit matrix via unpackbits on the big-endian byte view
    bits = np.unpackbits(hashes.view(np.uint8).reshape(-1, 8)[:, ::-1], axis=1, bitorder="little")
    acc = ((2 * bits.astype(np.int64) - 1) * weights[:, None]).sum(axis=0)
    out = 0
    for b in range(64):
        if acc[b] > 0:
            out |= 1 << b
    return out


class SimHashStage:
    def __init__(self, text_col: str = "text", id_col: str = "doc_id"):
        self.text_col = text_col
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        hashes = [simhash64(t) for t in batch[self.text_col].to_pylist()]
        return pa.table(
            {
                self.id_col: batch[self.id_col],
                "simhash": pa.array([h - (1 << 63) for h in hashes], pa.int64()),
            }
        )


# byte-popcount lookup for vectorized hamming (numpy < 2 lacks bitwise_count)
_POPCNT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def simhash_near_dup_pairs(
    ds,
    id_col: str = "doc_id",
    text_col: str = "text",
    max_hamming: int = 3,
    n_tables: int = 4,
    hot_cap: int = 4096,
    n_salt_max: int = 64,
):
    """Near-dup candidates by SimHash: split the 64-bit hash into
    ``n_tables`` 16-bit bands (pigeonhole: hamming ≤ 3 ⇒ one band equal),
    bucket-groupby per band, verify hamming distance in-bucket.
    Degenerate buckets (e.g. every empty doc has signature 0, so all
    four of its bands collide) are triangle-salted above ``hot_cap``
    rows — identical output, bounded per-task pairs — and the hamming
    verify is a vectorized XOR-popcount matrix, chunked to bound peak
    memory, not a Python pair loop."""
    band_bits = 64 // n_tables

    class Bander(SimHashStage):
        def __call__(self, batch: pa.Table) -> pa.Table:
            base = super().__call__(batch)
            ids = base[id_col].to_pylist()
            hashes = [h + (1 << 63) for h in base["simhash"].to_pylist()]
            ob, oi, oh = [], [], []
            for i, h in zip(ids, hashes):
                for band in range(n_tables):
                    chunk = (h >> (band * band_bits)) & ((1 << band_bits) - 1)
                    ob.append((band << band_bits) | chunk)
                    oi.append(i)
                    oh.append(h - (1 << 63))
            return pa.table(
                {"bucket": pa.array(ob, pa.int64()), id_col: pa.array(oi), "simhash": pa.array(oh, pa.int64())}
            )

    banded = ds.map_batches(
        Bander,
        fn_constructor_kwargs=dict(text_col=text_col, id_col=id_col),
        batch_format="pyarrow",
        concurrency=(1, 8),
    )
    # the pre-pass would re-execute the Bander pipeline just to count —
    # gate it on the input row count (metadata-cheap for parquet reads);
    # below the gate the worst bucket is corpus-sized and the vectorized
    # verify handles it in one task
    n_rows = ds.count()
    if n_rows <= 2 * hot_cap:
        hot: dict[int, int] = {}
    else:
        hot = _find_hot_buckets(banded.select_columns(["bucket"]), hot_cap, n_salt_max)

    def verify(group: pa.Table) -> pa.Table:
        id_type = group[id_col].type
        empty = pa.schema(
            [("left_id", id_type), ("right_id", id_type), ("hamming", pa.int64())]
        ).empty_table()
        uniq_idx, li, ri = _group_sides(group, id_col)
        if li is None:
            return empty
        ids = group[id_col].to_numpy(zero_copy_only=False)[uniq_idx]
        hashes = group["simhash"].to_numpy(zero_copy_only=False)[uniq_idx].astype(np.int64).view(np.uint64)
        ls, rs, hs = [], [], []
        # chunk the left side so the XOR matrix stays small
        for s in range(0, len(li), 1 << 20):
            l_idx = li[s : s + (1 << 20)]
            r_idx = ri[s : s + (1 << 20)]
            x = hashes[l_idx] ^ hashes[r_idx]
            d = _POPCNT8[x.view(np.uint8)].reshape(-1, 8).sum(axis=1, dtype=np.int64)
            keep = d <= max_hamming
            if keep.any():
                ls.append(ids[l_idx[keep]])
                rs.append(ids[r_idx[keep]])
                hs.append(d[keep])
        if not ls:
            return empty
        return pa.table(
            {
                "left_id": pa.array(np.concatenate(ls), id_type),
                "right_id": pa.array(np.concatenate(rs), id_type),
                "hamming": pa.array(np.concatenate(hs), pa.int64()),
            }
        )

    if hot:
        salted = _salt_triangle(banded, id_col, ["simhash"], hot)
        pairs = salted.groupby(["bucket", "g_lo", "g_hi"]).map_groups(verify, batch_format="pyarrow")
    else:
        pairs = banded.groupby("bucket").map_groups(verify, batch_format="pyarrow")
    # per-pair minimum hamming across tables (the Min-aggregate merge);
    # ids here are the documents table's int64 doc_id
    return _distinct_pairs(pairs, pa.int64(), min_col="hamming", coalesce=_pair_blocks(n_rows))


# ---------------------------------------------------------------------------
# n-gram Jaccard dedup (exact, via prefix-filter blocking)
# ---------------------------------------------------------------------------


def ngram_jaccard_pairs(
    ds,
    id_col: str = "doc_id",
    text_col: str = "text",
    k_shingle: int = 3,
    threshold: float = 0.8,
    hot_cap: int = 4096,
    n_salt_max: int = 64,
):
    """Exact all-pairs n-gram Jaccard ≥ threshold via prefix filtering:
    each doc emits its ⌊n(1-t)⌋+1 smallest-hashed shingles as block keys
    (same guarantee as JaccardDistance.index, JaccardDistance.scala:41-47).
    Only ``(bucket, id)`` rows move through the blocking shuffle; each
    side's shingle-hash sketch is joined back onto the candidate pairs
    and the exact Jaccard computed from the sketches."""

    def sketch_stage(batch: pa.Table) -> pa.Table:
        """Per doc: the sorted shingle-hash sketch + its prefix hashes
        as block keys. Raw text never enters a shuffle."""
        sketches = [_sketch_of(t, k_shingle) for t in batch[text_col].to_pylist()]
        prefixes = []
        for sk in sketches:
            prefix_len = int(sk.size * (1 - threshold)) + 1
            prefixes.append(sk[:prefix_len].astype(np.int64).tolist())
        return pa.table(
            {
                id_col: batch[id_col],
                "buckets": pa.array(prefixes, pa.list_(pa.int64())),
                "sketch": pa.array([s.tobytes() for s in sketches], pa.binary()),
            }
        )

    # materialized once: three consumers (prefix explode + both join
    # sides) would otherwise re-run the shingling per consumer
    sketched = ds.map_batches(sketch_stage, batch_format="pyarrow").materialize()

    def explode_prefix(batch: pa.Table) -> pa.Table:
        flat = pa.Table.from_arrays(
            [
                pc.list_parent_indices(batch["buckets"].combine_chunks()),
                pc.list_flatten(batch["buckets"].combine_chunks()),
            ],
            names=["_row", "bucket"],
        )
        return pa.table({"bucket": flat["bucket"], id_col: batch[id_col].take(flat["_row"])})

    band_rows = sketched.map_batches(explode_prefix, batch_format="pyarrow")
    cand = _candidate_pairs(
        band_rows, id_col, hot_cap=hot_cap, n_salt_max=n_salt_max, n_rows=sketched.count(),
        id_type=sketched.schema().base_schema.field(id_col).type,
    )
    return _verify_adaptive(cand, sketched, id_col, threshold, "jaccard")
