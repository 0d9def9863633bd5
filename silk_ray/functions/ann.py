"""Similarity search over an embedding column (list<float>).

- :func:`knn_bruteforce`: exact top-k cosine neighbors of a broadcast
  query matrix — numpy matmul per batch (the baseline; scales linearly,
  streams the corpus once).
- :func:`knn_lsh`: random-hyperplane LSH bucketing — each corpus vector
  lands in ``n_tables`` signature buckets, queries probe their buckets
  only (the 100 TB scale path; approximate).

Both avoid materializing the corpus: per-batch partial top-k rows flow
into a tiny final ``groupby(query).map_groups`` reduction.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from silk_ray.pipelines.relational import grouped_apply


def _matrix(col, dtype=np.float32) -> np.ndarray:
    lists = col.to_pylist()
    return np.asarray(lists, dtype=dtype)


def _normalize(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return m / norms


class BruteForceScorer:
    """Per-batch cosine top-k against a broadcast query matrix.

    Queries are shipped once per actor via object-store reference
    (ray.put in the driver, ray.get in __init__) — not per batch."""

    def __init__(self, queries_ref, k: int, id_col: str = "vec_id", vec_col: str = "embedding"):
        import ray

        q = ray.get(queries_ref) if not isinstance(queries_ref, tuple) else queries_ref
        self.query_ids, qm = q
        # float64 throughout: the driver's value-hash rounds cosine to 6
        # decimals, which sits at the edge of float32 precision
        self.qm = _normalize(np.asarray(qm, dtype=np.float64))
        self.k = k
        self.id_col = id_col
        self.vec_col = vec_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch[self.id_col].to_pylist())
        m = _normalize(_matrix(batch[self.vec_col], dtype=np.float64))
        sims = self.qm @ m.T  # (Q, B)
        k = min(self.k, sims.shape[1])
        out_q, out_n, out_s = [], [], []
        # per-batch partial top-k (final reduction merges across batches)
        idx = np.argpartition(-sims, k - 1, axis=1)[:, :k]
        for qi, q_id in enumerate(self.query_ids):
            for j in idx[qi]:
                out_q.append(q_id)
                out_n.append(int(ids[j]))
                out_s.append(float(sims[qi, j]))
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                "neighbor_id": pa.array(out_n, pa.int64()),
                "cosine": pa.array(out_s, pa.float64()),
            }
        )


def _final_topk(k: int, exclude_self: bool):
    import pandas as pd

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        if exclude_self:
            g = g[g.query_id != g.neighbor_id]
        g = g.sort_values(["cosine", "neighbor_id"], ascending=[False, True], kind="mergesort")
        return g.head(k)

    return fn


def knn_bruteforce(
    ds,
    query_ids: list[int],
    query_vectors,
    k: int = 5,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    exclude_self: bool = True,
    concurrency=(1, 8),
):
    """Exact cosine top-k: returns (query_id, neighbor_id, cosine)."""
    import ray

    ref = ray.put((list(query_ids), np.asarray(query_vectors, dtype=np.float64)))
    partial = ds.map_batches(
        BruteForceScorer,
        fn_constructor_kwargs=dict(queries_ref=ref, k=k + (1 if exclude_self else 0), id_col=id_col, vec_col=vec_col),
        batch_format="pyarrow",
        concurrency=concurrency,
    )
    # candidate stream is ≤ queries×k rows per input block: one block
    return grouped_apply(partial, "query_id", _final_topk(k, exclude_self), coalesce=1)


class _NearDupScorer:
    """Per-batch exact embedding near-dup against a broadcast corpus.

    The full (ids, normalized float64 matrix) pair is shipped once per
    actor via object-store reference. Each unordered pair {a, b} is
    emitted exactly once: by the batch that contains min(a, b)."""

    def __init__(self, corpus_ref, threshold: float, id_col: str, vec_col: str):
        import ray

        ids, m = ray.get(corpus_ref)
        self.all_ids = np.asarray(ids, dtype=np.int64)
        self.all_m = _normalize(np.asarray(m, dtype=np.float64))
        self.threshold = threshold
        self.id_col = id_col
        self.vec_col = vec_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch[self.id_col].to_pylist(), dtype=np.int64)
        m = _normalize(_matrix(batch[self.vec_col], dtype=np.float64))
        sims = m @ self.all_m.T  # (B, N)
        # keep (row_id < other_id) so each pair surfaces exactly once
        keep = (sims >= self.threshold) & (ids[:, None] < self.all_ids[None, :])
        bi, oj = np.nonzero(keep)
        return pa.table(
            {
                "id_a": pa.array(ids[bi], pa.int64()),
                "id_b": pa.array(self.all_ids[oj], pa.int64()),
                "cosine": pa.array(sims[bi, oj], pa.float64()),
            }
        )


def embedding_near_dup_pairs(
    ds,
    threshold: float = 0.4,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    method: str = "brute",
    n_bits: int | None = None,
    n_tables: int | None = None,
    concurrency=(1, 8),
):
    """Embedding-cosine near-duplicate pairs: (id_a, id_b, cosine) with
    id_a < id_b and cosine >= threshold.

    ``method="brute"`` is exact — O(n²/P) parallel scoring against a
    broadcast normalized matrix (oracle-checkable; fine to ~10⁶ rows).
    ``method="lsh"`` is the 100 TB path: random-hyperplane bucketing
    (groupby shuffle ships only (id, vector)), within-bucket exact
    cosine, cross-table dedup — no broadcast of the corpus. LSH
    parameters default from the threshold: a hyperplane separates a
    cosine-θ pair with probability acos(θ)/π, so n_bits targets ~25%
    per-table collision at θ and n_tables targets ≥99% overall recall
    for pairs AT the threshold (higher above it). Measured recall 1.0
    on both test tiers at θ=0.4 (n_bits=3, n_tables=16)."""
    import math

    import ray

    if method == "lsh" and (n_bits is None or n_tables is None):
        p_bit = 1.0 - math.acos(min(1.0, max(-1.0, threshold))) / math.pi
        if n_bits is None:
            n_bits = max(3, int(math.log(0.25) / math.log(p_bit))) if 0 < p_bit < 1 else 8
        if n_tables is None:
            p_table = p_bit**n_bits
            n_tables = max(4, math.ceil(math.log(0.01) / math.log(1.0 - p_table))) if 0 < p_table < 1 else 8

    if method == "brute":
        t = ds.select_columns([id_col, vec_col]).to_arrow_refs()
        corpus = pa.concat_tables([ray.get(r) for r in t])
        ref = ray.put((corpus[id_col].to_pylist(), _matrix(corpus[vec_col], dtype=np.float64)))
        return ds.map_batches(
            _NearDupScorer,
            fn_constructor_kwargs=dict(corpus_ref=ref, threshold=threshold, id_col=id_col, vec_col=vec_col),
            batch_format="pyarrow",
            concurrency=concurrency,
        )

    hasher_holder: dict = {}

    def bucketize(batch: pa.Table) -> pa.Table:
        lists = batch[vec_col].to_pylist()
        m = np.asarray(lists, dtype=np.float32)
        if "h" not in hasher_holder:
            hasher_holder["h"] = HyperplaneHasher(m.shape[1], n_bits, n_tables)
        ids = batch[id_col].to_pylist()
        bks = hasher_holder["h"].buckets(m)
        ob, oi, ov = [], [], []
        for i in range(len(ids)):
            for b in bks[i]:
                ob.append(int(b))
                oi.append(ids[i])
                ov.append(lists[i])
        return pa.table(
            {
                "bucket": pa.array(ob, pa.int64()),
                id_col: pa.array(oi, pa.int64()),
                vec_col: pa.array(ov, pa.list_(pa.float64())),
            }
        )

    def score_bucket(group: pa.Table) -> pa.Table:
        ids = np.asarray(group[id_col].to_pylist(), dtype=np.int64)
        m = _normalize(_matrix(group[vec_col], dtype=np.float64))
        sims = m @ m.T
        keep = (sims >= threshold) & (ids[:, None] < ids[None, :])
        bi, oj = np.nonzero(keep)
        return pa.table(
            {
                "id_a": pa.array(ids[bi], pa.int64()),
                "id_b": pa.array(ids[oj], pa.int64()),
                "cosine": pa.array(sims[bi, oj], pa.float64()),
            }
        )

    from ray.data.aggregate import Max

    pairs = (
        ds.map_batches(bucketize, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(score_bucket, batch_format="pyarrow")
    )
    # a pair can surface from several tables → dedup
    return pairs.groupby(["id_a", "id_b"]).aggregate(Max("cosine", alias_name="cosine"))


class HyperplaneHasher:
    """Sign-random-projection hasher with md5-derived ±1 plane entries:
    ``plane[t][b][d] = +1 iff md5_lower64(f"lsh-{t}:{b}:{d}")`` is even
    (== DuckDB ``md5_number_lower(...) % 2 = 0``), projections in
    float64 — the whole bucketing is reproducible in SQL, which gives
    ``knn_lsh`` an exact DuckDB oracle (queries.KNN_LSH_SQL). Rademacher
    (±1) projections have the same sign-LSH collision behavior as
    Gaussian ones at these dimensions; the recall floors are re-pinned
    in tests/test_queries.py."""

    def __init__(self, dim: int, n_bits: int = 12, n_tables: int = 4):
        from silk_ray.kernel.index import md5_lower64

        self.planes = [
            np.array(
                [
                    [
                        1.0 if md5_lower64(f"lsh-{t}:{b}:{d}") % 2 == 0 else -1.0
                        for d in range(dim)
                    ]
                    for b in range(n_bits)
                ],
                dtype=np.float64,
            )
            for t in range(n_tables)
        ]
        self.n_tables = n_tables

    def buckets(self, m: np.ndarray) -> np.ndarray:
        """(N, n_tables) int64 bucket ids."""
        m = np.asarray(m, dtype=np.float64)
        out = np.empty((m.shape[0], self.n_tables), dtype=np.int64)
        for t, p in enumerate(self.planes):
            bits = (m @ p.T) > 0  # (N, n_bits)
            vals = np.zeros(m.shape[0], dtype=np.int64)
            for b in range(bits.shape[1]):
                vals = (vals << 1) | bits[:, b]
            out[:, t] = (t << 48) | vals
        return out


def knn_lsh(
    ds,
    query_ids: list[int],
    query_vectors,
    k: int = 5,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    n_bits: int = 10,
    n_tables: int = 6,
    exclude_self: bool = True,
):
    """Approximate cosine top-k via random-hyperplane LSH: corpus vectors
    are bucketed (groupby shuffle); each bucket scores only the queries
    hashed into it."""
    import ray

    qm = np.asarray(query_vectors, dtype=np.float32)
    hasher = HyperplaneHasher(qm.shape[1], n_bits, n_tables)
    q_buckets: dict[int, list[tuple[int, np.ndarray]]] = {}
    qn = _normalize(np.asarray(query_vectors, dtype=np.float64))
    for qi, (q_id, row) in enumerate(zip(query_ids, hasher.buckets(qm))):
        for b in row:
            q_buckets.setdefault(int(b), []).append((q_id, qn[qi]))
    qref = ray.put(q_buckets)

    def bucketize(batch: pa.Table) -> pa.Table:
        lists = batch[vec_col].to_pylist()
        m = np.asarray(lists, dtype=np.float32)
        ids = batch[id_col].to_pylist()
        bks = hasher.buckets(m)
        ob, oi, ov = [], [], []
        for i in range(len(ids)):
            for b in bks[i]:
                ob.append(int(b))
                oi.append(ids[i])
                ov.append(lists[i])  # original values, scored in float64
        return pa.table(
            {
                "bucket": pa.array(ob, pa.int64()),
                id_col: pa.array(oi, pa.int64()),
                vec_col: pa.array(ov, pa.list_(pa.float64())),
            }
        )

    def score_bucket(group: pa.Table) -> pa.Table:
        bucket = int(group["bucket"][0].as_py())
        queries = ray.get(qref).get(bucket, [])
        empty = pa.table(
            {"query_id": pa.array([], pa.int64()), "neighbor_id": pa.array([], pa.int64()),
             "cosine": pa.array([], pa.float64())}
        )
        if not queries:
            return empty
        ids = np.asarray(group[id_col].to_pylist())
        m = _normalize(_matrix(group[vec_col], dtype=np.float64))
        out_q, out_n, out_s = [], [], []
        for q_id, qv in queries:
            sims = m @ qv
            for j in np.argsort(-sims)[: k + 1]:
                out_q.append(q_id)
                out_n.append(int(ids[j]))
                out_s.append(float(sims[j]))
        return pa.table(
            {"query_id": pa.array(out_q, pa.int64()), "neighbor_id": pa.array(out_n, pa.int64()),
             "cosine": pa.array(out_s, pa.float64())}
        )

    bucketed = ds.map_batches(bucketize, batch_format="pyarrow")
    partial = bucketed.groupby("bucket").map_groups(score_bucket, batch_format="pyarrow")
    # a neighbor can surface from several tables → dedup before top-k
    from ray.data.aggregate import Max

    deduped = partial.groupby(["query_id", "neighbor_id"]).aggregate(Max("cosine", alias_name="cosine"))
    return grouped_apply(deduped, "query_id", _final_topk(k, exclude_self), coalesce=1)


# ---------------------------------------------------------------------------
# IVF (inverted-file) ANN — the second scale path next to LSH
# ---------------------------------------------------------------------------


def train_ivf_centroids(
    ds,
    n_cells: int = 16,
    vec_col: str = "embedding",
    sample_mod: int = 4,
    max_sample: int = 4096,
    n_iter: int = 10,
    seed: int = 33,
) -> np.ndarray:
    """Spherical k-means centroids from a deterministic hash-sample of
    the corpus (every ``sample_mod``-th row by position hash, capped at
    ``max_sample`` — O(n_cells·dim) driver state, not O(corpus)).
    Lloyd iterations in numpy over normalized vectors."""

    def sample(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        keep = np.arange(n) % sample_mod == 0
        return batch.filter(pa.array(keep)).select([vec_col])

    rows = ds.map_batches(sample, batch_format="pyarrow").limit(max_sample).to_pandas()
    m = _normalize(np.asarray(list(rows[vec_col]), dtype=np.float64))
    rng = np.random.default_rng(seed)
    n_cells = min(n_cells, len(m))
    centroids = m[rng.choice(len(m), size=n_cells, replace=False)]
    for _ in range(n_iter):
        assign = np.argmax(m @ centroids.T, axis=1)
        for c in range(n_cells):
            members = m[assign == c]
            if len(members):
                centroids[c] = members.mean(axis=0)
        centroids = _normalize(centroids)
    return centroids


def knn_ivf(
    ds,
    query_ids: list[int],
    query_vectors,
    k: int = 5,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    n_cells: int = 16,
    n_probe: int = 4,
    centroids: np.ndarray | None = None,
    exclude_self: bool = True,
):
    """Approximate cosine top-k via an inverted file: each corpus vector
    is assigned to its ONE nearest centroid cell (no replication — the
    shuffle moves each vector once, vs ``n_tables``× for LSH); each
    query probes its ``n_probe`` nearest cells. Cells no query probes
    are dropped BEFORE the shuffle, so the exchanged volume is bounded
    by the probed fraction of the corpus."""
    import ray

    if centroids is None:
        centroids = train_ivf_centroids(ds, n_cells=n_cells, vec_col=vec_col)
    qn = _normalize(np.asarray(query_vectors, dtype=np.float64))
    q_cells: dict[int, list[tuple[int, np.ndarray]]] = {}
    for q_id, qv in zip(query_ids, qn):
        for c in np.argsort(-(centroids @ qv))[:n_probe]:
            q_cells.setdefault(int(c), []).append((q_id, qv))
    probed = frozenset(q_cells)
    cref = ray.put((centroids, q_cells))

    def assign(batch: pa.Table) -> pa.Table:
        cents, _ = ray.get(cref)
        lists = batch[vec_col].to_pylist()
        m = _normalize(np.asarray(lists, dtype=np.float64))
        cells = np.argmax(m @ cents.T, axis=1)
        keep = np.array([int(c) in probed for c in cells])
        ids = np.asarray(batch[id_col].to_pylist())[keep]
        return pa.table(
            {
                "cell": pa.array(cells[keep].astype(np.int64)),
                id_col: pa.array(ids, pa.int64()),
                vec_col: pa.array([lists[i] for i in np.flatnonzero(keep)], pa.list_(pa.float64())),
            }
        )

    def score_cell(group: pa.Table) -> pa.Table:
        _, qmap = ray.get(cref)
        queries = qmap.get(int(group["cell"][0].as_py()), [])
        if not queries:
            return pa.table(
                {"query_id": pa.array([], pa.int64()), "neighbor_id": pa.array([], pa.int64()),
                 "cosine": pa.array([], pa.float64())}
            )
        ids = np.asarray(group[id_col].to_pylist())
        m = _normalize(_matrix(group[vec_col], dtype=np.float64))
        out_q, out_n, out_s = [], [], []
        for q_id, qv in queries:
            sims = m @ qv
            for j in np.argsort(-sims)[: k + 1]:
                out_q.append(q_id)
                out_n.append(int(ids[j]))
                out_s.append(float(sims[j]))
        return pa.table(
            {"query_id": pa.array(out_q, pa.int64()), "neighbor_id": pa.array(out_n, pa.int64()),
             "cosine": pa.array(out_s, pa.float64())}
        )

    cells = ds.map_batches(assign, batch_format="pyarrow")
    partial = cells.groupby("cell").map_groups(score_cell, batch_format="pyarrow")
    # cells are disjoint (one per vector) — no cross-cell dedup needed
    # candidate stream is ≤ queries×k rows per input block: one block
    return grouped_apply(partial, "query_id", _final_topk(k, exclude_self), coalesce=1)
