"""Query conformance vs DuckDB oracles at sf0.001 (mirrors the driver's
CORRECTNESS check: row count + schema + order-insensitive values)."""

import numpy as np
import pandas as pd
import pytest

from silk_ray.pipelines.queries import build_oracle_sql, build_queries

SF_DIR = "/root/testdata/sf0.001"
TABLES = [
    "region", "nation", "customer", "supplier", "part", "orders",
    "lineitem", "events", "documents", "embeddings",
]

QUERIES = build_queries()
ORACLES = build_oracle_sql()


def duckdb_result(sql: str) -> pd.DataFrame:
    import duckdb

    con = duckdb.connect()
    for t in TABLES:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF_DIR}/{t}.parquet')")
    return con.sql(sql).df()


def normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if pd.api.types.is_float_dtype(df[c]):
            df[c] = df[c].astype(float).round(6)
        elif pd.api.types.is_integer_dtype(df[c]):
            df[c] = df[c].astype("int64")
        else:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)


def _tier_sql_builders() -> dict:
    """Queries whose registry SQL pins the driver's sf0.01 tier (a
    changelog path or data-derived epoch size baked into the string);
    the test rebuilds them for its own tier via the *_sql_for builder."""
    from silk_ray.pipelines import queries as q

    return {
        "cdc_flagship": q.cdc_flagship_sql_for,
        "cdc_txn": q.cdc_txn_sql_for,
        "cdc_multitable": q.cdc_multitable_sql_for,
        "cdc_agg": q.cdc_agg_sql_for,
        "cdc_clusters": q.cdc_clusters_sql_for,
        "cdc_deadletter": q.cdc_deadletter_sql_for,
        "cdc_txn_dlq_demux": q.cdc_txn_dlq_demux_sql_for,
        "cdc_enriched": q.cdc_enriched_sql_for,
        "cdc_egress": q.cdc_egress_sql_for,
        "cdc_repartitioned": q.cdc_flagship_sql_for,
        "cdc_lookup": q.cdc_lookup_sql_for,
        "cdc_erased": q.cdc_erased_sql_for,
        "cdc_rewritten": q.cdc_rewritten_sql_for,
        "cdc_scan": q.cdc_scan_sql_for,
        "cdc_strict": q.cdc_strict_sql_for,
        "events_windowed": q.events_windowed_sql_for,
        "events_windowed_late": q.events_windowed_late_sql_for,
        "source_json_stream": q.source_json_stream_sql_for,
    }


def test_combiners_count_rows_not_non_null_values():
    """The partial aggregates count rows, as ``count(*)`` does: a null in
    the counted column still counts (label_stats' mean still skips it
    through its separate non-null count)."""
    import datetime

    import pyarrow as pa

    from silk_ray.pipelines.queries import (
        _label_stats_partial,
        _mktsegment_partial,
        _q1_partial,
    )

    day = datetime.datetime(1995, 1, 1)
    q1 = _q1_partial(
        pa.table(
            {
                "l_returnflag": ["A", "A", "R"],
                "l_linestatus": ["F", "F", "F"],
                "l_quantity": [1.0, None, 3.0],
                "l_extendedprice": [10.0, 20.0, 30.0],
                "l_discount": [0.1, 0.1, 0.0],
                "l_shipdate": pa.array([day] * 3, pa.timestamp("us")),
            }
        )
    )
    assert dict(zip(q1["l_returnflag"].to_pylist(), q1["p_n"].to_pylist())) == {"A": 2, "R": 1}

    seg = _mktsegment_partial(pa.table({"c_mktsegment": ["A", None, None, "B"]}))
    assert dict(zip(seg["c_mktsegment"].to_pylist(), seg["p_n"].to_pylist())) == {
        "A": 1, None: 2, "B": 1,
    }

    emb = pa.table(
        {
            "label": pa.array([1, 1, 2], pa.int32()),
            "embedding": pa.array([[1.0, 0.0], None, [3.0]], pa.list_(pa.float32())),
        }
    )
    ls = _label_stats_partial(emb).sort_by("label").to_pylist()
    assert ls == [
        {"label": 1, "p_n": 2, "p_nn": 1, "p_sum": 1.0},
        {"label": 2, "p_n": 1, "p_nn": 1, "p_sum": 3.0},
    ]


def test_tdd_changelog_reads_its_cache_back(tmp_path):
    """The txn × DLQ × demux engine run reads the persisted changelog
    (the rows its DuckDB oracle reads), not a fresh in-memory copy."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    from silk_ray.pipelines.queries import (
        _cdc_tdd_changelog_path,
        _ensure_cdc_tdd_changelog,
    )

    sf_dir = str(tmp_path / "sf")
    os.makedirs(sf_dir)
    pq.write_table(pa.table({"doc_id": list(range(7))}), os.path.join(sf_dir, "documents.parquet"))
    cached = pa.table({"offset": pa.array([3, 1], pa.int64()), "op": ["I", "X"]})
    path = _cdc_tdd_changelog_path(sf_dir)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    pq.write_table(cached, path)
    try:
        log, n_base = _ensure_cdc_tdd_changelog(sf_dir)
    finally:
        os.unlink(path)
    assert log.equals(cached)
    assert n_base == 7


def test_late_oracle_queries_sit_above_the_cdc_block():
    """``source_xml_stream`` and ``sample_stratified`` come before the
    cdc block, inside the first 50 entries that conformance runs check."""
    names = list(QUERIES)
    first_cdc = min(i for i, n in enumerate(names) if n.startswith("cdc_"))
    for name in ("source_xml_stream", "sample_stratified"):
        assert name in ORACLES
        assert names.index(name) < min(first_cdc, 50)
    assert names[first_cdc - 2 : first_cdc] == ["source_xml_stream", "sample_stratified"]


def test_every_sql_for_builder_has_a_tier_rebuild():
    """Guard: any oracle built from a *_sql_for(sf_dir) builder is
    tier-pinned at registry time and MUST be in _tier_sql_builders, or
    this suite silently compares the test tier's Ray result against the
    driver tier's SQL (how the cdc_egress gap slipped through)."""
    from silk_ray.pipelines import queries as q

    builders = {
        n for n, fn in vars(q).items() if n.endswith("_sql_for") and callable(fn)
    }
    covered = {fn.__name__ for fn in _tier_sql_builders().values()}
    assert builders == covered, (
        f"_sql_for builders without a per-tier test rebuild (or stale "
        f"entries): {sorted(builders ^ covered)}"
    )


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_query_matches_oracle(ray_session, name):
    ray_df = QUERIES[name](SF_DIR)
    if not isinstance(ray_df, pd.DataFrame):
        ray_df = ray_df.to_pandas()
    tier_sql = _tier_sql_builders()
    if name in tier_sql:
        oracle_df = duckdb_result(tier_sql[name](SF_DIR))
    else:
        oracle_df = duckdb_result(ORACLES[name])
    assert set(ray_df.columns) == set(oracle_df.columns), (
        f"{name}: columns {list(ray_df.columns)} vs {list(oracle_df.columns)}"
    )
    a, b = normalize(ray_df), normalize(oracle_df)
    assert len(a) == len(b), f"{name}: {len(a)} vs {len(b)} rows"
    for c in a.columns:
        if pd.api.types.is_float_dtype(a[c]):
            assert np.allclose(a[c], b[c], atol=1e-6, equal_nan=True), f"{name}.{c}"
        else:
            assert a[c].tolist() == b[c].tolist(), f"{name}.{c}"


@pytest.mark.parametrize(
    "name", sorted(set(QUERIES) - set(ORACLES))
)
def test_rows_only_queries_run(ray_session, name):
    out = QUERIES[name](SF_DIR)
    if not isinstance(out, pd.DataFrame):
        out = out.to_pandas()
    assert len(out) >= 0
    assert len(out.columns) > 0


def test_minhash_finds_near_dups_and_verifies(ray_session):
    """Sanity: the minhash pairs are real near-dups (verified Jaccard)."""
    out = QUERIES["dedup_minhash"](SF_DIR)
    if len(out):
        assert (out["jaccard"] >= 0.5).all()


def test_embedding_near_dup_lsh_vs_brute(ray_session):
    """LSH-bucketed near-dup: exact subset of brute (same scoring), with
    usable recall; pairs it reports carry identical float64 cosines."""
    import ray.data as rd

    from silk_ray.functions.ann import embedding_near_dup_pairs

    ds = rd.read_parquet(f"{SF_DIR}/embeddings.parquet", columns=["vec_id", "embedding"])
    exact = QUERIES["dedup_embedding"](SF_DIR)
    approx = embedding_near_dup_pairs(ds, threshold=0.4, method="lsh", n_bits=4, n_tables=16).to_pandas()
    exact_pairs = set(zip(exact.id_a, exact.id_b))
    approx_pairs = set(zip(approx.id_a, approx.id_b))
    assert approx_pairs <= exact_pairs
    assert len(exact_pairs) > 0
    assert len(approx_pairs & exact_pairs) / len(exact_pairs) >= 0.5
    merged = approx.merge(exact, on=["id_a", "id_b"], suffixes=("_l", "_e"))
    assert np.allclose(merged.cosine_l, merged.cosine_e, atol=1e-6)


def test_knn_lsh_recall_vs_bruteforce(ray_session):
    """Deterministic-seed recall floor vs the oracle-backed exact query
    (measured 1.0 at the shipped parameters — a silent recall regression
    fails here)."""
    exact = QUERIES["knn_cosine"](SF_DIR)
    approx = QUERIES["knn_lsh"](SF_DIR)
    exact_pairs = set(zip(exact.query_id, exact.neighbor_id))
    approx_pairs = set(zip(approx.query_id, approx.neighbor_id))
    recall = len(exact_pairs & approx_pairs) / len(exact_pairs)
    assert recall >= 0.9


@pytest.mark.parametrize("gates", ["orders", "dims", "both"])
@pytest.mark.parametrize("name", ["q3_revenue_topk", "q5_local_supplier", "q10_returned_items"])
def test_shuffle_join_branch_matches_oracle(ray_session, name, gates, monkeypatch):
    """Force the hash-shuffle join branches (normally taken only above
    the broadcast gates) — orders side, customer/supplier dimension
    side, and both — and check each against the same oracle."""
    import silk_ray.pipelines.queries as q

    if gates in ("orders", "both"):
        monkeypatch.setattr(q, "_BROADCAST_ORDERS_MAX_ROWS", 0)
    if gates in ("dims", "both"):
        monkeypatch.setattr(q, "_BROADCAST_DIM_MAX_ROWS", 0)
    ray_df = QUERIES[name](SF_DIR)
    if not isinstance(ray_df, pd.DataFrame):
        ray_df = ray_df.to_pandas()
    oracle_df = duckdb_result(ORACLES[name])
    a, b = normalize(ray_df), normalize(oracle_df)
    assert len(a) == len(b), f"{name}: {len(a)} vs {len(b)} rows"
    for c in a.columns:
        if pd.api.types.is_float_dtype(a[c]):
            assert np.allclose(a[c], b[c], atol=1e-6, equal_nan=True), f"{name}.{c}"
        else:
            assert a[c].tolist() == b[c].tolist(), f"{name}.{c}"


def test_knn_ivf_recall_vs_bruteforce(ray_session):
    """Deterministic-seed recall floor vs the oracle-backed exact query
    (measured 1.0/0.98 at the shipped parameters across test tiers)."""
    exact = QUERIES["knn_cosine"](SF_DIR)
    approx = QUERIES["knn_ivf"](SF_DIR)
    exact_pairs = set(zip(exact.query_id, exact.neighbor_id))
    approx_pairs = set(zip(approx.query_id, approx.neighbor_id))
    recall = len(exact_pairs & approx_pairs) / len(exact_pairs)
    assert recall >= 0.9


def test_dedup_embedding_lsh_branch_recall(ray_session, monkeypatch):
    """Force the LSH scale branch (normally taken above the corpus-size
    gate) and check pair recall vs the exact brute output — the shipped
    pipeline must not silently lose near-dups when it switches method."""
    import silk_ray.pipelines.queries as q

    brute = QUERIES["dedup_embedding"](SF_DIR)
    monkeypatch.setattr(q, "_EMBED_BRUTE_MAX_ROWS", 0)
    lsh = QUERIES["dedup_embedding"](SF_DIR)
    bp = set(zip(brute.id_a, brute.id_b))
    lp = set(zip(lsh.id_a, lsh.id_b))
    assert not (lp - bp)  # candidates verify with exact cosine — no false pairs
    assert len(bp & lp) / len(bp) >= 0.9


def test_asof_join_semantics(ray_session):
    """Backward as-of join edges: strict drops ties and first-per-key
    rows; non-strict matches equal timestamps; keys never cross."""
    import ray.data as rd

    from silk_ray.pipelines.relational import asof_join

    left = rd.from_items(
        [
            {"k": 1, "t": 10, "v": 1.0},
            {"k": 1, "t": 20, "v": 2.0},
            {"k": 1, "t": 30, "v": 3.0},
            {"k": 2, "t": 10, "v": 9.0},  # only row of key 2 → dropped (strict)
        ]
    )
    out = (
        asof_join(left, left, by="k", on="t", value_cols={"t": "prev_t", "v": "prev_v"})
        .to_pandas()
        .sort_values(["k", "t"])
        .reset_index(drop=True)
    )
    assert out[["k", "t", "prev_t", "prev_v"]].values.tolist() == [
        [1, 20, 10, 1.0],
        [1, 30, 20, 2.0],
    ]

    # non-strict: equal timestamp matches itself
    out2 = (
        asof_join(left, left, by="k", on="t", value_cols={"t": "prev_t"}, strict=False)
        .to_pandas()
        .sort_values(["k", "t"])
        .reset_index(drop=True)
    )
    assert out2["prev_t"].tolist() == [10, 20, 30, 10]


def test_range_join_semantics(ray_session):
    """Banded join edges: half-open [on+lo, on+hi), keys never cross,
    zero-match rows drop (inner)."""
    import ray.data as rd

    from silk_ray.pipelines.relational import range_join

    left = rd.from_items(
        [
            {"k": 1, "t": 10},
            {"k": 1, "t": 20},
            {"k": 1, "t": 25},
            {"k": 2, "t": 20},
        ]
    )
    out = (
        range_join(left, left, by="k", on="t", lo=-10, hi=0, value_cols={"t": "match_t"})
        .to_pandas()
        .sort_values(["k", "t", "match_t"])
        .reset_index(drop=True)
    )
    # t=10: window [0,10) → none; t=20: [10,20) → 10; t=25: [15,25) → 20;
    # k=2 t=20: no earlier rows of k=2 (k=1's t=10..25 never cross keys)
    assert out[["k", "t", "match_t"]].values.tolist() == [[1, 20, 10], [1, 25, 20]]


def test_join_right_only_int64_stays_exact(ray_session):
    """Right-only integer value columns must survive the join exactly
    (the Arrow-native merge never converts typed-null padding through
    pandas float64, which silently corrupts int64 above 2^53)."""
    import ray.data as rd

    from silk_ray.pipelines.relational import asof_join

    big = (1 << 53) + 1
    left = rd.from_items([{"k": 1, "t": 20}])
    right = rd.from_items([{"k": 1, "t": 10, "rid": big}])
    out = asof_join(left, right, by="k", on="t", value_cols={"rid": "rid_out"}).to_pandas()
    assert out["rid_out"].dtype == np.int64
    assert out["rid_out"].tolist() == [big]


def test_join_null_keys_never_match(ray_session):
    """SQL semantics: a null by-key or null on-value matches nothing."""
    import ray.data as rd

    from silk_ray.pipelines.relational import asof_join

    left = rd.from_items(
        [
            {"k": None, "t": 20, "v": 1.0},
            {"k": 1, "t": None, "v": 2.0},
            {"k": 1, "t": 20, "v": 3.0},
            {"k": 1, "t": 10, "v": 4.0},
        ]
    )
    out = asof_join(left, left, by="k", on="t", value_cols={"v": "prev_v"}).to_pandas()
    assert out[["k", "t", "prev_v"]].values.tolist() == [[1, 20, 4.0]]


def test_grouped_apply_empty_partitions_keep_output_schema(ray_session):
    """Empty hash partitions must emit the TYPED empty output frame —
    not a column-less frame that degrades the stream schema (the last
    'RefBundle with a different schema' warning class, VERDICT r4 #4).
    num_partitions >> keys guarantees empty partitions exist."""
    import pandas as pd
    import ray.data as rd

    from silk_ray.pipelines.relational import grouped_apply

    ds = rd.from_items([{"k": "a", "v": 1}, {"k": "a", "v": 3}, {"k": "b", "v": 5}])

    def agg(g: pd.DataFrame) -> pd.DataFrame:
        head = g["k"].head(1).to_numpy()
        import numpy as np

        return pd.DataFrame({"k": head, "total": np.full(len(head), g["v"].sum(), dtype=np.int64)})

    out = grouped_apply(ds, "k", agg, num_partitions=64).to_pandas()
    out = out.sort_values("k").reset_index(drop=True)
    assert out["k"].tolist() == ["a", "b"]
    assert out["total"].tolist() == [4, 5]
    assert str(out["total"].dtype) == "int64"

    # a fn that is NOT empty-safe still works end-to-end (legacy path)
    def unsafe(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"k": [g["k"].iloc[0]], "n": [len(g)]})

    out2 = grouped_apply(ds, "k", unsafe, num_partitions=8).to_pandas()
    assert sorted(out2["k"]) == ["a", "b"]
