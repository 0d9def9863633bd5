"""Driver-facing query inventory over the testdata tables.

Each query exists twice: a Ray-Data pipeline (here) and an equivalent
DuckDB SQL oracle (``oracle_sql``), with identical column names and
rounding so the driver's order-insensitive value-hash matches
(CORRECTNESS gate). Non-SQL-expressible operators (MinHash-LSH,
SimHash, LSH-ANN, lang-id, linkage) ship without an oracle entry and
get the rows-only check.

Every read prunes columns at the source (``read_parquet(columns=...)``).
Aggregates are rounded to fixed decimals on BOTH sides to make the
float hash stable.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc


def _strip_schema_meta(t):
    """Drop file-level schema metadata (the ``pandas`` blob pyarrow
    embeds at write time). A pa.Schema carrying that metadata is
    UNHASHABLE (its metadata dict defeats ``hash(schema)``), which
    breaks Ray Data's schema-dedup cache in every sort/groupby reduce
    — each reduce task then logs "Failed to hash the schemas" and
    falls back to full schema unification. Zero-copy: only the schema
    object is replaced, buffers are shared."""
    return t.replace_schema_metadata(None) if t.schema.metadata else t


def clean_read_schema(path: str, columns=None):
    """Metadata-free Arrow schema for ``read_parquet(schema=)``,
    restricted to ``columns`` when a projection is given (the reader
    validates projected batches against the passed schema).

    Stripping has to happen AT the read, not in a downstream
    map_batches: the read operator itself unifies block schemas
    (SplitBlocks) before any user stage runs, so an unhashable
    pandas-metadata schema already defeats the dedup cache inside the
    read tasks. One driver-side footer read per plan; None when the
    footer carries no metadata (let the reader infer as usual)."""
    import pyarrow.parquet as pq

    try:
        sch = pq.read_schema(path)
    except Exception:
        return None
    if not sch.metadata and not any(f.metadata for f in sch):
        return None
    import pyarrow as _pa

    if columns:
        if any(c not in sch.names for c in columns):
            # projected column absent from this footer (schema-evolved
            # file): let the reader handle it instead of raising during
            # plan construction
            return None
        fields = [sch.field(c) for c in columns]
    else:
        fields = list(sch)
    return _pa.schema([f.remove_metadata() for f in fields])


def _rp(sf_dir: str, table: str, columns=None):
    import ray.data as rd

    path = os.path.join(sf_dir, f"{table}.parquet")
    return rd.read_parquet(
        path, columns=columns, schema=clean_read_schema(path, columns)
    )


# broadcast-vs-shuffle planning rule shared by q3/q5/q10: the orders
# side broadcasts (filtered keys via ray.put, join runs map-side over
# the streaming lineitem) only while the *unfiltered* table is small
# enough that the filtered key map is safely driver/worker-heap sized;
# the probe reads parquet metadata only — no execution
_BROADCAST_ORDERS_MAX_ROWS = 2_000_000


def _orders_fit_broadcast(sf_dir: str) -> bool:
    import pyarrow.parquet as pq

    n = pq.ParquetFile(os.path.join(sf_dir, "orders.parquet")).metadata.num_rows
    return n <= _BROADCAST_ORDERS_MAX_ROWS


# customer/supplier scale with SF too (TPC-H: 150k/10k rows per SF) — at
# 100 TB they are billion-row tables, so their driver-side broadcast is
# gated by the same metadata probe, with a hash-shuffle join fallback
_BROADCAST_DIM_MAX_ROWS = 4_000_000


def _dim_fits_broadcast(sf_dir: str, table: str) -> bool:
    import pyarrow.parquet as pq

    n = pq.ParquetFile(os.path.join(sf_dir, f"{table}.parquet")).metadata.num_rows
    return n <= _BROADCAST_DIM_MAX_ROWS


# ---------------------------------------------------------------------------
# relational / TPC-H-ish
# ---------------------------------------------------------------------------


def _q1_partial(batch: pa.Table) -> pa.Table:
    """Q1's combiner: partial-aggregate INSIDE the batch, so the groupby
    shuffle carries one row per group per batch, not the table — and
    the pre-aggregated stream coalesces to one block so the final
    groupby's range sort has no empty partitions. ``p_n`` counts rows
    (``count(*)``), nulls included."""
    batch = batch.filter(pc.less_equal(batch["l_shipdate"], pa.scalar(pd.Timestamp("1998-09-02"))))
    disc_price = pc.multiply(batch["l_extendedprice"], pc.subtract(pa.scalar(1.0), batch["l_discount"]))
    t = pa.table(
        {
            "l_returnflag": batch["l_returnflag"],
            "l_linestatus": batch["l_linestatus"],
            "l_quantity": batch["l_quantity"],
            "l_extendedprice": batch["l_extendedprice"],
            "disc_price": disc_price,
        }
    )
    part = t.group_by(["l_returnflag", "l_linestatus"]).aggregate(
        [("l_quantity", "sum"), ("l_extendedprice", "sum"), ("disc_price", "sum"), ([], "count_all")]
    )
    return part.rename_columns(
        ["l_returnflag", "l_linestatus", "p_qty", "p_base", "p_disc", "p_n"]
    )


def q1_pricing_summary(sf_dir: str):
    """Filter → partial-aggregate combiner → groupby-aggregate → sort
    (TPC-H Q1 shape)."""
    from ray.data.aggregate import Sum

    ds = _rp(
        sf_dir,
        "lineitem",
        ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount", "l_shipdate"],
    )

    out = (
        ds.map_batches(_q1_partial, batch_format="pyarrow")
        .repartition(1)
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(
            Sum("p_qty", alias_name="sum_qty"),
            Sum("p_base", alias_name="sum_base_price"),
            Sum("p_disc", alias_name="sum_disc_price"),
            Sum("p_n", alias_name="count_order"),
        )
        .to_pandas()
    )
    for c in ("sum_qty", "sum_base_price", "sum_disc_price"):
        out[c] = out[c].round(2)
    return out.sort_values(["l_returnflag", "l_linestatus"]).reset_index(drop=True)


Q1_SQL = """
SELECT l_returnflag, l_linestatus,
       round(sum(l_quantity), 2) AS sum_qty,
       round(sum(l_extendedprice), 2) AS sum_base_price,
       round(sum(l_extendedprice * (1 - l_discount)), 2) AS sum_disc_price,
       count(*) AS count_order
FROM lineitem
WHERE l_shipdate <= TIMESTAMP '1998-09-02'
GROUP BY l_returnflag, l_linestatus
ORDER BY l_returnflag, l_linestatus
"""


def q3_revenue_topk(sf_dir: str):
    """3-way join: broadcast semi-filter for the dimension (customer),
    hash-partitioned shuffle join for orders⋈lineitem (both fact-sized),
    then partial top-k per block — nothing fact-derived touches the
    driver until the final ≤10·num_blocks rows."""
    from ray.data.aggregate import Max, Sum

    from silk_ray.pipelines.relational import broadcast_semi_filter, shuffle_semi_filter

    cust = _rp(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    building = cust.map_batches(
        lambda b: b.filter(pc.equal(b["c_mktsegment"], "BUILDING")).select(["c_custkey"]),
        batch_format="pyarrow",
    )

    orders = _rp(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"])
    orders = orders.map_batches(
        lambda b: b.filter(pc.less(b["o_orderdate"], pa.scalar(pd.Timestamp("1995-03-15")))),
        batch_format="pyarrow",
    )
    # customer scales with SF: driver-side key set only below the
    # metadata-probed gate, hash-shuffle semi-join above it
    if _dim_fits_broadcast(sf_dir, "customer"):
        cust_keys = set(building.to_pandas()["c_custkey"])
        orders = broadcast_semi_filter(orders, "o_custkey", cust_keys)
    else:
        orders = shuffle_semi_filter(orders, "o_custkey", building, "c_custkey")

    li = _rp(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"])

    # adaptive join: below the broadcast threshold (parquet metadata row
    # count, no extra execution) the filtered orders keys ship once via
    # ray.put and lineitem is semi-filtered — no orders-side shuffle; a
    # bigger orders table takes the hash-shuffle join (at sf100 the
    # date-filtered key set is ~75M rows — too big for a driver set)
    if _orders_fit_broadcast(sf_dir):
        order_keys = set(orders.to_pandas()["o_orderkey"])
        li = broadcast_semi_filter(li, "l_orderkey", order_keys)

        def li_rev(b: pa.Table) -> pa.Table:
            b = b.filter(pc.greater(b["l_shipdate"], pa.scalar(pd.Timestamp("1995-03-15"))))
            rev = pc.multiply(b["l_extendedprice"], pc.subtract(pa.scalar(1.0), b["l_discount"]))
            g = (
                pa.table({"l_orderkey": b["l_orderkey"], "revenue": rev})
                .group_by("l_orderkey")
                .aggregate([("revenue", "sum")])
            )
            return pa.table(
                {"l_orderkey": g["l_orderkey"], "revenue": pc.cast(g["revenue_sum"], pa.float64())}
            )

        agg = (
            li.map_batches(li_rev, batch_format="pyarrow")
            .groupby("l_orderkey")
            .aggregate(Sum("revenue", alias_name="revenue"))
        )

        def topk_small(df: pd.DataFrame) -> pd.DataFrame:
            df = df[["l_orderkey", "revenue"]].copy()
            df["revenue"] = df["revenue"].round(2)
            return df.sort_values(
                ["revenue", "l_orderkey"], ascending=[False, True], kind="mergesort"
            ).head(10)

        df = agg.map_batches(topk_small, batch_format="pandas").to_pandas()
        df = df.sort_values(
            ["revenue", "l_orderkey"], ascending=[False, True], kind="mergesort"
        ).head(10)
        return df.reset_index(drop=True)

    # shuffle join via key-tagged union + one groupby aggregate:
    # orders rows carry (revenue=0, is_order=1); lineitem rows are
    # pre-aggregated per batch to (key, partial revenue, is_li=1)
    def mark_order(b: pa.Table) -> pa.Table:
        n = b.num_rows
        return pa.table(
            {
                "l_orderkey": b["o_orderkey"],
                "revenue": pa.array(np.zeros(n), pa.float64()),
                "is_order": pa.array(np.ones(n, dtype=np.int32)),
                "is_li": pa.array(np.zeros(n, dtype=np.int32)),
            }
        )

    def li_partial(b: pa.Table) -> pa.Table:
        b = b.filter(pc.greater(b["l_shipdate"], pa.scalar(pd.Timestamp("1995-03-15"))))
        rev = pc.multiply(b["l_extendedprice"], pc.subtract(pa.scalar(1.0), b["l_discount"]))
        g = pa.table({"l_orderkey": b["l_orderkey"], "revenue": rev}).group_by("l_orderkey").aggregate(
            [("revenue", "sum")]
        )
        n = g.num_rows
        return pa.table(
            {
                "l_orderkey": g["l_orderkey"],
                "revenue": pc.cast(g["revenue_sum"], pa.float64()),
                "is_order": pa.array(np.zeros(n, dtype=np.int32)),
                "is_li": pa.array(np.ones(n, dtype=np.int32)),
            }
        )

    tagged = orders.map_batches(mark_order, batch_format="pyarrow").union(
        li.map_batches(li_partial, batch_format="pyarrow")
    )
    agg = tagged.groupby("l_orderkey").aggregate(
        Sum("revenue", alias_name="revenue"),
        Max("is_order", alias_name="is_order"),
        Max("is_li", alias_name="is_li"),
    )

    def partial_topk(df: pd.DataFrame) -> pd.DataFrame:
        df = df[(df["is_order"] == 1) & (df["is_li"] == 1)][["l_orderkey", "revenue"]].copy()
        df["revenue"] = df["revenue"].round(2)
        return df.sort_values(["revenue", "l_orderkey"], ascending=[False, True], kind="mergesort").head(10)

    df = agg.map_batches(partial_topk, batch_format="pandas").to_pandas()
    df = df.sort_values(["revenue", "l_orderkey"], ascending=[False, True], kind="mergesort").head(10)
    return df.reset_index(drop=True)


Q3_SQL = """
SELECT l_orderkey, round(sum(l_extendedprice * (1 - l_discount)), 2) AS revenue
FROM customer
JOIN orders ON c_custkey = o_custkey
JOIN lineitem ON l_orderkey = o_orderkey
WHERE c_mktsegment = 'BUILDING'
  AND o_orderdate < TIMESTAMP '1995-03-15'
  AND l_shipdate > TIMESTAMP '1995-03-15'
GROUP BY l_orderkey
ORDER BY revenue DESC, l_orderkey
LIMIT 10
"""


def revenue_per_nation(sf_dir: str):
    """Two broadcast dimension joins + pre-aggregated groupby."""
    from ray.data.aggregate import Sum

    from silk_ray.pipelines.relational import broadcast_lookup_sorted

    # dimension side: supplier joined to nation driver-side (true
    # dimensions: 10k x SF rows), then shipped ONCE as sorted numpy
    # arrays (ray.put) for a vectorized searchsorted lookup per batch -
    # no Python dict, no per-batch re-ship
    supplier = _rp(sf_dir, "supplier", ["s_suppkey", "s_nationkey"]).to_pandas()
    nation = _rp(sf_dir, "nation", ["n_nationkey", "n_name"]).to_pandas()
    nation_names = supplier.s_nationkey.map(dict(zip(nation.n_nationkey, nation.n_name)))

    li = _rp(sf_dir, "lineitem", ["l_suppkey", "l_extendedprice", "l_discount"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        # pre-aggregate inside the batch: one row per nation per batch
        df["revenue"] = df["l_extendedprice"] * (1 - df["l_discount"])
        out = df.groupby("n_name", as_index=False)["revenue"].sum()
        return out

    agg = (
        broadcast_lookup_sorted(li, "l_suppkey", supplier.s_suppkey.to_numpy(), nation_names.to_numpy(), "n_name")
        .map_batches(partial, batch_format="pandas")
        .repartition(1)
        .groupby("n_name")
        .aggregate(Sum("revenue", alias_name="revenue"))
        .to_pandas()
    )
    agg["revenue"] = agg["revenue"].round(2)
    return agg.sort_values("n_name").reset_index(drop=True)


REVENUE_PER_NATION_SQL = """
SELECT n_name, round(sum(l_extendedprice * (1 - l_discount)), 2) AS revenue
FROM lineitem
JOIN supplier ON s_suppkey = l_suppkey
JOIN nation ON n_nationkey = s_nationkey
GROUP BY n_name
ORDER BY n_name
"""


def top_orders(sf_dir: str):
    """Deterministic multi-key sort + limit."""
    ds = _rp(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
    df = (
        ds.sort(["o_totalprice", "o_orderkey"], descending=[True, False])
        .limit(10)
        .to_pandas()
    )
    return df[["o_orderkey", "o_totalprice"]]


TOP_ORDERS_SQL = """
SELECT o_orderkey, o_totalprice FROM orders
ORDER BY o_totalprice DESC, o_orderkey LIMIT 10
"""


def _broadcast_arrays(keys, values):
    """(sorted keys, aligned values) shipped once via ray.put for
    vectorized searchsorted lookups inside tasks."""
    import ray

    keys = np.asarray(keys)
    order = np.argsort(keys)
    return ray.put((keys[order], np.asarray(values)[order]))


def _lookup(ref, vals):
    import ray

    from silk_ray.pipelines.relational import lookup_sorted

    sorted_keys, sorted_vals = ray.get(ref)
    return lookup_sorted(sorted_keys, sorted_vals, vals)


def q5_local_supplier(sf_dir: str):
    """TPC-H Q5 shape: 6-table join where customer and supplier must be
    in the same ASIA nation. region⋈nation are true constants (5/25
    rows, not SF-scaled) and stay driver-side; customer and supplier
    SCALE with SF, so each attaches via a broadcast sorted-array lookup
    only below the metadata-probed gate and a hash-shuffle dimension
    join above it; orders⋈lineitem is a broadcast key map below the
    orders gate, else a hash-partitioned shuffle join. Both fact tables
    stream throughout — nothing SF-scaled materializes driver-side
    unconditionally."""
    from ray.data.aggregate import Sum

    from silk_ray.pipelines.relational import keyed_exchange, shuffle_lookup

    region = _rp(sf_dir, "region", ["r_regionkey", "r_name"]).to_pandas()
    nation = _rp(sf_dir, "nation", ["n_nationkey", "n_name", "n_regionkey"]).to_pandas()
    asia_key = int(region.loc[region.r_name == "ASIA", "r_regionkey"].iloc[0])
    asia_nations = nation[nation.n_regionkey == asia_key]
    nation_names = dict(zip(asia_nations.n_nationkey, asia_nations.n_name))
    asia_set = np.sort(asia_nations.n_nationkey.to_numpy())

    lo = pd.Timestamp("1996-01-01")
    hi = pd.Timestamp("1997-01-01")

    def date_filter(b: pa.Table) -> pa.Table:
        b = b.filter(
            pc.and_(
                pc.greater_equal(b["o_orderdate"], pa.scalar(lo)),
                pc.less(b["o_orderdate"], pa.scalar(hi)),
            )
        )
        return b.select(["o_orderkey", "o_custkey"])

    orders = _rp(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"]).map_batches(
        date_filter, batch_format="pyarrow"
    )

    # ---- orders ⋈ customer → (okey, cust_nation), ASIA customers only
    if _dim_fits_broadcast(sf_dir, "customer"):
        cust = _rp(sf_dir, "customer", ["c_custkey", "c_nationkey"]).to_pandas()
        cust = cust[cust.c_nationkey.isin(nation_names)]
        cust_ref = _broadcast_arrays(cust.c_custkey.to_numpy(), cust.c_nationkey.to_numpy())

        def attach_cust(b: pa.Table) -> pa.Table:
            hit, nk = _lookup(cust_ref, b["o_custkey"].to_numpy(zero_copy_only=False))
            b = b.filter(pa.array(hit))
            return pa.table(
                {"okey": b["o_orderkey"], "cust_nation": pa.array(nk[hit].astype(np.int64), pa.int64())}
            )

        orders_n = orders.map_batches(attach_cust, batch_format="pyarrow")
    else:
        cust_ds = _rp(sf_dir, "customer", ["c_custkey", "c_nationkey"]).map_batches(
            lambda b: b.filter(
                pa.array(np.isin(b["c_nationkey"].to_numpy(zero_copy_only=False), asia_set))
            ),
            batch_format="pyarrow",
        )
        orders_n = shuffle_lookup(
            orders, "o_custkey", cust_ds, "c_custkey", "c_nationkey", "cust_nation"
        ).map_batches(
            lambda b: pa.table(
                {"okey": b["o_orderkey"], "cust_nation": pc.cast(b["cust_nation"], pa.int64())}
            ),
            batch_format="pyarrow",
        )

    # ---- lineitem ⋈ supplier → (okey, s_nation, revenue)
    def li_rev(b: pa.Table) -> pa.Table:
        rev = pc.multiply(b["l_extendedprice"], pc.subtract(pa.scalar(1.0), b["l_discount"]))
        return pa.table({"okey": b["l_orderkey"], "l_suppkey": b["l_suppkey"], "revenue": rev})

    li = _rp(sf_dir, "lineitem", ["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"]).map_batches(
        li_rev, batch_format="pyarrow"
    )
    if _dim_fits_broadcast(sf_dir, "supplier"):
        supp = _rp(sf_dir, "supplier", ["s_suppkey", "s_nationkey"]).to_pandas()
        supp_ref = _broadcast_arrays(supp.s_suppkey.to_numpy(), supp.s_nationkey.to_numpy())

        def attach_supp(b: pa.Table) -> pa.Table:
            hit, sn = _lookup(supp_ref, b["l_suppkey"].to_numpy(zero_copy_only=False))
            b = b.filter(pa.array(hit))
            return pa.table(
                {
                    "okey": b["okey"],
                    "s_nation": pa.array(sn[hit].astype(np.int64), pa.int64()),
                    "revenue": b["revenue"],
                }
            )

        li_n = li.map_batches(attach_supp, batch_format="pyarrow")
    else:
        supp_ds = _rp(sf_dir, "supplier", ["s_suppkey", "s_nationkey"])
        li_n = shuffle_lookup(
            li, "l_suppkey", supp_ds, "s_suppkey", "s_nationkey", "s_nation"
        ).map_batches(
            lambda b: pa.table(
                {
                    "okey": b["okey"],
                    "s_nation": pc.cast(b["s_nation"], pa.int64()),
                    "revenue": b["revenue"],
                }
            ),
            batch_format="pyarrow",
        )

    # ---- final join on okey with cust_nation == s_nation
    if _orders_fit_broadcast(sf_dir):
        odf = orders_n.to_pandas()
        okey_ref = _broadcast_arrays(odf.okey.to_numpy(), odf.cust_nation.to_numpy())

        def li_join(b: pa.Table) -> pa.Table:
            hit, cust_nation = _lookup(okey_ref, b["okey"].to_numpy(zero_copy_only=False))
            keep = hit & (cust_nation == b["s_nation"].to_numpy(zero_copy_only=False))
            b = b.filter(pa.array(keep))
            g = (
                pa.table(
                    {
                        "n_nationkey": pa.array(cust_nation[keep].astype(np.int64), pa.int64()),
                        "revenue": b["revenue"],
                    }
                )
                .group_by("n_nationkey")
                .aggregate([("revenue", "sum")])
            )
            return pa.table(
                {"n_nationkey": g["n_nationkey"], "revenue": pc.cast(g["revenue_sum"], pa.float64())}
            )

        agg = (
            li_n.map_batches(li_join, batch_format="pyarrow")
            .repartition(1)
            .groupby("n_nationkey")
            .aggregate(Sum("revenue", alias_name="revenue"))
            .to_pandas()
        )
    else:
        def tag_o(b: pa.Table) -> pa.Table:
            n = b.num_rows
            return pa.table(
                {
                    "okey": b["okey"],
                    "cust_nation": b["cust_nation"],
                    "s_nation": pa.nulls(n, pa.int64()),
                    "revenue": pa.nulls(n, pa.float64()),
                }
            )

        def tag_l(b: pa.Table) -> pa.Table:
            n = b.num_rows
            return pa.table(
                {
                    "okey": b["okey"],
                    "cust_nation": pa.nulls(n, pa.int64()),
                    "s_nation": b["s_nation"],
                    "revenue": b["revenue"],
                }
            )

        sides = [
            orders_n.map_batches(tag_o, batch_format="pyarrow"),
            li_n.map_batches(tag_l, batch_format="pyarrow"),
        ]

        def join_block(df: pd.DataFrame) -> pd.DataFrame:
            o = df[df.cust_nation.notna()][["okey", "cust_nation"]]
            l = df[df.cust_nation.isna()][["okey", "s_nation", "revenue"]]
            m = l.merge(o, on="okey")
            m = m[m.s_nation.to_numpy() == m.cust_nation.to_numpy()]
            m["n_nationkey"] = m.cust_nation.astype("int64")
            return m.groupby("n_nationkey", as_index=False)["revenue"].sum()

        agg = (
            keyed_exchange(sides, "okey", join_block, batch_format="pandas")
            .repartition(1)
            .groupby("n_nationkey")
            .aggregate(Sum("revenue", alias_name="revenue"))
            .to_pandas()
        )
    agg["n_name"] = agg.n_nationkey.map(nation_names)
    agg["revenue"] = agg["revenue"].round(2)
    return (
        agg[["n_name", "revenue"]]
        .sort_values("revenue", ascending=False)
        .reset_index(drop=True)
    )


Q5_SQL = """
SELECT n_name, round(sum(l_extendedprice * (1 - l_discount)), 2) AS revenue
FROM customer
JOIN orders   ON c_custkey = o_custkey
JOIN lineitem ON l_orderkey = o_orderkey
JOIN supplier ON l_suppkey = s_suppkey AND c_nationkey = s_nationkey
JOIN nation   ON c_nationkey = n_nationkey
JOIN region   ON n_regionkey = r_regionkey
WHERE r_name = 'ASIA'
  AND o_orderdate >= DATE '1996-01-01' AND o_orderdate < DATE '1997-01-01'
GROUP BY n_name
ORDER BY revenue DESC
"""


def q10_returned_items(sf_dir: str):
    """TPC-H Q10 shape: revenue lost to returned items per customer,
    top 20. orders⋈lineitem is the hash-partitioned shuffle join;
    customer/nation details are attached only to the final 20 keys via
    a filtered parquet read."""
    from ray.data.aggregate import Sum

    from silk_ray.pipelines.relational import keyed_exchange

    lo = pd.Timestamp("1996-01-01")
    hi = pd.Timestamp("1996-04-01")

    orders = _rp(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"])

    def order_side(b: pa.Table) -> pa.Table:
        b = b.filter(
            pc.and_(
                pc.greater_equal(b["o_orderdate"], pa.scalar(lo)),
                pc.less(b["o_orderdate"], pa.scalar(hi)),
            )
        )
        n = b.num_rows
        return pa.table(
            {
                "okey": b["o_orderkey"],
                "custkey": b["o_custkey"],
                "revenue": pa.nulls(n, pa.float64()),
            }
        )

    li = _rp(sf_dir, "lineitem", ["l_orderkey", "l_returnflag", "l_extendedprice", "l_discount"])

    def li_side(b: pa.Table) -> pa.Table:
        b = b.filter(pc.equal(b["l_returnflag"], "R"))
        rev = pc.multiply(b["l_extendedprice"], pc.subtract(pa.scalar(1.0), b["l_discount"]))
        g = pa.table({"okey": b["l_orderkey"], "revenue": rev}).group_by("okey").aggregate(
            [("revenue", "sum")]
        )
        n = g.num_rows
        return pa.table(
            {
                "okey": g["okey"],
                "custkey": pa.nulls(n, pa.int64()),
                "revenue": pc.cast(g["revenue_sum"], pa.float64()),
            }
        )

    # adaptive join (same planning rule as q3/q5): below the broadcast
    # threshold the filtered (okey -> custkey) map ships once and the
    # join runs map-side over the streaming lineitem; above it,
    # hash-partitioned shuffle join
    if _orders_fit_broadcast(sf_dir):
        odf = (
            orders.map_batches(order_side, batch_format="pyarrow")
            .select_columns(["okey", "custkey"])
            .to_pandas()
        )
        okey_ref = _broadcast_arrays(odf.okey.to_numpy(), odf.custkey.to_numpy())

        def li_join(b: pa.Table) -> pa.Table:
            b = b.filter(pc.equal(b["l_returnflag"], "R"))
            hit, custkey = _lookup(okey_ref, b["l_orderkey"].to_numpy(zero_copy_only=False))
            b = b.filter(pa.array(hit))
            rev = pc.multiply(b["l_extendedprice"], pc.subtract(pa.scalar(1.0), b["l_discount"]))
            g = (
                pa.table({"c_custkey": pa.array(custkey[hit], pa.int64()), "revenue": rev})
                .group_by("c_custkey")
                .aggregate([("revenue", "sum")])
            )
            return pa.table(
                {"c_custkey": g["c_custkey"], "revenue": pc.cast(g["revenue_sum"], pa.float64())}
            )

        agg = li.map_batches(li_join, batch_format="pyarrow").groupby("c_custkey").aggregate(
            Sum("revenue", alias_name="revenue")
        )
    else:
        sides = [
            orders.map_batches(order_side, batch_format="pyarrow"),
            li.map_batches(li_side, batch_format="pyarrow"),
        ]

        def join_block(df: pd.DataFrame) -> pd.DataFrame:
            o = df[df.revenue.isna()][["okey", "custkey"]]
            l = df[df.revenue.notna()][["okey", "revenue"]]
            m = l.merge(o, on="okey")
            m["c_custkey"] = m.custkey.astype("int64")
            return m.groupby("c_custkey", as_index=False)["revenue"].sum()

        agg = keyed_exchange(sides, "okey", join_block, batch_format="pandas")
        agg = agg.groupby("c_custkey").aggregate(Sum("revenue", alias_name="revenue"))

    def partial_topk(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["revenue"] = df["revenue"].round(2)
        return df.sort_values(["revenue", "c_custkey"], ascending=[False, True], kind="mergesort").head(20)

    top = agg.map_batches(partial_topk, batch_format="pandas").to_pandas()
    top = top.sort_values(["revenue", "c_custkey"], ascending=[False, True], kind="mergesort").head(20)

    # attach customer + nation details for just the final 20 keys
    import pyarrow.parquet as pq
    import pyarrow.dataset as pads

    cust = pq.read_table(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_name", "c_acctbal", "c_nationkey"],
        filters=pads.field("c_custkey").isin(top.c_custkey.tolist()),
    ).to_pandas()
    nation = _rp(sf_dir, "nation", ["n_nationkey", "n_name"]).to_pandas()
    out = top.merge(cust, on="c_custkey").merge(
        nation, left_on="c_nationkey", right_on="n_nationkey"
    )
    return (
        out[["c_custkey", "c_name", "revenue", "c_acctbal", "n_name"]]
        .sort_values(["revenue", "c_custkey"], ascending=[False, True], kind="mergesort")
        .reset_index(drop=True)
    )


Q10_SQL = """
SELECT c_custkey, c_name,
       round(sum(l_extendedprice * (1 - l_discount)), 2) AS revenue,
       c_acctbal, n_name
FROM customer
JOIN orders   ON c_custkey = o_custkey
JOIN lineitem ON l_orderkey = o_orderkey
JOIN nation   ON c_nationkey = n_nationkey
WHERE o_orderdate >= DATE '1996-01-01' AND o_orderdate < DATE '1996-04-01'
  AND l_returnflag = 'R'
GROUP BY c_custkey, c_name, c_acctbal, n_name
ORDER BY revenue DESC, c_custkey
LIMIT 20
"""


def _mktsegment_partial(batch: pa.Table) -> pa.Table:
    """Combiner: one row count per segment per batch (a null segment is
    a group too, as in ``count(*)``); the coalesced stream gives the
    final groupby a single sort partition."""
    g = batch.group_by("c_mktsegment").aggregate([([], "count_all")])
    return g.rename_columns(["c_mktsegment", "p_n"])


def mktsegment_counts(sf_dir: str):
    from ray.data.aggregate import Sum

    out = (
        _rp(sf_dir, "customer", ["c_mktsegment"])
        .map_batches(_mktsegment_partial, batch_format="pyarrow")
        .repartition(1)
        .groupby("c_mktsegment")
        .aggregate(Sum("p_n", alias_name="n"))
        .to_pandas()
    )
    return out.sort_values("c_mktsegment").reset_index(drop=True)


MKTSEGMENT_SQL = """
SELECT c_mktsegment, count(*) AS n FROM customer
GROUP BY c_mktsegment ORDER BY c_mktsegment
"""


# ---------------------------------------------------------------------------
# events (stream-shaped)
# ---------------------------------------------------------------------------


def events_daily(sf_dir: str):
    """Tumbling daily window per event type."""
    from ray.data.aggregate import Count, Sum

    ds = _rp(sf_dir, "events", ["event_type", "ts", "value"])

    def prep(batch: pa.Table) -> pa.Table:
        day = pc.strftime(batch["ts"], format="%Y-%m-%d")
        return pa.table({"event_type": batch["event_type"], "day": day, "value": batch["value"]})

    out = (
        ds.map_batches(prep, batch_format="pyarrow")
        .groupby(["event_type", "day"])
        .aggregate(Count(alias_name="n"), Sum("value", alias_name="total_value"))
        .to_pandas()
    )
    out["total_value"] = out["total_value"].round(4)
    return out.sort_values(["event_type", "day"]).reset_index(drop=True)


EVENTS_DAILY_SQL = """
SELECT event_type, strftime(ts, '%Y-%m-%d') AS day, count(*) AS n,
       round(sum(value), 4) AS total_value
FROM events GROUP BY event_type, day ORDER BY event_type, day
"""


def events_latest_state(sf_dir: str):
    """CDC-style last-writer-wins state: latest event per user by event_id."""
    from silk_ray.pipelines.relational import grouped_apply

    ds = _rp(sf_dir, "events", ["user_id", "event_id", "event_type", "value"])

    def latest(g: pd.DataFrame) -> pd.DataFrame:
        return g.sort_values("event_id", kind="mergesort").tail(1)

    out = grouped_apply(ds, "user_id", latest).to_pandas()
    out = out[["user_id", "event_id", "event_type", "value"]]
    return out.sort_values("user_id").reset_index(drop=True)


EVENTS_LATEST_SQL = """
SELECT user_id, event_id, event_type, value FROM (
  SELECT *, row_number() OVER (PARTITION BY user_id ORDER BY event_id DESC) AS rn
  FROM events
) WHERE rn = 1 ORDER BY user_id
"""


def events_sessionize(sf_dir: str):
    """Gap-based session windows (30 min) per user."""
    ds = _rp(sf_dir, "events", ["user_id", "ts", "event_id"])

    def sessions(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["ts", "event_id"], kind="mergesort")
        brk = g["ts"].diff() > pd.Timedelta(minutes=30)
        head = g["user_id"].head(1).to_numpy()  # empty-safe (typed-empty probe)
        n = np.full(len(head), int(brk.sum()) + 1, dtype=np.int64)
        return pd.DataFrame(
            {"user_id": head, "n_sessions": n, "n_events": np.full(len(head), len(g), dtype=np.int64)}
        )

    from silk_ray.pipelines.relational import grouped_apply

    out = grouped_apply(ds, "user_id", sessions).to_pandas()
    return out.sort_values("user_id").reset_index(drop=True)


EVENTS_SESSIONIZE_SQL = """
SELECT user_id, CAST(1 + sum(brk) AS BIGINT) AS n_sessions, count(*) AS n_events FROM (
  SELECT user_id,
         CASE WHEN coalesce(ts - lag(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id)
                    > INTERVAL 30 MINUTE, false) THEN 1 ELSE 0 END AS brk
  FROM events
) GROUP BY user_id ORDER BY user_id
"""


# --------------------------------------------------------------------------
# event-time tumbling windows with watermarks + late side output
# (cdc/windows.py — streaming semantics the batch reference lacks)
# --------------------------------------------------------------------------

_WIN_WIDTH_S = 86_400  # 1-day tumbling windows over the 30-day event span
_WIN_LATENESS_S = 900  # 15-minute allowed lateness
_WIN_LATE_SHIFT_US = 432_000 * 1_000_000  # deterministic late subset: 5 days back


def _windowed_stream(sf_dir: str) -> tuple[pa.Table, int]:
    """events → arrival-ordered stream: event_id is the arrival offset;
    event time is ts shifted 5 days backwards for the deterministic subset
    ``md5_lower64('late:'||event_id) % 17 == 0`` (== DuckDB
    ``md5_number_lower``) so genuinely late data exists and the SQL
    oracle can reproduce it."""
    import pyarrow.parquet as pq

    from silk_ray.kernel.index import md5_lower64

    t = pq.read_table(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_id", "ts", "event_type", "value"],
    ).sort_by("event_id")
    ids = t["event_id"].to_pylist()
    shift = np.array(
        [_WIN_LATE_SHIFT_US if md5_lower64(f"late:{i}") % 17 == 0 else 0 for i in ids],
        np.int64,
    )
    ts_us = pc.cast(pc.cast(t["ts"], pa.timestamp("us")), pa.int64()).to_numpy() - shift
    stream = pa.table(
        {
            "offset": t["event_id"],
            "ts": pa.array(ts_us, pa.int64()).cast(pa.timestamp("us")),
            "event_type": t["event_type"],
            "value": t["value"],
        }
    )
    return stream, t.num_rows


def _windowed_spec():
    from silk_ray.cdc.windows import WindowSpec

    return WindowSpec(
        ts_col="ts", width_s=_WIN_WIDTH_S, allowed_lateness_s=_WIN_LATENESS_S,
        group_by=("event_type",), count_col="n", sums={"sum_value": "value"},
    )


def _run_windowed(sf_dir: str) -> str:
    import tempfile

    from silk_ray.cdc.windows import run_window_stream

    stream, n = _windowed_stream(sf_dir)
    root = tempfile.mkdtemp(prefix="silkray_windows_")
    run_window_stream(root, stream, _windowed_spec(), epoch_size=max(200, n // 8))
    return root


def events_windowed(sf_dir: str):
    """Finalized event-time windows (micro-batch watermarks, epoch =
    arrival-offset block): per (1-day window, event_type) the count and
    value sum of the on-time events; late arrivals are excluded here
    and surfaced by ``events_windowed_late``. Oracle: the watermark
    recurrence, each window's finalization epoch and the late set are
    reproduced in SQL over the same md5-derived stream."""
    from silk_ray.cdc.windows import windows_table

    root = _run_windowed(sf_dir)
    df = windows_table(root).to_pandas()
    df["sum_value"] = df["sum_value"].round(4)
    return df.sort_values(["window_start", "event_type"]).reset_index(drop=True)


def events_windowed_late(sf_dir: str):
    """The late side output of ``events_windowed``: events whose window
    had already finalized when they arrived (offset order)."""
    from silk_ray.cdc.windows import late_table

    root = _run_windowed(sf_dir)
    t = late_table(root)
    if t.num_rows == 0:
        return pd.DataFrame({"offset": [], "window_start": [], "event_type": []})
    return (
        t.select(["offset", "window_start", "event_type"])
        .to_pandas()
        .sort_values("offset")
        .reset_index(drop=True)
    )


def _windowed_sql_parts(sf_dir: str) -> str:
    import pyarrow.parquet as pq

    n = pq.ParquetFile(os.path.join(sf_dir, "events.parquet")).metadata.num_rows
    sz = max(200, n // 8)
    w = _WIN_WIDTH_S * 1_000_000
    lat = _WIN_LATENESS_S * 1_000_000
    return f"""
WITH ev AS (
  SELECT event_id AS off,
         CAST(FLOOR(event_id / {sz}) AS BIGINT) + 1 AS e,
         epoch_us(ts) - CASE WHEN md5_number_lower('late:' || event_id) % 17 = 0
                             THEN {_WIN_LATE_SHIFT_US} ELSE 0 END AS ts_us,
         event_type, value
  FROM events
),
ev2 AS (SELECT *, CAST(FLOOR(ts_us / {w}) * {w} AS BIGINT) AS win FROM ev),
em AS (SELECT e, max(ts_us) AS mx FROM ev2 GROUP BY e),
wm AS (SELECT e, max(mx) OVER (ORDER BY e) - {lat} AS wm FROM em),
tagged AS (
  SELECT ev2.*, COALESCE(ev2.win + {w} <= p.wm, FALSE) AS is_late
  FROM ev2 LEFT JOIN wm p ON p.e = ev2.e - 1
)"""


def events_windowed_sql_for(sf_dir: str) -> str:
    return _windowed_sql_parts(sf_dir) + """
SELECT make_timestamp(win) AS window_start, event_type,
       CAST(count(*) AS BIGINT) AS n, round(sum(value), 4) AS sum_value
FROM tagged WHERE NOT is_late
GROUP BY win, event_type
ORDER BY window_start, event_type
"""


def events_windowed_late_sql_for(sf_dir: str) -> str:
    return _windowed_sql_parts(sf_dir) + """
SELECT off AS "offset", make_timestamp(win) AS window_start, event_type
FROM tagged WHERE is_late
ORDER BY "offset"
"""


def events_asof_prev(sf_dir: str):
    """Backward as-of self-join: each event matched to the same user's
    most recent strictly-earlier event (inner — first event per user
    drops out). Hash-co-partitioned on user, per-key sort + binary
    search (relational.asof_join)."""
    from silk_ray.pipelines.relational import asof_join

    ev = _rp(sf_dir, "events", ["event_id", "user_id", "ts", "value"])
    joined = asof_join(
        ev,
        ev,
        by="user_id",
        on="ts",
        value_cols={"event_id": "prev_event_id", "value": "prev_value"},
    )
    out = joined.to_pandas()[["event_id", "user_id", "prev_event_id", "prev_value"]]
    out["prev_value"] = out["prev_value"].round(6)
    return out.sort_values("event_id").reset_index(drop=True)


EVENTS_ASOF_SQL = """
SELECT l.event_id AS event_id, l.user_id AS user_id,
       r.event_id AS prev_event_id, round(r.value, 6) AS prev_value
FROM events l ASOF JOIN events r
  ON l.user_id = r.user_id AND l.ts > r.ts
ORDER BY l.event_id
"""


def events_window_pairs(sf_dir: str):
    """Banded non-equi self-join: each event paired with every event of
    the same user in its preceding 30-minute window (range_join —
    hash-co-partitioned, per-key sort + two binary searches per row)."""
    from silk_ray.pipelines.relational import range_join

    ev = _rp(sf_dir, "events", ["event_id", "user_id", "ts"])
    joined = range_join(
        ev,
        ev,
        by="user_id",
        on="ts",
        lo=-pd.Timedelta(minutes=30),
        hi=pd.Timedelta(0),
        value_cols={"event_id": "match_id"},
    )
    out = joined.to_pandas()[["event_id", "user_id", "match_id"]]
    return out.sort_values(["event_id", "match_id"]).reset_index(drop=True)


EVENTS_WINDOW_PAIRS_SQL = """
SELECT l.event_id AS event_id, l.user_id AS user_id, r.event_id AS match_id
FROM events l JOIN events r
  ON l.user_id = r.user_id
 AND r.ts >= l.ts - INTERVAL 30 MINUTE AND r.ts < l.ts
ORDER BY event_id, match_id
"""


# ---------------------------------------------------------------------------
# documents (text analysis / dedup / transform)
# ---------------------------------------------------------------------------


def doc_token_stats(sf_dir: str):
    from silk_ray.functions.text import token_stats

    ds = _rp(sf_dir, "documents", ["doc_id", "text"])
    out = ds.map_batches(
        lambda b: token_stats(b, "text").select(["doc_id", "n_tokens", "n_chars_computed"]),
        batch_format="pyarrow",
    ).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


DOC_TOKEN_STATS_SQL = r"""
SELECT doc_id,
       CASE WHEN trim(text) = '' THEN 0 ELSE len(string_split_regex(trim(text), '\s+')) END AS n_tokens,
       length(text) AS n_chars_computed
FROM documents ORDER BY doc_id
"""


def doc_fingerprint(sf_dir: str):
    from silk_ray.functions.text import sha256_fingerprint

    ds = _rp(sf_dir, "documents", ["doc_id", "text"])
    out = ds.map_batches(
        lambda b: sha256_fingerprint(b, "text").select(["doc_id", "fingerprint"]),
        batch_format="pyarrow",
    ).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


DOC_FINGERPRINT_SQL = """
SELECT doc_id, sha256(text) AS fingerprint FROM documents ORDER BY doc_id
"""


def dedup_exact(sf_dir: str):
    """Exact dedup: smallest doc_id + duplicate count per distinct text."""
    from silk_ray.functions.dedup import add_content_hash

    ds = _rp(sf_dir, "documents", ["doc_id", "text"])
    hashed = ds.map_batches(lambda b: add_content_hash(b, "text").select(["doc_id", "content_hash"]), batch_format="pyarrow")

    def keep_first(g: pd.DataFrame) -> pd.DataFrame:
        head = g.sort_values("doc_id", kind="mergesort")["doc_id"].head(1).to_numpy()
        return pd.DataFrame(
            {"doc_id": head, "n_dups": np.full(len(head), len(g), dtype=np.int64)}
        )

    from silk_ray.pipelines.relational import grouped_apply

    out = grouped_apply(hashed, "content_hash", keep_first).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


DEDUP_EXACT_SQL = """
SELECT min(doc_id) AS doc_id, count(*) AS n_dups FROM documents
GROUP BY text ORDER BY doc_id
"""


def doc_quality(sf_dir: str):
    """Quality ratios with regex definitions shared with the SQL oracle.

    Vectorized: Arrow's RE2 count kernels ARE the oracle's regex
    engine (DuckDB regexp_* is RE2 too), and ``pc.round`` defaults to
    half-to-even like Python ``round`` — the per-doc Python loop this
    replaces is bit-identical on the division/round path (two exact
    ints divided, rounded to 6)."""

    def fn(batch: pa.Table) -> pa.Table:
        txt = batch["text"]
        f64 = pa.float64()
        n = pc.cast(pc.utf8_length(txt), f64)
        punct = pc.cast(pc.count_substring_regex(txt, r"[^\w\s]"), f64)
        upper = pc.cast(pc.count_substring_regex(txt, "[A-Z]"), f64)

        def ratio(num):
            return pc.fill_null(
                pc.if_else(
                    pc.greater(n, 0.0), pc.round(pc.divide(num, n), 6), pa.scalar(0.0)
                ),
                0.0,
            )

        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "punct_ratio": pc.cast(ratio(punct), f64),
                "upper_ratio": pc.cast(ratio(upper), f64),
            }
        )

    out = _rp(sf_dir, "documents", ["doc_id", "text"]).map_batches(fn, batch_format="pyarrow").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


DOC_QUALITY_SQL = r"""
SELECT doc_id,
       round(length(regexp_replace(text, '[\w\s]', '', 'g')) * 1.0 / length(text), 6) AS punct_ratio,
       round(length(regexp_replace(text, '[^A-Z]', '', 'g')) * 1.0 / length(text), 6) AS upper_ratio
FROM documents ORDER BY doc_id
"""


def transform_normalize(sf_dir: str):
    """Silk-style transform rules compiled to a vectorized map_batches."""
    from silk_ray.kernel.rule import CompiledTransform, transform_rule_from_dict

    rules = [
        transform_rule_from_dict(
            {"target": "text_norm", "input": {"transform": "lowerCase", "inputs": [{"transform": "trim", "inputs": [{"path": "text"}]}]}}
        ),
    ]
    ct = CompiledTransform(rules)

    def fn(batch: pa.Table) -> pa.Table:
        out = ct(batch)
        return pa.table({"doc_id": batch["doc_id"], "text_norm": out["text_norm"]})

    out = _rp(sf_dir, "documents", ["doc_id", "text"]).map_batches(fn, batch_format="pyarrow").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


TRANSFORM_NORMALIZE_SQL = """
SELECT doc_id, lower(trim(text)) AS text_norm FROM documents ORDER BY doc_id
"""


def transform_typed(sf_dir: str):
    """Typed transform targets (the ValueType system): every rule carries
    a MappingTarget value type, invalid values null out with the
    reference's validation message in the error column, and
    ``typed_output`` casts validated columns to real Arrow types
    (ValueType.scala validate semantics; MappingTarget.scala:32-44)."""
    from silk_ray.kernel.rule import CompiledTransform, transform_rule_from_dict

    rules = [
        transform_rule_from_dict(
            {"target": "event_id", "input": {"path": "event_id"},
             "value_type": "LongValueType"}
        ),
        transform_rule_from_dict(
            {"target": "k_int",
             "input": {"transform": "regexExtract", "params": {"regex": "[0-9]+"},
                       "inputs": [{"path": "props"}]},
             "value_type": "IntegerValueType"}
        ),
        # only event_type='error' maps to a valid boolean; everything else
        # becomes 'notabool' -> fails BooleanValueType validation -> null
        # value + error entry (deterministic, SQL-reproducible)
        transform_rule_from_dict(
            {"target": "is_error",
             "input": {"transform": "map",
                       "params": {"mapping": "error:true", "default": "notabool"},
                       "inputs": [{"path": "event_type"}]},
             "value_type": "BooleanValueType"}
        ),
        transform_rule_from_dict(
            {"target": "amount", "input": {"path": "value"},
             "value_type": "DoubleValueType"}
        ),
    ]
    ct = CompiledTransform(rules, typed_output=True)

    def fn(batch: pa.Table) -> pa.Table:
        out = ct(batch)
        cols = {n: out[n] for n in ("event_id", "k_int", "amount")}
        # the typed column is bool; compare as its lexical form (nullable
        # bool null-representations differ between arrow->pandas and
        # duckdb->pandas, which would break the driver's value hash)
        cols["is_error"] = pc.cast(out["is_error"], pa.string())
        cols["error"] = (
            out["error"] if "error" in out.column_names
            else pa.nulls(out.num_rows, type=pa.string())
        )
        return pa.table(cols)

    out = (
        _rp(sf_dir, "events", ["event_id", "event_type", "value", "props"])
        .map_batches(fn, batch_format="pyarrow")
        .to_pandas()
    )
    return out.sort_values("event_id").reset_index(drop=True)


TRANSFORM_TYPED_SQL = """
SELECT event_id,
       CAST(regexp_extract(props, '[0-9]+') AS BIGINT) AS k_int,
       CASE WHEN event_type = 'error' THEN 'true' ELSE NULL END AS is_error,
       "value" AS amount,
       CASE WHEN event_type <> 'error'
            THEN 'is_error: Value ''notabool'' is not a valid Boolean'
            ELSE NULL END AS error
FROM events ORDER BY event_id
"""


# ---------------------------------------------------------------------------
# embeddings (similarity search)
# ---------------------------------------------------------------------------


def _load_queries(sf_dir: str, n: int = 10):
    import pyarrow.parquet as pq

    t = pq.read_table(os.path.join(sf_dir, "embeddings.parquet"), columns=["vec_id", "embedding"])
    mask = pc.less(t["vec_id"], n)
    t = t.filter(mask).sort_by("vec_id")
    return t["vec_id"].to_pylist(), np.asarray(t["embedding"].to_pylist(), dtype=np.float64)


def knn_cosine(sf_dir: str):
    """Exact top-5 cosine neighbors for query vectors vec_id < 10."""
    from silk_ray.functions.ann import knn_bruteforce

    qids, qm = _load_queries(sf_dir, 10)
    ds = _rp(sf_dir, "embeddings", ["vec_id", "embedding"])
    out = knn_bruteforce(ds, qids, qm, k=5).to_pandas()
    out["cosine"] = out["cosine"].round(6)
    return out.sort_values(["query_id", "cosine", "neighbor_id"], ascending=[True, False, True]).reset_index(drop=True)


KNN_COSINE_SQL = """
SELECT query_id, neighbor_id, round(cosine, 6) AS cosine FROM (
  SELECT q.vec_id AS query_id, e.vec_id AS neighbor_id,
         list_cosine_similarity(CAST(q.embedding AS DOUBLE[]), CAST(e.embedding AS DOUBLE[])) AS cosine,
         row_number() OVER (
           PARTITION BY q.vec_id
           ORDER BY list_cosine_similarity(CAST(q.embedding AS DOUBLE[]), CAST(e.embedding AS DOUBLE[])) DESC, e.vec_id
         ) AS rn
  FROM embeddings q CROSS JOIN embeddings e
  WHERE q.vec_id < 10 AND e.vec_id != q.vec_id
) WHERE rn <= 5
ORDER BY query_id, cosine DESC, neighbor_id
"""


def _label_stats_partial(batch: pa.Table) -> pa.Table:
    """Combiner: one row per label per batch with the row count
    (``count(*)``), the non-null dim-0 count and the dim-0 sum (the
    mean's numerator and denominator, as ``avg`` skips nulls)."""
    dim0 = pc.list_element(batch["embedding"], 0)
    t = pa.table({"label": batch["label"], "dim0": pc.cast(dim0, pa.float64())})
    g = t.group_by("label").aggregate([([], "count_all"), ("dim0", "count"), ("dim0", "sum")])
    return g.rename_columns(["label", "p_n", "p_nn", "p_sum"])


def label_stats(sf_dir: str):
    """Per-label count + mean of embedding dim 0 (partial-aggregated)."""
    from ray.data.aggregate import Sum

    out = (
        _rp(sf_dir, "embeddings", ["label", "embedding"])
        .map_batches(_label_stats_partial, batch_format="pyarrow")
        .repartition(1)
        .groupby("label")
        .aggregate(
            Sum("p_n", alias_name="n"),
            Sum("p_nn", alias_name="n_dim0"),
            Sum("p_sum", alias_name="sum_dim0"),
        )
        .to_pandas()
    )
    out["avg_dim0"] = (out["sum_dim0"] / out["n_dim0"]).round(6)
    out = out[["label", "n", "avg_dim0"]]
    return out.sort_values("label").reset_index(drop=True)


LABEL_STATS_SQL = """
SELECT CAST(label AS BIGINT) AS label, count(*) AS n,
       round(avg(CAST(embedding[1] AS DOUBLE)), 6) AS avg_dim0
FROM embeddings GROUP BY label ORDER BY label
"""


# ---------------------------------------------------------------------------
# rows-only queries (no SQL equivalent; driver does a weaker check)
# ---------------------------------------------------------------------------


def lang_id(sf_dir: str):
    from silk_ray.functions.text import LangId

    ds = _rp(sf_dir, "documents", ["doc_id", "text"])
    out = ds.map_batches(
        LangId, batch_format="pyarrow", concurrency=(1, 4)
    ).map_batches(lambda b: b.select(["doc_id", "lang_pred"]), batch_format="pyarrow").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def _lang_id_sql() -> str:
    """Exact oracle for the trigram-overlap language heuristic: the
    per-language profiles are built IN SQL from the same literal seed
    phrases (single source: LangId.SEED), doc/profile trigrams use the
    identical 2-space padding + lower(), score = |∩|/|doc grams| with
    the same first-in-dict-order tie-break and 0.05 floor."""
    from silk_ray.functions.text import LangId

    seeds = ", ".join(
        f"({i}, '{lang}', '{seed.replace(chr(39), chr(39) * 2)}')"
        for i, (lang, seed) in enumerate(LangId.SEED.items())
    )
    return f"""
WITH seeds(ord, lang, seed) AS (VALUES {seeds}),
prof AS (
  SELECT ord, lang,
    list_distinct(list_transform(generate_series(1, len('  ' || lower(seed) || '  ') - 2),
                                 i -> substr('  ' || lower(seed) || '  ', i, 3))) AS grams
  FROM seeds
),
docg AS (
  SELECT doc_id,
    list_distinct(list_transform(generate_series(1, len('  ' || lower(text) || '  ') - 2),
                                 i -> substr('  ' || lower(text) || '  ', i, 3))) AS grams
  FROM documents
),
scored AS (
  SELECT d.doc_id, p.lang, p.ord,
         CAST(len(list_intersect(d.grams, p.grams)) AS DOUBLE) / len(d.grams) AS score
  FROM docg d CROSS JOIN prof p
  WHERE len(d.grams) > 0
),
best AS (
  SELECT doc_id, lang, score,
         row_number() OVER (PARTITION BY doc_id ORDER BY score DESC, ord ASC) AS rn
  FROM scored
)
SELECT d.doc_id,
       coalesce(CASE WHEN b.score > 0.05 THEN b.lang END, 'unknown') AS lang_pred
FROM documents d LEFT JOIN (SELECT * FROM best WHERE rn = 1) b USING (doc_id)
ORDER BY doc_id
"""


def dedup_minhash(sf_dir: str):
    from silk_ray.functions.dedup import minhash_lsh_pairs

    ds = _rp(sf_dir, "documents", ["doc_id", "text"])
    return minhash_lsh_pairs(ds, jaccard_threshold=0.5).to_pandas().sort_values(["left_id", "right_id"]).reset_index(drop=True)


def dedup_simhash(sf_dir: str):
    from silk_ray.functions.dedup import simhash_near_dup_pairs

    ds = _rp(sf_dir, "documents", ["doc_id", "text"])
    return simhash_near_dup_pairs(ds, max_hamming=4).to_pandas().sort_values(["left_id", "right_id"]).reset_index(drop=True)


# exact oracle: every hash in the MinHash pipeline derives from
# md5-lower-64 (== DuckDB md5_number_lower) — shingle base hash
# x = md5 % 2^32, permutation params a_i/b_i from md5('minhash-a-i') —
# so the 64 signatures ((a*x+b) mod 2^61-1, exact in HUGEINT), the
# 16x4 banding (joined on the raw 4-tuple, which is what the engine's
# bucket crc encodes) and the jaccard>=0.5 verify are all reproduced
# in SQL. Verify jaccard is computed over the shingle STRING sets —
# equal to the engine's crc32-sketch jaccard up to crc collisions
# (same caveat the n-gram oracle already relies on).
DEDUP_MINHASH_SQL = r"""
WITH w AS (
  SELECT doc_id, list_filter(string_split_regex(text, '\s+'), t -> t <> '') AS w
  FROM documents
),
sh AS (
  SELECT doc_id, unnest(CASE WHEN len(w) = 0 THEN CAST([] AS VARCHAR[])
       WHEN len(w) < 3 THEN [array_to_string(w, ' ')]
       ELSE list_distinct(list_transform(generate_series(1, len(w) - 2),
                                         i -> array_to_string(w[i:i+2], ' '))) END) AS s
  FROM w
),
xs AS (
  SELECT DISTINCT doc_id, md5_number_lower(s) % 4294967296 AS x FROM sh
),
perms AS (
  SELECT i, 1 + (md5_number_lower('minhash-a-' || i) % 4294967295) AS a,
         md5_number_lower('minhash-b-' || i) % 4294967296 AS b
  FROM (SELECT unnest(generate_series(0, 63)) AS i)
),
sigs AS (
  SELECT doc_id, i // 4 AS band,
         string_agg(CAST(v AS VARCHAR), ',' ORDER BY i) AS tup
  FROM (
    SELECT doc_id, i, min((CAST(a AS HUGEINT) * x + b) % 2305843009213693951) AS v
    FROM xs CROSS JOIN perms GROUP BY doc_id, i
  ) GROUP BY doc_id, band
),
cand AS (
  SELECT DISTINCT l.doc_id AS left_id, r.doc_id AS right_id
  FROM sigs l JOIN sigs r ON l.band = r.band AND l.tup = r.tup AND l.doc_id < r.doc_id
),
shl AS (SELECT doc_id, list(DISTINCT s) AS ss FROM sh GROUP BY doc_id)
SELECT c.left_id, c.right_id,
       CAST(len(list_intersect(a.ss, b.ss)) AS DOUBLE)
       / (len(a.ss) + len(b.ss) - len(list_intersect(a.ss, b.ss))) AS jaccard
FROM cand c JOIN shl a ON a.doc_id = c.left_id JOIN shl b ON b.doc_id = c.right_id
WHERE CAST(len(list_intersect(a.ss, b.ss)) AS DOUBLE)
      / (len(a.ss) + len(b.ss) - len(list_intersect(a.ss, b.ss))) >= 0.5
ORDER BY left_id, right_id
"""


def dedup_clusters(sf_dir: str):
    """Duplicate CLUSTERS over the MinHash-LSH pair graph: every doc in
    at least one near-dup pair, labeled with the min doc_id of its
    connected component (distributed min-label propagation + pointer
    jumping, silk_ray/functions/graph.py — the grouping step the
    reference's pair-emitting linkage pipeline stops short of)."""
    from silk_ray.functions.dedup import minhash_lsh_pairs
    from silk_ray.functions.graph import connected_components

    ds = _rp(sf_dir, "documents", ["doc_id", "text"])
    pairs = minhash_lsh_pairs(ds, jaccard_threshold=0.5)
    cc = connected_components(
        pairs, "left_id", "right_id", node_col="doc_id", label_col="cluster_id"
    )
    return cc.to_pandas().sort_values("doc_id").reset_index(drop=True)


def dedup_survivors(sf_dir: str):
    """The deduplicated corpus: doc ids surviving "keep one
    representative (min id) per duplicate cluster" — cluster members
    anti-joined out of the corpus (broadcast below the gate, hash
    shuffle above; graph.cluster_survivors)."""
    from silk_ray.functions.dedup import minhash_lsh_pairs
    from silk_ray.functions.graph import cluster_survivors, connected_components

    pairs = minhash_lsh_pairs(
        _rp(sf_dir, "documents", ["doc_id", "text"]), jaccard_threshold=0.5
    )
    cc = connected_components(
        pairs, "left_id", "right_id", node_col="doc_id", label_col="cluster_id"
    )
    docs = _rp(sf_dir, "documents", ["doc_id"])
    out = cluster_survivors(docs, cc, id_col="doc_id", node_col="doc_id", label_col="cluster_id")
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


# connected components as SQL: reachability closure (recursive CTE,
# UNION-deduped so it terminates) + min reachable node per node. The
# walk is O(sum of component sizes squared) — an oracle for test-scale
# components, not a scale plan (the engine's pointer-jumped propagation
# is the scale plan).
_CC_ORACLE_TAIL = r"""
edges AS (
  SELECT left_id AS u, right_id AS v FROM pairs
  UNION
  SELECT right_id, left_id FROM pairs
),
walk(node, lbl) AS (
  SELECT u, u FROM edges
  UNION
  SELECT e.v, w.lbl FROM walk w JOIN edges e ON e.u = w.node
),
cc AS (SELECT node, min(lbl) AS cluster_id FROM walk GROUP BY node)
"""

DEDUP_CLUSTERS_SQL = (
    "WITH RECURSIVE pairs AS (\n"
    + DEDUP_MINHASH_SQL
    + "\n),\n"
    + _CC_ORACLE_TAIL.strip()
    + "\nSELECT node AS doc_id, cluster_id FROM cc ORDER BY doc_id"
)

DEDUP_SURVIVORS_SQL = (
    "WITH RECURSIVE pairs AS (\n"
    + DEDUP_MINHASH_SQL
    + "\n),\n"
    + _CC_ORACLE_TAIL.strip()
    + "\nSELECT d.doc_id FROM documents d LEFT JOIN cc ON d.doc_id = cc.node\n"
    + "WHERE cc.node IS NULL OR cc.cluster_id = d.doc_id ORDER BY doc_id"
)


# exact oracle: the per-token hash is md5-lower-64 (== DuckDB
# md5_number_lower), so signature computation (term-frequency-weighted
# bit majority), 4x16-bit banding AND the hamming<=4 verify are all
# reproduced in SQL. XOR-hamming is invariant to the engine's
# int64-offset storage (the top-bit flips cancel), so the oracle works
# on unsigned signatures directly.
DEDUP_SIMHASH_SQL = r"""
WITH toks AS (
  SELECT doc_id, t AS tok, count(*) AS w
  FROM (SELECT doc_id, unnest(list_filter(string_split_regex(text, '\s+'), x -> x <> '')) AS t
        FROM documents)
  GROUP BY doc_id, t
),
bits AS (
  SELECT doc_id, b AS bit,
         sum(CASE WHEN (md5_number_lower(tok) >> b) & 1 = 1 THEN w ELSE -w END) AS acc
  FROM toks CROSS JOIN (SELECT unnest(generate_series(0, 63)) AS b)
  GROUP BY doc_id, b
),
sig AS (
  SELECT doc_id,
         bit_or(CASE WHEN acc > 0 THEN CAST(1 AS UBIGINT) << bit ELSE CAST(0 AS UBIGINT) END) AS h
  FROM bits GROUP BY doc_id
),
allsig AS (  -- docs with no tokens get signature 0, like simhash64('')
  SELECT d.doc_id, coalesce(s.h, CAST(0 AS UBIGINT)) AS h
  FROM documents d LEFT JOIN sig s USING (doc_id)
),
banded AS (
  SELECT doc_id, h, band, (h >> (band * 16)) & 65535 AS chunk
  FROM allsig CROSS JOIN (SELECT unnest(generate_series(0, 3)) AS band)
),
cand AS (
  SELECT DISTINCT l.doc_id AS left_id, r.doc_id AS right_id, l.h AS hl, r.h AS hr
  FROM banded l JOIN banded r ON l.band = r.band AND l.chunk = r.chunk AND l.doc_id < r.doc_id
)
SELECT left_id, right_id, CAST(bit_count(xor(hl, hr)) AS BIGINT) AS hamming
FROM cand WHERE bit_count(xor(hl, hr)) <= 4
ORDER BY left_id, right_id
"""


def dedup_ngram_jaccard(sf_dir: str):
    from silk_ray.functions.dedup import ngram_jaccard_pairs

    ds = _rp(sf_dir, "documents", ["doc_id", "text"])
    out = ngram_jaccard_pairs(ds, threshold=0.5).to_pandas()
    out["jaccard"] = out["jaccard"].round(6)
    return out.sort_values(["left_id", "right_id"]).reset_index(drop=True)


# prefix filtering is a complete (not approximate) algorithm and the
# per-pair Jaccard is computed over crc32-hashed shingle sets (equal to
# shingle-set Jaccard up to crc collisions), so the exact all-pairs SQL
# is a true oracle: word 3-shingles via an inverted-index self-join
NGRAM_JACCARD_SQL = """
WITH toks AS (
  SELECT doc_id, list_filter(string_split_regex(text, '\\s+'), t -> t <> '') AS w
  FROM documents
),
sh AS (
  SELECT doc_id,
    CASE WHEN len(w) = 0 THEN CAST([] AS VARCHAR[])
         WHEN len(w) < 3 THEN [array_to_string(w, ' ')]
         ELSE list_distinct(list_transform(generate_series(1, len(w) - 2),
                                           i -> array_to_string(w[i:i+2], ' ')))
    END AS s
  FROM toks
),
ns AS (SELECT doc_id, len(s) AS n FROM sh),
ex AS (SELECT doc_id, unnest(s) AS shingle FROM sh),
inter AS (
  SELECT a.doc_id AS left_id, b.doc_id AS right_id, count(*) AS i
  FROM ex a JOIN ex b ON a.shingle = b.shingle AND a.doc_id < b.doc_id
  GROUP BY 1, 2
)
SELECT left_id, right_id,
       round(CAST(i AS DOUBLE) / (na.n + nb.n - i), 6) AS jaccard
FROM inter
JOIN ns na ON na.doc_id = left_id
JOIN ns nb ON nb.doc_id = right_id
WHERE CAST(i AS DOUBLE) / (na.n + nb.n - i) >= 0.5
ORDER BY left_id, right_id
"""


# the brute method broadcasts the whole normalized corpus (exact,
# oracle-checkable) — safe only while it fits a worker heap; above this
# metadata-probed row gate the LSH bucketed path runs instead (the
# 100 TB path: groupby shuffle of (bucket, id, vec), no corpus broadcast;
# approximate — recall-tested against brute in tests)
_EMBED_BRUTE_MAX_ROWS = 1_000_000


def dedup_embedding(sf_dir: str):
    """Embedding-cosine near-dup pairs. Exact brute method below the
    corpus-size gate (the driver's oracle tiers), LSH above it."""
    import pyarrow.parquet as pq

    from silk_ray.functions.ann import embedding_near_dup_pairs

    n = pq.ParquetFile(os.path.join(sf_dir, "embeddings.parquet")).metadata.num_rows
    method = "brute" if n <= _EMBED_BRUTE_MAX_ROWS else "lsh"
    ds = _rp(sf_dir, "embeddings", ["vec_id", "embedding"])
    out = embedding_near_dup_pairs(ds, threshold=0.4, method=method).to_pandas()
    out["cosine"] = out["cosine"].round(6)
    return out.sort_values(["id_a", "id_b"]).reset_index(drop=True)


DEDUP_EMBEDDING_SQL = """
SELECT a.vec_id AS id_a, b.vec_id AS id_b,
       round(list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                                    CAST(b.embedding AS DOUBLE[])), 6) AS cosine
FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
WHERE list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                             CAST(b.embedding AS DOUBLE[])) >= 0.4
ORDER BY id_a, id_b
"""


def knn_lsh_q(sf_dir: str):
    from silk_ray.functions.ann import knn_lsh

    qids, qm = _load_queries(sf_dir, 10)
    ds = _rp(sf_dir, "embeddings", ["vec_id", "embedding"])
    # few bits / many tables: the synthetic embeddings are weakly
    # clustered (top cosine ≈ 0.33), so collision probability per bit is
    # only ~0.6 — short signatures keep recall up (measured 1.0 at both
    # test tiers with these parameters; tests pin a >= 0.9 floor)
    out = knn_lsh(ds, qids, qm, k=5, n_bits=3, n_tables=32).to_pandas()
    out["cosine"] = out["cosine"].round(6)
    return out.sort_values(["query_id", "cosine", "neighbor_id"], ascending=[True, False, True]).reset_index(drop=True)


# Exact SQL oracle for knn_lsh: the hasher's ±1 plane entries derive
# from md5-lower-64 (HyperplaneHasher: +1 iff md5_lower64("lsh-t:b:d")
# is even == DuckDB md5_number_lower(...) % 2 = 0), projections are
# float64 on exactly-representable float32 embeddings, so DuckDB
# rebuilds every bucket (bit b is the (n_bits-1-b)-th binary digit,
# table id in bits 48+). The pipeline's per-bucket top-(k+1) pruning is
# lossless w.r.t. the global candidate top-k: any bucket member ranked
# above a true global-top-k candidate is itself a candidate with higher
# cosine (≤ k-1 of those exist) or the query itself (≤ 1), so the
# candidate survives every shared bucket — the oracle can therefore
# score ALL bucket-sharing candidates and take the global top-k.
# Parameters pinned to knn_lsh_q: dim=64, n_bits=3, n_tables=32, k=5.
KNN_LSH_SQL = """
WITH dims AS (SELECT unnest(range(64)) AS d),
     bits AS (SELECT unnest(range(3)) AS b),
     tabs AS (SELECT unnest(range(32)) AS t),
     signs AS (
       SELECT t, b,
              list(CAST(CASE WHEN md5_number_lower('lsh-' || t || ':' || b || ':' || d) % 2 = 0
                             THEN 1.0 ELSE -1.0 END AS DOUBLE) ORDER BY d) AS sv
       FROM tabs CROSS JOIN bits CROSS JOIN dims
       GROUP BY t, b),
     vb AS (
       SELECT v.vec_id,
              (s.t::BIGINT << 48) | CAST(sum(
                CASE WHEN list_dot_product(CAST(v.embedding AS DOUBLE[]), s.sv) > 0
                     THEN (1::BIGINT << CAST(2 - s.b AS INTEGER)) ELSE 0 END) AS BIGINT) AS bucket
       FROM embeddings v CROSS JOIN signs s
       GROUP BY v.vec_id, s.t),
     cand AS (
       SELECT DISTINCT q.vec_id AS query_id, e.vec_id AS neighbor_id
       FROM vb q JOIN vb e ON e.bucket = q.bucket
       WHERE q.vec_id < 10 AND e.vec_id != q.vec_id)
SELECT query_id, neighbor_id, round(cosine, 6) AS cosine FROM (
  SELECT c.query_id, c.neighbor_id,
         list_cosine_similarity(CAST(q.embedding AS DOUBLE[]), CAST(e.embedding AS DOUBLE[])) AS cosine,
         row_number() OVER (
           PARTITION BY c.query_id
           ORDER BY list_cosine_similarity(CAST(q.embedding AS DOUBLE[]), CAST(e.embedding AS DOUBLE[])) DESC,
                    c.neighbor_id
         ) AS rn
  FROM cand c
  JOIN embeddings q ON q.vec_id = c.query_id
  JOIN embeddings e ON e.vec_id = c.neighbor_id
) WHERE rn <= 5
ORDER BY query_id, cosine DESC, neighbor_id
"""


def _ivf_seed_centroids(sf_dir: str, n_cells: int = 16) -> np.ndarray:
    """Deterministic, SQL-reproducible IVF centroids: the normalized
    embeddings of the ``n_cells`` corpus vectors with the smallest
    ``md5_lower64(str(vec_id))`` (== DuckDB ``md5_number_lower``), cell
    index = ascending md5 order. Used by the oracle-facing query so
    DuckDB can rebuild the cells; the k-means path
    (``train_ivf_centroids``) stays the default for ``centroids=None``
    and has its own recall test."""
    import pyarrow.parquet as pq

    from silk_ray.functions.ann import _normalize
    from silk_ray.kernel.index import md5_lower64

    t = pq.read_table(os.path.join(sf_dir, "embeddings.parquet"), columns=["vec_id", "embedding"])
    ids = t["vec_id"].to_pylist()
    order = sorted(range(len(ids)), key=lambda i: (md5_lower64(str(ids[i])), ids[i]))[:n_cells]
    vecs = t["embedding"].to_pylist()
    return _normalize(np.asarray([vecs[i] for i in order], dtype=np.float64))


def knn_ivf_q(sf_dir: str):
    from silk_ray.functions.ann import knn_ivf

    qids, qm = _load_queries(sf_dir, 10)
    ds = _rp(sf_dir, "embeddings", ["vec_id", "embedding"])
    # weakly-clustered synthetic embeddings: probe most cells for high
    # recall (a real clustered corpus probes a small fraction; measured
    # >= 0.9 floor pinned by tests). Centroids are the md5-seeded
    # deterministic set so the DuckDB oracle can rebuild every cell.
    cents = _ivf_seed_centroids(sf_dir, n_cells=16)
    out = knn_ivf(ds, qids, qm, k=5, n_cells=16, n_probe=14, centroids=cents).to_pandas()
    out["cosine"] = out["cosine"].round(6)
    return out.sort_values(["query_id", "cosine", "neighbor_id"], ascending=[True, False, True]).reset_index(drop=True)


# Exact SQL oracle for knn_ivf: centroids are the 16 corpus vectors with
# the smallest md5_number_lower(vec_id) (cell = ascending-md5 rank),
# normalized — so cell assignment (argmax of normalized-dot == argmax of
# cosine, ties to the lowest cell, matching np.argmax) and query probing
# (top-14 cells by the same ranking, matching the stable argsort
# tie-break) are pure SQL. Cells are disjoint (each vector lives in ONE
# cell), and the pipeline's per-cell top-(k+1) pruning is lossless
# w.r.t. the global top-k by the same argument as KNN_LSH_SQL — at most
# k-1 better candidates plus the query itself can outrank a true top-k
# member inside its cell — so the oracle scores all probed-cell members
# and takes the global top-k. Parameters pinned to knn_ivf_q: dim=64,
# n_cells=16, n_probe=14, k=5.
KNN_IVF_SQL = """
WITH ranked AS (
  SELECT vec_id, CAST(embedding AS DOUBLE[]) AS cv,
         row_number() OVER (ORDER BY md5_number_lower(CAST(vec_id AS VARCHAR)), vec_id) AS rn
  FROM embeddings),
cents AS (SELECT rn - 1 AS cell, cv FROM ranked WHERE rn <= 16),
assign AS (
  SELECT vec_id, cell FROM (
    SELECT v.vec_id, c.cell,
           row_number() OVER (
             PARTITION BY v.vec_id
             ORDER BY list_cosine_similarity(CAST(v.embedding AS DOUBLE[]), c.cv) DESC, c.cell
           ) AS arn
    FROM embeddings v CROSS JOIN cents c
  ) WHERE arn = 1),
probe AS (
  SELECT vec_id AS query_id, cell FROM (
    SELECT q.vec_id, c.cell,
           row_number() OVER (
             PARTITION BY q.vec_id
             ORDER BY list_cosine_similarity(CAST(q.embedding AS DOUBLE[]), c.cv) DESC, c.cell
           ) AS prn
    FROM embeddings q CROSS JOIN cents c
    WHERE q.vec_id < 10
  ) WHERE prn <= 14),
cand AS (
  SELECT DISTINCT p.query_id, a.vec_id AS neighbor_id
  FROM probe p JOIN assign a ON a.cell = p.cell
  WHERE a.vec_id != p.query_id)
SELECT query_id, neighbor_id, round(cosine, 6) AS cosine FROM (
  SELECT c.query_id, c.neighbor_id,
         list_cosine_similarity(CAST(q.embedding AS DOUBLE[]), CAST(e.embedding AS DOUBLE[])) AS cosine,
         row_number() OVER (
           PARTITION BY c.query_id
           ORDER BY list_cosine_similarity(CAST(q.embedding AS DOUBLE[]), CAST(e.embedding AS DOUBLE[])) DESC,
                    c.neighbor_id
         ) AS rn
  FROM cand c
  JOIN embeddings q ON q.vec_id = c.query_id
  JOIN embeddings e ON e.vec_id = c.neighbor_id
) WHERE rn <= 5
ORDER BY query_id, cosine DESC, neighbor_id
"""


def link_names(sf_dir: str):
    """Cross-source linkage with an exact SQL oracle: customer names vs
    supplier names — stripPrefix transform inputs, levenshteinDistance
    θ=2 (confidence = 1 − d/θ, kept iff ≥ 0, Matcher.scala:273-281).
    The q-gram blocking index is complete for d ≤ θ
    (tests/test_properties.py), so the MultiBlock link set equals the
    oracle's full cross product exactly."""
    from silk_ray.linking.pipeline import add_uri_column, generate_links, links_frame

    rule = {
        "operator": {
            "metric": "levenshteinDistance",
            "threshold": 2,
            "source": {"transform": "stripPrefix", "params": {"prefix": "Customer#"},
                       "inputs": [{"path": "c_name"}]},
            "target": {"transform": "stripPrefix", "params": {"prefix": "Supplier#"},
                       "inputs": [{"path": "s_name"}]},
        },
    }
    cust = add_uri_column(_rp(sf_dir, "customer", ["c_name"]), cols=("c_name",))
    supp = add_uri_column(_rp(sf_dir, "supplier", ["s_name"]), cols=("s_name",))
    # sequential ids share most q-grams → mega-blocks; salting splits
    # them (output unchanged — verified equal links with/without)
    links = links_frame(generate_links(cust, supp, rule, salt_threshold=500, n_salt=32))
    links["confidence"] = links["confidence"].round(6)
    return links.sort_values(["source", "target"]).reset_index(drop=True)


LINK_NAMES_SQL = """
SELECT c_name AS source, s_name AS target,
       round(1.0 - levenshtein(replace(c_name, 'Customer#', ''),
                               replace(s_name, 'Supplier#', '')) / 2.0, 6) AS confidence
FROM customer, supplier
WHERE levenshtein(replace(c_name, 'Customer#', ''),
                  replace(s_name, 'Supplier#', '')) <= 2
ORDER BY source, target
"""


def link_documents(sf_dir: str):
    """Self-linkage of documents: Silk rule over (lang equality,
    KMV-token Jaccard of text) — average aggregation
    (AverageAggregator.scala:48-79) with banded MinHash-LSH blocking.
    Every pipeline hash derives from md5-lower-64, so the full rule
    (kmv sketch order, 36 LSH signatures, 6x6 banding, weighted-average
    score, >=0 keep) has an exact SQL oracle."""
    from silk_ray.linking.pipeline import add_uri_column, generate_links, links_frame

    rule = {
        "operator": {
            "aggregator": "average",
            "operators": [
                {"metric": "equality", "threshold": 0.0, "weight": 1, "indexing": False,
                 "source": {"path": "lang"}, "target": {"path": "lang"}},
                {"metric": "jaccardMinhashLSH", "params": {"bands": 6, "rows": 6},
                 "threshold": 0.5, "weight": 2,
                 "source": {"transform": "kmvTokens", "params": {"k": 32},
                            "inputs": [{"transform": "shingle", "params": {"k": 3},
                                        "inputs": [{"transform": "tokenize", "inputs": [{"path": "text"}]}]}]},
                 "target": {"transform": "kmvTokens", "params": {"k": 32},
                            "inputs": [{"transform": "shingle", "params": {"k": 3},
                                        "inputs": [{"transform": "tokenize", "inputs": [{"path": "text"}]}]}]}},
            ],
        },
    }
    ds = _rp(sf_dir, "documents", ["doc_id", "text", "lang"])
    ds = add_uri_column(ds, cols=("doc_id",), name="uri")
    links = links_frame(generate_links(ds, None, rule, source_equals_target=True))
    links["confidence"] = links["confidence"].round(6)
    return links.sort_values(["source", "target"]).reset_index(drop=True)


# exact oracle for the flagship linkage rule: the engine's tokenizer is
# re.split(r'\s') (empties KEPT — DuckDB string_split_regex matches,
# incl. '' -> ['']); shingle joins raw token windows; kmvTokens keeps
# the 32 distinct shingles smallest by (md5_number_lower, value); the
# jaccardMinhashLSH index derives base hash (md5 % 2^32) and the 36
# permutation params from md5-lower-64, so the 6x6 banding reproduces
# as raw signature tuples (the engine crc-encodes the same tuple —
# collisions could only ADD engine candidates, the documented
# negligible caveat shared with the dedup_minhash oracle). Score =
# weighted average of (lang equality -> ±1, theta=0 semantics) and
# (KMV-set jaccard, conf = 1 - d/0.5), kept iff >= 0; pairs ordered by
# the STRING form of doc_id (engine uris are strings).
LINK_DOCUMENTS_SQL = r"""
WITH d AS (
  SELECT doc_id, lang, string_split_regex(text, '\s') AS w
  FROM documents WHERE text IS NOT NULL
),
sh AS (
  SELECT doc_id, unnest(CASE WHEN len(w) < 3 THEN [array_to_string(w, ' ')]
       ELSE list_transform(generate_series(1, len(w) - 2),
                           i -> array_to_string(w[i:i+2], ' ')) END) AS s
  FROM d
),
kmv AS (
  SELECT doc_id, s FROM (SELECT DISTINCT doc_id, s FROM sh)
  QUALIFY row_number() OVER (PARTITION BY doc_id ORDER BY md5_number_lower(s), s) <= 32
),
perms AS (
  SELECT i, 1 + (md5_number_lower('mhlsh-97-a-' || i) % 4294967295) AS a,
         md5_number_lower('mhlsh-97-b-' || i) % 4294967296 AS b
  FROM (SELECT unnest(generate_series(0, 35)) AS i)
),
sigs AS (
  SELECT doc_id, i // 6 AS band,
         string_agg(CAST(v AS VARCHAR), ',' ORDER BY i) AS tup
  FROM (
    SELECT doc_id, i,
           min((CAST(a AS HUGEINT) * (md5_number_lower(s) % 4294967296) + b)
               % 2305843009213693951) AS v
    FROM kmv CROSS JOIN perms GROUP BY doc_id, i
  ) GROUP BY doc_id, band
),
cand AS (
  SELECT DISTINCT l.doc_id AS lid, r.doc_id AS rid
  FROM sigs l JOIN sigs r ON l.band = r.band AND l.tup = r.tup
   AND CAST(l.doc_id AS VARCHAR) < CAST(r.doc_id AS VARCHAR)
),
ks AS (SELECT doc_id, list(s) AS ss FROM kmv GROUP BY doc_id),
scored AS (
  SELECT CAST(c.lid AS VARCHAR) AS source, CAST(c.rid AS VARCHAR) AS target,
         (CASE WHEN dl.lang = dr.lang THEN 1.0 ELSE -1.0 END
          + 2.0 * (1.0 - (1.0 - CAST(len(list_intersect(a.ss, b.ss)) AS DOUBLE)
                / (len(a.ss) + len(b.ss) - len(list_intersect(a.ss, b.ss)))) / 0.5)
         ) / 3.0 AS confidence
  FROM cand c
  JOIN ks a ON a.doc_id = c.lid JOIN ks b ON b.doc_id = c.rid
  JOIN documents dl ON dl.doc_id = c.lid JOIN documents dr ON dr.doc_id = c.rid
  WHERE dl.lang IS NOT NULL AND dr.lang IS NOT NULL
)
SELECT source, target, round(confidence, 6) AS confidence
FROM scored WHERE confidence >= 0.0
ORDER BY source, target
"""


def learn_linkage_rule(sf_dir: str):
    """GenLink supervised learning over the documents table: labeled
    pairs are (document, deterministic noisy copy) positives plus
    cross-document negatives; returns the learned rule's training
    evaluation (deterministic under the fixed seed). Non-SQL
    (iterative genetic algorithm) — rows-only driver check; the
    learner itself is covered by tests/test_learning.py."""
    import random as _random

    from silk_ray.learning import LearningConfig, ReferenceEntities, learn

    docs = (
        _rp(sf_dir, "documents", ["doc_id", "text", "lang"])
        .sort("doc_id")
        .limit(40)
        .take_all()
    )
    rng = _random.Random(42)

    def noisy(s: str) -> str:
        out = s
        for _ in range(2):
            i = rng.randrange(len(out))
            out = out[:i] + out[i + 1 :]
        return out

    positive = [
        (
            {"text": [d["text"]], "lang": [d["lang"]]},
            {"content": [noisy(d["text"])], "language": [d["lang"]]},
        )
        for d in docs
    ]
    negative = [
        (
            {"text": [docs[i]["text"]], "lang": [docs[i]["lang"]]},
            {"content": [docs[(i + 7) % len(docs)]["text"]], "language": [docs[(i + 7) % len(docs)]["lang"]]},
        )
        for i in range(len(docs))
    ]
    ref = ReferenceEntities(positive=positive, negative=negative)
    res = learn(ref, LearningConfig(population_size=80, max_iterations=10, seed=5))
    ev = res.evaluation
    return pd.DataFrame(
        {
            "status": [res.status],
            "iterations": [res.iterations],
            "f_measure": [round(ev.f_measure, 6)],
            "mcc": [round(ev.mcc, 6)],
            "tp": [ev.true_positives],
            "fp": [ev.false_positives],
            "fn": [ev.false_negatives],
            "tn": [ev.true_negatives],
        }
    )


def sample_stratified(sf_dir: str, k: int = 20):
    """Deterministic stratified sampling: k documents per language,
    ranked by ``md5_lower64(str(doc_id))`` (== DuckDB
    ``md5_number_lower`` — the engine's SQL-reproducible-hash idiom).
    Balanced per-class corpus sampling is a standard training-data
    step; a seeded RNG would not be oracle-checkable, a content hash
    is.

    Scale shape (the pre-aggregation pattern): each batch prunes
    LOCALLY to its own top-k per language before the shuffle, so the
    ``grouped_apply`` exchange carries at most batches x langs x k
    candidate rows — never the corpus."""
    from silk_ray.kernel.index import md5_lower64_batch
    from silk_ray.pipelines.relational import grouped_apply

    def prune(batch: pa.Table) -> pa.Table:
        rank = md5_lower64_batch(pc.cast(batch["doc_id"], pa.string()))
        df = batch.to_pandas()
        df["rank"] = rank
        df = df.sort_values(["lang", "rank", "doc_id"], kind="mergesort")
        return pa.Table.from_pandas(df.groupby("lang").head(k), preserve_index=False)

    def head_k(g: pd.DataFrame) -> pd.DataFrame:
        return g.sort_values(["rank", "doc_id"], kind="mergesort").head(k)

    ds = _rp(sf_dir, "documents", ["doc_id", "lang"]).map_batches(
        prune, batch_format="pyarrow"
    )
    # post-prune stream is ≤ langs×k rows per batch: one block
    out = grouped_apply(ds, "lang", head_k, coalesce=1).to_pandas()
    return (
        out[["doc_id", "lang"]]
        .sort_values(["lang", "doc_id"])
        .reset_index(drop=True)
    )


SAMPLE_STRATIFIED_SQL = """
SELECT doc_id, lang FROM (
  SELECT doc_id, lang,
         row_number() OVER (
           PARTITION BY lang
           ORDER BY md5_number_lower(CAST(doc_id AS VARCHAR)), doc_id
         ) AS rn
  FROM documents
) WHERE rn <= 20 ORDER BY lang, doc_id
"""


# ---------------------------------------------------------------------------
# streaming-source conformance (sources/streaming.py)
# ---------------------------------------------------------------------------

_JSON_EXPORT_V = 1


def _json_export_path(sf_dir: str) -> str:
    import hashlib

    h = hashlib.sha1(os.path.abspath(sf_dir).encode()).hexdigest()[:12]
    return f"/tmp/silkray_json_oracle/documents_{h}_v{_JSON_EXPORT_V}.json"


def _ensure_documents_json(sf_dir: str) -> str:
    """Deterministic JSON-array export of the documents table — the
    shared input both the streaming reader and the DuckDB oracle
    consume (same handshake idiom as the cdc changelog cache)."""
    import json as _json

    import pyarrow.parquet as pq

    p = _json_export_path(sf_dir)
    if not os.path.exists(p):
        os.makedirs(os.path.dirname(p), exist_ok=True)
        t = pq.read_table(
            os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "lang", "text"]
        ).sort_by([("doc_id", "ascending")])
        tmp = f"{p}.tmp-{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as f:
            _json.dump(t.to_pylist(), f, ensure_ascii=False)
        os.replace(tmp, p)
    return p


def source_json_stream(sf_dir: str):
    """Streaming JSON source conformance (JsonSourceStreaming.scala
    semantics, sources/streaming.py): the documents table exported as
    ONE top-level JSON array is pull-parsed record by record (memory
    bounded by one record + one read chunk, never the file) and must
    reproduce the table exactly — DuckDB's read_json_auto over the
    same file is the oracle."""
    from silk_ray.sources.registry import read_dataset

    p = _ensure_documents_json(sf_dir)
    out = read_dataset(p, format="json_stream").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def source_json_stream_sql_for(sf_dir: str) -> str:
    p = _ensure_documents_json(sf_dir)
    return f"""
SELECT doc_id, lang, text FROM read_json_auto('{p}') ORDER BY doc_id
"""


_XML_EXPORT_V = 1


def _xml_export_path(sf_dir: str) -> str:
    import hashlib

    h = hashlib.sha1(os.path.abspath(sf_dir).encode()).hexdigest()[:12]
    return f"/tmp/silkray_xml_oracle/documents_{h}_v{_XML_EXPORT_V}.xml"


def _ensure_documents_xml(sf_dir: str) -> str:
    """Deterministic XML export of the documents table — one
    ``<Doc>`` element per row under a single ``<Docs>`` root, written
    as a stream (never a DOM). Values are restricted to
    escaping-hazard-free projections (numeric doc_id, the lang token,
    and the text's CHARACTER COUNT instead of the raw text, since XML
    1.0 cannot carry arbitrary control characters and the streaming
    reader strips surrounding whitespace by design)."""
    import pyarrow.parquet as pq

    p = _xml_export_path(sf_dir)
    if not os.path.exists(p):
        os.makedirs(os.path.dirname(p), exist_ok=True)
        t = pq.read_table(
            os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "lang", "text"]
        ).sort_by([("doc_id", "ascending")])
        tmp = f"{p}.tmp-{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as f:
            f.write("<Docs>\n")
            for doc_id, lang, text in zip(
                t["doc_id"].to_pylist(), t["lang"].to_pylist(), t["text"].to_pylist()
            ):
                f.write(
                    f"<Doc><doc_id>{doc_id}</doc_id><lang>{lang}</lang>"
                    f"<n_chars>{len(text)}</n_chars></Doc>\n"
                )
            f.write("</Docs>\n")
        os.replace(tmp, p)
    return p


def source_xml_stream(sf_dir: str):
    """Streaming XML source conformance (XmlSourceStreaming.scala
    semantics, sources/streaming.py iter_xml_records): the documents
    table exported as ONE XML document is pull-parsed entity by entity
    (iterparse + aggressive subtree detach — memory bounded by one
    record, never the document) and must reproduce the base table's
    projection exactly. Oracle: the same projection straight off the
    documents parquet (the export is generated from it, so the check
    validates the full export→stream-parse round trip)."""
    from silk_ray.sources.registry import read_dataset

    p = _ensure_documents_xml(sf_dir)
    out = read_dataset(p, format="xml_stream", base_path="Doc").to_pandas()
    out = out[["doc_id", "lang", "n_chars"]]
    out["_k"] = out["doc_id"].astype("int64")
    return out.sort_values("_k").drop(columns="_k").reset_index(drop=True)


SOURCE_XML_STREAM_SQL = """
SELECT CAST(doc_id AS VARCHAR) AS doc_id, lang,
       CAST(length(text) AS VARCHAR) AS n_chars
FROM documents ORDER BY documents.doc_id
"""


# bump when make_changelog/base_from_documents semantics change — the
# cached parquet must always equal what the generator produces today
_CDC_ORACLE_V = 1


def _cdc_changelog_path(sf_dir: str) -> str:
    """Deterministic on-disk location of the flagship's generated
    changelog for one sf tier — the handshake that lets the DuckDB
    oracle read the exact event stream the engine consumed."""
    import hashlib

    h = hashlib.sha1(os.path.abspath(sf_dir).encode()).hexdigest()[:12]
    return f"/tmp/silkray_cdc_oracle/changelog_{h}_v{_CDC_ORACLE_V}.parquet"


def _ensure_cdc_changelog(sf_dir: str) -> tuple[pa.Table, int]:
    """Generate (seeded — byte-identical every run) the flagship
    changelog for ``sf_dir`` and persist it where the SQL oracle reads
    it. Returns (changelog, base_row_count)."""
    import pyarrow.parquet as pq

    from silk_ray.cdc.generator import make_changelog

    base = base_from_documents(sf_dir)
    log = make_changelog(base, max(500, base.num_rows * 3), seed=5, dup_frac=0.02)
    path = _cdc_changelog_path(sf_dir)
    if not os.path.exists(path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = f"{path}.tmp-{os.getpid()}"
        pq.write_table(log, tmp)
        os.replace(tmp, path)  # atomic: concurrent writers both win
    return log, base.num_rows


def cdc_flagship(sf_dir: str):
    """The flagship CDC pipeline: lake built from a deterministic
    changelog seeded by this sf tier's documents; returns final state.
    The merge-apply reduction has an exact SQL oracle (last-writer-wins
    by offset per (repo, path), duplicate offsets ignored, trailing D
    deletes) over the persisted changelog parquet."""
    import tempfile

    from silk_ray.cdc.engine import EngineConfig, run
    from silk_ray.cdc.merge import state_table
    from silk_ray.pipelines.rules import BENCH_RULE

    log, n_base = _ensure_cdc_changelog(sf_dir)
    root = tempfile.mkdtemp(prefix="silkray_lake_")
    spec = {k: v for k, v in BENCH_RULE.items() if k != "filter_limit"}
    run(root, log, EngineConfig(epoch_size=max(250, n_base), num_partitions=8,
                                n_block_partitions=16, rule_spec=spec))
    state = state_table(root).to_pandas()
    return state.reset_index(drop=True)


def cdc_agg(sf_dir: str):
    """Maintained aggregate view after the full CDC run: ``GROUP BY
    lang → count(*), sum(char length of content)`` updated
    delta-natively per epoch from the merge stage's change sets
    (cdc/matview.py — only touched view shards are rewritten; measures
    are exact-integer sums, so the maintained result is byte-identical
    to a batch GROUP BY). Oracle: the same aggregate over the
    last-writer-wins SQL state (``cdc_flagship_sql_for`` shape)."""
    import tempfile

    from silk_ray.cdc.engine import EngineConfig, run
    from silk_ray.cdc.matview import AggViewSpec, agg_table

    log, n_base = _ensure_cdc_changelog(sf_dir)
    root = tempfile.mkdtemp(prefix="silkray_lake_agg_")
    spec = AggViewSpec(
        group_by=("lang",),
        measures={
            "sum_chars": ("sum_strlen", "content"),
            # min/max maintained via the co-sharded (group, value)->count
            # support store (matview.py minmax_measures) — exact under
            # deletes of a group's extremum
            "first_commit": ("min", "commit"),
            "last_commit": ("max", "commit"),
        },
        count_col="n_docs",
        num_shards=16,
    )
    run(
        root,
        log,
        EngineConfig(epoch_size=max(250, n_base), num_partitions=8, agg_spec=spec),
    )
    t = agg_table(root).to_pandas()
    return t.sort_values("lang").reset_index(drop=True)


def cdc_agg_sql_for(sf_dir: str) -> str:
    """GROUP BY over the last-writer-wins state (see
    ``cdc_flagship_sql_for``); COALESCE(length(content), 0) matches the
    view's null-counts-0 measure semantics, casts pin DuckDB's HUGEINT
    sums back to the view's int64."""
    if os.path.isdir(sf_dir):
        _ensure_cdc_changelog(sf_dir)
    return f"""
SELECT lang,
       CAST(COUNT(*) AS BIGINT) AS n_docs,
       CAST(SUM(COALESCE(length(content), 0)) AS BIGINT) AS sum_chars,
       MIN(commit) AS first_commit,
       MAX(commit) AS last_commit
FROM (
  SELECT lang, content, commit, op,
         row_number() OVER (PARTITION BY repo, path ORDER BY "offset" DESC) AS rn
  FROM (SELECT DISTINCT * FROM read_parquet('{_cdc_changelog_path(sf_dir)}'))
)
WHERE rn = 1 AND op <> 'D'
GROUP BY lang
ORDER BY lang
"""


def cdc_egress(sf_dir: str):
    """The downstream CDC changelog the engine *produces* (cdc/egress.py):
    per epoch, one row per changed key with op ∈ {I,U,D}, the full after
    image (``new_*``) and before image (``old_*``), a replay-stable
    global ``seq``, sharded by md5-lower-64 of the key. Oracle: the
    per-epoch diff of consecutive last-writer-wins snapshots, sequenced
    by (epoch, md5-shard, key) — every component SQL-reproducible."""
    import tempfile

    from silk_ray.cdc.egress import egress_table
    from silk_ray.cdc.engine import EngineConfig, run

    log, n_base = _ensure_cdc_changelog(sf_dir)
    root = tempfile.mkdtemp(prefix="silkray_lake_egr_")
    run(
        root,
        log,
        EngineConfig(
            epoch_size=max(250, n_base), num_partitions=8,
            egress=True, egress_shards=16,
        ),
    )
    return egress_table(root).to_pandas()


def cdc_egress_sql_for(sf_dir: str) -> str:
    """Reproduce the egress stream in DuckDB: LWW snapshot at every
    epoch boundary (epoch = floor(offset/size)+1 — dense offsets,
    duplicate rows removed by DISTINCT), keyed diff of consecutive
    snapshots restricted to keys touched in the epoch (an applied write
    egresses even when values are unchanged — which cannot happen in
    this seeded stream since every write bumps ``commit``), seq =
    row_number over (epoch, md5_number_lower(key) % shards, key)."""
    if not os.path.isdir(sf_dir):
        raise FileNotFoundError(sf_dir)
    log, n_base = _ensure_cdc_changelog(sf_dir)
    sz = max(250, n_base)
    n_epochs = int(pc.max(log["offset"]).as_py()) // sz + 1
    p = _cdc_changelog_path(sf_dir)
    return f"""
WITH log AS (SELECT DISTINCT * FROM read_parquet('{p}')),
eps AS (SELECT UNNEST(range(1, {n_epochs} + 1)) AS e),
snap AS (
  SELECT e, repo, path, commit, lang, content, branch FROM (
    SELECT eps.e AS e, l.*, row_number() OVER (
        PARTITION BY eps.e, l.repo, l.path ORDER BY l."offset" DESC) AS rn
    FROM log l JOIN eps ON l."offset" < eps.e * {sz}
  ) WHERE rn = 1 AND op <> 'D'
),
touched AS (
  SELECT DISTINCT CAST(FLOOR("offset" / {sz}) AS BIGINT) + 1 AS e, repo, path
  FROM log
),
delta AS (
  SELECT t.e, t.repo, t.path,
         CASE WHEN n.repo IS NULL THEN 'D'
              WHEN o.repo IS NULL THEN 'I' ELSE 'U' END AS op,
         n.branch AS new_branch, n.commit AS new_commit,
         n.content AS new_content, n.lang AS new_lang,
         o.branch AS old_branch, o.commit AS old_commit,
         o.content AS old_content, o.lang AS old_lang
  FROM touched t
  LEFT JOIN snap n ON n.e = t.e AND n.repo = t.repo AND n.path = t.path
  LEFT JOIN snap o ON o.e = t.e - 1 AND o.repo = t.repo AND o.path = t.path
  WHERE n.repo IS NOT NULL OR o.repo IS NOT NULL
)
SELECT CAST(row_number() OVER (
         ORDER BY e, md5_number_lower(repo || chr(31) || path) % 16, repo, path
       ) - 1 AS BIGINT) AS seq,
       CAST(e AS BIGINT) AS epoch, op, repo, path,
       new_branch, new_commit, new_content, new_lang,
       old_branch, old_commit, old_content, old_lang
FROM delta
ORDER BY seq
"""


def cdc_clusters(sf_dir: str):
    """The maintained duplicate-cluster table after the full CDC run:
    merge-apply + incremental re-linking + per-epoch incremental
    cluster maintenance (cdc/clusters.py), over the same seeded
    changelog as ``cdc_flagship`` (3 epochs — epochs 2-3 take the
    delta path). Rule = CDC_CLUSTER_RULE (rules.py): lang equality +
    KMV-token Jaccard with LSH-band-only blocking, so the WHOLE
    pipeline (last-writer-wins state → banded linkage → connected
    components) has an exact SQL oracle."""
    import tempfile

    from silk_ray.cdc.clusters import clusters_table
    from silk_ray.cdc.engine import EngineConfig, run
    from silk_ray.pipelines.rules import CDC_CLUSTER_RULE

    log, n_base = _ensure_cdc_changelog(sf_dir)
    root = tempfile.mkdtemp(prefix="silkray_lake_cc_")
    run(
        root,
        log,
        EngineConfig(
            epoch_size=max(250, n_base), num_partitions=8, n_block_partitions=16,
            rule_spec=CDC_CLUSTER_RULE, maintain_clusters=True,
        ),
    )
    t = clusters_table(root).to_pandas()
    return t.sort_values("uri").reset_index(drop=True)


def cdc_clusters_sql_for(sf_dir: str) -> str:
    """End-to-end SQL oracle for the maintained cluster table: the
    last-writer-wins state reduction (as in ``cdc_flagship_sql_for``)
    feeds the LINK_DOCUMENTS_SQL machinery retargeted to
    CDC_CLUSTER_RULE (uri = repo || '//' || path; 18×2 banding over the
    same 36 md5-derived permutations; θ=1.0 so d ≤ 2θ always — no
    cutoff branch), and the kept pairs close under the recursive-CTE
    reachability walk — min reachable uri per uri."""
    if os.path.isdir(sf_dir):
        _ensure_cdc_changelog(sf_dir)
    return rf"""
WITH RECURSIVE state AS (
  SELECT repo, path, lang, content
  FROM (
    SELECT repo, path, lang, content, op,
           row_number() OVER (PARTITION BY repo, path ORDER BY "offset" DESC) AS rn
    FROM (SELECT DISTINCT * FROM read_parquet('{_cdc_changelog_path(sf_dir)}'))
  ) WHERE rn = 1 AND op <> 'D'
),
d AS (
  SELECT repo || '//' || path AS uri, lang,
         string_split_regex(content, '\s') AS w
  FROM state WHERE content IS NOT NULL
),
sh AS (
  SELECT uri, unnest(CASE WHEN len(w) < 3 THEN [array_to_string(w, ' ')]
       ELSE list_transform(generate_series(1, len(w) - 2),
                           i -> array_to_string(w[i:i+2], ' ')) END) AS s
  FROM d
),
kmv AS (
  SELECT uri, s FROM (SELECT DISTINCT uri, s FROM sh)
  QUALIFY row_number() OVER (PARTITION BY uri ORDER BY md5_number_lower(s), s) <= 32
),
perms AS (
  SELECT i, 1 + (md5_number_lower('mhlsh-97-a-' || i) % 4294967295) AS a,
         md5_number_lower('mhlsh-97-b-' || i) % 4294967296 AS b
  FROM (SELECT unnest(generate_series(0, 35)) AS i)
),
sigs AS (
  SELECT uri, i // 2 AS band,
         string_agg(CAST(v AS VARCHAR), ',' ORDER BY i) AS tup
  FROM (
    SELECT uri, i,
           min((CAST(a AS HUGEINT) * (md5_number_lower(s) % 4294967296) + b)
               % 2305843009213693951) AS v
    FROM kmv CROSS JOIN perms GROUP BY uri, i
  ) GROUP BY uri, band
),
cand AS (
  SELECT DISTINCT l.uri AS lid, r.uri AS rid
  FROM sigs l JOIN sigs r ON l.band = r.band AND l.tup = r.tup AND l.uri < r.uri
),
ks AS (SELECT uri, list(s) AS ss FROM kmv GROUP BY uri),
scored AS (
  SELECT c.lid AS source, c.rid AS target,
         (CASE WHEN dl.lang = dr.lang THEN 1.0 ELSE -1.0 END
          + 2.0 * (1.0 - (1.0 - CAST(len(list_intersect(a.ss, b.ss)) AS DOUBLE)
                   / (len(a.ss) + len(b.ss) - len(list_intersect(a.ss, b.ss)))) / 1.0)
         ) / 3.0 AS confidence
  FROM cand c
  JOIN ks a ON a.uri = c.lid JOIN ks b ON b.uri = c.rid
  JOIN d dl ON dl.uri = c.lid JOIN d dr ON dr.uri = c.rid
  WHERE dl.lang IS NOT NULL AND dr.lang IS NOT NULL
),
pairs AS (SELECT source, target FROM scored WHERE confidence >= 0.0),
edges AS (
  SELECT source AS u, target AS v FROM pairs
  UNION
  SELECT target, source FROM pairs
),
walk(node, lbl) AS (
  SELECT u, u FROM edges
  UNION
  SELECT e.v, w2.lbl FROM walk w2 JOIN edges e ON e.u = w2.node
)
SELECT node AS uri, min(lbl) AS cluster_id FROM walk GROUP BY node ORDER BY uri
"""


def _cdc_clusters_sql() -> str:
    # the driver runs correctness at sf0.01 (the registry is static SQL)
    return cdc_clusters_sql_for("/root/testdata/sf0.01")


def cdc_flagship_sql_for(sf_dir: str) -> str:
    """Last-writer-wins SQL oracle over the persisted changelog: the
    generator appends ``dup_frac`` verbatim duplicate events (same
    offset, same payload — DISTINCT removes them), state is the newest
    surviving event per key, keys whose newest event is D are gone.
    The changelog for ``sf_dir`` is generated here if the oracle runs
    before the Ray query — the generation is seeded, so both sides see
    byte-identical events."""
    if os.path.isdir(sf_dir):
        _ensure_cdc_changelog(sf_dir)
    return f"""
SELECT repo, path, commit, lang, content, branch
FROM (
  SELECT repo, path, commit, lang, content, branch, op,
         row_number() OVER (PARTITION BY repo, path ORDER BY "offset" DESC) AS rn
  FROM (SELECT DISTINCT * FROM read_parquet('{_cdc_changelog_path(sf_dir)}'))
)
WHERE rn = 1 AND op <> 'D'
ORDER BY repo, path
"""


def _cdc_flagship_sql() -> str:
    # the driver runs correctness at sf0.01 (the registry is static SQL)
    return cdc_flagship_sql_for("/root/testdata/sf0.01")


def _cdc_multi_changelog_path(sf_dir: str) -> str:
    return _cdc_changelog_path(sf_dir).replace(".parquet", "_multi.parquet")


def _ensure_cdc_multi_changelog(sf_dir: str) -> tuple[pa.Table, int]:
    """A two-table multiplexed binlog (the cdc/demux.py shape): the
    flagship changelog as table ``code`` interleaved with a second
    seeded stream as table ``docs`` (which also schema-evolves
    mid-stream), persisted where the SQL oracle reads it."""
    import pyarrow.parquet as pq

    from silk_ray.cdc.generator import (
        interleave_changelogs,
        make_base_table,
        make_changelog,
    )

    log, n_base = _ensure_cdc_changelog(sf_dir)
    n_docs = max(40, n_base // 3)
    docs = make_changelog(
        make_base_table(n_docs, seed=17), max(200, n_docs * 3), seed=18,
        dup_frac=0.03, evolve_at=max(100, n_docs),
    )
    combined = interleave_changelogs({"code": log, "docs": docs}, seed=19)
    path = _cdc_multi_changelog_path(sf_dir)
    if not os.path.exists(path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = f"{path}.tmp-{os.getpid()}"
        pq.write_table(combined, tmp)
        os.replace(tmp, path)  # atomic: concurrent writers both win
    return combined, n_base


def cdc_multitable(sf_dir: str):
    """Multi-table CDC (cdc/demux.py): one shared binlog with a ``tbl``
    column demuxes into per-table changelog directories (distributed
    map, offsets preserved, deterministic segments) and each table's
    lake runs the ordinary engine on its own stream. Returns the union
    of both final states tagged with ``tbl``; the oracle is one LWW
    window function partitioned by (tbl, repo, path) over the persisted
    multiplexed changelog."""
    import tempfile

    from silk_ray.cdc.demux import run_multi
    from silk_ray.cdc.engine import EngineConfig
    from silk_ray.cdc.merge import state_table

    combined, n_base = _ensure_cdc_multi_changelog(sf_dir)
    root = tempfile.mkdtemp(prefix="silkray_lake_multi_")
    ep = max(200, n_base // 2)
    run_multi(
        root, combined,
        {n: EngineConfig(epoch_size=ep, num_partitions=8) for n in ("code", "docs")},
        demux_epoch=ep * 2,
    )
    frames = []
    for n in ("code", "docs"):
        df = state_table(os.path.join(root, "lakes", n)).to_pandas()
        df.insert(0, "tbl", n)
        frames.append(df)
    out = pd.concat(frames, ignore_index=True)
    return out.sort_values(["tbl", "repo", "path"]).reset_index(drop=True)


def cdc_multitable_sql_for(sf_dir: str) -> str:
    if os.path.isdir(sf_dir):
        _ensure_cdc_multi_changelog(sf_dir)
    return f"""
SELECT tbl, repo, path, commit, lang, content, branch
FROM (
  SELECT tbl, repo, path, commit, lang, content, branch, op,
         row_number() OVER (PARTITION BY tbl, repo, path ORDER BY "offset" DESC) AS rn
  FROM (SELECT DISTINCT * FROM read_parquet('{_cdc_multi_changelog_path(sf_dir)}'))
)
WHERE rn = 1 AND op <> 'D'
ORDER BY tbl, repo, path
"""


def _cdc_txn_changelog_path(sf_dir: str) -> str:
    return _cdc_changelog_path(sf_dir).replace(".parquet", "_txn.parquet")


def _ensure_cdc_txn_changelog(sf_dir: str) -> tuple[pa.Table, int]:
    """The flagship changelog tagged with a binlog-shaped ``txn``
    column (seeded, byte-identical every run), persisted where the SQL
    oracle reads it. One planted transaction is 1.5x the epoch window
    so the run exercises snap_txn_boundary's grow path, not just the
    shrink path."""
    import pyarrow.parquet as pq

    from silk_ray.cdc.generator import assign_txns

    log, n_base = _ensure_cdc_changelog(sf_dir)
    ep = max(100, n_base // 2)
    n_unique = int(pc.max(log["offset"]).as_py()) + 1
    start = n_unique // 3
    size = min(ep + ep // 2, max(2, n_unique - start - 10))
    tagged = assign_txns(log, seed=11, mean_size=5, untagged_frac=0.15,
                         big_txn=(start, size))
    path = _cdc_txn_changelog_path(sf_dir)
    if not os.path.exists(path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = f"{path}.tmp-{os.getpid()}"
        pq.write_table(tagged, tmp)
        os.replace(tmp, path)  # atomic: concurrent writers both win
    return tagged, ep


def cdc_txn(sf_dir: str):
    """The flagship merge under binlog TRANSACTION atomicity
    (EngineConfig.txn_atomic): epoch windows snap to ``txn``-column
    boundaries (merge.snap_txn_boundary — shrink when a transaction
    would split, grow when one swallows the window), so no committed
    epoch ever exposes half a transaction. The window shapes differ
    from every other run of this changelog, but the final state is
    epoch-shape-independent, so the oracle is the same last-writer-wins
    reduction over the persisted tagged changelog — exercising the
    whole txn-snapped execution path behind the hash gate."""
    import tempfile

    from silk_ray.cdc.engine import EngineConfig, run
    from silk_ray.cdc.merge import state_table

    tagged, ep = _ensure_cdc_txn_changelog(sf_dir)
    root = tempfile.mkdtemp(prefix="silkray_lake_txn_")
    run(root, tagged,
        EngineConfig(epoch_size=ep, num_partitions=8, txn_atomic=True))
    return state_table(root).to_pandas().reset_index(drop=True)


def cdc_txn_sql_for(sf_dir: str) -> str:
    """LWW reduction over the txn-tagged changelog (txn itself is meta,
    never payload — excluded from both the lake and the SELECT)."""
    if os.path.isdir(sf_dir):
        _ensure_cdc_txn_changelog(sf_dir)
    return f"""
SELECT repo, path, commit, lang, content, branch
FROM (
  SELECT repo, path, commit, lang, content, branch, op,
         row_number() OVER (PARTITION BY repo, path ORDER BY "offset" DESC) AS rn
  FROM (SELECT DISTINCT * FROM read_parquet('{_cdc_txn_changelog_path(sf_dir)}'))
)
WHERE rn = 1 AND op <> 'D'
ORDER BY repo, path
"""


def cdc_repartitioned(sf_dir: str):
    """The flagship state after a MID-STREAM online repartition
    (cdc/repartition.py): epoch 1 merges under the initial 8-way
    layout, ``repartition_lake(root, 13)`` rewrites the lake 13-way
    (an eventless epoch — two-wave distributed reshuffle of the
    reconciled chains, atomic manifest swap as the sole commit point),
    and the tail resumes under the new pinned count. The final state
    must be byte-identical to an uninterrupted run, so the oracle is
    the same last-writer-wins reduction as ``cdc_flagship`` — the
    partition layout is invisible to the data."""
    import tempfile

    from silk_ray.cdc.engine import EngineConfig, run
    from silk_ray.cdc.merge import state_table
    from silk_ray.cdc.repartition import repartition_lake

    log, n_base = _ensure_cdc_changelog(sf_dir)
    sz = max(250, n_base)
    root = tempfile.mkdtemp(prefix="silkray_lake_rp_")
    run(root, log.filter(pc.less(log["offset"], sz)),
        EngineConfig(epoch_size=sz, num_partitions=8))
    repartition_lake(root, 13)
    run(root, log, EngineConfig(epoch_size=sz, num_partitions=13))
    return state_table(root).to_pandas().reset_index(drop=True)


def cdc_lookup(sf_dir: str):
    """Point lookups over the flagship lake (merge.py ``lookup_keys``):
    a deterministic md5-selected subset of every key the changelog ever
    touched — including deleted keys, which must come back empty — is
    fetched by key→pinned-pid routing plus ``_kh`` row-group-statistics
    pruned chain reads, never a lake scan. Oracle: the last-writer-wins
    state filtered by the same md5 predicate (DuckDB
    ``md5_number_lower``)."""
    import tempfile

    from silk_ray.cdc.engine import EngineConfig, run
    from silk_ray.cdc.merge import lookup_keys
    from silk_ray.kernel.index import md5_lower64

    log, n_base = _ensure_cdc_changelog(sf_dir)
    root = tempfile.mkdtemp(prefix="silkray_lake_lk_")
    run(root, log, EngineConfig(epoch_size=max(250, n_base), num_partitions=8))
    keys = sorted(
        {
            (r, p)
            for r, p in zip(log["repo"].to_pylist(), log["path"].to_pylist())
            if md5_lower64(f"{r}\x1f{p}") % 23 == 7
        }
    )
    return lookup_keys(root, keys).to_pandas().reset_index(drop=True)


def cdc_lookup_sql_for(sf_dir: str) -> str:
    """The flagship LWW reduction restricted to the looked-up key set:
    md5-lower-64(repo ␟ path) % 23 == 7 over every key in the
    changelog (keys whose newest event is D produce no row, matching a
    point lookup of a deleted key)."""
    if os.path.isdir(sf_dir):
        _ensure_cdc_changelog(sf_dir)
    return f"""
SELECT repo, path, commit, lang, content, branch
FROM (
  SELECT repo, path, commit, lang, content, branch, op,
         row_number() OVER (PARTITION BY repo, path ORDER BY "offset" DESC) AS rn
  FROM (SELECT DISTINCT * FROM read_parquet('{_cdc_changelog_path(sf_dir)}'))
)
WHERE rn = 1 AND op <> 'D'
  AND md5_number_lower(repo || chr(31) || path) % 23 = 7
ORDER BY repo, path
"""


def _cdc_lookup_sql() -> str:
    return cdc_lookup_sql_for("/root/testdata/sf0.01")


def cdc_erased(sf_dir: str):
    """Predicate erasure through the binlog (cdc/erase.py): tail the
    flagship changelog, emit D events for every live ``lang == 'go'``
    row (appended to the changelog directory as an ordinary segment),
    tail again. Because the erasure deletes exactly the live matching
    keys and nothing after it touches them, the final state equals the
    flagship's LWW reduction minus the erased language — the oracle
    filter is one WHERE clause."""
    import tempfile

    from silk_ray.cdc.engine import EngineConfig, run
    from silk_ray.cdc.erase import erase_where
    from silk_ray.cdc.generator import write_changelog_segments
    from silk_ray.cdc.merge import state_table

    log, n_base = _ensure_cdc_changelog(sf_dir)
    sz = max(250, n_base)
    d = tempfile.mkdtemp(prefix="silkray_cl_er_")
    write_changelog_segments(log, d, segment_size=sz)
    root = tempfile.mkdtemp(prefix="silkray_lake_er_")
    cfg = EngineConfig(epoch_size=sz, num_partitions=8)
    run(root, d, cfg)
    erase_where(root, d, {"column": "lang", "op": "==", "value": "go"})
    run(root, d, cfg)
    return state_table(root).to_pandas().reset_index(drop=True)


def cdc_erased_sql_for(sf_dir: str) -> str:
    """The flagship LWW reduction with the erased predicate dropped."""
    if os.path.isdir(sf_dir):
        _ensure_cdc_changelog(sf_dir)
    return f"""
SELECT repo, path, commit, lang, content, branch
FROM (
  SELECT repo, path, commit, lang, content, branch, op,
         row_number() OVER (PARTITION BY repo, path ORDER BY "offset" DESC) AS rn
  FROM (SELECT DISTINCT * FROM read_parquet('{_cdc_changelog_path(sf_dir)}'))
)
WHERE rn = 1 AND op <> 'D' AND (lang <> 'go' OR lang IS NULL)
ORDER BY repo, path
"""


def _cdc_erased_sql() -> str:
    return cdc_erased_sql_for("/root/testdata/sf0.01")


def cdc_rewritten(sf_dir: str):
    """SET ... WHERE ... through the binlog (cdc/erase.py
    ``rewrite_where``): tail the flagship changelog, rewrite every live
    ``path`` containing ``_01.md`` — lang upper-cased (the enrichment
    transform DSL) plus an evolution-added ``reviewed='yes'`` column —
    as U events carrying the full payload, tail again. The final state
    equals the flagship LWW reduction with two CASE expressions."""
    import tempfile

    from silk_ray.cdc.engine import EngineConfig, run
    from silk_ray.cdc.erase import rewrite_where
    from silk_ray.cdc.generator import write_changelog_segments
    from silk_ray.cdc.merge import state_table

    log, n_base = _ensure_cdc_changelog(sf_dir)
    sz = max(250, n_base)
    d = tempfile.mkdtemp(prefix="silkray_cl_rw_")
    write_changelog_segments(log, d, segment_size=sz)
    root = tempfile.mkdtemp(prefix="silkray_lake_rw_")
    cfg = EngineConfig(epoch_size=sz, num_partitions=8)
    run(root, d, cfg)
    rewrite_where(
        root, d,
        {"column": "path", "op": "contains", "value": "_01.md"},
        [{"target": "lang",
          "input": {"transform": "upperCase", "inputs": [{"path": "lang"}]}},
         {"target": "reviewed",
          "input": {"transform": "constant", "params": {"value": "yes"},
                    "inputs": []}}],
    )
    run(root, d, cfg)
    return state_table(root).to_pandas().reset_index(drop=True)


def cdc_rewritten_sql_for(sf_dir: str) -> str:
    """The flagship LWW reduction with the rewrite as CASE expressions
    (the rewrite is the stream's last word on the matched keys)."""
    if os.path.isdir(sf_dir):
        _ensure_cdc_changelog(sf_dir)
    return f"""
SELECT repo, path, commit,
       CASE WHEN contains(path, '_01.md') THEN upper(lang) ELSE lang END AS lang,
       content, branch,
       CASE WHEN contains(path, '_01.md') THEN 'yes' END AS reviewed
FROM (
  SELECT repo, path, commit, lang, content, branch, op,
         row_number() OVER (PARTITION BY repo, path ORDER BY "offset" DESC) AS rn
  FROM (SELECT DISTINCT * FROM read_parquet('{_cdc_changelog_path(sf_dir)}'))
)
WHERE rn = 1 AND op <> 'D'
ORDER BY repo, path
"""


def _cdc_rewritten_sql() -> str:
    return cdc_rewritten_sql_for("/root/testdata/sf0.01")


def cdc_scan(sf_dir: str):
    """Column-pruned, predicate-filtered lake scan (merge.py
    ``scan_dataset``): over the flagship lake, project (lang, commit)
    and keep only lang ∈ {py, go} — the parquet reads are projected per
    file, so the wide ``content`` column never leaves storage. Oracle:
    the LWW reduction with the same SELECT list and WHERE."""
    import tempfile

    from silk_ray.cdc.engine import EngineConfig, run
    from silk_ray.cdc.merge import scan_dataset

    log, n_base = _ensure_cdc_changelog(sf_dir)
    root = tempfile.mkdtemp(prefix="silkray_lake_sc_")
    run(root, log, EngineConfig(epoch_size=max(250, n_base), num_partitions=8))
    ds = scan_dataset(
        root,
        columns=["lang", "commit"],
        where={"column": "lang", "op": "in", "value": ["py", "go"]},
    )
    df = ds.to_pandas()
    return df.sort_values(["repo", "path"]).reset_index(drop=True)


def cdc_scan_sql_for(sf_dir: str) -> str:
    if os.path.isdir(sf_dir):
        _ensure_cdc_changelog(sf_dir)
    return f"""
SELECT repo, path, lang, commit
FROM (
  SELECT repo, path, commit, lang, op,
         row_number() OVER (PARTITION BY repo, path ORDER BY "offset" DESC) AS rn
  FROM (SELECT DISTINCT * FROM read_parquet('{_cdc_changelog_path(sf_dir)}'))
)
WHERE rn = 1 AND op <> 'D' AND lang IN ('py', 'go')
ORDER BY repo, path
"""


def _cdc_scan_sql() -> str:
    return cdc_scan_sql_for("/root/testdata/sf0.01")


_CDC_ENRICH_RULES = [
    {"target": "lang_upper",
     "input": {"transform": "upperCase", "inputs": [{"path": "lang"}]}},
    {"target": "path_num",
     "input": {"transform": "regexExtract", "params": {"regex": "[0-9]+"},
               "inputs": [{"path": "path"}]},
     "value_type": "LongValueType"},
]


def cdc_enriched(sf_dir: str):
    """CDC tail with ingest-time enrichment: transform rules (incl. a
    typed ValueType target) run inside the read tasks, their targets
    land as lake payload columns. Final state == SQL LWW reduction with
    the same expressions computed on the surviving event."""
    import tempfile

    from silk_ray.cdc.engine import EngineConfig, run
    from silk_ray.cdc.merge import state_table

    log, n_base = _ensure_cdc_changelog(sf_dir)
    root = tempfile.mkdtemp(prefix="silkray_lake_")
    run(root, log, EngineConfig(epoch_size=max(250, n_base), num_partitions=8,
                                enrich_rules=_CDC_ENRICH_RULES))
    return state_table(root).to_pandas().reset_index(drop=True)


def cdc_enriched_sql_for(sf_dir: str) -> str:
    """The flagship LWW oracle plus the enrichment expressions: the
    engine enriches at event time and LWW keeps the newest event whole-
    row, so computing the same expressions on the LWW survivor is
    equivalent. regexp_extract('', ...) -> NULLIF '' mirrors the empty
    transformer output -> null."""
    if os.path.isdir(sf_dir):
        _ensure_cdc_changelog(sf_dir)
    return f"""
SELECT repo, path, commit, lang, content, branch,
       upper(lang) AS lang_upper,
       CAST(NULLIF(regexp_extract(path, '[0-9]+'), '') AS BIGINT) AS path_num
FROM (
  SELECT repo, path, commit, lang, content, branch, op,
         row_number() OVER (PARTITION BY repo, path ORDER BY "offset" DESC) AS rn
  FROM (SELECT DISTINCT * FROM read_parquet('{_cdc_changelog_path(sf_dir)}'))
)
WHERE rn = 1 AND op <> 'D'
ORDER BY repo, path
"""


# bump when the evolution recipe changes (same contract as _CDC_ORACLE_V)
_CDC_EV_V = 1


def _cdc_ev_changelog_path(sf_dir: str) -> str:
    import hashlib

    h = hashlib.sha1(os.path.abspath(sf_dir).encode()).hexdigest()[:12]
    return f"/tmp/silkray_cdc_oracle/changelog_ev_{h}_v{_CDC_EV_V}.parquet"


def _ensure_cdc_ev_changelog(sf_dir: str) -> tuple[pa.Table, int]:
    """A flagship-shaped changelog WITH mid-stream schema evolution
    (``branch`` non-null from the halfway row on), persisted so the
    DuckDB oracle can filter the same physical rows by the
    closed-world predicate strict ingest applies."""
    import pyarrow.parquet as pq

    from silk_ray.cdc.generator import make_changelog

    base = base_from_documents(sf_dir)
    n = max(500, base.num_rows * 3)
    log = make_changelog(base, n, seed=5, dup_frac=0.02, evolve_at=n // 2)
    path = _cdc_ev_changelog_path(sf_dir)
    if not os.path.exists(path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = f"{path}.tmp-{os.getpid()}"
        pq.write_table(log, tmp)
        os.replace(tmp, path)  # atomic: concurrent writers both win
    return log, base.num_rows


def cdc_strict(sf_dir: str):
    """Closed-world ingest over an evolving stream: the engine tails a
    changelog whose ``branch`` column turns non-null mid-stream, with
    ``strict_columns`` declaring only (commit, lang, content) — every
    post-evolution row quarantines with ``unknown_column:branch`` and
    the lake state is the LWW reduction of exactly the pre-evolution
    (branch-null) rows. Oracle: the same predicate as one SQL WHERE
    before the window function."""
    import tempfile

    from silk_ray.cdc.engine import EngineConfig, run
    from silk_ray.cdc.merge import state_table

    log, n_base = _ensure_cdc_ev_changelog(sf_dir)
    root = tempfile.mkdtemp(prefix="silkray_lake_st_")
    run(
        root,
        log,
        EngineConfig(
            epoch_size=max(250, n_base), num_partitions=8,
            payload_schema={
                "commit": "StringValueType",
                "lang": "StringValueType",
                "content": "StringValueType",
            },
            strict_columns=True,
        ),
    )
    df = state_table(root).to_pandas().reset_index(drop=True)
    return df.drop(columns=[c for c in ("branch",) if c in df.columns])


def cdc_strict_sql_for(sf_dir: str) -> str:
    if os.path.isdir(sf_dir):
        _ensure_cdc_ev_changelog(sf_dir)
    return f"""
SELECT repo, path, commit, lang, content
FROM (
  SELECT repo, path, commit, lang, content, op,
         row_number() OVER (PARTITION BY repo, path ORDER BY "offset" DESC) AS rn
  FROM (SELECT DISTINCT * FROM read_parquet('{_cdc_ev_changelog_path(sf_dir)}'))
  WHERE branch IS NULL
)
WHERE rn = 1 AND op <> 'D'
ORDER BY repo, path
"""


def _cdc_strict_sql() -> str:
    return cdc_strict_sql_for("/root/testdata/sf0.01")


# bump when the corruption recipe changes (same contract as _CDC_ORACLE_V)
_CDC_DLQ_V = 1


def _cdc_dlq_changelog_path(sf_dir: str) -> str:
    import hashlib

    h = hashlib.sha1(os.path.abspath(sf_dir).encode()).hexdigest()[:12]
    return f"/tmp/silkray_cdc_oracle/changelog_dlq_{h}_v{_CDC_DLQ_V}.parquet"


def _ensure_cdc_dlq_changelog(sf_dir: str) -> tuple[pa.Table, int]:
    """The flagship changelog with deterministic malformations injected
    — every 13th row cycles op='X' / op=NULL / repo='' / path=NULL —
    persisted so the DuckDB oracle can filter the SAME physical rows by
    the structural-validity predicate the engine's read-split stage
    applies (cdc/merge.py `_validate_events`). Driver-side row loop is
    oracle-tier generation only (≤ sf0.1), not an engine path."""
    import pyarrow.parquet as pq

    log, n_base = _ensure_cdc_changelog(sf_dir)
    rows = log.to_pylist()
    for i in range(0, len(rows), 13):
        kind = (i // 13) % 4
        if kind == 0:
            rows[i]["op"] = "X"
        elif kind == 1:
            rows[i]["op"] = None
        elif kind == 2:
            rows[i]["repo"] = ""
        else:
            rows[i]["path"] = None
    bad = pa.Table.from_pylist(rows, schema=log.schema)
    path = _cdc_dlq_changelog_path(sf_dir)
    if not os.path.exists(path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = f"{path}.tmp-{os.getpid()}"
        pq.write_table(bad, tmp)
        os.replace(tmp, path)  # atomic: concurrent writers both win
    return bad, n_base


def cdc_deadletter(sf_dir: str):
    """Dead-letter quarantine surface: the engine tails the flagship
    changelog with injected malformed events (unknown/null op, empty
    repo, null path) and quarantines them to the DLQ instead of
    crashing or mis-applying; returns the quarantined rows. Exact SQL
    oracle: the same persisted parquet filtered by the identical
    structural predicate. State correctness on the valid subset is
    pinned by tests/test_deadletter.py."""
    import tempfile

    from silk_ray.cdc.engine import EngineConfig, run
    from silk_ray.cdc.merge import dead_letters_table

    log, n_base = _ensure_cdc_dlq_changelog(sf_dir)
    root = tempfile.mkdtemp(prefix="silkray_lake_dlq_")
    run(root, log, EngineConfig(epoch_size=max(250, n_base), num_partitions=8))
    t = dead_letters_table(root).select(["offset", "op", "repo", "path", "reason"])
    out = t.to_pandas()
    return out.sort_values(["offset", "reason"]).reset_index(drop=True)


def cdc_deadletter_sql_for(sf_dir: str) -> str:
    """The structural-validity predicate of `_validate_events` in SQL,
    over the persisted corrupted changelog (reason priority matches:
    bad op wins over bad key)."""
    if os.path.isdir(sf_dir):
        _ensure_cdc_dlq_changelog(sf_dir)
    return f"""
SELECT "offset", op, repo, path,
       CASE WHEN op IS NULL OR op NOT IN ('I', 'U', 'D')
            THEN 'unknown_op' ELSE 'null_key' END AS reason
FROM read_parquet('{_cdc_dlq_changelog_path(sf_dir)}')
WHERE (op IS NULL OR op NOT IN ('I', 'U', 'D'))
   OR (repo IS NULL OR len(repo) = 0)
   OR (path IS NULL OR len(path) = 0)
ORDER BY "offset", reason
"""


def _cdc_deadletter_sql() -> str:
    # the driver runs correctness at sf0.01 (the registry is static SQL)
    return cdc_deadletter_sql_for("/root/testdata/sf0.01")


def _cdc_tdd_changelog_path(sf_dir: str) -> str:
    return _cdc_changelog_path(sf_dir).replace(".parquet", "_tdd.parquet")


def _ensure_cdc_tdd_changelog(sf_dir: str) -> tuple[pa.Table, int]:
    """The triple-composition changelog: the two-table multiplexed
    binlog (code + docs incl. the docs mid-stream schema evolution)
    tagged with binlog transactions, then deterministically malformed
    — every 17th row cycles op='X' / op=NULL / repo='' / path=NULL.
    Driver-side row loop is oracle-tier generation only (≤ sf0.1).
    When the persisted file exists it is returned, so the engine reads
    the very rows the SQL oracle reads."""
    import pyarrow.parquet as pq

    from silk_ray.cdc.generator import assign_txns

    path = _cdc_tdd_changelog_path(sf_dir)
    if os.path.exists(path):
        # base_from_documents keeps one row per document
        n_base = pq.read_metadata(os.path.join(sf_dir, "documents.parquet")).num_rows
        return pq.read_table(path), n_base
    combined, n_base = _ensure_cdc_multi_changelog(sf_dir)
    tagged = assign_txns(combined, seed=23, mean_size=6, untagged_frac=0.2)
    rows = tagged.to_pylist()
    for i in range(0, len(rows), 17):
        kind = (i // 17) % 4
        if kind == 0:
            rows[i]["op"] = "X"
        elif kind == 1:
            rows[i]["op"] = None
        elif kind == 2:
            rows[i]["repo"] = ""
        else:
            rows[i]["path"] = None
    bad = pa.Table.from_pylist(rows, schema=tagged.schema)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.tmp-{os.getpid()}"
    pq.write_table(bad, tmp)
    os.replace(tmp, path)  # atomic: concurrent writers both win
    return bad, n_base


def cdc_txn_dlq_demux(sf_dir: str):
    """Txn × DLQ × demux composed end-to-end (VERDICT r4 #8): one
    multiplexed binlog carrying transactions AND malformed events
    demuxes under txn-aligned cuts (demux.py txn_snap) into two
    txn-atomic per-table engines, each quarantining its own malformed
    rows. Returns one frame — kind='state' rows (the LWW survivor per
    (tbl, repo, path) over structurally-valid events) unioned with
    kind='dlq' rows (one per quarantined physical event, reason in
    ``content``, offset in ``commit``) — so a single value-hash pins
    the whole composition."""
    import tempfile

    from silk_ray.cdc.demux import run_multi
    from silk_ray.cdc.engine import EngineConfig
    from silk_ray.cdc.merge import dead_letters_table, state_table

    combined, n_base = _ensure_cdc_tdd_changelog(sf_dir)
    root = tempfile.mkdtemp(prefix="silkray_lake_tdd_")
    ep = max(200, n_base // 2)
    run_multi(
        root, combined,
        {n: EngineConfig(epoch_size=ep, num_partitions=8, txn_atomic=True)
         for n in ("code", "docs")},
        demux_epoch=ep * 2,
    )
    frames = []
    for n in ("code", "docs"):
        lake = os.path.join(root, "lakes", n)
        st = state_table(lake).to_pandas()
        st["kind"], st["tbl"] = "state", n
        frames.append(st[["kind", "tbl", "repo", "path", "commit", "content"]])
        dl = dead_letters_table(lake).to_pandas()
        frames.append(pd.DataFrame({
            "kind": "dlq", "tbl": n,
            "repo": dl["repo"].fillna(""), "path": dl["path"].fillna(""),
            "commit": dl["offset"].astype("int64").astype(str),
            "content": dl["reason"],
        }))
    out = pd.concat(frames, ignore_index=True)
    return out.sort_values(["kind", "tbl", "repo", "path", "commit"]).reset_index(drop=True)


def cdc_txn_dlq_demux_sql_for(sf_dir: str) -> str:
    if os.path.isdir(sf_dir):
        _ensure_cdc_tdd_changelog(sf_dir)
    p = _cdc_tdd_changelog_path(sf_dir)
    return f"""
WITH valid AS (
  SELECT DISTINCT * FROM read_parquet('{p}')
  WHERE NOT (op IS NULL OR op NOT IN ('I', 'U', 'D')
         OR repo IS NULL OR len(repo) = 0 OR path IS NULL OR len(path) = 0)
)
SELECT kind, tbl, repo, path, commit, content FROM (
  SELECT 'state' AS kind, tbl, repo, path, commit, content FROM (
    SELECT tbl, repo, path, commit, content, op,
           row_number() OVER (PARTITION BY tbl, repo, path ORDER BY "offset" DESC) AS rn
    FROM valid
  ) WHERE rn = 1 AND op <> 'D'
  UNION ALL
  SELECT 'dlq' AS kind, tbl, COALESCE(repo, '') AS repo, COALESCE(path, '') AS path,
         CAST("offset" AS VARCHAR) AS commit,
         CASE WHEN op IS NULL OR op NOT IN ('I', 'U', 'D')
              THEN 'unknown_op' ELSE 'null_key' END AS content
  FROM read_parquet('{p}')
  WHERE (op IS NULL OR op NOT IN ('I', 'U', 'D'))
     OR (repo IS NULL OR len(repo) = 0) OR (path IS NULL OR len(path) = 0)
)
ORDER BY kind, tbl, repo, path, commit
"""


def _cdc_tdd_sql() -> str:
    return cdc_txn_dlq_demux_sql_for("/root/testdata/sf0.01")


def base_from_documents(sf_dir: str) -> pa.Table:
    """Adapt the documents table into the input_hint repo-file shape."""
    import pyarrow.parquet as pq

    from silk_ray.cdc.generator import pseudo_sha

    import hashlib

    docs = pq.read_table(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text", "lang", "source"]
    ).sort_by("doc_id")
    rows = docs.to_pylist()
    # content-derived diverse filenames: a shared template name (e.g.
    # doc_000123.md for everyone) would put ALL files into the same
    # Levenshtein q-gram blocks — a blocking pathology, not a corpus
    paths = [
        f"docs/{hashlib.sha1(str(r['doc_id']).encode()).hexdigest()[:10]}_{r['doc_id'] % 100:02d}.md"
        for r in rows
    ]
    return pa.table(
        {
            "repo": pa.array([f"repo-{r['source']}" for r in rows], pa.string()),
            "path": pa.array(paths, pa.string()),
            "commit": pa.array(
                [pseudo_sha(f"repo-{r['source']}", p, 0) for r, p in zip(rows, paths)],
                pa.string(),
            ),
            "lang": pa.array([r["lang"] for r in rows], pa.string()),
            "content": pa.array([r["text"] for r in rows], pa.string()),
        }
    )


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


def build_queries():
    return {
        "q1_pricing_summary": q1_pricing_summary,
        "q3_revenue_topk": q3_revenue_topk,
        "q5_local_supplier": q5_local_supplier,
        "q10_returned_items": q10_returned_items,
        "revenue_per_nation": revenue_per_nation,
        "top_orders": top_orders,
        "mktsegment_counts": mktsegment_counts,
        "events_daily": events_daily,
        "events_latest_state": events_latest_state,
        "events_sessionize": events_sessionize,
        "events_asof_prev": events_asof_prev,
        "events_window_pairs": events_window_pairs,
        "events_windowed": events_windowed,
        "events_windowed_late": events_windowed_late,
        "doc_token_stats": doc_token_stats,
        "doc_fingerprint": doc_fingerprint,
        "dedup_exact": dedup_exact,
        "doc_quality": doc_quality,
        "transform_normalize": transform_normalize,
        "transform_typed": transform_typed,
        "knn_cosine": knn_cosine,
        "label_stats": label_stats,
        "link_names": link_names,
        "dedup_simhash": dedup_simhash,
        "dedup_minhash": dedup_minhash,
        "dedup_clusters": dedup_clusters,
        "dedup_survivors": dedup_survivors,
        "lang_id": lang_id,
        "dedup_ngram_jaccard": dedup_ngram_jaccard,
        "dedup_embedding": dedup_embedding,
        "link_documents": link_documents,
        "knn_lsh": knn_lsh_q,
        "knn_ivf": knn_ivf_q,
        # conformance runs check only the first 50 entries: every query
        # with an oracle SQL of its own sits above that line
        "source_xml_stream": source_xml_stream,
        "sample_stratified": sample_stratified,
        "cdc_flagship": cdc_flagship,
        "cdc_txn": cdc_txn,
        "cdc_multitable": cdc_multitable,
        "cdc_agg": cdc_agg,
        "cdc_egress": cdc_egress,
        "cdc_lookup": cdc_lookup,
        "cdc_erased": cdc_erased,
        "cdc_rewritten": cdc_rewritten,
        "cdc_scan": cdc_scan,
        "cdc_strict": cdc_strict,
        "cdc_clusters": cdc_clusters,
        "cdc_deadletter": cdc_deadletter,
        "cdc_txn_dlq_demux": cdc_txn_dlq_demux,
        "cdc_enriched": cdc_enriched,
        "source_json_stream": source_json_stream,
        # the last two: no oracle (a fixed-seed fingerprint pinned in
        # tests/test_learning.py), and cdc_flagship's oracle SQL
        "learn_linkage_rule": learn_linkage_rule,
        "cdc_repartitioned": cdc_repartitioned,
    }


def build_oracle_sql():
    return {
        "q1_pricing_summary": Q1_SQL,
        "q3_revenue_topk": Q3_SQL,
        "q5_local_supplier": Q5_SQL,
        "q10_returned_items": Q10_SQL,
        "revenue_per_nation": REVENUE_PER_NATION_SQL,
        "top_orders": TOP_ORDERS_SQL,
        "mktsegment_counts": MKTSEGMENT_SQL,
        "events_daily": EVENTS_DAILY_SQL,
        "events_latest_state": EVENTS_LATEST_SQL,
        "events_sessionize": EVENTS_SESSIONIZE_SQL,
        "events_asof_prev": EVENTS_ASOF_SQL,
        "events_window_pairs": EVENTS_WINDOW_PAIRS_SQL,
        "events_windowed": events_windowed_sql_for("/root/testdata/sf0.01"),
        "source_json_stream": source_json_stream_sql_for("/root/testdata/sf0.01"),
        "source_xml_stream": SOURCE_XML_STREAM_SQL,
        "sample_stratified": SAMPLE_STRATIFIED_SQL,
        "events_windowed_late": events_windowed_late_sql_for("/root/testdata/sf0.01"),
        "doc_token_stats": DOC_TOKEN_STATS_SQL,
        "doc_fingerprint": DOC_FINGERPRINT_SQL,
        "dedup_exact": DEDUP_EXACT_SQL,
        "doc_quality": DOC_QUALITY_SQL,
        "transform_normalize": TRANSFORM_NORMALIZE_SQL,
        "transform_typed": TRANSFORM_TYPED_SQL,
        "knn_cosine": KNN_COSINE_SQL,
        "knn_lsh": KNN_LSH_SQL,
        "knn_ivf": KNN_IVF_SQL,
        "label_stats": LABEL_STATS_SQL,
        "dedup_embedding": DEDUP_EMBEDDING_SQL,
        "dedup_minhash": DEDUP_MINHASH_SQL,
        "dedup_clusters": DEDUP_CLUSTERS_SQL,
        "dedup_survivors": DEDUP_SURVIVORS_SQL,
        "dedup_simhash": DEDUP_SIMHASH_SQL,
        "lang_id": _lang_id_sql(),
        "dedup_ngram_jaccard": NGRAM_JACCARD_SQL,
        "link_names": LINK_NAMES_SQL,
        "link_documents": LINK_DOCUMENTS_SQL,
        "cdc_flagship": _cdc_flagship_sql(),
        "cdc_txn": cdc_txn_sql_for("/root/testdata/sf0.01"),
        "cdc_multitable": cdc_multitable_sql_for("/root/testdata/sf0.01"),
        "cdc_agg": cdc_agg_sql_for("/root/testdata/sf0.01"),
        "cdc_egress": cdc_egress_sql_for("/root/testdata/sf0.01"),
        "cdc_repartitioned": _cdc_flagship_sql(),
        "cdc_lookup": _cdc_lookup_sql(),
        "cdc_erased": _cdc_erased_sql(),
        "cdc_rewritten": _cdc_rewritten_sql(),
        "cdc_scan": _cdc_scan_sql(),
        "cdc_strict": _cdc_strict_sql(),
        "cdc_clusters": _cdc_clusters_sql(),
        "cdc_deadletter": _cdc_deadletter_sql(),
        "cdc_txn_dlq_demux": _cdc_tdd_sql(),
        "cdc_enriched": cdc_enriched_sql_for("/root/testdata/sf0.01"),
    }
