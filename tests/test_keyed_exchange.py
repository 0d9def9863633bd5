"""Every user of ``relational.keyed_exchange`` against a driver-side
pyarrow / pandas reference, on inputs built to stress the exchange:

- ``rd.from_arrow`` over many tiny tables, some of them zero-row, with
  far fewer distinct keys than blocks, so that empty range blocks
  really occur after the sort;
- null keys (each site's null semantics is pinned in its docstring);
- string and int ids;
- one hot key holding most rows.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

N_TABLES = 24


def _ids(kind: str, n: int):
    return [f"id{i}" if kind == "str" else i for i in range(n)]


def _key_type(kind: str):
    return pa.string() if kind == "str" else pa.int64()


def _fact_rows(kind: str, seed: int = 0) -> list[dict]:
    """~150 rows: key 0 is hot (most rows), keys 1-4 are rare, ~8% of
    keys are null; ``t`` is an ordering value (a few nulls), ``v`` a
    row id."""
    rng = np.random.default_rng(seed)
    ids = _ids(kind, 5)
    rows = []
    for v in range(150):
        r = rng.random()
        k = None if r < 0.08 else ids[0] if r < 0.7 else ids[int(rng.integers(1, 5))]
        t = None if rng.random() < 0.05 else int(rng.integers(0, 40))
        rows.append({"k": k, "t": t, "v": v})
    return rows


def _blocks(rows: list[dict], schema: pa.Schema):
    """Many tiny blocks, every third one zero-row."""
    import ray.data as rd

    n_live = N_TABLES - N_TABLES // 3
    parts = [rows[j::n_live] for j in range(n_live)]
    tables = [pa.Table.from_pylist([] if i % 3 == 2 else parts.pop(), schema=schema) for i in range(N_TABLES)]
    ds = rd.from_arrow(tables)
    assert ds.num_blocks() == N_TABLES
    return ds


def _fact(kind: str):
    rows = _fact_rows(kind)
    schema = pa.schema([("k", _key_type(kind)), ("t", pa.int64()), ("v", pa.int64())])
    return rows, _blocks(rows, schema)


def _dim(kind: str):
    """Unique keys: two fact keys (the hot one included), one key no fact
    row has, and a null key."""
    ids = _ids(kind, 7)
    rows = [{"k": ids[0], "val": 100}, {"k": ids[2], "val": 102}, {"k": ids[6], "val": 106},
            {"k": None, "val": -1}]
    schema = pa.schema([("k", _key_type(kind)), ("val", pa.int64())])
    return rows, _blocks(rows, schema)


def _rows(ds, cols) -> list[tuple]:
    out = [tuple(r[c] for c in cols) for r in ds.take_all()]
    return sorted(out, key=lambda r: tuple((x is None, x) for x in r))


def _sorted(rows) -> list[tuple]:
    return sorted(rows, key=lambda r: tuple((x is None, x) for x in r))


KINDS = ["str", "int"]


def test_empty_blocks_never_reach_reduce(ray_session):
    """The sort really emits zero-row blocks on these inputs, and
    ``reduce`` only ever runs on non-empty ones."""
    import ray

    from silk_ray.pipelines.relational import keyed_exchange

    rows, ds = _fact("str")

    def count(b: pa.Table) -> pa.Table:
        assert b.num_rows > 0 and "__xkey" not in b.column_names
        return b.group_by("k").aggregate([("v", "count")])

    out = keyed_exchange(ds, "k", count).materialize()
    blocks = [ray.get(r) for r in out.get_internal_block_refs()]
    assert any(b.num_rows == 0 for b in blocks)
    want = pd.DataFrame(rows).groupby("k", dropna=False).size()
    got = {r["k"]: r["v_count"] for r in out.take_all()}
    assert len(got) == len(want)  # each key, the null key too, in one block
    assert got == {(None if pd.isna(k) else k): n for k, n in want.items()}


@pytest.mark.parametrize("kind", KINDS)
def test_lookup_semi_anti(ray_session, kind):
    from silk_ray.pipelines.relational import (
        shuffle_anti_filter,
        shuffle_lookup,
        shuffle_semi_filter,
    )

    rows, fact = _fact(kind)
    dim_rows, dim = _dim(kind)
    vals = {d["k"]: d["val"] for d in dim_rows if d["k"] is not None}
    cols = ["k", "t", "v"]

    got = _rows(shuffle_lookup(fact, "k", dim, "k", "val", "out"), cols + ["out"])
    want = [(r["k"], r["t"], r["v"], vals[r["k"]]) for r in rows if r["k"] in vals]
    assert got == _sorted(want)

    got = _rows(shuffle_semi_filter(fact, "k", dim, "k"), cols)
    assert got == _sorted((r["k"], r["t"], r["v"]) for r in rows if r["k"] in vals)

    # the anti-join keeps null-keyed rows: a null matches nothing
    got = _rows(shuffle_anti_filter(fact, "k", dim, "k"), cols)
    want = [(r["k"], r["t"], r["v"]) for r in rows if r["k"] not in vals]
    assert any(r[0] is None for r in want)
    assert got == _sorted(want)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("coalesce", [None, 1])
def test_grouped_apply(ray_session, kind, coalesce):
    """Null keys drop (pandas ``dropna``); ``coalesce=1`` is the shape of
    the per-query / per-language top-k merges. ``summarise`` fails on an
    empty group, so it must only ever see real groups, and its int64
    column stays int64."""
    from silk_ray.pipelines.relational import grouped_apply

    rows, fact = _fact(kind)

    def summarise(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"k": g["k"].head(1), "n": [len(g)], "top_v": [int(g["v"].max())]}
        )

    out = grouped_apply(fact, "k", summarise, coalesce=coalesce)
    assert str(out.to_pandas()["top_v"].dtype) == "int64"
    got = _rows(out, ["k", "n", "top_v"])
    df = pd.DataFrame([r for r in rows if r["k"] is not None])
    want = [(k, len(g), int(g["v"].max())) for k, g in df.groupby("k")]
    assert got == _sorted(want)


def _asof_want(rows, strict: bool):
    """Each left row's latest predecessor within its key: the greatest
    ``t`` before (or at, non-strict) its own; ties by the greatest ``v``."""
    live = [r for r in rows if r["k"] is not None and r["t"] is not None]
    out = []
    for l in live:
        prev = [
            r for r in live
            if r["k"] == l["k"] and (r["t"] < l["t"] if strict else r["t"] <= l["t"])
        ]
        if prev:
            best = max(prev, key=lambda r: (r["t"], r["v"]))
            out.append((l["k"], l["t"], l["v"], best["v"]))
    return _sorted(out)


@pytest.mark.parametrize("kind", KINDS)
def test_asof_and_range_join(ray_session, kind):
    """Rows with a null key or a null ``t`` match nothing."""
    from silk_ray.pipelines.relational import asof_join, range_join

    rows, fact = _fact(kind)
    for strict in (True, False):
        out = asof_join(fact, fact, by="k", on="t", value_cols={"v": "prev_v"}, strict=strict)
        assert _rows(out, ["k", "t", "v", "prev_v"]) == _asof_want(rows, strict)

    out = range_join(fact, fact, by="k", on="t", lo=-3, hi=0, value_cols={"v": "match_v"})
    live = [r for r in rows if r["k"] is not None and r["t"] is not None]
    want = [
        (l["k"], l["t"], l["v"], r["v"])
        for l in live for r in live
        if r["k"] == l["k"] and l["t"] - 3 <= r["t"] < l["t"]
    ]
    assert _rows(out, ["k", "t", "v", "match_v"]) == _sorted(want)


@pytest.mark.parametrize("kind", KINDS)
def test_distinct_pairs(ray_session, kind):
    """Duplicate pairs reduce to one, with the per-pair minimum of
    ``min_col``; a pair with a null id is a pair like any other."""
    from silk_ray.functions.dedup import _distinct_pairs

    rng = np.random.default_rng(1)
    ids = _ids(kind, 4) + [None]
    rows = []
    for _ in range(160):
        hot = rng.random() < 0.7
        rows.append({
            "left_id": ids[0] if hot else ids[int(rng.integers(0, 5))],
            "right_id": ids[1] if hot else ids[int(rng.integers(0, 5))],
            "hamming": int(rng.integers(0, 9)),
        })
    t = pa.Table.from_pylist(
        rows, schema=pa.schema([("left_id", _key_type(kind)), ("right_id", _key_type(kind)), ("hamming", pa.int64())])
    )
    ds = _blocks(rows, t.schema)
    ref = t.group_by(["left_id", "right_id"]).aggregate([("hamming", "min")])
    want = _sorted(zip(ref["left_id"].to_pylist(), ref["right_id"].to_pylist(), ref["hamming_min"].to_pylist()))
    for coalesce in (None, 4):
        got = _rows(_distinct_pairs(ds, min_col="hamming", coalesce=coalesce), ["left_id", "right_id", "hamming"])
        assert got == want
    got = _rows(_distinct_pairs(ds), ["left_id", "right_id"])
    assert got == _sorted((a, b) for a, b, _ in want)


@pytest.mark.parametrize("score_partitions", [1, 8])
def test_score_partitioned_sees_whole_key_groups(ray_session, score_partitions):
    """The batch scorer's exchange on the int64 blocking key: a scorer
    that counts rows per key emits one row per key only if every key
    group arrives whole."""
    from silk_ray.linking.pipeline import _score_partitioned

    rows = [
        {"key": None if i % 13 == 0 else (7 if i % 4 else int(i % 5) - 2**62), "x": i}
        for i in range(150)
    ]
    schema = pa.schema([("key", pa.int64()), ("x", pa.int64())])
    ds = _blocks(rows, schema)

    def scorer(part: pa.Table) -> pa.Table:
        return part.group_by("key").aggregate([("x", "count"), ("x", "sum")])

    got = _rows(_score_partitioned(ds, scorer, score_partitions), ["key", "x_count", "x_sum"])
    ref = pa.Table.from_pylist(rows, schema=schema).group_by("key").aggregate(
        [("x", "count"), ("x", "sum")]
    )
    assert got == _sorted(zip(*(ref[c].to_pylist() for c in ("key", "x_count", "x_sum"))))


@pytest.mark.parametrize("kind", KINDS)
def test_link_filters(ray_session, kind):
    """Per-source top-k and unambiguous filters over links whose hot
    source holds most rows (link rows always have a source)."""
    from silk_ray.linking.pipeline import apply_link_filter, apply_unambiguous_filter

    rng = np.random.default_rng(2)
    srcs = [str(i) for i in _ids(kind, 6)]
    rows = []
    for j in range(120):
        s = srcs[0] if rng.random() < 0.7 else srcs[int(rng.integers(1, 6))]
        rows.append({"source": s, "target": f"t{j}", "confidence": float(rng.integers(0, 5)) / 4})
    rows += [{"source": f"solo{j}", "target": "t0", "confidence": 0.5} for j in range(2)]
    schema = pa.schema([("source", pa.string()), ("target", pa.string()), ("confidence", pa.float64())])
    ds = _blocks(rows, schema)
    df = pd.DataFrame(rows)
    cols = ["source", "target", "confidence"]

    top = df.sort_values(["source", "confidence", "target"], ascending=[True, False, True])
    want = top.groupby("source").head(2)
    assert _rows(apply_link_filter(ds, 2), cols) == _sorted(want[cols].itertuples(index=False, name=None))

    n = df.groupby("source")["target"].transform("size")
    want = list(df[n == 1][cols].itertuples(index=False, name=None))
    assert want and _rows(apply_unambiguous_filter(ds), cols) == _sorted(want)


def _table(ds) -> pa.Table:
    """Every block of ``ds`` stacked: a zero-row block without a schema
    adds no column."""
    import ray

    return pa.concat_tables(ray.get(ds.to_arrow_refs()), promote_options="default")


@pytest.mark.parametrize("blocks", [None, 1])
@pytest.mark.parametrize("batch_format", ["pyarrow", "pandas"])
def test_empty_gives_the_output_its_schema(ray_session, blocks, batch_format):
    """With ``empty``, an exchange over zero rows still has the reduce's
    output schema, and over real rows the marker row never reaches
    ``reduce``, whose int column keeps its type (no null promotion)."""
    from silk_ray.pipelines.relational import keyed_exchange

    schema = pa.schema([("k", pa.string()), ("t", pa.int64()), ("v", pa.int64())])
    out_schema = pa.schema([("k", pa.string()), ("n", pa.int64())])

    def count(b):
        if batch_format == "pandas":
            assert list(b.columns) == ["k", "t", "v"] and b["v"].dtype == np.int64
            return b.groupby("k", dropna=False).size().reset_index(name="n")
        assert b.column_names == ["k", "t", "v"] and b.schema.field("v").type == pa.int64()
        return b.group_by("k").aggregate([("v", "count")]).rename_columns(["k", "n"])

    empty_in = _blocks([], schema)
    out = keyed_exchange(empty_in, "k", count, blocks=blocks, batch_format=batch_format,
                         empty=out_schema.empty_table())
    assert out.schema().names == ["k", "n"] and list(out.schema().types) == [pa.string(), pa.int64()]
    assert _table(out)["k"].to_pylist() == []

    rows = [r for r in _fact_rows("str") if r["k"] is not None and r["t"] is not None]
    out = keyed_exchange(_blocks(rows, schema), "k", count, blocks=blocks,
                         batch_format=batch_format, empty=out_schema.empty_table())
    got = {r["k"]: r["n"] for r in out.take_all()}
    assert got == pd.DataFrame(rows).groupby("k").size().to_dict()


def test_empty_link_runs_keep_the_link_schema(ray_session):
    """``generate_links`` over no rows, and both link filters over no
    links, return ``(source, target, confidence)``."""
    import ray.data as rd

    from silk_ray.cdc.generator import make_base_table
    from silk_ray.linking.pipeline import (
        add_uri_column,
        apply_link_filter,
        apply_unambiguous_filter,
        generate_links,
    )
    from silk_ray.pipelines.rules import BENCH_RULE

    names, types = ["source", "target", "confidence"], [pa.string(), pa.string(), pa.float64()]
    base = rd.from_arrow(make_base_table(8, seed=1).slice(0, 0))
    links = pa.schema(list(zip(names, types))).empty_table()
    for out in (
        generate_links(add_uri_column(base), None, BENCH_RULE, source_equals_target=True),
        generate_links(add_uri_column(base), None, BENCH_RULE, source_equals_target=True,
                       link_limit=None, score_partitions=1),
        apply_link_filter(rd.from_arrow([links, links]), 1),
        apply_unambiguous_filter(rd.from_arrow([links, links])),
    ):
        assert out.schema().names == names and list(out.schema().types) == types
        assert _table(out)["source"].to_pylist() == []
