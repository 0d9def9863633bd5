"""``silk_ray.cdc.exchange`` (the raw-task keyed shuffle) and
``silk_ray.cdc.split`` (its sort-and-slice splitter)."""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from silk_ray.cdc import exchange, split


def test_exchange_groups_shards_by_key_in_map_order(ray_session):
    def shards(rows_by_key, side):
        return {k: pa.table({"v": pa.array(v, pa.int64())}) for k, v in rows_by_key.items()}, side

    def collect(key, tag, *tables):
        return tag, key, [t["v"].to_pylist() for t in tables]

    maps = [
        (shards, {2: [0, 1], 0: [2]}, "a"),
        (shards, {}, "b"),  # no shard at all
        (shards, {5: [4], 2: [3]}, "c"),
        (shards, {2: []}, "d"),  # an empty shard still reaches its reduce
    ]
    sides, results, (map_s, reduce_s) = exchange(maps, collect, "t")
    assert sides == ["a", "b", "c", "d"]
    assert list(results) == [0, 2, 5]  # key order; key 5 only in map c
    assert results[0] == ("t", 0, [[2]])
    assert results[2] == ("t", 2, [[0, 1], [3], []])
    assert results[5] == ("t", 5, [[4]])
    assert map_s >= 0 and reduce_s >= 0


def test_exchange_without_shards_starts_no_reduce(ray_session):
    def never(key, *args):
        raise AssertionError("no key, so no reduce task may run")

    assert exchange([], never, "x")[:2] == ([], {})

    def nothing(side):
        return {}, side

    assert exchange([(nothing, 1), (nothing, 2)], never)[:2] == ([1, 2], {})


def test_split_keeps_row_order_within_each_key():
    empty = pa.table({"v": pa.array([], pa.int64())})
    assert split(empty, np.zeros(0, np.int64)) == {}

    t = pa.table({"v": [3, 1, 2]})
    one = split(t, [7, 7, 7])
    assert list(one) == [7] and one[7]["v"].to_pylist() == [3, 1, 2]

    # a two-chunk table split by dictionary codes (demux's route split)
    names = ["b", "a", "b", "c", "a", "b"]
    t = pa.concat_tables([pa.table({"v": [0, 1, 2]}), pa.table({"v": [3, 4, 5]})])
    enc = pc.dictionary_encode(pa.array(names))
    parts = split(t, enc.indices)
    assert enc.dictionary.to_pylist() == ["b", "a", "c"]
    assert {k: p["v"].to_pylist() for k, p in parts.items()} == {0: [0, 2, 5], 1: [1, 4], 2: [3]}
    assert all(p["v"].num_chunks == 1 for p in parts.values())
