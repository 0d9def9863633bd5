"""CDC / incremental-ingest engine: changelog tail → Parquet lake upsert.

Implements the `north_rule` design (BASELINE.json): binlog-shaped
insert/update/delete events on (repo, path, commit) keys are tailed by
offset window, key-partitioned, and merge-applied into Parquet lake
partitions with per-partition high-water marks, a checkpointed offset
log and atomic manifest commits; incremental re-linking re-scores only
blocking keys that changed.
"""

import functools
import time

import numpy as np
import pyarrow as pa


@functools.cache
def remote(fn):
    """``fn``'s ``ray.remote`` task wrapper, made once per process. Ray
    exports a wrapper's function to the GCS on its first call, so a
    wrapper made per call would be exported again every epoch."""
    import ray

    return ray.remote(fn)


def split(t: pa.Table, keys) -> dict[int, pa.Table]:
    """``t``'s rows by ``keys`` (one int per row): sort by key once
    (stable, so each key's rows keep their order) and slice contiguous
    runs, each combine_chunks'd so its shard serializes only its own
    rows into the object store."""
    keys = np.asarray(keys)
    order = np.argsort(keys, kind="stable")
    t = t.take(pa.array(order))
    keys = keys[order]
    uniq, starts = np.unique(keys, return_index=True)
    bounds = list(starts) + [len(keys)]
    return {
        int(k): t.slice(bounds[i], bounds[i + 1] - bounds[i]).combine_chunks()
        for i, k in enumerate(uniq)
    }


def _map_task(fn, *args):
    import ray

    shards, side = fn(*args)
    return {key: ray.put(t) for key, t in shards.items()}, side


def _reduce_task(fn, key, args, *shards):
    return fn(key, *args, *shards)


def _group(mapped: list) -> tuple[list, dict]:
    """The map results' sides, and each key's shard refs, in map order.
    A function of its own so that no loop variable of the caller keeps
    a map's shard refs pinned once their reduce is submitted."""
    sides, by_key = [], {}
    for shards, side in mapped:
        sides.append(side)
        for key, ref in shards.items():
            by_key.setdefault(key, []).append(ref)
    return sides, by_key


def exchange(maps, reduce, *reduce_args) -> tuple[list, dict, tuple[float, float]]:
    """A keyed two-wave shuffle on raw Ray tasks. Each ``(fn, *args)``
    of ``maps`` runs as one task returning ``({key: pa.Table}, side)``;
    its shards go into the object store from that task, so only refs
    reach the driver. Then one ``reduce(key, *reduce_args, *shards)``
    task per key, in sorted key order, gets that key's shards in map
    order. Returns ``(sides in map order, {key: result} in key order,
    (map seconds, reduce seconds))``.

    The shards are DIRECT ObjectRef args, not a list: Ray materializes
    them before the reduce body starts, and its locality-aware scheduler
    places the task on the node already holding most of the shard bytes,
    so the shuffle read is mostly node-local; the rest moves by plasma
    transfer and spills to disk under memory pressure rather than
    OOMing. ``reduce_args`` go into the object store once. The driver
    drops its pin on a key's shards as it submits that key's task, so
    they are freed when that reduce finishes.

    Raw tasks, not a Dataset ``groupby(key).map_groups``: a sort-based
    groupby on an epoch-sized input pays boundary sampling and two
    all-to-all barriers for data the map tasks can partition in one pass
    (measured 5-12 s fixed cost per epoch at sf0.1, most of the epoch),
    and the Dataset API cannot express a stable partitioning such as
    the lake's crc32 key hash mod P without a sort."""
    import ray

    t0 = time.perf_counter()
    sides, by_key = _group(ray.get([remote(_map_task).remote(*m) for m in maps]))
    t1 = time.perf_counter()
    refs = {}
    if by_key:
        args = ray.put(reduce_args)
        task = remote(_reduce_task)
        for key in sorted(by_key):
            refs[key] = task.remote(reduce, key, args, *by_key.pop(key))
    results = dict(zip(refs, ray.get(list(refs.values()))))
    return sides, results, (t1 - t0, time.perf_counter() - t1)
