"""Online lake repartitioning: change the key-partition count N→M.

A lake's partition layout (pid = crc32(repo\\x00path) % N) is pinned in
the manifest at first commit. At 100 TB the count chosen on day one
stops fitting — partitions outgrow a worker's heap, or a 4× bigger
cluster wants 4× the merge parallelism — so the engine needs a
sanctioned way to change N that preserves every exactly-once and
time-travel guarantee. This module is that way, one
:func:`silk_ray.cdc.exchange`:

    wave 1 — one Ray task per OLD partition: reconcile its delta chain
             (``chain.reconcile``, as a compaction does), split the
             live rows by ``_kh % M`` (the key hash is persisted, so no
             re-hashing), ship per-new-pid shards through the object
             store;
    wave 2 — one Ray task per NEW partition: write its shards (disjoint
             keys; schemas unified — evolution-added columns may exist
             in only some old partitions) with the chain compact-file
             writer (``chain.write_compact``) as
             ``partitions/p={P}/compact-{E}.parquet``.

The commit is an ordinary epoch commit with no events: epoch bumps to
E+1, ``next_offset`` is unchanged, every new partition's HWM is the max
over the old HWMs (all offsets below ``next_offset`` are fully applied
— epochs consume whole windows — so any key that moved partitions has
its applied offsets covered), ``prev_files`` carries the old layout for
the one-epoch rollback/GC window, and ``num_partitions`` re-pins to M.
Time-travel reads at epochs ≤ E keep resolving the old layout through
the retained manifest snapshots; the next engine run validates M and
the auxiliary stores (links / clusters / agg views / egress / windows)
catch up over the eventless epoch as no-ops — their state is keyed by
blocking key / group hash / key shard, none of which involve the lake
pid, so no data moves anywhere but the lake itself.

Crash safety is the standard idiom: wave outputs are deterministic
functions of the committed manifest, files are written atomically, and
the manifest swap is the sole commit point — a crash mid-repartition
leaves the old manifest authoritative and a rerun converges on
byte-identical files.

Scale: wave 1 is O(live state) read + shuffle — the same cost as one
full compaction pass, amortizable (run it at a quiet hour), never
driver-materialized; only ObjectRefs cross the driver. Skew in the NEW
layout equals key-hash skew, the same as normal operation.

Reference framing: Silk has no persistent partitioned state to re-key
(execution/ExecuteTransform.scala streams per run); this is
from-scratch CDC-tier design, not a port.
"""

from __future__ import annotations

import os
import time

from silk_ray.cdc import chain, checkpoint as ckpt, exchange, split
from silk_ray.cdc.merge import _read_chain


def _repart_read_task(root: str, files: list[str], new_n: int) -> tuple[dict, None]:
    """Wave 1: reconcile one old partition's chain, split by new pid."""
    full = chain.reconcile(_read_chain(root, files), chain.LAKE)
    if full is None or not full.num_rows:
        return {}, None
    return split(full, full.column("_kh").to_numpy() % new_n), None


def _repart_write_task(pid: int, root: str, epoch: int, *shards) -> dict:
    """Wave 2: write one new partition's shards as its compact file."""
    rel = chain.write_compact(root, list(shards), chain.LAKE, pid, epoch)
    return {"pid": pid, "rows": sum(t.num_rows for t in shards), "file": rel}


def lake_stats(root: str, at_epoch: int | None = None) -> dict:
    """Per-partition layout health from metadata only (manifest row
    counts + file sizes — no parquet reads): the operator's 'is it time
    to repartition' gauge."""
    manifest = (
        ckpt.read_manifest_at(root, at_epoch) if at_epoch is not None
        else ckpt.read_manifest(root)
    )
    parts = {}
    for pid, info in sorted(manifest.partitions.items()):
        files = info.get("files", [])
        parts[int(pid)] = {
            "rows": int(info.get("rows", 0)),
            "chain_files": len(files),
            "bytes": sum(
                os.path.getsize(os.path.join(root, f))
                for f in files
                if os.path.exists(os.path.join(root, f))
            ),
        }
    rows = [p["rows"] for p in parts.values()]
    mean_rows = (sum(rows) / len(rows)) if rows else 0.0
    return {
        "epoch": manifest.epoch,
        "num_partitions": manifest.num_partitions,
        "rows_total": sum(rows),
        "bytes_total": sum(p["bytes"] for p in parts.values()),
        "max_partition_bytes": max((p["bytes"] for p in parts.values()), default=0),
        "row_skew_ratio": (max(rows) / mean_rows) if mean_rows else 0.0,
        "partitions": parts,
    }


def suggest_num_partitions(
    root: str, target_partition_bytes: int = 256 * 1024 * 1024
) -> dict:
    """Advise a partition count from the live layout: enough partitions
    that the mean partition stays under ``target_partition_bytes``
    (default 256 MiB — a merge task's reconcile working set should fit
    a worker heap with headroom), never fewer than the pinned count
    shrunk below half-utilization. Advice only — the operator runs
    ``repartition_lake`` when a quiet window allows the rewrite."""
    st = lake_stats(root)
    cur = st["num_partitions"] or len(st["partitions"]) or 1
    want = max(1, -(-st["bytes_total"] // target_partition_bytes))  # ceil
    # hysteresis: don't advise thrash for <2x differences
    if want > cur * 2:
        action = "grow"
    elif want * 2 < cur:
        action = "shrink"
    else:
        want, action = cur, "keep"
    return {
        "current": cur,
        "suggested": int(want),
        "action": action,
        "bytes_total": st["bytes_total"],
        "target_partition_bytes": target_partition_bytes,
        "row_skew_ratio": round(st["row_skew_ratio"], 3),
    }


def repartition_lake(root: str, new_num_partitions: int) -> dict:
    """Rewrite the lake from its pinned partition count to ``new_num_partitions``.

    Atomic (manifest swap is the sole commit point), idempotent under
    crash-rerun, O(live state) — one distributed compaction pass. The
    epoch counter advances by one (an eventless epoch); auxiliary
    stores catch up as no-ops on the next engine run. A manifest that
    predates layout pinning (no ``num_partitions``) is refused.
    """
    new_n = int(new_num_partitions)
    if new_n < 1:
        raise ValueError(f"num_partitions must be >= 1, got {new_n}")
    manifest = ckpt.read_manifest(root)
    if manifest.epoch == 0:
        raise ValueError(
            f"lake at {root!r} has no committed epochs — nothing to repartition; "
            "set EngineConfig.num_partitions for the first run instead"
        )
    old_n = manifest.num_partitions
    if old_n is None:
        raise ValueError(
            f"manifest at {root!r} predates layout pinning and does not record "
            "num_partitions; its key routing is unknown"
        )
    if new_n == old_n:
        return {
            "epoch": manifest.epoch,
            "repartition": {"from": old_n, "to": new_n, "mode": "noop"},
        }
    ckpt.acquire_writer(root, "repartition")
    try:
        return _repartition_locked(root, manifest, old_n, new_n)
    finally:
        ckpt.release_writer(root)


def _repartition_locked(root: str, manifest, old_n: int, new_n: int) -> dict:
    epoch = manifest.epoch + 1
    t0 = time.perf_counter()
    _, written, _ = exchange(
        [
            (_repart_read_task, root, info["files"], new_n)
            for _pid, info in sorted(manifest.partitions.items())
            if info.get("files")
        ],
        _repart_write_task,
        root,
        epoch,
    )
    stats = list(written.values())

    # every offset below next_offset is fully applied (epochs consume
    # whole windows), so the max old HWM covers any key wherever it
    # landed; replayed events at or below it stay no-ops
    global_hwm = max(
        (info.get("hwm", -1) for info in manifest.partitions.values()), default=-1
    )
    new_partitions = {
        int(s["pid"]): {
            "files": [s["file"]],
            "hwm": int(global_hwm),
            "rows": int(s["rows"]),
            "epoch": epoch,
        }
        for s in stats
    }
    new_manifest = ckpt.Manifest(
        epoch=epoch,
        next_offset=manifest.next_offset,
        partitions=new_partitions,
        prev_files=manifest.chain_files(),
        num_partitions=new_n,
    )
    ckpt.commit_manifest(
        root, new_manifest, window=(manifest.next_offset, manifest.next_offset)
    )

    rows = [int(s["rows"]) for s in stats]
    mean_rows = (sum(rows) / len(rows)) if rows else 0.0
    metrics = {
        "epoch": epoch,
        "window": [manifest.next_offset, manifest.next_offset],
        "events_applied": 0,
        "repartition": {"from": int(old_n), "to": new_n},
        "rows_total": int(sum(rows)),
        "partitions_touched": len(stats),
        "skew_ratio": (max(rows) / mean_rows) if mean_rows else 0.0,
        "repartition_seconds": round(time.perf_counter() - t0, 3),
    }
    ckpt.write_metrics(root, epoch, metrics)
    return metrics
