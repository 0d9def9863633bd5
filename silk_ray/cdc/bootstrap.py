"""Snapshot bootstrap: initialize the lake from an existing table, then
tail the changelog from the snapshot's offset.

The canonical CDC startup story (Debezium's initial snapshot, a
warehouse backfill, a migrated lake): you hold a consistent snapshot of
the source *as of* binlog offset S, and the live changelog. Bootstrap
loads the snapshot as lake epoch 1 and positions the consumer at S+1,
so the subsequent :func:`silk_ray.cdc.engine.run` applies exactly the
events the snapshot hasn't seen — the end state is byte-identical to
having tailed the whole stream from offset 0 (tests/test_bootstrap.py
proves sha256 equality for the lake, the link store and the aggregate
view).

Mechanism: the snapshot is expressed as a synthetic insert-only
changelog window occupying offsets ``S-n+1 .. S`` (one distinct offset
per row — the merge stage's duplicate-offset filter must not collapse
snapshot rows) and pushed through the ordinary :func:`merge.run_epoch`.
That reuses every tested path unchanged — key partitioning, change
sets, the link index's delta rows, dead-letter quarantine for
malformed snapshot rows, manifest commit — and leaves
``next_offset = S+1``, which is the consumer position (window anchoring
makes per-partition HWMs < S harmless: offsets ≤ S are never read
again). Incremental linking / cluster / aggregate maintenance then
initialize from epoch 1 via the engine's normal catch-up: links from
the merge tasks' index rows, held in memory when ``link_spec`` is the
engine's rule (else from epoch 1's change set, derived from the lake),
the agg view from the snapshot; a store enabled after a later epoch
starts from the snapshot at the merge epoch.

Scale shape: an in-memory snapshot (tests, small lakes) goes through
run_epoch as one table; a parquet snapshot (file or directory) as a
list of ``(file, first offset, rows)`` entries, with offsets from
footer row counts (a metadata-only driver probe). The merge's read
tasks turn each file into insert events, so no snapshot payload
concentrates driver-side or is written back out; a bootstrap that
crashed before its manifest commit reruns from the snapshot.

Ordering semantics: if the snapshot contains duplicate (repo, path)
keys, the LAST row in snapshot order wins (rows get ascending offsets;
the merge keeps the newest per key) — same rule as the stream itself.
"""

from __future__ import annotations

import os
from itertools import accumulate

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from silk_ray.cdc import checkpoint as ckpt, remote
from silk_ray.cdc.merge import DEFAULT_PARTITIONS, run_epoch

KEY_COLS = ("repo", "path")


def _synth_table(t: pa.Table, start: int) -> pa.Table:
    """Snapshot rows → insert events at offsets start..start+n-1."""
    n = t.num_rows
    cols: dict = {
        "offset": pa.array(np.arange(start, start + n, dtype=np.int64), pa.int64()),
        "op": pa.array(["I"] * n, pa.string()),
    }
    for name in t.column_names:
        if name in ("offset", "op"):
            raise ValueError(
                f"snapshot carries a reserved changelog column {name!r}; "
                "rename it before bootstrapping"
            )
        cols[name] = t[name]
    return pa.table(cols)


def bootstrap_lake(
    root: str,
    snapshot,
    *,
    as_of_offset: int,
    num_partitions: int = DEFAULT_PARTITIONS,
    link_spec=None,
    n_block_partitions: int = 64,
    renames: dict[str, str] | None = None,
) -> dict:
    """Load ``snapshot`` (pa.Table, or a parquet file/dir path) into a
    FRESH lake root as epoch 1, positioned so tailing resumes at
    ``as_of_offset + 1``. Returns the bootstrap epoch's merge metrics.

    Raises if the root already has committed epochs (bootstrap is a
    one-time initialization; a crashed bootstrap attempt — no manifest
    commit — replays deterministically), or if ``as_of_offset < n-1``
    (n snapshot rows need n distinct non-negative synthetic offsets
    ≤ S; a snapshot taken at offset S of a stream that created n keys
    always satisfies this).

    With ``link_spec`` (the engine's link rule, a dict or a compiled
    rule) the merge tasks also compute the link index's delta rows,
    which the engine's catch-up writes.
    """
    manifest = ckpt.read_manifest(root)
    if manifest.epoch > 0:
        raise ValueError(
            f"lake at {root!r} already has committed epoch {manifest.epoch}; "
            "bootstrap initializes a fresh root only"
        )
    # single-writer lease: an engine started concurrently on the same
    # fresh root would tail from offset 0 while we write epoch 1
    ckpt.acquire_writer(root, "bootstrap")
    try:
        return _bootstrap_locked(
            root, snapshot, as_of_offset, num_partitions,
            link_spec, n_block_partitions, renames,
        )
    finally:
        ckpt.release_writer(root)


def _bootstrap_locked(
    root, snapshot, as_of_offset, num_partitions,
    link_spec, n_block_partitions, renames,
) -> dict:
    changelog = (
        _synth_table(snapshot, _first_offset(snapshot.num_rows, as_of_offset))
        if isinstance(snapshot, pa.Table) else _synth_parquet(snapshot, as_of_offset)
    )

    metrics = run_epoch(
        root,
        changelog,
        epoch_size=2**62,  # the whole snapshot is one epoch window
        num_partitions=num_partitions,
        renames=renames,
        link_spec=link_spec,
        n_block_partitions=n_block_partitions,
    )
    if metrics is None:
        raise ValueError("empty snapshot: nothing to bootstrap")
    metrics["bootstrap"] = True
    metrics["as_of_offset"] = as_of_offset
    return metrics


def _synth_parquet(snapshot_path: str, as_of_offset: int) -> list[tuple[str, int, int]]:
    """A parquet snapshot (file or dir) as a synthetic changelog:
    ``[(file, first offset, rows)]`` in file order. Offset ranges come
    from footer row counts (metadata-only, driver-side); the merge's
    read tasks turn each file into insert events (:func:`_synth_table`)."""
    if os.path.isdir(snapshot_path):
        files = sorted(
            os.path.join(snapshot_path, f)
            for f in os.listdir(snapshot_path)
            if f.endswith(".parquet")
        )
    else:
        files = [snapshot_path]
    if not files:
        raise ValueError(f"no parquet files under {snapshot_path!r}")
    counts = [pq.read_metadata(f).num_rows for f in files]
    starts = accumulate(counts[:-1], initial=_first_offset(sum(counts), as_of_offset))
    return list(zip(files, starts, counts))


def _first_offset(n: int, as_of_offset: int) -> int:
    """The offset of the first of ``n`` snapshot rows ending at the
    snapshot offset."""
    if as_of_offset < n - 1:
        raise ValueError(
            f"as_of_offset={as_of_offset} < n-1={n - 1}: {n} snapshot rows "
            "need distinct non-negative offsets ending at the snapshot offset"
        )
    return as_of_offset - n + 1


def _export_task(root: str, files: list[str], out_path: str) -> int:
    """Reconcile one partition chain and write it as a clean snapshot
    part (internal columns dropped; key-sorted for determinism)."""
    from silk_ray.cdc.merge import _read_chain, reconcile_tables

    t = reconcile_tables(_read_chain(root, files))
    t = t.drop_columns([c for c in ("_offset", "_kh") if c in t.column_names])
    if not t.num_rows:
        return 0
    t = t.sort_by([("repo", "ascending"), ("path", "ascending")])
    ckpt.atomic_write_parquet(t, out_path)
    return t.num_rows


def export_snapshot(root: str, out_dir: str, at_epoch: int | None = None) -> dict:
    """The inverse of bootstrap: write the lake's (or an as-of-epoch)
    state as a clean partitioned parquet snapshot plus a consistency
    marker, suitable for ``bootstrap_lake`` on another root.

    One Ray task per partition chain writes ``part-{pid}.parquet``
    (reconciled, internals dropped, key-sorted); the ``_SNAPSHOT.json``
    marker — epoch, the binlog offset the state is consistent as of,
    row/file counts — is written atomically LAST, so a crashed export
    leaves no marker and a rerun converges. The DR/migration runbook is
    export → bootstrap(as_of_offset = marker) → tail: byte-identical to
    a full tail (tests/test_bootstrap.py round trip)."""
    import ray

    from silk_ray.cdc.merge import partition_chains

    marker_path = os.path.join(out_dir, "_SNAPSHOT.json")
    if os.path.exists(marker_path):
        raise FileExistsError(
            f"{marker_path} already exists — refusing to overwrite a committed "
            "snapshot; export to a fresh directory"
        )
    manifest = (
        ckpt.read_manifest_at(root, at_epoch) if at_epoch is not None
        else ckpt.read_manifest(root)
    )
    if manifest.epoch == 0:
        raise ValueError(f"lake at {root!r} has no committed epochs to export")
    os.makedirs(out_dir, exist_ok=True)
    chains = partition_chains(root, at_epoch=at_epoch)
    jobs, parts = [], []
    for pid, files in sorted(chains.items()):
        p = os.path.join(out_dir, f"part-{pid:05d}.parquet")
        jobs.append(remote(_export_task).remote(root, files, p))
        parts.append(p)
    rows = ray.get(jobs)
    files = [os.path.basename(p) for p, n in zip(parts, rows) if n]
    marker = {
        "epoch": manifest.epoch,
        "as_of_offset": manifest.next_offset - 1,
        "rows": int(sum(rows)),
        "files": files,
        "num_partitions": manifest.num_partitions,
    }
    ckpt.atomic_write_json(marker_path, marker)
    return marker


def read_snapshot_marker(path: str) -> dict | None:
    """The _SNAPSHOT.json of an exported snapshot directory, if any."""
    return ckpt.read_json(os.path.join(path, "_SNAPSHOT.json")) if os.path.isdir(path) else None
