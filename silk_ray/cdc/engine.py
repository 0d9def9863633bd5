"""Top-level CDC engine: merge-apply + incremental re-link per epoch.

One epoch = one atomic unit of progress:

    tail changelog window → merge-apply into lake partitions (commit:
    manifest + offset log) → delta re-link from the dirty files
    (commit: linkstate) → lineage metrics.

Resume logic: the merge manifest and the linkstate each record their
epoch; after a crash anywhere, :func:`run` first brings the link state
up to the merge epoch (from the epoch's retained inputs when one epoch
behind, from the snapshot when further), then continues tailing. Both
sub-commits are idempotent, so replays converge.

Epoch inputs: the merge writes epoch E's dirty delta only when a store
that reads it (agg view, egress, un-fused links) has committed E-1;
``merge.gc_link_inputs`` keeps of it and of the link summaries only a
present reader's next epoch plus its one-epoch rollback window. A store
further behind starts from the snapshot.

Storage GC (per epoch, post-commit; ``EngineConfig.gc``): superseded
lake/blockmap chain files, orphaned shard-write attempts and consumed
dirty/summary inputs are deleted — a continuously-tailing engine keeps
O(live state + in-flight epoch) files, not O(history). Every GC rule
retains a one-epoch rollback window (``prev_files`` /
``blockmap_prev`` / the readers' dirty+summary epochs — the same
retention the link store's ``links_files_prev`` already used), so crash
replay and a one-epoch checkpoint rollback are unaffected (tests/test_gc.py).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from silk_ray.cdc import checkpoint as ckpt
from silk_ray.cdc.incremental import gc_blockmap, read_linkstate, update_links
from silk_ray.cdc.merge import gc_lake, gc_link_inputs, run_epoch


@dataclass
class EngineConfig:
    epoch_size: int = 100_000
    num_partitions: int = 64
    n_block_partitions: int = 64
    rule_spec: dict | None = None  # None → no link maintenance
    renames: dict[str, str] = field(default_factory=dict)
    limit: float = 0.0
    max_epochs: int | None = None
    # per-epoch storage GC (post-commit): superseded lake/blockmap chain
    # files, orphaned shard attempts, consumed dirty/summary inputs.
    # Without it a continuously-tailing engine grows storage without
    # bound. Disable to inspect every intermediate file in tests.
    gc: bool = True
    # as-of-epoch (time-travel) read depth: GC keeps the last
    # `retain_epochs` committed manifests before the current one
    # readable via snapshot_dataset(root, at_epoch=...). 1 = just the
    # engine's one-epoch rollback window (no extra storage).
    retain_epochs: int = 1
    # maintain the materialized duplicate-cluster table over the link
    # store (cdc/clusters.py): per epoch only the components touched by
    # the delta are rebuilt
    maintain_clusters: bool = False
    # maintain a materialized aggregate view over the lake
    # (cdc/matview.py): per epoch only the dirty-delta contributions are
    # applied and only the touched view shards are rewritten
    agg_spec: "object | None" = None  # AggViewSpec
    # typed ingest enforcement: payload column -> ValueType id
    # (kernel/valuetypes.py). A row whose column fails its declared
    # type's lexical validation is quarantined to the DLQ with reason
    # ``invalid_type:<col>`` instead of entering the lake.
    payload_schema: dict[str, str] | None = None
    # binlog transaction atomicity: when the changelog carries a `txn`
    # column (contiguous offset ranges per transaction — the binlog
    # shape), epoch windows snap to transaction boundaries so no
    # committed state ever exposes half a transaction
    # (merge.snap_txn_boundary). A transaction larger than the window
    # still applies atomically, in one grown epoch.
    txn_atomic: bool = False
    # closed-world ingest (requires payload_schema): a row carrying a
    # non-null value in an UNDECLARED column quarantines with reason
    # ``unknown_column:<col>`` instead of flowing in as silent schema
    # evolution. Off by default — open-world evolution is the CDC norm.
    strict_columns: bool = False
    # ingest-time enrichment: transform-rule specs (JSON DSL incl. typed
    # ValueType targets) evaluated inside the read tasks; each target
    # becomes a payload column in the lake. Rows whose enrichment errors
    # quarantine with reason ``enrich_error:<target>``.
    enrich_rules: list[dict] | None = None
    # downstream CDC egress (cdc/egress.py): per epoch, emit the lake's
    # net state delta as an exactly-once changelog (op + before/after
    # images) that consumers tail; byte-identical across replays and
    # partition counts.
    egress: bool = False
    egress_shards: int = 16
    # event-time tumbling windows with watermarks over the ingest
    # stream itself (cdc/windows.py): finalized windows append-only,
    # late arrivals to a side output. Watermarks advance at epoch
    # boundaries (micro-batch semantics).
    window_spec: "object | None" = None  # WindowSpec
    # adaptive epoch sizing: when set, the engine steers each NEXT
    # window's size so epoch wall time approaches this target —
    # catch-up throughput when the binlog is deep, bounded commit
    # latency when tailing the head. Safe by construction: the final
    # state is epoch-shape-independent (the replay/soak invariants),
    # so adaptivity changes WHEN commits happen, never what they hold.
    # Growth is damped (≤4× per step, blended with the current size)
    # so one anomalously fast epoch on a throttling host cannot spike
    # the window.
    target_epoch_seconds: float | None = None
    min_epoch_size: int = 1_000
    max_epoch_size: int | None = None


def catch_up_links(root: str, config: EngineConfig) -> list[dict]:
    """Apply any merge epochs the link state hasn't processed yet."""
    out = []
    if config.rule_spec is None:
        return out
    merge_epoch = ckpt.read_manifest(root).epoch
    if read_linkstate(root)["epoch"] < merge_epoch:
        # a store more than one epoch behind re-indexes the snapshot at
        # the merge epoch in one step (update_links' full mode)
        out.append(
            update_links(
                root,
                config.rule_spec,
                merge_epoch,
                limit=config.limit,
                n_block_partitions=config.n_block_partitions,
                retain_epochs=config.retain_epochs,
            )
        )
    if config.maintain_clusters and merge_epoch > 0:
        # crash window between link commit and cluster commit: replay is
        # a no-op when already committed; a >1-epoch lag full-rebuilds
        from silk_ray.cdc.clusters import update_clusters

        update_clusters(root, merge_epoch)
    return out


def catch_up_aggs(root: str, config: EngineConfig) -> None:
    """Bring the aggregate view up to the merge epoch after a crash in
    the window between merge commit and agg commit (replay is a no-op
    when already committed; a >1-epoch lag full-rebuilds loudly)."""
    if config.agg_spec is None:
        return
    merge_epoch = ckpt.read_manifest(root).epoch
    if merge_epoch > 0:
        from silk_ray.cdc.matview import update_aggregates

        update_aggregates(root, merge_epoch, config.agg_spec)


def catch_up_egress(root: str, config: EngineConfig) -> None:
    """Bring the egress stream up to the merge epoch after a crash in
    the window between merge commit and egress commit (replay is a
    no-op when already committed; sequential by construction since
    egress commits inside the epoch loop)."""
    if not config.egress:
        return
    from silk_ray.cdc.egress import read_egressstate, update_egress

    merge_epoch = ckpt.read_manifest(root).epoch
    for e in range(int(read_egressstate(root)["epoch"]) + 1, merge_epoch + 1):
        update_egress(root, e, num_shards=config.egress_shards)


def catch_up_windows(root: str, changelog, config: EngineConfig) -> None:
    """Bring the window store up to the merge epoch after a crash in
    the window between merge commit and window commit. Arrival ranges
    are recovered from the retained manifest snapshots (lag is at most
    the one-epoch crash window, inside ``retain_epochs``)."""
    if config.window_spec is None:
        return
    from silk_ray.cdc.windows import read_winstate, update_windows

    merge_epoch = ckpt.read_manifest(root).epoch
    for e in range(int(read_winstate(root)["epoch"]) + 1, merge_epoch + 1):
        lo = 0 if e == 1 else ckpt.read_manifest_at(root, e - 1).next_offset
        hi = ckpt.read_manifest_at(root, e).next_offset
        update_windows(root, changelog, e, lo, hi, config.window_spec)


def run(root: str, changelog, config: EngineConfig) -> list[dict]:
    """Tail the changelog to exhaustion. Returns per-epoch metrics
    (merge metrics with ``links`` sub-dict when linking is enabled)."""
    results = []
    # single-writer lease: a second concurrent engine on this root would
    # race the manifest swap (stale locks from killed engines are
    # auto-stolen — crash-resume is unaffected)
    ckpt.acquire_writer(root, "engine")
    try:
        return _run_locked(root, changelog, config, results)
    finally:
        ckpt.release_writer(root)


def _run_locked(root: str, changelog, config: EngineConfig, results: list) -> list[dict]:
    # crash recovery: links / aggregate view / egress / windows may lag
    catch_up_links(root, config)
    catch_up_aggs(root, config)
    catch_up_egress(root, config)
    catch_up_windows(root, changelog, config)
    epochs = 0
    cur_epoch_size = config.epoch_size
    while config.max_epochs is None or epochs < config.max_epochs:
        t_epoch = time.perf_counter()
        lo_offset = ckpt.read_manifest(root).next_offset
        m = run_epoch(
            root,
            changelog,
            epoch_size=cur_epoch_size,
            num_partitions=config.num_partitions,
            renames=config.renames or None,
            link_spec=config.rule_spec if isinstance(config.rule_spec, dict) else None,
            n_block_partitions=config.n_block_partitions,
            payload_schema=config.payload_schema,
            enrich_specs=config.enrich_rules,
            strict_columns=config.strict_columns,
            txn_atomic=config.txn_atomic,
        )
        if m is None:
            break
        if config.rule_spec is not None:
            link_metrics = update_links(
                root,
                config.rule_spec,
                m["epoch"],
                limit=config.limit,
                n_block_partitions=config.n_block_partitions,
                retain_epochs=config.retain_epochs,
            )
            m = {**m, "links": link_metrics}
            if config.maintain_clusters:
                from silk_ray.cdc.clusters import update_clusters

                m["clusters"] = update_clusters(root, m["epoch"])
        if config.agg_spec is not None:
            from silk_ray.cdc.matview import update_aggregates

            m["aggs"] = update_aggregates(root, m["epoch"], config.agg_spec)
        if config.egress:
            from silk_ray.cdc.egress import update_egress

            m["egress"] = update_egress(
                root, m["epoch"], num_shards=config.egress_shards
            )
        if config.window_spec is not None:
            from silk_ray.cdc.windows import update_windows

            m["windows"] = update_windows(
                root, changelog, m["epoch"], lo_offset,
                ckpt.read_manifest(root).next_offset, config.window_spec,
            )
        if config.gc:
            # post-commit storage GC: every rule below deletes only
            # files the committed manifests can no longer reference
            n_gc = gc_lake(root, retain_epochs=config.retain_epochs)
            n_gc += gc_link_inputs(root)
            if config.rule_spec is not None:
                n_gc += gc_blockmap(root, read_linkstate(root))
                if config.maintain_clusters:
                    from silk_ray.cdc.clusters import gc_clusters

                    n_gc += gc_clusters(root, retain_epochs=config.retain_epochs)
            if config.agg_spec is not None:
                from silk_ray.cdc.matview import gc_aggview

                n_gc += gc_aggview(root, retain_epochs=config.retain_epochs)
            if config.window_spec is not None:
                from silk_ray.cdc.windows import gc_windows

                n_gc += gc_windows(root, retain_epochs=config.retain_epochs)
            m["gc_files"] = n_gc
        # per-epoch wall time: epochs are identical in shape, so the
        # best epoch is a throttling-robust throughput estimator on
        # hosts where sustained-load wall time swings run-to-run
        m["epoch_seconds"] = time.perf_counter() - t_epoch
        m["epoch_size"] = cur_epoch_size
        if config.target_epoch_seconds and m["events_applied"]:
            rate = m["events_applied"] / max(m["epoch_seconds"], 1e-6)
            want = max(1, int(rate * config.target_epoch_seconds))
            blended = int(0.5 * cur_epoch_size + 0.5 * want)
            nxt = min(blended, cur_epoch_size * 4)  # damp growth spikes
            nxt = max(nxt, config.min_epoch_size)
            if config.max_epoch_size is not None:
                nxt = min(nxt, config.max_epoch_size)
            m["next_epoch_size"] = cur_epoch_size = nxt
        results.append(m)
        epochs += 1
    return results
