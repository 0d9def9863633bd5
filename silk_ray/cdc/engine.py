"""Top-level CDC engine: merge-apply, then the derived stores, per epoch.

One epoch = one atomic unit of progress:

    tail changelog window → merge-apply into lake partitions (commit:
    manifest + offset log) → each enabled derived store in turn, each
    with its own commit (links → clusters → agg view → egress →
    windows) → storage GC → lineage metrics.

The derived stores are one list of stages built from
:class:`EngineConfig`, each ``(name, update(root, epoch), gc(root))``.
An ``update`` brings its store to ``epoch`` from whatever it last
committed: a replayed epoch is a no-op, a one-epoch lag applies that
epoch's delta, and a longer lag re-derives the store from the snapshot
(links, clusters, agg view) or applies each missed epoch in turn
(egress, windows). Every derived store is a function of the committed
log, so "catch up to E" and "apply E" are the same call: crash
recovery (:func:`catch_up`) is the stage loop at the merge epoch, run
before :func:`run` tails the next window. Every commit is idempotent,
so replays converge.

Epoch inputs: nothing is written for a derived store to read back.
The merge tasks run the link index's delta stage with
``EngineConfig.rule_spec`` (a dict or a compiled rule) and hand its
rows to the link store in memory (``merge.take_epoch_index``); the agg
view and egress read epoch E's change set (``merge.epoch_changes``), in
memory from the merge tasks when one of them has committed E-1. On a
miss (a new process, a crash catch-up) either is derived from the lake
while manifest E-1 is retained; the cluster store seeds from E's lake
delta files.

Storage GC (post-commit, after the crash catch-up and after each epoch;
``EngineConfig.gc``, off = no sweep at all): superseded lake and link
index chain files and the files of crashed attempts are deleted — the
lake's and the link store's (``links/`` + ``blockmap/``, via
``gc_blockmap``) through one ``EpochStore.gc`` rule. A tailing engine
keeps O(live state + in-flight epoch) files, not O(history). Every
rule retains a one-epoch rollback window (``prev_files`` /
``links_files_prev`` + ``blockmap_prev``) and the lake keeps every
retained epoch's delta files, so crash replay, a one-epoch checkpoint
rollback and retained epochs' change sets are unaffected
(tests/test_gc.py). ``merge.gc_link_inputs`` removes the ``summaries/``
directory a lake written by an older version still holds.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from silk_ray.cdc import checkpoint as ckpt
from silk_ray.cdc.incremental import gc_blockmap, update_links
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
    # files, files of crashed attempts, snapshots past retention.
    # Without it a continuously-tailing engine grows storage without
    # bound. Disable to keep every file.
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
    # (cdc/matview.py): per epoch only the change-set contributions are
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


def _stages(changelog, config: EngineConfig) -> list[tuple]:
    """The enabled derived stores in update order, each ``(name,
    update(root, epoch), gc(root) | None)``; ``name`` keys the store's
    metrics in the epoch record. ``update`` brings the store to
    ``epoch`` from whatever it last committed. Every function resolves
    at call time, never bound here, so a wrapper swapped onto a module
    attribute (the benchmark tracer) sees each call."""
    from silk_ray.cdc import clusters, egress, matview, windows

    retain = config.retain_epochs

    def links(root, epoch):
        return update_links(
            root,
            config.rule_spec,
            epoch,
            limit=config.limit,
            n_block_partitions=config.n_block_partitions,
        )

    def egress_to(root, epoch):
        m = None
        for e in range(int(egress.read_egressstate(root)["epoch"]) + 1, epoch + 1):
            m = egress.update_egress(root, e, num_shards=config.egress_shards)
        return m

    def windows_to(root, epoch):
        # an epoch's arrival range comes from the retained manifest
        # snapshots (a lag is at most the one-epoch crash window)
        m = None
        for e in range(int(windows.read_winstate(root)["epoch"]) + 1, epoch + 1):
            lo = 0 if e == 1 else ckpt.read_manifest_at(root, e - 1).next_offset
            hi = ckpt.read_manifest_at(root, e).next_offset
            m = windows.update_windows(root, changelog, e, lo, hi, config.window_spec)
        return m

    links_on = config.rule_spec is not None
    table = [
        (links_on, "links", links, lambda root: gc_blockmap(root, retain_epochs=retain)),
        (
            links_on and config.maintain_clusters,
            "clusters",
            lambda root, epoch: clusters.update_clusters(root, epoch),
            lambda root: clusters.gc_clusters(root, retain_epochs=retain),
        ),
        (
            config.agg_spec is not None,
            "aggs",
            lambda root, epoch: matview.update_aggregates(root, epoch, config.agg_spec),
            lambda root: matview.gc_aggview(root, retain_epochs=retain),
        ),
        # egress and windows are sequential: a lagging store applies
        # each missed epoch in turn
        (config.egress, "egress", egress_to, None),
        (
            config.window_spec is not None,
            "windows",
            windows_to,
            lambda root: windows.gc_windows(root, retain_epochs=retain),
        ),
    ]
    return [stage[1:] for stage in table if stage[0]]


def _advance(root: str, stages: list[tuple], epoch: int) -> dict:
    """Bring every stage to ``epoch``, in order; their metrics by name."""
    return {name: update(root, epoch) for name, update, _gc in stages}


def catch_up(root: str, changelog, config: EngineConfig) -> None:
    """Crash recovery: bring every enabled derived store up to the merge
    epoch (the stage loop at that epoch; a store already there is a
    no-op)."""
    _advance(root, _stages(changelog, config), ckpt.read_manifest(root).epoch)


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


def _gc(root: str, stages: list[tuple], config: EngineConfig) -> int:
    """Post-commit storage GC of the lake, an older version's link
    inputs and every stage's store; files removed. Every rule deletes
    only files the committed states can no longer reference."""
    n = gc_lake(root, retain_epochs=config.retain_epochs) + gc_link_inputs(root)
    return n + sum(gc(root) for _name, _update, gc in stages if gc)


def _run_locked(root: str, changelog, config: EngineConfig, results: list) -> list[dict]:
    catch_up(root, changelog, config)
    stages = _stages(changelog, config)
    if config.gc:
        # what a catch-up (or a bootstrap before it) superseded goes now,
        # not at the end of the next epoch
        _gc(root, stages, config)
    epochs = 0
    cur_epoch_size = config.epoch_size
    while config.max_epochs is None or epochs < config.max_epochs:
        t_epoch = time.perf_counter()
        m = run_epoch(
            root,
            changelog,
            epoch_size=cur_epoch_size,
            num_partitions=config.num_partitions,
            renames=config.renames or None,
            link_spec=config.rule_spec,
            n_block_partitions=config.n_block_partitions,
            payload_schema=config.payload_schema,
            enrich_specs=config.enrich_rules,
            strict_columns=config.strict_columns,
            txn_atomic=config.txn_atomic,
        )
        if m is None:
            break
        m.update(_advance(root, stages, m["epoch"]))
        if config.gc:
            m["gc_files"] = _gc(root, stages, config)
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
