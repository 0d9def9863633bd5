"""The three benchmark workloads and the loop that drives the engine.

Every workload drives ``silk_ray.cdc`` through its public functions:
``bootstrap_lake`` then ``engine.run(max_epochs=1)`` per epoch, with
``merge.lookup_keys`` reads between epochs. Why each workload exists
and which layer it loads is in README.md next to this file.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import statistics
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from perfbench import inputs as inputs_mod
from perfbench import oracle, probes
from perfbench.tracer import Span, Tracer, layer_table, self_times


@dataclass(frozen=True)
class Workload:
    name: str
    base_rows: int
    near_dup_frac: float
    num_partitions: int
    epoch_size: int = 0  # catch-up: offsets per epoch
    window_epochs: int = 0  # catch-up: epochs in the timed window
    open_loop: bool = False
    rate: float = 0.0  # open loop: events/s released
    duration_s: float = 0.0  # open loop: release schedule length
    release_events: int = 0  # open loop: events per released segment
    n_block_partitions: int = 16
    links: bool = False
    clusters: bool = False
    egress: bool = False
    agg: bool = False
    setup_repeats: int = 5
    lookups: int = 100

    @property
    def n_events(self) -> int:
        if self.open_loop:
            return int(round(self.rate * self.duration_s))
        return self.epoch_size * self.window_epochs

    @property
    def segment_events(self) -> int:
        return self.release_events if self.open_loop else self.epoch_size


WORKLOADS = ("catchup_merge", "catchup_link", "tail_head")
# metric name -> unit, for every metric BENCHMARK.json lists
with open(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")) as _f:
    _spec = json.load(_f)
UNITS = {m["name"]: m["unit"] for m in _spec["end_to_end"] + _spec["per_layer"]}
DERIVED_SHARDS = 4  # egress shards and agg-view shards
RELINK_SCORE_PARTITIONS = 8
LOOKUP_BATCH = 2  # keys per lookup_keys call
ABSENT_FRAC = 0.25  # share of looked-up keys that never exist
RAY_START_ATTEMPTS = 3


def make_workload(name: str, seconds: float, toy: bool = False) -> Workload:
    """Workload parameters for a run of ``seconds``. ``toy`` shrinks the
    inputs so a whole run takes seconds (self-tests)."""
    if name == "catchup_merge":
        wl = Workload(
            name,
            base_rows=20_000,
            near_dup_frac=0.05,
            num_partitions=8,
            epoch_size=4_000,
            # two lake compaction cycles (LAKE_COMPACT_AT = 8) at 10 s
            window_epochs=max(8, round(1.6 * seconds)),
        )
        if toy:
            wl = replace(wl, base_rows=300, epoch_size=100, window_epochs=9, num_partitions=2, setup_repeats=2, lookups=20)
    elif name == "catchup_link":
        wl = Workload(
            name,
            # every base row gets a planted twin: ~1k live links whose
            # ends the changelog edits and deletes
            base_rows=1_000,
            near_dup_frac=1.0,
            num_partitions=4,
            n_block_partitions=4,
            epoch_size=100,
            setup_repeats=3,
            # one blockmap compaction cycle (COMPACT_AT = 8)
            window_epochs=max(8, round(0.8 * seconds)),
            links=True,
            clusters=True,
        )
        if toy:
            wl = replace(wl, base_rows=60, epoch_size=40, window_epochs=2, num_partitions=2, n_block_partitions=2, setup_repeats=2, lookups=10)
    elif name == "tail_head":
        wl = Workload(
            name,
            base_rows=2_000,
            near_dup_frac=0.05,
            num_partitions=4,
            open_loop=True,
            # one 200-event segment a second: an epoch plus the reads due
            # in one interval fit in it, so each release gets its own epoch
            rate=200.0,
            release_events=200,
            duration_s=float(seconds),
            egress=True,
            agg=True,
            lookups=max(100, round(10 * seconds)),
        )
        if toy:
            wl = replace(wl, base_rows=100, rate=40.0, release_events=20, num_partitions=2, setup_repeats=2, lookups=10)
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    return wl


def link_rule() -> dict:
    from silk_ray.pipelines.rules import BENCH_RULE

    # the engine maintains the unfiltered link set
    return {k: v for k, v in BENCH_RULE.items() if k != "filter_limit"}


def agg_spec():
    from silk_ray.cdc.matview import AggViewSpec

    return AggViewSpec(
        group_by=("lang",),
        measures={"content_chars": ("sum_strlen", "content")},
        num_shards=DERIVED_SHARDS,
    )


def engine_config(wl: Workload, max_epochs: int):
    from silk_ray.cdc.engine import EngineConfig

    return EngineConfig(
        # the open loop consumes everything released so far
        epoch_size=2**40 if wl.open_loop else wl.epoch_size,
        num_partitions=wl.num_partitions,
        n_block_partitions=wl.n_block_partitions,
        rule_spec=link_rule() if wl.links else None,
        maintain_clusters=wl.clusters,
        agg_spec=agg_spec() if wl.agg else None,
        egress=wl.egress,
        egress_shards=DERIVED_SHARDS,
        max_epochs=max_epochs,
    )


# --------------------------------------------------------------------------
# set-up
# --------------------------------------------------------------------------


def start_ray(work: str) -> None:
    """A fresh local Ray instance. Ray gives its raylet a fixed 30 s to
    register; on a loaded host it can miss that, so a failed start is
    torn down and tried again, up to RAY_START_ATTEMPTS times."""
    import logging
    import sys

    import ray
    from ray.data import DataContext

    kwargs = {}
    ray_tmp = os.path.join(work, "ray")
    # Ray's socket paths live under its temp dir and must stay under the
    # 107-byte AF_UNIX limit; a deep checkout keeps Ray's default
    if len(ray_tmp) <= 40:
        kwargs["_temp_dir"] = ray_tmp
    for attempt in range(1, RAY_START_ATTEMPTS + 1):
        try:
            ray.init(
                # never attach to a cluster named by RAY_ADDRESS
                address="local",
                num_cpus=os.cpu_count(),
                object_store_memory=512 << 20,
                include_dashboard=False,
                logging_level="ERROR",
                log_to_driver=False,
                **kwargs,
            )
            break
        except Exception as e:  # noqa: BLE001 — retried, then re-raised
            print(f"ray.init attempt {attempt} failed: {e!r}", file=sys.stderr)
            ray.shutdown()
            # a failed init leaves its GCS and raylet running
            probes.reap_children(timeout_s=0.0)
            if attempt == RAY_START_ATTEMPTS:
                raise
    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)


def bootstrap(wl: Workload, root: str, base_path: str, as_of_offset: int, log_dir: str) -> None:
    """bootstrap_lake plus the engine's catch-up of every derived store
    (links, clusters, agg view, egress) to the bootstrap epoch."""
    from silk_ray.cdc import engine
    from silk_ray.cdc.bootstrap import bootstrap_lake

    bootstrap_lake(
        root,
        base_path,
        as_of_offset=as_of_offset,
        num_partitions=wl.num_partitions,
        link_spec=link_rule() if wl.links else None,
        n_block_partitions=wl.n_block_partitions,
    )
    engine.run(root, log_dir, engine_config(wl, max_epochs=0))


def warm_up(wl: Workload, inp: inputs_mod.Inputs, work: str) -> None:
    """One toy bootstrap, epoch and lookup in this workload's engine
    configuration, so Ray workers exist and every code path is imported
    before the first timed set-up."""
    from silk_ray.cdc import engine, merge

    d = os.path.join(work, "warm")
    os.makedirs(os.path.join(d, "log"))
    base = inp.base().slice(0, 64)
    pq.write_table(base, os.path.join(d, "base.parquet"))
    log = pq.read_table(inp.segments[0]).slice(0, 32)
    log = log.set_column(0, "offset", pa.array(np.arange(64, 64 + log.num_rows), pa.int64()))
    pq.write_table(log, os.path.join(d, "log", "segment-000000.parquet"))
    root = os.path.join(d, "lake")
    bootstrap(wl, root, os.path.join(d, "base.parquet"), 63, os.path.join(d, "log"))
    engine.run(root, os.path.join(d, "log"), engine_config(wl, max_epochs=1))
    merge.lookup_keys(root, list(zip(base["repo"].to_pylist()[:2], base["path"].to_pylist()[:2])))
    shutil.rmtree(d)


# --------------------------------------------------------------------------
# reads
# --------------------------------------------------------------------------


class KeyDrawer:
    """Zipf-drawn lookup batches over every key the inputs ever hold,
    plus keys that never exist."""

    def __init__(self, inp: inputs_mod.Inputs, wl: Workload, seed: int):
        base = pq.read_table(inp.base_path, columns=["repo", "path"])
        log = inp.changelog(columns=["repo", "path"])
        seen = dict.fromkeys(
            zip(
                base["repo"].to_pylist() + log["repo"].to_pylist(),
                base["path"].to_pylist() + log["path"].to_pylist(),
            )
        )
        self.rng = np.random.default_rng(seed)
        self.keys = list(seen)
        self.rng.shuffle(self.keys)
        w = 1.0 / np.arange(1, len(self.keys) + 1) ** 1.1
        self.p = w / w.sum()
        self.wl = wl

    def draw(self) -> list[tuple[str, str]]:
        out = []
        for _ in range(LOOKUP_BATCH):
            if self.rng.random() < ABSENT_FRAC:
                out.append(("repo-absent", f"src/absent_{int(self.rng.integers(0, 1000)):04d}.py"))
            else:
                out.append(self.keys[int(self.rng.choice(len(self.keys), p=self.p))])
        return out


def do_lookup(root: str, keys: list, state: "RunState") -> None:
    from silk_ray.cdc import checkpoint, merge

    next_offset = checkpoint.read_manifest(root).next_offset
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        got = merge.lookup_keys(root, keys)
    except Exception as e:  # noqa: BLE001 — a failed read is counted, not fatal
        state.errors.append(f"lookup: {e!r}")
        state.lookup_failed += 1
        return
    state.lookup_s.append(time.perf_counter() - t0)
    # lookups run in the driver only, so its CPU time is the read's cost
    state.lookup_cpu_s.append(time.process_time() - c0)
    state.lookups.append(
        {
            "next_offset": next_offset,
            "keys": [tuple(k) for k in keys],
            "got": oracle.table_digests(got) if got.num_rows else {},
        }
    )


# --------------------------------------------------------------------------
# the timed window
# --------------------------------------------------------------------------


@dataclass
class RunState:
    root: str
    tracer: Tracer | None
    storage: probes.StorageLog
    epochs: list = field(default_factory=list)  # engine metrics dict per epoch
    epoch_wall: list = field(default_factory=list)
    epoch_cpu: list = field(default_factory=list)
    epoch_ret: list = field(default_factory=list)  # (return time, next_offset after)
    epoch_failed: int = 0
    lookups: list = field(default_factory=list)
    lookup_s: list = field(default_factory=list)
    lookup_cpu_s: list = field(default_factory=list)
    lookup_failed: int = 0
    errors: list = field(default_factory=list)
    late_s: list = field(default_factory=list)
    mem_mb: list = field(default_factory=list)  # (driver, workers) per epoch
    lake_chain: list = field(default_factory=list)
    blockmap_chain: list = field(default_factory=list)


def run_one_epoch(wl: Workload, state: RunState, log_dir: str) -> dict | None:
    """One ``run(max_epochs=1)`` call, then the epoch-boundary probes.
    Returns the epoch's engine metrics, or None when nothing was left."""
    from silk_ray.cdc import checkpoint, engine

    cfg = engine_config(wl, max_epochs=1)
    c0 = probes.cpu_ticks()
    t0 = time.perf_counter()
    try:
        if state.tracer is not None:
            state.tracer.epoch = len(state.epochs) + 1
            out = state.tracer.call("engine.epoch", engine.run, state.root, log_dir, cfg)
        else:
            out = engine.run(state.root, log_dir, cfg)
    except Exception as e:  # noqa: BLE001 — a failed epoch is counted and ends the window
        state.errors.append(f"epoch: {e!r}")
        state.epoch_failed += 1
        if state.tracer is not None:
            state.tracer.epoch = None
        raise StopWindow from e
    t1 = time.perf_counter()
    c1 = probes.cpu_ticks()
    if state.tracer is not None:
        state.tracer.epoch = None
    if not out:
        return None
    manifest = checkpoint.read_manifest(state.root)
    state.epochs.append(out[0])
    state.epoch_wall.append(t1 - t0)
    state.epoch_cpu.append(probes.cpu_s_between(c0, c1))
    state.epoch_ret.append((t1, manifest.next_offset))
    state.storage.sample()
    state.mem_mb.append(probes.memory_mb())
    if state.tracer is not None:
        state.lake_chain.append(max((len(p.get("files", [])) for p in manifest.partitions.values()), default=0))
        if wl.links:
            from silk_ray.cdc.incremental import read_linkstate

            bm = read_linkstate(state.root).get("blockmap", {}).values()
            state.blockmap_chain.append(max((len(v) if isinstance(v, list) else 1 for v in bm), default=0))
    return out[0]


class StopWindow(Exception):
    pass


def catchup_window(wl: Workload, state: RunState, inp, drawer: KeyDrawer, cap_s: float) -> float:
    """Drain the backlog (every event is due at the window start), with a
    fixed number of lookup batches after each epoch. Returns the window
    start time."""
    per_gap = math.ceil(wl.lookups / wl.window_epochs)
    t0 = time.perf_counter()
    try:
        while len(state.epochs) < wl.window_epochs and time.perf_counter() - t0 < cap_s:
            if run_one_epoch(wl, state, inp.log_dir) is None:
                break
            for _ in range(per_gap):
                do_lookup(state.root, drawer.draw(), state)
    except StopWindow:
        pass
    return t0


def open_loop_window(wl: Workload, state: RunState, inp, drawer: KeyDrawer, tail_dir: str, cap_s: float):
    """Release segments into the tailed directory on a fixed schedule and
    issue lookups on their own fixed schedule; whenever released events
    are pending, run one epoch over all of them. Returns the window start
    and each segment's due time."""
    n_seg = len(inp.segments)
    interval = wl.duration_s / n_seg
    t0 = time.perf_counter()
    seg_due = [t0 + (i + 1) * interval for i in range(n_seg)]
    look_due = [t0 + (j + 0.5) * wl.duration_s / wl.lookups for j in range(wl.lookups)]
    released = consumed = looked = 0
    try:
        while time.perf_counter() - t0 < cap_s:
            now = time.perf_counter()
            while released < n_seg and seg_due[released] <= now:
                shutil.copyfile(inp.segments[released], os.path.join(tail_dir, os.path.basename(inp.segments[released])))
                state.late_s.append(time.perf_counter() - seg_due[released])
                released += 1
            if consumed < released:
                run_one_epoch(wl, state, tail_dir)
                consumed = released
                continue
            if looked < wl.lookups and look_due[looked] <= now:
                do_lookup(state.root, drawer.draw(), state)
                looked += 1
                continue
            if released == n_seg and looked == wl.lookups:
                break
            nxt = min(
                seg_due[released] if released < n_seg else math.inf,
                look_due[looked] if looked < wl.lookups else math.inf,
            )
            time.sleep(max(0.0, nxt - time.perf_counter()))
    except StopWindow:
        pass
    return t0, seg_due


# --------------------------------------------------------------------------
# one run
# --------------------------------------------------------------------------


def median(xs):
    return statistics.median(xs) if xs else 0.0


def quantile(xs, q: float) -> float:
    return float(np.quantile(np.asarray(xs, dtype=np.float64), q)) if len(xs) else 0.0


def run_workload(name: str, seed: int, seconds: float, trace: bool, checkout: str, toy: bool = False) -> dict:
    import ray

    wl = make_workload(name, seconds, toy=toy)
    cache = os.path.join(checkout, ".perfbench_cache")
    work = os.path.join(checkout, ".perfbench_work", f"{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    inp = inputs_mod.load_or_make(cache, wl, seed)
    host = probes.host_record(checkout, {"lake": work, "inputs": cache})
    try:
        t = time.perf_counter()
        start_ray(work)
        ray_s = time.perf_counter() - t
        try:
            return _measure(wl, seed, seconds, trace, inp, work, ray_s, host, checkout)
        finally:
            ray.shutdown()
            probes.reap_children()
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(wl, seed, seconds, trace, inp, work, ray_s, host, checkout) -> dict:
    from silk_ray.cdc import checkpoint, merge

    t = time.perf_counter()
    warm_up(wl, inp, work)
    warm_s = time.perf_counter() - t

    drawer = KeyDrawer(inp, wl, seed)
    # the driver's memory before the program holds any lake: Ray, the
    # imports and the benchmark's own key tables
    driver_base_mb, _ = probes.memory_mb()

    empty_log = os.path.join(work, "tail")
    os.makedirs(empty_log)
    log_dir = empty_log if wl.open_loop else inp.log_dir
    setup_wall, setup_cpu, root = [], [], None
    for i in range(wl.setup_repeats):
        if root is not None:
            shutil.rmtree(root)
        root = os.path.join(work, f"lake{i}")
        c0 = probes.cpu_ticks()
        t = time.perf_counter()
        bootstrap(wl, root, inp.base_path, inp.as_of_offset, log_dir)
        setup_wall.append(time.perf_counter() - t)
        setup_cpu.append(probes.cpu_s_between(c0, probes.cpu_ticks()))
    start_offset = checkpoint.read_manifest(root).next_offset

    tracer = Tracer() if trace else None
    state = RunState(root=root, tracer=tracer, storage=probes.StorageLog(root))
    cap_s = 8.0 * seconds
    # set-up and input writes reach the disk before the window, not in it
    os.sync()
    ticks0 = probes.host_cpu_ticks()
    if tracer is not None:
        tracer.install()
    try:
        if wl.open_loop:
            t0, seg_due = open_loop_window(wl, state, inp, drawer, empty_log, cap_s)
        else:
            t0 = catchup_window(wl, state, inp, drawer, cap_s)
            seg_due = None
        window_s = time.perf_counter() - t0
        host_shares = probes.host_shares(ticks0, probes.host_cpu_ticks())
        end_offset = checkpoint.read_manifest(root).next_offset
        lake_bytes = probes.du(root)

        # ---- correctness gates (untimed) ----
        checks: dict[str, list[str]] = {}
        relink_s = 0.0
        changelog = inp.changelog()
        events = oracle.history(inp.base(), changelog, end_offset)
        lake = merge.state_table(root)
        checks["lake"] = oracle.lake_gate(lake, events)
        checks["lookups"] = oracle.lookup_gate(events, state.lookups)
        if wl.links:
            from silk_ray.cdc.incremental import links_table
            from silk_ray.linking import pipeline

            def relink():
                # generate_links returns a lazy Dataset: the span and the
                # timing cover its execution too
                return pipeline.generate_links(
                    pipeline.add_uri_column(merge.snapshot_dataset(root)),
                    None,
                    link_rule(),
                    source_equals_target=True,
                    link_limit=None,
                    score_partitions=RELINK_SCORE_PARTITIONS,
                ).to_pandas()

            t = time.perf_counter()
            batch = tracer.call("linking.generate_links", relink) if tracer is not None else relink()
            relink_s = time.perf_counter() - t
            checks["links"] = oracle.links_gate(links_table(root), pa.Table.from_pandas(batch, preserve_index=False))
        if wl.agg:
            from silk_ray.cdc.matview import agg_table

            checks["agg"] = oracle.agg_gate(agg_table(root), lake, agg_spec())
    finally:
        if tracer is not None:
            tracer.uninstall()

    bad_lookups = {int(m.split(":")[0].split()[1]) for m in checks["lookups"]}
    failed = state.epoch_failed + state.lookup_failed + len(bad_lookups)
    failed += sum(1 for k, v in checks.items() if k != "lookups" and v)
    attempted = len(state.epochs) + state.epoch_failed + len(state.lookups) + state.lookup_failed
    attempted += sum(1 for k in checks if k != "lookups")

    seg_offsets = [pq.read_table(seg, columns=["offset"])["offset"].to_numpy() for seg in inp.segments]
    fresh = freshness(seg_offsets, state, t0, seg_due, start_offset)
    consumed_bytes = sum(
        os.path.getsize(seg) * np.count_nonzero((offs >= start_offset) & (offs < end_offset)) / len(offs)
        for seg, offs in zip(inp.segments, seg_offsets)
        if len(offs)
    )
    created, deleted, created_bytes = state.storage.totals()
    applied = sum(int(m["events_applied"]) for m in state.epochs)
    cpu_s = sum(state.epoch_cpu)
    e2e = {
        "setup_s": median(setup_cpu),
        "cpu_ms_per_event": 1000.0 * cpu_s / applied if applied else 0.0,
        "write_amp": created_bytes / consumed_bytes if consumed_bytes else 0.0,
        "space_amp": lake_bytes / lake.nbytes if lake.nbytes else 0.0,
        # Ray workers, plus what the driver gained over its baseline
        "mem_mb.p50": median([w + max(0.0, d - driver_base_mb) for d, w in state.mem_mb]),
    }
    # reported, not gated (see README.md, "Gated metrics and host
    # contention")
    wall = {
        "events_per_s": applied / sum(state.epoch_wall) if state.epoch_wall else 0.0,
        "epoch_s.p50": median(state.epoch_wall),
        "freshness_s.p50": quantile(fresh, 0.50),
        "freshness_s.p95": quantile(fresh, 0.95),
        "lookup_s.p50": quantile(state.lookup_s, 0.50),
        "lookup_s.p90": quantile(state.lookup_s, 0.90),
        "lookup_cpu_ms.p50": 1000.0 * quantile(state.lookup_cpu_s, 0.50),
        "relink_s": relink_s if wl.links else None,
    }
    extra = {
        **wall,
        "failed_frac": failed / attempted if attempted else 0.0,
        "ray_start_s": ray_s,
        "warm_up_s": warm_s,
        "setup_wall_s": setup_wall,
        "setup_cpu_s": setup_cpu,
        "driver_base_mb": driver_base_mb,
        "mem_samples_mb": state.mem_mb,
        "inputs_gen_s": inp.gen_s,
        "inputs_cache_hit": inp.cache_hit,
        "window_s": window_s,
        "epochs": len(state.epochs),
        "epoch_walls_s": state.epoch_wall,
        "epoch_cpu_s": state.epoch_cpu,
        "events_applied": applied,
        "lookups": len(state.lookup_s),
        # per epoch: links recomputed, removed and live after it
        "links_per_epoch": [
            [int(m["links"][k]) for k in ("links_recomputed", "links_removed", "links_total")]
            for m in state.epochs
        ] if wl.links else None,
        "lake_files_created": created,
        "lake_files_deleted": deleted,
        **host_shares,
    }
    result = {
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "params": asdict(wl),
        "host": host,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "errors": (state.errors + [m for v in checks.values() for m in v])[:50],
        "end_to_end": {k: {"value": v, "unit": UNITS[k]} for k, v in e2e.items()},
        "extra": extra,
    }
    if tracer is not None:
        result["per_layer"] = per_layer(wl, state, tracer, created, deleted, created_bytes, relink_s)
        result["layer_table"] = layer_table(tracer.spans)
        out = os.path.join(checkout, ".perfbench_out")
        os.makedirs(out, exist_ok=True)
        with open(os.path.join(out, f"trace-{wl.name}-seed{seed}.json"), "w") as f:
            json.dump({**result, "spans": tracer.to_records()}, f)
    return result


def freshness(seg_offsets, state: RunState, t0: float, seg_due, start_offset: int) -> list[float]:
    """Per consumed changelog row: the return time of the epoch that
    consumed it minus its due time (the window start for a catch-up
    backlog, its segment's scheduled release in the open loop)."""
    if not state.epoch_ret:
        return []
    rets = np.array([r for r, _ in state.epoch_ret])
    nexts = np.array([n for _, n in state.epoch_ret])
    out = []
    for i, offs in enumerate(seg_offsets):
        offs = offs[offs >= start_offset]
        k = np.searchsorted(nexts, offs, side="right")  # first epoch with next_offset > o
        k = k[k < len(nexts)]
        due = t0 if seg_due is None else seg_due[i]
        out.extend((rets[k] - due).tolist())
    return out


def per_layer(wl, state: RunState, tracer: Tracer, created, deleted, created_bytes, relink_s) -> dict:
    n = max(1, len(state.epochs))
    spans: list[Span] = tracer.spans
    selfs = self_times(spans)

    def total(prefix: str) -> float:
        return sum(s.end - s.start for s in spans if s.name.startswith(prefix) and s.epoch is not None)

    def count(prefix: str) -> int:
        return sum(1 for s in spans if s.name.startswith(prefix) and s.epoch is not None)

    ep = state.epochs
    links = [m.get("links", {}) for m in ep]
    exchange = sum(float(m["exchange_seconds"]) for m in ep) / n
    merge_s = sum(float(m["merge_seconds"]) for m in ep) / n
    applied = sum(int(m["events_applied"]) for m in ep)
    read = applied + sum(int(m["dup_skipped"]) + int(m["below_hwm"]) for m in ep)
    dirty = sum(int(l.get("dirty_uris", 0)) for l in links)
    affected = sum(int(l.get("affected_keys", 0)) for l in links)
    recomputed = sum(int(l.get("links_recomputed", 0)) for l in links)
    epoch_walls = [s.end - s.start for s in spans if s.name == "engine.epoch"]
    lookups = [s.end - s.start for s in spans if s.name == "merge.lookup_keys"]
    layer = {
        "merge.run_epoch_s": total("merge.run_epoch") / n,
        "merge.exchange_s": exchange,
        "merge.merge_s": merge_s,
        "merge.plan_commit_s": total("merge.run_epoch") / n - exchange - merge_s,
        "merge.applied_frac": applied / read if read else 0.0,
        "merge.dirty_per_applied": sum(int(m["dirty_total"]) for m in ep) / applied if applied else 0.0,
        "merge.skew_ratio": sum(float(m["skew_ratio"]) for m in ep) / n,
        "merge.lake_chain_len.max": max(state.lake_chain, default=0),
        "merge.lookup_keys_s.p50": median(lookups),
        "checkpoint.commit_s": total("checkpoint.") / n,
        "checkpoint.commits_per_epoch": count("checkpoint.") / n,
        "incremental.update_links_s": total("incremental.update_links") / n,
        "incremental.dirty_uris": dirty / n,
        "incremental.affected_keys": affected / n,
        "incremental.fanout": affected / dirty if dirty else 0.0,
        "incremental.links_recomputed": recomputed / n,
        "incremental.links_removed": sum(int(l.get("links_removed", 0)) for l in links) / n,
        "incremental.yield": recomputed / affected if affected else 0.0,
        "incremental.blockmap_chain_len.max": max(state.blockmap_chain, default=0),
        "clusters.update_s": total("clusters.update_clusters") / n,
        "matview.update_s": total("matview.update_aggregates") / n,
        "egress.update_s": total("egress.update_egress") / n,
        "gc.s": total("gc.") / n,
        "gc.files_deleted": sum(int(m.get("gc_files", 0)) for m in ep) / n,
        "engine.self_s": sum(x for s, x in zip(spans, selfs) if s.name == "engine.epoch") / n,
        "engine.cpu_s": sum(state.epoch_cpu) / n,
        "engine.lag_events.end": int(ep[-1]["lag_offsets"]) if ep else 0,
        "gen.late_s.max": max(state.late_s, default=0.0),
        "linking.generate_links_s": relink_s,
        "storage.files_created_per_epoch": created / n,
        "storage.files_deleted_per_epoch": deleted / n,
        "storage.bytes_written_per_epoch": created_bytes / n,
        "storage.live_files.end": state.storage.live_files(),
        "trace.overhead_frac": tracer.overhead_s / sum(epoch_walls) if epoch_walls else 0.0,
        "trace.epoch_s.p50": median(epoch_walls),
    }
    return {k: {"value": v, "unit": UNITS[k]} for k, v in layer.items()}
