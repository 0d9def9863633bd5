"""Isolate the deep-catch-up within-run epoch ramp (VERDICT r4 #1).

The 12x-corpus 32-CPU catch-up run shows per-epoch wall time ramping
~45 -> 60 s within one run. Two hypotheses:

  (a) host throttling — this sandbox VM reduces granted CPU cycles
      under sustained full-machine load (BASELINE.md control probes);
  (b) state growth — some engine phase secretly does work proportional
      to ACCUMULATED lake/link state instead of the epoch delta.

This script discriminates them with three in-run controls:

1. **Concurrent cycle probe.** A separate pure-ALU process samples
   iters/sec in small chunks through the whole run. Per epoch we
   report the mean probe rate in that epoch's wall window and the
   probe-normalized epoch time (epoch_seconds x rate_epoch /
   rate_first). Throttling deflates the probe identically; state
   growth does not.

2. **Back-to-back rerun (``--double``).** The same changelog replays
   into a FRESH lake root immediately after run 1 (host hot, state
   reset). State growth predicts run 2 repeats run 1's fast-then-slow
   curve; throttling predicts run 2 STARTS at run 1's final (hot)
   pace.

3. **Per-epoch link-phase splits.** The ``phases`` map of each epoch's
   ``_metrics/links-E.json`` record is emitted per epoch, plus the merge
   residual (epoch_seconds - link total): whichever phase carries the
   ramp is named, so a state-growth bug cannot hide inside an aggregate.

Usage (defaults match the bench --scaling deep-catch-up workload):

    RAY_GRAFT_CPUS=32 python tools/ramp_probe.py [--double]

Prints one JSON line; findings land in BASELINE.md.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

os.environ.setdefault("SILKRAY_SCALE_EVENTS", "4800000")
os.environ.setdefault("SILKRAY_SCALE_CORPUS", "12")

_MASK = 0xFFFFFFFFFFFFFFFF


def _probe_proc(out_path: str, stop_path: str) -> None:
    """Pure-ALU sampler: append ``<unix_ts> <iters_per_sec>`` lines in
    ~200k-iteration chunks until the stop file appears. Under a fully
    loaded 32-CPU box one chunk takes ~1-2 s — fine-grained enough to
    average per 45-60 s epoch."""
    x = 1469598103934665603
    buf = []
    while not os.path.exists(stop_path):
        t0 = time.perf_counter()
        for _ in range(20):
            for _ in range(10000):
                x = (x * 1099511628211) & _MASK
                x ^= x >> 33
        dt = time.perf_counter() - t0
        buf.append(f"{time.time()} {200000 / dt:.0f}\n")
        if len(buf) >= 5:
            with open(out_path, "a") as f:
                f.writelines(buf)
            buf = []
    with open(out_path, "a") as f:
        f.writelines(buf)


def _link_phases(root: str) -> list[dict]:
    """Per-epoch link-phase seconds from the lake's metrics records."""
    d = os.path.join(root, "_metrics")
    out = []
    for name in sorted(os.listdir(d)):
        if name.startswith("links-") and name.endswith(".json"):
            with open(os.path.join(d, name)) as f:
                out.append(json.load(f)["phases"])
    return out


def _one_run(seg_dir: str, corpus_x: int) -> dict:
    import shutil

    from silk_ray.cdc.engine import EngineConfig, run
    from silk_ray.pipelines.rules import BENCH_RULE

    lake_base = "/dev/shm" if os.path.isdir("/dev/shm") else None
    root = tempfile.mkdtemp(prefix="silkray_ramp_lake_", dir=lake_base)
    spec = {k: v for k, v in BENCH_RULE.items() if k != "filter_limit"}
    n_events = int(os.environ["SILKRAY_SCALE_EVENTS"])
    cfg = EngineConfig(
        epoch_size=max(25_000, n_events // 4),
        num_partitions=32,
        n_block_partitions=64 * corpus_x,
        rule_spec=spec,
    )
    t0_wall = time.time()
    t0 = time.perf_counter()
    metrics = run(root, seg_dir, cfg)
    dt = time.perf_counter() - t0
    phases = _link_phases(root)
    shutil.rmtree(root, ignore_errors=True)

    # reconstruct epoch wall windows: epochs run sequentially; scale
    # cumulative epoch_seconds onto the run's [t0_wall, t0_wall+dt]
    eps = [m["epoch_seconds"] for m in metrics]
    total_ep = sum(eps) or 1.0
    bounds, acc = [], 0.0
    for e in eps:
        bounds.append((t0_wall + dt * acc / total_ep, t0_wall + dt * (acc + e) / total_ep))
        acc += e

    return {
        "seconds": round(dt, 2),
        "events_applied": sum(m["events_applied"] for m in metrics),
        "epoch_seconds": [round(e, 2) for e in eps],
        "epoch_windows": bounds,
        "link_phase_seconds": phases,
        "merge_residual_seconds": [
            round(e - sum(p.values()), 2)
            for e, p in zip(eps, phases)
        ]
        if len(phases) == len(eps)
        else None,
    }


def main() -> None:
    import multiprocessing as mp

    import ray

    import bench

    ncpu = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
    corpus_x = int(os.environ["SILKRAY_SCALE_CORPUS"])
    seg_dir, n_events = bench.prepare_changelog(int(os.environ["SILKRAY_SCALE_EVENTS"]))

    ray.init(address="local", num_cpus=ncpu, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    bench._warm_workers()

    probe_file = tempfile.mktemp(prefix="silkray_ramp_probe_")
    stop_file = probe_file + ".stop"
    proc = mp.Process(target=_probe_proc, args=(probe_file, stop_file))
    proc.start()
    time.sleep(3)  # a few unloaded-baseline samples before the run

    runs = [_one_run(seg_dir, corpus_x)]
    if "--double" in sys.argv:
        runs.append(_one_run(seg_dir, corpus_x))
    with open(stop_file, "w") as f:
        f.write("stop")
    proc.join(timeout=30)
    ray.shutdown()

    samples = []
    with open(probe_file) as f:
        for line in f:
            ts, rate = line.split()
            samples.append((float(ts), float(rate)))
    os.unlink(probe_file)
    os.unlink(stop_file)

    def window_rate(lo: float, hi: float) -> float | None:
        xs = [r for t, r in samples if lo <= t < hi]
        return round(sum(xs) / len(xs)) if xs else None

    out: dict = {"num_cpus": ncpu, "events": n_events, "corpus_x": corpus_x,
                 "probe_samples": len(samples)}
    for i, r in enumerate(runs, 1):
        rates = [window_rate(lo, hi) for lo, hi in r.pop("epoch_windows")]
        r["probe_iters_per_sec_per_epoch"] = rates
        base = next((x for x in rates if x), None)
        # epoch time x (epoch host speed / first-epoch host speed):
        # flat => the ramp is exactly the host's cycle deflation
        r["epoch_seconds_host_normalized"] = (
            [
                round(e * rt / base, 2) if rt and base else None
                for e, rt in zip(r["epoch_seconds"], rates)
            ]
            if base
            else None
        )
        out[f"run{i}"] = r
    print(json.dumps(out))


if __name__ == "__main__":
    main()
