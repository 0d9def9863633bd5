"""Multi-node scenario runner, executed in a SUBPROCESS by
tests/test_multinode.py.

Why a subprocess: the pytest session owns a single-node ``ray.init``
(conftest.py); a ``ray.cluster_utils.Cluster`` cannot coexist with it
in one process. Each invocation builds the same deterministic inputs,
runs one scenario either single-node (``local``) or on a simulated
3-node cluster (``multi``: a 0-CPU head + two 3-CPU workers, each with
its OWN plasma object store), and prints one JSON line.

The 0-CPU head is the point: the driver runs on the head, so EVERY
task — changelog read/split, merge-apply, link waves, repartition,
demux route/write — must execute on a worker node, which forces
cross-node object transfer for every driver-put argument and every
task-output ref the driver gathers. Engine task functions are wrapped
to append their executing node id to a shared file, so the test can
assert the work actually spanned BOTH worker nodes (not just that a
cluster existed). The lake root lives on a filesystem shared by all
nodes — the same shared-root idiom a real multi-node deployment of
this engine assumes (BASELINE.md "Multi-node readiness").

Checked claims (test asserts on the JSON):
- run_epoch + incremental link waves + repartition_lake and the
  demux → per-table-engine composition all COMPLETE on a multi-node
  cluster (cross-node plasma transfer exercised, not argued);
- ``state_sha256`` / link counts are byte-identical between the
  single-node and 3-node runs — replay determinism extends across
  cluster topologies;
- engine tasks executed on ≥ 2 distinct worker nodes.
"""

from __future__ import annotations

import copy
import json
import os
import sys
import time


def _node_log(tmp: str) -> str:
    return os.path.join(tmp, "task_nodes.txt")


def _record_node(tmp: str) -> None:
    import ray

    nid = ray.get_runtime_context().get_node_id()
    with open(_node_log(tmp), "a") as f:
        f.write(nid + "\n")


def _wrap_tasks(tmp: str) -> None:
    """Wrap the engine's exchange map and reduce functions (each site
    hands them to ``exchange`` by module-global lookup at call time, so
    rebinding the module attribute is enough) to record the node each
    task executes on."""
    from silk_ray.cdc import demux, merge, repartition

    def wrapping(mod, name):
        orig = getattr(mod, name)

        def wrapped(*a, **kw):
            _record_node(tmp)
            return orig(*a, **kw)

        setattr(mod, name, wrapped)

    wrapping(merge, "_read_split_task")
    wrapping(merge, "_merge_pid_task")
    wrapping(repartition, "_repart_read_task")
    wrapping(repartition, "_repart_write_task")
    wrapping(demux, "_route_fragment")
    wrapping(demux, "_write_seg")


def _distinct_nodes(tmp: str) -> int:
    try:
        with open(_node_log(tmp)) as f:
            return len({line.strip() for line in f if line.strip()})
    except FileNotFoundError:
        return 0


def _rule():
    from silk_ray.pipelines.rules import BENCH_RULE

    rule = copy.deepcopy(BENCH_RULE)
    rule.pop("filter_limit", None)
    return rule


def engine_scenario(tmp: str) -> dict:
    """run_epoch (read/split → merge exchange) + incremental link waves
    + repartition_lake, on a file-backed segmented changelog."""
    from silk_ray.cdc.engine import EngineConfig, run
    from silk_ray.cdc.generator import (
        make_base_table,
        make_changelog,
        write_changelog_segments,
    )
    from silk_ray.cdc.incremental import links_table
    from silk_ray.cdc.merge import state_sha256
    from silk_ray.cdc.repartition import repartition_lake

    base = make_base_table(100, seed=301, near_dup_frac=0.2)
    log = make_changelog(base, 600, seed=302, dup_frac=0.03)
    seg_dir = os.path.join(tmp, "changelog")
    if not os.path.isdir(seg_dir):
        write_changelog_segments(log, seg_dir, segment_size=120)
    root = os.path.join(tmp, "lake")
    cfg = EngineConfig(
        epoch_size=150, num_partitions=6, n_block_partitions=8, rule_spec=_rule()
    )
    t0 = time.perf_counter()
    metrics = run(root, seg_dir, cfg)
    wall = time.perf_counter() - t0
    links = links_table(root)
    sha = state_sha256(root)
    repartition_lake(root, 3)
    return {
        "epochs": len(metrics),
        "events": sum(m["events_applied"] for m in metrics),
        "sha": sha,
        "links": links.num_rows,
        "sha_after_repartition": state_sha256(root),
        "engine_wall_s": round(wall, 2),
    }


def demux_scenario(tmp: str) -> dict:
    """Shared txn-tagged binlog → demux (txn-aligned cuts) → two
    per-table txn-atomic engines under one root, each ALSO maintaining
    an aggregate matview and an egress changelog — the full per-table
    subsystem set executing cross-node, with the egress stream's
    deterministic sha folded into the compared fingerprint."""
    import hashlib

    from silk_ray.cdc.demux import run_multi
    from silk_ray.cdc.egress import egress_table
    from silk_ray.cdc.engine import EngineConfig
    from silk_ray.cdc.generator import (
        assign_txns,
        interleave_changelogs,
        make_base_table,
        make_changelog,
    )
    from silk_ray.cdc.matview import AggViewSpec, agg_table
    from silk_ray.cdc.merge import state_sha256

    a = make_changelog(make_base_table(60, seed=311), 420, seed=312, dup_frac=0.05)
    b = make_changelog(make_base_table(40, seed=313), 300, seed=314, evolve_at=120)
    combined = assign_txns(
        interleave_changelogs({"code": a, "docs": b}, seed=9), seed=315, mean_size=6
    )
    root = os.path.join(tmp, "multi")
    spec = AggViewSpec(group_by=("lang",), measures={}, count_col="n", num_shards=4)
    cfgs = {
        n: EngineConfig(
            epoch_size=120, num_partitions=4, txn_atomic=True,
            egress=True, egress_shards=4, agg_spec=spec,
        )
        for n in ("code", "docs")
    }
    t0 = time.perf_counter()
    run_multi(root, combined, cfgs, demux_epoch=240)
    wall = time.perf_counter() - t0
    out = {"demux_wall_s": round(wall, 2)}
    for n in ("code", "docs"):
        lake = os.path.join(root, "lakes", n)
        out[f"sha_{n}"] = state_sha256(lake)
        view = sorted(
            (r["lang"], r["n"]) for r in agg_table(lake).to_pylist()
        )
        eg = egress_table(lake).sort_by([("seq", "ascending")])
        out[f"sha_view_egress_{n}"] = hashlib.sha256(
            (repr(view) + "|" + repr(eg.to_pylist())).encode()
        ).hexdigest()
    return out


def scale_scenario(tmp: str) -> dict:
    """Data-scale variant of engine_scenario (VERDICT r4 #3): a 2,000-
    file corpus and a 400k-event changelog, so the 1-node vs 3-node
    comparison amortizes per-task latency instead of measuring it.
    Not part of the pytest suite (runtime); run manually:

        python tests/multinode_scenario.py scale /tmp/mn_scale_local local
        python tests/multinode_scenario.py scale /tmp/mn_scale_multi multi

    and compare ``sha`` / ``events_per_sec`` (recorded in BASELINE.md).
    """
    from silk_ray.cdc.engine import EngineConfig, run
    from silk_ray.cdc.generator import (
        make_base_table,
        make_changelog,
        write_changelog_segments,
    )
    from silk_ray.cdc.incremental import links_table
    from silk_ray.cdc.merge import state_sha256

    base = make_base_table(2000, seed=401, near_dup_frac=0.1)
    log = make_changelog(base, 400_000, seed=402, dup_frac=0.02)
    seg_dir = os.path.join(tmp, "changelog")
    if not os.path.isdir(seg_dir):
        write_changelog_segments(log, seg_dir, segment_size=50_000)
    root = os.path.join(tmp, "lake")
    cfg = EngineConfig(
        epoch_size=100_000, num_partitions=16, n_block_partitions=32,
        rule_spec=_rule(),
    )
    t0 = time.perf_counter()
    metrics = run(root, seg_dir, cfg)
    wall = time.perf_counter() - t0
    events = sum(m["events_applied"] for m in metrics)
    return {
        "epochs": len(metrics),
        "events": events,
        "sha": state_sha256(root),
        "links": links_table(root).num_rows,
        "engine_wall_s": round(wall, 2),
        "events_per_sec": round(events / wall, 1),
        "epoch_seconds": [round(m["epoch_seconds"], 2) for m in metrics],
    }


SCENARIOS = {"engine": engine_scenario, "demux": demux_scenario, "scale": scale_scenario}


def main() -> None:
    scenario, tmp, topology = sys.argv[1], sys.argv[2], sys.argv[3]
    os.makedirs(tmp, exist_ok=True)
    import ray

    # the scale scenario runs with data-scale parallelism (8 CPUs per
    # worker node / 16 single-node) so cross-node overhead is measured
    # against real epoch work, not per-task latency
    ncpu_worker = 8 if scenario == "scale" else 3
    cluster = None
    if topology == "multi":
        from ray.cluster_utils import Cluster

        cluster = Cluster(
            initialize_head=True,
            head_node_args={"num_cpus": 0, "include_dashboard": False},
        )
        cluster.add_node(num_cpus=ncpu_worker)
        cluster.add_node(num_cpus=ncpu_worker)
        ray.init(address=cluster.address)
        alive = [n for n in ray.nodes() if n["Alive"]]
        assert len(alive) == 3, f"expected 3 alive nodes, got {len(alive)}"
    else:
        ray.init(address="local", num_cpus=2 * ncpu_worker, include_dashboard=False)

    _wrap_tasks(tmp)
    out = SCENARIOS[scenario](tmp)
    out["topology"] = topology
    out["task_nodes"] = _distinct_nodes(tmp)
    ray.shutdown()
    if cluster is not None:
        cluster.shutdown()
    print("RESULT " + json.dumps(out))


if __name__ == "__main__":
    main()
