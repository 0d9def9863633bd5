"""Online lake repartitioning (cdc/repartition.py) + layout pinning.

Invariants:
- the manifest pins num_partitions at first commit; resuming with a
  different count fails loudly instead of scattering keys across two
  layouts (duplicate live rows);
- repartition_lake(root, M) preserves the state byte-for-byte
  (state_sha256 equality), up or down, and the continued tail converges
  to the same final state as an uninterrupted fixed-layout run;
- a crash between the wave writes and the manifest swap leaves the old
  layout authoritative; the rerun converges;
- time-travel reads at pre-repartition epochs keep resolving the old
  layout through retained manifest snapshots;
- the auxiliary stores (links, clusters, agg view, egress) ride through
  the eventless repartition epoch and end equal to an uninterrupted
  run's;
- lookup_keys routes point reads through the pinned layout at any
  retained epoch.
"""

import copy
import os

import pyarrow.compute as pc
import pytest

from silk_ray.cdc import checkpoint as ckpt
from silk_ray.cdc.generator import make_base_table, make_changelog, sequential_apply
from silk_ray.cdc.merge import (
    gc_lake,
    lookup_keys,
    run_epoch,
    run_to_completion,
    state_sha256,
    state_table,
)
from silk_ray.cdc.repartition import repartition_lake

EPOCH = 300


@pytest.fixture(scope="module")
def log():
    base = make_base_table(150, seed=71)
    return make_changelog(base, 1800, seed=72, dup_frac=0.03)


def _prefix(log, n):
    return log.filter(pc.less(log["offset"], n))


def _run_all(root, log, n_parts, **kw):
    run_to_completion(root, log, epoch_size=EPOCH, num_partitions=n_parts, **kw)


def test_num_partitions_is_pinned_and_validated(ray_session, log, tmp_path):
    root = str(tmp_path / "lake")
    run_epoch(root, log, epoch_size=EPOCH, num_partitions=4)
    assert ckpt.read_manifest(root).num_partitions == 4
    with pytest.raises(ValueError, match="partitioned 4-way"):
        run_epoch(root, log, epoch_size=EPOCH, num_partitions=8)
    # the pinned value keeps working
    assert run_epoch(root, log, epoch_size=EPOCH, num_partitions=4) is not None


@pytest.mark.parametrize("new_n", [9, 2])
def test_repartition_preserves_state_and_continued_tail(ray_session, log, tmp_path, new_n):
    """Up (4→9) and down (4→2): sha identical at the boundary, and the
    continued tail equals an uninterrupted fixed-layout run."""
    root = str(tmp_path / f"lake{new_n}")
    run_to_completion(root, _prefix(log, 2 * EPOCH), epoch_size=EPOCH, num_partitions=4)
    pre_sha = state_sha256(root)
    pre_epoch = ckpt.read_manifest(root).epoch

    m = repartition_lake(root, new_n)
    assert m["repartition"] == {"from": 4, "to": new_n}
    man = ckpt.read_manifest(root)
    assert man.epoch == pre_epoch + 1
    assert man.num_partitions == new_n
    assert state_sha256(root) == pre_sha
    # every pid in the new layout is addressable under the new modulus
    assert all(pid < new_n for pid in man.partitions)

    # old count now fails loudly; the new one continues the tail
    with pytest.raises(ValueError, match=f"partitioned {new_n}-way"):
        run_epoch(root, log, epoch_size=EPOCH, num_partitions=4)
    _run_all(root, log, new_n)

    oracle_root = str(tmp_path / f"oracle{new_n}")
    _run_all(oracle_root, log, new_n)
    assert state_sha256(root) == state_sha256(oracle_root)


def test_repartition_noop_and_preconditions(ray_session, log, tmp_path):
    root = str(tmp_path / "lake")
    with pytest.raises(ValueError, match="no committed epochs"):
        repartition_lake(root, 8)
    run_epoch(root, log, epoch_size=EPOCH, num_partitions=4)
    e = ckpt.read_manifest(root).epoch
    m = repartition_lake(root, 4)
    assert m["repartition"]["mode"] == "noop"
    assert ckpt.read_manifest(root).epoch == e  # no epoch burned
    with pytest.raises(ValueError, match=">= 1"):
        repartition_lake(root, 0)


def test_crash_before_manifest_swap_leaves_old_layout(ray_session, log, tmp_path, monkeypatch):
    """Files written + no manifest swap == nothing happened; the rerun
    converges on identical state."""
    root = str(tmp_path / "lake")
    run_to_completion(root, _prefix(log, 2 * EPOCH), epoch_size=EPOCH, num_partitions=4)
    sha = state_sha256(root)
    man_before = ckpt.read_manifest(root).to_dict()

    from silk_ray.cdc import repartition as rp

    def boom(*a, **kw):
        raise RuntimeError("injected crash before commit")

    monkeypatch.setattr(rp.ckpt, "commit_manifest", boom)
    with pytest.raises(RuntimeError, match="injected crash"):
        repartition_lake(root, 7)
    monkeypatch.undo()

    # old manifest authoritative, state intact, resume under old N works
    assert ckpt.read_manifest(root).to_dict() == man_before
    assert state_sha256(root) == sha
    # rerun completes and converges
    repartition_lake(root, 7)
    assert state_sha256(root) == sha
    assert ckpt.read_manifest(root).num_partitions == 7


def test_time_travel_across_repartition_boundary(ray_session, log, tmp_path):
    root = str(tmp_path / "lake")
    run_to_completion(root, _prefix(log, 2 * EPOCH), epoch_size=EPOCH, num_partitions=4)
    pre_epoch = ckpt.read_manifest(root).epoch
    pre_sha = state_sha256(root)
    repartition_lake(root, 6)
    _run_all(root, log, 6)
    # no GC ran: the pre-repartition epoch still reads via its snapshot
    assert state_sha256(root, at_epoch=pre_epoch) == pre_sha
    # the repartition epoch itself reads identically (same state, new layout)
    assert state_sha256(root, at_epoch=pre_epoch + 1) == pre_sha


def test_gc_reclaims_old_layout_files(ray_session, log, tmp_path):
    root = str(tmp_path / "lake")
    run_to_completion(root, _prefix(log, 2 * EPOCH), epoch_size=EPOCH, num_partitions=4)
    gc_lake(root)
    repartition_lake(root, 6)
    # old chain is in prev_files: retained through the rollback window
    removed_now = gc_lake(root)
    old_files = [
        f for f in ckpt.read_manifest(root).prev_files
        if os.path.exists(os.path.join(root, f))
    ]
    assert old_files, "rollback window must retain the old layout"
    # one more committed epoch pushes the old layout out of the window
    run_to_completion(root, log, epoch_size=EPOCH, num_partitions=6)
    gc_lake(root)
    for f in old_files:
        assert not os.path.exists(os.path.join(root, f)), f"old-layout file survived GC: {f}"
    assert removed_now >= 0


def test_full_engine_rides_through_repartition(ray_session, log, tmp_path):
    """links + clusters + agg view + egress all equal an uninterrupted
    run's after a mid-stream repartition (the eventless epoch is a
    catch-up no-op for every auxiliary store)."""
    from silk_ray.cdc.clusters import clusters_table
    from silk_ray.cdc.egress import egress_table
    from silk_ray.cdc.engine import EngineConfig, run
    from silk_ray.cdc.incremental import links_table
    from silk_ray.cdc.matview import AggViewSpec, agg_table
    from silk_ray.pipelines.rules import BENCH_RULE

    spec = copy.deepcopy(BENCH_RULE)
    spec.pop("filter_limit", None)
    agg = AggViewSpec(group_by=("lang",), measures={"chars": ("sum_strlen", "content")})

    def cfg(n):
        return EngineConfig(
            epoch_size=EPOCH, num_partitions=n, n_block_partitions=8,
            rule_spec=spec, maintain_clusters=True, agg_spec=agg, egress=True,
        )

    root = str(tmp_path / "lake")
    run(root, _prefix(log, 2 * EPOCH), cfg(4))
    repartition_lake(root, 9)
    run(root, log, cfg(9))

    oracle = str(tmp_path / "oracle")
    run(oracle, log, cfg(9))

    assert state_sha256(root) == state_sha256(oracle)
    for reader in (links_table, clusters_table, agg_table, egress_table):
        # the repartition burns an epoch number, so internal epoch labels
        # shift by one in the interrupted run; content must be identical
        def canon(r):
            t = reader(r)
            t = t.drop_columns(
                [c for c in t.column_names if c == "epoch" or c.startswith("epoch_")]
            )
            df = t.to_pandas()
            return df.sort_values(list(df.columns)).reset_index(drop=True)

        a, b = canon(root), canon(oracle)
        assert a.equals(b), f"{reader.__name__} diverged across repartition"


def test_lookup_keys_routes_through_pinned_layout(ray_session, log, tmp_path):
    root = str(tmp_path / "lake")
    run_to_completion(root, log, epoch_size=EPOCH, num_partitions=5)
    state = sequential_apply(log)
    live = sorted(state.keys())
    sample = [live[i] for i in range(0, len(live), max(1, len(live) // 7))][:7]
    # a key that was deleted (in some changelog) or never existed
    absent = [("no-such-repo", "no/such/path.py")]

    got = lookup_keys(root, sample + absent)
    assert got.num_rows == len(sample)
    by_key = {(r["repo"], r["path"]): r for r in got.to_pylist()}
    for k in sample:
        assert by_key[k]["content"] == state[k]["content"]
        assert by_key[k]["commit"] == state[k]["commit"]

    # survives a repartition: same answers under the new layout
    repartition_lake(root, 11)
    got2 = lookup_keys(root, sample)
    assert got2.to_pylist() == got.to_pylist()

    # as-of-epoch lookup equals the prefix oracle
    e1_next = ckpt.read_manifest_at(root, 1).next_offset
    prefix_state = sequential_apply(_prefix(log, e1_next))
    k0 = sorted(prefix_state.keys())[0]
    old = lookup_keys(root, [k0], at_epoch=1)
    assert old.num_rows == 1
    assert old.to_pylist()[0]["content"] == prefix_state[k0]["content"]


def test_lookup_keys_legacy_manifest_requires_explicit_count(ray_session, log, tmp_path):
    """A manifest that predates layout pinning is refused by
    ``lookup_keys`` and ``repartition_lake`` alike: nothing can supply
    its key routing."""
    root = str(tmp_path / "lake")
    run_epoch(root, log, epoch_size=EPOCH, num_partitions=4)
    # simulate a pre-pinning manifest
    m = ckpt.read_manifest(root)
    m.num_partitions = None
    ckpt.commit_manifest(root, m, window=(0, 0))
    # no explicit count can stand in for the pinned layout: both refuse
    with pytest.raises(ValueError, match="predates layout pinning"):
        lookup_keys(root, [("r", "p")])
    with pytest.raises(ValueError, match="predates layout pinning"):
        repartition_lake(root, 8)
    assert ckpt.read_manifest(root).num_partitions is None


def test_lake_stats_and_advisor(ray_session, log, tmp_path, capsys):
    from silk_ray.__main__ import main
    from silk_ray.cdc.repartition import lake_stats, suggest_num_partitions

    root = str(tmp_path / "lake")
    run_to_completion(root, log, epoch_size=EPOCH, num_partitions=4)
    st = lake_stats(root)
    assert st["num_partitions"] == 4
    assert st["rows_total"] == state_table(root).num_rows
    assert st["bytes_total"] > 0 and st["max_partition_bytes"] > 0
    assert st["row_skew_ratio"] >= 1.0
    assert sum(p["rows"] for p in st["partitions"].values()) == st["rows_total"]

    # tiny lake under the default target: advice is keep or shrink, with
    # hysteresis (no thrash for <2x)
    adv = suggest_num_partitions(root)
    assert adv["current"] == 4
    assert adv["action"] in ("keep", "shrink")
    # a tight target forces growth advice
    adv2 = suggest_num_partitions(root, target_partition_bytes=1024)
    assert adv2["action"] == "grow" and adv2["suggested"] > 8

    # CLI --stats path (no rewrite happens)
    import json as _json

    e = ckpt.read_manifest(root).epoch
    assert main(["repartition", "--root", root, "--stats"]) == 0
    out = _json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["stats"]["num_partitions"] == 4
    assert out["advice"]["current"] == 4
    assert ckpt.read_manifest(root).epoch == e


def test_windows_ride_through_repartition(ray_session, tmp_path):
    """The window store (event-time tumbling windows over the ingest
    stream) catches up over the eventless repartition epoch and ends
    equal to an uninterrupted run's output."""
    import numpy as np
    import pyarrow as pa

    from silk_ray.cdc.engine import EngineConfig, run
    from silk_ray.cdc.windows import WindowSpec, late_table, windows_table

    base = make_base_table(80, seed=91)
    log = make_changelog(base, 1200, seed=92, dup_frac=0.02)
    # event-time column: 30 s cadence with jitter and a late tail
    rng = np.random.default_rng(93)
    n = log.num_rows
    ts = 1_700_000_000_000_000 + log["offset"].to_numpy() * 30_000_000
    ts = ts + rng.integers(-60, 60, n) * 1_000_000
    late = rng.choice(n, size=n // 25, replace=False)
    ts[late] -= 3_600_000_000
    log = log.append_column("ts", pa.array(ts, pa.int64()).cast(pa.timestamp("us")))

    spec = WindowSpec(ts_col="ts", width_s=600, allowed_lateness_s=120,
                      group_by=("lang",))

    def cfg(nparts):
        return EngineConfig(epoch_size=EPOCH, num_partitions=nparts, window_spec=spec)

    root = str(tmp_path / "lake")
    run(root, _prefix(log, 2 * EPOCH), cfg(4))
    repartition_lake(root, 9)
    run(root, log, cfg(9))

    oracle = str(tmp_path / "oracle")
    run(oracle, log, cfg(9))

    for reader in (windows_table, late_table):
        a, b = reader(root), reader(oracle)
        drop = [c for c in a.column_names if c == "epoch" or c.startswith("epoch_")]
        a, b = a.drop_columns(drop), b.drop_columns(drop)
        ka = sorted(map(tuple, zip(*[a[c].to_pylist() for c in a.column_names])), key=repr)
        kb = sorted(map(tuple, zip(*[b[c].to_pylist() for c in b.column_names])), key=repr)
        assert ka == kb, f"{reader.__name__} diverged across repartition"
