"""As-of-epoch (time-travel) reads over the lake: per-epoch manifest
snapshots + retention-aware GC (merge.py `gc_lake(retain_epochs=)`,
checkpoint.py `read_manifest_at`).

Invariants:
- `state_table(root, at_epoch=e)` equals the sequential oracle over the
  changelog prefix consumed through epoch e (exact historical state,
  not an approximation);
- the default retention (1) keeps exactly the rollback window readable
  and is byte-identical in storage behavior to the pre-feature GC;
- deeper retention keeps deeper history; reads past the window fail
  loudly, never silently return wrong data.
"""

import pyarrow.compute as pc
import pytest

from silk_ray.cdc import chain, checkpoint as ckpt
from silk_ray.cdc.generator import make_base_table, make_changelog, sequential_apply
from silk_ray.cdc.merge import (
    gc_lake,
    run_epoch,
    run_to_completion,
    state_sha256,
    state_table,
)

KEYS = ("repo", "path", "commit", "lang", "content")


def _strip(rows):
    return [{k: r.get(k) for k in KEYS} for r in rows]


def _oracle_prefix(changelog, next_offset):
    prefix = changelog.filter(pc.less(changelog["offset"], next_offset))
    state = sequential_apply(prefix)
    return _strip([state[k] for k in sorted(state.keys())])


@pytest.fixture(scope="module")
def log():
    base = make_base_table(120, seed=61)
    return make_changelog(base, 1500, seed=62, dup_frac=0.03)


def test_time_travel_matches_prefix_oracle(ray_session, log, tmp_path, monkeypatch):
    """Without GC, every committed epoch is readable and equals the
    oracle over exactly the offsets consumed through that epoch."""
    monkeypatch.setattr(chain, "COMPACT_AT", 3)
    root = str(tmp_path / "lake")
    run_to_completion(root, log, epoch_size=300, num_partitions=4)
    current = ckpt.read_manifest(root).epoch
    assert current == 5
    for e in range(1, current + 1):
        next_offset = ckpt.read_manifest_at(root, e).next_offset
        got = _strip(state_table(root, at_epoch=e).to_pylist())
        assert got == _oracle_prefix(log, next_offset), f"epoch {e}"
    # at_epoch=current is the current state
    assert state_sha256(root, at_epoch=current) == state_sha256(root)


def test_default_retention_keeps_rollback_window_only(ray_session, log, tmp_path, monkeypatch):
    monkeypatch.setattr(chain, "COMPACT_AT", 3)
    root = str(tmp_path / "lake")
    shas = {}
    while True:
        m = run_epoch(root, log, epoch_size=300, num_partitions=4)
        if m is None:
            break
        shas[m["epoch"]] = state_sha256(root)
        gc_lake(root)  # default retain_epochs=1, as the engine runs it
    current = ckpt.read_manifest(root).epoch
    # previous epoch: readable, exact
    assert state_sha256(root, at_epoch=current - 1) == shas[current - 1]
    # two back: loudly gone
    with pytest.raises(FileNotFoundError, match="retention window"):
        state_table(root, at_epoch=current - 2)


def test_deep_retention_time_travel(ray_session, log, tmp_path, monkeypatch):
    monkeypatch.setattr(chain, "COMPACT_AT", 2)
    root = str(tmp_path / "lake")
    shas = {}
    while True:
        m = run_epoch(root, log, epoch_size=250, num_partitions=4)
        if m is None:
            break
        shas[m["epoch"]] = state_sha256(root)
        gc_lake(root, retain_epochs=3)
    current = ckpt.read_manifest(root).epoch
    assert current == 6
    for e in range(current - 3, current + 1):
        assert state_sha256(root, at_epoch=e) == shas[e], f"epoch {e}"
    with pytest.raises(FileNotFoundError, match="retention window"):
        state_table(root, at_epoch=current - 4)


def test_unknown_epoch_fails_loudly(ray_session, log, tmp_path):
    root = str(tmp_path / "lake")
    run_epoch(root, log, epoch_size=300, num_partitions=2)
    with pytest.raises(FileNotFoundError, match="never committed"):
        state_table(root, at_epoch=99)


# ---------------------------------------------------------------------------
# link + cluster store time travel (same snapshot/retention idiom)
# ---------------------------------------------------------------------------


def _links_rows(t):
    return sorted(zip(t["source"].to_pylist(), t["target"].to_pylist()))


def _cluster_rows(t):
    return sorted(zip(t["uri"].to_pylist(), t["cluster_id"].to_pylist()))


def test_link_and_cluster_store_time_travel(ray_session, tmp_path):
    """Every store in the engine commits via pointer swap and supports
    as-of-epoch reads within the retention window: drive the full linked
    engine (lake + links + clusters) one epoch at a time with
    retain_epochs=3, then read every retained epoch's link set and
    cluster table back and compare to what was observed live."""
    import copy

    from silk_ray.cdc.clusters import clusters_table, read_clusterstate
    from silk_ray.cdc.engine import EngineConfig, run
    from silk_ray.cdc.incremental import links_table, read_linkstate
    from silk_ray.pipelines.rules import BENCH_RULE

    rule = copy.deepcopy(BENCH_RULE)
    rule.pop("filter_limit", None)
    base = make_base_table(100, seed=71, near_dup_frac=0.25)
    log = make_changelog(base, 1000, seed=72, dup_frac=0.05)
    root = str(tmp_path / "lake")
    cfg = EngineConfig(
        epoch_size=250,
        num_partitions=4,
        n_block_partitions=16,
        rule_spec=rule,
        maintain_clusters=True,
        retain_epochs=3,
        max_epochs=1,
    )
    seen_links, seen_clusters, seen_state = {}, {}, {}
    while True:
        ms = run(root, log, cfg)
        if not ms:
            break
        e = ms[0]["epoch"]
        seen_links[e] = _links_rows(links_table(root))
        seen_clusters[e] = _cluster_rows(clusters_table(root))
        seen_state[e] = state_sha256(root)
    current = ckpt.read_manifest(root).epoch
    assert current == 4
    assert read_linkstate(root)["epoch"] == current
    assert read_clusterstate(root)["epoch"] == current
    for e in range(current - 3, current + 1):
        assert _links_rows(links_table(root, at_epoch=e)) == seen_links[e], e
        assert _cluster_rows(clusters_table(root, at_epoch=e)) == seen_clusters[e], e
        assert state_sha256(root, at_epoch=e) == seen_state[e], e


def test_link_store_default_retention(ray_session, tmp_path):
    """retain_epochs=1 (default config): the previous link epoch stays
    readable, two back fails loudly — storage behavior identical to the
    pre-time-travel engine."""
    import copy

    from silk_ray.cdc.engine import EngineConfig, run
    from silk_ray.cdc.incremental import links_table
    from silk_ray.pipelines.rules import BENCH_RULE

    rule = copy.deepcopy(BENCH_RULE)
    rule.pop("filter_limit", None)
    base = make_base_table(80, seed=81, near_dup_frac=0.2)
    log = make_changelog(base, 750, seed=82)
    root = str(tmp_path / "lake")
    cfg = EngineConfig(
        epoch_size=250, num_partitions=4, n_block_partitions=16,
        rule_spec=rule, max_epochs=1,
    )
    prev_links = None
    while True:
        before = prev_links
        ms = run(root, log, cfg)
        if not ms:
            break
        prev_links = _links_rows(links_table(root))
        last_before = before
    current = ckpt.read_manifest(root).epoch
    assert _links_rows(links_table(root, at_epoch=current - 1)) == last_before
    with pytest.raises(FileNotFoundError, match="retention window"):
        links_table(root, at_epoch=current - 2)


@pytest.mark.parametrize("store", ["links", "clusters", "lake", "agg_view", "windows", "egress"])
def test_state_commit_syncs_pointer_and_snapshot(tmp_path, monkeypatch, store):
    """A state commit fsyncs the pointer and its per-epoch snapshot
    (the lake also its offset-log entry) before publishing them:
    time-travel reads and GC trust the snapshot as much as the pointer."""
    import os

    from silk_ray.cdc.clusters import commit_clusterstate
    from silk_ray.cdc.egress import commit_egressstate
    from silk_ray.cdc.incremental import commit_linkstate
    from silk_ray.cdc.matview import commit_aggstate
    from silk_ray.cdc.windows import commit_winstate

    def commit_lake(root, state):
        ckpt.commit_manifest(root, ckpt.Manifest(state["epoch"], 10, {}), window=(0, 10))

    commit, published = {
        "links": (commit_linkstate, ["_linkstate.json", "_linkstates/state-000003.json"]),
        "clusters": (commit_clusterstate, ["_clusterstate.json", "_clusterstates/state-000003.json"]),
        "lake": (commit_lake, ["_manifest.json", "_manifests/manifest-000003.json",
                               "_checkpoints/offsets-000003.json"]),
        "agg_view": (commit_aggstate, ["_aggstate.json", "_aggstates/state-000003.json"]),
        "windows": (commit_winstate, ["_winstate.json"]),
        "egress": (commit_egressstate, ["_egressstate.json"]),
    }[store]
    synced = []
    real_fsync = os.fsync

    def spy(fd):
        synced.append(os.fstat(fd).st_ino)
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", spy)
    root = str(tmp_path)
    commit(root, {"epoch": 3, "dir": None})
    assert sorted(synced) == sorted(os.stat(os.path.join(root, p)).st_ino for p in published)
