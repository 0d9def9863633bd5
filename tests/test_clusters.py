"""Incrementally maintained cluster state (cdc/clusters.py): after every
epoch the maintained table must equal a from-scratch connected-components
pass over the current link store — through link additions AND removals
(component merges and splits)."""

import copy

import pyarrow as pa
import pytest

from silk_ray.cdc.clusters import (
    clusters_table,
    commit_clusterstate,
    gc_clusters,
    read_clusterstate,
    update_clusters,
)
from silk_ray.cdc.engine import EngineConfig, run
from silk_ray.cdc.generator import CHANGELOG_SCHEMA, make_base_table, make_changelog
from silk_ray.cdc.incremental import links_table
from silk_ray.pipelines.rules import BENCH_RULE

UNFILTERED_RULE = copy.deepcopy(BENCH_RULE)
UNFILTERED_RULE.pop("filter_limit", None)


def _batch_cc(links) -> dict:
    """Union-find oracle over the link table: uri -> min uri of its
    component."""
    parent = {}

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for s, t in zip(links["source"].to_pylist(), links["target"].to_pylist()):
        for n in (s, t):
            parent.setdefault(n, n)
        rs, rt = find(s), find(t)
        if rs != rt:
            if rt < rs:
                rs, rt = rt, rs
            parent[rt] = rs
    return {n: find(n) for n in parent}


def _maintained(root) -> dict:
    t = clusters_table(root)
    return dict(zip(t["uri"].to_pylist(), t["cluster_id"].to_pylist()))


@pytest.fixture(scope="module")
def cluster_run(tmp_path_factory, ray_session):
    """Engine driven ONE epoch at a time so the invariant is checked at
    every commit point, not just the end state."""
    base = make_base_table(120, seed=61, near_dup_frac=0.25)
    log = make_changelog(base, 750, seed=62, dup_frac=0.05)
    root = str(tmp_path_factory.mktemp("lake"))
    cfg = EngineConfig(
        epoch_size=250,
        num_partitions=4,
        n_block_partitions=16,
        rule_spec=UNFILTERED_RULE,
        maintain_clusters=True,
        max_epochs=1,
    )
    snapshots = []
    while True:
        ms = run(root, log, cfg)
        if not ms:
            break
        m = ms[0]
        snapshots.append(
            {
                "metrics": m,
                "maintained": _maintained(root),
                "batch": _batch_cc(links_table(root)),
            }
        )
    return root, snapshots


def test_maintained_equals_batch_every_epoch(cluster_run):
    _root, snapshots = cluster_run
    assert len(snapshots) == 3
    for s in snapshots:
        assert s["maintained"] == s["batch"], s["metrics"]["clusters"]


def test_delta_mode_after_first_epoch(cluster_run):
    _root, snapshots = cluster_run
    modes = [s["metrics"]["clusters"]["mode"] for s in snapshots]
    assert modes[0] == "full"
    assert all(m in ("delta", "noop") for m in modes[1:])


def test_links_actually_churned(cluster_run):
    """The scenario must exercise removals (splits/merges), not just
    first-epoch growth — otherwise the invariant is vacuous."""
    _root, snapshots = cluster_run
    assert any(s["metrics"]["links"]["links_removed"] > 0 for s in snapshots[1:])
    assert any(s["metrics"]["clusters"]["affected_clusters"] > 0 for s in snapshots[1:])


def test_replay_is_noop(cluster_run):
    root, snapshots = cluster_run
    last = snapshots[-1]["metrics"]["clusters"]["epoch"]
    before = _maintained(root)
    out = update_clusters(root, last)
    assert out["mode"] == "replay_noop"
    assert _maintained(root) == before


def test_crash_window_recovery_delta(cluster_run):
    """Crash between link commit and cluster commit: rewind the cluster
    pointer one epoch (the retained rollback window) and re-apply — the
    delta path must reconverge to the batch answer."""
    root, snapshots = cluster_run
    state = read_clusterstate(root)
    last = state["epoch"]
    assert state["dir_prev"]
    commit_clusterstate(
        root, {"epoch": last - 1, "dir": state["dir_prev"], "dir_prev": None}
    )
    out = update_clusters(root, last)
    assert out["mode"] in ("delta", "noop")
    assert _maintained(root) == snapshots[-1]["batch"]
    commit_clusterstate(root, state)  # restore for later tests


def test_lag_beyond_window_full_rebuild(cluster_run):
    root, snapshots = cluster_run
    state = read_clusterstate(root)
    last = state["epoch"]
    commit_clusterstate(root, {"epoch": last - 2, "dir": None, "dir_prev": None})
    out = update_clusters(root, last)
    assert out["mode"] == "full"
    assert _maintained(root) == snapshots[-1]["batch"]
    commit_clusterstate(root, state)


def test_unfused_link_update_rebuilds_clusters(tmp_path, ray_session):
    """A merge without the fused index writes no summaries, so the
    catch-up's link update runs un-fused and the cluster splice has no
    dirty uris: the cluster store full-rebuilds and equals batch."""
    import json
    import os

    import pyarrow.compute as pc

    from silk_ray.cdc.engine import catch_up
    from silk_ray.cdc.merge import run_epoch

    log = make_changelog(make_base_table(120, seed=61, near_dup_frac=0.25), 750, seed=62,
                         dup_frac=0.05)
    root = str(tmp_path / "lake")
    cfg = EngineConfig(epoch_size=250, num_partitions=4, n_block_partitions=16,
                       rule_spec=UNFILTERED_RULE, maintain_clusters=True)
    run(root, log.filter(pc.less(log["offset"], 250)), cfg)
    run_epoch(root, log, epoch_size=250, num_partitions=4)
    catch_up(root, log, cfg)
    with open(os.path.join(root, "_metrics", "links-000002.json")) as f:
        m = json.load(f)
    assert m["mode"] == "delta" and m["links_removed"] > 0
    assert read_clusterstate(root)["epoch"] == 2
    assert _maintained(root) == _batch_cc(links_table(root))


def test_gc_keeps_rollback_window(cluster_run):
    import os

    root, _snapshots = cluster_run
    gc_clusters(root)
    state = read_clusterstate(root)
    live = {state.get("dir"), state.get("dir_prev")} - {None}
    on_disk = {
        os.path.join("clusters", d) for d in os.listdir(os.path.join(root, "clusters"))
    }
    assert on_disk == live


# Hand-written scenario: every document is a 10-token window on a token
# line, so under JACCARD_RULE (token Jaccard ≥ 0.6) two documents link
# exactly when their window starts differ by at most 2. Planted twin
# chains then give controlled components, and each epoch plants one
# event: a split, a merge, a component whose links all vanish, and
# the removal of the last link.
JACCARD_RULE = {
    "operator": {
        "metric": "jaccard",
        "threshold": 0.4,
        "source": {"transform": "tokenize", "inputs": [{"path": "content"}]},
        "target": {"transform": "tokenize", "inputs": [{"path": "content"}]},
    },
}

EDGE_EPOCHS = [
    # 1: chain a0–a–c–c0, twins d–e and h–i (e–h is Δ3), twins f–g
    [("I", "a0", 0), ("I", "a", 2), ("I", "c", 4), ("I", "c0", 6),
     ("I", "d", 100), ("I", "e", 102), ("I", "h", 105), ("I", "i", 106),
     ("I", "f", 200), ("I", "g", 201)],
    # 2: split — c moves off a (Δ3) but stays on c0 (Δ1): bridge a–c gone
    [("U", "c", 5)],
    # 3: merge — h moves onto e (Δ2) and keeps i (Δ2)
    [("U", "h", 104)],
    # 4: vanish — g's deletion leaves f with no link
    [("D", "g", None)],
    # 5: no link left — one end of every remaining link is deleted
    [("D", "a", None), ("D", "c", None), ("D", "e", None), ("D", "h", None)],
]


def _uri(name: str) -> str:
    return f"repo-{name}//src/{name}.py"


def _edge_changelog(n_epochs: int):
    rows = []
    for events in EDGE_EPOCHS[:n_epochs]:
        for op, name, start in events:
            content = None if start is None else " ".join(f"w{start + k:03d}" for k in range(10))
            rows.append(
                {"offset": len(rows), "op": op, "repo": f"repo-{name}", "path": f"src/{name}.py",
                 "commit": f"{name}-{len(rows)}", "lang": "py", "content": content, "branch": None}
            )
    return pa.Table.from_pylist(rows, schema=CHANGELOG_SCHEMA)


def test_edge_cases_split_merge_vanish_empty(tmp_path, ray_session):
    """One planted event per epoch, each checked against the batch
    union-find and against the component shape it must produce."""
    root = str(tmp_path / "lake")
    cfg = EngineConfig(
        epoch_size=1_000, num_partitions=2, n_block_partitions=4,
        rule_spec=JACCARD_RULE, maintain_clusters=True, max_epochs=1,
    )
    expected = [
        [{"a0", "a", "c", "c0"}, {"d", "e"}, {"h", "i"}, {"f", "g"}],
        [{"a0", "a"}, {"c", "c0"}, {"d", "e"}, {"h", "i"}, {"f", "g"}],
        [{"a0", "a"}, {"c", "c0"}, {"d", "e", "h", "i"}, {"f", "g"}],
        [{"a0", "a"}, {"c", "c0"}, {"d", "e", "h", "i"}],
        [],
    ]
    for n, want in enumerate(expected, start=1):
        (m,) = run(root, _edge_changelog(n), cfg)
        assert m["clusters"]["mode"] == ("full" if n == 1 else "delta"), m["clusters"]
        maintained = _maintained(root)
        assert maintained == _batch_cc(links_table(root)), n
        groups: dict = {}
        for uri, cid in maintained.items():
            groups.setdefault(cid, set()).add(uri)
        assert sorted(map(sorted, groups.values())) == sorted(
            sorted(_uri(x) for x in g) for g in want
        ), n
    t = clusters_table(root)
    assert t.num_rows == 0
    assert t.schema == pa.schema([("uri", pa.string()), ("cluster_id", pa.string())])
