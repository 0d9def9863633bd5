"""Incremental re-linking: the maintained link set after each epoch must
equal a from-scratch batch linking of the lake snapshot (north_star
"incremental re-linking as delta join-and-score")."""

import copy

import pyarrow as pa
import pytest

from silk_ray.cdc.engine import EngineConfig, run
from silk_ray.cdc.generator import make_base_table, make_changelog
from silk_ray.cdc.incremental import filtered_links, links_table
from silk_ray.cdc.merge import snapshot_dataset, state_table
from silk_ray.pipelines.rules import BENCH_RULE

UNFILTERED_RULE = copy.deepcopy(BENCH_RULE)
UNFILTERED_RULE.pop("filter_limit", None)


def _batch_links(root):
    """From-scratch batch self-linking of the current lake snapshot."""
    from silk_ray.linking.pipeline import add_uri_column, generate_links

    snap = snapshot_dataset(root)
    ds = add_uri_column(snap)
    return (
        generate_links(ds, None, UNFILTERED_RULE, source_equals_target=True, link_limit=None)
        .to_pandas()
    )


def _as_set(df_or_table):
    if isinstance(df_or_table, pa.Table):
        rows = df_or_table.to_pylist()
        return {(r["source"], r["target"], round(r["confidence"], 9)) for r in rows}
    return {
        (r.source, r.target, round(r.confidence, 9)) for r in df_or_table.itertuples()
    }


@pytest.fixture(scope="module")
def engine_run(tmp_path_factory, ray_session):
    base = make_base_table(120, seed=51, near_dup_frac=0.2)
    log = make_changelog(base, 500, seed=52, dup_frac=0.03)
    root = str(tmp_path_factory.mktemp("lake"))
    cfg = EngineConfig(
        epoch_size=250, num_partitions=4, n_block_partitions=16, rule_spec=UNFILTERED_RULE
    )
    metrics = run(root, log, cfg)
    return root, log, metrics


def test_incremental_equals_batch(engine_run):
    root, _log, metrics = engine_run
    assert len(metrics) == 2
    incremental = _as_set(links_table(root))
    batch = _as_set(_batch_links(root))
    assert incremental == batch


def test_link_metrics_emitted(engine_run):
    _root, _log, metrics = engine_run
    for m in metrics:
        assert "links" in m
        assert m["links"]["links_recomputed"] >= 0
        assert m["links"]["dirty_uris"] > 0
        assert "skew_ratio" in m


def test_link_phases_in_metrics_record(ray_session, tmp_path):
    """update_links writes its phase wall times as a ``phases`` map into
    the epoch's ``_metrics/links-E.json`` record and its return value,
    and the phases account for the wall time of the call; its ``task_s``
    map carries the task-wave seconds, task counts and pair counts."""
    import json
    import os
    import time

    import pyarrow.compute as pc

    from silk_ray.cdc.incremental import update_links
    from silk_ray.cdc.merge import run_epoch

    base = make_base_table(60, seed=81, near_dup_frac=0.2)
    log = make_changelog(base, 300, seed=82)
    root = str(tmp_path / "lake")
    cfg = EngineConfig(
        epoch_size=150, num_partitions=4, n_block_partitions=16, rule_spec=UNFILTERED_RULE
    )
    run(root, log.filter(pc.less(log["offset"], 150)), cfg)
    epoch = run_epoch(
        root, log, epoch_size=150, num_partitions=4,
        link_spec=UNFILTERED_RULE, n_block_partitions=16,
    )["epoch"]
    t0 = time.perf_counter()
    metrics = update_links(root, UNFILTERED_RULE, epoch, n_block_partitions=16)
    wall = time.perf_counter() - t0
    with open(os.path.join(root, "_metrics", f"links-{epoch:06d}.json")) as f:
        record = json.load(f)
    phases = record["phases"]
    assert phases == metrics["phases"]
    assert {"read_summaries", "plan_build", "score_and_write", "commit_gc"} <= set(phases)
    assert all(v >= 0 for v in phases.values())
    assert abs(sum(phases.values()) - wall) <= 0.1 * wall
    # worker-side seconds of the score_and_write waves and their task counts
    task_s = record["task_s"]
    assert task_s == metrics["task_s"]
    assert set(task_s) == {
        "load_s", "enumerate_s", "score_s", "drop_s", "write_s",
        "lrs_tasks", "drop_tasks", "write_tasks", "pairs", "pairs_kept",
    }
    assert all(v >= 0 for v in task_s.values())
    assert task_s["lrs_tasks"] >= 1 and task_s["write_tasks"] >= 1
    # candidate pairs scored and kept: counts, readable from the lake root
    assert all(type(task_s[k]) is int for k in ("pairs", "pairs_kept"))
    assert 0 <= task_s["pairs_kept"] <= task_s["pairs"]


def test_second_epoch_is_delta_sized(engine_run):
    """Epoch 2 must re-score only dirty-adjacent entities, not the lake."""
    _root, _log, metrics = engine_run
    e2 = metrics[1]
    assert 0 < e2["links"]["dirty_uris"] < e2["rows_total"]
    assert e2["links"]["links_recomputed"] >= 0


def test_filtered_view_topk(engine_run):
    root, _log, _metrics = engine_run
    top1 = filtered_links(root, 1)
    sources = top1["source"].to_pylist()
    assert len(sources) == len(set(sources))  # at most one link per source


def test_state_and_links_survive_link_crash(engine_run, tmp_path):
    """Merge committed but link update lost → catch_up recovers."""
    import pyarrow.compute as pc

    from silk_ray.cdc.engine import catch_up
    from silk_ray.cdc.merge import run_epoch

    base = make_base_table(60, seed=61, near_dup_frac=0.2)
    log = make_changelog(base, 300, seed=62)
    root = str(tmp_path / "lake")
    cfg = EngineConfig(
        epoch_size=150, num_partitions=4, n_block_partitions=16, rule_spec=UNFILTERED_RULE
    )
    # epoch 1 complete (merge + links)
    run(root, log.filter(pc.less(log["offset"], 150)), cfg)
    # epoch 2: merge commits, "crash" before link update
    run_epoch(root, log, epoch_size=150, num_partitions=4)
    # resume
    catch_up(root, log, cfg)
    incremental = _as_set(links_table(root))
    batch = _as_set(_batch_links(root))
    assert incremental == batch


def test_links_replay_after_lost_linkstate_commit(engine_run, tmp_path):
    """The exactly-once crash window: links/epoch-N fully written but the
    linkstate pointer swap (the sole commit point) lost. Replaying the
    epoch must not duplicate links — the epoch dir is cleared and
    rewritten before the pointer moves."""
    import os

    import pyarrow.compute as pc

    from silk_ray.cdc.engine import catch_up

    base = make_base_table(60, seed=71, near_dup_frac=0.2)
    log = make_changelog(base, 300, seed=72)
    root = str(tmp_path / "lake")
    cfg = EngineConfig(
        epoch_size=150, num_partitions=4, n_block_partitions=16, rule_spec=UNFILTERED_RULE
    )
    run(root, log.filter(pc.less(log["offset"], 150)), cfg)
    linkstate = os.path.join(root, "_linkstate.json")
    saved = open(linkstate).read()
    run(root, log, cfg)
    with_commit = _as_set(links_table(root))
    # crash simulation: epoch-2 links dir fully on disk, commit lost
    open(linkstate, "w").write(saved)
    catch_up(root, log, cfg)
    replayed = _as_set(links_table(root))
    assert replayed == with_commit
    assert replayed == _as_set(_batch_links(root))


def test_incremental_equals_batch_single_levenshtein(tmp_path_factory, ray_session):
    """Same incremental-vs-batch invariant under a single-levenshtein
    rule — this shape takes the vectorized native-kernel scoring fast
    path (PairScorer._score_levenshtein_vectorized) on BOTH the
    incremental route (with the dirty pre-filter inside the join) and
    the batch route."""
    rule = {
        "operator": {
            "metric": "levenshteinDistance",
            "threshold": 2,
            "source": {"transform": "untilCharacter", "params": {"untilCharacter": "."},
                       "inputs": [{"path": "path"}]},
            "target": {"transform": "untilCharacter", "params": {"untilCharacter": "."},
                       "inputs": [{"path": "path"}]},
        },
    }
    from silk_ray.linking.pipeline import add_uri_column, generate_links

    base = make_base_table(100, seed=71, near_dup_frac=0.25)
    log = make_changelog(base, 400, seed=72, dup_frac=0.03)
    root = str(tmp_path_factory.mktemp("lake_lev"))
    cfg = EngineConfig(epoch_size=200, num_partitions=4, n_block_partitions=16, rule_spec=rule)
    run(root, log, cfg)
    incremental = _as_set(links_table(root))
    snap = snapshot_dataset(root)
    batch = _as_set(
        generate_links(add_uri_column(snap), None, rule, source_equals_target=True,
                       link_limit=None).to_pandas()
    )
    assert incremental == batch
    assert len(incremental) > 0


def _blockmap_files(root):
    import os

    base = os.path.join(root, "blockmap")
    return sorted(
        os.path.join(base, d, f)
        for d in os.listdir(base)
        for f in os.listdir(os.path.join(base, d))
        if f.endswith(".parquet")
    )


def test_blockmap_has_one_row_per_entity(engine_run):
    """A blockmap file holds one row per (side, uri) — no per-key rows and
    no ``key`` column — sorted by (side, uri); an 'add' row carries the
    entity's full sorted key set, of which at least one key falls in
    the file's block partition."""
    import os

    import pyarrow.parquet as pq

    root = engine_run[0]
    files = _blockmap_files(root)
    assert files
    for f in files:
        t = pq.read_table(f)
        assert "key" not in t.column_names
        assert t.column_names[:4] == ["action", "side", "uri", "keys"]
        ids = list(zip(t["side"].to_pylist(), t["uri"].to_pylist()))
        assert ids == sorted(ids) and len(ids) == len(set(ids))
        bp = int(os.path.basename(os.path.dirname(f)).split("=")[1])
        for action, keys in zip(t["action"].to_pylist(), t["keys"].to_pylist()):
            if action == "add":
                assert keys == sorted(keys) and any(k % 16 == bp for k in keys)
            else:
                assert keys is None


def test_per_key_blockmap_layout_is_refused(tmp_path):
    """A blockmap file in the old per-key layout (a ``key`` column) raises
    one clear error naming the file and asking for a link-store rebuild."""
    import os

    import pyarrow.parquet as pq

    from silk_ray.cdc.incremental import read_bp_reconciled

    rel = os.path.join("blockmap", "bp=00003", "delta-000002-0a1b2c3d.parquet")
    os.makedirs(os.path.dirname(tmp_path / rel))
    pq.write_table(
        pa.table({
            "action": ["add"], "key": pa.array([7], pa.int64()), "side": pa.array([1], pa.int8()),
            "uri": ["r//a"], "keys": pa.array([[7]], pa.list_(pa.int64())),
            "vals_0": pa.array([["a"]], pa.list_(pa.string())),
        }),
        tmp_path / rel,
    )
    for files in ([rel], [rel, rel]):
        with pytest.raises(ValueError, match=r"delta-000002-0a1b2c3d\.parquet.*must be rebuilt"):
            read_bp_reconciled(str(tmp_path), files, 1)


def test_loader_prepares_each_entity_once(engine_run, monkeypatch):
    """With every leaf on the default per-pair path (batch kernels
    switched off), one loader task converts and prepares each (uri,
    side) entity at most once per leaf, although the entity sits in
    several blocks and block partitions and one partition is
    key-sub-split into two items of the task — and its links equal the
    scorer run over the same blocks as exploded rows, one row per
    (block, entity), and the batch kernels' links bit for bit."""
    import pyarrow.compute as pc

    from silk_ray.cdc import incremental
    from silk_ray.kernel import distances
    from silk_ray.linking.pipeline import PairScorer

    root = engine_run[0]
    state = incremental.read_linkstate(root)
    bps = sorted(int(b) for b in state["blockmap"])
    chains = {int(b): v for b, v in state["blockmap"].items()}
    ents = {b: incremental.read_bp_reconciled(root, chains[b], 3) for b in bps}
    all_keys = pa.array(sorted({k for t in ents.values() for ks in t["keys"].to_pylist() for k in ks}),
                        pa.int64())
    uris = pa.concat_tables(ents.values())["uri"]
    dirty = pc.unique(uris).filter(pa.array([i % 3 == 0 for i in range(len(pc.unique(uris)))]))
    items = [(bps[0], 2, 0), (bps[0], 2, 1)] + [(b, 1, 0) for b in bps[1:]]
    bucket = {
        "bps": [b for b, _, _ in items],
        "files": [chains[b] for b, _, _ in items],
        "msplits": [m for _, m, _ in items],
        "rsplits": [r for _, _, r in items],
    }

    def rows(t):
        return sorted(zip(*(t[c].to_pylist() for c in ("source", "target", "confidence"))))

    kernels, _ = incremental._lrs_bundle(
        root, bucket, all_keys, dirty, UNFILTERED_RULE, 0.0, 3, 16, 9
    )
    # BENCH_RULE's leaves: equality, levenshteinDistance, jaccardMinhashLSH
    leaf_cls = [distances.EqualityMetric, distances.DistanceMeasure, distances.JaccardDistance]
    calls: dict[int, list] = {k: [] for k in range(3)}
    for k, cls in enumerate(leaf_cls):
        def counting(self, vals, k=k, real=cls.prepare):
            calls[k].append(repr(vals))
            return real(self, vals)

        monkeypatch.setattr(cls, "prepare", counting)
    for cls in (distances.EqualityMetric, distances.JaccardDistance,
                distances.LevenshteinDistance):
        monkeypatch.setattr(cls, "apply_pairs", distances.DistanceMeasure.apply_pairs)
    out, timings = incremental._lrs_bundle(
        root, bucket, all_keys, dirty, UNFILTERED_RULE, 0.0, 3, 16, 9
    )
    # entities by their leaf values (a symmetric rule's two sides share
    # them): no value list may be prepared more often than entities hold it
    n_entities = len({(s, u) for t in ents.values()
                      for s, u in zip(t["side"].to_pylist(), t["uri"].to_pylist())})
    n_blocks = sum(len(incremental._bp_blocks(t, b, 16)[0]) for b, t in ents.items())
    for k in range(3):
        holders: dict[str, set] = {}
        for t in ents.values():
            for s, u, v in zip(t["side"].to_pylist(), t["uri"].to_pylist(),
                               t[f"vals_{k}"].to_pylist()):
                holders.setdefault(repr(v), set()).add((s, u))
        assert 0 < len(calls[k]) <= n_entities < n_blocks
        assert all(calls[k].count(v) <= len(holders[v]) for v in set(calls[k]))
    assert set(timings) == {"load_s", "enumerate_s", "score_s", "pairs", "pairs_kept"}
    assert timings["pairs_kept"] == out.num_rows <= timings["pairs"]
    assert out.num_rows and set(out["epoch_added"].to_pylist()) == {9}
    assert [(s, t, c.hex()) for s, t, c in rows(out)] == \
        [(s, t, c.hex()) for s, t, c in rows(kernels)]

    # the same blocks as exploded rows, each row its own entity
    parts = []
    for b, t in ents.items():
        key, ent = incremental._bp_blocks(t, b, 16)
        parts.append(t.take(pa.array(ent)).add_column(0, "key", pa.array(key)))
    exploded = pa.concat_tables(parts)
    exploded = exploded.append_column("dirty", pc.is_in(exploded["uri"], value_set=dirty))
    calls[0].clear()
    want = PairScorer(UNFILTERED_RULE, source_equals_target=True, dirty_col="dirty")(exploded)
    assert len(calls[0]) > n_entities
    assert rows(out) == rows(want)


def test_incremental_equals_batch_every_epoch(ray_session, tmp_path, monkeypatch):
    """Incremental links equal batch ``generate_links`` after EVERY epoch
    of a changelog that moves entities out of block partitions
    (tombstones), deletes entities and re-inserts them an epoch later,
    crosses ``COMPACT_AT`` (set low, so chains compact twice and later
    deltas stack on a compacted file) and runs with ``SPLIT_ROWS`` small
    enough that loader items are key-sub-split (``msplit > 1``)."""
    import glob
    import os

    import pyarrow.parquet as pq

    from silk_ray.cdc import incremental

    monkeypatch.setattr(incremental, "SPLIT_ROWS", 12)
    monkeypatch.setattr(incremental, "COMPACT_AT", 3)
    base = make_base_table(32, seed=93, near_dup_frac=0.5).to_pylist()
    assert len(base) == 48  # 32 rows and 16 planted twins
    events = []

    def emit(op, row, content=None):
        ev = {"offset": len(events), "op": op, "repo": row["repo"], "path": row["path"],
              "commit": None, "lang": None, "content": None, "branch": None}
        if op != "D":
            ev.update(commit=f"c{len(events)}", lang=row["lang"],
                      content=row["content"] if content is None else content)
        events.append(ev)

    for r in base:  # epochs 1-2: inserts
        emit("I", r)
    for i in range(12):  # epoch 3: every band key moves; twelve deletes
        emit("U", base[i], content=base[24 + i]["content"])
    for r in base[36:]:
        emit("D", r)
    for r in base[36:]:  # epoch 4: re-inserts; the moved entities move back
        emit("I", r)
    for r in base[:12]:
        emit("U", r)
    for e in range(3):  # epochs 5-7: token edits
        for i in range(24):
            r = base[(7 * i + 5 * e) % 48]
            toks = r["content"].split(" ")
            toks[(i * 13 + e) % len(toks)] = f"edit{e}x{i}"
            emit("U", r, content=" ".join(toks))
    log = pa.Table.from_pylist(events, schema=pa.schema([
        ("offset", pa.int64()), ("op", pa.string()), ("repo", pa.string()), ("path", pa.string()),
        ("commit", pa.string()), ("lang", pa.string()), ("content", pa.string()),
        ("branch", pa.string()),
    ]))
    root = str(tmp_path / "lake")
    cfg = EngineConfig(epoch_size=24, num_partitions=2, n_block_partitions=16,
                       rule_spec=UNFILTERED_RULE, max_epochs=1)
    seen = {"tombstone": False, "compacted": False, "stacked": False, "msplit": False}
    for epoch in range(1, 8):
        assert run(root, log, cfg)
        links = links_table(root)
        assert links.num_rows == len(_as_set(links))  # each pair once
        assert _as_set(links) == _as_set(_batch_links(root)), epoch
        state = incremental.read_linkstate(root)
        assert state["epoch"] == epoch
        for chain in state["blockmap"].values():
            if os.path.basename(chain[0]).startswith("compact-"):
                seen["compacted"] = True
                seen["stacked"] |= len(chain) > 1
        # this epoch's rows: an entity with a 'del' row in one partition
        # and an 'add' row in another moved out of the first
        actions: dict[str, set] = {}
        for chain in state["blockmap"].values():
            for f in chain:
                if f"delta-{epoch:06d}" in f:
                    t = pq.read_table(os.path.join(root, f))
                    for u, a in zip(t["uri"].to_pylist(), t["action"].to_pylist()):
                        actions.setdefault(u, set()).add(a)
        seen["tombstone"] |= any(a == {"add", "del"} for a in actions.values())
        summ = glob.glob(os.path.join(root, "summaries", "*", f"epoch-{epoch:06d}.parquet"))
        counts = pa.concat_tables(map(pq.read_table, summ)).group_by("bp").aggregate(
            [("bp", "count")]
        )
        seen["msplit"] |= max(counts["bp_count"].to_pylist()) > incremental.SPLIT_ROWS
    assert all(seen.values()), seen


# -- late, paused and crashed link stores ------------------------------------
#
# The merge writes an epoch's dirty delta only for a reader store that
# committed the previous epoch, and GC keeps only what a present reader
# can still read. A link store more than one epoch behind therefore
# re-indexes the snapshot at the merge epoch ("full" mode), and the
# cluster store full-rebuilds after it.

LATE_EPOCHS = 4


def _late_cfg(**kw):
    return EngineConfig(epoch_size=100, num_partitions=4, n_block_partitions=16, max_epochs=1, **kw)


def _clusters(root):
    from silk_ray.cdc.clusters import clusters_table

    return clusters_table(root).to_pylist()


@pytest.fixture(scope="module")
def late_log():
    base = make_base_table(60, seed=111, near_dup_frac=0.3)
    return make_changelog(base, 100 * LATE_EPOCHS, seed=112, dup_frac=0.03)


@pytest.fixture(scope="module")
def straight_clusters(tmp_path_factory, ray_session, late_log):
    """Cluster table after each epoch of a run with links and clusters
    on from the start."""
    root = str(tmp_path_factory.mktemp("straight"))
    cfg = _late_cfg(rule_spec=UNFILTERED_RULE, maintain_clusters=True)
    out = {}
    for epoch in range(1, LATE_EPOCHS + 1):
        assert run(root, late_log, cfg)
        out[epoch] = _clusters(root)
    return out


@pytest.mark.parametrize("before", ["merge_only", "agg_view_only", "paused"])
def test_late_or_paused_link_store_rebuilds_from_snapshot(
    tmp_path, late_log, straight_clusters, before
):
    """Links enabled after two merge-only or two agg-view-only epochs,
    or paused for two epochs, catch up in one full re-index of the
    snapshot: links equal batch linking and clusters equal a straight
    run's, both at the catch-up and after a later delta epoch."""
    import json
    import os

    from silk_ray.cdc.engine import catch_up
    from silk_ray.cdc.matview import AggViewSpec

    root = str(tmp_path / "lake")
    links_cfg = _late_cfg(rule_spec=UNFILTERED_RULE, maintain_clusters=True)
    if before == "paused":
        assert run(root, late_log, links_cfg)
    other = _late_cfg(agg_spec=AggViewSpec(group_by=("lang",), count_col="n", num_shards=2)
                      if before == "agg_view_only" else None)
    for _ in range(2):
        assert run(root, late_log, other)
    merge_epoch = 3 if before == "paused" else 2

    catch_up(root, late_log, links_cfg)
    with open(os.path.join(root, "_metrics", f"links-{merge_epoch:06d}.json")) as f:
        m = json.load(f)
    assert (m["epoch"], m["mode"]) == (merge_epoch, "full")
    assert links_table(root).num_rows > 0
    assert _as_set(links_table(root)) == _as_set(_batch_links(root))
    assert _clusters(root) == straight_clusters[merge_epoch]

    (m,) = run(root, late_log, links_cfg)
    assert m["links"]["mode"] == "delta" and m["clusters"]["mode"] in ("delta", "noop")
    assert _as_set(links_table(root)) == _as_set(_batch_links(root))
    assert _clusters(root) == straight_clusters[merge_epoch + 1]


def test_fused_crash_window_without_dirty_files(tmp_path, late_log):
    """Merge E with the fused index commits (no store reads the dirty
    delta, so none is written) and the link update is lost: the epoch's
    summaries alone bring the link store up to batch linking."""
    import glob
    import json
    import os

    from silk_ray.cdc.engine import catch_up
    from silk_ray.cdc.merge import run_epoch

    root = str(tmp_path / "lake")
    cfg = _late_cfg(rule_spec=UNFILTERED_RULE)
    assert run(root, late_log, cfg)
    epoch = run_epoch(root, late_log, epoch_size=100, num_partitions=4,
                      link_spec=UNFILTERED_RULE, n_block_partitions=16)["epoch"]
    assert not glob.glob(os.path.join(root, "dirty", "*", f"epoch-{epoch:06d}.parquet"))
    assert glob.glob(os.path.join(root, "summaries", "*", f"epoch-{epoch:06d}.parquet"))
    catch_up(root, late_log, cfg)
    with open(os.path.join(root, "_metrics", f"links-{epoch:06d}.json")) as f:
        m = json.load(f)
    assert (m["epoch"], m["mode"]) == (epoch, "delta")
    assert _as_set(links_table(root)) == _as_set(_batch_links(root))
