"""Incremental re-linking: the maintained link set after each epoch must
equal a from-scratch batch linking of the lake snapshot (north_star
"incremental re-linking as delta join-and-score")."""

import copy

import pyarrow as pa
import pytest

from silk_ray.cdc.engine import EngineConfig, run
from silk_ray.cdc.generator import make_base_table, make_changelog
from silk_ray.cdc.incremental import filtered_links, links_table, read_linkstate
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
    map carries the task-wave seconds, task counts and pair counts. The
    merge ran with the rule, so its index rows are written as handed
    over (no ``delta_index`` phase), after the ``old_keys`` read of the
    entity chain."""
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
    assert {"old_keys", "write_index", "plan_build", "score_and_write", "commit"} <= set(phases)
    assert not {"delta_index", "read_summaries", "consolidate"} & set(phases)
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


def _blockmap_files(root, prefix="bp="):
    """Files of the link index's postings chains (``bp=*``) or, with
    ``prefix="ent="``, of its entity chain."""
    import os

    base = os.path.join(root, "blockmap")
    return sorted(
        os.path.join(base, d, f)
        for d in os.listdir(base) if d.startswith(prefix)
        for f in os.listdir(os.path.join(base, d))
        if f.endswith(".parquet")
    )


def test_blockmap_has_one_row_per_entity(engine_run):
    """A postings file holds one row per (side, uri) — no per-key rows,
    no ``key`` column and no values — sorted by (side, uri), and for
    this symmetric rule side 1 alone; an 'add' row holds exactly the
    entity's keys of the file's block partition. An entity-chain file
    holds one row per changed uri with its full sorted key set and leaf
    values, side 1 alone, sorted by uri; a 'del' row has neither. Each
    live entity's postings across all partitions add up to the key set
    its live entity-chain row holds."""
    import os

    import pyarrow.parquet as pq

    from silk_ray.cdc import incremental

    root = engine_run[0]
    files = _blockmap_files(root)
    assert files
    for f in files:
        t = pq.read_table(f)
        assert t.column_names == ["action", "side", "uri", "keys"]
        assert set(t["side"].to_pylist()) == {1}
        ids = list(zip(t["side"].to_pylist(), t["uri"].to_pylist()))
        assert ids == sorted(ids) and len(ids) == len(set(ids))
        bp = int(os.path.basename(os.path.dirname(f)).split("=")[1])
        for action, keys in zip(t["action"].to_pylist(), t["keys"].to_pylist()):
            if action == "add":
                assert keys and keys == sorted(keys) and all(k % 16 == bp for k in keys)
            else:
                assert keys is None
    ent_files = _blockmap_files(root, "ent=")
    assert ent_files and {os.path.dirname(f) for f in ent_files} == {
        os.path.join(root, "blockmap", "ent=00000")}
    for f in ent_files:
        t = pq.read_table(f)
        assert t.column_names == ["action", "side", "uri", "keys", "vals_0", "vals_1", "vals_2"]
        assert set(t["side"].to_pylist()) == {1}
        uris = t["uri"].to_pylist()
        assert uris == sorted(uris) and len(uris) == len(set(uris))
        for r in t.to_pylist():
            assert (r["vals_0"] is not None) == (r["keys"] is not None) == (r["action"] == "add")
            assert r["keys"] is None or (r["keys"] and r["keys"] == sorted(r["keys"]))
    state = incremental.read_linkstate(root)
    held: dict = {}
    for files in state["blockmap"].values():
        t = incremental.read_bp_reconciled(root, files)
        for u, keys in zip(t["uri"].to_pylist(), t["keys"].to_pylist()):
            held.setdefault(u, []).extend(keys)
    ents = incremental.read_entity_values(root, state["entities"], 3, pa.array(sorted(held)))
    assert sorted(ents["uri"].to_pylist()) == sorted(held)
    for u, keys in zip(ents["uri"].to_pylist(), ents["keys"].to_pylist()):
        assert sorted(held[u]) == keys


def _embedded_schema(path):
    """The Arrow schema a parquet file's writer declared (pyarrow reads
    every list child back as ``element``, so ``schema_arrow`` alone
    cannot tell two writers' list field names apart)."""
    import base64

    import pyarrow.parquet as pq

    raw = pq.read_metadata(path).metadata[b"ARROW:schema"]
    return pa.ipc.read_schema(pa.py_buffer(base64.b64decode(raw)))


def test_blockmap_chain_files_share_one_schema(ray_session, tmp_path, monkeypatch):
    """Delta and compact files — every kind a chain holds — are written
    in one Arrow schema, list field names included: one for the
    postings chains, one for the entity chain."""
    import os

    import pyarrow.parquet as pq

    from silk_ray.cdc import chain

    monkeypatch.setattr(chain, "COMPACT_AT", 2)
    log = make_changelog(make_base_table(60, seed=121, near_dup_frac=0.3), 400, seed=122)
    root = str(tmp_path / "lake")
    run(root, log, EngineConfig(epoch_size=100, num_partitions=4, n_block_partitions=4,
                                rule_spec=UNFILTERED_RULE, gc=False))
    for prefix, column in (("bp=", "keys: list<item: int64>"),
                           ("ent=", "vals_0: list<item: string>")):
        files = _blockmap_files(root, prefix)
        kinds = {os.path.basename(f).split("-")[0] for f in files}
        assert kinds == {"delta", "compact"}, prefix
        # str(): list types compare equal whatever their child field names
        (declared,) = {str(_embedded_schema(f)) for f in files}
        assert column in declared
        assert len({str(pq.ParquetFile(f).schema_arrow) for f in files}) == 1


def _refuses_older_layout(tmp_path, cols):
    import os

    import pyarrow.parquet as pq

    from silk_ray.cdc.incremental import read_bp_reconciled

    rel = os.path.join("blockmap", "bp=00003", "delta-000002-0a1b2c3d.parquet")
    os.makedirs(os.path.dirname(tmp_path / rel))
    pq.write_table(pa.table(cols), tmp_path / rel)
    for files in ([rel], [rel, rel]):
        with pytest.raises(ValueError, match=r"delta-000002-0a1b2c3d\.parquet.*must be rebuilt"):
            read_bp_reconciled(str(tmp_path), files)


def test_per_key_blockmap_layout_is_refused(tmp_path):
    """A blockmap file in the old per-key layout (a ``key`` column) raises
    one clear error naming the file and asking for a link-store rebuild."""
    _refuses_older_layout(tmp_path, {
        "action": ["add"], "key": pa.array([7], pa.int64()), "side": pa.array([1], pa.int8()),
        "uri": ["r//a"], "keys": pa.array([[7]], pa.list_(pa.int64())),
        "vals_0": pa.array([["a"]], pa.list_(pa.string())),
    })


def test_blockmap_rows_with_values_are_refused(tmp_path):
    """A postings file whose entity rows still carry their ``vals_*``
    (the layout before the entity chain) raises the same error."""
    _refuses_older_layout(tmp_path, {
        "action": ["add"], "side": pa.array([1], pa.int8()), "uri": ["r//a"],
        "keys": pa.array([[7]], pa.list_(pa.int64())),
        "vals_0": pa.array([["a"]], pa.list_(pa.string())),
    })


def test_entity_chain_without_keys_is_refused(tmp_path):
    """An entity-chain file of the layout before the entity chain held
    each key set (no ``keys`` column) raises the same error, for the
    loader's value read and the driver's old-key read alike."""
    import os

    import pyarrow.parquet as pq

    from silk_ray.cdc.incremental import POSTINGS, read_entity_values

    rel = os.path.join("blockmap", "ent=00000", "delta-000002.parquet")
    os.makedirs(os.path.dirname(tmp_path / rel))
    pq.write_table(pa.table({
        "action": ["add"], "side": pa.array([1], pa.int8()), "uri": ["r//a"],
        "vals_0": pa.array([["a"]], pa.list_(pa.string())),
    }), tmp_path / rel)
    for columns in (None, POSTINGS.names):
        with pytest.raises(ValueError, match=r"delta-000002\.parquet.*must be rebuilt"):
            read_entity_values(str(tmp_path), [rel], 1, pa.array(["r//a"]), columns)


def test_entity_without_values_is_refused(engine_run):
    """A loader entity whose values are missing from the entity chain
    raises instead of being scored as an entity without values."""
    import pyarrow.compute as pc

    from silk_ray.cdc import incremental

    root = engine_run[0]
    state = incremental.read_linkstate(root)
    ents = incremental.read_bp_reconciled(root, next(iter(state["blockmap"].values())))
    uris = pc.unique(ents["uri"])
    vals = incremental.read_entity_values(root, state["entities"], 3, uris)
    assert incremental._attach_values(ents, vals).num_rows == ents.num_rows
    with pytest.raises(ValueError, match=r"no values in the entity chain.*must be rebuilt"):
        incremental._attach_values(ents, vals.slice(1))
    # a side-0 posting wants a side-0 entity row, which a symmetric rule never writes
    side0 = ents.set_column(0, "side", pa.array([0] * ents.num_rows, pa.int8()))
    with pytest.raises(ValueError, match=r"side 0"):
        incremental._attach_values(side0, vals)


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
    # each partition's entities with their key sets and values from the
    # entity chain, and a side-0 twin of each (a symmetric rule stores
    # side 1 alone, which plays both roles)
    ents, blocks = {}, {}
    for b in bps:
        t = incremental.read_bp_reconciled(root, chains[b])
        vals = incremental.read_entity_values(root, state["entities"], 3, pc.unique(t["uri"]))
        t = incremental._attach_values(t, vals)
        ents[b], *blocks[b] = incremental._both_roles(t, *incremental._bp_blocks(t, b, 16))
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
        "entities": state["entities"],
    }

    def rows(t):
        return sorted(zip(*(t[c].to_pylist() for c in ("source", "target", "confidence"))))

    kernels = incremental._lrs_bundle(
        0, root, bucket, all_keys, dirty, UNFILTERED_RULE, 0.0, 3, 16, 9
    )[0][0]
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
    links, timings = incremental._lrs_bundle(
        0, root, bucket, all_keys, dirty, UNFILTERED_RULE, 0.0, 3, 16, 9
    )
    out = links[0]
    # entities by their leaf values (a symmetric rule's two sides share
    # them): no value list may be prepared more often than entities hold it
    n_entities = len({(s, u) for t in ents.values()
                      for s, u in zip(t["side"].to_pylist(), t["uri"].to_pylist())})
    n_blocks = sum(len(key) for key, _ent in blocks.values())
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
        key, ent = blocks[b]
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
    crosses ``chain.COMPACT_AT`` (set low, so chains compact twice and later
    deltas stack on a compacted file) and runs with ``SPLIT_ROWS`` small
    enough that loader items are key-sub-split (``msplit > 1``). After
    every epoch no postings file carries values, the postings hold side
    1 alone (the rule is symmetric: its side-1 rows play both roles),
    and the entity chain holds exactly one row per live entity and none
    for an entity that left the index."""
    import os

    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from silk_ray.cdc import chain, incremental
    from silk_ray.cdc.merge import epoch_changes

    monkeypatch.setattr(incremental, "SPLIT_ROWS", 12)
    monkeypatch.setattr(chain, "COMPACT_AT", 3)
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
    prev_entities = []  # the entity chain the epoch's old key sets come from
    for epoch in range(1, 8):
        assert run(root, log, cfg)
        links = links_table(root)
        assert links.num_rows == len(_as_set(links))  # each pair once
        assert _as_set(links) == _as_set(_batch_links(root)), epoch
        state = incremental.read_linkstate(root)
        assert state["epoch"] == epoch
        for files in state["blockmap"].values():
            if os.path.basename(files[0]).startswith("compact-"):
                seen["compacted"] = True
                seen["stacked"] |= len(files) > 1
        # this epoch's rows: an entity with a 'del' row in one partition
        # and an 'add' row in another moved out of the first
        actions: dict[str, set] = {}
        for files in state["blockmap"].values():
            for f in files:
                if f"delta-{epoch:06d}" in f:
                    t = pq.read_table(os.path.join(root, f))
                    for u, a in zip(t["uri"].to_pylist(), t["action"].to_pylist()):
                        actions.setdefault(u, set()).add(a)
        seen["tombstone"] |= any(a == {"add", "del"} for a in actions.values())
        # postings carry no values and no side-0 rows; the entity chain
        # holds one row per live entity, side 1 alone
        live = set()
        for files in state["blockmap"].values():
            assert not any(n.startswith("vals_") for f in files
                           for n in pq.ParquetFile(os.path.join(root, f)).schema_arrow.names)
            t = incremental.read_bp_reconciled(root, files)
            live |= set(zip(t["side"].to_pylist(), t["uri"].to_pylist()))
        assert live and {side for side, _u in live} == {1}
        uris = pc.unique(pa.chunked_array(
            [pq.read_table(os.path.join(root, f), columns=["uri"])["uri"].combine_chunks()
             for f in state["entities"]]))
        vals = incremental.read_entity_values(root, state["entities"], 3, uris)
        ids = list(zip(vals["side"].to_pylist(), vals["uri"].to_pylist()))
        assert len(ids) == len(set(ids)) and set(ids) == {(1, u) for s, u in live if s == 1}
        # the epoch's key rows per block partition, as update_links
        # counts them to sub-split a partition
        stage = incremental.DeltaIndexStage(UNFILTERED_RULE, 16)
        _chains, touched = incremental._with_old_keys(
            root, prev_entities, [stage(t) for t in epoch_changes(root, epoch)], 16, 3, (1,))
        prev_entities = state["entities"]
        counts = touched.group_by("bp").aggregate([("bp", "count")])
        seen["msplit"] |= max(counts["bp_count"].to_pylist()) > incremental.SPLIT_ROWS
    assert all(seen.values()), seen


def test_link_sketch_hashes_each_uri_once(monkeypatch):
    """A link file's uri sketch hashes each distinct uri once and has
    the bits of the per-row form: every source and target of every row
    hashed."""
    import base64
    import zlib

    import numpy as np

    from silk_ray.cdc import incremental

    uris = [f"repo-{i % 5}//src/f{i % 7}.py" for i in range(60)]
    t = pa.table({"source": uris[:40], "target": uris[20:],
                  "confidence": pa.array([0.5] * 40, pa.float64())})
    bits = np.zeros(incremental.LINK_SKETCH_BITS // 8, np.uint8)
    for u in t["source"].to_pylist() + t["target"].to_pylist():
        b = zlib.crc32(u.encode()) % incremental.LINK_SKETCH_BITS
        bits[b >> 3] |= 1 << (b & 7)
    hashed = []
    real = incremental._uri_bits
    monkeypatch.setattr(incremental, "_uri_bits", lambda us: hashed.extend(us) or real(us))
    assert incremental._sketch_of_links(t) == base64.b64encode(bits.tobytes()).decode()
    assert sorted(hashed) == sorted(set(uris))


def _lower_source(node):
    """``node``'s input tree with a ``lowerCase`` around its path."""
    if "path" in node:
        return {"transform": "lowerCase", "inputs": [node]}
    return {**node, "inputs": [_lower_source(i) for i in node["inputs"]]}


def test_asymmetric_rule_equals_batch_every_epoch(ray_session, tmp_path, monkeypatch):
    """A rule whose Jaccard leaf lower-cases its source side only:
    incremental links equal batch ``generate_links`` after every epoch
    of a changelog that upper-cases and restores contents, deletes and
    re-inserts entities and crosses one compaction. The postings keep
    both link sides, and the entity chain holds each side's own key set
    — they differ for an upper-cased entity — whose old keys the
    driver resolves per side."""
    import os

    import pyarrow.parquet as pq

    from silk_ray.cdc import chain, incremental
    from silk_ray.linking.pipeline import _spec_symmetric, add_uri_column, generate_links

    rule = copy.deepcopy(UNFILTERED_RULE)
    leaf = rule["operator"]["operators"][2]
    leaf["source"] = _lower_source(leaf["source"])
    assert not _spec_symmetric(rule)
    monkeypatch.setattr(chain, "COMPACT_AT", 3)
    base = make_base_table(24, seed=97, near_dup_frac=0.5).to_pylist()
    assert len(base) == 36
    events = []

    def emit(op, row, content=None):
        ev = {"offset": len(events), "op": op, "repo": row["repo"], "path": row["path"],
              "commit": None, "lang": None, "content": None}
        if op != "D":
            ev.update(commit=f"c{len(events)}", lang=row["lang"],
                      content=row["content"] if content is None else content)
        events.append(ev)

    for r in base:  # epochs 1-2: inserts
        emit("I", r)
    for r in base[:9]:  # epoch 3: upper-cased contents, nine deletes
        emit("U", r, content=r["content"].upper())
    for r in base[27:]:
        emit("D", r)
    for r in base[27:]:  # epoch 4: re-inserts, contents restored
        emit("I", r)
    for r in base[:9]:
        emit("U", r)
    for r in base[9:27]:  # epoch 5: upper-cased again
        emit("U", r, content=r["content"].upper())
    log = pa.Table.from_pylist(events, schema=pa.schema([
        ("offset", pa.int64()), ("op", pa.string()), ("repo", pa.string()), ("path", pa.string()),
        ("commit", pa.string()), ("lang", pa.string()), ("content", pa.string()),
    ]))
    root = str(tmp_path / "lake")
    cfg = EngineConfig(epoch_size=18, num_partitions=2, n_block_partitions=8, rule_spec=rule,
                       max_epochs=1)
    seen = {"linked": False, "compacted": False, "sides_differ": False, "removed": False}
    for epoch in range(1, 6):
        assert run(root, log, cfg)
        batch = generate_links(add_uri_column(snapshot_dataset(root)), None, rule,
                               source_equals_target=True, link_limit=None).to_pandas()
        links = links_table(root)
        assert links.num_rows == len(_as_set(links))
        assert _as_set(links) == _as_set(batch), epoch
        seen["linked"] |= links.num_rows > 0
        state = incremental.read_linkstate(root)
        seen["compacted"] |= any(os.path.basename(fs[0]).startswith("compact-")
                                 for fs in state["blockmap"].values())
        seen["removed"] |= _links_removed(root, epoch) > 0
        live: dict = {}
        for files in state["blockmap"].values():
            for f in files:  # one row per (side, uri) and file: an add or a del
                ids = pq.read_table(os.path.join(root, f), columns=["side", "uri"]).to_pylist()
                assert len(ids) == len({(r["side"], r["uri"]) for r in ids}), f
            t = incremental.read_bp_reconciled(root, files)
            for side, u, keys in zip(*(t[c].to_pylist() for c in ("side", "uri", "keys"))):
                live.setdefault((side, u), []).extend(keys)
        assert {side for side, _u in live} == {0, 1}
        uris = pa.array(sorted({u for _s, u in live}))
        ents = incremental.read_entity_values(root, state["entities"], 3, uris)
        held = {(s, u): k for s, u, k in zip(*(ents[c].to_pylist() for c in ("side", "uri", "keys")))}
        assert held == {i: sorted(k) for i, k in live.items()}
        seen["sides_differ"] |= any(held.get((0, u)) != k for (s, u), k in held.items() if s == 1)
    assert all(seen.values()), seen


def _links_removed(root, epoch):
    import json

    from silk_ray.cdc import checkpoint as ckpt

    with open(ckpt.metrics_path(root, epoch, kind="links")) as f:
        return json.load(f)["links_removed"]


def _hex_links(root):
    t = links_table(root)
    return list(zip(t["source"].to_pylist(), t["target"].to_pylist(),
                    [c.hex() for c in t["confidence"].to_pylist()]))


def test_unfused_delta_update_starts_no_ray_data(ray_session, tmp_path, monkeypatch):
    """A link store driven by a compiled rule starts no Ray Data
    execution: with Ray Data's ``from_arrow`` and
    ``Dataset.map_batches`` raising, it gives the same links
    (confidences by ``float.hex``) and linkstate as an unpatched
    twin."""
    import json
    import os

    import ray.data

    from silk_ray.linking.pipeline import _compile_rule

    log = make_changelog(make_base_table(60, seed=131, near_dup_frac=0.3), 300, seed=132)
    cfg = EngineConfig(epoch_size=100, num_partitions=4, n_block_partitions=16,
                       rule_spec=_compile_rule(UNFILTERED_RULE))

    def linkstate(root):
        with open(os.path.join(root, "_linkstate.json")) as f:
            return f.read()

    twin = str(tmp_path / "twin")
    run(twin, log, cfg)

    def no_ray_data(*_a, **_k):
        raise AssertionError("an un-fused delta link update started Ray Data")

    monkeypatch.setattr(ray.data, "from_arrow", no_ray_data)
    monkeypatch.setattr(ray.data.Dataset, "map_batches", no_ray_data)
    root = str(tmp_path / "lake")
    ms = run(root, log, cfg)
    assert [m["links"]["mode"] for m in ms] == ["delta"] * 3
    assert _hex_links(root) == _hex_links(twin) and _hex_links(root)
    assert json.loads(linkstate(root)) == json.loads(linkstate(twin))


def _crash_before_linkstate_commit(tmp_path, monkeypatch, kind: str) -> None:
    """A crash after epoch 3's entity chain is written and compacted
    (``kind``: its base rewritten, or after a large first epoch only its
    deltas merged), before ``commit_linkstate``. The run resumed as a new
    process would (no rows in memory) rewrites the compact file byte for
    byte and ends with the straight run's links (by ``float.hex``) and
    ``state_sha256``."""
    import json
    import os

    from silk_ray.cdc import chain, incremental, merge
    from silk_ray.cdc import checkpoint as ckpt
    from silk_ray.cdc.merge import state_sha256

    monkeypatch.setattr(chain, "COMPACT_AT", 2)
    rows, events, size, first_size = (60, 400, 100, 100) if kind == "rewrite" else (
        200, 800, 50, 600)
    log = make_changelog(make_base_table(rows, seed=151, near_dup_frac=0.3), events, seed=152)
    cfg = EngineConfig(epoch_size=size, num_partitions=4, n_block_partitions=4,
                       rule_spec=UNFILTERED_RULE)
    first = EngineConfig(**{**cfg.__dict__, "epoch_size": first_size, "max_epochs": 1})
    one = EngineConfig(**{**cfg.__dict__, "max_epochs": 1})
    straight = str(tmp_path / "straight")
    run(straight, log, first)
    run(straight, log, cfg)
    with open(os.path.join(straight, "_metrics", "links-000003.json")) as f:
        done = json.load(f)["compactions"]["entities"]
    assert {k: v["count"] for k, v in done.items()} == {
        "merge": int(kind == "merge"), "rewrite": int(kind == "rewrite")}

    root = str(tmp_path / "lake")
    run(root, log, first)
    run(root, log, one)
    real = incremental.commit_linkstate

    def crash(*_a, **_k):
        raise RuntimeError("crash before the linkstate commit")

    monkeypatch.setattr(incremental, "commit_linkstate", crash)
    with pytest.raises(RuntimeError, match="crash before"):
        run(root, log, cfg)
    assert incremental.read_linkstate(root)["epoch"] == 2
    ent_dir = os.path.join(root, "blockmap", "ent=00000")
    assert {"delta-000003.parquet", "compact-000003.parquet"} <= set(os.listdir(ent_dir))
    compact = os.path.join(ent_dir, "compact-000003.parquet")
    with open(compact, "rb") as f:
        crashed = f.read()
    monkeypatch.setattr(incremental, "commit_linkstate", real)
    merge._CHANGES.clear()
    run(root, log, one)  # the links catch-up of epoch 3, then epoch 4
    entities = incremental.read_linkstate_at(root, 3)["entities"]
    assert len(entities) == (2 if kind == "merge" else 1)
    assert entities[-1] == os.path.join("blockmap", "ent=00000", "compact-000003.parquet")
    with open(compact, "rb") as f:
        assert f.read() == crashed
    run(root, log, cfg)
    assert incremental.read_linkstate(root)["epoch"] == ckpt.read_manifest(straight).epoch
    assert _hex_links(root) == _hex_links(straight)
    assert state_sha256(root) == state_sha256(straight)


def test_crash_before_linkstate_commit_resumes(ray_session, tmp_path, monkeypatch):
    """A crash after a base rewrite of the entity chain, before the
    linkstate commit, resumes to the straight run
    (:func:`_crash_before_linkstate_commit`)."""
    _crash_before_linkstate_commit(tmp_path, monkeypatch, "rewrite")


def test_crash_after_an_entity_merge_resumes(ray_session, tmp_path, monkeypatch):
    """A crash after a merge-only compaction of the entity chain, before
    the linkstate commit, resumes to the straight run
    (:func:`_crash_before_linkstate_commit`)."""
    _crash_before_linkstate_commit(tmp_path, monkeypatch, "merge")


def _chain_bytes(root):
    """Every link-index chain file under ``blockmap/`` by relative path,
    with its bytes."""
    import os

    return {os.path.relpath(f, root): open(f, "rb").read()
            for prefix in ("bp=", "ent=") for f in _blockmap_files(root, prefix)}


@pytest.mark.parametrize("form", ["dict", "compiled"])
def test_handed_off_index_rows_write_the_derived_bytes(ray_session, tmp_path, monkeypatch,
                                                       form):
    """The chain files written from the merge tasks' index rows are
    byte-identical, per epoch, to those written with the memo cleared
    (the rows derived from the lake), for a rule dict and for the same
    rule compiled; every epoch's links are the same too. An epoch adds
    one ``delta-E`` file per touched chain, at most B + 1, and no other
    kind of file besides compaction's."""
    import os
    import re

    from silk_ray.cdc import chain, engine, merge
    from silk_ray.linking.pipeline import _compile_rule

    monkeypatch.setattr(chain, "COMPACT_AT", 2)
    log = make_changelog(make_base_table(60, seed=161, near_dup_frac=0.3), 400, seed=162)
    rule = UNFILTERED_RULE if form == "dict" else _compile_rule(UNFILTERED_RULE)
    cfg = EngineConfig(epoch_size=100, num_partitions=4, n_block_partitions=4,
                       rule_spec=rule, gc=False, max_epochs=1)
    update_links = engine.update_links

    def derived(*a, **kw):
        merge._CHANGES.clear()
        return update_links(*a, **kw)

    roots = {name: str(tmp_path / name) for name in ("memo", "derived")}
    for epoch in range(1, 5):
        for name, root in roots.items():
            monkeypatch.setattr(engine, "update_links",
                                derived if name == "derived" else update_links)
            (m,) = run(root, log, cfg)
            assert ("delta_index" in m["links"]["phases"]) == (name == "derived")
        memo, other = (_chain_bytes(r) for r in roots.values())
        assert memo == other, epoch
        assert all(re.fullmatch(r"(delta|compact)-\d{6}\.parquet", os.path.basename(f))
                   for f in memo)
        assert 1 <= sum(f"delta-{epoch:06d}" in f for f in memo) <= 4 + 1, epoch
        assert _hex_links(roots["memo"]) == _hex_links(roots["derived"]), epoch
    assert any("compact-" in f for f in memo)


SINGLE_LEVENSHTEIN_RULE = {
    "operator": {
        "metric": "levenshteinDistance",
        "threshold": 2,
        "source": {"transform": "untilCharacter", "params": {"untilCharacter": "."},
                   "inputs": [{"path": "path"}]},
        "target": {"transform": "untilCharacter", "params": {"untilCharacter": "."},
                   "inputs": [{"path": "path"}]},
    },
}


@pytest.mark.parametrize("rule", [BENCH_RULE, SINGLE_LEVENSHTEIN_RULE],
                         ids=["bench", "levenshtein"])
def test_compiled_symmetric_rule_indexes_one_side(ray_session, tmp_path, rule):
    """A symmetric rule compiled from a dict is symmetric too: its
    postings and entity chains are byte-identical, per epoch, to those
    of the rule as a dict, whose entity chain holds side 1 alone."""
    import pyarrow.parquet as pq

    from silk_ray.linking.pipeline import _compile_rule, _spec_symmetric

    compiled = _compile_rule(rule)
    assert _spec_symmetric(rule) and _spec_symmetric(compiled)
    log = make_changelog(make_base_table(60, seed=171, near_dup_frac=0.3), 300, seed=172)
    roots = {form: str(tmp_path / form) for form in ("dict", "compiled")}
    for epoch in range(1, 4):
        for form, spec in (("dict", rule), ("compiled", compiled)):
            run(roots[form], log, EngineConfig(epoch_size=100, num_partitions=3,
                                               n_block_partitions=4, rule_spec=spec,
                                               gc=False, max_epochs=1))
        chains = [_chain_bytes(r) for r in roots.values()]
        assert chains[0] == chains[1], epoch
        ents = pa.concat_tables(
            [pq.read_table(f) for f in _blockmap_files(roots["compiled"], "ent=")]
        )
        assert set(ents["side"].to_pylist()) == {1}, epoch


def test_links_table_refuses_a_missing_link_file(engine_run, tmp_path):
    """A committed link state that names a missing file is a broken
    store: ``links_table`` raises naming the file instead of returning
    the links of the files that are left."""
    import os
    import shutil

    root = str(tmp_path / "lake")
    shutil.copytree(engine_run[0], root)
    files = [e["file"] for e in read_linkstate(root)["links_files"]]
    assert files and links_table(root).num_rows
    os.remove(os.path.join(root, files[0]))
    with pytest.raises(FileNotFoundError, match=f"{files[0]}.*must be rebuilt"):
        links_table(root)


# -- late, paused and crashed link stores ------------------------------------
#
# An epoch's link-index rows pass in memory from the merge tasks, or
# are derived from the epoch's change set while manifest E-1 is
# retained. A link store more than one epoch behind therefore
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


@pytest.mark.parametrize("rows", ["memo", "derived"])
def test_fused_crash_window_without_dirty_files(tmp_path, late_log, rows):
    """Merge E with the link rule commits (no store reads the change
    set, so the merge hands none off) and the link update is lost: the
    catch-up brings the link store up to batch linking from the merge
    tasks' index rows (``memo``) or, as a new process, from rows it
    derives from the lake (``derived``). Neither writes ``summaries/``
    or ``dirty/``."""
    import json
    import os

    from silk_ray.cdc import merge
    from silk_ray.cdc.engine import catch_up

    root = str(tmp_path / "lake")
    cfg = _late_cfg(rule_spec=UNFILTERED_RULE)
    assert run(root, late_log, cfg)
    epoch = merge.run_epoch(root, late_log, epoch_size=100, num_partitions=4,
                            link_spec=UNFILTERED_RULE, n_block_partitions=16)["epoch"]
    if rows == "derived":
        merge._CHANGES.clear()
    catch_up(root, late_log, cfg)
    with open(os.path.join(root, "_metrics", f"links-{epoch:06d}.json")) as f:
        m = json.load(f)
    assert (m["epoch"], m["mode"]) == (epoch, "delta")
    assert ("delta_index" in m["phases"]) == (rows == "derived")
    assert _as_set(links_table(root)) == _as_set(_batch_links(root))
    assert not {"summaries", "dirty"} & set(os.listdir(root))
