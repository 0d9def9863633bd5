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
    and the phases account for the wall time of the call."""
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
    """Merge committed but link update lost → catch_up_links recovers."""
    import pyarrow.compute as pc

    from silk_ray.cdc.engine import catch_up_links
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
    catch_up_links(root, cfg)
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

    from silk_ray.cdc.engine import catch_up_links

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
    catch_up_links(root, cfg)
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
