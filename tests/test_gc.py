"""Per-epoch storage GC: superseded chain files, orphaned shards and
consumed linker inputs are deleted after each commit, without changing
the replayed state, the link set, or resumability (north_rule: a
continuously-tailing engine must not grow storage without bound)."""

import copy
import os

import pytest

from silk_ray.cdc import checkpoint as ckpt
from silk_ray.cdc.engine import EngineConfig, run
from silk_ray.cdc.generator import make_base_table, make_changelog
from silk_ray.cdc.incremental import links_table, read_linkstate
from silk_ray.cdc.merge import state_sha256
from silk_ray.pipelines.rules import BENCH_RULE

RULE = copy.deepcopy(BENCH_RULE)
RULE.pop("filter_limit", None)


def _cfg(**kw):
    # 12 epochs of 100 events: past both LAKE_COMPACT_AT and the
    # blockmap COMPACT_AT, so compaction supersedes chain files
    return EngineConfig(
        epoch_size=100, num_partitions=4, n_block_partitions=16, rule_spec=RULE, **kw
    )


def _files_under(root, sub):
    base = os.path.join(root, sub)
    out = set()
    for dirpath, _dirs, files in os.walk(base):
        for f in files:
            if f.endswith(".parquet"):
                out.add(os.path.normpath(os.path.relpath(os.path.join(dirpath, f), root)))
    return out


@pytest.fixture(scope="module")
def changelog():
    base = make_base_table(100, seed=61, near_dup_frac=0.2)
    return make_changelog(base, 1200, seed=62, dup_frac=0.04)


@pytest.fixture(scope="module")
def gc_run(tmp_path_factory, ray_session, changelog):
    root = str(tmp_path_factory.mktemp("lake_gc"))
    metrics = run(root, changelog, _cfg(gc=True))
    return root, metrics


@pytest.fixture(scope="module")
def nogc_run(tmp_path_factory, ray_session, changelog):
    root = str(tmp_path_factory.mktemp("lake_nogc"))
    metrics = run(root, changelog, _cfg(gc=False))
    return root, metrics


def test_gc_preserves_state_and_links(gc_run, nogc_run):
    (gc_root, _), (nogc_root, _) = gc_run, nogc_run
    assert state_sha256(gc_root) == state_sha256(nogc_root)
    as_set = lambda t: {
        (r["source"], r["target"], round(r["confidence"], 9)) for r in t.to_pylist()
    }
    assert as_set(links_table(gc_root)) == as_set(links_table(nogc_root))


def test_gc_removes_only_unreferenced(gc_run):
    from silk_ray.cdc.merge import _file_epoch

    root, metrics = gc_run
    assert sum(m.get("gc_files", 0) for m in metrics) > 0
    last_epoch = metrics[-1]["epoch"]

    # surviving lake files = current manifest chains plus the one-epoch
    # rollback window (prev_files); everything referenced survives
    manifest = ckpt.read_manifest(root)
    live = {os.path.normpath(f) for f in manifest.chain_files()}
    prev = {os.path.normpath(f) for f in manifest.prev_files}
    on_disk = _files_under(root, "partitions")
    assert live <= on_disk <= live | prev

    # blockmap: current chains plus the rollback window
    state = read_linkstate(root)
    bm_live = {
        os.path.normpath(f)
        for files in state["blockmap"].values()
        for f in files
    }
    bm_prev = {os.path.normpath(f) for f in state.get("blockmap_prev", [])}
    bm_disk = _files_under(root, "blockmap")
    assert bm_live <= bm_disk <= bm_live | bm_prev

    # consumed linker inputs: only the newest epoch's (rollback window)
    for sub in ("dirty", "summaries"):
        epochs = {_file_epoch(os.path.basename(f)) for f in _files_under(root, sub)}
        assert epochs <= {last_epoch}


def test_gc_bounds_storage(gc_run, nogc_run):
    (gc_root, _), (nogc_root, _) = gc_run, nogc_run
    n_gc = len(_files_under(gc_root, "partitions")) + len(_files_under(gc_root, "blockmap"))
    n_nogc = len(_files_under(nogc_root, "partitions")) + len(
        _files_under(nogc_root, "blockmap")
    )
    assert n_gc < n_nogc


def test_gc_resume(tmp_path, ray_session, changelog, nogc_run):
    """Stop after a few GC'd epochs and resume: GC must never delete a
    file the resumed run needs."""
    root = str(tmp_path / "lake_resume")
    run(root, changelog, _cfg(gc=True, max_epochs=3))
    run(root, changelog, _cfg(gc=True))
    (nogc_root, _) = nogc_run
    assert state_sha256(root) == state_sha256(nogc_root)
    as_set = lambda t: {
        (r["source"], r["target"], round(r["confidence"], 9)) for r in t.to_pylist()
    }
    assert as_set(links_table(root)) == as_set(links_table(nogc_root))


def _epochs_under(root, sub):
    from silk_ray.cdc.merge import _file_epoch

    return sorted(_file_epoch(os.path.basename(f)) for f in _files_under(root, sub))


def test_dirty_delta_written_only_for_its_readers(tmp_path, ray_session, changelog):
    """One changelog, three reader configurations, one epoch per run:
    the dirty delta is written for every touched partition only while
    the agg view or egress reads it (merge-only and fused links write
    it for the first epoch alone), GC leaves no epoch older than the
    merge epoch in dirty/ or summaries/, and the lake and its per-epoch
    dirty_total are the same in all three."""
    import pyarrow.compute as pc

    from silk_ray.cdc.matview import AggViewSpec

    log = changelog.filter(pc.less(changelog["offset"], 600))
    spec = AggViewSpec(group_by=("lang",), count_col="n", num_shards=2)
    configs = {
        "merge_only": {},
        "links_fused": {"rule_spec": RULE},
        "aggview_egress": {"agg_spec": spec, "egress": True, "egress_shards": 2},
    }
    seen = {}
    for name, kw in configs.items():
        root = str(tmp_path / name)
        cfg = EngineConfig(epoch_size=100, num_partitions=4, n_block_partitions=16,
                           max_epochs=1, **kw)
        per_epoch = []
        while run(root, log, cfg):
            epoch = ckpt.read_manifest(root).epoch
            record = ckpt.read_json(ckpt.metrics_path(root, epoch))
            dirty = _epochs_under(root, "dirty")
            per_epoch.append((record["dirty_total"], state_sha256(root)))
            touched = record["partitions_touched"]
            written = dirty.count(epoch)
            if name == "aggview_egress" or epoch == 1:
                assert written == touched > 0, (name, epoch)
            else:
                assert written == 0, (name, epoch)
            for sub in ("dirty", "summaries"):
                assert set(_epochs_under(root, sub)) <= {epoch}, (name, sub, epoch)
        assert len(per_epoch) == 6
        seen[name] = per_epoch
    assert seen["merge_only"] == seen["links_fused"] == seen["aggview_egress"]
