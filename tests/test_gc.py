"""Per-epoch storage GC: superseded chain files, orphaned files and an
older version's linker inputs are deleted after each commit, without
changing the replayed state, the link set, or resumability (north_rule:
a continuously-tailing engine must not grow storage without bound)."""

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
    # 12 epochs of 100 events: past chain.COMPACT_AT for the lake and
    # the blockmap, so compaction supersedes chain files
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
    root, metrics = gc_run
    assert sum(m.get("gc_files", 0) for m in metrics) > 0

    # surviving lake files = current manifest chains plus the one-epoch
    # rollback window (prev_files); everything referenced survives
    manifest = ckpt.read_manifest(root)
    live = {os.path.normpath(f) for f in manifest.chain_files()}
    prev = {os.path.normpath(f) for f in manifest.prev_files}
    on_disk = _files_under(root, "partitions")
    assert live <= on_disk <= live | prev

    # blockmap: current postings and entity chains plus the rollback window
    state = read_linkstate(root)
    bm_live = {
        os.path.normpath(f)
        for files in [*state["blockmap"].values(), state["entities"]]
        for f in files
    }
    bm_prev = {os.path.normpath(f) for f in state.get("blockmap_prev", [])}
    bm_disk = _files_under(root, "blockmap")
    assert bm_live <= bm_disk <= bm_live | bm_prev

    # the link index's rows pass in memory: no linker inputs on disk
    assert not os.path.exists(os.path.join(root, "summaries"))


def test_gc_off_sweeps_nothing(nogc_run):
    """With ``gc=False`` nothing is swept: every link epoch keeps its
    snapshot, and every links/ and blockmap/ file that any snapshot
    named is still on disk."""
    root, _metrics = nogc_run
    snap_dir = os.path.join(root, "_linkstates")
    names = sorted(os.listdir(snap_dir))
    last = read_linkstate(root)["epoch"]
    assert last > 1 and names == [f"state-{e:06d}.json" for e in range(1, last + 1)]
    on_disk = _files_under(root, "links") | _files_under(root, "blockmap")
    for name in names:
        state = ckpt.read_json(os.path.join(snap_dir, name))
        named = [e["file"] for e in state["links_files"]]
        named += [f for files in state["blockmap"].values() for f in files]
        named += state["entities"]
        assert {os.path.normpath(f) for f in named} <= on_disk, name


def test_gc_bounds_storage(gc_run, nogc_run):
    """The lake's and the link store's sweeps each bound their own
    directory (neither count may hide the other's)."""
    (gc_root, _), (nogc_root, _) = gc_run, nogc_run
    for sub in ("partitions", "blockmap"):
        assert len(_files_under(gc_root, sub)) < len(_files_under(nogc_root, sub)), sub


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


def _named_by_retained_states(root, store, retain_epochs=1):
    """Every file a retained state of ``store`` names: the pointer's
    files and rollback set, each retained snapshot's files, and the
    files other stores point into it (the lake's egress references)."""
    state = store.read(root)
    named = {*store.live_files(state), *store.prev_files(state), *store.pinned(root)}
    for e in range(max(1, state["epoch"] - retain_epochs), state["epoch"]):
        named.update(store.live_files(store.read_at(root, e)))
    return {os.path.normpath(f) for f in named if f}


def test_gc_after_catch_up(tmp_path, ray_session, changelog):
    """A bootstrap followed by ``run(max_epochs=0)`` — the catch-up of
    the link store alone — sweeps what is left over at once, not at the
    end of the next epoch: an orphaned chain file (a crashed attempt's)
    and the ``summaries/`` of an older version's lake go, and every file
    under blockmap/ and partitions/ is named by a retained state."""
    import pyarrow as pa

    from silk_ray.cdc.bootstrap import bootstrap_lake

    base = make_base_table(100, seed=141, near_dup_frac=0.3)
    root = str(tmp_path / "lake")
    bootstrap_lake(root, base, as_of_offset=base.num_rows - 1, num_partitions=4,
                   link_spec=RULE, n_block_partitions=16)
    assert not _files_under(root, "blockmap")  # the bootstrap writes no index file
    leftovers = {os.path.join("blockmap", "bp=00003", "delta-000001-0a1b2c3d.parquet"),
                 os.path.join("summaries", "p=00000", "epoch-000001.parquet")}
    for f in leftovers:
        ckpt.atomic_write_parquet(pa.table({"uri": ["x"]}), os.path.join(root, f))
    assert run(root, changelog, _cfg(max_epochs=0)) == []
    assert read_linkstate(root)["epoch"] == 1
    on_disk = _files_under(root, "blockmap") | _files_under(root, "summaries")
    assert _files_under(root, "blockmap") and not on_disk & leftovers
    assert not os.path.exists(os.path.join(root, "summaries"))
    for sub, store in (("partitions", ckpt.LAKE), ("blockmap", ckpt.LINKS)):
        assert _files_under(root, sub) <= _named_by_retained_states(root, store), sub


def test_dirty_delta_written_only_for_its_readers(tmp_path, ray_session, changelog):
    """One changelog, three reader configurations of the change set,
    one epoch per run: no configuration writes anything under dirty/
    or summaries/ (the merge hands the change set and the link index's
    rows to their readers in memory), and the lake and its per-epoch
    dirty_total are the same in all three."""
    import pyarrow.compute as pc

    from silk_ray.cdc.matview import AggViewSpec

    log = changelog.filter(pc.less(changelog["offset"], 600))
    spec = AggViewSpec(group_by=("lang",), count_col="n", num_shards=2)
    configs = {
        "merge_only": {},
        "links": {"rule_spec": RULE},
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
            per_epoch.append((record["dirty_total"], state_sha256(root)))
            assert record["dirty_total"] > 0, (name, epoch)
            for sub in ("dirty", "summaries"):
                assert not os.path.exists(os.path.join(root, sub)), (name, sub, epoch)
        assert len(per_epoch) == 6
        seen[name] = per_epoch
    assert seen["merge_only"] == seen["links"] == seen["aggview_egress"]


def _check_egress_pointers(root, twin):
    """Every lake file an egress pointer resolves to is on disk, every
    lake file on disk is named by a retained state (egress pointers
    included), and the stream reads as the GC-free twin's."""
    from silk_ray.cdc import egress

    refs = egress.lake_refs(root)
    assert refs and all(os.path.exists(os.path.join(root, f)) for f in refs)
    assert _files_under(root, "partitions") <= _named_by_retained_states(root, ckpt.LAKE)
    assert egress.egress_table(root).equals(egress.egress_table(twin))


@pytest.mark.parametrize("case", ["compaction", "crash_resume", "repartition", "resync",
                                  "truncate"])
def test_gc_keeps_every_file_egress_points_to(case, tmp_path, ray_session, changelog,
                                              monkeypatch):
    """After every epoch's GC, each lake file an egress pointer resolves
    to (after- and before-images) exists and the stream equals a
    GC-free twin's: across lake compactions, a crash resume,
    ``repartition_lake`` (3 → 5), ``egress_resync`` and
    ``truncate_egress``, whose released files the next GC sweeps."""
    import pyarrow.compute as pc

    from silk_ray.cdc import chain, egress
    from silk_ray.cdc.repartition import repartition_lake

    monkeypatch.setattr(chain, "COMPACT_AT", 2)
    log = changelog.filter(pc.less(changelog["offset"], 900))
    roots = {gc: str(tmp_path / f"gc-{gc}") for gc in (True, False)}
    parts = {"n": 3}

    def cfg(gc, **kw):
        return EngineConfig(**{"epoch_size": 100, "num_partitions": parts["n"], "egress": True,
                               "egress_shards": 4, "max_epochs": 1, "gc": gc, **kw})

    def step(fn, check=True):
        for gc, root in roots.items():
            fn(gc, root)
        if check:
            _check_egress_pointers(roots[True], roots[False])

    def epochs(n, check=True, **kw):
        for _ in range(n):
            step(lambda gc, root: run(root, log, cfg(gc, **kw)), check)

    if case == "resync":
        epochs(2, check=False, egress=False)
        step(lambda gc, root: egress.egress_resync(root, num_shards=4))
    else:
        epochs(3)
    if case == "crash_resume":
        real = egress.update_egress

        def crash(*a, **kw):
            raise RuntimeError("egress crash")

        monkeypatch.setattr(egress, "update_egress", crash)
        with pytest.raises(RuntimeError, match="egress crash"):
            run(roots[True], log, cfg(True))
        monkeypatch.setattr(egress, "update_egress", real)
        run(roots[True], log, cfg(True, max_epochs=0))  # catch-up, then GC
        run(roots[False], log, cfg(False))
        _check_egress_pointers(roots[True], roots[False])
    elif case == "repartition":
        step(lambda gc, root: repartition_lake(root, 5), check=False)
        parts["n"] = 5
        step(lambda gc, root: run(root, log, cfg(gc, max_epochs=0)))
    elif case == "truncate":
        # the whole stream: later before-images resolve through the
        # anchor the truncate records
        epochs(2)
        pointed = egress.lake_refs(roots[True])
        upto = egress.read_egressstate(roots[True])["epoch"]
        step(lambda gc, root: egress.truncate_egress(root, upto), check=False)
        step(lambda gc, root: run(root, log, cfg(gc, max_epochs=0)))
        root = roots[True]
        released = pointed - egress.lake_refs(root) - ckpt.LAKE.named(
            root, ckpt.LAKE.read(root), ckpt.LAKE.read(root)["epoch"] - 2, pins=False)
        assert released
        assert not any(os.path.exists(os.path.join(root, f)) for f in released)
    epochs(4)
    m = ckpt.read_manifest(roots[True])
    assert m.epoch >= 6 and any("compact-" in f for f in m.chain_files())
