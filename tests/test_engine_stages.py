"""The engine drives its derived stores from one list of stages
(engine._stages): the same loop is the per-epoch update and the crash
catch-up, and every stage function resolves at call time.

- a crash in any stage's update, after the merge commit, resumes to the
  state of an uninterrupted run (lake sha, links, clusters, agg view,
  egress stream, windows and late output), also when the resume starts
  without the merge's in-memory change set;
- the benchmark tracer's engine-path spans fire under a real run, which
  an early-bound stage function would silently skip.
"""

import copy

import numpy as np
import pyarrow as pa
import pytest

from silk_ray.cdc import clusters, egress, engine, matview, windows
from silk_ray.cdc.engine import EngineConfig, run
from silk_ray.cdc.generator import make_base_table, make_changelog
from silk_ray.cdc.incremental import links_table
from silk_ray.cdc.matview import AggViewSpec
from silk_ray.cdc.merge import state_sha256
from silk_ray.cdc.windows import WindowSpec
from silk_ray.pipelines.rules import BENCH_RULE

UNFILTERED_RULE = copy.deepcopy(BENCH_RULE)
UNFILTERED_RULE.pop("filter_limit", None)
_US = 1_000_000
N_EPOCHS = 5

# stage name -> (module, attribute the stage calls, position of its epoch argument)
STAGES = {
    "links": (engine, "update_links", 2),
    "clusters": (clusters, "update_clusters", 1),
    "aggs": (matview, "update_aggregates", 1),
    "egress": (egress, "update_egress", 1),
    "windows": (windows, "update_windows", 2),
}


def _cfg(**kw) -> EngineConfig:
    base = dict(
        epoch_size=100,
        num_partitions=3,
        n_block_partitions=8,
        rule_spec=UNFILTERED_RULE,
        maintain_clusters=True,
        agg_spec=AggViewSpec(group_by=("lang",), count_col="n", num_shards=2),
        egress=True,
        egress_shards=4,
        window_spec=WindowSpec(ts_col="ts", width_s=600, allowed_lateness_s=120,
                               group_by=("lang",), count_col="n"),
    )
    base.update(kw)
    return EngineConfig(**base)


@pytest.fixture(scope="module")
def log() -> pa.Table:
    """Changelog over near-duplicate rows with an event-time column:
    30 s cadence, jitter and a seeded late subset."""
    t = make_changelog(make_base_table(60, seed=81, near_dup_frac=0.3), 450, seed=82,
                       dup_frac=0.0)
    rng = np.random.default_rng(83)
    ts = 1_700_000_000 * _US + t["offset"].to_numpy() * 30 * _US
    ts = ts + rng.integers(-90, 90, t.num_rows) * _US
    ts[rng.choice(t.num_rows, size=t.num_rows // 25, replace=False)] -= 7200 * _US
    return t.append_column("ts", pa.array(ts, pa.int64()).cast(pa.timestamp("us")))


def _outputs(root: str) -> dict:
    return {
        "state_sha256": state_sha256(root),
        "links": links_table(root),
        "clusters": clusters.clusters_table(root),
        "aggs": matview.agg_table(root),
        "egress": egress.egress_table(root),
        "windows": windows.windows_table(root),
        "late": windows.late_table(root),
    }


@pytest.fixture(scope="module")
def straight(log, tmp_path_factory, ray_session):
    root = str(tmp_path_factory.mktemp("straight") / "lake")
    metrics = run(root, log, _cfg())
    assert len(metrics) == N_EPOCHS
    assert all(set(STAGES) <= set(m) for m in metrics)
    out = _outputs(root)
    assert all(out[name].num_rows for name in ("links", "clusters", "egress", "late"))
    return out


def test_stage_list_order(log):
    assert [name for name, _update, _gc in engine._stages(log, _cfg())] == list(STAGES)
    assert engine._stages(log, _cfg(rule_spec=None, agg_spec=None, egress=False,
                                     window_spec=None)) == []


@pytest.mark.parametrize("crash_epoch", [3, N_EPOCHS], ids=["mid", "last"])
@pytest.mark.parametrize("stage", list(STAGES))
def test_crash_in_stage_resumes_to_straight_run(
    stage, crash_epoch, log, straight, tmp_path, monkeypatch
):
    """The stage's update raises once at ``crash_epoch``, after the
    merge committed it; a rerun catches every lagging store up (at the
    last epoch the catch-up alone does) and finishes with the
    uninterrupted run's outputs."""
    module, attr, epoch_arg = STAGES[stage]
    update = getattr(module, attr)
    crashed = []

    def crash_once(*args, **kwargs):
        if args[epoch_arg] == crash_epoch and not crashed:
            crashed.append(stage)
            raise RuntimeError(f"injected crash in {stage}")
        return update(*args, **kwargs)

    monkeypatch.setattr(module, attr, crash_once)
    root = str(tmp_path / "lake")
    with pytest.raises(RuntimeError, match="injected crash"):
        run(root, log, _cfg())
    assert crashed == [stage]
    assert engine.ckpt.read_manifest(root).epoch == crash_epoch
    run(root, log, _cfg())
    got = _outputs(root)
    assert got["state_sha256"] == straight["state_sha256"]
    for name in ("links", "clusters", "aggs", "egress", "windows", "late"):
        assert got[name].equals(straight[name]), name
    conf = [float.hex(c) for c in got["links"]["confidence"].to_pylist()]
    assert conf == [float.hex(c) for c in straight["links"]["confidence"].to_pylist()]


@pytest.mark.parametrize("crash_epoch", [3, N_EPOCHS], ids=["mid", "last"])
@pytest.mark.parametrize("stage", ["aggs", "egress"])
def test_crash_before_change_reader_resumes_in_fresh_process(
    stage, crash_epoch, log, straight, tmp_path, monkeypatch
):
    """A crash between the merge commit and the agg view or egress
    stage, resumed with the in-memory change set forgotten (as a new
    process would start): the stores derive the epoch's change set from
    the lake and finish with the uninterrupted run's outputs."""
    from silk_ray.cdc import merge

    module, attr, epoch_arg = STAGES[stage]
    update = getattr(module, attr)

    def crash(*args, **kwargs):
        if args[epoch_arg] == crash_epoch:
            raise RuntimeError(f"injected crash in {stage}")
        return update(*args, **kwargs)

    root = str(tmp_path / "lake")
    run(root, log, _cfg(max_epochs=crash_epoch - 1))
    monkeypatch.setattr(module, attr, crash)
    with pytest.raises(RuntimeError, match="injected crash"):
        run(root, log, _cfg(max_epochs=1))
    assert engine.ckpt.read_manifest(root).epoch == crash_epoch
    monkeypatch.undo()
    merge._CHANGES.clear()
    run(root, log, _cfg())
    got = _outputs(root)
    assert got["state_sha256"] == straight["state_sha256"]
    for name in ("links", "clusters", "aggs", "egress", "windows", "late"):
        assert got[name].equals(straight[name]), name


def test_tracer_spans_fire_under_engine_run(log, tmp_path, ray_session):
    """Every engine-path span the benchmark reports is recorded by a
    real run: the stage table must look each function up at call time."""
    from perfbench.tracer import ENTRY_POINTS, Tracer

    expected = {
        "merge.run_epoch", "incremental.update_links", "gc.gc_lake", "gc.gc_link_inputs",
        "gc.gc_blockmap", "clusters.update_clusters", "gc.gc_clusters",
        "matview.update_aggregates", "gc.gc_aggview", "egress.update_egress",
    }
    assert expected <= {span for _mod, _attr, span in ENTRY_POINTS}
    tracer = Tracer()
    tracer.install()
    try:
        assert run(str(tmp_path / "lake"), log, _cfg(window_spec=None, max_epochs=2))
    finally:
        tracer.uninstall()
    assert expected <= {s.name for s in tracer.spans}


def test_every_engine_file_is_zstd(log, tmp_path, ray_session):
    """Every Parquet file a run with all five stages writes under the
    lake root has only zstd column chunks (``ckpt.atomic_write_parquet``
    is the one writer)."""
    import glob
    import os

    import pyarrow.parquet as pq

    root = str(tmp_path / "lake")
    assert len(run(root, log, _cfg(gc=False))) == N_EPOCHS
    files = glob.glob(os.path.join(root, "**", "*.parquet"), recursive=True)
    dirs = {os.path.relpath(f, root).split(os.sep)[0] for f in files}
    assert {"partitions", "blockmap", "links", "clusters", "aggview", "egress",
            "windows"} <= dirs
    seen = set()
    for f in files:
        md = pq.read_metadata(f)
        codecs = {md.row_group(g).column(c).compression
                  for g in range(md.num_row_groups) for c in range(md.num_columns)}
        assert codecs <= {"ZSTD"}, (f, codecs)
        seen |= codecs
    assert seen == {"ZSTD"}
