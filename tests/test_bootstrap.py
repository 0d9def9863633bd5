"""Snapshot bootstrap (cdc/bootstrap.py).

Core invariant: bootstrap(snapshot as of S) + tail(events > S) ends in
the SAME engine state — lake sha256, link store, maintained aggregate
view — as tailing the whole stream from offset 0.
"""

import os

import pyarrow as pa
import pyarrow.compute as pc
import pytest

from silk_ray.cdc.bootstrap import bootstrap_lake
from silk_ray.cdc.engine import EngineConfig, run
from silk_ray.cdc.generator import make_base_table, make_changelog, sequential_apply
from silk_ray.cdc.matview import AggViewSpec, agg_table
from silk_ray.cdc.merge import state_sha256, state_table
from silk_ray.pipelines.rules import CDC_CLUSTER_RULE

SPEC = AggViewSpec(
    group_by=("lang",),
    measures={"sum_chars": ("sum_strlen", "content")},
    count_col="n_docs",
    num_shards=8,
)


def _stream(n_rows=80, n_events=700, seed=23):
    base = make_base_table(n_rows, seed=seed)
    return make_changelog(base, n_events, seed=seed + 1, dup_frac=0.04)


def _snapshot_at(log: pa.Table, s: int) -> pa.Table:
    """Consistent snapshot of the stream as of offset ``s`` (inclusive),
    via the sequential oracle."""
    prefix = log.filter(pc.less_equal(log["offset"], s))
    state = sequential_apply(prefix)
    rows = [state[k] for k in sorted(state)]
    return pa.table(
        {
            c: pa.array([r[c] for r in rows], pa.string())
            for c in ("repo", "path", "commit", "lang", "content", "branch")
        }
    )


def _cfg(**kw):
    return EngineConfig(
        epoch_size=150,
        num_partitions=4,
        n_block_partitions=8,
        rule_spec=CDC_CLUSTER_RULE,
        maintain_clusters=True,
        agg_spec=SPEC,
        **kw,
    )


def _links_fingerprint(root):
    from silk_ray.cdc.incremental import links_table

    t = links_table(root)
    return sorted(zip(t["source"].to_pylist(), t["target"].to_pylist()))


def _clusters_fingerprint(root):
    from silk_ray.cdc.clusters import clusters_table

    t = clusters_table(root)
    return sorted(zip(t["uri"].to_pylist(), t["cluster_id"].to_pylist()))


def test_bootstrap_plus_tail_equals_full_tail(tmp_path, ray_session):
    log = _stream()
    s = 399  # mid-stream snapshot point

    full = str(tmp_path / "full")
    run(full, log, _cfg())

    boot = str(tmp_path / "boot")
    snap = _snapshot_at(log, s)
    m = bootstrap_lake(
        boot, snap, as_of_offset=s,
        num_partitions=4, link_spec=CDC_CLUSTER_RULE, n_block_partitions=8,
    )
    assert m["bootstrap"] and m["epoch"] == 1
    assert m["events_applied"] == snap.num_rows
    # tail the SAME full changelog: offsets ≤ s must never be re-read
    run(boot, log, _cfg())

    assert state_sha256(boot) == state_sha256(full)
    assert _links_fingerprint(boot) == _links_fingerprint(full)
    assert _clusters_fingerprint(boot) == _clusters_fingerprint(full)
    a, b = agg_table(boot), agg_table(full)
    assert a.select(sorted(a.column_names)).equals(b.select(sorted(b.column_names)))


def _write_snapshot_dir(snap: pa.Table, snap_dir: str) -> None:
    import pyarrow.parquet as pq

    os.makedirs(snap_dir)
    third = max(1, snap.num_rows // 3)
    for i in range(3):
        part = snap.slice(i * third, third if i < 2 else snap.num_rows - 2 * third)
        pq.write_table(part, os.path.join(snap_dir, f"part-{i:03d}.parquet"))


def _store_dirs() -> set:
    """Top-level directories under a lake root that hold the stores'
    own files."""
    from silk_ray.cdc import checkpoint as ckpt

    out = {"_checkpoints", "_metrics", "deadletter"}
    for store in ckpt.STORES:
        out.update(store.data_dirs)
        if store.snapshot:
            out.add(os.path.dirname(store.snapshot))
    return out


def test_bootstrap_from_parquet_dir(tmp_path, ray_session, monkeypatch):
    """Directory snapshots are read file by file inside the merge's
    read tasks: the driver creates no directory under the root but the
    stores' own (no synthetic changelog is written)."""
    log = _stream(n_events=500)
    s = 299
    snap = _snapshot_at(log, s)
    snap_dir = str(tmp_path / "snap")
    _write_snapshot_dir(snap, snap_dir)

    boot = str(tmp_path / "boot")
    made = []
    real_makedirs = os.makedirs

    def spy(name, *a, **kw):
        made.append(os.path.relpath(os.path.abspath(name), boot))
        return real_makedirs(name, *a, **kw)

    monkeypatch.setattr(os, "makedirs", spy)
    m = bootstrap_lake(boot, snap_dir, as_of_offset=s, num_partitions=4)
    monkeypatch.undo()
    assert m["events_applied"] == snap.num_rows
    assert made and all(d == "." or d.split(os.sep)[0] in _store_dirs() for d in made), made
    assert set(os.listdir(boot)) <= _store_dirs() | {"_manifest.json"}
    run(boot, log, EngineConfig(epoch_size=150, num_partitions=4))

    full = str(tmp_path / "full")
    run(full, log, EngineConfig(epoch_size=150, num_partitions=4))
    assert state_sha256(boot) == state_sha256(full)


def test_bootstrap_crash_before_commit_reruns(tmp_path, ray_session, monkeypatch):
    """A parquet bootstrap that dies before its manifest commit leaves
    no committed epoch; rerun, it reaches the state of an uninterrupted
    bootstrap."""
    from silk_ray.cdc import merge

    log = _stream(n_events=500)
    s = 299
    snap_dir = str(tmp_path / "snap")
    _write_snapshot_dir(_snapshot_at(log, s), snap_dir)
    straight = str(tmp_path / "straight")
    bootstrap_lake(straight, snap_dir, as_of_offset=s, num_partitions=4)

    def crash(*_a, **_k):
        raise RuntimeError("crash before the bootstrap commit")

    boot = str(tmp_path / "boot")
    monkeypatch.setattr(merge.ckpt, "commit_manifest", crash)
    with pytest.raises(RuntimeError, match="crash before"):
        bootstrap_lake(boot, snap_dir, as_of_offset=s, num_partitions=4)
    monkeypatch.undo()
    assert merge.ckpt.read_manifest(boot).epoch == 0
    m = bootstrap_lake(boot, snap_dir, as_of_offset=s, num_partitions=4)
    assert m["epoch"] == 1
    assert state_sha256(boot) == state_sha256(straight)


def test_bootstrap_guards(tmp_path, ray_session):
    log = _stream(n_events=300)
    snap = _snapshot_at(log, 199)
    boot = str(tmp_path / "boot")
    # offsets must fit below the snapshot offset
    with pytest.raises(ValueError, match="as_of_offset"):
        bootstrap_lake(boot, snap, as_of_offset=snap.num_rows - 2, num_partitions=4)
    bootstrap_lake(boot, snap, as_of_offset=199, num_partitions=4)
    # one-time initialization only
    with pytest.raises(ValueError, match="already has committed epoch"):
        bootstrap_lake(boot, snap, as_of_offset=199, num_partitions=4)
    # reserved column names rejected
    bad = snap.append_column("op", pa.array(["x"] * snap.num_rows))
    with pytest.raises(ValueError, match="reserved changelog column"):
        bootstrap_lake(str(tmp_path / "b2"), bad, as_of_offset=10**6, num_partitions=4)


def test_duplicate_keys_last_wins_and_dlq(tmp_path, ray_session):
    """Duplicate snapshot keys: last row in snapshot order wins (stream
    semantics). Structurally-invalid snapshot rows (null key) land in
    the dead-letter queue, the rest apply."""
    snap = pa.table(
        {
            "repo": pa.array(["r", "r", "r", None]),
            "path": pa.array(["a", "a", "b", "c"]),
            "commit": pa.array(["c1", "c2", "c3", "c4"]),
            "lang": pa.array(["py"] * 4),
            "content": pa.array(["one", "two", "three", "four"]),
        }
    )
    boot = str(tmp_path / "boot")
    m = bootstrap_lake(boot, snap, as_of_offset=100, num_partitions=2)
    assert m["dead_lettered"] == 1
    t = state_table(boot)
    assert t.num_rows == 2
    row_a = t.filter(pc.equal(t["path"], "a"))
    assert row_a["commit"].to_pylist() == ["c2"]  # last duplicate wins
    from silk_ray.cdc.merge import dead_letters_table

    dl = dead_letters_table(boot)
    assert dl.num_rows == 1


def test_export_snapshot_round_trip(tmp_path, ray_session):
    """export → bootstrap(marker offset) → tail == full tail; the
    DR/migration runbook end to end, including through a mid-stream
    export (live lake keeps tailing past the export point)."""
    from silk_ray.cdc.bootstrap import export_snapshot, read_snapshot_marker
    from silk_ray.cdc.merge import run_to_completion

    log = _stream()
    # producer lake consumes a prefix, exports, then keeps going
    src = str(tmp_path / "src")
    prefix = log.filter(pc.less(log["offset"], 400))
    run_to_completion(src, prefix, epoch_size=200, num_partitions=4)
    out = str(tmp_path / "snap")
    marker = export_snapshot(src, out)
    assert marker["rows"] == state_table(src).num_rows
    assert marker["as_of_offset"] == 399
    assert marker["num_partitions"] == 4
    assert read_snapshot_marker(out) == marker
    assert os.path.exists(os.path.join(out, marker["files"][0]))
    run_to_completion(src, log, epoch_size=200, num_partitions=4)

    # replica: bootstrap from the exported dir at the marker offset
    dst = str(tmp_path / "dst")
    bootstrap_lake(dst, out, as_of_offset=marker["as_of_offset"], num_partitions=3)
    run_to_completion(dst, log, epoch_size=150, num_partitions=3)
    assert state_sha256(dst) == state_sha256(src)

    # a second export into the same dir is refused (committed marker)
    with pytest.raises(FileExistsError, match="refusing to overwrite"):
        export_snapshot(src, out)


def test_export_snapshot_at_epoch_and_crash(tmp_path, ray_session, monkeypatch):
    from silk_ray.cdc import bootstrap as bs
    from silk_ray.cdc.bootstrap import export_snapshot, read_snapshot_marker
    from silk_ray.cdc import checkpoint as ckpt
    from silk_ray.cdc.merge import run_to_completion

    log = _stream(seed=29)
    src = str(tmp_path / "src")
    run_to_completion(src, log, epoch_size=200, num_partitions=4)
    e1_sha = state_sha256(src, at_epoch=1)

    # as-of-epoch export equals the time-travel read
    out1 = str(tmp_path / "snap1")
    m1 = export_snapshot(src, out1, at_epoch=1)
    assert m1["epoch"] == 1
    assert m1["as_of_offset"] == ckpt.read_manifest_at(src, 1).next_offset - 1
    dst = str(tmp_path / "dst")
    bootstrap_lake(dst, out1, as_of_offset=m1["as_of_offset"], num_partitions=2)
    assert state_sha256(dst) == e1_sha

    # crash before the marker write: no marker, rerun converges
    out2 = str(tmp_path / "snap2")

    real_replace = os.replace

    def boom(srcp, dstp):
        if dstp.endswith("_SNAPSHOT.json"):
            raise RuntimeError("injected crash before marker")
        return real_replace(srcp, dstp)

    monkeypatch.setattr(bs.os, "replace", boom)
    with pytest.raises(RuntimeError, match="injected crash"):
        export_snapshot(src, out2)
    monkeypatch.undo()
    assert read_snapshot_marker(out2) is None  # not committed
    m2 = export_snapshot(src, out2)  # rerun converges
    assert m2["rows"] == state_table(src).num_rows


def test_export_snapshot_cli_and_marker_offset(tmp_path, ray_session, capsys):
    import json

    from silk_ray.__main__ import main
    from silk_ray.cdc.generator import write_changelog_segments
    from silk_ray.cdc.merge import run_to_completion

    log = _stream(seed=31)
    d = str(tmp_path / "cl")
    write_changelog_segments(log, d, segment_size=350)
    src = str(tmp_path / "src")
    run_to_completion(src, d, epoch_size=350, num_partitions=4)
    out = str(tmp_path / "snap")
    assert main(["export-snapshot", "--root", src, "--out", out]) == 0
    marker = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert marker["rows"] > 0

    # --from-snapshot on an exported dir needs no --snapshot-offset
    dst = str(tmp_path / "dst")
    assert main(["cdc", "--root", dst, "--changelog", d,
                 "--epoch-size", "350", "--num-partitions", "4",
                 "--from-snapshot", out]) == 0
    outj = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert outj["bootstrap"]["as_of_offset"] == marker["as_of_offset"]
    assert state_sha256(dst) == state_sha256(src)
