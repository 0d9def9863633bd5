"""An epoch's change set (merge.epoch_changes): the merge tasks' in-memory
tables and the rows derived from the lake are the same tables, with the
same rows, schema and order, and they match an oracle built from the
epoch's events and the state snapshots on either side of it.

One hand-built changelog covers inserts, updates (one to the same
value), deletes, insert-then-delete and delete-then-reinsert within an
epoch, a delete re-inserted in a later epoch, a column that appears
mid-run, a promoted type (int32 → int64), epoch 1 and compaction
epochs. Nothing is written under ``dirty/``.
"""

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from silk_ray.cdc import chain, merge
from silk_ray.cdc import checkpoint as ckpt
from silk_ray.cdc.engine import EngineConfig, run

# (op, key, content, size, lang2); lang2 and the int64 size arrive in
# the third segment
SEGMENTS = [
    [("I", k, f"{k}-v1", i, None) for i, k in enumerate("abcdef")],
    [("U", "a", "a-v2", 10, None), ("D", "b", None, None, None), ("I", "g", "g-v1", 7, None),
     ("D", "g", None, None, None), ("I", "h", "h-v1", 8, None), ("U", "c", "c-v1", 2, None)],
    [("D", "c", None, None, None), ("I", "c", "c-v2", 20, "x"), ("U", "d", "d-v2", 2**40, "y"),
     ("I", "i", "i-v1", 9, None), ("U", "e", "e-v2", 4, None)],
    [("I", "b", "b-v2", 11, "z"), ("D", "d", None, None, None), ("U", "a", "a-v3", 12, "w"),
     ("U", "f", "f-v2", 5, None)],
    [("U", "a", "a-v4", 13, None), ("U", "b", "b-v3", 14, "z2"), ("U", "e", "e-v3", 15, None),
     ("D", "h", None, None, None)],
]
PAYLOAD = ("content", "size", "lang2")


def _write_segments(d: str) -> list[pa.Table]:
    os.makedirs(d)
    segs = []
    for s, events in enumerate(SEGMENTS):
        size_type = pa.int32() if s < 2 else pa.int64()
        cols = {
            "offset": pa.array([100 * s + i for i in range(len(events))], pa.int64()),
            "op": pa.array([e[0] for e in events], pa.string()),
            "repo": pa.array(["r"] * len(events), pa.string()),
            "path": pa.array([e[1] for e in events], pa.string()),
            "content": pa.array([e[2] for e in events], pa.string()),
            "size": pa.array([e[3] for e in events], size_type),
        }
        if s >= 2:
            cols["lang2"] = pa.array([e[4] for e in events], pa.string())
        t = pa.table(cols)
        pq.write_table(t, os.path.join(d, f"segment-{s:06d}.parquet"))
        segs.append(t)
    return segs


def _oracle(root: str, epoch: int, events: pa.Table) -> list[dict]:
    """Expected change rows: the net last event per key in the epoch,
    against the states committed at epoch-1 and epoch."""
    def keyed(e):
        if e == 0:
            return {}
        return {r["path"]: r for r in merge.state_table(root, at_epoch=e).to_pylist()}

    old, new = keyed(epoch - 1), keyed(epoch)
    net = {}
    for r in events.to_pylist():
        net[r["path"]] = r["op"]
    rows = []
    for path in sorted(net):
        if net[path] == "D" and path not in old:
            continue  # inserted and deleted within the epoch
        change = "D" if net[path] == "D" else ("U" if path in old else "I")
        rows.append({"path": path, "change": change,
                     "new": new.get(path) if change != "D" else None, "old": old.get(path)})
    return rows


def _check_oracle(tables: list[pa.Table], want: list[dict]) -> None:
    got = [r for t in tables for r in t.to_pylist()]
    got.sort(key=lambda r: r["path"])
    assert [(r["path"], r["change"]) for r in got] == [(w["path"], w["change"]) for w in want]
    for r, w in zip(got, want):
        for c in PAYLOAD:
            for side in ("new", "old"):
                image = w[side] or {}
                assert r.get(f"{side}_{c}") == image.get(c), (r["path"], side, c)


def _check_schema(root: str, epoch: int, tables: list[pa.Table]) -> None:
    """Each table is its delta file's payload, paired new_/old_ in file
    order after (repo, path, change), key-sorted."""
    m = ckpt.read_manifest(root)
    touched = sorted(p for p, info in m.partitions.items() if info["epoch"] == epoch)
    assert len(tables) == len(touched)
    for pid, t in zip(touched, tables):
        delta = pq.read_schema(ckpt.partition_file(root, pid, epoch))
        payload = [f for f in delta if f.name not in merge.KEY_COLS + merge.INTERNAL_COLS]
        want = [delta.field("repo"), delta.field("path"), pa.field("change", pa.string())]
        for f in payload:
            want += [f.with_name(f"new_{f.name}"), f.with_name(f"old_{f.name}")]
        assert t.schema == pa.schema(want)
        keys = list(zip(t["repo"].to_pylist(), t["path"].to_pylist()))
        assert keys == sorted(keys)


def test_derived_changes_equal_handed_off_tables(tmp_path, ray_session, monkeypatch):
    monkeypatch.setattr(chain, "COMPACT_AT", 2)
    log_dir = str(tmp_path / "log")
    segs = _write_segments(log_dir)
    root = str(tmp_path / "lake")
    # egress reads the change set, so from epoch 2 on the merge hands it off
    cfg = EngineConfig(epoch_size=100, num_partitions=2, egress=True, egress_shards=2,
                       max_epochs=1)
    primed = []  # what each run_epoch hands to the memo
    remember = merge._remember_changes
    monkeypatch.setattr(merge, "_remember_changes",
                        lambda *a: (primed.append(a[1:]), remember(*a)))
    compacted, promoted = [], False
    for epoch, events in enumerate(segs, start=1):
        primed.clear()
        assert run(root, log_dir, cfg)
        assert ckpt.read_manifest(root).epoch == epoch
        assert primed[0][0] == epoch
        handed = primed[0][1]
        assert (handed is None) == (epoch == 1)  # no reader before epoch 1
        merge._CHANGES.clear()  # as a new process would see it
        derived = merge.epoch_changes(root, epoch)
        for a, b in zip(derived if handed is None else handed, derived, strict=True):
            assert a.equals(b) and a.schema.metadata == b.schema.metadata
            # what a parquet round trip (the old on-disk copy) keeps
            sink = pa.BufferOutputStream()
            pq.write_table(b, sink)
            assert pq.read_table(pa.BufferReader(sink.getvalue())).equals(b)
        if derived:
            _check_schema(root, epoch, derived)
        _check_oracle(derived, _oracle(root, epoch, events))
        promoted |= any(t.schema.field("new_size").type == pa.int64() for t in derived)
        m = ckpt.read_manifest(root)
        compacted += [epoch for info in m.partitions.values()
                      if info["files"][0].endswith(f"compact-{epoch:06d}.parquet")]
    assert promoted and 3 in compacted
    assert not os.path.exists(os.path.join(root, "dirty"))


def test_changes_beyond_retention_refuse(tmp_path, ray_session):
    """A change set whose pre-epoch manifest was GC'd cannot be derived."""
    log_dir = str(tmp_path / "log")
    _write_segments(log_dir)
    root = str(tmp_path / "lake")
    assert len(run(root, log_dir, EngineConfig(epoch_size=100, num_partitions=2,
                                               max_epochs=4))) == 4
    merge._CHANGES.clear()
    assert merge.epoch_changes(root, 4)  # manifest 3 is the rollback window
    with pytest.raises(FileNotFoundError, match="retain_epochs"):
        merge.epoch_changes(root, 3)
