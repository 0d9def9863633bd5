"""CDC egress — the lake as an exactly-once CDC producer (cdc/egress.py).

Invariants:
- per epoch, the emitted delta equals the diff between consecutive
  time-travel state snapshots (op, before image, after image);
- the stream is byte-identical across partition counts, replays and
  crash catch-ups (file-level sha256);
- a second engine fed the egress stream as its changelog reproduces
  the producer lake's state byte-for-byte (consumer round trip) —
  including through schema evolution;
- enabling egress late refuses loudly; egress_resync emits an
  initial-snapshot epoch from which the delta stream continues.
"""

import glob
import hashlib
import json
import os
import shutil

import pyarrow as pa
import pytest

from silk_ray.cdc.egress import (
    egress_as_changelog,
    egress_resync,
    egress_table,
    read_egressstate,
    truncate_egress,
    update_egress,
)
from silk_ray.cdc.engine import EngineConfig, catch_up, run
from silk_ray.cdc.generator import make_base_table, make_changelog
from silk_ray.cdc.merge import run_to_completion, state_sha256, state_table


@pytest.fixture()
def lake(tmp_path):
    return str(tmp_path / "lake")


def _changelog(n_rows=80, n_events=600, seed=11, evolve_at=None):
    base = make_base_table(n_rows, seed=seed)
    return make_changelog(base, n_events, seed=seed + 1, dup_frac=0.05, evolve_at=evolve_at)


def _cfg(**kw):
    base = dict(epoch_size=150, num_partitions=4, egress=True, egress_shards=8)
    base.update(kw)
    return EngineConfig(**base)


def _egress_file_hashes(root: str) -> dict[str, str]:
    out = {}
    for p in sorted(glob.glob(os.path.join(root, "egress", "*.parquet"))):
        with open(p, "rb") as f:
            out[os.path.basename(p)] = hashlib.sha256(f.read()).hexdigest()
    return out


def _snapshot_diff(root: str, epoch: int) -> dict[tuple, dict]:
    """Brute oracle: keyed diff of state snapshots at epoch-1 and epoch.
    Valid for the seeded generator because every applied write changes
    the commit column (same-value updates are covered separately)."""
    def keyed(e):
        t = state_table(root, at_epoch=e) if e > 0 else None
        if t is None or t.num_rows == 0 or "commit" not in t.column_names:
            return {}
        rows = t.to_pylist()
        return {(r["repo"], r["path"]): r for r in rows}

    old, new = keyed(epoch - 1), keyed(epoch)
    diff = {}
    for k in set(old) | set(new):
        o, n = old.get(k), new.get(k)
        if o is not None and n is not None and o == n:
            continue
        op = "D" if n is None else ("I" if o is None else "U")
        diff[k] = {"op": op, "old": o, "new": n}
    return diff


def test_egress_equals_snapshot_diff_every_epoch(lake, ray_session):
    log = _changelog(seed=31)
    metrics = run(lake, log, _cfg(retain_epochs=10))
    assert len(metrics) >= 3
    stream = egress_table(lake)
    assert stream.num_rows > 0
    # seq is a gapless 0..n-1 sequence
    assert stream["seq"].to_pylist() == list(range(stream.num_rows))
    payload = sorted(
        c[len("new_"):] for c in stream.column_names if c.startswith("new_")
    )
    for m in metrics:
        e = m["epoch"]
        sub = stream.filter(pa.compute.equal(stream["epoch"], e)).to_pylist()
        got = {(r["repo"], r["path"]): r for r in sub}
        want = _snapshot_diff(lake, e)
        assert set(got) == set(want), f"epoch {e}: key sets differ"
        for k, w in want.items():
            g = got[k]
            assert g["op"] == w["op"], (k, g, w)
            for c in payload:
                newv = None if w["new"] is None else w["new"].get(c)
                oldv = None if w["old"] is None else w["old"].get(c)
                assert g[f"new_{c}"] == newv, (k, c, g)
                assert g[f"old_{c}"] == oldv, (k, c, g)


def test_egress_byte_identical_across_partitioning(lake, tmp_path, ray_session):
    log = _changelog(seed=33)
    run(lake, log, _cfg(num_partitions=3))
    other = str(tmp_path / "lake_b")
    run(other, log, _cfg(num_partitions=7))
    a, b = _egress_file_hashes(lake), _egress_file_hashes(other)
    assert a and a == b
    assert egress_table(lake).equals(egress_table(other))


def test_egress_replay_noop_and_crash_catchup(lake, ray_session):
    log = _changelog(seed=35)
    cfg = _cfg()
    run(lake, log, cfg)
    final_state = read_egressstate(lake)
    final_hashes = _egress_file_hashes(lake)
    e = int(final_state["epoch"])
    assert update_egress(lake, e, num_shards=cfg.egress_shards)["mode"] == "replay_noop"

    # crash window: merge committed epoch e, egress state still at e-1
    # (pointer rolled back; files of epoch e deleted) → catch-up must
    # re-derive the exact same bytes
    rolled = dict(final_state)
    rolled["epoch"] = e - 1
    rolled["files"] = {k: v for k, v in final_state["files"].items() if int(k) < e}
    rolled["next_seq"] = min(
        (pa.parquet.read_table(os.path.join(lake, r))["seq"][0].as_py()
         for r in final_state["files"].get(str(e), [])),
        default=final_state["next_seq"],
    )
    for rel in final_state["files"].get(str(e), []):
        os.remove(os.path.join(lake, rel))
    with open(os.path.join(lake, "_egressstate.json"), "w") as f:
        json.dump(rolled, f)
    catch_up(lake, log, cfg)
    assert read_egressstate(lake) == final_state
    assert _egress_file_hashes(lake) == final_hashes


def test_egress_round_trip_consumer(lake, tmp_path, ray_session):
    log = _changelog(seed=37)
    run(lake, log, _cfg())
    consumer = str(tmp_path / "consumer")
    run_to_completion(
        consumer, egress_as_changelog(egress_table(lake)),
        epoch_size=200, num_partitions=3,
    )
    assert state_sha256(consumer) == state_sha256(lake)
    assert _same_state(consumer, lake)


def _same_state(a_root: str, b_root: str) -> bool:
    """Full-value state equality, insensitive to payload column order
    (the consumer's order follows the egress changelog's alphabetical
    new_* order, not the producer's ingest order)."""
    a, b = state_table(a_root), state_table(b_root)
    if sorted(a.column_names) != sorted(b.column_names):
        return False
    cols = sorted(a.column_names)
    return a.select(cols).equals(b.select(cols))


def test_egress_schema_evolution_round_trip(lake, tmp_path, ray_session):
    log = _changelog(seed=39, n_events=500, evolve_at=250)
    run(lake, log, _cfg())
    stream = egress_table(lake)
    assert "new_branch" in stream.column_names
    # pre-evolution epochs carry the evolved column as nulls after the
    # cross-epoch union
    first_epoch = stream.filter(pa.compute.equal(stream["epoch"], 1))
    assert first_epoch["new_branch"].null_count == first_epoch.num_rows
    consumer = str(tmp_path / "consumer")
    run_to_completion(
        consumer, egress_as_changelog(stream), epoch_size=120, num_partitions=5
    )
    assert state_sha256(consumer) == state_sha256(lake)
    assert _same_state(consumer, lake)


def test_egress_same_value_update_still_emits(lake, ray_session):
    """An applied write that leaves values unchanged still egresses a U
    row (binlog ROW semantics: the write is the event, not the diff)."""
    schema = pa.schema(
        [("offset", pa.int64()), ("op", pa.string()), ("repo", pa.string()),
         ("path", pa.string()), ("commit", pa.string()), ("lang", pa.string()),
         ("content", pa.string())]
    )
    row = {"repo": "r", "path": "a", "commit": "c1", "lang": "py", "content": "x"}
    log = pa.Table.from_pylist(
        [{"offset": 0, "op": "I", **row}, {"offset": 1, "op": "U", **row}],
        schema=schema,
    )
    cfg = _cfg(epoch_size=1, num_partitions=2)
    run(lake, log, cfg)
    stream = egress_table(lake).to_pylist()
    assert [r["op"] for r in stream] == ["I", "U"]
    u = stream[1]
    assert u["new_content"] == u["old_content"] == "x"


def test_egress_late_enable_refuses_then_resyncs(lake, ray_session):
    log = _changelog(seed=41)
    cfg_off = _cfg(egress=False, max_epochs=2)
    run(lake, log, cfg_off)  # two epochs with egress disabled
    with pytest.raises(RuntimeError, match="resync"):
        update_egress(lake, 3, num_shards=8)
    m = egress_resync(lake, num_shards=8)
    assert m["mode"] == "snapshot_resync"
    snap = egress_table(lake)
    assert set(snap["op"].to_pylist()) == {"I"}
    assert snap.num_rows == state_table(lake).num_rows
    # the delta stream continues from the snapshot
    run(lake, log, _cfg(egress_shards=8))
    st = read_egressstate(lake)
    assert int(st["epoch"]) > 2 and st["resync_epochs"] == [2]
    # consumer bootstrapped from the resync reproduces the final state
    import tempfile

    consumer = tempfile.mkdtemp(prefix="egress_consumer_")
    try:
        run_to_completion(
            consumer, egress_as_changelog(egress_table(lake)),
            epoch_size=300, num_partitions=4,
        )
        assert state_sha256(consumer) == state_sha256(lake)
    finally:
        shutil.rmtree(consumer, ignore_errors=True)


def test_egress_paused_past_one_epoch_refuses(lake, ray_session):
    """A stream paused for two epochs under ``retain_epochs=1``: the
    first missed epoch's pre-epoch manifest is already GC'd, so its
    change set cannot be derived and catch-up refuses instead of
    emitting a stream with a silently empty epoch; a resync continues
    it."""
    log = _changelog(seed=47)
    run(lake, log, _cfg(egress_shards=8, max_epochs=1))
    run(lake, log, _cfg(egress=False, max_epochs=2))
    with pytest.raises(RuntimeError, match="resync"):
        catch_up(lake, log, _cfg(egress_shards=8))
    assert int(read_egressstate(lake)["epoch"]) == 1
    egress_resync(lake, num_shards=8)
    run(lake, log, _cfg(egress_shards=8, max_epochs=1))
    assert int(read_egressstate(lake)["epoch"]) == 4


def _compacted_at(root: str, epoch: int) -> bool:
    return bool(glob.glob(os.path.join(root, "partitions", "*", f"compact-{epoch:06d}.parquet")))


def test_egress_paused_within_retention_catches_up(lake, tmp_path, ray_session, monkeypatch):
    """Under ``retain_epochs=2`` a stream paused for two epochs, one of
    them a lake compaction epoch, derives both change sets from the lake
    (in a fresh process) and ends byte-identical to an unpaused twin."""
    from silk_ray.cdc import chain, merge

    monkeypatch.setattr(chain, "COMPACT_AT", 2)
    log = _changelog(seed=49)
    twin = str(tmp_path / "twin")
    run(twin, log, _cfg(retain_epochs=2, max_epochs=5))
    run(lake, log, _cfg(retain_epochs=2, max_epochs=2))
    run(lake, log, _cfg(retain_epochs=2, egress=False, max_epochs=2))
    assert _compacted_at(lake, 3)
    merge._CHANGES.clear()
    catch_up(lake, log, _cfg(retain_epochs=2))
    assert int(read_egressstate(lake)["epoch"]) == 4
    run(lake, log, _cfg(retain_epochs=2, max_epochs=1))
    assert _egress_file_hashes(lake) == _egress_file_hashes(twin)
    assert egress_table(lake).equals(egress_table(twin))


@pytest.mark.parametrize("fresh_process", [False, True], ids=["memo", "derived"])
def test_egress_one_epoch_lag_across_compaction(
    fresh_process, lake, tmp_path, ray_session, monkeypatch
):
    """Egress misses one epoch, a lake compaction epoch, and catches up
    under the default retention to an unpaused twin's bytes."""
    from silk_ray.cdc import chain, merge

    monkeypatch.setattr(chain, "COMPACT_AT", 2)
    log = _changelog(seed=51)
    twin = str(tmp_path / "twin")
    run(twin, log, _cfg(max_epochs=4))
    run(lake, log, _cfg(max_epochs=2))
    run(lake, log, _cfg(egress=False, max_epochs=1))
    assert _compacted_at(lake, 3)
    if fresh_process:
        merge._CHANGES.clear()
    catch_up(lake, log, _cfg())
    run(lake, log, _cfg(max_epochs=1))
    assert _egress_file_hashes(lake) == _egress_file_hashes(twin)


def test_egress_shard_count_change_refuses(lake, ray_session):
    log = _changelog(seed=43)
    run(lake, log, _cfg(max_epochs=1))
    with pytest.raises(ValueError, match="num_shards"):
        update_egress(lake, 2, num_shards=4)


def test_truncate_egress(lake, ray_session):
    log = _changelog(seed=45)
    run(lake, log, _cfg())
    st = read_egressstate(lake)
    epochs = sorted(int(e) for e in st["files"])
    assert len(epochs) >= 2
    n = truncate_egress(lake, upto_epoch=epochs[0])
    assert n > 0
    left = egress_table(lake)
    assert int(pa.compute.min(left["epoch"]).as_py()) > epochs[0]
    # seq continuity is preserved for the retained suffix
    seqs = left["seq"].to_pylist()
    assert seqs == sorted(seqs)


def test_consumer_group_chunked_consume_and_crash_redelivery(lake, ray_session):
    """consume → commit in chunks covers the stream exactly once; a
    crash (consume without commit) redelivers the same rows."""
    from silk_ray.cdc.egress import commit_consumer, consume_egress, consumer_lag

    log = _changelog()
    run(lake, log, _cfg())
    full = egress_table(lake)
    assert full.num_rows > 0

    seen = []
    # crash sim: first consume is processed but never committed
    lost = consume_egress(lake, "indexer", max_rows=50)
    assert lost.num_rows == 50
    # redelivery: identical rows come back
    again = consume_egress(lake, "indexer", max_rows=50)
    assert again.equals(lost)
    while True:
        batch = consume_egress(lake, "indexer", max_rows=97)
        if batch.num_rows == 0:
            break
        seen.extend(batch["seq"].to_pylist())
        commit_consumer(lake, "indexer", batch["seq"][-1].as_py())
    assert seen == full["seq"].to_pylist()  # exactly once, in order
    assert consumer_lag(lake)["indexer"] == 0
    # a caught-up consumer gets nothing
    assert consume_egress(lake, "indexer").num_rows == 0


def test_consumer_commit_is_monotone(lake, ray_session):
    from silk_ray.cdc.egress import commit_consumer, read_consumer

    run(lake, _changelog(), _cfg())
    commit_consumer(lake, "g", 10)
    with pytest.raises(ValueError, match="backwards"):
        commit_consumer(lake, "g", 3)
    commit_consumer(lake, "g", 10)  # re-commit at the same position is fine
    assert read_consumer(lake, "g")["seq"] == 10
    with pytest.raises(ValueError, match="invalid consumer group"):
        commit_consumer(lake, "../evil", 1)


def test_truncate_refuses_to_strand_lagging_consumer(lake, ray_session):
    """Retention is enforced against real committed positions: a file a
    registered group still needs cannot be truncated without force."""
    from silk_ray.cdc.egress import (
        commit_consumer,
        consume_egress,
        consumer_groups,
        consumer_lag,
    )

    log = _changelog()
    run(lake, log, _cfg())
    st = read_egressstate(lake)
    epochs = sorted(int(e) for e in st["files"])
    assert len(epochs) >= 2
    full = egress_table(lake)

    # a consumer committed partway through epoch 1's seqs
    batch = consume_egress(lake, "slow", max_rows=10)
    commit_consumer(lake, "slow", batch["seq"][-1].as_py())
    with pytest.raises(ValueError, match="slow"):
        truncate_egress(lake, epochs[0])
    # catch the group up past epoch 1, then the truncate goes through
    while True:
        b = consume_egress(lake, "slow", max_rows=500)
        if b.num_rows == 0:
            break
        commit_consumer(lake, "slow", b["seq"][-1].as_py())
    assert consumer_lag(lake)["slow"] == 0
    removed = truncate_egress(lake, epochs[0])
    assert removed > 0
    # the committed position survives truncation; nothing redelivers
    assert consume_egress(lake, "slow").num_rows == 0
    assert consumer_groups(lake)["slow"] == full["seq"][-1].as_py()


def test_truncate_force_strands_explicitly(lake, ray_session):
    from silk_ray.cdc.egress import commit_consumer, consume_egress

    run(lake, _changelog(), _cfg())
    st = read_egressstate(lake)
    epochs = sorted(int(e) for e in st["files"])
    b = consume_egress(lake, "doomed", max_rows=5)
    commit_consumer(lake, "doomed", b["seq"][-1].as_py())
    removed = truncate_egress(lake, epochs[0], force=True)
    assert removed > 0


def test_shard_ids_match_per_row_md5():
    """The vectorised shard ids equal md5-lower-64 of ``repo\\x1fpath``
    per row, over duplicate, unicode and empty keys and a chunked
    column."""
    from silk_ray.cdc.egress import _shard_ids
    from silk_ray.kernel.index import md5_lower64

    repo = ["r1", "r1", "r2", "", "", "ré/pö", "日本", "r1", "a\x1fb", ""]
    path = ["a.py", "a.py", "a.py", "", "x", "ü.md", "語/ファイル", "b", "c", "\x1f"]
    t = pa.Table.from_batches([
        pa.record_batch({"repo": repo[:4], "path": path[:4]}),
        pa.record_batch({"repo": repo[4:], "path": path[4:]}),
    ])
    for ns in (1, 7, 16):
        want = [md5_lower64(f"{r}\x1f{p}") % ns for r, p in zip(repo, path)]
        got = _shard_ids(t, ns)
        assert got.dtype.kind == "i" and got.tolist() == want
    assert _shard_ids(t.slice(0, 0), 16).tolist() == []


def test_egress_files_hold_pointers_not_images(lake, ray_session):
    """An egress file holds the pointer columns only and no schema
    metadata of its own; the state keeps each epoch's payload schema
    once, and the images resolve from the lake."""
    import base64

    import pyarrow.parquet as pq

    from silk_ray.cdc import egress

    run(lake, _changelog(seed=55), _cfg())
    st = read_egressstate(lake)
    rels = egress._live_rels(st)
    assert rels
    for rel in rels:
        schema = pq.read_schema(os.path.join(lake, rel))
        assert schema.names == ["seq", "epoch", "op", "repo", "path", "prev_epoch"]
        assert schema.metadata is None
    assert len(st["images"]) == 1 and set(st["epochs"]) == set(st["files"])
    images = pa.ipc.read_schema(pa.py_buffer(base64.b64decode(*st["images"].values())))
    assert {"commit", "content"} <= set(images.names)
    stream = egress_table(lake)
    ops = set(stream["op"].to_pylist())
    assert ops == {"I", "U", "D"}
    for r in stream.to_pylist():
        assert (r["new_content"] is None) == (r["op"] == "D")
        assert (r["old_content"] is None) == (r["op"] == "I")
    # the streaming reader resolves the same rows, one task per file
    blocks = egress.egress_dataset(lake).iter_batches(batch_format="pyarrow", batch_size=None)
    streamed = pa.concat_tables(list(blocks), promote_options="default")
    assert streamed.select(stream.column_names).sort_by("seq").equals(stream)


def test_egress_alone_reads_no_old_payload(lake, ray_session, monkeypatch):
    """Egress derives its change set with the pre-epoch chain read
    projected to the key and internal columns: it needs only the old
    rows' offsets."""
    from silk_ray.cdc import merge

    log = _changelog(seed=61)
    run(lake, log, _cfg(max_epochs=2))
    run(lake, log, _cfg(egress=False, max_epochs=1))
    real, requested = merge._read_files, []

    def spy(root, files, kh_filter=None, columns=None):
        requested.append(columns)
        return real(root, files, kh_filter, columns)

    monkeypatch.setattr(merge, "_read_files", spy)
    merge._CHANGES.clear()
    assert update_egress(lake, 3, num_shards=8)["rows"] > 0
    assert requested and all(
        set(c) == {"repo", "path", "_offset", "_deleted", "_kh"} for c in requested)


def test_truncate_refusal_leaves_the_stream_readable(lake, ray_session):
    """A truncate refused on a later epoch changes nothing: the files of
    the earlier epochs it checked first stay, and the state still names
    only files on disk."""
    from silk_ray.cdc.egress import _file_seq_range, _live_rels, commit_consumer

    run(lake, _changelog(seed=57), _cfg())
    st = read_egressstate(lake)
    epochs = sorted(int(e) for e in st["files"])
    assert len(epochs) >= 2
    before = egress_table(lake)
    last = max(_file_seq_range(os.path.join(lake, r))[1] for r in st["files"][str(epochs[0])])
    commit_consumer(lake, "g", last)
    with pytest.raises(ValueError, match="'g'"):
        truncate_egress(lake, epochs[1])
    assert read_egressstate(lake) == st
    assert all(os.path.exists(os.path.join(lake, r)) for r in _live_rels(st))
    assert egress_table(lake).equals(before)


def test_truncate_crash_after_commit_leaves_only_garbage(lake, ray_session, monkeypatch):
    """A crash between the truncate's state commit and its deletes
    leaves the dropped files unreferenced: the stream reads as a
    finished truncate's, and the engine's GC sweeps them."""
    from silk_ray.cdc import egress

    log = _changelog(seed=59)
    run(lake, log, _cfg())
    st = read_egressstate(lake)
    epochs = sorted(int(e) for e in st["files"])
    full = egress_table(lake)
    real = egress.commit_egressstate

    def commit_then_crash(root, state):
        real(root, state)
        raise RuntimeError("crash after the commit")

    monkeypatch.setattr(egress, "commit_egressstate", commit_then_crash)
    with pytest.raises(RuntimeError, match="crash"):
        truncate_egress(lake, epochs[0])
    monkeypatch.setattr(egress, "commit_egressstate", real)
    dropped = [os.path.join(lake, r) for r in st["files"][str(epochs[0])]]
    assert all(os.path.exists(p) for p in dropped)
    assert str(epochs[0]) not in read_egressstate(lake)["files"]
    kept = full.filter(pa.compute.greater(full["epoch"], epochs[0]))
    assert egress_table(lake).equals(kept)
    assert run(lake, log, _cfg(max_epochs=0)) == []  # catch-up, then GC
    assert not any(os.path.exists(p) for p in dropped)
    assert egress_table(lake).equals(kept)
    assert os.path.isdir(os.path.join(lake, "egress"))


def test_image_copy_stream_is_refused(lake, ray_session):
    """A stream committed as image copies (a state without ``layouts``)
    is refused by the writer, the readers and the lake GC's reference
    set alike, with the way out."""
    from silk_ray.cdc import checkpoint as ckpt

    log = _changelog(seed=63)
    run(lake, log, _cfg(egress=False, max_epochs=1))
    ckpt.atomic_write_json(os.path.join(lake, "_egressstate.json"),
                           {"epoch": 0, "next_seq": 0, "files": {}, "num_shards": 8})
    for call in (lambda: update_egress(lake, 1, num_shards=8), lambda: egress_table(lake),
                 lambda: ckpt.LAKE.gc(lake)):
        with pytest.raises(RuntimeError, match="egress_resync"):
            call()


def test_dataset_built_before_a_truncate_reads_after_gc(lake, ray_session, monkeypatch):
    """An egress Dataset resolves its pointers through the state its
    tasks read, not the one it was built from: built before a truncate
    that re-anchors the stream's epoch E, and run once E's delta files
    have left the lake's retention (the GC deleted those that the
    anchored chain does not hold), it reads the rows it was built over."""
    from silk_ray.cdc import chain, egress
    from silk_ray.cdc import checkpoint as ckpt

    monkeypatch.setattr(chain, "COMPACT_AT", 2)  # E compacts the chains it touches
    log = _changelog(seed=65, n_events=1200)
    run(lake, log, _cfg(max_epochs=3))
    e = int(read_egressstate(lake)["epoch"])
    want = egress_table(lake, from_epoch=e)
    ds = egress.egress_dataset(lake, from_epoch=e)
    truncate_egress(lake, e - 1)
    deltas = [ckpt.partition_file("", p, e) for p in range(4)]
    dropped = [f for f in deltas if os.path.exists(os.path.join(lake, f))]
    run(lake, log, _cfg(max_epochs=3))  # retain_epochs + 1 epochs, each with GC
    assert ckpt.read_manifest(lake).epoch == e + 3
    assert any(not os.path.exists(os.path.join(lake, f)) for f in dropped)
    got = pa.concat_tables(list(ds.iter_batches(batch_format="pyarrow", batch_size=None)),
                           promote_options="default")
    assert got.select(want.column_names).sort_by("seq").equals(want)
