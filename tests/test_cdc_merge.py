"""CDC merge-apply: correctness vs the sequential oracle, idempotence,
exactly-once replay/resume, schema evolution (FIXTURES.md F5)."""

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from silk_ray.cdc import checkpoint as ckpt
from silk_ray.cdc.generator import make_base_table, make_changelog, sequential_apply
from silk_ray.cdc.merge import (
    run_epoch,
    run_to_completion,
    state_sha256,
    state_table,
)


@pytest.fixture(scope="module")
def changelog():
    base = make_base_table(150, seed=21)
    return make_changelog(base, 1200, seed=22, dup_frac=0.05)


def _oracle_state(changelog: pa.Table) -> list[dict]:
    state = sequential_apply(changelog)
    return [state[k] for k in sorted(state.keys())]


def _engine_state(root) -> list[dict]:
    rows = state_table(root).to_pylist()
    return rows


def _strip(rows, keys=("repo", "path", "commit", "lang", "content", "branch")):
    return [{k: r.get(k) for k in keys} for r in rows]


def test_merge_apply_matches_sequential_oracle(ray_session, changelog, tmp_path):
    root = str(tmp_path / "lake")
    metrics = run_to_completion(root, changelog, epoch_size=400, num_partitions=8)
    assert len(metrics) >= 3  # several epochs
    got = _strip(_engine_state(root))
    expected = _strip(_oracle_state(changelog))
    assert got == expected
    # duplicates were skipped, not applied twice
    assert sum(m["dup_skipped"] + m["below_hwm"] for m in metrics) > 0


def test_replay_from_scratch_is_byte_identical(ray_session, changelog, tmp_path):
    r1, r2 = str(tmp_path / "lake1"), str(tmp_path / "lake2")
    run_to_completion(r1, changelog, epoch_size=400, num_partitions=8)
    run_to_completion(r2, changelog, epoch_size=250, num_partitions=8)  # different epoching
    assert state_sha256(r1) == state_sha256(r2)


def test_resume_from_checkpoint(ray_session, changelog, tmp_path):
    """Kill-and-resume: apply half the epochs, 'crash', resume — final
    state must equal the straight-through run (north_rule)."""
    full_root = str(tmp_path / "full")
    run_to_completion(full_root, changelog, epoch_size=300, num_partitions=8)

    resumed_root = str(tmp_path / "resumed")
    run_epoch(resumed_root, changelog, epoch_size=300, num_partitions=8)
    run_epoch(resumed_root, changelog, epoch_size=300, num_partitions=8)
    # crash here; resume picks up from the committed manifest
    run_to_completion(resumed_root, changelog, epoch_size=300, num_partitions=8)
    assert state_sha256(resumed_root) == state_sha256(full_root)


def test_conflicting_duplicate_offsets_resolve_deterministically(
    ray_session, tmp_path
):
    """A producer bug — two rows with the SAME offset but different
    payloads — must resolve identically under ANY row order and epoch
    shape (the survivor is the fingerprint-min row), or replay under a
    different fragment order breaks byte-identical convergence.
    Verbatim duplicates (normal redelivery) are unaffected."""
    import itertools

    rows = [
        (0, "I", "r", "x", "base"),
        (1, "U", "r", "x", "A"),
        (1, "U", "r", "x", "B"),  # conflicting twin of offset 1
        (2, "U", "r", "y", "z"),
    ]

    def tbl(order):
        sel = [rows[i] for i in order]
        return pa.table(
            {
                "offset": pa.array([r[0] for r in sel], pa.int64()),
                "op": pa.array([r[1] for r in sel], pa.string()),
                "repo": pa.array([r[2] for r in sel], pa.string()),
                "path": pa.array([r[3] for r in sel], pa.string()),
                "content": pa.array([r[4] for r in sel], pa.string()),
            }
        )

    shas = set()
    i = 0
    for perm in itertools.permutations(range(4)):
        for ep in (2, 4):
            root = str(tmp_path / f"l{i}")
            i += 1
            run_to_completion(root, tbl(perm), epoch_size=ep, num_partitions=2)
            shas.add(state_sha256(root))
    assert len(shas) == 1
    got = {r["path"]: r["content"] for r in state_table(root).to_pylist()}
    assert got["x"] == "A"  # fingerprint-min, pinned


# conflicting duplicates across several columns: lang null vs a value
# (offset 2), content and op (offset 3), a verbatim twin (offset 5),
# and twins with different keys (offset 6)
CONFLICTS = [
    (0, "I", "r", "a", "a0", "py"),
    (1, "I", "r", "b", "b0", "go"),
    (2, "U", "r", "a", "a1", "py"),
    (2, "U", "r", "a", "a1", None),
    (3, "U", "r", "b", "zz", "go"),
    (3, "U", "r", "b", "b1", "go"),
    (3, "D", "r", "b", None, None),
    (4, "I", "r", "c", "c0", "py"),
    (5, "U", "r", "c", "c1", "rs"),
    (5, "U", "r", "c", "c1", "rs"),
    (6, "I", "r", "d", "d0", "py"),
    (6, "I", "r", "e", "e0", "py"),
    (7, "U", "q", "a", "qa", "py"),
]


def test_conflicting_duplicates_keep_their_survivors(ray_session, tmp_path):
    """The survivors of conflicting duplicate offsets, pinned as the
    merge chose them before it ran its steps on key and meta columns
    (the fingerprint still covers every event column), under shuffled
    row orders, epoch sizes and partition counts."""
    import random

    rng = random.Random(5)
    for i in range(6):
        rows = CONFLICTS[:]
        rng.shuffle(rows)
        cols = list(zip(*rows))
        log = pa.table({
            "offset": pa.array(cols[0], pa.int64()),
            **{name: pa.array(c, pa.string())
               for name, c in zip(("op", "repo", "path", "content", "lang"), cols[1:])},
        })
        root = str(tmp_path / f"l{i}")
        run_to_completion(root, log, epoch_size=(3, 8)[i % 2], num_partitions=(2, 3)[i % 2])
        t = state_table(root)
        assert list(zip(*(t[c].to_pylist() for c in ("repo", "path", "content", "lang")))) == [
            ("q", "a", "qa", "py"), ("r", "a", "a1", None), ("r", "c", "c1", "rs"),
            ("r", "e", "e0", "py"),
        ], i


def _partition_bytes(root):
    return {os.path.relpath(f, root): open(f, "rb").read()
            for d, _s, fs in os.walk(os.path.join(root, "partitions"))
            for f in (os.path.join(d, n) for n in fs)}


def test_change_set_readers_leave_lake_bytes_unchanged(ray_session, changelog, tmp_path,
                                                       monkeypatch):
    """With a reader of the change set (egress) the merge reads the
    pre-epoch payload; without one it reads keys only. Both write the
    same lake delta and compact files, byte for byte."""
    from silk_ray.cdc import chain
    from silk_ray.cdc.engine import EngineConfig, run

    monkeypatch.setattr(chain, "COMPACT_AT", 3)
    roots = {egress: str(tmp_path / f"egress-{egress}") for egress in (False, True)}
    for egress, root in roots.items():
        ms = run(root, changelog, EngineConfig(epoch_size=200, num_partitions=3,
                                               egress=egress, gc=False))
        assert len(ms) == 6 and ("egress" in ms[-1]) == egress
    files = _partition_bytes(roots[False])
    assert any("compact-" in f for f in files)
    assert files == _partition_bytes(roots[True])


def test_pre_epoch_read_skips_payload_without_a_reader(ray_session, changelog, tmp_path,
                                                       monkeypatch):
    """The merge's pre-epoch chain read asks for the key and internal
    columns only when no change table is handed off, and for every
    column when one is; the delta files are the same bytes."""
    import shutil

    import pyarrow.compute as pc

    from silk_ray.cdc import merge

    root = str(tmp_path / "lake")
    run_epoch(root, changelog, epoch_size=400, num_partitions=2)
    m = ckpt.read_manifest(root)
    window = changelog.filter(pc.and_(pc.greater_equal(changelog["offset"], m.next_offset),
                                      pc.less(changelog["offset"], m.next_offset + 400)))
    groups = merge._split_by_pid(window, 2)
    real, requested = merge._read_files, []

    def spy(root, files, kh_filter=None, columns=None):
        requested.append(columns)
        return real(root, files, kh_filter, columns)

    monkeypatch.setattr(merge, "_read_files", spy)
    deltas = {}
    for hand_off in (False, True):
        r = str(tmp_path / f"hand_off-{hand_off}")
        shutil.copytree(root, r)
        merger = merge.MergePartition(
            r, 2, {p: i["hwm"] for p, i in m.partitions.items()},
            {p: i["files"] for p, i in m.partitions.items()},
            {p: i["rows"] for p, i in m.partitions.items()},
            compact=frozenset(), hand_off=hand_off,
        )
        del requested[:]
        outs = [merger(g) for g in groups.values()]
        assert len(requested) == len(groups) == 2
        if hand_off:
            assert requested == [None, None]
            assert any(pc.any(pc.is_valid(o["changes"]["old_content"])).as_py() for o in outs)
        else:
            assert all(set(c) == {"repo", "path", "_offset", "_deleted", "_kh"}
                       for c in requested)
            assert all(o["changes"] is None for o in outs)
        deltas[hand_off] = {f: b for f, b in _partition_bytes(r).items() if "epoch-000002" in f}
    assert len(deltas[False]) == 2 and deltas[False] == deltas[True]


def test_link_index_reads_no_pre_epoch_payload(ray_session, changelog, tmp_path, monkeypatch):
    """With the link index as the only reader of the change set, a merge
    task's pre-epoch chain read asks for the key and internal columns
    only, and its link-index stage evaluates the rule once per change
    row with a new payload (never over an old payload); the engine's
    epoch record counts no payload read, and counts every touched
    partition's once egress takes the change set too."""
    import json

    import pyarrow.compute as pc

    from silk_ray.cdc import merge
    from silk_ray.cdc.engine import EngineConfig, run
    from silk_ray.kernel.rule import LinkageRule
    from silk_ray.pipelines.rules import BENCH_RULE

    rule = {k: v for k, v in BENCH_RULE.items() if k != "filter_limit"}
    root = str(tmp_path / "lake")
    run_epoch(root, changelog, epoch_size=400, num_partitions=2)
    m = ckpt.read_manifest(root)
    window = changelog.filter(pc.and_(pc.greater_equal(changelog["offset"], m.next_offset),
                                      pc.less(changelog["offset"], m.next_offset + 400)))
    real, requested = merge._read_files, []

    def spy(root, files, kh_filter=None, columns=None):
        requested.append(columns)
        return real(root, files, kh_filter, columns)

    calls = {"index_keys": 0, "index_keys_and_values": 0}
    for name in calls:
        def counting(self, *a, _name=name, _real=getattr(LinkageRule, name), **kw):
            calls[_name] += 1
            return _real(self, *a, **kw)

        monkeypatch.setattr(LinkageRule, name, counting)
    monkeypatch.setattr(merge, "_read_files", spy)
    merger = merge.MergePartition(
        root, 2, {p: i["hwm"] for p, i in m.partitions.items()},
        {p: i["files"] for p, i in m.partitions.items()},
        {p: i["rows"] for p, i in m.partitions.items()},
        link_spec=rule, n_block_partitions=4, compact=frozenset(), hand_off=False,
    )
    outs = [merger(g) for g in merge._split_by_pid(window, 2).values()]
    assert len(requested) == 2 and all(
        set(c) == {"repo", "path", "_offset", "_deleted", "_kh"} for c in requested)
    assert not any(o["payload_read"] for o in outs)
    deltas = [pq.read_table(os.path.join(root, o["files"][-1])) for o in outs]
    changed = sum(d.num_rows for d in deltas)
    upserts = sum(int(pc.sum(pc.invert(d["_deleted"])).as_py()) for d in deltas)
    assert changed > upserts > 0  # updates, inserts and deletes
    assert calls == {"index_keys": 0, "index_keys_and_values": upserts}

    for egress in (False, True):
        r = str(tmp_path / f"engine-{egress}")
        run(r, changelog, EngineConfig(epoch_size=400, num_partitions=2, n_block_partitions=4,
                                       rule_spec=rule, egress=egress))
        for e in (2, 3):
            with open(ckpt.metrics_path(r, e)) as f:
                record = json.load(f)
            assert record["payload_reads"] == (record["partitions_touched"] if egress else 0)


def test_crash_between_merge_work_and_manifest_swap(
    ray_session, changelog, tmp_path, monkeypatch
):
    """Kill the epoch at the worst moment: every delta/dirty/DLQ shard
    is on disk but the manifest swap (the SOLE commit point) never
    ran. The lake must still read at the old state, and a plain rerun
    must converge to the straight-through run byte-for-byte."""
    from silk_ray.cdc import checkpoint as ckpt_mod
    from silk_ray.cdc import merge as merge_mod

    straight = str(tmp_path / "straight")
    run_to_completion(straight, changelog, epoch_size=400, num_partitions=8)

    root = str(tmp_path / "crashy")
    run_epoch(root, changelog, epoch_size=400, num_partitions=8)
    sha_committed = state_sha256(root)

    real_commit = ckpt_mod.commit_manifest
    calls = {"n": 0}

    def exploding_commit(*a, **kw):
        calls["n"] += 1
        raise RuntimeError("injected crash before the manifest swap")

    monkeypatch.setattr(merge_mod.ckpt, "commit_manifest", exploding_commit)
    with pytest.raises(RuntimeError, match="injected crash"):
        run_epoch(root, changelog, epoch_size=400, num_partitions=8)
    assert calls["n"] == 1
    # uncommitted shards are invisible: the lake reads at the old state
    assert state_sha256(root) == sha_committed
    monkeypatch.setattr(merge_mod.ckpt, "commit_manifest", real_commit)
    run_to_completion(root, changelog, epoch_size=400, num_partitions=8)
    assert state_sha256(root) == state_sha256(straight)


def test_epoch_replay_idempotent(ray_session, changelog, tmp_path):
    """Replaying an already-committed window is a no-op (per-partition
    HWM skips everything)."""
    root = str(tmp_path / "lake")
    m1 = run_epoch(root, changelog, epoch_size=400, num_partitions=8)
    sha_after_1 = state_sha256(root)
    # simulate redelivery: feed the same first window again
    import pyarrow.compute as pc

    first_window = changelog.filter(pc.less(changelog["offset"], 400))
    m_replay = run_epoch(root, first_window, epoch_size=400, num_partitions=8)
    # all events below HWM → applied 0, state unchanged
    if m_replay is not None:
        assert m_replay["events_applied"] == 0
    assert state_sha256(root) == sha_after_1


def test_manifest_and_offset_log(ray_session, changelog, tmp_path):
    root = str(tmp_path / "lake")
    run_to_completion(root, changelog, epoch_size=500, num_partitions=8)
    manifest = ckpt.read_manifest(root)
    assert manifest.epoch >= 2
    assert manifest.next_offset == 1200  # dense offsets 0..1199
    log_dir = os.path.join(root, "_checkpoints")
    assert len(os.listdir(log_dir)) == manifest.epoch
    metrics = ckpt.read_metrics(root)
    assert len(metrics) == manifest.epoch
    assert all("skew_ratio" in m for m in metrics)


def test_lsm_chain_compacts_and_stays_correct(ray_session, changelog, tmp_path, monkeypatch):
    """Many small epochs: delta chains stay bounded by COMPACT_AT and the
    reconciled state still matches the sequential oracle."""
    from silk_ray.cdc import chain

    monkeypatch.setattr(chain, "COMPACT_AT", 4)
    root = str(tmp_path / "lake")
    metrics = run_to_completion(root, changelog, epoch_size=100, num_partitions=2)
    assert len(metrics) == 12
    manifest = ckpt.read_manifest(root)
    assert manifest.partitions
    for _pid, info in manifest.partitions.items():
        assert 1 <= len(info["files"]) <= 4  # at most COMPACT_AT files
    assert any(
        any("compact-" in f for f in info["files"])
        for info in manifest.partitions.values()
    )
    assert _strip(_engine_state(root)) == _strip(_oracle_state(changelog))
    # live-row tracking matches the actual reconciled state
    assert metrics[-1]["rows_total"] == state_table(root).num_rows


def test_schema_evolution(ray_session, tmp_path):
    """Events switch to an evolved schema mid-stream: added `branch`
    column, `language` renamed to `lang` through a transform-rule-style
    mapping (north_rule schema-evolution clause)."""
    base = make_base_table(80, seed=31)
    log = make_changelog(base, 600, seed=32, dup_frac=0.0, evolve_at=300)
    # rename the lang column to `language` in the evolved half to force a
    # renamed-column mapping at apply time
    import pyarrow.compute as pc

    pre = log.filter(pc.less(log["offset"], 300))
    post = log.filter(pc.greater_equal(log["offset"], 300))
    post = post.rename_columns(
        ["offset", "op", "repo", "path", "commit", "language", "content", "branch"]
    )

    root = str(tmp_path / "lake")
    run_to_completion(root, pre, epoch_size=200, num_partitions=4)
    run_to_completion(
        root, post, epoch_size=200, num_partitions=4, renames={"language": "lang"}
    )

    got = state_table(root)
    assert "branch" in got.column_names
    assert "lang" in got.column_names
    assert "language" not in got.column_names
    expected = _strip(_oracle_state(log))
    assert _strip(got.to_pylist()) == expected
    # rows updated after the evolution point carry a branch
    post_rows = [r for r in got.to_pylist() if r["branch"] is not None]
    assert post_rows


def test_lag_offsets_metric_drains_to_zero(ray_session, tmp_path):
    """Tailing-lag gauge: offsets still unconsumed after each commit —
    strictly decreasing across epochs and exactly 0 once caught up,
    for both in-memory and on-disk (footer-stats) changelogs."""
    from silk_ray.cdc.generator import write_changelog_segments
    from silk_ray.cdc.merge import run_to_completion

    base = make_base_table(30, seed=11)
    log = make_changelog(base, 100, seed=12, dup_frac=0.0)

    ms = run_to_completion(str(tmp_path / "mem"), log, epoch_size=40, num_partitions=2)
    lags = [m["lag_offsets"] for m in ms]
    assert lags == sorted(lags, reverse=True) and lags[-1] == 0 and lags[0] > 0

    seg_dir = str(tmp_path / "segments")
    write_changelog_segments(log, seg_dir, segment_size=30)
    ms2 = run_to_completion(str(tmp_path / "disk"), seg_dir, epoch_size=40, num_partitions=2)
    assert [m["lag_offsets"] for m in ms2] == lags


def test_row_fingerprint_null_vs_literal_nul_injective():
    """ADVICE r3: the null marker must live outside the value alphabet.
    A null and a literal "\\x00" string previously both encoded as
    "1:\\x00", so a conflicting-duplicate pair differing only in that
    column tied and fell back to row order — the exact nondeterminism
    the fingerprint exists to remove."""
    from silk_ray.cdc.merge import _row_fingerprint

    t = pa.table({
        "c": pa.array([None, "\x00", "", None], pa.string()),
        "d": ["z", "z", "z", "z"],
    })
    fp = _row_fingerprint(t).to_pylist()
    assert len(set(fp)) == 4 - 1  # rows 0 and 3 identical, others distinct
    assert fp[0] == fp[3] and fp[0] != fp[1] and fp[1] != fp[2] and fp[0] != fp[2]
    # conflicting twins differing only null-vs-"\x00" now resolve by
    # fingerprint, identically under either row order
    t_fwd = pa.table({"offset": [5, 5], "op": ["U", "U"],
                      "repo": ["r", "r"], "path": ["p", "p"],
                      "v": pa.array(["\x00", None], pa.string())})
    t_rev = t_fwd.take([1, 0])
    a = _row_fingerprint(t_fwd).to_pylist()
    b = _row_fingerprint(t_rev).to_pylist()
    assert sorted(a) == sorted(b) and a[0] != a[1]


def test_crc_keys_dictionary_path_matches_per_row():
    """The dictionary-encoded fast path of _crc_keys (hash each
    DISTINCT key once, numpy-take per row) must pin the exact
    per-row zlib.crc32 semantics — `_kh` is persisted lake layout."""
    import zlib

    import numpy as np

    from silk_ray.cdc.merge import _crc_keys, add_pid_column

    keys = [f"repo{i % 7}\x00path{i % 13}".encode() for i in range(200)] + [b""]
    ref = np.array([zlib.crc32(k) for k in keys], np.int64)
    assert (_crc_keys(pa.array(keys, pa.binary())) == ref).all()
    assert (_crc_keys(keys) == ref).all()  # list path unchanged
    chunked = pa.chunked_array([keys[:50], keys[50:]], pa.binary())
    assert (_crc_keys(chunked) == ref).all()
    assert len(_crc_keys(pa.array([], pa.binary()))) == 0
    t = pa.table({"repo": ["a", "b", "a"], "path": ["x", "y", "x"], "offset": [1, 2, 3]})
    out = add_pid_column(16)(t)
    exp = np.array([zlib.crc32(b"a\x00x"), zlib.crc32(b"b\x00y"), zlib.crc32(b"a\x00x")],
                   np.int64)
    assert out["_kh"].to_pylist() == exp.tolist()
    assert out["pid"].to_pylist() == (exp % 16).tolist()


def test_crc_keys_null_key_raises_loudly():
    """A null key must raise a descriptive TypeError, not fancy-index
    garbage out of the dictionary (ADVICE r4: a null dictionary index
    became NaN -> INT64_MIN under to_numpy)."""
    import pytest as _pytest

    from silk_ray.cdc.merge import _crc_keys

    arr = pa.array([b"ok", None, b"also"], pa.binary())
    with _pytest.raises(TypeError, match="null key"):
        _crc_keys(arr)
