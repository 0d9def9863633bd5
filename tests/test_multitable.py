"""Multi-table binlog demux (cdc/demux.py): one shared changelog with a
``tbl`` column routes into per-table changelog directories (offsets
preserved, deterministic segment bytes), and each table's lake runs the
ordinary single-table engine — every exactly-once property composes per
table."""

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from silk_ray.cdc.demux import (
    demux_to_completion,
    demux_window,
    demuxed_tables,
    read_demux_state,
    run_multi,
    table_dir,
)
from silk_ray.cdc.engine import EngineConfig
from silk_ray.cdc.generator import (
    assign_txns,
    interleave_changelogs as interleave,
    make_base_table,
    make_changelog,
    sequential_apply,
)
from silk_ray.cdc.merge import state_table

KEYS = ("repo", "path", "commit", "lang", "content", "branch")


@pytest.fixture(scope="module")
def streams():
    a = make_changelog(make_base_table(50, seed=71), 500, seed=72, dup_frac=0.05)
    b = make_changelog(
        make_base_table(30, seed=73), 350, seed=74, dup_frac=0.0, evolve_at=150
    )
    return {"code": a, "docs": b}


def _strip(rows):
    return [{k: r.get(k) for k in KEYS} for r in rows]


def _oracle(log):
    st = sequential_apply(log)
    return _strip([st[k] for k in sorted(st)])


def test_demux_routes_and_engines_converge(ray_session, streams, tmp_path):
    combined = interleave(streams, seed=9)
    root = str(tmp_path / "multi")
    cfgs = {n: EngineConfig(epoch_size=120, num_partitions=4) for n in streams}
    run_multi(root, combined, cfgs, demux_epoch=300)
    for n, log in streams.items():
        got = state_table(os.path.join(root, "lakes", n)).to_pylist()
        assert _strip(got) == _oracle(log), n
        assert "tbl" not in state_table(os.path.join(root, "lakes", n)).column_names
    assert demuxed_tables(os.path.join(root, "demux")) == sorted(streams)


def test_demux_crash_resume_rewrites_identical_segments(ray_session, streams, tmp_path):
    combined = interleave(streams, seed=9)
    out = str(tmp_path / "demux")
    demux_window(out, combined, epoch_size=250)
    demux_window(out, combined, epoch_size=250)
    seg_bytes = {}
    for n in demuxed_tables(out):
        for f in sorted(os.listdir(table_dir(out, n))):
            seg_bytes[(n, f)] = open(os.path.join(table_dir(out, n), f), "rb").read()
    # crash between segment writes and the cursor commit: rewind the
    # cursor one window and rerun — segments must rewrite byte-identical
    st = read_demux_state(out)
    import json

    with open(os.path.join(out, "_demux.json"), "w") as f:
        json.dump({"window": st["window"] - 1, "next_offset": st["next_offset"] - 250}, f)
    demux_window(out, combined, epoch_size=250)
    for (n, f), blob in seg_bytes.items():
        assert open(os.path.join(table_dir(out, n), f), "rb").read() == blob, (n, f)
    # finish and converge
    demux_to_completion(out, combined, epoch_size=250)
    from silk_ray.cdc.engine import run

    for n, log in streams.items():
        lake = str(tmp_path / f"lake_{n}")
        run(lake, table_dir(out, n), EngineConfig(epoch_size=200, num_partitions=3))
        assert _strip(state_table(lake).to_pylist()) == _oracle(log), n


def test_unroutable_tbl_quarantines(ray_session, streams, tmp_path):
    combined = interleave(streams, seed=9).to_pylist()
    combined[3]["tbl"] = None
    combined[10]["tbl"] = ""
    combined[20]["tbl"] = "../evil"
    log = pa.Table.from_pylist(combined)
    out = str(tmp_path / "demux")
    ms = demux_to_completion(out, log, epoch_size=400)
    assert sum(m["dead_lettered"] for m in ms) == 3
    dl_dir = os.path.join(out, "deadletter")
    dead = pa.concat_tables(
        [pq.read_table(os.path.join(dl_dir, f)) for f in sorted(os.listdir(dl_dir))]
    )
    assert sorted(dead["reason"].to_pylist()) == [
        "invalid_tbl", "missing_tbl", "missing_tbl",
    ]
    routed = sum(
        pq.read_table(os.path.join(table_dir(out, n), f)).num_rows
        for n in demuxed_tables(out)
        for f in os.listdir(table_dir(out, n))
    )
    assert routed == log.num_rows - 3


def test_txn_atomicity_composes_per_table(ray_session, streams, tmp_path):
    """Transactions assigned over the GLOBAL stream: each table sees a
    contiguous sub-range, so per-table txn_atomic snapping works
    unchanged and the lakes still converge to their oracles."""
    combined = assign_txns(interleave(streams, seed=9), seed=10, mean_size=7)
    root = str(tmp_path / "multi")
    cfgs = {
        n: EngineConfig(epoch_size=110, num_partitions=4, txn_atomic=True)
        for n in streams
    }
    run_multi(root, combined, cfgs, demux_epoch=280)
    for n, log in streams.items():
        got = state_table(os.path.join(root, "lakes", n)).to_pylist()
        assert _strip(got) == _oracle(log), n


def test_cli_cdc_multi_round_trip(ray_session, streams, tmp_path, capsys):
    import json

    from silk_ray.__main__ import main

    combined = interleave(streams, seed=9)
    log_path = str(tmp_path / "binlog.parquet")
    pq.write_table(combined, log_path)
    root = str(tmp_path / "multi")
    assert main([
        "cdc-multi", "--root", root, "--changelog", log_path,
        "--tables", "code,docs", "--epoch-size", "150",
        "--num-partitions", "4", "--demux-epoch", "300",
    ]) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["command"] == "cdc-multi"
    assert set(out["tables"]) == {"code", "docs"}
    assert all(t["events_applied"] > 0 for t in out["tables"].values())
    for n, log in streams.items():
        got = state_table(os.path.join(root, "lakes", n)).to_pylist()
        assert _strip(got) == _oracle(log), n
    # status CLI understands the multi-table layout: caught-up tables
    # show zero demux lag
    assert main(["status", "--root", root]) == 0
    st = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(st["tables"]) == {"code", "docs"}
    assert all(t["demux_lag_offsets"] == 0 for t in st["tables"].values())
    assert st["demux"]["window"] > 0


def test_multi_composes_with_egress_replicas_and_views(ray_session, streams, tmp_path):
    """The composition claim, end to end: a multiplexed txn-tagged
    binlog → demux → per-table lakes each running txn-atomic with a
    maintained aggregate view AND egress — then each table's egress
    stream rebuilds a byte-identical replica lake."""
    from silk_ray.cdc.egress import egress_as_changelog, egress_table
    from silk_ray.cdc.matview import AggViewSpec, agg_table
    from silk_ray.cdc.merge import run_to_completion, state_sha256

    combined = assign_txns(interleave(streams, seed=9), seed=12, mean_size=5)
    root = str(tmp_path / "multi")
    spec = AggViewSpec(group_by=("lang",), measures={}, count_col="n", num_shards=4)
    cfgs = {
        n: EngineConfig(
            epoch_size=130, num_partitions=4, txn_atomic=True,
            egress=True, egress_shards=4, agg_spec=spec,
        )
        for n in streams
    }
    run_multi(root, combined, cfgs, demux_epoch=320)
    for n, log in streams.items():
        lake = os.path.join(root, "lakes", n)
        assert _strip(state_table(lake).to_pylist()) == _oracle(log), n
        # maintained view == batch GROUP BY over the final state
        view = {r["lang"]: r["n"] for r in agg_table(lake).to_pylist()}
        langs = [r["lang"] for r in state_table(lake).to_pylist()]
        batch = {}
        for v in langs:
            batch[v] = batch.get(v, 0) + 1
        assert view == batch, n
        # egress replica: byte-identical to the producer lake
        replica = str(tmp_path / f"replica_{n}")
        run_to_completion(
            replica, egress_as_changelog(egress_table(lake)),
            epoch_size=90, num_partitions=3,
        )
        a, b = state_table(replica), state_table(lake)
        cols = sorted(a.column_names)
        assert sorted(b.column_names) == cols, n
        assert a.select(cols).equals(b.select(cols)), n


def test_gc_demux_reclaims_consumed_segments_only(ray_session, streams, tmp_path):
    from silk_ray.cdc.demux import gc_demux

    combined = interleave(streams, seed=9)
    root = str(tmp_path / "multi")
    # only `code` is consumed; `docs` has no lake and must be retained
    run_multi(root, combined, {"code": EngineConfig(epoch_size=200, num_partitions=4)},
              demux_epoch=250)
    d = os.path.join(root, "demux")
    docs_before = sorted(os.listdir(table_dir(d, "docs")))
    n = gc_demux(root)
    assert n > 0
    assert sorted(os.listdir(table_dir(d, "docs"))) == docs_before  # protected
    assert os.listdir(table_dir(d, "code")) == []  # fully consumed
    # idempotent; the lake still reads, and a redelivered tail is a no-op
    assert gc_demux(root) == 0
    assert _strip(state_table(os.path.join(root, "lakes", "code")).to_pylist()) == _oracle(
        streams["code"]
    )
    # force drops the unconsumed table's stream too
    assert gc_demux(root, tables=["docs"], force=True) > 0
    assert os.listdir(table_dir(d, "docs")) == []


def test_missing_tbl_column_fails_loudly(ray_session, streams, tmp_path):
    with pytest.raises(Exception, match="tbl"):
        demux_to_completion(str(tmp_path / "d"), streams["code"], epoch_size=400)


def test_demux_cut_never_tears_a_transaction(ray_session, streams, tmp_path):
    """The demux cut itself must be txn-aligned (ADVICE r3, high): a
    plain lo+epoch_size cut landing mid-transaction leaves a table's
    demuxed substream ending inside that transaction; the table's own
    boundary snap sees no continuation (the remainder is not demuxed
    yet) and durably commits a torn state. run_multi forces txn_snap
    when any config is txn_atomic — this test steps windows manually
    and checks the per-table atomicity invariant after EVERY committed
    catch-up, not just final convergence."""
    from silk_ray.cdc import checkpoint as ckpt
    from silk_ray.cdc.engine import run

    combined = assign_txns(
        interleave(streams, seed=9), seed=21, mean_size=9, untagged_frac=0.0
    )
    root = str(tmp_path / "multi")
    demux_dir = os.path.join(root, "demux")
    cfgs = {
        n: EngineConfig(epoch_size=70, num_partitions=3, txn_atomic=True)
        for n in streams
    }
    # per-table txn -> offset set, from the global stream
    per_tbl: dict[str, dict[int, set]] = {}
    for r in combined.to_pylist():
        if r["txn"] is not None:
            per_tbl.setdefault(r["tbl"], {}).setdefault(r["txn"], set()).add(r["offset"])
    max_off = max(combined["offset"].to_pylist())
    lo, snapped = 0, 0
    while True:
        w = demux_window(demux_dir, combined, 60, txn_snap=True)
        if w is None:
            break
        if w["next_offset"] != lo + 60 and w["next_offset"] <= max_off:
            snapped += 1  # the snap actually moved a cut
        lo = w["next_offset"]
        for n in streams:
            run(os.path.join(root, "lakes", n), table_dir(demux_dir, n), cfgs[n])
        # invariant: no table's committed cursor sits strictly inside
        # any transaction's per-table offset set
        for n in streams:
            cur = ckpt.read_manifest(os.path.join(root, "lakes", n)).next_offset
            for txn, offs in per_tbl.get(n, {}).items():
                below = any(o < cur for o in offs)
                above = any(o >= cur for o in offs)
                assert not (below and above), (
                    f"table {n} cursor {cur} tears txn {txn} (offsets {sorted(offs)})"
                )
    assert snapped > 0, "test never exercised a moved cut — tune sizes"
    for n, log in streams.items():
        got = state_table(os.path.join(root, "lakes", n)).to_pylist()
        assert _strip(got) == _oracle(log), n


def test_torn_demux_tmp_is_ignored_and_cleaned(ray_session, streams, tmp_path):
    """A demux writer crash mid-write leaves a torn tmp file (ADVICE
    r3): tmp names are now dot-prefixed so pyarrow dataset discovery
    (the consuming engine's fragment scan) skips them, legacy
    suffix-style tmp leftovers are swept at the table's next segment
    write, and gc_demux's footer reads skip both shapes."""
    combined = interleave(streams, seed=9)
    root = str(tmp_path / "multi")
    out = os.path.join(root, "demux")
    demux_window(out, combined, epoch_size=250)
    d = table_dir(out, "code")
    for torn in ("seg-000002.parquet.tmp-99999", ".tmp-99999-seg-000002"):
        with open(os.path.join(d, torn), "wb") as f:
            f.write(b"torn parquet bytes from a crashed writer")
    # subsequent windows neither crash nor pick the torn files up
    demux_to_completion(out, combined, epoch_size=250)
    assert not any(".tmp-" in f for f in os.listdir(d))
    # the engine consumes the stream and converges
    from silk_ray.cdc.engine import run

    lake = os.path.join(root, "lakes", "code")
    run(lake, d, EngineConfig(epoch_size=200, num_partitions=3))
    assert _strip(state_table(lake).to_pylist()) == _oracle(streams["code"])
    # a torn tmp in a table dir that never gets another write (docs has
    # no consumer here) must not crash gc_demux
    from silk_ray.cdc.demux import gc_demux

    d2 = table_dir(out, "docs")
    with open(os.path.join(d2, ".tmp-11111-seg-000009"), "wb") as f:
        f.write(b"torn")
    assert gc_demux(root) >= 0
    assert os.listdir(d) == []  # code fully consumed and reclaimed


def test_demux_routes_300_tables(ray_session, tmp_path):
    """Adversarial live-table count: 300 tables interleaved in one
    window, one writer task each, must route every row to its own
    table's segment."""
    n_tables, rows_per = 300, 3
    rows = []
    off = 0
    for i in range(n_tables):
        for j in range(rows_per):
            rows.append({
                "offset": off, "op": "U", "tbl": f"t{i:03d}",
                "repo": f"r{j}", "path": f"p{j}", "commit": f"c{off}",
            })
            off += 1
    # interleave tables in offset order so every fragment sees many tables
    rows.sort(key=lambda r: (r["offset"] * 7919) % 104729)
    for k, r in enumerate(rows):
        r["offset"] = k
    log = pa.Table.from_pylist(rows)
    out = str(tmp_path / "demux")
    ms = demux_to_completion(out, log, epoch_size=n_tables * rows_per)
    assert len(ms) == 1
    m = ms[0]
    assert len(m["rows"]) == n_tables
    assert all(v == rows_per for v in m["rows"].values())
    # spot-check routing: every row of t007 landed in t007's segment
    seg = pq.read_table(os.path.join(table_dir(out, "t007"), "seg-000001.parquet"))
    assert seg.num_rows == rows_per and "tbl" not in seg.column_names


@pytest.mark.parametrize("seed", [11, 24])
def test_demux_randomized_soak(ray_session, tmp_path, seed):
    """Randomized demux soak (round 4): 2-4 tables with random stream
    shapes multiplexed into one binlog — txn-tagged on odd seeds so the
    txn-aligned cut path runs — driven through a random demux epoch,
    then a demux-cursor rewind (crash replay) that must rewrite
    byte-identical segments and leave every lake sha unchanged."""
    import hashlib
    import json

    import numpy as np

    from silk_ray.cdc.generator import assign_txns
    from silk_ray.cdc.merge import state_sha256

    rng = np.random.default_rng(seed)
    n_tables = int(rng.integers(2, 5))
    streams = {}
    for i in range(n_tables):
        n_base = int(rng.integers(20, 60))
        n_events = int(rng.integers(150, 450))
        streams[f"t{i}"] = make_changelog(
            make_base_table(n_base, seed=seed * 10 + i),
            n_events,
            seed=seed * 10 + i + 1,
            dup_frac=float(rng.uniform(0, 0.1)),
            evolve_at=int(rng.integers(50, n_events)) if i % 2 else None,
        )
    combined = interleave(streams, seed=seed)
    txn = bool(seed % 2)
    if txn:
        combined = assign_txns(combined, seed=seed + 5, mean_size=int(rng.integers(3, 9)))
    root = str(tmp_path / "multi")
    cfgs = {
        n: EngineConfig(
            epoch_size=int(rng.integers(60, 160)), num_partitions=int(rng.integers(2, 6)),
            txn_atomic=txn,
        )
        for n in streams
    }
    demux_epoch = int(rng.integers(120, 400))
    out = os.path.join(root, "demux")
    windows = demux_to_completion(out, combined, demux_epoch, txn_snap=txn)
    assert windows
    from silk_ray.cdc.engine import run

    for n, cfg in cfgs.items():
        run(os.path.join(root, "lakes", n), table_dir(out, n), cfg)
    shas = {n: state_sha256(os.path.join(root, "lakes", n)) for n in streams}
    for n, log in streams.items():
        assert _strip(state_table(os.path.join(root, "lakes", n)).to_pylist()) == _oracle(log), n
    # crash replay of the LAST window: restore the cursor to that
    # window's actual start (txn snapping makes widths variable, so use
    # the recorded boundary, exactly what a crashed state file holds) —
    # segments rewrite byte-identically, redelivery is a lake no-op
    seg_bytes = {
        (n, f): open(os.path.join(table_dir(out, n), f), "rb").read()
        for n in demuxed_tables(out)
        for f in sorted(os.listdir(table_dir(out, n)))
    }
    last_lo = windows[-2]["next_offset"] if len(windows) > 1 else 0
    with open(os.path.join(out, "_demux.json"), "w") as f:
        json.dump({"window": windows[-1]["window"] - 1, "next_offset": last_lo}, f)
    demux_to_completion(out, combined, demux_epoch, txn_snap=txn)
    for n, cfg in cfgs.items():
        run(os.path.join(root, "lakes", n), table_dir(out, n), cfg)
    for (n, fname), blob in seg_bytes.items():
        p = os.path.join(table_dir(out, n), fname)
        assert hashlib.sha256(open(p, "rb").read()).hexdigest() == hashlib.sha256(blob).hexdigest(), (n, fname)
    for n in streams:
        assert state_sha256(os.path.join(root, "lakes", n)) == shas[n], n


def test_txn_dlq_demux_composition(ray_session, tmp_path):
    """Triple composition (round 4): a txn-tagged multiplexed binlog
    with malformed rows planted INSIDE transactions — demux (txn-snapped
    cuts) routes, each txn-atomic engine quarantines exactly the
    corrupted copies (a corrupted copy of a duplicate-offset pair
    leaves its valid twin applicable) and converges to the row-wise
    valid-stream oracle."""
    from silk_ray.cdc.generator import assign_txns
    from silk_ray.cdc.merge import dead_letters_table

    seed = 31
    a = make_changelog(make_base_table(40, seed=seed), 350, seed=seed + 1, dup_frac=0.05)
    b = make_changelog(make_base_table(30, seed=seed + 2), 250, seed=seed + 3)
    combined = assign_txns(
        interleave({"ta": a, "tb": b}, seed=9), seed=seed + 4, mean_size=6
    )
    rows = combined.to_pylist()
    corrupted_idx = set(range(0, len(rows), 29))
    for i in corrupted_idx:
        rows[i]["op"] = "X"
    log = pa.Table.from_pylist(rows)
    root = str(tmp_path / "multi")
    cfgs = {
        n: EngineConfig(epoch_size=90, num_partitions=3, txn_atomic=True)
        for n in ("ta", "tb")
    }
    run_multi(root, log, cfgs, demux_epoch=200)
    from silk_ray.cdc.generator import sequential_apply as _seq

    for n in ("ta", "tb"):
        valid = [r for i, r in enumerate(rows) if i not in corrupted_idx and r["tbl"] == n]
        valid.sort(key=lambda r: r["offset"])
        st = _seq(pa.Table.from_pylist(valid))
        want = [{k: st[key].get(k) for k in KEYS} for key in sorted(st)]
        got = _strip(state_table(os.path.join(root, "lakes", n)).to_pylist())
        assert got == want, n
        dl = dead_letters_table(os.path.join(root, "lakes", n))
        assert dl.num_rows == sum(1 for i in corrupted_idx if rows[i]["tbl"] == n), n
