"""Event-time tumbling windows with watermarks (cdc/windows.py).

Invariant: finalized windows and the late side output equal a
sequential single-threaded re-implementation of the micro-batch
watermark semantics (window finalizes at the first epoch whose
watermark reaches its end; later arrivals for that window are late),
through resume, replay and flush.
"""

import numpy as np
import pyarrow as pa
import pytest

from silk_ray.cdc.windows import (
    WindowSpec,
    flush_windows,
    late_table,
    read_winstate,
    run_window_stream,
    update_windows,
    windows_table,
)

_US = 1_000_000
WIDTH_S = 600  # 10-minute tumbling windows
SPEC = WindowSpec(
    ts_col="ts", width_s=WIDTH_S, allowed_lateness_s=120,
    group_by=("key",), count_col="n", sums={"sum_val": "val"},
)


@pytest.fixture()
def root(tmp_path):
    return str(tmp_path / "winstore")


def _stream(n=400, seed=7, late_frac=0.05, late_shift_s=3600) -> pa.Table:
    """Arrival-ordered stream: 30 s event cadence with ±60 s jitter and
    a seeded subset shifted far backwards in event time (late data)."""
    rng = np.random.default_rng(seed)
    base = 1_700_000_000 * _US
    ts = base + np.arange(n, dtype=np.int64) * 30 * _US
    ts = ts + rng.integers(-60, 60, n) * _US
    late_idx = rng.choice(n, size=int(n * late_frac), replace=False)
    ts[late_idx] -= late_shift_s * _US
    return pa.table(
        {
            "offset": pa.array(np.arange(n, dtype=np.int64), pa.int64()),
            "ts": pa.array(ts, pa.int64()).cast(pa.timestamp("us")),
            "key": pa.array([f"k{int(x)}" for x in rng.integers(0, 3, n)], pa.string()),
            "val": pa.array(rng.integers(0, 100, n).astype(np.float64), pa.float64()),
        }
    )


def _brute(stream: pa.Table, spec: WindowSpec, epoch_size: int):
    """Sequential oracle: same semantics, no Ray, no shared code paths."""
    rows = stream.to_pylist()
    for r in rows:
        r["ts_us"] = int(r["ts"].timestamp() * _US) if hasattr(r["ts"], "timestamp") else int(r["ts"])
    width = spec.width_s * _US
    wm = None
    open_aggs: dict[tuple, list] = {}  # (w, key) -> [n, sum]
    finalized: dict[tuple, list] = {}
    late: list[int] = []
    n_epochs = (max(r["offset"] for r in rows)) // epoch_size + 1
    for e in range(1, n_epochs + 1):
        batch = [r for r in rows if e == r["offset"] // epoch_size + 1]
        mx = None
        for r in batch:
            w = (r["ts_us"] // width) * width
            if wm is not None and w + width <= wm:
                late.append(r["offset"])
            else:
                k = (w, r["key"])
                agg = open_aggs.setdefault(k, [0, 0.0])
                agg[0] += 1
                agg[1] += r["val"]
            mx = r["ts_us"] if mx is None else max(mx, r["ts_us"])
        if mx is not None:
            cand = mx - spec.allowed_lateness_s * _US
            wm = cand if wm is None else max(wm, cand)
        if wm is not None:
            done = [k for k in open_aggs if k[0] + width <= wm]
            for k in sorted(done, key=lambda k: (k[0], k[1] is None, k[1] or "")):
                finalized[k] = open_aggs.pop(k)
    for k in list(open_aggs):  # flush
        finalized[k] = open_aggs.pop(k)
    return finalized, sorted(late)


def _ray_finalized(root) -> dict[tuple, list]:
    t = windows_table(root)
    out = {}
    for r in t.to_pylist():
        w_us = int(r["window_start"].timestamp() * _US)
        out[(w_us, r["key"])] = [r["n"], r["sum_val"]]
    return out


@pytest.mark.parametrize("epoch_size", [60, 150, 400])
def test_windows_equal_brute_oracle(root, ray_session, epoch_size, tmp_path):
    stream = _stream()
    run_window_stream(str(tmp_path / f"w{epoch_size}"), stream, SPEC, epoch_size)
    r = str(tmp_path / f"w{epoch_size}")
    want_fin, want_late = _brute(stream, SPEC, epoch_size)
    got_fin = _ray_finalized(r)
    assert set(got_fin) == set(want_fin)
    for k, (n, s) in want_fin.items():
        assert got_fin[k][0] == n
        assert got_fin[k][1] == pytest.approx(s, abs=1e-9)
    lt = late_table(r)
    got_late = lt["offset"].to_pylist() if lt.num_rows else []
    assert got_late == want_late
    # conservation: every event is exactly once in a finalized window or late
    total = sum(v[0] for v in got_fin.values()) + len(got_late)
    assert total == stream.num_rows


def test_duplicate_offsets_do_not_double_count(ray_session, tmp_path):
    """Exactly-once vs redelivery: verbatim duplicate-offset rows (the
    generator's dup_frac shape — re-appended at the stream tail, so the
    twins sit in DIFFERENT fragments/slices of the same window) must
    not inflate any window aggregate. The noisy stream's finalized
    windows and late rows equal the clean stream's exactly."""
    stream = _stream(n=300, seed=11)
    rng = np.random.default_rng(3)
    idx = sorted(int(i) for i in rng.choice(stream.num_rows, size=30, replace=False))
    noisy = pa.concat_tables([stream, stream.take(pa.array(idx))])
    r_clean, r_noisy = str(tmp_path / "clean"), str(tmp_path / "noisy")
    run_window_stream(r_clean, stream, SPEC, 75)
    run_window_stream(r_noisy, noisy, SPEC, 75)
    assert _ray_finalized(r_noisy) == _ray_finalized(r_clean)
    lt_c, lt_n = late_table(r_clean), late_table(r_noisy)
    assert (lt_n["offset"].to_pylist() if lt_n.num_rows else []) == (
        lt_c["offset"].to_pylist() if lt_c.num_rows else []
    )


def test_windows_no_late_under_large_lateness(root, ray_session):
    spec = WindowSpec(ts_col="ts", width_s=WIDTH_S, allowed_lateness_s=10**6,
                      group_by=("key",), count_col="n", sums={"sum_val": "val"})
    stream = _stream()
    run_window_stream(root, stream, spec, 100)
    assert late_table(root).num_rows == 0
    assert sum(windows_table(root)["n"].to_pylist()) == stream.num_rows


def test_windows_resume_equals_oneshot(root, ray_session, tmp_path):
    stream = _stream(seed=9)
    # interrupted run: two epochs, then resume to completion
    run_window_stream(root, stream, SPEC, 100, max_epochs=2)
    assert not read_winstate(root)["flushed"]
    run_window_stream(root, stream, SPEC, 100)
    oneshot = str(tmp_path / "oneshot")
    run_window_stream(oneshot, stream, SPEC, 100)
    assert windows_table(root).equals(windows_table(oneshot))
    lt_a, lt_b = late_table(root), late_table(oneshot)
    assert lt_a.num_rows == lt_b.num_rows and (
        lt_a.num_rows == 0 or lt_a.equals(lt_b)
    )


def test_windows_replay_noop_and_guards(root, ray_session):
    stream = _stream(seed=13)
    run_window_stream(root, stream, SPEC, 200, max_epochs=1)
    m = update_windows(root, stream, 1, 0, 200, SPEC)
    assert m["mode"] == "replay_noop"
    with pytest.raises(RuntimeError, match="sequential"):
        update_windows(root, stream, 3, 400, 600, SPEC)
    other = WindowSpec(ts_col="ts", width_s=300, group_by=("key",),
                       count_col="n", sums={"sum_val": "val"})
    with pytest.raises(ValueError, match="spec changed"):
        update_windows(root, stream, 2, 200, 400, other)
    flush_windows(root, SPEC)
    assert flush_windows(root, SPEC)["mode"] == "replay_noop"
    with pytest.raises(RuntimeError, match="flushed"):
        update_windows(root, stream, 2, 200, 400, SPEC)


def test_windows_null_ts_dropped(root, ray_session):
    t = _stream(n=50, seed=15, late_frac=0.0)
    ts = t["ts"].to_pylist()
    ts[3] = None
    t = t.set_column(1, "ts", pa.array(ts, pa.timestamp("us")))
    run_window_stream(root, t, SPEC, 25)
    assert sum(windows_table(root)["n"].to_pylist()) + late_table(root).num_rows == 49


# ---------------------------------------------------------------------------
# engine integration (EngineConfig.window_spec)
# ---------------------------------------------------------------------------


def _ts_changelog(seed=17, n_events=400):
    """Generated CDC changelog + a deterministic event-time payload
    column: 30 s cadence with ±90 s jitter and a seeded late subset."""
    from silk_ray.cdc.generator import make_base_table, make_changelog

    base = make_base_table(60, seed=seed)
    log = make_changelog(base, n_events, seed=seed + 1, dup_frac=0.0)
    rng = np.random.default_rng(seed + 2)
    n = log.num_rows
    base_us = 1_700_000_000 * _US
    ts = base_us + log["offset"].to_numpy() * 30 * _US + rng.integers(-90, 90, n) * _US
    late_idx = rng.choice(n, size=n // 25, replace=False)
    ts = ts.copy()
    ts[late_idx] -= 7200 * _US
    return log.append_column("ts", pa.array(ts, pa.int64()).cast(pa.timestamp("us")))


def test_engine_window_spec_integration(root, ray_session, tmp_path):
    """Windows maintained inside the engine loop over the ingest stream
    equal the brute oracle at the engine's epoch boundaries."""
    from silk_ray.cdc.engine import EngineConfig, run

    log = _ts_changelog()
    spec = WindowSpec(ts_col="ts", width_s=WIDTH_S, allowed_lateness_s=120,
                      group_by=("lang",), count_col="n", sums={})
    lake = str(tmp_path / "lake")
    cfg = EngineConfig(epoch_size=100, num_partitions=3, window_spec=spec)
    metrics = run(lake, log, cfg)
    assert len(metrics) >= 3 and all("windows" in m for m in metrics)

    # brute oracle over the same arrival epochs (lang of D events is
    # null → dropped with the null event-time rows)
    on_log = log.filter(pa.compute.is_valid(log["ts"]))
    want_fin, want_late = _brute(
        pa.table({"offset": on_log["offset"], "ts": on_log["ts"],
                  "key": on_log["lang"], "val": pa.array([0.0] * on_log.num_rows)}),
        WindowSpec(ts_col="ts", width_s=WIDTH_S, allowed_lateness_s=120,
                   group_by=("key",), count_col="n", sums={"sum_val": "val"}),
        100,
    )
    # engine run does NOT flush (the stream keeps tailing): compare
    # finalized-so-far + open == oracle pre-flush is awkward; flush now
    flush_windows(lake, spec)
    got = {
        (int(r["window_start"].timestamp() * _US), r["lang"]): r["n"]
        for r in windows_table(lake).to_pylist()
    }
    want = {k: v[0] for k, v in want_fin.items()}
    assert got == want
    lt = late_table(lake)
    assert (lt["offset"].to_pylist() if lt.num_rows else []) == want_late

    # crash window: roll the window pointer back one epoch; catch-up
    # from the retained manifests must converge (flush file aside)
    st = read_winstate(lake)
    assert st["flushed"]


def test_engine_window_crash_catchup(root, ray_session, tmp_path):
    import json as _json
    import os

    from silk_ray.cdc.engine import EngineConfig, catch_up, run

    log = _ts_changelog(seed=19)
    spec = WindowSpec(ts_col="ts", width_s=WIDTH_S, allowed_lateness_s=120,
                      group_by=("lang",), count_col="n", sums={})
    lake = str(tmp_path / "lake")
    cfg = EngineConfig(epoch_size=100, num_partitions=3, window_spec=spec,
                       retain_epochs=2)
    # run up to the penultimate epoch so we can snapshot the state
    run(lake, log, EngineConfig(epoch_size=100, num_partitions=3,
                                window_spec=spec, retain_epochs=2, max_epochs=3))
    mid_state = read_winstate(lake)
    run(lake, log, EngineConfig(epoch_size=100, num_partitions=3,
                                window_spec=spec, retain_epochs=2))
    final_state = read_winstate(lake)
    final_fin = windows_table(lake)
    # simulate the crash window: pointer back one epoch (the engine's
    # rollback retention), later window outputs deleted
    roll_to = int(mid_state["epoch"])
    for k, rel in list(final_state["final"].items()):
        if k != "flush" and int(k) > roll_to:
            os.remove(os.path.join(lake, rel))
    for k, rel in list(final_state["late"].items()):
        if int(k) > roll_to:
            os.remove(os.path.join(lake, rel))
    with open(os.path.join(lake, "_winstate.json"), "w") as f:
        _json.dump(mid_state, f)
    catch_up(lake, log, cfg)
    assert read_winstate(lake) == final_state
    assert windows_table(lake).equals(final_fin)


def test_engine_crash_at_manifest_snapshot_recovers(ray_session, tmp_path, monkeypatch):
    """A crash inside the lake's epoch-3 commit, at the rename of its
    ``_manifests/`` snapshot, must leave a lake the engine restarts
    from: the manifest swap comes after the snapshot, so epoch 3 is
    simply replayed and the run reaches the uninterrupted end state."""
    import os

    from silk_ray.cdc import checkpoint as ckpt
    from silk_ray.cdc.engine import EngineConfig, run
    from silk_ray.cdc.merge import state_sha256

    log = _ts_changelog(seed=23)
    spec = WindowSpec(ts_col="ts", width_s=WIDTH_S, allowed_lateness_s=120,
                      group_by=("lang",), count_col="n", sums={})

    def cfg(**kw):
        return EngineConfig(epoch_size=100, num_partitions=3, window_spec=spec, **kw)

    ref = str(tmp_path / "ref")
    run(ref, log, cfg())
    lake = str(tmp_path / "lake")
    run(lake, log, cfg(max_epochs=2))

    real_replace = os.replace
    snap_dir = os.path.join(lake, "_manifests") + os.sep

    def crash_in_epoch_3(src, dst):
        if str(dst).startswith(snap_dir) and str(dst).endswith("manifest-000003.json"):
            raise OSError("injected crash at the manifest snapshot")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", crash_in_epoch_3)
    with pytest.raises(OSError, match="injected crash"):
        run(lake, log, cfg())
    monkeypatch.setattr(os, "replace", real_replace)

    for store in ckpt.STORES:
        if store.snapshot is not None:
            nxt = store.read(lake)["epoch"] + 1
            with pytest.raises(FileNotFoundError, match=store.name):
                store.read_at(lake, nxt)
    run(lake, log, cfg())
    assert ckpt.read_manifest(lake).epoch == ckpt.read_manifest(ref).epoch
    assert state_sha256(lake) == state_sha256(ref)
    assert read_winstate(lake) == read_winstate(ref)
    assert windows_table(lake).equals(windows_table(ref))
    assert late_table(lake).equals(late_table(ref))
