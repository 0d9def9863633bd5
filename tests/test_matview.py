"""Incrementally maintained aggregate views (cdc/matview.py).

Invariant: after every epoch, the maintained view equals a batch
GROUP BY over the lake's current state — exactly (integer measures),
through churn (I/U/D), duplicate offsets, schema evolution, crash
windows, replay, lag-triggered full rebuilds, GC and time travel.
"""

import os
import shutil

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from silk_ray.cdc.engine import EngineConfig, run
from silk_ray.cdc.generator import make_base_table, make_changelog
from silk_ray.cdc.matview import (
    AggViewSpec,
    agg_table,
    gc_aggview,
    read_aggstate,
    update_aggregates,
)
from silk_ray.cdc.merge import state_table

SPEC = AggViewSpec(
    group_by=("lang",),
    measures={"sum_chars": ("sum_strlen", "content")},
    count_col="n_docs",
    num_shards=8,
)


def batch_view(root: str, spec: AggViewSpec = SPEC) -> pa.Table:
    """Oracle: GROUP BY over the full current state (sums with nulls
    counting 0; min/max SQL-style, nulls ignored)."""
    t = state_table(root)
    if t.num_rows == 0:
        return pa.table({})
    cols = {g: t[g] if g in t.column_names else pa.nulls(t.num_rows, pa.string())
            for g in spec.group_by}
    cols[spec.count_col] = pa.array([1] * t.num_rows, pa.int64())
    aggs = [(spec.count_col, "sum")]
    ren = {f"{spec.count_col}_sum": spec.count_col}
    for out, (fn, src) in spec.measures.items():
        if fn in ("min", "max"):
            cols[f"_mm_{out}"] = (
                t[src] if src in t.column_names else pa.nulls(t.num_rows, pa.string())
            )
            aggs.append((f"_mm_{out}", fn))
            ren[f"_mm_{out}_{fn}"] = out
            continue
        if src in t.column_names:
            vals = pc.utf8_length(t[src]) if fn == "sum_strlen" else pc.cast(t[src], pa.int64())
            cols[out] = pc.fill_null(vals, 0)
        else:
            cols[out] = pa.array([0] * t.num_rows, pa.int64())
        aggs.append((out, "sum"))
        ren[f"{out}_sum"] = out
    g = pa.table(cols).group_by(list(spec.group_by)).aggregate(aggs)
    g = g.rename_columns([ren.get(c, c) for c in g.column_names])
    return g.sort_by([(k, "ascending") for k in spec.group_by])


def assert_view_equals_batch(root: str, spec: AggViewSpec = SPEC):
    got = agg_table(root)
    want = batch_view(root, spec)
    if want.num_rows == 0:
        assert got.num_rows == 0
        return
    got = got.select(want.column_names).sort_by(
        [(k, "ascending") for k in spec.group_by]
    )
    assert got.equals(want), f"\ngot:\n{got.to_pandas()}\nwant:\n{want.to_pandas()}"


@pytest.fixture()
def lake(tmp_path):
    return str(tmp_path / "lake")


def _changelog(n_rows=80, n_events=600, seed=11, evolve_at=None):
    base = make_base_table(n_rows, seed=seed)
    return make_changelog(base, n_events, seed=seed + 1, dup_frac=0.05, evolve_at=evolve_at)


def test_view_equals_batch_every_epoch(lake, ray_session):
    log = _changelog()
    cfg = EngineConfig(epoch_size=150, num_partitions=4, agg_spec=SPEC, max_epochs=1)
    epochs = 0
    while True:
        res = run(lake, log, cfg)
        if not res:
            break
        epochs += 1
        assert res[0]["aggs"]["epoch"] == res[0]["epoch"]
        assert_view_equals_batch(lake)
        # after epoch 1 the delta path must be taken
        if epochs > 1:
            assert res[0]["aggs"]["mode"] in ("delta", "noop")
    assert epochs >= 3


def test_schema_evolution_group_column(lake, ray_session):
    """Group by the evolution column itself: pre-switch rows land in the
    NULL group, post-switch rows in their branch group — and the
    maintained view tracks the batch oracle through the switch."""
    spec = AggViewSpec(group_by=("branch",), measures={"sum_chars": ("sum_strlen", "content")},
                       count_col="n_docs", num_shards=4)
    log = _changelog(n_events=500, evolve_at=250)
    cfg = EngineConfig(epoch_size=125, num_partitions=4, agg_spec=spec, max_epochs=1)
    while run(lake, log, cfg):
        assert_view_equals_batch(lake, spec)
    final = agg_table(lake)
    assert final.num_rows >= 2  # null group + at least one branch


def test_replay_idempotent_and_crash_window(lake, ray_session):
    log = _changelog()
    cfg = EngineConfig(epoch_size=200, num_partitions=4, agg_spec=SPEC)
    run(lake, log, cfg)
    final = agg_table(lake)
    state = read_aggstate(lake)
    # replay of a committed epoch is a no-op
    m = update_aggregates(lake, state["epoch"], SPEC)
    assert m["mode"] == "replay_noop"
    assert agg_table(lake).equals(final)
    # crash window: merge committed epoch E but the agg pointer still
    # shows the E-1 commit (the snapshot GC retains) → catch-up (run
    # with exhausted changelog) replays epoch E byte-identically
    prev_snap = os.path.join(lake, "_aggstates", f"state-{state['epoch'] - 1:06d}.json")
    shutil.copy(prev_snap, os.path.join(lake, "_aggstate.json"))
    run(lake, log, cfg)  # no new events; catch_up closes the gap
    assert read_aggstate(lake)["epoch"] == state["epoch"]
    assert agg_table(lake).equals(final)


def test_lag_triggers_full_rebuild(lake, ray_session):
    log = _changelog()
    cfg = EngineConfig(epoch_size=150, num_partitions=4, agg_spec=SPEC)
    run(lake, log, cfg)
    final = agg_table(lake)
    state = read_aggstate(lake)
    # a ≥2-epoch lag (dirty files GC'd) must full-rebuild, loudly
    import json

    lagged = dict(state)
    lagged["epoch"] = max(0, state["epoch"] - 2)
    with open(os.path.join(lake, "_aggstate.json"), "w") as f:
        json.dump(lagged, f)
    m = update_aggregates(lake, state["epoch"], SPEC)
    assert m["mode"] == "full"
    assert agg_table(lake).equals(final)


def test_shard_carry_forward(lake, ray_session):
    """Shards whose groups were untouched by an epoch keep their old
    file (manifest carry-forward: per-epoch I/O is O(delta))."""
    # many groups (repo has ~n_rows/5 values), tiny epochs → most shards
    # untouched per epoch
    spec = AggViewSpec(group_by=("repo",), measures={}, count_col="n_docs", num_shards=16)
    log = _changelog(n_rows=120, n_events=400)
    cfg = EngineConfig(epoch_size=40, num_partitions=4, agg_spec=spec, max_epochs=1)
    run(lake, log, cfg)  # epoch 1
    shards_1 = dict(read_aggstate(lake)["shards"])
    run(lake, log, cfg)  # epoch 2 (delta)
    shards_2 = dict(read_aggstate(lake)["shards"])
    carried = [s for s in shards_2 if shards_1.get(s) == shards_2[s]]
    assert carried, "no shard carried forward — manifest reuse broken"
    assert_view_equals_batch(lake, spec)


def test_epoch_shape_independence(lake, tmp_path, ray_session):
    """The final view bytes are identical however the stream is
    epoched (replay identity for the view store)."""
    import hashlib

    log = _changelog()

    def fingerprint(root, epoch_size):
        cfg = EngineConfig(epoch_size=epoch_size, num_partitions=4, agg_spec=SPEC)
        run(root, log, cfg)
        t = agg_table(root)
        h = hashlib.sha256()
        for col in sorted(t.column_names):
            h.update(str(t[col].to_pylist()).encode())
        return h.hexdigest()

    a = fingerprint(lake, 100)
    b = fingerprint(str(tmp_path / "lake2"), 275)
    assert a == b


def test_gc_and_time_travel(lake, ray_session):
    log = _changelog()
    cfg = EngineConfig(
        epoch_size=150, num_partitions=4, agg_spec=SPEC, retain_epochs=2
    )
    run(lake, log, cfg)
    state = read_aggstate(lake)
    e = state["epoch"]
    assert e >= 3
    # retained epochs read back exactly as committed
    views = {}
    for back in (0, 1, 2):
        views[back] = agg_table(lake, at_epoch=e - back)
    assert views[0].equals(agg_table(lake))
    assert not views[2].equals(views[0]) or True  # may coincide; just readable
    # past the retention window: loud failure
    with pytest.raises(FileNotFoundError):
        agg_table(lake, at_epoch=max(1, e - 3))
    # every referenced shard file exists; no unreferenced parquet remains
    live = set()
    for back in (0, 1, 2):
        from silk_ray.cdc.matview import read_aggstate_at

        live.update(read_aggstate_at(lake, e - back)["shards"].values())
    on_disk = {
        os.path.join("aggview", f)
        for f in os.listdir(os.path.join(lake, "aggview"))
        if f.endswith(".parquet")
    }
    assert on_disk == live


def test_spec_change_rejected(lake, ray_session):
    log = _changelog(n_events=200)
    cfg = EngineConfig(epoch_size=200, num_partitions=4, agg_spec=SPEC)
    run(lake, log, cfg)
    other = AggViewSpec(group_by=("repo",), count_col="n_docs", num_shards=8)
    with pytest.raises(ValueError, match="spec changed"):
        update_aggregates(lake, read_aggstate(lake)["epoch"] + 1, other)


def test_deletes_drop_groups(lake, ray_session):
    """A group whose every key is deleted leaves the view entirely
    (count-0 rows must vanish, with exact-zero measure residue)."""
    base = pa.table(
        {
            "repo": pa.array(["r1", "r1", "r2"]),
            "path": pa.array(["a", "b", "c"]),
            "commit": pa.array(["x", "x", "x"]),
            "lang": pa.array(["zz", "zz", "py"]),
            "content": pa.array(["hello world", "foo", "bar"]),
        }
    )
    ins = pa.table(
        {
            "offset": pa.array([0, 1, 2], pa.int64()),
            "op": pa.array(["I", "I", "I"]),
            "repo": base["repo"],
            "path": base["path"],
            "commit": base["commit"],
            "lang": base["lang"],
            "content": base["content"],
            "branch": pa.nulls(3, pa.string()),
        }
    )
    dels = pa.table(
        {
            "offset": pa.array([3, 4], pa.int64()),
            "op": pa.array(["D", "D"]),
            "repo": pa.array(["r1", "r1"]),
            "path": pa.array(["a", "b"]),
            "commit": pa.nulls(2, pa.string()),
            "lang": pa.nulls(2, pa.string()),
            "content": pa.nulls(2, pa.string()),
            "branch": pa.nulls(2, pa.string()),
        }
    )
    log = pa.concat_tables([ins, dels])
    cfg = EngineConfig(epoch_size=3, num_partitions=2, agg_spec=SPEC)
    run(lake, log, cfg)
    t = agg_table(lake)
    langs = t["lang"].to_pylist()
    assert "zz" not in langs and "py" in langs
    row = t.filter(pc.equal(t["lang"], "py"))
    assert row["n_docs"].to_pylist() == [1]
    assert row["sum_chars"].to_pylist() == [3]
    assert_view_equals_batch(lake)


# ---------------------------------------------------------------------------
# min/max measures (support-store IVM)
# ---------------------------------------------------------------------------

MM_SPEC = AggViewSpec(
    group_by=("lang",),
    measures={
        "sum_chars": ("sum_strlen", "content"),
        "first_commit": ("min", "commit"),
        "last_commit": ("max", "commit"),
    },
    count_col="n_docs",
    num_shards=8,
)


def test_minmax_view_equals_batch_every_epoch(lake, ray_session):
    """min/max via the (group, value)->count support store: exact at
    every epoch through churn — including deletes of a group's extremum
    (the non-subtractable case a naive maintained min/max gets wrong)."""
    log = _changelog(seed=21)
    cfg = EngineConfig(epoch_size=150, num_partitions=4, agg_spec=MM_SPEC, max_epochs=1)
    epochs = 0
    while run(lake, log, cfg):
        epochs += 1
        assert_view_equals_batch(lake, MM_SPEC)
    assert epochs >= 3


def test_minmax_extremum_delete_moves_min(lake, ray_session):
    """Delete the row holding a group's minimum: the maintained min must
    move to the next surviving value (needs the support store; a stored
    scalar min could never move up)."""
    import pyarrow as pa

    base = pa.table({
        "repo": ["r1", "r1", "r1"],
        "path": ["a", "b", "c"],
        "commit": ["aaa", "bbb", "ccc"],
        "lang": ["py", "py", "py"],
        "content": ["x", "yy", "zzz"],
    })
    events = []
    for off, r in enumerate(base.to_pylist()):
        events.append({"offset": off, "op": "I", **r})
    events.append({"offset": 3, "op": "D", "repo": "r1", "path": "a",
                   "commit": None, "lang": None, "content": None})
    schema = pa.schema([
        ("offset", pa.int64()), ("op", pa.string()), ("repo", pa.string()),
        ("path", pa.string()), ("commit", pa.string()), ("lang", pa.string()),
        ("content", pa.string()),
    ])
    log = pa.Table.from_pylist(events, schema=schema)
    spec = AggViewSpec(group_by=("lang",),
                       measures={"cmin": ("min", "commit"), "cmax": ("max", "commit")},
                       count_col="n", num_shards=4)
    # epoch 1: inserts only; epoch 2: the delete of the 'aaa' extremum
    from silk_ray.cdc.merge import run_to_completion as rtc  # noqa: F401
    cfg = EngineConfig(epoch_size=3, num_partitions=2, agg_spec=spec, max_epochs=1)
    run(lake, log, cfg)
    t1 = agg_table(lake).to_pylist()
    assert t1 == [{"lang": "py", "n": 3, "cmin": "aaa", "cmax": "ccc"}]
    run(lake, log, cfg)  # applies the delete epoch via the DELTA path
    t2 = agg_table(lake).to_pylist()
    assert t2 == [{"lang": "py", "n": 2, "cmin": "bbb", "cmax": "ccc"}]


def test_minmax_replay_and_full_rebuild(lake, ray_session):
    log = _changelog(seed=23)
    cfg = EngineConfig(epoch_size=200, num_partitions=4, agg_spec=MM_SPEC)
    run(lake, log, cfg)
    final = agg_table(lake)
    state = read_aggstate(lake)
    m = update_aggregates(lake, state["epoch"], MM_SPEC)
    assert m["mode"] == "replay_noop"
    assert agg_table(lake).equals(final)
    # forced lag -> full rebuild reconstructs view AND support identically
    import json as _json

    lagged = dict(state)
    lagged["epoch"] = max(0, state["epoch"] - 2)
    with open(os.path.join(lake, "_aggstate.json"), "w") as f:
        _json.dump(lagged, f)
    m = update_aggregates(lake, state["epoch"], MM_SPEC)
    assert m["mode"] == "full"
    assert agg_table(lake).equals(final)
    assert_view_equals_batch(lake, MM_SPEC)


def test_minmax_gc_keeps_support(lake, ray_session):
    log = _changelog(seed=25)
    cfg = EngineConfig(epoch_size=150, num_partitions=4, agg_spec=MM_SPEC)
    run(lake, log, cfg)
    final = agg_table(lake)
    n = gc_aggview(lake, retain_epochs=1)
    # GC may remove superseded epoch files but the live view (incl.
    # support-backed min/max) must read back identically
    assert agg_table(lake).equals(final)
    state = read_aggstate(lake)
    assert state.get("support"), "support mapping missing from committed state"


def _derived_bytes(root: str) -> dict[str, str]:
    """sha256 of every agg view and egress file and of both state
    pointers, keyed by path relative to the lake root."""
    import glob
    import hashlib

    out = {}
    for pat in ("aggview/*.parquet", "_aggstate.json", "_aggstates/*.json",
                "egress/*.parquet", "_egressstate.json"):
        for p in sorted(glob.glob(os.path.join(root, pat))):
            with open(p, "rb") as f:
                out[os.path.relpath(p, root)] = hashlib.sha256(f.read()).hexdigest()
    return out


def _raise(*_a, **_k):
    raise AssertionError("patched Ray entry point called")


def test_delta_path_starts_no_ray_work(tmp_path, monkeypatch, ray_session):
    """The per-epoch agg view and egress updates are one driver-side
    pyarrow pass: with Ray's task and Ray Data entry points patched to
    raise, the epoch-E catch-up of a lake whose merge is at E and whose
    derived stores are at E-1 writes the same bytes as an unpatched
    twin."""
    import ray

    from silk_ray.cdc import checkpoint as ckpt
    from silk_ray.cdc.egress import update_egress

    lake = str(tmp_path / "a" / "lake")
    log = _changelog(seed=27)
    cfg = EngineConfig(epoch_size=150, num_partitions=4, agg_spec=MM_SPEC,
                       egress=True, egress_shards=8, max_epochs=2)
    run(lake, log, cfg)
    # merge alone advances to E; the agg view and egress stay at E-1
    run(lake, log, EngineConfig(epoch_size=150, num_partitions=4, max_epochs=1))
    e = ckpt.read_manifest(lake).epoch
    assert e == 3 and read_aggstate(lake)["epoch"] == e - 1
    shutil.copytree(str(tmp_path / "a"), str(tmp_path / "b"))
    twin = str(tmp_path / "b" / "lake")

    want_agg = update_aggregates(twin, e, MM_SPEC)
    want_eg = update_egress(twin, e, num_shards=8)
    with monkeypatch.context() as m:
        m.setattr(ray, "remote", _raise)
        m.setattr(ray, "get", _raise)
        m.setattr(ray.data, "from_items", _raise)
        got_agg = update_aggregates(lake, e, MM_SPEC)
        got_eg = update_egress(lake, e, num_shards=8)
    assert got_agg["mode"] == "delta" and got_agg["delta_groups"] > 0
    assert got_eg["rows"] > 0
    assert (got_agg, got_eg) == (want_agg, want_eg)
    assert _derived_bytes(lake) == _derived_bytes(twin)
    assert read_aggstate(lake)["support"], "min/max support not maintained"


def test_rebuild_resync_and_erase_skip_to_arrow_refs(tmp_path, monkeypatch, ray_session):
    """The state-scanning paths (lag-triggered full rebuild of a sum +
    min/max view, egress resync, the erase match scan) iterate their
    scan instead of collecting it with ``Dataset.to_arrow_refs()``,
    whose schema re-fetch can race a cancellation and abort the
    driver; with it patched to raise they match an unpatched twin."""
    import json

    import ray

    from silk_ray.cdc.egress import egress_resync
    from silk_ray.cdc.erase import erase_where
    from silk_ray.cdc.generator import write_changelog_segments

    cl = str(tmp_path / "a" / "cl")
    write_changelog_segments(_changelog(seed=29), cl, segment_size=250)
    lake = str(tmp_path / "a" / "lake")
    run(lake, cl, EngineConfig(epoch_size=150, num_partitions=4, agg_spec=MM_SPEC))
    state = read_aggstate(lake)
    lagged = {**state, "epoch": state["epoch"] - 2}
    with open(os.path.join(lake, "_aggstate.json"), "w") as f:
        json.dump(lagged, f)
    shutil.copytree(str(tmp_path / "a"), str(tmp_path / "b"))

    def drive(root: str, changelog: str) -> tuple:
        agg = update_aggregates(root, state["epoch"], MM_SPEC)
        assert agg["mode"] == "full"
        resync = egress_resync(root, num_shards=8)
        erased = erase_where(root, changelog, {"column": "lang", "op": "==", "value": "py"})
        with open(erased.pop("segment"), "rb") as f:
            segment = f.read()
        return agg, resync, erased, segment, _derived_bytes(root)

    want = drive(str(tmp_path / "b" / "lake"), str(tmp_path / "b" / "cl"))
    with monkeypatch.context() as m:
        m.setattr(ray.data.Dataset, "to_arrow_refs", _raise)
        got = drive(lake, cl)
    assert got == want
    assert want[1]["rows"] > 0 and want[2]["events"] > 0
    assert_view_equals_batch(lake, MM_SPEC)
