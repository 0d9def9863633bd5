"""Multi-table binlog demux: one shared changelog carrying events for
many tables (a ``tbl`` column — the Debezium / MySQL-binlog shape, one
stream per database, not per table) is routed into per-table changelog
directories with offsets preserved, and each table then runs the
ordinary single-table engine on its own stream.

Routing-then-ingesting (instead of teaching the merge about tables) is
the deliberate design: the demux is a resumable, embarrassingly
parallel map over changelog fragments — no shuffle, no state beyond a
cursor — and every single-table property (exactly-once replay, schema
evolution, DLQ, txn atomicity, incremental linking, views, egress)
composes per table with zero changes, because each table's lake
consumes a complete, gap-tolerant offset stream (the engine's window
anchoring skips foreign-table offsets). This mirrors the production
shape of per-table topics fed from one binlog.

Exactly-once: a demux window's output files are a deterministic
function of the window's input (fragments processed in sorted-path
order, rows offset-sorted, fixed parquet options), written
tmp→rename and committed by writing ``_demux.json`` LAST — a crash
mid-window reruns the window and rewrites byte-identical segments.

Transaction atomicity composes per table ONLY when the demux cut
itself is transaction-aligned: ``run_multi`` forces ``txn_snap`` on
the demux window whenever any consuming table runs ``txn_atomic``, so
a transaction straddling a plain size-based cut can never strand part
of itself beyond a table's demuxed horizon (where the table's own
boundary snap could not see the continuation and would durably commit
a torn state). Cross-table atomicity of the COMMIT POINT remains out
of scope: a transaction touching two tables is atomic within each
lake but the two lakes can commit it in different epochs. A
coordinated multi-lake commit point would be needed for more.

Rows with a null/empty/path-unsafe ``tbl`` quarantine to
``out_dir/deadletter/`` (reason ``missing_tbl``/``invalid_tbl``) —
they cannot be routed, and dropping them silently would violate the
"every offset is accounted for" rule the engine lives by.
"""

from __future__ import annotations

import os
import re

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from silk_ray.cdc import checkpoint as ckpt, exchange, split
from silk_ray.cdc.merge import (
    _next_existing_offset,
    _window_fragments,
)

_SAFE_TBL = re.compile(r"^[A-Za-z0-9_.-]{1,128}$")


def _state_path(out_dir: str) -> str:
    return os.path.join(out_dir, "_demux.json")


def read_demux_state(out_dir: str) -> dict:
    return ckpt.read_json(_state_path(out_dir), {"window": 0, "next_offset": 0})


def _commit_demux_state(out_dir: str, window: int, next_offset: int) -> None:
    ckpt.atomic_write_json(
        _state_path(out_dir), {"window": int(window), "next_offset": int(next_offset)}
    )


def table_dir(out_dir: str, tbl: str) -> str:
    if not _SAFE_TBL.match(tbl or ""):
        raise ValueError(f"unroutable table name {tbl!r}")
    return os.path.join(out_dir, "tables", tbl)


def demuxed_tables(out_dir: str) -> list[str]:
    d = os.path.join(out_dir, "tables")
    return sorted(os.listdir(d)) if os.path.isdir(d) else []


def _route_fragment(src, lo: int, hi: int) -> tuple[dict, "object"]:
    """Map task: read one fragment's window rows, split by tbl.
    Returns ({tbl: that table's rows in fragment order, tbl column
    dropped}, dead-rows table or None); :func:`_write_seg` sorts."""
    if isinstance(src, pa.Table):
        t = src
    else:
        t = pq.read_table(src, filters=[("offset", ">=", lo), ("offset", "<", hi)])
    if t.num_rows == 0:
        return {}, None
    if "tbl" not in t.column_names:
        raise ValueError("multi-table demux requires a `tbl` changelog column")
    tbl_arr = t["tbl"]
    valid_name = pc.fill_null(
        pc.match_substring_regex(pc.cast(tbl_arr, pa.string()), _SAFE_TBL.pattern), False
    )
    dead = t.filter(pc.invert(valid_name))
    if dead.num_rows:
        reasons = pa.array(
            [
                "missing_tbl" if v is None or v == "" else "invalid_tbl"
                for v in dead["tbl"].to_pylist()
            ],
            pa.string(),
        )
        dead = dead.append_column("reason", reasons)
        t = t.filter(valid_name)
    else:
        dead = None
    if not t.num_rows:
        return {}, dead
    # dictionary-encode, then split by code: one pass, no Python rows
    enc = pc.dictionary_encode(pc.cast(t["tbl"], pa.string())).combine_chunks()
    names = enc.dictionary.to_pylist()
    parts = split(t.drop_columns(["tbl"]), enc.indices)
    return {names[code]: part for code, part in parts.items()}, dead


def _clean_stale_tmp(d: str) -> None:
    """Remove tmp leftovers from crashed writers. The writer's tmp names
    are dot-prefixed (discovery-safe); legacy ``*.tmp-<pid>`` suffix
    names from older versions are also swept so a stale torn file can
    never be picked up as a fragment or crash ``gc_demux``'s footer
    read."""
    try:
        names = os.listdir(d)
    except FileNotFoundError:
        return
    for f in names:
        if ".tmp-" in f:
            try:
                os.remove(os.path.join(d, f))
            except OSError:
                pass


def _write_seg(tbl: str, out_dir: str, window: int, *shards) -> int:
    """Writer task: concat this table's window shards (fragment order),
    offset-sort, write one segment atomically. Deterministic bytes —
    a crashed window's rerun rewrites the identical file."""
    parts = [s for s in shards if s is not None and s.num_rows]
    if not parts:
        return 0
    t = parts[0] if len(parts) == 1 else pa.concat_tables(parts, promote_options="default")
    t = t.sort_by([("offset", "ascending")])
    d = table_dir(out_dir, tbl)
    # the writer's tmp name is dot-prefixed: pyarrow dataset discovery
    # (the engine's _window_fragments / _next_existing_offset scan this
    # dir) skips it, so a writer crash never leaves a torn fragment
    _clean_stale_tmp(d)
    ckpt.atomic_write_parquet(t, os.path.join(d, f"seg-{window:06d}.parquet"))
    return t.num_rows


def demux_window(
    out_dir: str, changelog, epoch_size: int = 500_000, txn_snap: bool = False
) -> dict | None:
    """Route one offset window. Returns {window, next_offset, rows
    {tbl: n}, dead_lettered} or None when the stream is exhausted.

    ``txn_snap`` snaps the window cut to GLOBAL transaction boundaries
    on the shared changelog (merge.snap_txn_boundary). Required when
    any consuming table runs with ``txn_atomic``: a plain ``lo +
    epoch_size`` cut can land mid-transaction, and a table whose
    demuxed substream ends inside that transaction sees no
    continuation (the remainder is not demuxed yet), so its engine's
    own boundary snap finds nothing to defer and durably commits a
    torn transaction. Transactions are contiguous on the SHARED
    changelog (the binlog shape), so a globally txn-aligned cut
    guarantees every per-table substream ends on a complete
    transaction — per-table atomicity then composes with zero
    engine-side changes."""
    state = read_demux_state(out_dir)
    lo = state["next_offset"]
    nxt = _next_existing_offset(changelog, lo)
    if nxt is None:
        return None
    lo = max(lo, nxt)
    hi = lo + epoch_size
    if txn_snap:
        from silk_ray.cdc.merge import snap_txn_boundary

        hi = snap_txn_boundary(changelog, lo, hi)
    fragments = _window_fragments(changelog, lo, hi)
    if not fragments:
        return None
    window = state["window"] + 1
    deads, counts, _ = exchange(
        [(_route_fragment, f, lo, hi) for f in fragments], _write_seg, out_dir, window
    )
    dead_parts = [d for d in deads if d is not None]
    dead_lettered = 0
    if dead_parts:
        dead = pa.concat_tables(dead_parts, promote_options="default").sort_by(
            [("offset", "ascending")]
        )
        dd = os.path.join(out_dir, "deadletter")
        _clean_stale_tmp(dd)
        ckpt.atomic_write_parquet(dead, os.path.join(dd, f"window-{window:06d}.parquet"))
        dead_lettered = dead.num_rows
    if not counts and not dead_lettered:
        return None
    _commit_demux_state(out_dir, window, hi)  # the sole commit point
    return {
        "window": window,
        "next_offset": hi,
        "rows": counts,
        "dead_lettered": dead_lettered,
    }


def demux_to_completion(
    out_dir: str, changelog, epoch_size: int = 500_000, txn_snap: bool = False
) -> list[dict]:
    out = []
    while True:
        m = demux_window(out_dir, changelog, epoch_size, txn_snap=txn_snap)
        if m is None:
            return out
        out.append(m)


def gc_demux(root: str, tables: list[str] | None = None, force: bool = False) -> int:
    """Reclaim demuxed segments every consuming lake has fully applied.

    Without GC a continuously-tailing multi-table root accumulates one
    segment per (table, window) forever. A segment is reclaimable when
    its footer max offset is below ITS table's lake cursor
    (``lakes/<tbl>`` manifest ``next_offset``) — below-HWM redelivery
    is a no-op, so nothing that matters can ever need it again. A
    table with NO lake under the root is protected: its whole stream
    is retained for a future consumer unless ``force`` drops it.
    Returns the number of files removed. Footer-statistics only."""
    from silk_ray.cdc.merge import _MAX_OFF_CACHE

    demux_dir = os.path.join(root, "demux")
    removed = 0
    for tbl in tables if tables is not None else demuxed_tables(demux_dir):
        lake = os.path.join(root, "lakes", tbl)
        manifest = ckpt.read_manifest(lake)
        if manifest.epoch == 0 and not force:
            continue  # no consumer yet — retain the stream
        floor = manifest.next_offset if manifest.epoch else None
        d = table_dir(demux_dir, tbl)
        for f in sorted(os.listdir(d)):
            if f.startswith((".", "_")) or ".tmp-" in f:
                continue  # crashed-writer leftovers: footer read would
                # fail on a torn file; _clean_stale_tmp sweeps them at
                # the table's next segment write (never here — GC may
                # run beside a live writer whose tmp is mid-rename)
            p = os.path.join(d, f)
            if floor is not None:
                md = pq.read_metadata(p)
                mx = None
                try:
                    idx = {md.schema.column(i).name: i for i in range(md.num_columns)}[
                        "offset"
                    ]
                    stats = [md.row_group(r).column(idx).statistics for r in range(md.num_row_groups)]
                    if stats and all(s is not None and s.has_min_max for s in stats):
                        mx = max(s.max for s in stats)
                except KeyError:
                    pass
                if mx is None:
                    mx = int(pc.max(pq.read_table(p, columns=["offset"])["offset"]).as_py())
                if mx >= floor:
                    continue
            os.remove(p)
            _MAX_OFF_CACHE.pop(p, None)
            removed += 1
    return removed


def run_multi(
    root: str,
    changelog,
    configs: dict[str, "object"],
    demux_epoch: int = 500_000,
    parallel_tables: bool = True,
) -> dict[str, list[dict]]:
    """Demux + per-table engines under one root: tables land in
    ``root/demux/tables/<tbl>`` and each declared table's lake lives at
    ``root/lakes/<tbl>``. ``configs`` maps table name → EngineConfig.
    Per demux window, every declared table's engine catches up on its
    stream — so all lakes tail the shared binlog together, each with
    its own exactly-once cursor. Undeclared tables still demux (their
    segments wait for a future consumer); declared tables missing from
    the stream simply stay empty.

    ``parallel_tables`` runs the per-window catch-ups in one thread per
    table: each engine spends its time in ``ray.get`` (GIL released),
    the lakes are disjoint roots with their own writer leases, and Ray
    supports task submission from multiple driver threads — so T
    tables' epochs pipeline through the cluster instead of leaving it
    idle between serial catch-ups. Set False to debug one table at a
    time."""
    from silk_ray.cdc.engine import run

    demux_dir = os.path.join(root, "demux")
    metrics: dict[str, list[dict]] = {tbl: [] for tbl in configs}
    # Any txn_atomic consumer forces globally txn-aligned demux cuts —
    # see demux_window: without this, a transaction straddling the cut
    # leaves a table's demuxed stream ending mid-transaction and that
    # table durably commits a torn state.
    txn_snap = any(getattr(cfg, "txn_atomic", False) for cfg in configs.values())

    def catch_up(tbl, cfg):
        td = table_dir(demux_dir, tbl)
        if not os.path.isdir(td):
            return
        metrics[tbl].extend(run(os.path.join(root, "lakes", tbl), td, cfg))

    while True:
        w = demux_window(demux_dir, changelog, demux_epoch, txn_snap=txn_snap)
        if w is None:
            break
        if parallel_tables and len(configs) > 1:
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=min(8, len(configs))) as ex:
                futures = [ex.submit(catch_up, t, c) for t, c in configs.items()]
                for f in futures:
                    f.result()  # surface the first failure loudly
        else:
            for tbl, cfg in configs.items():
                catch_up(tbl, cfg)
    return metrics
