"""``python -m silk_ray`` — the single-machine CLI entry point.

The reference's shape (``Silk.scala:221-233``: config file → parse →
GenerateLinks → filter → output) re-expressed over the JSON rule DSL:

    python -m silk_ray link --config linkspec.json
    python -m silk_ray transform --config transformspec.json
    python -m silk_ray cdc --root /lake --changelog /binlog [--rule rule.json]

Config shapes (JSON):

link spec::

    {"source": {"path": "...", "format": "parquet", "columns": [...],
                "uri_cols": ["repo", "path"]},
     "target": {...},                  # omit → self-linkage
     "rule":   {...},                  # kernel rule DSL (rule_from_dict)
     "link_limit": 1000000,
     "output": {"path": "...", "format": "parquet|csv|json|ntriples|alignment"}}

transform spec::

    {"input":  {"path": "...", "format": "parquet"},
     "rules":  [{"target": "...", "input": {...}}, ...],   # transform_rule_from_dict
     "output": {"path": "...", "format": "parquet"}}

The CLI owns the Ray session (guarded init; the library never calls
``ray.init``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time


def _init_ray(num_cpus: int | None) -> None:
    import ray

    if not ray.is_initialized():
        kwargs = dict(address="local", include_dashboard=False, logging_level="ERROR")
        if num_cpus:
            kwargs["num_cpus"] = num_cpus
        ray.init(**kwargs)


def _read_side(spec: dict):
    from silk_ray.sources.registry import read_dataset

    ds = read_dataset(
        spec["path"],
        spec.get("format", "parquet"),
        columns=spec.get("columns"),
        limit=spec.get("limit"),
    )
    uri_cols = spec.get("uri_cols")
    if uri_cols:
        from silk_ray.linking.pipeline import add_uri_column

        ds = add_uri_column(ds, cols=tuple(uri_cols))
    return ds


def _write_links(links, out: dict) -> None:
    from silk_ray.sources.registry import write_links

    write_links(links, out["path"], out.get("format", "parquet"))


def cmd_link(args) -> int:
    if args.config.endswith(".xml"):
        # Silk-LSL config (the reference's own format)
        _init_ray(args.num_cpus)
        from silk_ray.sources.lsl import run_lsl_config

        t0 = time.perf_counter()
        results = run_lsl_config(args.config, interlink=args.interlink, output_path=args.output)
        # rows come from the sinks' part summaries; counting an
        # unwritten interlink is the one remaining consumer
        print(
            json.dumps(
                {"command": "link", "config": "lsl",
                 "interlinks": {
                     k: {"links": (v["rows"] if v["rows"] is not None else v["links"].count()),
                         "output": v["output"]}
                     for k, v in results.items()
                 },
                 "seconds": round(time.perf_counter() - t0, 3)}
            )
        )
        return 0
    cfg = json.load(open(args.config))
    _init_ray(args.num_cpus)
    from silk_ray.linking.pipeline import generate_links

    source = _read_side(cfg["source"])
    target = _read_side(cfg["target"]) if "target" in cfg else None
    t0 = time.perf_counter()
    links = generate_links(
        source,
        target,
        cfg["rule"],
        source_equals_target="target" not in cfg,
        link_limit=cfg.get("link_limit", 1_000_000),
    )
    _write_links(links, cfg["output"])
    print(
        json.dumps(
            {"command": "link", "seconds": round(time.perf_counter() - t0, 3),
             "output": cfg["output"]["path"]}
        )
    )
    return 0


def cmd_transform(args) -> int:
    cfg = json.load(open(args.config))
    _init_ray(args.num_cpus)
    from silk_ray.kernel.rule import CompiledTransform, transform_rule_from_dict
    from silk_ray.sources.registry import write_dataset

    rules = [transform_rule_from_dict(r) for r in cfg["rules"]]
    ds = _read_side(cfg["input"])
    t0 = time.perf_counter()
    out = ds.map_batches(
        CompiledTransform(rules, typed_output=bool(cfg.get("typed_output", False))),
        batch_format="pyarrow",
    )
    write_dataset(out, cfg["output"]["path"], cfg["output"].get("format", "parquet"))
    print(
        json.dumps(
            {"command": "transform", "seconds": round(time.perf_counter() - t0, 3),
             "output": cfg["output"]["path"]}
        )
    )
    return 0


def _agg_spec_from_file(path: str):
    """JSON agg-view spec → AggViewSpec. Shape:
    {"group_by": [...], "measures": {"out": ["sum"|"sum_strlen", "col"]},
     "count_col": "n", "num_shards": 32}"""
    from silk_ray.cdc.matview import AggViewSpec

    raw = json.load(open(path))
    return AggViewSpec(
        group_by=tuple(raw["group_by"]),
        measures={k: (v[0], v[1]) for k, v in (raw.get("measures") or {}).items()},
        count_col=raw.get("count_col", "n"),
        num_shards=int(raw.get("num_shards", 32)),
    )


def cmd_cdc(args) -> int:
    _init_ray(args.num_cpus)
    from silk_ray.cdc.engine import EngineConfig, run

    rule_spec = json.load(open(args.rule)) if args.rule else None
    agg_spec = _agg_spec_from_file(args.agg_view) if args.agg_view else None
    t0 = time.perf_counter()
    boot = None
    if args.from_snapshot:
        from silk_ray.cdc.bootstrap import bootstrap_lake, read_snapshot_marker

        if args.snapshot_offset is None:
            marker = read_snapshot_marker(args.from_snapshot)
            if marker is not None:
                args.snapshot_offset = int(marker["as_of_offset"])
        if args.snapshot_offset is None:
            raise SystemExit(
                "--from-snapshot requires --snapshot-offset (the changelog "
                "offset the snapshot is consistent as of) — or a snapshot "
                "directory exported by `export-snapshot`, whose _SNAPSHOT.json "
                "carries it"
            )

        boot = bootstrap_lake(
            args.root,
            args.from_snapshot,
            as_of_offset=args.snapshot_offset,
            num_partitions=args.num_partitions,
            link_spec=rule_spec,
            n_block_partitions=args.block_partitions,
        )
    cfg = EngineConfig(
        epoch_size=args.epoch_size,
        num_partitions=args.num_partitions,
        n_block_partitions=args.block_partitions,
        rule_spec=rule_spec,
        max_epochs=args.max_epochs,
        maintain_clusters=bool(args.maintain_clusters and rule_spec is not None),
        agg_spec=agg_spec,
        payload_schema=json.load(open(args.payload_schema)) if args.payload_schema else None,
        strict_columns=bool(args.strict_columns),
        txn_atomic=bool(args.txn_atomic),
        enrich_rules=json.load(open(args.enrich)) if args.enrich else None,
        egress=bool(args.egress),
        egress_shards=args.egress_shards,
        target_epoch_seconds=args.target_epoch_seconds,
        min_epoch_size=args.min_epoch_size,
        max_epoch_size=args.max_epoch_size,
    )
    metrics = run(args.root, args.changelog, cfg)
    out = {
        "command": "cdc", "seconds": round(time.perf_counter() - t0, 3),
        "epochs": len(metrics),
        "events_applied": sum(m["events_applied"] for m in metrics),
        "dead_lettered": sum(m.get("dead_lettered", 0) for m in metrics),
        "lag_offsets": metrics[-1]["lag_offsets"] if metrics else 0,
    }
    if boot is not None:
        out["bootstrap"] = {
            "rows": boot["events_applied"], "as_of_offset": boot["as_of_offset"],
        }
    if agg_spec is not None:
        from silk_ray.cdc.matview import agg_table

        out["agg_groups"] = agg_table(args.root).num_rows
    if args.egress:
        from silk_ray.cdc.egress import read_egressstate

        st = read_egressstate(args.root)
        out["egress"] = {"epoch": st["epoch"], "next_seq": st["next_seq"]}
    print(json.dumps(out))
    return 0


def cmd_cdc_multi(args) -> int:
    """Multi-table binlog (cdc/demux.py): demux the shared changelog's
    ``tbl`` column into per-table streams under ROOT/demux and tail
    each declared table's lake at ROOT/lakes/<tbl>."""
    _init_ray(args.num_cpus)
    from silk_ray.cdc.demux import read_demux_state, run_multi
    from silk_ray.cdc.engine import EngineConfig

    tables = [t for t in args.tables.split(",") if t]
    if not tables:
        raise SystemExit("--tables requires a comma-separated list of table names")
    t0 = time.perf_counter()
    cfg = {
        t: EngineConfig(
            epoch_size=args.epoch_size,
            num_partitions=args.num_partitions,
            txn_atomic=bool(args.txn_atomic),
        )
        for t in tables
    }
    metrics = run_multi(args.root, args.changelog, cfg, demux_epoch=args.demux_epoch)
    state = read_demux_state(os.path.join(args.root, "demux"))
    out = {
        "command": "cdc-multi",
        "seconds": round(time.perf_counter() - t0, 3),
        "demux_windows": state["window"],
        "demux_next_offset": state["next_offset"],
        "tables": {
            t: {
                "epochs": len(ms),
                "events_applied": sum(m["events_applied"] for m in ms),
                "dead_lettered": sum(m.get("dead_lettered", 0) for m in ms),
            }
            for t, ms in metrics.items()
        },
    }
    print(json.dumps(out))
    return 0


def cmd_repartition(args) -> int:
    if args.stats:
        from silk_ray.cdc.repartition import lake_stats, suggest_num_partitions

        st = lake_stats(args.root)
        advice = suggest_num_partitions(args.root)
        print(json.dumps({"command": "repartition", "stats": {
            k: st[k] for k in ("epoch", "num_partitions", "rows_total",
                               "bytes_total", "max_partition_bytes", "row_skew_ratio")
        }, "advice": advice}))
        return 0
    if args.to is None:
        raise SystemExit("repartition requires --to M (or --stats)")
    _init_ray(args.num_cpus)
    from silk_ray.cdc.repartition import repartition_lake

    t0 = time.perf_counter()
    metrics = repartition_lake(args.root, args.to)
    print(
        json.dumps(
            {"command": "repartition", "seconds": round(time.perf_counter() - t0, 3),
             **{k: metrics[k] for k in ("epoch", "repartition") if k in metrics},
             "rows_total": metrics.get("rows_total"),
             "partitions_touched": metrics.get("partitions_touched")}
        )
    )
    return 0


def cmd_erase(args) -> int:
    _init_ray(args.num_cpus)
    from silk_ray.cdc.erase import erase_where

    where = (
        json.load(open(args.where)) if os.path.exists(args.where)
        else json.loads(args.where)
    )
    t0 = time.perf_counter()
    out = erase_where(args.root, args.changelog, where)
    print(json.dumps({"command": "erase",
                      "seconds": round(time.perf_counter() - t0, 3), **out}))
    return 0


def cmd_rewrite(args) -> int:
    _init_ray(args.num_cpus)
    from silk_ray.cdc.erase import rewrite_where

    def _load(v):
        return json.load(open(v)) if os.path.exists(v) else json.loads(v)

    t0 = time.perf_counter()
    out = rewrite_where(args.root, args.changelog, _load(args.where), _load(args.set_rules))
    print(json.dumps({"command": "rewrite",
                      "seconds": round(time.perf_counter() - t0, 3), **out}))
    return 0


# the lake root's top-level data directories, as ``status`` reports them
_STORAGE_DIRS = ("partitions", "blockmap", "links", "clusters", "aggview", "egress",
                 "windows", "_metrics")


def _dir_storage(root: str) -> dict:
    """On-disk bytes and file count under each top-level data directory."""
    out = {}
    for d in _STORAGE_DIRS:
        nbytes = nfiles = 0
        for dirpath, _dirs, files in os.walk(os.path.join(root, d)):
            for f in files:
                try:
                    nbytes += os.path.getsize(os.path.join(dirpath, f))
                    nfiles += 1
                except OSError:  # removed by a concurrent GC
                    pass
        out[d] = {"bytes": nbytes, "files": nfiles}
    return out


def _compaction_status(root: str, manifest, records: list[dict]) -> dict:
    """Per chain kind (the lake's, the link index's postings and entity
    chains): the compactions the ``_metrics`` records hold (``records``,
    the merge's; the link store's are read here), per kind (merges of the
    deltas, base rewrites) with the bytes they wrote, and the live
    chains' base against non-base bytes — how close they are to their
    next base rewrite."""
    from silk_ray.cdc import chain
    from silk_ray.cdc import checkpoint as ckpt

    done = {name: chain.count_compactions(()) for name in ("lake", "postings", "entities")}
    recorded = [{"lake": r["compactions"]} for r in records if "compactions" in r] + [
        r["compactions"] for r in ckpt.read_metrics(root, "links") if "compactions" in r]
    for by_chain in recorded:
        for chain_name, kinds in by_chain.items():
            for kind, c in kinds.items():
                done[chain_name][kind]["count"] += c["count"]
                done[chain_name][kind]["bytes"] += c["bytes"]
    links = ckpt.LINKS.read(root)
    chains = {"lake": [info.get("files", []) for info in manifest.partitions.values()],
              "postings": list(links["blockmap"].values()),
              "entities": [links.get("entities", [])]}
    return {name: {"compactions": done[name], **chain.chain_bytes(root, chains[name])}
            for name in done}


def cmd_status(args) -> int:
    """One health endpoint over every store: metadata reads only (no
    Ray session) — manifests, state pointers, file sizes, on-disk bytes
    and files per data directory, consumer positions and the last
    committed epoch's metrics."""
    from silk_ray.cdc import checkpoint as ckpt
    from silk_ray.cdc.repartition import lake_stats

    # multi-table root (cdc-multi layout): demux cursor + per-table lakes
    if os.path.isdir(os.path.join(args.root, "demux")):
        from silk_ray.cdc.demux import demuxed_tables, read_demux_state, table_dir
        from silk_ray.cdc.merge import _changelog_max_offset

        out = {
            "command": "status", "root": args.root,
            "demux": read_demux_state(os.path.join(args.root, "demux")),
            "tables": {},
        }
        for tbl in demuxed_tables(os.path.join(args.root, "demux")):
            lake = os.path.join(args.root, "lakes", tbl)
            m = ckpt.read_manifest(lake)
            # lag vs the table's OWN demuxed stream (footer stats only) —
            # the global demux cursor overshoots every table's max offset
            mx = _changelog_max_offset(table_dir(os.path.join(args.root, "demux"), tbl))
            out["tables"][tbl] = {
                "epoch": m.epoch, "next_offset": m.next_offset,
                "num_partitions": m.num_partitions,
                "demux_lag_offsets": max(0, (mx or 0) + 1 - m.next_offset)
                if m.epoch else None,
            }
            if getattr(args, "schema", False) and m.epoch:
                from silk_ray.cdc.merge import lake_schema

                out["tables"][tbl]["schema"] = lake_schema(lake)
        print(json.dumps(out))
        return 0

    manifest = ckpt.read_manifest(args.root)
    out = {"command": "status", "root": args.root}
    if manifest.epoch == 0:
        out["lake"] = {"epoch": 0}
        print(json.dumps(out))
        return 0
    st = lake_stats(args.root)
    out["lake"] = {
        "epoch": manifest.epoch,
        "next_offset": manifest.next_offset,
        "num_partitions": manifest.num_partitions,
        "rows_total": st["rows_total"],
        "bytes_total": st["bytes_total"],
        "row_skew_ratio": round(st["row_skew_ratio"], 3),
    }
    metrics = ckpt.read_metrics(args.root)
    if metrics:
        last = metrics[-1]
        out["last_epoch"] = {
            k: last[k]
            for k in ("epoch", "events_applied", "dead_lettered", "lag_offsets",
                      "skew_ratio", "dirty_total", "bytes_written", "payload_reads",
                      "compactions")
            if k in last
        }
    out["compaction"] = _compaction_status(args.root, manifest, metrics)

    from silk_ray.cdc.egress import consumer_lag, egress_storage

    def links_extras(st: dict) -> dict:
        # the committed links epoch's phase, task-wave and index-bytes record
        out = {"links_total": st.get("links_total")}
        path = ckpt.metrics_path(args.root, int(st["epoch"]), kind="links")
        if os.path.exists(path):
            with open(path) as f:
                record = json.load(f)
            out.update({k: record[k] for k in ("phases", "task_s", "index_bytes")
                        if k in record})
        return out

    extras = {
        "links": links_extras,
        "windows": lambda st: {"watermark_us": st.get("watermark_us")},
        "egress": lambda st: {"next_seq": st["next_seq"],
                              "consumer_lag": consumer_lag(args.root),
                              **egress_storage(args.root)},
    }
    stores: dict = {}
    for store in ckpt.STORES:
        st = store.read(args.root)
        if store is not ckpt.LAKE and st["epoch"]:  # the lake is reported above
            stores[store.name] = {"epoch": st["epoch"],
                                  **extras.get(store.name, lambda st: {})(st)}
    out["stores"] = stores
    out["storage"] = _dir_storage(args.root)
    # a store lagging the lake by >1 epoch points at a crashed catch-up
    out["store_lag_epochs"] = {
        name: manifest.epoch - int(s["epoch"]) for name, s in stores.items()
    }
    if getattr(args, "schema", False):
        from silk_ray.cdc.merge import lake_schema

        cur = lake_schema(args.root)
        out["schema"] = cur
        # evolution history over the retained time-travel window: only
        # epochs whose schema differs from the next one are listed
        history = {}
        prev = cur
        for e in range(manifest.epoch - 1, 0, -1):
            try:
                s = lake_schema(args.root, at_epoch=e)
            except Exception:
                break  # past the retention window
            if s != prev:
                history[e] = s
            prev = s
        if history:
            out["schema_history"] = {str(k): v for k, v in sorted(history.items())}
    print(json.dumps(out))
    return 0


def cmd_export_snapshot(args) -> int:
    _init_ray(args.num_cpus)
    from silk_ray.cdc.bootstrap import export_snapshot

    t0 = time.perf_counter()
    marker = export_snapshot(args.root, args.out, at_epoch=args.at_epoch)
    print(json.dumps({"command": "export-snapshot",
                      "seconds": round(time.perf_counter() - t0, 3), **marker}))
    return 0


def cmd_workflow(args) -> int:
    cfg = json.load(open(args.config))
    _init_ray(args.num_cpus)
    from silk_ray.pipelines.workflow import execute_workflow

    t0 = time.perf_counter()
    built = execute_workflow(cfg)
    sinks = {k: v["path"] for k, v in built.items() if isinstance(v, dict) and "path" in v}
    print(
        json.dumps(
            {"command": "workflow", "seconds": round(time.perf_counter() - t0, 3),
             "nodes": len(built), "sinks": sinks}
        )
    )
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="silk_ray")
    p.add_argument("--num-cpus", type=int, default=None)
    sub = p.add_subparsers(dest="command", required=True)

    pl = sub.add_parser("link", help="config-driven link generation (JSON spec or Silk-LSL XML)")
    pl.add_argument("--config", required=True)
    pl.add_argument("--interlink", default=None, help="LSL: which <Interlink id> to run")
    pl.add_argument("--output", default=None, help="LSL: override the <Outputs> path")
    pl.set_defaults(fn=cmd_link)

    pt = sub.add_parser("transform", help="config-driven transform execution")
    pt.add_argument("--config", required=True)
    pt.set_defaults(fn=cmd_transform)

    pw = sub.add_parser("workflow", help="execute a node-DAG workflow spec")
    pw.add_argument("--config", required=True)
    pw.set_defaults(fn=cmd_workflow)

    pc = sub.add_parser("cdc", help="tail a changelog into a lake (+ incremental links)")
    pc.add_argument("--root", required=True)
    pc.add_argument("--changelog", required=True)
    pc.add_argument("--rule", default=None)
    pc.add_argument("--epoch-size", type=int, default=100_000)
    pc.add_argument("--num-partitions", type=int, default=64)
    pc.add_argument("--block-partitions", type=int, default=64)
    pc.add_argument("--max-epochs", type=int, default=None)
    pc.add_argument(
        "--target-epoch-seconds", type=float, default=None,
        help="adaptive epoch sizing: steer each next window so epoch wall "
             "time approaches this target (growth damped at 4x/step), "
             "bounded by --min/--max-epoch-size",
    )
    pc.add_argument("--min-epoch-size", type=int, default=1_000)
    pc.add_argument("--max-epoch-size", type=int, default=None)
    pc.add_argument(
        "--maintain-clusters", action="store_true",
        help="also maintain the duplicate-cluster table per epoch (needs --rule)",
    )
    pc.add_argument(
        "--agg-view", default=None, metavar="SPEC.json",
        help="maintain a materialized aggregate view per epoch (cdc/matview.py spec)",
    )
    pc.add_argument(
        "--payload-schema", default=None, metavar="SCHEMA.json",
        help="typed ingest enforcement: JSON {column: ValueType id}; rows "
             "failing their declared type quarantine to the DLQ with "
             "reason invalid_type:<col>",
    )
    pc.add_argument(
        "--strict-columns", action="store_true",
        help="closed-world ingest (requires --payload-schema): rows carrying "
             "non-null values in undeclared columns quarantine with reason "
             "unknown_column:<col> instead of evolving the lake schema",
    )
    pc.add_argument(
        "--txn-atomic", action="store_true",
        help="binlog transaction atomicity: snap epoch windows to txn-column "
             "boundaries so no committed state exposes half a transaction "
             "(transactions must be contiguous in offset order)",
    )
    pc.add_argument(
        "--enrich", default=None, metavar="RULES.json",
        help="ingest-time enrichment: JSON list of transform-rule specs; "
             "each rule's target becomes a lake payload column, failing "
             "rows quarantine with reason enrich_error:<target>",
    )
    pc.add_argument(
        "--egress", action="store_true",
        help="emit the lake's own downstream CDC changelog per epoch "
             "(exactly-once, before/after images) under <root>/egress/",
    )
    pc.add_argument(
        "--egress-shards", type=int, default=16,
        help="key-hash shard count of the egress stream (fixed for the "
             "stream's lifetime)",
    )
    pc.add_argument(
        "--from-snapshot", default=None, metavar="PARQUET",
        help="bootstrap a FRESH lake from a parquet snapshot (file or dir) "
             "before tailing; needs --snapshot-offset",
    )
    pc.add_argument(
        "--snapshot-offset", type=int, default=None,
        help="changelog offset the snapshot is consistent as of; tailing resumes at offset+1",
    )
    pc.set_defaults(fn=cmd_cdc)

    pm = sub.add_parser(
        "cdc-multi",
        help="multi-table binlog: demux the changelog's tbl column into "
             "per-table streams (ROOT/demux) and tail each declared table's "
             "lake (ROOT/lakes/<tbl>)",
    )
    pm.add_argument("--root", required=True)
    pm.add_argument("--changelog", required=True)
    pm.add_argument(
        "--tables", required=True,
        help="comma-separated table names to ingest (others still demux and "
             "wait for a future consumer)",
    )
    pm.add_argument("--epoch-size", type=int, default=100_000)
    pm.add_argument("--num-partitions", type=int, default=16)
    pm.add_argument("--demux-epoch", type=int, default=500_000)
    pm.add_argument("--txn-atomic", action="store_true")
    pm.add_argument("--num-cpus", type=int, default=None)
    pm.set_defaults(fn=cmd_cdc_multi)

    pr = sub.add_parser(
        "repartition",
        help="change a committed lake's key-partition count (atomic, "
             "exactly-once-safe distributed rewrite; cdc/repartition.py)",
    )
    pr.add_argument("--root", required=True)
    pr.add_argument("--to", type=int, default=None, metavar="M",
                    help="new num_partitions; the next cdc run must pass this value")
    pr.add_argument("--stats", action="store_true",
                    help="print per-layout health (rows/bytes/skew, metadata only) "
                         "and a suggested partition count; no rewrite")
    pr.set_defaults(fn=cmd_repartition)

    pe = sub.add_parser(
        "erase",
        help="predicate erasure, CDC-natively: append D events for every "
             "matching live row to the changelog (cdc/erase.py); the next "
             "cdc run applies them through the normal merge path",
    )
    pe.add_argument("--root", required=True)
    pe.add_argument("--changelog", required=True,
                    help="the binlog DIRECTORY the erasure segment is appended to")
    pe.add_argument("--where", required=True, metavar="PRED",
                    help="JSON predicate: a condition or list of ANDed conditions "
                         '{"column","op","value"}; ops: == != < <= > >= contains prefix in. '
                         "Inline JSON or a file path.")
    pe.set_defaults(fn=cmd_erase)

    pu = sub.add_parser(
        "rewrite",
        help="SET ... WHERE ... CDC-natively: append U events carrying the "
             "full rewritten payload for every matching live row "
             "(cdc/erase.py rewrite_where); the next cdc run applies them",
    )
    pu.add_argument("--root", required=True)
    pu.add_argument("--changelog", required=True,
                    help="the binlog DIRECTORY the rewrite segment is appended to")
    pu.add_argument("--where", required=True, metavar="PRED",
                    help="JSON predicate (same form as erase)")
    pu.add_argument("--set", required=True, metavar="RULES", dest="set_rules",
                    help="JSON list of transform-rule specs (the enrichment DSL: "
                         '{"target", "input", ...}); each target overwrites or '
                         "adds a payload column. Inline JSON or a file path.")
    pu.set_defaults(fn=cmd_rewrite)

    ps = sub.add_parser(
        "export-snapshot",
        help="write the lake state (or an as-of-epoch state) as a clean "
             "partitioned parquet snapshot + _SNAPSHOT.json marker — the "
             "bootstrap-ready DR/migration artifact (cdc/bootstrap.py)",
    )
    ps.add_argument("--root", required=True)
    ps.add_argument("--out", required=True, help="fresh output directory")
    ps.add_argument("--at-epoch", type=int, default=None,
                    help="export a retained earlier epoch instead of the live state")
    ps.set_defaults(fn=cmd_export_snapshot)

    pst = sub.add_parser(
        "status",
        help="one-shot health JSON over the lake and every auxiliary store "
             "(metadata reads only; no Ray session)",
    )
    pst.add_argument("--root", required=True)
    pst.add_argument(
        "--schema", action="store_true",
        help="include the lake's unified payload schema (and each retained "
             "epoch's, when they differ) — parquet footers only",
    )
    pst.set_defaults(fn=cmd_status)

    args = p.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
