"""``python -m silk_ray`` CLI (the reference's Silk.main single-machine
entry, Silk.scala:221-233): config-driven link / transform / cdc."""

import json

import pyarrow.parquet as pq


def test_cli_link_transform_cdc(ray_session, tmp_path, capsys):
    from silk_ray.__main__ import main
    from silk_ray.cdc.generator import make_base_table, make_changelog, write_changelog_segments

    linkspec = {
        "source": {"path": "/root/testdata/sf0.001/documents.parquet",
                   "columns": ["doc_id", "text", "lang"], "uri_cols": ["doc_id"]},
        "rule": {"operator": {"metric": "equality", "threshold": 0.0,
                              "source": {"path": "lang"}, "target": {"path": "lang"}}},
        "link_limit": 50,
        "output": {"path": str(tmp_path / "links"), "format": "parquet"},
    }
    (tmp_path / "link.json").write_text(json.dumps(linkspec))
    assert main(["link", "--config", str(tmp_path / "link.json")]) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["command"] == "link"
    n = sum(pq.read_table(str(f)).num_rows for f in (tmp_path / "links").glob("*.parquet"))
    assert n == 50  # link_limit applied

    tspec = {
        "input": {"path": "/root/testdata/sf0.001/documents.parquet",
                  "columns": ["doc_id", "lang"]},
        "rules": [{"target": "lang_norm",
                   "input": {"transform": "lowerCase", "inputs": [{"path": "lang"}]}}],
        "output": {"path": str(tmp_path / "tout")},
    }
    (tmp_path / "t.json").write_text(json.dumps(tspec))
    assert main(["transform", "--config", str(tmp_path / "t.json")]) == 0
    n = sum(pq.read_table(str(f)).num_rows for f in (tmp_path / "tout").glob("*.parquet"))
    assert n == 500

    base = make_base_table(50, seed=5)
    log = make_changelog(base, 200, seed=6)
    write_changelog_segments(log, str(tmp_path / "cl"), segment_size=100)
    assert main(["cdc", "--root", str(tmp_path / "lake"), "--changelog", str(tmp_path / "cl"),
                 "--epoch-size", "100", "--num-partitions", "2", "--block-partitions", "4"]) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["events_applied"] == 200
    assert out["dead_lettered"] == 0
    assert out["lag_offsets"] == 0


def test_cli_cdc_bootstrap_and_agg_view(ray_session, tmp_path, capsys):
    """--from-snapshot/--snapshot-offset bootstrap a fresh lake and tail
    only offsets > S; --agg-view maintains the materialized view. End
    state must equal a plain full tail from offset 0."""
    import pytest

    from silk_ray.__main__ import main
    from silk_ray.cdc.generator import make_base_table, make_changelog, write_changelog_segments
    from silk_ray.cdc.matview import agg_table
    from silk_ray.cdc.merge import state_sha256
    from tests.test_bootstrap import _snapshot_at

    base = make_base_table(50, seed=7)
    log = make_changelog(base, 300, seed=8)
    write_changelog_segments(log, str(tmp_path / "cl"), segment_size=100)
    s = 149
    snap = _snapshot_at(log, s)
    pq.write_table(snap, str(tmp_path / "snap.parquet"))
    (tmp_path / "agg.json").write_text(json.dumps(
        {"group_by": ["lang"],
         "measures": {"sum_chars": ["sum_strlen", "content"]},
         "count_col": "n_docs", "num_shards": 4}))

    boot = str(tmp_path / "boot")
    common = ["--epoch-size", "100", "--num-partitions", "2", "--block-partitions", "4",
              "--agg-view", str(tmp_path / "agg.json")]
    assert main(["cdc", "--root", boot, "--changelog", str(tmp_path / "cl"),
                 "--from-snapshot", str(tmp_path / "snap.parquet"),
                 "--snapshot-offset", str(s)] + common) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["bootstrap"] == {"rows": snap.num_rows, "as_of_offset": s}
    assert out["events_applied"] == 150  # only offsets > s were tailed
    assert out["agg_groups"] == agg_table(boot).num_rows > 0

    full = str(tmp_path / "full")
    assert main(["cdc", "--root", full, "--changelog", str(tmp_path / "cl")] + common) == 0
    capsys.readouterr()
    assert state_sha256(boot) == state_sha256(full)
    a, b = agg_table(boot), agg_table(full)
    assert a.select(sorted(a.column_names)).equals(b.select(sorted(b.column_names)))

    with pytest.raises(SystemExit, match="snapshot-offset"):
        main(["cdc", "--root", str(tmp_path / "x"), "--changelog", str(tmp_path / "cl"),
              "--from-snapshot", str(tmp_path / "snap.parquet")] + common)


def test_cli_cdc_maintain_clusters(ray_session, tmp_path, capsys):
    """--maintain-clusters drives cdc/clusters.py through the CLI; the
    final maintained table equals batch CC over the final link store."""
    import json

    from silk_ray.__main__ import main
    from silk_ray.cdc.clusters import clusters_table, read_clusterstate
    from silk_ray.cdc.generator import (
        make_base_table,
        make_changelog,
        write_changelog_segments,
    )
    from silk_ray.cdc.incremental import links_table
    from silk_ray.pipelines.rules import BENCH_RULE
    from tests.test_clusters import _batch_cc

    rule = {k: v for k, v in BENCH_RULE.items() if k != "filter_limit"}
    (tmp_path / "rule.json").write_text(json.dumps(rule))
    base = make_base_table(50, seed=5, near_dup_frac=0.3)
    log = make_changelog(base, 200, seed=6)
    write_changelog_segments(log, str(tmp_path / "cl"), segment_size=100)
    root = str(tmp_path / "lake")
    assert main(["cdc", "--root", root, "--changelog", str(tmp_path / "cl"),
                 "--epoch-size", "100", "--num-partitions", "2", "--block-partitions", "4",
                 "--rule", str(tmp_path / "rule.json"), "--maintain-clusters"]) == 0
    capsys.readouterr()
    assert read_clusterstate(root)["epoch"] == 2
    t = clusters_table(root)
    maintained = dict(zip(t["uri"].to_pylist(), t["cluster_id"].to_pylist()))
    assert maintained == _batch_cc(links_table(root))


def test_cli_cdc_egress(ray_session, tmp_path, capsys):
    """--egress drives cdc/egress.py through the CLI; feeding the
    emitted stream to a second CLI run reproduces the lake state."""
    from silk_ray.__main__ import main
    from silk_ray.cdc.egress import egress_as_changelog, egress_table
    from silk_ray.cdc.generator import (
        make_base_table,
        make_changelog,
        write_changelog_segments,
    )
    from silk_ray.cdc.merge import state_sha256

    base = make_base_table(50, seed=9)
    log = make_changelog(base, 300, seed=10)
    write_changelog_segments(log, str(tmp_path / "cl"), segment_size=100)
    root = str(tmp_path / "lake")
    assert main(["cdc", "--root", root, "--changelog", str(tmp_path / "cl"),
                 "--epoch-size", "100", "--num-partitions", "2",
                 "--block-partitions", "4", "--egress", "--egress-shards", "4"]) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["egress"]["epoch"] == 3
    stream = egress_table(root)
    assert out["egress"]["next_seq"] == stream.num_rows > 0

    pq.write_table(egress_as_changelog(stream), str(tmp_path / "downstream.parquet"))
    consumer = str(tmp_path / "consumer")
    assert main(["cdc", "--root", consumer,
                 "--changelog", str(tmp_path / "downstream.parquet"),
                 "--epoch-size", "200", "--num-partitions", "3",
                 "--block-partitions", "4"]) == 0
    capsys.readouterr()
    assert state_sha256(consumer) == state_sha256(root)


def test_cli_repartition_roundtrip(ray_session, tmp_path, capsys):
    """`repartition --to M` changes a committed lake's layout through
    the CLI; the state is unchanged and the next cdc run must pass the
    new pinned count."""
    import json

    from silk_ray.__main__ import main
    from silk_ray.cdc.generator import make_base_table, make_changelog, write_changelog_segments
    from silk_ray.cdc.merge import state_sha256

    base = make_base_table(40, seed=9)
    log = make_changelog(base, 300, seed=10)
    write_changelog_segments(log, str(tmp_path / "cl"), segment_size=150)
    root = str(tmp_path / "lake")
    assert main(["cdc", "--root", root, "--changelog", str(tmp_path / "cl"),
                 "--epoch-size", "150", "--num-partitions", "2",
                 "--max-epochs", "1"]) == 0
    capsys.readouterr()
    sha = state_sha256(root)

    assert main(["repartition", "--root", root, "--to", "5"]) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["repartition"] == {"from": 2, "to": 5}
    assert state_sha256(root) == sha

    # resume the tail under the new pinned count
    assert main(["cdc", "--root", root, "--changelog", str(tmp_path / "cl"),
                 "--epoch-size", "150", "--num-partitions", "5"]) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["events_applied"] == 150
    assert out["lag_offsets"] == 0


def test_cli_status(ray_session, tmp_path, capsys):
    """`status` is a no-Ray health endpoint over every store."""
    import json

    from silk_ray.__main__ import main
    from silk_ray.cdc.generator import make_base_table, make_changelog, write_changelog_segments

    base = make_base_table(40, seed=13)
    log = make_changelog(base, 250, seed=14)
    write_changelog_segments(log, str(tmp_path / "cl"), segment_size=125)
    root = str(tmp_path / "lake")

    # empty root: epoch 0, no crash
    assert main(["status", "--root", root]) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["lake"] == {"epoch": 0}

    assert main(["cdc", "--root", root, "--changelog", str(tmp_path / "cl"),
                 "--epoch-size", "125", "--num-partitions", "3",
                 "--egress"]) == 0
    capsys.readouterr()
    assert main(["status", "--root", root]) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["lake"]["epoch"] == 2
    assert out["lake"]["num_partitions"] == 3
    assert out["lake"]["rows_total"] > 0
    assert out["last_epoch"]["lag_offsets"] == 0
    assert out["stores"]["egress"]["epoch"] == 2
    assert out["store_lag_epochs"]["egress"] == 0


def test_cli_status_storage_per_directory(ray_session, tmp_path, capsys):
    """`status` reports on-disk bytes and files under each top-level
    data directory; the lake's bytes are the files under partitions/."""
    import glob
    import json
    import os

    from silk_ray.__main__ import main
    from silk_ray.cdc.engine import EngineConfig, run
    from silk_ray.cdc.generator import make_base_table, make_changelog

    log = make_changelog(make_base_table(40, seed=31), 300, seed=32)
    root = str(tmp_path / "lake")
    assert len(run(root, log, EngineConfig(epoch_size=100, num_partitions=3))) == 3
    assert main(["status", "--root", root]) == 0
    storage = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["storage"]
    assert set(storage) == {"partitions", "blockmap", "links", "clusters", "aggview",
                            "egress", "windows", "_metrics"}
    assert storage["partitions"]["files"] > 0 and storage["partitions"]["bytes"] > 0
    assert storage["_metrics"]["files"] == 3
    parts = glob.glob(os.path.join(root, "partitions", "*", "*.parquet"))
    assert storage["partitions"]["files"] == len(parts)
    assert storage["partitions"]["bytes"] == sum(map(os.path.getsize, parts))
    assert not os.path.exists(os.path.join(root, "summaries"))


def test_cli_status_bytes_written(ray_session, tmp_path, capsys, monkeypatch):
    """Each epoch record's ``bytes_written`` is the size of the delta
    and compact files the merge created in it, and ``status`` prints
    the last one."""
    import glob
    import json
    import os

    from silk_ray.__main__ import main
    from silk_ray.cdc import chain, checkpoint as ckpt
    from silk_ray.cdc.engine import EngineConfig, run
    from silk_ray.cdc.generator import make_base_table, make_changelog

    monkeypatch.setattr(chain, "COMPACT_AT", 2)
    log = make_changelog(make_base_table(40, seed=33), 400, seed=34)
    root = str(tmp_path / "lake")
    assert len(run(root, log, EngineConfig(epoch_size=100, num_partitions=3, gc=False))) == 4
    records = ckpt.read_metrics(root)
    for r in records:
        e = r["epoch"]
        made = glob.glob(os.path.join(root, "partitions", "*", f"*-{e:06d}.parquet"))
        assert r["bytes_written"] == sum(map(os.path.getsize, made)) > 0, e
    assert glob.glob(os.path.join(root, "partitions", "*", "compact-*.parquet"))
    capsys.readouterr()
    assert main(["status", "--root", root]) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["last_epoch"]["bytes_written"] == records[-1]["bytes_written"]


def test_cli_status_last_epoch_with_links(ray_session, tmp_path, capsys):
    """With links on, `status`'s last_epoch is the last MERGE record
    (``_metrics/epoch-E.json``), not the link record written after it;
    its ``payload_reads`` is 0, as the link index is the only reader of
    the change set and takes no old payload."""
    import json

    from silk_ray.__main__ import main
    from silk_ray.cdc.engine import EngineConfig, run
    from silk_ray.cdc.generator import make_base_table, make_changelog
    from silk_ray.pipelines.rules import BENCH_RULE

    rule = {k: v for k, v in BENCH_RULE.items() if k != "filter_limit"}
    log = make_changelog(make_base_table(50, seed=9, near_dup_frac=0.3), 200, seed=10)
    root = str(tmp_path / "lake")
    ms = run(root, log, EngineConfig(epoch_size=100, num_partitions=2,
                                     n_block_partitions=4, rule_spec=rule))
    assert len(ms) == 2 and all("links" in m for m in ms)
    capsys.readouterr()
    assert main(["status", "--root", root]) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["last_epoch"]["epoch"] == ms[-1]["epoch"]
    assert out["last_epoch"]["events_applied"] == ms[-1]["events_applied"]
    assert out["last_epoch"]["payload_reads"] == 0
    assert out["stores"]["links"]["epoch"] == 2
    assert "old_keys" in out["stores"]["links"]["phases"]


def test_cli_status_reports_link_metrics(ray_session, tmp_path, capsys):
    """`status` reports the last links epoch's ``phases``, ``task_s``
    (pair counts included) and ``index_bytes`` under ``stores.links``,
    read from that epoch's ``_metrics/links-E.json`` record."""
    import json
    import os

    from silk_ray.__main__ import main
    from silk_ray.cdc.engine import EngineConfig, run
    from silk_ray.cdc.generator import make_base_table, make_changelog
    from silk_ray.pipelines.rules import BENCH_RULE

    rule = {k: v for k, v in BENCH_RULE.items() if k != "filter_limit"}
    log = make_changelog(make_base_table(50, seed=21, near_dup_frac=0.5), 200, seed=22)
    root = str(tmp_path / "lake")
    ms = run(root, log, EngineConfig(epoch_size=100, num_partitions=2,
                                     n_block_partitions=4, rule_spec=rule))
    capsys.readouterr()
    assert main(["status", "--root", root]) == 0
    links = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["stores"]["links"]
    assert links["epoch"] == ms[-1]["epoch"]
    with open(os.path.join(root, "_metrics", f"links-{links['epoch']:06d}.json")) as f:
        record = json.load(f)
    assert links["phases"] == record["phases"] == ms[-1]["links"]["phases"]
    assert links["task_s"] == record["task_s"]
    assert 0 <= links["task_s"]["pairs_kept"] <= links["task_s"]["pairs"]
    assert links["task_s"]["pairs"] > 0
    # the link index's bytes: a walk of the files the linkstate names,
    # and of those the previous state did not name
    from silk_ray.cdc.incremental import read_linkstate, read_linkstate_at

    def files(state):
        return {"postings": [f for v in state["blockmap"].values() for f in v],
                "entities": state["entities"]}

    size = lambda fs: sum(os.path.getsize(os.path.join(root, f)) for f in fs)
    now, prev = files(read_linkstate(root)), files(read_linkstate_at(root, links["epoch"] - 1))
    assert links["index_bytes"] == record["index_bytes"] == {
        k: {"live": size(now[k]), "added": size(set(now[k]) - set(prev[k]))} for k in now
    }
    assert all(v["live"] >= v["added"] > 0 for v in links["index_bytes"].values())


def test_cli_status_schema(ray_session, tmp_path, capsys):
    """`status --schema` reports the unified payload schema from
    parquet footers, and the evolution history across retained epochs
    (the pre-evolution epoch's schema lacks `branch`)."""
    import json

    from silk_ray.__main__ import main
    from silk_ray.cdc.generator import make_base_table, make_changelog, write_changelog_segments

    base = make_base_table(40, seed=15)
    log = make_changelog(base, 250, seed=16, evolve_at=125)
    # drop the all-null branch column from the pre-evolution window so
    # epoch 1's files genuinely lack it
    import pyarrow.compute as pc

    pre = log.filter(pc.less(log["offset"], 125)).drop_columns(["branch"])
    post = log.filter(pc.greater_equal(log["offset"], 125))
    write_changelog_segments(pre, str(tmp_path / "cl"), segment_size=125)
    write_changelog_segments(post, str(tmp_path / "cl2"), segment_size=125)
    root = str(tmp_path / "lake")
    from silk_ray.cdc.engine import EngineConfig, run

    run(root, str(tmp_path / "cl"), EngineConfig(
        epoch_size=125, num_partitions=3, retain_epochs=3))
    run(root, str(tmp_path / "cl2"), EngineConfig(
        epoch_size=125, num_partitions=3, retain_epochs=3))
    assert main(["status", "--root", root, "--schema"]) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    names = [n for n, _ in out["schema"]]
    assert "branch" in names and "content" in names
    assert all(n not in names for n in ("_offset", "_deleted", "_kh"))
    # epoch 1 predates the evolution: its schema has no branch
    hist = out.get("schema_history", {})
    assert "1" in hist
    assert "branch" not in [n for n, _ in hist["1"]]
