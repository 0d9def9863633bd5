"""Chain compaction (``chain.compact``): one size rule for the lake's,
the postings' and the entity chain's chains.

- the rule: a chain whose non-base files hold fewer bytes than its base
  merges only those files into one ``compact-E`` file (the chain becomes
  ``[base, compact-E]``); otherwise, a tiny or empty base included, it
  rewrites the whole chain as one file;
- the epoch records: ``_metrics/epoch-E.json`` counts the lake's
  compactions of the epoch per kind with the bytes each kind wrote,
  ``_metrics/links-E.json`` the postings' and the entity chain's, and
  ``status`` sums them and reports each chain kind's base against its
  non-base bytes;
- a crash after a merge-only compaction wrote its file, before the
  manifest commit, reruns to the same bytes, ``state_sha256`` and links
  as an uninterrupted run.
"""

import copy
import glob
import hashlib
import json
import os

import pyarrow as pa
import pytest

from silk_ray.cdc import chain
from silk_ray.cdc import checkpoint as ckpt
from silk_ray.cdc.engine import EngineConfig, run
from silk_ray.cdc.generator import make_base_table, make_changelog
from silk_ray.cdc.incremental import links_table, read_linkstate_at
from silk_ray.cdc.merge import state_sha256
from silk_ray.pipelines.rules import BENCH_RULE

RULE = copy.deepcopy(BENCH_RULE)
RULE.pop("filter_limit", None)


def _lake_table(keys, version: int = 0, deleted=()) -> pa.Table:
    """Lake chain rows for ``keys`` (ints), ``_deleted`` set on those in
    ``deleted``, sorted as the lake writes them."""
    return pa.table({
        "repo": pa.array(["r"] * len(keys)),
        "path": pa.array([f"k{k:04d}" for k in keys]),
        "content": pa.array([hashlib.sha256(f"{version}-{k}".encode()).hexdigest()
                             for k in keys]),
        "_offset": pa.array([version * 10_000 + k for k in keys], pa.int64()),
        "_deleted": pa.array([k in deleted for k in keys]),
        "_kh": pa.array(list(keys), pa.int64()),
    }).sort_by(list(chain.LAKE.order))


def _chain(root: str, tables: list[pa.Table]) -> list[str]:
    files = []
    for i, t in enumerate(tables):
        rel = os.path.join("partitions", "p=00000", f"epoch-{i + 1:06d}.parquet")
        ckpt.atomic_write_parquet(t, os.path.join(root, rel))
        files.append(rel)
    return files


def _compact(root: str, files: list[str], epoch: int = 99):
    """``chain.compact`` of the lake chain ``files``, with the file lists
    it read."""
    import pyarrow.parquet as pq

    reads = []

    def read(fs):
        reads.append(list(fs))
        return [pq.read_table(os.path.join(root, f)) for f in fs]

    return (*chain.compact(root, files, chain.LAKE, 0, epoch, read), reads)


def _size(root: str, files: list[str]) -> int:
    return sum(os.path.getsize(os.path.join(root, f)) for f in files)


def test_size_rule_merges_below_the_base_and_rewrites_at_or_above(tmp_path):
    """Non-base bytes under the base's: only ``files[1:]`` are read and
    merged, and the chain is ``[base, compact-E]``. Non-base bytes equal
    to or above the base's, or an empty or one-row base: the whole chain
    is read and rewritten as one file of live rows. Either way the
    reconciled rows do not change."""
    import pyarrow.parquet as pq

    def reconciled(root, files):
        live = chain.reconcile([pq.read_table(os.path.join(root, f)) for f in files],
                               chain.LAKE)
        return live.select(sorted(live.column_names)).sort_by("path")

    base = _lake_table(range(1000))
    deltas = [_lake_table(range(i * 7, i * 7 + 20), version=i + 1, deleted={i * 7})
              for i in range(3)]
    cases = {
        "merge": [base, *deltas],
        # a delta that copies the base: equal bytes, so the base is rewritten
        "equal": [base, base],
        "empty": [base.schema.empty_table(), *deltas],
        "tiny": [_lake_table([3]), *deltas],
    }
    for name, tables in cases.items():
        root = str(tmp_path / name)
        files = _chain(root, tables)
        want = reconciled(root, files)
        rest, head = _size(root, files[1:]), _size(root, files[:1])
        new, kind, nbytes, reads = _compact(root, files)
        compact = os.path.join("partitions", "p=00000", "compact-000099.parquet")
        assert nbytes == os.path.getsize(os.path.join(root, compact)), name
        assert reconciled(root, new).equals(want), name
        if name == "equal":
            assert rest == head
        if name == "merge":
            assert rest < head and kind == "merge"
            assert reads == [files[1:]] and new == [files[0], compact]
            got = pq.read_table(os.path.join(root, compact))
            assert got.equals(chain.merged([pq.read_table(os.path.join(root, f))
                                            for f in files[1:]], chain.LAKE))
            # the tombstones stay: the base holds those keys
            assert sum(got["_deleted"].to_pylist()) == 3
        else:
            assert rest >= head and kind == "rewrite", name
            assert reads == [files] and new == [compact], name
            assert not any(pq.read_table(os.path.join(root, compact))["_deleted"].to_pylist())


def _metrics(root: str, kind: str) -> dict[int, dict]:
    out = {}
    for path in glob.glob(os.path.join(root, "_metrics", f"{kind}-*.json")):
        with open(path) as f:
            record = json.load(f)
        out[int(record["epoch"])] = record
    return out


def _compacted(chains: list[list[str]], epoch: int) -> list[list[str]]:
    """The chains (file lists relative to the root) that epoch
    ``epoch`` compacted: those ending in its ``compact-E`` file."""
    return [fs for fs in chains if fs and fs[-1].endswith(f"compact-{epoch:06d}.parquet")]


def _tally(root: str, chains: list[list[str]]) -> dict:
    """The ``compactions`` record the compacted ``chains`` show: a
    one-file chain is a base rewrite, a two-file one a merge."""
    return chain.count_compactions(
        ("rewrite" if len(fs) == 1 else "merge", os.path.getsize(os.path.join(root, fs[-1])))
        for fs in chains)


@pytest.fixture(scope="module")
def log() -> pa.Table:
    return make_changelog(make_base_table(300, seed=201, near_dup_frac=0.3), 1500, seed=202)


def _cfg(**kw) -> EngineConfig:
    base = dict(epoch_size=60, num_partitions=2, n_block_partitions=2, rule_spec=RULE, gc=False)
    base.update(kw)
    return EngineConfig(**base)


def _drive(root: str, log: pa.Table, epochs: int) -> None:
    """A large first epoch, then small ones: the chains first merge their
    deltas, then rewrite their bases once the deltas outgrow them."""
    run(root, log, _cfg(epoch_size=600, max_epochs=1))
    run(root, log, _cfg(max_epochs=epochs - 1))


def test_epoch_records_count_both_kinds(ray_session, tmp_path, log, capsys, monkeypatch):
    """Every epoch record counts its compactions per kind with the bytes
    each wrote, as the committed chains show them, for the lake and for
    both link-index chain kinds; after every compaction the chain's
    non-base bytes are under its base's. A run crosses both kinds, and
    ``status`` sums the records and reports the live chains' bytes."""
    from silk_ray.__main__ import main

    monkeypatch.setattr(chain, "COMPACT_AT", 3)
    root = str(tmp_path / "lake")
    _drive(root, log, 14)
    lake, links = _metrics(root, "epoch"), _metrics(root, "links")
    kinds = {"lake": set(), "postings": set(), "entities": set()}
    for e in sorted(lake):
        state = read_linkstate_at(root, e)
        chains = {
            "lake": [info["files"] for info in ckpt.read_manifest_at(root, e).partitions.values()],
            "postings": list(state["blockmap"].values()),
            "entities": [state["entities"]],
        }
        for name, live in chains.items():
            done = _compacted(live, e)
            record = lake[e]["compactions"] if name == "lake" else links[e]["compactions"][name]
            assert record == _tally(root, done), (e, name)
            kinds[name] |= {"rewrite" if len(fs) == 1 else "merge" for fs in done}
            assert all(chain.chain_bytes(root, [fs])["max_ratio"] < 1 for fs in done), (e, name)
    assert kinds == {name: {"merge", "rewrite"} for name in kinds}, kinds

    assert main(["status", "--root", root]) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["compaction"]
    final = ckpt.read_manifest(root)
    state = read_linkstate_at(root, final.epoch)
    live = {"lake": [i["files"] for i in final.partitions.values()],
            "postings": list(state["blockmap"].values()), "entities": [state["entities"]]}
    for name, chains in live.items():
        records = [r["compactions"] for r in lake.values()] if name == "lake" else [
            r["compactions"][name] for r in links.values()]
        for kind in ("merge", "rewrite"):
            for field in ("count", "bytes"):
                assert out[name]["compactions"][kind][field] == sum(
                    r[kind][field] for r in records), (name, kind, field)
        base = sum(os.path.getsize(os.path.join(root, fs[0])) for fs in chains if fs)
        rest = sum(os.path.getsize(os.path.join(root, f)) for fs in chains for f in fs[1:])
        assert (out[name]["base_bytes"], out[name]["delta_bytes"]) == (base, rest), name


def test_crash_after_a_merge_before_the_manifest_commit(ray_session, tmp_path, log,
                                                        monkeypatch):
    """A crash after a merge-only lake compaction wrote its file, before
    the manifest commit: the rerun writes the byte-identical file and
    ends with the uninterrupted run's ``state_sha256`` and links."""
    from silk_ray.cdc import merge

    monkeypatch.setattr(chain, "COMPACT_AT", 3)
    straight = str(tmp_path / "straight")
    _drive(straight, log, 6)
    records = _metrics(straight, "epoch")
    epoch = min(e for e, r in records.items()
                if r["compactions"]["merge"]["count"] and not r["compactions"]["rewrite"]["count"])
    merged = sorted(glob.glob(os.path.join(straight, "partitions", "*",
                                           f"compact-{epoch:06d}.parquet")))
    want = {os.path.relpath(f, straight): open(f, "rb").read() for f in merged}
    assert want

    root = str(tmp_path / "lake")
    _drive(root, log, epoch - 1)
    real = merge.ckpt.commit_manifest

    def crash(*_a, **_k):
        raise RuntimeError("crash before the manifest commit")

    monkeypatch.setattr(merge.ckpt, "commit_manifest", crash)
    with pytest.raises(RuntimeError, match="crash before"):
        run(root, log, _cfg(max_epochs=1))
    monkeypatch.setattr(merge.ckpt, "commit_manifest", real)
    assert ckpt.read_manifest(root).epoch == epoch - 1
    assert {f: open(os.path.join(root, f), "rb").read() for f in want} == want
    merge._CHANGES.clear()
    run(root, log, _cfg(max_epochs=6 - epoch + 1))
    assert ckpt.read_manifest(root).epoch == 6
    assert {f: open(os.path.join(root, f), "rb").read() for f in want} == want
    assert state_sha256(root) == state_sha256(straight)
    assert links_table(root).equals(links_table(straight))
