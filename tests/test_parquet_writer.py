"""One Parquet write policy for the engine's files
(``checkpoint.atomic_write_parquet``: zstd level 1, ``LAKE_ROW_GROUP``
row groups, statistics).

- no module under ``silk_ray/cdc/`` writes Parquet another way, except
  the changelog generator, which writes inputs;
- a lake whose chains hold files of an older codec (snappy, the
  pyarrow default an earlier writer used) reads as it is, and its
  compaction writes zstd.
"""

import glob
import os
import re

import pyarrow.parquet as pq

from silk_ray.cdc import chain
from silk_ray.cdc.engine import EngineConfig, run
from silk_ray.cdc.generator import make_base_table, make_changelog
from silk_ray.cdc.merge import partition_chains, state_sha256, state_table

CDC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "silk_ray", "cdc")


def test_no_parquet_write_outside_the_writer():
    direct = re.compile(r"\b(write_table|ParquetWriter|write_dataset)\b")
    hits = []
    for f in sorted(glob.glob(os.path.join(CDC, "*.py"))):
        if os.path.basename(f) in ("checkpoint.py", "generator.py"):
            continue
        with open(f) as src:
            hits += [(os.path.basename(f), n) for n, line in enumerate(src, 1)
                     if direct.search(line)]
    assert hits == []


def _codecs(path: str) -> set:
    md = pq.read_metadata(path)
    return {md.row_group(g).column(c).compression
            for g in range(md.num_row_groups) for c in range(md.num_columns)}


def test_snappy_chain_files_reconcile_and_compact_to_zstd(ray_session, tmp_path, monkeypatch):
    """Chain files rewritten under snappy (the bytes an older writer
    left) reconcile to the same state as the zstd lake, the run goes on
    from them, and the compaction that supersedes them writes zstd."""
    monkeypatch.setattr(chain, "COMPACT_AT", 3)
    log = make_changelog(make_base_table(80, seed=191), 600, seed=192)
    cfg = EngineConfig(epoch_size=100, num_partitions=2, gc=False)
    ref, mixed = str(tmp_path / "ref"), str(tmp_path / "mixed")
    for root in (ref, mixed):
        assert len(run(root, log, EngineConfig(**{**cfg.__dict__, "max_epochs": 2}))) == 2

    old = [f for files in partition_chains(mixed).values() for f in files]
    for f in old:
        pq.write_table(pq.read_table(f), f, compression="snappy")
        assert _codecs(f) == {"SNAPPY"}
    assert state_table(mixed).equals(state_table(ref))

    run(ref, log, cfg)
    run(mixed, log, cfg)
    assert state_sha256(mixed) == state_sha256(ref)
    chains = partition_chains(mixed)
    assert all(os.path.basename(files[0]).startswith("compact-") for files in chains.values())
    assert not set(old) & {f for files in chains.values() for f in files}
    for files in chains.values():
        for f in files:
            assert _codecs(f) == {"ZSTD"}, f
