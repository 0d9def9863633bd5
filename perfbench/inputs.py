"""Seeded benchmark inputs, cached per (workload, seed, generator
parameters).

Only generated inputs are cached: the base table (the bootstrap
snapshot, as Parquet) and the offset-sorted changelog segments. The
changelog's offsets are shifted past the base rows, so the base table
is the source as of offset ``n_base - 1`` and tailing resumes right
after it. Lakes, links and every other program output are made fresh in
each run.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from dataclasses import dataclass

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

# bump when the generator call below changes shape
FORMAT = 1


@dataclass
class Inputs:
    dir: str
    base_path: str  # Parquet snapshot for bootstrap_lake
    log_dir: str  # changelog segments, offset-sorted
    segments: list[str]
    n_base: int
    n_events: int  # changelog rows, duplicates included
    gen_s: float  # generation time when the cache was filled
    cache_hit: bool

    @property
    def as_of_offset(self) -> int:
        return self.n_base - 1

    def base(self) -> pa.Table:
        return pq.read_table(self.base_path)

    def changelog(self, columns=None) -> pa.Table:
        return pa.concat_tables(pq.read_table(s, columns=columns) for s in self.segments)


def gen_params(wl) -> dict:
    return {
        "format": FORMAT,
        "base_rows": wl.base_rows,
        "near_dup_frac": wl.near_dup_frac,
        "n_events": wl.n_events,
        "segment_events": wl.segment_events,
    }


def load_or_make(cache_root: str, wl, seed: int) -> Inputs:
    params = gen_params(wl)
    tag = hashlib.sha256(json.dumps(params, sort_keys=True).encode()).hexdigest()[:12]
    d = os.path.join(cache_root, f"{wl.name}-seed{seed}-{tag}")
    meta_path = os.path.join(d, "meta.json")
    hit = os.path.exists(meta_path)
    if not hit:
        _make(d, params, seed)
    with open(meta_path) as f:
        meta = json.load(f)
    log_dir = os.path.join(d, "log")
    return Inputs(
        dir=d,
        base_path=os.path.join(d, "base.parquet"),
        log_dir=log_dir,
        segments=[os.path.join(log_dir, s) for s in sorted(os.listdir(log_dir))],
        n_base=meta["n_base"],
        n_events=meta["n_events"],
        gen_s=meta["gen_s"],
        cache_hit=hit,
    )


def _make(d: str, params: dict, seed: int) -> None:
    from silk_ray.cdc.generator import make_base_table, make_changelog, write_changelog_segments

    t0 = time.perf_counter()
    tmp = f"{d}.tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    base = make_base_table(
        params["base_rows"], seed=2 * seed + 1, near_dup_frac=params["near_dup_frac"]
    )
    log = make_changelog(base, params["n_events"], seed=2 * seed + 2)
    log = log.set_column(0, "offset", pc.add(log["offset"], base.num_rows))
    pq.write_table(base, os.path.join(tmp, "base.parquet"))
    write_changelog_segments(log, os.path.join(tmp, "log"), segment_size=params["segment_events"])
    meta = {
        "params": params,
        "seed": seed,
        "n_base": base.num_rows,
        "n_events": log.num_rows,
        "gen_s": time.perf_counter() - t0,
    }
    with open(os.path.join(tmp, "meta.json"), "w") as f:
        json.dump(meta, f)
    shutil.rmtree(d, ignore_errors=True)
    os.replace(tmp, d)
