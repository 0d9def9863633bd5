"""CDC / incremental-ingest engine: changelog tail → Parquet lake upsert.

Implements the `north_rule` design (BASELINE.json): binlog-shaped
insert/update/delete events on (repo, path, commit) keys are tailed by
offset window, key-partitioned, and merge-applied into Parquet lake
partitions with per-partition high-water marks, a checkpointed offset
log and atomic manifest commits; incremental re-linking re-scores only
blocking keys that changed.
"""

import functools


@functools.cache
def remote(fn):
    """``fn``'s ``ray.remote`` task wrapper, made once per process. Ray
    exports a wrapper's function to the GCS on its first call, so a
    wrapper made per call would be exported again every epoch."""
    import ray

    return ray.remote(fn)
