"""Lake-table checkpointing: atomic manifest + offset log.

Exactly-once design (north_rule; SURVEY.md §7.1 step 5):

- lake layout::

    lake_root/
      _manifest.json                 # current epoch + per-partition file & HWM (atomic swap)
      _checkpoints/offsets-{E}.json  # append-only commit log (one per epoch)
      _metrics/epoch-{E}.json        # per-epoch lineage + metrics
      partitions/p={P}/epoch-{E}.parquet    # per-epoch DELTA (upserts + tombstones)
      partitions/p={P}/compact-{E}.parquet  # compacted chain (LSM)
      dirty/p={P}/epoch-{E}.parquet  # changed-entity delta (incremental linking)
      links/...                      # maintained link table

- an epoch commit = all partition files written (deterministic content,
  so task retries / re-runs are idempotent) → manifest written to a
  temp file → ``os.replace`` (atomic on POSIX) → offset-log append.
  A crash before the swap leaves the old manifest: replaying the epoch
  rewrites byte-identical files and commits once.
- per-partition high-water marks: events with ``offset <= hwm[p]`` are
  skipped inside the merge task, making duplicate delivery a no-op.
"""

from __future__ import annotations

import json
import os


class Manifest:
    def __init__(
        self,
        epoch: int,
        next_offset: int,
        partitions: dict[int, dict],
        prev_files: list[str] | None = None,
        num_partitions: int | None = None,
    ):
        self.epoch = epoch
        self.next_offset = next_offset
        # pid -> {"files": [relpath, ...] (delta chain, oldest first),
        #         "hwm": int, "rows": int, "epoch": int}
        self.partitions = partitions
        # chain files of the PREVIOUS manifest: GC retention for the
        # one-epoch rollback/crash window (same design as the link
        # store's links_files_prev)
        self.prev_files = prev_files or []
        # the key-partition count this lake's layout was written with
        # (pid = crc32(key) % num_partitions). Pinned at first commit;
        # merging with a different count would scatter keys across two
        # layouts (a stale row in the old pid shadowed by nothing), so
        # run_epoch validates against it and repartition_lake() is the
        # only sanctioned way to change it. None on pre-pinning lakes.
        self.num_partitions = num_partitions

    @staticmethod
    def empty() -> "Manifest":
        return Manifest(epoch=0, next_offset=0, partitions={})

    def chain_files(self) -> list[str]:
        return [f for info in self.partitions.values() for f in info.get("files", [])]

    def to_dict(self) -> dict:
        return {
            "epoch": self.epoch,
            "next_offset": self.next_offset,
            "partitions": {str(k): v for k, v in self.partitions.items()},
            "prev_files": self.prev_files,
            "num_partitions": self.num_partitions,
        }

    @staticmethod
    def from_dict(d: dict) -> "Manifest":
        return Manifest(
            epoch=d["epoch"],
            next_offset=d["next_offset"],
            partitions={int(k): v for k, v in d["partitions"].items()},
            prev_files=d.get("prev_files", []),
            num_partitions=d.get("num_partitions"),
        )


def manifest_path(root: str) -> str:
    return os.path.join(root, "_manifest.json")


def read_manifest(root: str) -> Manifest:
    p = manifest_path(root)
    if not os.path.exists(p):
        return Manifest.empty()
    with open(p) as f:
        return Manifest.from_dict(json.load(f))


def atomic_write_json(path: str, obj) -> None:
    """Durable write-then-rename of a small JSON record: the content is
    flushed and fsynced before the ``os.replace`` publishes it."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(obj, f, sort_keys=True)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)


def commit_manifest(root: str, manifest: Manifest, window: tuple[int, int]) -> None:
    """Atomic epoch commit: manifest swap + offset-log append."""
    os.makedirs(root, exist_ok=True)
    tmp = manifest_path(root) + ".tmp"
    with open(tmp, "w") as f:
        json.dump(manifest.to_dict(), f, sort_keys=True)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, manifest_path(root))

    ckpt_dir = os.path.join(root, "_checkpoints")
    os.makedirs(ckpt_dir, exist_ok=True)
    log_entry = {
        "epoch": manifest.epoch,
        "window": list(window),
        "next_offset": manifest.next_offset,
        "hwm": {str(k): v["hwm"] for k, v in manifest.partitions.items()},
    }
    log_tmp = os.path.join(ckpt_dir, f"offsets-{manifest.epoch:06d}.json.tmp")
    with open(log_tmp, "w") as f:
        json.dump(log_entry, f, sort_keys=True)
    os.replace(log_tmp, os.path.join(ckpt_dir, f"offsets-{manifest.epoch:06d}.json"))

    # per-epoch manifest snapshot: enables as-of-epoch (time-travel)
    # reads within the GC retention window. Delta-sized metadata (a few
    # KB of file names per epoch); gc_lake trims snapshots outside the
    # retention window together with the chain files they reference.
    snap_dir = os.path.join(root, "_manifests")
    os.makedirs(snap_dir, exist_ok=True)
    snap_tmp = os.path.join(snap_dir, f"manifest-{manifest.epoch:06d}.json.tmp")
    with open(snap_tmp, "w") as f:
        json.dump(manifest.to_dict(), f, sort_keys=True)
    os.replace(snap_tmp, os.path.join(snap_dir, f"manifest-{manifest.epoch:06d}.json"))


def read_manifest_at(root: str, epoch: int) -> Manifest:
    """The manifest as committed at ``epoch`` (time-travel read).

    Raises a loud error when the snapshot is gone — either the epoch
    never committed or it fell out of the GC retention window
    (``gc_lake(retain_epochs=K)`` keeps the last K+1 snapshots)."""
    p = os.path.join(root, "_manifests", f"manifest-{epoch:06d}.json")
    if not os.path.exists(p):
        current = read_manifest(root).epoch
        raise FileNotFoundError(
            f"no manifest snapshot for epoch {epoch} under {root!r} "
            f"(current epoch {current}): the epoch never committed or its "
            "snapshot was GC'd outside the retention window "
            "(EngineConfig.retain_epochs / gc_lake(retain_epochs=...))"
        )
    with open(p) as f:
        return Manifest.from_dict(json.load(f))


def write_metrics(root: str, epoch: int, metrics: dict) -> None:
    d = os.path.join(root, "_metrics")
    os.makedirs(d, exist_ok=True)
    tmp = os.path.join(d, f"epoch-{epoch:06d}.json.tmp")
    with open(tmp, "w") as f:
        json.dump(metrics, f, sort_keys=True)
    os.replace(tmp, os.path.join(d, f"epoch-{epoch:06d}.json"))


def read_metrics(root: str) -> list[dict]:
    d = os.path.join(root, "_metrics")
    if not os.path.isdir(d):
        return []
    out = []
    for name in sorted(os.listdir(d)):
        if name.endswith(".json"):
            with open(os.path.join(d, name)) as f:
                out.append(json.load(f))
    return out


def partition_dir(root: str, pid: int) -> str:
    return os.path.join(root, "partitions", f"p={pid:05d}")


def partition_file(root: str, pid: int, epoch: int) -> str:
    """Per-epoch DELTA file of a lake partition (LSM chain member)."""
    return os.path.join(partition_dir(root, pid), f"epoch-{epoch:06d}.parquet")


def compact_file(root: str, pid: int, epoch: int) -> str:
    """Compacted chain of a lake partition (chain resets to this file)."""
    return os.path.join(partition_dir(root, pid), f"compact-{epoch:06d}.parquet")


def dirty_file(root: str, pid: int, epoch: int) -> str:
    d = os.path.join(root, "dirty", f"p={pid:05d}")
    return os.path.join(d, f"epoch-{epoch:06d}.parquet")


class WriterLockHeld(RuntimeError):
    pass


def _lock_path(root: str) -> str:
    return os.path.join(root, "_writer.lock")


def acquire_writer(root: str, owner: str = "engine") -> None:
    """Best-effort single-writer lease on a lake root.

    Two concurrent writers would both read manifest epoch E and both
    commit E+1 — last rename wins and the loser's files become orphans
    (or, under different configs, the layouts disagree). The lock is an
    ``O_EXCL``-created JSON file naming the owner pid; a conflicting
    acquire raises :class:`WriterLockHeld` UNLESS the recorded pid is
    dead on this host, in which case the stale lock (a killed engine —
    the crash-resume path) is auto-stolen. Cross-node the pid check
    cannot see the other host, so a multi-node deployment keeps the
    single-writer-per-lake contract by assignment (one tailer owns one
    lake — the same contract every log-structured lake format v1 ships
    with) and uses ``force_release_writer`` in its failover runbook.
    Readers never take the lock: commits are atomic pointer swaps, so
    snapshots/lookups/egress consumers are always consistent without
    coordination.
    """
    os.makedirs(root, exist_ok=True)
    payload = json.dumps(
        {"pid": os.getpid(), "owner": owner}, sort_keys=True
    )
    p = _lock_path(root)
    for _ in range(2):  # second pass after stealing a stale lock
        try:
            fd = os.open(p, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            try:
                with open(p) as f:
                    held = json.load(f)
            except (OSError, ValueError):
                held = {}
            pid = int(held.get("pid", -1))
            alive = False
            if pid > 0:
                try:
                    os.kill(pid, 0)
                    alive = True
                except ProcessLookupError:
                    alive = False
                except PermissionError:
                    alive = True
            if alive and pid != os.getpid():
                raise WriterLockHeld(
                    f"lake at {root!r} is locked by live writer pid {pid} "
                    f"({held.get('owner', '?')}); a second concurrent writer "
                    "would race the manifest swap. Stop it, or "
                    "force_release_writer(root) if it is on another node and "
                    "known dead."
                )
            os.remove(p)  # stale (dead pid) or re-entrant: steal
            continue
        with os.fdopen(fd, "w") as f:
            f.write(payload)
        return
    raise WriterLockHeld(f"could not acquire writer lock at {p}")


def release_writer(root: str) -> None:
    """Release this process's lease (no-op if absent or not ours)."""
    p = _lock_path(root)
    try:
        with open(p) as f:
            if int(json.load(f).get("pid", -1)) != os.getpid():
                return
        os.remove(p)
    except (OSError, ValueError):
        pass


def force_release_writer(root: str) -> bool:
    """Operator override for cross-node failover: drop the lock
    regardless of owner. Returns whether a lock existed."""
    try:
        os.remove(_lock_path(root))
        return True
    except OSError:
        return False


# Row-group size for lake files. Pyarrow's default (1 Mi rows) would
# put a whole small-partition file into ONE row group, defeating the
# ``_kh``-statistics pruning that the merge's pre-epoch chain read and
# ``lookup_keys`` rely on: a pruned read is row-group-granular, so the
# group size IS the read amplification of a point/delta lookup. 64 Ki
# rows keeps footer statistics per ~tens of MB of source text while
# adding negligible metadata (a 100 M-row partition carries ~1.5 K
# row-group entries per column in its footer).
LAKE_ROW_GROUP = 64 * 1024


def atomic_write_parquet(table, path: str) -> None:
    """Write-then-rename so readers never observe partial files; content
    is deterministic, so concurrent/retried writers converge. Row
    groups are capped at LAKE_ROW_GROUP so ``_kh`` statistics prune at
    useful granularity (files are written key-hash-sorted)."""
    import pyarrow.parquet as pq

    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + f".tmp-{os.getpid()}"
    pq.write_table(table, tmp, row_group_size=LAKE_ROW_GROUP)
    os.replace(tmp, path)
