"""Epoch stores: one commit, as-of read and retention-GC protocol for
every state store of the engine (:class:`EpochStore`).

A store is a JSON state *pointer* swapped atomically once per epoch,
optionally a per-epoch *snapshot* of that state (as-of-epoch reads),
and a *data dir* whose files the committed states reference. GC keeps
what the pointer, its one-epoch rollback set ("prev") and the retained
snapshots reference (E = pointer epoch, K = ``retain_epochs`` ≥ 1)
and trims snapshots at or below the floor E-K-1:

========  ==================  ===========================  ===========  =======================================
store     pointer             snapshots                    data dir     GC keeps
========  ==================  ===========================  ===========  =======================================
lake      _manifest.json      _manifests/manifest-E.json   partitions/  pointer, prev_files, snapshots E-K..E-1
links     _linkstate.json     _linkstates/state-E.json     links/       pointer, links_files_prev, snapshots
clusters  _clusterstate.json  _clusterstates/state-E.json  clusters/    pointer, dir_prev, snapshots
agg_view  _aggstate.json      _aggstates/state-E.json      aggview/     pointer, snapshots
windows   _winstate.json      none                         windows/     pointer, files of epochs > E-K
egress    _egressstate.json   none                         none         no sweep (consumers truncate)
========  ==================  ===========================  ===========  =======================================

Stores without snapshots answer as-of reads at the pointer epoch
only. Windows declare the floor E-K (``floor_lag=0``); egress
retention is consumer-driven (``egress.truncate_egress``).

Commit order (exactly-once; SURVEY.md §7.1 step 5): the epoch's data
files (deterministic content, so retries and re-runs are idempotent),
then the snapshot, then the pointer, each via :func:`atomic_write_json`
(fsync + ``os.replace``); the lake writes its offset-log entry
``_checkpoints/offsets-E.json`` first. The pointer swap is the commit
point: a crash before it leaves the previous state plus at most an
orphan snapshot, which ``read_at`` refuses (newer than the pointer)
and the replay overwrites byte-identically. Per-partition high-water
marks make duplicate delivery a no-op inside the merge.

Also under the lake root: ``_metrics/{epoch,links}-E.json``
(:func:`write_metrics`), ``dirty/`` + ``summaries/``
(``merge.gc_link_inputs``) and ``blockmap/`` (``incremental.gc_blockmap``).
"""

from __future__ import annotations

import copy
import json
import os
import re
import shutil
from dataclasses import dataclass
from typing import Callable, Iterable


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


def atomic_write_json(path: str, obj) -> None:
    """Durable write-then-rename of a small JSON record: the content is
    flushed and fsynced before the ``os.replace`` publishes it. The tmp
    name is pid-suffixed, so concurrent writers never share one."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.tmp-{os.getpid()}"
    with open(tmp, "w") as f:
        json.dump(obj, f, sort_keys=True)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)


def read_json(path: str, default=None):
    """A JSON record, or a copy of ``default`` when the file is absent."""
    try:
        with open(path) as f:
            return json.load(f)
    except FileNotFoundError:
        return copy.deepcopy(default)


_EPOCH_IN_NAME = re.compile(r"(?:epoch|compact|delta)-(\d+)")


def file_epoch(name: str) -> int | None:
    """The epoch a data file's name embeds (``epoch-E``/``compact-E``/…)."""
    m = _EPOCH_IN_NAME.search(name)
    return int(m.group(1)) if m else None


def _state_epoch(state: dict) -> int:
    return int(state.get("epoch", 0))


@dataclass(frozen=True)
class EpochStore:
    """One state store: see the module table. Paths are relative to
    the lake root; files named by ``live_files`` / ``prev_files`` may
    be files or directories under ``data_dir``."""

    name: str
    pointer: str
    # per-epoch snapshot path prefix ("<dir>/<prefix>"; + "%06d.json"),
    # None = the store keeps no snapshots (as-of reads at its epoch only)
    snapshot: str | None
    empty: dict
    # files a committed state references
    live_files: Callable[[dict], Iterable[str]]
    # directory gc sweeps; None = no sweep
    data_dir: str | None
    # the pointer's one-epoch rollback set (kept for the pointer only)
    prev_files: Callable[[dict], Iterable[str]] = lambda state: ()
    # gc floor = epoch − max(1, retain_epochs) − floor_lag
    floor_lag: int = 1

    def read(self, root: str) -> dict:
        return read_json(os.path.join(root, self.pointer), self.empty)

    def _snapshot_path(self, root: str, epoch: int) -> str:
        return os.path.join(root, f"{self.snapshot}{epoch:06d}.json")

    def _read_snapshot(self, root: str, epoch: int) -> dict:
        with open(self._snapshot_path(root, epoch)) as f:
            return json.load(f)

    def read_at(self, root: str, epoch: int) -> dict:
        """The state as committed at ``epoch`` (time-travel read). Raises
        when the epoch is newer than the pointer, never committed, or
        fell out of the GC retention window."""
        current = self.read(root)
        cur = _state_epoch(current)
        if 0 < epoch == cur:
            return current
        if self.snapshot is not None and 0 < epoch < cur:
            try:
                return self._read_snapshot(root, epoch)
            except FileNotFoundError:
                pass
        raise FileNotFoundError(
            f"no {self.name} snapshot for epoch {epoch} under {root!r} "
            f"(current {self.name} epoch {cur}): the epoch never committed or "
            "its snapshot was GC'd outside the retention window "
            "(EngineConfig.retain_epochs)"
        )

    def commit(self, root: str, state: dict) -> None:
        """Snapshot first, then the pointer swap (the commit point)."""
        if self.snapshot is not None:
            atomic_write_json(self._snapshot_path(root, _state_epoch(state)), state)
        atomic_write_json(os.path.join(root, self.pointer), state)

    def gc(self, root: str, retain_epochs: int = 1, state: dict | None = None) -> int:
        """Delete data files no retained state references and trim
        snapshots at or below the floor. Run only after a commit (a
        crash mid-GC leaves only unreferenced garbage). ``state`` is the
        committed pointer state when the caller already holds it.
        Returns files removed (snapshots included)."""
        if state is None:
            state = self.read(root)
        epoch = _state_epoch(state)
        floor = epoch - max(1, retain_epochs) - self.floor_lag
        live = {*self.live_files(state), *self.prev_files(state)}
        removed = 0
        if self.snapshot is not None:
            for e in range(max(1, floor + 1), epoch):
                try:
                    live.update(self.live_files(self._read_snapshot(root, e)))
                except FileNotFoundError:  # pre-snapshot state or already trimmed
                    continue
            snap_dir, prefix = os.path.split(self.snapshot)
            for f in _listdir(os.path.join(root, snap_dir)):
                e = f[len(prefix):-len(".json")]
                if f.startswith(prefix) and f.endswith(".json") and e.isdigit() and int(e) <= floor:
                    removed += _remove(os.path.join(root, snap_dir, f))
        if self.data_dir is not None:
            removed += self._sweep(root, {os.path.normpath(f) for f in live if f}, floor)
        return removed

    def _sweep(self, root: str, live: set[str], floor: int) -> int:
        """Remove ``*.parquet`` files under ``data_dir`` that no live
        path names (a live directory keeps its files); a store without
        snapshots cannot tell which files its window's states named, so
        it keeps every file an epoch above the floor wrote. Emptied
        subdirectories go too."""
        base = os.path.join(root, self.data_dir)
        removed = 0
        for dirpath, subdirs, files in os.walk(base, topdown=False):
            rel_dir = os.path.relpath(dirpath, root)
            if rel_dir in live:
                continue
            left = 0
            for f in files:
                if not f.endswith(".parquet"):
                    continue
                e = file_epoch(f)
                newer = self.snapshot is None and (e is None or e > floor)
                if os.path.join(rel_dir, f) in live or newer or not _remove(os.path.join(dirpath, f)):
                    left += 1
                else:
                    removed += 1
            if dirpath != base and not left and not subdirs:
                shutil.rmtree(dirpath, ignore_errors=True)
        return removed


def _listdir(d: str) -> list[str]:
    try:
        return os.listdir(d)
    except FileNotFoundError:
        return []


def _remove(path: str) -> int:
    try:
        os.remove(path)
        return 1
    except OSError:
        return 0


def _lake_files(m: dict) -> list[str]:
    return [f for info in m["partitions"].values() for f in info.get("files", [])]


def _agg_files(s: dict) -> list[str]:
    out = list((s.get("shards") or {}).values())
    for m in (s.get("support") or {}).values():
        out += m.values()
    return out


LAKE = EpochStore(
    "lake", "_manifest.json", "_manifests/manifest-", Manifest(0, 0, {}).to_dict(),
    _lake_files, "partitions", prev_files=lambda m: m.get("prev_files", []),
)
LINKS = EpochStore(
    "links", "_linkstate.json", "_linkstates/state-",
    {"epoch": 0, "blockmap": {}, "links_files": []},
    lambda s: [e["file"] for e in s.get("links_files") or []], "links",
    prev_files=lambda s: [e["file"] for e in s.get("links_files_prev", [])],
)
CLUSTERS = EpochStore(
    "clusters", "_clusterstate.json", "_clusterstates/state-",
    {"epoch": 0, "dir": None, "dir_prev": None}, lambda s: [s.get("dir")], "clusters",
    prev_files=lambda s: [s.get("dir_prev")],
)
AGG_VIEW = EpochStore(
    "agg_view", "_aggstate.json", "_aggstates/state-",
    {"epoch": 0, "shards": {}, "spec": None}, _agg_files, "aggview",
)
# finalized and late outputs are the product: the state names them, so
# only superseded open-partial files are ever swept
WINDOWS = EpochStore(
    "windows", "_winstate.json", None,
    {"epoch": 0, "watermark_us": None, "open": None, "final": {}, "late": {},
     "flushed": False, "spec": None},
    lambda s: [s.get("open"), *s["final"].values(), *s["late"].values()], "windows",
    floor_lag=0,
)
EGRESS = EpochStore(
    "egress", "_egressstate.json", None,
    {"epoch": 0, "next_seq": 0, "files": {}, "num_shards": None},
    lambda s: [f for fs in s["files"].values() for f in fs], None,
)
STORES = (LAKE, LINKS, CLUSTERS, AGG_VIEW, WINDOWS, EGRESS)


def read_manifest(root: str) -> Manifest:
    return Manifest.from_dict(LAKE.read(root))


def read_manifest_at(root: str, epoch: int) -> Manifest:
    return Manifest.from_dict(LAKE.read_at(root, epoch))


def commit_manifest(root: str, manifest: Manifest, window: tuple[int, int]) -> None:
    """Atomic epoch commit: offset-log entry, then the lake store's
    snapshot + manifest swap."""
    atomic_write_json(
        os.path.join(root, "_checkpoints", f"offsets-{manifest.epoch:06d}.json"),
        {
            "epoch": manifest.epoch,
            "window": list(window),
            "next_offset": manifest.next_offset,
            "hwm": {str(k): v["hwm"] for k, v in manifest.partitions.items()},
        },
    )
    LAKE.commit(root, manifest.to_dict())


def metrics_path(root: str, epoch: int, kind: str = "epoch") -> str:
    """The per-epoch metrics record ``_metrics/{kind}-E.json``: ``epoch``
    for the merge (one per lake epoch), ``links`` for ``update_links``."""
    return os.path.join(root, "_metrics", f"{kind}-{epoch:06d}.json")


def write_metrics(root: str, epoch: int, metrics: dict, kind: str = "epoch") -> None:
    atomic_write_json(metrics_path(root, epoch, kind), metrics)


def read_metrics(root: str) -> list[dict]:
    """The merge's per-epoch metrics records, oldest first."""
    d = os.path.join(root, "_metrics")
    out = []
    for name in sorted(_listdir(d)):
        if name.startswith("epoch-") and name.endswith(".json"):
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
