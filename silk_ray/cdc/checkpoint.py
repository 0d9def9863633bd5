"""Epoch stores: one commit, as-of read and retention-GC protocol for
every state store of the engine (:class:`EpochStore`).

A store is a JSON state *pointer* swapped atomically once per epoch,
optionally a per-epoch *snapshot* of that state (as-of-epoch reads),
and *data dirs* whose files the committed states reference. GC keeps
what the pointer, its one-epoch rollback set ("prev"), the retained
snapshots and the files other stores' states point into it (``pinned``)
reference (E = pointer epoch, K = ``retain_epochs`` ≥ 1) and trims
snapshots at or below the floor E-K-1:

========  ==================  ===========================  ===========  =======================================
store     pointer             snapshots                    data dirs    GC keeps
========  ==================  ===========================  ===========  =======================================
lake      _manifest.json      _manifests/manifest-E.json   partitions/  pointer, prev_files, snapshots E-K..E-1,
                                                                        each kept epoch's own delta files,
                                                                        files a committed egress epoch
                                                                        points to
links     _linkstate.json     _linkstates/state-E.json     links/,      pointer (links, postings and entity
                                                           blockmap/    chains), links_files_prev,
                                                                        blockmap_prev, snapshots
clusters  _clusterstate.json  _clusterstates/state-E.json  clusters/    pointer, dir_prev, snapshots
agg_view  _aggstate.json      _aggstates/state-E.json      aggview/     pointer, snapshots
windows   _winstate.json      none                         windows/     pointer, files of epochs > E-K
egress    _egressstate.json   none                         egress/      pointer, files of epochs > E-K
                                                                        (consumers truncate the stream)
========  ==================  ===========================  ===========  =======================================

The lake's ``partitions/`` and the link store's ``blockmap/`` hold LSM
delta chains (``chain.py``); a state names every file of each chain.
The link store's ``blockmap/`` holds two kinds: one postings chain per
block partition (``bp=*``, the linkstate's ``blockmap``) and one entity
chain (``ent=00000``, its ``entities``), each growing by at most one
``delta-E`` file per epoch; ``blockmap_prev`` lists the previous
state's files of both. No store keeps a side copy of its inputs: an
epoch's change set and link-index rows pass in memory or are derived
from the lake's retained delta files.

Stores without snapshots answer as-of reads at the pointer epoch
only. Windows and egress declare the floor E-K (``floor_lag=0``: they
keep no rollback set); egress retention is consumer-driven
(``egress.truncate_egress``), and its sweep removes only files a
crashed truncate left behind. An egress file holds pointers into the
lake, not images: ``egress.lake_refs`` names the lake files they
resolve to.

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
(:func:`write_metrics`). A lake written by an older version may still
hold a linker ``summaries/`` directory, which nothing reads;
``merge.gc_link_inputs`` removes it.
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
    be files or directories under ``data_dirs``."""

    name: str
    pointer: str
    # per-epoch snapshot path prefix ("<dir>/<prefix>"; + "%06d.json"),
    # None = the store keeps no snapshots (as-of reads at its epoch only)
    snapshot: str | None
    empty: dict
    # files a committed state references
    live_files: Callable[[dict], Iterable[str]]
    # directories gc sweeps; () = no sweep
    data_dirs: tuple[str, ...]
    # the pointer's one-epoch rollback set (kept for the pointer only)
    prev_files: Callable[[dict], Iterable[str]] = lambda state: ()
    # gc floor = epoch − max(1, retain_epochs) − floor_lag
    floor_lag: int = 1
    # files under this store's data dirs that other stores' committed
    # states point to (root -> relative paths)
    pinned: Callable[[str], Iterable[str]] = lambda root: ()

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

    def named(self, root: str, state: dict, floor: int = 0, pins: bool = True) -> set[str]:
        """Every file the committed ``state`` keeps: its files and
        rollback set, those of each snapshot above ``floor`` and, with
        ``pins``, the files other stores point to (normalized paths)."""
        live = {*self.live_files(state), *self.prev_files(state)}
        if pins:
            live.update(self.pinned(root))
        if self.snapshot is not None:
            for e in range(max(1, floor + 1), _state_epoch(state)):
                try:
                    live.update(self.live_files(self._read_snapshot(root, e)))
                except FileNotFoundError:  # pre-snapshot state or already trimmed
                    continue
        return {os.path.normpath(f) for f in live if f}

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
        live = self.named(root, state, floor)
        removed = 0
        if self.snapshot is not None:
            snap_dir, prefix = os.path.split(self.snapshot)
            for f in _listdir(os.path.join(root, snap_dir)):
                e = f[len(prefix):-len(".json")]
                if f.startswith(prefix) and f.endswith(".json") and e.isdigit() and int(e) <= floor:
                    removed += _remove(os.path.join(root, snap_dir, f))
        for data_dir in self.data_dirs:
            removed += self._sweep(root, data_dir, live, floor)
        return removed

    def _sweep(self, root: str, data_dir: str, live: set[str], floor: int) -> int:
        """Remove ``*.parquet`` files under ``data_dir`` that no live
        path names (a live directory keeps its files); a store without
        snapshots cannot tell which files its window's states named, so
        it keeps every file an epoch above the floor wrote. Emptied
        subdirectories go too; one holding other files (egress consumer
        positions) stays."""
        base = os.path.join(root, data_dir)
        removed = 0
        for dirpath, subdirs, files in os.walk(base, topdown=False):
            rel_dir = os.path.relpath(dirpath, root)
            if rel_dir in live:
                continue
            left = 0
            for f in files:
                if not f.endswith(".parquet"):
                    left += 1
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


def _agg_files(s: dict) -> list[str]:
    out = list((s.get("shards") or {}).values())
    for m in (s.get("support") or {}).values():
        out += m.values()
    return out


def _egress_pins(root: str) -> set[str]:
    from silk_ray.cdc.egress import lake_refs

    return lake_refs(root)


LAKE = EpochStore(
    "lake", "_manifest.json", "_manifests/manifest-", Manifest(0, 0, {}).to_dict(),
    # the chain files plus the delta files the epoch wrote (a compaction
    # supersedes them), which merge.epoch_changes reads
    lambda m: Manifest.from_dict(m).chain_files() + [
        partition_file("", int(p), m["epoch"])
        for p, info in m["partitions"].items() if info.get("epoch") == m["epoch"]
    ],
    ("partitions",),
    prev_files=lambda m: m.get("prev_files", []),
    # the after- and before-images of the committed egress stream
    pinned=_egress_pins,
)
LINKS = EpochStore(
    "links", "_linkstate.json", "_linkstates/state-",
    {"epoch": 0, "blockmap": {}, "links_files": []},
    lambda s: [e["file"] for e in s.get("links_files") or []]
    + [f for chain in s.get("blockmap", {}).values() for f in chain]
    + s.get("entities", []),
    ("links", "blockmap"),
    prev_files=lambda s: [e["file"] for e in s.get("links_files_prev", [])]
    + s.get("blockmap_prev", []),
)
CLUSTERS = EpochStore(
    "clusters", "_clusterstate.json", "_clusterstates/state-",
    {"epoch": 0, "dir": None, "dir_prev": None}, lambda s: [s.get("dir")], ("clusters",),
    prev_files=lambda s: [s.get("dir_prev")],
)
AGG_VIEW = EpochStore(
    "agg_view", "_aggstate.json", "_aggstates/state-",
    {"epoch": 0, "shards": {}, "spec": None}, _agg_files, ("aggview",),
)
# finalized and late outputs are the product: the state names them, so
# only superseded open-partial files are ever swept
WINDOWS = EpochStore(
    "windows", "_winstate.json", None,
    {"epoch": 0, "watermark_us": None, "open": None, "final": {}, "late": {},
     "flushed": False, "spec": None},
    lambda s: [s.get("open"), *s["final"].values(), *s["late"].values()], ("windows",),
    floor_lag=0,
)
EGRESS = EpochStore(
    "egress", "_egressstate.json", None,
    {"epoch": 0, "next_seq": 0, "files": {}, "num_shards": None, "layouts": [],
     "anchors": {}, "epochs": {}, "images": {}},
    lambda s: [f for fs in s["files"].values() for f in fs], ("egress",),
    floor_lag=0,
)
STORES = (LAKE, LINKS, CLUSTERS, AGG_VIEW, WINDOWS, EGRESS)


def read_manifest(root: str) -> Manifest:
    return Manifest.from_dict(LAKE.read(root))


def read_manifest_at(root: str, epoch: int) -> Manifest:
    return Manifest.from_dict(LAKE.read_at(root, epoch))


def offsets_path(root: str, epoch: int) -> str:
    """Lake epoch ``epoch``'s offset-log entry: its window and the
    ``next_offset`` it committed."""
    return os.path.join(root, "_checkpoints", f"offsets-{epoch:06d}.json")


def commit_manifest(root: str, manifest: Manifest, window: tuple[int, int]) -> None:
    """Atomic epoch commit: offset-log entry, then the lake store's
    snapshot + manifest swap."""
    atomic_write_json(
        offsets_path(root, manifest.epoch),
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


def read_metrics(root: str, kind: str = "epoch") -> list[dict]:
    """The per-epoch metrics records of ``kind`` (the merge's
    ``epoch``, the link store's ``links``), oldest first."""
    d = os.path.join(root, "_metrics")
    out = []
    for name in sorted(_listdir(d)):
        if name.startswith(f"{kind}-") and name.endswith(".json"):
            with open(os.path.join(d, name)) as f:
                out.append(json.load(f))
    return out


def partition_file(root: str, pid: int, epoch: int) -> str:
    """Per-epoch DELTA file of a lake partition (LSM chain member)."""
    return os.path.join(root, "partitions", f"p={pid:05d}", f"epoch-{epoch:06d}.parquet")


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


# Row-group size of the engine's files. At 64 Ki rows every engine file
# written so far is one row group, so no read skips a group: the keyed
# reads (the merge's pre-epoch chain read, ``lookup_keys``) filter with
# ``_kh`` ``is_in``, which pyarrow applies to decoded rows and never
# tests against row-group statistics, so they decode whole files at any
# group size. Smaller groups pay only with a filter that statistics can
# use (``==``, or an OR of them).
LAKE_ROW_GROUP = 64 * 1024


def atomic_write_parquet(table, path: str) -> None:
    """The one Parquet writer of the engine's files. Write-then-rename,
    so readers never observe a partial file; the dot-prefixed tmp name
    is never discovered as a dataset fragment. The content is
    deterministic, so concurrent/retried writers converge. Row groups
    are capped at LAKE_ROW_GROUP rows; no keyed read of the engine
    prunes by their statistics (see LAKE_ROW_GROUP).

    The codec is zstd level 1: the payload is source text, whose
    entropy zstd halves where snappy's LZ matching finds little. On a
    21k-row, 37 MB lake table snappy wrote 36.7 MB (60-75 ms CPU), zstd
    1 20.2 MB (175-255 ms) and zstd 2 16.3 MB (245 ms); zstd 1 reads as
    fast as snappy, and negative levels were 4-8% smaller than snappy.
    Files of an older codec read as they are; a compaction rewrites
    the ones it reads as zstd (a chain's base only at a base rewrite)."""
    import pyarrow.parquet as pq

    d, name = os.path.split(path)
    os.makedirs(d, exist_ok=True)
    tmp = os.path.join(d, f".{name}.tmp-{os.getpid()}")
    pq.write_table(table, tmp, row_group_size=LAKE_ROW_GROUP,
                   compression="zstd", compression_level=1)
    os.replace(tmp, path)
