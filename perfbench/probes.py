"""Host record and the epoch-boundary probes: lake-root walks, process
CPU time and memory (Linux ``/proc``) and child-process reaping."""

from __future__ import annotations

import hashlib
import os
import platform
import signal
import subprocess
import time


class StorageLog:
    """Walks the lake root at each epoch boundary. A file counts as
    created when its path is new or its (inode, size, mtime) changed;
    files that live for less than one epoch are not seen."""

    def __init__(self, root: str):
        self.root = root
        self.prev = walk(root)
        self.created = self.deleted = self.created_bytes = 0

    def sample(self) -> None:
        cur = walk(self.root)
        for p, st in cur.items():
            if self.prev.get(p) != st:
                self.created += 1
                self.created_bytes += st[1]
        self.deleted += sum(1 for p in self.prev if p not in cur)
        self.prev = cur

    def totals(self) -> tuple[int, int, int]:
        return self.created, self.deleted, self.created_bytes

    def live_files(self) -> int:
        return len(self.prev)


def walk(root: str) -> dict[str, tuple[int, int, int]]:
    out = {}
    stack = [root]
    while stack:
        d = stack.pop()
        try:
            entries = list(os.scandir(d))
        except FileNotFoundError:
            continue
        for e in entries:
            try:
                if e.is_dir(follow_symlinks=False):
                    stack.append(e.path)
                else:
                    st = e.stat(follow_symlinks=False)
                    out[e.path] = (st.st_ino, st.st_size, st.st_mtime_ns)
            except FileNotFoundError:
                continue
    return out


def du(root: str) -> int:
    return sum(size for _, size, _ in walk(root).values())


def _stat_fields(pid) -> list[str] | None:
    """Fields of /proc/<pid>/stat after the command name, or None when
    the process is gone (a read can race with its exit and come back
    empty)."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            _, sep, rest = f.read().rpartition(")")
    except OSError:
        return None
    fields = rest.split()
    return fields if sep and len(fields) > 19 else None


def _children() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if name.isdigit() and (fields := _stat_fields(name)) is not None:
            kids.setdefault(int(fields[1]), []).append(int(name))
    return kids


def descendants(pid: int | None = None) -> list[int]:
    kids = _children()
    out, stack = [], [os.getpid() if pid is None else pid]
    while stack:
        for c in kids.get(stack.pop(), []):
            out.append(c)
            stack.append(c)
    return out


def _pss_kb(pid: int) -> int:
    """Proportional set size of ``pid`` without shared memory (Pss −
    Pss_Shmem of ``/proc/<pid>/smaps_rollup``): pages shared with other
    processes count by their share, and Ray's shared-memory object store
    does not count at all."""
    fields = {}
    try:
        with open(f"/proc/{pid}/smaps_rollup") as f:
            for line in f:
                name, _, rest = line.partition(":")
                if name in ("Pss", "Pss_Shmem"):
                    fields[name] = int(rest.split()[0])
    except (OSError, ValueError, IndexError):
        return 0
    return fields.get("Pss", 0) - fields.get("Pss_Shmem", 0)


_TICK = os.sysconf("SC_CLK_TCK")


def host_cpu_ticks() -> list[int]:
    """System-wide /proc/stat CPU ticks: user, nice, system, idle,
    iowait, irq, softirq, steal."""
    with open("/proc/stat") as f:
        return [int(x) for x in f.readline().split()[1:9]]


def host_shares(before: list[int], after: list[int]) -> dict[str, float]:
    """Shares of all host CPU time that were iowait and steal (time the
    hypervisor gave to other guests) between two ``host_cpu_ticks``."""
    d = [b - a for a, b in zip(before, after)]
    total = sum(d) or 1
    return {"host_iowait_frac": d[4] / total, "host_steal_frac": d[7] / total}


def cpu_ticks() -> dict[tuple[int, int], int]:
    """(pid, start time) -> user + system CPU ticks, for this process and
    every live descendant (Ray workers, raylet, GCS)."""
    out = {}
    for pid in [os.getpid()] + descendants():
        if (fields := _stat_fields(pid)) is not None:
            out[(pid, int(fields[19]))] = int(fields[11]) + int(fields[12])
    return out


def cpu_s_between(before: dict, after: dict) -> float:
    """CPU seconds spent between two ``cpu_ticks`` snapshots by the
    processes alive at the second (a process started in between counts
    from zero; one that exited in between is not seen)."""
    return sum(t - before.get(k, 0) for k, t in after.items()) / _TICK


def _is_ray_worker(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return f.read().startswith(b"ray::")
    except OSError:
        return False


def memory_mb() -> tuple[float, float]:
    """(driver, Ray workers): proportional memory (``_pss_kb``) of this
    process and the sum over its Ray worker (``ray::``) processes."""
    workers = sum(_pss_kb(p) for p in descendants() if _is_ray_worker(p))
    return _pss_kb(os.getpid()) / 1024.0, workers / 1024.0


def _reap_exited() -> None:
    """Collect exit statuses of this process's exited children."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def reap_children(timeout_s: float = 20.0) -> None:
    """Wait for every process this run started to end; kill stragglers."""
    for sig, wait_s in ((None, timeout_s), (signal.SIGKILL, 5.0)):
        if sig is not None:
            for pid in descendants():
                try:
                    os.kill(pid, sig)
                except ProcessLookupError:
                    pass
        deadline = time.monotonic() + wait_s
        while True:
            _reap_exited()
            if not descendants() or time.monotonic() > deadline:
                break
            time.sleep(0.1)


def _fs_type(path: str) -> str:
    """Filesystem type of the mount holding ``path``."""
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    with open("/proc/mounts") as f:
        for line in f:
            parts = line.split()
            mnt = parts[1]
            if (path == mnt or path.startswith(mnt.rstrip("/") + "/")) and len(mnt) > len(best):
                best, fstype = mnt, parts[2]
    return fstype


def _git_commit(checkout: str) -> str | None:
    # the ceiling keeps git from reporting an enclosing repository
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.path.abspath(checkout)))
    try:
        out = subprocess.run(
            ["git", "-C", checkout, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, env=env,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest(checkout: str) -> str:
    """sha256 over the program's Python sources, for checkouts without git."""
    h = hashlib.sha256()
    pkg = os.path.join(checkout, "silk_ray")
    for d, dirs, files in sorted(os.walk(pkg)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                p = os.path.join(d, name)
                h.update(os.path.relpath(p, checkout).encode())
                with open(p, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def host_record(checkout: str, dirs: dict[str, str]) -> dict:
    import pyarrow
    import ray

    with open("/proc/meminfo") as f:
        mem_kb = next(int(line.split()[1]) for line in f if line.startswith("MemTotal:"))
    return {
        "cpu_count": os.cpu_count(),
        "ray_num_cpus": os.cpu_count(),
        "mem_total_mb": mem_kb // 1024,
        "python": platform.python_version(),
        "ray": ray.__version__,
        "pyarrow": pyarrow.__version__,
        "platform": platform.platform(),
        "git_commit": _git_commit(checkout),
        "source_sha256": source_digest(checkout),
        "tmpfs": {name: _fs_type(d) == "tmpfs" for name, d in dirs.items()},
    }
