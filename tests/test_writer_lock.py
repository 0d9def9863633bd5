"""Single-writer lease on a lake root (checkpoint.py acquire_writer).

Invariants:
- a second live writer is refused (the manifest swap must never race);
- a lock left by a DEAD process (killed engine — the crash-resume path)
  is auto-stolen, so resume never blocks on a crash artifact;
- the engine and the repartition release on success AND on failure;
- force_release_writer is the explicit cross-node failover override.
"""

import json
import os
import subprocess
import sys

import pytest

from silk_ray.cdc import checkpoint as ckpt
from silk_ray.cdc.checkpoint import (
    WriterLockHeld,
    acquire_writer,
    force_release_writer,
    release_writer,
)
from silk_ray.cdc.generator import make_base_table, make_changelog


def _plant_lock(root, pid, owner="other"):
    os.makedirs(root, exist_ok=True)
    with open(os.path.join(root, "_writer.lock"), "w") as f:
        json.dump({"pid": pid, "owner": owner}, f)


def _dead_pid():
    p = subprocess.Popen([sys.executable, "-c", "pass"])
    p.wait()
    return p.pid


def test_acquire_release_and_live_conflict(tmp_path):
    root = str(tmp_path / "lake")
    acquire_writer(root)
    assert os.path.exists(os.path.join(root, "_writer.lock"))
    # re-entrant same-pid acquire succeeds (steal-from-self)
    acquire_writer(root)
    release_writer(root)
    assert not os.path.exists(os.path.join(root, "_writer.lock"))

    # a LIVE foreign writer (pid 1 is always alive) is refused
    _plant_lock(root, 1)
    with pytest.raises(WriterLockHeld, match="pid 1"):
        acquire_writer(root)
    # release by a non-owner is a no-op; force clears it
    release_writer(root)
    assert os.path.exists(os.path.join(root, "_writer.lock"))
    assert force_release_writer(root) is True
    acquire_writer(root)
    release_writer(root)


def test_stale_dead_pid_lock_is_stolen(tmp_path):
    root = str(tmp_path / "lake")
    _plant_lock(root, _dead_pid())
    acquire_writer(root)  # must not raise: the owner is dead
    assert json.load(open(os.path.join(root, "_writer.lock")))["pid"] == os.getpid()
    release_writer(root)


def test_engine_and_repartition_respect_the_lock(ray_session, tmp_path, monkeypatch):
    from silk_ray.cdc import engine as eng
    from silk_ray.cdc.engine import EngineConfig, run
    from silk_ray.cdc.repartition import repartition_lake

    base = make_base_table(30, seed=55)
    log = make_changelog(base, 200, seed=56)
    root = str(tmp_path / "lake")

    # normal run: lock taken and released
    run(root, log, EngineConfig(epoch_size=100, num_partitions=2, max_epochs=1))
    assert not os.path.exists(os.path.join(root, "_writer.lock"))

    # a live foreign writer blocks both the engine and the repartition
    _plant_lock(root, 1)
    with pytest.raises(WriterLockHeld):
        run(root, log, EngineConfig(epoch_size=100, num_partitions=2))
    with pytest.raises(WriterLockHeld):
        repartition_lake(root, 5)
    force_release_writer(root)

    # a crash inside the run still releases (finally path)
    def boom(*a, **kw):
        raise RuntimeError("injected engine crash")

    monkeypatch.setattr(eng, "catch_up", boom)
    with pytest.raises(RuntimeError, match="injected engine crash"):
        run(root, log, EngineConfig(epoch_size=100, num_partitions=2,
                                    rule_spec=None))
    monkeypatch.undo()
    assert not os.path.exists(os.path.join(root, "_writer.lock"))

    # a killed engine's lock (dead pid) does not block resume
    _plant_lock(root, _dead_pid(), owner="engine")
    ms = run(root, log, EngineConfig(epoch_size=100, num_partitions=2))
    assert ms and ms[-1]["lag_offsets"] == 0
    assert not os.path.exists(os.path.join(root, "_writer.lock"))
    repartition_lake(root, 5)
    assert not os.path.exists(os.path.join(root, "_writer.lock"))
