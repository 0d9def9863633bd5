"""One contract over every registered epoch store (checkpoint.STORES):
empty default, commit → read / read_at round trip, leftover tmp files,
the crash window between snapshot and pointer, and retention GC.

No Ray: states are hand-built and each names one (empty) data file per
epoch, so what GC keeps is checked file by file.
"""

import os

import pytest

from silk_ray.cdc import checkpoint as ckpt

N_EPOCHS = 6


def _data_file(store, e: int) -> str:
    """The data path a state at epoch ``e`` of ``store`` references."""
    return {
        "lake": f"partitions/p=00000/epoch-{e:06d}.parquet",
        "links": f"links/epoch-{e:06d}/part-00000.parquet",
        "clusters": f"clusters/epoch-{e:06d}",  # a directory
        "agg_view": f"aggview/shard-00000-epoch-{e:06d}.parquet",
        "windows": f"windows/open-epoch-{e:06d}.parquet",
        "egress": f"egress/shard-00000-epoch-{e:06d}.parquet",
    }[store.name]


def _state(store, e: int) -> dict:
    f, prev = _data_file(store, e), _data_file(store, e - 1)
    fields = {
        "lake": {"next_offset": 10 * e, "prev_files": [prev],
                 "partitions": {"0": {"files": [f], "hwm": 10 * e - 1, "rows": 1, "epoch": e}}},
        "links": {"links_files": [{"file": f, "rows": 1, "sketch": None}],
                  "links_files_prev": [{"file": prev}], "blockmap_prev": []},
        "clusters": {"dir": f, "dir_prev": prev},
        "agg_view": {"shards": {"0": f}, "spec": "{}"},
        "windows": {"open": f, "watermark_us": e},
        "egress": {"files": {str(e): [f]}, "next_seq": e},
    }[store.name]
    return {**store.empty, "epoch": e, **fields}


def _write_data(root: str, rel: str) -> None:
    path = os.path.join(root, rel)
    if not rel.endswith(".parquet"):
        path = os.path.join(path, "part-000.parquet")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    open(path, "wb").close()


def _commit_epochs(store, root: str, n: int = N_EPOCHS) -> list[dict]:
    states = []
    for e in range(1, n + 1):
        _write_data(root, _data_file(store, e))
        states.append(_state(store, e))
        store.commit(root, states[-1])
    return states


@pytest.fixture(params=ckpt.STORES, ids=lambda s: s.name)
def store(request):
    return request.param


def test_empty_state_default(store, tmp_path):
    root = str(tmp_path)
    got = store.read(root)
    assert got == store.empty and got["epoch"] == 0
    got["epoch"] = 5  # callers mutate what they read
    assert store.read(root) == store.empty
    with pytest.raises(FileNotFoundError, match=store.name):
        store.read_at(root, 1)


def test_commit_read_round_trip(store, tmp_path):
    root = str(tmp_path)
    states = _commit_epochs(store, root, 3)
    assert store.read(root) == states[-1]
    assert store.read_at(root, 3) == states[-1]
    for e in (1, 2):
        if store.snapshot is None:
            with pytest.raises(FileNotFoundError, match=store.name):
                store.read_at(root, e)
        else:
            assert store.read_at(root, e) == states[e - 1]


def test_leftover_tmp_does_not_change_read(store, tmp_path):
    root = str(tmp_path)
    states = _commit_epochs(store, root, 2)
    with open(os.path.join(root, store.pointer + ".tmp-99999"), "w") as f:
        f.write('{"epoch": 7, "torn')
    with open(os.path.join(root, store.pointer + ".tmp"), "w") as f:
        f.write("{")
    assert store.read(root) == states[-1]


def test_crash_before_pointer_swap_keeps_previous_commit(store, tmp_path, monkeypatch):
    """The snapshot is written before the pointer: a crash between the
    two leaves the previous commit in force, and the orphan snapshot of
    the newer epoch is refused by ``read_at``."""
    root = str(tmp_path)
    states = _commit_epochs(store, root, 2)
    real_replace = os.replace
    pointer = os.path.join(root, store.pointer)

    def crash_on_pointer(src, dst):
        if dst == pointer:
            raise OSError("injected crash before the pointer swap")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", crash_on_pointer)
    with pytest.raises(OSError, match="injected crash"):
        store.commit(root, _state(store, 3))
    monkeypatch.setattr(os, "replace", real_replace)
    if store.snapshot is not None:
        assert os.path.exists(store._snapshot_path(root, 3))
    assert store.read(root) == states[-1]
    with pytest.raises(FileNotFoundError, match=f"current {store.name} epoch 2"):
        store.read_at(root, 3)


@pytest.mark.parametrize("retain", [1, 3])
def test_gc_retention_window(store, tmp_path, retain):
    root = str(tmp_path)
    states = _commit_epochs(store, root)
    store.gc(root, retain_epochs=retain)

    last = N_EPOCHS
    readable = range(last - retain, last + 1) if store.snapshot else [last]
    for e in range(1, last + 1):
        if e in readable:
            assert store.read_at(root, e) == states[e - 1]
        else:
            with pytest.raises(FileNotFoundError, match=f"no {store.name} snapshot.*retain_epochs"):
                store.read_at(root, e)

    if not store.data_dirs:
        kept = range(1, last + 1)  # no sweep
    elif store.snapshot is None:  # windows: floor E-K, later epochs' files stay
        kept = range(last - retain + 1, last + 1)
    else:
        kept = readable
    for e in range(1, last + 1):
        assert os.path.exists(os.path.join(root, _data_file(store, e))) == (e in kept), e
