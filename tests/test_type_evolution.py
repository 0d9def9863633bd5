"""Arrow-type schema evolution on payload columns: safe deterministic
promotion (merge._promote_type — permissive-unify lattice) where a
widening exists, loud SchemaConflictError with remedies where not.
Previously a type change crashed deep in a merge task with an opaque
ArrowInvalid cast error."""

import pyarrow as pa
import pytest

from silk_ray.cdc.merge import (
    SchemaConflictError,
    run_to_completion,
    state_sha256,
    state_table,
)


def tbl(rows, size_type):
    return pa.table(
        {
            "offset": pa.array([r[0] for r in rows], pa.int64()),
            "op": pa.array([r[1] for r in rows], pa.string()),
            "repo": pa.array([r[2] for r in rows], pa.string()),
            "path": pa.array([r[3] for r in rows], pa.string()),
            "size": pa.array([r[4] for r in rows], size_type),
        }
    )


MIXED = [
    (tbl([(0, "I", "r", "a", 5), (1, "I", "r", "b", 7), (2, "I", "r", "c", 9)], pa.int32())),
    (tbl([(3, "U", "r", "a", 2**40), (4, "U", "r", "c", 2**41)], pa.int64())),
    (tbl([(5, "U", "r", "b", 11), (6, "I", "r", "d", 13)], pa.int32())),
]


def _concat(tables):
    return pa.concat_tables(tables, promote_options="permissive")


def test_int_widening_preserves_values_and_widens_schema(ray_session, tmp_path):
    root = str(tmp_path / "lake")
    for t in MIXED:
        run_to_completion(root, t, epoch_size=10, num_partitions=2)
    st = state_table(root)
    assert st.schema.field("size").type == pa.int64()
    got = {r["path"]: r["size"] for r in st.to_pylist()}
    assert got == {"a.py": 2**40, "b.py": 11, "c.py": 2**41, "d.py": 13} or got == {
        "a": 2**40, "b": 11, "c": 2**41, "d": 13,
    }


def test_promotion_is_replay_stable_and_survives_compaction(ray_session, tmp_path, monkeypatch):
    """Different epoch shapes interleave int32/int64 chain files
    differently (and COMPACT_AT=2 forces mixed-type reconciles) —
    promotion is order-independent, so the shas agree."""
    from silk_ray.cdc import chain

    log = _concat(MIXED)
    r1, r2, r3 = (str(tmp_path / n) for n in ("a", "b", "c"))
    monkeypatch.setattr(chain, "COMPACT_AT", 2)
    run_to_completion(r1, log, epoch_size=2, num_partitions=2)
    run_to_completion(r2, log, epoch_size=3, num_partitions=2)
    monkeypatch.undo()
    run_to_completion(r3, log, epoch_size=100, num_partitions=2)
    assert state_sha256(r1) == state_sha256(r2) == state_sha256(r3)


def test_int_plus_float_promotes_to_double(ray_session, tmp_path):
    root = str(tmp_path / "lake")
    run_to_completion(root, tbl([(0, "I", "r", "a", 5)], pa.int64()),
                      epoch_size=10, num_partitions=2)
    run_to_completion(root, tbl([(1, "U", "r", "a", 5.5)], pa.float64()),
                      epoch_size=10, num_partitions=2)
    st = state_table(root)
    assert st.schema.field("size").type == pa.float64()
    assert st["size"].to_pylist() == [5.5]


def test_all_null_column_then_typed_promotes(ray_session, tmp_path):
    root = str(tmp_path / "lake")
    run_to_completion(root, tbl([(0, "I", "r", "a", None)], pa.null()),
                      epoch_size=10, num_partitions=2)
    run_to_completion(root, tbl([(1, "I", "r", "b", "x")], pa.string()),
                      epoch_size=10, num_partitions=2)
    st = state_table(root)
    assert st.schema.field("size").type == pa.string()


def test_incompatible_kinds_fail_loudly_with_remedies(ray_session, tmp_path):
    root = str(tmp_path / "lake")
    run_to_completion(root, tbl([(0, "I", "r", "a", 5)], pa.int64()),
                      epoch_size=10, num_partitions=2)
    with pytest.raises(Exception, match="no safe promotion"):
        run_to_completion(root, tbl([(1, "U", "r", "a", "big")], pa.string()),
                          epoch_size=10, num_partitions=2)
    # the failed epoch never committed: the lake still reads cleanly
    assert state_table(root)["size"].to_pylist() == [5]
    assert "SchemaConflictError" in repr(SchemaConflictError("x"))
