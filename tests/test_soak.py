"""Randomized CDC soak: seeded random event streams driven through
randomized epoching / partitioning / compaction, with a mid-stream
crash-resume and a redelivered window, must converge to the sequential
oracle and to a byte-identical sha256 across epoch shapes (north_rule:
"full replay from any checkpoint converges to byte-identical table
state").

Complements the scenario tests in test_cdc_merge.py: here every knob
(stream shape, epoch size, partition count, compaction trigger, crash
point, replayed window) is drawn from a seeded RNG so each seed is a
different interleaving of insert/update/delete, duplicate offsets and
(for half the seeds) schema evolution.
"""

import numpy as np
import pyarrow.compute as pc
import pytest

from silk_ray.cdc.generator import make_base_table, make_changelog, sequential_apply
from silk_ray.cdc.merge import (
    run_epoch,
    run_to_completion,
    state_sha256,
    state_table,
)

KEYS = ("repo", "path", "commit", "lang", "content", "branch")


def _oracle_rows(changelog):
    state = sequential_apply(changelog)
    return [
        {k: state[key].get(k) for k in KEYS} for key in sorted(state.keys())
    ]


def _engine_rows(root):
    rows = state_table(root).to_pylist()
    return [{k: r.get(k) for k in KEYS} for r in rows]


@pytest.mark.parametrize("seed", [101, 202, 303, 404, 505, 606, 707, 909])
def test_randomized_stream_soak(ray_session, tmp_path, seed, monkeypatch):
    rng = np.random.default_rng(seed)
    n_base = int(rng.integers(40, 160))
    n_events = int(rng.integers(500, 1100))
    dup_frac = float(rng.uniform(0.0, 0.12))
    evolve_at = int(rng.integers(n_events // 3, n_events)) if seed % 2 else None

    base = make_base_table(n_base, seed=seed)
    log = make_changelog(
        base, n_events, seed=seed + 1, dup_frac=dup_frac, evolve_at=evolve_at
    )

    # even seeds: inject malformed events at random ROW positions — the
    # DLQ must interact cleanly with crash-resume, redelivery and (seed
    # 404) schema evolution. Tracked by row index, not offset: a
    # corrupted copy of a duplicate-offset pair leaves its valid twin
    # applicable, and the oracle must see exactly the valid rows.
    # Every seed declares a typed payload schema: even seeds carry a
    # lexically-integer `size` column (2 of the 6 corruption kinds are
    # TYPE violations, structurally fine), odd seeds don't carry the
    # column at all — soaking the schema-evolution skip path.
    payload_schema = {"size": "IntegerValueType"}
    valid_log = log
    n_corrupt = 0
    if seed % 2 == 0:
        import pyarrow as pa

        rows = log.to_pylist()
        for i, r in enumerate(rows):
            r["size"] = str(int(rng.integers(1, 10_000)))
        idxs = {int(x) for x in rng.choice(len(rows), size=max(3, len(rows) // 40), replace=False)}
        for j, i in enumerate(sorted(idxs)):
            kind = j % 6
            if kind == 0:
                rows[i]["op"] = "X"
            elif kind == 1:
                rows[i]["op"] = None
            elif kind == 2:
                rows[i]["repo"] = ""
            elif kind == 3:
                rows[i]["path"] = None
            elif kind == 4:
                rows[i]["size"] = "12.5px"
            else:
                rows[i]["size"] = "-0x3"
        n_corrupt = len(idxs)
        schema = log.schema.append(pa.field("size", pa.string()))
        log = pa.Table.from_pylist(rows, schema=schema)
        valid_log = pa.Table.from_pylist(
            [r for k, r in enumerate(rows) if k not in idxs], schema=schema
        )

    # seeds divisible by 3: tag the stream with binlog transactions
    # (assign_txns maps by offset, so corrupted rows and duplicate
    # offsets tag consistently) and run the whole soak txn-atomic —
    # boundary snapping must compose with crash-resume, redelivery,
    # DLQ and repartition without changing any invariant. A txn whose
    # row quarantines applies its valid subset (documented policy).
    txn_atomic = seed % 3 == 0
    if txn_atomic:
        from silk_ray.cdc.generator import assign_txns

        log = assign_txns(log, seed=seed + 2, mean_size=6, untagged_frac=0.2)

    epoch_a = int(rng.integers(80, 400))
    epoch_b = int(rng.integers(80, 400))
    parts = int(rng.integers(2, 9))
    from silk_ray.cdc import chain

    monkeypatch.setattr(chain, "COMPACT_AT", int(rng.integers(2, 7)))

    # run A: straight through
    root_a = str(tmp_path / "a")
    run_to_completion(
        root_a, log, epoch_size=epoch_a, num_partitions=parts,
        payload_schema=payload_schema, txn_atomic=txn_atomic,
    )

    # run B: different epoching, crash-resume at a random committed epoch,
    # then a redelivery of an already-committed window before finishing
    root_b = str(tmp_path / "b")
    crash_after = int(rng.integers(1, max(2, n_events // epoch_b)))
    for _ in range(crash_after):
        run_epoch(root_b, log, epoch_size=epoch_b, num_partitions=parts,
                  payload_schema=payload_schema,
                  txn_atomic=txn_atomic)
    # redeliver a window that is fully below the committed HWM: no-op.
    # Under txn_atomic the committed next_offset can sit below
    # crash_after*epoch_b (snapped windows), so bound the draw by the
    # manifest — redelivery means at-or-below the commit, by definition.
    from silk_ray.cdc import checkpoint as ckpt

    sha_mid = state_sha256(root_b)
    committed = ckpt.read_manifest(root_b).next_offset
    lo = int(rng.integers(0, max(1, min(crash_after * epoch_b, committed) - 1)))
    redelivered = log.filter(pc.less(log["offset"], lo))
    if redelivered.num_rows:
        m = run_epoch(root_b, redelivered, epoch_size=epoch_b,
                      num_partitions=parts,
                      payload_schema=payload_schema, txn_atomic=txn_atomic)
        if m is not None:
            assert m["events_applied"] == 0
    assert state_sha256(root_b) == sha_mid
    # online repartition at this random mid-stream point: a new layout
    # drawn from the RNG (possibly == parts, a noop) must leave the
    # state byte-identical and the continued tail must converge anyway
    from silk_ray.cdc.repartition import repartition_lake

    parts_b2 = int(rng.integers(2, 13))
    repartition_lake(root_b, parts_b2)
    assert state_sha256(root_b) == sha_mid
    # resume to completion from the committed manifest (the repartition
    # re-pinned the layout; the old count must now be rejected)
    if parts_b2 != parts:
        with pytest.raises(ValueError, match="partitioned"):
            run_epoch(root_b, log, epoch_size=epoch_b, num_partitions=parts,
                      payload_schema=payload_schema,
                      txn_atomic=txn_atomic)
    run_to_completion(root_b, log, epoch_size=epoch_b, num_partitions=parts_b2,
                      payload_schema=payload_schema,
                      txn_atomic=txn_atomic)

    # 1) engine state equals the sequential oracle over the valid rows
    assert _engine_rows(root_a) == _oracle_rows(valid_log)
    # 2) byte-identical across epoch shapes + crash/replay history
    assert state_sha256(root_a) == state_sha256(root_b)
    # 3) quarantine content identical across epoch shapes, covers every
    #    corrupted row exactly once
    if n_corrupt:
        from silk_ray.cdc.merge import dead_letters_table

        def dlq_rows(root):
            return sorted(
                (r["offset"], r["reason"], r.get("repo"), r.get("path"))
                for r in dead_letters_table(root).to_pylist()
            )

        a, b = dlq_rows(root_a), dlq_rows(root_b)
        assert a == b
        assert len(a) == n_corrupt
