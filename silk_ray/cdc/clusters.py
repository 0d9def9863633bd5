"""Incrementally maintained duplicate-cluster state over the CDC link
store.

The engine maintains a materialized *link* set per epoch
(cdc/incremental.py); this module maintains the materialized *cluster*
table over it — connected components of the link graph, the entity-
resolution grouping the reference stops short of (Silk emits links;
grouping them is the canonical downstream step). Per epoch, only the
components actually touched by the delta are rebuilt:

- every link REMOVED this epoch had a dirty endpoint (incremental.py
  drops exactly the stored links touching a dirty uri), so any
  component that can split contains a dirty uri;
- every link ADDED this epoch also has a dirty endpoint (`dirty_col`
  scoring), so any pair of components that can merge both contain a
  seed endpoint.

Hence the affected set A = old clusters of (dirty uris ∪ endpoints of
this epoch's new links) is exact: components outside A are bitwise
unchanged. The rebuild re-runs connected components only on links with
an endpoint in an A-component (or brand-new uris), then splices:
``new = old[cluster ∉ A] ∪ CC(subgraph)``. Members of A-components
whose links all vanished drop out (singletons are implicit, as in
:func:`silk_ray.functions.graph.connected_components`).

Scale shape: one driver-side Arrow pass per epoch, no Ray Data. It
reads the link manifest's files once (this also yields the epoch's new
links) and the old cluster table once; seeds, A, the member set and
the subgraph are vectorised ``is_in`` filters; union-find labels the
subgraph alone (:func:`silk_ray.functions.graph.union_find_labels`).
The spliced table is written once, sorted by ``uri``, as one parquet
file under ``clusters/epoch-E/``, followed by an atomic pointer swap
(same commit idiom as the linkstate), replay-idempotent, with a
one-epoch rollback window like every other store in the engine. Both
tables are the size of the linked corpus and are held in driver memory
for the pass (the bound ``links_table`` already assumes); the
union-find work is delta-sized except on a full rebuild.

Catch-up window: rebuilding epoch N needs N's summary files (the dirty
uris), which storage GC retains only for the newest epoch — the same
one-epoch window as the rest of the engine. A lag beyond it, or an
epoch without summaries (the link update ran un-fused, or rebuilt the
link set from the snapshot), triggers a loud FULL rebuild — the same
pass over an empty old state, with every current link counted as new —
which is always correct, and the metrics say it happened.
"""

from __future__ import annotations

import os
import shutil

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from silk_ray.cdc import checkpoint as ckpt
from silk_ray.cdc.incremental import _links_manifest, read_linkstate
from silk_ray.cdc.merge import epoch_changed_nothing, epoch_inputs
from silk_ray.functions.graph import union_find_labels


read_clusterstate = ckpt.CLUSTERS.read
commit_clusterstate = ckpt.CLUSTERS.commit
read_clusterstate_at = ckpt.CLUSTERS.read_at


_CLUSTERS_SCHEMA = pa.schema([("uri", pa.string()), ("cluster_id", pa.string())])
_LINKS_SCHEMA = pa.schema(
    [("source", pa.string()), ("target", pa.string()), ("epoch_added", pa.int32())]
)


def _conform(t: pa.Table, schema: pa.Schema) -> pa.Table:
    return pa.table([t[f.name].cast(f.type) for f in schema], schema=schema)


def _read_dir(d: str) -> pa.Table:
    parts = [
        _conform(pq.read_table(os.path.join(d, f)), _CLUSTERS_SCHEMA)
        for f in sorted(os.listdir(d))
        if f.endswith(".parquet")
    ]
    return pa.concat_tables(parts) if parts else _CLUSTERS_SCHEMA.empty_table()


def clusters_table(root: str, at_epoch: int | None = None) -> pa.Table:
    """Driver-side snapshot of the cluster state (test/small-lake
    helper, like ``links_table``). ``at_epoch`` time-travels to a
    retained earlier commit."""
    state = (
        read_clusterstate(root) if at_epoch is None else read_clusterstate_at(root, at_epoch)
    )
    if not state.get("dir"):
        return _CLUSTERS_SCHEMA.empty_table()
    return _read_dir(os.path.join(root, state["dir"]))


def _links(root: str) -> pa.Table:
    """The current link set's ``(source, target, epoch_added)`` columns,
    one read per manifest file."""
    parts = [
        _conform(
            pq.read_table(os.path.join(root, e["file"]), columns=_LINKS_SCHEMA.names),
            _LINKS_SCHEMA,
        )
        for e in _links_manifest(read_linkstate(root))
    ]
    return pa.concat_tables(parts) if parts else _LINKS_SCHEMA.empty_table()


def update_clusters(root: str, epoch: int) -> dict:
    """Bring the cluster state up to merge/link epoch ``epoch``.

    Idempotent: a replayed epoch returns without touching state. A lag
    beyond the one-epoch summary-retention window triggers a full
    rebuild (see module docstring): the same pass over an empty old
    state with every current link counted as new."""
    state = read_clusterstate(root)
    if state["epoch"] >= epoch:
        return {"epoch": epoch, "mode": "replay_noop", "rows": _state_rows(root, state)}
    links = _links(root)
    old_dir = state.get("dir")
    # the splice needs the epoch's dirty uris: summaries for a longer
    # gap are GC'd, and an un-fused or snapshot (full) link update
    # writes none; no old table means no base
    summaries = epoch_inputs(root, "summaries", epoch)
    full = state["epoch"] < epoch - 1 or old_dir is None or not (
        summaries or epoch_changed_nothing(root, epoch)
    )
    new = links if full else links.filter(pc.equal(links["epoch_added"], epoch))
    seed_parts = [new["source"], new["target"]]
    if not full:
        seed_parts += [
            pq.read_table(f, columns=["uri"])["uri"].cast(pa.string())
            for f in summaries
        ]
    seeds = pc.unique(
        pa.chunked_array([c for col in seed_parts for c in col.chunks], pa.string())
    )
    if not full and len(seeds) == 0:
        # clean epoch: nothing linked or unlinked — pointer moves, data
        # doesn't (the state dir is carried forward verbatim)
        return _commit(root, state, epoch, old_dir, "noop", 0, 0)

    old = _CLUSTERS_SCHEMA.empty_table() if full else _read_dir(os.path.join(root, old_dir))
    hit = pc.unique(old.filter(pc.is_in(old["uri"], value_set=seeds))["cluster_id"])
    in_affected = pc.is_in(old["cluster_id"], value_set=hit)
    # members = affected-component members ∪ seeds (covers brand-new
    # uris with no old cluster); the subgraph is every link touching one
    members = pa.chunked_array(
        old["uri"].filter(in_affected).chunks + [seeds], pa.string()
    ).combine_chunks()
    sub = links.filter(
        pc.or_(
            pc.is_in(links["source"], value_set=members),
            pc.is_in(links["target"], value_set=members),
        )
    )
    cc = union_find_labels(sub["source"], sub["target"], "uri", "cluster_id")
    kept = old.filter(pc.invert(in_affected))
    out = pa.concat_tables([kept, cc]).sort_by("uri")

    rel = os.path.join("clusters", f"epoch-{epoch:06d}")
    out_dir = os.path.join(root, rel)
    if os.path.isdir(out_dir):  # crashed attempt: the pointer is the commit
        shutil.rmtree(out_dir)
    ckpt.atomic_write_parquet(out, os.path.join(out_dir, "part-000.parquet"))
    return _commit(
        root, state, epoch, rel, "full" if full else "delta",
        -1 if full else len(hit), -1 if full else len(seeds), rows=out.num_rows,
    )


def _state_rows(root: str, state: dict) -> int:
    if not state.get("dir"):
        return 0
    d = os.path.join(root, state["dir"])
    return sum(
        pq.read_metadata(os.path.join(d, f)).num_rows
        for f in os.listdir(d)
        if f.endswith(".parquet")
    )


def _commit(root, state, epoch, rel_dir, mode, affected, seeds, rows=None) -> dict:
    prev = state.get("dir")
    new_state = {
        "epoch": epoch,
        "dir": rel_dir,
        "dir_prev": prev if prev != rel_dir else state.get("dir_prev"),
    }
    commit_clusterstate(root, new_state)
    if rows is None:
        rows = _state_rows(root, new_state)
    return {
        "epoch": epoch,
        "mode": mode,
        "rows": rows,
        "affected_clusters": affected,
        "seed_uris": seeds,
    }


# delete cluster epoch dirs outside the pointer + retention window
# (``dir`` / ``dir_prev`` always survive; ``retain_epochs`` past
# snapshots stay readable via ``clusters_table(at_epoch=)``)
gc_clusters = ckpt.CLUSTERS.gc
