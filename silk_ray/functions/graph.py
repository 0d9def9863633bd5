"""Distributed connected components over an edge-pair Dataset.

The dedup family (``silk_ray.functions.dedup``) ends where the
reference's linkage pipeline ends — at matched PAIRS (Silk emits links,
silk-core/src/main/scala/org/silkframework/rule/LinkageRule.scala; it
never groups them). A corpus-dedup pipeline needs one more step: group
the pair graph into duplicate CLUSTERS and keep one representative per
cluster. This module is that step, as a Ray-Data-native operator.

Algorithm: min-label propagation with pointer jumping (a.k.a.
hash-to-min / pointer doubling — the standard MapReduce-CC family, cf.
Kiveris et al., "Connected Components in MapReduce and Beyond",
SoCC'14). State is a ``(node, lbl)`` table initialised to ``lbl =
node``; every round each node takes the min over

- its own label,
- its neighbours' labels (edge propagation), and
- its label's label (pointer jumping: ``lbl' = lbl(lbl(node))``),

until a fixpoint. Labels are monotonically non-increasing and bounded
below by the component minimum, so the fixpoint exists and equals
``min(component)`` for every node (propagation alone reaches it along
shortest paths; pointer jumping contracts label chains geometrically,
giving O(log n) rounds instead of O(diameter)).

Scale shape (100 TB corpus => billions of dup-pair edges):

- Only ids move. Edges materialize once as ``(src, dst)`` int/string
  pairs (~16 B/row) and are re-read from the object store each round;
  the label table is the same width. Document text never enters.
- Every round is three hash shuffles over id-only tables: two
  ``shuffle_lookup`` tagged-union joins (edge propagation + pointer
  jump) and one native ``groupby(node).min(lbl)``; the convergence
  check is one more groupby over old+new labels. All are keyed hash
  exchanges — no driver-side state.
- Hot nodes (a near-dup "attractor" matched by millions) concentrate
  *messages*, not work: min-aggregation over a big group streams; the
  lookup side keys are unique by construction.
- The driver loop is the third legitimate iterative exception in this
  repo (with ``learn_linkage_rule``'s GA and the CDC epoch loop): the
  per-round fixpoint test is inherently sequential. Each round
  materializes only the O(#dup-nodes) label table.
"""

from __future__ import annotations

import pyarrow as pa


def _empty_labels(node_type: pa.DataType, node_col: str, label_col: str):
    import ray.data as rd

    return rd.from_arrow(
        pa.table({node_col: pa.array([], node_type), label_col: pa.array([], node_type)})
    )


def connected_components(
    pairs,
    left_col: str = "left_id",
    right_col: str = "right_id",
    node_col: str = "node",
    label_col: str = "cluster_id",
    num_partitions: int = 64,
    max_rounds: int = 64,
    local_max_edges: int = 1_000_000,
):
    """Label every node of the undirected pair graph with the minimum
    node id of its connected component.

    ``pairs`` is a Dataset with columns ``left_col``/``right_col`` (any
    extra columns are ignored; duplicate pairs are harmless — min is
    idempotent). Null endpoints and self-loops drop. Returns a Dataset
    ``(node_col, label_col)`` covering every node that appears in at
    least one edge; nodes outside the pair graph are trivially their
    own singleton cluster and are NOT emitted (keeps the output
    O(dup nodes), not O(corpus)).

    Below ``local_max_edges`` directed edges the component labeling runs
    as ONE driver-side union-find over the (id, id) edge list (~16 B/row
    — the same small-side gate idiom as the dedup/join broadcast gates);
    above it, the distributed min-label rounds run. Both paths produce
    identical output (unit-tested with the gate forced both ways)."""
    from silk_ray.pipelines.relational import shuffle_lookup

    node_type = pairs.schema().base_schema.field(left_col).type

    def to_edges(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        l = b[left_col].combine_chunks().cast(node_type)
        r = b[right_col].combine_chunks().cast(node_type)
        keep = pc.and_(
            pc.and_(pc.is_valid(l), pc.is_valid(r)), pc.not_equal(l, r)
        )
        l, r = l.filter(keep), r.filter(keep)
        return pa.table(
            {
                "src": pa.chunked_array([l, r]).combine_chunks(),
                "dst": pa.chunked_array([r, l]).combine_chunks(),
            }
        )

    # pinned once: every round re-reads the edge list from the object
    # store instead of re-running the (possibly expensive) upstream
    # pair-producing pipeline. Block counts are bounded per round
    # (coalescing repartition before each materialize): every groupby in
    # Ray's sort shuffle emits ~as many blocks as it receives, so the
    # union→groupby round structure would otherwise MULTIPLY blocks
    # ~3x per round — measured 1700 sub-row blocks by round 7 on a
    # 120-node test graph, with the driver-side sort estimator ballooning
    # to tens of GB. O(labels) coalesce per round is the cheap insurance.
    edges = pairs.map_batches(to_edges, batch_format="pyarrow").materialize()
    n_edges = edges.count()
    if n_edges == 0:
        return _empty_labels(node_type, node_col, label_col)
    if n_edges <= local_max_edges:
        return _local_cc(edges, node_type, node_col, label_col)
    # size the per-round coalesce to the DATA: a fixed count on a small
    # graph creates empty round-robin blocks, which Ray builds
    # schema-less ("RefBundle with a different schema" warnings); ≥4k
    # id-only rows per block keeps every block nonempty and the block
    # count still caps at num_partitions for big graphs
    num_partitions = max(1, min(num_partitions, -(-n_edges // 4096)))
    edges = edges.repartition(num_partitions).materialize()

    from ray.data.aggregate import Max, Min

    def init_labels(b: pa.Table) -> pa.Table:
        return pa.table({"node": b["src"], "lbl": b["src"]})

    labels = (
        _min_by_node(edges.map_batches(init_labels, batch_format="pyarrow"))
        .repartition(num_partitions)
        .materialize()
    )

    for rnd in range(max_rounds):
        # edge propagation: lbl(src) offered to dst
        prop = shuffle_lookup(edges, "src", labels, "node", "lbl", "_plbl").map_batches(
            lambda b: pa.table(
                {"node": b["dst"], "lbl": b["_plbl"], "old": pa.nulls(b.num_rows, b["_plbl"].type)}
            ),
            batch_format="pyarrow",
        )

        def own(b: pa.Table) -> pa.Table:
            # each node offers its own label AND carries it as `old`, so
            # the min-groupby below doubles as the convergence check
            return pa.table({"node": b["node"], "lbl": b["lbl"], "old": b["lbl"]})

        offers = [labels.map_batches(own, batch_format="pyarrow"), prop]
        if rnd > 0:  # round 0 labels are the identity — the jump is a no-op
            # pointer jump: lbl(lbl(node)) offered to node
            jump = shuffle_lookup(labels, "lbl", labels, "node", "lbl", "_jlbl").map_batches(
                lambda b: pa.table(
                    {"node": b["node"], "lbl": b["_jlbl"], "old": pa.nulls(b.num_rows, b["_jlbl"].type)}
                ),
                batch_format="pyarrow",
            )
            offers.append(jump)
        # one groupby computes BOTH the new label (min over offers) and
        # the old one (max over `old` — exactly one non-null per node),
        # so convergence costs no extra shuffle
        agg = (
            offers[0]
            .union(*offers[1:])
            .groupby("node")
            .aggregate(Min("lbl", alias_name="lbl"), Max("old", alias_name="old"))
            .repartition(num_partitions)
            .materialize()
        )
        changed = _sum_changed(agg)
        labels = agg.drop_columns(["old"])
        if changed == 0:
            break
    else:
        raise RuntimeError(
            f"connected_components did not converge in {max_rounds} rounds "
            "(pointer jumping bounds rounds at O(log n) — this graph is "
            "astronomically large or the input is adversarial)"
        )

    def rename(b: pa.Table) -> pa.Table:
        return pa.table({node_col: b["node"], label_col: b["lbl"]})

    return labels.map_batches(rename, batch_format="pyarrow")


def _local_cc(edges, node_type: pa.DataType, node_col: str, label_col: str):
    """Single-pass union-find over a gate-bounded edge list (ids only),
    the small-side fast path: one driver loop over ≤``local_max_edges``
    pairs replaces O(log n) distributed rounds' fixed job overhead."""
    import ray.data as rd

    src, dst = [], []
    for b in edges.iter_batches(batch_format="pyarrow"):
        src.append(b["src"].combine_chunks())
        dst.append(b["dst"].combine_chunks())
    return rd.from_arrow(
        union_find_labels(
            pa.chunked_array(src, node_type), pa.chunked_array(dst, node_type), node_col, label_col
        )
    )


def union_find_labels(src, dst, node_col: str = "node", label_col: str = "cluster_id") -> pa.Table:
    """Label every node of the undirected edge list ``src[i]``–``dst[i]``
    (two Arrow arrays of one id type) with the minimum node id of its
    component, in one driver-side union-find pass. Null endpoints and
    self-loops drop, as in :func:`connected_components`; the result
    covers the remaining edges' nodes, sorted by node."""
    import pyarrow.compute as pc

    keep = pc.and_(pc.and_(pc.is_valid(src), pc.is_valid(dst)), pc.not_equal(src, dst))
    node_type = src.type
    parent: dict = {}

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for a, b in zip(src.filter(keep).to_pylist(), dst.filter(keep).to_pylist()):
        if a not in parent:
            parent[a] = a
        if b not in parent:
            parent[b] = b
        ra, rb = find(a), find(b)
        if ra != rb:
            # union by min so roots stay the component minimum
            if rb < ra:
                ra, rb = rb, ra
            parent[rb] = ra
    nodes = sorted(parent)
    return pa.table(
        {
            node_col: pa.array(nodes, node_type),
            label_col: pa.array([find(n) for n in nodes], node_type),
        }
    )


def _min_by_node(offers):
    """groupby(node).min(lbl), with the aggregate column renamed back to
    ``lbl`` (Ray names it ``min(lbl)``)."""
    agg = offers.groupby("node").min("lbl")

    def rn(b: pa.Table) -> pa.Table:
        return pa.table({"node": b["node"], "lbl": b["min(lbl)"]})

    return agg.map_batches(rn, batch_format="pyarrow")


def _sum_changed(agg) -> int:
    """Count of nodes whose new label differs from the carried old one
    (labels only ever decrease — a tiny follow-up scan over the already
    materialized per-round aggregate, no extra shuffle)."""

    def count_changed(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        n = pc.sum(pc.cast(pc.not_equal(b["lbl"], b["old"]), pa.int64())).as_py()
        return pa.table({"n": pa.array([n or 0], pa.int64())})

    parts = agg.map_batches(count_changed, batch_format="pyarrow")
    return int(parts.sum("n") or 0)


def cluster_survivors(
    docs,
    clusters,
    id_col: str = "doc_id",
    node_col: str = "node",
    label_col: str = "cluster_id",
    broadcast_max: int = 4_000_000,
):
    """Drop every clustered document except its cluster representative
    (the min-id member): the "keep one per duplicate cluster" step of a
    corpus dedup pipeline.

    The drop set is ``{node != label}`` from the cluster table — small
    relative to the corpus but O(dup docs), so it broadcasts only below
    ``broadcast_max`` rows (driver-side set, map-side filter) and
    otherwise anti-joins via a hash shuffle
    (:func:`silk_ray.pipelines.relational.shuffle_anti_filter`)."""
    import pyarrow.compute as pc

    from silk_ray.pipelines.relational import broadcast_anti_filter, shuffle_anti_filter

    def drops_only(b: pa.Table) -> pa.Table:
        keep = pc.not_equal(b[node_col], b[label_col])
        return pa.table({node_col: b[node_col].filter(keep)})

    drop_ds = clusters.map_batches(drops_only, batch_format="pyarrow")
    n_dropped = drop_ds.count()
    if n_dropped == 0:
        return docs
    if n_dropped <= broadcast_max:
        drop_keys = drop_ds.to_pandas()[node_col].to_numpy()
        return broadcast_anti_filter(docs, id_col, drop_keys)
    return shuffle_anti_filter(docs, id_col, drop_ds, node_col)
