"""connected_components / cluster_survivors (functions/graph.py)."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from silk_ray.functions.graph import cluster_survivors, connected_components


def _brute_cc(edges):
    """Union-find oracle: node -> min node of its component."""
    parent = {}

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for a, b in edges:
        for n in (a, b):
            parent.setdefault(n, n)
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra
    nodes = sorted(parent)
    roots = {}
    for n in nodes:
        r = find(n)
        roots.setdefault(r, []).append(n)
    return {n: min(members) for members in roots.values() for n in members}


def _pairs_ds(edges, typ=pa.int64()):
    return rd.from_arrow(
        pa.table(
            {
                "left_id": pa.array([l for l, _ in edges], typ),
                "right_id": pa.array([r for _, r in edges], typ),
            }
        )
    )


def _cc_dict(pairs, **kw):
    out = connected_components(
        pairs, "left_id", "right_id", node_col="n", label_col="c", num_partitions=8, **kw
    ).to_pandas()
    if len(out) == 0:
        return {}
    return dict(zip(out["n"], out["c"]))


# local_max_edges=0 forces the distributed min-label rounds; the default
# takes the gate-bounded driver-side union-find — both must agree with
# the brute oracle
@pytest.mark.parametrize("gate", [{"local_max_edges": 0}, {}])
def test_cc_random_graph_matches_union_find(ray_session, gate):
    rng = np.random.default_rng(7)
    n = 120
    edges = [(int(a), int(b)) for a, b in rng.integers(0, n, (200, 2))]
    got = _cc_dict(_pairs_ds(edges), **gate)
    want = _brute_cc([(a, b) for a, b in edges if a != b])
    assert got == want


def test_cc_sparse_random_graph_local_path(ray_session):
    rng = np.random.default_rng(11)
    edges = [(int(a), int(b)) for a, b in rng.integers(0, 400, (60, 2))]
    got = _cc_dict(_pairs_ds(edges))
    assert got == _brute_cc([(a, b) for a, b in edges if a != b])


def test_cc_path_graph_converges_by_pointer_jumping(ray_session):
    # a 64-node path needs 63 rounds of pure edge propagation; pointer
    # jumping contracts label chains geometrically, so a 12-round cap
    # passes only if the jump step works (distributed branch forced)
    edges = [(i, i + 1) for i in range(63)]
    got = _cc_dict(_pairs_ds(edges), max_rounds=12, local_max_edges=0)
    assert got == {i: 0 for i in range(64)}


def test_cc_empty_and_self_loops_and_nulls(ray_session):
    assert _cc_dict(_pairs_ds([])) == {}
    assert _cc_dict(_pairs_ds([(5, 5), (7, 7)])) == {}
    ds = rd.from_arrow(
        pa.table(
            {
                "left_id": pa.array([1, None, 3], pa.int64()),
                "right_id": pa.array([2, 9, None], pa.int64()),
            }
        )
    )
    assert _cc_dict(ds) == {1: 1, 2: 1}


@pytest.mark.parametrize("gate", [{"local_max_edges": 0}, {}])
def test_cc_string_ids(ray_session, gate):
    edges = [("b", "c"), ("a", "b"), ("x", "y")]
    got = _cc_dict(_pairs_ds(edges, pa.string()), **gate)
    assert got == {"a": "a", "b": "a", "c": "a", "x": "x", "y": "x"}


def test_cc_duplicate_and_reversed_edges_are_harmless(ray_session):
    edges = [(1, 2), (2, 1), (1, 2), (2, 3)]
    assert _cc_dict(_pairs_ds(edges)) == {1: 1, 2: 1, 3: 1}
    assert _cc_dict(_pairs_ds(edges), local_max_edges=0) == {1: 1, 2: 1, 3: 1}


@pytest.mark.parametrize("broadcast_max", [10**9, 0])
def test_cluster_survivors_both_branches(ray_session, broadcast_max):
    # components {1,2,3}, {10,11}; docs 1..12 → survivors drop 2,3,11
    edges = [(1, 2), (2, 3), (10, 11)]
    cc = connected_components(
        _pairs_ds(edges), "left_id", "right_id", node_col="doc_id", label_col="cluster_id"
    )
    docs = rd.from_arrow(pa.table({"doc_id": pa.array(range(1, 13), pa.int64())}))
    out = cluster_survivors(
        docs, cc, id_col="doc_id", node_col="doc_id",
        broadcast_max=broadcast_max,
    ).to_pandas()
    assert sorted(out["doc_id"]) == [1, 4, 5, 6, 7, 8, 9, 10, 12]


def test_cluster_survivors_no_drops_passthrough(ray_session):
    cc = connected_components(_pairs_ds([]), "left_id", "right_id")
    docs = rd.from_arrow(pa.table({"doc_id": pa.array([1, 2], pa.int64())}))
    out = cluster_survivors(docs, cc, id_col="doc_id", node_col="node").to_pandas()
    assert sorted(out["doc_id"]) == [1, 2]
