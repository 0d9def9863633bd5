"""Column-at-a-time pair scoring: ``LinkageRule.score_pairs`` (batch
distance kernels, columnar aggregation fold, limit pruning) equals the
per-pair tree walk ``score_from_leaf_values`` bit for bit, and the
numpy candidate enumeration of ``PairScorer`` equals a brute-force
reference pair for pair, in order."""

import math
import random

import numpy as np
import pyarrow as pa
import pytest

from silk_ray.kernel import AGGREGATORS, DISTANCE_MEASURES
from silk_ray.kernel.distances import ValueColumn
from silk_ray.kernel.rule import rule_from_dict
from silk_ray.linking import pipeline

WORDS = ["abc", "abd", "xyz", "a b c", "1.5", "3", "-2", "2020-01-02", "2020-01-05T10:00:00",
         "POINT(1 2)", "POINT(1.001 2)", "café", "cafe", "東京", "", "Hello World", "hello",
         "ab" * 40, "ab" * 39 + "b", "x" * 70, "q"]


def _values(rng, nulls: bool):
    r = rng.random()
    if r < 0.08:
        return None  # a null list: missing
    if r < 0.16:
        return []  # an empty list: missing
    n = rng.choice([1, 1, 1, 2, 3])
    return [None if nulls and rng.random() < 0.1 else rng.choice(WORDS) for _ in range(n)]


def _hex_scores(rule, cols, vals, pi, pj, limit):
    """``(kept positions, float.hex scores)`` of score_pairs."""
    kept, conf = rule.score_pairs(cols, np.asarray(pi), np.asarray(pj), limit)
    return kept.tolist(), [float(c).hex() for c in conf]


def _reference(rule, vals, pi, pj, limit):
    kept, conf = [], []
    for n, (i, j) in enumerate(zip(pi, pj)):
        score = rule.score_from_leaf_values([v[i] for v in vals], [v[j] for v in vals], limit)
        if score is not None and score >= limit:
            kept.append(n)
            conf.append(float(score).hex())
    return kept, conf


def _accepted(rule, vals, pi, pj, limit):
    """The pairs whose values the rule's measures accept: the per-pair
    walk raises on some inputs (a null element for string measures,
    'Hello World' for wgs84); the batch form is compared on the rest."""
    ok = []
    for i, j in zip(pi, pj):
        try:
            rule.score_from_leaf_values([v[i] for v in vals], [v[j] for v in vals], limit)
        except (TypeError, AttributeError, ValueError):
            continue
        ok.append((i, j))
    return [i for i, _ in ok], [j for _, j in ok]


@pytest.mark.parametrize("metric", sorted(DISTANCE_MEASURES))
def test_every_measure_columnar_equals_per_pair(metric):
    """Each registered measure, through its batch kernel or the default
    per-pair fallback, alone and under a weighted average next to a
    levenshtein leaf: missing, empty and null-element value lists,
    non-ASCII and long values, threshold 0 and a positive limit."""
    rng = random.Random(metric)
    n_ent = 60
    for threshold, limit in ((0.0, 0.0), (2.0, 0.0), (0.6, 0.3)):
        for nulls in (True, False):
            vals = [[_values(rng, nulls) for _ in range(n_ent)] for _ in range(2)]
            cols = [ValueColumn(pa.array(v, pa.list_(pa.string()))) for v in vals]
            spec = {"metric": metric, "threshold": threshold,
                    "source": {"path": "a"}, "target": {"path": "a"}}
            single = rule_from_dict({"operator": spec})
            nested = rule_from_dict({"operator": {"aggregator": "average", "operators": [
                dict(spec, weight=2),
                {"metric": "levenshteinDistance", "threshold": 1.0,
                 "source": {"path": "b"}, "target": {"path": "b"}},
            ]}})
            pi = [rng.randrange(n_ent) for _ in range(300)]
            pj = [rng.randrange(n_ent) for _ in range(300)]
            try:
                pi, pj = _accepted(nested, vals, pi, pj, limit)
            except ZeroDivisionError:  # a rounded negative distance at θ = 0
                with pytest.raises(ZeroDivisionError):
                    _hex_scores(single, cols[:1], vals[:1], pi, pj, limit)
                continue
            assert len(pi) > 100
            for rule, n in ((single, 1), (nested, 2)):
                want = _reference(rule, vals[:n], pi, pj, limit)
                assert _hex_scores(rule, cols[:n], vals[:n], pi, pj, limit) == want


def _tree(rng, depth: int, leaves: list, aggs: list):
    """A random operator tree over the leaf specs in ``leaves`` (each used
    once, in order) whose aggregators come from ``aggs``."""
    agg = aggs.pop(0) if aggs else rng.choice(["average", "min", "max"])
    single = agg in ("scale", "negate", "handleMissingValues")
    params = {"scale": {"factor": 0.5}, "handleMissingValues": {"defaultValue": 0.25}}
    n = 1 if single else rng.randint(2, 3)
    ops = []
    for _ in range(n):
        if depth < 2 and (aggs or rng.random() < 0.3):
            ops.append(_tree(rng, depth + 1, leaves, aggs))
        else:
            ops.append(dict(leaves.pop(0), weight=rng.randint(1, 3)))
    return {"aggregator": agg, "params": params.get(agg, {}), "operators": ops,
            "weight": rng.randint(1, 3)}


@pytest.mark.parametrize("seed", range(12))
def test_aggregation_trees_columnar_equal_per_pair(seed):
    """Random nested, weighted trees that use all eight aggregators, over
    leaves with batch kernels and fallback leaves, at limits that prune
    (and one below -1 that must not)."""
    assert len(AGGREGATORS) == 8
    rng = random.Random(seed)
    aggs = sorted(AGGREGATORS)
    rng.shuffle(aggs)
    aggs = aggs[: 3 + seed % 6]
    metrics = [("equality", 0.0), ("jaccard", 0.6), ("levenshteinDistance", 2.0),
               ("jaccardMinhashLSH", 0.4), ("jaro", 0.3), ("dice", 0.5)]
    leaves = []
    for k in range(30):
        m, th = metrics[k % len(metrics)]
        leaves.append({"metric": m, "threshold": th,
                       "source": {"path": f"l{k}"}, "target": {"path": f"l{k}"}})
    spec = _tree(rng, 0, list(leaves), list(aggs))
    rule = rule_from_dict({"operator": spec})
    n_leaves = len(rule.leaf_comparisons())
    n_ent = 50
    vals = [[_values(rng, False) for _ in range(n_ent)] for _ in range(n_leaves)]
    # near-duplicate entities so that many pairs score high
    for v in vals:
        for e in range(0, n_ent, 2):
            v[e + 1] = v[e]
    cols = [ValueColumn(pa.array(v, pa.list_(pa.string()))) for v in vals]
    pi = [rng.randrange(n_ent) for _ in range(400)] + list(range(0, n_ent, 2))
    pj = [rng.randrange(n_ent) for _ in range(400)] + list(range(1, n_ent, 2))
    for limit in (0.0, 0.2, 0.7, -1.5):
        want = _reference(rule, vals, pi, pj, limit)
        assert _hex_scores(rule, cols, vals, pi, pj, limit) == want
    assert want[0], "no pair kept: the tree tests nothing"


def test_value_column_chunked_sliced_and_null_lists():
    """A chunked, sliced list column with null lists reads as the same
    value lists as ``to_pylist`` (a null list counts as empty)."""
    arr = pa.array([["a", None], None, [], ["b", "a", "b"], None, ["c"]], pa.list_(pa.string()))
    for col in (arr.slice(1), pa.chunked_array([arr.slice(0, 2), arr.slice(2)])):
        vc = ValueColumn(col)
        want = col.to_pylist()
        assert vc.lengths.tolist() == [len(v or []) for v in want]
        rows = [r for r, v in enumerate(want) if v]
        assert vc.pylists(rows) == [want[r] for r in rows]


def test_batch_kernels_chunk_boundaries(monkeypatch):
    """The jaccard row-sort and the Myers bit table work in chunks: tiny
    chunks give the same distances."""
    from silk_ray.kernel import distances

    rng = random.Random(3)
    vals = [[rng.choice(WORDS[:14]) for _ in range(rng.randint(1, 5))] for _ in range(40)]
    col = ValueColumn(pa.array(vals, pa.list_(pa.string())))
    pi = np.array([rng.randrange(40) for _ in range(500)])
    pj = np.array([rng.randrange(40) for _ in range(500)])
    metrics = [distances.JaccardDistance(), distances.EqualityMetric(),
               distances.LevenshteinDistance()]
    want = [m.apply_pairs(col, pi, pj, 3.0) for m in metrics]
    monkeypatch.setattr(distances, "_MYERS_CHUNK", 7)
    monkeypatch.setattr(distances, "_ROWSORT_CELLS", 16)
    for m, w in zip(metrics, want):
        assert m.apply_pairs(col, pi, pj, 3.0).tolist() == w.tolist()
        assert w.tolist() == [m.apply(vals[i], vals[j], 3.0) for i, j in zip(pi, pj)]


def _brute_force_candidates(ents, key, ent, source_equals_target, dirty):
    """The pair order contract written out: blocks by ascending key, then
    the block's sources in block-index order, then its targets in
    block-index order; a pair needs a dirty side (when ``dirty``),
    ``source < target`` (when ``source_equals_target``) and the block
    key as the smallest key of the two full key sets' intersection."""
    side, uri, keys = ents["side"].to_pylist(), ents["uri"].to_pylist(), ents["keys"].to_pylist()
    flags = ents["dirty"].to_pylist() if dirty else None
    out = []
    for gk in sorted(set(key)):
        members = [e for k, e in zip(key, ent) if k == gk]
        for i in [e for e in members if side[e] == 1]:
            for j in [e for e in members if side[e] == 0]:
                if flags is not None and not (flags[i] or flags[j]):
                    continue
                if source_equals_target and not uri[i] < uri[j]:
                    continue
                if min(set(keys[i]) & set(keys[j])) == gk:
                    out.append((i, j))
    return out


@pytest.mark.parametrize("dirty", [False, True])
@pytest.mark.parametrize("source_equals_target", [False, True])
def test_candidates_equal_brute_force_in_order(monkeypatch, dirty, source_equals_target):
    """numpy ``_candidates`` returns exactly the brute-force pairs, in the
    same order, across chunk boundaries (``PAIR_CHUNK`` shrunk so chunks
    split blocks), with a local block index that lacks some keys — among
    them a sub-split block's smallest shared key, so that pair is not
    this index's to score."""
    rng = random.Random(11 + 2 * dirty + source_equals_target)
    rows = []
    for e in range(70):
        rows.append({"side": rng.choice([0, 1]), "uri": f"u{rng.randrange(40):03d}",
                     "keys": rng.sample([-5, 0, 3, 7, 2**40, 9, 12, -(2**50)], rng.randint(1, 4)),
                     "dirty": rng.random() < 0.3})
    # entities 70 and 71 share keys {3, 7}; the index below holds only 7
    rows.append({"side": 1, "uri": "a-src", "keys": [7, 3], "dirty": True})
    rows.append({"side": 0, "uri": "b-tgt", "keys": [3, 7], "dirty": True})
    ents = pa.Table.from_pylist(rows, schema=pa.schema([
        ("side", pa.int8()), ("uri", pa.string()), ("keys", pa.list_(pa.int64())),
        ("dirty", pa.bool_())]))
    local = {-5, 0, 7, 2**40, 12}
    key, ent = [], []
    for e in rng.sample(range(len(rows)), len(rows)):
        for k in rows[e]["keys"]:
            if k in local:
                key.append(k)
                ent.append(e)
    want = _brute_force_candidates(ents, key, ent, source_equals_target, dirty)
    assert (70, 71) not in want and len(want) > 20
    monkeypatch.setattr(pipeline, "PAIR_CHUNK", 5)
    scorer = pipeline.PairScorer({}, source_equals_target=source_equals_target,
                                 dirty_col="dirty" if dirty else None)
    chunks = list(scorer._candidates(ents, np.asarray(key, np.int64), np.asarray(ent, np.int64)))
    got = [(i, j) for pi, pj in chunks for i, j in zip(pi.tolist(), pj.tolist())]
    assert got == want
    assert len(chunks) > 3


def test_pair_scorer_chunks_equal_one_pass(monkeypatch):
    """More candidate pairs than one chunk: the links (confidences by
    ``float.hex``, in order) equal a single-chunk run's."""
    from silk_ray.pipelines.rules import BENCH_RULE
    from silk_ray.cdc.generator import make_base_table

    spec = {k: v for k, v in BENCH_RULE.items() if k != "filter_limit"}
    base = make_base_table(120, seed=4, near_dup_frac=0.5)
    stage = pipeline.IndexStage(rule_spec=spec, side=1, both_sides=True)
    base = base.append_column("uri", pa.compute.binary_join_element_wise(
        base["repo"], base["path"], "//"))
    part = stage(base)
    scorer = pipeline.PairScorer(spec, source_equals_target=True)
    timings = {}
    one = scorer.score_entities(part, part["key"].to_numpy(), np.arange(part.num_rows), timings)
    monkeypatch.setattr(pipeline, "PAIR_CHUNK", 64)
    many = scorer(part)
    assert timings["pairs"] > 3 * 64 and one.num_rows > 5

    def rows(t):
        return list(zip(t["source"].to_pylist(), t["target"].to_pylist(),
                        [c.hex() for c in t["confidence"].to_pylist()]))

    assert rows(many) == rows(one)
    assert not any(math.isnan(c) for c in one["confidence"].to_pylist())
