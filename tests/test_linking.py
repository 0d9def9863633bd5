"""Linking conformance: Ray MultiBlock pipeline vs brute-force oracle
(the RD analogue of GenerateLinksTest.scala:38-209 on the F3 fixture)."""

import pyarrow as pa
import pytest

from silk_ray.cdc.generator import make_base_table, make_uri
from silk_ray.kernel.evaluation import evaluate_links, pairs_completeness
from silk_ray.kernel.rule import rule_from_dict
from silk_ray.linking.full import full_candidate_pairs, full_links
from silk_ray.pipelines.rules import CONFORMANCE_RULE


@pytest.fixture(scope="module")
def fixture_tables():
    base = make_base_table(300, seed=7, near_dup_frac=0.15)
    repo_num = [int(r.split("-")[1]) for r in base["repo"].to_pylist()]
    src_mask = pa.array([n < 100 for n in repo_num])
    tgt_mask = pa.array([n >= 100 for n in repo_num])
    return base.filter(src_mask), base.filter(tgt_mask)


def _entities(table: pa.Table):
    rows = table.to_pylist()
    out = []
    for r in rows:
        uri = make_uri(r["repo"], r["path"])
        ent = {k: ([str(v)] if v is not None else []) for k, v in r.items()}
        out.append((uri, ent))
    return out


def _oracle_links(src, tgt, rule, limit=0.0):
    """Blocked-oracle: brute-force scoring restricted to MultiBlock
    candidate pairs + deterministic top-k filter — exactly what the
    pipeline must produce."""
    candidates = full_candidate_pairs(src, tgt, rule, limit)
    all_links = full_links(src, tgt, rule, limit)
    kept = [(s, t, c) for (s, t, c) in all_links if (s, t) in candidates]
    if rule.filter_limit:
        by_source = {}
        for s, t, c in kept:
            by_source.setdefault(s, []).append((s, t, c))
        kept = []
        for s, links in by_source.items():
            links.sort(key=lambda x: (-x[2], x[1]))
            kept.extend(links[: rule.filter_limit])
    return kept


def test_blocked_pipeline_matches_oracle(ray_session, fixture_tables):
    import ray.data as rd

    from silk_ray.linking.pipeline import add_uri_column, generate_links

    src_table, tgt_table = fixture_tables
    rule = rule_from_dict(CONFORMANCE_RULE)

    src_ents = _entities(src_table)
    tgt_ents = _entities(tgt_table)
    expected = _oracle_links(src_ents, tgt_ents, rule)
    assert expected, "fixture must produce links"

    src_ds = add_uri_column(rd.from_arrow(src_table))
    tgt_ds = add_uri_column(rd.from_arrow(tgt_table))
    links = generate_links(src_ds, tgt_ds, CONFORMANCE_RULE).to_pandas()

    got = {(r.source, r.target): r.confidence for r in links.itertuples()}
    exp = {(s, t): c for s, t, c in expected}
    assert set(got) == set(exp)
    for k in exp:
        assert got[k] == pytest.approx(exp[k])


def test_pairs_completeness_of_multiblock(fixture_tables):
    """Candidate generation finds (nearly) all true links on the fixture
    (GenerateLinksTest pairs-completeness metric)."""
    src_table, tgt_table = fixture_tables
    rule = rule_from_dict(CONFORMANCE_RULE)
    src_ents = _entities(src_table)
    tgt_ents = _entities(tgt_table)
    true_links = {(s, t) for s, t, _ in full_links(src_ents, tgt_ents, rule)}
    candidates = full_candidate_pairs(src_ents, tgt_ents, rule)
    pc = pairs_completeness(candidates, true_links)
    assert pc == pytest.approx(1.0)
    # and blocking actually reduces the comparison space
    assert len(candidates) < len(src_ents) * len(tgt_ents) * 0.5


def test_linking_finds_planted_near_dups(ray_session, fixture_tables):
    import ray.data as rd

    from silk_ray.cdc.generator import golden_links
    from silk_ray.linking.pipeline import add_uri_column, generate_links

    src_table, tgt_table = fixture_tables
    combined = pa.concat_tables([src_table, tgt_table])
    golden = golden_links(combined)
    assert golden, "generator must plant near-dups"

    src_ds = add_uri_column(rd.from_arrow(src_table))
    tgt_ds = add_uri_column(rd.from_arrow(tgt_table))
    links = generate_links(src_ds, tgt_ds, CONFORMANCE_RULE).to_pandas()
    found = {(r.source, r.target) for r in links.itertuples()}
    result = evaluate_links(found, golden)
    assert result.recall > 0.9
    assert result.precision > 0.5


def test_self_link_triangular(ray_session):
    import ray.data as rd

    from silk_ray.linking.pipeline import add_uri_column, generate_links

    base = make_base_table(120, seed=11, near_dup_frac=0.2)
    ds = add_uri_column(rd.from_arrow(base))
    links = generate_links(ds, None, CONFORMANCE_RULE, source_equals_target=True).to_pandas()
    # triangular: never both (a,b) and (b,a), never (a,a)
    pairs = {(r.source, r.target) for r in links.itertuples()}
    assert all(s < t for s, t in pairs)


def test_unambiguous_filter_drops_multilink_sources(ray_session):
    """LinkFilter unambiguous mode (Filter.scala:46-57): sources with >1
    distinct link are dropped entirely; single-link sources survive."""
    import ray.data as rd

    from silk_ray.linking.pipeline import generate_links

    src = pa.table({"uri": ["s1", "s2"], "name": ["alpha", "beta"]})
    tgt = pa.table({"uri": ["t1", "t2", "t3"], "name": ["alpha", "alpha", "beta"]})
    op = {
        "metric": "equality",
        "threshold": 0.0,
        "source": {"path": "name"},
        "target": {"path": "name"},
    }

    plain = generate_links(
        rd.from_arrow(src), rd.from_arrow(tgt), {"operator": op}
    ).to_pandas()
    assert set(zip(plain.source, plain.target)) == {("s1", "t1"), ("s1", "t2"), ("s2", "t3")}

    unamb = generate_links(
        rd.from_arrow(src),
        rd.from_arrow(tgt),
        {"operator": op, "filter_limit": 1, "filter_unambiguous": True},
    ).to_pandas()
    assert set(zip(unamb.source, unamb.target)) == {("s2", "t3")}


def test_salting_preserves_results(ray_session, fixture_tables):
    import ray.data as rd

    from silk_ray.linking.pipeline import add_uri_column, generate_links

    src_table, tgt_table = fixture_tables
    src_ds = add_uri_column(rd.from_arrow(src_table))
    tgt_ds = add_uri_column(rd.from_arrow(tgt_table))
    plain = generate_links(src_ds, tgt_ds, CONFORMANCE_RULE).to_pandas()
    salted = generate_links(
        src_ds, tgt_ds, CONFORMANCE_RULE, salt_threshold=5, n_salt=4
    ).to_pandas()
    key = lambda df: sorted(zip(df.source, df.target, df.confidence.round(9)))
    assert key(plain) == key(salted)


def test_stringmap_candidate_pairs():
    # StringMap.scala:24-50 — FastMap-embedded candidate generation:
    # every truly-similar pair (levenshtein <= threshold) must survive
    # the mapped-space filter (contractive embedding => no false
    # negatives), and the filter should prune some dissimilar pairs.
    from silk_ray.kernel.distances import LevenshteinDistance
    from silk_ray.kernel.stringmap import comparison_pairs

    src = [["smith"], ["johnson"], ["williams"], ["brown"], ["jones"], ["miller"]]
    tgt = [["smyth"], ["jonson"], ["wiliams"], ["braun"], ["davis"], ["garcia"]]
    pairs = set(comparison_pairs(src, tgt, dist_threshold=2, threshold_percentage=1.0, dimensionality=8))
    lev = LevenshteinDistance()
    truly_similar = {
        (i, j)
        for i in range(len(src))
        for j in range(len(tgt))
        if lev.apply(src[i], tgt[j]) <= 2
    }
    assert truly_similar, "fixture must contain similar pairs"
    assert truly_similar <= pairs  # completeness
    assert len(pairs) < len(src) * len(tgt)  # pruning


def test_include_reference_links(ray_session):
    """GenerateLinks.scala:115-118: negatives removed, missing positives
    added at confidence 1.0, existing positives keep engine confidence."""
    import ray.data as rd

    from silk_ray.linking.pipeline import include_reference_links

    links = rd.from_items(
        [
            {"source": "a", "target": "x", "confidence": 0.7},
            {"source": "b", "target": "y", "confidence": 0.6},
            {"source": "c", "target": "z", "confidence": 0.9},
        ]
    )
    out = include_reference_links(
        links,
        positive=[("a", "x"), ("d", "w")],
        negative=[("b", "y")],
    ).to_pandas().sort_values(["source", "target"]).reset_index(drop=True)
    assert list(out.source) == ["a", "c", "d"]
    # existing positive keeps the engine's confidence, not 1.0
    assert out[out.source == "a"].confidence.iloc[0] == pytest.approx(0.7)
    assert out[out.source == "d"].confidence.iloc[0] == pytest.approx(1.0)


def test_cities_shape_rule_multiblock_equals_full(ray_session):
    """The reference's cities fixture rule (cities/config.xml: MIN
    aggregate of levenshteinDistance θ=1 on label + wgs84 θ=30km on
    coordinates) end-to-end: conjunction index combination + continuous
    2-D geo blocking must lose nothing vs the Full oracle."""
    import random

    import ray.data as rd

    from silk_ray.linking.full import full_links
    from silk_ray.linking.pipeline import generate_links

    rule_spec = {
        "operator": {
            "aggregator": "min",
            "operators": [
                {"metric": "levenshteinDistance", "threshold": 1.0, "weight": 1,
                 "source": {"path": "label"}, "target": {"path": "label"}},
                {"metric": "wgs84", "params": {"unit": "km"}, "threshold": 30.0, "weight": 1,
                 "source": {"path": "coordinates"}, "target": {"path": "coordinates"}},
            ],
        }
    }
    rng = random.Random(7)
    cities = [
        (f"City{chr(65 + i % 26)}{i}", round(rng.uniform(-60, 60), 4), round(rng.uniform(-170, 170), 4))
        for i in range(150)
    ]
    src_rows, tgt_rows = [], []
    for i, (name, lat, lon) in enumerate(cities):
        src_rows.append({"uri": f"s{i}", "label": name, "coordinates": f"{lat} {lon}"})
        if i % 3 == 0:
            # near-dup: 1 char edit + ~10 km offset (should link)
            tgt_rows.append({"uri": f"t{i}", "label": name[:-1] + "x",
                             "coordinates": f"{round(lat + 0.09, 4)} {lon}"})
        elif i % 3 == 1:
            # same name, far away (>30 km → min kills it)
            tgt_rows.append({"uri": f"t{i}", "label": name,
                             "coordinates": f"{round(lat + 5.0, 4)} {lon}"})
        else:
            tgt_rows.append({"uri": f"t{i}", "label": name + "zzz",
                             "coordinates": f"{lat} {lon}"})

    links = generate_links(
        rd.from_items(src_rows), rd.from_items(tgt_rows), rule_spec, link_limit=None
    ).to_pandas()
    mb = {(s, t, round(c, 9)) for s, t, c in zip(links.source, links.target, links.confidence)}

    se = [(r["uri"], {"label": [r["label"]], "coordinates": [r["coordinates"]]}) for r in src_rows]
    te = [(r["uri"], {"label": [r["label"]], "coordinates": [r["coordinates"]]}) for r in tgt_rows]
    full = {(a, b, round(c, 9)) for a, b, c in full_links(se, te, rule_from_dict(rule_spec))}

    assert len(full) >= 40  # the planted i%3==0 near-dups link
    assert mb == full
    # far-away same-name pairs were killed by the min aggregate
    assert not any(s[1:] == t[1:] and int(s[1:]) % 3 == 1 for s, t, _ in full)


def test_salted_emit_dedups_colliding_keys():
    """A salted key image _mix64(key*31+s+1) can collide with one of the
    row's own raw index keys; the row must still emit each block value
    once or the scorer sees it twice and duplicates every pair in that
    block (regression: link_names +59 rows at sf0.01 with salting).
    This entity's raw q-gram key set is {0, _mix64(0*31+salt(uri)+1)} —
    a real observed collision with hot key 0."""
    import pyarrow as pa

    from silk_ray.linking.pipeline import IndexStage

    rule = {
        "operator": {
            "metric": "levenshteinDistance",
            "threshold": 2,
            "source": {"transform": "stripPrefix", "params": {"prefix": "Customer#"},
                       "inputs": [{"path": "c_name"}]},
            "target": {"transform": "stripPrefix", "params": {"prefix": "Supplier#"},
                       "inputs": [{"path": "s_name"}]},
        },
    }
    stage = IndexStage(rule_spec=rule, side=1, limit=0.0, hot_keys={0: True}, n_salt=32)
    out = stage(pa.table({"c_name": ["Customer#000001005"], "uri": ["Customer#000001005"]}))
    keys = out["key"].to_pylist()
    assert len(keys) == len(set(keys)), f"duplicate emitted block keys: {keys}"


def test_levenshtein_fast_path_non_ascii_fallback():
    """The levenshtein batch kernel is byte-level; 'café' vs 'cafe' is
    char d=1 but byte d=2. Non-ASCII values must take the
    character-level per-pair path."""
    import pyarrow as pa

    from silk_ray.linking.pipeline import PairScorer

    rule = {
        "operator": {
            "metric": "levenshteinDistance",
            "threshold": 1,
            "source": {"path": "name"},
            "target": {"path": "name"},
        },
    }
    tbl = pa.table({
        "key": pa.array([5, 5], pa.int64()),
        "side": pa.array([1, 0], pa.int8()),
        "uri": pa.array(["a", "b"]),
        "keys": pa.array([[5], [5]], pa.list_(pa.int64())),
        "vals_0": pa.array([["café"], ["cafe"]], pa.list_(pa.string())),
    })
    out = PairScorer(rule, limit=0.0)(tbl)
    assert out.num_rows == 1
    assert out["confidence"][0].as_py() == 0.0  # char d=1, 1 - 1/1


def test_topk_per_source_matches_pandas_contract():
    """_topk_per_source (sorted-factorize + lexsort) must equal the
    classic sort_values + groupby.head contract element-for-element,
    including confidence ties broken by target order."""
    import numpy as np
    import pandas as pd

    from silk_ray.linking.pipeline import _topk_per_source

    rng = np.random.default_rng(7)
    n = 5000
    df = pd.DataFrame(
        {
            "source": [f"s{i}" for i in rng.integers(0, 40, n)],
            "target": [f"t{i}" for i in rng.integers(0, 60, n)],
            # coarse grid forces plenty of confidence ties
            "confidence": rng.integers(0, 5, n) / 4.0,
        }
    )
    for k in (1, 3, 17):
        ref = (
            df.sort_values(
                ["source", "confidence", "target"], ascending=[True, False, True], kind="mergesort"
            )
            .groupby("source", sort=False)
            .head(k)
        )
        got = _topk_per_source(df, k)
        key = ["source", "target", "confidence"]
        assert (
            got.sort_values(key).reset_index(drop=True).equals(
                ref.sort_values(key).reset_index(drop=True)
            )
        ), k
    assert len(_topk_per_source(df.head(0), 3)) == 0


@pytest.mark.parametrize(
    "arr",
    [
        pa.array([["é", None, "x"], None, [], ["ß🙂", ""], None, ["a"]], pa.list_(pa.string())),
        pa.array([[1, None, 3], None, [], [2**62, -(2**63)], [None], [-5]], pa.list_(pa.int64())),
    ],
    ids=["list_string", "list_int64"],
)
def test_list_column_to_pylist_matches_to_pylist(arr):
    """The scorer's vectorised list conversion returns exactly what
    to_pylist() returns: None for a null list, [] for an empty list,
    None for a null element, the same Python types — on chunked and
    sliced inputs, whose offsets do not start at zero."""
    from silk_ray.kernel.distances import list_column_to_pylist

    cases = [
        arr,
        arr.slice(1),
        arr.slice(2, 3),
        arr.slice(len(arr)),
        pa.chunked_array([], arr.type),
        pa.chunked_array([arr.slice(0, 0), arr.slice(1, 2), arr.slice(3)]),
        pa.chunked_array([arr, arr.slice(4)]),
    ]

    def types(rows):
        return [type(x) for r in rows if r for x in r]

    for col in cases:
        got, want = list_column_to_pylist(col), col.to_pylist()
        assert got == want
        assert types(got) == types(want)


@pytest.mark.parametrize("dirty_col", [None, "dirty"])
def test_pair_scorer_generic_path_matches_brute_force(dirty_col):
    """PairScorer's generic path over a hand-built exploded table (null
    and empty value lists, per-side key sets, an asymmetric rule whose
    source and target values differ per side, two record batches) equals
    a brute-force reference: every side-1 × side-0 entity pair sharing
    a key, scored once with ``score_from_leaf_values``, kept when
    s < t (triangular), when a side is dirty, and when score >= limit."""
    import random

    from silk_ray.linking.pipeline import PairScorer, _exploded_schema

    rule_spec = {
        "operator": {
            "aggregator": "average",
            "operators": [
                {
                    "metric": "levenshteinDistance",
                    "threshold": 2.0,
                    "source": {"path": "s_name"},
                    "target": {"path": "t_name"},
                },
                {
                    "metric": "jaccard",
                    "threshold": 0.7,
                    "source": {"path": "s_tok"},
                    "target": {"path": "t_tok"},
                },
            ],
        },
    }
    rule = rule_from_dict(rule_spec)
    limit = 0.2
    rng = random.Random(11)

    def name():
        r = rng.random()
        if r < 0.1:
            return None
        return [] if r < 0.2 else ["".join(rng.choices("abé", k=rng.randint(2, 4)))]

    def toks():
        return [] if rng.random() < 0.1 else sorted(set(rng.choices("xyzw", k=3)))

    ents = []
    for e in range(40):
        ents.append({
            "uri": f"u{e:03d}",
            "dirty": rng.random() < 0.3,
            # side -> (keys, [vals_0, vals_1])
            1: (set(rng.sample(range(6), rng.randint(1, 3))), [name(), toks()]),
            0: (set(rng.sample(range(6), rng.randint(1, 3))), [name(), toks()]),
        })
    rows = []
    for ent in ents:
        for side in (1, 0):
            keys, vals = ent[side]
            for k in sorted(keys):
                rows.append({
                    "key": k, "side": side, "uri": ent["uri"], "keys": sorted(keys),
                    "vals_0": vals[0], "vals_1": vals[1], "dirty": ent["dirty"],
                })
    rng.shuffle(rows)
    schema = _exploded_schema(2).append(pa.field("dirty", pa.bool_()))
    half = len(rows) // 2
    part = pa.Table.from_batches([
        pa.RecordBatch.from_pylist(rows[:half], schema=schema),
        pa.RecordBatch.from_pylist(rows[half:], schema=schema),
    ])

    got = PairScorer(rule_spec, limit=limit, source_equals_target=True, dirty_col=dirty_col)(part)
    assert got.schema.names == ["source", "target", "confidence"]
    got_rows = sorted(zip(*(got[c].to_pylist() for c in got.schema.names)))

    want = []
    for s in ents:
        for t in ents:
            if s["uri"] >= t["uri"] or not (s[1][0] & t[0][0]):
                continue
            if dirty_col and not (s["dirty"] or t["dirty"]):
                continue
            score = rule.score_from_leaf_values(s[1][1], t[0][1], limit)
            if score is not None and score >= limit:
                want.append((s["uri"], t["uri"], score))
    want.sort()
    assert len(want) > 5
    assert [(s, t) for s, t, _ in got_rows] == [(s, t) for s, t, _ in want]
    assert [c for *_, c in got_rows] == pytest.approx([c for *_, c in want])


@pytest.mark.parametrize("dirty_col", [None, "dirty"])
@pytest.mark.parametrize("all_blocks", [True, False])
def test_pair_scorer_entity_core_matches_brute_force(dirty_col, all_blocks):
    """The scoring core over an entity table (one row per (uri, side))
    and a ``(key, entity)`` block index, laid out as a loader builds it
    — one partition after another, each entity in several blocks and
    partitions — equals a brute-force reference: every side-1 × side-0
    pair, scored once with ``score_from_leaf_values``, kept when s < t,
    when a side is dirty, when the pair's smallest shared key is among
    the indexed blocks (``all_blocks=False`` indexes only some keys, as
    a loader holds only the affected ones) and when score >= limit.
    Null and empty value lists and an asymmetric rule are covered."""
    import random

    import numpy as np

    from silk_ray.linking.pipeline import PairScorer

    rule_spec = {
        "operator": {
            "aggregator": "average",
            "operators": [
                {
                    "metric": "levenshteinDistance",
                    "threshold": 2.0,
                    "source": {"path": "s_name"},
                    "target": {"path": "t_name"},
                },
                {
                    "metric": "jaccard",
                    "threshold": 0.7,
                    "source": {"path": "s_tok"},
                    "target": {"path": "t_tok"},
                },
            ],
        },
    }
    rule = rule_from_dict(rule_spec)
    limit, n_bp = 0.2, 3
    rng = random.Random(5)

    def name():
        r = rng.random()
        if r < 0.1:
            return None
        return [] if r < 0.2 else ["".join(rng.choices("abé", k=rng.randint(2, 4)))]

    def toks():
        return [] if rng.random() < 0.1 else sorted(set(rng.choices("xyzw", k=3)))

    ents = []
    for e in range(40):
        for side in (1, 0):
            ents.append({
                "side": side, "uri": f"u{e:03d}",
                "keys": sorted(rng.sample(range(9), rng.randint(1, 4))),
                "vals_0": name(), "vals_1": toks(), "dirty": e % 3 == 0,
            })
    rng.shuffle(ents)
    indexed = set(range(9)) if all_blocks else {0, 2, 3, 5, 7}
    key, ent = [], []
    for bp in range(n_bp):
        for i, x in enumerate(ents):
            for k in x["keys"]:
                if k % n_bp == bp and k in indexed:
                    key.append(k)
                    ent.append(i)
    assert len(key) > len(ents)
    table = pa.Table.from_pylist(ents, schema=pa.schema([
        ("side", pa.int8()), ("uri", pa.string()), ("keys", pa.list_(pa.int64())),
        ("vals_0", pa.list_(pa.string())), ("vals_1", pa.list_(pa.string())),
        ("dirty", pa.bool_()),
    ]))
    timings = {}
    got = PairScorer(rule_spec, limit=limit, source_equals_target=True, dirty_col=dirty_col) \
        .score_entities(table, np.asarray(key, np.int64), np.asarray(ent, np.int64), timings)
    assert got.schema.names == ["source", "target", "confidence"]
    assert set(timings) == {"enumerate_s", "score_s", "pairs", "pairs_kept"}
    assert timings["pairs_kept"] == got.num_rows <= timings["pairs"]
    got_rows = sorted(zip(*(got[c].to_pylist() for c in got.schema.names)))

    want = []
    for s in ents:
        for t in ents:
            common = set(s["keys"]) & set(t["keys"])
            if s["side"] != 1 or t["side"] != 0 or s["uri"] >= t["uri"] or not common:
                continue
            if min(common) not in indexed:
                continue
            if dirty_col and not (s["dirty"] or t["dirty"]):
                continue
            score = rule.score_from_leaf_values(
                [s["vals_0"], s["vals_1"]], [t["vals_0"], t["vals_1"]], limit
            )
            if score is not None and score >= limit:
                want.append((s["uri"], t["uri"], score))
    want.sort()
    assert len(want) > 5
    assert [(s, t) for s, t, _ in got_rows] == [(s, t) for s, t, _ in want]
    assert [c for *_, c in got_rows] == pytest.approx([c for *_, c in want])


@pytest.mark.parametrize("blocks", [0, 3])
def test_link_filters_empty_and_multi_block(ray_session, blocks):
    """Top-k and unambiguous filters on an empty links dataset return no
    rows; with one source's links spread over several blocks they see
    that source as a whole."""
    import ray.data as rd

    from silk_ray.linking.pipeline import apply_link_filter, apply_unambiguous_filter

    schema = pa.schema(
        [("source", pa.string()), ("target", pa.string()), ("confidence", pa.float64())]
    )

    links = [
        ("s1", "t1", 0.9), ("s1", "t2", 0.5), ("s2", "t3", 0.7),
        ("s1", "t3", 0.8), ("s3", "t1", 0.4), ("s1", "t4", 0.95),
    ]
    tables = [
        pa.Table.from_pylist(
            [dict(zip(schema.names, r)) for r in links[i::blocks]], schema=schema
        )
        for i in range(blocks)
    ] or [schema.empty_table()]
    ds = rd.from_arrow(tables)
    assert ds.num_blocks() == max(blocks, 1)

    def rows(out):
        df = out.to_pandas()
        return sorted(zip(*(df[c] for c in schema.names))) if len(df) else []

    top2 = rows(apply_link_filter(ds, 2))
    unamb = rows(apply_unambiguous_filter(ds))
    if not blocks:
        assert top2 == [] and unamb == []
        return
    assert top2 == [
        ("s1", "t1", 0.9), ("s1", "t4", 0.95), ("s2", "t3", 0.7), ("s3", "t1", 0.4)
    ]
    assert unamb == [("s2", "t3", 0.7), ("s3", "t1", 0.4)]
