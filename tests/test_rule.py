"""LinkageRule tree evaluation (Comparison.scala:52-96, Aggregation.scala:40-66)."""

import pytest

from silk_ray.kernel.rule import (
    LinkageRule,
    rule_from_dict,
)

RULE_SPEC = {
    "operator": {
        "aggregator": "average",
        "operators": [
            {
                "metric": "equality",
                "threshold": 0.0,
                "weight": 1,
                "source": {"path": "lang"},
                "target": {"path": "lang"},
            },
            {
                "metric": "levenshteinDistance",
                "threshold": 2.0,
                "weight": 2,
                "source": {"transform": "lowerCase", "inputs": [{"path": "name"}]},
                "target": {"transform": "lowerCase", "inputs": [{"path": "name"}]},
            },
        ],
    },
    "filter_limit": 1,
}


def test_rule_apply_confidence_mapping():
    rule = rule_from_dict(RULE_SPEC)
    s = {"lang": ["py"], "name": ["Hello"]}
    t_same = {"lang": ["py"], "name": ["hello"]}
    # equality: d=0, θ=0 → 1.0 ; levenshtein: d=0 ≤ 2θ → 1.0 ; avg → 1.0
    assert rule.apply(s, t_same) == pytest.approx(1.0)

    t_edit1 = {"lang": ["py"], "name": ["hallo"]}
    # levenshtein d=1 → 1 - 1/2 = 0.5; weighted avg (1*1 + 2*0.5)/3
    assert rule.apply(s, t_edit1) == pytest.approx((1.0 + 2 * 0.5) / 3)

    t_far = {"lang": ["py"], "name": ["zzzzzzzzzz"]}
    # levenshtein beyond 2θ → -1
    assert rule.apply(s, t_far) == pytest.approx((1.0 + 2 * -1.0) / 3)

    t_nolang = {"lang": [], "name": ["hello"]}
    # missing comparison value → None for average aggregator
    assert rule.apply(s, t_nolang) is None


def test_rule_index_blocks_similar_entities():
    rule = rule_from_dict(RULE_SPEC)
    a = {"lang": ["py"], "name": ["hello"]}
    b = {"lang": ["py"], "name": ["hallo"]}
    assert rule.index_keys(a, True) & rule.index_keys(b, False)


def test_score_from_leaf_values_matches_apply():
    rule = rule_from_dict(RULE_SPEC)
    cases = [
        ({"lang": ["py"], "name": ["hello"]}, {"lang": ["py"], "name": ["hallo"]}),
        ({"lang": ["py"], "name": ["a"]}, {"lang": ["go"], "name": ["b"]}),
        ({"lang": [], "name": ["x"]}, {"lang": ["py"], "name": ["x"]}),
        ({"lang": ["py", "md"], "name": ["x", "y"]}, {"lang": ["md"], "name": ["y"]}),
    ]
    for s, t in cases:
        direct = rule.apply(s, t)
        via_leaves = rule.score_from_leaf_values(
            rule.leaf_values(s, True), rule.leaf_values(t, False)
        )
        if direct is None:
            assert via_leaves is None
        else:
            assert via_leaves == pytest.approx(direct)


def test_paths_collection():
    rule = rule_from_dict(RULE_SPEC)
    assert rule.source_paths() == ["lang", "name"]
    assert len(rule.leaf_comparisons()) == 2


def test_leaf_comparisons_walked_once_per_rule():
    """The leaf list is computed once per compiled rule and reused (the
    pair scorer asks for it once per entity); it stays out of the
    rule's repr."""
    rule = rule_from_dict(RULE_SPEC)
    leaves = rule.leaf_comparisons()
    assert rule.leaf_comparisons() is leaves
    assert [type(c.metric) for c in leaves] == [
        type(c.metric) for c in rule_from_dict(RULE_SPEC).leaf_comparisons()
    ]
    assert "_leaves" not in repr(rule)


def test_nested_aggregation():
    spec = {
        "operator": {
            "aggregator": "max",
            "operators": [
                {
                    "aggregator": "min",
                    "operators": [
                        {"metric": "equality", "source": {"path": "a"}, "target": {"path": "a"}},
                        {"metric": "equality", "source": {"path": "b"}, "target": {"path": "b"}},
                    ],
                },
                {"metric": "equality", "source": {"path": "c"}, "target": {"path": "c"}},
            ],
        }
    }
    rule = rule_from_dict(spec)
    both = rule.apply({"a": ["1"], "b": ["2"], "c": ["x"]}, {"a": ["1"], "b": ["2"], "c": ["y"]})
    assert both == pytest.approx(1.0)  # min-branch satisfied
    only_c = rule.apply({"a": ["1"], "b": ["2"], "c": ["x"]}, {"a": ["1"], "b": ["9"], "c": ["x"]})
    assert only_c == pytest.approx(1.0)  # c-branch satisfied
    neither = rule.apply({"a": ["1"], "b": ["2"], "c": ["x"]}, {"a": ["9"], "b": ["9"], "c": ["y"]})
    assert neither == pytest.approx(-1.0)


def test_transform_rule_compiled_batch():
    import pyarrow as pa

    from silk_ray.kernel.rule import CompiledTransform, transform_rule_from_dict

    rules = [
        transform_rule_from_dict(
            {"target": "name_lc", "input": {"transform": "lowerCase", "inputs": [{"path": "name"}]}}
        ),
        transform_rule_from_dict(
            {
                "target": "uri",
                "input": {
                    "transform": "concat",
                    "params": {"glue": "//"},
                    "inputs": [{"path": "repo"}, {"path": "name"}],
                },
            }
        ),
    ]
    ct = CompiledTransform(rules)
    batch = pa.table({"repo": ["r1", "r2"], "name": ["Alpha", "Beta"]})
    out = ct(batch)
    assert out["name_lc"].to_pylist() == ["alpha", "beta"]
    assert out["uri"].to_pylist() == ["r1//Alpha", "r2//Beta"]


def test_transform_error_capture():
    import pyarrow as pa

    from silk_ray.kernel.rule import CompiledTransform, transform_rule_from_dict

    rules = [
        transform_rule_from_dict(
            {
                "target": "num",
                "input": {
                    "transform": "validateNumericRange",
                    "params": {"min": 0, "max": 10},
                    "inputs": [{"path": "v"}],
                },
            }
        )
    ]
    ct = CompiledTransform(rules)
    out = ct(pa.table({"v": ["5", "50"]}))
    assert out["num"].to_pylist()[0] == "5"
    errors = out["error"].to_pylist()
    assert errors[0] is None and errors[1] is not None


def test_uri_pattern_mapping():
    # PatternUriMapping (TransformRule.scala:289-301) + UriPattern.parse
    # (TransformRule.scala:548-574): constants literal, first path
    # uri-fixed, later paths url-encoded, concatenated.
    import pyarrow as pa

    from silk_ray.kernel.rule import CompiledTransform, transform_rule_from_dict

    rule = transform_rule_from_dict(
        {"target": "uri", "uri_pattern": "http://example.org/{repo}/file/{path}"}
    )
    ct = CompiledTransform([rule])
    out = ct(pa.table({"repo": ["r one", "r2"], "path": ["a/b.py", "c d.py"]}))
    assert out["uri"].to_pylist() == [
        "http://example.org/r+one/file/a%2Fb.py",
        "http://example.org/r2/file/c+d.py",
    ]
    # leading path segment is uri-fixed (UriFixTransformer semantics)
    lead = transform_rule_from_dict({"target": "uri", "uri_pattern": "{repo}/x"})
    out2 = CompiledTransform([lead])(pa.table({"repo": ["http://a.org/r", "plain value"]}))
    assert out2["uri"].to_pylist() == [
        "http://a.org/r/x",
        "urn:url-encoded-value:plain+value/x",
    ]
    # {} = the entity's own uri column
    self_ref = transform_rule_from_dict({"target": "u2", "uri_pattern": "{}suffix"})
    out3 = CompiledTransform([self_ref])(pa.table({"uri": ["http://e.org/1"]}))
    assert out3["u2"].to_pylist() == ["http://e.org/1suffix"]
    # malformed patterns rejected loudly (UriPatternParser.scala:77-99)
    import pytest as _pytest

    for bad in ("a{b{c}", "a}b", "open{end"):
        with _pytest.raises(ValueError):
            transform_rule_from_dict({"target": "u", "uri_pattern": bad})


def test_object_mapping_nested_struct():
    # ObjectMapping (TransformRule.scala:376-428): child rules evaluate
    # under a source-path prefix and emit one struct column.
    import pyarrow as pa

    from silk_ray.kernel.rule import CompiledTransform, transform_rule_from_dict

    rule = transform_rule_from_dict(
        {
            "target": "author",
            "object": {
                "source_path": "author",
                "rules": [
                    {"target": "uri", "uri_pattern": "http://example.org/person/{name}"},
                    {
                        "target": "name_uc",
                        "input": {"transform": "upperCase", "inputs": [{"path": "name"}]},
                    },
                ],
            },
        }
    )
    ct = CompiledTransform([rule])
    batch = pa.table({"author.name": ["ada", "bob"], "title": ["t1", "t2"]})
    out = ct(batch)
    assert out["author"].to_pylist() == [
        {"uri": "http://example.org/person/ada", "name_uc": "ADA"},
        {"uri": "http://example.org/person/bob", "name_uc": "BOB"},
    ]
    assert pa.types.is_struct(out["author"].type)


def test_unknown_spec_keys_rejected():
    """A typo'd key (treshold) silently falling back to the default
    would change the link set — must be rejected loudly; `_`-prefixed
    and `comment` keys are annotations."""
    import pytest

    from silk_ray.kernel.rule import rule_from_dict

    with pytest.raises(ValueError, match="treshold"):
        rule_from_dict({"operator": {"metric": "equality", "treshold": 5,
                                     "source": {"path": "a"}, "target": {"path": "b"}}})
    with pytest.raises(ValueError, match="opertors"):
        rule_from_dict({"operator": {"aggregator": "min", "opertors": []}})
    with pytest.raises(ValueError, match="filtre_limit"):
        rule_from_dict({"operator": {"metric": "equality", "source": {"path": "a"},
                                     "target": {"path": "b"}}, "filtre_limit": 1})
    with pytest.raises(ValueError, match="pth"):
        rule_from_dict({"operator": {"metric": "equality", "source": {"pth": "a"},
                                     "target": {"path": "b"}}})
    # annotations pass
    rule_from_dict({"operator": {"metric": "equality", "comment": "x", "_note": 1,
                                 "source": {"path": "a"}, "target": {"path": "b"}}})


def test_index_keys_and_values_is_one_evaluation(monkeypatch):
    """``index_keys_and_values`` returns exactly ``index_keys`` and
    ``leaf_values`` (non-indexing leaves and subtrees skipped by the
    index included, both sides, a positive limit), running each leaf's
    input transforms once."""
    from silk_ray.kernel.transformers import TRANSFORMERS

    spec = {"operator": {"aggregator": "min", "operators": [
        {"metric": "equality", "indexing": False,
         "source": {"path": "lang"}, "target": {"path": "lang"}},
        {"aggregator": "max", "operators": [
            {"metric": "levenshteinDistance", "threshold": 1,
             "source": {"path": "name"},
             "target": {"transform": "lowerCase", "inputs": [{"path": "name"}]}},
            {"metric": "jaccard", "threshold": 0.5, "indexing": False,
             "source": {"transform": "tokenize", "inputs": [{"path": "text"}]},
             "target": {"transform": "tokenize", "inputs": [{"path": "text"}]}}]},
        {"aggregator": "negate", "operators": [
            {"metric": "equality", "source": {"path": "repo"}, "target": {"path": "repo"}}]},
        {"metric": "equality", "source": {"path": "repo"}, "target": {"path": "repo"}}]}}
    rule = rule_from_dict(spec)
    calls = []
    tokenize = TRANSFORMERS["tokenize"]
    real = tokenize.apply

    def counting(self, values):
        calls.append(values)
        return real(self, values)

    ents = [
        {"lang": ["py"], "name": ["Hello"], "text": ["a b c"], "repo": ["r1"]},
        {"lang": [], "name": ["héllo", "x"], "text": [], "repo": ["r2"]},
        {"name": [""], "text": ["one two"], "repo": []},
    ]
    monkeypatch.setattr(tokenize, "apply", counting)
    for ent in ents:
        for sot in (True, False):
            calls.clear()
            keys, vals = rule.index_keys_and_values(ent, sot, 0.2)
            assert len(calls) == 1
            assert keys == rule.index_keys(ent, sot, 0.2)
            assert vals == rule.leaf_values(ent, sot)
