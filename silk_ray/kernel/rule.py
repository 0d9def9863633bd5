"""Rule trees: inputs, comparisons, aggregations, linkage & transform rules.

Semantics mirror the reference:

- inputs are trees of ``PathInput`` (column projection,
  ``silk-rules/.../rule/input/PathInput.scala:54-72``) and
  ``TransformInput`` (transformer applied over child inputs,
  ``input/TransformInput.scala:33-50``);
- ``Comparison.apply`` maps distance to confidence: evaluates the
  metric with ``limit = threshold * (1 - confidence_limit)``; distance
  0 with threshold 0 → 1.0, distance ≤ 2·threshold → ``1 - d/θ``,
  else -1.0 (``similarity/Comparison.scala:52-80``); empty values on
  either side → None;
- ``Aggregation`` combines child scores with an
  :mod:`~silk_ray.kernel.aggregators` aggregator
  (``similarity/Aggregation.scala:40-66``);
- ``LinkageRule.apply`` returns the root score; a pair is a link iff
  score ≥ 0 (``rule/execution/Matcher.scala:273-281``);
- ``LinkageRule.index`` builds the MultiBlock blocking index
  (``rule/LinkageRule.scala:59-64``), flattened to stable int64 keys
  for the groupby shuffle.

An *entity* here is a plain dict ``{path: list[str]}``. Single-valued
Arrow columns are adapted at the pipeline boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from silk_ray.kernel.aggregators import Aggregator, get_aggregator
from silk_ray.kernel.distances import DistanceMeasure, get_distance
from silk_ray.kernel.index import Index
from silk_ray.kernel.transformers import Transformer, get_transformer
from silk_ray.kernel import valuetypes

Entity = dict  # {path: list[str]}

DEFAULT_INDEX_CROP = 10_000  # Index.crop guard (Index.scala:104 usage)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


class Input:
    def apply(self, entity: Entity) -> list[str]:
        raise NotImplementedError

    def paths(self) -> list[str]:
        raise NotImplementedError


@dataclass(frozen=True)
class PathInput(Input):
    """Column projection (PathInput.scala)."""

    path: str

    def apply(self, entity):
        v = entity.get(self.path)
        if v is None:
            return []
        if isinstance(v, str):
            return [v]
        return list(v)

    def paths(self):
        return [self.path]


@dataclass(frozen=True)
class TransformInput(Input):
    """Transformer over child inputs (TransformInput.scala:33-50)."""

    transformer: Transformer
    inputs: tuple[Input, ...]

    def apply(self, entity):
        return self.transformer.apply([inp.apply(entity) for inp in self.inputs])

    def paths(self):
        out = []
        for inp in self.inputs:
            out.extend(inp.paths())
        return out


# ---------------------------------------------------------------------------
# similarity operators
# ---------------------------------------------------------------------------


class SimilarityOperator:
    weight: int = 1
    indexing: bool = True

    def apply(self, source: Entity, target: Entity, limit: float = 0.0) -> float | None:
        raise NotImplementedError

    def index(self, entity: Entity, source_or_target: bool, limit: float = 0.0) -> Index:
        raise NotImplementedError

    def paths(self, source_or_target: bool) -> list[str]:
        raise NotImplementedError


@dataclass
class Comparison(SimilarityOperator):
    """similarity/Comparison.scala."""

    metric: DistanceMeasure
    source_input: Input
    target_input: Input
    threshold: float = 0.0
    weight: int = 1
    indexing: bool = True

    def apply(self, source, target, limit=0.0):
        try:
            values1 = self.source_input.apply(source)
        except Exception:
            values1 = []
        try:
            values2 = self.target_input.apply(target)
        except Exception:
            values2 = []
        if not values1 or not values2:
            return None
        distance = self.metric.apply(values1, values2, self.threshold * (1.0 - limit))
        if distance == 0.0 and self.threshold == 0.0:
            return 1.0
        if distance <= 2.0 * self.threshold:
            return 1.0 - distance / self.threshold
        return -1.0

    def confidences(self, distances):
        """The distance → confidence map of :meth:`apply` over a float64
        array of distances."""
        theta = self.threshold
        if theta == 0.0 and (distances < 0.0).any():
            # apply's 1 - d/θ at θ = 0: a negative (rounded) distance fails
            raise ZeroDivisionError("float division by zero")
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(distances <= 2.0 * theta, 1.0 - distances / theta, -1.0)
        if theta == 0.0:
            out[distances == 0.0] = 1.0
        return out

    def index(self, entity, source_or_target, limit=0.0):
        inp = self.source_input if source_or_target else self.target_input
        try:
            values = inp.apply(entity)
        except Exception:
            values = []
        distance_limit = self.threshold * (1.0 - limit)
        return self.metric.index(values, distance_limit, source_or_target)

    def paths(self, source_or_target):
        return (self.source_input if source_or_target else self.target_input).paths()


@dataclass
class Aggregation(SimilarityOperator):
    """similarity/Aggregation.scala."""

    aggregator: Aggregator
    operators: list[SimilarityOperator] = field(default_factory=list)
    weight: int = 1

    @property
    def indexing(self) -> bool:
        return any(op.indexing for op in self.operators)

    def apply(self, source, target, limit=0.0):
        weighted = [(op.apply(source, target, limit), op.weight) for op in self.operators]
        return self.aggregator.evaluate(weighted, limit)

    def index(self, entity, source_or_target, limit=0.0):
        indexes = [
            op.index(entity, source_or_target, limit) for op in self.operators if op.indexing
        ]
        return self.aggregator.aggregate_indexes(indexes)

    def paths(self, source_or_target):
        out = []
        for op in self.operators:
            out.extend(op.paths(source_or_target))
        return out


@dataclass
class LinkageRule:
    """rule/LinkageRule.scala — root similarity operator + link filter
    config (rule/LinkFilter.scala: limit per source URI, unambiguous)."""

    operator: SimilarityOperator
    filter_limit: int | None = None  # per-source top-k (LinkFilter.scala:26)
    filter_unambiguous: bool = False
    index_crop: int = DEFAULT_INDEX_CROP
    _leaves: list | None = field(default=None, init=False, repr=False, compare=False)

    def apply(self, source: Entity, target: Entity, limit: float = 0.0) -> float | None:
        return self.operator.apply(source, target, limit)

    def index(self, entity: Entity, source_or_target: bool, limit: float = 0.0) -> Index:
        return self.operator.index(entity, source_or_target, limit).crop(self.index_crop)

    def index_keys(self, entity: Entity, source_or_target: bool, limit: float = 0.0) -> set[int]:
        """Flattened int64 blocking keys for the groupby shuffle."""
        return self.index(entity, source_or_target, limit).flatten()

    def source_paths(self) -> list[str]:
        return sorted(set(self.operator.paths(True)))

    def target_paths(self) -> list[str]:
        return sorted(set(self.operator.paths(False)))

    # -- split evaluation for the shuffle pipeline ----------------------
    #
    # The Ray linking pipeline pre-evaluates each leaf comparison's input
    # values per row in the index stage (so transforms run once per row,
    # not once per candidate pair) and re-scores pairs inside the
    # post-shuffle group stage from those carried values alone.

    def leaf_comparisons(self) -> list[Comparison]:
        """Leaf comparisons in stable depth-first order, walked once per
        rule (the pair scorer asks for them once per entity)."""
        if self._leaves is not None:
            return self._leaves
        out: list[Comparison] = []

        def walk(op: SimilarityOperator):
            if isinstance(op, Comparison):
                out.append(op)
            elif isinstance(op, Aggregation):
                for child in op.operators:
                    walk(child)

        walk(self.operator)
        self._leaves = out
        return out

    def leaf_values(self, entity: Entity, source_or_target: bool) -> list[list[str]]:
        """Per-leaf evaluated input values for one side."""
        vals = []
        for comp in self.leaf_comparisons():
            inp = comp.source_input if source_or_target else comp.target_input
            try:
                vals.append(inp.apply(entity))
            except Exception:
                vals.append([])
        return vals

    def index_keys_and_values(
        self, entity: Entity, source_or_target: bool, limit: float = 0.0
    ) -> tuple[set[int], list[list[str]]]:
        """:meth:`index_keys` and :meth:`leaf_values` of one entity from
        ONE evaluation of each leaf's input transforms."""
        vals = self.leaf_values(entity, source_or_target)
        pos = [0]

        def walk(op: SimilarityOperator) -> Index:
            if isinstance(op, Comparison):
                v = vals[pos[0]]
                pos[0] += 1
                return op.metric.index(v, op.threshold * (1.0 - limit), source_or_target)
            indexes = []
            for child in op.operators:
                if child.indexing:
                    indexes.append(walk(child))
                else:  # skipped by Aggregation.index: step over its leaves
                    pos[0] += _count_leaves(child)
            return op.aggregator.aggregate_indexes(indexes)

        keys = walk(self.operator).crop(self.index_crop).flatten()
        return keys, vals

    def score_pairs(self, columns: list, pi, pj, limit: float = 0.0):
        """Score candidate pairs column-at-a-time: ``columns[k]`` is leaf
        ``k``'s :class:`~silk_ray.kernel.distances.ValueColumn` (one
        value list per entity) and pair ``n`` is entities ``(pi[n],
        pj[n])``. Each leaf turns its column into one distance array
        (``DistanceMeasure.apply_pairs``) and one confidence array; each
        aggregation folds its children's arrays
        (``Aggregator.evaluate_columns``). The root aggregator drops the
        pairs that can no longer reach ``limit`` after each child
        (``Aggregator.unreachable``), so later, costlier leaves see
        fewer pairs. Returns ``(kept, confidence)``: positions of the
        pairs scoring ``>= limit`` and their scores, equal bit for bit
        to :meth:`score_from_leaf_values` per pair."""
        leaf_of: list = []

        def number(op):  # leaf index of each Comparison, depth-first
            if isinstance(op, Comparison):
                leaf_of.append(op)
                return len(leaf_of) - 1
            return [number(child) for child in op.operators]

        plan = number(self.operator)

        def leaf(k: int, rows: np.ndarray):
            op, col = leaf_of[k], columns[k]
            i, j = pi[rows], pj[rows]
            present = (col.lengths[i] > 0) & (col.lengths[j] > 0)
            score = np.zeros(len(rows))
            sel = np.flatnonzero(present)
            if len(sel):
                d = op.metric.apply_pairs(col, i[sel], j[sel], op.threshold * (1.0 - limit))
                score[sel] = op.confidences(d)
            return score, present

        def node(op, sub, rows: np.ndarray):
            if isinstance(op, Comparison):
                return leaf(sub, rows)
            children = [(*node(c, s, rows), c.weight) for c, s in zip(op.operators, sub)]
            return op.aggregator.evaluate_columns(children, len(rows), limit)

        rows = np.arange(len(pi))
        op = self.operator
        if isinstance(op, Comparison):
            score, present = leaf(plan, rows)
        else:
            # evaluate the root's children one by one over the pairs
            # still alive, then fold them over the survivors
            done: list = []
            for n, (child, sub) in enumerate(zip(op.operators, plan)):
                done.append((*node(child, sub, rows), child.weight))
                drop = op.aggregator.unreachable(
                    done, [c.weight for c in op.operators[n + 1 :]], limit
                )
                if drop is not None and drop.any():
                    keep = ~drop
                    rows = rows[keep]
                    done = [(sc[keep], pr[keep], w) for sc, pr, w in done]
            score, present = op.aggregator.evaluate_columns(done, len(rows), limit)
        ok = present & (score >= limit)
        return rows[ok], score[ok]

    def score_from_leaf_values(
        self,
        source_vals: list[list[str]],
        target_vals: list[list[str]],
        limit: float = 0.0,
    ) -> float | None:
        """Evaluate the operator tree given pre-evaluated leaf values.

        Identical semantics to :meth:`apply` (Comparison.scala:52-80 per
        leaf, aggregator tree above) — verified by tests against the
        direct evaluation.
        """
        pos = [0]

        def walk(op: SimilarityOperator) -> float | None:
            if isinstance(op, Comparison):
                i = pos[0]
                pos[0] += 1
                v1, v2 = source_vals[i], target_vals[i]
                if not v1 or not v2:
                    return None
                distance = op.metric.apply(v1, v2, op.threshold * (1.0 - limit))
                if distance == 0.0 and op.threshold == 0.0:
                    return 1.0
                if distance <= 2.0 * op.threshold:
                    return 1.0 - distance / op.threshold
                return -1.0
            assert isinstance(op, Aggregation)
            weighted = [(walk(child), child.weight) for child in op.operators]
            return op.aggregator.evaluate(weighted, limit)

        return walk(self.operator)


def _count_leaves(op: SimilarityOperator) -> int:
    if isinstance(op, Comparison):
        return 1
    return sum(_count_leaves(child) for child in op.operators)


# ---------------------------------------------------------------------------
# JSON rule specs — the user-facing DSL (≈ Silk-LSL, doc/LinkSpecificationLanguage.md)
# ---------------------------------------------------------------------------


def _check_keys(spec: dict, allowed: frozenset, what: str) -> None:
    """A misspelled spec key would otherwise silently fall back to its
    default (e.g. ``treshold`` → θ=0) — reject unknown keys loudly.
    Keys starting with ``_`` or named ``comment`` are annotations."""
    unknown = [
        k for k in spec if k not in allowed and not k.startswith("_") and k != "comment"
    ]
    if unknown:
        raise ValueError(f"unknown {what} spec keys {unknown}; allowed: {sorted(allowed)}")


_INPUT_KEYS = frozenset({"path", "transform", "params", "inputs"})
_COMPARISON_KEYS = frozenset(
    {"metric", "params", "source", "target", "threshold", "weight", "indexing"}
)
_AGGREGATION_KEYS = frozenset({"aggregator", "params", "operators", "weight"})
_RULE_KEYS = frozenset({"operator", "filter_limit", "filter_unambiguous", "index_crop"})


def input_from_dict(spec: dict[str, Any]) -> Input:
    """``{"path": "col"}`` or
    ``{"transform": "lowerCase", "params": {...}, "inputs": [...]}``."""
    _check_keys(spec, _INPUT_KEYS, "input")
    if "path" in spec:
        return PathInput(spec["path"])
    if "transform" in spec:
        transformer = get_transformer(spec["transform"], **spec.get("params", {}))
        children = tuple(input_from_dict(i) for i in spec.get("inputs", []))
        return TransformInput(transformer, children)
    raise ValueError(f"bad input spec: {spec!r}")


def operator_from_dict(spec: dict[str, Any]) -> SimilarityOperator:
    if "metric" in spec:
        _check_keys(spec, _COMPARISON_KEYS, "comparison")
        metric = get_distance(spec["metric"], **spec.get("params", {}))
        source = input_from_dict(spec["source"])
        # one input for equal specs, so the compiled comparison is
        # symmetric by input equality (pipeline._spec_symmetric)
        target = source if spec["target"] == spec["source"] else input_from_dict(spec["target"])
        return Comparison(
            metric=metric,
            source_input=source,
            target_input=target,
            threshold=spec.get("threshold", 0.0),
            weight=spec.get("weight", 1),
            indexing=spec.get("indexing", True),
        )
    if "aggregator" in spec:
        _check_keys(spec, _AGGREGATION_KEYS, "aggregation")
        agg = get_aggregator(spec["aggregator"], **spec.get("params", {}))
        ops = [operator_from_dict(o) for o in spec.get("operators", [])]
        return Aggregation(aggregator=agg, operators=ops, weight=spec.get("weight", 1))
    raise ValueError(f"bad operator spec: {spec!r}")


def rule_from_dict(spec: dict[str, Any]) -> LinkageRule:
    _check_keys(spec, _RULE_KEYS, "rule")
    return LinkageRule(
        operator=operator_from_dict(spec["operator"]),
        filter_limit=spec.get("filter_limit"),
        filter_unambiguous=spec.get("filter_unambiguous", False),
        index_crop=spec.get("index_crop", DEFAULT_INDEX_CROP),
    )


# ---------------------------------------------------------------------------
# transform rules (rule/TransformRule.scala) — row-shaping mappings
# ---------------------------------------------------------------------------


@dataclass
class TransformRule:
    """One output column = one compiled input tree
    (TransformRule.scala:354-363 ComplexMapping generalizes the rest:
    DirectMapping is PathInput, constants are TransformInput(constant)).

    ``value_type`` / ``is_attribute`` are the rule's MappingTarget
    (MappingTarget.scala:22-44): produced values are validated against
    the type (TransformRule.scala:67 ``target.foreach(_.validate(values))``)
    and a single-valued attribute rejects multi-values; failures surface
    in the transform's error column like any transformer error."""

    target: str
    input: Input
    value_type: "valuetypes.ValueType" = None  # default STRING, set in __post_init__
    is_attribute: bool = False

    def __post_init__(self):
        if self.value_type is None:
            self.value_type = valuetypes.STRING

    def _mapping_target(self) -> "valuetypes.MappingTarget":
        return valuetypes.MappingTarget(
            self.target, self.value_type, is_attribute=self.is_attribute
        )

    def apply(self, entity: Entity) -> list[str]:
        values = self.input.apply(entity)
        self._mapping_target().validate(values)
        return values


def parse_uri_pattern(pattern: str) -> Input:
    """Compile a URI template pattern like
    ``http://example.org/{repo}/file/{path}`` into an input tree
    (UriPattern.parse, TransformRule.scala:548-574; segment grammar
    UriPatternParser.scala:43-103): constants stay literal, the first
    path segment is uri-fixed, later path segments are URL-encoded, all
    concatenated. ``{}`` refers to the entity's own ``uri`` column."""
    segments: list[tuple[str, str]] = []
    cur: list[str] = []
    inside = False
    for ch in pattern.strip():
        if ch == "{":
            if inside:
                raise ValueError("Illegal character '{' inside path expression of URI pattern")
            if cur:
                segments.append(("const", "".join(cur)))
                cur = []
            inside = True
        elif ch == "}":
            if not inside:
                raise ValueError("Illegal character '}' inside constant part of URI pattern")
            segments.append(("path", "".join(cur)))
            cur = []
            inside = False
        else:
            cur.append(ch)
    if inside:
        raise ValueError("URI pattern ends unexpectedly inside a path expression")
    if cur:
        segments.append(("const", "".join(cur)))

    def path_input(p: str) -> PathInput:
        return PathInput("uri" if p == "" else p)

    if segments == [("path", "")]:
        inputs: list[Input] = [TransformInput(get_transformer("uriFix"), (path_input(""),))]
    else:
        inputs = []
        for idx, (kind, value) in enumerate(segments):
            if kind == "path" and idx == 0:
                inputs.append(TransformInput(get_transformer("uriFix"), (path_input(value),)))
            elif kind == "path":
                inputs.append(TransformInput(get_transformer("urlEncode"), (path_input(value),)))
            else:
                inputs.append(TransformInput(get_transformer("constant", value=value), ()))
    return TransformInput(get_transformer("concat"), tuple(inputs))


@dataclass
class ObjectMappingRule(TransformRule):
    """Nested child-entity mapping (ObjectMapping,
    TransformRule.scala:376-428; schema recursion
    TransformSpec.scala:127-171) re-expressed for Arrow batches: the
    child rules evaluate against the parent row (optionally under a
    ``source_path`` column prefix, the flat equivalent of the relative
    source path) and produce ONE ``pa.struct`` output column."""

    rules: list[TransformRule] = field(default_factory=list)
    source_path: str = ""

    def _child_entity(self, entity: Entity) -> Entity:
        if not self.source_path:
            return entity
        prefix = self.source_path + "."
        out: Entity = dict(entity)
        for k, v in entity.items():
            if k.startswith(prefix):
                out[k[len(prefix):]] = v
        return out

    def apply_struct(self, entity: Entity) -> dict[str, str | None]:
        ent = self._child_entity(entity)
        out: dict[str, str | None] = {}
        for rule in self.rules:
            vals = rule.apply(ent)
            out[rule.target] = vals[0] if vals else None
        return out

    def apply(self, entity):  # as a plain value rule: the child URI if any
        s = self.apply_struct(entity)
        uri = s.get("uri")
        return [uri] if uri is not None else []


def transform_rule_from_dict(spec: dict[str, Any]) -> TransformRule:
    vt = valuetypes.value_type_from_spec(spec.get("value_type", valuetypes.STRING))
    is_attr = bool(spec.get("is_attribute", False))
    if "uri_pattern" in spec:
        return TransformRule(
            target=spec.get("target", "uri"),
            input=parse_uri_pattern(spec["uri_pattern"]),
            value_type=vt,
            is_attribute=is_attr,
        )
    if "object" in spec:
        obj = spec["object"]
        return ObjectMappingRule(
            target=spec["target"],
            input=PathInput(""),
            rules=[transform_rule_from_dict(r) for r in obj.get("rules", [])],
            source_path=obj.get("source_path", ""),
        )
    return TransformRule(
        target=spec["target"],
        input=input_from_dict(spec["input"]),
        value_type=vt,
        is_attribute=is_attr,
    )


class CompiledTransform:
    """A set of transform rules applied to an Arrow batch inside
    ``map_batches`` (the RD equivalent of TransformedEntities.scala:60-128:
    evaluate all property rules per row with per-row error capture).

    Single-valued string columns use the transformer's vectorized
    ``evaluate_array`` fast path when the whole input tree supports it;
    otherwise falls back to per-row evaluation over list cells. Errors
    are captured into an ``error`` column instead of failing the batch.
    """

    def __init__(
        self,
        rules: list[TransformRule],
        error_column: str = "error",
        typed_output: bool = False,
    ):
        self.rules = rules
        self.error_column = error_column
        # When set, validated columns are cast to their ValueType's Arrow
        # type (int64/float64/bool/date32/timestamp) — the parquet-schema
        # equivalent of the reference's typed RDF literals. Off by
        # default: untyped rules keep emitting plain string columns.
        self.typed_output = typed_output

    def input_paths(self) -> list[str]:
        out = []
        for r in self.rules:
            out.extend(r.input.paths())
        return sorted(set(out))

    def _vectorized(self, inp: Input, table) -> "Any | None":
        """Try the Arrow fast path; return a pa.Array or None."""
        import pyarrow as pa

        if isinstance(inp, PathInput):
            if inp.path in table.column_names:
                col = table[inp.path]
                if pa.types.is_string(col.type) or pa.types.is_large_string(col.type):
                    return col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
            return None
        if isinstance(inp, TransformInput) and len(inp.inputs) == 1:
            fn = getattr(inp.transformer, "evaluate_array", None)
            if fn is None:
                return None
            child = self._vectorized(inp.inputs[0], table)
            if child is None:
                return None
            return fn(child)
        return None

    def _validated(self, rule: TransformRule, vec, errors: list[str | None]):
        """Vectorized MappingTarget validation: invalid cells become null
        and their rows get an error entry (same observable behavior as the
        per-row path, where TransformRule.apply raises)."""
        import pyarrow as pa
        import pyarrow.compute as pc

        vt = rule.value_type
        if vt.regex is None and vt.checker is None:  # trivially-true type
            return self._cast(rule, vec)
        mask = vt.validate_array(vec)
        if pc.all(mask).as_py() is not False:
            return self._cast(rule, vec)
        bad = pc.and_kleene(pc.invert(mask), pc.is_valid(vec))
        for i in [idx for idx, flag in enumerate(bad.to_pylist()) if flag]:
            errors[i] = (
                f"{rule.target}: Value '{vec[i].as_py()}' is not a valid {vt.label}"
            )
        return self._cast(rule, pc.if_else(mask, vec, pa.scalar(None, type=vec.type)))

    def _cast(self, rule: TransformRule, col):
        if not self.typed_output:
            return col
        vt = rule.value_type
        if vt.arrow_type is None and vt.caster is None:
            return col
        return vt.cast_array(col)

    def __call__(self, table):
        import pyarrow as pa

        n = table.num_rows
        out_cols: dict[str, Any] = {}
        errors: list[str | None] = [None] * n
        row_cache: list[Entity] | None = None

        for rule in self.rules:
            if isinstance(rule, ObjectMappingRule):
                # nested child entities → one struct column
                if row_cache is None:
                    row_cache = _rows_as_entities(table)
                struct_type = pa.struct(
                    [pa.field(r.target, pa.string()) for r in rule.rules]
                )
                struct_vals: list[dict | None] = [None] * n
                for i, ent in enumerate(row_cache):
                    try:
                        struct_vals[i] = rule.apply_struct(ent)
                    except Exception as exc:
                        errors[i] = f"{rule.target}: {exc}"
                out_cols[rule.target] = pa.array(struct_vals, type=struct_type)
                continue
            vec = self._vectorized(rule.input, table)
            if vec is not None:
                out_cols[rule.target] = self._validated(rule, vec, errors)
                continue
            if row_cache is None:
                row_cache = _rows_as_entities(table)
            col_vals: list[str | None] = [None] * n
            for i, ent in enumerate(row_cache):
                try:
                    vals = rule.apply(ent)
                    col_vals[i] = vals[0] if vals else None
                except Exception as exc:  # per-row error capture
                    errors[i] = f"{rule.target}: {exc}"
            col = pa.array(col_vals, type=pa.string())
            out_cols[rule.target] = self._cast(rule, col)

        arrays = list(out_cols.values())
        names = list(out_cols.keys())
        if any(e is not None for e in errors):
            arrays.append(pa.array(errors, type=pa.string()))
            names.append(self.error_column)
        return pa.table(dict(zip(names, arrays)))


def _rows_as_entities(table) -> list[Entity]:
    """Convert an Arrow table to per-row {col: list[str]} entities."""
    cols = {}
    for name in table.column_names:
        col = table[name]
        cols[name] = col.to_pylist()
    out = []
    names = table.column_names
    for i in range(table.num_rows):
        ent: Entity = {}
        for name in names:
            v = cols[name][i]
            if v is None:
                ent[name] = []
            elif isinstance(v, list):
                ent[name] = ["" if x is None else str(x) for x in v]
            else:
                ent[name] = [str(v)]
        out.append(ent)
    return out


def entity_from_row(row: dict) -> Entity:
    """Adapt one mapping-style row (scalars or lists) to an entity."""
    ent: Entity = {}
    for k, v in row.items():
        if v is None:
            ent[k] = []
        elif isinstance(v, (list, tuple)):
            ent[k] = ["" if x is None else str(x) for x in v]
        else:
            ent[k] = [str(v)]
    return ent


def _isnan(x: float | None) -> bool:
    return x is not None and isinstance(x, float) and math.isnan(x)
