"""Similarity-score aggregators — combination of weighted child scores.

Semantics mirror the reference's eight aggregator plugins under
``silk-rules/src/main/scala/org/silkframework/rule/plugins/aggegrator/``
and the ``Aggregator`` / ``SimpleAggregator`` / ``SingleValueAggregator``
scaffolding under ``silk-rules/.../rule/similarity/``:

- scores are ``float | None`` in [-1, 1] (``SimilarityScore``);
- each child contributes ``(score, weight)``;
- ``combine_indexes`` merges child blocking indices: **disjunction**
  for average/max, **conjunction** for min/geometricMean/quadraticMean,
  pass-through for scale, ``Index.default`` for negate and
  handleMissingValues (which disable blocking below them);
- ``evaluate_columns`` is the pair scorer's batch form of ``evaluate``:
  child scores arrive as arrays over many pairs, each with a
  missing-value mask. The default calls ``evaluate`` per row; average,
  min and max fold the arrays left to right in ``evaluate``'s own order,
  so the scores are bit-identical.
"""

from __future__ import annotations

import math

import numpy as np

from silk_ray.kernel.index import Index

AGGREGATORS: dict[str, type] = {}


def register_aggregator(cls):
    AGGREGATORS[cls.id] = cls
    return cls


def get_aggregator(plugin_id: str, **params) -> "Aggregator":
    return AGGREGATORS[plugin_id](**params)


WeightedScore = tuple  # (score: float | None, weight: int)
# (scores, present, weight): one child's float64 scores over n pairs and
# the mask of pairs where it is not missing (scores there are arbitrary)
WeightedColumn = tuple


class Aggregator:
    id: str = ""

    def evaluate(self, values: list[WeightedScore], limit: float = 0.0) -> float | None:
        """Combine child (score, weight) pairs into one score or None."""
        raise NotImplementedError

    def evaluate_columns(
        self, columns: list[WeightedColumn], n: int, limit: float = 0.0
    ) -> tuple[np.ndarray, np.ndarray]:
        """``evaluate`` over ``n`` pairs at once: child columns in, one
        ``(scores, present)`` column out. Default: ``evaluate`` per row.
        An override must return the same scores bit for bit."""
        rows = [(s.tolist(), p.tolist(), w) for s, p, w in columns]
        out = [
            self.evaluate([(s[r] if p[r] else None, w) for s, p, w in rows], limit)
            for r in range(n)
        ]
        present = np.array([v is not None for v in out], dtype=bool)
        return np.array([0.0 if v is None else v for v in out], np.float64), present

    def unreachable(
        self, done: list[WeightedColumn], todo_weights: list, limit: float
    ) -> np.ndarray | None:
        """Mask of pairs whose score can no longer be ``>= limit`` once
        the children in ``done`` are known, the ``todo`` ones still to
        come (child scores lie in [-1, 1]) — or None: no bound."""
        return None

    # -- index combination (Aggregator.scala:30-45) ---------------------
    def pre_process_indexes(self, indexes: list[Index]) -> list[Index]:
        return indexes

    def combine_indexes(self, index1: Index, index2: Index) -> Index:
        raise NotImplementedError

    def aggregate_indexes(self, indexes: list[Index]) -> Index:
        pre = self.pre_process_indexes(indexes)
        if not pre:
            return Index.empty()
        out = pre[0]
        for idx in pre[1:]:
            out = self.combine_indexes(out, idx)
        return out


@register_aggregator
class AverageAggregator(Aggregator):
    """Weighted mean; any missing child score ⇒ None
    (AverageAggregator.scala:48-79)."""

    id = "average"

    def evaluate(self, values, limit=0.0):
        if not values:
            return None
        sum_weights = 0
        sum_values = 0.0
        for score, weight in values:
            if score is None:
                return None
            sum_weights += weight
            sum_values += weight * score
        return sum_values / sum_weights

    def evaluate_columns(self, columns, n, limit=0.0):
        if not columns or sum(w for *_, w in columns) == 0:
            return super().evaluate_columns(columns, n, limit)
        sum_weights = 0
        sum_values = np.zeros(n)
        present = np.ones(n, dtype=bool)
        for score, mask, weight in columns:
            sum_weights += weight
            sum_values = sum_values + weight * score
            present &= mask
        return sum_values / sum_weights, present

    def unreachable(self, done, todo_weights, limit):
        weights = [w for *_, w in done] + list(todo_weights)
        if not done or min(weights) <= 0:
            return None
        best = np.full(len(done[0][0]), float(sum(todo_weights)))
        missing = np.zeros(len(best), dtype=bool)
        for score, mask, weight in done:
            best += weight * score
            missing |= ~mask
        # the margin absorbs rounding between this bound and the fold
        return missing | (best / sum(weights) < limit - 1e-9)

    def combine_indexes(self, i1, i2):
        return i1.disjunction(i2)


@register_aggregator
class MinimumAggregator(Aggregator):
    """All children must score >= limit, else -1; weights ignored
    (MinimumAggregator.scala:54-73)."""

    id = "min"

    def evaluate(self, values, limit=0.0):
        if not values:
            return None
        min_score = math.inf
        for score, _weight in values:
            if score is None or score < limit:
                return -1.0
            min_score = min(min_score, score)
        return min_score

    def evaluate_columns(self, columns, n, limit=0.0):
        if not columns:
            return super().evaluate_columns(columns, n, limit)
        fail = np.zeros(n, dtype=bool)
        min_score = np.full(n, math.inf)
        for score, mask, _weight in columns:
            fail |= ~mask | (score < limit)
            min_score = np.where(score < min_score, score, min_score)  # min(): first wins ties
        return np.where(fail, -1.0, min_score), np.ones(n, dtype=bool)

    def unreachable(self, done, todo_weights, limit):
        if not done or limit <= -1.0:  # a failed child scores -1.0, which then reaches
            return None
        out = np.zeros(len(done[0][0]), dtype=bool)
        for score, mask, _weight in done:
            out |= ~mask | (score < limit)
        return out

    def combine_indexes(self, i1, i2):
        return i1.conjunction(i2)


@register_aggregator
class MaximumAggregator(Aggregator):
    """Maximum; missing child defaults to -1; weights ignored
    (MaximumAggregator.scala:53-69)."""

    id = "max"

    def evaluate(self, values, limit=0.0):
        if not values:
            return None
        return max((s if s is not None else -1.0) for s, _w in values)

    def evaluate_columns(self, columns, n, limit=0.0):
        if not columns:
            return super().evaluate_columns(columns, n, limit)
        best = None
        for score, mask, _weight in columns:
            score = np.where(mask, score, -1.0)
            best = score if best is None else np.where(score > best, score, best)
        return best, np.ones(n, dtype=bool)

    def combine_indexes(self, i1, i2):
        return i1.disjunction(i2)


@register_aggregator
class GeometricMeanAggregator(Aggregator):
    """Weighted geometric mean; missing ⇒ None
    (GeometricMeanAggregator.scala:66-91)."""

    id = "geometricMean"

    def evaluate(self, values, limit=0.0):
        if not values:
            return None
        sum_weights = 0
        product = 1.0
        for score, weight in values:
            if score is None:
                return None
            sum_weights += weight
            product *= math.pow(score, weight) if score >= 0 else (-1) ** weight * math.pow(-score, weight)
        if product < 0:
            # fractional root of a negative number → NaN in the JVM
            return math.nan
        return math.pow(product, 1.0 / sum_weights)

    def combine_indexes(self, i1, i2):
        return i1.conjunction(i2)


@register_aggregator
class QuadraticMeanAggregator(Aggregator):
    """Weighted RMS; missing ⇒ None (QuadraticMeanAggregator.scala:69-94)."""

    id = "quadraticMean"

    def evaluate(self, values, limit=0.0):
        if not values:
            return None
        sum_weights = 0
        squared = 0.0
        for score, weight in values:
            if score is None:
                return None
            sum_weights += weight
            squared += score * score * weight
        return math.sqrt(squared / sum_weights)

    def combine_indexes(self, i1, i2):
        return i1.conjunction(i2)


class SingleValueAggregator(Aggregator):
    """Exactly one child (SingleValueAggregator.scala)."""

    def evaluate_value(self, score: float | None, weight: int) -> float | None:
        raise NotImplementedError

    def evaluate(self, values, limit=0.0):
        if not values:
            return None
        if len(values) != 1:
            raise ValueError(f"{self.id} accepts exactly one input")
        return self.evaluate_value(values[0][0], values[0][1])


@register_aggregator
class ScalingAggregator(SingleValueAggregator):
    """score × factor (ScalingAggregator.scala:35-41); index pass-through."""

    id = "scale"

    def __init__(self, factor: float = 1.0):
        if not (0.0 <= factor <= 1.0):
            raise ValueError("Scaling factor must be a value between 0.0 and 1.0")
        self.factor = factor

    def evaluate_value(self, score, weight):
        return None if score is None else self.factor * score

    def combine_indexes(self, i1, i2):
        return i1


@register_aggregator
class NegationAggregator(SingleValueAggregator):
    """-score; missing ⇒ 1.0 (NegationAggregator.scala:16-29); disables
    blocking below (index = Index.default)."""

    id = "negate"

    def evaluate_value(self, score, weight):
        return 1.0 if score is None else 0.0 - score

    def combine_indexes(self, i1, i2):
        return Index.default()

    def pre_process_indexes(self, indexes):
        return [Index.default()]


@register_aggregator
class HandleMissingValuesAggregator(SingleValueAggregator):
    """missing ⇒ defaultValue (HandleMissingValuesAggregator.scala:33-43);
    disables blocking below."""

    id = "handleMissingValues"

    def __init__(self, defaultValue: float = -1.0):
        if not (-1.0 <= defaultValue <= 1.0):
            raise ValueError("Default value must be between -1 and 1")
        self.default_value = defaultValue

    def evaluate_value(self, score, weight):
        return self.default_value if score is None else score

    def combine_indexes(self, i1, i2):
        return Index.default()

    def pre_process_indexes(self, indexes):
        return [Index.default()]
