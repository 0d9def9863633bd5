"""GenLink — supervised linkage-rule learning by genetic programming.

Re-expresses the reference's ``silk-learning`` supervised core (the
GenLink algorithm of Isele & Bizer, "Learning Expressive Linkage Rules
using Genetic Programming", PVLDB 2012) over our JSON rule DSL:

- individuals are rule *spec dicts* (the :mod:`silk_ray.kernel.rule`
  DSL), compiled per evaluation with ``rule_from_dict``;
- fitness = MCC with a size penalty (``MCCFitnessFunction.scala:24-38``)
  or plain F-measure (``FMeasureFitness.scala``), evaluated against
  labeled positive/negative entity pairs exactly as
  ``LinkageRuleEvaluator.scala:11-64`` (confidence ≥ 0 ⇒ link);
- generation draws comparisons from *compatible* path pairs
  (``CompatiblePathsGenerator.scala:30-55``: tokenize → stripUriPrefix
  → lowerCase, keep pairs whose values overlap on > 1% of positives)
  with the reference's measure/threshold menu
  (``createGenerators``: levenshteinDistance 3.0, jaccard 1.0,
  date 1000.0) and 0-2 random input transforms out of
  (lowerCase, stripUriPrefix, tokenize) (``InputGenerator.scala:16-29``);
- one iteration keeps an elite, then fills the population by
  tournament selection + specialized crossover / mutation
  (``Reproduction.scala:28-66``, ``ReproductionConfiguration.scala``:
  mutation 0.25, elitism 3, tournament 5; ``CrossoverFunction.scala``
  operator menu; mutation = crossover with a fresh random rule,
  ``MutationFunction.scala:11-14``);
- every ``clean_frequency`` iterations structural duplicates are
  dropped and replaced by fresh random rules
  (``CleanPopulationTask.scala:23-57``);
- stopping: destination F-measure reached, max iterations, or max
  ineffective iterations (``GenLink.scala:46-95``,
  ``LearningConfiguration.scala:53-66``).

Distribution: the *population* is the parallel axis — per-iteration
fitness evaluation fans the individuals out as Ray tasks with the
labeled pairs shipped once via ``ray.put`` (an iterative algorithm
with a shared broadcast; the Dataset API is the wrong shape for a
50-iteration driver loop over a 500-element population). Falls back
to serial evaluation when Ray is not initialized. At 100 TB the
labeled reference set stays small (it is human-curated by
definition) — only rule evaluation throughput matters, and that
scales with cluster CPUs.
"""

from __future__ import annotations

import copy
import json
import random as _random
from dataclasses import dataclass, field
from typing import Any

from silk_ray.kernel.evaluation import EvaluationResult
from silk_ray.kernel.rule import (
    Entity,
    entity_from_row,
    operator_from_dict,
    rule_from_dict,
)

Pair = tuple[Entity, Entity]

# measure menu per CompatiblePathsGenerator.createGenerators
_MEASURES = [
    ("levenshteinDistance", 3.0),
    ("jaccard", 1.0),
    ("date", 1000.0),
]
_INPUT_TRANSFORMERS = ["lowerCase", "stripUriPrefix", "tokenize"]
_AGG_LINEAR = ["average"]
_AGG_BOOLEAN = ["max", "min"]
_MAX_WEIGHT = 20
_MIN_OPERATORS = 1
_MAX_OPERATORS = 2
_SCORE_EPSILON = 1e-4
_MIN_PATH_FREQUENCY = 0.01


@dataclass
class ReferenceEntities:
    """Labeled training pairs (``rule/evaluation/ReferenceEntities.scala``):
    entities are ``{path: [values]}`` dicts."""

    positive: list[Pair] = field(default_factory=list)
    negative: list[Pair] = field(default_factory=list)

    @classmethod
    def from_rows(cls, positive, negative):
        conv = lambda pairs: [
            (entity_from_row(s), entity_from_row(t)) for s, t in pairs
        ]
        return cls(positive=conv(positive), negative=conv(negative))

    def source_paths(self) -> list[str]:
        return sorted({p for s, _ in self.positive for p in s})

    def target_paths(self) -> list[str]:
        return sorted({p for _, t in self.positive for p in t})

    @property
    def fingerprint(self) -> str:
        """Content hash namespacing the per-process score memo (a
        long-lived Ray worker may evaluate several learning runs).
        Cached in the instance so it pickles with the broadcast."""
        fp = self.__dict__.get("_fp")
        if fp is None:
            import hashlib

            h = hashlib.sha256()
            for kind, pairs in (("p", self.positive), ("n", self.negative)):
                for s, t in pairs:
                    h.update(
                        json.dumps(
                            [kind, sorted(s.items()), sorted(t.items())]
                        ).encode()
                    )
            fp = self.__dict__["_fp"] = h.hexdigest()[:16]
        return fp


@dataclass
class LearningConfig:
    """LearningConfiguration.scala defaults."""

    population_size: int = 500
    max_iterations: int = 50
    max_ineffective_iterations: int = 50
    clean_frequency: int = 5
    destination_fmeasure: float = 0.999
    mutation_probability: float = 0.25
    elitism_count: int = 3
    tournament_size: int = 5
    fitness: str = "mcc"  # 'mcc' (with size penalty) | 'fmeasure'
    size_penalty: float = 0.005  # MCCFitnessFunction default
    transformations: bool = True
    compatible_only: bool = True
    seed: int = 0


@dataclass
class LearningResult:
    best_rule: dict
    best_fitness: float
    evaluation: EvaluationResult
    iterations: int
    status: str
    population: list[tuple[dict, float]]


# ---------------------------------------------------------------------------
# evaluation / fitness
# ---------------------------------------------------------------------------


# Per-process caches for GA fitness evaluation. Crossover offspring
# share comparison subtrees verbatim (CrossoverFunction recombines
# whole operators) and the elite re-scores every iteration, so most
# (comparison, pair) scores repeat — across the population AND across
# iterations. The memo walks the SAME kernel objects as the direct
# path (Comparison.apply / Aggregator.evaluate at limit=0), so scores
# are bit-identical; keys exclude `weight` (read only by the parent
# aggregation) and include the reference-set fingerprint so a
# long-lived worker never mixes runs.
_COMP_CACHE: dict[str, Any] = {}
_AGG_CACHE: dict[str, Any] = {}
_SCORE_MEMO: dict[tuple, float | None] = {}
_SCORE_MEMO_MAX = 2_000_000
_MISS = object()


def _comp_key(spec: dict) -> str:
    return json.dumps({k: v for k, v in spec.items() if k != "weight"}, sort_keys=True)


def _eval_op_memo(spec: dict, s: Entity, t: Entity, pair_key: tuple) -> float | None:
    """``SimilarityOperator.apply`` at ``limit=0`` with a comparison-
    level score memo; identical output to the compiled-rule path
    (property-tested in tests/test_learning.py)."""
    if "metric" in spec:
        ck = _comp_key(spec)
        sk = (ck, pair_key)
        hit = _SCORE_MEMO.get(sk, _MISS)
        if hit is not _MISS:
            return hit
        comp = _COMP_CACHE.get(ck)
        if comp is None:
            comp = _COMP_CACHE[ck] = operator_from_dict(spec)
        v = comp.apply(s, t, 0.0)
        if len(_SCORE_MEMO) >= _SCORE_MEMO_MAX:
            _SCORE_MEMO.clear()
        _SCORE_MEMO[sk] = v
        return v
    ak = json.dumps(
        {"aggregator": spec["aggregator"], "params": spec.get("params", {})},
        sort_keys=True,
    )
    agg = _AGG_CACHE.get(ak)
    if agg is None:
        from silk_ray.kernel.aggregators import get_aggregator

        agg = _AGG_CACHE[ak] = get_aggregator(
            spec["aggregator"], **spec.get("params", {})
        )
    weighted = [
        (_eval_op_memo(o, s, t, pair_key), o.get("weight", 1))
        for o in spec.get("operators", [])
    ]
    return agg.evaluate(weighted, 0.0)


def evaluate_rule(spec: dict, ref: ReferenceEntities, threshold: float = 0.0) -> EvaluationResult:
    """LinkageRuleEvaluator.scala:11-64: positives should score ≥
    threshold, negatives below; a rule that cannot score (missing
    values → None) behaves like the reference's ``getOrElse(-1)``.

    At ``threshold=0`` (the learner's setting) evaluation goes through
    the memoized per-comparison path — same kernel calls, cached
    across the population and iterations."""
    memo = threshold == 0.0
    rule = None if memo else rule_from_dict({"operator": spec["operator"]})
    fprint = ref.fingerprint if memo else None
    tp = tn = fp = fn = 0
    for kind, pairs in (("p", ref.positive), ("n", ref.negative)):
        for i, (s, t) in enumerate(pairs):
            if memo:
                conf = _eval_op_memo(spec["operator"], s, t, (fprint, kind, i))
            else:
                conf = rule.apply(s, t, limit=threshold)
            conf = -1.0 if conf is None else conf
            if kind == "p":
                if conf >= threshold:
                    tp += 1
                else:
                    fn += 1
            else:
                if conf >= threshold:
                    fp += 1
                else:
                    tn += 1
    return EvaluationResult(tp, tn, fp, fn)


def _count_comparisons(op: dict) -> int:
    if "metric" in op:
        return 1
    return sum(_count_comparisons(o) for o in op.get("operators", []))


def _fitness(spec: dict, ref: ReferenceEntities, config: LearningConfig) -> float:
    res = evaluate_rule(spec, ref)
    if config.fitness == "fmeasure":
        return res.f_measure
    # MCCFitnessFunction.scala:24-38
    return max(res.mcc - _count_comparisons(spec["operator"]) * config.size_penalty, 0.0)


def _score_chunk(chunk_specs: list[dict], ref, config) -> list[float]:
    return [_fitness(s, ref, config) for s in chunk_specs]


def _evaluate_population(specs: list[dict], ref, config) -> list[float]:
    """Fan the population out as Ray tasks (labeled pairs broadcast
    once); serial fallback without a Ray session."""
    try:
        import ray

        have_ray = ray.is_initialized()
    except ImportError:
        have_ray = False
    if not have_ray or len(specs) < 32:
        return [_fitness(s, ref, config) for s in specs]

    import ray

    from silk_ray.cdc import remote

    ref.fingerprint  # compute once driver-side; ships inside the broadcast
    ref_obj = ray.put(ref)
    # fine-grained chunks: spec cost is heterogeneous (a levenshtein rule
    # over KB documents costs ~100x an equality rule), so coarse chunks
    # straggle — 1-2 specs per task lets the scheduler pack them
    n_chunks = min(64, len(specs))
    chunk = (len(specs) + n_chunks - 1) // n_chunks

    futures = [
        remote(_score_chunk).remote(specs[i : i + chunk], ref_obj, config)
        for i in range(0, len(specs), chunk)
    ]
    out: list[float] = []
    for part in ray.get(futures):
        out.extend(part)
    return out


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------


def _compat_transform(values: list[str]) -> set[str]:
    """tokenize → stripUriPrefix → lowerCase
    (CompatiblePathsGenerator PairGenerator.transformValues)."""
    from silk_ray.kernel.transformers import get_transformer

    toks = get_transformer("tokenize").apply([values])
    strip = get_transformer("stripUriPrefix").apply([toks])
    return set(get_transformer("lowerCase").apply([strip]))


class RuleGenerator:
    """LinkageRuleGenerator + ComparisonGenerator + InputGenerator:
    random rules over the compatible path pairs of the training data."""

    def __init__(self, ref: ReferenceEntities, config: LearningConfig | None = None):
        self.config = config or LearningConfig()
        self.comparison_gens = self._build_generators(ref)
        if not self.comparison_gens:
            raise ValueError("no path pairs with overlapping values in the positive links")

    def _build_generators(self, ref: ReferenceEntities) -> list[tuple[str, str, str, float]]:
        spaths, tpaths = ref.source_paths(), ref.target_paths()
        pairs = []
        if self.config.compatible_only and ref.positive:
            cache_s: dict[int, dict[str, set[str]]] = {}
            cache_t: dict[int, dict[str, set[str]]] = {}
            for i, (s, t) in enumerate(ref.positive):
                cache_s[i] = {p: _compat_transform(s.get(p, [])) for p in spaths}
                cache_t[i] = {p: _compat_transform(t.get(p, [])) for p in tpaths}
            for sp in spaths:
                for tp in tpaths:
                    matches = sum(
                        1 for i in range(len(ref.positive)) if cache_s[i][sp] & cache_t[i][tp]
                    )
                    if matches / len(ref.positive) > _MIN_PATH_FREQUENCY:
                        pairs.append((sp, tp))
        else:
            pairs = [(sp, tp) for sp in spaths for tp in tpaths]
        return [(sp, tp, m, thr) for sp, tp in pairs for m, thr in _MEASURES]

    def _input(self, path: str, rng: _random.Random) -> dict:
        inp: dict = {"path": path}
        if self.config.transformations:
            for _ in range(rng.randint(0, 2)):  # InputGenerator.maxTransformations
                inp = {"transform": rng.choice(_INPUT_TRANSFORMERS), "inputs": [inp]}
        return inp

    def comparison(self, rng: _random.Random) -> dict:
        sp, tp, measure, max_thr = rng.choice(self.comparison_gens)
        return {
            "metric": measure,
            "source": self._input(sp, rng),
            "target": self._input(tp, rng),
            "threshold": rng.random() * max_thr,
            "weight": rng.randint(1, _MAX_WEIGHT),
        }

    def rule(self, rng: _random.Random) -> dict:
        aggregations = _AGG_LINEAR + _AGG_BOOLEAN
        n_ops = rng.randint(_MIN_OPERATORS, _MAX_OPERATORS)
        return {
            "operator": {
                "aggregator": rng.choice(aggregations),
                "operators": [self.comparison(rng) for _ in range(n_ops)],
            }
        }


# ---------------------------------------------------------------------------
# crossover / mutation (CrossoverFunction.scala operator menu)
# ---------------------------------------------------------------------------


def _comparisons_in(op: dict) -> list[dict]:
    if "metric" in op:
        return [op]
    out = []
    for o in op.get("operators", []):
        out.extend(_comparisons_in(o))
    return out


def _crossover(spec1: dict, spec2: dict, rng: _random.Random) -> dict:
    child = copy.deepcopy(spec1)
    c1 = _comparisons_in(child["operator"])
    c2 = _comparisons_in(spec2["operator"])
    ops = ["threshold", "weight", "measure", "agg_fn", "agg_ops", "operator", "transform"]
    which = rng.choice(ops)
    if which in ("threshold", "weight", "measure", "transform") and c1 and c2:
        a, b = rng.choice(c1), rng.choice(c2)
        if which == "threshold":  # ThresholdCrossover
            a["threshold"] = b["threshold"]
        elif which == "weight":  # WeightCrossover
            a["weight"] = b.get("weight", 1)
        elif which == "measure":  # DistanceMeasureCrossover
            a["metric"] = b["metric"]
            if "params" in b:
                a["params"] = copy.deepcopy(b["params"])
            else:
                a.pop("params", None)
            # keep the threshold meaningful for the new measure's range
            a["threshold"] = b["threshold"]
        else:  # TransformationCrossover: swap one input tree
            side = rng.choice(["source", "target"])
            a[side] = copy.deepcopy(b[side])
    elif which == "agg_fn":  # AggregationFunctionCrossover
        if "aggregator" in child["operator"] and "aggregator" in spec2["operator"]:
            child["operator"]["aggregator"] = spec2["operator"]["aggregator"]
    elif which == "agg_ops":  # AggregationOperatorsCrossover
        if "operators" in child["operator"] and "operators" in spec2["operator"]:
            o1 = child["operator"]["operators"]
            o2 = spec2["operator"]["operators"]
            keep = [o for o in o1 if rng.random() < 0.5]
            add = [copy.deepcopy(o) for o in o2 if rng.random() < 0.5]
            merged = keep + add
            child["operator"]["operators"] = merged or [copy.deepcopy(rng.choice(o1 + o2))]
    else:  # OperatorCrossover: replace a random subtree
        donors = _comparisons_in(spec2["operator"])
        if donors and "operators" in child["operator"]:
            ops_list = child["operator"]["operators"]
            ops_list[rng.randrange(len(ops_list))] = copy.deepcopy(rng.choice(donors))
    return child


def _structure_key(op: dict) -> str:
    """Structural identity ignoring learned numbers
    (CleanPopulationTask.compareLinkageRules)."""

    def strip(o: dict):
        if "metric" in o:
            return {
                "metric": o["metric"],
                "source": o["source"],
                "target": o["target"],
            }
        return {
            "aggregator": o.get("aggregator"),
            "operators": sorted(
                (json.dumps(strip(c), sort_keys=True) for c in o.get("operators", []))
            ),
        }

    return json.dumps(strip(op), sort_keys=True)


# ---------------------------------------------------------------------------
# the GenLink loop (GenLink.scala:46-95)
# ---------------------------------------------------------------------------


def learn(
    ref: ReferenceEntities,
    config: LearningConfig | None = None,
    seed_rules: list[dict] | None = None,
) -> LearningResult:
    config = config or LearningConfig()
    rng = _random.Random(config.seed)
    gen = RuleGenerator(ref, config)

    # GeneratePopulation: seeds + randoms up to populationSize
    specs = [copy.deepcopy(s) for s in (seed_rules or [])][: config.population_size]
    while len(specs) < config.population_size:
        specs.append(gen.rule(rng))
    fitnesses = _evaluate_population(specs, ref, config)

    def best() -> tuple[dict, float]:
        i = max(range(len(specs)), key=lambda j: fitnesses[j])
        return specs[i], fitnesses[i]

    iterations = 0
    ineffective = 0
    status = "maximum_iterations"
    while iterations < config.max_iterations:
        _, best_before = best()
        # stop when the destination F-measure is reached
        if evaluate_rule(best()[0], ref).f_measure > config.destination_fmeasure:
            status = "success"
            break

        # Reproduction: elite passes through, rest by tournament +
        # crossover/mutation
        order = sorted(range(len(specs)), key=lambda j: -fitnesses[j])
        elite_idx = order[: config.elitism_count]
        new_specs = [specs[i] for i in elite_idx]
        new_from = []

        def select() -> dict:
            contenders = [rng.randrange(len(specs)) for _ in range(config.tournament_size)]
            return specs[max(contenders, key=lambda j: fitnesses[j])]

        while len(new_specs) + len(new_from) < config.population_size:
            if rng.random() < config.mutation_probability:
                # MutationFunction: crossover with a fresh random rule
                new_from.append(_crossover(select(), gen.rule(rng), rng))
            else:
                new_from.append(_crossover(select(), select(), rng))
        new_fit = [fitnesses[i] for i in elite_idx] + _evaluate_population(new_from, ref, config)
        specs = new_specs + new_from
        fitnesses = new_fit
        iterations += 1

        _, best_after = best()
        if best_after <= best_before + _SCORE_EPSILON:
            ineffective += 1
            if ineffective >= config.max_ineffective_iterations:
                status = "maximum_ineffective_iterations"
                break
        else:
            ineffective = 0

        # CleanPopulationTask every cleanFrequency iterations
        if iterations % config.clean_frequency == 0:
            seen: set[str] = set()
            kept_specs: list[dict] = []
            kept_fit: list[float] = []
            for i in sorted(range(len(specs)), key=lambda j: -fitnesses[j]):
                key = _structure_key(specs[i]["operator"])
                if key not in seen:
                    seen.add(key)
                    kept_specs.append(specs[i])
                    kept_fit.append(fitnesses[i])
            fresh = [gen.rule(rng) for _ in range(len(specs) - len(kept_specs))]
            specs = kept_specs + fresh
            fitnesses = kept_fit + _evaluate_population(fresh, ref, config)

    best_spec, best_fit = best()
    return LearningResult(
        best_rule=best_spec,
        best_fitness=best_fit,
        evaluation=evaluate_rule(best_spec, ref),
        iterations=iterations,
        status=status,
        population=sorted(zip(specs, fitnesses), key=lambda p: -p[1])[:25],
    )
