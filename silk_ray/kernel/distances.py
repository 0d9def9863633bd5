"""Distance measures — per-comparison similarity kernels.

Semantics mirror the reference's ``DistanceMeasure`` hierarchy
(``silk-rules/src/main/scala/org/silkframework/rule/similarity/``):

- ``apply(values1, values2, limit)`` returns a distance >= 0 (may
  early-out with +inf past ``limit``);
- ``index(values, limit, source_or_target)`` returns a blocking
  :class:`~silk_ray.kernel.index.Index` such that two value sets
  within the distance limit share at least one index vector;
- ``SimpleDistanceMeasure.apply`` is the min over the cross product of
  the two value lists with early exit at 0
  (SimpleDistanceMeasure.scala:47-59); its ``index`` merges the
  ``index_value`` of each distinct value (:61-67);
- ``apply_pairs(column, pi, pj, limit)`` is the pair scorer's batch
  form: one distance array over many candidate pairs of a
  :class:`ValueColumn`. The default prepares each entity once and calls
  ``apply_prepared`` per pair; ``equality``, ``jaccard`` (and
  ``jaccardMinhashLSH``) and ``levenshteinDistance`` override it with
  array kernels that return bit-identical distances.

Every measure documents the reference file it matches.
"""

from __future__ import annotations

import math
import re
import unicodedata
from math import inf

import numpy as np

from silk_ray.kernel.index import Index, stable_str_hash

DISTANCE_MEASURES: dict[str, type] = {}


def register_distance(cls):
    DISTANCE_MEASURES[cls.id] = cls
    return cls


def get_distance(plugin_id: str, **params) -> "DistanceMeasure":
    return DISTANCE_MEASURES[plugin_id](**params)


def parse_double(s: str) -> float | None:
    """Scala ``str.toDouble`` analogue (StringUtils.DoubleLiteral)."""
    try:
        return float(s)
    except (TypeError, ValueError):
        return None


def q_grams(s: str, q: int) -> list[str]:
    """Padded q-grams (StringUtils.scala:135-139): '#'-boundary on both sides."""
    boundary = "#" * (q - 1)
    padded = boundary + s + boundary
    if len(padded) < q:
        return []
    return [padded[i : i + q] for i in range(len(padded) - q + 1)]


class DistanceMeasure:
    id: str = ""

    def apply(self, values1: list[str], values2: list[str], limit: float = inf) -> float:
        raise NotImplementedError

    def index(self, values: list[str], limit: float, source_or_target: bool) -> Index:
        return Index.default()

    # -- optional fast path for the pair-scoring hot loop ----------------
    # prepare() converts a value list into a reusable per-row object
    # (e.g. a frozenset) so per-pair work avoids repeated conversions;
    # apply_prepared() consumes two prepared objects. Default: identity.
    def prepare(self, values: list[str]):
        return values

    def apply_prepared(self, p1, p2, limit: float = inf) -> float:
        return self.apply(p1, p2, limit)

    def apply_pairs(
        self, column: "ValueColumn", pi: np.ndarray, pj: np.ndarray, limit: float = inf
    ) -> np.ndarray:
        """Distances of the candidate pairs ``(pi[n], pj[n])`` — entity
        rows of ``column``, whose value lists are both non-empty — as
        one float64 array. Default: prepare each entity of the pairs
        once, then ``apply_prepared`` per pair. An override must return
        the same distances bit for bit."""
        prep = column.prepared(self, np.union1d(pi, pj))
        fn = self.apply_prepared
        return np.array(
            [fn(prep[i], prep[j], limit) for i, j in zip(pi.tolist(), pj.tolist())],
            dtype=np.float64,
        )

    # convenience for tests
    def __call__(self, values1, values2, limit=inf):
        return self.apply(values1, values2, limit)


def list_column_to_pylist(col) -> list:
    """``col.to_pylist()`` for a list column of strings or numbers, in one
    vectorised pass per chunk: the flattened child converts to Python
    objects at once and each row is a slice of it by the list offsets.
    ``to_pylist()`` builds one scalar per element (about 1.5 µs per
    string). Same values: ``None`` for a null list, ``[]`` for an empty
    list, ``None`` for a null element."""
    import pyarrow as pa

    out: list = []
    for arr in col.chunks if isinstance(col, pa.ChunkedArray) else [col]:
        if not len(arr):
            continue
        offs = arr.offsets.to_numpy()
        lo = int(offs[0])
        child = arr.values.slice(lo, int(offs[-1]) - lo)
        flat = child.to_numpy(zero_copy_only=False)
        if child.null_count and flat.dtype != object:  # numbers: nulls came back as NaN
            flat = child.fill_null(0).to_numpy(zero_copy_only=False).astype(object)
            flat[child.is_null().to_numpy(zero_copy_only=False)] = None
        flat = flat.tolist()
        bounds = (offs - lo).tolist()
        rows = [flat[a:b] for a, b in zip(bounds, bounds[1:])]
        if arr.null_count:
            for i in np.flatnonzero(arr.is_null().to_numpy(zero_copy_only=False)).tolist():
                rows[i] = None
        out.extend(rows)
    return out


_ROWSORT_CELLS = 1 << 20  # row-sort matrix cells per chunk of pairs


def ragged_arange(starts: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Concatenated ``range(starts[r], starts[r] + counts[r])`` over rows
    ``r``, and the row of each element."""
    owner = np.repeat(np.arange(len(counts)), counts)
    first = np.cumsum(counts) - counts
    return np.asarray(starts, np.int64)[owner] + np.arange(len(owner)) - first[owner], owner


class ValueColumn:
    """One value list per entity — a leaf comparison's values (or an
    entity's blocking keys): row ``e`` of an Arrow list array holds
    entity ``e``'s values; a null list counts as empty. The forms the
    pair kernels share are built on first use, once per column: the
    flat values and each entity's span of them, character lengths,
    Python lists and the leaf metric's prepared values."""

    def __init__(self, arr):
        import pyarrow as pa

        if isinstance(arr, pa.ChunkedArray):
            arr = arr.chunk(0) if arr.num_chunks == 1 else arr.combine_chunks()
        if pa.types.is_large_list(arr.type):
            arr = arr.cast(pa.list_(arr.type.value_type))
        if pa.types.is_large_string(arr.type.value_type):
            arr = arr.cast(pa.list_(pa.string()))
        self.arr = arr
        offs = arr.offsets.to_numpy().astype(np.int64)
        self.flat = arr.values.slice(int(offs[0]), int(offs[-1] - offs[0]))
        self.starts = offs[:-1] - offs[0]
        self.spans = np.diff(offs)
        self.lengths = self.spans.copy()
        if arr.null_count:
            self.lengths[arr.is_null().to_numpy(zero_copy_only=False)] = 0
        self._char_lengths = None
        self._prepared: dict = {}

    def cross(self, pi: np.ndarray, pj: np.ndarray):
        """Every (value of ``pi[n]``, value of ``pj[n]``) as flat value
        indices, pair-major in list order, and the first value pair of
        each pair."""
        n1, n2 = self.lengths[pi], self.lengths[pj]
        k, owner = ragged_arange(np.zeros(len(pi), np.int64), n1 * n2)
        a = self.starts[pi][owner] + k // n2[owner]
        b = self.starts[pj][owner] + k % n2[owner]
        return a, b, np.cumsum(n1 * n2) - n1 * n2

    def intersections(self, pi: np.ndarray, pj: np.ndarray):
        """Per pair: ``|S_i ∩ S_j|``, ``|S_i|`` and ``|S_j|`` over the two
        entities' distinct values ``S`` (a null value is a value). The
        values of the entities in the pairs get dictionary codes ``c``;
        each pair is one row holding ``2c`` for every value of ``i`` and
        ``2c + 1`` for every value of ``j``, padded with negative even
        numbers that match nothing. Sorted, a row has a shared value
        wherever ``2c`` is followed by ``2c + 1``, and a distinct value
        wherever a code differs from its left neighbour — duplicates
        inside one list count once."""
        import pyarrow as pa
        import pyarrow.compute as pc

        ents, local = np.unique(np.concatenate([pi, pj]), return_inverse=True)
        li, lj = local[: len(pi)], local[len(pi) :]
        idx, _ = ragged_arange(self.starts[ents], self.lengths[ents])
        enc = pc.dictionary_encode(self.flat.take(pa.array(idx)), null_encoding="encode")
        dtype = np.int32 if len(enc.dictionary) < 2**30 else np.int64
        codes = 2 * enc.indices.to_numpy(zero_copy_only=False).astype(dtype)
        starts = np.cumsum(self.lengths[ents]) - self.lengths[ents]
        n1, n2 = self.lengths[ents][li], self.lengths[ents][lj]
        inter, d1, d2 = (np.empty(len(pi), np.int64) for _ in range(3))
        width = int((n1 + n2).max()) if len(pi) else 0
        pad = -2 - 2 * np.arange(width, dtype=dtype)
        step = max(1, _ROWSORT_CELLS // max(1, width))
        for lo in range(0, len(pi), step):
            sl = slice(lo, lo + step)
            c1, f1, f2 = n1[sl], starts[li[sl]], starts[lj[sl]]
            rows = np.tile(pad, (len(c1), 1))
            at, r = ragged_arange(f1, c1)
            rows[r, at - f1[r]] = codes[at]
            at, r = ragged_arange(f2, n2[sl])
            rows[r, c1[r] + at - f2[r]] = codes[at] + 1
            rows.sort(axis=1)
            left, right = rows[:, :-1], rows[:, 1:]
            inter[sl] = np.count_nonzero((right == left + 1) & (left % 2 == 0), axis=1)
            new = np.ones(rows.shape, bool)
            new[:, 1:] = right != left
            new &= rows >= 0
            odd = (rows % 2).astype(bool)
            d1[sl] = np.count_nonzero(new & ~odd, axis=1)
            d2[sl] = np.count_nonzero(new & odd, axis=1)
        return inter, d1, d2

    def char_lengths(self) -> np.ndarray:
        """Length in characters of each flat value (0 for a null)."""
        if self._char_lengths is None:
            import pyarrow.compute as pc

            n = pc.utf8_length(self.flat).fill_null(0)
            self._char_lengths = n.to_numpy(zero_copy_only=False).astype(np.int64)
        return self._char_lengths

    def pylists(self, rows) -> list:
        """The value lists of entity ``rows`` as Python lists."""
        import pyarrow as pa

        return list_column_to_pylist(self.arr.take(pa.array(rows, pa.int64())))

    def prepared(self, metric: "DistanceMeasure", rows: np.ndarray) -> dict:
        """``metric.prepare`` of each entity in ``rows``, each computed
        once per column."""
        cache = self._prepared
        todo = [r for r in rows.tolist() if r not in cache]
        if todo:
            for r, v in zip(todo, self.pylists(todo)):
                cache[r] = metric.prepare(v)
        return cache


class SimpleDistanceMeasure(DistanceMeasure):
    """Min-over-cross-product with early exit (SimpleDistanceMeasure.scala)."""

    def evaluate(self, v1: str, v2: str, limit: float = inf) -> float:
        raise NotImplementedError

    def empty_index(self, limit: float) -> Index:
        return Index.empty()

    def index_value(self, value: str, limit: float, source_or_target: bool) -> Index:
        return Index.default()

    def apply(self, values1, values2, limit=inf):
        min_distance = inf
        for s1 in values1:
            for s2 in values2:
                d = self.evaluate(s1, s2, min(limit, min_distance))
                if d < min_distance:
                    min_distance = d
                if min_distance <= 0.0:
                    return min_distance
        return min_distance

    def index(self, values, limit, source_or_target):
        if not values:
            return self.empty_index(limit)
        out = None
        seen = set()
        for v in values:
            if v in seen:
                continue
            seen.add(v)
            idx = self.index_value(v, limit, source_or_target)
            out = idx if out is None else out.merge(idx)
        return out


# ---------------------------------------------------------------------------
# equality family (silk-rules/.../plugins/distance/equality/)
# ---------------------------------------------------------------------------


@register_distance
class EqualityMetric(SimpleDistanceMeasure):
    """0 iff any value equal (EqualityMetric.scala:45-66)."""

    id = "equality"

    def apply(self, values1, values2, limit=inf):
        s2 = set(values2)
        return 0.0 if any(v in s2 for v in values1) else 1.0

    def prepare(self, values):
        return frozenset(values)

    def apply_prepared(self, p1, p2, limit=inf):
        return 0.0 if not p1.isdisjoint(p2) else 1.0

    def apply_pairs(self, column, pi, pj, limit=inf):
        inter = column.intersections(pi, pj)[0]
        return np.where(inter > 0, 0.0, 1.0)

    def evaluate(self, v1, v2, limit=inf):
        return 0.0 if v1 == v2 else 1.0

    def empty_index(self, limit):
        return Index.one_dim(set())

    def index_value(self, value, limit, source_or_target):
        return Index.one_dim({stable_str_hash(value)})


@register_distance
class InequalityMetric(SimpleDistanceMeasure):
    """1 iff equal (InequalityMetric.scala); no blocking index."""

    id = "inequality"

    def evaluate(self, v1, v2, limit=inf):
        return 1.0 if v1 == v2 else 0.0


@register_distance
class ConstantMetric(DistanceMeasure):
    """Constant distance (ConstantMetric.scala)."""

    id = "constantDistance"

    def __init__(self, value: float = 1.0):
        self.value = value

    def apply(self, values1, values2, limit=inf):
        return self.value


def _fold_text(s: str) -> str:
    """Case/diacritic fold ≈ Collator PRIMARY strength (RelaxedEqualityMetric.scala)."""
    nfkd = unicodedata.normalize("NFKD", s)
    stripped = "".join(c for c in nfkd if not unicodedata.combining(c))
    return stripped.casefold()


@register_distance
class RelaxedEqualityMetric(SimpleDistanceMeasure):
    """Case/diacritic-relaxed equality (RelaxedEqualityMetric.scala)."""

    id = "relaxedEquality"

    def evaluate(self, v1, v2, limit=inf):
        return 0.0 if _fold_text(v1) == _fold_text(v2) else 1.0

    def empty_index(self, limit):
        return Index.one_dim(set())

    def index_value(self, value, limit, source_or_target):
        return Index.one_dim({stable_str_hash(_fold_text(value))})


@register_distance
class NumericEqualityMetric(SimpleDistanceMeasure):
    """Numeric equality with precision tolerance (NumericEqualityMetric.scala:46-70)."""

    id = "numericEquality"

    def __init__(self, precision: float = 0.0):
        if precision >= 1.0 or precision < 0.0:
            raise ValueError("precision must be 0 or a non-negative number smaller than 1")
        self.precision = precision

    def evaluate(self, v1, v2, limit=inf):
        d1, d2 = parse_double(v1), parse_double(v2)
        if d1 is None or d2 is None:
            return 1.0
        if self.precision == 0.0:
            return 0.0 if d1 == d2 else 1.0
        return 0.0 if abs(d1 - d2) <= self.precision else 1.0

    def empty_index(self, limit):
        return Index.one_dim(set())

    def index_value(self, value, limit, source_or_target):
        d = parse_double(value)
        if d is None:
            return self.empty_index(limit)
        if self.precision == 0.0:
            return Index.one_dim({stable_str_hash(repr(d))})
        decimal_place = min(50, math.ceil(abs(math.log10(self.precision))))
        norm = d - math.fmod(d, self.precision)
        keys = {
            stable_str_hash(f"{x:.{decimal_place}f}")
            for x in (d, norm - 1.1 * self.precision, norm + 1.1 * self.precision)
        }
        return Index.one_dim(keys)


class _OrderMetric(SimpleDistanceMeasure):
    """Shared body of lowerThan / greaterThan (LowerThanMetric.scala autodetect order)."""

    lower: bool = True

    def __init__(self, orEqual: bool = False, reverse: bool = False):
        self.or_equal = orEqual
        self.reverse = reverse

    def evaluate(self, v1, v2, limit=inf):
        if self.reverse:
            v1, v2 = v2, v1
        if not self.lower:
            v1, v2 = v2, v1
        d1, d2 = parse_double(v1), parse_double(v2)
        if d1 is not None and d2 is not None:
            ok = d1 <= d2 if self.or_equal else d1 < d2
        else:
            ok = v1 <= v2 if self.or_equal else v1 < v2
        return 0.0 if ok else 1.0


@register_distance
class LowerThanMetric(_OrderMetric):
    id = "lowerThan"
    lower = True


@register_distance
class GreaterThanMetric(_OrderMetric):
    id = "greaterThan"
    lower = False


# ---------------------------------------------------------------------------
# character-based (silk-rules/.../plugins/distance/characterbased/)
# ---------------------------------------------------------------------------


def levenshtein(s1: str, s2: str) -> int:
    """Two-row DP edit distance (LevenshteinDistance.scala:75-129)."""
    if not s1:
        return len(s2)
    if not s2:
        return len(s1)
    r0 = list(range(len(s1) + 1))
    for j, c2 in enumerate(s2, start=1):
        r1 = [j] + [0] * len(s1)
        for i, c1 in enumerate(s1, start=1):
            cost = 0 if c1 == c2 else 1
            r1[i] = min(r0[i] + 1, r1[i - 1] + 1, r0[i - 1] + cost)
        r0 = r1
    return r0[len(s1)]


def levenshtein_bounded(s1: str, s2: str, k: int) -> int:
    """Ukkonen band DP: exact distance when ≤ ``k``, else any value
    > ``k`` (``k + 1``). Contract-compatible with the reference's
    ``DistanceMeasure.evaluate(…, limit)`` ("may return
    PositiveInfinity instead of the actual distance" past the limit,
    ``DistanceMeasure.scala:40-46``) — the scoring hot path calls this
    with the comparison's threshold-derived limit, cutting the DP from
    O(n·m) cells to O(n·(2k+1)) with early row-minimum exit."""
    if s1 == s2:
        return 0
    n1, n2 = len(s1), len(s2)
    if n1 > n2:
        s1, s2, n1, n2 = s2, s1, n2, n1
    if n2 - n1 > k:
        return k + 1
    if n1 == 0:
        return n2
    big = k + 1
    prev = list(range(n1 + 1))
    for j in range(1, n2 + 1):
        c2 = s2[j - 1]
        lo = j - k if j - k > 1 else 1
        hi = j + k if j + k < n1 else n1
        cur = [big] * (n1 + 1)
        if j <= k:
            cur[0] = j
        row_min = cur[0] if lo == 1 else big
        p_im1 = prev[lo - 1]
        for i in range(lo, hi + 1):
            p_i = prev[i]
            m = p_i + 1  # deletion
            b = cur[i - 1] + 1  # insertion
            if b < m:
                m = b
            c = p_im1 if s1[i - 1] == c2 else p_im1 + 1  # substitution
            if c < m:
                m = c
            cur[i] = m
            if m < row_min:
                row_min = m
            p_im1 = p_i
        if row_min > k:
            return big
        prev = cur
    d = prev[n1]
    return d if d <= k else big


MYERS_MAX_LEN = 64  # pattern bits per machine word
_BITS = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))
_MYERS_CHUNK = 8192  # value pairs per bit-table (pairs × alphabet × 8 bytes)


def levenshtein_myers(data: np.ndarray, p_off, p_len, t_off, t_len) -> np.ndarray:
    """Exact edit distances of byte-string pairs, pattern ``data[p_off:
    p_off + p_len]`` (1..64 bytes) against text ``data[t_off: t_off +
    t_len]``: Myers' bit-parallel algorithm in Hyyrö's edit-distance
    form, one text position per step over every pair at once. Pairs run
    in descending text length, so the pairs still active at a step are a
    prefix of the arrays."""
    out = np.empty(len(p_len), np.int64)
    for lo in range(0, len(p_len), _MYERS_CHUNK):
        sl = slice(lo, lo + _MYERS_CHUNK)
        order = np.argsort(-t_len[sl], kind="stable")
        po, pl, to, tl = (a[sl][order] for a in (p_off, p_len, t_off, t_len))
        n = len(pl)
        # chunk-local dense alphabet keeps the bit table small
        pidx, prow = ragged_arange(po, pl)
        tidx, trow = ragged_arange(to, tl)
        pbytes, tbytes = data[pidx], data[tidx]
        seen = (np.bincount(pbytes, minlength=256) + np.bincount(tbytes, minlength=256)) > 0
        lut = np.cumsum(seen) - 1
        width = int(seen.sum())
        # peq[r * width + c]: bit i set iff pattern r's byte i is c
        peq = np.zeros(n * width, np.uint64)
        np.bitwise_or.at(peq, prow * width + lut[pbytes], _BITS[pidx - po[prow]])
        # text[j, r]: where pair r's text byte j sits in peq
        text = np.zeros((int(tl[0]), n), np.int64)
        text[tidx - to[trow], trow] = trow * width + lut[tbytes]
        pv = np.full(n, ~np.uint64(0))
        mv = np.zeros(n, np.uint64)
        score = pl.astype(np.int64)
        high = _BITS[pl - 1]
        active = np.searchsorted(-tl, -np.arange(int(tl[0])), side="left")
        for j, a in enumerate(active.tolist()):
            eq = peq[text[j, :a]]
            p, m = pv[:a], mv[:a]
            xv = eq | m
            xh = (((eq & p) + p) ^ p) | eq
            ph = m | ~(xh | p)
            mh = p & xh
            h = high[:a]
            score[:a] += (ph & h) != 0
            score[:a] -= (mh & h) != 0
            ph = (ph << np.uint64(1)) | np.uint64(1)
            mh = mh << np.uint64(1)
            pv[:a] = mh | ~(xv | ph)
            mv[:a] = ph & xv
        out[lo : lo + len(pl)][order] = score
    return out


@register_distance
class LevenshteinDistance(SimpleDistanceMeasure):
    """Absolute edit distance with q-gram blocking index
    (LevenshteinDistance.scala:42-73): length-difference early exit;
    index = q-gram (q=2) codes over [minChar..maxChar], reordered
    (drop first q-1 grams to the back), first ``limit*q + 1`` grams.
    """

    id = "levenshteinDistance"
    q = 2

    def __init__(self, minChar: str = "0", maxChar: str = "z"):
        self.min_char = ord(minChar)
        self.max_char = ord(maxChar)
        self.index_size = (self.max_char - self.min_char + 1) ** self.q

    def evaluate(self, v1, v2, limit=inf):
        if abs(len(v1) - len(v2)) > limit:
            return inf
        if limit != inf and limit < max(len(v1), len(v2)):
            k = int(limit)
            d = levenshtein_bounded(v1, v2, k)
            return float(d) if d <= k else inf
        return float(levenshtein(v1, v2))

    def apply_pairs(self, column, pi, pj, limit=inf):
        """``apply`` over every pair: the min over each pair's value
        cross product of the exact distance when it is ≤ ``⌊limit⌋`` and
        ∞ past it — what ``evaluate`` returns whichever of its branches
        runs. Value pairs of pure-ASCII strings whose shorter side fits
        :data:`MYERS_MAX_LEN` run through :func:`levenshtein_myers`,
        others through ``evaluate``. A null value anywhere takes the
        default path."""
        a, b, first = column.cross(pi, pj)
        flat = column.flat
        if flat.null_count:
            null = flat.is_null().to_numpy(zero_copy_only=False)
            if null[a].any() or null[b].any():
                return super().apply_pairs(column, pi, pj, limit)
        chars = column.char_lengths()
        la, lb = chars[a], chars[b]
        dist = np.full(len(a), inf)
        near = np.flatnonzero(np.abs(la - lb) <= limit)
        offs = np.frombuffer(flat.buffers()[1], np.int32)[flat.offset : flat.offset + len(flat) + 1]
        offs = offs.astype(np.int64)
        nbytes = np.diff(offs)
        short, long = np.minimum(la, lb), np.maximum(la, lb)
        fast = (nbytes[a] == la) & (nbytes[b] == lb) & (short <= MYERS_MAX_LEN)
        f = near[fast[near]]
        if len(f):
            swap = la[f] > lb[f]
            pat, txt = np.where(swap, b[f], a[f]), np.where(swap, a[f], b[f])
            d = long[f].astype(np.float64)  # an empty pattern's distance is the text length
            hit = short[f] > 0
            if hit.any():
                data = np.frombuffer(flat.buffers()[2], np.uint8)
                d[hit] = levenshtein_myers(
                    data, offs[pat[hit]], short[f][hit], offs[txt[hit]], long[f][hit]
                )
            k = math.floor(limit) if limit != inf else inf
            dist[f] = np.where(d <= k, d, inf)
        slow = near[~fast[near]]
        if len(slow):
            vals = flat.take(np.concatenate([a[slow], b[slow]])).to_pylist()
            ev = self.evaluate
            dist[slow] = [ev(x, y, limit) for x, y in zip(vals[: len(slow)], vals[len(slow) :])]
        return np.minimum.reduceat(dist, first) if len(first) else dist

    def _index_qgram(self, gram: str) -> int:
        idx = 0
        span = self.max_char - self.min_char + 1
        for ch in gram:
            c = min(max(ord(ch), self.min_char), self.max_char)
            idx = idx * span + c - self.min_char
        return idx

    def empty_index(self, limit):
        return Index.one_dim(set(), self.index_size)

    def index_value(self, value, limit, source_or_target):
        grams = q_grams(value, self.q)
        reordered = grams[self.q - 1 :] + grams[: self.q - 1]
        take = int(limit) * self.q + 1
        return Index.one_dim({self._index_qgram(g) for g in reordered[:take]}, self.index_size)


@register_distance
class LevenshteinMetric(LevenshteinDistance):
    """Normalized [0,1] Levenshtein (LevenshteinMetric.scala)."""

    id = "levenshtein"
    apply_pairs = DistanceMeasure.apply_pairs  # normalised: no batch kernel

    def evaluate(self, v1, v2, limit=inf):
        m = max(len(v1), len(v2))
        if m == 0:
            return 0.0
        if limit != inf and limit * m < m:
            k = int(limit * m)
            d = levenshtein_bounded(v1, v2, k)
            return d / m if d <= k else inf
        return levenshtein(v1, v2) / m

    def index_value(self, value, limit, source_or_target):
        # normalized limit → absolute char budget (LevenshteinMetric.scala)
        return super().index_value(value, limit * len(value), source_or_target)


def jaro(s1: str, s2: str) -> float:
    """Jaro distance exactly as JaroDistanceMetric.scala:40-96 (incl. its
    quirk of returning 0.0 when the common-character sequences differ in
    length)."""
    if not s1 or not s2:
        return 1.0

    halflen = min(len(s1), len(s2)) // 2 + min(len(s1), len(s2)) % 2

    def common_chars(a: str, b: str, dist: int) -> list[str]:
        out = []
        copy = list(b)
        for i, ch in enumerate(a):
            for j in range(max(0, i - dist), min(i + dist + 1, len(b))):
                if copy[j] == ch:
                    out.append(ch)
                    copy[j] = "\0"
                    break
        return out

    c1 = common_chars(s1, s2, halflen)
    c2 = common_chars(s2, s1, halflen)
    if not c1 or not c2:
        return 1.0
    if len(c1) != len(c2):
        return 0.0
    transpositions = sum(1 for a, b in zip(c1, c2) if a != b) // 2
    sim = (len(c1) / len(s1) + len(c2) / len(s2) + (len(c1) - transpositions) / len(c1)) / 3.0
    return 1.0 - sim


@register_distance
class JaroDistanceMetric(SimpleDistanceMeasure):
    id = "jaro"

    def evaluate(self, v1, v2, limit=inf):
        return jaro(v1, v2)


@register_distance
class JaroWinklerDistance(SimpleDistanceMeasure):
    """Jaro-Winkler (JaroWinklerDistance.scala:33-60), prefix scale 0.1, max prefix 4."""

    id = "jaroWinkler"

    def evaluate(self, v1, v2, limit=inf):
        d = jaro(v1, v2)
        max_prefix = min(4, len(v1), len(v2))
        prefix = 0
        while prefix < max_prefix and v1[prefix] == v2[prefix]:
            prefix += 1
        return d - prefix * 0.1 * d


@register_distance
class QGramsMetric(SimpleDistanceMeasure):
    """Jaccard over padded q-grams (QGramsMetric.scala:42-60)."""

    id = "qGrams"

    def __init__(self, q: int = 2, minChar: str = "0", maxChar: str = "z"):
        self.q = q
        self.min_char = ord(minChar)
        self.max_char = ord(maxChar)
        self.index_size = (self.max_char - self.min_char + 1) ** q

    def evaluate(self, v1, v2, limit=inf):
        g1, g2 = set(q_grams(v1, self.q)), set(q_grams(v2, self.q))
        union = len(g1 | g2)
        if union == 0:
            return 0.0
        return 1.0 - len(g1 & g2) / union

    def _index_qgram(self, gram: str) -> int:
        idx = 0
        span = self.max_char - self.min_char + 1
        for ch in gram:
            c = min(max(ord(ch), self.min_char), self.max_char)
            idx = idx * span + c - self.min_char
        return idx

    def empty_index(self, limit):
        return Index.one_dim(set(), self.index_size)

    def index_value(self, value, limit, source_or_target):
        grams = q_grams(value, self.q)
        index_size = int(round(len(grams) * limit + 0.5))
        return Index.one_dim({self._index_qgram(g) for g in grams[:index_size]}, self.index_size)


_JAVA_PUNCT = r"!\"#$%&'()*+,\-./:;<=>?@\[\\\]^_`{|}~"


def _java_regex(pattern: str) -> str:
    """Translate the Java regex constructs the reference uses in
    tokenizer patterns (``\\p{Punct}``) to Python ``re`` syntax."""
    return pattern.replace(r"\p{Punct}", _JAVA_PUNCT)


@register_distance
class TokenwiseStringDistance(SimpleDistanceMeasure):
    """IDF-weighted token-alignment distance
    (tokenbased/TokenwiseStringDistance.scala:89-356).

    Strings are tokenized, every token pair is scored with the chosen
    character metric, a greedy one-to-one alignment is picked in
    descending score order, and the alignment is aggregated
    Jaccard-style: intersection = Σ w1·w2·score over matches, union =
    intersection + Σ (w1²+w2²)(1−score) over matches + Σ w² over
    unmatched tokens. Stopwords get a lower weight; optional incremental
    IDF weights (collected during indexing), match threshold, token-
    length weight adjustment and Kendall's-tau ordering impact."""

    id = "tokenwiseDistance"

    def __init__(
        self,
        ignoreCase: bool = True,
        metricName: str = "levenshtein",
        splitRegex: str = r"[\s\d\p{Punct}]+",
        stopwords: str = "",
        stopwordWeight: float = 0.01,
        nonStopwordWeight: float = 0.1,
        useIncrementalIdfWeights: bool = False,
        matchThreshold: float = 0.0,
        orderingImpact: float = 0.0,
        adjustByTokenLength: bool = False,
    ):
        for name, v in (
            ("stopwordWeight", stopwordWeight),
            ("nonStopwordWeight", nonStopwordWeight),
            ("matchThreshold", matchThreshold),
            ("orderingImpact", orderingImpact),
        ):
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0,1]")
        if metricName == "levenshtein":
            self.metric = LevenshteinMetric()
        elif metricName == "jaro":
            self.metric = JaroDistanceMetric()
        elif metricName == "jaroWinkler":
            self.metric = JaroWinklerDistance()
        else:
            raise ValueError(
                f"unknown value '{metricName}' for parameter 'metricName', "
                "must be one of ['levenshtein', 'jaro', 'jaroWinkler']"
            )
        self.ignore_case = ignoreCase
        self.split_re = re.compile(_java_regex(splitRegex))
        self.stopwords = {
            w.lower() if ignoreCase else w for w in re.split(r"[,\s]+", stopwords)
        }
        self.stopword_weight = stopwordWeight
        self.non_stopword_weight = nonStopwordWeight
        self.use_idf = useIncrementalIdfWeights
        self.match_threshold = matchThreshold
        self.ordering_impact = orderingImpact
        self.adjust_by_token_length = adjustByTokenLength
        # incremental IDF state (populated while indexing, like the
        # reference's documentFrequencies map)
        self.doc_freq: dict[str, int] = {}
        self.doc_count = 0

    def tokenize(self, s: str) -> list[str]:
        toks = self.split_re.split(s)
        if self.ignore_case:
            toks = [t.lower() for t in toks]
        return [t for t in toks if t]

    def _weight(self, token: str) -> float:
        fixed = self.stopword_weight if token in self.stopwords else self.non_stopword_weight
        if not self.use_idf:
            return fixed
        df = self.doc_freq.get(token, 0)
        if df == 0:
            return fixed
        return min(fixed, math.log(self.doc_count / df))

    @staticmethod
    def _kendalls_tau(seq1: list[int], seq2: list[int]) -> float:
        n = len(seq1)
        if n == 1:
            return 1.0
        num = 0.0
        for i in range(n):
            for j in range(i):
                a = seq1[i] - seq1[j]
                b = seq2[i] - seq2[j]
                if (a > 0) == (b > 0) and (a < 0) == (b < 0):
                    num += 1.0
        return num / (0.5 * n * (n - 1))

    def evaluate(self, v1, v2, limit=inf):
        t1 = self.tokenize(v1)
        t2 = self.tokenize(v2)
        if not t1 or not t2:
            return 1.0
        w1 = [self._weight(t) for t in t1]
        w2 = [self._weight(t) for t in t2]
        if self.adjust_by_token_length:
            m1 = max(len(t) for t in t1)
            m2 = max(len(t) for t in t2)
            w1 = [w * len(t) / m1 for w, t in zip(w1, t1)]
            w2 = [w * len(t) / m2 for w, t in zip(w2, t2)]

        scores = []
        for i, a in enumerate(t1):
            for j, b in enumerate(t2):
                # exact per-token score: the whole-string limit must not
                # reach the inner metric — our measures exploit the
                # return-inf-past-limit contract (banded Levenshtein),
                # which would misclassify token pairs with distance in
                # (limit, 1] as non-matching and flip the aggregate,
                # while the reference's inner metrics compute exactly
                # despite receiving the limit
                # (TokenwiseStringDistance.scala:148)
                s = 1.0 - self.metric.evaluate(a, b, inf)
                if s >= self.match_threshold:
                    scores.append((s, i, j))
        scores.sort(key=lambda t: -t[0])  # stable: ties keep (i, j) order

        matched1 = [False] * len(t1)
        matched2 = [False] * len(t2)
        n1 = n2 = 0
        last = 1.0
        alignment = []
        for s, i, j in scores:
            if n1 < len(t1) and n2 < len(t2) and last > 0.0 and not matched1[i] and not matched2[j]:
                last = s
                matched1[i] = True
                matched2[j] = True
                n1 += 1
                n2 += 1
                alignment.append((s, i, j))

        intersection = 0.0
        union_matched = 0.0
        for s, i, j in alignment:
            wi, wj = w1[i], w2[j]
            part = wi * wj * s
            intersection += part
            union_matched += part + (wi * wi + wj * wj) * (1.0 - s)
        union_unmatched = sum(w * w for w, m in zip(w1, matched1) if not m) + sum(
            w * w for w, m in zip(w2, matched2) if not m
        )
        union = union_matched + union_unmatched
        score = 1.0 if union == 0.0 else intersection / union

        if self.ordering_impact > 0.0 and len(alignment) > 1:
            # positions in alignment order, sorted by descending token
            # index on each side (TokenwiseStringDistance.scala:262-271)
            pos1 = [p for _, p in sorted(((i, p) for p, (_, i, _) in enumerate(alignment)), key=lambda x: -x[0])]
            pos2 = [p for _, p in sorted(((j, p) for p, (_, _, j) in enumerate(alignment)), key=lambda x: -x[0])]
            tau = self._kendalls_tau(pos1, pos2)
            return 1.0 - score * (1 - self.ordering_impact * (1 - tau))
        return 1.0 - score

    def empty_index(self, limit):
        return self.metric.empty_index(limit)

    def index_value(self, value, limit, source_or_target):
        """≥1 common token required for comparison; per-token indexes of
        the character metric, merged (TokenwiseStringDistance.scala:340-356)."""
        tokens = self.tokenize(value)
        if not tokens:
            return self.empty_index(limit)
        if self.use_idf:
            self.doc_count += 1
            for tok in set(tokens):
                self.doc_freq[tok] = self.doc_freq.get(tok, 0) + 1
        out = None
        for tok in dict.fromkeys(tokens):
            idx = self.metric.index_value(tok, limit, source_or_target)
            out = idx if out is None else out.merge(idx)
        return out


@register_distance
class StartsWithDistance(SimpleDistanceMeasure):
    """Prefix predicate (StartsWithDistance.scala)."""

    id = "startsWith"

    def __init__(self, reverse: bool = False, minLength: int = 2, maxLength: int = 2**31 - 1):
        self.reverse = reverse
        self.min_length = minLength
        self.max_length = maxLength

    def evaluate(self, v1, v2, limit=inf):
        if self.reverse:
            v1, v2 = v2, v1
        prefix = v2[: self.max_length]
        return 0.0 if v1.startswith(prefix) else 1.0

    def empty_index(self, limit):
        return Index.one_dim(set())

    def index_value(self, value, limit, source_or_target):
        if self.reverse:
            source_or_target = not source_or_target
        if source_or_target:
            prefixes = [
                value[:n]
                for n in range(self.min_length, min(len(value), self.max_length) + 1)
            ]
        else:
            prefixes = [value[: self.max_length]] if len(value) > self.max_length else [value]
        return Index.one_dim({stable_str_hash(p) for p in prefixes})


@register_distance
class IsSubstringDistance(SimpleDistanceMeasure):
    """Containment predicate (IsSubstringDistance.scala)."""

    id = "isSubstring"

    def __init__(self, reverse: bool = False):
        self.reverse = reverse

    def evaluate(self, v1, v2, limit=inf):
        if self.reverse:
            v1, v2 = v2, v1
        return 0.0 if v1 in v2 else 1.0


@register_distance
class SubStringDistance(SimpleDistanceMeasure):
    """Stoilos substring similarity (SubStringDistance.scala): distance
    = 1 - (comm - diff + winkler-ish improvement). We implement the
    core comm(s,t) - diff(s,t) formulation with the Winkler prefix
    bonus omitted, matching the cited paper's base formula."""

    id = "substring"

    def __init__(self, granularity: str = "3"):
        self.granularity = int(granularity)

    def evaluate(self, v1, v2, limit=inf):
        if not v1 or not v2:
            return 1.0
        s1, s2 = v1, v2
        common_len = 0
        # iteratively remove longest common substrings (Stoilos sec. 3)
        while True:
            longest = _longest_common_substring(s1, s2)
            if len(longest) < self.granularity:
                break
            common_len += len(longest)
            s1 = s1.replace(longest, "", 1)
            s2 = s2.replace(longest, "", 1)
        comm = 2.0 * common_len / (len(v1) + len(v2))
        u1 = (len(v1) - common_len) / len(v1)
        u2 = (len(v2) - common_len) / len(v2)
        p = 0.6
        denom = p + (1 - p) * (u1 + u2 - u1 * u2)
        diff = (u1 * u2) / denom if denom else 0.0
        sim = comm - diff
        return 1.0 - max(min(sim, 1.0), 0.0)


def _longest_common_substring(s1: str, s2: str) -> str:
    if not s1 or not s2:
        return ""
    best_len, best_end = 0, 0
    prev = [0] * (len(s2) + 1)
    for i in range(1, len(s1) + 1):
        cur = [0] * (len(s2) + 1)
        c1 = s1[i - 1]
        for j in range(1, len(s2) + 1):
            if c1 == s2[j - 1]:
                cur[j] = prev[j - 1] + 1
                if cur[j] > best_len:
                    best_len, best_end = cur[j], i
        prev = cur
    return s1[best_end - best_len : best_end]


# ---------------------------------------------------------------------------
# token-based (silk-rules/.../plugins/distance/tokenbased/)
# ---------------------------------------------------------------------------


@register_distance
class JaccardDistance(DistanceMeasure):
    """1 - |∩|/|∪| over the value sets (JaccardDistance.scala:30-48);
    index = first ceil(|set|*limit) value hashes."""

    id = "jaccard"

    def apply(self, values1, values2, limit=inf):
        set1, set2 = set(values1), set(values2)
        union = len(set1 | set2)
        if union == 0:
            return 0.0
        return 1.0 - len(set1 & set2) / union

    def prepare(self, values):
        return frozenset(values)

    def apply_prepared(self, p1, p2, limit=inf):
        if not p1 and not p2:
            return 0.0
        inter = len(p1 & p2)
        return 1.0 - inter / (len(p1) + len(p2) - inter)

    def apply_pairs(self, column, pi, pj, limit=inf):
        inter, n1, n2 = column.intersections(pi, pj)
        return 1.0 - inter / (n1 + n2 - inter)

    def index(self, values, limit, source_or_target):
        import math

        # true prefix-filter bound (sorted global take-order): two sets
        # with jaccard distance <= limit (similarity t = 1-limit) must
        # share a value within their first n - ceil(t*n) + 1 elements.
        # The reference's (n*limit + 0.5).toInt (JaccardDistance.scala:
        # 41-47) is up to one element short at the boundary AND its
        # Set.take order is arbitrary — this is strictly complete
        # (property-tested in tests/test_properties.py).
        value_set = sorted(set(values))
        n = len(value_set)
        # the 1e-9 guards against float ceil at exact boundaries
        # (e.g. 3*0.8/1.2 = 2.0000000000000004) — it can only ENLARGE
        # the prefix, preserving completeness
        index_size = n - math.ceil((1.0 - min(limit, 1.0)) * n - 1e-9) + 1
        return Index.one_dim({stable_str_hash(v) for v in value_set[:index_size]})


@register_distance
class JaccardMinhashLSH(JaccardDistance):
    """Jaccard distance (identical scoring to ``jaccard``) with banded
    MinHash-LSH blocking instead of the reference's single-value prefix
    index (JaccardDistance.scala:41-47).

    The reference index emits one block per indexed VALUE — on corpora
    where a few values are globally frequent (stopword-ish shingles,
    small vocabularies) that creates mega-blocks holding most of the
    dataset. Banded LSH requires ``rows`` minhashes to agree per block
    (AND), so a candidate needs Jaccard ≈ collision^(1/rows) — frequent
    single values no longer collapse everything into one block. Recall
    is 1-(1-s^rows)^bands (probabilistic, tunable), a documented
    deviation used by the scale-path rules.

    Every hash derives from md5-lower-64 (== DuckDB
    ``md5_number_lower``): base value hash = md5 % 2^32, permutation
    params a_i/b_i from md5('mhlsh-{seed}-a/b-{i}') — so a SQL oracle
    reproduces the signatures exactly (a·x+b < 2^64, so the numpy
    uint64 math equals HUGEINT) and the banding as raw row-tuples (the
    engine's band key crc-encodes the same tuple; crc collisions only
    ever ADD engine candidates — the negligible caveat the
    dedup_minhash oracle already documents)."""

    id = "jaccardMinhashLSH"

    def __init__(self, bands: int = 6, rows: int = 6, seed: int = 97):
        import numpy as np

        from silk_ray.kernel.index import md5_lower64

        self.bands = bands
        self.rows = rows
        n = bands * rows
        self._a = np.array(
            [1 + md5_lower64(f"mhlsh-{seed}-a-{i}") % ((1 << 32) - 1) for i in range(n)],
            dtype=np.uint64,
        )
        self._b = np.array(
            [md5_lower64(f"mhlsh-{seed}-b-{i}") % (1 << 32) for i in range(n)],
            dtype=np.uint64,
        )

    def index(self, values, limit, source_or_target):
        import numpy as np

        from silk_ray.kernel.index import md5_lower64

        value_set = set(values)
        if not value_set:
            return Index.one_dim(set())
        base = np.array([md5_lower64(v) % (1 << 32) for v in value_set], dtype=np.uint64)
        mersenne = np.uint64((1 << 61) - 1)
        sig = ((self._a[:, None] * base[None, :] + self._b[:, None]) % mersenne).min(axis=1)
        keys = set()
        for band in range(self.bands):
            chunk = sig[band * self.rows : (band + 1) * self.rows]
            keys.add(_mix_band(band, chunk.tobytes()))
        return Index.one_dim(keys)


def _mix_band(band: int, payload: bytes) -> int:
    import zlib

    return (band << 32) | zlib.crc32(payload)


@register_distance
class DiceCoefficient(DistanceMeasure):
    """1 - 2|∩|/(|s1|+|s2|) (DiceCoefficient.scala)."""

    id = "dice"

    def apply(self, values1, values2, limit=inf):
        set1, set2 = set(values1), set(values2)
        total = len(set1) + len(set2)
        if total == 0:
            return 0.0
        return 1.0 - 2.0 * len(set1 & set2) / total

    def index(self, values, limit, source_or_target):
        import math

        # prefix-filter bound for dice distance <= limit: the overlap
        # satisfies i >= n*(1-limit)/(1+limit), so the first
        # n - ceil(n*(1-limit)/(1+limit)) + 1 sorted values must hit
        # (same correction as JaccardDistance.index vs the reference's
        # half-element-short rounding, DiceCoefficient.scala)
        value_set = sorted(set(values))
        n = len(value_set)
        # 1e-9: float-boundary ceil guard (see JaccardDistance.index)
        index_size = n - math.ceil(n * (1.0 - min(limit, 1.0)) / (1.0 + limit) - 1e-9) + 1
        return Index.one_dim({stable_str_hash(v) for v in value_set[:index_size]})


@register_distance
class SoftJaccardDistance(DistanceMeasure):
    """Jaccard with Levenshtein-matched tokens (SoftJaccardDistance.scala:34-58)."""

    id = "softjaccard"

    def __init__(self, maxDistance: int = 1):
        self.max_distance = maxDistance
        self._lev = LevenshteinDistance()
        self._jaccard = JaccardDistance()

    def apply(self, values1, values2, limit=inf):
        replaced = []
        for v1 in values1:
            equivalents = [
                v2 for v2 in values2 if self._lev.evaluate(v1, v2, self.max_distance) <= self.max_distance
            ]
            replaced.extend(equivalents if equivalents else [v1])
        return self._jaccard.apply(replaced, values2)

    def index(self, values, limit, source_or_target):
        if not values:
            return self._lev.index_value("", limit, source_or_target)
        index_size = int(round(len(values) * limit + 0.5))
        out = None
        for v in values[:index_size]:
            idx = self._lev.index_value(v, limit, source_or_target)
            out = idx if out is None else out.merge(idx)
        return out


@register_distance
class CosineDistanceMetric(SimpleDistanceMeasure):
    """Cosine over pre-weighted '<token> <weight>' items separated by ';'
    (CosineDistanceMetric.scala)."""

    id = "cosine"

    def __init__(self, k: int = 3):
        self.k = k

    def evaluate(self, v1, v2, limit=inf):
        def parse(s: str) -> dict[str, float]:
            out = {}
            for item in s.split(";"):
                parts = item.split(" ")
                if len(parts) >= 2:
                    try:
                        out[parts[0]] = float(parts[1])
                    except ValueError:
                        pass
            return out

        m1 = parse(v1)
        similarity = sum(w * m1[t] for t, w in parse(v2).items() if t in m1)
        return max(1.0 - similarity, 0.0)


@register_distance
class TokenCosineDistance(DistanceMeasure):
    """Cosine distance over token-count vectors of the two value lists.

    Not in the reference (its `cosine` expects pre-weighted items); this
    is the natural multiset variant used by our dedup/similarity ops.
    """

    id = "tokenCosine"

    def apply(self, values1, values2, limit=inf):
        from collections import Counter

        c1, c2 = Counter(values1), Counter(values2)
        dot = sum(c1[t] * c2[t] for t in c1.keys() & c2.keys())
        n1 = math.sqrt(sum(v * v for v in c1.values()))
        n2 = math.sqrt(sum(v * v for v in c2.values()))
        if n1 == 0 or n2 == 0:
            return 1.0
        return 1.0 - dot / (n1 * n2)

    def index(self, values, limit, source_or_target):
        value_set = sorted(set(values))
        index_size = int(round(len(value_set) * limit + 0.5)) if limit < 1 else len(value_set)
        return Index.one_dim({stable_str_hash(v) for v in value_set[:index_size]})


# ---------------------------------------------------------------------------
# numeric / temporal (silk-rules/.../plugins/distance/numeric/)
# ---------------------------------------------------------------------------


@register_distance
class NumMetric(SimpleDistanceMeasure):
    """|a-b| with optional [min,max] range for continuous blocking
    (NumMetric.scala:47-80)."""

    id = "num"

    def __init__(self, minValue: float = -inf, maxValue: float = inf):
        self.min_value = minValue
        self.max_value = maxValue
        self.index_enabled = not (math.isinf(minValue) or math.isinf(maxValue))

    def evaluate(self, v1, v2, limit=inf):
        d1, d2 = parse_double(v1), parse_double(v2)
        if d1 is None or d2 is None:
            return inf
        return abs(d1 - d2)

    def empty_index(self, limit):
        if self.index_enabled:
            return Index.continuous_empty(self.min_value, self.max_value, limit)
        return Index.empty()

    def index_value(self, value, limit, source_or_target):
        if not self.index_enabled:
            return Index.default()
        d = parse_double(value)
        if d is None:
            return self.empty_index(limit)
        return Index.continuous(d, self.min_value, self.max_value, limit=limit)


def _parse_date(s: str):
    import datetime as _dt

    # exact-subset fast rejection: every accepted format starts with a
    # digit year and is at most 26 chars (4+1+2+1+2 + 1+2+1+2+1+2 +
    # 1+6 with microseconds), so longer or non-digit-leading values can
    # never parse. Matters because rules apply `date` comparisons to
    # arbitrary values (e.g. the GA's measure menu over document text):
    # a failing strptime costs ~30 µs × 4 formats PER VALUE, and was
    # 94% of GA fitness evaluation before this gate.
    if len(s) > 26 or not s[:1].isdigit():
        return None
    for fmt in ("%Y-%m-%d", "%Y-%m-%dT%H:%M:%S", "%Y-%m-%dT%H:%M:%S.%f", "%Y-%m-%d %H:%M:%S"):
        try:
            return _dt.datetime.strptime(s, fmt)
        except ValueError:
            continue
    return None


@register_distance
class DateMetric(SimpleDistanceMeasure):
    """Distance in days (DateMetric.scala:96-110); continuous index over
    the configured [minDate, maxDate] day range."""

    id = "date"

    _EPOCH_MIN = "0001-01-01"

    def __init__(self, minDate: str = "1900-01-01", maxDate: str = "2100-01-01"):
        self.min_days = self._to_days(minDate)
        self.max_days = self._to_days(maxDate)

    @staticmethod
    def _to_days(s: str) -> float | None:
        d = _parse_date(s)
        if d is None:
            return None
        return d.toordinal() + (d - d.replace(hour=0, minute=0, second=0, microsecond=0)).total_seconds() / 86400.0

    def evaluate(self, v1, v2, limit=inf):
        d1, d2 = self._to_days(v1), self._to_days(v2)
        if d1 is None or d2 is None:
            return inf
        return abs(d1 - d2)

    def empty_index(self, limit):
        return Index.continuous_empty(self.min_days, self.max_days, limit)

    def index_value(self, value, limit, source_or_target):
        d = self._to_days(value)
        if d is None:
            return self.empty_index(limit)
        return Index.continuous(d, self.min_days, self.max_days, limit=limit)


@register_distance
class DateTimeMetric(SimpleDistanceMeasure):
    """Distance in seconds (DateTimeMetric.scala)."""

    id = "dateTime"

    def __init__(self, minDateTime: str = "1900-01-01T00:00:00", maxDateTime: str = "2100-01-01T00:00:00"):
        self.min_sec = self._to_sec(minDateTime)
        self.max_sec = self._to_sec(maxDateTime)

    @staticmethod
    def _to_sec(s: str) -> float | None:
        d = _parse_date(s)
        if d is None:
            return None
        return d.toordinal() * 86400.0 + d.hour * 3600 + d.minute * 60 + d.second

    def evaluate(self, v1, v2, limit=inf):
        s1, s2 = self._to_sec(v1), self._to_sec(v2)
        if s1 is None or s2 is None:
            return inf
        return abs(s1 - s2)

    def empty_index(self, limit):
        return Index.continuous_empty(self.min_sec, self.max_sec, limit)

    def index_value(self, value, limit, source_or_target):
        s = self._to_sec(value)
        if s is None:
            return self.empty_index(limit)
        return Index.continuous(s, self.min_sec, self.max_sec, limit=limit)


@register_distance
class InsideNumericInterval(DistanceMeasure):
    """Interval containment (InsideNumericInterval.scala): source values
    form an interval [min,max]; 0 iff every target value lies inside."""

    id = "insideNumericInterval"

    def __init__(self, separator: str = "-"):
        self.separator = separator

    def _bounds(self, values):
        nums = []
        for v in values:
            for part in v.split(self.separator):
                d = parse_double(part.strip())
                if d is not None:
                    nums.append(d)
        return (min(nums), max(nums)) if nums else None

    def apply(self, values1, values2, limit=inf):
        b1 = self._bounds(values1)
        nums2 = [parse_double(v) for v in values2]
        if b1 is None or not nums2 or any(n is None for n in nums2):
            return 1.0
        lo, hi = b1
        return 0.0 if all(lo <= n <= hi for n in nums2) else 1.0


@register_distance
class GeographicDistanceMetric(SimpleDistanceMeasure):
    """Haversine meters over 'lat lon' or 'POINT(lon lat)' strings
    (GeographicDistanceMetric.scala:44-75); 2-D lat/long block index."""

    id = "wgs84"

    _UNITS = {"meter": 1.0, "m": 1.0, "kilometer": 1000.0, "km": 1000.0}

    def __init__(self, unit: str = "km"):
        self.unit_factor = self._UNITS.get(unit, 1000.0)

    @staticmethod
    def _parse_point(s: str):
        s = s.strip()
        if s.upper().startswith("POINT"):
            inner = s[s.index("(") + 1 : s.rindex(")")].strip()
            lon, lat = inner.split()
            return float(lat), float(lon)
        parts = s.replace(",", " ").split()
        if len(parts) == 2:
            return float(parts[0]), float(parts[1])
        return None

    def evaluate(self, v1, v2, limit=inf):
        p1, p2 = self._parse_point(v1), self._parse_point(v2)
        if p1 is None or p2 is None:
            return inf
        lat1, lon1 = map(math.radians, p1)
        lat2, lon2 = map(math.radians, p2)
        a = (
            math.sin((lat2 - lat1) / 2) ** 2
            + math.cos(lat1) * math.cos(lat2) * math.sin((lon2 - lon1) / 2) ** 2
        )
        meters = 6371000.8 * 2 * math.asin(min(1.0, math.sqrt(a)))
        return meters / self.unit_factor

    def index_value(self, value, limit, source_or_target):
        p = self._parse_point(value)
        if p is None:
            return Index.empty()
        lat, lon = p
        # degrees per distance-limit unit at the equator
        deg = limit * self.unit_factor / 111_320.0
        if deg <= 0:
            return Index.default()
        lat_idx = Index.continuous(lat, -90.0, 90.0, limit=deg)
        lon_idx = Index.continuous(lon, -180.0, 180.0, limit=deg)
        return lat_idx.conjunction(lon_idx)


# reference plugin-id alias: SubStringDistance.scala's annotation id is
# "substringDistance"; specs written against the reference use it verbatim
DISTANCE_MEASURES["substringDistance"] = DISTANCE_MEASURES["substring"]
