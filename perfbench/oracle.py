"""Correctness gates, run outside the timed window.

Each gate returns a list of mismatch descriptions; an empty list passes.
Rows are compared by a sha256 over ``commit``, ``lang`` and ``content``,
so a wrong version, a lost update or a resurrected delete all show.
"""

from __future__ import annotations

import hashlib

import pyarrow as pa
import pyarrow.compute as pc

from silk_ray.cdc.generator import sequential_apply

Key = tuple[str, str]


def row_digest(commit, lang, content) -> str:
    h = hashlib.sha256()
    for v in (commit, lang, content):
        h.update(b"\x00" if v is None else b"\x01" + v.encode())
    return h.hexdigest()


def table_digests(t: pa.Table) -> dict[Key, str]:
    cols = [t[c].to_pylist() for c in ("repo", "path", "commit", "lang", "content")]
    return {(r, p): row_digest(c, lg, ct) for r, p, c, lg, ct in zip(*cols)}


def base_as_inserts(base: pa.Table) -> pa.Table:
    """The bootstrap snapshot as the insert events it stands for:
    offsets 0..n-1, last row per key wins (bootstrap_lake's rule)."""
    n = base.num_rows
    return pa.table(
        {
            "offset": pa.array(range(n), pa.int64()),
            "op": pa.array(["I"] * n, pa.string()),
            **{c: base[c] for c in ("repo", "path", "commit", "lang", "content")},
        }
    )


def history(base: pa.Table, changelog: pa.Table, next_offset: int) -> pa.Table:
    """Every event the lake has consumed at ``next_offset``."""
    head = base_as_inserts(base)
    log = changelog.select(head.column_names).filter(pc.less(changelog["offset"], next_offset))
    return pa.concat_tables([head, log.cast(head.schema)])


def lake_gate(lake: pa.Table, events: pa.Table) -> list[str]:
    """The lake's live rows equal ``sequential_apply`` over ``events``."""
    oracle = {
        k: row_digest(r["commit"], r["lang"], r["content"])
        for k, r in sequential_apply(events).items()
    }
    return diff_digests(table_digests(lake), oracle, "lake")


def diff_digests(got: dict, want: dict, what: str) -> list[str]:
    out = [f"{what}: missing {k}" for k in sorted(want.keys() - got.keys())]
    out += [f"{what}: unexpected {k}" for k in sorted(got.keys() - want.keys())]
    out += [f"{what}: wrong row {k}" for k in sorted(want.keys() & got.keys()) if got[k] != want[k]]
    return out


def lookup_gate(events: pa.Table, lookups: list[dict]) -> list[str]:
    """Each lookup saw exactly the oracle state at the ``next_offset``
    its manifest had when it ran. ``lookups`` items carry
    ``next_offset``, ``keys`` and ``got`` (key -> digest)."""
    order = sorted(range(len(lookups)), key=lambda i: lookups[i]["next_offset"])
    ev = events.sort_by("offset")
    cols = [ev[c].to_pylist() for c in ("offset", "op", "repo", "path", "commit", "lang", "content")]
    state: dict[Key, str] = {}
    seen: set[int] = set()
    pos, out = 0, []
    for i in order:
        lk = lookups[i]
        while pos < len(cols[0]) and cols[0][pos] < lk["next_offset"]:
            off, op, repo, path, commit, lang, content = (c[pos] for c in cols)
            pos += 1
            if off in seen:
                continue
            seen.add(off)
            if op == "D":
                state.pop((repo, path), None)
            else:
                state[(repo, path)] = row_digest(commit, lang, content)
        want = {k: state[k] for k in lk["keys"] if k in state}
        out += diff_digests(lk["got"], want, f"lookup {i}")
    return out


def links_gate(incremental: pa.Table, batch: pa.Table) -> list[str]:
    """The maintained link store equals the batch link set."""

    def pairs(t: pa.Table) -> set:
        return {
            (s, d, round(c, 9))
            for s, d, c in zip(t["source"].to_pylist(), t["target"].to_pylist(), t["confidence"].to_pylist())
        }

    got, want = pairs(incremental), pairs(batch)
    return [f"links: missing {p}" for p in sorted(want - got)] + [
        f"links: unexpected {p}" for p in sorted(got - want)
    ]


def agg_gate(view: pa.Table, lake: pa.Table, spec) -> list[str]:
    """The maintained GROUP BY view equals a batch GROUP BY of the lake
    (count plus each ``sum_strlen`` measure)."""
    (g,) = spec.group_by
    batch = lake.select([g]).append_column("_n", pa.array([1] * lake.num_rows, pa.int64()))
    aggs = [("_n", "sum")]
    for out, (fn, src) in sorted(spec.measures.items()):
        if fn != "sum_strlen":
            raise ValueError(f"agg_gate checks sum_strlen measures only, not {fn}")
        batch = batch.append_column(out, pc.utf8_length(lake[src]).cast(pa.int64()))
        aggs.append((out, "sum"))
    batch = batch.group_by(g).aggregate(aggs)

    def rows(t: pa.Table, count_col: str, suffix: str) -> dict:
        names = [count_col] + [m + suffix for m in sorted(spec.measures)]
        return {
            r[g]: tuple(int(r[n]) for n in names)
            for r in t.to_pylist()
            if int(r[count_col]) != 0
        }

    return diff_digests(rows(view, spec.count_col, ""), rows(batch, "_n_sum", "_sum"), "agg")
