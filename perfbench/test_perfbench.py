"""Self-tests for the benchmark: ``python3 -m pytest perfbench -q`` from
the checkout root. The end-to-end tests run every workload at toy size
(about half a minute each on a 4-CPU host)."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pyarrow as pa
import pytest

from perfbench import oracle
from perfbench.tracer import Span, Tracer, layer_table, self_times

CHECKOUT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(CHECKOUT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)


# ---- tracer arithmetic ---------------------------------------------------


def test_self_time_of_nested_spans():
    # epoch [0,10] > merge [1,4] > commit [2,3]; links [5,9] > commit [6,6.5]
    spans = [
        Span("engine.epoch", 0.0, 10.0, None, 1),
        Span("merge.run_epoch", 1.0, 4.0, 0, 1),
        Span("checkpoint.commit_manifest", 2.0, 3.0, 1, 1),
        Span("incremental.update_links", 5.0, 9.0, 0, 1),
        Span("checkpoint.commit_linkstate", 6.0, 6.5, 3, 1),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 3.5, 0.5])
    # children plus the root's self time account for the root's wall time
    st = self_times(spans)
    assert sum(st) == pytest.approx(10.0)
    table = layer_table(spans)
    assert table["checkpoint.*"] == {"count": 2, "total_s": pytest.approx(1.5), "self_s": pytest.approx(1.5)}
    assert table["engine.epoch"]["self_s"] == pytest.approx(3.0)


def test_self_time_clips_and_merges_overlapping_children():
    spans = [
        Span("a.root", 0.0, 4.0, None, None),
        Span("b.x", -1.0, 2.0, 0, None),  # clipped to [0, 2]
        Span("b.y", 1.0, 3.0, 0, None),  # overlaps b.x: union is [0, 3]
    ]
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_tracer_records_parents_and_restores_entry_points():
    import silk_ray.cdc.checkpoint as ckpt

    orig = ckpt.read_manifest
    tr = Tracer()
    tr.install([("silk_ray.cdc.checkpoint", "read_manifest", "checkpoint.read_manifest")])
    try:
        tr.epoch = 7
        tr.call("engine.epoch", lambda: ckpt.read_manifest("/nonexistent-root"))
    finally:
        tr.uninstall()
    assert ckpt.read_manifest is orig
    names = [(s.name, s.parent, s.epoch) for s in tr.spans]
    assert names == [("engine.epoch", None, 7), ("checkpoint.read_manifest", 0, 7)]
    assert tr.overhead_s > 0


# ---- correctness gates bite ------------------------------------------------


def _events():
    return pa.table(
        {
            "offset": pa.array([0, 1, 2, 3, 3], pa.int64()),
            "op": ["I", "I", "U", "D", "D"],
            "repo": ["r", "r", "r", "r", "r"],
            "path": ["a", "b", "a", "b", "b"],
            "commit": ["c0", "c1", "c2", None, None],
            "lang": ["py", "go", "py", None, None],
            "content": ["x", "y", "x2", None, None],
        }
    )


def test_lake_gate_passes_on_oracle_state_and_catches_a_wrong_row():
    lake = pa.table({"repo": ["r"], "path": ["a"], "commit": ["c2"], "lang": ["py"], "content": ["x2"]})
    assert oracle.lake_gate(lake, _events()) == []
    wrong = lake.set_column(4, "content", pa.array(["x"]))
    assert oracle.lake_gate(wrong, _events()) == ["lake: wrong row ('r', 'a')"]
    extra = pa.concat_tables([lake, pa.table({"repo": ["r"], "path": ["b"], "commit": ["c1"], "lang": ["go"], "content": ["y"]})])
    assert oracle.lake_gate(extra, _events()) == ["lake: unexpected ('r', 'b')"]


def test_lookup_gate_checks_each_read_at_its_offset():
    d = oracle.row_digest
    ok = [
        {"next_offset": 2, "keys": [("r", "a"), ("r", "b")], "got": {("r", "a"): d("c0", "py", "x"), ("r", "b"): d("c1", "go", "y")}},
        {"next_offset": 4, "keys": [("r", "b")], "got": {}},
    ]
    assert oracle.lookup_gate(_events(), ok) == []
    stale = [{"next_offset": 3, "keys": [("r", "a")], "got": {("r", "a"): d("c0", "py", "x")}}]
    assert oracle.lookup_gate(_events(), stale) == ["lookup 0: wrong row ('r', 'a')"]


def test_links_and_agg_gates_catch_a_wrong_row():
    from silk_ray.cdc.matview import AggViewSpec

    links = pa.table({"source": ["a"], "target": ["b"], "confidence": [0.5]})
    assert oracle.links_gate(links, links) == []
    assert oracle.links_gate(links, links.set_column(2, "confidence", pa.array([0.25]))) != []

    spec = AggViewSpec(group_by=("lang",), measures={"chars": ("sum_strlen", "content")})
    lake = pa.table({"lang": ["py", "py", "go"], "content": ["ab", "c", "xyz"]})
    view = pa.table({"lang": ["go", "py"], "n": [1, 2], "chars": [3, 3]})
    assert oracle.agg_gate(view, lake, spec) == []
    assert oracle.agg_gate(view.set_column(2, "chars", pa.array([3, 4])), lake, spec) == ["agg: wrong row py"]


# ---- every workload end to end at toy size ------------------------------


def _run(workload: str, trace: int) -> tuple[dict, str]:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "2", "--trace", str(trace), "--toy"],
        cwd=CHECKOUT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    return json.loads(out.stdout.strip().splitlines()[-1]), out.stdout


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric_and_passes(workload):
    res, _ = _run(workload, 0)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert all(v["value"] > 0 for v in res["metrics"].values())

    traced, stdout = _run(workload, 1)
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == want
    m = {k: v["value"] for k, v in traced["metrics"].items()}
    present = {"incremental.update_links_s": workload == "catchup_link",
               "clusters.update_s": workload == "catchup_link",
               "matview.update_s": workload == "tail_head",
               "egress.update_s": workload == "tail_head"}
    for name, on in present.items():
        assert (m[name] > 0) == on, name
    assert os.path.exists(os.path.join(CHECKOUT, ".perfbench_out", f"trace-{workload}-seed3.json"))


def test_fails_fast_without_the_program(tmp_path):
    import shutil

    shutil.copytree(os.path.join(CHECKOUT, "perfbench"), tmp_path / "perfbench")
    shutil.copy(os.path.join(CHECKOUT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tail_head", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0 and out.stdout == ""
