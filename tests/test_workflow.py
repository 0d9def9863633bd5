"""Workflow DAG executor (LocalWorkflowExecutor.scala equivalent)."""

import json

import pyarrow.parquet as pq


def _count(d):
    return sum(pq.read_table(str(f)).num_rows for f in d.glob("*.parquet"))


def test_workflow_dag(ray_session, tmp_path):
    """dataset → transform (error sink) → link → sinks; the transform
    node feeds two consumers (link source + direct sink) so it
    materializes once."""
    from silk_ray.pipelines.workflow import execute_workflow

    spec = {
        "nodes": [
            {"id": "docs", "type": "dataset",
             "path": "/root/testdata/sf0.001/documents.parquet",
             "columns": ["doc_id", "text", "lang"], "uri_cols": ["doc_id"]},
            {"id": "norm", "type": "transform", "input": "docs",
             "rules": [
                 {"target": "uri", "input": {"path": "uri"}},
                 {"target": "lang", "input": {"transform": "lowerCase", "inputs": [{"path": "lang"}]}},
                 # validation failures land in the error sink
                 {"target": "lang_ok", "input": {"transform": "validateRegex",
                  "params": {"regex": "^(en|de|fr|es|pt)$"},
                  "inputs": [{"path": "lang"}]}},
             ],
             "error_output": str(tmp_path / "errors")},
            {"id": "links", "type": "link", "source": "norm",
             "rule": {"operator": {"metric": "equality", "threshold": 0.0,
                                   "source": {"path": "lang"}, "target": {"path": "lang"}}},
             "link_limit": 40},
            {"id": "norm_out", "type": "sink", "input": "norm", "path": str(tmp_path / "norm")},
            {"id": "links_out", "type": "sink", "input": "links", "path": str(tmp_path / "links")},
        ]
    }
    built = execute_workflow(spec)
    n_norm = _count(tmp_path / "norm")
    n_err = _count(tmp_path / "errors")
    assert n_norm + n_err == 500  # every row lands exactly once
    assert _count(tmp_path / "links") == 40
    assert set(built) == {"docs", "norm", "links", "norm_out", "links_out"}


def test_workflow_cli(ray_session, tmp_path, capsys):
    from silk_ray.__main__ import main

    spec = {
        "nodes": [
            {"id": "d", "type": "dataset",
             "path": "/root/testdata/sf0.001/documents.parquet",
             "columns": ["doc_id", "text"]},
            {"id": "p", "type": "transform", "input": "d",
             "rules": [{"target": "n_tokens", "input": {"transform": "count",
                        "inputs": [{"transform": "tokenize", "inputs": [{"path": "text"}]}]}}]},
            {"id": "o", "type": "sink", "input": "p", "path": str(tmp_path / "out")},
        ]
    }
    (tmp_path / "wf.json").write_text(json.dumps(spec))
    assert main(["workflow", "--config", str(tmp_path / "wf.json")]) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["sinks"] == {"o": str(tmp_path / "out")}
    assert _count(tmp_path / "out") == 500


def test_nested_workflow_with_variable_binding(ray_session, tmp_path):
    """Nested workflow execution (NestedWorkflowExecutionTest.scala:17-33):
    a parent workflow node runs a child workflow whose `variable` node is
    bound to a parent dataset (VariableDataset.scala semantics)."""
    from silk_ray.pipelines.workflow import execute_workflow

    child = {
        "nodes": [
            {"id": "in", "type": "variable"},
            {"id": "t", "type": "transform", "input": "in",
             "rules": [
                 {"target": "doc_id", "input": {"path": "doc_id"}},
                 {"target": "upper", "input": {"transform": "upperCase",
                                               "inputs": [{"path": "lang"}]}},
             ]},
        ]
    }
    (tmp_path / "child.json").write_text(json.dumps(child))
    parent = {
        "nodes": [
            {"id": "docs", "type": "dataset",
             "path": "/root/testdata/sf0.001/documents.parquet",
             "columns": ["doc_id", "lang"]},
            {"id": "sub", "type": "workflow", "config": str(tmp_path / "child.json"),
             "inputs": {"in": "docs"}, "output": "t"},
            {"id": "out", "type": "sink", "input": "sub", "path": str(tmp_path / "o")},
        ]
    }
    built = execute_workflow(parent)
    df = built["sub"].to_pandas() if hasattr(built["sub"], "to_pandas") else None
    out = _count(tmp_path / "o")
    assert out == 500
    # inline sub-spec variant + unbound variable error
    parent2 = {
        "nodes": [
            {"id": "docs", "type": "dataset",
             "path": "/root/testdata/sf0.001/documents.parquet",
             "columns": ["doc_id", "lang"]},
            {"id": "sub", "type": "workflow", "nodes": child["nodes"],
             "inputs": {"in": "docs"}, "output": "t"},
        ]
    }
    built2 = execute_workflow(parent2)
    assert built2["sub"].to_pandas()["upper"].str.isupper().all()

    import pytest

    with pytest.raises(ValueError, match="not bound"):
        execute_workflow(child)


def test_workflow_cluster_and_survivors_nodes(ray_session):
    """link-shaped pairs → cluster (connected components) → survivors
    (one representative per cluster anti-joined against the corpus)."""
    import pyarrow as pa
    import ray.data as rd

    from silk_ray.pipelines.workflow import execute_workflow

    pairs = rd.from_arrow(
        pa.table(
            {
                "source": pa.array([1, 2, 10], pa.int64()),
                "target": pa.array([2, 3, 11], pa.int64()),
            }
        )
    )
    docs = rd.from_arrow(pa.table({"uri": pa.array(range(1, 13), pa.int64())}))
    spec = {
        "nodes": [
            {"id": "pairs", "type": "variable"},
            {"id": "docs", "type": "variable"},
            {"id": "cc", "type": "cluster", "input": "pairs", "node_col": "uri",
             "num_partitions": 8},
            {"id": "kept", "type": "survivors", "input": "docs", "clusters": "cc",
             "id_col": "uri", "node_col": "uri"},
        ]
    }
    built = execute_workflow(spec, bindings={"pairs": pairs, "docs": docs})
    cc = built["cc"].to_pandas()
    assert dict(zip(cc["uri"], cc["cluster_id"])) == {1: 1, 2: 1, 3: 1, 10: 10, 11: 10}
    assert sorted(built["kept"].to_pandas()["uri"]) == [1, 4, 5, 6, 7, 8, 9, 10, 12]
