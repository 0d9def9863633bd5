"""Workflow DAG executor — the LocalWorkflowExecutor equivalent.

Reference: ``LocalWorkflowExecutor.scala:34-120`` walks
``workflowDependencyGraph`` from the end nodes; dataset nodes execute
once, operator nodes per occurrence, operators dispatch through
``ExecutorRegistry``. Here the DAG **is** the Ray Data logical plan:
each node builds a (lazy) ``Dataset``; Ray's streaming executor replaces
the Activity scheduler.

Spec (JSON)::

    {"nodes": [
      {"id": "docs",  "type": "dataset", "path": "...", "format": "parquet",
       "columns": [...], "uri_cols": [...]},
      {"id": "norm",  "type": "transform", "input": "docs",
       "rules": [...],                    # transform_rule_from_dict each
       "error_output": "..."},            # optional error-row sink
      {"id": "links", "type": "link", "source": "norm", "target": "docs",
       "rule": {...}, "link_limit": 1000000},
      {"id": "parsed", "type": "parse_json" | "parse_xml", "input": "docs",
       "input_col": "body", "base_path": "/a/b"},
      {"id": "cc",    "type": "cluster", "input": "links",   # pairs → components
       "left_col": "source", "right_col": "target", "node_col": "uri"},
      {"id": "kept",  "type": "survivors", "input": "docs", "clusters": "cc",
       "id_col": "uri"},                   # drop non-representative members
      {"id": "out",   "type": "sink", "input": "links", "path": "...",
       "format": "parquet" | "csv" | "json" | "ntriples" | "alignment"}
    ]}

Node semantics mirroring the reference:
- a node consumed by >1 downstream node is ``materialize()``d once
  (dataset nodes "execute once"; Ray lineage would otherwise re-execute
  the subtree per consumer);
- transform nodes capture per-row errors into an ``error`` column
  (TransformedEntities.scala:87-128); with ``error_output`` set, failed
  rows are also written to an error sink (ExecuteTransform.scala:76-79)
  and dropped from the main output.
"""

from __future__ import annotations

from typing import Any


_NODE_KEYS = {
    "dataset": {"id", "type", "path", "format", "columns", "limit", "uri_cols"},
    "variable": {"id", "type"},
    "transform": {"id", "type", "input", "rules", "error_output"},
    "link": {"id", "type", "source", "target", "rule", "link_limit"},
    "parse_json": {"id", "type", "input", "input_col", "base_path", "parent_col"},
    "parse_xml": {"id", "type", "input", "input_col", "base_path", "parent_col"},
    "workflow": {"id", "type", "nodes", "config", "inputs", "output"},
    "cluster": {
        "id", "type", "input", "left_col", "right_col", "node_col",
        "label_col", "num_partitions", "max_rounds",
    },
    "survivors": {
        "id", "type", "input", "clusters", "id_col", "node_col",
        "label_col", "broadcast_max",
    },
    "sink": {"id", "type", "input", "path", "format"},
}
_NODE_KEYS["JsonParserOperator"] = _NODE_KEYS["parse_json"]
_NODE_KEYS["XmlParserOperator"] = _NODE_KEYS["parse_xml"]


def _check_node_keys(n: dict) -> None:
    """A typo'd node key (e.g. ``rule`` on a transform) would silently
    no-op — reject loudly. `_`-prefixed and `comment` keys annotate."""
    allowed = _NODE_KEYS.get(n.get("type"))
    if allowed is None:
        return  # unknown type errors in build() with its own message
    unknown = [
        k for k in n if k not in allowed and not k.startswith("_") and k != "comment"
    ]
    if unknown:
        raise ValueError(
            f"workflow node {n.get('id')!r} ({n['type']}): unknown keys {unknown}; "
            f"allowed: {sorted(allowed)}"
        )


def _consumers(nodes: list[dict]) -> dict[str, int]:
    count: dict[str, int] = {}
    for n in nodes:
        for key in ("input", "source", "target", "clusters"):
            ref = n.get(key)
            if isinstance(ref, str):
                count[ref] = count.get(ref, 0) + 1
    return count


def execute_workflow(spec: dict[str, Any], bindings: dict[str, Any] | None = None) -> dict[str, Any]:
    """Execute the node DAG; returns {node id: Dataset | sink result}.

    ``bindings`` maps node ids to already-built Datasets — the
    VariableDataset semantics (VariableDataset.scala: a placeholder
    dataset bound at workflow execution time); a bound id short-circuits
    its node (a ``{"type": "variable"}`` node with no binding errors)."""
    import pyarrow.compute as pc

    for n in spec["nodes"]:
        _check_node_keys(n)
    nodes = {n["id"]: n for n in spec["nodes"]}
    n_consumers = _consumers(spec["nodes"])
    built: dict[str, Any] = dict(bindings or {})

    def build(node_id: str):
        if node_id in built:
            return built[node_id]
        n = nodes[node_id]
        t = n["type"]
        if t == "variable":
            raise ValueError(
                f"variable dataset node {node_id!r} was not bound at execution time"
            )
        if t == "dataset":
            from silk_ray.sources.registry import read_dataset

            ds = read_dataset(
                n["path"], n.get("format", "parquet"),
                columns=n.get("columns"), limit=n.get("limit"),
            )
            if n.get("uri_cols"):
                from silk_ray.linking.pipeline import add_uri_column

                ds = add_uri_column(ds, cols=tuple(n["uri_cols"]))
        elif t == "transform":
            from silk_ray.kernel.rule import CompiledTransform, transform_rule_from_dict

            rules = [transform_rule_from_dict(r) for r in n["rules"]]
            ds = build(n["input"]).map_batches(
                CompiledTransform(rules, typed_output=bool(n.get("typed_output", False))),
                batch_format="pyarrow",
            )
            if n.get("error_output"):
                from silk_ray.sources.registry import write_dataset

                def _err_mask(b):
                    # CompiledTransform adds 'error' only when a batch
                    # had failures
                    if "error" not in b.column_names:
                        return None
                    return pc.and_kleene(
                        pc.is_valid(b["error"]), pc.not_equal(b["error"], "")
                    )

                def _errors_only(b):
                    import pyarrow as pa

                    m = _err_mask(b)
                    if m is None:
                        # keep the sink's schema uniform: clean batches
                        # contribute an empty table WITH the error column
                        return b.slice(0, 0).append_column(
                            "error", pa.array([], pa.string())
                        )
                    return b.filter(m)

                def _ok_only(b):
                    m = _err_mask(b)
                    if m is None:
                        return b
                    return b.filter(pc.invert(m)).drop_columns(["error"])

                ds = ds.materialize()  # two consumers: error sink + main
                write_dataset(
                    ds.map_batches(_errors_only, batch_format="pyarrow"),
                    n["error_output"],
                    "parquet",
                )
                ds = ds.map_batches(_ok_only, batch_format="pyarrow")
        elif t == "link":
            from silk_ray.linking.pipeline import generate_links

            source = build(n["source"])
            target = build(n["target"]) if n.get("target") else None
            ds = generate_links(
                source,
                target,
                n["rule"],
                source_equals_target=not n.get("target"),
                link_limit=n.get("link_limit", 1_000_000),
            )
        elif t in ("parse_json", "parse_xml", "JsonParserOperator", "XmlParserOperator"):
            # reference plugin-id aliases: JsonParserTask.scala /
            # XmlParserTask.scala annotate the Operator ids
            from silk_ray.sources import parsers

            fn = (
                parsers.parse_json_column
                if t in ("parse_json", "JsonParserOperator")
                else parsers.parse_xml_column
            )
            ds = fn(
                build(n["input"]), n["input_col"],
                n.get("base_path", ""), parent_col=n.get("parent_col"),
            )
        elif t == "workflow":
            # nested workflow (NestedWorkflowExecutionTest semantics):
            # sub-spec inline (``nodes``) or from ``config`` (JSON file);
            # ``inputs`` binds parent nodes into the child's variable
            # nodes; ``output`` names the child node exposed as this
            # node's dataset
            import json as _json

            if "nodes" in n:
                sub_spec = {"nodes": n["nodes"]}
            else:
                with open(n["config"]) as f:
                    sub_spec = _json.load(f)
            sub_bindings = {
                child_id: build(parent_id)
                for child_id, parent_id in (n.get("inputs") or {}).items()
            }
            sub_built = execute_workflow(sub_spec, bindings=sub_bindings)
            out_id = n.get("output")
            if out_id is None:
                built[node_id] = sub_built
                return sub_built
            ds = sub_built[out_id]
        elif t == "cluster":
            # connected components over a pair-producing node (a `link`
            # node's (source, target) links by default): entity-
            # resolution clustering, the canonical consumer of Silk's
            # link output (the reference stops at pairs)
            from silk_ray.functions.graph import connected_components

            ds = connected_components(
                build(n["input"]),
                left_col=n.get("left_col", "source"),
                right_col=n.get("right_col", "target"),
                node_col=n.get("node_col", "node"),
                label_col=n.get("label_col", "cluster_id"),
                num_partitions=n.get("num_partitions", 64),
                max_rounds=n.get("max_rounds", 64),
            )
        elif t == "survivors":
            # keep one representative (min id) per duplicate cluster:
            # anti-join the non-representative members out of `input`
            from silk_ray.functions.graph import cluster_survivors

            ds = cluster_survivors(
                build(n["input"]),
                build(n["clusters"]),
                id_col=n.get("id_col", "doc_id"),
                node_col=n.get("node_col", "node"),
                label_col=n.get("label_col", "cluster_id"),
                broadcast_max=n.get("broadcast_max", 4_000_000),
            )
        elif t == "sink":
            from silk_ray.sources.registry import write_links

            result = write_links(build(n["input"]), n["path"], n.get("format", "parquet"))
            built[node_id] = {"path": n["path"], "result": result}
            return built[node_id]
        else:
            raise ValueError(f"unknown workflow node type {t!r}")
        if n_consumers.get(node_id, 0) > 1:
            ds = ds.materialize()
        built[node_id] = ds
        return ds

    # execute from the end nodes (reference recurses from ends too)
    consumed = set(n_consumers)
    for n in spec["nodes"]:
        if n["id"] not in consumed or n["type"] == "sink":
            build(n["id"])
    # any remaining unreferenced nodes
    for n in spec["nodes"]:
        build(n["id"])
    return built
