"""Dataset format registry + DataSource-trait operations.

Maps the reference's source/sink inventory (SURVEY.md §2.1;
``silk-core/.../dataset/DataSource.scala:30-109``, ``CsvSource.scala``,
``JsonSource.scala``, ``TextFileSource.scala``,
``BulkResourceBasedDataset.scala``) onto Ray Data readers/writers:

| reference | here |
|---|---|
| CsvSource / CsvSink | ``read_dataset(path, "csv")`` / ``write_dataset(ds, dir, "csv")`` |
| JsonDataset (streaming + in-memory) | ``"json"`` (Arrow JSON reader; nested → struct columns) |
| TextFileDataset (whole file = one value) | ``"text_files"`` (read_binary_files + decode) |
| Parquet lake tables (our standard form) | ``"parquet"`` |
| BulkResourceBasedDataset (directory-of-files) | all readers accept dirs natively |
| RdfFileDataset (N-Triples/N-Quads) | ``"ntriples"`` (silk_ray.sources.rdf) |
| DataSource.retrieve(schema, limit) | ``read_dataset(..., columns=..., limit=...)`` |
| DataSource.retrieveByUri | :func:`retrieve_by_uri` (broadcast key-set filter) |
| DataSource.retrievePaths (most frequent paths) | :func:`retrieve_paths` |
| PeakDataSource / SamplingDataSource | :func:`peak` / :func:`sample_entities` |
| SafeModeDataSource | ``limit=`` guard on every read |
"""

from __future__ import annotations

import copy
import os

import pyarrow as pa


def _read_parquet(paths, columns=None, **kw):
    import ray.data as rd

    # strip file-level schema metadata (pandas blob) AT the read: such
    # a schema is unhashable and defeats Ray Data's schema-dedup cache
    # inside the read operator and every downstream sort/groupby reduce
    # (see pipelines.queries.clean_read_schema). Forcing one file's
    # schema onto a heterogeneous multi-file read would break reader
    # unification, so beyond a single file the schema is only passed
    # when every probed footer agrees — and only up to a bounded file
    # count (a 10^5-file lake read must not pay O(files) driver-side
    # footer fetches for a log-hygiene optimization).
    if "schema" not in kw:
        from silk_ray.pipelines.queries import clean_read_schema

        probes = [paths] if isinstance(paths, (str, bytes)) else list(paths)
        files: list[str] = []
        for p in probes:
            if os.path.isdir(p):
                files.extend(
                    os.path.join(p, f)
                    for f in sorted(os.listdir(p))
                    if not f.startswith((".", "_"))
                )
            else:
                files.append(p)
        if 1 <= len(files) <= 16:
            schemas = [clean_read_schema(f, columns) for f in files]
            if schemas[0] is not None and all(s == schemas[0] for s in schemas):
                kw["schema"] = schemas[0]
    return rd.read_parquet(paths, columns=columns, **kw)


def _read_csv(paths, columns=None, separator: str | None = None, **kw):
    """CsvSource: ``separator`` is a single character, or ``"auto"``
    for the reference's entropy-based detection over the first file
    (CsvSeparatorDetector.scala — lowest field-count entropy among
    ``, \\t ; | ^ #`` with leading junk lines skipped)."""
    import ray.data as rd

    detected = separator in ("auto", "autodetect")
    if detected:
        from silk_ray.sources.bulk import detect_separator

        probe = paths if isinstance(paths, (str, bytes)) else paths[0]
        if os.path.isdir(probe):
            cand = sorted(f for f in os.listdir(probe) if not f.startswith((".", "_")))
            probe = os.path.join(probe, cand[0]) if cand else None
        separator, skip = detect_separator(probe) if probe else (",", 0)
        if skip:
            from pyarrow import csv as pacsv

            # MERGE into caller-supplied options — the caller asked for
            # detection, so the detected junk-line skip must not be
            # silently discarded by a setdefault
            ro = copy.copy(kw.get("read_options") or pacsv.ReadOptions())
            ro.skip_rows = skip
            kw["read_options"] = ro
    if detected and (separator != "," or "parse_options" in kw):
        from pyarrow import csv as pacsv

        # separator="auto" wins over any delimiter inside caller
        # parse_options (they asked for detection)
        po = copy.copy(kw.get("parse_options") or pacsv.ParseOptions())
        po.delimiter = separator
        kw["parse_options"] = po
    elif separator and separator not in (",",):
        from pyarrow import csv as pacsv

        kw.setdefault("parse_options", pacsv.ParseOptions(delimiter=separator))
    ds = rd.read_csv(paths, **kw)
    return ds.select_columns(columns) if columns else ds


def _read_json(paths, columns=None, **kw):
    import ray.data as rd

    ds = rd.read_json(paths, **kw)
    return ds.select_columns(columns) if columns else ds


def _read_text_files(paths, columns=None, **kw):
    """Whole-file-as-one-value (TextFileSource.scala semantics)."""
    import ray.data as rd

    ds = rd.read_binary_files(paths, include_paths=True)

    def decode(batch: pa.Table) -> pa.Table:
        texts = [b.decode("utf-8", "replace") for b in batch["bytes"].to_pylist()]
        return pa.table({"path": batch["path"], "text": pa.array(texts, pa.string())})

    return ds.map_batches(decode, batch_format="pyarrow")


def _read_lines(paths, columns=None, **kw):
    import ray.data as rd

    return rd.read_text(paths, **kw)


def _read_xml(paths, columns=None, base_path: str = "", multi_valued: bool = False, **kw):
    """XmlSource (XmlSourceStreaming.scala:24-130 semantics, flat-table
    re-expression): ``base_path`` ("/Root/Entity" or "Entity") selects
    the entity elements; each becomes one row with a column per
    attribute (``@name``) and per child tag (text). Repeated child tags
    produce a ``list<string>`` column with ``multi_valued=True``, else
    the first occurrence. Parsing runs distributed in ``map_batches``
    over ``read_binary_files`` — one task per file batch."""
    import ray.data as rd

    ds = rd.read_binary_files(paths, include_paths=True)
    parts = [p for p in base_path.strip("/").split("/") if p]

    def parse(batch: pa.Table) -> pa.Table:
        import xml.etree.ElementTree as ET

        rows: list[dict] = []
        for path, blob in zip(batch["path"].to_pylist(), batch["bytes"].to_pylist()):
            root = ET.fromstring(blob)
            # base path: absolute from below the root element
            nodes = [root]
            for tag in parts[1:] if parts and root.tag == parts[0] else parts:
                nodes = [c for n in nodes for c in n if c.tag == tag]
            for node in nodes:
                row: dict = {"_file": path}
                for k, v in node.attrib.items():
                    row[f"@{k}"] = v
                for child in node:
                    text = (child.text or "").strip()
                    if multi_valued:
                        row.setdefault(child.tag, []).append(text)
                    elif child.tag not in row:
                        row[child.tag] = text
                if not list(node) and (node.text or "").strip():
                    row["#text"] = node.text.strip()
                rows.append(row)
        names = sorted({k for r in rows for k in r}) or ["_file"]
        cols = {}
        for name in names:
            vals = [r.get(name) for r in rows]
            # '#text' stays single-valued: pa.array would otherwise
            # silently explode the plain string into a char list under
            # the list<string> type
            typ = pa.list_(pa.string()) if multi_valued and name not in ("_file", "#text") and not name.startswith("@") else pa.string()
            cols[name] = pa.array(vals, typ)
        return pa.table(cols)

    out = ds.map_batches(parse, batch_format="pyarrow")
    return out.select_columns(columns) if columns else out


def _read_ntriples(paths, columns=None, **kw):
    from silk_ray.sources.rdf import read_ntriples

    return read_ntriples(paths, columns=columns, **kw)


def _read_xml_streaming(paths, columns=None, **kw):
    from silk_ray.sources.streaming import read_xml_streaming

    return read_xml_streaming(paths, columns=columns, **kw)


def _read_json_streaming(paths, columns=None, **kw):
    from silk_ray.sources.streaming import read_json_streaming

    return read_json_streaming(paths, columns=columns, **kw)


DATASET_FORMATS = {
    "parquet": _read_parquet,
    "csv": _read_csv,
    "json": _read_json,
    "text_files": _read_text_files,
    "lines": _read_lines,
    "xml": _read_xml,
    # pull-parser variants for documents larger than worker memory
    # (XmlSourceStreaming.scala / JsonSourceStreaming.scala): same row
    # semantics as "xml"/"json", memory bounded by one record
    "xml_stream": _read_xml_streaming,
    "json_stream": _read_json_streaming,
    "ntriples": _read_ntriples,
    # reference plugin-id aliases (TextFileDataset.scala id="text",
    # RdfFileDataset.scala id="file")
    "text": _read_text_files,
    "file": _read_ntriples,
}


def read_dataset(paths, format: str = "parquet", columns=None, limit: int | None = None, **kw):
    """DataSource.retrieve analogue: format dispatch + projection +
    optional row limit (SafeMode/limit semantics, DataSource.scala:30-45).
    ``.zip`` paths are bulk containers (BulkResourceBasedDataset.scala:24):
    extracted once into a content-keyed cache and read as directories."""
    from silk_ray.sources.bulk import expand_containers

    ds = DATASET_FORMATS[format](expand_containers(paths), columns=columns, **kw)
    if limit is not None:
        ds = ds.limit(limit)
    return ds


def write_links(links, path: str, format: str = "parquet"):
    """LinkSink dispatch shared by the CLI, the workflow executor and
    the LSL runner: parquet/csv/json entity formats, N-Triples
    (owl:sameAs statements) or Alignment-API XML. Returns the writer's
    part summaries when the sink produces them (rows per part)."""
    if format == "ntriples":
        from silk_ray.sources.rdf import write_links_ntriples

        return write_links_ntriples(links, path)
    if format == "alignment":
        from silk_ray.sources.rdf import write_links_alignment

        return write_links_alignment(links, path)
    return write_dataset(links, path, format)


def write_dataset(ds, path: str, format: str = "parquet", **kw):
    """EntitySink analogue (EntitySink.scala:12-50): directory of part
    files — resumable layout, never one giant file."""
    if format == "parquet":
        return ds.write_parquet(path, **kw)
    if format == "csv":
        return ds.write_csv(path, **kw)
    if format == "json":
        if "template" in kw:
            template = kw.pop("template")
            if kw:
                raise ValueError(
                    f"json template sink accepts no extra options, got {sorted(kw)}"
                )
            return _write_json_template(ds, path, template)
        return ds.write_json(path, **kw)
    if format == "xml":
        return _write_xml(ds, path, **kw)
    if format == "ntriples":
        from silk_ray.sources.rdf import write_ntriples

        return write_ntriples(ds, path, **kw)
    raise ValueError(f"unknown sink format {format!r}")


def _write_json_template(ds, path: str, template: str):
    """JsonSink with a JsonTemplate envelope (JsonTemplate.scala:13-50):
    ``template`` must contain the ``{{output}}`` placeholder exactly once
    and be valid JSON when the placeholder is replaced by ``[]``; each
    part file is ``prefix + [entity objects] + suffix`` (directory of
    parts like every other sink)."""
    import json as _json
    import os
    import uuid

    placeholder = "{{output}}"
    if template.count(placeholder) != 1:
        raise ValueError(f"template must contain {placeholder} exactly once")
    try:
        _json.loads(template.replace(placeholder, "[]"))
    except ValueError as e:
        raise ValueError("template is no valid JSON") from e
    prefix, suffix = template.split(placeholder)
    os.makedirs(path, exist_ok=True)

    def write_part(batch: pa.Table) -> pa.Table:
        rows = batch.to_pylist()
        body = prefix + _json.dumps(rows, default=str) + suffix
        part = os.path.join(path, f"part-{uuid.uuid4().hex}.json")
        tmp = part + ".tmp"
        with open(tmp, "w") as f:
            f.write(body)
        os.replace(tmp, part)
        return pa.table({"part": pa.array([part]), "rows": pa.array([batch.num_rows], pa.int64())})

    return ds.map_batches(write_part, batch_format="pyarrow").to_pandas()


def _write_xml(ds, path: str, root_tag: str = "Entities", entity_tag: str = "Entity"):
    """XmlSink (XmlSink.scala / XmlEntityWriter semantics): one XML part
    file per block, entities as ``<Entity><col>value</col>…</Entity>``;
    ``@attr`` columns become attributes. Directory-of-parts layout like
    every other sink (resumable, never one giant file)."""
    import os
    import uuid
    import xml.etree.ElementTree as ET

    os.makedirs(path, exist_ok=True)

    def write_part(batch: pa.Table) -> pa.Table:
        root = ET.Element(root_tag)
        cols = batch.column_names
        for i in range(batch.num_rows):
            ent = ET.SubElement(root, entity_tag)
            for c in cols:
                v = batch[c][i].as_py()
                if v is None:
                    continue
                if c.startswith("@"):
                    ent.set(c[1:], str(v))
                    continue
                vals = v if isinstance(v, list) else [v]
                for item in vals:
                    ET.SubElement(ent, c).text = str(item)
        fname = os.path.join(path, f"part-{uuid.uuid4().hex[:12]}.xml")
        tmp = fname + ".tmp"
        ET.ElementTree(root).write(tmp, encoding="utf-8", xml_declaration=True)
        os.replace(tmp, fname)
        return pa.table({"file": pa.array([fname]), "rows": pa.array([batch.num_rows], pa.int64())})

    return ds.map_batches(write_part, batch_format="pyarrow", batch_size=None).take_all()


def peak(ds, n: int = 10):
    """PeakDataSource: first-N preview rows."""
    return ds.take(n)


def sample_entities(ds, fraction: float, seed: int = 42):
    """SamplingDataSource / SampleUtil reservoir sampling analogue."""
    return ds.random_sample(fraction, seed=seed)


def retrieve_by_uri(ds, uri_col: str, uris):
    """DataSource.retrieveByUri: broadcast key-set semi-filter."""
    import ray

    ref = ray.put(set(uris))

    def fn(batch: pa.Table) -> pa.Table:
        keys = ray.get(ref)
        mask = [u in keys for u in batch[uri_col].to_pylist()]
        return batch.filter(pa.array(mask, pa.bool_()))

    return ds.map_batches(fn, batch_format="pyarrow")


def retrieve_types(ds, limit: int | None = None, type_col: str | None = None):
    """DataSource.retrieveTypes (DataSource.scala:46-47): best-effort
    ``(type, weight)`` pairs, most frequent first; weight = relative row
    frequency. Triple tables count ``rdf:type`` objects; flat tables
    count distinct values of ``type_col`` (no type column → empty, the
    trait's documented default)."""
    import pyarrow.compute as pc

    cols = ds.columns()
    if type_col is None and {"subject", "predicate", "object"} <= set(cols):
        from silk_ray.sources.rdf import RDF_TYPE

        def type_rows(batch: pa.Table) -> pa.Table:
            t = batch.filter(pc.equal(batch["predicate"], RDF_TYPE))
            return pa.table({"type": t["object"]})

        counted = ds.map_batches(type_rows, batch_format="pyarrow")
    elif type_col is not None:
        counted = ds.select_columns([type_col]).rename_columns({type_col: "type"})
    else:
        return []
    from ray.data.aggregate import Count

    out = counted.groupby("type").aggregate(Count(alias_name="n")).to_pandas()
    if out.empty:
        return []
    total = out["n"].sum()
    out = out.sort_values(["n", "type"], ascending=[False, True])
    if limit is not None:
        out = out.head(limit)
    return [(t, n / total) for t, n in zip(out["type"], out["n"])]


def retrieve_paths(ds, limit: int = 50):
    """DataSource.retrievePaths: columns ranked by non-null frequency
    (the flat-table analogue of most-frequent property paths,
    DataSource.scala:46-64)."""
    import pyarrow.compute as pc

    def count_batch(batch: pa.Table) -> pa.Table:
        names, counts = [], []
        for name in batch.column_names:
            names.append(name)
            counts.append(batch.num_rows - batch[name].null_count)
        return pa.table({"path": pa.array(names), "n": pa.array(counts, pa.int64())})

    from ray.data.aggregate import Sum

    out = (
        ds.map_batches(count_batch, batch_format="pyarrow")
        .groupby("path")
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()
    )
    return out.sort_values(["n", "path"], ascending=[False, True]).head(limit).reset_index(drop=True)
