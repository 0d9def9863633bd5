"""Source/sink registry round-trips (SURVEY.md §2.1 inventory)."""

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from silk_ray.sources import (
    peak,
    read_dataset,
    retrieve_by_uri,
    retrieve_paths,
    sample_entities,
    write_dataset,
)


@pytest.fixture(scope="module")
def table(tmp_path_factory):
    t = pa.table(
        {
            "uri": [f"u{i}" for i in range(100)],
            "name": [f"name-{i}" for i in range(100)],
            "val": list(range(100)),
        }
    )
    d = tmp_path_factory.mktemp("src")
    pq.write_table(t, os.path.join(d, "data.parquet"))
    return t, str(d)


def test_parquet_roundtrip(ray_session, table, tmp_path):
    t, d = table
    ds = read_dataset(os.path.join(d, "data.parquet"), "parquet", columns=["uri", "val"])
    assert ds.count() == 100
    assert set(ds.schema().names) == {"uri", "val"}
    out = str(tmp_path / "out")
    write_dataset(ds, out, "parquet")
    back = read_dataset(out, "parquet")
    assert back.count() == 100


def test_csv_json_sinks(ray_session, table, tmp_path):
    t, d = table
    ds = read_dataset(os.path.join(d, "data.parquet"), "parquet")
    csv_dir = str(tmp_path / "csv")
    write_dataset(ds, csv_dir, "csv")
    back = read_dataset(csv_dir, "csv", columns=["uri", "name"])
    assert back.count() == 100
    json_dir = str(tmp_path / "json")
    write_dataset(ds, json_dir, "json")
    assert read_dataset(json_dir, "json").count() == 100


def test_text_files_whole_file(ray_session, tmp_path):
    for i in range(3):
        (tmp_path / f"f{i}.txt").write_text(f"file {i} contents\nline two")
    ds = read_dataset(str(tmp_path), "text_files")
    rows = ds.take_all()
    assert len(rows) == 3
    assert any("file 1 contents" in r["text"] for r in rows)


def test_limit_peak_sample(ray_session, table):
    _t, d = table
    ds = read_dataset(os.path.join(d, "data.parquet"), "parquet", limit=7)
    assert ds.count() == 7
    full = read_dataset(os.path.join(d, "data.parquet"), "parquet")
    assert len(peak(full, 3)) == 3
    s = sample_entities(full, 0.3, seed=1)
    assert 10 <= s.count() <= 60


def test_retrieve_by_uri(ray_session, table):
    _t, d = table
    ds = read_dataset(os.path.join(d, "data.parquet"), "parquet")
    out = retrieve_by_uri(ds, "uri", {"u3", "u7", "u99"}).to_pandas()
    assert sorted(out.uri) == ["u3", "u7", "u99"]


def test_retrieve_paths(ray_session, table):
    _t, d = table
    ds = read_dataset(os.path.join(d, "data.parquet"), "parquet")
    out = retrieve_paths(ds)
    assert set(out.path) == {"uri", "name", "val"}
    assert (out.n == 100).all()


def test_xml_source_and_sink(tmp_path):
    # XmlSourceStreaming.scala semantics: base path selects entity
    # nodes; attributes -> @cols, child tags -> text columns.
    xml = """<?xml version="1.0"?>
<Persons>
  <Person id="p1"><Name>Ada</Name><Phone>1</Phone><Phone>2</Phone></Person>
  <Person id="p2"><Name>Bob</Name></Person>
</Persons>"""
    src = tmp_path / "persons.xml"
    src.write_text(xml)
    from silk_ray.sources.registry import read_dataset, write_dataset

    ds = read_dataset(str(src), "xml", base_path="/Persons/Person")
    df = ds.to_pandas().sort_values("@id").reset_index(drop=True)
    assert list(df["@id"]) == ["p1", "p2"]
    assert list(df["Name"]) == ["Ada", "Bob"]
    assert df["Phone"][0] == "1"  # first occurrence in single-valued mode

    multi = read_dataset(str(src), "xml", base_path="/Persons/Person", multi_valued=True)
    mrows = sorted(multi.take_all(), key=lambda r: r["@id"])
    assert list(mrows[0]["Phone"]) == ["1", "2"]

    # leaf-text entities keep '#text' as a whole string in multi_valued
    # mode (regression: list<string> typing exploded it into chars)
    leaf = tmp_path / "tags.xml"
    leaf.write_text('<Tags><Tag lang="en">sometext</Tag></Tags>')
    trows = read_dataset(str(leaf), "xml", base_path="/Tags/Tag", multi_valued=True).take_all()
    assert trows[0]["#text"] == "sometext"

    # sink roundtrip
    out_dir = tmp_path / "out"
    parts = write_dataset(ds.drop_columns(["_file"]), str(out_dir), "xml")
    assert sum(p["rows"] for p in parts) == 2
    back = read_dataset(str(out_dir), "xml", base_path="/Entities/Entity")
    bdf = back.to_pandas().sort_values("@id").reset_index(drop=True)
    assert list(bdf["Name"]) == ["Ada", "Bob"]


def test_ntriples_source_entities_and_sinks(ray_session, tmp_path):
    # RdfFileDataset.scala:24-121 (N-Triples read/write, graph param);
    # NTriplesLinkFormatter.scala:23-29 (link + literal statements);
    # entity pivot = EntityRetriever-per-path over groupby(subject).
    nt = "\n".join(
        [
            "# names graph",
            '<http://ex/a> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/Person> .',
            '<http://ex/a> <http://ex/name> "Ada \\"the first\\"" .',
            '<http://ex/a> <http://ex/phone> "1" .',
            '<http://ex/a> <http://ex/phone> "2" .',
            '<http://ex/b> <http://ex/name> "Bob"@en .',
            '_:blank1 <http://ex/name> "anon" .',
            '<http://ex/a> <http://ex/knows> <http://ex/b> .',
        ]
    )
    src = tmp_path / "data.nt"
    src.write_text(nt + "\n")
    from silk_ray.sources.rdf import entities_from_triples, read_ntriples, write_links_ntriples
    from silk_ray.sources.registry import read_dataset, write_dataset

    triples = read_ntriples(str(src))
    rows = triples.take_all()
    assert len(rows) == 7
    by_obj = {r["object"]: r for r in rows}
    assert by_obj['Ada "the first"']["kind"] == "literal"
    assert by_obj["Bob"]["lang"] == "en"
    assert by_obj["anon"]["subject"] == "_:blank1"
    assert by_obj["http://ex/b"]["kind"] == "uri"

    # entity pivot with explicit paths + type restriction
    ents = entities_from_triples(
        triples, paths=["http://ex/name", "http://ex/phone"], type_uri="http://ex/Person"
    ).take_all()
    assert len(ents) == 1
    assert ents[0]["uri"] == "http://ex/a"
    assert list(ents[0]["http://ex/phone"]) == ["1", "2"]

    # discovered-path pivot, no restriction: 3 subjects
    all_ents = entities_from_triples(triples).take_all()
    assert {e["uri"] for e in all_ents} == {"http://ex/a", "http://ex/b", "_:blank1"}

    # entity sink roundtrip (literal + uri columns, multi-valued list)
    ds = read_dataset(str(src), "ntriples")
    ents_ds = entities_from_triples(ds, paths=["http://ex/name", "http://ex/knows"])
    out = tmp_path / "out_nt"
    parts = write_dataset(ents_ds, str(out), "ntriples", uri_cols={"http://ex/knows"})
    assert sum(p["rows"] for p in parts) == 4  # 3 names + 1 knows
    back = read_ntriples(str(out)).take_all()
    kinds = {(r["object"], r["kind"]) for r in back}
    assert ("http://ex/b", "uri") in kinds
    assert ('Ada "the first"', "literal") in kinds

    # link sink (owl:sameAs)
    import ray.data as rd

    links = rd.from_items([{"source": "http://ex/a", "target": "http://ex/b"}])
    out2 = tmp_path / "links_nt"
    write_links_ntriples(links, str(out2))
    lback = read_ntriples(str(out2)).take_all()
    assert lback[0]["predicate"] == "http://www.w3.org/2002/07/owl#sameAs"
    assert lback[0]["kind"] == "uri"


def test_nquads_graph_filter(ray_session, tmp_path):
    nq = "\n".join(
        [
            '<http://ex/a> <http://ex/p> "1" <http://ex/g1> .',
            '<http://ex/b> <http://ex/p> "2" <http://ex/g2> .',
            '<http://ex/c> <http://ex/p> "3" .',
        ]
    )
    src = tmp_path / "data.nq"
    src.write_text(nq + "\n")
    from silk_ray.sources.rdf import read_ntriples

    all_rows = read_ntriples(str(src)).take_all()
    assert {r["graph"] for r in all_rows} == {"http://ex/g1", "http://ex/g2", None}
    g1 = read_ntriples(str(src), graph="http://ex/g1").take_all()
    assert [r["subject"] for r in g1] == ["http://ex/a"]
    with pytest.raises(ValueError):
        read_ntriples(str(src), format="Turtle")


def test_alignment_sink(ray_session, tmp_path):
    # AlignmentLinkFormatter.scala:5-33: Alignment-API XML cells,
    # owl:sameAs printed as relation '='.
    import ray.data as rd

    from silk_ray.sources.rdf import write_links_alignment

    links = rd.from_items(
        [
            {"source": "http://ex/a", "target": "http://ex/b", "confidence": 0.9},
            {"source": "http://ex/c", "target": "http://ex/d", "confidence": 1.0},
        ]
    )
    out = tmp_path / "alignment"
    parts = write_links_alignment(links, str(out))
    assert sum(p["rows"] for p in parts) == 2
    import xml.etree.ElementTree as ET
    import os as _os

    cells = []
    for f in _os.listdir(out):
        root = ET.parse(out / f).getroot()
        ns = {"a": "http://knowledgeweb.semanticweb.org/heterogeneity/alignment#",
              "rdf": "http://www.w3.org/1999/02/22-rdf-syntax-ns#"}
        for cell in root.findall(".//a:Cell", ns):
            e1 = cell.find("a:entity1", ns).get("{http://www.w3.org/1999/02/22-rdf-syntax-ns#}resource")
            rel = cell.find("a:relation", ns).text
            measure = float(cell.find("a:measure", ns).text)
            cells.append((e1, rel, measure))
    assert sorted(cells) == [("http://ex/a", "=", 0.9), ("http://ex/c", "=", 1.0)]


def test_parse_json_column(ray_session):
    """JsonParserOperator semantics: a JSON document column explodes
    into child entities under basePath, parent id carried through."""
    import ray.data as rd

    from silk_ray.sources.parsers import parse_json_column

    ds = rd.from_items(
        [
            {"id": "d1", "body": '{"Persons": {"Person": [{"Name": "Ada", "Age": 36}, {"Name": "Bob", "Tags": ["x", "y"]}]}}'},
            {"id": "d2", "body": '{"Persons": {"Person": {"Name": "Cid"}}}'},
            {"id": "d3", "body": "not json"},
        ]
    )
    out = parse_json_column(ds, "body", "/Persons/Person", parent_col="id").to_pandas()
    out = out.sort_values("Name").reset_index(drop=True)
    assert list(out.Name) == ["Ada", "Bob", "Cid"]
    assert list(out._parent) == ["d1", "d1", "d2"]
    assert out.Age.iloc[0] == "36"
    assert out.Tags.iloc[1] == '["x", "y"]'  # nested re-serialized


def test_parse_xml_column(ray_session):
    import ray.data as rd

    from silk_ray.sources.parsers import parse_xml_column

    ds = rd.from_items(
        [
            {"id": "d1", "body": '<Persons><Person id="p1"><Name>Ada</Name></Person><Person id="p2"><Name>Bob</Name></Person></Persons>'},
            {"id": "d2", "body": "<broken"},
        ]
    )
    out = parse_xml_column(ds, "body", "/Persons/Person", parent_col="id").to_pandas()
    out = out.sort_values("@id").reset_index(drop=True)
    assert list(out["Name"]) == ["Ada", "Bob"]
    assert list(out["_parent"]) == ["d1", "d1"]


def test_retrieve_types_triples(ray_session, tmp_path):
    import ray.data as rd

    from silk_ray.sources.registry import retrieve_types

    triples = rd.from_items(
        [
            {"subject": "a", "predicate": "http://www.w3.org/1999/02/22-rdf-syntax-ns#type", "object": "T1"},
            {"subject": "b", "predicate": "http://www.w3.org/1999/02/22-rdf-syntax-ns#type", "object": "T1"},
            {"subject": "c", "predicate": "http://www.w3.org/1999/02/22-rdf-syntax-ns#type", "object": "T2"},
            {"subject": "a", "predicate": "other", "object": "x"},
        ]
    )
    out = retrieve_types(triples)
    assert out[0] == ("T1", 2 / 3)
    assert out[1] == ("T2", 1 / 3)
    assert retrieve_types(triples, limit=1) == [("T1", 2 / 3)]


def test_retrieve_types_flat(ray_session):
    import ray.data as rd

    from silk_ray.sources.registry import retrieve_types

    ds = rd.from_items([{"k": 1, "cls": "x"}, {"k": 2, "cls": "x"}, {"k": 3, "cls": "y"}])
    out = retrieve_types(ds, type_col="cls")
    assert out == [("x", 2 / 3), ("y", 1 / 3)]
    assert retrieve_types(ds) == []  # no type column: best-effort empty


def test_write_json_template(ray_session, tmp_path):
    import glob
    import json

    import ray.data as rd

    from silk_ray.sources.registry import write_dataset

    ds = rd.from_items([{"name": "Ada"}, {"name": "Bob"}]).repartition(1)
    out_dir = str(tmp_path / "out")
    parts = write_dataset(ds, out_dir, format="json", template='{"persons":{{output}}}')
    assert parts["rows"].sum() == 2
    docs = [json.load(open(f)) for f in glob.glob(out_dir + "/part-*.json")]
    names = sorted(p["name"] for d in docs for p in d["persons"])
    assert names == ["Ada", "Bob"]

    import pytest

    with pytest.raises(ValueError):
        write_dataset(ds, out_dir, format="json", template='{"persons":[]}')
    with pytest.raises(ValueError):
        write_dataset(ds, out_dir, format="json", template='nope {{output}}')


# ---------------------------------------------------------------------------
# streaming XML / JSON (sources/streaming.py)
# ---------------------------------------------------------------------------


def _write_xml_file(path, n=25, root="Persons", tag="Person"):
    with open(path, "w") as f:
        f.write(f"<{root}>\n")
        for i in range(n):
            f.write(
                f'  <{tag} id="{i}"><Name>N{i}</Name><Name>alias{i}</Name>'
                f"<City>C{i % 5}</City></{tag}>\n"
            )
        f.write(f"</{root}>\n")
    return path


def test_xml_streaming_matches_in_memory(ray_session, tmp_path):
    """xml_stream must produce row-identical output to the DOM-based
    xml reader on the same file (XmlSourceStreaming.scala parity:
    streaming is a memory strategy, not a semantics change)."""
    from silk_ray.sources.registry import read_dataset

    p = _write_xml_file(str(tmp_path / "people.xml"))
    for mv in (False, True):
        mem = read_dataset(p, format="xml", base_path="Persons/Person", multi_valued=mv)
        stream = read_dataset(p, format="xml_stream", base_path="Persons/Person", multi_valued=mv)
        a = mem.to_pandas().sort_values("@id").reset_index(drop=True)
        b = stream.to_pandas().sort_values("@id").reset_index(drop=True)
        assert sorted(a.columns) == sorted(b.columns), mv
        assert a[sorted(a.columns)].astype(str).equals(b[sorted(b.columns)].astype(str)), mv


def test_xml_streaming_yields_bounded_batches(ray_session, tmp_path):
    """batch_size bounds each yielded block: one 200-record file with
    batch_size=32 must flow as ceil(200/32) tables, not one."""
    from silk_ray.sources.streaming import (
        iter_xml_batches,
        iter_xml_records,
        read_xml_streaming,
    )

    p = _write_xml_file(str(tmp_path / "big.xml"), n=200)
    rows = list(iter_xml_records(p, "Persons/Person"))
    assert len(rows) == 200
    # the parse-side generator bounds its batches (Ray's block builder
    # may coalesce downstream — that is block sizing, not parser memory)
    sizes = [t.num_rows for t in iter_xml_batches(p, "Persons/Person", batch_size=32)]
    assert sum(sizes) == 200
    assert max(sizes) <= 32 and len(sizes) == 7
    ds = read_xml_streaming(p, base_path="Persons/Person", batch_size=32)
    assert ds.count() == 200


def test_xml_streaming_base_path_variants(ray_session, tmp_path):
    """Root-relative base_path and deep paths resolve like the DOM
    reader; empty base_path selects the root element itself."""
    from silk_ray.sources.registry import read_dataset

    p = str(tmp_path / "nested.xml")
    with open(p, "w") as f:
        f.write(
            "<Root><Group><Item k='a'><V>1</V></Item></Group>"
            "<Group><Item k='b'><V>2</V></Item></Group></Root>"
        )
    for bp in ("Root/Group/Item", "Group/Item"):
        got = read_dataset(p, format="xml_stream", base_path=bp).to_pandas()
        assert sorted(got["@k"]) == ["a", "b"], bp
    mem = read_dataset(p, format="xml", base_path="Group/Item").to_pandas()
    assert sorted(mem["@k"]) == ["a", "b"]


def test_json_streaming_three_shapes(ray_session, tmp_path):
    """Array-of-objects, NDJSON, and concatenated objects all stream;
    the array shape matches the in-memory json reader row for row."""
    import json as _json

    from silk_ray.sources.registry import read_dataset

    recs = [{"id": i, "name": f"n{i}", "score": i * 1.5} for i in range(40)]
    arr = str(tmp_path / "arr.json")
    with open(arr, "w") as f:
        _json.dump(recs, f)
    nd = str(tmp_path / "nd.json")
    with open(nd, "w") as f:
        f.writelines(_json.dumps(r) + "\n" for r in recs)
    concat = str(tmp_path / "cat.json")
    with open(concat, "w") as f:
        f.write(" ".join(_json.dumps(r) for r in recs))
    expected = (
        read_dataset(arr, format="json").to_pandas().sort_values("id").reset_index(drop=True)
    )
    for p in (arr, nd, concat):
        got = (
            read_dataset(p, format="json_stream")
            .to_pandas()
            .sort_values("id")
            .reset_index(drop=True)
        )
        assert got[["id", "name", "score"]].equals(expected[["id", "name", "score"]]), p


def test_json_streaming_value_spans_chunks(tmp_path):
    """A record larger than the read chunk must still parse (the
    buffer grows to exactly one record + one chunk)."""
    import json as _json

    from silk_ray.sources.streaming import iter_json_records

    big = {"id": 1, "blob": "x" * 5000}
    p = str(tmp_path / "big.json")
    with open(p, "w") as f:
        _json.dump([big, {"id": 2, "blob": "y"}], f)
    got = list(iter_json_records(p, chunk_size=256))
    assert got[0] == big and got[1]["id"] == 2
    # truncated file fails loudly, not silently
    with open(p, "w") as f:
        f.write('[{"id": 1, "blob": "unterminated')
    import pytest as _pytest

    with _pytest.raises(ValueError, match="truncated"):
        list(iter_json_records(p, chunk_size=8))


def test_csv_separator_autodetect(ray_session, tmp_path):
    """Entropy-based separator detection (CsvSeparatorDetector.scala):
    each of the candidate separators is detected from content alone,
    leading junk lines are skipped, and an undetectable file falls
    back to comma."""
    from silk_ray.sources.bulk import detect_separator
    from silk_ray.sources.registry import read_dataset

    for sep, name in [(";", "semi"), ("\t", "tab"), ("|", "pipe"), (",", "comma")]:
        p = str(tmp_path / f"{name}.csv")
        with open(p, "w") as f:
            f.write(sep.join(["a", "b", "c"]) + "\n")
            for i in range(20):
                f.write(sep.join([f"x{i}", str(i), f"z{i % 3}"]) + "\n")
        got_sep, skip = detect_separator(p)
        assert got_sep == sep and skip == 0, name
        df = read_dataset(p, format="csv", separator="auto").to_pandas()
        assert list(df.columns) == ["a", "b", "c"] and len(df) == 20, name
    # leading junk lines: detected and skipped
    # enough body lines that one junk line keeps the field-count
    # entropy under the 0.1 bar (the reference's ratio: at most ~6
    # deviant lines per 100)
    p = str(tmp_path / "junk.csv")
    with open(p, "w") as f:
        f.write("# comment header\n")
        f.write("a;b;c\n")
        for i in range(90):
            f.write(f"x{i};{i};z\n")
    got_sep, skip = detect_separator(p)
    assert got_sep == ";" and skip == 1
    # undetectable (one column, no separators) -> comma default
    p2 = str(tmp_path / "plain.csv")
    with open(p2, "w") as f:
        f.write("value\n1\n2\n")
    assert detect_separator(p2) == (",", 0)


def test_zip_bulk_container_reads(ray_session, tmp_path):
    """BulkResourceBasedDataset semantics: a zip of files reads as the
    concatenated source for any format; extraction is cached and
    zip-slip member names are refused."""
    import zipfile

    import pytest as _pytest

    from silk_ray.sources.bulk import materialize_zip
    from silk_ray.sources.registry import read_dataset

    d = tmp_path / "parts"
    d.mkdir()
    for i in range(3):
        with open(d / f"part{i}.csv", "w") as f:
            f.write("k,v\n")
            for j in range(5):
                f.write(f"{i}-{j},{i * 10 + j}\n")
    zp = str(tmp_path / "bundle.zip")
    with zipfile.ZipFile(zp, "w") as z:
        for i in range(3):
            z.write(d / f"part{i}.csv", f"part{i}.csv")
    df = read_dataset(zp, format="csv").to_pandas()
    assert len(df) == 15 and set(df.columns) == {"k", "v"}
    # cache: second materialize returns the same dir without re-extract
    assert materialize_zip(zp) == materialize_zip(zp)
    # zip-slip refused loudly
    evil = str(tmp_path / "evil.zip")
    with zipfile.ZipFile(evil, "w") as z:
        z.writestr("../escape.txt", "nope")
    with _pytest.raises(ValueError, match="unsafe zip member"):
        materialize_zip(evil)


def test_json_streaming_concatenated_arrays(tmp_path):
    """Uniform top-level-array rule: EVERY top-level '[' is a wrapper
    whose elements are records, not just the first one — so
    concatenated / NDJSON arrays all flatten (previously the second
    array became one list-valued record)."""
    from silk_ray.sources.streaming import iter_json_records

    p = str(tmp_path / "arrs.json")
    with open(p, "w") as f:
        f.write("[1,2]\n[3,4]")
    assert list(iter_json_records(p, chunk_size=4)) == [1, 2, 3, 4]
    # arrays mixed with bare values stay uniform too
    p2 = str(tmp_path / "mixed.json")
    with open(p2, "w") as f:
        f.write('[1,2] 5 [3,4] {"a": 6}')
    assert list(iter_json_records(p2, chunk_size=4)) == [1, 2, 5, 3, 4, {"a": 6}]
    # nested arrays inside a wrapper remain single records
    p3 = str(tmp_path / "nested.json")
    with open(p3, "w") as f:
        f.write("[[1,2],[3,4]]")
    assert list(iter_json_records(p3, chunk_size=4)) == [[1, 2], [3, 4]]


def test_csv_autodetect_merges_caller_options(ray_session, tmp_path):
    """separator='auto' combined with caller-supplied arrow options
    must MERGE the detected delimiter / junk-line skip into them, not
    silently drop the detection (the old setdefault bug)."""
    from pyarrow import csv as pacsv

    from silk_ray.sources.registry import read_dataset

    p = str(tmp_path / "auto.csv")
    with open(p, "w") as f:
        f.write("# leading junk line\n")
        f.write("a;b;c\n")
        for i in range(90):
            f.write(f"x{i};{i};z\n")
    # caller supplies read_options (without skip_rows) AND a wrong
    # delimiter in parse_options; detection must win on both fronts
    ro = pacsv.ReadOptions(block_size=1 << 20)
    po = pacsv.ParseOptions(delimiter="\t")
    df = read_dataset(
        p, format="csv", separator="auto", read_options=ro, parse_options=po
    ).to_pandas()
    assert list(df.columns) == ["a", "b", "c"]
    assert len(df) == 90
    # ...on copies: the caller's option objects stay as they were
    assert (ro.skip_rows, ro.block_size) == (0, 1 << 20)
    assert po.delimiter == "\t"


def test_zip_extraction_atomic_publish(tmp_path):
    """materialize_zip publishes via tmp-dir + atomic rename: a caller
    that loses the rename race (cache dir already complete) returns the
    winner's directory and leaves no tmp litter behind."""
    import zipfile

    from silk_ray.sources import bulk

    zp = str(tmp_path / "bundle.zip")
    with zipfile.ZipFile(zp, "w") as z:
        z.writestr("one.csv", "k,v\n1,2\n")
    out = bulk.materialize_zip(zp)
    assert os.path.isdir(out) and sorted(os.listdir(out)) == ["one.csv"]
    # simulate the lost race: done marker missing but the directory is
    # already published by the "winner" — the loser must not tear it
    os.remove(f"{out}.done")
    before = open(os.path.join(out, "one.csv")).read()
    out2 = bulk.materialize_zip(zp)
    assert out2 == out
    assert open(os.path.join(out, "one.csv")).read() == before
    assert os.path.exists(f"{out}.done")
    cache = os.path.dirname(out)
    assert not [d for d in os.listdir(cache) if ".tmp-" in d]


def test_parquet_dir_heterogeneous_schema_not_forced(ray_session, tmp_path):
    """Multi-file reads must not force the first file's footer schema
    onto schema-evolved siblings (ADVICE r4): a directory whose second
    file adds a column reads fine with reader-side unification, and a
    projection naming a column absent from a footer must not raise at
    plan construction."""
    import pandas as pd

    from silk_ray.pipelines.queries import clean_read_schema
    from silk_ray.sources.registry import read_dataset

    d = tmp_path / "evolved"
    d.mkdir()
    pq.write_table(pa.table({"a": [1, 2]}), str(d / "f0.parquet"))
    # second file: extra column + pandas metadata blob in the footer
    pd.DataFrame({"a": [3, 4], "b": ["x", "y"]}).to_parquet(str(d / "f1.parquet"))
    df = read_dataset(str(d), format="parquet").to_pandas()
    assert sorted(df["a"]) == [1, 2, 3, 4]
    assert "b" in df.columns
    # missing projected column -> None (reader decides), not KeyError
    assert clean_read_schema(str(d / "f0.parquet"), columns=["a", "b"]) is None
    # homogeneous multi-file dirs still get the metadata-free schema
    d2 = tmp_path / "homog"
    d2.mkdir()
    for i in range(2):
        pd.DataFrame({"a": [i]}).to_parquet(str(d2 / f"f{i}.parquet"))
    sch = clean_read_schema(str(d2 / "f0.parquet"))
    assert sch is not None and sch.metadata is None
    assert read_dataset(str(d2), format="parquet").to_pandas()["a"].tolist() == [0, 1]
