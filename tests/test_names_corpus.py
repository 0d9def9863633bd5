"""Conformance on the reference's own names corpus
(silk-core/src/test/resources/names/: 2,000 + 2,000 single-column name
records, the GenerateLinksTest.scala:38-209 fixture, rule =
levenshteinDistance threshold 2).

MultiBlock must find EXACTLY the links the O(n²) Full oracle finds
(pairs completeness 1.0 — the property GenerateLinksTest measures).

links.nt is NOT used as ground truth: the shipped file is misaligned
with the shipped sources (verified: each row's object belongs to a
different row; e.g. s1#2000 'Vinnie erardo' truly matches s2#1774
'Vinnie Gerardo', but links.nt pairs <2000> with <1778>). The reference
never asserts against it either — GenerateLinksTest is a manual
``main()`` benchmark. On the full corpus our engine finds 446 links,
exactly the number of rows in links.nt.

The <RestrictTo> rejection test builds its config inline and runs
without the reference checkout; wherever the shipped names/config.xml
is present, it checks that file as well.
"""

import os

import pytest

NAMES = "/root/reference/silk-core/src/test/resources/names"
N = 800  # subset: keeps the O(n²) oracle a few seconds

RULE = {
    "operator": {
        "metric": "levenshteinDistance",
        "threshold": 2.0,
        "source": {"path": "label"},
        "target": {"path": "label"},
    }
}


@pytest.mark.skipif(not os.path.isdir(NAMES), reason="reference checkout not present")
def test_multiblock_equals_full_on_names_corpus(ray_session):
    import ray.data as rd

    from silk_ray.kernel.rule import rule_from_dict
    from silk_ray.linking.full import full_links
    from silk_ray.linking.pipeline import generate_links

    s1 = open(f"{NAMES}/source1.txt").read().splitlines()[:N]
    s2 = open(f"{NAMES}/source2.txt").read().splitlines()[:N]

    src = rd.from_items([{"uri": str(i + 1), "label": v} for i, v in enumerate(s1)])
    tgt = rd.from_items([{"uri": str(i + 1), "label": v} for i, v in enumerate(s2)])
    links = generate_links(src, tgt, RULE, link_limit=None).to_pandas()
    mb = {(s, t, round(c, 9)) for s, t, c in zip(links.source, links.target, links.confidence)}

    rule = rule_from_dict(RULE)
    se = [(str(i + 1), {"label": [v]}) for i, v in enumerate(s1)]
    te = [(str(i + 1), {"label": [v]}) for i, v in enumerate(s2)]
    full = {(a, b, round(c, 9)) for a, b, c in full_links(se, te, rule)}

    assert len(full) > 0
    assert mb == full  # pairs completeness AND quality = 1.0, scores equal


@pytest.mark.skipif(not os.path.isdir(NAMES), reason="reference checkout not present")
def test_execution_method_completeness_on_names_corpus(ray_session):
    """The GenerateLinksTest method matrix on real data: per-method
    pairs completeness vs the Full oracle (dup-dense tail slice).
    Bounds are the measured values minus slack — phonetic blocking is
    inherently lossy on 2-edit typos; q-gram blocking is complete here."""
    import ray.data as rd

    from silk_ray.kernel.rule import rule_from_dict
    from silk_ray.kernel.transformers import get_transformer
    from silk_ray.linking.full import full_links
    from silk_ray.linking.methods import (
        BlockingMethod,
        MultiPassBlocking,
        QGramsMethod,
        SortedBlocksMethod,
    )
    from silk_ray.linking.pipeline import generate_links

    s1 = open(f"{NAMES}/source1.txt").read().splitlines()[-N:]
    s2 = open(f"{NAMES}/source2.txt").read().splitlines()[-N:]
    se = [(str(i + 1), {"label": [v]}) for i, v in enumerate(s1)]
    te = [(str(i + 1), {"label": [v]}) for i, v in enumerate(s2)]
    full = {(a, b) for a, b, _ in full_links(se, te, rule_from_dict(RULE))}
    assert len(full) > 100

    src = rd.from_items([{"uri": str(i + 1), "label": v} for i, v in enumerate(s1)])
    tgt = rd.from_items([{"uri": str(i + 1), "label": v} for i, v in enumerate(s2)])

    def completeness(method):
        links = generate_links(src, tgt, RULE, link_limit=None, execution_method=method).to_pandas()
        found = set(zip(links.source, links.target))
        assert found <= full  # quality 1.0: blocking never invents links
        return 1 - len(full - found) / len(full)

    soundex = completeness(BlockingMethod(blocking_path="label"))
    assert soundex >= 0.5
    assert completeness(QGramsMethod(blocking_path="label", threshold=0.7)) >= 0.99
    assert completeness(SortedBlocksMethod(blocking_path="label", overlap=0.5)) >= 0.8
    # union of passes can only add candidates
    multipass = completeness(
        MultiPassBlocking(
            passes=[
                BlockingMethod(blocking_path="label"),
                BlockingMethod(blocking_path="label", transformers=[get_transformer("nysiis")]),
            ]
        )
    )
    assert multipass >= soundex


@pytest.mark.skipif(not os.path.isdir(NAMES), reason="reference checkout not present")
def test_lsl_config_runs_names_corpus(ray_session, tmp_path):
    """The reference's own Silk-LSL config file executes directly:
    ``names/config.xml`` (csv sources, levenshteinDistance θ=2) →
    exactly 446 links, the row count of the reference's links.nt."""
    from silk_ray.sources.lsl import parse_lsl_config, run_lsl_config

    cfg = parse_lsl_config(f"{NAMES}/config.xml")
    assert set(cfg["datasources"]) == {"source1", "source2"}
    il = cfg["interlinks"][0]
    assert il["rule"]["operator"]["metric"] == "levenshteinDistance"
    assert il["rule"]["operator"]["threshold"] == 2.0
    assert il["rule"]["operator"]["source"] == {"path": "label"}

    results = run_lsl_config(f"{NAMES}/config.xml", output_path=str(tmp_path / "links.nt"))
    assert results["names"]["rows"] == 446  # from the sink, no re-execution
    nt = "".join(p.read_text() for p in (tmp_path / "links.nt").glob("*.nt"))
    assert "<http://www.w3.org/2002/07/owl#sameAs>" in nt
    assert nt.count(" .") == 446


CITIES = "/root/reference/silk-core/src/test/resources/cities"


@pytest.mark.skipif(not os.path.isdir(CITIES), reason="reference checkout not present")
def test_lsl_parses_cities_config():
    """Nested rule shape: min( levenshtein, wgs84(unit=km) ) with Params
    — parse-only (the cities csv data is not shipped in the reference)."""
    from silk_ray.kernel.rule import rule_from_dict
    from silk_ray.sources.lsl import parse_lsl_config

    cfg = parse_lsl_config(f"{CITIES}/config.xml")
    op = cfg["interlinks"][0]["rule"]["operator"]
    assert op["aggregator"] == "min"
    metrics = [o["metric"] for o in op["operators"]]
    assert metrics == ["levenshteinDistance", "wgs84"]
    assert op["operators"][1]["params"] == {"unit": "km"}
    rule_from_dict(cfg["interlinks"][0]["rule"])  # compiles against the kernel


def test_lsl_path_and_filter_parsing(tmp_path):
    """Full-URI paths resolve to local names; <Filter limit> maps to the
    rule's per-source top-k; multiple interlinks all execute."""
    from silk_ray.sources.lsl import _local_path, parse_lsl_config

    assert _local_path("?a/<http://www.w3.org/2000/01/rdf-schema#label>") == "label"
    assert _local_path("?a/rdfs:label[@lang='en']") == "label"
    assert _local_path("?b/p:name") == "name"

    cfg = tmp_path / "two.xml"
    cfg.write_text("""<?xml version="1.0"?>
<Silk>
  <DataSources>
    <DataSource id="s" type="csv"><Param name="url" value="a.txt"/><Param name="properties" value="label"/></DataSource>
  </DataSources>
  <Interlinks>
    <Interlink id="one">
      <SourceDataset dataSource="s" var="a"/><TargetDataset dataSource="s" var="b"/>
      <LinkageRule><Compare metric="equality" threshold="0">
        <Input path="?a/label"/><Input path="?b/label"/></Compare></LinkageRule>
      <Filter limit="1" />
    </Interlink>
    <Interlink id="two">
      <SourceDataset dataSource="s" var="a"/><TargetDataset dataSource="s" var="b"/>
      <LinkageRule><Compare metric="equality" threshold="0">
        <Input path="?a/label"/><Input path="?b/label"/></Compare></LinkageRule>
      <Filter unambiguous="true" />
    </Interlink>
  </Interlinks>
</Silk>""")
    parsed = parse_lsl_config(str(cfg))
    assert [i["id"] for i in parsed["interlinks"]] == ["one", "two"]
    assert parsed["interlinks"][0]["rule"]["filter_limit"] == 1
    assert parsed["interlinks"][1]["rule"]["filter_unambiguous"] is True


RESTRICTED_LSL = """<?xml version="1.0"?>
<Silk>
  <DataSources>
    <DataSource id="s" type="csv"><Param name="url" value="a.txt"/><Param name="properties" value="label"/></DataSource>
  </DataSources>
  <Interlinks>
    <Interlink id="r">
      <SourceDataset dataSource="s" var="a"><RestrictTo>{source}</RestrictTo></SourceDataset>
      <TargetDataset dataSource="s" var="b"><RestrictTo>{target}</RestrictTo></TargetDataset>
      <LinkageRule><Compare metric="levenshteinDistance" threshold="2">
        <Input path="?a/label"/><Input path="?b/label"/></Compare></LinkageRule>
    </Interlink>
  </Interlinks>
</Silk>"""
PATTERN = "?a rdf:type foaf:Person ."


def test_lsl_rejects_nonempty_restrict_to(tmp_path):
    """A non-empty <RestrictTo> is a SPARQL restriction we don't
    evaluate — parsing must fail loudly, not silently change the link
    set (LinkSpecificationLanguage.md RestrictTo). Both dataset sides
    are checked; empty <RestrictTo> elements parse. Where the reference
    checkout is present, its shipped names/config.xml is checked too."""
    import pytest

    from silk_ray.sources.lsl import parse_lsl_config

    cases = {
        "source.xml": RESTRICTED_LSL.format(source=PATTERN, target=""),
        "target.xml": RESTRICTED_LSL.format(source="", target=PATTERN),
    }
    if os.path.isfile(f"{NAMES}/config.xml"):
        cases["names.xml"] = open(f"{NAMES}/config.xml").read().replace(
            "<RestrictTo></RestrictTo>", f"<RestrictTo>{PATTERN}</RestrictTo>", 1
        )
    for name, xml in cases.items():
        p = tmp_path / name
        p.write_text(xml)
        with pytest.raises(ValueError, match="RestrictTo"):
            parse_lsl_config(str(p))

    empty = tmp_path / "empty.xml"
    empty.write_text(RESTRICTED_LSL.format(source="", target=""))
    parsed = parse_lsl_config(str(empty))
    assert [i["id"] for i in parsed["interlinks"]] == ["r"]
    assert parsed["interlinks"][0]["rule"]["operator"]["metric"] == "levenshteinDistance"
