"""Training-data operators: dedup quality, text analysis, multimodal
plumbing, ANN — plus alternate execution methods."""

import pyarrow as pa
import pytest


@pytest.fixture(scope="module")
def doc_ds(ray_session):
    """Synthetic docs with planted exact + near duplicates."""
    import ray.data as rd

    base = [
        "the quick brown fox jumps over the lazy dog and runs far away today",
        "pack my box with five dozen liquor jugs before the night ends here",
        "how vexingly quick daft zebras jump over the fence in the garden",
        "sphinx of black quartz judge my vow said the old wise man slowly",
    ]
    rows = []
    doc_id = 0
    for i, b in enumerate(base):
        for rep in range(3):  # 3 exact copies each
            rows.append({"doc_id": doc_id, "text": b})
            doc_id += 1
        # one near-duplicate: a single word changed
        toks = b.split()
        toks[5] = "changed"
        rows.append({"doc_id": doc_id, "text": " ".join(toks)})
        doc_id += 1
    # unrelated docs
    for j in range(10):
        rows.append({"doc_id": doc_id, "text": f"totally unrelated document number {j} with distinct words like alpha{j} beta{j} gamma{j} delta{j} epsilon{j} zeta{j}"})
        doc_id += 1
    return rd.from_items(rows), rows


def test_exact_dedup(doc_ds):
    from silk_ray.functions.dedup import exact_dedup

    ds, rows = doc_ds
    out = exact_dedup(ds).to_pandas()
    # 4 bases + 4 near-dups + 10 unrelated = 18 distinct texts
    assert len(out) == 18
    # smallest doc_id kept per duplicate class
    assert 0 in set(out.doc_id) and 1 not in set(out.doc_id)


def test_minhash_lsh_finds_planted_near_dups(doc_ds):
    from silk_ray.functions.dedup import minhash_lsh_pairs

    ds, rows = doc_ds
    pairs = minhash_lsh_pairs(ds, jaccard_threshold=0.4).to_pandas()
    got = set(zip(pairs.left_id, pairs.right_id))
    # exact copies must pair up (jaccard 1.0)
    assert (0, 1) in got and (0, 2) in got
    # near-dup (doc 3 = base 0 with one word changed) found
    assert (0, 3) in got
    # unrelated docs never pair
    unrelated = {r["doc_id"] for r in rows if "unrelated" in r["text"]}
    assert not any(l in unrelated or r in unrelated for l, r in got)


def test_simhash_pairs(doc_ds):
    from silk_ray.functions.dedup import simhash_near_dup_pairs

    ds, _rows = doc_ds
    pairs = simhash_near_dup_pairs(ds, max_hamming=6).to_pandas()
    got = set(zip(pairs.left_id, pairs.right_id))
    assert (0, 1) in got  # exact copies: hamming 0


def test_hot_bucket_salting_identical_output(ray_session):
    """Adversarial mega-bucket: many empty docs share MinHash signature
    0 (all bands collide) and SimHash 0. Triangle salting must (a)
    trigger, (b) bound per-task group size, and (c) leave the pair set
    byte-identical to the unsalted run."""
    import ray.data as rd

    from silk_ray.functions.dedup import (
        _find_hot_buckets,
        minhash_lsh_pairs,
        simhash_near_dup_pairs,
    )

    rows = [{"doc_id": i, "text": ""} for i in range(60)]
    rows += [
        {"doc_id": 100 + j, "text": f"regular document {j} about topic alpha{j} beta{j} gamma{j}"}
        for j in range(8)
    ]
    ds = rd.from_items(rows)

    def norm(df):
        return df.sort_values(["left_id", "right_id"]).reset_index(drop=True)

    # minhash: empty docs → 60*(60-1)/2 = 1770 pairs at jaccard>=... empty
    # sketches score 0.0, so use threshold 0.0 to keep them in the output
    unsalted = norm(minhash_lsh_pairs(ds, jaccard_threshold=0.0, hot_cap=10**9).to_pandas())
    salted = norm(minhash_lsh_pairs(ds, jaccard_threshold=0.0, hot_cap=16, n_salt_max=8).to_pandas())
    assert len(unsalted) >= 1770
    assert unsalted.equals(salted)

    un_sim = norm(simhash_near_dup_pairs(ds, max_hamming=0, hot_cap=10**9).to_pandas())
    sa_sim = norm(simhash_near_dup_pairs(ds, max_hamming=0, hot_cap=16, n_salt_max=8).to_pandas())
    assert len(un_sim) >= 1770
    assert un_sim.equals(sa_sim)

    # the pre-pass actually detects the degenerate bucket and sizes salts
    band_rows = rd.from_items([{"bucket": 7, "doc_id": i} for i in range(64)])
    hot = _find_hot_buckets(band_rows, hot_cap=16, n_salt_max=8)
    assert hot == {7: 4}


def test_ngram_jaccard_exact_pairs(doc_ds):
    from silk_ray.functions.dedup import ngram_jaccard_pairs, shingles

    ds, rows = doc_ds
    pairs = ngram_jaccard_pairs(ds, threshold=0.5).to_pandas()
    got = {(l, r): j for l, r, j in zip(pairs.left_id, pairs.right_id, pairs.jaccard)}
    assert got[(0, 1)] == pytest.approx(1.0)
    # verify one reported jaccard against a direct computation
    s0 = shingles(rows[0]["text"], 3)
    s3 = shingles(rows[3]["text"], 3)
    assert got[(0, 3)] == pytest.approx(len(s0 & s3) / len(s0 | s3))


@pytest.mark.parametrize("method", ["ngram_jaccard_pairs", "minhash_lsh_pairs"])
def test_string_id_pair_stream_keeps_id_type(ray_session, monkeypatch, method):
    """Both candidate-pair callers pass the sketched dataset's id type to
    the pair dedup, so a string-id corpus gets a (string, string) pair
    schema — also where the pair stream has empty blocks (coalesced to
    four sort blocks for one pair), which the dedup types with
    ``id_type`` instead of falling back to int64."""
    import ray
    import ray.data as rd

    from silk_ray.functions import dedup

    seen = []
    real = dedup._distinct_pairs

    def spy(pairs, id_type, **kw):
        out = real(pairs, id_type, **kw)
        seen.append((id_type, out))
        return out

    monkeypatch.setattr(dedup, "_distinct_pairs", spy)
    monkeypatch.setattr(dedup, "_pair_blocks", lambda n_rows: 4)
    rows = [
        {"doc_id": f"d{j}", "text": f"unrelated document {j} alpha{j} beta{j} gamma{j} delta{j}"}
        for j in range(12)
    ] + [{"doc_id": f"x{j}", "text": "the same text twice over here"} for j in (1, 2)]
    getattr(dedup, method)(rd.from_items(rows, override_num_blocks=4)).materialize()
    (id_type, cand), = seen
    assert id_type == pa.string()
    blocks = [ray.get(r) for r in cand.materialize().get_internal_block_refs()]
    assert any(b.num_rows == 0 for b in blocks)
    pair_schema = pa.schema([("left_id", pa.string()), ("right_id", pa.string())])
    assert [b.schema for b in blocks if b.num_rows] == [pair_schema]
    assert cand.schema().base_schema == pair_schema


def test_quality_and_langid(ray_session):
    import ray.data as rd

    from silk_ray.functions.text import LangId, QualityScorer

    docs = rd.from_items(
        [
            {"doc_id": 0, "text": "The quick brown fox is a common English sentence for tests."},
            {"doc_id": 1, "text": "der schnelle braune fuchs springt über den faulen hund im wald"},
            {"doc_id": 2, "text": "!!! ??? ### $$$"},
        ]
    )
    scored = docs.map_batches(QualityScorer, batch_format="pyarrow", concurrency=1).to_pandas()
    noisy = scored[scored.doc_id == 2].iloc[0]
    clean = scored[scored.doc_id == 0].iloc[0]
    assert noisy.punct_ratio > clean.punct_ratio
    assert clean.stop_ratio > 0

    lang = docs.map_batches(LangId, batch_format="pyarrow", concurrency=1).to_pandas()
    assert lang[lang.doc_id == 0].lang_pred.iloc[0] == "en"
    assert lang[lang.doc_id == 1].lang_pred.iloc[0] == "de"


def test_bpe_token_counter(ray_session):
    import ray.data as rd

    from silk_ray.functions.text import BpeishTokenCounter

    docs = rd.from_items([{"doc_id": 0, "text": "hello world, it's 2024!"}])
    out = docs.map_batches(BpeishTokenCounter, batch_format="pyarrow", concurrency=1).to_pandas()
    assert out.n_bpe_tokens.iloc[0] >= 6


def test_multimodal_plumbing(ray_session):
    import ray.data as rd

    from silk_ray.functions.multimodal import (
        AudioFeatures,
        VideoFrameSample,
        decode_pipeline,
        synth_media_table,
    )

    media = synth_media_table(30)
    ds = rd.from_arrow(media)

    imgs = decode_pipeline(ds, size=8).to_pandas()
    # types cycle png/wav/mp4/bmp: 8 png + 7 bmp image rows in 30
    assert len(imgs) == 15
    assert all(len(p) == 64 for p in imgs.pixels)
    # deterministic stub: same payload → same pixels across runs
    imgs2 = decode_pipeline(rd.from_arrow(media), size=8).to_pandas()
    assert imgs.pixels.iloc[0] == pytest.approx(imgs2.pixels.iloc[0])

    audio = ds.map_batches(AudioFeatures, batch_format="pyarrow", concurrency=1).to_pandas()
    assert len(audio) == 8 and all(len(f) == 16 for f in audio.frame_energy)
    # synth audio rows are real WAV: the genuine stdlib decode path ran
    assert audio.decoded.all()
    # RMS of a 0.5-amplitude sine ≈ 0.354 in every full frame
    mid = [f[len(f) // 2] for f in audio.frame_energy]
    assert all(abs(v - 0.3536) < 0.05 for v in mid)

    # non-WAV audio payloads fall back to the deterministic byte fake
    from silk_ray.functions.multimodal import decode_wav

    assert decode_wav(b"not a wav at all") is None

    frames = ds.map_batches(VideoFrameSample, batch_format="pyarrow", concurrency=1).to_pandas()
    assert len(frames) == 7 * 4  # 7 video rows in the 4-type cycle


def test_execution_methods(ray_session):
    """Alternate blocking strategies produce the same verified links as
    MultiBlock on the fixture (candidate sets differ, scored links
    agree when blocking is lossless for the planted pairs)."""
    import ray.data as rd

    from silk_ray.cdc.generator import make_base_table
    from silk_ray.linking.methods import (
        BlockingMethod,
        FullMethod,
        MultiPassBlocking,
        QGramsMethod,
        SortedBlocksMethod,
    )
    from silk_ray.linking.pipeline import add_uri_column, generate_links
    from silk_ray.pipelines.rules import CONFORMANCE_RULE

    base = make_base_table(80, seed=77, near_dup_frac=0.25)
    ds = add_uri_column(rd.from_arrow(base))

    def links_with(method):
        out = generate_links(
            ds, None, CONFORMANCE_RULE, source_equals_target=True, execution_method=method
        ).to_pandas()
        return {(r.source, r.target) for r in out.itertuples()}

    full = links_with(FullMethod())
    assert full, "Full must find the planted links"
    # Full is the superset oracle: every other method ⊆ Full
    soundex_blocking = links_with(BlockingMethod(blocking_path="lang"))
    assert soundex_blocking <= full
    qg = links_with(QGramsMethod(blocking_path="path", q=2, threshold=0.5))
    assert qg <= full
    sb = links_with(SortedBlocksMethod(blocking_path="path", size=50))
    assert sb <= full
    mp = links_with(
        MultiPassBlocking(passes=[BlockingMethod(blocking_path="lang"), BlockingMethod(blocking_path="path")])
    )
    assert mp <= full
    # q-gram path blocking keeps the near-dup pairs (paths differ by <=2 chars)
    assert len(qg) >= len(full) * 0.8


def test_freetext_extractors(ray_session, tmp_path):
    import ray.data as rd

    from silk_ray.functions.freetext import (
        bag_of_words_extractor,
        dictionary_extractor,
        feature_value_pairs_extractor,
        regex_extractor,
        round_numeric_strings,
    )

    train = rd.from_items([{"label": "Python Rust"}, {"label": "Go"}])
    docs = rd.from_items(
        [
            {"id": 1, "text": "writing python daily"},
            {"id": 2, "text": "mostly java here"},
        ]
    )
    bow = bag_of_words_extractor(docs, "text", train, "label").to_pandas().sort_values("id")
    assert list(bow["extracted"]) == ["python", ""]

    fvp_train = rd.from_items([{"label": "mostly java here"}])
    fvp = feature_value_pairs_extractor(docs, "text", fvp_train, "label").to_pandas().sort_values("id")
    assert list(fvp["extracted"]) == ["", "mostly java here"]

    rex = regex_extractor(docs, "text", r"\b\w+ing\b").to_pandas().sort_values("id")
    assert list(rex["extracted"]) == ["writing", ""]

    dic = tmp_path / "dict.txt"
    dic.write_text("alpha\nbeta")
    dce = dictionary_extractor(docs, str(dic)).to_pandas()
    assert set(dce["extracted"]) == {"alpha\nbeta"}

    nums = rd.from_items([{"v": "3.6"}, {"v": "-2.2"}, {"v": "x1"}])
    rounded = round_numeric_strings(nums, "v").to_pandas()
    assert sorted(rounded["v"]) == ["-2", "4", "x1"]


def test_png_codec_roundtrip_and_filters():
    """Pure-stdlib PNG codec: filter-0 round-trip is exact, and streams
    encoded with each of the five row filters decode to the same image
    (de-filtering correctness), for gray and RGB."""
    import numpy as np

    from silk_ray.functions.multimodal import decode_png, encode_png

    rng = np.random.default_rng(3)
    gray = rng.integers(0, 256, size=(23, 17), dtype=np.uint8)
    rgb = rng.integers(0, 256, size=(11, 29, 3), dtype=np.uint8)
    for img in (gray, rgb):
        base = decode_png(encode_png(img, filter_type=0))
        assert base is not None and np.array_equal(base, img)
        for f in (1, 2, 3, 4):
            got = decode_png(encode_png(img, filter_type=f))
            assert got is not None and np.array_equal(got, img), f"filter {f}"
    # non-PNG / truncated / unsupported payloads return None, not raise
    assert decode_png(b"not a png") is None
    assert decode_png(encode_png(gray)[:30]) is None
    assert decode_png(b"\x89PNG\r\n\x1a\n" + b"\x00" * 20) is None


def test_image_decode_is_real_for_png(ray_session):
    """The decode stage output for a PNG payload equals the luma +
    nearest-neighbor downsample computed independently here — i.e. the
    pipeline ran the REAL codec, not the hash-seeded fake."""
    import numpy as np
    import ray.data as rd

    from silk_ray.functions.multimodal import (
        ImageDecodeResize,
        decode_pipeline,
        encode_png,
        synth_media_table,
    )

    size = 8
    media = synth_media_table(12)
    out = decode_pipeline(rd.from_arrow(media), size=size).to_pandas().set_index("media_id")
    rows = media.to_pylist()
    checked = 0
    for r in rows:
        if r["media_type"] != "image/png":
            continue
        from silk_ray.functions.multimodal import decode_png

        arr = decode_png(r["payload"])
        assert arr is not None
        if arr.ndim == 3:
            g = arr[..., 0] * 0.299 + arr[..., 1] * 0.587 + arr[..., 2] * 0.114
        else:
            g = arr.astype(np.float32)
        g = np.asarray(g, dtype=np.float32) / 255.0
        h, w = g.shape
        yi = np.minimum(np.arange(size) * h // size, h - 1)
        xi = np.minimum(np.arange(size) * w // size, w - 1)
        expect = g[np.ix_(yi, xi)].astype(np.float32).flatten()
        got = np.asarray(out.loc[r["media_id"], "pixels"], dtype=np.float32)
        assert np.allclose(got, expect, atol=1e-6)
        checked += 1
    assert checked == 3  # 3 png rows in a 12-row 4-type cycle


def test_png_decode_alpha_color_types():
    """Color types 4 (gray+alpha) and 6 (RGBA) decode; the resize stage
    drops alpha (luma from RGB / channel 0 for gray+alpha)."""
    import struct
    import zlib

    import numpy as np

    from silk_ray.functions.multimodal import _PNG_SIG, _png_chunk, decode_png

    rng = np.random.default_rng(5)
    for color, ch in ((4, 2), (6, 4)):
        h, w = 6, 5
        img = rng.integers(0, 256, size=(h, w, ch), dtype=np.uint8)
        raw = b"".join(b"\x00" + img[r].tobytes() for r in range(h))
        payload = (
            _PNG_SIG
            + _png_chunk(b"IHDR", struct.pack(">IIBBBBB", w, h, 8, color, 0, 0, 0))
            + _png_chunk(b"IDAT", zlib.compress(raw))
            + _png_chunk(b"IEND", b"")
        )
        got = decode_png(payload)
        assert got is not None and got.shape == (h, w, ch)
        assert np.array_equal(got, img)


def test_bmp_codec_round_trip_and_dispatch(ray_session):
    """The pure-stdlib BMP codec (uncompressed 24-bit BI_RGB): exact
    round-trip at odd widths (row padding), top-down negative-height
    decode, graceful None on non-BMPs, and ImageDecodeResize really
    decoding image/bmp payloads (distinct inputs -> distinct pixels —
    the hash-fake fallback would, too, but the round-trip pins the
    decode path as real)."""
    import io
    import struct

    import numpy as np
    import ray.data as rd

    from silk_ray.functions.multimodal import (
        ImageDecodeResize,
        decode_bmp,
        encode_bmp,
        synth_media_table,
    )

    rng = np.random.default_rng(5)
    for h, w in [(1, 1), (3, 5), (16, 31), (40, 13)]:
        img = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
        assert (decode_bmp(encode_bmp(img)) == img).all(), (h, w)
    # top-down variant (negative height) decodes too
    blob = bytearray(encode_bmp(rng.integers(0, 256, size=(4, 4, 3), dtype=np.uint8)))
    height = struct.unpack_from("<i", blob, 22)[0]
    struct.pack_into("<i", blob, 22, -height)
    top_down = decode_bmp(bytes(blob))
    assert top_down is not None and top_down.shape == (4, 4, 3)
    assert decode_bmp(b"BM garbage") is None and decode_bmp(b"PNG") is None
    # the actor stage decodes BMP rows for real
    t = synth_media_table(16, seed=4)
    ds = rd.from_arrow(t).map_batches(ImageDecodeResize, batch_format="pyarrow", concurrency=1)
    out = ds.to_pandas()
    bmp_ids = [r["media_id"] for r in t.to_pylist() if r["media_type"] == "image/bmp"]
    assert set(bmp_ids) <= set(out.media_id)
    # decoding is content-determined: same payload twice -> same pixels
    px = {m: p for m, p in zip(out.media_id, out.pixels)}
    stage = ImageDecodeResize()
    row = next(r for r in t.to_pylist() if r["media_type"] == "image/bmp")
    a = stage._decode_impl(row["payload"])
    assert np.allclose(np.asarray(px[row["media_id"]]).reshape(32, 32), a)


def test_audio_spectral_features(ray_session):
    """Real DSP: a pure sine's spectral centroid equals its tone
    frequency (within FFT bin resolution) and its bandwidth is narrow;
    a higher tone reads a higher centroid; the actor stage carries
    both columns for decoded rows."""
    import numpy as np
    import ray.data as rd

    from silk_ray.functions.multimodal import (
        AudioFeatures,
        decode_wav,
        spectral_features,
        synth_wav,
    )

    for freq in (440.0, 1200.0):
        samples = decode_wav(synth_wav(500, freq_hz=freq))
        c, b = spectral_features(samples, rate=8000)
        assert abs(c - freq) < 25.0, (freq, c)
        assert b < 200.0, (freq, b)
    rows = [
        {"media_id": 0, "media_type": "audio/wav", "payload": synth_wav(300, 500.0)},
        {"media_id": 1, "media_type": "audio/wav", "payload": synth_wav(300, 1500.0)},
        {"media_id": 2, "media_type": "audio/wav", "payload": b"not a wav"},
    ]
    out = (
        rd.from_items(rows)
        .map_batches(AudioFeatures, batch_format="pyarrow", concurrency=1)
        .to_pandas()
        .set_index("media_id")
    )
    assert out.loc[1, "spectral_centroid_hz"] > out.loc[0, "spectral_centroid_hz"]
    assert not out.loc[2, "decoded"] and out.loc[2, "spectral_centroid_hz"] == 0.0
