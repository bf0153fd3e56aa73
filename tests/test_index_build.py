import os

import numpy as np
import pyarrow.dataset as pads
import pyarrow.parquet as pq
from hypothesis import given, settings
from hypothesis import strategies as st

from hybrid_sanctions_search_engine_ray.state.manifest import IndexManifest


def test_manifest_complete(built_index):
    index_dir, cfg, manifest = built_index
    assert manifest.status == "complete"
    assert manifest.n_docs > 0
    assert manifest.avgdl > 0
    assert manifest.n_terms > 0
    assert len(manifest.parts) > 0
    m2 = IndexManifest.load(index_dir)
    assert m2.n_docs == manifest.n_docs


def test_layout_on_disk(built_index):
    index_dir, cfg, manifest = built_index
    assert os.path.isdir(os.path.join(index_dir, "docmap.parquet"))
    seg_root = os.path.join(index_dir, "segments")
    parts = [p for p in os.listdir(seg_root) if p.startswith("part=")]
    assert parts
    for p in parts:
        assert os.path.exists(os.path.join(seg_root, p, "postings.parquet"))
        assert os.path.exists(os.path.join(seg_root, p, "meta.json"))


def test_hot_terms_detected_and_salted(built_index):
    """The Zipf head must be flagged hot and split across partitions."""
    index_dir, cfg, manifest = built_index
    assert manifest.hot_terms, "stop-word-heavy corpus must produce hot terms"
    hot = manifest.hot_terms[0]
    seg_root = os.path.join(index_dir, "segments")
    parts_with_hot = 0
    for p in os.listdir(seg_root):
        f = os.path.join(seg_root, p, "postings.parquet")
        t = pads.dataset(f).to_table(filter=pads.field("term") == hot, columns=["term"])
        parts_with_hot += int(t.num_rows > 0)
    assert parts_with_hot > 1, f"hot term {hot!r} should be salted across partitions"


def test_docid_invariant(built_index, corpus_dir):
    """North-rule per-row invariant: doc ids are the rank under stable
    (conv_id, turn_idx) ordering, and joining docmap back to the input
    reproduces the corpus exactly."""
    index_dir, cfg, manifest = built_index
    dm = pq.read_table(os.path.join(index_dir, "docmap.parquet")).to_pandas()
    src = pads.dataset(corpus_dir).to_table(columns=["conv_id", "turn_idx"]).to_pandas()
    src = src.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    dm = dm.sort_values("doc_id").reset_index(drop=True)
    assert len(dm) == len(src)
    assert np.array_equal(dm["doc_id"].to_numpy(), np.arange(len(dm)))
    assert (dm["conv_id"].to_numpy() == src["conv_id"].to_numpy()).all()
    assert (dm["turn_idx"].to_numpy() == src["turn_idx"].to_numpy()).all()


def test_assume_sorted_equivalence(tmp_path, corpus_dir, built_index):
    """The generator's shard layout is globally sorted, so the
    assume_sorted fast path must produce an identical docmap to the
    sort-based build."""
    import pandas as pd

    from hybrid_sanctions_search_engine_ray.pipelines.index_build import build_index

    index_dir, cfg, _ = built_index
    fast_dir = str(tmp_path / "fast")
    build_index(corpus_dir, fast_dir, cfg, assume_sorted=True)
    cols = ["doc_id", "conv_id", "turn_idx"]  # fast-path docmap omits text
    a = pq.read_table(os.path.join(index_dir, "docmap.parquet"), columns=cols).to_pandas().sort_values("doc_id").reset_index(drop=True)
    b = pq.read_table(os.path.join(fast_dir, "docmap.parquet"), columns=cols).to_pandas().sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)


def test_streaming_sorted_build_matches_in_memory(tmp_path, corpus_dir, built_index):
    """``in_memory_build_bytes=0`` sends an ``assume_sorted`` build down
    the streaming branch: the sorted files are read per consumer, the
    hot-term pre-pass samples whole files and the docmap is re-read. It
    must give the in-memory build's docmap, corpus stats and rankings;
    its hot-term set may differ, which moves postings between
    partitions but not scores."""
    import pandas as pd

    from hybrid_sanctions_search_engine_ray.pipelines.index_build import build_index
    from hybrid_sanctions_search_engine_ray.pipelines.query import IndexReader

    _, cfg, _ = built_index
    mem_dir, stream_dir = str(tmp_path / "mem"), str(tmp_path / "stream")
    m_mem = build_index(corpus_dir, mem_dir, cfg, assume_sorted=True)
    m_str = build_index(corpus_dir, stream_dir, cfg.with_(in_memory_build_bytes=0),
                        assume_sorted=True)

    def docmap(d):
        t = pq.read_table(os.path.join(d, "docmap.parquet")).to_pandas()
        return t.sort_values("doc_id").reset_index(drop=True)

    pd.testing.assert_frame_equal(docmap(mem_dir), docmap(stream_dir))
    assert (m_str.n_docs, m_str.n_terms, m_str.total_tokens) == (
        m_mem.n_docs, m_mem.n_terms, m_mem.total_tokens)
    r_mem, r_str = IndexReader(mem_dir), IndexReader(stream_dir)
    queries = ["payment", "the payment transfer", "invoice customer", "zzznotaterm",
               " ".join(m_mem.hot_terms[:3])]
    for q in queries:
        for k in (1, 10, 50):
            d1, s1 = r_mem.search_one(q, k)
            d2, s2 = r_str.search_one(q, k)
            assert d1.tolist() == d2.tolist(), (q, k)
            assert np.allclose(s1, s2, rtol=0, atol=1e-9), (q, k)


def test_write_dictionary_utility(built_index):
    """write_dictionary materializes exact (term, df, cf) from segments;
    Σ df equals Σ n_docs over the raw segment rows (no postings lost in
    the shuffle, sub-segmenting or salting)."""
    from hybrid_sanctions_search_engine_ray.pipelines.index_build import write_dictionary

    index_dir, cfg, manifest = built_index
    seg_root = os.path.join(index_dir, "segments")
    total_seg = 0
    for p in os.listdir(seg_root):
        f = os.path.join(seg_root, p, "postings.parquet")
        total_seg += sum(pq.read_table(f, columns=["n_docs"])["n_docs"].to_pylist())
    dict_path = write_dictionary(index_dir)
    d = pq.read_table(dict_path).to_pandas()
    assert int(d["df"].sum()) == total_seg
    assert d["term"].is_unique


def test_lang_col_survives_checkpoint_build(ray_session, tmp_path):
    """A full-mode lang_col build through the CHECKPOINT path (input
    without doc ids) must carry the language column into the postings
    scan instead of crashing after the checkpoint pass (code-review
    r05), and the column-driven case routing must be in effect."""
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.config import AnalyzerConfig, EngineConfig
    from hybrid_sanctions_search_engine_ray.pipelines.index_build import build_index
    from hybrid_sanctions_search_engine_ray.pipelines.query import IndexReader

    rows = [
        {"conv_id": f"c-{i:04d}", "turn_idx": 0, "role": "user", "text": t,
         "tool": "", "ts": pd.Timestamp(2026, 1, 1), "lang": lg}
        for i, (t, lg) in enumerate([
            ("Москва справка отчет", "ru"),
            ("plain english text", "en"),
            ("Київ звіт документ", "uk"),
        ])
    ]
    ds = rd.from_arrow(pa.Table.from_pandas(pd.DataFrame(rows), preserve_index=False))
    idx = str(tmp_path / "langidx")
    cfg = EngineConfig(num_partitions=2,
                       analyzer=AnalyzerConfig(mode="full", lang_split_case=True,
                                               lang_col="lang"))
    m = build_index("mem", idx, cfg, transcripts_ds=ds)
    assert m.status == "complete" and m.n_docs == 3
    assert m.lang_col == "lang" and m.lang_split_case is True
    r = IndexReader(idx)
    docs, _ = r.search_one("москва", 5)
    assert list(docs) == [0]


def test_manifest_round_trips_token_bounds(ray_session, tmp_path):
    """min_token_len must survive the manifest so the reader's query
    analyzer matches the build analyzer — a 1-char query term must be
    DROPPED (matching the index), not treated as a required term with
    no postings (code-review r05)."""
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.config import AnalyzerConfig, EngineConfig
    from hybrid_sanctions_search_engine_ray.pipelines.index_build import build_index
    from hybrid_sanctions_search_engine_ray.pipelines.query import IndexReader

    rows = [
        {"conv_id": f"c-{i:04d}", "turn_idx": 0, "role": "user", "text": t,
         "tool": "", "ts": pd.Timestamp(2026, 1, 1)}
        for i, t in enumerate(["a moscow report", "b berlin file"])
    ]
    ds = rd.from_arrow(pa.Table.from_pandas(pd.DataFrame(rows), preserve_index=False))
    idx = str(tmp_path / "boundsidx")
    cfg = EngineConfig(num_partitions=2,
                       analyzer=AnalyzerConfig(mode="simple", min_token_len=2))
    m = build_index("mem", idx, cfg, transcripts_ds=ds)
    assert m.min_token_len == 2
    r = IndexReader(idx)
    # 'a' is sub-min on both sides: neither indexed nor required
    assert set(r.analyzer("a moscow")) == {"moscow"}
    docs, _ = r.search_one("a moscow", 5)
    assert list(docs) == [0]
    assert r.load_raw("a") is None  # never indexed


def test_failed_build_joins_docmap_side_write(tmp_path, corpus_dir, built_index, monkeypatch):
    """The docmap side write must not outlive a failed build: a resume
    started right after would publish a second docmap into the same tmp
    dir. With the write slowed down, it has finished by the time the
    fault-injected build raises, and the resume then gives the docmap
    and segments of an uninterrupted build."""
    import time

    import pandas as pd
    import pytest

    from hybrid_sanctions_search_engine_ray.pipelines import index_build

    _, cfg, _ = built_index
    idx, full = str(tmp_path / "idx"), str(tmp_path / "full")
    publish, finished = index_build.publish_dir, []

    def slow_publish(final, write):
        time.sleep(2.0)
        publish(final, write)
        finished.append(final)

    monkeypatch.setattr(index_build, "publish_dir", slow_publish)
    with pytest.raises(Exception, match="fault injection"):
        index_build.build_index(corpus_dir, idx, cfg, assume_sorted=True, fail_after_parts=1)
    assert finished == [os.path.join(idx, "docmap.parquet")]
    monkeypatch.undo()

    m = index_build.build_index(corpus_dir, idx, cfg, assume_sorted=True, resume=True)
    m_full = index_build.build_index(corpus_dir, full, cfg, assume_sorted=True)
    assert (m.n_docs, m.total_tokens, m.n_terms) == (m_full.n_docs, m_full.total_tokens, m_full.n_terms)

    def docmap(d):
        t = pq.read_table(os.path.join(d, "docmap.parquet")).to_pandas()
        return t.sort_values("doc_id").reset_index(drop=True)

    pd.testing.assert_frame_equal(docmap(idx), docmap(full))
    for p in range(cfg.num_partitions):
        f = os.path.join("segments", f"part={p:05d}", "postings.parquet")
        assert pq.read_table(os.path.join(idx, f)).equals(pq.read_table(os.path.join(full, f))), p


# The engine functions a traced benchmark build wraps by module attribute
# (perfbench/trace.py): a rename, or a call that bypasses the module,
# would read its figure as 0 without any error.
TRACED_BUILD_STAGES = {
    "hybrid_sanctions_search_engine_ray.pipelines.index_build": ("read_sorted_parquet_with_ids",),
    "hybrid_sanctions_search_engine_ray.stages.analyze": (
        "emit_postings_with_sentinel", "emit_sampled_term_stats", "emit_term_stats"),
    "hybrid_sanctions_search_engine_ray.stages.postings": (
        "assign_partitions", "pack_postings_by_part", "build_segment_packed"),
}


def test_traced_build_stages_are_module_attributes():
    import importlib

    missing = [f"{mod}.{name}" for mod, names in TRACED_BUILD_STAGES.items()
               for name in names if not callable(getattr(importlib.import_module(mod), name, None))]
    assert not missing


def test_assume_sorted_build_reads_ids_through_module(tmp_path, corpus_dir, built_index, monkeypatch):
    from hybrid_sanctions_search_engine_ray.pipelines import index_build

    read, calls = index_build.read_sorted_parquet_with_ids, []

    def counting(*a, **kw):
        calls.append(a)
        return read(*a, **kw)

    monkeypatch.setattr(index_build, "read_sorted_parquet_with_ids", counting)
    _, cfg, _ = built_index
    index_build.build_index(corpus_dir, str(tmp_path / "idx"), cfg, assume_sorted=True)
    assert calls


@settings(max_examples=200, deadline=None)
@given(terms=st.lists(st.text(min_size=1, max_size=6), min_size=1, max_size=6, unique=True),
       doc_ids=st.lists(st.integers(0, 1 << 40), min_size=1, max_size=6),
       num_partitions=st.integers(1, 64), buckets=st.integers(1, 16),
       shift=st.integers(0, 20), data=st.data())
def test_reader_probes_every_partition_the_writer_places(terms, doc_ids, num_partitions,
                                                         buckets, shift, data):
    """Every (term, doc_id) posting that assign_partitions places, hot or
    not, lands in a partition IndexReader._parts_for probes for its term."""
    from types import SimpleNamespace

    import pyarrow as pa

    from hybrid_sanctions_search_engine_ray.config import EngineConfig
    from hybrid_sanctions_search_engine_ray.pipelines.query import IndexReader
    from hybrid_sanctions_search_engine_ray.stages.postings import assign_partitions

    cfg = EngineConfig(num_partitions=num_partitions, hot_term_salt_buckets=buckets,
                       hot_term_salt_shift=shift)
    hot = frozenset(data.draw(st.sets(st.sampled_from(terms))))
    rows = [(t, d) for t in terms for d in doc_ids]
    batch = pa.table({"term": pa.array([t for t, _ in rows], pa.string()),
                      "doc_id": pa.array([d for _, d in rows], pa.int64())})
    placed = assign_partitions(batch, cfg, hot)["part"].to_pylist()
    reader = SimpleNamespace(cfg=cfg, hot=hot)
    for (term, _), part in zip(rows, placed):
        assert part in IndexReader._parts_for(reader, term), (term, part)
