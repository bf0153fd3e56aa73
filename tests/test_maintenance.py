"""Tombstone deletes + physical compaction (pipelines/maintenance.py):
Lucene-style deleted-until-merge semantics, exact stats after compact."""

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from hybrid_sanctions_search_engine_ray.config import AnalyzerConfig, EngineConfig
from hybrid_sanctions_search_engine_ray.pipelines.index_build import build_index
from hybrid_sanctions_search_engine_ray.pipelines.maintenance import (
    compact_index,
    delete_docs,
    load_tombstones,
)
from hybrid_sanctions_search_engine_ray.pipelines.query import IndexReader, phrase_search


def _build(tmp_path, name, texts, **kw):
    import ray.data as rd

    rows = [
        {"conv_id": f"conv-{i:08d}", "turn_idx": 0, "role": "user", "text": t,
         "tool": "", "ts": pd.Timestamp(2026, 1, 1)}
        for i, t in enumerate(texts)
    ]
    ds = rd.from_arrow(pa.Table.from_pandas(pd.DataFrame(rows), preserve_index=False))
    idx = str(tmp_path / name)
    m = build_index("mem", idx, EngineConfig(num_partitions=4), transcripts_ds=ds, **kw)
    return idx, m


TEXTS = [
    "wire transfer fee schedule",
    "wire transfer came by post",
    "unrelated filler content here",
    "wire services transfer order",
    "completely different text body",
]


def test_delete_hides_docs_but_keeps_stats(ray_session, tmp_path):
    idx, m0 = _build(tmp_path, "del1", TEXTS)
    r0 = IndexReader(idx)
    d0, s0 = r0.search_one("wire transfer", 5)
    assert 0 in d0.tolist() and 1 in d0.tolist()
    n = delete_docs(idx, [1])
    assert n == 1 and load_tombstones(idx).tolist() == [1]
    r1 = IndexReader(idx)
    d1, s1 = r1.search_one("wire transfer", 5)
    assert 1 not in d1.tolist()
    # Lucene parity: stats still count the deleted doc until compaction,
    # so surviving docs keep their EXACT pre-delete scores
    for doc, sc in zip(d1.tolist(), s1.tolist()):
        assert sc == pytest.approx(float(s0[d0.tolist().index(doc)]))
    assert IndexReader(idx).manifest.n_docs == m0.n_docs


def test_compact_purges_and_corrects_stats(ray_session, tmp_path):
    idx, m0 = _build(tmp_path, "del2", TEXTS)
    delete_docs(idx, [1, 4])
    m1 = compact_index(idx)
    assert m1.n_docs == m0.n_docs - 2
    assert m1.total_tokens < m0.total_tokens
    assert not os.path.exists(os.path.join(idx, "tombstones.json"))
    r = IndexReader(idx)
    assert r.tombstones.size == 0
    docs, _ = r.search_one("wire transfer", 5)
    assert 1 not in docs.tolist() and 4 not in docs.tolist()
    # compacted index is identical to building without the deleted docs
    idx_ref, _ = _build(tmp_path, "del2ref", [TEXTS[0], TEXTS[2], TEXTS[3]])
    # doc ids differ (dense rank), so compare by rank of surviving contents:
    # doc 0 ("wire transfer fee") must outrank doc 3 ("wire services...") in both
    d_cmp, s_cmp = r.search_one("wire transfer", 5)
    assert d_cmp.tolist()[0] == 0
    # exact stat parity with the reference build
    m_ref = IndexReader(idx_ref).manifest
    assert m1.n_docs == m_ref.n_docs
    assert m1.total_tokens == m_ref.total_tokens
    assert m1.avgdl == pytest.approx(m_ref.avgdl)


def test_compact_scores_match_fresh_build(ray_session, tmp_path):
    """After compaction, BM25 scores equal a from-scratch build over the
    surviving corpus (same doc-id ordering preserved by deleting the
    LAST docs)."""
    idx, _ = _build(tmp_path, "del3", TEXTS)
    delete_docs(idx, [3, 4])
    compact_index(idx)
    idx_ref, _ = _build(tmp_path, "del3ref", TEXTS[:3])
    ra, rb = IndexReader(idx), IndexReader(idx_ref)
    for q in ["wire transfer", "unrelated filler", "content"]:
        da, sa = ra.search_one(q, 5)
        db, sb = rb.search_one(q, 5)
        assert da.tolist() == db.tolist()
        assert np.allclose(sa, sb)


def test_delete_positional_phrase(ray_session, tmp_path):
    idx, _ = _build(tmp_path, "del4", TEXTS, store_positions=True)
    r0 = IndexReader(idx)
    hits0 = phrase_search(idx, "wire transfer", top_k=5, reader=r0)
    assert {0, 1} <= set(hits0["doc_id"].tolist())
    delete_docs(idx, [0])
    r1 = IndexReader(idx)
    hits1 = phrase_search(idx, "wire transfer", top_k=5, reader=r1)
    assert 0 not in hits1["doc_id"].tolist()
    assert 1 in hits1["doc_id"].tolist()
    # compaction keeps positional phrase search working
    compact_index(idx)
    hits2 = phrase_search(idx, "wire transfer", top_k=5, reader=IndexReader(idx))
    assert 0 not in hits2["doc_id"].tolist() and 1 in hits2["doc_id"].tolist()


def test_delete_all_postings_of_a_term(ray_session, tmp_path):
    idx, _ = _build(tmp_path, "del5", TEXTS)
    delete_docs(idx, [2])  # the only doc with "filler"
    r = IndexReader(idx)
    docs, _ = r.search_one("filler", 5)
    assert docs.size == 0
    compact_index(idx)
    docs, _ = IndexReader(idx).search_one("filler", 5)
    assert docs.size == 0


def test_delete_idempotent_union(ray_session, tmp_path):
    idx, _ = _build(tmp_path, "del6", TEXTS)
    assert delete_docs(idx, [1, 2]) == 2
    assert delete_docs(idx, [2, 3]) == 3
    assert load_tombstones(idx).tolist() == [1, 2, 3]


def test_federated_single_shard_matches_direct_with_tombstones(ray_session, tmp_path):
    """Federated df uses pre-delete counts (Lucene parity) and excludes
    tombstoned docs — a 1-shard federation must equal the direct reader."""
    from hybrid_sanctions_search_engine_ray.pipelines.federated import FederatedReader

    idx, _ = _build(tmp_path, "fed1", TEXTS)
    delete_docs(idx, [1])
    direct = IndexReader(idx)
    fed = FederatedReader([idx])
    for q in ["wire transfer", "content", "unrelated filler"]:
        dd, sd = direct.search_one(q, 5)
        df_, sf_ = fed.search_one(q, 5)
        assert dd.tolist() == [int(x) for x in df_.tolist()]
        assert np.allclose(sd, sf_)
    assert 1 not in [int(x) for x in fed.search_one("wire transfer", 5)[0].tolist()]


def test_compact_crash_resume_exact_stats(ray_session, tmp_path):
    """A compaction that crashed after segments were rewritten but
    before the manifest was corrected must resume to EXACT stats (the
    plan file pins the correction computed while evidence existed)."""
    import json

    from hybrid_sanctions_search_engine_ray.pipelines import maintenance as mnt

    idx, m0 = _build(tmp_path, "crash1", TEXTS)
    delete_docs(idx, [1, 4])
    # simulate: run phase 1 + segment rewrites, then "crash" before _run_plan's
    # manifest save by doing the scan + plan + part-rewrites manually
    import ray as _ray

    m = mnt.IndexManifest.load(idx)
    tomb = mnt.load_tombstones(idx)
    parts = sorted(int(k) for k in m.parts)
    removed = {}
    for r in _ray.get([mnt._scan_part_removed.remote(idx, p, _ray.put(tomb)) for p in parts]):
        removed.update(r)
    plan = {"tombstones": [int(x) for x in tomb.tolist()],
            "n_docs_removed": len(removed), "tokens_removed": int(sum(removed.values()))}
    mnt.atomic_write_json(os.path.join(idx, "compaction.json"), plan)
    _ray.get([mnt._compact_part.remote(idx, p, _ray.put(tomb), False) for p in parts])
    # CRASH HERE: segments rewritten, manifest NOT corrected, files still present
    assert os.path.exists(os.path.join(idx, "compaction.json"))
    m1 = compact_index(idx)  # resume
    idx_ref, _ = _build(tmp_path, "crash1ref", [TEXTS[0], TEXTS[2], TEXTS[3]])
    m_ref = IndexReader(idx_ref).manifest
    assert m1.n_docs == m_ref.n_docs
    assert m1.total_tokens == m_ref.total_tokens
    assert not os.path.exists(os.path.join(idx, "compaction.json"))
    assert not os.path.exists(os.path.join(idx, "tombstones.json"))


def test_reindex_preserves_query_results(ray_session, tmp_path):
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.config import AnalyzerConfig, EngineConfig
    from hybrid_sanctions_search_engine_ray.pipelines.index_build import build_index
    from hybrid_sanctions_search_engine_ray.pipelines.maintenance import reindex
    from hybrid_sanctions_search_engine_ray.pipelines.query import search

    texts = ["alpha beta gamma", "beta gamma delta", "alpha alpha", "delta epsilon",
             "gamma beta alpha", "epsilon zeta"]
    rows = [{"conv_id": f"c{i:03d}", "turn_idx": 0, "role": "user", "text": t,
             "tool": "", "ts": pd.Timestamp(2026, 1, 1), "doc_id": i}
            for i, t in enumerate(texts)]
    src = str(tmp_path / "src")
    cfg = EngineConfig(num_partitions=4)
    build_index("mem", src, cfg, transcripts_ds=rd.from_pandas(pd.DataFrame(rows)),
                store_text=True)

    # same analyzer, different partition count: query-identical
    dst = str(tmp_path / "dst")
    m = reindex(src, dst, EngineConfig(num_partitions=2))
    assert m.status == "complete" and m.n_docs == 6
    qs = rd.from_items([{"query_id": "q", "query_text": "alpha gamma", "top_k": 10}])
    a = search(qs, src, cfg).to_pandas()
    qs2 = rd.from_items([{"query_id": "q", "query_text": "alpha gamma", "top_k": 10}])
    b = search(qs2, dst, EngineConfig(num_partitions=2)).to_pandas()
    assert a[["doc_id", "score"]].values.tolist() == b[["doc_id", "score"]].values.tolist()

    # analyzer upgrade: word -> char3 equals a direct char3 build
    dst3 = str(tmp_path / "dst3")
    reindex(src, dst3, EngineConfig(num_partitions=4, analyzer=AnalyzerConfig(mode="char3")))
    direct = str(tmp_path / "direct3")
    build_index("mem", direct, EngineConfig(num_partitions=4, analyzer=AnalyzerConfig(mode="char3")),
                transcripts_ds=rd.from_pandas(pd.DataFrame(rows)))
    qf = rd.from_items([{"query_id": "f", "query_text": "alpa", "top_k": 10}])
    r1 = search(qf, dst3, EngineConfig(num_partitions=4, analyzer=AnalyzerConfig(mode="char3"))).to_pandas()
    qf2 = rd.from_items([{"query_id": "f", "query_text": "alpa", "top_k": 10}])
    r2 = search(qf2, direct, EngineConfig(num_partitions=4, analyzer=AnalyzerConfig(mode="char3"))).to_pandas()
    assert r1[["doc_id", "score"]].values.tolist() == r2[["doc_id", "score"]].values.tolist()
    assert len(r1) > 0


def test_reindex_refusals(ray_session, tmp_path):
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.config import EngineConfig
    from hybrid_sanctions_search_engine_ray.pipelines.index_build import build_index
    from hybrid_sanctions_search_engine_ray.pipelines.maintenance import delete_docs, reindex

    rows = [{"conv_id": "c0", "turn_idx": i, "role": "user", "text": t,
             "tool": "", "ts": pd.Timestamp(2026, 1, 1), "doc_id": i}
            for i, t in enumerate(["alpha beta", "beta gamma"])]
    # built WITHOUT store_text -> refused
    bare = str(tmp_path / "bare")
    build_index("mem", bare, EngineConfig(num_partitions=2),
                transcripts_ds=rd.from_pandas(pd.DataFrame(rows)))
    with pytest.raises(ValueError, match="store_text"):
        reindex(bare, str(tmp_path / "x"))
    # pending tombstones -> refused
    full = str(tmp_path / "full")
    build_index("mem", full, EngineConfig(num_partitions=2),
                transcripts_ds=rd.from_pandas(pd.DataFrame(rows)), store_text=True)
    delete_docs(full, [0])
    with pytest.raises(ValueError, match="compact"):
        reindex(full, str(tmp_path / "y"))


def test_append_documents_equals_full_rebuild(ray_session, tmp_path):
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.config import AnalyzerConfig, EngineConfig
    from hybrid_sanctions_search_engine_ray.pipelines.index_build import build_index
    from hybrid_sanctions_search_engine_ray.pipelines.maintenance import append_documents
    from hybrid_sanctions_search_engine_ray.pipelines.query import search
    from hybrid_sanctions_search_engine_ray.state.aliases import resolve_alias

    cfg = EngineConfig(num_partitions=4, analyzer=AnalyzerConfig(mode="simple"))
    texts1 = [f"alpha beta doc {i}" for i in range(6)] + ["gamma delta special"]
    texts2 = ["alpha gamma fresh arrival", "beta beta appended text"]

    def mk_ds(texts, start):
        rows = [{"conv_id": f"c-{start + i:06d}", "turn_idx": 0, "role": "user",
                 "text": t, "tool": "", "ts": pd.Timestamp(2026, 1, 1)}
                for i, t in enumerate(texts)]
        return rd.from_arrow(pa.Table.from_pandas(pd.DataFrame(rows), preserve_index=False))

    live = str(tmp_path / "live")
    build_index("mem", live, cfg, transcripts_ds=mk_ds(texts1, 0))
    merged_dir = str(tmp_path / "gen2")
    reg = str(tmp_path / "reg")
    m = append_documents(live, mk_ds(texts2, len(texts1)), merged_dir,
                         registry=reg, alias="live")
    assert m.status == "complete" and m.n_docs == len(texts1) + len(texts2)
    assert resolve_alias(reg, "live") == os.path.abspath(merged_dir)

    # merged index ≡ a full rebuild over the concatenated corpus
    full = str(tmp_path / "full")
    build_index("mem", full, cfg, transcripts_ds=mk_ds(texts1 + texts2, 0))
    qs = rd.from_items([{"query_id": "q", "query_text": "alpha gamma", "top_k": 20}])
    a = search(qs, merged_dir, cfg).to_pandas().sort_values("rank").reset_index(drop=True)
    qs2 = rd.from_items([{"query_id": "q", "query_text": "alpha gamma", "top_k": 20}])
    b = search(qs2, full, cfg).to_pandas().sort_values("rank").reset_index(drop=True)
    assert a["doc_id"].tolist() == b["doc_id"].tolist()
    assert np.allclose(a["score"], b["score"], atol=1e-12)
    # the appended doc is retrievable
    assert len(texts1) in set(a["doc_id"])  # "alpha gamma fresh arrival" = doc 7


def test_point_in_time_pins_visibility(ray_session, tmp_path):
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.config import AnalyzerConfig, EngineConfig
    from hybrid_sanctions_search_engine_ray.pipelines.maintenance import (
        close_point_in_time, delete_docs, open_point_in_time)
    from hybrid_sanctions_search_engine_ray.pipelines.query import IndexReader, search

    cfg = EngineConfig(num_partitions=4, analyzer=AnalyzerConfig(mode="simple"))
    rows = [{"conv_id": f"c-{i:04d}", "turn_idx": 0, "role": "user",
             "text": f"alpha doc {i}", "tool": "", "ts": pd.Timestamp(2026, 1, 1)}
            for i in range(6)]
    ds = rd.from_arrow(pa.Table.from_pandas(pd.DataFrame(rows), preserve_index=False))
    idx = str(tmp_path / "pitidx")
    build_index("mem", idx, cfg, transcripts_ds=ds)

    pit = open_point_in_time(idx)
    delete_docs(idx, [0, 1])  # deletes AFTER the pit opened

    live = IndexReader(idx)
    pinned = IndexReader(idx, pit_id=pit)
    assert set(live.tombstones.tolist()) == {0, 1}
    assert pinned.tombstones.size == 0  # the snapshot still sees everything

    qs = rd.from_items([{"query_id": "q", "query_text": "alpha", "top_k": 10}])
    live_docs = set(search(qs, idx, cfg).to_pandas()["doc_id"])
    assert live_docs == {2, 3, 4, 5}

    close_point_in_time(idx, pit)
    with pytest.raises(KeyError):
        IndexReader(idx, pit_id=pit)
    with pytest.raises(KeyError):
        close_point_in_time(idx, pit)
    # pit ids are deterministic counters
    assert open_point_in_time(idx) == "pit-2"


def test_delete_by_query_tombstones_matching_set(ray_session, tmp_path):
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.config import AnalyzerConfig, EngineConfig
    from hybrid_sanctions_search_engine_ray.pipelines.maintenance import (
        delete_by_query, load_tombstones)
    from hybrid_sanctions_search_engine_ray.pipelines.query import search

    cfg = EngineConfig(num_partitions=4, analyzer=AnalyzerConfig(mode="simple"))
    texts = ["alpha beta", "beta gamma", "alpha delta", "gamma delta", "epsilon"]
    rows = [{"conv_id": f"c-{i:04d}", "turn_idx": 0, "role": "user",
             "text": t, "tool": "", "ts": pd.Timestamp(2026, 1, 1)}
            for i, t in enumerate(texts)]
    ds = rd.from_arrow(pa.Table.from_pandas(pd.DataFrame(rows), preserve_index=False))
    idx = str(tmp_path / "dbq")
    build_index("mem", idx, cfg, transcripts_ds=ds)

    n = delete_by_query(idx, "alpha")
    assert n == 2 and set(load_tombstones(idx).tolist()) == {0, 2}
    # the survivors still serve; deleted docs are invisible
    qs = rd.from_items([{"query_id": "q", "query_text": "beta gamma delta", "top_k": 10}])
    got = set(search(qs, idx, cfg).to_pandas()["doc_id"])
    assert got == {1, 3}
    # idempotent / no-match
    assert delete_by_query(idx, "alpha") == 0
    assert delete_by_query(idx, "zzznothing") == 0


def test_update_by_query_rewrites_docmap_only(ray_session, tmp_path):
    import pyarrow.dataset as pads
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.config import AnalyzerConfig, EngineConfig
    from hybrid_sanctions_search_engine_ray.pipelines.maintenance import update_by_query
    from hybrid_sanctions_search_engine_ray.pipelines.query import search

    cfg = EngineConfig(num_partitions=4, analyzer=AnalyzerConfig(mode="simple"))
    texts = ["alpha beta", "beta gamma", "alpha delta", "gamma delta", "epsilon"]
    rows = [{"conv_id": f"c-{i:04d}", "turn_idx": 0, "role": "user",
             "text": t, "tool": "", "ts": pd.Timestamp(2026, 1, 1)}
            for i, t in enumerate(texts)]
    ds = rd.from_arrow(pa.Table.from_pandas(pd.DataFrame(rows), preserve_index=False))
    idx = str(tmp_path / "ubq")
    build_index("mem", idx, cfg, transcripts_ds=ds)

    out_dm = str(tmp_path / "ubq_docmap")
    stats = update_by_query(idx, "alpha gamma", out_dm, set_col="flag", set_value=1)
    assert stats["updated"] == 4 and stats["total"] == 5
    dm = pads.dataset(out_dm).to_table().to_pandas().sort_values("doc_id")
    assert dm["flag"].tolist() == [1, 1, 1, 1, 0]  # OR over terms; only 'epsilon' clean
    assert set(dm.columns) >= {"doc_id", "conv_id", "turn_idx", "flag"}
    # segments untouched: search through the ORIGINAL index is unchanged
    res = search(rd.from_items([{"query_id": "q", "query_text": "beta", "top_k": 5}]),
                 idx, cfg).to_pandas()
    assert set(res["doc_id"]) == {0, 1}
    # zero-match query flags nothing
    stats0 = update_by_query(idx, "zzzz", str(tmp_path / "ubq0"), set_col="flag")
    dm0 = pads.dataset(str(tmp_path / "ubq0")).to_table().to_pandas()
    assert stats0["updated"] == 0 and dm0["flag"].sum() == 0


def test_snapshot_diff_statuses(ray_session, tmp_path):
    import json
    import shutil

    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.config import AnalyzerConfig, EngineConfig
    from hybrid_sanctions_search_engine_ray.pipelines.maintenance import (
        snapshot_diff, snapshot_index)
    from hybrid_sanctions_search_engine_ray.state.manifest import segment_dir

    cfg = EngineConfig(num_partitions=4, analyzer=AnalyzerConfig(mode="simple"))
    rows = [{"conv_id": f"c-{i:04d}", "turn_idx": 0, "role": "user",
             "text": t, "tool": "", "ts": pd.Timestamp(2026, 1, 1)}
            for i, t in enumerate(["alpha beta", "gamma delta", "epsilon zeta",
                                   "eta theta", "iota kappa"])]
    ds = rd.from_arrow(pa.Table.from_pandas(pd.DataFrame(rows), preserve_index=False))
    idx = str(tmp_path / "sd_idx")
    build_index("mem", idx, cfg, transcripts_ds=ds)
    a, b = str(tmp_path / "snap_a"), str(tmp_path / "snap_b")
    snapshot_index(idx, a)
    snapshot_index(idx, b)

    d0 = snapshot_diff(a, b)
    assert (d0["status"] == "unchanged").all() and len(d0) > 0

    # simulate one changed + one removed partition in snapshot b
    parts = sorted(d0["partition"])
    ch, rm = parts[0], parts[-1]
    mf = f"{segment_dir(b, ch)}/meta.json"
    meta = json.load(open(mf))
    meta["checksum_head_crc32"] = (meta.get("checksum_head_crc32") or 0) + 1
    json.dump(meta, open(mf, "w"))
    shutil.rmtree(segment_dir(b, rm))

    d1 = snapshot_diff(a, b).set_index("partition")["status"]
    assert d1[ch] == "changed" and d1[rm] == "removed"
    assert (d1.drop([ch, rm]) == "unchanged").all()
    # symmetric view: the dropped partition reads as added from b→a
    d2 = snapshot_diff(b, a).set_index("partition")["status"]
    assert d2[rm] == "added"


# --- static pruning ---------------------------------------------------------


def test_static_prune_identity_when_budget_covers(ray_session, tmp_path):
    """top_n >= every df → the pruned index answers identically."""
    from hybrid_sanctions_search_engine_ray.pipelines.maintenance import static_prune_index
    from hybrid_sanctions_search_engine_ray.pipelines.query import IndexReader

    idx, m = _build(tmp_path, "full", TEXTS)
    out = str(tmp_path / "pruned_all")
    static_prune_index(idx, out, top_n=100)
    ad, asc = IndexReader(idx).search_one("wire transfer", 5)
    bd, bsc = IndexReader(out).search_one("wire transfer", 5)
    assert ad.tolist() == bd.tolist()
    assert [round(float(x), 6) for x in asc] == [round(float(x), 6) for x in bsc]


def test_static_prune_keeps_impact_postings(ray_session, tmp_path):
    """top_n=1 keeps exactly the highest-tf (doc_id tie-break) posting
    per term, df shrinks accordingly, corpus stats stay global."""
    import numpy as np

    from hybrid_sanctions_search_engine_ray.pipelines.maintenance import static_prune_index
    from hybrid_sanctions_search_engine_ray.pipelines.query import IndexReader
    from hybrid_sanctions_search_engine_ray.state.manifest import IndexManifest

    texts = ["pay pay pay fee", "pay fee fee", "pay alone"]
    idx, m = _build(tmp_path, "full2", texts)
    out = str(tmp_path / "pruned_one")
    static_prune_index(idx, out, top_n=1)
    rd_ = IndexReader(out)
    p = rd_.load_postings(["pay"])["pay"]
    assert p.doc_ids.tolist() == [0]          # tf=3 wins
    f = rd_.load_postings(["fee"])["fee"]
    assert f.doc_ids.tolist() == [1]          # tf=2 wins
    m2 = IndexManifest.load(out)
    assert m2.n_docs == m.n_docs and m2.avgdl == m.avgdl  # global stats kept


def test_static_prune_refuses_salted(ray_session, tmp_path):
    from hybrid_sanctions_search_engine_ray.pipelines.maintenance import static_prune_index
    from hybrid_sanctions_search_engine_ray.state.manifest import IndexManifest

    idx, m = _build(tmp_path, "full3", TEXTS)
    mm = IndexManifest.load(idx)
    mm.hot_terms = ["wire"]
    mm.save(idx)
    import pytest

    with pytest.raises(ValueError, match="salted"):
        static_prune_index(idx, str(tmp_path / "nope"), top_n=2)


def test_static_prune_resume_skips_finished_parts(ray_session, tmp_path):
    """Re-running static_prune_index with the same top_n must not
    rewrite finished parts (meta presence-implies-complete contract);
    a different top_n must."""
    import os

    from hybrid_sanctions_search_engine_ray.pipelines.maintenance import static_prune_index
    from hybrid_sanctions_search_engine_ray.state.manifest import segment_dir

    idx, m = _build(tmp_path, "full_resume", TEXTS)
    out = str(tmp_path / "pruned_resume")
    static_prune_index(idx, out, top_n=2)
    f = os.path.join(segment_dir(out, 0), "postings.parquet")
    mtime = os.path.getmtime(f)
    static_prune_index(idx, out, top_n=2)        # resume: untouched
    assert os.path.getmtime(f) == mtime
    static_prune_index(idx, out, top_n=1)        # different budget: rewrite
    assert os.path.getmtime(f) != mtime


def test_static_prune_partial_crash_resume(ray_session, tmp_path):
    """A part whose meta.json is missing (crash between data write and
    meta write) must be re-pruned on resume; finished parts stay
    untouched."""
    import os

    from hybrid_sanctions_search_engine_ray.pipelines.maintenance import static_prune_index
    from hybrid_sanctions_search_engine_ray.state.manifest import segment_dir

    idx, m = _build(tmp_path, "full_crash", TEXTS)
    out = str(tmp_path / "pruned_crash")
    static_prune_index(idx, out, top_n=2)
    # simulate the crash window on part 1: meta gone, data present
    victim_meta = os.path.join(segment_dir(out, 1), "meta.json")
    survivor = os.path.join(segment_dir(out, 0), "postings.parquet")
    if os.path.exists(victim_meta):
        os.remove(victim_meta)
    s_mtime = os.path.getmtime(survivor)
    static_prune_index(idx, out, top_n=2)
    assert os.path.exists(victim_meta)            # victim re-pruned
    assert os.path.getmtime(survivor) == s_mtime  # survivor untouched


def test_delete_hides_docs_in_similarity_kernels(ray_session, tmp_path):
    """The reader invariant 'tombstoned docs are excluded from every
    result' must hold for the pluggable similarity modules too — the
    kernel path scored deleted docs before (code-review r05)."""
    from hybrid_sanctions_search_engine_ray.pipelines.query import IndexReader

    idx, _ = _build(tmp_path, "delsim", TEXTS)
    r0 = IndexReader(idx)
    docs0, _ = r0.search_one_lmd("wire transfer", 10)
    assert 1 in docs0
    delete_docs(idx, [1])
    r1 = IndexReader(idx)
    for meth in ("search_one_lmd", "search_one_lmjm", "search_one_classic",
                 "search_one_dfr", "search_one_dfi", "search_one_ib"):
        fn = getattr(r1, meth, None)
        if fn is None:
            continue
        docs, _ = fn("wire transfer", 10)
        assert 1 not in docs, meth
    # BM25 path unchanged (regression canary)
    docs, _ = r1.search_one("wire transfer", 10)
    assert 1 not in docs


def test_fresh_rebuild_clears_stale_segments(ray_session, tmp_path):
    """A fresh (resume=False) build into a dir holding an OLD index
    must not merge the old partitions' metas or postings — stats and
    results must equal a build into a clean dir (code-review r05)."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.pipelines.query import IndexReader

    rows = lambda texts: [
        {"conv_id": f"conv-{i:08d}", "turn_idx": 0, "role": "user", "text": t,
         "tool": "", "ts": pd.Timestamp(2026, 1, 1)}
        for i, t in enumerate(texts)
    ]
    idx = str(tmp_path / "rebuild")
    ds1 = rd.from_arrow(pa.Table.from_pandas(pd.DataFrame(rows(TEXTS)),
                                             preserve_index=False))
    build_index("mem", idx, EngineConfig(num_partitions=8), transcripts_ds=ds1)
    # rebuild SAME dir: fewer partitions + a smaller corpus
    texts2 = TEXTS[:3]
    ds2 = rd.from_arrow(pa.Table.from_pandas(pd.DataFrame(rows(texts2)),
                                             preserve_index=False))
    m2 = build_index("mem", idx, EngineConfig(num_partitions=2), transcripts_ds=ds2)
    assert m2.n_docs == 3
    assert m2.num_partitions == 2
    assert set(int(p) for p in m2.parts) <= {0, 1}
    r = IndexReader(idx)
    docs, _ = r.search_one("wire transfer", 10)
    assert set(docs) <= {0, 1, 2}  # no stale doc ids from the old build


def test_resume_with_changed_config_refuses(ray_session, tmp_path):
    """Resuming with a different layout config must raise loudly — the
    done-part skip and query path assume the original run's hashing
    (code-review r05)."""
    import pytest as _pytest
    import ray.data as rd

    rows = [
        {"conv_id": f"conv-{i:08d}", "turn_idx": 0, "role": "user", "text": t,
         "tool": "", "ts": pd.Timestamp(2026, 1, 1)}
        for i, t in enumerate(TEXTS)
    ]
    ds = rd.from_arrow(pa.Table.from_pandas(pd.DataFrame(rows),
                                            preserve_index=False))
    idx = str(tmp_path / "resumecfg")
    with _pytest.raises(RuntimeError):
        build_index("mem", idx, EngineConfig(num_partitions=4),
                    transcripts_ds=ds, fail_after_parts=1)
    # a different partition count, hot-term salt shift (it decides each
    # hot posting's partition) or BM25 k1 (the manifest would keep the
    # saved one) is each refused
    for changed in (dict(num_partitions=8), dict(hot_term_salt_shift=6), dict(k1=2.0)):
        with _pytest.raises(ValueError, match="config differs"):
            build_index("mem", idx, EngineConfig(num_partitions=4).with_(**changed),
                        transcripts_ds=ds, resume=True)
    # original config resumes fine
    m = build_index("mem", idx, EngineConfig(num_partitions=4),
                    transcripts_ds=ds, resume=True)
    assert m.status == "complete"


def test_every_manifest_field_is_classified():
    """Each manifest field is index identity (compared by resume, merge
    and federation), corpus stats, or lineage/state — exactly one. A new
    field must be placed, which decides whether those paths compare it."""
    import dataclasses

    from hybrid_sanctions_search_engine_ray.state.manifest import (
        ANALYZER,
        LAYOUT,
        SCORING,
        IndexManifest,
    )

    groups = [SCORING, ANALYZER, LAYOUT,
              ("n_docs", "avgdl", "total_tokens", "n_terms"),
              ("version", "status", "hot_terms", "parts", "input_path")]
    placed = [n for g in groups for n in g]
    assert len(placed) == len(set(placed))
    assert sorted(placed) == sorted(f.name for f in dataclasses.fields(IndexManifest))


def _append_on_sorted_base(tmp_path, corpus_dir, append):
    """Build a text-less ``assume_sorted`` base over all but the last
    shard of ``corpus_dir``, ``append`` the last shard's rows to it, and
    check the result against a fresh build over every shard."""
    import shutil

    import pyarrow.dataset as pads
    import ray.data as rd

    def docmap_columns(idx):
        return pads.dataset(os.path.join(idx, "docmap.parquet")).schema.names

    cfg = EngineConfig(num_partitions=4, block_size=16, hot_term_df_ratio=0.2,
                       hot_term_salt_buckets=3, hot_term_salt_shift=6,
                       analyzer=AnalyzerConfig(mode="simple"))
    shards = sorted(f for f in os.listdir(corpus_dir) if f.endswith(".parquet"))
    base_src = tmp_path / "base_src"
    base_src.mkdir()
    for f in shards[:-1]:
        shutil.copy(os.path.join(corpus_dir, f), base_src / f)
    base = str(tmp_path / "base")
    build_index(str(base_src), base, cfg, assume_sorted=True)
    assert "text" not in docmap_columns(base)

    out = str(tmp_path / "appended")
    m = append(base, rd.read_parquet(os.path.join(corpus_dir, shards[-1])), out)
    assert m.status == "complete"
    assert docmap_columns(out) == docmap_columns(base)

    full = str(tmp_path / "full")
    build_index(corpus_dir, full, cfg, assume_sorted=True)
    got, want = IndexReader(out), IndexReader(full)
    assert (got.manifest.n_docs, got.manifest.total_tokens) == (
        want.manifest.n_docs, want.manifest.total_tokens)
    for q in ["payment transfer", "the", "tok00042 payment", "иванов иван",
              "tok00001 tok00007", "zzznothing"]:
        for k in (1, 10, 50):
            d1, s1 = got.search_one(q, k)
            d2, s2 = want.search_one(q, k)
            assert d1.tolist() == d2.tolist(), (q, k)
            assert np.allclose(s1, s2, rtol=0, atol=1e-9), (q, k)


def test_append_documents_on_assume_sorted_base(ray_session, tmp_path, corpus_dir):
    from hybrid_sanctions_search_engine_ray.pipelines.maintenance import append_documents

    _append_on_sorted_base(tmp_path, corpus_dir, append_documents)


def test_ingest_delta_on_assume_sorted_base(ray_session, tmp_path, corpus_dir):
    from hybrid_sanctions_search_engine_ray.pipelines.maintenance import ingest_delta

    _append_on_sorted_base(
        tmp_path, corpus_dir,
        lambda base, ds, out: ingest_delta(base, ds, out, delta_work_dir=str(tmp_path / "work")))


def test_compaction_plan_rerun_is_idempotent(ray_session, tmp_path):
    """A crash between the manifest save and the plan-file removal must
    not double-subtract on re-run: the plan carries ABSOLUTE
    post-compaction stats (code-review r05)."""
    import json as _json

    from hybrid_sanctions_search_engine_ray.pipelines.maintenance import (
        _run_plan,
        compact_index,
    )
    from hybrid_sanctions_search_engine_ray.state.manifest import IndexManifest

    idx, m0 = _build(tmp_path, "planidem", TEXTS)
    delete_docs(idx, [1])
    m1 = compact_index(idx)
    want = (m1.n_docs, m1.total_tokens, m1.avgdl)
    # simulate the crash window: re-run the SAME plan on the corrected
    # manifest (plan reconstructed as compact_index would have written)
    plan = {"tombstones": [1], "n_docs_removed": 1,
            "tokens_removed": m0.total_tokens - m1.total_tokens,
            "n_docs_after": m1.n_docs, "tokens_after": m1.total_tokens}
    import os as _os
    from hybrid_sanctions_search_engine_ray.pipelines.maintenance import _PLAN_FILE
    _json.dump(plan, open(_os.path.join(idx, _PLAN_FILE), "w"))
    m2 = _run_plan(idx, IndexManifest.load(idx), plan)
    assert (m2.n_docs, m2.total_tokens, m2.avgdl) == want


def test_compact_refuses_with_open_pit(ray_session, tmp_path):
    """Physically purging while a point-in-time snapshot is open would
    silently remove docs the PIT reader is promised (code-review r05)
    — compact_index must refuse until the PIT closes."""
    import pytest as _pytest

    from hybrid_sanctions_search_engine_ray.pipelines.maintenance import (
        close_point_in_time,
        compact_index,
        open_point_in_time,
    )

    idx, _ = _build(tmp_path, "pitc", TEXTS)
    pit = open_point_in_time(idx)
    delete_docs(idx, [1])
    with _pytest.raises(ValueError, match="point-in-time"):
        compact_index(idx)
    close_point_in_time(idx, pit)
    m = compact_index(idx)
    assert m.n_docs == len(TEXTS) - 1


def test_merge_refuses_analyzer_identity_mismatch(ray_session, tmp_path):
    """dedup_tokens / token bounds are part of the analyzer identity —
    merging indexes that disagree must refuse (code-review r05)."""
    import pytest as _pytest
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.config import AnalyzerConfig
    from hybrid_sanctions_search_engine_ray.pipelines.maintenance import merge_indexes

    rows = [
        {"conv_id": f"conv-{i:08d}", "turn_idx": 0, "role": "user", "text": t,
         "tool": "", "ts": pd.Timestamp(2026, 1, 1)}
        for i, t in enumerate(TEXTS)
    ]
    ds = lambda: rd.from_arrow(pa.Table.from_pandas(pd.DataFrame(rows),  # noqa: E731
                                                    preserve_index=False))
    a = str(tmp_path / "ma")
    b = str(tmp_path / "mb")
    build_index("mem", a, EngineConfig(num_partitions=4), transcripts_ds=ds())
    build_index("mem", b,
                EngineConfig(num_partitions=4,
                             analyzer=AnalyzerConfig(min_token_len=2)),
                transcripts_ds=ds())
    with _pytest.raises(ValueError, match="disagree"):
        merge_indexes([a, b], str(tmp_path / "mout"))


def test_merge_manifest_round_trips_analyzer(ray_session, tmp_path):
    """The merged manifest must carry the sources' full analyzer config
    so readers of the merged index tokenize like the builds did
    (code-review r05)."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.config import AnalyzerConfig
    from hybrid_sanctions_search_engine_ray.pipelines.maintenance import merge_indexes

    rows = lambda texts: [  # noqa: E731
        {"conv_id": f"conv-{i:08d}", "turn_idx": 0, "role": "user", "text": t,
         "tool": "", "ts": pd.Timestamp(2026, 1, 1)}
        for i, t in enumerate(texts)
    ]
    cfg = EngineConfig(num_partitions=4,
                       analyzer=AnalyzerConfig(min_token_len=2))
    a = str(tmp_path / "ra")
    b = str(tmp_path / "rb")
    build_index("mem", a, cfg, transcripts_ds=rd.from_arrow(
        pa.Table.from_pandas(pd.DataFrame(rows(TEXTS[:3])), preserve_index=False)))
    build_index("mem", b, cfg, transcripts_ds=rd.from_arrow(
        pa.Table.from_pandas(pd.DataFrame(rows(TEXTS[3:])), preserve_index=False)))
    merged = merge_indexes([a, b], str(tmp_path / "rout"))
    assert merged.min_token_len == 2


def test_static_prune_refuses_positional(ray_session, tmp_path):
    import pytest as _pytest

    from hybrid_sanctions_search_engine_ray.pipelines.maintenance import (
        static_prune_index,
    )

    idx, _ = _build(tmp_path, "prpos", TEXTS, store_positions=True)
    with _pytest.raises(ValueError, match="positional"):
        static_prune_index(idx, str(tmp_path / "prout"), top_n=1)


# --- batched compaction ---------------------------------------------------------

# Crafted so tombstoning docs 3 and 5 empties whole rows ("ghost",
# "hotel", "kilo", "lima", zulu's second sub-segment) and hits others
# partly (bravo's and zulu's sub-segments; zulu's max_tf drops 3 → 1).
COMPACT_TEXTS = [
    "alpha bravo charlie zulu",
    "alpha bravo delta",
    "alpha echo foxtrot",
    "ghost hotel zulu zulu zulu",
    "alpha india juliet",
    "kilo lima ghost bravo zulu",
    "bravo mike november",
    "oscar papa quebec",
    "alpha bravo romeo",
    "sierra tango uniform",
    "victor whiskey xray",
    "yankee alpha oscar",
]
COMPACT_DELETED = [3, 5]
# sha256 over every partition's postings.parquet (in partition order)
# after compaction, as written by the per-row compactor this batched one
# replaced; pinned for the parquet writer of this pyarrow version
COMPACT_PYARROW = "16.1.0"
COMPACT_DIGEST = "50890dd4590cc4747e57786810ca40430a2a2f324273534b4eb7287ec01c2f16"


def _segment_rows(idx: str) -> dict[int, list[dict]]:
    import pyarrow.parquet as pq

    from hybrid_sanctions_search_engine_ray.state.manifest import segment_dir

    out = {}
    for p in range(8):
        f = os.path.join(segment_dir(idx, p), "postings.parquet")
        if os.path.exists(f):
            out[p] = pq.read_table(f).to_pylist()
    return out


def test_compaction_drops_empty_rows_and_recomputes_stats(ray_session, tmp_path):
    import hashlib

    import ray.data as rd

    from oracle import OracleIndex

    from hybrid_sanctions_search_engine_ray.functions.codec import decode_posting
    from hybrid_sanctions_search_engine_ray.state.manifest import segment_dir

    rows = [{"conv_id": f"conv-{i:08d}", "turn_idx": 0, "role": "user", "text": t,
             "tool": "", "ts": pd.Timestamp(2026, 1, 1)} for i, t in enumerate(COMPACT_TEXTS)]
    ds = rd.from_arrow(pa.Table.from_pandas(pd.DataFrame(rows), preserve_index=False))
    idx = str(tmp_path / "bc")
    acfg = AnalyzerConfig(mode="simple")
    build_index("mem", idx, EngineConfig(num_partitions=8, max_postings_per_segment=2,
                                         analyzer=acfg), transcripts_ds=ds)
    before = _segment_rows(idx)

    def hit(r):
        return bool(set(decode_posting(r["docs"], r["tfs"], r["dls"])[0].tolist())
                    & set(COMPACT_DELETED))

    hit_parts = {p for p, rs in before.items() if any(hit(r) for r in rs)}
    clean_parts = set(before) - hit_parts
    assert hit_parts and clean_parts
    inode = {p: os.stat(os.path.join(segment_dir(idx, p), "postings.parquet")).st_ino
             for p in before}
    delete_docs(idx, COMPACT_DELETED)
    compact_index(idx)
    after = _segment_rows(idx)

    for p in clean_parts:  # no tombstoned posting: the file is not rewritten
        assert os.stat(os.path.join(segment_dir(idx, p), "postings.parquet")).st_ino == inode[p]
        assert after[p] == before[p]
    got = {(r["term"], r["seg_idx"]): r for rs in after.values() for r in rs}
    for term in ("ghost", "hotel", "kilo", "lima"):
        assert not [k for k in got if k[0] == term]
    assert ("zulu", 1) not in got  # its only posting was doc 5
    for r in got.values():
        d, t, _ = decode_posting(r["docs"], r["tfs"], r["dls"])
        assert not set(d.tolist()) & set(COMPACT_DELETED)
        assert (r["n_docs"], r["cf"], r["max_tf"]) == (d.size, int(t.sum()), int(t.max()))
    assert (got[("zulu", 0)]["n_docs"], got[("zulu", 0)]["max_tf"]) == (1, 1)
    assert ("bravo", 1) in got and got[("bravo", 1)]["n_docs"] == 1  # docs 5, 6 → 6

    if pa.__version__ == COMPACT_PYARROW:
        h = hashlib.sha256()
        for p in sorted(after):
            with open(os.path.join(segment_dir(idx, p), "postings.parquet"), "rb") as f:
                h.update(f.read())
        assert h.hexdigest() == COMPACT_DIGEST

    oracle = OracleIndex(acfg)
    for i, t in enumerate(COMPACT_TEXTS):
        if i not in COMPACT_DELETED:
            oracle.add(i, t)
    r = IndexReader(idx)
    for q in ("alpha bravo", "zulu", "bravo mike", "ghost hotel", "oscar alpha zulu"):
        docs, scores = r.search_one(q, 10)
        want = oracle.topk(q, 10)
        assert docs.tolist() == [d for d, _ in want]
        assert np.allclose(scores, [s for _, s in want], atol=1e-9)


def test_compact_drops_emptied_hot_term_placement(ray_session, tmp_path):
    """Deleting every doc of one salt bucket empties a hot term's
    placement in one partition; compaction must drop it from that
    partition's ``hot_terms_present`` or ``n_terms`` undercounts by one."""
    import ray.data as rd

    cfg = EngineConfig(hot_term_salt_buckets=8, hot_term_salt_shift=0)
    texts = [f"wire w{i}" for i in range(2000)]

    def build(name, keep):
        rows = [{"conv_id": f"conv-{i:08d}", "turn_idx": 0, "role": "user", "text": texts[i],
                 "tool": "", "ts": pd.Timestamp(2026, 1, 1)} for i in keep]
        ds = rd.from_arrow(pa.Table.from_pandas(pd.DataFrame(rows), preserve_index=False))
        idx = str(tmp_path / name)
        return idx, build_index("mem", idx, cfg, transcripts_ds=ds)

    idx, m = build("salted", range(len(texts)))
    assert "wire" in m.hot_terms
    delete_docs(idx, range(0, len(texts), 8))  # salt = doc_id % 8: bucket 0
    compacted = compact_index(idx)
    _, fresh = build("kept", [i for i in range(len(texts)) if i % 8])
    assert compacted.n_terms == fresh.n_terms == 1751


def test_static_prune_rerun_after_docmap_copy_crash(ray_session, tmp_path, monkeypatch):
    """A crash inside the docmap copy leaves nothing a re-run trusts:
    the re-run's docmap holds every source row."""
    import shutil

    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    from hybrid_sanctions_search_engine_ray.pipelines.maintenance import static_prune_index

    idx, m = _build(tmp_path, "prune_dm", TEXTS)
    out = str(tmp_path / "pruned_dm")

    def crashing_copytree(src, dst, *a, **kw):
        os.makedirs(dst, exist_ok=True)
        pq.write_table(pads.dataset(src).to_table().slice(0, 2),
                       os.path.join(dst, "part-0.parquet"))
        raise RuntimeError("crash inside copytree")

    monkeypatch.setattr(shutil, "copytree", crashing_copytree)
    with pytest.raises(RuntimeError, match="crash inside copytree"):
        static_prune_index(idx, out, top_n=2)
    monkeypatch.undo()
    static_prune_index(idx, out, top_n=2)
    assert pads.dataset(os.path.join(out, "docmap.parquet")).count_rows() == len(TEXTS)


def test_update_by_query_rerun_after_docmap_write_crash(ray_session, tmp_path, monkeypatch):
    """A crash inside the new docmap's write leaves nothing the re-run
    refuses: the re-run succeeds and equals an uninterrupted run."""
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.pipelines.maintenance import update_by_query

    cfg = EngineConfig(num_partitions=4, analyzer=AnalyzerConfig(mode="simple"))
    texts = ["alpha beta", "beta gamma", "alpha delta", "gamma delta", "epsilon"]
    rows = [{"conv_id": f"c-{i:04d}", "turn_idx": 0, "role": "user",
             "text": t, "tool": "", "ts": pd.Timestamp(2026, 1, 1)}
            for i, t in enumerate(texts)]
    idx = str(tmp_path / "ubq")
    build_index("mem", idx, cfg,
                transcripts_ds=rd.from_arrow(pa.Table.from_pandas(pd.DataFrame(rows), preserve_index=False)))

    def crashing_write(self, path, *a, **kw):
        os.makedirs(path, exist_ok=True)
        pq.write_table(pa.Table.from_pylist(self.take(2)), os.path.join(path, "part-0.parquet"))
        raise RuntimeError("crash inside write_parquet")

    out = str(tmp_path / "ubq_docmap")
    monkeypatch.setattr(rd.Dataset, "write_parquet", crashing_write)
    with pytest.raises(RuntimeError, match="crash inside write_parquet"):
        update_by_query(idx, "alpha gamma", out)
    monkeypatch.undo()
    stats = update_by_query(idx, "alpha gamma", out)
    clean = str(tmp_path / "ubq_clean") + "/"  # a trailing slash names the same dir
    assert update_by_query(idx, "alpha gamma", clean) == {**stats, "docmap_dir": clean}

    def docmap(d):
        return pads.dataset(d).to_table().to_pandas().sort_values("doc_id").reset_index(drop=True)

    pd.testing.assert_frame_equal(docmap(out), docmap(clean))
    assert docmap(out)["flag"].tolist() == [1, 1, 1, 1, 0]
    assert os.path.exists(os.path.join(out, "_UBQ_META.json"))
