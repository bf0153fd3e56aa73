"""Search-feature operators (pipelines/search_features.py): wildcard
expansion, field collapse, grouped top-hits, boosting, rescore, random
score, explain, term vectors, adjacency matrix — plus the pipeline-side
composite paging / bucket series / chunking operators."""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.dataset as pads
import pytest

from hybrid_sanctions_search_engine_ray.config import AnalyzerConfig, EngineConfig
from hybrid_sanctions_search_engine_ray.functions.bm25 import score_all, topk_desc
from hybrid_sanctions_search_engine_ray.pipelines import search_features as sfeat
from hybrid_sanctions_search_engine_ray.pipelines.index_build import build_index
from hybrid_sanctions_search_engine_ray.pipelines.query import (
    BM25Scorer,
    BooleanScorer,
    IndexReader,
    _result_frame,
    phrase_search,
)

CFG = EngineConfig(num_partitions=4, analyzer=AnalyzerConfig(mode="simple"))

TEXTS = [
    "alpha beta gamma delta",
    "beta alpha gamma delta epsilon",
    "the alpha beta gamma song",
    "unrelated words entirely here",
    "Beta, Gamma! alpha",
    "beta beta gamma zeta",
    "alpha alpha alpha",
    "gamma delta epsilon zeta",
    "alphabet soup beta",
]


@pytest.fixture(scope="module")
def feat_index(tmp_path_factory, ray_session):
    import ray.data as rd

    rows = [
        {"conv_id": f"conv-{i // 3:08d}", "turn_idx": i % 3, "role": "user", "text": t,
         "tool": "", "ts": pd.Timestamp(2026, 1, 1), "doc_id": i}
        for i, t in enumerate(TEXTS)
    ]
    ds = rd.from_arrow(pa.Table.from_pandas(pd.DataFrame(rows), preserve_index=False))
    idx = str(tmp_path_factory.mktemp("featidx") / "idx")
    build_index("mem", idx, CFG, transcripts_ds=ds, store_positions=True)
    return idx


def _brute_scores(index_dir: str, qtext: str) -> tuple[np.ndarray, np.ndarray]:
    r = IndexReader(index_dir)
    terms = sorted(set(r.analyzer(qtext)))
    return score_all(list(r.load_postings(terms).values()))


# --- wildcard ---------------------------------------------------------------


def test_wildcard_to_regex():
    assert sfeat.wildcard_to_regex("al*") == "^al.*$"
    assert sfeat.wildcard_to_regex("?eta") == "^.eta$"
    assert sfeat.wildcard_to_regex("a.b*") == r"^a\.b.*$"


def test_expand_wildcards(feat_index):
    out = sfeat.expand_wildcards(feat_index, {"a": "alph*", "b": "?eta", "z": "qqq*"})
    assert out["a"] == ["alpha", "alphabet"]
    assert out["b"] == ["beta", "zeta"]
    assert out["z"] == []


def test_wildcard_search_matches_expanded_or_query(feat_index, ray_session):
    res = sfeat.wildcard_search({"a": "alph*"}, feat_index, CFG, top_k=20).to_pandas()
    docs, scores = _brute_scores(feat_index, "alpha alphabet")
    d, s = topk_desc(docs, scores, 20)
    assert res["doc_id"].tolist() == d.astype(np.int64).tolist()
    assert np.allclose(res["score"].to_numpy(), s, atol=1e-9)


# --- collapse / top hits ----------------------------------------------------


def test_collapse_best_per_conv(feat_index):
    scorer = sfeat.CollapseScorer(feat_index, key="conv_id", default_top_k=10)
    out = scorer(pd.DataFrame({"query_id": ["q"], "query_text": ["beta gamma"]}))
    docs, scores = _brute_scores(feat_index, "beta gamma")
    df = pd.DataFrame({"doc_id": docs.astype(np.int64), "score": scores})
    df["conv"] = df["doc_id"] // 3
    df = df.sort_values(["score", "doc_id"], ascending=[False, True], kind="mergesort")
    best = df.groupby("conv", sort=False).head(1)
    assert out["doc_id"].tolist() == best["doc_id"].tolist()
    assert out[out.columns[1]].is_monotonic_increasing  # rank 1..n
    # one row per conversation
    assert out["conv_id"].is_unique


def test_top_hits_per_group(feat_index):
    scorer = sfeat.GroupTopHitsScorer(feat_index, key="turn_idx", per_group=2)
    out = scorer(pd.DataFrame({"query_id": ["q"], "query_text": ["beta gamma"]}))
    docs, scores = _brute_scores(feat_index, "beta gamma")
    df = pd.DataFrame({"doc_id": docs.astype(np.int64), "score": scores})
    df["turn"] = df["doc_id"] % 3
    df = df.sort_values(["score", "doc_id"], ascending=[False, True], kind="mergesort")
    want = df.groupby("turn", sort=True).head(2)
    assert sorted(out["doc_id"].tolist()) == sorted(want["doc_id"].tolist())
    assert (out.groupby("turn_idx")["rank"].max() <= 2).all()
    # within each group the rank follows (score desc, doc asc)
    for _, g in out.groupby("turn_idx"):
        assert g.sort_values("rank")["score"].is_monotonic_decreasing or len(g) == 1


# --- boosting ----------------------------------------------------------------


def test_boosting_demotes_negative_matches(feat_index):
    scorer = sfeat.BoostingScorer(feat_index, negative_boost=0.5, default_top_k=20)
    out = scorer(pd.DataFrame({"query_id": ["q"], "query_text": ["alpha"],
                               "negative": ["delta"]}))
    docs, scores = _brute_scores(feat_index, "alpha")
    base = dict(zip(docs.astype(np.int64).tolist(), scores.tolist()))
    r = IndexReader(feat_index)
    neg = set(r.load_postings(["delta"])["delta"].doc_ids.astype(np.int64).tolist())
    for _, row in out.iterrows():
        want = base[row["doc_id"]] * (0.5 if row["doc_id"] in neg else 1.0)
        assert abs(row["score"] - want) < 1e-12
    assert any(d in neg for d in out["doc_id"])  # demotion actually exercised


def test_boosting_no_negative_matches_is_plain_bm25(feat_index):
    scorer = sfeat.BoostingScorer(feat_index, negative_boost=0.5, default_top_k=20)
    out = scorer(pd.DataFrame({"query_id": ["q"], "query_text": ["alpha"],
                               "negative": ["qqqmissing"]}))
    docs, scores = _brute_scores(feat_index, "alpha")
    d, s = topk_desc(docs, scores, 20)
    assert out["doc_id"].tolist() == d.astype(np.int64).tolist()
    assert np.allclose(out["score"].to_numpy(), s, atol=0)


# --- rescore ------------------------------------------------------------------


def test_rescore_phrase_bonus_reranks_window(feat_index):
    scorer = sfeat.RescoreScorer(feat_index, window=50, weight=2.0, default_top_k=10)
    out = scorer(pd.DataFrame({"query_id": ["q"], "query_text": ["beta gamma"]}))
    # docs with the contiguous phrase "beta gamma" (analyzer-folded)
    phrase_docs = {0, 2, 4, 5}
    got = out.set_index("doc_id")["score"]
    docs, scores = _brute_scores(feat_index, "beta gamma")
    base = dict(zip(docs.astype(np.int64).tolist(), scores.tolist()))
    for d, s in got.items():
        assert abs(s - (base[d] + (2.0 if d in phrase_docs else 0.0))) < 1e-12
    # every phrase doc outranks every non-phrase doc (bonus dominates here)
    ranks = out.set_index("doc_id")["rank"]
    worst_phrase = max(ranks[d] for d in phrase_docs if d in ranks)
    best_plain = min((ranks[d] for d in ranks.index if d not in phrase_docs), default=99)
    assert worst_phrase < best_plain


def test_rescore_window_excludes_tail(feat_index):
    """Docs outside the first-pass window never surface, even with a
    phrase bonus that would lift them past the window docs."""
    full = sfeat.RescoreScorer(feat_index, window=50, weight=2.0, default_top_k=10)(
        pd.DataFrame({"query_id": ["q"], "query_text": ["beta gamma"]})
    )
    narrow = sfeat.RescoreScorer(feat_index, window=2, weight=2.0, default_top_k=10)(
        pd.DataFrame({"query_id": ["q"], "query_text": ["beta gamma"]})
    )
    assert len(narrow) == 2
    docs, scores = _brute_scores(feat_index, "beta gamma")
    w, _ = topk_desc(docs, scores, 2)
    assert set(narrow["doc_id"]) == set(w.astype(np.int64).tolist())
    assert len(full) > 2


# --- random score --------------------------------------------------------------


def test_random_score_deterministic_and_md5(feat_index):
    scorer = sfeat.RandomScoreScorer(feat_index, seed="7", default_top_k=20)
    q = pd.DataFrame({"query_id": ["q"], "query_text": ["alpha"]})
    a, b = scorer(q), scorer(q)
    pd.testing.assert_frame_equal(a, b)
    for _, row in a.iterrows():
        h = hashlib.md5((str(int(row["doc_id"])) + "7").encode()).digest()
        want = (int.from_bytes(h[:8], "little") % 1_000_000) / 1_000_000.0
        assert row["score"] == want
    assert a["score"].is_monotonic_decreasing


# --- explain / term vectors / adjacency -----------------------------------------


def test_explain_contributions_sum_to_score(feat_index):
    scorer = sfeat.ExplainScorer(feat_index, default_top_k=3)
    out = scorer(pd.DataFrame({"query_id": ["q"], "query_text": ["beta gamma delta"]}))
    docs, scores = _brute_scores(feat_index, "beta gamma delta")
    base = dict(zip(docs.astype(np.int64).tolist(), scores.tolist()))
    sums = out.groupby("doc_id")["contrib"].sum()
    for d, s in sums.items():
        assert abs(s - base[d]) < 1e-9
    assert set(out["rank"]) == {1, 2, 3}


def test_term_vectors(feat_index):
    texts = {0: TEXTS[0], 5: TEXTS[5]}
    out = sfeat.term_vectors(feat_index, [0, 5], texts)
    row = out[(out.doc_id == 5) & (out.term == "beta")].iloc[0]
    assert row["tf"] == 2
    beta_df = sum("beta" in t.lower() for t in TEXTS)
    assert row["df"] == beta_df
    assert out[(out.doc_id == 0)]["term"].tolist() == ["alpha", "beta", "delta", "gamma"]
    assert (out[out.doc_id == 0]["tf"] == 1).all()


def test_adjacency_matrix(feat_index):
    out = sfeat.adjacency_matrix(feat_index, {"a": "alpha", "b": "beta", "g": "gamma"})
    toks = [set(t.lower().replace(",", " ").replace("!", " ").split()) for t in TEXTS]
    n_a = sum("alpha" in s for s in toks)
    n_ab = sum("alpha" in s and "beta" in s for s in toks)
    got = dict(zip(out["key"], out["doc_count"]))
    assert got["a"] == n_a
    assert got["a&b"] == n_ab
    assert set(out["key"]) == {"a", "b", "g", "a&b", "a&g", "b&g"}


# --- pipeline-side operators ------------------------------------------------------


def test_chunk_documents_edges():
    from hybrid_sanctions_search_engine_ray.stages.textops import chunk_documents

    cfg = AnalyzerConfig(mode="simple")
    b = pa.table({
        "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
        "text": ["a b c d", "a b c d e", "", "x " * 9],  # dl 4, 5, 0, 9
    })
    t = chunk_documents(b, cfg, window=4, stride=3).to_pandas()
    assert t[t.doc_id == 1]["chunk_text"].tolist() == ["a b c d"]       # dl == window
    assert t[t.doc_id == 2]["chunk_text"].tolist() == ["a b c d", "d e"]
    assert 3 not in set(t["doc_id"])                                     # empty doc
    assert t[t.doc_id == 4]["n_tokens"].tolist() == [4, 4, 3]           # tail covered
    with pytest.raises(ValueError):
        chunk_documents(b, cfg, window=2, stride=3)


def test_composite_pages(ray_session):
    import ray.data as rd

    rows = [{"role": r, "turn_idx": t, "text": "x" * (t + 1)}
            for r in ("a", "b") for t in range(5) for _ in range(t + 1)]
    ds = rd.from_pandas(pd.DataFrame(rows))
    from hybrid_sanctions_search_engine_ray.stages.relational import composite_pages

    df = composite_pages(ds, ["role", "turn_idx"], page_size=3)
    assert len(df) == 10
    assert df["page"].tolist() == [1, 1, 1, 2, 2, 2, 3, 3, 3, 4]
    r = df[(df.role == "b") & (df.turn_idx == 4)].iloc[0]
    assert r["n_rows"] == 5 and r["sum_chars"] == 25


def test_bucket_series(ray_session):
    import ray.data as rd

    day = 86_400_000_000
    ts = pa.array([0, 1, day, day + 5, day * 3], pa.timestamp("us"))
    ds = rd.from_arrow(pa.table({"ts": ts}))
    from hybrid_sanctions_search_engine_ray.stages.windows import bucket_series

    df = bucket_series(ds, bucket_s=86400)
    # gap-filled (ES min_doc_count 0): bucket 2 exists with 0 events
    assert df["bucket"].tolist() == [0, 1, 2, 3]
    assert df["n_events"].tolist() == [2, 2, 0, 1]
    assert df["deriv"].tolist() == [2, 0, -2, 1]
    assert df["cum"].tolist() == [2, 4, 4, 5]


# --- span_near / dis_max -------------------------------------------------------


def _positions(text: str, term: str) -> list[int]:
    from hybrid_sanctions_search_engine_ray.functions.analyzer import get_analyzer

    toks = get_analyzer(AnalyzerConfig(mode="simple"))(text)
    return [i for i, t in enumerate(toks) if t == term]


def test_span_near_slop_semantics(feat_index):
    scorer = sfeat.SpanNearScorer(feat_index)
    # slop 0: only doc 1 has "alpha gamma" contiguous; slop 1 also
    # accepts one intervening token (docs 0 and 2); doc 4 has alpha
    # AFTER gamma, so in-order matching must never accept it
    for slop, want_docs in ((0, {1}), (1, {0, 1, 2})):
        out = scorer(pd.DataFrame({"query_id": ["q"], "query_text": ["alpha gamma"],
                                   "slop": [slop], "top_k": [10]}))
        got = set(out["doc_id"].tolist())
        # brute force: exists alpha at p, gamma at p' with 1 <= p'-p <= slop+1
        brute = set()
        for d, t in enumerate(TEXTS):
            pa_, pg = _positions(t, "alpha"), _positions(t, "gamma")
            if any(1 <= q - p <= slop + 1 for p in pa_ for q in pg):
                brute.add(d)
        assert got == brute == want_docs, (slop, got, brute)


def test_span_near_scores_are_bm25(feat_index):
    scorer = sfeat.SpanNearScorer(feat_index)
    out = scorer(pd.DataFrame({"query_id": ["q"], "query_text": ["beta gamma"],
                               "slop": [0], "top_k": [10]}))
    docs, scores = _brute_scores(feat_index, "beta gamma")
    base = dict(zip(docs.astype(np.int64).tolist(), scores.tolist()))
    for _, row in out.iterrows():
        assert abs(row["score"] - base[row["doc_id"]]) < 1e-12


def test_dis_max_combines_clauses(feat_index):
    scorer = sfeat.DisMaxScorer(feat_index, tie_breaker=0.3)
    out = scorer(pd.DataFrame({"query_id": ["q"], "clause_a": ["alpha"],
                               "clause_b": ["gamma delta"], "top_k": [20]}))
    da, sa = _brute_scores(feat_index, "alpha")
    db, sb = _brute_scores(feat_index, "gamma delta")
    a = dict(zip(da.astype(np.int64).tolist(), sa.tolist()))
    b = dict(zip(db.astype(np.int64).tolist(), sb.tolist()))
    for _, row in out.iterrows():
        xs = [x for x in (a.get(row["doc_id"]), b.get(row["doc_id"])) if x is not None]
        want = max(xs) + 0.3 * (sum(xs) - max(xs))
        assert abs(row["score"] - want) < 1e-12
    assert set(out["doc_id"]) == set(a) | set(b)


def test_dis_max_single_clause_match_is_plain(feat_index):
    scorer = sfeat.DisMaxScorer(feat_index, tie_breaker=0.3)
    out = scorer(pd.DataFrame({"query_id": ["q"], "clause_a": ["zeta"],
                               "clause_b": ["qqqmissing"], "top_k": [20]}))
    dz, sz = _brute_scores(feat_index, "zeta")
    assert out["doc_id"].tolist() == dz.astype(np.int64).tolist()
    assert np.allclose(out["score"], sz, atol=0)


# --- percentile_ranks / doc keywords / pack bins ----------------------------------


def test_percentile_ranks(ray_session):
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.relational import percentile_ranks

    df = pd.DataFrame({"k": ["a"] * 4 + ["b"] * 5,
                       "v": [0.5, 1.0, 2.0, 9.0, 1.5, 2.5, 3.5, 4.5, 5.5]})
    out = percentile_ranks(rd.from_pandas(df), "k", "v", [1.0, 5.0])
    a = out[out.k == "a"].iloc[0]
    assert a["n_rows"] == 4 and a["pr_0"] == 0.5 and a["pr_1"] == 0.75
    b = out[out.k == "b"].iloc[0]
    assert b["pr_0"] == 0.0 and b["pr_1"] == 0.8


def test_doc_keywords_topk(ray_session):
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.functions.bm25 import idf as bm25_idf
    from hybrid_sanctions_search_engine_ray.stages.tfidf import word_doc_keywords

    texts = ["rare rare common", "common other", "common rare"]
    df_map = {"rare": 2, "common": 3, "other": 1}
    ds = rd.from_pandas(pd.DataFrame({"doc_id": [0, 1, 2], "text": texts}))
    out = word_doc_keywords(ds, AnalyzerConfig(mode="simple"), df_map, n_docs=3, k=2)
    out = out.to_pandas().sort_values(["doc_id", "rank"]).reset_index(drop=True)
    d0 = out[out.doc_id == 0]
    assert d0["term"].tolist() == ["rare", "common"]   # tf=2 × idf(2) beats tf=1 × idf(3)
    assert abs(d0["score"].iloc[0] - 2 * bm25_idf(3, 2)) < 1e-12
    d1 = out[out.doc_id == 1]
    assert d1["term"].tolist() == ["other", "common"]  # rarest term wins
    assert (out.groupby("doc_id")["rank"].max() <= 2).all()


def test_pack_bins_prefix_sum(ray_session):
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.relational import pack_bins

    # doc i has i+1 tokens; budget 5 → packs from exclusive prefix sums
    texts = [" ".join(["w"] * (i + 1)) for i in range(8)]
    ds = rd.from_pandas(pd.DataFrame({"doc_id": range(8), "text": texts}))
    out = pack_bins(ds, AnalyzerConfig(mode="simple"), budget=5, range_size=3)
    out = out.to_pandas().sort_values("doc_id").reset_index(drop=True)
    n = np.arange(1, 9)
    before = np.cumsum(n) - n
    assert out["n_tokens"].tolist() == n.tolist()
    assert out["pack_id"].tolist() == (before // 5).tolist()
    # packs are contiguous, nondecreasing runs
    assert (np.diff(out["pack_id"]) >= 0).all()


# --- fuzzy_search / match_phrase_prefix --------------------------------------------


def test_fuzzy_search_expands_typos(feat_index, ray_session):
    import ray.data as rd

    vocab_terms = sorted({t for txt in TEXTS for t in
                          txt.lower().replace(",", " ").replace("!", " ").split()})
    vocab = rd.from_pandas(pd.DataFrame({"term": vocab_terms}))
    out = sfeat.fuzzy_search({"f": "alpa"}, feat_index, vocab, CFG,
                             max_dist=1, topn=5, top_k=20).to_pandas()
    # within distance 1 only "alpha" matches "alpa"
    docs, scores = _brute_scores(feat_index, "alpha")
    d, s = topk_desc(docs, scores, 20)
    assert out["doc_id"].tolist() == d.astype(np.int64).tolist()
    assert np.allclose(out["score"], s, atol=0)


def test_fuzzy_search_no_expansion_empty(feat_index, ray_session):
    import ray.data as rd

    vocab = rd.from_pandas(pd.DataFrame({"term": ["alpha", "beta"]}))
    out = sfeat.fuzzy_search({"f": "zzzzzzzz"}, feat_index, vocab, CFG).to_pandas()
    assert len(out) == 0


def test_match_phrase_prefix(feat_index, ray_session):
    out = sfeat.match_phrase_prefix({"m": "beta gam"}, feat_index, CFG, top_k=10).to_pandas()
    # docs with contiguous "beta gamma" (gam* expands to gamma only)
    assert set(out["doc_id"]) == {0, 2, 4, 5}
    docs, scores = _brute_scores(feat_index, "beta gamma")
    base = dict(zip(docs.astype(np.int64).tolist(), scores.tolist()))
    for _, row in out.iterrows():
        assert abs(row["score"] - base[row["doc_id"]]) < 1e-12


def test_match_phrase_prefix_order_matters(feat_index, ray_session):
    # "alphabet soup" exists; "soup alphab*" (reversed) must not match
    out = sfeat.match_phrase_prefix({"m": "soup alphab"}, feat_index, CFG).to_pandas()
    assert len(out) == 0
    fwd = sfeat.match_phrase_prefix({"m": "alphabet sou"}, feat_index, CFG).to_pandas()
    assert set(fwd["doc_id"]) == {8}


# --- query_string / extended_stats ---------------------------------------------


def test_parse_query_string():
    p = sfeat.parse_query_string("+customer +table scan -window")
    assert p == {"must": "customer table", "should": "scan", "must_not": "window"}
    assert sfeat.parse_query_string("-the data") == {"must": "", "should": "data",
                                                     "must_not": "the"}
    # bare signs are lenient should tokens
    assert sfeat.parse_query_string("+ - x")["should"] == "+ - x"


def test_query_string_matches_boolean(feat_index, ray_session):
    out = sfeat.query_string_search({"q": "+beta gamma -zeta"}, feat_index, CFG,
                                    top_k=10).to_pandas()
    r = IndexReader(feat_index)
    docs, scores = r.search_one_boolean("beta", "gamma", "zeta", top_k=10)
    assert out["doc_id"].tolist() == docs.astype(np.int64).tolist()
    assert np.allclose(out["score"], scores, atol=0)


def test_extended_stats_exact(ray_session):
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.relational import extended_stats

    df = pd.DataFrame({"k": ["a"] * 4 + ["b"] * 2, "v": [1.0, 2.0, 3.0, 6.0, 5.0, 5.0]})
    out = extended_stats(rd.from_pandas(df), "k", "v")
    a = out[out.k == "a"].iloc[0]
    assert a["n_rows"] == 4 and a["sum_v"] == 12 and a["min_v"] == 1 and a["max_v"] == 6
    assert a["avg_v"] == 3.0
    # population variance of [1,2,3,6] = (50 - 144/4)/4 = 3.5
    assert a["var_v"] == 3.5
    b = out[out.k == "b"].iloc[0]
    assert b["var_v"] == 0.0 and b["avg_v"] == 5.0


def test_extended_stats_rejects_fractional(ray_session):
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.relational import extended_stats

    ds = rd.from_pandas(pd.DataFrame({"k": ["a"], "v": [1.5]}))
    with pytest.raises(Exception):
        extended_stats(ds, "k", "v").to_string()


def test_has_parent_expands_top_convs(feat_index):
    scorer = sfeat.HasParentScorer(feat_index, key="conv_id", default_top_k=2)
    out = scorer(pd.DataFrame({"query_id": ["q"], "query_text": ["beta gamma"]}))
    docs, scores = _brute_scores(feat_index, "beta gamma")
    df = pd.DataFrame({"doc_id": docs.astype(np.int64), "score": scores})
    df["conv"] = df["doc_id"] // 3
    best = df.groupby("conv")["score"].max().sort_values(ascending=False)
    top2 = list(best.index[:2])
    # every turn of each top conv present, parent score inherited
    for conv in top2:
        got = out[out.conv_id == f"conv-{conv:08d}"]
        members = {d for d in range(9) if d // 3 == conv}
        assert set(got["doc_id"]) == members
        assert np.allclose(got["score"], best[conv], atol=1e-12)
    assert set(out["rank"]) == {1, 2}


# --- MMR / count ------------------------------------------------------------------


def test_mmr_greedy_brute_force(feat_index, tmp_path):
    import pyarrow.parquet as pq

    # docs file for candidate text lookup
    src = str(tmp_path / "docs.parquet")
    pq.write_table(pa.table({"doc_id": pa.array(range(len(TEXTS)), pa.int64()),
                             "text": TEXTS}), src)
    scorer = sfeat.MMRScorer(feat_index, src, window=6, lam=0.7, default_top_k=4)
    out = scorer(pd.DataFrame({"query_id": ["q"], "query_text": ["beta gamma"]}))
    # brute-force replay
    docs, scores = _brute_scores(feat_index, "beta gamma")
    w, ws = topk_desc(docs, scores, 6)
    w = w.astype(np.int64)
    grams = [sfeat._char3_set(TEXTS[d]) for d in w]
    rel = ws / ws[0]
    chosen: list[int] = []
    max_sim = np.zeros(w.size)
    avail = set(range(w.size))
    for _ in range(4):
        best, best_gain = None, -np.inf
        for j in sorted(avail, key=lambda j: (int(w[j]))):
            g = 0.7 * rel[j] - 0.3 * max_sim[j]
            if g > best_gain + 1e-15:
                best, best_gain = j, g
        avail.discard(best)
        chosen.append(best)
        gb = grams[best]
        for j in avail:
            u = len(gb | grams[j])
            s = len(gb & grams[j]) / u if u else 0.0
            max_sim[j] = max(max_sim[j], s)
    assert out["doc_id"].tolist() == [int(w[j]) for j in chosen]
    # first pick is always the top BM25 hit; later picks trade relevance
    # for diversity
    assert out["doc_id"].iloc[0] == int(w[0])


def test_match_count(feat_index):
    scorer = sfeat.CountScorer(feat_index)
    out = scorer(pd.DataFrame({"query_id": ["a", "z"], "query_text": ["beta gamma", "qqq"]}))
    n_docs_matching = sum(1 for t in TEXTS
                          if "beta" in t.lower() or "gamma" in t.lower())
    assert out[out.query_id == "a"]["n_matches"].iloc[0] == n_docs_matching
    assert out[out.query_id == "z"]["n_matches"].iloc[0] == 0


def test_match_phrase_prefix_single_token(feat_index, ray_session):
    """Single-token phrase prefix == plain prefix match (review fix)."""
    out = sfeat.match_phrase_prefix({"m": "alphab"}, feat_index, CFG).to_pandas()
    assert set(out["doc_id"]) == {8}  # "alphabet soup beta"


def test_match_phrase_prefix_expansion_overlaps_fixed(tmp_path_factory, ray_session):
    """A prefix expansion that equals a fixed token still matches at the
    final position (review fix: 'tab tab' over 'tab tab table')."""
    import ray.data as rd

    texts = ["tab tab table", "tab once", "table tab"]
    rows = [{"conv_id": "c", "turn_idx": i, "role": "user", "text": t,
             "tool": "", "ts": pd.Timestamp(2026, 1, 1), "doc_id": i}
            for i, t in enumerate(texts)]
    ds = rd.from_arrow(pa.Table.from_pandas(pd.DataFrame(rows), preserve_index=False))
    idx = str(tmp_path_factory.mktemp("mppidx") / "idx")
    build_index("mem", idx, CFG, transcripts_ds=ds, store_positions=True)
    out = sfeat.match_phrase_prefix({"m": "tab tab"}, idx, CFG).to_pandas()
    assert set(out["doc_id"]) == {0}


def test_weighted_fusion_many_arithmetic():
    from hybrid_sanctions_search_engine_ray.functions.fusion import weighted_fusion_many

    docs, fused = weighted_fusion_many(
        [
            (np.array([1, 2]), np.array([4.0, 2.0])),      # norm: 1.0, 0.5
            (np.array([2, 3]), np.array([3.0, 3.0])),      # norm: 1.0, 1.0
            (np.array([1]), np.array([0.8])),              # norm: 1.0
        ],
        [0.5, 0.3, 0.2],
        top_k=10,
    )
    want = {1: 0.5 * 1.0 + 0.2 * 1.0, 2: 0.5 * 0.5 + 0.3 * 1.0, 3: 0.3 * 1.0}
    got = dict(zip(docs.tolist(), fused.tolist()))
    for d, w in want.items():
        assert abs(got[d] - w) < 1e-12
    # ranked by fused desc, doc asc
    assert docs.tolist() == [1, 2, 3]
    # empty lists are skipped, weights renormalize over ALL weights
    d2, f2 = weighted_fusion_many(
        [(np.array([], dtype=np.int64), np.array([])), (np.array([7]), np.array([2.0]))],
        [0.5, 0.5],
    )
    assert d2.tolist() == [7] and abs(f2[0] - 0.5) < 1e-12


# --- multi_match (cross-field combinator) -----------------------------------


@pytest.fixture(scope="module")
def mm_field_dirs(tmp_path_factory, ray_session):
    """Word + shingle + char3 field indexes over the SAME TEXTS corpus."""
    import ray.data as rd

    rows = [
        {"conv_id": f"conv-{i // 3:08d}", "turn_idx": i % 3, "role": "user", "text": t,
         "tool": "", "ts": pd.Timestamp(2026, 1, 1), "doc_id": i}
        for i, t in enumerate(TEXTS)
    ]
    dirs = []
    for mode in ("simple", "shingle", "char3"):
        ds = rd.from_arrow(pa.Table.from_pandas(pd.DataFrame(rows), preserve_index=False))
        idx = str(tmp_path_factory.mktemp(f"mm_{mode}") / "idx")
        build_index("mem", idx, EngineConfig(num_partitions=4, analyzer=AnalyzerConfig(mode=mode)),
                    transcripts_ds=ds)
        dirs.append(idx)
    return dirs


def _field_scores(index_dir: str, qtext: str, boost: float) -> dict[int, float]:
    r = IndexReader(index_dir)
    terms = sorted(set(r.analyzer(qtext)))
    d, s = score_all(list(r.load_postings(terms).values()))
    return dict(zip(d.astype(np.int64).tolist(), (s * boost).tolist()))


MM_BOOSTS = (1.0, 0.6, 0.3)


def test_multi_match_best_fields_is_dismax_over_fields(mm_field_dirs):
    scorer = sfeat.MultiMatchScorer(mm_field_dirs, list(MM_BOOSTS),
                                    match_type="best_fields", tie_breaker=0.3)
    out = scorer(pd.DataFrame({"query_id": ["q"], "query_text": ["alpha gamma"], "top_k": [50]}))
    per_field = [_field_scores(d, "alpha gamma", b) for d, b in zip(mm_field_dirs, MM_BOOSTS)]
    union = set().union(*per_field)
    assert set(out["doc_id"]) == union
    for _, row in out.iterrows():
        xs = [f[row["doc_id"]] for f in per_field if row["doc_id"] in f]
        want = max(xs) + 0.3 * (sum(xs) - max(xs))
        assert abs(row["score"] - want) < 1e-12


def test_multi_match_most_fields_is_sum(mm_field_dirs):
    scorer = sfeat.MultiMatchScorer(mm_field_dirs, list(MM_BOOSTS),
                                    match_type="most_fields")
    out = scorer(pd.DataFrame({"query_id": ["q"], "query_text": ["beta delta"], "top_k": [50]}))
    per_field = [_field_scores(d, "beta delta", b) for d, b in zip(mm_field_dirs, MM_BOOSTS)]
    for _, row in out.iterrows():
        want = sum(f.get(row["doc_id"], 0.0) for f in per_field)
        assert abs(row["score"] - want) < 1e-12


def test_multi_match_typo_retrieves_via_trigram_field(mm_field_dirs):
    # "alpa" is not a corpus word: the word and shingle fields score
    # nothing, but the char3 field shares grams with "alpha"/"alphabet"
    scorer = sfeat.MultiMatchScorer(mm_field_dirs, list(MM_BOOSTS),
                                    match_type="best_fields", tie_breaker=0.3)
    out = scorer(pd.DataFrame({"query_id": ["q"], "query_text": ["alpa"], "top_k": [50]}))
    assert len(out) > 0
    word_hits = _field_scores(mm_field_dirs[0], "alpa", 1.0)
    assert not word_hits
    gram_hits = _field_scores(mm_field_dirs[2], "alpa", MM_BOOSTS[2])
    assert set(out["doc_id"]) == set(gram_hits)
    for _, row in out.iterrows():
        assert abs(row["score"] - gram_hits[row["doc_id"]]) < 1e-12


def test_multi_match_rejects_bad_type(mm_field_dirs):
    with pytest.raises(ValueError):
        sfeat.MultiMatchScorer(mm_field_dirs, list(MM_BOOSTS), match_type="cross_fields")


# --- pinned query -------------------------------------------------------------


def test_pinned_promotes_and_excludes(feat_index):
    out = sfeat.pinned_search({"q": ("alpha beta", [8, 3])}, feat_index,
                              EngineConfig(num_partitions=4), top_k=5)
    # promoted ids first, in the GIVEN order (8 before 3)
    assert out.iloc[0][["doc_id", "rank", "pinned"]].tolist() == [8, 1, 1]
    assert out.iloc[1][["doc_id", "rank", "pinned"]].tolist() == [3, 2, 1]
    # organic fills the remainder, promoted ids excluded, ranks contiguous
    organic = out[out["pinned"] == 0]
    assert len(out) == 5 and organic["rank"].tolist() == [3, 4, 5]
    assert not set(organic["doc_id"]) & {8, 3}
    # organic order = plain BM25 order with pins removed
    d, s = _brute_scores(feat_index, "alpha beta")
    order = [int(x) for x in d[np.argsort(-s, kind="stable")] if int(x) not in (8, 3)]
    assert organic["doc_id"].tolist() == order[:3]


def test_pinned_no_pins_is_plain_search(feat_index):
    out = sfeat.pinned_search({"q": ("gamma", [])}, feat_index,
                              EngineConfig(num_partitions=4), top_k=4)
    assert (out["pinned"] == 0).all()
    d, s = _brute_scores(feat_index, "gamma")
    assert out["doc_id"].tolist() == [int(x) for x in d[np.argsort(-s, kind="stable")]][:4]


# --- field sort / mget ----------------------------------------------------------


def test_field_sort_orders_by_docmap_keys(feat_index):
    scorer = sfeat.FieldSortScorer(feat_index, ("conv_id", "turn_idx"))
    out = scorer(pd.DataFrame({"query_id": ["q"], "query_text": ["alpha"], "top_k": [20]}))
    d, _ = _brute_scores(feat_index, "alpha")
    # candidate set = OR match; order = (conv_id, turn_idx) == doc_id order here
    assert out["doc_id"].tolist() == sorted(int(x) for x in d)
    assert out["rank"].tolist() == list(range(1, len(d) + 1))
    # conv-00000001 rows (docs 3-5) come after conv-00000000 (docs 0-2)
    assert out["conv_id"].is_monotonic_increasing


def test_field_sort_zero_hit(feat_index):
    scorer = sfeat.FieldSortScorer(feat_index, ("conv_id", "turn_idx"))
    out = scorer(pd.DataFrame({"query_id": ["q"], "query_text": ["qqqmissing"], "top_k": [5]}))
    assert len(out) == 0


def test_mget_found_and_missing(feat_index):
    out = sfeat.mget(feat_index, [2, 10**9, 0])
    got = out.set_index("doc_id")
    assert got.loc[0, "found"] == 1 and got.loc[2, "found"] == 1
    assert got.loc[10**9, "found"] == 0
    assert got.loc[10**9, "conv_id"] == "" and got.loc[10**9, "turn_idx"] == -1
    assert got.loc[2, "conv_id"] == "conv-00000000" and got.loc[2, "turn_idx"] == 2


# --- terms_enum / phrase_suggest --------------------------------------------------


def test_terms_enum_prefix_and_order(feat_index):
    out = sfeat.terms_enum(feat_index, "alpha", size=10)
    # corpus words starting with "alpha": alpha, alphabet
    assert out["term"].tolist() == ["alpha", "alphabet"]
    assert out["rank"].tolist() == [1, 2]
    assert len(sfeat.terms_enum(feat_index, "zzz", 5)) == 0
    # size truncates the lexicographic head
    one = sfeat.terms_enum(feat_index, "alpha", size=1)
    assert one["term"].tolist() == ["alpha"]


def test_phrase_suggest_collates_by_shingle_df(tmp_path_factory, ray_session):
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.pipelines.index_build import build_index

    texts = ["alpha beta song", "alpha beta dance", "alpha gamma once", "beta gamma"]
    rows = [{"conv_id": f"c{i}", "turn_idx": 0, "role": "user", "text": t,
             "tool": "", "ts": pd.Timestamp(2026, 1, 1), "doc_id": i}
            for i, t in enumerate(texts)]
    sh = str(tmp_path_factory.mktemp("ps") / "sh")
    build_index("mem", sh, EngineConfig(num_partitions=2, analyzer=AnalyzerConfig(mode="shingle")),
                transcripts_ds=rd.from_pandas(pd.DataFrame(rows)))
    vocab = rd.from_pandas(pd.DataFrame(
        {"term": ["alpha", "beta", "gamma", "song", "dance", "once"],
         "df": [3, 3, 2, 1, 1, 1]}))
    out = sfeat.phrase_suggest({"q": "alpah betta"}, sh, vocab, max_dist=2, topn=3, top_k=3)
    # "alpha beta" occurs in 2 docs, "alpha gamma"/"beta gamma" in 1 each;
    # expansion of "alpah"->{alpha}, "betta"->{beta, gamma? dist(betta,gamma)=4 no}
    assert out.iloc[0]["suggestion"] == "alpha beta" and out.iloc[0]["df"] == 2
    # a phrase with no expandable term yields nothing, not an error
    none = sfeat.phrase_suggest({"q": "qqqqqqq zzzzzzz"}, sh, vocab)
    assert len(none) == 0


def test_span_near_unordered_semantics(feat_index):
    scorer = sfeat.SpanNearScorer(feat_index, in_order=False)
    # "gamma alpha": in REVERSED doc order everywhere; unordered must match
    # wherever the minimal window width - 2 <= slop
    for slop, want_docs in ((0, {1, 4}), (1, {0, 1, 2, 4})):
        out = scorer(pd.DataFrame({"query_id": ["q"], "query_text": ["gamma alpha"],
                                   "slop": [slop], "top_k": [10]}))
        brute = set()
        for d, t in enumerate(TEXTS):
            pa_, pg = _positions(t, "alpha"), _positions(t, "gamma")
            if pa_ and pg and min(abs(p - q) for p in pa_ for q in pg) - 1 <= slop:
                brute.add(d)
        assert set(out["doc_id"].tolist()) == brute == want_docs, (slop, brute)


def test_span_near_unordered_three_terms_window(tmp_path_factory, ray_session):
    import ray.data as rd

    texts = ["alpha xx beta gamma", "gamma yy alpha zz zz beta"]
    rows = [{"conv_id": f"c{i}", "turn_idx": 0, "role": "user", "text": t,
             "tool": "", "ts": pd.Timestamp(2026, 1, 1), "doc_id": i}
            for i, t in enumerate(texts)]
    idx = str(tmp_path_factory.mktemp("spu") / "idx")
    build_index("mem", idx, CFG, transcripts_ds=rd.from_pandas(pd.DataFrame(rows)),
                store_positions=True)
    scorer = sfeat.SpanNearScorer(idx, in_order=False)
    # doc0 window [0,3] width 4 -> slack 1; doc1 window [0,5] width 6 -> slack 3
    for slop, want in ((0, set()), (1, {0}), (3, {0, 1})):
        out = scorer(pd.DataFrame({"query_id": ["q"], "query_text": ["beta gamma alpha"],
                                   "slop": [slop], "top_k": [10]}))
        assert set(out["doc_id"].tolist()) == want, (slop, set(out["doc_id"]))


def test_span_near_unordered_repeated_term_needs_two_positions(feat_index):
    scorer = sfeat.SpanNearScorer(feat_index, in_order=False)
    # "alpha alpha": two clauses of the same term need TWO distinct
    # positions within the window; doc 6 ("alpha alpha alpha") matches at
    # slop 0, docs with a single "alpha" never do
    out = scorer(pd.DataFrame({"query_id": ["q"], "query_text": ["alpha alpha"],
                               "slop": [0], "top_k": [10]}))
    brute = {d for d, t in enumerate(TEXTS)
             if len(_positions(t, "alpha")) >= 2
             and min(np.diff(_positions(t, "alpha"))) <= 1}
    assert set(out["doc_id"].tolist()) == brute
    assert 6 in brute and 0 not in set(out["doc_id"].tolist())


def test_pinned_skips_unknown_doc_ids(feat_index):
    out = sfeat.pinned_search({"q": ("alpha", [10**9, 5])}, feat_index,
                              EngineConfig(num_partitions=4), top_k=4)
    # the phantom id is dropped; the surviving pin leads, organic shifts up
    assert 10**9 not in set(out["doc_id"])
    assert out.iloc[0][["doc_id", "pinned", "rank"]].tolist() == [5, 1, 1]
    assert len(out) == 4


def test_rank_feature_saturation_boost(feat_index):
    scorer = sfeat.FeatureScorer(feat_index, "turn_idx", "saturation",
                                 boost=1.5, pivot=2.0, default_top_k=10)
    out = scorer(pd.DataFrame({"query_id": ["q"], "query_text": ["alpha"], "top_k": [10]}))
    docs, scores = _brute_scores(feat_index, "alpha")
    r = IndexReader(feat_index)
    want = {int(d): s + 1.5 * ((d % 3) / ((d % 3) + 2.0))
            for d, s in zip(docs.astype(np.int64), scores)}
    got = dict(zip(out["doc_id"], out["score"]))
    assert got.keys() == want.keys()
    for d in want:
        assert abs(got[d] - want[d]) < 1e-12
    with pytest.raises(ValueError, match="mode"):
        sfeat.FeatureScorer(feat_index, mode="quadratic")


def test_distance_feature_prefers_origin(feat_index):
    scorer = sfeat.FeatureScorer(feat_index, "turn_idx", "distance",
                                 boost=2.0, pivot=1.0, origin=0.0, default_top_k=10)
    out = scorer(pd.DataFrame({"query_id": ["q"], "query_text": ["gamma"], "top_k": [10]}))
    got = dict(zip(out["doc_id"], out["score"]))
    docs, scores = _brute_scores(feat_index, "gamma")
    base = dict(zip(docs.astype(np.int64), scores))
    for d, s in got.items():
        assert abs(s - (base[d] + 2.0 / (1.0 + (d % 3)))) < 1e-12


def test_span_first_position_gate(feat_index):
    scorer = sfeat.SpanFirstScorer(feat_index, default_top_k=10)
    # "beta" first positions: doc0@1 doc1@0 doc2@2 doc4@0 doc5@0 doc8@2
    out = scorer(pd.DataFrame({"query_id": ["q"], "query_text": ["beta"],
                               "end": [1], "top_k": [10]}))
    assert set(out["doc_id"].tolist()) == {1, 4, 5}
    out2 = scorer(pd.DataFrame({"query_id": ["q"], "query_text": ["beta"],
                                "end": [3], "top_k": [10]}))
    assert set(out2["doc_id"].tolist()) == {0, 1, 2, 4, 5, 8}
    with pytest.raises(Exception, match="single span_term"):
        scorer(pd.DataFrame({"query_id": ["q"], "query_text": ["alpha beta"],
                             "end": [1], "top_k": [10]}))


def test_match_bool_prefix_constant_score(feat_index, ray_session):
    # complete term "delta" scored BM25; prefix "alph*" adds +1.0 constant
    out = sfeat.match_bool_prefix({"q": "delta alph"}, feat_index, CFG, top_k=20).to_pandas()
    docs, scores = _brute_scores(feat_index, "delta")
    base = dict(zip(docs.astype(np.int64), scores))
    exp = sfeat.expand_wildcards(feat_index, {"q": "alph*"})["q"]
    r = IndexReader(feat_index)
    alt_docs = set()
    for t in exp:
        alt_docs.update(r.load_postings([t])[t].doc_ids.astype(np.int64).tolist())
    got = dict(zip(out["doc_id"], out["score"]))
    assert set(got) == set(base) | alt_docs
    for d, s in got.items():
        want = base.get(d, 0.0) + (1.0 if d in alt_docs else 0.0)
        assert abs(s - want) < 1e-12
    # doc 8 ("alphabet soup beta") matches only via the prefix → exactly 1.0
    assert abs(got[8] - 1.0) < 1e-15


def test_diversified_sample_ids_one_per_conv():
    from hybrid_sanctions_search_engine_ray.stages import facets

    class FakeReader:
        def analyzer(self, q):
            return q.split()

        def load_postings(self, terms):
            class P:
                doc_ids = np.array([0, 1, 2, 3, 6, 7], dtype=np.uint64)
                factors = np.array([1.0, 5.0, 4.0, 3.0, 2.0, 2.5])
                idf = 1.0
            return {terms[0]: P()}

    # rank order: 1(5.0) 2(4.0) 3(3.0) 7(2.5) 6(2.0) 0(1.0); stride 3 convs:
    # 1→c0, 2→c0(skip), 3→c1, 7→c2, 6→c2(skip), 0→c0(skip)
    ids = facets.diversified_sample_ids(FakeReader(), "x", 10, stride=3)
    assert ids.tolist() == [1, 3, 7]
    ids2 = facets.diversified_sample_ids(FakeReader(), "x", 2, stride=3)
    assert ids2.tolist() == [1, 3]


@pytest.fixture(scope="module")
def role_field_index(tmp_path_factory, ray_session, feat_index):
    """Second member of a cross_fields analyzer group: same corpus, the
    'field' text is a single category token per doc (docs 0-4 'red',
    5-8 'blue')."""
    import ray.data as rd

    rows = [
        {"conv_id": f"conv-{i // 3:08d}", "turn_idx": i % 3, "role": "user",
         "text": "red" if i < 5 else "blue",
         "tool": "", "ts": pd.Timestamp(2026, 1, 1), "doc_id": i}
        for i in range(len(TEXTS))
    ]
    ds = rd.from_arrow(pa.Table.from_pandas(pd.DataFrame(rows), preserve_index=False))
    idx = str(tmp_path_factory.mktemp("rolefield") / "idx")
    build_index("mem", idx, CFG, transcripts_ds=ds)
    return idx


def test_cross_fields_term_centric(feat_index, role_field_index):
    scorer = sfeat.CrossFieldsScorer([feat_index, role_field_index], [1.0, 1.0])
    out = scorer(pd.DataFrame({"query_id": ["q"], "query_text": ["red alpha"],
                               "top_k": [10]}))
    # per-term max: 'alpha' only in the body field, 'red' only in the
    # category field → score = brute('alpha') + brute('red').
    da, sa = _brute_scores(feat_index, "alpha")
    dr, sr = _brute_scores(role_field_index, "red")
    alpha = dict(zip(da.astype(np.int64).tolist(), sa.tolist()))
    red = dict(zip(dr.astype(np.int64).tolist(), sr.tolist()))
    for _, r in out.iterrows():
        d = int(r["doc_id"])
        assert abs(r["score"] - (alpha.get(d, 0.0) + red.get(d, 0.0))) < 1e-9
    # candidates = union of both term posting lists
    assert set(out["doc_id"]) == set(alpha) | set(red)
    # duplicate fields: per-term max picks ONE copy (boost 1.0 beats 0.5)
    dup = sfeat.CrossFieldsScorer([feat_index, feat_index], [1.0, 0.5])
    out_d = dup(pd.DataFrame({"query_id": ["q"], "query_text": ["alpha beta"],
                              "top_k": [10]}))
    db, sb = _brute_scores(feat_index, "alpha beta")
    brute = dict(zip(db.astype(np.int64).tolist(), sb.tolist()))
    for _, r in out_d.iterrows():
        assert abs(r["score"] - brute[int(r["doc_id"])]) < 1e-9
    with pytest.raises(Exception, match="align"):
        sfeat.CrossFieldsScorer([feat_index], [1.0, 2.0])


def test_field_group_refuses_other_analyzer(feat_index, cf_norms, tmp_path):
    """cross_fields and combined_fields analyze the query once, so a
    field index whose analyzer differs in any manifest ANALYZER field
    (here only ``min_token_len``) is refused, not just a different mode."""
    import shutil

    from hybrid_sanctions_search_engine_ray.state.manifest import IndexManifest

    other = str(tmp_path / "min4")
    shutil.copytree(feat_index, other)
    m = IndexManifest.load(other)
    m.min_token_len = 4
    m.save(other)
    with pytest.raises(ValueError, match="one analyzer group.*min_token_len"):
        sfeat.CrossFieldsScorer([feat_index, other], [1.0, 1.0])
    with pytest.raises(ValueError, match="one analyzer group.*min_token_len"):
        sfeat.CombinedFieldsScorer([feat_index, other], [1.0, 1.0], [cf_norms[0]] * 2)


def test_span_containing_enclosure(feat_index):
    # doc0 "alpha beta gamma delta": alpha@0 delta@3; doc1 "beta alpha
    # gamma delta epsilon": alpha@1 delta@3.
    scorer = sfeat.SpanContainScorer(feat_index, mode="containing")

    def run(little, slop):
        out = scorer(pd.DataFrame({"query_id": ["q"],
                                   "query_text": ["alpha delta"],
                                   "little": [little], "slop": [slop],
                                   "top_k": [10]}))
        return set(out["doc_id"])

    assert run("gamma", 2) == {0, 1}          # gamma inside both windows
    assert run("beta", 2) == {0}              # doc1's beta@0 is OUTSIDE [1,3]
    assert run("gamma", 1) == {1}             # slop 1: doc0's gap 3 too wide
    assert run("alpha", 2) == {0, 1}          # boundary-INCLUSIVE (pc == pa)
    assert run("zeta", 2) == set()            # little never inside
    with pytest.raises(Exception, match="2-term"):
        scorer(pd.DataFrame({"query_id": ["q"], "query_text": ["alpha"],
                             "little": ["beta"], "slop": [2], "top_k": [10]}))


def test_span_within_scores_little_span(feat_index):
    # same predicate, little span emits: score == brute BM25 of "gamma".
    win = sfeat.SpanContainScorer(feat_index, mode="within")
    out = win(pd.DataFrame({"query_id": ["q"], "query_text": ["alpha delta"],
                            "little": ["gamma"], "slop": [2], "top_k": [10]}))
    assert set(out["doc_id"]) == {0, 1}
    docs, scores = _brute_scores(feat_index, "gamma")
    brute = dict(zip(docs.astype(np.int64).tolist(), scores.tolist()))
    for _, r in out.iterrows():
        assert abs(r["score"] - brute[int(r["doc_id"])]) < 1e-9
    # containing on the same spec ranks by the PAIR's BM25 instead
    con = sfeat.SpanContainScorer(feat_index, mode="containing")
    out_c = con(pd.DataFrame({"query_id": ["q"], "query_text": ["alpha delta"],
                              "little": ["gamma"], "slop": [2], "top_k": [10]}))
    docs_p, scores_p = _brute_scores(feat_index, "alpha delta")
    brute_p = dict(zip(docs_p.astype(np.int64).tolist(), scores_p.tolist()))
    for _, r in out_c.iterrows():
        assert abs(r["score"] - brute_p[int(r["doc_id"])]) < 1e-9


def test_span_not_distance_gate(feat_index):
    scorer = sfeat.SpanNotScorer(feat_index, default_top_k=10)
    # include "gamma", exclude "beta": doc7 has gamma and no beta → clean.
    # doc0 "alpha beta gamma delta": gamma@2, beta@1 → dist1 kills it,
    # dist0 keeps it (|2-1|=1 > 0 fails... adjacent IS within dist 1).
    out1 = scorer(pd.DataFrame({"query_id": ["q"], "query_text": ["gamma"],
                                "exclude": ["beta"], "dist": [1], "top_k": [10]}))
    assert 7 in set(out1["doc_id"]) and 0 not in set(out1["doc_id"])
    out0 = scorer(pd.DataFrame({"query_id": ["q"], "query_text": ["gamma"],
                                "exclude": ["beta"], "dist": [0], "top_k": [10]}))
    assert 0 in set(out0["doc_id"])  # adjacency allowed at dist 0
    # exclude term absent from corpus → every include doc matches
    outz = scorer(pd.DataFrame({"query_id": ["q"], "query_text": ["gamma"],
                                "exclude": ["qqqq"], "dist": [5], "top_k": [10]}))
    docs, _ = _brute_scores(feat_index, "gamma")
    assert set(outz["doc_id"]) == set(docs.astype(np.int64).tolist())
    with pytest.raises(Exception, match="single include"):
        scorer(pd.DataFrame({"query_id": ["q"], "query_text": ["alpha beta"],
                             "exclude": ["gamma"], "dist": [1], "top_k": [10]}))


def test_rank_eval_metrics_hand_math(feat_index):
    scorer = sfeat.RankEvalScorer(feat_index, k=3)
    # "alpha beta": relevant = docs containing BOTH (0,1,2,4)
    out = scorer(pd.DataFrame({"query_id": ["q"], "query_text": ["alpha beta"]}))
    r = out.iloc[0]
    assert r["n_relevant"] == 4
    docs, scores = _brute_scores(feat_index, "alpha beta")
    from hybrid_sanctions_search_engine_ray.functions.bm25 import topk_desc

    top, _ = topk_desc(docs, scores, 3)
    rel = {0, 1, 2, 4}
    hits = [i + 1 for i, d in enumerate(top.astype(np.int64)) if int(d) in rel]
    assert abs(r["precision_at_k"] - round(len(hits) / 3.0, 4)) < 1e-12
    assert abs(r["mrr"] - round(1.0 / hits[0], 4)) < 1e-12
    dcg = sum(1.0 / np.log2(h + 1.0) for h in hits)
    idcg = sum(1.0 / np.log2(i + 1.0) for i in range(1, 4))  # min(4, 3) slots
    assert abs(r["ndcg"] - round(dcg / idcg, 4)) < 1e-12
    # zero-relevant query scores 0 everywhere, never errors
    z = scorer(pd.DataFrame({"query_id": ["z"], "query_text": ["qqqq wwww"]})).iloc[0]
    assert z["n_relevant"] == 0 and z["precision_at_k"] == 0.0
    assert z["mrr"] == 0.0 and z["ndcg"] == 0.0


def test_parse_lucene_ast_and_errors():
    ast = sfeat.parse_lucene('(Alpha OR beta) AND NOT "gamma delta"')
    assert ast == ("and", [("or", [("term", "alpha"), ("term", "beta")]),
                           ("not", ("phrase", ["gamma", "delta"]))])
    assert sfeat._ast_terms(ast) == {"alpha", "beta"}  # negated phrase not scored
    for bad in ["AND alpha", "alpha OR", "(alpha", 'alpha "unterminated', "alpha beta)"]:
        with pytest.raises(ValueError):
            sfeat.parse_lucene(bad)


def test_lucene_scorer_set_algebra(feat_index):
    scorer = sfeat.LuceneScorer(feat_index, default_top_k=10)
    # (alpha OR epsilon) AND NOT beta — docs with alpha/epsilon minus beta docs
    out = scorer(pd.DataFrame({"query_id": ["q"],
                               "query_text": ["(alpha OR epsilon) AND NOT beta"],
                               "top_k": [10]}))
    import re as _re

    has = lambda t: {i for i, x in enumerate(TEXTS)
                     if t in _re.split(r"[^a-z]+", x.lower())}
    want = (has("alpha") | has("epsilon")) - has("beta")
    assert set(out["doc_id"].tolist()) == want
    # phrase branch: "beta gamma" adjacency OR zeta
    out2 = scorer(pd.DataFrame({"query_id": ["q"],
                                "query_text": ['"beta gamma" OR zeta'],
                                "top_k": [10]}))
    adj = {i for i, x in enumerate(TEXTS)
           if "beta gamma" in " ".join(x.lower().replace(",", " ").replace("!", " ").split())}
    assert set(out2["doc_id"].tolist()) == adj | has("zeta")
    # purely negative queries raise
    for bad in ["NOT alpha", "NOT alpha AND NOT beta", "alpha OR NOT beta"]:
        with pytest.raises(Exception, match="negative|satisfiable"):
            scorer(pd.DataFrame({"query_id": ["q"], "query_text": [bad], "top_k": [5]}))


def test_intervals_gap_budget_and_any_of(feat_index):
    # TEXTS[0] = "alpha beta gamma delta": alpha..delta ordered, width 4
    specs = {
        "tight": (0, [["alpha"], ["beta"]]),            # adjacent only
        "budget": (2, [["alpha"], ["delta"]]),          # width 4 - 2 = 2 ≤ 2
        "anyof": (0, [["beta"], ["gamma", "alpha"]]),   # beta then gamma|alpha
        "over": (1, [["alpha"], ["delta"]]),            # 2 > 1 → no match in doc0
    }
    scorer = sfeat.IntervalsScorer(feat_index, specs, default_top_k=10)
    out = scorer(pd.DataFrame({"query_id": list(specs), "top_k": [10] * len(specs)}))
    by = {qid: set(g["doc_id"]) for qid, g in out.groupby("query_id")}
    assert 0 in by["tight"]          # "alpha beta" adjacent
    assert 0 in by["budget"]
    assert 0 not in by.get("over", set())
    # doc1 "beta alpha gamma delta epsilon": beta then alpha (any_of) adjacent
    assert 1 in by["anyof"] and 0 in by["anyof"]  # doc0: beta gamma adjacent
    # ordered: doc4 "Beta, Gamma! alpha" has beta→gamma so anyof matches too
    assert 4 in by["anyof"]


def test_sparse_vector_exact_dot_product(feat_index):
    scorer = sfeat.SparseVectorScorer(
        feat_index, {"q": {"alpha": 2, "beta": 1}}, default_top_k=10)
    out = scorer(pd.DataFrame({"query_id": ["q"], "top_k": [10]}))
    # doc6 "alpha alpha alpha" → 2·3 = 6 beats every mixed doc (score 3)
    assert int(out.iloc[0]["doc_id"]) == 6 and int(out.iloc[0]["score"]) == 6
    got = dict(zip(out["doc_id"].astype(int), out["score"].astype(int)))
    assert got[0] == 3 and got[5] == 2 and got[8] == 1  # tf-weighted sums
    assert out["score"].dtype == np.int64  # exact integer contract
    # unknown-token query → empty frame, no error
    z = sfeat.SparseVectorScorer(feat_index, {"z": {"qqqq": 5}})(
        pd.DataFrame({"query_id": ["z"], "top_k": [10]}))
    assert len(z) == 0


def test_terms_set_per_doc_threshold(feat_index):
    # turn_idx = doc_id % 3 in the fixture; required = clamp(turn_idx, 1, n)
    scorer = sfeat.TermsSetScorer(feat_index, field_key="turn_idx")
    out = scorer(pd.DataFrame({"query_id": ["q"],
                               "query_text": ["alpha beta gamma"],
                               "top_k": [20]}))
    r = IndexReader(feat_index)
    posts = r.load_postings(["alpha", "beta", "gamma"])
    import numpy as np  # noqa: F811
    want = set()
    for d in range(9):
        matched = sum(1 for t in posts
                      if d in posts[t].doc_ids.astype(np.int64).tolist())
        need = min(max(d % 3, 1), 3)
        if matched >= need:
            want.add(d)
    assert set(out["doc_id"]) == want
    # doc 5 "beta beta gamma zeta": turn 2, matches only beta+gamma = 2 >= 2 ✓
    assert 5 in want


# --- combined_fields (BM25F) --------------------------------------------------


@pytest.fixture(scope="module")
def cf_norms(tmp_path_factory, ray_session):
    """doc_lengths sidecars for the (body, role-category) field group."""
    import ray.data as rd

    body_rows = [
        {"conv_id": f"conv-{i // 3:08d}", "turn_idx": i % 3, "role": "user",
         "text": t, "tool": "", "ts": pd.Timestamp(2026, 1, 1), "doc_id": i}
        for i, t in enumerate(TEXTS)
    ]
    cat_rows = [dict(r, text=("red" if r["doc_id"] < 5 else "blue"))
                for r in body_rows]
    root = tmp_path_factory.mktemp("cfnorms")
    paths = []
    for name, rows in [("body", body_rows), ("cat", cat_rows)]:
        ds = rd.from_arrow(pa.Table.from_pandas(pd.DataFrame(rows), preserve_index=False))
        p = str(root / name)
        sfeat.doc_lengths(ds, CFG.analyzer).write_parquet(p)
        paths.append(p)
    return paths


def _combined_ref(dirs, weights, norms_paths, qtext, k1=1.2, b=0.75):
    import math

    readers = [IndexReader(d) for d in dirs]
    ids_parts, dl_parts = [], []
    for p, w in zip(norms_paths, weights):
        t = pads.dataset(p).to_table(columns=["doc_id", "dl"])
        ids_parts.append(t["doc_id"].to_numpy().astype(np.int64))
        dl_parts.append(w * t["dl"].to_numpy(zero_copy_only=False).astype(np.float64))
    nid, inv = np.unique(np.concatenate(ids_parts), return_inverse=True)
    ncdl = np.bincount(inv, weights=np.concatenate(dl_parts))
    n_docs = float(nid.size)
    avgdl = float(ncdl.sum() / n_docs)
    acc: dict[int, float] = {}
    for t in sorted(set(readers[0].analyzer(qtext))):
        per: dict[int, float] = {}
        for r, w in zip(readers, weights):
            raw = r.load_raw(t)
            if raw is None:
                continue
            for d, tf in zip(raw[0].tolist(), raw[1].tolist()):
                per[d] = per.get(d, 0.0) + w * float(tf)
        if not per:
            continue
        df = float(len(per))
        idf = math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))
        for d, ctf in per.items():
            cdl = float(ncdl[np.searchsorted(nid, d)])
            s = idf * ctf * (k1 + 1.0) / (ctf + k1 * ((1.0 - b) + b * cdl / avgdl))
            acc[d] = acc.get(d, 0.0) + s
    return acc


def test_doc_lengths_sidecar_values(cf_norms):
    body, cat = cf_norms
    t = pads.dataset(body).to_table().to_pandas().set_index("doc_id")["dl"]
    assert t.loc[6] == 3        # "alpha alpha alpha"
    assert t.loc[0] == 4        # "alpha beta gamma delta"
    assert len(t) == len(TEXTS)  # zero-token docs would still be present
    c = pads.dataset(cat).to_table().to_pandas()["dl"]
    assert (c == 1).all()       # single category token per doc


def test_combined_fields_matches_reference(feat_index, role_field_index, cf_norms):
    dirs = [feat_index, role_field_index]
    weights = [1.0, 2.0]
    scorer = sfeat.CombinedFieldsScorer(dirs, weights, cf_norms)
    for qtext in ["red alpha", "beta blue gamma", "alpha"]:
        out = scorer(pd.DataFrame({"query_id": ["q"], "query_text": [qtext],
                                   "top_k": [20]}))
        ref = _combined_ref(dirs, weights, cf_norms, qtext)
        assert set(out["doc_id"]) == set(ref), qtext
        for _, r in out.iterrows():
            assert abs(r["score"] - ref[int(r["doc_id"])]) < 1e-9, qtext
    # stacking: duplicating the SAME field doubles tf' and dl' (plus the
    # original), df/ratio unchanged — still equals the direct reference
    dup = sfeat.CombinedFieldsScorer([feat_index, feat_index], [1.0, 2.0],
                                     [cf_norms[0], cf_norms[0]])
    out_d = dup(pd.DataFrame({"query_id": ["q"], "query_text": ["alpha beta"],
                              "top_k": [20]}))
    ref_d = _combined_ref([feat_index, feat_index], [1.0, 2.0],
                          [cf_norms[0], cf_norms[0]], "alpha beta")
    for _, r in out_d.iterrows():
        assert abs(r["score"] - ref_d[int(r["doc_id"])]) < 1e-9
    # validation: ES requires per-field weights >= 1.0; lists must align
    with pytest.raises(ValueError, match=">= 1.0"):
        sfeat.CombinedFieldsScorer(dirs, [1.0, 0.5], cf_norms)
    with pytest.raises(ValueError, match="align"):
        sfeat.CombinedFieldsScorer(dirs, [1.0], cf_norms)


def test_collapse_inner_hits_consistency(ray_session, feat_index):
    """inner_hits rank-1 rows must reproduce the plain collapse ranking
    exactly; inner ranks restart per group and never exceed per_group."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.pipelines.search_features import (
        collapse_inner_hits_search,
        collapse_search,
    )

    qs = [{"query_id": "q1", "query_text": "alpha gamma", "top_k": 3}]
    inner = collapse_inner_hits_search(rd.from_items(qs), feat_index,
                                       per_group=2).to_pandas()
    plain = collapse_search(rd.from_items(qs), feat_index).to_pandas()
    plain = plain[plain["rank"] <= 3]
    reps = inner[inner.inner_rank == 1].sort_values("rank")
    assert list(reps.doc_id) == list(plain.sort_values("rank").doc_id)
    assert list(reps.conv_id) == list(plain.sort_values("rank").conv_id)
    assert (inner.groupby("rank")["inner_rank"].max() <= 2).all()
    # within a group scores are non-increasing with inner rank
    for _, g in inner.groupby("rank"):
        s = g.sort_values("inner_rank")["score"].to_numpy()
        assert (np.diff(s) <= 1e-12).all()


# --- batch == rows: the shared scorer loop ------------------------------------

# Four rows per batch: a multi-term query, a zero-hit query, a query with a
# duplicate term and a one-term query, each with its own top_k. Each case is
# (scorer factory over the index, columns replacing or adding to those).
_BATCH_TEXTS = ["beta gamma", "qqqq zzzz", "alpha alpha beta", "gamma"]
_ONE_TERM = ["alpha", "qqqq", "beta", "gamma"]
_BATCH_CASES = {
    "bm25": (lambda i: BM25Scorer(i), {}),
    "boolean": (lambda i: BooleanScorer(i),
                {"must": ["beta", "qqqq", "alpha alpha", None],
                 "should": ["gamma", None, "beta", "gamma delta"],
                 "must_not": [None, None, "zeta", "epsilon"]}),
    "collapse": (lambda i: sfeat.CollapseScorer(i, key="conv_id"), {}),
    "top_hits": (lambda i: sfeat.GroupTopHitsScorer(i, key="turn_idx", per_group=2), {}),
    "boosting": (lambda i: sfeat.BoostingScorer(i),
                 {"negative": ["delta", "beta", "zeta", "qqqq"]}),
    "rescore": (lambda i: sfeat.RescoreScorer(i, window=3), {}),
    "random_score": (lambda i: sfeat.RandomScoreScorer(i, seed="7"), {}),
    "explain": (lambda i: sfeat.ExplainScorer(i), {}),
    "span_near": (lambda i: sfeat.SpanNearScorer(i), {"slop": [1, 0, 2, 0]}),
    "span_near_unordered": (lambda i: sfeat.SpanNearScorer(i, in_order=False),
                            {"slop": [1, 0, 2, 0]}),
    "dis_max": (lambda i: sfeat.DisMaxScorer(i),
                {"clause_a": _BATCH_TEXTS, "clause_b": ["delta", "qqqq", "zeta zeta", "alpha"]}),
    "has_parent": (lambda i: sfeat.HasParentScorer(i, key="conv_id", default_top_k=2), {}),
    "count": (lambda i: sfeat.CountScorer(i), {}),
    "field_sort": (lambda i: sfeat.FieldSortScorer(i, ("conv_id", "turn_idx")), {}),
    "feature": (lambda i: sfeat.FeatureScorer(i, "turn_idx", "saturation"), {}),
    "span_first": (lambda i: sfeat.SpanFirstScorer(i),
                   {"query_text": _ONE_TERM, "end": [1, 2, 3, 2]}),
    "span_not": (lambda i: sfeat.SpanNotScorer(i),
                 {"query_text": _ONE_TERM, "exclude": ["beta", "beta", "beta", "delta"],
                  "dist": [1, 1, 2, 0]}),
    "span_contain": (lambda i: sfeat.SpanContainScorer(i),
                     {"query_text": ["alpha gamma", "qqqq zzzz", "beta beta", "gamma delta"],
                      "little": ["beta", "alpha", "beta", "delta"]}),
    "rank_eval": (lambda i: sfeat.RankEvalScorer(i, k=3), {}),
    "lucene": (lambda i: sfeat.LuceneScorer(i),
               {"query_text": ["alpha AND beta", "qqqq", "alpha OR alpha",
                               '"beta gamma" AND NOT delta']}),
    "terms_set": (lambda i: sfeat.TermsSetScorer(i, field_key="turn_idx"), {}),
    "sparse_vector": (lambda i: sfeat.SparseVectorScorer(
        i, {"q0": {"alpha": 2, "beta": 1}, "q1": {"qqqq": 5},
            "q2": {"beta": 3, "alpha": 1}, "q3": {"gamma": 1}}), {}),
    "intervals": (lambda i: sfeat.IntervalsScorer(
        i, {"q0": (1, [["beta"], ["gamma"]]), "q1": (0, [["qqqq"]]),
            "q2": (2, [["alpha"], ["alpha", "beta"]]), "q3": (0, [["gamma"], ["delta"]])}), {}),
}


@pytest.mark.parametrize("case", sorted(_BATCH_CASES))
def test_scorer_batch_equals_concatenated_rows(feat_index, case):
    """One call on a batch gives the frame that one call per row gives,
    concatenated: the batch preload and the per-row loop change nothing."""
    make, cols = _BATCH_CASES[case]
    scorer = make(feat_index)
    batch = pd.DataFrame({"query_id": [f"q{i}" for i in range(4)],
                          "query_text": _BATCH_TEXTS, "top_k": [2, 10, 3, 5], **cols})
    out = scorer(batch)
    rows = [scorer(batch.iloc[[i]].reset_index(drop=True)) for i in range(len(batch))]
    assert len(out)
    pd.testing.assert_frame_equal(out, pd.concat([r for r in rows if len(r)], ignore_index=True))
    pd.testing.assert_series_equal(out.dtypes, _result_frame(scorer.columns).dtypes)


# --- visibility: no result path returns a tombstoned doc -----------------------

_DEAD = [0, 4, 6]
_ALL_K = 20  # ≥ the corpus size: every match is returned
_SIMILARITIES = {"lmd": (), "lmjm": (), "classic": (), "dfr": (), "dfi": (), "ib": (),
                 "scripted": (lambda tfs, dls, ctx: tfs / dls,)}


@pytest.fixture(scope="module")
def dead_fields(tmp_path_factory, feat_index, role_field_index):
    """Copies of the body and category field indexes with docs 0, 4 and 6
    tombstoned and not compacted."""
    import shutil

    from hybrid_sanctions_search_engine_ray.pipelines.maintenance import delete_docs

    root = tmp_path_factory.mktemp("dead")
    dirs = []
    for name, src in [("body", feat_index), ("cat", role_field_index)]:
        shutil.copytree(src, str(root / name))
        delete_docs(str(root / name), _DEAD)
        dirs.append(str(root / name))
    return dirs


def _batch_case(name):
    make, cols = _BATCH_CASES[name]
    batch = pd.DataFrame({"query_id": [f"q{i}" for i in range(4)], "query_text": _BATCH_TEXTS,
                          "top_k": [_ALL_K] * 4, **cols})
    return lambda body, cat, norms: make(body)(batch)


def _similarity_case(method, *args):
    def run(body, cat, norms):
        r = IndexReader(body)
        frames = []
        for i, q in enumerate(_BATCH_TEXTS):
            d, s = getattr(r, method)(q, _ALL_K, *args)
            frames.append(pd.DataFrame({"query_id": f"q{i}", "doc_id": d.astype(np.int64),
                                        "score": s}))
        return pd.concat(frames, ignore_index=True)
    return run


def _federated(body, cat, norms):
    from hybrid_sanctions_search_engine_ray.pipelines.federated import FederatedReader

    docs, scores = FederatedReader([body, cat]).search_one("alpha beta red blue", _ALL_K)
    # both shards hold the 9 docs, and each tombstones its own 0, 4 and 6
    return pd.DataFrame({"doc_id": docs.astype(np.int64) % len(TEXTS), "score": scores})


def _fields_case(make):
    """``make(field_dirs, norms_paths)`` over the (body, category) field group."""
    batch = pd.DataFrame({"query_id": ["q0", "q1", "q2"], "top_k": [_ALL_K] * 3,
                          "query_text": ["red alpha", "beta blue gamma", "alpha"]})
    return lambda body, cat, norms: make([body, cat], norms)(batch)


_VISIBILITY_CASES = {
    "combined_fields": _fields_case(lambda d, n: sfeat.CombinedFieldsScorer(d, [1.0, 2.0], n)),
    "cross_fields": _fields_case(lambda d, n: sfeat.CrossFieldsScorer(d, [1.0, 1.0])),
    "multi_match": _fields_case(lambda d, n: sfeat.MultiMatchScorer(d, [1.0, 2.0], "most_fields")),
    **{f"search_one_{m}": _similarity_case(f"search_one_{m}", *a) for m, a in _SIMILARITIES.items()},
    "federated": _federated,
    "phrase_search": lambda body, cat, norms: phrase_search(body, "beta gamma", top_k=_ALL_K),
    "mget": lambda body, cat, norms: sfeat.mget(body, range(len(TEXTS))).query("found == 1"),
    "pinned": lambda body, cat, norms: sfeat.pinned_search(
        {"q0": ("alpha beta", [6, 1]), "q1": ("gamma", [0, 4, 2])}, body, CFG, top_k=_ALL_K),
}
# stats count deletes until compaction, so live docs keep their exact scores
_SAME_LIVE_SCORES = {"bm25", "boolean", "sparse_vector", "combined_fields", "mget",
                     *(f"search_one_{m}" for m in _SIMILARITIES)}


@pytest.mark.parametrize("case", sorted(_BATCH_CASES) + sorted(_VISIBILITY_CASES))
def test_no_result_path_returns_a_tombstoned_doc(feat_index, role_field_index, cf_norms,
                                                 dead_fields, case):
    run = _VISIBILITY_CASES.get(case) or _batch_case(case)
    out = run(*dead_fields, cf_norms)
    if "doc_id" in out:
        assert not set(out["doc_id"]) & set(_DEAD), case
    if case == "count":  # counts the live matches that bm25 returns at top_k ≥ N
        hits = _batch_case("bm25")(*dead_fields, cf_norms).groupby("query_id").size()
        assert out.set_index("query_id")["n_matches"].to_dict() == {
            q: hits.get(q, 0) for q in out["query_id"]}
    if case in _SAME_LIVE_SCORES:
        full = run(feat_index, role_field_index, cf_norms)
        assert full["doc_id"].isin(_DEAD).any(), case  # the case does see a dead doc
        got = out.drop(columns="rank", errors="ignore").reset_index(drop=True)
        want = full[~full["doc_id"].isin(_DEAD)].drop(columns="rank", errors="ignore")
        pd.testing.assert_frame_equal(got, want.reset_index(drop=True), check_exact=True)


def test_only_the_reader_tests_tombstones():
    """Query-time visibility has one owner, ``IndexReader.live``: only the
    maintenance module (which defines the test and compacts with it) and
    the reader module name ``tombstone_mask``."""
    import re

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    allowed = {os.path.join("hybrid_sanctions_search_engine_ray", "pipelines", m)
               for m in ("maintenance.py", "query.py")}
    paths = [os.path.join(dp, f) for top in ("hybrid_sanctions_search_engine_ray", "tools")
             for dp, _, fs in os.walk(os.path.join(repo, top)) for f in fs if f.endswith(".py")]
    paths += [os.path.join(repo, "__ray_entry__.py"), os.path.join(repo, "bench.py")]
    offenders = []
    for p in paths:
        rel = os.path.relpath(p, repo)
        if rel in allowed:
            continue
        with open(p) as f:
            offenders += [f"{rel}:{i}" for i, line in enumerate(f, 1)
                          if re.search(r"\btombstone_mask\b", line)]
    assert not offenders, offenders
