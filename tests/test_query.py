import numpy as np
import pyarrow.dataset as pads
import pytest

from hybrid_sanctions_search_engine_ray.config import AnalyzerConfig
from hybrid_sanctions_search_engine_ray.pipelines.query import BM25Scorer, IndexReader, attach_docmap, search

from oracle import OracleIndex

# FIXTURES.md §2 query mix: exact phrases, stop-word-only, mixed
# rare+common, zero-hit, single terms.
GOLDEN_QUERIES = [
    "payment transfer",
    "payment",
    "the",                     # hot stop-word alone (skew path)
    "tok00042 payment",        # rare + common (pruning correctness)
    "tok00001 tok00002 tok00003",
    "иванов иван петрович",
    "світлана бондаренко",
    "zzzznotaterm",            # zero-hit
    "tok04999",
    "error status query data file run",
    "invoice amount total от до",
    "пётр ёжик",
]


@pytest.fixture(scope="module")
def oracle(corpus_dir):
    idx = OracleIndex(AnalyzerConfig(mode="simple"))
    tbl = pads.dataset(corpus_dir).to_table(columns=["conv_id", "turn_idx", "text"]).to_pandas()
    tbl = tbl.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    for i, text in enumerate(tbl["text"]):
        idx.add(i, text)
    return idx


def test_corpus_stats_match_oracle(built_index, oracle):
    index_dir, cfg, manifest = built_index
    assert manifest.n_docs == oracle.n_docs
    assert abs(manifest.avgdl - oracle.avgdl) < 1e-9


def test_dictionary_matches_oracle(built_index, oracle):
    """write_dictionary (from segments) reproduces the oracle's per-term
    df/cf exactly — an end-to-end check that the shuffle, sub-segmenting
    and hot-term salting lose nothing."""
    import pyarrow.parquet as pq

    from hybrid_sanctions_search_engine_ray.pipelines.index_build import write_dictionary

    index_dir, cfg, manifest = built_index
    d = pq.read_table(write_dictionary(index_dir)).to_pandas().set_index("term")
    assert len(d) == len(oracle.postings)
    for term, plist in oracle.postings.items():
        assert int(d.loc[term, "df"]) == len(plist), term
        assert int(d.loc[term, "cf"]) == sum(plist.values()), term


@pytest.mark.parametrize("method", ["taat", "maxscore"])
def test_rank_identity_vs_oracle(built_index, oracle, method):
    index_dir, cfg, manifest = built_index
    reader = IndexReader(index_dir)
    for q in GOLDEN_QUERIES:
        for k in (1, 10, 50):
            docs, scores = reader.search_one(q, k, method=method)
            expected = oracle.topk(q, k)
            assert docs.astype(np.int64).tolist() == [d for d, _ in expected], f"q={q!r} k={k} m={method}"
            assert np.allclose(scores, [s for _, s in expected], atol=1e-6), f"q={q!r} k={k}"


def test_scorer_batch_callable(built_index):
    """BM25Scorer smoke (actor __init__ failures surface late — guide)."""
    import pandas as pd

    index_dir, cfg, _ = built_index
    scorer = BM25Scorer(index_dir, default_top_k=5)
    out = scorer(pd.DataFrame({"query_id": ["q1", "q2"], "query_text": ["payment", "zzzznotaterm"]}))
    assert set(out.columns) == {"query_id", "rank", "doc_id", "score"}
    assert (out["query_id"] == "q1").sum() == 5
    assert (out["query_id"] == "q2").sum() == 0
    assert out.loc[out.query_id == "q1", "rank"].tolist() == [1, 2, 3, 4, 5]


def test_search_dataset_pipeline(built_index, oracle):
    """Full actor-pool path through ray.data, incl. docmap join."""
    import ray.data as rd

    index_dir, cfg, _ = built_index
    queries = rd.from_items(
        [{"query_id": f"q-{i:02d}", "query_text": q, "top_k": 10} for i, q in enumerate(GOLDEN_QUERIES)]
    )
    res = search(queries, index_dir, cfg).to_pandas()
    for i, q in enumerate(GOLDEN_QUERIES):
        got = res[res.query_id == f"q-{i:02d}"].sort_values("rank")
        expected = oracle.topk(q, 10)
        assert got["doc_id"].tolist() == [d for d, _ in expected], f"q={q!r}"
    joined = attach_docmap(res, index_dir)
    assert {"conv_id", "turn_idx"} <= set(joined.columns)
    assert joined["conv_id"].notna().all()


def test_search_after_pages_tile_the_full_ranking(built_index):
    """Cursor pagination: pages 1..3 of size 4 concatenate to exactly the
    TAAT top-12 (no gaps, no overlaps), for hot and mixed queries."""
    index_dir, cfg, manifest = built_index
    r = IndexReader(index_dir)
    for q in ["payment transfer", "the", "tok00042 payment"]:
        full_docs, full_scores = r.search_one(q, 12, method="taat")
        pages, cursor = [], None
        for _ in range(3):
            if cursor is None:
                d, s = r.search_one(q, 4, method="taat")
            else:
                d, s = r.search_one_after(q, 4, cursor[0], cursor[1])
            if d.size == 0:
                break
            pages.append((d, s))
            cursor = (float(s[-1]), int(d[-1]))
        got_docs = np.concatenate([d for d, _ in pages])
        got_scores = np.concatenate([s for _, s in pages])
        assert got_docs.astype(np.int64).tolist() == full_docs.astype(np.int64).tolist()
        assert got_scores.tolist() == full_scores.tolist()


def test_search_after_beyond_end_is_empty(built_index):
    index_dir, cfg, manifest = built_index
    r = IndexReader(index_dir)
    d, s = r.search_one("zzzznotaterm", 5, method="taat")
    assert d.size == 0
    # cursor below every score → empty page
    d, s = r.search_one_after("payment", 5, -1.0, 0)
    assert d.size == 0


def test_synonym_search_expands_recall(built_index):
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.pipelines.query import search, synonym_search

    index_dir, cfg, manifest = built_index
    qs = [{"query_id": "s1", "query_text": "payment", "top_k": 50}]
    plain = search(rd.from_items(qs), index_dir).to_pandas()
    syn = synonym_search(
        rd.from_items(qs), index_dir, {"payment": ["transfer"]}
    ).to_pandas()
    r = IndexReader(index_dir)
    expected_docs, expected_scores = r.search_one("payment transfer", 50)
    assert syn["doc_id"].tolist() == expected_docs.astype("int64").tolist()
    # expansion can only widen or rescore, never silently equal unless the
    # synonym term is absent from the corpus
    assert not syn.equals(plain)


def test_synonym_search_noop_when_no_match(built_index):
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.pipelines.query import search, synonym_search

    index_dir, cfg, manifest = built_index
    qs = [{"query_id": "s1", "query_text": "payment", "top_k": 10}]
    plain = search(rd.from_items(qs), index_dir).to_pandas()
    syn = synonym_search(rd.from_items(qs), index_dir, {"unrelated": ["word"]}).to_pandas()
    assert syn.equals(plain)


@pytest.mark.parametrize("method", ["bmw"])
def test_bmw_rank_identity_on_index(built_index, method):
    """The reference Block-Max WAND kernel must return the same ranking
    as TAAT/MaxScore on the real index for the golden query mix."""
    index_dir, cfg, manifest = built_index
    r = IndexReader(index_dir)
    for q in GOLDEN_QUERIES:
        for k in (1, 10):
            d1, s1 = r.search_one(q, k, method="taat")
            d2, s2 = r.search_one(q, k, method=method)
            assert d1.astype(np.int64).tolist() == d2.astype(np.int64).tolist(), (q, k)
            assert np.allclose(s1, s2, atol=1e-9), (q, k)


def test_conv_search_rollup_consistent(built_index):
    """Conversation max-score rollup: each returned conv's score equals
    the best turn score among its member docs, and sum mode >= max."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.pipelines.query import conv_search

    index_dir, cfg, _ = built_index
    r = IndexReader(index_dir)
    qs = rd.from_items([{"query_id": "c1", "query_text": "payment transfer", "top_k": 5}])
    tpc = 13  # arbitrary stride for the rollup consistency check
    res_max = conv_search(qs, index_dir, turns_per_conv=tpc, score_mode="max").to_pandas()
    res_sum = conv_search(qs, index_dir, turns_per_conv=tpc, score_mode="sum").to_pandas()
    from hybrid_sanctions_search_engine_ray.functions.bm25 import score_all

    terms = sorted(set(r.analyzer("payment transfer")))
    docs, scores = score_all(list(r.load_postings(terms).values()))
    conv = docs.astype(np.int64) // tpc
    for row in res_max.itertuples(index=False):
        members = scores[conv == row.conv_num]
        assert abs(row.score - members.max()) < 1e-12
        assert row.n_hit_turns == members.size
    sums = {int(c): float(scores[conv == c].sum()) for c in res_sum["conv_num"]}
    for row in res_sum.itertuples(index=False):
        assert abs(row.score - sums[int(row.conv_num)]) < 1e-9


def test_function_score_surfaces_boosted_tail(built_index):
    """A boost that zeroes all but one doc must make that doc rank 1
    even if its raw BM25 rank was low — proving the boost sees the FULL
    candidate set, not a truncated top-k."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.functions.bm25 import score_all
    from hybrid_sanctions_search_engine_ray.pipelines.query import function_score_search

    index_dir, cfg, _ = built_index
    r = IndexReader(index_dir)
    terms = sorted(set(r.analyzer("payment")))
    docs, scores = score_all(list(r.load_postings(terms).values()))
    # pick the WORST candidate and boost only it
    worst = int(docs[np.argmin(scores)])

    def only_worst(doc_ids: np.ndarray) -> np.ndarray:
        return (doc_ids == worst).astype(np.float64)

    qs = rd.from_items([{"query_id": "f1", "query_text": "payment", "top_k": 3}])
    res = function_score_search(qs, index_dir, only_worst).to_pandas()
    assert int(res[res["rank"] == 1]["doc_id"].iloc[0]) == worst


def test_lmd_rank_matches_direct_formula(built_index):
    """search_one_lmd equals a direct per-term computation from the
    index's own raw postings (Lucene LMDirichletSimilarity formula)."""
    index_dir = built_index[0]
    reader = IndexReader(index_dir)
    mu = 2000.0
    total = float(reader.manifest.total_tokens)
    for q in GOLDEN_QUERIES[:6]:
        docs, scores = reader.search_one_lmd(q, 10, mu=mu)
        acc = {}
        for term in sorted(set(reader.analyzer(q))):
            raw = reader.load_raw(term)
            if raw is None:
                continue
            d, tf, dl = raw
            p = float(tf.sum()) / total
            s = np.log(1.0 + tf / (mu * p)) + np.log(mu / (dl + mu))
            for di, si in zip(d.tolist(), s.tolist()):
                if si > 0:
                    acc[di] = acc.get(di, 0.0) + si
        exp = sorted(acc.items(), key=lambda kv: (-round(kv[1], 4), kv[0]))[:10]
        assert list(docs) == [d for d, _ in exp], q
        np.testing.assert_allclose(scores, [s for _, s in exp], rtol=1e-12)
        assert (scores > 0).all()


def test_lmd_zero_hit_and_clamp(built_index):
    index_dir = built_index[0]
    reader = IndexReader(index_dir)
    docs, scores = reader.search_one_lmd("zzzznotaterm", 5)
    assert docs.size == 0 and scores.size == 0


def test_similarity_modules_match_direct_formulas(built_index):
    """Each pluggable similarity kernel (JM, classic TF-IDF, DFR GB2)
    equals a direct per-term computation from the index's own raw
    postings — the published formulas spelled out independently."""
    index_dir = built_index[0]
    reader = IndexReader(index_dir)
    total = float(reader.manifest.total_tokens)
    n_docs = float(reader.manifest.n_docs)
    avgdl = float(reader.manifest.avgdl)
    lam_jm = 0.1
    ln2 = np.log(2.0)

    def jm(tf, dl, df):
        p = float(tf.sum()) / total
        return np.log(1.0 + ((1.0 - lam_jm) * tf / dl) / (lam_jm * p))

    def classic(tf, dl, df):
        i = 1.0 + np.log((n_docs + 1.0) / (df + 1.0))
        return np.sqrt(tf) * (i * i) / np.sqrt(dl)

    def dfr(tf, dl, df):
        big_f = float(tf.sum())
        lam = big_f / n_docs
        tfn = tf * np.log(1.0 + avgdl / dl) / ln2
        inf1 = (np.log(1.0 + lam) + tfn * np.log((1.0 + lam) / lam)) / ln2
        return (big_f + 1.0) / (df * (tfn + 1.0)) * inf1

    def dfi(tf, dl, df):
        e = (float(tf.sum()) + 1.0) * dl / (total + 1.0)
        with np.errstate(invalid="ignore"):
            s = np.log(1.0 + (tf - e) / np.sqrt(e)) / ln2
        return np.where(tf > e, s, 0.0)

    def ib(tf, dl, df):
        lam = (df + 1.0) / (n_docs + 1.0)
        tfn = tf * np.log(1.0 + avgdl / dl) / ln2
        return np.log((tfn + lam) / lam) / ln2

    def scripted(tf, dl, df):
        return np.log(1.0 + n_docs / df) * tf / (tf + 0.5 + 1.5 * dl / avgdl)

    for method, formula in [("lmjm", jm), ("classic", classic), ("dfr", dfr),
                            ("dfi", dfi), ("ib", ib), ("scripted", scripted)]:
        def _run(qtext, k):
            if method == "scripted":
                def script(tfs, dls, ctx):
                    return (np.log(1.0 + ctx["n_docs"] / ctx["df"]) * tfs
                            / (tfs + 0.5 + 1.5 * dls / ctx["avgdl"]))
                return reader.search_one_scripted(qtext, k, script)
            return getattr(reader, f"search_one_{method}")(qtext, k)

        for q in GOLDEN_QUERIES[:6]:
            docs, scores = _run(q, 10)
            acc = {}
            for term in sorted(set(reader.analyzer(q))):
                raw = reader.load_raw(term)
                if raw is None:
                    continue
                d, tf, dl = raw
                s = formula(tf.astype(np.float64), dl.astype(np.float64), d.size)
                for di, si in zip(d.tolist(), s.tolist()):
                    if si > 0:
                        acc[di] = acc.get(di, 0.0) + si
            exp = sorted(acc.items(), key=lambda kv: (-round(kv[1], 4), kv[0]))[:10]
            assert list(docs) == [d for d, _ in exp], (method, q)
            np.testing.assert_allclose(scores, [s for _, s in exp], rtol=1e-12)
            assert (scores > 0).all()

        empty_d, empty_s = _run("zzzznotaterm", 5)
        assert empty_d.size == 0 and empty_s.size == 0


def test_max_top_k_caps_every_search_path(built_index, oracle, monkeypatch):
    """query.MAX_TOP_K is the cap on a query's top_k: every reader search
    method clamps to it."""
    from hybrid_sanctions_search_engine_ray.pipelines import query

    index_dir, _, _ = built_index
    reader = IndexReader(index_dir)
    assert reader.search_one("payment", 50)[0].size == 50
    monkeypatch.setattr(query, "MAX_TOP_K", 3)
    assert reader.search_one("payment", 50)[0].tolist() == [d for d, _ in oracle.topk("payment", 3)]
    assert reader.search_one_boolean("payment", top_k=50)[0].size == 3
    assert reader.search_one_lmd("payment", 50)[0].size == 3
    assert reader.search_one_after("payment", 50, float("inf"), -1)[0].size == 3
