"""Facet counts over a query's FULL matching-doc set — ES aggregations.

The reference's search layer runs against Elasticsearch, whose ``aggs``
block counts facet values across every document matching the query (not
just the returned top-k); the repo previously covered only corpus-wide
counts (G1/G7) and top-k post-filters. This stage fills the middle:

* the matching set is the UNION of the query terms' posting doc-lists
  (OR semantics — ES's default ``should`` match), read partition-pruned
  from the index and tombstone-filtered;
* facet values for those docs come from a metadata table scanned as a
  streaming ``map_batches`` membership filter against the BROADCAST
  doc-id set (``ray.put`` once), with per-batch partial counts and a
  facet-cardinality-sized final merge — the corpus never shuffles and
  the driver only ever holds doc-id arrays and facet totals.

Scale note: |matching ids| is bounded by Σ df(term) of the query terms.
For a query made of stop-word-grade terms that bound is corpus-sized —
at that selectivity a facet is just a corpus groupby, so use the plain
``groupby(facet)`` pipeline instead; this operator is for the selective
queries a search engine actually serves.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray


def matching_doc_ids(reader, query_text: str) -> np.ndarray:
    """Union of the analyzed query terms' posting doc-lists (OR match),
    sorted ascending; the postings hold live docs only."""
    terms = sorted(set(reader.analyzer(query_text)))
    if not terms:
        return np.empty(0, dtype=np.int64)
    postings = reader.load_postings(terms)
    if not postings:
        return np.empty(0, dtype=np.int64)
    ids = np.unique(np.concatenate([p.doc_ids for p in postings.values()]))
    return ids.astype(np.int64)


def facet_counts_ds(meta_ds, ids: np.ndarray, facet_col: str,
                    id_col: str = "doc_id") -> pd.DataFrame:
    """(facet, n_docs) for the rows of ``meta_ds`` whose id is in
    ``ids``: broadcast id set, per-batch vectorized membership filter +
    partial value_counts, tiny pandas merge of facet-sized partials."""
    # searchsorted membership REQUIRES sorted ids — sort here so
    # caller order cannot silently undercount (code-review r05)
    ref = ray.put(np.sort(np.asarray(ids, dtype=np.int64)))

    class PartialCounts:
        def __init__(self):
            self.ids = ray.get(ref)

        def __call__(self, b: pa.Table) -> pa.Table:
            d = b[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
            # membership via searchsorted on the sorted broadcast array —
            # no Python set, no hash build per batch
            pos = np.searchsorted(self.ids, d)
            pos_safe = np.minimum(pos, self.ids.size - 1) if self.ids.size else pos
            hit = (pos < self.ids.size) & (self.ids[pos_safe] == d) if self.ids.size \
                else np.zeros(len(d), dtype=bool)
            sub = b.filter(pa.array(hit))
            agg = sub.group_by(facet_col).aggregate([([], "count_all")])
            return pa.table({"facet": agg[facet_col], "n_part": agg["count_all"]})

    parts = meta_ds.map_batches(PartialCounts, batch_format="pyarrow",
                                concurrency=2).to_pandas()
    if parts.empty:
        return pd.DataFrame({"facet": pd.Series([], dtype=object),
                             "n_docs": pd.Series([], dtype=np.int64)})
    # keep the null-facet bucket (ES "missing" behavior): pandas
    # groupby drops NaN keys by default (code-review r05)
    out = parts.groupby("facet", as_index=False, dropna=False)["n_part"].sum()
    out = out.rename(columns={"n_part": "n_docs"})
    out = out.sort_values(["n_docs", "facet"], ascending=[False, True],
                          kind="mergesort").reset_index(drop=True)
    out["n_docs"] = out["n_docs"].astype(np.int64)
    return out


def search_facets(index_dir: str, query_text: str, meta_ds, facet_col: str,
                  reader=None, id_col: str = "doc_id") -> pd.DataFrame:
    """ES-aggs-shaped facets: count ``facet_col`` values across EVERY
    doc matching ``query_text`` (OR over analyzed terms). ``meta_ds`` is
    a Dataset carrying (id_col, facet_col) — typically the source table
    or a docmap read with ``columns=[id_col, facet_col]``."""
    from hybrid_sanctions_search_engine_ray.pipelines.query import IndexReader

    r = reader or IndexReader(index_dir)
    ids = matching_doc_ids(r, query_text)
    if ids.size == 0:
        return pd.DataFrame({"facet": pd.Series([], dtype=object),
                             "n_docs": pd.Series([], dtype=np.int64)})
    return facet_counts_ds(meta_ds, ids, facet_col, id_col=id_col)


def significant_terms(index_dir: str, query_text: str, corpus_ds,
                      analyzer_cfg=None, top_n: int = 10, min_fg: int = 2,
                      reader=None, sample_size: int | None = None,
                      heuristic: str = "jlh",
                      background_query: str | None = None) -> pd.DataFrame:
    """ES significant_terms aggregation: terms OVERREPRESENTED in the
    query's matching-doc set vs the whole corpus, scored with the JLH
    heuristic ``(fg% − bg%) · (fg% / bg%)`` or — ``heuristic=
    "chi_square"`` — the ES chi_square heuristic (include_negatives=
    false, background_is_superset=true): the 2×2 contingency statistic
    ``N·(ad−bc)² / ((a+b)(c+d)(a+c)(b+d))`` with a=fg_df, b=bg_df−fg_df,
    c=F−fg_df, d=N−F−b, computed in EXACT arbitrary-precision integers
    (one float division at the end, shared with SQL), restricted to
    overrepresented terms via the integer cross-multiply
    ``fg_df·N > bg_df·F``.

    One streaming corpus scan computes BOTH frequencies: per batch the
    tokenizer emits distinct (doc, term) pairs once, every pair counts
    toward the background df and — via the broadcast matching-id
    membership test — toward the foreground df. The shuffle carries only
    (term, fg_p, bg_p) partials. Deterministic ranking: JLH rounded to 4
    decimals desc, then term asc (the same quantized-tie rule the other
    score-ranked tiers use). Returns (term, fg_df, bg_df, jlh)."""
    from ray.data.aggregate import Sum

    from hybrid_sanctions_search_engine_ray.config import AnalyzerConfig
    from hybrid_sanctions_search_engine_ray.pipelines.query import IndexReader
    from hybrid_sanctions_search_engine_ray.stages.textops import round_half_away

    cfg = analyzer_cfg or AnalyzerConfig()
    r = reader or IndexReader(index_dir)
    if sample_size is not None:
        # ES significant_text-under-sampler shape: the foreground is the
        # top-``sample_size`` BM25 hits, not the full matching set
        ids = _topn_sample_ids(r, query_text, sample_size)
    else:
        ids = matching_doc_ids(r, query_text)
    if background_query is not None:
        # ES background_filter: the background is the FILTER's matching
        # set, not the corpus; the foreground must live inside it
        # (background_is_superset) — restrict fg by sorted intersection.
        bg_ids = matching_doc_ids(r, background_query)
        ids = np.intersect1d(ids, bg_ids)
        n_docs = int(bg_ids.size)
    else:
        bg_ids = None
        n_docs = int(r.manifest.n_docs)
    f_size = int(ids.size)
    if f_size == 0:
        score_col = "chi2" if heuristic == "chi_square" else "jlh"
        return pd.DataFrame({"term": pd.Series([], dtype=object),
                             "fg_df": pd.Series([], dtype=np.int64),
                             "bg_df": pd.Series([], dtype=np.int64),
                             score_col: pd.Series([], dtype=np.float64)})
    ref = ray.put(ids)
    bg_ref = ray.put(bg_ids)

    class Partial:
        def __init__(self):
            self.ids = ray.get(ref)
            self.bg_ids = ray.get(bg_ref)

        def __call__(self, b: pa.Table) -> pa.Table:
            from hybrid_sanctions_search_engine_ray.stages.analyze import flat_terms

            parent, terms = flat_terms(b, cfg)
            if not len(terms):
                return pa.table({"term": pa.array([], pa.string()),
                                 "fg_p": pa.array([], pa.int64()),
                                 "bg_p": pa.array([], pa.int64())})
            d = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)[parent]
            df = pd.DataFrame({"term": terms.to_numpy(zero_copy_only=False), "d": d})
            df = df.drop_duplicates()  # distinct (doc, term) within the batch
            dd = df["d"].to_numpy()
            if self.bg_ids is not None:
                # rows outside the background filter count to NEITHER df
                bpos = np.searchsorted(self.bg_ids, dd)
                bsafe = np.minimum(bpos, max(self.bg_ids.size - 1, 0))
                inbg = (self.bg_ids.size > 0) & (bpos < self.bg_ids.size) \
                    & (self.bg_ids[bsafe] == dd)
                df = df[inbg]
                dd = df["d"].to_numpy()
            pos = np.searchsorted(self.ids, dd)
            safe = np.minimum(pos, max(self.ids.size - 1, 0))
            fg = ((pos < self.ids.size) & (self.ids[safe] == dd)).astype(np.int64)
            g = (
                pd.DataFrame({"term": df["term"].to_numpy(), "fg_p": fg,
                              "bg_p": np.ones(len(df), dtype=np.int64)})
                .groupby("term", sort=False).sum().reset_index()
            )
            return pa.Table.from_pandas(g, preserve_index=False)

    agg = (
        corpus_ds.map_batches(Partial, batch_format="pyarrow", concurrency=2)
        .groupby("term")
        .aggregate(Sum("fg_p", alias_name="fg_df"), Sum("bg_p", alias_name="bg_df"))
        .to_pandas()
    )
    agg = agg[agg["fg_df"] >= min_fg].copy()
    if heuristic == "chi_square":
        # overrepresented only (include_negatives=false), exact int test
        agg = agg[agg["fg_df"] * n_docs > agg["bg_df"] * f_size].copy()
        scores = []
        for fg, bg in zip(agg["fg_df"].tolist(), agg["bg_df"].tolist()):
            a, b = int(fg), int(bg) - int(fg)
            c, d = f_size - int(fg), n_docs - f_size - (int(bg) - int(fg))
            num = n_docs * (a * d - b * c) ** 2          # exact Python ints
            den = (a + b) * (c + d) * (a + c) * (b + d)
            scores.append(float(num) / float(den))
        agg["chi2"] = round_half_away(np.array(scores, dtype=np.float64), 4)
        agg = agg.sort_values(["chi2", "term"], ascending=[False, True],
                              kind="mergesort").head(top_n).reset_index(drop=True)
        agg["fg_df"] = agg["fg_df"].astype(np.int64)
        agg["bg_df"] = agg["bg_df"].astype(np.int64)
        return agg[["term", "fg_df", "bg_df", "chi2"]]
    if heuristic != "jlh":
        raise ValueError("heuristic must be 'jlh' or 'chi_square'")
    fgp = agg["fg_df"].to_numpy(np.float64) / float(f_size)
    bgp = agg["bg_df"].to_numpy(np.float64) / float(n_docs)
    agg["jlh"] = round_half_away((fgp - bgp) * (fgp / bgp), 4)
    agg = agg.sort_values(["jlh", "term"], ascending=[False, True],
                          kind="mergesort").head(top_n).reset_index(drop=True)
    agg["fg_df"] = agg["fg_df"].astype(np.int64)
    agg["bg_df"] = agg["bg_df"].astype(np.int64)
    return agg[["term", "fg_df", "bg_df", "jlh"]]


def _topn_sample_ids(reader, query_text: str, sample_size: int) -> np.ndarray:
    """Sorted doc ids of the top-``sample_size`` BM25 hits — the shared
    'sampler scope' contract of sampler_terms and significant_text
    (score desc, doc asc selection via topk_desc)."""
    from hybrid_sanctions_search_engine_ray.functions.bm25 import score_all, topk_desc

    terms = sorted(set(reader.analyzer(query_text)))
    d, s = score_all(list(reader.load_postings(terms).values()))
    if d.size == 0:
        return np.empty(0, dtype=np.int64)
    dk, _ = topk_desc(d, s, sample_size)
    return np.sort(dk.astype(np.int64))


def diversified_sample_ids(reader, query_text: str, sample_size: int,
                           stride: int, max_per_value: int = 1) -> np.ndarray:
    """ES ``diversified_sampler`` id selection: walk the BM25 ranking
    (score desc, doc_id asc) skipping docs whose de-dup value (here the
    conversation, ``doc_id // stride``) already used its
    ``max_docs_per_value`` quota, until ``sample_size`` ids are taken.
    Candidate-sized and fully vectorized (stable sort + cumulative
    per-value counter); returns sorted doc ids."""
    from hybrid_sanctions_search_engine_ray.functions.bm25 import score_all

    terms = sorted(set(reader.analyzer(query_text)))
    d, s = score_all(list(reader.load_postings(terms).values()))
    if d.size == 0:
        return np.empty(0, dtype=np.int64)
    # rank order: score desc, doc_id asc (d is sorted asc already)
    order = np.argsort(-s, kind="mergesort")
    ranked = d[order].astype(np.int64)
    conv = ranked // stride
    df = pd.DataFrame({"conv": conv})
    nth = df.groupby("conv", sort=False).cumcount().to_numpy()
    keep = ranked[nth < max_per_value][:sample_size]
    return np.sort(keep)


def sampler_terms(index_dir: str, query_text: str, corpus_ds,
                  analyzer_cfg=None, sample_size: int = 50, top_n: int = 20,
                  reader=None, sample_ids: np.ndarray | None = None) -> pd.DataFrame:
    """ES ``sampler`` aggregation with a ``terms`` sub-aggregation: the
    aggregation scope is limited to the top-``sample_size`` BM25 hits
    (ES ``shard_size`` analog), then term doc-counts are taken over the
    sample only. The sampled-id set (O(sample_size)) is broadcast into
    one streaming corpus scan that counts distinct (doc, term) pairs for
    member docs; the shuffle carries (term, count) partials. Deterministic
    order: doc_count desc, term asc."""
    from ray.data.aggregate import Sum

    from hybrid_sanctions_search_engine_ray.config import AnalyzerConfig
    from hybrid_sanctions_search_engine_ray.pipelines.query import IndexReader

    cfg = analyzer_cfg or AnalyzerConfig()
    r = reader or IndexReader(index_dir)
    ids = sample_ids if sample_ids is not None else _topn_sample_ids(r, query_text, sample_size)
    empty = pd.DataFrame({"term": pd.Series([], dtype=object),
                          "doc_count": pd.Series([], dtype=np.int64),
                          "rank": pd.Series([], dtype=np.int32)})
    if ids.size == 0:
        return empty
    # sorted membership contract, caller-order independent (r05 review)
    ref = ray.put(np.sort(np.asarray(ids, dtype=np.int64)))

    class Partial:
        def __init__(self):
            self.ids = ray.get(ref)

        def __call__(self, b: pa.Table) -> pa.Table:
            from hybrid_sanctions_search_engine_ray.stages.analyze import flat_terms

            d_all = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
            pos = np.searchsorted(self.ids, d_all)
            safe = np.minimum(pos, self.ids.size - 1)
            member = (pos < self.ids.size) & (self.ids[safe] == d_all)
            sub = b.filter(pa.array(member))
            if len(sub) == 0:
                return pa.table({"term": pa.array([], pa.string()),
                                 "c_p": pa.array([], pa.int64())})
            parent, toks = flat_terms(sub, cfg)
            if not len(toks):
                return pa.table({"term": pa.array([], pa.string()),
                                 "c_p": pa.array([], pa.int64())})
            dd = sub["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)[parent]
            df = pd.DataFrame({"term": toks.to_numpy(zero_copy_only=False), "d": dd})
            g = (
                df.drop_duplicates()
                .groupby("term", sort=False).size().rename("c_p").reset_index()
            )
            return pa.Table.from_pandas(g, preserve_index=False)

    agg = (
        corpus_ds.map_batches(Partial, batch_format="pyarrow", concurrency=2)
        .groupby("term")
        .aggregate(Sum("c_p", alias_name="doc_count"))
        .to_pandas()
    )
    if agg.empty:
        return empty
    agg = agg.sort_values(["doc_count", "term"], ascending=[False, True],
                          kind="mergesort").head(top_n).reset_index(drop=True)
    agg["doc_count"] = agg["doc_count"].astype(np.int64)
    agg["rank"] = np.arange(1, len(agg) + 1, dtype=np.int32)
    return agg[["term", "doc_count", "rank"]]


class _Percolator:
    """Actor-pool callable for reverse search (ES percolate): each
    stored query is a conjunctive term set; a document matches when its
    token set covers the query's terms. The (tiny) query table broadcasts
    once; the document stream is tokenized per batch and matched with a
    vectorized membership matrix — no per-(doc, query) Python loop."""

    def __init__(self, queries_ref, analyzer_cfg):
        self.queries = ray.get(queries_ref)  # list[(query_id, tuple(terms))]
        self.cfg = analyzer_cfg
        vocab = sorted({t for _, ts in self.queries for t in ts})
        self.vocab = np.array(vocab, dtype=object)
        # per-query indicator rows over the query vocabulary
        self.need = np.zeros((len(self.queries), len(vocab)), dtype=bool)
        vidx = {t: j for j, t in enumerate(vocab)}
        for i, (_, ts) in enumerate(self.queries):
            for t in ts:
                self.need[i, vidx[t]] = True
        self.need_counts = self.need.sum(axis=1)

    def __call__(self, b: pa.Table) -> pa.Table:
        from hybrid_sanctions_search_engine_ray.stages.analyze import flat_terms

        parent, terms = flat_terms(b, self.cfg)
        n = b.num_rows
        have = np.zeros((n, self.vocab.size), dtype=bool)
        if len(terms) and self.vocab.size:  # empty stored-query vocab →
            # zero matches, not an IndexError (code-review r05)
            t = terms.to_numpy(zero_copy_only=False)
            pos = np.searchsorted(self.vocab, t)
            safe = np.minimum(pos, self.vocab.size - 1)
            hit = (pos < self.vocab.size) & (self.vocab[safe] == t)
            have[parent[hit], pos[hit]] = True
        # doc × query coverage: every needed term present
        matched = (have @ self.need.T.astype(np.int64)) >= self.need_counts[None, :]
        di, qi = np.nonzero(matched)
        return pa.table(
            {
                "doc_id": pa.array(b["doc_id"].to_numpy(zero_copy_only=False)[di]),
                "query_id": pa.array([self.queries[j][0] for j in qi], pa.string()),
            }
        )


def percolate(docs_ds, stored_queries: list[tuple[str, str]], analyzer_cfg=None,
              concurrency: int = 2):
    """Reverse search (ES percolator): match a STREAM of documents
    against a small table of stored conjunctive queries. Returns a
    Dataset of (doc_id, query_id) matches. The stored queries ship once
    (object store); documents never shuffle."""
    from hybrid_sanctions_search_engine_ray.config import AnalyzerConfig
    from hybrid_sanctions_search_engine_ray.functions.analyzer import get_analyzer

    cfg = analyzer_cfg or AnalyzerConfig()
    an = get_analyzer(cfg)
    parsed = [(qid, tuple(sorted(set(an(text))))) for qid, text in stored_queries]
    parsed = [(qid, ts) for qid, ts in parsed if ts]
    ref = ray.put(parsed)
    return docs_ds.map_batches(
        _Percolator,
        fn_constructor_args=(ref, cfg),
        batch_format="pyarrow",
        concurrency=concurrency,
    )


def frequent_pairs(corpus_ds, analyzer_cfg=None, top_items: int = 50,
                   min_support: int = 5, top_n: int = 20,
                   vocab_df: pd.DataFrame | None = None) -> pd.DataFrame:
    """ES ``frequent_item_sets`` (size-2) analog over document term sets,
    with APRIORI pruning — the move that keeps pair mining feasible at
    corpus scale: pass 1 computes term document frequencies and keeps the
    ``top_items`` most frequent terms (df desc, term asc — every pair's
    items must each be frequent); pass 2 streams the corpus once more,
    intersects each doc's distinct terms with the broadcast item set and
    counts co-occurring pairs (a < b) via partial aggregation. The pair
    key space is bounded by top_items², never vocabulary². Returns pairs
    with support ≥ ``min_support`` ranked (support desc, pair asc), top
    ``top_n``. ``vocab_df`` (term, df) skips pass 1 when the caller
    already has the dictionary."""
    from ray.data.aggregate import Sum

    from hybrid_sanctions_search_engine_ray.config import AnalyzerConfig

    cfg = analyzer_cfg or AnalyzerConfig()
    if vocab_df is None:
        raise ValueError("frequent_pairs needs vocab_df (term, df) — pass the dictionary")
    vocab_df = vocab_df.sort_values(["df", "term"], ascending=[False, True],
                                    kind="mergesort").head(top_items)
    items = np.sort(vocab_df["term"].to_numpy(dtype=object))
    ref = ray.put(items)

    class Partial:
        def __init__(self):
            self.items = ray.get(ref)

        def __call__(self, b: pa.Table) -> pa.Table:
            from hybrid_sanctions_search_engine_ray.stages.analyze import flat_terms

            parent, terms = flat_terms(b, cfg)
            empty = pa.table({"term_a": pa.array([], pa.string()),
                              "term_b": pa.array([], pa.string()),
                              "s_p": pa.array([], pa.int64())})
            if not len(terms):
                return empty
            t = terms.to_numpy(zero_copy_only=False)
            pos = np.searchsorted(self.items, t)
            safe = np.minimum(pos, self.items.size - 1)
            keep = (pos < self.items.size) & (self.items[safe] == t)
            if not keep.any():
                return empty
            df = pd.DataFrame({"d": np.asarray(parent)[keep], "t": t[keep]}).drop_duplicates()
            # per-doc sorted item lists → all (a < b) pairs, vectorized per doc group
            rows_a, rows_b = [], []
            for _, g in df.groupby("d", sort=False):
                ts = np.sort(g["t"].to_numpy(dtype=object))
                if ts.size < 2:
                    continue
                ia, ib = np.triu_indices(ts.size, k=1)
                rows_a.append(ts[ia])
                rows_b.append(ts[ib])
            if not rows_a:
                return empty
            pdf = pd.DataFrame({"term_a": np.concatenate(rows_a),
                                "term_b": np.concatenate(rows_b)})
            g = pdf.groupby(["term_a", "term_b"], sort=False).size().rename("s_p").reset_index()
            return pa.Table.from_pandas(g, preserve_index=False)

    agg = (
        corpus_ds.map_batches(Partial, batch_format="pyarrow", concurrency=2)
        .groupby(["term_a", "term_b"])
        .aggregate(Sum("s_p", alias_name="support"))
        .to_pandas()
    )
    empty = pd.DataFrame({"term_a": pd.Series([], dtype=object),
                          "term_b": pd.Series([], dtype=object),
                          "support": pd.Series([], dtype=np.int64),
                          "rank": pd.Series([], dtype=np.int32)})
    if agg.empty:
        return empty
    agg = agg[agg["support"] >= min_support]
    if agg.empty:
        return empty
    agg = agg.sort_values(["support", "term_a", "term_b"],
                          ascending=[False, True, True], kind="mergesort").head(top_n)
    agg = agg.reset_index(drop=True)
    agg["support"] = agg["support"].astype(np.int64)
    agg["rank"] = np.arange(1, len(agg) + 1, dtype=np.int32)
    return agg[["term_a", "term_b", "support", "rank"]]


def frequent_triples(corpus_ds, analyzer_cfg=None, top_items: int = 25,
                     min_support: int = 5, top_n: int = 20,
                     vocab_df: pd.DataFrame | None = None) -> pd.DataFrame:
    """ES ``frequent_item_sets`` size-3 — the apriori step beyond
    frequent_pairs: same two-pass shape (top-df item broadcast, per-doc
    distinct-item triples via per-doc combination expansion, partial
    counts → one bounded groupby). Key space ≤ C(top_items, 3), never
    vocabulary³. Returns (term_a < term_b < term_c, support) ranked
    (support desc, triple asc), top ``top_n``."""
    from ray.data.aggregate import Sum

    from hybrid_sanctions_search_engine_ray.config import AnalyzerConfig

    cfg = analyzer_cfg or AnalyzerConfig()
    if vocab_df is None:
        raise ValueError("frequent_triples needs vocab_df (term, df)")
    vocab_df = vocab_df.sort_values(["df", "term"], ascending=[False, True],
                                    kind="mergesort").head(top_items)
    items = np.sort(vocab_df["term"].to_numpy(dtype=object))
    ref = ray.put(items)

    class Partial:
        def __init__(self):
            self.items = ray.get(ref)

        def __call__(self, b: pa.Table) -> pa.Table:
            from itertools import combinations

            from hybrid_sanctions_search_engine_ray.stages.analyze import flat_terms

            parent, terms = flat_terms(b, cfg)
            empty = pa.table({"term_a": pa.array([], pa.string()),
                              "term_b": pa.array([], pa.string()),
                              "term_c": pa.array([], pa.string()),
                              "s_p": pa.array([], pa.int64())})
            if not len(terms):
                return empty
            t = terms.to_numpy(zero_copy_only=False)
            pos = np.searchsorted(self.items, t)
            safe = np.minimum(pos, self.items.size - 1)
            keep = (pos < self.items.size) & (self.items[safe] == t)
            if not keep.any():
                return empty
            df = pd.DataFrame({"d": np.asarray(parent)[keep],
                               "t": t[keep]}).drop_duplicates()
            ta, tb, tc = [], [], []
            for _, g in df.groupby("d", sort=False):
                ts = np.sort(g["t"].to_numpy(dtype=object))
                for a, b_, c in combinations(ts, 3):
                    ta.append(a)
                    tb.append(b_)
                    tc.append(c)
            if not ta:
                return empty
            p = pa.table({"term_a": pa.array(ta, pa.string()),
                          "term_b": pa.array(tb, pa.string()),
                          "term_c": pa.array(tc, pa.string())})
            g2 = p.group_by(["term_a", "term_b", "term_c"]).aggregate(
                [([], "count_all")])
            return pa.table({"term_a": g2["term_a"], "term_b": g2["term_b"],
                             "term_c": g2["term_c"],
                             "s_p": g2["count_all"].cast(pa.int64())})

    agg = (
        corpus_ds.map_batches(Partial, batch_format="pyarrow", concurrency=2)
        .groupby(["term_a", "term_b", "term_c"])
        .aggregate(Sum("s_p", alias_name="support"))
        .to_pandas()
    )
    agg = agg[agg["support"] >= min_support]
    agg["support"] = agg["support"].astype(np.int64)
    return (agg.sort_values(["support", "term_a", "term_b", "term_c"],
                            ascending=[False, True, True, True],
                            kind="mergesort").head(top_n).reset_index(drop=True))
