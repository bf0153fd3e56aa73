"""Federated / delta-index querying: exact BM25 over a union of
independently built indexes.

Reference analog: the overlay+active index pair with max-score merge
(reference: src/ai_service/layers/embeddings/indexing/
watchlist_index_service.py:85-227 — SURVEY.md §2.7 D2) and, at scale,
the standard doc-sharded search topology. Because our posting payloads
store the idf-INDEPENDENT factor per posting (tf, dl inline), a
federation can compute mathematically exact global BM25:

    df_global(t)  = Σ_i df_i(t)          (doc-id spaces are disjoint)
    N_global      = Σ_i N_i
    avgdl_global  = Σ_i total_tokens_i / N_global
    score         = idf(N_global, df_global) · tf_factor(tf, dl, avgdl_global)

tf_factor depends on avgdl, which differs from each sub-index's build
value — so the federated reader recomputes factors from the decoded
(tf, dl) arrays rather than trusting per-index block maxes. Results are
therefore IDENTICAL to a single merged index build (test:
tests/test_federated.py), which makes incremental ingestion a no-cost
operation: build a delta index over new conversations, query the
federation, compact when convenient.

``doc_id_offsets`` lifts each sub-index's dense local ids into one
global id space (offset by the cumulative doc counts by default). Each
sub-index's deletes are its own: its reader's ``IndexReader.live`` (the
one visibility rule) keeps its tombstoned docs out of the results, while
df_global still counts them until that sub-index is compacted.
"""

from __future__ import annotations

import numpy as np

from hybrid_sanctions_search_engine_ray.functions.bm25 import TermPosting, idf, tf_factor
from hybrid_sanctions_search_engine_ray.pipelines.query import IndexReader, search_kernel
from hybrid_sanctions_search_engine_ray.state.manifest import ANALYZER, SCORING, identity_diff


class FederatedReader:
    """Query a list of index dirs as one logical index (exact BM25)."""

    def __init__(self, index_dirs: list[str], doc_id_offsets: list[int] | None = None):
        if not index_dirs:
            raise ValueError("need at least one index dir")
        self.readers = [IndexReader(d) for d in index_dirs]
        if doc_id_offsets is None:
            # offsets span the full dense id range = docmap row count (NOT
            # manifest.n_docs, which counts only docs with ≥1 token — an
            # empty-text doc still consumes an id)
            import os

            import pyarrow.dataset as pads

            sizes = [
                pads.dataset(os.path.join(d, "docmap.parquet")).count_rows()
                for d in index_dirs[:-1]
            ]
            doc_id_offsets = list(np.cumsum([0] + sizes))
        if len(doc_id_offsets) != len(self.readers):
            raise ValueError("doc_id_offsets must match index_dirs")
        self.offsets = [int(o) for o in doc_id_offsets]
        self.n_docs = sum(r.manifest.n_docs for r in self.readers)
        total_tokens = sum(r.manifest.total_tokens for r in self.readers)
        self.avgdl = total_tokens / self.n_docs if self.n_docs else 0.0
        m0 = self.readers[0].manifest
        for d, r in zip(index_dirs[1:], self.readers[1:]):
            # FULL analyzer identity (stem/dedup/bounds/case routing) —
            # a stemmed + unstemmed pair would silently lose the
            # unstemmed sub-index's docs from every result
            # (code-review r05 finding); layout may differ
            diffs = identity_diff(m0, r.manifest, SCORING + ANALYZER, labels=("first", "sub-index"))
            if diffs:
                raise ValueError(f"sub-indexes disagree on scoring/analyzer parameters ({d}): "
                                 + "; ".join(diffs))
        self.k1, self.b, self.block_size = m0.k1, m0.b, m0.block_size
        self.analyzer = self.readers[0].analyzer
        self._merged: dict[str, TermPosting | None] = {}

    def _merged_posting(self, term: str) -> TermPosting | None:
        if term in self._merged:
            return self._merged[term]
        # factors must be recomputed against the GLOBAL avgdl, so pull the
        # raw (doc_ids, tf, dl) arrays from each sub-reader's decode cache.
        # df_global sums the UNFILTERED per-shard df (Lucene's
        # deleted-until-merge stats), while each shard's reader keeps only
        # its live docs in the merged candidates — so a single-shard
        # federation scores identically to querying the shard directly.
        doc_ids, tfs, dls = [], [], []
        df_global = 0
        for reader, off in zip(self.readers, self.offsets):
            raw = reader.load_raw(term)
            if raw is None:
                continue
            df_global += int(raw[0].size)
            d, t, l = reader.live(*raw)  # noqa: E741
            if d.size == 0:
                continue
            doc_ids.append(d.astype(np.uint64) + np.uint64(off))
            tfs.append(t)
            dls.append(l)
        if not doc_ids:
            self._merged[term] = None
            return None
        d = np.concatenate(doc_ids)
        t = np.concatenate(tfs)
        l = np.concatenate(dls)  # noqa: E741
        order = np.argsort(d, kind="stable")
        d, t, l = d[order], t[order], l[order]  # noqa: E741
        factors = tf_factor(t, l, self.k1, self.b, self.avgdl)
        tp = TermPosting(term, float(idf(self.n_docs, df_global)), d, factors, self.block_size)
        self._merged[term] = tp
        return tp

    def search_one(self, query_text: str, top_k: int, method: str = "maxscore"):
        fn = search_kernel(method)
        terms = sorted(set(self.analyzer(query_text)))
        postings = [p for t in terms if (p := self._merged_posting(t)) is not None]
        return fn(postings, top_k)
