"""BM25 query engine — scorer actor pool over the on-disk index.

The Ray-Data re-expression of the reference's query path collapsed to
its lexical core (reference: src/ai_service/layers/search/
hybrid_search_service.py:364-911 ``find_candidates``/``_hybrid_search``
minus the fuzzy/vector escalation; local-index analog
src/ai_service/layers/embeddings/indexing/watchlist_index_service.py:85-227
— SURVEY.md §3.3): a batch of queries is a small Dataset streamed
through ``map_batches(BM25Scorer, concurrency=N)``; each actor loads
manifest + dictionary slices once (reference's load-once services,
SURVEY.md §2.3 A4), reads only the term-partition segment files its
query terms hash to (partition pruning + parquet row-group term
filters), decodes and caches postings, and scores with MaxScore /
block-max pruning (rank-identical to exhaustive TAAT, scores to ~1 ulp
— verified in tests/test_query.py).

Output: ``(query_id, rank:int32, doc_id:int64, score:float64)``, ties
broken (score desc, doc_id asc); optional docmap join re-attaches
``(conv_id, turn_idx)`` via row-group-pruned point lookups.
"""

from __future__ import annotations

import dataclasses
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads

from hybrid_sanctions_search_engine_ray.config import DEFAULT_CONFIG, AnalyzerConfig, EngineConfig
from hybrid_sanctions_search_engine_ray.functions.analyzer import get_analyzer
from hybrid_sanctions_search_engine_ray.functions.bm25 import (
    TermPosting,
    idf,
    score_all,
    score_maxscore,
    score_taat,
    tf_factor,
    topk_desc,
)
# unused here, but perfbench's decode span wraps it until ROADMAP #2
from hybrid_sanctions_search_engine_ray.functions.codec import decode_posting  # noqa: F401
from hybrid_sanctions_search_engine_ray.functions.hashing import term_hash
from hybrid_sanctions_search_engine_ray.stages.postings import (
    decode_positions_column,
    decode_segment,
    read_partition,
    segment_file,
)
from hybrid_sanctions_search_engine_ray.state.manifest import IndexManifest

# cap on a query's top_k (reference contracts.py:62 — default 50, max 1000)
MAX_TOP_K = 1000


def search_kernel(method: str):
    """The top-k kernel a reader serves by ``method`` name, looked up
    when called (so a wrapped ``score_maxscore`` is the one served)."""
    if method == "maxscore":
        return score_maxscore
    if method == "taat":
        return score_taat
    raise ValueError(f"unknown search method {method!r}; expected one of ['maxscore', 'taat']")


class IndexReader:
    """Loads manifest once; reads + caches decoded postings on demand."""

    def __init__(self, index_dir: str, search_mode: str | None = None,
                 pit_id: str | None = None):
        """``search_mode`` overrides the QUERY-side analyzer only (ES
        search_analyzer): the edge-ngram (autocomplete) field indexes
        prefixes but queries with plain tokens — reference
        elasticsearch_adapters.py:247-256 (match with operator "and"
        against the edge_ngram subfield). ``pit_id`` pins visibility to
        a point-in-time snapshot (maintenance.open_point_in_time):
        deletes issued after the pit was opened stay visible to this
        reader — the ES PIT consistency contract."""
        self.index_dir = index_dir
        self.manifest = IndexManifest.load(index_dir)
        if self.manifest.status != "complete":
            raise RuntimeError(f"index at {index_dir} is not complete (status={self.manifest.status})")
        self.hot = frozenset(self.manifest.hot_terms)
        cfg = self.manifest.engine_config()
        # query strings have no language column — keep the per-string
        # script detection for the case rule
        self.cfg = dataclasses.replace(cfg, analyzer=dataclasses.replace(cfg.analyzer, lang_col=None))
        self.analyzer = get_analyzer(
            AnalyzerConfig(mode=search_mode) if search_mode else self.cfg.analyzer
        )
        # tombstoned docs are excluded from every result immediately;
        # corpus stats (N, avgdl, df) still count them until
        # compact_index runs — Lucene's deleted-until-merge semantics
        # (pipelines/maintenance.py)
        from hybrid_sanctions_search_engine_ray.pipelines.maintenance import (
            load_pit_tombstones, load_tombstones)

        self.tombstones = (
            load_pit_tombstones(index_dir, pit_id) if pit_id is not None
            else load_tombstones(index_dir)
        )
        self._postings: dict[str, TermPosting | None] = {}
        self._raw: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray] | None] = {}

    # --- postings -----------------------------------------------------------
    # (df per term is derived from the segment rows themselves — Σ n_docs
    # over a term's sub-segments across its salted partitions — so no
    # separate dictionary artifact is consulted at query time)
    def _parts_for(self, term: str) -> list[int]:
        h = term_hash(term)
        p = self.cfg.num_partitions
        if term not in self.hot:
            return [h % p]
        parts = {h % p}
        for salt in range(self.cfg.hot_term_salt_buckets):
            parts.add((h + 1_000_003 * (1 + salt)) % p)
        return sorted(parts)

    def load_postings(self, terms: list[str]) -> dict[str, TermPosting]:
        need = sorted({t for t in terms if t not in self._postings})
        if need:
            by_part: dict[int, list[str]] = {}
            for t in need:
                for p in self._parts_for(t):
                    by_part.setdefault(p, []).append(t)
            tables = []
            for part, ts in sorted(by_part.items()):
                f = segment_file(self.index_dir, part)
                if os.path.exists(f):
                    tables.append((part, pads.dataset(f).to_table(
                        filter=pads.field("term").isin(ts),
                        columns=["term", "seg_idx", "docs", "tfs", "dls"],
                    )))
            # one batched decode per partition table, after all the reads
            # (measured faster than decoding each table as it arrives);
            # row lengths come from the docs bytes, cheaper than reading n_docs
            segs: dict[str, list[tuple[int, int, np.ndarray, np.ndarray, np.ndarray]]] = {}
            for part, tbl in tables:
                d, tf, dl, n = decode_segment(tbl)
                ends = np.cumsum(n).tolist()
                for term, seg, start, end in zip(tbl["term"].to_pylist(), tbl["seg_idx"].to_pylist(),
                                                 [0] + ends[:-1], ends):
                    segs.setdefault(term, []).append((part, seg, d[start:end], tf[start:end], dl[start:end]))
            del tables
            m = self.manifest
            for t in need:
                rows = segs.pop(t, None)
                if not rows:
                    self._postings.setdefault(t, None)
                    self._raw.setdefault(t, None)
                    continue
                rows.sort(key=lambda s: (s[0], s[1]))
                doc_ids = np.concatenate([s[2] for s in rows])
                tfs = np.concatenate([s[3] for s in rows])
                dls = np.concatenate([s[4] for s in rows])
                order = np.argsort(doc_ids, kind="stable")
                doc_ids, tfs, dls = doc_ids[order], tfs[order], dls[order]
                df = int(doc_ids.size)  # exact; counts tombstoned docs until compaction
                # _raw stays UNFILTERED — it is the federation's df/score
                # evidence (pipelines/federated.py applies each shard's
                # tombstones itself, keeping federated == direct)
                self._raw[t] = (doc_ids, tfs, dls)
                if self.tombstones.size:
                    from hybrid_sanctions_search_engine_ray.pipelines.maintenance import (
                        tombstone_mask,
                    )

                    hit = tombstone_mask(self.tombstones, doc_ids)
                    if hit.any():
                        keep = ~hit
                        doc_ids, tfs, dls = doc_ids[keep], tfs[keep], dls[keep]
                if doc_ids.size == 0:  # every posting tombstoned
                    self._postings[t] = None
                    continue
                factors = tf_factor(tfs, dls, m.k1, m.b, m.avgdl)
                self._postings[t] = TermPosting(
                    t, float(idf(m.n_docs, df)), doc_ids, factors, m.block_size
                )
        return {t: p for t in terms if (p := self._postings.get(t)) is not None}

    def load_positions(self, term: str) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """Positional postings for one term (requires an index built with
        ``store_positions=True``): returns ``(doc_ids, offsets, flat)``
        where doc ``doc_ids[i]``'s ascending in-document positions are
        ``flat[offsets[i]:offsets[i+1]]``. Sub-segments are merged in
        doc-id order, mirroring :meth:`load_postings`."""
        # sub-segments in (part, seg_idx) order, as load_postings takes them
        tables = [tbl.take(pc.sort_indices(tbl["seg_idx"])) for part in self._parts_for(term)
                  if (tbl := read_partition(self.index_dir, part, [term],
                                            ["seg_idx", "docs", "tfs", "poss"])) is not None]
        tbl = pa.concat_tables(tables) if tables else None
        if tbl is None or tbl.num_rows == 0:
            return None
        doc_ids, counts, _, _ = decode_segment(tbl)
        flat, offs = decode_positions_column(tbl, counts)
        order = np.argsort(doc_ids, kind="stable")
        if self.tombstones.size:  # same exclusion as load_postings
            from hybrid_sanctions_search_engine_ray.pipelines.maintenance import tombstone_mask

            order = order[~tombstone_mask(self.tombstones, doc_ids[order])]
        if order.size == 0:
            return None
        counts = counts[order].astype(np.int64)
        offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
        # each kept doc's positions, moved to its place in doc-id order
        src = np.repeat(offs[order] - offsets[:-1], counts) + np.arange(offsets[-1])
        return doc_ids[order], offsets, flat[src]

    def load_raw(self, term: str) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """Decoded (doc_ids, tfs, doclens) for one term — the federation
        building block (pipelines/federated.py)."""
        if term not in self._raw:
            self.load_postings([term])
        return self._raw.get(term)

    # --- scoring ------------------------------------------------------------
    def search_one(self, query_text: str, top_k: int, method: str = "maxscore") -> tuple[np.ndarray, np.ndarray]:
        fn = search_kernel(method)
        # clamp to the reference's cap (contracts.py:62 — default 50, max 1000)
        top_k = max(1, min(int(top_k), MAX_TOP_K))
        terms = sorted(set(self.analyzer(query_text)))
        postings = list(self.load_postings(terms).values())
        return fn(postings, top_k)

    def _search_one_kernel(self, query_text: str, top_k: int, kernel) -> tuple[np.ndarray, np.ndarray]:
        """Shared scan for the pluggable similarity modules (the ES
        per-field ``similarity`` setting): same postings, same TAAT
        accumulation and (round4 desc, doc_id asc) rank as BM25 — only
        the per-posting score kernel changes. ``kernel(tfs, dls)`` gets
        one term's decoded posting arrays and returns per-posting
        scores; non-positive per-term scores are dropped (the Lucene
        clamp — a no-op for kernels that are strictly positive)."""
        top_k = max(1, min(int(top_k), MAX_TOP_K))
        terms = sorted(set(self.analyzer(query_text)))
        # one partition-grouped read for ALL terms (the BM25 path's
        # batching — not a per-term parquet scan), which also fills _raw
        self.load_postings(terms)
        if self.tombstones.size:
            from hybrid_sanctions_search_engine_ray.pipelines.maintenance import (
                tombstone_mask,
            )
        d_parts: list[np.ndarray] = []
        s_parts: list[np.ndarray] = []
        for term in terms:  # query-term count, not posting count
            raw = self._raw.get(term)
            if raw is None:
                continue
            doc_ids, tfs, dls = raw
            # kernel sees the UNFILTERED posting (collection stats like
            # cttf count tombstoned docs until compaction — the same
            # convention as df in the BM25 path), but tombstoned docs
            # are excluded from the RESULTS (the documented reader
            # invariant; code-review r05 finding)
            s = kernel(tfs.astype(np.float64), dls.astype(np.float64))
            keep = s > 0.0
            if self.tombstones.size:
                keep &= ~tombstone_mask(self.tombstones, doc_ids)
            d_parts.append(doc_ids[keep])
            s_parts.append(s[keep])
        if not d_parts or not sum(x.size for x in d_parts):
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
        alld = np.concatenate(d_parts)
        alls = np.concatenate(s_parts)
        docs, inv = np.unique(alld, return_inverse=True)
        scores = np.bincount(inv, weights=alls)
        order = np.lexsort((docs, -np.round(scores, 4)))[:top_k]
        return docs[order], scores[order]

    def search_one_lmd(self, query_text: str, top_k: int,
                       mu: float = 2000.0) -> tuple[np.ndarray, np.ndarray]:
        """LM-Dirichlet similarity (Lucene ``LMDirichletSimilarity`` —
        the ES similarity-module alternative to BM25; Zhai & Lafferty
        2001): per matched term,
        ``max(0, ln(1 + tf/(μ·P(t|C))) + ln(μ/(dl+μ)))`` where
        ``P(t|C) = cttf / total_tokens`` (collection language model).
        Exact SQL twin in the driver."""
        total = float(self.manifest.total_tokens)

        def kernel(tfs: np.ndarray, dls: np.ndarray) -> np.ndarray:
            p = tfs.sum() / total
            return np.log(1.0 + tfs / (mu * p)) + np.log(mu / (dls + mu))

        return self._search_one_kernel(query_text, top_k, kernel)

    def search_one_lmjm(self, query_text: str, top_k: int,
                        lam: float = 0.1) -> tuple[np.ndarray, np.ndarray]:
        """LM Jelinek-Mercer similarity (Lucene
        ``LMJelinekMercerSimilarity``; Zhai & Lafferty 2001 linear
        interpolation smoothing): per matched term,
        ``ln(1 + ((1-λ)·tf/dl) / (λ·P(t|C)))`` with the same collection
        LM ``P(t|C) = cttf / total_tokens`` convention as the Dirichlet
        sibling (strictly positive for tf>0, so the clamp never fires).
        λ = 0.1 is Lucene's short-query default. Exact SQL twin."""
        total = float(self.manifest.total_tokens)

        def kernel(tfs: np.ndarray, dls: np.ndarray) -> np.ndarray:
            p = tfs.sum() / total
            # np.log(1+x), not log1p: the SQL twin computes ln(1+x) and
            # the two must agree to the same libm call
            return np.log(1.0 + ((1.0 - lam) * tfs / dls) / (lam * p))

        return self._search_one_kernel(query_text, top_k, kernel)

    def search_one_classic(self, query_text: str, top_k: int) -> tuple[np.ndarray, np.ndarray]:
        """Lucene classic TF-IDF similarity (``ClassicSimilarity``, the
        pre-BM25 Lucene default) with EXACT norms (Lucene's lossy
        1-byte norm encoding deliberately not reproduced): per matched
        term ``sqrt(tf) · idf² · (1/sqrt(dl))`` where
        ``idf = 1 + ln((N+1)/(df+1))`` — idf appears squared because it
        enters both the query weight and the doc weight. df counts
        every posting (pre-tombstone), matching BM25's df convention
        (load_postings). Exact SQL twin."""
        n_docs = float(self.manifest.n_docs)

        def kernel(tfs: np.ndarray, dls: np.ndarray) -> np.ndarray:
            i = 1.0 + np.log((n_docs + 1.0) / (tfs.size + 1.0))
            return np.sqrt(tfs) * (i * i) / np.sqrt(dls)

        return self._search_one_kernel(query_text, top_k, kernel)

    def search_one_dfr(self, query_text: str, top_k: int,
                       c: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
        """DFR similarity, configuration GB2 (divergence from
        randomness, Amati & van Rijsbergen 2002 — the ES similarity
        module's ``dfr`` with basic_model=g / after_effect=b /
        normalization=h2): per matched term with
        ``tfn = tf·log2(1 + c·avgdl/dl)`` (H2 length normalization) and
        collection prior ``λ = F/N`` (total term freq over doc count),
        score = ``(F+1)/(df·(tfn+1))  ·  (log2(1+λ) + tfn·log2((1+λ)/λ))``
        (after-effect B × geometric basic model). Strictly positive.
        Exact SQL twin."""
        n_docs = float(self.manifest.n_docs)
        avgdl = float(self.manifest.avgdl)
        ln2 = np.log(2.0)

        def kernel(tfs: np.ndarray, dls: np.ndarray) -> np.ndarray:
            big_f = tfs.sum()
            lam = big_f / n_docs
            # ln(1+x) spelled as in the SQL twin (not log1p) for parity
            tfn = tfs * np.log(1.0 + c * avgdl / dls) / ln2
            inf1 = (np.log(1.0 + lam) + tfn * np.log((1.0 + lam) / lam)) / ln2
            prise = (big_f + 1.0) / (tfs.size * (tfn + 1.0))
            return prise * inf1

        return self._search_one_kernel(query_text, top_k, kernel)

    def search_one_dfi(self, query_text: str, top_k: int) -> tuple[np.ndarray, np.ndarray]:
        """DFI similarity (divergence from independence; Kocabaş, Dinçer
        & Karaoğlan 2014 — the ES ``DFI`` similarity module,
        ``independence_measure=standardized``, Lucene
        ``DFISimilarity``): per matched term the expected frequency
        under independence is ``e = (F+1)·dl/(T+1)`` (F = collection
        term frequency, T = total tokens); postings with ``tf ≤ e``
        contribute NOTHING (the published DFI clamp — observed at or
        below chance is no evidence), otherwise
        ``score = log2(1 + (tf − e)/√e)``. Exact SQL twin."""
        total = float(self.manifest.total_tokens)
        ln2 = np.log(2.0)

        def kernel(tfs: np.ndarray, dls: np.ndarray) -> np.ndarray:
            e = (tfs.sum() + 1.0) * dls / (total + 1.0)
            ok = tfs > e
            m = np.zeros_like(tfs)
            m[ok] = (tfs[ok] - e[ok]) / np.sqrt(e[ok])
            out = np.zeros_like(tfs)
            out[ok] = np.log(1.0 + m[ok]) / ln2
            return out

        return self._search_one_kernel(query_text, top_k, kernel)

    def search_one_ib(self, query_text: str, top_k: int,
                      c: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
        """IB similarity (information-based model, Clinchant & Gaussier
        2010 — the ES ``IB`` similarity module with
        ``distribution=ll, lambda=df, normalization=h2``; Lucene
        ``IBSimilarity``): per matched term with H2-normalized
        frequency ``tfn = tf·log2(1 + c·avgdl/dl)`` and document-ratio
        prior ``λ = (df+1)/(N+1)``, score = ``−log2(λ/(tfn+λ))``
        (the log-logistic information content). Strictly positive for
        tf > 0. Exact SQL twin."""
        n_docs = float(self.manifest.n_docs)
        avgdl = float(self.manifest.avgdl)
        ln2 = np.log(2.0)

        def kernel(tfs: np.ndarray, dls: np.ndarray) -> np.ndarray:
            lam = (tfs.size + 1.0) / (n_docs + 1.0)
            tfn = tfs * np.log(1.0 + c * avgdl / dls) / ln2
            return np.log((tfn + lam) / lam) / ln2

        return self._search_one_kernel(query_text, top_k, kernel)

    def search_one_scripted(self, query_text: str, top_k: int,
                            script) -> tuple[np.ndarray, np.ndarray]:
        """Scripted similarity (the ES ``scripted`` similarity module:
        a user-supplied script over the same per-term statistics
        Painless exposes — tf, dl, df, cttf, N, avgdl, total_tokens).
        ``script(tfs, dls, ctx)`` receives one term's decoded posting
        arrays (float64) plus a stats dict with keys ``df``, ``cttf``,
        ``n_docs``, ``avgdl``, ``total_tokens``; it returns per-posting
        scores. Non-positive scores are dropped (the shared Lucene
        clamp), accumulation/ranking identical to every other module
        (``_search_one_kernel``)."""
        base = {
            "n_docs": float(self.manifest.n_docs),
            "avgdl": float(self.manifest.avgdl),
            "total_tokens": float(self.manifest.total_tokens),
        }

        def kernel(tfs: np.ndarray, dls: np.ndarray) -> np.ndarray:
            ctx = dict(base, df=float(tfs.size), cttf=float(tfs.sum()))
            return script(tfs, dls, ctx)

        return self._search_one_kernel(query_text, top_k, kernel)

    def search_one_after(
        self, query_text: str, top_k: int, cursor_score: float, cursor_doc: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """ES ``search_after`` cursor pagination: the top-k rows strictly
        after the (score, doc_id) cursor in (score desc, doc_id asc)
        order. Exhaustive (TAAT) scoring + tuple filter. The cursor must
        come from a page scored with the SAME exhaustive kernel
        (``search(..., method="taat")``): MaxScore's different summation
        order drifts scores by 1 ulp, which breaks the exact-float
        equality the tuple filter relies on."""
        from hybrid_sanctions_search_engine_ray.functions.bm25 import topk_desc_after

        top_k = max(1, min(int(top_k), MAX_TOP_K))
        terms = sorted(set(self.analyzer(query_text)))
        postings = list(self.load_postings(terms).values())
        docs, scores = score_all(postings)
        return topk_desc_after(docs, scores, top_k, cursor_score, cursor_doc)

    def search_one_boolean(
        self, must_text: str, should_text: str = "", not_text: str = "", top_k: int = 50,
        min_should_match: int = 0,
    ) -> tuple[np.ndarray, np.ndarray]:
        """ES bool-query semantics (reference: the bool/must/should/must_not
        clauses its adapters emit — elasticsearch_adapters.py search bodies):
        a doc must contain EVERY must term and NO must_not term; score is
        the BM25 sum over the distinct must ∪ should terms it matches.
        With no must terms, should terms retrieve disjunctively (min 1).
        ``min_should_match`` is the ES knob: a candidate must match at
        least that many DISTINCT should terms (with no must clause it is
        effectively max(min_should_match, 1)).
        Returns (doc_ids, scores) ranked (score desc, doc_id asc)."""
        top_k = max(1, min(int(top_k), MAX_TOP_K))
        must = sorted(set(self.analyzer(must_text)))
        should = sorted(set(self.analyzer(should_text)) - set(must))
        excl = sorted(set(self.analyzer(not_text)))
        empty = np.empty(0, np.int64), np.empty(0, np.float64)
        got_must = self.load_postings(must)
        if len(got_must) < len(must):
            return empty  # a required term matches nothing
        postings = [got_must[t] for t in must]
        if must:
            cand = postings[0].doc_ids
            for p in postings[1:]:
                cand = cand[_sorted_member(p.doc_ids, cand)]
                if cand.size == 0:
                    return empty
        else:
            got_should = self.load_postings(should)
            if not got_should:
                return empty
            cand = np.unique(np.concatenate([p.doc_ids for p in got_should.values()]))
            min_should_match = max(int(min_should_match), 1)
        if min_should_match > 0 and should:
            got_should = self.load_postings(should)
            if len(got_should) < min_should_match:
                return empty  # fewer live should terms than required matches
            nm = np.zeros(cand.size, np.int64)
            for p in got_should.values():
                nm[_sorted_member(p.doc_ids, cand)] += 1
            cand = cand[nm >= min_should_match]
            if cand.size == 0:
                return empty
        for p in self.load_postings(excl).values():
            cand = cand[~_sorted_member(p.doc_ids, cand)]
            if cand.size == 0:
                return empty
        scores = np.zeros(cand.size, np.float64)
        for p in list(self.load_postings(should).values()) + postings:
            hit = _sorted_member(p.doc_ids, cand)
            pos = np.searchsorted(p.doc_ids, cand[hit])
            scores[hit] += p.idf * p.factors[pos]
        k = min(top_k, cand.size)
        order = np.lexsort((cand, -scores))[:k]
        return cand[order], scores[order]


def _sorted_member(haystack: np.ndarray, needles: np.ndarray) -> np.ndarray:
    """Boolean mask: which needles occur in the SORTED haystack."""
    pos = np.searchsorted(haystack, needles)
    ok = pos < haystack.size
    ok[ok] = haystack[pos[ok]] == needles[ok]
    return ok


# Result columns of a scorer, name → dtype. ``str`` marks the query-id
# column: ids go through pandas' string dtype and come back as Python
# objects, so every frame (empty or not) has the same dtypes.
RESULT_COLUMNS = {"query_id": str, "rank": np.int32, "doc_id": np.int64, "score": np.float64}


def _result_frame(columns: dict = RESULT_COLUMNS, values: list | None = None) -> pd.DataFrame:
    """One result frame: ``values`` holds a sequence per entry of
    ``columns``; ``None`` gives the empty frame."""
    if values is None:
        values = [[]] * len(columns)
    return pd.DataFrame({
        name: (pd.Series(v, dtype="string[python]").astype(object) if dtype is str
               else pd.Series(v, dtype=dtype))
        for (name, dtype), v in zip(columns.items(), values)
    })


def load_terms(reader: IndexReader, texts) -> None:
    """Load, in one pass, the postings of every term the texts analyze to."""
    union: set[str] = set()
    for text in texts:
        union.update(reader.analyzer(text))
    reader.load_postings(sorted(union))


class Scorer:
    """Base of the scorer actors that :func:`map_scorer` runs over a
    Dataset of query rows. The actor opens its reader once; per batch it
    preloads the postings of every row's terms in one pass (one read of
    each touched partition file instead of one per row), then scores the
    rows one at a time with :meth:`hits` and returns one result frame.

    ``hits(row, k)`` gets the row as a dict and its ``k`` (the row's
    ``top_k``, else ``default_top_k``); it returns ``None`` or one
    sequence per entry of ``columns`` after the first (the id column,
    copied from the batch). A leading ``rank`` column may be left out:
    it then counts 1..n."""

    columns = RESULT_COLUMNS
    text_cols: tuple[str, ...] = ("query_text",)

    def __init__(self, index_dir: str, default_top_k: int = 10, search_mode: str | None = None):
        self.reader = IndexReader(index_dir, search_mode=search_mode)
        self.default_top_k = default_top_k

    def preload(self, rows: list[dict]) -> None:
        load_terms(self.reader, (row[c] for row in rows for c in self.text_cols))

    def score_text(self, text: str) -> tuple[np.ndarray, np.ndarray]:
        """Exhaustive (TAAT) scores of every doc that matches at least
        one of the text's terms, unranked."""
        terms = sorted(set(self.reader.analyzer(text)))
        return score_all(list(self.reader.load_postings(terms).values()))

    def hits(self, row: dict, k: int):
        raise NotImplementedError

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        names = list(batch.columns)
        rows = [dict(zip(names, vals)) for vals in zip(*(batch[c].tolist() for c in names))]
        self.preload(rows)
        n_cols = len(self.columns) - 1
        counts: list[int] = []
        parts: list[list] = [[] for _ in range(n_cols)]
        for row in rows:
            got = self.hits(row, int(row["top_k"]) if "top_k" in row else self.default_top_k)
            n = len(got[0]) if got is not None else 0
            counts.append(n)
            if n:
                if len(got) < n_cols:
                    got = (np.arange(1, n + 1), *got)
                for part, vals in zip(parts, got):
                    part.append(vals)
        if not any(counts):
            return _result_frame(self.columns)
        ids = np.repeat(batch[next(iter(self.columns))].to_numpy(), counts)
        return _result_frame(self.columns, [ids, *(np.concatenate(p) for p in parts)])


def map_scorer(ds, scorer: type, cfg: EngineConfig, *args):
    """Run ``scorer(*args)`` as an actor pool over ``ds``: pandas batches
    of ``cfg.score_batch_size`` rows, ``cfg.scorer_concurrency`` actors."""
    return ds.map_batches(
        scorer,
        fn_constructor_args=args,
        batch_format="pandas",
        batch_size=cfg.score_batch_size,
        concurrency=cfg.scorer_concurrency,
    )


class BM25Scorer(Scorer):
    """Actor-pool callable: a batch of query rows → top-k result rows."""

    def __init__(self, index_dir: str, default_top_k: int = 50, method: str = "maxscore"):
        super().__init__(index_dir, default_top_k)
        self.method = method

    def hits(self, row: dict, k: int):
        return self.reader.search_one(row["query_text"], k, self.method)


def search(queries_ds, index_dir: str, cfg: EngineConfig = DEFAULT_CONFIG, method: str = "maxscore"):
    """Queries Dataset (query_id, query_text[, top_k]) → results Dataset."""
    search_kernel(method)  # refuse an unknown method before any actor starts
    return map_scorer(queries_ds, BM25Scorer, cfg, index_dir, cfg.top_k, method)


def _clause(row: dict, name: str) -> str:
    """A bool clause's text: a missing, None or NaN clause is empty."""
    v = row.get(name)
    return "" if pd.isna(v) else str(v)


class BooleanScorer(Scorer):
    """Actor-pool callable for bool queries: batch rows
    (query_id, must[, should, must_not, min_should_match, top_k]) →
    top-k result rows."""

    def __init__(self, index_dir: str, default_top_k: int = 50, search_mode: str | None = None):
        super().__init__(index_dir, default_top_k, search_mode)

    def preload(self, rows: list[dict]) -> None:
        load_terms(self.reader,
                   (_clause(row, c) for row in rows for c in ("must", "should", "must_not")))

    def hits(self, row: dict, k: int):
        return self.reader.search_one_boolean(
            _clause(row, "must"), _clause(row, "should"), _clause(row, "must_not"), k,
            min_should_match=int(row.get("min_should_match", 0)),
        )


def boolean_search(
    queries_ds, index_dir: str, cfg: EngineConfig = DEFAULT_CONFIG, search_mode: str | None = None
):
    """Queries Dataset (query_id, must[, should, must_not, top_k]) →
    results Dataset with ES bool-clause semantics (see
    :meth:`IndexReader.search_one_boolean`). ``search_mode`` overrides the
    query-side analyzer (prefix search = plain tokens vs an edge index)."""
    return map_scorer(queries_ds, BooleanScorer, cfg, index_dir, cfg.top_k, search_mode)


def prefix_search(queries_ds, index_dir: str, cfg: EngineConfig = DEFAULT_CONFIG):
    """Autocomplete retrieval against an edge-ngram index (built with
    ``AnalyzerConfig(mode="edge")``): queries (query_id, query_text
    [, top_k]); EVERY typed token must prefix-match some document word
    (reference's match-with-operator-"and" on the edge_ngram subfield —
    elasticsearch_adapters.py:247-256), ranked by BM25 over the prefix
    field. Query tokens stay plain (search_mode="simple")."""

    def _to_must(df: pd.DataFrame) -> pd.DataFrame:
        return df.rename(columns={"query_text": "must"})

    return boolean_search(
        queries_ds.map_batches(_to_must, batch_format="pandas"),
        index_dir,
        cfg,
        search_mode="simple",
    )


def phrase_search(
    index_dir: str,
    phrase: str,
    top_k: int = 10,
    candidate_factor: int = 4,
    reader: IndexReader | None = None,
) -> pd.DataFrame:
    """Phrase query = BM25 candidate retrieval + exact token-sequence
    verification over stored text (requires ``build_index(...,
    store_text=True)``).

    Mirrors the reference's AC exact/phrase tier (reference:
    elasticsearch_adapters.py:164-331 phrase clause) without a positional
    index: retrieve ``candidate_factor × top_k`` BM25 candidates for the
    phrase's terms, fetch their texts via row-group-pruned docmap reads,
    keep docs whose ANALYZED token stream contains the phrase's token
    sequence contiguously, and return the top-k of the survivors in BM25
    order. With all phrase terms required in candidates' BM25 top-C this
    is exact for the returned prefix whenever ≥ top_k survivors exist in
    the candidate pool (the standard retrieve-then-verify rerank shape).
    """
    r = reader or IndexReader(index_dir)
    want = r.analyzer(phrase)
    if not want:
        return pd.DataFrame({"rank": [], "doc_id": [], "score": []})
    if r.manifest.store_positions:
        return _phrase_positional(r, want, top_k)
    docs, scores = r.search_one(phrase, top_k * candidate_factor)
    if docs.size == 0:
        return pd.DataFrame({"rank": [], "doc_id": [], "score": []})
    ids = sorted(int(d) for d in docs)
    dm = pads.dataset(os.path.join(index_dir, "docmap.parquet")).to_table(
        filter=pads.field("doc_id").isin(ids)
    )
    if "text" not in dm.column_names:
        raise ValueError("phrase_search requires an index built with store_text=True")
    texts = dict(zip(dm["doc_id"].to_pylist(), dm["text"].to_pylist()))

    def contains(doc_id: int) -> bool:
        toks = r.analyzer(texts.get(int(doc_id), ""))
        n, m = len(toks), len(want)
        return any(toks[i : i + m] == want for i in range(n - m + 1))

    keep = [i for i, d in enumerate(docs) if contains(int(d))][: top_k]
    return pd.DataFrame(
        {
            "rank": np.arange(1, len(keep) + 1, dtype=np.int32),
            "doc_id": docs[keep].astype(np.int64),
            "score": scores[keep],
        }
    )


def _phrase_positional(r: IndexReader, want: list[str], top_k: int) -> pd.DataFrame:
    """Exact phrase matching over POSITIONAL postings (no stored-text
    re-tokenization — the reference's ES phrase clause works off Lucene
    positional postings the same way, elasticsearch_adapters.py:164-331):
    intersect the phrase terms' doc lists, then chain positions
    (p ∈ P_1, p+1 ∈ P_2, …), and rank surviving docs by the BM25 score
    of the phrase terms with the usual (score desc, doc_id asc) ties."""
    from functools import reduce

    uniq = sorted(set(want))
    postings = r.load_postings(uniq)
    if len(postings) < len(uniq):
        return pd.DataFrame({"rank": [], "doc_id": [], "score": []})
    pos = {t: r.load_positions(t) for t in uniq}
    if any(p is None for p in pos.values()):
        raise ValueError("index has store_positions but positional data is missing")
    cand = reduce(np.intersect1d, [postings[t].doc_ids for t in uniq])
    matches: list[int] = []
    for d in cand:
        starts = None  # candidate phrase-start positions surviving so far
        for i, t in enumerate(want):
            doc_ids, offsets, flat = pos[t]
            j = int(np.searchsorted(doc_ids, d))
            p_t = flat[offsets[j] : offsets[j + 1]].astype(np.int64)
            starts = p_t if starts is None else starts[np.isin(starts + i, p_t)]
            if starts.size == 0:
                break
        else:
            matches.append(int(d))
    if not matches:
        return pd.DataFrame({"rank": [], "doc_id": [], "score": []})
    m = np.array(matches, dtype=np.uint64)
    scores = np.zeros(m.size, dtype=np.float64)
    for p in postings.values():
        idx = np.searchsorted(p.doc_ids, m)
        safe = np.minimum(idx, p.doc_ids.size - 1)
        hit = (idx < p.doc_ids.size) & (p.doc_ids[safe] == m)
        scores[hit] += p.factors[idx[hit]] * p.idf
    docs, sc = topk_desc(m, scores, top_k)
    return pd.DataFrame(
        {
            "rank": np.arange(1, docs.size + 1, dtype=np.int32),
            "doc_id": docs.astype(np.int64),
            "score": sc,
        }
    )


def attach_docmap(results_df: pd.DataFrame, index_dir: str) -> pd.DataFrame:
    """Join top-k results (small) back to (conv_id, turn_idx) via
    row-group-pruned reads of the sorted docmap (SURVEY.md §2.4 J2 —
    broadcast-small-side lookup, never a shuffle join)."""
    ids = sorted(set(results_df["doc_id"].tolist()))
    dm = pads.dataset(os.path.join(index_dir, "docmap.parquet")).to_table(
        filter=pads.field("doc_id").isin(ids)
    ).to_pandas()
    return results_df.merge(dm, on="doc_id", how="left")


class MLTScorer(Scorer):
    """Actor-pool callable for more-like-this: a batch of seed doc ids →
    top-k similar docs. Per seed: point-read the seed text from the
    source parquet (doc_id predicate pushdown — row-group pruned, never
    a scan), analyze it with the index's analyzer, pick the
    ``max_terms`` most interesting terms by the fully-integer key
    (tf desc, df asc, term asc) with ``df >= min_df`` (ES more_like_this
    min_doc_freq/max_query_terms analog, deterministic — no float-ulp
    tie hazards in term selection), then BM25-score those terms through
    the same MaxScore path as plain search, excluding the seed doc."""

    columns = {"seed_id": np.int64, "rank": np.int32, "doc_id": np.int64, "score": np.float64}

    def __init__(self, index_dir: str, source_path: str, max_terms: int = 5,
                 min_df: int = 2, top_k: int = 10):
        super().__init__(index_dir)
        self.source_path = source_path
        self.max_terms = max_terms
        self.min_df = min_df
        self.top_k = top_k

    def preload(self, rows: list[dict]) -> None:
        import pyarrow.parquet as pq

        t = pq.read_table(self.source_path, columns=["doc_id", "text"],
                          filters=[("doc_id", "in", [int(row["seed_id"]) for row in rows])])
        self.seed_texts = dict(zip(t["doc_id"].to_pylist(), t["text"].to_pylist()))

    def hits(self, row: dict, k: int):
        r = self.reader
        seed = int(row["seed_id"])
        toks = r.analyzer(self.seed_texts.get(seed, ""))
        if not toks:
            return None
        terms, tfs = np.unique(np.asarray(toks, dtype=object), return_counts=True)
        postings = r.load_postings([str(t) for t in terms])
        cand = [
            (-int(tf_), int(postings[str(t)].doc_ids.size), str(t))
            for t, tf_ in zip(terms, tfs)
            if str(t) in postings and postings[str(t)].doc_ids.size >= self.min_df
        ]
        cand.sort()
        sel = [t for _, _, t in cand[: self.max_terms]]
        docs, scores = score_maxscore([postings[t] for t in sel], self.top_k + 1)
        keep = docs != seed
        return docs[keep][: self.top_k], scores[keep][: self.top_k]


def more_like_this(seeds_ds, index_dir: str, source_path: str,
                   cfg: EngineConfig = DEFAULT_CONFIG, max_terms: int = 5,
                   min_df: int = 2, top_k: int = 10):
    """Seeds Dataset (seed_id:int64) → Dataset of similar docs per seed
    (seed_id, rank, doc_id, score). Reference analog: the "find similar
    sanctioned entities" flow (hybrid_search_service.py escalation with a
    document-as-query); ES more_like_this semantics with deterministic
    term selection."""
    return map_scorer(seeds_ds, MLTScorer, cfg, index_dir, source_path, max_terms, min_df, top_k)


class PageScorer(Scorer):
    """Actor-pool callable for cursor pagination: batch rows (query_id,
    query_text, cursor_score, cursor_doc[, top_k]) → the next page."""

    def __init__(self, index_dir: str, default_top_k: int = 10):
        super().__init__(index_dir, default_top_k)

    def hits(self, row: dict, k: int):
        return self.reader.search_one_after(
            row["query_text"], k, float(row["cursor_score"]), int(row["cursor_doc"])
        )


def search_after(queries_ds, index_dir: str, cfg: EngineConfig = DEFAULT_CONFIG):
    """Cursor-paged search: queries Dataset (query_id, query_text,
    cursor_score, cursor_doc[, top_k]) → next-page results. Rank is
    1-based WITHIN the page; callers add their page offset."""
    return map_scorer(queries_ds, PageScorer, cfg, index_dir, cfg.top_k)


def expand_synonyms(query_text: str, synonyms: dict[str, list[str]], analyzer) -> str:
    """Query-side synonym expansion (ES synonym_graph filter at SEARCH
    time, the recommended deployment — index stays untouched): every
    analyzed query token pulls in its synonym row; the expanded DISTINCT
    term set ORs into one disjunctive match. Returns the rewritten
    query text (terms space-joined, sorted for determinism)."""
    terms = set(analyzer(query_text))
    out = set(terms)
    for t in terms:
        out.update(synonyms.get(t, ()))
    return " ".join(sorted(out))


def synonym_search(queries_ds, index_dir: str, synonyms: dict[str, list[str]],
                   cfg: EngineConfig = DEFAULT_CONFIG, method: str = "maxscore"):
    """Search with query-time synonym expansion: the synonym table is a
    driver-side constant (tiny, ships inside the rewrite closure); each
    query row's text is rewritten, then the plain BM25 path scores the
    expanded disjunction."""
    r_analyzer = IndexReader(index_dir).analyzer

    def rewrite(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["query_text"] = [expand_synonyms(t, synonyms, r_analyzer) for t in b["query_text"]]
        return b

    return search(queries_ds.map_batches(rewrite, batch_format="pandas"), index_dir, cfg, method)


class ConvScorer(Scorer):
    """Actor-pool callable: rank CONVERSATIONS by their turns' BM25
    scores (ES parent-child ``has_child`` with score_mode max/sum — the
    transcript-level retrieval a turn index serves). Exhaustive TAAT
    over the full candidate set (no top-k truncation before the
    conversation rollup), then a vectorized groupby on the derived
    conv key."""

    columns = {"query_id": str, "rank": np.int32, "conv_num": np.int64, "score": np.float64,
               "n_hit_turns": np.int64}

    def __init__(self, index_dir: str, turns_per_conv: int, default_top_k: int = 10,
                 score_mode: str = "max", min_children: int = 0,
                 max_children: int | None = None):
        if score_mode not in ("max", "sum", "avg"):
            raise ValueError("score_mode must be max, sum or avg")
        super().__init__(index_dir, default_top_k)
        self.tpc = int(turns_per_conv)
        self.score_mode = score_mode
        # ES has_child min_children/max_children: parents qualify only
        # with a matching-child count in [min_children, max_children]
        self.min_children = int(min_children)
        self.max_children = None if max_children is None else int(max_children)

    def hits(self, row: dict, k: int):
        docs, scores = self.score_text(row["query_text"])
        if docs.size == 0:
            return None
        conv = docs.astype(np.int64) // self.tpc
        uniq, inv = np.unique(conv, return_inverse=True)
        hits = np.bincount(inv, minlength=uniq.size)
        if self.score_mode == "max":
            agg = np.zeros(uniq.size, np.float64)
            np.maximum.at(agg, inv, scores)
        else:
            agg = np.bincount(inv, weights=scores, minlength=uniq.size)
            if self.score_mode == "avg":
                agg = agg / hits
        if self.min_children > 0 or self.max_children is not None:
            keep = hits >= self.min_children
            if self.max_children is not None:
                keep &= hits <= self.max_children
            uniq, agg, hits = uniq[keep], agg[keep], hits[keep]
        cs, ss = topk_desc(uniq.astype(np.uint64), agg, k)
        return cs, ss, hits[np.searchsorted(uniq, cs.astype(np.int64))]


def conv_search(queries_ds, index_dir: str, turns_per_conv: int,
                cfg: EngineConfig = DEFAULT_CONFIG, score_mode: str = "max",
                min_children: int = 0, max_children: int | None = None):
    """Conversation-level retrieval: queries Dataset (query_id,
    query_text[, top_k]) → top conversations per query with
    (conv_num, score, n_hit_turns). ``turns_per_conv`` is the dense
    doc-id→conv mapping stride (an explicit conv-id docmap join is the
    general path; the stride avoids it when ids are conv-major).
    ``score_mode``/``min_children``/``max_children`` give the full ES
    has_child surface (max/sum/avg rollup + child-count constraints)."""
    return map_scorer(queries_ds, ConvScorer, cfg, index_dir, turns_per_conv, cfg.top_k,
                      score_mode, min_children, max_children)


class FunctionScorer(Scorer):
    """Actor-pool callable for ES function_score: multiply each
    candidate's BM25 score by a deterministic per-doc factor
    (``boost_fn``: vectorized doc_ids → float64 factors) BEFORE top-k
    selection — the boost sees the FULL candidate set, so low-raw-score
    docs with strong boosts can still surface (a post-truncation rescore
    could not do that)."""

    def __init__(self, index_dir: str, boost_fn, default_top_k: int = 10):
        super().__init__(index_dir, default_top_k)
        self.boost_fn = boost_fn

    def hits(self, row: dict, k: int):
        docs, scores = self.score_text(row["query_text"])
        if docs.size == 0:
            return None
        return topk_desc(docs, scores * self.boost_fn(docs.astype(np.int64)), k)


def function_score_search(queries_ds, index_dir: str, boost_fn,
                          cfg: EngineConfig = DEFAULT_CONFIG):
    """ES function_score: BM25 × per-doc factor over the full candidate
    set. ``boost_fn`` must be a pure vectorized function of the doc-id
    array (deterministic across workers — it ships inside the actor
    constructor)."""
    return map_scorer(queries_ds, FunctionScorer, cfg, index_dir, boost_fn, cfg.top_k)
