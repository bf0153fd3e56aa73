"""Query-time search features over the BM25 index — the ES-API surface
the reference's search layer exposes beyond plain match queries
(reference: src/ai_service/layers/search/hybrid_search_service.py
query assembly and elasticsearch_adapters.py:164-331 clause building):
wildcard multi-term rewrite, field collapsing, grouped top-hits,
boosting (negative-demotion) queries, top-window rescoring, per-hit
score explanations, the term-vectors API, the adjacency-matrix filter
aggregation, and seeded random scoring.

Scale shape shared by every feature here:

* dictionary-sized work (wildcard expansion) runs as a distributed
  column-pruned scan over the segment term columns — never the corpus;
* candidate-sized work runs inside scorer actors: subclasses of
  :class:`~.query.Scorer` that :func:`~.query.map_scorer` runs as a
  ``map_batches`` actor pool, like :class:`~.query.BM25Scorer`. Each
  actor loads the manifest once and caches postings; the base preloads
  each batch's terms in one pass, loops over the rows and builds the
  result frame, so a scorer class holds only its state, its per-row
  ``hits`` and, where it reads other columns or readers, its preload;
* doc-attribute lookups (collapse keys, group keys) come from the
  doc-id-sorted docmap loaded once per actor with only the needed
  columns — never a shuffle join. On a multi-node cluster the docmap
  key columns are O(8-16 bytes/doc); shard them with the index
  partitions if a single worker heap cannot hold them.

All scorers rank with the same TAAT accumulator (:func:`score_all` +
:func:`topk_desc`) so scores are bit-identical to ``search(...,
method="taat")`` and to the driver's SQL oracles.
"""

from __future__ import annotations

import hashlib
import os
import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.dataset as pads

from hybrid_sanctions_search_engine_ray.config import DEFAULT_CONFIG, EngineConfig
from hybrid_sanctions_search_engine_ray.functions.bm25 import (
    score_all,
    score_at,
    sorted_member,
    topk_desc,
)
from hybrid_sanctions_search_engine_ray.pipelines.query import (
    RESULT_COLUMNS,
    IndexReader,
    Scorer,
    _result_frame,
    clause_candidates,
    clause_positions,
    load_terms,
    map_scorer,
    near_hits,
    near_match,
    ordered_match,
    search,
)
from hybrid_sanctions_search_engine_ray.stages.analyze import DOC_SENTINEL
from hybrid_sanctions_search_engine_ray.stages.postings import read_segments
from hybrid_sanctions_search_engine_ray.state.manifest import ANALYZER, identity_diff

def _load_shared_terms(readers: list[IndexReader], rows: list[dict]) -> None:
    """Preload for same-analyzer field readers: the batch's terms,
    analyzed once with the first field's analyzer, load in every field."""
    terms = sorted({t for row in rows for t in readers[0].analyzer(row["query_text"])})
    for reader in readers:
        reader.load_postings(terms)


# --- wildcard / regexp queries ----------------------------------------------


def wildcard_to_regex(pattern: str) -> str:
    """Wildcard pattern (``*`` any run, ``?`` one char) → anchored RE2
    regex. Both the engine (Arrow ``match_substring_regex``) and the
    driver's DuckDB oracle run RE2, so the translated pattern is shared
    verbatim between them."""
    parts = []
    for ch in pattern:
        if ch == "*":
            parts.append(".*")
        elif ch == "?":
            parts.append(".")
        else:
            parts.append(re.escape(ch))
    return "^" + "".join(parts) + "$"


def _expand_regex_map(index_dir: str, rex: dict[str, str]) -> dict[str, list[str]]:
    """Expand pre-anchored RE2 regexes against the index's term
    dictionary — the one scan both wildcard and regexp queries share.

    ES executes wildcard/prefix/regexp queries by rewriting against the
    term dictionary, never the corpus. Here the dictionary is the union
    of the segment files' ``term`` columns: a column-pruned distributed
    read (one small column per partition), per-batch RE2 matching, and a
    driver-side union of the (tiny) matched set. Terms can repeat across
    sub-segments / salt partitions; the union dedups.
    """
    out: dict[str, set[str]] = {qid: set() for qid in rex}

    def match(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        terms = pc.unique(b["term"])
        out_q: list[str] = []
        out_t: list[str] = []
        for qid, rx in rex.items():
            sel = terms.filter(pc.match_substring_regex(terms, rx))
            out_q.extend([qid] * len(sel))
            out_t.extend(sel.to_pylist())
        return pa.table({"query_id": pa.array(out_q, pa.string()),
                         "term": pa.array(out_t, pa.string())})

    matched = read_segments(index_dir, ["term"]).map_batches(match, batch_format="pyarrow")
    for row in matched.take_all():
        if row["term"] != DOC_SENTINEL:
            out[row["query_id"]].add(row["term"])
    return {qid: sorted(ts) for qid, ts in out.items()}


def expand_wildcards(index_dir: str, patterns: dict[str, str]) -> dict[str, list[str]]:
    """Expand wildcard patterns against the index's term dictionary
    (see :func:`_expand_regex_map` for the scan's shape)."""
    return _expand_regex_map(index_dir, {qid: wildcard_to_regex(p) for qid, p in patterns.items()})


def wildcard_search(patterns: dict[str, str], index_dir: str,
                    cfg: EngineConfig = DEFAULT_CONFIG, top_k: int = 10):
    """ES wildcard query with the ``scoring_boolean`` rewrite: the
    pattern expands to its matching dictionary terms and the expansion
    rides the ordinary BM25 posting path as an OR query. Returns the
    usual results Dataset (query_id, rank, doc_id, score); patterns with
    zero dictionary matches yield no rows."""
    return _search_expansions(expand_wildcards(index_dir, patterns), index_dir, cfg, top_k)


def _search_expansions(expanded: dict[str, list[str]], index_dir: str,
                       cfg: EngineConfig, top_k: int):
    """The multi-term rewrite's tail, shared by wildcard, regexp and
    fuzzy queries: each query's expansion terms run as one OR query on
    the exhaustive BM25 path; a query without expansions yields no rows."""
    import ray.data as rd

    items = [{"query_id": qid, "query_text": " ".join(terms), "top_k": top_k}
             for qid, terms in sorted(expanded.items()) if terms]
    if not items:
        return rd.from_pandas(_result_frame())
    return search(rd.from_items(items), index_dir, cfg, method="taat")


# --- field collapsing / grouped top hits -------------------------------------


def _load_docmap_keys(index_dir: str, *keys: str) -> tuple[np.ndarray, ...]:
    """(sorted doc_ids, each key column's values aligned) from the
    docmap — only the needed columns leave disk."""
    dm = pads.dataset(os.path.join(index_dir, "docmap.parquet")).to_table(
        columns=["doc_id", *keys]
    )
    ids = dm["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(ids, kind="stable")
    take = pa.array(order)
    return (ids[order], *(dm[k].take(take).to_numpy(zero_copy_only=False) for k in keys))


class CollapseScorer(Scorer):
    """ES field collapsing: rank GROUPS by their best-scoring hit and
    return one representative doc per group. The collapse key for every
    candidate comes from the docmap loaded once per actor (doc_id +
    key column only); scoring sees the FULL candidate set, so a group
    whose best hit is outside any fixed window still collapses
    correctly (reference analogue: ES ``collapse`` on a keyword field).
    """

    def __init__(self, index_dir: str, key: str = "conv_id", default_top_k: int = 10):
        super().__init__(index_dir, default_top_k)
        self.dm_ids, self.dm_keys = _load_docmap_keys(index_dir, key)
        self.columns = {**RESULT_COLUMNS, key: object}

    def hits(self, row: dict, k: int):
        docs, scores = self.score_text(row["query_text"])
        if docs.size == 0:
            return None
        d64 = docs.astype(np.int64)
        keys = self.dm_keys[np.searchsorted(self.dm_ids, d64)]
        codes, _ = pd.factorize(keys)
        order = np.lexsort((d64, -scores))          # global rank order
        first = np.unique(codes[order], return_index=True)[1]
        best = order[np.sort(first)][:k]            # best row per group, group-ranked
        return d64[best], scores[best], keys[best]


def collapse_search(queries_ds, index_dir: str, key: str = "conv_id",
                    cfg: EngineConfig = DEFAULT_CONFIG):
    """ES collapse: top-k groups by best hit, one representative each."""
    return map_scorer(queries_ds, CollapseScorer, cfg, index_dir, key, cfg.top_k)


class GroupTopHitsScorer(Scorer):
    """ES ``terms`` aggregation with a ``top_hits`` sub-aggregation:
    for every distinct value of a docmap attribute, the group's top-N
    hits by BM25 score. Groups are emitted in key-ascending order
    (the ES ``order: {_key: asc}`` option) for determinism; hit rank
    restarts inside each group."""

    def __init__(self, index_dir: str, key: str = "turn_idx", per_group: int = 3):
        super().__init__(index_dir)
        self.per_group = per_group
        self.dm_ids, self.dm_keys = _load_docmap_keys(index_dir, key)
        self.columns = {**RESULT_COLUMNS, key: np.int64}

    def hits(self, row: dict, k: int):
        docs, scores = self.score_text(row["query_text"])
        if docs.size == 0:
            return None
        d64 = docs.astype(np.int64)
        keys = self.dm_keys[np.searchsorted(self.dm_ids, d64)]
        # order within each key block by (score desc, doc asc):
        # lexsort most-significant-last
        order = np.lexsort((d64, -scores, keys))
        k_sorted = keys[order]
        starts = np.flatnonzero(np.r_[True, k_sorted[1:] != k_sorted[:-1]])
        within = np.arange(k_sorted.size) - np.repeat(starts, np.diff(np.r_[starts, k_sorted.size]))
        keep = within < self.per_group
        sel = order[keep]
        return within[keep] + 1, d64[sel], scores[sel], keys[sel]


def top_hits_search(queries_ds, index_dir: str, key: str = "turn_idx",
                    per_group: int = 3, cfg: EngineConfig = DEFAULT_CONFIG):
    """terms-agg + top_hits: per group, the top ``per_group`` hits."""
    return map_scorer(queries_ds, GroupTopHitsScorer, cfg, index_dir, key, per_group)


class CollapseInnerHitsScorer(Scorer):
    """ES ``collapse`` with ``inner_hits``: groups ranked by their best
    hit exactly as CollapseScorer, but each of the top-k groups also
    returns its own top ``per_group`` member hits (inner rank restarts
    per group). One scoring pass; group selection and member windows are
    both vectorized off the same global (score desc, doc asc) order."""

    def __init__(self, index_dir: str, key: str = "conv_id",
                 per_group: int = 2, default_top_k: int = 10):
        super().__init__(index_dir, default_top_k)
        self.per_group = per_group
        self.dm_ids, self.dm_keys = _load_docmap_keys(index_dir, key)
        self.columns = {**RESULT_COLUMNS, key: object, "inner_rank": np.int32}

    def hits(self, row: dict, k: int):
        docs, scores = self.score_text(row["query_text"])
        if docs.size == 0:
            return None
        d64 = docs.astype(np.int64)
        keys = self.dm_keys[np.searchsorted(self.dm_ids, d64)]
        codes, _ = pd.factorize(keys)
        order = np.lexsort((d64, -scores))              # global rank order
        first = np.unique(codes[order], return_index=True)[1]
        best = order[np.sort(first)][:k]                # reps, group-ranked
        grank_of = np.full(codes.max() + 1, 0, dtype=np.int64)
        grank_of[codes[best]] = np.arange(1, best.size + 1)
        g = grank_of[codes]
        keep = g > 0
        sel = np.flatnonzero(keep)
        morder = sel[np.lexsort((d64[keep], -scores[keep], g[keep]))]
        gs = g[morder]
        starts = np.flatnonzero(np.r_[True, gs[1:] != gs[:-1]])
        within = np.arange(gs.size) - np.repeat(starts, np.diff(np.r_[starts, gs.size]))
        win = within < self.per_group
        mm = morder[win]
        return gs[win], d64[mm], scores[mm], keys[mm], within[win] + 1


def collapse_inner_hits_search(queries_ds, index_dir: str, key: str = "conv_id",
                               per_group: int = 2,
                               cfg: EngineConfig = DEFAULT_CONFIG):
    """collapse + inner_hits: top-k groups by best hit, each with its
    own top ``per_group`` member hits."""
    return map_scorer(queries_ds, CollapseInnerHitsScorer, cfg, index_dir, key, per_group)


# --- boosting (negative demotion) query ---------------------------------------


class BoostingScorer(Scorer):
    """ES ``boosting`` query: positive-clause BM25 score, multiplied by
    ``negative_boost`` for docs that match the negative clause (any
    negative term). Demotion sees the full candidate set; membership is
    a sorted-array probe against the union of the negative terms'
    posting doc lists."""

    text_cols = ("query_text", "negative")

    def __init__(self, index_dir: str, negative_boost: float = 0.5,
                 default_top_k: int = 10):
        super().__init__(index_dir, default_top_k)
        self.negative_boost = negative_boost

    def hits(self, row: dict, k: int):
        docs, scores = self.score_text(row["query_text"])
        if docs.size == 0:
            return None
        neg_postings = self.reader.load_postings(sorted(set(self.reader.analyzer(row["negative"]))))
        if neg_postings:
            neg_docs = np.unique(np.concatenate([p.doc_ids for p in neg_postings.values()]))
            hit = sorted_member(neg_docs, docs)
            scores = np.where(hit, scores * self.negative_boost, scores)
        return topk_desc(docs, scores, k)


def boosting_search(queries_ds, index_dir: str, negative_boost: float = 0.5,
                    cfg: EngineConfig = DEFAULT_CONFIG):
    """ES boosting query: queries carry (query_id, query_text, negative)."""
    return map_scorer(queries_ds, BoostingScorer, cfg, index_dir, negative_boost, cfg.top_k)


# --- top-window rescoring ------------------------------------------------------


class RescoreScorer(Scorer):
    """ES ``rescore``: re-rank only the top ``window`` first-pass BM25
    hits with a secondary signal — here an exact-phrase bonus from the
    positional postings (``final = bm25 + weight × phrase_match``) —
    and return the top-k of the window. Docs outside the window keep
    their first-pass fate (never surface), which is the documented ES
    rescore contract (and the contrast with
    :class:`~.query.FunctionScorer`, which boosts the full candidate
    set)."""

    def __init__(self, index_dir: str, window: int = 50, weight: float = 2.0,
                 default_top_k: int = 10):
        super().__init__(index_dir, default_top_k)
        self.window = window
        self.weight = weight

    def hits(self, row: dict, k: int):
        docs, scores = self.score_text(row["query_text"])
        if docs.size == 0:
            return None
        wdocs, wscores = topk_desc(docs, scores, self.window)
        phrase = near_match(self.reader, self.reader.analyzer(row["query_text"]), cand=wdocs)
        return topk_desc(wdocs, wscores + self.weight * sorted_member(phrase, wdocs), k)


def rescore_search(queries_ds, index_dir: str, window: int = 50, weight: float = 2.0,
                   cfg: EngineConfig = DEFAULT_CONFIG):
    """ES rescore over a positional index (store_positions=True)."""
    return map_scorer(queries_ds, RescoreScorer, cfg, index_dir, window, weight, cfg.top_k)


# --- seeded random scoring -----------------------------------------------------


def _random_bucket(doc_ids: np.ndarray, seed: str, mod: int = 1_000_000) -> np.ndarray:
    """Deterministic per-doc bucket in [0, mod): little-endian first 8
    md5 bytes of ``str(doc_id) + seed`` — DuckDB ``md5_number_upper``
    parity, the same convention as stages/sampling (the per-row hashlib
    loop is the price of the exact SQL oracle)."""
    out = np.empty(doc_ids.size, dtype=np.uint64)
    for i, d in enumerate(doc_ids):
        h = hashlib.md5((str(int(d)) + seed).encode("utf-8")).digest()
        out[i] = int.from_bytes(h[:8], "little")
    return out % np.uint64(mod)


class RandomScoreScorer(Scorer):
    """ES ``function_score`` with ``random_score`` (seeded) and
    ``boost_mode: replace``: candidates come from the match query, the
    returned score is a reproducible pseudo-random value in [0, 1) that
    depends only on (doc_id, seed) — the standard way to draw a stable
    random sample of matching docs for relevance labelling."""

    def __init__(self, index_dir: str, seed: str = "42", default_top_k: int = 10):
        super().__init__(index_dir, default_top_k)
        self.seed = seed

    def hits(self, row: dict, k: int):
        docs, _ = self.score_text(row["query_text"])
        if docs.size == 0:
            return None
        rnd = _random_bucket(docs.astype(np.int64), self.seed).astype(np.float64) / 1_000_000.0
        return topk_desc(docs, rnd, k)


def random_score_search(queries_ds, index_dir: str, seed: str = "42",
                        cfg: EngineConfig = DEFAULT_CONFIG):
    """Seeded random_score over the match candidate set."""
    return map_scorer(queries_ds, RandomScoreScorer, cfg, index_dir, seed, cfg.top_k)


# --- explain / term vectors / adjacency matrix ----------------------------------


class ExplainScorer(Scorer):
    """ES ``explain`` API: for each query's top-k docs, one row per
    contributing term with its additive BM25 contribution
    (idf × tf-factor). The per-term contributions sum to the TAAT score
    exactly (same accumulator), so explanations are audit-grade."""

    columns = {"query_id": str, "rank": np.int32, "doc_id": np.int64, "term": object,
               "contrib": np.float64}

    def __init__(self, index_dir: str, default_top_k: int = 3):
        super().__init__(index_dir, default_top_k)

    def hits(self, row: dict, k: int):
        postings = self.reader.load_postings(sorted(set(self.reader.analyzer(row["query_text"]))))
        docs, scores = score_all(list(postings.values()))
        if docs.size == 0:
            return None
        d, _ = topk_desc(docs, scores, k)
        ranks, ids, terms, contribs = [], [], [], []
        for t, p in postings.items():  # term order
            j = np.flatnonzero(sorted_member(p.doc_ids, d))
            ranks.append(j + 1)
            ids.append(d[j])
            terms.append(np.full(j.size, t, dtype=object))
            contribs.append(score_at([p], d[j]))
        return tuple(map(np.concatenate, (ranks, ids, terms, contribs)))


def explain_search(queries_ds, index_dir: str, top_k: int = 3,
                   cfg: EngineConfig = DEFAULT_CONFIG):
    """Per-term BM25 score breakdown for each query's top-k docs."""
    return map_scorer(queries_ds, ExplainScorer, cfg, index_dir, top_k)


def term_vectors(index_dir: str, doc_ids: list[int], texts: dict[int, str]) -> pd.DataFrame:
    """ES term-vectors API for a handful of docs: (doc_id, term, tf, df).

    tf comes from re-analysis of the provided texts with the INDEX's
    analyzer; df comes from the index's posting segments (partition- and
    row-group-pruned reads of exactly these terms). API-shaped — callers
    pass a few docs, not a corpus (per-corpus term stats are the
    dictionary pipeline's job)."""
    from collections import Counter

    r = IndexReader(index_dir)
    per_doc: dict[int, Counter] = {}
    for d in doc_ids:
        per_doc[int(d)] = Counter(r.analyzer(texts.get(int(d), "")))
    all_terms = sorted({t for c in per_doc.values() for t in c})
    r.load_postings(all_terms)
    rows = []
    for d in sorted(per_doc):
        for t in sorted(per_doc[d]):
            raw = r.load_raw(t)
            df = int(raw[0].size) if raw is not None else 0
            rows.append((d, t, int(per_doc[d][t]), df))
    return pd.DataFrame(rows, columns=["doc_id", "term", "tf", "df"]).astype(
        {"doc_id": np.int64, "tf": np.int64, "df": np.int64}
    )


def adjacency_matrix(index_dir: str, filters: dict[str, str]) -> pd.DataFrame:
    """ES ``adjacency_matrix`` aggregation: doc counts for each named
    single-term filter and each pairwise intersection (key ``a&b``,
    names sorted). Membership comes straight from the terms' posting
    lists (pruned reads); intersections are sorted-array
    ``intersect1d`` — never a corpus scan. Zero-count buckets are kept
    (deterministic full matrix; ES hides them only for rendering)."""
    r = IndexReader(index_dir)
    names = sorted(filters)
    postings = r.load_postings(sorted({filters[n] for n in names}))
    sets = {
        n: (postings[filters[n]].doc_ids if filters[n] in postings
            else np.empty(0, dtype=np.uint64))
        for n in names
    }
    rows = [(n, int(sets[n].size)) for n in names]
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            rows.append((f"{a}&{b}", int(np.intersect1d(sets[a], sets[b]).size)))
    out = pd.DataFrame(rows, columns=["key", "doc_count"])
    out["doc_count"] = out["doc_count"].astype(np.int64)
    return out.sort_values("key", kind="mergesort").reset_index(drop=True)


# --- span_near (in-order proximity) ------------------------------------------


class SpanNearScorer(Scorer):
    """ES ``span_near``: docs containing every query term within a
    proximity window. ``in_order=True`` (default) requires the terms in
    order with each consecutive positional gap ≤ ``slop`` (slop 0 =
    exact phrase); ``in_order=False`` uses Lucene's unordered rule —
    minimal covering window width − n_terms ≤ ``slop``. Candidates are
    the intersection of the terms' posting doc lists; survivors rank by
    the BM25 score of the terms — exactly the phrase tier's contract
    with a proximity window."""

    def __init__(self, index_dir: str, default_slop: int = 2, default_top_k: int = 10,
                 in_order: bool = True):
        super().__init__(index_dir, default_top_k)
        self.default_slop = default_slop
        self.in_order = in_order

    def hits(self, row: dict, k: int):
        return near_hits(self.reader, self.reader.analyzer(row["query_text"]),
                         int(row.get("slop", self.default_slop)), k, self.in_order)


def span_near_search(queries_ds, index_dir: str, cfg: EngineConfig = DEFAULT_CONFIG,
                     in_order: bool = True):
    """span_near over a positional index; queries carry (query_id,
    query_text, slop[, top_k])."""
    return map_scorer(queries_ds, SpanNearScorer, cfg, index_dir, 2, cfg.top_k, in_order)


class SpanOrNearScorer(Scorer):
    """Lucene ``span_or`` leaves inside an ordered ``span_near``: each
    clause is a SET of alternative terms (``"fast|slow hash|merge join"``
    → 3 clauses); a doc matches when positions p₁ < p₂ < … (pᵢ drawn
    from the UNION of clause i's member positions) chain with every
    consecutive gap ≤ slop — the same forward full-feasible-set chain
    as the plain span_near, run over merged position lists. Candidates
    are docs holding ≥1 member of EVERY clause; survivors rank by the
    sum over clauses of the best member BM25 contribution (dis_max per
    clause — deterministic and twinnable, where Lucene's sloppy-freq
    span scoring is traversal-order-defined)."""

    def __init__(self, index_dir: str, default_slop: int = 2,
                 default_top_k: int = 10):
        super().__init__(index_dir, default_top_k)
        self.default_slop = default_slop

    @staticmethod
    def _parse(qtext: str) -> list[list[str]]:
        return [sorted(set(c.split("|"))) for c in qtext.split()]

    def preload(self, rows: list[dict]) -> None:
        self.reader.load_postings(sorted(
            {t for row in rows for clause in self._parse(row["query_text"]) for t in clause}))

    def hits(self, row: dict, k: int):
        clauses = self._parse(row["query_text"])
        postings = self.reader.load_postings(sorted({t for c in clauses for t in c}))
        cand = clause_candidates(postings, clauses)
        if cand.size == 0:
            return None
        pos = {t: self.reader.load_positions(t) for t in postings}
        m = cand[ordered_match(pos, clauses, cand, int(row.get("slop", self.default_slop)))]
        scores = np.zeros(m.size, dtype=np.float64)
        for c in clauses:  # the best member of each clause
            scores += np.max([score_at([postings[t]], m) for t in c if t in postings], axis=0)
        return topk_desc(m, scores, k)


def span_or_near_search(queries_ds, index_dir: str,
                        cfg: EngineConfig = DEFAULT_CONFIG):
    """span_near over span_or clauses; query_text clause syntax
    ``"a|b c d|e"`` with per-row slop/top_k."""
    return map_scorer(queries_ds, SpanOrNearScorer, cfg, index_dir, 2, cfg.top_k)


_SPAN_MULTI_NO_MATCH = "\x00span-multi-no-match"


def span_multi_near_search(queries: list[dict], index_dir: str,
                           cfg: EngineConfig = DEFAULT_CONFIG):
    """Lucene ``span_multi``: a multi-term query wrapped as a span
    clause inside an ordered ``span_near``. Clause tokens ending in
    ``*`` are prefix queries rewritten against the term dictionary
    (Lucene's span-rewrite of MultiTermQuery — the same one
    column-pruned distributed dictionary scan wildcard/regexp share,
    run ONCE for all queries' prefixes); the expanded alternatives then
    run the span_or/near position chain (SpanOrNearScorer), so scoring
    is the per-clause best-member BM25 contract. A prefix with zero
    dictionary matches makes its whole query unmatchable (Lucene: an
    empty span clause matches nothing).

    ``queries``: [{query_id, query_text, slop, top_k}] with clause
    syntax ``"pre* literal oth*"``.
    """
    import ray.data as rd

    rex = {}
    for q in queries:
        for tok in q["query_text"].split():
            if tok.endswith("*") and tok not in rex:
                rex[tok] = wildcard_to_regex(tok)
    expanded = _expand_regex_map(index_dir, rex) if rex else {}

    rewritten = []
    for q in queries:
        clauses = []
        for tok in q["query_text"].split():
            if tok.endswith("*"):
                members = expanded.get(tok, [])
                clauses.append("|".join(members) if members else _SPAN_MULTI_NO_MATCH)
            else:
                clauses.append(tok)
        rewritten.append({**q, "query_text": " ".join(clauses)})
    return span_or_near_search(rd.from_items(rewritten), index_dir, cfg)


class ConstantScoreScorer(Scorer):
    """ES ``constant_score``: a filter-context clause (here the AND of
    the query's terms) whose every match scores exactly ``boost`` — no
    BM25, no norms, the documented escape hatch from scoring. Matches
    rank by doc_id asc (ES returns arbitrary-but-stable order at equal
    score; doc order is the deterministic choice) and truncate at
    top_k."""

    def __init__(self, index_dir: str, boost: float = 1.2,
                 default_top_k: int = 10):
        super().__init__(index_dir, default_top_k)
        self.boost = boost

    def hits(self, row: dict, k: int):
        uniq = sorted(set(self.reader.analyzer(row["query_text"])))
        d = clause_candidates(self.reader.load_postings(uniq), [[t] for t in uniq])[:k]
        return d, np.full(d.size, self.boost)


def constant_score_search(queries_ds, index_dir: str, boost: float = 1.2,
                          cfg: EngineConfig = DEFAULT_CONFIG):
    """constant_score filter query: every AND-match scores ``boost``."""
    return map_scorer(queries_ds, ConstantScoreScorer, cfg, index_dir, boost, cfg.top_k)


# --- dis_max ------------------------------------------------------------------


class DisMaxScorer(Scorer):
    """ES ``dis_max``: per doc, the BEST clause score plus
    ``tie_breaker`` × the other clauses' scores — the multi-field /
    multi-phrasing combinator (multi_match best_fields is dis_max over
    per-field clauses). Candidates are the union of the clauses'
    candidates; the combine is one np.unique + bincount/maximum.at."""

    text_cols = ("clause_a", "clause_b")

    def __init__(self, index_dir: str, tie_breaker: float = 0.3, default_top_k: int = 10):
        super().__init__(index_dir, default_top_k)
        self.tie_breaker = tie_breaker

    def hits(self, row: dict, k: int):
        parts = [self.score_text(row[c]) for c in self.text_cols]
        all_docs = np.concatenate([d for d, _ in parts])
        if all_docs.size == 0:
            return None
        all_scores = np.concatenate([s for _, s in parts])
        uniq, inv = np.unique(all_docs, return_inverse=True)
        sums = np.bincount(inv, weights=all_scores, minlength=uniq.size)
        maxs = np.zeros(uniq.size, dtype=np.float64)
        np.maximum.at(maxs, inv, all_scores)
        combined = maxs + self.tie_breaker * (sums - maxs)
        return topk_desc(uniq, combined, k)


def dis_max_search(queries_ds, index_dir: str, tie_breaker: float = 0.3,
                   cfg: EngineConfig = DEFAULT_CONFIG):
    """dis_max over two clauses; queries carry (query_id, clause_a,
    clause_b[, top_k])."""
    return map_scorer(queries_ds, DisMaxScorer, cfg, index_dir, tie_breaker, cfg.top_k)


# --- multi_match (cross-FIELD combinator) --------------------------------------


class MultiMatchScorer(Scorer):
    """ES ``multi_match``: ONE query text scored against several FIELDS —
    here separate field indexes built by the same machinery from the same
    corpus (word / shingle / char-trigram, the reference's multi-subfield
    mapping: templates/elasticsearch/elasticsearch_component_template.json:
    20-56). Each field analyzes the query with ITS OWN analyzer (the
    reader's manifest-recorded mode) and scores its FULL candidate list
    (``score_all``), so the cross-field combine is exact — never a
    fused-top-k approximation. Per-field ``boost`` multiplies before the
    combine; ``best_fields`` combines as dis_max (max + tie_breaker ×
    rest), ``most_fields`` sums.

    Scale shape: one actor holds ALL field readers (each loads its
    manifest once and caches postings); a batch of queries preloads each
    field's posting union in one pruned segment read per field."""

    def __init__(self, field_dirs: list[str], boosts: list[float],
                 match_type: str = "best_fields", tie_breaker: float = 0.3,
                 default_top_k: int = 10):
        if match_type not in ("best_fields", "most_fields"):
            raise ValueError(f"unknown multi_match type: {match_type}")
        if len(field_dirs) != len(boosts):
            raise ValueError("field_dirs and boosts must align")
        self.readers = [IndexReader(d) for d in field_dirs]
        self.boosts = [float(b) for b in boosts]
        self.match_type = match_type
        self.tie_breaker = float(tie_breaker)
        self.default_top_k = default_top_k

    def preload(self, rows: list[dict]) -> None:
        for reader in self.readers:  # each field analyzes with its own analyzer
            load_terms(reader, (row["query_text"] for row in rows))

    def hits(self, row: dict, k: int):
        field_docs: list[np.ndarray] = []
        field_scores: list[np.ndarray] = []
        for reader, boost in zip(self.readers, self.boosts):
            terms = sorted(set(reader.analyzer(row["query_text"])))
            d, s = score_all(list(reader.load_postings(terms).values()))
            field_docs.append(d)
            field_scores.append(s * boost)
        all_docs = np.concatenate(field_docs)
        if all_docs.size == 0:
            return None
        all_scores = np.concatenate(field_scores)
        uniq, inv = np.unique(all_docs, return_inverse=True)
        sums = np.bincount(inv, weights=all_scores, minlength=uniq.size)
        if self.match_type == "most_fields":
            combined = sums
        else:
            maxs = np.zeros(uniq.size, dtype=np.float64)
            np.maximum.at(maxs, inv, all_scores)
            combined = maxs + self.tie_breaker * (sums - maxs)
        return topk_desc(uniq, combined, k)


class SparseVectorScorer(Scorer):
    """ES ``sparse_vector`` query (the ELSER / learned-sparse retrieval
    shape): the query is a {token: weight} map, the document side a
    sparse token→weight vector, score = the sparse dot product. The
    deterministic stand-in for learned doc weights is raw tf (what a
    real deployment would replace with model-emitted weights at ingest);
    with integer query weights the whole score is EXACT int64 — no
    float order anywhere. Candidates are the union of the query tokens'
    posting lists: the live docs of each raw decode, with their tfs."""

    columns = {**RESULT_COLUMNS, "score": np.int64}

    def __init__(self, index_dir: str, specs: dict[str, dict[str, int]],
                 default_top_k: int = 10):
        super().__init__(index_dir, default_top_k)
        self.specs = {qid: {t: int(w) for t, w in m.items()}
                      for qid, m in specs.items()}

    def preload(self, rows: list[dict]) -> None:
        self.reader.load_postings(sorted({t for row in rows for t in self.specs[row["query_id"]]}))

    def hits(self, row: dict, k: int):
        spec = self.specs[row["query_id"]]
        t_docs: list[np.ndarray] = []
        t_scores: list[np.ndarray] = []
        for t, w in spec.items():
            if (raw := self.reader.load_raw(t)) is None:
                continue
            docs, tf = self.reader.live(raw[0], raw[1])
            if docs.size == 0:
                continue
            t_docs.append(docs.astype(np.int64))
            t_scores.append(w * tf.astype(np.int64))
        if not t_docs:
            return None
        uniq, inv = np.unique(np.concatenate(t_docs), return_inverse=True)
        tot = np.zeros(uniq.size, dtype=np.int64)
        np.add.at(tot, inv, np.concatenate(t_scores))
        order = np.lexsort((uniq, -tot))[:k]
        return uniq[order], tot[order]


def sparse_vector_search(queries_ds, index_dir: str,
                         specs: dict[str, dict[str, int]],
                         cfg: EngineConfig = DEFAULT_CONFIG):
    """sparse_vector retrieval; queries carry (query_id[, top_k]), the
    {token: weight} maps ship in the constructor (one dictionary scan
    per actor)."""
    return map_scorer(queries_ds, SparseVectorScorer, cfg, index_dir, specs, cfg.top_k)


class TermsSetScorer(Scorer):
    """ES ``terms_set`` query: a should-style term disjunction whose
    minimum match count comes from a PER-DOCUMENT field
    (``minimum_should_match_field``) — doc d qualifies iff it contains
    at least ``clamp(field(d), 1, n_terms)`` distinct query terms.
    The field rides the docmap (one doc-id-sorted read in ``__init__``,
    the FeatureScorer pattern); per query the matched-term counts come
    from one concat+unique over the terms' posting lists — no per-doc
    loop. Survivors score as the BM25 sum of their matched terms (the
    ES bool-should contract)."""

    def __init__(self, index_dir: str, field_key: str = "turn_idx",
                 default_top_k: int = 10):
        super().__init__(index_dir, default_top_k)
        self.dm_ids, field = _load_docmap_keys(index_dir, field_key)
        self.field = field.astype(np.int64)

    def hits(self, row: dict, k: int):
        terms = sorted(set(self.reader.analyzer(row["query_text"])))
        postings = self.reader.load_postings(terms)
        present = [t for t in terms if t in postings and postings[t].doc_ids.size]
        if not present:
            return None
        d_all = np.concatenate([postings[t].doc_ids.astype(np.int64)
                                for t in present])
        s_all = np.concatenate([postings[t].factors * postings[t].idf
                                for t in present])
        uniq, inv = np.unique(d_all, return_inverse=True)
        matched = np.bincount(inv, minlength=uniq.size)
        scores = np.bincount(inv, weights=s_all, minlength=uniq.size)
        at = np.searchsorted(self.dm_ids, uniq)
        need = np.clip(self.field[at], 1, len(terms))
        hit = matched >= need
        return topk_desc(uniq[hit].astype(np.uint64), scores[hit], k)


def terms_set_search(queries_ds, index_dir: str, field_key: str = "turn_idx",
                     cfg: EngineConfig = DEFAULT_CONFIG):
    """terms_set with minimum_should_match_field; queries carry
    (query_id, query_text[, top_k])."""
    return map_scorer(queries_ds, TermsSetScorer, cfg, index_dir, field_key, cfg.top_k)


def _require_one_analyzer(readers: list, what: str) -> None:
    """Refuse field indexes whose analyzers differ in any manifest
    ANALYZER field: the query is analyzed once, by the first field's
    analyzer, for every field."""
    diffs = [d for r in readers[1:]
             for d in identity_diff(readers[0].manifest, r.manifest, ANALYZER,
                                    labels=("first", "field"))]
    if diffs:
        raise ValueError(f"{what} requires one analyzer group: " + "; ".join(diffs))


class CrossFieldsScorer(Scorer):
    """ES ``multi_match`` type=``cross_fields``: TERM-centric — each
    query term looks for its best field (dis_max per term, default
    ``tie_breaker=0.0`` = pure max, the ES default), then term scores
    SUM per doc. Contrast best_fields (field-centric: dis_max over
    whole-field scores) — cross_fields lets a query like "assistant
    merge" match docs where 'assistant' lives in the role field and
    'merge' in the body, scoring each term where it is strongest.
    Requires the fields to share one analyzer group (ES's own
    precondition); asserted from the manifests. Lucene's blended-df
    rewrite is approximated by per-field BM25 inside the per-term max —
    the documented, deterministic contract here."""

    def __init__(self, field_dirs: list[str], boosts: list[float],
                 tie_breaker: float = 0.0, default_top_k: int = 10):
        if len(field_dirs) != len(boosts):
            raise ValueError("field_dirs and boosts must align")
        self.readers = [IndexReader(d) for d in field_dirs]
        _require_one_analyzer(self.readers, "cross_fields")
        self.boosts = [float(b) for b in boosts]
        self.tie_breaker = float(tie_breaker)
        self.default_top_k = default_top_k

    def preload(self, rows: list[dict]) -> None:
        _load_shared_terms(self.readers, rows)

    def hits(self, row: dict, k: int):
        terms = sorted(set(self.readers[0].analyzer(row["query_text"])))
        term_docs: list[np.ndarray] = []
        term_scores: list[np.ndarray] = []
        for t in terms:
            f_docs: list[np.ndarray] = []
            f_scores: list[np.ndarray] = []
            for reader, boost in zip(self.readers, self.boosts):
                p = reader.load_postings([t]).get(t)
                if p is not None and p.doc_ids.size:
                    f_docs.append(p.doc_ids.astype(np.int64))
                    f_scores.append(p.factors * p.idf * boost)
            if not f_docs:
                continue
            d_all = np.concatenate(f_docs)
            s_all = np.concatenate(f_scores)
            uniq, inv = np.unique(d_all, return_inverse=True)
            maxs = np.zeros(uniq.size, dtype=np.float64)
            np.maximum.at(maxs, inv, s_all)
            if self.tie_breaker:
                sums = np.bincount(inv, weights=s_all, minlength=uniq.size)
                tsc = maxs + self.tie_breaker * (sums - maxs)
            else:
                tsc = maxs
            term_docs.append(uniq)
            term_scores.append(tsc)
        if not term_docs:
            return None
        uniq, inv = np.unique(np.concatenate(term_docs), return_inverse=True)
        combined = np.bincount(inv, weights=np.concatenate(term_scores), minlength=uniq.size)
        return topk_desc(uniq.astype(np.uint64), combined, k)


def cross_fields_search(queries_ds, field_dirs: list[str], boosts: list[float],
                        tie_breaker: float = 0.0,
                        cfg: EngineConfig = DEFAULT_CONFIG):
    """multi_match cross_fields over same-analyzer field indexes; queries
    carry (query_id, query_text[, top_k])."""
    return map_scorer(queries_ds, CrossFieldsScorer, cfg, field_dirs, boosts, tie_breaker,
                      cfg.top_k)


def doc_lengths(transcripts_ds, analyzer_cfg):
    """Per-document analyzed token count (the Lucene field NORM, exact
    integers instead of the lossy 1-byte encoding): one streaming
    vectorized pass with the same analyzer as the index build — the
    sidecar input ``CombinedFieldsScorer`` needs for per-field dl.
    Rows with zero tokens are kept (dl=0) so the doc universe matches
    the corpus exactly. Returns a Dataset of (doc_id, dl)."""
    from hybrid_sanctions_search_engine_ray.stages.analyze import flat_terms

    def f(b: pa.Table) -> pa.Table:
        parent, terms = flat_terms(b, analyzer_cfg)
        dl = np.zeros(b.num_rows, dtype=np.int64)
        if len(terms):
            np.add.at(dl, parent, 1)
        return pa.table({"doc_id": b["doc_id"], "dl": pa.array(dl)})

    return transcripts_ds.map_batches(f, batch_format="pyarrow", batch_size=8192)


class CombinedFieldsScorer(Scorer):
    """ES ``combined_fields`` query (Lucene ``CombinedFieldQuery``, the
    BM25F simplification of Robertson et al. 2004): same-analyzer
    fields are merged into ONE synthetic field before scoring —
    ``tf'(d,t) = Σ_f w_f·tf_f``, ``dl'(d) = Σ_f w_f·dl_f``,
    ``df'(t) = |{d : tf' > 0}|`` (docs matching in ANY field), then a
    single BM25 over (tf', dl', avgdl', df'). Contrast cross_fields
    (per-term best-FIELD dis_max): combined_fields rewards a term
    appearing in several fields at once instead of taking the max.
    Per-field dl comes from ``doc_lengths`` sidecar parquets loaded
    once per actor (norms_paths aligns with field_dirs). df′ and dl′ are
    pre-tombstone counts, the module-wide convention; tf′ sums each
    field's live postings only, and a doc with none is not a hit."""

    def __init__(self, field_dirs: list[str], weights: list[float],
                 norms_paths: list[str], default_top_k: int = 10):
        if not (len(field_dirs) == len(weights) == len(norms_paths)):
            raise ValueError("field_dirs, weights, norms_paths must align")
        if any(w < 1.0 for w in weights):
            raise ValueError("combined_fields weights must be >= 1.0 (the ES rule)")
        self.readers = [IndexReader(d) for d in field_dirs]
        _require_one_analyzer(self.readers, "combined_fields")
        self.weights = [float(w) for w in weights]
        ids_parts: list[np.ndarray] = []
        dl_parts: list[np.ndarray] = []
        for path, w in zip(norms_paths, self.weights):
            t = pads.dataset(path).to_table(columns=["doc_id", "dl"])
            ids_parts.append(t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64))
            dl_parts.append(w * t["dl"].to_numpy(zero_copy_only=False).astype(np.float64))
        allids = np.concatenate(ids_parts)
        self.norm_ids, inv = np.unique(allids, return_inverse=True)
        self.norm_cdl = np.bincount(inv, weights=np.concatenate(dl_parts))
        self.n_docs = float(self.norm_ids.size)
        self.avgdl = float(self.norm_cdl.sum() / self.n_docs)
        m = self.readers[0].manifest
        self.k1, self.b = float(m.k1), float(m.b)
        self.default_top_k = default_top_k

    def preload(self, rows: list[dict]) -> None:
        _load_shared_terms(self.readers, rows)

    def hits(self, row: dict, k: int):
        terms = sorted(set(self.readers[0].analyzer(row["query_text"])))
        d_parts: list[np.ndarray] = []
        s_parts: list[np.ndarray] = []
        for t in terms:
            raw_ids: list[np.ndarray] = []
            f_ids: list[np.ndarray] = []
            f_tfs: list[np.ndarray] = []
            for reader, w in zip(self.readers, self.weights):
                if (raw := reader.load_raw(t)) is None:
                    continue
                raw_ids.append(raw[0])
                ids, tfs = reader.live(raw[0], raw[1])
                f_ids.append(ids.astype(np.int64))
                f_tfs.append(w * tfs.astype(np.float64))
            if not raw_ids:
                continue
            uniq, inv = np.unique(np.concatenate(f_ids), return_inverse=True)
            if uniq.size == 0:  # every posting tombstoned
                continue
            ctf = np.bincount(inv, weights=np.concatenate(f_tfs))
            df = float(np.unique(np.concatenate(raw_ids)).size)
            idf = np.log(1.0 + (self.n_docs - df + 0.5) / (df + 0.5))
            cdl = self.norm_cdl[np.searchsorted(self.norm_ids, uniq)]
            s = (idf * ctf * (self.k1 + 1.0)
                 / (ctf + self.k1 * ((1.0 - self.b) + self.b * cdl / self.avgdl)))
            d_parts.append(uniq)
            s_parts.append(s)
        if not d_parts:
            return None
        uniq, inv = np.unique(np.concatenate(d_parts), return_inverse=True)
        combined = np.bincount(inv, weights=np.concatenate(s_parts))
        return topk_desc(uniq.astype(np.uint64), combined, k)


def combined_fields_search(queries_ds, field_dirs: list[str], weights: list[float],
                           norms_paths: list[str], cfg: EngineConfig = DEFAULT_CONFIG):
    """ES combined_fields over same-analyzer field indexes with
    doc_lengths norms sidecars; queries carry (query_id, query_text[, top_k])."""
    return map_scorer(queries_ds, CombinedFieldsScorer, cfg, field_dirs, weights, norms_paths,
                      cfg.top_k)


def multi_match_search(queries_ds, field_dirs: list[str], boosts: list[float],
                       match_type: str = "best_fields", tie_breaker: float = 0.3,
                       cfg: EngineConfig = DEFAULT_CONFIG):
    """multi_match over field indexes; queries carry
    (query_id, query_text[, top_k])."""
    return map_scorer(queries_ds, MultiMatchScorer, cfg, field_dirs, boosts, match_type,
                      tie_breaker, cfg.top_k)


# --- sort-by-field query ---------------------------------------------------------


class FieldSortScorer(Scorer):
    """ES sort-by-field retrieval (``"sort": [{"conv_id": "asc"}, ...]``):
    documents matching ≥1 query term ordered by DOC FIELDS instead of
    relevance — scoring is skipped entirely (ES ``track_scores: false``).
    Candidates come from the posting union; the sort keys come from the
    docmap loaded once per actor (doc_id + the two key columns only).
    The per-query sort is candidate-sized — the corpus never moves."""

    def __init__(self, index_dir: str, keys: tuple[str, str] = ("conv_id", "turn_idx"),
                 default_top_k: int = 10):
        super().__init__(index_dir, default_top_k)
        self.keys = keys
        # one docmap read for doc_id + both sort-key columns
        self.dm_ids, self.dm_k1, self.dm_k2 = _load_docmap_keys(index_dir, *keys)
        self.columns = {"query_id": str, "rank": np.int32, keys[0]: self.dm_k1.dtype,
                        keys[1]: self.dm_k2.dtype, "doc_id": np.int64}

    def hits(self, row: dict, k: int):
        from hybrid_sanctions_search_engine_ray.stages.facets import matching_doc_ids

        docs = matching_doc_ids(self.reader, row["query_text"]).astype(np.int64)
        pos = np.searchsorted(self.dm_ids, docs)
        g = pd.DataFrame(
            {self.keys[0]: self.dm_k1[pos], self.keys[1]: self.dm_k2[pos], "doc_id": docs}
        )
        g = g.sort_values([*self.keys, "doc_id"], kind="mergesort").head(k)
        return tuple(g[c].to_numpy() for c in g.columns)


def field_sort_search(queries_ds, index_dir: str, keys: tuple[str, str] = ("conv_id", "turn_idx"),
                      cfg: EngineConfig = DEFAULT_CONFIG):
    """sort-by-field retrieval; queries carry (query_id, query_text[, top_k])."""
    return map_scorer(queries_ds, FieldSortScorer, cfg, index_dir, keys, cfg.top_k)


# --- terms enum (dictionary paging) ------------------------------------------------


def terms_enum(index_dir: str, prefix: str, size: int = 10) -> pd.DataFrame:
    """ES ``_terms_enum`` API: the first ``size`` index terms with the
    given prefix, lexicographic — the shared column-pruned dictionary
    scan (segment term columns) with a pre-anchored prefix regex; only
    the matched set (tiny) reaches the driver."""
    m = _expand_regex_map(index_dir, {"_enum": "^" + re.escape(prefix)})
    terms = m["_enum"][:size]
    return pd.DataFrame({"term": pd.Series(terms, dtype=object),
                         "rank": np.arange(1, len(terms) + 1, dtype=np.int32)})


# --- phrase suggester ---------------------------------------------------------------


def phrase_suggest(phrases: dict[str, str], shingle_index_dir: str, vocab_ds,
                   max_dist: int = 2, topn: int = 3, top_k: int = 3) -> pd.DataFrame:
    """ES phrase suggester: whole-phrase corrections for multi-word
    typos. Per-term candidates come from the WORD vocabulary
    (Levenshtein ≤ ``max_dist``, (dist asc, term asc) top-``topn`` — the
    term-suggester contract); candidate PHRASES (the cross product of
    per-term expansions) are then collated against the corpus by the
    word-shingle field's document frequency — the real-phrase-frequency
    signal ES's phrase suggester reads from its shingle subfield
    (reference shingle_analyzer: elasticsearch_component_template.json:
    20-29). Candidates whose shingle never occurs are pruned (ES
    ``collate``); rank = shingle df desc, suggestion asc, top ``top_k``.

    Scale shape: expansion streams the vocabulary Dataset; the shingle
    df lookups are pruned posting point-reads for the (|candidates|)
    cross-product terms — the corpus itself is never touched."""
    from itertools import product

    from hybrid_sanctions_search_engine_ray.functions.fuzzy import fuzzy_expand
    from hybrid_sanctions_search_engine_ray.pipelines.query import IndexReader

    all_terms = sorted({t for p in phrases.values() for t in p.lower().split()})
    exp = fuzzy_expand(vocab_ds, all_terms, max_dist=max_dist, topn=topn).to_pandas()
    by_term: dict[str, list[str]] = (
        {} if exp.empty else exp.groupby("q_term")["term"].apply(list).to_dict()
    )
    cand_by_phrase: dict[str, list[str]] = {}
    all_shingles: set[str] = set()
    for qid, p in sorted(phrases.items()):
        lists = [by_term.get(t, []) for t in p.lower().split()]
        cands = [" ".join(c) for c in product(*lists)] if all(lists) else []
        cand_by_phrase[qid] = cands
        all_shingles.update(cands)
    reader = IndexReader(shingle_index_dir)
    postings = reader.load_postings(sorted(all_shingles))
    df_map = {t: int(pp.doc_ids.size) for t, pp in postings.items()}
    rows = []
    for qid, cands in sorted(cand_by_phrase.items()):
        scored = sorted(
            ((c, df_map[c]) for c in set(cands) if df_map.get(c, 0) > 0),
            key=lambda x: (-x[1], x[0]),
        )
        for r, (c, d) in enumerate(scored[:top_k], 1):
            rows.append({"query_id": qid, "rank": r, "suggestion": c, "df": d})
    if not rows:
        return pd.DataFrame({"query_id": pd.Series([], dtype=object),
                             "rank": pd.Series([], dtype=np.int32),
                             "suggestion": pd.Series([], dtype=object),
                             "df": pd.Series([], dtype=np.int64)})
    out = pd.DataFrame(rows)
    out["rank"] = out["rank"].astype(np.int32)
    out["df"] = out["df"].astype(np.int64)
    return out


# --- multi-get (ids lookup) -------------------------------------------------------


def mget(index_dir: str, ids: list[int]) -> pd.DataFrame:
    """ES multi-get (``_mget`` / ``ids`` query): point-fetch documents by
    id through row-group-pruned docmap reads (never a scan). Missing and
    tombstoned ids are reported with ``found = 0`` (ES ``found: false``),
    empty conv_id and turn_idx −1 — the request never errors on absent
    docs."""
    want = sorted(set(int(i) for i in ids))
    (live,) = IndexReader(index_dir).live(np.array(want, dtype=np.int64))
    dm = pads.dataset(os.path.join(index_dir, "docmap.parquet")).to_table(
        columns=["doc_id", "conv_id", "turn_idx"],
        filter=pads.field("doc_id").isin(live.tolist()),
    ).to_pandas()
    out = pd.DataFrame({"doc_id": pd.Series(want, dtype=np.int64)}).merge(
        dm, on="doc_id", how="left", indicator=True
    )
    out["found"] = (out["_merge"] == "both").astype(np.int64)
    out["conv_id"] = out["conv_id"].fillna("").astype(object)
    out["turn_idx"] = out["turn_idx"].fillna(-1).astype(np.int64)
    return out[["doc_id", "found", "conv_id", "turn_idx"]]


# --- pinned query ---------------------------------------------------------------


def pinned_search(queries: dict[str, tuple[str, list[int]]], index_dir: str,
                  cfg: EngineConfig = DEFAULT_CONFIG, top_k: int = 10):
    """ES ``pinned`` query: promoted document ids come first IN THE GIVEN
    ORDER, then the organic BM25 ranking fills the remainder of ``top_k``
    with the promoted ids excluded. Organic retrieval rides the ordinary
    scorer-actor path (one over-fetched batch search); the pin/splice is
    result-sized driver work. Output adds a ``pinned`` flag column;
    pinned rows carry score 0.0 (ES substitutes a synthetic sort value
    there too — the flag, not the score, is the contract)."""
    import ray.data as rd

    # ES can only promote documents that exist and are not deleted: drop
    # unknown and tombstoned pinned ids (one mget over the union of pins)
    all_pins = sorted({int(d) for _, pins in queries.values() for d in pins})
    if all_pins:
        known = set(mget(index_dir, all_pins).query("found == 1")["doc_id"].tolist())
        queries = {qid: (text, [d for d in pins if int(d) in known])
                   for qid, (text, pins) in queries.items()}
    max_p = max((len(p) for _, p in queries.values()), default=0)
    items = [
        {"query_id": qid, "query_text": text, "top_k": top_k + max_p}
        for qid, (text, _) in sorted(queries.items())
    ]
    res = search(rd.from_items(items), index_dir, cfg, method="taat").to_pandas()
    frames = []
    for qid, (text, pins) in sorted(queries.items()):
        org = res[res.query_id == qid].sort_values("rank", kind="mergesort")
        org = org[~org["doc_id"].isin(pins)].head(max(top_k - len(pins), 0))
        rows = [
            {"query_id": qid, "rank": i + 1, "doc_id": int(d), "pinned": 1, "score": 0.0}
            for i, d in enumerate(pins)
        ]
        rows += [
            {"query_id": qid, "rank": len(pins) + j + 1, "doc_id": int(r.doc_id),
             "pinned": 0, "score": float(r.score)}
            for j, r in enumerate(org.itertuples())
        ]
        if rows:
            frames.append(pd.DataFrame(rows))
    if not frames:
        return pd.DataFrame({"query_id": pd.Series([], dtype=object),
                             "rank": pd.Series([], dtype=np.int32),
                             "doc_id": pd.Series([], dtype=np.int64),
                             "pinned": pd.Series([], dtype=np.int64),
                             "score": pd.Series([], dtype=np.float64)})
    out = pd.concat(frames, ignore_index=True)
    out["rank"] = out["rank"].astype(np.int32)
    out["doc_id"] = out["doc_id"].astype(np.int64)
    out["pinned"] = out["pinned"].astype(np.int64)
    return out


# --- fuzzy match query ---------------------------------------------------------


def fuzzy_search(queries: dict[str, str], index_dir: str, vocab_ds,
                 cfg: EngineConfig = DEFAULT_CONFIG, max_dist: int = 2,
                 topn: int = 5, top_k: int = 10, prefix_length: int = 0,
                 metric: str = "levenshtein"):
    """ES ``match`` with ``fuzziness``: every query term expands to its
    ``topn`` nearest dictionary terms (Levenshtein ≤ ``max_dist``, ranked
    dist asc / term asc — the fuzzy_expand contract) and the DISTINCT
    union of expansions rides the ordinary BM25 posting path as an OR
    query. The expansion runs against the vocabulary Dataset (streamed
    through the expander actors), never the corpus; queries with no
    expansion in range return no rows."""
    from hybrid_sanctions_search_engine_ray.functions.fuzzy import fuzzy_expand

    all_terms = sorted({t for q in queries.values() for t in q.lower().split()})
    exp = fuzzy_expand(vocab_ds, all_terms, max_dist=max_dist, topn=topn,
                       prefix_len=prefix_length, metric=metric).to_pandas()
    by_qterm: dict[str, list[str]] = (
        {} if exp.empty else exp.groupby("q_term")["term"].apply(list).to_dict()
    )
    expanded = {qid: sorted({e for t in set(text.lower().split()) for e in by_qterm.get(t, ())})
                for qid, text in queries.items()}
    return _search_expansions(expanded, index_dir, cfg, top_k)


# --- match_phrase_prefix ---------------------------------------------------------


class PhrasePrefixScorer(Scorer):
    """ES ``match_phrase_prefix``: the phrase's last token is a prefix —
    a doc matches when the fixed tokens occur contiguously and ANY
    dictionary expansion of the prefix occupies the next position.
    Scoring is the OR-BM25 over fixed terms ∪ all prefix expansions (a
    doc scores whatever of those terms it contains); ranking is over the
    phrase-matching docs only. Specs (fixed terms + expansion lists) are
    computed once from the dictionary and ship in the constructor."""

    def __init__(self, index_dir: str, specs: dict[str, tuple[list[str], list[str]]],
                 default_top_k: int = 10):
        super().__init__(index_dir, default_top_k)
        self.specs = specs

    def preload(self, rows: list[dict]) -> None:
        self.reader.load_postings(sorted(
            {t for row in rows for part in self.specs[row["query_id"]] for t in part}))

    def hits(self, row: dict, k: int):
        fixed, alts = self.specs[row["query_id"]]
        # scores sum the fixed terms first, then the other expansions
        postings = {**self.reader.load_postings(sorted(set(fixed))),
                    **self.reader.load_postings(sorted(set(alts)))}
        # the expansion set is the last clause: an expansion term that
        # ALSO appears in fixed still counts at the final position
        # (oracle parity: pl.term LIKE 'pre%')
        clauses = [[t] for t in fixed] + [alts]
        cand = clause_candidates(postings, clauses)
        if cand.size == 0:
            return None
        pos = {t: self.reader.load_positions(t) for t in postings}
        m = cand[ordered_match(pos, clauses, cand, 0)]
        return topk_desc(m, score_at(list(postings.values()), m), k)


def match_phrase_prefix(queries: dict[str, str], index_dir: str,
                        cfg: EngineConfig = DEFAULT_CONFIG, top_k: int = 10):
    """match_phrase_prefix over a positional index: expand the last
    token against the dictionary (same scan as wildcard), then run the
    positional chain with an any-expansion final step."""
    return _map_prefix_scorer(PhrasePrefixScorer, queries, index_dir, cfg, top_k)


def _map_prefix_scorer(scorer: type, queries: dict[str, str], index_dir: str,
                       cfg: EngineConfig, top_k: int):
    """Run a last-token-prefix scorer: per query the spec (leading
    tokens, dictionary expansions of the last token as a prefix — one
    wildcard scan for all queries) ships in the constructor."""
    import ray.data as rd

    toks = {qid: text.lower().split() for qid, text in queries.items()}
    expanded = expand_wildcards(index_dir, {qid: ts[-1] + "*" for qid, ts in toks.items()})
    specs = {qid: (ts[:-1], expanded.get(qid, [])) for qid, ts in toks.items()}
    qs = rd.from_items([{"query_id": qid, "top_k": top_k} for qid in sorted(queries)])
    return map_scorer(qs, scorer, cfg, index_dir, specs, top_k)


# --- query_string mini-language ---------------------------------------------------


def parse_query_string(q: str) -> dict[str, str]:
    """ES ``simple_query_string`` subset: whitespace-separated tokens
    where ``+term`` is a must clause, ``-term`` a must_not clause and a
    bare term a should clause (default OR). Returns the clause texts the
    boolean scorer consumes (``search_one_boolean`` semantics: every
    must, no must_not, scored over distinct must ∪ should). A bare ``+``
    or ``-`` token is kept as a should term after analysis drops the
    sign (ES's lenient behavior)."""
    must: list[str] = []
    should: list[str] = []
    must_not: list[str] = []
    for tok in q.split():
        if tok.startswith("+") and len(tok) > 1:
            must.append(tok[1:])
        elif tok.startswith("-") and len(tok) > 1:
            must_not.append(tok[1:])
        else:
            should.append(tok)
    return {"must": " ".join(must), "should": " ".join(should),
            "must_not": " ".join(must_not)}


def query_string_search(queries: dict[str, str], index_dir: str,
                        cfg: EngineConfig = DEFAULT_CONFIG, top_k: int = 10):
    """Parse each query string and run it through the boolean clause
    path — the ES ``simple_query_string`` endpoint."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.pipelines.query import boolean_search

    items = [{"query_id": qid, **parse_query_string(q), "top_k": top_k}
             for qid, q in sorted(queries.items())]
    return boolean_search(rd.from_items(items), index_dir, cfg)


# --- has_parent (parent match → child expansion) --------------------------------


class HasParentScorer(Scorer):
    """ES ``has_parent`` (score=true): rank PARENTS (conversations) by
    their children's best BM25 score, then return every CHILD (turn) of
    the top parents with the parent's score inherited — the inverse of
    conv_search's has_child rollup. Parent keys come from the docmap
    loaded once per actor (the general path; conv_search's id-stride is
    the dense shortcut), so the child expansion is a vectorized mask
    over the in-actor key column — no extra reads. Tombstoned children
    are left out, like every other result."""

    def __init__(self, index_dir: str, key: str = "conv_id", default_top_k: int = 3):
        super().__init__(index_dir, default_top_k)
        self.dm_ids, self.dm_keys = _load_docmap_keys(index_dir, key)
        # key-sorted view for O(log n) member expansion (a per-parent
        # boolean scan of the whole docmap would dominate at 10^7+ docs)
        self._key_order = np.argsort(self.dm_keys, kind="stable")
        self._keys_sorted = self.dm_keys[self._key_order]
        self.columns = {"query_id": str, "rank": np.int32, key: object, "doc_id": np.int64,
                        "score": np.float64}

    def hits(self, row: dict, k: int):
        docs, scores = self.score_text(row["query_text"])
        if docs.size == 0:
            return None
        keys = self.dm_keys[np.searchsorted(self.dm_ids, docs.astype(np.int64))]
        uniq, inv = np.unique(keys, return_inverse=True)
        best = np.zeros(uniq.size, np.float64)
        np.maximum.at(best, inv, scores)
        order = np.lexsort((uniq, -best))[:k]  # (score desc, key asc)
        lo = np.searchsorted(self._keys_sorted, uniq[order], side="left")
        hi = np.searchsorted(self._keys_sorted, uniq[order], side="right")
        # the live children of each top parent
        members = [self.reader.live(self.dm_ids[self._key_order[a:b]])[0] for a, b in zip(lo, hi)]
        n = [m.size for m in members]
        return (np.repeat(np.arange(1, order.size + 1), n), np.repeat(uniq[order], n),
                np.concatenate(members), np.repeat(best[order], n))


def has_parent_search(queries_ds, index_dir: str, key: str = "conv_id",
                      top_parents: int = 3, cfg: EngineConfig = DEFAULT_CONFIG):
    """has_parent: every child of the top-N best-scoring parents."""
    return map_scorer(queries_ds, HasParentScorer, cfg, index_dir, key, top_parents)


def anchor_regex(p: str) -> str:
    """Whole-term anchoring for ES ``regexp`` semantics — the single
    source shared by the engine matcher and the driver's SQL oracle."""
    return p if p.startswith("^") else f"^(?:{p})$"


def regexp_search(patterns: dict[str, str], index_dir: str,
                  cfg: EngineConfig = DEFAULT_CONFIG, top_k: int = 10):
    """ES ``regexp`` query: like :func:`wildcard_search` but the pattern
    IS a regex (anchored here, matching ES's whole-term semantics); the
    dictionary expansion rides the BM25 OR path. RE2 both engine-side
    (Arrow) and oracle-side (DuckDB), so patterns are shared verbatim."""
    expanded = _expand_regex_map(index_dir, {qid: anchor_regex(p) for qid, p in patterns.items()})
    return _search_expansions(expanded, index_dir, cfg, top_k)


# --- MMR diversified reranking ----------------------------------------------------


def _char3_set(text: str) -> set:
    from hybrid_sanctions_search_engine_ray.functions.analyzer import char3_grams, tokenize_simple

    out: set = set()
    for tok in tokenize_simple(text):
        out.update(char3_grams(tok))
    return out


class MMRScorer(Scorer):
    """Maximal Marginal Relevance reranking — the diversified-retrieval
    step of a RAG stack: greedily pick
    ``argmax λ·rel − (1−λ)·max_sim(selected)`` from the first-pass BM25
    window, where rel is max-normalized BM25 and sim is trigram-set
    Jaccard between candidate texts (the engine's char3 analyzer).
    Candidate texts come from ONE row-group-pruned docmap/documents read
    per query (window-sized, never corpus-sized). Deterministic: ties
    break (gain desc, doc_id asc). Greedy selection is inherently
    sequential, so this is a rows-only operator (pytest oracle)."""

    def __init__(self, index_dir: str, source_path: str, window: int = 20,
                 lam: float = 0.7, default_top_k: int = 10):
        super().__init__(index_dir, default_top_k)
        self.source_path = source_path
        self.window = window
        self.lam = lam

    def _texts(self, doc_ids: np.ndarray) -> dict[int, str]:
        import pyarrow.parquet as pq

        tbl = pq.read_table(self.source_path, columns=["doc_id", "text"],
                            filters=[("doc_id", "in", sorted(int(d) for d in doc_ids))])
        return dict(zip(tbl["doc_id"].to_pylist(), tbl["text"].to_pylist()))

    def hits(self, row: dict, k: int):
        docs, scores = self.score_text(row["query_text"])
        if docs.size == 0:
            return None
        wdocs, wscores = topk_desc(docs, scores, self.window)
        w64 = wdocs.astype(np.int64)
        texts = self._texts(w64)
        grams = [_char3_set(texts.get(int(d), "") or "") for d in w64]
        rel = wscores / wscores[0] if wscores[0] > 0 else wscores
        n = w64.size
        selected: list[int] = []
        chosen = np.zeros(n, dtype=bool)
        max_sim = np.zeros(n, dtype=np.float64)
        for _ in range(min(k, n)):
            gain = self.lam * rel - (1.0 - self.lam) * max_sim
            gain[chosen] = -np.inf
            best = int(np.lexsort((w64, -gain))[0])
            chosen[best] = True
            selected.append(best)
            gb = grams[best]
            for j in range(n):
                if not chosen[j]:
                    u = len(gb | grams[j])
                    s = (len(gb & grams[j]) / u) if u else 0.0
                    if s > max_sim[j]:
                        max_sim[j] = s
        return w64[selected], wscores[selected]


def mmr_search(queries_ds, index_dir: str, source_path: str, window: int = 20,
               lam: float = 0.7, cfg: EngineConfig = DEFAULT_CONFIG):
    """Diversified retrieval: BM25 window → greedy MMR rerank."""
    return map_scorer(queries_ds, MMRScorer, cfg, index_dir, source_path, window, lam,
                      cfg.top_k)


# --- match count (the ES _count API) -----------------------------------------------


class CountScorer(Scorer):
    """ES ``_count``: number of docs matching ≥1 query term (the OR
    candidate set), straight off the posting lists — no scoring, no
    ranking, no corpus scan."""

    columns = {"query_id": str, "n_matches": np.int64}

    def __init__(self, index_dir: str):
        super().__init__(index_dir)

    def hits(self, row: dict, k: int):
        postings = self.reader.load_postings(sorted(set(self.reader.analyzer(row["query_text"]))))
        if not postings:
            return [0],
        return [np.unique(np.concatenate([p.doc_ids for p in postings.values()])).size],


def count_search(queries_ds, index_dir: str, cfg: EngineConfig = DEFAULT_CONFIG):
    """_count endpoint: per query, the OR-match doc count."""
    return map_scorer(queries_ds, CountScorer, cfg, index_dir)


# --- rank_feature / distance_feature ------------------------------------------


class FeatureScorer(Scorer):
    """ES ``rank_feature`` / ``distance_feature`` queries: BM25 over the
    FULL candidate set plus a per-doc feature term — ``boost·f/(f+pivot)``
    (saturation), ``boost·ln(scaling+f)`` (log) or
    ``boost·f^exp/(f^exp+pivot^exp)`` (sigmoid) or
    ``boost·pivot/(pivot+|f−origin|)`` (distance_feature). The feature
    column (e.g. ``turn_idx``) comes from ONE doc-id-sorted docmap read
    in ``__init__`` — per-query work is a vectorized searchsorted gather,
    never a shuffle join (reference feature boosting:
    elasticsearch_adapters.py function-score assembly)."""

    MODES = ("saturation", "log", "sigmoid", "distance")

    def __init__(self, index_dir: str, feature_key: str = "turn_idx",
                 mode: str = "saturation", boost: float = 1.0,
                 pivot: float = 2.0, origin: float = 0.0,
                 scaling: float = 1.0, exponent: float = 1.0,
                 default_top_k: int = 10):
        if mode not in self.MODES:
            raise ValueError(f"mode must be one of {self.MODES}")
        super().__init__(index_dir, default_top_k)
        self.dm_ids, feature = _load_docmap_keys(index_dir, feature_key)
        self.feature = feature.astype(np.float64)
        self.mode, self.boost = mode, float(boost)
        self.pivot, self.origin, self.scaling = float(pivot), float(origin), float(scaling)
        self.exponent = float(exponent)

    def _feature_term(self, f: np.ndarray) -> np.ndarray:
        if self.mode == "saturation":
            return self.boost * (f / (f + self.pivot))
        if self.mode == "log":
            return self.boost * np.log(self.scaling + f)
        if self.mode == "sigmoid":
            fe = f ** self.exponent
            return self.boost * (fe / (fe + self.pivot ** self.exponent))
        return self.boost * (self.pivot / (self.pivot + np.abs(f - self.origin)))

    def hits(self, row: dict, k: int):
        docs, scores = self.score_text(row["query_text"])
        if docs.size == 0:
            return None
        at = np.searchsorted(self.dm_ids, docs.astype(np.int64))
        return topk_desc(docs, scores + self._feature_term(self.feature[at]), k)


def rank_feature_search(queries_ds, index_dir: str, feature_key: str = "turn_idx",
                        mode: str = "saturation", boost: float = 1.0,
                        pivot: float = 2.0, origin: float = 0.0,
                        scaling: float = 1.0, exponent: float = 1.0,
                        cfg: EngineConfig = DEFAULT_CONFIG):
    """rank_feature (saturation/log/sigmoid) or distance_feature (mode
    'distance') additive boosting over a docmap feature column."""
    return map_scorer(queries_ds, FeatureScorer, cfg, index_dir, feature_key, mode, boost, pivot,
                      origin, scaling, exponent, cfg.top_k)


# --- span_first ----------------------------------------------------------------


class SpanFirstScorer(Scorer):
    """ES ``span_first``: the wrapped span (a single term here — the
    canonical span_term form) must occur STRICTLY before position
    ``end``. Positions are stored sorted per doc, so the check is one
    vectorized gather of each candidate's FIRST occurrence — no per-doc
    loop. Survivors score as the plain term query (BM25)."""

    def __init__(self, index_dir: str, default_end: int = 2, default_top_k: int = 10):
        super().__init__(index_dir, default_top_k)
        self.default_end = default_end

    def hits(self, row: dict, k: int):
        end = int(row.get("end", self.default_end))
        terms = self.reader.analyzer(row["query_text"])
        if len(terms) != 1:
            raise ValueError("span_first wraps a single span_term")
        p = self.reader.load_postings(terms).get(terms[0])
        if p is None or p.doc_ids.size == 0:
            return None
        pos_docs, offsets, flat = self.reader.load_positions(terms[0])
        at = np.searchsorted(pos_docs, p.doc_ids.astype(pos_docs.dtype))
        first_pos = flat[offsets[at]]  # positions sorted per doc
        hit = first_pos < end
        return topk_desc(p.doc_ids[hit], (p.factors * p.idf)[hit], k)


def span_first_search(queries_ds, index_dir: str, cfg: EngineConfig = DEFAULT_CONFIG):
    """span_first over a positional index; queries carry (query_id,
    query_text, end[, top_k])."""
    return map_scorer(queries_ds, SpanFirstScorer, cfg, index_dir, 2, cfg.top_k)


# --- match_bool_prefix -----------------------------------------------------------


class BoolPrefixScorer(Scorer):
    """ES ``match_bool_prefix``: every token is a ``should`` term query
    except the LAST, which becomes a prefix query. Lucene rewrites the
    prefix clause constant-score (MultiTermQuery CONSTANT_SCORE rewrite),
    so a doc scores Σ BM25 over the complete terms it contains + 1.0 if
    it matches ANY dictionary expansion of the prefix; candidates are the
    union of both clause sets. Specs (complete terms + expansion lists)
    ship in the constructor — the dictionary scan happens once."""

    def __init__(self, index_dir: str, specs: dict[str, tuple[list[str], list[str]]],
                 default_top_k: int = 10):
        super().__init__(index_dir, default_top_k)
        self.specs = specs

    def preload(self, rows: list[dict]) -> None:
        self.reader.load_postings(sorted(
            {t for row in rows for part in self.specs[row["query_id"]] for t in part}))

    def hits(self, row: dict, k: int):
        comp, alts = self.specs[row["query_id"]]
        comp_postings = self.reader.load_postings(sorted(set(comp)))
        alt_postings = self.reader.load_postings(sorted(set(alts)))
        docs, scores = score_all(list(comp_postings.values()))
        if alt_postings:
            alt_union = np.unique(
                np.concatenate([p.doc_ids for p in alt_postings.values()])
            )
            both = np.union1d(docs, alt_union)
            new_scores = np.zeros(both.size, dtype=np.float64)
            new_scores[np.searchsorted(both, docs)] = scores
            new_scores[np.searchsorted(both, alt_union)] += 1.0
            docs, scores = both, new_scores
        return topk_desc(docs, scores, k)


def match_bool_prefix(queries: dict[str, str], index_dir: str,
                      cfg: EngineConfig = DEFAULT_CONFIG, top_k: int = 10):
    """match_bool_prefix: bool-OR term scoring with a constant-score
    prefix clause on the last token (expanded against the dictionary
    once, the same scan as wildcard)."""
    return _map_prefix_scorer(BoolPrefixScorer, queries, index_dir, cfg, top_k)


# --- span_not ----------------------------------------------------------------


class SpanNotScorer(Scorer):
    """ES ``span_not`` (symmetric dist form): the doc matches when SOME
    occurrence of the include term has NO exclude-term occurrence within
    ``dist`` positions (``pre = post = dist``). Docs without the exclude
    term at all pass with one vectorized membership probe; only docs
    containing BOTH terms walk their (tiny, per-doc) position lists.
    Survivors score as the plain include-term query (BM25)."""

    text_cols = ("query_text", "exclude")

    def __init__(self, index_dir: str, default_dist: int = 1, default_top_k: int = 10):
        super().__init__(index_dir, default_top_k)
        self.default_dist = default_dist

    def hits(self, row: dict, k: int):
        dist = int(row.get("dist", self.default_dist))
        inc = self.reader.analyzer(row["query_text"])
        exc = self.reader.analyzer(row["exclude"])
        if len(inc) != 1 or len(exc) != 1:
            raise ValueError("span_not wraps single include/exclude span_terms")
        p = self.reader.load_postings(inc).get(inc[0])
        if p is None or p.doc_ids.size == 0:
            return None
        pe = self.reader.load_postings(exc).get(exc[0])
        cand = p.doc_ids
        scores = p.factors * p.idf
        if pe is None or pe.doc_ids.size == 0:
            hit = np.ones(cand.size, dtype=bool)
        else:
            both = sorted_member(pe.doc_ids, cand)
            hit = ~both  # no exclude term anywhere → clean match
            pos = {t: self.reader.load_positions(t) for t in (inc[0], exc[0])}
            for j in np.flatnonzero(both):
                pos_i = clause_positions(pos, inc, cand[j])
                pos_e = clause_positions(pos, exc, cand[j])
                # nearest exclude occurrence per include position
                at = np.searchsorted(pos_e, pos_i)
                lo = pos_e[np.maximum(at - 1, 0)]
                hi = pos_e[np.minimum(at, pos_e.size - 1)]
                near = np.minimum(np.abs(pos_i - lo), np.abs(pos_i - hi))
                hit[j] = bool((near > dist).any())
        return topk_desc(cand[hit], scores[hit], k)


def span_not_search(queries_ds, index_dir: str, cfg: EngineConfig = DEFAULT_CONFIG):
    """span_not over a positional index; queries carry (query_id,
    query_text, exclude, dist[, top_k])."""
    return map_scorer(queries_ds, SpanNotScorer, cfg, index_dir, 1, cfg.top_k)


# --- span_containing / span_within ---------------------------------------------


class SpanContainScorer(Scorer):
    """ES ``span_containing`` / ``span_within``: big = a 2-term ordered
    span_near (per-gap slop, this repo's in-order rule), little = a
    single span_term; the doc matches iff SOME big window [pa, pb]
    encloses a little occurrence (boundaries inclusive — Lucene's
    within()/containing() contract, the same predicate both ways).
    The two variants differ only in which span SCORES: containing
    emits the big span (BM25 over the pair), within emits the little
    span (BM25 over the single term). Candidates are the 3-way posting
    intersection; only they walk their per-doc position lists, and the
    per-``pa`` window test is vectorized (largest in-window ``pb``
    maximizes the enclosure, so one searchsorted pair decides)."""

    text_cols = ("query_text", "little")

    def __init__(self, index_dir: str, mode: str = "containing",
                 default_slop: int = 2, default_top_k: int = 10):
        if mode not in ("containing", "within"):
            raise ValueError("mode must be 'containing' or 'within'")
        super().__init__(index_dir, default_top_k)
        self.mode = mode
        self.default_slop = default_slop

    def hits(self, row: dict, k: int):
        slop = int(row.get("slop", self.default_slop))
        big = self.reader.analyzer(row["query_text"])
        lit = self.reader.analyzer(row["little"])
        if len(big) != 2 or len(lit) != 1:
            raise ValueError(
                "span_containing/within: big is a 2-term span_near, "
                "little a single span_term"
            )
        terms = [big[0], big[1], lit[0]]
        postings = self.reader.load_postings(sorted(set(terms)))
        cand = clause_candidates(postings, [[t] for t in terms])
        if cand.size == 0:
            return None
        pos = {t: self.reader.load_positions(t) for t in postings}
        hit = np.zeros(cand.size, dtype=bool)
        for j, d in enumerate(cand):
            pos_a, pos_b, pos_lit = (clause_positions(pos, [t], d) for t in terms)
            # largest in-window pos_b per pos_a: pos_b in [pos_a+1, pos_a+slop+1]
            hi_at = np.searchsorted(pos_b, pos_a + slop + 1, side="right") - 1
            safe = np.maximum(hi_at, 0)
            pb_max = pos_b[safe]
            valid = (hi_at >= 0) & (pb_max > pos_a)
            c_in = (
                np.searchsorted(pos_lit, pb_max, side="right")
                - np.searchsorted(pos_lit, pos_a, side="left")
            ) > 0
            hit[j] = bool((valid & c_in).any())
        m = cand[hit]
        score_terms = big if self.mode == "containing" else lit
        return topk_desc(m, score_at([postings[t] for t in score_terms], m), k)


def span_contain_search(queries_ds, index_dir: str, mode: str = "containing",
                        cfg: EngineConfig = DEFAULT_CONFIG):
    """span_containing/span_within over a positional index; queries carry
    (query_id, query_text = the 2-term big span, little, slop[, top_k])."""
    return map_scorer(queries_ds, SpanContainScorer, cfg, index_dir, mode, 2, cfg.top_k)


# --- rank_eval ---------------------------------------------------------------


class RankEvalScorer(Scorer):
    """ES ``_rank_eval`` API: run each query through the standard BM25
    ranking and score the top-``k`` against a deterministic relevance
    judgment — here a doc is RELEVANT iff it contains EVERY query term
    (AND semantics; the judgment set is the intersection of the terms'
    posting doc lists, so both engine and oracle derive it exactly).
    Emits one metrics row per query: precision@k, MRR@k (reciprocal rank
    of the first relevant hit in the window, 0 when none) and binary
    nDCG@k (DCG = Σ 1/log2(rank+1) over relevant top-k hits, IDCG over
    min(|relevant|, k) ideal slots). Queries with no relevant docs score
    0 everywhere — never an error."""

    columns = {"query_id": str, "n_relevant": np.int64, "precision_at_k": np.float64,
               "mrr": np.float64, "ndcg": np.float64}

    def __init__(self, index_dir: str, k: int = 10):
        super().__init__(index_dir)
        self.k = int(k)

    def hits(self, row: dict, k: int):
        terms = sorted(set(self.reader.analyzer(row["query_text"])))
        postings = self.reader.load_postings(terms)
        docs, scores = score_all(list(postings.values()))
        top, _ = topk_desc(docs, scores, self.k)
        rel = clause_candidates(postings, [[t] for t in terms])
        n_rel = int(rel.size)
        hit_ranks = 1 + np.flatnonzero(sorted_member(rel, top))  # 1-based
        prec = hit_ranks.size / float(self.k)
        mrr = 1.0 / float(hit_ranks[0]) if hit_ranks.size else 0.0
        dcg = float((1.0 / np.log2(hit_ranks + 1.0)).sum()) if hit_ranks.size else 0.0
        ideal = np.arange(1, min(n_rel, self.k) + 1, dtype=np.float64)
        idcg = float((1.0 / np.log2(ideal + 1.0)).sum()) if ideal.size else 0.0
        ndcg = round(dcg / idcg, 4) if idcg > 0.0 else 0.0
        return [n_rel], [round(prec, 4)], [round(mrr, 4)], [ndcg]


def rank_eval(queries_ds, index_dir: str, k: int = 10,
              cfg: EngineConfig = DEFAULT_CONFIG):
    """_rank_eval over (query_id, query_text): one metrics row per query."""
    return map_scorer(queries_ds, RankEvalScorer, cfg, index_dir, k)


# --- Lucene boolean query grammar ------------------------------------------------


def parse_lucene(q: str):
    """Recursive-descent parser for the Lucene boolean query subset the
    reference's query assembler emits (AND / OR / NOT, parentheses,
    "quoted phrases", bare terms; reference clause building:
    elasticsearch_adapters.py bool-query assembly):

        expr    := and_expr (OR and_expr)*
        and_expr:= unary (AND unary)*
        unary   := NOT unary | primary
        primary := '(' expr ')' | '"phrase words"' | term

    Returns a nested AST of ('or', [..]) / ('and', [..]) / ('not', x) /
    ('phrase', [tokens]) / ('term', token). Raises on dangling
    operators or unbalanced parens."""
    toks: list[str] = []
    i, n = 0, len(q)
    while i < n:
        ch = q[i]
        if ch.isspace():
            i += 1
        elif ch in "()":
            toks.append(ch)
            i += 1
        elif ch == '"':
            j = q.find('"', i + 1)
            if j < 0:
                raise ValueError("unterminated phrase quote")
            toks.append('"' + q[i + 1: j])
            i = j + 1
        else:
            j = i
            while j < n and not q[j].isspace() and q[j] not in '()"':
                j += 1
            toks.append(q[i:j])
            i = j
    pos = 0

    def peek():
        return toks[pos] if pos < len(toks) else None

    def eat(t=None):
        nonlocal pos
        if pos >= len(toks) or (t is not None and toks[pos] != t):
            raise ValueError(f"expected {t!r} at token {pos} of {q!r}")
        pos += 1
        return toks[pos - 1]

    def primary():
        t = peek()
        if t is None:
            raise ValueError(f"unexpected end of query {q!r}")
        if t == "(":
            eat("(")
            node = expr()
            eat(")")
            return node
        if t.startswith('"'):
            eat()
            return ("phrase", t[1:].lower().split())
        if t in ("AND", "OR", "NOT", ")"):
            raise ValueError(f"unexpected {t!r} in {q!r}")
        eat()
        return ("term", t.lower())

    def unary():
        if peek() == "NOT":
            eat("NOT")
            return ("not", unary())
        return primary()

    def and_expr():
        parts = [unary()]
        while peek() == "AND":
            eat("AND")
            parts.append(unary())
        return parts[0] if len(parts) == 1 else ("and", parts)

    def expr():
        parts = [and_expr()]
        while peek() == "OR":
            eat("OR")
            parts.append(and_expr())
        return parts[0] if len(parts) == 1 else ("or", parts)

    node = expr()
    if pos != len(toks):
        raise ValueError(f"trailing tokens in {q!r}")
    return node


def _ast_terms(node, positive: bool = True) -> set[str]:
    """All leaf terms under the node that are in POSITIVE (non-negated)
    position — the Lucene scoring set."""
    kind = node[0]
    if kind == "term":
        return {node[1]} if positive else set()
    if kind == "phrase":
        return set(node[1]) if positive else set()
    if kind == "not":
        return _ast_terms(node[1], not positive) if not positive else set()
    return set().union(*(_ast_terms(c, positive) for c in node[1]))


def _ast_all_terms(node) -> set[str]:
    kind = node[0]
    if kind == "term":
        return {node[1]}
    if kind == "phrase":
        return set(node[1])
    if kind == "not":
        return _ast_all_terms(node[1])
    return set().union(*(_ast_all_terms(c) for c in node[1]))


class LuceneScorer(Scorer):
    """Evaluate a parsed Lucene boolean AST by SET ALGEBRA over sorted
    posting doc-id arrays: term → postings, phrase → positional
    adjacency, OR → union, AND → intersection with NOT children applied
    as set DIFFERENCE (`a AND NOT b` never materializes a complement —
    the Lucene rule that a query cannot be purely negative falls out:
    top-level / OR-context NOT raises). Matching docs score the BM25 sum
    of every positive leaf term they contain (Lucene: matched clauses
    contribute)."""

    def __init__(self, index_dir: str, default_top_k: int = 10):
        super().__init__(index_dir, default_top_k)

    def _docs(self, node) -> np.ndarray:
        kind = node[0]
        if kind == "term":
            p = self.reader.load_postings([node[1]]).get(node[1])
            return p.doc_ids if p is not None else np.empty(0, dtype=np.uint64)
        if kind == "phrase":
            return near_match(self.reader, node[1])
        if kind == "or":
            out = np.empty(0, dtype=np.uint64)
            for c in node[1]:
                if c[0] == "not":
                    raise ValueError("purely negative OR clause is not satisfiable")
                out = np.union1d(out, self._docs(c))
            return out
        if kind == "and":
            pos = [c for c in node[1] if c[0] != "not"]
            neg = [c[1] for c in node[1] if c[0] == "not"]
            if not pos:
                raise ValueError("purely negative AND clause is not satisfiable")
            acc = self._docs(pos[0])
            for c in pos[1:]:
                acc = np.intersect1d(acc, self._docs(c))
            for c in neg:
                acc = np.setdiff1d(acc, self._docs(c))
            return acc
        raise ValueError("top-level NOT is not satisfiable")

    def preload(self, rows: list[dict]) -> None:
        self.reader.load_postings(sorted(
            {t for row in rows for t in _ast_all_terms(parse_lucene(row["query_text"]))}))

    def hits(self, row: dict, k: int):
        ast = parse_lucene(row["query_text"])
        m = np.asarray(self._docs(ast), dtype=np.uint64)
        if m.size == 0:
            return None
        postings = self.reader.load_postings(sorted(_ast_terms(ast)))
        return topk_desc(m, score_at(list(postings.values()), m), k)


def lucene_search(queries_ds, index_dir: str, cfg: EngineConfig = DEFAULT_CONFIG):
    """Boolean-grammar search; queries carry (query_id, query_text[, top_k])."""
    return map_scorer(queries_ds, LuceneScorer, cfg, index_dir, cfg.top_k)


# --- intervals query ---------------------------------------------------------


class IntervalsScorer(Scorer):
    """ES ``intervals`` query, the ordered ``all_of`` form with nested
    ``any_of`` leaves: the doc matches iff there exist positions
    p1 < p2 < … < pn, one per clause IN ORDER (an ``any_of`` clause
    matches at any of its terms' positions), with TOTAL slack
    ``pn − p1 + 1 − n ≤ max_gaps`` (the ES all_of gap rule — a budget
    over the whole interval, unlike span_near's per-step slop).
    Minimality: for each start p1 the greedy smallest-next chain gives
    the narrowest interval, so scanning p1 ascending decides existence
    in O(total positions · n) per candidate. Survivors score the BM25
    sum of the clause terms they contain. Specs ship in the
    constructor: ``{query_id: (max_gaps, [clause, ...])}`` where a
    clause is a list of alternative terms (len 1 = plain term)."""

    def __init__(self, index_dir: str, specs: dict, default_top_k: int = 10):
        super().__init__(index_dir, default_top_k)
        self.specs = specs

    def preload(self, rows: list[dict]) -> None:
        self.reader.load_postings(sorted(
            {t for row in rows for c in self.specs[row["query_id"]][1] for t in c}))

    def hits(self, row: dict, k: int):
        max_gaps, clauses = self.specs[row["query_id"]]
        postings = self.reader.load_postings(sorted({t for c in clauses for t in c}))
        cand = clause_candidates(postings, clauses)
        if cand.size == 0:
            return None
        pos = {t: self.reader.load_positions(t) for t in postings}
        widths = [_narrowest_all_of([clause_positions(pos, c, d) for c in clauses]) for d in cand]
        m = cand[np.array([w is not None and w - len(clauses) <= max_gaps for w in widths])]
        return topk_desc(m, score_at(list(postings.values()), m), k)


def _narrowest_all_of(plists: list[np.ndarray]) -> int | None:
    """Width of the narrowest interval p1 < p2 < … with pᵢ from
    ``plists[i]``, or None when there is none. From each start p1 the
    greedy smallest-next chain is the narrowest; once a start cannot
    complete a chain, no later start can."""
    best = None
    for p1 in plists[0]:
        prev = int(p1)
        for pl in plists[1:]:
            at = int(np.searchsorted(pl, prev + 1))
            if at == pl.size:
                return best
            prev = int(pl[at])
        best = prev - int(p1) + 1 if best is None else min(best, prev - int(p1) + 1)
    return best


def intervals_search(queries_ds, index_dir: str, specs: dict,
                     cfg: EngineConfig = DEFAULT_CONFIG):
    """intervals all_of(ordered, max_gaps) with any_of leaves."""
    return map_scorer(queries_ds, IntervalsScorer, cfg, index_dir, specs, cfg.top_k)
