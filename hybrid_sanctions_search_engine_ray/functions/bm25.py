"""BM25 scoring math + vectorized top-k kernels.

Parameters are the Elasticsearch defaults the reference runs with
(no ``similarity`` override in any template — reference:
templates/elasticsearch/*.json, src/ai_service/layers/search/
elasticsearch_index_manager.py:125-300; see BASELINE.md):

    idf(t)      = ln(1 + (N - df + 0.5) / (df + 0.5))
    score(q, d) = Σ_t idf(t) · tf·(k1+1) / (tf + k1·(1 - b + b·dl/avgdl))

with k1 = 1.2, b = 0.75. Ties break (score desc, doc_id asc) — the
explicit tie-break rule SURVEY.md §7.4 requires (Elasticsearch breaks
ties by internal doc order; our rule is the deterministic analog).

Three kernels, rank-identical with scores agreeing to ~1 ulp (their
summation orders differ — tests verify ranks exactly and scores to
1e-6; anything needing exact-float score equality across calls, e.g.
search_after cursors, must stick to ONE kernel):

* :func:`score_taat` — exhaustive term-at-a-time accumulation, fully
  vectorized (np.unique + bincount). The correctness baseline.
* :func:`score_maxscore` — MaxScore partitioning (Turtle & Flood 1995):
  non-essential terms (those whose summed upper bounds cannot lift a
  doc past a threshold set once, from the highest-impact term alone)
  only contribute via direct lookups into candidate docs. It reads
  each term's overall max, never the per-block maxima. The PRODUCTION
  path (vectorized end-to-end).
* :func:`score_bmw` — the literal Block-Max WAND pivot algorithm, kept
  as the sequential REFERENCE kernel documenting equivalence with the
  classical formulation (tie-safe pivot selection, shallow block
  bounds at the pivot).
"""

from __future__ import annotations

import numpy as np


def idf(n_docs: int, df: np.ndarray | int) -> np.ndarray | float:
    df = np.asarray(df, dtype=np.float64)
    out = np.log1p((n_docs - df + 0.5) / (df + 0.5))
    return float(out) if out.ndim == 0 else out


def tf_factor(tfs: np.ndarray, doclens: np.ndarray, k1: float, b: float, avgdl: float) -> np.ndarray:
    tf = tfs.astype(np.float64)
    dl = doclens.astype(np.float64)
    return tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * dl / avgdl))


def topk_desc(doc_ids: np.ndarray, scores: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-k by (score desc, doc_id asc), deterministic."""
    n = scores.size
    if n == 0:
        return doc_ids[:0], scores[:0]
    k = min(k, n)
    if n > 4 * k:
        part = np.argpartition(-scores, k - 1)[:k]
        # threshold at the EXACT k-th score: the old 2k overselect took
        # arbitrary sub-threshold entries, loosening thresh toward the
        # whole array and nullifying the partition (code-review r05);
        # `>= thresh` still keeps every boundary tie
        thresh = scores[part].min()
        cand = np.flatnonzero(scores >= thresh)
    else:
        cand = np.arange(n)
    order = np.lexsort((doc_ids[cand], -scores[cand]))[:k]
    sel = cand[order]
    return doc_ids[sel], scores[sel]


class TermPosting:
    """Decoded posting for one query term (possibly merged sub-segments)."""

    __slots__ = ("term", "idf", "doc_ids", "factors", "block_starts", "block_max")

    def __init__(self, term: str, term_idf: float, doc_ids: np.ndarray, factors: np.ndarray, block_size: int = 128):
        self.term = term
        self.idf = term_idf
        self.doc_ids = doc_ids
        self.factors = factors  # tf_factor values (idf-independent)
        self.block_starts = np.arange(0, doc_ids.size, block_size)
        self.block_max = (
            np.maximum.reduceat(factors, self.block_starts) * term_idf
            if doc_ids.size
            else np.empty(0, dtype=np.float64)
        )

    @property
    def max_score(self) -> float:
        return float(self.block_max.max()) if self.block_max.size else 0.0


_DENSE_TAAT_THRESHOLD = 1_000_000
# Dense accumulator allowed only while its allocation stays linear in the
# actual work: the doc-id space may be at most this many times the posting
# count. Gating on posting count alone is fatal at 10^9+ sparse doc ids —
# np.zeros(max_doc + 1) would allocate by ID SPACE, not by postings.
_DENSE_MAX_SPACE_RATIO = 4


def score_taat(postings: list[TermPosting], k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exhaustive term-at-a-time scoring: :func:`score_all`, then top-k."""
    docs, scores = score_all(postings)
    return topk_desc(docs, scores, k)


def score_all(postings: list[TermPosting]) -> tuple[np.ndarray, np.ndarray]:
    """Exhaustive candidate scoring (every doc matching ≥1 term), the
    shared accumulator behind :func:`score_taat` and cursor pagination
    (:func:`topk_desc_after`). Returns (doc_ids, scores) unranked.

    Two equivalent accumulators: sparse (np.unique + bincount — cheap for
    selective queries) and dense (a float array indexed by doc id with
    per-term scatter-adds — doc ids are unique WITHIN a posting, so
    ``scores[ids] += contrib`` is safe; ~5× faster when stop-word
    postings push total entries into the millions). The dense path is
    gated on DENSITY, not just posting count: allocation is bounded by
    ``_DENSE_MAX_SPACE_RATIO × total_postings`` floats, so a sparse
    billion-doc id space falls back to the sparse accumulator instead of
    allocating by id-space size."""
    if not postings:
        return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.float64)
    total = sum(p.doc_ids.size for p in postings)
    max_doc = max((int(p.doc_ids[-1]) for p in postings if p.doc_ids.size), default=0)
    if total >= _DENSE_TAAT_THRESHOLD and max_doc + 1 <= _DENSE_MAX_SPACE_RATIO * total:
        scores = np.zeros(max_doc + 1, dtype=np.float64)
        for p in postings:
            ids = p.doc_ids.astype(np.int64, copy=False)
            scores[ids] += p.factors * p.idf
        cand = np.flatnonzero(scores)
        return cand.astype(np.uint64), scores[cand]
    all_docs = np.concatenate([p.doc_ids for p in postings])
    all_contrib = np.concatenate([p.factors * p.idf for p in postings])
    uniq, inv = np.unique(all_docs, return_inverse=True)
    sums = np.bincount(inv, weights=all_contrib, minlength=uniq.size)
    return uniq, sums


def sorted_member(haystack: np.ndarray, needles: np.ndarray) -> np.ndarray:
    """Boolean mask: which needles occur in the SORTED haystack."""
    pos = np.searchsorted(haystack, needles)
    ok = pos < haystack.size
    ok[ok] = haystack[pos[ok]] == needles[ok]
    return ok


def score_at(postings: list[TermPosting], cand: np.ndarray) -> np.ndarray:
    """BM25 of each candidate doc: Σ idf·factor over the postings that
    hold it, added in the order the postings are given (so a caller
    that keeps its term order keeps its score bits)."""
    scores = np.zeros(cand.size, dtype=np.float64)
    for p in postings:
        hit = sorted_member(p.doc_ids, cand)
        scores[hit] += p.factors[np.searchsorted(p.doc_ids, cand[hit])] * p.idf
    return scores


def topk_desc_after(doc_ids: np.ndarray, scores: np.ndarray, k: int,
                    cursor_score: float, cursor_doc: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-k of the rows STRICTLY AFTER the cursor in (score desc,
    doc_id asc) order — the ES ``search_after`` tuple filter. The cursor
    score must be the exact float previously returned (scoring is
    deterministic, so page boundaries are stable across calls)."""
    after = (scores < cursor_score) | (
        (scores == cursor_score) & (doc_ids.astype(np.int64) > cursor_doc)
    )
    return topk_desc(doc_ids[after], scores[after], k)


def score_maxscore(postings: list[TermPosting], k: int) -> tuple[np.ndarray, np.ndarray]:
    """MaxScore; returns exactly what score_taat returns.

    Terms are sorted by max_score ascending; the shortest suffix of
    "essential" terms whose upper bounds can beat the threshold θ
    generates candidates exhaustively; prefix terms only patch scores of
    existing candidates via searchsorted lookups over their whole
    posting. θ is set once and never raised; block maxima are not read.
    """
    if not postings:
        return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.float64)
    ps = sorted(postings, key=lambda p: p.max_score)
    if len(ps) == 1:
        return score_taat(ps, k)
    ubs = np.array([p.max_score for p in ps])
    prefix_ub = np.cumsum(ubs)  # prefix_ub[i] = Σ upper bounds of ps[:i+1]

    # Cheap initial threshold θ: the k-th best SINGLE-term contribution of
    # the highest-impact term. Partial scores lower-bound full scores, so
    # θ ≤ final k-th best score — a valid MaxScore threshold.
    top = ps[-1]
    contrib = top.factors * top.idf
    if contrib.size >= k:
        theta = float(np.partition(contrib, contrib.size - k)[contrib.size - k])
    else:
        theta = 0.0
    # Essential suffix ps[j:]: docs containing none of them score
    # ≤ prefix_ub[j-1] < θ ⇒ cannot reach the top-k.
    j = int(np.searchsorted(prefix_ub, theta, side="left"))
    if j == 0:
        return score_taat(ps, k)
    essential, nonessential = ps[j:], ps[:j]

    cand = np.unique(np.concatenate([p.doc_ids for p in essential]))
    cand_scores = np.zeros(cand.size, dtype=np.float64)
    for p in essential:
        pos = np.searchsorted(cand, p.doc_ids)
        cand_scores[pos] += p.factors * p.idf
    # Non-essential terms: lookup-only patches into the candidate set.
    for p in nonessential:
        if p.doc_ids.size == 0:
            continue
        pos = np.searchsorted(p.doc_ids, cand)
        safe = np.minimum(pos, p.doc_ids.size - 1)
        hit = (pos < p.doc_ids.size) & (p.doc_ids[safe] == cand)
        cand_scores[hit] += p.factors[pos[hit]] * p.idf
    return topk_desc(cand, cand_scores, k)


def score_bmw(postings: list[TermPosting], k: int) -> tuple[np.ndarray, np.ndarray]:
    """Block-Max WAND (Ding & Suel SIGIR'11) — the literal DAAT pivot
    algorithm, kept as the REFERENCE kernel: rank-identical to
    :func:`score_taat` (tests/test_bm25.py), it documents equivalence
    with the classical formulation while :func:`score_maxscore` remains
    the production path (its candidate generation and block skipping are
    numpy-vectorized; BMW's pivot loop is inherently sequential and a
    Python-level doc-at-a-time loop has no place in a hot stage).

    Mechanics: cursors sorted by current doc id; the pivot is the first
    doc where the running sum of term upper bounds exceeds θ (the k-th
    best score so far) — the WAND invariant makes every doc before the
    pivot unbeatable. The per-cursor BLOCK maxima then refine the pivot's
    own bound: when even the block-local sum cannot beat θ the pivot is
    skipped without scoring (the conservative skip — past the pivot doc
    only — keeps the kernel obviously correct; deeper boundary skips are
    an optimization this reference variant deliberately omits).
    """
    if not postings:
        return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.float64)
    import heapq

    ps = [p for p in postings if p.doc_ids.size]
    if not ps:
        return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.float64)
    pos = [0] * len(ps)
    ubs = [p.max_score for p in ps]
    heap: list[tuple[float, int]] = []  # (score, -doc): top-k min-heap

    def drop_dead() -> bool:
        nonlocal ps, pos, ubs
        keep = [i for i in range(len(ps)) if pos[i] < ps[i].doc_ids.size]
        if len(keep) != len(ps):
            ps = [ps[i] for i in keep]
            pos = [pos[i] for i in keep]
            ubs = [ubs[i] for i in keep]
        return bool(ps)

    while ps:
        theta = heap[0][0] if len(heap) >= k else -1.0
        order = sorted(range(len(ps)), key=lambda i: int(ps[i].doc_ids[pos[i]]))
        acc = 0.0
        pivot_idx = -1
        for j, i in enumerate(order):
            acc += ubs[i]
            # >= not >: a doc whose bound EQUALS θ can still tie the
            # k-th score and win on the doc-id tie-break
            if acc >= theta:
                pivot_idx = j
                break
        if pivot_idx < 0:
            break  # no remaining doc can beat θ
        pivot_doc = int(ps[order[pivot_idx]].doc_ids[pos[order[pivot_idx]]])
        # extend through ties: every cursor sitting ON the pivot doc can
        # contribute to it and must count in the block bound below
        while (pivot_idx + 1 < len(order)
               and int(ps[order[pivot_idx + 1]].doc_ids[pos[order[pivot_idx + 1]]]) == pivot_doc):
            pivot_idx += 1
        first_doc = int(ps[order[0]].doc_ids[pos[order[0]]])

        def block_max_for_pivot(i: int) -> float:
            # SHALLOW advance: bound the pivot doc by the max of the
            # block that would CONTAIN it in this cursor's list (the
            # cursor's current block understates the bound when the
            # pivot lies blocks ahead — the classic BMW refinement)
            p = ps[i]
            j = int(np.searchsorted(p.doc_ids, pivot_doc, side="left"))
            if j >= p.doc_ids.size:
                return 0.0  # no doc ≥ pivot: contributes nothing to it
            b = int(np.searchsorted(p.block_starts, j, side="right")) - 1
            return float(p.block_max[b])

        block_sum = sum(block_max_for_pivot(i) for i in order[: pivot_idx + 1])
        if block_sum < theta:  # strict: equal bound may tie and win on id
            # block maxima prove the pivot can't win: skip it unscored —
            # advance the largest-bound preceding cursor past the pivot
            adv = max(order[: pivot_idx + 1], key=lambda i: ubs[i])
            p = ps[adv]
            pos[adv] = max(
                int(np.searchsorted(p.doc_ids, pivot_doc + 1, side="left")), pos[adv] + 1
            )
            if not drop_dead():
                break
            continue
        if first_doc == pivot_doc:
            # all cursors before the pivot sit ON it: full evaluation
            score = 0.0
            for i in range(len(ps)):
                p = ps[i]
                j = int(np.searchsorted(p.doc_ids, pivot_doc, side="left"))
                if j < p.doc_ids.size and int(p.doc_ids[j]) == pivot_doc:
                    score += float(p.factors[j]) * p.idf
            # tie rule (score desc, doc_id asc): with equal scores the
            # SMALLER doc must win, so the heap orders by (score, -doc)
            item = (score, -pivot_doc)
            if len(heap) < k:
                heapq.heappush(heap, item)
            elif item > heap[0]:
                heapq.heapreplace(heap, item)
            for i in range(len(ps)):
                p = ps[i]
                nxt = int(np.searchsorted(p.doc_ids, pivot_doc + 1, side="left"))
                pos[i] = max(pos[i], nxt)
            if not drop_dead():
                break
        else:
            # move the largest-bound cursor STRICTLY BEFORE the pivot up
            # to it (a cursor already ON the pivot doc must not advance —
            # that would pass a live doc unevaluated and break the WAND
            # invariant; one strictly-before cursor always exists here
            # because first_doc != pivot_doc)
            before = [i for i in order[:pivot_idx]
                      if int(ps[i].doc_ids[pos[i]]) < pivot_doc]
            adv = max(before, key=lambda i: ubs[i])
            p = ps[adv]
            pos[adv] = int(np.searchsorted(p.doc_ids, pivot_doc, side="left"))
            if not drop_dead():
                break
    out = sorted(heap, key=lambda it: (-it[0], -it[1]))
    docs = np.array([-d for _, d in out], dtype=np.uint64)
    scores = np.array([s for s, _ in out], dtype=np.float64)
    return docs, scores
