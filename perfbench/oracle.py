"""Pure-Python BM25 oracle for the benchmark's correctness checks.

Deliberately independent of the engine: its own tokenizer (the ``simple``
analyzer's rule: NFC, lower-case, split on runs of characters that are
not letters or digits), a dict-of-dicts inverted index, Elasticsearch's
BM25 (k1=1.2, b=0.75, idf = ln(1 + (N - df + 0.5) / (df + 0.5))) and the
engine's tie-break (score desc, doc id asc).

Deleted documents follow Lucene's semantics: while tombstones are
pending, corpus statistics still count the deleted documents and only
the results exclude them; after compaction the statistics cover the
surviving documents alone.
"""

from __future__ import annotations

import math
import re
import unicodedata
from collections import Counter, defaultdict

_SPLIT = re.compile(r"[\W_]+")
SCORE_TOL = 1e-9
K1, B = 1.2, 0.75           # the engine's fixed BM25 parameters


def tokenize(text: str) -> list[str]:
    return [t for t in _SPLIT.split(unicodedata.normalize("NFC", text).lower()) if t]


class Oracle:
    def __init__(self, texts: list[str]):
        self.postings: dict[str, dict[int, int]] = defaultdict(dict)
        self.dl: dict[int, int] = {}
        for doc, text in enumerate(texts):
            toks = tokenize(text)
            if not toks:
                continue
            self.dl[doc] = len(toks)
            for t, tf in Counter(toks).items():
                self.postings[t][doc] = tf

    def scores(self, query: str, deleted: frozenset = frozenset(),
               purged: bool = False) -> dict[int, float]:
        """BM25 score of every live document matching ``query``. ``purged``
        means the deletes were compacted away, so statistics exclude them."""
        if purged:
            live = [d for d in self.dl if d not in deleted]
            n = len(live)
            avgdl = sum(self.dl[d] for d in live) / n if n else 0.0
        else:
            n = len(self.dl)
            avgdl = sum(self.dl.values()) / n if n else 0.0
        scores: dict[int, float] = defaultdict(float)
        for t in sorted(set(tokenize(query))):
            plist = self.postings.get(t, {})
            if purged:
                plist = {d: tf for d, tf in plist.items() if d not in deleted}
            if not plist:
                continue
            df = len(plist)
            idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
            for d, tf in plist.items():
                if d in deleted:
                    continue
                denom = tf + K1 * (1 - B + B * self.dl[d] / avgdl)
                scores[d] += idf * tf * (K1 + 1) / denom
        return dict(scores)


def ranking_mismatch(got: list[tuple[int, float]], scores: dict[int, float], k: int) -> str | None:
    """None when ``got`` is the oracle's top-k: rank-identical, with every
    score within 1e-9. Documents whose oracle scores lie within 1e-9 of each
    other are tied and may come in either order, or either side of the
    cut-off."""
    want = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
    if len(got) != len(want):
        return f"{len(got)} results, oracle has {len(want)}"
    if len({d for d, _ in got}) != len(got):
        return "duplicate doc ids in results"
    for i, ((doc, score), (_, want_score)) in enumerate(zip(got, want)):
        if doc not in scores:
            return f"rank {i + 1}: doc {doc} does not match the query or is deleted"
        if abs(score - scores[doc]) > SCORE_TOL or abs(score - want_score) > SCORE_TOL:
            return (f"rank {i + 1}: doc {doc} score {score!r}, oracle scores it "
                    f"{scores[doc]!r} and ranks {want_score!r} here")
    return None
