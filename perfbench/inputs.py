"""Seeded benchmark inputs: the transcript corpus, the query mix and the
delete set. The same seed gives the same inputs; the engine sees only
the generated files and query strings."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from perfbench.oracle import Oracle

HOT_HEAD = 40               # top-df terms, all above the engine's salting cut
MID_DF = (0.001, 0.015)     # df share of mid-frequency terms (one partition each)
HOT_SHARE, RARE_SHARE = 0.2, 0.1   # of query terms; the rest are mid-frequency
OOV_SHARE = 0.05            # queries made only of out-of-vocabulary terms
DELETE_SHARE = 0.05         # of doc ids, deleted by every workload
TOP_K = 50


@dataclass
class Corpus:
    path: str
    texts: list[str]          # index == doc id (sorted-shard row order)
    text_bytes: int


def make_corpus(work_dir: str, seed: int, n_convs: int) -> Corpus:
    """Generate (or reuse, when this seed's corpus already exists) the
    corpus with the engine's own seeded generator, and read its texts
    back in doc-id order: ``build_index(assume_sorted=True)`` numbers rows
    in lexicographic shard-file order."""
    import pyarrow.parquet as pq

    from hybrid_sanctions_search_engine_ray.sources.transcripts import generate_transcripts

    path = os.path.join(work_dir, f"corpus-{n_convs}-{seed}")
    generate_transcripts(path, n_convs=n_convs, seed=seed, shard_convs=max(32, n_convs // 4))
    files = sorted(f for f in os.listdir(path) if f.endswith(".parquet"))
    texts: list[str] = []
    for f in files:
        texts.extend(pq.read_table(os.path.join(path, f), columns=["text"])["text"].to_pylist())
    return Corpus(path, texts, sum(len(t.encode()) for t in texts))


def _split(total: int, shares: list[float]) -> list[int]:
    """Whole counts summing to ``total`` in proportion to ``shares``
    (largest remainder)."""
    raw = [total * x / sum(shares) for x in shares]
    counts = [int(r) for r in raw]
    for i in sorted(range(len(raw)), key=lambda i: counts[i] - raw[i])[:total - sum(counts)]:
        counts[i] += 1
    return counts


def make_queries(oracle: Oracle, seed: int, n: int) -> list[dict]:
    """``n`` queries of 1–4 terms drawn by the oracle's document
    frequencies: ~20% of the terms from the hot head, ~10% from the rare
    tail, the rest mid-frequency; 5% of the queries are out-of-vocabulary
    and match nothing.

    The mix is stratified, not sampled: every seed gets the same number of
    queries of each length and of each hot-term count (the binomial shares
    of ``HOT_SHARE``), and only the terms themselves and the order vary.
    A cold query's cost is set by the partition files it reads (one per
    term, about nine per hot term), so a sampled mix would move the
    latency median between those clusters from seed to seed."""
    df = {t: len(p) for t, p in oracle.postings.items()}
    n_docs = len(oracle.dl)
    ranked = [t for t, _ in sorted(df.items(), key=lambda kv: (-kv[1], kv[0]))]
    hot = ranked[:HOT_HEAD]
    mid = [t for t in ranked if MID_DF[0] * n_docs <= df[t] <= MID_DF[1] * n_docs]
    rare = [t for t in ranked if df[t] < MID_DF[0] * n_docs]
    # a tiny (smoke) corpus has no df tail: fall back to what exists
    mid = mid or ranked[HOT_HEAD:] or hot
    rare = rare or mid
    rng = np.random.default_rng([seed, 1])
    n_oov = round(n * OOV_SHARE)
    texts = [" ".join(f"zzoov{int(rng.integers(10**6))}x" for _ in range(1 + i % 4))
             for i in range(n_oov)]
    for length, group in zip((1, 2, 3, 4), _split(n - n_oov, [1, 1, 1, 1])):
        by_hot = _split(group, [math.comb(length, k) * HOT_SHARE**k * (1 - HOT_SHARE)**(length - k)
                                for k in range(length + 1)])
        for k_hot, count in enumerate(by_hot):
            for _ in range(count):
                terms = [hot[int(rng.integers(len(hot)))] for _ in range(k_hot)]
                for _ in range(length - k_hot):
                    pool = rare if rng.random() < RARE_SHARE / (1 - HOT_SHARE) else mid
                    terms.append(pool[int(rng.integers(len(pool)))])
                texts.append(" ".join(terms))
    order = rng.permutation(len(texts))
    return [{"query_id": f"q{i:06d}", "query_text": texts[j], "top_k": TOP_K}
            for i, j in enumerate(order)]


def delete_ids(n_docs: int, seed: int) -> list[int]:
    rng = np.random.default_rng([seed, 2])
    return sorted(int(d) for d in rng.choice(n_docs, int(n_docs * DELETE_SHARE), replace=False))


def oracle_sample(queries: list[dict], seed: int, n: int) -> list[dict]:
    """Seeded sample of queries checked against the oracle, with at least
    one out-of-vocabulary query when the mix has one."""
    rng = np.random.default_rng([seed, 3])
    idx = sorted(int(i) for i in rng.choice(len(queries), min(n, len(queries)), replace=False))
    sample = [queries[i] for i in idx]
    oov = next((q for q in queries if q["query_text"].startswith("zzoov")), None)
    if oov is not None and oov not in sample:
        sample.append(oov)
    return sample
