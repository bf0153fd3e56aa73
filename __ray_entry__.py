"""Driver contract for the graft builder (Ray Data target).

Ray is initialised by the driver BEFORE this module is imported: nothing
here (or in the library) calls ``ray.init()`` / ``ray.shutdown()``.

Each ``queries()`` entry has a matching ``oracle_sql()`` ANSI-SQL twin
(DuckDB, same parquet views) unless the operator is inherently
non-SQL-expressible (MinHash-LSH, SimHash, fingerprints, IVF-ANN) —
those get the driver's rows-only check and are covered by pytest
oracles instead.

The transcripts table (the engine's input shape, per input_hint) is
derived deterministically from ``documents`` by the pure row mapping in
``sources/transcripts.py::documents_batch_to_transcripts``; its SQL
twin is ``TRANSCRIPTS_CTE`` below. Keep the two in lockstep.
"""

from __future__ import annotations

import glob
import os
import shutil
from collections.abc import Callable
from typing import Any

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

# --- BM25 golden query set (terms drawn from the documents vocabulary) ------

BM25_QUERIES: dict[str, str] = {
    "q01": "spark join filter",
    "q02": "window stream",
    "q03": "customer table scan",
    "q04": "merge sort batch group",
    "q05": "the data",
    "q06": "vector hash agg",
    "q07": "slow query order",
    "q08": "zzzmissing",
    "q09": "key value part",
    "q10": "fast small big line",
}
BM25_TOP_K = 10
_K1, _B = 1.2, 0.75

# Typo'd queries for the char-3-gram (fuzzy lexical) tier — each misspells
# vocabulary words; the trigram field must still retrieve the right docs.
NGRAM_QUERIES: dict[str, str] = {
    "f01": "sprak jion",
    "f02": "custmer tabel scan",
    "f03": "window streem",
    "f04": "fliter qurey",
    "f05": "vektor hash",
}

# Fuzzy vocabulary expansion inputs (typos of dictionary terms).
FUZZY_TERMS: list[str] = ["sprak", "custmer", "fliter", "streem", "vektor"]

# Autocomplete (edge-ngram) queries: partially-typed words; EVERY token
# must prefix-match some document word (reference edge_ngram field with
# operator "and" — elasticsearch_adapters.py:247-256).
PREFIX_QUERIES: dict[str, str] = {
    "p01": "spar",
    "p02": "custom tabl",
    "p03": "win",
    "p04": "zzzqq",          # zero-hit
    "p05": "merg sor",
}

# Bool-clause queries (ES bool/must/should/must_not semantics): doc must
# contain every must term, no must_not term; score = BM25 over must∪should.
BOOL_QUERIES: list[dict[str, str]] = [
    {"query_id": "b01", "must": "spark join", "should": "filter", "must_not": "window"},
    {"query_id": "b02", "must": "customer scan", "should": "", "must_not": ""},
    {"query_id": "b03", "must": "the", "should": "data stream", "must_not": "merge sort"},
    {"query_id": "b04", "must": "zzzmissing spark", "should": "", "must_not": ""},
    {"query_id": "b05", "must": "window", "should": "stream vector", "must_not": "the"},
]

# minimum_should_match queries: should-only disjunctions with a
# required distinct-match floor (the ES bool msm knob)
MSM_QUERIES: list[dict] = [
    {"query_id": "m01", "should": "spark join filter", "min_should_match": 2},
    {"query_id": "m02", "should": "vector hash window stream", "min_should_match": 3},
    {"query_id": "m03", "should": "customer scan", "min_should_match": 2},
    {"query_id": "m04", "should": "zzzmissing data", "min_should_match": 2},
]


# Multi-word queries for the word-shingle field (reference
# shingle_analyzer: 2-3 word shingles + unigrams) — adjacent-word
# matches outrank scattered-word matches without a positional index.
SHINGLE_QUERIES: dict[str, str] = {
    "s01": "customer table scan",
    "s02": "window stream",
    "s03": "merge sort batch",
    "s04": "slow query order",
    "s05": "key value part",
}

# multi_match queries (ES cross-FIELD combinator): one text scored
# against the word + shingle + char-trigram field indexes with per-field
# boosts. mm2 is typo'd — only the trigram field retrieves it; mm4 has
# adjacent words — the shingle field boosts contiguity.
MULTI_MATCH_QUERIES: dict[str, str] = {
    "mm1": "spark join filter",
    "mm2": "custmer tabel scan",
    "mm3": "window stream",
    "mm4": "merge sort batch",
    "mm5": "slow query order",
}
_MM_BOOSTS = (1.0, 0.6, 0.3)   # word, shingle, char3
_MM_TIE = 0.3

# Exact-phrase queries for the positional index (bigrams/trigrams drawn
# from the documents vocabulary; last one is a deliberate near-certain miss).
PHRASE_QUERIES: dict[str, str] = {
    "p01": "part filter",
    "p02": "customer join",
    "p03": "merge group",
    "p04": "window join",
    "p05": "slow key value zzz",
}

_RRF_K = 60
_POST_MIN_SCORE = 0.05
_POST_ROLES = ("assistant", "user")
_POST_BOOST_ROLE, _POST_BOOST = "user", 1.2

# Tiered escalation queries (reference's exact→lexical→fuzzy tier ladder,
# hybrid_search_service.py find_candidates): mix of phrase-hitting,
# word-only and typo-only queries.
TIERED_QUERIES: dict[str, str] = {
    "t01": "part filter",       # phrase tier hits
    "t02": "customer join",     # phrase tier hits
    "t03": "spark join filter", # word tier only (rarely contiguous)
    "t04": "vektor hash",       # typo: ngram tier only
    "t05": "zzzmissing",        # no tier
}
# weighted fusion params (reference: config/weights.json:41-50 shape)
_FUSE_W_LEX, _FUSE_W_NGRAM, _FUSE_SHARED = 0.65, 0.35, 0.15

# Wildcard queries (ES wildcard query, scoring_boolean rewrite): patterns
# expand against the term dictionary; last is a deliberate zero-match.
WILDCARD_QUERIES: dict[str, str] = {
    "w01": "cust*",
    "w02": "*ream",
    "w03": "fil?er",
    "w04": "sp*k",
    "w05": "zzz*q",
}

# Boosting queries (ES boosting query): positive BM25, negative-clause
# matches demoted by _NEG_BOOST; n04's negative never matches.
BOOSTING_QUERIES: list[dict[str, str]] = [
    {"query_id": "n01", "query_text": "customer table", "negative": "scan"},
    {"query_id": "n02", "query_text": "spark join", "negative": "window"},
    {"query_id": "n03", "query_text": "data", "negative": "the"},
    {"query_id": "n04", "query_text": "merge sort", "negative": "zzzmissing"},
]
_NEG_BOOST = 0.5

# Rescore queries (ES rescore): word-BM25 first pass, exact-phrase bonus
# re-ranks only the top _RESCORE_WINDOW hits.
RESCORE_QUERIES: dict[str, str] = {
    "r01": "part filter",
    "r02": "customer join",
    "r03": "merge group",
    "r04": "window stream",
    "r05": "slow query order",
}
_RESCORE_WINDOW, _RESCORE_WEIGHT = 50, 2.0

# Seeded random_score (boost_mode=replace) over the match candidates.
RANDOM_SCORE_QUERIES: dict[str, str] = {"rs1": "vector", "rs2": "window stream"}
_RANDOM_SEED = "42"

# terms-agg + top_hits sub-agg queries (grouped by docmap turn_idx).
TOP_HITS_QUERIES: dict[str, str] = {"th1": "customer table scan", "th2": "window stream"}
_TOP_HITS_PER_GROUP = 3

# term-vectors API sample docs (exist at every sf; doc_id < 500)
TERM_VECTOR_DOCS: list[int] = [0, 3, 7, 42, 123, 321]

# adjacency_matrix filters: name → analyzed term
ADJACENCY_FILTERS: dict[str, str] = {"spark": "spark", "join": "join", "window": "window"}

# composite agg paging / date-histogram pipeline / chunking params
_COMPOSITE_PAGE = 7
_BUCKET_S = 86400
_CHUNK_WINDOW, _CHUNK_STRIDE = 32, 24
_KNN_LABEL = 1

# span_near (in-order proximity) queries: 2-term, per-query slop
SPAN_QUERIES: list[dict] = [
    {"query_id": "sn1", "query_text": "customer scan", "slop": 2},
    {"query_id": "sn2", "query_text": "merge batch", "slop": 1},
    {"query_id": "sn3", "query_text": "window join", "slop": 3},
    {"query_id": "sn4", "query_text": "slow order", "slop": 2},
]

# unordered span_near queries: term pairs given in REVERSED document
# order, so in_order matching would miss what unordered must find.
SPANU_QUERIES: list[dict] = [
    {"query_id": "su1", "query_text": "join window", "slop": 1},
    {"query_id": "su2", "query_text": "scan customer", "slop": 0},
    {"query_id": "su3", "query_text": "batch merge", "slop": 2},
]

# dis_max queries: two clauses, best-clause + tie_breaker × rest
DISMAX_QUERIES: list[dict] = [
    {"query_id": "dm1", "clause_a": "spark join", "clause_b": "customer table"},
    {"query_id": "dm2", "clause_a": "window stream", "clause_b": "vector hash"},
    {"query_id": "dm3", "clause_a": "the data", "clause_b": "zzzmissing"},
]
_DISMAX_TIE = 0.3

# percentile_ranks thresholds over events.value (per event_type)
_PR_THRESHOLDS = [1.0, 5.0]

# keyword extraction / sequence packing params
_KW_K = 3
_PACK_BUDGET, _PACK_RANGE = 256, 64

# ES match-with-fuzziness queries: every term typo'd; last has no
# expansion within distance 2.
FUZZY_MATCH_QUERIES: dict[str, str] = {
    "fz1": "sprak jion",
    "fz2": "custmer tabel",
    "fz3": "windw streem",
    "fz4": "qqqxyzqq",
}
_FUZZY_DIST, _FUZZY_TOPN = 2, 5

# match_phrase_prefix queries: fixed tokens + a final prefix token.
MPP_QUERIES: dict[str, str] = {
    "mp1": "customer tab",
    "mp2": "window str",
    "mp3": "merge gro",
    "mp4": "slow quer",
}

# simple_query_string inputs (+must, -must_not, bare=should OR)
QS_QUERIES: dict[str, str] = {
    "qs1": "+customer +table scan -window",
    "qs2": "spark join -merge",
    "qs3": "-the data stream",
    "qs4": "+zzzmissing spark",
    "qs5": "+window stream vector",
}

# rare_terms / extended_stats params
_RARE_DF_MAX, _RARE_LIMIT = 380, 100

# ES regexp queries (anchored whole-term; RE2 shared verbatim with DuckDB)
REGEXP_QUERIES: dict[str, str] = {
    "re1": "cust.*",
    "re2": ".*(?:eam|ine)",
    "re3": "fil[a-z]er",
    "re4": "zzz[0-9]+",
}

TRANSCRIPTS_CTE = """
transcripts AS (
  SELECT doc_id,
         'conv-' || lpad(cast(doc_id // 8 AS varchar), 8, '0') AS conv_id,
         cast(doc_id % 8 AS int) AS turn_idx,
         CASE cast(doc_id % 3 AS int) WHEN 0 THEN 'user' WHEN 1 THEN 'assistant' ELSE 'tool' END AS role,
         text
  FROM documents
),
toks AS (
  SELECT doc_id, unnest(regexp_split_to_array(lower(nfc_normalize(text)), '[^\\p{L}\\p{N}]+')) AS term
  FROM transcripts
),
tok AS (SELECT doc_id, term FROM toks WHERE term <> ''),
tf AS (SELECT term, doc_id, count(*)::BIGINT AS tf FROM tok GROUP BY term, doc_id),
dl AS (SELECT doc_id, count(*)::BIGINT AS dl FROM tok GROUP BY doc_id),
stats AS (SELECT count(*)::BIGINT AS n_docs, avg(dl) AS avgdl FROM dl),
df AS (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY term)
"""


def _qterms_values() -> str:
    rows = []
    for qid, text in BM25_QUERIES.items():
        for term in sorted(set(text.lower().split())):
            rows.append(f"('{qid}', '{term}')")
    return ", ".join(rows)


def _msm_should_values() -> str:
    rows = []
    for q in MSM_QUERIES:
        for term in sorted(set(q["should"].lower().split())):
            rows.append(f"('{q['query_id']}', '{term}')")
    return ", ".join(rows)


def _msm_min_values() -> str:
    return ", ".join(f"('{q['query_id']}', {q['min_should_match']})" for q in MSM_QUERIES)


def _pii_sql() -> str:
    """pii_redact oracle: the SAME RE2 patterns applied in the SAME order
    (counts taken per stage on the progressively masked text — mirrors
    stages/redact.py::redact_pii exactly)."""
    from hybrid_sanctions_search_engine_ray.stages.redact import PII_PATTERNS

    cur = "t"
    counts = []
    for _, pat, repl in PII_PATTERNS:
        counts.append(f"len(regexp_extract_all({cur}, '{pat}'))")
        cur = f"regexp_replace({cur}, '{pat}', '{repl}', 'g')"
    return f"""
WITH aug AS (
  SELECT doc_id,
         text || ' contact user' || cast(doc_id AS varchar) || '@example.com ip 10.'
              || cast(doc_id % 256 AS varchar) || '.0.1 +1-202-555-'
              || lpad(cast(doc_id % 10000 AS varchar), 4, '0')
              || CASE WHEN doc_id % 3 = 0 THEN ' 4111111111111111' ELSE '' END AS t
  FROM documents)
SELECT doc_id,
       {cur} AS clean,
       ({" + ".join(counts)})::BIGINT AS n_pii
FROM aug
"""


def _syn_qterms_values() -> str:
    """qterms VALUES with SYNONYMS expansion — mirrors
    pipelines/query.py::expand_synonyms over the same constants."""
    rows = []
    for qid, text in BM25_QUERIES.items():
        terms = set(text.lower().split())
        expanded = set(terms)
        for t in terms:
            expanded.update(SYNONYMS.get(t, ()))
        for term in sorted(expanded):
            rows.append(f"('{qid}', '{term}')")
    return ", ".join(rows)


def _bool_values(field: str, minus: str | None = None) -> str:
    """VALUES rows for one bool-query clause; ``minus`` drops terms
    already in that query's must clause (scoring dedup parity with
    search_one_boolean). Clauses empty for every query never occur in
    BOOL_QUERIES' schema use below."""
    rows = []
    for q in BOOL_QUERIES:
        terms = set(q[field].lower().split())
        if minus:
            terms -= set(q[minus].lower().split())
        for term in sorted(terms):
            rows.append(f"('{q['query_id']}', '{term}')")
    return ", ".join(rows) if rows else "(NULL, NULL)"


# Trigram tokenization CTE (char3 analyzer twin): simple tokens → char
# 3-grams (whole token when len<3) → DISTINCT per doc; tf=1, dl=|gram set|.
TRIGRAM_CTE = """
pos3 AS (
  SELECT doc_id, term, unnest(generate_series(1, greatest(length(term)-2, 1))) AS g
  FROM tok
),
g3 AS (SELECT DISTINCT doc_id, substring(term, g, 3) AS gram FROM pos3),
dl3 AS (SELECT doc_id, count(*)::BIGINT AS dl FROM g3 GROUP BY doc_id),
stats3 AS (SELECT count(*)::BIGINT AS n_docs, avg(dl) AS avgdl FROM dl3),
df3 AS (SELECT gram, count(*)::BIGINT AS df FROM g3 GROUP BY gram)
"""


# Edge-ngram tokenization CTE (edge analyzer twin): simple tokens →
# prefixes length 2..min(len,20), whole token when shorter than 2 →
# DISTINCT per doc; tf=1, dl=|prefix set|.
EDGE_CTE = """
egp AS (
  SELECT doc_id, term,
         unnest(generate_series(least(2, length(term)), least(length(term), 20))) AS g
  FROM tok
),
edge AS (SELECT DISTINCT doc_id, substring(term, 1, g) AS gram FROM egp),
dle AS (SELECT doc_id, count(*)::BIGINT AS dl FROM edge GROUP BY doc_id),
statse AS (SELECT count(*)::BIGINT AS n_docs, avg(dl) AS avgdl FROM dle),
dfe AS (SELECT gram, count(*)::BIGINT AS df FROM edge GROUP BY gram)
"""


def _prefix_values() -> str:
    rows = []
    for qid, text in PREFIX_QUERIES.items():
        for term in sorted(set(text.lower().split())):
            rows.append(f"('{qid}', '{term}')")
    return ", ".join(rows)


# Word-shingle tokenization CTE (shingle analyzer twin): simple tokens +
# space-joined 2-/3-shingles of adjacent tokens; tf-weighted, dl = total
# emitted terms (unigrams + shingles).
SHINGLE_CTE = """
sharr AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(lower(nfc_normalize(text)), '[^\\p{L}\\p{N}]+'), x -> x <> '') AS arr
  FROM transcripts
),
shtok AS (
  SELECT doc_id, unnest(arr) AS term FROM sharr
  UNION ALL
  SELECT doc_id, unnest([arr[g] || ' ' || arr[g+1] for g in generate_series(1, len(arr) - 1)]) AS term FROM sharr
  UNION ALL
  SELECT doc_id, unnest([arr[g] || ' ' || arr[g+1] || ' ' || arr[g+2] for g in generate_series(1, len(arr) - 2)]) AS term FROM sharr
),
shtf AS (SELECT term, doc_id, count(*)::BIGINT AS tf FROM shtok GROUP BY term, doc_id),
shdl AS (SELECT doc_id, count(*)::BIGINT AS dl FROM shtok GROUP BY doc_id),
shstats AS (SELECT count(*)::BIGINT AS n_docs, avg(dl) AS avgdl FROM shdl),
shdf AS (SELECT term, count(*)::BIGINT AS df FROM shtf GROUP BY term)
"""


def _qshingles_values() -> str:
    from hybrid_sanctions_search_engine_ray.functions.analyzer import tokenize_shingle

    rows = []
    for qid, text in SHINGLE_QUERIES.items():
        for term in sorted(set(tokenize_shingle(text))):
            rows.append(f"('{qid}', '{term}')")
    return ", ".join(rows)


def _qgrams_values(queries: dict[str, str]) -> str:
    from hybrid_sanctions_search_engine_ray.functions.analyzer import tokenize_char3

    rows = []
    for qid, text in queries.items():
        for gram in tokenize_char3(text):
            rows.append(f"('{qid}', '{gram}')")
    return ", ".join(rows)


def _phrase_qterms_values(queries: dict[str, str] | None = None) -> str:
    rows = []
    for qid, phrase in (queries or PHRASE_QUERIES).items():
        for term in sorted(set(phrase.lower().split())):
            rows.append(f"('{qid}', '{term}')")
    return ", ".join(rows)


def _tiered_qterms_values() -> str:
    return _phrase_qterms_values(TIERED_QUERIES)


def _phrase_matches_sql(queries: dict[str, str] | None = None) -> str:
    """Per-phrase contiguity match: self-joins on (doc, pos+i, term_i)
    over the positional token table — one SELECT per phrase, unioned."""
    selects = []
    for qid, phrase in (queries or PHRASE_QUERIES).items():
        terms = phrase.lower().split()
        joins = " ".join(
            f"JOIN tokpos p{i} ON p{i}.doc_id = p0.doc_id AND p{i}.pos = p0.pos + {i} AND p{i}.term = '{t}'"
            for i, t in enumerate(terms[1:], 1)
        )
        selects.append(
            f"SELECT DISTINCT '{qid}' AS query_id, p0.doc_id AS doc_id "
            f"FROM tokpos p0 {joins} WHERE p0.term = '{terms[0]}'"
        )
    return " UNION ALL ".join(selects)


# Positional token table CTE (zipped unnest keeps term/pos aligned;
# positions are 0-based over the FILTERED token sequence — the engine's
# numbering).
TOKPOS_CTE = """
arrs AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(lower(nfc_normalize(text)), '[^\\p{L}\\p{N}]+'), x -> x <> '') AS arr
  FROM transcripts
),
tokpos AS (
  SELECT doc_id, unnest(arr) AS term, unnest(generate_series(0, len(arr) - 1)) AS pos
  FROM arrs
)
"""


# BM25 over the trigram field (tf=1 per present gram), ranked top-k —
# shared by the ngram_bm25 oracle and the hybrid_rrf oracle.
def _ngram_ranked_sql(queries: dict[str, str]) -> str:
    return f"""
qgrams(query_id, gram) AS (VALUES {_qgrams_values(queries)}),
scores3 AS (
  SELECT q.query_id, g.doc_id,
         sum( ln(1 + (s.n_docs - df3.df + 0.5) / (df3.df + 0.5))
              * {_K1 + 1.0} / (1 + {_K1} * ({1.0 - _B} + {_B} * dl3.dl / s.avgdl)) ) AS score
  FROM qgrams q
  JOIN g3 g ON g.gram = q.gram
  JOIN df3 ON df3.gram = q.gram
  JOIN dl3 ON dl3.doc_id = g.doc_id
  CROSS JOIN stats3 s
  GROUP BY q.query_id, g.doc_id
),
ranked3 AS (
  -- quantized ordering: the trigram field has EXACT score ties, so rank
  -- on the rounded score (+ doc_id) to be float-summation-order-proof
  SELECT query_id, doc_id, score,
         row_number() OVER (PARTITION BY query_id ORDER BY round(score, 4) DESC, doc_id) AS rnk
  FROM scores3
)
"""


def _simple_qterms_values(queries: dict[str, str]) -> str:
    """(query_id, term) VALUES rows via the simple-mode analyzer."""
    from hybrid_sanctions_search_engine_ray.functions.analyzer import tokenize_simple

    rows = []
    for qid, text in queries.items():
        for term in sorted(set(tokenize_simple(text))):
            rows.append(f"('{qid}', '{term}')")
    return ", ".join(rows)


def _phrase_suggest_values() -> str:
    rows = []
    for qid, phrase in PHRASE_SUGGEST_QUERIES.items():
        for pos, term in enumerate(phrase.lower().split(), start=1):
            rows.append(f"('{qid}', {pos}, '{term}')")
    return ", ".join(rows)


def _sampler_qterms_values() -> str:
    from hybrid_sanctions_search_engine_ray.functions.analyzer import tokenize_simple

    return ", ".join(f"('{t}')" for t in sorted(set(tokenize_simple(_SAMPLER_QUERY))))


def _mm_word_values() -> str:
    return _simple_qterms_values(MULTI_MATCH_QUERIES)


def _mm_shingle_values() -> str:
    from hybrid_sanctions_search_engine_ray.functions.analyzer import tokenize_shingle

    rows = []
    for qid, text in MULTI_MATCH_QUERIES.items():
        for term in sorted(set(tokenize_shingle(text))):
            rows.append(f"('{qid}', '{term}')")
    return ", ".join(rows)


def _mm_ranked_sql(combine: str) -> str:
    """Cross-field multi_match SQL twin: per-field BM25 score subqueries
    (each field's own tf/df/dl/stats CTEs; query terms generated by the
    SAME Python analyzers the engine readers use), boosted, unioned and
    combined per (query, doc). ``combine`` is the cross-field combinator
    (dis_max for best_fields, plain sum for most_fields); ranking is
    quantized (round4 + doc_id) because the trigram field produces exact
    score ties."""
    return f"""
qmw(query_id, term) AS (VALUES {_mm_word_values()}),
qmg(query_id, gram) AS (VALUES {_qgrams_values(MULTI_MATCH_QUERIES)}),
qms(query_id, term) AS (VALUES {_mm_shingle_values()}),
mmw AS (
  SELECT q.query_id, tf.doc_id,
         {_MM_BOOSTS[0]} * sum( ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
              * tf.tf * {_K1 + 1.0} / (tf.tf + {_K1} * ({1.0 - _B} + {_B} * dl.dl / s.avgdl)) ) AS score
  FROM qmw q
  JOIN tf ON tf.term = q.term
  JOIN df ON df.term = q.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats s
  GROUP BY q.query_id, tf.doc_id
),
mms AS (
  SELECT q.query_id, tf.doc_id,
         {_MM_BOOSTS[1]} * sum( ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
              * tf.tf * {_K1 + 1.0} / (tf.tf + {_K1} * ({1.0 - _B} + {_B} * dl.dl / s.avgdl)) ) AS score
  FROM qms q
  JOIN shtf tf ON tf.term = q.term
  JOIN shdf df ON df.term = q.term
  JOIN shdl dl ON dl.doc_id = tf.doc_id
  CROSS JOIN shstats s
  GROUP BY q.query_id, tf.doc_id
),
mmg AS (
  SELECT q.query_id, g.doc_id,
         {_MM_BOOSTS[2]} * sum( ln(1 + (s.n_docs - df3.df + 0.5) / (df3.df + 0.5))
              * {_K1 + 1.0} / (1 + {_K1} * ({1.0 - _B} + {_B} * dl3.dl / s.avgdl)) ) AS score
  FROM qmg q
  JOIN g3 g ON g.gram = q.gram
  JOIN df3 ON df3.gram = q.gram
  JOIN dl3 ON dl3.doc_id = g.doc_id
  CROSS JOIN stats3 s
  GROUP BY q.query_id, g.doc_id
),
mmall AS (
  SELECT * FROM mmw UNION ALL SELECT * FROM mms UNION ALL SELECT * FROM mmg
),
mmcomb AS (
  SELECT query_id, doc_id, {combine} AS score FROM mmall GROUP BY query_id, doc_id
),
mmranked AS (
  SELECT query_id, doc_id, score,
         row_number() OVER (PARTITION BY query_id ORDER BY round(score, 4) DESC, doc_id) AS rnk
  FROM mmcomb
)
"""


# --- engine plumbing --------------------------------------------------------


def _engine_cfg():
    from hybrid_sanctions_search_engine_ray.config import AnalyzerConfig, EngineConfig

    return EngineConfig(num_partitions=16, analyzer=AnalyzerConfig(mode="simple"))


def _join_parts() -> int:
    """Hash-join partition count for the big⋈big exchanges: scales with
    the cluster (cpus, or GRAFT_JOIN_PARTS) instead of a constant — at
    100 TB the join exchange must fan out to every node, while at test
    scale a handful of partitions avoids tiny-block overhead. Partition
    count never changes RESULTS (hash-partitioned equality join), only
    parallelism, so the oracle contract is unaffected."""
    import ray

    env = os.environ.get("GRAFT_JOIN_PARTS")
    if env:
        return max(1, int(env))
    try:
        cpus = int(ray.cluster_resources().get("CPU", 8))
    except Exception:
        cpus = 8
    return max(8, cpus)


def _ensure_index(sf_dir: str, mode: str = "simple", positional: bool = False,
                  stem: str = "", dedup: bool = False) -> str:
    """Build (once, cached under /tmp) the BM25 index for an sf dir.
    ``mode="char3"`` builds the character-trigram (fuzzy lexical tier)
    variant through the SAME shuffle/segment machinery; ``positional``
    adds in-document position postings (exact phrase search); ``stem``
    builds the morphologically-normalized variant (functions/stemmer);
    ``dedup`` the duplicate-token-removal variant (D5)."""
    from hybrid_sanctions_search_engine_ray.pipelines.index_build import build_index
    from hybrid_sanctions_search_engine_ray.sources.transcripts import transcripts_from_documents
    from hybrid_sanctions_search_engine_ray.state.manifest import IndexManifest

    from hybrid_sanctions_search_engine_ray import __version__ as _fmt

    tag = os.path.basename(os.path.normpath(sf_dir))
    tag += "" if mode == "simple" else f"-{mode}"
    tag += "-pos" if positional else ""
    tag += f"-stem{stem}" if stem else ""
    tag += "-dedup" if dedup else ""
    index_dir = f"/tmp/graft_idx_cache/{_fmt}/{tag}"
    try:
        if IndexManifest.load(index_dir).status == "complete":
            return index_dir
    except FileNotFoundError:
        pass
    shutil.rmtree(index_dir, ignore_errors=True)
    ts = transcripts_from_documents(sf_dir)
    from hybrid_sanctions_search_engine_ray.config import AnalyzerConfig, EngineConfig

    cfg = EngineConfig(num_partitions=16,
                       analyzer=AnalyzerConfig(mode=mode, stem=stem, dedup_tokens=dedup))
    build_index(os.path.join(sf_dir, "documents.parquet"), index_dir, cfg, transcripts_ds=ts,
                store_positions=positional)
    return index_dir


def _round_half_away(x: np.ndarray, digits: int) -> np.ndarray:
    from hybrid_sanctions_search_engine_ray.stages.textops import round_half_away

    return round_half_away(np.asarray(x, dtype=np.float64), digits)


def _round4(x: np.ndarray) -> np.ndarray:
    return _round_half_away(x, 4)


# --- queries ----------------------------------------------------------------


def _coldonly_index(sf_dir: str) -> str:
    """The unsalted audit index over ``sf_dir``'s documents (see
    :func:`q_postings_bytes`), built on first use and cached by format
    version; returns its directory."""
    from hybrid_sanctions_search_engine_ray.config import AnalyzerConfig, EngineConfig
    from hybrid_sanctions_search_engine_ray.pipelines.index_build import build_index
    from hybrid_sanctions_search_engine_ray.sources.transcripts import transcripts_from_documents
    from hybrid_sanctions_search_engine_ray.state.manifest import IndexManifest

    from hybrid_sanctions_search_engine_ray import __version__ as _fmt

    tag = os.path.basename(os.path.normpath(sf_dir))
    index_dir = f"/tmp/graft_idx_cache/{_fmt}/{tag}-coldonly"
    try:
        done = IndexManifest.load(index_dir).status == "complete"
    except FileNotFoundError:
        done = False
    if not done:
        shutil.rmtree(index_dir, ignore_errors=True)
        cfg = EngineConfig(num_partitions=16, hot_term_df_ratio=2.0,
                           analyzer=AnalyzerConfig(mode="simple"))
        build_index(os.path.join(sf_dir, "documents.parquet"), index_dir, cfg,
                    transcripts_ds=transcripts_from_documents(sf_dir))
    return index_dir


def q_postings_bytes(sf_dir: str):
    """Stored-postings codec audit: read back the PERSISTED segment
    parquet of a dedicated unsalted index and report, per term, the
    exact on-disk byte counts of the three varint streams (delta+varint
    doc ids, varint tfs, varint doc lengths) plus the posting count —
    verifying the physical artifact the BM25 tier serves from, byte for
    byte, against an SQL reconstruction of the codec framing
    (functions/codec.encode_posting: delta with absolute first value,
    LEB128 7-bit varints). The audit index is built with
    hot_term_df_ratio=2.0 — no term can exceed the sampled-df cut, so
    hot-term salting is deterministically OFF and every posting list is
    one contiguous delta chain in one partition (salted framing is
    covered by the rank-identity of the hot-term BM25 oracles, which
    read through the same codec). Sub-segment splits can't trigger
    either (df ≤ n_docs ≪ max_postings_per_segment) — asserted loudly."""
    from ray.data.aggregate import Sum

    from hybrid_sanctions_search_engine_ray.stages.postings import read_segments

    segs = read_segments(_coldonly_index(sf_dir),
                         ["term", "seg_idx", "n_docs", "docs", "tfs", "dls"])

    def partial(b: pa.Table) -> pa.Table:
        if pc.max(b["seg_idx"]).as_py() not in (None, 0):
            raise AssertionError("postings_bytes: unexpected sub-segment split")
        t = pa.table({
            "term": b["term"],
            "nd": b["n_docs"],
            "db": pc.binary_length(b["docs"]).cast(pa.int64()),
            "tb": pc.binary_length(b["tfs"]).cast(pa.int64()),
            "lb": pc.binary_length(b["dls"]).cast(pa.int64()),
        })
        g = t.group_by("term").aggregate(
            [("nd", "sum"), ("db", "sum"), ("tb", "sum"), ("lb", "sum")])
        return pa.table({"term": g["term"],
                         "nd_p": g["nd_sum"].cast(pa.int64()),
                         "db_p": g["db_sum"].cast(pa.int64()),
                         "tb_p": g["tb_sum"].cast(pa.int64()),
                         "lb_p": g["lb_sum"].cast(pa.int64())})

    return (segs.map_batches(partial, batch_format="pyarrow")
            .groupby("term")
            .aggregate(Sum("nd_p", alias_name="n_docs"),
                       Sum("db_p", alias_name="docs_bytes"),
                       Sum("tb_p", alias_name="tfs_bytes"),
                       Sum("lb_p", alias_name="dls_bytes")))


_PRUNE_TOP_N = 16
_QPP_K = 100


_DP_EPS = 1.0


def q_dp_counts(sf_dir: str):
    """Differentially-private-style histogram release (the Laplace
    mechanism shape): per event_type, the true count plus Laplace(1/ε)
    noise — with the noise draw DERIVED DETERMINISTICALLY from the
    md5-uniform of the key (u = md5(key||'-dp') % 2⁵³ / 2⁵³, inverse
    CDF −(1/ε)·sign(u−½)·ln(1−2|u−½|)), so the release is replayable
    and exactly SQL-twinnable. Production DP would draw fresh
    randomness (this seam is where it plugs in — the docstring
    contract); everything else — sensitivity-1 counting query, noise
    scale, post-processing rounding — is the real mechanism. Counts
    ride one event-type-keyed exchange; noise is per-released-row."""
    import hashlib

    import ray.data as rd
    from ray.data.aggregate import Sum

    tot = (
        rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                        columns=["event_type"])
        .map_batches(lambda b: (lambda g: pa.table({
            "event_type": g["event_type"],
            "c_p": g["count_all"].cast(pa.int64())}))(
                pa.table({"event_type": pc.cast(b["event_type"], pa.string())})
                .group_by("event_type").aggregate([([], "count_all")])),
            batch_format="pyarrow")
        .groupby("event_type")
        .aggregate(Sum("c_p", alias_name="n"))
        .to_pandas()
    )
    keys = tot["event_type"].astype(str)
    u = np.array([int.from_bytes(hashlib.md5((k + "-dp").encode())
                                 .digest()[:8], "little") % (1 << 53)
                  for k in keys], dtype=np.float64) / float(1 << 53)
    noise = -(1.0 / _DP_EPS) * np.sign(u - 0.5) * np.log(1.0 - 2.0 * np.abs(u - 0.5))
    noisy = _round4(tot["n"].to_numpy().astype(np.float64) + noise)
    out = pd.DataFrame({"event_type": keys,
                        "n_true": tot["n"].astype(np.int64),
                        "n_noisy": noisy})
    return out.sort_values("event_type").reset_index(drop=True)


# probes chosen to exercise every tier: exact (window, vector), jaro
# (strem, filtr, grup), phonetic (botsh→batch, mirj→merge,
# weondew→window — jw below τ but Soundex-coded with a dictionary
# term), none (zzqqzz, sately)
def q_append_e2e(sf_dir: str):
    """Incremental-ingest capstone (the ES index-new-batch-then-
    rollover flow, physical form): a live index over the first
    conv-boundary slice of the corpus, the remaining conversations
    appended through append_documents — delta built with the live
    index's exact parameters, ids lifted by the live doc count,
    partition-parallel physical merge — and the BM25 query batch served
    from the MERGED index. The twin is plain BM25 over the full corpus,
    so delta build, id lifting, the merge pass and the reader must all
    reproduce the from-scratch truth. Completes the lifecycle trio
    beside maintenance_e2e and federated_e2e."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.config import AnalyzerConfig, EngineConfig
    from hybrid_sanctions_search_engine_ray.pipelines.index_build import build_index
    from hybrid_sanctions_search_engine_ray.pipelines.maintenance import append_documents
    from hybrid_sanctions_search_engine_ray.pipelines.query import search
    from hybrid_sanctions_search_engine_ray.sources.transcripts import transcripts_from_documents

    from hybrid_sanctions_search_engine_ray import __version__ as _fmt

    tag = os.path.basename(os.path.normpath(sf_dir))
    base = f"/tmp/graft_idx_cache/{_fmt}/{tag}-appbase"
    merged = f"/tmp/graft_idx_cache/{_fmt}/{tag}-appmerged"
    if not os.path.exists(os.path.join(merged, "manifest.json")):
        shutil.rmtree(base, ignore_errors=True)
        shutil.rmtree(merged, ignore_errors=True)
        n_docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                                 columns=["doc_id"]).count()
        cut = (n_docs // 2 // 8) * 8   # conversation boundary
        # both builds go through the checkpoint path (no doc_id column)
        # so their docmap layouts agree and ids are assigned dense in
        # (conv_id, turn_idx) order — prefix slice ids = global ids
        live_ts = transcripts_from_documents(sf_dir).map_batches(
            lambda b: b.filter(pc.less(b["doc_id"], cut))
                       .select(["conv_id", "turn_idx", "role", "text",
                                "tool", "ts"]),
            batch_format="pyarrow")
        cfg = EngineConfig(num_partitions=8, analyzer=AnalyzerConfig(mode="simple"))
        build_index(os.path.join(sf_dir, "documents.parquet"), base, cfg,
                    transcripts_ds=live_ts)
        # the delta is NEW data: no doc_id column — append assigns dense
        # ids and lifts them by the live doc count (append-ordered ids)
        delta_ts = transcripts_from_documents(sf_dir).map_batches(
            lambda b: b.filter(pc.greater_equal(b["doc_id"], cut))
                       .select(["conv_id", "turn_idx", "role", "text",
                                "tool", "ts"]),
            batch_format="pyarrow")
        append_documents(base, delta_ts, merged)

    queries_ds = rd.from_items(
        [{"query_id": qid, "query_text": text, "top_k": BM25_TOP_K}
         for qid, text in BM25_QUERIES.items()])
    res = search(queries_ds, merged, _engine_cfg())

    def _finish(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["score"] = _round4(b["score"].to_numpy())
        b["rank"] = b["rank"].astype(np.int32)
        return b

    return res.map_batches(_finish, batch_format="pandas")


def q_federated_e2e(sf_dir: str):
    """Federated (base + overlay) serving capstone, value-gated in the
    driver gate: the corpus splits into two shards by doc-id parity,
    each builds its own index, and a FederatedReader answers the BM25
    query batch across both — the overlay/active-merge tier (S8/D2).
    Federation is exact by construction (global df/stats assembled from
    the shards' raw postings), so the twin is plain BM25 over the FULL
    corpus: shard stats assembly, cross-shard merge, the doc-id offset
    glue and ranking all have to agree with the single-index truth.
    The split is a contiguous conv-boundary cut; the shard builds keep
    the transcripts' global doc_id column, so no offset glue is
    needed."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.config import AnalyzerConfig, EngineConfig
    from hybrid_sanctions_search_engine_ray.pipelines.federated import FederatedReader
    from hybrid_sanctions_search_engine_ray.pipelines.index_build import build_index
    from hybrid_sanctions_search_engine_ray.sources.transcripts import transcripts_from_documents

    from hybrid_sanctions_search_engine_ray import __version__ as _fmt

    tag = os.path.basename(os.path.normpath(sf_dir))
    n_docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                             columns=["doc_id"]).count()
    cut = (n_docs // 2 // 8) * 8   # conversation boundary (8 turns/conv)
    dirs = []
    for half, (lo, hi) in enumerate(((0, cut), (cut, n_docs))):
        idx = f"/tmp/graft_idx_cache/{_fmt}/{tag}-fed{half}"
        dirs.append(idx)
        if os.path.exists(os.path.join(idx, "manifest.json")):
            continue
        shutil.rmtree(idx, ignore_errors=True)
        ts = transcripts_from_documents(sf_dir).map_batches(
            lambda b, lo_=lo, hi_=hi: b.filter(pc.and_(
                pc.greater_equal(b["doc_id"], lo_),
                pc.less(b["doc_id"], hi_))),
            batch_format="pyarrow")
        cfg = EngineConfig(num_partitions=8, analyzer=AnalyzerConfig(mode="simple"))
        build_index(os.path.join(sf_dir, "documents.parquet"), idx, cfg,
                    transcripts_ds=ts)
    # shard builds keep the transcripts' GLOBAL doc_id column, so the
    # offset glue is identity (the default would re-offset dense ids)
    reader = FederatedReader(dirs, doc_id_offsets=[0, 0])
    rows = []
    for qid, text in BM25_QUERIES.items():
        docs, scores = reader.search_one(text, BM25_TOP_K)
        for r, (d, sc) in enumerate(zip(docs, scores), start=1):
            rows.append({"query_id": qid, "rank": np.int32(r),
                         "doc_id": np.int64(d),
                         "score": float(_round4(np.array([sc]))[0])})
    return pd.DataFrame(rows)


_MAINT_MOD = 10  # delete every doc with doc_id % 10 == 7


def q_maintenance_e2e(sf_dir: str):
    """Index-lifecycle capstone, value-gated end to end: build → delete
    10% of docs (doc_id % 10 == 7) → COMPACT (physical purge with exact
    stat correction) → REPARTITION to a different layout → serve BM25
    from the repartitioned index. The twin is simply BM25 over the
    corpus WITHOUT the deleted docs with recomputed stats — so
    tombstoning, compaction's stat repair, the repartition rewrite and
    the reader all have to agree exactly for the hash to match. Built
    once per sf (cached, _DONE-marked after the full chain)."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.config import AnalyzerConfig, EngineConfig
    from hybrid_sanctions_search_engine_ray.pipelines.index_build import build_index
    from hybrid_sanctions_search_engine_ray.pipelines.maintenance import (
        compact_index,
        delete_docs,
        repartition_index,
    )
    from hybrid_sanctions_search_engine_ray.pipelines.query import search
    from hybrid_sanctions_search_engine_ray.sources.transcripts import transcripts_from_documents

    from hybrid_sanctions_search_engine_ray import __version__ as _fmt

    tag = os.path.basename(os.path.normpath(sf_dir))
    base = f"/tmp/graft_idx_cache/{_fmt}/{tag}-maint"
    final = base + "-repart"
    done = os.path.join(final, "_E2E_DONE")
    if not os.path.exists(done):
        shutil.rmtree(base, ignore_errors=True)
        shutil.rmtree(final, ignore_errors=True)
        cfg = EngineConfig(num_partitions=16, analyzer=AnalyzerConfig(mode="simple"))
        build_index(os.path.join(sf_dir, "documents.parquet"), base, cfg,
                    transcripts_ds=transcripts_from_documents(sf_dir))
        n_docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                                 columns=["doc_id"]).count()
        doomed = np.arange(7, n_docs, _MAINT_MOD).tolist()
        delete_docs(base, doomed)
        compact_index(base)
        repartition_index(base, final, new_partitions=8)
        with open(done, "w") as f:
            f.write("ok")

    queries_ds = rd.from_items(
        [{"query_id": qid, "query_text": text, "top_k": BM25_TOP_K}
         for qid, text in BM25_QUERIES.items()])
    res = search(queries_ds, final, _engine_cfg())

    def _finish(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["score"] = _round4(b["score"].to_numpy())
        b["rank"] = b["rank"].astype(np.int32)
        return b

    return res.map_batches(_finish, batch_format="pandas")


_RC_K = 10


def q_rank_correlation(sf_dir: str):
    """Ranker-agreement evaluation (the IR analytics behind similarity-
    module selection): per query, Spearman ρ between the BM25 and
    LM-Dirichlet top-10 rankings, computed over the INTERSECTION of the
    two top-10 sets re-ranked by each system's own order — the
    permutation form where ρ = 1 − 6Σd²/(n(n²−1)) is exact. Integer d²,
    mirrored float tail, queries with <2 shared docs excluded on both
    sides. Served entirely from the warm reader."""
    from hybrid_sanctions_search_engine_ray.pipelines.query import IndexReader

    index_dir = _ensure_index(sf_dir)
    reader = IndexReader(index_dir)
    rows = []
    for qid, text in BM25_QUERIES.items():
        db, _sb = reader.search_one(text, _RC_K)
        dl_, _sl = reader.search_one_lmd(text, _RC_K, mu=_LMD_MU)
        shared = set(db.tolist()) & set(dl_.tolist())
        n = len(shared)
        if n < 2:
            continue
        rb = {int(d): i for i, d in enumerate(x for x in db if int(x) in shared)}
        rl = {int(d): i for i, d in enumerate(x for x in dl_ if int(x) in shared)}
        sumd2 = sum((rb[d] - rl[d]) ** 2 for d in shared)
        rho = 1.0 - 6.0 * sumd2 / (n * (n * n - 1))
        rows.append({"query_id": qid, "n_shared": np.int64(n),
                     "rho": float(_round4(np.array([rho]))[0])})
    return pd.DataFrame(rows).sort_values("query_id").reset_index(drop=True)


def q_posting_gaps(sf_dir: str):
    """Doc-id gap statistics per posting list, decoded from the REAL
    stored index (the compressibility profile that justifies
    delta+varint vs Elias-Fano — postings_bytes' analytical companion):
    per term, df, first doc id, mean gap (round4) and max gap between
    consecutive doc ids. One task pass over the persisted segments;
    twin recomputes the deltas from the tf CTE with LAG."""
    from hybrid_sanctions_search_engine_ray.stages.postings import decode_segment, read_segments

    segs = read_segments(_coldonly_index(sf_dir), ["term", "n_docs", "docs"])

    def stats(b: pa.Table) -> pa.Table:
        d, _, _, n = decode_segment(b)
        d = d.astype(np.int64)
        starts = np.cumsum(n) - n
        first, last = d[starts], d[starts + n - 1]
        # gaps inside each row: a row's first posting has no predecessor
        gaps = np.diff(d, prepend=0)
        gaps[starts] = 0
        n_gaps = n - 1
        mean = np.zeros(n.size)
        has = n_gaps > 0
        mean[has] = _round4((last - first)[has] / n_gaps[has])
        return pa.table({"term": b["term"],
                         "df": pa.array(n, pa.int64()),
                         "first_doc": pa.array(first, pa.int64()),
                         "mean_gap": pa.array(mean, pa.float64()),
                         "max_gap": pa.array(np.maximum.reduceat(gaps, starts) if n.size
                                             else gaps, pa.int64())})

    return segs.map_batches(stats, batch_format="pyarrow")


_BPE_FM_K = 10


def q_bpe_first_merge(sf_dir: str):
    """Value evidence for the BPE trainer's core counting step (the
    train loop itself stays rows-only — iterative): the FIRST
    iteration's weighted symbol-pair table over the word-frequency
    vocabulary (chars + the Sennrich ``</w>`` marker), top-10 pairs by
    (count desc, pair asc) — exactly the argmax the first merge takes.
    The corpus-sized pass is the one word-count exchange the trainer
    shares; pair counting runs on the vocabulary. Exact twin via char
    splitting + adjacent-position self-join."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.bpe_train import _word_counts

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["text"])
    vocab = _word_counts(ds, "text")
    pair_counts: dict[tuple[str, str], int] = {}
    for w, c in zip(vocab["word"].tolist(), vocab["count"].tolist()):
        sym = tuple(w) + ("</w>",)
        for i in range(len(sym) - 1):
            p = (sym[i], sym[i + 1])
            pair_counts[p] = pair_counts.get(p, 0) + int(c)
    top = sorted(pair_counts.items(), key=lambda kv: (-kv[1], kv[0]))[:_BPE_FM_K]
    return pd.DataFrame({
        "rank": np.arange(1, len(top) + 1, dtype=np.int64),
        "left": [p[0][0] for p in top],
        "right": [p[0][1] for p in top],
        "pair_count": np.array([p[1] for p in top], np.int64),
    })


_HLLX_P = 8  # 2^8 = 256 registers


def q_hll_exact(sf_dir: str):
    """HyperLogLog with full value evidence — the exact-oracle upgrade
    for the sketch the production distinct_sketch runs rows-only
    (crc32+fmix64 isn't SQL-computable): registers over the md5-parity
    term hash (idx = top 8 bits, rank = leading zeros of the remaining
    56 bits + 1, via integer arithmetic only), the standard estimator
    with the small-range linear-counting branch, both branches mirrored
    float expressions. The estimate — including its error — is a
    deterministic function of the hash layout, so the twin reproduces
    it exactly. Per-batch distinct-term partials → ONE register-sized
    (≤256-row) exchange."""
    import hashlib

    import ray.data as rd
    from ray.data.aggregate import Max

    from hybrid_sanctions_search_engine_ray.functions.hashing import factorize_exact
    from hybrid_sanctions_search_engine_ray.stages.analyze import flat_terms

    cfg = _engine_cfg().analyzer
    m = 1 << _HLLX_P

    def partial(b: pa.Table) -> pa.Table:
        _, terms = flat_terms(b, cfg)
        if len(terms) == 0:
            return pa.table({"idx": pa.array([], pa.int64()),
                             "rank_p": pa.array([], pa.int64())})
        _, uniques = factorize_exact(terms)
        h = np.array([int.from_bytes(hashlib.md5(
            (u if isinstance(u, str) else "").encode()).digest()[:8], "little")
            for u in uniques], dtype=np.uint64)
        idx = (h >> np.uint64(64 - _HLLX_P)).astype(np.int64)
        rest = (h & np.uint64((1 << (64 - _HLLX_P)) - 1))
        # exact bit_length per distinct term (vocab-sized loop)
        bl = np.array([int(x).bit_length() for x in rest], dtype=np.int64)
        rank = np.where(rest > 0, 64 - _HLLX_P - bl + 1, 64 - _HLLX_P + 1)
        t = pa.table({"idx": pa.array(idx, pa.int64()),
                      "rank_p": pa.array(rank.astype(np.int64), pa.int64())})
        g = t.group_by("idx").aggregate([("rank_p", "max")])
        return pa.table({"idx": g["idx"],
                         "rank_p": g["rank_p_max"].cast(pa.int64())})

    from hybrid_sanctions_search_engine_ray.sources.transcripts import transcripts_from_documents

    regs = (transcripts_from_documents(sf_dir)
            .map_batches(partial, batch_format="pyarrow")
            .groupby("idx")
            .aggregate(Max("rank_p", alias_name="r"))
            .to_pandas())
    present = regs["r"].to_numpy(np.int64)
    n_zero = m - len(regs)
    # EXACT integer denominator: Σ 2^(57−rank) + zeros·2^57 (powers of
    # two — no float summation order anywhere)
    denom_scaled = sum(1 << (57 - int(r)) for r in present) + n_zero * (1 << 57)
    alpha = 0.7213 / (1.0 + 1.079 / 256.0)
    est = alpha * 65536.0 * 144115188075855872.0 / float(denom_scaled)
    if est <= 2.5 * m and n_zero > 0:
        est = m * np.log(m / n_zero)
    return pd.DataFrame({
        "n_registers_set": [np.int64(len(regs))],
        "est": [float(_round4(np.array([est]))[0])],
    })


_SHB_BANDS = 4  # 16-bit bands of the 64-bit simhash


def q_simhash_bands(sf_dir: str):
    """SimHash hamming-bucket pairing with full value evidence — the
    exact-oracle upgrade for the bucketing step the production simhash
    query runs rows-only: signatures on the md5-parity contract
    (q_simhash_exact), split into four 16-bit bands; two docs are
    candidates when ANY band matches (hamming ≤ 48 guarantee by
    pigeonhole — docs within 3 flipped bits always share a band).
    Emits deduped pairs with shared-band counts. One (band, value)
    exchange of 4 rows/doc, pair expansion only inside buckets. Exact
    bit-extraction twin."""
    from functools import partial as _partial

    import ray.data as rd
    from ray.data.aggregate import Sum

    from hybrid_sanctions_search_engine_ray.stages.dedup import simhash64

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "text"])
    sigs = ds.map_batches(_partial(simhash64, hasher="md5"),
                          batch_format="pyarrow", batch_size=1024)

    def bands(b: pa.Table) -> pa.Table:
        sig = b["simhash"].to_numpy(zero_copy_only=False).view(np.uint64)
        doc = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        outs_b, outs_v, outs_d = [], [], []
        for bi in range(_SHB_BANDS):
            outs_b.append(np.full(doc.size, bi, np.int64))
            outs_v.append(((sig >> np.uint64(16 * bi))
                           & np.uint64(0xFFFF)).astype(np.int64))
            outs_d.append(doc)
        return pa.table({"band": pa.array(np.concatenate(outs_b), pa.int64()),
                         "v": pa.array(np.concatenate(outs_v), pa.int64()),
                         "doc_id": pa.array(np.concatenate(outs_d), pa.int64())})

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        d = np.sort(np.unique(g["doc_id"].to_numpy(np.int64)))
        if d.size < 2:
            return pd.DataFrame({"doc_a": pd.Series([], dtype=np.int64),
                                 "doc_b": pd.Series([], dtype=np.int64),
                                 "n_p": pd.Series([], dtype=np.int64)})
        ii, jj = np.triu_indices(d.size, 1)
        return pd.DataFrame({"doc_a": d[ii], "doc_b": d[jj],
                             "n_p": np.ones(ii.size, np.int64)})

    return (sigs.map_batches(bands, batch_format="pyarrow")
            .groupby(["band", "v"])
            .map_groups(pairs, batch_format="pandas")
            .groupby(["doc_a", "doc_b"])
            .aggregate(Sum("n_p", alias_name="n_bands")))


_MHB_BANDS, _MHB_ROWS = 4, 2  # bands over the 8 _MHX permutations
_MHB_MOD = 18446744073709551616  # 2^64 — the uint64 wraparound modulus


def q_minhash_bands(sf_dir: str):
    """LSH BANDING with full value evidence — the exact-oracle upgrade
    for the banding+pairing step that minhash_pairs (crc32 family) runs
    rows-only: signatures on the SQL-checkable mhx contract (md5-parity
    gram hashes, Mersenne-61 perms), band hash = uint64-wraparound
    ``sig₀·1000003 + sig₁`` per 2-row band, candidate pairs = docs
    sharing any (band, hash) bucket, deduped with the shared-band
    count. One (band, hash)-keyed exchange of 4 rows/doc; pair
    expansion only inside buckets (the LSH guarantee); a pair-keyed
    groupby folds band counts. Exact HUGEINT twin."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from hybrid_sanctions_search_engine_ray.config import AnalyzerConfig
    from hybrid_sanctions_search_engine_ray.stages.analyze import flat_terms
    from hybrid_sanctions_search_engine_ray.stages.dedup import (
        _MERSENNE,
        _gram_hashes,
        _perm_params,
        _token_hashes_md5,
    )

    a, b = _perm_params(_MHX_PERMS)
    cfg = AnalyzerConfig()

    def bands(batch: pa.Table) -> pa.Table:
        parent, terms = flat_terms(batch, cfg)
        doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        empty = pa.table({"band": pa.array([], pa.int64()),
                          "bh": pa.array([], pa.int64()),
                          "doc_id": pa.array([], pa.int64())})
        if len(terms) == 0:
            return empty
        th = _token_hashes_md5(terms.to_numpy(zero_copy_only=False))
        grams_all = _gram_hashes(th, _MHX_K)
        valid = parent[: grams_all.size] == parent[_MHX_K - 1: _MHX_K - 1 + grams_all.size]
        grams = grams_all[valid]
        gdoc = parent[: grams_all.size][valid]
        if grams.size == 0:
            return empty
        vals = (grams.reshape(-1, 1) * a + b) % np.uint64(_MERSENNE)
        starts = np.flatnonzero(np.concatenate(([True], gdoc[1:] != gdoc[:-1])))
        present = gdoc[starts]
        mins = np.minimum.reduceat(vals, starts, axis=0)  # (docs, 8) uint64
        n_docs = mins.shape[0]
        outs_b, outs_h, outs_d = [], [], []
        with np.errstate(over="ignore"):
            for bi in range(_MHB_BANDS):
                s0 = mins[:, bi * _MHB_ROWS]
                s1 = mins[:, bi * _MHB_ROWS + 1]
                bh = (s0 * np.uint64(1000003) + s1)   # uint64 wraparound
                outs_b.append(np.full(n_docs, bi, np.int64))
                outs_h.append(bh.view(np.int64))
                outs_d.append(doc_ids[present])
        return pa.table({"band": pa.array(np.concatenate(outs_b), pa.int64()),
                         "bh": pa.array(np.concatenate(outs_h), pa.int64()),
                         "doc_id": pa.array(np.concatenate(outs_d), pa.int64())})

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        d = np.sort(np.unique(g["doc_id"].to_numpy(np.int64)))
        if d.size < 2:
            return pd.DataFrame({"doc_a": pd.Series([], dtype=np.int64),
                                 "doc_b": pd.Series([], dtype=np.int64),
                                 "n_p": pd.Series([], dtype=np.int64)})
        ii, jj = np.triu_indices(d.size, 1)
        return pd.DataFrame({"doc_a": d[ii], "doc_b": d[jj],
                             "n_p": np.ones(ii.size, np.int64)})

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "text"])
    return (ds.map_batches(bands, batch_format="pyarrow", batch_size=1024)
            .groupby(["band", "bh"])
            .map_groups(pairs, batch_format="pandas")
            .groupby(["doc_a", "doc_b"])
            .aggregate(Sum("n_p", alias_name="n_bands")))


def q_theilsen_trend(sf_dir: str):
    """Theil–Sen robust trend of the daily event volume (the
    outlier-resistant slope estimator — median of all pairwise slopes,
    breakdown point 29%): daily counts ride one day-keyed exchange; the
    O(days²) pairwise-slope matrix and the order statistic run on the
    tiny day series. Median = the LOWER order statistic at (m−1)//2
    under the deterministic (slope, i, j) ordering — rank-exact, no
    interpolation ambiguity. Slope round4. Exact pairwise twin."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    daily = (
        rd.read_parquet(os.path.join(sf_dir, "events.parquet"), columns=["ts"])
        .map_batches(lambda b: (lambda day: pa.table({
            "day": pa.array(day, pa.int64()),
            "one": pa.array(np.ones(len(b), np.int64))}))(
                pc.cast(b["ts"], pa.timestamp("us")).cast(pa.int64())
                .to_numpy(zero_copy_only=False) // 86_400_000_000 - 19723),
            batch_format="pyarrow")
        .groupby("day")
        .aggregate(Sum("one", alias_name="c"))
        .to_pandas()
        .sort_values("day")
    )
    d = daily["day"].to_numpy(np.int64)
    c = daily["c"].to_numpy(np.int64)
    ii, jj = np.triu_indices(d.size, 1)
    slopes = (c[jj] - c[ii]) / (d[jj] - d[ii]).astype(np.float64)
    order = np.lexsort((d[jj], d[ii], slopes))
    k = (slopes.size - 1) // 2
    med = float(slopes[order][k])
    return pd.DataFrame({
        "n_days": [np.int64(d.size)],
        "n_pairs": [np.int64(slopes.size)],
        "slope": [float(_round4(np.array([med]))[0])],
    })


def q_rate_outliers(sf_dir: str):
    """Per-user event-rate anomaly flags (the ops alerting primitive):
    a user-day is an outlier when its event count exceeds the user's
    own mean + 2·pop-std over their active days. Integer sufficient
    moments per user (n, Σc, Σc²) ride the same (user, day) exchange as
    the daily counts; the flagging threshold is a mirrored float
    expression, and only flagged rows are emitted. Exact twin."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    daily = (
        rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                        columns=["user_id", "ts"])
        .map_batches(lambda b: (lambda day: pa.table({
            "user_id": b["user_id"],
            "day": pa.array(day, pa.int64()),
            "one": pa.array(np.ones(len(b), np.int64))}))(
                pc.cast(b["ts"], pa.timestamp("us")).cast(pa.int64())
                .to_numpy(zero_copy_only=False) // 86_400_000_000 - 19723),
            batch_format="pyarrow")
        .groupby(["user_id", "day"])
        .aggregate(Sum("one", alias_name="c"))
        .to_pandas()
    )
    g = daily.groupby("user_id")["c"]
    n = g.transform("size").to_numpy(np.float64)
    sx = g.transform("sum").to_numpy(np.float64)
    sxx = g.transform(lambda x: (x.astype(np.int64) ** 2).sum()).to_numpy(np.float64)
    mean = sx / n
    var = (sxx - sx * sx / n) / n
    thr = mean + 2.0 * np.sqrt(var)
    flag = daily["c"].to_numpy(np.int64) > thr
    out = daily[flag].copy()
    out["mean_c"] = _round4(mean[flag])
    out["thr"] = _round4(thr[flag])
    out = out.astype({"day": np.int64, "c": np.int64})
    return (out[["user_id", "day", "c", "mean_c", "thr"]]
            .sort_values(["user_id", "day"]).reset_index(drop=True))


_TREND_PERIOD_US = 100_000_000  # 100 s — a "week" of the synthetic clock
_TREND_K = 10


def q_trending_terms(sf_dir: str):
    """Trending-term detection (the search-ops zeitgeist panel): per
    time period, the top-10 terms by smoothed occurrence growth
    ``(c_t + 1)/(c_{t-1} + 1)`` over the PREVIOUS period — the
    add-one-smoothed ratio that surfaces new vocabulary without
    dividing by zero. One (term, period) exchange of per-batch
    partials; the LAG + ratio + per-period ranking runs on the tiny
    vocab × periods matrix. Period = 100 synthetic-clock seconds (the
    transcripts source assigns ts = epoch + doc_id s, so periods are
    corpus slices at every sf). Exact LAG twin."""
    from ray.data.aggregate import Sum

    from hybrid_sanctions_search_engine_ray.sources.transcripts import transcripts_from_documents
    from hybrid_sanctions_search_engine_ray.stages.analyze import flat_terms

    cfg = _engine_cfg().analyzer

    def partial(b: pa.Table) -> pa.Table:
        parent, terms = flat_terms(b, cfg)
        if parent.size == 0:
            return pa.table({"term": pa.array([], pa.string()),
                             "period": pa.array([], pa.int64()),
                             "c_p": pa.array([], pa.int64())})
        tsu = pc.cast(b["ts"], pa.timestamp("us")).cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        period = (tsu // _TREND_PERIOD_US)[parent]
        t = pa.table({"term": terms, "period": pa.array(period, pa.int64())})
        g = t.group_by(["term", "period"]).aggregate([([], "count_all")])
        return pa.table({"term": g["term"], "period": g["period"],
                         "c_p": g["count_all"].cast(pa.int64())})

    tp = (transcripts_from_documents(sf_dir)
          .map_batches(partial, batch_format="pyarrow")
          .groupby(["term", "period"])
          .aggregate(Sum("c_p", alias_name="c"))
          .to_pandas())
    tp = tp.sort_values(["term", "period"])
    prev = tp.groupby("term")["c"].shift(1)
    prev_period = tp.groupby("term")["period"].shift(1)
    ok = prev_period == tp["period"] - 1
    cur = tp[ok].copy()
    cur["growth"] = _round4((cur["c"].to_numpy(np.int64) + 1)
                            / (prev[ok].to_numpy() + 1.0))
    cur["rank"] = cur.groupby("period")["growth"].rank(
        method="first", ascending=False).astype(np.int64)
    # rank with deterministic (growth desc, term asc) tie order
    cur = cur.sort_values(["period", "growth", "term"],
                          ascending=[True, False, True])
    cur["rank"] = cur.groupby("period").cumcount().astype(np.int64) + 1
    out = cur[cur["rank"] <= _TREND_K][["period", "rank", "term", "c", "growth"]]
    out = out.rename(columns={"c": "n_occ"}).astype(
        {"period": np.int64, "rank": np.int64, "n_occ": np.int64})
    return out.reset_index(drop=True)


def q_build_metrics(sf_dir: str):
    """Build-lineage integrity audit (the north rule's per-partition
    lineage + metrics, made queryable and verified): fold the unsalted
    index's per-part manifest records into corpus totals — segment
    rows, stored postings, distinct terms — and let the twin recompute
    the same totals from the raw corpus (tf CTE). A lineage record that
    drifts from the data (lost part, double count, stale resume) fails
    value-exactly."""
    from hybrid_sanctions_search_engine_ray.state.manifest import IndexManifest

    m = IndexManifest.load(_coldonly_index(sf_dir))
    parts = m.parts.values()
    return pd.DataFrame({
        "n_rows": [np.int64(sum(int(p.get("n_rows", 0)) for p in parts))],
        "n_postings": [np.int64(sum(int(p.get("n_postings", 0)) for p in parts))],
        "n_terms": [np.int64(sum(int(p.get("n_terms", 0)) for p in parts))],
    })


def q_sample_ci(sf_dir: str):
    """Estimate-vs-truth methodology for at-scale statistics (when a
    full pass is too expensive, sample by conversation hash and bound
    the error): mean document chars from the 10% conv-hash sample
    (md5(conv_id||'-ci') % 10 = 0 — retry-stable, no RNG), a 95% normal
    CI from the sample's integer sufficient statistics (Σx, Σx², n),
    and the exact full-corpus mean beside it with a coverage flag. ONE
    streaming pass carries sample and full partials together; the CI
    arithmetic is a mirrored float expression over integer sums,
    round4. Exact twin."""
    import hashlib

    import ray.data as rd
    from ray.data.aggregate import Sum

    from hybrid_sanctions_search_engine_ray.sources.transcripts import transcripts_from_documents

    def partial(b: pa.Table) -> pa.Table:
        chars = pc.utf8_length(b["text"]).cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        conv = b["conv_id"].to_pylist()
        insample = np.array([
            int.from_bytes(hashlib.md5((c + "-ci").encode()).digest()[:8],
                           "little") % 10 == 0 for c in conv], bool)
        sx = chars[insample]
        return pa.table({
            "n_s": pa.array([int(insample.sum())], pa.int64()),
            "sx_s": pa.array([int(sx.sum())], pa.int64()),
            "sxx_s": pa.array([int((sx.astype(np.int64) ** 2).sum())], pa.int64()),
            "n_f": pa.array([len(chars)], pa.int64()),
            "sx_f": pa.array([int(chars.sum())], pa.int64()),
        })

    t = (transcripts_from_documents(sf_dir)
         .map_batches(partial, batch_format="pyarrow")
         .aggregate(Sum("n_s", alias_name="n_s"), Sum("sx_s", alias_name="sx_s"),
                    Sum("sxx_s", alias_name="sxx_s"), Sum("n_f", alias_name="n_f"),
                    Sum("sx_f", alias_name="sx_f")))
    n_s, sx_s, sxx_s = int(t["n_s"]), int(t["sx_s"]), int(t["sxx_s"])
    n_f, sx_f = int(t["n_f"]), int(t["sx_f"])
    mean_s = sx_s / n_s
    var_s = (sxx_s - sx_s * sx_s / n_s) / n_s
    se = np.sqrt(var_s / n_s)
    lo, hi = mean_s - 1.96 * se, mean_s + 1.96 * se
    mean_f = sx_f / n_f
    return pd.DataFrame({
        "n_sample": [np.int64(n_s)],
        "sample_mean": [float(_round4(np.array([mean_s]))[0])],
        "ci_lo": [float(_round4(np.array([lo]))[0])],
        "ci_hi": [float(_round4(np.array([hi]))[0])],
        "full_mean": [float(_round4(np.array([mean_f]))[0])],
        "covered": [bool(lo <= mean_f <= hi)],
    })


_REL_PER_SHARD = 16


def q_sft_release(sf_dir: str):
    """End-to-end chat-corpus RELEASE (the capstone composition a
    training team actually ships): leakage-safe conv split → train
    conversations rendered through the chat template → WebDataset tar
    shards (conv-number-derived sharding, resumable) → READ BACK from
    the tar bytes → per-shard release accounting (conversations,
    rendered chars). The verified path runs through the physical
    artifact, so the oracle checks the whole split+render+sink chain
    end to end (the wds_export precedent, lifted to conversations)."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from hybrid_sanctions_search_engine_ray.sources.transcripts import transcripts_from_documents
    from hybrid_sanctions_search_engine_ray.sources.webdataset import (
        export_webdataset,
        read_webdataset,
    )
    from hybrid_sanctions_search_engine_ray.stages.chatprep import chat_render
    from hybrid_sanctions_search_engine_ray.stages.sampling import dataset_split

    tagged = dataset_split(transcripts_from_documents(sf_dir), "conv_id",
                           _CONV_SPLITS, salt="-cs")
    train = tagged.map_batches(
        lambda b: b.filter(pc.equal(b["split"], "train")),
        batch_format="pyarrow")
    rendered = chat_render(train)

    def with_key(b: pd.DataFrame) -> pd.DataFrame:
        num = b["conv_id"].str.slice(5).astype(np.int64)
        return pd.DataFrame({"conv_num": num, "text": b["rendered"]})

    keyed = rendered.map_batches(with_key, batch_format="pandas")
    tag = os.path.basename(os.path.normpath(sf_dir))
    out = f"/tmp/graft_sft_release/{tag}"
    export_webdataset(keyed, out, samples_per_shard=_REL_PER_SHARD,
                      key_col="conv_num", text_col="text")

    def partial(b: pa.Table) -> pa.Table:
        sh = pc.divide(b["doc_id"], _REL_PER_SHARD)
        t = pa.table({"shard": sh,
                      "chars": pc.utf8_length(b["text"]).cast(pa.int64())})
        g = t.group_by("shard").aggregate([([], "count_all"), ("chars", "sum")])
        return pa.table({"shard": g["shard"].cast(pa.int64()),
                         "n_p": g["count_all"].cast(pa.int64()),
                         "ch_p": g["chars_sum"].cast(pa.int64())})

    return (read_webdataset(out)
            .map_batches(partial, batch_format="pyarrow")
            .groupby("shard")
            .aggregate(Sum("n_p", alias_name="n_convs"),
                       Sum("ch_p", alias_name="n_chars")))


_PROX_PAIRS = {"p1": ("spark", "join"), "p2": ("window", "stream"),
               "p3": ("hash", "agg")}


def q_prox_boost(sf_dir: str):
    """Proximity-boosted ranking (the ES rescore-by-phrase-proximity
    pattern): for two-term queries, docs containing BOTH terms score
    bm25(q1) + bm25(q2) + 1/(1 + d_min), d_min the minimum absolute
    position distance between any occurrence pair — served from the
    POSITIONAL index (in-document position postings). Per query the
    candidate set is the posting intersection; min-distance per doc is
    a vectorized merge over the two ascending position lists
    (searchsorted of list A into list B, both directions). Rank by raw
    score then round4 (the bm25 twin convention). Twin recomputes
    d_min from the tokpos self-join."""
    from hybrid_sanctions_search_engine_ray.functions.bm25 import idf as _idf
    from hybrid_sanctions_search_engine_ray.functions.bm25 import tf_factor
    from hybrid_sanctions_search_engine_ray.pipelines.query import IndexReader

    index_dir = _ensure_index(sf_dir, positional=True)
    reader = IndexReader(index_dir)
    m = reader.manifest
    rows = []
    for qid, (t1, t2) in _PROX_PAIRS.items():
        p1, p2 = reader.load_raw(t1), reader.load_raw(t2)
        pos1, pos2 = reader.load_positions(t1), reader.load_positions(t2)
        if p1 is None or p2 is None:
            continue
        d1, tf1, dl1 = p1
        d2, tf2, dl2 = p2
        common, i1, i2 = np.intersect1d(d1, d2, return_indices=True)
        if common.size == 0:
            continue
        s1 = tf_factor(tf1[i1], dl1[i1], m.k1, m.b, m.avgdl) * float(_idf(m.n_docs, int(d1.size)))
        s2 = tf_factor(tf2[i2], dl2[i2], m.k1, m.b, m.avgdl) * float(_idf(m.n_docs, int(d2.size)))
        pd1, off1, fl1 = pos1
        pd2, off2, fl2 = pos2
        j1 = np.searchsorted(pd1, common)
        j2 = np.searchsorted(pd2, common)
        boosts = np.empty(common.size, np.float64)
        for x in range(common.size):
            a = fl1[off1[j1[x]]:off1[j1[x] + 1]].astype(np.int64)
            b = fl2[off2[j2[x]]:off2[j2[x] + 1]].astype(np.int64)
            # min |a_i - b_j| via merge: nearest b around each a
            ins = np.searchsorted(b, a)
            cand = []
            left = ins - 1
            okl = left >= 0
            if okl.any():
                cand.append(np.min(np.abs(a[okl] - b[left[okl]])))
            okr = ins < b.size
            if okr.any():
                cand.append(np.min(np.abs(a[okr] - b[ins[okr]])))
            boosts[x] = 1.0 / (1.0 + float(min(cand)))
        score = s1 + s2 + boosts
        order = np.lexsort((common, -score))[:BM25_TOP_K]
        for r, ix in enumerate(order, start=1):
            rows.append({"query_id": qid, "rank": np.int32(r),
                         "doc_id": np.int64(common[ix]),
                         "score": float(_round4(np.array([score[ix]]))[0])})
    return pd.DataFrame(rows)


_CTX_BUDGET = 256  # tokens


def q_context_overflow(sf_dir: str):
    """Context-window accounting per conversation (the agent-replay
    truncation question: at which turn does the running prompt exceed
    the budget?): per conv — turn count, total dl-parity tokens, and
    the first turn index where the cumulative token count crosses 256
    (−1 if it never does). Vectorized per-conv cumsum on the shared
    chatprep bucket exchange; exact window-SUM twin."""
    from ray.data.aggregate import Sum  # noqa: F401  (symmetry with family)

    from hybrid_sanctions_search_engine_ray.sources.transcripts import transcripts_from_documents
    from hybrid_sanctions_search_engine_ray.stages.analyze import flat_terms
    from hybrid_sanctions_search_engine_ray.stages.chatprep import (
        _sorted_runs,
        _with_bucket,
    )

    cfg = _engine_cfg().analyzer

    def per_conv(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) == 0:
            return pd.DataFrame({"conv_id": pd.Series([], dtype=object),
                                 "n_turns": pd.Series([], dtype=np.int64),
                                 "total_tokens": pd.Series([], dtype=np.int64),
                                 "overflow_turn": pd.Series([], dtype=np.int64)})
        parent, _t = flat_terms(
            pa.Table.from_pandas(g[["text"]], preserve_index=False), cfg)
        ntok = np.bincount(parent, minlength=len(g)).astype(np.int64)
        order, c, starts = _sorted_runs(g)
        turn = g["turn_idx"].to_numpy().astype(np.int64)[order]
        nt = ntok[order]
        conv = g["conv_id"].to_numpy()[order]
        ends = np.r_[starts[1:], c.size]
        cum = np.cumsum(nt)
        base = np.repeat(np.r_[0, cum[ends[:-1] - 1]], ends - starts)
        run_cum = cum - base                      # per-conv cumulative tokens
        over = run_cum > _CTX_BUDGET
        rows = []
        for s_, e_ in zip(starts, ends):
            ov = np.flatnonzero(over[s_:e_])
            rows.append((conv[s_], np.int64(e_ - s_),
                         np.int64(run_cum[e_ - 1]),
                         np.int64(turn[s_ + ov[0]]) if ov.size else np.int64(-1)))
        return pd.DataFrame(rows, columns=["conv_id", "n_turns",
                                           "total_tokens", "overflow_turn"])

    return (
        _with_bucket(transcripts_from_documents(sf_dir), 256,
                     ["conv_id", "turn_idx", "text"])
        .groupby("bucket")
        .map_groups(per_conv, batch_format="pandas")
    )


def q_tool_stats(sf_dir: str):
    """Agent-transcript tool-usage profile (the ops dashboard of an
    agent corpus): per tool over tool-role turns — call count, distinct
    conversations, mean turn position (round4) and total payload chars.
    One tool-keyed exchange of per-batch Arrow partials."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from hybrid_sanctions_search_engine_ray.sources.transcripts import transcripts_from_documents

    def partial(b: pa.Table) -> pa.Table:
        m = pc.equal(b["role"], "tool")
        t = b.filter(m)
        tbl = pa.table({
            "tool": t["tool"],
            "conv_id": t["conv_id"],
            "one": pa.array(np.ones(len(t), np.int64)),
            "ti": pc.cast(t["turn_idx"], pa.int64()),
            "ch": pc.utf8_length(t["text"]).cast(pa.int64()),
        })
        g1 = tbl.group_by("tool").aggregate(
            [("one", "sum"), ("ti", "sum"), ("ch", "sum")])
        # distinct conv partials: (tool, conv) pre-dedup per batch
        g2 = tbl.select(["tool", "conv_id"]).group_by(["tool", "conv_id"]) \
            .aggregate([([], "count_all")])
        a = pa.table({"tool": g1["tool"],
                      "conv_id": pa.array([""] * g1.num_rows, pa.string()),
                      "n_p": g1["one_sum"].cast(pa.int64()),
                      "ti_p": g1["ti_sum"].cast(pa.int64()),
                      "ch_p": g1["ch_sum"].cast(pa.int64()),
                      "cv_p": pa.array(np.zeros(g1.num_rows, np.int64))})
        z = np.zeros(g2.num_rows, np.int64)
        bq = pa.table({"tool": g2["tool"], "conv_id": g2["conv_id"],
                       "n_p": pa.array(z), "ti_p": pa.array(z),
                       "ch_p": pa.array(z),
                       "cv_p": pa.array(np.ones(g2.num_rows, np.int64))})
        return pa.concat_tables([a, bq])

    agg = (transcripts_from_documents(sf_dir)
           .map_batches(partial, batch_format="pyarrow")
           .groupby(["tool", "conv_id"])
           .aggregate(Sum("n_p", alias_name="n"), Sum("ti_p", alias_name="ti"),
                      Sum("ch_p", alias_name="ch"), Sum("cv_p", alias_name="cv"))
           .to_pandas())
    base = agg[agg["conv_id"] == ""].set_index("tool")
    convs = agg[(agg["conv_id"] != "") & (agg["cv"] > 0)] \
        .groupby("tool").size()
    out = pd.DataFrame({
        "tool": base.index,
        "n_calls": base["n"].astype(np.int64).to_numpy(),
        "n_convs": convs.reindex(base.index, fill_value=0).astype(np.int64).to_numpy(),
        "avg_turn_idx": _round4(base["ti"].to_numpy()
                                / base["n"].to_numpy().astype(np.float64)),
        "total_chars": base["ch"].astype(np.int64).to_numpy(),
    })
    return out.sort_values("tool").reset_index(drop=True)


def q_tool_chains(sf_dir: str):
    """Tool-call transition matrix within conversations (which tool
    follows which — the agent-behavior summary): consecutive TOOL-role
    turns by turn_idx, counts per (from_tool, to_tool); the shared
    chatprep conv-bucket exchange with a vectorized shifted compare.
    Exact LAG twin."""
    from ray.data.aggregate import Sum

    from hybrid_sanctions_search_engine_ray.sources.transcripts import transcripts_from_documents
    from hybrid_sanctions_search_engine_ray.stages.chatprep import (
        _sorted_runs,
        _with_bucket,
    )

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = g[g["role"] == "tool"]
        if len(g) < 2:
            return pd.DataFrame({"from_tool": pd.Series([], dtype=object),
                                 "to_tool": pd.Series([], dtype=object),
                                 "n_p": pd.Series([], dtype=np.int64)})
        order, c, _ = _sorted_runs(g)
        tool = g["tool"].to_numpy()[order]
        ok = c[1:] == c[:-1]
        at = np.flatnonzero(ok)
        t = pa.table({"f": pa.array(tool[at], pa.string()),
                      "t": pa.array(tool[at + 1], pa.string())})
        gg = t.group_by(["f", "t"]).aggregate([([], "count_all")])
        return pd.DataFrame({"from_tool": gg["f"].to_numpy(zero_copy_only=False),
                             "to_tool": gg["t"].to_numpy(zero_copy_only=False),
                             "n_p": gg["count_all"].to_numpy().astype(np.int64)})

    return (
        _with_bucket(transcripts_from_documents(sf_dir), 256,
                     ["conv_id", "turn_idx", "role", "tool"])
        .groupby("bucket")
        .map_groups(pairs, batch_format="pandas")
        .groupby(["from_tool", "to_tool"])
        .aggregate(Sum("n_p", alias_name="n"))
    )


_JE_D, _JE_W = 4, 512


def q_join_estimate(sf_dir: str):
    """Sketch-based join-size estimation (the AGMS/CM classic: |A ⋈ B|
    from the sketch inner product — here the skew-sensitive SELF-join
    on user_id, whose true size is Σ c(u)²): CM estimate = min over
    rows of Σ_w counter², true size from exact per-key counts; both
    integers, the estimate deterministic given the md5-parity salted
    hash family (the cm_sketch contract), so even the collision
    overcount is exactly SQL-twinnable — and the CM ≥ exact guarantee
    is visible in the released row. Width 512 forces real collisions.
    Two bounded exchanges: (row, bucket) ≤ d·W and the per-key count."""
    import hashlib

    import ray.data as rd
    from ray.data.aggregate import Sum

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["user_id"])

    def partials(b: pa.Table) -> pa.Table:
        keys = pc.cast(b["user_id"], pa.string()).to_pylist()
        uniq, counts = np.unique(np.array(keys, dtype=object),
                                 return_counts=True)
        rows_out, w_out, c_out = [], [], []
        for r in range(_JE_D):
            bk = np.array([int.from_bytes(
                hashlib.md5(f"{r}:{u}".encode()).digest()[:8], "little")
                % _JE_W for u in uniq], dtype=np.int64)
            rows_out.append(np.full(uniq.size, r, np.int64))
            w_out.append(bk)
            c_out.append(counts.astype(np.int64))
        # per-key exact partials ride along at row = -1, bucket = md5(key)
        kh = np.array([int.from_bytes(hashlib.md5(u.encode()).digest()[:8],
                                      "little") % (1 << 62) for u in uniq],
                      dtype=np.int64)
        rows_out.append(np.full(uniq.size, -1, np.int64))
        w_out.append(kh)
        c_out.append(counts.astype(np.int64))
        return pa.table({"r": pa.array(np.concatenate(rows_out), pa.int64()),
                         "w": pa.array(np.concatenate(w_out), pa.int64()),
                         "c_p": pa.array(np.concatenate(c_out), pa.int64())})

    agg = (ev.map_batches(partials, batch_format="pyarrow")
           .groupby(["r", "w"])
           .aggregate(Sum("c_p", alias_name="c"))
           .to_pandas())
    exact_rows = agg[agg["r"] == -1]
    exact = int((exact_rows["c"].to_numpy(np.int64) ** 2).sum())
    ests = []
    for r in range(_JE_D):
        s = agg[agg["r"] == r]["c"].to_numpy(np.int64)
        ests.append(int((s ** 2).sum()))
    est = min(ests)
    return pd.DataFrame({"exact_size": [np.int64(exact)],
                         "cm_estimate": [np.int64(est)],
                         "overcount": [np.int64(est - exact)]})


def q_scd2_intervals(sf_dir: str):
    """Slowly-changing-dimension type-2 build (the warehouse history
    table): per user, consecutive runs of the same event_type (ordered
    by ts, event_id tiebreak) collapse into validity intervals —
    (user_id, status, valid_from_us, valid_to_us, n_events), where
    valid_to is the next run's start and −1 marks the open current
    interval. One user-keyed exchange; inside each group the
    gaps-and-islands pass is one vectorized shift compare + reduceat.
    Exact twin via the row_number-difference islands idiom."""
    import ray.data as rd

    def runs(g: pd.DataFrame) -> pd.DataFrame:
        tsu = g["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        eid = g["event_id"].to_numpy().astype(np.int64)
        et = g["event_type"].to_numpy()
        order = np.lexsort((eid, tsu))
        tsu, et = tsu[order], et[order]
        n = tsu.size
        new_run = np.r_[True, et[1:] != et[:-1]]
        starts = np.flatnonzero(new_run)
        ends = np.r_[starts[1:], n]
        valid_from = tsu[starts]
        valid_to = np.r_[tsu[starts[1:]], np.int64(-1)]
        return pd.DataFrame({
            "user_id": np.repeat(g["user_id"].iloc[0], starts.size),
            "status": et[starts],
            "valid_from_us": valid_from.astype(np.int64),
            "valid_to_us": valid_to.astype(np.int64),
            "n_events": (ends - starts).astype(np.int64),
        })

    return (rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                            columns=["user_id", "event_id", "event_type", "ts"])
            .groupby("user_id")
            .map_groups(runs, batch_format="pandas"))


def q_quantile_normalize(sf_dir: str):
    """ECDF / quantile normalization of the value column (the ML
    feature-prep primitive: map each value to its empirical percentile,
    ties → min rank): pct = count(values < v) / n over exact integer
    cents. Two streaming passes, nothing pinned — pass 1 is the bounded
    (cents, count) value-histogram exchange (the repo's exact-quantile
    pattern), whose cumulative-below table broadcasts once; pass 2 maps
    every event through a vectorized searchsorted lookup. Twin:
    ``(rank() OVER (ORDER BY cents) − 1) / n`` — rank's min-tie rule IS
    count-below + 1."""
    import ray
    import ray.data as rd
    from ray.data.aggregate import Sum

    from hybrid_sanctions_search_engine_ray.stages.textops import exact_cents

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_id", "value"])

    def hist(b: pa.Table) -> pa.Table:
        t = pa.table({"cents": exact_cents(b["value"])})
        g = t.group_by("cents").aggregate([([], "count_all")])
        return pa.table({"cents": g["cents"],
                         "c_p": g["count_all"].cast(pa.int64())})

    h = (ev.map_batches(hist, batch_format="pyarrow")
         .groupby("cents").aggregate(Sum("c_p", alias_name="c")).to_pandas()
         .sort_values("cents"))
    vals = h["cents"].to_numpy(np.int64)
    below = np.concatenate([[0], np.cumsum(h["c"].to_numpy(np.int64))[:-1]])
    n = int(h["c"].sum())
    st = ray.put({"vals": vals, "below": below, "n": n})

    def norm(b: pa.Table) -> pa.Table:
        s = ray.get(st)
        cents = exact_cents(b["value"]).to_numpy(zero_copy_only=False)
        idx = np.searchsorted(s["vals"], cents)
        pct = _round4(s["below"][idx] / float(s["n"]))
        return pa.table({"event_id": b["event_id"],
                         "cents": pa.array(cents, pa.int64()),
                         "pct": pa.array(pct, pa.float64())})

    return ev.map_batches(norm, batch_format="pyarrow")


_FUNNEL_STEPS = ["view", "click", "purchase"]
_FUNNEL_SPAN_S = 172800  # 48 h per hop


def q_funnel_rates(sf_dir: str):
    """Funnel conversion analysis (the product-analytics companion to
    the EQL sequence engine): per step of view → click → purchase, the
    number of users whose earliest-follower chain reaches that step
    with each hop within 48 h, plus step-over-step and overall
    conversion rates. Per-user chaining is the eql_sequence
    searchsorted hop (one user-keyed exchange, earliest-follower
    deterministic); the funnel totals are a steps-sized aggregation.
    Exact LEFT-JOIN-chain twin."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    span_us = _FUNNEL_SPAN_S * 1_000_000

    def chain(g: pd.DataFrame) -> pd.DataFrame:
        tsu = g["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        et = g["event_type"].to_numpy()
        order = np.argsort(tsu, kind="stable")
        tsu, et = tsu[order], et[order]
        depth = 0
        t_cur = None
        for step in _FUNNEL_STEPS:
            cand = tsu[et == step]
            if t_cur is None:
                if cand.size == 0:
                    break
                t_cur = int(cand[0])      # earliest first-step event
            else:
                j = np.searchsorted(cand, t_cur, side="right")
                if j >= cand.size or cand[j] > t_cur + span_us:
                    break
                t_cur = int(cand[j])      # earliest follower within span
            depth += 1
        reach = np.zeros(len(_FUNNEL_STEPS), np.int64)
        reach[:depth] = 1
        return pd.DataFrame({"step": np.arange(1, len(_FUNNEL_STEPS) + 1,
                                               dtype=np.int64),
                             "r_p": reach})

    tot = (
        rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                        columns=["user_id", "event_type", "ts"])
        .groupby("user_id")
        .map_groups(chain, batch_format="pandas")
        .groupby("step")
        .aggregate(Sum("r_p", alias_name="n_users"))
        .to_pandas()
        .sort_values("step")
        .reset_index(drop=True)
    )
    n = tot["n_users"].to_numpy(np.int64)
    prev = np.concatenate([[n[0]], n[:-1]])
    step_rate = np.where(prev > 0, n / np.maximum(prev, 1), 0.0)
    overall = np.where(n[0] > 0, n / max(int(n[0]), 1), 0.0)
    return pd.DataFrame({
        "step": tot["step"].astype(np.int64),
        "event_type": _FUNNEL_STEPS,
        "n_users": n,
        "step_rate": _round4(step_rate),
        "overall_rate": _round4(overall),
    })


def q_cohort_retention(sf_dir: str):
    """Cohort retention matrix (the product-analytics standard): users
    cohorted by FIRST-event week; for each (cohort_week, week_offset ≥
    0), the count of cohort users active that week and the retention
    rate against the cohort size. Shape: one (user, week) distinct
    exchange + one user-sized Min groupby for cohort assignment, the
    two joined with the engine's own bucketed hash join (user-keyed, no
    broadcast), then a (cohort, offset)-sized aggregation; the final
    rate division happens on the tiny matrix. Exact twin."""
    import ray.data as rd
    from ray.data.aggregate import Min, Sum

    def weeks(b: pa.Table) -> pa.Table:
        tsu = pc.cast(b["ts"], pa.timestamp("us")).cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        wk = (tsu // 86_400_000_000 - 19723) // 7
        t = pa.table({"user_id": b["user_id"], "week": pa.array(wk, pa.int64())})
        g = t.group_by(["user_id", "week"]).aggregate([([], "count_all")])
        return g.select(["user_id", "week"])

    uw = (rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                          columns=["user_id", "ts"])
          .map_batches(weeks, batch_format="pyarrow")
          .groupby(["user_id", "week"])
          .aggregate(Min("week", alias_name="w_")))  # distinct via groupby
    uw = uw.map_batches(lambda b: b.select(["user_id", "week"]),
                        batch_format="pyarrow")
    first = (uw.groupby("user_id")
             .aggregate(Min("week", alias_name="cohort_week")))

    from hybrid_sanctions_search_engine_ray.stages.joins import bucketed_join

    joined = bucketed_join(uw, first, on="user_id", num_buckets=16)

    def offs(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "cohort_week": b["cohort_week"].astype(np.int64),
            "week_offset": (b["week"] - b["cohort_week"]).astype(np.int64),
            "one": np.ones(len(b), np.int64)})

    cells = (joined.map_batches(offs, batch_format="pandas")
             .groupby(["cohort_week", "week_offset"])
             .aggregate(Sum("one", alias_name="n_active"))
             .to_pandas())
    sizes = cells[cells["week_offset"] == 0][["cohort_week", "n_active"]] \
        .rename(columns={"n_active": "n_cohort"})
    out = cells.merge(sizes, on="cohort_week")
    out["rate"] = _round4(out["n_active"].to_numpy()
                          / out["n_cohort"].to_numpy().astype(np.float64))
    out = out.astype({"cohort_week": np.int64, "week_offset": np.int64,
                      "n_active": np.int64, "n_cohort": np.int64})
    return (out[["cohort_week", "week_offset", "n_active", "n_cohort", "rate"]]
            .sort_values(["cohort_week", "week_offset"]).reset_index(drop=True))


_SCREEN_QUERIES = ["window", "vector", "strem", "filtr", "grup",
                   "botsh", "mirj", "weondew", "zzqqzz", "sately"]
_SCREEN_JW_TAU = 8500  # ×1e4 — jaro-winkler acceptance threshold


def q_screen_cascade(sf_dir: str):
    """The reference's tiered screening flow as ONE composed query (the
    sanctions-domain user story: exact hit → fuzzy name match →
    phonetic block → no match): each probe name resolves against the
    corpus dictionary through the cascade
    exact / jaro-winkler ≥ 0.85 / shared-Soundex-bucket / none,
    emitting (query, tier, matched, jw_x1e4). Deterministic pick per
    tier: jaro by (jw desc, term asc) using the bit-parity scorer
    (functions/fuzzy.jaro_winkler ↔ DuckDB jaro_winkler_similarity),
    phonetic by (term asc) within the bucket; scores integer ×1e4.
    The dictionary is the distributed term_dictionary exchange; the
    cascade itself is probe-count × vocab work (the jaro_expand
    dictionary-scan precedent)."""
    from hybrid_sanctions_search_engine_ray.functions.fuzzy import jaro_winkler
    from hybrid_sanctions_search_engine_ray.functions.phonetic import soundex
    from hybrid_sanctions_search_engine_ray.stages.textops import round_half_away

    vocab = sorted(q_term_dictionary(sf_dir).to_pandas()["term"])
    rows = []
    for q in _SCREEN_QUERIES:
        if q in vocab:
            rows.append({"query": q, "tier": "exact", "matched": q,
                         "jw_x1e4": np.int64(10000)})
            continue
        jw = np.array([float(jaro_winkler(q, t)) for t in vocab])
        jw_i = round_half_away(jw * 1e4, 0).astype(np.int64)
        best = int(np.lexsort((np.array(vocab, dtype=object), -jw_i))[0])
        if jw_i[best] >= _SCREEN_JW_TAU:
            rows.append({"query": q, "tier": "jaro", "matched": vocab[best],
                         "jw_x1e4": np.int64(jw_i[best])})
            continue
        sx = soundex(q)
        bucket = [t for t in vocab
                  if t.isascii() and t.isalpha() and soundex(t) == sx]
        if bucket:
            rows.append({"query": q, "tier": "phonetic", "matched": bucket[0],
                         "jw_x1e4": np.int64(0)})
            continue
        rows.append({"query": q, "tier": "none", "matched": "",
                     "jw_x1e4": np.int64(0)})
    return pd.DataFrame(rows)


def q_type_correlation(sf_dir: str):
    """Correlated-series search (the ICDE'22 sketch-index problem at
    exact scale): pairwise Pearson correlation between the DENSE daily
    count series of every event-type pair — zeros filled over the full
    observed day range, so the moments are well-defined. The
    corpus-sized pass is the one (day, type) exchange shared with
    sliding_topk; correlation derives from integer sufficient moments
    (n, Σx, Σy, Σxy, Σx², Σy²) on the tiny types×days matrix, the float
    expression mirrored then round4. Returns (type_a < type_b, r)."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    daily = (
        rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                        columns=["event_type", "ts"])
        .map_batches(lambda b: (lambda day: pa.table({
            "event_type": pc.cast(b["event_type"], pa.string()),
            "day": pa.array(day, pa.int64()),
            "one": pa.array(np.ones(len(b), np.int64))}))(
                pc.cast(b["ts"], pa.timestamp("us")).cast(pa.int64())
                .to_numpy(zero_copy_only=False) // 86_400_000_000 - 19723),
            batch_format="pyarrow")
        .groupby(["event_type", "day"])
        .aggregate(Sum("one", alias_name="n"))
        .to_pandas()
    )
    days = np.arange(int(daily["day"].min()), int(daily["day"].max()) + 1)
    types = sorted(daily["event_type"].unique())
    mat = np.zeros((len(types), days.size), dtype=np.int64)
    t_idx = {t: i for i, t in enumerate(types)}
    mat[daily["event_type"].map(t_idx).to_numpy(),
        daily["day"].to_numpy() - days[0]] = daily["n"].to_numpy()
    n = days.size
    rows = []
    for i in range(len(types)):
        for j in range(i + 1, len(types)):
            x, y = mat[i], mat[j]
            sx, sy = int(x.sum()), int(y.sum())
            sxy = int((x * y).sum())
            sxx, syy = int((x * x).sum()), int((y * y).sum())
            num = n * sxy - sx * sy
            den = np.sqrt(float(n * sxx - sx * sx) * float(n * syy - sy * sy))
            r = 0.0 if den == 0.0 else float(
                _round4(np.array([num / den]))[0])
            rows.append({"type_a": types[i], "type_b": types[j], "r": r})
    return pd.DataFrame(rows)


_SLTK_WIN_D, _SLTK_K = 7, 3


def q_sliding_topk(sf_dir: str):
    """Continuous top-k over the event stream (the SAP/ICDE'18 class of
    standing queries): for every day, the top-3 event types by 7-day
    trailing count — the dashboard query that re-ranks as the window
    slides. ONE (day, type)-keyed exchange of daily partials (the
    corpus-sized pass); the sliding re-aggregation runs on the tiny
    (days × types) matrix — vectorized cumsum difference per type, then
    per-day (count desc, type) ranking. Types absent from a window are
    absent from that day's ranking (count-0 rows are not invented).
    Exact window-range-join twin."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    daily = (
        rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                        columns=["event_type", "ts"])
        .map_batches(lambda b: (lambda day: pa.table({
            "event_type": pc.cast(b["event_type"], pa.string()),
            "day": pa.array(day, pa.int64()),
            "one": pa.array(np.ones(len(b), np.int64))}))(
                pc.cast(b["ts"], pa.timestamp("us")).cast(pa.int64())
                .to_numpy(zero_copy_only=False) // 86_400_000_000 - 19723),
            batch_format="pyarrow")
        .groupby(["event_type", "day"])
        .aggregate(Sum("one", alias_name="n"))
        .to_pandas()
    )
    days = np.arange(int(daily["day"].min()), int(daily["day"].max()) + 1)
    types = sorted(daily["event_type"].unique())
    # dense (types × days) matrix → trailing sums via cumsum difference
    mat = np.zeros((len(types), days.size), dtype=np.int64)
    t_idx = {t: i for i, t in enumerate(types)}
    mat[daily["event_type"].map(t_idx).to_numpy(),
        daily["day"].to_numpy() - days[0]] = daily["n"].to_numpy()
    cs = np.concatenate([np.zeros((len(types), 1), np.int64),
                         np.cumsum(mat, axis=1)], axis=1)
    lo = np.maximum(np.arange(days.size) - (_SLTK_WIN_D - 1), 0)
    trail = cs[:, np.arange(days.size) + 1] - cs[:, lo]   # (T, D)
    rows = []
    for di, d in enumerate(days):
        col = trail[:, di]
        nz = np.flatnonzero(col > 0)
        order = nz[np.lexsort((np.array(types, dtype=object)[nz], -col[nz]))]
        for r, ti in enumerate(order[:_SLTK_K], start=1):
            rows.append({"day": np.int64(d), "rank": np.int32(r),
                         "event_type": types[ti], "n_7d": np.int64(col[ti])})
    return pd.DataFrame(rows)


def q_kn_perplexity(sf_dir: str):
    """Held-out bigram perplexity of the val split under the
    train-split interpolated Kneser-Ney LM (the LM-eval loop every
    training pipeline runs), on the conv_split assignment. Per-bigram
    log-probs quantized int64 ×10⁴ BEFORE summation (the nb_classify
    exactness pattern) so the corpus sum is batch-order-invariant;
    unseen TERMS are excluded and counted OOV (unseen pairs of seen
    terms are covered by the continuation term). One train-adjacency
    build + one val-bigram exchange (stages/textrank.kn_perplexity)."""
    from hybrid_sanctions_search_engine_ray.sources.transcripts import transcripts_from_documents
    from hybrid_sanctions_search_engine_ray.stages.sampling import dataset_split
    from hybrid_sanctions_search_engine_ray.stages.textrank import kn_perplexity

    tagged = dataset_split(transcripts_from_documents(sf_dir), "conv_id",
                           _CONV_SPLITS, salt="-cs")
    return kn_perplexity(tagged, discount=_KN_D)


def q_readability(sf_dir: str):
    """Flesch–Kincaid grade per document (the classic readability
    feature in quality-filter panels): regex-defined word / sentence /
    vowel-group counts, one Arrow count_substring_regex kernel each,
    zero exchanges (stages/textops.readability_scores). Twin recounts
    with regexp_extract_all (RE2 parity) and mirrors the float grade
    expression."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.textops import readability_scores

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "text"])
    return readability_scores(ds)


_DDI_PARTS = 16  # hash-prefix partitions of the fingerprint store


def q_dedup_incremental(sf_dir: str):
    """Incremental exact dedup against a PERSISTED fingerprint store
    (the production re-ingest shape: don't rescan the corpus, probe the
    stored hashes): the corpus text-md5 set is written once as parquet
    partitioned by the hex-prefix (int(md5[:2],16) % 16), then a
    simulated delta (every 10th doc, half of them modified) probes the
    store with a bucketed probe: delta rows shuffle by their OWN hash
    prefix and each group task reads exactly its one store partition —
    partition pruning on the store, the delta never meets the corpus
    rows themselves, and a store partition is read only if the delta
    names it. Emits per-delta-doc (doc_id, known); exact md5 twin."""
    import glob as _glob

    import ray.data as rd

    from hybrid_sanctions_search_engine_ray import __version__ as _fmt
    from hybrid_sanctions_search_engine_ray.stages.dedup import add_md5

    tag = os.path.basename(os.path.normpath(sf_dir))
    store = f"/tmp/graft_dedup_store/{_fmt}/{tag}"

    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["doc_id", "text"])
    if not os.path.exists(os.path.join(store, "_DONE")):
        shutil.rmtree(store, ignore_errors=True)

        def fp(b: pa.Table) -> pa.Table:
            t = add_md5(b)
            pref = pc.utf8_slice_codeunits(t["text_md5"], 0, 2)
            part = np.array([int(p, 16) % _DDI_PARTS
                             for p in pref.to_pylist()], np.int64)
            return pa.table({"text_md5": t["text_md5"],
                             "part": pa.array(part, pa.int64())})

        (docs.map_batches(fp, batch_format="pyarrow")
             .groupby("part")
             .map_groups(lambda g: g.drop_duplicates("text_md5"),
                         batch_format="pandas")
             .write_parquet(store, partition_cols=["part"]))
        with open(os.path.join(store, "_DONE"), "w") as f:
            f.write("ok")

    def mk_delta(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        keep = ids % 10 == 0
        t = b.filter(pa.array(keep))
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        text = t["text"].to_pylist()
        # every second delta doc gets modified content → unknown to the store
        modified = [(x or "") + " __v2" if i % 20 == 10 else (x or "")
                    for i, x in zip(ids, text)]
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "text": pa.array(modified, pa.string())})

    def with_part(b: pa.Table) -> pa.Table:
        pref = pc.utf8_slice_codeunits(b["text_md5"], 0, 2)
        part = np.array([int(p, 16) % _DDI_PARTS for p in pref.to_pylist()],
                        np.int64)
        return b.append_column("part", pa.array(part, pa.int64()))

    def probe_group(g: pd.DataFrame) -> pd.DataFrame:
        import pyarrow.parquet as _pq

        p = int(g["part"].iloc[0])
        files = _glob.glob(os.path.join(store, f"part={p}", "*.parquet"))
        known: set = set()
        for f in files:
            known.update(_pq.read_table(f, columns=["text_md5"])
                         ["text_md5"].to_pylist())
        return pd.DataFrame({"doc_id": g["doc_id"].astype(np.int64),
                             "known": g["text_md5"].isin(known)})

    return (docs.map_batches(mk_delta, batch_format="pyarrow")
            .map_batches(add_md5, batch_format="pyarrow")
            .map_batches(with_part, batch_format="pyarrow")
            .groupby("part")
            .map_groups(probe_group, batch_format="pandas")
            .sort("doc_id"))


_MV_SPLIT_DAY = 20  # base = days < 20, delta = days >= 20


def q_incr_agg(sf_dir: str):
    """Incremental materialized-view maintenance (the warehouse
    pattern: refresh an aggregate from the delta instead of
    rescanning): the per-(event_type, day) count/sum view is built once
    over the base slice (days < 20), PERSISTED to parquet, and on
    "refresh" only the delta slice (days ≥ 20) is aggregated and
    sum-merged with the stored partials — additive aggregates merge by
    summation, the incremental-view invariant. The twin recomputes the
    view from the FULL table, so the query proves incremental == full.
    Exact-cents integer sums (the repo's money convention)."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from hybrid_sanctions_search_engine_ray import __version__ as _fmt
    from hybrid_sanctions_search_engine_ray.stages.textops import exact_cents

    tag = os.path.basename(os.path.normpath(sf_dir))
    base_path = f"/tmp/graft_mv_cache/{_fmt}/{tag}/base_view"

    def partial(b: pa.Table, keep_base: bool | None) -> pa.Table:
        tsu = pc.cast(b["ts"], pa.timestamp("us")).cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        day = tsu // 86_400_000_000 - 19723  # days since 2024-01-01
        if keep_base is True:
            m = day < _MV_SPLIT_DAY
        elif keep_base is False:
            m = day >= _MV_SPLIT_DAY
        else:
            m = np.ones(len(b), bool)
        t = pa.table({"event_type": pc.cast(b["event_type"], pa.string()),
                      "day": pa.array(day, pa.int64()),
                      "one": pa.array(np.ones(len(b), np.int64)),
                      "cents": exact_cents(b["value"])}).filter(pa.array(m))
        g = t.group_by(["event_type", "day"]).aggregate(
            [("one", "sum"), ("cents", "sum")])
        return pa.table({"event_type": g["event_type"], "day": g["day"],
                         "n_p": g["one_sum"].cast(pa.int64()),
                         "c_p": g["cents_sum"].cast(pa.int64())})

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_type", "ts", "value"])
    # the _DONE marker records the VIEW DEFINITION so a changed split
    # day / day-offset invalidates the cached base instead of silently
    # serving a stale view
    view_def = f"split={_MV_SPLIT_DAY};epoch_off=19723;v=1"
    done_path = os.path.join(base_path, "_DONE")
    fresh = False
    if os.path.exists(done_path):
        with open(done_path) as f:
            fresh = f.read() == view_def
    if not fresh:
        shutil.rmtree(base_path, ignore_errors=True)
        (ev.map_batches(lambda b: partial(b, True), batch_format="pyarrow")
           .groupby(["event_type", "day"])
           .aggregate(Sum("n_p", alias_name="n_p"),
                      Sum("c_p", alias_name="c_p"))
           .write_parquet(base_path))
        with open(done_path, "w") as f:
            f.write(view_def)

    base = rd.read_parquet(base_path)
    delta = ev.map_batches(lambda b: partial(b, False), batch_format="pyarrow")
    merged = (base.union(delta)
              .groupby(["event_type", "day"])
              .aggregate(Sum("n_p", alias_name="n_events"),
                         Sum("c_p", alias_name="sum_cents")))
    return merged


_BLOOM_M = 8192
_BLOOM_MOD = 7  # build side = suppliers with s_suppkey % 7 == 0


def q_bloom_prefilter(sf_dir: str):
    """Bloom-filter join pushdown accounting: a k=2 md5-parity Bloom
    filter of the build side (suppliers with s_suppkey % 7 == 0 — a
    deterministic subset non-empty at every sf) is broadcast
    and probed by every lineitem row before any shuffle — rows scanned,
    rows passing, true matches and MEASURED false positives (the pass
    set is a deterministic function of the bit layout, so even the
    false positives are exactly SQL-reproducible;
    stages/joins.bloom_prefilter_stats). One streaming pass, zero
    shuffles."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.joins import bloom_prefilter_stats

    sup = rd.read_parquet(os.path.join(sf_dir, "supplier.parquet"),
                          columns=["s_suppkey", "s_nationkey"]).to_pandas()
    rkeys = sup[sup["s_suppkey"] % _BLOOM_MOD == 0]["s_suppkey"].astype(str)
    left = rd.read_parquet(os.path.join(sf_dir, "lineitem.parquet"),
                           columns=["l_suppkey"])
    return bloom_prefilter_stats(left, "l_suppkey", rkeys, m_bits=_BLOOM_M)


_NB_CAL_BINS = 5


def q_nb_calibration(sf_dir: str):
    """Classifier reliability diagram (the calibration check run on
    every corpus-curation classifier): equal-width integer bins over
    the winning NB scores (×10⁴ domain — no float binning), per bin
    the doc count, correct count and accuracy. Equal-WIDTH bins keep
    the contract rank-free (value arithmetic only — ntile would need a
    global sort); exchange shape: ONE (score, correct)-keyed aggregated
    histogram rides out of the scoring pass (distinct-winning-score
    cardinality, heavily tied in the ×10⁴ integer domain), binning is
    driver arithmetic on that histogram. Twin reuses the shared NB CTE
    chain (_NB_CORE_CTES) with the same bin formula."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from hybrid_sanctions_search_engine_ray.stages.nb_classify import nb_train_score

    def split(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        return b.append_column("is_test", pa.array(ids % 5 == 0))

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "text", "lang"]) \
           .map_batches(split, batch_format="pyarrow")
    res = nb_train_score(ds, "lang", "is_test", n_buckets=_NB_B)

    def hist_partial(b: pa.Table) -> pa.Table:
        correct = pc.equal(b["pred_label"], b["true_label"])
        t = pa.table({"s": b["score_x1e4"], "correct": correct})
        g = t.group_by(["s", "correct"]).aggregate([([], "count_all")])
        return pa.table({"s": g["s"], "correct": g["correct"],
                         "c_p": g["count_all"].cast(pa.int64())})

    hist = (res.map_batches(hist_partial, batch_format="pyarrow")
            .groupby(["s", "correct"])
            .aggregate(Sum("c_p", alias_name="c"))
            .to_pandas())
    s = hist["s"].to_numpy(np.int64)
    mn, mx = int(s.min()), int(s.max())
    bins = (s - mn) * _NB_CAL_BINS // (mx - mn + 1)
    hist["bin"] = bins
    g = hist.groupby("bin", sort=True)
    n = g["c"].sum().astype(np.int64)
    ncorr = hist[hist["correct"]].groupby("bin")["c"].sum() \
        .reindex(n.index, fill_value=0).astype(np.int64)
    acc = _round4((ncorr.to_numpy() / n.to_numpy().astype(np.float64)))
    return pd.DataFrame({"bin": n.index.to_numpy().astype(np.int64),
                         "n": n.to_numpy(), "n_correct": ncorr.to_numpy(),
                         "acc": acc})


_LTR_K = 20


def q_ltr_features(sf_dir: str):
    """Learning-to-rank feature extraction (the ES-LTR / MSLR dataset
    shape): for each query and its BM25 top-20 docs, emit the classic
    per-(query, doc) feature vector — bm25 score, matched-term count,
    summed tf, doc length, and the summed/max idf of matched terms.
    The op that turns the index into LTR training rows; features are
    exactly the quantities the scorer already holds, so the twin
    recomputes every column from the tf/df/dl CTEs. round4 on the two
    float features (the multi-float-sum convention); candidate set =
    rank ≤ 20 by (raw score desc, doc_id), the scorer's rank rule."""
    from hybrid_sanctions_search_engine_ray.functions.bm25 import idf as _idf
    from hybrid_sanctions_search_engine_ray.pipelines.query import IndexReader

    index_dir = _ensure_index(sf_dir)
    reader = IndexReader(index_dir)
    n_docs = reader.manifest.n_docs
    rows = []
    for qid, text in BM25_QUERIES.items():
        terms = sorted(set(text.lower().split()))
        posts = []
        for t in terms:
            raw = reader.load_raw(t)
            if raw is not None:
                posts.append((t, raw))
        if not posts:
            continue
        docs, scores = reader.search_one(text, _LTR_K)
        doc_set = {int(d): i for i, d in enumerate(docs)}
        feat = {int(d): {"n_matched": 0, "sum_tf": 0, "dl": 0,
                         "sum_idf": 0.0, "max_idf": 0.0} for d in docs}
        for t, (dids, tfs, dls) in posts:
            t_idf = float(_idf(n_docs, int(dids.size)))
            for j in np.flatnonzero(np.isin(dids, docs)):
                f = feat[int(dids[j])]
                f["n_matched"] += 1
                f["sum_tf"] += int(tfs[j])
                f["dl"] = int(dls[j])
                f["sum_idf"] += t_idf
                f["max_idf"] = max(f["max_idf"], t_idf)
        for d, sc in zip(docs, scores):
            f = feat[int(d)]
            rows.append({
                "query_id": qid, "doc_id": int(d),
                "rank": np.int32(doc_set[int(d)] + 1),
                "bm25": float(_round4(np.array([sc]))[0]),
                "n_matched": np.int64(f["n_matched"]),
                "sum_tf": np.int64(f["sum_tf"]),
                "dl": np.int64(f["dl"]),
                "sum_idf": float(_round4(np.array([f["sum_idf"]]))[0]),
                "max_idf": float(_round4(np.array([f["max_idf"]]))[0]),
            })
    out = pd.DataFrame(rows)
    return out.sort_values(["query_id", "rank"]).reset_index(drop=True)


_KN_D, _KN_MIN = 0.75, 5


def q_kn_bigrams(sf_dir: str):
    """Interpolated Kneser-Ney bigram LM probabilities (Kneser & Ney
    '95 / Chen & Goodman '99): absolute discount D=0.75, continuation
    probability from bigram-type counts — the n-gram smoothing standard
    behind classical LM scoring, over the shared directed adjacency
    (stages/textrank.kn_bigrams; one bigram shuffle + three node-sized
    marginals as broadcast arrays). Twin mirrors the float expression
    association-for-association over integer inputs, then round4."""
    from hybrid_sanctions_search_engine_ray.sources.transcripts import transcripts_from_documents
    from hybrid_sanctions_search_engine_ray.stages.textrank import kn_bigrams

    return kn_bigrams(transcripts_from_documents(sf_dir),
                      discount=_KN_D, min_count=_KN_MIN)


_IVJ_GAP_S = 3600


def q_interval_join(sf_dir: str):
    """Temporal interval self-join reduced to per-user pair stats: for
    each user, the count and exact µs gap sum of ordered event pairs
    within (0, 1h] — the stream-stream interval-join operator (Flink
    ``b.ts > a.ts AND b.ts <= a.ts + Δ``) via time-bucket + previous-
    bucket replication, the 1-D analog of the geo_pairs grid shuffle
    (stages/windows.interval_self_join_stats). All-integer epoch-µs;
    exact self-join twin."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.windows import interval_self_join_stats

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["user_id", "ts"])
    return interval_self_join_stats(ds, max_gap_s=_IVJ_GAP_S)


def q_ef_bytes(sf_dir: str):
    """Elias-Fano postings-layout audit (Vigna WSDM'13 — the
    quasi-succinct doc-id code behind Lucene/PISA): decode each term's
    REAL stored posting list from the unsalted index, re-encode it
    Elias-Fano against the global doc universe, and report the exact
    encoded byte counts (functions/codec.ef_encode, roundtrip-tested).
    l uses the integer identity floor(log2(u/n)) = bit_length(u//n)−1,
    so the twin reproduces the byte accounting in pure BIGINT (CASE
    bit-length ladder + shift) — the codec-choice companion to
    postings_bytes (varint): together they quantify the layout
    tradeoff on the physical index."""
    from ray.data.aggregate import Sum

    from hybrid_sanctions_search_engine_ray.functions.codec import ef_encode
    from hybrid_sanctions_search_engine_ray.stages.postings import decode_segment, read_segments
    from hybrid_sanctions_search_engine_ray.state.manifest import IndexManifest

    index_dir = _coldonly_index(sf_dir)
    universe = IndexManifest.load(index_dir).n_docs

    segs = read_segments(index_dir, ["term", "seg_idx", "n_docs", "docs"])

    def partial(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        # a sub-segmented term (rollover/append) would double-count l and
        # mis-size the encoding vs the twin, which encodes each term's
        # full list once — refuse rather than silently diverge (ADVICE r04)
        if pc.max(b["seg_idx"]).as_py() not in (None, 0):
            raise ValueError("ef_bytes: sub-segmented posting list — merge "
                             "segments before the EF layout audit")
        d, _, _, n = decode_segment(b)
        ends = np.cumsum(n)
        ls, szs = [], []
        for s, e in zip((ends - n).tolist(), ends.tolist()):  # EF codes one list per call
            lo, up, l = ef_encode(d[s:e], universe)
            ls.append(l)
            szs.append(len(lo) + len(up))
        return pa.table({"term": b["term"],
                         "n_p": pa.array(n, pa.int64()),
                         "l_p": pa.array(ls, pa.int64()),
                         "sz_p": pa.array(szs, pa.int64())})

    return (segs.map_batches(partial, batch_format="pyarrow")
            .groupby("term")
            .aggregate(Sum("n_p", alias_name="n_docs"),
                       Sum("l_p", alias_name="l"),
                       Sum("sz_p", alias_name="ef_bytes")))


_AC_PATTERNS = ["join filter", "the data", "hash agg", "slow query",
                "и", "wire transfer", "zzz_never_present"]


def q_ac_match(sf_dir: str):
    """Multi-pattern exact substring screening (the reference's
    Aho–Corasick tier shape): per dictionary pattern, containing-doc
    count and total non-overlapping occurrences over the raw document
    text (stages/textops.dictionary_match — one Arrow count_substring
    kernel per pattern per batch, P-row exchange). Twin uses the
    replace-trick occurrence count; both sides count non-overlapping
    left-to-right, so the match is exact including absent patterns."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.textops import dictionary_match

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "text"])
    return dictionary_match(ds, _AC_PATTERNS)


def q_dpo_pairs(sf_dir: str):
    """Preference-pair (DPO/RLHF) dataset construction: per
    conversation, chosen = assistant turn first by (token count desc,
    turn asc), rejected = first by (token count asc, turn desc),
    prompt = first user turn — the token-count rule is the documented
    deterministic stand-in for a preference label; the op's value is
    the conversation-keyed assembly plumbing a real label would ride
    (stages/chatprep.dpo_pairs, the shared chatprep bucket exchange).
    Token counts are dl-parity with the tok CTE, so the twin is exact
    including both text payloads."""
    from hybrid_sanctions_search_engine_ray.sources.transcripts import transcripts_from_documents
    from hybrid_sanctions_search_engine_ray.stages.chatprep import dpo_pairs

    return dpo_pairs(transcripts_from_documents(sf_dir))


_WIN_K, _WIN_W = 3, 4
_WIN_POS_CAP_SQL = 1 << 20  # mirrors stages/dedup._WIN_POS_CAP


def q_winnow_fp(sf_dir: str):
    """Winnowing fingerprints (Schleimer et al. SIGMOD'03, the MOSS
    algorithm): k-token gram hashes, per-window rightmost-minimum
    selection — guarantees any shared ≥(w+k−1)-token run between docs
    shares a fingerprint; the local-fingerprinting member of the dedup
    family beside CDC and dup-spans (stages/dedup.winnow_fingerprints).
    Exact twin: the md5_number_upper gram-hash contract plus a HUGEINT
    (hash·2²⁰ + inverted-pos) packed window-min that realizes the same
    rightmost-min tie rule in one SQL window frame."""
    from hybrid_sanctions_search_engine_ray.sources.transcripts import transcripts_from_documents
    from hybrid_sanctions_search_engine_ray.stages.dedup import winnow_fingerprints

    return winnow_fingerprints(transcripts_from_documents(sf_dir),
                               k=_WIN_K, w=_WIN_W)


def q_query_difficulty(sf_dir: str):
    """Query-performance prediction (the search-ops feature that routes
    hard queries to deeper retrieval tiers): per query, the standard
    pre-retrieval predictors avg/max IDF and SCQ (Zhao et al. 2008,
    Σ (1+ln cf)·ln(1+N/df) over index-present query terms) plus the
    post-retrieval NQC (Shtok et al. 2012 — score-commitment: pop-std
    of the top-100 raw BM25 scores over their mean; our variant
    normalizes by the mean top-k score). Pre-retrieval terms come from
    the dictionary stats the reader already holds; the post-retrieval
    pass reuses the warm BMW/MaxScore scorer. All four round4 (the
    repo's multi-float-sum convention); exact twin recomputes from the
    same tf/df/cf CTEs and the bm25_topk score expression."""
    from hybrid_sanctions_search_engine_ray.functions.bm25 import idf as _idf
    from hybrid_sanctions_search_engine_ray.pipelines.query import IndexReader

    index_dir = _ensure_index(sf_dir)
    reader = IndexReader(index_dir)
    n_docs = reader.manifest.n_docs
    rows = []
    for qid, text in BM25_QUERIES.items():
        terms = sorted(set(text.lower().split()))
        idfs, scq_terms = [], []
        for t in terms:
            raw = reader.load_raw(t)
            if raw is None:
                continue
            doc_ids, tfs, _ = raw
            df_t, cf_t = int(doc_ids.size), int(tfs.sum())
            idfs.append(float(_idf(n_docs, df_t)))
            scq_terms.append((1.0 + np.log(cf_t)) * np.log(1.0 + n_docs / df_t))
        if not idfs:
            continue  # zero-hit query: the twin's INNER JOIN drops it too
        _, scores = reader.search_one(text, _QPP_K)
        mean = float(scores.mean())
        nqc = float(np.sqrt(((scores - mean) ** 2).mean()) / mean)
        rows.append({
            "query_id": qid,
            "avg_idf": float(_round4(np.array([np.mean(idfs)]))[0]),
            "max_idf": float(_round4(np.array([np.max(idfs)]))[0]),
            "scq": float(_round4(np.array([np.sum(scq_terms)]))[0]),
            "nqc": float(_round4(np.array([nqc]))[0]),
        })
    return pd.DataFrame(rows).sort_values("query_id").reset_index(drop=True)


def q_static_prune(sf_dir: str):
    """BM25 over a statically-pruned index (Carmel et al., SIGIR'01:
    keep each term's top-N postings by impact, tf desc / doc_id
    tie-break): the smaller serving tier built by
    pipelines/maintenance.static_prune_index from the unsalted audit
    index. N and avgdl stay global (copied manifest); df is derived
    from the pruned lists at read time — both reconstructed exactly by
    the twin (tf filtered via row_number ≤ N, df recomputed over the
    survivors), so the whole prune→serve path is value-gated."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.pipelines.maintenance import static_prune_index
    from hybrid_sanctions_search_engine_ray.pipelines.query import search
    from hybrid_sanctions_search_engine_ray.state.manifest import IndexManifest

    from hybrid_sanctions_search_engine_ray import __version__ as _fmt

    src_dir = _coldonly_index(sf_dir)
    tag = os.path.basename(os.path.normpath(sf_dir))
    out_dir = f"/tmp/graft_idx_cache/{_fmt}/{tag}-pruned{_PRUNE_TOP_N}"
    try:
        done = IndexManifest.load(out_dir).status == "complete"
    except FileNotFoundError:
        done = False
    if not done:
        shutil.rmtree(out_dir, ignore_errors=True)
        static_prune_index(src_dir, out_dir, top_n=_PRUNE_TOP_N)
    queries_ds = rd.from_items(
        [{"query_id": qid, "query_text": text, "top_k": BM25_TOP_K}
         for qid, text in BM25_QUERIES.items()])
    res = search(queries_ds, out_dir, _engine_cfg())

    def _finish(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["score"] = _round4(b["score"].to_numpy())
        b["rank"] = b["rank"].astype(np.int32)
        return b

    return res.map_batches(_finish, batch_format="pandas")


def q_bm25_topk(sf_dir: str):
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.pipelines.query import search

    index_dir = _ensure_index(sf_dir)
    queries_ds = rd.from_items(
        [{"query_id": qid, "query_text": text, "top_k": BM25_TOP_K} for qid, text in BM25_QUERIES.items()]
    )
    res = search(queries_ds, index_dir, _engine_cfg())

    def _finish(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["score"] = _round4(b["score"].to_numpy())
        b["rank"] = b["rank"].astype(np.int32)
        return b

    return res.map_batches(_finish, batch_format="pandas")


_LMD_MU = 2000.0  # Lucene LMDirichletSimilarity default


def q_lmd_search(sf_dir: str):
    """LM-Dirichlet similarity (the ES similarity-module alternative to
    BM25; Lucene LMDirichletSimilarity, Zhai & Lafferty 2001): same
    postings, per-term max(0, ln(1+tf/(μ·P(t|C))) + ln(μ/(dl+μ)))
    TAAT sum, round4-quantized rank. Value-gates the scoring-module
    seam — a user switching similarity per field gets exact parity."""
    return _similarity_rows(sf_dir, "lmd", mu=_LMD_MU)


_LMJM_LAMBDA = 0.1  # Lucene LMJelinekMercerSimilarity short-query default
_DFR_C = 1.0        # DFR normalization H2 default c


def _similarity_rows(sf_dir: str, method: str, **kw) -> pd.DataFrame:
    """Shared driver for the pluggable similarity-module queries: run
    every BM25 benchmark query through one IndexReader kernel and
    emit the standard (query_id, rank, doc_id, score-round4) frame."""
    from hybrid_sanctions_search_engine_ray.pipelines.query import IndexReader

    index_dir = _ensure_index(sf_dir)
    reader = IndexReader(index_dir)
    fn = getattr(reader, f"search_one_{method}")
    rows = []
    for qid, text in BM25_QUERIES.items():
        docs, scores = fn(text, BM25_TOP_K, **kw)
        for r, (d, s) in enumerate(zip(docs.tolist(), scores.tolist()), 1):
            rows.append({"query_id": qid, "rank": r, "doc_id": d,
                         "score": float(s)})
    out = pd.DataFrame(rows, columns=["query_id", "rank", "doc_id", "score"])
    out["rank"] = out["rank"].astype(np.int32)
    out["doc_id"] = out["doc_id"].astype(np.int64)
    out["score"] = _round4(out["score"].to_numpy())
    return out


def q_lmjm_search(sf_dir: str):
    """LM Jelinek-Mercer similarity (Lucene LMJelinekMercerSimilarity,
    Zhai & Lafferty 2001 linear interpolation): per-term
    ln(1 + ((1-λ)·tf/dl)/(λ·P(t|C))), λ=0.1, same postings/TAAT/rank
    machinery as BM25 (pipelines/query.py::search_one_lmjm)."""
    return _similarity_rows(sf_dir, "lmjm", lam=_LMJM_LAMBDA)


def q_classic_search(sf_dir: str):
    """Lucene classic TF-IDF similarity (ClassicSimilarity with exact
    norms): per-term sqrt(tf)·(1+ln((N+1)/(df+1)))²/sqrt(dl)
    (pipelines/query.py::search_one_classic)."""
    return _similarity_rows(sf_dir, "classic")


def q_dfr_search(sf_dir: str):
    """DFR GB2 similarity (Amati & van Rijsbergen 2002; the ES dfr
    similarity module with basic_model=g/after_effect=b/
    normalization=h2): tfn = tf·log2(1+c·avgdl/dl), λ = F/N,
    score = (F+1)/(df·(tfn+1)) · (log2(1+λ)+tfn·log2((1+λ)/λ))
    (pipelines/query.py::search_one_dfr)."""
    return _similarity_rows(sf_dir, "dfr", c=_DFR_C)


def q_dfi_search(sf_dir: str):
    """DFI similarity (Kocabaş, Dinçer & Karaoğlan 2014; the ES ``DFI``
    similarity module, independence_measure=standardized): expected
    frequency under independence e = (F+1)·dl/(T+1); postings with
    tf ≤ e are dropped (the published clamp), else
    log2(1 + (tf−e)/√e). Same postings/TAAT/rank machinery
    (pipelines/query.py::search_one_dfi)."""
    return _similarity_rows(sf_dir, "dfi")


def q_ib_search(sf_dir: str):
    """IB similarity (Clinchant & Gaussier 2010; the ES ``IB``
    similarity module, distribution=ll/lambda=df/normalization=h2):
    tfn = tf·log2(1+avgdl/dl), λ = (df+1)/(N+1), score =
    −log2(λ/(tfn+λ)) (pipelines/query.py::search_one_ib)."""
    return _similarity_rows(sf_dir, "ib")


def _pivoted_script(tfs: np.ndarray, dls: np.ndarray, ctx: dict) -> np.ndarray:
    """The scripted-similarity demo script: pivoted length-normalized
    TF-IDF (Singhal, Buckley & Mitra 1996) —
    ln(1 + N/df) · tf / (tf + 0.5 + 1.5·dl/avgdl). Spelled identically
    in the SQL twin."""
    return (
        np.log(1.0 + ctx["n_docs"] / ctx["df"])
        * tfs
        / (tfs + 0.5 + 1.5 * dls / ctx["avgdl"])
    )


def q_scripted_search(sf_dir: str):
    """Scripted similarity (the ES ``scripted`` similarity module — a
    user-supplied formula over the Painless-exposed stats tf/dl/df/
    cttf/N/avgdl/total_tokens), instanced here as pivoted TF-IDF.
    Value-gates the extension seam end to end: a custom kernel flows
    through the SAME load/accumulate/rank machinery as every built-in
    module (pipelines/query.py::search_one_scripted)."""
    return _similarity_rows(sf_dir, "scripted", script=_pivoted_script)


# stemmed-BM25 gate. The testdata corpus vocabulary is Latin-only (no
# inflection), so — following the pii_redact augmentation precedent —
# both the engine and the SQL twin append ONE deterministic inflected
# Cyrillic form per doc (doc_id % 10 picks it). Different docs carry
# DIFFERENT inflections of the same lexeme; their df only merges if
# index-side stemming conflates them, and the query only hits if
# query-side stemming maps the query inflection to the same stem — the
# morphology recall lever, value-gated end to end (reference:
# morphology_adapter.py:74-258). дітей/дети rows exercise the
# suppletive exception table.
_CYR_FORMS_RU = [
    "иванова", "иванову", "ивановым", "пушкина", "пушкину",
    "мария", "марию", "детям", "петрова", "петровой",
]
_CYR_FORMS_UK = [
    "олени", "олену", "оленою", "шевченка", "шевченку",
    "ковальського", "ковальському", "бондаренка", "бондаренком", "дітей",
]
# queries in yet other inflections; no two terms in one query share a stem
_STEM_QUERIES_RU = {
    "r01": "ивановым пушкину",
    "r02": "марии петровым",
    "r03": "дети иванова",
}
_STEM_QUERIES_UK = {
    "u01": "олену шевченком",
    "u02": "ковальським дитина",
    "u03": "бондаренку олена",
}


def _aug_cyr_transcripts(sf_dir: str, forms: list[str]):
    """Transcripts with the deterministic per-doc Cyrillic form appended
    (dataset-side, vectorized; SQL twin does the same in its aug CTE)."""
    from hybrid_sanctions_search_engine_ray.sources.transcripts import transcripts_from_documents

    n = len(forms)
    farr = pa.array(forms)

    def aug(b: pa.Table) -> pa.Table:
        doc_id = b["doc_id"]
        idx = pc.subtract(doc_id, pc.multiply(pc.divide(doc_id, n), n))
        form = pc.take(farr, idx)
        text = pc.binary_join_element_wise(b["text"], form, " ")
        return b.set_column(b.schema.get_field_index("text"), "text", text)

    return transcripts_from_documents(sf_dir).map_batches(aug, batch_format="pyarrow")


def _stem_search_impl(sf_dir: str, stem: str, forms: list[str], queries: dict[str, str]):
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.config import AnalyzerConfig, EngineConfig
    from hybrid_sanctions_search_engine_ray.pipelines.index_build import build_index
    from hybrid_sanctions_search_engine_ray.pipelines.query import search
    from hybrid_sanctions_search_engine_ray.state.manifest import IndexManifest

    from hybrid_sanctions_search_engine_ray import __version__ as _fmt

    tag = os.path.basename(os.path.normpath(sf_dir))
    index_dir = f"/tmp/graft_idx_cache/{_fmt}/{tag}-aug-stem{stem}"
    try:
        done = IndexManifest.load(index_dir).status == "complete"
    except FileNotFoundError:
        done = False
    if not done:
        shutil.rmtree(index_dir, ignore_errors=True)
        cfg = EngineConfig(num_partitions=16,
                           analyzer=AnalyzerConfig(mode="simple", stem=stem))
        build_index(os.path.join(sf_dir, "documents.parquet"), index_dir, cfg,
                    transcripts_ds=_aug_cyr_transcripts(sf_dir, forms))
    queries_ds = rd.from_items(
        [{"query_id": qid, "query_text": text, "top_k": BM25_TOP_K}
         for qid, text in queries.items()]
    )
    res = search(queries_ds, index_dir, _engine_cfg())

    def _finish(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["score"] = _round4(b["score"].to_numpy())
        b["rank"] = b["rank"].astype(np.int32)
        return b

    return res.map_batches(_finish, batch_format="pandas")


# Name-field morphology: diminutive + full-name inflections appended per
# doc; queries use yet other inflections of the SAME person, so a hit
# requires the suppletive diminutive→canonical conflation (Саша ↔
# Александр) that plain Snowball cannot reach (reference:
# morphology_adapter.py:74-258, morphology/gender_rules.py).
_NAME_FORMS_RU = [
    "саша", "сашей", "шуре", "александра", "вовой", "владимиру",
    "димой", "дмитрия", "катей", "екатерине", "мише", "наташей",
]
_NAME_QUERIES_RU = {
    "n01": "александром вове",
    "n02": "дмитрию катю",
    "n03": "михаилу наталье",
}


def q_name_search(sf_dir: str):
    """BM25 over the name-conflating analyzer (stem="ru_names"):
    Snowball + the suppletive diminutive→canonical given-name table
    (functions/stemmer.name_stem_ru), so Саша/Сашей/Шуре and
    Александр/Александром land on one stem — the morphology-recall
    case the reference covers via pymorphy's dictionary and that
    suffix-stripping alone cannot (VERDICT r03 missing #1). Twin maps
    the closed form set through the same embedded (token → stem)
    table; value-gated end to end like stem_search."""
    return _stem_search_impl(sf_dir, "ru_names", _NAME_FORMS_RU,
                             _NAME_QUERIES_RU)


def q_stem_search(sf_dir: str):
    """BM25 over a Snowball-ru-stemmed index: query-side and index-side
    morphology through the SAME analyzer (the manifest round-trips the
    stem setting into the scorer pool). The DuckDB twin maps tokens
    through an embedded (token → stem) table — exact because the
    Cyrillic token set is the closed augmentation form list, so the
    whole stemmed index/query/rank pipeline is value-gated (the stem
    algorithm itself is oracled by tests/test_stemmer.py)."""
    return _stem_search_impl(sf_dir, "ru", _CYR_FORMS_RU, _STEM_QUERIES_RU)


def q_stem_search_uk(sf_dir: str):
    """Ukrainian variant of :func:`q_stem_search` (functions/stemmer
    stem_uk; reference morphology is ru+uk via pymorphy), including the
    suppletive дітей/дитина conflation through the exception table."""
    return _stem_search_impl(sf_dir, "uk", _CYR_FORMS_UK, _STEM_QUERIES_UK)


def q_dedup_search(sf_dir: str):
    """BM25 over the duplicate-token-removal analyzer (SURVEY §2 D5;
    reference: normalization_factory.py:940-998): every repeated
    multi-letter token in a document collapses to its first occurrence
    (tf=1), single-letter (initial-form) tokens keep their counts, and
    dl/avgdl/df are recomputed over the deduped stream. Same queries as
    ``bm25_topk`` so the rank shift is directly inspectable; the DuckDB
    twin rebuilds tf/dl/stats with the same CASE rule."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.pipelines.query import search

    index_dir = _ensure_index(sf_dir, dedup=True)
    queries_ds = rd.from_items(
        [{"query_id": qid, "query_text": text, "top_k": BM25_TOP_K}
         for qid, text in BM25_QUERIES.items()]
    )
    res = search(queries_ds, index_dir, _engine_cfg())

    def _finish(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["score"] = _round4(b["score"].to_numpy())
        b["rank"] = b["rank"].astype(np.int32)
        return b

    return res.map_batches(_finish, batch_format="pandas")


def _stem_fn(stem: str):
    from hybrid_sanctions_search_engine_ray.functions.stemmer import (
        name_stem_ru,
        name_stem_uk,
        stem_ru,
        stem_uk,
    )

    return {"ru": stem_ru, "uk": stem_uk,
            "ru_names": name_stem_ru, "uk_names": name_stem_uk}[stem]


def _stem_map_values(stem: str, forms: list[str]) -> str:
    """(token, stem) VALUES rows for the closed Cyrillic token set (the
    augmentation forms; Latin corpus tokens are stem-identity)."""
    fn = _stem_fn(stem)
    return ", ".join(f"('{t}', '{fn(t)}')" for t in sorted(set(forms)) if fn(t) != t)


def _stem_qterms_values(stem: str, queries: dict[str, str]) -> str:
    from hybrid_sanctions_search_engine_ray.functions.analyzer import tokenize_simple

    fn = _stem_fn(stem)
    rows = []
    for qid, text in queries.items():
        for term in sorted({fn(t) for t in tokenize_simple(text)}):
            rows.append(f"('{qid}', '{term}')")
    return ", ".join(rows)


def _stem_search_sql(stem: str, forms: list[str], queries: dict[str, str]) -> str:
    """Exact DuckDB twin of the stemmed BM25 pipeline: the same
    deterministic per-doc Cyrillic-form augmentation (aug CTE), tokens
    mapped through the embedded stem table (closed Cyrillic token set),
    then the standard BM25 ranking over the stemmed tf/df/dl."""
    case = " ".join(
        f"WHEN {i} THEN '{f}'" for i, f in enumerate(forms)
    )
    return f"""
WITH aug AS (
  SELECT doc_id,
         text || ' ' || CASE cast(doc_id % {len(forms)} AS int) {case} END AS text
  FROM documents
),
atoks AS (
  SELECT doc_id, unnest(regexp_split_to_array(lower(nfc_normalize(text)), '[^\\p{{L}}\\p{{N}}]+')) AS term
  FROM aug
),
atok AS (SELECT doc_id, term FROM atoks WHERE term <> ''),
smap(term, stem) AS (VALUES {_stem_map_values(stem, forms)}),
stok AS (
  SELECT t.doc_id, COALESCE(m.stem, t.term) AS term
  FROM atok t LEFT JOIN smap m ON m.term = t.term
),
stf AS (SELECT term, doc_id, count(*)::BIGINT AS tf FROM stok GROUP BY term, doc_id),
sdl AS (SELECT doc_id, count(*)::BIGINT AS dl FROM stok GROUP BY doc_id),
sstats AS (SELECT count(*)::BIGINT AS n_docs, avg(dl) AS avgdl FROM sdl),
sdf AS (SELECT term, count(*)::BIGINT AS df FROM stf GROUP BY term),
qterms(query_id, term) AS (VALUES {_stem_qterms_values(stem, queries)}),
scores AS (
  SELECT q.query_id, tf.doc_id,
         sum( ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
              * tf.tf * {_K1 + 1.0} / (tf.tf + {_K1} * ({1.0 - _B} + {_B} * dl.dl / s.avgdl)) ) AS score
  FROM qterms q
  JOIN stf tf ON tf.term = q.term
  JOIN sdf df ON df.term = q.term
  JOIN sdl dl ON dl.doc_id = tf.doc_id
  CROSS JOIN sstats s
  GROUP BY q.query_id, tf.doc_id
),
ranked AS (
  SELECT query_id, doc_id, score,
         row_number() OVER (PARTITION BY query_id ORDER BY score DESC, doc_id) AS rnk
  FROM scores
)
SELECT query_id, cast(rnk AS int) AS rank, doc_id, round(score, 4) AS score
FROM ranked WHERE rnk <= {BM25_TOP_K}
"""


def q_prefix_search(sf_dir: str):
    """Autocomplete tier: conjunctive prefix retrieval over the edge-ngram
    index (reference edge_ngram tokenizer min 2 max 20 —
    elasticsearch_index_manager.py:307-310), BM25-ranked on the prefix
    field. tf=1 ties are rank-quantized exactly like the char3 tier."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.pipelines.query import prefix_search

    index_dir = _ensure_index(sf_dir, mode="edge")
    qs = rd.from_items(
        [{"query_id": qid, "query_text": t, "top_k": BM25_TOP_K * 4} for qid, t in PREFIX_QUERIES.items()]
    )
    res = prefix_search(qs, index_dir, _engine_cfg())

    def _finish(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["score"] = _round4(b["score"].to_numpy())
        return b

    def _rerank(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["score", "doc_id"], ascending=[False, True], kind="mergesort").head(BM25_TOP_K)
        g = g.reset_index(drop=True)
        g["rank"] = np.arange(1, len(g) + 1, dtype=np.int32)
        return g[["query_id", "rank", "doc_id", "score"]]

    return (
        res.map_batches(_finish, batch_format="pandas")
        .groupby("query_id")
        .map_groups(_rerank, batch_format="pandas")
    )


def q_boolean_search(sf_dir: str):
    """ES bool-clause retrieval over the BM25 index: conjunctive must,
    optional should scoring, must_not exclusion (pipelines/query.py
    BooleanScorer — same actor-pool/posting-pruning machinery as search)."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.pipelines.query import boolean_search

    index_dir = _ensure_index(sf_dir)
    qs = rd.from_items([{**q, "top_k": BM25_TOP_K} for q in BOOL_QUERIES])
    res = boolean_search(qs, index_dir, _engine_cfg())

    def _finish(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["score"] = _round4(b["score"].to_numpy())
        b["rank"] = b["rank"].astype(np.int32)
        return b

    return res.map_batches(_finish, batch_format="pandas")


def q_bool_msm(sf_dir: str):
    """ES minimum_should_match: should-only disjunction where a doc must
    match at least N DISTINCT should terms (pipelines/query.py
    search_one_boolean msm path — counted via sorted-array membership,
    never a per-row loop)."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.pipelines.query import boolean_search

    index_dir = _ensure_index(sf_dir)
    qs = rd.from_items(
        [{"query_id": q["query_id"], "must": "", "should": q["should"], "must_not": "",
          "min_should_match": q["min_should_match"], "top_k": BM25_TOP_K}
         for q in MSM_QUERIES]
    )
    res = boolean_search(qs, index_dir, _engine_cfg())

    def _finish(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["score"] = _round4(b["score"].to_numpy())
        b["rank"] = b["rank"].astype(np.int32)
        return b

    return res.map_batches(_finish, batch_format="pandas")


def q_conv_search(sf_dir: str):
    """Conversation-level retrieval (ES has_child, score_mode=max): rank
    CONVERSATIONS by the best turn score; exhaustive candidates rolled
    up with a vectorized groupby on the conv stride
    (pipelines/query.py::conv_search)."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.pipelines.query import conv_search

    index_dir = _ensure_index(sf_dir)
    qs = rd.from_items(
        [{"query_id": qid, "query_text": text, "top_k": BM25_TOP_K}
         for qid, text in BM25_QUERIES.items()]
    )
    res = conv_search(qs, index_dir, turns_per_conv=8, score_mode="max")

    def final(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["score"] = _round4(b["score"].to_numpy())
        return b

    return res.map_batches(final, batch_format="pandas")


_FS_PERIOD = 365


def _recency_boost(doc_ids: np.ndarray) -> np.ndarray:
    """Deterministic per-doc recency factor shared with the SQL twin:
    1 / (1 + age_days), age_days = doc_id % 365 (the synthetic ts grid
    makes doc_id the age proxy)."""
    return 1.0 / (1.0 + (doc_ids % _FS_PERIOD).astype(np.float64))


def q_function_score(sf_dir: str):
    """ES function_score: BM25 × recency factor applied over the FULL
    candidate set before top-k (pipelines/query.py::function_score_search
    — a post-truncation rescore could not surface boosted tail docs)."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.pipelines.query import function_score_search

    index_dir = _ensure_index(sf_dir)
    qs = rd.from_items(
        [{"query_id": qid, "query_text": text, "top_k": BM25_TOP_K}
         for qid, text in BM25_QUERIES.items()]
    )
    res = function_score_search(qs, index_dir, _recency_boost)

    def final(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["score"] = _round4(b["score"].to_numpy())
        return b

    return res.map_batches(final, batch_format="pandas")


def q_term_dictionary(sf_dir: str):
    from ray.data.aggregate import Sum

    from hybrid_sanctions_search_engine_ray.sources.transcripts import transcripts_from_documents
    from hybrid_sanctions_search_engine_ray.stages.analyze import DOC_SENTINEL, emit_term_stats

    cfg = _engine_cfg()
    ds = transcripts_from_documents(sf_dir)
    out = (
        ds.map_batches(lambda b: emit_term_stats(b, cfg), batch_format="pyarrow", batch_size=8192)
        .groupby("term")
        .aggregate(Sum("df_p", alias_name="df"), Sum("cf_p", alias_name="cf"))
    )

    def _drop_sentinel(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return b.filter(pc.not_equal(b["term"], DOC_SENTINEL))

    return out.map_batches(_drop_sentinel, batch_format="pyarrow")


def q_corpus_stats(sf_dir: str):
    index_dir = _ensure_index(sf_dir)
    from hybrid_sanctions_search_engine_ray.state.manifest import IndexManifest

    m = IndexManifest.load(index_dir)
    return pd.DataFrame(
        {
            "n_docs": pd.Series([m.n_docs], dtype=np.int64),
            "avgdl": _round4([m.avgdl]),
            "total_tokens": pd.Series([m.total_tokens], dtype=np.int64),
        }
    )


def q_role_doclen(sf_dir: str):
    """Per-role doc counts + mean doc length via the partial-aggregation
    pattern: per-batch (role, n_docs, sum_dl) partials, then a tiny
    groupby — the corpus never shuffles (SURVEY.md §2.5 G4)."""
    from ray.data.aggregate import Sum

    from hybrid_sanctions_search_engine_ray.sources.transcripts import transcripts_from_documents
    from hybrid_sanctions_search_engine_ray.stages.analyze import flat_terms

    cfg = _engine_cfg()

    def partial(b: pa.Table) -> pa.Table:
        parent, terms = flat_terms(b, cfg.analyzer)
        n = b.num_rows
        tok_counts = np.zeros(n, dtype=np.int64)
        if len(terms):
            np.add.at(tok_counts, parent, 1)
        roles = b["role"].to_pandas()
        dfp = pd.DataFrame({"role": roles, "dl": tok_counts})
        dfp = dfp[dfp["dl"] > 0]
        g = dfp.groupby("role", sort=False).agg(n_docs_p=("dl", "size"), sum_dl_p=("dl", "sum")).reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = (
        transcripts_from_documents(sf_dir)
        .map_batches(partial, batch_format="pyarrow", batch_size=8192)
        .groupby("role")
        .aggregate(Sum("n_docs_p", alias_name="n_docs"), Sum("sum_dl_p", alias_name="sum_dl"))
    )

    def final(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "role": b["role"],
                "n_docs": b["n_docs"].astype(np.int64),
                "avg_dl": _round4(b["sum_dl"].to_numpy() / b["n_docs"].to_numpy()),
            }
        )

    return agg.map_batches(final, batch_format="pandas")


def q_top_terms(sf_dir: str):
    return q_term_dictionary(sf_dir).sort(["cf", "term"], descending=[True, False]).limit(20)


def q_exact_dedup(sf_dir: str):
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.dedup import exact_dedup_groups

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"])
    out = exact_dedup_groups(ds)

    def _types(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["keep_doc_id"] = b["keep_doc_id"].astype(np.int64)
        b["n_dups"] = b["n_dups"].astype(np.int64)
        return b

    return out.map_batches(_types, batch_format="pandas")


def q_text_quality(sf_dir: str):
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.textops import quality_stats

    cfg = _engine_cfg()
    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"])
    return ds.map_batches(lambda b: quality_stats(b, cfg.analyzer), batch_format="pyarrow", batch_size=8192)


def q_bpe_tokens(sf_dir: str):
    """BPE-ish pretoken counting (the LLM token-budget metric): one
    vectorized RE2 count sweep per batch."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.textops import bpe_token_count

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"])
    out = ds.map_batches(bpe_token_count, batch_format="pyarrow", batch_size=8192)
    return out.select_columns(["doc_id", "n_bpe_tokens"])


def q_quantile_sketch(sf_dir: str):
    """Approximate quantiles of a CONTINUOUS column (lineitem price) via
    the mergeable compactor sketch — rows-only check (approximation has
    no hash-exact SQL twin); the rank-error bound is pytest-asserted."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.sketch_ops import approx_quantiles_sketch

    ds = rd.read_parquet(os.path.join(sf_dir, "lineitem.parquet"), columns=["l_extendedprice"])
    return approx_quantiles_sketch(ds, "l_extendedprice", qs=[0.25, 0.5, 0.9, 0.99])


QUALITY_FILTER_Q = 0.25  # drop the bottom quartile by lexical diversity

CURATE_SAMPLE_PCT = 50
CURATE_SALT = "-cur"


def q_curate_corpus(sf_dir: str):
    """THE training-data curation pipeline, end to end in one lazy
    Dataset graph: score (quality + BPE budget + content hash) → exact
    dedup (min-id keep inside the md5 shuffle — the keep-set never
    touches the driver) → exact quality-quantile cutoff (one driver-side
    row) → deterministic hash sample. Every stage is an operator proven
    by its own oracle; this query proves the COMPOSITION exactly."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.dedup import add_md5
    from hybrid_sanctions_search_engine_ray.stages.quantiles import grouped_exact_quantiles
    from hybrid_sanctions_search_engine_ray.stages.sampling import hash_sample
    from hybrid_sanctions_search_engine_ray.stages.textops import bpe_token_count, quality_stats

    cfg = _engine_cfg()
    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"])

    def score(b: pa.Table) -> pa.Table:
        q = quality_stats(b, cfg.analyzer)
        withmd5 = bpe_token_count(add_md5(b))
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "text_md5": withmd5["text_md5"],
                "uniq_ratio": q["uniq_ratio"],
                "n_bpe_tokens": withmd5["n_bpe_tokens"],
            }
        )

    scored = ds.map_batches(score, batch_format="pyarrow", batch_size=8192)

    def keep_min(g: pd.DataFrame) -> pd.DataFrame:
        return g.nsmallest(1, "doc_id")

    deduped = scored.groupby("text_md5").map_groups(keep_min, batch_format="pandas")
    tagged = deduped.map_batches(
        lambda b: b.append_column("g", pa.array(["all"] * len(b), pa.string())),
        batch_format="pyarrow",
    )
    cut = float(
        grouped_exact_quantiles(tagged, key="g", col="uniq_ratio",
                                qs=[QUALITY_FILTER_Q]).take(1)[0]["value"]
    )

    def keep_quality(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return b.filter(pc.greater_equal(b["uniq_ratio"], cut))

    curated = hash_sample(
        deduped.map_batches(keep_quality, batch_format="pyarrow"),
        key="doc_id", rate_pct=CURATE_SAMPLE_PCT, salt=CURATE_SALT,
    )
    return curated.select_columns(["doc_id", "uniq_ratio", "n_bpe_tokens"])


DECONTAM_W = 4  # w-word shingle size for benchmark-overlap decontamination
DECONTAM_BENCH_N = 5  # docs with doc_id < N play the "benchmark" (eval-set) role


def _decontam_bench_texts(sf_dir: str) -> list[str]:
    """The tiny benchmark side: pruned parquet read (row-group filters),
    never a full-table scan."""
    import pyarrow.parquet as pq

    return pq.read_table(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["text"],
        filters=[("doc_id", "<", DECONTAM_BENCH_N)],
    )["text"].to_pylist()


def q_decontam_hits(sf_dir: str):
    """Benchmark decontamination report: per contaminated doc, how many
    DISTINCT benchmark w-shingles it contains. Benchmark shingle set is
    built driver-side (it is tiny by nature), ray.put ONCE, probed by an
    actor pool via Arrow is_in — the corpus streams, zero shuffles."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.decontam import contamination_hits

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"])
    return contamination_hits(ds, _decontam_bench_texts(sf_dir), w=DECONTAM_W)


def q_decontam_clean(sf_dir: str):
    """The decontaminated corpus (ids only): same streaming probe, filter
    mode — what a training run would actually consume."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.decontam import decontaminate

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"])
    return decontaminate(ds, _decontam_bench_texts(sf_dir), w=DECONTAM_W).select_columns(["doc_id"])


HL_TERMS = ["spark", "merge", "scan"]
TFIDF_QUERY = "spark merge window"
TFIDF_TOP_K = 10
FACET_QUERY = "spark window"


def q_search_facets(sf_dir: str):
    """ES-aggregations parity: facet counts over the query's FULL
    matching-doc set (OR over analyzed terms) — matching ids from
    partition-pruned posting reads, facet values streamed with a
    broadcast membership filter and partial counts (stages/facets.py)."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.sources.transcripts import documents_batch_to_transcripts
    from hybrid_sanctions_search_engine_ray.stages.facets import search_facets

    index_dir = _ensure_index(sf_dir)
    meta = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    ).map_batches(
        lambda b: documents_batch_to_transcripts(b).select(["doc_id", "role"]),
        batch_format="pyarrow",
    )
    return search_facets(index_dir, FACET_QUERY, meta, facet_col="role")


def q_sig_terms(sf_dir: str):
    """ES significant_terms: terms overrepresented in the matching set
    vs the corpus (JLH heuristic), both frequencies from ONE streaming
    scan with a broadcast membership test (stages/facets.py)."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.facets import significant_terms

    index_dir = _ensure_index(sf_dir)
    corpus = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    return significant_terms(index_dir, FACET_QUERY, corpus,
                             analyzer_cfg=_engine_cfg().analyzer, top_n=10, min_fg=2)


PERC_QUERIES: list[tuple[str, str]] = [
    ("p01", "spark join"),
    ("p02", "customer scan table"),
    ("p03", "vector hash"),
    ("p04", "zzzmissing"),
]


def q_percolate(sf_dir: str):
    """Reverse search (ES percolator): stored conjunctive queries
    broadcast once, the document stream matched per batch with a
    vectorized coverage matrix (stages/facets.py::percolate)."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.facets import percolate

    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["doc_id", "text"])
    res = percolate(docs, PERC_QUERIES, analyzer_cfg=_engine_cfg().analyzer)

    def final(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"doc_id": b["doc_id"].astype(np.int64), "query_id": b["query_id"]}
        )

    return res.map_batches(final, batch_format="pandas")


def q_tfidf_cosine(sf_dir: str):
    """Char-3-gram TF-IDF cosine ranking (reference:
    vector_index_service.py:29-66 CharTfidfVectorIndex — sublinear tf,
    smooth idf, l2 norm, cosine): two streaming passes, zero corpus
    shuffles — the bounded gram-vocabulary df table and the transformed
    query vector broadcast once; every batch scores locally and emits a
    4k partial."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.tfidf import tfidf_topk

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"])
    return tfidf_topk(ds, TFIDF_QUERY, k=TFIDF_TOP_K)


def q_highlight(sf_dir: str):
    """Search-result highlighting (reference:
    elasticsearch_adapters.py:326-351 — ES ``highlight`` request +
    ``match_fields`` from hit highlight keys): one streaming sweep
    emitting (doc_id, first_pos, match_terms, snippet) for every doc
    containing >= 1 query term; the kernel's semantics (char positions,
    window, leftmost-first <em> marking) are replayed exactly by the
    SQL twin built from the SAME highlight_sql_expr definition."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.highlight import highlight_corpus

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"])
    return highlight_corpus(ds, HL_TERMS)


def q_quality_filter(sf_dir: str):
    """Composition pipeline (the training-data curation move): quality
    scoring → EXACT corpus quantile cutoff → streaming filter. The
    cutoff is one tiny driver-side row (distinct-value histogram
    quantile, stages/quantiles.py); the corpus itself streams through
    one scoring pass per consumer and never shuffles."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.quantiles import grouped_exact_quantiles
    from hybrid_sanctions_search_engine_ray.stages.textops import quality_stats

    cfg = _engine_cfg()
    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"])
    q = ds.map_batches(lambda b: quality_stats(b, cfg.analyzer), batch_format="pyarrow",
                       batch_size=8192).select_columns(["doc_id", "uniq_ratio"])
    scored = q.map_batches(
        lambda b: b.append_column("g", pa.array(["all"] * len(b), pa.string())),
        batch_format="pyarrow",
    )
    cut_row = grouped_exact_quantiles(scored, key="g", col="uniq_ratio",
                                      qs=[QUALITY_FILTER_Q]).take(1)
    cutoff = float(cut_row[0]["value"])

    def keep(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return b.filter(pc.greater_equal(b["uniq_ratio"], cutoff))

    return q.map_batches(keep, batch_format="pyarrow")


def q_validate(sf_dir: str):
    """Input validation stage (reference M1: input_validation.py 10k cap,
    empty rejection — annotate, never throw)."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.validate import validate_batch

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"])
    out = ds.map_batches(lambda b: validate_batch(b), batch_format="pyarrow", batch_size=8192)
    return out.select_columns(["doc_id", "valid", "truncated", "reject_reason"])


def q_langid(sf_dir: str):
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.textops import langid

    cfg = _engine_cfg()
    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"])
    return ds.map_batches(lambda b: langid(b, cfg.analyzer), batch_format="pyarrow", batch_size=8192)


def q_asof_join(sf_dir: str):
    """Temporal as-of join (custom operator — Ray Data has no native
    equivalent): each click joined to the user's most recent prior-or-
    simultaneous view. One key shuffle + per-group vectorized
    searchsorted merge; both sides read with predicate pushdown."""
    import pyarrow.dataset as pads
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.joins import asof_join

    path = os.path.join(sf_dir, "events.parquet")
    clicks = rd.read_parquet(path, columns=["event_id", "ts", "user_id"],
                             filter=pads.field("event_type") == "click")
    views = rd.read_parquet(path, columns=["event_id", "ts", "user_id", "value"],
                            filter=pads.field("event_type") == "view")
    res = asof_join(clicks, views, key="user_id", ts="ts", how="inner")

    def final(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "event_id": b["event_id"].astype(np.int64),
                "user_id": b["user_id"].astype(np.int64),
                "ts_us": b["ts"].to_numpy().astype("datetime64[us]").astype(np.int64),
                "matched_event_id": b["event_id_r"].astype(np.int64),
                "matched_ts_us": b["ts_r"].to_numpy().astype("datetime64[us]").astype(np.int64),
                "matched_value": _round4(b["value"].to_numpy(dtype=np.float64)),
            }
        )

    return res.map_batches(final, batch_format="pandas")


RANGE_TIERS = [("low", 0.0, 25.0), ("mid", 25.0, 100.0), ("high", 100.0, 1000.0)]


def q_range_join(sf_dir: str):
    """Broadcast range join (custom operator): bin every event's value
    into a small table of non-overlapping [lo, hi) tiers — the ranges
    ship once via ray.put, each batch bins with one searchsorted; the
    per-tier aggregate uses the partial-agg pattern (no event shuffle)."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from hybrid_sanctions_search_engine_ray.stages.joins import range_join

    tiers = pd.DataFrame(RANGE_TIERS, columns=["tier", "lo", "hi"])
    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"), columns=["value"])
    joined = range_join(ev, tiers, on="value", how="inner")

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        g = b.groupby("tier", sort=False).agg(n_p=("value", "size"), sum_p=("value", "sum"))
        return g.reset_index()

    agg = (
        joined.map_batches(partial, batch_format="pandas")
        .groupby("tier")
        .aggregate(Sum("n_p", alias_name="n_events"), Sum("sum_p", alias_name="sum_value"))
    )

    def final(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "tier": b["tier"],
                "n_events": b["n_events"].astype(np.int64),
                "sum_value": _round4(b["sum_value"].to_numpy()),
            }
        )

    return agg.map_batches(final, batch_format="pandas")


QUANTILE_QS = [0.25, 0.5, 0.9, 0.99]


def q_value_quantiles(sf_dir: str):
    """Exact distributed order statistics per event_type: value-counts
    histogram partials → small distinct-(key,value) shuffle → per-key
    cumulative walk (quantile_disc semantics, exact-rational index).
    The raw rows never shuffle — the scale path for quantized metrics."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.quantiles import grouped_exact_quantiles

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"), columns=["event_type", "value"])
    res = grouped_exact_quantiles(ev, key="event_type", col="value", qs=QUANTILE_QS)

    def final(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "event_type": b["event_type"],
                "q": b["q"].astype(np.float64),
                "value": _round4(b["value"].to_numpy()),
            }
        )

    return res.map_batches(final, batch_format="pandas")


def q_hopping_window(sf_dir: str):
    """Hopping (sliding) 1-hour windows advancing every 15 min, per
    event_type: vectorized per-window emit (each event in exactly 4
    windows) → partial-agg per batch → small groupby. The raw events
    never shuffle; only (type, window) partials do."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from hybrid_sanctions_search_engine_ray.stages.windows import hopping_window_keys

    def partial(b: pa.Table) -> pa.Table:
        ts_us = b["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        rows, starts = hopping_window_keys(ts_us, window_s=3600, hop_s=900)
        g = (
            pd.DataFrame(
                {
                    "event_type": b["event_type"].to_numpy(zero_copy_only=False)[rows],
                    "window_start": starts,
                    "value": b["value"].to_numpy(zero_copy_only=False)[rows],
                }
            )
            .groupby(["event_type", "window_start"], sort=False)
            .agg(n_p=("value", "size"), sum_p=("value", "sum"))
            .reset_index()
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"), columns=["ts", "event_type", "value"])
    agg = (
        ds.map_batches(partial, batch_format="pyarrow", batch_size=16384)
        .groupby(["event_type", "window_start"])
        .aggregate(Sum("n_p", alias_name="n_events"), Sum("sum_p", alias_name="sum_value"))
    )

    def final(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "event_type": b["event_type"],
                "window_start": b["window_start"].astype(np.int64),
                "n_events": b["n_events"].astype(np.int64),
                "sum_value": _round4(b["sum_value"].to_numpy()),
            }
        )

    return agg.map_batches(final, batch_format="pandas")


SAMPLE_RATES = {"click": 50, "view": 10, "error": 100}


def q_stratified_sample(sf_dir: str):
    """Deterministic stratified hash-sample of the event log (downsample
    views, keep every error): one streaming filter, membership derived
    from md5(event_id||salt) — reproducible across runs and retries."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.sampling import stratified_hash_sample

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_id", "event_type", "value"])
    res = stratified_hash_sample(ev, key="event_id", strata="event_type",
                                 rates=SAMPLE_RATES, salt="-s1")

    def final(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "event_id": b["event_id"].astype(np.int64),
                "event_type": b["event_type"],
                "value": _round4(b["value"].to_numpy()),
            }
        )

    return res.map_batches(final, batch_format="pandas")


def q_smart_prefilter(sf_dir: str):
    """Smart pre-filter (reference M2): per-doc name/company/context
    signals → weighted confidence → should_process decision, four
    vectorized RE2 sweeps per batch."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.validate import smart_prefilter

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"])
    out = ds.map_batches(smart_prefilter, batch_format="pyarrow")
    return out.select_columns(
        ["doc_id", "name_signal", "company_signal", "context_signal", "confidence", "should_process"]
    )


_DOWNSAMPLE_US = 3_600_000_000  # 1-hour rollup interval


def q_downsample(sf_dir: str):
    """ES TSDB downsampling: roll raw events up to (hour bucket,
    event_type) with count / exact-cents sum / min / max, WRITE the
    rollup as a new parquet dataset and answer from the read-back —
    the sink round-trip is inside the verified path."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.windows import downsample

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["ts", "event_type", "value"])
    tag = os.path.basename(os.path.normpath(sf_dir))
    out = downsample(ds, f"/tmp/graft_downsample_{tag}",
                     interval_us=_DOWNSAMPLE_US)

    def final(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "bucket": b["bucket"].astype(np.int64),
            "event_type": b["event_type"],
            "n": b["n"].astype(np.int64),
            "value_sum": np.round(b["cents_sum"].to_numpy(np.int64) / 100.0, 2),
            "value_min": b["value_min"].astype(np.float64),
            "value_max": b["value_max"].astype(np.float64),
        })

    return out.map_batches(final, batch_format="pandas")


def q_events_window(sf_dir: str):
    """Tumbling 1-hour windows per event_type: partial-agg per batch →
    small groupby (streaming-shaped workload per ray_guide)."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    def partial(b: pa.Table) -> pa.Table:
        ts_us = b["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        window_start = (ts_us // 3_600_000_000) * 3600
        g = (
            pd.DataFrame(
                {
                    "event_type": b["event_type"].to_pandas(),
                    "window_start": window_start,
                    "value": b["value"].to_numpy(zero_copy_only=False),
                }
            )
            .groupby(["event_type", "window_start"], sort=False)
            .agg(n_p=("value", "size"), sum_p=("value", "sum"))
            .reset_index()
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"), columns=["ts", "event_type", "value"])
    agg = (
        ds.map_batches(partial, batch_format="pyarrow", batch_size=16384)
        .groupby(["event_type", "window_start"])
        .aggregate(Sum("n_p", alias_name="n_events"), Sum("sum_p", alias_name="sum_value"))
    )

    def final(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "event_type": b["event_type"],
                "window_start": b["window_start"].astype(np.int64),
                "n_events": b["n_events"].astype(np.int64),
                "sum_value": _round4(b["sum_value"].to_numpy()),
            }
        )

    return agg.map_batches(final, batch_format="pandas")


_N_EMB_QUERIES = 3
_EMB_TOP_K = 5


def _load_query_vectors(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Fetch ONLY the query vectors via parquet predicate pushdown —
    never the whole embeddings table (row-group stats prune the read)."""
    import pyarrow.parquet as pq

    head = pq.read_table(path, columns=["vec_id", "embedding"],
                         filters=[("vec_id", "<", _N_EMB_QUERIES)])
    q_ids = head["vec_id"].to_numpy(zero_copy_only=False)
    q_mat = np.stack(head["embedding"].to_pandas().to_numpy()).astype(np.float64)
    return q_ids, q_mat


def q_embedding_topk(sf_dir: str):
    """Brute-force cosine top-k similarity search (broadcast query
    matrix, per-batch matmul + partial top-k, tiny final merge)."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.similarity import brute_force_topk

    path = os.path.join(sf_dir, "embeddings.parquet")
    ds = rd.read_parquet(path, columns=["vec_id", "embedding"])
    q_ids, q_mat = _load_query_vectors(path)

    res = brute_force_topk(ds, q_ids.tolist(), q_mat, k=_EMB_TOP_K, exclude_self=True)

    def final(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "query_vec_id": b["query_vec_id"].astype(np.int64),
                "rank": b["rank"].astype(np.int32),
                "vec_id": b["vec_id"].astype(np.int64),
                "cos_sim": _round4(b["cos_sim"].to_numpy()),
            }
        )

    return res.map_batches(final, batch_format="pandas")


_NEARDUP_MAX_ID = 400
_NEARDUP_MIN_COS = 0.35


_HNEG_QUERIES, _HNEG_K = 8, 3  # hard-negative mining window
_KNN_QUERIES, _KNN_K = 12, 5   # kNN classification window


def _load_query_vectors_labeled(path: str, n: int):
    """Pushdown-pruned query fetch including the label column."""
    import pyarrow.parquet as pq

    head = pq.read_table(path, columns=["vec_id", "embedding", "label"],
                         filters=[("vec_id", "<", n)])
    ids = head["vec_id"].to_numpy(zero_copy_only=False)
    mat = np.stack(head["embedding"].to_pandas().to_numpy()).astype(np.float64)
    labels = head["label"].to_numpy(zero_copy_only=False).astype(np.int64)
    return ids, mat, labels


def q_hard_negatives(sf_dir: str):
    """Contrastive hard-negative mining: for each query vector the top-k
    most-similar corpus vectors with a DIFFERENT label — the metric-
    learning batch-construction primitive. Broadcast query matrix,
    per-batch matmul with same-label masking, partial top-k, tiny
    query-keyed merge."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.similarity import hard_negatives

    path = os.path.join(sf_dir, "embeddings.parquet")
    ds = rd.read_parquet(path, columns=["vec_id", "embedding", "label"])
    q_ids, q_mat, q_labels = _load_query_vectors_labeled(path, _HNEG_QUERIES)
    res = hard_negatives(ds, q_ids, q_mat, q_labels, k=_HNEG_K)

    def final(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "query_vec_id": b["query_vec_id"].astype(np.int64),
            "rank": b["rank"].astype(np.int64),
            "vec_id": b["vec_id"].astype(np.int64),
            "neg_label": b["neg_label"].astype(np.int64),
            "cos_sim": _round4(b["cos_sim"].to_numpy()),
        })

    return res.map_batches(final, batch_format="pandas")


def q_knn_classify(sf_dir: str):
    """kNN label prediction (training-data audit primitive): majority
    label of the k nearest neighbours (self excluded), ties by smaller
    label; reuses the streaming brute-force top-k, then a bounded
    pushdown point-read attaches neighbour labels (k×Q rows)."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.similarity import brute_force_topk

    path = os.path.join(sf_dir, "embeddings.parquet")
    ds = rd.read_parquet(path, columns=["vec_id", "embedding"])
    q_ids, q_mat, q_labels = _load_query_vectors_labeled(path, _KNN_QUERIES)
    nn = brute_force_topk(ds, q_ids.tolist(), q_mat, k=_KNN_K,
                          exclude_self=True).to_pandas()
    lab = pq.read_table(path, columns=["vec_id", "label"],
                        filters=[("vec_id", "in", sorted(set(nn["vec_id"])))]
                        ).to_pandas()
    nn = nn.merge(lab, on="vec_id", how="left")
    votes = (
        nn.groupby(["query_vec_id", "label"], sort=False).size()
        .reset_index(name="votes")
        .sort_values(["query_vec_id", "votes", "label"],
                     ascending=[True, False, True], kind="mergesort")
        .groupby("query_vec_id", sort=True).head(1).reset_index(drop=True)
    )
    truth = pd.DataFrame({"query_vec_id": q_ids.astype(np.int64),
                          "true_label": q_labels})
    out = votes.merge(truth, on="query_vec_id")
    return pd.DataFrame({
        "query_vec_id": out["query_vec_id"].astype(np.int64),
        "pred_label": out["label"].astype(np.int64),
        "votes": out["votes"].astype(np.int64),
        "true_label": out["true_label"].astype(np.int64),
        "correct": (out["label"] == out["true_label"]).astype(np.int64),
    })


_SEMDEDUP_TAU = 0.35  # embedding_neardup's corpus-calibrated threshold


def q_semdedup(sf_dir: str):
    """SemDeDup (Abbas et al. 2023): k-means cluster the embeddings,
    then keep only one member per within-cluster cosine>τ duplicate
    component — the member least similar to its centroid (the paper's
    keep rule). Deterministic hash-sampled centroids, one assignment
    map, one cluster-keyed exchange; all-pairs work stays inside
    clusters. Rows-only (k-means is not SQL-expressible); the keep
    rule and component logic are brute-force-verified in
    tests/test_similarity.py."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.similarity import semdedup

    ds = rd.read_parquet(os.path.join(sf_dir, "embeddings.parquet"),
                         columns=["vec_id", "embedding"])
    out = semdedup(ds, threshold=_SEMDEDUP_TAU)

    def final(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["keep"] = b["keep"].astype(bool)
        b["vec_id"] = b["vec_id"].astype(np.int64)
        b["rep_id"] = b["rep_id"].astype(np.int64)
        b["cluster"] = b["cluster"].astype(np.int32)
        return b

    return out.map_batches(final, batch_format="pandas")


_CONST_BOOST = 1.2


def q_constant_score(sf_dir: str):
    """ES constant_score: filter-context AND of the query terms, every
    match scores exactly the boost, deterministic doc-order rank
    (search_features.ConstantScoreScorer)."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.pipelines.search_features import (
        constant_score_search,
    )

    index_dir = _ensure_index(sf_dir)
    qs = rd.from_items(
        [{"query_id": qid, "query_text": t, "top_k": BM25_TOP_K}
         for qid, t in BM25_QUERIES.items()]
    )
    return _finish_scores(constant_score_search(qs, index_dir, _CONST_BOOST,
                                                _engine_cfg()))


_ROLLOVER_GENS = 3


def q_rollover(sf_dir: str):
    """ES rollover / ILM generations: the corpus is written as
    ``_ROLLOVER_GENS`` size-capped index generations split on CONTIGUOUS
    conversation ranges (dataset-side filters — whole convs stay
    together, nothing materializes on the driver), an alias registry
    points at the generation list (state/aliases.py — the ES
    ``logs-active`` write-alias pattern), and queries resolve the alias
    into a FederatedReader whose cumulative doc-id offsets restore the
    ORIGINAL global doc ids exactly. The oracle is therefore the plain
    whole-corpus BM25 twin: any drift in the split, the alias
    resolution, the per-generation builds or the federated merge breaks
    the hash."""
    import ray.data as rd  # noqa: F401

    from hybrid_sanctions_search_engine_ray.config import AnalyzerConfig, EngineConfig
    from hybrid_sanctions_search_engine_ray.pipelines.federated import FederatedReader
    from hybrid_sanctions_search_engine_ray.pipelines.index_build import build_index
    from hybrid_sanctions_search_engine_ray.sources.transcripts import (
        TURNS_PER_CONV,
        transcripts_from_documents,
    )
    from hybrid_sanctions_search_engine_ray.state.aliases import resolve_alias, set_alias
    from hybrid_sanctions_search_engine_ray.state.manifest import IndexManifest

    from hybrid_sanctions_search_engine_ray import __version__ as _fmt

    tag = os.path.basename(os.path.normpath(sf_dir))
    base = f"/tmp/graft_idx_cache/{_fmt}/rollover-{tag}"
    gen_dirs = [os.path.join(base, f"gen-{g:06d}") for g in range(_ROLLOVER_GENS)]
    registry = os.path.join(base, "aliases")
    try:
        done = all(IndexManifest.load(d).status == "complete" for d in gen_dirs)
    except FileNotFoundError:
        done = False
    if not done:
        shutil.rmtree(base, ignore_errors=True)
        cfg = EngineConfig(num_partitions=8, analyzer=AnalyzerConfig(mode="simple"))
        import pyarrow.parquet as _pq

        n_docs = _pq.read_metadata(
            os.path.join(sf_dir, "documents.parquet")).num_rows
        n_convs = -(-n_docs // TURNS_PER_CONV)
        per_gen = -(-n_convs // _ROLLOVER_GENS)  # the rollover size cap

        def _gen_slice(b: pa.Table, g: int) -> pa.Table:
            conv = pc.divide(b["doc_id"], TURNS_PER_CONV)
            keep = pc.equal(pc.divide(conv, per_gen), g)
            return b.filter(keep)

        for g, d in enumerate(gen_dirs):
            ds = transcripts_from_documents(sf_dir).map_batches(
                _gen_slice, batch_format="pyarrow", fn_kwargs={"g": g})
            build_index(d + "_src", d, cfg, transcripts_ds=ds)
        os.makedirs(registry, exist_ok=True)
        set_alias(registry, "logs-active", gen_dirs)
    dirs = list(resolve_alias(registry, "logs-active"))
    # the per-generation builds keep the ORIGINAL global doc ids (the
    # input doc_id column is the stable (conv, turn) rank), so the
    # federation needs NO id lift — offsets are explicitly zero
    fed = FederatedReader(dirs, doc_id_offsets=[0] * len(dirs))
    qids, ranks, docs, scores = [], [], [], []
    for qid, qtext in BM25_QUERIES.items():
        d, s = fed.search_one(qtext, BM25_TOP_K)
        qids.extend([qid] * d.size)
        ranks.extend(range(1, d.size + 1))
        docs.extend(d.astype(np.int64).tolist())
        scores.extend(_round4(s).tolist())
    return pd.DataFrame({
        "query_id": pd.Series(qids, dtype=object),
        "rank": pd.Series(ranks, dtype=np.int32),
        "doc_id": pd.Series(docs, dtype=np.int64),
        "score": pd.Series(scores, dtype=np.float64),
    })


# span_or-within-span_near: "a|b c d|e" clause syntax, ordered chain
SPAN_OR_QUERIES = [
    {"query_id": "so1", "query_text": "fast|slow hash|merge join", "slop": 3},
    {"query_id": "so2", "query_text": "table|key scan|sort order|window", "slop": 3},
    {"query_id": "so3", "query_text": "spark stream|batch window|dup", "slop": 4},
]


def q_span_or_near(sf_dir: str):
    """Lucene span_or leaves inside an ordered span_near: alternative
    terms per clause, positions chained over the per-clause position
    UNION, per-clause best-member BM25 scoring
    (search_features.SpanOrNearScorer)."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.pipelines.search_features import (
        span_or_near_search,
    )

    index_dir = _ensure_index(sf_dir, positional=True)
    qs = rd.from_items([{**q, "top_k": BM25_TOP_K} for q in SPAN_OR_QUERIES])
    return _finish_scores(span_or_near_search(qs, index_dir, _engine_cfg()))


# span_multi-within-span_near: trailing-* clause tokens are prefix
# multi-term queries rewritten against the term dictionary.
SPAN_MULTI_QUERIES = [
    {"query_id": "sm1", "query_text": "s* hash|merge join", "slop": 3},
    {"query_id": "sm2", "query_text": "b* f* merge", "slop": 3},
    {"query_id": "sm3", "query_text": "qu* w* d*", "slop": 4},
]


def q_span_multi(sf_dir: str):
    """Lucene span_multi: prefix multi-term queries as span clauses in
    an ordered span_near — the dictionary rewrite runs ONCE for all
    queries (the shared wildcard/regexp scan), then the expanded
    alternatives chain through the span_or/near positions machinery
    with per-clause best-member BM25 scoring
    (search_features.span_multi_near_search)."""
    from hybrid_sanctions_search_engine_ray.pipelines.search_features import (
        span_multi_near_search,
    )

    index_dir = _ensure_index(sf_dir, positional=True)
    qs = [{**q, "top_k": BM25_TOP_K} for q in SPAN_MULTI_QUERIES]
    return _finish_scores(span_multi_near_search(qs, index_dir, _engine_cfg()))


def _span_multi_clause_values() -> str:
    """(query_id, clause, pat, lit) rows: prefix clauses carry a LIKE
    pattern, literal clauses the term list (span_or members)."""
    rows = []
    for q in SPAN_MULTI_QUERIES:
        for ci, clause in enumerate(q["query_text"].split()):
            if clause.endswith("*"):
                rows.append(f"('{q['query_id']}', {ci}, '{clause[:-1]}%', NULL)")
            else:
                for term in sorted(set(clause.split("|"))):
                    rows.append(f"('{q['query_id']}', {ci}, NULL, '{term}')")
    return ", ".join(rows)


def _span_multi_slop_values() -> str:
    return ", ".join(f"('{q['query_id']}', {q['slop']})" for q in SPAN_MULTI_QUERIES)


def _span_or_clause_values() -> str:
    rows = []
    for q in SPAN_OR_QUERIES:
        for ci, clause in enumerate(q["query_text"].split()):
            for term in sorted(set(clause.split("|"))):
                rows.append(f"('{q['query_id']}', {ci}, '{term}')")
    return ", ".join(rows)


def _span_or_slop_values() -> str:
    return ", ".join(f"('{q['query_id']}', {q['slop']})" for q in SPAN_OR_QUERIES)


_PROTO_KEEP_FRAC = 0.75


def q_prototype_prune(sf_dir: str):
    """SSL-prototype data pruning (Sorscher et al. 2022): rank vectors
    by cosine to their k-means centroid, prune the most prototypical
    quarter (keep-hard rule), exact quantile_disc cutoff with ties kept
    (stages/similarity.prototype_prune). Rows-only (k-means is not
    SQL-expressible); keep rule brute-force-verified in
    tests/test_similarity.py."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.similarity import prototype_prune

    ds = rd.read_parquet(os.path.join(sf_dir, "embeddings.parquet"),
                         columns=["vec_id", "embedding"])
    out = prototype_prune(ds, keep_frac=_PROTO_KEEP_FRAC)

    def final(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["vec_id"] = b["vec_id"].astype(np.int64)
        b["cluster"] = b["cluster"].astype(np.int32)
        b["keep"] = b["keep"].astype(bool)
        return b[["vec_id", "cluster", "centroid_sim_r6", "keep"]]

    return out.map_batches(final, batch_format="pandas")


def q_embedding_neardup(sf_dir: str):
    """Embedding-cosine near-dup pairs (the training-data near-dup
    family's vector member): broadcast subset matrix, one matmul per
    batch, emit only (a<b, cos>=t) pairs."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.similarity import cosine_neardup_pairs

    path = os.path.join(sf_dir, "embeddings.parquet")
    sub = pq.read_table(path, columns=["vec_id", "embedding"],
                        filters=[("vec_id", "<", _NEARDUP_MAX_ID)])
    ids = sub["vec_id"].to_numpy(zero_copy_only=False)
    mat = np.stack(sub["embedding"].to_pandas().to_numpy()).astype(np.float64)

    import pyarrow.compute as pc

    ds = rd.read_parquet(path, columns=["vec_id", "embedding"]).map_batches(
        lambda b: b.filter(pc.less(b["vec_id"], _NEARDUP_MAX_ID)), batch_format="pyarrow"
    )
    out = cosine_neardup_pairs(ds, ids, mat, threshold=_NEARDUP_MIN_COS)

    def final(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["cos_sim"] = _round4(b["cos_sim"].to_numpy())
        return b

    return out.map_batches(final, batch_format="pandas")


def q_cap_per_group(sf_dir: str):
    """Per-group cap: top-3 events per user by (value desc, event_id asc)
    — the reference's per-entity pattern cap re-expressed as
    groupby(key).map_groups(head_n) (SURVEY.md §2.5 G2, reference:
    scripts/prepare_sanctions_data.py:124-138)."""
    import ray.data as rd

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"), columns=["user_id", "event_id", "value"])

    def head3(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["value", "event_id"], ascending=[False, True], kind="mergesort").head(3)
        g = g.reset_index(drop=True)
        g["rnk"] = np.arange(1, len(g) + 1, dtype=np.int32)
        g["value"] = _round4(g["value"].to_numpy())
        return g[["user_id", "rnk", "event_id", "value"]]

    return ds.groupby("user_id").map_groups(head3, batch_format="pandas")


def q_sessionize(sf_dir: str):
    """Gap-based sessionization (30-min gap) over the events log —
    groupby(user).map_groups with a vectorized gap cut (stages/windows)."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.windows import sessionize

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"), columns=["user_id", "ts", "value"])
    res = sessionize(ds, gap_s=1800)

    def final(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["sum_value"] = _round4(b["sum_value"].to_numpy())
        return b

    return res.map_batches(final, batch_format="pandas")


def q_segment_revenue(sf_dir: str):
    """orders ⋈ customer broadcast join (small side shipped once via
    ray.put) → revenue per market segment (SURVEY.md §2.4 J3)."""
    import pyarrow.parquet as pq
    import ray.data as rd
    from ray.data.aggregate import Sum

    from hybrid_sanctions_search_engine_ray.stages.joins import broadcast_join

    cust = pq.read_table(
        os.path.join(sf_dir, "customer.parquet"), columns=["c_custkey", "c_mktsegment"]
    ).to_pandas().rename(columns={"c_custkey": "o_custkey"})
    orders = rd.read_parquet(os.path.join(sf_dir, "orders.parquet"), columns=["o_custkey", "o_totalprice"])
    joined = broadcast_join(orders, cust, on="o_custkey", concurrency=2)

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        g = b.groupby("c_mktsegment", sort=False).agg(
            n_p=("o_totalprice", "size"), sum_p=("o_totalprice", "sum")
        ).reset_index()
        return g

    agg = (
        joined.map_batches(partial, batch_format="pandas")
        .groupby("c_mktsegment")
        .aggregate(Sum("n_p", alias_name="n_orders"), Sum("sum_p", alias_name="total_price"))
    )

    def final(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "mktsegment": b["c_mktsegment"],
                "n_orders": b["n_orders"].astype(np.int64),
                "total_price": np.sign(b["total_price"].to_numpy())
                * np.floor(np.abs(b["total_price"].to_numpy()) * 100 + 0.5)
                / 100,
            }
        )

    return agg.map_batches(final, batch_format="pandas")


def q_large_join(sf_dir: str):
    """Large×large SHUFFLE hash join — the no-broadcast case (both sides
    too big to ship): Ray Data's native hash-partitioned ``Dataset.join``
    (each side hash-partitions on the key; partitions join
    independently), revenue computed BEFORE the join so only (key, rev)
    crosses the shuffle, then a tiny per-priority aggregate."""
    import pyarrow.compute as _pc
    import ray.data as rd
    from ray.data.aggregate import Count, Sum

    line = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_extendedprice", "l_discount"],
    ).map_batches(
        lambda b: pa.table(
            {
                "l_orderkey": b["l_orderkey"],
                "rev": _pc.multiply(b["l_extendedprice"], _pc.subtract(pa.scalar(1.0), b["l_discount"])),
            }
        ),
        batch_format="pyarrow",
    )
    orders = rd.read_parquet(
        os.path.join(sf_dir, "orders.parquet"), columns=["o_orderkey", "o_orderpriority"]
    )
    # num_partitions sizes the hash exchange: at real scale it tracks
    # cluster width (× per-partition memory); 8 keeps the correctness-gate
    # run from being dominated by aggregator-actor startup.
    joined = line.join(
        orders, join_type="inner", num_partitions=_join_parts(), on=("l_orderkey",), right_on=("o_orderkey",)
    )
    agg = joined.groupby("o_orderpriority").aggregate(Sum("rev"), Count())

    def _finish(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "o_orderpriority": b["o_orderpriority"],
                "revenue": _round4(b["sum(rev)"].to_numpy(np.float64)),
                "n_items": b["count()"].astype(np.int64),
            }
        )

    return agg.map_batches(_finish, batch_format="pandas")


def q_argmax_value(sf_dir: str):
    """max_by/arg-max per group — an aggregate Ray Data lacks natively,
    as a custom PARTIAL reduction: each batch keeps its per-key best row
    (value desc, event_id asc), the groupby ships only one candidate row
    per (key, batch), a tiny per-key finisher picks the global best.
    Deterministic (unlike SQL max_by on ties — the oracle uses the
    row_number rule)."""
    import ray.data as rd

    def partial(b: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "event_type": b["event_type"].to_pandas(),
                "event_id": b["event_id"].to_numpy(zero_copy_only=False),
                "value": b["value"].to_numpy(zero_copy_only=False),
            }
        )
        best = df.sort_values(["value", "event_id"], ascending=[False, True],
                              kind="mergesort").groupby("event_type", sort=False).head(1)
        return pa.Table.from_pandas(best, preserve_index=False)

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_type", "event_id", "value"])
    cand = ds.map_batches(partial, batch_format="pyarrow", batch_size=16384)

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["value", "event_id"], ascending=[False, True], kind="mergesort").head(1)
        return pd.DataFrame(
            {
                "event_type": g["event_type"].to_numpy(),
                "best_event_id": g["event_id"].astype(np.int64).to_numpy(),
                "best_value": _round4(g["value"].to_numpy(np.float64)),
            }
        )

    return cand.groupby("event_type").map_groups(finish, batch_format="pandas")


_HIST_STEP = 100.0


def q_value_histogram(sf_dir: str):
    """Fixed-width histogram per event_type: bucket = floor(value/step)
    computed in the partial (ints thereafter), so the shuffle carries
    only (key, bucket) partial counts — the streaming histogram shape."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    def partial(b: pa.Table) -> pa.Table:
        v = b["value"].to_numpy(zero_copy_only=False)
        bucket = np.floor(v / _HIST_STEP).astype(np.int64)
        g = (
            pd.DataFrame({"event_type": b["event_type"].to_pandas(), "bucket": bucket})
            .groupby(["event_type", "bucket"], sort=False)
            .size()
            .reset_index(name="n_p")
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"), columns=["event_type", "value"])
    agg = (
        ds.map_batches(partial, batch_format="pyarrow", batch_size=16384)
        .groupby(["event_type", "bucket"])
        .aggregate(Sum("n_p", alias_name="n"))
    )

    def final(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "event_type": b["event_type"],
                "bucket": b["bucket"].astype(np.int64),
                "n": b["n"].astype(np.int64),
            }
        )

    return agg.map_batches(final, batch_format="pandas")


_OVERLAP_A, _OVERLAP_B = "click", "error"
_OVERLAP_MIN_VALUE = 150.0


def q_user_overlap(sf_dir: str):
    """Set-op classification (INTERSECT / EXCEPT family): users with a
    HIGH-VALUE event of BOTH types vs only one vs neither (the value
    floor keeps membership rare enough to split) — per-user flags
    as per-batch partials → one small groupby(Max) → classify → count.
    The raw events never shuffle; the two per-type user SETS never
    materialize."""
    import ray.data as rd
    from ray.data.aggregate import Max, Sum

    def partial(b: pa.Table) -> pa.Table:
        et = b["event_type"].to_pandas().to_numpy()
        hi = b["value"].to_numpy(zero_copy_only=False) >= _OVERLAP_MIN_VALUE
        g = (
            pd.DataFrame(
                {
                    "user_id": b["user_id"].to_numpy(zero_copy_only=False),
                    "a_p": ((et == _OVERLAP_A) & hi).astype(np.int64),
                    "b_p": ((et == _OVERLAP_B) & hi).astype(np.int64),
                }
            )
            .groupby("user_id", sort=False)
            .agg(a_p=("a_p", "max"), b_p=("b_p", "max"))
            .reset_index()
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["user_id", "event_type", "value"])
    flags = (
        ds.map_batches(partial, batch_format="pyarrow", batch_size=16384)
        .groupby("user_id")
        .aggregate(Max("a_p", alias_name="has_a"), Max("b_p", alias_name="has_b"))
    )

    def classify(b: pa.Table) -> pa.Table:
        a = b["has_a"].to_numpy(zero_copy_only=False) > 0
        bb = b["has_b"].to_numpy(zero_copy_only=False) > 0
        seg = np.where(a & bb, "both", np.where(a, "a_only", np.where(bb, "b_only", "neither")))
        g = pd.DataFrame({"segment": seg}).groupby("segment", sort=False).size().reset_index(name="n_p")
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = flags.map_batches(classify, batch_format="pyarrow").groupby("segment").aggregate(
        Sum("n_p", alias_name="n_users")
    )

    def final(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"segment": b["segment"], "n_users": b["n_users"].astype(np.int64)}
        )

    return agg.map_batches(final, batch_format="pandas")


def q_merge_stats(sf_dir: str):
    """Physical index merge with an EXACT DuckDB twin: split the corpus
    dataset-side on conversation parity ((doc_id // 8) % 2 — whole convs
    stay together, nothing ever materializes on the driver), build a
    half-corpus index per parity, physically merge them, and report the
    merged index's global stats (n_docs / avgdl / total_tokens /
    n_terms) plus the per-half doc counts. Every numeric column is
    SQL-expressible over the same parquet; `merge_consistent` is
    computed engine-side (merged top-k ≡ FederatedReader top-k AND
    merged stats ≡ sum of halves) and compared against literal TRUE in
    the oracle — a regression in the merge path flips it and fails the
    hash gate (reference: ES force-merge consolidation, SURVEY.md §2.1
    S8 / §2.7 D2)."""
    from hybrid_sanctions_search_engine_ray.config import AnalyzerConfig, EngineConfig
    from hybrid_sanctions_search_engine_ray.pipelines.federated import FederatedReader
    from hybrid_sanctions_search_engine_ray.pipelines.index_build import build_index
    from hybrid_sanctions_search_engine_ray.pipelines.maintenance import merge_indexes
    from hybrid_sanctions_search_engine_ray.pipelines.query import IndexReader
    from hybrid_sanctions_search_engine_ray.sources.transcripts import (
        TURNS_PER_CONV,
        transcripts_from_documents,
    )
    from hybrid_sanctions_search_engine_ray.state.manifest import IndexManifest

    from hybrid_sanctions_search_engine_ray import __version__ as _fmt

    tag = os.path.basename(os.path.normpath(sf_dir))
    base = f"/tmp/graft_idx_cache/{_fmt}/merge-parity-{tag}"
    halves = [os.path.join(base, "a"), os.path.join(base, "b")]
    merged_dir = os.path.join(base, "merged")
    try:
        done = IndexManifest.load(merged_dir).status == "complete"
    except FileNotFoundError:
        done = False
    if not done:
        shutil.rmtree(base, ignore_errors=True)
        cfg = EngineConfig(num_partitions=8, analyzer=AnalyzerConfig(mode="simple"))

        def _parity_half(b: pa.Table, parity: int) -> pa.Table:
            conv = pc.divide(b["doc_id"], TURNS_PER_CONV)
            keep = pc.equal(pc.bit_wise_and(conv, 1), parity)
            return b.filter(keep)

        for d, parity in zip(halves, (0, 1)):
            ds = transcripts_from_documents(sf_dir).map_batches(
                _parity_half, batch_format="pyarrow", fn_kwargs={"parity": parity}
            )
            build_index(d + "_src", d, cfg, transcripts_ds=ds)
        merge_indexes(halves, merged_dir)
    merged = IndexReader(merged_dir)
    fed = FederatedReader(halves)
    same = True
    for q in ["spark join filter", "the data", "zzzmissing"]:
        d1, s1 = merged.search_one(q, 10)
        d2, s2 = fed.search_one(q, 10)
        same = same and d1.tolist() == d2.tolist() and s1.tolist() == s2.tolist()
    m_a = IndexManifest.load(halves[0])
    m_b = IndexManifest.load(halves[1])
    consistent = bool(
        same
        and merged.manifest.n_docs == fed.n_docs == m_a.n_docs + m_b.n_docs
        and abs(merged.manifest.avgdl - fed.avgdl) < 1e-12
        and merged.manifest.total_tokens == m_a.total_tokens + m_b.total_tokens
    )
    return pd.DataFrame(
        {
            "n_docs": pd.Series([merged.manifest.n_docs], dtype=np.int64),
            "n_docs_a": pd.Series([m_a.n_docs], dtype=np.int64),
            "n_docs_b": pd.Series([m_b.n_docs], dtype=np.int64),
            "avgdl": _round4([merged.manifest.avgdl]),
            "total_tokens": pd.Series([merged.manifest.total_tokens], dtype=np.int64),
            "n_terms": pd.Series([merged.manifest.n_terms], dtype=np.int64),
            "merge_consistent": [consistent],
        }
    )


_Q5_REGION = "ASIA"
_Q5_LO, _Q5_HI = "1996-01-01", "1998-01-01"


def q_nation_revenue(sf_dir: str):
    """TPC-H Q5 shape — the multi-way join pipeline: date filter pushed
    into the orders read (row-group pruning), dimension chain
    (nation→region, customer, supplier) broadcast as numpy lookup
    arrays (`ray.put` once, searchsorted per batch — at real scale
    customer would graduate to the native hash join like lineitem⋈orders
    here), local-nation equality filter, tiny final groupby."""
    import pyarrow.compute as _pc
    import pyarrow.dataset as _pads
    import pyarrow.parquet as _pq
    import ray.data as rd
    from ray.data.aggregate import Count, Sum

    # dimension chain (tiny): nation ⋈ region → the nation keys in ASIA
    nat = _pq.read_table(os.path.join(sf_dir, "nation.parquet"))
    reg = _pq.read_table(os.path.join(sf_dir, "region.parquet"))
    rkey = {r["r_regionkey"]: r["r_name"] for r in reg.to_pylist()}
    n_keys = np.array(sorted(
        n["n_nationkey"] for n in nat.to_pylist() if rkey[n["n_regionkey"]] == _Q5_REGION
    ), dtype=np.int64)
    n_names = {n["n_nationkey"]: n["n_name"] for n in nat.to_pylist()}

    cust = _pq.read_table(os.path.join(sf_dir, "customer.parquet"),
                          columns=["c_custkey", "c_nationkey"])
    c_sorted = _pc.take(cust, _pc.sort_indices(cust, sort_keys=[("c_custkey", "ascending")]))
    supp = _pq.read_table(os.path.join(sf_dir, "supplier.parquet"),
                          columns=["s_suppkey", "s_nationkey"])
    s_sorted = _pc.take(supp, _pc.sort_indices(supp, sort_keys=[("s_suppkey", "ascending")]))
    import ray as _ray

    dims_ref = _ray.put({
        "c_keys": c_sorted["c_custkey"].to_numpy(),
        "c_nat": c_sorted["c_nationkey"].to_numpy().astype(np.int64),
        "s_keys": s_sorted["s_suppkey"].to_numpy(),
        "s_nat": s_sorted["s_nationkey"].to_numpy().astype(np.int64),
        "asia": n_keys,
    })

    lo = np.datetime64(_Q5_LO).astype("datetime64[us]")
    hi = np.datetime64(_Q5_HI).astype("datetime64[us]")
    orders = rd.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
        filter=(_pads.field("o_orderdate") >= lo) & (_pads.field("o_orderdate") < hi),
    )

    class AttachCustNation:
        def __init__(self, ref):
            self.d = _ray.get(ref)

        def __call__(self, b: pa.Table) -> pa.Table:
            ck = b["o_custkey"].to_numpy(zero_copy_only=False)
            pos = np.searchsorted(self.d["c_keys"], ck)
            nat = self.d["c_nat"][np.minimum(pos, self.d["c_nat"].size - 1)]
            keep = np.isin(nat, self.d["asia"])
            return pa.table({
                "o_orderkey": pa.array(b["o_orderkey"].to_numpy(zero_copy_only=False)[keep]),
                "c_nation": pa.array(nat[keep]),
            })

    o_nat = orders.map_batches(AttachCustNation, fn_constructor_args=(dims_ref,),
                               batch_format="pyarrow", concurrency=2)

    line = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
    )

    class AttachSuppNation:
        def __init__(self, ref):
            self.d = _ray.get(ref)

        def __call__(self, b: pa.Table) -> pa.Table:
            sk = b["l_suppkey"].to_numpy(zero_copy_only=False)
            pos = np.searchsorted(self.d["s_keys"], sk)
            nat = self.d["s_nat"][np.minimum(pos, self.d["s_nat"].size - 1)]
            rev = _pc.multiply(b["l_extendedprice"],
                               _pc.subtract(pa.scalar(1.0), b["l_discount"]))
            return pa.table({"l_orderkey": b["l_orderkey"],
                             "s_nation": pa.array(nat), "rev": rev})

    l_nat = line.map_batches(AttachSuppNation, fn_constructor_args=(dims_ref,),
                             batch_format="pyarrow", concurrency=2)

    joined = l_nat.join(o_nat, join_type="inner", num_partitions=_join_parts(),
                        on=("l_orderkey",), right_on=("o_orderkey",))

    def local_only(b: pa.Table) -> pa.Table:
        keep = _pc.equal(b["s_nation"], b["c_nation"])
        t = b.filter(keep)
        return pa.table({"n_nationkey": t["c_nation"], "rev": t["rev"]})

    agg = (
        joined.map_batches(local_only, batch_format="pyarrow")
        .groupby("n_nationkey")
        .aggregate(Sum("rev"), Count())
    )

    def final(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "n_name": b["n_nationkey"].map(n_names),
                "revenue": _round4(b["sum(rev)"].to_numpy(np.float64)),
                "n_items": b["count()"].astype(np.int64),
            }
        )

    return agg.map_batches(final, batch_format="pandas")


def q_json_props(sf_dir: str):
    """Semi-structured extraction: pull the integer ``k`` out of the JSON
    ``props`` column with ONE vectorized RE2 extract per batch (no
    per-row json.loads), then the partial-agg + small-groupby pattern.
    SQL twin uses the same group regex via regexp_extract."""
    import pyarrow.compute as _pc
    import ray.data as rd
    from ray.data.aggregate import Sum

    def partial(b: pa.Table) -> pa.Table:
        k = _pc.cast(
            _pc.struct_field(_pc.extract_regex(b["props"], r'"k": (?P<k>\d+)'), "k"),
            pa.int64(),
        )
        g = pa.table({"event_type": b["event_type"], "k": k}).group_by("event_type").aggregate(
            [("k", "sum"), ([], "count_all")]
        )
        return g.rename_columns(["event_type", "sum_p", "n_p"])

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"), columns=["event_type", "props"])
    agg = (
        ds.map_batches(partial, batch_format="pyarrow", batch_size=16384)
        .groupby("event_type")
        .aggregate(Sum("sum_p", alias_name="sum_k"), Sum("n_p", alias_name="n_events"))
    )

    def final(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "event_type": b["event_type"],
                "sum_k": b["sum_k"].astype(np.int64),
                "n_events": b["n_events"].astype(np.int64),
            }
        )

    return agg.map_batches(final, batch_format="pandas")


def q_compress_ratio(sf_dir: str):
    """Compression-ratio redundancy signal (CCNet/Dolma quality family):
    deflate_bytes / utf8_bytes per doc at fixed zlib level — rows-only
    (no zlib in SQL); the kernel is pytest-verified and the byte counts
    are internally consistent (ratio recomputable from the two integer
    columns)."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.textops import compression_stats

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "text"])
    return ds.map_batches(compression_stats, batch_format="pyarrow")


_MLM_RATE = 15  # percent of token positions masked


def q_mlm_mask(sf_dir: str):
    """MLM masking-plan construction (BERT-style pre-training prep):
    deterministic 15% token-position masking via the splitmix64
    wrap-mix of (doc_id·2²⁰ + pos) — retry/resume-stable, independent
    of batching — with per-doc position/char checksums of the plan.
    Pure streaming map, zero exchanges."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.textops import mlm_mask_stats

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "text"])
    return ds.map_batches(lambda b: mlm_mask_stats(b, rate_pct=_MLM_RATE),
                          batch_format="pyarrow")


def _synth_identifier_text(b: pa.Table) -> pa.Table:
    """Deterministic identifier-bearing text from doc_id (testdata holds
    no real identifiers — same device as pii_redact), built with the
    exact arithmetic the SQL twin uses."""
    d = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    t = d % 4
    b1 = pd.Series(d * 48271 + 12345)
    b2 = pd.Series(d * 69621 + 7)
    inn = (b1 % 10**10).astype(str).str.zfill(10)
    edr = (b1 % 10**8).astype(str).str.zfill(8)
    ogr = (b1 % 10**13).astype(str).str.zfill(13)
    iba = "UA" + (b1 % 10**13).astype(str).str.zfill(13) + \
        (b2 % 10**14).astype(str).str.zfill(14)
    text = np.select(
        [t == 0, t == 1, t == 2],
        ["account inn: " + inn + " verified",
         "company edrpou: " + edr + " registry",
         "entity ogrn: " + ogr + " record"],
        default="payment iban " + iba + " transfer",
    )
    return pa.table({"doc_id": pa.array(d, pa.int64()),
                     "text": pa.array(text, pa.string())})


def q_extract_ids(sf_dir: str):
    """Identifier extraction + checksum validation (the reference's
    ID-pattern family, identifiers.py): RE2 detection of INN / EDRPOU /
    OGRN / IBAN tokens, each hit validated with the published checksum
    (RU weighted mod-11 OR UA digit-sum for INN-10, two-stage EDRPOU
    mod-11, OGRN leading-12 mod-11, ISO-13616 IBAN mod-97). Pure
    streaming map — extraction is C++ RE2, validation numpy digit
    arithmetic; no shuffle."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.identifiers import (
        extract_identifiers,
    )

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id"])
    out = extract_identifiers(ds.map_batches(_synth_identifier_text,
                                             batch_format="pyarrow"))
    return out


def _ids_inn10_sql(v: str) -> str:
    """validate_inn(10): RU weighted mod-11 (>9 → mod 10) OR UA digit
    sum mod 10 — same algorithm as stages/identifiers.py."""
    ru_w = [2, 4, 10, 3, 5, 9, 4, 6, 8]
    ru = " + ".join(f"{w} * cast(substr({v}, {i + 1}, 1) AS BIGINT)"
                    for i, w in enumerate(ru_w))
    ua = " + ".join(f"cast(substr({v}, {i + 1}, 1) AS BIGINT)" for i in range(9))
    ru_check = (f"(CASE WHEN ({ru}) % 11 > 9 THEN (({ru}) % 11) % 10 "
                f"ELSE ({ru}) % 11 END)")
    return (f"(cast(substr({v}, 10, 1) AS BIGINT) = {ru_check} "
            f"OR cast(substr({v}, 10, 1) AS BIGINT) = ({ua}) % 10)")


def _ids_edrpou_sql(v: str) -> str:
    c1 = " + ".join(f"{i + 1} * cast(substr({v}, {i + 1}, 1) AS BIGINT)"
                    for i in range(7))
    c2 = " + ".join(f"{i + 3} * cast(substr({v}, {i + 1}, 1) AS BIGINT)"
                    for i in range(7))
    check = (f"(CASE WHEN ({c1}) % 11 > 9 THEN "
             f"(CASE WHEN ({c2}) % 11 > 9 THEN 0 ELSE ({c2}) % 11 END) "
             f"ELSE ({c1}) % 11 END)")
    return f"(cast(substr({v}, 8, 1) AS BIGINT) = {check})"


def _ids_ogrn_sql(v: str) -> str:
    m = f"(cast(substr({v}, 1, 12) AS BIGINT) % 11)"
    return (f"(cast(substr({v}, 13, 1) AS BIGINT) = "
            f"(CASE WHEN {m} = 10 THEN 0 ELSE {m} END))")


def _ids_iban_sql(v: str) -> str:
    """ISO-13616 rearranged mod-97 — the 31-digit number fits HUGEINT."""
    return (f"(cast(substr({v}, 5, 25) || '3010' || substr({v}, 3, 2) "
            f"AS HUGEINT) % 97 = 1)")


def q_pii_redact(sf_dir: str):
    """PII scrub pass (pre-training redaction): deterministic PII-bearing
    text synthesized from doc_id (identically in SQL), then sequential
    RE2 masking — Arrow replace_substring_regex and DuckDB regexp_replace
    share the patterns VERBATIM, so output is byte-identical
    (stages/redact.py)."""
    import pyarrow.compute as _pc
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.redact import redact_pii

    def synth(b: pa.Table) -> pa.Table:
        did = b["doc_id"]
        s = lambda col: _pc.cast(col, pa.string())  # noqa: E731
        mod = lambda k: _pc.subtract(did, _pc.multiply(_pc.divide(did, k), k))  # noqa: E731
        n = len(b)
        aug = _pc.binary_join_element_wise(
            b["text"],
            pa.array([" contact user"] * n), s(did), pa.array(["@example.com ip 10."] * n),
            s(mod(256)), pa.array([".0.1 +1-202-555-"] * n),
            _pc.utf8_lpad(s(mod(10000)), 4, "0"),
            _pc.if_else(_pc.equal(mod(3), 0),
                        pa.array([" 4111111111111111"] * n), pa.array([""] * n)),
            "",
        )
        return pa.table({"doc_id": did, "text": aug})

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"])
    out = ds.map_batches(synth, batch_format="pyarrow").map_batches(
        redact_pii, batch_format="pyarrow", batch_size=8192
    )
    return out.select_columns(["doc_id", "clean", "n_pii"])


def q_repetition(sf_dir: str):
    """Gopher-style repetition quality signals (duplicate token / bigram
    fractions) — degenerate-text detection for curation
    (stages/textops.py::repetition_stats)."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.textops import repetition_stats

    cfg = _engine_cfg().analyzer
    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"])
    res = ds.map_batches(lambda b: repetition_stats(b, cfg), batch_format="pyarrow", batch_size=8192)

    def final(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": b["doc_id"].astype(np.int64),
                "n_tokens": b["n_tokens"].astype(np.int64),
                "n_distinct": b["n_distinct"].astype(np.int64),
                "dup_token_frac": _round4(b["dup_token_frac"].to_numpy()),
                "dup_bigram_frac": _round4(b["dup_bigram_frac"].to_numpy()),
            }
        )

    return res.map_batches(final, batch_format="pandas")


SYNONYMS: dict[str, list[str]] = {
    "join": ["merge"],
    "filter": ["scan"],
    "stream": ["window"],
    "vektor": ["vector"],
}


def q_synonym_search(sf_dir: str):
    """Query-time synonym expansion (ES synonym_graph at search time):
    each query's analyzed terms pull in their synonym rows, the expanded
    DISTINCT set ORs into one BM25 disjunction
    (pipelines/query.py::synonym_search)."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.pipelines.query import synonym_search

    index_dir = _ensure_index(sf_dir)
    qs = rd.from_items(
        [{"query_id": qid, "query_text": text, "top_k": BM25_TOP_K}
         for qid, text in BM25_QUERIES.items()]
    )
    res = synonym_search(qs, index_dir, SYNONYMS)

    def final(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["score"] = _round4(b["score"].to_numpy())
        return b

    return res.map_batches(final, batch_format="pandas")


def q_did_you_mean(sf_dir: str):
    """ES term suggester: per typo term, the single best vocabulary
    correction ranked (edit distance asc, df desc, term asc) — the
    vocabulary streams through expander actors, one row per term returns
    (functions/fuzzy.py::did_you_mean)."""
    from hybrid_sanctions_search_engine_ray.functions.fuzzy import did_you_mean

    vocab = q_term_dictionary(sf_dir)
    return did_you_mean(vocab, FUZZY_TERMS, max_dist=2)


_PAGE_SIZE = 5


def q_search_after(sf_dir: str):
    """ES search_after cursor pagination: page 1 via plain top-k, page 2
    via the (score, doc_id) cursor tuple filter — NOT an offset; page
    boundaries are exact-float stable because scoring is deterministic
    (pipelines/query.py::search_after). Output rank is GLOBAL."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.pipelines.query import search, search_after

    index_dir = _ensure_index(sf_dir)
    q1 = rd.from_items(
        [{"query_id": qid, "query_text": text, "top_k": _PAGE_SIZE}
         for qid, text in BM25_QUERIES.items()]
    )
    # page 1 MUST use the same exhaustive kernel as the cursor filter:
    # MaxScore's different summation order drifts scores by 1 ulp, which
    # breaks the exact-float cursor equality the tuple filter relies on.
    page1 = search(q1, index_dir, method="taat").to_pandas()  # tiny: ≤ 5 rows/query
    cursors = page1.loc[page1.groupby("query_id")["rank"].idxmax()]
    q2 = rd.from_items(
        [
            {
                "query_id": r.query_id,
                "query_text": BM25_QUERIES[r.query_id],
                "cursor_score": float(r.score),
                "cursor_doc": int(r.doc_id),
                "top_k": _PAGE_SIZE,
            }
            for r in cursors.itertuples(index=False)
        ]
    )
    page2 = search_after(q2, index_dir).to_pandas()
    offsets = page1.groupby("query_id")["rank"].max()
    page1["page"] = 1
    page2["page"] = 2
    page2["rank"] = (
        page2["rank"] + page2["query_id"].map(offsets).astype(np.int32)
    ).astype(np.int32)
    out = pd.concat([page1, page2], ignore_index=True)
    out["score"] = _round4(out["score"].to_numpy())
    out["page"] = out["page"].astype(np.int32)
    return out[["query_id", "page", "rank", "doc_id", "score"]]


MLT_SEEDS = [3, 57, 211]
_MLT_MAX_TERMS, _MLT_MIN_DF, _MLT_TOP_K = 5, 2, 10


def q_more_like_this(sf_dir: str):
    """ES more_like_this: document-as-query. Seed text point-read with
    doc_id pushdown, deterministic interesting-term pick (tf desc, df
    asc, term asc; df>=min_df), BM25 MaxScore over the picked terms,
    seed excluded (pipelines/query.py::more_like_this)."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.pipelines.query import more_like_this

    index_dir = _ensure_index(sf_dir)
    seeds = rd.from_items([{"seed_id": s} for s in MLT_SEEDS])
    res = more_like_this(
        seeds, index_dir, os.path.join(sf_dir, "documents.parquet"),
        max_terms=_MLT_MAX_TERMS, min_df=_MLT_MIN_DF, top_k=_MLT_TOP_K,
    )

    def final(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["score"] = _round4(b["score"].to_numpy())
        return b

    return res.map_batches(final, batch_format="pandas")


def q_anti_join(sf_dir: str):
    """Broadcast ANTI-join (NOT EXISTS): customers with no URGENT order,
    counted per segment. The urgent-custkey DISTINCT set is computed
    distributed (per-batch dedup → distinct-value shuffle), broadcast
    once via ray.put, and probed inside map_batches — the fact side
    never shuffles (stages/relational.py::broadcast_anti_join)."""
    import pyarrow.compute as _pc
    import ray.data as rd
    from ray.data.aggregate import Sum

    from hybrid_sanctions_search_engine_ray.stages.relational import (
        broadcast_anti_join,
        distinct_keys,
    )

    urgent = rd.read_parquet(
        os.path.join(sf_dir, "orders.parquet"), columns=["o_custkey", "o_orderpriority"]
    ).map_batches(
        lambda b: b.filter(_pc.equal(b["o_orderpriority"], "1-URGENT")).select(["o_custkey"]),
        batch_format="pyarrow",
    )
    keys = distinct_keys(urgent, "o_custkey")
    cust = rd.read_parquet(
        os.path.join(sf_dir, "customer.parquet"), columns=["c_custkey", "c_mktsegment"]
    )
    kept = broadcast_anti_join(cust, keys, on="c_custkey")

    def partial(b: pa.Table) -> pa.Table:
        g = pa.table({"c_mktsegment": b["c_mktsegment"]}).group_by("c_mktsegment").aggregate(
            [([], "count_all")]
        )
        return g.rename_columns(["c_mktsegment", "n_p"])

    agg = kept.map_batches(partial, batch_format="pyarrow").groupby("c_mktsegment").aggregate(
        Sum("n_p", alias_name="n_customers")
    )

    def final(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"c_mktsegment": b["c_mktsegment"], "n_customers": b["n_customers"].astype(np.int64)}
        )

    return agg.map_batches(final, batch_format="pandas")


def q_count_distinct(sf_dir: str):
    """Exact distributed COUNT(DISTINCT user_id) per event_type: the
    shuffle carries only the deduped (type, user) pairs, never raw rows
    (stages/relational.py::exact_count_distinct)."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.relational import exact_count_distinct

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"), columns=["event_type", "user_id"])
    res = exact_count_distinct(ev, key="event_type", distinct_col="user_id")

    def final(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "event_type": b["event_type"],
                "n_distinct": b["n_distinct"].astype(np.int64),
                "n_rows": b["n_rows"].astype(np.int64),
            }
        )

    return res.map_batches(final, batch_format="pandas")


def q_user_gaps(sf_dir: str):
    """lag()-window family: per-user stats over gaps between consecutive
    events (one key shuffle + vectorized per-group diff, integer-µs
    exact until the final divide — stages/windows.py::gap_stats)."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.windows import gap_stats

    ev = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["user_id", "ts", "event_id"]
    )
    res = gap_stats(ev, key="user_id", ts="ts", order_break="event_id")

    def final(b: pd.DataFrame) -> pd.DataFrame:
        n = b["n_gaps"].to_numpy(dtype=np.float64)
        return pd.DataFrame(
            {
                "user_id": b["user_id"].astype(np.int64),
                "n_gaps": b["n_gaps"].astype(np.int64),
                "avg_gap_s": _round4(b["sum_gap_us"].to_numpy(np.float64) / (1_000_000.0 * n)),
                "max_gap_s": b["max_gap_us"].to_numpy(np.float64) / 1_000_000.0,
            }
        )

    return res.map_batches(final, batch_format="pandas")


def q_moving_avg(sf_dir: str):
    """Per-row windowed aggregate: trailing 3-row mean of value within
    each user's ts-ordered stream (avg OVER (PARTITION BY ... ROWS 2
    PRECEDING) — stages/windows.py::trailing_mean, order-exact shifted
    adds so the float sum matches an in-order SQL window)."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.windows import trailing_mean

    ev = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["user_id", "ts", "event_id", "value"]
    )
    res = trailing_mean(ev, key="user_id", ts="ts", order_break="event_id", col="value", window_rows=3)

    def final(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "user_id": b["user_id"].astype(np.int64),
                "event_id": b["event_id"].astype(np.int64),
                "mavg": _round4(b["mavg"].to_numpy(np.float64)),
            }
        )

    return res.map_batches(final, batch_format="pandas")


def q_rollup_revenue(sf_dir: str):
    """GROUP BY ROLLUP(l_returnflag, l_linestatus): one scan + one small
    fine-level groupby; coarser levels re-aggregate the tiny fine table
    (stages/relational.py::rollup) — the fact rows shuffle zero times."""
    import pyarrow.compute as _pc
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.relational import rollup

    line = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_returnflag", "l_linestatus", "l_extendedprice", "l_discount"],
    ).map_batches(
        lambda b: pa.table(
            {
                "l_returnflag": b["l_returnflag"],
                "l_linestatus": b["l_linestatus"],
                "rev": _pc.multiply(b["l_extendedprice"], _pc.subtract(pa.scalar(1.0), b["l_discount"])),
            }
        ),
        batch_format="pyarrow",
    )
    res = rollup(line, keys=["l_returnflag", "l_linestatus"], value_col="rev")

    def final(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "l_returnflag": b["l_returnflag"],
                "l_linestatus": b["l_linestatus"],
                "revenue": _round4(b["sum_value"].to_numpy(np.float64)),
                "n_rows": b["n_rows"].astype(np.int64),
            }
        )

    return res.map_batches(final, batch_format="pandas")


INTERP_QS = [0.25, 0.5, 0.9]


def q_interp_quantiles(sf_dir: str):
    """percentile_cont: exact interpolated quantiles per event_type via
    the value-count-histogram shuffle (raw rows never move); bracketing
    indices exact-rational, interpolation float64
    (stages/quantiles.py::grouped_interp_quantiles)."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.quantiles import grouped_interp_quantiles

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"), columns=["event_type", "value"])
    res = grouped_interp_quantiles(ev, key="event_type", col="value", qs=INTERP_QS)

    def final(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "event_type": b["event_type"],
                "q": b["q"].astype(np.float64),
                "value": _round4(b["value"].to_numpy(np.float64)),
            }
        )

    return res.map_batches(final, batch_format="pandas")


def q_conv_stats(sf_dir: str):
    """Per-conversation analytics over the transcript stream (exercises
    the full input_hint schema incl. tool + ts): partial-agg per batch →
    one small groupby(conv_id); raw turns never shuffle."""
    import pyarrow.compute as _pc
    import ray.data as rd
    from ray.data.aggregate import Max, Min, Sum

    from hybrid_sanctions_search_engine_ray.sources.transcripts import transcripts_from_documents

    ts_ds = transcripts_from_documents(sf_dir)

    def partial(b: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "conv_id": b["conv_id"],
                "is_tool": _pc.cast(_pc.not_equal(b["tool"], ""), pa.int64()),
                "ts_us": _pc.cast(b["ts"], pa.int64()),
                "chars": _pc.utf8_length(b["text"]),
            }
        )
        g = t.group_by("conv_id").aggregate(
            [([], "count_all"), ("is_tool", "sum"), ("ts_us", "min"), ("ts_us", "max"), ("chars", "sum")]
        )
        return g.rename_columns(["conv_id", "n_p", "tool_p", "min_ts", "max_ts", "chars_p"])

    agg = (
        ts_ds.map_batches(partial, batch_format="pyarrow")
        .groupby("conv_id")
        .aggregate(
            Sum("n_p", alias_name="n_turns"),
            Sum("tool_p", alias_name="n_tool_turns"),
            Min("min_ts", alias_name="min_ts"),
            Max("max_ts", alias_name="max_ts"),
            Sum("chars_p", alias_name="sum_chars"),
        )
    )

    def final(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "conv_id": b["conv_id"],
                "n_turns": b["n_turns"].astype(np.int64),
                "n_tool_turns": b["n_tool_turns"].astype(np.int64),
                "span_s": (b["max_ts"].to_numpy(np.int64) - b["min_ts"].to_numpy(np.int64))
                / 1_000_000.0,
                "sum_chars": b["sum_chars"].astype(np.int64),
            }
        )

    return agg.map_batches(final, batch_format="pandas")


def q_global_topn(sf_dir: str):
    """Global top-100 by price WITHOUT a global sort: per-batch partial
    top-N → one tiny merge (stages/relational.py::global_topn). The
    all-to-all Sort exchange never happens."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.relational import global_topn

    line = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_linenumber", "l_extendedprice"],
    )
    res = global_topn(
        line, by=[("l_extendedprice", False), ("l_orderkey", True), ("l_linenumber", True)], n=100
    )

    def final(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "l_orderkey": b["l_orderkey"].astype(np.int64),
                "l_linenumber": b["l_linenumber"].astype(np.int32),
                "l_extendedprice": b["l_extendedprice"].astype(np.float64),
            }
        )

    return res.map_batches(final, batch_format="pandas")


def q_semi_join_agg(sf_dir: str):
    """Broadcast semi-join (ray_guide "Semi / anti join": ship the key
    set once, filter inside map_batches — no shuffle) + partial-agg:
    revenue of lineitems whose order totals over 100k, per returnflag."""
    import pyarrow as _pa
    import pyarrow.compute as _pc
    import pyarrow.parquet as pq
    import ray
    import ray.data as rd
    from ray.data.aggregate import Sum

    orders = pq.read_table(os.path.join(sf_dir, "orders.parquet"), columns=["o_orderkey", "o_totalprice"])
    keys = orders.filter(_pc.greater(orders["o_totalprice"], 100_000.0))["o_orderkey"]
    keys_ref = ray.put(keys.combine_chunks())

    class SemiJoin:
        def __init__(self, ref):
            self.keys = ray.get(ref)

        def __call__(self, b: _pa.Table) -> _pa.Table:
            kept = b.filter(_pc.is_in(b["l_orderkey"], value_set=self.keys))
            g = (
                pa.table(
                    {
                        "l_returnflag": kept["l_returnflag"],
                        "qty": kept["l_quantity"],
                        "rev": _pc.multiply(kept["l_extendedprice"], _pc.subtract(_pa.scalar(1.0), kept["l_discount"])),
                    }
                )
                .group_by(["l_returnflag"])
                .aggregate([("qty", "sum"), ("rev", "sum"), ("qty", "count")])
            )
            return g

    ds = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_returnflag", "l_quantity", "l_extendedprice", "l_discount"],
    )
    agg = (
        ds.map_batches(SemiJoin, fn_constructor_args=(keys_ref,), batch_format="pyarrow", concurrency=2)
        .groupby("l_returnflag")
        .aggregate(
            Sum("qty_sum", alias_name="sum_qty"),
            Sum("rev_sum", alias_name="revenue"),
            Sum("qty_count", alias_name="n_items"),
        )
    )

    def final(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "l_returnflag": b["l_returnflag"],
                "sum_qty": _round4(b["sum_qty"].to_numpy()),
                "revenue": np.sign(b["revenue"].to_numpy())
                * np.floor(np.abs(b["revenue"].to_numpy()) * 100 + 0.5) / 100,
                "n_items": b["n_items"].astype(np.int64),
            }
        )

    return agg.map_batches(final, batch_format="pandas")


def q_lineitem_agg(sf_dir: str):
    """TPC-H-Q1-shaped wide aggregate: per (returnflag, linestatus) sums
    and averages via per-batch Arrow partial aggregation → small groupby
    (the pre-aggregation pattern; corpus never shuffles)."""
    import pyarrow.compute as _pc
    import ray.data as rd
    from ray.data.aggregate import Sum

    def partial(b: pa.Table) -> pa.Table:
        rev = _pc.multiply(b["l_extendedprice"], _pc.subtract(pa.scalar(1.0), b["l_discount"]))
        t = pa.table(
            {
                "l_returnflag": b["l_returnflag"],
                "l_linestatus": b["l_linestatus"],
                "qty": b["l_quantity"],
                "price": b["l_extendedprice"],
                "rev": rev,
            }
        )
        return t.group_by(["l_returnflag", "l_linestatus"]).aggregate(
            [("qty", "sum"), ("price", "sum"), ("rev", "sum"), ("qty", "count")]
        )

    ds = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount"],
    )
    agg = (
        ds.map_batches(partial, batch_format="pyarrow", batch_size=65536)
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(
            Sum("qty_sum", alias_name="sum_qty"),
            Sum("price_sum", alias_name="sum_price"),
            Sum("rev_sum", alias_name="sum_rev"),
            Sum("qty_count", alias_name="n_rows"),
        )
    )

    def final(b: pd.DataFrame) -> pd.DataFrame:
        n = b["n_rows"].to_numpy().astype(np.float64)
        return pd.DataFrame(
            {
                "l_returnflag": b["l_returnflag"],
                "l_linestatus": b["l_linestatus"],
                "sum_qty": _round4(b["sum_qty"].to_numpy()),
                "avg_qty": _round4(b["sum_qty"].to_numpy() / n),
                "avg_price": _round4(b["sum_price"].to_numpy() / n),
                "sum_rev": np.sign(b["sum_rev"].to_numpy())
                * np.floor(np.abs(b["sum_rev"].to_numpy()) * 100 + 0.5) / 100,
                "n_rows": b["n_rows"].astype(np.int64),
            }
        )

    return agg.map_batches(final, batch_format="pandas")


def q_bm25_confidence(sf_dir: str):
    """Per-query max-score normalization (reference G5: confidence =
    score/max_score per response — elasticsearch_adapters.py:333-346)."""
    res = q_bm25_topk(sf_dir)

    def conf(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("rank").copy()
        g["confidence"] = _round4(g["score"].to_numpy() / g["score"].to_numpy().max())
        return g[["query_id", "rank", "doc_id", "confidence"]]

    return res.groupby("query_id").map_groups(conf, batch_format="pandas")


def _search_rounded(sf_dir: str, queries: dict[str, str], mode: str):
    """Shared BM25 runner: build/choose the index variant, run the actor-
    pool scorer over a query Dataset, round scores for oracle parity.

    The trigram field produces EXACT score ties (docs sharing a gram
    profile), where last-ulp float-summation-order differences would
    flip ranks between engine and SQL; the char3 tier therefore
    over-fetches 4× candidates and re-ranks on (rounded score desc,
    doc_id asc) — the deterministic quantized ordering the oracle uses."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.pipelines.query import search

    index_dir = _ensure_index(sf_dir, mode=mode)
    fetch_k = BM25_TOP_K if mode == "simple" else BM25_TOP_K * 4
    queries_ds = rd.from_items(
        [{"query_id": qid, "query_text": text, "top_k": fetch_k} for qid, text in queries.items()]
    )
    res = search(queries_ds, index_dir, _engine_cfg())

    def _finish(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["score"] = _round4(b["score"].to_numpy())
        b["rank"] = b["rank"].astype(np.int32)
        return b

    out = res.map_batches(_finish, batch_format="pandas")
    if mode == "simple":
        return out

    def _rerank(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["score", "doc_id"], ascending=[False, True], kind="mergesort").head(BM25_TOP_K)
        g = g.reset_index(drop=True)
        g["rank"] = np.arange(1, len(g) + 1, dtype=np.int32)
        return g[["query_id", "rank", "doc_id", "score"]]

    return out.groupby("query_id").map_groups(_rerank, batch_format="pandas")


def q_ngram_bm25(sf_dir: str):
    """Fuzzy lexical tier: BM25 over the char-3-gram field (reference's
    char_ngram_analyzer subfield — elasticsearch_component_template.json:
    40-49) — typo'd queries retrieve through trigram postings built by
    the SAME streaming shuffle/segment machinery as the word index."""
    return _search_rounded(sf_dir, NGRAM_QUERIES, mode="char3")


def q_shingle_bm25(sf_dir: str):
    """Phrase-proximity lexical tier: BM25 over the word-shingle field
    (reference's shingle_analyzer subfield, 2-3 word shingles +
    unigrams — elasticsearch_component_template.json:20-29,47-52) —
    adjacent-word matches outrank scattered-word matches, built by the
    SAME streaming shuffle/segment machinery as the word index."""
    return _search_rounded(sf_dir, SHINGLE_QUERIES, mode="shingle")


def q_fuzzy_expand(sf_dir: str):
    """Fuzzy term expansion against the vocabulary (the ES-fuzziness
    shape: edit distance runs on the TERM DICTIONARY, never the corpus —
    reference: fuzzy_search_service.py:38-63)."""
    from hybrid_sanctions_search_engine_ray.functions.fuzzy import fuzzy_expand

    vocab = q_term_dictionary(sf_dir)
    return fuzzy_expand(vocab, FUZZY_TERMS, max_dist=2, topn=5)


_JW_NAMES = ["colum", "window", "qeury", "merg", "scann", "иванов"]
_JW_MIN = 0.88


def q_jaro_expand(sf_dir: str):
    """Jaro–Winkler name expansion against the term dictionary — the
    name-matching standard of the reference's sanctions-screening
    domain (Winkler 1990; reference fuzzy_search_service.py:38-63),
    same dictionary-scan shape as fuzzy_expand: JW runs on the VOCAB,
    never the corpus. Oracle: DuckDB jaro_winkler_similarity (the
    functions are bit-parity, property-tested)."""
    def expand(b: pd.DataFrame) -> pd.DataFrame:
        from hybrid_sanctions_search_engine_ray.functions.fuzzy import jaro_winkler

        rows = []
        for t in b["term"].to_numpy(dtype=object):
            for q in _JW_NAMES:
                s = jaro_winkler(q, t)
                if s >= _JW_MIN:
                    rows.append((q, t, np.sign(s) * np.floor(abs(s) * 1e6 + 0.5) / 1e6))
        return pd.DataFrame(rows, columns=["q_name", "term", "jw"]).astype(
            {"q_name": object, "term": object, "jw": float})

    out = (q_term_dictionary(sf_dir)
           .map_batches(expand, batch_format="pandas").to_pandas())
    if "q_name" not in out.columns:   # all-empty Dataset loses its schema
        out = pd.DataFrame({"q_name": pd.Series([], dtype=object),
                            "term": pd.Series([], dtype=object),
                            "jw": pd.Series([], dtype=float)})
    return out.sort_values(["q_name", "jw", "term"],
                           ascending=[True, False, True],
                           kind="mergesort").reset_index(drop=True)


def q_hybrid_rrf(sf_dir: str):
    """Hybrid fusion tier: reciprocal-rank fusion of the word-BM25 and
    trigram-BM25 rankings for the same query set (reference:
    hybrid_search_service.py:1114-1204 fusion; RRF per
    docs/DATA_PIPELINE.md:855-886)."""
    from hybrid_sanctions_search_engine_ray.functions.fusion import rrf_fusion

    lex = _search_rounded(sf_dir, BM25_QUERIES, mode="simple").to_pandas()
    ngr = _search_rounded(sf_dir, BM25_QUERIES, mode="char3").to_pandas()

    out_rows = []
    for qid in BM25_QUERIES:
        ranked_lex = lex[lex.query_id == qid].sort_values("rank")["doc_id"].to_numpy()
        ranked_ngr = ngr[ngr.query_id == qid].sort_values("rank")["doc_id"].to_numpy()
        if ranked_lex.size == 0 and ranked_ngr.size == 0:
            continue
        docs, scores = rrf_fusion([ranked_lex, ranked_ngr], k=_RRF_K, top_k=BM25_TOP_K)
        for r, (d, s) in enumerate(zip(docs, scores), start=1):
            out_rows.append((qid, r, int(d), s))
    out = pd.DataFrame(out_rows, columns=["query_id", "rank", "doc_id", "rrf_score"])
    return pd.DataFrame(
        {
            "query_id": out["query_id"],
            "rank": out["rank"].astype(np.int32),
            "doc_id": out["doc_id"].astype(np.int64),
            "rrf_score": _round_half_away(out["rrf_score"].to_numpy(), 6),
        }
    )


def q_phrase_search(sf_dir: str):
    """Exact phrase search over POSITIONAL postings (reference's ES
    phrase clause analog — elasticsearch_adapters.py:164-331): intersect
    term doc lists, chain in-document positions, rank survivors by the
    phrase terms' BM25 score."""
    from hybrid_sanctions_search_engine_ray.pipelines.query import IndexReader, phrase_search

    index_dir = _ensure_index(sf_dir, positional=True)
    reader = IndexReader(index_dir)
    frames = []
    for qid, phrase in PHRASE_QUERIES.items():
        df = phrase_search(index_dir, phrase, top_k=BM25_TOP_K, reader=reader)
        if len(df):
            df = df.copy()
            df.insert(0, "query_id", qid)
            frames.append(df)
    if not frames:
        return pd.DataFrame({"query_id": [], "rank": [], "doc_id": [], "score": []})
    out = pd.concat(frames, ignore_index=True)
    return pd.DataFrame(
        {
            "query_id": out["query_id"],
            "rank": out["rank"].astype(np.int32),
            "doc_id": out["doc_id"].astype(np.int64),
            "score": _round4(out["score"].to_numpy()),
        }
    )


def q_tiered_search(sf_dir: str):
    """Tier-priority escalation (reference SURVEY §2.6 T2 — the
    exact→lexical→fuzzy ladder of hybrid_search_service.find_candidates):
    tier 1 = exact phrase (positional postings), tier 2 = word BM25
    top-k, tier 3 = trigram BM25 top-k. A doc keeps its highest tier;
    results order (tier asc, score desc, doc_id asc)."""
    from hybrid_sanctions_search_engine_ray.pipelines.query import IndexReader, phrase_search

    pos_idx = _ensure_index(sf_dir, positional=True)
    reader = IndexReader(pos_idx)
    lex = _search_rounded(sf_dir, TIERED_QUERIES, mode="simple").to_pandas()
    ngr = _search_rounded(sf_dir, TIERED_QUERIES, mode="char3").to_pandas()

    rows = []
    for qid, qtext in TIERED_QUERIES.items():
        best: dict[int, tuple[int, float]] = {}  # doc -> (tier, score4)
        for tier, frame in (
            (3, ngr[ngr.query_id == qid]),
            (2, lex[lex.query_id == qid]),
        ):
            for d, s in zip(frame["doc_id"], frame["score"]):
                cur = best.get(int(d))
                if cur is None or tier < cur[0]:
                    best[int(d)] = (tier, float(s))
        ph = phrase_search(pos_idx, qtext, top_k=1000, reader=reader)
        ph_scores = _round4(ph["score"].to_numpy()) if len(ph) else np.empty(0)
        for d, s in zip(ph["doc_id"], ph_scores):
            best[int(d)] = (1, float(s))
        for d, (tier, s) in best.items():
            rows.append((qid, tier, d, s))
    out = pd.DataFrame(rows, columns=["query_id", "tier", "doc_id", "score"])
    out = out.sort_values(
        ["query_id", "tier", "score", "doc_id"], ascending=[True, True, False, True],
        kind="mergesort",
    )
    out = out.groupby("query_id", sort=False).head(BM25_TOP_K).reset_index(drop=True)
    out["rank"] = (out.groupby("query_id", sort=False).cumcount() + 1).astype(np.int32)
    return pd.DataFrame(
        {
            "query_id": out["query_id"],
            "rank": out["rank"],
            "tier": out["tier"].astype(np.int32),
            "doc_id": out["doc_id"].astype(np.int64),
            "score": out["score"].astype(np.float64),
        }
    )


def q_hybrid_weighted(sf_dir: str):
    """Max-normalized weighted fusion of the word and trigram rankings
    (reference D3: _fuse_results weights + shared-hit bonus,
    hybrid_search_service.py:1114-1204)."""
    from hybrid_sanctions_search_engine_ray.functions.fusion import weighted_fusion

    lex = _search_rounded(sf_dir, BM25_QUERIES, mode="simple").to_pandas()
    ngr = _search_rounded(sf_dir, BM25_QUERIES, mode="char3").to_pandas()
    rows = []
    for qid in BM25_QUERIES:
        a = lex[lex.query_id == qid].sort_values("rank")
        b = ngr[ngr.query_id == qid].sort_values("rank")
        if len(a) == 0 and len(b) == 0:
            continue
        docs, fused = weighted_fusion(
            a["doc_id"].to_numpy(np.int64), a["score"].to_numpy(np.float64),
            b["doc_id"].to_numpy(np.int64), b["score"].to_numpy(np.float64),
            w_a=_FUSE_W_LEX, w_b=_FUSE_W_NGRAM, shared_bonus=_FUSE_SHARED,
            top_k=BM25_TOP_K,
        )
        for r, (d, f) in enumerate(zip(docs, fused), start=1):
            rows.append((qid, r, int(d), f))
    out = pd.DataFrame(rows, columns=["query_id", "rank", "doc_id", "fused_score"])
    return pd.DataFrame(
        {
            "query_id": out["query_id"],
            "rank": out["rank"].astype(np.int32),
            "doc_id": out["doc_id"].astype(np.int64),
            "fused_score": _round_half_away(out["fused_score"].to_numpy(), 6),
        }
    )


def q_post_filter(sf_dir: str):
    """Result post-filters + boosts (reference:
    hybrid_search_service.py:1206-1262): score threshold, role metadata
    filter, per-role boost, deterministic re-rank. Candidate metadata is
    fetched via a row-group-pruned point read — never a corpus scan."""
    import pyarrow.parquet as pq

    from hybrid_sanctions_search_engine_ray.sources.transcripts import documents_batch_to_transcripts
    from hybrid_sanctions_search_engine_ray.stages.postfilter import rank_filter_boost

    res = q_bm25_topk(sf_dir).to_pandas()
    ids = sorted(set(res["doc_id"].tolist()))
    docs = pq.read_table(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text"],
        filters=[("doc_id", "in", ids)],
    )
    meta = documents_batch_to_transcripts(docs).select(["doc_id", "role"]).to_pandas()
    out = rank_filter_boost(
        res,
        meta=meta,
        min_score=_POST_MIN_SCORE,
        allowed_values=set(_POST_ROLES),
        meta_col="role",
        boosts={_POST_BOOST_ROLE: _POST_BOOST},
        top_k=BM25_TOP_K,
    )
    out["boosted_score"] = _round4(out["boosted_score"].to_numpy())
    return out


# --- non-SQL-expressible ops (rows-only driver check; pytest-verified) ------


_JACCARD_DOCS = 80  # all-pairs exact Jaccard over this doc prefix
_JACCARD_MIN = 0.02


def q_jaccard_pairs(sf_dir: str):
    """Exact word-3-gram (shingle) Jaccard for every pair in a doc
    prefix — the n-gram-Jaccard verifier (stages/dedup.jaccard_verify)
    under an exact SQL oracle (set overlap is SQL-expressible; shingle
    HASHING is injective at these set sizes so hash-set Jaccard equals
    string-set Jaccard)."""
    import itertools

    import pyarrow.parquet as pq

    from hybrid_sanctions_search_engine_ray.stages.dedup import jaccard_verify

    docs = pq.read_table(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text"],
        filters=[("doc_id", "<", _JACCARD_DOCS)],
    )
    texts = dict(zip(docs["doc_id"].to_pylist(), docs["text"].to_pylist()))
    ids = sorted(texts)
    pairs = pd.DataFrame(
        [(a, b) for a, b in itertools.combinations(ids, 2)], columns=["doc_a", "doc_b"]
    )
    out = jaccard_verify(pairs, texts, shingle_k=3)
    out = out[out["jaccard"] >= _JACCARD_MIN].reset_index(drop=True)
    return pd.DataFrame(
        {
            "doc_a": out["doc_a"].astype(np.int64),
            "doc_b": out["doc_b"].astype(np.int64),
            "jaccard": out["jaccard"].astype(np.float64),
        }
    )


_CLUSTER_DOCS = 200  # near-dup edges drawn from this doc prefix
_CLUSTER_MIN = 0.02  # word-3-shingle Jaccard edge threshold


def q_lm_fluency(sf_dir: str):
    """Bigram-LM fluency (nll) per document — self-trained add-k
    smoothed word-bigram model, the CCNet/KenLM-style perplexity quality
    signal (stages/lm_score.py: bigram-key shuffle + broadcast unigram
    table, no joins)."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.lm_score import lm_score

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"])
    return lm_score(ds, k=0.5)


def q_ccnet_buckets(sf_dir: str):
    """CCNet head/middle/tail perplexity bucketing per language (Wenzek
    et al. 2020): bigram-LM nll per doc, exact per-language discrete
    quantile cutoffs off a bounded (lang × cent) histogram shuffle, one
    streaming labelling pass (stages/lm_score.ccnet_buckets)."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.lm_score import ccnet_buckets

    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["doc_id", "text"])
    langs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                            columns=["doc_id", "lang"])
    return ccnet_buckets(docs, langs, k=0.5, num_partitions=_join_parts())


def q_dup_clusters(sf_dir: str):
    """Duplicate-cluster assignment over the FULL corpus: near-dup PAIRS
    (word-3-shingle Jaccard ≥ threshold on a doc prefix — the same exact
    verifier as jaccard_pairs) become EDGES; distributed alternating
    large-star/small-star connected components (stages/clusters.py)
    collapse them transitively; every document gets cluster_id = min doc
    of its component (own id for singletons) in one streaming attach.
    SQL twin: recursive CTE reachability over the identical edge set."""
    import itertools

    import pyarrow.parquet as pq
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.clusters import (
        assign_clusters,
        connected_components,
    )
    from hybrid_sanctions_search_engine_ray.stages.dedup import jaccard_verify

    docs = pq.read_table(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text"],
        filters=[("doc_id", "<", _CLUSTER_DOCS)],
    )
    texts = dict(zip(docs["doc_id"].to_pylist(), docs["text"].to_pylist()))
    ids = sorted(texts)
    pairs = pd.DataFrame(
        [(a, b) for a, b in itertools.combinations(ids, 2)], columns=["doc_a", "doc_b"]
    )
    ver = jaccard_verify(pairs, texts, shingle_k=3)
    edges = ver[ver["jaccard"] >= _CLUSTER_MIN][["doc_a", "doc_b"]].rename(
        columns={"doc_a": "a", "doc_b": "b"}
    )
    comps = connected_components(rd.from_pandas(edges.astype(np.int64).reset_index(drop=True)))
    corpus = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"])
    return assign_clusters(corpus, comps)


_DEDUP_EVAL_DOCS = 120        # all-pairs ground truth over this doc prefix
_DEDUP_EVAL_JACCARD = 0.5     # near-dup threshold ≈ the 64/16 LSH s-curve midpoint
_DEDUP_EVAL_HAMMING = 6       # SimHash near-dup radius (bits of 64)
_DEDUP_EVAL_COS = 0.95        # embedding-cosine near-dup threshold


def q_dedup_eval(sf_dir: str):
    """Near-dup detector quality harness — the dedup twin of ann_eval:
    precision/recall of ALL THREE near-dup families — the MinHash-LSH
    candidate generator, the SimHash Hamming-radius rule, and the
    embedding-cosine threshold rule (hashing embedder, the vector
    member) — against the EXACT word-3-shingle Jaccard ground truth
    (all pairs of a doc prefix), at the threshold the 64/16 banding is
    tuned for ((1/bands)^(1/rows_per_band) ≈ 0.5). One row per method
    with hit counts + both metrics — the detector-selection evaluation
    a production dedup deployment runs before choosing a method (on
    this corpus it shows minhash_lsh dominating for shingle-defined
    truth: p=1.0/r=0.77 vs simhash 0.52/0.69 and embed-cos0.95
    0.70/0.48 — the vector detector measures a DIFFERENT similarity,
    which is exactly what the harness is for). Rows-only check (sketch
    assignment is not SQL-expressible; the exact sides ARE SQL-checked
    separately via jaccard_pairs/minhash_exact/simhash_exact/
    embed_exact)."""
    import itertools

    import pyarrow.parquet as pq
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.dedup import (
        jaccard_verify,
        minhash_candidate_pairs,
        simhash64,
    )

    docs = pq.read_table(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text"],
        filters=[("doc_id", "<", _DEDUP_EVAL_DOCS)],
    )
    texts = dict(zip(docs["doc_id"].to_pylist(), docs["text"].to_pylist()))
    # plant deterministic near-duplicate variants (every 3rd doc gets a
    # copy with every 7th token rewritten) so the ground-truth positive
    # set is non-empty at EVERY scale — real cross-doc near-dups are
    # corpus luck; a detector-quality harness needs guaranteed
    # positives. The truth side is still the EXACT shingle-Jaccard of
    # the augmented set, not the construction.
    for d in sorted(texts):
        if d % 3 == 0:
            toks = texts[d].split(" ")
            # every 12th token: ~8% token edits ≈ 25% shingle churn →
            # Jaccard ≈ 0.6, safely above the 0.5 truth threshold
            for p in range(3, len(toks), 12):
                toks[p] = f"znq{p}"
            texts[d + 1_000_000] = " ".join(toks)
    ids = sorted(texts)
    docs = pa.table({"doc_id": pa.array(ids, pa.int64()),
                     "text": pa.array([texts[i] for i in ids], pa.string())})
    all_pairs = pd.DataFrame(
        [(a, b) for a, b in itertools.combinations(ids, 2)], columns=["doc_a", "doc_b"]
    )
    ver = jaccard_verify(all_pairs, texts, shingle_k=3)
    truth = {(int(a), int(b)) for a, b, j in
             zip(ver["doc_a"], ver["doc_b"], ver["jaccard"]) if j >= _DEDUP_EVAL_JACCARD}
    jmap = {(int(a), int(b)): float(j) for a, b, j in
            zip(ver["doc_a"], ver["doc_b"], ver["jaccard"])}

    prefix = rd.from_arrow(docs)
    cand_mh = minhash_candidate_pairs(prefix).to_pandas()
    if "doc_a" not in cand_mh.columns:  # empty Dataset loses its schema
        cand_mh = pd.DataFrame({"doc_a": pd.Series([], dtype=np.int64),
                                "doc_b": pd.Series([], dtype=np.int64)})
    mh_pairs = {tuple(sorted((int(a), int(b)))) for a, b in
                zip(cand_mh["doc_a"], cand_mh["doc_b"])}

    sigs = prefix.map_batches(simhash64, batch_format="pyarrow").to_pandas()
    sigs = sigs.sort_values("doc_id").reset_index(drop=True)
    s = sigs["simhash"].to_numpy(np.int64).view(np.uint64)
    d_ids = sigs["doc_id"].to_numpy(np.int64)
    xor = s[:, None] ^ s[None, :]
    ham = np.zeros_like(xor, dtype=np.int64)
    for _ in range(64):
        ham += (xor & np.uint64(1)).astype(np.int64)
        xor >>= np.uint64(1)
    ai, bi = np.triu_indices(len(s), k=1)
    sh_pairs = {(int(d_ids[a]), int(d_ids[b]))
                for a, b in zip(ai[ham[ai, bi] <= _DEDUP_EVAL_HAMMING],
                                bi[ham[ai, bi] <= _DEDUP_EVAL_HAMMING])}

    # third family: embedding-cosine near-dup over the SAME augmented
    # texts (hashing embedder → unit vectors → thresholded cosine) —
    # the vector member of the near-dup detector-selection harness
    from hybrid_sanctions_search_engine_ray.stages.embeddings import embed_documents

    emb = (embed_documents(prefix, dim=64, concurrency=2)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    e_ids = emb["doc_id"].to_numpy(np.int64)
    e_mat = np.stack(emb["embedding"].to_numpy()).astype(np.float64)
    cos = e_mat @ e_mat.T
    eai, ebi = np.triu_indices(len(e_ids), k=1)
    keep_e = cos[eai, ebi] >= _DEDUP_EVAL_COS
    em_pairs = {(int(e_ids[a]), int(e_ids[b]))
                for a, b in zip(eai[keep_e], ebi[keep_e])}

    rows = []
    for method, cand in (("minhash_lsh", mh_pairs), ("simhash_h6", sh_pairs),
                         (f"embed_cos{_DEDUP_EVAL_COS}", em_pairs)):
        hits = cand & truth
        true_cand = sum(1 for p in cand if jmap.get(p, 0.0) >= _DEDUP_EVAL_JACCARD)
        rows.append({
            "method": method,
            "n_truth": np.int64(len(truth)),
            "n_candidates": np.int64(len(cand)),
            "n_hits": np.int64(len(hits)),
            "precision": round(true_cand / len(cand), 4) if cand else 1.0,
            "recall": round(len(hits) / len(truth), 4) if truth else 1.0,
        })
    return pd.DataFrame(rows)


def q_dedup_keep_best(sf_dir: str):
    """End-to-end near-dedup KEEP rule — the curation step after
    clustering: every duplicate cluster keeps its longest member
    ('keep the best copy'). Cluster assignments (the dup_clusters
    machinery) hash-join per-doc token counts (doc-sized × doc-sized →
    native shuffle join, no broadcast), then the per-cluster
    representative = (n_tokens desc, doc_id asc) via the partial-argmax
    pattern; token-less docs count 0 (left-outer join)."""
    import ray.data as rd  # noqa: F401

    from hybrid_sanctions_search_engine_ray.sources.transcripts import transcripts_from_documents
    from hybrid_sanctions_search_engine_ray.stages.analyze import flat_terms

    clusters = q_dup_clusters(sf_dir)
    acfg = _engine_cfg().analyzer

    def counts(b: pa.Table) -> pa.Table:
        parent, _terms = flat_terms(b, acfg)
        if parent.size == 0:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "n_tokens": pa.array([], pa.int64())})
        starts = np.flatnonzero(np.r_[True, parent[1:] != parent[:-1]])
        n = np.diff(np.r_[starts, parent.size])
        ids = b["doc_id"].to_numpy(zero_copy_only=False)[parent[starts]]
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "n_tokens": pa.array(n, pa.int64())})

    cnts = transcripts_from_documents(sf_dir).map_batches(counts, batch_format="pyarrow")
    joined = clusters.join(cnts, join_type="left_outer", num_partitions=_join_parts(), on=("doc_id",))

    def partial(b: pa.Table) -> pa.Table:
        df = b.to_pandas()
        df["n_tokens"] = df["n_tokens"].fillna(0).astype(np.int64)
        best = df.sort_values(["n_tokens", "doc_id"], ascending=[False, True],
                              kind="mergesort").groupby("cluster_id", sort=False).head(1)
        return pa.Table.from_pandas(best, preserve_index=False)

    cand = joined.map_batches(partial, batch_format="pyarrow", batch_size=16384)

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["n_tokens", "doc_id"], ascending=[False, True],
                          kind="mergesort").head(1)
        return pd.DataFrame(
            {
                "cluster_id": g["cluster_id"].astype(np.int64).to_numpy(),
                "doc_id": g["doc_id"].astype(np.int64).to_numpy(),
                "n_tokens": g["n_tokens"].astype(np.int64).to_numpy(),
            }
        )

    return cand.groupby("cluster_id").map_groups(finish, batch_format="pandas")


def q_has_parent(sf_dir: str):
    """ES has_parent (score=true): top-3 conversations by best-turn
    BM25, expanded to EVERY turn of those conversations with the parent
    score inherited (search_features.HasParentScorer — docmap-keyed
    general path, vs conv_search's dense id-stride)."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.pipelines.search_features import has_parent_search

    index_dir = _ensure_index(sf_dir)
    qs = rd.from_items(
        [{"query_id": qid, "query_text": t, "top_k": 3} for qid, t in TOP_HITS_QUERIES.items()]
    )
    return _finish_scores(has_parent_search(qs, index_dir, key="conv_id",
                                            top_parents=3, cfg=_engine_cfg()))


def q_has_child(sf_dir: str):
    """ES has_child with score_mode=avg and min_children=2: rank
    CONVERSATIONS by the MEAN BM25 of their matching turns, keeping only
    parents with ≥2 matching children (the child-count constraint the
    plain conv_search max-rollup doesn't exercise). Over-fetch 4× then
    quantized re-rank on (round4 score desc, conv_num asc) — the avg is
    a float division whose 4-decimal quantization is shared with the
    SQL twin."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.pipelines.query import conv_search

    index_dir = _ensure_index(sf_dir)
    qs = rd.from_items(
        [{"query_id": qid, "query_text": t, "top_k": BM25_TOP_K * 4}
         for qid, t in BM25_QUERIES.items()]
    )
    res = conv_search(qs, index_dir, turns_per_conv=8, score_mode="avg",
                      min_children=2)

    def final(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["score"] = _round4(b["score"].to_numpy())
        return b

    res = res.map_batches(final, batch_format="pandas")

    def _rerank(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["score", "conv_num"], ascending=[False, True],
                          kind="mergesort").head(BM25_TOP_K)
        g = g.reset_index(drop=True)
        g["rank"] = np.arange(1, len(g) + 1, dtype=np.int32)
        return g[["query_id", "rank", "conv_num", "score", "n_hit_turns"]]

    return res.groupby("query_id").map_groups(_rerank, batch_format="pandas")


def q_regexp_search(sf_dir: str):
    """ES regexp query: anchored whole-term regex expanded against the
    dictionary, scoring_boolean BM25 (search_features.regexp_search)."""
    from hybrid_sanctions_search_engine_ray.pipelines.search_features import regexp_search

    index_dir = _ensure_index(sf_dir)
    return _finish_scores(regexp_search(REGEXP_QUERIES, index_dir, _engine_cfg(),
                                        top_k=BM25_TOP_K))


def q_mmr_rerank(sf_dir: str):
    """Diversified retrieval (MMR) — RAG-stack rerank: BM25 top-20
    window, greedy λ·rel − (1−λ)·trigram-Jaccard selection
    (search_features.MMRScorer). Greedy selection is inherently
    sequential → rows-only driver check; the pytest oracle replays the
    greedy loop brute-force."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.pipelines.search_features import mmr_search

    index_dir = _ensure_index(sf_dir)
    qs = rd.from_items(
        [{"query_id": qid, "query_text": t, "top_k": BM25_TOP_K}
         for qid, t in BM25_QUERIES.items()]
    )
    res = mmr_search(qs, index_dir, os.path.join(sf_dir, "documents.parquet"),
                     window=20, lam=0.7, cfg=_engine_cfg())
    return _finish_scores(res)


def q_match_count(sf_dir: str):
    """ES _count API: per query, the OR-match doc count straight off the
    posting lists (no scoring, no corpus scan)."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.pipelines.search_features import count_search

    index_dir = _ensure_index(sf_dir)
    qs = rd.from_items([{"query_id": qid, "query_text": t} for qid, t in BM25_QUERIES.items()])
    return count_search(qs, index_dir, _engine_cfg())


_HYBRID_ALL_W = [0.5, 0.3, 0.2]  # lexical, trigram, vector


def q_hybrid_all(sf_dir: str):
    """The reference's FULL hybrid retrieval in one call — lexical word
    BM25 + fuzzy trigram BM25 + semantic vector cosine, max-normalized
    3-way weighted fusion (hybrid_search_service.py find_candidates
    tiers + _fuse_results, with the vector tier included). The vector
    signal embeds the QUERY with the same deterministic feature-hash
    embedder that embeds the corpus; cosine runs through the
    broadcast-query brute-force path. Feature-hash embeddings are not
    SQL-expressible → rows-only driver check; pytest validates the
    fusion arithmetic and each tier is exact-oracle-checked on its own
    (bm25_topk / ngram_bm25 / embed_docs)."""
    import pyarrow.parquet as _pq  # noqa: F401
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.functions.fusion import weighted_fusion_many
    from hybrid_sanctions_search_engine_ray.stages.embeddings import (
        HashingEmbedder,
        embed_documents,
    )
    from hybrid_sanctions_search_engine_ray.stages.similarity import brute_force_topk
    from hybrid_sanctions_search_engine_ray.sources.transcripts import transcripts_from_documents

    lex = _search_rounded(sf_dir, BM25_QUERIES, mode="simple").to_pandas()
    ngr = _search_rounded(sf_dir, BM25_QUERIES, mode="char3").to_pandas()

    acfg = _engine_cfg().analyzer
    doc_vecs = embed_documents(transcripts_from_documents(sf_dir), dim=64,
                               analyzer_cfg=acfg).map_batches(
        lambda b: b.rename_columns(["vec_id", "embedding"]), batch_format="pyarrow"
    )
    qids_sorted = sorted(BM25_QUERIES)
    q_tbl = pa.table({"doc_id": pa.array(range(len(qids_sorted)), pa.int64()),
                      "text": [BM25_QUERIES[q] for q in qids_sorted]})
    q_emb = HashingEmbedder(dim=64, analyzer_cfg=acfg)(q_tbl)
    q_mat = np.stack([np.asarray(v, dtype=np.float64) for v in q_emb["embedding"].to_pylist()])
    pseudo_ids = [-(i + 1) for i in range(len(qids_sorted))]  # never collide with doc ids
    vec = brute_force_topk(doc_vecs, pseudo_ids, q_mat, k=50, exclude_self=False).to_pandas()

    rows = []
    for i, qid in enumerate(qids_sorted):
        a = lex[lex.query_id == qid].sort_values("rank")
        b = ngr[ngr.query_id == qid].sort_values("rank")
        v = vec[vec.query_vec_id == pseudo_ids[i]].sort_values("rank")
        docs, fused = weighted_fusion_many(
            [
                (a["doc_id"].to_numpy(np.int64), a["score"].to_numpy(np.float64)),
                (b["doc_id"].to_numpy(np.int64), b["score"].to_numpy(np.float64)),
                (v["vec_id"].to_numpy(np.int64), v["cos_sim"].to_numpy(np.float64)),
            ],
            _HYBRID_ALL_W,
            top_k=BM25_TOP_K,
        )
        for r, (d, f) in enumerate(zip(docs, fused), start=1):
            rows.append((qid, r, int(d), f))
    out = pd.DataFrame(rows, columns=["query_id", "rank", "doc_id", "fused_score"])
    return pd.DataFrame(
        {
            "query_id": out["query_id"],
            "rank": out["rank"].astype(np.int32),
            "doc_id": out["doc_id"].astype(np.int64),
            "fused_score": _round_half_away(out["fused_score"].to_numpy(), 6),
        }
    )


def q_brand_revenue(sf_dir: str):
    """lineitem ⋈ part broadcast join (the part dimension ships once
    via ray.put) → discounted revenue per brand: the last driver table
    (part) exercised through the same small-side join + partial-agg
    shape as segment_revenue."""
    import pyarrow.parquet as pq
    import ray.data as rd
    from ray.data.aggregate import Sum

    from hybrid_sanctions_search_engine_ray.stages.joins import broadcast_join

    part = pq.read_table(
        os.path.join(sf_dir, "part.parquet"), columns=["p_partkey", "p_brand"]
    ).to_pandas().rename(columns={"p_partkey": "l_partkey"})
    line = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_partkey", "l_extendedprice", "l_discount"],
    )
    joined = broadcast_join(line, part, on="l_partkey", concurrency=2)

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b.assign(rev=b["l_extendedprice"] * (1.0 - b["l_discount"]))
        return b.groupby("p_brand", sort=False).agg(
            n_p=("rev", "size"), sum_p=("rev", "sum")
        ).reset_index()

    agg = (
        joined.map_batches(partial, batch_format="pandas")
        .groupby("p_brand")
        .aggregate(Sum("n_p", alias_name="n_items"), Sum("sum_p", alias_name="revenue"))
    )

    def final(b: pd.DataFrame) -> pd.DataFrame:
        r = b["revenue"].to_numpy()
        return pd.DataFrame(
            {
                "brand": b["p_brand"],
                "n_items": b["n_items"].astype(np.int64),
                "revenue": np.sign(r) * np.floor(np.abs(r) * 100 + 0.5) / 100,
            }
        )

    return agg.map_batches(final, batch_format="pandas")


def q_conv_enrich(sf_dir: str):
    """Partition-window aggregates attached back to rows (SQL
    ``count(*)/sum(...) OVER (PARTITION BY conv_id)``) without
    materializing groups: conversation-level aggregates (turn count,
    total chars) computed via the partial-agg pattern, then hash-joined
    back to every turn — group table and row table are BOTH data-sized,
    so the attach is a native shuffle join, never a broadcast."""
    import pyarrow.compute as _pc
    import ray.data as rd  # noqa: F401
    from ray.data.aggregate import Sum

    from hybrid_sanctions_search_engine_ray.sources.transcripts import transcripts_from_documents

    ts = transcripts_from_documents(sf_dir)

    def partial(b: pa.Table) -> pa.Table:
        t = pa.table({
            "conv_id": b["conv_id"],
            "chars": _pc.cast(_pc.utf8_length(_pc.fill_null(b["text"], "")), pa.int64()),
        })
        g = t.group_by(["conv_id"]).aggregate([("chars", "sum"), ([], "count_all")])
        return g.rename_columns(["conv_id", "chars_p", "rows_p"])

    conv = (
        ts.map_batches(partial, batch_format="pyarrow")
        .groupby("conv_id")
        .aggregate(Sum("rows_p", alias_name="conv_n_turns"),
                   Sum("chars_p", alias_name="conv_chars"))
    )
    rows = ts.map_batches(
        lambda b: pa.table({"doc_id": b["doc_id"], "conv_id": b["conv_id"]}),
        batch_format="pyarrow",
    )
    joined = rows.join(conv, join_type="inner", num_partitions=_join_parts(), on=("conv_id",))

    def finish(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": b["doc_id"].cast(pa.int64()),
                "conv_id": b["conv_id"],
                "conv_n_turns": b["conv_n_turns"].cast(pa.int64()),
                "conv_chars": b["conv_chars"].cast(pa.int64()),
            }
        )

    return joined.map_batches(finish, batch_format="pyarrow")


def q_vectors_jsonl(sf_dir: str):
    """Vector JSON writer/reader (reference S4: scripts/
    generate_vectors.py:134-136 vector JSON export) — the embeddings
    table round-trips through sharded JSONL and comes back value-exact:
    returns (vec_id, dim, l2 norm) computed from the RE-READ vectors, so
    a lossy write/read would break the SQL oracle (which computes the
    same from the original parquet)."""
    import shutil

    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.embeddings import (
        read_vectors_json,
        write_vectors_json,
    )

    tag = os.path.basename(os.path.normpath(sf_dir))
    out = f"/tmp/graft_vectors_jsonl_{tag}"
    shutil.rmtree(out, ignore_errors=True)
    ds = rd.read_parquet(os.path.join(sf_dir, "embeddings.parquet"), columns=["vec_id", "embedding"])
    write_vectors_json(ds, out)
    back = read_vectors_json(out)

    def _norms(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        emb = batch["embedding"]
        vals = pc.list_flatten(emb).to_numpy(zero_copy_only=False).astype(np.float64)
        lens = pc.list_value_length(emb).to_numpy(zero_copy_only=False).astype(np.int64)
        assert (lens > 0).all(), "zero-length vector in embeddings table"
        offs = np.concatenate(([0], np.cumsum(lens)[:-1]))
        sq = np.add.reduceat(vals * vals, offs) if len(vals) else np.empty(0)
        return pa.table(
            {
                "vec_id": batch["vec_id"],
                "dim": pa.array(lens, pa.int64()),
                "l2_norm": pa.array(_round4(np.sqrt(sq)), pa.float64()),
            }
        )

    return back.map_batches(_norms, batch_format="pyarrow")


def q_minhash_pairs(sf_dir: str):
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.dedup import minhash_candidate_pairs

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"])
    return minhash_candidate_pairs(ds)


def q_simhash(sf_dir: str):
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.dedup import simhash64

    # batch_size 1024: the kernel's (tokens × 64) bit matrix must stay
    # allocator-resident — this host's first-touch page cost makes one
    # giant batch ~10× slower than a few reused small ones
    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"])
    return ds.map_batches(simhash64, batch_format="pyarrow", batch_size=1024)


def q_simhash_exact(sf_dir: str):
    """SimHash with the DuckDB-parity md5 token hash — the SQL-checkable
    twin of q_simhash: per doc, per bit, majority vote over token
    OCCURRENCES of bit b of md5_number_upper(term); signature emitted as
    two's-complement int64. Same vectorized reduceat kernel, different
    hash — the exact-oracle upgrade for the SimHash family."""
    from functools import partial as _partial

    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.dedup import simhash64

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "text"])
    return ds.map_batches(_partial(simhash64, hasher="md5"),
                          batch_format="pyarrow", batch_size=1024)


_MHX_PERMS, _MHX_K = 8, 3


def q_minhash_exact(sf_dir: str):
    """MinHash signatures with full SQL checkability — the exact-oracle
    upgrade for the LSH family: md5-parity token hashes → polynomial
    word-3-gram hashes (each uint64 step = mod 2^64, replicated in SQL
    with HUGEINT arithmetic) → per-permutation min of (a·x+b) mod
    Mersenne-61 over the doc's grams, for the first 8 seed-7
    permutations (the same `_perm_params` the production MinHasher
    draws from). Docs shorter than k tokens are excluded on both sides
    (the SQL triple-join contract). Same vectorized reduceat kernel as
    the banded MinHasher — no per-doc loop."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.config import AnalyzerConfig
    from hybrid_sanctions_search_engine_ray.stages.analyze import flat_terms
    from hybrid_sanctions_search_engine_ray.stages.dedup import (
        _MERSENNE,
        _gram_hashes,
        _perm_params,
        _token_hashes_md5,
    )

    a, b = _perm_params(_MHX_PERMS)
    cfg = AnalyzerConfig()

    def sig(batch: pa.Table) -> pa.Table:
        parent, terms = flat_terms(batch, cfg)
        doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        if len(terms) == 0:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "perm": pa.array([], pa.int32()),
                             "sig": pa.array([], pa.int64())})
        th = _token_hashes_md5(terms.to_numpy(zero_copy_only=False))
        grams_all = _gram_hashes(th, _MHX_K)
        valid = parent[: grams_all.size] == parent[_MHX_K - 1: _MHX_K - 1 + grams_all.size]
        grams = grams_all[valid]
        gdoc = parent[: grams_all.size][valid]
        if grams.size == 0:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "perm": pa.array([], pa.int32()),
                             "sig": pa.array([], pa.int64())})
        vals = (grams.reshape(-1, 1) * a + b) % np.uint64(_MERSENNE)
        starts = np.flatnonzero(np.concatenate(([True], gdoc[1:] != gdoc[:-1])))
        present = gdoc[starts]
        mins = np.minimum.reduceat(vals, starts, axis=0)  # (docs, perms)
        n_docs, n_perm = mins.shape
        return pa.table({
            "doc_id": pa.array(np.repeat(doc_ids[present], n_perm)),
            "perm": pa.array(np.tile(np.arange(n_perm, dtype=np.int32), n_docs)),
            "sig": pa.array(mins.reshape(-1).astype(np.int64)),
        })

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "text"])
    return ds.map_batches(sig, batch_format="pyarrow", batch_size=1024)


def _mhx_perm_values() -> str:
    from hybrid_sanctions_search_engine_ray.stages.dedup import _perm_params

    a, b = _perm_params(_MHX_PERMS)
    return ", ".join(f"({i}, {int(a[i])}::HUGEINT, {int(b[i])}::HUGEINT)"
                     for i in range(_MHX_PERMS))


_FPX_K = 4


def q_fingerprint_exact(sf_dir: str):
    """Winnowing-style fingerprint with the md5-parity hash — the
    SQL-checkable twin of q_fingerprint: per doc, min over word-4-gram
    polynomial hashes (uint64 wrap chain = HUGEINT mod-2^64 in SQL),
    emitted as two's-complement int64. Docs shorter than k tokens are
    excluded on both sides (the SQL join contract; none exist in this
    corpus)."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.config import AnalyzerConfig
    from hybrid_sanctions_search_engine_ray.stages.analyze import flat_terms
    from hybrid_sanctions_search_engine_ray.stages.dedup import (
        _gram_hashes,
        _token_hashes_md5,
    )

    cfg = AnalyzerConfig()

    def fp(b: pa.Table) -> pa.Table:
        parent, terms = flat_terms(b, cfg)
        doc_ids = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        if len(terms) == 0:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "fingerprint": pa.array([], pa.int64())})
        th = _token_hashes_md5(terms.to_numpy(zero_copy_only=False))
        grams_all = _gram_hashes(th, _FPX_K)
        valid = parent[: grams_all.size] == parent[_FPX_K - 1: _FPX_K - 1 + grams_all.size]
        grams = grams_all[valid]
        gdoc = parent[: grams_all.size][valid]
        if grams.size == 0:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "fingerprint": pa.array([], pa.int64())})
        starts = np.flatnonzero(np.concatenate(([True], gdoc[1:] != gdoc[:-1])))
        mins = np.minimum.reduceat(grams, starts)
        return pa.table({
            "doc_id": pa.array(doc_ids[gdoc[starts]]),
            "fingerprint": pa.array(mins.view(np.int64)),
        })

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "text"])
    return ds.map_batches(fp, batch_format="pyarrow", batch_size=1024)


def q_fingerprint(sf_dir: str):
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.textops import fingerprint

    cfg = _engine_cfg()
    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"])
    return ds.map_batches(lambda b: fingerprint(b, cfg.analyzer), batch_format="pyarrow", batch_size=4096)


def q_embed_docs(sf_dir: str):
    """Deterministic feature-hashing embedding generation (the load-once
    model actor-pool stage — reference: embedding_service.py:108-150).
    Rows-only check: the hash projection is not reasonably
    SQL-expressible; pytest pins determinism/norm/semantic properties."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.embeddings import embed_documents

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"])
    out = embed_documents(ds, dim=32, concurrency=2)

    def _norm_col(b: pa.Table) -> pa.Table:
        m = np.array(b["embedding"].to_pylist(), dtype=np.float64)
        nrm = np.linalg.norm(m, axis=1) if m.size else np.zeros(0)
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "norm": pa.array(np.round(nrm, 4), pa.float64()),
            }
        )

    return out.map_batches(_norm_col, batch_format="pyarrow")


def q_media_features(sf_dir: str):
    """Multimodal decode pipeline over REAL codecs (BMP images decoded
    and featurized by the actor pool; deterministic seeded media table).
    Rows-only: binary codec paths aren't SQL-expressible."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.multimodal import decode_images, synthesize_media

    ds = rd.from_arrow(synthesize_media(200, seed=11, kind="image"))
    out = decode_images(ds, concurrency=2, batch_size=32)

    def final(b: pa.Table) -> pa.Table:
        feats = np.array(b["feature"].to_pylist(), dtype=np.float64)
        mean = feats.mean(axis=1) if feats.size else np.zeros(0)
        return pa.table(
            {
                "media_id": b["media_id"],
                "decoded_w": b["decoded_w"],
                "decoded_h": b["decoded_h"],
                "feat_mean": pa.array(np.round(mean, 4), pa.float64()),
            }
        )

    return out.map_batches(final, batch_format="pyarrow")


def q_topk_sketch(sf_dir: str):
    """SpaceSaving approximate top-terms (mergeable sketch per batch).
    At documents' skew the head is exact (max_error 0) — pytest asserts
    it equals the exact top_terms; the driver gets a rows-only check
    because approximation bounds aren't SQL-expressible."""
    from hybrid_sanctions_search_engine_ray.sources.transcripts import transcripts_from_documents
    from hybrid_sanctions_search_engine_ray.stages.sketch_ops import top_terms_sketch

    return top_terms_sketch(transcripts_from_documents(sf_dir), _engine_cfg().analyzer, k=20)


_TKX_K = 15


def q_topk_sketch_exact(sf_dir: str):
    """The SpaceSaving sketch run where its own error bound PROVES
    exactness: capacity ≥ vocabulary ⇒ every counter is exact
    (max_error 0), so the sketch pipeline — per-batch sketch partials →
    tree merge — must equal plain counting, and the oracle checks it
    value-for-value. The query asserts the bound (raises if any
    max_error ≠ 0) before dropping the error column, so a capacity
    regression fails loudly rather than drifting."""
    from hybrid_sanctions_search_engine_ray.sources.transcripts import transcripts_from_documents
    from hybrid_sanctions_search_engine_ray.stages.sketch_ops import top_terms_sketch

    out = top_terms_sketch(transcripts_from_documents(sf_dir),
                           _engine_cfg().analyzer, capacity=4096, k=_TKX_K)
    if len(out) and int(out["max_error"].abs().max()) != 0:
        raise AssertionError("capacity < vocabulary: sketch no longer exact")
    return pd.DataFrame({"term": out["term"],
                         "est_count": out["est_count"].astype(np.int64)})


def q_distinct_sketch(sf_dir: str):
    from hybrid_sanctions_search_engine_ray.sources.transcripts import transcripts_from_documents
    from hybrid_sanctions_search_engine_ray.stages.sketch_ops import distinct_terms_hll

    est = distinct_terms_hll(transcripts_from_documents(sf_dir), _engine_cfg().analyzer)
    return pd.DataFrame({"distinct_terms_est": [float(round(est, 1))]})


def q_ann_ivf(sf_dir: str):
    """IVF-ANN over a PERSISTED cluster-partitioned layout: the index is
    built once per sf dir (cached under /tmp), queries read only the
    probed cluster partitions."""
    from hybrid_sanctions_search_engine_ray import __version__ as _fmt
    from hybrid_sanctions_search_engine_ray.stages.similarity import ivf_build, ivf_query

    path = os.path.join(sf_dir, "embeddings.parquet")
    tag = os.path.basename(os.path.normpath(sf_dir))
    ivf_dir = f"/tmp/graft_ivf_cache/{_fmt}/{tag}"
    ivf_build(path, ivf_dir)
    q_ids, q_mat = _load_query_vectors(path)
    return ivf_query(ivf_dir, q_ids.tolist(), q_mat, k=_EMB_TOP_K)


_IVFX_CLUSTERS, _IVFX_NPROBE = 8, 3


def _ivf_oracle_dir() -> str:
    """The FIXED path the ivf_probe_exact DuckDB twin reads the
    persisted int64 centroid table from (same refresh contract as
    :func:`_pq_oracle_dir`: the Ray callable rewrites it every run,
    and the gate runs the Ray side immediately before its twin)."""
    from hybrid_sanctions_search_engine_ray import __version__ as _fmt

    return f"/tmp/graft_ivf_oracle/{_fmt}"


def q_ivf_probe_exact(sf_dir: str):
    """IVF probe serving, VALUE-GATED end to end — the verification
    companion to ann_ivf (whose float centroids are principled
    rows-only), completing the closure pattern across the ANN family
    (pq_adc/ann_pq for PQ, nsw_full_beam for NSW): k-means training
    stays outside the oracle, its output is persisted as an int64
    centroid table the DuckDB twin reads back, and assignment, probe
    ordering, the partition-pruned candidate scan and the integer-dot
    top-k are reproduced value-for-value in SQL
    (stages/similarity.ivf_probe_exact)."""
    from hybrid_sanctions_search_engine_ray.stages.similarity import ivf_probe_exact

    return ivf_probe_exact(os.path.join(sf_dir, "embeddings.parquet"),
                           _ivf_oracle_dir(), n_queries=_N_EMB_QUERIES,
                           n_clusters=_IVFX_CLUSTERS, nprobe=_IVFX_NPROBE,
                           k=_EMB_TOP_K)


_LSHX_PLANES, _LSHX_RADIUS = 8, 2


def q_lsh_probe_exact(sf_dir: str):
    """Hyperplane-LSH probe serving, VALUE-GATED end to end — the
    companion to ann_lsh (whose Gaussian planes are principled
    rows-only): planes are the quantize-normalized Lehmer-ranked anchor
    rows, signatures/buckets are integer dot signs, multi-probe is a
    Hamming-radius filter (DuckDB bit_count(xor)), scoring is the
    integer dot — all pure BIGINT on both sides
    (stages/similarity.lsh_probe_exact). With ivf_probe_exact,
    pq_adc/ann_pq and nsw_full_beam, every ANN mode now has value-level
    evidence."""
    from hybrid_sanctions_search_engine_ray.stages.similarity import lsh_probe_exact

    return lsh_probe_exact(os.path.join(sf_dir, "embeddings.parquet"),
                           n_queries=_N_EMB_QUERIES, n_planes=_LSHX_PLANES,
                           radius=_LSHX_RADIUS, k=_EMB_TOP_K)


_PROTOX_KEEP, _PROTOX_CLUSTERS = 0.75, 8


def _proto_oracle_dir() -> str:
    """Fixed centroid-table path for the proto_prune_exact twin (same
    refresh contract as :func:`_pq_oracle_dir`)."""
    from hybrid_sanctions_search_engine_ray import __version__ as _fmt

    return f"/tmp/graft_proto_oracle/{_fmt}"


def q_proto_prune_exact(sf_dir: str):
    """SSL-prototype pruning, VALUE-GATED end to end — the companion to
    prototype_prune (float cosines, principled rows-only): persisted
    int64 centroids, integer dot prototypicality, rank-K keep-hard
    cutoff with ties kept, all BIGINT on both sides
    (stages/similarity.proto_prune_exact; the cutoff selection is two
    extra streaming passes — coarse bucket histogram, then only the
    target bucket's rows — never a corpus materialize or sort)."""
    from hybrid_sanctions_search_engine_ray.stages.similarity import proto_prune_exact

    return proto_prune_exact(os.path.join(sf_dir, "embeddings.parquet"),
                             _proto_oracle_dir(), keep_frac=_PROTOX_KEEP,
                             n_clusters=_PROTOX_CLUSTERS)


_MMRX_W, _MMRX_K, _MMRX_WREL, _MMRX_WDIV = 12, 5, 7, 3


def q_mmr_exact(sf_dir: str):
    """Diversified retrieval (MMR), VALUE-GATED — the companion to
    mmr_rerank (BM25+trigram greedy float loop, principled rows-only):
    integer-dot relevance over quantize-normalized embeddings, integer
    weights 7/3 for λ=0.7, greedy steps reproduced in the twin as k
    UNROLLED argmax CTEs (stages/similarity.mmr_exact). mmr_q is the
    marginal score at selection time, so the whole greedy trajectory —
    not just the final set — is value-checked."""
    from hybrid_sanctions_search_engine_ray.stages.similarity import mmr_exact

    return mmr_exact(os.path.join(sf_dir, "embeddings.parquet"),
                     n_queries=_N_EMB_QUERIES, window=_MMRX_W, k=_MMRX_K,
                     w_rel=_MMRX_WREL, w_div=_MMRX_WDIV)


def _mmr_exact_sql() -> str:
    """Build the mmr_exact twin: standard integer-normalization CTEs +
    candidate window + pairwise dots, then the greedy loop UNROLLED as
    ``_MMRX_K`` chained argmax CTEs (step t picks the (mmr desc,
    vec_id) winner among candidates not yet in p{{t-1}})."""
    wrel, wdiv = _MMRX_WREL, _MMRX_WDIV
    parts = [f"""
WITH raw AS (
  SELECT vec_id, generate_subscripts(embedding, 1) - 1 AS d,
         cast(round(unnest(embedding)::DOUBLE * {_PQX_SCALE}) AS BIGINT) AS xq
  FROM embeddings),
nrm AS (SELECT vec_id, sum(xq * xq) AS ss FROM raw GROUP BY vec_id),
vn AS (
  SELECT r.vec_id, r.d,
         cast(round(r.xq / sqrt(n.ss::DOUBLE) * {_PQX_SCALE}) AS BIGINT) AS nq
  FROM raw r JOIN nrm n USING (vec_id)),
rel AS (
  SELECT q.vec_id AS query_vec_id, v.vec_id, sum(q.nq * v.nq) AS dot
  FROM vn q JOIN vn v ON v.d = q.d AND v.vec_id <> q.vec_id
  WHERE q.vec_id < {_N_EMB_QUERIES}
  GROUP BY 1, 2),
cand AS (
  SELECT query_vec_id, vec_id, cast(dot AS BIGINT) AS rel_q FROM (
    SELECT query_vec_id, vec_id, dot,
           row_number() OVER (
             PARTITION BY query_vec_id ORDER BY dot DESC, vec_id) AS rn
    FROM rel) WHERE rn <= {_MMRX_W}),
pairdot AS (
  SELECT c1.query_vec_id, c1.vec_id AS a, c2.vec_id AS b,
         cast(sum(va.nq * vb.nq) AS BIGINT) AS dot
  FROM cand c1
  JOIN cand c2 ON c2.query_vec_id = c1.query_vec_id
  JOIN vn va ON va.vec_id = c1.vec_id
  JOIN vn vb ON vb.vec_id = c2.vec_id AND vb.d = va.d
  GROUP BY 1, 2, 3),
s1 AS (
  SELECT query_vec_id, vec_id, rel_q, {wrel} * rel_q AS mmr_q, 1 AS rank
  FROM (SELECT c.*, row_number() OVER (
          PARTITION BY query_vec_id
          ORDER BY {wrel} * rel_q DESC, vec_id) AS rn FROM cand c)
  WHERE rn = 1),
p1 AS (SELECT query_vec_id, vec_id FROM s1)"""]
    for t in range(2, _MMRX_K + 1):
        parts.append(f""",
s{t} AS (
  SELECT query_vec_id, vec_id, rel_q, mmr_q, {t} AS rank FROM (
    SELECT c.query_vec_id, c.vec_id, c.rel_q,
           {wrel} * c.rel_q - {wdiv} * COALESCE(m.maxdiv, 0) AS mmr_q,
           row_number() OVER (
             PARTITION BY c.query_vec_id
             ORDER BY {wrel} * c.rel_q - {wdiv} * COALESCE(m.maxdiv, 0) DESC,
                      c.vec_id) AS rn
    FROM cand c
    LEFT JOIN p{t - 1} pp
      ON pp.query_vec_id = c.query_vec_id AND pp.vec_id = c.vec_id
    LEFT JOIN (
      SELECT pd.query_vec_id, pd.a AS vec_id, max(pd.dot) AS maxdiv
      FROM pairdot pd
      JOIN p{t - 1} p ON p.query_vec_id = pd.query_vec_id
                     AND p.vec_id = pd.b
      GROUP BY 1, 2) m
      ON m.query_vec_id = c.query_vec_id AND m.vec_id = c.vec_id
    WHERE pp.vec_id IS NULL) WHERE rn = 1),
p{t} AS (SELECT * FROM p{t - 1}
         UNION ALL SELECT query_vec_id, vec_id FROM s{t})""")
    union = "\nUNION ALL ".join(
        f"SELECT * FROM s{t}" for t in range(1, _MMRX_K + 1))
    parts.append(f"""
SELECT query_vec_id, cast(rank AS BIGINT) AS rank, vec_id, rel_q,
       cast(mmr_q AS BIGINT) AS mmr_q
FROM ({union}) ORDER BY query_vec_id, rank""")
    return "".join(parts)


_PQ_RERANK = 100
_PQX_SCALE = 1_000_000  # == stages.similarity.PQ_EXACT_SCALE


def _pq_oracle_dir() -> str:
    """The FIXED path the ann_pq DuckDB twin reads the persisted k-means
    codebook from (oracle_sql() strings are static, so the Ray callable
    refreshes this copy on every run — the gate always runs the Ray side
    immediately before its SQL twin on the same sf)."""
    from hybrid_sanctions_search_engine_ray import __version__ as _fmt

    return f"/tmp/graft_pq_oracle/{_fmt}"


def q_ann_pq(sf_dir: str):
    """Product-quantization ANN (Jégou et al. 2011): ADC lookup-sum scan
    over the m-byte/vector persisted code table + rescore of the merged
    top-rerank candidates — vector quantization completes the ANN family
    beside IVF/LSH/NSW/int8 (stages/similarity.pq_build/pq_query_exact).
    VALUE-GATED end to end: pq_build persists the k-means OUTPUT as an
    int64 codebook table (training stays outside the oracle; its output
    is just a table), encoding/ADC/rescore are pure BIGINT
    (quantized-normalized coords, integer dot rescore), and the DuckDB
    twin reads the SAME codebook parquet and reproduces codes, ADC sums
    and the rescore ranking value-for-value."""
    import shutil as _sh

    from hybrid_sanctions_search_engine_ray import __version__ as _fmt
    from hybrid_sanctions_search_engine_ray.stages.similarity import (
        pq_build, pq_query_exact)

    path = os.path.join(sf_dir, "embeddings.parquet")
    tag = os.path.basename(os.path.normpath(sf_dir))
    pq_dir = f"/tmp/graft_pq_cache/{_fmt}/{tag}"
    pq_build(path, pq_dir)
    odir = _pq_oracle_dir()
    os.makedirs(odir, exist_ok=True)
    _sh.copyfile(os.path.join(pq_dir, "codebook.parquet"),
                 os.path.join(odir, "codebook.parquet"))
    return pq_query_exact(pq_dir, path, n_queries=_N_EMB_QUERIES,
                          k=_EMB_TOP_K, rerank=_PQ_RERANK)


_PQ_ADC_M, _PQ_ADC_CODES, _PQ_ADC_SCALE = 8, 8, 1_000_000


def q_pq_adc(sf_dir: str):
    """Product-quantization ADC scan with an EXACT value-level twin —
    the verification companion to ann_pq (whose k-means codebooks are
    principled rows-only). Codebook = subvectors of the n_codes corpus
    rows ranked first by the Lehmer permutation ((vec_id%P)*48271)%P
    (sampled-point VQ, no Lloyd iterations); every coordinate is
    quantized to int64 ×1e6 with the DuckDB round() parity kernel, so
    encode argmin, ADC tables and scores are pure BIGINT on both sides
    (stages/similarity.pq_adc_exact). One streaming scan, broadcast
    integer tables, batch-local top-k partials."""
    from hybrid_sanctions_search_engine_ray.stages.similarity import pq_adc_exact

    return pq_adc_exact(os.path.join(sf_dir, "embeddings.parquet"),
                        n_queries=_N_EMB_QUERIES, m=_PQ_ADC_M,
                        n_codes=_PQ_ADC_CODES, k=_EMB_TOP_K,
                        scale=_PQ_ADC_SCALE)


def q_ann_lsh(sf_dir: str):
    """Multi-probe hyperplane-LSH ANN over a PERSISTED part-partitioned
    layout (the second scale path beside IVF): one stored corpus copy
    bucketed by packed sign bits; queries read only the parts holding
    buckets within a Hamming radius of their signature, with the bucket
    filter pushed into the parquet scan. The testdata embeddings are
    WEAKLY similar (true-neighbor cos ~0.3-0.4), so this uses the
    wide-probe setting (8 planes, radius 3 — ~36% scan, est. recall
    ~0.6) the stage docstring prescribes for that regime; near-dup-grade
    corpora use the tighter 12/2 default."""
    from hybrid_sanctions_search_engine_ray import __version__ as _fmt
    from hybrid_sanctions_search_engine_ray.stages.similarity import lsh_build, lsh_query

    path = os.path.join(sf_dir, "embeddings.parquet")
    tag = os.path.basename(os.path.normpath(sf_dir))
    lsh_dir = f"/tmp/graft_lsh_cache/{_fmt}/{tag}"
    lsh_build(path, lsh_dir, n_planes=8)
    q_ids, q_mat = _load_query_vectors(path)
    return lsh_query(lsh_dir, q_ids.tolist(), q_mat, k=_EMB_TOP_K, radius=3)


def q_ann_nsw(sf_dir: str):
    """Sharded-NSW graph ANN (HNSW-class; reference's optional FAISS-HNSW
    mode, vector_index_service.py:42-53) over a PERSISTED layout: vectors
    hash-split into shard graphs (part=P/ adjacency parquet), every shard
    beam-searched per query, tiny global merge. Unlike IVF/LSH there is no
    probe-miss regime — recall is governed by (m, ef) graph quality, the
    recall-at-low-latency point the other two modes can't reach on weakly
    similar corpora (see ann_eval). Rows-only check (graph construction is
    not SQL-expressible)."""
    from hybrid_sanctions_search_engine_ray import __version__ as _fmt
    from hybrid_sanctions_search_engine_ray.stages.similarity import nsw_build, nsw_query

    path = os.path.join(sf_dir, "embeddings.parquet")
    tag = os.path.basename(os.path.normpath(sf_dir))
    nsw_dir = f"/tmp/graft_nsw_cache/{_fmt}/{tag}"
    nsw_build(path, nsw_dir, n_parts=8, m=8, ef_construction=48)
    q_ids, q_mat = _load_query_vectors(path)
    return nsw_query(nsw_dir, q_ids.tolist(), q_mat, k=_EMB_TOP_K, ef=48)


def _nsw_oracle_dir() -> str:
    """Fixed path the nsw_full_beam twin reads the persisted shard-0
    parquet from (same refresh-on-run contract as _pq_oracle_dir)."""
    from hybrid_sanctions_search_engine_ray import __version__ as _fmt

    return f"/tmp/graft_nsw_oracle/{_fmt}"


def q_nsw_full_beam(sf_dir: str):
    """VALUE-GATED companion to ann_nsw (the r04 evidence-closure item):
    with the beam width set to the whole shard, the NSW greedy search
    must visit every node reachable from the entry point and its
    (-sim, local-index) ordering must equal exact brute-force cosine
    ranking — so over ONE persisted shard, full-beam NSW == brute force
    on that shard's vectors, which IS SQL-expressible. The twin reads
    the same part=0 parquet (shard membership comes from the persisted
    layout, not from re-deriving splitmix64 in SQL) and ranks by
    list_cosine_similarity. This gates graph connectivity AND the
    beam-search kernel's ordering semantics; the production ef regime's
    recall stays measured in ann_eval."""
    import shutil as _sh

    import pyarrow.parquet as _pqt

    from hybrid_sanctions_search_engine_ray import __version__ as _fmt
    from hybrid_sanctions_search_engine_ray.stages.similarity import (
        _batch_matrix, _normalize, _nsw_search, nsw_build)

    path = os.path.join(sf_dir, "embeddings.parquet")
    tag = os.path.basename(os.path.normpath(sf_dir))
    nsw_dir = f"/tmp/graft_nsw_cache/{_fmt}/{tag}"
    nsw_build(path, nsw_dir, n_parts=8, m=8, ef_construction=48)
    shard_path = os.path.join(nsw_dir, "part=0", "data.parquet")
    odir = _nsw_oracle_dir()
    os.makedirs(odir, exist_ok=True)
    _sh.copyfile(shard_path, os.path.join(odir, "shard0.parquet"))

    tbl = _pqt.read_table(shard_path)
    mat = _normalize(_batch_matrix(tbl))
    vec_ids = tbl["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    nb = tbl["neighbors"].combine_chunks()
    flat = nb.flatten().to_numpy(zero_copy_only=False)
    offs = nb.offsets.to_numpy(zero_copy_only=False)
    nbrs = [flat[offs[i]:offs[i + 1]] for i in range(len(tbl))]
    q_ids, q_mat = _load_query_vectors(path)
    qm = _normalize(np.asarray(q_mat, dtype=np.float64))
    rows = []
    for qi, qid in enumerate(q_ids):
        idx, sims = _nsw_search(mat, nbrs, qm[qi], ef=len(nbrs))
        r = 0
        for j, s in zip(idx, sims):
            if vec_ids[j] == qid:
                continue
            r += 1
            if r > _EMB_TOP_K:
                break
            rows.append((int(qid), r, int(vec_ids[j]), float(s)))
    out = pd.DataFrame(rows, columns=["query_vec_id", "rank", "vec_id",
                                      "cos_sim"])
    out["query_vec_id"] = out["query_vec_id"].astype(np.int64)
    out["rank"] = out["rank"].astype(np.int64)
    out["vec_id"] = out["vec_id"].astype(np.int64)
    out["cos_sim"] = _round4(out["cos_sim"].to_numpy())
    return out


# --- driver entry points ----------------------------------------------------


def entry() -> Any:
    """Flagship pipeline at sf0.001: build the inverted index from the
    transcript table, run the golden BM25 query batch, join doc map."""
    from hybrid_sanctions_search_engine_ray.pipelines.query import attach_docmap

    sf_dir = "/root/testdata/sf0.001"
    res = q_bm25_topk(sf_dir).to_pandas()
    return attach_docmap(res, _ensure_index(sf_dir))


def _finish_scores(res, round_digits: int = 4):
    """Common top-k finisher: round the score column, int32 rank."""

    def _f(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["score"] = _round_half_away(b["score"].to_numpy(), round_digits)
        b["rank"] = b["rank"].astype(np.int32)
        return b

    return res.map_batches(_f, batch_format="pandas")


def q_wildcard_search(sf_dir: str):
    """ES wildcard query with the scoring_boolean rewrite: the pattern
    expands against the index's term dictionary (distributed column-
    pruned scan of the segment term columns) and the expansion rides the
    ordinary BM25 posting path (pipelines/search_features.py)."""
    from hybrid_sanctions_search_engine_ray.pipelines.search_features import wildcard_search

    index_dir = _ensure_index(sf_dir)
    res = wildcard_search(WILDCARD_QUERIES, index_dir, _engine_cfg(), top_k=BM25_TOP_K)
    return _finish_scores(res)


def q_collapse_search(sf_dir: str):
    """ES field collapsing on conv_id: rank conversations by their best
    hit, one representative turn each — the full candidate set collapses
    (not a top-window), keys come from the docmap loaded once per actor."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.pipelines.search_features import collapse_search

    index_dir = _ensure_index(sf_dir)
    qs = rd.from_items(
        [{"query_id": qid, "query_text": t, "top_k": BM25_TOP_K} for qid, t in BM25_QUERIES.items()]
    )
    return _finish_scores(collapse_search(qs, index_dir, key="conv_id", cfg=_engine_cfg()))


def q_top_hits(sf_dir: str):
    """ES terms aggregation with a top_hits sub-aggregation: per
    turn_idx group, the group's top-3 hits by BM25 (rank restarts per
    group; groups keyed by the docmap attribute)."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.pipelines.search_features import top_hits_search

    index_dir = _ensure_index(sf_dir)
    qs = rd.from_items([{"query_id": qid, "query_text": t} for qid, t in TOP_HITS_QUERIES.items()])
    res = top_hits_search(qs, index_dir, key="turn_idx",
                          per_group=_TOP_HITS_PER_GROUP, cfg=_engine_cfg())
    return _finish_scores(res)


def q_boosting(sf_dir: str):
    """ES boosting query: positive-clause BM25 with negative-clause
    matches demoted ×0.5 over the FULL candidate set."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.pipelines.search_features import boosting_search

    index_dir = _ensure_index(sf_dir)
    qs = rd.from_items([{**q, "top_k": BM25_TOP_K} for q in BOOSTING_QUERIES])
    return _finish_scores(boosting_search(qs, index_dir, _NEG_BOOST, _engine_cfg()))


def q_rescore(sf_dir: str):
    """ES rescore: word-BM25 first pass, exact-phrase bonus (positional
    postings) re-ranks only the top-window; docs outside the window
    never surface (contrast: function_score boosts all candidates)."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.pipelines.search_features import rescore_search

    index_dir = _ensure_index(sf_dir, positional=True)
    qs = rd.from_items(
        [{"query_id": qid, "query_text": t, "top_k": BM25_TOP_K} for qid, t in RESCORE_QUERIES.items()]
    )
    res = rescore_search(qs, index_dir, window=_RESCORE_WINDOW,
                         weight=_RESCORE_WEIGHT, cfg=_engine_cfg())
    return _finish_scores(res)


def q_random_score(sf_dir: str):
    """ES function_score random_score (seeded, boost_mode=replace):
    reproducible pseudo-random ranking of the match candidates —
    md5_number_upper parity with the SQL oracle."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.pipelines.search_features import random_score_search

    index_dir = _ensure_index(sf_dir)
    qs = rd.from_items(
        [{"query_id": qid, "query_text": t, "top_k": BM25_TOP_K}
         for qid, t in RANDOM_SCORE_QUERIES.items()]
    )
    res = random_score_search(qs, index_dir, seed=_RANDOM_SEED, cfg=_engine_cfg())
    return _finish_scores(res, round_digits=6)


def q_explain(sf_dir: str):
    """ES explain API: per-term additive BM25 contributions for each
    query's top-3 docs (contributions sum to the TAAT score exactly)."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.pipelines.search_features import explain_search

    index_dir = _ensure_index(sf_dir)
    qs = rd.from_items([{"query_id": qid, "query_text": t} for qid, t in BM25_QUERIES.items()])
    res = explain_search(qs, index_dir, top_k=3, cfg=_engine_cfg())

    def _f(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["contrib"] = _round4(b["contrib"].to_numpy())
        b["rank"] = b["rank"].astype(np.int32)
        return b

    return res.map_batches(_f, batch_format="pandas")


def q_term_vectors(sf_dir: str):
    """ES term-vectors API for a fixed doc sample: (doc_id, term, tf,
    df) — tf from re-analysis with the index analyzer, df from pruned
    posting reads."""
    import pyarrow.parquet as pq

    from hybrid_sanctions_search_engine_ray.pipelines.search_features import term_vectors

    index_dir = _ensure_index(sf_dir)
    tbl = pq.read_table(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text"],
        filters=[("doc_id", "in", TERM_VECTOR_DOCS)],
    )
    texts = dict(zip(tbl["doc_id"].to_pylist(), tbl["text"].to_pylist()))
    return term_vectors(index_dir, TERM_VECTOR_DOCS, texts)


def q_adjacency(sf_dir: str):
    """ES adjacency_matrix aggregation: doc counts per named term filter
    and per pairwise intersection, straight off the posting lists."""
    from hybrid_sanctions_search_engine_ray.pipelines.search_features import adjacency_matrix

    index_dir = _ensure_index(sf_dir)
    return adjacency_matrix(index_dir, ADJACENCY_FILTERS)


def q_composite_agg(sf_dir: str):
    """ES composite aggregation with after-key paging over
    (role, turn_idx): aggregate once (partial group_by → small shuffle),
    page the ordered bucket list."""
    from hybrid_sanctions_search_engine_ray.sources.transcripts import transcripts_from_documents
    from hybrid_sanctions_search_engine_ray.stages.relational import composite_pages

    ds = transcripts_from_documents(sf_dir)
    df = composite_pages(ds, ["role", "turn_idx"], _COMPOSITE_PAGE)
    df["turn_idx"] = df["turn_idx"].astype(np.int64)
    return df


def q_date_histogram(sf_dir: str):
    """ES date_histogram + pipeline aggs (derivative, cumulative_sum)
    over the events log: one streaming pass, integer-exact."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.windows import bucket_series

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"), columns=["ts"])
    return bucket_series(ds, ts_col="ts", bucket_s=_BUCKET_S)


def q_chunk_docs(sf_dir: str):
    """Token-window chunking with overlap (RAG / training-sample prep):
    pure vectorized flat-map, one chunk row per (doc, window)."""
    from hybrid_sanctions_search_engine_ray.sources.transcripts import transcripts_from_documents
    from hybrid_sanctions_search_engine_ray.stages.textops import chunk_documents

    cfg = _engine_cfg().analyzer
    ds = transcripts_from_documents(sf_dir)
    return ds.map_batches(
        lambda b: chunk_documents(b, cfg, window=_CHUNK_WINDOW, stride=_CHUNK_STRIDE),
        batch_format="pyarrow",
        batch_size=4096,
    )


def q_knn_filtered(sf_dir: str):
    """Filtered vector search (ES8 kNN with a metadata filter): cosine
    top-k restricted to label==1, the filter pushed into the parquet
    scan so non-matching vectors never leave storage."""
    import pyarrow.dataset as pads
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.similarity import brute_force_topk

    path = os.path.join(sf_dir, "embeddings.parquet")
    ds = rd.read_parquet(
        path, columns=["vec_id", "embedding"], filter=pads.field("label") == _KNN_LABEL
    )
    q_ids, q_mat = _load_query_vectors(path)
    res = brute_force_topk(ds, q_ids.tolist(), q_mat, k=_EMB_TOP_K, exclude_self=True)

    def final(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "query_vec_id": b["query_vec_id"].astype(np.int64),
                "rank": b["rank"].astype(np.int32),
                "vec_id": b["vec_id"].astype(np.int64),
                "cos_sim": _round4(b["cos_sim"].to_numpy()),
            }
        )

    return res.map_batches(final, batch_format="pandas")


def q_span_near(sf_dir: str):
    """ES span_near (in_order, per-gap slop) over the positional index:
    contiguity relaxed to a proximity window; survivors rank by BM25."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.pipelines.search_features import span_near_search

    index_dir = _ensure_index(sf_dir, positional=True)
    qs = rd.from_items([{**q, "top_k": BM25_TOP_K} for q in SPAN_QUERIES])
    return _finish_scores(span_near_search(qs, index_dir, _engine_cfg()))


def q_span_near_unordered(sf_dir: str):
    """ES span_near with in_order=false: minimal covering window width
    − n_terms ≤ slop (Lucene's unordered rule); pairs are given in
    reversed document order so ordered matching would miss them."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.pipelines.search_features import span_near_search

    index_dir = _ensure_index(sf_dir, positional=True)
    qs = rd.from_items([{**q, "top_k": BM25_TOP_K} for q in SPANU_QUERIES])
    return _finish_scores(span_near_search(qs, index_dir, _engine_cfg(), in_order=False))


def q_dis_max(sf_dir: str):
    """ES dis_max: best clause score + tie_breaker × the others (the
    multi_match best_fields combinator)."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.pipelines.search_features import dis_max_search

    index_dir = _ensure_index(sf_dir)
    qs = rd.from_items([{**q, "top_k": BM25_TOP_K} for q in DISMAX_QUERIES])
    return _finish_scores(dis_max_search(qs, index_dir, _DISMAX_TIE, _engine_cfg()))


def _q_multi_match(sf_dir: str, match_type: str):
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.pipelines.search_features import multi_match_search

    dirs = [
        _ensure_index(sf_dir),
        _ensure_index(sf_dir, mode="shingle"),
        _ensure_index(sf_dir, mode="char3"),
    ]
    qs = rd.from_items(
        [
            {"query_id": qid, "query_text": t, "top_k": BM25_TOP_K * 4}
            for qid, t in MULTI_MATCH_QUERIES.items()
        ]
    )
    res = _finish_scores(
        multi_match_search(qs, dirs, list(_MM_BOOSTS), match_type, _MM_TIE, _engine_cfg())
    )

    # quantized re-rank (the trigram field produces exact score ties):
    # over-fetched 4× above, keep top-k on (round4 score desc, doc_id asc)
    def _rerank(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["score", "doc_id"], ascending=[False, True], kind="mergesort").head(BM25_TOP_K)
        g = g.reset_index(drop=True)
        g["rank"] = np.arange(1, len(g) + 1, dtype=np.int32)
        return g[["query_id", "rank", "doc_id", "score"]]

    return res.groupby("query_id").map_groups(_rerank, batch_format="pandas")


def q_multi_match_best(sf_dir: str):
    """ES multi_match type=best_fields across the word/shingle/char3
    field indexes: dis_max (max + tie_breaker × rest) over boosted
    per-field BM25 scores — the reference's multi-subfield search shape
    (elasticsearch_component_template.json:20-56 subfields queried from
    hybrid_search_service.py:912-928). Typo'd queries retrieve through
    the trigram field alone; adjacent-word queries get the shingle
    field's contiguity boost."""
    return _q_multi_match(sf_dir, "best_fields")


def q_multi_match_most(sf_dir: str):
    """ES multi_match type=most_fields: SUM of boosted per-field BM25
    scores — rewards documents matching in EVERY field rather than the
    single best one."""
    return _q_multi_match(sf_dir, "most_fields")


# sort-by-field retrieval queries (ES "sort": [{field: asc}] mode).
FIELD_SORT_QUERIES: dict[str, str] = {
    "fs1": "spark filter",
    "fs2": "window stream",
    "fs3": "zzzmissing",
}
_MGET_IDS = [3, 42, 7, 999999999]      # last one is a guaranteed miss
_SAMPLER_QUERY, _SAMPLER_SIZE, _SAMPLER_TOP = "spark join", 50, 20


def q_field_sort(sf_dir: str):
    """ES sort-by-field: docs matching ≥1 term ordered by doc fields
    (conv_id, turn_idx) instead of relevance — track_scores=false."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.pipelines.search_features import field_sort_search

    index_dir = _ensure_index(sf_dir)
    qs = rd.from_items(
        [{"query_id": qid, "query_text": t, "top_k": BM25_TOP_K}
         for qid, t in FIELD_SORT_QUERIES.items()]
    )
    return field_sort_search(qs, index_dir, ("conv_id", "turn_idx"), _engine_cfg())


def q_mget(sf_dir: str):
    """ES multi-get: point-fetch by doc id (row-group-pruned docmap
    reads); missing ids report found=0, never an error."""
    from hybrid_sanctions_search_engine_ray.pipelines.search_features import mget

    return mget(_ensure_index(sf_dir), _MGET_IDS)


def q_sampler_terms(sf_dir: str):
    """ES sampler aggregation + terms sub-agg: term doc-counts over only
    the top-N BM25 hits (broadcast sampled-id membership, one scan)."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.facets import sampler_terms

    index_dir = _ensure_index(sf_dir)
    corpus = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    return sampler_terms(index_dir, _SAMPLER_QUERY, corpus,
                         analyzer_cfg=_engine_cfg().analyzer,
                         sample_size=_SAMPLER_SIZE, top_n=_SAMPLER_TOP)


_ENUM_PREFIX, _ENUM_SIZE = "s", 10
# 2-token typo'd phrases; the corrected bigram must exist in the corpus
# for the shingle-df collate signal to rank it first.
PHRASE_SUGGEST_QUERIES: dict[str, str] = {
    "ps1": "sprak jion",
    "ps2": "custmer tabel",
    "ps3": "windo streem",
}
_PS_DIST, _PS_TOPN, _PS_TOPK = 2, 3, 3


def q_geo_mean(sf_dir: str):
    """ES scripted_metric aggregation instantiated as a geometric mean
    per event_type: map script emits (Σln v, n) partial state, declared
    sum-mergeable, reduce script computes exp(Σln/n)."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.es_aggs import scripted_metric

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_type", "value"])

    def map_script(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        v = b["value"].to_numpy(zero_copy_only=False).astype(np.float64)
        t = pa.table({"event_type": b["event_type"],
                      "s_ln": pa.array(np.log(v)),
                      "n": pa.array(np.ones(v.size, np.int64))})
        g = t.group_by("event_type").aggregate([("s_ln", "sum"), ("n", "sum")])
        return g.rename_columns(["event_type", "s_ln", "n"])

    def reduce_script(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "event_type": b["event_type"],
            "n": b["n"].astype(np.int64),
            "geo_mean": _round4(np.exp(b["s_ln"].to_numpy() / b["n"].to_numpy())),
        })

    return scripted_metric(ds, "event_type", map_script,
                           {"s_ln": "sum", "n": "sum"}, reduce_script)


def q_cum_cardinality(sf_dir: str):
    """ES cumulative_cardinality pipeline agg, exact: running distinct
    users per day bucket (first-seen shuffle over distinct keys only)."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.es_aggs import cumulative_cardinality

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["user_id", "ts"])
    return cumulative_cardinality(ds, "user_id", "ts", 86400)


_FP_TOP_ITEMS, _FP_MIN_SUPPORT, _FP_TOP_N = 50, 100, 20


def q_frequent_pairs(sf_dir: str):
    """ES frequent_item_sets (size-2) with apriori pruning: top-df items
    broadcast, per-doc pair counts among them, support floor + top-N."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.facets import frequent_pairs

    vocab = q_term_dictionary(sf_dir).to_pandas()
    corpus = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                             columns=["doc_id", "text"])
    return frequent_pairs(corpus, analyzer_cfg=_engine_cfg().analyzer,
                          top_items=_FP_TOP_ITEMS, min_support=_FP_MIN_SUPPORT,
                          top_n=_FP_TOP_N, vocab_df=vocab)


_FT_TOP_ITEMS, _FT_MIN_SUPPORT, _FT_TOP_N = 25, 50, 15


def q_frequent_triples(sf_dir: str):
    """ES frequent_item_sets size-3 (apriori beyond pairs): top-df item
    broadcast, per-doc distinct-item triples, bounded C(25,3) key
    space (stages/facets.frequent_triples)."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.facets import frequent_triples

    vocab = q_term_dictionary(sf_dir).to_pandas()
    corpus = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                             columns=["doc_id", "text"])
    return frequent_triples(corpus, analyzer_cfg=_engine_cfg().analyzer,
                            top_items=_FT_TOP_ITEMS,
                            min_support=_FT_MIN_SUPPORT,
                            top_n=_FT_TOP_N, vocab_df=vocab)


RAG_QUERIES: dict[str, str] = {
    "rq1": "spark join performance",
    "rq2": "customer table scan",
    "rq3": "window stream data",
}


def q_rag_retrieve(sf_dir: str):
    """End-to-end RAG retrieval: chunk → actor-pool embed → brute-force
    cosine top-k chunks per query. Rows-only (hash embeddings are not
    SQL-expressible; every stage is exact-oracle-checked alone:
    chunk_docs, embed_docs, embedding_topk)."""
    from hybrid_sanctions_search_engine_ray.sources.transcripts import transcripts_from_documents
    from hybrid_sanctions_search_engine_ray.stages.embeddings import rag_retrieve

    ds = transcripts_from_documents(sf_dir)
    out = rag_retrieve(ds, RAG_QUERIES, dim=32, window=_CHUNK_WINDOW,
                       stride=_CHUNK_STRIDE, k=5, analyzer_cfg=_engine_cfg().analyzer)
    out["cos_sim"] = _round4(out["cos_sim"].to_numpy())
    return out


_MP_WINDOW, _MP_QS = 3, (0.5, 0.9)


def q_moving_percentiles(sf_dir: str):
    """ES moving_percentiles, exact: per day bucket the percentile_cont
    quantiles of the trailing-3-bucket value window (per-bucket value
    histograms fanned out to their windows — never the raw rows)."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.es_aggs import moving_percentiles

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"), columns=["ts", "value"])
    df = moving_percentiles(ds, "ts", 86400, "value", window=_MP_WINDOW, qs=_MP_QS)
    for q in _MP_QS:
        c = f"p{int(q * 100)}"
        df[c] = _round4(df[c].to_numpy())
    return df


_SPLITS = {"train": 90, "val": 5, "test": 5}


def q_dataset_split(sf_dir: str):
    """Training-data split assignment: deterministic hash buckets →
    train/val/test column in one streaming pass; audited per split."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from hybrid_sanctions_search_engine_ray.stages.sampling import dataset_split

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "n_chars"])
    tagged = dataset_split(ds, "doc_id", _SPLITS, salt="-sp")

    def partial(b: pa.Table) -> pa.Table:
        t = pa.table({"split": b["split"],
                      "n": pa.array(np.ones(len(b), np.int64)),
                      "ch": b["n_chars"]})
        return t.group_by("split").aggregate([("n", "sum"), ("ch", "sum")])

    out = (
        tagged.map_batches(partial, batch_format="pyarrow")
        .groupby("split")
        .aggregate(Sum("n_sum", alias_name="n_docs"), Sum("ch_sum", alias_name="n_chars_sum"))
        .to_pandas()
    )
    out["n_docs"] = out["n_docs"].astype(np.int64)
    out["n_chars_sum"] = out["n_chars_sum"].astype(np.int64)
    return out


def q_sig_text(sf_dir: str):
    """ES significant_text under a sampler: JLH-overrepresented terms
    with the FOREGROUND limited to the top-N BM25 hits (the canonical
    ES pairing — significant_text inside a sampler agg)."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.facets import significant_terms

    index_dir = _ensure_index(sf_dir)
    corpus = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    return significant_terms(index_dir, _SAMPLER_QUERY, corpus,
                             analyzer_cfg=_engine_cfg().analyzer, top_n=10, min_fg=2,
                             sample_size=_SAMPLER_SIZE)


def q_temperature_mix(sf_dir: str):
    """Training-data source mixing: inverse-sqrt (T=0.5) rebalancing
    rates from per-source counts, one deterministic hash-sampling pass,
    per-source audit (total, rate, sampled)."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.sampling import temperature_mix

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "source"])
    return temperature_mix(ds, "doc_id", "source", salt="-mix")


def q_terms_enum(sf_dir: str):
    """ES _terms_enum: first N index terms with a prefix, lexicographic,
    via the shared column-pruned segment term scan."""
    from hybrid_sanctions_search_engine_ray.pipelines.search_features import terms_enum

    return terms_enum(_ensure_index(sf_dir), _ENUM_PREFIX, _ENUM_SIZE)


def q_phrase_suggest(sf_dir: str):
    """ES phrase suggester: typo'd bigrams → whole-phrase corrections
    collated by the shingle field's real phrase frequency."""
    from hybrid_sanctions_search_engine_ray.pipelines.search_features import phrase_suggest

    shingle_idx = _ensure_index(sf_dir, mode="shingle")
    vocab = q_term_dictionary(sf_dir)
    return phrase_suggest(PHRASE_SUGGEST_QUERIES, shingle_idx, vocab,
                          max_dist=_PS_DIST, topn=_PS_TOPN, top_k=_PS_TOPK)


# Pinned (promoted-result) queries: (text, promoted doc_ids in order).
PINNED_QUERIES: dict[str, tuple[str, list[int]]] = {
    "pn1": ("spark join filter", [42, 7]),
    "pn2": ("window stream", [3]),
    "pn3": ("customer table scan", []),
}
_VR_MIN_COS = 0.3
_ADH_TARGET = 10
_SW_LAG, _SW_WINDOW = 7, 3


def q_vector_range(sf_dir: str):
    """Cosine radius (range) similarity search: every corpus vector with
    cos ≥ threshold to each query vector — broadcast query matrix, one
    matmul per batch, threshold filter in the task, NO merge stage."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.similarity import cosine_range_search

    path = os.path.join(sf_dir, "embeddings.parquet")
    ds = rd.read_parquet(path, columns=["vec_id", "embedding"])
    q_ids, q_mat = _load_query_vectors(path)
    res = cosine_range_search(ds, q_ids, q_mat, threshold=_VR_MIN_COS, exclude_self=True)

    def final(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["cos_sim"] = _round4(b["cos_sim"].to_numpy())
        return b

    return res.map_batches(final, batch_format="pandas")


def q_pinned(sf_dir: str):
    """ES pinned query: promoted ids first in given order, organic BM25
    fills the rest with promoted ids excluded."""
    from hybrid_sanctions_search_engine_ray.pipelines.search_features import pinned_search

    index_dir = _ensure_index(sf_dir)
    out = pinned_search(PINNED_QUERIES, index_dir, _engine_cfg(), top_k=BM25_TOP_K)
    out["score"] = _round4(out["score"].to_numpy())
    return out


def q_auto_date_histogram(sf_dir: str):
    """ES auto_date_histogram: smallest ladder interval (hour/day/week/
    30d) with bucket count ≤ target, then the integer-bucket histogram —
    interval choice is all-integer and shared exactly with the SQL."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.windows import auto_date_histogram

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"), columns=["ts"])
    return auto_date_histogram(ds, "ts", target_buckets=_ADH_TARGET)


def q_series_window(sf_dir: str):
    """ES serial_diff (lag 7) + moving_fn (previous-3 mean) pipeline aggs
    over the gap-filled day histogram."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.windows import series_window

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"), columns=["ts"])
    df = series_window(ds, "ts", 86400, lag=_SW_LAG, window=_SW_WINDOW)
    df["mov_mean"] = _round4(df["mov_mean"].to_numpy())
    return df


def _pinned_values() -> tuple[str, str, str]:
    """(qterms VALUES, pins VALUES, npins VALUES) for the pinned oracle."""
    from hybrid_sanctions_search_engine_ray.functions.analyzer import tokenize_simple

    qt, pv, nv = [], [], []
    for qid, (text, pins) in PINNED_QUERIES.items():
        for term in sorted(set(tokenize_simple(text))):
            qt.append(f"('{qid}', '{term}')")
        for i, d in enumerate(pins):
            pv.append(f"('{qid}', {i + 1}, {d})")
        nv.append(f"('{qid}', {len(pins)})")
    # DuckDB VALUES cannot be empty: pad pins with an impossible row
    if not pv:
        pv.append("('__none__', 0, -1)")
    return ", ".join(qt), ", ".join(pv), ", ".join(nv)


_RANGE_EDGES = (50.0, 150.0)
_FILTER_PATTERNS = {          # RE2, shared VERBATIM with the DuckDB oracle
    "has_spark": "spark",
    "has_join_or_merge": "join|merge",
    "has_digit": "[0-9]",
}
_BP_MIN_COUNT, _BP_TOP = 25, 5
_TT_GROUPS = ("click", "error")


def q_boxplot(sf_dir: str):
    """ES boxplot aggregation, exact: per event_type the five-number
    summary (min, q1, median, q3, max) with percentile_cont interpolation
    — the deterministic twin of ES's TDigest approximation."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.es_aggs import boxplot

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_type", "value"])
    res = boxplot(ds, "event_type", "value")

    def _f(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        for c in ("v_min", "q1", "q2", "q3", "v_max"):
            b[c] = _round4(b[c].to_numpy())
        return b

    return res.map_batches(_f, batch_format="pandas")


def q_mad_value(sf_dir: str):
    """ES median_absolute_deviation, exact two-pass:
    median(|x − median(x)|) per event_type."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.es_aggs import grouped_mad

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_type", "value"])
    res = grouped_mad(ds, "event_type", "value")

    def _f(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["mad"] = _round4(b["mad"].to_numpy())
        return b

    return res.map_batches(_f, batch_format="pandas")


def q_weighted_avg(sf_dir: str):
    """ES weighted_avg: quantity-weighted mean extended price per return
    flag — float partials, one tiny shuffle, division on buckets."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.es_aggs import weighted_avg

    ds = rd.read_parquet(os.path.join(sf_dir, "lineitem.parquet"),
                         columns=["l_returnflag", "l_extendedprice", "l_quantity"])
    res = weighted_avg(ds, "l_returnflag", "l_extendedprice", "l_quantity")

    def _f(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["weighted_avg"] = _round4(b["weighted_avg"].to_numpy())
        return b

    return res.map_batches(_f, batch_format="pandas")


def q_t_test_welch(sf_dir: str):
    """ES t_test (heteroscedastic/Welch) between two event types: one
    streaming sufficient-stat scan, closed-form finisher. The oracle SQL
    shares the explicit (Σx² − (Σx)²/n)/(n−1) variance form verbatim."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.es_aggs import welch_t_test

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_type", "value"])
    df = welch_t_test(ds, "event_type", "value", *_TT_GROUPS)
    for c in ("mean_a", "mean_b", "t_stat", "dof"):
        df[c] = _round_half_away(df[c].to_numpy(), 6)
    df["n_a"] = df["n_a"].astype(np.int64)
    df["n_b"] = df["n_b"].astype(np.int64)
    return df


def q_multi_terms(sf_dir: str):
    """ES multi_terms: top compound-key (lang, source) buckets by doc
    count, count-desc / keys-asc deterministic tie order."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.es_aggs import multi_terms

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["lang", "source"])
    return multi_terms(ds, ["lang", "source"], size=10)


def q_range_buckets(sf_dir: str):
    """ES range aggregation: half-open value buckets over events.value
    with per-bucket count/sum/avg (np.digitize partials)."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.es_aggs import range_agg

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"), columns=["value"])
    df = range_agg(ds, "value", list(_RANGE_EDGES))
    df = df[["bucket", "doc_count", "v_sum", "v_avg"]].copy()
    df["bucket"] = df["bucket"].astype(np.int32)
    df["v_sum"] = _round4(df["v_sum"].to_numpy())
    df["v_avg"] = _round4(df["v_avg"].to_numpy())
    return df


def q_filters_buckets(sf_dir: str):
    """ES filters aggregation: named RE2 predicate buckets over document
    text (overlap allowed), patterns shared verbatim with the oracle."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.es_aggs import filters_agg

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"), columns=["text"])
    return filters_agg(ds, "text", _FILTER_PATTERNS)


def q_bucket_pipeline(sf_dir: str):
    """ES pipeline-agg trio over a date_histogram: bucket_script
    (avg = sum/count), bucket_selector (count ≥ floor), bucket_sort
    (quantized avg desc, bucket asc, top-N)."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.es_aggs import bucket_pipeline

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"), columns=["ts", "value"])
    return bucket_pipeline(ds, "ts", 86400, "value", _BP_MIN_COUNT, _BP_TOP)


def q_percentile_ranks(sf_dir: str):
    """ES percentile_ranks aggregation, exact: per event_type, the
    fraction of values ≤ each threshold (integer partials, one tiny
    shuffle, round-6 division on the bucket-sized result)."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.relational import percentile_ranks

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_type", "value"])
    return percentile_ranks(ds, "event_type", "value", _PR_THRESHOLDS)


def q_doc_keywords(sf_dir: str):
    """Per-doc keyword extraction: top-3 terms by tf·idf (Lucene idf,
    term-ascending ties) with the df table broadcast once."""
    from hybrid_sanctions_search_engine_ray.sources.transcripts import transcripts_from_documents
    from hybrid_sanctions_search_engine_ray.stages.tfidf import word_doc_keywords
    from hybrid_sanctions_search_engine_ray.state.manifest import IndexManifest

    index_dir = _ensure_index(sf_dir)
    n_docs = IndexManifest.load(index_dir).n_docs
    vocab = q_term_dictionary(sf_dir).to_pandas()
    df_map = dict(zip(vocab["term"], vocab["df"].astype(int)))
    ds = transcripts_from_documents(sf_dir)
    res = word_doc_keywords(ds, _engine_cfg().analyzer, df_map, n_docs, k=_KW_K)

    def _f(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["score"] = _round4(b["score"].to_numpy())
        return b

    return res.map_batches(_f, batch_format="pandas")


def q_pack_bins(sf_dir: str):
    """Sequence packing (training-batch prep): pack_id = exclusive
    prefix token count // budget in doc_id order — a distributed prefix
    sum (per-range partials → broadcast offsets → in-range cumsum)."""
    from hybrid_sanctions_search_engine_ray.sources.transcripts import transcripts_from_documents
    from hybrid_sanctions_search_engine_ray.stages.relational import pack_bins

    ds = transcripts_from_documents(sf_dir)
    return pack_bins(ds, _engine_cfg().analyzer, budget=_PACK_BUDGET, range_size=_PACK_RANGE)


def q_fuzzy_search(sf_dir: str):
    """ES match with fuzziness, end-to-end: per-term top-5 Levenshtein
    expansion against the vocabulary Dataset, distinct union rides the
    BM25 OR path (search_features.fuzzy_search)."""
    from hybrid_sanctions_search_engine_ray.pipelines.search_features import fuzzy_search

    index_dir = _ensure_index(sf_dir)
    vocab = q_term_dictionary(sf_dir)
    res = fuzzy_search(FUZZY_MATCH_QUERIES, index_dir, vocab, _engine_cfg(),
                       max_dist=_FUZZY_DIST, topn=_FUZZY_TOPN, top_k=BM25_TOP_K)
    return _finish_scores(res)


def q_match_phrase_prefix(sf_dir: str):
    """ES match_phrase_prefix: positional chain over the fixed tokens
    with an any-dictionary-expansion final position; OR-BM25 scoring
    over fixed ∪ expansions, ranked on the matching docs."""
    from hybrid_sanctions_search_engine_ray.pipelines.search_features import match_phrase_prefix

    index_dir = _ensure_index(sf_dir, positional=True)
    res = match_phrase_prefix(MPP_QUERIES, index_dir, _engine_cfg(), top_k=BM25_TOP_K)
    return _finish_scores(res)


def q_query_string(sf_dir: str):
    """ES simple_query_string: the +/-/bare mini-language parsed into
    boolean clauses (search_features.parse_query_string — the parser is
    the single source: the oracle consumes its output too) and run
    through the bool scorer."""
    from hybrid_sanctions_search_engine_ray.pipelines.search_features import query_string_search

    index_dir = _ensure_index(sf_dir)
    return _finish_scores(query_string_search(QS_QUERIES, index_dir, _engine_cfg(),
                                              top_k=BM25_TOP_K))


def q_extended_stats(sf_dir: str):
    """ES extended_stats, exact: integer sufficient statistics per
    l_returnflag (l_quantity is integral-valued), mean/variance derived
    once from the exact integers."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.relational import extended_stats

    ds = rd.read_parquet(os.path.join(sf_dir, "lineitem.parquet"),
                         columns=["l_returnflag", "l_quantity"])
    return extended_stats(ds, "l_returnflag", "l_quantity")


def q_rare_terms(sf_dir: str):
    """ES rare_terms aggregation: dictionary terms with df ≤ 2, the
    deterministic first 100 by (df asc, term asc) — a sort-free global
    top-N over the vocabulary Dataset."""
    from hybrid_sanctions_search_engine_ray.stages.relational import global_topn

    vocab = q_term_dictionary(sf_dir)

    def flt(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return b.select(["term", "df"]).filter(pc.less_equal(b["df"], _RARE_DF_MAX))

    rare = vocab.map_batches(flt, batch_format="pyarrow")
    return global_topn(rare, by=[("df", True), ("term", True)], n=_RARE_LIMIT)


_HIST_INTERVAL = 25.0
_HIST_OFFSET = 0.0


def q_numeric_histogram(sf_dir: str):
    """ES numeric ``histogram`` agg over events.value: bucket
    k = floor((value - offset)/interval) (expression shared verbatim
    with the SQL twin), gap-filled between min and max observed bucket
    (min_doc_count=0, the ES default). Raw rows never shuffle — only
    per-batch (count, sum) partials move."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.es_aggs import histogram

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["value"])
    return histogram(ds, "value", interval=_HIST_INTERVAL, offset=_HIST_OFFSET,
                     min_doc_count=0)


def q_top_metrics(sf_dir: str):
    """ES ``top_metrics``: per event_type the metric columns of the row
    with the largest value (ties broken by event_id desc — ES leaves
    sort ties unspecified; we make them deterministic and share the
    rule with the SQL twin's row_number order). Per-batch argmax
    partials; at most one row per (batch, key) leaves a worker."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.es_aggs import top_metrics

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_type", "value", "event_id", "user_id"])
    return top_metrics(ds, key="event_type", sort_col="value",
                       tiebreak_col="event_id", metric_cols=["user_id"])


def q_stats_bucket(sf_dir: str):
    """ES sibling pipeline aggs (``stats_bucket`` = min/max/avg/sum
    _bucket in one pass) over the day histogram of events, plus the
    FIRST bucket achieving each extreme (deterministic tie rule shared
    with the SQL twin). Integer partials only; one tiny result row."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.es_aggs import sibling_bucket_stats

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"), columns=["ts"])
    return sibling_bucket_stats(ds, "ts", bucket_s=86400)


def q_normalize_series(sf_dir: str):
    """ES ``normalize`` pipeline agg (rescale_0_1) over the gap-filled
    day histogram: norm = (n − min)/(max − min), flat series → 0.0.
    Exact-integer inputs make the one float division IEEE-identical in
    DuckDB."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.es_aggs import normalize_series

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"), columns=["ts"])
    return normalize_series(ds, "ts", bucket_s=86400)


_BC_KEYS = ("click", "purchase")


def q_percentiles_bucket(sf_dir: str):
    """ES percentiles_bucket sibling pipeline agg: percentile_cont of the
    gap-filled per-day event counts — exact-rational interpolation
    matching DuckDB quantile_cont bit-for-bit on the integer series."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.es_aggs import percentiles_bucket

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"), columns=["ts"])
    res = percentiles_bucket(ds, "ts", 86400, qs=(0.25, 0.5, 0.75, 0.95))
    for c in res.columns:
        res[c] = _round4(res[c].to_numpy())
    return res


def q_matrix_stats(sf_dir: str):
    """ES matrix_stats over integer-valued lineitem columns (quantity,
    discount%, tax%): count/means/variances/covariance/correlation per
    field pair from exact int64 sufficient statistics, one shared float
    expression per derived value."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.es_aggs import matrix_stats

    ds = rd.read_parquet(os.path.join(sf_dir, "lineitem.parquet"),
                         columns=["l_quantity", "l_discount", "l_tax"])

    def prep(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table({
            "qty": b["l_quantity"].cast(pa.int64()),
            "disc_pct": pc.round(pc.multiply(b["l_discount"], 100.0)).cast(pa.int64()),
            "tax_pct": pc.round(pc.multiply(b["l_tax"], 100.0)).cast(pa.int64()),
        })

    return matrix_stats(ds.map_batches(prep, batch_format="pyarrow"),
                        ["qty", "disc_pct", "tax_pct"])


def q_bucket_correlation(sf_dir: str):
    """ES bucket_correlation pipeline agg: Pearson correlation between
    the gap-filled per-day count series of two event types — exact int64
    sufficient stats, one shared float formula."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.es_aggs import bucket_correlation

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["ts", "event_type"])
    return bucket_correlation(ds, "event_type", *_BC_KEYS, ts_col="ts", bucket_s=86400)


def q_string_stats(sf_dir: str):
    """ES string_stats (show_distribution): doc count, min/max/avg
    codepoint length and Shannon entropy of the corpus character
    distribution — sentinel-row scalar partials + a codepoint-keyed
    count shuffle, entropy from the exact merged integer counts."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.es_aggs import string_stats

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"), columns=["text"])
    return string_stats(ds, "text")


COMPLETION_PREFIXES: dict[str, str] = {
    "cp1": "spa",     # exact prefix
    "cp2": "wimdow",  # typo'd prefix — fuzzy completion
    "cp3": "qu",
}
_COMPLETION_SIZE, _COMPLETION_FUZZ = 5, 1
_ANALYZE_TEXT = "Spark-Join: the QUICK data café 42!"


def q_sig_chi2(sf_dir: str):
    """ES significant_terms with the chi_square heuristic
    (include_negatives=false): 2x2 contingency statistic from exact
    integer counts, one float division at the end — same single-scan
    foreground/background pipeline as the JLH variant."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.facets import significant_terms

    index_dir = _ensure_index(sf_dir)
    corpus = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    return significant_terms(index_dir, FACET_QUERY, corpus,
                             analyzer_cfg=_engine_cfg().analyzer, top_n=10, min_fg=2,
                             heuristic="chi_square")


def q_completion_suggest(sf_dir: str):
    """ES completion suggester with fuzzy prefix (fuzziness 1): top
    vocabulary completions per typed prefix, ranked (edit distance asc,
    df weight desc, term asc) — one distributed vocabulary scan."""
    from hybrid_sanctions_search_engine_ray.functions.fuzzy import completion_suggest

    vocab = q_term_dictionary(sf_dir)
    return completion_suggest(vocab, COMPLETION_PREFIXES,
                              size=_COMPLETION_SIZE, fuzziness=_COMPLETION_FUZZ)


def q_analyze_api(sf_dir: str):
    """ES _analyze API: run the index analyzer over a literal and return
    (position, token) — the tokenization contract made directly
    inspectable (and oracle-checked against the SQL twin's regexp
    pipeline, which every BM25 oracle depends on)."""
    from hybrid_sanctions_search_engine_ray.functions.analyzer import get_analyzer

    toks = get_analyzer(_engine_cfg().analyzer)(_ANALYZE_TEXT)
    return pd.DataFrame({
        "position": pd.Series(range(len(toks)), dtype=np.int64),
        "token": pd.Series(toks, dtype=object),
    })


def q_rank_eval(sf_dir: str):
    """ES _rank_eval API: precision@10, MRR@10 and binary nDCG@10 of the
    BM25 ranking against AND-semantics judgments (relevant = contains
    EVERY query term) — the evaluation harness as a first-class
    operator; one metrics row per query, zero-relevant queries score 0."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.pipelines.search_features import rank_eval

    index_dir = _ensure_index(sf_dir)
    qs = rd.from_items(
        [{"query_id": qid, "query_text": t} for qid, t in BM25_QUERIES.items()]
    )
    return rank_eval(qs, index_dir, k=BM25_TOP_K, cfg=_engine_cfg())


def q_ann_int8(sf_dir: str):
    """int8 scalar-quantized kNN with exact rescoring (the ES int8
    quantization shape): the full scan is an int32-accumulated int8
    matmul; float cosine touches only the per-batch approx-top-(k·4)
    candidates. At the rescore window used here the result is
    brute-force-identical (oracle-checked); the window is the documented
    speed/recall dial."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.similarity import int8_topk

    path = os.path.join(sf_dir, "embeddings.parquet")
    ds = rd.read_parquet(path, columns=["vec_id", "embedding"])
    q_ids, q_mat = _load_query_vectors(path)
    res = int8_topk(ds, q_ids.tolist(), q_mat, k=_EMB_TOP_K, rescore=4,
                    exclude_self=True)

    def final(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "query_vec_id": b["query_vec_id"].astype(np.int64),
            "rank": b["rank"].astype(np.int32),
            "vec_id": b["vec_id"].astype(np.int64),
            "cos_sim": _round4(b["cos_sim"].to_numpy()),
        })

    return res.map_batches(final, batch_format="pandas")


def q_ann_eval(sf_dir: str):
    """ANN quality harness: recall@k of every approximate index (IVF,
    LSH, int8-rescore, sharded-NSW graph, PQ) against the exact
    brute-force top-k, one row per (method, query) plus the per-method
    mean — the evaluation loop a production ANN deployment runs before
    flipping an alias. Round 5 adds the integer value-gated companions
    (ivf_x / lsh_x / mmr_x): their recall is LOWER by design — ivf_x
    probes 3/8 sample-trained clusters, lsh_x probes Hamming radius 2
    of 8 anchor planes, and mmr_x deliberately trades top-k recall for
    diversity — so the harness now quantifies the
    verifiability-vs-recall tradeoff explicitly (e.g. at sf0.001:
    ivf 0.93 vs ivf_x 0.40, lsh 1.0 vs lsh_x 0.53, mmr_x 0.67).
    Rows-only check (IVF/LSH/NSW assignment is not SQL-expressible;
    the companions' VALUES are gated by their own exact twins)."""
    exact = q_embedding_topk(sf_dir).to_pandas()
    truth = {qid: set(g["vec_id"]) for qid, g in exact.groupby("query_vec_id")}
    rows = []
    # float production paths AND the round-5 integer value-gated
    # companions (ivf_x/lsh_x/mmr_x) — the companions run different
    # algorithms (persisted int centroids, anchor-row planes), so their
    # retrieval quality deserves its own recall row beside the twins'
    # value gate
    for method, fn in (("ivf", q_ann_ivf), ("lsh", q_ann_lsh),
                       ("int8", q_ann_int8), ("nsw", q_ann_nsw),
                       ("pq", q_ann_pq), ("ivf_x", q_ivf_probe_exact),
                       ("lsh_x", q_lsh_probe_exact), ("mmr_x", q_mmr_exact)):
        got = fn(sf_dir)
        got = got.to_pandas() if not isinstance(got, pd.DataFrame) else got
        for qid, g in got.groupby("query_vec_id"):
            t = truth.get(qid, set())
            hits = len(set(g["vec_id"]) & t)
            rows.append({"method": method, "query_vec_id": np.int64(qid),
                         "recall_at_k": round(hits / max(len(t), 1), 4)})
    out = pd.DataFrame(rows)
    means = (out.groupby("method")["recall_at_k"].mean().round(4)
             .rename("recall_at_k").reset_index())
    means["query_vec_id"] = np.int64(-1)  # the summary rows
    return pd.concat([out, means[["method", "query_vec_id", "recall_at_k"]]],
                     ignore_index=True).sort_values(
        ["method", "query_vec_id"]).reset_index(drop=True)


_LANG_NAMES = {"en": "English", "de": "German", "fr": "French",
               "es": "Spanish", "zh": "Chinese"}


def q_extended_stats_bucket(sf_dir: str):
    """ES extended_stats_bucket sibling agg: population variance / std
    deviation / ±2sigma bounds of the gap-filled per-day event counts,
    exact integer sufficient statistics."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.es_aggs import extended_stats_bucket

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"), columns=["ts"])
    return extended_stats_bucket(ds, "ts", 86400, sigma=2.0)


_WS_N = 25


def q_weighted_sample(sf_dir: str):
    """Deterministic weighted sampling without replacement (A-ES with a
    hash-derived uniform): top-N docs by ln(u)/w sample keys, w =
    n_chars — heavier docs systematically favored, membership a pure
    row property (reproducible across runs/retries)."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.sampling import weighted_sample

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "n_chars"])
    return weighted_sample(ds, "doc_id", "n_chars", n=_WS_N, salt="-ws")


def q_label_centroids(sf_dir: str):
    """Per-label embedding centroids (class prototypes for diversity
    pruning): scatter-add partials, O(labels × dims) shuffle rows,
    long-format output."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.embeddings import label_centroids

    ds = rd.read_parquet(os.path.join(sf_dir, "embeddings.parquet"),
                         columns=["label", "embedding"])
    return label_centroids(ds, "label", "embedding")


def q_bpe_train(sf_dir: str):
    """BPE merge training: ONE corpus scan builds the word-frequency
    table (vocab ≪ corpus), then every merge iteration runs on the
    vocabulary only — the production trainer shape; deterministic merge
    order (count desc, pair asc). Rows-only check (iterative state is
    not SQL-expressible)."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.bpe_train import bpe_train

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"), columns=["text"])
    return bpe_train(ds, "text", n_merges=8)


def q_phonetic_buckets(sf_dir: str):
    """Phonetic blocking (simplified American Soundex): dictionary terms
    grouped by sound code — the name-screening recall signal of the
    reference's sanctions domain. Top collision buckets by (distinct
    terms desc, code asc); the digit table is shared verbatim with the
    SQL twin (translate + chained collapse replaces)."""
    from ray.data.aggregate import Sum

    from hybrid_sanctions_search_engine_ray.functions.phonetic import soundex

    vocab = q_term_dictionary(sf_dir)

    def code(b: pa.Table) -> pa.Table:
        terms = b["term"].to_pylist()
        dfs = b["df"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep_t, keep_c, keep_d = [], [], []
        for t, d in zip(terms, dfs):
            if t and t.isascii() and t.isalpha():
                keep_t.append(t)
                keep_c.append(soundex(t))
                keep_d.append(int(d))
        return pa.table({"code": pa.array(keep_c, pa.string()),
                         "n_terms": pa.array(np.ones(len(keep_t), np.int64)),
                         "sum_df": pa.array(keep_d, pa.int64())})

    agg = (
        vocab.map_batches(code, batch_format="pyarrow")
        .groupby("code")
        .aggregate(Sum("n_terms", alias_name="n_terms"), Sum("sum_df", alias_name="sum_df"))
        .to_pandas()
    )
    agg = agg.sort_values(["n_terms", "code"], ascending=[False, True],
                          kind="mergesort").head(15).reset_index(drop=True)
    agg["n_terms"] = agg["n_terms"].astype(np.int64)
    agg["sum_df"] = agg["sum_df"].astype(np.int64)
    return agg[["code", "n_terms", "sum_df"]]


_SNM_W = 3


def q_snm_pairs(sf_dir: str):
    """Sorted-neighborhood blocking: candidate dup pairs within a
    3-row window over docs sorted by a normalized 8-char text-prefix
    key — ONE range sort, per-block vectorized windows, O(blocks·w)
    boundary stitching."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.dedup import sorted_neighborhood_pairs

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "text"])

    def key(b: pa.Table) -> pa.Table:
        s = pc.utf8_lower(pc.fill_null(b["text"], ""))
        s = pc.replace_substring_regex(s, pattern="[^a-z0-9]", replacement="")
        return pa.table({"doc_id": b["doc_id"],
                         "key": pc.utf8_slice_codeunits(s, 0, 8)})

    return sorted_neighborhood_pairs(ds.map_batches(key, batch_format="pyarrow"),
                                     "doc_id", "key", window=_SNM_W)


def q_gopher_filter(sf_dir: str):
    """Gopher quality-filter rules (Rae et al. 2021): per-doc word
    count / mean word length / symbol ratio / alphabetic-word fraction
    / distinct-stopword rules with per-rule booleans and the keep
    conjunction — one vectorized Arrow pass."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.textops import gopher_rules

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "text"])
    return ds.map_batches(gopher_rules, batch_format="pyarrow")


_TL_DOC = 42


def q_terms_lookup(sf_dir: str):
    """ES terms-lookup query: the term set comes from ANOTHER document
    (terms: {field, index, id}) — doc 42's distinct tokens become an
    OR-BM25 query. The lookup is one pruned point read; the terms then
    ride the ordinary posting path."""
    import pyarrow.dataset as _pads
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.pipelines.query import IndexReader, search

    index_dir = _ensure_index(sf_dir)
    src = _pads.dataset(os.path.join(sf_dir, "documents.parquet")).to_table(
        columns=["doc_id", "text"],
        filter=_pads.field("doc_id") == _TL_DOC,
    )
    text = src["text"][0].as_py() or ""
    r = IndexReader(index_dir)
    terms = sorted(set(r.analyzer(text)))
    qs = rd.from_items([{"query_id": "tl1", "query_text": " ".join(terms),
                         "top_k": BM25_TOP_K}])
    return _finish_scores(search(qs, index_dir, _engine_cfg()))


_FUZZY_PL = 2


def q_fuzzy_prefix(sf_dir: str):
    """ES fuzzy with prefix_length=2: expansions must share the first 2
    characters with the query term exactly — the precision/cost dial
    ('jion' no longer reaches 'join'; 'custmer' still reaches
    'customer'). Same expansion→BM25 path as fuzzy_search."""
    from hybrid_sanctions_search_engine_ray.pipelines.search_features import fuzzy_search

    index_dir = _ensure_index(sf_dir)
    vocab = q_term_dictionary(sf_dir)
    res = fuzzy_search(FUZZY_MATCH_QUERIES, index_dir, vocab, _engine_cfg(),
                       max_dist=_FUZZY_DIST, topn=_FUZZY_TOPN, top_k=BM25_TOP_K,
                       prefix_length=_FUZZY_PL)
    return _finish_scores(res)


def q_daily_cardinality(sf_dir: str):
    """ES date_histogram + cardinality sub-agg, exact: distinct users
    per day via local dedup → one (bucket, key) shuffle → bucket counts;
    gap-filled zeros."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.es_aggs import daily_cardinality

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["ts", "user_id"])
    return daily_cardinality(ds, "user_id", "ts", 86400)


def q_date_histogram_terms(sf_dir: str):
    """ES date_histogram + terms sub-agg: per-day counts per event_type,
    long format, one (bucket, key) shuffle."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.es_aggs import date_histogram_terms

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["ts", "event_type"])
    return date_histogram_terms(ds, "event_type", "ts", 86400)


SUGGEST_POP_TERMS: list[str] = FUZZY_TERMS + ["spark", "the"]


def q_suggest_popular(sf_dir: str):
    """ES term suggester suggest_mode=popular: a correction is offered
    only when MORE FREQUENT than the input itself — common words never
    'correct' to rarer neighbors ('the' and 'spark' produce no row;
    the typos still do)."""
    from hybrid_sanctions_search_engine_ray.functions.fuzzy import suggest_popular

    vocab = q_term_dictionary(sf_dir)
    return suggest_popular(vocab, SUGGEST_POP_TERMS, max_dist=2)


_Q3_SEG, _Q3_DATE = "BUILDING", "1997-01-01"
_Q22_CUT = "2000-01-01"
_Q10_LO, _Q10_HI = "1996-01-01", "1996-07-01"


def q_shipping_priority(sf_dir: str):
    """TPC-H Q3 shape (shipping priority): segment-filtered customers
    broadcast into a date-pruned orders scan; the orders⋈lineitem edge
    uses the NATIVE hash join (both sides large at scale); per-order
    exact-cents revenue partials, distributed per-batch top-10 merge,
    order metadata attached to the 10 survivors only."""
    import pyarrow.dataset as _pads
    import ray as _ray
    import ray.data as rd
    from ray.data.aggregate import Sum

    cust = (
        rd.read_parquet(os.path.join(sf_dir, "customer.parquet"),
                        columns=["c_custkey", "c_mktsegment"])
        .map_batches(lambda b: b.filter(pc.equal(b["c_mktsegment"], _Q3_SEG)),
                     batch_format="pyarrow")
        .to_pandas()
    )
    ck_ref = _ray.put(np.sort(cust["c_custkey"].to_numpy(dtype=np.int64)))
    cutoff = np.datetime64(_Q3_DATE).astype("datetime64[us]")

    class KeepCust:
        def __init__(self, ref):
            self.keys = _ray.get(ref)

        def __call__(self, b: pa.Table) -> pa.Table:
            v = b["o_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
            at = np.searchsorted(self.keys, v)
            safe = np.minimum(at, max(self.keys.size - 1, 0))
            keep = (self.keys.size > 0) & (at < self.keys.size) & (self.keys[safe] == v)
            return b.filter(pa.array(keep)).select(["o_orderkey"])

    ords = (
        rd.read_parquet(
            os.path.join(sf_dir, "orders.parquet"),
            columns=["o_orderkey", "o_custkey", "o_orderdate"],
            filter=_pads.field("o_orderdate") < cutoff,
        )
        .map_batches(KeepCust, fn_constructor_args=(ck_ref,),
                     batch_format="pyarrow", concurrency=2)
    )

    def li_prep(b: pa.Table) -> pa.Table:
        ship = b["l_shipdate"].to_numpy(zero_copy_only=False)
        keep = ship > cutoff
        t = b.filter(pa.array(keep))
        u = _ucents(t["l_extendedprice"].to_numpy(zero_copy_only=False),
                    t["l_discount"].to_numpy(zero_copy_only=False))
        return pa.table({"l_orderkey": t["l_orderkey"], "u": pa.array(u)})

    line = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_shipdate", "l_extendedprice", "l_discount"],
    ).map_batches(li_prep, batch_format="pyarrow")

    joined = line.join(ords, join_type="inner", num_partitions=_join_parts(),
                       on=("l_orderkey",), right_on=("o_orderkey",))
    rev = (
        joined.groupby("l_orderkey").aggregate(Sum("u", alias_name="u"))
    )

    def part_top(b: pa.Table) -> pa.Table:
        u = b["u"].to_numpy(zero_copy_only=False).astype(np.int64)
        k = b["l_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((k, -u))[:10]
        return pa.table({"l_orderkey": pa.array(k[order]), "u": pa.array(u[order])})

    top = rev.map_batches(part_top, batch_format="pyarrow").to_pandas()
    top = top.sort_values(["u", "l_orderkey"], ascending=[False, True],
                          kind="mergesort").head(10).reset_index(drop=True)
    meta = _pads.dataset(os.path.join(sf_dir, "orders.parquet")).to_table(
        columns=["o_orderkey", "o_orderdate", "o_orderpriority"],
        filter=_pads.field("o_orderkey").isin(top["l_orderkey"].tolist()),
    ).to_pandas()
    out = top.merge(meta, left_on="l_orderkey", right_on="o_orderkey")
    out = out.sort_values(["u", "l_orderkey"], ascending=[False, True],
                          kind="mergesort").reset_index(drop=True)
    return pd.DataFrame({
        "o_orderkey": out["l_orderkey"].astype(np.int64),
        "revenue": np.round(out["u"].to_numpy(dtype=np.int64) / 10000.0, 2),
        "od_day": out["o_orderdate"].astype("int64") // 86_400_000_000,
        "o_orderpriority": out["o_orderpriority"],
    })


def q_returned_items(sf_dir: str):
    """TPC-H Q10 shape (returned-item losses): returnflag-filtered
    lineitem ⋈ date-windowed orders via the native hash join, exact
    cents by custkey, top 20 customers, names + nations attached to the
    survivors only."""
    import pyarrow.dataset as _pads
    import ray.data as rd
    from ray.data.aggregate import Sum

    lo = np.datetime64(_Q10_LO).astype("datetime64[us]")
    hi = np.datetime64(_Q10_HI).astype("datetime64[us]")

    def li_prep(b: pa.Table) -> pa.Table:
        t = b.filter(pc.equal(b["l_returnflag"], "R"))
        u = _ucents(t["l_extendedprice"].to_numpy(zero_copy_only=False),
                    t["l_discount"].to_numpy(zero_copy_only=False))
        return pa.table({"l_orderkey": t["l_orderkey"], "u": pa.array(u)})

    line = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_returnflag", "l_extendedprice", "l_discount"],
    ).map_batches(li_prep, batch_format="pyarrow")
    ords = rd.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
        filter=(_pads.field("o_orderdate") >= lo) & (_pads.field("o_orderdate") < hi),
    ).select_columns(["o_orderkey", "o_custkey"])

    joined = line.join(ords, join_type="inner", num_partitions=_join_parts(),
                       on=("l_orderkey",), right_on=("o_orderkey",))
    rev = joined.groupby("o_custkey").aggregate(Sum("u", alias_name="u")).to_pandas()
    rev = rev.sort_values(["u", "o_custkey"], ascending=[False, True],
                          kind="mergesort").head(20).reset_index(drop=True)
    cust = _pads.dataset(os.path.join(sf_dir, "customer.parquet")).to_table(
        columns=["c_custkey", "c_name", "c_nationkey"],
        filter=_pads.field("c_custkey").isin(rev["o_custkey"].tolist()),
    ).to_pandas()
    import pyarrow.parquet as _pq

    nat = _pq.read_table(os.path.join(sf_dir, "nation.parquet"),
                         columns=["n_nationkey", "n_name"]).to_pandas()
    out = rev.merge(cust, left_on="o_custkey", right_on="c_custkey").merge(
        nat, left_on="c_nationkey", right_on="n_nationkey")
    out = out.sort_values(["u", "o_custkey"], ascending=[False, True],
                          kind="mergesort").reset_index(drop=True)
    return pd.DataFrame({
        "c_custkey": out["o_custkey"].astype(np.int64),
        "c_name": out["c_name"],
        "n_name": out["n_name"],
        "revenue": np.round(out["u"].to_numpy(dtype=np.int64) / 10000.0, 2),
    })


_Q19_BRACKETS = (
    ("Brand#1", 1, 15, 1, 20),    # (brand, qty_lo, qty_hi, size_lo, size_hi)
    ("Brand#7", 10, 30, 5, 40),
)


def q_bracket_revenue(sf_dir: str):
    """TPC-H Q19 shape (OR-bracket discounted revenue): part attributes
    broadcast as sorted key-aligned arrays; ONE lineitem pass evaluates
    the OR of (brand, qty range, size range) brackets vectorized; a
    single exact-cents scalar comes back."""
    import ray as _ray
    import ray.data as rd

    import pyarrow.parquet as _pq

    part = _pq.read_table(os.path.join(sf_dir, "part.parquet"),
                          columns=["p_partkey", "p_brand", "p_size"]).to_pandas()
    part = part.sort_values("p_partkey").reset_index(drop=True)
    ref = _ray.put({
        "keys": part["p_partkey"].to_numpy(dtype=np.int64),
        "brand": part["p_brand"].to_numpy(dtype=object),
        "size": part["p_size"].to_numpy(dtype=np.int64),
    })

    class Partial:
        def __init__(self, r):
            self.d = _ray.get(r)

        def __call__(self, b: pa.Table) -> pa.Table:
            pk = b["l_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
            at = np.searchsorted(self.d["keys"], pk)
            brand = self.d["brand"][at]
            size = self.d["size"][at]
            qty = b["l_quantity"].to_numpy(zero_copy_only=False).astype(np.int64)
            mask = np.zeros(len(b), dtype=bool)
            for br, qlo, qhi, slo, shi in _Q19_BRACKETS:
                mask |= ((brand == br) & (qty >= qlo) & (qty <= qhi)
                         & (size >= slo) & (size <= shi))
            u = _ucents(b["l_extendedprice"].to_numpy(zero_copy_only=False),
                        b["l_discount"].to_numpy(zero_copy_only=False))
            return pa.table({"u": [np.int64(u[mask].sum())],
                             "n": [np.int64(mask.sum())]})

    parts = (
        rd.read_parquet(os.path.join(sf_dir, "lineitem.parquet"),
                        columns=["l_partkey", "l_quantity", "l_extendedprice", "l_discount"])
        .map_batches(Partial, fn_constructor_args=(ref,),
                     batch_format="pyarrow", concurrency=2)
        .to_pandas()
    )
    return pd.DataFrame([{
        "n_items": np.int64(parts["n"].sum()),
        "revenue": round(float(parts["u"].sum()) / 10000.0, 2),
    }])


def q_idle_customers(sf_dir: str):
    """TPC-H Q22 shape (idle high-balance customers): customers with
    account balance above the mean POSITIVE balance and NO RECENT orders
    (the Q22 window) — scalar-subquery threshold from exact cents,
    anti-join via the recent-orders custkey set (date filter pushed into
    the read), counts + balance sums per nation."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    import pyarrow.parquet as _pq

    import pyarrow.dataset as _pads

    cutoff = np.datetime64(_Q22_CUT).astype("datetime64[us]")
    ocust = (
        rd.read_parquet(os.path.join(sf_dir, "orders.parquet"),
                        columns=["o_custkey", "o_orderdate"],
                        filter=_pads.field("o_orderdate") >= cutoff)
        .map_batches(lambda b: b.group_by("o_custkey").aggregate([]).select(["o_custkey"]),
                     batch_format="pyarrow")
        .groupby("o_custkey").aggregate(Sum("o_custkey", alias_name="_x"))
        .select_columns(["o_custkey"]).to_pandas()
    )
    has_orders = np.sort(ocust["o_custkey"].to_numpy(dtype=np.int64))

    # pass 1 (streaming): exact positive-balance sufficient statistics
    def thr_partial(b: pa.Table) -> pa.Table:
        v = b["c_acctbal"].to_numpy(zero_copy_only=False)
        c = (np.sign(v) * np.floor(np.abs(v) * 100.0 + 0.5)).astype(np.int64)
        p = c[c > 0]
        return pa.table({"n": [np.int64(p.size)], "s": [np.int64(p.sum())]})

    cust_path = os.path.join(sf_dir, "customer.parquet")
    tp = rd.read_parquet(cust_path, columns=["c_acctbal"]).map_batches(
        thr_partial, batch_format="pyarrow").to_pandas()
    thr_n, thr_s = int(tp["n"].sum()), int(tp["s"].sum())
    import ray as _ray

    ref = _ray.put((has_orders, thr_n, thr_s))

    # pass 2 (streaming): anti-join + integer threshold + nation partials
    class Partial:
        def __init__(self, r):
            self.has_orders, self.n, self.s = _ray.get(r)

        def __call__(self, b: pa.Table) -> pa.Table:
            ck = b["c_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
            v = b["c_acctbal"].to_numpy(zero_copy_only=False)
            cents = (np.sign(v) * np.floor(np.abs(v) * 100.0 + 0.5)).astype(np.int64)
            ho = self.has_orders
            at = np.searchsorted(ho, ck)
            safe = np.minimum(at, max(ho.size - 1, 0))
            ordered = (ho.size > 0) & (at < ho.size) & (ho[safe] == ck)
            # threshold in exact integers: cents·n > Σ  (mean of positives)
            keep = (~ordered) & (cents * self.n > self.s)
            g = pa.table({
                "c_nationkey": b["c_nationkey"].to_numpy(zero_copy_only=False)[keep],
                "cents": pa.array(cents[keep]),
            }).group_by("c_nationkey").aggregate([("cents", "sum"), ([], "count_all")])
            return g.rename_columns(["c_nationkey", "cents_p", "n_p"])

    g = (
        rd.read_parquet(cust_path, columns=["c_custkey", "c_nationkey", "c_acctbal"])
        .map_batches(Partial, fn_constructor_args=(ref,),
                     batch_format="pyarrow", concurrency=2)
        .groupby("c_nationkey")
        .aggregate(Sum("n_p", alias_name="n_cust"), Sum("cents_p", alias_name="cents"))
        .to_pandas()
    )
    if g.empty:  # empty Dataset → to_pandas() drops columns
        return pd.DataFrame({"c_nationkey": pd.Series([], dtype=np.int64),
                             "n_cust": pd.Series([], dtype=np.int64),
                             "total_acctbal": pd.Series([], dtype=np.float64)})
    g = g.sort_values("c_nationkey", kind="mergesort").reset_index(drop=True)
    return pd.DataFrame({
        "c_nationkey": g["c_nationkey"].astype(np.int64),
        "n_cust": g["n_cust"].astype(np.int64),
        "total_acctbal": np.round(g["cents"].to_numpy(dtype=np.int64) / 100.0, 2),
    })


INTERVALS_SPECS = {
    "iv1": (2, [["spark"], ["join", "filter"]]),
    "iv2": (3, [["customer"], ["table"], ["scan", "order"]]),
    "iv3": (0, [["window"], ["stream"]]),
}


def q_intervals(sf_dir: str):
    """ES intervals query: ordered all_of with a TOTAL max_gaps budget
    and nested any_of leaves — greedy minimal ordered window per
    candidate; survivors score the BM25 sum of present clause terms."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.pipelines.search_features import intervals_search

    index_dir = _ensure_index(sf_dir, positional=True)
    qs = rd.from_items([{"query_id": qid, "top_k": BM25_TOP_K}
                        for qid in sorted(INTERVALS_SPECS)])
    return _finish_scores(intervals_search(qs, index_dir, INTERVALS_SPECS, _engine_cfg()))


def q_ingest_pipeline(sf_dir: str):
    """ES ingest pipeline (+ enrich processor): a declarative processor
    chain — set / uppercase / gsub / script / enrich lookup — compiled
    once into a single vectorized Arrow stage and streamed over the
    documents table."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.ingest import ingest

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "lang", "source", "n_chars"])
    out = ingest(ds, [
        {"set": {"field": "pipeline", "value": "v1"}},
        {"uppercase": {"field": "lang", "target_field": "lang_uc"}},
        {"gsub": {"field": "source", "pattern": "^src", "replacement": "origin-"}},
        {"script": {"target_field": "len_bucket",
                    "expr": ("n_chars", "floordiv", 100)}},
        {"enrich": {"field": "lang", "target_field": "language_name",
                    "map": _LANG_NAMES, "default": "Unknown"}},
        {"remove": {"field": "n_chars"}},
    ])
    return out


LUCENE_QUERIES: dict[str, str] = {
    "lq1": "(spark OR join) AND NOT slow",
    "lq2": "customer AND (table OR scan)",
    "lq3": '"window stream" OR vector',
}
# positive (scoring) terms per query — shared with the SQL twin
_LUCENE_POS = {
    "lq1": ["join", "spark"],
    "lq2": ["customer", "scan", "table"],
    "lq3": ["stream", "vector", "window"],
}


def q_lucene_query(sf_dir: str):
    """Lucene boolean query grammar: AND / OR / NOT, parentheses and
    quoted phrases parsed to an AST (search_features.parse_lucene — the
    parser is the single source) and evaluated by set algebra over
    posting doc-id arrays; NOT is a set difference inside AND (a purely
    negative clause raises, the Lucene rule). Matching docs score the
    BM25 sum of the positive leaf terms they contain."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.pipelines.search_features import lucene_search

    index_dir = _ensure_index(sf_dir, positional=True)
    qs = rd.from_items(
        [{"query_id": qid, "query_text": t, "top_k": BM25_TOP_K * 4}
         for qid, t in LUCENE_QUERIES.items()]
    )
    return _rerank_topk(lucene_search(qs, index_dir, _engine_cfg()))


_Q18_MIN_QTY = 250
_Q15_LO, _Q15_HI = "1996-01-01", "1996-04-01"
SPAN_NOT_QUERIES = [
    {"query_id": "spn1", "query_text": "data", "exclude": "the", "dist": 1},
    {"query_id": "spn2", "query_text": "join", "exclude": "slow", "dist": 2},
    {"query_id": "spn3", "query_text": "window", "exclude": "stream", "dist": 1},
]


def _ucents(price: np.ndarray, disc: np.ndarray) -> np.ndarray:
    """Exact discounted revenue in integer 1/10000-dollars:
    price_cents × (100 − disc_pct) — both factors are exact ints (the
    repo-wide money convention), so partial sums merge exactly in any
    order. revenue_dollars = ucents / 10000."""
    pc_ = np.floor(np.abs(price) * 100.0 + 0.5).astype(np.int64)
    dp = np.floor(np.abs(disc) * 100.0 + 0.5).astype(np.int64)
    return pc_ * (100 - dp)


def q_custdist(sf_dir: str):
    """TPC-H Q13 shape (customer order-count distribution): per-customer
    order counts via the partial-agg custkey shuffle, a SECOND
    distributed partial-agg over the counts, and the zero-order bucket
    from customer-table row count minus customers seen — the LEFT JOIN
    expressed without ever joining (orders never meets customer)."""
    import pyarrow.parquet as _pq
    import ray.data as rd
    from ray.data.aggregate import Sum

    def per_cust(b: pa.Table) -> pa.Table:
        g = b.select(["o_custkey"]).group_by("o_custkey").aggregate([([], "count_all")])
        return g.rename_columns(["o_custkey", "c_p"])

    counts = (
        rd.read_parquet(os.path.join(sf_dir, "orders.parquet"), columns=["o_custkey"])
        .map_batches(per_cust, batch_format="pyarrow")
        .groupby("o_custkey")
        .aggregate(Sum("c_p", alias_name="c_count"))
    )

    def per_count(b: pa.Table) -> pa.Table:
        g = b.select(["c_count"]).group_by("c_count").aggregate([([], "count_all")])
        return g.rename_columns(["c_count", "d_p"])

    dist = (
        counts.map_batches(per_count, batch_format="pyarrow")
        .groupby("c_count")
        .aggregate(Sum("d_p", alias_name="custdist"))
        .to_pandas()
    )
    n_cust = _pq.ParquetFile(os.path.join(sf_dir, "customer.parquet")).metadata.num_rows
    zero = int(n_cust - dist["custdist"].sum())
    if zero > 0:
        dist = pd.concat(
            [dist, pd.DataFrame([{"c_count": 0, "custdist": zero}])], ignore_index=True
        )
    dist = dist.sort_values(["custdist", "c_count"], ascending=[False, False],
                            kind="mergesort").reset_index(drop=True)
    dist["c_count"] = dist["c_count"].astype(np.int64)
    dist["custdist"] = dist["custdist"].astype(np.int64)
    return dist


def q_large_orders(sf_dir: str):
    """TPC-H Q18 shape (large-volume orders): per-order quantity sums via
    the partial-agg orderkey shuffle, HAVING > threshold (result is
    tiny), then the qualifying keys BROADCAST into pruned orders and
    customer scans — no large-side join ever materializes. Ranked by
    exact total-price cents."""
    import ray as _ray
    import ray.data as rd
    from ray.data.aggregate import Sum

    def per_order(b: pa.Table) -> pa.Table:
        q = b["l_quantity"].to_numpy(zero_copy_only=False)
        qi = q.astype(np.int64)
        assert np.array_equal(qi.astype(np.float64), q), "l_quantity must be integral"
        g = pa.table({"l_orderkey": b["l_orderkey"], "q": pa.array(qi)}).group_by(
            "l_orderkey").aggregate([("q", "sum")])
        return g.rename_columns(["l_orderkey", "q_p"])

    qual = (
        rd.read_parquet(os.path.join(sf_dir, "lineitem.parquet"),
                        columns=["l_orderkey", "l_quantity"])
        .map_batches(per_order, batch_format="pyarrow")
        .groupby("l_orderkey")
        .aggregate(Sum("q_p", alias_name="sum_qty"))
        .map_batches(lambda b: b.filter(pc.greater(b["sum_qty"], _Q18_MIN_QTY)),
                     batch_format="pyarrow")
        .to_pandas()  # HAVING survivors only — tiny by construction
    )
    if qual.empty:
        return pd.DataFrame({"c_name": pd.Series([], dtype=object),
                             "o_custkey": pd.Series([], dtype=np.int64),
                             "o_orderkey": pd.Series([], dtype=np.int64),
                             "od_day": pd.Series([], dtype=np.int64),
                             "o_totalprice": pd.Series([], dtype=np.float64),
                             "sum_qty": pd.Series([], dtype=np.int64)})
    keys_ref = _ray.put(np.sort(qual["l_orderkey"].to_numpy(dtype=np.int64)))

    class KeepQual:
        def __init__(self, ref, col):
            self.keys = _ray.get(ref)
            self.col = col

        def __call__(self, b: pa.Table) -> pa.Table:
            v = b[self.col].to_numpy(zero_copy_only=False).astype(np.int64)
            at = np.searchsorted(self.keys, v)
            safe = np.minimum(at, self.keys.size - 1)
            return b.filter(pa.array((at < self.keys.size) & (self.keys[safe] == v)))

    ords = (
        rd.read_parquet(os.path.join(sf_dir, "orders.parquet"),
                        columns=["o_orderkey", "o_custkey", "o_totalprice", "o_orderdate"])
        .map_batches(KeepQual, fn_constructor_args=(keys_ref, "o_orderkey"),
                     batch_format="pyarrow", concurrency=2)
        .to_pandas()
    )
    ck_ref = _ray.put(np.sort(np.unique(ords["o_custkey"].to_numpy(dtype=np.int64))))
    cust = (
        rd.read_parquet(os.path.join(sf_dir, "customer.parquet"),
                        columns=["c_custkey", "c_name"])
        .map_batches(KeepQual, fn_constructor_args=(ck_ref, "c_custkey"),
                     batch_format="pyarrow", concurrency=2)
        .to_pandas()
    )
    out = ords.merge(qual, left_on="o_orderkey", right_on="l_orderkey")
    out = out.merge(cust, left_on="o_custkey", right_on="c_custkey")
    cents = np.floor(np.abs(out["o_totalprice"].to_numpy()) * 100.0 + 0.5).astype(np.int64)
    out["_cents"] = cents
    out["od_day"] = out["o_orderdate"].astype("int64") // 86_400_000_000
    out = out.sort_values(["_cents", "o_orderkey"], ascending=[False, True],
                          kind="mergesort").head(100).reset_index(drop=True)
    out["o_totalprice"] = np.round(out["_cents"] / 100.0, 2)
    out["o_custkey"] = out["o_custkey"].astype(np.int64)
    out["o_orderkey"] = out["o_orderkey"].astype(np.int64)
    out["sum_qty"] = out["sum_qty"].astype(np.int64)
    return out[["c_name", "o_custkey", "o_orderkey", "od_day", "o_totalprice", "sum_qty"]]


def q_promo_share(sf_dir: str):
    """TPC-H Q14 shape (promotion revenue share by ship month): promo
    part keys collected once from a pruned part scan and broadcast as a
    sorted array; lineitem streams ONE pass emitting exact integer
    1/10000-dollar revenue partials per (month, promo) — the share
    division is the only float math, shared verbatim with SQL."""
    import ray as _ray
    import ray.data as rd
    from ray.data.aggregate import Sum

    promo = (
        rd.read_parquet(os.path.join(sf_dir, "part.parquet"),
                        columns=["p_partkey", "p_type"])
        .map_batches(lambda b: b.filter(pc.equal(b["p_type"], "PROMO")),
                     batch_format="pyarrow")
        .to_pandas()  # qualifying keys only — a fraction of part
    )
    pk_ref = _ray.put(np.sort(promo["p_partkey"].to_numpy(dtype=np.int64)))

    class Partial:
        def __init__(self, ref):
            self.keys = _ray.get(ref)

        def __call__(self, b: pa.Table) -> pa.Table:
            month = (
                b["l_shipdate"].to_numpy(zero_copy_only=False)
                .astype("datetime64[M]").astype(np.int64)
            )
            u = _ucents(b["l_extendedprice"].to_numpy(zero_copy_only=False),
                        b["l_discount"].to_numpy(zero_copy_only=False))
            pkey = b["l_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
            at = np.searchsorted(self.keys, pkey)
            safe = np.minimum(at, max(self.keys.size - 1, 0))
            is_promo = (self.keys.size > 0) & (at < self.keys.size) & (self.keys[safe] == pkey)
            g = pa.table({
                "month": pa.array(month),
                "promo_u": pa.array(np.where(is_promo, u, 0)),
                "total_u": pa.array(u),
            }).group_by("month").aggregate([("promo_u", "sum"), ("total_u", "sum")])
            return g.rename_columns(["month", "p_p", "t_p"])

    agg = (
        rd.read_parquet(os.path.join(sf_dir, "lineitem.parquet"),
                        columns=["l_partkey", "l_shipdate", "l_extendedprice", "l_discount"])
        .map_batches(Partial, fn_constructor_args=(pk_ref,),
                     batch_format="pyarrow", concurrency=2)
        .groupby("month")
        .aggregate(Sum("p_p", alias_name="promo_u"), Sum("t_p", alias_name="total_u"))
        .to_pandas()
    )
    agg = agg.sort_values("month", kind="mergesort").reset_index(drop=True)
    p = agg["promo_u"].to_numpy(dtype=np.int64)
    t = agg["total_u"].to_numpy(dtype=np.int64)
    return pd.DataFrame({
        "month": agg["month"].astype(np.int64),
        "promo_revenue": np.round(p / 10000.0, 2),
        "total_revenue": np.round(t / 10000.0, 2),
        "promo_share_pct": np.round(100.0 * p / t, 6),
    })


def q_top_supplier(sf_dir: str):
    """TPC-H Q15 shape (top supplier by revenue in a quarter): the date
    filter pushes into the lineitem read; exact integer revenue partials
    shuffle by suppkey (supplier-count-sized result); ALL max-revenue
    ties are returned, names attached from a pruned supplier read."""
    import pyarrow.dataset as _pads
    import ray.data as rd
    from ray.data.aggregate import Sum

    lo = np.datetime64(_Q15_LO).astype("datetime64[us]")
    hi = np.datetime64(_Q15_HI).astype("datetime64[us]")

    def partial(b: pa.Table) -> pa.Table:
        u = _ucents(b["l_extendedprice"].to_numpy(zero_copy_only=False),
                    b["l_discount"].to_numpy(zero_copy_only=False))
        g = pa.table({"s_suppkey": b["l_suppkey"], "u": pa.array(u)}).group_by(
            "s_suppkey").aggregate([("u", "sum")])
        return g.rename_columns(["s_suppkey", "u_p"])

    rev = (
        rd.read_parquet(
            os.path.join(sf_dir, "lineitem.parquet"),
            columns=["l_suppkey", "l_extendedprice", "l_discount"],
            filter=(_pads.field("l_shipdate") >= lo) & (_pads.field("l_shipdate") < hi),
        )
        .map_batches(partial, batch_format="pyarrow")
        .groupby("s_suppkey")
        .aggregate(Sum("u_p", alias_name="u"))
        .to_pandas()  # supplier-count-sized
    )
    best = rev[rev["u"] == rev["u"].max()].copy()
    import pyarrow.parquet as _pq

    supp = _pq.read_table(os.path.join(sf_dir, "supplier.parquet"),
                          columns=["s_suppkey", "s_name"]).to_pandas()
    best = best.merge(supp, on="s_suppkey").sort_values("s_suppkey").reset_index(drop=True)
    return pd.DataFrame({
        "s_suppkey": best["s_suppkey"].astype(np.int64),
        "s_name": best["s_name"],
        "total_revenue": np.round(best["u"].to_numpy(dtype=np.int64) / 10000.0, 2),
    })


def q_pivot_events(sf_dir: str):
    """Wide reshape: event_type × day-of-week count pivot (dow =
    epoch_days % 7, shared with SQL) — (row, col) count partials, one
    small shuffle, bucket-sized driver pivot."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.relational import pivot_table

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["ts", "event_type"])

    def dow(b: pa.Table) -> np.ndarray:
        us = b["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        return (us // 86_400_000_000) % 7

    return pivot_table(ds, "event_type", dow, [str(i) for i in range(7)], prefix="dow")


def q_span_not(sf_dir: str):
    """ES span_not (symmetric dist): docs where SOME include-term
    occurrence has no exclude term within `dist` positions; plain-term
    BM25 scoring."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.pipelines.search_features import span_not_search

    index_dir = _ensure_index(sf_dir, positional=True)
    qs = rd.from_items([{**q, "top_k": BM25_TOP_K} for q in SPAN_NOT_QUERIES])
    return _finish_scores(span_not_search(qs, index_dir, _engine_cfg()))


_RF_BOOST, _RF_PIVOT = 1.5, 2.0
_DF_BOOST, _DF_PIVOT = 2.0, 1.0
SPAN_FIRST_QUERIES = [
    {"query_id": "sp1", "query_text": "spark", "end": 2},
    {"query_id": "sp2", "query_text": "data", "end": 1},
    {"query_id": "sp3", "query_text": "window", "end": 3},
]
MBP_QUERIES: dict[str, str] = {
    "mbp1": "spark jo",
    "mbp2": "stream filter wind",
    "mbp3": "vector sc",
}
_DIV_QUERY, _DIV_SIZE, _DIV_TOP, _DIV_STRIDE = "spark join", 30, 20, 8


def _rerank_topk(res, cols=("query_id", "rank", "doc_id", "score")):
    """Shared over-fetch finisher: quantized (round4 score desc, doc_id
    asc) re-rank to top-k — removes cross-side float-sum-order rank
    jitter for scorers that ADD terms from multiple float sources."""

    def final(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["score"] = _round4(b["score"].to_numpy())
        return b

    res = res.map_batches(final, batch_format="pandas")

    def _rr(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["score", "doc_id"], ascending=[False, True],
                          kind="mergesort").head(BM25_TOP_K)
        g = g.reset_index(drop=True)
        g["rank"] = np.arange(1, len(g) + 1, dtype=np.int32)
        return g[list(cols)]

    return res.groupby("query_id").map_groups(_rr, batch_format="pandas")


def q_rank_feature(sf_dir: str):
    """ES rank_feature query (saturation): BM25 + boost·f/(f+pivot) on
    the docmap turn_idx feature, applied over the FULL candidate set.
    Over-fetch 4× then quantized re-rank (the feature term is a second
    float source)."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.pipelines.search_features import rank_feature_search

    index_dir = _ensure_index(sf_dir)
    qs = rd.from_items(
        [{"query_id": qid, "query_text": t, "top_k": BM25_TOP_K * 4}
         for qid, t in BM25_QUERIES.items()]
    )
    return _rerank_topk(rank_feature_search(qs, index_dir, "turn_idx", "saturation",
                                            boost=_RF_BOOST, pivot=_RF_PIVOT,
                                            cfg=_engine_cfg()))


def q_distance_feature(sf_dir: str):
    """ES distance_feature query: BM25 + boost·pivot/(pivot+|f−origin|)
    on turn_idx with origin 0 — boosts conversation openings."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.pipelines.search_features import rank_feature_search

    index_dir = _ensure_index(sf_dir)
    qs = rd.from_items(
        [{"query_id": qid, "query_text": t, "top_k": BM25_TOP_K * 4}
         for qid, t in BM25_QUERIES.items()]
    )
    return _rerank_topk(rank_feature_search(qs, index_dir, "turn_idx", "distance",
                                            boost=_DF_BOOST, pivot=_DF_PIVOT,
                                            origin=0.0, cfg=_engine_cfg()))


def q_span_first(sf_dir: str):
    """ES span_first: the term's FIRST occurrence must fall before
    position `end`; survivors score as the plain term query. One
    vectorized first-position gather per query — no per-doc loop."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.pipelines.search_features import span_first_search

    index_dir = _ensure_index(sf_dir, positional=True)
    qs = rd.from_items([{**q, "top_k": BM25_TOP_K} for q in SPAN_FIRST_QUERIES])
    return _finish_scores(span_first_search(qs, index_dir, _engine_cfg()))


def q_match_bool_prefix(sf_dir: str):
    """ES match_bool_prefix: bool-OR BM25 over the complete tokens plus
    a CONSTANT-SCORE (+1.0, Lucene's MultiTermQuery rewrite) prefix
    clause on the last token, dictionary-expanded once."""
    from hybrid_sanctions_search_engine_ray.pipelines.search_features import match_bool_prefix

    index_dir = _ensure_index(sf_dir)
    res = match_bool_prefix(MBP_QUERIES, index_dir, _engine_cfg(), top_k=BM25_TOP_K * 4)
    return _rerank_topk(res)


def q_diversified_sampler(sf_dir: str):
    """ES diversified_sampler + terms sub-agg: the sample walks the BM25
    ranking taking at most ONE doc per conversation (max_docs_per_value),
    then term doc-counts are taken over the diversified sample only."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.pipelines.query import IndexReader
    from hybrid_sanctions_search_engine_ray.stages.facets import (
        diversified_sample_ids, sampler_terms)

    index_dir = _ensure_index(sf_dir)
    r = IndexReader(index_dir)
    ids = diversified_sample_ids(r, _DIV_QUERY, _DIV_SIZE, _DIV_STRIDE, max_per_value=1)
    corpus = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    return sampler_terms(index_dir, _DIV_QUERY, corpus,
                         analyzer_cfg=_engine_cfg().analyzer,
                         sample_size=_DIV_SIZE, top_n=_DIV_TOP,
                         reader=r, sample_ids=ids)


def q_cumulative_sum(sf_dir: str):
    """ES cumulative_sum pipeline agg under a date_histogram: running
    total of the gap-filled per-day event counts — pure integer math."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.es_aggs import cumulative_sum

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"), columns=["ts"])
    return cumulative_sum(ds, "ts", bucket_s=86400)


def q_rate_agg(sf_dir: str):
    """ES rate agg (day buckets, per-hour unit): doc rate n/24 and value
    rate from exact integer cents — the divisions are the only float
    math, shared verbatim with the SQL twin."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.es_aggs import rate_agg

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["ts", "value"])
    return rate_agg(ds, "ts", "value", bucket_s=86400, unit_s=3600)


def q_categorize_text(sf_dir: str):
    """ES categorize_text, deterministic twin: top token-pattern
    templates (lowercase, digits→<num>, first 4 tokens) by doc count —
    RE2-identical normalization on both sides."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.es_aggs import categorize_text

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"), columns=["text"])
    return categorize_text(ds, "text", n_tokens=4, top_n=15)


def q_change_point(sf_dir: str):
    """ES change_point agg, deterministic twin: the split of the
    gap-filled day-count series maximizing the segment-mean gap, exact
    integer prefix sums + one shared float objective."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.es_aggs import change_point

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"), columns=["ts"])
    return change_point(ds, "ts", bucket_s=86400)


def q_ks_test(sf_dir: str):
    """ES bucket_count_ks_test: two-sample KS statistic between the
    day-of-occurrence distributions of two event types, exact integer
    cumulative counts, one shared ECDF-difference formula."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.es_aggs import ks_test

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["ts", "event_type"])
    return ks_test(ds, "event_type", *_BC_KEYS, ts_col="ts", bucket_s=86400)


def q_global_agg(sf_dir: str):
    """ES global agg: corpus-wide count/revenue metrics alongside one
    event_type bucket's, in one row — single streaming pass, integer
    cents partials, no shuffle."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.es_aggs import global_agg

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_type", "value"])
    return global_agg(ds, "value", "event_type", "click")


_Q17_BRAND = "Brand#23"


def q_small_qty_revenue(sf_dir: str):
    """TPC-H Q17 shape (small-quantity-order revenue): the correlated
    per-part avg-quantity subquery becomes ONE partial-agg pass over the
    brand-filtered lineitem (partkey → Σqty, count) broadcast back into
    a second filtered pass — no correlated rescan, no join shuffle. The
    threshold qty < 0.2·avg is evaluated as exact ints
    (5·qty·cnt < Σqty), shared verbatim with the SQL twin; money stays
    integer cents until the single final division."""
    import pyarrow.dataset as _pads
    import ray.data as rd
    from ray.data.aggregate import Count, Sum

    bp = _pads.dataset(os.path.join(sf_dir, "part.parquet")).to_table(
        columns=["p_partkey", "p_brand"],
        filter=_pads.field("p_brand") == _Q17_BRAND,
    )
    keys = np.sort(bp["p_partkey"].to_numpy().astype(np.int64))

    def member(col: pa.ChunkedArray) -> np.ndarray:
        pk = col.to_numpy(zero_copy_only=False).astype(np.int64)
        at = np.searchsorted(keys, pk)
        safe = np.minimum(at, max(keys.size - 1, 0))
        return (keys.size > 0) & (at < keys.size) & (keys[safe] == pk)

    def pass1(b: pa.Table) -> pa.Table:
        t = b.filter(pa.array(member(b["l_partkey"])))
        q = t["l_quantity"].to_numpy(zero_copy_only=False).astype(np.int64)
        g = pa.table({"l_partkey": t["l_partkey"], "q": pa.array(q)}) \
            .group_by(["l_partkey"]).aggregate([("q", "sum"), ([], "count_all")])
        return pa.table({"l_partkey": g["l_partkey"],
                         "sq_p": pc.cast(g["q_sum"], pa.int64()),
                         "n_p": pc.cast(g["count_all"], pa.int64())})

    li_path = os.path.join(sf_dir, "lineitem.parquet")
    st = (
        rd.read_parquet(li_path, columns=["l_partkey", "l_quantity"])
        .map_batches(pass1, batch_format="pyarrow")
        .groupby("l_partkey")
        .aggregate(Sum("sq_p", alias_name="sq"), Sum("n_p", alias_name="cnt"))
        .to_pandas()  # one-brand part stats: |part|/|brands| rows, tiny
    )
    st = st.sort_values("l_partkey", kind="mergesort")
    st_keys = st["l_partkey"].to_numpy(dtype=np.int64)
    st_sq = st["sq"].to_numpy(dtype=np.int64)
    st_cnt = st["cnt"].to_numpy(dtype=np.int64)

    def pass2(b: pa.Table) -> pa.Table:
        t = b.filter(pa.array(member(b["l_partkey"])))
        pk = t["l_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        at = np.searchsorted(st_keys, pk)  # every filtered key is present
        q = t["l_quantity"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = 5 * q * st_cnt[at] < st_sq[at]
        cents = np.floor(np.abs(
            t["l_extendedprice"].to_numpy(zero_copy_only=False)) * 100.0 + 0.5
        ).astype(np.int64)
        return pa.table({"c_p": pa.array([int(cents[keep].sum())], pa.int64())})

    tot = (
        rd.read_parquet(li_path,
                        columns=["l_partkey", "l_quantity", "l_extendedprice"])
        .map_batches(pass2, batch_format="pyarrow")
        .sum("c_p")
    )
    return pd.DataFrame({"avg_yearly": [round(float(tot) / 100.0 / 7.0, 2)]})


_Q7_NATIONS = ("NATION_3", "NATION_8")
_Q7_LO, _Q7_HI = "1996-01-01", "1998-01-01"


def _keyed_nation_lookup(sf_dir: str, tbl: str, key: str, natkey: str,
                         nations: tuple[str, ...]):
    """(sorted keys, nation-index array) for rows of ``tbl`` whose nation
    is in ``nations`` — the broadcast small side of Q7/Q8."""
    import pyarrow.dataset as _pads
    import pyarrow.parquet as _pq

    nat = _pq.read_table(os.path.join(sf_dir, "nation.parquet"),
                         columns=["n_nationkey", "n_name"]).to_pandas()
    nat = nat[nat["n_name"].isin(nations)]
    rows = _pads.dataset(os.path.join(sf_dir, f"{tbl}.parquet")).to_table(
        columns=[key, natkey],
        filter=_pads.field(natkey).isin(nat["n_nationkey"].tolist()),
    ).to_pandas()
    m = rows.merge(nat, left_on=natkey, right_on="n_nationkey")
    m = m.sort_values(key, kind="mergesort")
    name_idx = {n: i for i, n in enumerate(nations)}
    return (m[key].to_numpy(dtype=np.int64),
            m["n_name"].map(name_idx).to_numpy(dtype=np.int64))


def _sorted_lookup(keys: np.ndarray, vals: np.ndarray, probe: np.ndarray,
                   miss: int = -1) -> np.ndarray:
    """Vectorized sorted-array join: vals[probe] with ``miss`` for absent
    keys — the broadcast-side lookup primitive."""
    if keys.size == 0:
        return np.full(probe.size, miss, dtype=np.int64)
    at = np.searchsorted(keys, probe)
    safe = np.minimum(at, keys.size - 1)
    hit = (at < keys.size) & (keys[safe] == probe)
    return np.where(hit, vals[safe], miss)


def q_volume_shipping(sf_dir: str):
    """TPC-H Q7 shape (two-nation trade volume by year): the supplier-
    and customer-side nation maps are nation-filtered BROADCAST lookups
    (sorted key arrays — fractions of their tables); orders annotates
    its customer nation in a streaming pass; the only big exchange is
    the lineitem ⋈ orders native hash join. Revenue stays exact integer
    1/10000-dollars until the final division."""
    import pyarrow.dataset as _pads
    import ray.data as rd
    from ray.data.aggregate import Sum

    sk, sn = _keyed_nation_lookup(sf_dir, "supplier", "s_suppkey", "s_nationkey",
                                  _Q7_NATIONS)
    ck, cn = _keyed_nation_lookup(sf_dir, "customer", "c_custkey", "c_nationkey",
                                  _Q7_NATIONS)
    if sk.size == 0 or ck.size == 0:
        # degenerate nation pair — no row can qualify, and Ray's hash
        # join chokes on an all-empty side; exit before the big scan
        return pd.DataFrame({"supp_nation": pd.Series([], dtype=object),
                             "cust_nation": pd.Series([], dtype=object),
                             "l_year": pd.Series([], dtype=np.int64),
                             "revenue": pd.Series([], dtype=np.float64)})
    lo = np.datetime64(_Q7_LO).astype("datetime64[us]")
    hi = np.datetime64(_Q7_HI).astype("datetime64[us]")

    def ord_prep(b: pa.Table) -> pa.Table:
        nat = _sorted_lookup(ck, cn, b["o_custkey"].to_numpy(zero_copy_only=False)
                             .astype(np.int64))
        t = pa.table({"o_orderkey": b["o_orderkey"], "cust_nat": pa.array(nat)})
        return t.filter(pc.greater_equal(t["cust_nat"], 0))

    ords = rd.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_custkey"],
    ).map_batches(ord_prep, batch_format="pyarrow")

    def li_prep(b: pa.Table) -> pa.Table:
        nat = _sorted_lookup(sk, sn, b["l_suppkey"].to_numpy(zero_copy_only=False)
                             .astype(np.int64))
        t = b.append_column("supp_nat", pa.array(nat))
        t = t.filter(pc.greater_equal(t["supp_nat"], 0))
        year = (t["l_shipdate"].to_numpy(zero_copy_only=False)
                .astype("datetime64[Y]").astype(np.int64) + 1970)
        u = _ucents(t["l_extendedprice"].to_numpy(zero_copy_only=False),
                    t["l_discount"].to_numpy(zero_copy_only=False))
        return pa.table({"l_orderkey": t["l_orderkey"],
                         "supp_nat": t["supp_nat"],
                         "l_year": pa.array(year), "u": pa.array(u)})

    line = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_suppkey", "l_shipdate", "l_extendedprice",
                 "l_discount"],
        filter=(_pads.field("l_shipdate") >= lo) & (_pads.field("l_shipdate") < hi),
    ).map_batches(li_prep, batch_format="pyarrow")

    joined = line.join(ords, join_type="inner", num_partitions=_join_parts(),
                       on=("l_orderkey",), right_on=("o_orderkey",))

    def pair_partial(b: pa.Table) -> pa.Table:
        t = b.filter(pc.not_equal(b["supp_nat"], b["cust_nat"]))
        g = t.select(["supp_nat", "cust_nat", "l_year", "u"]) \
            .group_by(["supp_nat", "cust_nat", "l_year"]).aggregate([("u", "sum")])
        return pa.table({"supp_nat": g["supp_nat"], "cust_nat": g["cust_nat"],
                         "l_year": g["l_year"],
                         "u_p": pc.cast(g["u_sum"], pa.int64())})

    agg = (
        joined.map_batches(pair_partial, batch_format="pyarrow")
        .groupby(["supp_nat", "cust_nat", "l_year"])
        .aggregate(Sum("u_p", alias_name="u"))
        .to_pandas()
    )
    if agg.empty:
        return pd.DataFrame({"supp_nation": pd.Series([], dtype=object),
                             "cust_nation": pd.Series([], dtype=object),
                             "l_year": pd.Series([], dtype=np.int64),
                             "revenue": pd.Series([], dtype=np.float64)})
    names = np.array(_Q7_NATIONS)
    agg = agg.assign(supp_nation=names[agg["supp_nat"].to_numpy(dtype=np.int64)],
                     cust_nation=names[agg["cust_nat"].to_numpy(dtype=np.int64)])
    agg = agg.sort_values(["supp_nation", "cust_nation", "l_year"],
                          kind="mergesort").reset_index(drop=True)
    return pd.DataFrame({
        "supp_nation": agg["supp_nation"], "cust_nation": agg["cust_nation"],
        "l_year": agg["l_year"].astype(np.int64),
        "revenue": np.round(agg["u"].to_numpy(dtype=np.int64) / 10000.0, 2),
    })


_Q8_REGION, _Q8_TYPE, _Q8_NATION = "ASIA", "ECONOMY", "NATION_3"
_Q8_LO, _Q8_HI = "1996-01-01", "1998-01-01"


def q_market_share(sf_dir: str):
    """TPC-H Q8 shape (national market share): ECONOMY part keys, ASIA
    customer keys and the target nation's supplier keys are three
    broadcast sorted arrays; orders streams once (date window + ASIA
    membership) into the single lineitem ⋈ orders hash join. Share =
    Σu(target)/Σu per order year — the division is the only float."""
    import pyarrow.dataset as _pads
    import pyarrow.parquet as _pq
    import ray.data as rd
    from ray.data.aggregate import Sum

    pk = _pads.dataset(os.path.join(sf_dir, "part.parquet")).to_table(
        columns=["p_partkey"], filter=_pads.field("p_type") == _Q8_TYPE,
    )["p_partkey"].to_numpy().astype(np.int64)
    pk = np.sort(pk)

    nat = _pq.read_table(os.path.join(sf_dir, "nation.parquet")).to_pandas()
    reg = _pq.read_table(os.path.join(sf_dir, "region.parquet")).to_pandas()
    asia_nk = nat.merge(reg, left_on="n_regionkey", right_on="r_regionkey")
    asia_nk = asia_nk[asia_nk["r_name"] == _Q8_REGION]["n_nationkey"].tolist()
    ck = np.sort(_pads.dataset(os.path.join(sf_dir, "customer.parquet")).to_table(
        columns=["c_custkey"], filter=_pads.field("c_nationkey").isin(asia_nk),
    )["c_custkey"].to_numpy().astype(np.int64))
    tgt_nk = nat[nat["n_name"] == _Q8_NATION]["n_nationkey"].tolist()
    sk = np.sort(_pads.dataset(os.path.join(sf_dir, "supplier.parquet")).to_table(
        columns=["s_suppkey"], filter=_pads.field("s_nationkey").isin(tgt_nk),
    )["s_suppkey"].to_numpy().astype(np.int64))

    lo = np.datetime64(_Q8_LO).astype("datetime64[us]")
    hi = np.datetime64(_Q8_HI).astype("datetime64[us]")

    def in_sorted(keys: np.ndarray, probe: np.ndarray) -> np.ndarray:
        return _sorted_lookup(keys, np.zeros(keys.size, dtype=np.int64), probe) == 0

    def ord_prep(b: pa.Table) -> pa.Table:
        ckeys = b["o_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        t = b.filter(pa.array(in_sorted(ck, ckeys)))
        year = (t["o_orderdate"].to_numpy(zero_copy_only=False)
                .astype("datetime64[Y]").astype(np.int64) + 1970)
        return pa.table({"o_orderkey": t["o_orderkey"], "o_year": pa.array(year)})

    ords = rd.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
        filter=(_pads.field("o_orderdate") >= lo) & (_pads.field("o_orderdate") < hi),
    ).map_batches(ord_prep, batch_format="pyarrow")

    def li_prep(b: pa.Table) -> pa.Table:
        pkeys = b["l_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        t = b.filter(pa.array(in_sorted(pk, pkeys)))
        u = _ucents(t["l_extendedprice"].to_numpy(zero_copy_only=False),
                    t["l_discount"].to_numpy(zero_copy_only=False))
        skeys = t["l_suppkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        tgt = in_sorted(sk, skeys)
        return pa.table({"l_orderkey": t["l_orderkey"], "u": pa.array(u),
                         "tgt_u": pa.array(np.where(tgt, u, 0))})

    line = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_partkey", "l_suppkey", "l_extendedprice",
                 "l_discount"],
    ).map_batches(li_prep, batch_format="pyarrow")

    joined = line.join(ords, join_type="inner", num_partitions=_join_parts(),
                       on=("l_orderkey",), right_on=("o_orderkey",))

    def year_partial(b: pa.Table) -> pa.Table:
        g = b.select(["o_year", "u", "tgt_u"]).group_by(["o_year"]) \
            .aggregate([("u", "sum"), ("tgt_u", "sum")])
        return pa.table({"o_year": g["o_year"],
                         "u_p": pc.cast(g["u_sum"], pa.int64()),
                         "t_p": pc.cast(g["tgt_u_sum"], pa.int64())})

    agg = (
        joined.map_batches(year_partial, batch_format="pyarrow")
        .groupby("o_year")
        .aggregate(Sum("u_p", alias_name="u"), Sum("t_p", alias_name="t"))
        .to_pandas()
    )
    if agg.empty:
        return pd.DataFrame({"o_year": pd.Series([], dtype=np.int64),
                             "mkt_share": pd.Series([], dtype=np.float64)})
    agg = agg.sort_values("o_year", kind="mergesort").reset_index(drop=True)
    share = agg["t"].to_numpy(dtype=np.int64) / agg["u"].to_numpy(dtype=np.int64)
    return pd.DataFrame({"o_year": agg["o_year"].astype(np.int64),
                         "mkt_share": np.round(share, 6)})


_Q21_TOP = 10


def q_waiting_supplier(sf_dir: str):
    """TPC-H Q21 shape (suppliers who alone failed a multi-supplier
    order; l_returnflag='R' stands in for the missing receipt>commit
    columns): the exists / not-exists pair folds into per-order
    aggregates — distinct suppliers, distinct FAILING suppliers, and
    (when unique) the failing suppkey — computed with two orderkey-keyed
    partial-agg shuffles after the lineitem ⋈ 'F'-orders hash join;
    per-supplier counts are a third, supplier-sized shuffle. Names
    attach to the top-10 survivors only."""
    import pyarrow.dataset as _pads
    import ray.data as rd
    from ray.data.aggregate import Max, Min, Sum

    ords = rd.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_orderstatus"],
        filter=_pads.field("o_orderstatus") == "F",
    ).select_columns(["o_orderkey"])

    def li_prep(b: pa.Table) -> pa.Table:
        fail = pc.cast(pc.equal(b["l_returnflag"], "R"), pa.int64())
        return pa.table({"l_orderkey": b["l_orderkey"],
                         "l_suppkey": b["l_suppkey"], "fail": fail})

    line = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_suppkey", "l_returnflag"],
    ).map_batches(li_prep, batch_format="pyarrow")

    joined = line.join(ords, join_type="inner", num_partitions=_join_parts(),
                       on=("l_orderkey",), right_on=("o_orderkey",))

    def pair_partial(b: pa.Table) -> pa.Table:
        g = b.select(["l_orderkey", "l_suppkey", "fail"]) \
            .group_by(["l_orderkey", "l_suppkey"]).aggregate([("fail", "max")])
        return pa.table({"l_orderkey": g["l_orderkey"],
                         "l_suppkey": g["l_suppkey"],
                         "f_p": pc.cast(g["fail_max"], pa.int64())})

    pairs = (
        joined.map_batches(pair_partial, batch_format="pyarrow")
        .groupby(["l_orderkey", "l_suppkey"])
        .aggregate(Max("f_p", alias_name="fail"))
    )

    _NOKEY = np.iinfo(np.int64).max

    def order_partial(b: pa.Table) -> pa.Table:
        f = b["fail"].to_numpy(zero_copy_only=False).astype(np.int64)
        sk = b["l_suppkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        t = pa.table({
            "l_orderkey": b["l_orderkey"],
            "one": pa.array(np.ones(len(f), dtype=np.int64)),
            "f": pa.array(f),
            "fk": pa.array(np.where(f == 1, sk, _NOKEY)),
        })
        g = t.group_by(["l_orderkey"]).aggregate(
            [("one", "sum"), ("f", "sum"), ("fk", "min")]
        )
        return pa.table({"l_orderkey": g["l_orderkey"],
                         "ns_p": pc.cast(g["one_sum"], pa.int64()),
                         "nf_p": pc.cast(g["f_sum"], pa.int64()),
                         "fk_p": pc.cast(g["fk_min"], pa.int64())})

    orders_agg = (
        pairs.map_batches(order_partial, batch_format="pyarrow")
        .groupby("l_orderkey")
        .aggregate(Sum("ns_p", alias_name="nsupp"),
                   Sum("nf_p", alias_name="nfail"),
                   Min("fk_p", alias_name="failkey"))
    )

    def wait_partial(b: pa.Table) -> pa.Table:
        keep = pc.and_(pc.greater_equal(b["nsupp"], 2), pc.equal(b["nfail"], 1))
        t = b.filter(keep)
        g = t.select(["failkey"]).group_by(["failkey"]).aggregate([([], "count_all")])
        return pa.table({"s_suppkey": g["failkey"],
                         "w_p": pc.cast(g["count_all"], pa.int64())})

    waits = (
        orders_agg.map_batches(wait_partial, batch_format="pyarrow")
        .groupby("s_suppkey")
        .aggregate(Sum("w_p", alias_name="numwait"))
        .to_pandas()
    )
    if waits.empty:
        return pd.DataFrame({"s_name": pd.Series([], dtype=object),
                             "numwait": pd.Series([], dtype=np.int64)})
    sup = _pads.dataset(os.path.join(sf_dir, "supplier.parquet")).to_table(
        columns=["s_suppkey", "s_name"],
        filter=_pads.field("s_suppkey").isin(waits["s_suppkey"].tolist()),
    ).to_pandas()
    out = waits.merge(sup, on="s_suppkey")
    out = out.sort_values(["numwait", "s_name"], ascending=[False, True],
                          kind="mergesort").head(_Q21_TOP).reset_index(drop=True)
    return pd.DataFrame({"s_name": out["s_name"],
                         "numwait": out["numwait"].astype(np.int64)})


def q_fuzzy_damerau(sf_dir: str):
    """ES match with fuzziness under the Lucene DEFAULT edit semantics —
    transpositions cost one edit (true Damerau-Levenshtein, DuckDB
    ``damerau_levenshtein`` parity): the transposed typos in the fuzzy
    query set (sprak→spark, jion→join, tabel→table) drop from distance
    2 to 1, re-ranking the per-term expansion before the BM25 OR path."""
    from hybrid_sanctions_search_engine_ray.pipelines.search_features import fuzzy_search

    index_dir = _ensure_index(sf_dir)
    vocab = q_term_dictionary(sf_dir)
    res = fuzzy_search(FUZZY_MATCH_QUERIES, index_dir, vocab, _engine_cfg(),
                       max_dist=_FUZZY_DIST, topn=_FUZZY_TOPN, top_k=BM25_TOP_K,
                       metric="damerau")
    return _finish_scores(res)


_SLICE_MAX = 4


def q_sliced_scroll(sf_dir: str):
    """ES sliced scroll: the corpus split into disjoint hash slices for
    coordination-free parallel export; returns the per-slice manifest
    (count, min/max/sum of doc_id) — membership is a pure row property
    (md5 parity), so a retried slice re-selects exactly the same rows."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.sampling import sliced_scan

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id"])
    return sliced_scan(ds, "doc_id", _SLICE_MAX, salt="-sl")


def q_missing_agg(sf_dir: str):
    """ES ``terms(role)`` + ``missing(tool)`` sub-agg over the
    transcripts: per role, how many turns carry no tool annotation
    (the generator's empty-string marker). Partial-agg per batch, one
    buckets-sized shuffle."""
    from hybrid_sanctions_search_engine_ray.sources.transcripts import transcripts_from_documents
    from hybrid_sanctions_search_engine_ray.stages.es_aggs import missing_agg

    ds = transcripts_from_documents(sf_dir)
    return missing_agg(ds, "role", "tool", missing_value="")


_DUPSPAN_N, _DUPSPAN_MIN_DOCS, _DUPSPAN_TOP = 8, 2, 50


def q_dup_spans(sf_dir: str):
    """Exact duplicated-substring detection (Lee et al. 2022): word
    8-grams recurring across ≥2 distinct documents, top-50 by total
    occurrences — the memorization/boilerplate signal doc-level dedup
    misses. One streaming pass + one gram-keyed shuffle."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.dedup import dup_ngram_spans

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "text"])
    return dup_ngram_spans(ds, "text", "doc_id", n=_DUPSPAN_N,
                           min_docs=_DUPSPAN_MIN_DOCS, top=_DUPSPAN_TOP)


def q_line_dedup(sf_dir: str):
    """C4/RefinedWeb-style line-level exact dedup: every later copy of a
    repeated line (non-overlapping 8-token chunk of the simple-analyzer
    stream — the corpus has no newlines) is dropped, keeping the
    smallest (doc_id, chunk_idx) occurrence corpus-wide. One corpus
    scan, one line-keyed Min exchange (winners ARE the kept lines, so
    no join back), one doc-keyed sum. Returns per-doc retained-line
    accounting."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.dedup import line_dedup

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "text"])
    return line_dedup(ds, "text", "doc_id", line_len=8)


_TSB_SHARDS, _TSB_SHARD_SIZE, _TSB_SIZE = 8, 5, 5


def q_terms_shard_bounds(sf_dir: str):
    """ES terms agg with distributed-error accounting: each md5 shard
    contributes its local top-``shard_size`` source counts; the merge
    reports summed returned counts + doc_count_error_upper_bound (sum of
    the last returned count from shards missing the term, 0 for
    exhaustive shards — the ES rule)."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.es_aggs import terms_shard_bounds

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "source"])
    return terms_shard_bounds(ds, "source", "doc_id", n_shards=_TSB_SHARDS,
                              shard_size=_TSB_SHARD_SIZE, size=_TSB_SIZE,
                              salt="-sh")


_Q6_LO, _Q6_HI = "1996-01-01", "1997-01-01"
_Q6_DMIN, _Q6_DMAX, _Q6_QTY = 5, 7, 24  # disc_pct bounds, qty threshold


def q_forecast_revenue(sf_dir: str):
    """TPC-H Q6 shape (forecast revenue change): predicates pushed into
    the parquet read (date window + row-group stats), revenue =
    Σ price_cents × disc_pct as exact integer 1/10000-dollars per batch
    — the whole query is one pruned streaming scan + a scalar sum."""
    import pyarrow.dataset as _pads
    import ray.data as rd

    lo = np.datetime64(_Q6_LO).astype("datetime64[us]")
    hi = np.datetime64(_Q6_HI).astype("datetime64[us]")

    def partial(b: pa.Table) -> pa.Table:
        dp = np.floor(np.abs(b["l_discount"].to_numpy(zero_copy_only=False))
                      * 100.0 + 0.5).astype(np.int64)
        q = b["l_quantity"].to_numpy(zero_copy_only=False)
        keep = (dp >= _Q6_DMIN) & (dp <= _Q6_DMAX) & (q < _Q6_QTY)
        cents = np.floor(np.abs(
            b["l_extendedprice"].to_numpy(zero_copy_only=False)[keep])
            * 100.0 + 0.5).astype(np.int64)
        u = int((cents * dp[keep]).sum())
        return pa.table({"u_p": pa.array([u], pa.int64())})

    tot = (
        rd.read_parquet(
            os.path.join(sf_dir, "lineitem.parquet"),
            columns=["l_shipdate", "l_discount", "l_quantity", "l_extendedprice"],
            filter=(_pads.field("l_shipdate") >= lo)
                   & (_pads.field("l_shipdate") < hi),
        )
        .map_batches(partial, batch_format="pyarrow")
        .sum("u_p")
    )
    return pd.DataFrame({"revenue": [round(float(tot) / 10000.0, 2)]})


_Q4_LO, _Q4_HI = "1996-07-01", "1996-10-01"


def q_priority_count(sf_dir: str):
    """TPC-H Q4 shape (order priority checking; l_returnflag='R' stands
    in for the missing receipt>commit lateness columns): the EXISTS
    becomes distinct late orderkeys (per-batch unique → one keyed
    shuffle) hash-joined to the date-pruned quarter of orders; priority
    counts come out of a 5-row groupby of per-batch partials."""
    import pyarrow.dataset as _pads
    import ray.data as rd
    from ray.data.aggregate import Sum

    lo = np.datetime64(_Q4_LO).astype("datetime64[us]")
    hi = np.datetime64(_Q4_HI).astype("datetime64[us]")

    ords = rd.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_orderdate", "o_orderpriority"],
        filter=(_pads.field("o_orderdate") >= lo)
               & (_pads.field("o_orderdate") < hi),
    ).select_columns(["o_orderkey", "o_orderpriority"])

    def late_partial(b: pa.Table) -> pa.Table:
        t = b.filter(pc.equal(b["l_returnflag"], "R"))
        g = t.select(["l_orderkey"]).group_by(["l_orderkey"]).aggregate([])
        return g

    from ray.data.aggregate import Count

    late = (
        rd.read_parquet(os.path.join(sf_dir, "lineitem.parquet"),
                        columns=["l_orderkey", "l_returnflag"])
        .map_batches(late_partial, batch_format="pyarrow")
        .groupby("l_orderkey")
        .aggregate(Count(alias_name="_n"))  # distinct late orderkeys
        .select_columns(["l_orderkey"])
    )

    joined = ords.join(late, join_type="inner", num_partitions=_join_parts(),
                       on=("o_orderkey",), right_on=("l_orderkey",))

    def cnt_partial(b: pa.Table) -> pa.Table:
        g = b.select(["o_orderpriority"]).group_by(["o_orderpriority"]) \
            .aggregate([([], "count_all")])
        return pa.table({"o_orderpriority": g["o_orderpriority"],
                         "c_p": pc.cast(g["count_all"], pa.int64())})

    out = (
        joined.map_batches(cnt_partial, batch_format="pyarrow")
        .groupby("o_orderpriority")
        .aggregate(Sum("c_p", alias_name="order_count"))
        .to_pandas()
    )
    if out.empty:
        return pd.DataFrame({"o_orderpriority": pd.Series([], dtype=object),
                             "order_count": pd.Series([], dtype=np.int64)})
    out = out.sort_values("o_orderpriority", kind="mergesort").reset_index(drop=True)
    return pd.DataFrame({"o_orderpriority": out["o_orderpriority"],
                         "order_count": out["order_count"].astype(np.int64)})


_Q12_LO, _Q12_HI = "1996-01-01", "1997-01-01"
_Q12_HIGH = ("1-URGENT", "2-HIGH")


def q_shipmode_priority(sf_dir: str):
    """TPC-H Q12 shape (shipping-mode priority; l_linestatus stands in
    for the missing l_shipmode): per mode, how many lineitems in the
    ship-year belong to high- vs low-priority orders. The order-priority
    flag rides the lineitem ⋈ orders hash join; the final groupby is
    2 rows of summed per-batch partials."""
    import pyarrow.dataset as _pads
    import ray.data as rd
    from ray.data.aggregate import Sum

    lo = np.datetime64(_Q12_LO).astype("datetime64[us]")
    hi = np.datetime64(_Q12_HI).astype("datetime64[us]")

    def ord_prep(b: pa.Table) -> pa.Table:
        hi_flag = pc.is_in(b["o_orderpriority"],
                           value_set=pa.array(list(_Q12_HIGH)))
        return pa.table({"o_orderkey": b["o_orderkey"],
                         "high": pc.cast(hi_flag, pa.int64())})

    ords = rd.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_orderpriority"],
    ).map_batches(ord_prep, batch_format="pyarrow")

    line = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_linestatus", "l_shipdate"],
        filter=(_pads.field("l_shipdate") >= lo)
               & (_pads.field("l_shipdate") < hi),
    ).select_columns(["l_orderkey", "l_linestatus"])

    joined = line.join(ords, join_type="inner", num_partitions=_join_parts(),
                       on=("l_orderkey",), right_on=("o_orderkey",))

    def mode_partial(b: pa.Table) -> pa.Table:
        low = pc.subtract(pa.scalar(1, pa.int64()), pc.cast(b["high"], pa.int64()))
        t = pa.table({"l_shipmode": b["l_linestatus"],
                      "h": pc.cast(b["high"], pa.int64()), "l": low})
        g = t.group_by(["l_shipmode"]).aggregate([("h", "sum"), ("l", "sum")])
        return pa.table({"l_shipmode": g["l_shipmode"],
                         "h_p": pc.cast(g["h_sum"], pa.int64()),
                         "l_p": pc.cast(g["l_sum"], pa.int64())})

    out = (
        joined.map_batches(mode_partial, batch_format="pyarrow")
        .groupby("l_shipmode")
        .aggregate(Sum("h_p", alias_name="high_line_count"),
                   Sum("l_p", alias_name="low_line_count"))
        .to_pandas()
    )
    if out.empty:
        return pd.DataFrame({"l_shipmode": pd.Series([], dtype=object),
                             "high_line_count": pd.Series([], dtype=np.int64),
                             "low_line_count": pd.Series([], dtype=np.int64)})
    out = out.sort_values("l_shipmode", kind="mergesort").reset_index(drop=True)
    return pd.DataFrame({"l_shipmode": out["l_shipmode"],
                         "high_line_count": out["high_line_count"].astype(np.int64),
                         "low_line_count": out["low_line_count"].astype(np.int64)})


SPAN_CONTAIN_QUERIES: list[dict] = [
    {"query_id": "sc1", "query_text": "slow scan", "little": "table", "slop": 2},
    {"query_id": "sc2", "query_text": "join window", "little": "the", "slop": 3},
    {"query_id": "sc3", "query_text": "merge batch", "little": "sort", "slop": 2},
    {"query_id": "sc4", "query_text": "hash join", "little": "a", "slop": 2},
]

SPAN_WITHIN_QUERIES: list[dict] = [
    {"query_id": "sw1", "query_text": "slow scan", "little": "table", "slop": 2},
    {"query_id": "sw2", "query_text": "fast merge", "little": "a", "slop": 2},
    {"query_id": "sw3", "query_text": "big table", "little": "a", "slop": 3},
    {"query_id": "sw4", "query_text": "join window", "little": "the", "slop": 3},
]


def _span_contain_matches_sql(queries_list: list[dict]) -> str:
    """Containment match: an ordered big window [p0, p1] (per-gap slop —
    the repo's 2-term span_near rule) enclosing a little occurrence,
    boundaries inclusive; one SELECT per query, unioned."""
    selects = []
    for q in queries_list:
        a, b = q["query_text"].lower().split()
        c = q["little"].lower()
        slop = q["slop"]
        selects.append(
            f"SELECT DISTINCT '{q['query_id']}' AS query_id, p0.doc_id AS doc_id "
            f"FROM tokpos p0 "
            f"JOIN tokpos p1 ON p1.doc_id = p0.doc_id "
            f"AND p1.pos BETWEEN p0.pos + 1 AND p0.pos + 1 + {slop} "
            f"AND p1.term = '{b}' "
            f"JOIN tokpos pl ON pl.doc_id = p0.doc_id "
            f"AND pl.pos BETWEEN p0.pos AND p1.pos AND pl.term = '{c}' "
            f"WHERE p0.term = '{a}'"
        )
    return " UNION ALL ".join(selects)


def _span_contain_qterms(queries_list: list[dict], use_little: bool) -> str:
    """Scoring-term rows: the BIG pair for span_containing, the LITTLE
    term for span_within (which span emits is the only difference)."""
    rows = []
    for q in queries_list:
        terms = ([q["little"].lower()] if use_little
                 else q["query_text"].lower().split())
        for t in sorted(set(terms)):
            rows.append(f"('{q['query_id']}', '{t}')")
    return ", ".join(rows)


CROSS_FIELDS_QUERIES = {
    "cf1": "assistant merge batch",
    "cf2": "tool scan",
    "cf3": "user join window",
    "cf4": "customer order",
}
_CF_BOOSTS = (1.0, 1.0)  # (text field, role field)


def _ensure_role_field_index(sf_dir: str) -> str:
    """Role-FIELD index: the same simple-analyzer build machinery over
    the transcripts with ``text`` := ``role`` — the second member of the
    cross_fields analyzer group (ES's 'fields sharing one analyzer'
    precondition). One token per doc, so dl=1 and avgdl=1.0 exactly."""
    from hybrid_sanctions_search_engine_ray.pipelines.index_build import build_index
    from hybrid_sanctions_search_engine_ray.sources.transcripts import transcripts_from_documents
    from hybrid_sanctions_search_engine_ray.state.manifest import IndexManifest

    from hybrid_sanctions_search_engine_ray import __version__ as _fmt

    tag = os.path.basename(os.path.normpath(sf_dir)) + "-rolefield"
    index_dir = f"/tmp/graft_idx_cache/{_fmt}/{tag}"
    try:
        if IndexManifest.load(index_dir).status == "complete":
            return index_dir
    except FileNotFoundError:
        pass
    shutil.rmtree(index_dir, ignore_errors=True)

    def role_as_text(b: pa.Table) -> pa.Table:
        return b.set_column(b.schema.get_field_index("text"), "text", b["role"])

    ts = transcripts_from_documents(sf_dir).map_batches(
        role_as_text, batch_format="pyarrow")
    from hybrid_sanctions_search_engine_ray.config import AnalyzerConfig, EngineConfig

    cfg = EngineConfig(num_partitions=4, analyzer=AnalyzerConfig(mode="simple"))
    build_index(os.path.join(sf_dir, "documents.parquet"), index_dir, cfg,
                transcripts_ds=ts)
    return index_dir


def q_cross_fields(sf_dir: str):
    """ES multi_match type=cross_fields over the (text, role) field
    group: TERM-centric — each term takes its best field's BM25
    (tie_breaker 0.0, the ES default), term scores sum per doc. 'merge'
    scores from the body, 'assistant' from the role field; best_fields
    would force whole-query dis_max instead."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.pipelines.search_features import cross_fields_search

    dirs = [_ensure_index(sf_dir), _ensure_role_field_index(sf_dir)]
    qs = rd.from_items([
        {"query_id": qid, "query_text": t, "top_k": BM25_TOP_K * 4}
        for qid, t in CROSS_FIELDS_QUERIES.items()
    ])
    return _rerank_topk(
        cross_fields_search(qs, dirs, list(_CF_BOOSTS), 0.0, _engine_cfg()))


_CF2_WEIGHTS = (1.0, 2.0)  # combined_fields (text, role) field weights


def _ensure_field_norms(sf_dir: str, role: bool = False) -> str:
    """Cached doc_lengths norms sidecar (doc_id, dl) for one field of
    the combined_fields group — same analyzer scan as the build, written
    once per (sf_dir, field) and reused."""
    from hybrid_sanctions_search_engine_ray.pipelines.search_features import doc_lengths
    from hybrid_sanctions_search_engine_ray.sources.transcripts import transcripts_from_documents

    from hybrid_sanctions_search_engine_ray import __version__ as _fmt

    tag = os.path.basename(os.path.normpath(sf_dir)) + ("-norms-role" if role else "-norms-text")
    out = f"/tmp/graft_idx_cache/{_fmt}/{tag}"
    if os.path.isdir(out) and glob.glob(os.path.join(out, "*.parquet")):
        return out
    ts = transcripts_from_documents(sf_dir)
    if role:
        def role_as_text(b: pa.Table) -> pa.Table:
            return b.set_column(b.schema.get_field_index("text"), "text", b["role"])
        ts = ts.map_batches(role_as_text, batch_format="pyarrow")
    tmp = f"{out}.tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    doc_lengths(ts, _engine_cfg().analyzer).write_parquet(tmp)
    try:
        os.rename(tmp, out)
    except OSError:  # lost a concurrent race; the other writer's copy is equivalent
        shutil.rmtree(tmp, ignore_errors=True)
    return out


def q_combined_fields(sf_dir: str):
    """ES combined_fields query (Lucene CombinedFieldQuery / simplified
    BM25F, Robertson et al. 2004) over the (text, role) same-analyzer
    group with weights (1.0, 2.0): weighted term freqs and field
    lengths merge into ONE synthetic field, df counts docs matching in
    ANY field, then a single BM25 — a term in both fields stacks
    (contrast cross_fields' per-term max). Norms come from the
    doc_lengths sidecar; exact DuckDB twin."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.pipelines.search_features import combined_fields_search

    dirs = [_ensure_index(sf_dir), _ensure_role_field_index(sf_dir)]
    norms = [_ensure_field_norms(sf_dir), _ensure_field_norms(sf_dir, role=True)]
    qs = rd.from_items([
        {"query_id": qid, "query_text": t, "top_k": BM25_TOP_K * 4}
        for qid, t in CROSS_FIELDS_QUERIES.items()
    ])
    return _rerank_topk(
        combined_fields_search(qs, dirs, list(_CF2_WEIGHTS), norms, _engine_cfg()))


def _cf_qterms_values() -> str:
    rows = []
    for qid, text in CROSS_FIELDS_QUERIES.items():
        for t in sorted(set(text.lower().split())):
            rows.append(f"('{qid}', '{t}')")
    return ", ".join(rows)


_DR_EDGES = ("2024-01-08", "2024-01-15", "2024-01-22")
_RS_MOD = 7


def q_date_range(sf_dir: str):
    """ES date_range agg over the events stream: half-open timestamp
    buckets with count + value sum/avg; membership decided on exact
    int64 epoch-microseconds."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.es_aggs import date_range_agg

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["ts", "value"])
    return date_range_agg(ds, "ts", list(_DR_EDGES), "value")


def q_random_sampler(sf_dir: str):
    """ES random_sampler agg (probability 1/7) over events: the child
    metric (avg value) runs on a deterministic md5 sample; totals scale
    back by 1/p. Unlike ES's per-shard RNG, membership is a pure row
    property — retries and the SQL twin select identical rows."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.es_aggs import random_sampler_agg

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_id", "value"])
    return random_sampler_agg(ds, "event_id", "value", mod=_RS_MOD, salt="-rs")


_TI_INCLUDE, _TI_EXCLUDE, _TI_SIZE = "^src[0-9]*[02468]$", "^src4$", 10


def q_terms_include(sf_dir: str):
    """ES terms agg with include/exclude REGEX filtering: only terms
    matching ``include`` and not ``exclude`` enter the buckets (the
    value-filtering knob next to include.partition). RE2 applied to the
    per-batch DISTINCT terms inside the partial — non-members never
    shuffle."""
    import re as _re

    import ray.data as rd
    from ray.data.aggregate import Sum

    inc, exc = _re.compile(_TI_INCLUDE), _re.compile(_TI_EXCLUDE)

    def partial(b: pa.Table) -> pa.Table:
        g = b.select(["source"]).group_by(["source"]).aggregate([([], "count_all")])
        terms = g["source"].to_pylist()
        keep = np.array([bool(inc.search(t)) and not exc.search(t)
                         for t in terms], dtype=bool) if terms else np.zeros(0, bool)
        t = pa.table({"term": g["source"],
                      "c_p": pc.cast(g["count_all"], pa.int64())})
        return t.filter(pa.array(keep))

    agg = (
        rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                        columns=["source"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("term")
        .aggregate(Sum("c_p", alias_name="doc_count"))
        .to_pandas()
    )
    if agg.empty:
        return pd.DataFrame({"term": pd.Series([], dtype=object),
                             "doc_count": pd.Series([], dtype=np.int64)})
    agg = agg.sort_values(["doc_count", "term"], ascending=[False, True],
                          kind="mergesort").head(_TI_SIZE).reset_index(drop=True)
    return pd.DataFrame({"term": agg["term"],
                         "doc_count": agg["doc_count"].astype(np.int64)})


_TP_PARTS, _TP_PART, _TP_SIZE = 3, 1, 10


def q_terms_partition(sf_dir: str):
    """ES terms agg with include.partition/num_partitions: enumerate
    only the sources hashing into partition 1 of 3 — the bounded-page
    walk over an unbounded term set; non-member terms never shuffle."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.es_aggs import terms_partition

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["source"])
    return terms_partition(ds, "source", _TP_PARTS, _TP_PART,
                           size=_TP_SIZE, salt="-tp")


_RFF_BOOST, _RFF_SCALING, _RFF_PIVOT, _RFF_EXP = 1.5, 1.0, 3.0, 2.0


def q_rank_feature_fns(sf_dir: str):
    """The remaining ES rank_feature functions — log
    (boost·ln(scaling+f)) and sigmoid (boost·f^exp/(f^exp+pivot^exp)) —
    over the turn_idx feature; the same docmap-gather scorer as
    saturation/distance, one actor pool per function, results unioned
    under rflog_/rfsig_ query ids."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.pipelines.search_features import rank_feature_search

    index_dir = _ensure_index(sf_dir)

    def _qs(prefix: str):
        return rd.from_items(
            [{"query_id": f"{prefix}{qid}", "query_text": t, "top_k": BM25_TOP_K * 4}
             for qid, t in BM25_QUERIES.items()]
        )

    lg = rank_feature_search(_qs("rflog_"), index_dir, "turn_idx", "log",
                             boost=_RFF_BOOST, scaling=_RFF_SCALING,
                             cfg=_engine_cfg())
    sg = rank_feature_search(_qs("rfsig_"), index_dir, "turn_idx", "sigmoid",
                             boost=_RFF_BOOST, pivot=_RFF_PIVOT,
                             exponent=_RFF_EXP, cfg=_engine_cfg())
    return _rerank_topk(lg.union(sg))


_UBQ_QUERY = "spark join"


def q_update_by_query(sf_dir: str):
    """ES _update_by_query (metadata path): flag every doc matching
    'spark join' (OR semantics, the delete_by_query matching contract)
    in a rewritten docmap — segments untouched, exactly ES's
    immutable-analyzed-field rule — then report per-turn_idx totals and
    flagged counts from the UPDATED docmap (proving the rewrite, not
    the match set, is what's read back)."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from hybrid_sanctions_search_engine_ray.pipelines.maintenance import update_by_query

    index_dir = _ensure_index(sf_dir)
    out = os.path.join("/tmp/graft_idx_cache",
                       "ubq-" + os.path.basename(os.path.normpath(sf_dir)))
    # this query OWNS its scratch path: clear it up front so the
    # overwrite guard (which protects arbitrary CLI --out targets, and
    # refuses dirs lacking the _UBQ_META marker — e.g. pre-guard runs'
    # leftovers) never trips on our own stale cache
    import shutil

    shutil.rmtree(out, ignore_errors=True)
    update_by_query(index_dir, _UBQ_QUERY, out, set_col="flag", set_value=1)

    def partial(b: pa.Table) -> pa.Table:
        t = pa.table({"turn_idx": pc.cast(b["turn_idx"], pa.int64()),
                      "one": pa.array(np.ones(b.num_rows, np.int64)),
                      "f": pc.cast(b["flag"], pa.int64())})
        return t.group_by("turn_idx").aggregate([("one", "sum"), ("f", "sum")])

    agg = (
        rd.read_parquet(out)
        .map_batches(partial, batch_format="pyarrow")
        .groupby("turn_idx")
        .aggregate(Sum("one_sum", alias_name="n_docs"),
                   Sum("f_sum", alias_name="n_flagged"))
        .to_pandas()
    )
    agg = agg.sort_values("turn_idx", kind="mergesort").reset_index(drop=True)
    return pd.DataFrame({"turn_idx": agg["turn_idx"].astype(np.int64),
                         "n_docs": agg["n_docs"].astype(np.int64),
                         "n_flagged": agg["n_flagged"].astype(np.int64)})


_GEO_BOX = (10.0, 60.0, -30.0, 40.0)  # lat_min, lat_max, lon_min, lon_max
_GEO_CELL, _GEO_TOP = 22.5, 10


def q_geo_bbox(sf_dir: str):
    """ES geo_bounding_box filter + stats over customers with derived
    deterministic coordinates (exact int64 arithmetic, one division —
    no transcendentals): count + exact-cents balance sum inside the
    box. One streaming pass."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.geo import geo_bounding_box

    ds = rd.read_parquet(os.path.join(sf_dir, "customer.parquet"),
                         columns=["c_custkey", "c_acctbal"])
    return geo_bounding_box(ds, "c_custkey", "c_acctbal", *_GEO_BOX)


# convex CCW pentagon in (lon, lat) integer milli-degrees
_GEO_POLY = [(-120000, -40000), (-20000, -70000), (90000, -20000),
             (60000, 55000), (-80000, 60000)]


def q_geo_polygon(sf_dir: str):
    """ES geo_polygon filter + stats: convex point-in-polygon as the
    all-edges int64 half-plane test over derived milli-degree
    coordinates — no trigonometry, bit-exact, one streaming pass."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.geo import geo_polygon

    ds = rd.read_parquet(os.path.join(sf_dir, "customer.parquet"),
                         columns=["c_custkey", "c_acctbal"])
    return geo_polygon(ds, "c_custkey", "c_acctbal", _GEO_POLY)


def _geo_poly_pred() -> str:
    """The engine's per-edge cross-product conjunction as SQL text."""
    terms = []
    n = len(_GEO_POLY)
    for i in range(n):
        x1, y1 = _GEO_POLY[i]
        x2, y2 = _GEO_POLY[(i + 1) % n]
        terms.append(f"({x2 - x1}) * (la - ({y1})) - ({y2 - y1}) * (lo - ({x1})) >= 0")
    return "\n  AND ".join(terms)


def q_geo_centroid(sf_dir: str):
    """ES geo_centroid: integer milli-degree sums divided once at the
    end — exact, one streaming pass."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.geo import geo_centroid

    ds = rd.read_parquet(os.path.join(sf_dir, "customer.parquet"),
                         columns=["c_custkey"])
    return geo_centroid(ds, "c_custkey")


_GDA_RINGS = [2_000_000_000, 20_000_000_000, 80_000_000_000]  # d² bounds


def q_geo_distance_agg(sf_dir: str):
    """ES geo_distance aggregation (concentric ring buckets, from ≤ d <
    to): integer milli-degree d² digitize, ring-count-sized exchange."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.geo import geo_distance_agg

    ds = rd.read_parquet(os.path.join(sf_dir, "customer.parquet"),
                         columns=["c_custkey"])
    return geo_distance_agg(ds, "c_custkey", _GD_LAT, _GD_LON, _GDA_RINGS)


def q_geo_grid(sf_dir: str):
    """ES geohash_grid-style cell aggregation (equal-degree cells — the
    arithmetic-only grid, keeping every cell assignment bit-exact):
    top-10 cells by customer count."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.geo import geo_grid

    ds = rd.read_parquet(os.path.join(sf_dir, "customer.parquet"),
                         columns=["c_custkey"])
    return geo_grid(ds, "c_custkey", cell_deg=_GEO_CELL, size=_GEO_TOP)


FUZZY_RATIO_QUERIES = {
    "fr1": "join hash",     # transposed word order → token_sort wins
    "fr2": "tabel scan",    # in-word typo → plain ratio wins
    "fr3": "slow merge",
    "fr4": "spark the",
}
_FR_TOP = 5


def q_fuzzy_ratios(sf_dir: str):
    """The reference's rapidfuzz escalation tier
    (fuzzy_search_service.py:38-63): ratio + token_sort_ratio +
    token_set_ratio combined with the documented RATIO_WEIGHTS, scored
    against the corpus's distinct word-bigram phrases. Distribution
    shape: per-batch distinct-phrase partials → one phrase-keyed
    shuffle → broadcast queries score each phrase batch vectorized-ish
    (tiny query set × phrase batch) with per-batch top-k partials —
    the corpus itself never re-shuffles."""
    import ray.data as rd
    from ray.data.aggregate import Count

    from hybrid_sanctions_search_engine_ray.functions.fuzzy import weighted_ratio
    from hybrid_sanctions_search_engine_ray.sources.transcripts import transcripts_from_documents

    from hybrid_sanctions_search_engine_ray.config import AnalyzerConfig
    from hybrid_sanctions_search_engine_ray.stages.analyze import flat_terms

    _cfg = AnalyzerConfig()

    def phrases(b: pa.Table) -> pa.Table:
        parent, terms = flat_terms(b, _cfg)  # the analyzer's tokens
        if len(terms) < 2:
            return pa.table({"phrase": pa.array([], pa.string())})
        # vectorized adjacent-pair join (numpy str kernel), doc-boundary
        # masked — no per-token Python loop in this corpus-sized stage
        t = terms.to_numpy(zero_copy_only=False).astype(object)
        mask = parent[:-1] == parent[1:]
        pairs = np.char.add(np.char.add(t[:-1][mask].astype(str), " "),
                            t[1:][mask].astype(str))
        return pa.table({"phrase": pa.array(np.unique(pairs))})

    ph = (
        transcripts_from_documents(sf_dir)
        .map_batches(phrases, batch_format="pyarrow")
        .groupby("phrase")
        .aggregate(Count(alias_name="_n"))
        .select_columns(["phrase"])
    )

    def score(b: pa.Table) -> pa.Table:
        ps = b["phrase"].to_pylist()
        qids, phs, scs = [], [], []
        for qid, q in FUZZY_RATIO_QUERIES.items():
            sc = np.array([weighted_ratio(q, p) for p in ps])
            sc4 = _round4(sc)
            top = np.lexsort((np.array(ps, dtype=object), -sc4))[:_FR_TOP]
            qids.extend([qid] * top.size)
            phs.extend([ps[i] for i in top])
            scs.extend(sc4[top].tolist())
        return pa.table({"query_id": pa.array(qids, pa.string()),
                         "phrase": pa.array(phs, pa.string()),
                         "score": pa.array(scs, pa.float64())})

    parts = ph.map_batches(score, batch_format="pyarrow").to_pandas()
    parts = parts.sort_values(["query_id", "score", "phrase"],
                              ascending=[True, False, True], kind="mergesort")
    parts = parts.groupby("query_id", sort=True).head(_FR_TOP).reset_index(drop=True)
    parts["rank"] = parts.groupby("query_id").cumcount().to_numpy() + 1
    return pd.DataFrame({"query_id": parts["query_id"],
                         "rank": parts["rank"].astype(np.int32),
                         "phrase": parts["phrase"],
                         "score": parts["score"]})


TERMS_SET_QUERIES = {
    "ts1": "spark join filter",
    "ts2": "merge sort batch group",
    "ts3": "vector hash",
}


def q_terms_set(sf_dir: str):
    """ES terms_set query: minimum match count comes from each DOC's
    own field (minimum_should_match_field = turn_idx, clamped to
    [1, n_terms]) — late turns demand more of the query's terms. One
    concat+unique over posting lists per query, field via the docmap
    gather; survivors score as bool-should BM25."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.pipelines.search_features import terms_set_search

    index_dir = _ensure_index(sf_dir)
    qs = rd.from_items([{"query_id": qid, "query_text": t, "top_k": BM25_TOP_K * 4}
                        for qid, t in TERMS_SET_QUERIES.items()])
    return _rerank_topk(terms_set_search(qs, index_dir, "turn_idx", _engine_cfg()))


def _ts_qterms_values() -> str:
    rows = []
    for qid, text in TERMS_SET_QUERIES.items():
        for t in sorted(set(text.lower().split())):
            rows.append(f"('{qid}', '{t}')")
    return ", ".join(rows)


def _ts_nterms_values() -> str:
    return ", ".join(
        f"('{qid}', {len(set(text.lower().split()))})"
        for qid, text in TERMS_SET_QUERIES.items()
    )


_SBF_BG = "table"


def q_sig_terms_bgfilter(sf_dir: str):
    """ES significant_terms with background_filter: the background is
    the FILTER's matching set (docs containing 'table'), not the whole
    corpus, and the foreground ('spark window' matches) is intersected
    into it (background_is_superset). Rows outside the filter count to
    NEITHER frequency — the same single streaming scan, now with two
    broadcast membership tests."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.facets import significant_terms

    index_dir = _ensure_index(sf_dir)
    corpus = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                             columns=["doc_id", "text"])
    return significant_terms(index_dir, FACET_QUERY, corpus,
                             analyzer_cfg=_engine_cfg().analyzer,
                             top_n=10, min_fg=2,
                             background_query=_SBF_BG)


def q_dataset_card(sf_dir: str):
    """The dataset-card stats block a curation pipeline publishes with a
    corpus: doc/token/vocab/source cardinalities, exact-duplicate count
    (md5 of text — the exact_dedup rule), and mean doc length — every
    number exact. ONE tokenize pass feeds tokens+vocab partials; dup
    counts ride the md5 groupby; everything else is per-batch partials
    + scalar merges."""
    import hashlib as _hashlib

    import ray.data as rd
    from ray.data.aggregate import Count, Sum

    from hybrid_sanctions_search_engine_ray.config import AnalyzerConfig
    from hybrid_sanctions_search_engine_ray.sources.transcripts import transcripts_from_documents
    from hybrid_sanctions_search_engine_ray.stages.analyze import flat_terms

    cfg = AnalyzerConfig()
    ts = transcripts_from_documents(sf_dir)

    def tok_partial(b: pa.Table) -> pa.Table:
        parent, terms = flat_terms(b, cfg)
        g = pa.table({"term": terms}).group_by("term").aggregate([([], "count_all")])
        return pa.table({"term": g["term"],
                         "c_p": pc.cast(g["count_all"], pa.int64())})

    vocab = (
        ts.map_batches(tok_partial, batch_format="pyarrow")
        .groupby("term")
        .aggregate(Sum("c_p", alias_name="cf"))
        .to_pandas()  # vocabulary-sized, not corpus-sized
    )
    n_tokens = int(vocab["cf"].sum()) if len(vocab) else 0
    vocab_size = int(len(vocab))

    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["doc_id", "text", "source"])

    def dup_partial(b: pa.Table) -> pa.Table:
        h = [_hashlib.md5((t or "").encode("utf-8")).hexdigest()
             for t in b["text"].to_pylist()]
        g = pa.table({"h": pa.array(h), "src": b["source"]})
        gg = g.group_by("h").aggregate([([], "count_all")])
        s = g.group_by("src").aggregate([([], "count_all")])
        return pa.table({
            "key": pa.array(["h:" + x for x in gg["h"].to_pylist()]
                            + ["s:" + x for x in s["src"].to_pylist()]),
            "c_p": pa.concat_arrays([pc.cast(gg["count_all"], pa.int64()).combine_chunks(),
                                     pc.cast(s["count_all"], pa.int64()).combine_chunks()]),
        })

    keys = (
        docs.map_batches(dup_partial, batch_format="pyarrow")
        .groupby("key")
        .aggregate(Sum("c_p", alias_name="n"))
        .to_pandas()
    )
    hmask = keys["key"].str.startswith("h:")
    n_docs = int(keys.loc[hmask, "n"].sum())
    dup_docs = int((keys.loc[hmask, "n"] - 1).sum())  # extra copies beyond first
    n_sources = int((~hmask).sum())
    return pd.DataFrame({
        "n_docs": pd.Series([n_docs], dtype=np.int64),
        "n_tokens": pd.Series([n_tokens], dtype=np.int64),
        "vocab_size": pd.Series([vocab_size], dtype=np.int64),
        "n_sources": pd.Series([n_sources], dtype=np.int64),
        "exact_dup_docs": pd.Series([dup_docs], dtype=np.int64),
        "avg_doclen": [round(n_tokens / n_docs, 4) if n_docs else 0.0],
    })


_EMX_DIM = 16


def q_embed_exact(sf_dir: str):
    """Feature-hash embedding generation, exact-oracle: every coordinate
    of every document's unit vector checked against the SQL twin
    (md5-parity token hashes, UHUGEINT-replicated uint64 mix, signed
    bucket counts, one round4 L2 normalization) — the SQL-checkable
    upgrade of the rows-only embed_docs pipeline."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.sources.transcripts import transcripts_from_documents
    from hybrid_sanctions_search_engine_ray.stages.embeddings import embed_documents_exact

    return embed_documents_exact(transcripts_from_documents(sf_dir),
                                 dim=_EMX_DIM, analyzer_cfg=_engine_cfg().analyzer)


def q_snapshot_diff(sf_dir: str):
    """Incremental-backup changed-set (ES snapshot-diff analog): two
    snapshots of the live index compared partition-by-partition via the
    stored checksums — O(partitions) metadata reads, the primitive that
    lets a 100-TB backup re-ship only changed partitions. Rows-only
    check (pure manifest metadata, no SQL surface); the status logic is
    pytest-verified incl. changed/added/removed simulation."""
    from hybrid_sanctions_search_engine_ray.pipelines.maintenance import (
        snapshot_diff,
        snapshot_index,
    )

    index_dir = _ensure_index(sf_dir)
    tag = os.path.basename(os.path.normpath(sf_dir))
    a = f"/tmp/graft_idx_cache/snapdiff-{tag}-a"
    b = f"/tmp/graft_idx_cache/snapdiff-{tag}-b"
    for d in (a, b):
        if not os.path.exists(os.path.join(d, "snapshot.json")):
            shutil.rmtree(d, ignore_errors=True)
            snapshot_index(index_dir, d)
    return snapshot_diff(a, b)


_GD_LAT, _GD_LON, _GD_K = 45000, 10000, 10  # origin in milli-degrees


def q_geo_distance(sf_dir: str):
    """ES geo_distance sort, planar-but-EXACT: squared euclidean
    distance in integer milli-degrees (int64 end-to-end; haversine's
    sin/asin would put libm ulp into the sort key) — top-10 customers
    nearest the origin point."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.geo import geo_distance_topk

    ds = rd.read_parquet(os.path.join(sf_dir, "customer.parquet"),
                         columns=["c_custkey"])
    return geo_distance_topk(ds, "c_custkey", _GD_LAT, _GD_LON, k=_GD_K)


_GEO_COORDS_SQL = """
  SELECT c_custkey,
         ((c_custkey * 7919) % 180000) / 1000.0 - 90.0 AS lat,
         ((c_custkey * 104729) % 360000) / 1000.0 - 180.0 AS lon,
         c_acctbal
  FROM customer
"""


def _rff_qterms_values() -> str:
    rows = []
    for prefix in ("rflog_", "rfsig_"):
        for qid, text in BM25_QUERIES.items():
            for t in sorted(set(text.lower().split())):
                rows.append(f"('{prefix}{qid}', '{t}')")
    return ", ".join(rows)


_MAXSIM_Q, _MAXSIM_GROUP, _MAXSIM_K = 2, 8, 10


def q_maxsim(sf_dir: str):
    """Late-interaction maxsim retrieval (ColBERT scoring / ES
    rank_vectors shape): a conversation is a GROUP of its turns' vectors
    (vec_id // 8); score = Σ over 2 query vectors of the max cosine
    against any group member. Broadcast query matrix, per-batch matmul
    partial maxima, one groups×queries max-shuffle."""
    import pyarrow.parquet as _pq
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.similarity import maxsim_topk

    path = os.path.join(sf_dir, "embeddings.parquet")
    head = _pq.read_table(path, columns=["vec_id", "embedding"],
                          filters=[("vec_id", "<", _MAXSIM_Q)])
    q_ids = head["vec_id"].to_numpy(zero_copy_only=False)
    q_mat = np.stack(head["embedding"].to_pandas().to_numpy()).astype(np.float64)
    ds = rd.read_parquet(path, columns=["vec_id", "embedding"])
    return maxsim_topk(ds, q_ids.tolist(), q_mat, group_size=_MAXSIM_GROUP,
                       k=_MAXSIM_K)


SPARSE_VECTOR_QUERIES: dict[str, dict[str, int]] = {
    "sv1": {"spark": 3, "join": 2},
    "sv2": {"merge": 2, "batch": 2, "slow": 1},
    "sv3": {"vector": 3, "hash": 1},
    "sv4": {"customer": 2, "scan": 1},
}


def q_sparse_vector(sf_dir: str):
    """ES sparse_vector query (ELSER-style learned-sparse retrieval):
    {token: weight} query against per-doc sparse token weights (tf as
    the deterministic stand-in) — the score is an exact int64 dot
    product, rank (score desc, doc_id asc)."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.pipelines.search_features import sparse_vector_search

    index_dir = _ensure_index(sf_dir)
    qs = rd.from_items([{"query_id": qid, "top_k": BM25_TOP_K}
                        for qid in SPARSE_VECTOR_QUERIES])
    res = sparse_vector_search(qs, index_dir, SPARSE_VECTOR_QUERIES, _engine_cfg())

    def final(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["rank"] = b["rank"].astype(np.int32)
        b["score"] = b["score"].astype(np.int64)
        return b[["query_id", "rank", "doc_id", "score"]]

    return res.map_batches(final, batch_format="pandas")


def _sv_qterms_values() -> str:
    rows = []
    for qid, spec in SPARSE_VECTOR_QUERIES.items():
        for t in sorted(spec):
            rows.append(f"('{qid}', '{t}', {spec[t]})")
    return ", ".join(rows)


_QS_N = 25


def q_quality_sample(sf_dir: str):
    """Quality-weighted corpus sampling — the curation composition a
    training-data pipeline runs end-to-end: bigram-LM fluency (nll,
    quantized round4 so both sides share the weight bit-for-bit) →
    weight 1/nll (fluent docs systematically favored) → deterministic
    A-ES top-N (hash-uniform, membership a pure row property). One
    corpus scan for the LM signal, one vocabulary-sized shuffle, then
    per-batch top-N partials — the corpus never re-shuffles for the
    sample."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.lm_score import lm_score
    from hybrid_sanctions_search_engine_ray.stages.sampling import weighted_sample

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "text"])
    lm = lm_score(ds, k=0.5)

    def add_w(b: pa.Table) -> pa.Table:
        w = 1.0 / b["nll"].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table({"doc_id": b["doc_id"], "w": pa.array(w)})

    return weighted_sample(lm.map_batches(add_w, batch_format="pyarrow"),
                           "doc_id", "w", n=_QS_N, salt="-qs")


def q_span_containing(sf_dir: str):
    """ES span_containing: big (2-term ordered span_near) must enclose a
    little span_term occurrence; survivors score as the BIG span (BM25
    over the pair)."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.pipelines.search_features import span_contain_search

    index_dir = _ensure_index(sf_dir, positional=True)
    qs = rd.from_items([{**q, "top_k": BM25_TOP_K} for q in SPAN_CONTAIN_QUERIES])
    return _finish_scores(span_contain_search(qs, index_dir, "containing",
                                              _engine_cfg()))


def q_span_within(sf_dir: str):
    """ES span_within: the same enclosure predicate as span_containing
    but the LITTLE span emits — survivors score as the single little
    term (so the ranking differs from span_containing on the same
    match set)."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.pipelines.search_features import span_contain_search

    index_dir = _ensure_index(sf_dir, positional=True)
    qs = rd.from_items([{**q, "top_k": BM25_TOP_K} for q in SPAN_WITHIN_QUERIES])
    return _finish_scores(span_contain_search(qs, index_dir, "within",
                                              _engine_cfg()))


# nested query: per-nested-doc conjunction parameters
_NESTED_TYPE, _NESTED_LO, _NESTED_HI, _NESTED_MINCH = "purchase", 50.0, 200.0, 2
# nested terms agg + reverse_nested: value floor for the nested scope
_NESTED_AGG_MIN = 150.0


def q_geo_bounds(sf_dir: str):
    """ES geo_bounds agg: per event_type, the integer milli-degree
    bounding box of the derived points (ES top-left/bottom-right corner
    convention; stages/geo.geo_bounds_agg — keys-sized shuffle)."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.geo import geo_bounds_agg

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_type", "event_id"])
    return geo_bounds_agg(ds, "event_type", "event_id")


_INNER_HITS_M = 2


def q_collapse_inner(sf_dir: str):
    """ES collapse + inner_hits: conversations ranked by best turn
    (exactly the collapse_search ladder) and each top conversation
    carries its own top-M member turns with a restarting inner rank
    (search_features.CollapseInnerHitsScorer)."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.pipelines.search_features import (
        collapse_inner_hits_search,
    )

    index_dir = _ensure_index(sf_dir)
    qs = rd.from_items(
        [{"query_id": qid, "query_text": t, "top_k": BM25_TOP_K}
         for qid, t in BM25_QUERIES.items()]
    )
    return _finish_scores(collapse_inner_hits_search(
        qs, index_dir, key="conv_id", per_group=_INNER_HITS_M,
        cfg=_engine_cfg()))


def q_ngram_diversity(sf_dir: str):
    """Lexical-diversity profile per source (the dedup/curation
    effectiveness signal): token/type counts, TTR, within-doc word
    trigram counts and the distinct-trigram diversity ratio
    (stages/textops.ngram_diversity — distinct-pair exchange, raw rows
    never shuffle)."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.textops import ngram_diversity

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["text", "source"])
    return ngram_diversity(ds, "source", n=3)


_DSIR_N, _DSIR_B, _DSIR_TARGET_LANG = 50, 4096, "en"


def q_dsir_select(sf_dir: str):
    """DSIR importance resampling (Xie et al. 2023): top-N non-English
    docs whose hashed-unigram distribution is most English-like — the
    published hashed-bucket log-ratio weights with add-one smoothing,
    deterministic top-N selection (stages/dsir.dsir_select; two
    streaming passes, B-sized bucket shuffle + broadcast log-ratio
    scoring)."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.dsir import dsir_select

    def label(b: pa.Table) -> pa.Table:
        import pyarrow.compute as _pc
        return b.append_column(
            "is_target", _pc.equal(b["lang"], _DSIR_TARGET_LANG))

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "text", "lang"]) \
           .map_batches(label, batch_format="pyarrow")
    return dsir_select(ds, "is_target", n_select=_DSIR_N,
                       n_buckets=_DSIR_B)


_VWH_BUCKETS = 8


def q_variable_width_histogram(sf_dir: str):
    """ES variable_width_histogram (deterministic equal-depth
    instantiation — ES's own clusterer is documented order-dependent /
    approximate): K data-adaptive buckets over event value with exact
    cent-cut boundaries; per bucket count/min/max/mean
    (es_aggs.variable_width_histogram)."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.es_aggs import variable_width_histogram

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["value"])
    return variable_width_histogram(ds, "value", _VWH_BUCKETS)


_GEO_LINE_SIZE = 20


def q_geo_line(sf_dir: str):
    """ES geo_line agg: per user the ts-ordered track of derived
    milli-degree points, truncated at the size cap, rendered as a
    bit-exact "lonmd latmd;…" string (stages/geo.geo_line_agg —
    bounded partial-min-k exchange, ≤ groups × size point rows move)."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.geo import geo_line_agg

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["user_id", "ts", "event_id"])
    return geo_line_agg(ds, "user_id", "ts", "event_id",
                        size=_GEO_LINE_SIZE)


def q_nested_query(sf_dir: str):
    """ES nested query (min_children=2): users having >=2 events where
    event_type AND a value range hold on the SAME event row — the
    per-nested-doc conjunction flattened fields cannot express
    (stages/nested_docs.nested_query). Deterministic score analogs:
    matching-child count + exact-cents max/sum of matched values."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.nested_docs import nested_query

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["user_id", "event_type", "value"])
    return nested_query(ds, "user_id", "event_type", _NESTED_TYPE,
                        "value", _NESTED_LO, _NESTED_HI,
                        min_children=_NESTED_MINCH)


def q_nested_agg(sf_dir: str):
    """ES nested terms agg + reverse_nested: among events with
    value >= floor, per event_type report the nested doc_count AND the
    distinct-parent (user) count — the canonical nested/reverse_nested
    pairing (stages/nested_docs.nested_terms_agg)."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.nested_docs import nested_terms_agg

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["user_id", "event_type", "value"])
    return nested_terms_agg(ds, "user_id", "event_type", "value",
                            _NESTED_AGG_MIN)


# ip_range bucket boundaries (uint32, from-inclusive / to-exclusive)
_IP_RANGES = [(None, 0x40000000), (0x40000000, 0xC0000000), (0xC0000000, None)]
_IP_PREFIX_LEN, _IP_PREFIX_TOP = 8, 10


def q_ip_range(sf_dir: str):
    """ES ip_range agg over derived deterministic IPv4s (Knuth
    multiplicative hash of event_id — stages/ip.derive_ip): doc counts
    per [from, to) range, open ends allowed."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.ip import ip_range_agg

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_id"])
    return ip_range_agg(ds, "event_id", _IP_RANGES)


def q_ip_prefix(sf_dir: str):
    """ES ip_prefix agg (/8) over the same derived IPv4s: top subnets by
    doc count, dotted "a.0.0.0/8" keys (stages/ip.ip_prefix_agg)."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.ip import ip_prefix_agg

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_id"])
    return ip_prefix_agg(ds, "event_id", prefix_len=_IP_PREFIX_LEN,
                         size=_IP_PREFIX_TOP)


_NB_B = 4096


def q_nb_classify(sf_dir: str):
    """Distributed multinomial Naive Bayes language classifier (the
    count-based ancestor of the fastText-style corpus-curation
    classifiers): train on doc_id %% 5 != 0, score the held-out fifth.
    (The synthetic corpus's lang label is text-independent, so
    predictions here sit at the majority prior — the gate verifies the
    exact distributed train+score computation; learnability is covered
    by tests/test_nb_classify.py's separable-corpus case.)
    Hashed-unigram features (md5_number_upper %% B, the DSIR-shared SQL
    contract), add-one smoothing, and an int64 ×10⁴ log-prob table so
    per-doc scores are INTEGER sums — argmax deterministic with no
    float comparison (stages/nb_classify.nb_train_score; one C×B-row
    train shuffle + one broadcast scoring pass).

    Round-4 root cause of the r03 driver hash-red: DuckDB ``sum(BIGINT)``
    widens to HUGEINT, so the twin's ``score_x1e4`` came back to pandas
    as float64 while this side emits int64 — values identical, dtypes
    not, and the driver's value hash is dtype-sensitive (the local
    checker's ``np.isclose`` float branch masked it). Fixed by casting
    the twin's final score to BIGINT, emitting this side sorted by
    doc_id with pinned dtypes, and adding a dtype-parity audit to
    tools/check_oracle.py (see tools/README_nb_classify_rootcause.md)."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.nb_classify import nb_train_score

    def split(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        return b.append_column("is_test", pa.array(ids % 5 == 0))

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "text", "lang"]) \
           .map_batches(split, batch_format="pyarrow")
    return nb_train_score(ds, "lang", "is_test", n_buckets=_NB_B).sort("doc_id")


_EQL_STEPS = ["signup", "purchase", "error"]
_EQL_MAXSPAN_S = 172800  # 48 h


def q_eql_sequence(sf_dir: str):
    """ES EQL `sequence by user_id with maxspan=48h [signup] [purchase]
    [error]` — earliest-follower deterministic chaining (documented
    non-consuming simplification of ES's state machine), one key
    shuffle with per-group vectorized searchsorted hops, candidate rows
    pre-filtered before the shuffle (stages/eql.eql_sequence).
    Reference analog: the ES EQL search API the service's cluster
    exposes; no Python-layer counterpart in the reference repo."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.eql import eql_sequence

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["user_id", "event_id", "ts", "event_type"])
    res = eql_sequence(ds, _EQL_STEPS, maxspan_s=_EQL_MAXSPAN_S)

    def final(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        for c in ("user_id", "e1_id", "e2_id", "e3_id", "start_us", "end_us", "span_us"):
            b[c] = b[c].astype(np.int64)
        return b

    return res.map_batches(final, batch_format="pandas")


def q_sft_pairs(sf_dir: str):
    """Single-turn SFT pair extraction from the transcript stream: every
    assistant turn directly preceded (turn_idx − 1, same conv) by a user
    turn → (prompt, response). One coarse conv-bucket shuffle, all
    pairing vectorized (stages/chatprep.sft_pairs)."""
    from hybrid_sanctions_search_engine_ray.sources.transcripts import transcripts_from_documents
    from hybrid_sanctions_search_engine_ray.stages.chatprep import sft_pairs

    return sft_pairs(transcripts_from_documents(sf_dir))


def q_sft_examples(sf_dir: str):
    """Multi-turn SFT example expansion: every assistant turn with ≥1
    preceding turn → (context = full rendered history, target). Context
    strings assembled with ONE pyarrow binary_join over an offset-built
    ListArray — no per-conversation Python (stages/chatprep.sft_examples)."""
    from hybrid_sanctions_search_engine_ray.sources.transcripts import transcripts_from_documents
    from hybrid_sanctions_search_engine_ray.stages.chatprep import sft_examples

    return sft_examples(transcripts_from_documents(sf_dir))


def q_chat_render(sf_dir: str):
    """Chat-template flattening: one training document per conversation,
    turns rendered ``<|role|>text`` newline-joined in turn order
    (stages/chatprep.chat_render). SQL twin: string_agg ORDER BY."""
    from hybrid_sanctions_search_engine_ray.sources.transcripts import transcripts_from_documents
    from hybrid_sanctions_search_engine_ray.stages.chatprep import chat_render

    return chat_render(transcripts_from_documents(sf_dir))


def q_chat_lint(sf_dir: str):
    """Per-conversation structural lint for chat corpora: role counts,
    first/last role, empty turns, adjacent same-role violations,
    alternation flag (stages/chatprep.chat_lint)."""
    from hybrid_sanctions_search_engine_ray.sources.transcripts import transcripts_from_documents
    from hybrid_sanctions_search_engine_ray.stages.chatprep import chat_lint

    return chat_lint(transcripts_from_documents(sf_dir))


def q_fim_split(sf_dir: str):
    """Fill-in-the-middle transform (Bavarian et al. 2022): deterministic
    md5-derived split points, PSM rendering — zero-exchange map stage
    (stages/textops.fim_split); split arithmetic is md5_number_upper-
    parity so the twin is exact including the slices."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.textops import fim_split

    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["doc_id", "text"])
    return docs.map_batches(fim_split, batch_format="pyarrow")


_GP_DIST = 6000  # milli-degrees; cell size == radius (one-ring coverage)
_CM_DEPTH, _CM_WIDTH = 4, 2048
_CM_TERMS = ["the", "payment", "и", "done", "tok00042", "tok00777",
             "zzznotaterm"]


def q_geo_pairs(sf_dir: str):
    """Spatial distance self-join: all point pairs within 6° (planar
    integer milli-degrees) via grid-bucket + neighbor-cell replication —
    the bounded-fan-out spatial-join shuffle pattern; never an all-pairs
    exchange (stages/geo.geo_pairs). Exact brute self-join twin."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.geo import geo_pairs

    cust = rd.read_parquet(os.path.join(sf_dir, "customer.parquet"),
                           columns=["c_custkey"])
    out = geo_pairs(cust, "c_custkey", max_dist_milli=_GP_DIST).to_pandas()
    if "key_a" not in out.columns:  # all-cells-empty Dataset loses schema
        out = pd.DataFrame({"key_a": pd.Series([], dtype=np.int64),
                            "key_b": pd.Series([], dtype=np.int64),
                            "d2": pd.Series([], dtype=np.int64)})
    return out


def q_cm_sketch(sf_dir: str):
    """Count-Min sketch term-frequency estimates for a fixed probe set:
    per-batch d×W partials → ONE bounded (row,bucket) exchange; the
    md5-parity salted hash family makes the estimate — collisions
    included — exactly SQL-twinnable (stages/sketch_ops.cm_sketch_counts).
    Completes the sketch family beside SpaceSaving/HLL/KLL."""
    from hybrid_sanctions_search_engine_ray.sources.transcripts import transcripts_from_documents
    from hybrid_sanctions_search_engine_ray.stages.sketch_ops import cm_sketch_counts

    from hybrid_sanctions_search_engine_ray.config import AnalyzerConfig

    return cm_sketch_counts(transcripts_from_documents(sf_dir),
                            AnalyzerConfig(mode="simple"),
                            _CM_TERMS, depth=_CM_DEPTH, width=_CM_WIDTH)


_WM_DELAY_S = 1_209_600  # 14 days: ~half the ~30-day event span → both classes


def q_watermark(sf_dir: str):
    """Streaming watermark / allowed-lateness accounting (Beam/Flink
    semantics): replay events in a deterministic Lehmer-permutation
    arrival order (pure BIGINT arithmetic, shared with the twin),
    watermark = max event time seen − delay, per tumbling day count
    on-time vs late arrivals — a distributed PREFIX MAX on the pack_bins
    range-carry pattern, two streaming passes, nothing materialized
    (stages/windows.watermark_lateness)."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.windows import watermark_lateness

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_id", "ts"])
    return watermark_lateness(ev, delay_s=_WM_DELAY_S)


_SKEWJ_HOT = 70  # events/user threshold: some users hot, some cold, at every sf


def q_skew_join(sf_dir: str):
    """Skew-aware large×large join (the 'salt hot keys' pattern as an
    operator): events ⋈ per-user totals on user_id; exact left counts
    route hot users through a broadcast path (their rows never enter the
    shuffle) and cold users through the bucketed hash join — row-identical
    to a plain join (stages/joins.skew_join). Both paths engage at every
    scale (~67 events/user, max ~99, threshold 70)."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from hybrid_sanctions_search_engine_ray.stages.joins import skew_join

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_id", "user_id"])

    def partial(b: pa.Table) -> pa.Table:
        g = pa.table({"user_id": b["user_id"]}).group_by("user_id").aggregate(
            [([], "count_all")])
        return pa.table({"user_id": g["user_id"],
                         "n_p": g["count_all"].cast(pa.int64())})

    totals = (ev.map_batches(partial, batch_format="pyarrow")
              .groupby("user_id").aggregate(Sum("n_p", alias_name="n_user_events")))
    joined = skew_join(ev, totals, on="user_id", hot_threshold=_SKEWJ_HOT)

    def final(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "event_id": b["event_id"].astype(np.int64),
            "user_id": b["user_id"].astype(np.int64),
            "n_user_events": b["n_user_events"].astype(np.int64),
        })

    return joined.map_batches(final, batch_format="pandas")


_CONV_SPLITS = {"train": 80, "val": 10, "test": 10}


def q_conv_split(sf_dir: str):
    """Leakage-safe train/val/test split of the CHAT corpus: assignment
    is a pure md5 property of conv_id (not doc_id), so a conversation's
    turns can never straddle splits — the conversation-level analog of
    dataset_split, preventing multi-turn leakage between train and
    eval. Output verifies the guarantee FROM THE DATA: n_leaked counts
    conversations observed under more than one split (must be 0).
    One streaming assignment pass + conv-sized aggs."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from hybrid_sanctions_search_engine_ray.sources.transcripts import transcripts_from_documents
    from hybrid_sanctions_search_engine_ray.stages.sampling import dataset_split

    ts = transcripts_from_documents(sf_dir)
    tagged = dataset_split(ts, "conv_id", _CONV_SPLITS, salt="-cs")

    def partial(b: pa.Table) -> pa.Table:
        t = pa.table({"split": b["split"], "conv_id": b["conv_id"]})
        g = t.group_by(["split", "conv_id"]).aggregate([([], "count_all")])
        return pa.table({"split": g["split"], "conv_id": g["conv_id"],
                         "n_p": g["count_all"].cast(pa.int64())})

    per_conv = (
        tagged.map_batches(partial, batch_format="pyarrow")
        .groupby(["split", "conv_id"])
        .aggregate(Sum("n_p", alias_name="n_turns"))
        .to_pandas()
    )
    leaked = int((per_conv.groupby("conv_id")["split"].nunique() > 1).sum())
    out = (per_conv.groupby("split", sort=True)
           .agg(n_convs=("conv_id", "nunique"), n_turns=("n_turns", "sum"))
           .reset_index())
    out["n_convs"] = out["n_convs"].astype(np.int64)
    out["n_turns"] = out["n_turns"].astype(np.int64)
    out["n_leaked"] = np.int64(leaked)
    return out


_LP_K, _LP_ITER, _LP_SEED_MOD = 5, 3, 5


def q_label_prop(sf_dir: str):
    """Semi-supervised label propagation over the cosine kNN graph:
    20% clamped seeds, synchronous majority-vote iterations, integer
    votes only (stages/similarity.label_propagation). Exact twin: the
    same kNN rank CTE + one vote/argmax CTE pair per iteration."""
    from hybrid_sanctions_search_engine_ray.stages.similarity import label_propagation

    return label_propagation(os.path.join(sf_dir, "embeddings.parquet"),
                             k=_LP_K, n_iter=_LP_ITER, seed_mod=_LP_SEED_MOD)


def q_psi_drift(sf_dir: str):
    """Population Stability Index drift monitor: reference-half exact
    integer-cents deciles, both halves histogrammed on those cuts,
    per-bin (p−q)·ln(p/q) + PSI total — the training-serving drift gate
    (stages/quantiles.psi_drift)."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.quantiles import psi_drift

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["value", "ts"])
    return psi_drift(ev, "value", "ts", n_bins=10)


def q_zipf_fit(sf_dir: str):
    """Zipf-law OLS fit of ln(count) on ln(rank) for terms with
    count ≥ 5 — the corpus-health diagnostic
    (stages/textops.zipf_fit)."""
    from hybrid_sanctions_search_engine_ray.config import AnalyzerConfig
    from hybrid_sanctions_search_engine_ray.sources.transcripts import transcripts_from_documents
    from hybrid_sanctions_search_engine_ray.stages.textops import zipf_fit

    return zipf_fit(transcripts_from_documents(sf_dir),
                    AnalyzerConfig(mode="simple"), min_count=5)


def q_vocab_entropy(sf_dir: str):
    """Shannon entropy (bits) + unigram perplexity of the term
    distribution (stages/textops.vocab_entropy)."""
    from hybrid_sanctions_search_engine_ray.config import AnalyzerConfig
    from hybrid_sanctions_search_engine_ray.sources.transcripts import transcripts_from_documents
    from hybrid_sanctions_search_engine_ray.stages.textops import vocab_entropy

    return vocab_entropy(transcripts_from_documents(sf_dir),
                         AnalyzerConfig(mode="simple"))


_LDIV_LS = [2, 3]


def q_l_diversity(sf_dir: str):
    """l-diversity audit (Machanavajjhala et al. 2007): classes of the
    source quasi-identifier with < l distinct lang values leak the
    sensitive attribute even when k-anonymous
    (stages/validate.l_diversity_audit)."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.validate import l_diversity_audit

    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["lang", "source"])
    return l_diversity_audit(docs, ["source"], "lang", _LDIV_LS)


def q_benford(sf_dir: str):
    """Benford first-digit audit on the monetary column: leading digit
    of integer cents (no float log10 in the digit path) vs the Benford
    expectation with per-digit chi-square terms
    (stages/es_aggs.benford_audit)."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.es_aggs import benford_audit

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["value"])
    return benford_audit(ev)


def q_vocab_gini(sf_dir: str):
    """Gini coefficient of the term-frequency distribution — the
    Zipf-skew inequality summary (stages/textops.vocab_gini)."""
    from hybrid_sanctions_search_engine_ray.config import AnalyzerConfig
    from hybrid_sanctions_search_engine_ray.sources.transcripts import transcripts_from_documents
    from hybrid_sanctions_search_engine_ray.stages.textops import vocab_gini

    return vocab_gini(transcripts_from_documents(sf_dir),
                      AnalyzerConfig(mode="simple"))


_KANON_KS = [2, 5, 10]


def q_k_anonymity(sf_dir: str):
    """k-anonymity audit (Sweeney 2002) on the (lang, source) quasi-
    identifier: classes below k are re-identifiable — the governance
    gate complementing content-level PII redaction
    (stages/validate.k_anonymity_audit)."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.validate import k_anonymity_audit

    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["lang", "source"])
    return k_anonymity_audit(docs, ["lang", "source"], _KANON_KS)


_CONT_MIN = 0.05


def q_containment_pairs(sf_dir: str):
    """Broder containment (the asymmetric companion to Jaccard): for
    the same doc-prefix pair set, cont = |A∩B|/min-side size — detects a
    short doc embedded in a long one, which resemblance dilutes
    (stages/dedup.containment_verify)."""
    import itertools

    import pyarrow.parquet as pq

    from hybrid_sanctions_search_engine_ray.stages.dedup import containment_verify

    docs = pq.read_table(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text"],
        filters=[("doc_id", "<", _JACCARD_DOCS)],
    )
    texts = dict(zip(docs["doc_id"].to_pylist(), docs["text"].to_pylist()))
    ids = sorted(texts)
    pairs = pd.DataFrame(
        [(a, b) for a, b in itertools.combinations(ids, 2)],
        columns=["doc_a", "doc_b"])
    out = containment_verify(pairs, texts, shingle_k=3)
    out = out[out["containment"] >= _CONT_MIN].reset_index(drop=True)
    return pd.DataFrame({
        "doc_a": out["doc_a"].astype(np.int64),
        "doc_b": out["doc_b"].astype(np.int64),
        "cont_a": out["cont_a"].astype(float),
        "cont_b": out["cont_b"].astype(float),
        "containment": out["containment"].astype(float),
    })


def q_cdc_chunks(sf_dir: str):
    """Content-defined chunking (LBFS/restic Rabin split): polynomial
    rolling-hash boundaries (8-codepoint window, H%64==0), cross-doc
    distinct-chunk dedup count — the dedup-STORAGE primitive
    (stages/dedup.cdc_chunk_stats). Exact twin: the 8-term hash as a
    literal SQL expression over generate_series positions."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.dedup import cdc_chunk_stats

    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["doc_id", "text"])
    return cdc_chunk_stats(docs)


def q_term_dispersion(sf_dir: str):
    """Term burstiness (Church & Gale): index of dispersion of per-doc
    tf over containing docs, integer sufficient statistics, top 20 with
    df ≥ 50 — the topical-vs-function-word separation signal
    (stages/textops.term_dispersion)."""
    from hybrid_sanctions_search_engine_ray.config import AnalyzerConfig
    from hybrid_sanctions_search_engine_ray.sources.transcripts import transcripts_from_documents
    from hybrid_sanctions_search_engine_ray.stages.textops import term_dispersion

    return term_dispersion(transcripts_from_documents(sf_dir),
                           AnalyzerConfig(mode="simple"), min_df=50, top_n=20)


_SFTDS_BUDGET = 512


def q_sft_dataset(sf_dir: str):
    """The full SFT assembly line composed end-to-end: chat_render
    (conv → template string) → analyzer token counts → distributed-
    prefix-sum packing into ≈512-token training packs
    (stages/chatprep.chat_render + pack_conversations). The oracle
    re-derives the rendered strings, their token counts AND the pack
    assignment in SQL, so the whole composition is value-checked."""
    from hybrid_sanctions_search_engine_ray.sources.transcripts import transcripts_from_documents
    from hybrid_sanctions_search_engine_ray.stages.chatprep import (
        chat_render,
        pack_conversations,
    )

    rendered = chat_render(transcripts_from_documents(sf_dir))
    return pack_conversations(rendered, budget=_SFTDS_BUDGET)


def q_pmi_bigrams(sf_dir: str):
    """PMI collocation extraction (Church & Hanks 1990): top ordered
    term bigrams by ln(N·c(u,v)/(c_left(u)·c_right(v))), min count 5 —
    the multi-word-unit / tokenizer-vocab-curation signal; one directed
    adjacency shuffle + broadcast marginals
    (stages/textrank.pmi_bigrams)."""
    from hybrid_sanctions_search_engine_ray.sources.transcripts import transcripts_from_documents
    from hybrid_sanctions_search_engine_ray.stages.textrank import pmi_bigrams

    return pmi_bigrams(transcripts_from_documents(sf_dir), min_count=5, top_n=20)


def q_csv_roundtrip(sf_dir: str):
    """CSV sink + source round-trip (§2.1 format coverage): write the
    events table as sharded CSV with ray.data.write_csv, read it back
    with read_csv, aggregate FROM THE READ-BACK — the oracle twin runs
    on the original parquet, so CSV serialization fidelity (timestamps,
    floats-as-cents, quoting) is what's being checked."""
    import shutil as _sh

    import pyarrow.compute as _pc
    import ray.data as rd
    from ray.data.aggregate import Sum

    tag = os.path.basename(os.path.normpath(sf_dir))
    out = f"/tmp/graft_csv/{tag}"
    _sh.rmtree(out, ignore_errors=True)
    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_id", "ts", "event_type", "value"])
    ev.write_csv(out)

    back = rd.read_csv(out)

    def partial(b: pa.Table) -> pa.Table:
        cents = _pc.round(_pc.multiply(b["value"], 100)).cast(pa.int64())
        day = _pc.divide(_pc.cast(_pc.cast(b["ts"], pa.timestamp("us")), pa.int64()),
                         86_400_000_000)
        t = pa.table({"event_type": b["event_type"], "day": day, "cents": cents})
        g = t.group_by(["event_type", "day"]).aggregate(
            [([], "count_all"), ("cents", "sum")])
        return pa.table({"event_type": g["event_type"], "day": g["day"],
                         "n_p": g["count_all"].cast(pa.int64()),
                         "c_p": g["cents_sum"].cast(pa.int64())})

    agg = (back.map_batches(partial, batch_format="pyarrow")
           .groupby(["event_type", "day"])
           .aggregate(Sum("n_p", alias_name="n_events"),
                      Sum("c_p", alias_name="sum_cents")))

    def final(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "event_type": b["event_type"],
            "day": b["day"].astype(np.int64),
            "n_events": b["n_events"].astype(np.int64),
            "value_sum": (b["sum_cents"].to_numpy(np.int64) / 100.0).round(2),
        })

    return agg.map_batches(final, batch_format="pandas")


_WDS_PER_SHARD = 100


def q_wds_export(sf_dir: str):
    """WebDataset tar-shard export round-trip: write shard-%06d.tar
    files (deterministic key-derived sharding, resumable per shard),
    READ THEM BACK, and aggregate per shard — the verified path runs
    through the tar bytes, so the oracle checks the sink end-to-end
    (sources/webdataset.py)."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from hybrid_sanctions_search_engine_ray.sources.webdataset import (
        export_webdataset,
        read_webdataset,
    )

    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["doc_id", "text"])
    tag = os.path.basename(os.path.normpath(sf_dir))
    out = f"/tmp/graft_wds/{tag}"
    export_webdataset(docs, out, samples_per_shard=_WDS_PER_SHARD)

    def partial(b: pa.Table) -> pa.Table:
        import pyarrow.compute as _pc

        sh = _pc.divide(b["doc_id"], _WDS_PER_SHARD)
        t = pa.table({"shard": sh, "chars": _pc.utf8_length(b["text"])})
        g = t.group_by("shard").aggregate([([], "count_all"), ("chars", "sum")])
        return pa.table({"shard": g["shard"].cast(pa.int64()),
                         "n_p": g["count_all"].cast(pa.int64()),
                         "ch_p": g["chars_sum"].cast(pa.int64())})

    return (
        read_webdataset(out)
        .map_batches(partial, batch_format="pyarrow")
        .groupby("shard")
        .aggregate(Sum("n_p", alias_name="n_samples"),
                   Sum("ch_p", alias_name="n_chars"))
    )


def q_role_transitions(sf_dir: str):
    """Conversation role-transition matrix (the Markov structure
    summary of a chat corpus): counts and row-normalized probabilities
    of role_i → role_{i+1} within conversations — reuses the chatprep
    bucket exchange with a vectorized shifted compare."""
    from ray.data.aggregate import Sum

    from hybrid_sanctions_search_engine_ray.sources.transcripts import transcripts_from_documents
    from hybrid_sanctions_search_engine_ray.stages.chatprep import (
        _sorted_runs,
        _with_bucket,
    )

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) == 0:
            return pd.DataFrame({"from_role": pd.Series([], dtype=object),
                                 "to_role": pd.Series([], dtype=object),
                                 "c_p": pd.Series([], dtype=np.int64)})
        order, c, _ = _sorted_runs(g)
        turn = g["turn_idx"].to_numpy().astype(np.int64)[order]
        role = g["role"].to_numpy()[order]
        ok = (c[1:] == c[:-1]) & (turn[1:] == turn[:-1] + 1)
        at = np.flatnonzero(ok)
        df = pd.DataFrame({"from_role": role[at], "to_role": role[at + 1]})
        out = df.groupby(["from_role", "to_role"], sort=False).size().reset_index(
            name="c_p")
        out["c_p"] = out["c_p"].astype(np.int64)
        return out

    agg = (
        _with_bucket(transcripts_from_documents(sf_dir), 256,
                     ["conv_id", "turn_idx", "role", "text"])
        .groupby("bucket")
        .map_groups(pairs, batch_format="pandas")
        .groupby(["from_role", "to_role"])
        .aggregate(Sum("c_p", alias_name="n"))
        .to_pandas()
    )
    tot = agg.groupby("from_role")["n"].transform("sum").to_numpy(np.int64)
    n = agg["n"].to_numpy(np.int64)
    agg["n"] = n
    agg["p"] = np.floor(n / tot * 1e4 + 0.5) / 1e4
    return agg.sort_values(["from_role", "to_role"],
                           kind="mergesort").reset_index(drop=True)


def q_ngram_novelty(sf_dir: str):
    """Train/val n-gram novelty (the memorization/generalization audit
    run after a split): fraction of the val split's DISTINCT word
    3-grams never seen in train — low novelty means eval text is
    recoverable from training data even with conversation-level
    splitting. Uses the conv_split assignment; one shingle scan →
    per-batch distinct (gram, split) partials → ONE gram-keyed
    exchange with two boolean max-flags."""
    import pyarrow.compute as _pc
    import ray.data as rd
    from ray.data.aggregate import Max

    from hybrid_sanctions_search_engine_ray.sources.transcripts import transcripts_from_documents
    from hybrid_sanctions_search_engine_ray.stages.analyze import flat_terms
    from hybrid_sanctions_search_engine_ray.stages.sampling import dataset_split

    cfg = _engine_cfg().analyzer
    tagged = dataset_split(transcripts_from_documents(sf_dir), "conv_id",
                           _CONV_SPLITS, salt="-cs")

    def grams(b: pa.Table) -> pa.Table:
        parent, terms = flat_terms(b, cfg)
        empty = pa.table({"gram": pa.array([], pa.string()),
                          "tr_p": pa.array([], pa.int64()),
                          "va_p": pa.array([], pa.int64())})
        if parent.size < 3:
            return empty
        t = terms.combine_chunks() if isinstance(terms, pa.ChunkedArray) else terms
        n = len(t) - 2
        ok = (parent[:n] == parent[2:]) if n > 0 else np.empty(0, bool)
        at = np.flatnonzero(ok)
        if at.size == 0:
            return empty
        g3 = _pc.binary_join_element_wise(
            t.take(pa.array(at, pa.int64())),
            t.take(pa.array(at + 1, pa.int64())),
            t.take(pa.array(at + 2, pa.int64())), " ")
        split = b["split"].to_numpy(zero_copy_only=False)[parent[at]]
        tt = pa.table({"gram": g3,
                       "tr_p": pa.array((split == "train").astype(np.int64)),
                       "va_p": pa.array((split == "val").astype(np.int64))})
        gg = tt.group_by("gram").aggregate([("tr_p", "max"), ("va_p", "max")])
        return pa.table({"gram": gg["gram"],
                         "tr_p": gg["tr_p_max"].cast(pa.int64()),
                         "va_p": gg["va_p_max"].cast(pa.int64())})

    agg = (tagged.map_batches(grams, batch_format="pyarrow")
           .groupby("gram")
           .aggregate(Max("tr_p", alias_name="tr"), Max("va_p", alias_name="va"))
           .to_pandas())
    va = agg["va"].to_numpy(np.int64) == 1
    tr = agg["tr"].to_numpy(np.int64) == 1
    n_val = int(va.sum())
    n_shared = int((va & tr).sum())
    r4 = lambda x: float(np.floor(x * 1e4 + 0.5) / 1e4)  # noqa: E731
    nov = 0.0 if n_val == 0 else r4((n_val - n_shared) / n_val)
    return pd.DataFrame({"n_val_grams": [np.int64(n_val)],
                         "n_shared": [np.int64(n_shared)],
                         "novelty_frac": [nov]})


_ABL_LO, _ABL_HI = 100, 2000  # the cheap doc-quality rule for the ablation


def q_source_ablation(sf_dir: str):
    """Leave-one-source-out data valuation: each source's influence on
    corpus statistics computed ALGEBRAICALLY from per-source sufficient
    sums (total − source partials — no per-source re-scan, one
    sources-sized exchange): mean chars and a length-rule pass rate
    without each source, plus the deltas vs the full corpus."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["source", "n_chars"])

    def partial(b: pa.Table) -> pa.Table:
        import pyarrow.compute as _pc

        ok = _pc.and_(_pc.greater_equal(b["n_chars"], _ABL_LO),
                      _pc.less_equal(b["n_chars"], _ABL_HI))
        t = pa.table({"source": b["source"], "chars": b["n_chars"],
                      "ok": _pc.cast(ok, pa.int64())})
        g = t.group_by("source").aggregate(
            [([], "count_all"), ("chars", "sum"), ("ok", "sum")])
        return pa.table({"source": g["source"],
                         "n_p": g["count_all"].cast(pa.int64()),
                         "ch_p": g["chars_sum"].cast(pa.int64()),
                         "ok_p": g["ok_sum"].cast(pa.int64())})

    per = (docs.map_batches(partial, batch_format="pyarrow")
           .groupby("source")
           .aggregate(Sum("n_p", alias_name="n"),
                      Sum("ch_p", alias_name="ch"),
                      Sum("ok_p", alias_name="ok"))
           .to_pandas())
    N, CH, OK = (int(per["n"].sum()), int(per["ch"].sum()), int(per["ok"].sum()))
    r4 = lambda x: np.sign(x) * np.floor(np.abs(x) * 1e4 + 0.5) / 1e4  # noqa: E731
    n = per["n"].to_numpy(np.int64)
    ch = per["ch"].to_numpy(np.int64)
    ok = per["ok"].to_numpy(np.int64)
    mean_full = CH / N
    pass_full = OK / N
    mean_wo = (CH - ch) / (N - n)
    pass_wo = (OK - ok) / (N - n)
    out = pd.DataFrame({
        "source": per["source"],
        "n_docs": n,
        "mean_chars_without": r4(mean_wo),
        "delta_mean_chars": r4(mean_wo - mean_full),
        "pass_rate_without": r4(pass_wo),
        "delta_pass_rate": r4(pass_wo - pass_full),
    })
    return out.sort_values("source", kind="mergesort").reset_index(drop=True)


_PPR_SEEDS = ["join", "merge"]


def q_ppr_related(sf_dir: str):
    """Topic-sensitive PageRank (Haveliwala 2002): restart mass only on
    the seed terms → vocabulary ranked by topical proximity — the
    related-term expansion primitive on the TextRank integer contract
    (stages/textrank.personalized_pagerank)."""
    from hybrid_sanctions_search_engine_ray.sources.transcripts import transcripts_from_documents
    from hybrid_sanctions_search_engine_ray.stages.textrank import personalized_pagerank

    return personalized_pagerank(transcripts_from_documents(sf_dir),
                                 _PPR_SEEDS, n_iter=4, top_n=20)


def q_hits(sf_dir: str):
    """HITS hubs & authorities (Kleinberg 1999) over the DIRECTED
    word-adjacency graph — all-integer re-normalized iterations on the
    TextRank broadcast-scores loop (stages/textrank.hits_scores);
    completes the link-analysis trio (PageRank / HITS / components)."""
    from hybrid_sanctions_search_engine_ray.sources.transcripts import transcripts_from_documents
    from hybrid_sanctions_search_engine_ray.stages.textrank import hits_scores

    return hits_scores(transcripts_from_documents(sf_dir), n_iter=2, top_n=10)


def q_triangles(sf_dir: str):
    """Distributed triangle counting (Suri & Vassilvitskii 2011) over
    the word-adjacency graph: degree-orientation bounds wedge fan-out
    (the hub-skew defence), coarse-bucket wedge + close exchanges, all
    integer — exact a<b<c self-join twin (stages/graph.triangle_stats)."""
    from hybrid_sanctions_search_engine_ray.sources.transcripts import transcripts_from_documents
    from hybrid_sanctions_search_engine_ray.stages.graph import triangle_stats

    return triangle_stats(transcripts_from_documents(sf_dir))


def q_loss_mask_spans(sf_dir: str):
    """Assistant-only loss-mask char spans inside each conversation's
    chat_render string (train-on-assistant-tokens masking companion op;
    stages/chatprep.loss_mask_spans). SQL twin: windowed piece-length sum."""
    from hybrid_sanctions_search_engine_ray.sources.transcripts import transcripts_from_documents
    from hybrid_sanctions_search_engine_ray.stages.chatprep import loss_mask_spans

    return loss_mask_spans(transcripts_from_documents(sf_dir))


def q_textrank(sf_dir: str):
    """TextRank keyword extraction (Mihalcea & Tarau 2004): integer-
    arithmetic PageRank over the corpus word-adjacency graph — one
    corpus tokenize pass into a bigram-vocab edge shuffle, then K=4
    broadcast-rank iterations touching only edges
    (stages/textrank.textrank_keywords). Exact BIGINT SQL twin (one CTE
    per iteration)."""
    from hybrid_sanctions_search_engine_ray.sources.transcripts import transcripts_from_documents
    from hybrid_sanctions_search_engine_ray.stages.textrank import textrank_keywords

    return textrank_keywords(transcripts_from_documents(sf_dir), n_iter=4, top_n=20)


def queries() -> dict[str, Callable[[str], Any]]:
    return {
        "bm25_topk": q_bm25_topk,
        "postings_bytes": q_postings_bytes,
        "static_prune": q_static_prune,
        "query_difficulty": q_query_difficulty,
        "winnow_fp": q_winnow_fp,
        "dpo_pairs": q_dpo_pairs,
        "ac_match": q_ac_match,
        "ef_bytes": q_ef_bytes,
        "interval_join": q_interval_join,
        "kn_bigrams": q_kn_bigrams,
        "ltr_features": q_ltr_features,
        "nb_calibration": q_nb_calibration,
        "bloom_prefilter": q_bloom_prefilter,
        "incr_agg": q_incr_agg,
        "dedup_incremental": q_dedup_incremental,
        "readability": q_readability,
        "kn_perplexity": q_kn_perplexity,
        "sliding_topk": q_sliding_topk,
        "type_correlation": q_type_correlation,
        "screen_cascade": q_screen_cascade,
        "cohort_retention": q_cohort_retention,
        "funnel_rates": q_funnel_rates,
        "quantile_normalize": q_quantile_normalize,
        "scd2_intervals": q_scd2_intervals,
        "join_estimate": q_join_estimate,
        "tool_stats": q_tool_stats,
        "context_overflow": q_context_overflow,
        "prox_boost": q_prox_boost,
        "sft_release": q_sft_release,
        "sample_ci": q_sample_ci,
        "build_metrics": q_build_metrics,
        "trending_terms": q_trending_terms,
        "rate_outliers": q_rate_outliers,
        "theilsen_trend": q_theilsen_trend,
        "minhash_bands": q_minhash_bands,
        "simhash_bands": q_simhash_bands,
        "hll_exact": q_hll_exact,
        "bpe_first_merge": q_bpe_first_merge,
        "posting_gaps": q_posting_gaps,
        "rank_correlation": q_rank_correlation,
        "maintenance_e2e": q_maintenance_e2e,
        "federated_e2e": q_federated_e2e,
        "append_e2e": q_append_e2e,
        "tool_chains": q_tool_chains,
        "dp_counts": q_dp_counts,
        "loss_mask_spans": q_loss_mask_spans,
        "textrank": q_textrank,
        "geo_pairs": q_geo_pairs,
        "cm_sketch": q_cm_sketch,
        "ann_pq": q_ann_pq,
        "pq_adc": q_pq_adc,
        "triangles": q_triangles,
        "label_prop": q_label_prop,
        "conv_split": q_conv_split,
        "skew_join": q_skew_join,
        "watermark": q_watermark,
        "hits": q_hits,
        "wds_export": q_wds_export,
        "csv_roundtrip": q_csv_roundtrip,
        "pmi_bigrams": q_pmi_bigrams,
        "sft_dataset": q_sft_dataset,
        "term_dispersion": q_term_dispersion,
        "cdc_chunks": q_cdc_chunks,
        "containment_pairs": q_containment_pairs,
        "k_anonymity": q_k_anonymity,
        "l_diversity": q_l_diversity,
        "benford": q_benford,
        "vocab_gini": q_vocab_gini,
        "zipf_fit": q_zipf_fit,
        "psi_drift": q_psi_drift,
        "frequent_triples": q_frequent_triples,
        "jaro_expand": q_jaro_expand,
        "ppr_related": q_ppr_related,
        "source_ablation": q_source_ablation,
        "ngram_novelty": q_ngram_novelty,
        "role_transitions": q_role_transitions,
        "vocab_entropy": q_vocab_entropy,
        "sft_pairs": q_sft_pairs,
        "sft_examples": q_sft_examples,
        "chat_render": q_chat_render,
        "chat_lint": q_chat_lint,
        "fim_split": q_fim_split,
        "eql_sequence": q_eql_sequence,
        "nb_classify": q_nb_classify,
        "span_multi": q_span_multi,
        "ccnet_buckets": q_ccnet_buckets,
        "nested_query": q_nested_query,
        "geo_line": q_geo_line,
        "variable_width_histogram": q_variable_width_histogram,
        "dsir_select": q_dsir_select,
        "ngram_diversity": q_ngram_diversity,
        "collapse_inner": q_collapse_inner,
        "geo_bounds": q_geo_bounds,
        "nested_agg": q_nested_agg,
        "ip_range": q_ip_range,
        "ip_prefix": q_ip_prefix,
        "lmd_search": q_lmd_search,
        "lmjm_search": q_lmjm_search,
        "classic_search": q_classic_search,
        "dfr_search": q_dfr_search,
        "dfi_search": q_dfi_search,
        "ib_search": q_ib_search,
        "scripted_search": q_scripted_search,
        "boolean_search": q_boolean_search,
        "prefix_search": q_prefix_search,
        "term_dictionary": q_term_dictionary,
        "corpus_stats": q_corpus_stats,
        "role_doclen": q_role_doclen,
        "top_terms": q_top_terms,
        "exact_dedup": q_exact_dedup,
        "text_quality": q_text_quality,
        "langid": q_langid,
        "validate": q_validate,
        "events_window": q_events_window,
        "downsample": q_downsample,
        "asof_join": q_asof_join,
        "range_join": q_range_join,
        "value_quantiles": q_value_quantiles,
        "hopping_window": q_hopping_window,
        "stratified_sample": q_stratified_sample,
        "smart_prefilter": q_smart_prefilter,
        "quality_filter": q_quality_filter,
        "bpe_tokens": q_bpe_tokens,
        "curate_corpus": q_curate_corpus,
        "decontam_hits": q_decontam_hits,
        "decontam_clean": q_decontam_clean,
        "highlight": q_highlight,
        "tfidf_cosine": q_tfidf_cosine,
        "search_facets": q_search_facets,
        "cap_per_group": q_cap_per_group,
        "sessionize": q_sessionize,
        "segment_revenue": q_segment_revenue,
        "semi_join_agg": q_semi_join_agg,
        "large_join": q_large_join,
        "more_like_this": q_more_like_this,
        "search_after": q_search_after,
        "bool_msm": q_bool_msm,
        "sig_terms": q_sig_terms,
        "conv_search": q_conv_search,
        "percolate": q_percolate,
        "function_score": q_function_score,
        "synonym_search": q_synonym_search,
        "did_you_mean": q_did_you_mean,
        "pii_redact": q_pii_redact,
        "extract_ids": q_extract_ids,
        "mlm_mask": q_mlm_mask,
        "compress_ratio": q_compress_ratio,
        "repetition": q_repetition,
        "json_props": q_json_props,
        "nation_revenue": q_nation_revenue,
        "merge_stats": q_merge_stats,
        "argmax_value": q_argmax_value,
        "value_histogram": q_value_histogram,
        "user_overlap": q_user_overlap,
        "anti_join": q_anti_join,
        "count_distinct": q_count_distinct,
        "user_gaps": q_user_gaps,
        "moving_avg": q_moving_avg,
        "rollup_revenue": q_rollup_revenue,
        "interp_quantiles": q_interp_quantiles,
        "global_topn": q_global_topn,
        "conv_stats": q_conv_stats,
        "lineitem_agg": q_lineitem_agg,
        "bm25_confidence": q_bm25_confidence,
        "ngram_bm25": q_ngram_bm25,
        "shingle_bm25": q_shingle_bm25,
        "fuzzy_expand": q_fuzzy_expand,
        "hybrid_rrf": q_hybrid_rrf,
        "post_filter": q_post_filter,
        "phrase_search": q_phrase_search,
        "tiered_search": q_tiered_search,
        "hybrid_weighted": q_hybrid_weighted,
        "embedding_topk": q_embedding_topk,
        "embedding_neardup": q_embedding_neardup,
        "semdedup": q_semdedup,
        "prototype_prune": q_prototype_prune,
        "span_or_near": q_span_or_near,
        "rollover": q_rollover,
        "constant_score": q_constant_score,
        "hard_negatives": q_hard_negatives,
        "knn_classify": q_knn_classify,
        "jaccard_pairs": q_jaccard_pairs,
        "dup_clusters": q_dup_clusters,
        "dedup_eval": q_dedup_eval,
        "lm_fluency": q_lm_fluency,
        "vectors_jsonl": q_vectors_jsonl,
        "minhash_pairs": q_minhash_pairs,
        "simhash": q_simhash,
        "fingerprint": q_fingerprint,
        "embed_docs": q_embed_docs,
        "media_features": q_media_features,
        "ann_ivf": q_ann_ivf,
        "ivf_probe_exact": q_ivf_probe_exact,
        "lsh_probe_exact": q_lsh_probe_exact,
        "proto_prune_exact": q_proto_prune_exact,
        "mmr_exact": q_mmr_exact,
        "ann_lsh": q_ann_lsh,
        "ann_nsw": q_ann_nsw,
        "nsw_full_beam": q_nsw_full_beam,
        "topk_sketch": q_topk_sketch,
        "quantile_sketch": q_quantile_sketch,
        "distinct_sketch": q_distinct_sketch,
        "wildcard_search": q_wildcard_search,
        "collapse_search": q_collapse_search,
        "top_hits": q_top_hits,
        "boosting": q_boosting,
        "rescore": q_rescore,
        "random_score": q_random_score,
        "explain": q_explain,
        "term_vectors": q_term_vectors,
        "adjacency": q_adjacency,
        "composite_agg": q_composite_agg,
        "date_histogram": q_date_histogram,
        "chunk_docs": q_chunk_docs,
        "knn_filtered": q_knn_filtered,
        "span_near": q_span_near,
        "span_near_unordered": q_span_near_unordered,
        "dis_max": q_dis_max,
        "multi_match_best": q_multi_match_best,
        "multi_match_most": q_multi_match_most,
        "frequent_pairs": q_frequent_pairs,
        "rag_retrieve": q_rag_retrieve,
        "moving_percentiles": q_moving_percentiles,
        "dataset_split": q_dataset_split,
        "geo_mean": q_geo_mean,
        "cum_cardinality": q_cum_cardinality,
        "sig_text": q_sig_text,
        "temperature_mix": q_temperature_mix,
        "terms_enum": q_terms_enum,
        "phrase_suggest": q_phrase_suggest,
        "field_sort": q_field_sort,
        "mget": q_mget,
        "sampler_terms": q_sampler_terms,
        "vector_range": q_vector_range,
        "pinned": q_pinned,
        "auto_date_histogram": q_auto_date_histogram,
        "series_window": q_series_window,
        "boxplot": q_boxplot,
        "mad_value": q_mad_value,
        "weighted_avg": q_weighted_avg,
        "t_test_welch": q_t_test_welch,
        "multi_terms": q_multi_terms,
        "range_buckets": q_range_buckets,
        "filters_buckets": q_filters_buckets,
        "bucket_pipeline": q_bucket_pipeline,
        "percentile_ranks": q_percentile_ranks,
        "doc_keywords": q_doc_keywords,
        "pack_bins": q_pack_bins,
        "fuzzy_search": q_fuzzy_search,
        "match_phrase_prefix": q_match_phrase_prefix,
        "query_string": q_query_string,
        "extended_stats": q_extended_stats,
        "rare_terms": q_rare_terms,
        "dedup_keep_best": q_dedup_keep_best,
        "conv_enrich": q_conv_enrich,
        "has_parent": q_has_parent,
        "has_child": q_has_child,
        "regexp_search": q_regexp_search,
        "mmr_rerank": q_mmr_rerank,
        "match_count": q_match_count,
        "hybrid_all": q_hybrid_all,
        "brand_revenue": q_brand_revenue,
        "numeric_histogram": q_numeric_histogram,
        "top_metrics": q_top_metrics,
        "stats_bucket": q_stats_bucket,
        "normalize_series": q_normalize_series,
        "percentiles_bucket": q_percentiles_bucket,
        "matrix_stats": q_matrix_stats,
        "bucket_correlation": q_bucket_correlation,
        "string_stats": q_string_stats,
        "cumulative_sum": q_cumulative_sum,
        "rate_agg": q_rate_agg,
        "categorize_text": q_categorize_text,
        "change_point": q_change_point,
        "ks_test": q_ks_test,
        "global_agg": q_global_agg,
        "rank_feature": q_rank_feature,
        "distance_feature": q_distance_feature,
        "span_first": q_span_first,
        "match_bool_prefix": q_match_bool_prefix,
        "diversified_sampler": q_diversified_sampler,
        "custdist": q_custdist,
        "large_orders": q_large_orders,
        "promo_share": q_promo_share,
        "top_supplier": q_top_supplier,
        "pivot_events": q_pivot_events,
        "span_not": q_span_not,
        "sig_chi2": q_sig_chi2,
        "completion_suggest": q_completion_suggest,
        "analyze_api": q_analyze_api,
        "rank_eval": q_rank_eval,
        "lucene_query": q_lucene_query,
        "ann_int8": q_ann_int8,
        "ann_eval": q_ann_eval,
        "ingest_pipeline": q_ingest_pipeline,
        "extended_stats_bucket": q_extended_stats_bucket,
        "weighted_sample": q_weighted_sample,
        "label_centroids": q_label_centroids,
        "bpe_train": q_bpe_train,
        "phonetic_buckets": q_phonetic_buckets,
        "snm_pairs": q_snm_pairs,
        "gopher_filter": q_gopher_filter,
        "terms_lookup": q_terms_lookup,
        "fuzzy_prefix": q_fuzzy_prefix,
        "daily_cardinality": q_daily_cardinality,
        "date_histogram_terms": q_date_histogram_terms,
        "suggest_popular": q_suggest_popular,
        "shipping_priority": q_shipping_priority,
        "returned_items": q_returned_items,
        "bracket_revenue": q_bracket_revenue,
        "idle_customers": q_idle_customers,
        "intervals": q_intervals,
        "fuzzy_damerau": q_fuzzy_damerau,
        "small_qty_revenue": q_small_qty_revenue,
        "volume_shipping": q_volume_shipping,
        "market_share": q_market_share,
        "waiting_supplier": q_waiting_supplier,
        "sliced_scroll": q_sliced_scroll,
        "missing_agg": q_missing_agg,
        "dup_spans": q_dup_spans,
        "line_dedup": q_line_dedup,
        "stem_search": q_stem_search,
        "stem_search_uk": q_stem_search_uk,
        "name_search": q_name_search,
        "dedup_search": q_dedup_search,
        "terms_shard_bounds": q_terms_shard_bounds,
        "forecast_revenue": q_forecast_revenue,
        "priority_count": q_priority_count,
        "shipmode_priority": q_shipmode_priority,
        "span_containing": q_span_containing,
        "span_within": q_span_within,
        "cross_fields": q_cross_fields,
        "combined_fields": q_combined_fields,
        "date_range": q_date_range,
        "random_sampler": q_random_sampler,
        "terms_partition": q_terms_partition,
        "quality_sample": q_quality_sample,
        "sparse_vector": q_sparse_vector,
        "maxsim": q_maxsim,
        "rank_feature_fns": q_rank_feature_fns,
        "geo_bbox": q_geo_bbox,
        "geo_polygon": q_geo_polygon,
        "geo_centroid": q_geo_centroid,
        "geo_distance_agg": q_geo_distance_agg,
        "geo_grid": q_geo_grid,
        "update_by_query": q_update_by_query,
        "simhash_exact": q_simhash_exact,
        "minhash_exact": q_minhash_exact,
        "geo_distance": q_geo_distance,
        "fuzzy_ratios": q_fuzzy_ratios,
        "topk_sketch_exact": q_topk_sketch_exact,
        "terms_include": q_terms_include,
        "snapshot_diff": q_snapshot_diff,
        "embed_exact": q_embed_exact,
        "fingerprint_exact": q_fingerprint_exact,
        "terms_set": q_terms_set,
        "dataset_card": q_dataset_card,
        "sig_terms_bgfilter": q_sig_terms_bgfilter,
    }


def _smart_prefilter_sql() -> str:
    """Oracle twin of stages/validate.smart_prefilter — same RE2
    regexes, same weights (both engines run RE2, so the patterns are
    shared verbatim)."""
    from hybrid_sanctions_search_engine_ray.stages.validate import (
        SMART_COMPANY_RE,
        SMART_CONTEXT_RE,
        SMART_DATE_ONLY_RE,
        SMART_NAME_RE,
    )

    return f"""
WITH sig AS (
  SELECT doc_id,
         coalesce(regexp_matches(text, '{SMART_NAME_RE}'), false) AS name_signal,
         coalesce(regexp_matches(lower(text), '{SMART_COMPANY_RE}'), false) AS company_signal,
         coalesce(regexp_matches(lower(text), '{SMART_CONTEXT_RE}'), false) AS context_signal,
         coalesce(regexp_matches(text, '{SMART_DATE_ONLY_RE}'), false) AS date_only,
         (text IS NULL OR length(regexp_replace(text, '^\\s+|\\s+$', '', 'g')) = 0) AS empty
  FROM documents
)
SELECT doc_id, name_signal, company_signal, context_signal,
       round(0.4 * name_signal::INT + 0.3 * company_signal::INT + 0.3 * context_signal::INT, 4) AS confidence,
       (NOT (date_only OR empty))
         AND (name_signal OR company_signal OR context_signal) AS should_process
FROM sig
"""


def _bpe_tokens_sql() -> str:
    """Oracle twin of stages/textops.bpe_token_count (shared RE2 pattern;
    single quotes doubled for the SQL literal)."""
    from hybrid_sanctions_search_engine_ray.stages.textops import BPE_TOKEN_RE

    pat = BPE_TOKEN_RE.replace("'", "''")
    return f"""
SELECT doc_id,
       coalesce(len(regexp_extract_all(text, '{pat}')), 0)::BIGINT AS n_bpe_tokens
FROM documents
"""


def _curate_corpus_sql() -> str:
    """Oracle twin of q_curate_corpus: dedup (min doc_id per md5) →
    quality p25 cutoff (quantile_disc over the deduped set) → 50%
    deterministic hash sample — all in one DuckDB statement."""
    from hybrid_sanctions_search_engine_ray.stages.textops import BPE_TOKEN_RE

    pat = BPE_TOKEN_RE.replace("'", "''")
    return f"""
WITH {TRANSCRIPTS_CTE},
per_doc AS (
  SELECT doc_id, count(*)::BIGINT AS n_tokens, count(DISTINCT term)::BIGINT AS n_uniq
  FROM tok GROUP BY doc_id
),
scored AS (
  SELECT d.doc_id, md5(d.text) AS text_md5,
         round(coalesce(p.n_uniq / p.n_tokens, 0), 4) AS uniq_ratio,
         coalesce(len(regexp_extract_all(d.text, '{pat}')), 0)::BIGINT AS n_bpe_tokens
  FROM documents d LEFT JOIN per_doc p USING (doc_id)
),
dedup AS (
  SELECT * FROM scored
  QUALIFY row_number() OVER (PARTITION BY text_md5 ORDER BY doc_id) = 1
),
cut AS (SELECT quantile_disc(uniq_ratio, {QUALITY_FILTER_Q}) AS c FROM dedup)
SELECT dd.doc_id, dd.uniq_ratio, dd.n_bpe_tokens
FROM dedup dd, cut
WHERE dd.uniq_ratio >= cut.c
  AND md5_number_upper(cast(dd.doc_id AS varchar) || '{CURATE_SALT}') % 100 < {CURATE_SAMPLE_PCT}
"""


def _decontam_cte() -> str:
    """Shared shingle CTE for the decontam oracles: identical
    tokenization (lower + NFC + [^\\p{L}\\p{N}]+ split, empties dropped)
    and w-word windows as stages/decontam.word_wgrams."""
    return f"""tokd AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(lower(nfc_normalize(text)), '[^\\p{{L}}\\p{{N}}]+'), x -> x <> '') AS arr
  FROM documents
),
sh AS (
  SELECT doc_id,
         unnest([array_to_string(arr[g:g+{DECONTAM_W - 1}], ' ')
                 for g in generate_series(1, len(arr) - {DECONTAM_W - 1})]) AS gram
  FROM tokd
),
bench AS (SELECT DISTINCT gram FROM sh WHERE doc_id < {DECONTAM_BENCH_N})"""


def _decontam_hits_sql() -> str:
    return f"""
WITH {_decontam_cte()}
SELECT s.doc_id, count(DISTINCT s.gram)::BIGINT AS n_hits
FROM sh s JOIN bench b USING (gram)
GROUP BY s.doc_id
"""


def _decontam_clean_sql() -> str:
    return f"""
WITH {_decontam_cte()}
SELECT doc_id FROM documents
WHERE doc_id NOT IN (SELECT DISTINCT s.doc_id FROM sh s JOIN bench b USING (gram))
"""


def _highlight_sql() -> str:
    """Oracle twin of q_highlight — expressions come from the SAME
    highlight_sql_expr definition the kernel documents."""
    from hybrid_sanctions_search_engine_ray.stages.highlight import highlight_sql_expr

    e = highlight_sql_expr(HL_TERMS)
    return f"""
SELECT doc_id,
       {e['first_pos']} AS first_pos,
       {e['match_terms']} AS match_terms,
       {e['snippet']} AS snippet
FROM documents
WHERE {e['where']}
"""


def _tfidf_sql() -> str:
    """Oracle twin of q_tfidf_cosine: sublinear tf (1+ln tf), smooth idf
    (ln((1+N)/(1+df))+1), per-doc l2 norm, cosine vs the query vector
    transformed with the fitted idf (unseen grams dropped — the JOIN),
    ranked (round(score,4) desc, doc_id asc). Query grams + counts come
    from the SAME Python tokenizer the engine uses."""
    from hybrid_sanctions_search_engine_ray.functions.analyzer import char3_grams, tokenize_simple

    qtf: dict[str, int] = {}
    for tok in tokenize_simple(TFIDF_QUERY):
        for g in char3_grams(tok):
            qtf[g] = qtf.get(g, 0) + 1
    qvals = ", ".join(f"('{g}', {c})" for g, c in sorted(qtf.items()))
    return f"""
WITH {TRANSCRIPTS_CTE},
pos3 AS (
  SELECT doc_id, term, unnest(generate_series(1, greatest(length(term)-2, 1))) AS g
  FROM tok
),
g3 AS (SELECT doc_id, substring(term, g, 3) AS gram FROM pos3),
gtf AS (SELECT doc_id, gram, count(*)::BIGINT AS tf FROM g3 GROUP BY doc_id, gram),
gdf AS (SELECT gram, count(*)::BIGINT AS df FROM gtf GROUP BY gram),
nn AS (SELECT count(*)::BIGINT AS n FROM documents),
w AS (
  SELECT t.doc_id, t.gram, (1 + ln(t.tf)) * (ln((1 + nn.n) / (1 + d.df)) + 1) AS wt
  FROM gtf t JOIN gdf d USING (gram), nn
),
nrm AS (SELECT doc_id, sqrt(sum(wt * wt)) AS nrm FROM w GROUP BY doc_id),
qg(gram, qtf) AS (VALUES {qvals}),
qw AS (
  SELECT q.gram, (1 + ln(q.qtf)) * (ln((1 + nn.n) / (1 + d.df)) + 1) AS wt
  FROM qg q JOIN gdf d USING (gram), nn
),
qn AS (SELECT sqrt(sum(wt * wt)) AS qn FROM qw),
dt AS (
  SELECT w.doc_id, sum(w.wt * q.wt) AS dot
  FROM w JOIN qw q USING (gram) GROUP BY w.doc_id
)
SELECT rank, doc_id, score FROM (
  SELECT row_number() OVER (ORDER BY round(dt.dot / (nrm.nrm * qn.qn), 4) DESC, dt.doc_id) AS rank,
         dt.doc_id,
         round(dt.dot / (nrm.nrm * qn.qn), 4) AS score
  FROM dt JOIN nrm USING (doc_id), qn
) WHERE rank <= {TFIDF_TOP_K}
"""


def _values_from(queries: dict[str, str]) -> str:
    """qterms VALUES rows from a {query_id: text} dict (distinct terms)."""
    rows = []
    for qid, text in queries.items():
        for term in sorted(set(text.lower().split())):
            rows.append(f"('{qid}', '{term}')")
    return ", ".join(rows)


def _regexp_pat_values() -> str:
    """(query_id, anchored RE2) VALUES — anchoring from the ENGINE's
    anchor_regex (single source)."""
    from hybrid_sanctions_search_engine_ray.pipelines.search_features import anchor_regex

    return ", ".join(f"('{qid}', '{anchor_regex(p)}')" for qid, p in REGEXP_QUERIES.items())


def _wildcard_pat_values() -> str:
    """(query_id, anchored RE2 regex) VALUES — the regex string is
    produced by the SAME translator the engine matches with
    (search_features.wildcard_to_regex), shared verbatim."""
    from hybrid_sanctions_search_engine_ray.pipelines.search_features import wildcard_to_regex

    return ", ".join(
        f"('{qid}', '{wildcard_to_regex(p)}')" for qid, p in WILDCARD_QUERIES.items()
    )


def _span_matches_sql() -> str:
    """Per-span-query proximity match: chain joins over the positional
    token table with each consecutive gap in [1, slop+1] (the engine's
    in-order span_near semantics), one SELECT per query, unioned."""
    selects = []
    for q in SPAN_QUERIES:
        terms = q["query_text"].lower().split()
        slop = q["slop"]
        joins = " ".join(
            f"JOIN tokpos p{i} ON p{i}.doc_id = p0.doc_id "
            f"AND p{i}.pos BETWEEN p{i-1}.pos + 1 AND p{i-1}.pos + 1 + {slop} "
            f"AND p{i}.term = '{t}'"
            for i, t in enumerate(terms[1:], 1)
        )
        selects.append(
            f"SELECT DISTINCT '{q['query_id']}' AS query_id, p0.doc_id AS doc_id "
            f"FROM tokpos p0 {joins} WHERE p0.term = '{terms[0]}'"
        )
    return " UNION ALL ".join(selects)


def _span_first_values() -> str:
    return ", ".join(
        f"('{q['query_id']}', '{q['query_text'].lower()}', {q['end']})"
        for q in SPAN_FIRST_QUERIES
    )


def _mbp_values() -> tuple[str, str]:
    comp_rows, pre_rows = [], []
    for qid, text in MBP_QUERIES.items():
        toks = text.lower().split()
        for t in sorted(set(toks[:-1])):
            comp_rows.append(f"('{qid}', '{t}')")
        pre_rows.append(f"('{qid}', '{toks[-1]}')")
    return ", ".join(comp_rows), ", ".join(pre_rows)


def _div_qterms_values() -> str:
    return ", ".join(f"('{t}')" for t in sorted(set(_DIV_QUERY.lower().split())))


def _lucene_pos_values() -> str:
    return ", ".join(
        f"('{qid}', '{t}')" for qid, terms in sorted(_LUCENE_POS.items()) for t in terms
    )


def _span_not_values() -> str:
    return ", ".join(
        f"('{q['query_id']}', '{q['query_text'].lower()}', '{q['exclude'].lower()}', {q['dist']})"
        for q in SPAN_NOT_QUERIES
    )


def _span_qterms_values() -> str:
    rows = []
    for q in SPAN_QUERIES:
        for term in sorted(set(q["query_text"].lower().split())):
            rows.append(f"('{q['query_id']}', '{term}')")
    return ", ".join(rows)


def _spanu_matches_sql() -> str:
    """Per-query unordered pair match: |pos_a − pos_b| ≤ slop + 1 (the
    2-term form of width − n ≤ slop), one SELECT per query, unioned."""
    selects = []
    for q in SPANU_QUERIES:
        t1, t2 = q["query_text"].lower().split()
        selects.append(
            f"SELECT DISTINCT '{q['query_id']}' AS query_id, a.doc_id AS doc_id "
            f"FROM tokpos a JOIN tokpos b ON b.doc_id = a.doc_id "
            f"WHERE a.term = '{t1}' AND b.term = '{t2}' "
            f"AND abs(a.pos - b.pos) <= {q['slop']} + 1"
        )
    return " UNION ALL ".join(selects)


def _spanu_qterms_values() -> str:
    rows = []
    for q in SPANU_QUERIES:
        for term in sorted(set(q["query_text"].lower().split())):
            rows.append(f"('{q['query_id']}', '{term}')")
    return ", ".join(rows)


def _dismax_values() -> str:
    """(query_id, clause, term) VALUES for the dis_max oracle."""
    rows = []
    for q in DISMAX_QUERIES:
        for clause in ("clause_a", "clause_b"):
            for term in sorted(set(q[clause].lower().split())):
                rows.append(f"('{q['query_id']}', '{clause}', '{term}')")
    return ", ".join(rows)


def _tool_case_sql() -> str:
    """Tool-column derivation shared with documents_batch_to_transcripts
    (tool = _TOOLS[doc_id % 8]) — imported, not copied, so the two stay
    in lockstep."""
    from hybrid_sanctions_search_engine_ray.sources.transcripts import _TOOLS

    whens = " ".join(
        f"WHEN {i} THEN '{t}'" for i, t in enumerate(_TOOLS) if t
    )
    return f"CASE cast(doc_id % 8 AS int) {whens} ELSE '' END"


def _fuzzy_match_values() -> str:
    rows = []
    for qid, text in FUZZY_MATCH_QUERIES.items():
        for t in sorted(set(text.lower().split())):
            rows.append(f"('{qid}', '{t}')")
    return ", ".join(rows)


def _mpp_matches_sql() -> str:
    """Per-query phrase-prefix match: fixed-token contiguity chain, then
    a final position holding ANY dictionary term with the prefix."""
    selects = []
    for qid, text in MPP_QUERIES.items():
        toks = text.lower().split()
        fixed, pre = toks[:-1], toks[-1]
        joins = " ".join(
            f"JOIN tokpos p{i} ON p{i}.doc_id = p0.doc_id AND p{i}.pos = p0.pos + {i} AND p{i}.term = '{t}'"
            for i, t in enumerate(fixed[1:], 1)
        )
        joins += (
            f" JOIN tokpos pl ON pl.doc_id = p0.doc_id AND pl.pos = p0.pos + {len(fixed)} "
            f"AND pl.term LIKE '{pre}%'"
        )
        selects.append(
            f"SELECT DISTINCT '{qid}' AS query_id, p0.doc_id AS doc_id "
            f"FROM tokpos p0 {joins} WHERE p0.term = '{fixed[0]}'"
        )
    return " UNION ALL ".join(selects)


def _mpp_qterms_sql() -> str:
    """qterms = fixed tokens ∪ dictionary expansions of each prefix."""
    fixed_rows = []
    pre_rows = []
    for qid, text in MPP_QUERIES.items():
        toks = text.lower().split()
        for t in sorted(set(toks[:-1])):
            fixed_rows.append(f"('{qid}', '{t}')")
        pre_rows.append(f"('{qid}', '{toks[-1]}')")
    return (
        f"qterms AS (SELECT * FROM (VALUES {', '.join(fixed_rows)}) v(query_id, term) "
        f"UNION SELECT q.query_id, df.term FROM (VALUES {', '.join(pre_rows)}) q(query_id, pre) "
        f"JOIN df ON df.term LIKE q.pre || '%')"
    )


def _clusters_reach_sql() -> str:
    """Shared near-dup cluster CTE chain (shingle Jaccard edges →
    bidirectional closure via recursive reachability) — the SQL twin of
    the jaccard_verify + connected_components machinery; used by the
    dup_clusters AND dedup_keep_best oracles. Expects transcripts/tokpos
    in scope."""
    return f"""sh AS (
  SELECT DISTINCT a.doc_id, a.term || ' ' || b.term || ' ' || c.term AS sh
  FROM tokpos a
  JOIN tokpos b ON b.doc_id = a.doc_id AND b.pos = a.pos + 1
  JOIN tokpos c ON c.doc_id = a.doc_id AND c.pos = a.pos + 2
  WHERE a.doc_id < {_CLUSTER_DOCS}
),
cnt AS (SELECT doc_id, count(*)::BIGINT AS c FROM sh GROUP BY doc_id),
inter AS (
  SELECT x.doc_id AS a, y.doc_id AS b, count(*)::BIGINT AS i
  FROM sh x JOIN sh y ON y.sh = x.sh AND y.doc_id > x.doc_id
  GROUP BY x.doc_id, y.doc_id
),
edges AS (
  SELECT i.a, i.b
  FROM inter i JOIN cnt ca ON ca.doc_id = i.a JOIN cnt cb ON cb.doc_id = i.b
  WHERE round(i.i * 1.0 / (ca.c + cb.c - i.i), 6) >= {_CLUSTER_MIN}
),
bidir AS (SELECT a, b FROM edges UNION ALL SELECT b AS a, a AS b FROM edges),
reach(src, dst) AS (
  SELECT doc_id, doc_id FROM documents
  UNION
  SELECT r.src, e.b FROM reach r JOIN bidir e ON e.a = r.dst
)"""


def _qs_parsed() -> list[dict]:
    """QS_QUERIES through the ENGINE's parser — single source of truth
    for both sides of the query_string oracle."""
    from hybrid_sanctions_search_engine_ray.pipelines.search_features import parse_query_string

    return [{"query_id": qid, **parse_query_string(q)} for qid, q in QS_QUERIES.items()]


def _qs_values(field: str, minus: str | None = None) -> str:
    rows = []
    for q in _qs_parsed():
        terms = set(q[field].lower().split())
        if minus:
            terms -= set(q[minus].lower().split())
        for term in sorted(terms):
            rows.append(f"('{q['query_id']}', '{term}')")
    return ", ".join(rows) if rows else "(NULL, NULL)"


def _qs_nmust_values() -> str:
    return ", ".join(
        f"('{q['query_id']}', {len(set(q['must'].lower().split()))})" for q in _qs_parsed()
    )


def _boosting_values(field: str) -> str:
    rows = []
    for q in BOOSTING_QUERIES:
        for term in sorted(set(q[field].lower().split())):
            rows.append(f"('{q['query_id']}', '{term}')")
    return ", ".join(rows)


# The standard word-BM25 scores CTE (expects qterms/tf/df/dl/stats in scope).
_BM25_SCORES_CTE = f"""
scores AS (
  SELECT q.query_id, tf.doc_id,
         sum( ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
              * tf.tf * {_K1 + 1.0} / (tf.tf + {_K1} * ({1.0 - _B} + {_B} * dl.dl / s.avgdl)) ) AS score
  FROM qterms q
  JOIN tf ON tf.term = q.term
  JOIN df ON df.term = q.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats s
  GROUP BY q.query_id, tf.doc_id
)"""


def _adjacency_sql() -> str:
    """One SELECT per adjacency bucket (names sorted; pair keys 'a&b'),
    counts straight off the tf pair table — INTERSECT of the two
    filters' doc sets for pairs."""
    names = sorted(ADJACENCY_FILTERS)
    sel = []
    for n in names:
        sel.append(
            f"SELECT '{n}' AS key, (SELECT count(*) FROM tf WHERE term = '{ADJACENCY_FILTERS[n]}')::BIGINT AS doc_count"
        )
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            sel.append(
                f"SELECT '{a}&{b}', (SELECT count(*) FROM "
                f"(SELECT doc_id FROM tf WHERE term = '{ADJACENCY_FILTERS[a]}' "
                f"INTERSECT SELECT doc_id FROM tf WHERE term = '{ADJACENCY_FILTERS[b]}'))::BIGINT"
            )
    return " UNION ALL ".join(sel)


def _vlen_sql(col: str) -> str:
    """LEB128 varint byte length of a non-negative BIGINT column —
    the SQL mirror of functions/codec.varint_encode framing."""
    cases = " ".join(f"WHEN {col} < {128**k} THEN {k}" for k in range(1, 10))
    return f"(CASE {cases} ELSE 10 END)"


# shared CTE chain for the NB classifier twins (train counts →
# int64 ×1e4 log-prob tables → per-test-doc integer scores → argmax)
_NB_CORE_CTES = f"""
lab AS (SELECT doc_id, lang, (doc_id % 5 = 0) AS is_test FROM documents),
tb AS (
  SELECT t.doc_id, cast(md5_number_upper(t.term) % {_NB_B} AS BIGINT) AS b,
         l.lang, l.is_test
  FROM tok t JOIN lab l USING (doc_id)
),
nd AS (SELECT lang, count(*)::BIGINT AS nd FROM lab WHERE NOT is_test GROUP BY lang),
ntr AS (SELECT sum(nd)::BIGINT AS n FROM nd),
cnt AS (SELECT lang, b, count(*)::BIGINT AS c FROM tb WHERE NOT is_test GROUP BY lang, b),
tot AS (SELECT lang, sum(c)::BIGINT AS t FROM cnt GROUP BY lang),
lp AS (
  SELECT n.lang, bk.b,
         cast(round(ln((coalesce(c.c, 0) + 1)::DOUBLE
                       / (coalesce(t.t, 0) + {_NB_B})) * 10000) AS BIGINT) AS v
  FROM nd n
  CROSS JOIN (SELECT unnest(generate_series(0, {_NB_B - 1}))::BIGINT AS b) bk
  LEFT JOIN cnt c ON c.lang = n.lang AND c.b = bk.b
  LEFT JOIN tot t ON t.lang = n.lang
),
pri AS (
  SELECT n.lang, cast(round(ln(n.nd::DOUBLE / ntr.n) * 10000) AS BIGINT) AS pi
  FROM nd n CROSS JOIN ntr
),
scores AS (
  SELECT d.doc_id, p.lang AS cls, p.pi + coalesce(sum(lp.v), 0) AS s
  FROM (SELECT doc_id FROM lab WHERE is_test) d
  CROSS JOIN pri p
  LEFT JOIN tb ON tb.doc_id = d.doc_id AND tb.is_test
  LEFT JOIN lp ON lp.lang = p.lang AND lp.b = tb.b
  GROUP BY d.doc_id, p.lang, p.pi
),
pred AS (
  SELECT doc_id, cls, s,
         row_number() OVER (PARTITION BY doc_id ORDER BY s DESC, cls) AS rn
  FROM scores
)
"""


def oracle_sql() -> dict[str, str]:
    qterms = _qterms_values()
    return {
        # stored-postings codec audit: per-term varint stream bytes of
        # the persisted unsalted index, reconstructed from the framing.
        "postings_bytes": f"""
WITH {TRANSCRIPTS_CTE},
seq AS (
  SELECT term, doc_id, tf,
         doc_id - coalesce(lag(doc_id) OVER (PARTITION BY term ORDER BY doc_id), 0) AS delta
  FROM tf),
wj AS (SELECT s.term, s.delta, s.tf, l.dl FROM seq s JOIN dl l USING (doc_id))
SELECT term, count(*)::BIGINT AS n_docs,
       sum({_vlen_sql('delta')})::BIGINT AS docs_bytes,
       sum({_vlen_sql('tf')})::BIGINT AS tfs_bytes,
       sum({_vlen_sql('dl')})::BIGINT AS dls_bytes
FROM wj GROUP BY term
""",
        # NB classifier: integer ×10⁴ log-prob sums, argmax by (s desc, cls).
        "nb_classify": f"""
WITH {TRANSCRIPTS_CTE},
{_NB_CORE_CTES}
SELECT p.doc_id, l.lang AS true_label, p.cls AS pred_label,
       cast(p.s AS BIGINT) AS score_x1e4
FROM pred p JOIN lab l USING (doc_id) WHERE p.rn = 1
ORDER BY p.doc_id
""",
        # NB reliability diagram: equal-width integer score bins over
        # the winning scores; per-bin count + correct count + accuracy.
        "nb_calibration": f"""
WITH {TRANSCRIPTS_CTE},
{_NB_CORE_CTES},
win AS (
  SELECT p.doc_id, cast(p.s AS BIGINT) AS s,
         (p.cls = l.lang) AS correct
  FROM pred p JOIN lab l USING (doc_id) WHERE p.rn = 1),
rng AS (SELECT min(s) AS mn, max(s) AS mx FROM win),
binned AS (
  SELECT ((w.s - r.mn) * {_NB_CAL_BINS}) // (r.mx - r.mn + 1) AS bin,
         w.correct
  FROM win w CROSS JOIN rng r)
SELECT bin::BIGINT AS bin, count(*)::BIGINT AS n,
       cast(count(*) FILTER (correct) AS BIGINT) AS n_correct,
       round(count(*) FILTER (correct) / count(*)::DOUBLE, 4) AS acc
FROM binned GROUP BY bin
""",
        # EQL sequence: each hop is LEFT JOIN LATERAL earliest-follower.
        "eql_sequence": f"""
WITH a AS (SELECT user_id, event_id, ts FROM events WHERE event_type = '{_EQL_STEPS[0]}'),
bb AS (SELECT user_id, event_id, ts FROM events WHERE event_type = '{_EQL_STEPS[1]}'),
cc AS (SELECT user_id, event_id, ts FROM events WHERE event_type = '{_EQL_STEPS[2]}'),
ab AS (
  SELECT a.user_id, a.event_id AS e1_id, a.ts AS t1, f.event_id AS e2_id, f.ts AS t2
  FROM a LEFT JOIN LATERAL (
    SELECT event_id, ts FROM bb WHERE bb.user_id = a.user_id AND bb.ts > a.ts
    ORDER BY ts, event_id LIMIT 1) f ON true
),
abc AS (
  SELECT ab.user_id, ab.e1_id, ab.t1, ab.e2_id, g.event_id AS e3_id, g.ts AS t3
  FROM ab LEFT JOIN LATERAL (
    SELECT event_id, ts FROM cc WHERE cc.user_id = ab.user_id AND cc.ts > ab.t2
    ORDER BY ts, event_id LIMIT 1) g ON true
  WHERE ab.e2_id IS NOT NULL
)
SELECT user_id, e1_id, e2_id, e3_id,
       epoch_us(t1) AS start_us, epoch_us(t3) AS end_us,
       epoch_us(t3) - epoch_us(t1) AS span_us
FROM abc
WHERE e3_id IS NOT NULL
  AND epoch_us(t3) - epoch_us(t1) <= {_EQL_MAXSPAN_S * 1_000_000}
""",
        # DP-style Laplace release with md5-seeded deterministic
        # noise (the replayable-test contract; fresh randomness is the
        # production seam).
        "dp_counts": f"""
WITH c AS (SELECT event_type, count(*)::BIGINT AS n FROM events GROUP BY 1),
u AS (
  SELECT event_type, n,
         (md5_number_upper(event_type || '-dp') % 9007199254740992)
           / 9007199254740992.0 AS uu
  FROM c)
SELECT event_type, n AS n_true,
       round(n + (-(1.0 / {_DP_EPS}) * sign(uu - 0.5)
                  * ln(1 - 2 * abs(uu - 0.5))), 4) AS n_noisy
FROM u ORDER BY event_type
""",
        # append/merge == from-scratch truth (same full-corpus BM25
        # expression as federated_e2e).
        "append_e2e": f"""
WITH {TRANSCRIPTS_CTE},
qterms(query_id, term) AS (VALUES {qterms}),
scores AS (
  SELECT q.query_id, tf.doc_id,
         sum( ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
              * tf.tf * {_K1 + 1.0} / (tf.tf + {_K1} * ({1.0 - _B} + {_B} * dl.dl / s.avgdl)) ) AS score
  FROM qterms q
  JOIN tf ON tf.term = q.term
  JOIN df ON df.term = q.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats s
  GROUP BY q.query_id, tf.doc_id),
ranked AS (
  SELECT query_id, doc_id, score,
         row_number() OVER (PARTITION BY query_id ORDER BY score DESC, doc_id) AS rnk
  FROM scores)
SELECT query_id, cast(rnk AS int) AS rank, doc_id, round(score, 4) AS score
FROM ranked WHERE rnk <= {BM25_TOP_K}
""",
        # federated == single-index truth: plain BM25 over the full
        # corpus (shared expression with bm25_topk).
        "federated_e2e": f"""
WITH {TRANSCRIPTS_CTE},
qterms(query_id, term) AS (VALUES {qterms}),
scores AS (
  SELECT q.query_id, tf.doc_id,
         sum( ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
              * tf.tf * {_K1 + 1.0} / (tf.tf + {_K1} * ({1.0 - _B} + {_B} * dl.dl / s.avgdl)) ) AS score
  FROM qterms q
  JOIN tf ON tf.term = q.term
  JOIN df ON df.term = q.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats s
  GROUP BY q.query_id, tf.doc_id),
ranked AS (
  SELECT query_id, doc_id, score,
         row_number() OVER (PARTITION BY query_id ORDER BY score DESC, doc_id) AS rnk
  FROM scores)
SELECT query_id, cast(rnk AS int) AS rank, doc_id, round(score, 4) AS score
FROM ranked WHERE rnk <= {BM25_TOP_K}
""",
        # lifecycle capstone: BM25 over the corpus minus the deleted
        # docs, stats recomputed — must equal the
        # delete->compact->repartition->serve chain exactly.
        "maintenance_e2e": f"""
WITH t0 AS (SELECT doc_id, text FROM documents WHERE doc_id % {_MAINT_MOD} <> 7),
toks AS (
  SELECT doc_id, unnest(regexp_split_to_array(lower(nfc_normalize(text)), '[^\\p{{L}}\\p{{N}}]+')) AS term
  FROM t0),
tok AS (SELECT doc_id, term FROM toks WHERE term <> ''),
tf AS (SELECT term, doc_id, count(*)::BIGINT AS tf FROM tok GROUP BY term, doc_id),
dl AS (SELECT doc_id, count(*)::BIGINT AS dl FROM tok GROUP BY doc_id),
stats AS (SELECT count(*)::BIGINT AS n_docs, avg(dl) AS avgdl FROM dl),
df AS (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY term),
qterms(query_id, term) AS (VALUES {qterms}),
scores AS (
  SELECT q.query_id, tf.doc_id,
         sum( ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
              * tf.tf * {_K1 + 1.0} / (tf.tf + {_K1} * ({1.0 - _B} + {_B} * dl.dl / s.avgdl)) ) AS score
  FROM qterms q
  JOIN tf ON tf.term = q.term
  JOIN df ON df.term = q.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats s
  GROUP BY q.query_id, tf.doc_id),
ranked AS (
  SELECT query_id, doc_id, score,
         row_number() OVER (PARTITION BY query_id ORDER BY score DESC, doc_id) AS rnk
  FROM scores)
SELECT query_id, cast(rnk AS int) AS rank, doc_id, round(score, 4) AS score
FROM ranked WHERE rnk <= {BM25_TOP_K}
""",
        # Spearman rho between the BM25 and LMD top-10, intersection
        # re-ranked by each system's own order; permutation formula.
        "rank_correlation": f"""
WITH {TRANSCRIPTS_CTE},
qterms(query_id, term) AS (VALUES {qterms}),
bscores AS (
  SELECT q.query_id, tf.doc_id,
         sum( ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
              * tf.tf * {_K1 + 1.0} / (tf.tf + {_K1} * ({1.0 - _B} + {_B} * dl.dl / s.avgdl)) ) AS score
  FROM qterms q
  JOIN tf ON tf.term = q.term
  JOIN df ON df.term = q.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats s
  GROUP BY q.query_id, tf.doc_id),
ctf AS (SELECT term, sum(tf)::DOUBLE AS cttf FROM tf GROUP BY term),
tot AS (SELECT sum(dl)::DOUBLE AS total FROM dl),
lscores AS (
  SELECT q.query_id, tf.doc_id,
         sum(greatest(0.0,
             ln(1 + tf.tf / ({_LMD_MU} * (c.cttf / t.total)))
             + ln({_LMD_MU} / (dl.dl + {_LMD_MU})))) AS score
  FROM qterms q
  JOIN tf ON tf.term = q.term
  JOIN ctf c ON c.term = q.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN tot t
  GROUP BY q.query_id, tf.doc_id),
br AS (
  SELECT query_id, doc_id, rn FROM (
    SELECT query_id, doc_id,
           row_number() OVER (PARTITION BY query_id ORDER BY score DESC, doc_id) AS rn
    FROM bscores) WHERE rn <= {_RC_K}),
lr AS (
  SELECT query_id, doc_id, rn FROM (
    SELECT query_id, doc_id,
           row_number() OVER (PARTITION BY query_id ORDER BY round(score, 4) DESC, doc_id) AS rn
    FROM lscores) WHERE rn <= {_RC_K}),
sh AS (
  SELECT b.query_id, b.doc_id, b.rn AS rb, l.rn AS rl
  FROM br b JOIN lr l USING (query_id, doc_id)),
rr AS (
  SELECT query_id,
         row_number() OVER (PARTITION BY query_id ORDER BY rb) - 1 AS rb2,
         row_number() OVER (PARTITION BY query_id ORDER BY rl) - 1 AS rl2
  FROM sh),
agg AS (
  SELECT query_id, count(*)::BIGINT AS n,
         cast(sum((rb2 - rl2) * (rb2 - rl2)) AS BIGINT) AS sumd2
  FROM rr GROUP BY query_id)
SELECT query_id, n AS n_shared,
       round(1.0 - 6.0 * sumd2 / (n * (n * n - 1))::DOUBLE, 4) AS rho
FROM agg WHERE n >= 2 ORDER BY query_id
""",
        # posting-list gap stats recomputed with LAG over the tf CTE.
        "posting_gaps": f"""
WITH {TRANSCRIPTS_CTE},
lagd AS (
  SELECT term, doc_id,
         doc_id - lag(doc_id) OVER (PARTITION BY term ORDER BY doc_id) AS gap
  FROM tf)
SELECT term, count(*)::BIGINT AS df,
       min(doc_id)::BIGINT AS first_doc,
       coalesce(round(cast(sum(gap) AS BIGINT) / count(gap)::DOUBLE, 4), 0.0) AS mean_gap,
       coalesce(max(gap), 0)::BIGINT AS max_gap
FROM lagd GROUP BY term
""",
        # BPE first-iteration pair table: chars + </w>, weighted by
        # word frequency; top-10 by (count desc, pair asc).
        "bpe_first_merge": f"""
WITH w AS (
  SELECT t.w AS word, count(*)::BIGINT AS c
  FROM (SELECT unnest(list_filter(
          regexp_split_to_array(lower(text), '[^\\p{{L}}\\p{{N}}]+'),
          x -> x <> '')) AS w
        FROM documents) t
  GROUP BY t.w),
sym AS (
  SELECT word, c,
         list_append(string_split(word, ''), '</w>') AS syms
  FROM w),
pairs AS (
  SELECT syms[i] AS l, syms[i + 1] AS r, c
  FROM sym, unnest(generate_series(1, len(syms) - 1)) AS u(i)),
agg AS (
  SELECT l, r, cast(sum(c) AS BIGINT) AS pair_count FROM pairs GROUP BY l, r),
rk AS (
  SELECT l, r, pair_count,
         row_number() OVER (ORDER BY pair_count DESC, l, r) AS rn
  FROM agg)
SELECT rn::BIGINT AS rank, l AS left, r AS right, pair_count
FROM rk WHERE rn <= {_BPE_FM_K}
""",
        # HLL on the md5 contract: integer registers, exact power-of-two
        # denominator, mirrored estimator with linear-counting branch.
        "hll_exact": f"""
WITH {TRANSCRIPTS_CTE},
hh AS (SELECT DISTINCT md5_number_upper(term) AS h FROM tok),
rr AS (
  SELECT cast(h // 72057594037927936 AS BIGINT) AS idx,
         h % 72057594037927936 AS rest
  FROM hh),
regs AS (
  SELECT idx,
         max(CASE WHEN rest = 0 THEN 57
                  ELSE 57 - (CASE WHEN rest >= 36028797018963968 THEN 56 WHEN rest >= 18014398509481984 THEN 55 WHEN rest >= 9007199254740992 THEN 54 WHEN rest >= 4503599627370496 THEN 53 WHEN rest >= 2251799813685248 THEN 52 WHEN rest >= 1125899906842624 THEN 51 WHEN rest >= 562949953421312 THEN 50 WHEN rest >= 281474976710656 THEN 49 WHEN rest >= 140737488355328 THEN 48 WHEN rest >= 70368744177664 THEN 47 WHEN rest >= 35184372088832 THEN 46 WHEN rest >= 17592186044416 THEN 45 WHEN rest >= 8796093022208 THEN 44 WHEN rest >= 4398046511104 THEN 43 WHEN rest >= 2199023255552 THEN 42 WHEN rest >= 1099511627776 THEN 41 WHEN rest >= 549755813888 THEN 40 WHEN rest >= 274877906944 THEN 39 WHEN rest >= 137438953472 THEN 38 WHEN rest >= 68719476736 THEN 37 WHEN rest >= 34359738368 THEN 36 WHEN rest >= 17179869184 THEN 35 WHEN rest >= 8589934592 THEN 34 WHEN rest >= 4294967296 THEN 33 WHEN rest >= 2147483648 THEN 32 WHEN rest >= 1073741824 THEN 31 WHEN rest >= 536870912 THEN 30 WHEN rest >= 268435456 THEN 29 WHEN rest >= 134217728 THEN 28 WHEN rest >= 67108864 THEN 27 WHEN rest >= 33554432 THEN 26 WHEN rest >= 16777216 THEN 25 WHEN rest >= 8388608 THEN 24 WHEN rest >= 4194304 THEN 23 WHEN rest >= 2097152 THEN 22 WHEN rest >= 1048576 THEN 21 WHEN rest >= 524288 THEN 20 WHEN rest >= 262144 THEN 19 WHEN rest >= 131072 THEN 18 WHEN rest >= 65536 THEN 17 WHEN rest >= 32768 THEN 16 WHEN rest >= 16384 THEN 15 WHEN rest >= 8192 THEN 14 WHEN rest >= 4096 THEN 13 WHEN rest >= 2048 THEN 12 WHEN rest >= 1024 THEN 11 WHEN rest >= 512 THEN 10 WHEN rest >= 256 THEN 9 WHEN rest >= 128 THEN 8 WHEN rest >= 64 THEN 7 WHEN rest >= 32 THEN 6 WHEN rest >= 16 THEN 5 WHEN rest >= 8 THEN 4 WHEN rest >= 4 THEN 3 WHEN rest >= 2 THEN 2 WHEN rest >= 1 THEN 1 ELSE 0 END) END)::BIGINT AS rk
  FROM rr GROUP BY idx),
agg AS (
  SELECT count(*)::BIGINT AS nset,
         sum(1::HUGEINT << (57 - rk)) AS dpresent
  FROM regs),
d AS (
  SELECT nset,
         (dpresent + (256 - nset)::HUGEINT * (1::HUGEINT << 57)) AS denom,
         256 - nset AS nz
  FROM agg),
e AS (
  SELECT nset, nz,
         (0.7213 / (1.0 + 1.079 / 256.0)) * 65536.0 * 144115188075855872.0
           / cast(denom AS DOUBLE) AS est0
  FROM d)
SELECT nset AS n_registers_set,
       round(CASE WHEN est0 <= 640.0 AND nz > 0
                  THEN 256 * ln(256.0 / nz)
                  ELSE est0 END, 4) AS est
FROM e
""",
        # SimHash 16-bit band bucketing over the md5-parity signature;
        # pairs share any band (pigeonhole: hamming<=3 always pairs).
        "simhash_bands": f"""
WITH {TRANSCRIPTS_CTE},
sth AS (SELECT doc_id, md5_number_upper(term) AS h FROM tok),
sbits AS (
  SELECT doc_id, b.b,
         CASE WHEN 2 * sum(((h >> b.b) & 1)::BIGINT) > count(*)
              THEN 1::HUGEINT ELSE 0::HUGEINT END AS s
  FROM sth CROSS JOIN (SELECT unnest(generate_series(0, 63)) AS b) b
  GROUP BY doc_id, b.b
),
spack AS (
  SELECT doc_id, sum(s * (1::HUGEINT << b))::HUGEINT AS v FROM sbits GROUP BY doc_id
),
bnd AS (
  SELECT p.doc_id, b.band,
         cast((p.v >> (16 * b.band)) % 65536 AS BIGINT) AS bv
  FROM spack p
  CROSS JOIN (SELECT unnest(generate_series(0, {_SHB_BANDS - 1})) AS band) b
),
prs AS (
  SELECT a.doc_id AS doc_a, b2.doc_id AS doc_b
  FROM bnd a JOIN bnd b2
    ON b2.band = a.band AND b2.bv = a.bv AND b2.doc_id > a.doc_id)
SELECT doc_a, doc_b, count(*)::BIGINT AS n_bands
FROM prs GROUP BY 1, 2
""",
        # LSH banding on the mhx signature contract: uint64-wraparound
        # band hash, pairs share any (band, hash) bucket.
        "minhash_bands": f"""
WITH {TRANSCRIPTS_CTE},
{TOKPOS_CTE},
mth AS (SELECT doc_id, pos, md5_number_upper(term)::HUGEINT AS h FROM tokpos),
mgr AS (
  SELECT t1.doc_id,
         (((t1.h * 1000003) % 18446744073709551616::HUGEINT + t2.h)
            % 18446744073709551616::HUGEINT * 1000003
            % 18446744073709551616::HUGEINT + t3.h)
           % 18446744073709551616::HUGEINT AS gram
  FROM mth t1
  JOIN mth t2 ON t2.doc_id = t1.doc_id AND t2.pos = t1.pos + 1
  JOIN mth t3 ON t3.doc_id = t1.doc_id AND t3.pos = t1.pos + 2
),
mperm(perm, pa, pb) AS (VALUES {_mhx_perm_values()}),
msig AS (
  SELECT g.doc_id, p.perm,
         min(((g.gram * p.pa) % 18446744073709551616::HUGEINT + p.pb)
             % 18446744073709551616::HUGEINT
             % 2305843009213693951::HUGEINT)::HUGEINT AS sig
  FROM mgr g CROSS JOIN mperm p
  GROUP BY g.doc_id, p.perm
),
bnd AS (
  SELECT m0.doc_id, b.band,
         ((m0.sig * 1000003) % 18446744073709551616::HUGEINT + m1.sig)
           % 18446744073709551616::HUGEINT AS bh
  FROM (SELECT unnest(generate_series(0, {_MHB_BANDS - 1})) AS band) b
  JOIN msig m0 ON m0.perm = b.band * {_MHB_ROWS}
  JOIN msig m1 ON m1.perm = b.band * {_MHB_ROWS} + 1 AND m1.doc_id = m0.doc_id
),
prs AS (
  SELECT a.doc_id AS doc_a, b2.doc_id AS doc_b
  FROM bnd a JOIN bnd b2
    ON b2.band = a.band AND b2.bh = a.bh AND b2.doc_id > a.doc_id)
SELECT doc_a, doc_b, count(*)::BIGINT AS n_bands
FROM prs GROUP BY 1, 2
""",
        # Theil-Sen: lower-median pairwise slope under (slope, i, j)
        # ordering — rank-exact, no interpolation.
        "theilsen_trend": """
WITH daily AS (
  SELECT epoch_us(ts) // 86400000000 - 19723 AS day, count(*)::BIGINT AS c
  FROM events GROUP BY 1),
p AS (
  SELECT a.day AS di, b.day AS dj,
         (b.c - a.c) / (b.day - a.day)::DOUBLE AS slope
  FROM daily a JOIN daily b ON b.day > a.day),
r AS (
  SELECT slope, row_number() OVER (ORDER BY slope, di, dj) AS rn,
         count(*) OVER () AS m
  FROM p)
SELECT (SELECT count(*) FROM daily)::BIGINT AS n_days,
       (SELECT count(*) FROM p)::BIGINT AS n_pairs,
       (SELECT round(slope, 4) FROM r WHERE rn = (m - 1) // 2 + 1 LIMIT 1) AS slope
""",
        # per-user day-count outliers: c > mean + 2*pop_std, moments
        # per user; mirrored float threshold.
        "rate_outliers": """
WITH daily AS (
  SELECT user_id, epoch_us(ts) // 86400000000 - 19723 AS day,
         count(*)::BIGINT AS c
  FROM events GROUP BY 1, 2),
m AS (
  SELECT user_id, count(*)::BIGINT AS n, cast(sum(c) AS BIGINT) AS sx,
         cast(sum(c * c) AS BIGINT) AS sxx
  FROM daily GROUP BY user_id),
j AS (
  SELECT d.user_id, d.day, d.c,
         m.sx / m.n::DOUBLE AS mean_c,
         m.sx / m.n::DOUBLE
           + 2.0 * sqrt((m.sxx - m.sx * m.sx / m.n::DOUBLE) / m.n) AS thr
  FROM daily d JOIN m USING (user_id))
SELECT user_id, day::BIGINT AS day, c, round(mean_c, 4) AS mean_c,
       round(thr, 4) AS thr
FROM j WHERE c > thr ORDER BY user_id, day
""",
        # trending terms: add-one-smoothed period-over-period growth,
        # top-10 per period by (growth desc, term).
        "trending_terms": f"""
WITH {TRANSCRIPTS_CTE},
tsu AS (
  SELECT doc_id, (doc_id * 1000000 + 1767225600000000) // {_TREND_PERIOD_US} AS period
  FROM documents),
tp AS (
  SELECT t.term, u.period, count(*)::BIGINT AS c
  FROM tok t JOIN tsu u USING (doc_id)
  GROUP BY 1, 2),
lagd AS (
  SELECT term, period, c,
         lag(c) OVER (PARTITION BY term ORDER BY period) AS pc,
         lag(period) OVER (PARTITION BY term ORDER BY period) AS pp
  FROM tp),
gr AS (
  SELECT period, term, c AS n_occ,
         round((c + 1) / (pc + 1)::DOUBLE, 4) AS growth
  FROM lagd WHERE pp = period - 1),
rk AS (
  SELECT period, term, n_occ, growth,
         row_number() OVER (PARTITION BY period
                            ORDER BY growth DESC, term) AS rn
  FROM gr)
SELECT period::BIGINT AS period, rn::BIGINT AS rank, term, n_occ, growth
FROM rk WHERE rn <= {_TREND_K}
""",
        # lineage totals vs raw-corpus truth (coldonly layout: one row
        # per term, postings = (term, doc) pairs, terms distinct).
        "build_metrics": f"""
WITH {TRANSCRIPTS_CTE}
SELECT (SELECT count(DISTINCT term) FROM tf)::BIGINT AS n_rows,
       (SELECT count(*) FROM tf)::BIGINT AS n_postings,
       (SELECT count(DISTINCT term) FROM tf)::BIGINT AS n_terms
""",
        # sampled mean + normal CI from integer sufficient stats,
        # coverage vs the exact full mean; mirrored float expressions.
        "sample_ci": """
WITH t AS (
  SELECT 'conv-' || lpad(cast(doc_id // 8 AS varchar), 8, '0') AS conv_id,
         length(text)::BIGINT AS chars
  FROM documents),
m AS (
  SELECT cast(count(*) FILTER (md5_number_upper(conv_id || '-ci') % 10 = 0) AS BIGINT) AS n_s,
         cast(coalesce(sum(chars) FILTER (md5_number_upper(conv_id || '-ci') % 10 = 0), 0) AS BIGINT) AS sx_s,
         cast(coalesce(sum(chars * chars) FILTER (md5_number_upper(conv_id || '-ci') % 10 = 0), 0) AS BIGINT) AS sxx_s,
         count(*)::BIGINT AS n_f,
         cast(sum(chars) AS BIGINT) AS sx_f
  FROM t),
c AS (
  SELECT n_s, sx_s / n_s::DOUBLE AS mean_s,
         sqrt(((sxx_s - sx_s * sx_s / n_s::DOUBLE) / n_s) / n_s) AS se,
         sx_f / n_f::DOUBLE AS mean_f
  FROM m)
SELECT n_s AS n_sample,
       round(mean_s, 4) AS sample_mean,
       round(mean_s - 1.96 * se, 4) AS ci_lo,
       round(mean_s + 1.96 * se, 4) AS ci_hi,
       round(mean_f, 4) AS full_mean,
       (mean_s - 1.96 * se <= mean_f AND mean_f <= mean_s + 1.96 * se) AS covered
FROM c
""",
        # release accounting recomputed from source: split rule +
        # string_agg render + conv-number sharding.
        "sft_release": f"""
WITH t AS (
  SELECT 'conv-' || lpad(cast(doc_id // 8 AS varchar), 8, '0') AS conv_id,
         doc_id // 8 AS conv_num,
         cast(doc_id % 8 AS int) AS turn_idx,
         CASE cast(doc_id % 3 AS int) WHEN 0 THEN 'user' WHEN 1 THEN 'assistant' ELSE 'tool' END AS role,
         text
  FROM documents),
spl AS (
  SELECT conv_id,
         CASE
           WHEN md5_number_upper(conv_id || '-cs') % 100 < {_CONV_SPLITS["test"]} THEN 'test'
           WHEN md5_number_upper(conv_id || '-cs') % 100 < {_CONV_SPLITS["test"] + _CONV_SPLITS["train"]} THEN 'train'
           ELSE 'val' END AS split
  FROM (SELECT DISTINCT conv_id FROM t)),
r AS (
  SELECT t.conv_num,
         length(string_agg('<|' || t.role || '|>' || t.text, chr(10) ORDER BY t.turn_idx))::BIGINT AS n_chars
  FROM t JOIN spl USING (conv_id)
  WHERE spl.split = 'train'
  GROUP BY t.conv_num)
SELECT conv_num // {_REL_PER_SHARD} AS shard,
       count(*)::BIGINT AS n_convs,
       cast(sum(n_chars) AS BIGINT) AS n_chars
FROM r GROUP BY 1
""",
        # proximity boost: bm25(t1)+bm25(t2) + 1/(1+min |pos diff|),
        # association (sA + sB) + boost mirrored; rank raw desc.
        "prox_boost": """
WITH {TRANSCRIPTS_CTE},
{TOKPOS_CTE},
scores AS (
  SELECT 'p1' AS query_id, ta.doc_id,
         ((ta.tf * 2.2 / (ta.tf + 1.2 * (0.25 + 0.75 * dl.dl / s.avgdl)) * ln(1 + (s.n_docs - dfa.df + 0.5) / (dfa.df + 0.5)))
          + (tb.tf * 2.2 / (tb.tf + 1.2 * (0.25 + 0.75 * dl.dl / s.avgdl)) * ln(1 + (s.n_docs - dfb.df + 0.5) / (dfb.df + 0.5))))
         + 1.0 / (1.0 + md.dmin) AS score
  FROM tf ta
  JOIN tf tb ON tb.doc_id = ta.doc_id AND tb.term = 'join'
  JOIN df dfa ON dfa.term = 'spark'
  JOIN df dfb ON dfb.term = 'join'
  JOIN dl ON dl.doc_id = ta.doc_id
  JOIN (SELECT a.doc_id, min(abs(a.pos - b.pos))::BIGINT AS dmin
        FROM tokpos a JOIN tokpos b ON b.doc_id = a.doc_id
        WHERE a.term = 'spark' AND b.term = 'join'
        GROUP BY a.doc_id) md ON md.doc_id = ta.doc_id
  CROSS JOIN stats s
  WHERE ta.term = 'spark'
  UNION ALL
  SELECT 'p2' AS query_id, ta.doc_id,
         ((ta.tf * 2.2 / (ta.tf + 1.2 * (0.25 + 0.75 * dl.dl / s.avgdl)) * ln(1 + (s.n_docs - dfa.df + 0.5) / (dfa.df + 0.5)))
          + (tb.tf * 2.2 / (tb.tf + 1.2 * (0.25 + 0.75 * dl.dl / s.avgdl)) * ln(1 + (s.n_docs - dfb.df + 0.5) / (dfb.df + 0.5))))
         + 1.0 / (1.0 + md.dmin) AS score
  FROM tf ta
  JOIN tf tb ON tb.doc_id = ta.doc_id AND tb.term = 'stream'
  JOIN df dfa ON dfa.term = 'window'
  JOIN df dfb ON dfb.term = 'stream'
  JOIN dl ON dl.doc_id = ta.doc_id
  JOIN (SELECT a.doc_id, min(abs(a.pos - b.pos))::BIGINT AS dmin
        FROM tokpos a JOIN tokpos b ON b.doc_id = a.doc_id
        WHERE a.term = 'window' AND b.term = 'stream'
        GROUP BY a.doc_id) md ON md.doc_id = ta.doc_id
  CROSS JOIN stats s
  WHERE ta.term = 'window'
  UNION ALL
  SELECT 'p3' AS query_id, ta.doc_id,
         ((ta.tf * 2.2 / (ta.tf + 1.2 * (0.25 + 0.75 * dl.dl / s.avgdl)) * ln(1 + (s.n_docs - dfa.df + 0.5) / (dfa.df + 0.5)))
          + (tb.tf * 2.2 / (tb.tf + 1.2 * (0.25 + 0.75 * dl.dl / s.avgdl)) * ln(1 + (s.n_docs - dfb.df + 0.5) / (dfb.df + 0.5))))
         + 1.0 / (1.0 + md.dmin) AS score
  FROM tf ta
  JOIN tf tb ON tb.doc_id = ta.doc_id AND tb.term = 'agg'
  JOIN df dfa ON dfa.term = 'hash'
  JOIN df dfb ON dfb.term = 'agg'
  JOIN dl ON dl.doc_id = ta.doc_id
  JOIN (SELECT a.doc_id, min(abs(a.pos - b.pos))::BIGINT AS dmin
        FROM tokpos a JOIN tokpos b ON b.doc_id = a.doc_id
        WHERE a.term = 'hash' AND b.term = 'agg'
        GROUP BY a.doc_id) md ON md.doc_id = ta.doc_id
  CROSS JOIN stats s
  WHERE ta.term = 'hash'),
ranked AS (
  SELECT query_id, doc_id, score,
         row_number() OVER (PARTITION BY query_id ORDER BY score DESC, doc_id) AS rnk
  FROM scores)
SELECT query_id, cast(rnk AS INT) AS rank, doc_id, round(score, 4) AS score
FROM ranked WHERE rnk <= {BM25_TOP_K}
""".format(TRANSCRIPTS_CTE=TRANSCRIPTS_CTE, TOKPOS_CTE=TOKPOS_CTE, BM25_TOP_K=BM25_TOP_K),
        # context budget: per-conv running dl-parity token sum, first
        # turn crossing the budget (-1 none).
        "context_overflow": f"""
WITH {TRANSCRIPTS_CTE},
dlz AS (
  SELECT t.doc_id, t.conv_id, t.turn_idx, coalesce(d.dl, 0) AS ntok
  FROM transcripts t LEFT JOIN dl d USING (doc_id)),
cum AS (
  SELECT conv_id, turn_idx, ntok,
         sum(ntok) OVER (PARTITION BY conv_id ORDER BY turn_idx
                         ROWS UNBOUNDED PRECEDING) AS run_cum
  FROM dlz)
SELECT conv_id, count(*)::BIGINT AS n_turns,
       cast(max(run_cum) AS BIGINT) AS total_tokens,
       cast(coalesce(min(turn_idx) FILTER (run_cum > {_CTX_BUDGET}), -1) AS BIGINT)
         AS overflow_turn
FROM cum GROUP BY conv_id
""",
        # agent tool analytics: tool column derived from doc_id %% 8 (the
        # transcripts source contract), tool-role turns only.
        "tool_stats": """
WITH {TRANSCRIPTS_CTE},
tl AS (
  SELECT conv_id, turn_idx, text,
         (['','search','calculator','browser','python','sql','shell','editor'])[cast(doc_id % 8 AS INT) + 1] AS tool
  FROM transcripts WHERE role = 'tool')
SELECT tool, count(*)::BIGINT AS n_calls,
       count(DISTINCT conv_id)::BIGINT AS n_convs,
       round(sum(turn_idx) / count(*)::DOUBLE, 4) AS avg_turn_idx,
       cast(sum(length(text)) AS BIGINT) AS total_chars
FROM tl GROUP BY tool ORDER BY tool
""".format(TRANSCRIPTS_CTE=TRANSCRIPTS_CTE),
        "tool_chains": """
WITH {TRANSCRIPTS_CTE},
tl AS (
  SELECT conv_id, turn_idx,
         (['','search','calculator','browser','python','sql','shell','editor'])[cast(doc_id % 8 AS INT) + 1] AS tool
  FROM transcripts WHERE role = 'tool'),
lagd AS (
  SELECT conv_id, tool AS to_tool,
         lag(tool) OVER (PARTITION BY conv_id ORDER BY turn_idx) AS from_tool
  FROM tl)
SELECT from_tool, to_tool, count(*)::BIGINT AS n
FROM lagd WHERE from_tool IS NOT NULL GROUP BY 1, 2
""".format(TRANSCRIPTS_CTE=TRANSCRIPTS_CTE),
        # CM join-size estimate: sketch self-inner-product, min over
        # salted rows; exact = sum of squared per-key counts.
        "join_estimate": f"""
WITH kc AS (
  SELECT cast(user_id AS VARCHAR) AS k, count(*)::BIGINT AS c
  FROM events GROUP BY 1),
ex AS (SELECT cast(sum(c * c) AS BIGINT) AS exact_size FROM kc),
rows_ AS (SELECT unnest(generate_series(0, {_JE_D - 1})) AS r),
cm AS (
  SELECT r.r, cast(md5_number_upper(r.r || ':' || kc.k) % {_JE_W} AS BIGINT) AS w,
         cast(sum(kc.c) AS BIGINT) AS s
  FROM rows_ r CROSS JOIN kc
  GROUP BY 1, 2),
inner_ AS (SELECT r, cast(sum(s * s) AS BIGINT) AS ip FROM cm GROUP BY r),
est AS (SELECT min(ip) AS cm_estimate FROM inner_)
SELECT e.exact_size, t.cm_estimate::BIGINT AS cm_estimate,
       (t.cm_estimate - e.exact_size)::BIGINT AS overcount
FROM ex e CROSS JOIN est t
""",
        # SCD2: row_number-difference islands; valid_to = next run's
        # start, -1 for the open interval.
        "scd2_intervals": """
WITH o AS (
  SELECT user_id, event_type, epoch_us(ts) AS tsu, event_id,
         row_number() OVER (PARTITION BY user_id ORDER BY epoch_us(ts), event_id) AS rn,
         row_number() OVER (PARTITION BY user_id, event_type ORDER BY epoch_us(ts), event_id) AS rt
  FROM events),
isl AS (
  SELECT user_id, event_type AS status, min(tsu) AS valid_from_us,
         count(*)::BIGINT AS n_events, min(rn) AS first_rn
  FROM o GROUP BY user_id, event_type, rn - rt),
nx AS (
  SELECT i.*, lead(valid_from_us) OVER (PARTITION BY user_id ORDER BY first_rn) AS nxt
  FROM isl i)
SELECT user_id, status, valid_from_us::BIGINT AS valid_from_us,
       coalesce(nxt, -1)::BIGINT AS valid_to_us, n_events
FROM nx
""",
        # ECDF normalization: rank min-tie = count-below + 1.
        "quantile_normalize": """
WITH c AS (
  SELECT event_id, cast(round(value * 100) AS BIGINT) AS cents FROM events),
r AS (
  SELECT event_id, cents,
         rank() OVER (ORDER BY cents) - 1 AS below,
         count(*) OVER () AS n
  FROM c)
SELECT event_id, cents, round(below / n::DOUBLE, 4) AS pct FROM r
""",
        # funnel: earliest-follower LEFT JOIN chain, per-step user
        # counts + step/overall conversion rates.
        "funnel_rates": f"""
WITH s1 AS (
  SELECT user_id, min(epoch_us(ts)) AS t FROM events
  WHERE event_type = '{_FUNNEL_STEPS[0]}' GROUP BY user_id),
s2 AS (
  SELECT s1.user_id, min(epoch_us(e.ts)) AS t
  FROM s1 JOIN events e ON e.user_id = s1.user_id
    AND e.event_type = '{_FUNNEL_STEPS[1]}'
    AND epoch_us(e.ts) > s1.t AND epoch_us(e.ts) <= s1.t + {_FUNNEL_SPAN_S * 1_000_000}
  GROUP BY s1.user_id),
s3 AS (
  SELECT s2.user_id, min(epoch_us(e.ts)) AS t
  FROM s2 JOIN events e ON e.user_id = s2.user_id
    AND e.event_type = '{_FUNNEL_STEPS[2]}'
    AND epoch_us(e.ts) > s2.t AND epoch_us(e.ts) <= s2.t + {_FUNNEL_SPAN_S * 1_000_000}
  GROUP BY s2.user_id),
c AS (SELECT (SELECT count(*) FROM s1)::BIGINT AS n1,
             (SELECT count(*) FROM s2)::BIGINT AS n2,
             (SELECT count(*) FROM s3)::BIGINT AS n3)
SELECT * FROM (
  SELECT 1::BIGINT AS step, '{_FUNNEL_STEPS[0]}' AS event_type, n1 AS n_users,
         round(CASE WHEN n1 > 0 THEN n1 / greatest(n1, 1)::DOUBLE ELSE 0.0 END, 4) AS step_rate,
         round(CASE WHEN n1 > 0 THEN n1 / greatest(n1, 1)::DOUBLE ELSE 0.0 END, 4) AS overall_rate
  FROM c
  UNION ALL
  SELECT 2, '{_FUNNEL_STEPS[1]}', n2,
         round(CASE WHEN n1 > 0 THEN n2 / greatest(n1, 1)::DOUBLE ELSE 0.0 END, 4),
         round(CASE WHEN n1 > 0 THEN n2 / greatest(n1, 1)::DOUBLE ELSE 0.0 END, 4)
  FROM c
  UNION ALL
  SELECT 3, '{_FUNNEL_STEPS[2]}', n3,
         round(CASE WHEN n2 > 0 THEN n3 / greatest(n2, 1)::DOUBLE ELSE 0.0 END, 4),
         round(CASE WHEN n1 > 0 THEN n3 / greatest(n1, 1)::DOUBLE ELSE 0.0 END, 4)
  FROM c)
ORDER BY step
""",
        # cohort retention: first-event-week cohorts, weekly activity,
        # rate over cohort size.
        "cohort_retention": """
WITH uw AS (
  SELECT DISTINCT user_id,
         (epoch_us(ts) // 86400000000 - 19723) // 7 AS week
  FROM events),
first AS (SELECT user_id, min(week) AS cohort_week FROM uw GROUP BY user_id),
cells AS (
  SELECT f.cohort_week, u.week - f.cohort_week AS week_offset,
         count(*)::BIGINT AS n_active
  FROM uw u JOIN first f USING (user_id)
  GROUP BY 1, 2),
sizes AS (SELECT cohort_week, n_active AS n_cohort FROM cells WHERE week_offset = 0)
SELECT c.cohort_week::BIGINT AS cohort_week, c.week_offset::BIGINT AS week_offset,
       c.n_active, s.n_cohort,
       round(c.n_active / s.n_cohort::DOUBLE, 4) AS rate
FROM cells c JOIN sizes s USING (cohort_week)
ORDER BY cohort_week, week_offset
""",
        # tiered screening cascade: exact / jw>=tau / soundex bucket /
        # none, with the bit-parity jaro and the shared soundex chain.
        "screen_cascade": f"""
WITH {TRANSCRIPTS_CTE},
qq(query) AS (VALUES {", ".join("('" + q + "')" for q in _SCREEN_QUERIES)}),
ex AS (SELECT DISTINCT q.query FROM qq q JOIN df ON df.term = q.query),
jw AS (
  SELECT q.query, df.term,
         cast(round(jaro_winkler_similarity(q.query, df.term) * 10000) AS BIGINT) AS jwi
  FROM qq q CROSS JOIN df),
j1 AS (
  SELECT query, term, jwi FROM (
    SELECT query, term, jwi,
           row_number() OVER (PARTITION BY query ORDER BY jwi DESC, term) AS rn
    FROM jw) WHERE rn = 1),
code_t AS (
  SELECT term, substr(term, 1, 1) || substr(rpad(replace(substr(regexp_replace(regexp_replace(regexp_replace(regexp_replace(regexp_replace(regexp_replace(regexp_replace(translate(term, 'abcdefghijklmnopqrstuvwxyz', '01230120022455012623010202'), '00+', '0', 'g'), '11+', '1', 'g'), '22+', '2', 'g'), '33+', '3', 'g'), '44+', '4', 'g'), '55+', '5', 'g'), '66+', '6', 'g'), 2), '0', ''), 3, '0'), 1, 3) AS code
  FROM df WHERE regexp_matches(term, '^[a-z]+$')),
code_q AS (SELECT query, substr(query, 1, 1) || substr(rpad(replace(substr(regexp_replace(regexp_replace(regexp_replace(regexp_replace(regexp_replace(regexp_replace(regexp_replace(translate(query, 'abcdefghijklmnopqrstuvwxyz', '01230120022455012623010202'), '00+', '0', 'g'), '11+', '1', 'g'), '22+', '2', 'g'), '33+', '3', 'g'), '44+', '4', 'g'), '55+', '5', 'g'), '66+', '6', 'g'), 2), '0', ''), 3, '0'), 1, 3) AS code FROM qq),
ph AS (
  SELECT cq.query, min(ct.term) AS pterm
  FROM code_q cq JOIN code_t ct USING (code) GROUP BY cq.query)
SELECT q.query,
       CASE WHEN ex.query IS NOT NULL THEN 'exact'
            WHEN j1.jwi >= {_SCREEN_JW_TAU} THEN 'jaro'
            WHEN ph.pterm IS NOT NULL THEN 'phonetic'
            ELSE 'none' END AS tier,
       CASE WHEN ex.query IS NOT NULL THEN q.query
            WHEN j1.jwi >= {_SCREEN_JW_TAU} THEN j1.term
            WHEN ph.pterm IS NOT NULL THEN ph.pterm
            ELSE '' END AS matched,
       CASE WHEN ex.query IS NOT NULL THEN 10000
            WHEN j1.jwi >= {_SCREEN_JW_TAU} THEN j1.jwi
            ELSE 0 END::BIGINT AS jw_x1e4
FROM qq q
LEFT JOIN ex ON ex.query = q.query
LEFT JOIN j1 ON j1.query = q.query
LEFT JOIN ph ON ph.query = q.query
""",
        # pairwise Pearson of dense daily type series from integer
        # moments; float expression mirrored, round4.
        "type_correlation": """
WITH ev AS (
  SELECT event_type, epoch_us(ts) // 86400000000 - 19723 AS day FROM events),
daily AS (SELECT event_type, day, count(*)::BIGINT AS n FROM ev GROUP BY 1, 2),
dr AS (SELECT unnest(generate_series((SELECT min(day) FROM daily),
                                     (SELECT max(day) FROM daily))) AS day),
ty AS (SELECT DISTINCT event_type FROM daily),
dense AS (
  SELECT t.event_type, d.day, coalesce(da.n, 0)::BIGINT AS n
  FROM ty t CROSS JOIN dr d
  LEFT JOIN daily da ON da.event_type = t.event_type AND da.day = d.day),
pairs AS (
  SELECT a.event_type AS type_a, b.event_type AS type_b,
         count(*)::BIGINT AS n,
         cast(sum(a.n) AS BIGINT) AS sx, cast(sum(b.n) AS BIGINT) AS sy,
         cast(sum(a.n * b.n) AS BIGINT) AS sxy,
         cast(sum(a.n * a.n) AS BIGINT) AS sxx,
         cast(sum(b.n * b.n) AS BIGINT) AS syy
  FROM dense a JOIN dense b
    ON b.day = a.day AND b.event_type > a.event_type
  GROUP BY 1, 2)
SELECT type_a, type_b,
       CASE WHEN (n * sxx - sx * sx) * (n * syy - sy * sy) = 0 THEN 0.0
            ELSE round((n * sxy - sx * sy)
                       / sqrt((n * sxx - sx * sx)::DOUBLE
                              * (n * syy - sy * sy)::DOUBLE), 4) END AS r
FROM pairs ORDER BY type_a, type_b
""",
        # continuous top-k: per-day trailing-7d counts via range join,
        # rank by (count desc, type).
        "sliding_topk": f"""
WITH ev AS (
  SELECT event_type, epoch_us(ts) // 86400000000 - 19723 AS day FROM events),
daily AS (SELECT event_type, day, count(*)::BIGINT AS n FROM ev GROUP BY 1, 2),
dr AS (SELECT unnest(generate_series((SELECT min(day) FROM daily),
                                     (SELECT max(day) FROM daily))) AS day),
win AS (
  SELECT d.day, da.event_type, cast(sum(da.n) AS BIGINT) AS n_7d
  FROM dr d JOIN daily da ON da.day BETWEEN d.day - {_SLTK_WIN_D - 1} AND d.day
  GROUP BY d.day, da.event_type),
rk AS (SELECT day, event_type, n_7d,
              row_number() OVER (PARTITION BY day
                                 ORDER BY n_7d DESC, event_type) AS rn
       FROM win WHERE n_7d > 0)
SELECT day::BIGINT AS day, cast(rn AS INT) AS rank, event_type, n_7d
FROM rk WHERE rn <= {_SLTK_K} ORDER BY day, rank
""",
        # KN perplexity: val bigrams scored under the train KN LM,
        # per-bigram ln quantized x1e4 before the integer sum.
        "kn_perplexity": f"""
WITH {TRANSCRIPTS_CTE},
{TOKPOS_CTE},
spl AS (
  SELECT doc_id,
         CASE
           WHEN md5_number_upper('conv-' || lpad(cast(doc_id // 8 AS varchar), 8, '0') || '-cs') % 100 < {_CONV_SPLITS["test"]} THEN 'test'
           WHEN md5_number_upper('conv-' || lpad(cast(doc_id // 8 AS varchar), 8, '0') || '-cs') % 100 < {_CONV_SPLITS["test"] + _CONV_SPLITS["train"]} THEN 'train'
           ELSE 'val' END AS split
  FROM documents),
ewt AS (
  SELECT a.term AS s, b.term AS t, count(*)::BIGINT AS w
  FROM tokpos a
  JOIN tokpos b ON b.doc_id = a.doc_id AND b.pos = a.pos + 1
  JOIN spl ON spl.doc_id = a.doc_id AND spl.split = 'train'
  WHERE a.term <> b.term GROUP BY a.term, b.term),
lm AS (SELECT s, sum(w)::BIGINT AS cl, count(*)::BIGINT AS ot FROM ewt GROUP BY s),
rm AS (SELECT t, count(*)::BIGINT AS it FROM ewt GROUP BY t),
tt AS (SELECT count(*)::BIGINT AS n FROM ewt),
vb AS (
  SELECT a.term AS s, b.term AS t, count(*)::BIGINT AS c
  FROM tokpos a
  JOIN tokpos b ON b.doc_id = a.doc_id AND b.pos = a.pos + 1
  JOIN spl ON spl.doc_id = a.doc_id AND spl.split = 'val'
  WHERE a.term <> b.term GROUP BY a.term, b.term),
scored AS (
  SELECT vb.c,
         cast(round(ln(greatest(coalesce(e.w, 0) - {_KN_D}::DOUBLE, 0) / lm.cl
                       + {_KN_D}::DOUBLE * lm.ot / lm.cl * (rm.it / tt.n::DOUBLE))
                    * 10000) AS BIGINT) AS lp
  FROM vb
  JOIN lm ON lm.s = vb.s
  JOIN rm ON rm.t = vb.t
  LEFT JOIN ewt e ON e.s = vb.s AND e.t = vb.t
  CROSS JOIN tt),
agg AS (
  SELECT cast(coalesce(sum(c), 0) AS BIGINT) AS n_big,
         cast(coalesce(sum(c * lp), 0) AS BIGINT) AS s_lp
  FROM scored),
va AS (SELECT cast(coalesce(sum(c), 0) AS BIGINT) AS n_all FROM vb)
SELECT a.n_big AS n_val_bigrams,
       v.n_all - a.n_big AS n_oov_bigrams,
       a.s_lp AS sum_lp_x1e4,
       CASE WHEN a.n_big = 0 THEN 0.0
            ELSE round(exp(-(a.s_lp / 10000.0) / a.n_big), 4) END AS ppl
FROM agg a CROSS JOIN va v
""",
        # Flesch-Kincaid readability: RE2-parity counts + mirrored
        # float grade expression, round4.
        "readability": r"""
WITH c AS (
  SELECT doc_id,
         len(regexp_extract_all(text, '\S+'))::BIGINT AS n_words,
         len(regexp_extract_all(text, '[.!?]+'))::BIGINT AS n_sentences,
         len(regexp_extract_all(text, '[aeiouyAEIOUY]+'))::BIGINT AS n_syllables
  FROM documents)
SELECT doc_id, n_words, n_sentences, n_syllables,
       round(0.39::DOUBLE * (greatest(n_words, 1) / greatest(n_sentences, 1)::DOUBLE)
             + 11.8::DOUBLE * (greatest(n_syllables, 1) / greatest(n_words, 1)::DOUBLE)
             - 15.59::DOUBLE, 4) AS fk_grade
FROM c
""",
        # incremental dedup: delta (every 10th doc, half modified)
        # probed against the corpus md5 set.
        "dedup_incremental": """
WITH delta AS (
  SELECT doc_id,
         CASE WHEN doc_id % 20 = 10 THEN text || ' __v2' ELSE text END AS text
  FROM documents WHERE doc_id % 10 = 0),
corpus AS (SELECT DISTINCT md5(text) AS h FROM documents)
SELECT d.doc_id, md5(d.text) IN (SELECT h FROM corpus) AS known
FROM delta d ORDER BY doc_id
""",
        # incremental view maintenance: the twin is the FULL recompute,
        # proving stored-base + delta merge == full aggregation.
        "incr_agg": """
SELECT event_type,
       epoch_us(ts) // 86400000000 - 19723 AS day,
       count(*)::BIGINT AS n_events,
       cast(sum(cast(round(value * 100) AS BIGINT)) AS BIGINT) AS sum_cents
FROM events GROUP BY 1, 2
""",
        # Bloom pushdown: the pass set (incl. false positives) is a
        # deterministic function of the md5-parity bit layout.
        "bloom_prefilter": f"""
WITH rk AS (
  SELECT DISTINCT cast(s_suppkey AS VARCHAR) AS k
  FROM supplier WHERE s_suppkey % {_BLOOM_MOD} = 0),
bits AS (
  SELECT DISTINCT h FROM (
    SELECT cast(md5_number_upper(k) % {_BLOOM_M} AS BIGINT) AS h FROM rk
    UNION ALL
    SELECT cast(md5_number_upper(k || '#') % {_BLOOM_M} AS BIGINT) AS h FROM rk)),
dk AS (
  SELECT cast(l_suppkey AS VARCHAR) AS k, count(*)::BIGINT AS c
  FROM lineitem GROUP BY 1),
flags AS (
  SELECT dk.k, dk.c,
         (cast(md5_number_upper(dk.k) % {_BLOOM_M} AS BIGINT) IN (SELECT h FROM bits)
          AND cast(md5_number_upper(dk.k || '#') % {_BLOOM_M} AS BIGINT) IN (SELECT h FROM bits)) AS pass,
         dk.k IN (SELECT k FROM rk) AS istrue
  FROM dk),
agg AS (
  SELECT cast(sum(c) AS BIGINT) AS n_left,
         cast(coalesce(sum(c) FILTER (pass), 0) AS BIGINT) AS n_bloom_pass,
         cast(coalesce(sum(c) FILTER (istrue), 0) AS BIGINT) AS n_true_match
  FROM flags)
SELECT n_left, n_bloom_pass, n_true_match,
       n_bloom_pass - n_true_match AS n_false_pos,
       CASE WHEN n_left = n_true_match THEN 0.0
            ELSE round((n_bloom_pass - n_true_match)
                       / (n_left - n_true_match)::DOUBLE, 4) END AS false_pos_rate
FROM agg
""",
        # LTR features: per (query, top-20 doc) the classic feature
        # vector recomputed from the tf/df/dl CTEs; rank by the
        # engine's (round4 score desc, doc_id) rule.
        "ltr_features": f"""
WITH {TRANSCRIPTS_CTE},
qterms(query_id, term) AS (VALUES {qterms}),
scored AS (
  SELECT q.query_id, tf.doc_id,
         sum( ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
              * tf.tf * {_K1 + 1.0} / (tf.tf + {_K1} * ({1.0 - _B} + {_B} * dl.dl / s.avgdl)) ) AS score,
         count(*)::BIGINT AS n_matched,
         sum(tf.tf)::BIGINT AS sum_tf,
         round(sum(ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))), 4) AS sum_idf,
         round(max(ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))), 4) AS max_idf
  FROM qterms q
  JOIN tf ON tf.term = q.term
  JOIN df ON df.term = q.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats s
  GROUP BY q.query_id, tf.doc_id),
ranked AS (
  SELECT sc.*, dl.dl,
         row_number() OVER (PARTITION BY sc.query_id
                            ORDER BY sc.score DESC, sc.doc_id) AS rnk
  FROM scored sc JOIN dl ON dl.doc_id = sc.doc_id)
SELECT query_id, doc_id, cast(rnk AS INT) AS rank,
       round(score, 4) AS bm25, n_matched, sum_tf, dl::BIGINT AS dl,
       sum_idf, max_idf
FROM ranked WHERE rnk <= {_LTR_K}
""",
        # Kneser-Ney bigrams: identical float association order over
        # integer counts, then round4 — type counts from the edge table.
        "kn_bigrams": f"""
WITH {TRANSCRIPTS_CTE},
{TOKPOS_CTE},
ew AS (
  SELECT a.term AS s, b.term AS t, count(*)::BIGINT AS w
  FROM tokpos a JOIN tokpos b ON b.doc_id = a.doc_id AND b.pos = a.pos + 1
  WHERE a.term <> b.term GROUP BY a.term, b.term),
lm AS (SELECT s, sum(w)::BIGINT AS cl, count(*)::BIGINT AS ot FROM ew GROUP BY s),
rm AS (SELECT t, count(*)::BIGINT AS it FROM ew GROUP BY t),
tt AS (SELECT count(*)::BIGINT AS n FROM ew),
scored AS (
  SELECT e.s, e.t, e.w AS n_pair,
         round(greatest(e.w - {_KN_D}::DOUBLE, 0) / lm.cl
               + {_KN_D}::DOUBLE * lm.ot / lm.cl * (rm.it / tt.n::DOUBLE), 4) AS pkn
  FROM ew e JOIN lm ON lm.s = e.s JOIN rm ON rm.t = e.t CROSS JOIN tt
  WHERE e.w >= {_KN_MIN}),
rk AS (SELECT s, t, n_pair, pkn,
              row_number() OVER (ORDER BY pkn DESC, s, t) AS rn
       FROM scored)
SELECT s, t, n_pair, pkn FROM rk WHERE rn <= 20
""",
        # interval self-join: per-user ordered-pair count + exact µs
        # gap sum within (0, Δ]; strict ts inequality (ties pair never).
        "interval_join": f"""
WITH p AS (
  SELECT a.user_id,
         epoch_us(b.ts) - epoch_us(a.ts) AS gap
  FROM events a JOIN events b
    ON b.user_id = a.user_id
   AND epoch_us(b.ts) > epoch_us(a.ts)
   AND epoch_us(b.ts) <= epoch_us(a.ts) + {_IVJ_GAP_S * 1_000_000}),
agg AS (
  SELECT user_id, count(*)::BIGINT AS n_pairs,
         cast(sum(gap) AS BIGINT) AS sum_gap_us
  FROM p GROUP BY user_id)
SELECT u.user_id AS k, coalesce(a.n_pairs, 0) AS n_pairs,
       coalesce(a.sum_gap_us, 0) AS sum_gap_us
FROM (SELECT DISTINCT user_id FROM events) u
LEFT JOIN agg a USING (user_id)
""",
        # Elias-Fano layout audit: l = bit_length(u//n)-1 via CASE
        # ladder; bytes = ceil(n*l/8) + ceil((n + (mx>>l) + 1)/8).
        "ef_bytes": f"""
WITH {TRANSCRIPTS_CTE},
agg AS (SELECT term, count(*)::BIGINT AS n, max(doc_id)::BIGINT AS mx
        FROM tf GROUP BY term),
lc AS (SELECT a.term, a.n, a.mx, s.n_docs // a.n AS r
       FROM agg a CROSS JOIN stats s),
lv AS (SELECT term, n, mx,
              greatest(0, CASE {" ".join(f"WHEN r >= {1 << k} THEN {k}" for k in range(40, 0, -1))} ELSE 0 END) AS l
       FROM lc)
SELECT term, n AS n_docs, l::BIGINT AS l,
       ((n * l + 7) // 8 + (n + (mx >> l) + 1 + 7) // 8)::BIGINT AS ef_bytes
FROM lv
""",
        # AC-tier dictionary screening: replace-trick non-overlapping
        # occurrence counts per pattern over the raw text.
        "ac_match": f"""
WITH pats(pattern) AS (VALUES {", ".join(f"('{p}')" for p in _AC_PATTERNS)}),
m AS (
  SELECT p.pattern, d.doc_id,
         (length(d.text) - length(replace(d.text, p.pattern, '')))
           // length(p.pattern) AS occ
  FROM pats p CROSS JOIN documents d)
SELECT pattern,
       cast(count(*) FILTER (occ > 0) AS BIGINT) AS n_docs,
       cast(sum(occ) AS BIGINT) AS n_occ
FROM m GROUP BY pattern
""",
        # DPO pairs: chosen/rejected assistant turns by dl-parity token
        # count, prompt = first user turn; conv-keyed assembly.
        "dpo_pairs": f"""
WITH {TRANSCRIPTS_CTE},
dlz AS (
  SELECT t.doc_id, coalesce(d.dl, 0) AS ntok
  FROM transcripts t LEFT JOIN dl d USING (doc_id)),
ast AS (
  SELECT tr.conv_id, tr.turn_idx, tr.text, z.ntok,
         row_number() OVER (PARTITION BY tr.conv_id
                            ORDER BY z.ntok DESC, tr.turn_idx) AS rc,
         row_number() OVER (PARTITION BY tr.conv_id
                            ORDER BY z.ntok ASC, tr.turn_idx DESC) AS rr,
         count(*) OVER (PARTITION BY tr.conv_id) AS na
  FROM transcripts tr JOIN dlz z USING (doc_id)
  WHERE tr.role = 'assistant'),
usr AS (
  SELECT conv_id, text AS prompt,
         row_number() OVER (PARTITION BY conv_id ORDER BY turn_idx) AS ru
  FROM transcripts WHERE role = 'user'),
ch AS (SELECT conv_id, turn_idx AS chosen_turn, text AS chosen,
              ntok AS chosen_ntok FROM ast WHERE rc = 1 AND na >= 2),
rj AS (SELECT conv_id, turn_idx AS rejected_turn, text AS rejected,
              ntok AS rejected_ntok FROM ast WHERE rr = 1)
SELECT c.conv_id, u.prompt, c.chosen, r.rejected,
       c.chosen_turn::INT AS chosen_turn,
       r.rejected_turn::INT AS rejected_turn,
       c.chosen_ntok::BIGINT AS chosen_ntok,
       r.rejected_ntok::BIGINT AS rejected_ntok
FROM ch c
JOIN rj r USING (conv_id)
JOIN usr u ON u.conv_id = c.conv_id AND u.ru = 1
""",
        # winnowing: k-gram md5 hashes, rightmost-window-min via the
        # HUGEINT (h·2^20 + inverted pos) pack, distinct picked sites.
        "winnow_fp": f"""
WITH {TRANSCRIPTS_CTE},
{TOKPOS_CTE},
grams AS (
  SELECT doc_id, pos,
         md5_number_upper(term || ' '
           || lead(term, 1) OVER w || ' '
           || lead(term, 2) OVER w) AS h
  FROM tokpos
  WINDOW w AS (PARTITION BY doc_id ORDER BY pos)
  QUALIFY lead(term, {_WIN_K - 1}) OVER w IS NOT NULL),
keys AS (
  SELECT doc_id, pos,
         min(h::HUGEINT * {_WIN_POS_CAP_SQL} + ({_WIN_POS_CAP_SQL - 1} - pos)) OVER (
           PARTITION BY doc_id ORDER BY pos
           ROWS BETWEEN {_WIN_W - 1} PRECEDING AND CURRENT ROW) AS mk
  FROM grams),
picked AS (SELECT DISTINCT doc_id, mk FROM keys)
SELECT (SELECT count(DISTINCT doc_id) FROM grams)::BIGINT AS n_docs,
       (SELECT count(*) FROM grams)::BIGINT AS n_grams,
       (SELECT count(*) FROM picked)::BIGINT AS n_fingerprints,
       (SELECT count(DISTINCT mk // {_WIN_POS_CAP_SQL}) FROM picked)::BIGINT AS n_distinct_fp
""",
        # QPP: pre-retrieval avg/max IDF + SCQ, post-retrieval NQC over
        # the top-100 raw BM25 scores — bm25_topk's score expression.
        "query_difficulty": f"""
WITH {TRANSCRIPTS_CTE},
qterms(query_id, term) AS (VALUES {qterms}),
ctf AS (SELECT term, sum(tf)::BIGINT AS cf FROM tf GROUP BY term),
pre AS (
  SELECT q.query_id,
         round(avg(ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))), 4) AS avg_idf,
         round(max(ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))), 4) AS max_idf,
         round(sum((1 + ln(c.cf)) * ln(1 + s.n_docs / df.df::DOUBLE)), 4) AS scq
  FROM qterms q
  JOIN df ON df.term = q.term
  JOIN ctf c ON c.term = q.term
  CROSS JOIN stats s
  GROUP BY q.query_id),
scores AS (
  SELECT q.query_id, tf.doc_id,
         sum( ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
              * tf.tf * {_K1 + 1.0} / (tf.tf + {_K1} * ({1.0 - _B} + {_B} * dl.dl / s.avgdl)) ) AS score
  FROM qterms q
  JOIN tf ON tf.term = q.term
  JOIN df ON df.term = q.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats s
  GROUP BY q.query_id, tf.doc_id),
topk AS (
  SELECT query_id, score,
         row_number() OVER (PARTITION BY query_id ORDER BY score DESC, doc_id) AS rnk
  FROM scores),
nqc AS (
  SELECT query_id, round(stddev_pop(score) / avg(score), 4) AS nqc
  FROM topk WHERE rnk <= {_QPP_K} GROUP BY query_id)
SELECT p.query_id, p.avg_idf, p.max_idf, p.scq, n.nqc
FROM pre p JOIN nqc n USING (query_id) ORDER BY p.query_id
""",
        # static pruning: per-term impact top-N postings survive; df
        # recomputed over survivors, N/avgdl global — mirror of
        # maintenance.static_prune_index + IndexReader df derivation.
        "static_prune": f"""
WITH {TRANSCRIPTS_CTE},
ptf AS (
  SELECT term, doc_id, tf FROM (
    SELECT term, doc_id, tf,
           row_number() OVER (PARTITION BY term ORDER BY tf DESC, doc_id) AS rn
    FROM tf) WHERE rn <= {_PRUNE_TOP_N}),
pdf AS (SELECT term, count(*)::BIGINT AS df FROM ptf GROUP BY term),
qterms(query_id, term) AS (VALUES {qterms}),
scores AS (
  SELECT q.query_id, tf.doc_id,
         sum( ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
              * tf.tf * {_K1 + 1.0} / (tf.tf + {_K1} * ({1.0 - _B} + {_B} * dl.dl / s.avgdl)) ) AS score
  FROM qterms q
  JOIN ptf tf ON tf.term = q.term
  JOIN pdf df ON df.term = q.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats s
  GROUP BY q.query_id, tf.doc_id
),
ranked AS (
  SELECT query_id, doc_id, score,
         row_number() OVER (PARTITION BY query_id ORDER BY score DESC, doc_id) AS rnk
  FROM scores
)
SELECT query_id, cast(rnk AS int) AS rank, doc_id, round(score, 4) AS score
FROM ranked WHERE rnk <= {BM25_TOP_K}
""",
        "bm25_topk": f"""
WITH {TRANSCRIPTS_CTE},
qterms(query_id, term) AS (VALUES {qterms}),
scores AS (
  SELECT q.query_id, tf.doc_id,
         sum( ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
              * tf.tf * {_K1 + 1.0} / (tf.tf + {_K1} * ({1.0 - _B} + {_B} * dl.dl / s.avgdl)) ) AS score
  FROM qterms q
  JOIN tf ON tf.term = q.term
  JOIN df ON df.term = q.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats s
  GROUP BY q.query_id, tf.doc_id
),
ranked AS (
  SELECT query_id, doc_id, score,
         row_number() OVER (PARTITION BY query_id ORDER BY score DESC, doc_id) AS rnk
  FROM scores
)
SELECT query_id, cast(rnk AS int) AS rank, doc_id, round(score, 4) AS score
FROM ranked WHERE rnk <= {BM25_TOP_K}
""",
        # LM-Dirichlet similarity module: collection LM p = cttf/Σdl,
        # per-term clamp at 0, round4-quantized rank (multi-float-sum
        # convention).
        "lmd_search": f"""
WITH {TRANSCRIPTS_CTE},
qterms(query_id, term) AS (VALUES {qterms}),
ctf AS (SELECT term, sum(tf)::DOUBLE AS cttf FROM tf GROUP BY term),
tot AS (SELECT sum(dl)::DOUBLE AS total FROM dl),
scores AS (
  SELECT q.query_id, tf.doc_id,
         sum(greatest(0.0,
             ln(1 + tf.tf / ({_LMD_MU} * (c.cttf / t.total)))
             + ln({_LMD_MU} / (dl.dl + {_LMD_MU})))) AS score
  FROM qterms q
  JOIN tf ON tf.term = q.term
  JOIN ctf c ON c.term = q.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN tot t
  GROUP BY q.query_id, tf.doc_id
),
ranked AS (
  SELECT query_id, doc_id, score,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY round(score, 4) DESC, doc_id) AS rnk
  FROM scores WHERE score > 0
)
SELECT query_id, cast(rnk AS int) AS rank, doc_id, round(score, 4) AS score
FROM ranked WHERE rnk <= {BM25_TOP_K}
""",
        # LM Jelinek-Mercer similarity: linear interpolation smoothing,
        # same collection-LM convention as lmd_search; strictly positive.
        "lmjm_search": f"""
WITH {TRANSCRIPTS_CTE},
qterms(query_id, term) AS (VALUES {qterms}),
ctf AS (SELECT term, sum(tf)::DOUBLE AS cttf FROM tf GROUP BY term),
tot AS (SELECT sum(dl)::DOUBLE AS total FROM dl),
scores AS (
  SELECT q.query_id, tf.doc_id,
         sum(ln(1.0 + ((1.0 - {_LMJM_LAMBDA}) * tf.tf / dl.dl)
                      / ({_LMJM_LAMBDA} * (c.cttf / t.total)))) AS score
  FROM qterms q
  JOIN tf ON tf.term = q.term
  JOIN ctf c ON c.term = q.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN tot t
  GROUP BY q.query_id, tf.doc_id
),
ranked AS (
  SELECT query_id, doc_id, score,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY round(score, 4) DESC, doc_id) AS rnk
  FROM scores
)
SELECT query_id, cast(rnk AS int) AS rank, doc_id, round(score, 4) AS score
FROM ranked WHERE rnk <= {BM25_TOP_K}
""",
        # Lucene classic TF-IDF similarity with exact norms:
        # sqrt(tf) · idf² · 1/sqrt(dl), idf = 1+ln((N+1)/(df+1)).
        "classic_search": f"""
WITH {TRANSCRIPTS_CTE},
qterms(query_id, term) AS (VALUES {qterms}),
idfc AS (
  SELECT df.term, 1.0 + ln((s.n_docs + 1.0) / (df.df + 1.0)) AS i
  FROM df CROSS JOIN stats s
),
scores AS (
  SELECT q.query_id, tf.doc_id,
         sum( sqrt(tf.tf) * (i.i * i.i) / sqrt(dl.dl) ) AS score
  FROM qterms q
  JOIN tf ON tf.term = q.term
  JOIN idfc i ON i.term = q.term
  JOIN dl ON dl.doc_id = tf.doc_id
  GROUP BY q.query_id, tf.doc_id
),
ranked AS (
  SELECT query_id, doc_id, score,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY round(score, 4) DESC, doc_id) AS rnk
  FROM scores
)
SELECT query_id, cast(rnk AS int) AS rank, doc_id, round(score, 4) AS score
FROM ranked WHERE rnk <= {BM25_TOP_K}
""",
        # DFR GB2 (Amati & van Rijsbergen 2002): tfn = H2 length
        # normalization, λ = F/N geometric prior, after-effect B.
        "dfr_search": f"""
WITH {TRANSCRIPTS_CTE},
qterms(query_id, term) AS (VALUES {qterms}),
ctf AS (SELECT term, sum(tf)::DOUBLE AS cttf FROM tf GROUP BY term),
base AS (
  SELECT q.query_id, tf.doc_id,
         (tf.tf * ln(1.0 + {_DFR_C} * s.avgdl / dl.dl)) / ln(2.0) AS tfn,
         c.cttf AS f, df.df AS df, s.n_docs AS nd
  FROM qterms q
  JOIN tf ON tf.term = q.term
  JOIN ctf c ON c.term = q.term
  JOIN df ON df.term = q.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats s
),
scores AS (
  SELECT query_id, doc_id,
         sum( ((f + 1.0) / (df * (tfn + 1.0)))
              * ((ln(1.0 + f / nd)
                  + tfn * ln((1.0 + f / nd) / (f / nd))) / ln(2.0)) ) AS score
  FROM base
  GROUP BY query_id, doc_id
),
ranked AS (
  SELECT query_id, doc_id, score,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY round(score, 4) DESC, doc_id) AS rnk
  FROM scores
)
SELECT query_id, cast(rnk AS int) AS rank, doc_id, round(score, 4) AS score
FROM ranked WHERE rnk <= {BM25_TOP_K}
""",
        # DFI standardized (Kocabaş et al. 2014): e = (F+1)·dl/(T+1),
        # clamp tf ≤ e, score = log2(1 + (tf−e)/√e).
        "dfi_search": f"""
WITH {TRANSCRIPTS_CTE},
qterms(query_id, term) AS (VALUES {qterms}),
ctf AS (SELECT term, sum(tf)::DOUBLE AS cttf FROM tf GROUP BY term),
tot AS (SELECT sum(dl)::DOUBLE AS total FROM dl),
base AS (
  SELECT q.query_id, tf.doc_id, tf.tf::DOUBLE AS tf,
         (c.cttf + 1.0) * dl.dl / (t.total + 1.0) AS e
  FROM qterms q
  JOIN tf ON tf.term = q.term
  JOIN ctf c ON c.term = q.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN tot t
),
scores AS (
  SELECT query_id, doc_id,
         sum( ln(1.0 + (tf - e) / sqrt(e)) / ln(2.0) ) AS score
  FROM base WHERE tf > e
  GROUP BY query_id, doc_id
),
ranked AS (
  SELECT query_id, doc_id, score,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY round(score, 4) DESC, doc_id) AS rnk
  FROM scores
)
SELECT query_id, cast(rnk AS int) AS rank, doc_id, round(score, 4) AS score
FROM ranked WHERE rnk <= {BM25_TOP_K}
""",
        # IB log-logistic (Clinchant & Gaussier 2010): tfn = H2,
        # λ = (df+1)/(N+1), score = −log2(λ/(tfn+λ)).
        "ib_search": f"""
WITH {TRANSCRIPTS_CTE},
qterms(query_id, term) AS (VALUES {qterms}),
base AS (
  SELECT q.query_id, tf.doc_id,
         (tf.tf * ln(1.0 + s.avgdl / dl.dl)) / ln(2.0) AS tfn,
         (df.df + 1.0) / (s.n_docs + 1.0) AS lam
  FROM qterms q
  JOIN tf ON tf.term = q.term
  JOIN df ON df.term = q.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats s
),
scores AS (
  SELECT query_id, doc_id,
         sum( ln((tfn + lam) / lam) / ln(2.0) ) AS score
  FROM base
  GROUP BY query_id, doc_id
),
ranked AS (
  SELECT query_id, doc_id, score,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY round(score, 4) DESC, doc_id) AS rnk
  FROM scores
)
SELECT query_id, cast(rnk AS int) AS rank, doc_id, round(score, 4) AS score
FROM ranked WHERE rnk <= {BM25_TOP_K}
""",
        # Scripted similarity instanced as pivoted TF-IDF (Singhal et
        # al. 1996): ln(1 + N/df) · tf / (tf + 0.5 + 1.5·dl/avgdl).
        "scripted_search": f"""
WITH {TRANSCRIPTS_CTE},
qterms(query_id, term) AS (VALUES {qterms}),
scores AS (
  SELECT q.query_id, tf.doc_id,
         sum( ln(1.0 + 1.0 * s.n_docs / df.df) * tf.tf
              / (tf.tf + 0.5 + 1.5 * dl.dl / s.avgdl) ) AS score
  FROM qterms q
  JOIN tf ON tf.term = q.term
  JOIN df ON df.term = q.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats s
  GROUP BY q.query_id, tf.doc_id
),
ranked AS (
  SELECT query_id, doc_id, score,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY round(score, 4) DESC, doc_id) AS rnk
  FROM scores
)
SELECT query_id, cast(rnk AS int) AS rank, doc_id, round(score, 4) AS score
FROM ranked WHERE rnk <= {BM25_TOP_K}
""",
        # Conjunctive prefix retrieval: candidate docs contain ALL query
        # prefixes in their edge-gram set; BM25 with tf=1 over the prefix
        # field; tf=1 ties rank on the quantized (rounded) score.
        "prefix_search": f"""
WITH {TRANSCRIPTS_CTE},
{EDGE_CTE},
pq(query_id, term) AS (VALUES {_prefix_values()}),
npq AS (SELECT query_id, count(*)::BIGINT AS n FROM pq GROUP BY query_id),
cand AS (
  SELECT p.query_id, e.doc_id, count(*)::BIGINT AS c
  FROM pq p JOIN edge e ON e.gram = p.term
  GROUP BY p.query_id, e.doc_id
),
alive AS (
  SELECT c.query_id, c.doc_id FROM cand c JOIN npq n ON n.query_id = c.query_id AND c.c = n.n
),
scorese AS (
  SELECT a.query_id, a.doc_id,
         sum( ln(1 + (s.n_docs - dfe.df + 0.5) / (dfe.df + 0.5))
              * {_K1 + 1.0} / (1 + {_K1} * ({1.0 - _B} + {_B} * dle.dl / s.avgdl)) ) AS score
  FROM alive a
  JOIN pq q ON q.query_id = a.query_id
  JOIN dfe ON dfe.gram = q.term
  JOIN dle ON dle.doc_id = a.doc_id
  CROSS JOIN statse s
  GROUP BY a.query_id, a.doc_id
),
rankede AS (
  SELECT query_id, doc_id, score,
         row_number() OVER (PARTITION BY query_id ORDER BY round(score, 4) DESC, doc_id) AS rnk
  FROM scorese
)
SELECT query_id, cast(rnk AS int) AS rank, doc_id, round(score, 4) AS score
FROM rankede WHERE rnk <= {BM25_TOP_K}
""",
        # Bool clauses: a candidate must match EVERY must term (count of
        # distinct matched must terms == clause size), no must_not term;
        # score sums BM25 over the distinct must ∪ should terms.
        "boolean_search": f"""
WITH {TRANSCRIPTS_CTE},
mustq(query_id, term) AS (VALUES {_bool_values("must")}),
notq(query_id, term) AS (VALUES {_bool_values("must_not")}),
scoreq(query_id, term) AS (
  VALUES {", ".join(x for x in [_bool_values("must"), _bool_values("should", minus="must")] if x != "(NULL, NULL)")}
),
nmust AS (SELECT query_id, count(*)::BIGINT AS n FROM mustq GROUP BY query_id),
cand AS (
  SELECT m.query_id, tf.doc_id, count(*)::BIGINT AS c
  FROM mustq m JOIN tf ON tf.term = m.term
  GROUP BY m.query_id, tf.doc_id
),
alive AS (
  SELECT c.query_id, c.doc_id
  FROM cand c JOIN nmust n ON n.query_id = c.query_id AND c.c = n.n
  WHERE NOT EXISTS (
    SELECT 1 FROM notq nq JOIN tf t2 ON t2.term = nq.term AND t2.doc_id = c.doc_id
    WHERE nq.query_id = c.query_id
  )
),
scores AS (
  SELECT a.query_id, a.doc_id,
         sum( ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
              * tf.tf * {_K1 + 1.0} / (tf.tf + {_K1} * ({1.0 - _B} + {_B} * dl.dl / s.avgdl)) ) AS score
  FROM alive a
  JOIN scoreq q ON q.query_id = a.query_id
  JOIN tf ON tf.term = q.term AND tf.doc_id = a.doc_id
  JOIN df ON df.term = q.term
  JOIN dl ON dl.doc_id = a.doc_id
  CROSS JOIN stats s
  GROUP BY a.query_id, a.doc_id
),
ranked AS (
  SELECT query_id, doc_id, score,
         row_number() OVER (PARTITION BY query_id ORDER BY score DESC, doc_id) AS rnk
  FROM scores
)
SELECT query_id, cast(rnk AS int) AS rank, doc_id, round(score, 4) AS score
FROM ranked WHERE rnk <= {BM25_TOP_K}
""",
        "term_dictionary": f"""
WITH {TRANSCRIPTS_CTE}
SELECT tf.term AS term, count(*)::BIGINT AS df, sum(tf.tf)::BIGINT AS cf
FROM tf GROUP BY tf.term
""",
        "corpus_stats": f"""
WITH {TRANSCRIPTS_CTE}
SELECT s.n_docs AS n_docs, round(s.avgdl, 4) AS avgdl,
       (SELECT sum(tf) FROM tf)::BIGINT AS total_tokens
FROM stats s
""",
        "role_doclen": f"""
WITH {TRANSCRIPTS_CTE}
SELECT t.role AS role, count(*)::BIGINT AS n_docs, round(avg(dl.dl), 4) AS avg_dl
FROM transcripts t JOIN dl ON dl.doc_id = t.doc_id
GROUP BY t.role
""",
        "top_terms": f"""
WITH {TRANSCRIPTS_CTE}
SELECT tf.term AS term, count(*)::BIGINT AS df, sum(tf.tf)::BIGINT AS cf
FROM tf GROUP BY tf.term
ORDER BY cf DESC, term ASC LIMIT 20
""",
        "exact_dedup": """
SELECT md5(text) AS text_md5, min(doc_id)::BIGINT AS keep_doc_id, count(*)::BIGINT AS n_dups
FROM documents GROUP BY md5(text)
""",
        "text_quality": f"""
WITH {TRANSCRIPTS_CTE},
per_doc AS (
  SELECT doc_id, count(*)::BIGINT AS n_tokens, count(DISTINCT term)::BIGINT AS n_uniq,
         sum(length(term))::BIGINT AS sum_len
  FROM tok GROUP BY doc_id
)
SELECT d.doc_id,
       coalesce(p.n_tokens, 0)::BIGINT AS n_tokens,
       coalesce(p.n_uniq, 0)::BIGINT AS n_uniq,
       length(d.text)::BIGINT AS n_chars,
       round(coalesce(p.sum_len / p.n_tokens, 0), 4) AS avg_token_len,
       round(coalesce(p.n_uniq / p.n_tokens, 0), 4) AS uniq_ratio
FROM documents d LEFT JOIN per_doc p USING (doc_id)
""",
        "langid": f"""
WITH {TRANSCRIPTS_CTE},
marks AS (
  SELECT d.doc_id,
    sum(CASE WHEN t.term IN ('the','a','is','to','of','and') THEN 1 ELSE 0 END)::BIGINT AS en,
    sum(CASE WHEN t.term IN ('der','die','das','und','ist','ein') THEN 1 ELSE 0 END)::BIGINT AS de,
    sum(CASE WHEN t.term IN ('el','la','los','que','es','una') THEN 1 ELSE 0 END)::BIGINT AS es,
    sum(CASE WHEN t.term IN ('le','les','des','est','une','dans') THEN 1 ELSE 0 END)::BIGINT AS fr,
    sum(CASE WHEN t.term IN ('и','в','не','на','что','это') THEN 1 ELSE 0 END)::BIGINT AS ru
  FROM documents d LEFT JOIN tok t USING (doc_id)
  GROUP BY d.doc_id
)
SELECT doc_id,
  CASE WHEN greatest(en, de, es, fr, ru) = 0 THEN 'unknown'
       WHEN en >= de AND en >= es AND en >= fr AND en >= ru THEN 'en'
       WHEN de >= es AND de >= fr AND de >= ru THEN 'de'
       WHEN es >= fr AND es >= ru THEN 'es'
       WHEN fr >= ru THEN 'fr'
       ELSE 'ru' END AS pred_lang
FROM marks
""",
        "smart_prefilter": _smart_prefilter_sql(),
        "bpe_tokens": _bpe_tokens_sql(),
        "curate_corpus": _curate_corpus_sql(),
        "decontam_hits": _decontam_hits_sql(),
        "decontam_clean": _decontam_clean_sql(),
        "highlight": _highlight_sql(),
        "tfidf_cosine": _tfidf_sql(),
        "search_facets": f"""
WITH {TRANSCRIPTS_CTE},
fq(term) AS (VALUES ('spark'), ('window')),
matching AS (SELECT DISTINCT t.doc_id FROM tok t JOIN fq USING (term))
SELECT tr.role AS facet, count(*)::BIGINT AS n_docs
FROM transcripts tr JOIN matching USING (doc_id)
GROUP BY tr.role
""",
        "quality_filter": f"""
WITH {TRANSCRIPTS_CTE},
per_doc AS (
  SELECT doc_id, count(*)::BIGINT AS n_tokens, count(DISTINCT term)::BIGINT AS n_uniq
  FROM tok GROUP BY doc_id
),
q AS (
  SELECT d.doc_id, round(coalesce(p.n_uniq / p.n_tokens, 0), 4) AS uniq_ratio
  FROM documents d LEFT JOIN per_doc p USING (doc_id)
),
cut AS (SELECT quantile_disc(uniq_ratio, {QUALITY_FILTER_Q}) AS c FROM q)
SELECT q.doc_id, q.uniq_ratio FROM q, cut WHERE q.uniq_ratio >= cut.c
""",
        "validate": """
SELECT doc_id,
       NOT (text IS NULL OR length(regexp_replace(text, '^\\s+|\\s+$', '', 'g')) = 0) AS valid,
       length(text) > 10000 AS truncated,
       CASE WHEN text IS NULL OR length(regexp_replace(text, '^\\s+|\\s+$', '', 'g')) = 0
            THEN 'empty' ELSE '' END AS reject_reason
FROM documents
""",
        "cap_per_group": """
WITH ranked AS (
  SELECT user_id, event_id, value,
         row_number() OVER (PARTITION BY user_id ORDER BY value DESC, event_id ASC) AS rnk
  FROM events
)
SELECT user_id, cast(rnk AS int) AS rnk, event_id, round(value, 4) AS value
FROM ranked WHERE rnk <= 3
""",
        "asof_join": """
SELECT l.event_id, l.user_id, epoch_us(l.ts)::BIGINT AS ts_us,
       r.event_id AS matched_event_id, epoch_us(r.ts)::BIGINT AS matched_ts_us,
       round(r.value, 4) AS matched_value
FROM (SELECT * FROM events WHERE event_type = 'click') l
ASOF JOIN (SELECT * FROM events WHERE event_type = 'view') r
  ON l.user_id = r.user_id AND l.ts >= r.ts
""",
        "range_join": f"""
WITH tiers(tier, lo, hi) AS (VALUES {", ".join(f"('{t}', {lo}, {hi})" for t, lo, hi in RANGE_TIERS)})
SELECT t.tier, count(*)::BIGINT AS n_events, round(sum(e.value), 4) AS sum_value
FROM events e JOIN tiers t ON e.value >= t.lo AND e.value < t.hi
GROUP BY t.tier
""",
        "value_quantiles": f"""
WITH wide AS (
  SELECT event_type,
         {", ".join(f'quantile_disc(value, {q}) AS "{q}"' for q in QUANTILE_QS)}
  FROM events GROUP BY event_type
)
SELECT event_type, cast(q AS DOUBLE) AS q, round(value, 4) AS value
FROM (UNPIVOT wide ON {", ".join(f'"{q}"' for q in QUANTILE_QS)} INTO NAME q VALUE value)
""",
        "hopping_window": """
WITH hops(i) AS (VALUES (0), (1), (2), (3)),
w AS (
  SELECT event_type,
         ((epoch_us(ts) // 900000000) - h.i) * 900 AS window_start,
         value
  FROM events, hops h
)
SELECT event_type, window_start, count(*)::BIGINT AS n_events,
       round(sum(value), 4) AS sum_value
FROM w GROUP BY event_type, window_start
""",
        "stratified_sample": f"""
SELECT event_id, event_type, round(value, 4) AS value
FROM events
WHERE md5_number_upper(cast(event_id AS varchar) || '-s1') % 100
      < CASE event_type {" ".join(f"WHEN '{k}' THEN {v}" for k, v in SAMPLE_RATES.items())} ELSE 0 END
""",
        "sessionize": """
WITH e AS (
  SELECT user_id, ts, value,
         CASE WHEN lag(ts) OVER w IS NULL
                   OR epoch_us(ts) - epoch_us(lag(ts) OVER w) > 1800000000
              THEN 1 ELSE 0 END AS new_s
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts)
),
s AS (
  SELECT user_id, ts, value,
         sum(new_s) OVER (PARTITION BY user_id ORDER BY ts ROWS UNBOUNDED PRECEDING) - 1 AS session_idx
  FROM e
)
SELECT user_id, session_idx::BIGINT AS session_idx,
       epoch_us(min(ts))::BIGINT AS session_start_us,
       epoch_us(max(ts))::BIGINT AS session_end_us,
       count(*)::BIGINT AS n_events,
       round(sum(value), 4) AS sum_value
FROM s GROUP BY user_id, session_idx
""",
        "large_join": """
SELECT o.o_orderpriority,
       round(sum(l.l_extendedprice * (1.0 - l.l_discount)), 4) AS revenue,
       count(*)::BIGINT AS n_items
FROM lineitem l JOIN orders o ON o.o_orderkey = l.l_orderkey
GROUP BY o.o_orderpriority
""",
        "argmax_value": """
WITH ranked AS (
  SELECT event_type, event_id, value,
         row_number() OVER (PARTITION BY event_type ORDER BY value DESC, event_id) AS rn
  FROM events)
SELECT event_type, event_id::BIGINT AS best_event_id, round(value, 4) AS best_value
FROM ranked WHERE rn = 1
""",
        "value_histogram": f"""
SELECT event_type, floor(value / {_HIST_STEP})::BIGINT AS bucket, count(*)::BIGINT AS n
FROM events GROUP BY event_type, bucket
""",
        "user_overlap": f"""
WITH flags AS (
  SELECT user_id,
         max(CASE WHEN event_type = '{_OVERLAP_A}' AND value >= {_OVERLAP_MIN_VALUE} THEN 1 ELSE 0 END) AS has_a,
         max(CASE WHEN event_type = '{_OVERLAP_B}' AND value >= {_OVERLAP_MIN_VALUE} THEN 1 ELSE 0 END) AS has_b
  FROM events GROUP BY user_id)
SELECT CASE WHEN has_a = 1 AND has_b = 1 THEN 'both'
            WHEN has_a = 1 THEN 'a_only'
            WHEN has_b = 1 THEN 'b_only'
            ELSE 'neither' END AS segment,
       count(*)::BIGINT AS n_users
FROM flags GROUP BY segment
""",
        "stem_search": _stem_search_sql("ru", _CYR_FORMS_RU, _STEM_QUERIES_RU),
        "name_search": _stem_search_sql("ru_names", _NAME_FORMS_RU,
                                        _NAME_QUERIES_RU),
        "stem_search_uk": _stem_search_sql("uk", _CYR_FORMS_UK, _STEM_QUERIES_UK),
        # D5 dedup analyzer: tf collapses to 1 per (doc, multi-letter term),
        # single-letter alpha tokens (initial forms) keep multiplicity;
        # dl/avgdl/df recomputed over the deduped stream — the exact CASE
        # twin of stages/analyze._dedup_occurrences.
        "dedup_search": f"""
WITH {TRANSCRIPTS_CTE},
tfd AS (
  SELECT term, doc_id,
         CASE WHEN length(term) = 1 AND regexp_matches(term, '^\\p{{L}}$')
              THEN count(*)::BIGINT ELSE 1::BIGINT END AS tf
  FROM tok GROUP BY term, doc_id
),
dld AS (SELECT doc_id, sum(tf)::BIGINT AS dl FROM tfd GROUP BY doc_id),
statsd AS (SELECT count(*)::BIGINT AS n_docs, avg(dl) AS avgdl FROM dld),
dfd AS (SELECT term, count(*)::BIGINT AS df FROM tfd GROUP BY term),
qterms(query_id, term) AS (VALUES {qterms}),
scoresd AS (
  SELECT q.query_id, t.doc_id,
         sum( ln(1 + (s.n_docs - f.df + 0.5) / (f.df + 0.5))
              * t.tf * {_K1 + 1.0} / (t.tf + {_K1} * ({1.0 - _B} + {_B} * d.dl / s.avgdl)) ) AS score
  FROM qterms q
  JOIN tfd t ON t.term = q.term
  JOIN dfd f ON f.term = q.term
  JOIN dld d ON d.doc_id = t.doc_id
  CROSS JOIN statsd s
  GROUP BY q.query_id, t.doc_id
),
rankedd AS (
  SELECT query_id, doc_id, score,
         row_number() OVER (PARTITION BY query_id ORDER BY score DESC, doc_id) AS rnk
  FROM scoresd
)
SELECT query_id, cast(rnk AS int) AS rank, doc_id, round(score, 4) AS score
FROM rankedd WHERE rnk <= {BM25_TOP_K}
""",
        "merge_stats": f"""
WITH {TRANSCRIPTS_CTE},
parity AS (SELECT doc_id, cast((doc_id // 8) % 2 AS int) AS h FROM transcripts)
SELECT s.n_docs AS n_docs,
       (SELECT count(*) FROM dl JOIN parity USING (doc_id) WHERE h = 0)::BIGINT AS n_docs_a,
       (SELECT count(*) FROM dl JOIN parity USING (doc_id) WHERE h = 1)::BIGINT AS n_docs_b,
       round(s.avgdl, 4) AS avgdl,
       (SELECT sum(dl) FROM dl)::BIGINT AS total_tokens,
       (SELECT count(*) FROM df)::BIGINT AS n_terms,
       TRUE AS merge_consistent
FROM stats s
""",
        "nation_revenue": f"""
SELECT n.n_name,
       round(sum(l.l_extendedprice * (1.0 - l.l_discount)), 4) AS revenue,
       count(*)::BIGINT AS n_items
FROM lineitem l
JOIN orders o   ON o.o_orderkey = l.l_orderkey
JOIN customer c ON c.c_custkey = o.o_custkey
JOIN supplier s ON s.s_suppkey = l.l_suppkey
JOIN nation n   ON n.n_nationkey = c.c_nationkey
JOIN region r   ON r.r_regionkey = n.n_regionkey
WHERE r.r_name = '{_Q5_REGION}'
  AND s.s_nationkey = c.c_nationkey
  AND o.o_orderdate >= TIMESTAMP '{_Q5_LO}'
  AND o.o_orderdate <  TIMESTAMP '{_Q5_HI}'
GROUP BY n.n_name
""",
        "json_props": """
SELECT event_type,
       sum(regexp_extract(props, '"k": (\\d+)', 1)::BIGINT)::BIGINT AS sum_k,
       count(*)::BIGINT AS n_events
FROM events GROUP BY event_type
""",
        "pii_redact": _pii_sql(),
        # MLM mask plan: same splitmix64 wrap-mix key in UHUGEINT.
        "mlm_mask": f"""
WITH {TRANSCRIPTS_CTE},
{TOKPOS_CTE},
mh AS (
  SELECT doc_id, pos, length(term) AS tl,
         ((doc_id::UHUGEINT * 1048576::UHUGEINT + pos::UHUGEINT)
          * 11400714819323198485::UHUGEINT
          + 9172280023384029625::UHUGEINT)
         % 18446744073709551616::UHUGEINT AS h
  FROM tokpos
)
SELECT doc_id,
       count(*)::BIGINT AS n_tokens,
       (count(*) FILTER (WHERE h % 100 < {_MLM_RATE}))::BIGINT AS n_masked,
       coalesce(sum(pos) FILTER (WHERE h % 100 < {_MLM_RATE}), 0)::BIGINT AS mask_pos_sum,
       coalesce(sum(tl) FILTER (WHERE h % 100 < {_MLM_RATE}), 0)::BIGINT AS masked_chars
FROM mh GROUP BY doc_id ORDER BY doc_id
""",
        # identifier extraction + checksum validation: same synth text,
        # same RE2 patterns, same published checksum algorithms.
        "extract_ids": f"""
WITH base AS (
  SELECT doc_id, doc_id % 4 AS t,
         (doc_id * 48271 + 12345) AS b1,
         (doc_id * 69621 + 7) AS b2
  FROM documents
),
synth AS (
  SELECT doc_id,
    CASE t
      WHEN 0 THEN 'account inn: ' || lpad(cast(b1 % 10000000000 AS varchar), 10, '0') || ' verified'
      WHEN 1 THEN 'company edrpou: ' || lpad(cast(b1 % 100000000 AS varchar), 8, '0') || ' registry'
      WHEN 2 THEN 'entity ogrn: ' || lpad(cast(b1 % 10000000000000 AS varchar), 13, '0') || ' record'
      ELSE 'payment iban UA' || lpad(cast(b1 % 10000000000000 AS varchar), 13, '0')
           || lpad(cast(b2 % 100000000000000 AS varchar), 14, '0') || ' transfer'
    END AS text
  FROM base
),
hits AS (
  SELECT doc_id, 'inn10' AS id_type, regexp_extract(text, '\\binn[:\\s]+(\\d{{10}})\\b', 1) AS v FROM synth
  UNION ALL
  SELECT doc_id, 'edrpou', regexp_extract(text, '\\bedrpou[:\\s]+(\\d{{8}})\\b', 1) FROM synth
  UNION ALL
  SELECT doc_id, 'ogrn', regexp_extract(text, '\\bogrn[:\\s]+(\\d{{13}})\\b', 1) FROM synth
  UNION ALL
  SELECT doc_id, 'iban', regexp_extract(text, '\\b(UA\\d{{27}})\\b', 1) FROM synth
),
h AS (SELECT doc_id, id_type, v AS id_value FROM hits WHERE v <> '')
SELECT doc_id, id_type, id_value,
  (CASE id_type
     WHEN 'inn10' THEN {_ids_inn10_sql("id_value")}
     WHEN 'edrpou' THEN {_ids_edrpou_sql("id_value")}
     WHEN 'ogrn' THEN {_ids_ogrn_sql("id_value")}
     ELSE {_ids_iban_sql("id_value")}
   END)::BIGINT AS valid
FROM h ORDER BY doc_id, id_type
""",
        "repetition": """
WITH toks AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(lower(nfc_normalize(text)), '[^\\p{L}\\p{N}]+'),
                     x -> x <> '') AS l
  FROM documents),
big AS (
  SELECT doc_id, [l[i] || ' ' || l[i + 1] for i in generate_series(1, len(l) - 1)] AS bg
  FROM toks)
SELECT t.doc_id,
       len(t.l)::BIGINT AS n_tokens,
       len(list_distinct(t.l))::BIGINT AS n_distinct,
       round(CASE WHEN len(t.l) > 0
                  THEN 1.0 - len(list_distinct(t.l))::DOUBLE / len(t.l) ELSE 0.0 END, 4)
         AS dup_token_frac,
       round(CASE WHEN len(b.bg) > 0
                  THEN 1.0 - len(list_distinct(b.bg))::DOUBLE / len(b.bg) ELSE 0.0 END, 4)
         AS dup_bigram_frac
FROM toks t JOIN big b USING (doc_id)
""",
        "synonym_search": f"""
WITH {TRANSCRIPTS_CTE},
qterms(query_id, term) AS (VALUES {_syn_qterms_values()}),
scores AS (
  SELECT q.query_id, tf.doc_id,
         sum( ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
              * tf.tf * {_K1 + 1.0} / (tf.tf + {_K1} * ({1.0 - _B} + {_B} * dl.dl / s.avgdl)) ) AS score
  FROM qterms q
  JOIN tf ON tf.term = q.term
  JOIN df ON df.term = q.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats s
  GROUP BY q.query_id, tf.doc_id
),
ranked AS (
  SELECT query_id, doc_id, score,
         row_number() OVER (PARTITION BY query_id ORDER BY score DESC, doc_id) AS rnk
  FROM scores
)
SELECT query_id, cast(rnk AS int) AS rank, doc_id, round(score, 4) AS score
FROM ranked WHERE rnk <= {BM25_TOP_K}
""",
        "did_you_mean": f"""
WITH {TRANSCRIPTS_CTE},
qt(q_term) AS (VALUES {", ".join(f"('{t}')" for t in FUZZY_TERMS)}),
cand AS (
  SELECT qt.q_term, df.term, levenshtein(qt.q_term, df.term) AS dist, df.df
  FROM qt CROSS JOIN df
  WHERE levenshtein(qt.q_term, df.term) <= 2
),
best AS (
  SELECT q_term, term, dist, df,
         row_number() OVER (PARTITION BY q_term ORDER BY dist, df DESC, term) AS rn
  FROM cand
)
SELECT q_term, term AS suggestion, cast(dist AS int) AS dist, df::BIGINT AS df
FROM best WHERE rn = 1
""",
        "percolate": f"""
WITH {TRANSCRIPTS_CTE},
pqq(query_id, term) AS (VALUES {", ".join(f"('{qid}', '{t}')" for qid, text in PERC_QUERIES for t in sorted(set(text.lower().split())))}),
need AS (SELECT query_id, count(*)::BIGINT AS n FROM pqq GROUP BY query_id),
hits AS (
  SELECT q.query_id, tf.doc_id, count(DISTINCT q.term)::BIGINT AS c
  FROM pqq q JOIN tf ON tf.term = q.term
  GROUP BY q.query_id, tf.doc_id)
SELECT h.doc_id, h.query_id
FROM hits h JOIN need n ON n.query_id = h.query_id AND h.c = n.n
""",
        "conv_search": f"""
WITH {TRANSCRIPTS_CTE},
qterms(query_id, term) AS (VALUES {qterms}),
scores AS (
  SELECT q.query_id, tf.doc_id,
         sum( ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
              * tf.tf * {_K1 + 1.0} / (tf.tf + {_K1} * ({1.0 - _B} + {_B} * dl.dl / s.avgdl)) ) AS score
  FROM qterms q
  JOIN tf ON tf.term = q.term
  JOIN df ON df.term = q.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats s
  GROUP BY q.query_id, tf.doc_id
),
convs AS (
  SELECT query_id, doc_id // 8 AS conv_num, max(score) AS score,
         count(*)::BIGINT AS n_hit_turns
  FROM scores GROUP BY query_id, conv_num
),
rankedc AS (
  SELECT query_id, conv_num, score, n_hit_turns,
         row_number() OVER (PARTITION BY query_id ORDER BY score DESC, conv_num) AS rnk
  FROM convs
)
SELECT query_id, cast(rnk AS int) AS rank, conv_num, round(score, 4) AS score, n_hit_turns
FROM rankedc WHERE rnk <= {BM25_TOP_K}
""",
        "function_score": f"""
WITH {TRANSCRIPTS_CTE},
qterms(query_id, term) AS (VALUES {qterms}),
scores AS (
  SELECT q.query_id, tf.doc_id,
         sum( ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
              * tf.tf * {_K1 + 1.0} / (tf.tf + {_K1} * ({1.0 - _B} + {_B} * dl.dl / s.avgdl)) )
           * (1.0 / (1.0 + (tf.doc_id % {_FS_PERIOD}))) AS score
  FROM qterms q
  JOIN tf ON tf.term = q.term
  JOIN df ON df.term = q.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats s
  GROUP BY q.query_id, tf.doc_id
),
ranked AS (
  SELECT query_id, doc_id, score,
         row_number() OVER (PARTITION BY query_id ORDER BY score DESC, doc_id) AS rnk
  FROM scores
)
SELECT query_id, cast(rnk AS int) AS rank, doc_id, round(score, 4) AS score
FROM ranked WHERE rnk <= {BM25_TOP_K}
""",
        "sig_terms": f"""
WITH {TRANSCRIPTS_CTE},
qt(term) AS (VALUES {", ".join(f"('{t}')" for t in sorted(set(FACET_QUERY.lower().split())))}),
fg AS (SELECT DISTINCT tf.doc_id FROM tf JOIN qt ON tf.term = qt.term),
fsz AS (SELECT count(*)::DOUBLE AS f FROM fg),
fgdf AS (
  SELECT tf.term, count(DISTINCT tf.doc_id)::BIGINT AS fg_df
  FROM tf JOIN fg ON fg.doc_id = tf.doc_id GROUP BY tf.term),
j AS (
  SELECT f.term, f.fg_df, d.df AS bg_df,
         round(((f.fg_df / fs.f) - (d.df::DOUBLE / s.n_docs))
               * ((f.fg_df / fs.f) / (d.df::DOUBLE / s.n_docs)), 4) AS jlh
  FROM fgdf f JOIN df d ON d.term = f.term CROSS JOIN fsz fs CROSS JOIN stats s
  WHERE f.fg_df >= 2),
rankedj AS (
  SELECT term, fg_df, bg_df, jlh,
         row_number() OVER (ORDER BY jlh DESC, term) AS rn
  FROM j)
SELECT term, fg_df, bg_df, jlh FROM rankedj WHERE rn <= 10
""",
        "bool_msm": f"""
WITH {TRANSCRIPTS_CTE},
sq(query_id, term) AS (VALUES {_msm_should_values()}),
mq(query_id, m) AS (VALUES {_msm_min_values()}),
scoresm AS (
  SELECT q.query_id, tf.doc_id, count(DISTINCT q.term)::BIGINT AS nm,
         sum( ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
              * tf.tf * {_K1 + 1.0} / (tf.tf + {_K1} * ({1.0 - _B} + {_B} * dl.dl / s.avgdl)) ) AS score
  FROM sq q
  JOIN tf ON tf.term = q.term
  JOIN df ON df.term = q.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats s
  GROUP BY q.query_id, tf.doc_id
),
rankedm AS (
  SELECT sc.query_id, sc.doc_id, sc.score,
         row_number() OVER (PARTITION BY sc.query_id ORDER BY sc.score DESC, sc.doc_id) AS rnk
  FROM scoresm sc JOIN mq ON mq.query_id = sc.query_id
  WHERE sc.nm >= mq.m
)
SELECT query_id, cast(rnk AS int) AS rank, doc_id, round(score, 4) AS score
FROM rankedm WHERE rnk <= {BM25_TOP_K}
""",
        "search_after": f"""
WITH {TRANSCRIPTS_CTE},
qterms(query_id, term) AS (VALUES {qterms}),
scores AS (
  SELECT q.query_id, tf.doc_id,
         sum( ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
              * tf.tf * {_K1 + 1.0} / (tf.tf + {_K1} * ({1.0 - _B} + {_B} * dl.dl / s.avgdl)) ) AS score
  FROM qterms q
  JOIN tf ON tf.term = q.term
  JOIN df ON df.term = q.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats s
  GROUP BY q.query_id, tf.doc_id
),
ranked AS (
  SELECT query_id, doc_id, score,
         row_number() OVER (PARTITION BY query_id ORDER BY score DESC, doc_id) AS rnk
  FROM scores
)
SELECT query_id,
       cast((rnk - 1) // {_PAGE_SIZE} + 1 AS int) AS page,
       cast(rnk AS int) AS rank, doc_id, round(score, 4) AS score
FROM ranked WHERE rnk <= {2 * _PAGE_SIZE}
""",
        "more_like_this": f"""
WITH {TRANSCRIPTS_CTE},
seeds(seed_id) AS (VALUES {", ".join(f"({s})" for s in MLT_SEEDS)}),
cand AS (
  SELECT s.seed_id, tf.term, tf.tf, df.df,
         row_number() OVER (PARTITION BY s.seed_id
                            ORDER BY tf.tf DESC, df.df ASC, tf.term) AS rn
  FROM seeds s
  JOIN tf ON tf.doc_id = s.seed_id
  JOIN df ON df.term = tf.term
  WHERE df.df >= {_MLT_MIN_DF}
),
sel AS (SELECT seed_id, term FROM cand WHERE rn <= {_MLT_MAX_TERMS}),
scores AS (
  SELECT c.seed_id, tf.doc_id,
         sum( ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
              * tf.tf * {_K1 + 1.0} / (tf.tf + {_K1} * ({1.0 - _B} + {_B} * dl.dl / s.avgdl)) ) AS score
  FROM sel c
  JOIN tf ON tf.term = c.term
  JOIN df ON df.term = c.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats s
  WHERE tf.doc_id <> c.seed_id
  GROUP BY c.seed_id, tf.doc_id
),
ranked AS (
  SELECT seed_id, doc_id, score,
         row_number() OVER (PARTITION BY seed_id ORDER BY score DESC, doc_id) AS rnk
  FROM scores
)
SELECT seed_id::BIGINT AS seed_id, cast(rnk AS int) AS rank, doc_id,
       round(score, 4) AS score
FROM ranked WHERE rnk <= {_MLT_TOP_K}
""",
        "anti_join": """
SELECT c_mktsegment, count(*)::BIGINT AS n_customers
FROM customer c
WHERE c.c_custkey NOT IN (
  SELECT o_custkey FROM orders WHERE o_orderpriority = '1-URGENT')
GROUP BY c_mktsegment
""",
        "count_distinct": """
SELECT event_type,
       count(DISTINCT user_id)::BIGINT AS n_distinct,
       count(user_id)::BIGINT AS n_rows
FROM events GROUP BY event_type
""",
        "user_gaps": """
WITH d AS (
  SELECT user_id,
         epoch_us(ts) - lag(epoch_us(ts)) OVER (
           PARTITION BY user_id ORDER BY ts, event_id) AS gap
  FROM events)
SELECT user_id,
       count(gap)::BIGINT AS n_gaps,
       round(sum(gap) / (1000000.0 * count(gap)), 4) AS avg_gap_s,
       max(gap) / 1000000.0 AS max_gap_s
FROM d WHERE gap IS NOT NULL
GROUP BY user_id
""",
        "moving_avg": """
SELECT user_id, event_id,
       round(avg(value) OVER (
         PARTITION BY user_id ORDER BY ts, event_id
         ROWS BETWEEN 2 PRECEDING AND CURRENT ROW), 4) AS mavg
FROM events
""",
        "rollup_revenue": """
SELECT coalesce(l_returnflag, 'ALL') AS l_returnflag,
       coalesce(l_linestatus, 'ALL') AS l_linestatus,
       round(sum(rev), 4) AS revenue,
       count(*)::BIGINT AS n_rows
FROM (SELECT l_returnflag, l_linestatus,
             l_extendedprice * (1.0 - l_discount) AS rev
      FROM lineitem)
GROUP BY ROLLUP(l_returnflag, l_linestatus)
""",
        "conv_stats": """
WITH t AS (
  SELECT 'conv-' || lpad(cast(doc_id // 8 AS varchar), 8, '0') AS conv_id,
         ['','search','calculator','browser','python','sql','shell','editor'][cast(doc_id % 8 AS int) + 1] AS tool,
         doc_id * 1000000 + 1767225600000000 AS ts_us,
         text
  FROM documents)
SELECT conv_id,
       count(*)::BIGINT AS n_turns,
       sum(CASE WHEN tool <> '' THEN 1 ELSE 0 END)::BIGINT AS n_tool_turns,
       (max(ts_us) - min(ts_us)) / 1000000.0 AS span_s,
       sum(length(text))::BIGINT AS sum_chars
FROM t GROUP BY conv_id
""",
        "global_topn": """
SELECT l_orderkey, l_linenumber, l_extendedprice
FROM lineitem
ORDER BY l_extendedprice DESC, l_orderkey, l_linenumber
LIMIT 100
""",
        "interp_quantiles": """
SELECT event_type, q, round(v, 4) AS value
FROM (
  SELECT event_type,
         unnest([0.25, 0.5, 0.9]) AS q,
         unnest(quantile_cont(value, [0.25, 0.5, 0.9])) AS v
  FROM events GROUP BY event_type)
""",
        "semi_join_agg": """
SELECT l_returnflag,
       round(sum(l_quantity), 4) AS sum_qty,
       round(sum(l_extendedprice * (1.0 - l_discount)), 2) AS revenue,
       count(*)::BIGINT AS n_items
FROM lineitem
WHERE l_orderkey IN (SELECT o_orderkey FROM orders WHERE o_totalprice > 100000.0)
GROUP BY l_returnflag
""",
        "lineitem_agg": """
SELECT l_returnflag, l_linestatus,
       round(sum(l_quantity), 4) AS sum_qty,
       round(sum(l_quantity) / count(*), 4) AS avg_qty,
       round(sum(l_extendedprice) / count(*), 4) AS avg_price,
       round(sum(l_extendedprice * (1.0 - l_discount)), 2) AS sum_rev,
       count(*)::BIGINT AS n_rows
FROM lineitem
GROUP BY l_returnflag, l_linestatus
""",
        "segment_revenue": """
SELECT c.c_mktsegment AS mktsegment, count(*)::BIGINT AS n_orders,
       round(sum(o.o_totalprice), 2) AS total_price
FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
GROUP BY c.c_mktsegment
""",
        "bm25_confidence": f"""
WITH {TRANSCRIPTS_CTE},
qterms(query_id, term) AS (VALUES {qterms}),
scores AS (
  SELECT q.query_id, tf.doc_id,
         sum( ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
              * tf.tf * {_K1 + 1.0} / (tf.tf + {_K1} * ({1.0 - _B} + {_B} * dl.dl / s.avgdl)) ) AS score
  FROM qterms q
  JOIN tf ON tf.term = q.term
  JOIN df ON df.term = q.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats s
  GROUP BY q.query_id, tf.doc_id
),
ranked AS (
  SELECT query_id, doc_id, round(score, 4) AS score4,
         row_number() OVER (PARTITION BY query_id ORDER BY score DESC, doc_id) AS rnk
  FROM scores
),
topk AS (SELECT * FROM ranked WHERE rnk <= {BM25_TOP_K})
SELECT query_id, cast(rnk AS int) AS rank, doc_id,
       round(score4 / max(score4) OVER (PARTITION BY query_id), 4) AS confidence
FROM topk
""",
        "ngram_bm25": f"""
WITH {TRANSCRIPTS_CTE},
{TRIGRAM_CTE},
{_ngram_ranked_sql(NGRAM_QUERIES)}
SELECT query_id, cast(rnk AS int) AS rank, doc_id, round(score, 4) AS score
FROM ranked3 WHERE rnk <= {BM25_TOP_K}
""",
        "shingle_bm25": f"""
WITH {TRANSCRIPTS_CTE},
{SHINGLE_CTE},
qsh(query_id, term) AS (VALUES {_qshingles_values()}),
shscores AS (
  SELECT q.query_id, tf.doc_id,
         sum( ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
              * tf.tf * {_K1 + 1.0} / (tf.tf + {_K1} * ({1.0 - _B} + {_B} * dl.dl / s.avgdl)) ) AS score
  FROM qsh q
  JOIN shtf tf ON tf.term = q.term
  JOIN shdf df ON df.term = q.term
  JOIN shdl dl ON dl.doc_id = tf.doc_id
  CROSS JOIN shstats s
  GROUP BY q.query_id, tf.doc_id
),
shranked AS (
  -- quantized ordering (round(score,4) + doc_id): duplicate documents
  -- produce EXACT score ties the float summation order must not flip
  SELECT query_id, doc_id, score,
         row_number() OVER (PARTITION BY query_id ORDER BY round(score, 4) DESC, doc_id) AS rnk
  FROM shscores
)
SELECT query_id, cast(rnk AS int) AS rank, doc_id, round(score, 4) AS score
FROM shranked WHERE rnk <= {BM25_TOP_K}
""",
        "fuzzy_expand": f"""
WITH {TRANSCRIPTS_CTE},
qt(q_term) AS (VALUES {", ".join(f"('{t}')" for t in FUZZY_TERMS)}),
cand AS (
  SELECT qt.q_term, df.term, levenshtein(qt.q_term, df.term) AS dist
  FROM qt CROSS JOIN df
  WHERE levenshtein(qt.q_term, df.term) <= 2
),
rankedf AS (
  SELECT q_term, term, dist,
         row_number() OVER (PARTITION BY q_term ORDER BY dist, term) AS rnk
  FROM cand
)
SELECT q_term, cast(rnk AS int) AS rnk, term, cast(dist AS int) AS dist
FROM rankedf WHERE rnk <= 5
""",
        "hybrid_rrf": f"""
WITH {TRANSCRIPTS_CTE},
{TRIGRAM_CTE},
qterms(query_id, term) AS (VALUES {qterms}),
scores AS (
  SELECT q.query_id, tf.doc_id,
         sum( ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
              * tf.tf * {_K1 + 1.0} / (tf.tf + {_K1} * ({1.0 - _B} + {_B} * dl.dl / s.avgdl)) ) AS score
  FROM qterms q
  JOIN tf ON tf.term = q.term
  JOIN df ON df.term = q.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats s
  GROUP BY q.query_id, tf.doc_id
),
ranked AS (
  SELECT query_id, doc_id,
         row_number() OVER (PARTITION BY query_id ORDER BY score DESC, doc_id) AS rnk
  FROM scores
),
{_ngram_ranked_sql(BM25_QUERIES)},
lexk AS (SELECT query_id, doc_id, rnk FROM ranked WHERE rnk <= {BM25_TOP_K}),
ngrk AS (SELECT query_id, doc_id, rnk FROM ranked3 WHERE rnk <= {BM25_TOP_K}),
rrf AS (
  SELECT coalesce(l.query_id, n.query_id) AS query_id,
         coalesce(l.doc_id, n.doc_id) AS doc_id,
         coalesce(1.0 / ({_RRF_K} + l.rnk), 0) + coalesce(1.0 / ({_RRF_K} + n.rnk), 0) AS rrf
  FROM lexk l FULL JOIN ngrk n ON l.query_id = n.query_id AND l.doc_id = n.doc_id
),
rranked AS (
  SELECT query_id, doc_id, rrf,
         row_number() OVER (PARTITION BY query_id ORDER BY rrf DESC, doc_id) AS rnk
  FROM rrf
)
SELECT query_id, cast(rnk AS int) AS rank, doc_id, round(rrf, 6) AS rrf_score
FROM rranked WHERE rnk <= {BM25_TOP_K}
""",
        "post_filter": f"""
WITH {TRANSCRIPTS_CTE},
qterms(query_id, term) AS (VALUES {qterms}),
scores AS (
  SELECT q.query_id, tf.doc_id,
         sum( ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
              * tf.tf * {_K1 + 1.0} / (tf.tf + {_K1} * ({1.0 - _B} + {_B} * dl.dl / s.avgdl)) ) AS score
  FROM qterms q
  JOIN tf ON tf.term = q.term
  JOIN df ON df.term = q.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats s
  GROUP BY q.query_id, tf.doc_id
),
ranked AS (
  SELECT query_id, doc_id, round(score, 4) AS score4,
         row_number() OVER (PARTITION BY query_id ORDER BY score DESC, doc_id) AS rnk
  FROM scores
),
topk AS (SELECT * FROM ranked WHERE rnk <= {BM25_TOP_K}),
kept AS (
  SELECT t.query_id, t.doc_id, tr.role,
         round(t.score4 * (CASE WHEN tr.role = '{_POST_BOOST_ROLE}' THEN {_POST_BOOST} ELSE 1.0 END), 4) AS boosted_score
  FROM topk t JOIN transcripts tr ON tr.doc_id = t.doc_id
  WHERE t.score4 >= {_POST_MIN_SCORE}
    AND tr.role IN ({", ".join(f"'{r}'" for r in _POST_ROLES)})
),
rr AS (
  SELECT query_id, doc_id, role, boosted_score,
         row_number() OVER (PARTITION BY query_id ORDER BY boosted_score DESC, doc_id) AS rnk
  FROM kept
)
SELECT query_id, cast(rnk AS int) AS rank, doc_id, role, boosted_score
FROM rr WHERE rnk <= {BM25_TOP_K}
""",
        "phrase_search": f"""
WITH {TRANSCRIPTS_CTE},
{TOKPOS_CTE},
qterms(query_id, term) AS (VALUES {_phrase_qterms_values()}),
scores AS (
  SELECT q.query_id, tf.doc_id,
         sum( ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
              * tf.tf * {_K1 + 1.0} / (tf.tf + {_K1} * ({1.0 - _B} + {_B} * dl.dl / s.avgdl)) ) AS score
  FROM qterms q
  JOIN tf ON tf.term = q.term
  JOIN df ON df.term = q.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats s
  GROUP BY q.query_id, tf.doc_id
),
matches AS ({_phrase_matches_sql()}),
rankedp AS (
  SELECT m.query_id, m.doc_id, s.score,
         row_number() OVER (PARTITION BY m.query_id ORDER BY s.score DESC, m.doc_id) AS rnk
  FROM matches m JOIN scores s ON s.query_id = m.query_id AND s.doc_id = m.doc_id
)
SELECT query_id, cast(rnk AS int) AS rank, doc_id, round(score, 4) AS score
FROM rankedp WHERE rnk <= {BM25_TOP_K}
""",
        "tiered_search": f"""
WITH {TRANSCRIPTS_CTE},
{TRIGRAM_CTE},
{TOKPOS_CTE},
qterms(query_id, term) AS (VALUES {_tiered_qterms_values()}),
scores AS (
  SELECT q.query_id, tf.doc_id,
         sum( ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
              * tf.tf * {_K1 + 1.0} / (tf.tf + {_K1} * ({1.0 - _B} + {_B} * dl.dl / s.avgdl)) ) AS score
  FROM qterms q
  JOIN tf ON tf.term = q.term
  JOIN df ON df.term = q.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats s
  GROUP BY q.query_id, tf.doc_id
),
ranked AS (
  SELECT query_id, doc_id, score,
         row_number() OVER (PARTITION BY query_id ORDER BY score DESC, doc_id) AS rnk
  FROM scores
),
{_ngram_ranked_sql(TIERED_QUERIES)},
matches AS ({_phrase_matches_sql(TIERED_QUERIES)}),
phrk AS (
  SELECT m.query_id, m.doc_id, round(s.score, 4) AS s
  FROM matches m JOIN scores s ON s.query_id = m.query_id AND s.doc_id = m.doc_id
),
wordk AS (SELECT query_id, doc_id, round(score, 4) AS s FROM ranked WHERE rnk <= {BM25_TOP_K}),
ngrk AS (SELECT query_id, doc_id, round(score, 4) AS s FROM ranked3 WHERE rnk <= {BM25_TOP_K}),
all_tiers AS (
  SELECT query_id, doc_id, 1 AS tier, s FROM phrk
  UNION ALL SELECT query_id, doc_id, 2, s FROM wordk
  UNION ALL SELECT query_id, doc_id, 3, s FROM ngrk
),
best AS (
  SELECT query_id, doc_id, tier, s,
         row_number() OVER (PARTITION BY query_id, doc_id ORDER BY tier) AS dup
  FROM all_tiers
),
finalt AS (
  SELECT query_id, doc_id, tier, s,
         row_number() OVER (PARTITION BY query_id ORDER BY tier, s DESC, doc_id) AS rnk
  FROM best WHERE dup = 1
)
SELECT query_id, cast(rnk AS int) AS rank, cast(tier AS int) AS tier, doc_id, s AS score
FROM finalt WHERE rnk <= {BM25_TOP_K}
""",
        "hybrid_weighted": f"""
WITH {TRANSCRIPTS_CTE},
{TRIGRAM_CTE},
qterms(query_id, term) AS (VALUES {qterms}),
scores AS (
  SELECT q.query_id, tf.doc_id,
         sum( ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
              * tf.tf * {_K1 + 1.0} / (tf.tf + {_K1} * ({1.0 - _B} + {_B} * dl.dl / s.avgdl)) ) AS score
  FROM qterms q
  JOIN tf ON tf.term = q.term
  JOIN df ON df.term = q.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats s
  GROUP BY q.query_id, tf.doc_id
),
ranked AS (
  SELECT query_id, doc_id, score,
         row_number() OVER (PARTITION BY query_id ORDER BY score DESC, doc_id) AS rnk
  FROM scores
),
{_ngram_ranked_sql(BM25_QUERIES)},
wordk AS (SELECT query_id, doc_id, round(score, 4) AS s FROM ranked WHERE rnk <= {BM25_TOP_K}),
ngrk AS (SELECT query_id, doc_id, round(score, 4) AS s FROM ranked3 WHERE rnk <= {BM25_TOP_K}),
wn AS (SELECT query_id, doc_id, s / max(s) OVER (PARTITION BY query_id) AS n FROM wordk),
nn AS (SELECT query_id, doc_id, s / max(s) OVER (PARTITION BY query_id) AS n FROM ngrk),
fusedw AS (
  SELECT coalesce(w.query_id, g.query_id) AS query_id,
         coalesce(w.doc_id, g.doc_id) AS doc_id,
         coalesce(w.n * {_FUSE_W_LEX}, 0) + coalesce(g.n * {_FUSE_W_NGRAM}, 0)
           + (CASE WHEN w.doc_id IS NOT NULL AND g.doc_id IS NOT NULL THEN {_FUSE_SHARED} ELSE 0 END) AS f
  FROM wn w FULL JOIN nn g ON g.query_id = w.query_id AND g.doc_id = w.doc_id
),
rankedw AS (
  SELECT query_id, doc_id, f,
         row_number() OVER (PARTITION BY query_id ORDER BY f DESC, doc_id) AS rnk
  FROM fusedw
)
SELECT query_id, cast(rnk AS int) AS rank, doc_id, round(f, 6) AS fused_score
FROM rankedw WHERE rnk <= {BM25_TOP_K}
""",
        "jaccard_pairs": f"""
WITH {TRANSCRIPTS_CTE},
{TOKPOS_CTE},
sh AS (
  SELECT DISTINCT a.doc_id, a.term || ' ' || b.term || ' ' || c.term AS sh
  FROM tokpos a
  JOIN tokpos b ON b.doc_id = a.doc_id AND b.pos = a.pos + 1
  JOIN tokpos c ON c.doc_id = a.doc_id AND c.pos = a.pos + 2
  WHERE a.doc_id < {_JACCARD_DOCS}
),
cnt AS (SELECT doc_id, count(*)::BIGINT AS c FROM sh GROUP BY doc_id),
inter AS (
  SELECT x.doc_id AS a, y.doc_id AS b, count(*)::BIGINT AS i
  FROM sh x JOIN sh y ON y.sh = x.sh AND y.doc_id > x.doc_id
  GROUP BY x.doc_id, y.doc_id
),
j AS (
  SELECT i.a AS doc_a, i.b AS doc_b,
         round(i.i * 1.0 / (ca.c + cb.c - i.i), 6) AS jaccard
  FROM inter i JOIN cnt ca ON ca.doc_id = i.a JOIN cnt cb ON cb.doc_id = i.b
)
SELECT doc_a, doc_b, jaccard FROM j WHERE jaccard >= {_JACCARD_MIN}
""",
        # Transitive closure of the same exact-Jaccard edge relation the Ray
        # path feeds to large-star/small-star connected components: recursive
        # reachability, component id = min reachable node; singletons seed
        # themselves so every document is covered.
        "dup_clusters": f"""
WITH RECURSIVE {TRANSCRIPTS_CTE},
{TOKPOS_CTE},
{_clusters_reach_sql()}
SELECT src AS doc_id, min(dst)::BIGINT AS cluster_id FROM reach GROUP BY src
""",
        # keep-best representative per near-dup cluster: (n_tokens desc,
        # doc_id asc), token-less docs count 0.
        "dedup_keep_best": f"""
WITH RECURSIVE {TRANSCRIPTS_CTE},
{TOKPOS_CTE},
{_clusters_reach_sql()},
clusters AS (SELECT src AS doc_id, min(dst)::BIGINT AS cluster_id FROM reach GROUP BY src),
rankedc AS (
  SELECT c.cluster_id, c.doc_id, coalesce(dl.dl, 0)::BIGINT AS n_tokens,
         row_number() OVER (PARTITION BY c.cluster_id
                            ORDER BY coalesce(dl.dl, 0) DESC, c.doc_id) AS rn
  FROM clusters c LEFT JOIN dl ON dl.doc_id = c.doc_id
)
SELECT cluster_id, doc_id, n_tokens FROM rankedc WHERE rn = 1
""",
        # has_parent: conv score = max turn BM25; top-3 convs expanded to
        # all their turns, parent score inherited.
        "has_parent": f"""
WITH {TRANSCRIPTS_CTE},
qterms(query_id, term) AS (VALUES {_values_from(TOP_HITS_QUERIES)}),
{_BM25_SCORES_CTE},
convs AS (
  SELECT s.query_id, t.conv_id, max(s.score) AS score
  FROM scores s JOIN transcripts t ON t.doc_id = s.doc_id
  GROUP BY s.query_id, t.conv_id
),
rankedc AS (
  SELECT query_id, conv_id, score,
         row_number() OVER (PARTITION BY query_id ORDER BY score DESC, conv_id) AS rnk
  FROM convs
)
SELECT r.query_id, cast(r.rnk AS int) AS rank, r.conv_id, t.doc_id, round(r.score, 4) AS score
FROM rankedc r JOIN transcripts t ON t.conv_id = r.conv_id
WHERE r.rnk <= 3
""",
        # has_child score_mode=avg + min_children=2: mean matching-turn
        # BM25 per conversation, child-count constraint, quantized rank.
        "has_child": f"""
WITH {TRANSCRIPTS_CTE},
qterms(query_id, term) AS (VALUES {qterms}),
scores AS (
  SELECT q.query_id, tf.doc_id,
         sum( ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
              * tf.tf * {_K1 + 1.0} / (tf.tf + {_K1} * ({1.0 - _B} + {_B} * dl.dl / s.avgdl)) ) AS score
  FROM qterms q
  JOIN tf ON tf.term = q.term
  JOIN df ON df.term = q.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats s
  GROUP BY q.query_id, tf.doc_id
),
convs AS (
  SELECT query_id, doc_id // 8 AS conv_num,
         round(sum(score) / count(*), 4) AS score,
         count(*)::BIGINT AS n_hit_turns
  FROM scores GROUP BY query_id, conv_num
  HAVING count(*) >= 2
),
rankedc AS (
  SELECT query_id, conv_num, score, n_hit_turns,
         row_number() OVER (PARTITION BY query_id ORDER BY score DESC, conv_num) AS rnk
  FROM convs
)
SELECT query_id, cast(rnk AS int) AS rank, conv_num, score, n_hit_turns
FROM rankedc WHERE rnk <= {BM25_TOP_K}
""",
        # partition-window aggregates attached to rows (OVER PARTITION BY).
        "conv_enrich": f"""
WITH {TRANSCRIPTS_CTE}
SELECT doc_id, conv_id,
       (count(*) OVER (PARTITION BY conv_id))::BIGINT AS conv_n_turns,
       (sum(coalesce(length(text), 0)) OVER (PARTITION BY conv_id))::BIGINT AS conv_chars
FROM transcripts
""",
        # Self-trained bigram LM: P(w2|w1) = (c12 + k)/(cf(w1) + k·V);
        # nll = -avg ln P over the doc's bigram positions. Documents with
        # <2 tokens have no bigram rows and drop out of both sides.
        # CCNet bucketing: per-lang discrete-quantile cuts over the same
        # bigram-LM nll as lm_fluency (k = 0.5).
        "ccnet_buckets": f"""
WITH {TRANSCRIPTS_CTE},
{TOKPOS_CTE},
big AS (
  SELECT a.doc_id, a.term AS w1, b.term AS w2
  FROM tokpos a JOIN tokpos b ON b.doc_id = a.doc_id AND b.pos = a.pos + 1
),
cb AS (SELECT w1, w2, count(*)::BIGINT AS c FROM big GROUP BY w1, w2),
cu AS (SELECT term, count(*)::BIGINT AS c FROM tokpos GROUP BY term),
v AS (SELECT count(*)::BIGINT AS v FROM cu),
lmn AS (
  SELECT big.doc_id, round(-avg(ln((cb.c + 0.5) / (cu.c + 0.5 * v.v))), 4) AS nll
  FROM big
  JOIN cb ON cb.w1 = big.w1 AND cb.w2 = big.w2
  JOIN cu ON cu.term = big.w1
  CROSS JOIN v
  GROUP BY big.doc_id
),
l AS (
  SELECT m.doc_id, d.lang, m.nll, cast(round(m.nll * 10000) AS BIGINT) AS cent
  FROM lmn m JOIN documents d USING (doc_id)
),
h AS (SELECT lang, cent, count(*)::BIGINT AS c FROM l GROUP BY lang, cent),
cumh AS (
  SELECT lang, cent, c,
         sum(c) OVER (PARTITION BY lang ORDER BY cent) AS cum,
         sum(c) OVER (PARTITION BY lang) AS n
  FROM h
),
cuts AS (
  SELECT lang,
         min(CASE WHEN cum >= (n + 2) // 3 THEN cent END) AS c1,
         min(CASE WHEN cum >= (2 * n + 2) // 3 THEN cent END) AS c2
  FROM cumh GROUP BY lang
)
SELECT l.doc_id, l.lang, l.nll,
       CASE WHEN l.cent <= c.c1 THEN 'head'
            WHEN l.cent <= c.c2 THEN 'middle'
            ELSE 'tail' END AS bucket
FROM l JOIN cuts c USING (lang)
""",
        "lm_fluency": f"""
WITH {TRANSCRIPTS_CTE},
{TOKPOS_CTE},
big AS (
  SELECT a.doc_id, a.term AS w1, b.term AS w2
  FROM tokpos a JOIN tokpos b ON b.doc_id = a.doc_id AND b.pos = a.pos + 1
),
cb AS (SELECT w1, w2, count(*)::BIGINT AS c FROM big GROUP BY w1, w2),
cu AS (SELECT term, count(*)::BIGINT AS c FROM tokpos GROUP BY term),
v AS (SELECT count(*)::BIGINT AS v FROM cu)
SELECT big.doc_id,
       count(*)::BIGINT AS n_bigrams,
       round(-avg(ln((cb.c + 0.5) / (cu.c + 0.5 * v.v))), 4) AS nll
FROM big
JOIN cb ON cb.w1 = big.w1 AND cb.w2 = big.w2
JOIN cu ON cu.term = big.w1
CROSS JOIN v
GROUP BY big.doc_id
""",
        # The JSONL roundtrip must be value-exact: norms computed from the
        # re-read vectors (Ray side) equal norms from the original parquet.
        "vectors_jsonl": """
SELECT vec_id,
       len(embedding)::BIGINT AS dim,
       round(sqrt(list_sum([CAST(x AS DOUBLE) * x FOR x IN embedding])), 4) AS l2_norm
FROM embeddings
""",
        # TSDB downsample rollup: the SAME epoch_us // interval bucket
        # and exact-cents sum the engine writes to the rollup dataset.
        "downsample": f"""
SELECT (epoch_us(ts) // {_DOWNSAMPLE_US}) AS bucket,
       event_type,
       count(*)::BIGINT AS n,
       round(sum(cast(round(value * 100) AS BIGINT))::DOUBLE / 100.0, 2) AS value_sum,
       min(value) AS value_min,
       max(value) AS value_max
FROM events GROUP BY 1, 2 ORDER BY 1, 2
""",
        # ip_range: derived uint32 IPs, [from, to) buckets in config order.
        "ip_range": f"""
WITH ips AS (
  SELECT (event_id * 2654435761) % 4294967296 AS ip FROM events
),
r(key, lo, hi) AS (VALUES {", ".join(
    f"('{('*' if lo is None else f'{(lo>>24)&255}.{(lo>>16)&255}.{(lo>>8)&255}.{lo&255}')}-"
    f"{('*' if hi is None else f'{(hi>>24)&255}.{(hi>>16)&255}.{(hi>>8)&255}.{hi&255}')}', "
    f"{-1 if lo is None else lo}, {4294967296 if hi is None else hi})"
    for lo, hi in _IP_RANGES)})
SELECT r.key, (SELECT count(*) FROM ips WHERE ip >= r.lo AND ip < r.hi)::BIGINT AS doc_count
FROM r
""",
        # ip_prefix (/8): first-octet subnets, top by count.
        "ip_prefix": f"""
WITH nets AS (
  SELECT ((event_id * 2654435761) % 4294967296) // {1 << (32 - _IP_PREFIX_LEN)} AS net
  FROM events
)
SELECT cast(net AS varchar) || '.0.0.0/{_IP_PREFIX_LEN}' AS subnet,
       count(*)::BIGINT AS doc_count
FROM nets GROUP BY net
ORDER BY doc_count DESC, net LIMIT {_IP_PREFIX_TOP}
""",
        # geo_bounds: per-type milli-degree envelope of derived points.
        "geo_bounds": """
WITH pts AS (
  SELECT event_type,
         (event_id * 7919) % 180000 - 90000 AS lat_md,
         (event_id * 104729) % 360000 - 180000 AS lon_md
  FROM events
)
SELECT event_type,
       max(lat_md)::BIGINT AS top_lat,
       min(lon_md)::BIGINT AS left_lon,
       min(lat_md)::BIGINT AS bottom_lat,
       max(lon_md)::BIGINT AS right_lon
FROM pts GROUP BY event_type ORDER BY event_type
""",
        # collapse + inner_hits: group rank by best hit, per-group top-M members.
        "collapse_inner": f"""
WITH {TRANSCRIPTS_CTE},
qterms(query_id, term) AS (VALUES {qterms}),
{_BM25_SCORES_CTE},
keyed AS (
  SELECT s.query_id, s.doc_id, s.score, t.conv_id,
         row_number() OVER (PARTITION BY s.query_id, t.conv_id ORDER BY s.score DESC, s.doc_id) AS grp_rn
  FROM scores s JOIN transcripts t ON t.doc_id = s.doc_id
),
best AS (
  SELECT query_id, conv_id,
         row_number() OVER (PARTITION BY query_id ORDER BY score DESC, doc_id) AS grank
  FROM keyed WHERE grp_rn = 1
)
SELECT k.query_id, cast(b.grank AS int) AS rank, k.conv_id,
       cast(k.grp_rn AS int) AS inner_rank, k.doc_id, round(k.score, 4) AS score
FROM keyed k JOIN best b ON b.query_id = k.query_id AND b.conv_id = k.conv_id
WHERE b.grank <= {BM25_TOP_K} AND k.grp_rn <= {_INNER_HITS_M}
""",
        # lexical diversity per source: TTR + trigram diversity ratio.
        "ngram_diversity": """
WITH arrs AS (
  SELECT doc_id, source,
         list_filter(regexp_split_to_array(lower(nfc_normalize(text)), '[^\\p{L}\\p{N}]+'), x -> x <> '') AS arr
  FROM documents
),
tokpos AS (
  SELECT doc_id, source, unnest(arr) AS term,
         unnest(generate_series(0, len(arr) - 1)) AS pos
  FROM arrs
),
tri AS (
  SELECT a.doc_id, a.source, a.term || ' ' || b.term || ' ' || c.term AS gram
  FROM tokpos a
  JOIN tokpos b ON b.doc_id = a.doc_id AND b.pos = a.pos + 1
  JOIN tokpos c ON c.doc_id = a.doc_id AND c.pos = a.pos + 2
),
tot AS (SELECT source, count(*)::BIGINT AS n_tokens, count(DISTINCT term)::BIGINT AS n_types FROM tokpos GROUP BY source),
gt AS (SELECT source, count(*)::BIGINT AS n_grams, count(DISTINCT gram)::BIGINT AS n_distinct_grams FROM tri GROUP BY source)
SELECT t.source, t.n_tokens, t.n_types,
       round(t.n_types::DOUBLE / greatest(t.n_tokens, 1), 4) AS ttr,
       coalesce(g.n_grams, 0)::BIGINT AS n_grams,
       coalesce(g.n_distinct_grams, 0)::BIGINT AS n_distinct_grams,
       round(CASE WHEN coalesce(g.n_grams, 0) > 0
                  THEN g.n_distinct_grams::DOUBLE / g.n_grams ELSE 1.0 END, 4) AS gram_diversity
FROM tot t LEFT JOIN gt g USING (source) ORDER BY t.source
""",
        # DSIR: hashed-unigram log-ratio importance weights, top-N raw docs.
        "dsir_select": f"""
WITH {TRANSCRIPTS_CTE},
lab AS (SELECT doc_id, (lang = '{_DSIR_TARGET_LANG}') AS is_t FROM documents),
tb AS (
  SELECT t.doc_id, cast(md5_number_upper(t.term) % {_DSIR_B} AS BIGINT) AS b, l.is_t
  FROM tok t JOIN lab l USING (doc_id)
),
ct AS (SELECT b, count(*)::BIGINT AS c FROM tb WHERE is_t GROUP BY b),
cr AS (SELECT b, count(*)::BIGINT AS c FROM tb WHERE NOT is_t GROUP BY b),
nt AS (SELECT count(*)::BIGINT AS n FROM tb WHERE is_t),
nr AS (SELECT count(*)::BIGINT AS n FROM tb WHERE NOT is_t),
lr AS (
  SELECT bk.b,
         ln((coalesce(ct.c, 0) + 1)::DOUBLE / (nt.n + {_DSIR_B}))
         - ln((coalesce(cr.c, 0) + 1)::DOUBLE / (nr.n + {_DSIR_B})) AS lr
  FROM (SELECT unnest(generate_series(0, {_DSIR_B - 1}))::BIGINT AS b) bk
  LEFT JOIN ct USING (b) LEFT JOIN cr USING (b) CROSS JOIN nt CROSS JOIN nr
),
w AS (
  SELECT l.doc_id, round(coalesce(sum(lr.lr), 0.0), 4) AS logw
  FROM lab l
  LEFT JOIN tb ON tb.doc_id = l.doc_id
  LEFT JOIN lr ON lr.b = tb.b
  WHERE NOT l.is_t
  GROUP BY l.doc_id
)
SELECT doc_id, logw FROM w ORDER BY logw DESC, doc_id LIMIT {_DSIR_N}
""",
        # variable_width_histogram: equal-depth cent-cut buckets.
        "variable_width_histogram": f"""
WITH h AS (
  SELECT cast(round(value * 100) AS BIGINT) AS cent, count(*)::BIGINT AS c
  FROM events GROUP BY 1
),
cum AS (
  SELECT cent, c, sum(c) OVER (ORDER BY cent) AS cum FROM h
),
n AS (SELECT sum(c)::BIGINT AS n FROM h),
cuts AS (
  SELECT DISTINCT
         (SELECT min(cent) FROM cum WHERE cum >= ((i.i * n.n + {_VWH_BUCKETS} - 1) // {_VWH_BUCKETS})) AS cut
  FROM (SELECT unnest(generate_series(1, {_VWH_BUCKETS - 1})) AS i) i, n
),
b AS (
  SELECT (SELECT count(*) FROM cuts WHERE cut < cum.cent)::BIGINT AS bucket, cent, c FROM cum
)
SELECT bucket,
       sum(c)::BIGINT AS doc_count,
       min(cent) / 100.0 AS v_min,
       max(cent) / 100.0 AS v_max,
       round(sum(cent * c) / sum(c) / 100.0, 4) AS v_avg
FROM b GROUP BY bucket ORDER BY bucket
""",
        # constant_score: AND-filter matches, fixed boost, doc-order rank.
        "constant_score": f"""
WITH {TRANSCRIPTS_CTE},
qterms(query_id, term) AS (VALUES {qterms}),
need AS (SELECT query_id, count(DISTINCT term) AS n FROM qterms GROUP BY query_id),
hit AS (
  SELECT q.query_id, tf.doc_id
  FROM qterms q JOIN tf ON tf.term = q.term
  GROUP BY q.query_id, tf.doc_id
  HAVING count(DISTINCT tf.term) = (SELECT n FROM need WHERE need.query_id = q.query_id)
),
ranked AS (
  SELECT query_id, doc_id,
         row_number() OVER (PARTITION BY query_id ORDER BY doc_id) AS rnk
  FROM hit
)
SELECT query_id, cast(rnk AS int) AS rank, doc_id, {_CONST_BOOST} AS score
FROM ranked WHERE rnk <= {BM25_TOP_K}
""",
        # rollover generations + alias + federated read ≡ whole-corpus BM25.
        "rollover": f"""
WITH {TRANSCRIPTS_CTE},
qterms(query_id, term) AS (VALUES {qterms}),
{_BM25_SCORES_CTE},
ranked AS (
  SELECT query_id, doc_id, score,
         row_number() OVER (PARTITION BY query_id ORDER BY score DESC, doc_id) AS rnk
  FROM scores
)
SELECT query_id, cast(rnk AS int) AS rank, doc_id, round(score, 4) AS score
FROM ranked WHERE rnk <= {BM25_TOP_K}
""",
        # span_or within ordered span_near: 3-clause positional chain,
        # per-clause best-member BM25 scoring.
        # span_multi: prefix clauses expand against the term dictionary.
        "span_multi": f"""
WITH {TRANSCRIPTS_CTE},
{TOKPOS_CTE},
vocab AS (SELECT DISTINCT term FROM tok),
smspec(query_id, clause, pat, lit) AS (VALUES {_span_multi_clause_values()}),
socl AS (
  SELECT s.query_id, s.clause, v.term
  FROM smspec s JOIN vocab v
    ON (s.pat IS NOT NULL AND v.term LIKE s.pat)
    OR (s.lit IS NOT NULL AND v.term = s.lit)
),
soslop(query_id, slop) AS (VALUES {_span_multi_slop_values()}),
p1 AS (SELECT s.query_id, t.doc_id, t.pos FROM tokpos t JOIN socl s ON s.clause = 0 AND s.term = t.term),
p2 AS (SELECT s.query_id, t.doc_id, t.pos FROM tokpos t JOIN socl s ON s.clause = 1 AND s.term = t.term),
p3 AS (SELECT s.query_id, t.doc_id, t.pos FROM tokpos t JOIN socl s ON s.clause = 2 AND s.term = t.term),
hit AS (
  SELECT DISTINCT a.query_id, a.doc_id
  FROM p1 a
  JOIN soslop sl ON sl.query_id = a.query_id
  JOIN p2 b ON b.query_id = a.query_id AND b.doc_id = a.doc_id
           AND b.pos > a.pos AND b.pos <= a.pos + sl.slop + 1
  JOIN p3 c ON c.query_id = a.query_id AND c.doc_id = a.doc_id
           AND c.pos > b.pos AND c.pos <= b.pos + sl.slop + 1
),
tsc AS (
  SELECT s.query_id, s.clause, tf.doc_id,
         max( ln(1 + (st.n_docs - df.df + 0.5) / (df.df + 0.5))
              * tf.tf * {_K1 + 1.0} / (tf.tf + {_K1} * ({1.0 - _B} + {_B} * dl.dl / st.avgdl)) ) AS sc
  FROM socl s
  JOIN tf ON tf.term = s.term
  JOIN df ON df.term = s.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats st
  GROUP BY s.query_id, s.clause, tf.doc_id
),
sums AS (
  SELECT h.query_id, h.doc_id, sum(t.sc) AS score
  FROM hit h JOIN tsc t ON t.query_id = h.query_id AND t.doc_id = h.doc_id
  GROUP BY h.query_id, h.doc_id
),
rankedp AS (
  SELECT query_id, doc_id, score,
         row_number() OVER (PARTITION BY query_id ORDER BY score DESC, doc_id) AS rnk
  FROM sums
)
SELECT query_id, cast(rnk AS int) AS rank, doc_id, round(score, 4) AS score
FROM rankedp WHERE rnk <= {BM25_TOP_K}
""",
        "span_or_near": f"""
WITH {TRANSCRIPTS_CTE},
{TOKPOS_CTE},
socl(query_id, clause, term) AS (VALUES {_span_or_clause_values()}),
soslop(query_id, slop) AS (VALUES {_span_or_slop_values()}),
p1 AS (SELECT s.query_id, t.doc_id, t.pos FROM tokpos t JOIN socl s ON s.clause = 0 AND s.term = t.term),
p2 AS (SELECT s.query_id, t.doc_id, t.pos FROM tokpos t JOIN socl s ON s.clause = 1 AND s.term = t.term),
p3 AS (SELECT s.query_id, t.doc_id, t.pos FROM tokpos t JOIN socl s ON s.clause = 2 AND s.term = t.term),
hit AS (
  SELECT DISTINCT a.query_id, a.doc_id
  FROM p1 a
  JOIN soslop sl ON sl.query_id = a.query_id
  JOIN p2 b ON b.query_id = a.query_id AND b.doc_id = a.doc_id
           AND b.pos > a.pos AND b.pos <= a.pos + sl.slop + 1
  JOIN p3 c ON c.query_id = a.query_id AND c.doc_id = a.doc_id
           AND c.pos > b.pos AND c.pos <= b.pos + sl.slop + 1
),
tsc AS (
  SELECT s.query_id, s.clause, tf.doc_id,
         max( ln(1 + (st.n_docs - df.df + 0.5) / (df.df + 0.5))
              * tf.tf * {_K1 + 1.0} / (tf.tf + {_K1} * ({1.0 - _B} + {_B} * dl.dl / st.avgdl)) ) AS sc
  FROM socl s
  JOIN tf ON tf.term = s.term
  JOIN df ON df.term = s.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats st
  GROUP BY s.query_id, s.clause, tf.doc_id
),
sums AS (
  SELECT h.query_id, h.doc_id, sum(t.sc) AS score
  FROM hit h JOIN tsc t ON t.query_id = h.query_id AND t.doc_id = h.doc_id
  GROUP BY h.query_id, h.doc_id
),
rankedp AS (
  SELECT query_id, doc_id, score,
         row_number() OVER (PARTITION BY query_id ORDER BY score DESC, doc_id) AS rnk
  FROM sums
)
SELECT query_id, cast(rnk AS int) AS rank, doc_id, round(score, 4) AS score
FROM rankedp WHERE rnk <= {BM25_TOP_K}
""",
        # geo_line: ts-ordered derived-point track per user, size-capped.
        "geo_line": f"""
WITH pts AS (
  SELECT user_id, ts, event_id,
         (event_id * 7919) % 180000 - 90000 AS lat_md,
         (event_id * 104729) % 360000 - 180000 AS lon_md,
         row_number() OVER (PARTITION BY user_id ORDER BY ts, event_id) AS rn,
         count(*) OVER (PARTITION BY user_id) AS total
  FROM events
)
SELECT user_id,
       count(*)::BIGINT AS n_points,
       max(total)::BIGINT AS total_points,
       max(total) <= {_GEO_LINE_SIZE} AS complete,
       string_agg(cast(lon_md AS varchar) || ' ' || cast(lat_md AS varchar), ';' ORDER BY ts, event_id) AS line
FROM pts WHERE rn <= {_GEO_LINE_SIZE}
GROUP BY user_id ORDER BY user_id
""",
        # nested query: per-nested-doc conjunction, exact-cents stats.
        "nested_query": f"""
WITH m AS (
  SELECT user_id, cast(round(value * 100) AS BIGINT) AS c
  FROM events
  WHERE event_type = '{_NESTED_TYPE}' AND value >= {_NESTED_LO} AND value < {_NESTED_HI}
)
SELECT user_id,
       count(*)::BIGINT AS n_matched,
       max(c)::DOUBLE / 100.0 AS max_value,
       sum(c)::DOUBLE / 100.0 AS sum_value
FROM m GROUP BY user_id HAVING count(*) >= {_NESTED_MINCH}
ORDER BY n_matched DESC, user_id
""",
        # nested terms agg + reverse_nested distinct-parent counts.
        "nested_agg": f"""
SELECT event_type,
       count(*)::BIGINT AS doc_count,
       count(DISTINCT user_id)::BIGINT AS parent_count
FROM events WHERE value >= {_NESTED_AGG_MIN}
GROUP BY event_type ORDER BY doc_count DESC, event_type
""",
        "events_window": """
SELECT event_type,
       cast(floor(epoch(ts) / 3600) * 3600 AS bigint) AS window_start,
       count(*)::BIGINT AS n_events,
       round(sum(value), 4) AS sum_value
FROM events GROUP BY event_type, window_start
""",
        "embedding_neardup": f"""
WITH s AS (SELECT vec_id, embedding FROM embeddings WHERE vec_id < {_NEARDUP_MAX_ID})
SELECT a.vec_id AS vec_a, b.vec_id AS vec_b,
       round(list_cosine_similarity(a.embedding::DOUBLE[], b.embedding::DOUBLE[]), 4) AS cos_sim
FROM s a JOIN s b ON b.vec_id > a.vec_id
WHERE list_cosine_similarity(a.embedding::DOUBLE[], b.embedding::DOUBLE[]) >= {_NEARDUP_MIN_COS}
""",
        "embedding_topk": f"""
WITH q AS (
  SELECT vec_id AS query_vec_id, embedding AS qe FROM embeddings WHERE vec_id < {_N_EMB_QUERIES}
),
sims AS (
  SELECT q.query_vec_id, e.vec_id,
         list_cosine_similarity(q.qe::DOUBLE[], e.embedding::DOUBLE[]) AS cos
  FROM q CROSS JOIN embeddings e
  WHERE e.vec_id <> q.query_vec_id
),
ranked AS (
  SELECT query_vec_id, vec_id, cos,
         row_number() OVER (PARTITION BY query_vec_id ORDER BY cos DESC, vec_id) AS rnk
  FROM sims
)
SELECT query_vec_id, cast(rnk AS int) AS rank, vec_id, round(cos, 4) AS cos_sim
FROM ranked WHERE rnk <= {_EMB_TOP_K}
""",
        # nsw_full_beam: full-beam NSW over the persisted shard-0 graph
        # == exact brute-force cosine top-k on that shard's vectors
        # (shard membership read from the SAME parquet the Ray side
        # searched; gates connectivity + beam-order semantics).
        "nsw_full_beam": f"""
WITH shard AS (
  SELECT vec_id FROM read_parquet('{_nsw_oracle_dir()}/shard0.parquet')),
q AS (
  SELECT vec_id AS query_vec_id, embedding AS qe
  FROM embeddings WHERE vec_id < {_N_EMB_QUERIES}),
sims AS (
  SELECT q.query_vec_id, e.vec_id,
         list_cosine_similarity(q.qe::DOUBLE[], e.embedding::DOUBLE[]) AS cos
  FROM q CROSS JOIN embeddings e
  JOIN shard s ON s.vec_id = e.vec_id
  WHERE e.vec_id <> q.query_vec_id),
ranked AS (
  SELECT query_vec_id, vec_id, cos,
         row_number() OVER (
           PARTITION BY query_vec_id ORDER BY cos DESC, vec_id) AS rnk
  FROM sims)
SELECT query_vec_id, cast(rnk AS BIGINT) AS rank, vec_id,
       round(cos, 4) AS cos_sim
FROM ranked WHERE rnk <= {_EMB_TOP_K} ORDER BY query_vec_id, rank
""",
        # ann_pq, exact: reads the PERSISTED k-means codebook parquet
        # (the training OUTPUT as a table — the Ray callable refreshes
        # this copy every run) and reproduces encode argmin, ADC
        # lookup-sum and the integer-dot rescore in pure BIGINT.
        # Quantized-normalization parity: xq = round(x·S) is exact;
        # ss = Σxq² is exact integer; nq = round(xq/sqrt(ss)·S) is a
        # fixed sequence of correctly-rounded IEEE ops identical in
        # numpy and DuckDB (no accumulation-order float sums anywhere).
        "ann_pq": f"""
WITH raw AS (
  SELECT vec_id, generate_subscripts(embedding, 1) - 1 AS d,
         cast(round(unnest(embedding)::DOUBLE * {_PQX_SCALE}) AS BIGINT) AS xq
  FROM embeddings),
nrm AS (SELECT vec_id, sum(xq * xq) AS ss FROM raw GROUP BY vec_id),
vn AS (
  SELECT r.vec_id, r.d,
         cast(round(r.xq / sqrt(n.ss::DOUBLE) * {_PQX_SCALE}) AS BIGINT) AS nq
  FROM raw r JOIN nrm n USING (vec_id)),
cb AS (SELECT sub, code, d, val_q
       FROM read_parquet('{_pq_oracle_dir()}/codebook.parquet')),
dist AS (
  SELECT v.vec_id, c.sub, c.code,
         sum((v.nq - c.val_q) * (v.nq - c.val_q)) AS d2
  FROM vn v JOIN cb c ON c.d = v.d
  GROUP BY v.vec_id, c.sub, c.code),
codes AS (
  SELECT vec_id, sub, code FROM (
    SELECT vec_id, sub, code,
           row_number() OVER (PARTITION BY vec_id, sub ORDER BY d2, code) AS rn
    FROM dist) WHERE rn = 1),
qdist AS (
  SELECT vec_id AS query_vec_id, sub, code, d2 AS t
  FROM dist WHERE vec_id < {_N_EMB_QUERIES}),
adc AS (
  SELECT qd.query_vec_id, c.vec_id, sum(qd.t) AS adc_d2
  FROM codes c JOIN qdist qd ON qd.sub = c.sub AND qd.code = c.code
  WHERE c.vec_id <> qd.query_vec_id
  GROUP BY 1, 2),
cand AS (
  SELECT query_vec_id, vec_id, adc_d2 FROM (
    SELECT query_vec_id, vec_id, adc_d2,
           row_number() OVER (
             PARTITION BY query_vec_id ORDER BY adc_d2, vec_id) AS rn
    FROM adc) WHERE rn <= {_PQ_RERANK}),
dots AS (
  SELECT c.query_vec_id, c.vec_id, c.adc_d2, sum(q.nq * v.nq) AS dot_q
  FROM cand c
  JOIN vn q ON q.vec_id = c.query_vec_id
  JOIN vn v ON v.vec_id = c.vec_id AND v.d = q.d
  GROUP BY 1, 2, 3),
ranked AS (
  SELECT query_vec_id, vec_id, adc_d2, dot_q,
         row_number() OVER (
           PARTITION BY query_vec_id ORDER BY dot_q DESC, vec_id) AS rnk
  FROM dots)
SELECT query_vec_id, cast(rnk AS BIGINT) AS rank, vec_id,
       cast(adc_d2 AS BIGINT) AS adc_d2, cast(dot_q AS BIGINT) AS dot_q
FROM ranked WHERE rnk <= {_EMB_TOP_K} ORDER BY query_vec_id, rank
""",
        # IVF probe serving, exact: persisted int64 centroid table
        # (k-means output — training outside the oracle), BIGINT
        # assignment / probe ordering / partition-pruned scan / dot.
        "ivf_probe_exact": f"""
WITH raw AS (
  SELECT vec_id, generate_subscripts(embedding, 1) - 1 AS d,
         cast(round(unnest(embedding)::DOUBLE * {_PQX_SCALE}) AS BIGINT) AS xq
  FROM embeddings),
nrm AS (SELECT vec_id, sum(xq * xq) AS ss FROM raw GROUP BY vec_id),
vn AS (
  SELECT r.vec_id, r.d,
         cast(round(r.xq / sqrt(n.ss::DOUBLE) * {_PQX_SCALE}) AS BIGINT) AS nq
  FROM raw r JOIN nrm n USING (vec_id)),
cb AS (SELECT cluster, d, val_q
       FROM read_parquet('{_ivf_oracle_dir()}/centroids.parquet')),
dist AS (
  SELECT v.vec_id, c.cluster,
         sum((v.nq - c.val_q) * (v.nq - c.val_q)) AS d2
  FROM vn v JOIN cb c ON c.d = v.d
  GROUP BY 1, 2),
assign AS (
  SELECT vec_id, cluster FROM (
    SELECT vec_id, cluster,
           row_number() OVER (PARTITION BY vec_id ORDER BY d2, cluster) AS rn
    FROM dist) WHERE rn = 1),
probes AS (
  SELECT vec_id AS query_vec_id, cluster FROM (
    SELECT vec_id, cluster,
           row_number() OVER (PARTITION BY vec_id ORDER BY d2, cluster) AS rn
    FROM dist WHERE vec_id < {_N_EMB_QUERIES}) WHERE rn <= {_IVFX_NPROBE}),
cand AS (
  SELECT p.query_vec_id, a.vec_id, a.cluster
  FROM probes p JOIN assign a ON a.cluster = p.cluster
  WHERE a.vec_id <> p.query_vec_id),
dots AS (
  SELECT c.query_vec_id, c.vec_id, c.cluster, sum(q.nq * v.nq) AS dot_q
  FROM cand c
  JOIN vn q ON q.vec_id = c.query_vec_id
  JOIN vn v ON v.vec_id = c.vec_id AND v.d = q.d
  GROUP BY 1, 2, 3),
ranked AS (
  SELECT query_vec_id, vec_id, cluster, dot_q,
         row_number() OVER (
           PARTITION BY query_vec_id ORDER BY dot_q DESC, vec_id) AS rnk
  FROM dots)
SELECT query_vec_id, cast(rnk AS BIGINT) AS rank, vec_id, cluster,
       cast(dot_q AS BIGINT) AS dot_q
FROM ranked WHERE rnk <= {_EMB_TOP_K} ORDER BY query_vec_id, rank
""",
        # MMR diversified rerank, exact: greedy steps unrolled as k
        # chained argmax CTEs, integer dots and weights throughout.
        "mmr_exact": _mmr_exact_sql(),
        # SSL-prototype pruning, exact: persisted int64 centroids,
        # integer-dot prototypicality, rank-K keep-hard cutoff.
        "proto_prune_exact": f"""
WITH raw AS (
  SELECT vec_id, generate_subscripts(embedding, 1) - 1 AS d,
         cast(round(unnest(embedding)::DOUBLE * {_PQX_SCALE}) AS BIGINT) AS xq
  FROM embeddings),
nrm AS (SELECT vec_id, sum(xq * xq) AS ss FROM raw GROUP BY vec_id),
vn AS (
  SELECT r.vec_id, r.d,
         cast(round(r.xq / sqrt(n.ss::DOUBLE) * {_PQX_SCALE}) AS BIGINT) AS nq
  FROM raw r JOIN nrm n USING (vec_id)),
cb AS (SELECT cluster, d, val_q
       FROM read_parquet('{_proto_oracle_dir()}/centroids.parquet')),
dist AS (
  SELECT v.vec_id, c.cluster,
         sum((v.nq - c.val_q) * (v.nq - c.val_q)) AS d2,
         sum(v.nq * c.val_q) AS dot
  FROM vn v JOIN cb c ON c.d = v.d
  GROUP BY 1, 2),
scored AS (
  SELECT vec_id, cluster, cast(dot AS BIGINT) AS dot_q FROM (
    SELECT vec_id, cluster, dot,
           row_number() OVER (PARTITION BY vec_id ORDER BY d2, cluster) AS rn
    FROM dist) WHERE rn = 1),
cut AS (
  SELECT dot_q AS cutoff FROM (
    SELECT dot_q, row_number() OVER (ORDER BY dot_q, vec_id) AS rn
    FROM scored) WHERE rn = greatest(
      1, cast(floor({_PROTOX_KEEP} * (SELECT count(*) FROM scored)) AS BIGINT)))
SELECT s.vec_id, s.cluster, s.dot_q, s.dot_q <= c.cutoff AS keep
FROM scored s CROSS JOIN cut c ORDER BY s.vec_id
""",
        # LSH probe serving, exact: anchor-row hyperplanes, integer
        # sign signatures, Hamming-radius multi-probe, BIGINT dots.
        "lsh_probe_exact": f"""
WITH raw AS (
  SELECT vec_id, generate_subscripts(embedding, 1) - 1 AS d,
         cast(round(unnest(embedding)::DOUBLE * {_PQX_SCALE}) AS BIGINT) AS xq
  FROM embeddings),
nrm AS (SELECT vec_id, sum(xq * xq) AS ss FROM raw GROUP BY vec_id),
vn AS (
  SELECT r.vec_id, r.d,
         cast(round(r.xq / sqrt(n.ss::DOUBLE) * {_PQX_SCALE}) AS BIGINT) AS nq
  FROM raw r JOIN nrm n USING (vec_id)),
anch AS (
  SELECT vec_id AS aid, rn - 1 AS arank FROM (
    SELECT vec_id, row_number() OVER (
      ORDER BY ((vec_id % 2147483647) * 48271) % 2147483647, vec_id) AS rn
    FROM embeddings) WHERE rn <= {_LSHX_PLANES}),
planes AS (
  SELECT a.arank, v.d, v.nq FROM anch a JOIN vn v ON v.vec_id = a.aid),
bits AS (
  SELECT v.vec_id, p.arank,
         CASE WHEN sum(v.nq * p.nq) >= 0 THEN 1 ELSE 0 END AS bit
  FROM vn v JOIN planes p ON p.d = v.d
  GROUP BY 1, 2),
buckets AS (
  SELECT vec_id, cast(sum(bit * (1::BIGINT << arank)) AS BIGINT) AS bucket
  FROM bits GROUP BY vec_id),
cand AS (
  SELECT q.vec_id AS query_vec_id, v.vec_id, v.bucket,
         bit_count(xor(q.bucket, v.bucket))::BIGINT AS hamming
  FROM buckets q JOIN buckets v
    ON bit_count(xor(q.bucket, v.bucket)) <= {_LSHX_RADIUS}
   AND v.vec_id <> q.vec_id
  WHERE q.vec_id < {_N_EMB_QUERIES}),
dots AS (
  SELECT c.query_vec_id, c.vec_id, c.bucket, c.hamming,
         sum(q.nq * v.nq) AS dot_q
  FROM cand c
  JOIN vn q ON q.vec_id = c.query_vec_id
  JOIN vn v ON v.vec_id = c.vec_id AND v.d = q.d
  GROUP BY 1, 2, 3, 4),
ranked AS (
  SELECT query_vec_id, vec_id, bucket, hamming, dot_q,
         row_number() OVER (
           PARTITION BY query_vec_id ORDER BY dot_q DESC, vec_id) AS rnk
  FROM dots)
SELECT query_vec_id, cast(rnk AS BIGINT) AS rank, vec_id, bucket, hamming,
       cast(dot_q AS BIGINT) AS dot_q
FROM ranked WHERE rnk <= {_EMB_TOP_K} ORDER BY query_vec_id, rank
""",
        # PQ ADC scan, exact: sampled-anchor codebook (Lehmer-ranked
        # rows), int64 ×1e6 coordinates, BIGINT encode/table/score.
        "pq_adc": f"""
WITH ev AS (
  SELECT vec_id, generate_subscripts(embedding, 1) - 1 AS d,
         cast(round(unnest(embedding)::DOUBLE * {_PQ_ADC_SCALE}) AS BIGINT) AS q
  FROM embeddings),
anch AS (
  SELECT vec_id AS aid, rn - 1 AS arank FROM (
    SELECT vec_id, row_number() OVER (
      ORDER BY ((vec_id % 2147483647) * 48271) % 2147483647, vec_id) AS rn
    FROM embeddings) WHERE rn <= {_PQ_ADC_CODES}),
asub AS (
  SELECT a.arank, e.d // {64 // _PQ_ADC_M} AS s, e.d, e.q
  FROM anch a JOIN ev e ON e.vec_id = a.aid),
dist AS (
  SELECT v.vec_id, v.d // {64 // _PQ_ADC_M} AS s, a.arank,
         sum((v.q - a.q) * (v.q - a.q)) AS d2
  FROM ev v JOIN asub a ON a.d = v.d
  GROUP BY v.vec_id, 2, a.arank),
codes AS (
  SELECT vec_id, s, arank AS code FROM (
    SELECT vec_id, s, arank,
           row_number() OVER (PARTITION BY vec_id, s ORDER BY d2, arank) AS rn
    FROM dist) WHERE rn = 1),
qdist AS (
  SELECT v.vec_id AS query_vec_id, v.d // {64 // _PQ_ADC_M} AS s, a.arank,
         sum((v.q - a.q) * (v.q - a.q)) AS t
  FROM ev v JOIN asub a ON a.d = v.d
  WHERE v.vec_id < {_N_EMB_QUERIES}
  GROUP BY 1, 2, a.arank),
score AS (
  SELECT qd.query_vec_id, c.vec_id, sum(qd.t) AS adc
  FROM codes c JOIN qdist qd ON qd.s = c.s AND qd.arank = c.code
  WHERE c.vec_id <> qd.query_vec_id
  GROUP BY 1, 2),
ranked AS (
  SELECT query_vec_id, vec_id, adc,
         row_number() OVER (PARTITION BY query_vec_id ORDER BY adc, vec_id) AS rnk
  FROM score)
SELECT query_vec_id, cast(rnk AS BIGINT) AS rank, vec_id,
       cast(adc AS BIGINT) AS adc_d2
FROM ranked WHERE rnk <= {_EMB_TOP_K} ORDER BY query_vec_id, rank
""",
        # hard-negative mining: top-k most-similar DIFFERENT-label
        # vectors per query (the contrastive batch-construction rule).
        "hard_negatives": f"""
WITH q AS (
  SELECT vec_id AS query_vec_id, embedding AS qe, label AS ql
  FROM embeddings WHERE vec_id < {_HNEG_QUERIES}
),
sims AS (
  SELECT q.query_vec_id, e.vec_id, e.label AS neg_label,
         list_cosine_similarity(q.qe::DOUBLE[], e.embedding::DOUBLE[]) AS cos
  FROM q CROSS JOIN embeddings e
  WHERE e.label <> q.ql
),
ranked AS (
  SELECT query_vec_id, vec_id, neg_label, cos,
         row_number() OVER (PARTITION BY query_vec_id ORDER BY cos DESC, vec_id) AS rnk
  FROM sims
)
SELECT query_vec_id, rnk::BIGINT AS rank, vec_id, neg_label::BIGINT AS neg_label,
       round(cos, 4) AS cos_sim
FROM ranked WHERE rnk <= {_HNEG_K}
""",
        # kNN classification: majority label over the exact top-k
        # neighbour set (ties by smaller label).
        "knn_classify": f"""
WITH q AS (
  SELECT vec_id AS qv, embedding AS qe, label AS tl
  FROM embeddings WHERE vec_id < {_KNN_QUERIES}
),
sims AS (
  SELECT q.qv, q.tl, e.vec_id, e.label,
         list_cosine_similarity(q.qe::DOUBLE[], e.embedding::DOUBLE[]) AS cos
  FROM q CROSS JOIN embeddings e WHERE e.vec_id <> q.qv
),
knn AS (
  SELECT * FROM (
    SELECT qv, tl, vec_id, label, cos,
           row_number() OVER (PARTITION BY qv ORDER BY cos DESC, vec_id) AS rnk
    FROM sims
  ) WHERE rnk <= {_KNN_K}
),
v AS (SELECT qv, tl, label, count(*)::BIGINT AS votes FROM knn GROUP BY 1, 2, 3),
best AS (
  SELECT qv, tl, label, votes,
         row_number() OVER (PARTITION BY qv ORDER BY votes DESC, label) AS r
  FROM v
)
SELECT qv AS query_vec_id, label::BIGINT AS pred_label, votes,
       tl::BIGINT AS true_label, (label = tl)::BIGINT AS correct
FROM best WHERE r = 1 ORDER BY query_vec_id
""",
        # int8-rescore kNN is brute-force-identical at this window:
        # the oracle is the same exact-cosine ranking.
        "ann_int8": f"""
WITH q AS (
  SELECT vec_id AS query_vec_id, embedding AS qe FROM embeddings WHERE vec_id < {_N_EMB_QUERIES}
),
sims AS (
  SELECT q.query_vec_id, e.vec_id,
         list_cosine_similarity(q.qe::DOUBLE[], e.embedding::DOUBLE[]) AS cos
  FROM q CROSS JOIN embeddings e
  WHERE e.vec_id <> q.query_vec_id
),
ranked AS (
  SELECT query_vec_id, vec_id, cos,
         row_number() OVER (PARTITION BY query_vec_id ORDER BY cos DESC, vec_id) AS rnk
  FROM sims
)
SELECT query_vec_id, cast(rnk AS int) AS rank, vec_id, round(cos, 4) AS cos_sim
FROM ranked WHERE rnk <= {_EMB_TOP_K}
""",
        # ingest pipeline: each processor's SQL twin applied in order.
        "ingest_pipeline": """
SELECT doc_id, lang,
       regexp_replace(source, '^src', 'origin-') AS source,
       'v1' AS pipeline,
       upper(lang) AS lang_uc,
       n_chars // 100 AS len_bucket,
       CASE lang WHEN 'en' THEN 'English' WHEN 'de' THEN 'German'
                 WHEN 'fr' THEN 'French' WHEN 'es' THEN 'Spanish'
                 WHEN 'zh' THEN 'Chinese' ELSE 'Unknown' END AS language_name
FROM documents
""",
        # extended_stats_bucket: population variance over gap-filled
        # day counts, shared float formula.
        "extended_stats_bucket": """
WITH b AS (
  SELECT epoch_us(ts) // 86400000000 AS bucket, count(*)::BIGINT AS n
  FROM events GROUP BY 1
),
ext AS (SELECT min(bucket) AS b0, max(bucket) AS b1 FROM b),
grid AS (SELECT unnest(generate_series((SELECT b0 FROM ext), (SELECT b1 FROM ext))) AS bucket),
g AS (
  SELECT grid.bucket, coalesce(b.n, 0)::BIGINT AS n
  FROM grid LEFT JOIN b ON grid.bucket = b.bucket
),
st AS (
  SELECT count(*)::BIGINT AS m, sum(n)::BIGINT AS s, sum(n * n)::BIGINT AS q,
         min(n)::BIGINT AS mn, max(n)::BIGINT AS mx
  FROM g
)
SELECT m AS n_buckets, mn AS min_count, mx AS max_count, s AS sum_count,
       round(s::DOUBLE / m::DOUBLE, 6) AS mean,
       round((q::DOUBLE - s::DOUBLE * s::DOUBLE / m::DOUBLE) / m::DOUBLE, 6) AS variance,
       round(sqrt((q::DOUBLE - s::DOUBLE * s::DOUBLE / m::DOUBLE) / m::DOUBLE), 6) AS std_dev,
       round(s::DOUBLE / m::DOUBLE + 2.0 * sqrt((q::DOUBLE - s::DOUBLE * s::DOUBLE / m::DOUBLE) / m::DOUBLE), 6) AS upper_bound,
       round(s::DOUBLE / m::DOUBLE - 2.0 * sqrt((q::DOUBLE - s::DOUBLE * s::DOUBLE / m::DOUBLE) / m::DOUBLE), 6) AS lower_bound
FROM st
""",
        # A-ES weighted sample: hash-uniform, ln(u)/w keys, top-N.
        "weighted_sample": f"""
WITH u AS (
  SELECT doc_id, n_chars::DOUBLE AS w,
         ((md5_number_upper(cast(doc_id AS varchar) || '-ws') % 1000000) + 1)::DOUBLE
           / 1000001.0 AS u
  FROM documents
),
k AS (SELECT doc_id, ln(u) / w AS sk, w FROM u),
ranked AS (
  SELECT doc_id, sk, w, row_number() OVER (ORDER BY sk DESC, doc_id) AS rnk FROM k
)
SELECT doc_id, cast(rnk AS int) AS rank, round(sk, 6) AS sample_key, w AS n_chars
FROM ranked WHERE rnk <= {_WS_N}
""",
        # per-label centroid: parallel unnest zips value with position.
        "label_centroids": """
WITH u AS (
  SELECT label, unnest(embedding::DOUBLE[]) AS v,
         unnest(range(len(embedding))) AS dim
  FROM embeddings
)
SELECT label, dim::BIGINT AS dim,
       round(sum(v) / count(*), 6) AS centroid,
       count(*)::BIGINT AS n_vectors
FROM u GROUP BY label, dim
""",
        # simplified Soundex blocking: translate table shared verbatim,
        # adjacent-digit collapse as chained replaces (RE2: no backrefs).
        "phonetic_buckets": """
WITH {TRANSCRIPTS_CTE},
alpha AS (
  SELECT df.term, df.df,
         regexp_replace(regexp_replace(regexp_replace(regexp_replace(regexp_replace(regexp_replace(regexp_replace(translate(df.term, 'abcdefghijklmnopqrstuvwxyz', '01230120022455012623010202'), '00+', '0', 'g'), '11+', '1', 'g'), '22+', '2', 'g'), '33+', '3', 'g'), '44+', '4', 'g'), '55+', '5', 'g'), '66+', '6', 'g') AS collapsed
  FROM df WHERE regexp_matches(df.term, '^[a-z]+$')
),
coded AS (
  SELECT term, df,
         substr(term, 1, 1)
         || substr(rpad(replace(substr(collapsed, 2), '0', ''), 3, '0'), 1, 3) AS code
  FROM alpha
),
agg AS (
  SELECT code, count(*)::BIGINT AS n_terms, sum(df)::BIGINT AS sum_df
  FROM coded GROUP BY code
),
ranked AS (
  SELECT code, n_terms, sum_df,
         row_number() OVER (ORDER BY n_terms DESC, code) AS rnk
  FROM agg
)
SELECT code, n_terms, sum_df FROM ranked WHERE rnk <= 15
""".format(TRANSCRIPTS_CTE=TRANSCRIPTS_CTE),
        # sorted-neighborhood blocking: rank self-join, window dist ≤ w−1.
        "snm_pairs": f"""
WITH k AS (
  SELECT doc_id,
         substr(regexp_replace(lower(coalesce(text, '')), '[^a-z0-9]', '', 'g'), 1, 8) AS key
  FROM documents
),
r AS (SELECT doc_id, key, row_number() OVER (ORDER BY key, doc_id) AS rn FROM k),
p AS (
  SELECT a.doc_id AS da, b.doc_id AS db, a.key AS ka, b.key AS kb
  FROM r a JOIN r b ON b.rn > a.rn AND b.rn <= a.rn + {_SNM_W - 1}
)
SELECT DISTINCT least(da, db) AS doc_a, greatest(da, db) AS doc_b,
       CASE WHEN da < db THEN ka ELSE kb END AS key_a,
       CASE WHEN da < db THEN kb ELSE ka END AS key_b
FROM p
""",
        # Gopher rules: list_transform/aggregate per-doc word stats.
        "gopher_filter": """
WITH t AS (SELECT doc_id, coalesce(text, '') AS s FROM documents),
w AS (
  SELECT doc_id, s,
         list_filter(regexp_split_to_array(trim(s), '\\s+'), x -> x <> '') AS words
  FROM t
),
m AS (
  SELECT doc_id, s, words,
         len(words)::BIGINT AS n_words,
         greatest(len(words), 1)::DOUBLE AS nw,
         coalesce(list_aggregate(list_transform(words, x -> length(x)), 'sum'), 0)::DOUBLE AS sum_wl,
         len(list_filter(words, x -> regexp_matches(x, '[a-zA-Z]')))::DOUBLE AS n_alpha,
         ((length(s) - length(replace(s, '#', '')))
          + (length(s) - length(replace(s, '...', ''))) / 3)::DOUBLE AS n_sym,
         list_transform(words, x -> lower(x)) AS lw
  FROM w
),
r AS (
  SELECT doc_id, n_words,
         sum_wl / nw AS mwl,
         n_sym / nw AS sym,
         n_alpha / nw AS awf,
         (CASE WHEN list_contains(lw, 'the') THEN 1 ELSE 0 END\n         + CASE WHEN list_contains(lw, 'be') THEN 1 ELSE 0 END\n         + CASE WHEN list_contains(lw, 'to') THEN 1 ELSE 0 END\n         + CASE WHEN list_contains(lw, 'of') THEN 1 ELSE 0 END\n         + CASE WHEN list_contains(lw, 'and') THEN 1 ELSE 0 END\n         + CASE WHEN list_contains(lw, 'that') THEN 1 ELSE 0 END\n         + CASE WHEN list_contains(lw, 'have') THEN 1 ELSE 0 END\n         + CASE WHEN list_contains(lw, 'with') THEN 1 ELSE 0 END)::BIGINT AS n_stopwords_present
  FROM m
)
SELECT doc_id, n_words, round(mwl, 4) AS mean_word_len,
       round(sym, 4) AS symbol_ratio, round(awf, 4) AS alpha_word_frac,
       n_stopwords_present,
       (n_words >= 5 AND n_words <= 100000) AS pass_words,
       (mwl >= 3.0 AND mwl <= 10.0) AS pass_mean_len,
       (sym <= 0.1) AS pass_symbols,
       (awf >= 0.8) AS pass_alpha,
       (n_stopwords_present >= 2) AS pass_stopwords,
       (n_words >= 5 AND n_words <= 100000
        AND mwl >= 3.0 AND mwl <= 10.0
        AND sym <= 0.1 AND awf >= 0.8
        AND n_stopwords_present >= 2) AS keep
FROM r
""",
        # terms lookup: the query's term set IS another doc's tokens.
        "terms_lookup": f"""
WITH {TRANSCRIPTS_CTE},
qterms AS (SELECT DISTINCT 'tl1' AS query_id, term FROM tok WHERE doc_id = {_TL_DOC}),
{_BM25_SCORES_CTE},
ranked AS (
  SELECT query_id, doc_id, score,
         row_number() OVER (PARTITION BY query_id ORDER BY score DESC, doc_id) AS rnk
  FROM scores
)
SELECT query_id, cast(rnk AS int) AS rank, doc_id, round(score, 4) AS score
FROM ranked WHERE rnk <= {BM25_TOP_K}
""",
        # fuzzy with prefix_length: first-2-chars exact-match pruner.
        "fuzzy_prefix": f"""
WITH {TRANSCRIPTS_CTE},
qt(query_id, q_term) AS (VALUES {_fuzzy_match_values()}),
cand AS (
  SELECT qt.query_id, qt.q_term, df.term, levenshtein(qt.q_term, df.term) AS dist
  FROM qt CROSS JOIN df
  WHERE substr(df.term, 1, {_FUZZY_PL}) = substr(qt.q_term, 1, {_FUZZY_PL})
    AND levenshtein(qt.q_term, df.term) <= {_FUZZY_DIST}
),
rankedf AS (
  SELECT query_id, q_term, term, dist,
         row_number() OVER (PARTITION BY query_id, q_term ORDER BY dist, term) AS rnk
  FROM cand
),
qterms AS (SELECT DISTINCT query_id, term FROM rankedf WHERE rnk <= {_FUZZY_TOPN}),
{_BM25_SCORES_CTE},
ranked AS (
  SELECT query_id, doc_id, score,
         row_number() OVER (PARTITION BY query_id ORDER BY score DESC, doc_id) AS rnk
  FROM scores
)
SELECT query_id, cast(rnk AS int) AS rank, doc_id, round(score, 4) AS score
FROM ranked WHERE rnk <= {BM25_TOP_K}
""",
        # date_histogram + cardinality sub-agg (exact distinct/day).
        "daily_cardinality": """
WITH b AS (
  SELECT epoch_us(ts) // 86400000000 AS bucket,
         count(DISTINCT user_id)::BIGINT AS n
  FROM events GROUP BY 1
),
ext AS (SELECT min(bucket) AS b0, max(bucket) AS b1 FROM b),
grid AS (SELECT unnest(generate_series((SELECT b0 FROM ext), (SELECT b1 FROM ext))) AS bucket)
SELECT grid.bucket, coalesce(b.n, 0)::BIGINT AS n_distinct
FROM grid LEFT JOIN b ON grid.bucket = b.bucket
""",
        # date_histogram + terms sub-agg: long-format daily type counts.
        "date_histogram_terms": """
SELECT epoch_us(ts) // 86400000000 AS bucket, event_type AS k,
       count(*)::BIGINT AS n
FROM events GROUP BY 1, 2
""",
        # term suggester suggest_mode=popular: candidate df must beat
        # the input term's own df (0 when absent).
        "suggest_popular": f"""
WITH {TRANSCRIPTS_CTE},
qt(q_term) AS (VALUES {", ".join(f"('{t}')" for t in SUGGEST_POP_TERMS)}),
cand AS (
  SELECT qt.q_term, df.term, levenshtein(qt.q_term, df.term) AS dist, df.df
  FROM qt CROSS JOIN df
  WHERE levenshtein(qt.q_term, df.term) <= 2
),
own AS (
  SELECT qt.q_term, coalesce(max(CASE WHEN c.term = c.q_term THEN c.df END), 0) AS od
  FROM qt LEFT JOIN cand c ON c.q_term = qt.q_term
  GROUP BY qt.q_term
),
filt AS (
  SELECT c.q_term, c.term, c.dist, c.df
  FROM cand c JOIN own o ON o.q_term = c.q_term
  WHERE c.term <> c.q_term AND c.df > o.od
),
best AS (
  SELECT q_term, term, dist, df,
         row_number() OVER (PARTITION BY q_term ORDER BY dist, df DESC, term) AS rn
  FROM filt
)
SELECT q_term, term AS suggestion, cast(dist AS int) AS dist, df::BIGINT AS df
FROM best WHERE rn = 1
""",
        # TPC-H Q3: segment + date filters, hash join, top-10 by cents.
        "shipping_priority": f"""
WITH li AS (
  SELECT l_orderkey,
         cast(round(l_extendedprice * 100) AS BIGINT)
         * (100 - cast(round(l_discount * 100) AS BIGINT)) AS u
  FROM lineitem WHERE l_shipdate > TIMESTAMP '{_Q3_DATE}'
),
o AS (
  SELECT o_orderkey, o_orderdate, o_orderpriority
  FROM orders
  WHERE o_orderdate < TIMESTAMP '{_Q3_DATE}'
    AND o_custkey IN (SELECT c_custkey FROM customer WHERE c_mktsegment = '{_Q3_SEG}')
),
rev AS (
  SELECT li.l_orderkey, sum(li.u)::BIGINT AS u
  FROM li JOIN o ON o.o_orderkey = li.l_orderkey
  GROUP BY li.l_orderkey
),
top AS (
  SELECT l_orderkey, u, row_number() OVER (ORDER BY u DESC, l_orderkey) AS rnk
  FROM rev
)
SELECT t.l_orderkey AS o_orderkey, round(t.u::DOUBLE / 10000.0, 2) AS revenue,
       epoch_us(o.o_orderdate) // 86400000000 AS od_day, o.o_orderpriority
FROM top t JOIN o ON o.o_orderkey = t.l_orderkey
WHERE t.rnk <= 10
""",
        # TPC-H Q10: returned-item revenue by customer, top 20.
        "returned_items": f"""
WITH li AS (
  SELECT l_orderkey,
         cast(round(l_extendedprice * 100) AS BIGINT)
         * (100 - cast(round(l_discount * 100) AS BIGINT)) AS u
  FROM lineitem WHERE l_returnflag = 'R'
),
o AS (
  SELECT o_orderkey, o_custkey FROM orders
  WHERE o_orderdate >= TIMESTAMP '{_Q10_LO}' AND o_orderdate < TIMESTAMP '{_Q10_HI}'
),
rev AS (
  SELECT o.o_custkey, sum(li.u)::BIGINT AS u
  FROM li JOIN o ON o.o_orderkey = li.l_orderkey
  GROUP BY o.o_custkey
),
top AS (
  SELECT o_custkey, u, row_number() OVER (ORDER BY u DESC, o_custkey) AS rnk
  FROM rev
)
SELECT t.o_custkey AS c_custkey, c.c_name, n.n_name,
       round(t.u::DOUBLE / 10000.0, 2) AS revenue
FROM top t
JOIN customer c ON c.c_custkey = t.o_custkey
JOIN nation n ON n.n_nationkey = c.c_nationkey
WHERE t.rnk <= 20
""",
        # TPC-H Q19: OR-bracket predicate, one exact-cents scalar.
        "bracket_revenue": f"""
WITH j AS (
  SELECT cast(l.l_quantity AS BIGINT) AS qty, p.p_brand, p.p_size,
         cast(round(l.l_extendedprice * 100) AS BIGINT)
         * (100 - cast(round(l.l_discount * 100) AS BIGINT)) AS u
  FROM lineitem l JOIN part p ON p.p_partkey = l.l_partkey
),
m AS (
  SELECT u FROM j
  WHERE {" OR ".join(f"(p_brand = '{br}' AND qty BETWEEN {qlo} AND {qhi} AND p_size BETWEEN {slo} AND {shi})" for br, qlo, qhi, slo, shi in _Q19_BRACKETS)}
)
SELECT count(*)::BIGINT AS n_items, round(sum(u)::DOUBLE / 10000.0, 2) AS revenue
FROM m
""",
        # TPC-H Q22: above-mean-positive-balance customers with no
        # orders; integer cross-multiply threshold.
        "idle_customers": """
WITH thr AS (
  SELECT count(*)::BIGINT AS n, sum(cast(round(c_acctbal * 100) AS BIGINT))::BIGINT AS s
  FROM customer WHERE cast(round(c_acctbal * 100) AS BIGINT) > 0
),
idle AS (
  SELECT c.c_nationkey, cast(round(c.c_acctbal * 100) AS BIGINT) AS cents
  FROM customer c, thr
  WHERE cast(round(c.c_acctbal * 100) AS BIGINT) * thr.n > thr.s
    AND NOT EXISTS (SELECT 1 FROM orders o
                    WHERE o.o_custkey = c.c_custkey
                      AND o.o_orderdate >= TIMESTAMP '2000-01-01')
)
SELECT c_nationkey, count(*)::BIGINT AS n_cust,
       round(sum(cents)::DOUBLE / 100.0, 2) AS total_acctbal
FROM idle GROUP BY c_nationkey
""",
        # intervals: ordered chains with a TOTAL gap budget; any_of =
        # IN-lists; scores over present clause terms.
        "intervals": f"""
WITH {TRANSCRIPTS_CTE},
{TOKPOS_CTE},
qiterms(query_id, term) AS (VALUES ('iv1', 'filter'), ('iv1', 'join'), ('iv1', 'spark'), ('iv2', 'customer'), ('iv2', 'order'), ('iv2', 'scan'), ('iv2', 'table'), ('iv3', 'stream'), ('iv3', 'window')),
matches AS (
  SELECT DISTINCT 'iv1' AS query_id, p0.doc_id AS doc_id FROM tokpos p0 JOIN tokpos p1 ON p1.doc_id = p0.doc_id AND p1.pos > p0.pos AND p1.term IN ('join', 'filter') WHERE p0.term IN ('spark') AND p1.pos - p0.pos + 1 - 2 <= 2
  UNION ALL
  SELECT DISTINCT 'iv2' AS query_id, p0.doc_id AS doc_id FROM tokpos p0 JOIN tokpos p1 ON p1.doc_id = p0.doc_id AND p1.pos > p0.pos AND p1.term IN ('table') JOIN tokpos p2 ON p2.doc_id = p0.doc_id AND p2.pos > p1.pos AND p2.term IN ('scan', 'order') WHERE p0.term IN ('customer') AND p2.pos - p0.pos + 1 - 3 <= 3
  UNION ALL
  SELECT DISTINCT 'iv3' AS query_id, p0.doc_id AS doc_id FROM tokpos p0 JOIN tokpos p1 ON p1.doc_id = p0.doc_id AND p1.pos > p0.pos AND p1.term IN ('stream') WHERE p0.term IN ('window') AND p1.pos - p0.pos + 1 - 2 <= 0
),
iscore AS (
  SELECT m.query_id, m.doc_id,
         sum( ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
              * tf.tf * {_K1 + 1.0} / (tf.tf + {_K1} * ({1.0 - _B} + {_B} * dl.dl / s.avgdl)) ) AS score
  FROM matches m
  JOIN qiterms q ON q.query_id = m.query_id
  JOIN tf ON tf.term = q.term AND tf.doc_id = m.doc_id
  JOIN df ON df.term = q.term
  JOIN dl ON dl.doc_id = m.doc_id
  CROSS JOIN stats s
  GROUP BY m.query_id, m.doc_id
),
ranked AS (
  SELECT query_id, doc_id, score,
         row_number() OVER (PARTITION BY query_id ORDER BY score DESC, doc_id) AS rnk
  FROM iscore
)
SELECT query_id, cast(rnk AS int) AS rank, doc_id, round(score, 4) AS score
FROM ranked WHERE rnk <= {BM25_TOP_K}
""",
        # lineitem ⋈ part broadcast join → revenue per brand.
        "brand_revenue": """
SELECT p.p_brand AS brand, count(*)::BIGINT AS n_items,
       round(sum(l.l_extendedprice * (1 - l.l_discount)), 2) AS revenue
FROM lineitem l JOIN part p ON p.p_partkey = l.l_partkey
GROUP BY p.p_brand
""",
        # _count: docs matching >=1 query term (no scoring).
        "match_count": f"""
WITH {TRANSCRIPTS_CTE},
qterms(query_id, term) AS (VALUES {qterms})
SELECT q.query_id, count(DISTINCT tf.doc_id)::BIGINT AS n_matches
FROM qterms q LEFT JOIN tf ON tf.term = q.term
GROUP BY q.query_id
""",
        # ES regexp query: anchored whole-term RE2 shared verbatim.
        "regexp_search": f"""
WITH {TRANSCRIPTS_CTE},
qpat(query_id, pat) AS (VALUES {_regexp_pat_values()}),
qterms AS (SELECT DISTINCT p.query_id, df.term AS term FROM qpat p JOIN df ON regexp_matches(df.term, p.pat)),
{_BM25_SCORES_CTE},
ranked AS (
  SELECT query_id, doc_id, score,
         row_number() OVER (PARTITION BY query_id ORDER BY score DESC, doc_id) AS rnk
  FROM scores
)
SELECT query_id, cast(rnk AS int) AS rank, doc_id, round(score, 4) AS score
FROM ranked WHERE rnk <= {BM25_TOP_K}
""",
        # Wildcard rewrite: pattern → matching dictionary terms (RE2 regex
        # shared verbatim with the engine's Arrow matcher) → BM25 OR query.
        "wildcard_search": f"""
WITH {TRANSCRIPTS_CTE},
qpat(query_id, pat) AS (VALUES {_wildcard_pat_values()}),
qterms AS (SELECT DISTINCT p.query_id, df.term AS term FROM qpat p JOIN df ON regexp_matches(df.term, p.pat)),
{_BM25_SCORES_CTE},
ranked AS (
  SELECT query_id, doc_id, score,
         row_number() OVER (PARTITION BY query_id ORDER BY score DESC, doc_id) AS rnk
  FROM scores
)
SELECT query_id, cast(rnk AS int) AS rank, doc_id, round(score, 4) AS score
FROM ranked WHERE rnk <= {BM25_TOP_K}
""",
        # Field collapse on conv_id: best hit per conversation, groups
        # ranked by their representative (score desc, doc_id asc).
        "collapse_search": f"""
WITH {TRANSCRIPTS_CTE},
qterms(query_id, term) AS (VALUES {qterms}),
{_BM25_SCORES_CTE},
keyed AS (
  SELECT s.query_id, s.doc_id, s.score, t.conv_id,
         row_number() OVER (PARTITION BY s.query_id, t.conv_id ORDER BY s.score DESC, s.doc_id) AS grp_rn
  FROM scores s JOIN transcripts t ON t.doc_id = s.doc_id
),
best AS (
  SELECT query_id, conv_id, doc_id, score,
         row_number() OVER (PARTITION BY query_id ORDER BY score DESC, doc_id) AS rnk
  FROM keyed WHERE grp_rn = 1
)
SELECT query_id, cast(rnk AS int) AS rank, conv_id, doc_id, round(score, 4) AS score
FROM best WHERE rnk <= {BM25_TOP_K}
""",
        # terms agg + top_hits: per turn_idx group, top-N hits; rank
        # restarts inside each group.
        "top_hits": f"""
WITH {TRANSCRIPTS_CTE},
qterms(query_id, term) AS (VALUES {_values_from(TOP_HITS_QUERIES)}),
{_BM25_SCORES_CTE},
keyed AS (
  SELECT s.query_id, s.doc_id, s.score, t.turn_idx,
         row_number() OVER (PARTITION BY s.query_id, t.turn_idx ORDER BY s.score DESC, s.doc_id) AS rn
  FROM scores s JOIN transcripts t ON t.doc_id = s.doc_id
)
SELECT query_id, cast(turn_idx AS BIGINT) AS turn_idx, cast(rn AS int) AS rank, doc_id,
       round(score, 4) AS score
FROM keyed WHERE rn <= {_TOP_HITS_PER_GROUP}
""",
        # Boosting query: positive BM25 × negative_boost for docs matching
        # ANY negative term (full candidate set).
        "boosting": f"""
WITH {TRANSCRIPTS_CTE},
qterms(query_id, term) AS (VALUES {_boosting_values("query_text")}),
negterms(query_id, term) AS (VALUES {_boosting_values("negative")}),
{_BM25_SCORES_CTE},
neg AS (SELECT DISTINCT n.query_id, tf.doc_id FROM negterms n JOIN tf ON tf.term = n.term),
boosted AS (
  SELECT s.query_id, s.doc_id,
         s.score * CASE WHEN ng.doc_id IS NOT NULL THEN {_NEG_BOOST} ELSE 1.0 END AS score
  FROM scores s LEFT JOIN neg ng ON ng.query_id = s.query_id AND ng.doc_id = s.doc_id
),
ranked AS (
  SELECT query_id, doc_id, score,
         row_number() OVER (PARTITION BY query_id ORDER BY score DESC, doc_id) AS rnk
  FROM boosted
)
SELECT query_id, cast(rnk AS int) AS rank, doc_id, round(score, 4) AS score
FROM ranked WHERE rnk <= {BM25_TOP_K}
""",
        # Rescore: top-window by first-pass BM25, exact-phrase bonus
        # (positional containment), re-rank the window only.
        "rescore": f"""
WITH {TRANSCRIPTS_CTE},
{TOKPOS_CTE},
qterms(query_id, term) AS (VALUES {_phrase_qterms_values(RESCORE_QUERIES)}),
{_BM25_SCORES_CTE},
win AS (
  SELECT query_id, doc_id, score,
         row_number() OVER (PARTITION BY query_id ORDER BY score DESC, doc_id) AS rnk
  FROM scores
),
matches AS ({_phrase_matches_sql(RESCORE_QUERIES)}),
final AS (
  SELECT w.query_id, w.doc_id,
         w.score + {_RESCORE_WEIGHT} * (CASE WHEN m.doc_id IS NOT NULL THEN 1.0 ELSE 0.0 END) AS score
  FROM win w LEFT JOIN matches m ON m.query_id = w.query_id AND m.doc_id = w.doc_id
  WHERE w.rnk <= {_RESCORE_WINDOW}
),
rankedf AS (
  SELECT query_id, doc_id, score,
         row_number() OVER (PARTITION BY query_id ORDER BY score DESC, doc_id) AS rnk
  FROM final
)
SELECT query_id, cast(rnk AS int) AS rank, doc_id, round(score, 4) AS score
FROM rankedf WHERE rnk <= {BM25_TOP_K}
""",
        # Seeded random_score (boost_mode=replace): md5_number_upper
        # little-endian-first-8-bytes parity with the engine's hashing.
        "random_score": f"""
WITH {TRANSCRIPTS_CTE},
qterms(query_id, term) AS (VALUES {_values_from(RANDOM_SCORE_QUERIES)}),
cand AS (SELECT DISTINCT q.query_id, tf.doc_id FROM qterms q JOIN tf ON tf.term = q.term),
scored AS (
  SELECT query_id, doc_id,
         (md5_number_upper(cast(doc_id AS varchar) || '{_RANDOM_SEED}') % 1000000) / 1000000.0 AS score
  FROM cand
),
ranked AS (
  SELECT query_id, doc_id, score,
         row_number() OVER (PARTITION BY query_id ORDER BY score DESC, doc_id) AS rnk
  FROM scored
)
SELECT query_id, cast(rnk AS int) AS rank, doc_id, round(score, 6) AS score
FROM ranked WHERE rnk <= {BM25_TOP_K}
""",
        # Explain: per-term additive BM25 contribution for each query's
        # top-3 docs (only terms present in the doc produce rows).
        "explain": f"""
WITH {TRANSCRIPTS_CTE},
qterms(query_id, term) AS (VALUES {qterms}),
{_BM25_SCORES_CTE},
ranked AS (
  SELECT query_id, doc_id, score,
         row_number() OVER (PARTITION BY query_id ORDER BY score DESC, doc_id) AS rnk
  FROM scores
)
SELECT r.query_id, cast(r.rnk AS int) AS rank, r.doc_id, q.term,
       round( ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
              * tf.tf * {_K1 + 1.0} / (tf.tf + {_K1} * ({1.0 - _B} + {_B} * dl.dl / s.avgdl)), 4) AS contrib
FROM ranked r
JOIN qterms q ON q.query_id = r.query_id
JOIN tf ON tf.term = q.term AND tf.doc_id = r.doc_id
JOIN df ON df.term = q.term
JOIN dl ON dl.doc_id = r.doc_id
CROSS JOIN stats s
WHERE r.rnk <= 3
""",
        "term_vectors": f"""
WITH {TRANSCRIPTS_CTE}
SELECT tf.doc_id, tf.term, tf.tf, df.df
FROM tf JOIN df ON df.term = tf.term
WHERE tf.doc_id IN ({", ".join(str(d) for d in TERM_VECTOR_DOCS)})
""",
        "adjacency": f"""
WITH {TRANSCRIPTS_CTE}
{_adjacency_sql()}
""",
        # Composite agg with after-key paging: ordered buckets, pages of
        # {_COMPOSITE_PAGE}.
        "composite_agg": f"""
WITH {TRANSCRIPTS_CTE},
agg AS (
  SELECT role, cast(turn_idx AS BIGINT) AS turn_idx,
         count(*)::BIGINT AS n_rows,
         sum(coalesce(length(text), 0))::BIGINT AS sum_chars
  FROM transcripts GROUP BY role, turn_idx
),
ordered AS (SELECT *, row_number() OVER (ORDER BY role, turn_idx) AS rn FROM agg)
SELECT role, turn_idx, n_rows, sum_chars, cast((rn - 1) // {_COMPOSITE_PAGE} + 1 AS int) AS page
FROM ordered
""",
        # date_histogram + pipeline aggs: integer day buckets GAP-FILLED
        # (ES min_doc_count 0), derivative (0-seeded) and cumulative count.
        "date_histogram": f"""
WITH b AS (
  SELECT epoch_us(ts) // {_BUCKET_S * 1_000_000} AS bucket, count(*)::BIGINT AS n_events
  FROM events GROUP BY 1
),
grid AS (
  SELECT unnest(generate_series((SELECT min(bucket) FROM b), (SELECT max(bucket) FROM b))) AS bucket
),
filled AS (
  SELECT g.bucket, coalesce(b.n_events, 0)::BIGINT AS n_events
  FROM grid g LEFT JOIN b ON b.bucket = g.bucket
)
SELECT bucket::BIGINT AS bucket, n_events,
       (n_events - coalesce(lag(n_events) OVER (ORDER BY bucket), 0))::BIGINT AS deriv,
       (sum(n_events) OVER (ORDER BY bucket ROWS UNBOUNDED PRECEDING))::BIGINT AS cum
FROM filled
""",
        # Token-window chunking with overlap: list_slice over the ordered
        # filtered token array (same RE2 split as the engine analyzer).
        "chunk_docs": f"""
WITH {TRANSCRIPTS_CTE},
{TOKPOS_CTE},
chunks AS (
  SELECT doc_id, len(arr) AS dl, arr,
         unnest(generate_series(0,
           CASE WHEN len(arr) <= {_CHUNK_WINDOW} THEN 0
                ELSE cast(ceil((len(arr) - {_CHUNK_WINDOW}) / {_CHUNK_STRIDE}.0) AS INT) END)) AS chunk_idx
  FROM arrs WHERE len(arr) > 0
)
SELECT doc_id, cast(chunk_idx AS int) AS chunk_idx,
       least({_CHUNK_WINDOW}, dl - chunk_idx * {_CHUNK_STRIDE})::BIGINT AS n_tokens,
       array_to_string(list_slice(arr, chunk_idx * {_CHUNK_STRIDE} + 1,
                                  least(chunk_idx * {_CHUNK_STRIDE} + {_CHUNK_WINDOW}, dl)), ' ') AS chunk_text
FROM chunks
""",
        # Filtered kNN: cosine top-k restricted to label = {_KNN_LABEL}.
        "knn_filtered": f"""
WITH q AS (
  SELECT vec_id AS query_vec_id, embedding AS qe FROM embeddings WHERE vec_id < {_N_EMB_QUERIES}
),
sims AS (
  SELECT q.query_vec_id, e.vec_id,
         list_cosine_similarity(q.qe::DOUBLE[], e.embedding::DOUBLE[]) AS cos
  FROM q CROSS JOIN embeddings e
  WHERE e.vec_id <> q.query_vec_id AND e.label = {_KNN_LABEL}
),
ranked AS (
  SELECT query_vec_id, vec_id, cos,
         row_number() OVER (PARTITION BY query_vec_id ORDER BY cos DESC, vec_id) AS rnk
  FROM sims
)
SELECT query_vec_id, cast(rnk AS int) AS rank, vec_id, round(cos, 4) AS cos_sim
FROM ranked WHERE rnk <= {_EMB_TOP_K}
""",
        # span_near: in-order positional chain with per-gap slop window;
        # survivors ranked by the terms' BM25.
        "span_near": f"""
WITH {TRANSCRIPTS_CTE},
{TOKPOS_CTE},
qterms(query_id, term) AS (VALUES {_span_qterms_values()}),
{_BM25_SCORES_CTE},
matches AS ({_span_matches_sql()}),
rankedp AS (
  SELECT m.query_id, m.doc_id, s.score,
         row_number() OVER (PARTITION BY m.query_id ORDER BY s.score DESC, m.doc_id) AS rnk
  FROM matches m JOIN scores s ON s.query_id = m.query_id AND s.doc_id = m.doc_id
)
SELECT query_id, cast(rnk AS int) AS rank, doc_id, round(score, 4) AS score
FROM rankedp WHERE rnk <= {BM25_TOP_K}
""",
        # unordered span_near: |pos_a − pos_b| ≤ slop + 1 for 2-term spans.
        "span_near_unordered": f"""
WITH {TRANSCRIPTS_CTE},
{TOKPOS_CTE},
qterms(query_id, term) AS (VALUES {_spanu_qterms_values()}),
{_BM25_SCORES_CTE},
matches AS ({_spanu_matches_sql()}),
rankedp AS (
  SELECT m.query_id, m.doc_id, s.score,
         row_number() OVER (PARTITION BY m.query_id ORDER BY s.score DESC, m.doc_id) AS rnk
  FROM matches m JOIN scores s ON s.query_id = m.query_id AND s.doc_id = m.doc_id
)
SELECT query_id, cast(rnk AS int) AS rank, doc_id, round(score, 4) AS score
FROM rankedp WHERE rnk <= {BM25_TOP_K}
""",
        # dis_max: best clause + tie_breaker × (sum − best).
        # frequent item pairs: apriori top-items, co-occurrence support.
        "frequent_pairs": f"""
WITH {TRANSCRIPTS_CTE},
items AS (SELECT term FROM df ORDER BY df DESC, term LIMIT {_FP_TOP_ITEMS}),
dt AS (SELECT DISTINCT t.doc_id, t.term FROM tok t JOIN items i ON i.term = t.term),
fpairs AS (
  SELECT a.term AS term_a, b.term AS term_b, count(*)::BIGINT AS support
  FROM dt a JOIN dt b ON b.doc_id = a.doc_id AND a.term < b.term
  GROUP BY a.term, b.term
),
rankedfp AS (
  SELECT term_a, term_b, support,
         row_number() OVER (ORDER BY support DESC, term_a, term_b) AS rnk
  FROM fpairs WHERE support >= {_FP_MIN_SUPPORT}
)
SELECT term_a, term_b, support, cast(rnk AS int) AS rank
FROM rankedfp WHERE rnk <= {_FP_TOP_N}
""",
        # moving percentiles: trailing-window quantiles via range self-join.
        "moving_percentiles": f"""
WITH d AS (SELECT DISTINCT epoch_us(ts) // 86400000000 AS bucket FROM events)
SELECT d.bucket,
       round(quantile_cont(e.value, 0.5), 4) AS p50,
       round(quantile_cont(e.value, 0.9), 4) AS p90
FROM d JOIN events e
  ON epoch_us(e.ts) // 86400000000 BETWEEN d.bucket - {_MP_WINDOW - 1} AND d.bucket
GROUP BY d.bucket
""",
        # dataset split: sorted-name cumulative hash intervals.
        "dataset_split": f"""
SELECT CASE
         WHEN md5_number_upper(cast(doc_id AS varchar) || '-sp') % 100 < {_SPLITS["test"]} THEN 'test'
         WHEN md5_number_upper(cast(doc_id AS varchar) || '-sp') % 100 < {_SPLITS["test"] + _SPLITS["train"]} THEN 'train'
         ELSE 'val' END AS split,
       count(*)::BIGINT AS n_docs,
       sum(n_chars)::BIGINT AS n_chars_sum
FROM documents GROUP BY 1
""",
        # scripted_metric instance: geometric mean via exp(sum(ln)/n).
        "geo_mean": """
SELECT event_type, count(*)::BIGINT AS n,
       round(exp(sum(ln(value)) / count(*)), 4) AS geo_mean
FROM events GROUP BY event_type
""",
        # cumulative_cardinality: running distinct users per day bucket.
        "cum_cardinality": """
WITH fu AS (
  SELECT user_id, min(epoch_us(ts) // 86400000000) AS b FROM events GROUP BY user_id
),
nb AS (SELECT b AS bucket, count(*)::BIGINT AS new_keys FROM fu GROUP BY b),
bounds AS (SELECT min(epoch_us(ts) // 86400000000) AS mn,
                  max(epoch_us(ts) // 86400000000) AS mx FROM events),
fs AS (
  SELECT g.bucket, coalesce(nb.new_keys, 0)::BIGINT AS new_keys
  FROM (SELECT unnest(generate_series((SELECT mn FROM bounds), (SELECT mx FROM bounds))) AS bucket) g
  LEFT JOIN nb ON nb.bucket = g.bucket
)
SELECT bucket, new_keys,
       (sum(new_keys) OVER (ORDER BY bucket))::BIGINT AS cum_keys
FROM fs
""",
        # significant_text under a sampler: JLH with fg = top-N BM25 hits.
        "sig_text": f"""
WITH {TRANSCRIPTS_CTE},
qsam(term) AS (VALUES {_sampler_qterms_values()}),
sscores AS (
  SELECT tf.doc_id,
         sum( ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
              * tf.tf * {_K1 + 1.0} / (tf.tf + {_K1} * ({1.0 - _B} + {_B} * dl.dl / s.avgdl)) ) AS score
  FROM qsam q
  JOIN tf ON tf.term = q.term
  JOIN df ON df.term = q.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats s
  GROUP BY tf.doc_id
),
fg AS (SELECT doc_id FROM sscores ORDER BY score DESC, doc_id LIMIT {_SAMPLER_SIZE}),
fsz AS (SELECT count(*)::DOUBLE AS f FROM fg),
fgdf AS (
  SELECT tf.term, count(DISTINCT tf.doc_id)::BIGINT AS fg_df
  FROM tf JOIN fg ON fg.doc_id = tf.doc_id GROUP BY tf.term),
j AS (
  SELECT f.term, f.fg_df, d.df AS bg_df,
         round(((f.fg_df / fs.f) - (d.df::DOUBLE / s.n_docs))
               * ((f.fg_df / fs.f) / (d.df::DOUBLE / s.n_docs)), 4) AS jlh
  FROM fgdf f JOIN df d ON d.term = f.term CROSS JOIN fsz fs CROSS JOIN stats s
  WHERE f.fg_df >= 2),
rankedj AS (
  SELECT term, fg_df, bg_df, jlh,
         row_number() OVER (ORDER BY jlh DESC, term) AS rn
  FROM j)
SELECT term, fg_df, bg_df, jlh FROM rankedj WHERE rn <= 10
""",
        # temperature source mix: inverse-sqrt rates + hash membership.
        "temperature_mix": """
WITH c AS (SELECT source, count(*)::BIGINT AS n_total FROM documents GROUP BY source),
m AS (SELECT min(n_total) AS cmin FROM c),
r AS (
  SELECT c.source, c.n_total,
         least(100, ceil(100.0 * sqrt(cast(m.cmin AS DOUBLE) / c.n_total)))::BIGINT AS rate_pct
  FROM c, m
),
smp AS (
  SELECT d.source, count(*)::BIGINT AS n_sampled
  FROM documents d JOIN r ON r.source = d.source
  WHERE md5_number_upper(cast(d.doc_id AS varchar) || '-mix') % 100 < r.rate_pct
  GROUP BY d.source
)
SELECT r.source, r.n_total, r.rate_pct, coalesce(smp.n_sampled, 0)::BIGINT AS n_sampled
FROM r LEFT JOIN smp ON smp.source = r.source
""",
        # terms enum: first N dictionary terms with a prefix.
        "terms_enum": f"""
WITH {TRANSCRIPTS_CTE},
te AS (
  SELECT DISTINCT term FROM tok WHERE term LIKE '{_ENUM_PREFIX}%'
  ORDER BY term LIMIT {_ENUM_SIZE}
)
SELECT term, cast(row_number() OVER (ORDER BY term) AS int) AS rank FROM te
""",
        # phrase suggester: per-term fuzzy expansion cross product,
        # collated by the shingle field's phrase document frequency.
        "phrase_suggest": f"""
WITH {TRANSCRIPTS_CTE},
{SHINGLE_CTE},
qp(query_id, pos, q_term) AS (VALUES {_phrase_suggest_values()}),
expn AS (
  SELECT qp.query_id, qp.pos, df.term,
         row_number() OVER (PARTITION BY qp.query_id, qp.pos
                            ORDER BY levenshtein(qp.q_term, df.term), df.term) AS rnk
  FROM qp CROSS JOIN df
  WHERE levenshtein(qp.q_term, df.term) <= {_PS_DIST}
),
kept AS (SELECT * FROM expn WHERE rnk <= {_PS_TOPN}),
candps AS (
  SELECT a.query_id, a.term || ' ' || b.term AS suggestion
  FROM kept a JOIN kept b ON b.query_id = a.query_id AND a.pos = 1 AND b.pos = 2
),
scoredps AS (
  SELECT c.query_id, c.suggestion, shdf.df AS df
  FROM candps c JOIN shdf ON shdf.term = c.suggestion
),
rankedps AS (
  SELECT query_id, suggestion, df,
         row_number() OVER (PARTITION BY query_id ORDER BY df DESC, suggestion) AS rnk
  FROM scoredps
)
SELECT query_id, cast(rnk AS int) AS rank, suggestion, df::BIGINT AS df
FROM rankedps WHERE rnk <= {_PS_TOPK}
""",
        # sort-by-field: OR-match candidates ordered by doc fields.
        "field_sort": f"""
WITH {TRANSCRIPTS_CTE},
qfs(query_id, term) AS (VALUES {_simple_qterms_values(FIELD_SORT_QUERIES)}),
cand AS (SELECT DISTINCT q.query_id, tf.doc_id FROM qfs q JOIN tf ON tf.term = q.term),
rankedfs AS (
  SELECT c.query_id, t.conv_id, t.turn_idx, c.doc_id,
         row_number() OVER (PARTITION BY c.query_id
                            ORDER BY t.conv_id, t.turn_idx, c.doc_id) AS rnk
  FROM cand c JOIN transcripts t ON t.doc_id = c.doc_id
)
SELECT query_id, cast(rnk AS int) AS rank, conv_id, turn_idx, doc_id
FROM rankedfs WHERE rnk <= {BM25_TOP_K}
""",
        # multi-get: id point lookups, absent ids report found=0.
        "mget": f"""
WITH {TRANSCRIPTS_CTE},
req(doc_id) AS (VALUES {", ".join(f"({i})" for i in sorted(set(_MGET_IDS)))})
SELECT r.doc_id::BIGINT AS doc_id,
       (CASE WHEN t.doc_id IS NULL THEN 0 ELSE 1 END)::BIGINT AS found,
       coalesce(t.conv_id, '') AS conv_id,
       coalesce(t.turn_idx, -1)::BIGINT AS turn_idx
FROM req r LEFT JOIN transcripts t ON t.doc_id = r.doc_id
""",
        # sampler agg: terms sub-agg over only the top-N BM25 hits.
        "sampler_terms": f"""
WITH {TRANSCRIPTS_CTE},
qsam(term) AS (VALUES {_sampler_qterms_values()}),
sscores AS (
  SELECT tf.doc_id,
         sum( ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
              * tf.tf * {_K1 + 1.0} / (tf.tf + {_K1} * ({1.0 - _B} + {_B} * dl.dl / s.avgdl)) ) AS score
  FROM qsam q
  JOIN tf ON tf.term = q.term
  JOIN df ON df.term = q.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats s
  GROUP BY tf.doc_id
),
samp AS (SELECT doc_id FROM sscores ORDER BY score DESC, doc_id LIMIT {_SAMPLER_SIZE}),
cnt AS (
  SELECT t.term, count(DISTINCT t.doc_id)::BIGINT AS doc_count
  FROM tok t JOIN samp ON samp.doc_id = t.doc_id GROUP BY t.term
),
rankedsam AS (
  SELECT term, doc_count, row_number() OVER (ORDER BY doc_count DESC, term) AS rnk
  FROM cnt
)
SELECT term, doc_count, cast(rnk AS int) AS rank FROM rankedsam WHERE rnk <= {_SAMPLER_TOP}
""",
        # cosine radius search: all pairs above the similarity floor.
        "vector_range": f"""
WITH q AS (
  SELECT vec_id AS query_vec_id, embedding AS qe FROM embeddings WHERE vec_id < {_N_EMB_QUERIES}
)
SELECT q.query_vec_id, e.vec_id,
       round(list_cosine_similarity(q.qe::DOUBLE[], e.embedding::DOUBLE[]), 4) AS cos_sim
FROM q CROSS JOIN embeddings e
WHERE e.vec_id <> q.query_vec_id
  AND list_cosine_similarity(q.qe::DOUBLE[], e.embedding::DOUBLE[]) >= {_VR_MIN_COS}
""",
        # pinned query: promoted ids first, organic BM25 fills the rest.
        "pinned": f"""
WITH {TRANSCRIPTS_CTE},
qterms(query_id, term) AS (VALUES {_pinned_values()[0]}),
pins(query_id, prank, doc_id) AS (VALUES {_pinned_values()[1]}),
npins(query_id, np) AS (VALUES {_pinned_values()[2]}),
scores AS (
  SELECT q.query_id, tf.doc_id,
         sum( ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
              * tf.tf * {_K1 + 1.0} / (tf.tf + {_K1} * ({1.0 - _B} + {_B} * dl.dl / s.avgdl)) ) AS score
  FROM qterms q
  JOIN tf ON tf.term = q.term
  JOIN df ON df.term = q.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats s
  GROUP BY q.query_id, tf.doc_id
),
organic AS (
  SELECT s.query_id, s.doc_id, s.score,
         row_number() OVER (PARTITION BY s.query_id ORDER BY s.score DESC, s.doc_id) AS rnk
  FROM scores s
  WHERE NOT EXISTS (SELECT 1 FROM pins p WHERE p.query_id = s.query_id AND p.doc_id = s.doc_id)
)
SELECT p.query_id, cast(p.prank AS int) AS rank, p.doc_id::BIGINT AS doc_id,
       1::BIGINT AS pinned, 0.0 AS score
FROM pins p WHERE p.query_id <> '__none__'
UNION ALL
SELECT o.query_id, cast(o.rnk + n.np AS int) AS rank, o.doc_id,
       0::BIGINT AS pinned, round(o.score, 4) AS score
FROM organic o JOIN npins n ON n.query_id = o.query_id
WHERE o.rnk <= {BM25_TOP_K} - n.np
""",
        # auto_date_histogram: smallest ladder interval fitting the target.
        "auto_date_histogram": f"""
WITH bounds AS (SELECT min(epoch_us(ts)) AS mn, max(epoch_us(ts)) AS mx FROM events),
iv AS (
  SELECT CASE
    WHEN mx // 3600000000 - mn // 3600000000 + 1 <= {_ADH_TARGET} THEN 3600000000
    WHEN mx // 86400000000 - mn // 86400000000 + 1 <= {_ADH_TARGET} THEN 86400000000
    WHEN mx // 604800000000 - mn // 604800000000 + 1 <= {_ADH_TARGET} THEN 604800000000
    ELSE 2592000000000 END AS d
  FROM bounds
)
SELECT epoch_us(e.ts) // iv.d AS bucket, (iv.d // 1000000)::BIGINT AS interval_s,
       count(*)::BIGINT AS doc_count
FROM events e, iv GROUP BY 1, 2
""",
        # serial_diff(lag 7) + moving_fn(prev-3 mean) over gap-filled days.
        "series_window": f"""
WITH d AS (
  SELECT epoch_us(ts) // 86400000000 AS bucket, count(*)::BIGINT AS n FROM events GROUP BY 1
),
full_series AS (
  SELECT g.bucket, coalesce(d.n, 0)::BIGINT AS n_events
  FROM (SELECT unnest(generate_series((SELECT min(bucket) FROM d), (SELECT max(bucket) FROM d))) AS bucket) g
  LEFT JOIN d ON d.bucket = g.bucket
)
SELECT bucket, n_events,
       (n_events - coalesce(lag(n_events, {_SW_LAG}) OVER (ORDER BY bucket), 0))::BIGINT AS sdiff,
       round(coalesce(avg(n_events) OVER (ORDER BY bucket ROWS BETWEEN {_SW_WINDOW} PRECEDING AND 1 PRECEDING), 0.0), 4) AS mov_mean
FROM full_series
""",
        # ES boxplot: exact five-number summary, percentile_cont rule.
        "boxplot": """
SELECT event_type,
       round(min(value), 4) AS v_min,
       round(quantile_cont(value, 0.25), 4) AS q1,
       round(quantile_cont(value, 0.50), 4) AS q2,
       round(quantile_cont(value, 0.75), 4) AS q3,
       round(max(value), 4) AS v_max
FROM events GROUP BY event_type
""",
        # median_absolute_deviation: median(|x - median(x)|), two-pass.
        "mad_value": """
WITH med AS (
  SELECT event_type, quantile_cont(value, 0.5) AS m FROM events GROUP BY event_type
)
SELECT e.event_type, round(quantile_cont(abs(e.value - med.m), 0.5), 4) AS mad
FROM events e JOIN med ON e.event_type = med.event_type
GROUP BY e.event_type
""",
        "weighted_avg": """
SELECT l_returnflag,
       round(sum(l_extendedprice * l_quantity) / sum(l_quantity), 4) AS weighted_avg
FROM lineitem GROUP BY l_returnflag
""",
        # Welch t-test from the SAME explicit sufficient-stat formula the
        # engine uses: var = (sumsq - sum^2/n) / (n-1).
        "t_test_welch": f"""
WITH st AS (
  SELECT event_type, count(*)::BIGINT AS n, sum(value) AS s, sum(value * value) AS sq
  FROM events WHERE event_type IN ('{_TT_GROUPS[0]}', '{_TT_GROUPS[1]}')
  GROUP BY event_type
),
ab AS (
  SELECT
    (SELECT n  FROM st WHERE event_type = '{_TT_GROUPS[0]}') AS na,
    (SELECT s  FROM st WHERE event_type = '{_TT_GROUPS[0]}') AS sa,
    (SELECT sq FROM st WHERE event_type = '{_TT_GROUPS[0]}') AS qa,
    (SELECT n  FROM st WHERE event_type = '{_TT_GROUPS[1]}') AS nb,
    (SELECT s  FROM st WHERE event_type = '{_TT_GROUPS[1]}') AS sb,
    (SELECT sq FROM st WHERE event_type = '{_TT_GROUPS[1]}') AS qb
),
v AS (
  SELECT na, nb, sa / na AS ma, sb / nb AS mb,
         ((qa - sa * sa / na) / (na - 1)) / na AS sea,
         ((qb - sb * sb / nb) / (nb - 1)) / nb AS seb
  FROM ab
)
SELECT '{_TT_GROUPS[0]}' AS group_a, '{_TT_GROUPS[1]}' AS group_b,
       na AS n_a, nb AS n_b,
       round(ma, 6) AS mean_a, round(mb, 6) AS mean_b,
       round((ma - mb) / sqrt(sea + seb), 6) AS t_stat,
       round(pow(sea + seb, 2) / (pow(sea, 2) / (na - 1) + pow(seb, 2) / (nb - 1)), 6) AS dof
FROM v
""",
        # multi_terms: top compound-key buckets, count desc / keys asc.
        "multi_terms": """
SELECT lang, source, count(*)::BIGINT AS doc_count
FROM documents GROUP BY lang, source
ORDER BY doc_count DESC, lang, source LIMIT 10
""",
        # range agg: half-open buckets (-inf,50) [50,150) [150,inf).
        "range_buckets": f"""
SELECT CASE WHEN value < {_RANGE_EDGES[0]} THEN 0
            WHEN value < {_RANGE_EDGES[1]} THEN 1 ELSE 2 END AS bucket,
       count(*)::BIGINT AS doc_count,
       round(sum(value), 4) AS v_sum,
       round(sum(value) / count(*), 4) AS v_avg
FROM events GROUP BY 1
""",
        # filters agg: named RE2 buckets (patterns shared verbatim).
        "filters_buckets": f"""
SELECT 'has_spark' AS filter_name, count(*)::BIGINT AS doc_count
FROM documents WHERE regexp_matches(text, '{_FILTER_PATTERNS["has_spark"]}')
UNION ALL
SELECT 'has_join_or_merge', count(*)::BIGINT
FROM documents WHERE regexp_matches(text, '{_FILTER_PATTERNS["has_join_or_merge"]}')
UNION ALL
SELECT 'has_digit', count(*)::BIGINT
FROM documents WHERE regexp_matches(text, '{_FILTER_PATTERNS["has_digit"]}')
""",
        # bucket_script + bucket_selector + bucket_sort over a day histogram.
        "bucket_pipeline": f"""
WITH b AS (
  SELECT epoch_us(ts) // 86400000000 AS bucket,
         count(*)::BIGINT AS doc_count, sum(value) AS v_sum
  FROM events GROUP BY 1
)
SELECT bucket, doc_count, round(v_sum / doc_count, 4) AS avg_value
FROM b WHERE doc_count >= {_BP_MIN_COUNT}
ORDER BY round(v_sum / doc_count, 4) DESC, bucket LIMIT {_BP_TOP}
""",
        "multi_match_best": f"""
WITH {TRANSCRIPTS_CTE},
{TRIGRAM_CTE},
{SHINGLE_CTE},
{_mm_ranked_sql(f"max(score) + {_MM_TIE} * (sum(score) - max(score))")}
SELECT query_id, cast(rnk AS int) AS rank, doc_id, round(score, 4) AS score
FROM mmranked WHERE rnk <= {BM25_TOP_K}
""",
        "multi_match_most": f"""
WITH {TRANSCRIPTS_CTE},
{TRIGRAM_CTE},
{SHINGLE_CTE},
{_mm_ranked_sql("sum(score)")}
SELECT query_id, cast(rnk AS int) AS rank, doc_id, round(score, 4) AS score
FROM mmranked WHERE rnk <= {BM25_TOP_K}
""",
        "dis_max": f"""
WITH {TRANSCRIPTS_CTE},
qcl(query_id, clause, term) AS (VALUES {_dismax_values()}),
scoresc AS (
  SELECT q.query_id, q.clause, tf.doc_id,
         sum( ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
              * tf.tf * {_K1 + 1.0} / (tf.tf + {_K1} * ({1.0 - _B} + {_B} * dl.dl / s.avgdl)) ) AS score
  FROM qcl q
  JOIN tf ON tf.term = q.term
  JOIN df ON df.term = q.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats s
  GROUP BY q.query_id, q.clause, tf.doc_id
),
comb AS (
  SELECT query_id, doc_id,
         max(score) + {_DISMAX_TIE} * (sum(score) - max(score)) AS score
  FROM scoresc GROUP BY query_id, doc_id
),
ranked AS (
  SELECT query_id, doc_id, score,
         row_number() OVER (PARTITION BY query_id ORDER BY score DESC, doc_id) AS rnk
  FROM comb
)
SELECT query_id, cast(rnk AS int) AS rank, doc_id, round(score, 4) AS score
FROM ranked WHERE rnk <= {BM25_TOP_K}
""",
        # percentile_ranks: exact fraction of values <= each threshold.
        "percentile_ranks": f"""
SELECT event_type, count(value)::BIGINT AS n_rows,
       round(sum(CASE WHEN value <= {_PR_THRESHOLDS[0]} THEN 1 ELSE 0 END) / count(*), 6) AS pr_0,
       round(sum(CASE WHEN value <= {_PR_THRESHOLDS[1]} THEN 1 ELSE 0 END) / count(*), 6) AS pr_1
FROM events GROUP BY event_type
""",
        # doc keywords: top-k terms per doc by tf·idf, term-asc ties.
        "doc_keywords": f"""
WITH {TRANSCRIPTS_CTE},
kw AS (
  SELECT tf.doc_id, tf.term,
         tf.tf * ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5)) AS score
  FROM tf JOIN df USING (term) CROSS JOIN stats s
),
ranked AS (
  SELECT doc_id, term, score,
         row_number() OVER (PARTITION BY doc_id ORDER BY score DESC, term) AS rnk
  FROM kw
)
SELECT doc_id, cast(rnk AS int) AS rank, term, round(score, 4) AS score
FROM ranked WHERE rnk <= {_KW_K}
""",
        # sequence packing: pack_id = exclusive prefix token sum // budget.
        "pack_bins": f"""
WITH {TRANSCRIPTS_CTE},
cum AS (
  SELECT doc_id, dl,
         coalesce(sum(dl) OVER (ORDER BY doc_id ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS bef
  FROM dl
)
SELECT doc_id, dl::BIGINT AS n_tokens, (bef // {_PACK_BUDGET})::BIGINT AS pack_id
FROM cum
""",
        # fuzzy match: per-term top-n Levenshtein expansion (dist asc,
        # term asc — the fuzzy_expand contract), distinct union → BM25.
        "fuzzy_search": f"""
WITH {TRANSCRIPTS_CTE},
qt(query_id, q_term) AS (VALUES {_fuzzy_match_values()}),
cand AS (
  SELECT qt.query_id, qt.q_term, df.term, levenshtein(qt.q_term, df.term) AS dist
  FROM qt CROSS JOIN df
  WHERE levenshtein(qt.q_term, df.term) <= {_FUZZY_DIST}
),
rankedf AS (
  SELECT query_id, q_term, term, dist,
         row_number() OVER (PARTITION BY query_id, q_term ORDER BY dist, term) AS rnk
  FROM cand
),
qterms AS (SELECT DISTINCT query_id, term FROM rankedf WHERE rnk <= {_FUZZY_TOPN}),
{_BM25_SCORES_CTE},
ranked AS (
  SELECT query_id, doc_id, score,
         row_number() OVER (PARTITION BY query_id ORDER BY score DESC, doc_id) AS rnk
  FROM scores
)
SELECT query_id, cast(rnk AS int) AS rank, doc_id, round(score, 4) AS score
FROM ranked WHERE rnk <= {BM25_TOP_K}
""",
        # match_phrase_prefix: fixed-token chain + any-prefix-expansion
        # final position; OR-BM25 over fixed ∪ expansions on the matches.
        "match_phrase_prefix": f"""
WITH {TRANSCRIPTS_CTE},
{TOKPOS_CTE},
{_mpp_qterms_sql()},
{_BM25_SCORES_CTE},
matches AS ({_mpp_matches_sql()}),
rankedp AS (
  SELECT m.query_id, m.doc_id, s.score,
         row_number() OVER (PARTITION BY m.query_id ORDER BY s.score DESC, m.doc_id) AS rnk
  FROM matches m JOIN scores s ON s.query_id = m.query_id AND s.doc_id = m.doc_id
)
SELECT query_id, cast(rnk AS int) AS rank, doc_id, round(score, 4) AS score
FROM rankedp WHERE rnk <= {BM25_TOP_K}
""",
        # simple_query_string: clauses come from the ENGINE's parser;
        # generalized bool SQL (must count may be zero → should-only OR).
        "query_string": f"""
WITH {TRANSCRIPTS_CTE},
mustq(query_id, term) AS (VALUES {_qs_values("must")}),
notq(query_id, term) AS (VALUES {_qs_values("must_not")}),
scoreq(query_id, term) AS (
  VALUES {", ".join(x for x in [_qs_values("must"), _qs_values("should", minus="must")] if x != "(NULL, NULL)")}
),
nmust(query_id, n) AS (VALUES {_qs_nmust_values()}),
cand AS (SELECT DISTINCT s.query_id, tf.doc_id FROM scoreq s JOIN tf ON tf.term = s.term),
mcnt AS (
  SELECT m.query_id, tf.doc_id, count(*)::BIGINT AS c
  FROM mustq m JOIN tf ON tf.term = m.term
  GROUP BY m.query_id, tf.doc_id
),
alive AS (
  SELECT c.query_id, c.doc_id
  FROM cand c
  JOIN nmust n ON n.query_id = c.query_id
  LEFT JOIN mcnt mc ON mc.query_id = c.query_id AND mc.doc_id = c.doc_id
  WHERE coalesce(mc.c, 0) = n.n AND NOT EXISTS (
    SELECT 1 FROM notq nq JOIN tf t2 ON t2.term = nq.term AND t2.doc_id = c.doc_id
    WHERE nq.query_id = c.query_id
  )
),
scores AS (
  SELECT a.query_id, a.doc_id,
         sum( ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
              * tf.tf * {_K1 + 1.0} / (tf.tf + {_K1} * ({1.0 - _B} + {_B} * dl.dl / s.avgdl)) ) AS score
  FROM alive a
  JOIN scoreq q ON q.query_id = a.query_id
  JOIN tf ON tf.term = q.term AND tf.doc_id = a.doc_id
  JOIN df ON df.term = q.term
  JOIN dl ON dl.doc_id = a.doc_id
  CROSS JOIN stats s
  GROUP BY a.query_id, a.doc_id
),
ranked AS (
  SELECT query_id, doc_id, score,
         row_number() OVER (PARTITION BY query_id ORDER BY score DESC, doc_id) AS rnk
  FROM scores
)
SELECT query_id, cast(rnk AS int) AS rank, doc_id, round(score, 4) AS score
FROM ranked WHERE rnk <= {BM25_TOP_K}
""",
        # extended_stats: exact integer sufficient statistics, one shared
        # float expression for mean/variance.
        "extended_stats": """
WITH a AS (
  SELECT l_returnflag,
         count(l_quantity)::BIGINT AS n_rows,
         sum(cast(l_quantity AS BIGINT))::BIGINT AS sum_v,
         sum(cast(l_quantity AS BIGINT) * cast(l_quantity AS BIGINT))::BIGINT AS sumsq,
         min(cast(l_quantity AS BIGINT))::BIGINT AS min_v,
         max(cast(l_quantity AS BIGINT))::BIGINT AS max_v
  FROM lineitem GROUP BY l_returnflag
)
SELECT l_returnflag, n_rows, sum_v, min_v, max_v,
       round(sum_v / n_rows, 6) AS avg_v,
       round((sumsq - sum_v * sum_v / n_rows) / n_rows, 6) AS var_v
FROM a
""",
        # rare_terms: df <= cutoff, deterministic first N by (df, term).
        "rare_terms": f"""
WITH {TRANSCRIPTS_CTE}
SELECT term, df FROM df WHERE df <= {_RARE_DF_MAX}
ORDER BY df, term LIMIT {_RARE_LIMIT}
""",
        # numeric histogram: shared floor((x-off)/interval) bucket rule,
        # gap-filled between min and max observed bucket (min_doc_count=0).
        "numeric_histogram": f"""
WITH b AS (
  SELECT floor((value - {_HIST_OFFSET}) / {_HIST_INTERVAL})::BIGINT AS k,
         count(*)::BIGINT AS c, sum(value) AS s
  FROM events GROUP BY 1
),
ext AS (SELECT min(k) AS k0, max(k) AS k1 FROM b),
grid AS (SELECT unnest(generate_series((SELECT k0 FROM ext), (SELECT k1 FROM ext))) AS k)
SELECT {_HIST_OFFSET} + grid.k * {_HIST_INTERVAL} AS bucket_key,
       coalesce(b.c, 0)::BIGINT AS doc_count,
       round(coalesce(b.s, 0.0), 4) AS v_sum,
       round(CASE WHEN coalesce(b.c, 0) > 0 THEN b.s / b.c ELSE 0.0 END, 4) AS v_avg
FROM grid LEFT JOIN b ON grid.k = b.k
""",
        # top_metrics: row with the largest sort value per bucket,
        # deterministic tiebreak event_id desc (shared with the engine).
        "top_metrics": """
SELECT event_type, value, event_id, user_id FROM (
  SELECT event_type, value, event_id, user_id,
         row_number() OVER (PARTITION BY event_type
                            ORDER BY value DESC, event_id DESC) AS rn
  FROM events
) WHERE rn = 1
""",
        # stats_bucket sibling pipeline agg: stats over the per-day doc
        # counts + first bucket achieving each extreme.
        "stats_bucket": """
WITH b AS (
  SELECT epoch_us(ts) // 86400000000 AS bucket, count(*)::BIGINT AS n
  FROM events GROUP BY 1
)
SELECT count(*)::BIGINT AS n_buckets,
       sum(n)::BIGINT AS sum_count,
       min(n)::BIGINT AS min_count,
       max(n)::BIGINT AS max_count,
       round(sum(n)::DOUBLE / count(*), 6) AS avg_count,
       (SELECT min(bucket) FROM b WHERE n = (SELECT min(n) FROM b))::BIGINT AS min_bucket,
       (SELECT min(bucket) FROM b WHERE n = (SELECT max(n) FROM b))::BIGINT AS max_bucket
FROM b
""",
        # normalize (rescale_0_1) over the gap-filled day histogram;
        # exact-integer inputs, one shared float division.
        "normalize_series": """
WITH b AS (
  SELECT epoch_us(ts) // 86400000000 AS bucket, count(*)::BIGINT AS n
  FROM events GROUP BY 1
),
ext AS (SELECT min(bucket) AS b0, max(bucket) AS b1 FROM b),
grid AS (SELECT unnest(generate_series((SELECT b0 FROM ext), (SELECT b1 FROM ext))) AS bucket),
g AS (
  SELECT grid.bucket, coalesce(b.n, 0)::BIGINT AS n_events
  FROM grid LEFT JOIN b ON grid.bucket = b.bucket
),
mm AS (SELECT min(n_events) AS mn, max(n_events) AS mx FROM g)
SELECT bucket, n_events,
       round(CASE WHEN mm.mx = mm.mn THEN 0.0
                  ELSE (n_events - mm.mn)::DOUBLE / (mm.mx - mm.mn) END, 6) AS norm
FROM g, mm
""",
        # percentiles_bucket: quantile_cont of the gap-filled day counts.
        "percentiles_bucket": """
WITH b AS (
  SELECT epoch_us(ts) // 86400000000 AS bucket, count(*)::BIGINT AS n
  FROM events GROUP BY 1
),
ext AS (SELECT min(bucket) AS b0, max(bucket) AS b1 FROM b),
grid AS (SELECT unnest(generate_series((SELECT b0 FROM ext), (SELECT b1 FROM ext))) AS bucket),
g AS (
  SELECT coalesce(b.n, 0)::BIGINT AS n FROM grid LEFT JOIN b ON grid.bucket = b.bucket
)
SELECT round(quantile_cont(n, 0.25), 4) AS p25,
       round(quantile_cont(n, 0.50), 4) AS p50,
       round(quantile_cont(n, 0.75), 4) AS p75,
       round(quantile_cont(n, 0.95), 4) AS p95
FROM g
""",
        # matrix_stats: exact int64 sufficient statistics per pair, one
        # shared float expression per derived value.
        "matrix_stats": """
WITH v AS (
  SELECT cast(l_quantity AS BIGINT) AS qty,
         cast(round(l_discount * 100.0) AS BIGINT) AS disc_pct,
         cast(round(l_tax * 100.0) AS BIGINT) AS tax_pct
  FROM lineitem
),
st AS (
  SELECT count(*)::BIGINT AS n,
         sum(qty)::BIGINT AS s_qty, sum(qty * qty)::BIGINT AS q_qty,
         sum(disc_pct)::BIGINT AS s_disc, sum(disc_pct * disc_pct)::BIGINT AS q_disc,
         sum(tax_pct)::BIGINT AS s_tax, sum(tax_pct * tax_pct)::BIGINT AS q_tax,
         sum(qty * disc_pct)::BIGINT AS p_qd,
         sum(qty * tax_pct)::BIGINT AS p_qt,
         sum(disc_pct * tax_pct)::BIGINT AS p_dt
  FROM v
),
pairs AS (
  SELECT 'qty' AS field_x, 'disc_pct' AS field_y, n,
         s_qty AS sx, q_qty AS qx, s_disc AS sy, q_disc AS qy, p_qd AS pxy FROM st
  UNION ALL
  SELECT 'qty', 'tax_pct', n, s_qty, q_qty, s_tax, q_tax, p_qt FROM st
  UNION ALL
  SELECT 'disc_pct', 'tax_pct', n, s_disc, q_disc, s_tax, q_tax, p_dt FROM st
)
SELECT field_x, field_y, n AS n_rows,
       round(sx::DOUBLE / n, 6) AS mean_x,
       round(sy::DOUBLE / n, 6) AS mean_y,
       round((qx::DOUBLE - sx::DOUBLE * sx::DOUBLE / n::DOUBLE) / (n::DOUBLE - 1), 6) AS var_x,
       round((qy::DOUBLE - sy::DOUBLE * sy::DOUBLE / n::DOUBLE) / (n::DOUBLE - 1), 6) AS var_y,
       round((pxy::DOUBLE - sx::DOUBLE * sy::DOUBLE / n::DOUBLE) / (n::DOUBLE - 1), 6) AS cov,
       round(((pxy::DOUBLE - sx::DOUBLE * sy::DOUBLE / n::DOUBLE) / (n::DOUBLE - 1))
             / sqrt(((qx::DOUBLE - sx::DOUBLE * sx::DOUBLE / n::DOUBLE) / (n::DOUBLE - 1))
                    * ((qy::DOUBLE - sy::DOUBLE * sy::DOUBLE / n::DOUBLE) / (n::DOUBLE - 1))), 6) AS corr
FROM pairs
""",
        # bucket_correlation: Pearson over two gap-filled integer count
        # series, exact int sufficient stats, shared float formula.
        "bucket_correlation": f"""
WITH b AS (
  SELECT epoch_us(ts) // 86400000000 AS bucket, event_type, count(*)::BIGINT AS n
  FROM events WHERE event_type IN ('{_BC_KEYS[0]}', '{_BC_KEYS[1]}')
  GROUP BY 1, 2
),
ext AS (SELECT min(bucket) AS b0, max(bucket) AS b1 FROM b),
grid AS (SELECT unnest(generate_series((SELECT b0 FROM ext), (SELECT b1 FROM ext))) AS bucket),
g AS (
  SELECT grid.bucket,
         coalesce((SELECT n FROM b WHERE b.bucket = grid.bucket AND b.event_type = '{_BC_KEYS[0]}'), 0)::BIGINT AS a,
         coalesce((SELECT n FROM b WHERE b.bucket = grid.bucket AND b.event_type = '{_BC_KEYS[1]}'), 0)::BIGINT AS bb
  FROM grid
),
st AS (
  SELECT count(*)::BIGINT AS n, sum(a)::BIGINT AS sa, sum(bb)::BIGINT AS sb,
         sum(a * a)::BIGINT AS saa, sum(bb * bb)::BIGINT AS sbb, sum(a * bb)::BIGINT AS sab
  FROM g
)
SELECT '{_BC_KEYS[0]}' AS key_a, '{_BC_KEYS[1]}' AS key_b, n AS n_buckets,
       round((sab::DOUBLE - sa::DOUBLE * sb::DOUBLE / n::DOUBLE)
             / sqrt((saa::DOUBLE - sa::DOUBLE * sa::DOUBLE / n::DOUBLE)
                    * (sbb::DOUBLE - sb::DOUBLE * sb::DOUBLE / n::DOUBLE)), 6) AS corr
FROM st
""",
        # string_stats: codepoint distribution entropy + length stats;
        # null text ≡ '' on both sides.
        "string_stats": """
WITH t AS (SELECT coalesce(text, '') AS text FROM documents),
chars AS (SELECT unnest(regexp_extract_all(text, '(?s).')) AS ch FROM t),
cc AS (SELECT ch, count(*)::BIGINT AS c FROM chars GROUP BY ch),
tot AS (SELECT sum(c)::DOUBLE AS total, count(*)::BIGINT AS k,
               sum(c * log2(c)) AS slc FROM cc),
lens AS (SELECT count(*)::BIGINT AS n_docs, min(length(text))::BIGINT AS mn,
                max(length(text))::BIGINT AS mx, sum(length(text))::BIGINT AS sl
         FROM t)
SELECT n_docs, mn AS min_len, mx AS max_len,
       round(sl::DOUBLE / n_docs, 6) AS avg_len,
       k AS n_distinct_chars,
       round(log2(total) - slc / total, 4) AS entropy
FROM lens, tot
""",
        # cumulative_sum: running total over the gap-filled day grid.
        "cumulative_sum": """
WITH b AS (
  SELECT epoch_us(ts) // 86400000000 AS bucket, count(*)::BIGINT AS n
  FROM events GROUP BY 1
),
ext AS (SELECT min(bucket) AS b0, max(bucket) AS b1 FROM b),
grid AS (SELECT unnest(generate_series((SELECT b0 FROM ext), (SELECT b1 FROM ext))) AS bucket),
g AS (
  SELECT grid.bucket, coalesce(b.n, 0)::BIGINT AS n
  FROM grid LEFT JOIN b ON grid.bucket = b.bucket
)
SELECT bucket, n AS n_events,
       cast(sum(n) OVER (ORDER BY bucket) AS BIGINT) AS cum_n
FROM g
""",
        # rate: day buckets normalized to per-hour; exact integer cents.
        "rate_agg": """
WITH v AS (
  SELECT epoch_us(ts) // 86400000000 AS bucket,
         cast(round(value * 100) AS BIGINT) AS cents
  FROM events
),
b AS (SELECT bucket, count(*)::BIGINT AS n, sum(cents)::BIGINT AS cents FROM v GROUP BY 1),
ext AS (SELECT min(bucket) AS b0, max(bucket) AS b1 FROM b),
grid AS (SELECT unnest(generate_series((SELECT b0 FROM ext), (SELECT b1 FROM ext))) AS bucket),
g AS (
  SELECT grid.bucket, coalesce(b.n, 0)::BIGINT AS n, coalesce(b.cents, 0)::BIGINT AS cents
  FROM grid LEFT JOIN b ON grid.bucket = b.bucket
)
SELECT bucket,
       round(n::DOUBLE / 24.0, 6) AS doc_rate,
       round((cents::DOUBLE / 100.0) / 24.0, 6) AS value_rate
FROM g
""",
        # categorize_text: RE2-identical token-template normalization.
        "categorize_text": """
WITH t AS (
  SELECT trim(regexp_replace(lower(coalesce(text, '')), '[0-9]+', '<num>', 'g')) AS s
  FROM documents
),
k AS (
  SELECT array_to_string(list_slice(regexp_split_to_array(s, '\\s+'), 1, 4), ' ') AS category
  FROM t
),
c AS (SELECT category, count(*)::BIGINT AS n_docs FROM k GROUP BY 1)
SELECT category, n_docs FROM c ORDER BY n_docs DESC, category LIMIT 15
""",
        # change_point: max segment-mean gap split over the day grid,
        # exact prefix sums, one shared float objective.
        "change_point": """
WITH b AS (
  SELECT epoch_us(ts) // 86400000000 AS bucket, count(*)::BIGINT AS n
  FROM events GROUP BY 1
),
ext AS (SELECT min(bucket) AS b0, max(bucket) AS b1 FROM b),
grid AS (SELECT unnest(generate_series((SELECT b0 FROM ext), (SELECT b1 FROM ext))) AS bucket),
g AS (
  SELECT grid.bucket, coalesce(b.n, 0)::BIGINT AS n
  FROM grid LEFT JOIN b ON grid.bucket = b.bucket
),
s AS (
  SELECT bucket, n,
         cast(sum(n) OVER (ORDER BY bucket) AS BIGINT) AS sl,
         row_number() OVER (ORDER BY bucket) AS i,
         lead(bucket) OVER (ORDER BY bucket) AS nxt,
         count(*) OVER () AS m,
         cast(sum(n) OVER () AS BIGINT) AS total
  FROM g
),
d AS (
  SELECT nxt AS change_bucket, i,
         sl::DOUBLE / i::DOUBLE AS mean_before,
         (total - sl)::DOUBLE / (m - i)::DOUBLE AS mean_after,
         abs(sl::DOUBLE / i::DOUBLE - (total - sl)::DOUBLE / (m - i)::DOUBLE) AS gap
  FROM s WHERE i < m
)
SELECT change_bucket, round(mean_before, 6) AS mean_before,
       round(mean_after, 6) AS mean_after, round(gap, 6) AS gap
FROM d ORDER BY gap DESC, i ASC LIMIT 1
""",
        # ks_test: max ECDF gap between two per-day count distributions.
        "ks_test": f"""
WITH b AS (
  SELECT epoch_us(ts) // 86400000000 AS bucket, event_type, count(*)::BIGINT AS n
  FROM events WHERE event_type IN ('{_BC_KEYS[0]}', '{_BC_KEYS[1]}')
  GROUP BY 1, 2
),
ext AS (SELECT min(bucket) AS b0, max(bucket) AS b1 FROM b),
grid AS (SELECT unnest(generate_series((SELECT b0 FROM ext), (SELECT b1 FROM ext))) AS bucket),
g AS (
  SELECT grid.bucket,
         coalesce((SELECT n FROM b WHERE b.bucket = grid.bucket AND b.event_type = '{_BC_KEYS[0]}'), 0)::BIGINT AS a,
         coalesce((SELECT n FROM b WHERE b.bucket = grid.bucket AND b.event_type = '{_BC_KEYS[1]}'), 0)::BIGINT AS bb
  FROM grid
),
s AS (
  SELECT bucket,
         cast(sum(a) OVER (ORDER BY bucket) AS BIGINT) AS ca,
         cast(sum(bb) OVER (ORDER BY bucket) AS BIGINT) AS cb,
         cast(sum(a) OVER () AS BIGINT) AS na,
         cast(sum(bb) OVER () AS BIGINT) AS nb
  FROM g
)
SELECT '{_BC_KEYS[0]}' AS key_a, '{_BC_KEYS[1]}' AS key_b, na AS n_a, nb AS n_b,
       round(abs(ca::DOUBLE / na::DOUBLE - cb::DOUBLE / nb::DOUBLE), 6) AS d_stat,
       bucket AS at_bucket
FROM s
ORDER BY abs(ca::DOUBLE / na::DOUBLE - cb::DOUBLE / nb::DOUBLE) DESC, bucket ASC
LIMIT 1
""",
        # global agg: corpus-wide metrics next to one filter bucket's,
        # exact integer cents, one row.
        "global_agg": """
WITH v AS (
  SELECT event_type, cast(round(value * 100) AS BIGINT) AS cents FROM events
),
st AS (
  SELECT count(*)::BIGINT AS n, sum(cents)::BIGINT AS c,
         sum(CASE WHEN event_type = 'click' THEN 1 ELSE 0 END)::BIGINT AS n_f,
         sum(CASE WHEN event_type = 'click' THEN cents ELSE 0 END)::BIGINT AS c_f
  FROM v
)
SELECT n AS n_total,
       round(c::DOUBLE / 100.0, 2) AS sum_value_total,
       round(c::DOUBLE / 100.0 / n::DOUBLE, 6) AS avg_value_total,
       'click' AS filter_key,
       n_f AS n_filtered,
       round(c_f::DOUBLE / 100.0, 2) AS sum_value_filtered,
       round(c_f::DOUBLE / 100.0 / n_f::DOUBLE, 6) AS avg_value_filtered
FROM st
""",
        # rank_feature (saturation): BM25 + boost·f/(f+pivot) on
        # turn_idx; quantized rank shared with the engine's re-rank.
        "rank_feature": f"""
WITH {TRANSCRIPTS_CTE},
qterms(query_id, term) AS (VALUES {qterms}),
{_BM25_SCORES_CTE},
final AS (
  SELECT s.query_id, s.doc_id,
         round(s.score + {_RF_BOOST} * (t.turn_idx::DOUBLE / (t.turn_idx::DOUBLE + {_RF_PIVOT})), 4) AS score
  FROM scores s JOIN transcripts t ON t.doc_id = s.doc_id
),
ranked AS (
  SELECT query_id, doc_id, score,
         row_number() OVER (PARTITION BY query_id ORDER BY score DESC, doc_id) AS rnk
  FROM final
)
SELECT query_id, cast(rnk AS int) AS rank, doc_id, score
FROM ranked WHERE rnk <= {BM25_TOP_K}
""",
        # distance_feature: BM25 + boost·pivot/(pivot+|f−origin|).
        "distance_feature": f"""
WITH {TRANSCRIPTS_CTE},
qterms(query_id, term) AS (VALUES {qterms}),
{_BM25_SCORES_CTE},
final AS (
  SELECT s.query_id, s.doc_id,
         round(s.score + {_DF_BOOST} * ({_DF_PIVOT} / ({_DF_PIVOT} + abs(t.turn_idx::DOUBLE - 0.0))), 4) AS score
  FROM scores s JOIN transcripts t ON t.doc_id = s.doc_id
),
ranked AS (
  SELECT query_id, doc_id, score,
         row_number() OVER (PARTITION BY query_id ORDER BY score DESC, doc_id) AS rnk
  FROM final
)
SELECT query_id, cast(rnk AS int) AS rank, doc_id, score
FROM ranked WHERE rnk <= {BM25_TOP_K}
""",
        # span_first: term's first occurrence strictly before `end`,
        # scored as the plain term query (single-term BM25).
        "span_first": f"""
WITH {TRANSCRIPTS_CTE},
{TOKPOS_CTE},
q(query_id, term, endp) AS (VALUES {_span_first_values()}),
matches AS (
  SELECT q.query_id, p.doc_id, q.term
  FROM q JOIN tokpos p ON p.term = q.term
  GROUP BY q.query_id, p.doc_id, q.term, q.endp
  HAVING min(p.pos) < q.endp
),
sscore AS (
  SELECT m.query_id, m.doc_id,
         ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
         * tf.tf * {_K1 + 1.0} / (tf.tf + {_K1} * ({1.0 - _B} + {_B} * dl.dl / s.avgdl)) AS score
  FROM matches m
  JOIN tf ON tf.term = m.term AND tf.doc_id = m.doc_id
  JOIN df ON df.term = m.term
  JOIN dl ON dl.doc_id = m.doc_id
  CROSS JOIN stats s
),
ranked AS (
  SELECT query_id, doc_id, score,
         row_number() OVER (PARTITION BY query_id ORDER BY score DESC, doc_id) AS rnk
  FROM sscore
)
SELECT query_id, cast(rnk AS int) AS rank, doc_id, round(score, 4) AS score
FROM ranked WHERE rnk <= {BM25_TOP_K}
""",
        # match_bool_prefix: bool-OR BM25 over complete tokens + a
        # constant-score (+1.0) dictionary-expanded prefix clause.
        "match_bool_prefix": f"""
WITH {TRANSCRIPTS_CTE},
compq(query_id, term) AS (VALUES {_mbp_values()[0]}),
preq(query_id, pre) AS (VALUES {_mbp_values()[1]}),
expd AS (
  SELECT DISTINCT p.query_id, tf.doc_id
  FROM preq p JOIN df ON df.term LIKE p.pre || '%' JOIN tf ON tf.term = df.term
),
cscore AS (
  SELECT q.query_id, tf.doc_id,
         sum( ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
              * tf.tf * {_K1 + 1.0} / (tf.tf + {_K1} * ({1.0 - _B} + {_B} * dl.dl / s.avgdl)) ) AS score
  FROM compq q
  JOIN tf ON tf.term = q.term
  JOIN df ON df.term = q.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats s
  GROUP BY q.query_id, tf.doc_id
),
allc AS (
  SELECT query_id, doc_id FROM cscore
  UNION SELECT query_id, doc_id FROM expd
),
final AS (
  SELECT a.query_id, a.doc_id,
         round(coalesce(c.score, 0.0)
               + CASE WHEN e.doc_id IS NOT NULL THEN 1.0 ELSE 0.0 END, 4) AS score
  FROM allc a
  LEFT JOIN cscore c ON c.query_id = a.query_id AND c.doc_id = a.doc_id
  LEFT JOIN expd e ON e.query_id = a.query_id AND e.doc_id = a.doc_id
),
ranked AS (
  SELECT query_id, doc_id, score,
         row_number() OVER (PARTITION BY query_id ORDER BY score DESC, doc_id) AS rnk
  FROM final
)
SELECT query_id, cast(rnk AS int) AS rank, doc_id, score
FROM ranked WHERE rnk <= {BM25_TOP_K}
""",
        # diversified_sampler + terms: at most one doc per conversation
        # in the sample, walked in BM25 rank order.
        "diversified_sampler": f"""
WITH {TRANSCRIPTS_CTE},
qsam(term) AS (VALUES {_div_qterms_values()}),
sscores AS (
  SELECT tf.doc_id,
         sum( ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
              * tf.tf * {_K1 + 1.0} / (tf.tf + {_K1} * ({1.0 - _B} + {_B} * dl.dl / s.avgdl)) ) AS score
  FROM qsam q
  JOIN tf ON tf.term = q.term
  JOIN df ON df.term = q.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats s
  GROUP BY tf.doc_id
),
rankedall AS (
  SELECT doc_id, score,
         row_number() OVER (PARTITION BY doc_id // {_DIV_STRIDE} ORDER BY score DESC, doc_id) AS within
  FROM sscores
),
samp AS (
  SELECT doc_id FROM rankedall WHERE within = 1
  ORDER BY score DESC, doc_id LIMIT {_DIV_SIZE}
),
cnt AS (
  SELECT t.term, count(DISTINCT t.doc_id)::BIGINT AS doc_count
  FROM tok t JOIN samp ON samp.doc_id = t.doc_id GROUP BY t.term
),
rankedsam AS (
  SELECT term, doc_count, row_number() OVER (ORDER BY doc_count DESC, term) AS rnk
  FROM cnt
)
SELECT term, doc_count, cast(rnk AS int) AS rank FROM rankedsam WHERE rnk <= {_DIV_TOP}
""",
        # TPC-H Q13: order-count distribution incl. the zero bucket.
        "custdist": """
WITH oc AS (SELECT o_custkey, count(*)::BIGINT AS c FROM orders GROUP BY 1),
allc AS (
  SELECT c.c_custkey, coalesce(oc.c, 0)::BIGINT AS c_count
  FROM customer c LEFT JOIN oc ON oc.o_custkey = c.c_custkey
)
SELECT c_count, count(*)::BIGINT AS custdist
FROM allc GROUP BY 1 ORDER BY custdist DESC, c_count DESC
""",
        # TPC-H Q18: large-volume orders, exact-cents ranking.
        "large_orders": f"""
WITH oq AS (
  SELECT l_orderkey, sum(cast(l_quantity AS BIGINT))::BIGINT AS sum_qty
  FROM lineitem GROUP BY 1 HAVING sum(cast(l_quantity AS BIGINT)) > {_Q18_MIN_QTY}
),
j AS (
  SELECT c.c_name, o.o_custkey, o.o_orderkey,
         epoch_us(o.o_orderdate) // 86400000000 AS od_day,
         cast(round(o.o_totalprice * 100) AS BIGINT) AS cents, oq.sum_qty
  FROM oq JOIN orders o ON o.o_orderkey = oq.l_orderkey
  JOIN customer c ON c.c_custkey = o.o_custkey
)
SELECT c_name, o_custkey, o_orderkey, od_day,
       round(cents::DOUBLE / 100.0, 2) AS o_totalprice, sum_qty
FROM j ORDER BY cents DESC, o_orderkey LIMIT 100
""",
        # TPC-H Q14: promotion revenue share per ship month; exact
        # integer 1/10000-dollar revenue = cents × (100 − disc_pct).
        "promo_share": """
WITH v AS (
  SELECT (date_part('year', l_shipdate)::BIGINT - 1970) * 12
         + date_part('month', l_shipdate)::BIGINT - 1 AS month,
         cast(round(l_extendedprice * 100) AS BIGINT)
         * (100 - cast(round(l_discount * 100) AS BIGINT)) AS u,
         l_partkey
  FROM lineitem
),
p AS (SELECT p_partkey FROM part WHERE p_type = 'PROMO'),
g AS (
  SELECT month,
         sum(CASE WHEN v.l_partkey IN (SELECT p_partkey FROM p) THEN u ELSE 0 END)::BIGINT AS promo_u,
         sum(u)::BIGINT AS total_u
  FROM v GROUP BY 1
)
SELECT month, round(promo_u::DOUBLE / 10000.0, 2) AS promo_revenue,
       round(total_u::DOUBLE / 10000.0, 2) AS total_revenue,
       round(100.0 * promo_u::DOUBLE / total_u::DOUBLE, 6) AS promo_share_pct
FROM g
""",
        # TPC-H Q15: max-revenue supplier(s) in the quarter, exact ints.
        "top_supplier": f"""
WITH rev AS (
  SELECT l_suppkey AS s_suppkey,
         sum(cast(round(l_extendedprice * 100) AS BIGINT)
             * (100 - cast(round(l_discount * 100) AS BIGINT)))::BIGINT AS u
  FROM lineitem
  WHERE l_shipdate >= TIMESTAMP '{_Q15_LO}' AND l_shipdate < TIMESTAMP '{_Q15_HI}'
  GROUP BY 1
)
SELECT r.s_suppkey, s.s_name, round(r.u::DOUBLE / 10000.0, 2) AS total_revenue
FROM rev r JOIN supplier s ON s.s_suppkey = r.s_suppkey
WHERE r.u = (SELECT max(u) FROM rev)
""",
        # event_type × day-of-week count pivot (dow = epoch_days % 7).
        "pivot_events": """
SELECT event_type,
       sum(CASE WHEN (epoch_us(ts) // 86400000000) % 7 = 0 THEN 1 ELSE 0 END)::BIGINT AS dow_0,
       sum(CASE WHEN (epoch_us(ts) // 86400000000) % 7 = 1 THEN 1 ELSE 0 END)::BIGINT AS dow_1,
       sum(CASE WHEN (epoch_us(ts) // 86400000000) % 7 = 2 THEN 1 ELSE 0 END)::BIGINT AS dow_2,
       sum(CASE WHEN (epoch_us(ts) // 86400000000) % 7 = 3 THEN 1 ELSE 0 END)::BIGINT AS dow_3,
       sum(CASE WHEN (epoch_us(ts) // 86400000000) % 7 = 4 THEN 1 ELSE 0 END)::BIGINT AS dow_4,
       sum(CASE WHEN (epoch_us(ts) // 86400000000) % 7 = 5 THEN 1 ELSE 0 END)::BIGINT AS dow_5,
       sum(CASE WHEN (epoch_us(ts) // 86400000000) % 7 = 6 THEN 1 ELSE 0 END)::BIGINT AS dow_6
FROM events GROUP BY event_type
""",
        # span_not: some include occurrence with no exclude within dist.
        "span_not": f"""
WITH {TRANSCRIPTS_CTE},
{TOKPOS_CTE},
q(query_id, inc, exc, dist) AS (VALUES {_span_not_values()}),
good AS (
  SELECT DISTINCT q.query_id, p.doc_id, q.inc
  FROM q JOIN tokpos p ON p.term = q.inc
  WHERE NOT EXISTS (
    SELECT 1 FROM tokpos e
    WHERE e.doc_id = p.doc_id AND e.term = q.exc AND abs(e.pos - p.pos) <= q.dist
  )
),
sscore AS (
  SELECT g.query_id, g.doc_id,
         ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
         * tf.tf * {_K1 + 1.0} / (tf.tf + {_K1} * ({1.0 - _B} + {_B} * dl.dl / s.avgdl)) AS score
  FROM good g
  JOIN tf ON tf.term = g.inc AND tf.doc_id = g.doc_id
  JOIN df ON df.term = g.inc
  JOIN dl ON dl.doc_id = g.doc_id
  CROSS JOIN stats s
),
ranked AS (
  SELECT query_id, doc_id, score,
         row_number() OVER (PARTITION BY query_id ORDER BY score DESC, doc_id) AS rnk
  FROM sscore
)
SELECT query_id, cast(rnk AS int) AS rank, doc_id, round(score, 4) AS score
FROM ranked WHERE rnk <= {BM25_TOP_K}
""",
        # significant_terms chi_square heuristic: exact-int 2×2
        # contingency statistic, overrepresented terms only.
        "sig_chi2": f"""
WITH {TRANSCRIPTS_CTE},
qt(term) AS (VALUES {", ".join(f"('{t}')" for t in sorted(set(FACET_QUERY.lower().split())))}),
fg AS (SELECT DISTINCT tf.doc_id FROM tf JOIN qt ON tf.term = qt.term),
fsz AS (SELECT count(*)::BIGINT AS fi FROM fg),
fgdf AS (
  SELECT tf.term, count(DISTINCT tf.doc_id)::BIGINT AS fg_df
  FROM tf JOIN fg ON fg.doc_id = tf.doc_id GROUP BY tf.term),
j AS (
  SELECT f.term, f.fg_df, d.df AS bg_df,
         f.fg_df::HUGEINT AS a, (d.df - f.fg_df)::HUGEINT AS b,
         (fs.fi - f.fg_df)::HUGEINT AS c,
         (s.n_docs - fs.fi - (d.df - f.fg_df))::HUGEINT AS dd,
         s.n_docs::HUGEINT AS nn
  FROM fgdf f JOIN df d ON d.term = f.term CROSS JOIN fsz fs CROSS JOIN stats s
  WHERE f.fg_df >= 2 AND f.fg_df * s.n_docs > d.df * fs.fi),
sc AS (
  SELECT term, fg_df, bg_df,
         round((nn * (a * dd - b * c) * (a * dd - b * c))::DOUBLE
               / ((a + b) * (c + dd) * (a + c) * (b + dd))::DOUBLE, 4) AS chi2
  FROM j),
rankedc AS (
  SELECT term, fg_df, bg_df, chi2, row_number() OVER (ORDER BY chi2 DESC, term) AS rn
  FROM sc)
SELECT term, fg_df, bg_df, chi2 FROM rankedc WHERE rn <= 10
""",
        # completion suggester (fuzzy prefix, fuzziness 1): edit distance
        # between the prefix and the TERM'S OWN PREFIX of equal length.
        "completion_suggest": f"""
WITH {TRANSCRIPTS_CTE},
qp(query_id, pre) AS (VALUES {", ".join(f"('{k}', '{v}')" for k, v in sorted(COMPLETION_PREFIXES.items()))}),
cand AS (
  SELECT qp.query_id, df.term,
         levenshtein(qp.pre, substr(df.term, 1, length(qp.pre))) AS dist,
         df.df AS weight
  FROM qp JOIN df ON levenshtein(qp.pre, substr(df.term, 1, length(qp.pre))) <= {_COMPLETION_FUZZ}
),
ranked AS (
  SELECT query_id, term, dist, weight,
         row_number() OVER (PARTITION BY query_id ORDER BY dist, weight DESC, term) AS rnk
  FROM cand
)
SELECT query_id, cast(rnk AS int) AS rank, term, cast(dist AS int) AS dist, weight
FROM ranked WHERE rnk <= {_COMPLETION_SIZE}
""",
        # _analyze API: the tokenization contract on a literal — the
        # exact regexp pipeline every BM25 oracle already depends on.
        "analyze_api": f"""
WITH t(s) AS (VALUES ('{_ANALYZE_TEXT}')),
arr AS (
  SELECT list_filter(regexp_split_to_array(lower(nfc_normalize(s)), '[^\\p{{L}}\\p{{N}}]+'),
                     x -> x <> '') AS a
  FROM t
)
SELECT unnest(generate_series(0, len(a) - 1))::BIGINT AS position, unnest(a) AS token
FROM arr
""",
        # _rank_eval: precision@10 / MRR@10 / binary nDCG@10 of the BM25
        # ranking vs AND-semantics judgments (doc has EVERY query term).
        "rank_eval": f"""
WITH {TRANSCRIPTS_CTE},
qterms(query_id, term) AS (VALUES {qterms}),
nt AS (SELECT query_id, count(DISTINCT term)::BIGINT AS n FROM qterms GROUP BY 1),
{_BM25_SCORES_CTE},
ranked AS (
  SELECT query_id, doc_id,
         row_number() OVER (PARTITION BY query_id ORDER BY score DESC, doc_id) AS rnk
  FROM scores
),
topk AS (SELECT * FROM ranked WHERE rnk <= {BM25_TOP_K}),
rel AS (
  SELECT q.query_id, tf.doc_id
  FROM qterms q JOIN tf ON tf.term = q.term
  GROUP BY q.query_id, tf.doc_id
  HAVING count(DISTINCT tf.term) = (SELECT n FROM nt WHERE nt.query_id = q.query_id)
),
relcnt AS (SELECT query_id, count(*)::BIGINT AS n_rel FROM rel GROUP BY 1),
hits AS (
  SELECT t.query_id, t.rnk
  FROM topk t JOIN rel r ON r.query_id = t.query_id AND r.doc_id = t.doc_id
),
met AS (
  SELECT q.query_id,
         coalesce(rc.n_rel, 0)::BIGINT AS n_relevant,
         coalesce((SELECT count(*) FROM hits h WHERE h.query_id = q.query_id), 0)::DOUBLE
           / {BM25_TOP_K}.0 AS prec,
         coalesce((SELECT 1.0 / min(h.rnk) FROM hits h WHERE h.query_id = q.query_id), 0.0) AS mrr,
         coalesce((SELECT sum(1.0 / log2(h.rnk + 1.0)) FROM hits h WHERE h.query_id = q.query_id), 0.0) AS dcg,
         coalesce((SELECT sum(1.0 / log2(u.i + 1.0))
                   FROM unnest(generate_series(1, least(coalesce(rc.n_rel, 0), {BM25_TOP_K}))) AS u(i)),
                  0.0) AS idcg
  FROM (SELECT DISTINCT query_id FROM qterms) q
  LEFT JOIN relcnt rc ON rc.query_id = q.query_id
)
SELECT query_id, n_relevant,
       round(prec, 4) AS precision_at_k,
       round(mrr, 4) AS mrr,
       CASE WHEN idcg > 0 THEN round(dcg / idcg, 4) ELSE 0.0 END AS ndcg
FROM met
""",
        # Lucene boolean grammar: hand-compiled set algebra per test
        # query (the engine's parser output, translated clause-for-clause).
        "lucene_query": f"""
WITH {TRANSCRIPTS_CTE},
{TOKPOS_CTE},
qpos(query_id, term) AS (VALUES {_lucene_pos_values()}),
matches AS (
  -- lq1: (spark OR join) AND NOT slow
  SELECT DISTINCT 'lq1' AS query_id, doc_id FROM tf
  WHERE term IN ('spark', 'join')
    AND doc_id NOT IN (SELECT doc_id FROM tf WHERE term = 'slow')
  UNION ALL
  -- lq2: customer AND (table OR scan)
  SELECT DISTINCT 'lq2', doc_id FROM tf
  WHERE term = 'customer'
    AND doc_id IN (SELECT doc_id FROM tf WHERE term IN ('table', 'scan'))
  UNION ALL
  -- lq3: "window stream" OR vector   (UNION dedups the two branches)
  SELECT 'lq3', doc_id FROM (
    SELECT DISTINCT p1.doc_id FROM tokpos p1
    JOIN tokpos p2 ON p2.doc_id = p1.doc_id AND p2.pos = p1.pos + 1
    WHERE p1.term = 'window' AND p2.term = 'stream'
    UNION
    SELECT DISTINCT doc_id FROM tf WHERE term = 'vector'
  )
),
lscore AS (
  SELECT m.query_id, m.doc_id,
         round(sum( ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
              * tf.tf * {_K1 + 1.0} / (tf.tf + {_K1} * ({1.0 - _B} + {_B} * dl.dl / s.avgdl)) ), 4) AS score
  FROM matches m
  JOIN qpos q ON q.query_id = m.query_id
  JOIN tf ON tf.term = q.term AND tf.doc_id = m.doc_id
  JOIN df ON df.term = q.term
  JOIN dl ON dl.doc_id = m.doc_id
  CROSS JOIN stats s
  GROUP BY m.query_id, m.doc_id
),
ranked AS (
  SELECT query_id, doc_id, score,
         row_number() OVER (PARTITION BY query_id ORDER BY score DESC, doc_id) AS rnk
  FROM lscore
)
SELECT query_id, cast(rnk AS int) AS rank, doc_id, score
FROM ranked WHERE rnk <= {BM25_TOP_K}
""",
        # fuzzy with transpositions: identical pipeline to fuzzy_search,
        # expansion distance = true Damerau-Levenshtein (DuckDB builtin).
        "fuzzy_damerau": f"""
WITH {TRANSCRIPTS_CTE},
qt(query_id, q_term) AS (VALUES {_fuzzy_match_values()}),
cand AS (
  SELECT qt.query_id, qt.q_term, df.term,
         damerau_levenshtein(qt.q_term, df.term) AS dist
  FROM qt CROSS JOIN df
  WHERE damerau_levenshtein(qt.q_term, df.term) <= {_FUZZY_DIST}
),
rankedf AS (
  SELECT query_id, q_term, term, dist,
         row_number() OVER (PARTITION BY query_id, q_term ORDER BY dist, term) AS rnk
  FROM cand
),
qterms AS (SELECT DISTINCT query_id, term FROM rankedf WHERE rnk <= {_FUZZY_TOPN}),
{_BM25_SCORES_CTE},
ranked AS (
  SELECT query_id, doc_id, score,
         row_number() OVER (PARTITION BY query_id ORDER BY score DESC, doc_id) AS rnk
  FROM scores
)
SELECT query_id, cast(rnk AS int) AS rank, doc_id, round(score, 4) AS score
FROM ranked WHERE rnk <= {BM25_TOP_K}
""",
        # sliced scroll manifest: md5 little-endian-first-8 parity.
        "sliced_scroll": f"""
SELECT cast(md5_number_upper(cast(doc_id AS varchar) || '-sl') % {_SLICE_MAX} AS BIGINT) AS slice_id,
       count(*)::BIGINT AS doc_count,
       min(doc_id)::BIGINT AS min_id,
       max(doc_id)::BIGINT AS max_id,
       sum(doc_id)::BIGINT AS sum_id
FROM documents GROUP BY 1 ORDER BY 1
""",
        # terms(role) + missing(tool): tool derivation shared with
        # sources/transcripts.documents_batch_to_transcripts.
        "missing_agg": f"""
WITH tr AS (
  SELECT CASE cast(doc_id % 3 AS int) WHEN 0 THEN 'user' WHEN 1 THEN 'assistant' ELSE 'tool' END AS role,
         {_tool_case_sql()} AS tool
  FROM documents
)
SELECT role, count(*)::BIGINT AS doc_count,
       (count(*) FILTER (WHERE tool = ''))::BIGINT AS missing_count
FROM tr GROUP BY role ORDER BY role
""",
        # duplicated word-8-gram spans across >= 2 docs, top-50 by
        # (total occurrences desc, gram asc) — a total order, so the
        # row SET is deterministic without a rank column.
        "dup_spans": f"""
WITH d AS (SELECT doc_id, string_split(text, ' ') AS arr FROM documents),
g AS (
  SELECT doc_id, array_to_string(arr[i.g+1:i.g+{_DUPSPAN_N}], ' ') AS gram
  FROM d, LATERAL (SELECT unnest(generate_series(0, len(arr) - {_DUPSPAN_N})) AS g) i
),
agg AS (
  SELECT gram, count(*)::BIGINT AS n_occ, count(DISTINCT doc_id)::BIGINT AS n_docs
  FROM g GROUP BY gram HAVING count(DISTINCT doc_id) >= {_DUPSPAN_MIN_DOCS}
)
SELECT gram, n_occ, n_docs FROM agg ORDER BY n_occ DESC, gram LIMIT {_DUPSPAN_TOP}
""",
        # C4/RefinedWeb line-level dedup: keep-first over non-overlapping
        # 8-token chunks; winners (min packed key) ARE the kept lines.
        "line_dedup": """
WITH arr AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(lower(nfc_normalize(text)), '[^\\p{L}\\p{N}]+'), x -> x <> '') AS toks
  FROM documents
),
ch0 AS (
  SELECT doc_id, toks,
         unnest(range(CAST(ceil(len(toks)/8.0) AS BIGINT))) AS i
  FROM arr WHERE len(toks) > 0
),
chunks AS (
  SELECT doc_id, i AS chunk_idx,
         array_to_string(toks[i*8+1 : i*8+8], ' ') AS line,
         least(8, len(toks) - i*8) AS n_toks
  FROM ch0
),
win AS (
  SELECT line, min(doc_id * 1048576 + chunk_idx) AS packed, min(n_toks) AS n_toks
  FROM chunks GROUP BY line
),
kept AS (
  SELECT packed // 1048576 AS doc_id, count(*)::BIGINT AS n_kept,
         sum(n_toks)::BIGINT AS kept_tokens
  FROM win GROUP BY 1
),
tot AS (SELECT doc_id, count(*)::BIGINT AS n_lines FROM chunks GROUP BY doc_id)
SELECT t.doc_id, t.n_lines, coalesce(k.n_kept, 0)::BIGINT AS n_kept,
       coalesce(k.kept_tokens, 0)::BIGINT AS kept_tokens
FROM tot t LEFT JOIN kept k USING (doc_id)
ORDER BY doc_id
""",
        # terms agg with shard_size error bounds: per-shard top lists,
        # error contribution = last returned count for TRUNCATED shards
        # only (an exhaustive shard proves absence = count 0).
        "terms_shard_bounds": f"""
WITH base AS (
  SELECT source AS term,
         cast(md5_number_upper(cast(doc_id AS varchar) || '-sh') % {_TSB_SHARDS} AS BIGINT) AS shard
  FROM documents
),
sc AS (SELECT shard, term, count(*)::BIGINT AS c FROM base GROUP BY shard, term),
rk AS (
  SELECT shard, term, c,
         row_number() OVER (PARTITION BY shard ORDER BY c DESC, term) AS r
  FROM sc
),
kept AS (SELECT shard, term, c FROM rk WHERE r <= {_TSB_SHARD_SIZE}),
smin AS (
  SELECT shard,
         CASE WHEN count(*) = {_TSB_SHARD_SIZE} THEN min(c) ELSE 0 END AS err
  FROM kept GROUP BY shard
),
grid AS (
  SELECT s.shard, s.err, t.term
  FROM smin s CROSS JOIN (SELECT DISTINCT term FROM kept) t
),
merged AS (
  SELECT g.term,
         sum(coalesce(k.c, 0))::BIGINT AS doc_count,
         sum(CASE WHEN k.c IS NULL THEN g.err ELSE 0 END)::BIGINT AS err_bound
  FROM grid g LEFT JOIN kept k ON k.shard = g.shard AND k.term = g.term
  GROUP BY g.term
)
SELECT term, doc_count, err_bound FROM merged
ORDER BY doc_count DESC, term LIMIT {_TSB_SIZE}
""",
        # TPC-H Q17: the 0.2·avg threshold as exact ints
        # (5·qty·cnt < Σqty), money in integer cents until the end.
        "small_qty_revenue": f"""
WITH bp AS (SELECT p_partkey FROM part WHERE p_brand = '{_Q17_BRAND}'),
li AS (
  SELECT l_partkey, cast(l_quantity AS BIGINT) AS q,
         cast(round(l_extendedprice * 100) AS BIGINT) AS cents
  FROM lineitem WHERE l_partkey IN (SELECT p_partkey FROM bp)
),
st AS (SELECT l_partkey, sum(q)::BIGINT AS sq, count(*)::BIGINT AS cnt
       FROM li GROUP BY 1)
SELECT round(coalesce(sum(li.cents), 0)::DOUBLE / 100.0 / 7.0, 2) AS avg_yearly
FROM li JOIN st USING (l_partkey)
WHERE 5 * li.q * st.cnt < st.sq
""",
        # TPC-H Q7: two-nation trade volume by ship year, exact ucents.
        "volume_shipping": f"""
WITH sn AS (
  SELECT s_suppkey, n_name FROM supplier
  JOIN nation ON n_nationkey = s_nationkey
  WHERE n_name IN ('{_Q7_NATIONS[0]}', '{_Q7_NATIONS[1]}')
),
cn AS (
  SELECT c_custkey, n_name FROM customer
  JOIN nation ON n_nationkey = c_nationkey
  WHERE n_name IN ('{_Q7_NATIONS[0]}', '{_Q7_NATIONS[1]}')
),
v AS (
  SELECT sn.n_name AS supp_nation, cn.n_name AS cust_nation,
         date_part('year', l_shipdate)::BIGINT AS l_year,
         cast(round(l_extendedprice * 100) AS BIGINT)
         * (100 - cast(round(l_discount * 100) AS BIGINT)) AS u
  FROM lineitem
  JOIN orders ON o_orderkey = l_orderkey
  JOIN sn ON sn.s_suppkey = l_suppkey
  JOIN cn ON cn.c_custkey = o_custkey
  WHERE l_shipdate >= TIMESTAMP '{_Q7_LO}' AND l_shipdate < TIMESTAMP '{_Q7_HI}'
    AND sn.n_name <> cn.n_name
)
SELECT supp_nation, cust_nation, l_year,
       round(sum(u)::DOUBLE / 10000.0, 2) AS revenue
FROM v GROUP BY 1, 2, 3 ORDER BY 1, 2, 3
""",
        # TPC-H Q8: target-nation market share by order year.
        "market_share": f"""
WITH pk AS (SELECT p_partkey FROM part WHERE p_type = '{_Q8_TYPE}'),
ck AS (
  SELECT c_custkey FROM customer
  JOIN nation ON n_nationkey = c_nationkey
  JOIN region ON r_regionkey = n_regionkey
  WHERE r_name = '{_Q8_REGION}'
),
sk AS (
  SELECT s_suppkey FROM supplier
  JOIN nation ON n_nationkey = s_nationkey
  WHERE n_name = '{_Q8_NATION}'
),
v AS (
  SELECT date_part('year', o_orderdate)::BIGINT AS o_year,
         cast(round(l_extendedprice * 100) AS BIGINT)
         * (100 - cast(round(l_discount * 100) AS BIGINT)) AS u,
         (l_suppkey IN (SELECT s_suppkey FROM sk)) AS tgt
  FROM lineitem
  JOIN orders ON o_orderkey = l_orderkey
  WHERE l_partkey IN (SELECT p_partkey FROM pk)
    AND o_custkey IN (SELECT c_custkey FROM ck)
    AND o_orderdate >= TIMESTAMP '{_Q8_LO}' AND o_orderdate < TIMESTAMP '{_Q8_HI}'
)
SELECT o_year,
       round(sum(CASE WHEN tgt THEN u ELSE 0 END)::DOUBLE / sum(u)::DOUBLE, 6)
         AS mkt_share
FROM v GROUP BY 1 ORDER BY 1
""",
        # TPC-H Q21 shape: the exists/not-exists pair folded into
        # per-order distinct-supplier aggregates (returnflag='R' stands
        # in for receipt>commit).
        "waiting_supplier": f"""
WITH fl AS (
  SELECT DISTINCT l_orderkey, l_suppkey,
         max(CASE WHEN l_returnflag = 'R' THEN 1 ELSE 0 END)
           OVER (PARTITION BY l_orderkey, l_suppkey) AS fail
  FROM lineitem JOIN orders ON o_orderkey = l_orderkey
  WHERE o_orderstatus = 'F'
),
agg AS (
  SELECT l_orderkey, count(*)::BIGINT AS nsupp, sum(fail)::BIGINT AS nfail,
         min(CASE WHEN fail = 1 THEN l_suppkey END) AS failkey
  FROM fl GROUP BY 1
),
w AS (
  SELECT failkey AS s_suppkey, count(*)::BIGINT AS numwait
  FROM agg WHERE nsupp >= 2 AND nfail = 1 GROUP BY 1
)
SELECT s.s_name, w.numwait
FROM w JOIN supplier s USING (s_suppkey)
ORDER BY numwait DESC, s_name LIMIT {_Q21_TOP}
""",
        # TPC-H Q6: one pruned scan, exact 1/10000-dollar ints.
        "forecast_revenue": f"""
SELECT round(coalesce(sum(
         cast(round(l_extendedprice * 100) AS BIGINT)
         * cast(round(l_discount * 100) AS BIGINT)), 0)::DOUBLE / 10000.0, 2)
       AS revenue
FROM lineitem
WHERE l_shipdate >= TIMESTAMP '{_Q6_LO}' AND l_shipdate < TIMESTAMP '{_Q6_HI}'
  AND cast(round(l_discount * 100) AS BIGINT) BETWEEN {_Q6_DMIN} AND {_Q6_DMAX}
  AND l_quantity < {_Q6_QTY}
""",
        # TPC-H Q4 shape: EXISTS late lineitem (returnflag='R' stand-in)
        # per quarter order, counted by priority.
        "priority_count": f"""
SELECT o_orderpriority, count(*)::BIGINT AS order_count
FROM orders
WHERE o_orderdate >= TIMESTAMP '{_Q4_LO}' AND o_orderdate < TIMESTAMP '{_Q4_HI}'
  AND EXISTS (SELECT 1 FROM lineitem
              WHERE l_orderkey = o_orderkey AND l_returnflag = 'R')
GROUP BY 1 ORDER BY 1
""",
        # TPC-H Q12 shape: l_linestatus stands in for shipmode.
        "shipmode_priority": f"""
SELECT l_linestatus AS l_shipmode,
       sum(CASE WHEN o_orderpriority IN ('{_Q12_HIGH[0]}', '{_Q12_HIGH[1]}')
                THEN 1 ELSE 0 END)::BIGINT AS high_line_count,
       sum(CASE WHEN o_orderpriority IN ('{_Q12_HIGH[0]}', '{_Q12_HIGH[1]}')
                THEN 0 ELSE 1 END)::BIGINT AS low_line_count
FROM lineitem JOIN orders ON o_orderkey = l_orderkey
WHERE l_shipdate >= TIMESTAMP '{_Q12_LO}' AND l_shipdate < TIMESTAMP '{_Q12_HI}'
GROUP BY 1 ORDER BY 1
""",
        # span_containing: big [p0,p1] window encloses the little term;
        # scores = BM25 over the big pair.
        "span_containing": f"""
WITH {TRANSCRIPTS_CTE},
{TOKPOS_CTE},
qterms(query_id, term) AS (VALUES {_span_contain_qterms(SPAN_CONTAIN_QUERIES, False)}),
{_BM25_SCORES_CTE},
matches AS ({_span_contain_matches_sql(SPAN_CONTAIN_QUERIES)}),
rankedp AS (
  SELECT m.query_id, m.doc_id, s.score,
         row_number() OVER (PARTITION BY m.query_id ORDER BY s.score DESC, m.doc_id) AS rnk
  FROM matches m JOIN scores s ON s.query_id = m.query_id AND s.doc_id = m.doc_id
)
SELECT query_id, cast(rnk AS int) AS rank, doc_id, round(score, 4) AS score
FROM rankedp WHERE rnk <= {BM25_TOP_K}
""",
        # span_within: same enclosure predicate, the LITTLE term scores.
        "span_within": f"""
WITH {TRANSCRIPTS_CTE},
{TOKPOS_CTE},
qterms(query_id, term) AS (VALUES {_span_contain_qterms(SPAN_WITHIN_QUERIES, True)}),
{_BM25_SCORES_CTE},
matches AS ({_span_contain_matches_sql(SPAN_WITHIN_QUERIES)}),
rankedp AS (
  SELECT m.query_id, m.doc_id, s.score,
         row_number() OVER (PARTITION BY m.query_id ORDER BY s.score DESC, m.doc_id) AS rnk
  FROM matches m JOIN scores s ON s.query_id = m.query_id AND s.doc_id = m.doc_id
)
SELECT query_id, cast(rnk AS int) AS rank, doc_id, round(score, 4) AS score
FROM rankedp WHERE rnk <= {BM25_TOP_K}
""",
        # multi_match cross_fields: per-TERM max across the (text, role)
        # field group, term maxes summed per doc; role field has tf=1,
        # dl=1, avgdl=1.0 exactly (one token per doc).
        "cross_fields": f"""
WITH {TRANSCRIPTS_CTE},
qterms(query_id, term) AS (VALUES {_cf_qterms_values()}),
wsc AS (
  SELECT q.query_id, q.term, tf.doc_id,
         {_CF_BOOSTS[0]} * ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
           * tf.tf * 2.2 / (tf.tf + 1.2 * (0.25 + 0.75 * dl.dl / s.avgdl)) AS score
  FROM qterms q
  JOIN tf ON tf.term = q.term
  JOIN df ON df.term = q.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats s
),
rtok AS (SELECT doc_id, role AS term FROM transcripts),
rdf AS (SELECT term, count(*)::BIGINT AS df FROM rtok GROUP BY term),
rstats AS (SELECT count(*)::BIGINT AS n_docs FROM transcripts),
rsc AS (
  SELECT q.query_id, q.term, r.doc_id,
         {_CF_BOOSTS[1]} * ln(1 + (s.n_docs - rdf.df + 0.5) / (rdf.df + 0.5))
           * 1 * 2.2 / (1 + 1.2 * (0.25 + 0.75 * 1.0 / 1.0)) AS score
  FROM qterms q
  JOIN rtok r ON r.term = q.term
  JOIN rdf ON rdf.term = q.term
  CROSS JOIN rstats s
),
cfu AS (SELECT * FROM wsc UNION ALL SELECT * FROM rsc),
cfterm AS (
  SELECT query_id, term, doc_id, max(score) AS tscore
  FROM cfu GROUP BY 1, 2, 3
),
cftot AS (
  SELECT query_id, doc_id, sum(tscore) AS score FROM cfterm GROUP BY 1, 2
),
cfranked AS (
  SELECT query_id, doc_id, score,
         row_number() OVER (PARTITION BY query_id ORDER BY round(score, 4) DESC, doc_id) AS rnk
  FROM cftot
)
SELECT query_id, cast(rnk AS int) AS rank, doc_id, round(score, 4) AS score
FROM cfranked WHERE rnk <= {BM25_TOP_K}
""",
        # combined_fields (BM25F simplification): weighted tf/dl merge
        # into ONE synthetic field, df = docs matching in ANY field,
        # single BM25 over the combined stats.
        "combined_fields": f"""
WITH {TRANSCRIPTS_CTE},
qterms(query_id, term) AS (VALUES {_cf_qterms_values()}),
rtf AS (SELECT doc_id, role AS term, 1::BIGINT AS tf FROM transcripts),
cmtf AS (
  SELECT term, doc_id, sum(wtf) AS ctf FROM (
    SELECT term, doc_id, {_CF2_WEIGHTS[0]} * tf AS wtf FROM tf
    UNION ALL
    SELECT term, doc_id, {_CF2_WEIGHTS[1]} * tf AS wtf FROM rtf
  ) u GROUP BY term, doc_id
),
cdl AS (
  SELECT t.doc_id,
         {_CF2_WEIGHTS[0]} * coalesce(d.dl, 0) + {_CF2_WEIGHTS[1]} * 1 AS cdl
  FROM transcripts t LEFT JOIN dl d ON d.doc_id = t.doc_id
),
cstats AS (SELECT count(*)::BIGINT AS n_docs, avg(cdl) AS avgdl FROM cdl),
cdf AS (SELECT term, count(*)::BIGINT AS df FROM cmtf GROUP BY term),
scores AS (
  SELECT q.query_id, c.doc_id,
         sum( ln(1.0 + (s.n_docs - f.df + 0.5) / (f.df + 0.5))
              * c.ctf * {_K1 + 1.0}
              / (c.ctf + {_K1} * ({1.0 - _B} + {_B} * l.cdl / s.avgdl)) ) AS score
  FROM qterms q
  JOIN cmtf c ON c.term = q.term
  JOIN cdf f ON f.term = q.term
  JOIN cdl l ON l.doc_id = c.doc_id
  CROSS JOIN cstats s
  GROUP BY q.query_id, c.doc_id
),
ranked AS (
  SELECT query_id, doc_id, score,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY round(score, 4) DESC, doc_id) AS rnk
  FROM scores
)
SELECT query_id, cast(rnk AS int) AS rank, doc_id, round(score, 4) AS score
FROM ranked WHERE rnk <= {BM25_TOP_K}
""",
        # date_range agg: bucket index = #edges <= ts (digitize parity).
        "date_range": f"""
WITH b AS (
  SELECT cast((ts >= TIMESTAMP '{_DR_EDGES[0]}')::int
            + (ts >= TIMESTAMP '{_DR_EDGES[1]}')::int
            + (ts >= TIMESTAMP '{_DR_EDGES[2]}')::int AS int) AS bucket,
         value
  FROM events
),
a AS (
  SELECT bucket, count(*)::BIGINT AS doc_count, sum(value) AS v_sum
  FROM b GROUP BY bucket
),
edges(bucket, range_from, range_to) AS (VALUES
  (0, '', '{_DR_EDGES[0]}'),
  (1, '{_DR_EDGES[0]}', '{_DR_EDGES[1]}'),
  (2, '{_DR_EDGES[1]}', '{_DR_EDGES[2]}'),
  (3, '{_DR_EDGES[2]}', ''))
SELECT a.bucket, e.range_from, e.range_to, a.doc_count, a.v_sum,
       a.v_sum / a.doc_count AS v_avg
FROM a JOIN edges e ON e.bucket = a.bucket
ORDER BY a.bucket
""",
        # random_sampler agg: md5 little-endian-first-8 parity sample.
        "random_sampler": f"""
WITH s AS (
  SELECT value
  FROM events
  WHERE md5_number_upper(cast(event_id AS varchar) || '-rs') % {_RS_MOD} = 0
)
SELECT 1.0 / {_RS_MOD} AS probability,
       count(*)::BIGINT AS sampled_count,
       (count(*) * {_RS_MOD})::BIGINT AS est_doc_count,
       coalesce(sum(value) / count(*), 0.0) AS v_avg_sample
FROM s
""",
        # terms partition walk: md5-of-TERM membership, top by count.
        "terms_partition": f"""
WITH c AS (
  SELECT source AS term, count(*)::BIGINT AS doc_count
  FROM documents GROUP BY source
)
SELECT term, doc_count FROM c
WHERE md5_number_upper(term || '-tp') % {_TP_PARTS} = {_TP_PART}
ORDER BY doc_count DESC, term LIMIT {_TP_SIZE}
""",
        # quality-weighted A-ES sample: weight = 1/round4(bigram nll) —
        # the round4 quantization is what both sides share bit-for-bit.
        "quality_sample": f"""
WITH {TRANSCRIPTS_CTE},
{TOKPOS_CTE},
qbig AS (
  SELECT a.doc_id, a.term AS w1, b.term AS w2
  FROM tokpos a JOIN tokpos b ON b.doc_id = a.doc_id AND b.pos = a.pos + 1
),
qcb AS (SELECT w1, w2, count(*)::BIGINT AS c FROM qbig GROUP BY w1, w2),
qcu AS (SELECT term, count(*)::BIGINT AS c FROM tokpos GROUP BY term),
qv AS (SELECT count(*)::BIGINT AS v FROM qcu),
qlm AS (
  SELECT qbig.doc_id,
         round(-avg(ln((qcb.c + 0.5) / (qcu.c + 0.5 * qv.v))), 4) AS nll
  FROM qbig
  JOIN qcb ON qcb.w1 = qbig.w1 AND qcb.w2 = qbig.w2
  JOIN qcu ON qcu.term = qbig.w1
  CROSS JOIN qv
  GROUP BY qbig.doc_id
),
qsu AS (
  SELECT doc_id, 1.0 / nll AS w,
         ((md5_number_upper(cast(doc_id AS varchar) || '-qs') % 1000000) + 1)::DOUBLE
           / 1000001.0 AS u
  FROM qlm
),
qsk AS (SELECT doc_id, ln(u) / w AS sk, w FROM qsu),
qsr AS (
  SELECT doc_id, sk, w, row_number() OVER (ORDER BY sk DESC, doc_id) AS rnk FROM qsk
)
SELECT doc_id, cast(rnk AS int) AS rank, round(sk, 6) AS sample_key, w
FROM qsr WHERE rnk <= {_QS_N}
""",
        # sparse_vector: exact int64 dot product of {token: weight}
        # against per-doc tf (the deterministic learned-weight stand-in).
        "sparse_vector": f"""
WITH {TRANSCRIPTS_CTE},
svq(query_id, term, w) AS (VALUES {_sv_qterms_values()}),
svs AS (
  SELECT q.query_id, tf.doc_id, sum(q.w * tf.tf)::BIGINT AS score
  FROM svq q JOIN tf ON tf.term = q.term
  GROUP BY q.query_id, tf.doc_id
),
svr AS (
  SELECT query_id, doc_id, score,
         row_number() OVER (PARTITION BY query_id ORDER BY score DESC, doc_id) AS rnk
  FROM svs
)
SELECT query_id, cast(rnk AS int) AS rank, doc_id, score
FROM svr WHERE rnk <= {BM25_TOP_K}
""",
        # maxsim late interaction: per-group max cosine per query vector,
        # summed over the (fixed, tiny) query axis; round4-quantized rank.
        "maxsim": f"""
WITH mq AS (
  SELECT vec_id AS qv, embedding AS qe FROM embeddings WHERE vec_id < {_MAXSIM_Q}
),
msims AS (
  SELECT mq.qv, e.vec_id // {_MAXSIM_GROUP} AS group_id,
         list_cosine_similarity(mq.qe::DOUBLE[], e.embedding::DOUBLE[]) AS cos
  FROM mq CROSS JOIN embeddings e
),
mmx AS (SELECT group_id, qv, max(cos) AS m FROM msims GROUP BY 1, 2),
mtot AS (SELECT group_id, sum(m) AS s FROM mmx GROUP BY 1),
mr AS (
  SELECT group_id, round(s, 4) AS maxsim,
         row_number() OVER (ORDER BY round(s, 4) DESC, group_id) AS rnk
  FROM mtot
)
SELECT group_id, cast(rnk AS int) AS rank, maxsim
FROM mr WHERE rnk <= {_MAXSIM_K}
""",
        # rank_feature log + sigmoid functions over turn_idx.
        "rank_feature_fns": f"""
WITH {TRANSCRIPTS_CTE},
qterms(query_id, term) AS (VALUES {_rff_qterms_values()}),
{_BM25_SCORES_CTE},
rffinal AS (
  SELECT s.query_id, s.doc_id,
         round(s.score + CASE WHEN s.query_id LIKE 'rflog%'
           THEN {_RFF_BOOST} * ln({_RFF_SCALING} + t.turn_idx::DOUBLE)
           ELSE {_RFF_BOOST} * (power(t.turn_idx::DOUBLE, {_RFF_EXP})
                 / (power(t.turn_idx::DOUBLE, {_RFF_EXP})
                    + power({_RFF_PIVOT}, {_RFF_EXP})))
         END, 4) AS score
  FROM scores s JOIN transcripts t ON t.doc_id = s.doc_id
),
rfranked AS (
  SELECT query_id, doc_id, score,
         row_number() OVER (PARTITION BY query_id ORDER BY score DESC, doc_id) AS rnk
  FROM rffinal
)
SELECT query_id, cast(rnk AS int) AS rank, doc_id, score
FROM rfranked WHERE rnk <= {BM25_TOP_K}
""",
        # geo_bounding_box over derived coords: exact-cents stats.
        "geo_bbox": f"""
WITH g AS ({_GEO_COORDS_SQL})
SELECT count(*)::BIGINT AS doc_count,
       round(coalesce(sum(cast(round(c_acctbal * 100) AS BIGINT)), 0)::DOUBLE
             / 100.0, 2) AS value_sum
FROM g
WHERE lat >= {_GEO_BOX[0]} AND lat <= {_GEO_BOX[1]}
  AND lon >= {_GEO_BOX[2]} AND lon <= {_GEO_BOX[3]}
""",
        # geo_polygon: the SAME int64 half-plane conjunction the engine
        # evaluates, in integer milli-degrees end-to-end.
        "geo_polygon": f"""
WITH p AS (
  SELECT c_acctbal,
         (c_custkey * 7919) % 180000 - 90000 AS la,
         (c_custkey * 104729) % 360000 - 180000 AS lo
  FROM customer
)
SELECT count(*)::BIGINT AS doc_count,
       round(coalesce(sum(cast(round(c_acctbal * 100) AS BIGINT)), 0)::DOUBLE
             / 100.0, 2) AS value_sum
FROM p
WHERE {_geo_poly_pred()}
""",
        # geo_centroid: integer milli-degree sums, ONE division at the end.
        "geo_centroid": """
WITH p AS (
  SELECT (c_custkey * 7919) % 180000 - 90000 AS la,
         (c_custkey * 104729) % 360000 - 180000 AS lo
  FROM customer
)
SELECT count(*)::BIGINT AS doc_count,
       round(sum(la)::DOUBLE / count(*) / 1000.0, 6) AS centroid_lat,
       round(sum(lo)::DOUBLE / count(*) / 1000.0, 6) AS centroid_lon
FROM p
""",
        # geo_distance rings: ring index = number of bounds <= d²
        # (from-inclusive / to-exclusive, the ES rule).
        "geo_distance_agg": f"""
WITH p AS (
  SELECT (c_custkey * 7919) % 180000 - 90000 AS la,
         (c_custkey * 104729) % 360000 - 180000 AS lo
  FROM customer
),
d AS (
  SELECT (la - {_GD_LAT}) * (la - {_GD_LAT}) + (lo - {_GD_LON}) * (lo - {_GD_LON}) AS d2
  FROM p
),
r AS (
  SELECT ({" + ".join(f"(d2 >= {b})::BIGINT" for b in _GDA_RINGS)}) AS ring
  FROM d
),
counted AS (SELECT ring, count(*)::BIGINT AS c FROM r GROUP BY ring),
spine AS (SELECT unnest(generate_series(0, {len(_GDA_RINGS)}))::BIGINT AS ring)
SELECT spine.ring, coalesce(counted.c, 0)::BIGINT AS doc_count
FROM spine LEFT JOIN counted USING (ring) ORDER BY spine.ring
""",
        # geohash_grid analog: equal-degree cells, top by count.
        "geo_grid": f"""
WITH g AS ({_GEO_COORDS_SQL}),
cells AS (
  SELECT cast(floor((lat + 90.0) / {_GEO_CELL}) AS BIGINT) AS cell_y,
         cast(floor((lon + 180.0) / {_GEO_CELL}) AS BIGINT) AS cell_x
  FROM g
)
SELECT cell_y, cell_x, count(*)::BIGINT AS doc_count
FROM cells GROUP BY 1, 2
ORDER BY doc_count DESC, cell_y, cell_x LIMIT {_GEO_TOP}
""",
        # update_by_query: OR-match flag riding the rewritten docmap.
        "update_by_query": f"""
WITH {TRANSCRIPTS_CTE},
ubq_terms(term) AS (VALUES {", ".join(f"('{t}')" for t in sorted(set(_UBQ_QUERY.split())))}),
ubq_hit AS (
  SELECT DISTINCT tok.doc_id FROM tok JOIN ubq_terms u ON u.term = tok.term
)
SELECT t.turn_idx::BIGINT AS turn_idx,
       count(*)::BIGINT AS n_docs,
       (count(*) FILTER (WHERE h.doc_id IS NOT NULL))::BIGINT AS n_flagged
FROM transcripts t LEFT JOIN ubq_hit h ON h.doc_id = t.doc_id
GROUP BY 1 ORDER BY 1
""",
        # SimHash (md5-parity hash): per-bit majority over token
        # occurrences, packed to a two's-complement int64.
        "simhash_exact": f"""
WITH {TRANSCRIPTS_CTE},
sth AS (SELECT doc_id, md5_number_upper(term) AS h FROM tok),
sbits AS (
  SELECT doc_id, b.b,
         CASE WHEN 2 * sum(((h >> b.b) & 1)::BIGINT) > count(*)
              THEN 1::HUGEINT ELSE 0::HUGEINT END AS s
  FROM sth CROSS JOIN (SELECT unnest(generate_series(0, 63)) AS b) b
  GROUP BY doc_id, b.b
),
spack AS (
  SELECT doc_id, sum(s * (1::HUGEINT << b))::HUGEINT AS v FROM sbits GROUP BY doc_id
)
SELECT t.doc_id,
       cast(CASE WHEN coalesce(p.v, 0) >= 9223372036854775808::HUGEINT
                 THEN coalesce(p.v, 0) - 18446744073709551616::HUGEINT
                 ELSE coalesce(p.v, 0) END AS BIGINT) AS simhash
FROM transcripts t LEFT JOIN spack p ON p.doc_id = t.doc_id
ORDER BY t.doc_id
""",
        # MinHash signatures: md5 token hashes → uint64-wrapped poly
        # 3-grams → min (a·x+b) mod M61 per permutation.
        "minhash_exact": f"""
WITH {TRANSCRIPTS_CTE},
{TOKPOS_CTE},
mth AS (SELECT doc_id, pos, md5_number_upper(term)::HUGEINT AS h FROM tokpos),
mgr AS (
  SELECT t1.doc_id,
         (((t1.h * 1000003) % 18446744073709551616::HUGEINT + t2.h)
            % 18446744073709551616::HUGEINT * 1000003
            % 18446744073709551616::HUGEINT + t3.h)
           % 18446744073709551616::HUGEINT AS gram
  FROM mth t1
  JOIN mth t2 ON t2.doc_id = t1.doc_id AND t2.pos = t1.pos + 1
  JOIN mth t3 ON t3.doc_id = t1.doc_id AND t3.pos = t1.pos + 2
),
mperm(perm, pa, pb) AS (VALUES {_mhx_perm_values()}),
msig AS (
  SELECT g.doc_id, p.perm,
         min(((g.gram * p.pa) % 18446744073709551616::HUGEINT + p.pb)
             % 18446744073709551616::HUGEINT
             % 2305843009213693951::HUGEINT)::BIGINT AS sig
  FROM mgr g CROSS JOIN mperm p
  GROUP BY g.doc_id, p.perm
)
SELECT doc_id, cast(perm AS int) AS perm, sig
FROM msig ORDER BY doc_id, perm
""",
        # geo_distance: integer milli-degree squared euclidean, top-k.
        "geo_distance": f"""
WITH md AS (
  SELECT c_custkey,
         (c_custkey * 7919) % 180000 - 90000 AS la,
         (c_custkey * 104729) % 360000 - 180000 AS lo
  FROM customer
),
gd AS (
  SELECT c_custkey,
         (la - {_GD_LAT}) * (la - {_GD_LAT})
         + (lo - {_GD_LON}) * (lo - {_GD_LON}) AS dist2_mdeg
  FROM md
),
gr AS (
  SELECT c_custkey, dist2_mdeg,
         row_number() OVER (ORDER BY dist2_mdeg, c_custkey) AS rnk
  FROM gd
)
SELECT c_custkey, cast(rnk AS int) AS rank, dist2_mdeg::BIGINT AS dist2_mdeg
FROM gr WHERE rnk <= {_GD_K}
""",
        # rapidfuzz escalation tier: ratio + token_sort + token_set with
        # the RATIO_WEIGHTS contract, over distinct corpus bigrams.
        "fuzzy_ratios": f"""
WITH {TRANSCRIPTS_CTE},
{TOKPOS_CTE},
frp AS (
  SELECT DISTINCT a.term || ' ' || b.term AS p
  FROM tokpos a JOIN tokpos b ON b.doc_id = a.doc_id AND b.pos = a.pos + 1
),
frq(query_id, q) AS (VALUES {", ".join(f"('{k}', '{v}')" for k, v in FUZZY_RATIO_QUERIES.items())}),
frl AS (
  SELECT query_id, q, p,
         list_sort(list_distinct(string_split(q, ' '))) AS qs,
         list_sort(list_distinct(string_split(p, ' '))) AS ps
  FROM frq CROSS JOIN frp
),
frt AS (
  SELECT query_id, q, p,
         array_to_string(list_sort(string_split(q, ' ')), ' ') AS sq,
         array_to_string(list_sort(string_split(p, ' ')), ' ') AS sp,
         array_to_string(list_sort(list_intersect(qs, ps)), ' ') AS t0,
         array_to_string(list_concat(list_sort(list_intersect(qs, ps)),
           list_sort(list_filter(qs, x -> NOT list_contains(ps, x)))), ' ') AS t1,
         array_to_string(list_concat(list_sort(list_intersect(qs, ps)),
           list_sort(list_filter(ps, x -> NOT list_contains(qs, x)))), ' ') AS t2
  FROM frl
),
frs AS (
  SELECT query_id, p,
      0.4 * (100.0 * (1.0 - levenshtein(q, p) / greatest(strlen(q), strlen(p), 1)))
    + 0.35 * (100.0 * (1.0 - levenshtein(sq, sp) / greatest(strlen(sq), strlen(sp), 1)))
    + 0.25 * greatest(
        100.0 * (1.0 - levenshtein(t0, t1) / greatest(strlen(t0), strlen(t1), 1)),
        100.0 * (1.0 - levenshtein(t0, t2) / greatest(strlen(t0), strlen(t2), 1)),
        100.0 * (1.0 - levenshtein(t1, t2) / greatest(strlen(t1), strlen(t2), 1))
      ) AS s
  FROM frt
),
frr AS (
  SELECT query_id, p AS phrase, round(s, 4) AS score,
         row_number() OVER (PARTITION BY query_id ORDER BY round(s, 4) DESC, p) AS rnk
  FROM frs
)
SELECT query_id, cast(rnk AS int) AS rank, phrase, score
FROM frr WHERE rnk <= {_FR_TOP}
""",
        # SpaceSaving at capacity >= vocabulary: the sketch IS exact
        # counting, and the engine asserts its own error bound says so.
        "topk_sketch_exact": f"""
WITH {TRANSCRIPTS_CTE},
tkc AS (SELECT term, count(*)::BIGINT AS est_count FROM tok GROUP BY term)
SELECT term, est_count FROM tkc
ORDER BY est_count DESC, term LIMIT {_TKX_K}
""",
        # terms agg include/exclude regex (RE2 verbatim both sides).
        "terms_include": f"""
WITH c AS (
  SELECT source AS term, count(*)::BIGINT AS doc_count
  FROM documents GROUP BY source
)
SELECT term, doc_count FROM c
WHERE regexp_matches(term, '{_TI_INCLUDE}')
  AND NOT regexp_matches(term, '{_TI_EXCLUDE}')
ORDER BY doc_count DESC, term LIMIT {_TI_SIZE}
""",
        # exact feature-hash embeddings: md5 hashes, UHUGEINT mod-2^64
        # mix, signed bucket counts, round4 L2 normalization.
        "embed_exact": f"""
WITH {TRANSCRIPTS_CTE},
eth AS (
  SELECT doc_id,
         (md5_number_upper(term)::UHUGEINT * 11400714819323198485::UHUGEINT
          + 9172280023384029625::UHUGEINT) % 18446744073709551616::UHUGEINT AS m
  FROM tok
),
ev AS (
  SELECT doc_id, (m % {_EMX_DIM})::BIGINT AS dim,
         sum(CASE WHEN (m >> 63) % 2 = 0 THEN 1 ELSE -1 END)::BIGINT AS v
  FROM eth GROUP BY 1, 2
),
egrid AS (
  SELECT t.doc_id, d.dim
  FROM transcripts t
  CROSS JOIN (SELECT unnest(generate_series(0, {_EMX_DIM - 1}))::BIGINT AS dim) d
),
evf AS (
  SELECT g.doc_id, g.dim, coalesce(ev.v, 0)::BIGINT AS v
  FROM egrid g LEFT JOIN ev ON ev.doc_id = g.doc_id AND ev.dim = g.dim
),
enrm AS (
  SELECT doc_id, sqrt(sum(v * v)::DOUBLE) AS n FROM evf GROUP BY doc_id
)
SELECT f.doc_id, f.dim,
       round(CASE WHEN m.n = 0 THEN 0.0 ELSE f.v / m.n END, 4) AS val
FROM evf f JOIN enrm m ON m.doc_id = f.doc_id
ORDER BY f.doc_id, f.dim
""",
        # fingerprint: min word-4-gram polynomial hash (md5 parity,
        # uint64 wrap chain in UHUGEINT), unsigned min → int64.
        "fingerprint_exact": f"""
WITH {TRANSCRIPTS_CTE},
{TOKPOS_CTE},
fth AS (SELECT doc_id, pos, md5_number_upper(term)::UHUGEINT AS h FROM tokpos),
fgr AS (
  SELECT t1.doc_id,
         ((((((t1.h * 1000003) % 18446744073709551616::UHUGEINT + t2.h)
             % 18446744073709551616::UHUGEINT) * 1000003
             % 18446744073709551616::UHUGEINT + t3.h)
             % 18446744073709551616::UHUGEINT) * 1000003
             % 18446744073709551616::UHUGEINT + t4.h)
           % 18446744073709551616::UHUGEINT AS gram
  FROM fth t1
  JOIN fth t2 ON t2.doc_id = t1.doc_id AND t2.pos = t1.pos + 1
  JOIN fth t3 ON t3.doc_id = t1.doc_id AND t3.pos = t1.pos + 2
  JOIN fth t4 ON t4.doc_id = t1.doc_id AND t4.pos = t1.pos + 3
),
fmn AS (SELECT doc_id, min(gram) AS v FROM fgr GROUP BY doc_id)
SELECT doc_id,
       cast(CASE WHEN v >= 9223372036854775808::UHUGEINT
                 THEN v::HUGEINT - 18446744073709551616::HUGEINT
                 ELSE v::HUGEINT END AS BIGINT) AS fingerprint
FROM fmn ORDER BY doc_id
""",
        # terms_set: per-doc minimum_should_match_field = turn_idx,
        # clamped to [1, n_terms]; survivors score bool-should BM25.
        "terms_set": f"""
WITH {TRANSCRIPTS_CTE},
qterms(query_id, term) AS (VALUES {_ts_qterms_values()}),
tsn(query_id, n_terms) AS (VALUES {_ts_nterms_values()}),
tsm AS (
  SELECT q.query_id, tf.doc_id,
         count(DISTINCT tf.term)::BIGINT AS matched,
         sum( ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
              * tf.tf * 2.2 / (tf.tf + 1.2 * (0.25 + 0.75 * dl.dl / s.avgdl)) ) AS score
  FROM qterms q
  JOIN tf ON tf.term = q.term
  JOIN df ON df.term = q.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats s
  GROUP BY q.query_id, tf.doc_id
),
tsk AS (
  SELECT m.query_id, m.doc_id, m.score
  FROM tsm m
  JOIN transcripts t ON t.doc_id = m.doc_id
  JOIN tsn n ON n.query_id = m.query_id
  WHERE m.matched >= least(greatest(t.turn_idx, 1), n.n_terms)
),
tsr AS (
  SELECT query_id, doc_id, round(score, 4) AS score,
         row_number() OVER (PARTITION BY query_id ORDER BY round(score, 4) DESC, doc_id) AS rnk
  FROM tsk
)
SELECT query_id, cast(rnk AS int) AS rank, doc_id, score
FROM tsr WHERE rnk <= {BM25_TOP_K}
""",
        # dataset card: every number exact (counts + one final division).
        "dataset_card": f"""
WITH {TRANSCRIPTS_CTE}
SELECT (SELECT count(*) FROM documents)::BIGINT AS n_docs,
       (SELECT count(*) FROM tok)::BIGINT AS n_tokens,
       (SELECT count(DISTINCT term) FROM tok)::BIGINT AS vocab_size,
       (SELECT count(DISTINCT source) FROM documents)::BIGINT AS n_sources,
       (SELECT count(*) - count(DISTINCT md5(text)) FROM documents)::BIGINT
         AS exact_dup_docs,
       round((SELECT count(*) FROM tok)::DOUBLE
             / (SELECT count(*) FROM documents), 4) AS avg_doclen
""",
        # significant_terms + background_filter: both dfs restricted to
        # the filter's matching set; fg ⊆ bg (background_is_superset).
        "sig_terms_bgfilter": f"""
WITH {TRANSCRIPTS_CTE},
sqt(term) AS (VALUES {", ".join(f"('{t}')" for t in sorted(set(FACET_QUERY.split())))}),
sbq(term) AS (VALUES ('{_SBF_BG}')),
sbg AS (SELECT DISTINCT tf.doc_id FROM tf JOIN sbq ON tf.term = sbq.term),
sbsz AS (SELECT count(*)::DOUBLE AS n FROM sbg),
sfg AS (
  SELECT DISTINCT tf.doc_id FROM tf
  JOIN sqt ON tf.term = sqt.term
  JOIN sbg ON sbg.doc_id = tf.doc_id
),
sfsz AS (SELECT count(*)::DOUBLE AS f FROM sfg),
sfgdf AS (
  SELECT tf.term, count(DISTINCT tf.doc_id)::BIGINT AS fg_df
  FROM tf JOIN sfg ON sfg.doc_id = tf.doc_id GROUP BY tf.term
),
sbgdf AS (
  SELECT tf.term, count(DISTINCT tf.doc_id)::BIGINT AS bg_df
  FROM tf JOIN sbg ON sbg.doc_id = tf.doc_id GROUP BY tf.term
),
sj AS (
  SELECT f.term, f.fg_df, b.bg_df,
         round(((f.fg_df / fs.f) - (b.bg_df::DOUBLE / bs.n))
               * ((f.fg_df / fs.f) / (b.bg_df::DOUBLE / bs.n)), 4) AS jlh
  FROM sfgdf f JOIN sbgdf b ON b.term = f.term
  CROSS JOIN sfsz fs CROSS JOIN sbsz bs
  WHERE f.fg_df >= 2
),
sjr AS (
  SELECT term, fg_df, bg_df, jlh,
         row_number() OVER (ORDER BY jlh DESC, term) AS rn
  FROM sj
)
SELECT term, fg_df, bg_df, jlh FROM sjr WHERE rn <= 10
""",
        "sft_pairs": """
WITH t AS (
  SELECT 'conv-' || lpad(cast(doc_id // 8 AS varchar), 8, '0') AS conv_id,
         cast(doc_id % 8 AS int) AS turn_idx,
         CASE cast(doc_id % 3 AS int) WHEN 0 THEN 'user' WHEN 1 THEN 'assistant' ELSE 'tool' END AS role,
         text
  FROM documents),
p AS (
  SELECT conv_id, turn_idx, role, text,
         lag(role) OVER w AS prev_role,
         lag(text) OVER w AS prev_text,
         lag(turn_idx) OVER w AS prev_ti
  FROM t WINDOW w AS (PARTITION BY conv_id ORDER BY turn_idx))
SELECT conv_id, turn_idx, prev_text AS prompt, text AS response
FROM p
WHERE role = 'assistant' AND prev_role = 'user' AND prev_ti = turn_idx - 1
""",
        "sft_examples": """
WITH t AS (
  SELECT 'conv-' || lpad(cast(doc_id // 8 AS varchar), 8, '0') AS conv_id,
         cast(doc_id % 8 AS int) AS turn_idx,
         CASE cast(doc_id % 3 AS int) WHEN 0 THEN 'user' WHEN 1 THEN 'assistant' ELSE 'tool' END AS role,
         text
  FROM documents),
r AS (
  SELECT conv_id, turn_idx, role, text,
         row_number() OVER w AS rn,
         string_agg('<|' || role || '|>' || text, chr(10)) OVER (
           PARTITION BY conv_id ORDER BY turn_idx
           ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS context
  FROM t WINDOW w AS (PARTITION BY conv_id ORDER BY turn_idx))
SELECT conv_id, turn_idx, context, text AS target
FROM r WHERE role = 'assistant' AND rn > 1
""",
        "chat_render": """
WITH t AS (
  SELECT 'conv-' || lpad(cast(doc_id // 8 AS varchar), 8, '0') AS conv_id,
         cast(doc_id % 8 AS int) AS turn_idx,
         CASE cast(doc_id % 3 AS int) WHEN 0 THEN 'user' WHEN 1 THEN 'assistant' ELSE 'tool' END AS role,
         text
  FROM documents)
SELECT conv_id,
       count(*)::BIGINT AS n_turns,
       string_agg('<|' || role || '|>' || text, chr(10) ORDER BY turn_idx) AS rendered,
       length(string_agg('<|' || role || '|>' || text, chr(10) ORDER BY turn_idx))::BIGINT AS n_chars
FROM t GROUP BY conv_id
""",
        "chat_lint": """
WITH t AS (
  SELECT 'conv-' || lpad(cast(doc_id // 8 AS varchar), 8, '0') AS conv_id,
         cast(doc_id % 8 AS int) AS turn_idx,
         CASE cast(doc_id % 3 AS int) WHEN 0 THEN 'user' WHEN 1 THEN 'assistant' ELSE 'tool' END AS role,
         text
  FROM documents),
l AS (
  SELECT conv_id, turn_idx, role, text,
         lag(role) OVER w AS prev_role,
         row_number() OVER w AS rn,
         count(*) OVER (PARTITION BY conv_id) AS nt
  FROM t WINDOW w AS (PARTITION BY conv_id ORDER BY turn_idx))
SELECT conv_id,
       count(*)::BIGINT AS n_turns,
       max(CASE WHEN rn = 1 THEN role END) AS first_role,
       max(CASE WHEN rn = nt THEN role END) AS last_role,
       sum(CASE WHEN role = 'user' THEN 1 ELSE 0 END)::BIGINT AS n_user,
       sum(CASE WHEN role = 'assistant' THEN 1 ELSE 0 END)::BIGINT AS n_assistant,
       sum(CASE WHEN role = 'tool' THEN 1 ELSE 0 END)::BIGINT AS n_tool,
       sum(CASE WHEN text = '' THEN 1 ELSE 0 END)::BIGINT AS n_empty,
       sum(CASE WHEN role = prev_role THEN 1 ELSE 0 END)::BIGINT AS n_same_role_adj,
       (sum(CASE WHEN role = prev_role THEN 1 ELSE 0 END) = 0
        AND max(CASE WHEN rn = 1 THEN role END) = 'user') AS alternation_ok
FROM l GROUP BY conv_id
""",
        "geo_pairs": f"""
WITH p AS (
  SELECT c_custkey AS k,
         (c_custkey * 7919) % 180000 AS la,
         (c_custkey * 104729) % 360000 AS lo
  FROM customer)
SELECT a.k AS key_a, b.k AS key_b,
       cast((a.la - b.la) * (a.la - b.la)
            + (a.lo - b.lo) * (a.lo - b.lo) AS BIGINT) AS d2
FROM p a JOIN p b
  ON b.k > a.k
 AND (a.la - b.la) * (a.la - b.la) + (a.lo - b.lo) * (a.lo - b.lo)
     <= {_GP_DIST * _GP_DIST}
""",
        "cm_sketch": f"""
WITH {TRANSCRIPTS_CTE},
cf AS (SELECT term, count(*)::BIGINT AS cf FROM tok GROUP BY term),
rws(r) AS (VALUES (0), (1), (2), (3)),
bk AS (
  SELECT rws.r,
         cast(md5_number_upper(cast(rws.r AS varchar) || ':' || cf.term)
              % {_CM_WIDTH} AS BIGINT) AS bucket,
         cf.cf
  FROM cf CROSS JOIN rws),
rowsum AS (SELECT r, bucket, sum(cf)::BIGINT AS c FROM bk GROUP BY r, bucket),
qt(term) AS (VALUES {", ".join(f"('{t}')" for t in _CM_TERMS)}),
qb AS (
  SELECT qt.term, rws.r,
         cast(md5_number_upper(cast(rws.r AS varchar) || ':' || qt.term)
              % {_CM_WIDTH} AS BIGINT) AS bucket
  FROM qt CROSS JOIN rws)
SELECT q.term, cast(min(coalesce(rs.c, 0)) AS BIGINT) AS est
FROM qb q LEFT JOIN rowsum rs ON rs.r = q.r AND rs.bucket = q.bucket
GROUP BY q.term ORDER BY q.term
""",
        "l_diversity": f"""
WITH pairsld AS (
  SELECT source, lang, count(*)::BIGINT AS c
  FROM documents GROUP BY source, lang),
cls AS (
  SELECT source, count(DISTINCT lang)::BIGINT AS nd, sum(c)::BIGINT AS nr
  FROM pairsld GROUP BY source),
tot AS (SELECT sum(nr)::BIGINT AS t, count(*)::BIGINT AS nc FROM cls),
ls(l) AS (VALUES {", ".join(f"({l})" for l in _LDIV_LS)})
SELECT ls.l::BIGINT AS l,
       tot.nc AS n_classes,
       sum(CASE WHEN cls.nd < ls.l THEN 1 ELSE 0 END)::BIGINT AS n_classes_at_risk,
       sum(CASE WHEN cls.nd < ls.l THEN cls.nr ELSE 0 END)::BIGINT AS n_rows_at_risk,
       round(sum(CASE WHEN cls.nd < ls.l THEN cls.nr ELSE 0 END) / tot.t::DOUBLE, 4) AS risk_frac
FROM ls CROSS JOIN cls CROSS JOIN tot
GROUP BY ls.l, tot.nc, tot.t
""",
        "benford": """
WITH cents AS (
  SELECT cast(round(value * 100) AS BIGINT) AS v FROM events
  WHERE cast(round(value * 100) AS BIGINT) > 0),
dg AS (SELECT cast(substr(cast(v AS varchar), 1, 1) AS BIGINT) AS digit FROM cents),
cnt AS (SELECT digit, count(*)::BIGINT AS n FROM dg GROUP BY digit),
spine AS (SELECT unnest(generate_series(1, 9))::BIGINT AS digit),
tot AS (SELECT sum(n)::BIGINT AS t FROM cnt),
j AS (
  SELECT spine.digit, coalesce(cnt.n, 0)::BIGINT AS n,
         tot.t AS t, log10(1.0 + 1.0 / spine.digit) AS bp
  FROM spine LEFT JOIN cnt USING (digit) CROSS JOIN tot)
SELECT digit, n,
       round(n / t::DOUBLE, 4) AS observed_p,
       round(bp, 4) AS benford_p,
       round((n - t * bp) * (n - t * bp) / (t * bp), 4) AS chi2_term
FROM j
""",
        "role_transitions": """
WITH t AS (
  SELECT 'conv-' || lpad(cast(doc_id // 8 AS varchar), 8, '0') AS conv_id,
         cast(doc_id % 8 AS int) AS turn_idx,
         CASE cast(doc_id % 3 AS int) WHEN 0 THEN 'user' WHEN 1 THEN 'assistant' ELSE 'tool' END AS role
  FROM documents),
tr AS (
  SELECT conv_id, turn_idx, role,
         lag(role) OVER (PARTITION BY conv_id ORDER BY turn_idx) AS prev_role,
         lag(turn_idx) OVER (PARTITION BY conv_id ORDER BY turn_idx) AS prev_ti
  FROM t),
cnt AS (
  SELECT prev_role AS from_role, role AS to_role, count(*)::BIGINT AS n
  FROM tr WHERE prev_role IS NOT NULL AND prev_ti = turn_idx - 1
  GROUP BY prev_role, role)
SELECT from_role, to_role, n,
       round(n / sum(n) OVER (PARTITION BY from_role)::DOUBLE, 4) AS p
FROM cnt
""",
        "ngram_novelty": f"""
WITH {TRANSCRIPTS_CTE},
{TOKPOS_CTE},
spl AS (
  SELECT doc_id,
         CASE
           WHEN md5_number_upper('conv-' || lpad(cast(doc_id // 8 AS varchar), 8, '0') || '-cs') % 100 < {_CONV_SPLITS["test"]} THEN 'test'
           WHEN md5_number_upper('conv-' || lpad(cast(doc_id // 8 AS varchar), 8, '0') || '-cs') % 100 < {_CONV_SPLITS["test"] + _CONV_SPLITS["train"]} THEN 'train'
           ELSE 'val' END AS split
  FROM documents),
g3 AS (
  SELECT DISTINCT a.term || ' ' || b.term || ' ' || c.term AS gram, spl.split
  FROM tokpos a
  JOIN tokpos b ON b.doc_id = a.doc_id AND b.pos = a.pos + 1
  JOIN tokpos c ON c.doc_id = a.doc_id AND c.pos = a.pos + 2
  JOIN spl ON spl.doc_id = a.doc_id),
fl AS (
  SELECT gram,
         max(CASE WHEN split = 'train' THEN 1 ELSE 0 END) AS tr,
         max(CASE WHEN split = 'val' THEN 1 ELSE 0 END) AS va
  FROM g3 GROUP BY gram)
SELECT sum(va)::BIGINT AS n_val_grams,
       sum(CASE WHEN va = 1 AND tr = 1 THEN 1 ELSE 0 END)::BIGINT AS n_shared,
       round((sum(va) - sum(CASE WHEN va = 1 AND tr = 1 THEN 1 ELSE 0 END))
             / sum(va)::DOUBLE, 4) AS novelty_frac
FROM fl
""",
        "source_ablation": f"""
WITH per AS (
  SELECT source, count(*)::BIGINT AS n, sum(n_chars)::BIGINT AS ch,
         sum(CASE WHEN n_chars BETWEEN {_ABL_LO} AND {_ABL_HI} THEN 1 ELSE 0 END)::BIGINT AS ok
  FROM documents GROUP BY source),
tots AS (SELECT sum(n)::BIGINT AS tn, sum(ch)::BIGINT AS tch, sum(ok)::BIGINT AS tok FROM per)
SELECT source, per.n AS n_docs,
       round((tch - ch) / (tn - n)::DOUBLE, 4) AS mean_chars_without,
       round((tch - ch) / (tn - n)::DOUBLE - tch / tn::DOUBLE, 4) AS delta_mean_chars,
       round((tok - ok) / (tn - n)::DOUBLE, 4) AS pass_rate_without,
       round((tok - ok) / (tn - n)::DOUBLE - tok / tn::DOUBLE, 4) AS delta_pass_rate
FROM per CROSS JOIN tots
""",
        "ppr_related": f"""
WITH {TRANSCRIPTS_CTE},
{TOKPOS_CTE},
adjp AS (
  SELECT a.term AS s, b.term AS t
  FROM tokpos a JOIN tokpos b ON b.doc_id = a.doc_id AND b.pos = a.pos + 1
  WHERE a.term <> b.term),
edp AS (SELECT s, t FROM adjp UNION ALL SELECT t AS s, s AS t FROM adjp),
ewp AS (SELECT s, t, count(*)::BIGINT AS w FROM edp GROUP BY s, t),
wop AS (SELECT s, sum(w)::BIGINT AS wt FROM ewp GROUP BY s),
sd(term) AS (VALUES {", ".join(f"('{t}')" for t in _PPR_SEEDS)}),
p0 AS (SELECT wop.s AS term,
              CASE WHEN sd.term IS NOT NULL THEN 150000000 ELSE 0 END::BIGINT AS r
       FROM wop LEFT JOIN sd ON sd.term = wop.s),
p1 AS (
  SELECT n.term,
         (CASE WHEN s2.term IS NOT NULL THEN 150000000 ELSE 0 END
          + coalesce((85 * f.sc) // 100, 0))::BIGINT AS r
  FROM p0 n
  LEFT JOIN sd s2 ON s2.term = n.term
  LEFT JOIN (SELECT e.t AS term, sum((r.r * e.w) // w2.wt) AS sc
             FROM ewp e JOIN p0 r ON r.term = e.s JOIN wop w2 ON w2.s = e.s
             GROUP BY e.t) f ON f.term = n.term),
p2 AS (
  SELECT n.term,
         (CASE WHEN s2.term IS NOT NULL THEN 150000000 ELSE 0 END
          + coalesce((85 * f.sc) // 100, 0))::BIGINT AS r
  FROM p1 n
  LEFT JOIN sd s2 ON s2.term = n.term
  LEFT JOIN (SELECT e.t AS term, sum((r.r * e.w) // w2.wt) AS sc
             FROM ewp e JOIN p1 r ON r.term = e.s JOIN wop w2 ON w2.s = e.s
             GROUP BY e.t) f ON f.term = n.term),
p3 AS (
  SELECT n.term,
         (CASE WHEN s2.term IS NOT NULL THEN 150000000 ELSE 0 END
          + coalesce((85 * f.sc) // 100, 0))::BIGINT AS r
  FROM p2 n
  LEFT JOIN sd s2 ON s2.term = n.term
  LEFT JOIN (SELECT e.t AS term, sum((r.r * e.w) // w2.wt) AS sc
             FROM ewp e JOIN p2 r ON r.term = e.s JOIN wop w2 ON w2.s = e.s
             GROUP BY e.t) f ON f.term = n.term),
p4 AS (
  SELECT n.term,
         (CASE WHEN s2.term IS NOT NULL THEN 150000000 ELSE 0 END
          + coalesce((85 * f.sc) // 100, 0))::BIGINT AS r
  FROM p3 n
  LEFT JOIN sd s2 ON s2.term = n.term
  LEFT JOIN (SELECT e.t AS term, sum((r.r * e.w) // w2.wt) AS sc
             FROM ewp e JOIN p3 r ON r.term = e.s JOIN wop w2 ON w2.s = e.s
             GROUP BY e.t) f ON f.term = n.term),
rkp AS (SELECT term, r, row_number() OVER (ORDER BY r DESC, term) AS rn
        FROM p4 WHERE r > 0)
SELECT term, r AS rank FROM rkp WHERE rn <= 20
""",
        "jaro_expand": f"""
WITH {TRANSCRIPTS_CTE},
qn(q_name) AS (VALUES {", ".join(f"('{n}')" for n in _JW_NAMES)}),
candjw AS (
  SELECT qn.q_name, df.term,
         round(jaro_winkler_similarity(qn.q_name, df.term), 6) AS jw
  FROM qn CROSS JOIN df
  WHERE jaro_winkler_similarity(qn.q_name, df.term) >= {_JW_MIN}
)
SELECT q_name, term, jw FROM candjw
""",
        "frequent_triples": f"""
WITH {TRANSCRIPTS_CTE},
items3 AS (SELECT term FROM df ORDER BY df DESC, term LIMIT {_FT_TOP_ITEMS}),
dt3 AS (SELECT DISTINCT t.doc_id, t.term FROM tok t JOIN items3 i ON i.term = t.term),
ftr AS (
  SELECT a.term AS term_a, b.term AS term_b, c.term AS term_c,
         count(*)::BIGINT AS support
  FROM dt3 a
  JOIN dt3 b ON b.doc_id = a.doc_id AND a.term < b.term
  JOIN dt3 c ON c.doc_id = a.doc_id AND b.term < c.term
  GROUP BY a.term, b.term, c.term
),
rtr AS (
  SELECT term_a, term_b, term_c, support,
         row_number() OVER (ORDER BY support DESC, term_a, term_b, term_c) AS rn
  FROM ftr WHERE support >= {_FT_MIN_SUPPORT}
)
SELECT term_a, term_b, term_c, support FROM rtr WHERE rn <= {_FT_TOP_N}
""",
        "psi_drift": """
WITH cvt AS (
  SELECT cast(round(value * 100) AS BIGINT) AS cents, epoch_us(ts) AS tsu
  FROM events),
mm AS (SELECT (min(tsu) + max(tsu)) // 2 AS mid FROM cvt),
hist AS (
  SELECT cents, count(*)::BIGINT AS c
  FROM cvt CROSS JOIN mm WHERE tsu <= mid GROUP BY cents),
cumh AS (
  SELECT cents, sum(c) OVER (ORDER BY cents) AS cum, sum(c) OVER () AS n
  FROM hist),
ksp(k) AS (VALUES (1), (2), (3), (4), (5), (6), (7), (8), (9)),
cuts AS (
  SELECT ksp.k,
         min(CASE WHEN cumh.cum >= (ksp.k * cumh.n + 9) // 10 THEN cumh.cents END) AS cut
  FROM ksp CROSS JOIN cumh GROUP BY ksp.k),
lab AS (
  SELECT c.cents, CASE WHEN c.tsu <= mm.mid THEN 0 ELSE 1 END AS half,
         (SELECT count(*) FROM cuts WHERE cuts.cut < c.cents)::BIGINT AS bin
  FROM cvt c CROSS JOIN mm),
bc AS (SELECT bin, half, count(*)::BIGINT AS c FROM lab GROUP BY bin, half),
spine AS (SELECT unnest(generate_series(0, 9))::BIGINT AS bin),
tot AS (
  SELECT sum(CASE WHEN half = 0 THEN c ELSE 0 END)::BIGINT AS n0,
         sum(CASE WHEN half = 1 THEN c ELSE 0 END)::BIGINT AS n1
  FROM bc),
jp AS (
  SELECT spine.bin,
         coalesce(max(CASE WHEN bc.half = 0 THEN bc.c END), 0)::BIGINT AS n_ref,
         coalesce(max(CASE WHEN bc.half = 1 THEN bc.c END), 0)::BIGINT AS n_cur
  FROM spine LEFT JOIN bc USING (bin) GROUP BY spine.bin),
t2 AS (
  SELECT bin, n_ref, n_cur,
         greatest(n_ref / tot.n0::DOUBLE, 1e-6) AS p,
         greatest(n_cur / tot.n1::DOUBLE, 1e-6) AS q
  FROM jp CROSS JOIN tot)
SELECT bin, n_ref, n_cur,
       round((p - q) * ln(p / q), 4) AS psi_term,
       round((SELECT sum((p2.p - p2.q) * ln(p2.p / p2.q)) FROM t2 p2), 4) AS psi_total
FROM t2
""",
        "zipf_fit": f"""
WITH {TRANSCRIPTS_CTE},
cfz AS (SELECT term, count(*)::BIGINT AS c FROM tok GROUP BY term HAVING count(*) >= 5),
rkz AS (SELECT c, row_number() OVER (ORDER BY c DESC, term) AS rn FROM cfz),
m AS (
  SELECT count(*)::BIGINT AS n,
         sum(ln(rn)) AS sx, sum(ln(c)) AS sy,
         sum(ln(rn) * ln(c)) AS sxy, sum(ln(rn) * ln(rn)) AS sxx
  FROM rkz)
SELECT n AS n_points,
       round((n * sxy - sx * sy) / (n * sxx - sx * sx), 4) AS slope,
       round((sy - ((n * sxy - sx * sy) / (n * sxx - sx * sx)) * sx) / n, 4) AS intercept
FROM m
""",
        "vocab_entropy": f"""
WITH {TRANSCRIPTS_CTE},
cfe AS (SELECT term, count(*)::BIGINT AS c FROM tok GROUP BY term),
tote AS (SELECT sum(c)::DOUBLE AS t FROM cfe),
h AS (
  SELECT count(*)::BIGINT AS n_terms,
         -sum((c / tote.t) * log2(c / tote.t)) AS hb
  FROM cfe CROSS JOIN tote GROUP BY tote.t)
SELECT n_terms, round(hb, 4) AS entropy_bits, round(pow(2.0, hb), 4) AS perplexity
FROM h
""",
        "vocab_gini": f"""
WITH {TRANSCRIPTS_CTE},
cfg2 AS (SELECT term, count(*)::BIGINT AS c FROM tok GROUP BY term),
rk AS (SELECT c, row_number() OVER (ORDER BY c, term) AS rn FROM cfg2)
SELECT count(*)::BIGINT AS n_terms,
       sum(c)::BIGINT AS total_tokens,
       round(2.0 * sum(rn * c) / (count(*) * sum(c)) - (count(*) + 1.0) / count(*), 4) AS gini
FROM rk
""",
        "k_anonymity": f"""
WITH cls AS (
  SELECT lang, source, count(*)::BIGINT AS c
  FROM documents GROUP BY lang, source),
tot AS (SELECT sum(c)::BIGINT AS t, count(*)::BIGINT AS nc FROM cls),
ks(k) AS (VALUES {", ".join(f"({k})" for k in _KANON_KS)})
SELECT ks.k::BIGINT AS k,
       tot.nc AS n_classes,
       sum(CASE WHEN cls.c < ks.k THEN 1 ELSE 0 END)::BIGINT AS n_classes_at_risk,
       sum(CASE WHEN cls.c < ks.k THEN cls.c ELSE 0 END)::BIGINT AS n_rows_at_risk,
       round(sum(CASE WHEN cls.c < ks.k THEN cls.c ELSE 0 END) / tot.t::DOUBLE, 4) AS risk_frac
FROM ks CROSS JOIN cls CROSS JOIN tot
GROUP BY ks.k, tot.nc, tot.t
""",
        "containment_pairs": f"""
WITH {TRANSCRIPTS_CTE},
{TOKPOS_CTE},
sh AS (
  SELECT DISTINCT a.doc_id, a.term || ' ' || b.term || ' ' || c.term AS sh
  FROM tokpos a
  JOIN tokpos b ON b.doc_id = a.doc_id AND b.pos = a.pos + 1
  JOIN tokpos c ON c.doc_id = a.doc_id AND c.pos = a.pos + 2
  WHERE a.doc_id < {_JACCARD_DOCS}
),
cnt AS (SELECT doc_id, count(*)::BIGINT AS c FROM sh GROUP BY doc_id),
inter AS (
  SELECT x.doc_id AS a, y.doc_id AS b, count(*)::BIGINT AS i
  FROM sh x JOIN sh y ON y.sh = x.sh AND y.doc_id > x.doc_id
  GROUP BY x.doc_id, y.doc_id
),
co AS (
  SELECT i.a AS doc_a, i.b AS doc_b,
         round(i.i * 1.0 / ca.c, 6) AS cont_a,
         round(i.i * 1.0 / cb.c, 6) AS cont_b
  FROM inter i JOIN cnt ca ON ca.doc_id = i.a JOIN cnt cb ON cb.doc_id = i.b
)
SELECT doc_a, doc_b, cont_a, cont_b,
       greatest(cont_a, cont_b) AS containment
FROM co WHERE greatest(cont_a, cont_b) >= {_CONT_MIN}
""",
        "cdc_chunks": """
WITH pos AS (
  SELECT doc_id, text, length(text) AS L,
         unnest(generate_series(8, length(text) - 1)) AS p
  FROM documents WHERE length(text) >= 9),
hb AS (
  SELECT doc_id, p,
         ( unicode(substr(text, p,     1))::BIGINT
         + unicode(substr(text, p - 1, 1))::BIGINT * 37
         + unicode(substr(text, p - 2, 1))::BIGINT * 1369
         + unicode(substr(text, p - 3, 1))::BIGINT * 50653
         + unicode(substr(text, p - 4, 1))::BIGINT * 1874161
         + unicode(substr(text, p - 5, 1))::BIGINT * 69343957
         + unicode(substr(text, p - 6, 1))::BIGINT * 2565726409
         + unicode(substr(text, p - 7, 1))::BIGINT * 94931877133 ) AS h
  FROM pos),
bnd AS (SELECT doc_id, p FROM hb WHERE h % 64 = 0),
ends AS (
  SELECT doc_id, p AS e FROM bnd
  UNION ALL
  SELECT doc_id, length(text) AS e FROM documents WHERE length(text) > 0),
spans AS (
  SELECT doc_id,
         coalesce(lag(e) OVER (PARTITION BY doc_id ORDER BY e), 0) + 1 AS s,
         e
  FROM ends),
chunks AS (
  SELECT sp.doc_id, substr(d.text, sp.s, sp.e - sp.s + 1) AS ch,
         sp.e - sp.s + 1 AS clen
  FROM spans sp JOIN documents d ON d.doc_id = sp.doc_id)
SELECT count(DISTINCT doc_id)::BIGINT AS n_docs,
       count(*)::BIGINT AS n_chunks,
       count(DISTINCT ch)::BIGINT AS n_distinct_chunks,
       round(sum(clen) / count(*)::DOUBLE, 4) AS mean_chunk_len
FROM chunks
""",
        "term_dispersion": f"""
WITH {TRANSCRIPTS_CTE},
stats2 AS (
  SELECT term, count(*)::BIGINT AS df, sum(tf)::BIGINT AS s1,
         sum(tf * tf)::BIGINT AS s2
  FROM tf GROUP BY term),
scored AS (
  SELECT term, df, s1,
         round((df * s2 - s1 * s1) / (df * s1::DOUBLE), 4) AS dispersion
  FROM stats2 WHERE df >= 50),
rk AS (SELECT term, df, s1, dispersion,
              row_number() OVER (ORDER BY dispersion DESC, term) AS rn
       FROM scored)
SELECT term, df, s1, dispersion FROM rk WHERE rn <= 20
""",
        "sft_dataset": f"""
WITH t AS (
  SELECT 'conv-' || lpad(cast(doc_id // 8 AS varchar), 8, '0') AS conv_id,
         cast(doc_id // 8 AS BIGINT) AS ordinal,
         cast(doc_id % 8 AS int) AS turn_idx,
         CASE cast(doc_id % 3 AS int) WHEN 0 THEN 'user' WHEN 1 THEN 'assistant' ELSE 'tool' END AS role,
         text
  FROM documents),
rendered AS (
  SELECT conv_id, ordinal,
         string_agg('<|' || role || '|>' || text, chr(10) ORDER BY turn_idx) AS r
  FROM t GROUP BY conv_id, ordinal),
ntok AS (
  SELECT conv_id, ordinal,
         len(list_filter(regexp_split_to_array(lower(nfc_normalize(r)),
             '[^\\p{{L}}\\p{{N}}]+'), x -> x <> ''))::BIGINT AS n_tokens
  FROM rendered),
packed AS (
  SELECT conv_id, n_tokens,
         (sum(n_tokens) OVER (ORDER BY ordinal ROWS UNBOUNDED PRECEDING)
          - n_tokens) // {_SFTDS_BUDGET} AS pack_id
  FROM ntok)
SELECT conv_id, n_tokens, cast(pack_id AS BIGINT) AS pack_id FROM packed
""",
        "pmi_bigrams": f"""
WITH {TRANSCRIPTS_CTE},
{TOKPOS_CTE},
ew AS (
  SELECT a.term AS s, b.term AS t, count(*)::BIGINT AS w
  FROM tokpos a JOIN tokpos b ON b.doc_id = a.doc_id AND b.pos = a.pos + 1
  WHERE a.term <> b.term GROUP BY a.term, b.term),
lm AS (SELECT s, sum(w)::BIGINT AS cl FROM ew GROUP BY s),
rm AS (SELECT t, sum(w)::BIGINT AS cr FROM ew GROUP BY t),
nt AS (SELECT sum(w)::BIGINT AS n FROM ew),
scored AS (
  SELECT e.s, e.t, e.w AS n_pair,
         round(ln(nt.n * e.w / (lm.cl::DOUBLE * rm.cr)), 4) AS pmi
  FROM ew e JOIN lm ON lm.s = e.s JOIN rm ON rm.t = e.t CROSS JOIN nt
  WHERE e.w >= 5),
rk AS (SELECT s, t, n_pair, pmi,
              row_number() OVER (ORDER BY pmi DESC, s, t) AS rn
       FROM scored)
SELECT s, t, n_pair, pmi FROM rk WHERE rn <= 20
""",
        "csv_roundtrip": """
SELECT event_type,
       epoch_us(ts) // 86400000000 AS day,
       count(*)::BIGINT AS n_events,
       round(sum(cast(round(value * 100) AS BIGINT)) / 100.0, 2) AS value_sum
FROM events GROUP BY 1, 2
""",
        "wds_export": f"""
SELECT doc_id // {_WDS_PER_SHARD} AS shard,
       count(*)::BIGINT AS n_samples,
       sum(length(text))::BIGINT AS n_chars
FROM documents GROUP BY 1
""",
        "hits": f"""
WITH {TRANSCRIPTS_CTE},
{TOKPOS_CTE},
ew AS (
  SELECT a.term AS s, b.term AS t, count(*)::BIGINT AS w
  FROM tokpos a JOIN tokpos b ON b.doc_id = a.doc_id AND b.pos = a.pos + 1
  WHERE a.term <> b.term GROUP BY a.term, b.term),
nds AS (SELECT s AS n FROM ew UNION SELECT t AS n FROM ew),
h0 AS (SELECT n, 1000000000::HUGEINT AS v FROM nds),
a1r AS (SELECT e.t AS n, sum(h.v * e.w) AS r FROM ew e JOIN h0 h ON h.n = e.s GROUP BY e.t),
a1 AS (SELECT nds.n, coalesce((a1r.r * 1000000000) // (SELECT max(r) FROM a1r), 0) AS v
       FROM nds LEFT JOIN a1r ON a1r.n = nds.n),
h1r AS (SELECT e.s AS n, sum(a.v * e.w) AS r FROM ew e JOIN a1 a ON a.n = e.t GROUP BY e.s),
h1 AS (SELECT nds.n, coalesce((h1r.r * 1000000000) // (SELECT max(r) FROM h1r), 0) AS v
       FROM nds LEFT JOIN h1r ON h1r.n = nds.n),
a2r AS (SELECT e.t AS n, sum(h.v * e.w) AS r FROM ew e JOIN h1 h ON h.n = e.s GROUP BY e.t),
a2 AS (SELECT nds.n, coalesce((a2r.r * 1000000000) // (SELECT max(r) FROM a2r), 0) AS v
       FROM nds LEFT JOIN a2r ON a2r.n = nds.n),
h2r AS (SELECT e.s AS n, sum(a.v * e.w) AS r FROM ew e JOIN a2 a ON a.n = e.t GROUP BY e.s),
h2 AS (SELECT nds.n, coalesce((h2r.r * 1000000000) // (SELECT max(r) FROM h2r), 0) AS v
       FROM nds LEFT JOIN h2r ON h2r.n = nds.n),
th AS (SELECT 'hub' AS kind, n AS term, v::BIGINT AS score,
              row_number() OVER (ORDER BY v DESC, n) AS rn FROM h2),
ta AS (SELECT 'authority' AS kind, n AS term, v::BIGINT AS score,
              row_number() OVER (ORDER BY v DESC, n) AS rn FROM a2)
SELECT kind, term, score FROM th WHERE rn <= 10
UNION ALL
SELECT kind, term, score FROM ta WHERE rn <= 10
""",
        "watermark": f"""
WITH w AS (
  SELECT epoch_us(ts) AS tsu,
         max(epoch_us(ts)) OVER (
           ORDER BY ((event_id % 2147483647) * 48271) % 2147483647, event_id
           ROWS UNBOUNDED PRECEDING) AS wm
  FROM events)
SELECT tsu // 86400000000 AS window_id,
       sum(CASE WHEN tsu >= wm - {_WM_DELAY_S}::BIGINT * 1000000 THEN 1 ELSE 0 END)::BIGINT AS n_ontime,
       sum(CASE WHEN tsu <  wm - {_WM_DELAY_S}::BIGINT * 1000000 THEN 1 ELSE 0 END)::BIGINT AS n_late
FROM w GROUP BY 1
""",
        "skew_join": """
WITH u AS (SELECT user_id, count(*)::BIGINT AS n_user_events
           FROM events GROUP BY user_id)
SELECT e.event_id, e.user_id, u.n_user_events
FROM events e JOIN u USING (user_id)
""",
        "conv_split": f"""
WITH t AS (
  SELECT 'conv-' || lpad(cast(doc_id // 8 AS varchar), 8, '0') AS conv_id
  FROM documents),
a AS (
  SELECT conv_id,
         CASE
           WHEN md5_number_upper(conv_id || '-cs') % 100 < {_CONV_SPLITS["test"]} THEN 'test'
           WHEN md5_number_upper(conv_id || '-cs') % 100 < {_CONV_SPLITS["test"] + _CONV_SPLITS["train"]} THEN 'train'
           ELSE 'val' END AS split
  FROM t),
leak AS (
  SELECT count(*)::BIGINT AS n FROM (
    SELECT conv_id FROM a GROUP BY conv_id HAVING count(DISTINCT split) > 1))
SELECT split, count(DISTINCT conv_id)::BIGINT AS n_convs,
       count(*)::BIGINT AS n_turns,
       (SELECT n FROM leak) AS n_leaked
FROM a GROUP BY split
""",
        "label_prop": f"""
WITH q AS (SELECT vec_id, embedding, label FROM embeddings),
sims AS (
  SELECT a.vec_id AS u, b.vec_id AS v,
         list_cosine_similarity(a.embedding::DOUBLE[], b.embedding::DOUBLE[]) AS cos
  FROM q a JOIN q b ON b.vec_id <> a.vec_id),
edges AS (
  SELECT u, v FROM (
    SELECT u, v, row_number() OVER (PARTITION BY u ORDER BY cos DESC, v) AS rn
    FROM sims) WHERE rn <= {_LP_K}),
l0 AS (SELECT vec_id, CASE WHEN vec_id % {_LP_SEED_MOD} = 0
                           THEN label::BIGINT ELSE -1 END AS lab FROM q),
v1 AS (SELECT e.u, l.lab, count(*)::BIGINT AS c
       FROM edges e JOIN l0 l ON l.vec_id = e.v WHERE l.lab >= 0
       GROUP BY e.u, l.lab),
a1 AS (SELECT u, lab FROM (
         SELECT u, lab, row_number() OVER (PARTITION BY u ORDER BY c DESC, lab) AS rn
         FROM v1) WHERE rn = 1),
l1 AS (SELECT q.vec_id, CASE WHEN q.vec_id % {_LP_SEED_MOD} = 0
                             THEN q.label::BIGINT ELSE coalesce(a1.lab, -1) END AS lab
       FROM q LEFT JOIN a1 ON a1.u = q.vec_id),
v2 AS (SELECT e.u, l.lab, count(*)::BIGINT AS c
       FROM edges e JOIN l1 l ON l.vec_id = e.v WHERE l.lab >= 0
       GROUP BY e.u, l.lab),
a2 AS (SELECT u, lab FROM (
         SELECT u, lab, row_number() OVER (PARTITION BY u ORDER BY c DESC, lab) AS rn
         FROM v2) WHERE rn = 1),
l2 AS (SELECT q.vec_id, CASE WHEN q.vec_id % {_LP_SEED_MOD} = 0
                             THEN q.label::BIGINT ELSE coalesce(a2.lab, -1) END AS lab
       FROM q LEFT JOIN a2 ON a2.u = q.vec_id),
v3 AS (SELECT e.u, l.lab, count(*)::BIGINT AS c
       FROM edges e JOIN l2 l ON l.vec_id = e.v WHERE l.lab >= 0
       GROUP BY e.u, l.lab),
a3 AS (SELECT u, lab FROM (
         SELECT u, lab, row_number() OVER (PARTITION BY u ORDER BY c DESC, lab) AS rn
         FROM v3) WHERE rn = 1),
l3 AS (SELECT q.vec_id, CASE WHEN q.vec_id % {_LP_SEED_MOD} = 0
                             THEN q.label::BIGINT ELSE coalesce(a3.lab, -1) END AS lab
       FROM q LEFT JOIN a3 ON a3.u = q.vec_id)
SELECT vec_id, lab::BIGINT AS label FROM l3 ORDER BY vec_id
""",
        "triangles": f"""
WITH {TRANSCRIPTS_CTE},
{TOKPOS_CTE},
adj AS (
  SELECT DISTINCT least(a.term, b.term) AS s, greatest(a.term, b.term) AS t
  FROM tokpos a JOIN tokpos b ON b.doc_id = a.doc_id AND b.pos = a.pos + 1
  WHERE a.term <> b.term),
nodes AS (SELECT s AS u FROM adj UNION ALL SELECT t AS u FROM adj),
degs AS (SELECT u, count(*)::BIGINT AS d FROM nodes GROUP BY u),
tri AS (
  SELECT count(*)::BIGINT AS ntri
  FROM adj e1
  JOIN adj e2 ON e2.s = e1.s AND e2.t > e1.t
  JOIN adj e3 ON e3.s = e1.t AND e3.t = e2.t)
SELECT (SELECT count(*)::BIGINT FROM degs) AS n_nodes,
       (SELECT count(*)::BIGINT FROM adj) AS n_edges,
       (SELECT sum(d * (d - 1) // 2)::BIGINT FROM degs) AS n_wedges,
       tri.ntri AS n_triangles,
       round(3.0 * tri.ntri / (SELECT sum(d * (d - 1) // 2) FROM degs), 4) AS clustering
FROM tri
""",
        "loss_mask_spans": """
WITH t AS (
  SELECT 'conv-' || lpad(cast(doc_id // 8 AS varchar), 8, '0') AS conv_id,
         cast(doc_id % 8 AS int) AS turn_idx,
         CASE cast(doc_id % 3 AS int) WHEN 0 THEN 'user' WHEN 1 THEN 'assistant' ELSE 'tool' END AS role,
         text
  FROM documents),
o AS (
  SELECT conv_id, turn_idx, role, text,
         coalesce(sum(length('<|' || role || '|>' || text) + 1) OVER (
           PARTITION BY conv_id ORDER BY turn_idx
           ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)
           + 2 + length(role) + 2 AS start_off
  FROM t)
SELECT conv_id, turn_idx,
       cast(start_off AS BIGINT) AS start_off,
       cast(start_off + length(text) AS BIGINT) AS end_off
FROM o WHERE role = 'assistant'
""",
        "textrank": f"""
WITH {TRANSCRIPTS_CTE},
{TOKPOS_CTE},
adj AS (
  SELECT a.term AS s, b.term AS t
  FROM tokpos a JOIN tokpos b ON b.doc_id = a.doc_id AND b.pos = a.pos + 1
  WHERE a.term <> b.term),
ed AS (SELECT s, t FROM adj UNION ALL SELECT t AS s, s AS t FROM adj),
ew AS (SELECT s, t, count(*)::BIGINT AS w FROM ed GROUP BY s, t),
wout AS (SELECT s, sum(w)::BIGINT AS wt FROM ew GROUP BY s),
r0 AS (SELECT s AS term, 1000000000::BIGINT AS r FROM wout),
r1 AS (
  SELECT e.t AS term, 150000000 + (85 * sum((r.r * e.w) // w2.wt)) // 100 AS r
  FROM ew e JOIN r0 r ON r.term = e.s JOIN wout w2 ON w2.s = e.s GROUP BY e.t),
r2 AS (
  SELECT e.t AS term, 150000000 + (85 * sum((r.r * e.w) // w2.wt)) // 100 AS r
  FROM ew e JOIN r1 r ON r.term = e.s JOIN wout w2 ON w2.s = e.s GROUP BY e.t),
r3 AS (
  SELECT e.t AS term, 150000000 + (85 * sum((r.r * e.w) // w2.wt)) // 100 AS r
  FROM ew e JOIN r2 r ON r.term = e.s JOIN wout w2 ON w2.s = e.s GROUP BY e.t),
r4 AS (
  SELECT e.t AS term, 150000000 + (85 * sum((r.r * e.w) // w2.wt)) // 100 AS r
  FROM ew e JOIN r3 r ON r.term = e.s JOIN wout w2 ON w2.s = e.s GROUP BY e.t)
SELECT term, cast(r AS BIGINT) AS rank FROM r4
ORDER BY r DESC, term LIMIT 20
""",
        "fim_split": """
WITH f AS (
  SELECT doc_id, text, length(text) AS L,
         md5_number_upper(cast(doc_id AS varchar)) AS h
  FROM documents),
s AS (
  SELECT doc_id, text,
         cast(h % (L + 1) AS BIGINT) AS a,
         cast(h % (L + 1) AS BIGINT)
           + cast((h // (L + 1)) % (L - cast(h % (L + 1) AS BIGINT) + 1) AS BIGINT) AS b
  FROM f)
SELECT doc_id, a, b,
       '<PRE>' || substr(text, 1, a)
         || '<SUF>' || substr(text, b + 1)
         || '<MID>' || substr(text, a + 1, b - a) AS fim_text
FROM s
""",
    }
