"""The shared positional layer (pipelines/query.py): candidates, per-doc
positions and the ordered chain against brute force over token lists;
the one refusal of an index built without positions; and the guards
that phrase_search and span_or_near agree with span_near on a
tombstoned positional index."""

from __future__ import annotations

import itertools
import random

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybrid_sanctions_search_engine_ray.config import AnalyzerConfig, EngineConfig
from hybrid_sanctions_search_engine_ray.functions.bm25 import TermPosting
from hybrid_sanctions_search_engine_ray.pipelines import search_features as sfeat
from hybrid_sanctions_search_engine_ray.pipelines.index_build import build_index
from hybrid_sanctions_search_engine_ray.pipelines.query import (
    IndexReader,
    clause_candidates,
    ordered_match,
    phrase_search,
    unordered_match,
)

CFG = EngineConfig(num_partitions=4, analyzer=AnalyzerConfig(mode="simple"))

# --- the matchers against brute force (no index, no Ray) ----------------------

VOCAB = ["a", "b", "c", "d"]
corpora = st.lists(st.lists(st.sampled_from(VOCAB), max_size=8), min_size=1, max_size=6)


def _index(docs: list[list[str]]):
    """The ``{term: TermPosting}`` and ``{term: (doc_ids, offsets, flat)}``
    dicts IndexReader.load_postings / load_positions give for ``docs``."""
    postings, pos = {}, {}
    for t in sorted({t for d in docs for t in d}):
        per_doc = [(i, [p for p, x in enumerate(d) if x == t]) for i, d in enumerate(docs) if t in d]
        ids = np.array([i for i, _ in per_doc], dtype=np.uint64)
        counts = [len(ps) for _, ps in per_doc]
        offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
        flat = np.array([p for _, ps in per_doc for p in ps], dtype=np.uint32)
        postings[t] = TermPosting(t, 1.0, ids, np.ones(ids.size))
        pos[t] = (ids, offsets, flat)
    return postings, pos


def _choices(doc: list[str], clauses: list[list[str]]):
    """Every way to pick one position per clause, in clause order."""
    return itertools.product(*[[p for p, t in enumerate(doc) if t in c] for c in clauses])


@settings(max_examples=200, deadline=None)
@given(docs=corpora,
       clauses=st.lists(st.lists(st.sampled_from(VOCAB), min_size=1, max_size=2, unique=True),
                        min_size=1, max_size=3),
       slop=st.integers(0, 3))
def test_ordered_match_is_brute_force(docs, clauses, slop):
    postings, pos = _index(docs)
    brute_cand = [i for i, d in enumerate(docs) if all(set(c) & set(d) for c in clauses)]
    assert clause_candidates(postings, clauses).tolist() == brute_cand
    # every consecutive pick lies 1..slop+1 positions after the one before
    brute = [any(all(1 <= b - a <= slop + 1 for a, b in zip(ps, ps[1:]))
                 for ps in _choices(d, clauses)) for d in docs]
    assert ordered_match(pos, clauses, np.arange(len(docs), dtype=np.uint64), slop).tolist() == brute


@settings(max_examples=200, deadline=None)
@given(docs=corpora, want=st.lists(st.sampled_from(VOCAB), min_size=1, max_size=3),
       slop=st.integers(0, 3))
def test_unordered_window_is_brute_force(docs, want, slop):
    _, pos = _index(docs)
    clauses = [[t] for t in want]
    # distinct positions, one per clause, in any order, inside a window
    # of width ≤ n_clauses + slop
    brute = [any(len(set(ps)) == len(ps) and max(ps) - min(ps) + 1 - len(ps) <= slop
                 for ps in _choices(d, clauses)) for d in docs]
    assert unordered_match(pos, clauses, np.arange(len(docs), dtype=np.uint64), slop).tolist() == brute


# --- an index without positions is refused in one place -----------------------

TEXTS = ["alpha beta gamma", "beta alpha delta", "gamma alpha beta beta"]


def _build(tmp_path_factory, name: str, texts: list[str], **kw) -> str:
    import ray.data as rd

    rows = [
        {"conv_id": f"conv-{i // 4:08d}", "turn_idx": i % 4, "role": "user", "text": t,
         "tool": "", "ts": pd.Timestamp(2026, 1, 1), "doc_id": i}
        for i, t in enumerate(texts)
    ]
    ds = rd.from_arrow(pa.Table.from_pandas(pd.DataFrame(rows), preserve_index=False))
    idx = str(tmp_path_factory.mktemp(name) / "idx")
    build_index("mem", idx, CFG, transcripts_ds=ds, **kw)
    return idx


@pytest.fixture(scope="module")
def plain_index(tmp_path_factory, ray_session):
    return _build(tmp_path_factory, "plainidx", TEXTS)


def _row(**cols):
    return pd.DataFrame({"query_id": ["q"], "top_k": [10], **{k: [v] for k, v in cols.items()}})


_POSITIONAL = {
    "span_near": lambda i: sfeat.SpanNearScorer(i)(_row(query_text="alpha beta", slop=1)),
    "span_near_unordered": lambda i: sfeat.SpanNearScorer(i, in_order=False)(
        _row(query_text="alpha beta", slop=1)),
    "span_or_near": lambda i: sfeat.SpanOrNearScorer(i)(_row(query_text="alpha|delta beta", slop=1)),
    "span_first": lambda i: sfeat.SpanFirstScorer(i)(_row(query_text="alpha", end=1)),
    "span_not": lambda i: sfeat.SpanNotScorer(i)(_row(query_text="alpha", exclude="beta", dist=1)),
    "intervals": lambda i: sfeat.IntervalsScorer(i, {"q": (1, [["alpha"], ["beta"]])})(_row()),
    "load_positions": lambda i: IndexReader(i).load_positions("alpha"),
}


@pytest.mark.parametrize("entry", sorted(_POSITIONAL))
def test_positional_query_refuses_index_without_positions(plain_index, entry):
    with pytest.raises(ValueError, match="store_positions"):
        _POSITIONAL[entry](plain_index)


# --- guards on a tombstoned positional index ----------------------------------


@pytest.fixture(scope="module")
def tombstoned(tmp_path_factory, ray_session):
    from hybrid_sanctions_search_engine_ray.pipelines.maintenance import delete_docs

    rng = random.Random(3)
    words = ["alpha", "beta", "gamma", "delta", "epsilon"]
    texts = [" ".join(rng.choice(words) for _ in range(rng.randint(3, 9))) for _ in range(60)]
    idx = _build(tmp_path_factory, "tombidx", texts, store_positions=True)
    delete_docs(idx, range(0, len(texts), 7))
    phrases = sorted({" ".join(w[i:i + n]) for w in (t.split() for t in texts)
                      for n in (2, 3) for i in range(len(w) - n + 1)})
    return idx, rng.sample(phrases, 30)


def _span_near(idx: str, phrases: list[str], slop: int, scorer=sfeat.span_near_search):
    import ray.data as rd

    rows = [{"query_id": f"q{i:03d}", "query_text": p, "slop": slop, "top_k": 100}
            for i, p in enumerate(phrases)]
    out = scorer(rd.from_items(rows), idx).to_pandas()
    return {qid: g.sort_values("rank") for qid, g in out.groupby("query_id")}


def test_phrase_search_is_span_near_slop_0(tombstoned):
    idx, phrases = tombstoned
    near = _span_near(idx, phrases, 0)
    r = IndexReader(idx)
    assert r.tombstones.size
    hits = 0
    for i, p in enumerate(phrases):
        got = phrase_search(idx, p, top_k=100, reader=r)
        want = near.get(f"q{i:03d}", pd.DataFrame({"doc_id": [], "score": []}))
        assert got["doc_id"].tolist() == want["doc_id"].tolist(), p
        assert np.array_equal(got["score"].to_numpy(np.float64), want["score"].to_numpy(np.float64)), p
        hits += len(got)
    assert hits


@pytest.mark.parametrize("slop", [0, 2])
def test_span_or_near_single_term_clauses_match_span_near(tombstoned, slop):
    idx, phrases = tombstoned
    near = _span_near(idx, phrases, slop)
    ors = _span_near(idx, phrases, slop, sfeat.span_or_near_search)
    assert sum(len(g) for g in near.values())
    assert {q: sorted(g["doc_id"]) for q, g in ors.items()} == \
        {q: sorted(g["doc_id"]) for q, g in near.items()}


def test_intervals_any_of_member_without_postings_is_ignored(tombstoned):
    """An any_of member that no live doc holds adds nothing; it does not
    make the clause refuse the index."""
    idx, _ = tombstoned
    rows = pd.DataFrame({"query_id": ["with", "without"], "top_k": [100, 100]})
    out = sfeat.IntervalsScorer(idx, {"with": (2, [["beta", "qqqq"], ["gamma"]]),
                                      "without": (2, [["beta"], ["gamma"]])})(rows)
    got = {q: g.drop(columns="query_id").reset_index(drop=True) for q, g in out.groupby("query_id")}
    assert len(got["with"])
    pd.testing.assert_frame_equal(got["with"], got["without"])
