import numpy as np
import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from hybrid_sanctions_search_engine_ray.functions.codec import (
    block_maxes,
    decode_posting,
    encode_posting,
    varint_decode,
    varint_encode,
)


def test_varint_roundtrip_basic():
    vals = np.array([0, 1, 127, 128, 129, 16383, 16384, 2**32, 2**63 - 1, 2**64 - 1], dtype=np.uint64)
    assert np.array_equal(varint_decode(varint_encode(vals)), vals)


def test_varint_empty():
    assert varint_encode(np.array([], dtype=np.uint64)) == b""
    assert varint_decode(b"").size == 0


def test_varint_single_byte_values():
    vals = np.arange(128, dtype=np.uint64)
    buf = varint_encode(vals)
    assert len(buf) == 128
    assert np.array_equal(varint_decode(buf), vals)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=200))
def test_varint_roundtrip_property(vals):
    arr = np.array(vals, dtype=np.uint64)
    assert np.array_equal(varint_decode(varint_encode(arr)), arr)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=2**40), min_size=1, max_size=300, unique=True),
    st.data(),
)
def test_posting_roundtrip_property(doc_ids, data):
    d = np.sort(np.array(doc_ids, dtype=np.uint64))
    tfs = np.array(data.draw(st.lists(st.integers(1, 1000), min_size=d.size, max_size=d.size)), dtype=np.uint64)
    dls = np.array(data.draw(st.lists(st.integers(1, 5000), min_size=d.size, max_size=d.size)), dtype=np.uint64)
    db, tb, lb = encode_posting(d, tfs, dls)
    d2, t2, l2 = decode_posting(db, tb, lb)
    assert np.array_equal(d2, d)
    assert np.array_equal(t2, tfs)
    assert np.array_equal(l2, dls)


def test_compression_is_compact():
    # dense doc ids → 1-byte deltas
    d = np.arange(10_000, dtype=np.uint64)
    tfs = np.ones(10_000, dtype=np.uint64)
    dls = np.full(10_000, 50, dtype=np.uint64)
    db, tb, lb = encode_posting(d, tfs, dls)
    assert len(db) < 10_100  # ~1 byte per delta
    assert len(tb) == 10_000


def test_block_maxes():
    tfs = np.array([1, 5, 2, 10], dtype=np.uint64)
    dls = np.array([10, 10, 10, 10], dtype=np.uint64)
    bm = block_maxes(tfs, dls, k1=1.2, b=0.75, avgdl=10.0, block_size=2)
    assert bm.shape == (2,)
    # factor is monotone in tf at fixed dl → block maxes at tf=5 and tf=10
    f = lambda tf: tf * 2.2 / (tf + 1.2)  # noqa: E731
    assert np.allclose(bm, [f(5), f(10)], rtol=1e-6)


# --- Elias-Fano -------------------------------------------------------------


def test_ef_roundtrip_random():
    import numpy as np

    from hybrid_sanctions_search_engine_ray.functions.codec import ef_decode, ef_encode

    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(1, 300))
        u = int(rng.integers(n, 50_000))
        v = np.sort(rng.choice(u, size=n, replace=False)).astype(np.uint64)
        lo, up, l = ef_encode(v, u)
        assert (ef_decode(lo, up, n, l) == v).all()
        assert len(lo) == (n * l + 7) // 8
        assert len(up) == (n + (int(v[-1]) >> l) + 1 + 7) // 8


def test_ef_edge_cases():
    import numpy as np
    import pytest

    from hybrid_sanctions_search_engine_ray.functions.codec import (
        ef_decode,
        ef_encode,
        ef_split_l,
    )

    # dense sequence: l = 0, pure unary upper
    v = np.arange(10, dtype=np.uint64)
    lo, up, l = ef_encode(v, 10)
    assert l == 0 and lo == b""
    assert (ef_decode(lo, up, 10, l) == v).all()
    # single value near the top of a large universe
    v = np.array([999_999], dtype=np.uint64)
    lo, up, l = ef_encode(v, 1_000_000)
    assert (ef_decode(lo, up, 1, l) == v).all()
    assert l == 1_000_000 .bit_length() - 1
    # refusals
    with pytest.raises(ValueError):
        ef_encode(np.empty(0, dtype=np.uint64), 10)
    with pytest.raises(ValueError):
        ef_encode(np.array([10], dtype=np.uint64), 10)
    assert ef_split_l(7, 8) == 0  # u < n → l = 0


def test_ef_roundtrip_hypothesis():
    """Property: any sorted duplicate-free uint sequence in any universe
    round-trips, and the byte counts match the closed-form sizes."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    import numpy as np

    from hybrid_sanctions_search_engine_ray.functions.codec import ef_decode, ef_encode

    @settings(max_examples=200, deadline=None)
    @given(st.sets(st.integers(min_value=0, max_value=1 << 40),
                   min_size=1, max_size=200),
           st.integers(min_value=1, max_value=1 << 20))
    def inner(vals, slack):
        v = np.array(sorted(vals), dtype=np.uint64)
        u = int(v[-1]) + slack
        lo, up, l = ef_encode(v, u)
        assert (ef_decode(lo, up, v.size, l) == v).all()
        assert len(lo) == (v.size * l + 7) // 8
        assert len(up) == (v.size + (int(v[-1]) >> l) + 1 + 7) // 8

    inner()


# --- batched codec ------------------------------------------------------------


def _leb128(v: int) -> bytes:
    """Reference LEB128 encoder, one value at a time."""
    out = bytearray()
    while True:
        byte, v = v & 0x7F, v >> 7
        out.append(byte | (0x80 if v else 0))
        if not v:
            return bytes(out)


def _ref_row(doc_ids, tfs, dls) -> tuple[bytes, bytes, bytes]:
    deltas = [doc_ids[0]] + [b - a for a, b in zip(doc_ids, doc_ids[1:])]
    return tuple(b"".join(_leb128(x) for x in col) for col in (deltas, tfs, dls))


_U63 = st.integers(min_value=0, max_value=2**63)
_row = st.lists(_U63, min_size=1, max_size=12, unique=True).flatmap(
    lambda ids: st.tuples(
        st.just(sorted(ids)),
        st.lists(_U63, min_size=len(ids), max_size=len(ids)),
        st.lists(_U63, min_size=len(ids), max_size=len(ids)),
    )
)


def _flat(rows):
    d = np.array([x for r in rows for x in r[0]], dtype=np.uint64)
    t = np.array([x for r in rows for x in r[1]], dtype=np.uint64)
    l = np.array([x for r in rows for x in r[2]], dtype=np.uint64)  # noqa: E741
    n = np.array([len(r[0]) for r in rows], dtype=np.int64)
    return d, t, l, n


@settings(max_examples=150, deadline=None)
@given(st.lists(_row, min_size=1, max_size=150), st.data())
def test_encode_rows_matches_leb128_reference(rows, data):
    from hybrid_sanctions_search_engine_ray.functions.codec import (
        decode_rows,
        encode_rows,
        varint_counts,
    )

    d, t, l, n = _flat(rows)
    docs, tfs, dls = encode_rows(d, t, l, np.cumsum(n) - n)
    ref = [_ref_row(*r) for r in rows]
    assert docs.to_pylist() == [r[0] for r in ref]
    assert tfs.to_pylist() == [r[1] for r in ref]
    assert dls.to_pylist() == [r[2] for r in ref]
    # the one-row wrappers are the same codec
    for r, want in zip(rows[:5], ref):
        assert encode_posting(*(np.array(c, dtype=np.uint64) for c in r)) == want
    d2, t2, l2 = decode_rows(docs, tfs, dls, n)
    assert np.array_equal(d2, d) and np.array_equal(t2, t) and np.array_equal(l2, l)
    assert np.array_equal(varint_counts(docs), n)
    # sliced (non-zero offset) and chunked columns decode the same rows
    k = data.draw(st.integers(0, len(rows) - 1))
    lo = int(n[:k].sum())
    assert np.array_equal(varint_counts(docs.slice(k)), n[k:])
    d3, t3, l3 = decode_rows(docs.slice(k), pa.chunked_array([tfs[:k], tfs[k:]]).slice(k),
                             dls.slice(k), n[k:])
    assert np.array_equal(d3, d[lo:]) and np.array_equal(t3, t[lo:]) and np.array_equal(l3, l[lo:])


def test_encode_rows_many_one_posting_rows():
    from hybrid_sanctions_search_engine_ray.functions.codec import decode_rows, encode_rows

    rng = np.random.default_rng(3)
    d = rng.integers(0, 2**63, size=5000, dtype=np.uint64)
    t = rng.integers(1, 50, size=5000).astype(np.uint64)
    docs, tfs, dls = encode_rows(d, t, t, np.arange(5000))
    assert docs.to_pylist() == [_leb128(int(x)) for x in d]
    d2, t2, _ = decode_rows(docs, tfs, dls, np.ones(5000, dtype=np.int64))
    assert np.array_equal(d2, d) and np.array_equal(t2, t)


def test_decode_refuses_corrupt_input():
    import pytest

    from hybrid_sanctions_search_engine_ray.functions.codec import decode_rows, encode_rows

    d = np.array([1, 5, 9], dtype=np.uint64)
    docs, tfs, dls = encode_rows(d, d, d, [0, 2])
    with pytest.raises(ValueError, match="n_docs"):
        decode_rows(docs, tfs, dls, [2, 2])
    with pytest.raises(ValueError, match="inside a varint"):
        varint_decode(b"\x05\x80")


def _per_term_segment_rows(df, cap):
    """The per-term build path: sort by (term, doc_id), split each term
    run every ``cap`` postings, one encode_posting call per row."""
    rows = []
    df = df.sort_values(["term", "doc_id"], kind="mergesort")
    for term, g in df.groupby("term", sort=True):
        d, t, l = (g[c].to_numpy() for c in ("doc_id", "tf", "dl"))  # noqa: E741
        for seg, s in enumerate(range(0, len(g), cap)):
            sl = slice(s, s + cap)
            rows.append({"term": term, "seg_idx": seg, "n_docs": len(d[sl]),
                         "cf": int(t[sl].sum()), "max_tf": int(t[sl].max()),
                         **dict(zip(("docs", "tfs", "dls"), encode_posting(d[sl], t[sl], l[sl])))})
    return rows


@settings(max_examples=40, deadline=None)
@given(st.dictionaries(st.sampled_from(["a", "bb", "c", "dd", "e", "ff"]),
                       st.lists(st.integers(0, 10_000), min_size=1, max_size=11, unique=True),
                       min_size=1),
       st.randoms(use_true_random=False))
def test_build_segment_sub_segments_match_per_term_path(postings, rnd):
    import os
    import tempfile

    import pandas as pd
    import pyarrow.parquet as pq

    from hybrid_sanctions_search_engine_ray.config import EngineConfig
    from hybrid_sanctions_search_engine_ray.stages.postings import build_segment
    from hybrid_sanctions_search_engine_ray.state.manifest import segment_dir

    recs = [{"part": 0, "term": term, "doc_id": d, "tf": rnd.randint(1, 9), "dl": rnd.randint(1, 300)}
            for term, ids in postings.items() for d in ids]
    rnd.shuffle(recs)
    df = pd.DataFrame(recs)
    with tempfile.TemporaryDirectory() as idx:
        build_segment(df, idx, EngineConfig(max_postings_per_segment=3), "mem")
        got = pq.read_table(os.path.join(segment_dir(idx, 0), "postings.parquet")).to_pylist()
    assert got == _per_term_segment_rows(df, 3)
