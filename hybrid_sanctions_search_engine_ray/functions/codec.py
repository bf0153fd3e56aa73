"""Posting-list codec: delta + varint compression, numpy-vectorized.

The reference delegates posting storage to Elasticsearch/Lucene segment
internals (opaque); this is our from-scratch equivalent for Arrow-native
segments (SURVEY.md §1.1 "Posting list / index" row): a posting for one
term is three parallel arrays — sorted ``doc_ids`` (stored as varint
deltas), ``tfs`` and ``doclens`` (plain varints; storing doclen inline
lets the scorer compute BM25 without a doc-length side table).

LEB128-style varint: 7 payload bits per byte, high bit = continuation.
Encode and decode are fully vectorized (no per-value Python loop): byte
counts via threshold comparisons, placement via fancy indexing, decode
via ``np.add.reduceat`` over per-value byte groups.

Batched layout. A segment file holds one row per (term, sub-segment);
its ``docs``, ``tfs`` and ``dls`` columns are Arrow binary columns whose
row ``r`` is the varint run of that row's postings. Because every row
ends on a varint terminator, a column's contiguous values buffer (all
rows back to back) is itself one valid varint stream, and the row
boundaries are exactly the ``n_docs`` column's running sum. So a whole
partition is coded in one pass per column:

* :func:`encode_rows` takes the partition's postings flat, in row
  order, plus each row's first posting index; doc-id deltas restart at
  the absolute id at every row start, and the per-row byte offsets are
  the cumsum of the per-value byte counts sampled at the row starts.
* :func:`decode_rows` varint-decodes each column's values buffer once
  and turns doc-id deltas back into ids with a cumsum that is reset at
  every row start (``n_docs`` gives the row lengths; a reader that skips
  that column counts them from the docs bytes with :func:`varint_counts`).

:func:`encode_posting` / :func:`decode_posting` are the one-row case.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

_THRESHOLDS = [1 << (7 * k) for k in range(1, 10)]  # values needing > k bytes
_INT32_MAX = (1 << 31) - 1


def _varint_bytes(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LEB128 bytes of a non-empty contiguous uint64 array → (uint8
    buffer, per-value end offsets into it)."""
    nbytes = np.ones(v.size, dtype=np.int64)
    vmax = v.max()
    for t in map(np.uint64, _THRESHOLDS):
        if vmax < t:
            break
        nbytes += v >= t
    ends = np.cumsum(nbytes)
    starts = ends - nbytes
    out = np.zeros(int(ends[-1]), dtype=np.uint8)
    for k in range(int(nbytes.max())):
        if k == 0:  # every value has a first byte
            idx, vk, nk = starts, v, nbytes
        else:
            mask = nbytes > k
            idx, vk, nk = starts[mask] + k, v[mask], nbytes[mask]
        chunk = (vk >> np.uint64(7 * k)) & np.uint64(0x7F)
        cont = (nk > k + 1).astype(np.uint8) << 7
        out[idx] = chunk.astype(np.uint8) | cont
    return out, ends


def varint_encode(values: np.ndarray) -> bytes:
    """Encode a uint64 array as concatenated LEB128 varints."""
    v = np.ascontiguousarray(values, dtype=np.uint64)
    if v.size == 0:
        return b""
    return _varint_bytes(v)[0].tobytes()


def varint_decode(buf) -> np.ndarray:
    """Decode concatenated LEB128 varints (any bytes-like) into a uint64 array."""
    b = np.frombuffer(buf, dtype=np.uint8)
    last = b < 0x80  # a value's final byte
    if last.all():  # every value fits in one byte (also the empty buffer)
        return b.astype(np.uint64)
    if not last[-1]:
        raise ValueError("varint_decode: buffer ends inside a varint")
    ends = np.flatnonzero(last) + 1
    starts = np.zeros(ends.size, dtype=np.int64)
    starts[1:] = ends[:-1]
    # shift (in 7-bit units) of each byte within its value
    shift = np.arange(b.size, dtype=np.uint64) - np.repeat(starts.astype(np.uint64), ends - starts)
    contrib = (b & np.uint8(0x7F)).astype(np.uint64) << (shift * np.uint64(7))
    return np.add.reduceat(contrib, starts)


def binary_parts(col) -> tuple[np.ndarray, object]:
    """``(row byte offsets, values buffer)`` of a binary column: every
    row's bytes back to back, without copying, and where each row starts
    in them (offsets from 0, one more than rows). ``col`` is a
    ``pa.BinaryArray`` / ``pa.LargeBinaryArray``, a ``pa.ChunkedArray``
    of either (chunks are concatenated), or a bytes-like buffer (one row)."""
    if isinstance(col, (bytes, bytearray, memoryview, pa.Buffer)):
        return np.array([0, len(col)], dtype=np.int64), col
    if isinstance(col, pa.ChunkedArray):
        if col.num_chunks == 0:
            return np.zeros(1, dtype=np.int64), b""
        col = col.chunk(0) if col.num_chunks == 1 else pa.concat_arrays(col.chunks)
    if len(col) == 0:
        return np.zeros(1, dtype=np.int64), b""
    if col.null_count:
        raise ValueError("posting column has nulls")
    _, offsets, data = col.buffers()
    wide = pa.types.is_large_binary(col.type)
    o = np.frombuffer(offsets, dtype=np.int64 if wide else np.int32)[col.offset:col.offset + len(col) + 1]
    first, last = int(o[0]), int(o[-1])
    return o.astype(np.int64) - first, (data.slice(first, last - first) if data is not None else b"")


def _doc_deltas(d: np.ndarray) -> np.ndarray:
    """Gaps between consecutive uint64 doc ids, the first kept absolute
    (gaps across a row boundary wrap; :func:`encode_rows` resets them)."""
    deltas = np.empty_like(d)
    if d.size:
        deltas[0] = d[0]
        np.subtract(d[1:], d[:-1], out=deltas[1:])
    return deltas


def _varint_column(values: np.ndarray, bounds: np.ndarray) -> pa.BinaryArray:
    """One binary column whose row ``r`` is the varints of
    ``values[bounds[r]:bounds[r + 1]]``."""
    v = np.ascontiguousarray(values, dtype=np.uint64)
    if v.size != bounds[-1]:
        raise ValueError(f"encode_rows: column has {v.size} values, rows cover {bounds[-1]}")
    if v.size:
        data, ends = _varint_bytes(v)
        offsets = np.concatenate(([0], ends))[bounds]
    else:
        data, offsets = np.empty(0, dtype=np.uint8), np.zeros(bounds.size, dtype=np.int64)
    if offsets[-1] > _INT32_MAX:
        raise OverflowError("encode_rows: a binary column over 2 GiB; split the partition")
    return pa.Array.from_buffers(
        pa.binary(), bounds.size - 1,
        [None, pa.py_buffer(offsets.astype(np.int32)), pa.py_buffer(data)],
    )


def encode_rows(doc_ids, tfs, dls, row_starts):
    """Encode many posting rows at once → ``(docs, tfs, dls)`` binary
    columns, one row per entry of ``row_starts``.

    ``doc_ids``/``tfs``/``dls`` hold every row's postings back to back;
    row ``r`` is ``[row_starts[r], row_starts[r + 1])`` (the last row
    runs to the end), with doc ids ascending and unique inside a row.
    ``tfs`` or ``dls`` may be ``None`` to skip that column (returned as
    ``None``). Each row's bytes equal :func:`encode_posting` of its
    slice."""
    d = np.ascontiguousarray(doc_ids, dtype=np.uint64)
    starts = np.asarray(row_starts, dtype=np.int64)
    bounds = np.append(starts, d.size)
    deltas = _doc_deltas(d)
    if d.size:
        s = starts[starts < d.size]
        deltas[s] = d[s]  # restart at the absolute id at every row start
    return (
        _varint_column(deltas, bounds),
        None if tfs is None else _varint_column(tfs, bounds),
        None if dls is None else _varint_column(dls, bounds),
    )


def varint_counts(col) -> np.ndarray:
    """Number of varints in each row of a binary column (one terminator
    byte per varint): a segment row's ``n_docs``, read off its docs
    column, for readers that skip the ``n_docs`` column."""
    offsets, data = binary_parts(col)
    ends = np.zeros(len(data) + 1, dtype=np.int64)
    np.cumsum(np.frombuffer(data, dtype=np.uint8) < 0x80, out=ends[1:])
    return np.diff(ends[offsets])


def decode_rows(docs, tfs, dls, n_docs):
    """Inverse of :func:`encode_rows` → flat ``(doc_ids, tfs, doclens)``
    uint64 arrays in row order; row ``r`` holds ``n_docs[r]`` postings.

    Columns are anything :func:`binary_parts` accepts; ``tfs`` or ``dls``
    may be ``None`` to skip decoding that column."""
    n = np.asarray(n_docs, dtype=np.int64)
    deltas = varint_decode(binary_parts(docs)[1])
    if deltas.size != (total := int(n.sum())):
        raise ValueError(f"decode_rows: docs column holds {deltas.size} postings, n_docs sums to {total}")
    doc_ids = np.cumsum(deltas, dtype=np.uint64)
    if n.size > 1:  # restart the running sum at every row start (uint64 wraps exactly)
        starts = np.cumsum(n) - n
        carry = np.zeros(n.size, dtype=np.uint64)
        nz = n > 0
        carry[nz] = doc_ids[starts[nz]] - deltas[starts[nz]]
        doc_ids -= np.repeat(carry, n)
    return (
        doc_ids,
        None if tfs is None else varint_decode(binary_parts(tfs)[1]),
        None if dls is None else varint_decode(binary_parts(dls)[1]),
    )


def encode_posting(doc_ids: np.ndarray, tfs: np.ndarray, doclens: np.ndarray) -> tuple[bytes, bytes, bytes]:
    """doc_ids must be sorted ascending & unique. Returns (docs, tfs, dls)
    buffers: the one-row case of :func:`encode_rows`, as bytes."""
    return (
        varint_encode(_doc_deltas(np.ascontiguousarray(doc_ids, dtype=np.uint64))),
        varint_encode(tfs),
        varint_encode(doclens),
    )


def decode_posting(docs_buf: bytes, tfs_buf: bytes, dls_buf: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inverse of :func:`encode_posting`. Returns (doc_ids, tfs, doclens):
    the one-row case of :func:`decode_rows`, whose doc-id running sum
    never restarts, so the row's postings need not be counted first."""
    return np.cumsum(varint_decode(docs_buf), dtype=np.uint64), varint_decode(tfs_buf), varint_decode(dls_buf)


def encode_positions(flat_positions: np.ndarray, counts: np.ndarray) -> bytes:
    """Encode per-doc token positions for a posting run.

    ``flat_positions`` is the concatenation of each doc's ascending
    position list (doc order == posting row order); ``counts`` gives the
    positions per doc (== tf, so no extra length table is stored).
    Positions are delta-encoded WITHIN each doc (resets at doc starts),
    then varint-packed — same vectorized shape as the doc-id codec.
    """
    p = np.ascontiguousarray(flat_positions, dtype=np.uint64)
    if p.size == 0:
        return b""
    c = np.ascontiguousarray(counts, dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(c)[:-1]))
    deltas = p.copy()
    deltas[1:] -= p[:-1]
    deltas[starts] = p[starts]  # reset at each doc boundary
    return varint_encode(deltas)


def decode_positions(buf: bytes, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`encode_positions`: returns ``(flat_positions,
    offsets)`` where doc ``i``'s positions are
    ``flat[offsets[i]:offsets[i+1]]`` (segmented-cumsum decode, no
    per-doc Python loop)."""
    vals = varint_decode(buf)
    c = np.ascontiguousarray(counts, dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(c)))
    if vals.size == 0:
        return vals, offsets
    total = np.cumsum(vals, dtype=np.uint64)
    starts = offsets[:-1]
    base = total[starts] - vals[starts]  # cumulative carry-in of each doc
    flat = total - np.repeat(base, c)
    return flat, offsets


def block_maxes(tfs: np.ndarray, doclens: np.ndarray, k1: float, b: float, avgdl: float, block_size: int) -> np.ndarray:
    """Per-block max of the idf-independent BM25 factor
    ``tf*(k1+1) / (tf + k1*(1-b+b*dl/avgdl))`` — multiplied by the term's
    idf at query time this upper-bounds any doc's contribution in the
    block (block-max pruning; Ding & Suel, "Faster Top-k Document
    Retrieval Using Block-Max Indexes", SIGIR'11).

    Reference form of the kernel the serving path computes inside
    TermPosting (functions/bm25.py) — kept in FLOAT64: a float32
    downcast could round a block max DOWN and let pruning skip a true
    top-k doc, breaking the rank-identical-to-TAAT contract
    (code-review r05 finding)."""
    tf = tfs.astype(np.float64)
    dl = doclens.astype(np.float64)
    f = tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * dl / avgdl))
    n = f.size
    if n == 0:
        return np.empty(0, dtype=np.float64)
    starts = np.arange(0, n, block_size)
    return np.maximum.reduceat(f, starts)


# --- Elias-Fano (quasi-succinct) doc-id codec -------------------------------
#
# Vigna, "Quasi-succinct indices" (WSDM'13) — the monotone-sequence code
# behind Lucene/PISA doc-id lists: n sorted values in [0, u) take
# n·l + n + (u_max >> l) + 1 bits with l = max(0, floor(log2(u/n))),
# within half a bit of the information-theoretic optimum. Offered beside
# delta+varint as the alternative postings layout; l uses the
# integer-only identity floor(log2(u/n)) = bit_length(u // n) − 1, so
# the size accounting is exactly reproducible in BIGINT SQL.


def ef_split_l(universe: int, n: int) -> int:
    """The Elias-Fano lower-bit width (integer-only, no float log)."""
    if n <= 0:
        raise ValueError("ef_split_l: empty sequence")
    r = universe // n
    return max(0, int(r).bit_length() - 1) if r >= 1 else 0


def ef_encode(doc_ids: np.ndarray, universe: int) -> tuple[bytes, bytes, int]:
    """Encode a sorted ascending uint array from [0, universe) →
    (lower_buf, upper_buf, l). Lower l bits packed LSB-first; upper
    parts gap-unary (bit 1 at position high_i + i). All vectorized
    (packbits), no per-value Python."""
    v = np.ascontiguousarray(doc_ids, dtype=np.uint64)
    n = v.size
    if n == 0:
        raise ValueError("ef_encode: empty sequence")
    if int(v[-1]) >= universe:
        raise ValueError("ef_encode: value outside universe")
    l = ef_split_l(universe, n)
    if l:
        bits = ((v[:, None] >> np.arange(l, dtype=np.uint64)[None, :])
                & np.uint64(1)).astype(np.uint8).ravel()
        lower = np.packbits(bits, bitorder="little").tobytes()
    else:
        lower = b""
    highs = (v >> np.uint64(l)).astype(np.int64)
    ubits = np.zeros(int(n + highs[-1] + 1), dtype=np.uint8)
    ubits[highs + np.arange(n)] = 1
    upper = np.packbits(ubits, bitorder="little").tobytes()
    return lower, upper, l


def ef_decode(lower: bytes, upper: bytes, n: int, l: int) -> np.ndarray:
    """Inverse of :func:`ef_encode` → uint64 array of length n."""
    ubits = np.unpackbits(np.frombuffer(upper, dtype=np.uint8), bitorder="little")
    ones = np.flatnonzero(ubits)[:n]
    highs = (ones - np.arange(n)).astype(np.uint64)
    if l:
        bits = np.unpackbits(np.frombuffer(lower, dtype=np.uint8),
                             bitorder="little")[: n * l].reshape(n, l)
        lows = (bits.astype(np.uint64)
                << np.arange(l, dtype=np.uint64)[None, :]).sum(axis=1, dtype=np.uint64)
    else:
        lows = np.zeros(n, dtype=np.uint64)
    return (highs << np.uint64(l)) | lows
