"""Stable, process-independent hashing helpers.

Python's builtin ``hash`` is salted per process (PYTHONHASHSEED) and is
therefore unusable as a shuffle key across Ray workers; everything here
is deterministic across processes, machines and runs — a hard
requirement for resumable, re-entrant index builds (SURVEY.md §7.4).
"""

from __future__ import annotations

import zlib

import numpy as np
import pyarrow as pa


def term_hash(term: str) -> int:
    """Stable 32-bit hash of a term (crc32 over utf-8)."""
    return zlib.crc32(term.encode("utf-8"))


def salted_partition(h, salt, num_partitions: int):
    """The partition of a hot term's postings in salt bucket ``salt``
    (term hash ``h``; ints or int64 arrays): the one placement rule that
    the writer (stages/postings.assign_partitions) and the reader
    (IndexReader._parts_for) share. A term's base partition is
    ``h % num_partitions``."""
    return (h + 1_000_003 * (1 + salt)) % num_partitions


def factorize_exact(values) -> tuple[np.ndarray, np.ndarray]:
    """NUL-exact string factorization: (codes, uniques) like
    ``pd.factorize(..., use_na_sentinel=False)`` but via Arrow
    ``dictionary_encode`` (length-prefixed strings). pandas' fast-path
    StringHashTable hashes object-dtype strings as C strings, so values
    that differ only in embedded/trailing NUL bytes (``''`` vs
    ``'\\x00'``) silently merge — fatal for any factorize that feeds a
    hash contract (DuckDB md5 parity, dedup signatures, shuffle keys).
    Nulls factorize as ``""`` (the convention every hash site here uses).
    """
    import pyarrow.compute as pc

    if isinstance(values, (pa.Array, pa.ChunkedArray)):
        arr = values
    else:
        arr = pa.array(np.asarray(values, dtype=object), type=pa.string())
    if arr.null_count:
        arr = pc.fill_null(arr, "")
    enc = arr.dictionary_encode()
    if isinstance(enc, pa.ChunkedArray):
        enc = enc.combine_chunks()
    codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    uniques = np.asarray(enc.dictionary.to_pylist(), dtype=object)
    return codes, uniques


def hash_string_array(arr: pa.Array | list[str]) -> np.ndarray:
    """crc32 per string, de-duplicated via factorization so each distinct
    string is hashed once per batch (cheap even for high-cardinality
    batches; the vocabulary per batch is far smaller than the row count)."""
    codes, uniques = factorize_exact(arr)
    uh = np.fromiter(
        (zlib.crc32(u.encode("utf-8")) if isinstance(u, str) else 0 for u in uniques),
        dtype=np.uint32,
        count=len(uniques),
    )
    return uh[codes]


def content_hash_array(arr: pa.Array | pa.ChunkedArray) -> np.ndarray:
    """64-bit content hash per string (for exact dedup): crc32 of the text
    and crc32 of the reversed text combined — stable and cheap. Collision
    probability at 64 bits is negligible for dedup-grouping purposes; the
    dedup operator compares group members only by this key, matching the
    reference's id-keyed dedup semantics
    (reference: sanctions_data_loader.py:219-275)."""
    s = arr.to_pandas()
    out = np.empty(len(s), dtype=np.uint64)
    for i, t in enumerate(s):
        bts = t.encode("utf-8") if isinstance(t, str) else b""
        out[i] = (zlib.crc32(bts) << 32) | zlib.crc32(bts[::-1])
    return out
