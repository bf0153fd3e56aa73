"""Posting-partition assignment and the segment-builder group function —
the engine's wide shuffle (SURVEY.md §2.5 G3, §7.3).

Partitioning: ``part = crc32(term) % P``. Terms flagged hot by the
sampled pre-pass (df > hot_term_df_ratio·N) are salted across
``S`` sub-partitions by ``(doc_id >> 12) % S`` so no single partition
carries a stop-word's entire posting list (SURVEY.md §4 "skew /
stragglers"); their sub-segments are re-merged at query time (the scorer
treats sub-segments as additional WAND blocks, which preserves score
identity).

The segment builder is ``groupby("part").map_groups``: one task per
partition sorts its rows by (term, doc_id), delta+varint-encodes the
whole partition in one batched pass (``codec.encode_rows``; each term
run is split into sub-segment rows at ``max_postings_per_segment``), folds
sentinel stat rows into the partition meta, and writes
``segments/part=K/postings.parquet`` atomically followed by a
``meta.json`` lineage record — the unit of resume. Block maxima are
computed by the reader at load time against current global stats.
"""

from __future__ import annotations

import os
import tempfile
import time
import zlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from hybrid_sanctions_search_engine_ray.config import EngineConfig
from hybrid_sanctions_search_engine_ray.functions.codec import encode_rows
from hybrid_sanctions_search_engine_ray.functions.hashing import hash_string_array
from hybrid_sanctions_search_engine_ray.state.manifest import atomic_write_json, segment_dir

SEGMENT_SCHEMA = pa.schema(
    [
        ("term", pa.string()),
        ("seg_idx", pa.int32()),       # sub-segment ordinal within (term, part)
        ("n_docs", pa.int64()),
        ("cf", pa.int64()),           # Σ tf in this sub-segment (dictionary source)
        ("max_tf", pa.int32()),
        ("docs", pa.binary()),         # delta+varint doc ids
        ("tfs", pa.binary()),          # varint term frequencies
        ("dls", pa.binary()),          # varint doc lengths
    ]
)
# positional variant: + per-doc in-document token positions, delta+varint
# within each doc; position counts per doc == tf, so no length table
SEGMENT_SCHEMA_POS = SEGMENT_SCHEMA.append(pa.field("poss", pa.binary()))
# NOTE: per-block maxima are NOT stored: they depend on the CURRENT global
# avgdl, so the reader computes them at posting-load time (functions/bm25
# TermPosting) — which is also what makes federated scoring exact.


def write_segment(sdir: str, table: pa.Table) -> tuple[int, int]:
    """Atomically publish ``table`` as ``sdir/postings.parquet`` (tmp file
    in the same directory, then rename) → ``(bytes, checksum)``, where
    the checksum is the crc32 of the file's first MiB — a cheap integrity
    fingerprint that snapshot/restore verify. Every segment writer
    (build, compaction, merge, repartition, pruning) goes through here."""
    fd, tmp = tempfile.mkstemp(dir=sdir, suffix=".parquet.tmp")
    os.close(fd)
    # 4096 rows per row group: a partition holds a few hundred term rows
    # at the benchmark's scale, so it is one row group and the reader's
    # term filter prunes nothing. Kept so segment bytes stay unchanged.
    pq.write_table(table, tmp, row_group_size=4096)
    final = os.path.join(sdir, "postings.parquet")
    os.replace(tmp, final)
    with open(final, "rb") as f:
        checksum = zlib.crc32(f.read(1 << 20))
    return os.path.getsize(final), checksum


def assign_partitions(batch: pa.Table, cfg: EngineConfig, hot_terms: frozenset[str]) -> pa.Table:
    """Add the shuffle key ``part`` to posting rows (vectorized crc32 with
    per-batch term dedup; hot terms doc-salted)."""
    h = hash_string_array(batch["term"]).astype(np.int64)
    part = h % cfg.num_partitions
    if hot_terms:
        terms = batch["term"].to_pandas()
        hot_mask = terms.isin(hot_terms).to_numpy()
        if hot_mask.any():
            doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False)
            salt = (doc_ids[hot_mask] >> cfg.hot_term_salt_shift) % cfg.hot_term_salt_buckets
            part[hot_mask] = (h[hot_mask] + 1_000_003 * (1 + salt)) % cfg.num_partitions
    return batch.append_column("part", pa.array(part.astype(np.int32)))


def pack_postings_by_part(batch: pa.Table) -> pa.Table:
    """Map-side shuffle combine: split a posting batch by ``part`` and
    serialize each slice to one Arrow-IPC payload row ``(part, payload)``.

    The wide ``groupby(part)`` then moves ~(tasks × partitions) binary
    blobs instead of one row per posting — per-row shuffle overhead
    (hashing, sort comparisons, string copies) collapses by ~3 orders of
    magnitude while the byte volume stays the same. This is the
    map-side-combine pattern for Ray Data shuffles (ray_guide
    "Aggregation at scale")."""
    if batch.num_rows == 0:
        # the (starts, ends) walk below would index sp[0] on an empty
        # array (code-review r05) — return an empty payload table
        return pa.table({"part": pa.array([], pa.int32()),
                         "payload": pa.array([], pa.binary())})
    part = batch["part"].to_numpy(zero_copy_only=False)
    order = np.argsort(part, kind="stable")
    sorted_tbl = batch.take(pa.array(order))
    sp = part[order]
    bounds = np.flatnonzero(sp[1:] != sp[:-1]) + 1
    starts = np.concatenate(([0], bounds))
    ends = np.concatenate((bounds, [len(sp)]))
    parts_out, payloads = [], []
    for s, e in zip(starts, ends):
        sl = sorted_tbl.slice(s, e - s)
        sink = pa.BufferOutputStream()
        with pa.ipc.new_stream(sink, sl.schema) as w:
            w.write_table(sl)
        parts_out.append(int(sp[s]))
        payloads.append(sink.getvalue().to_pybytes())
    return pa.table(
        {"part": pa.array(parts_out, pa.int32()), "payload": pa.array(payloads, pa.binary())}
    )


def _unpack_group(group: pd.DataFrame) -> pd.DataFrame:
    tables = [pa.ipc.open_stream(p).read_all() for p in group["payload"]]
    return pa.concat_tables(tables).to_pandas()


def build_segment_packed(
    group: pd.DataFrame,
    index_dir: str,
    cfg: EngineConfig,
    input_path: str,
    hot_terms: frozenset[str] = frozenset(),
) -> pd.DataFrame:
    """Reduce side of the packed shuffle: deserialize one partition's
    payloads and delegate to :func:`build_segment`."""
    return build_segment(_unpack_group(group), index_dir, cfg, input_path, hot_terms)


def build_segment(
    group: pd.DataFrame,
    index_dir: str,
    cfg: EngineConfig,
    input_path: str,
    hot_terms: frozenset[str] = frozenset(),
) -> pd.DataFrame:
    """Encode and atomically write one term-partition. Returns a one-row
    lineage DataFrame (the build pipeline's output dataset is the
    lineage table, not the bulk data — which lives on disk)."""
    t0 = time.monotonic()
    part = int(group["part"].iloc[0])
    sdir = segment_dir(index_dir, part)
    os.makedirs(sdir, exist_ok=True)

    # fold sentinel stat rows (doc_id = -1) into this partition's meta —
    # the streaming path for exact corpus stats (N, Σdl)
    sent_mask = group["doc_id"].to_numpy() < 0
    n_docs_partial = int(group.loc[sent_mask, "tf"].sum()) if sent_mask.any() else 0
    tokens_partial = int(group.loc[sent_mask, "dl"].sum()) if sent_mask.any() else 0
    if sent_mask.any():
        group = group.loc[~sent_mask]

    positional = "pos" in group.columns
    if len(group) == 0:
        # partition held only sentinel rows: publish an empty segment so
        # resume sees the partition as complete, carry the stats
        nbytes, _ = write_segment(
            sdir, (SEGMENT_SCHEMA_POS if positional else SEGMENT_SCHEMA).empty_table())
        atomic_write_json(
            os.path.join(sdir, "meta.json"),
            {
                "part": part, "n_terms": 0, "n_rows": 0, "n_postings": 0,
                "bytes": nbytes,
                "checksum_head_crc32": 0,
                "elapsed_s": round(time.monotonic() - t0, 3),
                "n_docs_partial": n_docs_partial,
                "tokens_partial": tokens_partial,
                "input": input_path,
                "hot_terms_present": [],
            },
        )
        return pd.DataFrame(
            {
                "part": [part], "n_terms": [0], "n_rows": [0], "n_postings": [0],
                "n_docs_partial": [n_docs_partial], "tokens_partial": [tokens_partial],
                "elapsed_s": [round(time.monotonic() - t0, 3)],
                "hot_terms_present": ["[]"],
            }
        )

    # (term, doc_id) sort without row-level string comparisons: factorize,
    # rank the (small) unique-term set lexicographically, lexsort on codes
    # — ~2× faster than a pandas object-dtype sort at 500k+ rows/part
    raw_terms = group["term"].to_numpy()
    from hybrid_sanctions_search_engine_ray.functions.hashing import factorize_exact

    codes, uniques = factorize_exact(raw_terms)
    rank = np.empty(len(uniques), dtype=np.int64)
    rank[np.argsort(uniques)] = np.arange(len(uniques))
    order = np.lexsort((group["doc_id"].to_numpy(), rank[codes]))
    terms = raw_terms[order]
    doc_ids = group["doc_id"].to_numpy()[order].astype(np.int64)
    tfs = group["tf"].to_numpy()[order].astype(np.int64)
    dls = group["dl"].to_numpy()[order].astype(np.int64)

    # term runs, each split into sub-segments of at most
    # max_postings_per_segment postings; every sub-segment is one row
    run_starts = np.concatenate(([0], np.flatnonzero(terms[1:] != terms[:-1]) + 1))
    run_ends = np.append(run_starts[1:], len(terms))
    cap = cfg.max_postings_per_segment
    n_segs = (run_ends - run_starts + cap - 1) // cap
    seg_idx = np.arange(int(n_segs.sum())) - np.repeat(np.cumsum(n_segs) - n_segs, n_segs)
    row_starts = np.repeat(run_starts, n_segs) + seg_idx * cap
    n_docs = np.minimum(np.repeat(run_ends, n_segs) - row_starts, cap)
    docs_col, tfs_col, dls_col = encode_rows(doc_ids, tfs, dls, row_starts)
    data = {
        "term": pa.array(terms[row_starts], pa.string()),
        "seg_idx": pa.array(seg_idx, pa.int32()),
        "n_docs": pa.array(n_docs, pa.int64()),
        "cf": pa.array(np.add.reduceat(tfs, row_starts), pa.int64()),
        "max_tf": pa.array(np.maximum.reduceat(tfs, row_starts), pa.int32()),
        "docs": docs_col,
        "tfs": tfs_col,
        "dls": dls_col,
    }
    if positional:
        # positions stay coded per row (no workload is bound by them)
        from hybrid_sanctions_search_engine_ray.functions.codec import encode_positions

        pos_arrays = group["pos"].to_numpy()[order]
        data["poss"] = pa.array(
            [
                encode_positions(
                    np.concatenate([np.asarray(p, dtype=np.int64) for p in pos_arrays[s:s + n]]),
                    tfs[s:s + n],
                )
                for s, n in zip(row_starts.tolist(), n_docs.tolist())
            ],
            pa.binary(),
        )
    table = pa.table(data)
    nbytes, checksum = write_segment(sdir, table)
    # hot (salted) terms present here — the only terms that can span
    # partitions; recorded so the manifest's distinct-term count is
    # EXACT (same correction rule as merge_indexes / repartition_index).
    # Membership is checked against the (already-computed) UNIQUE term
    # set, never the row-level term array — a row-level set() here costs
    # minutes at 10^8-posting scale.
    hot_present = (
        sorted(hot_terms.intersection(uniques.tolist())) if hot_terms else []
    )
    atomic_write_json(
        os.path.join(sdir, "meta.json"),
        {
            "part": part,
            "n_terms": int(len(run_starts)),
            "n_rows": table.num_rows,
            "n_postings": len(terms),
            "bytes": nbytes,
            "checksum_head_crc32": checksum,
            "elapsed_s": round(time.monotonic() - t0, 3),
            "n_docs_partial": n_docs_partial,
            "tokens_partial": tokens_partial,
            "input": input_path,
            "hot_terms_present": hot_present,
        },
    )
    import json as _json

    return pd.DataFrame(
        {
            "part": [part],
            "n_terms": [len(run_starts)],
            "n_rows": [table.num_rows],
            "n_postings": [len(terms)],
            "n_docs_partial": [n_docs_partial],
            "tokens_partial": [tokens_partial],
            "elapsed_s": [round(time.monotonic() - t0, 3)],
            "hot_terms_present": [_json.dumps(hot_present)],
        }
    )
