"""The segment format: posting-partition assignment, the segment-builder
group function (the engine's wide shuffle, SURVEY.md §2.5 G3, §7.3), the
one writer of a partition record and the one reader of its segment.

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
sentinel stat rows into the partition meta, and hands the table to
:func:`publish_partition` — the one writer of the partition record
(segment file + ``meta.json``, the unit of resume) for build and every
maintenance path. Block maxima are computed by the reader at load time
against current global stats.

The reader sits beside the writer: :func:`read_partition` opens one
partition's segment (term-filtered, column-pruned), :func:`decode_segment`
and :func:`decode_positions_column` decode any encoded table in one
batched pass, and :func:`read_segments` is the Ray Dataset over every
completed partition. Maintenance rewrites go through :func:`lift_doc_ids`
(merge) and :func:`keep_postings` (compaction, pruning). No other module
opens a segment file or decodes its columns, except that
``IndexReader.load_postings`` opens its own (ROADMAP #2).
"""

from __future__ import annotations

import os
import tempfile
import time

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq

from hybrid_sanctions_search_engine_ray.config import EngineConfig
from hybrid_sanctions_search_engine_ray.functions.codec import (
    binary_parts,
    decode_positions,
    decode_rows,
    encode_positions,
    encode_rows,
    varint_counts,
)
from hybrid_sanctions_search_engine_ray.functions.hashing import factorize_exact, hash_string_array
from hybrid_sanctions_search_engine_ray.state.manifest import (
    atomic_write_json,
    completed_parts,
    head_crc32,
    segment_dir,
)

# name of a partition's posting segment file inside its segment_dir
SEGMENT_FILE = "postings.parquet"

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


def segment_schema(positional: bool) -> pa.Schema:
    return SEGMENT_SCHEMA_POS if positional else SEGMENT_SCHEMA


def segment_file(index_dir: str, part: int) -> str:
    return os.path.join(segment_dir(index_dir, part), SEGMENT_FILE)


# the partition-record keys publish_partition derives from the table;
# everything else in a meta.json is the writer's lineage
RECORD_KEYS = ("part", "n_terms", "n_rows", "n_postings", "bytes",
               "checksum_head_crc32", "hot_terms_present")


def publish_partition(index_dir: str, part: int, table: pa.Table,
                      hot_terms=(), **lineage) -> dict:
    """Publish one partition record and return its meta — the only
    writer of ``segments/part=K/{postings.parquet, meta.json}`` (build,
    compaction, merge, repartition, pruning).

    The segment is written to a tmp file in the same directory and
    renamed over ``postings.parquet``; the meta's counts, byte size,
    first-MiB crc32 and ``hot_terms_present`` are derived from ``table``,
    the caller's ``lineage`` keys are added, and ``meta.json`` lands
    LAST — its presence implies a complete segment."""
    sdir = segment_dir(index_dir, part)
    os.makedirs(sdir, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=sdir, suffix=".parquet.tmp")
    os.close(fd)
    # 4096 rows per row group: a partition holds a few hundred term rows
    # at the benchmark's scale, so it is one row group and the reader's
    # term filter prunes nothing. Kept so segment bytes stay unchanged.
    pq.write_table(table, tmp, row_group_size=4096)
    final = segment_file(index_dir, part)
    os.replace(tmp, final)
    terms = pc.unique(table["term"])
    # hot (salted) terms present here — the only terms that can span
    # partitions; recorded so the manifest's distinct-term count is
    # EXACT (exact_n_terms). Tested against the UNIQUE term set, never
    # the row-level term array — a row-level set() costs minutes at
    # 10^8-posting scale.
    hot = pa.array(sorted(hot_terms), terms.type)
    meta = {
        "part": part,
        "n_terms": len(terms),
        "n_rows": table.num_rows,
        "n_postings": int(pc.sum(table["n_docs"]).as_py() or 0),
        "bytes": os.path.getsize(final),
        "checksum_head_crc32": head_crc32(final),
        **lineage,
        "hot_terms_present": sorted(terms.filter(pc.is_in(terms, value_set=hot)).to_pylist()),
    }
    atomic_write_json(os.path.join(sdir, "meta.json"), meta)
    return meta


def read_partition(index_dir: str, part: int, terms=None, columns=None) -> pa.Table | None:
    """One partition's encoded segment rows, only those of ``terms`` when
    given and only ``columns`` when given; ``None`` when the partition
    has no segment file."""
    f = segment_file(index_dir, part)
    if not os.path.exists(f):
        return None
    if terms is None:
        return pq.read_table(f, columns=columns)
    return pads.dataset(f).to_table(filter=pads.field("term").isin(terms), columns=columns)


def decode_segment(tbl: pa.Table):
    """Decode an encoded segment table in one batched pass → flat
    ``(doc_ids, tfs, dls, n_docs)``: the postings of every row back to
    back in row order, row ``r`` holding ``n_docs[r]``. ``tfs``/``dls``
    are ``None`` when the table lacks that column; ``n_docs`` is the
    column when it was read, else counted from the docs bytes."""
    cols = tbl.column_names
    n = tbl["n_docs"].to_numpy() if "n_docs" in cols else varint_counts(tbl["docs"])
    d, tf, dl = decode_rows(tbl["docs"], tbl["tfs"] if "tfs" in cols else None,
                            tbl["dls"] if "dls" in cols else None, n)
    return d, tf, dl, n


def lift_doc_ids(tbl: pa.Table, offset: int) -> pa.Table:
    """``tbl`` with every doc id raised by ``offset`` (merge's move into a
    global id range): one decode and re-encode of the docs column, whose
    rows start at an absolute id, so only each row's first varint
    changes; every other column is untouched."""
    if not (tbl.num_rows and offset):
        return tbl
    d, _, _, n = decode_segment(tbl.select(["n_docs", "docs"]))
    docs, _, _ = encode_rows(d + np.uint64(offset), None, None, np.cumsum(n) - n)
    return tbl.set_column(tbl.schema.get_field_index("docs"), "docs", docs)


def decode_positions_column(tbl: pa.Table, tfs: np.ndarray):
    """The ``poss`` column of an encoded table decoded in one pass →
    ``(flat, offsets)``: posting ``i``'s in-document positions are
    ``flat[offsets[i]:offsets[i + 1]]`` (``tfs`` from
    :func:`decode_segment`; a posting holds tf positions)."""
    return decode_positions(binary_parts(tbl["poss"])[1], tfs)


def keep_postings(tbl: pa.Table, decoded, keep: np.ndarray, positional: bool) -> pa.Table:
    """``tbl`` re-encoded with only the postings ``keep`` marks (a mask
    over ``decoded``, its :func:`decode_segment`) in one ``encode_rows``
    call. Rows left empty are dropped, ``cf``/``max_tf`` are recounted,
    and a row that keeps every posting re-encodes to its original bytes."""
    d, t, dl, n = decoded
    kept = np.bincount(np.repeat(np.arange(tbl.num_rows), n)[keep], minlength=tbl.num_rows)
    rows = np.flatnonzero(kept)  # rows that still hold a posting
    if not rows.size:
        return tbl.schema.empty_table()
    n_k = kept[rows]
    starts = np.cumsum(n_k) - n_k
    tk = t[keep]
    docs, tfs, dls = encode_rows(d[keep], tk, dl[keep], starts)
    cols = {
        "term": tbl["term"].take(rows),
        "seg_idx": tbl["seg_idx"].take(rows),
        "n_docs": pa.array(n_k, pa.int64()),
        "cf": pa.array(np.add.reduceat(tk, starts).astype(np.int64), pa.int64()),
        "max_tf": pa.array(np.maximum.reduceat(tk, starts).astype(np.int64), pa.int32()),
        "docs": docs, "tfs": tfs, "dls": dls,
    }
    if positional:
        # positions stay re-encoded per row (no workload is bound by them)
        flat, _ = decode_positions_column(tbl, t)
        flat_k = flat[np.repeat(keep, t.astype(np.int64))]
        pos_bounds = np.concatenate(([0], np.cumsum(tk, dtype=np.int64)))
        cols["poss"] = pa.array(
            [encode_positions(flat_k[pos_bounds[s]:pos_bounds[s + c]], tk[s:s + c])
             for s, c in zip(starts.tolist(), n_k.tolist())],
            pa.binary(),
        )
    return pa.Table.from_arrays([cols[c] for c in tbl.column_names], schema=tbl.schema)


def read_segments(index_dir: str, columns=None):
    """The Ray Dataset of every completed partition's encoded rows (the
    partitions ``completed_parts`` lists), each row carrying its
    partition number in an int64 ``part`` column."""
    import ray.data as rd
    from ray.data.datasource import Partitioning

    files = [segment_file(index_dir, p) for p in sorted(completed_parts(index_dir))]
    if not files:
        return rd.from_items([])
    # the part number comes from the ``part=K`` directory name
    layout = Partitioning("hive", base_dir=os.path.join(index_dir, "segments"),
                          field_types={"part": int})
    return rd.read_parquet(files, columns=None if columns is None else [*columns, "part"],
                           partitioning=layout)


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
    """Encode and publish one term-partition. Returns a one-row frame
    holding its part number (the build's output dataset only marks the
    work done; the manifest reads the partition records back from disk)."""
    t0 = time.monotonic()
    part = int(group["part"].iloc[0])

    # fold sentinel stat rows (doc_id = -1) into this partition's meta —
    # the streaming path for exact corpus stats (N, Σdl)
    sent_mask = group["doc_id"].to_numpy() < 0
    n_docs_partial = int(group.loc[sent_mask, "tf"].sum()) if sent_mask.any() else 0
    tokens_partial = int(group.loc[sent_mask, "dl"].sum()) if sent_mask.any() else 0
    if sent_mask.any():
        group = group.loc[~sent_mask]

    positional = "pos" in group.columns
    # a partition that held only sentinel rows still publishes an (empty)
    # segment, so resume sees it as complete and its stats are kept
    table = (_encode_partition(group, cfg.max_postings_per_segment, positional)
             if len(group) else segment_schema(positional).empty_table())
    publish_partition(index_dir, part, table, hot_terms,
                      elapsed_s=round(time.monotonic() - t0, 3),
                      n_docs_partial=n_docs_partial, tokens_partial=tokens_partial,
                      input=input_path)
    return pd.DataFrame({"part": [part]})


def _encode_partition(group: pd.DataFrame, cap: int, positional: bool) -> pa.Table:
    """One partition's posting rows → its segment table."""
    # (term, doc_id) sort without row-level string comparisons: factorize,
    # rank the (small) unique-term set lexicographically, lexsort on codes
    # — ~2× faster than a pandas object-dtype sort at 500k+ rows/part
    raw_terms = group["term"].to_numpy()
    codes, uniques = factorize_exact(raw_terms)
    rank = np.empty(len(uniques), dtype=np.int64)
    rank[np.argsort(uniques)] = np.arange(len(uniques))
    order = np.lexsort((group["doc_id"].to_numpy(), rank[codes]))
    terms = raw_terms[order]
    doc_ids = group["doc_id"].to_numpy()[order].astype(np.int64)
    tfs = group["tf"].to_numpy()[order].astype(np.int64)
    dls = group["dl"].to_numpy()[order].astype(np.int64)

    # term runs, each split into sub-segments of at most ``cap``
    # postings; every sub-segment is one row
    run_starts = np.concatenate(([0], np.flatnonzero(terms[1:] != terms[:-1]) + 1))
    run_ends = np.append(run_starts[1:], len(terms))
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
    return pa.table(data)
