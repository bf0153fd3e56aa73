"""Index maintenance: tombstone deletes and physical compaction.

Lucene/Elasticsearch delete semantics (the reference deletes by
reindex + atomic alias swap; ES itself tombstones and purges at segment
merge — reference: src/ai_service/layers/search/elasticsearch_adapters.py
index-swap flow, SURVEY.md §2.1 S8):

* :func:`delete_docs` — record doc ids in ``tombstones.json`` (atomic
  write under an ``fcntl`` file lock, so concurrent deleters compose).
  Queries exclude tombstoned docs immediately: ``IndexReader.live``
  (pipelines/query.py) is the one visibility rule every result path
  goes through. Corpus statistics (N, avgdl, df/idf) intentionally
  still count them — exactly Lucene's deleted-docs-until-merge
  behavior, which keeps scoring stable between maintenance windows.
  The JSON set is fine for realistic delete volumes (tombstones ≪
  corpus); a parquet set with the same semantics is the upgrade path
  past ~10⁷ pending deletes.
* :func:`compact_index` — the "merge". Crash-safe three-phase protocol:
  (1) a read-only scan recovers each doomed doc's length from its
  posting rows (every row carries ``dl`` — no corpus re-read, no text
  needed) and records the EXACT planned stats correction in
  ``compaction.json`` (atomic write, BEFORE anything is destroyed);
  (2) one Ray task per partition republishes its segment without the
  tombstoned postings (``publish_partition``: atomic tmp+rename,
  meta.json recounted and written last — the same crash-safety contract
  as the build; partitions with no affected postings are left
  untouched); (3) the manifest re-reads the partition records, applies
  the recorded correction, and the tombstone + plan files are removed.
  A crash at any point re-runs safely: the plan file pins the
  correction computed while the evidence still existed, and the
  partition rewrites are idempotent for a fixed tombstone set.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
from typing import Iterable

import numpy as np
import pyarrow as pa

import ray

from hybrid_sanctions_search_engine_ray.stages.postings import (
    RECORD_KEYS,
    decode_segment,
    keep_postings,
    lift_doc_ids,
    publish_partition,
    read_partition,
    read_segments,
    segment_file,
    segment_schema,
)
from hybrid_sanctions_search_engine_ray.state.manifest import (
    ANALYZER,
    LAYOUT,
    MANIFEST_VERSION,
    SCORING,
    IndexManifest,
    atomic_write_json,
    completed_parts,
    docmap_columns,
    exact_n_terms,
    head_crc32,
    identity_diff,
    part_meta,
    part_summaries,
    publish_dir,
    segment_dir,
)

_TOMBSTONE_FILE = "tombstones.json"
_PLAN_FILE = "compaction.json"


def tombstone_mask(tomb: np.ndarray, doc_ids: np.ndarray) -> np.ndarray:
    """Boolean mask of ``doc_ids`` present in the SORTED ``tomb`` array —
    the one membership test shared by the reader (``IndexReader.live``)
    and the compactor, so they can never disagree."""
    if tomb.size == 0 or doc_ids.size == 0:
        return np.zeros(doc_ids.size, dtype=bool)
    doc_ids = doc_ids.astype(np.int64, copy=False)  # posting decode yields uint64
    pos = np.searchsorted(tomb, doc_ids)
    return (pos < tomb.size) & (tomb[np.minimum(pos, tomb.size - 1)] == doc_ids)


def load_tombstones(index_dir: str) -> np.ndarray:
    """Sorted int64 array of tombstoned doc ids (empty if none)."""
    p = os.path.join(index_dir, _TOMBSTONE_FILE)
    if not os.path.exists(p):
        return np.empty(0, dtype=np.int64)
    with open(p) as f:
        ids = json.load(f)["doc_ids"]
    return np.array(sorted(set(ids)), dtype=np.int64)


def delete_docs(index_dir: str, doc_ids: Iterable[int]) -> int:
    """Tombstone doc ids (idempotent union; fcntl-locked read-modify-write
    so concurrent deleters don't lose each other's ids). Returns the
    total pending tombstone count. Readers opened AFTER this call
    exclude the docs."""
    import fcntl

    lock_path = os.path.join(index_dir, ".tombstones.lock")
    with open(lock_path, "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        current = set(load_tombstones(index_dir).tolist())
        current.update(int(d) for d in doc_ids)
        atomic_write_json(
            os.path.join(index_dir, _TOMBSTONE_FILE), {"doc_ids": sorted(current)}
        )
    return len(current)


@ray.remote
def _scan_part_removed(index_dir: str, part: int, tomb: np.ndarray) -> dict:
    """Read-only: {doc_id: dl} of tombstoned postings in this partition
    (decodes only the docs/dls columns, never rewrites anything)."""
    tbl = read_partition(index_dir, part, columns=["n_docs", "docs", "dls"])
    if tbl is None:
        return {}
    d, _, l, _ = decode_segment(tbl)  # noqa: E741
    hit = tombstone_mask(tomb, d)
    return dict(zip(d[hit].tolist(), l[hit].tolist()))


@ray.remote
def _compact_part(index_dir: str, part: int, tomb: np.ndarray, positional: bool) -> int:
    """Rewrite one partition's segment without tombstoned postings: one
    decode and one tombstone test for the whole partition, then
    :func:`keep_postings`. Partitions with no tombstoned posting are not
    rewritten; idempotent for a fixed tombstone set. The meta is
    recounted from the kept rows — ``hot_terms_present`` shrinks to the
    hot terms that kept a posting — and its lineage keys pass through
    unchanged."""
    tbl = read_partition(index_dir, part)
    if tbl is None:
        return part
    decoded = decode_segment(tbl)
    keep = ~tombstone_mask(tomb, decoded[0])
    if keep.all():
        return part
    meta = part_meta(index_dir, part)
    publish_partition(index_dir, part, keep_postings(tbl, decoded, keep, positional),
                      meta.get("hot_terms_present", ()),
                      **{k: v for k, v in meta.items() if k not in RECORD_KEYS})
    return part


def _run_plan(index_dir: str, m: IndexManifest, plan: dict) -> IndexManifest:
    tomb = np.array(sorted(plan["tombstones"]), dtype=np.int64)
    tomb_ref = ray.put(tomb)
    ray.get([_compact_part.remote(index_dir, int(p), tomb_ref, m.store_positions)
             for p in m.parts])
    m.parts = part_summaries(index_dir, m.num_partitions)
    # ABSOLUTE post-compaction stats (idempotent: a crash between the
    # manifest save and the plan-file removal re-runs the plan on the
    # already-corrected manifest, and assignment cannot double-subtract
    # the way the original delta form did — code-review r05 finding).
    # Legacy delta plans (no *_after keys) keep the old arithmetic.
    if "n_docs_after" in plan:
        m.n_docs = int(plan["n_docs_after"])
        m.total_tokens = int(plan["tokens_after"])
    else:
        m.n_docs -= int(plan["n_docs_removed"])
        m.total_tokens -= int(plan["tokens_removed"])
    m.avgdl = (m.total_tokens / m.n_docs) if m.n_docs else 0.0
    m.n_terms = exact_n_terms(m.parts)
    m.save(index_dir)
    # optional vocabulary artifact: regenerate so df/cf reflect the purge
    if os.path.exists(os.path.join(index_dir, "dictionary.parquet")):
        from hybrid_sanctions_search_engine_ray.pipelines.index_build import write_dictionary

        write_dictionary(index_dir)
    os.remove(os.path.join(index_dir, _PLAN_FILE))
    # drop exactly the tombstones this plan covered; keep ones added since
    remaining = sorted(set(load_tombstones(index_dir).tolist()) - set(plan["tombstones"]))
    tpath = os.path.join(index_dir, _TOMBSTONE_FILE)
    if remaining:
        atomic_write_json(tpath, {"doc_ids": remaining})
    elif os.path.exists(tpath):
        os.remove(tpath)
    return m


def compact_index(index_dir: str) -> IndexManifest:
    """Physically purge tombstoned docs from every segment and correct
    the manifest's corpus statistics exactly. Crash-safe (see module
    docstring); resumes a half-finished compaction before handling any
    tombstones added since. No-op when nothing is pending."""
    m = IndexManifest.load(index_dir)
    # open point-in-time snapshots freeze a tombstone set but share the
    # SEGMENTS — physically purging would silently remove docs a PIT
    # reader is promised to keep seeing (code-review r05 finding).
    # Refuse loudly; close PITs (or copy the index) before compacting.
    pit_dir = os.path.join(index_dir, _PIT_DIR)
    if os.path.isdir(pit_dir):
        open_pits = sorted(f[:-5] for f in os.listdir(pit_dir)
                           if f.startswith("pit-") and f.endswith(".json"))
        if open_pits:
            raise ValueError(
                "compact_index: open point-in-time snapshots would lose "
                f"purged docs: {open_pits} — close them first "
                "(close_point_in_time)")
    plan_path = os.path.join(index_dir, _PLAN_FILE)
    if os.path.exists(plan_path):
        with open(plan_path) as f:
            m = _run_plan(index_dir, m, json.load(f))
    tomb = load_tombstones(index_dir)
    if tomb.size == 0:
        return m
    # phase 1: read-only evidence scan (dl of every doomed doc), then pin
    # the exact correction BEFORE any segment is rewritten
    tomb_ref = ray.put(tomb)
    parts = sorted(int(k) for k in m.parts)
    removed: dict[int, int] = {}
    for r in ray.get([_scan_part_removed.remote(index_dir, p, tomb_ref) for p in parts]):
        removed.update(r)  # same doc across parts carries the same dl
    plan = {
        "tombstones": [int(x) for x in tomb.tolist()],
        "n_docs_removed": len(removed),
        "tokens_removed": int(sum(removed.values())),
        # absolute targets — what _run_plan assigns (idempotent re-run)
        "n_docs_after": int(m.n_docs - len(removed)),
        "tokens_after": int(m.total_tokens - sum(removed.values())),
    }
    atomic_write_json(plan_path, plan)
    return _run_plan(index_dir, m, plan)


# --- physical index merge -----------------------------------------------


@ray.remote
def _merge_part(out_dir: str, part: int, srcs: list[tuple[str, int]],
                positional: bool, hot_terms: list[str]) -> int:
    """Merge one term-partition across source indexes into ``out_dir``.

    Each source is lifted into its global doc-id range by
    ``lift_doc_ids`` (tfs/dls/poss blobs are byte-copied untouched;
    positions are doc-internal). Published with
    ``publish_partition`` — the same resume contract as build; the
    ``input`` lineage key names the sources for the resume check.
    """
    import time

    t0 = time.monotonic()
    tables = []
    for src_dir, offset in srcs:
        tbl = read_partition(src_dir, part)
        if tbl is not None and tbl.num_rows:
            tables.append(lift_doc_ids(tbl, offset))

    if tables:
        # renumber seg_idx per term in source order (sources are appended
        # in ascending doc-id range, so per-term sub-segment order stays
        # doc-id-monotonic — the reader's stable re-sort then never moves
        # bytes between sub-segments)
        df = pa.concat_tables(tables, promote_options="default").to_pandas()
        df["seg_idx"] = df.groupby("term", sort=False).cumcount().astype(np.int32)
        merged = pa.Table.from_pandas(df, preserve_index=False)
    else:
        merged = segment_schema(positional).empty_table()
    publish_partition(out_dir, part, merged, hot_terms,
                      elapsed_s=round(time.monotonic() - t0, 3),
                      input=";".join(d for d, _ in srcs))
    return part


def merge_indexes(index_dirs: list[str], out_dir: str, resume: bool = False) -> IndexManifest:
    """Physically merge complete indexes into ONE new index at
    ``out_dir`` — the Lucene segment-merge analog across whole indexes
    (reference: ES force-merge / the index-swap consolidation flow,
    SURVEY.md §2.1 S8). Query results over the merged index are exactly
    identical to ``FederatedReader(index_dirs)`` (tests/test_merge.py):
    doc ids are lifted by cumulative docmap sizes, df/N/avgdl become the
    global values, and factors are recomputed at read time from the
    untouched (tf, dl) payloads.

    Requirements: identical index identity across sources (the SCORING,
    ANALYZER and LAYOUT groups of state/manifest.py), every docmap
    storing the first source's columns (a later source's extra columns
    are dropped), and no pending tombstones (run :func:`compact_index`
    first — merge does not resurrect Lucene's purge-on-merge here
    because the compactor already owns that logic with crash-safe stats
    correction).

    One Ray task per partition (the natural parallel unit); resumable:
    with ``resume=True`` finished partitions (meta.json present) are
    skipped, manifest written last.
    """
    import pyarrow.dataset as pads

    import ray.data as rd

    if len(index_dirs) < 2:
        raise ValueError("need at least two indexes to merge")
    ms = [IndexManifest.load(d) for d in index_dirs]
    for m in ms:
        if m.status != "complete":
            raise ValueError("all source indexes must be complete")
    m0 = ms[0]
    for d, m in zip(index_dirs[1:], ms[1:]):
        diffs = identity_diff(m0, m, SCORING + ANALYZER + LAYOUT, labels=("first", "source"))
        if diffs:
            raise ValueError(f"source indexes disagree on scoring/layout parameters ({d}): "
                             + "; ".join(diffs))
    for d in index_dirs:
        if load_tombstones(d).size:
            raise ValueError(f"{d} has pending tombstones; compact_index() it before merging")

    # the merged docmap stores the first source's columns: a delta built
    # through the checkpoint path carries ``text`` that a text-less base
    # lacks, and drops it here; a source MISSING a column is refused
    docmap_cols = docmap_columns(index_dirs[0])
    if any(set(docmap_cols) - set(docmap_columns(d)) for d in index_dirs[1:]):
        raise ValueError("source docmaps disagree on stored columns (store_text mismatch)")

    sizes = [pads.dataset(os.path.join(d, "docmap.parquet")).count_rows() for d in index_dirs]
    offsets = np.concatenate(([0], np.cumsum(sizes[:-1]))).astype(np.int64)
    srcs = [(d, int(o)) for d, o in zip(index_dirs, offsets)]

    n_docs = sum(m.n_docs for m in ms)
    total_tokens = sum(m.total_tokens for m in ms)
    out = dataclasses.replace(
        m0, version=MANIFEST_VERSION, status="building", parts={},
        n_docs=n_docs, total_tokens=total_tokens,
        avgdl=total_tokens / n_docs if n_docs else 0.0,
        hot_terms=sorted({t for m in ms for t in m.hot_terms}),
        input_path=";".join(index_dirs),
    )
    os.makedirs(out_dir, exist_ok=True)

    done = {}
    if resume:
        done = completed_parts(out_dir)
        # a meta left by a DIFFERENT merge (other sources) must not be
        # incorporated — its postings carry the wrong doc-id offsets
        # (code-review r05 finding); re-merge those partitions.
        expected_input = ";".join(d for d, _ in srcs)
        done = {p: meta for p, meta in done.items()
                if meta.get("input") == expected_input}
    todo = [p for p in range(m0.num_partitions) if p not in done]
    ray.get([_merge_part.remote(out_dir, p, srcs, m0.store_positions, out.hot_terms)
             for p in todo])
    out.parts = part_summaries(out_dir, m0.num_partitions)
    # a non-hot term has the same hash placement in every source, so
    # only hot terms span partitions (meta.json lists them for fresh AND
    # resumed parts alike)
    out.n_terms = exact_n_terms(out.parts)

    # docmap: stream each source's rows with its offset into the merged
    # docmap directory (never materialized), published in one rename — a
    # crash mid-merge can neither leave a partial dir a resume would
    # trust nor duplicate rows on a fresh re-run
    def write_docmap(tmp: str) -> None:
        for d, off in srcs:
            ds = rd.read_parquet(os.path.join(d, "docmap.parquet"), columns=docmap_cols)
            if off:
                ds = ds.map_batches(
                    lambda b, _off=off: b.set_column(
                        b.schema.get_field_index("doc_id"),
                        "doc_id",
                        pa.compute.add(b["doc_id"], _off),
                    ),
                    batch_format="pyarrow",
                )
            ds.write_parquet(tmp)

    dm_out = os.path.join(out_dir, "docmap.parquet")
    if not (resume and os.path.isdir(dm_out)):
        publish_dir(dm_out, write_docmap)

    out.status = "complete"
    out.save(out_dir)
    return out


def _repart_write_group(g, out_dir: str, positional: bool, hot_terms: list[str],
                        layout: dict) -> "pd.DataFrame":
    """Write one NEW term-partition from re-bucketed segment rows.

    Rows arrive with their (old_part, seg_idx) provenance; they are
    ordered by (term, old_part, seg_idx) and seg_idx renumbered per term
    — the reader re-sorts decoded doc ids anyway (stable argsort in
    load_postings), so any deterministic sub-segment order is
    query-identical. Published with ``publish_partition`` (build's resume
    contract); if a meta already exists the partition is complete from a
    previous run of the same ``layout`` and is kept as-is (resume)."""
    import time

    import pandas as pd

    t0 = time.monotonic()
    part = int(g["new_part"].iloc[0])
    meta = part_meta(out_dir, part)
    if meta:
        # resume is only valid for the SAME layout and source — a stale
        # meta from a different repartition run would silently drop this
        # group's terms (the rows would never be written)
        if meta.get("layout") != layout:
            raise ValueError(
                f"{segment_dir(out_dir, part)}/meta.json is from a different repartition "
                "run (layout/source mismatch) — use a fresh --out directory"
            )
        return pd.DataFrame({"part": [part]})
    g = g.sort_values(["term", "old_part", "seg_idx"], kind="mergesort").reset_index(drop=True)
    g["seg_idx"] = g.groupby("term", sort=False).cumcount().astype(np.int32)
    schema = segment_schema(positional)
    tbl = pa.Table.from_pandas(g[schema.names], preserve_index=False).cast(schema)
    publish_partition(out_dir, part, tbl, hot_terms,
                      elapsed_s=round(time.monotonic() - t0, 3),
                      input="repartition", layout=layout)
    return pd.DataFrame({"part": [part]})


def repartition_index(index_dir: str, out_dir: str, new_partitions: int) -> IndexManifest:
    """Resize an index's term-partition layout — the ES shrink/split API
    analog (and the cluster-resize move: partition count should track
    core count, config.py num_partitions): re-bucket every ENCODED
    posting row by ``crc32(term) % new_partitions`` without touching the
    corpus or re-tokenizing anything.

    Placement stays query-identical because every row (hot/salted terms
    included) lands in its term's BASE partition under the new layout,
    and the reader probes the base partition for every term
    (IndexReader._parts_for always includes ``hash % P``); decoded
    sub-segments are doc-id re-sorted at load time, so sub-segment
    renumbering is invisible to scores.

    Cost shape: ONE all-to-all over the segment bytes (≈ index size,
    an order of magnitude under corpus bytes) via groupby(new_part);
    the docmap streams through unchanged; one Ray Data job, resumable
    per partition (meta.json presence) and for the docmap (its presence).

    Trade-off: a hot (salted) term's sub-segments COLOCATE in its base
    partition afterwards — query-side pruning actually improves (one
    file probed instead of base+salts), but the build-time salting
    spread is gone; a rebuild is the way to re-salt for a new layout.
    """
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.functions.hashing import hash_string_array

    m = IndexManifest.load(index_dir)
    if m.status != "complete":
        raise ValueError("source index must be complete")
    if load_tombstones(index_dir).size:
        raise ValueError("source has pending tombstones; compact_index() first")
    if new_partitions < 1:
        raise ValueError("new_partitions must be >= 1")

    def bucket(b: pa.Table) -> pa.Table:
        new_part = hash_string_array(b["term"]).astype(np.int64) % new_partitions
        return (b.rename_columns(["old_part" if c == "part" else c for c in b.column_names])
                .append_column("new_part", pa.array(new_part, pa.int64())))

    os.makedirs(out_dir, exist_ok=True)
    layout = {"num_partitions": new_partitions, "source": index_dir}
    written = set(
        read_segments(index_dir).map_batches(bucket, batch_format="pyarrow")
        .groupby("new_part")
        .map_groups(
            lambda g: _repart_write_group(g, out_dir, m.store_positions, m.hot_terms, layout),
            batch_format="pandas",
        )
        .to_pandas()["part"]
    )
    # partitions no term hashed to get an explicit empty segment (resume
    # and lineage treat every partition uniformly); republished on every
    # run, so a re-run never trusts a half-written one
    for p in set(range(new_partitions)) - written:
        publish_partition(out_dir, p, segment_schema(m.store_positions).empty_table(),
                          elapsed_s=0.0, input="repartition", layout=layout)

    parts = part_summaries(out_dir, new_partitions)
    out = dataclasses.replace(
        m, version=MANIFEST_VERSION, status="building", parts=parts,
        n_terms=exact_n_terms(parts), hot_terms=list(m.hot_terms),
        num_partitions=new_partitions, input_path=index_dir,
    )

    dm_out = os.path.join(out_dir, "docmap.parquet")
    if not os.path.isdir(dm_out):
        publish_dir(dm_out, rd.read_parquet(os.path.join(index_dir, "docmap.parquet")).write_parquet)

    out.status = "complete"
    out.save(out_dir)
    return out


def _copy_verified_parts(src_dir: str, dst_dir: str, num_partitions: int,
                         corrupt: str) -> list[int]:
    """Copy each partition's segment and meta.json (meta last) from
    ``src_dir`` to ``dst_dir``, first checking the segment's first-MiB
    crc32 against its meta. A checksum of 0 (empty partitions of older
    indexes) or none is exempt. ``corrupt`` is the refusal message,
    formatted with the partition as ``p``. Returns the copied parts."""
    copied = []
    for p in range(num_partitions):
        f = segment_file(src_dir, p)
        if not os.path.exists(f):
            continue
        expected = part_meta(src_dir, p).get("checksum_head_crc32")
        if expected not in (None, 0) and expected != head_crc32(f):
            raise ValueError(corrupt.format(p=p))
        dst = segment_dir(dst_dir, p)
        os.makedirs(dst, exist_ok=True)
        shutil.copy2(f, segment_file(dst_dir, p))
        shutil.copy2(os.path.join(segment_dir(src_dir, p), "meta.json"),
                     os.path.join(dst, "meta.json"))
        copied.append(p)
    return copied


def snapshot_index(index_dir: str, snap_dir: str) -> dict:
    """ES snapshot API analog: back up a COMPLETE index directory,
    verifying each partition's first-MiB crc32 against its meta.json on
    the way out — corruption surfaces at backup time, not at restore.
    The snapshot is a plain directory tree (portable to any object
    store); ``snapshot.json`` records source + verification results and
    is written LAST (same presence-implies-complete contract as build
    metas). Returns the snapshot record."""
    m = IndexManifest.load(index_dir)
    if m.status != "complete":
        raise ValueError("only complete indexes can be snapshotted")
    os.makedirs(snap_dir, exist_ok=True)
    verified = _copy_verified_parts(
        index_dir, snap_dir, m.num_partitions,
        "partition {p} checksum mismatch — refusing to snapshot corruption")
    dm_src = os.path.join(index_dir, "docmap.parquet")
    dm_dst = os.path.join(snap_dir, "docmap.parquet")
    if os.path.isdir(dm_src) and not os.path.isdir(dm_dst):
        publish_dir(dm_dst, dm_src)
    tomb = os.path.join(index_dir, "tombstones.json")
    if os.path.exists(tomb):
        shutil.copy2(tomb, os.path.join(snap_dir, "tombstones.json"))
    shutil.copy2(os.path.join(index_dir, "manifest.json"), os.path.join(snap_dir, "manifest.json"))
    rec = {"source": index_dir, "parts_verified": verified, "n_docs": m.n_docs}
    atomic_write_json(os.path.join(snap_dir, "snapshot.json"), rec)
    return rec


def restore_index(snap_dir: str, out_dir: str) -> IndexManifest:
    """Restore a snapshot into a fresh index dir, re-verifying each
    partition's checksum against its meta.json (bit-rot in the backup
    store surfaces HERE, before the index goes live)."""
    if not os.path.exists(os.path.join(snap_dir, "snapshot.json")):
        raise ValueError("not a complete snapshot (snapshot.json missing)")
    m = IndexManifest.load(snap_dir)
    os.makedirs(out_dir, exist_ok=True)
    _copy_verified_parts(snap_dir, out_dir, m.num_partitions,
                         "snapshot partition {p} is corrupt — aborting restore")
    if os.path.isdir(os.path.join(snap_dir, "docmap.parquet")):
        publish_dir(os.path.join(out_dir, "docmap.parquet"),
                    os.path.join(snap_dir, "docmap.parquet"))
    if os.path.exists(os.path.join(snap_dir, "tombstones.json")):
        shutil.copy2(os.path.join(snap_dir, "tombstones.json"),
                     os.path.join(out_dir, "tombstones.json"))
    # manifest last: restore becomes visible only when complete
    shutil.copy2(os.path.join(snap_dir, "manifest.json"), os.path.join(out_dir, "manifest.json"))
    return IndexManifest.load(out_dir)


def reindex(src_index_dir: str, out_dir: str, cfg=None,
            store_positions: bool = False, store_text: bool = True):
    """ES ``_reindex``: rebuild an index from its own STORED documents
    with a new analyzer / partition layout — no access to the original
    corpus needed. Requires the source built with ``store_text=True``
    (refused otherwise, like the phrase path). Doc ids are PRESERVED:
    the source docmap already carries them, so unchanged-analyzer
    rebuilds are query-identical and cross-index doc references (pins,
    mget, stored percolator matches) stay valid. One streaming read of
    the source docmap feeds the ordinary build pipeline; the docmap is
    doc_id-sorted on disk, so the global sort is skipped
    (``assume_sorted``). Refuses pending tombstones (compact first) —
    same contract as ``merge_indexes``."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.config import DEFAULT_CONFIG
    from hybrid_sanctions_search_engine_ray.pipelines.index_build import build_index

    cfg = cfg or DEFAULT_CONFIG
    src = IndexManifest.load(src_index_dir)
    if src.status != "complete":
        raise ValueError(f"source index at {src_index_dir} is not complete")
    if load_tombstones(src_index_dir).size:
        raise ValueError("source index has pending deletes; compact_index first")
    dm_path = os.path.join(src_index_dir, "docmap.parquet")
    if "text" not in docmap_columns(src_index_dir):
        raise ValueError("source index was not built with store_text=True; "
                         "reindex needs the stored documents")
    ds = rd.read_parquet(dm_path)
    return build_index(f"reindex:{src_index_dir}", out_dir, cfg, transcripts_ds=ds,
                       assume_sorted=True, store_text=store_text,
                       store_positions=store_positions)


def append_documents(index_dir: str, new_transcripts_ds, out_dir: str,
                     registry: str | None = None, alias: str | None = None,
                     delta_work_dir: str | None = None, resume: bool = False) -> IndexManifest:
    """Incremental ingest — the ES index-new-batch-then-rollover flow:
    build a DELTA index from the new transcripts with the live index's
    identity and stored columns (so the merge is legal), physically merge
    [live, delta] into ``out_dir`` (delta doc ids lift by the live doc
    count — global ids stay append-ordered), and optionally swap an alias
    to the merged result atomically. The live index is never touched; a
    crash leaves it serving. Cost is O(new docs) for the delta build plus
    the partition-parallel merge pass — the full corpus is never
    re-analyzed (reference flow: the sanctions pipeline's
    rebuild-and-swap cycle, docs/DATA_PIPELINE.md index rotation).

    The delta is built in ``delta_work_dir`` (default ``out_dir +
    ".delta"``) and removed once merged. ``resume=True`` keeps a complete
    delta and resumes a partial delta build and the merge. The
    query-time alternative with zero consolidation cost is
    ``FederatedReader([live, delta])`` (pipelines/federated.py)."""
    import shutil as _sh

    from hybrid_sanctions_search_engine_ray.pipelines.index_build import build_index

    m = IndexManifest.load(index_dir)
    if m.status != "complete":
        raise ValueError(f"live index at {index_dir} is not complete")
    delta_dir = delta_work_dir or out_dir.rstrip("/") + ".delta"
    if not resume:
        _sh.rmtree(delta_dir, ignore_errors=True)
    delta_done = (resume and os.path.exists(os.path.join(delta_dir, "manifest.json"))
                  and IndexManifest.load(delta_dir).status == "complete")
    if not delta_done:
        build_index("mem", delta_dir, m.engine_config(), transcripts_ds=new_transcripts_ds,
                    resume=resume, store_text="text" in docmap_columns(index_dir),
                    store_positions=m.store_positions)
    merged = merge_indexes([index_dir, delta_dir], out_dir, resume=resume)
    _sh.rmtree(delta_dir, ignore_errors=True)
    if registry is not None and alias is not None:
        from hybrid_sanctions_search_engine_ray.state.aliases import set_alias

        set_alias(registry, alias, out_dir)
    return merged


_PIT_DIR = "pits"


def open_point_in_time(index_dir: str) -> str:
    """ES point-in-time API: freeze the CURRENT visibility state (the
    tombstone set — the only mutable query-time state this engine has;
    segments are immutable) under ``pits/pit-<n>.json``. A reader opened
    with this pit id keeps serving that snapshot no matter how many
    deletes land afterwards. Returns the pit id. Deterministic naming
    (max existing + 1) — no clock, safe to replay."""
    d = os.path.join(index_dir, _PIT_DIR)
    os.makedirs(d, exist_ok=True)
    # monotonic counter file — ids are NEVER reused after close, so a
    # stale pit_id can only error, never silently read a newer snapshot
    counter = os.path.join(d, "last_id.json")
    last = 0
    if os.path.exists(counter):
        with open(counter) as f:
            last = json.load(f)["last"]
    pit_id = f"pit-{last + 1}"
    atomic_write_json(counter, {"last": last + 1})
    ids = load_tombstones(index_dir)
    atomic_write_json(os.path.join(d, pit_id + ".json"),
                      {"doc_ids": [int(x) for x in ids]})
    return pit_id


def load_pit_tombstones(index_dir: str, pit_id: str) -> np.ndarray:
    p = os.path.join(index_dir, _PIT_DIR, pit_id + ".json")
    if not os.path.exists(p):
        raise KeyError(f"point in time {pit_id!r} does not exist (closed or never opened)")
    with open(p) as f:
        ids = json.load(f)["doc_ids"]
    return np.array(sorted(set(ids)), dtype=np.int64)


def close_point_in_time(index_dir: str, pit_id: str) -> None:
    p = os.path.join(index_dir, _PIT_DIR, pit_id + ".json")
    if not os.path.exists(p):
        raise KeyError(f"point in time {pit_id!r} does not exist")
    os.unlink(p)


def delete_by_query(index_dir: str, query_text: str) -> int:
    """ES ``_delete_by_query``: tombstone every doc matching the query
    (OR over analyzed terms — the same matching-set contract as the
    facet operators). Returns the number of NEWLY tombstoned docs.
    Deletes are visibility-only until :func:`compact_index` purges them
    — identical lifecycle to id-based :func:`delete_docs`."""
    from hybrid_sanctions_search_engine_ray.pipelines.query import IndexReader
    from hybrid_sanctions_search_engine_ray.stages.facets import matching_doc_ids

    r = IndexReader(index_dir)
    ids = matching_doc_ids(r, query_text)
    if ids.size == 0:
        return 0
    before = load_tombstones(index_dir).size
    delete_docs(index_dir, ids.tolist())
    return int(load_tombstones(index_dir).size - before)


def update_by_query(index_dir: str, query_text: str, out_docmap_dir: str,
                    set_col: str = "flag", set_value: int = 1) -> dict:
    """ES ``_update_by_query`` — the metadata-update path: docs matching
    the query (OR over analyzed terms, tombstone-aware — the same
    matching-set contract as ``delete_by_query``) get ``set_col`` set to
    ``set_value`` in a NEW docmap written to ``out_docmap_dir``; all
    other rows carry 0. The posting segments are untouched: indexed
    text is immutable here exactly as in ES, where analyzed-field
    changes require a reindex (see :func:`reindex`).

    Scale shape: the match set ships as ONE broadcast sorted id array
    (matches ≪ corpus); the docmap rewrite is a streaming map_batches →
    write_parquet pass — nothing corpus-sized materializes. The new
    docmap and its ``_UBQ_META.json`` marker are published together by
    ``publish_dir``, so a crash mid-write leaves no partial output and a
    re-run redoes it."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.pipelines.query import IndexReader
    from hybrid_sanctions_search_engine_ray.stages.facets import matching_doc_ids

    r = IndexReader(index_dir)
    ids = np.sort(matching_doc_ids(r, query_text).astype(np.int64))
    ids_ref = ray.put(ids)

    def upd(b: pa.Table) -> pa.Table:
        want = ray.get(ids_ref)
        d = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        if want.size:
            at = np.searchsorted(want, d)
            safe = np.minimum(at, want.size - 1)
            hit = (at < want.size) & (want[safe] == d)
        else:
            hit = np.zeros(d.size, dtype=bool)
        return b.append_column(
            set_col, pa.array(hit.astype(np.int64) * int(set_value)))

    # destructive-output guard (this is CLI-reachable via --out): never
    # rmtree the index itself or a pre-existing directory this function
    # didn't produce — only an empty dir or a prior update_by_query output
    # (identified by its _UBQ_META.json marker) may be replaced.
    out_real = os.path.realpath(out_docmap_dir)
    idx_real = os.path.realpath(index_dir)
    if out_real == idx_real or out_real.startswith(idx_real + os.sep) \
            or idx_real.startswith(out_real + os.sep):
        raise ValueError(
            f"out_docmap_dir {out_docmap_dir!r} overlaps index_dir {index_dir!r}")
    if os.path.isdir(out_docmap_dir):
        entries = os.listdir(out_docmap_dir)
        if entries and "_UBQ_META.json" not in entries:
            raise ValueError(
                f"out_docmap_dir {out_docmap_dir!r} exists, is non-empty and was "
                "not produced by update_by_query — refusing to delete it")

    def write(tmp: str) -> None:
        (rd.read_parquet(os.path.join(index_dir, "docmap.parquet"))
         .map_batches(upd, batch_format="pyarrow")
         .write_parquet(tmp))
        atomic_write_json(os.path.join(tmp, "_UBQ_META.json"),
                          {"index_dir": index_dir, "query_text": query_text,
                           "set_col": set_col, "set_value": int(set_value)})

    publish_dir(out_docmap_dir, write)
    return {"updated": int(ids.size), "total": int(r.manifest.n_docs),
            "docmap_dir": out_docmap_dir}


def snapshot_diff(snap_a: str, snap_b: str) -> "pd.DataFrame":
    """Incremental-backup primitive: compare two snapshots partition by
    partition using the stored meta.json checksums + row counts — the
    changed-set is what an incremental copy ships (at 100 TB, re-copying
    unchanged partitions is the cost that matters). Status per
    partition: ``unchanged`` / ``changed`` / ``added`` (in b only) /
    ``removed`` (in a only). Pure metadata read — O(partitions), never
    touches segment payloads."""
    import pandas as pd

    def metas(snap: str) -> dict[int, dict]:
        n = IndexManifest.load(snap).num_partitions
        return {p: meta for p in range(n) if (meta := part_meta(snap, p))}

    ma, mb = metas(snap_a), metas(snap_b)
    rows = []
    for p in sorted(set(ma) | set(mb)):
        if p not in mb:
            status = "removed"
        elif p not in ma:
            status = "added"
        else:
            ka = (ma[p].get("checksum_head_crc32"), ma[p].get("n_rows"))
            kb = (mb[p].get("checksum_head_crc32"), mb[p].get("n_rows"))
            status = "unchanged" if ka == kb else "changed"
        rows.append({"partition": p, "status": status})
    df = pd.DataFrame(rows, columns=["partition", "status"])
    df["partition"] = df["partition"].astype("int64")
    return df


# --- static index pruning (impact top-N) ------------------------------------


@ray.remote
def _prune_part(index_dir: str, out_dir: str, part: int, top_n: int) -> int:
    """Rewrite one partition keeping each term's ``top_n``
    highest-impact postings (tf desc, doc_id asc tie-break): one decode,
    one per-row rank, then :func:`keep_postings` (lists already within
    the budget re-encode to their original bytes)."""
    # resume: a finished part records its top_n in meta.json (written
    # AFTER the data file — presence implies a complete part)
    if part_meta(out_dir, part).get("pruned_top_n") == top_n and \
            os.path.exists(segment_file(out_dir, part)):
        return part
    tbl = read_partition(index_dir, part)
    if tbl is None:
        return part
    decoded = decode_segment(tbl)
    d, t, _, n = decoded
    if (tbl["seg_idx"].to_numpy()[n > top_n] != 0).any():
        raise ValueError(
            "static_prune_index: sub-segmented posting list — prune "
            "before rollover/append, or merge segments first")
    # rank every posting within its row by (tf desc, doc_id asc); a signed
    # key, since negating the uint64 tf array would rely on wraparound
    # (and a tf of 0 would sort as highest-impact) — ADVICE r04
    row_starts = np.repeat(np.cumsum(n) - n, n)
    order = np.lexsort((d, -t.astype(np.int64), np.repeat(np.arange(tbl.num_rows), n)))
    rank = np.empty(d.size, dtype=np.int64)
    rank[order] = np.arange(d.size) - row_starts
    publish_partition(out_dir, part, keep_postings(tbl, decoded, rank < top_n, False),
                      pruned_top_n=top_n, input=segment_file(index_dir, part))
    return part


def static_prune_index(index_dir: str, out_dir: str, top_n: int) -> IndexManifest:
    """Static index pruning (Carmel et al., SIGIR'01): write a new index
    keeping only each term's ``top_n`` highest-impact postings (tf desc,
    doc_id tie-break) — the smaller, faster serving tier that answers
    most queries identically to the full index and degrades gracefully
    on deep-recall ones. Corpus stats (N, avgdl) stay GLOBAL (the
    manifest is copied unchanged), so kept postings keep their exact
    tf_factor; per-term df is derived from the pruned lists at read
    time (pipelines/query.IndexReader), so idf reflects the index
    actually served — both choices are the standard pruned-index
    contract and both are SQL-reproducible (the q_static_prune twin).

    One Ray task per partition, atomic per-part writes with meta
    lineage — the same maintenance fabric as compaction. Refuses
    salted (hot-term) indexes: a salted term's list spans partitions,
    so global top-N needs a term-keyed repartition first
    (repartition_index) — refusing loudly beats silently pruning
    per-partition."""
    m = IndexManifest.load(index_dir)
    if m.status != "complete":
        raise ValueError("only complete indexes can be pruned")
    if m.hot_terms:
        raise ValueError(
            "static_prune_index: index has salted hot terms — their lists "
            "span partitions; repartition to an unsalted layout first")
    if m.store_positions:
        raise ValueError(
            "static_prune_index: positional indexes are not supported — "
            "the pruned rows would drop their positions column "
            "(code-review r05); prune a non-positional build")
    os.makedirs(out_dir, exist_ok=True)
    dm_src = os.path.join(index_dir, "docmap.parquet")
    dm_dst = os.path.join(out_dir, "docmap.parquet")
    if os.path.isdir(dm_src) and not os.path.isdir(dm_dst):
        publish_dir(dm_dst, dm_src)
    tomb = os.path.join(index_dir, "tombstones.json")
    if os.path.exists(tomb):
        shutil.copy2(tomb, os.path.join(out_dir, "tombstones.json"))
    ray.get([_prune_part.remote(index_dir, out_dir, p, top_n)
             for p in range(m.num_partitions)])
    m.parts = part_summaries(out_dir, m.num_partitions)
    m.save(out_dir)
    return m
