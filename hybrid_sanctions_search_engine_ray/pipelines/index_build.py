"""Offline index build — the Ray-Data re-expression of the reference's
deployment pipeline (reference: scripts/prepare_sanctions_data.py +
scripts/deploy_to_elasticsearch.py — SURVEY.md §3.1), re-architected as:

    read_parquet → [sorted+id'd corpus CHECKPOINT on disk, if ids must
      be assigned — never pinned in the object store] → docmap.parquet
    → hot-term pre-pass: tokenize a deterministic 2% conv sample only
    → ONE streaming tokenize scan: map_batches(posting rows + sentinel
      stat rows) → assign part (salted) → [resume filter] → packed
      map-side combine → groupby(part).map_groups(segment builder)
    → segments/part=K/* (atomic per partition) → manifest.json last

Nothing corpus-sized is ever pinned: posting rows stream straight into
the partition shuffle with backpressure (an earlier design materialized
the posting intermediate and collapsed under object-store pressure at
145M+ postings). Exact corpus stats (N, Σdl) ride the shuffle as
sentinel rows folded into partition metas; exact per-term df/cf come
from the segment rows themselves (the query path reads them anyway, and
``write_dictionary`` can materialize the vocabulary on demand). Each
partition lands through ``stages/postings.publish_partition`` and the
manifest's ``parts`` are read back from those records
(``state/manifest.part_summaries``).
"""

from __future__ import annotations

import os
from dataclasses import asdict

import numpy as np
import pyarrow as pa

import ray

from hybrid_sanctions_search_engine_ray.config import DEFAULT_CONFIG, EngineConfig
from hybrid_sanctions_search_engine_ray.stages.analyze import (
    DOC_SENTINEL,
    HOT_SAMPLE_EVERY,
    emit_postings_with_sentinel,
    emit_sampled_term_stats,
    emit_term_stats,
)
from hybrid_sanctions_search_engine_ray.stages.postings import (
    assign_partitions,
    build_segment_packed,
    pack_postings_by_part,
    read_segments,
)
from hybrid_sanctions_search_engine_ray.state.manifest import (
    ANALYZER,
    LAYOUT,
    SCORING,
    IndexManifest,
    atomic_write_json,
    completed_parts,
    exact_n_terms,
    identity_diff,
    part_summaries,
    publish_dir,
)


_CORPUS_COLS = ["conv_id", "turn_idx", "text"]


@ray.remote
def _attach_ids_task(tmp_path: str, offset: int, out_path: str, sample_path: str | None = None) -> int:
    """Phase-2 worker: rewrite one checkpoint block with its doc_id
    column attached (doc ids = global rank; offset = prefix sum of
    preceding blocks' row counts). Atomic via tmp + rename.

    When ``sample_path`` is given, the block's deterministic 2% conv
    sample (``crc32(conv_id) % HOT_SAMPLE_EVERY == 0`` — the hot-term
    pre-pass predicate) is ALSO written as a side file, so the pre-pass
    later reads 2% of the corpus instead of scanning every text row."""
    import pyarrow.parquet as pq

    # idempotent under Ray task retry (code-review r05): a worker death
    # after the rename but before returning must not fail the re-run —
    # if the input tmp is gone and the output exists, a prior attempt
    # finished the rewrite; re-derive the (atomic, idempotent) sample
    # write from the output and return. The tmp unlink is LAST so no
    # death point loses both copies.
    if not os.path.exists(tmp_path) and os.path.exists(out_path):
        t = pq.read_table(out_path)
    else:
        t = pq.read_table(tmp_path)
        ids = pa.array(np.arange(offset, offset + t.num_rows, dtype=np.int64))
        t = t.add_column(0, "doc_id", ids)
        tmp_out = out_path + ".tmp"
        pq.write_table(t, tmp_out)
        os.replace(tmp_out, out_path)
    if sample_path is not None:
        from hybrid_sanctions_search_engine_ray.functions.hashing import hash_string_array

        mask = (hash_string_array(t["conv_id"]) % HOT_SAMPLE_EVERY) == 0
        sub = t.filter(pa.array(mask))
        if sub.num_rows:
            tmp_s = sample_path + ".tmp"
            pq.write_table(sub, tmp_s)
            os.replace(tmp_s, sample_path)
    if os.path.exists(tmp_path):
        os.unlink(tmp_path)
    return t.num_rows


def checkpoint_corpus_with_ids(ds, corpus_dir: str, sort: bool = True,
                               sample_dir: str | None = None,
                               extra_cols: tuple = ()) -> int:
    """Persist the sorted+id'd corpus as a parquet checkpoint — doc ids
    are dense ranks under stable ``(conv_id, turn_idx)`` ordering (the
    north rule's T5 invariant, SURVEY.md §2.6) — WITHOUT ever pinning
    the corpus in the object store (the round-1 design materialized it;
    at 100 TB that collapses — VERDICT.md "What's wrong" #1).

    Streaming two-phase layout:

    * Phase 1: the sorted dataset streams block-by-block through a
      ``map_batches`` task that writes each block to a temp parquet file
      and emits ONLY a tiny metadata row (first key, row count, path).
      Blocks of a sorted dataset cover disjoint key ranges, and Ray's
      executor emits blocks in completion (not key) order, so global
      order is reconstructed from block CONTENT.
    * Phase 2: the driver orders the metadata rows by first key (one row
      per block — KBs, not corpus-sized), prefix-sums row counts into
      doc-id offsets, and fans out one lightweight task per file to
      attach the doc_id column. Output files are named by their first
      doc id, so lexicographic file order == doc order and parquet
      row-group stats give point-lookup pruning.

    At cluster scale ``corpus_dir`` lives on shared storage; every later
    consumer (docmap, hot-term pre-pass, main posting scan) streams from
    disk with column pruning instead of re-reading a pinned object.
    Returns the total row count.
    """
    import shutil

    if sort:
        ds = ds.sort(["conv_id", "turn_idx"])
    shutil.rmtree(corpus_dir, ignore_errors=True)
    os.makedirs(corpus_dir, exist_ok=True)
    if sample_dir is not None:
        shutil.rmtree(sample_dir, ignore_errors=True)
        os.makedirs(sample_dir, exist_ok=True)

    def _dump_block(batch: pa.Table) -> pa.Table:
        import tempfile

        import pyarrow.parquet as pq

        if batch.num_rows == 0:
            return pa.table({"conv0": pa.array([], pa.string()), "turn0": pa.array([], pa.int32()),
                             "n_rows": pa.array([], pa.int64()), "path": pa.array([], pa.string())})
        fd, tmp = tempfile.mkstemp(dir=corpus_dir, suffix=".blk")
        os.close(fd)
        pq.write_table(batch.select(_CORPUS_COLS + list(extra_cols)), tmp)
        return pa.table(
            {
                "conv0": pa.array([batch["conv_id"][0].as_py()], pa.string()),
                "turn0": pa.array([int(batch["turn_idx"][0].as_py())], pa.int32()),
                "n_rows": pa.array([batch.num_rows], pa.int64()),
                "path": pa.array([tmp], pa.string()),
            }
        )

    meta = ds.map_batches(_dump_block, batch_format="pyarrow").take_all()
    meta.sort(key=lambda r: (r["conv0"], r["turn0"]))
    offsets = np.concatenate(([0], np.cumsum([r["n_rows"] for r in meta])))
    tasks = [
        _attach_ids_task.remote(
            r["path"],
            int(off),
            os.path.join(corpus_dir, f"part-{int(off):012d}.parquet"),
            None if sample_dir is None else os.path.join(sample_dir, f"part-{int(off):012d}.parquet"),
        )
        for r, off in zip(meta, offsets[:-1])
    ]
    total = int(sum(ray.get(tasks)))
    atomic_write_json(os.path.join(corpus_dir, "_COMPLETE.json"), {"n_rows": total})
    return total


def corpus_checkpoint_complete(corpus_dir: str) -> bool:
    return os.path.exists(os.path.join(corpus_dir, "_COMPLETE.json"))


def _sorted_corpus_files(input_path: str) -> list[str]:
    if os.path.isdir(input_path):
        return sorted(
            os.path.join(input_path, f)
            for f in os.listdir(input_path)
            if f.endswith(".parquet")
        )
    return [input_path]


def read_sorted_parquet_with_ids(input_path: str, columns: list[str]):
    """Streaming id-attaching reader for ALREADY-SORTED shard layouts
    (lexicographic file order == global (conv_id, turn_idx) order — the
    layout ``generate_transcripts`` writes): doc ids are derived from
    parquet FOOTER row counts (prefix sums over files, driver-side
    metadata only) and attached per file inside the read task — zero
    extra corpus I/O, no checkpoint, no object-store pinning. The id of
    every row is a pure function of the file layout, so re-execution
    (per consumer, per resume) is deterministic.

    ``columns`` must include ``doc_id``; the remaining columns are read
    with parquet column pruning. One read task per file."""
    import pyarrow.parquet as pq
    import ray.data as rd

    files = _sorted_corpus_files(input_path)
    counts = [pq.read_metadata(f).num_rows for f in files]
    offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
    items = [
        {"path": f, "offset": int(o), "n_rows": int(c)}
        for f, o, c in zip(files, offsets, counts)
    ]
    cols = [c for c in columns if c != "doc_id"]

    def _read(batch: pa.Table) -> pa.Table:
        out = []
        for path, off, n in zip(
            batch["path"].to_pylist(), batch["offset"].to_pylist(), batch["n_rows"].to_pylist()
        ):
            t = pq.read_table(path, columns=cols)
            assert t.num_rows == n, f"{path}: footer said {n} rows, read {t.num_rows}"
            ids = pa.array(np.arange(off, off + t.num_rows, dtype=np.int64))
            out.append(t.add_column(0, "doc_id", ids))
        return pa.concat_tables(out)

    # One descriptor row PER BLOCK, and the read stage deliberately
    # NON-FUSABLE (num_cpus differs from the default 1.0): if Ray fused
    # it with a downstream map_batches, the downstream's larger
    # batch_size would bundle every (1-row) descriptor into a single
    # task and serialize the whole corpus scan (observed: 1 task, 7×
    # slower). Unfused, each file reads in its own task and downstream
    # stages parallelize over the real data blocks.
    desc = rd.from_items(items, override_num_blocks=max(1, len(items)))
    return desc.map_batches(
        _read, batch_format="pyarrow", batch_size=1, num_cpus=1.001
    )


def build_index(
    input_path: str,
    index_dir: str,
    cfg: EngineConfig = DEFAULT_CONFIG,
    transcripts_ds=None,
    resume: bool = False,
    fail_after_parts: int | None = None,
    assume_sorted: bool = False,
    store_text: bool = False,
    store_positions: bool = False,
) -> IndexManifest:
    """End-to-end index build. ``transcripts_ds`` overrides reading
    ``input_path`` directly (it must carry the transcript schema; a
    ``doc_id`` column is added here if absent). ``fail_after_parts`` is
    the fault-injection hook for the resume test (FIXTURES.md §4).

    ``assume_sorted=True`` skips the global ``(conv_id, turn_idx)`` sort
    and assigns doc ids in input block order — valid only when the input
    files are already globally sorted (e.g. the shard-per-conv-range
    layout ``generate_transcripts`` writes). The docid-invariant test
    guards this equivalence (tests/test_index_build.py)."""
    import ray.data as rd

    os.makedirs(index_dir, exist_ok=True)
    ds = transcripts_ds if transcripts_ds is not None else rd.read_parquet(input_path)

    docmap_path = os.path.join(index_dir, "docmap.parquet")
    sample_path = os.path.join(index_dir, "sample.parquet")
    manifest_path = os.path.join(index_dir, "manifest.json")
    have_partial = resume and os.path.exists(manifest_path)

    # Nothing corpus-sized is ever pinned in the object store. Two cases:
    #
    # * input already carries stable doc ids → every consumer (docmap,
    #   pre-pass, main scan) re-executes the cheap read+map lineage,
    #   fully streaming with column pruning.
    # * ids must be assigned → the sorted+id'd corpus is persisted ONCE
    #   as a parquet checkpoint (checkpoint_corpus_with_ids) that IS the
    #   docmap (doc_id, conv_id, turn_idx, text — point lookups prune by
    #   row-group stats and never touch the text column), plus a 2%
    #   sampled side table the hot-term pre-pass reads instead of
    #   rescanning every text row. The checkpoint doubles as the build's
    #   resume point; text is always available (phrase search works
    #   without store_text on this path).
    # The docmap has NO consumer inside the build (queries read it after
    # completion), so its write runs on a side thread OVERLAPPED with the
    # pre-pass + postings shuffle — at bench scale it was ~40% of the
    # wall. It is published with publish_dir (tmp dir + rename), so a
    # crash mid-write never leaves a partial dir that a resume would
    # mistake for complete. Joined (and re-raised) before the manifest
    # flips to complete.
    import concurrent.futures as _cf
    import shutil as _sh

    _docmap_pool = _cf.ThreadPoolExecutor(max_workers=1)
    _docmap_future = None

    # the analyzer's detected-language column must survive every pruned
    # read/checkpoint on the way to the scan (code-review r05 finding)
    _lang_extra = [cfg.analyzer.lang_col] if cfg.analyzer.lang_col else []

    sample_files: list[str] = []
    fast_sorted_files: list[str] | None = None
    # each non-checkpoint branch picks its docmap writer; it is submitted
    # once below (the checkpoint branch's checkpoint IS the docmap)
    docmap_cols = ["doc_id", "conv_id", "turn_idx"] + (["text"] if store_text else [])
    write_docmap = None
    if "doc_id" in ds.schema().names:
        use_checkpoint = False
        write_docmap = ds.select_columns(docmap_cols).write_parquet
    elif assume_sorted and transcripts_ds is None:
        # Already-sorted shard layout on disk: ids from parquet FOOTER
        # prefix sums — no checkpoint rewrite, no extra corpus I/O. This
        # is the fast path a resumable production layout should hit; the
        # constant disk cost it removes is exactly what does NOT scale
        # with cores.
        use_checkpoint = False
        fast_sorted_files = _sorted_corpus_files(input_path)
        corpus_bytes = sum(os.path.getsize(f) for f in fast_sorted_files)
        if corpus_bytes <= cfg.in_memory_build_bytes:
            # small corpus: pin the id'd corpus in the object store once
            # (three consumers, zero re-read — cheap and safe well below
            # store capacity; large corpora take the streaming branch)
            fast_sorted_files = None
            ds = read_sorted_parquet_with_ids(
                input_path, ["doc_id", "conv_id", "turn_idx", "text"] + _lang_extra
            ).materialize()
            write_docmap = ds.select_columns(docmap_cols).write_parquet
        else:
            ds = read_sorted_parquet_with_ids(
                input_path, ["doc_id", "conv_id", "text"] + _lang_extra)
            write_docmap = lambda p: read_sorted_parquet_with_ids(  # noqa: E731
                input_path, docmap_cols).write_parquet(p)
    else:
        use_checkpoint = True
        if not (have_partial and corpus_checkpoint_complete(docmap_path)):
            checkpoint_corpus_with_ids(ds, docmap_path, sort=not assume_sorted,
                                       sample_dir=sample_path,
                                       extra_cols=tuple(_lang_extra))
        if os.path.isdir(sample_path):
            sample_files = _sorted_corpus_files(sample_path)
        ds = rd.read_parquet(_sorted_corpus_files(docmap_path),
                             columns=["doc_id", "conv_id", "text"] + _lang_extra)
    if write_docmap is not None and not (have_partial and os.path.isdir(docmap_path)):
        _docmap_future = _docmap_pool.submit(publish_dir, docmap_path, write_docmap)

    # --- hot-term pre-pass: tokenize only the deterministic 2% conv
    # sample (pure function of conv_id → identical across batchings,
    # cluster sizes and resumes); reused from the manifest on resume ---
    if have_partial:
        manifest = IndexManifest.load(index_dir)
        # resume must use the ORIGINAL run's identity: partition hashing,
        # salting and tokenization all feed the done-part skip, so a
        # changed cfg would silently drop or misroute postings
        # (code-review r05 finding) — refuse loudly instead.
        diffs = identity_diff(manifest, IndexManifest.from_config(cfg, store_positions),
                              SCORING + ANALYZER + LAYOUT)
        if diffs:
            raise ValueError(
                "build_index(resume=True): config differs from the saved "
                "manifest — resume with the original config or rebuild "
                "fresh: " + "; ".join(diffs))
    else:
        # a FRESH build owns the whole dir: stale segments from any
        # previous build in the same location must not survive into the
        # completed_parts sweep (they would corrupt corpus stats and
        # leave old-corpus postings queryable — code-review r05 finding)
        _sh.rmtree(os.path.join(index_dir, "segments"), ignore_errors=True)
        import pyarrow.compute as pc
        from ray.data.aggregate import Sum

        # The sampled vocabulary is itself huge at 100 TB (identifiers,
        # typos), so it never reaches the driver: the aggregated stats
        # stay distributed (vocabulary-sized ≪ corpus-sized), the
        # sentinel row is fetched alone, and the df_s >= cut filter runs
        # dataset-side — the driver receives ONLY the hot terms, whose
        # count is bounded by avgdl / (ratio·0.5) regardless of corpus
        # size (Σdf ≤ N·avgdl ⇒ #\{df ≥ r·N\} ≤ avgdl/r).
        # The pre-pass never scans the full text column when a cheaper
        # deterministic sample exists:
        # * checkpoint path — the pre-filtered 2% conv-sample side table
        #   (emit_sampled_term_stats re-applies the same pure predicate,
        #   which keeps every row);
        # * sorted-files fast path — every HOT_SAMPLE_EVERY-th shard
        #   FILE read whole (a pure function of the file layout, so
        #   identical across cluster sizes/resumes; file-range sampling
        #   is as unbiased as conv-hash sampling for df estimation).
        pre_emit = emit_sampled_term_stats
        if use_checkpoint:
            pre_src = rd.read_parquet(sample_files, columns=["conv_id", "text"]) if sample_files else None
        elif fast_sorted_files is not None:
            sfiles = fast_sorted_files[::HOT_SAMPLE_EVERY] or fast_sorted_files[:1]
            pre_src = rd.read_parquet(sfiles, columns=["text"]) if sfiles else None
            pre_emit = emit_term_stats  # every row of a sampled file counts
        else:
            pre_src = ds
        if pre_src is None:
            hot_terms: list[str] = []
        else:
            samp_agg = (
                pre_src.map_batches(
                    lambda b: pre_emit(b, cfg),
                    batch_format="pyarrow",
                    batch_size=cfg.analyze_batch_size,
                )
                .groupby("term")
                .aggregate(Sum("df_p", alias_name="df_s"))
                .materialize()  # vocabulary-sized, NOT corpus-sized
            )
            sent_rows = samp_agg.map_batches(
                lambda b: b.filter(pc.equal(b["term"], DOC_SENTINEL)), batch_format="pyarrow"
            ).take_all()
            n_sampled = sum(r["df_s"] for r in sent_rows)
            # sampled-df threshold with a 0.5 margin: over-salting is a cheap
            # false positive, under-salting a hot partition
            hot_cut_sample = max(2, int(cfg.hot_term_df_ratio * n_sampled * 0.5))
            hot_rows = samp_agg.map_batches(
                lambda b: b.filter(
                    pc.and_(pc.not_equal(b["term"], DOC_SENTINEL), pc.greater_equal(b["df_s"], hot_cut_sample))
                ),
                batch_format="pyarrow",
            ).take_all()
            hot_terms = sorted(r["term"] for r in hot_rows)
        manifest = IndexManifest.from_config(cfg, store_positions, hot_terms=hot_terms,
                                             input_path=input_path)
        manifest.save(index_dir)

    hot = frozenset(manifest.hot_terms)

    # --- Pass B: postings shuffle, resume-aware ---
    done = completed_parts(index_dir) if resume else {}
    done_parts = set(done.keys())

    postings = (
        ds.map_batches(
            lambda b: emit_postings_with_sentinel(b, cfg, positional=store_positions),
            batch_format="pyarrow",
            batch_size=cfg.analyze_batch_size,
        )
        .map_batches(lambda b: assign_partitions(b, cfg, hot), batch_format="pyarrow")
        .map_batches(pack_postings_by_part, batch_format="pyarrow")
    )
    if done_parts:
        skip = pa.array(sorted(done_parts), pa.int32())

        def _drop_done(b: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            return b.filter(pc.invert(pc.is_in(b["part"], value_set=skip)))

        postings = postings.map_batches(_drop_done, batch_format="pyarrow")

    def seg_fn(g):
        # fault injection (resume test, FIXTURES.md §4): partitions ≥ K
        # crash before writing; the build dies mid-shuffle with the
        # completed partitions already atomically on disk.
        if fail_after_parts is not None and int(g["part"].iloc[0]) >= fail_after_parts:
            raise RuntimeError(f"fault injection at part {int(g['part'].iloc[0])}")
        return build_segment_packed(g, index_dir, cfg, input_path, hot)

    # each task publishes its partition record; the output is one
    # part-number row per partition, fetched only to run the job
    postings.groupby("part").map_groups(seg_fn, batch_format="pandas").take_all()
    done_meta = completed_parts(index_dir)
    manifest.parts = part_summaries(index_dir, manifest.num_partitions)

    # exact corpus stats: sentinel partials summed across partition metas
    # (covers both freshly built and resumed-over partitions)
    manifest.n_docs = sum(m.get("n_docs_partial", 0) for m in done_meta.values())
    manifest.total_tokens = sum(m.get("tokens_partial", 0) for m in done_meta.values())
    manifest.avgdl = (manifest.total_tokens / manifest.n_docs) if manifest.n_docs else 0.0

    # EXACT distinct-term count (the query path never consults n_terms:
    # df comes from segment rows)
    manifest.n_terms = exact_n_terms(manifest.parts)

    # the docmap side write must land (and any failure surface) BEFORE
    # the manifest flips to complete
    if _docmap_future is not None:
        _docmap_future.result()
    _docmap_pool.shutdown(wait=False)

    manifest.status = "complete"
    manifest.save(index_dir)
    if use_checkpoint:
        # the checkpoint stays — it IS the docmap; only the pre-pass
        # sample side table is spent
        _sh.rmtree(sample_path, ignore_errors=True)
    return manifest


def build_multi_field(
    input_path: str,
    base_dir: str,
    cfg: EngineConfig = DEFAULT_CONFIG,
    modes: tuple = ("simple", "shingle"),
    transcripts_ds=None,
    **kw,
) -> dict:
    """Build one index per analyzer field under ``base_dir/field=<mode>/``
    with ONE raw-corpus ingest — the ES multi-subfield layout (the
    reference's BM25 mapping carries the main field plus
    ``shingle_analyzer``/``char_ngram_analyzer`` subfields in one index:
    templates/elasticsearch/elasticsearch_component_template.json:20-56).

    At 100 TB the raw corpus must not be re-read/re-sorted per field:
    the FIRST field's build persists the sorted+id'd parquet checkpoint
    (plus the 2% pre-pass sample); every subsequent field streams from
    that checkpoint — doc ids are identical across fields by
    construction (they live in the checkpoint), so per-field ranked
    lists fuse directly (functions/fusion.py RRF / weighted).

    Returns {mode: IndexManifest}. When the input can't produce a
    reusable checkpoint (ids already present, or the sorted-files fast
    path), each field build re-streams the same cheap pruned read — the
    behavior of plain build_index, just namespaced per field."""
    from dataclasses import replace

    import ray.data as rd

    manifests: dict = {}
    first_dir = os.path.join(base_dir, f"field={modes[0]}")
    cfg0 = replace(cfg, analyzer=replace(cfg.analyzer, mode=modes[0]))
    manifests[modes[0]] = build_index(
        input_path, first_dir, cfg0, transcripts_ds=transcripts_ds, **kw
    )
    docmap = os.path.join(first_dir, "docmap.parquet")
    ckpt_files = _sorted_corpus_files(docmap) if corpus_checkpoint_complete(docmap) else None
    for mode in modes[1:]:
        cfg_m = replace(cfg, analyzer=replace(cfg.analyzer, mode=mode))
        field_dir = os.path.join(base_dir, f"field={mode}")
        if ckpt_files:
            ds = rd.read_parquet(ckpt_files, columns=["doc_id", "conv_id", "turn_idx", "text"])
            manifests[mode] = build_index(input_path, field_dir, cfg_m, transcripts_ds=ds, **kw)
        else:
            manifests[mode] = build_index(
                input_path, field_dir, cfg_m, transcripts_ds=transcripts_ds, **kw
            )
    return manifests


def index_stats(index_dir: str) -> dict:
    m = IndexManifest.load(index_dir)
    d = asdict(m)
    d["n_parts"] = len(m.parts)
    d["n_postings"] = sum(p.get("n_postings", 0) for p in m.parts.values())
    return d


def write_dictionary(index_dir: str) -> str:
    """Materialize dictionary.parquet (term → exact df, cf) from the
    built segments — a vocabulary-sized aggregate over segment metadata
    columns, no corpus scan. Optional: the query path derives df from
    the segment rows it already reads; this artifact serves analytics
    (top-terms, vocabulary exports) and debugging."""
    from ray.data.aggregate import Sum

    dict_ds = (
        read_segments(index_dir, ["term", "n_docs", "cf"])
        .groupby("term")
        .aggregate(Sum("n_docs", alias_name="df"), Sum("cf", alias_name="cf"))
    )
    dict_path = os.path.join(index_dir, "dictionary.parquet")
    publish_dir(dict_path, dict_ds.sort("term").write_parquet)
    return dict_path
