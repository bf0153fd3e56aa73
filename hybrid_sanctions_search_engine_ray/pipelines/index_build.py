"""Offline index build — the Ray-Data re-expression of the reference's
deployment pipeline (reference: scripts/prepare_sanctions_data.py +
scripts/deploy_to_elasticsearch.py — SURVEY.md §3.1). ``build_index`` is
four phases, each one function:

1. **ids** (:func:`_assign_ids`) decides the doc-id route once: doc ids
   are dense ranks under stable ``(conv_id, turn_idx)`` order. It returns
   the id'd corpus, the docmap writer and the hot-term pre-pass source.
2. **hot pre-pass** (:func:`_hot_prepass`): a fresh build aggregates that
   source into the salted hot-term set and saves the manifest; a resume
   checks its config against the saved manifest's identity instead.
3. **postings** (:func:`_write_postings`): ONE streaming tokenize scan →
   posting rows + sentinel stat rows → salted partition key → packed
   map-side combine → [resume filter] → ``groupby(part).map_groups``,
   each group publishing ``segments/part=K/*`` atomically.
4. **finalize** (:func:`_finalize`): corpus stats from the partition
   records, the docmap side write joined, ``manifest.json`` flipped to
   complete last.

The doc-id routes — which input takes which, where its ids and docmap
come from, and what its pre-pass reads. The docmap is written on a side
thread overlapped with phases 2-3, unless the checkpoint is the docmap.

* **input carries ``doc_id``** (``reindex``, ``build_multi_field``'s
  later fields): its own ids; the docmap is its doc_id, conv_id,
  turn_idx (+ text) columns; the pre-pass reads the corpus and keeps its
  2% conv sample (``emit_sampled_term_stats``).
* **``assume_sorted`` path of at most ``in_memory_build_bytes``**: ids
  from parquet footer prefix sums, the id'd corpus pinned once in the
  object store; from there the route above.
* **larger ``assume_sorted`` path**: the same ids, the files re-read per
  consumer (the docmap too); the pre-pass reads every
  ``HOT_SAMPLE_EVERY``-th file whole (``emit_term_stats``).
* **anything else** (an unsorted path, an id-less ``transcripts_ds``):
  the sorted (unless ``assume_sorted``) corpus checkpointed once with its
  ids (:func:`checkpoint_corpus_with_ids`); the checkpoint IS the docmap
  and the resume point, and the pre-pass reads the 2% sample side table
  it wrote (``sample.parquet``, removed by finalize).

Nothing corpus-sized is pinned but the small ``assume_sorted`` corpus:
posting rows stream straight into the partition shuffle with
backpressure (an earlier design materialized the posting intermediate
and collapsed under object-store pressure at 145M+ postings). Exact
corpus stats (N, Σdl) ride the shuffle as sentinel rows folded into
partition metas; exact per-term df/cf come from the segment rows
themselves (``write_dictionary`` can materialize the vocabulary on
demand). Each partition lands through ``stages/postings.
publish_partition`` and the manifest's ``parts`` are read back from
those records (``state/manifest.part_summaries``).
"""

from __future__ import annotations

import os
import shutil
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict
from typing import Any, Callable, NamedTuple

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


class _Ids(NamedTuple):
    """What the ids phase hands the later phases."""

    ds: Any                     # the id'd corpus the postings scan reads
    docmap: Callable | None     # fills docmap.parquet's tmp dir; None: nothing to write
    sample: Any                 # the hot-term pre-pass source; None: an empty sample
    emit: Callable              # the pre-pass's per-batch term-stats emitter


def _assign_ids(input_path: str, index_dir: str, cfg: EngineConfig, transcripts_ds,
                assume_sorted: bool, store_text: bool, resumed: bool) -> _Ids:
    """Phase 1: pick the doc-id route (the module docstring's list) and
    return the id'd corpus, the docmap writer and the pre-pass source. A
    resumed build keeps a complete checkpoint and an existing docmap."""
    import ray.data as rd

    ds = transcripts_ds if transcripts_ds is not None else rd.read_parquet(input_path)
    docmap_path = os.path.join(index_dir, "docmap.parquet")
    docmap_cols = ["doc_id", "conv_id", "turn_idx"] + (["text"] if store_text else [])
    # the analyzer's detected-language column must survive every pruned
    # read/checkpoint on the way to the scan (code-review r05 finding)
    lang = [cfg.analyzer.lang_col] if cfg.analyzer.lang_col else []
    keep_docmap = resumed and os.path.isdir(docmap_path)

    has_ids = "doc_id" in ds.schema().names
    if not has_ids and assume_sorted and transcripts_ds is None:
        files = _sorted_corpus_files(input_path)
        if sum(os.path.getsize(f) for f in files) > cfg.in_memory_build_bytes:
            # sorted files re-read per consumer, ids from footer prefix
            # sums; the pre-pass reads every HOT_SAMPLE_EVERY-th file whole
            # (a pure function of the layout, as unbiased for df as the
            # conv-hash sample), so every row of it counts
            sfiles = files[::HOT_SAMPLE_EVERY] or files[:1]
            return _Ids(
                read_sorted_parquet_with_ids(input_path, ["doc_id", "conv_id", "text"] + lang),
                None if keep_docmap else lambda p: read_sorted_parquet_with_ids(
                    input_path, docmap_cols).write_parquet(p),
                rd.read_parquet(sfiles, columns=["text"]) if sfiles else None,
                emit_term_stats)
        # small corpus: pin the id'd corpus once (three consumers, zero
        # re-read); from here it is an input that carries its ids
        ds = read_sorted_parquet_with_ids(
            input_path, ["doc_id", "conv_id", "turn_idx", "text"] + lang).materialize()
        has_ids = True

    if has_ids:
        # every consumer re-executes the cheap read+map lineage
        return _Ids(ds, None if keep_docmap else ds.select_columns(docmap_cols).write_parquet,
                    ds, emit_sampled_term_stats)

    # ids must be assigned: the sorted+id'd corpus is persisted once as a
    # checkpoint that IS the docmap (point lookups prune by row-group
    # stats), plus the 2% conv-sample side table the pre-pass reads
    sample_path = os.path.join(index_dir, "sample.parquet")
    if not (resumed and corpus_checkpoint_complete(docmap_path)):
        checkpoint_corpus_with_ids(ds, docmap_path, sort=not assume_sorted,
                                   sample_dir=sample_path, extra_cols=tuple(lang))
    sfiles = _sorted_corpus_files(sample_path) if os.path.isdir(sample_path) else []
    return _Ids(
        rd.read_parquet(_sorted_corpus_files(docmap_path),
                        columns=["doc_id", "conv_id", "text"] + lang),
        None,
        rd.read_parquet(sfiles, columns=["conv_id", "text"]) if sfiles else None,
        emit_sampled_term_stats)


def _hot_prepass(index_dir: str, cfg: EngineConfig, input_path: str, store_positions: bool,
                 resumed: bool, sample, emit: Callable) -> IndexManifest:
    """Phase 2: the build's manifest. A fresh build owns the whole dir
    (stale segments of an earlier build would survive the completed_parts
    sweep) and takes its hot terms from ``sample``; a resumed build keeps
    the saved manifest, whose identity must match ``cfg``."""
    if resumed:
        manifest = IndexManifest.load(index_dir)
        # partition hashing, salting and tokenization all feed the
        # done-part skip, so a changed cfg would silently drop or
        # misroute postings (code-review r05 finding)
        diffs = identity_diff(manifest, IndexManifest.from_config(cfg, store_positions),
                              SCORING + ANALYZER + LAYOUT)
        if diffs:
            raise ValueError(
                "build_index(resume=True): config differs from the saved "
                "manifest — resume with the original config or rebuild "
                "fresh: " + "; ".join(diffs))
        return manifest
    shutil.rmtree(os.path.join(index_dir, "segments"), ignore_errors=True)
    manifest = IndexManifest.from_config(cfg, store_positions, input_path=input_path,
                                         hot_terms=_hot_terms(sample, emit, cfg))
    manifest.save(index_dir)
    return manifest


def _hot_terms(sample, emit: Callable, cfg: EngineConfig) -> list[str]:
    """The terms whose sampled df reaches ``hot_term_df_ratio``. The
    sampled vocabulary is itself huge at 100 TB, so it never reaches this
    process: the aggregate stays distributed, the sentinel row is fetched
    alone and the cut runs dataset-side — only the hot terms come back, at
    most avgdl / (ratio·0.5) of them (Σdf ≤ N·avgdl)."""
    if sample is None:
        return []
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    samp_agg = (
        sample.map_batches(lambda b: emit(b, cfg), batch_format="pyarrow",
                           batch_size=cfg.analyze_batch_size)
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
    return sorted(r["term"] for r in hot_rows)


def _write_postings(ds, index_dir: str, cfg: EngineConfig, manifest: IndexManifest,
                    input_path: str, resume: bool, store_positions: bool,
                    fail_after_parts: int | None) -> None:
    """Phase 3: one streaming tokenize scan → salted partition key →
    packed map-side combine → [drop the partitions a resume finds done] →
    ``groupby(part).map_groups``, each group publishing its partition."""
    hot = frozenset(manifest.hot_terms)
    done_parts = set(completed_parts(index_dir)) if resume else set()

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


def _finalize(index_dir: str, manifest: IndexManifest, docmap) -> IndexManifest:
    """Phase 4: fold the partition records into the manifest, wait for the
    docmap side write (its failure surfaces here), flip the manifest to
    complete and drop the spent pre-pass sample table."""
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
    if docmap is not None:
        docmap.result()
    manifest.status = "complete"
    manifest.save(index_dir)
    shutil.rmtree(os.path.join(index_dir, "sample.parquet"), ignore_errors=True)
    return manifest


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
    """End-to-end index build: the four phases of the module docstring.
    ``transcripts_ds`` overrides reading ``input_path`` directly (it must
    carry the transcript schema; a ``doc_id`` column is added if absent).
    ``fail_after_parts`` is the fault-injection hook for the resume test
    (FIXTURES.md §4).

    ``assume_sorted=True`` skips the global ``(conv_id, turn_idx)`` sort
    and assigns doc ids in input order — valid only when the input files
    are already globally sorted (e.g. the shard-per-conv-range layout
    ``generate_transcripts`` writes). The docid-invariant test guards this
    equivalence (tests/test_index_build.py)."""
    os.makedirs(index_dir, exist_ok=True)
    resumed = resume and os.path.exists(os.path.join(index_dir, "manifest.json"))
    ids = _assign_ids(input_path, index_dir, cfg, transcripts_ds, assume_sorted, store_text, resumed)
    # The docmap has no consumer inside the build, so its write overlaps
    # the pre-pass and postings on a side thread (~40% of the wall at
    # bench scale). publish_dir makes it all-or-nothing, and leaving the
    # block joins it on every exit: a failed build never leaves it writing.
    with ThreadPoolExecutor(max_workers=1) as side:
        docmap = None if ids.docmap is None else side.submit(
            publish_dir, os.path.join(index_dir, "docmap.parquet"), ids.docmap)
        manifest = _hot_prepass(index_dir, cfg, input_path, store_positions, resumed,
                                ids.sample, ids.emit)
        _write_postings(ids.ds, index_dir, cfg, manifest, input_path, resume,
                        store_positions, fail_after_parts)
        return _finalize(index_dir, manifest, docmap)


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
