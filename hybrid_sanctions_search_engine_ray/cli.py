"""CLI entry points — the ``ray job submit`` surface.

    python -m hybrid_sanctions_search_engine_ray build  --input DIR --index DIR [--resume] [--assume-sorted]
    python -m hybrid_sanctions_search_engine_ray query  --index DIR --query "text" [--top-k K] [--with-docmap]
    python -m hybrid_sanctions_search_engine_ray query-file --index DIR --queries q.parquet --out out.parquet
    python -m hybrid_sanctions_search_engine_ray build-multi --input DIR --base DIR [--modes simple,shingle,char3]
    python -m hybrid_sanctions_search_engine_ray delete --index DIR --doc-ids 1,2,3
    python -m hybrid_sanctions_search_engine_ray compact --index DIR
    python -m hybrid_sanctions_search_engine_ray merge  --indexes A,B --out DIR [--resume]
    python -m hybrid_sanctions_search_engine_ray repartition --index DIR --out DIR2 --num-partitions P
    python -m hybrid_sanctions_search_engine_ray stats  --index DIR
    python -m hybrid_sanctions_search_engine_ray generate --out DIR --n-convs N [--seed S]

On a cluster: ``ray job submit -- python -m hybrid_sanctions_search_engine_ray build ...``
(the module initialises Ray itself only when not already initialised, so
it composes with the job driver's session).
"""

from __future__ import annotations

import argparse
import json
import sys


def _ensure_ray(num_cpus: int | None) -> None:
    import ray

    if not ray.is_initialized():
        kwargs = {"include_dashboard": False, "logging_level": "ERROR"}
        if num_cpus:
            kwargs["num_cpus"] = num_cpus
        # no explicit address: honors $RAY_ADDRESS, so `ray job submit`
        # drivers join the running cluster instead of silently starting
        # an isolated single-node instance (code-review r05 finding);
        # standalone runs still come up local ($RAY_ADDRESS unset/local)
        ray.init(ignore_reinit_error=True, **kwargs)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="hybrid_sanctions_search_engine_ray")
    p.add_argument("--num-cpus", type=int, default=None)
    sub = p.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("build")
    b.add_argument("--input", required=True)
    b.add_argument("--index", required=True)
    b.add_argument("--resume", action="store_true")
    b.add_argument("--assume-sorted", action="store_true")
    b.add_argument("--num-partitions", type=int, default=64)
    b.add_argument("--analyzer", choices=["simple", "full", "char3", "shingle"], default="simple")
    b.add_argument("--stopwords", action="store_true")
    b.add_argument("--stem", choices=["", "ru"], default="",
                   help="per-token suffix stemmer (Snowball russian)")
    b.add_argument("--store-text", action="store_true",
                   help="keep text in the docmap (phrase search via retrieve-verify)")
    b.add_argument("--store-positions", action="store_true",
                   help="build positional postings (exact phrase search, no stored text)")
    b.add_argument("--documents", action="store_true",
                   help="input is a documents table (doc_id, text) — map it to the "
                        "transcript schema instead of expecting transcript columns")

    q = sub.add_parser("query")
    q.add_argument("--index", required=True)
    q.add_argument("--query", required=True)
    q.add_argument("--top-k", type=int, default=10)
    q.add_argument("--method", choices=["maxscore", "taat"], default="maxscore")
    q.add_argument("--with-docmap", action="store_true")
    q.add_argument("--phrase", action="store_true", help="exact phrase query")

    qf = sub.add_parser("query-file")
    qf.add_argument("--index", required=True)
    qf.add_argument("--queries", required=True, help="parquet with query_id, query_text[, top_k]")
    qf.add_argument("--out", required=True)

    bm = sub.add_parser("build-multi", help="one corpus ingest → one index per analyzer field")
    bm.add_argument("--input", required=True)
    bm.add_argument("--base", required=True, help="base dir; fields land in base/field=<mode>/")
    bm.add_argument("--modes", default="simple,shingle,char3",
                    help="comma-separated analyzer modes; first build's checkpoint feeds the rest")
    bm.add_argument("--num-partitions", type=int, default=64)

    dq = sub.add_parser("delete-by-query", help="tombstone every doc matching a query "
                                                "(ES _delete_by_query)")
    dq.add_argument("--index", required=True)
    dq.add_argument("--query", required=True)

    uq = sub.add_parser("update-by-query", help="flag matching docs in a rewritten "
                                                "docmap (ES _update_by_query, metadata path)")
    uq.add_argument("--index", required=True)
    uq.add_argument("--query", required=True)
    uq.add_argument("--out", required=True, help="directory for the updated docmap")
    uq.add_argument("--set-col", default="flag")
    uq.add_argument("--set-value", type=int, default=1)

    d = sub.add_parser("delete", help="tombstone doc ids (hidden at query, purged at compact)")
    d.add_argument("--index", required=True)
    d.add_argument("--doc-ids", required=True, help="comma-separated doc ids")

    c = sub.add_parser("compact", help="physically purge tombstoned docs; exact stats correction")
    c.add_argument("--index", required=True)

    mg = sub.add_parser("merge", help="physically merge complete indexes (query-identical to federation)")
    mg.add_argument("--indexes", required=True, help="comma-separated source index dirs")
    mg.add_argument("--out", required=True)
    mg.add_argument("--resume", action="store_true")

    rp = sub.add_parser("repartition",
                        help="resize the term-partition layout (ES shrink/split analog; query-identical)")
    rp.add_argument("--index", required=True)
    rp.add_argument("--out", required=True)
    rp.add_argument("--num-partitions", type=int, required=True)

    ri = sub.add_parser("reindex",
                        help="rebuild from STORED docs with a new analyzer/layout (ES _reindex analog)")
    ri.add_argument("--index", required=True)
    ri.add_argument("--out", required=True)
    ri.add_argument("--mode", default="simple",
                    choices=["simple", "char3", "edge", "shingle", "full"])
    ri.add_argument("--num-partitions", type=int, default=16)
    ri.add_argument("--store-positions", action="store_true")
    ri.add_argument("--no-store-text", action="store_true")

    sn = sub.add_parser("snapshot", help="checksum-verified index backup (ES snapshot analog)")
    sn.add_argument("--index", required=True)
    sn.add_argument("--out", required=True)

    rs = sub.add_parser("restore", help="restore a snapshot (re-verifies checksums)")
    rs.add_argument("--snapshot", required=True)
    rs.add_argument("--out", required=True)

    s = sub.add_parser("stats")
    s.add_argument("--index", required=True)

    g = sub.add_parser("generate")
    g.add_argument("--out", required=True)
    g.add_argument("--n-convs", type=int, required=True)
    g.add_argument("--seed", type=int, default=42)

    ap = sub.add_parser("append", help="incremental ingest: delta build + physical "
                                       "merge + optional alias swap; live index untouched")
    ap.add_argument("--index", required=True, help="live index dir")
    ap.add_argument("--input", required=True, help="new transcript parquet dir/file")
    ap.add_argument("--out", required=True, help="merged output index dir")
    ap.add_argument("--registry", default=None)
    ap.add_argument("--alias", default=None)

    al = sub.add_parser("alias", help="alias registry: atomic name→index mapping "
                                      "(zero-downtime rebuild swap)")
    al.add_argument("action", choices=["set", "delete", "list", "resolve"])
    al.add_argument("--registry", required=True)
    al.add_argument("--name", default=None)
    al.add_argument("--index", default=None)

    dd = sub.add_parser("dedup", help="training-data dedup over a documents parquet "
                                      "(exact / MinHash-LSH / SimHash / line-level / SemDeDup)")
    dd.add_argument("--input", required=True, help="documents parquet (doc_id, text)")
    dd.add_argument("--out", required=True, help="output parquet directory")
    dd.add_argument("--mode", choices=["exact", "minhash", "simhash", "line", "semdedup"],
                    default="exact")
    dd.add_argument("--embeddings", default=None,
                    help="embeddings parquet (vec_id, embedding) — required for semdedup")
    dd.add_argument("--threshold", type=float, default=0.35,
                    help="cosine threshold for semdedup")

    sel = sub.add_parser("select", help="training-data selection: DSIR importance "
                                        "resampling (docs parquet) or SSL-prototype "
                                        "pruning (embeddings parquet)")
    sel.add_argument("--mode", choices=["dsir", "prototype"], default="dsir")
    sel.add_argument("--input", required=True,
                     help="dsir: documents parquet (doc_id, text, <target col>); "
                          "prototype: embeddings parquet (vec_id, embedding)")
    sel.add_argument("--out", required=True, help="output parquet directory")
    sel.add_argument("--target-lang", default="en",
                     help="dsir: lang value defining the target distribution")
    sel.add_argument("--n", type=int, default=1000, help="dsir: docs to select")
    sel.add_argument("--keep-frac", type=float, default=0.75,
                     help="prototype: fraction kept (hardest examples)")

    args = p.parse_args(argv)
    _ensure_ray(args.num_cpus)

    if args.cmd == "build":
        from hybrid_sanctions_search_engine_ray.config import AnalyzerConfig, EngineConfig
        from hybrid_sanctions_search_engine_ray.pipelines.index_build import build_index

        cfg = EngineConfig(
            num_partitions=args.num_partitions,
            analyzer=AnalyzerConfig(mode=args.analyzer, remove_stopwords=args.stopwords,
                                    stem=args.stem),
        )
        ts = None
        if args.documents:
            import ray.data as rd

            from hybrid_sanctions_search_engine_ray.sources.transcripts import (
                documents_batch_to_transcripts,
            )

            ts = rd.read_parquet(args.input, columns=["doc_id", "text"]).map_batches(
                documents_batch_to_transcripts, batch_format="pyarrow"
            )
        m = build_index(args.input, args.index, cfg, transcripts_ds=ts, resume=args.resume,
                        assume_sorted=args.assume_sorted, store_text=args.store_text,
                        store_positions=args.store_positions)
        print(json.dumps({"status": m.status, "n_docs": m.n_docs, "avgdl": round(m.avgdl, 4),
                          "n_terms": m.n_terms, "parts": len(m.parts), "hot_terms": len(m.hot_terms)}))
    elif args.cmd == "query":
        from hybrid_sanctions_search_engine_ray.pipelines.query import IndexReader, attach_docmap

        import pandas as pd

        if args.phrase:
            from hybrid_sanctions_search_engine_ray.pipelines.query import phrase_search

            out = phrase_search(args.index, args.query, top_k=args.top_k)
        else:
            r = IndexReader(args.index)
            docs, scores = r.search_one(args.query, args.top_k, method=args.method)
            out = pd.DataFrame({"rank": range(1, len(docs) + 1), "doc_id": docs.astype("int64"),
                                "score": scores})
        if args.with_docmap and len(out):
            out["query_id"] = "q"
            out = attach_docmap(out, args.index).drop(columns=["query_id"])
        print(out.to_string(index=False))
    elif args.cmd == "query-file":
        import ray.data as rd

        from hybrid_sanctions_search_engine_ray.config import EngineConfig
        from hybrid_sanctions_search_engine_ray.pipelines.query import search

        queries = rd.read_parquet(args.queries)
        search(queries, args.index, EngineConfig()).write_parquet(args.out)
        print(json.dumps({"written": args.out}))
    elif args.cmd == "build-multi":
        from hybrid_sanctions_search_engine_ray.config import EngineConfig
        from hybrid_sanctions_search_engine_ray.pipelines.index_build import build_multi_field

        modes = tuple(m.strip() for m in args.modes.split(",") if m.strip())
        ms = build_multi_field(args.input, args.base,
                               EngineConfig(num_partitions=args.num_partitions), modes=modes)
        print(json.dumps({m: {"status": man.status, "n_docs": man.n_docs} for m, man in ms.items()}))
    elif args.cmd == "delete":
        from hybrid_sanctions_search_engine_ray.pipelines.maintenance import delete_docs

        ids = [int(x) for x in args.doc_ids.split(",") if x.strip()]
        total = delete_docs(args.index, ids)
        print(json.dumps({"tombstones_pending": total}))
    elif args.cmd == "delete-by-query":
        from hybrid_sanctions_search_engine_ray.pipelines.maintenance import delete_by_query

        n = delete_by_query(args.index, args.query)
        print(json.dumps({"newly_tombstoned": n}))
    elif args.cmd == "update-by-query":
        from hybrid_sanctions_search_engine_ray.pipelines.maintenance import update_by_query

        stats = update_by_query(args.index, args.query, args.out,
                                set_col=args.set_col, set_value=args.set_value)
        print(json.dumps(stats))
    elif args.cmd == "compact":
        from hybrid_sanctions_search_engine_ray.pipelines.maintenance import compact_index

        m = compact_index(args.index)
        print(json.dumps({"status": m.status, "n_docs": m.n_docs, "avgdl": round(m.avgdl, 4)}))
    elif args.cmd == "merge":
        from hybrid_sanctions_search_engine_ray.pipelines.maintenance import merge_indexes

        m = merge_indexes(args.indexes.split(","), args.out, resume=args.resume)
        print(json.dumps({"status": m.status, "n_docs": m.n_docs, "avgdl": round(m.avgdl, 4),
                          "n_terms": m.n_terms, "parts": len(m.parts)}))
    elif args.cmd == "repartition":
        from hybrid_sanctions_search_engine_ray.pipelines.maintenance import repartition_index

        m = repartition_index(args.index, args.out, args.num_partitions)
        print(json.dumps({"status": m.status, "num_partitions": m.num_partitions,
                          "n_terms": m.n_terms, "parts": len(m.parts)}))
    elif args.cmd == "reindex":
        from hybrid_sanctions_search_engine_ray.config import AnalyzerConfig, EngineConfig
        from hybrid_sanctions_search_engine_ray.pipelines.maintenance import reindex

        cfg = EngineConfig(num_partitions=args.num_partitions,
                           analyzer=AnalyzerConfig(mode=args.mode))
        m = reindex(args.index, args.out, cfg,
                    store_positions=args.store_positions,
                    store_text=not args.no_store_text)
        print(json.dumps({"status": m.status, "n_docs": m.n_docs,
                          "analyzer": args.mode, "parts": len(m.parts)}))
    elif args.cmd == "snapshot":
        from hybrid_sanctions_search_engine_ray.pipelines.maintenance import snapshot_index

        rec = snapshot_index(args.index, args.out)
        print(json.dumps(rec))
    elif args.cmd == "restore":
        from hybrid_sanctions_search_engine_ray.pipelines.maintenance import restore_index

        m = restore_index(args.snapshot, args.out)
        print(json.dumps({"status": m.status, "n_docs": m.n_docs, "parts": len(m.parts)}))
    elif args.cmd == "stats":
        from hybrid_sanctions_search_engine_ray.pipelines.index_build import index_stats

        st = index_stats(args.index)
        st.pop("parts", None)
        st.pop("hot_terms", None)
        print(json.dumps(st, default=str))
    elif args.cmd == "generate":
        from hybrid_sanctions_search_engine_ray.sources.transcripts import generate_transcripts

        out = generate_transcripts(args.out, n_convs=args.n_convs, seed=args.seed)
        print(json.dumps({"generated": out}))
    elif args.cmd == "append":
        import ray.data as rd

        from hybrid_sanctions_search_engine_ray.pipelines.maintenance import append_documents

        new_ds = rd.read_parquet(args.input)
        m = append_documents(args.index, new_ds, args.out,
                             registry=args.registry, alias=args.alias)
        print(json.dumps({"status": m.status, "n_docs": m.n_docs, "out": args.out}))
    elif args.cmd == "dedup":
        import shutil

        import ray.data as rd

        if args.mode == "semdedup":
            if not args.embeddings:
                p.error("--embeddings is required for --mode semdedup")
            from hybrid_sanctions_search_engine_ray.stages.similarity import semdedup

            out_ds = semdedup(
                rd.read_parquet(args.embeddings, columns=["vec_id", "embedding"]),
                threshold=args.threshold,
            )
        else:
            ds = rd.read_parquet(args.input, columns=["doc_id", "text"])
            if args.mode == "exact":
                from hybrid_sanctions_search_engine_ray.stages.dedup import (
                    exact_dedup_groups,
                )

                out_ds = exact_dedup_groups(ds)
            elif args.mode == "minhash":
                from hybrid_sanctions_search_engine_ray.stages.dedup import (
                    minhash_candidate_pairs,
                )

                out_ds = minhash_candidate_pairs(ds)
            elif args.mode == "simhash":
                from hybrid_sanctions_search_engine_ray.stages.dedup import simhash64

                out_ds = ds.map_batches(simhash64, batch_format="pyarrow")
            else:  # line
                from hybrid_sanctions_search_engine_ray.stages.dedup import line_dedup

                out_ds = line_dedup(ds)
        shutil.rmtree(args.out, ignore_errors=True)
        out_ds.write_parquet(args.out)
        n = rd.read_parquet(args.out).count()
        print(json.dumps({"mode": args.mode, "rows": int(n), "out": args.out}))
    elif args.cmd == "select":
        import shutil

        import pyarrow.compute as _pc
        import ray.data as rd

        if args.mode == "dsir":
            from hybrid_sanctions_search_engine_ray.stages.dsir import dsir_select

            ds = rd.read_parquet(args.input, columns=["doc_id", "text", "lang"]) \
                   .map_batches(lambda b: b.append_column(
                       "is_target", _pc.equal(b["lang"], args.target_lang)),
                       batch_format="pyarrow")
            out_df = dsir_select(ds, "is_target", n_select=args.n)
        else:
            from hybrid_sanctions_search_engine_ray.stages.similarity import prototype_prune

            out_df = prototype_prune(
                rd.read_parquet(args.input, columns=["vec_id", "embedding"]),
                keep_frac=args.keep_frac,
            ).to_pandas()
        shutil.rmtree(args.out, ignore_errors=True)
        rd.from_pandas(out_df).write_parquet(args.out)
        print(json.dumps({"mode": args.mode, "rows": int(len(out_df)), "out": args.out}))
    elif args.cmd == "alias":
        from hybrid_sanctions_search_engine_ray.state import aliases as al_mod

        if args.action == "set":
            if not (args.name and args.index):
                p.error("alias set requires --name and --index")
            al_mod.set_alias(args.registry, args.name, args.index)
            print(json.dumps({args.name: al_mod.resolve_alias(args.registry, args.name)}))
        elif args.action == "delete":
            if not args.name:
                p.error("alias delete requires --name")
            al_mod.delete_alias(args.registry, args.name)
            print(json.dumps(al_mod.list_aliases(args.registry)))
        elif args.action == "list":
            print(json.dumps(al_mod.list_aliases(args.registry)))
        else:
            if not args.name:
                p.error("alias resolve requires --name")
            print(json.dumps({args.name: al_mod.resolve_alias(args.registry, args.name)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
