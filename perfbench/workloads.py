"""The three workloads. Each runs set-up several times (``setup_s`` is the
median), checks the engine against the oracle, then measures one closed
loop driven by a single client for ``--seconds``.

* ``lifecycle`` (Ray up): set-up is the index lifecycle — a fresh
  ``build_index``, ``delete_docs`` on a seeded 5% of doc ids, then
  ``compact_index``. The timed loop runs ``pipelines.query.search`` over a
  large query batch on the compacted index. Analyzer, shuffle, segment
  writes, compaction's decode and re-encode, scorer actors.
* ``query_cold`` (Ray down while timed): set-up builds the index and
  deletes 5% (pending tombstones, no compaction). Each timed query opens
  a fresh ``IndexReader`` and calls ``search_one`` once, as the CLI
  ``query`` verb does: partition reads, varint decode, tombstone filter.
* ``query_warm`` (Ray down while timed): the same set-up, one long-lived
  reader warmed on the same queries before timing, so no partition is
  read: analyzer and ``score_maxscore``.

Every workload reports the same end-to-end metrics, each measured on its
own timed loop: ``qps``, ``query_p50_ms`` and ``query_p99_ms`` (for a
``search`` batch, a query's latency runs from the start of its scorer
batch in the actor to the arrival of its rows, see :func:`_batch_loop`),
``peak_rss_mb`` of the timed phase, ``index_bytes_per_text_byte`` of the
index it built, and ``setup_s``.

A traced run (``--trace 1``) measures everything untraced first, then
installs the wrappers of :mod:`perfbench.trace` and repeats the set-up and
the timed loop with tracing on.
"""

from __future__ import annotations

import gc
import os
import shutil
import statistics
import time
from array import array
from dataclasses import dataclass, field

from perfbench import hostspeed, inputs, trace
from perfbench.oracle import Oracle, ranking_mismatch


@dataclass(frozen=True)
class Scale:
    n_convs: int
    cold_queries: int      # query list of query_cold: one pass; p99 needs 1,000
    warm_queries: int      # query list of query_warm
    batch_queries: int     # queries per search() call in lifecycle
    setups: int
    oracle_queries: int


FULL = Scale(n_convs=2000, cold_queries=1000, warm_queries=6000, batch_queries=20000,
             setups=3, oracle_queries=40)
SMOKE = Scale(n_convs=40, cold_queries=40, warm_queries=60, batch_queries=200,
              setups=1, oracle_queries=8)

NUM_CPUS = 2           # Ray slots, fixed whatever the host has
NUM_PARTITIONS = 16
SCORER_CONCURRENCY = 2


def engine_config():
    from hybrid_sanctions_search_engine_ray.config import AnalyzerConfig, EngineConfig

    return EngineConfig(num_partitions=NUM_PARTITIONS, scorer_concurrency=SCORER_CONCURRENCY,
                        analyzer=AnalyzerConfig(mode="simple"))


@dataclass
class Run:
    seed: int
    seconds: float
    scale: Scale
    work: str
    corpus_dir: str
    tracer: trace.Tracer | None
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    info: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)      # name -> value
    layers: dict = field(default_factory=dict)       # per-layer name -> value

    def check(self, what: str, problem: str | None, ops: int = 1) -> None:
        self.attempted += ops
        if problem is not None:
            self.failed += ops
            self.errors.append(f"{what}: {problem}")

    def traced(self, on: bool) -> None:
        if self.tracer is not None:
            self.tracer.set_enabled(on)


# --- shared pieces ------------------------------------------------------------


def _vm_hwm_mb() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def _reset_vm_hwm() -> None:
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")


def _dir_bytes(path: str) -> int:
    if os.path.isfile(path):
        return os.path.getsize(path)
    return sum(os.path.getsize(os.path.join(d, f)) for d, _, fs in os.walk(path) for f in fs)


def _segment_files(index_dir: str) -> dict[str, tuple[int, int]]:
    seg = os.path.join(index_dir, "segments")
    out = {}
    for part in sorted(os.listdir(seg)):
        f = os.path.join(seg, part, "postings.parquet")
        if os.path.exists(f):
            st = os.stat(f)
            out[part] = (st.st_ino, st.st_size)
    return out


def _index_layers(index_dir: str, corpus: inputs.Corpus) -> dict:
    from hybrid_sanctions_search_engine_ray.state.manifest import IndexManifest

    m = IndexManifest.load(index_dir)
    n_post = [p.get("n_postings", 0) for p in m.parts.values()]
    seg_bytes = _dir_bytes(os.path.join(index_dir, "segments"))
    return {
        "index_build.hot_terms": float(len(m.hot_terms)),
        "postings.partition_skew": max(n_post) / statistics.mean(n_post) if n_post else 0.0,
        "postings.segment_bytes": float(seg_bytes),
        "index_bytes_per_text_byte":
            (seg_bytes + _dir_bytes(os.path.join(index_dir, "docmap.parquet"))) / corpus.text_bytes,
    }


def _build(run: Run, corpus: inputs.Corpus, index_dir: str, dels: list[int],
           compact: bool) -> dict:
    """One set-up: fresh build, delete, and (lifecycle) compaction.
    Returns its phase times and, when traced, its per-layer metrics."""
    from hybrid_sanctions_search_engine_ray.pipelines.index_build import build_index
    from hybrid_sanctions_search_engine_ray.pipelines.maintenance import compact_index, delete_docs

    shutil.rmtree(index_dir, ignore_errors=True)
    t0 = time.monotonic()
    build_index(corpus.path, index_dir, engine_config(), assume_sorted=True)
    t1 = time.monotonic()
    delete_docs(index_dir, dels)
    t2 = time.monotonic()
    before = _segment_files(index_dir) if compact else {}
    if compact:
        compact_index(index_dir)
    t3 = time.monotonic()
    out = {"setup_s": t3 - t0, "build_s": t1 - t0, "delete_ms": (t2 - t1) * 1000.0,
           "compact_s": t3 - t2}
    if compact:
        after = _segment_files(index_dir)
        changed = [p for p in after if before.get(p) != after[p]]
        out["compact_parts_rewritten"] = float(len(changed))
        out["compact_bytes_rewritten"] = float(sum(after[p][1] for p in changed))
    if run.tracer is not None and run.tracer.active():
        out["layers"] = trace.build_layer_metrics(run.tracer.collect(), t0, t1)
    return out


def _setups(run: Run, corpus: inputs.Corpus, dels: list[int], compact: bool) -> str:
    """Run the set-up ``scale.setups`` times, untraced, with a host-speed
    probe before and after each; ``setup_s`` is the median scaled time.
    Returns the index the timed loop uses."""
    results, index_dir = [], ""
    before = hostspeed.probe()
    for i in range(run.scale.setups):
        if index_dir:
            shutil.rmtree(index_dir, ignore_errors=True)
        index_dir = os.path.join(run.work, f"index-{i}")
        r = _build(run, corpus, index_dir, dels, compact)
        after = hostspeed.probe()
        r["scale"] = hostspeed.scale([before, after])
        before = after
        results.append(r)
    run.metrics["setup_s"] = statistics.median(r["setup_s"] * r["scale"] for r in results)
    run.info["setup_s_unscaled"] = [r["setup_s"] for r in results]
    for key in ("build_s", "delete_ms", "compact_s"):
        run.info[key] = statistics.median(r[key] for r in results)
    run.info["build_turns_per_s"] = len(corpus.texts) / run.info["build_s"]
    run.metrics["index_bytes_per_text_byte"] = \
        _index_layers(index_dir, corpus)["index_bytes_per_text_byte"]
    return index_dir


def _traced_setup(run: Run, corpus: inputs.Corpus, dels: list[int], compact: bool) -> str:
    """The set-up twice with tracing on; the second, which finds Ray
    Data's workers started as the median untraced set-up does, gives the
    per-layer metrics and ``trace.overhead_setup_s``."""
    index_dir = os.path.join(run.work, "index-traced")
    run.traced(True)
    for _ in range(2):
        before = hostspeed.probe()
        r = _build(run, corpus, index_dir, dels, compact)
    run.traced(False)
    setup_s = r["setup_s"] * hostspeed.scale([before, hostspeed.probe()])
    run.layers.update(r["layers"])
    run.layers["index_build.wall_s"] = r["build_s"]
    run.layers["maintenance.delete_ms"] = r["delete_ms"]
    run.layers["maintenance.compact_s"] = r["compact_s"] if compact else 0.0
    run.layers["maintenance.compact_parts_rewritten"] = r.get("compact_parts_rewritten", 0.0)
    run.layers["maintenance.compact_bytes_rewritten"] = r.get("compact_bytes_rewritten", 0.0)
    run.layers["trace.overhead_setup_s"] = setup_s / run.metrics["setup_s"] - 1.0
    idx = _index_layers(index_dir, corpus)
    del idx["index_bytes_per_text_byte"]
    run.layers.update(idx)
    return index_dir


def _traced_session(run: Run, ray_session):
    """Install the main-process wrappers and open a Ray session whose
    workers install theirs. Every untraced phase runs before this, so the
    untraced numbers come from unwrapped code."""
    trace.install_main(run.tracer)
    return ray_session(traced=True)


def _check_oracle(run: Run, index_dir: str, oracle: Oracle, sample: list[dict],
                  dels: list[int], purged: bool) -> dict:
    """Compare ``search_one`` on a fresh reader with the oracle for each
    sampled query; returns the engine's results by query id."""
    from hybrid_sanctions_search_engine_ray.pipelines.query import IndexReader

    deleted = frozenset(dels)
    reader = IndexReader(index_dir)
    got_all = {}
    for q in sample:
        try:
            docs, scores = reader.search_one(q["query_text"], q["top_k"])
        except Exception as e:  # counted as a failed operation, run continues
            run.check(f"oracle {q['query_id']}", f"search_one raised {e!r}")
            continue
        got = list(zip((int(d) for d in docs), (float(s) for s in scores)))
        got_all[q["query_id"]] = got
        run.check(f"oracle {q['query_id']} {q['query_text']!r}",
                  ranking_mismatch(got, oracle.scores(q["query_text"], deleted, purged), q["top_k"]))
    return got_all


def _latency_metrics(lat_s: list[float]) -> dict:
    lat_ms = sorted(x * 1000.0 for x in lat_s)
    q = statistics.quantiles(lat_ms, n=100, method="inclusive")
    return {"query_p50_ms": statistics.median(lat_ms), "query_p99_ms": q[98]}


def _report_timed(run: Run, untraced: dict, traced: dict | None) -> None:
    for k in ("qps", "query_p50_ms", "query_p99_ms"):
        run.metrics[k] = untraced[k]
    for k in ("timed_queries", "passes", "unscaled", "probe_ms"):
        run.info[k] = untraced[k]
    if traced is not None:
        for k in ("qps", "query_p50_ms", "query_p99_ms"):
            run.layers[f"trace.overhead_{k}"] = traced[k] / untraced[k] - 1.0


# --- workloads -----------------------------------------------------------------


def _single_query_loop(run: Run, queries: list[dict], op, probe_kind: str) -> dict:
    """Closed loop, one client: whole passes of ``op(query)`` over the
    query list until ``seconds`` have passed, with a ``probe_kind``
    host-speed probe about every ``PROBE_EVERY_S[probe_kind]``. Each
    call's time is scaled by the probes on either side of it; a query's
    latency is the median of its scaled calls, and ``qps`` is the query
    count over the sum of those latencies. Whole passes keep the
    stratified query mix exact. The cyclic garbage
    collector runs between passes, not inside them."""
    probes = [hostspeed.probe(probe_kind)]
    # per call: query index, seconds, index of the probe before the call
    # (flat arrays, so the bookkeeping adds little to peak_rss_mb)
    call_q, call_s, call_p = array("l"), array("d"), array("l")
    passes = 0
    t_start = time.monotonic()
    next_probe = t_start + hostspeed.PROBE_EVERY_S[probe_kind]
    while not passes or time.monotonic() - t_start < run.seconds:
        gc.collect()
        gc.disable()
        try:
            for i, q in enumerate(queries):
                t0 = time.perf_counter()
                try:
                    op(q)
                except Exception as e:  # counted as a failed operation, loop continues
                    run.check(f"timed {q['query_id']}", f"raised {e!r}")
                else:
                    run.attempted += 1
                call_s.append(time.perf_counter() - t0)
                call_q.append(i)
                call_p.append(len(probes) - 1)
                if time.monotonic() >= next_probe:
                    probes.append(hostspeed.probe(probe_kind))
                    next_probe = time.monotonic() + hostspeed.PROBE_EVERY_S[probe_kind]
        finally:
            gc.enable()
        passes += 1
    probes.append(hostspeed.probe(probe_kind))
    scales = [hostspeed.scale([a, b], probe_kind) for a, b in zip(probes, probes[1:])]
    scaled: list[list[float]] = [[] for _ in queries]
    unscaled: list[list[float]] = [[] for _ in queries]
    for i, dt, k in zip(call_q, call_s, call_p):
        scaled[i].append(dt * scales[k])
        unscaled[i].append(dt)

    def metrics(per_call):
        lat = [statistics.median(x) for x in per_call]
        return {**_latency_metrics(lat), "qps": len(lat) / sum(lat)}
    return {**metrics(scaled), "unscaled": metrics(unscaled), "timed_queries": len(call_s),
            "passes": passes, "probe_ms": statistics.median(probes) * 1000.0}


def _timed_queries(run: Run, index_dir: str, queries: list[dict], warm: bool,
                   traced: bool = False) -> dict:
    """Warm up, then run the single-query loop on ``index_dir``: one
    long-lived reader (warm) or a fresh reader per query (cold). Calls are
    scaled by the ``sort`` probe (warm) or the ``read`` probe (cold), see
    :mod:`perfbench.hostspeed`. Tracing, when asked for, covers the loop
    only."""
    from hybrid_sanctions_search_engine_ray.pipelines.query import IndexReader

    if warm:
        reader = IndexReader(index_dir)

        def op(q):
            reader.search_one(q["query_text"], q["top_k"])
    else:
        tracer = run.tracer

        def op(q):
            if tracer is not None and tracer.active():
                tracer.qid = tracer.new_qid()
                with tracer.span("query.op"):
                    IndexReader(index_dir).search_one(q["query_text"], q["top_k"])
                tracer.qid = None
            else:
                IndexReader(index_dir).search_one(q["query_text"], q["top_k"])

    # untimed: fill the reader's posting cache in one batched load, as a
    # scorer actor does, then a pass over the queries (warm); or only the
    # process's lazy imports (cold)
    if warm:
        reader.load_postings(sorted({t for q in queries for t in reader.analyzer(q["query_text"])}))
    for q in (queries if warm else queries[:20]):
        op(q)
    gc.collect()
    _reset_vm_hwm()
    run.traced(traced)
    try:
        return _single_query_loop(run, queries, op, "sort" if warm else "read")
    finally:
        run.traced(False)


def _query_workload(run: Run, warm: bool, ray_session) -> None:
    with ray_session():
        corpus = inputs.make_corpus(run.corpus_dir, run.seed, run.scale.n_convs)
        dels = inputs.delete_ids(len(corpus.texts), run.seed)
        index_dir = _setups(run, corpus, dels, compact=False)
    oracle = Oracle(corpus.texts)
    queries = inputs.make_queries(oracle, run.seed,
                                  run.scale.warm_queries if warm else run.scale.cold_queries)
    _record_inputs(run, corpus, queries, dels)
    untraced = _timed_queries(run, index_dir, queries, warm)
    run.metrics["peak_rss_mb"] = _vm_hwm_mb()
    _check_oracle(run, index_dir, oracle, inputs.oracle_sample(queries, run.seed, run.scale.oracle_queries),
                  dels, purged=False)
    traced = None
    if run.tracer is not None:
        with _traced_session(run, ray_session):
            index_dir = _traced_setup(run, corpus, dels, compact=False)
        traced = _timed_queries(run, index_dir, queries, warm, traced=True)
        run.layers.update(trace.query_layer_metrics(run.tracer.collect()))
    _report_timed(run, untraced, traced)


def query_cold(run: Run, ray_session) -> None:
    _query_workload(run, warm=False, ray_session=ray_session)


def query_warm(run: Run, ray_session) -> None:
    _query_workload(run, warm=True, ray_session=ray_session)


def stamp_batch(batch):
    """Tag each query id with the wall-clock time its batch starts. Ray
    Data fuses this map into the scorer actors' map, so it runs in the
    actor just before the batch is scored."""
    batch["query_id"] = batch["query_id"] + "@" + repr(time.time())
    return batch


def _batch_loop(run: Run, queries: list[dict], index_dir: str, keep: set[str]) -> tuple[dict, dict]:
    """Closed loop of ``search()`` calls over the whole batch for about
    ``seconds``. ``qps`` is queries over the calls' wall time, actor
    start-up included. A query's latency runs from the start of its
    scorer batch in the actor to the arrival of its rows in this process,
    so actor start-up and queueing stay out; a query with no hits has no
    rows and no latency. Times are scaled by the median of host-speed
    probes taken in this process about every ``PROBE_EVERY_S["sort"]``
    between blocks. Returns the metrics and the rows of the ``keep`` query ids from
    the first call."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.pipelines.query import search

    cfg = engine_config()
    lat: list[float] = []
    kept: dict[str, list] = {}
    calls = 0
    probes = [hostspeed.probe()]
    t_start = time.monotonic()
    next_probe = t_start + hostspeed.PROBE_EVERY_S["sort"]
    while True:
        t0 = time.monotonic()
        stamped = rd.from_items(queries).map_batches(
            stamp_batch, batch_format="pandas", batch_size=cfg.score_batch_size)
        try:
            for block in search(stamped, index_dir, cfg).iter_batches(batch_size=None, batch_format="pandas"):
                now = time.time()
                parts = block["query_id"].str.rsplit("@", n=1, expand=True)
                firsts = ~parts[0].duplicated()
                lat.extend((now - parts[1][firsts].astype(float)).tolist())
                if not calls:
                    block["query_id"] = parts[0]
                    for row in block[block["query_id"].isin(keep)].itertuples(index=False):
                        kept.setdefault(row.query_id, []).append((row.rank, int(row.doc_id), float(row.score)))
                if time.monotonic() >= next_probe:
                    probes.append(hostspeed.probe())
                    next_probe = time.monotonic() + hostspeed.PROBE_EVERY_S["sort"]
        except Exception as e:  # counted as failed operations, loop continues
            run.check("search() batch", f"raised {e!r}", ops=len(queries))
        else:
            run.attempted += len(queries)
        calls += 1
        call_s = time.monotonic() - t0
        # stop at ``seconds``, or earlier when one more call would end well
        # past it: a call is one indivisible batch
        elapsed = time.monotonic() - t_start
        if elapsed >= run.seconds or elapsed + call_s > 1.25 * run.seconds:
            break
    probes.append(hostspeed.probe())
    scale = hostspeed.scale(probes)
    unscaled = {**_latency_metrics(lat), "qps": calls * len(queries) / elapsed}
    return {**_latency_metrics([x * scale for x in lat]), "qps": unscaled["qps"] / scale,
            "unscaled": unscaled, "timed_queries": calls * len(queries), "passes": calls,
            "probe_ms": statistics.median(probes) * 1000.0}, kept


def lifecycle(run: Run, ray_session) -> None:
    with ray_session():
        corpus = inputs.make_corpus(run.corpus_dir, run.seed, run.scale.n_convs)
        dels = inputs.delete_ids(len(corpus.texts), run.seed)
        index_dir = _setups(run, corpus, dels, compact=True)
        oracle = Oracle(corpus.texts)
        queries = inputs.make_queries(oracle, run.seed, run.scale.batch_queries)
        _record_inputs(run, corpus, queries, dels)
        sample = inputs.oracle_sample(queries, run.seed, run.scale.oracle_queries)
        gc.collect()
        _reset_vm_hwm()
        untraced, kept = _batch_loop(run, queries, index_dir, {q["query_id"] for q in sample})
        run.metrics["peak_rss_mb"] = _vm_hwm_mb()
        one = _check_oracle(run, index_dir, oracle, sample, dels, purged=True)
        for qid, got in one.items():
            rows = sorted(kept.get(qid, []))
            batch = [(d, s) for _, d, s in rows]
            same = [r for r, _, _ in rows] == list(range(1, len(rows) + 1)) and batch == got
            run.check(f"batch == search_one {qid}", None if same else f"batch {batch[:3]}… != {got[:3]}…")
    traced = None
    if run.tracer is not None:
        with _traced_session(run, ray_session):
            index_dir = _traced_setup(run, corpus, dels, compact=True)
            run.traced(True)
            traced, _ = _batch_loop(run, queries, index_dir, set())
            run.traced(False)
            run.layers.update(trace.query_layer_metrics(run.tracer.collect()))
    _report_timed(run, untraced, traced)


def _record_inputs(run: Run, corpus: inputs.Corpus, queries: list[dict], dels: list[int]) -> None:
    run.info.update(corpus_turns=len(corpus.texts), corpus_text_bytes=corpus.text_bytes,
                    queries=len(queries),
                    oov_queries=sum(q["query_text"].startswith("zzoov") for q in queries),
                    deleted_docs=len(dels))


WORKLOADS = {"lifecycle": lifecycle, "query_cold": query_cold, "query_warm": query_warm}
