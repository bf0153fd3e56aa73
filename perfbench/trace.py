"""Span tracing for the traced (``--trace 1``) benchmark run.

Spans are recorded around calls into the engine's public functions, from
this package only: the engine itself is not modified. Each span carries a
name, start, end, parent span and query id, plus optional counts. Spans
stay in memory; a Ray worker appends its finished root spans to
``<trace_dir>/spans-<pid>.jsonl`` (a worker has no reliable exit hook),
and the main process reads those files when a traced phase ends.

Two places get wrappers:

* the main process, through :func:`install_main` (query path, doc-id read);
* every Ray worker, through :func:`worker_setup`, which Ray runs as the
  ``worker_process_setup_hook`` of the traced session (build stages,
  scorer actors, the query path inside scorer actors, compaction's
  tombstone filter).

Build-stage functions are wrapped in the workers only. Ray pickles them
by reference from the main process, so the worker resolves the wrapped
module attribute; wrapping them in the main process too would make
cloudpickle ship the unwrapped code by value.

A run installs the wrappers only after its untraced phases: those run in
the unwrapped main process and in a Ray session without the hook, so
``trace.overhead_*`` compares traced code with unwrapped code. A worker
of the traced session traces every call; the main process switches
tracing on and off, so warm-ups stay out of the spans.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import statistics
import threading
import time

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"


class Span:
    """One traced call; also the context manager that records it."""

    __slots__ = ("id", "name", "start", "end", "parent", "qid", "counts", "_tracer")

    def __init__(self, sid, name, start, parent, qid, tracer=None):
        self.id, self.name, self.start, self.parent, self.qid = sid, name, start, parent, qid
        self.end = start
        self.counts: dict[str, float] = {}
        self._tracer = tracer

    def count(self, **kw) -> None:
        for k, v in kw.items():
            self.counts[k] = self.counts.get(k, 0) + v

    def __enter__(self) -> "Span":
        self._tracer._stack.append(self)
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc) -> None:
        self.end = time.monotonic()
        self._tracer._finish(self)

    def to_row(self) -> list:
        return [self.id, self.name, self.start, self.end, self.parent, self.qid, self.counts]

    @classmethod
    def from_row(cls, row: list) -> "Span":
        sp = cls(*row[:2], row[2], row[4], row[5])
        sp.end, sp.counts = row[3], row[6]
        return sp


class Tracer:
    """Per-process span recorder.

    The main process's tracer starts disabled and is switched with
    :meth:`set_enabled`. A worker tracer (``worker=True``) is always on and
    appends each finished root span, with its children, to its own
    JSON-lines file."""

    def __init__(self, trace_dir: str, worker: bool = False):
        self.trace_dir = trace_dir
        self.worker = worker
        self.enabled = worker
        self.qid: str | None = None
        self.spans: list[Span] = []
        self._local = threading.local()
        self._ids = itertools.count()
        self._prefix = f"{os.getpid()}-"
        self._out = os.path.join(trace_dir, f"spans-{os.getpid()}.jsonl")

    def set_enabled(self, on: bool) -> None:
        self.enabled = on

    @property
    def _stack(self) -> list[Span]:
        return self._local.__dict__.setdefault("stack", [])

    def active(self) -> bool:
        return self.enabled

    def in_span(self) -> bool:
        return bool(self._stack)

    def new_qid(self) -> str:
        return self._prefix + "q" + str(next(self._ids))

    def span(self, name: str) -> Span:
        stack = self._stack
        return Span(self._prefix + str(next(self._ids)), name, 0.0,
                    stack[-1].id if stack else None, self.qid, self)

    def _finish(self, sp: Span) -> None:
        stack = self._stack
        stack.pop()
        self.spans.append(sp)
        if self.worker and not stack:
            self.flush()

    def flush(self) -> None:
        if not self.spans:
            return
        with open(self._out, "a") as f:
            f.write(json.dumps([s.to_row() for s in self.spans]) + "\n")
        self.spans = []

    def collect(self) -> list[Span]:
        """Take this process's spans plus every worker's flushed spans."""
        out, self.spans = self.spans, []
        for fn in sorted(os.listdir(self.trace_dir)):
            if fn.startswith("spans-") and fn.endswith(".jsonl"):
                path = os.path.join(self.trace_dir, fn)
                with open(path) as f:
                    for line in f:
                        if line.strip():
                            out.extend(Span.from_row(r) for r in json.loads(line))
                os.remove(path)
        return out


# --- wrappers ----------------------------------------------------------------


def _patch(owner, attr: str, wrapper) -> None:
    """Install ``wrapper`` as ``owner.attr`` under the original's name, so
    cloudpickle still pickles it by reference."""
    orig = getattr(owner, attr)
    functools.update_wrapper(wrapper, orig)
    setattr(owner, attr, wrapper)


def _timed(tracer: Tracer, name: str, fn, counter=None, nested_only=False):
    """Wrap ``fn`` in a span. ``nested_only`` spans are recorded only under
    another span: compaction calls the tombstone filter once per posting
    row, outside any query, and those calls are not measured."""
    def wrapper(*a, **kw):
        if not tracer.active() or (nested_only and not tracer.in_span()):
            return fn(*a, **kw)
        with tracer.span(name) as sp:
            out = fn(*a, **kw)
            if counter is not None:
                counter(sp, a, out)
            return out
    return wrapper


class _TracedDatasetModule:
    """Stands in for ``pyarrow.dataset`` inside ``pipelines.query``: the
    segment-file open plus the filtered ``to_table`` read is one
    ``query.read`` span, counting files and Arrow bytes returned."""

    def __init__(self, real, tracer: Tracer):
        self._real, self._tracer = real, tracer

    def __getattr__(self, name):
        return getattr(self._real, name)

    def dataset(self, source, *a, **kw):
        real, tracer = self._real, self._tracer
        if not tracer.active():
            return real.dataset(source, *a, **kw)

        class _Lazy:
            def to_table(self, *ta, **tkw):
                with tracer.span("query.read") as sp:
                    t = real.dataset(source, *a, **kw).to_table(*ta, **tkw)
                    sp.count(files=1, bytes=t.nbytes)
                return t

            def __getattr__(self, name):
                return getattr(real.dataset(source, *a, **kw), name)

        return _Lazy()


def _install_query_path(tracer: Tracer) -> None:
    from hybrid_sanctions_search_engine_ray.pipelines import maintenance, query

    reader = query.IndexReader
    _patch(reader, "__init__", _timed(tracer, "query.reader_open", reader.__init__))

    orig_load = reader.load_postings

    def load_postings(self, terms):
        if not tracer.active():
            return orig_load(self, terms)
        uniq = set(terms)
        hits = sum(1 for t in uniq if t in self._postings)
        with tracer.span("query.load_postings") as sp:
            sp.count(cache_hits=hits, cache_misses=len(uniq) - hits)
            return orig_load(self, terms)
    _patch(reader, "load_postings", load_postings)

    orig_search = reader.search_one

    def search_one(self, *a, **kw):
        if not tracer.active():
            return orig_search(self, *a, **kw)
        own_qid = tracer.qid is None
        if own_qid:  # inside a scorer actor: one query id per call
            tracer.qid = tracer.new_qid()
        try:
            with tracer.span("query.search_one") as sp:
                docs, scores = orig_search(self, *a, **kw)
                sp.count(hits=int(docs.size))
                return docs, scores
        finally:
            if own_qid:
                tracer.qid = None
    _patch(reader, "search_one", search_one)

    orig_get_analyzer = query.get_analyzer

    def get_analyzer(cfg):
        return _timed(tracer, "analyzer.analyze", orig_get_analyzer(cfg))
    _patch(query, "get_analyzer", get_analyzer)

    _patch(query, "decode_posting", _timed(
        tracer, "codec.decode", query.decode_posting,
        lambda sp, a, out: sp.count(postings=int(out[0].size)), nested_only=True))
    _patch(maintenance, "tombstone_mask", _timed(
        tracer, "maintenance.tombstone", maintenance.tombstone_mask,
        lambda sp, a, out: sp.count(checked=int(out.size), tombstoned=int(out.sum())),
        nested_only=True))
    _patch(query, "score_maxscore", _timed(tracer, "bm25.score", query.score_maxscore))
    query.pads = _TracedDatasetModule(query.pads, tracer)


def install_main(tracer: Tracer) -> None:
    """Wrap the main process's calls: the query path (cold and warm loops) and
    the doc-id-attaching corpus read of ``build_index``."""
    from hybrid_sanctions_search_engine_ray.pipelines import index_build

    _install_query_path(tracer)
    orig_ids = index_build.read_sorted_parquet_with_ids

    def read_sorted_parquet_with_ids(*a, **kw):
        if not tracer.active():
            return orig_ids(*a, **kw)
        # build_index materializes this read at once for corpora under
        # in_memory_build_bytes (the benchmark's size), so doing it inside
        # the span only moves that work into the span
        with tracer.span("index_build.ids"):
            return orig_ids(*a, **kw).materialize()
    _patch(index_build, "read_sorted_parquet_with_ids", read_sorted_parquet_with_ids)


def worker_setup() -> None:
    """Ray ``worker_process_setup_hook``: wrap build stages, scorer actors
    and the query path in this worker process."""
    from hybrid_sanctions_search_engine_ray.pipelines import query
    from hybrid_sanctions_search_engine_ray.stages import analyze, postings

    tracer = Tracer(os.environ[TRACE_DIR_ENV], worker=True)
    _install_query_path(tracer)

    def emitted(sp, a, out):
        sp.count(postings=out.num_rows - 1)  # minus the one sentinel row

    _patch(analyze, "emit_postings_with_sentinel", _timed(
        tracer, "analyze.emit", analyze.emit_postings_with_sentinel, emitted))
    for fn in ("emit_sampled_term_stats", "emit_term_stats"):
        _patch(analyze, fn, _timed(tracer, "analyze.prepass", getattr(analyze, fn)))
    _patch(postings, "assign_partitions", _timed(
        tracer, "postings.assign", postings.assign_partitions))
    _patch(postings, "pack_postings_by_part", _timed(
        tracer, "postings.pack", postings.pack_postings_by_part,
        lambda sp, a, out: sp.count(bytes=out.nbytes)))
    _patch(postings, "build_segment_packed", _timed(
        tracer, "postings.segment", postings.build_segment_packed))
    scorer = query.BM25Scorer
    _patch(scorer, "__init__", _timed(tracer, "query.scorer_init", scorer.__init__))
    _patch(scorer, "__call__", _timed(tracer, "query.scorer_batch", scorer.__call__))


# --- aggregation -------------------------------------------------------------


def _dur(sp: Span) -> float:
    return sp.end - sp.start


def self_times(spans: list[Span]) -> dict[str, float]:
    """Span id → duration minus the time its direct children cover."""
    child: dict[str, float] = {}
    for sp in spans:
        if sp.parent is not None:
            child[sp.parent] = child.get(sp.parent, 0.0) + _dur(sp)
    return {sp.id: _dur(sp) - child.get(sp.id, 0.0) for sp in spans}


def union_length(intervals: list[tuple[float, float]]) -> float:
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


# per-query layer metrics: (metric, span name, "ms" of the span's time |
# "self" ms | a count key)
_QUERY_LAYERS = [
    ("query.reader_open_ms", "query.reader_open", "ms"),
    ("query.read_ms", "query.read", "ms"),
    ("query.read_files", "query.read", "files"),
    ("query.read_bytes", "query.read", "bytes"),
    ("codec.decode_ms", "codec.decode", "ms"),
    ("codec.postings_decoded", "codec.decode", "postings"),
    ("maintenance.tombstone_ms", "maintenance.tombstone", "ms"),
    ("query.load_self_ms", "query.load_postings", "self"),
    ("analyzer.analyze_ms", "analyzer.analyze", "ms"),
    ("bm25.score_ms", "bm25.score", "ms"),
    ("query.assemble_self_ms", "query.search_one", "self"),
]
QUERY_ROOTS = ("query.op", "query.search_one", "query.scorer_batch", "query.scorer_init")


def _roots(spans: list[Span]) -> dict[str, str]:
    by_id = {sp.id: sp for sp in spans}
    out: dict[str, str] = {}
    for sp in spans:
        cur = sp
        while cur.parent is not None and cur.parent in by_id:
            cur = by_id[cur.parent]
        out[sp.id] = cur.name
    return out


def query_layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-query p50 and total of each query-path layer, plus the ratios
    (tombstoned share, decoded postings per hit, cache hit share).
    Only spans under a query root count, so compaction's use of the
    tombstone filter stays out."""
    roots = _roots(spans)
    qspans = [sp for sp in spans if roots[sp.id] in QUERY_ROOTS]
    selft = self_times(spans)
    per_q: dict[str, dict[str, float]] = {}
    totals = {m: 0.0 for m, _, _ in _QUERY_LAYERS}
    for sp in qspans:
        for metric, name, what in _QUERY_LAYERS:
            if sp.name != name:
                continue
            if what == "ms":
                v = _dur(sp) * 1000.0
            elif what == "self":
                v = selft[sp.id] * 1000.0
            else:
                v = float(sp.counts.get(what, 0))
            totals[metric] += v
            if sp.qid is not None:
                q = per_q.setdefault(sp.qid, {})
                q[metric] = q.get(metric, 0.0) + v
    out: dict[str, float] = {}
    for metric, _, _ in _QUERY_LAYERS:
        vals = [q.get(metric, 0.0) for q in per_q.values()]
        out[metric + ".p50"] = statistics.median(vals) if vals else 0.0
        out[metric + ".total"] = totals[metric]

    def ssum(name: str, key: str) -> float:
        return sum(sp.counts.get(key, 0) for sp in qspans if sp.name == name)

    checked = ssum("maintenance.tombstone", "checked")
    hits = ssum("query.search_one", "hits")
    lookups = ssum("query.load_postings", "cache_hits") + ssum("query.load_postings", "cache_misses")
    out["maintenance.tombstoned_share"] = ssum("maintenance.tombstone", "tombstoned") / checked if checked else 0.0
    out["query.decoded_per_hit"] = ssum("codec.decode", "postings") / hits if hits else 0.0
    out["query.cache_hit_share"] = ssum("query.load_postings", "cache_hits") / lookups if lookups else 0.0
    out["query.traced_queries"] = float(len(per_q))
    scorer_init = [_dur(sp) for sp in spans if sp.name == "query.scorer_init"]
    scorer_batch = [_dur(sp) * 1000.0 for sp in spans if sp.name == "query.scorer_batch"]
    out["query.scorer_init_s"] = statistics.median(scorer_init) if scorer_init else 0.0
    out["query.scorer_batch_ms"] = statistics.median(scorer_batch) if scorer_batch else 0.0
    return out


BUILD_STAGES = ("index_build.ids", "analyze.prepass", "analyze.emit",
                "postings.assign", "postings.pack", "postings.segment")


def build_layer_metrics(spans: list[Span], start: float, end: float) -> dict[str, float]:
    """Busy time of each build stage inside the build window [start, end]
    (summed over workers), the stage counts, and the part of the build
    wall time no stage span covers."""
    inside = [sp for sp in spans if sp.name in BUILD_STAGES and sp.start >= start and sp.end <= end]

    def busy(name: str) -> float:
        return sum(_dur(sp) for sp in inside if sp.name == name)

    def counted(name: str, key: str) -> float:
        return float(sum(sp.counts.get(key, 0) for sp in inside if sp.name == name))

    covered = union_length([(sp.start, sp.end) for sp in inside])
    return {
        "index_build.ids_s": busy("index_build.ids"),
        "analyze.prepass_s": busy("analyze.prepass"),
        "analyze.emit_s": busy("analyze.emit"),
        "analyze.postings_emitted": counted("analyze.emit", "postings"),
        "postings.assign_s": busy("postings.assign"),
        "postings.pack_s": busy("postings.pack"),
        "postings.shuffle_bytes": counted("postings.pack", "bytes"),
        "postings.segment_s": busy("postings.segment"),
        "index_build.unattributed_s": max(0.0, (end - start) - covered),
    }
