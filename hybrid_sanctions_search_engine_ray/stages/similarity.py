"""Similarity search over an embedding column (``list<float>``).

* :func:`brute_force_topk` — exact cosine top-k: the query matrix is
  broadcast once (``ray.put``), each ``map_batches`` task does one
  numpy matmul against its batch and emits only its batch-local top-k
  rows; a final tiny ``groupby(query).map_groups`` merge produces the
  global top-k. Never materializes the corpus, ships k·batches rows.
* :class:`IVFIndex` — scale path: deterministic k-means (fixed seed,
  sample-initialized, few Lloyd iterations) builds centroids; vectors
  are bucketed by nearest centroid (one ``map_batches`` pass, written
  partitioned by cluster); queries probe the ``nprobe`` nearest
  centroid buckets only. Reference analog: the FAISS-HNSW/char-tfidf
  local vector index (reference: src/ai_service/layers/embeddings/
  indexing/vector_index_service.py:42-111 — SURVEY.md §2.3 A3),
  re-expressed as partition-pruned Arrow scans.
"""

from __future__ import annotations

import json
import os
import shutil

import numpy as np
import pandas as pd
import pyarrow as pa

import ray

from hybrid_sanctions_search_engine_ray.state.manifest import atomic_write_json


def _built(meta_path: str, meta: dict) -> bool:
    """Whether the build marker at ``meta_path`` records ``meta``: a
    builder writes its marker last (``atomic_write_json``), so a marker
    that parses means a complete build with those parameters."""
    if not os.path.exists(meta_path):
        return False
    with open(meta_path) as f:
        return json.load(f) == meta


def _batch_matrix(batch: pa.Table, col: str = "embedding") -> np.ndarray:
    arr = batch[col]
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    flat = arr.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
    return flat.reshape(len(batch), -1)


def _normalize(m: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(m, axis=1, keepdims=True)
    return m / np.maximum(n, 1e-30)


class _PartialTopK:
    """map_batches task body: cos against broadcast queries, emit
    batch-local top-k candidate rows."""

    def __init__(self, queries_ref, k: int, exclude_self: bool):
        q = ray.get(queries_ref)
        self.q_ids = q["ids"]
        self.qm = _normalize(q["matrix"])
        self.k = k
        self.exclude_self = exclude_self

    def __call__(self, batch: pa.Table) -> pa.Table:
        m = _normalize(_batch_matrix(batch))
        vec_ids = batch["vec_id"].to_numpy(zero_copy_only=False)
        sims = self.qm @ m.T  # (nq, batch)
        out_q, out_v, out_s = [], [], []
        for qi, qid in enumerate(self.q_ids):
            s = sims[qi]
            order = np.argsort(-s, kind="stable")
            taken = 0
            for j in order:
                if taken >= self.k:
                    break
                if self.exclude_self and vec_ids[j] == qid:
                    continue
                out_q.append(int(qid))
                out_v.append(int(vec_ids[j]))
                out_s.append(float(s[j]))
                taken += 1
        return pa.table(
            {
                "query_vec_id": pa.array(out_q, pa.int64()),
                "vec_id": pa.array(out_v, pa.int64()),
                "cos_sim": pa.array(out_s, pa.float64()),
            }
        )


def _final_topk(g: pd.DataFrame, k: int) -> pd.DataFrame:
    g = g.sort_values(["cos_sim", "vec_id"], ascending=[False, True], kind="mergesort").head(k)
    g = g.reset_index(drop=True)
    g["rank"] = np.arange(1, len(g) + 1, dtype=np.int64)
    return g


def brute_force_topk(ds, query_ids: list[int], query_matrix: np.ndarray, k: int = 5,
                     exclude_self: bool = True):
    """Dataset(vec_id, embedding) → (query_vec_id, vec_id, cos_sim, rank)."""
    ref = ray.put({"ids": np.asarray(query_ids, dtype=np.int64), "matrix": np.asarray(query_matrix, dtype=np.float64)})
    partial = ds.map_batches(
        _PartialTopK,
        fn_constructor_args=(ref, k, exclude_self),
        batch_format="pyarrow",
        concurrency=2,
    )
    return partial.groupby("query_vec_id").map_groups(
        lambda g: _final_topk(g, k), batch_format="pandas"
    )


class _NearDupPairs:
    """Actor-pool body for cosine near-dup pair mining: each batch is
    scored against the broadcast comparison matrix in one matmul; only
    (a < b, sim >= threshold) pairs are emitted — the batch output is
    pair-sized, never matrix-sized."""

    def __init__(self, ref, threshold: float):
        q = ray.get(ref)
        self.ids = q["ids"]
        self.m = _normalize(q["matrix"])
        self.threshold = threshold

    def __call__(self, batch: pa.Table) -> pa.Table:
        bm = _normalize(_batch_matrix(batch))
        b_ids = batch["vec_id"].to_numpy(zero_copy_only=False)
        sims = bm @ self.m.T  # (batch, subset)
        keep = (sims >= self.threshold) & (b_ids[:, None] < self.ids[None, :])
        ai, bj = np.nonzero(keep)
        return pa.table(
            {
                "vec_a": pa.array(b_ids[ai].astype(np.int64)),
                "vec_b": pa.array(self.ids[bj].astype(np.int64)),
                "cos_sim": pa.array(sims[ai, bj].astype(np.float64)),
            }
        )


def cosine_neardup_pairs(ds, ids: np.ndarray, matrix: np.ndarray, threshold: float = 0.35,
                         concurrency: int = 2):
    """Embedding-cosine near-duplicate pairs of ``ds`` rows against the
    broadcast (ids, matrix) side: ship the comparison matrix once via
    ``ray.put``, one matmul per batch, emit only qualifying (a < b)
    pairs. For corpus×corpus near-dup at scale, feed cluster-bucketed
    subsets (ivf_build partitions) instead of one global matrix."""
    ref = ray.put({"ids": np.asarray(ids, dtype=np.int64), "matrix": np.asarray(matrix, dtype=np.float64)})
    return ds.map_batches(
        _NearDupPairs,
        fn_constructor_args=(ref, threshold),
        batch_format="pyarrow",
        concurrency=concurrency,
    )


class _RangeSearch:
    """Actor-pool body for cosine radius (range) search: each corpus
    batch is scored against the broadcast query matrix in one matmul;
    only (query, doc) pairs with sim >= threshold are emitted — output
    is result-sized, never matrix-sized."""

    def __init__(self, ref, threshold: float, exclude_self: bool):
        q = ray.get(ref)
        self.ids = q["ids"]
        self.m = _normalize(q["matrix"])
        self.threshold = threshold
        self.exclude_self = exclude_self

    def __call__(self, batch: pa.Table) -> pa.Table:
        bm = _normalize(_batch_matrix(batch))
        b_ids = batch["vec_id"].to_numpy(zero_copy_only=False)
        sims = self.m @ bm.T  # (queries, batch)
        keep = sims >= self.threshold
        if self.exclude_self:
            keep &= self.ids[:, None] != b_ids[None, :]
        qi, bj = np.nonzero(keep)
        return pa.table(
            {
                "query_vec_id": pa.array(self.ids[qi].astype(np.int64)),
                "vec_id": pa.array(b_ids[bj].astype(np.int64)),
                "cos_sim": pa.array(sims[qi, bj].astype(np.float64)),
            }
        )


def cosine_range_search(ds, query_ids: np.ndarray, query_matrix: np.ndarray,
                        threshold: float, exclude_self: bool = True,
                        concurrency: int = 2):
    """Radius similarity search: ALL corpus vectors with cosine ≥
    ``threshold`` to each query vector (the ES kNN ``similarity``
    threshold / range-query analog) — broadcast query matrix via
    ``ray.put``, one matmul per corpus batch, threshold filter inside the
    task so only qualifying pairs leave the worker. Unlike top-k search
    there is no merge stage at all: the result streams out unordered."""
    ref = ray.put({"ids": np.asarray(query_ids, dtype=np.int64),
                   "matrix": np.asarray(query_matrix, dtype=np.float64)})
    return ds.map_batches(
        _RangeSearch,
        fn_constructor_args=(ref, threshold, exclude_self),
        batch_format="pyarrow",
        concurrency=concurrency,
    )


class IVFIndex:
    """Deterministic IVF: k-means centroids + cluster assignment."""

    def __init__(self, n_clusters: int = 16, n_iter: int = 5, seed: int = 11):
        self.n_clusters, self.n_iter, self.seed = n_clusters, n_iter, seed
        self.centroids: np.ndarray | None = None

    def fit(self, sample: np.ndarray) -> "IVFIndex":
        x = _normalize(sample.astype(np.float64))
        rng = np.random.default_rng(self.seed)
        idx = rng.choice(x.shape[0], size=min(self.n_clusters, x.shape[0]), replace=False)
        c = x[np.sort(idx)].copy()
        for _ in range(self.n_iter):
            assign = (x @ c.T).argmax(axis=1)
            for j in range(c.shape[0]):
                pts = x[assign == j]
                if len(pts):
                    c[j] = pts.mean(axis=0)
            c = _normalize(c)
        self.centroids = c
        return self

    def assign_batch(self, batch: pa.Table) -> pa.Table:
        m = _normalize(_batch_matrix(batch))
        cluster = (m @ self.centroids.T).argmax(axis=1).astype(np.int32)
        return batch.append_column("cluster", pa.array(cluster))

    def probe(self, q: np.ndarray, nprobe: int) -> np.ndarray:
        qn = _normalize(q.reshape(1, -1).astype(np.float64))[0]
        return np.argsort(-(self.centroids @ qn), kind="stable")[:nprobe].astype(np.int32)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Deterministic 64-bit integer mixer (SplitMix64 finalizer) — turns
    sequential vec_ids into uniform hash values for sampling."""
    z = x.astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _sample_bottomk_by_hash(ds, sample_rows: int) -> np.ndarray:
    """Deterministic uniform sample with NO global sort of the corpus:
    each batch keeps only its ``sample_rows`` smallest rows by
    splitmix64(vec_id) (a per-batch partial bottom-k), then the tiny
    candidate set (≤ blocks × sample_rows rows, not corpus-sized) is
    sorted and truncated. The winning set is a pure function of the
    vec_ids present — independent of batching, block order and cluster
    size — so centroids are reproducible everywhere."""

    def partial(b: pa.Table) -> pa.Table:
        ids = b["vec_id"].to_numpy(zero_copy_only=False)
        h = _splitmix64(ids)
        keep = np.sort(np.argsort(h, kind="stable")[:sample_rows])
        # uint64 hashes viewed as int64 keep their ORDER only within the
        # non-negative half; xor the sign bit so int64 sort == uint64 sort
        h64 = (h[keep] ^ np.uint64(1 << 63)).view(np.int64)
        return b.take(pa.array(keep)).append_column("h", pa.array(h64))

    cand = ds.map_batches(partial, batch_format="pyarrow").sort("h").limit(sample_rows).to_pandas()
    return np.stack(cand["embedding"].to_numpy()).astype(np.float64)


def ivf_build(embeddings_path: str, out_dir: str, n_clusters: int = 16,
              sample_rows: int = 2048, cols: tuple[str, str] = ("vec_id", "embedding")) -> str:
    """Build a PERSISTED IVF layout: centroids + parquet partitioned by
    nearest-centroid cluster (``cluster=K/``). One streaming assignment
    pass over the corpus; queries later read ONLY their probed cluster
    partitions. Reference analog: the FAISS local vector index
    (reference: src/ai_service/layers/embeddings/indexing/
    vector_index_service.py:42-111), re-expressed as cluster-partitioned
    Arrow files. Skips work if ``out_dir`` is already complete."""
    import ray.data as rd

    meta_path = os.path.join(out_dir, "_IVF_META.json")
    meta = {"n_clusters": n_clusters, "sample_rows": sample_rows, "source": embeddings_path}
    if _built(meta_path, meta):
        return out_dir
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir, exist_ok=True)

    ds = rd.read_parquet(embeddings_path, columns=list(cols))
    sample = _sample_bottomk_by_hash(ds, sample_rows)
    ivf = IVFIndex(n_clusters=n_clusters).fit(sample)
    np.save(os.path.join(out_dir, "centroids.npy"), ivf.centroids)

    centroids_ref = ray.put(ivf.centroids)

    class Assign:
        def __init__(self, ref):
            self.ivf = IVFIndex()
            self.ivf.centroids = ray.get(ref)

        def __call__(self, b: pa.Table) -> pa.Table:
            return self.ivf.assign_batch(b)

    assigned = ds.map_batches(Assign, fn_constructor_args=(centroids_ref,),
                              batch_format="pyarrow", concurrency=2)

    def write_cluster(g: pd.DataFrame) -> pd.DataFrame:
        """One file per (cluster, group-task): atomic tmp+rename, named
        by cluster so query-time reads prune to probed partitions."""
        import tempfile

        import pyarrow.parquet as pq

        c = int(g["cluster"].iloc[0])
        cdir = os.path.join(out_dir, f"cluster={c}")
        os.makedirs(cdir, exist_ok=True)
        tbl = pa.Table.from_pandas(g.drop(columns=["cluster"]), preserve_index=False)
        fd, tmp = tempfile.mkstemp(dir=cdir, suffix=".tmp")
        os.close(fd)
        pq.write_table(tbl, tmp)
        os.replace(tmp, os.path.join(cdir, "data.parquet"))
        return pd.DataFrame({"cluster": [c], "n_rows": [len(g)]})

    assigned.groupby("cluster").map_groups(write_cluster, batch_format="pandas").take_all()
    atomic_write_json(meta_path, meta)
    return out_dir


def ivf_query(ivf_dir: str, query_ids: list[int], query_matrix: np.ndarray,
              k: int = 5, nprobe: int = 4, exclude_self: bool = True):
    """Query a persisted IVF layout: probe the ``nprobe`` nearest
    centroids per query, read ONLY those ``cluster=K/`` partitions off
    disk (partition pruning — the corpus is never rescanned), brute-force
    within the probed union."""
    import ray.data as rd

    ivf = IVFIndex()
    ivf.centroids = np.load(os.path.join(ivf_dir, "centroids.npy"))
    qm = np.asarray(query_matrix, dtype=np.float64)
    probed: set[int] = set()
    for i in range(len(query_ids)):
        probed.update(ivf.probe(qm[i], nprobe).tolist())
    files = [
        os.path.join(ivf_dir, f"cluster={c}", "data.parquet")
        for c in sorted(probed)
        if os.path.exists(os.path.join(ivf_dir, f"cluster={c}", "data.parquet"))
    ]
    ds = rd.read_parquet(files)
    return brute_force_topk(ds, query_ids, qm, k=k, exclude_self=exclude_self)


class HyperplaneLSH:
    """Sign-random-projection (SimHash-for-vectors) LSH with MULTI-PROBE
    querying: one persisted copy of the corpus (not the classic L-table
    layout's L copies) bucketed by the packed sign bits of ``n_planes``
    seeded Gaussian hyperplanes; a query probes every bucket within
    Hamming radius ``r`` of its own signature. P[plane splits a pair at
    angle θ] = θ/π (Charikar's SimHash bound), so tight neighbors
    differ in few bits and radius 1-2 recovers them while scanning only
    Σ_{i<=r} C(n_planes, i) / 2^n_planes of the corpus.

    Planes are a pure function of (seed, ndim) — build and query sides
    re-derive them independently; nothing model-sized is persisted.

    Recall is REGIME-DEPENDENT (inherent to sign LSH, not an
    implementation artifact): for near-duplicate-grade neighbors
    (cos >= 0.9, p_flip <= 0.15) the 12-plane/radius-2 default recovers
    ~0.9 of true neighbors while scanning ~2% of buckets; for weakly
    similar corpora (cos ~ 0.3-0.4, p_flip ~ 0.4 — e.g. topically
    related but non-duplicate embeddings) choose fewer planes / larger
    radius (8 planes, radius 3 ≈ recall 0.6 at 36% scan) or use the IVF
    path, which partitions by the data's own geometry instead.
    """

    def __init__(self, ndim: int, n_planes: int = 12, seed: int = 29):
        if not 1 <= n_planes <= 30:
            raise ValueError("n_planes must be in [1, 30] (bucket packs into int32)")
        self.ndim, self.n_planes, self.seed = ndim, n_planes, seed
        rng = np.random.default_rng(seed)
        self.planes = rng.standard_normal((n_planes, ndim))
        self._weights = (1 << np.arange(n_planes, dtype=np.int64))

    def bucket(self, m: np.ndarray) -> np.ndarray:
        bits = (_normalize(m.astype(np.float64)) @ self.planes.T) >= 0.0
        return (bits @ self._weights).astype(np.int32)

    def probe(self, q: np.ndarray, radius: int = 1) -> np.ndarray:
        """All bucket ids within Hamming distance <= radius of q's
        signature, ascending (deterministic read order)."""
        from itertools import combinations

        base = int(self.bucket(q.reshape(1, -1))[0])
        out = {base}
        for r in range(1, radius + 1):
            for flips in combinations(range(self.n_planes), r):
                out.add(base ^ sum(1 << f for f in flips))
        return np.array(sorted(out), dtype=np.int32)


def lsh_build(embeddings_path: str, out_dir: str, n_planes: int = 12, seed: int = 29,
              n_parts: int = 32, cols: tuple[str, str] = ("vec_id", "embedding")) -> str:
    """Persist an LSH layout: parquet partitioned into ``part=P`` dirs
    (P = bucket mod ``n_parts`` — coarse directories so tiny buckets
    don't explode the file count) with the exact ``bucket`` kept as a
    column; query-time reads open only matching parts and push a
    ``bucket IN (...)`` filter into the parquet scan. One streaming
    assignment pass; idempotent via the meta guard (same pattern as
    :func:`ivf_build`)."""
    import ray.data as rd

    meta_path = os.path.join(out_dir, "_LSH_META.json")
    ds = rd.read_parquet(embeddings_path, columns=list(cols))
    ndim = len(ds.take(1)[0][cols[1]])
    meta = {"n_planes": n_planes, "seed": seed, "n_parts": n_parts,
            "ndim": ndim, "source": embeddings_path}
    if _built(meta_path, meta):
        return out_dir
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir, exist_ok=True)

    lsh = HyperplaneLSH(ndim, n_planes=n_planes, seed=seed)

    def assign(b: pa.Table) -> pa.Table:
        bk = lsh.bucket(_batch_matrix(b, cols[1]))
        return b.append_column("bucket", pa.array(bk)).append_column(
            "part", pa.array((bk % n_parts).astype(np.int32))
        )

    def write_part(g: pd.DataFrame) -> pd.DataFrame:
        import tempfile

        import pyarrow.parquet as pq

        p = int(g["part"].iloc[0])
        pdir = os.path.join(out_dir, f"part={p}")
        os.makedirs(pdir, exist_ok=True)
        # sort by bucket so row-group stats make the bucket filter prune
        g = g.sort_values(["bucket", cols[0]], kind="mergesort").drop(columns=["part"])
        tbl = pa.Table.from_pandas(g, preserve_index=False)
        fd, tmp = tempfile.mkstemp(dir=pdir, suffix=".tmp")
        os.close(fd)
        pq.write_table(tbl, tmp, row_group_size=4096)
        os.replace(tmp, os.path.join(pdir, "data.parquet"))
        return pd.DataFrame({"part": [p], "n_rows": [len(g)]})

    (ds.map_batches(assign, batch_format="pyarrow")
       .groupby("part").map_groups(write_part, batch_format="pandas").take_all())
    atomic_write_json(meta_path, meta)
    return out_dir


def lsh_query(lsh_dir: str, query_ids: list[int], query_matrix: np.ndarray,
              k: int = 5, radius: int = 2, exclude_self: bool = True):
    """Query a persisted LSH layout: union of every query's probed
    buckets → matching ``part=P`` files only, ``bucket IN`` pushed into
    the scan → exact cosine within the candidate set (multi-probe LSH:
    recall is governed by (n_planes, radius), the scan fraction by
    Σ C(n_planes, <=radius) / 2^n_planes)."""
    import pyarrow.dataset as pads
    import ray.data as rd

    with open(os.path.join(lsh_dir, "_LSH_META.json")) as f:
        meta = json.load(f)
    lsh = HyperplaneLSH(meta["ndim"], n_planes=meta["n_planes"], seed=meta["seed"])
    qm = np.asarray(query_matrix, dtype=np.float64)
    wanted: set[int] = set()
    for i in range(len(query_ids)):
        wanted.update(lsh.probe(qm[i], radius).tolist())
    parts = sorted({b % meta["n_parts"] for b in wanted})
    files = [
        os.path.join(lsh_dir, f"part={p}", "data.parquet")
        for p in parts
        if os.path.exists(os.path.join(lsh_dir, f"part={p}", "data.parquet"))
    ]
    if not files:
        return rd.from_items([]).map_batches(lambda b: b)  # empty result
    ds = rd.read_parquet(
        files,
        filter=pads.field("bucket").isin(sorted(wanted)),
    ).drop_columns(["bucket"])
    return brute_force_topk(ds, query_ids, qm, k=k, exclude_self=exclude_self)


def lsh_topk(ds, query_ids: list[int], query_matrix: np.ndarray, k: int = 5,
             n_planes: int = 12, seed: int = 29, radius: int = 2):
    """In-memory multi-probe LSH over a Dataset (ad-hoc / test use; the
    scale path is :func:`lsh_build` + :func:`lsh_query`): bucket per
    batch, keep only rows in the union of all queries' probed buckets,
    exact cosine within the survivors."""
    import pyarrow.compute as pc

    ndim = len(ds.take(1)[0]["embedding"])
    lsh = HyperplaneLSH(ndim, n_planes=n_planes, seed=seed)
    qm = np.asarray(query_matrix, dtype=np.float64)
    wanted: set[int] = set()
    for i in range(len(query_ids)):
        wanted.update(lsh.probe(qm[i], radius).tolist())
    value_set = pa.array(sorted(wanted), pa.int32())

    def keep(b: pa.Table) -> pa.Table:
        bk = lsh.bucket(_batch_matrix(b))
        t = b.append_column("bucket", pa.array(bk))
        return t.filter(pc.is_in(t["bucket"], value_set=value_set)).drop_columns(["bucket"])

    return brute_force_topk(ds.map_batches(keep, batch_format="pyarrow"),
                            query_ids, qm, k=k)


def ivf_topk(ds, query_ids: list[int], query_matrix: np.ndarray, k: int = 5,
             n_clusters: int = 16, nprobe: int = 4, sample_rows: int = 2048):
    """In-memory IVF over a Dataset (no persisted layout — for ad-hoc /
    test use; the scale path is :func:`ivf_build` + :func:`ivf_query`):
    fit centroids on a deterministic hash-sample (NO global sort),
    assign clusters in one streaming pass, score queries only against
    the union of their ``nprobe`` nearest clusters."""
    sample = _sample_bottomk_by_hash(ds, sample_rows)
    ivf = IVFIndex(n_clusters=n_clusters).fit(sample)

    assigned = ds.map_batches(ivf.assign_batch, batch_format="pyarrow")
    qm = np.asarray(query_matrix, dtype=np.float64)
    probe_sets = {int(qid): set(ivf.probe(qm[i], nprobe).tolist()) for i, qid in enumerate(query_ids)}
    wanted_clusters = sorted(set().union(*probe_sets.values())) if probe_sets else []

    import pyarrow.compute as pc

    # candidate restriction: the union of all queries' probe sets (a per-
    # query cluster filter would shrink candidates further; the union is a
    # strict superset, i.e. recall can only be higher than textbook IVF)
    filtered = assigned.map_batches(
        lambda b: b.filter(pc.is_in(b["cluster"], value_set=pa.array(wanted_clusters, pa.int32()))),
        batch_format="pyarrow",
    )
    return brute_force_topk(filtered, query_ids, qm, k=k)


class _Int8TopK:
    """Scalar-quantized (int8) brute-force scan with exact rescoring —
    the ES ``int8`` kNN quantization shape: the full scan runs in int8
    (per-vector symmetric scale s = max|x|/127 over the NORMALIZED
    vector, int32-accumulated matmul), then ONLY the per-batch
    approx-top-(k·rescore) candidates get exact float cosine. The float
    work drops from O(batch·dim) to O(k·rescore·dim) per batch; the
    exact rescore restores brute-force top-k whenever the true
    neighbors sit inside the quantized candidate window (documented
    rescore-window caveat; widen ``rescore`` to trade speed for
    certainty)."""

    def __init__(self, queries_ref, k: int, rescore: int, exclude_self: bool):
        d = ray.get(queries_ref)
        self.q_ids = d["ids"]
        self.q = _normalize(d["matrix"])
        qs = np.abs(self.q).max(axis=1, keepdims=True) / 127.0
        qs[qs == 0.0] = 1.0
        self.q_int = np.rint(self.q / qs).astype(np.int32)
        self.k = k
        self.window = k * rescore
        self.exclude_self = exclude_self

    def __call__(self, batch: pa.Table) -> pa.Table:
        m = _normalize(_batch_matrix(batch))
        ids = batch["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        ds_ = np.abs(m).max(axis=1, keepdims=True) / 127.0
        ds_[ds_ == 0.0] = 1.0
        d_int = np.rint(m / ds_).astype(np.int32)
        approx = self.q_int @ d_int.T  # int32 accumulate — the hot kernel
        out_q: list[int] = []
        out_v: list[int] = []
        out_s: list[float] = []
        w = min(self.window, ids.size)
        dsv = ds_.ravel()
        for qi in range(self.q_ids.size):
            # query-side scale is rank-invariant per row; the DOC-side
            # scale varies per vector and must weight the estimate
            a = approx[qi].astype(np.float64) * dsv
            if self.exclude_self:
                a = np.where(ids == self.q_ids[qi], -np.inf, a)
            cand = np.argpartition(-a, w - 1)[:w] if ids.size > w else np.arange(ids.size)
            exact = m[cand] @ self.q[qi]  # float math on candidates ONLY
            if self.exclude_self:
                exact = np.where(ids[cand] == self.q_ids[qi], -np.inf, exact)
            top = np.argsort(-exact, kind="mergesort")[: self.k]
            sel = cand[top]
            keep = np.isfinite(exact[top])
            out_q.extend([int(self.q_ids[qi])] * int(keep.sum()))
            out_v.extend(ids[sel][keep].tolist())
            out_s.extend(exact[top][keep].tolist())
        return pa.table({
            "query_vec_id": pa.array(out_q, pa.int64()),
            "vec_id": pa.array(out_v, pa.int64()),
            "cos_sim": pa.array(out_s, pa.float64()),
        })


def int8_topk(ds, query_ids: list[int], query_matrix: np.ndarray, k: int = 5,
              rescore: int = 4, exclude_self: bool = True):
    """int8-quantized cosine top-k with exact rescoring: Dataset(vec_id,
    embedding) → (query_vec_id, rank, vec_id, cos_sim)."""
    ref = ray.put({"ids": np.asarray(query_ids, dtype=np.int64),
                   "matrix": np.asarray(query_matrix, dtype=np.float64)})
    partial = ds.map_batches(
        _Int8TopK,
        fn_constructor_args=(ref, k, rescore, exclude_self),
        batch_format="pyarrow",
        concurrency=2,
    )
    return partial.groupby("query_vec_id").map_groups(
        lambda g: _final_topk(g, k), batch_format="pandas"
    )


class _MaxSimPartial:
    """Actor body for late-interaction maxsim: each batch is scored
    against the broadcast query matrix in one matmul, then reduced to
    per-(group, query) partial maxima — the batch output is
    groups×queries-sized, never matrix-sized."""

    def __init__(self, ref, group_size: int):
        q = ray.get(ref)
        self.ids = q["ids"]
        self.m = _normalize(q["matrix"])
        self.group_size = int(group_size)

    def __call__(self, batch: pa.Table) -> pa.Table:
        bm = _normalize(_batch_matrix(batch))
        v_ids = batch["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        groups = v_ids // self.group_size
        sims = bm @ self.m.T  # (batch, n_queries)
        uniq, inv = np.unique(groups, return_inverse=True)
        out_g, out_q, out_m = [], [], []
        for j, qid in enumerate(self.ids):
            mx = np.full(uniq.size, -np.inf, dtype=np.float64)
            np.maximum.at(mx, inv, sims[:, j])
            out_g.append(uniq)
            out_q.append(np.full(uniq.size, qid, dtype=np.int64))
            out_m.append(mx)
        return pa.table({
            "group_id": pa.array(np.concatenate(out_g)),
            "query_vec_id": pa.array(np.concatenate(out_q)),
            "m_p": pa.array(np.concatenate(out_m)),
        })


def maxsim_topk(ds, query_ids: list[int], query_matrix: np.ndarray,
                group_size: int = 8, k: int = 10, round_digits: int = 4):
    """Late-interaction (ColBERT-style) maxsim retrieval — ES
    ``rank_vectors`` shape: a GROUP of vectors represents one document
    (here group = vec_id // group_size, the conversation grouping);
    score(group) = Σ over query vectors of max cosine against any group
    member. Broadcast query matrix, one matmul per batch, per-(group,
    query) partial maxima → ONE groups×queries-sized max-shuffle → a
    driver-side sum over the (tiny, fixed-count) query axis. Scores are
    quantized (round4) before ranking — the repo's multi-float-source
    tie rule."""
    from ray.data.aggregate import Max

    import pandas as pd

    from hybrid_sanctions_search_engine_ray.stages.textops import round_half_away

    ref = ray.put({"ids": np.asarray(query_ids, dtype=np.int64),
                   "matrix": np.asarray(query_matrix, dtype=np.float64)})
    agg = (
        ds.map_batches(_MaxSimPartial, fn_constructor_args=(ref, group_size),
                       batch_format="pyarrow", concurrency=2)
        .groupby(["group_id", "query_vec_id"])
        .aggregate(Max("m_p", alias_name="m"))
        .to_pandas()
    )
    if agg.empty:
        return pd.DataFrame({"group_id": pd.Series([], dtype=np.int64),
                             "rank": pd.Series([], dtype=np.int32),
                             "maxsim": pd.Series([], dtype=np.float64)})
    # fixed query order: sum q0 + q1 + ... identically on both sides
    agg = agg.sort_values(["group_id", "query_vec_id"], kind="mergesort")
    tot = agg.groupby("group_id", sort=True)["m"].sum()
    s = round_half_away(tot.to_numpy(np.float64), round_digits)
    out = pd.DataFrame({"group_id": tot.index.to_numpy(np.int64), "s": s})
    out = out.sort_values(["s", "group_id"], ascending=[False, True],
                          kind="mergesort").head(k).reset_index(drop=True)
    return pd.DataFrame({"group_id": out["group_id"].astype(np.int64),
                         "rank": np.arange(1, len(out) + 1, dtype=np.int32),
                         "maxsim": out["s"]})


# ---------------------------------------------------------------------------
# NSW graph ANN (HNSW-class, SURVEY.md §2.3 A3): hash-partitioned navigable-
# small-world graphs with persisted adjacency + beam-search querying.
# Reference analog: the optional FAISS HNSW local vector index (reference:
# src/ai_service/layers/embeddings/indexing/vector_index_service.py:42-111),
# re-expressed as independent per-partition graphs so build parallelism and
# per-worker memory stay bounded at corpus scale: vectors are hash-split by
# splitmix64(vec_id) into n_parts shards, each shard builds its own graph in
# one map_groups task (at 100 TB, n_parts grows with the corpus so a shard
# always fits a worker), and a query beam-searches every shard independently
# (one task per shard, the classic distributed-HNSW layout) before a tiny
# global top-k merge. Unlike IVF there is no geometry-dependent probe miss:
# every shard is searched, and recall is governed by (m, ef) graph quality
# alone — the recall-at-low-latency regime IVF's nprobe can't reach when
# clusters are unbalanced.
# ---------------------------------------------------------------------------


def _nsw_search(mat: np.ndarray, nbrs: list, q: np.ndarray, ef: int,
                entry: int = 0, visited: np.ndarray | None = None):
    """Greedy best-first beam search over one NSW graph (the HNSW layer-0
    search): ``mat`` is (n, d) L2-normalized, ``nbrs`` a list of int arrays
    (local indices), ``q`` a normalized query. Returns (indices, sims) of
    the ``ef`` best found, sorted by (-sim, index) — fully deterministic
    (ties broken by local index on both heaps)."""
    import heapq

    n = len(nbrs)
    if n == 0:
        return np.array([], dtype=np.int64), np.array([], dtype=np.float64)
    if visited is None:
        visited = np.zeros(n, dtype=bool)
    else:
        visited[:n] = False
    visited[entry] = True
    s0 = float(mat[entry] @ q)
    cand = [(-s0, entry)]            # max-heap on sim (ties: smaller index first)
    best = [(s0, -entry)]            # min-heap: worst-of-best at root (ties: larger index evicts first)
    while cand:
        neg, u = heapq.heappop(cand)
        if len(best) >= ef and -neg < best[0][0]:
            break
        nb = [v for v in nbrs[u] if not visited[v]]
        if not nb:
            continue
        visited[list(nb)] = True
        sims = mat[nb] @ q           # one gather-matmul per hop, no per-edge python math
        for v, sv in zip(nb, sims.tolist()):
            if len(best) < ef or sv > best[0][0] or (sv == best[0][0] and -v > best[0][1]):
                heapq.heappush(best, (sv, -v))
                heapq.heappush(cand, (-sv, v))
                if len(best) > ef:
                    heapq.heappop(best)
    out = sorted(((s, -ni) for s, ni in best), key=lambda t: (-t[0], t[1]))
    idx = np.array([i for _, i in out], dtype=np.int64)
    sims = np.array([s for s, _ in out], dtype=np.float64)
    return idx, sims


def _nsw_build_graph(mat: np.ndarray, m: int = 8, ef_construction: int = 48) -> list:
    """Incremental NSW construction over an L2-normalized (n, d) matrix in
    a FIXED insertion order (the caller sorts by vec_id, so the graph is a
    pure function of the shard's id set — reproducible across runs, block
    layouts and cluster sizes). Each new point links to its ``m`` nearest
    among already-inserted points (found by beam search, exact for the
    first ``ef_construction`` points); reverse edges are added and pruned
    back to ``2m`` by similarity so degree — and query cost — stays
    bounded."""
    n = mat.shape[0]
    nbrs: list = [np.array([], dtype=np.int32)]
    if n <= 1:
        return nbrs[:n]
    m_max = 2 * m
    visited = np.zeros(n, dtype=bool)
    for i in range(1, n):
        if i <= ef_construction:
            sims = mat[:i] @ mat[i]
            order = np.lexsort((np.arange(i), -sims))[:m]
        else:
            order, _ = _nsw_search(mat[:i], nbrs, mat[i], ef_construction,
                                   visited=visited)
            order = order[:m]
        links = np.sort(order).astype(np.int32)
        nbrs.append(links)
        for j in links:
            cur = nbrs[j]
            cur = np.append(cur, np.int32(i))
            if cur.size > m_max:
                s = mat[cur] @ mat[j]
                keep = np.lexsort((cur, -s))[:m_max]
                cur = np.sort(cur[keep])
            nbrs[j] = cur
    return nbrs


def nsw_build(embeddings_path: str, out_dir: str, n_parts: int = 8, m: int = 8,
              ef_construction: int = 48,
              cols: tuple[str, str] = ("vec_id", "embedding")) -> str:
    """Build a PERSISTED sharded-NSW layout: vectors hash-partitioned by
    splitmix64(vec_id) % n_parts (layout-independent), each shard's graph
    built independently inside groupby().map_groups (parallel across
    shards; insertion order = sorted vec_id within the shard) and written
    as ``part=P/data.parquet`` with rows in local-index order and a
    ``neighbors: list<int32>`` adjacency column. Idempotent via the same
    meta-guard pattern as :func:`ivf_build`."""
    import ray.data as rd

    meta_path = os.path.join(out_dir, "_NSW_META.json")
    meta = {"n_parts": n_parts, "m": m, "ef_construction": ef_construction,
            "source": embeddings_path}
    if _built(meta_path, meta):
        return out_dir
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir, exist_ok=True)

    ds = rd.read_parquet(embeddings_path, columns=list(cols))

    def assign(b: pa.Table) -> pa.Table:
        ids = b[cols[0]].to_numpy(zero_copy_only=False)
        part = (_splitmix64(ids) % np.uint64(n_parts)).astype(np.int32)
        return b.append_column("part", pa.array(part))

    def build_part(g: pd.DataFrame) -> pd.DataFrame:
        import tempfile

        import pyarrow.parquet as pq

        p = int(g["part"].iloc[0])
        g = g.sort_values(cols[0], kind="mergesort").reset_index(drop=True)
        mat = _normalize(np.stack(g[cols[1]].to_numpy()).astype(np.float64))
        nbrs = _nsw_build_graph(mat, m=m, ef_construction=ef_construction)
        tbl = pa.table({
            cols[0]: pa.array(g[cols[0]].to_numpy(np.int64)),
            cols[1]: pa.array(list(g[cols[1]].to_numpy())),
            "neighbors": pa.array([a.tolist() for a in nbrs],
                                  pa.list_(pa.int32())),
        })
        pdir = os.path.join(out_dir, f"part={p}")
        os.makedirs(pdir, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=pdir, suffix=".tmp")
        os.close(fd)
        pq.write_table(tbl, tmp)
        os.replace(tmp, os.path.join(pdir, "data.parquet"))
        return pd.DataFrame({"part": [p], "n_rows": [len(g)]})

    (ds.map_batches(assign, batch_format="pyarrow")
       .groupby("part").map_groups(build_part, batch_format="pandas").take_all())
    atomic_write_json(meta_path, meta)
    return out_dir


class _NSWShardSearch:
    """One task per shard file: load the shard's vectors + adjacency once,
    beam-search every query against it, emit per-shard candidates. The
    whole-shard read is the point — adjacency indices are local row
    positions, so a shard must stay one unit (and is sized by n_parts to
    fit a worker's heap)."""

    def __init__(self, queries_ref, ef: int, exclude_self: bool):
        q = ray.get(queries_ref)
        self.q_ids = q["ids"]
        self.qm = _normalize(q["matrix"])
        self.ef = ef
        self.exclude_self = exclude_self

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.parquet as pq

        out_q, out_v, out_s = [], [], []
        for path in batch["path"].to_pylist():
            tbl = pq.read_table(path)
            mat = _normalize(_batch_matrix(tbl))
            vec_ids = tbl["vec_id"].to_numpy(zero_copy_only=False)
            nb_col = tbl["neighbors"].combine_chunks()
            flat = nb_col.flatten().to_numpy(zero_copy_only=False)
            offs = nb_col.offsets.to_numpy(zero_copy_only=False)
            nbrs = [flat[offs[i]:offs[i + 1]] for i in range(len(tbl))]
            visited = np.zeros(len(tbl), dtype=bool)
            for qi, qid in enumerate(self.q_ids):
                idx, sims = _nsw_search(mat, nbrs, self.qm[qi], self.ef,
                                        visited=visited)
                for j, s in zip(idx, sims):
                    if self.exclude_self and vec_ids[j] == qid:
                        continue
                    out_q.append(int(qid))
                    out_v.append(int(vec_ids[j]))
                    out_s.append(float(s))
        return pa.table({
            "query_vec_id": pa.array(out_q, pa.int64()),
            "vec_id": pa.array(out_v, pa.int64()),
            "cos_sim": pa.array(out_s, pa.float64()),
        })


def nsw_query(nsw_dir: str, query_ids: list[int], query_matrix: np.ndarray,
              k: int = 5, ef: int = 32, exclude_self: bool = True):
    """Query a persisted sharded-NSW layout: every shard is beam-searched
    independently (one task per ``part=P`` file, queries broadcast once via
    ``ray.put``), then a tiny global groupby merges the per-shard
    candidates into the exact top-k of the union. Per-query work is
    O(n_parts · ef · avg_degree) distance evals — independent of corpus
    size within a shard — vs IVF's nprobe-of-nclusters scan."""
    import ray.data as rd

    files = sorted(
        os.path.join(nsw_dir, d, "data.parquet")
        for d in os.listdir(nsw_dir)
        if d.startswith("part=") and os.path.exists(os.path.join(nsw_dir, d, "data.parquet"))
    )
    qm = np.asarray(query_matrix, dtype=np.float64)
    ref = ray.put({"ids": np.asarray(query_ids, dtype=np.int64), "matrix": qm})
    shards = rd.from_items([{"path": f} for f in files])
    partial = shards.map_batches(
        _NSWShardSearch,
        fn_constructor_args=(ref, max(ef, k + 1 if exclude_self else k), exclude_self),
        batch_format="pyarrow",
        batch_size=1,
        concurrency=2,
    )
    return partial.groupby("query_vec_id").map_groups(
        lambda g: _final_topk(g, k), batch_format="pandas"
    )


# --- SemDeDup (semantic deduplication) ---------------------------------------


def semdedup(ds, threshold: float = 0.97, n_clusters: int = 16,
             n_iter: int = 5, seed: int = 11, sample_rows: int = 2048,
             id_col: str = "vec_id", emb_col: str = "embedding"):
    """SemDeDup (Abbas et al. 2023, arXiv:2303.09540): k-means cluster
    the embedding space, then inside each cluster drop all but one
    member of every connected component of the cosine-similarity>τ
    graph. The kept representative is the component member LEAST
    similar to its cluster centroid (the paper's keep rule — low
    centroid similarity ≈ most informative example), ties broken by
    smallest id.

    Scale shape: centroids fit once on a deterministic hash-sample
    (``_sample_bottomk_by_hash`` — no global sort), one assignment
    map over the corpus, then ONE cluster-keyed exchange
    (``groupby(cluster).map_groups``). All-pairs similarity happens
    only INSIDE a cluster — the SemDeDup contract is that
    ``n_clusters`` grows with the corpus so cluster sizes stay bounded
    (the paper runs 50k clusters at web scale); at this harness scale
    16 clusters keep groups at a few dozen vectors.

    Deterministic end-to-end (sample, init, argmax assignment, keep
    rule), so results are stable across batching, block order and
    cluster size. Returns a Dataset of
    ``(vec_id, cluster, keep, rep_id, centroid_sim_r6)`` — one row per
    input vector; ``rep_id`` is the surviving representative of the
    vector's duplicate component (its own id for singletons/keepers).
    """
    ivf = IVFIndex(n_clusters=n_clusters, n_iter=n_iter, seed=seed)
    ivf.fit(_sample_bottomk_by_hash(ds, sample_rows))
    cent = ivf.centroids

    def dedup_cluster(g: pd.DataFrame) -> pd.DataFrame:
        ids = g[id_col].to_numpy(np.int64)
        order = np.argsort(ids, kind="stable")  # batch-order independence
        ids = ids[order]
        m = _normalize(np.stack(g[emb_col].to_numpy())[order].astype(np.float64))
        cl = int(g["cluster"].iloc[0])
        csim = m @ cent[cl]
        n = len(ids)
        # union-find over the τ-graph edges (cluster-bounded all-pairs)
        sims = m @ m.T
        ii, jj = np.nonzero(np.triu(sims >= threshold, k=1))
        parent = np.arange(n)

        def find(a: int) -> int:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for a, b in zip(ii, jj):
            ra, rb = find(int(a)), find(int(b))
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
        root = np.array([find(int(i)) for i in range(n)])
        # keep rule: per component argmin centroid-sim, tie smallest id
        # (ids are sorted ascending, so lexsort order index == id order)
        rank = np.lexsort((ids, np.round(csim, 12), root))
        first = np.unique(root[rank], return_index=True)[1]
        keeper_row = rank[first]  # one row index per component, the keeper
        rep_of_root = np.full(n, -1, dtype=np.int64)
        rep_of_root[root[keeper_row]] = ids[keeper_row]
        rep = rep_of_root[root]
        keep = np.zeros(n, dtype=bool)
        keep[keeper_row] = True
        return pd.DataFrame({
            "vec_id": ids,
            "cluster": np.full(n, cl, dtype=np.int32),
            "keep": keep,
            "rep_id": rep,
            "centroid_sim_r6": np.round(csim, 6),
        })

    return (
        ds.map_batches(ivf.assign_batch, batch_format="pyarrow")
        .groupby("cluster")
        .map_groups(dedup_cluster, batch_format="pandas")
    )


def prototype_prune(ds, keep_frac: float = 0.75, n_clusters: int = 16,
                    n_iter: int = 5, seed: int = 11, sample_rows: int = 2048,
                    id_col: str = "vec_id", emb_col: str = "embedding"):
    """SSL-prototype data pruning (Sorscher et al. 2022, "Beyond neural
    scaling laws", arXiv:2206.14486): rank every example by its cosine
    similarity to its k-means cluster centroid ("prototypicality") and
    PRUNE the most prototypical (easiest) examples, keeping the hard
    tail — the paper's keep-hard rule for the abundant-data regime.

    Deterministic instantiation: centroids fit once on the same
    deterministic hash-sample as SemDeDup/IVF; the keep cutoff is the
    EXACT ``keep_frac`` quantile (quantile_disc) of the rounded
    centroid similarity, ties at the cutoff all keep (so the kept count
    can exceed ``keep_frac·N`` by the tie multiplicity — documented,
    deterministic). Returns one row per vector:
    ``(vec_id, cluster, centroid_sim_r6, keep)``.

    Scale shape: one assignment/similarity map over the corpus, ONE
    distinct-value histogram shuffle for the exact quantile (bounded
    cardinality at 6-decimal rounding), one broadcast-scalar filter
    map. No cluster-keyed exchange at all — unlike SemDeDup there is
    no within-cluster pair work."""
    from hybrid_sanctions_search_engine_ray.stages.quantiles import grouped_exact_quantiles

    ivf = IVFIndex(n_clusters=n_clusters, n_iter=n_iter, seed=seed)
    ivf.fit(_sample_bottomk_by_hash(ds, sample_rows))
    cent = ivf.centroids  # unit-normalized by fit()

    def sim_batch(b: pa.Table) -> pa.Table:
        b = ivf.assign_batch(b)
        m = _normalize(_batch_matrix(b, emb_col).astype(np.float64))
        cl = b["cluster"].to_numpy(zero_copy_only=False)
        csim = np.einsum("ij,ij->i", m, cent[cl])
        return pa.table({
            id_col: b[id_col],
            "cluster": b["cluster"],
            "centroid_sim_r6": pa.array(np.round(csim, 6)),
        })

    scored = ds.map_batches(sim_batch, batch_format="pyarrow")
    tagged = scored.map_batches(
        lambda b: b.append_column("g", pa.array(["all"] * len(b), pa.string())),
        batch_format="pyarrow",
    )
    cut = float(
        grouped_exact_quantiles(tagged, key="g", col="centroid_sim_r6",
                                qs=[keep_frac]).take(1)[0]["value"]
    )

    def flag(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        keep = pc.less_equal(b["centroid_sim_r6"], cut)
        return b.append_column("keep", keep)

    return scored.map_batches(flag, batch_format="pyarrow")


# --- contrastive hard-negative mining ----------------------------------------


class _PartialHardNeg:
    """map_batches body: cos against the broadcast query matrix with
    SAME-label columns masked out, emit batch-local top-k per query —
    the metric-learning hard-negative rule (most similar example of a
    different class)."""

    def __init__(self, queries_ref, k: int):
        q = ray.get(queries_ref)
        self.q_ids = q["ids"]
        self.qm = _normalize(q["matrix"])
        self.q_labels = q["labels"]
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        m = _normalize(_batch_matrix(batch))
        vec_ids = batch["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        labels = batch["label"].to_numpy(zero_copy_only=False).astype(np.int64)
        sims = self.qm @ m.T  # (nq, batch)
        sims = np.where(labels[None, :] == self.q_labels[:, None], -np.inf, sims)
        out_q, out_v, out_l, out_s = [], [], [], []
        for qi, qid in enumerate(self.q_ids):  # ≤ query-count iterations
            s = sims[qi]
            order = np.lexsort((vec_ids, -s))[: self.k]
            order = order[np.isfinite(s[order])]
            out_q.append(np.full(order.size, qid, dtype=np.int64))
            out_v.append(vec_ids[order])
            out_l.append(labels[order])
            out_s.append(s[order])
        return pa.table({
            "query_vec_id": pa.array(np.concatenate(out_q), pa.int64()),
            "vec_id": pa.array(np.concatenate(out_v), pa.int64()),
            "neg_label": pa.array(np.concatenate(out_l), pa.int64()),
            "cos_sim": pa.array(np.concatenate(out_s), pa.float64()),
        })


def hard_negatives(ds, query_ids: np.ndarray, query_matrix: np.ndarray,
                   query_labels: np.ndarray, k: int = 1):
    """Hard-negative mining for contrastive/metric training: for each
    query vector, the ``k`` most-similar corpus vectors with a DIFFERENT
    label (ties by vec_id). Broadcast query matrix, one matmul + partial
    top-k per batch, one tiny query-keyed merge — the corpus streams."""
    ref = ray.put({
        "ids": np.asarray(query_ids, dtype=np.int64),
        "matrix": np.asarray(query_matrix, dtype=np.float64),
        "labels": np.asarray(query_labels, dtype=np.int64),
    })
    partial = ds.map_batches(
        _PartialHardNeg,
        fn_constructor_args=(ref, k),
        batch_format="pyarrow",
        concurrency=2,
    )

    def final(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["cos_sim", "vec_id"], ascending=[False, True],
                          kind="mergesort").head(k).reset_index(drop=True)
        g["rank"] = np.arange(1, len(g) + 1, dtype=np.int64)
        return g

    return partial.groupby("query_vec_id").map_groups(final, batch_format="pandas")


# --- Product quantization (Jégou, Douze & Schmid, TPAMI 2011) --------------


class PQCodebook:
    """Deterministic product-quantization codebooks: the (normalized)
    vector is split into ``m`` contiguous subspaces; each subspace gets
    its own L2 k-means codebook of ``n_codes`` centroids. Same
    determinism regime as IVFIndex (seeded init on a hash-sample,
    fixed Lloyd iterations, argmin tie → lowest centroid index)."""

    def __init__(self, m: int = 16, n_codes: int = 16, n_iter: int = 8, seed: int = 13):
        self.m, self.n_codes, self.n_iter, self.seed = m, n_codes, n_iter, seed
        self.codebooks: np.ndarray | None = None  # (m, n_codes, subdim)

    def fit(self, sample: np.ndarray) -> "PQCodebook":
        x = _normalize(sample.astype(np.float64))
        d = x.shape[1]
        if d % self.m:
            raise ValueError(f"dim {d} not divisible by m={self.m}")
        sub = d // self.m
        rng = np.random.default_rng(self.seed)
        books = np.empty((self.m, self.n_codes, sub), dtype=np.float64)
        for j in range(self.m):
            xj = x[:, j * sub:(j + 1) * sub]
            idx = rng.choice(xj.shape[0], size=min(self.n_codes, xj.shape[0]),
                             replace=False)
            c = xj[np.sort(idx)].copy()
            if c.shape[0] < self.n_codes:  # degenerate tiny sample: pad by repeat
                c = np.resize(c, (self.n_codes, sub))
            for _ in range(self.n_iter):
                d2 = ((xj[:, None, :] - c[None, :, :]) ** 2).sum(axis=2)
                assign = d2.argmin(axis=1)
                for q in range(self.n_codes):
                    pts = xj[assign == q]
                    if len(pts):
                        c[q] = pts.mean(axis=0)
            books[j] = c
        self.codebooks = books
        return self

    def encode(self, mat: np.ndarray) -> np.ndarray:
        """(n, d) normalized matrix → (n, m) uint8 codes."""
        n, d = mat.shape
        sub = d // self.m
        codes = np.empty((n, self.m), dtype=np.uint8)
        for j in range(self.m):
            xj = mat[:, j * sub:(j + 1) * sub]
            c = self.codebooks[j]
            # argmin ||x − c||² = argmin (‖c‖² − 2 x·c); ties → lowest index
            d2 = (c * c).sum(axis=1)[None, :] - 2.0 * (xj @ c.T)
            codes[:, j] = d2.argmin(axis=1).astype(np.uint8)
        return codes

    def adc_table(self, q: np.ndarray) -> np.ndarray:
        """(m, n_codes) squared-L2 table for one normalized query."""
        sub = q.size // self.m
        t = np.empty((self.m, self.n_codes), dtype=np.float64)
        for j in range(self.m):
            qj = q[j * sub:(j + 1) * sub]
            t[j] = ((self.codebooks[j] - qj[None, :]) ** 2).sum(axis=1)
        return t


PQ_EXACT_SCALE = 1_000_000


def _quantize_norm_int(mat: np.ndarray, scale: int = PQ_EXACT_SCALE) -> np.ndarray:
    """Integer-exact unit-normalization: the two-step quantization that
    DuckDB reproduces bit-for-bit.  Step 1: raw float32 coords → int64
    ``xq = round(x·scale)`` (one correctly-rounded IEEE multiply + the
    half-away kernel that matches DuckDB ``round()``).  Step 2: the
    squared norm ``ss = Σ xq²`` is EXACT integer arithmetic, so
    ``nq = round(xq / sqrt(ss) · scale)`` is a fixed sequence of
    correctly-rounded IEEE ops (int64→double exact, sqrt and divide
    exactly rounded per IEEE-754) — identical in numpy and DuckDB, with
    no accumulation-order-dependent float sums anywhere."""
    from hybrid_sanctions_search_engine_ray.stages.textops import round_half_away

    xq = round_half_away(np.asarray(mat, dtype=np.float64) * scale, 0)
    xq = xq.astype(np.int64)
    ss = (xq * xq).sum(axis=1)                      # exact int64
    nrm = np.sqrt(ss.astype(np.float64))
    nq = round_half_away(xq / nrm[:, None] * scale, 0).astype(np.int64)
    return nq


def pq_build(embeddings_path: str, out_dir: str, m: int = 16, n_codes: int = 16,
             sample_rows: int = 2048, n_iter: int = 8, seed: int = 13,
             scale: int = PQ_EXACT_SCALE,
             cols: tuple[str, str] = ("vec_id", "embedding")) -> str:
    """Build a PERSISTED PQ layout: ``codebooks.npy`` (float, for the
    production ADC path) + ``codebook.parquet`` — the k-means OUTPUT as
    a plain int64 table (sub, code, d, val_q at ×``scale``) that the
    ann_pq DuckDB twin reads back — + sharded ``codes/`` parquet of
    (vec_id, code_0..code_{m-1}): the corpus compressed m bytes/vector.
    Encoding is integer argmin (quantized-normalized vector vs quantized
    centroid, ties → lowest code), so the persisted codes are exactly
    reproducible from codebook.parquet + the raw embeddings in SQL —
    k-means training stays outside the oracle; its output is just a
    table. One streaming encode pass; queries scan CODES, not vectors,
    and only the top-``rerank`` candidates ever touch the raw
    embeddings (ADC + rescore, the production PQ serving shape).
    Completes the ANN family: IVF (partition pruning), LSH (bucket
    probing), NSW (graph walk), int8 (scalar quantization), PQ (vector
    quantization). Skips work if ``out_dir`` is already complete."""
    import ray.data as rd

    meta_path = os.path.join(out_dir, "_PQ_META.json")
    meta = {"m": m, "n_codes": n_codes, "sample_rows": sample_rows,
            "n_iter": n_iter, "seed": seed, "scale": scale,
            "source": embeddings_path}
    if _built(meta_path, meta):
        return out_dir
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir, exist_ok=True)

    ds = rd.read_parquet(embeddings_path, columns=list(cols))
    pq_ = PQCodebook(m=m, n_codes=n_codes, n_iter=n_iter, seed=seed)
    pq_.fit(_sample_bottomk_by_hash(ds, sample_rows))
    np.save(os.path.join(out_dir, "codebooks.npy"), pq_.codebooks)

    # The k-means OUTPUT as an integer table: (sub, code, d, val_q)
    # with d the GLOBAL dim index (sub·subdim + local) — the layout the
    # SQL twin joins on. round_half_away == DuckDB round().
    from hybrid_sanctions_search_engine_ray.stages.textops import round_half_away

    books_q = round_half_away(pq_.codebooks * scale, 0).astype(np.int64)
    n_c, subdim = books_q.shape[1], books_q.shape[2]
    sub_col = np.repeat(np.arange(m, dtype=np.int64), n_c * subdim)
    code_col = np.tile(np.repeat(np.arange(n_c, dtype=np.int64), subdim), m)
    d_col = (sub_col * subdim
             + np.tile(np.arange(subdim, dtype=np.int64), m * n_c))
    import pyarrow.parquet as _pqt
    _pqt.write_table(
        pa.table({"sub": sub_col, "code": code_col, "d": d_col,
                  "val_q": books_q.reshape(-1)}),
        os.path.join(out_dir, "codebook.parquet"))

    books_ref = ray.put(books_q)

    class Encode:
        def __init__(self, ref):
            self.books_q = ray.get(ref)   # (m, n_codes, subdim) int64

        def __call__(self, b: pa.Table) -> pa.Table:
            nq = _quantize_norm_int(_batch_matrix(b), scale)
            n = nq.shape[0]
            nq_s = nq.reshape(n, m, subdim)
            # integer argmin ‖nq − c_q‖² per subspace, ties → lowest code
            d2 = ((nq_s[:, :, None, :] - self.books_q[None, :, :, :]) ** 2
                  ).sum(axis=3)            # (n, m, n_codes)
            codes = d2.argmin(axis=2).astype(np.uint8)
            out = {"vec_id": b["vec_id"]}
            for j in range(codes.shape[1]):
                out[f"code_{j}"] = pa.array(codes[:, j], pa.uint8())
            return pa.table(out)

    (ds.map_batches(Encode, fn_constructor_args=(books_ref,),
                    batch_format="pyarrow", concurrency=2)
       .write_parquet(os.path.join(out_dir, "codes")))
    atomic_write_json(meta_path, meta)
    return out_dir


class _PQScan:
    """Actor body: ADC tables built once per actor, per-batch code-table
    lookups (pure fancy indexing, no per-row Python), emit batch-local
    top-``rerank`` candidates per query."""

    def __init__(self, state_ref, rerank: int):
        st = ray.get(state_ref)
        self.q_ids = st["ids"]
        self.tables = st["tables"]  # (nq, m, n_codes)
        self.rerank = rerank

    def __call__(self, b: pa.Table) -> pa.Table:
        m = self.tables.shape[1]
        codes = np.stack([b[f"code_{j}"].to_numpy(zero_copy_only=False)
                          for j in range(m)], axis=1)  # (n, m)
        vec_ids = b["vec_id"].to_numpy(zero_copy_only=False)
        j_idx = np.arange(m)
        out_q, out_v, out_d = [], [], []
        for qi, qid in enumerate(self.q_ids):
            d = self.tables[qi][j_idx[None, :], codes].sum(axis=1)  # (n,)
            take = min(self.rerank, d.size)
            part = np.argpartition(d, take - 1)[:take]
            part = part[np.lexsort((vec_ids[part], d[part]))]
            out_q.extend([int(qid)] * take)
            out_v.extend(vec_ids[part].astype(np.int64).tolist())
            out_d.extend(d[part].tolist())
        return pa.table({"query_vec_id": pa.array(out_q, pa.int64()),
                         "vec_id": pa.array(out_v, pa.int64()),
                         "adc_d2": pa.array(out_d, pa.float64())})


def pq_query(pq_dir: str, embeddings_path: str, query_ids: list[int],
             query_matrix: np.ndarray, k: int = 5, rerank: int = 100,
             exclude_self: bool = True):
    """ADC scan over the codes + exact cosine rescore of the merged
    top-``rerank`` candidate ids (point-filtered embedding read; the raw
    corpus is touched only for candidates)."""
    import ray.data as rd

    books = np.load(os.path.join(pq_dir, "codebooks.npy"))
    pq_ = PQCodebook(m=books.shape[0], n_codes=books.shape[1])
    pq_.codebooks = books
    qm = _normalize(np.asarray(query_matrix, dtype=np.float64))
    tables = np.stack([pq_.adc_table(qm[i]) for i in range(qm.shape[0])])
    state = ray.put({"ids": np.asarray(query_ids, dtype=np.int64),
                     "tables": tables})

    cand = (
        rd.read_parquet(os.path.join(pq_dir, "codes"))
        .map_batches(_PQScan, fn_constructor_args=(state, rerank),
                     batch_format="pyarrow", concurrency=2)
        .to_pandas()
    )
    merged: dict[int, np.ndarray] = {}
    for qid, g in cand.groupby("query_vec_id"):
        g = g.sort_values(["adc_d2", "vec_id"], kind="mergesort").head(rerank)
        ids = g["vec_id"].to_numpy(np.int64)
        merged[int(qid)] = ids[ids != qid] if exclude_self else ids
    import pyarrow.parquet as _pqt

    all_ids = sorted({int(v) for ids in merged.values() for v in ids})
    emb = _pqt.read_table(embeddings_path, columns=["vec_id", "embedding"],
                          filters=[("vec_id", "in", all_ids)]) if all_ids else None
    rows = []
    if emb is not None and emb.num_rows:
        eid = emb["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        mat = _normalize(np.stack(emb["embedding"].to_pandas().to_numpy()).astype(np.float64))
        pos = {int(v): i for i, v in enumerate(eid)}
        for qi, qid in enumerate(np.asarray(query_ids, dtype=np.int64)):
            ids = merged.get(int(qid), np.empty(0, np.int64))
            if ids.size == 0:
                continue
            sel = np.array([pos[int(v)] for v in ids], dtype=np.int64)
            sims = mat[sel] @ qm[qi]
            order = np.lexsort((ids, -sims))[:k]
            for r, oi in enumerate(order, 1):
                rows.append((int(qid), int(ids[oi]), float(sims[oi]), r))
    import pandas as pd  # noqa: F811

    return pd.DataFrame(rows, columns=["query_vec_id", "vec_id", "cos_sim", "rank"])


def pq_query_exact(pq_dir: str, embeddings_path: str, n_queries: int,
                   k: int = 5, rerank: int = 100,
                   scale: int = PQ_EXACT_SCALE) -> pd.DataFrame:
    """The full ann_pq serving path — ADC lookup-sum over the persisted
    codes + rescore of the merged top-``rerank`` candidates — with every
    arithmetic step in int64 so a DuckDB twin that reads the SAME
    ``codebook.parquet`` reproduces it value-for-value (k-means training
    stays outside the oracle; its output is just a table).

    - Queries = corpus rows ``vec_id < n_queries``, quantized-normalized
      by :func:`_quantize_norm_int` (bit-parity with the SQL two-step).
    - ADC tables ``T[q,s,a] = Σ_d (qn−c_q)²`` — pure BIGINT.
    - Scan: ONE streaming pass over the codes parquet; per-batch integer
      table lookups + batch-local top-``rerank`` partials (self
      excluded); the driver merges nq·rerank·n_blocks candidate rows.
    - Rescore: point-filtered embedding read of the candidate ids only;
      score = integer dot of the quantized-normalized vectors
      (rank-equivalent to cosine at 1e-6 resolution); top-``k`` by
      (dot_q desc, vec_id asc).

    Returns (query_vec_id, rank, vec_id, adc_d2, dot_q), all int64.
    """
    import pyarrow.parquet as _pqt
    import ray.data as rd

    cb = _pqt.read_table(os.path.join(pq_dir, "codebook.parquet"))
    m = int(pa.compute.max(cb["sub"]).as_py()) + 1
    n_codes = int(pa.compute.max(cb["code"]).as_py()) + 1
    dim = int(pa.compute.max(cb["d"]).as_py()) + 1
    subdim = dim // m
    books_q = np.zeros((m, n_codes, subdim), dtype=np.int64)
    books_q[cb["sub"].to_numpy(zero_copy_only=False),
            cb["code"].to_numpy(zero_copy_only=False),
            cb["d"].to_numpy(zero_copy_only=False) % subdim] = \
        cb["val_q"].to_numpy(zero_copy_only=False)

    qt = _pqt.read_table(embeddings_path, columns=["vec_id", "embedding"],
                         filters=[("vec_id", "<", n_queries)])
    q_ids = qt["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    # multi-file / row-group reads need not return vec_id order — sort,
    # so output row order matches the twin's ORDER BY (code-review r05)
    o = np.argsort(q_ids, kind="stable")
    q_ids = q_ids[o]
    Qn = _quantize_norm_int(
        np.stack(qt["embedding"].to_pandas().to_numpy()[o]).astype(np.float64),
        scale)
    Qn_s = Qn.reshape(len(q_ids), m, subdim)
    # T[q, s, a] = Σ_d (qn − c_q)² — integer ADC tables
    T = ((Qn_s[:, :, None, :] - books_q[None, :, :, :]) ** 2).sum(axis=3)
    state = ray.put({"T": T, "q_ids": q_ids})

    class ScanInt:
        def __init__(self, ref, rr):
            st = ray.get(ref)
            self.T, self.q_ids, self.rr = st["T"], st["q_ids"], rr

        def __call__(self, b: pa.Table) -> pa.Table:
            mm = self.T.shape[1]
            codes = np.stack([b[f"code_{j}"].to_numpy(zero_copy_only=False)
                              for j in range(mm)], axis=1)
            vec_ids = b["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
            s_idx = np.arange(mm)
            out_q, out_v, out_d = [], [], []
            for qi, qid in enumerate(self.q_ids):
                sc = self.T[qi][s_idx[None, :], codes].sum(axis=1)
                mask = vec_ids != qid
                svc, sid = sc[mask], vec_ids[mask]
                take = min(self.rr, sid.size)
                if take == 0:
                    continue
                part = np.lexsort((sid, svc))[:take]
                out_q.extend([int(qid)] * take)
                out_v.extend(sid[part].tolist())
                out_d.extend(svc[part].tolist())
            return pa.table({"query_vec_id": pa.array(out_q, pa.int64()),
                             "vec_id": pa.array(out_v, pa.int64()),
                             "adc_d2": pa.array(out_d, pa.int64())})

    cand = (rd.read_parquet(os.path.join(pq_dir, "codes"))
            .map_batches(ScanInt, fn_constructor_args=(state, rerank),
                         batch_format="pyarrow", concurrency=2)
            .to_pandas())
    cand = cand.sort_values(["query_vec_id", "adc_d2", "vec_id"],
                            kind="mergesort")
    cand = cand.groupby("query_vec_id", sort=True).head(rerank)

    all_ids = sorted(set(cand["vec_id"].tolist()))
    if not all_ids:
        return pd.DataFrame(columns=["query_vec_id", "rank", "vec_id",
                                     "adc_d2", "dot_q"]).astype(np.int64)
    emb = _pqt.read_table(embeddings_path, columns=["vec_id", "embedding"],
                          filters=[("vec_id", "in", all_ids)])
    eid = emb["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    En = _quantize_norm_int(
        np.stack(emb["embedding"].to_pandas().to_numpy()).astype(np.float64),
        scale)
    pos = pd.Series(np.arange(len(eid)), index=eid)
    rows = []
    for qi, qid in enumerate(q_ids):
        g = cand[cand["query_vec_id"] == qid]
        if g.empty:
            continue
        ids = g["vec_id"].to_numpy(np.int64)
        adc = g["adc_d2"].to_numpy(np.int64)
        sel = pos.loc[ids].to_numpy()
        dots = En[sel] @ Qn[qi]                     # exact int64 dots
        order = np.lexsort((ids, -dots))[:k]
        for r, oi in enumerate(order, 1):
            rows.append((int(qid), r, int(ids[oi]), int(adc[oi]),
                         int(dots[oi])))
    return pd.DataFrame(
        rows, columns=["query_vec_id", "rank", "vec_id", "adc_d2", "dot_q"]
    ).astype(np.int64)


def label_propagation(embeddings_path: str, k: int = 5, n_iter: int = 3,
                      seed_mod: int = 5,
                      cols: tuple[str, str, str] = ("vec_id", "embedding", "label")):
    """Semi-supervised label propagation (Zhu & Ghahramani 2002) over
    the cosine kNN graph: vectors with ``vec_id % seed_mod == 0`` keep
    their true label (clamped seeds); every other vector starts
    unlabeled (−1) and, each synchronous iteration, takes the MAJORITY
    label of its k nearest neighbours' previous labels (unlabeled
    neighbours don't vote; ties → smallest label; no labeled neighbour
    → stays −1). The weak-supervision bootstrapping step of a
    training-data labelling pipeline.

    Scale shape: the expensive part — the kNN graph (all-pairs flops) —
    is the distributed streaming brute-force top-k (broadcast query
    matrix, per-batch matmul, partial top-k; at 100 TB swap in the
    IVF-bucketed construction). The graph is node×k-sized; iterations
    mirror TextRank: labels broadcast per iteration, ONE map over edge
    blocks emitting (u, label) partial votes, one node-sized
    groupby-sum, driver argmax. All votes are integers — deterministic
    and exactly SQL-twinnable (one CTE pair per iteration).

    Returns (vec_id, label) for every vector, int64, −1 = never reached.
    """
    import pyarrow.parquet as _pqt
    import ray.data as rd
    from ray.data.aggregate import Sum

    tbl = _pqt.read_table(embeddings_path, columns=list(cols))
    ids = tbl[cols[0]].to_numpy(zero_copy_only=False).astype(np.int64)
    true_lab = tbl[cols[2]].to_numpy(zero_copy_only=False).astype(np.int64)
    mat = np.stack(tbl[cols[1]].to_pandas().to_numpy()).astype(np.float64)

    ds = rd.read_parquet(embeddings_path, columns=[cols[0], cols[1]])
    edges = brute_force_topk(ds, ids.tolist(), mat, k=k,
                             exclude_self=True).materialize()

    pos = {int(v): i for i, v in enumerate(ids)}
    seed_mask = ids % seed_mod == 0
    lab = np.where(seed_mask, true_lab, -1).astype(np.int64)

    for _ in range(n_iter):
        lab_ref = ray.put({"pos": pos, "lab": lab})

        def votes(b: pd.DataFrame) -> pd.DataFrame:
            st = ray.get(lab_ref)
            p, lv = st["pos"], st["lab"]
            u = b["query_vec_id"].to_numpy(np.int64)
            v = b["vec_id"].to_numpy(np.int64)
            nl = lv[np.array([p[int(x)] for x in v], dtype=np.int64)]
            keep = nl >= 0
            return pd.DataFrame({"u": u[keep], "lab": nl[keep],
                                 "c": np.ones(int(keep.sum()), dtype=np.int64)})

        agg = (
            edges.map_batches(votes, batch_format="pandas")
            .groupby(["u", "lab"])
            .aggregate(Sum("c", alias_name="n"))
            .to_pandas()
        )
        new_lab = np.where(seed_mask, true_lab, -1).astype(np.int64)
        if len(agg):
            a = agg.sort_values(["u", "n", "lab"],
                                ascending=[True, False, True], kind="mergesort")
            first = a.groupby("u", sort=True).head(1)
            uu = first["u"].to_numpy(np.int64)
            ll = first["lab"].to_numpy(np.int64)
            sel = np.array([pos[int(x)] for x in uu], dtype=np.int64)
            upd = ~seed_mask[sel]
            new_lab[sel[upd]] = ll[upd]
        lab = new_lab

    return pd.DataFrame({"vec_id": ids, "label": lab}).sort_values(
        "vec_id", kind="mergesort").reset_index(drop=True)


# --- Exact-twin PQ: sampled-anchor codebook + integer ADC -------------------

_LEHMER_P = 2147483647  # Lehmer/MINSTD modulus — the repo's arrival-order contract


def pq_adc_exact(embeddings_path: str, n_queries: int, m: int = 8,
                 n_codes: int = 8, k: int = 5,
                 scale: int = 1_000_000) -> pd.DataFrame:
    """Product-quantization ADC scan with an EXACT SQL twin: the
    value-level verification companion to :func:`pq_build`/:func:`pq_query`
    (which keep the production k-means codebooks, recall-gated in
    ann_eval but not SQL-expressible).

    Construction chosen so every step is pure BIGINT arithmetic on both
    sides:
    - Codebook per subspace = the subvectors of ``n_codes`` ANCHOR rows
      — the corpus rows ranked first by the Lehmer permutation
      ``((vec_id % P) * 48271) % P`` (the repo's established
      pseudo-random order contract; sampled-point codebooks are the
      classic Lloyd-iteration-free VQ baseline).
    - All coordinates quantized to int64 at ×``scale``: float32→float64
      is exact, ×1e6 is one correctly-rounded IEEE multiply, and
      round-half-away matches DuckDB ``round()`` bit-for-bit — no libm
      anywhere, so the encode argmin, the ADC tables and the final
      scores are INTEGERS on both sides.
    - Encode: per subspace, nearest anchor by integer squared L2
      (ties → lowest anchor rank). ADC score(q, v) = Σ_s T[q][s][code],
      integer table lookups; top-``k`` per query by (score asc, vec_id).

    Scale shape: anchor selection is per-batch bottom-``n_codes``
    partials + a tiny driver merge (never a sort of the corpus); the
    scan is ONE streaming pass — quantize, encode, ADC-score against the
    broadcast (nq × m × n_codes) int64 table, batch-local top-k
    partials; driver merges nq·k·n_blocks candidate rows. Returns
    (query_vec_id, rank, vec_id, adc_d2), all int64.
    """
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.textops import round_half_away

    ds = rd.read_parquet(embeddings_path, columns=["vec_id", "embedding"])

    def bottom_partial(b: pa.Table) -> pa.Table:
        ids = b["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        key = ((ids % _LEHMER_P) * 48271) % _LEHMER_P
        o = np.lexsort((ids, key))[:n_codes]
        return b.take(pa.array(np.sort(o), pa.int64()))

    cand = ds.map_batches(bottom_partial, batch_format="pyarrow").to_pandas()
    ids_c = cand["vec_id"].to_numpy().astype(np.int64)
    key_c = ((ids_c % _LEHMER_P) * 48271) % _LEHMER_P
    take = np.lexsort((ids_c, key_c))[:n_codes]
    A_f = np.stack(cand["embedding"].to_numpy()[take]).astype(np.float64)
    A = round_half_away(A_f * scale, 0).astype(np.int64)      # (n_codes, dim)
    dim = A.shape[1]
    sub = dim // m
    A_s = A.reshape(n_codes, m, sub)                           # (a, s, d)

    import pyarrow.parquet as _pq

    qt = _pq.read_table(embeddings_path, columns=["vec_id", "embedding"],
                        filters=[("vec_id", "<", n_queries)])
    q_ids = qt["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    Q = round_half_away(
        np.stack(qt["embedding"].to_pandas().to_numpy()).astype(np.float64)
        * scale, 0).astype(np.int64)
    Q_s = Q.reshape(len(q_ids), m, sub)                        # (q, s, d)
    # T[q, s, a] = Σ_d (Q - A)²  — the integer ADC tables
    T = ((Q_s[:, :, None, :] - A_s[None, :, :, :].transpose(0, 2, 1, 3)) ** 2
         ).sum(axis=3)
    state = ray.put({"A_s": A_s, "T": T, "q_ids": q_ids})

    class Scan:
        def __init__(self, ref, kk):
            st = ray.get(ref)
            self.A_s, self.T, self.q_ids = st["A_s"], st["T"], st["q_ids"]
            self.k = kk

        def __call__(self, b: pa.Table) -> pa.Table:
            ids = b["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
            X = round_half_away(_batch_matrix(b) * scale, 0).astype(np.int64)
            n = X.shape[0]
            X_s = X.reshape(n, m, sub)
            # encode: (n, s) nearest-anchor codes, first-min tie-break
            d2 = ((X_s[:, :, None, :] - self.A_s.transpose(1, 0, 2)[None, :, :, :])
                  ** 2).sum(axis=3)                 # (n, s, a)
            codes = d2.argmin(axis=2)               # (n, s)
            s_idx = np.arange(m)
            out_q, out_v, out_d = [], [], []
            for qi, qid in enumerate(self.q_ids):
                sc = self.T[qi][s_idx[None, :], codes].sum(axis=1)  # (n,)
                mask = ids != qid
                svc, sid = sc[mask], ids[mask]
                take_ = min(self.k, sid.size)
                if take_ == 0:
                    continue
                part = np.lexsort((sid, svc))[:take_]
                out_q.extend([int(qid)] * take_)
                out_v.extend(sid[part].tolist())
                out_d.extend(svc[part].tolist())
            return pa.table({"query_vec_id": pa.array(out_q, pa.int64()),
                             "vec_id": pa.array(out_v, pa.int64()),
                             "adc_d2": pa.array(out_d, pa.int64())})

    cand2 = ds.map_batches(Scan, fn_constructor_args=(state, k),
                           batch_format="pyarrow", concurrency=2).to_pandas()
    cand2 = cand2.sort_values(["query_vec_id", "adc_d2", "vec_id"],
                              kind="mergesort")
    top = cand2.groupby("query_vec_id", sort=True).head(k).reset_index(drop=True)
    top["rank"] = top.groupby("query_vec_id").cumcount().astype(np.int64) + 1
    return top[["query_vec_id", "rank", "vec_id", "adc_d2"]].astype(np.int64)


def _train_persist_quantized_centroids(ds, oracle_dir: str, n_clusters: int,
                                       sample_rows: int, n_iter: int,
                                       scale: int) -> np.ndarray:
    """Shared k-means-outside-the-oracle trainer for the exact-twin
    companions (ivf_probe_exact, proto_prune_exact): deterministic
    Lloyd on the hash-sampled quantize-normalized vectors (init = the
    sample's first ``n_clusters`` rows in hash order; empty clusters
    keep their previous centroid), OUTPUT quantized to int64 and
    persisted as ``centroids.parquet`` (cluster, d, val_q) — the table
    the DuckDB twins read back. Returns the (C, dim) int64 array."""
    import pyarrow.parquet as _pqt

    from hybrid_sanctions_search_engine_ray.stages.textops import round_half_away

    sample = _sample_bottomk_by_hash(ds, sample_rows)          # float64 (s, dim)
    snq = _quantize_norm_int(sample, scale).astype(np.float64)
    # a corpus smaller than the requested cluster count yields that many
    # centroids (each sample row its own) — never a ragged table
    n_clusters = min(n_clusters, snq.shape[0])
    cent = snq[:n_clusters].copy()
    for _ in range(n_iter):
        d2 = ((snq[:, None, :] - cent[None, :, :]) ** 2).sum(axis=2)
        lab = np.argmin(d2, axis=1)
        for c in range(n_clusters):
            m = lab == c
            if m.any():
                cent[c] = snq[m].mean(axis=0)
    qc = round_half_away(cent, 0).astype(np.int64)             # (C, dim)
    dim = qc.shape[1]
    os.makedirs(oracle_dir, exist_ok=True)
    cl_col = np.repeat(np.arange(n_clusters, dtype=np.int64), dim)
    d_col = np.tile(np.arange(dim, dtype=np.int64), n_clusters)
    tmp = os.path.join(oracle_dir, "centroids.parquet.tmp")
    _pqt.write_table(pa.table({"cluster": cl_col, "d": d_col,
                               "val_q": qc.reshape(-1)}), tmp)
    os.replace(tmp, os.path.join(oracle_dir, "centroids.parquet"))
    return qc


def ivf_probe_exact(embeddings_path: str, oracle_dir: str, n_queries: int,
                    n_clusters: int = 8, nprobe: int = 3, k: int = 10,
                    sample_rows: int = 256, n_iter: int = 8,
                    scale: int = PQ_EXACT_SCALE) -> pd.DataFrame:
    """IVF probe serving with an EXACT SQL twin — the value-level
    verification companion to :func:`ivf_build`/:func:`ivf_query` (whose
    float centroids/assignment are principled rows-only), closing the
    IVF family the way pq_adc/ann_pq closed PQ: k-means training stays
    OUTSIDE the oracle, its output is persisted as a plain int64 table
    (``centroids.parquet``: cluster, d, val_q) that the DuckDB twin
    reads back, and everything downstream — assignment, probe ordering,
    candidate scan, scoring — is pure BIGINT arithmetic on both sides:

    - every vector quantize-normalized to int64 (``_quantize_norm_int``,
      the DuckDB ``round()`` parity kernel proven by ann_pq);
    - assignment = integer squared-L2 argmin vs the persisted centroids
      (ties → lowest cluster id);
    - per query, the ``nprobe`` clusters with smallest integer d2
      (ties → lowest id) are probed; candidates are the vectors
      ASSIGNED to those clusters (the partition-pruned IVF read shape);
    - score = integer dot of quantized-normalized vectors; top-``k`` by
      (dot desc, vec_id) — |nq| ≤ ~scale so a 64-dim dot is ≤ ~2⁶²·10⁻⁵,
      far inside int64.

    Training: deterministic Lloyd (``n_iter`` rounds, float64,
    driver-side) on the hash-sampled quantized vectors, init = the
    sample's first ``n_clusters`` rows in hash order; empty clusters
    keep their previous centroid. The output is just a table — the
    oracle never sees the iterations.

    Scale shape: centroids are a broadcast ``ray.put`` constant; the
    corpus pass is ONE streaming map_batches (quantize → assign →
    masked integer matmul vs the broadcast query matrix → batch-local
    top-k partials); the driver merges n_queries·k·n_blocks candidate
    rows, never the corpus. Returns
    (query_vec_id, rank, vec_id, cluster, dot_q), all int64.
    """
    import pyarrow.parquet as _pqt
    import ray.data as rd

    ds = rd.read_parquet(embeddings_path, columns=["vec_id", "embedding"])
    qc = _train_persist_quantized_centroids(
        ds, oracle_dir, n_clusters, sample_rows, n_iter, scale)

    # --- driver-side query prep (pushdown-pruned read, tiny) ---
    head = _pqt.read_table(embeddings_path, columns=["vec_id", "embedding"],
                           filters=[("vec_id", "<", n_queries)])
    q_ids = head["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    o = np.argsort(q_ids, kind="stable")
    q_ids = q_ids[o]
    q_mat = np.stack(head["embedding"].to_pandas().to_numpy()[o]).astype(np.float64)
    qnq = _quantize_norm_int(q_mat, scale)                     # (nq, dim) int64
    qd2 = ((qnq[:, None, :] - qc[None, :, :]) ** 2).sum(axis=2)  # int64
    # probe set: nprobe smallest (d2, cluster) per query. The trainer
    # clamps the cluster count to the sample size — use qc's row count.
    n_cl = qc.shape[0]
    probe_mask = np.zeros((q_ids.size, n_cl), dtype=bool)
    for i in range(q_ids.size):
        order = np.lexsort((np.arange(n_cl), qd2[i]))[:nprobe]
        probe_mask[i, order] = True

    state = ray.put((qc, qnq, q_ids, probe_mask))

    class Scan:
        def __init__(self, ref, k_):
            self.qc, self.qnq, self.qids, self.probe = ray.get(ref)
            self.k = k_

        def __call__(self, b: pa.Table) -> pa.Table:
            ids = b["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
            mat = _batch_matrix(b)
            nq = _quantize_norm_int(mat, scale)
            d2 = ((nq[:, None, :] - self.qc[None, :, :]) ** 2).sum(axis=2)
            cl = np.argmin(d2, axis=1)          # first min == lowest cluster id
            dots = nq @ self.qnq.T              # (n, nq) int64
            out_q, out_v, out_c, out_d = [], [], [], []
            for j, qid in enumerate(self.qids):
                mask = self.probe[j, cl] & (ids != qid)
                if not mask.any():
                    continue
                dv, iv, cv = dots[mask, j], ids[mask], cl[mask]
                take = np.lexsort((iv, -dv))[: self.k]
                out_q.extend([int(qid)] * take.size)
                out_v.extend(iv[take].tolist())
                out_c.extend(cv[take].tolist())
                out_d.extend(dv[take].tolist())
            return pa.table({"query_vec_id": pa.array(out_q, pa.int64()),
                             "vec_id": pa.array(out_v, pa.int64()),
                             "cluster": pa.array(out_c, pa.int64()),
                             "dot_q": pa.array(out_d, pa.int64())})

    cand = ds.map_batches(Scan, fn_constructor_args=(state, k),
                          batch_format="pyarrow", concurrency=2).to_pandas()
    cand = cand.sort_values(["query_vec_id", "dot_q", "vec_id"],
                            ascending=[True, False, True], kind="mergesort")
    top = cand.groupby("query_vec_id", sort=True).head(k).reset_index(drop=True)
    top["rank"] = top.groupby("query_vec_id").cumcount().astype(np.int64) + 1
    return top[["query_vec_id", "rank", "vec_id", "cluster", "dot_q"]].astype(np.int64)


def lsh_probe_exact(embeddings_path: str, n_queries: int, n_planes: int = 8,
                    radius: int = 2, k: int = 10,
                    scale: int = PQ_EXACT_SCALE) -> pd.DataFrame:
    """Hyperplane-LSH probe serving with an EXACT SQL twin — the
    value-level companion to :func:`lsh_build`/:func:`lsh_query` (whose
    Gaussian random planes are principled rows-only), completing the
    value-gated closure across the ANN family beside ivf_probe_exact /
    pq_adc_exact / nsw full-beam. Construction chosen so every step is
    pure BIGINT on both sides:

    - planes = the quantize-normalized vectors of the ``n_planes``
      ANCHOR rows — the corpus rows ranked first by the Lehmer
      permutation ``((vec_id % P) * 48271) % P`` (the repo's
      pseudo-random order contract; data-sampled hyperplanes are a
      classic LSH variant);
    - signature bit_i(v) = [nq_v · plane_i ≥ 0] (integer dot sign;
      0 counts as 1 on both sides), bucket = Σ bit_i · 2^i;
    - multi-probe candidates for q: every vector whose bucket is within
      Hamming ``radius`` of q's bucket (DuckDB ``bit_count(xor(..))``),
      self excluded;
    - score = integer dot of quantized-normalized vectors; top-``k`` by
      (dot desc, vec_id).

    One streaming corpus pass: anchor selection is per-batch bottom-k
    partials + a tiny driver merge; the scan quantizes, signs against
    the broadcast plane matrix, Hamming-filters against the broadcast
    query buckets, scores with one integer matmul and emits batch-local
    top-k partials. Returns
    (query_vec_id, rank, vec_id, bucket, hamming, dot_q), all int64.
    """
    import pyarrow.parquet as _pqt
    import ray.data as rd

    ds = rd.read_parquet(embeddings_path, columns=["vec_id", "embedding"])

    def bottom_partial(b: pa.Table) -> pa.Table:
        ids = b["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        key = ((ids % _LEHMER_P) * 48271) % _LEHMER_P
        o = np.lexsort((ids, key))[:n_planes]
        return b.take(pa.array(np.sort(o), pa.int64()))

    cand = ds.map_batches(bottom_partial, batch_format="pyarrow").to_pandas()
    ids_c = cand["vec_id"].to_numpy().astype(np.int64)
    key_c = ((ids_c % _LEHMER_P) * 48271) % _LEHMER_P
    take = np.lexsort((ids_c, key_c))[:n_planes]
    planes = _quantize_norm_int(
        np.stack(cand["embedding"].to_numpy()[take]).astype(np.float64), scale)

    head = _pqt.read_table(embeddings_path, columns=["vec_id", "embedding"],
                           filters=[("vec_id", "<", n_queries)])
    q_ids = head["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    o = np.argsort(q_ids, kind="stable")
    q_ids = q_ids[o]
    qnq = _quantize_norm_int(
        np.stack(head["embedding"].to_pandas().to_numpy()[o]).astype(np.float64),
        scale)
    # a corpus smaller than n_planes yields that many planes — use the
    # actual plane count everywhere (code-review r05)
    n_planes = planes.shape[0]
    q_buckets = (((qnq @ planes.T) >= 0).astype(np.int64)
                 << np.arange(n_planes, dtype=np.int64)).sum(axis=1)

    state = ray.put((planes, qnq, q_ids, q_buckets))

    class Scan:
        def __init__(self, ref, k_, radius_):
            self.planes, self.qnq, self.qids, self.qb = ray.get(ref)
            self.k, self.radius = k_, radius_

        def __call__(self, b: pa.Table) -> pa.Table:
            ids = b["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
            mat = _batch_matrix(b)
            nq = _quantize_norm_int(mat, scale)
            nb = (((nq @ self.planes.T) >= 0).astype(np.int64)
                  << np.arange(self.planes.shape[0], dtype=np.int64)).sum(axis=1)
            dots = nq @ self.qnq.T
            out = {c: [] for c in
                   ("query_vec_id", "vec_id", "bucket", "hamming", "dot_q")}
            for j, qid in enumerate(self.qids):
                x = np.bitwise_xor(nb, self.qb[j])
                # popcount ≤ n_planes bits (numpy 1.x has no bitwise_count)
                ham = np.zeros_like(x)
                for bit in range(self.planes.shape[0]):
                    ham += (x >> bit) & 1
                mask = (ham <= self.radius) & (ids != qid)
                if not mask.any():
                    continue
                dv, iv = dots[mask, j], ids[mask]
                take_ = np.lexsort((iv, -dv))[: self.k]
                out["query_vec_id"].extend([int(qid)] * take_.size)
                out["vec_id"].extend(iv[take_].tolist())
                out["bucket"].extend(nb[mask][take_].tolist())
                out["hamming"].extend(ham[mask][take_].astype(np.int64).tolist())
                out["dot_q"].extend(dv[take_].tolist())
            return pa.table({c: pa.array(v, pa.int64()) for c, v in out.items()})

    cand2 = ds.map_batches(Scan, fn_constructor_args=(state, k, radius),
                           batch_format="pyarrow", concurrency=2).to_pandas()
    cand2 = cand2.sort_values(["query_vec_id", "dot_q", "vec_id"],
                              ascending=[True, False, True], kind="mergesort")
    top = cand2.groupby("query_vec_id", sort=True).head(k).reset_index(drop=True)
    top["rank"] = top.groupby("query_vec_id").cumcount().astype(np.int64) + 1
    return top[["query_vec_id", "rank", "vec_id", "bucket", "hamming",
                "dot_q"]].astype(np.int64)


def proto_prune_exact(embeddings_path: str, oracle_dir: str,
                      keep_frac: float = 0.75, n_clusters: int = 8,
                      sample_rows: int = 256, n_iter: int = 8,
                      scale: int = PQ_EXACT_SCALE):
    """SSL-prototype pruning (Sorscher et al. 2022) with an EXACT SQL
    twin — the value-level companion to :func:`prototype_prune` (whose
    float cosines are principled rows-only): k-means training stays
    outside the oracle (int64 centroid table persisted by the shared
    trainer), and assignment, the prototypicality score and the
    keep-hard cutoff are pure BIGINT on both sides:

    - score(v) = nq_v · qc[cluster(v)] — the integer analog of
      cosine-to-centroid (both factors ~unit at ×scale);
    - keep rule: keep the K = max(1, floor(keep_frac·n)) HARDEST
      vectors (smallest score); cutoff = the score at ascending rank K
      ordered by (score, vec_id), kept with ties (score ≤ cutoff) —
      the same prune-the-most-prototypical contract, rank-defined so
      both sides agree without quantile-semantics fine print.

    Scale shape (the psi_drift lesson: no corpus materialize): THREE
    streaming passes over the pruned (vec_id, embedding) read — (1) a
    coarse histogram of score >> 32 per bucket (tiny groupby) locates
    the bucket holding rank K; (2) only that bucket's scores (its
    count, ≪ n) come to the driver for the exact cutoff; (3) the final
    pass emits (vec_id, cluster, dot_q, keep) with the broadcast
    scalar cutoff. Returns a Dataset, all int64 + bool ``keep``.
    """
    import ray.data as rd

    ds = rd.read_parquet(embeddings_path, columns=["vec_id", "embedding"])
    qc = _train_persist_quantized_centroids(
        ds, oracle_dir, n_clusters, sample_rows, n_iter, scale)
    qc_ref = ray.put(qc)

    def _score_batch(b: pa.Table, qc_):
        ids = b["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        mat = _batch_matrix(b)
        nq = _quantize_norm_int(mat, scale)
        d2 = ((nq[:, None, :] - qc_[None, :, :]) ** 2).sum(axis=2)
        cl = np.argmin(d2, axis=1)                   # ties → lowest cluster
        dot = np.take_along_axis(nq @ qc_.T, cl[:, None], axis=1)[:, 0]
        return ids, cl.astype(np.int64), dot

    class Hist:
        def __init__(self, ref):
            self.qc = ray.get(ref)

        def __call__(self, b: pa.Table) -> pa.Table:
            _, _, dot = _score_batch(b, self.qc)
            bucket = dot >> 32                        # arithmetic shift: order-preserving
            u, c = np.unique(bucket, return_counts=True)
            return pa.table({"bucket": pa.array(u, pa.int64()),
                             "n_p": pa.array(c, pa.int64())})

    hist = (ds.map_batches(Hist, fn_constructor_args=(qc_ref,),
                           batch_format="pyarrow", concurrency=2)
            .groupby("bucket").sum("n_p").to_pandas()
            .sort_values("bucket").reset_index(drop=True))
    counts = hist["sum(n_p)"].to_numpy()
    n_total = int(counts.sum())
    k_rank = max(1, int(np.floor(keep_frac * n_total)))
    cum = counts.cumsum()
    bi = int(np.searchsorted(cum, k_rank))
    target_bucket = int(hist["bucket"].iloc[bi])
    rank_in_bucket = k_rank - (int(cum[bi - 1]) if bi else 0)   # 1-based

    class BucketVals:
        def __init__(self, ref, tb):
            self.qc = ray.get(ref)
            self.tb = tb

        def __call__(self, b: pa.Table) -> pa.Table:
            ids, _, dot = _score_batch(b, self.qc)
            m = (dot >> 32) == self.tb
            return pa.table({"dot_q": pa.array(dot[m], pa.int64()),
                             "vec_id": pa.array(ids[m], pa.int64())})

    bv = (ds.map_batches(BucketVals, fn_constructor_args=(qc_ref, target_bucket),
                         batch_format="pyarrow", concurrency=2).to_pandas())
    bv = bv.sort_values(["dot_q", "vec_id"], kind="mergesort")
    cutoff = int(bv["dot_q"].iloc[rank_in_bucket - 1])

    class Final:
        def __init__(self, ref, cut):
            self.qc = ray.get(ref)
            self.cut = cut

        def __call__(self, b: pa.Table) -> pa.Table:
            ids, cl, dot = _score_batch(b, self.qc)
            return pa.table({"vec_id": pa.array(ids, pa.int64()),
                             "cluster": pa.array(cl, pa.int64()),
                             "dot_q": pa.array(dot, pa.int64()),
                             "keep": pa.array(dot <= self.cut, pa.bool_())})

    return ds.map_batches(Final, fn_constructor_args=(qc_ref, cutoff),
                          batch_format="pyarrow", concurrency=2)


def mmr_exact(embeddings_path: str, n_queries: int, window: int = 12,
              k: int = 5, w_rel: int = 7, w_div: int = 3,
              scale: int = PQ_EXACT_SCALE) -> pd.DataFrame:
    """Maximal-Marginal-Relevance diversified rerank (Carbonell &
    Goldstein '98) with an EXACT SQL twin — the value-level companion
    to the BM25+trigram mmr_rerank (greedy float loop, principled
    rows-only). Same shape as the other `_exact` companions: integer
    arithmetic end to end, greedy steps UNROLLED as k chained CTEs in
    the twin (each step a plain argmax — no recursive-CTE aggregation
    restrictions):

    - rel(q, v) = integer dot of quantize-normalized vectors;
      candidate window = top-``window`` by (rel desc, vec_id), self
      excluded — the rerank window a RAG stack would pass to MMR;
    - greedy: at each step pick argmax of
      ``w_rel·rel − w_div·max_{s∈picked} dot(v, s)`` (integer weights
      stand in for λ = w_rel/(w_rel+w_div); ties → lowest vec_id);
      step 1 has no diversity term (max over ∅ = 0 on both sides);
    - k picks per query; output (query_vec_id, rank, vec_id, rel_q,
      mmr_q) — mmr_q is the score AT SELECTION TIME, all int64.

    Scale shape: ONE streaming corpus pass finds the candidate window
    (batch-local top-``window`` partials, driver merges
    n_queries·window·n_blocks rows); candidate vectors come back via a
    pushdown-pruned point read; the greedy loop itself is
    O(n_queries·k·window) driver work on the tiny window — the same
    split mmr_rerank uses.
    """
    import pyarrow.parquet as _pqt
    import ray.data as rd

    ds = rd.read_parquet(embeddings_path, columns=["vec_id", "embedding"])

    head = _pqt.read_table(embeddings_path, columns=["vec_id", "embedding"],
                           filters=[("vec_id", "<", n_queries)])
    q_ids = head["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    o = np.argsort(q_ids, kind="stable")
    q_ids = q_ids[o]
    qnq = _quantize_norm_int(
        np.stack(head["embedding"].to_pandas().to_numpy()[o]).astype(np.float64),
        scale)
    state = ray.put((qnq, q_ids))

    class WindowScan:
        def __init__(self, ref, w):
            self.qnq, self.qids = ray.get(ref)
            self.w = w

        def __call__(self, b: pa.Table) -> pa.Table:
            ids = b["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
            mat = _batch_matrix(b)
            nq = _quantize_norm_int(mat, scale)
            dots = nq @ self.qnq.T
            out_q, out_v, out_r = [], [], []
            for j, qid in enumerate(self.qids):
                mask = ids != qid
                dv, iv = dots[mask, j], ids[mask]
                take = np.lexsort((iv, -dv))[: self.w]
                out_q.extend([int(qid)] * take.size)
                out_v.extend(iv[take].tolist())
                out_r.extend(dv[take].tolist())
            return pa.table({"query_vec_id": pa.array(out_q, pa.int64()),
                             "vec_id": pa.array(out_v, pa.int64()),
                             "rel_q": pa.array(out_r, pa.int64())})

    cand = ds.map_batches(WindowScan, fn_constructor_args=(state, window),
                          batch_format="pyarrow", concurrency=2).to_pandas()
    cand = cand.sort_values(["query_vec_id", "rel_q", "vec_id"],
                            ascending=[True, False, True], kind="mergesort")
    cand = cand.groupby("query_vec_id", sort=True).head(window)

    # pushdown-pruned point read of the window vectors (tiny)
    need = sorted(set(cand["vec_id"].tolist()))
    ct = _pqt.read_table(embeddings_path, columns=["vec_id", "embedding"],
                         filters=[("vec_id", "in", need)])
    c_ids = ct["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    cnq = _quantize_norm_int(
        np.stack(ct["embedding"].to_pandas().to_numpy()).astype(np.float64),
        scale)
    pos = {int(v): i for i, v in enumerate(c_ids)}

    rows = []
    for qid, g in cand.groupby("query_vec_id", sort=True):
        ids = g["vec_id"].to_numpy().astype(np.int64)
        rel = g["rel_q"].to_numpy().astype(np.int64)
        vecs = cnq[[pos[int(v)] for v in ids]]
        picked: list[int] = []
        maxdiv = np.zeros(ids.size, dtype=np.int64)
        avail = np.ones(ids.size, dtype=bool)
        for step in range(1, min(k, ids.size) + 1):
            score = w_rel * rel - w_div * maxdiv
            # select among available rows only (negating an int64-min
            # sentinel would wrap and sort masked rows first)
            av = np.flatnonzero(avail)
            i = int(av[np.lexsort((ids[av], -score[av]))[0]])
            rows.append({"query_vec_id": int(qid), "rank": step,
                         "vec_id": int(ids[i]), "rel_q": int(rel[i]),
                         "mmr_q": int(score[i])})
            avail[i] = False
            # max over the picked set can be NEGATIVE (anti-correlated
            # vectors) — assign on the first pick, maximum() after
            d_new = vecs @ vecs[i]
            maxdiv = d_new if not picked else np.maximum(maxdiv, d_new)
            picked.append(i)
        del picked
    return pd.DataFrame(rows).astype(np.int64)
