import numpy as np
import pyarrow as pa
import pytest

from hybrid_sanctions_search_engine_ray.stages.similarity import (
    IVFIndex,
    _normalize,
    brute_force_topk,
    ivf_topk,
)


@pytest.fixture(scope="module")
def vectors():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((300, 16)).astype(np.float32)
    return m


def _emb_table(m):
    return pa.table(
        {
            "vec_id": pa.array(range(len(m)), pa.int64()),
            "embedding": pa.array([row for row in m.tolist()], pa.list_(pa.float32())),
        }
    )


def test_brute_force_matches_numpy(ray_session, vectors):
    import ray.data as rd

    ds = rd.from_arrow(_emb_table(vectors))
    q_ids = [0, 5]
    qm = vectors[q_ids].astype(np.float64)
    res = brute_force_topk(ds, q_ids, qm, k=7).to_pandas()

    mn = _normalize(vectors.astype(np.float64))
    for qi, qid in enumerate(q_ids):
        sims = mn @ _normalize(qm)[qi]
        sims[qid] = -np.inf  # exclude self
        expect = np.argsort(-sims, kind="stable")[:7]
        got = res[res.query_vec_id == qid].sort_values("rank")["vec_id"].to_numpy()
        assert list(got) == list(expect)


def test_ivf_recall(ray_session, vectors):
    import ray.data as rd

    ds = rd.from_arrow(_emb_table(vectors))
    q_ids = [0, 5, 9]
    qm = vectors[q_ids].astype(np.float64)
    exact = brute_force_topk(ds, q_ids, qm, k=5).to_pandas()
    approx = ivf_topk(ds, q_ids, qm, k=5, n_clusters=8, nprobe=4, sample_rows=300).to_pandas()
    hits = total = 0
    for qid in q_ids:
        e = set(exact[exact.query_vec_id == qid]["vec_id"])
        a = set(approx[approx.query_vec_id == qid]["vec_id"])
        hits += len(e & a)
        total += len(e)
    assert hits / total >= 0.6, f"IVF recall too low: {hits}/{total}"


def test_ivf_deterministic(vectors):
    c1 = IVFIndex(n_clusters=8).fit(vectors).centroids
    c2 = IVFIndex(n_clusters=8).fit(vectors).centroids
    assert np.array_equal(c1, c2)


def test_ivf_persisted_build_and_query(ray_session, vectors, tmp_path):
    """ivf_build writes a cluster-partitioned layout once (idempotent);
    ivf_query reads only probed partitions and achieves brute-force-level
    recall at nprobe≈n_clusters/2."""
    import os

    import pyarrow.parquet as pq
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.similarity import ivf_build, ivf_query

    src = str(tmp_path / "emb.parquet")
    pq.write_table(_emb_table(vectors), src)
    out = str(tmp_path / "ivf")
    ivf_build(src, out, n_clusters=8, sample_rows=300)
    cdirs = [d for d in os.listdir(out) if d.startswith("cluster=")]
    assert len(cdirs) >= 2, "expected multiple persisted cluster partitions"
    assert os.path.exists(os.path.join(out, "centroids.npy"))
    mtime = os.path.getmtime(os.path.join(out, "_IVF_META.json"))
    ivf_build(src, out, n_clusters=8, sample_rows=300)  # idempotent skip
    assert os.path.getmtime(os.path.join(out, "_IVF_META.json")) == mtime

    q_ids = [0, 5, 9]
    qm = vectors[q_ids].astype(np.float64)
    exact = brute_force_topk(rd.read_parquet(src), q_ids, qm, k=5).to_pandas()
    approx = ivf_query(out, q_ids, qm, k=5, nprobe=4).to_pandas()
    hits = total = 0
    for qid in q_ids:
        e = set(exact[exact.query_vec_id == qid]["vec_id"])
        a = set(approx[approx.query_vec_id == qid]["vec_id"])
        hits += len(e & a)
        total += len(e)
    assert hits / total >= 0.6, f"persisted-IVF recall too low: {hits}/{total}"


def test_sample_no_corpus_sort(ray_session, vectors):
    """The centroid sample must not sort the corpus: the executed plan's
    Sort operates on the per-batch bottom-k candidates only (bounded by
    blocks × sample_rows), and the sample is batching-invariant."""
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.similarity import _sample_bottomk_by_hash

    t = _emb_table(vectors)
    s1 = _sample_bottomk_by_hash(rd.from_arrow(t), 50)
    # different batching: two half-tables → same winners
    ds2 = rd.from_arrow([t.slice(0, 137), t.slice(137)])
    s2 = _sample_bottomk_by_hash(ds2, 50)
    assert np.array_equal(s1, s2)


# --- multi-probe hyperplane LSH --------------------------------------------


@pytest.fixture(scope="module")
def clustered_vectors():
    """Tight clusters (cos ~0.99 within a cluster) — the regime LSH
    bucketing is built for; true neighbors differ in few sign bits."""
    rng = np.random.default_rng(17)
    centers = rng.standard_normal((20, 16))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    pts = np.repeat(centers, 15, axis=0) + 0.05 * rng.standard_normal((300, 16))
    return pts.astype(np.float32)


def _recall(exact, approx, q_ids):
    hits = total = 0
    for qid in q_ids:
        e = set(exact[exact.query_vec_id == qid]["vec_id"])
        a = set(approx[approx.query_vec_id == qid]["vec_id"])
        hits += len(e & a)
        total += len(e)
    return hits / total


def test_lsh_bucket_deterministic_and_probe_radius(clustered_vectors):
    from hybrid_sanctions_search_engine_ray.stages.similarity import HyperplaneLSH

    lsh = HyperplaneLSH(16, n_planes=12, seed=29)
    b1 = lsh.bucket(clustered_vectors)
    b2 = HyperplaneLSH(16, n_planes=12, seed=29).bucket(clustered_vectors)
    assert np.array_equal(b1, b2)
    probes = lsh.probe(clustered_vectors[0], radius=2)
    assert len(probes) == 1 + 12 + 66  # C(12,0)+C(12,1)+C(12,2)
    assert int(b1[0]) in probes
    assert len(lsh.probe(clustered_vectors[0], radius=0)) == 1


def test_lsh_topk_recall(ray_session, clustered_vectors):
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.similarity import lsh_topk

    ds = rd.from_arrow(_emb_table(clustered_vectors))
    q_ids = [0, 45, 150]
    qm = clustered_vectors[q_ids].astype(np.float64)
    exact = brute_force_topk(ds, q_ids, qm, k=5).to_pandas()
    approx = lsh_topk(ds, q_ids, qm, k=5, n_planes=12, radius=2).to_pandas()
    r = _recall(exact, approx, q_ids)
    assert r >= 0.8, f"LSH recall too low: {r}"


def test_lsh_persisted_build_query_and_pruning(ray_session, clustered_vectors, tmp_path):
    """lsh_build persists part=P dirs (idempotent); lsh_query reads only
    matching parts with a bucket filter and reaches brute-force recall
    on tight clusters."""
    import os

    import pyarrow.parquet as pq
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.similarity import lsh_build, lsh_query

    src = str(tmp_path / "emb.parquet")
    pq.write_table(_emb_table(clustered_vectors), src)
    out = str(tmp_path / "lsh")
    lsh_build(src, out, n_planes=12, n_parts=8)
    pdirs = [d for d in os.listdir(out) if d.startswith("part=")]
    assert len(pdirs) >= 2
    total_rows = sum(
        pq.read_table(os.path.join(out, d, "data.parquet")).num_rows for d in pdirs
    )
    assert total_rows == 300  # every vector landed in exactly one part
    mtime = os.path.getmtime(os.path.join(out, "_LSH_META.json"))
    lsh_build(src, out, n_planes=12, n_parts=8)  # idempotent skip
    assert os.path.getmtime(os.path.join(out, "_LSH_META.json")) == mtime

    q_ids = [0, 45, 150]
    qm = clustered_vectors[q_ids].astype(np.float64)
    exact = brute_force_topk(rd.read_parquet(src), q_ids, qm, k=5).to_pandas()
    approx = lsh_query(out, q_ids, qm, k=5, radius=2).to_pandas()
    r = _recall(exact, approx, q_ids)
    assert r >= 0.8, f"persisted-LSH recall too low: {r}"
    # ranks within each query are exact-cosine ordered
    for qid in q_ids:
        g = approx[approx.query_vec_id == qid]
        assert (np.diff(g.sort_values("rank")["cos_sim"].to_numpy()) <= 1e-12).all()


def test_lsh_query_no_candidates(ray_session, clustered_vectors, tmp_path):
    """A query probing only empty buckets returns an empty frame, not an
    error (radius 0 on an orthogonal-ish vector may miss every part)."""
    import pyarrow.parquet as pq

    from hybrid_sanctions_search_engine_ray.stages.similarity import lsh_build, lsh_query

    src = str(tmp_path / "emb.parquet")
    pq.write_table(_emb_table(clustered_vectors[:4]), src)
    out = str(tmp_path / "lsh_small")
    lsh_build(src, out, n_planes=12, n_parts=8)
    rng = np.random.default_rng(99)
    stray = rng.standard_normal((1, 16))
    res = lsh_query(out, [999], stray, k=5, radius=0).to_pandas()
    assert len(res) <= 5  # empty or tiny — and no exception


def test_cosine_range_search_matches_numpy(ray_session, vectors):
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.similarity import cosine_range_search

    ds = rd.from_arrow(_emb_table(vectors))
    q_ids = np.array([0, 5], dtype=np.int64)
    qm = vectors[q_ids].astype(np.float64)
    thr = 0.3
    res = cosine_range_search(ds, q_ids, qm, threshold=thr, exclude_self=True).to_pandas()
    nm = _normalize(vectors.astype(np.float64))
    sims = _normalize(qm) @ nm.T
    want = {(int(q), int(v)) for qi, q in enumerate(q_ids) for v in np.nonzero(sims[qi] >= thr)[0]
            if int(v) != int(q)}
    got = set(zip(res["query_vec_id"].astype(int), res["vec_id"].astype(int)))
    assert got == want and len(res) == len(want)
    for _, r in res.iterrows():
        qi = int(np.where(q_ids == r["query_vec_id"])[0][0])
        assert abs(r["cos_sim"] - sims[qi, int(r["vec_id"])]) < 1e-12


def test_cosine_range_search_keeps_self_when_asked(ray_session, vectors):
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.similarity import cosine_range_search

    ds = rd.from_arrow(_emb_table(vectors))
    res = cosine_range_search(ds, np.array([4]), vectors[[4]].astype(np.float64),
                              threshold=0.999, exclude_self=False).to_pandas()
    assert 4 in set(res["vec_id"].astype(int))


def test_int8_topk_matches_brute_force(ray_session):
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.similarity import (
        brute_force_topk, int8_topk)

    rng = np.random.RandomState(7)
    n, d = 400, 32
    mat = rng.randn(n, d).astype(np.float64)
    tbl = pa.table({"vec_id": pa.array(range(n), pa.int64()),
                    "embedding": pa.array([list(map(float, r)) for r in mat],
                                          pa.list_(pa.float32()))})
    ds = rd.from_arrow(tbl)
    q_ids = [0, 1, 2]
    q = mat[:3]
    bf = brute_force_topk(ds, q_ids, q, k=5).to_pandas()
    i8 = int8_topk(ds, q_ids, q, k=5, rescore=4).to_pandas()
    key = ["query_vec_id", "rank"]
    bf = bf.sort_values(key).reset_index(drop=True)
    i8 = i8.sort_values(key).reset_index(drop=True)
    assert bf["vec_id"].tolist() == i8["vec_id"].tolist()
    assert np.allclose(bf["cos_sim"], i8["cos_sim"], atol=1e-9)
    # self is excluded
    assert not ((i8["query_vec_id"] == i8["vec_id"]).any())


def test_maxsim_topk_hand_math(ray_session):
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.similarity import maxsim_topk

    rng = np.random.RandomState(11)
    n, d, gs = 40, 16, 4  # 10 groups of 4 vectors
    mat = rng.randn(n, d).astype(np.float64)
    tbl = pa.table({"vec_id": pa.array(range(n), pa.int64()),
                    "embedding": pa.array([list(map(float, r)) for r in mat],
                                          pa.list_(pa.float32()))})
    ds = rd.from_arrow(tbl)
    q = mat[:2]
    out = maxsim_topk(ds, [0, 1], q, group_size=gs, k=10)
    # brute reference: note float32 storage — compare against the
    # round-tripped matrix exactly as the stage reads it
    m32 = mat.astype(np.float32).astype(np.float64)
    mn = m32 / np.linalg.norm(m32, axis=1, keepdims=True)
    qn = mat[:2] / np.linalg.norm(mat[:2], axis=1, keepdims=True)
    sims = mn @ qn.T  # (n, 2)
    want = np.zeros(n // gs)
    for g in range(n // gs):
        want[g] = sims[g*gs:(g+1)*gs].max(axis=0).sum()
    order = np.lexsort((np.arange(n // gs), -np.round(want, 4)))
    assert out["group_id"].tolist() == order[:10].tolist()
    got = out.set_index("group_id")["maxsim"]
    for g in range(n // gs):
        assert abs(got[g] - round(float(want[g]), 4)) < 2e-4
    # group containing a query vector itself scores that query at ~1.0
    assert got[0] > 1.0  # cos(q0, v0)=1 and cos(q1, v1)=1 both in group 0


# --- NSW graph ANN (HNSW-class) ----------------------------------------------


def test_nsw_graph_deterministic(vectors):
    from hybrid_sanctions_search_engine_ray.stages.similarity import (
        _normalize,
        _nsw_build_graph,
    )

    mn = _normalize(vectors.astype(np.float64))
    g1 = _nsw_build_graph(mn, m=6, ef_construction=24)
    g2 = _nsw_build_graph(mn, m=6, ef_construction=24)
    assert len(g1) == len(vectors)
    assert all(np.array_equal(a, b) for a, b in zip(g1, g2))
    # bounded degree: reverse-edge pruning keeps every node at <= 2m
    assert max(len(a) for a in g1) <= 12
    # connected enough to navigate: no isolated nodes past the entry point
    assert all(len(a) > 0 for a in g1[1:])


def test_nsw_search_exact_on_full_beam(vectors):
    """With ef >= n the beam search degenerates to exact ranking — the
    graph cannot hide a neighbor from a full-width beam (navigability
    sanity check on the constructed graph)."""
    from hybrid_sanctions_search_engine_ray.stages.similarity import (
        _normalize,
        _nsw_build_graph,
        _nsw_search,
    )

    mn = _normalize(vectors.astype(np.float64))
    g = _nsw_build_graph(mn, m=6, ef_construction=24)
    q = mn[7]
    idx, sims = _nsw_search(mn, g, q, ef=len(mn))
    want = np.lexsort((np.arange(len(mn)), -(mn @ q)))
    assert list(idx) == list(want)
    assert np.allclose(sims, (mn @ q)[idx])


def test_nsw_persisted_build_and_query(ray_session, vectors, tmp_path):
    """nsw_build persists part=P shard graphs (idempotent); nsw_query
    beam-searches every shard and meets/beats the IVF recall bar at the
    same k."""
    import os

    import pyarrow.parquet as pq
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.similarity import nsw_build, nsw_query

    src = str(tmp_path / "emb.parquet")
    pq.write_table(_emb_table(vectors), src)
    out = str(tmp_path / "nsw")
    nsw_build(src, out, n_parts=4, m=8, ef_construction=48)
    pdirs = [d for d in os.listdir(out) if d.startswith("part=")]
    assert len(pdirs) == 4
    mtime = os.path.getmtime(os.path.join(out, "_NSW_META.json"))
    nsw_build(src, out, n_parts=4, m=8, ef_construction=48)  # idempotent skip
    assert os.path.getmtime(os.path.join(out, "_NSW_META.json")) == mtime
    # adjacency is local row indices: every neighbor id < shard row count
    for d in pdirs:
        t = pq.read_table(os.path.join(out, d, "data.parquet"))
        flat = t["neighbors"].combine_chunks().flatten().to_numpy(zero_copy_only=False)
        assert flat.size == 0 or (flat.min() >= 0 and flat.max() < len(t))

    q_ids = [0, 5, 9]
    qm = vectors[q_ids].astype(np.float64)
    exact = brute_force_topk(rd.read_parquet(src), q_ids, qm, k=5).to_pandas()
    approx = nsw_query(out, q_ids, qm, k=5, ef=32).to_pandas()
    hits = total = 0
    for qid in q_ids:
        e = set(exact[exact.query_vec_id == qid]["vec_id"])
        a = set(approx[approx.query_vec_id == qid]["vec_id"])
        assert qid not in a, "exclude_self must drop the query's own vector"
        hits += len(e & a)
        total += len(e)
    assert hits / total >= 0.8, f"NSW recall too low: {hits}/{total}"


# --- SemDeDup ----------------------------------------------------------------


def _semdedup_brute(m, ids, centroids, threshold):
    """Reference SemDeDup: same clustering, per-cluster τ-components,
    keep the member least similar to the centroid (tie: smallest id)."""
    mn = _normalize(m.astype(np.float64))
    assign = (mn @ centroids.T).argmax(axis=1)
    out = {}
    for cl in np.unique(assign):
        rows = np.flatnonzero(assign == cl)
        rows = rows[np.argsort(ids[rows])]
        sub = mn[rows]
        csim = sub @ centroids[cl]
        sims = sub @ sub.T
        n = len(rows)
        comp = list(range(n))

        def find(a):
            while comp[a] != a:
                comp[a] = comp[comp[a]]
                a = comp[a]
            return a

        for i in range(n):
            for j in range(i + 1, n):
                if sims[i, j] >= threshold:
                    ra, rb = find(i), find(j)
                    if ra != rb:
                        comp[max(ra, rb)] = min(ra, rb)
        roots = [find(i) for i in range(n)]
        for r in set(roots):
            members = [i for i in range(n) if roots[i] == r]
            keeper = min(members, key=lambda i: (round(csim[i], 12), ids[rows[i]]))
            for i in members:
                out[int(ids[rows[i]])] = (int(cl), i == keeper,
                                          int(ids[rows[keeper]]))
    return out


def test_semdedup_matches_brute(ray_session, vectors):
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.similarity import (
        _sample_bottomk_by_hash,
        semdedup,
    )

    # plant near-duplicate groups: rows 10/11/12 ≈ row 10, rows 40/41 ≈ row 40
    m = vectors.copy()
    rng = np.random.default_rng(8)
    for src, dst in [(10, 11), (10, 12), (40, 41)]:
        m[dst] = m[src] + 0.01 * rng.standard_normal(m.shape[1]).astype(np.float32)

    ds = rd.from_arrow(_emb_table(m))
    out = (
        semdedup(ds, threshold=0.9, n_clusters=8, sample_rows=128)
        .to_pandas()
        .sort_values("vec_id")
        .reset_index(drop=True)
    )
    assert len(out) == len(m)

    ivf = IVFIndex(n_clusters=8, n_iter=5, seed=11)
    ivf.fit(_sample_bottomk_by_hash(ds, 128))
    exp = _semdedup_brute(m, np.arange(len(m), dtype=np.int64), ivf.centroids, 0.9)
    for _, r in out.iterrows():
        cl, keep, rep = exp[int(r["vec_id"])]
        assert (int(r["cluster"]), bool(r["keep"]), int(r["rep_id"])) == (cl, keep, rep), r["vec_id"]
    # the planted duplicates actually deduplicate (when co-clustered)
    dup_rows = out[out["vec_id"].isin([10, 11, 12])]
    if dup_rows["cluster"].nunique() == 1:
        assert int(dup_rows["keep"].sum()) == 1
        assert dup_rows["rep_id"].nunique() == 1
    assert int(out["keep"].sum()) < len(m)  # something was removed


def test_semdedup_no_dups_is_identity(ray_session, vectors):
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.similarity import semdedup

    out = semdedup(rd.from_arrow(_emb_table(vectors)), threshold=0.999,
                   n_clusters=4, sample_rows=64).to_pandas()
    assert bool(out["keep"].all())
    assert (out["rep_id"] == out["vec_id"]).all()


def test_hard_negatives_masks_same_label(ray_session, vectors):
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.similarity import hard_negatives

    labels = (np.arange(len(vectors)) % 4).astype(np.int64)
    tbl = _emb_table(vectors).append_column("label", pa.array(labels))
    q_ids = np.array([0, 7, 21], dtype=np.int64)
    out = (
        hard_negatives(rd.from_arrow(tbl), q_ids, vectors[q_ids].astype(np.float64),
                       labels[q_ids], k=4)
        .to_pandas()
    )
    mn = _normalize(vectors.astype(np.float64))
    for qid in q_ids:
        sims = mn @ mn[qid]
        sims[labels == labels[qid]] = -np.inf  # mask the whole class (incl. self)
        order = np.lexsort((np.arange(len(sims)), -sims))[:4]
        got = out[out["query_vec_id"] == qid].sort_values("rank")
        assert list(got["vec_id"]) == list(order)
        assert (got["neg_label"].to_numpy() != labels[qid]).all()
        np.testing.assert_allclose(got["cos_sim"].to_numpy(), sims[order], rtol=1e-12)


def test_prototype_prune_matches_brute(ray_session, vectors):
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.stages.similarity import (
        _normalize,
        _sample_bottomk_by_hash,
        prototype_prune,
    )

    ds = rd.from_arrow(_emb_table(vectors))
    out = (
        prototype_prune(ds, keep_frac=0.75, n_clusters=8, sample_rows=128)
        .to_pandas()
        .sort_values("vec_id")
        .reset_index(drop=True)
    )
    assert len(out) == len(vectors)

    ivf = IVFIndex(n_clusters=8, n_iter=5, seed=11)
    ivf.fit(_sample_bottomk_by_hash(ds, 128))
    m = _normalize(vectors.astype(np.float64))
    cl = (m @ ivf.centroids.T).argmax(axis=1)
    sim = np.round(np.einsum("ij,ij->i", m, ivf.centroids[cl]), 6)
    # exact quantile_disc cutoff: 0-based index max(ceil(q*n)-1, 0)
    srt = np.sort(sim)
    cut = srt[max(-(-3 * len(sim) // 4) - 1, 0)]
    np.testing.assert_array_equal(out.cluster.to_numpy(), cl.astype(np.int32))
    np.testing.assert_allclose(out.centroid_sim_r6.to_numpy(), sim, atol=0)
    np.testing.assert_array_equal(out.keep.to_numpy(), sim <= cut)
    # keep-hard rule: everything pruned is MORE prototypical than
    # everything kept, and the kept fraction is >= keep_frac (ties keep)
    if (~out.keep).any():
        assert out[~out.keep].centroid_sim_r6.min() > cut
    assert out.keep.mean() >= 0.75


def test_lsh_probe_exact_bruteforce_parity(ray_session, tmp_path):
    """lsh_probe_exact must equal a local integer replay: Lehmer-ranked
    anchor planes, sign-bit buckets (dot 0 counts as 1), Hamming-radius
    candidate filter, (dot desc, vec_id) top-k, self excluded."""
    import pandas as pd
    import pyarrow.parquet as pq

    from hybrid_sanctions_search_engine_ray.stages.similarity import (
        _quantize_norm_int,
        lsh_probe_exact,
    )

    rng = np.random.RandomState(7)
    X = rng.randn(70, 16).astype(np.float32)
    src = str(tmp_path / "emb.parquet")
    pq.write_table(pa.table({
        "vec_id": pa.array(range(len(X)), pa.int64()),
        "embedding": pa.array([v.tolist() for v in X], pa.list_(pa.float32())),
    }), src)

    n_planes, radius, k = 6, 2, 4
    got = lsh_probe_exact(src, n_queries=2, n_planes=n_planes,
                          radius=radius, k=k)

    P = 2147483647
    ids = np.arange(len(X), dtype=np.int64)
    key = ((ids % P) * 48271) % P
    anchors = ids[np.lexsort((ids, key))[:n_planes]]
    nq = _quantize_norm_int(X.astype(np.float64))
    planes = nq[anchors]
    buckets = (((nq @ planes.T) >= 0).astype(np.int64)
               << np.arange(n_planes, dtype=np.int64)).sum(axis=1)
    for qid in (0, 1):
        x = np.bitwise_xor(buckets, buckets[qid])
        ham = sum(((x >> b) & 1) for b in range(n_planes))
        mask = (ham <= radius) & (ids != qid)
        dots = nq[mask] @ nq[qid]
        order = np.lexsort((ids[mask], -dots))[:k]
        g = got[got.query_vec_id == qid]
        assert list(g["vec_id"]) == ids[mask][order].tolist()
        assert list(g["dot_q"]) == dots[order].tolist()
        assert list(g["hamming"]) == ham[mask][order].tolist()
        assert list(g["rank"]) == list(range(1, len(g) + 1))


def test_proto_prune_exact_bruteforce_parity(ray_session, tmp_path):
    """proto_prune_exact must equal a local integer replay against the
    PERSISTED centroid table: assignment ties → lowest cluster, keep =
    the K hardest (smallest integer dot) with ties kept, K =
    max(1, floor(keep_frac·n))."""
    import os

    import pandas as pd
    import pyarrow.parquet as pq

    from hybrid_sanctions_search_engine_ray.stages.similarity import (
        _quantize_norm_int,
        proto_prune_exact,
    )

    rng = np.random.RandomState(19)
    X = rng.randn(90, 16).astype(np.float32)
    src = str(tmp_path / "emb.parquet")
    pq.write_table(pa.table({
        "vec_id": pa.array(range(len(X)), pa.int64()),
        "embedding": pa.array([v.tolist() for v in X], pa.list_(pa.float32())),
    }), src)
    odir = str(tmp_path / "proto_oracle")
    keep_frac, nc = 0.6, 4
    got = (proto_prune_exact(src, odir, keep_frac=keep_frac, n_clusters=nc,
                             sample_rows=32, n_iter=4)
           .to_pandas().sort_values("vec_id").reset_index(drop=True))

    cent = pq.read_table(os.path.join(odir, "centroids.parquet")).to_pandas()
    qc = (cent.sort_values(["cluster", "d"])["val_q"].to_numpy()
          .reshape(nc, 16).astype(np.int64))
    nq = _quantize_norm_int(X.astype(np.float64))
    ids = np.arange(len(X), dtype=np.int64)
    d2 = ((nq[:, None, :] - qc[None, :, :]) ** 2).sum(axis=2)
    cl = d2.argmin(axis=1)
    dot = np.take_along_axis(nq @ qc.T, cl[:, None], axis=1)[:, 0]
    k_rank = max(1, int(np.floor(keep_frac * len(X))))
    order = np.lexsort((ids, dot))
    cutoff = dot[order[k_rank - 1]]
    keep = dot <= cutoff
    assert list(got["cluster"]) == cl.tolist()
    assert list(got["dot_q"]) == dot.tolist()
    assert list(got["keep"]) == keep.tolist()
    assert keep.sum() >= k_rank  # ties kept, never fewer than K


def test_mmr_exact_bruteforce_parity(ray_session, tmp_path):
    """mmr_exact must equal a local greedy replay: top-window integer
    relevance candidates, marginal score w_rel·rel − w_div·max_picked
    (max may be NEGATIVE — no clamping), ties → lowest vec_id, and the
    reported mmr_q is the score AT selection time."""
    import pyarrow.parquet as pq

    from hybrid_sanctions_search_engine_ray.stages.similarity import (
        _quantize_norm_int,
        mmr_exact,
    )

    rng = np.random.RandomState(23)
    X = rng.randn(50, 16).astype(np.float32)
    src = str(tmp_path / "emb.parquet")
    pq.write_table(pa.table({
        "vec_id": pa.array(range(len(X)), pa.int64()),
        "embedding": pa.array([v.tolist() for v in X], pa.list_(pa.float32())),
    }), src)
    W, K, WREL, WDIV = 8, 4, 7, 3
    got = mmr_exact(src, n_queries=2, window=W, k=K, w_rel=WREL, w_div=WDIV)

    nq = _quantize_norm_int(X.astype(np.float64))
    ids = np.arange(len(X), dtype=np.int64)
    for qid in (0, 1):
        rel_all = nq @ nq[qid]
        m = ids != qid
        order = np.lexsort((ids[m], -rel_all[m]))[:W]
        c_ids, c_rel = ids[m][order], rel_all[m][order]
        c_vec = nq[c_ids]
        avail = np.ones(W, dtype=bool)
        maxdiv = None
        g = got[got.query_vec_id == qid].reset_index(drop=True)
        for step in range(K):
            score = WREL * c_rel - WDIV * (maxdiv if maxdiv is not None
                                           else np.zeros(W, dtype=np.int64))
            av = np.flatnonzero(avail)
            i = int(av[np.lexsort((c_ids[av], -score[av]))[0]])
            assert g.loc[step, "vec_id"] == c_ids[i]
            assert g.loc[step, "mmr_q"] == score[i]
            assert g.loc[step, "rank"] == step + 1
            avail[i] = False
            d_new = c_vec @ c_vec[i]
            maxdiv = d_new if maxdiv is None else np.maximum(maxdiv, d_new)


def test_exact_companions_tiny_corpus_edges(ray_session, tmp_path):
    """Degenerate-size behavior of the round-5 exact companions: a
    corpus smaller than n_clusters/window/k must produce consistent,
    loud-or-correct results — never a ragged centroid table or a
    crash."""
    import pyarrow.parquet as pq

    from hybrid_sanctions_search_engine_ray.stages.similarity import (
        ivf_probe_exact,
        lsh_probe_exact,
        mmr_exact,
        proto_prune_exact,
    )

    rng = np.random.RandomState(31)
    X = rng.randn(5, 8).astype(np.float32)
    src = str(tmp_path / "tiny.parquet")
    pq.write_table(pa.table({
        "vec_id": pa.array(range(len(X)), pa.int64()),
        "embedding": pa.array([v.tolist() for v in X], pa.list_(pa.float32())),
    }), src)

    # n_clusters > corpus → clamped to corpus size, still exact
    got = ivf_probe_exact(src, str(tmp_path / "o_ivf"), n_queries=1,
                          n_clusters=16, nprobe=16, k=10, sample_rows=16)
    assert set(got["query_vec_id"]) == {0}
    assert len(got) <= 4  # self excluded
    assert list(got["rank"]) == list(range(1, len(got) + 1))

    # window/k larger than corpus → every non-self vector ranked once
    got = mmr_exact(src, n_queries=1, window=50, k=50)
    assert list(got["rank"]) == list(range(1, 5))
    assert len(set(got["vec_id"])) == 4

    # prune with keep_frac on a tiny corpus → K = max(1, floor(...))
    got = (proto_prune_exact(src, str(tmp_path / "o_proto"), keep_frac=0.01,
                             n_clusters=16, sample_rows=16)
           .to_pandas())
    assert got["keep"].sum() >= 1

    # LSH with more planes than vectors → planes = all vectors, radius 0
    got = lsh_probe_exact(src, n_queries=1, n_planes=5, radius=5, k=10)
    assert len(got) <= 4


@pytest.mark.parametrize("builder,marker,kw", [
    ("ivf_build", "_IVF_META.json", {"n_clusters": 4, "sample_rows": 300}),
    ("lsh_build", "_LSH_META.json", {"n_planes": 8, "n_parts": 4}),
    ("nsw_build", "_NSW_META.json", {"n_parts": 2, "m": 6, "ef_construction": 24}),
    ("pq_build", "_PQ_META.json", {"m": 4, "n_codes": 8}),
])
def test_marker_write_crash_leaves_no_marker(ray_session, vectors, tmp_path, monkeypatch,
                                             builder, marker, kw):
    """A build whose "presence means built" marker write fails partway
    leaves no truncated marker: the re-run rebuilds and writes it whole."""
    import json
    import os

    import pyarrow.parquet as pq

    from hybrid_sanctions_search_engine_ray.stages import similarity

    src = str(tmp_path / "emb.parquet")
    pq.write_table(_emb_table(vectors), src)
    out = str(tmp_path / "built")
    real_dump = json.dump

    def failing_dump(obj, f, *a, **k):
        if isinstance(obj, dict) and obj.get("source") == src:  # the marker
            f.write(json.dumps(obj)[:5])
            raise OSError("disk full while writing the marker")
        return real_dump(obj, f, *a, **k)

    monkeypatch.setattr(json, "dump", failing_dump)
    with pytest.raises(OSError, match="disk full"):
        getattr(similarity, builder)(src, out, **kw)
    monkeypatch.undo()
    assert not os.path.exists(os.path.join(out, marker))
    getattr(similarity, builder)(src, out, **kw)
    with open(os.path.join(out, marker)) as f:
        assert json.load(f)["source"] == src
