"""Physical index merge (pipelines/maintenance.py::merge_indexes) must be
query-identical to the federated (query-time) merge of the same sources,
and must refuse unsafe inputs."""

import numpy as np
import pyarrow as pa
import pyarrow.dataset as pads
import pytest

from hybrid_sanctions_search_engine_ray.config import AnalyzerConfig, EngineConfig
from hybrid_sanctions_search_engine_ray.pipelines.federated import FederatedReader
from hybrid_sanctions_search_engine_ray.pipelines.index_build import build_index
from hybrid_sanctions_search_engine_ray.pipelines.maintenance import delete_docs, merge_indexes
from hybrid_sanctions_search_engine_ray.pipelines.query import IndexReader, attach_docmap

CFG = EngineConfig(num_partitions=4, block_size=16, hot_term_df_ratio=0.3,
                   hot_term_salt_shift=6, analyzer=AnalyzerConfig(mode="simple"))

QUERIES = ["payment transfer", "the", "tok00042 payment", "иванов иван",
           "zzznothing", "tok00001 tok00007"]


@pytest.fixture(scope="module")
def merged_setup(tmp_path_factory, corpus_dir, ray_session):
    import pandas as pd  # noqa: F401
    import ray.data as rd

    base = tmp_path_factory.mktemp("merge")
    src = pads.dataset(corpus_dir).to_table()
    df = src.to_pandas().sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    cut = len(df) // 2
    while cut < len(df) and df["conv_id"][cut] == df["conv_id"][cut - 1]:
        cut += 1
    halves = {"a": df.iloc[:cut], "b": df.iloc[cut:]}
    idx = {}
    for name, part_df in halves.items():
        ds = rd.from_arrow(pa.Table.from_pandas(part_df, preserve_index=False))
        idx[name] = str(base / f"idx_{name}")
        build_index(str(base / f"src_{name}"), idx[name], CFG, transcripts_ds=ds)
    out = str(base / "merged")
    manifest = merge_indexes([idx["a"], idx["b"]], out)
    return idx, out, manifest, halves, base


def test_merged_equals_federated(merged_setup):
    idx, out, manifest, halves, base = merged_setup
    fed = FederatedReader([idx["a"], idx["b"]])
    merged = IndexReader(out)
    assert manifest.status == "complete"
    assert merged.manifest.n_docs == fed.n_docs
    assert abs(merged.manifest.avgdl - fed.avgdl) < 1e-12
    for q in QUERIES:
        for k in (1, 10, 50):
            d1, s1 = fed.search_one(q, k)
            d2, s2 = merged.search_one(q, k)
            assert d1.astype(np.int64).tolist() == d2.astype(np.int64).tolist(), (q, k)
            np.testing.assert_allclose(s1, s2, rtol=0, atol=0)


def test_merged_docmap_lifted(merged_setup):
    import pandas as pd

    idx, out, _, halves, base = merged_setup
    merged = IndexReader(out)
    d, s = merged.search_one("payment", 10)
    res = pd.DataFrame({"doc_id": d.astype(np.int64)})
    dm = attach_docmap(res, out)
    assert dm["conv_id"].notna().all() and dm["turn_idx"].notna().all()
    # total docmap rows = sum of sources
    n = pads.dataset(f"{out}/docmap.parquet").count_rows()
    na = pads.dataset(f"{idx['a']}/docmap.parquet").count_rows()
    nb = pads.dataset(f"{idx['b']}/docmap.parquet").count_rows()
    assert n == na + nb
    # id ranges disjoint and lifted
    ids = pads.dataset(f"{out}/docmap.parquet").to_table(columns=["doc_id"])["doc_id"]
    assert ids.to_pandas().is_unique


def test_merge_refuses_tombstones_and_mismatch(merged_setup, tmp_path):
    idx, out, _, halves, base = merged_setup
    delete_docs(idx["a"], [0])
    with pytest.raises(ValueError, match="tombstones"):
        merge_indexes([idx["a"], idx["b"]], str(tmp_path / "m2"))
    # clean up the tombstone for other tests (module-scoped fixture)
    import os
    os.remove(os.path.join(idx["a"], "tombstones.json"))
    with pytest.raises(ValueError, match="at least two"):
        merge_indexes([idx["a"]], str(tmp_path / "m3"))


def test_merge_resume_skips_done_parts(merged_setup, tmp_path):
    idx, out, _, halves, base = merged_setup
    out2 = str(tmp_path / "m4")
    m1 = merge_indexes([idx["a"], idx["b"]], out2)
    # re-run with resume: must succeed and give identical stats
    m2 = merge_indexes([idx["a"], idx["b"]], out2, resume=True)
    assert (m1.n_docs, m1.total_tokens, m1.n_terms) == (m2.n_docs, m2.total_tokens, m2.n_terms)
    r = IndexReader(out2)
    d, s = r.search_one("payment transfer", 10)
    assert d.size > 0


def test_append_documents_equals_merge(merged_setup, tmp_path):
    """append_documents(main, new_docs) must score identically to the
    explicit build+merge of the same halves (segment layouts may differ
    — hot-term sets are re-derived — but stats and scores are exact)."""
    import pandas as pd  # noqa: F401
    import pyarrow as pa
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.pipelines.maintenance import append_documents

    idx, out, _, halves, base = merged_setup
    ds_b = rd.from_arrow(pa.Table.from_pandas(halves["b"].reset_index(drop=True), preserve_index=False))
    out2 = str(tmp_path / "ingested")
    m2 = append_documents(idx["a"], ds_b, out2, delta_work_dir=str(tmp_path / "delta"))
    merged = IndexReader(out)
    ingested = IndexReader(out2)
    assert m2.n_docs == merged.manifest.n_docs
    assert abs(m2.avgdl - merged.manifest.avgdl) < 1e-12
    for q in QUERIES:
        d1, s1 = merged.search_one(q, 10)
        d2, s2 = ingested.search_one(q, 10)
        assert d1.astype(np.int64).tolist() == d2.astype(np.int64).tolist(), q
        np.testing.assert_allclose(s1, s2, rtol=0, atol=1e-12)
