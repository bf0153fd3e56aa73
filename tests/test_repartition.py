"""repartition_index (ES shrink/split analog): query identity across
partition layouts, manifest stat preservation, resume idempotence."""

from __future__ import annotations

import numpy as np
import pytest

from hybrid_sanctions_search_engine_ray.pipelines.maintenance import (
    delete_docs,
    repartition_index,
)
from hybrid_sanctions_search_engine_ray.pipelines.query import IndexReader
from hybrid_sanctions_search_engine_ray.state.manifest import IndexManifest

GOLDEN = ["payment", "the payment transfer", "invoice customer", "zzznotaterm"]


@pytest.mark.parametrize("new_p", [3, 16])
def test_repartition_query_identity(built_index, tmp_path, new_p):
    index_dir, cfg, manifest = built_index
    out = str(tmp_path / f"repart{new_p}")
    m2 = repartition_index(index_dir, out, new_p)
    assert m2.status == "complete" and m2.num_partitions == new_p
    assert m2.n_docs == manifest.n_docs
    assert m2.total_tokens == manifest.total_tokens
    assert m2.n_terms == manifest.n_terms
    r1, r2 = IndexReader(index_dir), IndexReader(out)
    for q in GOLDEN:
        for k in (1, 10, 50):
            d1, s1 = r1.search_one(q, k)
            d2, s2 = r2.search_one(q, k)
            assert d1.tolist() == d2.tolist(), (q, k)
            assert np.allclose(s1, s2, atol=0), (q, k)


def test_repartition_hot_terms_probe(built_index, tmp_path):
    """Salted hot terms still resolve after colocation in the base
    partition (the reader probes base + salts; salts are just empty)."""
    index_dir, cfg, manifest = built_index
    if not manifest.hot_terms:
        pytest.skip("fixture produced no hot terms")
    out = str(tmp_path / "repart_hot")
    repartition_index(index_dir, out, 5)
    r1, r2 = IndexReader(index_dir), IndexReader(out)
    t = manifest.hot_terms[0]
    p1 = r1.load_postings([t])[t]
    p2 = r2.load_postings([t])[t]
    assert p1.doc_ids.tolist() == p2.doc_ids.tolist()
    assert np.allclose(p1.factors, p2.factors, atol=0)


def test_repartition_is_resumable_noop(built_index, tmp_path):
    index_dir, cfg, _ = built_index
    out = str(tmp_path / "repart_resume")
    m_a = repartition_index(index_dir, out, 4)
    m_b = repartition_index(index_dir, out, 4)  # all parts meta-complete → no rewrite
    assert m_a.n_terms == m_b.n_terms
    assert IndexManifest.load(out).status == "complete"


def test_repartition_refuses_tombstones(built_index, tmp_path):
    index_dir, cfg, _ = built_index
    import shutil

    work = str(tmp_path / "tomb_src")
    shutil.copytree(index_dir, work)
    delete_docs(work, [0])
    with pytest.raises(ValueError, match="tombstones"):
        repartition_index(work, str(tmp_path / "repart_t"), 4)


def test_snapshot_restore_roundtrip(built_index, tmp_path):
    import numpy as np

    from hybrid_sanctions_search_engine_ray.pipelines.maintenance import (
        restore_index,
        snapshot_index,
    )

    index_dir, cfg, manifest = built_index
    snap = str(tmp_path / "snap")
    rec = snapshot_index(index_dir, snap)
    assert rec["n_docs"] == manifest.n_docs and rec["parts_verified"]
    out = str(tmp_path / "restored")
    m2 = restore_index(snap, out)
    assert (m2.n_docs, m2.n_terms, m2.total_tokens) == (
        manifest.n_docs, manifest.n_terms, manifest.total_tokens)
    r1, r2 = IndexReader(index_dir), IndexReader(out)
    for q in GOLDEN:
        d1, s1 = r1.search_one(q, 10)
        d2, s2 = r2.search_one(q, 10)
        assert d1.tolist() == d2.tolist() and np.allclose(s1, s2, atol=0)


def test_restore_detects_corruption(built_index, tmp_path):
    import glob as _glob

    from hybrid_sanctions_search_engine_ray.pipelines.maintenance import (
        restore_index,
        snapshot_index,
    )

    index_dir, cfg, _ = built_index
    snap = str(tmp_path / "snap_bad")
    snapshot_index(index_dir, snap)
    victim = sorted(_glob.glob(snap + "/segments/part=*/postings.parquet"))[0]
    data = open(victim, "rb").read()
    open(victim, "wb").write(b"\x00" * 64 + data[64:])  # flip head bytes
    with pytest.raises(ValueError, match="corrupt"):
        restore_index(snap, str(tmp_path / "restored_bad"))


def test_snapshot_requires_complete(tmp_path):
    import json as _json
    import os as _os

    from hybrid_sanctions_search_engine_ray.pipelines.maintenance import snapshot_index

    d = str(tmp_path / "halfidx")
    _os.makedirs(d)
    _json.dump({"status": "building"}, open(_os.path.join(d, "manifest.json"), "w"))
    with pytest.raises(ValueError, match="complete"):
        snapshot_index(d, str(tmp_path / "s"))


def test_snapshot_with_empty_partitions(built_index, tmp_path):
    """Empty partitions (checksum 0 in meta) must not read as corruption
    (review fix)."""
    from hybrid_sanctions_search_engine_ray.pipelines.maintenance import (
        repartition_index,
        restore_index,
        snapshot_index,
    )

    index_dir, cfg, manifest = built_index
    wide = str(tmp_path / "wide")
    repartition_index(index_dir, wide, 64)  # >> vocab buckets → empty parts exist
    snap = str(tmp_path / "snapw")
    snapshot_index(wide, snap)
    m2 = restore_index(snap, str(tmp_path / "restw"))
    assert m2.n_docs == manifest.n_docs


def test_repartition_stale_meta_refused(built_index, tmp_path):
    from hybrid_sanctions_search_engine_ray.pipelines.maintenance import repartition_index

    index_dir, cfg, _ = built_index
    out = str(tmp_path / "stale")
    repartition_index(index_dir, out, 4)
    import os
    os.remove(os.path.join(out, "manifest.json"))  # simulate crashed later phase
    with pytest.raises(Exception, match="different repartition run"):
        repartition_index(index_dir, out, 8)  # different layout into same dir


def test_repartition_rerun_after_docmap_write_crash(built_index, tmp_path, monkeypatch):
    """A crash inside the docmap write leaves nothing a re-run trusts:
    the re-run's docmap holds every source row."""
    import os

    import pyarrow as pa
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq
    import ray.data as rd

    index_dir, cfg, manifest = built_index
    out = str(tmp_path / "repart_dm")

    def crashing_write(self, path, *a, **kw):
        os.makedirs(path, exist_ok=True)
        pq.write_table(pa.Table.from_pylist(self.take(10)), os.path.join(path, "part-0.parquet"))
        raise RuntimeError("crash inside write_parquet")

    monkeypatch.setattr(rd.Dataset, "write_parquet", crashing_write)
    with pytest.raises(RuntimeError, match="crash inside write_parquet"):
        repartition_index(index_dir, out, 4)
    monkeypatch.undo()
    repartition_index(index_dir, out, 4)
    n_src = pads.dataset(os.path.join(index_dir, "docmap.parquet")).count_rows()
    assert pads.dataset(os.path.join(out, "docmap.parquet")).count_rows() == n_src


def test_repartition_rerun_rewrites_truncated_empty_partition(ray_session, tmp_path):
    """An empty partition's segment cut short by a crash (its meta and
    the manifest never written) is rewritten by the re-run, so later
    maintenance can read it."""
    import json
    import os

    import pyarrow.parquet as pq
    import ray.data as rd

    from hybrid_sanctions_search_engine_ray.config import EngineConfig
    from hybrid_sanctions_search_engine_ray.pipelines.index_build import build_index
    from hybrid_sanctions_search_engine_ray.pipelines.maintenance import compact_index
    from hybrid_sanctions_search_engine_ray.state.manifest import segment_dir

    ds = rd.from_items([{"doc_id": i, "conv_id": f"c{i}", "turn_idx": 0, "text": t}
                        for i, t in enumerate(["wire transfer fee", "wire post", "fee schedule"])])
    src = str(tmp_path / "small")
    build_index("mem", src, EngineConfig(num_partitions=2), transcripts_ds=ds)
    out = str(tmp_path / "repart_trunc")
    m = repartition_index(src, out, 16)  # 5 terms: most partitions are empty
    empty = next(int(p) for p, s in m.parts.items() if s["n_rows"] == 0)
    seg = os.path.join(segment_dir(out, empty), "postings.parquet")
    with open(seg, "r+b") as f:
        f.truncate(9)
    os.remove(os.path.join(segment_dir(out, empty), "meta.json"))
    os.remove(os.path.join(out, "manifest.json"))
    repartition_index(src, out, 16)
    assert pq.read_table(seg).num_rows == 0
    meta = json.load(open(os.path.join(segment_dir(out, empty), "meta.json")))
    assert meta["bytes"] == os.path.getsize(seg)
    delete_docs(out, [0])
    assert compact_index(out).n_docs == 2
