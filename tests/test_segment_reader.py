"""The segment reader (stages/postings.py): read_partition,
decode_segment, lift_doc_ids and read_segments against the one-row codec
reference, plus the guard that keeps every segment read in that module."""

import os
import re
import shutil
import sys

import numpy as np
import pyarrow as pa
import pytest

from hybrid_sanctions_search_engine_ray.functions.codec import decode_posting, decode_positions
from hybrid_sanctions_search_engine_ray.stages.postings import (
    decode_segment,
    lift_doc_ids,
    read_partition,
    read_segments,
)
from hybrid_sanctions_search_engine_ray.state.manifest import completed_parts, segment_dir

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# the TESTDATA.md tables, which sit beside the checkout
SF_DIR = os.path.join(os.path.dirname(REPO), "testdata", "sf0.001")


@pytest.fixture(scope="module")
def positional_index(tmp_path_factory, corpus_dir):
    """The session index's layout (salted hot terms, sub-segments of at
    most 64 postings) with positions stored."""
    from hybrid_sanctions_search_engine_ray.config import AnalyzerConfig, EngineConfig
    from hybrid_sanctions_search_engine_ray.pipelines.index_build import build_index

    cfg = EngineConfig(num_partitions=8, block_size=16, max_postings_per_segment=64,
                       hot_term_df_ratio=0.2, hot_term_salt_buckets=3, hot_term_salt_shift=6,
                       analyzer=AnalyzerConfig(mode="simple"))
    index_dir = str(tmp_path_factory.mktemp("reader") / "idx")
    m = build_index(corpus_dir, index_dir, cfg, store_positions=True)
    assert m.hot_terms, "the fixture must salt some terms"
    return index_dir


def test_decode_segment_matches_per_row_reference(positional_index):
    sub_segmented = 0
    for part in sorted(completed_parts(positional_index)):
        tbl = read_partition(positional_index, part)
        d, t, l, n = decode_segment(tbl)  # noqa: E741
        np.testing.assert_array_equal(n, tbl["n_docs"].to_numpy())
        flat_pos, pos_offs = decode_positions(b"".join(tbl["poss"].to_pylist()), t)
        ends = np.cumsum(n)
        for r, row in enumerate(tbl.to_pylist()):
            s, e = ends[r] - n[r], ends[r]
            rd_, rt, rl = decode_posting(row["docs"], row["tfs"], row["dls"])
            np.testing.assert_array_equal(d[s:e], rd_)
            np.testing.assert_array_equal(t[s:e], rt)
            np.testing.assert_array_equal(l[s:e], rl)
            ref_pos, _ = decode_positions(row["poss"], rt)
            np.testing.assert_array_equal(flat_pos[pos_offs[s]:pos_offs[e]], ref_pos)
            sub_segmented += row["seg_idx"] > 0
    assert sub_segmented, "the fixture must split some term into sub-segments"


def test_read_partition_filters_terms_and_counts_rows(positional_index):
    part = max(completed_parts(positional_index),
               key=lambda p: read_partition(positional_index, p).num_rows)
    full = read_partition(positional_index, part)
    terms = sorted(set(full["term"].to_pylist()))[:3]
    tbl = read_partition(positional_index, part, terms, ["term", "seg_idx", "docs", "tfs"])
    assert tbl.column_names == ["term", "seg_idx", "docs", "tfs"]
    assert set(tbl["term"].to_pylist()) == set(terms)
    d, t, l, n = decode_segment(tbl)  # noqa: E741
    assert l is None
    want = full.filter(pa.array(np.isin(full["term"].to_numpy(zero_copy_only=False), terms)))
    np.testing.assert_array_equal(n, want["n_docs"].to_numpy())  # counted from the docs bytes
    np.testing.assert_array_equal(d, decode_segment(want)[0])
    assert read_partition(positional_index, 10_000) is None


def test_lift_doc_ids_moves_every_doc(positional_index):
    tbl = read_partition(positional_index, 0)
    d, t, l, n = decode_segment(tbl)  # noqa: E741
    lifted = lift_doc_ids(tbl, 1_000_003)
    d2, t2, l2, n2 = decode_segment(lifted)
    np.testing.assert_array_equal(d2, d + np.uint64(1_000_003))
    np.testing.assert_array_equal(t2, t)
    np.testing.assert_array_equal(n2, n)
    for c in ("term", "seg_idx", "tfs", "dls", "poss"):
        assert lifted[c].equals(tbl[c])
    assert lift_doc_ids(tbl, 0) is tbl


def test_read_segments_yields_completed_partitions_with_part(positional_index, tmp_path):
    idx = str(tmp_path / "idx")
    shutil.copytree(positional_index, idx)
    # partition 3 loses its meta (an unfinished write): not completed
    os.remove(os.path.join(segment_dir(idx, 3), "meta.json"))
    done = sorted(completed_parts(idx))
    assert 3 not in done and len(done) == 7
    cols = ["term", "seg_idx", "n_docs", "docs"]
    got = read_segments(idx, cols).to_pandas()
    assert sorted(got.columns) == sorted([*cols, "part"])
    want = sorted((p, *row.values()) for p in done
                  for row in read_partition(idx, p, columns=cols).to_pylist())
    rows = sorted(zip(got["part"].tolist(), *(got[c].tolist() for c in cols)))
    assert rows == want


def _postings_by_term(index_dir):
    """term → its (doc id, tf) postings over every partition and row."""
    out = {}
    for p in completed_parts(index_dir):
        tbl = read_partition(index_dir, p, columns=["term", "n_docs", "docs", "tfs"])
        docs, tfs, _, n = decode_segment(tbl)
        for term, lo, hi in zip(tbl["term"].to_pylist(), np.cumsum(n) - n, np.cumsum(n)):
            out.setdefault(term, []).extend(zip(docs[lo:hi].tolist(), tfs[lo:hi].tolist()))
    return {t: sorted(v) for t, v in out.items()}


def test_read_segments_skips_empty_partitions(positional_index, tmp_path, caplog):
    """Empty partitions (0-row segments, as compaction or repartition
    publish them) hold no rows: read_segments leaves them out, so Ray Data
    logs no "different schema" warning over them, and the dictionary and
    a repartition still see every posting."""
    import logging

    import pyarrow.parquet as pq

    from hybrid_sanctions_search_engine_ray.pipelines.index_build import write_dictionary
    from hybrid_sanctions_search_engine_ray.pipelines.maintenance import repartition_index
    from hybrid_sanctions_search_engine_ray.stages.postings import publish_partition, segment_schema

    idx = str(tmp_path / "idx")
    shutil.copytree(positional_index, idx)
    for p in (3, 6):
        publish_partition(idx, p, segment_schema(True).empty_table(), elapsed_s=0.0)

    ray_data = logging.getLogger("ray.data")  # does not propagate to the root logger
    ray_data.addHandler(caplog.handler)
    try:
        read_segments(idx).map_batches(lambda b: b, batch_format="pyarrow").materialize()
        got = pq.read_table(write_dictionary(idx)).sort_by("term")
    finally:
        ray_data.removeHandler(caplog.handler)
    assert not [m for m in caplog.messages if "different schema" in m]

    rows = pa.concat_tables(read_partition(idx, p, columns=["term", "n_docs", "cf"])
                            for p in range(8))
    want = rows.group_by("term").aggregate([("n_docs", "sum"), ("cf", "sum")]).sort_by("term")
    assert got["term"].equals(want["term"])
    assert got["df"].to_pylist() == want["n_docs_sum"].to_pylist()
    assert got["cf"].to_pylist() == want["cf_sum"].to_pylist()

    out = str(tmp_path / "repart")
    repartition_index(idx, out, 5)
    assert _postings_by_term(out) == _postings_by_term(idx)


# a module outside the segment format that names one of these reads or
# decodes segments on its own
_SEGMENT_NAMES = re.compile(r"\bSEGMENT_FILE\b|[\"']postings\.parquet[\"']|\bdecode_rows\b|\bvarint_counts\b")
_FORMAT_MODULES = {os.path.join("hybrid_sanctions_search_engine_ray", "stages", "postings.py"),
                   os.path.join("hybrid_sanctions_search_engine_ray", "functions", "codec.py")}


def test_only_the_segment_module_names_the_segment_file_and_decoder():
    """The engine, its entry module and its tools reach segments only
    through stages/postings.py (the benchmark under perfbench/ hashes the
    files itself and is not engine code)."""
    paths = [os.path.join(dp, f) for top in ("hybrid_sanctions_search_engine_ray", "tools")
             for dp, _, fs in os.walk(os.path.join(REPO, top)) for f in fs if f.endswith(".py")]
    paths += [os.path.join(REPO, "__ray_entry__.py"), os.path.join(REPO, "bench.py")]
    offenders = []
    for p in paths:
        rel = os.path.relpath(p, REPO)
        if rel in _FORMAT_MODULES:
            continue
        with open(p) as f:
            offenders += [f"{rel}:{i}" for i, line in enumerate(f, 1) if _SEGMENT_NAMES.search(line)]
    assert not offenders, offenders


@pytest.mark.skipif(not os.path.isdir(SF_DIR), reason="sf0.001 test tables not present")
@pytest.mark.parametrize("name", ["postings_bytes", "posting_gaps", "ef_bytes"])
def test_segment_audit_queries_match_sql_twin(ray_session, name):
    duckdb = pytest.importorskip("duckdb")
    sys.path.insert(0, REPO)
    import __ray_entry__ as entry
    from tools.check_oracle import compare, to_pandas

    got = to_pandas(entry.queries()[name](SF_DIR))
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM read_parquet('{SF_DIR}/documents.parquet')")
    want = con.execute(entry.oracle_sql()[name]).df()
    assert len(got) > 0
    assert compare(name, got, want) == []
