"""Harness tests: the oracle's ranking check, span self times, the
host-speed scale, and every workload end to end in ``--smoke`` mode.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import hostspeed, trace
from perfbench.oracle import Oracle, ranking_mismatch, tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _declared(kind: str) -> list[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [m["name"] for m in json.load(f)[kind]]


def test_tokenize_matches_simple_analyzer_rule():
    assert tokenize("Jean-Pierre's  CAFÉ_bar 1980-01-01") == [
        "jean", "pierre", "s", "café", "bar", "1980", "01", "01"]


def test_oracle_ranking_and_tombstones():
    o = Oracle(["a b", "a a c", "c d", "a"])
    scores = o.scores("a")
    got = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    assert ranking_mismatch(got, scores, 10) is None
    assert ranking_mismatch(got[::-1], scores, 10) is not None       # order matters
    assert ranking_mismatch(got[:2], scores, 10) is not None         # missing rows
    # pending delete: doc 1 leaves the results but still counts in N
    pending = o.scores("a", deleted=frozenset({1}))
    assert 1 not in pending and pending[0] == scores[0]
    purged = o.scores("a", deleted=frozenset({1}), purged=True)
    assert purged[0] != scores[0]


def test_oracle_ties_may_come_in_either_order():
    o = Oracle(["x y", "x z", "q"])
    scores = o.scores("x")
    assert scores[0] == scores[1]
    assert ranking_mismatch([(1, scores[1]), (0, scores[0])], scores, 2) is None


def test_self_time_and_coverage():
    parent = trace.Span("p", "query.load_postings", 0.0, None, "q")
    parent.end = 10.0
    kids = []
    for i, (s, e) in enumerate([(1.0, 3.0), (4.0, 5.0)]):
        k = trace.Span(f"k{i}", "query.read", s, "p", "q")
        k.end = e
        kids.append(k)
    assert trace.self_times([parent] + kids)["p"] == pytest.approx(7.0)
    assert trace.union_length([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4.0)


@pytest.mark.parametrize("kind", ["sort", "read"])
def test_hostspeed_scales_to_the_reference_probe_time(tmp_path, kind):
    hostspeed.prepare(str(tmp_path))
    assert hostspeed.probe(kind) > 0
    ref = hostspeed.REF_S[kind]
    assert hostspeed.scale([ref], kind) == pytest.approx(1.0)
    # twice as slow a host (median probe) halves the factor
    assert hostspeed.scale([1.0, 2 * ref, 0.0], kind) == pytest.approx(0.5)


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace_on", [0, 1])
@pytest.mark.parametrize("workload", ["lifecycle", "query_cold", "query_warm"])
def test_smoke_run_prints_every_declared_metric(workload, trace_on):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace_on), "--smoke")
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    info = json.loads(lines[-2])["perfbench_info"]
    res = json.loads(lines[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] > 0, info["errors"]
    names = _declared("per_layer" if trace_on else "end_to_end")
    assert list(res["metrics"]) == names
    if not trace_on:
        assert all(m["value"] > 0 for m in res["metrics"].values())
    elif workload == "query_cold":
        m = {k: v["value"] for k, v in res["metrics"].items()}
        assert m["query.cache_hit_share"] == 0.0 and m["query.read_files.total"] > 0
    elif workload == "query_warm":
        m = {k: v["value"] for k, v in res["metrics"].items()}
        assert m["query.cache_hit_share"] == 1.0 and m["query.read_files.total"] == 0
    for key in ("nproc", "affinity_cpus", "ray_num_cpus", "scorer_concurrency",
                "corpus_turns", "corpus_text_bytes", "queries", "seed", "ray", "pyarrow"):
        assert key in info


def test_without_the_engine_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "lifecycle", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
