"""Host-speed probe: scales measured times to a host of fixed speed.

Other tenants of a shared host slow every CPU of this one by up to ~30%
for stretches of seconds to minutes, and the slowdown is invisible from
inside (no steal time; CPU time grows with wall time). A fixed piece of
work of the same kind slows by nearly the same factor, so the benchmark
times a probe next to the work it measures and reports each time
multiplied by ``REF_S[kind] / probe time``: the time the work would take
on a host where the probe takes ``REF_S[kind]``. The probes are the
benchmark's own code and do not change with the engine.

There are two probes, one per kind of work:

* ``"read"`` reads eight small Parquet files with pyarrow (whose scans
  run on its thread pools) and walks their rows in Python, as a cold
  query does with partition files. It scales the ``query_cold`` loop.
  Over 30 ten-second windows of one 4-vCPU host, raw cold queries with
  two or more hot terms and light cold queries spread (IQR over median)
  by 10% and 9%; their ratio to this probe by 2% and 4%, and to the
  sort probe by 9% and 10%. In two more such series the read probe
  also tracked cold queries better (9% and 6% against 14% and 16%; 4%
  against 5%).
* ``"sort"`` sorts 200,000 floats with NumPy, on one thread and in
  memory. It scales everything else: warm queries, set-ups and
  ``search()`` batches. Warm queries do no I/O, and under heavy load the
  read probe slows far more than they do: over five runs, the warm p50
  scaled by the read probe spread by 21%, more than the raw p50 (17%).
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

REF_S = {"sort": 0.006, "read": 0.012}   # about each probe's time on a quiet 4-CPU host
# Sampling interval per probe kind inside a timed loop. Host speed changes
# within a fraction of a second: a cold call's time correlated 0.82 with
# read probes of four files right around it, and 0.53 with probes 0.2 s
# away. So the cold loop, which scales each call by the probes around it,
# probes densely. Sorting that often slowed warm queries (the sort evicts
# their data from the CPU caches) and made their p50 no steadier.
PROBE_EVERY_S = {"sort": 0.5, "read": 0.1}
N_FILES, ROWS, ROW_BYTES = 8, 500, 200   # the read probe's files
_files: list[str] = []
_DATA = np.random.default_rng(0).random(200_000)


def prepare(work_dir: str) -> None:
    """Write the read probe's Parquet files under ``work_dir``; the same
    contents on every run."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    rng = np.random.default_rng(0)
    os.makedirs(work_dir, exist_ok=True)
    _files.clear()
    for k in range(N_FILES):
        table = pa.table({
            "term": [f"t{i}" for i in range(ROWS)],
            "blob": [rng.integers(0, 256, ROW_BYTES, dtype=np.uint8).tobytes() for _ in range(ROWS)],
        })
        path = os.path.join(work_dir, f"probe-{k}.parquet")
        pq.write_table(table, path)
        _files.append(path)


def probe(kind: str = "sort") -> float:
    """Seconds one run of the ``kind`` probe takes now."""
    t0 = time.perf_counter()
    if kind == "sort":
        for _ in range(3):
            np.sort(_DATA)
        return time.perf_counter() - t0
    import pyarrow.parquet as pq

    if not _files:
        raise RuntimeError("hostspeed.prepare() has not been called")
    for path in _files:
        seen = {}
        for i, blob in enumerate(pq.read_table(path).column("blob").to_pylist()):
            seen[blob[:3]] = i + blob[0]
    return time.perf_counter() - t0


def scale(samples: list[float], kind: str = "sort") -> float:
    """Factor turning a time measured while ``kind`` probes took
    ``samples`` into the reference host's time."""
    return REF_S[kind] / statistics.median(samples)
