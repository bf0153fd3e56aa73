"""Benchmark entry point.

    python3 perfbench/run.py --workload lifecycle|query_cold|query_warm \\
        --seed N --seconds S --trace 0|1 [--smoke]

Run from the repository root. The second-to-last stdout line is a JSON
record of the environment and the inputs; the last line is the result:
``{"correct", "attempted", "failed", "metrics"}`` with every end-to-end
metric of ``BENCHMARK.json`` (``--trace 0``) or every per-layer metric
(``--trace 1``). ``--smoke`` shrinks the corpus and query counts so the
whole harness runs in seconds (see ``perfbench/test_smoke.py``).

All files go under ``.pbwork/`` in the repository root and are removed at
exit, except the generated corpora, which are kept per seed and reused.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from contextlib import contextmanager

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import hostspeed, workloads as w  # noqa: E402

WORK = os.path.join(ROOT, ".pbwork")
# AF_UNIX socket paths are capped at 107 bytes; Ray puts its sockets at
# <temp_dir>/session_<date>_<time>_<usec>_<pid>/sockets/plasma_store
_RAY_SOCKET_SUFFIX = 64


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for the harness tests")
    return p.parse_args(argv)


def _ray_temp_dir() -> str:
    inside = os.path.join(WORK, "ray")
    if len(inside) + _RAY_SOCKET_SUFFIX <= 107:
        return inside
    # the checkout path is too long for Ray's sockets
    return os.path.join(tempfile.gettempdir(), f"perfbench-ray-{os.getuid()}")


def _ray_session_factory(trace_dir: str | None):
    @contextmanager
    def session(traced: bool = False):
        import ray
        from ray.data import DataContext

        env = {"env_vars": {"PYTHONPATH": ROOT}}
        if traced:
            from perfbench.trace import TRACE_DIR_ENV

            env["env_vars"][TRACE_DIR_ENV] = trace_dir
            env["worker_process_setup_hook"] = "perfbench.trace.worker_setup"
        ray.init(num_cpus=w.NUM_CPUS, include_dashboard=False, logging_level="ERROR",
                 object_store_memory=512 << 20, _temp_dir=_ray_temp_dir(), runtime_env=env)
        try:
            DataContext.get_current().enable_progress_bars = False
            yield
        finally:
            ray.shutdown()
    return session


def _environment(run) -> dict:
    import pyarrow
    import ray

    try:
        nproc = int(subprocess.run(["nproc"], capture_output=True, text=True, timeout=10).stdout)
    except (OSError, ValueError, subprocess.SubprocessError):
        nproc = None
    return {"nproc": nproc, "affinity_cpus": len(os.sched_getaffinity(0)),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
            "ray_num_cpus": w.NUM_CPUS, "scorer_concurrency": w.SCORER_CONCURRENCY,
            "num_partitions": w.NUM_PARTITIONS, "seed": run.seed,
            "ray": ray.__version__, "pyarrow": pyarrow.__version__}


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        import hybrid_sanctions_search_engine_ray  # noqa: F401
    except ImportError as e:
        print(f"perfbench: the engine package is not importable from {ROOT}: {e}", file=sys.stderr)
        return 2
    if args.workload not in w.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    scale = w.SMOKE if args.smoke else w.FULL
    run_dir = os.path.join(WORK, f"run-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    corpus_dir = os.path.join(WORK, "corpora")
    os.makedirs(corpus_dir, exist_ok=True)
    hostspeed.prepare(os.path.join(run_dir, "probe"))
    tracer = None
    trace_dir = None
    if args.trace:
        from perfbench.trace import Tracer

        trace_dir = os.path.join(run_dir, "trace")
        os.makedirs(trace_dir)
        tracer = Tracer(trace_dir)
    run = w.Run(seed=args.seed, seconds=args.seconds, scale=scale, work=run_dir,
                corpus_dir=corpus_dir, tracer=tracer)
    try:
        w.WORKLOADS[args.workload](run, _ray_session_factory(trace_dir))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        shutil.rmtree(os.path.join(WORK, "ray"), ignore_errors=True)
    run.info.update(_environment(run))
    run.info["workload"] = args.workload
    run.info["errors"] = run.errors[:20]
    print(json.dumps({"perfbench_info": run.info}, default=float))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if args.trace else "end_to_end"]
    values = run.layers if args.trace else run.metrics
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
