"""Run-to-run spread and round-to-round drift of the end-to-end metrics.

    python3 perfbench/spread.py --seeds 1-10 --rounds 2 [--workloads lifecycle,query_cold]

Runs ``perfbench/run.py`` once per seed, workload and round, one after
another, round by round. For each workload and metric it prints:

* per round, the median and the spread: the distance between the first
  and third quartiles (``statistics.quantiles(values, n=4)``) as a share
  of the median;
* the drift: how much worse the last round's median is than the first's,
  as a share of the first (negative when it is better).

A metric is flagged when a spread or the drift reaches a third of its
bound in ``BENCHMARK.json``, and the script then exits with 1. The
spread of ``setup_s`` is printed but not flagged: set-up starts Ray and
its workers, whose start-up the host's load moves from run to run, so
``setup_s`` is held to its bound through the drift of its median alone.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _spread(vals: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return (q3 - q1) / statistics.median(vals)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    p = argparse.ArgumentParser()
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--rounds", type=int, default=2)
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = p.parse_args()
    declared = {m["name"]: m for m in bench["end_to_end"]}
    workloads = args.workloads.split(",")
    # values[workload][metric] -> one list of values per round
    values = {wl: {k: [[] for _ in range(args.rounds)] for k in declared} for wl in workloads}
    correct = True
    for rnd in range(args.rounds):
        for wl in workloads:
            for seed in _seeds(args.seeds):
                cmd = bench["command"] + ["--workload", wl, "--seed", str(seed),
                                          "--seconds", str(bench["run_seconds"]), "--trace", "0"]
                t0 = time.monotonic()
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
                wall = time.monotonic() - t0
                if proc.returncode != 0:
                    print(f"{wl} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                    return 1
                res = json.loads(proc.stdout.strip().splitlines()[-1])
                correct &= res["correct"]
                print(f"round {rnd + 1} {wl} seed {seed}: {wall:.1f}s correct={res['correct']} "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()), flush=True)
                for k, v in res["metrics"].items():
                    values[wl][k][rnd].append(v["value"])
    flagged = []
    for wl in workloads:
        for k, rounds in values[wl].items():
            bound = declared[k]["bound"]
            meds = [statistics.median(r) for r in rounds]
            spreads = [_spread(r) for r in rounds]
            sign = 1.0 if declared[k]["better"] == "lower" else -1.0
            drift = sign * (meds[-1] - meds[0]) / meds[0]
            bad = drift >= bound / 3 or (k != "setup_s" and max(spreads) >= bound / 3)
            if bad:
                flagged.append(f"{wl}/{k}")
            print(f"  {wl:<11} {k:<26} median " + " / ".join(f"{m:.5g}" for m in meds)
                  + "  spread " + " / ".join(f"{s:.4f}" for s in spreads)
                  + f"  drift {drift:+.4f}  bound {bound}" + ("  <-- flagged" if bad else ""))
    if flagged:
        print(f"flagged (spread or drift at or above a third of the bound): {', '.join(flagged)}")
    if not correct:
        print("some runs reported correct=false")
    return 0 if correct and not flagged else 1


if __name__ == "__main__":
    sys.exit(main())
