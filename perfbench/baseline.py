"""Regenerate perfbench/BENCH_baseline.json: the benchmark's recorded baseline.

Run from the repository root (about 20 minutes on 2 cores):

    python3 perfbench/baseline.py

For every workload in BENCHMARK.json it makes one untraced run for each
of the seeds 1 to 10 and one traced run, one after another, and records
the median, quartiles and spread (interquartile range over median) of
each end-to-end metric, the per-layer metrics of the traced run, and
the machine.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)

NOTES = [
    "This file is the BENCH_*.json baseline that ROADMAP item 1 asks for; BENCHMARK.json "
    "at the repository root defines the workloads and metrics it records.",
    "benchmarks/bench_kernels.py is not part of this benchmark: it times the Cython kernel "
    "twins against the pure kernels only, and ROADMAP item 2 deletes it.",
    "A run repeats a workload's fixed round of ops for up to run_seconds. Every time is "
    "scaled to a reference machine speed: a fixed pure-Python loop is timed between ops, "
    "and each round's times are multiplied by 0.012 s over the round's trimmed mean loop "
    "time (run.py, REFERENCE_S). Each op's time is its median over rounds. ops_per_s is "
    "the ops that passed per round over the sum of those per-op times.",
    "failed_share is reported as passed_share = 1 - failed_share, so that no metric is 0.",
    "Known defects are kept in the workloads on purpose and count in failed_share; see "
    "known_defects. Those in cli_verify are tracked by ROADMAP item 4.",
    "op_tail_s is the per-op time with ten ops beyond it; a round of n <= 20 ops uses "
    "(n - 1) // 2 ops beyond it (bilateral_sweep: 10 ops, cli_verify: 6). Failed ops "
    "count as +inf in op_p50_s and op_tail_s.",
    "setup_s is the median of seven times of import, input generation and one warm-up op "
    "(this process and six fresh interpreters), each scaled by loops timed just before "
    "and after it.",
]


def _run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    lines = out.stdout.splitlines()
    return json.loads(lines[-1]), [line for line in lines if line.startswith("# ")]


def _summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values),
            "spread": (q3 - q1) / statistics.median(values) if statistics.median(values) else 0.0}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    sys.path.insert(0, HERE)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import run
    import workloads

    seeds = list(SEEDS)
    result = {"schema": 1, "machine": run.machine(), "run_seconds": spec["run_seconds"],
              "seeds": seeds, "notes": NOTES, "known_defects": workloads.KNOWN_DEFECTS,
              "workloads": {}}
    for w in spec["workloads"]:
        name = w["name"]
        runs = [_run(name, s, spec["run_seconds"], 0)[0] for s in seeds]
        traced, header = _run(name, seeds[0], spec["run_seconds"], 1)
        metrics = {m["name"]: _summary([r["metrics"][m["name"]]["value"] for r in runs])
                   for m in spec["end_to_end"]}
        result["workloads"][name] = {
            "why": w["why"],
            "correct": all(r["correct"] for r in runs),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "end_to_end": metrics,
            "per_layer_seed": seeds[0],
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
            "traced_failures": [line[2:] for line in header if line.startswith("# failed")],
        }
        print(name, {k: round(m["spread"], 4) for k, m in metrics.items()}, flush=True)
    with open(os.path.join(HERE, "BENCH_baseline.json"), "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
