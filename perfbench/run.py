"""Layered benchmark for liqscreen.

Run from the repository root:

    python3 perfbench/run.py --workload bilateral_sweep --seed 1 --seconds 20 --trace 0

Builds one seeded round of ops for the workload (see workloads.py), runs
one warm-up op (the round's first) outside the timed batch, then runs
whole rounds for up to --seconds (at least one round). Outputs are
checked after the timed region. The last line of stdout is one JSON
object: with --trace 0 it holds the end-to-end metrics, with --trace 1
it holds the per-layer metrics of one traced round (layertrace.py)
together with the tracing overhead.

Op times are reported at a reference machine speed. Between ops, at
most every REFERENCE_EVERY_S, the run times a fixed pure-Python loop;
each round's op times are scaled by REFERENCE_S over the trimmed mean
loop time of that round. On a shared host the CPU's speed changes
within seconds and, over minutes, by up to a factor of two; the loop's
speed changes with it, so the scaling removes most of that and leaves
the program's own speed. Each set-up sample is scaled by loops timed just before and
after it. The human-readable lines also print the unscaled figures.

The package is imported from ./src of the checkout the script sits in;
nothing is installed. BLAS threads are pinned to 1 before numpy loads.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

# before numpy loads (workloads imports it), and inherited by the setup probes
os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench_work")
SETUP_SAMPLES = 7  # this process plus six fresh interpreters
TAIL_BEYOND = 10
REFERENCE_ITERS = 100_000
REFERENCE_S = 0.012  # the loop's time at the reference speed (2 GHz Xeon vCPU)
REFERENCE_EVERY_S = 0.5
REFERENCE_REPEATS = 3  # loops at each point, since one loop is itself noisy
SETUP_REFERENCE_REPEATS = 5  # before and after each set-up sample

END_TO_END_UNITS = {"ops_per_s": "1/s", "op_p50_s": "s", "op_tail_s": "s",
                    "passed_share": "fraction", "peak_rss_mb": "MB", "setup_s": "s"}


def _import_and_build(workload, seed, workdir):
    """Import the package from ./src and build the inputs; returns (ops, seconds)."""
    t0 = time.perf_counter()
    if not os.path.isfile(os.path.join(SRC, "liqscreen", "__init__.py")):
        raise SystemExit(f"error: no liqscreen package under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import liqscreen
    if not os.path.abspath(liqscreen.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: liqscreen imported from {liqscreen.__file__}, not {SRC}")
    import workloads
    ops = workloads.build(workload, seed, workdir)
    return ops, time.perf_counter() - t0


def _setup_probe(workload, seed):
    """Time import, input generation and the warm-up op in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", workload,
         "--seed", str(seed)], capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.split()[-1])


def _run_op(op):
    t0 = time.perf_counter()
    try:
        out, err = op.run(), None
    except Exception as exc:  # an op that raises is a failed op, not a crash
        out, err = None, f"raised: {type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, out, err


def _check(op, out, err):
    """Failure reason of one op's result, or None when it passed."""
    if err is not None:
        return err
    try:
        return op.check(out)
    except Exception as exc:  # a check that cannot run counts as a miss
        return f"check-raised: {type(exc).__name__}: {exc}"


def _reference(repeats=REFERENCE_REPEATS):
    """Times of a fixed pure-Python loop: the machine's speed at this moment."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        acc = 0
        for i in range(REFERENCE_ITERS):
            acc += i * i % 7
        times.append(time.perf_counter() - t0)
    return times


def _scale(refs):
    """Factor that takes times measured alongside these loops to the reference speed.

    On a shared host the loop's time flips between two levels (about 9
    and 12.5 ms on a 2 GHz Xeon vCPU) from one second to the next, so the
    mean, not the median, tracks the speed an op sees; trimming drops
    loops cut short or stretched by preemption.
    """
    refs = sorted(refs)
    cut = len(refs) // 10
    return REFERENCE_S / statistics.fmean(refs[cut:len(refs) - cut])


def _timed_round(ops):
    """One round with reference loops between ops; returns the results and
    the factor that scales its times to the reference speed."""
    refs, results = _reference(), []
    last = time.perf_counter()
    for op in ops:
        if time.perf_counter() - last >= REFERENCE_EVERY_S:
            refs += _reference()
            last = time.perf_counter()
        results.append(_run_op(op))
    refs += _reference()
    return results, _scale(refs)


def run_rounds(ops, seconds):
    """Whole rounds while the next one, judged by the longest so far, ends
    within `seconds`; at least one. Returns per-round results, the wall
    time of each round's ops and each round's scale factor."""
    rounds, walls, scales = [], [], []
    while not rounds or sum(walls) + max(walls) <= seconds:
        results, scale = _timed_round(ops)
        rounds.append(results)
        walls.append(sum(dt for dt, _, _ in results))
        scales.append(scale)
    return rounds, walls, scales


def evaluate(ops, rounds, scales):
    """Checks for every op of every round.

    Returns the failures as (op, reason, expected), the number of ops
    that passed, and per op its median time over the rounds at the
    reference speed, once as measured and once with +inf for an op that
    failed in any round.
    """
    failures = []
    passed = 0
    per_op = [[] for _ in ops]
    failed_op = [False] * len(ops)
    for results, scale in zip(rounds, scales):
        for i, (op, (dt, out, err)) in enumerate(zip(ops, results)):
            reason = _check(op, out, err)
            if reason is None:
                passed += 1
            else:
                failed_op[i] = True
                failures.append((op, reason, reason.split(":", 1)[0] == op.known))
            per_op[i].append(dt * scale)
    spent = [statistics.median(t) for t in per_op]
    return failures, passed, spent, [math.inf if f else t for f, t in zip(failed_op, spent)]


def tail(times):
    """Value with TAIL_BEYOND ops beyond it (fewer for short rounds), its percentile."""
    n = len(times)
    beyond = min(TAIL_BEYOND, (n - 1) // 2)
    rank = n - beyond
    return sorted(times)[rank - 1], 100.0 * rank / n


def machine():
    import numpy
    import liqscreen.numerics
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "backend": liqscreen.numerics.BACKEND}


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    workdir = os.path.join(WORKDIR, f"{args.workload}-{os.getpid()}")
    try:
        refs = _reference(SETUP_REFERENCE_REPEATS)
        ops, build_s = _import_and_build(args.workload, args.seed, workdir)
        setup_s = build_s + _run_op(ops[0])[0]  # warm-up op
        setup_s *= _scale(refs + _reference(SETUP_REFERENCE_REPEATS))
        if args.setup_probe:
            print(setup_s)
            return 0
        if args.trace:
            result = traced(args, ops, workdir)
        else:
            samples = [setup_s] + [_setup_probe(args.workload, args.seed)
                                   for _ in range(SETUP_SAMPLES - 1)]
            result = untraced(args, ops, statistics.median(samples))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            os.rmdir(WORKDIR)
    print(json.dumps(result))
    return 0


def _header(args, ops):
    print(f"# {args.workload} seed={args.seed} ops/round={len(ops)} " +
          " ".join(f"{k}={v}" for k, v in machine().items()))


def _report_failures(failures):
    import workloads
    for op, reason, expected in failures:
        note = f"known defect: {workloads.KNOWN_DEFECTS[op.known]}" if expected else "UNEXPECTED"
        print(f"# failed {op.kind}: {reason} [{note}]")


def untraced(args, ops, setup_s):
    _header(args, ops)
    rounds, walls, scales = run_rounds(ops, args.seconds)
    # before the checks, whose second routes would count in it
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failures, passed, spent, times = evaluate(ops, rounds, scales)
    attempted = len(ops) * len(rounds)
    tail_s, tail_pct = tail(times)
    metrics = {
        # the round that takes every op's median time: medians per op damp
        # what the scaling leaves, down to spells shorter than a round
        "ops_per_s": passed / len(rounds) / sum(spent),
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail_s,
        "passed_share": passed / attempted,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup_s,
    }
    _report_failures(failures)
    print(f"# rounds={len(rounds)} wall_s={sum(walls):.3f} attempted={attempted} "
          f"failed={len(failures)} failed_share={len(failures) / attempted:.4f} "
          f"op_tail_s=p{tail_pct:.1f} of {len(times)} ops")
    print(f"# unscaled ops_per_s={passed / sum(walls):.6g} 1/s; scale factors (this "
          "round's loop time to the reference's): " + " ".join(f"{k:.4f}" for k in scales))
    for name, value in metrics.items():
        print(f"# {name} = {value:.6g} {END_TO_END_UNITS[name]}")
    return {"correct": all(expected for _, _, expected in failures),
            "attempted": attempted, "failed": len(failures),
            "metrics": {k: _metric(v, END_TO_END_UNITS[k]) for k, v in metrics.items()}}


def traced(args, ops, workdir):
    import layertrace
    import workloads
    _header(args, ops)
    _, (wall_plain,), (scale_plain,) = run_rounds(ops, 0.0)
    with layertrace.Tracer() as tracer:
        # rebuilt under the tracer so the economies carry counting wrappers
        traced_ops = workloads.build(args.workload, args.seed, os.path.join(workdir, "traced"))
        tracer.active = True
        rounds, (wall_traced,), scales = run_rounds(traced_ops, 0.0)
        tracer.active = False
        failures, _, _, _ = evaluate(traced_ops, rounds, scales)
    attempted = len(traced_ops)
    _report_failures(failures)
    metrics = {name: _metric(tracer.metric(name), unit)
               for name, unit in layertrace.PER_LAYER if name != "trace.overhead_ratio"}
    metrics["trace.overhead_ratio"] = _metric(wall_traced * scales[0] / (wall_plain * scale_plain),
                                              "ratio")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    return {"correct": all(expected for _, _, expected in failures),
            "attempted": attempted, "failed": len(failures), "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
