"""Tests of the benchmark itself (slow: one traced round per workload).

Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layertrace  # noqa: E402

WORKLOADS = ("bilateral_sweep", "book_scaling", "cli_verify", "extensions_mix")

# The workload each per-layer metric is meant to move on, which must make it nonzero.
EXERCISED_BY = {
    "economy.": "bilateral_sweep",
    "numerics.find_root.": "bilateral_sweep",
    "numerics.maximize_scalar.": "bilateral_sweep",
    "numerics.fixed_point.": "book_scaling",
    "numerics.integrate.": "bilateral_sweep",
    "numerics.kernels.": "bilateral_sweep",
    "bilateral.": "bilateral_sweep",
    "bilateral.solve_optimal.calls.by_extensions": "extensions_mix",
    "bilateral.solve_optimal.calls.by_cli": "cli_verify",
    "portfolio.": "book_scaling",
    "portfolio.contagion_": "cli_verify",
    "extensions.": "extensions_mix",
    "oracle.": "cli_verify",
    "cli.": "cli_verify",
    "trace.": "bilateral_sweep",
}
# Zero while nothing is wrong: failures, and the pointwise-integrand fallback,
# which every integrand on these paths avoids by vectorizing.
EXPECTED_ZERO = {"numerics.failed", "numerics.integrate.pointwise_calls"}


def _run(workload, trace, seed=5):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def _exercised_by(name):
    return EXERCISED_BY[max((p for p in EXERCISED_BY if name.startswith(p)), key=len)]


@pytest.fixture(scope="module")
def traced():
    return {w: _run(w, 1) for w in WORKLOADS}


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    import run
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _ in layertrace.PER_LAYER]
    assert [m["unit"] for m in spec["per_layer"]] == [u for _, u in layertrace.PER_LAYER]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)


def test_untraced_run_reports_every_end_to_end_metric():
    import run
    result = _run("book_scaling", 0)
    assert result["correct"] and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_each_per_layer_metric_is_nonzero_where_it_is_exercised(traced):
    for name, _ in layertrace.PER_LAYER:
        values = {w: traced[w]["metrics"][name]["value"] for w in WORKLOADS}
        if name in EXPECTED_ZERO:
            assert not any(values.values()), name
        else:
            assert values[_exercised_by(name)] > 0, (name, values)


def test_traced_runs_are_correct(traced):
    assert all(r["correct"] for r in traced.values())


def test_work_splits_between_workloads(traced):
    book = traced["book_scaling"]["metrics"]
    assert book["bilateral.solve_mixed.calls"]["value"] == 0
    layers = sum(book[f"{layer}.self_s"]["value"] for layer in ("economy", "bilateral", "portfolio"))
    assert book["numerics.kernels.self_s"]["value"] < 0.05 * layers
    sweep = traced["bilateral_sweep"]["metrics"]
    assert all(m["value"] == 0 for n, m in sweep.items() if n.startswith("portfolio."))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_for_a_seed(traced, workload):
    again = _run(workload, 1)["metrics"]
    first = traced[workload]["metrics"]
    counts = [n for n, u in layertrace.PER_LAYER if u == "count"]
    assert {n: again[n]["value"] for n in counts} == {n: first[n]["value"] for n in counts}
