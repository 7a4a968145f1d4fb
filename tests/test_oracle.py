"""Brute-force verification: grids, incentive checks, identities."""

import numpy as np
import pytest

from liqscreen.bilateral import solve_mixed, solve_optimal
from liqscreen.economy import benchmark
from liqscreen.errors import DomainError
from liqscreen.oracle import (
    DiscreteMechanism,
    decreasing_slope_mechanism,
    grid_search_optimal,
    ic_verify,
    mechanism_from_contract,
    rent_identity_check,
)


def _constant_instrument(m=20, a=0.4, b1=0.8):
    types = np.linspace(0.0, 1.0, m)
    q = (types >= 0.5).astype(float)
    u = a + b1 * types - types - 0.5 * (1.0 - a) ** 2
    return DiscreteMechanism(types=types, allocation=q,
                             advances=np.full(m, a), slopes=np.full(m, b1),
                             rents=q * np.maximum(u, 0.0))


def test_constant_instrument_is_incentive_compatible():
    econ = benchmark(v=2.0, mu0=0.0, K=1.0, R=1.0)
    report = ic_verify(_constant_instrument(), econ)
    assert report["ok"], report


def test_ic_invariant_to_index_relabeling():
    econ = benchmark(v=2.0, mu0=0.1, K=1.0, R=1.0)
    bad = decreasing_slope_mechanism(econ)
    perm = np.random.Generator(np.random.Philox(3)).permutation(bad.types.size)
    shuffled = DiscreteMechanism(types=bad.types[perm],
                                 allocation=bad.allocation[perm],
                                 advances=bad.advances[perm],
                                 slopes=bad.slopes[perm],
                                 rents=bad.rents[perm])
    assert not ic_verify(bad, econ)["ok"]
    assert not ic_verify(shuffled, econ)["ok"]


def test_decreasing_slope_mechanism_reports_pair():
    econ = benchmark(v=2.0, mu0=0.1, K=1.0, R=1.0)
    report = ic_verify(decreasing_slope_mechanism(econ), econ)
    assert not report["ok"]
    i, j = report["violating_pair"]
    assert i != j


def test_mechanism_from_solved_contract_passes():
    econ = benchmark(v=2.0, mu0=0.1, K=1.0, R=0.5)
    mech = mechanism_from_contract(econ, solve_mixed(econ).contract)
    assert ic_verify(mech, econ)["ok"]


def test_grid_requires_minimum_resolution():
    econ = benchmark(v=2.0, mu0=0.1, K=1.0, R=1.0)
    with pytest.raises(DomainError):
        grid_search_optimal(econ, 10, 200)


def test_grid_search_close_to_solver_at_coarse_resolution():
    econ = benchmark(v=2.0, mu0=0.1, K=1.0, R=1.0)
    best = grid_search_optimal(econ, 60, 60)
    sol = solve_optimal(econ)
    assert abs(best["best_W"] - sol.value) < 5e-3
    assert best["best_W"] <= sol.value + 5e-3


def test_grid_search_uninformative_signal_picks_zero_slope():
    econ = benchmark(v=2.0, mu0=0.0, K=1.0, R=1.0, signal_kind="flat")
    best = grid_search_optimal(econ, 60, 60)
    assert best["best_b1"] == 0.0


def test_rent_identity_zero_slope_and_anchor():
    econ = benchmark(v=2.0, mu0=0.1, K=1.0, R=1.0)
    out = rent_identity_check(econ, 0.3, 0.0, theta_hat=0.3)
    assert abs(out["gap"]) < 1e-9
    out = rent_identity_check(econ, 0.3, 1.5, theta_hat=0.3)
    assert abs(out["gap"]) < 1e-6
    assert out["direct"] != 0.0
