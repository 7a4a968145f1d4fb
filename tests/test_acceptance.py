"""End-to-end acceptance suite.

One test per shipped guarantee, each at its stated tolerance and, where
stated, its runtime budget. Values that look arbitrary are pinned
benchmark anchors; the comments alongside give the closed form.
"""

import filecmp

import numpy as np

from liqscreen.bilateral import (
    binding_ir_advance,
    closed_form_ell_star,
    crossing_threshold,
    pure_advance_value,
    pure_contingent_value,
    solve_mixed,
    solve_optimal,
)
from liqscreen.cli import main as cli_main
from liqscreen.economy import EconomyPrimitives, benchmark, uniform, with_tightness
from liqscreen.extensions import (
    MonitoringConfig,
    analytic_reduced_economy,
    dynamic_path,
    monitoring_cross_effect,
    point_mass_posterior,
    reduce_2d,
    solve_bid_function,
    solve_monitoring,
    solve_renegotiation,
)
from liqscreen.oracle import (
    decreasing_slope_mechanism,
    grid_search_optimal,
    ic_verify,
    mechanism_from_contract,
    rent_identity_check,
)
from liqscreen.portfolio import (
    contagion_derivative,
    contagion_threshold,
    hump_scan,
    solve_cutoffs,
    symmetric_cutoff,
    symmetric_portfolio,
    uniform_subsidy_effect,
)
from conftest import runtime_budget, two_copy_book

ADVANCE_TABLE = {0.5: 0.17, 1.0: 0.27, 2.0: 0.38, 3.0: 0.45, 5.0: 0.54}
DOMINANCE_GRID = (0.25, 0.5, 1.0, 2.0, 3.0, 5.0)


def test_c01_closed_form_advance_matches_table_and_root():
    # a*(R) = 1 - (-1 + sqrt(1 + 2R)) / R against the published column
    with runtime_budget(1.0):
        for R, cell in ADVANCE_TABLE.items():
            a_closed = 1.0 - closed_form_ell_star(R)
            assert abs(a_closed - cell) <= 0.005, (R, a_closed)
            econ = benchmark(v=2.0, mu0=0.0, K=1.0, R=R)
            a_root = binding_ir_advance(econ, 0.0)
            assert abs(a_root - a_closed) <= 1e-8, (R, a_root, a_closed)


def test_c02_pure_advance_value_quarter_and_tightness_invariant():
    with runtime_budget(1.0):
        values = {R: pure_advance_value(benchmark(v=2.0, mu0=0.0, K=1.0, R=R))
                  for R in (0.5, 5.0)}
        for R, w in values.items():
            assert abs(w - 0.25) <= 1e-10, (R, w)
        assert abs(values[0.5] - values[5.0]) <= 1e-10


def test_c03_mixed_dominates_and_contingent_crosses_advance():
    with runtime_budget(10.0):
        for R in DOMINANCE_GRID:
            econ = benchmark(v=2.0, mu0=0.0, K=1.0, R=R)
            w_m = solve_mixed(econ).value
            w_a = pure_advance_value(econ)
            w_c = pure_contingent_value(econ)
            assert w_m >= max(w_a, w_c) - 1e-9, (R, w_m, w_a, w_c)
        # strict decrease needs the contingent contract viable on the
        # whole grid, which takes a higher surplus ratio
        w_c_rich = [pure_contingent_value(benchmark(v=4.0, mu0=0.0, K=1.0, R=R))
                    for R in DOMINANCE_GRID]
        assert all(b < a for a, b in zip(w_c_rich, w_c_rich[1:])), w_c_rich
        econ = benchmark(v=2.0, mu0=0.0, K=1.0, R=1.0)
        r_star = crossing_threshold(econ)
        w_a = pure_advance_value(econ)
        w_c_at = pure_contingent_value(with_tightness(econ, r_star))
        assert abs(w_c_at - w_a) <= 1e-8, (r_star, w_c_at, w_a)


def test_c04_grid_oracle_agrees_with_continuous_solver():
    with runtime_budget(30.0):
        for R in (0.5, 1.0, 2.0):
            econ = benchmark(v=2.0, mu0=0.1, K=1.0, R=R)
            best = grid_search_optimal(econ, 200, 200)
            sol = solve_optimal(econ)
            assert abs(best["best_W"] - sol.value) <= 1e-3, (R, best, sol.value)


def test_c05_rent_identity_on_seeded_draws():
    econ = benchmark(v=2.0, mu0=0.1, K=1.0, R=1.0)
    rng = np.random.Generator(np.random.Philox(7))
    worst = 0.0
    for _ in range(100):
        a = float(rng.uniform(0.0, econ.working_capital))
        b1 = float(rng.uniform(0.0, 2.0))
        that = float(rng.uniform(econ.dist.lower, econ.dist.upper))
        gap = abs(rent_identity_check(econ, a, b1, theta_hat=that)["gap"])
        worst = max(worst, gap)
    assert worst < 1e-5, worst


def test_c06_ic_verifier_passes_solution_and_catches_counterexample():
    e_half = benchmark(v=2.0, mu0=0.1, K=1.0, R=0.5)
    mech = mechanism_from_contract(e_half, solve_mixed(e_half).contract)
    report = ic_verify(mech, e_half)
    assert report["ok"], report
    bad = decreasing_slope_mechanism(benchmark(v=2.0, mu0=0.1, K=1.0, R=1.0))
    report = ic_verify(bad, benchmark(v=2.0, mu0=0.1, K=1.0, R=1.0))
    assert not report["ok"]
    assert report["violating_pair"] is not None, report


def test_c07_symmetric_fixed_point_matches_closed_form():
    # the book solver is the second route to the closed form
    a = 0.3
    compared = 0
    for b1 in np.linspace(0.0, 2.0, 10):
        for delta in np.linspace(0.0, 2.4, 10):
            if 1.0 + b1 - delta <= 0.05:
                continue
            closed, _ = symmetric_cutoff(a, float(b1), float(delta))
            x = solve_cutoffs(two_copy_book(a, float(b1), float(delta))).cutoffs[0]
            assert abs(x - closed) <= 1e-8, (b1, delta, x, closed)
            compared += 1
    assert compared >= 50, compared


def test_c08_contagion_threshold_order_and_derivative_signs():
    thresholds = [contagion_threshold(symmetric_portfolio(R, 0.0))["analytic"]
                  for R in (0.5, 1.0, 2.0, 3.0, 5.0)]
    assert all(b > a for a, b in zip(thresholds, thresholds[1:])), thresholds
    up = contagion_derivative(symmetric_portfolio(1.0, 1.2), 0)["total"]
    dn = contagion_derivative(symmetric_portfolio(1.0, 0.1), 0)["total"]
    assert up > 0.0, up
    assert dn < 0.0, dn
    # published threshold cells, informational only: their slope
    # calibration is under-determined, so report rather than gate
    cells = (0.55, 0.78, 1.12, 1.42, 1.98)
    for R, cell, got in zip((0.5, 1.0, 2.0, 3.0, 5.0), cells, thresholds):
        status = "within" if abs(got - cell) <= 0.1 else "outside"
        print(f"threshold cell R={R}: computed {got:.3f} vs {cell} ({status} 0.1)")


def test_c09_hump_exists_when_coupled_and_not_when_independent():
    Rs = np.round(np.arange(0.5, 3.0 + 1e-9, 0.1), 10)
    coupled = hump_scan(Rs, 1.2)
    assert coupled["positive_intervals"], coupled["slope"]
    for lo, hi in coupled["positive_intervals"]:
        assert 0.5 - 1e-9 <= lo < hi <= 3.0 + 1e-9
    independent = hump_scan(Rs, 0.0)
    assert not independent["positive_intervals"], independent["slope"]


def test_c10_uniform_subsidy_direction_flips_with_coupling():
    assert uniform_subsidy_effect(1.0, 1.2)["all_lower"]
    assert uniform_subsidy_effect(1.0, 0.0)["all_higher"]


def test_c11_dynamic_point_mass_flat_and_advance_monotone_on_shrink_steps():
    econ = with_tightness(benchmark(v=2.0, mu0=0.1, K=1.0, R=1.0), 0.5)
    fixed = dynamic_path(econ, 0.3, 20, seed=42,
                         prior=point_mass_posterior(0.3))
    for rec in fixed:
        assert abs(rec.contract.advance - econ.working_capital) <= 1e-12
        assert abs(rec.contract.slope) <= 1e-12
    path = dynamic_path(econ, 0.3, 20, seed=42)
    shrink_steps = 0
    for prev, cur in zip(path, path[1:]):
        if cur.hazard_shrink_ok:
            shrink_steps += 1
            assert cur.contract.advance >= prev.contract.advance - 1e-12, \
                (prev.t, prev.contract, cur.contract)
    assert shrink_steps >= 5, shrink_steps


def test_c12_renegotiation_advance_monotone_to_full_working_capital():
    econ = benchmark(v=2.0, mu0=0.0, K=1.0, R=1.0)
    advances = [solve_renegotiation(econ, lam).contract.advance
                for lam in (0.0, 0.25, 0.5, 0.75, 1.0)]
    assert all(b >= a - 1e-12 for a, b in zip(advances, advances[1:])), advances
    assert abs(advances[-1] - econ.working_capital) <= 1e-6, advances[-1]


def test_c13_bid_invariants_gap_ordering_and_step_halving():
    econ = benchmark(v=2.0, mu0=0.0, K=1.0, R=1.0)
    # construction enforces the shading and comonotonicity invariants
    bf2 = solve_bid_function(econ, 2)
    bf10 = solve_bid_function(econ, 10)
    assert np.all(bf2.bids >= bf2.full_info - 1e-9)
    assert np.all(bf10.bids >= bf10.full_info - 1e-9)
    gap2 = float(np.max(bf2.bids - bf2.full_info))
    gap10 = float(np.max(bf10.bids - bf10.full_info))
    assert gap10 < gap2, (gap10, gap2)
    bf2h = solve_bid_function(econ, 2, steps=4000)
    drift2 = float(np.max(np.abs(
        np.interp(bf2.grid, bf2h.grid, bf2h.bids) - bf2.bids)))
    eps10 = 4.5e-3 * (econ.dist.upper - econ.dist.lower)
    bf10a = solve_bid_function(econ, 10, eps=eps10, steps=2000)
    bf10b = solve_bid_function(econ, 10, eps=eps10, steps=4000)
    drift10 = float(np.max(np.abs(
        np.interp(bf10a.grid, bf10b.grid, bf10b.bids) - bf10a.bids)))
    assert drift2 < 1e-5, drift2
    assert drift10 < 1e-5, drift10


def test_c14_two_dimensional_reduction_matches_one_dimensional():
    base = benchmark(v=2.0, mu0=0.0, K=1.0, R=1.0)
    econ = EconomyPrimitives(
        dist=base.dist, surplus=base.surplus,
        cost=lambda t: np.ones_like(np.asarray(t, float)),
        signal_mean=base.signal_mean, financing=base.financing,
        working_capital=1.0,
        cost_prime=lambda t: np.zeros_like(np.asarray(t, float)),
        signal_mean_prime=base.signal_mean_prime, label="unit_cost")
    rng = np.random.Generator(np.random.Philox(42))
    theta = rng.uniform(0.0, 1.0, 100_000)
    out = reduce_2d(np.ones_like(theta), theta, econ)
    sol_1d = solve_optimal(analytic_reduced_economy(econ, uniform(0.0, 1.0)))
    assert abs(out["solution_2d"].value - sol_1d.value) <= 1e-2
    assert abs(out["solution_2d"].contract.advance
               - sol_1d.contract.advance) <= 1e-2


def test_c15_monitoring_falls_with_tightness_and_cross_effect_negative():
    base = benchmark(v=2.0, mu0=0.1, K=1.0, R=1.0)
    cfg = MonitoringConfig(kappa0=0.05)
    sigma = [solve_monitoring(with_tightness(base, R), cfg)["sigma_star"]
             for R in (0.5, 1.0, 2.0)]
    assert all(b < a for a, b in zip(sigma, sigma[1:])), sigma
    cross = monitoring_cross_effect(with_tightness(base, 1.0), cfg)
    assert cross < 0.0, cross


def test_c16_verify_reports_are_byte_identical(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["--out", str(out_a), "verify"]) == 0
    assert cli_main(["--out", str(out_b), "verify"]) == 0
    assert filecmp.cmp(out_a / "verify_report.json",
                       out_b / "verify_report.json", shallow=False)
