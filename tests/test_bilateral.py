"""Single-relationship screening program and closed-form anchors."""

import math
from dataclasses import replace

import numpy as np
import pytest

from liqscreen.bilateral import (
    Contract,
    _best_advances,
    binding_ir_advance,
    binding_slope,
    closed_form_ell_star,
    contract_value,
    contract_values,
    crossing_threshold,
    cutoff,
    flat_rent_slope,
    ir_slope,
    pure_advance_value,
    pure_contingent_value,
    rent_schedule,
    rent_tail,
    screening_integral,
    served_interval,
    slope_cap,
    solve_mixed,
    solve_optimal,
    sufficient_statistics,
    sweep_R,
    virtual_surplus,
)
from liqscreen.economy import benchmark, power, truncated_exponential
from liqscreen.errors import DomainError
from liqscreen.numerics import Tolerance, best_candidate, maximize_scalar


def test_contract_rejects_negative_terms():
    with pytest.raises(DomainError):
        Contract(advance=-0.1)
    with pytest.raises(DomainError):
        Contract(advance=0.1, slope=-0.2)


def test_closed_form_gap_share():
    # ell*(R) solves the binding participation (R/2) ell^2 = 1 - ell
    for R in (0.25, 0.5, 1.0, 2.0, 3.0, 5.0):
        ell = closed_form_ell_star(R)
        assert abs(0.5 * R * ell ** 2 - (1.0 - ell)) < 1e-12, R


def test_binding_ir_advance_anchor():
    econ = benchmark(v=2.0, mu0=0.1, K=1.0, R=1.0)
    a = binding_ir_advance(econ, 1.0)
    # a + b1*mu(0) = Phi(1 - a) with mu(0) = 0.1
    assert abs(a - 0.21114561800) < 1e-8
    resid = a + 1.0 * 0.1 - 0.5 * (1.0 - a) ** 2
    assert abs(resid) < 1e-10


def test_ir_slope_direction():
    econ = benchmark(v=2.0, mu0=0.1, K=1.0, R=1.0)
    # raising b1 lowers the binding advance
    assert ir_slope(econ, 1.0) < 0.0
    a1 = binding_ir_advance(econ, 1.0)
    a2 = binding_ir_advance(econ, 1.01)
    fd = (a2 - a1) / 0.01
    assert abs(fd - ir_slope(econ, 1.0)) < 1e-2


def test_slope_cap_benchmark():
    econ = benchmark(v=2.0, mu0=0.1, K=1.0, R=1.0)
    # 2*(c(0) + Phi(K)) / mu(0) = 2*0.5/0.1 = 10, the hard cap
    assert abs(slope_cap(econ) - 10.0) < 1e-12


def test_virtual_surplus_and_cutoff():
    econ = benchmark(v=2.0, mu0=0.0, K=1.0, R=1.0)
    a = binding_ir_advance(econ, 0.0)
    that = cutoff(econ, a, 0.0)
    psi = float(virtual_surplus(econ, that, a, 0.0))
    assert abs(psi) < 1e-8
    assert float(virtual_surplus(econ, min(that + 0.1, 1.0), a, 0.0)) > 0.0


def test_rent_schedule_zero_slope_is_pure_cost():
    econ = benchmark(v=2.0, mu0=0.0, K=1.0, R=1.0)
    # pre-participation-offset rent integrates -c' when b1 = 0
    assert abs(rent_schedule(econ, 0.0, 0.7) - (-0.7)) < 1e-9
    assert rent_schedule(econ, 0.0, 0.0) == 0.0


def test_solve_optimal_uninformative_prefers_advance_only():
    for R, w_anchor in ((0.5, 0.171573), (1.0, 0.0), (2.0, -0.190983)):
        econ = benchmark(v=2.0, mu0=0.0, K=1.0, R=R)
        sol = solve_optimal(econ)
        assert abs(sol.contract.slope) < 1e-9, (R, sol.contract)
        a_closed = 1.0 - closed_form_ell_star(R)
        assert abs(sol.contract.advance - a_closed) < 1e-6, (R, sol.contract)
        assert abs(sol.value - w_anchor) < 1e-4, (R, sol.value)


def test_solve_optimal_informative_prefers_slope_when_credit_tight():
    econ = benchmark(v=2.0, mu0=0.1, K=1.0, R=1.0)
    sol = solve_optimal(econ)
    assert sol.boundary_flag == "corner_a_zero"
    assert sol.contract.advance <= 1e-9
    assert sol.contract.slope > 1.0


def test_solve_mixed_flat_corner_when_credit_loose():
    # at low tightness the advance covers the gap at slope one exactly
    for R, w_anchor in ((0.25, 0.404082), (0.5, 0.343146)):
        sol = solve_mixed(benchmark(v=2.0, mu0=0.0, K=1.0, R=R))
        assert abs(sol.contract.slope - 1.0) < 1e-9, (R, sol.contract)
        ell = closed_form_ell_star(R)
        assert abs(sol.value - 0.5 * ell * ell) < 1e-6
        assert abs(sol.value - w_anchor) < 1e-4
        assert sol.branch == "flat"


def test_solve_mixed_interior_anchor():
    sol = solve_mixed(benchmark(v=2.0, mu0=0.0, K=1.0, R=1.0))
    assert abs(sol.contract.advance - 0.550510) < 1e-4
    assert abs(sol.contract.slope - 0.550510) < 1e-4
    assert abs(sol.value - 0.278775) < 1e-4
    assert sol.implemented is not None


def test_pure_values_and_crossing():
    econ = benchmark(v=2.0, mu0=0.0, K=1.0, R=1.0)
    assert abs(pure_advance_value(econ) - 0.25) < 1e-10
    # best zero-advance contract at v=2: W_C(R) = (1 - R/2)^2 / 2
    assert abs(pure_contingent_value(econ) - 0.125) < 1e-6
    r_star = crossing_threshold(econ)
    assert abs(r_star - (2.0 - math.sqrt(2.0))) < 1e-6


def test_served_interval_full_advance():
    econ = benchmark(v=2.0, mu0=0.0, K=1.0, R=1.0)
    span = served_interval(econ, 1.0, 0.0, 0.0)
    assert span is not None
    lo, hi = span
    assert abs(lo - 0.5) < 1e-8  # profit turns positive at v*theta = a
    assert abs(hi - 1.0) < 1e-12


def test_contract_value_matches_closed_form():
    econ = benchmark(v=2.0, mu0=0.0, K=1.0, R=1.0)
    # full advance serves [1/2, 1]: integral of (2t - 1) dt = 1/4
    assert abs(contract_value(econ, 1.0, 0.0, 0.0) - 0.25) < 1e-10


def test_sufficient_statistics_reports_marginals():
    econ = benchmark(v=2.0, mu0=0.1, K=1.0, R=0.5)
    sol = solve_optimal(econ)
    stats = sufficient_statistics(econ, sol)
    assert np.isfinite(stats["marginal_financing_relief"])
    assert "corner" in stats


def test_sweep_rows_have_stable_schema():
    rows, _ = sweep_R(benchmark(v=2.0, mu0=0.0, K=1.0, R=1.0),
                      (0.5, 1.0))
    assert [r["R"] for r in rows] == [0.5, 1.0]
    for row in rows:
        for key in ("a_star", "ell_star", "beta_star", "phi_share",
                    "W_M", "W_A", "W_C"):
            assert key in row, key
        assert abs(row["a_star"] + row["ell_star"] - 1.0) < 1e-9


BATCH_ECONOMIES = {
    "uniform": benchmark(v=2.0, mu0=0.1, K=1.0, R=1.0),
    "truncated_exponential": benchmark(v=2.5, mu0=0.2, K=1.1, R=0.7,
                                       signal_scale=0.7,
                                       dist=truncated_exponential(1.5)),
    "power": benchmark(v=2.2, mu0=0.05, K=0.9, R=2.0, signal_scale=1.3,
                       dist=power(1.7)),
}


@pytest.mark.parametrize("name", sorted(BATCH_ECONOMIES))
def test_contract_values_match_contract_value(name):
    econ = BATCH_ECONOMIES[name]
    K = econ.working_capital
    rng = np.random.Generator(np.random.Philox(5))
    a = np.concatenate([[0.0, 0.0, K, K, 0.3 * K], rng.uniform(0.0, K, 40)])
    b1 = np.concatenate([[0.0, 0.8, 0.0, 1.5, 0.0], rng.uniform(0.0, 2.0, 40)])
    got = contract_values(econ, a, 0.0, b1)
    ref = np.array([contract_value(econ, x, 0.0, b) for x, b in zip(a, b1)])
    assert ref[0] == 0.0  # a = b1 = 0: nobody accepts, the service set is empty
    assert np.all(np.abs(got - ref) <= 1e-15), np.max(np.abs(got - ref))
    # a and b1 broadcast, and the batch keeps their shape
    grid = contract_values(econ, a[:6, None], 0.0, b1[None, :4])
    assert grid.shape == (6, 4)
    assert np.all(np.abs(grid[:, 0] - contract_values(econ, a[:6], 0.0, b1[0]))
                  <= 1e-15)


def _scalar_best_advance(econ, b1, points=17, panels=128):
    """The mixed program's advance search one contract value at a time."""
    K = econ.working_capital
    d = econ.dist

    def val(a):
        return contract_value(econ, a, 0.0, b1, panels)

    xs = np.linspace(0.0, K, points)
    i = int(np.argmax([val(float(x)) for x in xs]))
    best = maximize_scalar(val, float(xs[max(i - 1, 0)]),
                           float(xs[min(i + 1, points - 1)]),
                           Tolerance(abs_x=1e-11), scan_points=9)
    cands = sorted({0.0, K, binding_ir_advance(econ, b1, d.lower),
                    binding_ir_advance(econ, b1, d.upper)})
    return best_candidate([best] + [(c, val(c)) for c in cands], 1e-12)


@pytest.mark.parametrize("name", ["uniform", "truncated_exponential"])
def test_best_advances_equal_the_scalar_search(name):
    econ = BATCH_ECONOMIES[name]
    slopes = [0.0, 0.2, 0.55, 1.0, 1.7]
    a, v = _best_advances(econ, slopes)
    for i, b1 in enumerate(slopes):
        assert (a[i], v[i]) == _scalar_best_advance(econ, b1), b1
    # a batch of one takes the scalar golden steps and agrees as well
    one = _best_advances(econ, slopes[2:3])
    assert (one[0][0], one[1][0]) == (a[2], v[2])


def test_rent_tail_closed_form_with_and_without_signal_slope(curved_signal_pair):
    # mu' = 1 + t on uniform types: integral of (1 + t)(1 - t) from x to 1
    for x in (0.0, 0.3, 0.8, 1.0):
        exact = 2.0 / 3.0 - x + x ** 3 / 3.0
        without, with_prime = (rent_tail(e, x, 128) for e in curved_signal_pair)
        assert abs(with_prime - exact) < 1e-12
        assert abs(without - exact) < 1e-8


def test_screening_integral_closed_form_and_empty_tail(bench_mu0):
    # psi = (1 + b1) t - Phi(K - a) - b1 on the benchmark with mu0 = 0
    a, b1, x = 0.2, 0.5, 0.6
    phi = 0.5 * (1.0 - a) ** 2
    exact = 0.5 * (1.0 + b1) * (1.0 - x * x) - (phi + b1) * (1.0 - x)
    assert abs(screening_integral(bench_mu0, x, a, b1) - exact) < 1e-12
    assert screening_integral(bench_mu0, 1.0, a, b1) == 0.0


def test_virtual_surplus_differences_the_signal_as_one_array(curved_signal_pair):
    econ, _ = curved_signal_pair  # no mu' closure: the slope is differenced
    calls = {"array": 0, "scalar": 0}

    def counted(t, mu=econ.signal_mean):
        calls["array" if np.ndim(t) else "scalar"] += 1
        return mu(t)

    virtual_surplus(replace(econ, signal_mean=counted),
                    np.linspace(0.0, 1.0, 257), 0.3, 0.7)
    assert calls == {"array": 2, "scalar": 0}


@pytest.mark.parametrize("dist", [None, truncated_exponential(1.5), power(0.7)],
                         ids=["uniform", "truncated_exponential", "power"])
def test_binding_slope_inverts_binding_ir_advance(dist):
    econ = benchmark(v=2.0, mu0=0.1, K=1.0, R=1.0, dist=dist)
    for theta in (None, econ.dist.lower, 0.4):
        t = econ.dist.lower if theta is None else theta
        mu_t, c_t = float(econ.signal_mean(t)), float(econ.cost(t))
        for b1 in (0.2, 0.6, 1.0):
            a = binding_ir_advance(econ, b1, theta)
            assert 0.0 < a < econ.working_capital
            back = binding_slope(econ, a, theta)
            assert abs(back - b1) < 1e-8
            # the recovered slope makes participation bind at a exactly
            gap = a + back * mu_t - c_t - 0.5 * (1.0 - a) ** 2
            assert abs(gap) < 1e-15
            assert abs(binding_ir_advance(econ, back, theta) - a) < 1e-10


def test_flat_signal_has_no_binding_or_flat_rent_slope():
    flat = benchmark(signal_kind="flat")
    assert math.isnan(binding_slope(flat, 0.3))
    assert math.isnan(binding_slope(flat, 0.3, 0.6))
    assert flat_rent_slope(flat) is None
    assert slope_cap(flat) == 10.0
    # c' = 1 and mu' = 2 on this affine benchmark
    assert flat_rent_slope(benchmark(mu0=0.1, signal_scale=2.0)) == 0.5
