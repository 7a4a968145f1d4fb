"""Multi-relationship coupling: fixed points, contagion, book statics."""

import math

import numpy as np
import pytest

from liqscreen import portfolio
from liqscreen.bilateral import cutoff, virtual_surplus
from liqscreen.economy import benchmark, marginal_r, truncated_exponential
from liqscreen.errors import ConvergenceError, DegeneracyError, DomainError
from liqscreen.numerics import Bracket, Tolerance, find_root
from liqscreen.portfolio import (
    EMPIRICAL_DELTA_GRID,
    advance_response,
    breadth_comparison,
    calibrated_contract,
    contagion_derivative,
    contagion_threshold,
    fd_cutoff_sensitivity,
    hump_scan,
    independent_cutoff_value,
    make_portfolio,
    portfolio_value,
    slope_calibration,
    slope_calibration_prime,
    solve_cutoffs,
    symmetric_cutoff,
    symmetric_cutoff_iterative,
    symmetric_portfolio,
    uniform_subsidy_effect,
)


def test_slope_calibration_continuous_and_decreasing():
    left = slope_calibration(1.5 - 1e-12)
    right = slope_calibration(1.5 + 1e-12)
    assert abs(left - right) < 1e-9
    Rs = np.linspace(0.1, 4.0, 40)
    vals = [slope_calibration(float(R)) for R in Rs]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    with pytest.raises(DomainError):
        slope_calibration(-0.1)


def test_slope_calibration_prime_matches_finite_difference():
    for R in (0.7, 1.2, 2.5):
        fd = (slope_calibration(R + 1e-6) - slope_calibration(R - 1e-6)) / 2e-6
        assert abs(fd - slope_calibration_prime(R)) < 1e-6


def test_advance_response_tracks_manifold():
    econ = benchmark(v=2.0, mu0=0.1, K=1.0, R=1.0)
    b1 = slope_calibration(1.0)
    got = advance_response(econ, b1, slope_calibration_prime(1.0))
    # finite difference along the schedule in R
    h = 1e-5
    from liqscreen.bilateral import binding_ir_advance
    from liqscreen.economy import with_tightness
    a_hi = binding_ir_advance(with_tightness(econ, 1.0 + h),
                              slope_calibration(1.0 + h))
    a_lo = binding_ir_advance(with_tightness(econ, 1.0 - h),
                              slope_calibration(1.0 - h))
    assert abs(got - (a_hi - a_lo) / (2 * h)) < 1e-5


def test_portfolio_requires_symmetric_coupling():
    econs = [benchmark(), benchmark()]
    bad = np.array([[0.0, 1.0], [0.2, 0.0]])
    with pytest.raises(DomainError):
        make_portfolio(econs, coupling=bad)
    with pytest.raises(DomainError):
        make_portfolio(econs)


def test_symmetric_cutoff_closed_form_and_degenerate_denominator():
    theta, clamped = symmetric_cutoff(0.3, 0.5, 0.2, v=2.0)
    assert abs(theta - (0.3 + 0.5 - 0.2) / (1.0 + 0.5 - 0.2)) < 1e-12
    assert not clamped
    with pytest.raises(DegeneracyError):
        symmetric_cutoff(0.3, 0.5, 1.5, v=2.0)


def test_iterative_cutoff_agrees_with_closed_form():
    tol = Tolerance(abs_x=1e-12, abs_f=1e-12, max_iter=20000)
    closed, _ = symmetric_cutoff(0.3, 0.5, 0.2)
    x, resid, its = symmetric_cutoff_iterative(0.3, 0.5, 0.2, tol=tol)
    assert type(x) is float and type(resid) is float and type(its) is int
    assert abs(x - closed) < 1e-9
    assert abs(resid) < 1e-9
    assert its >= 1


def test_iterative_cutoff_budget_exhaustion_raises():
    with pytest.raises(ConvergenceError):
        symmetric_cutoff_iterative(0.3, 0.5, 0.2,
                                   tol=Tolerance(abs_f=1e-12, max_iter=3))


@pytest.mark.parametrize("R", [0.5, 1.0, 2.0])
def test_symmetric_cutoff_matches_solve_cutoffs_on_both_sides_of_stability(R):
    # past delta = v - 1 + b1 the interior root is unstable and the
    # coupled map runs to a corner; the closed form must pick the same one
    for delta in np.round(np.arange(0.0, 3.0 + 1e-9, 0.1), 10):
        port = symmetric_portfolio(R, float(delta))
        c = port.contracts[0]
        closed, _ = symmetric_cutoff(c.advance, c.slope, float(delta))
        got = solve_cutoffs(port).cutoffs[0]
        assert abs(closed - got) <= 1e-8, (delta, closed, got)


def test_zero_coupling_reduces_to_bilateral_cutoffs():
    port = symmetric_portfolio(1.0, 0.0)
    sol = solve_cutoffs(port)
    for i, (econ, con) in enumerate(zip(port.economies, port.contracts)):
        solo = cutoff(econ, con.advance, con.slope)
        assert abs(sol.cutoffs[i] - solo) < 1e-8


def test_portfolio_value_consistent_with_solution():
    port = symmetric_portfolio(1.0, 0.8)
    sol = solve_cutoffs(port)
    total, per = portfolio_value(port, sol.cutoffs)
    assert abs(total - sol.total_value) < 1e-12
    assert abs(float(np.sum(per)) - total) < 1e-12


def test_centrality_symmetric_book():
    port = symmetric_portfolio(1.0, 0.8)
    sol = solve_cutoffs(port)
    assert sol.centralities.shape == (2,)
    assert abs(sol.centralities[0] - sol.centralities[1]) < 1e-9


@pytest.mark.parametrize("Rs, coupling, clamped", [
    ((0.8, 1.0, 1.4), [[0.0, 0.1, 0.25], [0.1, 0.0, 0.3], [0.25, 0.3, 0.0]],
     ("none",) * 3),
    ((0.8, 1.4, 1.0, 1.2), [[0.0, 0.2, 0.05, 0.05], [0.2, 0.0, 0.05, 0.05],
                            [0.05, 0.05, 0.0, 1.5], [0.05, 0.05, 1.5, 0.0]],
     ("none", "none", "all_served", "all_served")),
], ids=["interior", "two_clamped"])
def test_centralities_match_finite_difference_cutoff_responses(Rs, coupling,
                                                               clamped):
    coupling = np.array(coupling)
    port = make_portfolio([benchmark(R=R) for R in Rs], coupling=coupling)
    sol = solve_cutoffs(port)
    assert sol.clamped == clamped
    n = len(Rs)
    for j in range(n):
        sens = fd_cutoff_sensitivity(port, j)
        fd = sum(coupling[i, j] * sens[i] for i in range(n) if i != j)
        assert abs(sol.centralities[j] - fd) < 1e-6, (j, sol.centralities[j], fd)
        if clamped[j] != "none":
            assert sol.centralities[j] == 0.0


def _loop_centralities(port, sol):
    """Reference: one solve of the full cutoff Jacobian per relationship."""
    n = len(port.economies)
    free = [state == "none" for state in sol.clamped]
    out = np.zeros(n)
    for j in range(n):
        jac, rhs = np.eye(n), np.zeros(n)
        for i, (e, c) in enumerate(zip(port.economies, port.contracts)):
            if not free[i]:
                continue
            t, h = float(sol.cutoffs[i]), 1e-6
            jac[i, i] = (float(virtual_surplus(e, t + h, c.advance, c.slope))
                         - float(virtual_surplus(e, t - h, c.advance, c.slope))) \
                / (2 * h)
            for k in range(n):
                if k != i and free[k]:
                    jac[i, k] = -port.coupling[i, k] \
                        * float(port.economies[k].dist.pdf(sol.cutoffs[k]))
            if i == j:
                rhs[i] = marginal_r(e.financing, e.working_capital - c.advance)
        sens = np.linalg.solve(jac, rhs)
        out[j] = sum(port.coupling[i, j] * sens[i] for i in range(n) if i != j)
    return out


def test_centralities_equal_per_relationship_solves():
    rng = np.random.Generator(np.random.Philox(11))
    n = 12
    coupling = np.triu(rng.uniform(0.0, 0.05, (n, n)), 1)
    coupling[0, 1] = coupling[2, 3] = 1.5  # pushes four cutoffs to the bottom
    port = make_portfolio([benchmark(R=R) for R in rng.uniform(0.5, 3.0, n)],
                          coupling=coupling + coupling.T)
    sol = solve_cutoffs(port)
    assert 0 < sol.clamped.count("none") < n
    # one solve with many right-hand sides rounds differently from n solves
    assert np.allclose(sol.centralities, _loop_centralities(port, sol),
                       rtol=100 * np.finfo(float).eps, atol=0.0)


def _damped_reference(port):
    """Reference solve: the damped map x <- x + (T(x) - x)/2 from the uncoupled
    cutoffs until sup|T(x) - x| <= 1e-12, T re-solving every threshold at the
    current load; returns T(x), the clamp flags read at it and the passes."""
    def respond(x):
        tails = np.array([1.0 - float(e.dist.cdf(t))
                          for e, t in zip(port.economies, x)])
        out = []
        for e, c, load in zip(port.economies, port.contracts,
                              port.coupling @ tails):
            d = e.dist

            def g(t):
                return float(virtual_surplus(e, t, c.advance, c.slope)) + load

            if g(d.lower) >= 0.0:
                out.append((d.lower, "all_served"))
            elif g(d.upper) < 0.0:
                out.append((d.upper, "empty"))
            else:
                out.append((find_root(g, Bracket(d.lower, d.upper)), "none"))
        return np.array([t for t, _ in out]), tuple(flag for _, flag in out)

    x = np.array([cutoff(e, c.advance, c.slope)
                  for e, c in zip(port.economies, port.contracts)])
    for passes in range(1, 20001):
        tx, _ = respond(x)
        if np.max(np.abs(tx - x)) <= 1e-12:
            return tx, respond(tx)[1], passes
        x = x + 0.5 * (tx - x)
    raise AssertionError("reference damped map did not converge")


def _symmetric_books():
    return [symmetric_portfolio(R, float(delta), mu0=mu0)
            for R in (0.5, 1.0, 2.0, 3.0)
            for delta in np.linspace(0.0, 4.0, 17)
            for mu0 in (0.0, 0.2)]


def _random_books(count=70):
    """Books of 2-12 relationships: uniform or truncated-exponential types,
    surplus slope v in [1, 2.5] (some books start with empty relationships),
    mean coupling log-uniform up to 3."""
    rng = np.random.Generator(np.random.Philox(6))
    books = []
    for _ in range(count):
        n = int(rng.integers(2, 13))
        econs = []
        for _ in range(n):
            dist = (None if rng.random() < 0.5
                    else truncated_exponential(float(rng.uniform(0.5, 3.0))))
            econs.append(benchmark(v=float(rng.uniform(1.0, 2.5)),
                                   mu0=float(rng.choice([0.0, 0.2])),
                                   R=float(rng.uniform(0.5, 3.0)), dist=dist))
        coupling = np.triu(rng.uniform(0.0, 1.0, (n, n)), 1)
        coupling *= 3.0 * 10.0 ** rng.uniform(-3.0, 0.0) \
            / coupling[np.triu_indices(n, 1)].mean()
        books.append(make_portfolio(econs, coupling=coupling + coupling.T))
    return books


@pytest.mark.parametrize("books", [_symmetric_books, _random_books],
                         ids=["symmetric", "random"])
def test_newton_selects_the_damped_map_equilibrium(books):
    seen = set()
    for k, port in enumerate(books()):
        sol = solve_cutoffs(port)
        ref, flags, _ = _damped_reference(port)
        assert np.max(np.abs(sol.cutoffs - ref)) <= 1e-10, k
        assert sol.clamped == flags, k
        assert sol.residual <= 1e-12
        seen.update(flags)
    assert {"none", "all_served"} <= seen


def test_unstable_interior_fixed_point_returns_the_corner():
    # v - 1 + b1 = 1 + 0.35e < delta: the symmetric interior fixed point
    # is unstable, Newton's first step would rise, so Newton hands the
    # uncoupled cutoffs to the damped map, which falls to the bottom corner
    port = symmetric_portfolio(0.5, 2.0)
    assert 2.0 > 1.0 + port.contracts[0].slope
    sol = solve_cutoffs(port)
    assert sol.clamped == ("all_served", "all_served")
    assert np.all(sol.cutoffs == 0.0)
    assert sol.iterations == _damped_reference(port)[2]


def test_damped_fallback_budget_exhaustion_raises(monkeypatch):
    # Newton hands this book to the damped map, which needs ~40 passes
    monkeypatch.setattr(portfolio, "FP_TOL", Tolerance(abs_f=1e-12, max_iter=3))
    with pytest.raises(ConvergenceError):
        solve_cutoffs(symmetric_portfolio(0.5, 2.0))


@pytest.mark.parametrize("v_odd, delta, state", [
    (2.0, 2.0, "all_served"),
    (2.0, 0.002, "none"),
    # v = 1.3 serves no type uncoupled, so Newton starts these five
    # cutoffs at the top of the support, where psi' needs the inner stencil
    (1.3, 0.05, "none"),
], ids=["all_served", "interior", "interior_from_top"])
def test_book_solve_makes_at_most_two_response_passes(monkeypatch, v_odd,
                                                      delta, state):
    calls = []
    real = portfolio._cutoff_given_coupling

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(portfolio, "_cutoff_given_coupling", counted)
    n = 10
    port = make_portfolio([benchmark(v=v_odd if i % 2 else 2.0, R=float(R))
                           for i, R in enumerate(np.linspace(0.5, 3.0, n))],
                          delta=delta)
    sol = solve_cutoffs(port)
    assert sol.clamped == (state,) * n
    # the damped map alone makes 38 to 42 passes of n calls on such books
    assert len(calls) <= 2 * n


def test_contagion_derivative_sign_flips_with_coupling():
    up = contagion_derivative(symmetric_portfolio(1.0, 1.2), 0)
    dn = contagion_derivative(symmetric_portfolio(1.0, 0.1), 0)
    assert up["total"] > 0.0
    assert dn["total"] < 0.0
    analytic_only = contagion_derivative(symmetric_portfolio(1.0, 1.2), 0,
                                         analytic_only=True)
    assert math.isnan(analytic_only["total"])
    assert np.isfinite(analytic_only["analytic"])


def test_contagion_spillover_uses_pointwise_signal_slope(curved_signal_pair):
    # without a mu' closure the rent tail must still weight mu' pointwise
    spill = [contagion_derivative(make_portfolio([e, e], delta=0.5), 0,
                                  analytic_only=True)["screening_spillover"]
             for e in curved_signal_pair]
    assert abs(spill[0] - spill[1]) < 1e-5, spill


@pytest.fixture(scope="module")
def scanned_threshold():
    """Both threshold routes at the benchmark, empirical scan included."""
    econ = benchmark(v=2.0, mu0=0.0, K=1.0, R=1.0)
    return contagion_threshold(econ, EMPIRICAL_DELTA_GRID)


def test_contagion_threshold_reports_both_routes(scanned_threshold):
    out = scanned_threshold
    # fixed-contract analytic flip vs re-calibrated empirical scan; the
    # contract response moves the flip earlier, so empirical comes first
    assert out["analytic"] > 0.0
    assert 0.0 < out["empirical"] <= out["analytic"]


def test_contagion_threshold_without_grid_skips_the_scan(scanned_threshold,
                                                         monkeypatch):
    calls = []
    real = portfolio.contagion_derivative

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(portfolio, "contagion_derivative", counted)
    econ = benchmark(v=2.0, mu0=0.0, K=1.0, R=1.0)
    out = contagion_threshold(econ)
    assert out["analytic"] == scanned_threshold["analytic"]
    assert math.isnan(out["empirical"])
    assert calls == []
    # the counter does see the scan when a grid is given
    contagion_threshold(econ, [1.2])
    assert len(calls) == 1


def test_hump_scan_peak_only_when_coupled():
    Rs = np.round(np.arange(0.5, 3.01, 0.1), 10)
    coupled = hump_scan(Rs, 1.2)
    assert coupled["positive_intervals"]
    assert coupled["positive_intervals"][0][0] <= 0.6
    independent = hump_scan(Rs, 0.0)
    assert independent["positive_intervals"] == []
    assert independent["peak"] is None


def test_breadth_conventions():
    port = symmetric_portfolio(1.0, 0.0)
    matched = breadth_comparison(port, single="matched")
    # zero coupling with the same contract is an exact tie
    assert abs(2.0 * matched["single_value"] - matched["dual_value"]) < 1e-9
    reopt = breadth_comparison(port, single="reoptimized")
    assert reopt["single_value"] >= matched["single_value"] - 1e-12
    with pytest.raises(DomainError):
        breadth_comparison(port, single="nonsense")


def test_subsidy_directions():
    assert uniform_subsidy_effect(1.0, 1.2)["all_lower"]
    assert uniform_subsidy_effect(1.0, 0.0)["all_higher"]


def test_independent_cutoffs_weakly_worse():
    port = symmetric_portfolio(1.0, 1.0)
    out = independent_cutoff_value(port)
    assert out["coupled"] >= out["at_independent"] - 1e-9
    # loss is signed relative to the coupled optimum, so nonpositive
    assert out["relative_loss"] <= 1e-9
