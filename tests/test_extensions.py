"""Learning, monitoring, renegotiation, menus, auctions, 2D reduction."""

import math

import numpy as np
import pytest

from liqscreen.bilateral import binding_ir_advance, solve_optimal
from liqscreen.economy import EconomyPrimitives, benchmark, uniform, with_tightness
from liqscreen.errors import BracketError, DegeneracyError, DomainError
from liqscreen.extensions import (
    MonitoringConfig,
    PosteriorState,
    _monitoring_gap,
    _rk4_affine,
    analytic_reduced_economy,
    bayes_update,
    d_statistic,
    discrete_hazard,
    dynamic_path,
    hazard_shrink_check,
    menu_equivalence_check,
    point_mass_posterior,
    reduce_2d,
    scale_signal,
    solve_bid_function,
    solve_monitoring,
    solve_renegotiation,
    uniform_posterior,
)


def _bench_half():
    return with_tightness(benchmark(v=2.0, mu0=0.1, K=1.0, R=1.0), 0.5)


# --- belief updating ---------------------------------------------------------


def test_posterior_validation():
    with pytest.raises(DomainError):
        PosteriorState(np.array([1.0, 0.0]), np.array([0.5, 0.5]))
    with pytest.raises(DomainError):
        PosteriorState(np.array([0.0, 1.0]), np.array([0.7, -0.3]))
    with pytest.raises(DomainError):
        PosteriorState(np.array([0.5]), np.array([1.0]))


def test_uniform_posterior_normalized():
    post = uniform_posterior(0.0, 1.0, 50)
    assert abs(float(np.sum(post.weights)) - 1.0) < 1e-12


def test_discrete_hazard_mass_ratio():
    post = uniform_posterior(0.0, 1.0, 5)
    h = discrete_hazard(post)
    # strict right-tail mass over own point mass
    assert abs(h[0] - 0.8 / 0.2) < 1e-12
    assert abs(h[-1]) < 1e-12


def test_d_statistic_point_mass_zero():
    assert d_statistic(point_mass_posterior(0.3)) == 0.0
    full = d_statistic(uniform_posterior(0.0, 1.0, 201))
    assert abs(full - 0.5) < 5e-3  # expected type on an anchored grid


def test_bayes_update_moves_mean():
    post = uniform_posterior(0.0, 1.0, 50)
    mean = lambda p: float(np.sum(p.grid * p.weights))  # noqa: E731
    up = bayes_update(post, 1)
    dn = bayes_update(post, 0)
    assert mean(up) > mean(post) > mean(dn)
    with pytest.raises(DegeneracyError):
        bayes_update(point_mass_posterior(0.0, m=5), 1)


def test_hazard_shrink_check_directions():
    post = uniform_posterior(0.0, 1.0, 50)
    shrunk = bayes_update(post, 0)
    assert hazard_shrink_check(post, shrunk)
    grid = np.linspace(0.0, 1.0, 50)
    heavy = np.exp(-5.0 * grid)
    bottom_heavy = PosteriorState(grid, heavy / heavy.sum())
    assert not hazard_shrink_check(bottom_heavy, uniform_posterior(0.0, 1.0, 50))


def test_dynamic_path_shape_and_domain():
    econ = _bench_half()
    recs = dynamic_path(econ, 0.3, 5, seed=1)
    assert len(recs) == 6
    assert recs[-1].signal is None
    assert recs[0].hazard_shrink_ok is None
    with pytest.raises(DomainError):
        dynamic_path(econ, 1.5, 5, seed=1)


# --- monitoring --------------------------------------------------------------


def test_scale_signal_identity_and_stretch():
    econ = benchmark(v=2.0, mu0=0.1, K=1.0, R=1.0)
    same = scale_signal(econ, 1.0)
    assert abs(float(same.signal_mean(0.7)) - float(econ.signal_mean(0.7))) < 1e-12
    doubled = scale_signal(econ, 2.0)
    # stretches around mu at the lowest type
    assert abs(float(doubled.signal_mean(0.0)) - 0.1) < 1e-12
    assert abs(float(doubled.signal_mean(0.5)) - (0.1 + 2.0 * 0.5)) < 1e-12


def test_monitoring_interior_and_corner():
    econ = benchmark(v=2.0, mu0=0.1, K=1.0, R=1.0)
    out = solve_monitoring(econ, MonitoringConfig(kappa0=0.05))
    assert not out["corner"]
    assert abs(out["sigma_star"] - 0.493824) < 1e-4
    assert abs(out["foc_residual"]) < 1e-6
    # with nothing to screen there is no gain from monitoring at all
    flat = benchmark(v=2.0, mu0=0.0, K=1.0, R=1.0, signal_kind="flat")
    corner = solve_monitoring(flat, MonitoringConfig(kappa0=0.05))
    assert corner["corner"]
    assert corner["sigma_star"] == 0.0
    with pytest.raises(BracketError):
        solve_monitoring(econ, MonitoringConfig(kappa0=1e-6, sigma_max=0.5))


def test_monitoring_gap_uses_pointwise_signal_slope(curved_signal_pair):
    # without a mu' closure the rent tail must still weight mu' pointwise
    cfg = MonitoringConfig(kappa0=0.05)
    gaps = [_monitoring_gap(e, cfg, 0.5) for e in curved_signal_pair]
    assert abs(gaps[0] - gaps[1]) < 1e-5, gaps


# --- renegotiation -----------------------------------------------------------


def test_renegotiation_nests_static_solution():
    econ = benchmark(v=2.0, mu0=0.0, K=1.0, R=1.0)
    lam0 = solve_renegotiation(econ, 0.0)
    static = solve_optimal(econ)
    assert abs(lam0.contract.advance - static.contract.advance) < 1e-8
    assert abs(lam0.value - static.value) < 1e-8


def test_renegotiation_value_weakly_falls():
    econ = benchmark(v=2.0, mu0=0.0, K=1.0, R=1.0)
    vals = [solve_renegotiation(econ, lam).value
            for lam in (0.0, 0.25, 0.5, 0.75, 1.0)]
    assert all(b <= a + 1e-9 for a, b in zip(vals, vals[1:])), vals
    with pytest.raises(DomainError):
        solve_renegotiation(econ, 1.5)


# --- menus -------------------------------------------------------------------


def test_menu_cannot_beat_single_contract():
    econ = benchmark(v=2.0, mu0=0.1, K=1.0, R=1.0)
    out = menu_equivalence_check(econ)
    assert out["ic_ok"]
    assert abs(out["gap"]) < 1e-3
    assert out["menu_value"] >= out["baseline_value"] - 1e-12


# --- auctions ----------------------------------------------------------------


def test_interior_type_participation_root_property():
    econ = benchmark(v=2.0, mu0=0.0, K=1.0, R=1.0)
    a = binding_ir_advance(econ, 0.0, 0.4)
    # a covers cost plus financing of the residual gap at theta
    assert abs(a - (0.4 + 0.5 * (1.0 - a) ** 2)) < 1e-9


def test_rk4_affine_exponential_decay():
    # y' = k * (y - m) with k = -1, m = 0 is y' = -y
    ys = _rk4_affine([-1.0] * 401, [0.0] * 401, 1.0, 1.0 / 200, 200)
    assert abs(ys[-1] - math.exp(-1.0)) < 1e-9
    assert len(ys) == 201


def test_rk4_affine_backward():
    ys = _rk4_affine([-1.0] * 401, [0.0] * 401, math.exp(-1.0), -1.0 / 200, 200)
    assert abs(ys[-1] - 1.0) < 1e-9
    assert len(ys) == 201


def test_bid_function_invariants_and_errors():
    econ = benchmark(v=2.0, mu0=0.0, K=1.0, R=1.0)
    bf = solve_bid_function(econ, 2)
    assert np.all(np.diff(bf.grid) > 0)
    assert np.all(bf.bids >= bf.full_info - 1e-9)
    # shading vanishes at the top boundary
    assert bf.bids[-1] - bf.full_info[-1] < 1e-6
    with pytest.raises(DomainError):
        solve_bid_function(econ, 1)
    with pytest.raises(DomainError):
        solve_bid_function(econ, 2, eps=0.0)


# --- two-dimensional reduction ------------------------------------------------


def test_reduce_2d_rejects_and_degenerates():
    econ = benchmark(v=2.0, mu0=0.0, K=1.0, R=1.0)
    theta = np.array([0.0, 0.5, 0.5, 0.5])  # cost c = theta is 0 at 0
    out = reduce_2d(np.ones(4), theta, econ, bins=4)
    assert out["rejected"] == 1
    assert out["degenerate"]
    with pytest.raises(DomainError):
        reduce_2d(np.ones(3), np.zeros(4), econ)


def test_reduce_2d_mixture_distribution_matches_analytic_cdf():
    # mu = theta^2 and c = theta on [0.1, 1] makes xi = alpha * theta
    base = benchmark(v=2.0, mu0=0.0, K=1.0, R=1.0, dist=uniform(0.1, 1.0))
    econ = EconomyPrimitives(
        dist=base.dist, surplus=base.surplus, cost=base.cost,
        signal_mean=lambda t: np.asarray(t, float) ** 2,
        financing=base.financing, working_capital=1.0,
        cost_prime=base.cost_prime,
        signal_mean_prime=lambda t: 2.0 * np.asarray(t, float),
        label="quadratic_signal")
    rng = np.random.Generator(np.random.Philox(42))
    theta = rng.uniform(0.1, 1.0, 100_000)
    alpha = rng.choice([1.0, 2.0], size=theta.size)
    out = reduce_2d(alpha, theta, econ)
    dist = out["xi_distribution"]
    xs = np.linspace(dist.lower, dist.upper, 401)
    analytic = 0.5 * np.clip((xs - 0.1) / 0.9, 0.0, 1.0) \
        + 0.5 * np.clip((xs - 0.2) / 1.8, 0.0, 1.0)
    sup = float(np.max(np.abs(np.asarray(dist.cdf(xs), float) - analytic)))
    assert sup <= 1e-2, sup


def test_analytic_reduced_economy_unit_cost():
    econ = benchmark(v=2.0, mu0=0.0, K=1.0, R=1.0)
    red = analytic_reduced_economy(econ, uniform(0.0, 1.0), v_scale=3.0)
    assert float(red.cost(0.7)) == 1.0
    assert float(red.signal_mean(0.7)) == 0.7
    assert float(red.surplus(0.5)) == 1.5
