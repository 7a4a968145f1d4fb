"""Learning, monitoring, renegotiation, menus, auctions, 2D reduction."""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from liqscreen import extensions
from liqscreen.bilateral import binding_ir_advance, solve_optimal
from liqscreen.economy import (EconomyPrimitives, benchmark, financing_cost, power,
                               truncated_exponential, uniform, with_tightness)
from liqscreen.errors import (BracketError, DegeneracyError, DomainError,
                              SingularityError)
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


@pytest.mark.parametrize("grid, weights, match", [
    ([0.0, 0.5, 1.0], [0.5, math.nan, 0.5], "probability vector"),
    ([0.0, 0.5, 1.0], [0.5, math.inf, 0.5], "probability vector"),
    ([0.0, math.nan, 1.0], [0.25, 0.5, 0.25], "grid must be finite"),
    ([0.0, 0.5, math.inf], [0.25, 0.5, 0.25], "grid must be finite"),
], ids=["nan", "inf", "grid_nan", "grid_inf"])
def test_posterior_rejects_a_non_finite_weight(grid, weights, match):
    # a nan weight made the sum nan, which passed the tolerance test, and
    # a nan grid point passed both the ascending and the spacing test
    with pytest.raises(DomainError, match=match):
        PosteriorState(np.array(grid), np.array(weights))


def test_list_built_posterior_keeps_float_arrays():
    # lists used to be stored as given: hazard_shrink_check raised
    # AttributeError and dynamic_path TypeError on such a prior
    prior = PosteriorState([0.0, 0.25, 0.5, 0.75, 1.0], [0.2] * 5)
    assert prior.grid.dtype == prior.weights.dtype == np.float64
    assert hazard_shrink_check(prior, bayes_update(prior, 0))
    recs = dynamic_path(_bench_half(), 0.3, 3, seed=1, prior=prior)
    assert len(recs) == 4 and recs[0].posterior is prior
    # a float64 array is kept as given, not copied
    grid = np.linspace(0.0, 1.0, 5)
    assert PosteriorState(grid, np.full(5, 0.2)).grid is grid


@pytest.mark.parametrize("kwargs", [{"kappa0": math.nan}, {"kappa0": math.inf},
                                    {"kappa0": 0.05, "sigma_max": math.nan}],
                         ids=["kappa0_nan", "kappa0_inf", "sigma_max_nan"])
def test_monitoring_config_rejects_non_finite_terms(kwargs):
    with pytest.raises(DomainError, match="monitoring cost scale"):
        MonitoringConfig(**kwargs)


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


def test_monitoring_solves_no_gap_at_zero_intensity(monkeypatch):
    # the bracket opens at 1e-6, where the corner is tested, and find_root
    # takes both end gaps as held: no mixed-program solve at sigma = 0 and
    # none twice
    sigmas = []
    gap = extensions._monitoring_gap

    def recorded(econ, cfg, sigma):
        sigmas.append(sigma)
        return gap(econ, cfg, sigma)

    monkeypatch.setattr(extensions, "_monitoring_gap", recorded)
    out = solve_monitoring(benchmark(v=2.0, mu0=0.1, K=1.0, R=1.0),
                           MonitoringConfig(kappa0=0.05))
    assert not out["corner"]
    assert min(sigmas) == 1e-6
    assert len(sigmas) == len(set(sigmas))
    with pytest.raises(DomainError):
        MonitoringConfig(kappa0=0.05, sigma_max=1e-6)


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


def test_renegotiation_pays_the_surviving_slope():
    # mu(lower) = 0.3 > 0 and the anchored advance 0.3 falls short of the
    # lowest type's participation, so the slope grosses up for the survival
    # share: b1 = (Phi(0.7) - 0.3) / 0.3 / (1 - lam) = 29/14
    econ, lam = benchmark(v=2.0, mu0=0.3, R=3.0), 0.3
    sol = solve_renegotiation(econ, lam)
    a, b1 = sol.contract.advance, sol.contract.slope
    assert sol.boundary_flag == "interior"
    assert abs(b1 - 29.0 / 14.0) < 1e-9
    lo = econ.dist.lower
    participation = (a + (1.0 - lam) * b1 * float(econ.signal_mean(lo))
                     - float(econ.cost(lo))
                     - financing_cost(econ.financing, econ.working_capital - a))
    assert abs(participation) < 1e-9
    d = sol.decomposition
    assert sol.value == (d["productive_surplus"] - d["aggregate_financing_cost"]
                         - d["aggregate_information_rent"] - d["advance_outlay"])


# --- menus -------------------------------------------------------------------


def test_menu_cannot_beat_single_contract():
    econ = benchmark(v=2.0, mu0=0.1, K=1.0, R=1.0)
    out = menu_equivalence_check(econ)
    assert out["ic_ok"]
    assert abs(out["gap"]) < 1e-3
    assert out["menu_value"] >= out["baseline_value"] - 1e-12


# menu value, baseline value, gap, baseline instrument (float.hex) and a
# digest of the mechanism's types, allocation, advances, slopes and rents
MENU_PINS = {
    "uniform": (
        benchmark(v=3.0, mu0=0.3, R=1.0),
        "0x1.4bdb5a0113f0fp-1", "0x1.4699f295147ddp-1", "0x1.5059daffdcc80p-7",
        ("0x1.a462ec93997c6p-4", "0x1.0000000000000p+0"), "269263d448483988"),
    "truncated_exponential": (
        benchmark(v=2.5, mu0=0.2, K=1.1, R=0.7, signal_scale=0.7,
                  dist=truncated_exponential(1.5)),
        "0x1.1e35b39f43d97p-2", "0x1.1e35b39f43d97p-2", "0x0.0p+0",
        ("0x1.43eb2862c551ap-4", "0x1.6db6db6db6db7p+0"), "34786e941a055e6e"),
    "power": (
        benchmark(v=2.2, mu0=0.05, K=0.9, R=2.0, signal_scale=1.3,
                  dist=power(0.7)),
        "0x1.da29e32f89977p-3", "0x1.da29e32f89977p-3", "0x0.0p+0",
        ("0x1.3d452b2106c4ap-2", "0x1.89d89d89d89d8p-1"), "2ded078c048da8d7"),
}


@pytest.mark.parametrize("name", sorted(MENU_PINS))
def test_menu_check_outputs_are_pinned(name):
    econ, menu, baseline, gap, instrument, digest = MENU_PINS[name]
    out = menu_equivalence_check(econ)
    assert float(out["menu_value"]).hex() == menu
    assert float(out["baseline_value"]).hex() == baseline
    assert float(out["gap"]).hex() == gap
    assert tuple(float(x).hex() for x in out["baseline_instrument"]) == instrument
    assert out["ic_ok"]
    m = out["mechanism"]
    flat = np.concatenate([m.types, m.allocation, m.advances, m.slopes, m.rents])
    assert hashlib.sha256(flat.astype("<f8").tobytes()).hexdigest()[:16] == digest


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
    for eps in (0.0, 1.0, 2.0, math.nan):
        # an offset at or past the span left no types to integrate over
        with pytest.raises(DomainError, match="eps"):
            solve_bid_function(econ, 2, eps=eps)


def test_bid_function_arrays_own_their_data():
    # a view into the 2 * steps + 1 half-step arrays would keep them alive
    bf = solve_bid_function(benchmark(v=2.0, mu0=0.0, K=1.0, R=1.0), 2)
    for arr in (bf.grid, bf.bids, bf.full_info):
        assert arr.base is None and arr.flags.owndata
        assert arr.shape == (2001,)


def test_bid_function_divergence_reports_the_failing_type():
    base = benchmark(v=2.0, mu0=0.0, K=1.0, R=1.0)
    # a huge density makes the hazard factor blow the first RK4 step up
    econ = replace(base, dist=replace(
        base.dist, pdf=lambda t: np.full_like(np.asarray(t, float), 1e155)))
    with pytest.raises(SingularityError, match="step 1") as info:
        solve_bid_function(econ, 2)
    # eps = 1e-3 and 2000 steps down from 0.999: step 1 ends at 0.999 + h
    assert info.value.t == np.linspace(0.999, 0.0, 4001)[2]


# --- two-dimensional reduction ------------------------------------------------


def test_reduce_2d_rejects_and_degenerates():
    econ = benchmark(v=2.0, mu0=0.0, K=1.0, R=1.0)
    theta = np.array([0.0, 0.5, 0.5, 0.5])  # cost c = theta is 0 at 0
    out = reduce_2d(np.ones(4), theta, econ, bins=4)
    assert out["rejected"] == 1
    assert out["degenerate"]
    with pytest.raises(DomainError):
        reduce_2d(np.ones(3), np.zeros(4), econ)
    # theta = 0 has zero cost on the benchmark, so every sample is rejected
    for n in (0, 1, 4):
        with pytest.raises(DomainError, match="no sample has positive cost"):
            reduce_2d(np.ones(n), np.zeros(n), econ)


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
