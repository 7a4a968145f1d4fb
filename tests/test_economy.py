"""Type distributions, financing costs, and economy construction."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from liqscreen.economy import (
    FinancingCost,
    TypeDistribution,
    benchmark,
    bimodal,
    cost_slope,
    economy_from_config,
    financing_cost,
    hazard,
    load_config,
    marginal_ell,
    marginal_r,
    power,
    regularity_ok,
    signal_slope,
    truncated_exponential,
    uniform,
    validate_economy,
    virtual_type,
    with_tightness,
)
from liqscreen.errors import DomainError


def test_uniform_distribution_shapes():
    d = uniform(0.0, 2.0)
    assert float(d.cdf(1.0)) == 0.5
    assert float(d.pdf(1.7)) == 0.5
    assert float(d.cdf(-1.0)) == 0.0
    assert float(d.cdf(3.0)) == 1.0


def test_uniform_hazard_and_virtual_type():
    d = uniform()
    # (1 - theta) / 1 on the unit uniform
    assert abs(hazard(d, 0.3) - 0.7) < 1e-12
    assert hazard(d, 1.0) == 0.0
    assert abs(virtual_type(d, 0.3) - (2 * 0.3 - 1.0)) < 1e-12
    with pytest.raises(DomainError):
        hazard(d, 1.5)


def test_truncated_exponential_normalized():
    d = truncated_exponential(2.0)
    assert abs(float(d.cdf(1.0)) - 1.0) < 1e-12
    assert abs(float(d.cdf(0.0))) < 1e-12
    with pytest.raises(DomainError):
        truncated_exponential(0.0)


def test_truncated_exponential_rejects_a_rate_whose_normaliser_rounds_to_0():
    # below about 1.1e-16, 1 - exp(-rate) rounds to 0 and cdf and pdf
    # came out nan
    with pytest.raises(DomainError, match="too small"):
        truncated_exponential(1e-20)


def test_truncated_exponential_rejects_a_rate_that_loses_accuracy():
    # 1 - exp(-rate * (hi - lo)) cancels: at rate * (hi - lo) = 1e-9,
    # cdf(0.5) is off by 1.1e-7 relative
    for rate, lo, hi in ((1e-9, 0.0, 1.0), (1e-6, 0.0, 1e-3)):
        with pytest.raises(DomainError, match="too small"):
            truncated_exponential(rate, lo, hi)
    # at 1e-7 the kept formula is within 1e-8 relative of the expm1 form
    rate = 1e-7
    d = truncated_exponential(rate)
    ts = np.linspace(0.0, 1.0, 11)[1:]
    cdf = np.expm1(-rate * ts) / math.expm1(-rate)
    pdf = rate * np.exp(-rate * ts) / -math.expm1(-rate)
    assert np.max(np.abs(d.cdf(ts) / cdf - 1.0)) <= 1e-8
    assert np.max(np.abs(d.pdf(ts) / pdf - 1.0)) <= 1e-8


def test_power_distribution_shape():
    d = power(2.0)
    assert abs(float(d.cdf(0.5)) - 0.25) < 1e-12
    assert abs(float(d.pdf(0.5)) - 1.0) < 1e-12


def test_regularity_split():
    assert regularity_ok(uniform())
    assert not regularity_ok(bimodal())


def _regularity_per_point(dist, n=400):
    """Reference: the virtual type priced one scalar type at a time."""
    ts = np.linspace(dist.lower, dist.upper, n)
    vals = np.array([float(t) - (0.0 if t >= dist.upper else float(
        (1.0 - dist.cdf(float(t))) / dist.pdf(float(t)))) for t in ts])
    return bool(np.all(np.diff(vals) > 0.0))


@pytest.mark.parametrize("dist", [uniform(), uniform(-1.0, 3.0),
                                  truncated_exponential(2.0),
                                  truncated_exponential(9.0), bimodal(),
                                  bimodal(sd=0.01)],
                         ids=["uniform", "uniform(-1, 3)", "texp(2)", "texp(9)",
                              "bimodal()", "bimodal(sd=0.01)"])
def test_regularity_equals_a_per_point_reference(dist):
    assert regularity_ok(dist) is _regularity_per_point(dist)


def test_regularity_raises_where_the_density_vanishes():
    # power(2.5) has f(lower) = 0, below the top type
    with pytest.raises(DomainError, match="density vanishes"):
        regularity_ok(power(2.5))


def test_hazard_is_elementwise_and_keeps_its_checks():
    d = truncated_exponential(2.0)
    ts = np.linspace(0.0, 1.0, 9)
    got = hazard(d, ts)
    assert got.shape == ts.shape and got[-1] == 0.0
    assert np.array_equal(got, [hazard(d, float(t)) for t in ts])
    assert np.array_equal(virtual_type(d, ts), ts - got)
    assert type(hazard(d, 0.5)) is float
    with pytest.raises(DomainError, match="outside support"):
        hazard(d, np.array([0.5, 1.5]))
    with pytest.raises(DomainError, match="density vanishes"):
        hazard(power(2.0), np.array([0.0, 0.5]))
    # the top type's wedge is 0 even where the density vanishes there
    falling = TypeDistribution(0.0, 1.0, cdf=lambda t: 1.0 - (1.0 - np.asarray(t, float)) ** 2,
                               pdf=lambda t: 2.0 * (1.0 - np.asarray(t, float)))
    assert hazard(falling, 1.0) == 0.0
    assert hazard(falling, np.array([0.5, 1.0])).tolist() == [0.25, 0.0]


# power(1) is uniform; above 1 the density vanishes at the lower end, which
# the certificate's grid leaves out. Below 1 log f is convex: bilateral_sweep's
# power class draws exponents 0.5-0.95
CERTIFIED = {
    "uniform": (uniform(), True),
    "uniform(-1, 3)": (uniform(-1.0, 3.0), True),
    **{f"truncated_exponential({rate})": (truncated_exponential(rate), True)
       for rate in (0.2, 1.0, 3.0, 9.0)},
    **{f"power({exponent})": (power(exponent), exponent >= 1.0)
       for exponent in (0.7, 0.95, 1.0, 1.5, 2.0, 4.0)},
    "bimodal()": (bimodal(), False),
    "bimodal(sd=0.01)": (bimodal(sd=0.01), False),
}


@pytest.mark.parametrize("name", list(CERTIFIED))
def test_log_concave_certifies_the_single_peaked_families(name):
    dist, certified = CERTIFIED[name]
    assert dist.log_concave is certified
    # computed once per distribution, then read from the instance
    assert "log_concave" in vars(dist)


def test_quadratic_financing_cost_and_derivatives():
    fin = FinancingCost(tightness=2.0)
    assert abs(financing_cost(fin, 0.5) - 0.25) < 1e-12
    assert abs(marginal_ell(fin, 0.5) - 1.0) < 1e-12
    assert abs(marginal_r(fin, 0.5) - 0.125) < 1e-12
    with pytest.raises(DomainError):
        financing_cost(fin, -0.5)


@pytest.mark.parametrize("rule", [financing_cost, marginal_ell, marginal_r])
def test_every_financing_rule_checks_and_clamps_the_gap(rule):
    fin = FinancingCost(tightness=2.0)
    with pytest.raises(DomainError, match="liquidity gap must be nonnegative"):
        rule(fin, -1e-9)
    # a gap within 1e-12 below zero is rounding: it is priced at 0
    assert rule(fin, -1e-13) == rule(fin, 0.0) == 0.0


def test_tabulated_financing_interpolates():
    fin = FinancingCost(tightness=0.0, kind="tabulated",
                        nodes=((0.0, 1.0), (0.0, 3.0)))
    assert abs(financing_cost(fin, 0.5) - 1.5) < 1e-12


def test_tabulated_marginal_cost_is_the_exact_segment_slope():
    fin = FinancingCost(tightness=0.0, kind="tabulated",
                        nodes=((0.0, 0.5, 1.0), (0.0, 0.0375, 0.15)))
    # right derivative at a node; flat beyond the last node, as np.interp
    for ell, slope in ((0.0, 0.075), (0.3, 0.075), (0.5, 0.225),
                       (0.7, 0.225), (1.0, 0.0), (1.4, 0.0)):
        assert abs(marginal_ell(fin, ell) - slope) < 1e-15, ell


def test_benchmark_primitives():
    econ = benchmark(v=2.0, mu0=0.1, K=1.0, R=1.0)
    assert float(econ.surplus(0.5)) == 1.0
    assert float(econ.cost(0.5)) == 0.5
    assert abs(float(econ.signal_mean(0.5)) - 0.6) < 1e-12
    assert abs(float(econ.signal_mean_prime(0.5)) - 1.0) < 1e-12
    assert validate_economy(econ) == []


def test_benchmark_flat_requires_zero_intercept():
    flat = benchmark(v=2.0, mu0=0.0, K=1.0, R=1.0, signal_kind="flat")
    assert float(flat.signal_mean(0.7)) == 0.0
    with pytest.raises(DomainError):
        benchmark(mu0=0.3, signal_kind="flat")


def test_with_tightness_replaces_only_financing():
    econ = benchmark(R=1.0)
    moved = with_tightness(econ, 3.0)
    assert moved.financing.tightness == 3.0
    assert moved.dist is econ.dist
    assert econ.financing.tightness == 1.0


def test_working_capital_must_be_positive():
    with pytest.raises(DomainError):
        benchmark(K=0.0)


@pytest.mark.parametrize("K", [math.nan, math.inf])
def test_working_capital_must_be_finite(K):
    # a nan K used to reach the participation root and fail in Bracket
    with pytest.raises(DomainError, match="working capital"):
        benchmark(K=K)


@pytest.mark.parametrize("R", [math.nan, math.inf])
def test_tightness_must_be_finite(R):
    # a nan R used to solve to a nan value
    with pytest.raises(DomainError, match="tightness"):
        benchmark(R=R)


@pytest.mark.parametrize("nodes", [((0.0, math.nan), (0.0, 1.0)),
                                   ((0.0, 1.0), (0.0, math.inf))],
                         ids=["ell", "phi"])
def test_tabulated_nodes_must_be_finite(nodes):
    with pytest.raises(DomainError, match="finite"):
        FinancingCost(tightness=0.0, kind="tabulated", nodes=nodes)


@pytest.mark.parametrize("build", [
    lambda x: benchmark(v=x), lambda x: benchmark(mu0=x),
    lambda x: benchmark(signal_scale=x), lambda x: truncated_exponential(x),
    lambda x: power(x)], ids=["v", "mu0", "signal_scale", "rate", "exponent"])
@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_builders_reject_non_finite_parameters(build, x):
    # a nan passed every range test: benchmark(v=nan) solved to -0.268
    # and truncated_exponential(nan) to nan
    with pytest.raises(DomainError, match="finite"):
        build(x)


@pytest.mark.parametrize("build", [
    uniform, lambda lo, hi: truncated_exponential(2.0, lo, hi),
    lambda lo, hi: power(2.0, lo, hi),
    lambda lo, hi: bimodal(lo=lo, hi=hi)],
    ids=["uniform", "truncated_exponential", "power", "bimodal"])
@pytest.mark.parametrize("lo, hi", [(0.0, math.inf), (-math.inf, 1.0),
                                    (-math.inf, math.inf)],
                         ids=["upper", "lower", "both"])
def test_distributions_reject_non_finite_supports(build, lo, hi):
    with pytest.raises(DomainError, match="finite"):
        build(lo, hi)


@pytest.mark.parametrize("kind, params", [
    ("uniform", {}), ("truncated_exponential", {"rate": 2.0}),
    ("power", {"exponent": 2.0})], ids=["uniform", "truncated_exponential",
                                        "power"])
@pytest.mark.parametrize("end", ['"hi": Infinity', '"lo": -Infinity'],
                         ids=["hi", "lo"])
def test_config_rejects_an_infinite_support_at_load(tmp_path, kind, params,
                                                    end):
    # json reads Infinity; such a support used to load and exhaust a root
    # budget in verify after hundreds of RuntimeWarnings
    extra = ", ".join([json.dumps(params)[1:-1], end]).lstrip(", ")
    path = tmp_path / "econ.json"
    path.write_text(f'{{"dist": {{"kind": "{kind}", "params": {{{extra}}}}}}}')
    with pytest.raises(DomainError, match="finite"):
        economy_from_config(load_config(str(path)))


def test_config_round_trip(tmp_path):
    cfg = {"dist": {"kind": "uniform", "params": {"lo": 0.0, "hi": 1.0}},
           "v": 3.0, "mu0": 0.1, "K": 1.0, "R": 2.0,
           "signal": {"kind": "affine", "scale": 1.0}}
    econ = economy_from_config(cfg)
    assert econ.financing.tightness == 2.0
    assert float(econ.surplus(1.0)) == 3.0
    path = tmp_path / "econ.json"
    path.write_text(json.dumps(cfg))
    assert load_config(str(path)) == cfg


def test_config_rejects_unknown_fields():
    with pytest.raises(DomainError):
        economy_from_config({"v": 2.0, "nonsense": 1})
    with pytest.raises(DomainError):
        economy_from_config({"dist": {"kind": "cauchy"}})


def test_config_tabulated_financing():
    econ = economy_from_config(
        {"phi": {"kind": "tabulated",
                 "params": {"ell": [0.0, 1.0], "phi": [0.0, 2.0]}}})
    assert abs(financing_cost(econ.financing, 0.25) - 0.5) < 1e-12


def _tabulated_config(ell, phi, K=1.0):
    return {"K": K, "phi": {"kind": "tabulated", "params": {"ell": ell, "phi": phi}}}


TABULATED_OFF_RULES = pytest.mark.parametrize("ell, phi, message", [
    ([0.1, 1.0], [0.0, 2.0], "start at ell = 0 with phi = 0"),
    ([0.0, 1.0], [0.5, 2.0], "start at ell = 0 with phi = 0"),
    ([0.1, 0.5], [1.0, 2.0], "start at ell = 0 with phi = 0"),
    ([], [], "start at ell = 0 with phi = 0"),
    ([0.0, 0.5, 1.0], [0.0, 1.0, 0.8], "nondecreasing"),
    ([0.0, 0.5, 1.0], [0.0, 1.0, 1.2], "convex"),
    ([0.0, 0.5, 0.9], [0.0, 0.1, 0.4], "reach K"),
], ids=["first_ell", "first_phi", "off_zero", "empty", "falling", "concave", "short"])


@TABULATED_OFF_RULES
def test_config_rejects_tabulated_phi_off_its_rules(ell, phi, message):
    with pytest.raises(DomainError, match=message):
        economy_from_config(_tabulated_config(ell, phi))


@TABULATED_OFF_RULES
def test_api_rejects_tabulated_phi_off_its_rules(ell, phi, message):
    # the rules hold where the cost and the economy are built, not only at load
    with pytest.raises(DomainError, match=message):
        fin = FinancingCost(tightness=0.0, kind="tabulated", nodes=(tuple(ell), tuple(phi)))
        replace(benchmark(K=1.0), financing=fin)


def test_config_tabulated_phi_rules_admit_their_edges():
    # flat segments, slopes equal within rounding, and a last node at K
    ell = np.linspace(0.0, 1.5, 7).tolist()
    for phi in ([0.0, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5],
                (0.5 * 1.7 * np.asarray(ell) ** 2).tolist(),
                (0.1 * np.asarray(ell)).tolist()):
        econ = economy_from_config(_tabulated_config(ell, phi, K=1.5))
        assert econ.financing.nodes == (tuple(ell), tuple(phi))


def test_config_rejects_negative_affine_signal_scale():
    with pytest.raises(DomainError, match="signal scale"):
        economy_from_config({"signal": {"kind": "affine", "scale": -1.0},
                             "mu0": 2.0})
    # a zero scale is an uninformative but legal signal
    econ = economy_from_config({"signal": {"kind": "affine", "scale": 0.0}})
    assert float(econ.signal_mean(0.7)) == 0.0


def _clamped_difference(f, x, lo, hi, h=1e-6):
    """Reference slope: one scalar central difference, clamped to [lo, hi]."""
    a, b = max(x - h, lo), min(x + h, hi)
    return (float(f(b)) - float(f(a))) / (b - a)


def test_slopes_equal_per_point_clamped_differences():
    # curved signal and cost without closures, on a support off [0, 1]
    econ = replace(benchmark(dist=uniform(0.2, 1.5)),
                   signal_mean=lambda t: 0.1 + np.asarray(t, float)
                   + 0.5 * np.asarray(t, float) ** 2,
                   cost=lambda t: np.exp(0.3 * np.asarray(t, float)),
                   signal_mean_prime=None, cost_prime=None)
    lo, hi = econ.dist.lower, econ.dist.upper
    ts = np.concatenate((np.linspace(lo, hi, 257), [lo + 3e-7, hi - 3e-7]))
    for slope, f in ((signal_slope, econ.signal_mean), (cost_slope, econ.cost)):
        ref = np.array([_clamped_difference(f, float(t), lo, hi) for t in ts])
        got = slope(econ, ts)
        assert isinstance(got, np.ndarray) and got.shape == ts.shape
        assert np.array_equal(got, ref)
        assert np.array_equal(slope(econ, ts.reshape(-1, 1)), ref.reshape(-1, 1))
        for t in (lo, 0.77, hi):  # both support ends take one-sided steps
            out = slope(econ, t)
            assert type(out) is float
            assert out == _clamped_difference(f, t, lo, hi)


def test_slopes_use_supplied_closures():
    econ = benchmark(mu0=0.1, signal_scale=0.5)
    assert signal_slope(econ, 0.3) == 0.5 and cost_slope(econ, 0.3) == 1.0
    ts = np.linspace(0.0, 1.0, 5)
    np.testing.assert_array_equal(signal_slope(econ, ts), np.full(5, 0.5))
    np.testing.assert_array_equal(cost_slope(econ, ts), np.ones(5))


@pytest.mark.parametrize("kwargs", [
    {"sd": 0.0}, {"sd": -0.05}, {"sd": math.nan}, {"sd": math.inf},
    {"modes": (math.nan, 0.75)}, {"modes": (0.25, math.inf)}],
    ids=["sd0", "sd_negative", "sd_nan", "sd_inf", "mode_nan", "mode_inf"])
def test_bimodal_rejects_a_degenerate_or_non_finite_mixture(kwargs):
    # sd = 0 used to build a density that reads nan everywhere
    with pytest.raises(DomainError, match="bimodal"):
        bimodal(**kwargs)
