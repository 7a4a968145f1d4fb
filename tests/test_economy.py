"""Type distributions, financing costs, and economy construction."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from liqscreen.economy import (
    FinancingCost,
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
    second_ell,
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


def test_power_distribution_shape():
    d = power(2.0)
    assert abs(float(d.cdf(0.5)) - 0.25) < 1e-12
    assert abs(float(d.pdf(0.5)) - 1.0) < 1e-12


def test_regularity_split():
    assert regularity_ok(uniform())
    assert not regularity_ok(bimodal())


def test_quadratic_financing_cost_and_derivatives():
    fin = FinancingCost(tightness=2.0)
    assert abs(financing_cost(fin, 0.5) - 0.25) < 1e-12
    assert abs(marginal_ell(fin, 0.5) - 1.0) < 1e-12
    assert abs(marginal_r(fin, 0.5) - 0.125) < 1e-12
    assert abs(second_ell(fin, 0.5) - 2.0) < 1e-12
    with pytest.raises(DomainError):
        financing_cost(fin, -0.5)


def test_tabulated_financing_interpolates():
    fin = FinancingCost(tightness=0.0, kind="tabulated",
                        nodes=((0.0, 1.0), (0.0, 3.0)))
    assert abs(financing_cost(fin, 0.5) - 1.5) < 1e-12


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
