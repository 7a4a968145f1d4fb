"""Type distributions, financing costs, and economy construction."""

import json
import math

import numpy as np
import pytest

from liqscreen.economy import (
    FinancingCost,
    benchmark,
    bimodal,
    economy_from_config,
    financing_cost,
    hazard,
    load_config,
    marginal_ell,
    marginal_r,
    power,
    regularity_ok,
    second_ell,
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
