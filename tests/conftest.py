"""Shared fixtures for the test suite."""

import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from liqscreen.bilateral import Contract
from liqscreen.economy import benchmark
from liqscreen.portfolio import make_portfolio


@pytest.fixture
def bench_mu0():
    """Benchmark economy with an uninformative intercept of zero."""
    return benchmark(v=2.0, mu0=0.0, K=1.0, R=1.0)


@pytest.fixture
def bench_informative():
    """Benchmark economy with a positive signal intercept."""
    return benchmark(v=2.0, mu0=0.1, K=1.0, R=1.0)


@pytest.fixture
def curved_signal_pair():
    """mu = 0.1 + theta + theta^2/2 on the benchmark: without and with mu'."""
    base = benchmark(v=2.0, mu0=0.1, K=1.0, R=1.0)

    def mu(t):
        t = np.asarray(t, float)
        return 0.1 + t + 0.5 * t * t

    return (replace(base, signal_mean=mu, signal_mean_prime=None),
            replace(base, signal_mean=mu,
                    signal_mean_prime=lambda t: 1.0 + np.asarray(t, float)))


@contextmanager
def runtime_budget(seconds):
    """Fail the enclosing test when the block exceeds its time budget."""
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"runtime {elapsed:.2f}s exceeds {seconds:.0f}s budget"


def two_copy_book(a, b1, delta):
    """Two copies of Contract(a, b1) on the uniform benchmark, coupled at delta.

    The tightness R = 2a / (1 - a)**2 puts Phi(K - a) = a, the premise
    of portfolio.symmetric_cutoff; mu(lower) = 0, so the contract sits
    on the participation manifold for every b1.
    """
    econ = benchmark(v=2.0, mu0=0.0, K=1.0, R=2.0 * a / (1.0 - a) ** 2)
    return make_portfolio([econ, econ], delta, contracts=(Contract(a, b1),) * 2)
