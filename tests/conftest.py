"""Shared fixtures for the test suite."""

import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from liqscreen.economy import benchmark


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
