"""Root finding, optimization, tie-breaking, quadrature, fixed points."""

import math

import numpy as np
import pytest

from liqscreen.errors import BracketError, ConvergenceError
from liqscreen.numerics import (
    Bracket,
    Tolerance,
    _golden_max,
    best_candidate,
    find_root,
    find_roots,
    fixed_point,
    golden_max_rows,
    integrate,
    integrate_rows,
    maximize_rows,
    maximize_scalar,
)


def test_find_root_cosine():
    x = find_root(math.cos, Bracket(1.0, 2.0))
    assert abs(x - math.pi / 2) < 1e-9


def test_find_root_endpoint_zero_returned_exactly():
    assert find_root(lambda x: x - 1.0, Bracket(1.0, 2.0)) == 1.0


def test_find_root_requires_sign_change():
    with pytest.raises(BracketError):
        find_root(lambda x: x * x + 1.0, Bracket(-1.0, 1.0))


def test_find_root_budget_exhaustion_carries_last_iterate():
    with pytest.raises(ConvergenceError) as err:
        find_root(math.cos, Bracket(1.0, 2.0),
                  Tolerance(abs_x=1e-300, abs_f=1e-300, max_iter=5))
    assert abs(err.value.last - math.pi / 2) < 0.5


def test_find_root_handles_discontinuous_sign_change():
    # step function: the root bracket collapses onto the jump
    f = lambda x: -1.0 if x < 0.3 else 1.0
    x = find_root(f, Bracket(0.0, 1.0), Tolerance(abs_x=1e-12, abs_f=1e-30,
                                                  max_iter=300))
    assert abs(x - 0.3) < 1e-9


def test_bracket_validation():
    with pytest.raises(ValueError):
        Bracket(2.0, 1.0)


def test_tolerance_validation():
    with pytest.raises(ValueError):
        Tolerance(abs_x=-1.0)


def test_maximize_scalar_quadratic():
    x, v = maximize_scalar(lambda x: -(x - 0.3) ** 2 + 2.0, 0.0, 1.0)
    assert abs(x - 0.3) < 1e-7
    assert abs(v - 2.0) < 1e-12


def test_maximize_scalar_corner():
    x, _ = maximize_scalar(lambda x: x, 0.0, 1.0)
    assert abs(x - 1.0) < 1e-7


@pytest.mark.parametrize("rel_tol", [1e-13, 1e-12])
def test_best_candidate_tie_goes_to_smaller_x(rel_tol):
    near = 1.0 + 0.5 * rel_tol
    assert best_candidate([(0.7, 1.0), (0.2, near)], rel_tol) == (0.2, near)
    assert best_candidate([(0.2, near), (0.7, 1.0)], rel_tol) == (0.2, near)


@pytest.mark.parametrize("rel_tol", [1e-13, 1e-12])
def test_best_candidate_strict_improvement_wins(rel_tol):
    better = 1.0 + 3.0 * rel_tol
    assert best_candidate([(0.2, 1.0), (0.7, better)], rel_tol) == (0.7, better)
    assert best_candidate([(0.7, better), (0.2, 1.0)], rel_tol) == (0.7, better)


def test_integrate_polynomial():
    got = integrate(lambda x: 3.0 * x ** 2, 0.0, 2.0, panels=256)
    assert abs(got - 8.0) < 1e-8


@pytest.mark.parametrize("panels", [128, 512])
def test_integrate_matches_sequential_simpson_loop(panels):
    f = lambda x: np.exp(np.sin(3.0 * x))
    xs = np.linspace(0.0, 2.0, panels + 1)
    ys = [float(y) for y in f(xs)]
    odd = even = 0.0
    for i in range(1, panels, 2):
        odd += ys[i]
    for i in range(2, panels - 1, 2):
        even += ys[i]
    ref = (ys[0] + ys[-1] + 4.0 * odd + 2.0 * even) * (2.0 / panels / 3.0)
    # numpy sums pairwise, the loop sequentially: only the rounding differs
    assert abs(integrate(f, 0.0, 2.0, panels) - ref) <= 8 * panels * 2.2e-16 * abs(ref)


def test_integrate_zero_width():
    assert integrate(lambda x: x, 1.0, 1.0) == 0.0


def test_integrate_rejects_an_integrand_of_the_wrong_shape():
    with pytest.raises(ValueError, match=r"shape \(\).*shape \(129,\)"):
        integrate(lambda x: 1.0, 0.0, 1.0, 128)
    with pytest.raises(ValueError, match=r"shape \(128,\).*shape \(129,\)"):
        integrate(lambda x: x[1:], 0.0, 1.0, 128)


def test_integrate_lets_a_scalar_only_integrand_fail():
    with pytest.raises(TypeError):
        integrate(math.exp, 0.0, 1.0, 128)


def test_fixed_point_contraction():
    x, resid, _ = fixed_point(lambda x: 0.5 * x + 1.0, np.array([0.0]),
                              Tolerance(abs_x=1e-12, abs_f=1e-12, max_iter=500))
    assert x.shape == (1,)
    assert abs(x[0] - 2.0) < 1e-10
    assert abs(resid) < 1e-10
    with pytest.raises(ValueError, match="1-d"):
        fixed_point(lambda x: 0.5 * x + 1.0, 0.0)


def test_fixed_point_budget():
    # expansive map: damping cannot rescue it, the budget runs out
    with pytest.raises(ConvergenceError):
        fixed_point(lambda x: 2.0 * x + 1.0, np.array([0.3]),
                    Tolerance(abs_x=1e-12, abs_f=1e-12, max_iter=50))


# ---------------------------------------------------------------------------
# batched routines: each element must take the scalar routine's own steps


def _monotone_family(rng, n):
    """Random increasing f_i(x) = s_i*y + q_i*y**5 (y = x - r_i) on brackets.

    Rows with s_i = 0 are flat at the root, which makes the secant crawl
    and the forced bisection step in. Only exactly rounded arithmetic is
    used, so the scalar and array forms agree bit for bit.
    """
    lo = rng.uniform(-2.0, 1.0, n)
    hi = lo + rng.uniform(1e-3, 3.0, n)
    r = lo + rng.uniform(0.0, 1.0, n) * (hi - lo)
    r[:3] = lo[:3]  # exact zero at the lower end
    r[3:6] = hi[3:6]  # exact zero at the upper end
    s = np.where(rng.uniform(size=n) < 0.3, 0.0, rng.uniform(0.1, 5.0, n))
    q = rng.uniform(0.5, 50.0, n)

    def f(x, i=slice(None)):
        y = x - r[i]
        return s[i] * y + q[i] * (y * y * y * y * y)

    return lo, hi, f


def test_find_roots_bit_identical_to_find_root():
    rng = np.random.Generator(np.random.Philox(7))
    lo, hi, f = _monotone_family(rng, 200)
    got = find_roots(f, lo, hi)
    for i in range(lo.size):
        ref = find_root(lambda x, i=i: float(f(x, i)), Bracket(lo[i], hi[i]))
        assert got[i] == ref, (i, got[i], ref)


def test_find_roots_on_step_functions():
    # |f| never falls to abs_f, so every row ends on the bracket width
    jumps = np.array([0.3, 0.55, 0.71])
    tol = Tolerance(abs_x=1e-12, abs_f=1e-30, max_iter=300)
    got = find_roots(lambda x: np.where(x < jumps, -1.0, 1.0),
                     np.zeros(3), np.ones(3), tol)
    for i, jump in enumerate(jumps):
        ref = find_root(lambda x, j=jump: -1.0 if x < j else 1.0,
                        Bracket(0.0, 1.0), tol)
        assert got[i] == ref


def test_find_roots_errors_match_find_root():
    with pytest.raises(BracketError):
        find_roots(lambda x: x * x + 1.0, np.array([-1.0, 0.0]),
                   np.array([1.0, 2.0]))
    with pytest.raises(ConvergenceError):
        find_roots(np.cos, np.array([1.0]), np.array([2.0]),
                   Tolerance(abs_x=1e-300, abs_f=1e-300, max_iter=5))


def _peaked_family(rng, n):
    """Random unimodal f_i(x) = c_i - w_i*(x - p_i)**2 on random intervals."""
    a = rng.uniform(-1.0, 1.0, n)
    b = a + rng.uniform(1e-9, 2.0, n)
    p = a + rng.uniform(-0.2, 1.2, n) * (b - a)  # peaks inside and outside
    w = rng.uniform(0.1, 10.0, n)
    c = rng.uniform(-1.0, 1.0, n)

    def f(x, i=slice(None)):
        y = x - p[i]
        return c[i] - w[i] * (y * y)

    return a, b, f


def test_golden_max_rows_bit_identical_to_golden_max():
    rng = np.random.Generator(np.random.Philox(11))
    a, b, f = _peaked_family(rng, 100)
    tol = Tolerance(abs_x=1e-11)
    xs, fs = golden_max_rows(f, a, b, tol)
    for i in range(a.size):
        ref = _golden_max(lambda x, i=i: float(f(x, i)), a[i], b[i], tol)
        assert (xs[i], fs[i]) == ref, i


@pytest.mark.parametrize("n", [1, 40])
def test_maximize_rows_bit_identical_to_maximize_scalar(n):
    rng = np.random.Generator(np.random.Philox(13))
    lo, hi, f = _peaked_family(rng, n)
    tol = Tolerance(abs_x=1e-11)
    # with one row the golden steps go through f_at, as in the mixed program
    f_at = (lambda x: float(f(x, 0))) if n == 1 else None
    xs, fs = maximize_rows(lambda x: f(x, np.arange(n)[:, None]), lo, hi,
                           tol, scan_points=9, f_at=f_at)
    for i in range(n):
        ref = maximize_scalar(lambda x, i=i: float(f(x, i)), lo[i], hi[i],
                              tol, scan_points=9)
        assert (xs[i], fs[i]) == ref, i


def test_maximize_rows_plateau_ties_go_to_smaller_x():
    lo = np.array([0.0, 0.2, -1.0])
    hi = np.array([1.0, 0.9, 3.0])
    tops = np.array([0.5, 0.2, 5.0])  # kink inside, at the left end, beyond
    wobble = 1e-15  # rises along the plateau, but within the 1e-13 tie band
    xs, fs = maximize_rows(lambda x: np.minimum(x, tops[:, None]) + wobble * x,
                           lo, hi, scan_points=9)
    for i in range(3):
        ref = maximize_scalar(lambda x, i=i: min(x, tops[i]) + wobble * x,
                              lo[i], hi[i], scan_points=9)
        assert (xs[i], fs[i]) == ref
    assert abs(xs[0] - 0.5) < 1e-7 and xs[1] == 0.2
    # a flat objective resolves every row to its lower end
    xs, _ = maximize_rows(lambda x: np.ones_like(x), lo, hi, scan_points=9)
    assert np.array_equal(xs, lo)


def test_integrate_rows_bit_identical_to_integrate():
    rng = np.random.Generator(np.random.Philox(17))
    lo = rng.uniform(-1.0, 1.0, 30)
    hi = lo + rng.uniform(1e-6, 2.0, 30)
    k = rng.uniform(0.5, 4.0, 30)
    got = integrate_rows(lambda t: np.exp(np.sin(k[:, None] * t)), lo, hi, 128)
    for i in range(lo.size):
        ref = integrate(lambda t, i=i: np.exp(np.sin(k[i] * t)), lo[i], hi[i], 128)
        assert got[i] == ref, i
