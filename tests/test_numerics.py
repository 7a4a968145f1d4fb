"""Root finding, optimization, tie-breaking, quadrature, fixed points."""

import math

import numpy as np
import pytest

from liqscreen import numerics
from liqscreen.errors import BracketError, ConvergenceError
from liqscreen.numerics import (
    Bracket,
    Tolerance,
    best_candidate,
    find_root,
    fixed_point,
    integrate,
    maximize_on_pieces,
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


def _counting(f):
    calls = []

    def g(x):
        calls.append(x)
        return f(x)
    return g, calls


def test_maximize_on_pieces_roots_an_interior_smooth_peak():
    f, calls = _counting(lambda x: 2.0 - (x - 0.3) ** 2)
    x, v = maximize_on_pieces(f, lambda x: -2.0 * (x - 0.3), [0.0, 1.0], 9)
    assert abs(x - 0.3) < 1e-12 and v == f(x)
    assert len(calls) == 4  # the two kinks, the root, and v == f(x) above


def test_maximize_on_pieces_lands_on_a_jump_of_the_derivative():
    # the slope jumps from +1 to -1 at 0.37: find_root's forced bisection
    # closes in on the jump, not on a zero of the slope
    x, v = maximize_on_pieces(lambda x: -abs(x - 0.37),
                              lambda x: 1.0 if x < 0.37 else -1.0,
                              [0.0, 1.0], 9)
    assert abs(x - 0.37) <= 1e-10 and v == -abs(x - 0.37)


def test_maximize_on_pieces_counts_a_floor_as_rising():
    # f rises to a floor at 0 on [0.3, 0.6], where its slope is None, and
    # falls beyond it: the fall at the floor's right edge is rooted
    def f(x):
        return min(0.0, x - 0.3) if x < 0.6 else 0.6 - x

    def slope(x):
        return 1.0 if x < 0.3 else None if x < 0.6 else -1.0
    x, v = maximize_on_pieces(f, slope, [0.0, 1.0], 9)
    assert abs(x - 0.6) <= 1e-10 and abs(v) <= 1e-10


def test_maximize_on_pieces_prices_the_kinks_first():
    # ties are not transitive: the root at 0.5 ties the kink at 0.0 and
    # the kink at 1.0, which beats the kink at 0.0. With the kinks first
    # the kink at 1.0 takes the lead and the smaller root then ties it;
    # sorted by x, the root would tie 0.0 and lose to 1.0
    band = numerics._TIE
    values = {0.0: 1.0, 1.0: 1.0 + 1.8 * band}

    def f(x):
        return values.get(x, 1.0 + 0.9 * band)
    x, v = maximize_on_pieces(f, lambda x: 0.5 - x, [0.0, 1.0], 2)
    assert abs(x - 0.5) < 1e-12 and v == 1.0 + 0.9 * band


def test_maximize_on_pieces_skips_a_piece_shorter_than_its_nudges():
    # the middle piece [0.5, 0.5 + 1e-12] has no room for a scan point
    seen = []

    def slope(x):
        seen.append(x)
        return 1.0
    x, v = maximize_on_pieces(lambda x: x, slope, [0.0, 0.5, 0.5 + 1e-12, 1.0], 3)
    assert (x, v) == (1.0, 1.0)
    assert len(seen) == 6 and not any(0.5 <= s <= 0.5 + 1e-12 for s in seen)


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
