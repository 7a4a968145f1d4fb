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
    grid,
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


def _step(x):
    return -1.0 if x < 0.3 else 1.0


_STEP_TOL = Tolerance(abs_x=1e-12, abs_f=1e-30, max_iter=300)


def test_find_root_handles_discontinuous_sign_change():
    # step function: the root bracket collapses onto the jump
    x = find_root(_step, Bracket(0.0, 1.0), _STEP_TOL)
    assert abs(x - 0.3) < 1e-9


@pytest.mark.parametrize("f, bracket, tol", [
    (math.cos, Bracket(1.0, 2.0), numerics.DEFAULT_TOL),
    (lambda x: x * x - 2.0, Bracket(0.0, 3.0), numerics.DEFAULT_TOL),
    (_step, Bracket(0.0, 1.0), _STEP_TOL),
], ids=["cosine", "quadratic", "step"])
def test_find_root_given_ends_finds_the_same_root(f, bracket, tol):
    ends = (f(bracket.lo), f(bracket.hi))
    x = find_root(f, bracket, tol, ends=ends)
    assert x.hex() == find_root(f, bracket, tol).hex()


def test_find_root_given_ends_never_calls_f_at_them():
    f, calls = _counting(math.cos)
    find_root(f, Bracket(1.0, 2.0), ends=(math.cos(1.0), math.cos(2.0)))
    assert calls and 1.0 not in calls and 2.0 not in calls


def test_find_root_given_ends_checks_their_signs():
    f, calls = _counting(math.cos)
    with pytest.raises(BracketError):
        find_root(f, Bracket(1.0, 2.0), ends=(-1.0, -0.5))
    # an exact zero among the given ends is that end
    assert find_root(f, Bracket(1.0, 2.0), ends=(0.0, -0.5)) == 1.0
    assert find_root(f, Bracket(1.0, 2.0), ends=(0.5, 0.0)) == 2.0
    assert calls == []


def test_false_position_keeps_find_roots_contract():
    f, calls = _counting(math.cos)
    ends = (math.cos(1.0), math.cos(2.0))
    assert abs(numerics._false_position(f, Bracket(1.0, 2.0), ends) - math.pi / 2) < 1e-12
    assert calls and 1.0 not in calls and 2.0 not in calls
    calls.clear()
    with pytest.raises(BracketError):
        numerics._false_position(f, Bracket(1.0, 2.0), (-1.0, -0.5))
    assert numerics._false_position(f, Bracket(1.0, 2.0), (0.0, -0.5)) == 1.0
    assert numerics._false_position(f, Bracket(1.0, 2.0), (0.5, 0.0)) == 2.0
    assert calls == []
    with pytest.raises(ConvergenceError) as err:
        numerics._false_position(math.cos, Bracket(1.0, 2.0), ends,
                                 Tolerance(abs_x=1e-300, abs_f=1e-300, max_iter=5))
    assert abs(err.value.last - math.pi / 2) < 0.5
    # on a jump the bracket collapses onto it
    x = numerics._false_position(_step, Bracket(0.0, 1.0), (-1.0, 1.0), _STEP_TOL)
    assert abs(x - 0.3) < 1e-9


def test_false_position_halves_the_end_it_keeps():
    # exp(x) - 2 is convex: every false-position point falls left of the
    # root, so the upper end is kept, and its halved value pulls the
    # next point across; the secant step with forced bisection needs more
    f = lambda x: math.exp(x) - 2.0
    ends = (f(0.0), f(3.0))
    g, illinois = _counting(f)
    x = numerics._false_position(g, Bracket(0.0, 3.0), ends)
    h, secant = _counting(f)
    find_root(h, Bracket(0.0, 3.0), ends=ends)
    assert abs(x - math.log(2.0)) < 1e-12
    assert len(illinois) <= 10 < len(secant)


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
    x, v = maximize_on_pieces(f, lambda xs: [-2.0 * (x - 0.3) for x in xs], [0.0, 1.0], 9)
    assert abs(x - 0.3) < 1e-12 and v == f(x)
    assert len(calls) == 4  # the two kinks, the root, and v == f(x) above


def test_maximize_on_pieces_lands_on_a_jump_of_the_derivative():
    # the slope jumps from +1 to -1 at 0.37: the root's bracket closes in
    # on the jump, not on a zero of the slope
    x, v = maximize_on_pieces(lambda x: -abs(x - 0.37),
                              lambda xs: [1.0 if x < 0.37 else -1.0 for x in xs],
                              [0.0, 1.0], 9)
    assert abs(x - 0.37) <= 1e-10 and v == -abs(x - 0.37)


def test_maximize_on_pieces_counts_a_floor_as_rising():
    # f rises to a floor at 0 on [0.3, 0.6], where its slope is None, and
    # falls beyond it: the fall at the floor's right edge is rooted
    def f(x):
        return min(0.0, x - 0.3) if x < 0.6 else 0.6 - x

    def slope(xs):
        return [1.0 if x < 0.3 else None if x < 0.6 else -1.0 for x in xs]
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
    x, v = maximize_on_pieces(f, lambda xs: [0.5 - x for x in xs], [0.0, 1.0], 2)
    assert abs(x - 0.5) < 1e-12 and v == 1.0 + 0.9 * band


def test_maximize_on_pieces_skips_a_piece_shorter_than_its_nudges():
    # the middle piece [0.5, 0.5 + 1e-12] has no room for a scan point
    seen = []

    def slope(xs):
        seen.extend(xs)
        return [1.0] * len(xs)
    x, v = maximize_on_pieces(lambda x: x, slope, [0.0, 0.5, 0.5 + 1e-12, 1.0], 3)
    assert (x, v) == (1.0, 1.0)
    assert len(seen) == 6 and not any(0.5 <= s <= 0.5 + 1e-12 for s in seen)


def test_best_candidate_tie_goes_to_smaller_x():
    near = 1.0 + 0.5 * numerics._TIE
    assert best_candidate([(0.7, 1.0), (0.2, near)]) == (0.2, near)
    assert best_candidate([(0.2, near), (0.7, 1.0)]) == (0.2, near)


def test_best_candidate_strict_improvement_wins():
    better = 1.0 + 3.0 * numerics._TIE
    assert best_candidate([(0.2, 1.0), (0.7, better)]) == (0.7, better)
    assert best_candidate([(0.7, better), (0.2, 1.0)]) == (0.7, better)


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


def test_integrate_rows_equal_their_one_limit_calls():
    # one Simpson row per lower limit, each bit for bit the scalar call; a
    # limit at hi gives 0 and is never priced
    f = lambda x: np.exp(np.sin(3.0 * x)) * x ** 0.7
    lows = np.array([0.0, 0.37, 1.9999, 2.0, 1e-9, 1.2345678901234567])
    for panels in (128, 256, 512):
        rows = integrate(f, lows, 2.0, panels)
        assert rows.shape == lows.shape
        assert [repr(float(r)) for r in rows] == [
            repr(integrate(f, lo, 2.0, panels)) for lo in lows.tolist()]
        assert rows[3] == 0.0
    seen = []
    integrate(lambda x: seen.append(x.shape) or x, np.array([2.0, 1.0, 2.0]), 2.0, 128)
    assert seen == [(1, 129)]
    with pytest.raises(ValueError, match="lo <= hi"):
        integrate(f, np.array([0.0, 2.5]), 2.0)
    with pytest.raises(ValueError, match=r"shape \(2, 128\).*shape \(2, 129\)"):
        integrate(lambda x: x[:, 1:], np.array([0.0, 1.0]), 2.0, 128)


@pytest.mark.parametrize("n", [2, 3, 9, 129, 257, 513])
def test_grid_equals_linspace_bit_for_bit(n):
    # every grid size the solvers use: maximize_on_pieces' 2 and 9 (3 in
    # the tests above), integrate's 129, 257 and 513, cutoff's 257
    rng = np.random.default_rng(n)
    lo = np.concatenate([rng.uniform(-5.0, 5.0, 40), -rng.uniform(1.0, 3.0, 5),
                         [0.0, 0.3, -1e-300, 1.0, 7.0]])
    span = np.concatenate([rng.uniform(0.0, 4.0, 40), rng.uniform(0.0, 1e-3, 5),
                           [1e-300, 1e-15, 2e-300, 0.0, 1e-9]])
    hi = lo + span
    for a, b in zip(lo.tolist(), hi.tolist()):
        assert grid(a, b, n).tobytes() == np.linspace(a, b, n).tobytes(), (a, b)
    assert grid(lo, hi, n).tobytes() == np.linspace(lo, hi, n, axis=1).tobytes()
    assert grid(lo, 9.0, n).tobytes() == np.linspace(lo, 9.0, n, axis=1).tobytes()


def test_maximize_on_pieces_scans_a_piece_in_one_call():
    # all scan points but the last in one call, the last only when the
    # point before it rises, then one point per call in the root search
    calls = []

    def slope(rate):
        def s(xs):
            calls.append(list(xs))
            return [rate(x) for x in xs]
        return s
    maximize_on_pieces(lambda x: -(x - 0.3) ** 2, slope(lambda x: 0.3 - x),
                       [0.0, 1.0], 9)
    last = 1.0 - 1e-9
    # the scan falls past 0.3, so the last point is never read; the fall is
    # rooted, the false-position step landing on the linear slope's root
    # at once
    assert len(calls[0]) == 8 and last not in calls[0]
    assert len(calls) == 2 and abs(calls[1][0] - 0.3) < 1e-15
    calls.clear()
    maximize_on_pieces(lambda x: x, slope(lambda x: 1.0), [0.0, 1.0], 9)
    assert [len(c) for c in calls] == [8, 1] and calls[1] == [last]


def test_integrate_lets_a_scalar_only_integrand_fail():
    with pytest.raises(TypeError):
        integrate(math.exp, 0.0, 1.0, 128)


def test_fixed_point_contraction():
    x, resid, _ = fixed_point(lambda x, _: 0.5 * x + 1.0, np.array([[0.0]]),
                              Tolerance(abs_x=1e-12, abs_f=1e-12, max_iter=500))
    assert x.shape == (1, 1)
    assert abs(x[0, 0] - 2.0) < 1e-10
    assert abs(resid[0]) < 1e-10
    # a scalar or a 1-d start is not a stack of rows
    for start in (0.0, np.array([0.0])):
        with pytest.raises(ValueError, match="2-d"):
            fixed_point(lambda x, _: 0.5 * x + 1.0, start)


def _row_rates():
    # contractions of three rates from starts in each row, so the rows
    # converge after different numbers of passes; plain arithmetic, so a
    # row's values cannot depend on how many rows share a call
    return np.array([0.2, 0.6, 0.95]), np.array([[0.0, 1.0], [2.0, -1.0], [0.5, 3.0]])


def test_fixed_point_rows_equal_their_one_row_calls():
    rates, starts = _row_rates()
    tol = Tolerance(abs_f=1e-12, max_iter=2000)
    calls = []

    def g(x, rows):
        calls.append(rows.tolist())
        return rates[rows, None] * x / (1.0 + x * x) + 0.3

    x, residuals, iterations = fixed_point(g, starts, tol)
    assert x.shape == starts.shape
    assert len(set(iterations.tolist())) == 3
    for k, rate in enumerate(rates.tolist()):
        xk, rk, ik = fixed_point(lambda y, _, r=rate: r * y / (1.0 + y * y) + 0.3,
                                 starts[k:k + 1], tol)
        assert x[k].tobytes() == xk[0].tobytes()
        assert (residuals[k], iterations[k]) == (rk[0], ik[0])
        # a converged row is not passed to g again
        assert sum(k in rows for rows in calls) == ik[0]


def test_fixed_point_raises_when_a_row_exhausts_its_budget():
    # the second row's map is expansive; the first converges on its own
    def g(x, rows):
        return np.array([[0.5], [2.0]])[rows] * x + 1.0

    with pytest.raises(ConvergenceError) as err:
        fixed_point(g, np.array([[0.3], [0.3]]),
                    Tolerance(abs_x=1e-12, abs_f=1e-12, max_iter=200))
    assert err.value.last.shape == (2, 1)
    assert abs(err.value.last[0, 0] - 2.0) < 1e-10
    with pytest.raises(ValueError, match="2-d"):
        fixed_point(g, np.zeros((1, 1, 1)))


def test_fixed_point_budget():
    # expansive map: damping cannot rescue it, the budget runs out
    with pytest.raises(ConvergenceError):
        fixed_point(lambda x, _: 2.0 * x + 1.0, np.array([[0.3]]),
                    Tolerance(abs_x=1e-12, abs_f=1e-12, max_iter=50))
