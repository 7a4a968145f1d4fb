"""Multi-relationship coupling: fixed points, contagion, book statics."""

import math

import numpy as np
import pytest

from liqscreen import bilateral, portfolio
from liqscreen.bilateral import (binding_ir_advance, cutoff, screening_integral,
                                 solve_mixed, virtual_surplus)
from liqscreen.cli import R_TABLE
from liqscreen.economy import (benchmark, marginal_r, truncated_exponential,
                               with_tightness)
from liqscreen.errors import ConvergenceError, DegeneracyError, DomainError
from liqscreen.numerics import Bracket, Tolerance, find_root
from liqscreen.portfolio import (
    EMPIRICAL_DELTA_GRID,
    PortfolioEconomy,
    advance_response,
    calibrated_contract,
    contagion_derivative,
    contagion_share,
    contagion_threshold,
    hump_scan,
    independent_cutoff_value,
    make_portfolio,
    portfolio_value,
    slope_calibration,
    slope_calibration_prime,
    solve_cutoffs,
    symmetric_cutoff,
    symmetric_portfolio,
    uniform_subsidy_effect,
)
from conftest import two_copy_book


def test_slope_calibration_continuous_and_decreasing():
    left = slope_calibration(1.5 - 1e-12)
    right = slope_calibration(1.5 + 1e-12)
    assert abs(left - right) < 1e-9
    Rs = np.linspace(0.1, 4.0, 40)
    vals = [slope_calibration(float(R)) for R in Rs]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    with pytest.raises(DomainError):
        slope_calibration(-0.1)


def test_slope_calibration_prime_matches_finite_difference():
    for R in (0.7, 1.2, 2.5):
        fd = (slope_calibration(R + 1e-6) - slope_calibration(R - 1e-6)) / 2e-6
        assert abs(fd - slope_calibration_prime(R)) < 1e-6


def _schedule_fd(econ, h=1e-5):
    """Central difference of the calibrated advance along the slope schedule in R."""
    R = econ.financing.tightness
    a_hi, a_lo = (binding_ir_advance(with_tightness(econ, R + s), slope_calibration(R + s))
                  for s in (h, -h))
    return (a_hi - a_lo) / (2 * h)


def test_advance_response_tracks_manifold():
    # an interior advance, then one clamped at 0: there the lowest type's
    # signal pays its cost at advance 0 all along the schedule near R, so
    # the advance does not move
    for mu0, R, clamped in ((0.1, 1.0, False), (0.5, 0.5, True)):
        econ = benchmark(v=2.0, mu0=mu0, K=1.0, R=R)
        c = calibrated_contract(econ)
        got = advance_response(econ, c, slope_calibration_prime(R))
        fd = _schedule_fd(econ)
        assert (c.advance == 0.0) is clamped
        assert abs(got - fd) < 1e-5, (mu0, R)
        if clamped:
            assert got == fd == 0.0


@pytest.mark.parametrize("mu0, R", [(0.5, 0.5), (1.0, 0.5), (2.0, 1.0)])
@pytest.mark.parametrize("delta", [0.1, 1.2])
def test_analytic_contagion_matches_the_finite_difference_at_a_clamped_advance(
        mu0, R, delta):
    # the calibrated advance is 0 on these books, so a'(R) is 0 and only
    # the slope's schedule moves the contract
    econ = benchmark(v=2.0, mu0=mu0, R=R)
    assert calibrated_contract(econ).advance == 0.0
    out = contagion_derivative(make_portfolio([econ, econ], delta), 0)
    assert out["flagged"]
    assert abs(out["analytic"] - out["total"]) <= 1e-6, out


def test_contagion_share_counts_clamped_advance_books_by_the_finite_difference_sign():
    # total is -0.046 at delta = 0.1 and +0.449 at 1.2 on this book
    econ = benchmark(v=2.0, mu0=0.5, R=0.5)
    assert contagion_share(make_portfolio([econ, econ], 0.0), [0.1, 1.2]) == 0.5


def test_portfolio_requires_symmetric_coupling():
    econs = [benchmark(), benchmark()]
    bad = np.array([[0.0, 1.0], [0.2, 0.0]])
    with pytest.raises(DomainError):
        make_portfolio(econs, coupling=bad)
    with pytest.raises(DomainError):
        make_portfolio(econs)


@pytest.mark.parametrize("delta", [math.nan, math.inf])
def test_portfolio_rejects_non_finite_coupling(delta):
    # a nan coupling used to solve to cutoffs [1, 1] with a nan value, an
    # infinite one to an infinite value
    with pytest.raises(DomainError, match="finite"):
        make_portfolio([benchmark(), benchmark()], delta=delta)


def test_portfolio_needs_a_relationship():
    with pytest.raises(DomainError):
        make_portfolio([], delta=0.5)


def test_a_book_keeps_its_coupling_as_a_float_array():
    # a nested list used to pass validation and then fail the solve at
    # coupling[np.ix_(free, free)]; an int matrix was kept as int64
    econ = benchmark(R=1.0)
    c = calibrated_contract(econ)
    econs, contracts = (econ, econ), (c, c)
    for given, state in (([[0.0, 0.5], [0.5, 0.0]], "none"),
                         (np.array([[0, 1], [1, 0]]), "all_served")):
        floats = np.array(given, dtype=float)
        ref = solve_cutoffs(PortfolioEconomy(econs, floats, contracts))
        assert ref.clamped == (state, state)
        port = PortfolioEconomy(econs, given, contracts)
        assert port.coupling.dtype == np.float64
        sol = solve_cutoffs(port)
        assert sol.cutoffs.tobytes() == ref.cutoffs.tobytes()
        assert (sol.clamped, sol.total_value) == (ref.clamped, ref.total_value)
        # a float64 matrix is kept as given, not copied
        assert PortfolioEconomy(econs, floats, contracts).coupling is floats


def test_symmetric_cutoff_closed_form_and_degenerate_denominator():
    theta, clamped = symmetric_cutoff(0.3, 0.5, 0.2)
    assert abs(theta - (0.3 + 0.5 - 0.2) / (1.0 + 0.5 - 0.2)) < 1e-12
    assert not clamped
    with pytest.raises(DegeneracyError):
        symmetric_cutoff(0.3, 0.5, 1.5)


def test_verify_grid_book_route_is_interior_and_matches_closed_form():
    # verify's symmetric_fixed_point grid: every case is interior on both
    # routes, so a check that skips clamped cases compares all nine
    compared = 0
    for delta in (0.1, 0.3, 0.5):
        for b1 in (0.3, 0.6, 0.9):
            closed, clamped = symmetric_cutoff(0.27, b1, delta)
            sol = solve_cutoffs(two_copy_book(0.27, b1, delta))
            assert not clamped and sol.clamped == ("none", "none"), (delta, b1)
            assert abs(sol.cutoffs[0] - closed) <= 1e-8, (delta, b1)
            compared += 1
    assert compared == 9


@pytest.mark.parametrize("R", [0.5, 1.0, 2.0])
def test_symmetric_cutoff_matches_solve_cutoffs_on_both_sides_of_stability(R):
    # past delta = v - 1 + b1 the interior root is unstable and the
    # coupled map runs to a corner; the closed form must pick the same one
    for delta in np.round(np.arange(0.0, 3.0 + 1e-9, 0.1), 10):
        port = symmetric_portfolio(R, float(delta))
        c = port.contracts[0]
        closed, _ = symmetric_cutoff(c.advance, c.slope, float(delta))
        got = solve_cutoffs(port).cutoffs[0]
        assert abs(closed - got) <= 1e-8, (delta, closed, got)


def test_zero_coupling_reduces_to_bilateral_cutoffs():
    port = symmetric_portfolio(1.0, 0.0)
    sol = solve_cutoffs(port)
    for i, (econ, con) in enumerate(zip(port.economies, port.contracts)):
        solo = cutoff(econ, con.advance, con.slope)[0]
        assert abs(sol.cutoffs[i] - solo) < 1e-8


@pytest.mark.parametrize("dist", [None, truncated_exponential(2.0)],
                         ids=["uniform", "truncated_exponential"])
def test_cutoff_at_a_load_roots_psi_plus_load_over_the_support(dist):
    # a book's response is cutoff's grid-cell root of psi + load; it must
    # be the whole-support root, and the support ends at the clamp loads
    econ = benchmark(v=1.5, mu0=0.1, R=1.0, dist=dist)
    c = calibrated_contract(econ)
    d = econ.dist
    _, psi_lo, psi_hi = cutoff(econ, c.advance, c.slope)
    assert psi_lo < 0.0 < psi_hi
    for load in np.linspace(-psi_hi, -psi_lo, 9)[1:-1]:
        def g(t):
            return float(virtual_surplus(econ, t, c.advance, c.slope)) + load

        that, lo, hi = cutoff(econ, c.advance, c.slope, float(load))
        assert (lo, hi) == (psi_lo + load, psi_hi + load)
        assert d.lower < that < d.upper
        assert abs(that - find_root(g, Bracket(d.lower, d.upper))) <= 1e-10
    assert cutoff(econ, c.advance, c.slope, -psi_lo)[0] == d.lower
    assert cutoff(econ, c.advance, c.slope, 5.0)[0] == d.lower
    assert cutoff(econ, c.advance, c.slope, -psi_hi - 1e-9)[0] == d.upper
    assert cutoff(econ, c.advance, c.slope, -5.0)[0] == d.upper


def test_portfolio_value_consistent_with_solution():
    port = symmetric_portfolio(1.0, 0.8)
    sol = solve_cutoffs(port)
    total, per = portfolio_value(port, sol.cutoffs, portfolio._uncoupled(port))
    assert abs(total - sol.total_value) < 1e-12
    assert abs(float(np.sum(per)) - total) < 1e-12


def test_centrality_symmetric_book():
    port = symmetric_portfolio(1.0, 0.8)
    sol = solve_cutoffs(port)
    assert sol.centralities.shape == (2,)
    assert abs(sol.centralities[0] - sol.centralities[1]) < 1e-9


def _fd_cutoff_sensitivity(port, j, h=1e-4):
    """Reference: central-difference response of every cutoff to R_j, with
    the contracts held fixed."""
    def shifted(R_j):
        econs = list(port.economies)
        econs[j] = with_tightness(econs[j], R_j)
        return solve_cutoffs(PortfolioEconomy(tuple(econs), port.coupling,
                                              port.contracts)).cutoffs

    R_j = port.economies[j].financing.tightness
    return (shifted(R_j + h) - shifted(R_j - h)) / (2.0 * h)


@pytest.mark.parametrize("Rs, coupling, clamped", [
    ((0.8, 1.0, 1.4), [[0.0, 0.1, 0.25], [0.1, 0.0, 0.3], [0.25, 0.3, 0.0]],
     ("none",) * 3),
    ((0.8, 1.4, 1.0, 1.2), [[0.0, 0.2, 0.05, 0.05], [0.2, 0.0, 0.05, 0.05],
                            [0.05, 0.05, 0.0, 1.5], [0.05, 0.05, 1.5, 0.0]],
     ("none", "none", "all_served", "all_served")),
], ids=["interior", "two_clamped"])
def test_centralities_match_finite_difference_cutoff_responses(Rs, coupling,
                                                               clamped):
    coupling = np.array(coupling)
    port = make_portfolio([benchmark(R=R) for R in Rs], coupling=coupling)
    sol = solve_cutoffs(port)
    assert sol.clamped == clamped
    n = len(Rs)
    for j in range(n):
        sens = _fd_cutoff_sensitivity(port, j)
        fd = sum(coupling[i, j] * sens[i] for i in range(n) if i != j)
        assert abs(sol.centralities[j] - fd) < 1e-6, (j, sol.centralities[j], fd)
        if clamped[j] != "none":
            assert sol.centralities[j] == 0.0


def _loop_centralities(port, sol):
    """Reference: one solve of the full cutoff Jacobian per relationship."""
    n = len(port.economies)
    free = [state == "none" for state in sol.clamped]
    out = np.zeros(n)
    for j in range(n):
        jac, rhs = np.eye(n), np.zeros(n)
        for i, (e, c) in enumerate(zip(port.economies, port.contracts)):
            if not free[i]:
                continue
            t, h = float(sol.cutoffs[i]), 1e-6
            jac[i, i] = (float(virtual_surplus(e, t + h, c.advance, c.slope))
                         - float(virtual_surplus(e, t - h, c.advance, c.slope))) \
                / (2 * h)
            for k in range(n):
                if k != i and free[k]:
                    jac[i, k] = -port.coupling[i, k] \
                        * float(port.economies[k].dist.pdf(sol.cutoffs[k]))
            if i == j:
                rhs[i] = marginal_r(e.financing, e.working_capital - c.advance)
        sens = np.linalg.solve(jac, rhs)
        out[j] = sum(port.coupling[i, j] * sens[i] for i in range(n) if i != j)
    return out


def test_centralities_equal_per_relationship_solves():
    rng = np.random.Generator(np.random.Philox(11))
    n = 12
    coupling = np.triu(rng.uniform(0.0, 0.05, (n, n)), 1)
    coupling[0, 1] = coupling[2, 3] = 1.5  # pushes four cutoffs to the bottom
    port = make_portfolio([benchmark(R=R) for R in rng.uniform(0.5, 3.0, n)],
                          coupling=coupling + coupling.T)
    sol = solve_cutoffs(port)
    assert 0 < sol.clamped.count("none") < n
    # one solve with many right-hand sides rounds differently from n solves
    assert np.allclose(sol.centralities, _loop_centralities(port, sol),
                       rtol=100 * np.finfo(float).eps, atol=0.0)


def _damped_reference(port):
    """Reference solve: the damped map x <- x + (T(x) - x)/2 from the uncoupled
    cutoffs until sup|T(x) - x| <= 1e-12, T re-solving every threshold at the
    current load; returns T(x), the clamp flags read at it and the passes."""
    def respond(x):
        tails = np.array([1.0 - float(e.dist.cdf(t))
                          for e, t in zip(port.economies, x)])
        out = []
        for e, c, load in zip(port.economies, port.contracts,
                              port.coupling @ tails):
            d = e.dist

            def g(t):
                return float(virtual_surplus(e, t, c.advance, c.slope)) + load

            if g(d.lower) >= 0.0:
                out.append((d.lower, "all_served"))
            elif g(d.upper) < 0.0:
                out.append((d.upper, "empty"))
            else:
                out.append((find_root(g, Bracket(d.lower, d.upper)), "none"))
        return np.array([t for t, _ in out]), tuple(flag for _, flag in out)

    x = np.array([cutoff(e, c.advance, c.slope)[0]
                  for e, c in zip(port.economies, port.contracts)])
    for passes in range(1, 20001):
        tx, _ = respond(x)
        if np.max(np.abs(tx - x)) <= 1e-12:
            return tx, respond(tx)[1], passes
        x = x + 0.5 * (tx - x)
    raise AssertionError("reference damped map did not converge")


def _symmetric_books():
    return [symmetric_portfolio(R, float(delta), mu0=mu0)
            for R in (0.5, 1.0, 2.0, 3.0)
            for delta in np.linspace(0.0, 4.0, 17)
            for mu0 in (0.0, 0.2)]


def _random_books(count=70):
    """Books of 2-12 relationships: uniform or truncated-exponential types,
    surplus slope v in [1, 2.5] (some books start with empty relationships),
    mean coupling log-uniform up to 3."""
    rng = np.random.Generator(np.random.Philox(6))
    books = []
    for _ in range(count):
        n = int(rng.integers(2, 13))
        econs = []
        for _ in range(n):
            dist = (None if rng.random() < 0.5
                    else truncated_exponential(float(rng.uniform(0.5, 3.0))))
            econs.append(benchmark(v=float(rng.uniform(1.0, 2.5)),
                                   mu0=float(rng.choice([0.0, 0.2])),
                                   R=float(rng.uniform(0.5, 3.0)), dist=dist))
        coupling = np.triu(rng.uniform(0.0, 1.0, (n, n)), 1)
        coupling *= 3.0 * 10.0 ** rng.uniform(-3.0, 0.0) \
            / coupling[np.triu_indices(n, 1)].mean()
        books.append(make_portfolio(econs, coupling=coupling + coupling.T))
    return books


@pytest.mark.parametrize("books", [_symmetric_books, _random_books],
                         ids=["symmetric", "random"])
def test_newton_selects_the_damped_map_equilibrium(books):
    seen = set()
    for k, port in enumerate(books()):
        sol = solve_cutoffs(port)
        ref, flags, _ = _damped_reference(port)
        assert np.max(np.abs(sol.cutoffs - ref)) <= 1e-10, k
        assert sol.clamped == flags, k
        assert sol.residual <= 1e-12
        seen.update(flags)
    assert {"none", "all_served"} <= seen


def test_unstable_interior_fixed_point_returns_the_corner():
    # v - 1 + b1 = 1 + 0.35e < delta: the symmetric interior fixed point
    # is unstable, Newton's first step would rise, so Newton hands the
    # uncoupled cutoffs to the damped map, which falls to the bottom corner
    port = symmetric_portfolio(0.5, 2.0)
    assert 2.0 > 1.0 + port.contracts[0].slope
    sol = solve_cutoffs(port)
    assert sol.clamped == ("all_served", "all_served")
    assert np.all(sol.cutoffs == 0.0)
    assert sol.iterations == _damped_reference(port)[2]


def test_damped_fallback_budget_exhaustion_raises(monkeypatch):
    # Newton hands this book to the damped map, which needs ~40 passes
    monkeypatch.setattr(portfolio, "FP_TOL", Tolerance(abs_f=1e-12, max_iter=3))
    with pytest.raises(ConvergenceError):
        solve_cutoffs(symmetric_portfolio(0.5, 2.0))


def _alternating_book(v_odd, delta, n=10):
    """n benchmark relationships at spread tightness, every other one at v_odd."""
    return make_portfolio([benchmark(v=v_odd if i % 2 else 2.0, R=float(R))
                           for i, R in enumerate(np.linspace(0.5, 3.0, n))],
                          delta=delta)


@pytest.mark.parametrize("book, state, passes", [
    (lambda: _alternating_book(2.0, 2.0), "all_served", 0),
    (lambda: _alternating_book(2.0, 0.002), "none", 2),
    # v = 1.3 serves no type uncoupled, so Newton starts these five
    # cutoffs at the top of the support, where psi' needs the inner stencil
    (lambda: _alternating_book(1.3, 0.05), "none", 2),
    # an unstable interior fixed point: Newton hands over at once and the
    # damped map crawls 41 passes to the all-served corner
    (lambda: symmetric_portfolio(0.5, 2.0), "all_served", 41),
], ids=["all_served", "interior", "interior_from_top", "crawl_to_corner"])
def test_book_solve_makes_at_most_two_response_passes(monkeypatch, book, state,
                                                      passes):
    priced, responses = [], []

    def counted(real, calls):
        def call(*args):
            calls.append(args)
            return real(*args)
        return call

    # psi rows are priced in bilateral (cutoff) or in portfolio (the start)
    for mod in (bilateral, portfolio):
        monkeypatch.setattr(mod, "_psi_row", counted(mod._psi_row, priced))
    real = portfolio._first_crossing

    def crossing(econ, ts, psi, a, b1, load):
        if isinstance(load, np.ndarray):  # a response at a book load, not the start
            responses.append(load)
        return real(econ, ts, psi, a, b1, load)

    monkeypatch.setattr(portfolio, "_first_crossing", crossing)
    port = book()
    n = len(port.economies)
    sol = solve_cutoffs(port)
    assert sol.clamped == (state,) * n
    # one psi row per relationship per solve, however many passes read it
    assert len(priced) == n
    # the damped map alone makes 38 to 42 passes of n responses on the
    # ten-relationship books; clamped relationships skip the root
    assert len(responses) <= passes * n


def test_book_values_and_responses_equal_the_routes_that_price_psi_again(monkeypatch):
    # an all-served value sums the start's psi row times f, and a response
    # roots psi + load on that row: each is bit for bit the route that
    # prices psi again, screening_integral at the lower end and cutoff
    crossings = []
    real = portfolio._first_crossing

    def recorded(econ, ts, psi, a, b1, load):
        out = real(econ, ts, psi, a, b1, load)
        crossings.append((econ, a, b1, load, out[0]))
        return out

    monkeypatch.setattr(portfolio, "_first_crossing", recorded)
    got, want = [], []
    for port in _symmetric_books() + _random_books():
        sol = solve_cutoffs(port)
        tails = portfolio._tails(port, sol.cutoffs[None])[0]
        for i, (e, c) in enumerate(zip(port.economies, port.contracts)):
            if sol.clamped[i] == "all_served":
                pair = 0.5 * float(np.sum(port.coupling[i] * tails)) * tails[i]
                got.append(sol.per_value[i])
                want.append(screening_integral(e, e.dist.lower, c.advance, c.slope, 256)
                            + pair - c.advance)
    assert len(got) > 200
    assert np.array(got).tobytes() == np.array(want).tobytes()
    responses = [x for x in crossings if isinstance(x[3], np.ndarray)]
    assert len(responses) > 300
    for econ, a, b1, load, x in crossings:
        assert np.array(cutoff(econ, a, b1, load)[0]).tobytes() == np.array(x).tobytes()


def test_contagion_derivative_sign_flips_with_coupling():
    up = contagion_derivative(symmetric_portfolio(1.0, 1.2), 0)
    dn = contagion_derivative(symmetric_portfolio(1.0, 0.1), 0)
    assert up["total"] > 0.0
    assert dn["total"] < 0.0
    assert np.isfinite(up["analytic"])


def test_contagion_spillover_uses_pointwise_signal_slope(curved_signal_pair):
    # without a mu' closure the rent tail must still weight mu' pointwise
    spill = [contagion_derivative(make_portfolio([e, e], delta=0.5),
                                  0)["screening_spillover"]
             for e in curved_signal_pair]
    assert abs(spill[0] - spill[1]) < 1e-5, spill


_TABLE_DELTAS = np.linspace(0.0, 2.5, 26)  # table contagion's coupling grid


def _book_of(econ, delta, contract):
    return make_portfolio([econ, econ], delta=delta, contracts=(contract,) * 2)


@pytest.mark.parametrize("R", R_TABLE)
def test_coupled_cutoffs_from_one_shared_start_equal_full_solves(R):
    # the table's books share relationships and contracts, so one uncoupled
    # start serves every coupling, as one lane each of a single solve, bit
    # for bit, and no solve writes into it
    econ = benchmark(v=2.0, mu0=0.0, K=1.0, R=R)
    c = calibrated_contract(econ)
    book = _book_of(econ, 0.0, c)
    start = portfolio._uncoupled(book)
    before = [part.tobytes() for part in start]
    couplings = np.array([_book_of(econ, float(d), c).coupling for d in _TABLE_DELTAS])
    lanes = portfolio._coupled_cutoffs(book, start, couplings)
    for k, delta in enumerate(_TABLE_DELTAS):
        x, flags, residual, iterations = (out[k] for out in lanes)
        sol = solve_cutoffs(symmetric_portfolio(R, float(delta)))
        assert x.tobytes() == sol.cutoffs.tobytes(), delta
        assert (flags, residual, iterations) \
            == (sol.clamped, sol.residual, sol.iterations), delta
    assert [part.tobytes() for part in start] == before


# the table's couplings at every tightness, and R = 0.5 at couplings above
# its stable ones: Newton hands those books over at once, and the damped
# map crawls 41 passes to the all-served corner, or reaches it in 3
_LANE_CASES = [(R, _TABLE_DELTAS) for R in R_TABLE] \
    + [(0.5, np.array([2.0, 2.25, 2.5, 2.75])),
       (0.5, np.concatenate([_TABLE_DELTAS, [2.25, 2.75]]))]


def _lanes_of(port, couplings):
    """One stacked solve of couplings on port, each lane checked against
    the stack of that lane alone: cutoffs, flags, residual and iterations."""
    start = portfolio._uncoupled(port)
    x, flags, residual, iterations = portfolio._coupled_cutoffs(port, start, couplings)
    assert x.shape == (len(couplings), len(port.economies))
    assert len(flags) == len(couplings)
    for k in range(len(couplings)):
        one = portfolio._coupled_cutoffs(port, start, couplings[k:k + 1])
        assert x[k].tobytes() == one[0][0].tobytes(), k
        assert flags[k] == one[1][0], k
        assert residual[k] == one[2][0] and iterations[k] == one[3][0], k
    return iterations


@pytest.mark.parametrize("R, deltas", _LANE_CASES)
def test_lane_solves_equal_one_lane_solves(R, deltas):
    # each lane stops on its own rules: a stack mixes lanes that Newton
    # finishes, lanes it hands to the damped map, and clamped lanes
    port = symmetric_portfolio(R, 0.0)
    iterations = _lanes_of(port, np.array([
        make_portfolio(port.economies, delta=float(d), contracts=port.contracts).coupling
        for d in deltas]))
    if R == 0.5:  # lanes that crawl to the corner share stacks with quick ones
        assert iterations.max() > 40 and iterations.min() < 10


def test_lane_solves_equal_one_lane_solves_on_random_books():
    # books of 2-12 uniform or truncated-exponential relationships, each
    # at six multiples of its own coupling matrix
    for port in _random_books(12):
        _lanes_of(port, np.array([port.coupling * m
                                  for m in (0.0, 0.1, 0.5, 1.0, 2.0, 4.0)]))


def test_a_singular_lane_leaves_the_other_lanes_their_newton_moves():
    # a stacked np.linalg.solve raises for the whole stack when one
    # Jacobian is singular; the lanes are then solved one by one, so only
    # the singular lane goes without a move, as it would alone
    jac = np.array([[[2.0, 1.0], [1.0, 3.0]],
                    [[1.0, 2.0], [2.0, 4.0]],
                    [[4.0, -1.0], [0.5, 1.0]]])
    rhs = np.array([[1.0, 2.0], [3.0, 4.0], [-1.0, 0.5]])
    moves = portfolio._newton_moves(jac, rhs)
    assert np.all(np.isnan(moves[1]))
    for k in (0, 2):
        alone = portfolio._newton_moves(jac[k:k + 1], rhs[k:k + 1])
        assert moves[k].tobytes() == alone[0].tobytes()


def test_a_solve_start_is_read_only():
    cols, rows = portfolio._uncoupled(symmetric_portfolio(1.0, 0.5))
    assert cols.shape == (5, 2) and rows.shape == (2, 257)
    for row in (cols, cols[0], cols[1:], rows, rows[0]):
        assert not row.flags.writeable
        with pytest.raises(ValueError):
            row[..., 0] = 0.5


@pytest.mark.parametrize("R", R_TABLE)
def test_contagion_share_counts_the_analytic_derivatives_of_each_book(R,
                                                                      monkeypatch):
    # reference: one contagion_derivative per coupling on a freshly built
    # symmetric book, as table contagion computed the share before
    reference = [contagion_derivative(symmetric_portfolio(R, float(delta)),
                                      0)["analytic"]
                 for delta in _TABLE_DELTAS]
    seen = []
    real = portfolio._contagion_terms

    def recorded(econ, contract, that):
        direct, spillover = real(econ, contract, that)
        seen.append(direct + spillover)
        return direct, spillover

    monkeypatch.setattr(portfolio, "_contagion_terms", recorded)
    share = contagion_share(symmetric_portfolio(R, 0.0), _TABLE_DELTAS)
    assert share == sum(a > 0.0 for a in reference) / len(_TABLE_DELTAS)
    assert np.array(seen).tobytes() == np.array(reference).tobytes()
    # the terms take every coupling's cutoff in one call
    assert len(seen) == 1 and seen[0].shape == (len(_TABLE_DELTAS),)


def test_contagion_share_needs_a_coupling():
    with pytest.raises(DomainError):
        contagion_share(symmetric_portfolio(1.0, 0.0), [])


@pytest.mark.parametrize("grid", [[0.5, -0.1], [0.5, math.nan], [math.inf]],
                         ids=["negative", "nan", "inf"])
def test_contagion_share_rejects_a_coupling_no_book_may_hold(grid):
    with pytest.raises(DomainError):
        contagion_share(symmetric_portfolio(1.0, 0.0), grid)


@pytest.fixture(scope="module")
def scanned_threshold():
    """Both threshold routes at the benchmark, empirical scan included."""
    return contagion_threshold(symmetric_portfolio(1.0, 0.0), EMPIRICAL_DELTA_GRID)


def test_contagion_threshold_reports_both_routes(scanned_threshold):
    out = scanned_threshold
    # fixed-contract analytic flip vs re-calibrated empirical scan; the
    # contract response moves the flip earlier, so empirical comes first
    assert out["analytic"] > 0.0
    assert 0.0 < out["empirical"] <= out["analytic"]


def test_contagion_threshold_without_grid_skips_the_scan(scanned_threshold,
                                                         monkeypatch):
    calls = []
    real = portfolio.contagion_derivative

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(portfolio, "contagion_derivative", counted)
    port = symmetric_portfolio(1.0, 0.0)
    out = contagion_threshold(port)
    assert out["analytic"] == scanned_threshold["analytic"]
    assert math.isnan(out["empirical"])
    assert calls == []
    # the counter does see the scan when a grid is given
    contagion_threshold(port, [1.2])
    assert len(calls) == 1


def test_contagion_threshold_scans_books_of_the_economy_it_names(monkeypatch):
    # every book of the empirical scan, the two tightness-shifted ones
    # included, holds econ: its value, signal and types, not v = 2,
    # mu0 = 0 and uniform types. The base book solves its cutoffs only,
    # and a full solve runs _coupled_cutoffs too, so books are told apart
    # by identity
    books = {}

    def recording(real):
        def recorded(port, *rest):
            books[id(port)] = port
            return real(port, *rest)
        return recorded

    for name in ("solve_cutoffs", "_coupled_cutoffs"):
        monkeypatch.setattr(portfolio, name, recording(getattr(portfolio, name)))
    econ = benchmark(v=3.0, mu0=0.2, K=1.0, R=1.0)
    contagion_threshold(make_portfolio([econ, econ], 0.0), [0.5, 1.0])
    assert len(books) == 6
    for port in books.values():
        assert port.economies[1] is econ
        assert all(e.surplus is econ.surplus and e.signal_mean is econ.signal_mean
                   and e.dist is econ.dist for e in port.economies)


def test_hump_scan_peak_only_when_coupled():
    Rs = np.round(np.arange(0.5, 3.01, 0.1), 10)
    coupled = hump_scan(Rs, 1.2)
    assert coupled["positive_intervals"]
    assert coupled["positive_intervals"][0][0] <= 0.6
    independent = hump_scan(Rs, 0.0)
    assert independent["positive_intervals"] == []
    assert independent["peak"] is None
    # the coupled scan's books solved at coupling 0 are the uncoupled scan
    assert coupled["value_independent"].tobytes() == independent["value"].tobytes()


def _breadth_comparison(port, single="reoptimized"):
    """Reference: two coupled relationships against independent bilateral ones.

    single="reoptimized" lets the stand-alone relationship use its
    unconstrained mixed-program optimum; single="matched" keeps the
    portfolio's own contract, which makes the zero-coupling case an
    exact tie.
    """
    dual = solve_cutoffs(port).total_value
    if single == "reoptimized":
        w1 = solve_mixed(port.economies[0]).value
    elif single == "matched":
        e, c = port.economies[0], port.contracts[0]
        w1 = screening_integral(e, cutoff(e, c.advance, c.slope)[0],
                                c.advance, c.slope, 256) - c.advance
    else:
        raise DomainError(f"unknown single-value convention {single!r}")
    return {"dual_value": dual, "single_value": w1,
            "prefer_single": 2.0 * w1 > dual}


def test_breadth_conventions():
    port = symmetric_portfolio(1.0, 0.0)
    matched = _breadth_comparison(port, single="matched")
    # zero coupling with the same contract is an exact tie
    assert abs(2.0 * matched["single_value"] - matched["dual_value"]) < 1e-9
    reopt = _breadth_comparison(port, single="reoptimized")
    assert reopt["single_value"] >= matched["single_value"] - 1e-12
    with pytest.raises(DomainError):
        _breadth_comparison(port, single="nonsense")


def test_subsidy_directions():
    assert uniform_subsidy_effect(1.0, 1.2)["all_lower"]
    assert uniform_subsidy_effect(1.0, 0.0)["all_higher"]


def test_independent_cutoffs_weakly_worse():
    port = symmetric_portfolio(1.0, 1.0)
    out = independent_cutoff_value(port)
    assert out["coupled"] >= out["at_independent"] - 1e-9
    # loss is signed relative to the coupled optimum, so nonpositive
    assert out["relative_loss"] <= 1e-9
