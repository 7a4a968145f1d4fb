"""Single-relationship screening program and closed-form anchors."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from liqscreen import bilateral, extensions, numerics, portfolio
from liqscreen.bilateral import (
    Contract,
    _advance_kinks,
    _best_advance,
    _directional_slope,
    _envelope_slope,
    _fixed_advances,
    _manifold_slope,
    _screening_slope,
    _served,
    _slope_kinks,
    binding_ir_advance,
    binding_slope,
    closed_form_ell_star,
    contract_value,
    crossing_threshold,
    cutoff,
    flat_rent_slope,
    ir_slope,
    pure_advance_value,
    pure_contingent_value,
    rent_tail,
    screening_integral,
    served_interval,
    slope_cap,
    solve_mixed,
    solve_optimal,
    sufficient_statistics,
    sweep_R,
    virtual_surplus,
)
from liqscreen.economy import (FinancingCost, benchmark, bimodal, cost_slope,
                               power, signal_slope, truncated_exponential)
from liqscreen.errors import BracketError, DomainError
from liqscreen.extensions import solve_renegotiation
from liqscreen.numerics import best_candidate, integrate
from liqscreen.portfolio import solve_cutoffs, symmetric_portfolio


def test_contract_rejects_negative_terms():
    with pytest.raises(DomainError):
        Contract(advance=-0.1)
    with pytest.raises(DomainError):
        Contract(advance=0.1, slope=-0.2)


@pytest.mark.parametrize("terms", [{"advance": math.nan}, {"slope": math.inf}],
                         ids=["advance", "slope"])
def test_contract_rejects_non_finite_terms(terms):
    with pytest.raises(DomainError, match="finite"):
        Contract(**{"advance": 0.1, **terms})


def test_closed_form_gap_share():
    # ell*(R) solves the binding participation (R/2) ell^2 = 1 - ell
    for R in (0.25, 0.5, 1.0, 2.0, 3.0, 5.0):
        ell = closed_form_ell_star(R)
        assert abs(0.5 * R * ell ** 2 - (1.0 - ell)) < 1e-12, R


def test_binding_ir_advance_anchor():
    econ = benchmark(v=2.0, mu0=0.1, K=1.0, R=1.0)
    a = binding_ir_advance(econ, 1.0)
    # a + b1*mu(0) = Phi(1 - a) with mu(0) = 0.1
    assert abs(a - 0.21114561800) < 1e-8
    resid = a + 1.0 * 0.1 - 0.5 * (1.0 - a) ** 2
    assert abs(resid) < 1e-10


def test_ir_slope_direction(monkeypatch):
    econ = benchmark(v=2.0, mu0=0.1, K=1.0, R=1.0)
    h = 1e-4
    # raising b1 lowers the binding advance of the lowest and the highest
    # type; ir_slope at that advance is its central difference in b1
    for theta, b1 in ((None, 1.0), (econ.dist.upper, 0.5)):
        a = binding_ir_advance(econ, b1, theta)
        assert 0.0 < a < econ.working_capital
        fd = (binding_ir_advance(econ, b1 + h, theta)
              - binding_ir_advance(econ, b1 - h, theta)) / (2.0 * h)
        rate = ir_slope(econ, a, theta)
        assert rate < 0.0
        assert abs(fd - rate) < 1e-6, (theta, fd, rate)

    # the advance is given, so no root is solved
    def no_root(*args):
        raise AssertionError("ir_slope solved a root")
    monkeypatch.setattr(bilateral, "find_root", no_root)
    assert ir_slope(econ, 0.3) == pytest.approx(-0.1 / 1.7, rel=1e-15)
    assert ir_slope(econ, 0.3, econ.dist.upper) == pytest.approx(-1.1 / 1.7, rel=1e-15)


def test_slope_cap_benchmark():
    econ = benchmark(v=2.0, mu0=0.1, K=1.0, R=1.0)
    # 2*(c(0) + Phi(K)) / mu(0) = 2*0.5/0.1 = 10, the hard cap
    assert abs(slope_cap(econ) - 10.0) < 1e-12


def test_virtual_surplus_and_cutoff():
    econ = benchmark(v=2.0, mu0=0.0, K=1.0, R=1.0)
    a = binding_ir_advance(econ, 0.0)
    that = cutoff(econ, a, 0.0)[0]
    psi = float(virtual_surplus(econ, that, a, 0.0))
    assert abs(psi) < 1e-8
    assert float(virtual_surplus(econ, min(that + 0.1, 1.0), a, 0.0)) > 0.0


def test_cutoff_keeps_numpy_inf_where_the_density_vanishes():
    # f(lower) = 0 for power(2.0) types: psi reads -inf at the bottom type
    # under numpy's divide warning, where economy.hazard would raise
    econ = benchmark(v=2.0, mu0=0.1, dist=power(2.0))
    with pytest.warns(RuntimeWarning, match="divide by zero"):
        that, psi_lo, psi_hi = cutoff(econ, 0.3, 0.5)
    assert psi_lo == -math.inf and psi_hi > 0.0
    assert econ.dist.lower < that < econ.dist.upper


def _rent_schedule(econ, b1, theta):
    """Reference: information rent of type theta, the integral of
    b1*mu' - c' from the bottom type."""
    lo = econ.dist.lower
    if theta <= lo:
        return 0.0
    return integrate(lambda t: b1 * signal_slope(econ, t) - cost_slope(econ, t),
                     lo, theta, panels=256)


def test_rent_schedule_zero_slope_is_pure_cost():
    econ = benchmark(v=2.0, mu0=0.0, K=1.0, R=1.0)
    # pre-participation-offset rent integrates -c' when b1 = 0
    assert abs(_rent_schedule(econ, 0.0, 0.7) - (-0.7)) < 1e-9
    assert _rent_schedule(econ, 0.0, 0.0) == 0.0


def test_solve_optimal_uninformative_prefers_advance_only():
    for R, w_anchor in ((0.5, 0.171573), (1.0, 0.0), (2.0, -0.190983)):
        econ = benchmark(v=2.0, mu0=0.0, K=1.0, R=R)
        sol = solve_optimal(econ)
        assert abs(sol.contract.slope) < 1e-9, (R, sol.contract)
        a_closed = 1.0 - closed_form_ell_star(R)
        assert abs(sol.contract.advance - a_closed) < 1e-6, (R, sol.contract)
        assert abs(sol.value - w_anchor) < 1e-4, (R, sol.value)


def test_solve_optimal_informative_prefers_slope_when_credit_tight():
    econ = benchmark(v=2.0, mu0=0.1, K=1.0, R=1.0)
    sol = solve_optimal(econ)
    assert sol.boundary_flag == "corner_a_zero"
    assert sol.contract.advance <= 1e-9
    assert sol.contract.slope > 1.0


def test_solve_mixed_flat_corner_when_credit_loose():
    # at low tightness the advance covers the gap at slope one exactly
    for R, w_anchor in ((0.25, 0.404082), (0.5, 0.343146)):
        sol = solve_mixed(benchmark(v=2.0, mu0=0.0, K=1.0, R=R))
        assert abs(sol.contract.slope - 1.0) < 1e-9, (R, sol.contract)
        ell = closed_form_ell_star(R)
        assert abs(sol.value - 0.5 * ell * ell) < 1e-6
        assert abs(sol.value - w_anchor) < 1e-4
        assert sol.branch == "flat"


def test_solve_mixed_interior_anchor():
    sol = solve_mixed(benchmark(v=2.0, mu0=0.0, K=1.0, R=1.0))
    assert abs(sol.contract.advance - 0.550510) < 1e-4
    assert abs(sol.contract.slope - 0.550510) < 1e-4
    assert abs(sol.value - 0.278775) < 1e-4
    assert sol.implemented is not None


def test_pure_values_and_crossing():
    econ = benchmark(v=2.0, mu0=0.0, K=1.0, R=1.0)
    assert abs(pure_advance_value(econ) - 0.25) < 1e-10
    # best zero-advance contract at v=2: W_C(R) = (1 - R/2)^2 / 2
    assert abs(pure_contingent_value(econ) - 0.125) < 1e-6
    r_star = crossing_threshold(econ)
    assert abs(r_star - (2.0 - math.sqrt(2.0))) < 1e-6


@pytest.mark.parametrize("K, r_star", [(2.0, 0.5), (3.0, 2.0 / 9.0)])
def test_crossing_threshold_finds_where_the_plateau_starts(K, r_star):
    # W_A = 0 and W_C = (1 - R K^2/2)^2 / 2 until R K^2/2 reaches 1, then 0:
    # the gap rests at 0 from r_star on, through the bracket end 1
    assert pure_advance_value(benchmark(K=K)) == 0.0
    assert abs(crossing_threshold(benchmark(K=K)) - r_star) < 1e-8


def test_crossing_threshold_doubles_its_bracket_up_to_64():
    # W_A = K^2/4 and W_C = (1 - R K^2/2)^2 / 2 cross at 2(1 - K/sqrt 2)/K^2
    K = 0.5
    closed = 2.0 * (1.0 - K / math.sqrt(2.0)) / K ** 2  # 5.17..., past 4
    assert abs(crossing_threshold(benchmark(K=K)) - closed) < 1e-8
    with pytest.raises(BracketError, match="64"):
        crossing_threshold(benchmark(K=0.15))  # crosses near R = 79


@pytest.mark.parametrize("K, solves", [(0.5, 20), (0.3, 21), (0.2, 25)])
def test_crossing_threshold_roots_only_the_last_doubling(monkeypatch, K,
                                                         solves):
    # each doubling moves the bracket's low end up to the last positive
    # gap, so the root runs on [2^(k-1), 2^k] rather than [0, 2^k]
    calls = []
    real = bilateral.pure_contingent_value

    def counted(econ):
        calls.append(econ.financing.tightness)
        return real(econ)

    monkeypatch.setattr(bilateral, "pure_contingent_value", counted)
    r_star = crossing_threshold(benchmark(K=K))
    top = 2.0 ** math.ceil(math.log2(r_star))
    assert all(R <= top for R in calls)
    assert all(R >= top / 2.0 for R in calls[2 + int(math.log2(top)):])
    assert len(calls) == solves


@pytest.mark.parametrize("econ, terms, expected", [
    # U falls in the type (b1 < c'/mu' = 1): the top is the acceptance
    # root 0.85, the bottom the profit root 0.55/1.5
    (benchmark(v=2.0, mu0=0.1, R=1.0), (0.5, 0.5), (0.55 / 1.5, 0.85, False, True)),
    # U rises in the type: the bottom is the acceptance root 0.31, above
    # the profit root 1/6, and the top is the support end
    (benchmark(v=3.0, mu0=0.1, R=1.0), (0.1, 1.5), (0.31, 1.0, True, False)),
    # U and pi are nonnegative on the whole support: two support ends
    (benchmark(v=2.0, mu0=0.0, R=0.0), (0.0, 1.5), (0.0, 1.0, False, False)),
    # nobody accepts
    (benchmark(v=2.0, mu0=0.1, R=1.0), (0.0, 0.0), None),
    # nobody is worth serving
    (benchmark(v=2.0, mu0=0.1, R=1.0), (0.5, 3.0), None),
    # the accepting types, below 0.85, all lie below the profit root 0.55/0.6
    (benchmark(v=1.1, mu0=0.1, R=1.0), (0.5, 0.5), None),
], ids=["upper_acceptance_root", "lower_acceptance_root", "support_ends",
        "none_accept", "none_profitable", "disjoint"])
def test_served_flags_acceptance_roots(econ, terms, expected):
    served = _served(econ, *terms)
    if expected is None:
        assert served is None
        assert served_interval(econ, *terms) is None
    else:
        lo, hi, lo_root, hi_root = served
        assert (lo, hi) == served_interval(econ, *terms)
        assert (lo, hi) == pytest.approx(expected[:2], abs=1e-10)
        assert (lo_root, hi_root) == expected[2:]


def _guarded_roots(monkeypatch):
    """Record each root that bilateral and extensions open.

    A record is (the function that built f, whether its caller gave the
    end values, the evaluations of f). A call of f at a bracket end whose
    value the caller gave fails.
    """
    roots = []
    for mod in (bilateral, extensions):
        def guarded(f, bracket, *args, ends=None, root=mod.find_root):
            evals = []

            def counted(x):
                assert ends is None or x not in (bracket.lo, bracket.hi), \
                    f"{f.__qualname__} priced the bracket end {x} again"
                evals.append(x)
                return f(x)
            try:
                return root(counted, bracket, *args, ends=ends)
            finally:
                roots.append((f.__qualname__.split(".")[0], ends is not None,
                              len(evals)))
        monkeypatch.setattr(mod, "find_root", guarded)
    return roots


def test_no_root_prices_a_bracket_end_twice(monkeypatch):
    roots = _guarded_roots(monkeypatch)
    for econ in (benchmark(v=2.0, mu0=0.1, R=1.0), MIXED_ECONOMIES["steep"],
                 MIXED_ECONOMIES["bimodal"]):
        solve_mixed(econ)
        solve_optimal(econ)
        pure_contingent_value(econ)
        solve_renegotiation(econ, 0.5)
    crossing_threshold(benchmark(v=2.0, mu0=0.0))
    solve_cutoffs(symmetric_portfolio(1.0, 0.6))
    # each of the five callers holds both end values and gives them; cutoff
    # and the book's responses root psi + load inside _first_crossing
    assert {caller for caller, _, _ in roots} == {
        "_served", "binding_ir_advance", "_first_crossing", "crossing_threshold",
        "solve_renegotiation"}
    assert all(given for _, given, _ in roots)


def test_support_end_psi_comes_from_the_cutoff_grid(monkeypatch):
    # psi at the support ends is read off cutoff's grid, so neither the
    # empty-set tests nor solve_cutoffs' clamps price it by a scalar call
    at_ends = []
    for mod in (bilateral, portfolio):
        def recorded(econ, theta, a, b1, psi=mod.virtual_surplus):
            if np.ndim(theta) == 0 and float(theta) in (econ.dist.lower,
                                                        econ.dist.upper):
                at_ends.append(float(theta))
            return psi(econ, theta, a, b1)
        monkeypatch.setattr(mod, "virtual_surplus", recorded)
    solve_cutoffs(symmetric_portfolio(1.0, 0.6))
    econ = benchmark(v=2.0, mu0=0.1)
    for b1 in (0.0, 0.5, 3.0, 9.0):
        bilateral.principal_value(econ, b1)
        _screening_slope(econ, [b1], 0.2, 0.5)
        bilateral.contingent_value(econ, b1)
    assert at_ends == []


@pytest.mark.parametrize("econ, terms", [
    (benchmark(v=2.0, mu0=0.1, R=1.0), (0.5, 0.5)),
    (benchmark(v=3.0, mu0=0.1, R=1.0), (0.1, 1.5)),
], ids=["upper_acceptance_root", "lower_acceptance_root"])
def test_served_roots_cost_one_evaluation_on_affine_primitives(monkeypatch, econ,
                                                               terms):
    # U and pi are affine in the type, so the secant step from the exact
    # end values lands on each root
    roots = _guarded_roots(monkeypatch)
    assert _served(econ, *terms) is not None
    assert roots == [("_served", True, 1), ("_served", True, 1)]


def test_served_interval_full_advance():
    econ = benchmark(v=2.0, mu0=0.0, K=1.0, R=1.0)
    span = served_interval(econ, 1.0, 0.0)
    assert span is not None
    lo, hi = span
    assert abs(lo - 0.5) < 1e-8  # profit turns positive at v*theta = a
    assert abs(hi - 1.0) < 1e-12


def test_contract_value_matches_closed_form():
    econ = benchmark(v=2.0, mu0=0.0, K=1.0, R=1.0)
    # full advance serves [1/2, 1]: integral of (2t - 1) dt = 1/4
    assert abs(contract_value(econ, 1.0) - 0.25) < 1e-10
    # panels is keyword-only: a call that still passes an intercept
    # before the slope raises instead of pricing the slope as panels
    with pytest.raises(TypeError):
        contract_value(econ, 1.0, 0.0, 2)


def test_sweep_rows_have_stable_schema():
    rows = sweep_R(benchmark(v=2.0, mu0=0.0, K=1.0, R=1.0), (0.5, 1.0))
    assert [r["R"] for r in rows] == [0.5, 1.0]
    for row in rows:
        assert set(row) == {"R", "a_star", "ell_star", "beta_star",
                            "phi_share"}
        assert abs(row["a_star"] + row["ell_star"] - 1.0) < 1e-9


BATCH_ECONOMIES = {
    "uniform": benchmark(v=2.0, mu0=0.1, K=1.0, R=1.0),
    "truncated_exponential": benchmark(v=2.5, mu0=0.2, K=1.1, R=0.7,
                                       signal_scale=0.7,
                                       dist=truncated_exponential(1.5)),
    "power": benchmark(v=2.2, mu0=0.05, K=0.9, R=2.0, signal_scale=1.3,
                       dist=power(1.7)),
}


# Phi = 0.15 * ell^2 tabulated on ell = 0, 0.5, 1: a node advance at 0.5, and
# rents are flat in the type at b1 = c'/mu' = 1
TABULATED = replace(benchmark(v=2.0, mu0=0.0, R=0.3),
                    financing=FinancingCost(tightness=0.0, kind="tabulated",
                                            nodes=((0.0, 0.5, 1.0),
                                                   (0.0, 0.0375, 0.15))))
FLAT_CORNER = benchmark(v=2.0, mu0=0.0, R=0.25)
# Bimodal types, where W(a) peaks twice inside the sweep between the
# binding advances on some slopes. An inner search that read dW/da only at
# the ends of each piece missed one of the peaks, and V(b1) dropped
BIMODAL_SWEEPS = {
    # _random_economies(12, 1)["random-11"]: V dropped for b1 in about
    # (0.02, 0.11)
    "bimodal_peak": benchmark(v=4.15656080012984, mu0=0.4622487663643663,
                              K=0.8683284008647664, R=2.31712514674395,
                              signal_scale=0.5540096911290127, dist=bimodal()),
    # _random_economies(20, 7)["random-7"]: V's slope reads + - + on its
    # one piece [0, c'/mu']; a scan of 2 or 3 points sees no fall and
    # quotes the kink c'/mu', 9.8e-3 below the peak at b1 = 1.10, with the
    # branch flat
    "bimodal_two_peaks": benchmark(v=3.2945522016216393, mu0=0.04147614964185253,
                                   K=1.081447701666093, R=1.0029572214617097,
                                   signal_scale=0.4802396748845422, dist=bimodal()),
    # _random_economies(40, 1)["random-23"]: with V dropped, the outer
    # search stopped 1.4e-2 below the optimum
    "bimodal_missed_peak": benchmark(v=3.5808685041087456, mu0=0.36506758549269225,
                                     K=0.9634522986133867, R=1.2168914421046648,
                                     signal_scale=1.429121025194282, dist=bimodal()),
}
INNER_ECONOMIES = {**BATCH_ECONOMIES, "tabulated": TABULATED,
                   "flat_corner": FLAT_CORNER}


GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0  # inverse golden ratio


def _golden_max(f, a, b, abs_x):
    """Golden-section maximization on [a, b], to a bracket of width abs_x."""
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > abs_x:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def _golden_scan_max(f, lo, hi, abs_x, points):
    """Reference scalar maximizer: a uniform scan, golden section on the
    cells either side of its best point, then best_candidate's pick of
    both ends, that point and golden's point. Scan values within 1e-13
    relative tie, and the smallest x wins a tie."""
    if lo == hi:
        return lo, f(lo)
    xs = np.linspace(lo, hi, points).tolist()
    fs = [f(x) for x in xs]
    top = max(fs)
    i = min(k for k, fx in enumerate(fs) if fx >= top - 1e-13 * max(1.0, abs(top)))
    best = _golden_max(f, xs[max(i - 1, 0)], xs[min(i + 1, points - 1)], abs_x)
    return best_candidate([(xs[0], fs[0]), (xs[-1], fs[-1]), (xs[i], fs[i]), best])


def _golden_best_advance(econ, b1, points=17, panels=128):
    """Reference inner search: a uniform scan of [0, K], golden section
    around its best point, then the corners and participation roots."""
    K = econ.working_capital
    d = econ.dist

    def val(a):
        return contract_value(econ, a, b1, panels=panels)

    xs = np.linspace(0.0, K, points)
    i = int(np.argmax([val(float(x)) for x in xs]))
    best = _golden_scan_max(val, float(xs[max(i - 1, 0)]),
                            float(xs[min(i + 1, points - 1)]), 1e-11, 9)
    cands = sorted({0.0, K, binding_ir_advance(econ, b1, d.lower),
                    binding_ir_advance(econ, b1, d.upper)})
    return best_candidate([best] + [(c, val(c)) for c in cands])


@pytest.mark.parametrize("name", sorted(BATCH_ECONOMIES))
def test_contract_values_match_contract_value(name):
    # every value the mixed program reports is contract_value at the
    # contract it reports, with the same Simpson panels
    econ = BATCH_ECONOMIES[name]
    K = econ.working_capital
    panels = bilateral._MIXED_PANELS
    assert contract_value(econ, 0.0, 0.0, panels=panels) == 0.0  # nobody accepts
    for b1 in np.linspace(0.0, flat_rent_slope(econ), 5).tolist():
        a, v, _ = _best_advance(econ, b1)
        assert 0.0 <= a <= K
        assert v == contract_value(econ, a, b1, panels=panels), b1
    sol = bilateral.solve_mixed(econ)
    c = sol.contract
    assert sol.value == contract_value(econ, c.advance, c.slope, panels=panels)
    assert sol.implemented == served_interval(econ, c.advance, c.slope)


@pytest.mark.parametrize("name", sorted({**INNER_ECONOMIES, **BIMODAL_SWEEPS}))
def test_best_advances_equal_the_scalar_search(name):
    # the kink search against the reference scan-and-golden search
    econ = {**INNER_ECONOMIES, **BIMODAL_SWEEPS}[name]
    b1_flat = flat_rent_slope(econ)
    # b1_flat is a kink that solve_mixed prices; there U does not vary with
    # the type and W(a) jumps at the participation root
    for b1 in [b for b in (0.0, 0.2, 0.55, 1.0, 1.7) if b < b1_flat] + [b1_flat]:
        a, v, _ = _best_advance(econ, b1)
        a_ref, v_ref = _golden_best_advance(econ, b1)
        assert abs(v - v_ref) <= 1e-10, (b1, a, v, a_ref, v_ref)


def test_best_advance_prices_the_accepting_side_at_the_flat_slope():
    # U is level in the type at b1 = 1; find_root's participation root
    # may lie a hair below the root, where nobody accepts and W = 0
    for econ, value in ((FLAT_CORNER, 0.5 * closed_form_ell_star(0.25) ** 2),
                        (TABULATED, 0.385047896709704)):
        a, v, _ = _best_advance(econ, 1.0)
        assert abs(v - value) < 1e-9, (value, v)
        assert served_interval(econ, a, 1.0)[1] == econ.dist.upper
    # the node advance K - 0.5 is a kink of the tabulated W(a)
    assert 0.5 in _advance_kinks(TABULATED, 0.6)[0]


@pytest.mark.parametrize("name", sorted(INNER_ECONOMIES))
def test_advance_slope_matches_a_central_difference(name):
    econ = INNER_ECONOMIES[name]
    h = 1e-4
    for b1 in np.linspace(0.0, flat_rent_slope(econ), 6)[:-1]:
        kinks = sorted(_advance_kinks(econ, b1)[0])
        for lo, hi in zip(kinks[:-1], kinks[1:]):
            if hi - lo < 100 * h:
                continue
            for a in np.linspace(lo, hi, 5)[1:-1]:
                slope = _directional_slope(econ, b1, a, 1.0, 0.0)
                w = [contract_value(econ, a + k * h, b1, panels=512)
                     for k in (-2, -1, 1, 2)]
                if slope is None:  # nobody is served: W rests at 0
                    assert w == [0.0] * 4
                else:
                    # fourth-order central difference
                    diff = (w[0] - 8.0 * w[1] + 8.0 * w[2] - w[3]) / (12.0 * h)
                    assert abs(slope - diff) < 1e-9, (b1, a)


def _recorded_roots(monkeypatch):
    """Record each root that numerics.maximize_on_pieces finds."""
    roots = []
    root = numerics._false_position

    def recorded(*args):
        roots.append(root(*args))
        return roots[-1]
    monkeypatch.setattr(numerics, "_false_position", recorded)
    return roots


@pytest.mark.parametrize("econ, reached", [
    (benchmark(v=2.0, mu0=0.1, R=0.1), False),
    # a steep type density: few types at the top, so past the start of
    # service W(a) peaks inside the piece before everyone accepts; on some
    # slopes nobody is served at the piece's left end
    (benchmark(v=2.0, mu0=0.1, R=0.1, dist=truncated_exponential(5.0)), True),
], ids=["uniform", "truncated_exponential"])
def test_stationary_advances_zero_the_slope_and_win_only_when_interior(
        monkeypatch, econ, reached):
    # the stationary advances are the roots maximize_on_pieces finds
    roots = _recorded_roots(monkeypatch)
    wins = 0
    for b1 in np.linspace(0.0, flat_rent_slope(econ), 9):
        kinks, _ = _advance_kinks(econ, b1)
        roots.clear()
        a, v, _ = _best_advance(econ, b1)
        stationary = list(roots)
        assert abs(v - _golden_best_advance(econ, b1)[1]) <= 1e-10, b1
        v_kink = max(contract_value(econ, k, b1) for k in kinks)
        for a_s in stationary:
            assert abs(_directional_slope(econ, b1, a_s, 1.0, 0.0)) < 1e-9
            assert contract_value(econ, a_s, b1) <= v + 1e-12 * max(1.0, v)
            wins += a == a_s and v > v_kink + 1e-3
    assert (wins > 0) is reached


def test_stationary_advances_root_in_few_slope_calls(monkeypatch):
    # on the steep economy W(a) peaks inside the sweep at these slopes: the
    # 2-point scan costs 2 dW/da calls, and the Illinois step roots the
    # peak from the scan's two end values; find_root's secant step, which
    # pays for a forced bisection whenever one end stays fixed, needs 19-20
    econ = MIXED_ECONOMIES["steep"]
    calls = _counted(monkeypatch, "_directional_slope")
    for b1 in (0.2, 0.5, 0.8):
        calls.clear()
        _best_advance(econ, b1)
        assert len(calls) <= 15, (b1, len(calls))


def test_rent_tail_closed_form_with_and_without_signal_slope(curved_signal_pair):
    # mu' = 1 + t on uniform types: integral of (1 + t)(1 - t) from x to 1
    for x in (0.0, 0.3, 0.8, 1.0):
        exact = 2.0 / 3.0 - x + x ** 3 / 3.0
        without, with_prime = (rent_tail(e, x, 128) for e in curved_signal_pair)
        assert abs(with_prime - exact) < 1e-12
        assert abs(without - exact) < 1e-8


def test_screening_integral_closed_form_and_empty_tail(bench_mu0):
    # psi = (1 + b1) t - Phi(K - a) - b1 on the benchmark with mu0 = 0
    a, b1, x = 0.2, 0.5, 0.6
    phi = 0.5 * (1.0 - a) ** 2
    exact = 0.5 * (1.0 + b1) * (1.0 - x * x) - (phi + b1) * (1.0 - x)
    assert abs(screening_integral(bench_mu0, x, a, b1) - exact) < 1e-12
    assert screening_integral(bench_mu0, 1.0, a, b1) == 0.0


def test_virtual_surplus_differences_the_signal_as_one_array(curved_signal_pair):
    econ, _ = curved_signal_pair  # no mu' closure: the slope is differenced
    calls = {"array": 0, "scalar": 0}

    def counted(t, mu=econ.signal_mean):
        calls["array" if np.ndim(t) else "scalar"] += 1
        return mu(t)

    virtual_surplus(replace(econ, signal_mean=counted),
                    np.linspace(0.0, 1.0, 257), 0.3, 0.7)
    assert calls == {"array": 2, "scalar": 0}


@pytest.mark.parametrize("dist", [None, truncated_exponential(1.5), power(0.7)],
                         ids=["uniform", "truncated_exponential", "power"])
def test_binding_slope_inverts_binding_ir_advance(dist):
    econ = benchmark(v=2.0, mu0=0.1, K=1.0, R=1.0, dist=dist)
    for theta in (None, econ.dist.lower, 0.4):
        t = econ.dist.lower if theta is None else theta
        mu_t, c_t = float(econ.signal_mean(t)), float(econ.cost(t))
        for b1 in (0.2, 0.6, 1.0):
            a = binding_ir_advance(econ, b1, theta)
            assert 0.0 < a < econ.working_capital
            back = binding_slope(econ, a, theta)
            assert abs(back - b1) < 1e-8
            # the recovered slope makes participation bind at a exactly
            gap = a + back * mu_t - c_t - 0.5 * (1.0 - a) ** 2
            assert abs(gap) < 1e-15
            assert abs(binding_ir_advance(econ, back, theta) - a) < 1e-10


def test_flat_signal_has_no_binding_or_flat_rent_slope():
    flat = benchmark(signal_kind="flat")
    assert math.isnan(binding_slope(flat, 0.3))
    assert math.isnan(binding_slope(flat, 0.3, 0.6))
    assert flat_rent_slope(flat) is None
    assert slope_cap(flat) == 10.0
    # c' = 1 and mu' = 2 on this affine benchmark
    assert flat_rent_slope(benchmark(mu0=0.1, signal_scale=2.0)) == 0.5


def test_solve_mixed_rejects_a_negative_flat_rent_slope():
    # c' = -0.3 against mu' = 1: rents fall in the slope everywhere
    econ = replace(benchmark(v=2.0, mu0=0.5),
                   cost=lambda t: 0.6 - 0.3 * np.asarray(t, float),
                   cost_prime=lambda t: -0.3 * np.ones_like(np.asarray(t, float)))
    assert abs(flat_rent_slope(econ) + 0.3) < 1e-12
    with pytest.raises(DomainError, match="flat-rent slope"):
        solve_mixed(econ)


@pytest.mark.parametrize("econ, expected", [
    (benchmark(signal_scale=0.0),
     "MixedSolution(contract=Contract(advance=1.0, slope=0.0), "
     "implemented=(0.5, 1.0), value=0.25, branch='uninformative')"),
    (benchmark(v=3.0, R=0.5, signal_kind="flat", dist=truncated_exponential(1.5)),
     "MixedSolution(contract=Contract(advance=1.0, slope=0.0), "
     "implemented=(0.33333333333333337, 1.0), value=0.4126053842377843, "
     "branch='uninformative')"),
], ids=["zero_scale", "flat_signal"])
def test_solve_mixed_searches_only_the_zero_slope_without_a_flat_rent_slope(
        monkeypatch, econ, expected):
    # no flat-rent slope leaves the one kink b1 = 0: one inner search,
    # and the pure-advance choice, pinned to its last digit
    searches = _counted(monkeypatch, "_best_advance")
    assert repr(solve_mixed(econ)) == expected
    assert [b1 for _, b1 in searches] == [0.0]


@pytest.mark.parametrize("dist", [None, truncated_exponential(1.5), power(1.7)],
                         ids=["uniform", "truncated_exponential", "power"])
def test_dropped_slope_candidates_never_win(dist):
    # 0, b1_flat and the screening slope were once compared with the
    # refined slope after the scan; none of them would replace b1*
    for mu0 in (0.0, 0.2):
        for R in (0.5, 2.0):
            econ = benchmark(v=2.0, mu0=mu0, R=R, dist=dist)
            sol = solve_mixed(econ)
            b1_star, v_star = sol.contract.slope, sol.value
            b1_flat = flat_rent_slope(econ)
            # the screening program divides by f(lower) = 0 on power types
            with np.errstate(divide="ignore", invalid="ignore"):
                b1_screening = solve_optimal(econ).contract.slope
            cands = {0.0, b1_flat, b1_screening}
            band = 1e-12 * max(1.0, abs(v_star))
            for c in sorted(x for x in cands if 0.0 <= x <= b1_flat):
                v_c = _best_advance(econ, c)[1]
                assert v_c <= v_star + band, (mu0, R, c, v_c, v_star)
                assert not (abs(v_c - v_star) <= band and c < b1_star), (mu0, R, c)


def test_solve_mixed_searches_each_slope_once(monkeypatch, bench_informative):
    def no_screening(econ):
        raise AssertionError("the mixed program ran a screening solve")

    slopes = []
    search = bilateral._best_advance

    def recorded(econ, b1):
        slopes.append(b1)
        return search(econ, b1)

    monkeypatch.setattr(bilateral, "solve_optimal", no_screening)
    monkeypatch.setattr(bilateral, "_best_advance", recorded)
    # b1* roots dV/db1 at the informative benchmark and is the top kink
    # c'/mu' at the loose-credit one. Both values have one piece: its 9
    # scan points and 2 kinks, plus the root's steps at the informative
    # benchmark. The scan-and-Brent search took 56 and 71 inner searches
    for econ, interior, budget in ((bench_informative, True, 20),
                                   (FLAT_CORNER, False, 11)):
        slopes.clear()
        sol = bilateral.solve_mixed(econ)
        b1_flat = flat_rent_slope(econ)
        assert _slope_kinks(econ, b1_flat, [econ.dist.lower, econ.dist.upper]) \
            == [0.0, b1_flat]
        assert len(slopes) == len(set(slopes))
        assert len(slopes) <= budget
        assert b1_flat in slopes
        assert sol.contract.slope in slopes
        assert (sol.branch == "flat") is not interior
        if interior:
            b1 = sol.contract.slope
            a, _, rate = search(econ, b1)
            assert abs(_directional_slope(econ, b1, a, rate, 1.0)) < 1e-9
        else:
            assert sol.contract.slope == b1_flat


def _log_concave_economies(n, seed):
    """n seeded benchmark draws on uniform, truncated-exponential (rate
    0.2-9) and power (exponent 1-4) types."""
    rng = np.random.default_rng(seed)
    out = {}
    for i in range(n):
        dist = (None, truncated_exponential(float(rng.uniform(0.2, 9.0))),
                power(float(rng.uniform(1.0, 4.0))))[i % 3]
        out[f"log_concave-{i}"] = benchmark(
            v=float(rng.uniform(1.5, 4.5)), mu0=float(rng.uniform(0.0, 0.7)),
            K=float(rng.uniform(0.5, 2.0)), R=float(rng.uniform(0.05, 3.0)),
            signal_scale=float(rng.uniform(0.3, 1.5)), dist=dist)
    return out


LOG_CONCAVE_ECONOMIES = _log_concave_economies(30, 11)


@pytest.mark.parametrize("name", sorted(LOG_CONCAVE_ECONOMIES))
def test_log_concave_advance_scan_matches_the_full_scan(name):
    # on a log-concave type density the inner search scans dW/da at the
    # two ends of each piece; the scan at _SLOPE_POINTS per piece is the
    # reference, with the same kinks, slope and values
    econ = LOG_CONCAVE_ECONOMIES[name]
    assert econ.dist.log_concave
    b1_flat = flat_rent_slope(econ)
    for b1 in np.linspace(0.0, b1_flat, 6)[:-1].tolist() + [b1_flat]:
        kinks, (a_lo, a_hi) = _advance_kinks(econ, b1)

        def slope(a):
            return _directional_slope(econ, b1, a, 1.0, 0.0) if a_lo < a < a_hi else None

        _, v_ref = numerics.maximize_on_pieces(
            lambda a: contract_value(econ, a, b1, panels=bilateral._MIXED_PANELS),
            lambda xs: [slope(a) for a in xs], sorted(kinks), bilateral._SLOPE_POINTS)
        _, v, _ = _best_advance(econ, b1)
        assert abs(v - v_ref) <= 1e-12, (b1, v, v_ref)


def test_inner_search_scans_two_points_per_piece_on_uniform_types(monkeypatch,
                                                                 bench_informative):
    # W(a) peaks at a kink on every slope here, so each inner search reads
    # dW/da at the two ends of the sweep's one piece and roots nothing; a
    # scan at _SLOPE_POINTS would read 9
    slopes = _counted(monkeypatch, "_directional_slope")
    search = bilateral._best_advance
    per_search = []

    def counted(econ, b1):
        slopes.clear()
        out = search(econ, b1)
        per_search.append(sum(args[3:] == (1.0, 0.0) for args in slopes))
        return out

    monkeypatch.setattr(bilateral, "_best_advance", counted)
    solve_mixed(bench_informative)
    assert len(per_search) >= 10
    assert max(per_search) <= 2, per_search


def _golden_mixed(econ):
    """Reference (value, branch) of solve_mixed: a 33-point slope scan, then
    golden section to 1e-9 around its best point."""
    b1_flat = flat_rent_slope(econ)
    b1, v = _golden_scan_max(lambda b1: _best_advance(econ, b1)[1], 0.0, b1_flat,
                             1e-9, 33)
    return v, "flat" if abs(b1 - b1_flat) <= 1e-9 else "decreasing"


# the benchmark's economy classes (uniform, truncated-exponential and power
# types at two points each, no-contract, floor-rent) and a flat corner
CLASS_ECONOMIES = {
    **{f"{name}-{level}": benchmark(dist=d, mu0=mu0, R=R)
       for name, d in (("uniform", None),
                       ("truncated_exponential", truncated_exponential(1.5)),
                       ("power", power(0.7)))
       for level, (mu0, R) in (("low", (0.1, 1.0)), ("high", (0.25, 1.8)))},
    "no_contract": benchmark(v=1.35, mu0=0.075, R=4.5),
    "floor_rent": benchmark(v=2.5, mu0=0.26, R=0.3, signal_scale=0.65),
    "flat_corner": FLAT_CORNER,
}


def _fourth_order_difference(f, x, h):
    """The values f(x + k h), k = -2, -1, 1, 2, and their derivative estimate."""
    w = [f(x + k * h) for k in (-2, -1, 1, 2)]
    return w, (w[0] - 8.0 * w[1] + 8.0 * w[2] - w[3]) / (12.0 * h)


# a tabulated Phi with slopes 1.2 and 1.8 and an informative lowest type:
# the advance reaches the node K - 0.5 at b1 = (Phi(0.5) - 0.5) / mu(0) = 0.5
# and 0 at b1 = Phi(1) / mu(0) = 7.5, inside the cap of 10
TABULATED_KINKS = replace(benchmark(v=2.0, mu0=0.2),
                          financing=FinancingCost(tightness=0.0, kind="tabulated",
                                                  nodes=((0.0, 0.5, 1.0),
                                                         (0.0, 0.6, 1.5))))


MIXED_ECONOMIES = {
    **CLASS_ECONOMIES,
    # a node slope among the outer kinks
    "tabulated": TABULATED_KINKS,
    # the inner root branch wins, and the mixed value has 4 kinks
    "steep": benchmark(v=2.0, mu0=0.1, R=0.1, dist=truncated_exponential(5.0)),
    # bimodal types: V falls on its one piece, and b1* = 0
    "bimodal": benchmark(v=1.7170449188658876, mu0=0.16055958273827126,
                         K=1.4803321539808287, R=2.0881841584868504,
                         signal_scale=1.3471502463658693, dist=bimodal()),
    **BIMODAL_SWEEPS,
    # tight credit and weak surplus on uniform types: an outer scan of dV/db1
    # at 2 points per piece instead of 9 stops 1.6e-3 and 1.1e-3 below the
    # optimum
    "tight_low_floor": benchmark(v=1.5, mu0=0.1, R=3.0),
    "tight_high_floor": benchmark(v=1.5, mu0=0.3, R=3.0),
}


@pytest.mark.parametrize("name", sorted(MIXED_ECONOMIES))
def test_solve_mixed_matches_a_golden_slope_refinement(name):
    econ = MIXED_ECONOMIES[name]
    sol = solve_mixed(econ)
    v_golden, branch_golden = _golden_mixed(econ)
    assert abs(sol.value - v_golden) <= 1e-10
    assert sol.branch == branch_golden


@pytest.mark.parametrize("name", sorted(CLASS_ECONOMIES) + ["steep", "tabulated"])
def test_screening_slopes_match_a_central_difference(name):
    # dW/db1 of the screening program along the manifold, dW_C/db1 of
    # the zero-advance contract and dV/db1 of the mixed value along its
    # winning regime, inside each piece between kinks. The first two
    # agree to 1e-9. The mixed value is a 128-panel Simpson integral,
    # whose error moves with b1 by up to 9e-9 on the steep density (it
    # falls as panels^-4), so its slope is held to 5e-8
    econ = MIXED_ECONOMIES[name]
    h = 1e-4
    cap = slope_cap(econ)
    def manifold_slope(e, b):
        return _manifold_slope(e, [b])[0]

    def contingent_slope(e, b):
        return _screening_slope(e, [b], 0.0, 0.0)[0]

    def mixed_slope(e, b):
        a, _, rate = _best_advance(e, b)
        return _directional_slope(e, b, a, rate, 1.0)

    searches = ((lambda b: bilateral.principal_value(econ, b)[0], manifold_slope,
                 _slope_kinks(econ, cap, [econ.dist.lower]), 1e-9),
                (lambda b: bilateral.contingent_value(econ, b), contingent_slope,
                 [0.0, cap], 1e-9),
                (lambda b: _best_advance(econ, b)[1],
                 mixed_slope,
                 _slope_kinks(econ, flat_rent_slope(econ),
                              [econ.dist.lower, econ.dist.upper]), 5e-8))
    # the screening values divide by f(lower) = 0 on power types
    with np.errstate(divide="ignore", invalid="ignore"):
        for value, slope, kinks, tol in searches:
            for lo, hi in zip(kinks[:-1], kinks[1:]):
                if hi - lo < 100 * h:
                    continue
                for b1 in np.linspace(lo, hi, 5)[1:-1]:
                    s = slope(econ, b1)
                    w, diff = _fourth_order_difference(value, b1, h)
                    if s is None:  # nobody is served: W rests at 0
                        assert w == [0.0] * 4
                    else:
                        assert abs(s - diff) < tol, (slope.__name__, b1, s, diff)


def test_screening_slope_kinks():
    econ = BATCH_ECONOMIES["uniform"]
    cap = slope_cap(econ)
    # the advance reaches 0 at b1 = Phi(K) / mu(0) = 5, half the cap of 10;
    # it would reach K at a negative slope
    assert _slope_kinks(econ, cap, [econ.dist.lower]) == [0.0, 5.0, 10.0]
    assert binding_ir_advance(econ, 5.0) == 0.0
    # the advances every slope's kinks come from: 0, K and the node advances
    assert _fixed_advances(econ) == [0.0, 1.0]
    assert _fixed_advances(TABULATED_KINKS) == [0.0, 1.0, 0.5]
    # a flat lowest-type signal pins no slope: only the ends remain
    assert _slope_kinks(benchmark(mu0=0.0), 10.0, [0.0]) == [0.0, 10.0]
    # a tabulated Phi adds the slope of its node advance K - 0.5
    assert slope_cap(TABULATED_KINKS) == 10.0
    assert _slope_kinks(TABULATED_KINKS, 10.0, [0.0]) == pytest.approx(
        [0.0, 0.5, 7.5, 10.0], abs=1e-14)
    # the mixed value's kinks on [0, c'/mu'] = [0, 1] add the highest
    # type's: its node slope is (c(1) + Phi(0.5) - 0.5) / mu(1) = 11/12
    assert _slope_kinks(TABULATED_KINKS, 1.0, [0.0, 1.0]) == pytest.approx(
        [0.0, 0.5, 11 / 12, 1.0], abs=1e-14)


BIMODAL = benchmark(v=4.351, mu0=0.6616, K=1.5748, R=1.2857, signal_scale=0.6979,
                    dist=bimodal())


def test_screening_search_roots_a_local_peak_that_the_zero_slope_beats(monkeypatch):
    # on bimodal types the first piece's slope reads - + -: the cutoff
    # jumps between the modes, then W rises to a local peak and falls
    econ = BIMODAL
    kinks = _slope_kinks(econ, slope_cap(econ), [econ.dist.lower])
    h = numerics._NUDGE * (kinks[-1] - kinks[0])
    lo, hi = kinks[0] + h, kinks[1] - h
    signs = [np.sign(s) for s in _manifold_slope(econ, np.linspace(lo, hi, 33).tolist())]
    assert [s for s, _ in itertools.groupby(signs)] == [-1.0, 1.0, -1.0]
    roots = _recorded_roots(monkeypatch)
    sol = solve_optimal(econ)
    peaks = [r for r in roots if lo < r < hi]
    assert len(peaks) == 1
    assert abs(_manifold_slope(econ, [peaks[0]])[0]) < 1e-9
    assert bilateral.principal_value(econ, peaks[0])[0] < sol.value
    assert sol.contract.slope == 0.0 and sol.boundary_flag == "corner_b1_zero"


def _random_economies(n, seed):
    """n seeded benchmark draws over the four type families, bimodal included."""
    rng = np.random.default_rng(seed)
    out = {}
    for i in range(n):
        dist = (None, truncated_exponential(float(rng.uniform(0.3, 6.0))),
                power(float(rng.uniform(1.0, 2.5))), bimodal())[i % 4]
        out[f"random-{i}"] = benchmark(
            v=float(rng.uniform(1.5, 4.5)), mu0=float(rng.uniform(0.0, 0.7)),
            K=float(rng.uniform(0.5, 2.0)), R=float(rng.uniform(0.05, 3.0)),
            signal_scale=float(rng.uniform(0.3, 1.5)), dist=dist)
    return out


SCREENING_ECONOMIES = {
    **CLASS_ECONOMIES,
    "flat_signal": benchmark(v=2, mu0=0.0, K=1.0, R=1.0, signal_kind="flat"),
    # bilateral_sweep's seed-2 op 8: the optimum sits on the kink where
    # the advance reaches 0, where a scan plus Brent's method once spent
    # more calls than golden section
    "kink_optimum": benchmark(v=2.56, mu0=0.152, R=1.557, signal_scale=1.008,
                              dist=truncated_exponential(1.471)),
    **_random_economies(10, 1),
}


def _counted(monkeypatch, name):
    """Record the arguments of every call to bilateral.<name>."""
    calls = []
    fn = getattr(bilateral, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)
    monkeypatch.setattr(bilateral, name, counted)
    return calls


@pytest.mark.parametrize("name", sorted(SCREENING_ECONOMIES))
def test_screening_searches_match_a_golden_reference(monkeypatch, name):
    # solve_optimal and pure_contingent_value against golden section in
    # value, boundary flag and evaluations: the derivative searches may
    # not spend more value calls and slope lanes than golden section's
    # values
    econ = SCREENING_ECONOMIES[name]
    cap = slope_cap(econ)
    principal = _counted(monkeypatch, "principal_value")
    contingent = _counted(monkeypatch, "contingent_value")
    slopes = _counted(monkeypatch, "_manifold_slope")
    # _manifold_slope calls _screening_slope too: cleared before the
    # zero-advance search, this counts that search's slopes alone
    contingent_slopes = _counted(monkeypatch, "_screening_slope")
    # the screening values divide by f(lower) = 0 on power types
    with np.errstate(divide="ignore", invalid="ignore"):
        b1_ref, w_ref = _golden_scan_max(
            lambda b1: bilateral.principal_value(econ, b1)[0], 0.0, cap, 1e-10, 65)
        n_ref = len(principal)
        empty_ref = bilateral.principal_value(econ, b1_ref)[1]["empty_set"]
        principal.clear()
        sol = solve_optimal(econ)
        a_ref = binding_ir_advance(econ, b1_ref)
        _, v_ref = _golden_scan_max(lambda b1: bilateral.contingent_value(econ, b1),
                                    0.0, cap, 1e-10, 65)
        n_ref_c = len(contingent)
        contingent.clear()
        contingent_slopes.clear()
        v = pure_contingent_value(econ)
    def lanes(calls):  # the slopes take one list of points per call
        return sum(len(args[1]) for args in calls)

    assert len(principal) + lanes(slopes) <= n_ref
    assert abs(sol.value - w_ref) <= 1e-12
    if empty_ref:
        # W rests at 0 on a plateau of empty service sets, where golden
        # section quotes some point of it and the search quotes a kink
        assert sol.value == 0.0 and sol.decomposition["empty_set"] == 1.0
        assert sol.contract.slope in _slope_kinks(econ, cap, [econ.dist.lower])
    else:
        assert sol.boundary_flag == ("corner_b1_zero" if b1_ref <= 1e-9 else
                                     "corner_a_zero" if a_ref <= 1e-9 else "interior")
    if name == "flat_signal":
        assert sol.contract.slope == 0.0  # verify's uninformative_corner check
    assert len(contingent) + lanes(contingent_slopes) <= n_ref_c
    assert abs(v - v_ref) <= 1e-12


# stationary points of dW/db1 along the participation manifold, inside a
# piece and with 0 < a < K: an economy and a slope bracket holding one root
# of _manifold_slope, a trough or on bimodal types the local peak (its
# other sign change, near b1 = 0.7, is the cutoff's jump between modes)
STATIONARY_POINTS = {
    "uniform": (BATCH_ECONOMIES["uniform"], (1.25, 1.41)),
    "truncated_exponential": (BATCH_ECONOMIES["truncated_exponential"], (0.79, 0.87)),
    "power": (BATCH_ECONOMIES["power"], (3.4, 3.8)),
    "bimodal_peak": (BIMODAL, (1.43, 1.51)),
}


def _solution_at(econ, b1):
    """The screening program's solution object at slope b1, advance on the manifold."""
    a = binding_ir_advance(econ, b1)
    w, decomp, that = bilateral._screening_value(econ, a, b1)
    return bilateral.BilateralSolution(Contract(a, b1), that, w, decomp,
                                       "interior")


@pytest.mark.parametrize("name", sorted(STATIONARY_POINTS))
def test_sufficient_statistics_balance_at_stationary_points(name):
    # where dW/db1 along the manifold vanishes, relief equals screening
    # cost: the residual holds the cutoff fixed, as dW/db1 does
    econ, (lo, hi) = STATIONARY_POINTS[name]
    # the screening values divide by f(lower) = 0 on power types
    with np.errstate(divide="ignore", invalid="ignore"):
        b1 = numerics.find_root(lambda b: _manifold_slope(econ, [b])[0],
                                numerics.Bracket(lo, hi))
        assert abs(_manifold_slope(econ, [b1])[0]) <= 1e-9
        sol = _solution_at(econ, b1)
        stats = sufficient_statistics(econ, sol)
    assert 0.0 < sol.contract.advance < econ.working_capital
    assert abs(stats["residual"]) <= 1e-8, stats
    assert abs(stats["marginal_screening_cost"]
               - stats["marginal_financing_relief"]) <= 1e-8


@pytest.mark.parametrize("name", sorted(BATCH_ECONOMIES) + ["bimodal"])
def test_sufficient_statistics_residual_is_the_manifold_slope(name):
    # residual * tail is the value's slope in the advance along the
    # manifold; times a'(b1) = ir_slope it is dW/db1, held against a
    # fourth-order difference of principal_value at interior points
    econ = {**BATCH_ECONOMIES, "bimodal": BIMODAL}[name]
    h = 1e-4
    kinks = _slope_kinks(econ, slope_cap(econ), [econ.dist.lower])
    checked = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        for lo, hi in zip(kinks[:-1], kinks[1:]):
            for b1 in np.linspace(lo, hi, 5)[1:-1]:
                sol = _solution_at(econ, b1)
                a = sol.contract.advance
                if not 0.0 < a < econ.working_capital:
                    continue
                stats = sufficient_statistics(econ, sol)
                tail = 1.0 - float(econ.dist.cdf(sol.cutoff))
                _, diff = _fourth_order_difference(
                    lambda b: bilateral.principal_value(econ, b)[0], b1, h)
                slope = stats["residual"] * tail * ir_slope(econ, a)
                assert abs(slope - diff) <= 1e-6, (b1, slope, diff)
                checked += 1
    assert checked >= 3


def test_sufficient_statistics_are_nan_without_a_pinned_slope_or_a_tail():
    # mu(0) = 0 leaves the slope unpinned on a served tail; no_contract
    # serves nobody, so its tail is empty
    for econ, served in ((benchmark(mu0=0.0), True),
                         (CLASS_ECONOMIES["no_contract"], False)):
        sol = solve_optimal(econ)
        assert (sol.cutoff < econ.dist.upper) is served
        stats = sufficient_statistics(econ, sol)
        assert np.isfinite(stats["marginal_financing_relief"])
        assert math.isnan(stats["marginal_screening_cost"])
        assert math.isnan(stats["residual"])
        assert stats["corner"]


def _lane_economies():
    """MIXED_ECONOMIES and seeded draws on power (exponent 0.7) and
    bimodal (sd 0.01) types."""
    rng = np.random.default_rng(21)
    out = dict(MIXED_ECONOMIES)
    for i in range(3):
        for name, dist in (("power", power(0.7)), ("bimodal_narrow", bimodal(sd=0.01))):
            out[f"{name}-{i}"] = benchmark(
                v=float(rng.uniform(1.3, 4.5)), mu0=float(rng.uniform(0.0, 0.7)),
                K=float(rng.uniform(0.5, 2.0)), R=float(rng.uniform(0.05, 5.0)),
                signal_scale=float(rng.uniform(0.3, 1.5)), dist=dist)
    return out


LANE_ECONOMIES = _lane_economies()


def _bits(values):
    """repr of each value: tells -0.0 from 0.0, and nan equals nan."""
    return [repr(float(v)) if v is not None else "None" for v in values]


def test_batched_lanes_equal_their_one_lane_calls():
    # the slope scans price every scan point of a piece as one lane of a
    # batch; each lane must be bit for bit the call with that point alone
    kinds = set()
    for name, econ in sorted(LANE_ECONOMIES.items()):
        cap = slope_cap(econ)
        b1s = sorted({*np.linspace(0.0, cap, 13).tolist(),
                      *_slope_kinks(econ, cap, [econ.dist.lower])})
        a = np.array([binding_ir_advance(econ, b) for b in b1s])
        b = np.array(b1s)
        rate = np.array([ir_slope(econ, x) if 0.0 < x < econ.working_capital else 0.0
                         for x in a.tolist()])
        # the screening values divide by f(lower) = 0 on power types
        with np.errstate(divide="ignore", invalid="ignore"):
            manifold = _manifold_slope(econ, b1s)
            assert _bits(manifold) == _bits(_manifold_slope(econ, [x])[0]
                                            for x in b1s), name
            contingent = _screening_slope(econ, b1s, 0.0, 0.0)
            assert _bits(contingent) == _bits(_screening_slope(econ, [x], 0.0, 0.0)[0]
                                              for x in b1s), name
            # one more lane at (K, 0), where psi(lower) = V - c = 0 serves all
            a, b = np.append(a, econ.working_capital), np.append(b, 0.0)
            rate = np.append(rate, 0.0)
            lanes = cutoff(econ, a, b)
            single = [cutoff(econ, x, y) for x, y in zip(a.tolist(), b.tolist())]
            assert [_bits(col) for col in lanes] == [_bits(col) for col in zip(*single)]
            # a book's loads, one per lane: with one contract for every
            # lane, and with a contract per lane
            loads = np.linspace(-1.0, 1.0, len(a))
            x0, y0 = float(a[len(a) // 2]), float(b[len(b) // 2])
            for per_load, one_load in (
                    (cutoff(econ, x0, y0, loads),
                     [cutoff(econ, x0, y0, w) for w in loads.tolist()]),
                    (cutoff(econ, a, b, loads),
                     [cutoff(econ, x, y, w)
                      for x, y, w in zip(a.tolist(), b.tolist(), loads.tolist())])):
                assert [_bits(col) for col in per_load] \
                    == [_bits(col) for col in zip(*one_load)], name
                kinds.update("loaded_" + ("all_served" if t == econ.dist.lower else
                                          "top_cutoff" if t == econ.dist.upper
                                          else "rooted") for t in per_load[0].tolist())
            # psi at the support ends is virtual surplus on np.linspace's grid
            ts = np.linspace(econ.dist.lower, econ.dist.upper, 257)
            for (_, psi_lo, psi_hi), x, y in zip(single, a.tolist(), b.tolist()):
                psi = virtual_surplus(econ, ts, x, y)
                assert _bits([psi_lo, psi_hi]) == _bits([psi[0], psi[-1]]), name
            that = lanes[0]
            assert _bits(rent_tail(econ, that)) == _bits(rent_tail(econ, t)
                                                         for t in that.tolist())
            envelope = _envelope_slope(econ, that, a, rate, 1.0)
            assert _bits(envelope) == _bits(
                _envelope_slope(econ, that[k:k + 1], a[k:k + 1], rate[k:k + 1], 1.0)[0]
                for k in range(len(that)))
        for s, x in zip(manifold, a.tolist()):
            kinds.add("empty" if s is None else
                      "interior" if 0.0 < x < econ.working_capital else "clamp")
        kinds.update("all_served" if t == econ.dist.lower else "top_cutoff"
                     if t == econ.dist.upper else "rooted" for t in that.tolist())
    assert kinds == {"empty", "interior", "clamp", "all_served", "top_cutoff", "rooted",
                     "loaded_all_served", "loaded_top_cutoff", "loaded_rooted"}

