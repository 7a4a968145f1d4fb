"""Single-relationship contract design.

Two nested programs are solved here. The screening program
(solve_optimal) restricts attention to contracts whose participation
constraint binds for the lowest type, pays the advance unconditionally,
and maximizes expected virtual surplus net of the advance. The mixed
program (solve_mixed) prices an arbitrary advance/contingent pair at
actual payment flows, counts only types that accept and are worth
serving, and therefore nests the pure-advance and pure-contingent
benchmarks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .economy import (EconomyPrimitives, cost_slope, financing_cost,
                      marginal_ell, signal_slope, with_tightness)
from .errors import BracketError, DomainError
from .numerics import (Bracket, Tolerance, find_root, integrate,
                       maximize_on_pieces, maximize_scalar)

DEFAULT_TOL = Tolerance()
_SCREENING_PANELS = 512  # Simpson panels of the screening-program integrals
_SLOPE_POINTS = 9  # derivative scan per piece of the screening slope searches
_OUTER_POINTS = 33  # slope scan of the mixed program
_MIXED_PANELS = 128  # Simpson panels of each of its contract values
_ACCEPT_STEPS = 8  # steps that lift the all-accept kink to its accepting side


@dataclass(frozen=True)
class Contract:
    """Advance a paid up front, completion payment b0 + b1 * signal."""

    advance: float
    intercept: float = 0.0
    slope: float = 0.0

    def __post_init__(self):
        if self.advance < -1e-12 or self.intercept < -1e-12 or self.slope < -1e-12:
            raise DomainError("contract terms must be nonnegative")


@dataclass(frozen=True)
class BilateralSolution:
    """Screening-program solution and its value decomposition."""

    contract: Contract
    cutoff: float
    value: float
    decomposition: dict
    boundary_flag: str  # interior | corner_b1_zero | corner_a_zero


@dataclass(frozen=True)
class MixedSolution:
    """Mixed-program solution: value at actual flows over the served set."""

    contract: Contract
    implemented: tuple[float, float] | None  # served type interval, None if empty
    value: float
    branch: str  # rent profile: decreasing | flat | uninformative


# ---------------------------------------------------------------------------
# participation manifold


def binding_ir_advance(econ: EconomyPrimitives, b1: float,
                       theta: float | None = None) -> float:
    """Advance making type theta's participation bind, clamped to [0, K].

    theta defaults to the lowest type. Solves a + b1*mu(theta) =
    c(theta) + Phi(K - a); the left side net of the right is strictly
    increasing in a, so the root is unique.
    """
    if theta is None:
        theta = econ.dist.lower
    K = econ.working_capital
    mu_t = float(econ.signal_mean(theta))
    c_t = float(econ.cost(theta))

    def gap(a):
        return a + b1 * mu_t - c_t - financing_cost(econ.financing, K - a)

    if gap(0.0) >= 0.0:
        return 0.0
    if gap(K) <= 0.0:
        return K
    return find_root(gap, Bracket(0.0, K), DEFAULT_TOL)


def binding_slope(econ: EconomyPrimitives, a: float,
                  theta: float | None = None) -> float:
    """Slope making type theta's participation bind at advance a.

    The inverse of binding_ir_advance: b1 = (c(theta) + Phi(K - a) - a)
    / mu(theta), unclamped. theta defaults to the lowest type; nan when
    mu(theta) vanishes, where the manifold does not pin the slope.
    """
    if theta is None:
        theta = econ.dist.lower
    mu_t = float(econ.signal_mean(theta))
    if abs(mu_t) < 1e-12:
        return math.nan
    return (float(econ.cost(theta))
            + financing_cost(econ.financing, econ.working_capital - a) - a) / mu_t


def flat_rent_slope(econ: EconomyPrimitives) -> float | None:
    """Slope c'/mu' at the mid type, where rents stop falling in the type.

    None when the signal is uninformative there (|mu'| < 1e-12).
    """
    mid = 0.5 * (econ.dist.lower + econ.dist.upper)
    mu_p = signal_slope(econ, mid)
    if abs(mu_p) < 1e-12:
        return None
    return cost_slope(econ, mid) / mu_p


def ir_slope(econ: EconomyPrimitives, b1: float) -> float:
    """d a / d b1 along the binding participation manifold.

    Equals -mu(lo) / (1 + Phi'(K - a)); at a clamp the value is the
    one-sided derivative of the unclamped manifold. _screening_slope
    uses it off the clamps.
    """
    a = binding_ir_advance(econ, b1)
    mu_lo = float(econ.signal_mean(econ.dist.lower))
    phi_l = marginal_ell(econ.financing, econ.working_capital - a)
    return -mu_lo / (1.0 + phi_l)


def slope_cap(econ: EconomyPrimitives) -> float:
    """Upper end of the slope search range.

    Twice the slope at which the binding advance hits zero, capped at 10;
    the cap alone applies when the lowest type's signal is uninformative.
    """
    b_zero = binding_slope(econ, 0.0)
    return min(2.0 * b_zero, 10.0) if b_zero > 0 else 10.0


# ---------------------------------------------------------------------------
# virtual surplus and the screening program


def _wedge(econ, t):
    """(1 - F)/f elementwise."""
    t = np.asarray(t, dtype=float)
    return (1.0 - np.asarray(econ.dist.cdf(t), float)) / np.asarray(econ.dist.pdf(t), float)


def virtual_surplus(econ: EconomyPrimitives, theta, a: float, b1: float):
    """Pointwise virtual surplus of serving type theta under (a, b1).

    V - c - Phi(K - a) - b1 * mu' * (1 - F)/f; elementwise over theta.
    """
    t = np.asarray(theta, dtype=float)
    phi = financing_cost(econ.financing, econ.working_capital - a)
    out = (np.asarray(econ.surplus(t), float) - np.asarray(econ.cost(t), float)
           - phi - b1 * signal_slope(econ, t) * _wedge(econ, t))
    return float(out) if np.isscalar(theta) else out


def cutoff(econ: EconomyPrimitives, a: float, b1: float) -> float:
    """Lowest served type: first sign change of the virtual surplus.

    Returns the support's lower end when virtual surplus is nonnegative
    everywhere and its upper end when it is negative everywhere (empty
    service set).
    """
    d = econ.dist
    ts = np.linspace(d.lower, d.upper, 257)
    vals = virtual_surplus(econ, ts, a, b1)
    if vals[0] >= 0.0:
        return d.lower
    idx = np.nonzero(vals >= 0.0)[0]
    if idx.size == 0:
        return d.upper
    i = int(idx[0])
    return find_root(lambda t: float(virtual_surplus(econ, t, a, b1)),
                     Bracket(float(ts[i - 1]), float(ts[i])), DEFAULT_TOL)


def rent_schedule(econ: EconomyPrimitives, b1: float, theta: float) -> float:
    """Information rent of type theta: integral of b1*mu' - c' from the bottom."""
    lo = econ.dist.lower
    if theta <= lo:
        return 0.0
    return integrate(lambda t: b1 * signal_slope(econ, t) - cost_slope(econ, t),
                     lo, theta, panels=256)


def rent_tail(econ: EconomyPrimitives, x: float, panels: int = 512) -> float:
    """Integral of the pointwise mu' * (1 - F) from x to the top type."""
    d = econ.dist
    return integrate(lambda t: signal_slope(econ, t)
                     * (1.0 - np.asarray(d.cdf(t), float)), x, d.upper, panels)


def screening_integral(econ: EconomyPrimitives, x: float, a: float, b1: float,
                       panels: int = 512) -> float:
    """Integral of psi(t; a, b1) * f(t) over (x, upper]; 0 when x >= upper."""
    d = econ.dist
    if x >= d.upper:
        return 0.0
    return integrate(lambda t: virtual_surplus(econ, t, a, b1)
                     * np.asarray(d.pdf(t), float), x, d.upper, panels)


def principal_value(econ: EconomyPrimitives, b1: float) -> tuple[float, dict]:
    """Screening-program value of slope b1 with the advance on the manifold.

    Returns (W, decomposition); W is assembled from the decomposition so
    the identity W = surplus - financing - rent - outlay holds exactly.
    An empty service set yields W = 0 with decomposition["empty_set"] = 1.
    """
    return _screening_value(econ, binding_ir_advance(econ, b1), b1)[:2]


def _screening_value(econ: EconomyPrimitives, a: float,
                     slope: float) -> tuple[float, dict, float]:
    """Screening value of advance a when rents accrue at the given slope.

    Serves the types above the virtual-surplus cutoff and charges the
    rent tail slope * integral of mu' * (1 - F). Returns (W,
    decomposition, cutoff) with W assembled from the decomposition.
    """
    d = econ.dist
    phi = financing_cost(econ.financing, econ.working_capital - a)
    that = cutoff(econ, a, slope)
    if float(virtual_surplus(econ, d.upper, a, slope)) < 0.0:
        decomp = {"productive_surplus": 0.0, "aggregate_financing_cost": 0.0,
                  "aggregate_information_rent": 0.0, "advance_outlay": 0.0,
                  "empty_set": 1.0}
        return 0.0, decomp, that
    tail = 1.0 - float(d.cdf(that))
    ps = integrate(lambda t: (np.asarray(econ.surplus(t), float)
                              - np.asarray(econ.cost(t), float))
                   * np.asarray(d.pdf(t), float), that, d.upper, _SCREENING_PANELS)
    rent = slope * rent_tail(econ, that, _SCREENING_PANELS)
    decomp = {"productive_surplus": ps,
              "aggregate_financing_cost": phi * tail,
              "aggregate_information_rent": rent,
              "advance_outlay": a,
              "empty_set": 0.0}
    return ps - phi * tail - rent - a, decomp, that


def _rent_of_advance(econ, a_target, b1_hi):
    """Aggregate rent along the manifold, parameterized by the advance.

    Needs an informative lowest-type signal (sufficient_statistics
    checks it first), so the slope inverse binding_slope is finite.
    """
    b1 = binding_slope(econ, a_target)
    if b1 < -1e-9 or b1 > b1_hi + 1e-9:
        raise BracketError("advance target unreachable on the slope range")
    _, decomp = principal_value(econ, min(max(b1, 0.0), b1_hi))
    return decomp["aggregate_information_rent"]


def sufficient_statistics(econ: EconomyPrimitives,
                          sol: BilateralSolution) -> dict:
    """Marginal statistics behind the advance optimality condition.

    At an interior optimum the marginal financing relief Phi'(K - a)
    equals the marginal screening cost (1 + dRent/da) / (1 - F(cutoff)).
    dRent/da is a central finite difference along the manifold; when the
    lowest type's signal is flat the manifold does not pin the slope and
    both the statistic and the residual are reported as nan.
    """
    a = sol.contract.advance
    phi_l = marginal_ell(econ.financing, econ.working_capital - a)
    mu_lo = float(econ.signal_mean(econ.dist.lower))
    tail = 1.0 - float(econ.dist.cdf(sol.cutoff))
    drent = math.nan
    if abs(mu_lo) >= 1e-12 and tail >= 1e-12:
        h = 1e-5
        b1_hi = slope_cap(econ)
        ends = (binding_ir_advance(econ, 0.0), binding_ir_advance(econ, b1_hi))
        lo_r, hi_r = min(ends), max(ends)
        can_up = lo_r <= a + h <= hi_r + 1e-15
        can_dn = lo_r - 1e-15 <= a - h <= hi_r
        rent_here = sol.decomposition["aggregate_information_rent"]
        if can_up and can_dn:
            rent_up = _rent_of_advance(econ, a + h, b1_hi)
            rent_dn = _rent_of_advance(econ, a - h, b1_hi)
            drent = (rent_up - rent_dn) / (2.0 * h)
        elif can_dn:
            drent = (rent_here - _rent_of_advance(econ, a - h, b1_hi)) / h
        elif can_up:
            drent = (_rent_of_advance(econ, a + h, b1_hi) - rent_here) / h
    screening = (1.0 + drent) / tail if tail >= 1e-12 else math.nan
    return {"marginal_financing_relief": phi_l,
            "marginal_screening_cost": screening,
            "residual": phi_l - screening,
            "corner": sol.boundary_flag != "interior"}


def _screening_slope(econ: EconomyPrimitives, b1: float) -> float | None:
    """dW/db1 of principal_value along the participation manifold a(b1).

    Virtual surplus vanishes at the cutoff, so by the envelope theorem
    the cutoff adds no term and, with tail = 1 - F(cutoff),
    dW/db1 = -a'(b1) * (1 - Phi'(K - a) * tail) - rent_tail(cutoff),
    where a' = ir_slope = -mu(lo) / (1 + Phi'). The first term drops
    where a is clamped at 0 or K. Holds between the kinks of
    _slope_kinks. None on an empty service set, where W rests at 0.
    """
    d = econ.dist
    K = econ.working_capital
    a = binding_ir_advance(econ, b1)
    if float(virtual_surplus(econ, d.upper, a, b1)) < 0.0:
        return None
    that = cutoff(econ, a, b1)
    slope = -rent_tail(econ, that, _SCREENING_PANELS)
    if 0.0 < a < K:
        tail = 1.0 - float(d.cdf(that))
        relief = marginal_ell(econ.financing, K - a) * tail
        slope -= ir_slope(econ, b1) * (1.0 - relief)
    return slope


def _slope_kinks(econ: EconomyPrimitives, b1_hi: float) -> list[float]:
    """Slopes in [0, b1_hi] where the screening value may kink, sorted.

    0 and b1_hi; the slopes at which the binding advance reaches 0 and
    K, past which it is clamped; and for a tabulated Phi the slope of
    each node advance K - ell, where Phi' jumps. Between them W is
    smooth. A slope that is nan (flat lowest-type signal) or outside
    (0, b1_hi) is dropped.
    """
    K = econ.working_capital
    advances = [0.0, K]
    if econ.financing.kind == "tabulated":
        advances += [K - ell for ell in econ.financing.nodes[0] if 0.0 < ell < K]
    inside = (binding_slope(econ, a) for a in advances)
    return sorted({0.0, b1_hi, *(b for b in inside if 0.0 < b < b1_hi)})


def solve_optimal(econ: EconomyPrimitives) -> BilateralSolution:
    """Solve the screening program over the slope, advance on the manifold.

    W(b1) is smooth between the kinks of _slope_kinks, so its maximum
    on [0, slope_cap] is a kink or a local maximum of a piece, where
    _screening_slope falls from + to -. maximize_on_pieces scans that
    derivative at _SLOPE_POINTS points per piece, roots each fall and
    prices the kinks and the roots by principal_value; a tie goes to
    the smaller slope.
    """
    b1_hi = slope_cap(econ)
    b1_star, _ = maximize_on_pieces(lambda b: principal_value(econ, b)[0],
                                    lambda b: _screening_slope(econ, b),
                                    _slope_kinks(econ, b1_hi), _SLOPE_POINTS)
    a_star = binding_ir_advance(econ, b1_star)
    w, decomp, that = _screening_value(econ, a_star, b1_star)
    if b1_star <= 1e-9:
        flag = "corner_b1_zero"
    elif a_star <= 1e-9:
        flag = "corner_a_zero"
    else:
        flag = "interior"
    return BilateralSolution(contract=Contract(a_star, 0.0, b1_star),
                             cutoff=that, value=w, decomposition=decomp,
                             boundary_flag=flag)


# ---------------------------------------------------------------------------
# mixed program at actual flows


def _monotone_region(f_lo, f_hi, root_fn, lo, hi):
    """Sub-interval of [lo, hi] where a monotone function is nonnegative."""
    if f_lo >= 0.0 and f_hi >= 0.0:
        return lo, hi
    if f_lo < 0.0 and f_hi < 0.0:
        return None
    r = root_fn()
    return (r, hi) if f_lo < 0.0 else (lo, r)


def _acceptance(econ, t, a, b0, b1, phi):
    """Acceptance payoff U = a + b0 + b1*mu - c - Phi of type t; elementwise."""
    return a + b0 + b1 * np.asarray(econ.signal_mean(t), float) \
        - np.asarray(econ.cost(t), float) - phi


def _profit(econ, t, a, b0, b1):
    """Principal's profit pi = V - a - b0 - b1*mu from type t; elementwise."""
    return np.asarray(econ.surplus(t), float) - a - b0 \
        - b1 * np.asarray(econ.signal_mean(t), float)


def _profit_flow(econ, t, a, b0, b1):
    """Density-weighted profit, the integrand of the contract value."""
    return _profit(econ, t, a, b0, b1) * np.asarray(econ.dist.pdf(t), float)


def _spans(econ, a, b0, b1):
    """Types that accept (U >= 0) and types worth serving (pi >= 0).

    U = a + b0 + b1*mu - c - Phi(K - a) and pi = V - a - b0 - b1*mu are
    assumed monotone in theta (true for the affine benchmark family), so
    each set is an interval whose ends are support ends or roots.
    Returns the two intervals (span_u, span_p), or None when either is
    empty.
    """
    d = econ.dist
    phi = financing_cost(econ.financing, econ.working_capital - a)

    def u(t):
        return float(_acceptance(econ, t, a, b0, b1, phi))

    def profit(t):
        return float(_profit(econ, t, a, b0, b1))

    span_u = _monotone_region(
        u(d.lower), u(d.upper),
        lambda: find_root(u, Bracket(d.lower, d.upper), DEFAULT_TOL),
        d.lower, d.upper)
    if span_u is None:
        return None
    span_p = _monotone_region(
        profit(d.lower), profit(d.upper),
        lambda: find_root(profit, Bracket(d.lower, d.upper), DEFAULT_TOL),
        d.lower, d.upper)
    if span_p is None:
        return None
    return span_u, span_p


def served_interval(econ: EconomyPrimitives, a: float, b0: float,
                    b1: float) -> tuple[float, float] | None:
    """Types that accept (U >= 0) and are worth serving (pi >= 0).

    The intersection of the two intervals of _spans, or None when it is
    empty.
    """
    spans = _spans(econ, a, b0, b1)
    if spans is None:
        return None
    (u_lo, u_hi), (p_lo, p_hi) = spans
    lo, hi = max(u_lo, p_lo), min(u_hi, p_hi)
    return (lo, hi) if lo < hi else None


def contract_value(econ: EconomyPrimitives, a: float, b0: float = 0.0,
                   b1: float = 0.0, panels: int = 128) -> float:
    """Expected profit of an arbitrary contract at actual payment flows.

    Integrates V - a - b0 - b1*mu over the served interval; nothing is
    paid to types that walk away.
    """
    span = served_interval(econ, a, b0, b1)
    if span is None:
        return 0.0
    return integrate(lambda t: _profit_flow(econ, t, a, b0, b1),
                     span[0], span[1], panels)


def _advance_slope(econ, b1, a):
    """dW/da of the contract (a, 0, b1) at actual flows, by the Leibniz rule.

    W integrates pi*f over the served interval [lo, hi] and d pi/d a = -1,
    so dW/da = -(F(hi) - F(lo)) plus a term at each end that is an
    acceptance root (U = 0). Raising a raises U at rate 1 + Phi'(K - a),
    so such an end moves at -(1 + Phi')/U_t, with U_t = b1*mu' - c' there:
    the upper end adds -pi*f*(1 + Phi')/U_t and the lower end the
    opposite. Support ends and profit roots (pi = 0) add nothing. Holds
    between the kinks of _advance_kinks, where W is smooth. None where
    nobody is served: W rests at 0 there.
    """
    spans = _spans(econ, a, 0.0, b1)
    if spans is None:
        return None
    (u_lo, u_hi), (p_lo, p_hi) = spans
    lo, hi = max(u_lo, p_lo), min(u_hi, p_hi)
    if lo >= hi:
        return None
    slope = -(float(econ.dist.cdf(hi)) - float(econ.dist.cdf(lo)))
    relief = 1.0 + marginal_ell(econ.financing, econ.working_capital - a)
    for t, sign, root in ((hi, -1.0, u_hi < p_hi), (lo, 1.0, u_lo > p_lo)):
        if root:
            u_t = b1 * signal_slope(econ, t) - cost_slope(econ, t)
            slope += sign * float(_profit_flow(econ, t, a, 0.0, b1)) * relief / u_t
    return slope


def _accepting(econ, b1, a):
    """a, moved up to where both support ends accept slope b1 if they do not.

    find_root's participation root may lie a hair below the root. That
    matters at the flat-rent slope, where U does not vary with the type
    and W jumps from 0 to the whole served mass at the root. U rises in
    a at rate 1 + Phi' >= 1, so a step up by the shortfall reaches the
    root; a further ulp step covers rounding.
    """
    d = econ.dist
    K = econ.working_capital
    for _ in range(_ACCEPT_STEPS):
        phi = financing_cost(econ.financing, K - a)
        short = min(float(_acceptance(econ, t, a, 0.0, b1, phi))
                    for t in (d.lower, d.upper))
        if short >= 0.0 or a >= K:
            break
        a = min(max(a - short, math.nextafter(a, K)), K)
    return a


def _advance_kinks(econ, b1):
    """Advances in [0, K] where W(a) may kink at slope b1, sorted.

    0 and K; the advances at which the lowest and the highest type's
    participation binds, where an acceptance root crosses a support end
    (the larger one, past which every type accepts, taken on its
    accepting side); and for a tabulated Phi each node advance K - ell,
    where Phi' jumps. Between them W is smooth.
    """
    d = econ.dist
    K = econ.working_capital
    binds = sorted(binding_ir_advance(econ, b1, t) for t in (d.lower, d.upper))
    kinks = {0.0, K, binds[0], _accepting(econ, b1, binds[1])}
    if econ.financing.kind == "tabulated":
        kinks.update(K - ell for ell in econ.financing.nodes[0] if 0.0 < ell < K)
    return sorted(kinks)


def _best_advance(econ, b1):
    """Best advance for a fixed slope b1 in the mixed program, and its value.

    W(a) is smooth between its kinks, so its maximum on [0, K] is a kink
    or a stationary point of a piece. maximize_on_pieces reads the sign
    of _advance_slope at the two ends of each piece (W rests at its
    floor 0 where nobody is served, so that counts as rising), roots a
    fall from + to -, and prices every candidate by contract_value; a
    tie goes to the smaller advance.
    """
    return maximize_on_pieces(lambda a: contract_value(econ, a, 0.0, b1, _MIXED_PANELS),
                              lambda a: _advance_slope(econ, b1, a),
                              _advance_kinks(econ, b1), 2)


def solve_mixed(econ: EconomyPrimitives) -> MixedSolution:
    """Solve the mixed program over (advance, slope) at actual flows.

    The slope search runs on [0, c'/mu'] (rents weakly increase in the
    slope beyond the flat-rent point), so b1* lies in [0, b1_flat]. Both
    ends are scan points, and no other slope is injected as a candidate.
    maximize_scalar scans 33 slopes and refines around the scan's peak
    by Brent's method, one inner search per step; the objective
    max_a W(a, b1) is smooth at interior optima, where Brent needs 16-23
    steps to golden section's 41. Scan and refinement fill one table of
    searched slopes, so no slope is searched twice. The inner search
    prices the kinks of W(a) and its stationary points (_best_advance).
    An uninformative signal reduces the program to the pure-advance
    choice; a negative flat-rent slope raises DomainError.
    """
    b1_flat = flat_rent_slope(econ)
    if b1_flat is None:
        a_star, v_star = _best_advance(econ, 0.0)
        return MixedSolution(Contract(a_star, 0.0, 0.0),
                             served_interval(econ, a_star, 0.0, 0.0),
                             v_star, "uninformative")
    if b1_flat < 0.0:
        raise DomainError(f"flat-rent slope c'/mu' = {b1_flat:.6g} is negative; "
                          "the mixed program needs it nonnegative")

    found = {}

    def best(b1):
        if b1 not in found:
            found[b1] = _best_advance(econ, b1)
        return found[b1]

    b1_star, _ = maximize_scalar(lambda b1: best(b1)[1], 0.0, b1_flat,
                                 Tolerance(abs_x=1e-9), _OUTER_POINTS)
    a_star, v_star = best(b1_star)
    span = served_interval(econ, a_star, 0.0, b1_star)
    branch = "flat" if abs(b1_star - b1_flat) <= 1e-9 else "decreasing"
    return MixedSolution(Contract(a_star, 0.0, b1_star), span, v_star, branch)


# ---------------------------------------------------------------------------
# pure benchmarks, dominance, and the tightness sweep


def closed_form_ell_star(R: float) -> float:
    """Optimal uncovered gap for quadratic financing on the benchmark.

    Root of R*ell^2/2 + ell = 1, i.e. (-1 + sqrt(1 + 2R)) / R, with the
    R -> 0 limit equal to 1.
    """
    if R < 0:
        raise DomainError("tightness must be nonnegative")
    if R < 1e-12:
        return 1.0
    return (-1.0 + math.sqrt(1.0 + 2.0 * R)) / R


def pure_advance_value(econ: EconomyPrimitives) -> float:
    """Value of the best pure-advance contract (a = K, no contingent pay)."""
    return contract_value(econ, econ.working_capital, 0.0, 0.0, panels=512)


def contingent_value(econ: EconomyPrimitives, b1: float) -> float:
    """Screening value of a zero-advance contract with slope b1."""
    d = econ.dist
    that = cutoff(econ, 0.0, b1)
    if float(virtual_surplus(econ, d.upper, 0.0, b1)) < 0.0:
        return 0.0
    return screening_integral(econ, that, 0.0, b1, _SCREENING_PANELS)


def _contingent_slope(econ: EconomyPrimitives, b1: float) -> float | None:
    """dW_C/db1 of contingent_value: -rent_tail(cutoff(0, b1)).

    Virtual surplus vanishes at the cutoff, so by the envelope theorem
    only the rent term moves. It is <= 0 wherever mu' >= 0. None on an
    empty service set, where W_C rests at 0.
    """
    if float(virtual_surplus(econ, econ.dist.upper, 0.0, b1)) < 0.0:
        return None
    return -rent_tail(econ, cutoff(econ, 0.0, b1), _SCREENING_PANELS)


def pure_contingent_value(econ: EconomyPrimitives) -> float:
    """Value of the best zero-advance contract.

    With a = 0 fixed, contingent_value is smooth on [0, slope_cap], so
    maximize_on_pieces scans _contingent_slope at _SLOPE_POINTS points
    between the two ends, roots each fall from + to - and prices the
    ends and the roots. Where mu' >= 0 the slope never rises, and the
    value is contingent_value(0).
    """
    _, v = maximize_on_pieces(lambda b: contingent_value(econ, b),
                              lambda b: _contingent_slope(econ, b),
                              [0.0, slope_cap(econ)], _SLOPE_POINTS)
    return v


def crossing_threshold(econ: EconomyPrimitives) -> float:
    """Tightness at which the pure-contingent value falls to the pure-advance one.

    The pure-advance value does not depend on tightness (no uncovered
    gap); the pure-contingent value strictly decreases in it.
    """
    w_a = pure_advance_value(econ)

    def gap(R):
        return pure_contingent_value(with_tightness(econ, R)) - w_a

    lo, hi = 0.0, 1.0
    g_lo = gap(lo)
    if g_lo <= 0.0:
        raise BracketError("pure contingent already dominated at R = 0")
    while gap(hi) > 0.0:
        hi *= 2.0
        if hi > 64.0:
            raise BracketError("no crossing found for tightness up to 64")
    return find_root(gap, Bracket(lo, hi), DEFAULT_TOL)


def advance_share(econ: EconomyPrimitives, mix: MixedSolution) -> float:
    """Advance share beta of expected pay to served types (1 if none contingent)."""
    if mix.implemented is None or mix.contract.slope <= 0:
        return 1.0
    d = econ.dist
    lo_s, hi_s = mix.implemented
    mass = float(d.cdf(hi_s)) - float(d.cdf(lo_s))
    mean_mu = integrate(
        lambda t: np.asarray(econ.signal_mean(t), float)
        * np.asarray(d.pdf(t), float), lo_s, hi_s, 256) / max(mass, 1e-12)
    expected_pay = mix.contract.advance + mix.contract.slope * mean_mu
    return mix.contract.advance / expected_pay if expected_pay > 0 else 1.0


def sweep_R(econ: EconomyPrimitives, R_grid) -> list[dict]:
    """Comparative statics of the benchmark contracts over tightness.

    Returns one row per tightness value with the screening-program
    advance and uncovered gap, the mixed program's advance share, and
    the financing cost as a share of the top type's net surplus.
    """
    rows = []
    d = econ.dist
    scale = float(econ.surplus(d.upper)) - float(econ.cost(d.upper))
    for R in R_grid:
        e = with_tightness(econ, float(R))
        a = solve_optimal(e).contract.advance
        K = e.working_capital
        rows.append({
            "R": float(R),
            "a_star": a,
            "ell_star": K - a,
            "beta_star": advance_share(e, solve_mixed(e)),
            "phi_share": financing_cost(e.financing, K - a) / scale,
        })
    return rows
