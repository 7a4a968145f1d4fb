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
from .numerics import Bracket, Tolerance, find_root, integrate, maximize_on_pieces

DEFAULT_TOL = Tolerance()
_SCREENING_PANELS = 512  # Simpson panels of the screening-program integrals
_SLOPE_POINTS = 9  # derivative scan per piece of every slope search
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


def ir_slope(econ: EconomyPrimitives, b1: float,
             theta: float | None = None) -> float:
    """d a / d b1 along type theta's binding participation manifold.

    theta defaults to the lowest type. Equals -mu(theta) / (1 + Phi'(K -
    a)); at a clamp the value is the one-sided derivative of the
    unclamped manifold. _screening_slope and _best_advance use it off
    the clamps.
    """
    if theta is None:
        theta = econ.dist.lower
    a = binding_ir_advance(econ, b1, theta)
    mu_t = float(econ.signal_mean(theta))
    phi_l = marginal_ell(econ.financing, econ.working_capital - a)
    return -mu_t / (1.0 + phi_l)


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


def _slope_kinks(econ: EconomyPrimitives, b1_hi: float, thetas) -> list[float]:
    """Slopes in [0, b1_hi] where a value may kink, sorted.

    0 and b1_hi; for each type of thetas, the slopes at which its
    binding advance reaches 0 and K, past which it is clamped, and for a
    tabulated Phi the slope of each node advance K - ell, where Phi'
    jumps. The screening value needs the lowest type, the mixed value
    the lowest and the highest. Between them the value is smooth. A
    slope that is nan (flat signal at the type) or outside (0, b1_hi)
    is dropped.
    """
    K = econ.working_capital
    advances = [0.0, K]
    if econ.financing.kind == "tabulated":
        advances += [K - ell for ell in econ.financing.nodes[0] if 0.0 < ell < K]
    inside = (binding_slope(econ, a, t) for a in advances for t in thetas)
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
                                    _slope_kinks(econ, b1_hi, [econ.dist.lower]),
                                    _SLOPE_POINTS)
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

    ends = np.array([d.lower, d.upper])
    span_u = _monotone_region(
        *_acceptance(econ, ends, a, b0, b1, phi).tolist(),
        lambda: find_root(u, Bracket(d.lower, d.upper), DEFAULT_TOL),
        d.lower, d.upper)
    if span_u is None:
        return None
    span_p = _monotone_region(
        *_profit(econ, ends, a, b0, b1).tolist(),
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


def _directional_slope(econ, b1, a, da, db):
    """Derivative of W = contract_value(a, 0, b1) at actual flows along (da, db).

    W integrates pi*f over the served interval [lo, hi]. Along (da, db)
    pi = V - a - b1*mu moves at -(da + db*mu), and the payoff U moves at
    u_rate = da*(1 + Phi'(K - a)) + db*mu. By the Leibniz rule the
    derivative is -integral of (da + db*mu)*f over [lo, hi], plus a term
    at each end that is an acceptance root (U = 0). Such an end moves
    at -u_rate/U_t, with U_t = b1*mu' - c' there: the upper end adds
    -pi*f*u_rate/U_t and the lower end the opposite. Support ends and
    profit roots (pi = 0) add nothing. (1, 0) is dW/da, the slope of
    the inner advance search; (a'(b1), 1) is the slope of the mixed
    value along a regime a(b1). Holds where W is smooth. None where
    nobody is served: W rests at 0 there.
    """
    spans = _spans(econ, a, 0.0, b1)
    if spans is None:
        return None
    (u_lo, u_hi), (p_lo, p_hi) = spans
    lo, hi = max(u_lo, p_lo), min(u_hi, p_hi)
    if lo >= hi:
        return None
    d = econ.dist
    slope = -da * (float(d.cdf(hi)) - float(d.cdf(lo)))
    if db:
        slope -= db * integrate(lambda t: np.asarray(econ.signal_mean(t), float)
                                * np.asarray(d.pdf(t), float), lo, hi, _MIXED_PANELS)
    relief = 1.0 + marginal_ell(econ.financing, econ.working_capital - a)
    for t, sign, root in ((hi, -1.0, u_hi < p_hi), (lo, 1.0, u_lo > p_lo)):
        if root:
            u_t = b1 * signal_slope(econ, t) - cost_slope(econ, t)
            u_rate = da * relief + db * float(econ.signal_mean(t))
            slope += sign * float(_profit_flow(econ, t, a, 0.0, b1)) * u_rate / u_t
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
    """Advances in [0, K] where W(a) may kink at slope b1, with their types.

    0 and K; the advances at which the lowest and the highest type's
    participation binds, where an acceptance root crosses a support end
    (the larger one, past which every type accepts, taken on its
    accepting side); and for a tabulated Phi each node advance K - ell,
    where Phi' jumps. Between them W is smooth. Maps each advance to
    the type whose binding advance it is, or to None: a binding advance
    clamped to 0 or K is listed as that end, with None. Also returns
    the two binding advances: the ends of the sweep, over which the
    acceptance root moves from one support end to the other.
    """
    d = econ.dist
    K = econ.working_capital
    advances = [0.0, K]
    if econ.financing.kind == "tabulated":
        advances += [K - ell for ell in econ.financing.nodes[0] if 0.0 < ell < K]
    kinks = dict.fromkeys(advances)
    (a_lo, t_lo), (a_hi, t_hi) = sorted((binding_ir_advance(econ, b1, t), t)
                                        for t in (d.lower, d.upper))
    a_hi = _accepting(econ, b1, a_hi)
    kinks.setdefault(a_lo, t_lo)
    kinks.setdefault(a_hi, t_hi)
    return kinks, (a_lo, a_hi)


def _best_advance(econ, b1):
    """Best advance for a fixed slope b1 in the mixed program, its value and rate.

    W(a) is smooth between its kinks, so its maximum on [0, K] is a kink
    or a stationary point of a piece. Below the sweep of _advance_kinks
    nobody accepts and W rests at 0; above it every type accepts and W
    falls at the served mass. Only inside the sweep, where the
    acceptance root moves through the types, can W peak inside a piece,
    and on a multimodal density more than once. maximize_on_pieces
    scans dW/da at _SLOPE_POINTS points per piece of the sweep (W rests
    at its floor 0 where nobody is served, so that counts as rising;
    outside the sweep the scan reads None and roots nothing), roots
    each fall from + to -, and prices every candidate by
    contract_value; a tie goes to the smaller advance. The rate is
    d a/d b1 along the winner's regime: ir_slope of the type whose
    binding advance it is, by exact equality with a kink of
    _advance_kinks, and 0 elsewhere. That is 0 at 0, K and the node
    advances, and at a stationary point, where dW/da = 0. Returns (a, W,
    rate).
    """
    kinks, (a_lo, a_hi) = _advance_kinks(econ, b1)

    def slope(a):
        if a_lo < a < a_hi:
            return _directional_slope(econ, b1, a, 1.0, 0.0)
        return None

    a, v = maximize_on_pieces(lambda a: contract_value(econ, a, 0.0, b1, _MIXED_PANELS),
                              slope, sorted(kinks), _SLOPE_POINTS)
    theta = kinks.get(a)
    return a, v, 0.0 if theta is None else ir_slope(econ, b1, theta)


def _mixed_kinks(econ, b1_flat):
    """Slopes in [0, b1_flat] where the mixed value V(b1) may kink.

    Those of _slope_kinks for the lowest and the highest type: where a
    binding advance of either reaches 0, K or a node advance.
    """
    d = econ.dist
    return _slope_kinks(econ, b1_flat, [d.lower, d.upper])


def _mixed_slope(econ, b1, best):
    """dV/db1 of the mixed value at b1, given best = _best_advance(econ, b1).

    W's slope along the regime that wins at b1, in the direction
    (a_k'(b1), 1), where a_k' is the rate best reports.
    """
    a, _, rate = best
    return _directional_slope(econ, b1, a, rate, 1.0)


def solve_mixed(econ: EconomyPrimitives) -> MixedSolution:
    """Solve the mixed program over (advance, slope) at actual flows.

    The slope search runs on [0, c'/mu'] (rents weakly increase in the
    slope beyond the flat-rent point), so b1* lies in [0, b1_flat].
    V(b1) = max_a W(a, b1) is the winner among a few smooth regimes
    W(a_k(b1), b1), one per kink or stationary point of W(a)
    (_best_advance). A switch between regimes is a convex kink of V,
    so no maximum sits there. A regime kinks where a binding advance of
    the lowest or the highest type reaches 0, K or a node advance
    (_mixed_kinks). Between them V's slope is W's along the winner, in
    the direction (a_k'(b1), 1) (_mixed_slope). This needs every peak
    of W(a) found, or V drops where the inner search misses one.
    maximize_on_pieces scans V's slope at _SLOPE_POINTS points per piece,
    roots each fall from + to - and prices the kinks and the roots, one
    inner search per slope; a tie goes to the smaller slope. An
    uninformative signal reduces the program to the pure-advance
    choice; a negative flat-rent slope raises DomainError.
    """
    b1_flat = flat_rent_slope(econ)
    if b1_flat is None:
        a_star, v_star, _ = _best_advance(econ, 0.0)
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

    b1_star, _ = maximize_on_pieces(lambda b1: best(b1)[1],
                                    lambda b1: _mixed_slope(econ, b1, best(b1)),
                                    _mixed_kinks(econ, b1_flat), _SLOPE_POINTS)
    a_star, v_star, _ = best(b1_star)
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
