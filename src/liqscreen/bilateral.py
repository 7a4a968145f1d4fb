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
                      marginal_ell, signal_slope, wedge, with_tightness)
from .errors import BracketError, DomainError
from .numerics import Bracket, find_root, grid, integrate, maximize_on_pieces

_SCREENING_PANELS = 512  # Simpson panels of the screening-program integrals
_SLOPE_POINTS = 9  # derivative scan per piece of every slope search
_MIXED_PANELS = 128  # Simpson panels of each of its contract values
_ACCEPT_STEPS = 8  # steps that lift the all-accept kink to its accepting side


@dataclass(frozen=True)
class Contract:
    """Advance a paid up front, completion payment b1 * signal."""

    advance: float
    slope: float = 0.0

    def __post_init__(self):
        terms = (self.advance, self.slope)
        if not all(math.isfinite(x) and x >= -1e-12 for x in terms):
            raise DomainError("contract terms must be finite and nonnegative")


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

    g_lo = gap(0.0)
    if g_lo >= 0.0:
        return 0.0
    g_hi = gap(K)
    if g_hi <= 0.0:
        return K
    return find_root(gap, Bracket(0.0, K), ends=(g_lo, g_hi))


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


def ir_slope(econ: EconomyPrimitives, a: float,
             theta: float | None = None) -> float:
    """d a / d b1 along type theta's binding participation manifold at advance a.

    theta defaults to the lowest type; a is the advance at which its
    participation binds, which the caller already holds. Equals
    -mu(theta) / (1 + Phi'(K - a)); at a clamp the value is the
    one-sided derivative of the unclamped manifold. _manifold_slope and
    _best_advance use it off the clamps.
    """
    if theta is None:
        theta = econ.dist.lower
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


def _psi(econ, t, phi, b1):
    """V - c - phi - b1 * mu' * (1 - F)/f at types t, one row per lane of phi, b1.

    phi and b1 are floats, or column arrays with one lane per row. The
    association ((V - c) - phi) - (b1 * mu') * (1 - F)/f is the same
    for every shape, so each lane's row is bit for bit the scalar one.
    """
    return (np.asarray(econ.surplus(t), float) - np.asarray(econ.cost(t), float)
            - phi - b1 * signal_slope(econ, t) * wedge(econ.dist, t))


def virtual_surplus(econ: EconomyPrimitives, theta, a: float, b1: float):
    """Pointwise virtual surplus of serving type theta under (a, b1).

    V - c - Phi(K - a) - b1 * mu' * (1 - F)/f; elementwise over theta.
    """
    out = _psi(econ, np.asarray(theta, dtype=float),
               financing_cost(econ.financing, econ.working_capital - a), b1)
    return float(out) if np.isscalar(theta) else out


def cutoff(econ: EconomyPrimitives, a, b1, load: float = 0.0):
    """(Lowest served type, psi(lower), psi(upper)) from one grid of virtual surplus.

    psi here includes load, a book's complementarity mass on the
    relationship (0 outside a book). The type is the first sign change
    of psi: the support's lower end when psi is nonnegative everywhere,
    its upper end when negative everywhere. The service set is empty
    when psi(upper) < 0. a, b1 and load are floats, or equal-length 1-d
    arrays with one lane each, a float then serving every lane (a and b1
    are both floats or both arrays); each of the three then comes back
    as an array, lane by lane bit for bit the scalar call's. All lanes
    price psi on one 257-point type grid (_psi_row), and each lane roots
    its own sign change (_first_crossing).
    """
    ts = _cutoff_grid(econ)
    return _first_crossing(econ, ts, _psi_row(econ, ts, a, b1), a, b1, load)


def _cutoff_grid(econ):
    """cutoff's 257-point grid of types, from the lower to the upper end."""
    return grid(econ.dist.lower, econ.dist.upper, 257)


def _psi_row(econ, ts, a, b1):
    """psi at the types ts without load: one row for float a and b1, else one per lane."""
    fin, K = econ.financing, econ.working_capital
    if isinstance(a, np.ndarray):
        phi = np.array([financing_cost(fin, K - x) for x in a.tolist()])
        return _psi(econ, ts, phi[:, None], b1[:, None])
    return _psi(econ, ts, financing_cost(fin, K - a), b1)  # one row, cheaper


def _first_crossing(econ, ts, psi, a, b1, load):
    """cutoff's answer for the psi rows of (a, b1) on the grid ts, at load.

    psi is _psi_row(econ, ts, a, b1), which does not depend on load, so
    a caller that holds it re-roots the crossing at any load without
    pricing psi again. a, b1 and load take cutoff's shapes. Each lane
    finds the first grid point where psi + load >= 0 and roots the
    scalar psi + load in the cell before it.
    """
    d = econ.dist

    def lane(vals, a_k, b1_k, load_k):
        ends = float(vals[0]), float(vals[-1])
        if ends[0] >= 0.0:
            return d.lower, *ends
        served = vals >= 0.0
        i = int(served.argmax())  # the first served point, 0 when none is
        if i == 0:
            return d.upper, *ends
        return find_root(lambda t: virtual_surplus(econ, t, a_k, b1_k) + load_k,
                         Bracket(float(ts[i - 1]), float(ts[i])),
                         ends=(float(vals[i - 1]), float(vals[i]))), *ends

    if not (isinstance(a, np.ndarray) or isinstance(load, np.ndarray)):
        return lane(psi + load, a, b1, load)
    rows = psi + (load[:, None] if isinstance(load, np.ndarray) else load)
    per_lane = [x.tolist() if isinstance(x, np.ndarray) else [x] * len(rows)
                for x in (a, b1, load)]
    out = [lane(*lane_args) for lane_args in zip(rows, *per_lane)]
    return tuple(np.array(out, dtype=float).reshape(-1, 3).T)


def rent_tail(econ: EconomyPrimitives, x, panels: int = 512):
    """Integral of the pointwise mu' * (1 - F) from x to the top type.

    x is a float, or a 1-d array of lower limits priced by one
    integrate call, one Simpson row each.
    """
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


def principal_value(econ: EconomyPrimitives,
                    b1: float) -> tuple[float, dict, float, float]:
    """Screening-program value of slope b1 with the advance on the manifold.

    Returns (W, decomposition, a, cutoff); W is assembled from the
    decomposition so the identity W = surplus - financing - rent -
    outlay holds exactly, a is the binding advance and cutoff the lowest
    served type. An empty service set yields W = 0 with
    decomposition["empty_set"] = 1.
    """
    a = binding_ir_advance(econ, b1)
    w, decomp, that = _screening_value(econ, a, b1)
    return w, decomp, a, that


def _screening_value(econ: EconomyPrimitives, a: float,
                     slope: float) -> tuple[float, dict, float]:
    """Screening value of advance a when rents accrue at the given slope.

    Serves the types above the virtual-surplus cutoff and charges the
    rent tail slope * integral of mu' * (1 - F). Returns (W,
    decomposition, cutoff) with W assembled from the decomposition.
    """
    d = econ.dist
    phi = financing_cost(econ.financing, econ.working_capital - a)
    that, _, psi_hi = cutoff(econ, a, slope)
    if psi_hi < 0.0:
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


def _envelope_slope(econ: EconomyPrimitives, that, a, da, db) -> np.ndarray:
    """Derivative of the screening value at advance a along (da, db) in (a, b1).

    The served set [that, upper] is held fixed: virtual surplus vanishes
    at the cutoff, so by the envelope theorem moving it adds no term.
    With tail = 1 - F(that) the derivative is
    -da * (1 - Phi'(K - a) * tail) - db * rent_tail(that). that, a and
    da are equal-length 1-d arrays, one entry per lane, and db is a
    float or one more such array; the result has one entry per lane.
    The rent tails take one integrate call; the relief term is added
    lane by lane, and skipped, not multiplied by 0, on a lane with
    da = 0. It prices F(that) at a scalar type: numpy's array power can
    differ from its scalar power in the last bit, and a lane must match
    the one-lane call.
    """
    slope = -db * rent_tail(econ, that, _SCREENING_PANELS)
    fin, K, cdf = econ.financing, econ.working_capital, econ.dist.cdf
    return np.array([s - r * (1.0 - marginal_ell(fin, K - x) * (1.0 - float(cdf(t))))
                     if r else s for s, t, x, r in zip(slope.tolist(), that.tolist(),
                                                       a.tolist(), da.tolist())])


def sufficient_statistics(econ: EconomyPrimitives,
                          sol: BilateralSolution) -> dict:
    """Marginal statistics behind the advance optimality condition.

    Along the participation manifold, parameterized by the advance, the
    value moves at _envelope_slope in the direction (1, 1 / ir_slope)
    with the cutoff held fixed. Divided by tail = 1 - F(cutoff) that is
    the residual: the marginal financing relief Phi'(K - a) net of the
    marginal screening cost (1 + dRent/da) / tail. The residual vanishes
    wherever dW/db1 along the manifold does, and is signed at a corner.
    Where the lowest type's signal is flat the manifold does not pin the
    slope, and on an empty tail nothing is served: the screening cost
    and the residual are then nan.
    """
    a = sol.contract.advance
    phi_l = marginal_ell(econ.financing, econ.working_capital - a)
    mu_lo = float(econ.signal_mean(econ.dist.lower))
    tail = 1.0 - float(econ.dist.cdf(sol.cutoff))
    residual = math.nan
    if abs(mu_lo) >= 1e-12 and tail >= 1e-12:
        db = 1.0 / ir_slope(econ, a)
        residual = float(_envelope_slope(econ, np.array([sol.cutoff]), np.array([a]),
                                         np.ones(1), db)[0]) / tail
    return {"marginal_financing_relief": phi_l,
            "marginal_screening_cost": phi_l - residual,
            "residual": residual,
            "corner": sol.boundary_flag != "interior"}


def _screening_slope(econ: EconomyPrimitives, b1, a, rate) -> list[float | None]:
    """dW/db1 of the screening value at (a, b1) along a path a(b1) with a' = rate.

    _envelope_slope in the direction (rate, 1) at the cutoff of (a, b1).
    Along the participation manifold (_manifold_slope) rate is ir_slope
    off the clamps and 0 on them; at a = 0 and rate 0 it is dW_C/db1 of
    contingent_value, <= 0 wherever mu' >= 0. One lane per slope of b1,
    a sequence; a and rate are floats or sequences of the same length.
    All lanes share one cutoff call and one rent-tail integral. Returns
    a list, None on a lane with an empty service set, where W rests at 0.
    """
    b1, a, rate = np.broadcast_arrays(np.asarray(b1, float), a, rate)
    that, _, psi_hi = cutoff(econ, a, b1)
    empty = psi_hi < 0.0
    served = ~empty
    slopes = np.zeros(b1.shape)
    if served.any():
        slopes[served] = _envelope_slope(econ, that[served], a[served],
                                         rate[served], 1.0)
    return [None if e else s for s, e in zip(slopes.tolist(), empty.tolist())]


def _manifold_slope(econ: EconomyPrimitives, b1) -> list[float | None]:
    """dW/db1 of principal_value along the participation manifold a(b1).

    One lane per slope of b1, a sequence. The rate a'(b1) is ir_slope,
    and 0 where a is clamped at 0 or K. Holds between the kinks of
    _slope_kinks.
    """
    a = [binding_ir_advance(econ, b) for b in b1]
    rate = [ir_slope(econ, x) if 0.0 < x < econ.working_capital else 0.0 for x in a]
    return _screening_slope(econ, b1, a, rate)


def _fixed_advances(econ: EconomyPrimitives) -> list[float]:
    """Advances at which a value may kink whatever the slope.

    0 and K, and for a tabulated Phi each node advance K - ell in (0, K),
    where Phi' jumps.
    """
    K = econ.working_capital
    advances = [0.0, K]
    if econ.financing.kind == "tabulated":
        advances += [K - ell for ell in econ.financing.nodes[0] if 0.0 < ell < K]
    return advances


def _slope_kinks(econ: EconomyPrimitives, b1_hi: float, thetas) -> list[float]:
    """Slopes in [0, b1_hi] where a value may kink, sorted.

    0 and b1_hi, and for each type of thetas the slopes at which its
    binding advance reaches one of _fixed_advances: 0 and K, past which
    it is clamped, and the node advances. The screening value needs the
    lowest type, the mixed value the lowest and the highest. Between
    them the value is smooth. A slope that is nan (flat signal at the
    type) or outside (0, b1_hi) is dropped.
    """
    inside = (binding_slope(econ, a, t) for a in _fixed_advances(econ) for t in thetas)
    return sorted({0.0, b1_hi, *(b for b in inside if 0.0 < b < b1_hi)})


def solve_optimal(econ: EconomyPrimitives) -> BilateralSolution:
    """Solve the screening program over the slope, advance on the manifold.

    W(b1) is smooth between the kinks of _slope_kinks, so its maximum
    on [0, slope_cap] is a kink or a local maximum of a piece, where
    _manifold_slope falls from + to -. maximize_on_pieces scans that
    derivative at _SLOPE_POINTS points per piece, each scan one batch of
    lanes, roots each fall and prices the kinks and the roots by
    principal_value; a tie goes to the smaller slope. Each priced slope
    keeps its principal_value, so the winner is priced once.
    """
    b1_hi = slope_cap(econ)
    priced = {}

    def value(b1):
        priced[b1] = principal_value(econ, b1)
        return priced[b1][0]

    b1_star, _ = maximize_on_pieces(value, lambda bs: _manifold_slope(econ, bs),
                                    _slope_kinks(econ, b1_hi, [econ.dist.lower]),
                                    _SLOPE_POINTS)
    w, decomp, a_star, that = priced[b1_star]
    if b1_star <= 1e-9:
        flag = "corner_b1_zero"
    elif a_star <= 1e-9:
        flag = "corner_a_zero"
    else:
        flag = "interior"
    return BilateralSolution(contract=Contract(a_star, b1_star),
                             cutoff=that, value=w, decomposition=decomp,
                             boundary_flag=flag)


# ---------------------------------------------------------------------------
# mixed program at actual flows


def _acceptance(econ, t, a, b1, phi):
    """Acceptance payoff U = a + b1*mu - c - Phi of type t; elementwise."""
    return a + b1 * np.asarray(econ.signal_mean(t), float) \
        - np.asarray(econ.cost(t), float) - phi


def _profit(econ, t, a, b1):
    """Principal's profit pi = V - a - b1*mu from type t; elementwise."""
    return np.asarray(econ.surplus(t), float) - a \
        - b1 * np.asarray(econ.signal_mean(t), float)


def _profit_flow(econ, t, a, b1):
    """Density-weighted profit, the integrand of the contract value."""
    return _profit(econ, t, a, b1) * np.asarray(econ.dist.pdf(t), float)


def _served(econ, a, b1):
    """Types that accept (U >= 0) and are worth serving (pi >= 0).

    U = a + b1*mu - c - Phi(K - a) and pi = V - a - b1*mu are
    assumed monotone in theta (true for the affine benchmark family), so
    each set is an interval whose ends are support ends or roots, and so
    is their intersection [lo, hi]. Returns (lo, hi, lo_is_acceptance_root,
    hi_is_acceptance_root), an end being an acceptance root (U = 0) when
    the acceptance interval alone sets it, or None when nothing is served.
    U and pi at both support ends come from one array call each, and
    each root reuses those two values as find_root's ends.
    """
    d = econ.dist
    phi = financing_cost(econ.financing, econ.working_capital - a)
    ends = np.array([d.lower, d.upper])

    def region(pay, *terms):
        f_lo, f_hi = pay(econ, ends, *terms).tolist()
        if f_lo >= 0.0 and f_hi >= 0.0:
            return d.lower, d.upper
        if f_lo < 0.0 and f_hi < 0.0:
            return None
        r = find_root(lambda t: float(pay(econ, t, *terms)), Bracket(d.lower, d.upper),
                      ends=(f_lo, f_hi))
        return (r, d.upper) if f_lo < 0.0 else (d.lower, r)

    span_u = region(_acceptance, a, b1, phi)
    if span_u is None:
        return None
    span_p = region(_profit, a, b1)
    if span_p is None:
        return None
    (u_lo, u_hi), (p_lo, p_hi) = span_u, span_p
    lo, hi = max(u_lo, p_lo), min(u_hi, p_hi)
    return (lo, hi, u_lo > p_lo, u_hi < p_hi) if lo < hi else None


def served_interval(econ: EconomyPrimitives, a: float,
                    b1: float) -> tuple[float, float] | None:
    """Types that accept (U >= 0) and are worth serving (pi >= 0).

    The interval of _served, or None when it is empty.
    """
    served = _served(econ, a, b1)
    return None if served is None else served[:2]


def contract_value(econ: EconomyPrimitives, a: float, b1: float = 0.0, *,
                   panels: int = 128) -> float:
    """Expected profit of an arbitrary contract at actual payment flows.

    Integrates V - a - b1*mu over the served interval; nothing is
    paid to types that walk away.
    """
    span = served_interval(econ, a, b1)
    if span is None:
        return 0.0
    return integrate(lambda t: _profit_flow(econ, t, a, b1),
                     span[0], span[1], panels)


def _directional_slope(econ, b1, a, da, db):
    """Derivative of W = contract_value(a, b1) at actual flows along (da, db).

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
    served = _served(econ, a, b1)
    if served is None:
        return None
    lo, hi, lo_root, hi_root = served
    d = econ.dist
    slope = -da * (float(d.cdf(hi)) - float(d.cdf(lo)))
    if db:
        slope -= db * integrate(lambda t: np.asarray(econ.signal_mean(t), float)
                                * np.asarray(d.pdf(t), float), lo, hi, _MIXED_PANELS)
    relief = 1.0 + marginal_ell(econ.financing, econ.working_capital - a)
    for t, sign, root in ((hi, -1.0, hi_root), (lo, 1.0, lo_root)):
        if root:
            u_t = b1 * signal_slope(econ, t) - cost_slope(econ, t)
            u_rate = da * relief + db * float(econ.signal_mean(t))
            slope += sign * float(_profit_flow(econ, t, a, b1)) * u_rate / u_t
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
        short = min(float(_acceptance(econ, t, a, b1, phi))
                    for t in (d.lower, d.upper))
        if short >= 0.0 or a >= K:
            break
        a = min(max(a - short, math.nextafter(a, K)), K)
    return a


def _advance_kinks(econ, b1):
    """Advances in [0, K] where W(a) may kink at slope b1, with their types.

    _fixed_advances (0, K and the node advances), and the advances at
    which the lowest and the highest type's participation binds, where
    an acceptance root crosses a support end (the larger one, past which
    every type accepts, taken on its accepting side). Between them W is
    smooth. Maps each advance to
    the type whose binding advance it is, or to None: a binding advance
    clamped to 0 or K is listed as that end, with None. Also returns
    the two binding advances: the ends of the sweep, over which the
    acceptance root moves from one support end to the other.
    """
    d = econ.dist
    kinks = dict.fromkeys(_fixed_advances(econ))
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
    scans dW/da on each piece of the sweep (W rests at its floor 0
    where nobody is served, so that counts as rising; outside the sweep
    the scan reads None and roots nothing), roots each fall from + to
    -, and prices every candidate by contract_value; a tie goes to the
    smaller advance.

    The scan reads 2 points per piece, its two ends, when the type
    density is log-concave (TypeDistribution.log_concave) and
    _SLOPE_POINTS otherwise. The sketch behind the 2 points: on
    [0, c'/mu'] the payoff U falls in the type, so the acceptance root
    theta is the top of the served set [lo, theta], and dW/da = 0 sets
    pi*(1 + Phi')/(-U_t) equal to (F(theta) - F(lo))/f(theta). What is
    proved: for log-concave f, F(theta) - F(lo) is log-concave in theta
    (Bagnoli and Bergstrom 2005), so the right side rises in theta at a
    fixed lo. What is not proved: that the left side, and lo where it is
    a profit root, move so that the two sides cross once per piece.
    That is measured: on seeded draws of uniform, truncated-exponential
    (rate 0.2-9) and power (exponent 1-4) types the 2-point search
    matched the _SLOPE_POINTS one within 1e-12 in value, at every
    slope tried. A density with more or narrower modes can hide a peak
    between scan points, so it keeps the finer scan.

    The rate is d a/d b1 along the winner's regime: ir_slope at the
    kink won, of the type whose binding advance it is, by exact
    equality with a kink of _advance_kinks, and 0 elsewhere. That is 0
    at 0, K and the node advances, and at a stationary point, where
    dW/da = 0. Returns (a, W, rate).
    """
    kinks, (a_lo, a_hi) = _advance_kinks(econ, b1)

    def slope(a):
        if a_lo < a < a_hi:
            return _directional_slope(econ, b1, a, 1.0, 0.0)
        return None

    a, v = maximize_on_pieces(lambda a: contract_value(econ, a, b1, panels=_MIXED_PANELS),
                              lambda xs: [slope(a) for a in xs], sorted(kinks),
                              2 if econ.dist.log_concave else _SLOPE_POINTS)
    theta = kinks.get(a)
    return a, v, 0.0 if theta is None else ir_slope(econ, a, theta)


def solve_mixed(econ: EconomyPrimitives) -> MixedSolution:
    """Solve the mixed program over (advance, slope) at actual flows.

    The slope search runs on [0, c'/mu'] (rents weakly increase in the
    slope beyond the flat-rent point), so b1* lies in [0, c'/mu'].
    V(b1) = max_a W(a, b1) is the winner among a few smooth regimes
    W(a_k(b1), b1), one per kink or stationary point of W(a)
    (_best_advance). A switch between regimes is a convex kink of V,
    so no maximum sits there. A regime kinks where a binding advance of
    the lowest or the highest type reaches 0, K or a node advance
    (_slope_kinks of the two support ends). Between them V's slope is
    W's along the winner, in the direction (a_k'(b1), 1), where a_k' is
    the rate _best_advance reports. This needs every peak of W(a)
    found, or V drops where the inner search misses one.
    maximize_on_pieces scans V's slope at _SLOPE_POINTS points per piece,
    roots each fall from + to - and prices the kinks and the roots, one
    inner search per slope; a tie goes to the smaller slope. An
    uninformative signal (no flat-rent slope) shrinks the range to
    [0, 0], whose one kink is the pure-advance choice; a negative
    flat-rent slope raises DomainError.
    """
    b1_flat = flat_rent_slope(econ)
    b1_hi = 0.0 if b1_flat is None else b1_flat
    if b1_hi < 0.0:
        raise DomainError(f"flat-rent slope c'/mu' = {b1_hi:.6g} is negative; "
                          "the mixed program needs it nonnegative")

    found = {}
    d = econ.dist

    def best(b1):
        if b1 not in found:
            found[b1] = _best_advance(econ, b1)
        return found[b1]

    def slope(b1):
        a, _, rate = best(b1)
        return _directional_slope(econ, b1, a, rate, 1.0)

    b1_star, _ = maximize_on_pieces(lambda b1: best(b1)[1],
                                    lambda b1s: [slope(b1) for b1 in b1s],
                                    _slope_kinks(econ, b1_hi, [d.lower, d.upper]),
                                    _SLOPE_POINTS)
    a_star, v_star, _ = best(b1_star)
    span = served_interval(econ, a_star, b1_star)
    branch = ("uninformative" if b1_flat is None
              else "flat" if abs(b1_star - b1_flat) <= 1e-9 else "decreasing")
    return MixedSolution(Contract(a_star, b1_star), span, v_star, branch)


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
    return contract_value(econ, econ.working_capital, panels=512)


def contingent_value(econ: EconomyPrimitives, b1: float) -> float:
    """Screening value of a zero-advance contract with slope b1."""
    that, _, psi_hi = cutoff(econ, 0.0, b1)
    if psi_hi < 0.0:
        return 0.0
    return screening_integral(econ, that, 0.0, b1, _SCREENING_PANELS)


def pure_contingent_value(econ: EconomyPrimitives) -> float:
    """Value of the best zero-advance contract.

    With a = 0 fixed, contingent_value is smooth on [0, slope_cap], so
    maximize_on_pieces scans its slope, _screening_slope at a = 0 and
    rate 0, at _SLOPE_POINTS points between the two ends in one batch of
    lanes, roots each fall from + to - and prices the ends and the
    roots. Where mu' >= 0 the slope never rises, and the value is
    contingent_value(0).
    """
    _, v = maximize_on_pieces(lambda b: contingent_value(econ, b),
                              lambda bs: _screening_slope(econ, bs, 0.0, 0.0),
                              [0.0, slope_cap(econ)], _SLOPE_POINTS)
    return v


def crossing_threshold(econ: EconomyPrimitives) -> float:
    """Smallest tightness at which pure-contingent value falls to pure-advance value.

    The pure-advance value does not depend on tightness (no uncovered
    gap); the pure-contingent value decreases in it, strictly until its
    service set empties, and then rests at 0. Where the pure-advance
    value is 0 as well, the gap rests at 0 from the crossing on; the
    root of the gap's sign is then where that plateau starts.
    """
    w_a = pure_advance_value(econ)

    def gap(R):
        return pure_contingent_value(with_tightness(econ, R)) - w_a

    lo, hi = 0.0, 1.0
    g_lo = gap(lo)
    if g_lo <= 0.0:
        raise BracketError("pure contingent already dominated at R = 0")
    g_hi = gap(hi)
    while g_hi > 0.0:
        lo, g_lo = hi, g_hi  # the gap is still positive there
        hi *= 2.0
        if hi > 64.0:
            raise BracketError("no crossing found for tightness up to 64")
        g_hi = gap(hi)
    if g_hi == 0.0:
        return find_root(lambda R: 1.0 if gap(R) > 0.0 else -1.0, Bracket(lo, hi),
                         ends=(1.0, -1.0))
    return find_root(gap, Bracket(lo, hi), ends=(g_lo, g_hi))


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
