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
from dataclasses import dataclass, replace

import numpy as np

from .economy import (EconomyPrimitives, cost_slope, financing_cost,
                      marginal_ell, signal_slope, with_tightness)
from .errors import BracketError, DomainError
from .numerics import (Bracket, Tolerance, best_candidate, find_root,
                       find_roots, integrate, integrate_rows, maximize_rows,
                       maximize_scalar, refine_scan)

DEFAULT_TOL = Tolerance()
_TIE = 1e-12
_SCREENING_PANELS = 512  # Simpson panels of the screening-program integrals
# rows per Simpson matrix in contract_values: at 128 panels each array of
# the integrand stays near 64 kB, so a batch of hundreds of contracts does
# not raise the process's peak memory
_SIMPSON_ROWS = 64
_OUTER_POINTS = 33  # slope scan of the mixed program
_INNER_POINTS = 17  # advance scan at each slope
_MIXED_PANELS = 128  # Simpson panels of each of its contract values


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
    foc_residual: float
    boundary_flag: str  # interior | corner_b1_zero | corner_a_zero


@dataclass(frozen=True)
class MixedSolution:
    """Mixed-program solution: value at actual flows over the served set."""

    contract: Contract
    implemented: tuple[float, float] | None  # served type interval, None if empty
    value: float
    branch: str  # rent profile: decreasing | flat | increasing | uninformative


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
    one-sided derivative of the unclamped manifold.
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


def solve_optimal(econ: EconomyPrimitives) -> BilateralSolution:
    """Solve the screening program over the slope, advance on the manifold."""
    b1_hi = slope_cap(econ)
    b1_star, _ = maximize_scalar(lambda b: principal_value(econ, b)[0],
                                 0.0, b1_hi, DEFAULT_TOL)
    a_star = binding_ir_advance(econ, b1_star)
    w, decomp, that = _screening_value(econ, a_star, b1_star)
    if b1_star <= 1e-9:
        flag = "corner_b1_zero"
    elif a_star <= 1e-9:
        flag = "corner_a_zero"
    else:
        flag = "interior"
    sol = BilateralSolution(contract=Contract(a_star, 0.0, b1_star),
                            cutoff=that, value=w, decomposition=decomp,
                            foc_residual=math.nan, boundary_flag=flag)
    return replace(sol, foc_residual=sufficient_statistics(econ, sol)["residual"])


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


def served_interval(econ: EconomyPrimitives, a: float, b0: float,
                    b1: float) -> tuple[float, float] | None:
    """Types that accept (U >= 0) and are worth serving (pi >= 0).

    U = a + b0 + b1*mu - c - Phi(K - a) and pi = V - a - b0 - b1*mu are
    assumed monotone in theta (true for the affine benchmark family);
    the served set is then an interval, possibly empty (None).
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
    lo = max(span_u[0], span_p[0])
    hi = min(span_u[1], span_p[1])
    return (lo, hi) if lo < hi else None


def _served_intervals(econ, a, b0, b1):
    """served_interval over arrays a, b1: (lo, hi, served) arrays.

    Roots come from find_roots, so each endpoint equals served_interval's
    bit for bit; lo and hi are meaningful only where served holds.
    """
    d = econ.dist
    K = econ.working_capital
    phi = np.array([financing_cost(econ.financing, K - x) for x in a.tolist()])

    def u(t, m):
        return _acceptance(econ, t, a[m], b0, b1[m], phi[m])

    def profit(t, m):
        return _profit(econ, t, a[m], b0, b1[m])

    lo_u, hi_u, ok_u = _monotone_regions(u, np.ones(a.size, bool), d)
    lo_p, hi_p, ok_p = _monotone_regions(profit, ok_u, d)
    lo, hi = np.maximum(lo_u, lo_p), np.minimum(hi_u, hi_p)
    return lo, hi, ok_u & ok_p & (lo < hi)


def _monotone_regions(g, rows, d):
    """_monotone_region for the rows where the mask rows holds.

    g(t, m) evaluates the monotone function of each row selected by m
    at the points t. Returns (lo, hi, nonempty) over all rows; rows
    outside the mask come back empty.
    """
    n = rows.size
    lo, hi = np.full(n, d.lower), np.full(n, d.upper)
    g_lo, g_hi = np.zeros(n), np.zeros(n)
    g_lo[rows] = g(lo[rows], rows)
    g_hi[rows] = g(hi[rows], rows)
    whole = (g_lo >= 0.0) & (g_hi >= 0.0)
    empty = ~rows | ((g_lo < 0.0) & (g_hi < 0.0))
    cross = ~whole & ~empty
    if cross.any():
        r = find_roots(lambda t: g(t, cross), lo[cross], hi[cross], DEFAULT_TOL)
        rises = g_lo[cross] < 0.0
        lo[cross] = np.where(rises, r, lo[cross])
        hi[cross] = np.where(rises, hi[cross], r)
    return lo, hi, ~empty


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


def contract_values(econ: EconomyPrimitives, a, b0: float = 0.0, b1=0.0,
                    panels: int = 128) -> np.ndarray:
    """contract_value over arrays of advances and slopes.

    a and b1 broadcast together; element i equals contract_value(econ,
    a[i], b0, b1[i], panels) bit for bit. The served intervals are found
    in lockstep and the integrals run as Simpson matrices of up to
    _SIMPSON_ROWS rows.
    """
    a, b1 = np.broadcast_arrays(np.asarray(a, float), np.asarray(b1, float))
    shape = a.shape
    a, b1 = a.ravel(), b1.ravel()
    lo, hi, served = _served_intervals(econ, a, b0, b1)
    out = np.zeros(a.size)
    rows = np.flatnonzero(served)
    for k in range(0, rows.size, _SIMPSON_ROWS):
        r = rows[k:k + _SIMPSON_ROWS]
        out[r] = integrate_rows(
            lambda t: _profit_flow(econ, t, a[r, None], b0, b1[r, None]),
            lo[r], hi[r], panels)
    return out.reshape(shape)


def _best_advances(econ, b1):
    """Best advance for each slope of an array, in lockstep.

    Returns (advances, values); element i equals the scalar search for
    slope b1[i]: a uniform scan of [0, K], maximize_scalar around its
    best point, then the corners and the participation roots as
    candidates.
    """
    b1 = np.asarray(b1, float)
    K = econ.working_capital
    d = econ.dist
    col = b1[:, None]

    def vals(a):
        return contract_values(econ, a, 0.0, col, _MIXED_PANELS)

    xs = np.linspace(0.0, K, _INNER_POINTS)
    i = np.argmax(vals(np.broadcast_to(xs, (b1.size, _INNER_POINTS))), axis=1)
    lo = xs[np.maximum(i - 1, 0)]
    hi = xs[np.minimum(i + 1, _INNER_POINTS - 1)]
    f_at = None
    if b1.size == 1:
        def f_at(a):
            return contract_value(econ, a, 0.0, float(b1[0]), _MIXED_PANELS)
    x_m, v_m = maximize_rows(vals, lo, hi, Tolerance(abs_x=1e-11),
                             scan_points=9, f_at=f_at)
    cands = [sorted({0.0, K, binding_ir_advance(econ, b, d.lower),
                     binding_ir_advance(econ, b, d.upper)})
             for b in b1.tolist()]
    sizes = [len(c) for c in cands]
    c_vals = np.split(contract_values(econ, np.concatenate(cands), 0.0,
                                      np.repeat(b1, sizes), _MIXED_PANELS),
                      np.cumsum(sizes)[:-1])
    best = [best_candidate([(float(x), float(v))] + list(zip(c, cv.tolist())),
                           _TIE)
            for x, v, c, cv in zip(x_m, v_m, cands, c_vals)]
    return np.array([x for x, _ in best]), np.array([v for _, v in best])


def _best_advance(econ, b1):
    """Best advance for a fixed slope in the mixed program."""
    a, v = _best_advances(econ, [b1])
    return float(a[0]), float(v[0])


def solve_mixed(econ: EconomyPrimitives) -> MixedSolution:
    """Solve the mixed program over (advance, slope) at actual flows.

    The slope search runs on [0, c'/mu'] (rents weakly increase in the
    slope beyond the flat-rent point) with the exact flat-rent slope and
    the screening-program slope injected as candidates. The outer scan
    and the candidates are solved as one batch; the golden refinement
    of the slope is sequential. An uninformative signal reduces the
    program to the pure-advance choice.
    """
    b1_flat = flat_rent_slope(econ)
    if b1_flat is None:
        a_star, v_star = _best_advance(econ, 0.0)
        return MixedSolution(Contract(a_star, 0.0, 0.0),
                             served_interval(econ, a_star, 0.0, 0.0),
                             v_star, "uninformative")

    def outer(b1):
        return _best_advance(econ, b1)[1]

    xs = np.linspace(0.0, b1_flat, _OUTER_POINTS)
    extra = [c for c in (0.0, b1_flat, solve_optimal(econ).contract.slope)
             if 0.0 <= c <= b1_flat]
    _, vals = _best_advances(econ, np.concatenate([xs, extra]))
    b1_g, v_g = refine_scan(outer, xs, vals[:_OUTER_POINTS],
                            Tolerance(abs_x=1e-9))
    b1_star, _ = best_candidate(
        [(b1_g, v_g)] + [(c, float(v)) for c, v in zip(extra, vals[_OUTER_POINTS:])],
        _TIE)
    a_star, v_star = _best_advance(econ, b1_star)
    span = served_interval(econ, a_star, 0.0, b1_star)
    if abs(b1_star - b1_flat) <= 1e-9:
        branch = "flat"
    elif b1_star < b1_flat:
        branch = "decreasing"
    else:
        branch = "increasing"
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


def pure_contingent_value(econ: EconomyPrimitives) -> float:
    """Value of the best zero-advance contract."""
    _, v = maximize_scalar(lambda b: contingent_value(econ, b),
                           0.0, slope_cap(econ), DEFAULT_TOL)
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


def sweep_R(econ: EconomyPrimitives, R_grid) -> tuple[list[dict], dict]:
    """Comparative statics of the benchmark contracts over tightness.

    Returns one row per tightness value with the screening-program
    advance, the mixed-program value and advance share, and the pure
    benchmarks, plus divided-difference diagnostics for the advance path.
    """
    rows = []
    d = econ.dist
    scale = float(econ.surplus(d.upper)) - float(econ.cost(d.upper))
    for R in R_grid:
        e = with_tightness(econ, float(R))
        sol = solve_optimal(e)
        mix = solve_mixed(e)
        a = sol.contract.advance
        K = e.working_capital
        rows.append({
            "R": float(R),
            "a_star": a,
            "ell_star": K - a,
            "beta_star": advance_share(e, mix),
            "phi_share": financing_cost(e.financing, K - a) / scale,
            "W_M": mix.value,
            "W_A": pure_advance_value(e),
            "W_C": pure_contingent_value(e),
        })
    a_path = np.array([r["a_star"] for r in rows])
    Rs = np.array([r["R"] for r in rows])
    slopes = np.diff(a_path) / np.diff(Rs)
    diagnostics = {
        "advance_increasing": bool(np.all(slopes > 0)),
        "advance_concave": bool(np.all(np.diff(slopes) < 0)),
    }
    return rows, diagnostics
