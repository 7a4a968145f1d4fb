"""Multi-relationship portfolios with implementation complementarities.

A portfolio couples several screening relationships through a symmetric
complementarity matrix: the principal collects an extra payoff on each
pair of jointly implemented relationships, which links the per-
relationship cutoffs into a fixed-point system and creates a contagion
channel from one counterparty's credit conditions to the whole book.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bilateral import (Contract, binding_ir_advance, cutoff, rent_tail,
                        screening_integral, solve_mixed, virtual_surplus)
from .economy import (EconomyPrimitives, marginal_ell, marginal_r,
                      with_tightness)
from .errors import DegeneracyError, DomainError
from .numerics import Bracket, Tolerance, find_root, fixed_point

FP_TOL = Tolerance(abs_x=1e-10, abs_f=1e-12, max_iter=20000)
_FD_R = 1e-4  # tightness step of the finite-difference contagion responses
_NEWTON_STEPS = 50  # projected Newton steps before the damped map takes over
_NEWTON_STOP = 1e-13  # Newton has converged once no cutoff moves further
_NEWTON_RISE = 1e-10  # a larger rise of a free cutoff hands over to the damped map


# ---------------------------------------------------------------------------
# calibration of the default portfolio contract


def slope_calibration(R: float) -> float:
    """Default contingent slope schedule for portfolio comparative statics.

    Smoothly decreasing in tightness: 0.35*exp(-2(R-1)) up to R = 1.5,
    continued hyperbolically beyond so the slope stays positive.
    """
    if R < 0:
        raise DomainError("tightness must be nonnegative")
    if R <= 1.5:
        return 0.35 * math.exp(-2.0 * (R - 1.0))
    return 0.35 * math.exp(-1.0) * (1.5 / R)


def slope_calibration_prime(R: float) -> float:
    """Derivative of the calibration schedule."""
    if R <= 1.5:
        return -0.7 * math.exp(-2.0 * (R - 1.0))
    return -0.35 * math.exp(-1.0) * 1.5 / (R * R)


def calibrated_contract(econ: EconomyPrimitives) -> Contract:
    """Calibrated slope at the economy's tightness, advance on the manifold."""
    b1 = slope_calibration(econ.financing.tightness)
    return Contract(binding_ir_advance(econ, b1), 0.0, b1)


def advance_response(econ: EconomyPrimitives, b1: float,
                     b1_prime: float) -> float:
    """d a / d R along the binding-participation manifold.

    Differentiates a + b1*mu(lo) = c(lo) + Phi(K - a; R) in R, letting
    the slope follow its schedule: a' = (Phi_R - b1'*mu(lo)) / (1 + Phi_ell).
    """
    a = binding_ir_advance(econ, b1)
    ell = econ.working_capital - a
    mu_lo = float(econ.signal_mean(econ.dist.lower))
    return (marginal_r(econ.financing, ell) - b1_prime * mu_lo) \
        / (1.0 + marginal_ell(econ.financing, ell))


# ---------------------------------------------------------------------------
# portfolio container


@dataclass(frozen=True, eq=False)
class PortfolioEconomy:
    """Relationships, their contracts, and the complementarity matrix."""

    economies: tuple[EconomyPrimitives, ...]
    coupling: np.ndarray
    contracts: tuple[Contract, ...]

    def __post_init__(self):
        n = len(self.economies)
        c = np.asarray(self.coupling, float)
        if c.shape != (n, n):
            raise DomainError("coupling matrix shape must match economy count")
        if np.any(np.abs(c - c.T) > 1e-12):
            raise DomainError("coupling matrix must be symmetric")
        if np.any(np.abs(np.diag(c)) > 1e-12):
            raise DomainError("coupling matrix needs a zero diagonal")
        if np.any(c < -1e-12):
            raise DomainError("complementarities must be nonnegative")
        if len(self.contracts) != n:
            raise DomainError("one contract per economy required")


@dataclass(frozen=True, eq=False)
class PortfolioSolution:
    """Coupled cutoffs and the resulting portfolio value split."""

    cutoffs: np.ndarray
    clamped: tuple[str, ...]  # none | all_served | empty per relationship
    total_value: float
    per_value: np.ndarray
    centralities: np.ndarray
    residual: float
    iterations: int


def make_portfolio(economies, delta=None, coupling=None,
                   contracts=None) -> PortfolioEconomy:
    """Assemble a portfolio; a scalar delta builds the symmetric matrix."""
    econs = tuple(economies)
    n = len(econs)
    if coupling is None:
        if delta is None:
            raise DomainError("provide delta or a coupling matrix")
        coupling = delta * (np.ones((n, n)) - np.eye(n))
    if contracts is None:
        contracts = tuple(calibrated_contract(e) for e in econs)
    return PortfolioEconomy(econs, np.asarray(coupling, float), tuple(contracts))


def symmetric_portfolio(R: float, delta: float, v: float = 2.0,
                        mu0: float = 0.0, n: int = 2) -> PortfolioEconomy:
    """Two (or n) identical benchmark relationships with common coupling."""
    from .economy import benchmark

    econs = [benchmark(v=v, mu0=mu0, R=R) for _ in range(n)]
    return make_portfolio(econs, delta=delta)


# ---------------------------------------------------------------------------
# coupled cutoffs


def symmetric_cutoff(a: float, b1: float, delta: float, v: float = 2.0):
    """Closed-form symmetric coupled cutoff on the uniform benchmark.

    (a + b1 - delta) / (v - 1 + b1 - delta), using the manifold identity
    Phi(K - a) = a; clamped to [0, 1] with the clamp reported. A negative
    denominator makes that root unstable; the damped map then runs from
    the uncoupled cutoff to 0 if it starts below the root, else to 1.
    """
    denom = (v - 1.0) + b1 - delta
    if abs(denom) <= 1e-9:
        raise DegeneracyError("coupled-cutoff denominator vanishes")
    theta = (a + b1 - delta) / denom
    if denom < 0.0:
        start = min(max((a + b1) / ((v - 1.0) + b1), 0.0), 1.0)
        return (0.0 if start < theta else 1.0), True
    clamped = theta < 0.0 or theta > 1.0
    return min(max(theta, 0.0), 1.0), clamped


def symmetric_cutoff_iterative(a: float, b1: float, delta: float,
                               v: float = 2.0,
                               tol: Tolerance = FP_TOL) -> tuple[float, float, int]:
    """Damped fixed-point iteration of the symmetric coupled-cutoff map.

    Iterates theta <- clamp((a + b1 - delta(1 - theta)) / (v - 1 + b1))
    from theta = 0.5, using the manifold identity Phi(K - a) = a.
    Returns (theta, residual, iterations); raises ConvergenceError when
    the budget runs out.
    """
    den = (v - 1.0) + b1
    c0 = (a + b1 - delta) / den
    c1 = delta / den
    x, residual, iters = fixed_point(lambda x: np.clip(c0 + c1 * x, 0.0, 1.0),
                                     np.array([0.5]), tol)
    return float(x[0]), residual, iters


def _clamps(psi_lo, psi_hi, load):
    """Clamp rule at a complementarity load, elementwise.

    A relationship serves every type when psi(lower) + load >= 0 and no
    type when psi(upper) + load < 0; psi at the support ends does not
    depend on the load.
    """
    return psi_lo + load >= 0.0, psi_hi + load < 0.0


def _cutoff_given_coupling(econ, contract, load, psi_lo, psi_hi):
    """Cutoff solving psi(theta) = -load, clamped to the support.

    load is the complementarity mass from the other relationships, so
    the effective implementation threshold weakly falls as load rises.
    psi_lo and psi_hi are psi at the support ends.
    """
    d = econ.dist
    all_served, empty = _clamps(psi_lo, psi_hi, load)
    if all_served:
        return d.lower, "all_served"
    if empty:
        return d.upper, "empty"
    a, b1 = contract.advance, contract.slope
    return find_root(lambda t: float(virtual_surplus(econ, t, a, b1)) + load,
                     Bracket(d.lower, d.upper), Tolerance()), "none"


def solve_cutoffs(port: PortfolioEconomy) -> PortfolioSolution:
    """Coupled cutoffs by projected Newton, certified by the damped map.

    Under complementarities the response map T (every relationship's
    threshold re-solved at the current load) is monotone, and the damped
    map x <- x + (T(x) - x)/2 from the uncoupled cutoffs descends to the
    largest fixed point below them. Projected Newton starts from the same
    point and keeps to that selection (see _newton_cutoffs); the damped
    map then runs from Newton's point, so a converged Newton point costs
    one certifying pass and any other point is finished by the map.
    iterations counts Newton steps plus damped-map passes; the clamp
    flags come from the pass that produced the returned cutoffs.
    """
    pairs = tuple(zip(port.economies, port.contracts))
    psi_lo = np.array([float(virtual_surplus(e, e.dist.lower, c.advance, c.slope))
                       for e, c in pairs])
    psi_hi = np.array([float(virtual_surplus(e, e.dist.upper, c.advance, c.slope))
                       for e, c in pairs])
    flags = []

    def responses(x):
        load = port.coupling @ _tails(port, x)
        out = [_cutoff_given_coupling(e, c, float(l), lo, hi)
               for (e, c), l, lo, hi in zip(pairs, load, psi_lo, psi_hi)]
        flags[:] = [flag for _, flag in out]
        return np.array([t for t, _ in out])

    x0 = np.array([cutoff(e, c.advance, c.slope) for e, c in pairs])
    x, steps = _newton_cutoffs(port, x0, psi_lo, psi_hi)
    x, residual, iters = fixed_point(responses, x, FP_TOL)
    clamped = tuple(flags)
    total, per = portfolio_value(port, x)
    cents = _all_centralities(port, x, clamped)
    return PortfolioSolution(cutoffs=x, clamped=clamped, total_value=total,
                             per_value=per, centralities=cents,
                             residual=residual, iterations=steps + iters)


def _newton_cutoffs(port, x, psi_lo, psi_hi):
    """Projected Newton on psi_i(x_i) + load_i(x) = 0; returns (x, steps).

    Each step jumps the clamped cutoffs to their support end and moves
    the free ones by a Newton step with _cutoff_jacobian, clipped to the
    support. Stops once no cutoff moves by more than _NEWTON_STOP. It
    also stops, leaving the rest to the damped map, at _NEWTON_STEPS, at
    a singular Jacobian (or a non-finite step), and before a step that
    would raise a free cutoff by more than _NEWTON_RISE: the damped map
    approaches its fixed point from above, so a rise points at another
    fixed point or at an overshoot.
    """
    lower = np.array([e.dist.lower for e in port.economies])
    upper = np.array([e.dist.upper for e in port.economies])
    for step in range(_NEWTON_STEPS):
        load = port.coupling @ _tails(port, x)
        all_served, empty = _clamps(psi_lo, psi_hi, load)
        new = np.where(all_served, lower, np.where(empty, upper, x))
        free = np.flatnonzero(~(all_served | empty))
        if free.size:
            resid = np.array([float(virtual_surplus(port.economies[i], float(x[i]),
                                                    port.contracts[i].advance,
                                                    port.contracts[i].slope))
                              for i in free]) + load[free]
            try:
                move = np.linalg.solve(_cutoff_jacobian(port, x, free), -resid)
            except np.linalg.LinAlgError:
                return x, step
            new[free] = np.clip(x[free] + move, lower[free], upper[free])
            if not np.all(np.isfinite(move)) \
                    or np.any(new[free] - x[free] > _NEWTON_RISE):
                return x, step
        moved = float(np.max(np.abs(new - x)))
        x = new
        if moved <= _NEWTON_STOP:
            return x, step + 1
    return x, _NEWTON_STEPS


def _tails(port: PortfolioEconomy, x) -> np.ndarray:
    """Mass 1 - F_i(x_i) each relationship serves at its cutoff."""
    return np.array([1.0 - float(e.dist.cdf(t))
                     for e, t in zip(port.economies, x)])


def portfolio_value(port: PortfolioEconomy, cutoffs) -> tuple[float, np.ndarray]:
    """Portfolio value at given cutoffs, with a per-relationship split.

    Each relationship books its own screening value minus its advance;
    every pairwise complementarity term counts once in the total and is
    split half-and-half between the two relationships involved.
    """
    x = np.asarray(cutoffs, float)
    tails = _tails(port, x)
    per = np.empty(len(x))
    for i, (e, c) in enumerate(zip(port.economies, port.contracts)):
        base = screening_integral(e, float(x[i]), c.advance, c.slope, 256)
        pair = 0.5 * float(np.sum(port.coupling[i] * tails)) * tails[i]
        per[i] = base + pair - c.advance
    return float(np.sum(per)), per


# ---------------------------------------------------------------------------
# contagion derivatives and thresholds


def _rebuild(port: PortfolioEconomy, j: int, R_j: float,
             resolve_contracts: bool) -> PortfolioEconomy:
    econs = list(port.economies)
    econs[j] = with_tightness(econs[j], R_j)
    contracts = list(port.contracts)
    if resolve_contracts:
        contracts[j] = calibrated_contract(econs[j])
    return PortfolioEconomy(tuple(econs), port.coupling, tuple(contracts))


def fd_cutoff_sensitivity(port: PortfolioEconomy, j: int) -> np.ndarray:
    """Finite-difference response of all cutoffs to relationship j's tightness.

    Contracts stay fixed; central difference with step _FD_R.
    """
    R_j = port.economies[j].financing.tightness
    up = solve_cutoffs(_rebuild(port, j, R_j + _FD_R, False)).cutoffs
    dn = solve_cutoffs(_rebuild(port, j, R_j - _FD_R, False)).cutoffs
    return (up - dn) / (2.0 * _FD_R)


def _cutoff_jacobian(port, cutoffs, free):
    """Jacobian of the cutoff conditions in the free (unclamped) cutoffs.

    Clamped cutoffs sit at a support endpoint and do not move locally.
    psi' is a central difference whose stencil is moved inside the
    support when a cutoff lies within its step of an end.
    """
    x = cutoffs[free].tolist()
    pdf = np.array([float(port.economies[k].dist.pdf(t))
                    for k, t in zip(free, x)])
    jac = -(port.coupling[np.ix_(free, free)] * pdf)
    h = 1e-6
    for m, (i, t) in enumerate(zip(free, x)):
        e, c = port.economies[i], port.contracts[i]
        t = min(max(t, e.dist.lower + h), e.dist.upper - h)
        jac[m, m] = (float(virtual_surplus(e, t + h, c.advance, c.slope))
                     - float(virtual_surplus(e, t - h, c.advance, c.slope))) \
            / (2 * h)
    return jac


def _all_centralities(port, cutoffs, clamped):
    """Coupling-weighted response of the other cutoffs to each R_j.

    One Jacobian solve, a column per free j; clamped relationships get 0.
    """
    out = np.zeros(len(port.economies))
    free = np.flatnonzero(np.asarray(clamped) == "none")
    if free.size == 0:
        return out
    rhs = np.diag([marginal_r(port.economies[j].financing,
                              port.economies[j].working_capital
                              - port.contracts[j].advance) for j in free])
    try:
        sens = np.linalg.solve(_cutoff_jacobian(port, cutoffs, free), rhs)
    except np.linalg.LinAlgError as exc:
        raise DegeneracyError(f"singular cutoff Jacobian: {exc}") from exc
    weighted = port.coupling[np.ix_(free, free)] * sens
    np.fill_diagonal(weighted, 0.0)
    out[free] = weighted.sum(axis=0)
    return out


def contagion_derivative(port: PortfolioEconomy, j: int,
                         analytic_only: bool = False) -> dict:
    """Total and decomposed response of portfolio value to R_j.

    total is a central finite difference (step _FD_R) with contracts
    re-calibrated at the shifted tightness (nan when analytic_only skips
    it). The analytic decomposition uses the envelope property of the
    coupled cutoffs: direct_financing is the mechanical financing-cost
    effect at fixed contracts, screening_spillover the contract-response
    terms. flagged marks corner contracts, where the schedule derivative
    is one-sided.
    """
    base = solve_cutoffs(port)
    e_j = port.economies[j]
    c_j = port.contracts[j]
    R_j = e_j.financing.tightness
    if analytic_only:
        total = math.nan
    else:
        up = solve_cutoffs(_rebuild(port, j, R_j + _FD_R, True)).total_value
        dn = solve_cutoffs(_rebuild(port, j, R_j - _FD_R, True)).total_value
        total = (up - dn) / (2.0 * _FD_R)

    that = float(base.cutoffs[j])
    tail = 1.0 - float(e_j.dist.cdf(that))
    ell = e_j.working_capital - c_j.advance
    b1p = slope_calibration_prime(R_j)
    ap = advance_response(e_j, c_j.slope, b1p)
    direct = -marginal_r(e_j.financing, ell) * tail
    spillover = ap * (marginal_ell(e_j.financing, ell) * tail - 1.0) \
        - b1p * rent_tail(e_j, that, 256)
    K = e_j.working_capital
    flagged = (c_j.advance <= 1e-9 or c_j.advance >= K - 1e-9
               or c_j.slope <= 1e-9)
    return {"total": total, "direct_financing": direct,
            "screening_spillover": spillover,
            "analytic": direct + spillover, "flagged": flagged}


EMPIRICAL_DELTA_GRID = np.arange(0.0, 2.5 + 1e-9, 0.05)


def contagion_threshold(econ: EconomyPrimitives,
                        delta_grid=None) -> dict:
    """Coupling strength at which tighter credit starts raising book value.

    analytic inverts the sign condition of the fixed-contract value
    derivative at the uncoupled cutoff. empirical is the first coupling
    in delta_grid where the full finite-difference derivative (contracts
    re-calibrated) turns positive, nan when none does. The scan solves
    three coupled books per grid point, so it runs only when a grid is
    given (EMPIRICAL_DELTA_GRID is the customary one); without one,
    empirical is nan.
    """
    c = calibrated_contract(econ)
    if c.slope <= 1e-12:
        raise DegeneracyError("calibrated slope is zero; threshold undefined")
    K = econ.working_capital
    ell = K - c.advance
    that = cutoff(econ, c.advance, c.slope)
    tail = 1.0 - float(econ.dist.cdf(that))
    if tail <= 1e-12:
        raise DegeneracyError("uncoupled service set is empty")
    analytic = (K - c.advance) * (1.0 + c.slope) \
        * marginal_r(econ.financing, ell) / (c.slope * tail)
    empirical = math.nan
    R = econ.financing.tightness
    for dlt in (() if delta_grid is None else delta_grid):
        port = symmetric_portfolio(R, float(dlt))
        if contagion_derivative(port, 0)["total"] > 0.0:
            empirical = float(dlt)
            break
    return {"analytic": float(analytic), "empirical": empirical}


# ---------------------------------------------------------------------------
# book-level comparative statics


def hump_scan(R_grid, delta: float, v: float = 2.0, mu0: float = 0.0) -> dict:
    """Portfolio value along a common-tightness path with fixed coupling.

    Returns grid values, finite-difference slopes, the sub-intervals
    where the slope is positive, and the interior peak if one exists.
    """
    Rs = np.asarray(R_grid, float)
    vals = np.array([solve_cutoffs(symmetric_portfolio(float(R), delta,
                                                       v=v, mu0=mu0)).total_value
                     for R in Rs])
    slopes = np.diff(vals) / np.diff(Rs)
    positive = []
    start = None
    for i, s in enumerate(slopes):
        if s > 0 and start is None:
            start = Rs[i]
        if s <= 0 and start is not None:
            positive.append((float(start), float(Rs[i])))
            start = None
    if start is not None:
        positive.append((float(start), float(Rs[-1])))
    peak = None
    i_max = int(np.argmax(vals))
    if 0 < i_max < len(Rs) - 1:
        peak = float(Rs[i_max])
    return {"R": Rs, "value": vals, "slope": slopes,
            "positive_intervals": positive, "peak": peak}


def breadth_comparison(port: PortfolioEconomy,
                       single: str = "reoptimized") -> dict:
    """Two coupled relationships against independent bilateral ones.

    Prefers narrow sourcing when twice the single-relationship value
    exceeds the coupled book value. single="reoptimized" lets the stand-
    alone relationship use its unconstrained mixed-program optimum (the
    relevant comparison when dropping a counterparty frees the contract);
    single="matched" keeps the portfolio's own contract, which makes the
    zero-coupling case an exact tie.
    """
    dual = solve_cutoffs(port).total_value
    if single == "reoptimized":
        w1 = solve_mixed(port.economies[0]).value
    elif single == "matched":
        e, c = port.economies[0], port.contracts[0]
        w1 = screening_integral(e, cutoff(e, c.advance, c.slope),
                                c.advance, c.slope, 256) - c.advance
    else:
        raise DomainError(f"unknown single-value convention {single!r}")
    return {"dual_value": dual, "single_value": w1,
            "prefer_single": 2.0 * w1 > dual}


def uniform_subsidy_effect(R: float, delta: float, dR: float = 0.05,
                           v: float = 2.0, mu0: float = 0.0) -> dict:
    """Per-relationship value change when every tightness falls by dR."""
    base = solve_cutoffs(symmetric_portfolio(R, delta, v=v, mu0=mu0))
    subs = solve_cutoffs(symmetric_portfolio(R - dR, delta, v=v, mu0=mu0))
    change = subs.per_value - base.per_value
    return {"pi_base": base.per_value, "pi_subsidized": subs.per_value,
            "change": change,
            "all_lower": bool(np.all(change < 0.0)),
            "all_higher": bool(np.all(change > 0.0))}


def independent_cutoff_value(port: PortfolioEconomy) -> dict:
    """Value lost by running book cutoffs at their uncoupled positions.

    Evaluates the coupled objective at the bilateral cutoffs and
    reports the relative shortfall against the coupled optimum.
    """
    sol = solve_cutoffs(port)
    x_ind = np.array([cutoff(e, c.advance, c.slope)
                      for e, c in zip(port.economies, port.contracts)])
    v_ind, _ = portfolio_value(port, x_ind)
    if abs(sol.total_value) < 1e-12:
        raise DegeneracyError("coupled value is zero; relative loss undefined")
    return {"coupled": sol.total_value, "at_independent": v_ind,
            "relative_loss": (v_ind - sol.total_value) / abs(sol.total_value)}
