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

from .bilateral import (Contract, _cutoff_grid, _envelope_slope, _first_crossing,
                        _psi_row, binding_ir_advance, cutoff, screening_integral,
                        virtual_surplus)
from .economy import (EconomyPrimitives, benchmark, marginal_ell, marginal_r,
                      with_tightness)
from .errors import DegeneracyError, DomainError
from .numerics import Tolerance, _simpson, fixed_point

FP_TOL = Tolerance(abs_x=1e-10, abs_f=1e-12, max_iter=20000)
_FD_R = 1e-4  # tightness step of the finite-difference contagion responses
_NEWTON_STEPS = 50  # projected Newton steps before the damped map takes over
_NEWTON_STOP = 1e-13  # Newton has converged once no cutoff moves further
_NEWTON_RISE = 1e-10  # a larger rise of a free cutoff hands over to the damped map
# the clamp flags of _project's codes 0, 1 and 2: solutions share these
# strings, not one per relationship
_FLAGS = np.array(["none", "all_served", "empty"], dtype=object)


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
    return Contract(binding_ir_advance(econ, b1), b1)


def advance_response(econ: EconomyPrimitives, contract: Contract,
                     b1_prime: float) -> float:
    """d a / d R along the binding-participation manifold at contract.

    contract's advance is the manifold's, binding_ir_advance at its
    slope. Differentiates a + b1*mu(lo) = c(lo) + Phi(K - a; R) in R,
    letting the slope follow its schedule: a' = (Phi_R - b1'*mu(lo)) /
    (1 + Phi_ell). 0 where the advance is clamped at 0 or K, as in
    bilateral._manifold_slope.
    """
    a = contract.advance
    K = econ.working_capital
    if not 0.0 < a < K:
        return 0.0
    ell = K - a
    mu_lo = float(econ.signal_mean(econ.dist.lower))
    return (marginal_r(econ.financing, ell) - b1_prime * mu_lo) \
        / (1.0 + marginal_ell(econ.financing, ell))


# ---------------------------------------------------------------------------
# portfolio container


@dataclass(frozen=True, eq=False)
class PortfolioEconomy:
    """Relationships, their contracts, and the complementarity matrix.

    coupling is kept as the validated float64 array, whatever array-like
    was given (the same object when it is one already).
    """

    economies: tuple[EconomyPrimitives, ...]
    coupling: np.ndarray
    contracts: tuple[Contract, ...]

    def __post_init__(self):
        n = len(self.economies)
        c = np.asarray(self.coupling, float)
        object.__setattr__(self, "coupling", c)
        if n == 0:
            raise DomainError("a portfolio needs at least one relationship")
        if c.shape != (n, n):
            raise DomainError("coupling matrix shape must match economy count")
        if not np.all(np.isfinite(c)):
            raise DomainError("complementarities must be finite")
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
        coupling = np.where(np.eye(n, dtype=bool), 0.0, delta)
    if contracts is None:
        contracts = tuple(calibrated_contract(e) for e in econs)
    return PortfolioEconomy(econs, np.asarray(coupling, float), tuple(contracts))


def symmetric_portfolio(R: float, delta: float,
                        mu0: float = 0.0) -> PortfolioEconomy:
    """Two copies of one benchmark relationship (v = 2) with common coupling."""
    econ = benchmark(v=2.0, mu0=mu0, R=R)
    c = calibrated_contract(econ)
    return make_portfolio([econ, econ], delta=delta, contracts=(c, c))


# ---------------------------------------------------------------------------
# coupled cutoffs


def symmetric_cutoff(a: float, b1: float, delta: float):
    """Closed-form symmetric coupled cutoff on the uniform benchmark (v = 2).

    (a + b1 - delta) / (1 + b1 - delta), using the manifold identity
    Phi(K - a) = a; clamped to [0, 1] with the clamp reported. A negative
    denominator makes that root unstable; the damped map then runs from
    the uncoupled cutoff to 0 if it starts below the root, else to 1.
    """
    denom = 1.0 + b1 - delta
    if abs(denom) <= 1e-9:
        raise DegeneracyError("coupled-cutoff denominator vanishes")
    theta = (a + b1 - delta) / denom
    if denom < 0.0:
        start = min(max((a + b1) / (1.0 + b1), 0.0), 1.0)
        return (0.0 if start < theta else 1.0), True
    clamped = theta < 0.0 or theta > 1.0
    return min(max(theta, 0.0), 1.0), clamped


def _project(x, load, ends):
    """Clamp rule at a complementarity load; returns (cutoffs, flag codes).

    ends holds psi(lower), psi(upper), lower and upper per relationship;
    psi at the support ends does not move with the load. psi(lower) +
    load >= 0 serves every type (all_served), psi(upper) + load < 0 none
    (empty), and such a cutoff moves to that support end; the others
    keep their entry of x and the flag none. The codes index _FLAGS.
    """
    psi_lo, psi_hi, lower, upper = ends
    all_served, empty = psi_lo + load >= 0.0, psi_hi + load < 0.0
    return (np.where(all_served, lower, np.where(empty, upper, x)),
            np.where(all_served, 1, 2 * empty))


def _uncoupled(port: PortfolioEconomy) -> tuple[np.ndarray, np.ndarray]:
    """A book solve's start: (columns, rows), two read-only arrays.

    columns is 5 x n, one column per relationship. Row 0 is the
    uncoupled cutoff, cutoff(e, a, b1) at load 0 for each relationship's
    contract; rows 1-4 are _project's ends: psi(lower), psi(upper),
    lower and upper. rows is n x 257: each relationship's psi on
    cutoff's type grid, priced once here. The rows depend on neither the
    coupling nor the load, so every later step that needs psi on that
    grid reads them: the damped map's responses and the all-served
    values of portfolio_value. One start serves every book of the same
    relationships and contracts, whatever the coupling.
    """
    cols, rows = [], []
    for e, c in zip(port.economies, port.contracts):
        ts = _cutoff_grid(e)
        rows.append(_psi_row(e, ts, c.advance, c.slope))
        cols.append((*_first_crossing(e, ts, rows[-1], c.advance, c.slope, 0.0),
                     e.dist.lower, e.dist.upper))
    start = np.array(cols).T, np.array(rows)
    for part in start:
        part.setflags(write=False)
    return start


def solve_cutoffs(port: PortfolioEconomy) -> PortfolioSolution:
    """Coupled cutoffs from the uncoupled start, with value split and centralities."""
    start = _uncoupled(port)
    x, clamped, residual, iterations = _coupled_cutoffs(port, start, port.coupling[None])
    x, clamped = x[0].copy(), clamped[0]  # a 1-d array, not a view of the stack
    total, per = portfolio_value(port, x, start)
    return PortfolioSolution(cutoffs=x, clamped=clamped, total_value=total,
                             per_value=per,
                             centralities=_all_centralities(port, x, clamped),
                             residual=float(residual[0]),
                             iterations=int(iterations[0]))


def _coupled_cutoffs(port: PortfolioEconomy, start, couplings):
    """Coupled cutoffs by projected Newton, certified by the damped map.

    couplings is an L x n x n stack of coupling matrices, the lanes, on
    port's relationships and contracts; port's own coupling is not read.
    Under complementarities the response map T (every relationship's
    threshold re-solved at the current load) is monotone, and the damped
    map x <- x + (T(x) - x)/2 from the uncoupled cutoffs descends to the
    largest fixed point below them. Projected Newton starts from the same
    point and keeps to that selection (see _newton_cutoffs); the damped
    map then runs from Newton's point, so a converged Newton point costs
    one certifying pass and any other point is finished by the map.
    start is _uncoupled(port), or that of a book with the same
    relationships and contracts. Every lane starts from it and stops on
    its own rules, so its iterates are bit for bit those of a solve of
    that lane alone. A response roots each free cutoff at its load on
    the start's psi row (_first_crossing), bit for bit
    cutoff(e, a, b1, load), so no pass prices psi on a grid. Returns (cutoffs, clamp flags, residuals,
    iterations), one row or entry per lane: an L x n array, a list of
    tuples and two arrays. iterations counts Newton steps plus
    damped-map passes, and the clamp flags come from the pass that
    produced the cutoffs.
    """
    cols, rows = start
    x0, ends = cols[0], cols[1:]
    codes = np.zeros((len(couplings), len(x0)), dtype=int)

    def responses(x, lanes):
        load = _loads(couplings[lanes], _tails(port, x))
        out, pattern = _project(x, load, ends)
        for i, on in _free_columns(pattern == 0):
            e, c = port.economies[i], port.contracts[i]
            out[on, i] = _first_crossing(e, _cutoff_grid(e), rows[i], c.advance, c.slope,
                                         load[on, i])[0]
        codes[lanes] = pattern
        return out

    x, steps = _newton_cutoffs(port, couplings, np.tile(x0, (len(couplings), 1)), ends)
    x, residual, iters = fixed_point(responses, x, FP_TOL)
    return x, [tuple(row) for row in _FLAGS[codes].tolist()], residual, steps + iters


def _newton_cutoffs(port, couplings, x, ends):
    """Projected Newton on psi_i(x_i) + load_i(x) = 0, lane by lane; returns (x, steps).

    x holds one row of cutoffs per lane of couplings and is written in
    place; steps holds one count per lane. Each step jumps the clamped
    cutoffs to their support end and moves the free ones by a Newton
    step with _jacobians, clipped to the support. A lane stops once no
    cutoff moves by more
    than _NEWTON_STOP. It also stops, leaving the rest to the damped
    map, at _NEWTON_STEPS, at a singular Jacobian (or a non-finite
    step), and before a step that would raise a free cutoff by more than
    _NEWTON_RISE: the damped map approaches its fixed point from above,
    so a rise points at another fixed point or at an overshoot. The
    open lanes step together: _psi_terms prices every free cutoff's
    residual and psi', and lanes with the same free set share one
    stacked solve (_newton_moves). ends are _project's.
    """
    lower, upper = ends[2:]
    steps = np.full(len(x), _NEWTON_STEPS)
    lanes = np.arange(len(x))
    xs, cs = x, couplings  # the open lanes' cutoffs and couplings
    for step in range(_NEWTON_STEPS):
        load = _loads(cs, _tails(port, xs))
        new, codes = _project(xs, load, ends)
        free = codes == 0
        stop = np.zeros(len(xs), dtype=bool)  # lanes that stay at xs
        if free.any():
            psi, pdf, dpsi = _psi_terms(port, xs, free)
            for rows, cols, at in _free_sets(free):
                xf = xs[at]
                move = _newton_moves(_jacobians(cs[rows], pdf[rows], dpsi[rows], cols),
                                     -(psi[at] + load[at]))
                moved = np.clip(xf + move, lower[cols], upper[cols])
                new[at] = moved
                stop[rows] = ~np.isfinite(move).all(axis=1) \
                    | (moved - xf > _NEWTON_RISE).any(axis=1)
        done = stop | (np.max(np.abs(new - xs), axis=1) <= _NEWTON_STOP)
        if done.any():
            x[lanes[done]] = np.where(stop[:, None], xs, new)[done]
            steps[lanes[done]] = np.where(stop[done], step, step + 1)
            if done.all():
                return x, steps
            lanes, new, cs = lanes[~done], new[~done], cs[~done]
        xs = new
    x[lanes] = xs
    return x, steps


def _newton_moves(jacobians, rhs):
    """Solutions of a stack of Newton systems, nan for a singular Jacobian.

    One np.linalg.solve on the stack; when it raises, each lane is
    solved on its own, so only a singular lane goes without a move.
    """
    try:
        return np.linalg.solve(jacobians, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        if len(jacobians) == 1:
            return np.full(rhs.shape, np.nan)
        return np.concatenate([_newton_moves(j[None], r[None])
                               for j, r in zip(jacobians, rhs)])


def _free_sets(free):
    """(lanes, columns, block) of each distinct nonempty row of the mask free.

    lanes indexes the rows that share it, a slice when that is every
    row; columns are its free entries, and block indexes those lanes'
    entries there.
    """
    sets = {}
    for lane, row in enumerate(free):
        sets.setdefault(row.tobytes(), []).append(lane)
    for lanes in sets.values():
        cols = np.flatnonzero(free[lanes[0]])
        if not cols.size:
            continue
        if len(lanes) == len(free):
            yield slice(None), cols, (slice(None), cols)
        else:
            rows = np.array(lanes)
            yield rows, cols, (rows[:, None], cols)


def _free_columns(free):
    """(i, lanes) of each relationship i free on some lane of the mask free.

    lanes indexes the rows where i is free: a slice when that is every
    row, else the mask's column.
    """
    for i, col in enumerate(free.T.tolist()):
        if any(col):
            yield i, slice(None) if all(col) else free[:, i]


def _loads(couplings, tails):
    """Complementarity load on each relationship: one C @ tails per lane."""
    return (couplings @ tails[..., None])[..., 0]


def _tails(port: PortfolioEconomy, x) -> np.ndarray:
    """Mass 1 - F_i(x_i) each relationship serves at its cutoff.

    x holds one row of cutoffs per lane; each relationship takes one
    cdf call over the lanes. The result is C-contiguous, so the loads'
    stacked matmul sees one layout whatever the number of lanes.
    """
    cdf = np.array([e.dist.cdf(t) for e, t in zip(port.economies, x.T)], float)
    return np.ascontiguousarray((1.0 - cdf).T)


def portfolio_value(port: PortfolioEconomy, cutoffs, start) -> tuple[float, np.ndarray]:
    """Portfolio value at given cutoffs, with a per-relationship split.

    Each relationship books its own screening value minus its advance;
    every pairwise complementarity term counts once in the total and is
    split half-and-half between the two relationships involved. The
    screening value is screening_integral(e, x, a, b1, 256). start is
    _uncoupled(port), or that of a book with the same relationships and
    contracts: a cutoff exactly at its support's lower end integrates
    the start's psi row times f by the same Simpson sum on the same
    grid, bit for bit that integral, without pricing psi again.
    """
    x = np.asarray(cutoffs, float)
    rows = start[1]
    tails = _tails(port, x[None])[0]
    per = np.empty(len(x))
    for i, (e, c) in enumerate(zip(port.economies, port.contracts)):
        t, d = float(x[i]), e.dist
        if t == d.lower:
            f = np.asarray(d.pdf(_cutoff_grid(e)), float)
            base = float(_simpson(rows[i] * f, (d.upper - t) / 256))
        else:
            base = screening_integral(e, t, c.advance, c.slope, 256)
        pair = 0.5 * float(np.sum(port.coupling[i] * tails)) * tails[i]
        per[i] = base + pair - c.advance
    return float(np.sum(per)), per


# ---------------------------------------------------------------------------
# contagion derivatives and thresholds


def _rebuild(port: PortfolioEconomy, j: int, R_j: float) -> PortfolioEconomy:
    """port with relationship j at tightness R_j and its contract re-calibrated."""
    econs = list(port.economies)
    econs[j] = with_tightness(econs[j], R_j)
    contracts = list(port.contracts)
    contracts[j] = calibrated_contract(econs[j])
    return PortfolioEconomy(tuple(econs), port.coupling, tuple(contracts))


def _psi_terms(port, x, free):
    """psi_i, f_i and psi_i' at the cutoffs x where relationship i is free, 0 elsewhere.

    x holds one row of cutoffs per lane and free is its mask. psi' is a
    central difference whose stencil is moved inside the support when a
    cutoff lies within its step of an end. Each relationship takes one
    virtual_surplus call, at its free lanes' cutoffs and both sides of
    their stencils.
    """
    psi, pdf, dpsi = np.zeros((3, *x.shape))
    h = 1e-6
    for i, on in _free_columns(free):
        e, c = port.economies[i], port.contracts[i]
        t = x[on, i]
        m = t.size
        pdf[on, i] = e.dist.pdf(t)
        s = np.minimum(np.maximum(t, e.dist.lower + h), e.dist.upper - h)
        vals = virtual_surplus(e, np.concatenate((t, s + h, s - h)), c.advance, c.slope)
        psi[on, i] = vals[:m]
        dpsi[on, i] = (vals[m:2 * m] - vals[2 * m:]) / (2 * h)
    return psi, pdf, dpsi


def _jacobians(couplings, pdf, dpsi, cols):
    """Jacobians of the cutoff conditions in the free cutoffs cols, one per lane.

    Clamped cutoffs sit at a support endpoint and do not move locally.
    couplings stacks the lanes' matrices; pdf and dpsi are
    _psi_terms' rows of the same lanes.
    """
    jac = -(couplings[:, cols[:, None], cols] * pdf[:, None, cols])
    diag = np.arange(cols.size)
    jac[:, diag, diag] = dpsi[:, cols]
    return jac


def _all_centralities(port, cutoffs, clamped):
    """Coupling-weighted response of the other cutoffs to each R_j.

    One Jacobian solve, a column per free j; clamped relationships get 0.
    """
    out = np.zeros(len(port.economies))
    free = np.asarray(clamped) == "none"
    cols = np.flatnonzero(free)
    if cols.size == 0:
        return out
    rhs = np.diag([marginal_r(port.economies[j].financing,
                              port.economies[j].working_capital
                              - port.contracts[j].advance) for j in cols])
    _, pdf, dpsi = _psi_terms(port, cutoffs[None], free[None])
    try:
        sens = np.linalg.solve(_jacobians(port.coupling[None], pdf, dpsi, cols)[0], rhs)
    except np.linalg.LinAlgError as exc:
        raise DegeneracyError(f"singular cutoff Jacobian: {exc}") from exc
    weighted = port.coupling[np.ix_(cols, cols)] * sens
    np.fill_diagonal(weighted, 0.0)
    out[cols] = weighted.sum(axis=0)
    return out


def _contagion_terms(econ: EconomyPrimitives, contract: Contract,
                     that: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The analytic response of book value to econ's tightness, per cutoff.

    that holds the relationship's coupled cutoffs, a 1-d array with one
    lane per book. Returns (direct_financing, screening_spillover) as
    two arrays. direct_financing is the mechanical financing-cost effect
    at the fixed contract; screening_spillover is the contract-response
    term: bilateral._envelope_slope in the direction (a'(R), b1'(R)) at
    that, where psi + load = 0, so the cutoff's move adds no term. The
    lanes share one rent-tail integral, and each lane prices its tail at
    a scalar type, as _envelope_slope does.
    """
    b1p = slope_calibration_prime(econ.financing.tightness)
    ap = advance_response(econ, contract, b1p)
    phi_r = marginal_r(econ.financing, econ.working_capital - contract.advance)
    tail = np.array([1.0 - float(econ.dist.cdf(t)) for t in that.tolist()])
    return -phi_r * tail, _envelope_slope(econ, that, np.full(that.shape, contract.advance),
                                          np.full(that.shape, ap), b1p)


def contagion_derivative(port: PortfolioEconomy, j: int) -> dict:
    """Total and decomposed response of portfolio value to R_j.

    total is a central finite difference (step _FD_R) with contracts
    re-calibrated at the shifted tightness. The analytic decomposition
    (direct_financing + screening_spillover, see _contagion_terms) uses
    the envelope property of the coupled cutoffs, so the base book
    solves its cutoffs only. flagged marks corner contracts, where the
    schedule derivative is one-sided.
    """
    e_j, c_j = port.economies[j], port.contracts[j]
    R_j = e_j.financing.tightness
    up = solve_cutoffs(_rebuild(port, j, R_j + _FD_R)).total_value
    dn = solve_cutoffs(_rebuild(port, j, R_j - _FD_R)).total_value
    that = _coupled_cutoffs(port, _uncoupled(port), port.coupling[None])[0][:, j]
    direct, spillover = (float(v[0]) for v in _contagion_terms(e_j, c_j, that))
    K = e_j.working_capital
    flagged = (c_j.advance <= 1e-9 or c_j.advance >= K - 1e-9
               or c_j.slope <= 1e-9)
    return {"total": (up - dn) / (2.0 * _FD_R), "direct_financing": direct,
            "screening_spillover": spillover,
            "analytic": direct + spillover, "flagged": flagged}


def contagion_share(port: PortfolioEconomy, delta_grid) -> float:
    """Share of couplings at which tighter credit raises port's value.

    Each coupling in delta_grid counts when the analytic response of
    contagion_derivative to relationship 0's tightness is positive on
    port's relationships and contracts at that coupling. Each coupling
    is one lane of a single coupled-cutoff solve from port's uncoupled
    start, and the terms of the response take every lane at once.
    """
    deltas = [float(d) for d in delta_grid]
    if not deltas:
        raise DomainError("contagion_share needs at least one coupling")
    couplings = np.array([make_portfolio(port.economies, delta=d,
                                         contracts=port.contracts).coupling
                          for d in deltas])
    x = _coupled_cutoffs(port, _uncoupled(port), couplings)[0]
    direct, spillover = _contagion_terms(port.economies[0], port.contracts[0], x[:, 0])
    return int(np.count_nonzero(direct + spillover > 0.0)) / len(deltas)


EMPIRICAL_DELTA_GRID = np.arange(0.0, 2.5 + 1e-9, 0.05)


def contagion_threshold(port: PortfolioEconomy, delta_grid=None) -> dict:
    """Coupling strength at which tighter credit starts raising port's value.

    Both routes read relationship 0 and its contract. analytic inverts
    the sign condition of the fixed-contract value derivative at the
    uncoupled cutoff. empirical is the first coupling in delta_grid at
    which the full finite-difference derivative (contracts
    re-calibrated) of port's book at that coupling turns positive, nan
    when none does. The scan solves three coupled books per grid point,
    so it runs only when a grid is given (EMPIRICAL_DELTA_GRID is the
    customary one); without one, empirical is nan.
    """
    econ, c = port.economies[0], port.contracts[0]
    if c.slope <= 1e-12:
        raise DegeneracyError("contract slope is zero; threshold undefined")
    K = econ.working_capital
    ell = K - c.advance
    that = cutoff(econ, c.advance, c.slope)[0]
    tail = 1.0 - float(econ.dist.cdf(that))
    if tail <= 1e-12:
        raise DegeneracyError("uncoupled service set is empty")
    analytic = (K - c.advance) * (1.0 + c.slope) \
        * marginal_r(econ.financing, ell) / (c.slope * tail)
    empirical = math.nan
    for dlt in (() if delta_grid is None else delta_grid):
        book = make_portfolio(port.economies, delta=float(dlt),
                              contracts=port.contracts)
        if contagion_derivative(book, 0)["total"] > 0.0:
            empirical = float(dlt)
            break
    return {"analytic": float(analytic), "empirical": empirical}


# ---------------------------------------------------------------------------
# book-level comparative statics


def hump_scan(R_grid, delta: float) -> dict:
    """Symmetric-book value along a common-tightness path with fixed coupling.

    Returns grid values, value_independent (each book at coupling 0),
    finite-difference slopes, the sub-intervals where the slope is
    positive, and the interior peak if one exists. Each tightness solves
    its coupled book and its book at coupling 0 as two lanes of one
    coupled-cutoff solve.
    """
    Rs = np.asarray(R_grid, float)
    vals, alone = np.empty(len(Rs)), np.empty(len(Rs))
    for k, R in enumerate(Rs.tolist()):
        port = symmetric_portfolio(R, delta)
        single = make_portfolio(port.economies, delta=0.0, contracts=port.contracts)
        start = _uncoupled(port)
        x = _coupled_cutoffs(port, start, np.array([port.coupling, single.coupling]))[0]
        vals[k] = portfolio_value(port, x[0], start)[0]
        alone[k] = portfolio_value(single, x[1], start)[0]
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
    return {"R": Rs, "value": vals, "value_independent": alone,
            "slope": slopes, "positive_intervals": positive, "peak": peak}


def uniform_subsidy_effect(R: float, delta: float) -> dict:
    """Per-relationship value change when every tightness falls by 0.05."""
    base = solve_cutoffs(symmetric_portfolio(R, delta))
    subs = solve_cutoffs(symmetric_portfolio(R - 0.05, delta))
    change = subs.per_value - base.per_value
    return {"pi_base": base.per_value, "pi_subsidized": subs.per_value,
            "change": change,
            "all_lower": bool(np.all(change < 0.0)),
            "all_higher": bool(np.all(change > 0.0))}


def independent_cutoff_value(port: PortfolioEconomy) -> dict:
    """Value lost by running book cutoffs at their uncoupled positions.

    Evaluates the coupled objective at the bilateral cutoffs, which are
    the coupled solve's start, and reports the relative shortfall
    against the larger of the two values' magnitudes (at least 1e-9).
    """
    start = _uncoupled(port)
    coupled, _ = portfolio_value(port, _coupled_cutoffs(port, start,
                                                        port.coupling[None])[0][0], start)
    v_ind, _ = portfolio_value(port, start[0][0], start)
    scale = max(abs(coupled), abs(v_ind), 1e-9)
    return {"coupled": coupled, "at_independent": v_ind,
            "relative_loss": (v_ind - coupled) / scale}
