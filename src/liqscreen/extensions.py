"""Model extensions: learning, monitoring, renegotiation, menus, auctions, 2D types.

Each extension reuses the bilateral machinery: the dynamic path feeds a
discrete posterior into the advance optimality condition, monitoring
re-solves the mixed program at scaled signal informativeness, menus and
auctions discretize the screening problem, and the two-dimensional model
collapses to one dimension through the quality-cost ratio.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .bilateral import (BilateralSolution, Contract, _acceptance, _profit,
                        _screening_value, binding_ir_advance, binding_slope,
                        flat_rent_slope, rent_tail, solve_mixed,
                        solve_optimal)
from .economy import (EconomyPrimitives, TypeDistribution, financing_cost,
                      marginal_ell, signal_slope, with_tightness)
from .errors import (BracketError, DegeneracyError, DomainError,
                     SingularityError)
from .numerics import Bracket, Tolerance, find_root
from .oracle import DiscreteMechanism, ic_verify

_EPS_W = 1e-15  # support threshold for posterior weights
_IC_SLACK = 1e-12
_MENU_TYPES = 10  # quantile types of the menu check
_MENU_ADVANCES = 20  # advances and slopes of its instrument grid
_MENU_SLOPES = 20
_SIGMA_MIN = 1e-6  # smallest monitoring intensity solved; below it sigma* is 0


# ---------------------------------------------------------------------------
# B.1: sequential learning


@dataclass(frozen=True, eq=False)
class PosteriorState:
    """Discrete belief over compliance types on an ascending uniform grid.

    grid and weights are kept as the validated float64 arrays, whatever
    array-like was given (the same objects when they are ones already).
    """

    grid: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.grid, float)
        w = np.asarray(self.weights, float)
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "weights", w)
        if (g.ndim != 1 or g.size < 2 or not np.all(np.isfinite(g))
                or np.any(np.diff(g) <= 0)):
            raise DomainError("grid must be finite and ascending with at least 2 points")
        steps = np.diff(g)
        if np.max(np.abs(steps - steps[0])) > 1e-9 * steps[0]:
            raise DomainError("grid must be uniformly spaced")
        if (not np.all(np.isfinite(w)) or np.any(w < -1e-15)
                or abs(float(np.sum(w)) - 1.0) > 1e-12):
            raise DomainError("weights must be a probability vector")


def uniform_posterior(lo: float = 0.0, hi: float = 1.0,
                      m: int = 50) -> PosteriorState:
    """Flat prior on an m-point grid."""
    return PosteriorState(np.linspace(lo, hi, m), np.full(m, 1.0 / m))


def _tail_mass(w: np.ndarray) -> np.ndarray:
    """Posterior mass strictly above each grid point."""
    return np.concatenate((np.cumsum(w[::-1])[-2::-1], [0.0]))


def discrete_hazard(post: PosteriorState) -> np.ndarray:
    """Right-tail mass over point mass, nan where the point is unsupported."""
    w = np.asarray(post.weights, float)
    tail = _tail_mass(w)
    out = np.full(w.shape, np.nan)
    sup = w > _EPS_W
    out[sup] = tail[sup] / w[sup]
    return out


def d_statistic(post: PosteriorState) -> float:
    """Expected hazard: grid-step-scaled tail mass summed over supported points.

    Equals the posterior mean on a fully supported grid anchored at zero
    and collapses to 0 at a point mass.
    """
    w = np.asarray(post.weights, float)
    step = float(post.grid[1] - post.grid[0])
    return float(np.sum(_tail_mass(w)[w > _EPS_W]) * step)


def bayes_update(post: PosteriorState, x: int) -> PosteriorState:
    """Posterior after one binary signal with likelihood P(x=1 | theta) = theta."""
    if x not in (0, 1):
        raise DomainError("signal outcome must be 0 or 1")
    g = np.asarray(post.grid, float)
    if g[0] < -1e-12 or g[-1] > 1.0 + 1e-12:
        raise DomainError("binary likelihood needs types in [0, 1]")
    like = g if x == 1 else 1.0 - g
    w = np.asarray(post.weights, float) * like
    total = float(np.sum(w))
    if total <= 1e-300:
        raise DegeneracyError("zero total likelihood; posterior undefined")
    return PosteriorState(g, w / total)


def hazard_shrink_check(before: PosteriorState, after: PosteriorState) -> bool:
    """True iff the discrete hazard weakly fell at every shared interior point."""
    if before.grid.shape != after.grid.shape \
            or np.max(np.abs(before.grid - after.grid)) > 1e-12:
        raise DomainError("posteriors must share a grid")
    hb = discrete_hazard(before)
    ha = discrete_hazard(after)
    both = np.isfinite(hb) & np.isfinite(ha)
    both[-1] = False  # top point has zero tail on both sides
    return bool(np.all(ha[both] <= hb[both] + 1e-12))


@dataclass(frozen=True, eq=False)
class PeriodRecord:
    """One period of the learning path."""

    t: int
    contract: Contract
    cutoff: float
    d_stat: float
    posterior: PosteriorState
    signal: int | None  # outcome drawn after contracting; None in the last record
    hazard_shrink_ok: bool | None  # update into this period; None at t = 0


def _rule_contract(econ: EconomyPrimitives,
                   post: PosteriorState) -> tuple[Contract, float, float]:
    """Per-period contract from the advance optimality statistic.

    The uncovered gap solves Phi'(ell) = mu' * D (a reference slope of
    1) with D the posterior's expected hazard, so the advance climbs as
    learning concentrates the belief; the slope then makes the lowest
    supported type's participation bind, and is 0 when that type's
    signal is not positive.
    """
    R = econ.financing.tightness
    if R <= 0:
        raise DomainError("learning rule needs strictly positive tightness")
    K = econ.working_capital
    d_stat_val = d_statistic(post)
    mu_p = signal_slope(econ, 0.5 * (econ.dist.lower + econ.dist.upper))
    a = K - min(K, mu_p * d_stat_val / R)
    sup = post.grid[post.weights > _EPS_W]
    lo = float(sup[0])
    b1 = (max(0.0, binding_slope(econ, a, lo))
          if float(econ.signal_mean(lo)) > 1e-12 else 0.0)
    paid = np.flatnonzero(_profit(econ, sup, a, b1) >= 0.0)
    pay_cut = sup[paid[0]] if paid.size else sup[-1]
    return Contract(a, b1), float(pay_cut), d_stat_val


def dynamic_path(econ: EconomyPrimitives, true_theta: float, horizon: int,
                 seed: int, prior: PosteriorState | None = None) -> list[PeriodRecord]:
    """Simulate contracting and learning over `horizon` signal draws.

    Period t's contract uses the belief before that period's signal;
    each record also reports whether the Bayes update into it weakly
    shrank the discrete hazard. The prior defaults to uniform on the
    type support. Returns horizon + 1 records.
    """
    if not (econ.dist.lower - 1e-12 <= true_theta <= econ.dist.upper + 1e-12):
        raise DomainError("true type outside the support")
    rng = np.random.Generator(np.random.Philox(seed))
    post = prior if prior is not None else uniform_posterior(
        econ.dist.lower, econ.dist.upper)
    records = []
    shrink_ok = None
    for t in range(horizon + 1):
        contract, pay_cut, d_val = _rule_contract(econ, post)
        signal = None
        if t < horizon:
            signal = int(rng.random() < true_theta)
        records.append(PeriodRecord(t=t, contract=contract, cutoff=pay_cut,
                                    d_stat=d_val, posterior=post,
                                    signal=signal, hazard_shrink_ok=shrink_ok))
        if signal is not None:
            new_post = bayes_update(post, signal)
            shrink_ok = hazard_shrink_check(post, new_post)
            post = new_post
    return records


def point_mass_posterior(theta0: float, lo: float = 0.0, hi: float = 1.0,
                         m: int = 50) -> PosteriorState:
    """Degenerate belief at the grid point nearest theta0."""
    g = np.linspace(lo, hi, m)
    w = np.zeros(m)
    w[int(np.argmin(np.abs(g - theta0)))] = 1.0
    return PosteriorState(g, w)


# ---------------------------------------------------------------------------
# B.2: monitoring investment


@dataclass(frozen=True)
class MonitoringConfig:
    """Quadratic monitoring cost kappa0 * sigma^2 with info gain mu' = 1 + sigma."""

    kappa0: float
    sigma_max: float = 3.0

    def __post_init__(self):
        # written so that a nan fails each test
        if not (math.isfinite(self.kappa0) and self.kappa0 > 0
                and self.sigma_max > _SIGMA_MIN):
            raise DomainError("monitoring cost scale must be finite and positive "
                              f"and its range must exceed {_SIGMA_MIN:g}")


def scale_signal(econ: EconomyPrimitives, factor: float) -> EconomyPrimitives:
    """Stretch signal informativeness around the lowest type's level."""
    base_mu = econ.signal_mean
    base_mu_p = econ.signal_mean_prime
    mu_lo = float(base_mu(econ.dist.lower))

    def mu(t):
        return mu_lo + factor * (np.asarray(base_mu(t), float) - mu_lo)

    mu_p = None
    if base_mu_p is not None:
        def mu_p(t):  # noqa: E306
            return factor * np.asarray(base_mu_p(t), float)

    return replace(econ, signal_mean=mu, signal_mean_prime=mu_p)


def _monitoring_gap(econ, cfg, sigma):
    """FOC gap: marginal screening improvement minus marginal cost."""
    m = solve_mixed(scale_signal(econ, 1.0 + sigma))
    lhs = (0.0 if m.implemented is None
           else m.contract.slope * rent_tail(econ, m.implemented[0], 128))
    return lhs - 2.0 * cfg.kappa0 * sigma


def solve_monitoring(econ: EconomyPrimitives, cfg: MonitoringConfig) -> dict:
    """Optimal monitoring intensity from the screening-improvement FOC.

    Balances b1*(sigma) times the informativeness gain of the rent-
    bearing tail against the marginal monitoring cost 2*kappa0*sigma.
    """
    # each gap is a mixed-program solve. The bracket opens at _SIGMA_MIN,
    # where the corner is tested, and find_root takes both end gaps as
    # held, so no gap is solved at sigma = 0; it ends on a point it has
    # evaluated, so no gap is solved twice
    gap = functools.cache(lambda s: _monitoring_gap(econ, cfg, s))
    g_lo = gap(_SIGMA_MIN)
    if g_lo <= 0.0:
        return {"sigma_star": 0.0, "foc_residual": g_lo, "corner": True}
    g_hi = gap(cfg.sigma_max)
    if g_hi > 0.0:
        raise BracketError("monitoring FOC positive through sigma_max")
    sigma = find_root(gap, Bracket(_SIGMA_MIN, cfg.sigma_max),
                      Tolerance(abs_x=1e-7, abs_f=1e-8, max_iter=100),
                      ends=(g_lo, g_hi))
    return {"sigma_star": sigma, "foc_residual": gap(sigma), "corner": False}


def monitoring_cross_effect(econ: EconomyPrimitives,
                            cfg: MonitoringConfig) -> float:
    """Finite-difference response of the monitoring return to tighter credit.

    Evaluates the sigma-derivative of the mixed-program value at this
    economy's optimal monitoring level, at tightness R +/- h; both central
    differences take the step h = 0.05.
    """
    h = 0.05
    sigma0 = solve_monitoring(econ, cfg)["sigma_star"]
    R = econ.financing.tightness

    def value(sig, r):
        return solve_mixed(scale_signal(with_tightness(econ, r), 1.0 + sig)).value

    def marginal(r):
        return (value(sigma0 + h, r) - value(sigma0 - h, r)) / (2.0 * h)

    return (marginal(R + h) - marginal(R - h)) / (2.0 * h)


# ---------------------------------------------------------------------------
# B.3: renegotiation risk


def solve_renegotiation(econ: EconomyPrimitives, lam: float) -> BilateralSolution:
    """Contract when the contingent payment survives with probability 1 - lam.

    The marginal-financing anchor (1 - lam) * Phi'(K - a_static) pins the
    advance, the lowest type's participation (with the surviving share of
    the contingent value) pins the slope, and the value scales the rent
    term by the survival probability.
    """
    if not 0.0 <= lam <= 1.0:
        raise DomainError("renegotiation probability must lie in [0, 1]")
    static = solve_optimal(econ)
    K = econ.working_capital
    a_s = static.contract.advance
    anchor = (1.0 - lam) * marginal_ell(econ.financing, K - a_s)

    def gap(a):
        return marginal_ell(econ.financing, K - a) - anchor

    g_lo = gap(a_s)
    if g_lo <= 0.0 or K - a_s <= 1e-12:
        a_lam = K if lam >= 1.0 else a_s
    else:
        g_hi = gap(K)
        if g_hi >= 0.0:
            a_lam = K
        else:
            a_lam = find_root(gap, Bracket(a_s, K), ends=(g_lo, g_hi))
    survive = 1.0 - lam
    slope = binding_slope(econ, a_lam)
    mu_lo = float(econ.signal_mean(econ.dist.lower))
    # contingent pay only when the lowest type's signal is positive and
    # the advance alone falls short of its participation by over 1e-12
    if survive > 1e-12 and mu_lo > 1e-12 and slope * mu_lo > 1e-12:
        b1 = slope / survive
    else:
        b1 = 0.0
    value, decomp, that = _screening_value(econ, a_lam, survive * b1)
    flag = "corner_b1_zero" if b1 <= 1e-9 else "interior"
    return BilateralSolution(contract=Contract(a_lam, b1), cutoff=that,
                             value=value, decomposition=decomp,
                             boundary_flag=flag)


# ---------------------------------------------------------------------------
# B.5: type-dependent menus


def _quantile_grid(dist: TypeDistribution, n: int) -> np.ndarray:
    """Quantile midpoints of the type distribution."""
    qs = (np.arange(n) + 0.5) / n
    out = np.empty(n)
    for i, q in enumerate(qs):
        out[i] = find_root(lambda t: float(dist.cdf(t)) - q,
                           Bracket(dist.lower, dist.upper))
    return out


def _instrument_grid(econ, na, nb):
    """Advance/slope pairs, each slope column anchored at its binding advance.

    The binding advance is the zero-rent instrument for that slope; with
    it on the grid the coarse enumeration can express the exact
    participation-binding single contract.
    """
    b1_flat = flat_rent_slope(econ)
    if b1_flat is None:
        raise DegeneracyError("menus need an informative signal")
    slopes = np.linspace(0.0, b1_flat, nb)
    a = np.empty((nb, na + 1))
    a[:, :na] = np.linspace(0.0, econ.working_capital, na)
    a[:, na] = [binding_ir_advance(econ, b1) for b1 in slopes]
    instr = np.column_stack((a.ravel(), np.repeat(slopes, na + 1)))
    return instr[np.lexsort((instr[:, 0], instr[:, 1]))]


def menu_equivalence_check(econ: EconomyPrimitives) -> dict:
    """Best type-dependent menu against the best single instrument pair.

    Both sides run on the same discrete types and instrument grid and
    under the same exhaustive incentive rules: served types must prefer
    their own instrument to every other offer and to opting out, and
    excluded types must not gain from taking any offer. The menu search
    is a forward pass over served-type/instrument states whose local
    constraints imply the global ones under monotone slopes.
    """
    K = econ.working_capital
    n = _MENU_TYPES
    types = _quantile_grid(econ.dist, n)
    w = 1.0 / n
    instr = _instrument_grid(econ, _MENU_ADVANCES, _MENU_SLOPES)
    m = len(instr)
    phi = np.array([financing_cost(econ.financing, K - a) for a in instr[:, 0]])
    t_col, a_row, b_row = types[:, None], instr[None, :, 0], instr[None, :, 1]
    U = _acceptance(econ, t_col, a_row, b_row, phi[None, :])
    PI = _profit(econ, t_col, a_row, b_row)
    takes = U >= -_IC_SLACK  # participation holds
    quiet = U <= _IC_SLACK  # the type would not take the offer
    # indifferent types can be turned away; strictly willing ones cannot
    cell = w * np.where(U > _IC_SLACK, PI, np.maximum(PI, 0.0))
    clean = np.ones((1, m), dtype=bool)

    # first served type: everyone below must weakly prefer opting out
    below = np.vstack((clean, np.logical_and.accumulate(quiet[:-1])))
    best = np.where(below & takes, cell, -np.inf)  # serving type i at j
    parent = np.full((n, m, 2), -1, dtype=int)
    # transitions between consecutive served types p < i at instruments
    # q, j; the excluded types strictly between must be quiet at both
    for i in range(1, n):
        for p in range(i):
            gap_clean = np.all(quiet[p + 1:i], axis=0)
            for q in np.flatnonzero((best[p] > -np.inf) & gap_clean):
                cand = best[p, q] + cell[i]
                up = (instr[:, 1] >= instr[q, 1] - 1e-15) & takes[i] \
                    & (U[i] >= U[i, q] - _IC_SLACK) \
                    & (U[p, q] >= U[p] - _IC_SLACK) & gap_clean \
                    & (cand > best[i])  # strict: the first q keeps a tie
                best[i, up] = cand[up]
                parent[i, up] = (p, q)
    # close the menu: types above the last served must prefer opting out;
    # the empty menu is always feasible
    above = np.vstack((np.logical_and.accumulate(quiet[:0:-1])[::-1], clean))
    top = np.where(above, best, -np.inf)
    k = int(np.argmax(top))  # row-major: the first (i, j) keeps a tie
    arg = divmod(k, m) if top.flat[k] > 0.0 else None
    menu_value = 0.0 if arg is None else top.flat[k]

    # baseline: one instrument for every served type, same rules; a type
    # whose participation fails never wants the offer and adds 0
    totals = np.add.reduce(np.where(takes, cell, 0.0), axis=0)  # types in order
    j = int(np.argmax(totals))
    base_arg = j if totals[j] > 0.0 else None
    baseline_value = 0.0 if base_arg is None else totals[j]

    mech = _menu_mechanism(econ, types, instr, arg, parent, U, PI)
    return {"menu_value": menu_value, "baseline_value": baseline_value,
            "gap": menu_value - baseline_value, "mechanism": mech,
            "ic_ok": ic_verify(mech, econ)["ok"],
            "baseline_instrument": (None if base_arg is None
                                    else tuple(instr[base_arg]))}


def _menu_mechanism(econ, types, instr, arg, parent, U, PI):
    """Rebuild the argmax menu as a discrete mechanism via backpointers."""
    n = len(types)
    q = np.zeros(n)
    a = np.zeros(n)
    b = np.zeros(n)
    r = np.zeros(n)
    node = arg
    while node is not None and node[0] >= 0:
        i, j = node
        # indifferent cells serve only when the flow is profitable
        if U[i, j] > _IC_SLACK or PI[i, j] > 0.0:
            q[i] = 1.0
            a[i] = instr[j, 0]
            b[i] = instr[j, 1]
            r[i] = max(U[i, j], 0.0)
        p, pq = parent[i, j]
        node = (p, pq) if p >= 0 else None
    return DiscreteMechanism(types=np.asarray(types, float), allocation=q,
                             advances=a, slopes=b, rents=r)


# ---------------------------------------------------------------------------
# B.6: auction implementation


@dataclass(frozen=True, eq=False)
class BidFunction:
    """Equilibrium advance bids against the full-information schedule."""

    grid: np.ndarray
    bids: np.ndarray
    full_info: np.ndarray
    n_bidders: int

    def __post_init__(self):
        if np.any(self.bids < self.full_info - 1e-9):
            raise DomainError("bids must shade weakly above full information")
        trend = np.sign(np.diff(self.full_info))
        if np.any(np.sign(np.diff(self.bids)) * trend < -1e-12):
            raise DomainError("bids must move with the full-information schedule")


def solve_bid_function(econ: EconomyPrimitives, n: int,
                       eps: float | None = None,
                       steps: int = 2000) -> BidFunction:
    """Equilibrium bids among n privately informed counterparties.

    Integrates beta' = (n - 1) * f/(1 - F) * (beta - beta_fb) backward
    from the top boundary beta(upper - eps) = beta_fb(upper - eps); the
    hazard factor is singular at the top, hence the offset requirement.
    The default offset grows with n to keep the first steps inside the
    integrator's stability region. A diverging trajectory raises
    SingularityError whose t is the type at the failing step.
    """
    if n < 2:
        raise DomainError("need at least two bidders")
    d = econ.dist
    span = d.upper - d.lower
    if eps is None:
        eps = span * max(1e-3, (n - 1) / steps)
    if not 0 < eps < span:
        raise DomainError(f"boundary offset eps = {eps!r} must lie in (0, span = {span!r})")
    b1 = solve_optimal(econ).contract.slope
    t_hi = d.upper - eps
    ts_half = np.linspace(t_hi, d.lower, 2 * steps + 1)
    fb_half = np.array([binding_ir_advance(econ, b1, float(t)) for t in ts_half])
    F = np.asarray(d.cdf(ts_half), float)
    f = np.asarray(d.pdf(ts_half), float)
    k_half = (n - 1) * f / (1.0 - F)
    h = -(t_hi - d.lower) / steps
    try:
        ys = _rk4_affine(k_half.tolist(), fb_half.tolist(),
                         float(fb_half[0]), h, steps)
    except OverflowError as exc:
        message, step = exc.args
        raise SingularityError(message, t=float(ts_half[2 * step])) from exc
    # copies, not views: a view would keep its whole half-step array alive
    return BidFunction(grid=ts_half[::2][::-1].copy(),
                       bids=np.asarray(ys, float)[::-1].copy(),
                       full_info=fb_half[::2][::-1].copy(), n_bidders=n)


def _rk4_affine(k_half, m_half, y0, h, steps):
    """Fixed-step RK4 for y' = k(t) * (y - m(t)) with tabulated coefficients.

    k_half and m_half hold k and m sampled at half-step resolution
    (2*steps + 1 values, node i at t0 + i*h/2; h may be negative for
    backward integration). Returns the list of steps+1 y values. A
    non-finite iterate raises OverflowError(message, step) naming the
    failing step.
    """
    if len(k_half) != 2 * steps + 1 or len(m_half) != 2 * steps + 1:
        raise ValueError("coefficient tables must have 2*steps + 1 entries")
    out = [0.0] * (steps + 1)
    out[0] = y = y0
    for i in range(steps):
        j = 2 * i
        k1 = k_half[j] * (y - m_half[j])
        k2 = k_half[j + 1] * (y + 0.5 * h * k1 - m_half[j + 1])
        k3 = k_half[j + 1] * (y + 0.5 * h * k2 - m_half[j + 1])
        k4 = k_half[j + 2] * (y + h * k3 - m_half[j + 2])
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not math.isfinite(y):
            raise OverflowError(f"trajectory diverged at step {i + 1}", i + 1)
        out[i + 1] = y
    return out


# ---------------------------------------------------------------------------
# B.7: two-dimensional types


def reduce_2d(alpha, theta, econ: EconomyPrimitives, v_scale: float = 2.0,
              bins: int = 200) -> dict:
    """Collapse (quality, type) heterogeneity to the quality-cost ratio.

    Each sample maps to xi = alpha * mu(theta) / c(theta); a histogram
    density over 200 bins becomes the reduced type distribution, and the
    one-dimensional screening program runs on surplus v_scale * xi, unit
    cost, and signal mean xi. Samples with nonpositive cost are rejected
    and counted; DomainError when every sample is.
    """
    alpha = np.asarray(alpha, float)
    theta = np.asarray(theta, float)
    if alpha.shape != theta.shape:
        raise DomainError("alpha and theta samples must align")
    c = np.asarray(econ.cost(theta), float)
    keep = c > 1e-12
    rejected = int(np.sum(~keep))
    if not keep.any():
        raise DomainError(f"no sample has positive cost ({rejected} rejected)")
    xi = alpha[keep] * np.asarray(econ.signal_mean(theta[keep]), float) / c[keep]
    lo, hi = float(np.min(xi)), float(np.max(xi))
    if hi - lo < 1e-9:
        return {"xi_distribution": None, "solution_2d": None,
                "rejected": rejected, "degenerate": True,
                "xi_range": (lo, hi)}
    counts, edges = np.histogram(xi, bins=bins, range=(lo, hi))
    density = counts / (len(xi) * (edges[1] - edges[0]))
    density = np.maximum(density, 1e-12 / (hi - lo))
    cum = np.concatenate(([0.0], np.cumsum(density) * (edges[1] - edges[0])))
    cum /= cum[-1]

    def cdf(t):
        return np.interp(np.asarray(t, float), edges, cum)

    def pdf(t):
        idx = np.clip(np.searchsorted(edges, np.asarray(t, float),
                                      side="right") - 1, 0, bins - 1)
        return density[idx]

    dist = TypeDistribution(lower=lo, upper=hi, cdf=cdf, pdf=pdf,
                            name="empirical_xi")
    sol = solve_optimal(_reduced_economy(econ, dist, v_scale, "reduced_2d"))
    return {"xi_distribution": dist, "solution_2d": sol,
            "rejected": rejected, "degenerate": False, "xi_range": (lo, hi)}


def analytic_reduced_economy(econ: EconomyPrimitives, dist: TypeDistribution,
                             v_scale: float = 2.0) -> EconomyPrimitives:
    """Reference reduced economy with an exact ratio distribution."""
    return _reduced_economy(econ, dist, v_scale, "reduced_2d_analytic")


def _reduced_economy(econ, dist, v_scale, label):
    """Ratio economy: surplus v_scale * xi, unit cost, signal mean xi."""
    return EconomyPrimitives(
        dist=dist,
        surplus=lambda t: v_scale * np.asarray(t, float),
        cost=lambda t: np.ones_like(np.asarray(t, float)),
        signal_mean=lambda t: np.asarray(t, float),
        financing=econ.financing,
        working_capital=econ.working_capital,
        cost_prime=lambda t: np.zeros_like(np.asarray(t, float)),
        signal_mean_prime=lambda t: np.ones_like(np.asarray(t, float)),
        label=label)
