"""Brute-force verification oracles.

Everything here re-derives values from the economy primitives with
plain grid enumeration and quadrature, independently of the continuous
solvers, so solver-vs-oracle agreement is a genuine two-route check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bilateral import Contract, served_interval, slope_cap
from .economy import EconomyPrimitives, cost_slope, financing_cost
from .errors import DomainError

IC_TOL = 1e-9


@dataclass(frozen=True)
class DiscreteMechanism:
    """Finite menu: one instrument pair and an in/out decision per type."""

    types: np.ndarray
    allocation: np.ndarray  # q_i in {0, 1}
    advances: np.ndarray
    slopes: np.ndarray
    rents: np.ndarray

    def __post_init__(self):
        n = len(self.types)
        for name in ("allocation", "advances", "slopes", "rents"):
            if len(getattr(self, name)) != n:
                raise DomainError(f"{name} length must match types")
        if np.any(self.advances < -1e-12) or np.any(self.slopes < -1e-12):
            raise DomainError("limited liability: instruments must be nonnegative")


def _mu(econ, t):
    return np.asarray(econ.signal_mean(np.asarray(t, float)), float)


def _payoff_matrix(mech: DiscreteMechanism, econ: EconomyPrimitives) -> np.ndarray:
    """P[i, j]: type i's payoff from reporting type j (0 when q_j = 0)."""
    K = econ.working_capital
    mu_i = _mu(econ, mech.types)
    c_i = np.asarray(econ.cost(mech.types), float)
    phi_j = np.array([financing_cost(econ.financing, K - a) for a in mech.advances])
    p = (mech.advances[None, :] + np.outer(mu_i, mech.slopes)
         - c_i[:, None] - phi_j[None, :])
    return p * mech.allocation[None, :]


def ic_verify(mech: DiscreteMechanism, econ: EconomyPrimitives) -> dict:
    """Check truthful reporting over every ordered pair of served types.

    Misreport payoff uses the reported type's instruments at the true
    type's signal and cost. Exclusion is a participation decision, not a
    report, so only served reports count as deviations. ok iff the worst
    violation is at most 1e-9.
    """
    p = _payoff_matrix(mech, econ)
    truth = np.diag(p).copy()
    viol = p - truth[:, None]
    np.fill_diagonal(viol, -np.inf)
    served = mech.allocation > 0.5
    viol = np.where(np.outer(served, served), viol, -np.inf)
    i, j = np.unravel_index(int(np.argmax(viol)), viol.shape)
    worst = float(viol[i, j])
    if not np.isfinite(worst):
        return {"ok": True, "worst_violation": 0.0, "violating_pair": None}
    ok = worst <= IC_TOL
    return {"ok": ok, "worst_violation": worst,
            "violating_pair": None if ok else (int(i), int(j))}


def mechanism_from_contract(econ: EconomyPrimitives, contract: Contract,
                            m: int = 50) -> DiscreteMechanism:
    """Discretize a uniform contract: serve exactly the served interval."""
    d = econ.dist
    types = np.linspace(d.lower, d.upper, m)
    span = served_interval(econ, contract.advance, contract.intercept,
                           contract.slope)
    if span is None:
        q = np.zeros(m)
    else:
        q = ((types >= span[0] - 1e-12) & (types <= span[1] + 1e-12)).astype(float)
    K = econ.working_capital
    phi = financing_cost(econ.financing, K - contract.advance)
    u = (contract.advance + contract.intercept + contract.slope * _mu(econ, types)
         - np.asarray(econ.cost(types), float) - phi)
    return DiscreteMechanism(types=types, allocation=q,
                             advances=np.full(m, contract.advance),
                             slopes=np.full(m, contract.slope),
                             rents=q * u)


# ---------------------------------------------------------------------------
# grid enumeration of the screening program


def _psi_grid(econ, ts, a, b1):
    """Virtual surplus on a grid, assembled from raw primitives."""
    F = np.asarray(econ.dist.cdf(ts), float)
    f = np.asarray(econ.dist.pdf(ts), float)
    mu_p = (np.asarray(econ.signal_mean_prime(ts), float)
            if econ.signal_mean_prime is not None
            else np.gradient(_mu(econ, ts), ts))
    phi = financing_cost(econ.financing, econ.working_capital - a)
    return (np.asarray(econ.surplus(ts), float) - np.asarray(econ.cost(ts), float)
            - phi - b1 * mu_p * (1.0 - F) / f)


def _project_advance(econ, b1, iters=80):
    """Binding-participation advance by plain bisection, clamped to [0, K]."""
    lo_t = econ.dist.lower
    K = econ.working_capital
    mu_lo = float(econ.signal_mean(lo_t))
    c_lo = float(econ.cost(lo_t))

    def gap(a):
        return a + b1 * mu_lo - c_lo - financing_cost(econ.financing, K - a)

    if gap(0.0) >= 0.0:
        return 0.0
    if gap(K) <= 0.0:
        return K
    lo, hi = 0.0, K
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if gap(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def manifold_value_grid(econ: EconomyPrimitives, b1: float,
                        na: int = 200) -> float:
    """Screening value of slope b1 by trapezoid quadrature of clamped psi."""
    d = econ.dist
    a = _project_advance(econ, b1)
    ts = np.linspace(d.lower, d.upper, na + 1)
    psi = np.maximum(_psi_grid(econ, ts, a, b1), 0.0)
    f = np.asarray(d.pdf(ts), float)
    return float(np.trapezoid(psi * f, ts)) - a


def grid_search_optimal(econ: EconomyPrimitives, na: int = 200,
                        nb: int = 200) -> dict:
    """Enumerate slopes on [0, cap], advance projected onto binding IR.

    na controls the quadrature resolution, nb the slope grid.
    """
    if na < 50 or nb < 50:
        raise DomainError("oracle grids need na, nb >= 50")
    b1s = np.linspace(0.0, slope_cap(econ), nb)
    best = (-np.inf, 0.0, 0.0)
    for b1 in b1s:
        w = manifold_value_grid(econ, float(b1), na)
        if w > best[0]:
            best = (w, _project_advance(econ, float(b1)), float(b1))
    return {"best_a": best[1], "best_b1": best[2], "best_W": best[0]}


def second_difference_profile(values, h: float = 1.0) -> np.ndarray:
    """Central second differences of a uniformly sampled profile."""
    v = np.asarray(values, float)
    if v.size < 3:
        raise DomainError("need at least 3 samples")
    return (v[2:] - 2.0 * v[1:-1] + v[:-2]) / (h * h)


def concavity_probe(econ: EconomyPrimitives, b1_grid) -> dict:
    """Difference profile of the screening value over a slope grid.

    Used to validate the scalar maximizer's unimodality assumption;
    reports the number of sign changes in the first differences.
    """
    b1s = np.asarray(b1_grid, float)
    w = np.array([manifold_value_grid(econ, float(b), 400) for b in b1s])
    d1 = np.diff(w)
    signs = np.sign(d1[np.abs(d1) > 1e-13])
    changes = int(np.sum(signs[1:] != signs[:-1])) if signs.size > 1 else 0
    h = float(b1s[1] - b1s[0]) if b1s.size > 1 else 1.0
    return {"b1": b1s, "W": w, "first_diff": d1,
            "second_diff": second_difference_profile(w, h),
            "first_diff_sign_changes": changes}


# ---------------------------------------------------------------------------
# identity checks


def rent_identity_check(econ: EconomyPrimitives, a: float, b1: float,
                        theta_hat: float | None = None, n: int = 2000) -> dict:
    """Two quadrature routes to the aggregate information rent.

    direct integrates the envelope rent U(theta) over served types;
    hazard_form is the integration-by-parts expression, including the
    boundary term U(theta_hat) * (1 - F(theta_hat)) that a cutoff above
    the lowest type generates.
    """
    d = econ.dist
    if theta_hat is None:
        ts_scan = np.linspace(d.lower, d.upper, 513)
        psi = _psi_grid(econ, ts_scan, a, b1)
        above = np.nonzero(psi >= 0.0)[0]
        theta_hat = float(ts_scan[above[0]]) if above.size else d.upper
    theta_hat = min(max(theta_hat, d.lower), d.upper)

    def _slope(ts: np.ndarray) -> np.ndarray:
        mu_p = (np.asarray(econ.signal_mean_prime(ts), float)
                if econ.signal_mean_prime is not None
                else np.gradient(_mu(econ, ts), ts))
        return b1 * mu_p - cost_slope(econ, ts)

    # rent accumulated below the cutoff, then a grid aligned with it so
    # neither quadrature route straddles the serving boundary
    ts_lo = np.linspace(d.lower, theta_hat, n + 1)
    below = _slope(ts_lo)
    u_hat = float(np.trapezoid(below, ts_lo))
    if d.upper - theta_hat <= 1e-14:
        return {"direct": 0.0, "hazard_form": 0.0, "gap": 0.0}
    ts = np.linspace(theta_hat, d.upper, n + 1)
    integrand = _slope(ts)
    u = u_hat + np.concatenate(([0.0], np.cumsum(
        0.5 * (integrand[1:] + integrand[:-1]) * np.diff(ts))))
    f = np.asarray(d.pdf(ts), float)
    F = np.asarray(d.cdf(ts), float)
    direct = float(np.trapezoid(u * f, ts))
    tail = 1.0 - float(d.cdf(theta_hat))
    hazard_form = u_hat * tail + float(np.trapezoid(integrand * (1.0 - F), ts))
    return {"direct": direct, "hazard_form": hazard_form,
            "gap": direct - hazard_form}


def advance_irrelevance_gap(econ: EconomyPrimitives, b1: float,
                            n_splits: int = 9) -> float:
    """Value spread across advance/intercept splits of fixed total pay.

    Holds the lowest type's total compensation at the binding level and
    re-divides it between the advance and the completion intercept; the
    spread is zero exactly when financing is free.
    """
    from .bilateral import contract_value

    total = _project_advance(econ, b1)
    if total <= 0.0:
        return 0.0
    vals = [contract_value(econ, s, total - s, b1, panels=256)
            for s in np.linspace(0.0, total, n_splits)]
    return float(max(vals) - min(vals))


def decreasing_slope_mechanism(econ: EconomyPrimitives,
                               m: int = 50) -> DiscreteMechanism:
    """Constructed violation: slopes fall in type, so low reports tempt.

    Serves every type at a common advance with slope 1 - theta/2; any
    type with an informative signal strictly gains by reporting the
    bottom, which ic_verify must catch.
    """
    d = econ.dist
    types = np.linspace(d.lower, d.upper, m)
    slopes = 1.0 - 0.5 * types
    if np.any(slopes < 0.0):
        slopes = np.maximum(slopes, 0.0)
    advances = np.full(m, 0.3)
    phi = financing_cost(econ.financing, econ.working_capital - 0.3)
    u = (advances + slopes * _mu(econ, types)
         - np.asarray(econ.cost(types), float) - phi)
    return DiscreteMechanism(types=types, allocation=np.ones(m),
                             advances=advances, slopes=slopes,
                             rents=np.maximum(u, 0.0))
