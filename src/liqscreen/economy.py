"""Model primitives: type distributions, payoff functions, financing technology.

An economy bundles a compliance-type distribution F on [lower, upper],
a completion surplus V(theta), a completion cost c(theta), a mean
compliance signal mu(theta), and a convex liquidity cost Phi(ell) of
leaving ell of the working-capital need K uncovered by the advance.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import DomainError

_FD_STEP = 1e-6


@dataclass(frozen=True)
class TypeDistribution:
    """Absolutely continuous type distribution on [lower, upper]."""

    lower: float
    upper: float
    cdf: Callable
    pdf: Callable
    name: str = "custom"

    def __post_init__(self):
        if not (self.lower < self.upper):
            raise DomainError("type support needs lower < upper")


def uniform(lo: float = 0.0, hi: float = 1.0) -> TypeDistribution:
    """Uniform types on [lo, hi]."""
    width = hi - lo
    return TypeDistribution(
        lower=lo, upper=hi,
        cdf=lambda t: np.clip((np.asarray(t, float) - lo) / width, 0.0, 1.0),
        pdf=lambda t: np.full_like(np.asarray(t, float), 1.0 / width),
        name="uniform")


def truncated_exponential(rate: float, lo: float = 0.0,
                          hi: float = 1.0) -> TypeDistribution:
    """Exponential(rate) restricted to [lo, hi]."""
    if rate <= 0:
        raise DomainError("rate must be positive")
    z = 1.0 - math.exp(-rate * (hi - lo))
    return TypeDistribution(
        lower=lo, upper=hi,
        cdf=lambda t: (1.0 - np.exp(-rate * (np.asarray(t, float) - lo))) / z,
        pdf=lambda t: rate * np.exp(-rate * (np.asarray(t, float) - lo)) / z,
        name="truncated_exponential")


def power(exponent: float, lo: float = 0.0, hi: float = 1.0) -> TypeDistribution:
    """Power-law types: F((t - lo)/(hi - lo)) = x**exponent."""
    if exponent <= 0:
        raise DomainError("exponent must be positive")
    width = hi - lo
    return TypeDistribution(
        lower=lo, upper=hi,
        cdf=lambda t: ((np.asarray(t, float) - lo) / width) ** exponent,
        pdf=lambda t: (exponent / width)
        * ((np.asarray(t, float) - lo) / width) ** (exponent - 1.0),
        name="power")


def _norm_cdf(x, mean, sd):
    arr = np.asarray(x, dtype=float)
    flat = [0.5 * (1.0 + math.erf((t - mean) / (sd * math.sqrt(2.0))))
            for t in np.ravel(arr)]
    out = np.array(flat).reshape(arr.shape)
    return out if arr.shape else float(out)


def _norm_pdf(x, mean, sd):
    arr = np.asarray(x, dtype=float)
    return np.exp(-0.5 * ((arr - mean) / sd) ** 2) / (sd * math.sqrt(2.0 * math.pi))


def bimodal(modes: tuple[float, float] = (0.25, 0.75), sd: float = 0.05,
            lo: float = 0.0, hi: float = 1.0) -> TypeDistribution:
    """Equal-weight two-normal mixture truncated to [lo, hi].

    Deliberately violates the increasing-virtual-type regularity
    condition; used to exercise the regularity check.
    """
    m1, m2 = modes
    mass = 0.5 * (_norm_cdf(hi, m1, sd) - _norm_cdf(lo, m1, sd)) \
        + 0.5 * (_norm_cdf(hi, m2, sd) - _norm_cdf(lo, m2, sd))

    def cdf(t):
        raw = 0.5 * (_norm_cdf(t, m1, sd) - _norm_cdf(lo, m1, sd)) \
            + 0.5 * (_norm_cdf(t, m2, sd) - _norm_cdf(lo, m2, sd))
        return np.clip(raw / mass, 0.0, 1.0)

    def pdf(t):
        return (0.5 * _norm_pdf(t, m1, sd) + 0.5 * _norm_pdf(t, m2, sd)) / mass

    return TypeDistribution(lower=lo, upper=hi, cdf=cdf, pdf=pdf, name="bimodal")


def hazard(dist: TypeDistribution, theta: float) -> float:
    """Screening wedge (1 - F(theta)) / f(theta); zero at the top type."""
    if theta < dist.lower - 1e-12 or theta > dist.upper + 1e-12:
        raise DomainError(f"theta={theta} outside support [{dist.lower}, {dist.upper}]")
    if theta >= dist.upper:
        return 0.0
    f = float(dist.pdf(theta))
    if f <= 0.0:
        raise DomainError(f"density vanishes at theta={theta}")
    return float((1.0 - dist.cdf(theta)) / f)


def virtual_type(dist: TypeDistribution, theta: float) -> float:
    """Virtual type theta - (1 - F)/f."""
    return theta - hazard(dist, theta)


def regularity_ok(dist: TypeDistribution, n: int = 1000) -> bool:
    """True when the virtual type is strictly increasing on an n-point grid."""
    ts = np.linspace(dist.lower, dist.upper, n)
    vals = np.array([virtual_type(dist, float(t)) for t in ts])
    return bool(np.all(np.diff(vals) > 0.0))


@dataclass(frozen=True)
class FinancingCost:
    """Convex cost Phi(ell) of an uncovered liquidity gap ell >= 0.

    kind="quadratic" gives Phi = (tightness/2) * ell**2; kind="tabulated"
    interpolates user-supplied (ell, phi) nodes linearly.
    """

    tightness: float = 1.0  # R >= 0, quadratic coefficient
    kind: str = "quadratic"
    nodes: tuple[tuple[float, ...], tuple[float, ...]] | None = None

    def __post_init__(self):
        if self.kind == "quadratic":
            if self.tightness < 0:
                raise DomainError("tightness must be nonnegative")
        elif self.kind == "tabulated":
            if self.nodes is None or len(self.nodes[0]) != len(self.nodes[1]):
                raise DomainError("tabulated cost needs matching (ell, phi) nodes")
            ells = np.asarray(self.nodes[0])
            if np.any(np.diff(ells) <= 0):
                raise DomainError("tabulated ell nodes must be strictly increasing")
        else:
            raise DomainError(f"unknown financing kind {self.kind!r}")


def financing_cost(fin: FinancingCost, ell: float) -> float:
    """Phi(ell); the gap must be nonnegative."""
    if ell < -1e-12:
        raise DomainError(f"liquidity gap must be nonnegative, got {ell}")
    ell = max(ell, 0.0)
    if fin.kind == "quadratic":
        return 0.5 * fin.tightness * ell * ell
    return float(np.interp(ell, fin.nodes[0], fin.nodes[1]))


def marginal_ell(fin: FinancingCost, ell: float) -> float:
    """d Phi / d ell."""
    if ell < -1e-12:
        raise DomainError(f"liquidity gap must be nonnegative, got {ell}")
    ell = max(ell, 0.0)
    if fin.kind == "quadratic":
        return fin.tightness * ell
    h = _FD_STEP
    return (financing_cost(fin, ell + h) - financing_cost(fin, max(ell - h, 0.0))) \
        / (h + min(ell, h))


def marginal_r(fin: FinancingCost, ell: float) -> float:
    """d Phi / d tightness; defined for the quadratic family only."""
    if fin.kind != "quadratic":
        raise DomainError("tightness derivative needs the quadratic family")
    if ell < -1e-12:
        raise DomainError(f"liquidity gap must be nonnegative, got {ell}")
    ell = max(ell, 0.0)
    return 0.5 * ell * ell


def second_ell(fin: FinancingCost, ell: float) -> float:
    """d^2 Phi / d ell^2."""
    if fin.kind != "quadratic":
        h = _FD_STEP
        return (marginal_ell(fin, ell + h) - marginal_ell(fin, max(ell - h, 0.0))) \
            / (h + min(ell, h))
    return fin.tightness


@dataclass(frozen=True)
class EconomyPrimitives:
    """One screening relationship's primitives."""

    dist: TypeDistribution
    surplus: Callable            # V(theta), completion surplus
    cost: Callable               # c(theta), completion cost
    signal_mean: Callable        # mu(theta), mean compliance signal
    financing: FinancingCost
    working_capital: float = 1.0  # K > 0
    cost_prime: Callable | None = None
    signal_mean_prime: Callable | None = None
    label: str = "custom"

    def __post_init__(self):
        if self.working_capital <= 0:
            raise DomainError("working capital must be positive")


def signal_slope(econ: EconomyPrimitives, t):
    """mu'(t) elementwise: scalar in, float out; array in, array out."""
    return _slope(econ.signal_mean, econ.signal_mean_prime, econ.dist, t)


def cost_slope(econ: EconomyPrimitives, t):
    """c'(t) elementwise: scalar in, float out; array in, array out."""
    return _slope(econ.cost, econ.cost_prime, econ.dist, t)


def _slope(f, f_prime, dist, t):
    """f_prime(t) when supplied, else one central difference clamped to the support."""
    x = np.asarray(t, dtype=float)
    if f_prime is not None:
        out = np.asarray(f_prime(x), float)
    else:
        a = np.maximum(x - _FD_STEP, dist.lower)
        b = np.minimum(x + _FD_STEP, dist.upper)
        out = (np.asarray(f(b), float) - np.asarray(f(a), float)) / (b - a)
    return float(out) if x.ndim == 0 else out


def benchmark(v: float = 2.0, mu0: float = 0.0, K: float = 1.0, R: float = 1.0,
              signal_kind: str = "affine", signal_scale: float = 1.0,
              dist: TypeDistribution | None = None) -> EconomyPrimitives:
    """Linear-quadratic benchmark family.

    Uniform types on [0, 1] unless dist overrides, V = v*theta,
    c = theta, quadratic financing with tightness R, and signal
    mu = mu0 + signal_scale*theta (kind "affine") or mu identically 0
    (kind "flat", which requires mu0 = 0). A negative affine scale is
    rejected: the signal would fall in the type.
    """
    if signal_kind == "affine":
        if signal_scale < 0:
            raise DomainError("affine signal scale must be nonnegative")
        mu = (lambda t, s=signal_scale: mu0 + s * np.asarray(t, float))
        mu_prime = (lambda t, s=signal_scale: s * np.ones_like(np.asarray(t, float)))
    elif signal_kind == "flat":
        if mu0 != 0.0:
            raise DomainError("flat signal requires mu0 = 0")
        mu = (lambda t: np.zeros_like(np.asarray(t, float)))
        mu_prime = (lambda t: np.zeros_like(np.asarray(t, float)))
    else:
        raise DomainError(f"unknown signal kind {signal_kind!r}")
    return EconomyPrimitives(
        dist=dist if dist is not None else uniform(),
        surplus=lambda t: v * np.asarray(t, float),
        cost=lambda t: np.asarray(t, float),
        signal_mean=mu,
        financing=FinancingCost(tightness=R),
        working_capital=K,
        cost_prime=lambda t: np.ones_like(np.asarray(t, float)),
        signal_mean_prime=mu_prime,
        label=f"benchmark(v={v}, mu0={mu0}, K={K}, R={R})")


def with_tightness(econ: EconomyPrimitives, R: float) -> EconomyPrimitives:
    """Copy of econ with the quadratic financing tightness replaced."""
    if econ.financing.kind != "quadratic":
        raise DomainError("tightness replacement needs the quadratic family")
    return replace(econ, financing=FinancingCost(tightness=R))


def validate_economy(econ: EconomyPrimitives) -> list[str]:
    """Check primitives on a 200-point grid (regularity on 400 points).

    Hard violations raise; soft ones come back as notes.
    """
    d = econ.dist
    ts = np.linspace(d.lower, d.upper, 200)
    pdf = np.asarray(d.pdf(ts), dtype=float)
    if np.any(pdf <= 0):
        raise DomainError("density must be strictly positive on the support")
    if abs(float(d.cdf(d.lower))) > 1e-8 or abs(float(d.cdf(d.upper)) - 1.0) > 1e-8:
        raise DomainError("cdf must run from 0 to 1 over the support")
    notes = []
    gains = np.asarray(econ.surplus(ts), float) - np.asarray(econ.cost(ts), float)
    if not np.all(np.diff(gains) > 0):
        notes.append("surplus net of cost is not strictly increasing")
    mu_p = signal_slope(econ, ts[:-1])
    if np.all(np.abs(mu_p) < 1e-12):
        notes.append("signal carries no type information (mu' = 0)")
    elif np.any(mu_p < 0):
        notes.append("signal mean is decreasing somewhere")
    if not regularity_ok(d, n=400):
        notes.append("virtual type is not strictly increasing (regularity fails)")
    return notes


_DIST_BUILDERS = {
    "uniform": (uniform, {"lo", "hi"}),
    "truncated_exponential": (truncated_exponential, {"rate", "lo", "hi"}),
    "power": (power, {"exponent", "lo", "hi"}),
}


def _check_keys(obj: dict, allowed: set[str], where: str):
    unknown = set(obj) - allowed
    if unknown:
        raise DomainError(f"unknown field(s) in {where}: {sorted(unknown)}")


def economy_from_config(cfg: dict) -> EconomyPrimitives:
    """Build an economy from a plain-dict config; unknown fields are rejected."""
    _check_keys(cfg, {"dist", "v", "mu0", "K", "R", "phi", "signal"}, "config")
    dist_cfg = cfg.get("dist", {"kind": "uniform", "params": {}})
    _check_keys(dist_cfg, {"kind", "params"}, "config.dist")
    kind = dist_cfg.get("kind", "uniform")
    if kind not in _DIST_BUILDERS:
        raise DomainError(f"unknown distribution kind {kind!r}")
    builder, allowed = _DIST_BUILDERS[kind]
    params = dist_cfg.get("params", {})
    _check_keys(params, allowed, f"config.dist.params({kind})")
    dist = builder(**params)

    phi_cfg = cfg.get("phi", {"kind": "quadratic", "params": {}})
    _check_keys(phi_cfg, {"kind", "params"}, "config.phi")
    phi_kind = phi_cfg.get("kind", "quadratic")
    phi_params = phi_cfg.get("params", {})
    R = float(cfg.get("R", 1.0))
    if phi_kind == "quadratic":
        _check_keys(phi_params, set(), "config.phi.params(quadratic)")
    elif phi_kind == "tabulated":
        _check_keys(phi_params, {"ell", "phi"}, "config.phi.params(tabulated)")
    else:
        raise DomainError(f"unknown financing kind {phi_kind!r}")

    signal_cfg = cfg.get("signal", {"kind": "affine", "scale": 1.0})
    _check_keys(signal_cfg, {"kind", "scale"}, "config.signal")
    econ = benchmark(
        v=float(cfg.get("v", 2.0)),
        mu0=float(cfg.get("mu0", 0.0)),
        K=float(cfg.get("K", 1.0)),
        R=R,
        signal_kind=signal_cfg.get("kind", "affine"),
        signal_scale=float(signal_cfg.get("scale", 1.0)),
        dist=dist)
    if phi_kind == "tabulated":
        fin = FinancingCost(tightness=0.0, kind="tabulated",
                            nodes=(tuple(phi_params["ell"]), tuple(phi_params["phi"])))
        econ = replace(econ, financing=fin)
    return econ


def load_config(path: str) -> dict:
    """Read a JSON config file."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
