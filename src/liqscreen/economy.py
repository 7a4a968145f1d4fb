"""Model primitives: type distributions, payoff functions, financing technology.

An economy bundles a compliance-type distribution F on [lower, upper],
a completion surplus V(theta), a completion cost c(theta), a mean
compliance signal mu(theta), and a convex liquidity cost Phi(ell) of
leaving ell of the working-capital need K uncovered by the advance.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
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

    def __post_init__(self):
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise DomainError("type support ends must be finite")
        if not (self.lower < self.upper):
            raise DomainError("type support needs lower < upper")

    @cached_property
    def log_concave(self) -> bool:
        """True when log f is finite and concave on the support's interior.

        Tested once per distribution, at the interior points of a
        257-point grid of types: log f must be finite there and its
        second differences at most 1e-12. The grid's ends are left out,
        so a density that vanishes at the lower end, as power types
        with exponent > 1 do, can pass. Uniform, truncated-exponential
        and power (exponent >= 1) types pass; power types with exponent
        < 1 and bimodal mixtures do not.
        """
        ts = np.linspace(self.lower, self.upper, 257)[1:-1]
        with np.errstate(divide="ignore", invalid="ignore"):
            log_f = np.log(np.asarray(self.pdf(ts), float))
        return bool(np.all(np.isfinite(log_f)) and np.all(np.diff(log_f, 2) <= 1e-12))


def uniform(lo: float = 0.0, hi: float = 1.0) -> TypeDistribution:
    """Uniform types on [lo, hi]."""
    width = hi - lo
    return TypeDistribution(
        lower=lo, upper=hi,
        cdf=lambda t: np.clip((np.asarray(t, float) - lo) / width, 0.0, 1.0),
        pdf=lambda t: np.full_like(np.asarray(t, float), 1.0 / width))


def truncated_exponential(rate: float, lo: float = 0.0,
                          hi: float = 1.0) -> TypeDistribution:
    """Exponential(rate) restricted to [lo, hi].

    The normaliser 1 - exp(-rate * (hi - lo)) cancels as rate * (hi - lo)
    shrinks: cdf(0.5) on [0, 1] is off by 1.1e-4 relative at rate 1e-12
    and by 1.1e-7 at 1e-9, against 2.5e-9 at 1e-8. So a rate below
    1e-8 / (hi - lo) is rejected.
    """
    if not (math.isfinite(rate) and rate > 0):
        raise DomainError("rate must be finite and positive")
    if lo < hi and rate * (hi - lo) < 1e-8:  # TypeDistribution rejects lo >= hi
        raise DomainError("truncated_exponential rate is too small: "
                          "rate * (hi - lo) < 1e-8 loses the cdf's accuracy")
    z = 1.0 - math.exp(-rate * (hi - lo))
    return TypeDistribution(
        lower=lo, upper=hi,
        cdf=lambda t: (1.0 - np.exp(-rate * (np.asarray(t, float) - lo))) / z,
        pdf=lambda t: rate * np.exp(-rate * (np.asarray(t, float) - lo)) / z)


def power(exponent: float, lo: float = 0.0, hi: float = 1.0) -> TypeDistribution:
    """Power-law types: F((t - lo)/(hi - lo)) = x**exponent."""
    if not (math.isfinite(exponent) and exponent > 0):
        raise DomainError("exponent must be finite and positive")
    width = hi - lo
    return TypeDistribution(
        lower=lo, upper=hi,
        cdf=lambda t: ((np.asarray(t, float) - lo) / width) ** exponent,
        pdf=lambda t: (exponent / width)
        * ((np.asarray(t, float) - lo) / width) ** (exponent - 1.0))


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
    if not (math.isfinite(m1) and math.isfinite(m2)):
        raise DomainError("bimodal modes must be finite")
    if not (math.isfinite(sd) and sd > 0):
        raise DomainError("bimodal sd must be finite and positive")
    mass = 0.5 * (_norm_cdf(hi, m1, sd) - _norm_cdf(lo, m1, sd)) \
        + 0.5 * (_norm_cdf(hi, m2, sd) - _norm_cdf(lo, m2, sd))

    def cdf(t):
        raw = 0.5 * (_norm_cdf(t, m1, sd) - _norm_cdf(lo, m1, sd)) \
            + 0.5 * (_norm_cdf(t, m2, sd) - _norm_cdf(lo, m2, sd))
        return np.clip(raw / mass, 0.0, 1.0)

    def pdf(t):
        return (0.5 * _norm_pdf(t, m1, sd) + 0.5 * _norm_pdf(t, m2, sd)) / mass

    return TypeDistribution(lower=lo, upper=hi, cdf=cdf, pdf=pdf)


def wedge(dist: TypeDistribution, t):
    """Screening wedge (1 - F)/f elementwise, unchecked: inf where f = 0."""
    t = np.asarray(t, dtype=float)
    return (1.0 - np.asarray(dist.cdf(t), float)) / np.asarray(dist.pdf(t), float)


def hazard(dist: TypeDistribution, theta):
    """The wedge elementwise, 0 at the top type; DomainError off the support or where f <= 0."""
    t = np.asarray(theta, dtype=float)
    if np.any((t < dist.lower - 1e-12) | (t > dist.upper + 1e-12)):
        raise DomainError(f"theta={theta} outside support [{dist.lower}, {dist.upper}]")
    inner = t < dist.upper
    vanish = t[inner & (np.asarray(dist.pdf(t), float) <= 0.0)]
    if vanish.size:
        raise DomainError(f"density vanishes at theta={vanish[0]}")
    out = np.zeros_like(t)
    out[inner] = wedge(dist, t[inner])
    return float(out) if t.ndim == 0 else out


def virtual_type(dist: TypeDistribution, theta):
    """Virtual type theta - (1 - F)/f, elementwise."""
    return theta - hazard(dist, theta)


def regularity_ok(dist: TypeDistribution) -> bool:
    """True when the virtual type is strictly increasing on a 400-point grid."""
    ts = np.linspace(dist.lower, dist.upper, 400)
    return bool(np.all(np.diff(virtual_type(dist, ts)) > 0.0))


@dataclass(frozen=True)
class FinancingCost:
    """Convex cost Phi(ell) of an uncovered liquidity gap ell >= 0.

    kind="quadratic" gives Phi = (tightness/2) * ell**2; kind="tabulated"
    interpolates user-supplied (ell, phi) nodes linearly: a convex cost
    from (0, 0), whose last node must reach K (EconomyPrimitives).
    """

    tightness: float = 1.0  # R >= 0, quadratic coefficient
    kind: str = "quadratic"
    nodes: tuple[tuple[float, ...], tuple[float, ...]] | None = None

    def __post_init__(self):
        if self.kind == "quadratic":
            if not (math.isfinite(self.tightness) and self.tightness >= 0):
                raise DomainError("tightness must be finite and nonnegative")
        elif self.kind == "tabulated":
            if self.nodes is None or len(self.nodes[0]) != len(self.nodes[1]):
                raise DomainError("tabulated cost needs matching (ell, phi) nodes")
            if not np.all(np.isfinite(np.asarray(self.nodes, float))):
                raise DomainError("tabulated cost nodes must be finite")
            ells, phis = (np.asarray(x, float) for x in self.nodes)
            if np.any(np.diff(ells) <= 0):
                raise DomainError("tabulated ell nodes must be strictly increasing")
            if ells.size == 0 or ells[0] != 0.0 or phis[0] != 0.0:
                raise DomainError("tabulated phi must start at ell = 0 with phi = 0")
            if np.any(np.diff(phis) < 0.0):
                raise DomainError("tabulated phi must be nondecreasing")
            if np.any(np.diff(np.diff(phis) / np.diff(ells)) < -1e-12):
                raise DomainError("tabulated phi must be convex: segment slopes may not fall")
        else:
            raise DomainError(f"unknown financing kind {self.kind!r}")


def _gap(ell: float) -> float:
    """A liquidity gap clamped at 0; one below -1e-12 is a DomainError."""
    if ell < -1e-12:
        raise DomainError(f"liquidity gap must be nonnegative, got {ell}")
    return max(ell, 0.0)


def financing_cost(fin: FinancingCost, ell: float) -> float:
    """Phi(ell); the gap must be nonnegative."""
    ell = _gap(ell)
    if fin.kind == "quadratic":
        return 0.5 * fin.tightness * ell * ell
    return float(np.interp(ell, fin.nodes[0], fin.nodes[1]))


def marginal_ell(fin: FinancingCost, ell: float) -> float:
    """d Phi / d ell.

    A tabulated Phi is piecewise linear: its derivative is the exact
    slope of the segment just right of ell, the right derivative at a
    node. Beyond the outer nodes Phi is flat, as np.interp extends it.
    """
    ell = _gap(ell)
    if fin.kind == "quadratic":
        return fin.tightness * ell
    ells, phis = fin.nodes
    j = bisect_right(ells, ell)
    if j == 0 or j == len(ells):
        return 0.0
    return (phis[j] - phis[j - 1]) / (ells[j] - ells[j - 1])


def marginal_r(fin: FinancingCost, ell: float) -> float:
    """d Phi / d tightness; defined for the quadratic family only."""
    if fin.kind != "quadratic":
        raise DomainError("tightness derivative needs the quadratic family")
    ell = _gap(ell)
    return 0.5 * ell * ell


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

    def __post_init__(self):
        K = self.working_capital
        if not (math.isfinite(K) and K > 0):
            raise DomainError("working capital must be finite and positive")
        if self.financing.kind == "tabulated" and self.financing.nodes[0][-1] < K:
            raise DomainError(f"tabulated ell nodes must reach K = {K:.6g}")


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
    rejected: the signal would fall in the type, and so is a v, mu0 or
    signal_scale that is not finite. The type primitives (the
    distribution, V, c, mu, c' and mu') are built once per distinct
    (v, mu0, signal_kind, signal_scale, dist), so economies that differ
    only in K or R share them as objects (_benchmark_types).
    """
    if not all(math.isfinite(x) for x in (v, mu0, signal_scale)):
        raise DomainError("benchmark v, mu0 and signal scale must be finite")
    if signal_kind == "affine":
        if signal_scale < 0:
            raise DomainError("affine signal scale must be nonnegative")
    elif signal_kind == "flat":
        if mu0 != 0.0:
            raise DomainError("flat signal requires mu0 = 0")
    else:
        raise DomainError(f"unknown signal kind {signal_kind!r}")
    params = (float(v), float(mu0), signal_kind, float(signal_scale), dist)
    try:
        types = _benchmark_types(*params)
    except TypeError:  # a dist holding an unhashable callable is built uncached
        types = _benchmark_types.__wrapped__(*params)
    dist, surplus, cost, mu, cost_prime, mu_prime = types
    return EconomyPrimitives(
        dist=dist, surplus=surplus, cost=cost, signal_mean=mu,
        financing=FinancingCost(tightness=R),
        working_capital=K,
        cost_prime=cost_prime,
        signal_mean_prime=mu_prime)


_UNIT_UNIFORM = uniform()  # benchmark's types when no dist is given


@lru_cache(maxsize=32)
def _benchmark_types(v, mu0, signal_kind, signal_scale, dist):
    """benchmark's type primitives (dist, V, c, mu, c', mu') for validated parameters.

    Cached on the parameters, so each distinct set is built once while
    it stays among the 32 most recently used.
    """
    if signal_kind == "affine":
        mu = (lambda t, s=signal_scale: mu0 + s * np.asarray(t, float))
        mu_prime = (lambda t, s=signal_scale: s * np.ones_like(np.asarray(t, float)))
    else:
        mu = (lambda t: np.zeros_like(np.asarray(t, float)))
        mu_prime = (lambda t: np.zeros_like(np.asarray(t, float)))
    return (_UNIT_UNIFORM if dist is None else dist,
            lambda t: v * np.asarray(t, float),
            lambda t: np.asarray(t, float),
            mu,
            lambda t: np.ones_like(np.asarray(t, float)),
            mu_prime)


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
    if not regularity_ok(d):
        notes.append("virtual type is not strictly increasing (regularity fails)")
    return notes


_DIST_BUILDERS = {  # builder and its required parameters; lo and hi are optional
    "uniform": (uniform, set()),
    "truncated_exponential": (truncated_exponential, {"rate"}),
    "power": (power, {"exponent"}),
}


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _config_object(obj, where: str, allowed: set[str] | None = None) -> dict:
    """obj, which must be a JSON object; with allowed, holding only those fields."""
    if not isinstance(obj, dict):
        raise DomainError(f"{where} must be a JSON object, got {obj!r}")
    unknown = set(obj) - allowed if allowed is not None else set()
    if unknown:
        raise DomainError(f"unknown field(s) in {where}: {sorted(unknown)}")
    return obj


def _config_float(x, field: str) -> float:
    """The JSON number x as a float; an integer beyond float range is rejected."""
    try:
        return float(x)
    except OverflowError:
        raise DomainError(f"{field} is too large for a float") from None


def _config_number(obj: dict, key: str, where: str, default=None) -> float:
    """obj[key] (default when absent), which must be a JSON number."""
    x = obj.get(key, default)
    if not _is_number(x):
        raise DomainError(f"{where}.{key} must be a number, got {x!r}")
    return _config_float(x, f"{where}.{key}")


def _config_kind(obj: dict, where: str, default: str) -> str:
    """obj["kind"] (default when absent), which must be a string."""
    kind = obj.get("kind", default)
    if not isinstance(kind, str):
        raise DomainError(f"{where}.kind must be a string, got {kind!r}")
    return kind


def _config_numbers(obj: dict, key: str, where: str) -> tuple[float, ...]:
    """obj[key], which must be a list of JSON numbers."""
    xs = obj.get(key)
    if not (isinstance(xs, list) and all(_is_number(x) for x in xs)):
        raise DomainError(f"{where}.{key} must be a list of numbers, got {xs!r}")
    return tuple(_config_float(x, f"{where}.{key}[{i}]") for i, x in enumerate(xs))


def economy_from_config(cfg: dict) -> EconomyPrimitives:
    """Build an economy from a plain-dict config.

    Unknown fields are rejected, and so is a block that is not an
    object, a kind that is not a string, or a numeric field that is
    not a JSON number (a list of them for tabulated ell and phi).
    """
    _config_object(cfg, "config", {"dist", "v", "mu0", "K", "R", "phi", "signal"})
    dist_cfg = _config_object(cfg.get("dist", {}), "config.dist", {"kind", "params"})
    kind = _config_kind(dist_cfg, "config.dist", "uniform")
    if kind not in _DIST_BUILDERS:
        raise DomainError(f"unknown distribution kind {kind!r}")
    builder, required = _DIST_BUILDERS[kind]
    where = f"config.dist.params({kind})"
    params = _config_object(dist_cfg.get("params", {}), where, required | {"lo", "hi"})
    dist = builder(**{k: _config_number(params, k, where) for k in required | set(params)})

    phi_cfg = _config_object(cfg.get("phi", {}), "config.phi", {"kind", "params"})
    phi_kind = _config_kind(phi_cfg, "config.phi", "quadratic")
    if phi_kind not in ("quadratic", "tabulated"):
        raise DomainError(f"unknown financing kind {phi_kind!r}")
    where = f"config.phi.params({phi_kind})"
    phi_params = _config_object(phi_cfg.get("params", {}), where,
                                {"ell", "phi"} if phi_kind == "tabulated" else set())

    signal_cfg = _config_object(cfg.get("signal", {}), "config.signal", {"kind", "scale"})
    econ = benchmark(
        v=_config_number(cfg, "v", "config", 2.0),
        mu0=_config_number(cfg, "mu0", "config", 0.0),
        K=_config_number(cfg, "K", "config", 1.0),
        R=_config_number(cfg, "R", "config", 1.0),
        signal_kind=_config_kind(signal_cfg, "config.signal", "affine"),
        signal_scale=_config_number(signal_cfg, "scale", "config.signal", 1.0),
        dist=dist)
    if phi_kind == "tabulated":
        fin = FinancingCost(tightness=0.0, kind="tabulated",
                            nodes=(_config_numbers(phi_params, "ell", where),
                                   _config_numbers(phi_params, "phi", where)))
        econ = replace(econ, financing=fin)
    return econ


def load_config(path: str) -> dict:
    """Read a JSON config file, which must hold an object."""
    with open(path, encoding="utf-8") as fh:
        return _config_object(json.load(fh), "config file")
