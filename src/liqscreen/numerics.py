"""Shared numerical routines with pinned tolerance semantics.

All solvers in the package route through these primitives so that
tolerance handling, tie-breaking, and failure modes stay uniform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BracketError, ConvergenceError

# Name of the only numerical backend; kept for tools that record it.
BACKEND = "pure"

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0  # inverse golden ratio


@dataclass(frozen=True)
class Tolerance:
    """Convergence budget shared by the iterative routines."""

    abs_x: float = 1e-10  # argument tolerance
    abs_f: float = 1e-12  # residual tolerance
    max_iter: int = 200

    def __post_init__(self):
        if self.abs_x <= 0 or self.abs_f <= 0 or self.max_iter < 1:
            raise ValueError("tolerances must be positive, max_iter >= 1")


@dataclass(frozen=True)
class Bracket:
    """Closed interval [lo, hi] expected to contain a root."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (self.lo < self.hi):
            raise ValueError(f"bracket needs lo < hi, got [{self.lo}, {self.hi}]")


DEFAULT_TOL = Tolerance()


def find_root(f: Callable[[float], float], bracket: Bracket,
              tol: Tolerance = DEFAULT_TOL) -> float:
    """Root of f on bracket: bisection with a secant acceleration step.

    Requires a sign change over the bracket (an exact zero at either
    endpoint counts). Raises BracketError otherwise and ConvergenceError
    (carrying .last) if the iteration budget runs out.
    """
    lo, hi = bracket.lo, bracket.hi
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise BracketError(f"no sign change on [{lo}, {hi}]: f={flo:.3g},{fhi:.3g}")
    x = 0.5 * (lo + hi)
    for _ in range(tol.max_iter):
        # secant proposal, kept only if it lands strictly inside
        denom = fhi - flo
        if denom != 0.0:
            xs = hi - fhi * (hi - lo) / denom
            if not (lo < xs < hi):
                xs = 0.5 * (lo + hi)
        else:
            xs = 0.5 * (lo + hi)
        x = xs
        fx = f(x)
        if abs(fx) <= tol.abs_f or (hi - lo) <= tol.abs_x:
            return x
        width_prev = hi - lo
        if flo * fx < 0.0:
            hi, fhi = x, fx
        else:
            lo, flo = x, fx
        # guard: force a bisection step whenever the secant barely shrank
        # the interval (e.g. crawling toward a discontinuity)
        if (hi - lo) > 0.7 * width_prev:
            xm = 0.5 * (lo + hi)
            fm = f(xm)
            if abs(fm) <= tol.abs_f:
                return xm
            if flo * fm < 0.0:
                hi, fhi = xm, fm
            else:
                lo, flo = xm, fm
    raise ConvergenceError(f"root iteration exhausted {tol.max_iter} steps", last=x)


def maximize_scalar(f: Callable[[float], float], lo: float, hi: float,
                    tol: Tolerance = DEFAULT_TOL,
                    scan_points: int = 65) -> tuple[float, float]:
    """Global scalar maximum on [lo, hi]: coarse scan then golden refinement.

    Evaluates f on a uniform scan (endpoints included), refines around the
    best scan point by golden-section search, and compares against both
    endpoints. Ties within 1e-13 relative resolve to the smallest x.
    """
    if not (lo <= hi):
        raise ValueError("maximize_scalar needs lo <= hi")
    if lo == hi:
        return lo, f(lo)
    xs = np.linspace(lo, hi, scan_points)
    fs = np.array([f(float(x)) for x in xs])
    i = int(np.argmax(fs))
    # tie-break the scan itself toward smaller x
    tie = np.abs(fs - fs[i]) <= 1e-13 * max(1.0, abs(float(fs[i])))
    i = int(np.argmin(np.where(tie, xs, np.inf)))
    a = float(xs[max(i - 1, 0)])
    b = float(xs[min(i + 1, scan_points - 1)])
    x_best, f_best = _golden_max(f, a, b, tol)
    return best_candidate([(float(xs[0]), float(fs[0])),
                           (float(xs[-1]), float(fs[-1])),
                           (float(xs[i]), float(fs[i])), (x_best, f_best)],
                          1e-13)


def best_candidate(candidates, rel_tol: float) -> tuple[float, float]:
    """Best (x, f) pair of a list whose first entry is the incumbent.

    A later pair replaces the running best when its f is higher by more
    than rel_tol * max(1, |best f|), or when it lies within that band
    and has a smaller x. Ties within tolerance are not transitive, so
    the result depends on the order of the list.
    """
    best_x, best_f = candidates[0]
    for x, fx in candidates[1:]:
        band = rel_tol * max(1.0, abs(best_f))
        if fx > best_f + band:
            best_x, best_f = x, fx
        elif abs(fx - best_f) <= band and x < best_x:
            best_x, best_f = x, fx
    return best_x, best_f


def _golden_max(f, a, b, tol):
    """Golden-section maximization on [a, b]."""
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol.abs_x:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def fixed_point(g: Callable[[np.ndarray], np.ndarray], x0,
                tol: Tolerance = DEFAULT_TOL, damping: float = 0.5,
                lo=None, hi=None) -> tuple[np.ndarray, float, int]:
    """Damped fixed point of x <- g(x), optionally clamped to a box.

    Works on scalars or 1-d arrays. Returns (x, residual, iterations)
    where residual is the sup norm of g(x) - x at the returned point.
    Raises ConvergenceError (with .last) when max_iter is hit first.
    """
    scalar = np.isscalar(x0)
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    lo_a = None if lo is None else np.broadcast_to(np.asarray(lo, float), x.shape)
    hi_a = None if hi is None else np.broadcast_to(np.asarray(hi, float), x.shape)

    def clamp(v):
        if lo_a is not None:
            v = np.maximum(v, lo_a)
        if hi_a is not None:
            v = np.minimum(v, hi_a)
        return v

    for it in range(1, tol.max_iter + 1):
        gx = clamp(np.atleast_1d(np.asarray(g(x[0] if scalar else x), float)))
        r = float(np.max(np.abs(gx - x)))
        if r <= tol.abs_f:
            return (float(gx[0]) if scalar else gx), r, it
        x = x + damping * (gx - x)
    raise ConvergenceError(
        f"fixed point not converged in {tol.max_iter} iterations (residual {r:.3g})",
        last=float(x[0]) if scalar else x)


def integrate(f: Callable, lo: float, hi: float, panels: int = 512) -> float:
    """Composite Simpson integral of f over [lo, hi].

    panels must be even. f is called once with the full numpy grid when
    it vectorizes; otherwise it is evaluated pointwise.
    """
    if hi < lo:
        raise ValueError("integrate needs lo <= hi")
    if hi == lo:
        return 0.0
    if panels < 2 or panels % 2:
        raise ValueError("panels must be even and >= 2")
    xs = np.linspace(lo, hi, panels + 1)
    try:
        ys = np.asarray(f(xs), dtype=float)
        if ys.shape != xs.shape:
            raise TypeError
    except (TypeError, ValueError):
        ys = np.array([float(f(float(x))) for x in xs])
    h = (hi - lo) / panels
    return float((ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum()
                  + 2.0 * ys[2:-1:2].sum()) * (h / 3.0))
