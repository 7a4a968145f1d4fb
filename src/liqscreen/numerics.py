"""Shared numerical routines with pinned tolerance semantics.

All solvers in the package route through these primitives so that
tolerance handling, tie-breaking, and failure modes stay uniform.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BracketError, ConvergenceError

# Name of the only numerical backend; kept for tools that record it.
BACKEND = "pure"

_NUDGE = 1e-9  # share of the span by which a piece's end slopes step inside it
_TIE = 1e-12  # relative band within which maximize_on_pieces' candidates tie


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


def maximize_on_pieces(f: Callable[[float], float],
                       slope: Callable[[float], float | None],
                       kinks: list[float], points: int) -> tuple[float, float]:
    """Maximum of f on [kinks[0], kinks[-1]], where f is smooth between kinks.

    kinks is sorted. slope is f's derivative inside a piece, or None
    where f rests at a floor it can only rise from, which counts as
    rising. On each piece, slope is scanned at points points from end
    to end, the ends stepped _NUDGE of the whole span inside the piece,
    past the error of a kink's own root. Each fall from + to - between
    neighbouring scan points brackets a local maximum, and find_root
    lands on it, or by its forced bisection on a jump of the derivative.
    The kinks, then those roots, are priced by f and compete through
    best_candidate with _TIE, so a tie goes to the smaller x.
    Returns (x, f(x)).
    """
    rises = {}

    def rise(x):
        if x not in rises:
            s = slope(x)
            rises[x] = 1.0 if s is None else s
        return rises[x]

    h = _NUDGE * (kinks[-1] - kinks[0])
    roots = []
    for lo, hi in zip(kinks[:-1], kinks[1:]):
        lo, hi = lo + h, hi - h
        if not lo < hi:
            continue
        xs = np.linspace(lo, hi, points).tolist()
        for x0, x1 in zip(xs[:-1], xs[1:]):
            if rise(x0) > 0.0 and rise(x1) < 0.0:
                roots.append(find_root(rise, Bracket(x0, x1)))
    return best_candidate([(x, f(x)) for x in kinks + roots], _TIE)


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


def fixed_point(g: Callable[[np.ndarray], np.ndarray], x0,
                tol: Tolerance = DEFAULT_TOL) -> tuple[np.ndarray, float, int]:
    """Damped fixed point of x <- g(x) on a 1-d array.

    Each step moves halfway: x <- x + 0.5 * (g(x) - x). Returns (x,
    residual, iterations) where residual is the sup norm of g(x) - x at
    the returned point. Raises ConvergenceError (with .last) when
    max_iter is hit first.
    """
    x = np.array(x0, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"fixed_point needs a 1-d start, got shape {x.shape}")
    for it in range(1, tol.max_iter + 1):
        gx = np.asarray(g(x), float)
        r = float(np.max(np.abs(gx - x)))
        if r <= tol.abs_f:
            return gx, r, it
        x = x + 0.5 * (gx - x)
    raise ConvergenceError(
        f"fixed point not converged in {tol.max_iter} iterations (residual {r:.3g})",
        last=x)


def integrate(f: Callable, lo: float, hi: float, panels: int = 512) -> float:
    """Composite Simpson integral of f over [lo, hi].

    panels must be even. f is called once with the full numpy grid and
    must return one value per grid point; any other shape raises
    ValueError.
    """
    if hi < lo:
        raise ValueError("integrate needs lo <= hi")
    if hi == lo:
        return 0.0
    if panels < 2 or panels % 2:
        raise ValueError("panels must be even and >= 2")
    xs = np.linspace(lo, hi, panels + 1)
    ys = np.asarray(f(xs), dtype=float)
    if ys.shape != xs.shape:
        raise ValueError(f"integrand returned shape {ys.shape} "
                         f"on a grid of shape {xs.shape}")
    h = (hi - lo) / panels
    return float((ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum()
                  + 2.0 * ys[2:-1:2].sum()) * (h / 3.0))
