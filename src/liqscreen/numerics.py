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


def find_roots(f: Callable[[np.ndarray], np.ndarray], lo, hi,
               tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """find_root over arrays of brackets [lo[i], hi[i]], in lockstep.

    f maps an array of points, one per bracket, to the values there and
    must act elementwise. Each element takes find_root's own secant and
    forced-bisection steps, so each root equals find_root's bit for bit
    when f gives the same value on an array as on a scalar (numpy's
    array ** may differ from the scalar one in the last bit).
    Raises BracketError when any bracket lacks a sign change and
    ConvergenceError (carrying .last) when any element runs out of
    budget.
    """
    lo, hi = np.array(lo, float), np.array(hi, float)
    flo, fhi = f(lo), f(hi)
    root = np.where(flo == 0.0, lo, hi)
    done = (flo == 0.0) | (fhi == 0.0)
    if np.any(~done & (flo * fhi > 0.0)):
        raise BracketError("no sign change on some brackets")
    x = 0.5 * (lo + hi)
    for _ in range(tol.max_iter):
        if done.all():
            return root
        # secant proposal, kept only if it lands strictly inside
        denom = fhi - flo
        with np.errstate(divide="ignore", invalid="ignore"):
            xs = hi - fhi * (hi - lo) / denom
        x = np.where((denom != 0.0) & (lo < xs) & (xs < hi), xs, 0.5 * (lo + hi))
        fx = f(x)
        hit = ~done & ((np.abs(fx) <= tol.abs_f) | ((hi - lo) <= tol.abs_x))
        root = np.where(hit, x, root)
        done = done | hit
        width_prev = hi - lo
        lo, flo, hi, fhi = _shrink(~done, lo, flo, hi, fhi, x, fx)
        # guard: forced bisection where the secant barely shrank the bracket
        force = ~done & ((hi - lo) > 0.7 * width_prev)
        if force.any():
            xm = 0.5 * (lo + hi)
            fm = f(xm)
            hit = force & (np.abs(fm) <= tol.abs_f)
            root = np.where(hit, xm, root)
            done = done | hit
            lo, flo, hi, fhi = _shrink(force & ~hit, lo, flo, hi, fhi, xm, fm)
    if done.all():
        return root
    raise ConvergenceError(f"root iteration exhausted {tol.max_iter} steps", last=x)


def _shrink(mask, lo, flo, hi, fhi, x, fx):
    """Move the bracket end that keeps the sign change to x where mask holds."""
    to_hi = mask & (flo * fx < 0.0)
    to_lo = mask & ~(flo * fx < 0.0)
    return (np.where(to_lo, x, lo), np.where(to_lo, fx, flo),
            np.where(to_hi, x, hi), np.where(to_hi, fx, fhi))


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
    return refine_scan(f, xs, np.array([f(float(x)) for x in xs]), tol)


def refine_scan(f: Callable[[float], float], xs, fs,
                tol: Tolerance = DEFAULT_TOL) -> tuple[float, float]:
    """Finish maximize_scalar from a scan evaluated elsewhere.

    xs is the uniform scan grid and fs the values of f there. Refines
    around the best scan point by golden-section search on f and
    compares against both ends of the grid, as maximize_scalar does.
    """
    if not (xs[0] <= xs[-1]):
        raise ValueError("refine_scan needs xs[0] <= xs[-1]")
    return _refine_peak(_golden_max, f, xs, fs, tol)


def _refine_peak(search, f, xs, fs, tol):
    """refine_scan's pick with search(f, a, b, tol) as the refinement.

    The search runs on the scan cells either side of the best scan
    point; its point then competes with both scan ends and that scan
    point.
    """
    i = int(_scan_peak(xs, fs))
    a = float(xs[max(i - 1, 0)])
    b = float(xs[min(i + 1, len(xs) - 1)])
    return _scan_choice(xs, fs, i, *search(f, a, b, tol))


def maximize_rows(f: Callable[[np.ndarray], np.ndarray], lo, hi,
                  tol: Tolerance = DEFAULT_TOL, *, scan_points: int,
                  f_at: Callable[[float], float] | None = None
                  ) -> tuple[np.ndarray, np.ndarray]:
    """maximize_scalar over rows of intervals, in lockstep.

    f maps an (n, k) array of points, row i inside [lo[i], hi[i]], to
    the values there and must act elementwise. Row i of the result
    equals maximize_scalar(f_i, lo[i], hi[i], tol, scan_points) bit for
    bit. Needs lo < hi in every row. With one row and f_at, the row's
    objective at a single point, the golden refinement calls f_at
    through _golden_max, which is cheaper than batches of one.
    """
    lo, hi = np.asarray(lo, float), np.asarray(hi, float)
    if not np.all(lo < hi):
        raise ValueError("maximize_rows needs lo < hi in every row")
    xs = np.linspace(lo, hi, scan_points, axis=-1)
    fs = np.asarray(f(xs), float)
    if lo.size == 1 and f_at is not None:
        x, v = refine_scan(f_at, xs[0], fs[0], tol)
        return np.array([x]), np.array([v])
    rows = np.arange(lo.size)
    i = _scan_peak(xs, fs)
    x_g, f_g = golden_max_rows(lambda x: f(x[:, None])[:, 0],
                               xs[rows, np.maximum(i - 1, 0)],
                               xs[rows, np.minimum(i + 1, scan_points - 1)], tol)
    best = [_scan_choice(xs[r], fs[r], i[r], x_g[r], f_g[r]) for r in rows]
    return np.array([x for x, _ in best]), np.array([v for _, v in best])


def _scan_peak(xs, fs):
    """Index of the best scan point along the last axis.

    Values within 1e-13 relative of the maximum tie, and a tie goes to
    the smallest x.
    """
    top = np.take_along_axis(fs, np.argmax(fs, axis=-1)[..., None], -1)
    tie = np.abs(fs - top) <= 1e-13 * np.maximum(1.0, np.abs(top))
    return np.argmin(np.where(tie, xs, np.inf), axis=-1)


def _scan_choice(xs, fs, i, x_g, f_g):
    """maximize_scalar's pick: both scan ends, scan point i, the golden point."""
    return best_candidate([(float(xs[0]), float(fs[0])),
                           (float(xs[-1]), float(fs[-1])),
                           (float(xs[i]), float(fs[i])),
                           (float(x_g), float(f_g))], 1e-13)


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


def brent_max(f: Callable[[float], float], a: float, b: float,
              tol: Tolerance = DEFAULT_TOL) -> tuple[float, float]:
    """Maximum of f on [a, b] by Brent's method: parabolic steps, golden fallback.

    Brent (1973), Algorithms for Minimization without Derivatives, ch. 5,
    with a purely absolute tolerance: it stops once the best point lies
    within tol.abs_x / 2 of both ends of the bracket, the final width
    _golden_max leaves, and no step from its best point is shorter than
    tol.abs_x / 4. On a smooth peak it needs far fewer evaluations than
    golden section; at a kink it falls back to golden steps. Returns
    (x, f(x)) of the best point evaluated. Raises ConvergenceError
    (carrying .last) after tol.max_iter steps.
    """
    if not (a <= b):
        raise ValueError("brent_max needs a <= b")
    if a == b:
        return a, f(a)
    step = 0.25 * tol.abs_x  # smallest step; the stop needs x within 2 * step of a and b
    x = w = v = a + (1.0 - GOLDEN) * (b - a)
    fx = fw = fv = f(x)
    d = e = 0.0  # last step and the one before it
    for _ in range(tol.max_iter):
        m = 0.5 * (a + b)
        if abs(x - m) <= 2.0 * step - 0.5 * (b - a):
            return x, fx
        parabolic = False
        if abs(e) > step:
            # vertex of the parabola through x, w and v, as an offset p / q from x
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            # accept it when it lands inside and moves less than half the step
            # before last; otherwise take a golden step
            if abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x):
                e, d = d, p / q
                if (x + d) - a < 2.0 * step or b - (x + d) < 2.0 * step:
                    d = math.copysign(step, m - x)
                parabolic = True
        if not parabolic:
            e = (a - x) if x >= m else (b - x)
            d = (1.0 - GOLDEN) * e
        u = x + d if abs(d) >= step else x + math.copysign(step, d)
        fu = f(u)
        if fu >= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu >= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu >= fv or v == x or v == w:
                v, fv = u, fu
    raise ConvergenceError(f"Brent search exhausted {tol.max_iter} steps", last=x)


def golden_max_rows(f: Callable[[np.ndarray], np.ndarray], a, b,
                    tol: Tolerance = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """_golden_max over arrays of intervals [a[i], b[i]], in lockstep.

    f maps an array of points, one per interval, to the values there and
    must act elementwise. Each element takes _golden_max's own steps, so
    element i equals _golden_max(f_i, a[i], b[i], tol) bit for bit.
    """
    a, b = np.array(a, float), np.array(b, float)
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    active = (b - a) > tol.abs_x
    while active.any():
        left = active & (fc >= fd)  # keep [a, d]: old c becomes d
        right = active & ~left  # keep [c, b]: old d becomes c
        b, d, fd, a, c, fc = (np.where(left, d, b), np.where(left, c, d),
                              np.where(left, fc, fd), np.where(right, c, a),
                              np.where(right, d, c), np.where(right, fd, fc))
        c = np.where(left, b - GOLDEN * (b - a), c)
        d = np.where(right, a + GOLDEN * (b - a), d)
        fnew = f(np.where(left, c, d))
        fc = np.where(left, fnew, fc)
        fd = np.where(right, fnew, fd)
        active = (b - a) > tol.abs_x
    x = 0.5 * (a + b)
    return x, f(x)


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
    return float(_simpson(f, lo, hi, panels))


def integrate_rows(f: Callable[[np.ndarray], np.ndarray], lo, hi,
                   panels: int = 512) -> np.ndarray:
    """Composite Simpson integrals over each [lo[i], hi[i]] at once.

    f maps an (n, panels + 1) grid, row i spanning [lo[i], hi[i]], to
    the values there and must act elementwise; a result of any other
    shape raises ValueError. Row i equals integrate() of the same
    integrand bit for bit. Needs lo < hi in every row.
    """
    lo, hi = np.asarray(lo, float), np.asarray(hi, float)
    if not np.all(lo < hi):
        raise ValueError("integrate_rows needs lo < hi in every row")
    return _simpson(f, lo, hi, panels)


def _simpson(f, lo, hi, panels):
    """Simpson's rule on the grid of [lo, hi], for integrate and integrate_rows.

    lo and hi are floats or arrays of interval ends; the grid runs along
    the last axis. Float ends stay Python floats, and getattr reads the
    axis: with 0-d arrays, or with np.ndim, integrate on a 129-point
    grid took up to twice as long.
    """
    if panels < 2 or panels % 2:
        raise ValueError("panels must be even and >= 2")
    xs = np.linspace(lo, hi, panels + 1, axis=getattr(lo, "ndim", 0))
    ys = np.asarray(f(xs), dtype=float)
    if ys.shape != xs.shape:
        raise ValueError(f"integrand returned shape {ys.shape} "
                         f"on a grid of shape {xs.shape}")
    # C order keeps each row's sums in integrate's (pairwise) order
    ys = np.ascontiguousarray(ys)
    h = (hi - lo) / panels
    return (ys[..., 0] + ys[..., -1] + 4.0 * ys[..., 1:-1:2].sum(axis=-1)
            + 2.0 * ys[..., 2:-1:2].sum(axis=-1)) * (h / 3.0)
