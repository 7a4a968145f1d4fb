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
_TIE = 1e-12  # relative band within which best_candidate's candidates tie
_ARANGES: dict[int, np.ndarray] = {}  # np.arange(n) of each grid size n, for grid


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
              tol: Tolerance = DEFAULT_TOL,
              ends: tuple[float, float] | None = None) -> float:
    """Root of f on bracket: bisection with a secant acceleration step.

    Requires a sign change over the bracket (an exact zero at either
    endpoint counts). Raises BracketError otherwise and ConvergenceError
    (carrying .last) if the iteration budget runs out. ends is
    (f(lo), f(hi)) when the caller already holds them; f is then not
    called at either end, and the values are trusted as given.

    The value roots (participation, cutoff, served set, crossing,
    monitoring and book cutoffs) stay on this step, though
    _false_position needs fewer evaluations: their last digits are
    pinned by the closed_form_advance gap in both reference copies of
    verify_report.json and by the menu check's pins, so they move over
    once those references can be regenerated with them.
    """
    lo, hi = bracket.lo, bracket.hi
    flo, fhi = (f(lo), f(hi)) if ends is None else ends
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


def _false_position(f: Callable[[float], float], bracket: Bracket,
                    ends: tuple[float, float], tol: Tolerance = DEFAULT_TOL) -> float:
    """Root of f on bracket by false position with the Illinois step.

    find_root's contract with the end values (f(lo), f(hi)) given: an
    exact zero at an end is that end, no sign change raises
    BracketError, and a spent budget ConvergenceError (carrying .last).
    Each step is the false-position point, or the midpoint when that
    point is not strictly inside; when the same end is kept twice in a
    row its stored value is halved (Dowell and Jarratt 1971, BIT 11),
    so that end cannot stall the bracket as plain false position does.
    It returns once |f| <= abs_f, or once the bracket it stepped in was
    no wider than abs_x; on a jump of f the bracket closes in on it.
    """
    lo, hi = bracket.lo, bracket.hi
    flo, fhi = ends
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise BracketError(f"no sign change on [{lo}, {hi}]: f={flo:.3g},{fhi:.3g}")
    kept = None  # the end the last step kept: "lo", "hi" or None
    for _ in range(tol.max_iter):
        x = hi - fhi * (hi - lo) / (fhi - flo)
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
        fx = f(x)
        if abs(fx) <= tol.abs_f or (hi - lo) <= tol.abs_x:
            return x
        if flo * fx < 0.0:
            hi, fhi = x, fx
            if kept == "lo":
                flo *= 0.5
            kept = "lo"
        else:
            lo, flo = x, fx
            if kept == "hi":
                fhi *= 0.5
            kept = "hi"
    raise ConvergenceError(f"root iteration exhausted {tol.max_iter} steps", last=x)


def maximize_on_pieces(f: Callable[[float], float],
                       slope: Callable[[list[float]], list[float | None]],
                       kinks: list[float], points: int) -> tuple[float, float]:
    """Maximum of f on [kinks[0], kinks[-1]], where f is smooth between kinks.

    kinks is sorted. slope maps a list of points to the list of f's
    derivatives there, inside a piece; None marks a point where f rests
    at a floor it can only rise from, which counts as rising. On each
    piece the scan reads points points from end to end, the ends
    stepped _NUDGE of the whole span inside the piece, past the error
    of a kink's own root. slope is called once with every scan point
    but the last, and once more with the last only when the point
    before it rises. Each fall from + to - between neighbouring scan
    points brackets a local maximum, and _false_position lands on it,
    or on a jump of the derivative, from the two scan values it holds;
    it calls slope with one point at a time. The kinks, then those
    roots, are priced by f and compete through best_candidate, so a tie
    goes to the smaller x. points >= 2. Returns (x, f(x)).
    """
    rises = {}

    def scan(xs):
        new = [x for x in dict.fromkeys(xs) if x not in rises]
        if new:
            for x, s in zip(new, slope(new)):
                rises[x] = 1.0 if s is None else s

    def rise(x):
        if x not in rises:
            scan([x])
        return rises[x]

    h = _NUDGE * (kinks[-1] - kinks[0])
    roots = []
    for lo, hi in zip(kinks[:-1], kinks[1:]):
        lo, hi = lo + h, hi - h
        if not lo < hi:
            continue
        xs = grid(lo, hi, points).tolist()
        scan(xs[:-1])
        if rises[xs[-2]] > 0.0:
            scan(xs[-1:])
        for x0, x1 in zip(xs[:-1], xs[1:]):
            if rise(x0) > 0.0 and rise(x1) < 0.0:
                ends = rises[x0], rises[x1]
                roots.append(_false_position(rise, Bracket(x0, x1), ends))
    return best_candidate([(x, f(x)) for x in kinks + roots])


def best_candidate(candidates) -> tuple[float, float]:
    """Best (x, f) pair of a list whose first entry is the incumbent.

    A later pair replaces the running best when its f is higher by more
    than _TIE * max(1, |best f|), or when it lies within that band
    and has a smaller x. Ties within tolerance are not transitive, so
    the result depends on the order of the list.
    """
    best_x, best_f = candidates[0]
    for x, fx in candidates[1:]:
        band = _TIE * max(1.0, abs(best_f))
        if fx > best_f + band:
            best_x, best_f = x, fx
        elif abs(fx - best_f) <= band and x < best_x:
            best_x, best_f = x, fx
    return best_x, best_f


def fixed_point(g: Callable[..., np.ndarray], x0,
                tol: Tolerance = DEFAULT_TOL):
    """Damped fixed point of x <- g(x) on each row of a 2-d start.

    Each step moves halfway: x <- x + 0.5 * (g(x) - x). Each row is one
    lane and iterates until its own residual, the sup norm of g(x) - x
    at the returned point, is at most abs_f: g is called as
    g(x[rows], rows) with the rows still open and their indices, and
    returns their images, so a converged row is not passed again.
    Returns (x, residuals, iterations) with one entry per row. Raises
    ConvergenceError (with .last) when max_iter is hit while any row is
    still open.
    """
    xs = np.array(x0, dtype=float)
    if xs.ndim != 2:
        raise ValueError(f"fixed_point needs a 2-d start, one lane per row, "
                         f"got shape {xs.shape}")
    x = xs  # the open rows, whose indices are rows
    residuals = np.zeros(len(xs))
    iterations = np.zeros(len(xs), dtype=int)
    rows = np.arange(len(xs))
    for it in range(1, tol.max_iter + 1):
        gx = np.asarray(g(x, rows), float)
        r = np.max(np.abs(gx - x), axis=1)
        done = r <= tol.abs_f
        if done.any():
            hit = rows[done]
            xs[hit], residuals[hit], iterations[hit] = gx[done], r[done], it
            if done.all():
                return xs, residuals, iterations
            rows, x, gx = rows[~done], x[~done], gx[~done]
        x = x + 0.5 * (gx - x)
    xs[rows] = x
    raise ConvergenceError(
        f"fixed point not converged in {tol.max_iter} iterations "
        f"(residual {float(np.max(r)):.3g})", last=xs)


def integrate(f: Callable, lo, hi: float, panels: int = 512):
    """Composite Simpson integral of f over [lo, hi].

    panels must be even. f is called once with the full numpy grid and
    must return one value per grid point; any other shape raises
    ValueError. lo may also be a 1-d numpy array of lower limits: the
    grid then has one row per limit below hi, f is called once on it,
    and the integrals come back as an array, 0 where a limit is hi. Each
    row is summed on its own, as a 1-d row, so each integral is bit for
    bit the one a call with that limit alone returns.
    """
    if not isinstance(lo, np.ndarray):
        if hi < lo:
            raise ValueError("integrate needs lo <= hi")
        if hi == lo:
            return 0.0
        _check_panels(panels)
        return float(_simpson(_values(f, grid(lo, hi, panels + 1)), (hi - lo) / panels))
    lows = lo.astype(float)
    if np.any(hi < lows):
        raise ValueError("integrate needs lo <= hi")
    out = np.zeros(lows.shape)
    live = lows < hi
    if live.any():
        _check_panels(panels)
        lows = lows[live]
        rows = _values(f, grid(lows, hi, panels + 1))
        out[live] = [_simpson(y, h) for y, h in zip(rows, ((hi - lows) / panels).tolist())]
    return out


def _check_panels(panels):
    if panels < 2 or panels % 2:
        raise ValueError("panels must be even and >= 2")


def _values(f, xs):
    """f on the grid xs, which must give one value per grid point."""
    ys = np.asarray(f(xs), dtype=float)
    if ys.shape != xs.shape:
        raise ValueError(f"integrand returned shape {ys.shape} "
                         f"on a grid of shape {xs.shape}")
    return ys


def _simpson(y, h):
    """Composite Simpson sum of the 1-d row y of values spaced h apart."""
    return (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum()) * (h / 3.0)


def grid(lo, hi, n: int) -> np.ndarray:
    """np.linspace(lo, hi, n), one row per lower end, on a cached np.arange(n).

    lo is a float, or a 1-d numpy array of lower ends, one row each; hi
    is a float, or an array of the same length. numpy's own arithmetic:
    the arange times the step (hi - lo) / (n - 1), plus lo, with the
    last point set to hi. Equal to np.linspace bit for bit unless the
    step of a nonzero span underflows to 0. n >= 2.
    """
    steps = _ARANGES.get(n)
    if steps is None:
        steps = _ARANGES[n] = np.arange(n, dtype=float)
        steps.flags.writeable = False  # shared by every caller
    if isinstance(lo, np.ndarray):
        lo, hi = lo[:, None], np.asarray(hi, dtype=float)[..., None]
    xs = steps * ((hi - lo) / (n - 1)) + lo
    xs[..., -1:] = hi
    return xs
