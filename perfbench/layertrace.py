"""Per-layer tracing for the benchmark, applied from outside the package.

`Tracer.install()` replaces every public function of every liqscreen
module with a wrapper that records a span (name, parent, self time) and
the counts the per-layer metrics need. A wrapper only on the defining
module would miss most calls, because each layer imports the names it
uses (`bilateral.find_root`, `portfolio.fixed_point`,
`extensions.solve_mixed`, ...), so the wrapper is bound at every module
attribute that holds the original function. Economies built through
`economy.benchmark` -- including those the library builds itself in
`symmetric_portfolio` and `economy_from_config` -- get counting wrappers
on their primitive callables. `uninstall()` restores every binding.

Spans are aggregated as they close (calls and self time per function and
per layer) rather than stored one by one: a single traced op makes up to
a million primitive calls. Nothing under `src/` is modified.
"""

from __future__ import annotations

import dataclasses
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = {
    "liqscreen.numerics": "numerics",
    "liqscreen._kernels_py": "numerics",
    "liqscreen._kernels": "numerics",
    "liqscreen.economy": "economy",
    "liqscreen.bilateral": "bilateral",
    "liqscreen.portfolio": "portfolio",
    "liqscreen.extensions": "extensions",
    "liqscreen.oracle": "oracle",
    "liqscreen.cli": "cli",
}
KERNEL_MODULES = ("liqscreen._kernels_py", "liqscreen._kernels")

# numerics entry points whose first argument is the callable they iterate on
_EVAL_COUNTERS = {"numerics.find_root": "evals", "numerics.maximize_scalar": "evals",
                  "numerics.fixed_point": "iters"}
_PRIMITIVES = ("surplus", "cost", "signal_mean", "cost_prime", "signal_mean_prime")
# parents a nested call is attributed to, by metric
_BY_PARENT = {"bilateral.solve_optimal": ("bilateral.solve_mixed",),
              "portfolio.contagion_derivative": ("portfolio.contagion_threshold",)}


class Tracer:
    """Span and count collector; inactive until `active` is set."""

    def __init__(self):
        self.active = False
        self.counts: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.stack: list[list] = []  # [name, child_seconds] per open span
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def _enter(self, name):
        frame = [name, 0.0]
        self.stack.append(frame)
        return frame

    def _exit(self, frame, layer, name, t0):
        dur = perf_counter() - t0
        self.stack.pop()
        own = dur - frame[1]
        self.self_s[name] += own
        self.self_s[layer] += own
        if self.stack:
            self.stack[-1][1] += dur

    def _parent(self):
        return self.stack[-1][0] if self.stack else None

    def _on_call(self, name, args):
        counts = self.counts
        counts[name + ".calls"] += 1
        parent = self._parent()
        if name in _BY_PARENT:
            if parent is None:
                by = "bench"
            elif parent in _BY_PARENT[name]:
                by = parent.split(".", 1)[1]
            elif parent.split(".", 1)[0] in ("cli", "extensions"):
                by = parent.split(".", 1)[0]
            else:
                by = "other"
            counts[f"{name}.calls.by_{by}"] += 1
        if name == "economy.economy_from_config" and parent and parent.startswith("cli."):
            counts["cli.economy_from_config.calls"] += 1
        elif name == "portfolio.solve_cutoffs":
            counts["portfolio.relationships_solved"] += len(args[0].economies)
        elif name == "bilateral.solve_mixed":
            if any(f[0] == "extensions.solve_monitoring" for f in self.stack):
                counts["extensions.solve_monitoring.solve_mixed_calls"] += 1

    def _counted(self, name, key, fn):
        """Wrap an iterated callable so each evaluation adds to `name.key`."""
        counts = self.counts
        metric = f"{name}.{key}"

        def inner(*args, **kwargs):
            counts[metric] += 1
            return fn(*args, **kwargs)
        return inner

    def _integrand(self, fn):
        """Count the points an integrand is evaluated at, and pointwise use."""
        counts = self.counts
        state = {"pointwise": False}

        def inner(x):
            out = fn(x)
            if isinstance(x, np.ndarray) and x.ndim:
                if np.shape(out) == x.shape:
                    counts["numerics.integrate.points"] += x.size
            else:
                counts["numerics.integrate.points"] += 1
                if not state["pointwise"]:
                    state["pointwise"] = True
                    counts["numerics.integrate.pointwise_calls"] += 1
            return out
        return inner

    def span(self, layer, name, fn):
        """Wrapper recording a span around `fn` while the tracer is active."""
        tracer = self
        eval_key = _EVAL_COUNTERS.get(name)
        is_integrate = name == "numerics.integrate"
        is_benchmark = name == "economy.benchmark"

        def wrapper(*args, **kwargs):
            if is_benchmark:
                return tracer.instrument(tracer._call(layer, name, fn, args, kwargs))
            if tracer.active:
                if eval_key is not None:
                    args = (tracer._counted(name, eval_key, args[0]),) + args[1:]
                elif is_integrate:
                    args = (tracer._integrand(args[0]),) + args[1:]
            return tracer._call(layer, name, fn, args, kwargs)
        return wrapper

    def _call(self, layer, name, fn, args, kwargs):
        if not self.active:
            return fn(*args, **kwargs)
        self._on_call(name, args)
        frame = self._enter(name)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception:
            if layer == "numerics":
                self.counts["numerics.failed"] += 1
            raise
        finally:
            self._exit(frame, layer, name, t0)

    # -- economy primitives ---------------------------------------------------

    def _primitive(self, fn):
        if fn is None or getattr(fn, "_perfbench_primitive", False):
            return fn
        tracer = self
        counts = self.counts

        def wrapper(t, *rest):
            if not tracer.active:
                return fn(t, *rest)
            if isinstance(t, np.ndarray) and t.ndim:
                counts["economy.primitive.array_calls"] += 1
                counts["economy.primitive.points"] += t.size
            else:
                counts["economy.primitive.scalar_calls"] += 1
                counts["economy.primitive.points"] += 1
            frame = tracer._enter("economy.primitive")
            t0 = perf_counter()
            try:
                return fn(t, *rest)
            finally:
                tracer._exit(frame, "economy", "economy.primitive", t0)
        wrapper._perfbench_primitive = True
        return wrapper

    def instrument(self, econ):
        """Copy of an economy whose primitives count their evaluations."""
        d = econ.dist
        dist = dataclasses.replace(d, cdf=self._primitive(d.cdf), pdf=self._primitive(d.pdf))
        fields = {k: self._primitive(getattr(econ, k)) for k in _PRIMITIVES}
        return dataclasses.replace(econ, dist=dist, **fields)

    # -- installation -----------------------------------------------------------

    def _patch(self, obj, attr, value):
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def install(self):
        """Bind span wrappers at every liqscreen import site."""
        modules = {n: m for n, m in sys.modules.items()
                   if (n == "liqscreen" or n.startswith("liqscreen.")) and m is not None}
        wrapped = {}
        for mod_name, layer in LAYERS.items():
            mod = modules.get(mod_name)
            if mod is None:
                continue
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not callable(fn) or isinstance(fn, type):
                    continue
                if getattr(fn, "__module__", mod_name) != mod_name:
                    continue
                name = ("numerics.kernels" if mod_name in KERNEL_MODULES
                        else f"{layer}.{attr}")
                wrapped[id(fn)] = (fn, self.span(layer, name, fn))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, attr, hit[1])
        self._patch(np.linalg, "solve", self._linalg_solve(np.linalg.solve))

    def _linalg_solve(self, fn):
        tracer = self

        def solve(*args, **kwargs):
            if tracer.active and (tracer._parent() or "").startswith("portfolio."):
                tracer.counts["portfolio.linalg_solve.calls"] += 1
            return fn(*args, **kwargs)
        return solve

    def uninstall(self):
        while self._patches:
            obj, attr, value = self._patches.pop()
            setattr(obj, attr, value)
        self.active = False

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def metric(self, name: str) -> float:
        """Value of one per-layer metric name (self times end in `.self_s`)."""
        if name.endswith(".self_s"):
            return float(self.self_s.get(name[: -len(".self_s")], 0.0))
        return int(self.counts.get(name, 0))


# Per-layer metrics reported by a traced run, with their units.
PER_LAYER = [(name, "s" if name.endswith("self_s") else "count") for name in (
    "economy.primitive.scalar_calls", "economy.primitive.array_calls",
    "economy.primitive.points", "economy.financing_cost.calls", "economy.self_s",
    "numerics.find_root.calls", "numerics.find_root.evals", "numerics.find_root.self_s",
    "numerics.maximize_scalar.calls", "numerics.maximize_scalar.evals",
    "numerics.maximize_scalar.self_s",
    "numerics.fixed_point.calls", "numerics.fixed_point.iters", "numerics.fixed_point.self_s",
    "numerics.integrate.calls", "numerics.integrate.points",
    "numerics.integrate.pointwise_calls", "numerics.integrate.self_s",
    "numerics.kernels.self_s", "numerics.failed",
    "bilateral.solve_mixed.calls", "bilateral.solve_mixed.self_s",
    "bilateral.solve_optimal.calls", "bilateral.solve_optimal.self_s",
    "bilateral.solve_optimal.calls.by_solve_mixed", "bilateral.solve_optimal.calls.by_extensions",
    "bilateral.solve_optimal.calls.by_cli", "bilateral.solve_optimal.calls.by_bench",
    "bilateral.contract_value.calls", "bilateral.served_interval.calls",
    "bilateral.principal_value.calls", "bilateral.cutoff.calls",
    "bilateral.binding_ir_advance.calls", "bilateral.self_s",
    "portfolio.solve_cutoffs.calls", "portfolio.solve_cutoffs.self_s",
    "portfolio.relationships_solved", "portfolio.linalg_solve.calls",
    "portfolio.contagion_threshold.calls", "portfolio.contagion_threshold.self_s",
    "portfolio.contagion_derivative.calls",
    "portfolio.contagion_derivative.calls.by_contagion_threshold",
    "portfolio.contagion_derivative.calls.by_cli",
    "portfolio.self_s",
    "extensions.solve_monitoring.self_s", "extensions.solve_monitoring.solve_mixed_calls",
    "extensions.solve_bid_function.self_s", "extensions.menu_equivalence_check.self_s",
    "extensions.self_s",
    "oracle.grid_search_optimal.self_s", "oracle.rent_identity_check.calls", "oracle.self_s",
    "cli.main.calls", "cli.economy_from_config.calls", "cli.self_s",
)] + [("trace.overhead_ratio", "ratio")]
