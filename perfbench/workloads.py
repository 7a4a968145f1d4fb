"""Seeded workloads: inputs, the timed operations, and their output checks.

Each workload builds one round: a fixed list of ops with a fixed
composition whose inputs come from the seed. The library only ever sees
the generated inputs. Library functions are looked up on their module at
call time, so the tracer's wrappers see every call.

Every check uses a second route to the result and runs outside the timed
region. A failing check names a tag. An op of a documented known-defect
class (see KNOWN_DEFECTS) is expected to fail with that class's tag: it
counts in failed_share but does not make the run incorrect. Any other
failure does.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from liqscreen import bilateral, cli, economy, extensions, oracle, portfolio

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_VERIFY = os.path.join(HERE, "reference", "verify_report_default.json")

# Failure tags that known defects produce, each with its cause. These ops
# stay in the workloads on purpose so the defects show in failed_share.
KNOWN_DEFECTS = {
    "oracle-nonfinite": "power types with exponent < 1 have an infinite density at the "
                        "bottom type; the grid oracle's trapezoid turns non-finite",
    "oracle-empty-set": "with no profitable contract solve_optimal books W = 0 for an empty "
                        "service set while quoting a positive advance; the oracle charges it",
    "dominance": "with a high signal floor mu0 and loose credit, pure_contingent_value "
                 "(screening route) exceeds solve_mixed (actual payment flows)",
    "exit-2": "tabulated financing is accepted at load, then verify exits 2: its checks "
              "need the quadratic family (ROADMAP item 4)",
    "runtime-warning": "power-type configs are not validated at load; verify divides by "
                       "zero and still passes (ROADMAP item 4)",
}


@dataclass
class Op:
    """One timed operation and the check of its output."""

    kind: str
    run: Callable[[], object]
    check: Callable[[object], str | None]  # None when the output passes
    known: str | None = None  # KNOWN_DEFECTS tag this op is expected to fail with


def _u(rng, lo, hi):
    return float(rng.uniform(lo, hi))


# ---------------------------------------------------------------------------
# bilateral_sweep: one dominance row per op


def _dominance_row(econ):
    return {"W_M": bilateral.solve_mixed(econ).value,
            "opt": bilateral.solve_optimal(econ),
            "W_A": bilateral.pure_advance_value(econ),
            "W_C": bilateral.pure_contingent_value(econ)}


def _check_dominance_row(econ, out):
    if out["W_M"] < max(out["W_A"], out["W_C"]) - 1e-9:
        return f"dominance: W_M={out['W_M']:.6g} below max(W_A, W_C)"
    grid = oracle.grid_search_optimal(econ)["best_W"]
    gap = out["opt"].value - grid
    if not math.isfinite(grid):
        return f"oracle-nonfinite: grid value {grid}"
    if abs(gap) > 1e-3:
        tag = "oracle-empty-set" if out["opt"].decomposition["empty_set"] else "oracle"
        return f"{tag}: solve_optimal - grid = {gap:.3g}"
    return None


def _stratified(rng, k, lo, hi):
    """k draws on [lo, hi], one from each of k equal strata, in random order.

    Op costs vary with the inputs; stratified draws give every seed a round
    whose inputs, and so whose total cost, spread alike.
    """
    return [lo + (hi - lo) * (i + rng.uniform()) / k for i in rng.permutation(k)]


def _econs(rng, k, v, mu0, R, s, dist=None, shape=(0.0, 1.0)):
    """k benchmark economies with stratified (v, mu0, R, signal scale, dist shape)."""
    draws = [_stratified(rng, k, *box) for box in (v, mu0, R, s, shape)]
    return [economy.benchmark(v=a, mu0=b, R=c, signal_scale=d,
                              dist=dist(e) if dist else economy.uniform())
            for a, b, c, d, e in zip(*draws)]


def _bilateral_econs(rng, cls, k):
    if cls == "no_contract":
        # tight credit, weak surplus and a low signal floor: no contract pays
        return _econs(rng, k, (1.2, 1.5), (0.0, 0.15), (4.0, 5.0), (0.5, 1.5))
    if cls == "floor_rent":
        # loose credit, a high signal floor and a flat signal slope
        return _econs(rng, k, (2.0, 3.0), (0.22, 0.3), (0.2, 0.4), (0.5, 0.8))
    dist, shape = {"uniform": (None, (0.0, 1.0)),
                   "truncated_exponential": (economy.truncated_exponential, (0.5, 2.5)),
                   # exponents below 1 keep the density positive, as validate_economy asks
                   "power": (economy.power, (0.5, 0.95))}[cls]
    return _econs(rng, k, (2.0, 3.0), (0.0, 0.3), (0.8, 2.0), (0.5, 1.5), dist, shape)


# Three of ten ops belong to a known-defect class: few enough that the
# median and the tail stay on ops that pass.
BILATERAL_ROUND = ["uniform", "truncated_exponential", "power", "uniform", "no_contract",
                   "truncated_exponential", "uniform", "floor_rent", "truncated_exponential",
                   "uniform"]
_BILATERAL_KNOWN = {"power": "oracle-nonfinite", "no_contract": "oracle-empty-set",
                    "floor_rent": "dominance"}


def bilateral_sweep(rng, workdir):
    pools = {cls: iter(_bilateral_econs(rng, cls, BILATERAL_ROUND.count(cls)))
             for cls in dict.fromkeys(BILATERAL_ROUND)}
    ops = []
    for cls in BILATERAL_ROUND:
        econ = next(pools[cls])
        ops.append(Op(f"dominance_row[{cls}]",
                      lambda e=econ: _dominance_row(e),
                      lambda out, e=econ: _check_dominance_row(e, out),
                      _BILATERAL_KNOWN.get(cls)))
    return ops


# ---------------------------------------------------------------------------
# book_scaling: solve_cutoffs on heterogeneous books of fixed sizes

# Most books are small, so the median measures per-call overhead. About
# half the n=2 books end with every type served and cost a quarter of the
# rest, and the n=10 books cost either about 12 or about 20 ms; the count
# in each group moves with the seed. With forty n=10 books the median
# (op 36 of 72) falls well inside their dearer group, where costs are
# close. The tail (ten ops beyond it) falls on the middle of the sixteen
# n=100 books, for the same reason. One n=300 book stays in the round;
# eleven of them, enough to reach the tail, would fill a run with a single
# round, leaving one sample of each op.
BOOK_SIZES = {2: 12, 10: 40, 30: 3, 100: 16, 300: 1}
DELTA_RANGE = (0.1, 2.5)  # the CLI's contagion coupling grid spans [0, 2.5]


def _make_book(rng, Rs, delta):
    n = len(Rs)
    econs = [economy.benchmark(R=R) for R in Rs]
    coupling = np.triu(rng.uniform(0.0, 1.0, (n, n)), 1)
    # mean coupling delta / 2 on every book: at n=2 a second random factor
    # would spread the cost of the small books, and so the median, by seed
    coupling *= 0.5 * delta / coupling[np.triu_indices(n, 1)].mean()
    return portfolio.make_portfolio(econs, coupling=coupling + coupling.T)


def _check_book(port, sol):
    """Re-evaluate the coupled cutoff conditions at the returned cutoffs."""
    x = np.asarray(sol.cutoffs, float)
    tails = np.array([1.0 - float(e.dist.cdf(t)) for e, t in zip(port.economies, x)])
    load = port.coupling @ tails
    for i, (e, c) in enumerate(zip(port.economies, port.contracts)):
        psi = float(bilateral.virtual_surplus(e, float(x[i]), c.advance, c.slope)) + load[i]
        state = sol.clamped[i]
        # find_root stops within 1e-10 of the root, so |psi| stays far below 1e-7
        if state == "none" and abs(psi) > 1e-7:
            return f"coupled-map: interior cutoff {i} leaves residual {psi:.3g}"
        if state == "all_served" and (x[i] != e.dist.lower or psi < -1e-7):
            return f"coupled-map: all_served cutoff {i} is not a lower corner"
        if state == "empty" and (x[i] != e.dist.upper or psi > 1e-7):
            return f"coupled-map: empty cutoff {i} is not an upper corner"
    if sol.total_value != float(np.sum(sol.per_value)):
        return "value-split: total_value != sum(per_value)"
    if not np.all(np.isfinite(sol.centralities)):
        return "centralities: non-finite"
    return None


def book_scaling(rng, workdir):
    deltas = {n: iter(_stratified(rng, k, *DELTA_RANGE)) for n, k in BOOK_SIZES.items()}
    Rs = {n: iter(_stratified(rng, k * n, 0.5, 3.0)) for n, k in BOOK_SIZES.items()}
    sizes = [n for n, k in BOOK_SIZES.items() for _ in range(k)]
    rng.shuffle(sizes)
    # the round starts with the smallest book, which doubles as the warm-up op
    sizes.remove(2)
    sizes.insert(0, 2)
    ops = []
    for n in sizes:
        port = _make_book(rng, [next(Rs[n]) for _ in range(n)], next(deltas[n]))
        ops.append(Op(f"solve_cutoffs[n={n}]",
                      lambda p=port: portfolio.solve_cutoffs(p),
                      lambda sol, p=port: _check_book(p, sol)))
    return ops


# ---------------------------------------------------------------------------
# cli_verify: in-process CLI runs on seeded JSON configs


def _run_cli(argv, artifact):
    """liqscreen.cli.main in-process, with its artifact's bytes and RuntimeWarnings."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    data = None
    if code in (0, 1) and os.path.exists(artifact):
        with open(artifact, "rb") as fh:
            data = fh.read()
    return {"code": code, "stderr": err.getvalue(), "artifact": data,
            "warnings": sum(issubclass(w.category, RuntimeWarning) for w in caught)}


def _check_exit(out):
    if out["code"] not in (0, 1):
        return f"exit-{out['code']}: {out['stderr'].strip()[:120]}"
    if out["warnings"]:
        return f"runtime-warning: {out['warnings']} RuntimeWarnings during the run"
    return None


def _check_verify(out, reference=None):
    bad = _check_exit(out)
    if bad:
        return bad
    report = json.loads(out["artifact"])
    checks = report.get("checks")
    if not isinstance(checks, list) or not checks or not all(
            {"check", "status", "worst_violation", "location"} <= set(c) for c in checks):
        return "report: malformed checks"
    all_pass = all(c["status"] == "pass" for c in checks)
    if report.get("all_pass") is not all_pass or out["code"] != (0 if all_pass else 1):
        return "report: all_pass disagrees with the checks or the exit code"
    if reference is not None:
        with open(reference, "rb") as fh:
            if fh.read() != out["artifact"]:
                return "report: default-config verify_report.json differs from the reference"
    return None


def _check_contagion_table(out):
    bad = _check_exit(out)
    if bad:
        return bad
    lines = out["artifact"].decode().splitlines()
    if lines[0] != "R,delta_star,value_reduction,contagion_share":
        return "table: unexpected header"
    rows = [line.split(",") for line in lines[1:]]
    if [r[0] for r in rows] != [f"{R:.1f}" for R in cli.R_TABLE]:
        return "table: unexpected R column"
    vals = np.array([[float(v) for v in r[1:]] for r in rows])
    if not np.all(np.isfinite(vals)) or np.any(vals[:, 2] < 0) or np.any(vals[:, 2] > 1):
        return "table: non-finite values or contagion_share outside [0, 1]"
    return None


def _econ_config(rng, dist_kind, phi_kind, signal_kind):
    params = {"uniform": {},
              "truncated_exponential": {"rate": _u(rng, 0.5, 2.5)},
              "power": {"exponent": _u(rng, 0.5, 2.5)}}[dist_kind]
    cfg = {"dist": {"kind": dist_kind, "params": params},
           "v": _u(rng, 2.0, 3.0), "K": _u(rng, 0.8, 1.2), "R": _u(rng, 0.5, 3.0),
           "signal": {"kind": signal_kind, "scale": _u(rng, 0.5, 1.5)}}
    cfg["mu0"] = _u(rng, 0.0, 0.3) if signal_kind == "affine" else 0.0
    if phi_kind == "tabulated":
        ell = np.linspace(0.0, 1.5, 7)
        cfg["phi"] = {"kind": "tabulated",
                      "params": {"ell": ell.tolist(),
                                 "phi": (0.5 * _u(rng, 0.5, 3.0) * ell ** 2).tolist()}}
    return {"economy": cfg}


def cli_verify(rng, workdir):
    def op(kind, command, cfg, check, known=None):
        outdir = os.path.join(workdir, f"op{len(ops)}")
        os.makedirs(outdir)
        path = os.path.join(outdir, "config.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        argv = ["--out", outdir, "--seed", str(int(rng.integers(0, 2**31))),
                "--config", path] + command
        artifact = os.path.join(outdir, "verify_report.json" if command == ["verify"]
                                else "table_contagion.csv")
        ops.append(Op(kind, lambda: _run_cli(argv, artifact), check, known))

    ops: list[Op] = []
    # first, as the warm-up op: it runs config loading, the solver and the
    # oracle, then stops early at the known defect
    dist_kind = ("uniform", "truncated_exponential", "power")[int(rng.integers(3))]
    op(f"verify[{dist_kind},tabulated]", ["verify"],
       _econ_config(rng, dist_kind, "tabulated", "affine"), _check_verify, known="exit-2")
    default_dir = os.path.join(workdir, "default")
    ops.append(Op("verify[default]",
                  lambda: _run_cli(["--out", default_dir, "verify"],
                                   os.path.join(default_dir, "verify_report.json")),
                  lambda out: _check_verify(out, REFERENCE_VERIFY)))
    op("table_contagion", ["table", "contagion"],
       {"portfolio": {"delta": _u(rng, *DELTA_RANGE)}}, _check_contagion_table)
    for signal_kind in ("affine", "flat"):
        dist_kind = ("uniform", "truncated_exponential")[int(rng.integers(2))]
        op(f"verify[{dist_kind},{signal_kind}]", ["verify"],
           _econ_config(rng, dist_kind, "quadratic", signal_kind), _check_verify)
    op("verify[power]", ["verify"], _econ_config(rng, "power", "quadratic", "affine"),
       _check_verify, known="runtime-warning")
    return ops


# ---------------------------------------------------------------------------
# extensions_mix: monitoring, auctions, renegotiation, menus, learning


# The monitoring op solves nested root problems whose iteration count, and
# so cost (5 to 8 s), jumps with the economy, and it takes most of the
# round. It uses this fixed case (v, mu0, R, kappa0) so the seed moves
# only the cheaper ops.
MONITORING_CASE = (2.5, 0.1, 1.0, 0.06)


def _check_monitoring(econ, cfg, out):
    if out["corner"]:
        return None if out["foc_residual"] <= 0.0 else "monitoring: corner with positive FOC gap"
    sigma = out["sigma_star"]
    if not 0.0 < sigma < cfg.sigma_max:
        return f"monitoring: sigma_star={sigma:.6g} outside (0, sigma_max)"
    # the root solve stops at |gap| <= 1e-8 or at a bracket narrower than 1e-7;
    # in the second case the FOC gap must change sign within 1e-7 of sigma_star
    if abs(out["foc_residual"]) > 1e-8:
        lo = extensions._monitoring_gap(econ, cfg, max(sigma - 1e-7, 0.0))
        hi = extensions._monitoring_gap(econ, cfg, sigma + 1e-7)
        if lo * hi > 0.0:
            return f"monitoring: FOC residual {out['foc_residual']:.3g} and no sign change"
    return None


def _check_bids(bf):
    if not (np.all(np.isfinite(bf.bids)) and bf.bids[-1] == bf.full_info[-1]):
        return "bids: non-finite or top boundary condition broken"
    if np.any(bf.bids < bf.full_info - 1e-9):
        return "bids: below the full-information advance"
    return None


def _check_renegotiation(econ, lam, sol):
    c = sol.contract
    if c.slope > 0.0:
        lo = econ.dist.lower
        gap = (c.advance + (1.0 - lam) * c.slope * float(econ.signal_mean(lo))
               - float(econ.cost(lo))
               - economy.financing_cost(econ.financing, econ.working_capital - c.advance))
        if abs(gap) > 1e-9:
            return f"renegotiation: lowest type's participation off by {gap:.3g}"
    d = sol.decomposition
    w = (d["productive_surplus"] - d["aggregate_financing_cost"]
         - d["aggregate_information_rent"] - d["advance_outlay"])
    if not math.isfinite(sol.value) or abs(w - sol.value) > 1e-12:
        return "renegotiation: value does not match its decomposition"
    return None


def _check_menu(out):
    if not out["ic_ok"]:
        return "menu: incentive check fails on the argmax menu"
    if out["menu_value"] < out["baseline_value"] - 1e-12:
        return "menu: best menu below the single-instrument baseline"
    return None


def _check_path(econ, horizon, recs):
    if len(recs) != horizon + 1:
        return "path: wrong length"
    for r in recs:
        if abs(float(np.sum(r.posterior.weights)) - 1.0) > 1e-12 or not math.isfinite(r.d_stat):
            return f"path: bad posterior at t={r.t}"
        if not -1e-12 <= r.contract.advance <= econ.working_capital + 1e-12:
            return f"path: advance outside [0, K] at t={r.t}"
    return None


# One monitoring solve among cheap ops. Renegotiation solves cost about
# the same on every economy (45-65 ms); bid solves cost 65-290 ms and menu
# checks about 100 ms, by economy. With twenty renegotiations against five
# dearer ops, the median and the tail (ten ops beyond it) both fall well
# inside the renegotiations, even when a bid solve is cheap. The round
# starts with a renegotiation, which doubles as the warm-up op, so set-up
# time does not jump with the first bid solve's economy.
EXTENSION_ROUND = (["renegotiation"] * 3 + ["bid"] + ["renegotiation"] * 3 + ["menu"]
                   + ["renegotiation"] * 4 + ["path"]) * 2 + ["monitoring"]


def extensions_mix(rng, workdir):
    k = {kind: EXTENSION_ROUND.count(kind) for kind in EXTENSION_ROUND}
    econs = {kind: iter(_econs(rng, n, (2.0, 3.0), (0.0, 0.2), (0.75, 1.5), (0.8, 1.2)))
             for kind, n in k.items()}
    bidders = iter(int(x) for x in _stratified(rng, k["bid"], 2, 9))
    lams = iter(_stratified(rng, k["renegotiation"], 0.0, 0.9))
    thetas = iter(_stratified(rng, k["path"], 0.1, 0.9))
    ops = []
    for kind in EXTENSION_ROUND:
        econ = next(econs[kind])
        if kind == "monitoring":
            v, mu0, R, kappa0 = MONITORING_CASE
            econ = economy.benchmark(v=v, mu0=mu0, R=R)
            cfg = extensions.MonitoringConfig(kappa0=kappa0)
            ops.append(Op(kind, lambda e=econ, c=cfg: extensions.solve_monitoring(e, c),
                          lambda out, e=econ, c=cfg: _check_monitoring(e, c, out)))
        elif kind == "bid":
            n = next(bidders)
            ops.append(Op(kind, lambda e=econ, n=n: extensions.solve_bid_function(e, n),
                          _check_bids))
        elif kind == "renegotiation":
            lam = next(lams)
            ops.append(Op(kind, lambda e=econ, lam=lam: extensions.solve_renegotiation(e, lam),
                          lambda sol, e=econ, lam=lam: _check_renegotiation(e, lam, sol)))
        elif kind == "menu":
            ops.append(Op(kind, lambda e=econ: extensions.menu_equivalence_check(e),
                          _check_menu))
        else:
            theta, horizon = next(thetas), int(rng.integers(20, 41))
            path_seed = int(rng.integers(0, 2**31))
            ops.append(Op(kind, lambda e=econ, t=theta, h=horizon, s=path_seed:
                          extensions.dynamic_path(e, t, h, s),
                          lambda recs, e=econ, h=horizon: _check_path(e, h, recs)))
    return ops


WORKLOADS = {
    "bilateral_sweep": bilateral_sweep,
    "book_scaling": book_scaling,
    "cli_verify": cli_verify,
    "extensions_mix": extensions_mix,
}


def build(name: str, seed: int, workdir: str) -> list[Op]:
    """The workload's round of ops; the same seed gives the same inputs."""
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(name)])
    os.makedirs(workdir, exist_ok=True)
    return WORKLOADS[name](rng, workdir)
