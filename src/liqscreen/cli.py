"""Command-line front end: named tables, figure data series, verification.

Every command writes deterministic 6-decimal CSV (or JSON for verify)
so identical configs produce byte-identical artifacts. Exit codes:
0 success, 1 verification failure, 2 usage or config errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import oracle
from .bilateral import (_acceptance, advance_share, binding_slope,
                        closed_form_ell_star, pure_advance_value,
                        pure_contingent_value, solve_mixed, solve_optimal,
                        sweep_R)
from .economy import (benchmark, economy_from_config, financing_cost,
                      load_config, with_tightness)
from .errors import LiqscreenError
from .portfolio import (contagion_derivative, contagion_threshold,
                        independent_cutoff_value, hump_scan,
                        symmetric_cutoff, symmetric_cutoff_iterative,
                        symmetric_portfolio)

R_TABLE = (0.5, 1.0, 2.0, 3.0, 5.0)


@dataclass
class RunConfig:
    """Resolved invocation settings."""

    name: str | None
    config_path: str | None
    out_dir: str
    seed: int = 42

    def __post_init__(self):
        if self.config_path is not None and not os.path.exists(self.config_path):
            raise FileNotFoundError(self.config_path)


def _format_row(values):
    return ",".join(f"{v:.6f}" if isinstance(v, float) else str(v)
                    for v in values)


def _write_csv(path, header, rows):
    lines = [",".join(header)]
    lines += [_format_row(r) for r in rows]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def _config_economy(cfg: RunConfig):
    if cfg.config_path is None:
        return benchmark(v=2, mu0=0.1, K=1.0, R=1.0)
    data = load_config(cfg.config_path)
    econ_block = data.get("economy", data)
    return economy_from_config(econ_block)


def _config_block(cfg: RunConfig, name: str) -> dict:
    if cfg.config_path is None:
        return {}
    return load_config(cfg.config_path).get(name, {})


# ---------------------------------------------------------------------------
# tables


def _table_sensitivity(cfg: RunConfig) -> list[str]:
    header = ["R", "a_star", "ell_star", "beta_star", "phi_share"]
    paths = []
    for v in (2.0, 3.0):
        econ = benchmark(v=v, mu0=0.0, K=1.0, R=1.0)
        rows_raw, _ = sweep_R(econ, R_TABLE)
        rows = [(f"{r['R']:.1f}", float(r["a_star"]), float(r["ell_star"]),
                 float(r["beta_star"]), float(r["phi_share"]))
                for r in rows_raw]
        path = os.path.join(cfg.out_dir, f"table_sensitivity_v{int(v)}.csv")
        paths.append(_write_csv(path, header, rows))
    return paths


def _table_menu(cfg: RunConfig) -> list[str]:
    header = ["v_over_c", "R", "a_share", "beta_star"]
    rows = []
    for ratio in (1.5, 2.0, 3.0):
        econ = benchmark(v=ratio, mu0=0.0, K=1.0, R=1.0)
        for R in R_TABLE:
            e = with_tightness(econ, R)
            a_share = 1.0 - closed_form_ell_star(R)
            beta = advance_share(e, solve_mixed(e))
            rows.append((f"{ratio:g}", f"{R:.1f}", float(a_share), float(beta)))
    path = os.path.join(cfg.out_dir, "table_menu.csv")
    return [_write_csv(path, header, rows)]


def _table_contagion(cfg: RunConfig) -> list[str]:
    header = ["R", "delta_star", "value_reduction", "contagion_share"]
    block = _config_block(cfg, "portfolio")
    delta_ref = float(block.get("delta", 1.2))
    delta_grid = np.linspace(0.0, 2.5, 26)
    rows = []
    for R in R_TABLE:
        econ = benchmark(v=2, mu0=0.0, K=1.0, R=R)
        thr = contagion_threshold(econ)["analytic"]
        port = symmetric_portfolio(R, delta_ref)
        ind = independent_cutoff_value(port)
        scale = max(abs(ind["coupled"]), abs(ind["at_independent"]), 1e-9)
        reduction = (ind["at_independent"] - ind["coupled"]) / scale
        hits = 0
        for dd in delta_grid:
            der = contagion_derivative(symmetric_portfolio(R, float(dd)), 0,
                                       analytic_only=True)
            if der["analytic"] > 0.0:
                hits += 1
        share = hits / len(delta_grid)
        rows.append((f"{R:.1f}", float(thr), float(reduction), float(share)))
    path = os.path.join(cfg.out_dir, "table_contagion.csv")
    return [_write_csv(path, header, rows)]


# ---------------------------------------------------------------------------
# figure data


def _figure_payoff(cfg: RunConfig) -> list[str]:
    econ = benchmark(v=2, mu0=0.0, K=1.0, R=1.0)
    K = econ.working_capital
    m = solve_mixed(econ)
    a_o, b_o = m.contract.advance, m.contract.slope
    phi_o = financing_cost(econ.financing, K - a_o)
    phi_full = financing_cost(econ.financing, K)
    # twice the zero-advance slope that makes the top type's participation bind
    b_cont = 2.0 * binding_slope(econ, 0.0, econ.dist.upper)
    ts = np.linspace(econ.dist.lower, econ.dist.upper, 101)
    columns = (ts, _acceptance(econ, ts, K, 0.0, 0.0, 0.0),  # a = K: no gap
               _acceptance(econ, ts, 0.0, 0.0, b_cont, phi_full),
               _acceptance(econ, ts, a_o, 0.0, b_o, phi_o))
    rows = [tuple(float(x) for x in row) for row in zip(*columns)]
    path = os.path.join(cfg.out_dir, "figure_payoff.csv")
    return [_write_csv(path, ["theta", "U_advance", "U_contingent",
                              "U_optimal"], rows)]


def _figure_advance(cfg: RunConfig) -> list[str]:
    rows = []
    for R in np.arange(0.25, 5.01, 0.25):
        ell = closed_form_ell_star(float(R))
        rows.append((float(R), float(1.0 - ell), float(ell)))
    path = os.path.join(cfg.out_dir, "figure_advance.csv")
    return [_write_csv(path, ["R", "a_star", "ell_star"], rows)]


def _figure_dominance(cfg: RunConfig) -> list[str]:
    econ = benchmark(v=2, mu0=0.0, K=1.0, R=1.0)
    rows = []
    for R in np.arange(0.25, 3.01, 0.25):
        e = with_tightness(econ, float(R))
        rows.append((float(R), float(solve_mixed(e).value),
                     float(pure_advance_value(e)),
                     float(pure_contingent_value(e))))
    path = os.path.join(cfg.out_dir, "figure_dominance.csv")
    return [_write_csv(path, ["R", "W_M", "W_A", "W_C"], rows)]


def _figure_contagion_region(cfg: RunConfig) -> list[str]:
    rows = []
    for R in np.arange(0.5, 3.01, 0.1):
        econ = benchmark(v=2, mu0=0.0, K=1.0, R=float(R))
        thr = contagion_threshold(econ)["analytic"]
        rows.append((float(R), float(thr)))
    path = os.path.join(cfg.out_dir, "figure_contagion_region.csv")
    return [_write_csv(path, ["R", "delta_star"], rows)]


def _figure_hump(cfg: RunConfig) -> list[str]:
    block = _config_block(cfg, "portfolio")
    delta = float(block.get("delta", 1.2))
    grid = np.round(np.arange(0.5, 3.01, 0.1), 10)
    coupled = hump_scan(grid, delta)
    alone = hump_scan(grid, 0.0)
    rows = [(float(r), float(vc), float(va))
            for r, vc, va in zip(grid, coupled["value"], alone["value"])]
    path = os.path.join(cfg.out_dir, "figure_hump.csv")
    return [_write_csv(path, ["R", "value_coupled", "value_independent"],
                       rows)]


# ---------------------------------------------------------------------------
# verification suite


def _check(name, worst, tol, location):
    status = "pass" if worst <= tol else "fail"
    return {"check": name, "status": status,
            "worst_violation": float(worst), "location": location}


def _verify_checks(cfg: RunConfig) -> list[dict]:
    checks = []
    econ_cfg = _config_economy(cfg)

    # solver vs brute-force grid on the configured economy
    sol = solve_optimal(econ_cfg)
    grid = oracle.grid_search_optimal(econ_cfg, na=60, nb=60)
    gap = grid["best_W"] - sol.value
    checks.append(_check("grid_agreement", max(gap, 0.0), 2e-3,
                         "solve_optimal vs 60x60 enumeration"))

    # rent identity on seeded random contracts
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    worst = 0.0
    for _ in range(25):
        a = float(rng.uniform(0.0, econ_cfg.working_capital))
        b1 = float(rng.uniform(0.0, 2.0))
        out = oracle.rent_identity_check(econ_cfg, a, b1)
        worst = max(worst, abs(out["gap"]))
    checks.append(_check("rent_identity", worst, 1e-5, "25 seeded contracts"))

    # solved mechanism is incentive compatible
    e_half = with_tightness(econ_cfg, 0.5)
    m = solve_mixed(e_half)
    mech = oracle.mechanism_from_contract(e_half, m.contract)
    ic = oracle.ic_verify(mech, e_half)
    checks.append(_check("ic_solved_contract", ic["worst_violation"], 1e-9,
                         "solve_mixed at R=0.5"))

    # constructed violation is caught (fixed informative-signal economy)
    bad_econ = benchmark(v=2, mu0=0.1, K=1.0, R=1.0)
    bad = oracle.decreasing_slope_mechanism(bad_econ)
    ic_bad = oracle.ic_verify(bad, bad_econ)
    checks.append(_check("ic_counterexample_caught",
                         0.0 if not ic_bad["ok"] else 1.0, 0.5,
                         str(ic_bad["violating_pair"])))

    # closed-form advance agreement (quadratic benchmark)
    worst = 0.0
    bench = benchmark(v=2, mu0=0.0, K=1.0, R=1.0)
    for R in R_TABLE:
        e = with_tightness(bench, R)
        a_closed = 1.0 - closed_form_ell_star(R)
        a_root = solve_optimal(e).contract.advance
        worst = max(worst, abs(a_closed - a_root))
    checks.append(_check("closed_form_advance", worst, 5e-3,
                         "R in {0.5,1,2,3,5}"))

    # dominance of the mixed contract
    worst = 0.0
    for R in (0.5, 1.0, 2.0):
        e = with_tightness(bench, R)
        wm = solve_mixed(e).value
        shortfall = max(pure_advance_value(e), pure_contingent_value(e)) - wm
        worst = max(worst, shortfall)
    checks.append(_check("mixed_dominance", max(worst, 0.0), 1e-6,
                         "R in {0.5,1,2}"))

    # symmetric fixed point vs closed form
    worst = 0.0
    for delta in (0.1, 0.3, 0.5):
        for b1 in (0.3, 0.6, 0.9):
            t_closed, cl = symmetric_cutoff(0.27, b1, delta)
            if cl != "none":
                continue
            t_iter, _, _ = symmetric_cutoff_iterative(0.27, b1, delta)
            worst = max(worst, abs(t_closed - t_iter))
    checks.append(_check("symmetric_fixed_point", worst, 1e-8,
                         "3x3 (delta, b1) grid"))

    # contagion threshold monotone in R
    prev = -np.inf
    worst = 0.0
    for R in R_TABLE:
        thr = contagion_threshold(benchmark(v=2, mu0=0.0, R=R))["analytic"]
        worst = max(worst, prev - thr)
        prev = thr
    checks.append(_check("threshold_monotone", max(worst, 0.0), 0.0,
                         "delta_star over R grid"))

    # flat-signal corner: no screening slope without an informative signal
    flat = benchmark(v=2, mu0=0.0, K=1.0, R=1.0, signal_kind="flat")
    corner = solve_optimal(flat)
    checks.append(_check("uninformative_corner", abs(corner.contract.slope),
                         1e-9, "flat signal economy"))
    return checks


def cmd_verify(cfg: RunConfig) -> int:
    checks = _verify_checks(cfg)
    ok = all(c["status"] == "pass" for c in checks)
    report = {"all_pass": ok, "checks": checks, "seed": cfg.seed}
    path = os.path.join(cfg.out_dir, "verify_report.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for c in checks:
        print(f"{c['check']}: {c['status']} "
              f"(worst={c['worst_violation']:.3g})")
    print(path)
    if not ok:
        failing = [c["check"] for c in checks if c["status"] != "pass"]
        print("failing checks: " + ", ".join(failing), file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# entry point

_TABLES = {"sensitivity": _table_sensitivity, "menu": _table_menu,
           "contagion": _table_contagion}
_FIGURES = {"payoff": _figure_payoff, "advance": _figure_advance,
            "dominance": _figure_dominance,
            "contagion_region": _figure_contagion_region,
            "hump": _figure_hump}


def _build_parser():
    p = argparse.ArgumentParser(prog="liqscreen",
                                description="Screening-contract experiments")
    p.add_argument("--config", default=None, help="JSON config path")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--seed", type=int, default=42)
    sub = p.add_subparsers(dest="command")
    t = sub.add_parser("table", help="write a named table as CSV")
    t.add_argument("name", choices=sorted(_TABLES))
    f = sub.add_parser("figure", help="write a named figure data series")
    f.add_argument("name", choices=sorted(_FIGURES))
    sub.add_parser("verify", help="run the oracle verification suite")
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        cfg = RunConfig(name=getattr(args, "name", None),
                        config_path=args.config, out_dir=args.out,
                        seed=args.seed)
        os.makedirs(cfg.out_dir, exist_ok=True)
        if args.command == "verify":
            return cmd_verify(cfg)
        runner = (_TABLES if args.command == "table" else _FIGURES)[cfg.name]
        for path in runner(cfg):
            print(path)
        return 0
    except (LiqscreenError, FileNotFoundError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
