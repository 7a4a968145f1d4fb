"""Command-line front end: tables, figures, verification, exit codes."""

import csv
import filecmp
import json
from pathlib import Path

import pytest

from liqscreen import portfolio
from liqscreen.cli import R_TABLE, main
from liqscreen.portfolio import independent_cutoff_value, symmetric_portfolio

# default-config (seed 42) artifacts; every command must keep writing these bytes
REFERENCE = Path(__file__).parent / "reference" / "cli"
# table contagion under other couplings: table_contagion_delta_<delta>.csv
CONTAGION = Path(__file__).parent / "reference" / "contagion"


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _assert_reference_bytes(path):
    assert path.read_bytes() == (REFERENCE / path.name).read_bytes(), \
        f"{path.name} differs from tests/reference/cli/{path.name}"


def test_no_command_is_usage_error(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_names_are_usage_errors(tmp_path):
    assert main(["--out", str(tmp_path), "table", "nonsense"]) == 2
    assert main(["--out", str(tmp_path), "figure", "nonsense"]) == 2


def test_removed_override_flags_are_usage_errors(tmp_path):
    assert main(["--grid", "5", "--out", str(tmp_path), "verify"]) == 2
    assert main(["--tol", "1e-3", "--out", str(tmp_path), "verify"]) == 2


def test_missing_config_is_usage_error(tmp_path, capsys):
    code = main(["--config", str(tmp_path / "gone.json"),
                 "--out", str(tmp_path), "verify"])
    assert code == 2
    assert capsys.readouterr().err


def test_corrupted_config_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert main(["--config", str(bad), "--out", str(tmp_path), "verify"]) == 2


def test_sensitivity_table_reproduces_advance_column(tmp_path):
    assert main(["--out", str(tmp_path), "table", "sensitivity"]) == 0
    rows = _rows(tmp_path / "table_sensitivity_v2.csv")
    advances = [float(r["a_star"]) for r in rows]
    for got, cell in zip(advances, (0.17, 0.27, 0.38, 0.45, 0.54)):
        assert abs(got - cell) <= 0.005
    # both surplus panels share the advance column
    rows3 = _rows(tmp_path / "table_sensitivity_v3.csv")
    for r2, r3 in zip(rows, rows3):
        assert r2["a_star"] == r3["a_star"]
    for v in (2, 3):
        _assert_reference_bytes(tmp_path / f"table_sensitivity_v{v}.csv")


def test_menu_table_advance_share_depends_only_on_tightness(tmp_path):
    assert main(["--out", str(tmp_path), "table", "menu"]) == 0
    rows = _rows(tmp_path / "table_menu.csv")
    by_R = {}
    for r in rows:
        by_R.setdefault(r["R"], set()).add(r["a_share"])
    assert by_R
    for shares in by_R.values():
        assert len(shares) == 1, by_R
    _assert_reference_bytes(tmp_path / "table_menu.csv")


def test_contagion_table_threshold_increases(tmp_path):
    assert main(["--out", str(tmp_path), "table", "contagion"]) == 0
    rows = _rows(tmp_path / "table_contagion.csv")
    thr = [float(r["delta_star"]) for r in rows]
    assert all(b > a for a, b in zip(thr, thr[1:])), thr
    _assert_reference_bytes(tmp_path / "table_contagion.csv")


def test_contagion_table_value_reduction_is_the_books_relative_loss(tmp_path):
    cfg = tmp_path / "portfolio.json"
    cfg.write_text(json.dumps({"portfolio": {"delta": 0.6}}))
    assert main(["--config", str(cfg), "--out", str(tmp_path),
                 "table", "contagion"]) == 0
    rows = _rows(tmp_path / "table_contagion.csv")
    assert [r["R"] for r in rows] == [f"{R:.1f}" for R in R_TABLE]
    for R, row in zip(R_TABLE, rows):
        loss = independent_cutoff_value(symmetric_portfolio(R, 0.6))["relative_loss"]
        assert row["value_reduction"] == f"{loss:.6f}", R


@pytest.mark.parametrize("delta", ["0.1", "0.6", "2.5"])
def test_contagion_table_keeps_its_bytes_under_other_couplings(tmp_path, delta):
    # the benchmark's configs draw delta from [0.1, 2.5]; each table's
    # 26-coupling share and its value reduction are pinned at three of them
    cfg = tmp_path / "portfolio.json"
    cfg.write_text(json.dumps({"portfolio": {"delta": float(delta)}}))
    assert main(["--config", str(cfg), "--out", str(tmp_path),
                 "table", "contagion"]) == 0
    ref = CONTAGION / f"table_contagion_delta_{delta}.csv"
    assert (tmp_path / "table_contagion.csv").read_bytes() == ref.read_bytes(), \
        f"table_contagion.csv at delta = {delta} differs from {ref.name}"


@pytest.mark.parametrize("command, roots", [("table contagion", len(R_TABLE)),
                                            ("figure hump", 26)])
def test_book_commands_calibrate_one_contract_per_tightness(tmp_path, monkeypatch,
                                                            command, roots):
    # each tightness's two-copy book is calibrated once and every
    # statistic reads it: 15 and 52 participation roots when each
    # statistic calibrated its own
    calls = []
    real = portfolio.binding_ir_advance

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(portfolio, "binding_ir_advance", counted)
    assert main(["--out", str(tmp_path)] + command.split()) == 0
    assert len(calls) == roots


def test_advance_figure_passes_through_anchor(tmp_path):
    assert main(["--out", str(tmp_path), "figure", "advance"]) == 0
    rows = _rows(tmp_path / "figure_advance.csv")
    at_one = [r for r in rows if abs(float(r["R"]) - 1.0) < 1e-9]
    assert len(at_one) == 1
    assert abs(float(at_one[0]["a_star"]) - 0.267949) < 5e-4
    _assert_reference_bytes(tmp_path / "figure_advance.csv")


def test_dominance_figure_advance_value_constant(tmp_path):
    assert main(["--out", str(tmp_path), "figure", "dominance"]) == 0
    rows = _rows(tmp_path / "figure_dominance.csv")
    w_a = {r["W_A"] for r in rows}
    assert w_a == {"0.250000"}
    for r in rows:
        assert float(r["W_M"]) >= max(float(r["W_A"]), float(r["W_C"])) - 1e-6
    _assert_reference_bytes(tmp_path / "figure_dominance.csv")


def test_remaining_figures_emit(tmp_path):
    for name in ("payoff", "contagion_region", "hump"):
        assert main(["--out", str(tmp_path), "figure", name]) == 0
        _assert_reference_bytes(tmp_path / f"figure_{name}.csv")


def test_csv_outputs_byte_identical_across_runs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["--out", str(out), "table", "sensitivity"]) == 0
    assert filecmp.cmp(a / "table_sensitivity_v2.csv",
                       b / "table_sensitivity_v2.csv", shallow=False)
    _assert_reference_bytes(a / "table_sensitivity_v2.csv")


def test_verify_default_config_passes(tmp_path):
    assert main(["--out", str(tmp_path), "verify"]) == 0
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert report["all_pass"]
    assert report["seed"] == 42
    names = {c["check"] for c in report["checks"]}
    assert {"grid_agreement", "rent_identity", "ic_solved_contract",
            "ic_counterexample_caught", "uninformative_corner"} <= names
    for check in report["checks"]:
        assert check["status"] == "pass", check
    _assert_reference_bytes(tmp_path / "verify_report.json")


def test_default_verify_report_copies_stay_byte_equal():
    # the benchmark's cli_verify workload checks verify[default] against its
    # own copy; regenerating one copy alone would fail only there
    bench_copy = (Path(__file__).parents[1] / "perfbench" / "reference"
                  / "verify_report_default.json")
    assert bench_copy.read_bytes() == (REFERENCE / "verify_report.json").read_bytes()


def test_verify_flat_signal_config_passes(tmp_path):
    cfg = tmp_path / "flat.json"
    cfg.write_text(json.dumps(
        {"economy": {"v": 2.0, "mu0": 0.0, "K": 1.0, "R": 1.0,
                     "signal": {"kind": "flat"}}}))
    assert main(["--config", str(cfg), "--out", str(tmp_path), "verify"]) == 0
    report = json.loads((tmp_path / "verify_report.json").read_text())
    corner = [c for c in report["checks"] if c["check"] == "uninformative_corner"]
    assert corner and corner[0]["status"] == "pass"


def test_portfolio_only_config_leaves_verify_on_its_default_economy(tmp_path):
    # a file that configures only the book used to exit 2 on an unknown
    # field 'portfolio'; it now reads as no economy config at all
    cfg = tmp_path / "portfolio.json"
    cfg.write_text(json.dumps({"portfolio": {"delta": 1.2}}))
    assert main(["--config", str(cfg), "--out", str(tmp_path), "verify"]) == 0
    _assert_reference_bytes(tmp_path / "verify_report.json")


def test_negative_signal_scale_config_is_rejected_at_load(tmp_path, capsys):
    cfg = tmp_path / "negative.json"
    cfg.write_text(json.dumps(
        {"economy": {"signal": {"kind": "affine", "scale": -1.0}, "mu0": 2.0}}))
    assert main(["--config", str(cfg), "--out", str(tmp_path), "verify"]) == 2
    assert "affine signal scale must be nonnegative" in capsys.readouterr().err
    assert not (tmp_path / "verify_report.json").exists()


def test_truncated_exponential_rate_too_small_is_rejected_at_load(tmp_path, capsys):
    # at 1e-20 its nan types made verify write "worst_violation": NaN and
    # pass rent_identity at worst 0; at 1e-9 its cdf loses 1e-7 relative
    for rate in (1e-20, 1e-9):
        cfg = tmp_path / "tiny_rate.json"
        cfg.write_text(json.dumps(
            {"dist": {"kind": "truncated_exponential", "params": {"rate": rate}}}))
        assert main(["--config", str(cfg), "--out", str(tmp_path), "verify"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: "), err
        assert not (tmp_path / "verify_report.json").exists()


# malformed values used to end in a TypeError or AttributeError traceback
# (exit 1, verify's code for a failed check); each now names its field
MALFORMED = {
    "rate_string": ('{"dist": {"kind": "truncated_exponential", "params": {"rate": "fast"}}}',
                    "verify", "config.dist.params(truncated_exponential).rate"),
    "exponent_string": ('{"dist": {"kind": "power", "params": {"exponent": "2"}}}',
                        "verify", "config.dist.params(power).exponent"),
    "hi_null": ('{"dist": {"kind": "uniform", "params": {"hi": null}}}',
                "verify", "config.dist.params(uniform).hi"),
    "rate_missing": ('{"dist": {"kind": "truncated_exponential"}}',
                     "verify", "config.dist.params(truncated_exponential).rate"),
    "kind_list": ('{"dist": {"kind": []}}', "verify", "config.dist.kind"),
    "dist_string": ('{"dist": "uniform"}', "verify", "config.dist must be a JSON object"),
    "v_list": ('{"v": [2]}', "verify", "config.v"),
    "K_bool": ('{"K": true}', "verify", "config.K"),
    "signal_scale_string": ('{"signal": {"scale": "1"}}', "verify", "config.signal.scale"),
    "ell_scalar": ('{"phi": {"kind": "tabulated", "params": {"ell": 1.0, "phi": [0, 1]}}}',
                   "verify", "config.phi.params(tabulated).ell"),
    "phi_strings": ('{"phi": {"kind": "tabulated", "params": {"ell": [0, 1], "phi": ["0", "1"]}}}',
                    "verify", "config.phi.params(tabulated).phi"),
    "economy_list": ('{"economy": [1]}', "verify", "config must be a JSON object"),
    "top_level_array": ('[1, 2]', "verify", "config file must be a JSON object"),
    "top_level_array_table": ('[1, 2]', "table contagion", "config file must be a JSON object"),
    "delta_list": ('{"portfolio": {"delta": [1]}}', "table contagion", "config.portfolio.delta"),
    "portfolio_string": ('{"portfolio": "wide"}', "figure hump",
                         "config.portfolio must be a JSON object"),
    # JSON integers beyond float range used to end in an OverflowError
    # traceback (exit 1)
    "v_huge": ('{"v": 1%s}' % ("0" * 400), "verify", "config.v"),
    "ell_huge": ('{"phi": {"kind": "tabulated", "params": {"ell": [0, 1%s], '
                 '"phi": [0, 1]}}}' % ("0" * 400), "verify",
                 "config.phi.params(tabulated).ell[1]"),
    "delta_huge": ('{"portfolio": {"delta": -1%s}}' % ("0" * 400), "table contagion",
                   "config.portfolio.delta"),
    "portfolio_beside_a_flat_field": ('{"portfolio": {"delta": 1.2}, "nonsense": 1}',
                                      "verify", "['nonsense']"),
}


@pytest.mark.parametrize("name", list(MALFORMED))
def test_malformed_config_values_exit_2_naming_the_field(tmp_path, capsys, name):
    text, command, field = MALFORMED[name]
    path = tmp_path / "config.json"
    path.write_text(text)
    code = main(["--config", str(path), "--out", str(tmp_path)] + command.split())
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("error: ") and field in err, err


# unusable paths used to end in an OSError traceback (exit 1, verify's
# code for a failed check)
UNUSABLE_PATHS = {
    "out_is_a_file": ["--out", "{file}", "figure", "advance"],
    "out_below_a_file": ["--out", "{file}/sub", "figure", "advance"],
    "config_is_a_directory": ["--config", "{dir}", "--out", "{dir}", "verify"],
}


@pytest.mark.parametrize("name", list(UNUSABLE_PATHS))
def test_unusable_paths_exit_2_with_one_error_line(tmp_path, capsys, name):
    file = tmp_path / "taken"
    file.write_text("not a directory\n")
    argv = [a.format(file=file, dir=tmp_path) for a in UNUSABLE_PATHS[name]]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("error: "), err
