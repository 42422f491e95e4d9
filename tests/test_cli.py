import argparse
import ast
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import regime_extract
from regime_extract import cli, control, mcsim, stopping
from regime_extract.cli import main

from conftest import draw_from_boxes, draw_valid
from fault_hooks import shift_cli_z2

EXAMPLE = {
    "rho": 1/3, "sigma1": 0.38, "sigma2": 1.9, "lambda1": 1.7,
    "lambda2": 0.44, "c": 0.5, "cost": {"type": "exp", "gamma": 1/3},
}
EQUAL_VOL = {
    "rho": 0.5, "sigma1": 1.0, "sigma2": 1.0, "lambda1": 1.0,
    "lambda2": 1.0, "c": 1.0, "cost": {"type": "quad", "alpha": 1.0, "beta": 1.0},
}


@pytest.fixture()
def cfg_path(tmp_path):
    path = tmp_path/"cfg.json"
    path.write_text(json.dumps(EXAMPLE))
    return str(path)


@pytest.fixture()
def cfg_b_path(tmp_path):
    path = tmp_path/"cfg_b.json"
    path.write_text(json.dumps(EQUAL_VOL))
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_check_passes_example(capsys, cfg_path):
    code, rep = run_json(capsys, ["check", "--config", cfg_path])
    assert code == 0
    assert rep["all_ok"] and rep["lemma_signs"]
    assert set(rep["values"]) >= {"alpha5", "lhs2", "lhs3", "lhs4"}


def test_check_case_b(capsys, cfg_b_path):
    code, rep = run_json(capsys, ["check", "--config", cfg_b_path])
    assert code == 0
    assert rep["case"] == "B" and rep["case_b"]


def test_check_failing_conditions_exit_1(capsys, tmp_path):
    bad = dict(EXAMPLE, sigma2=0.5, sigma1=0.47)
    path = tmp_path/"bad.json"
    path.write_text(json.dumps(bad))
    code, rep = run_json(capsys, ["check", "--config", str(path)])
    assert code == 1
    assert not rep["all_ok"]


def test_malformed_json_names_byte_offset(capsys, tmp_path):
    path = tmp_path/"broken.json"
    path.write_text('{"rho": 0.3, "sigma1": }')
    code = main(["check", "--config", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "byte offset 23" in err


def test_missing_config_is_user_error(capsys, tmp_path):
    code = main(["check", "--config", str(tmp_path/"nope.json")])
    assert code == 2


@pytest.mark.parametrize("raw,message", [
    (b"[1, 2]", "error: malformed config: config must be a JSON object, "
                "got list\n"),
    (b"null", "error: malformed config: config must be a JSON object, "
              "got NoneType\n"),
    (json.dumps({k: v for k, v in EXAMPLE.items() if k != "sigma1"}).encode(),
     "error: malformed config: missing key 'sigma1'\n"),
    (json.dumps(dict(EXAMPLE, cost={"type": "quad", "alpha": 1.0})).encode(),
     "error: malformed config: missing key 'beta'\n"),
    (json.dumps(dict(EXAMPLE, cost=[1])).encode(),
     "error: malformed config: cost must be a JSON object, got list\n"),
    (b'{"rho": "\xff"}', "is not UTF-8 at byte offset 9"),
], ids=["list", "null", "sigma1_missing", "beta_missing", "cost_list",
        "not_utf8"])
def test_unusable_config_is_user_error(capsys, tmp_path, raw, message):
    path = tmp_path/"cfg.json"
    path.write_bytes(raw)
    assert main(["check", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


def test_nonpositive_parameter_is_user_error(capsys, tmp_path):
    path = tmp_path/"neg.json"
    path.write_text(json.dumps(dict(EXAMPLE, rho=-1.0)))
    assert main(["check", "--config", str(path)]) == 2
    assert "rho" in capsys.readouterr().err


def test_solve_emits_residuals(capsys, cfg_path):
    code, out = run_json(capsys, ["solve", "--config", cfg_path])
    assert code == 0
    assert out["case"] == "A" and not out["relabeled"]
    assert abs(out["residuals"]["G1"]) <= 1e-10
    assert abs(out["residuals"]["G2"]) <= 1e-10
    assert len(out["alpha"]) == 5 and len(out["a"]) == 4
    assert list(out)[:4] == ["case", "z1", "z2", "zhat2"]


def test_solve_case_b_values(capsys, cfg_b_path):
    code, out = run_json(capsys, ["solve", "--config", cfg_b_path])
    assert code == 0
    assert out["case"] == "B"
    assert out["z1"] == pytest.approx(1.0, abs=1e-12)
    assert out["z2"] == 0.0


def test_solve_swapped_labels(capsys, cfg_path, tmp_path):
    swapped = dict(EXAMPLE, sigma1=1.9, sigma2=0.38, lambda1=0.44, lambda2=1.7)
    path = tmp_path/"swapped.json"
    path.write_text(json.dumps(swapped))
    code, base = run_json(capsys, ["solve", "--config", cfg_path])
    code2, out = run_json(capsys, ["solve", "--config", str(path)])
    assert code == code2 == 0
    assert out["relabeled"] and out["case"] == "C_relabeled"
    # check tests the conditions as labeled, so it fails where solve
    # succeeds by relabeling
    code3, rep = run_json(capsys, ["check", "--config", str(path)])
    assert code3 == 1 and rep["case"] == "conditions_failed"
    assert out["z1"] == pytest.approx(base["z1"], abs=1e-9)
    assert out["z2"] == pytest.approx(base["z2"], abs=1e-9)


def test_solve_infeasible_exit_1(capsys, tmp_path):
    path = tmp_path/"inf.json"
    path.write_text(json.dumps(dict(EXAMPLE, sigma1=0.5, sigma2=0.51,
                                    rho=1.0, lambda1=1.0, lambda2=1.0)))
    code, out = run_json(capsys, ["solve", "--config", str(path)])
    assert code == 1
    assert out["error"] == "AssumptionViolated"


def test_boundary_csv_contract(capsys, cfg_path, tmp_path):
    out = tmp_path/"b.csv"
    code = main(["boundary", "--config", cfg_path, "--grid", "2",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,b1_star,b2_star,bhash_sigma1,bhash_sigma2"
    assert len(lines) == 3  # header + 2 rows
    ylines = (tmp_path/"b_y.csv").read_text().splitlines()
    assert ylines[0] == "y,x1_star,x2_star,xhash_sigma1,xhash_sigma2"
    manifest = json.loads((tmp_path/"b.csv.manifest.json").read_text())
    assert manifest["subcommand"] == "boundary"
    assert str(out) in manifest["outputs"]


def test_boundary_out_without_csv_suffix(capsys, cfg_path, tmp_path):
    # the y table's name takes the suffix at the end when --out has no .csv
    out = tmp_path/"bnd"
    assert main(["boundary", "--config", cfg_path, "--grid", "2",
                 "--out", str(out)]) == 0
    assert out.read_text().startswith("x,b1_star,")
    assert (tmp_path/"bnd_y").read_text().startswith("y,x1_star,")


def test_boundary_case_b_columns_coincide(capsys, cfg_b_path, tmp_path):
    out = tmp_path/"bb.csv"
    assert main(["boundary", "--config", cfg_b_path, "--grid", "30",
                 "--out", str(out)]) == 0
    rows = [ln.split(",") for ln in out.read_text().splitlines()[1:]]
    for row in rows:
        assert float(row[1]) == pytest.approx(float(row[2]), abs=1e-12)


@pytest.mark.parametrize("argv", [
    ["boundary", "--config", "CFG", "--out", "/nonexistent-dir/b.csv"],
    ["scan-region", "--rho", "0.03", "--lambda1", "0.017", "--lambda2",
     "0.016", "--sigma1-range", "0.01:0.06", "--sigma2-range", "0.5:1.2",
     "--steps", "3", "--out", "/nonexistent-dir/s.csv"],
    ["simulate", "--config", "CFG", "--x", "0", "--y", "0.5", "--regime",
     "1", "--paths", "10", "--dt", "0.1", "--horizon", "1.0",
     "--trace-out", "/nonexistent-dir/t.csv"],
], ids=["boundary", "scan-region", "simulate-trace"])
def test_boundary_unwritable_is_io_error(capsys, cfg_path, argv):
    # every file goes through main's one writer: exit 3, nothing on stdout
    argv = [cfg_path if a == "CFG" else a for a in argv]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write output: ")


def test_boundary_svg(capsys, cfg_path, tmp_path):
    out = tmp_path/"b.csv"
    assert main(["boundary", "--config", cfg_path, "--grid", "40",
                 "--out", str(out), "--svg"]) == 0
    svg = (tmp_path/"b.csv.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_value_at_zero_reserve(capsys, cfg_path):
    code, out = run_json(capsys, ["value", "--config", cfg_path,
                                  "--x", "0.7", "--y", "0", "--regime", "1"])
    assert code == 0
    assert out["U"] == 0.0


def test_value_deep_action_region(capsys, cfg_path):
    code, out = run_json(capsys, ["value", "--config", cfg_path,
                                  "--x", "3.5", "--y", "0.5", "--regime", "2"])
    assert code == 0
    assert out["Uy"] == pytest.approx(3.5 - 0.5, abs=1e-9)
    assert abs(out["hjb_residual"]) <= 1e-5


def test_value_rejects_bad_reserve(capsys, cfg_path):
    assert main(["value", "--config", cfg_path, "--x", "0.0", "--y", "1.4",
                 "--regime", "1"]) == 2


@pytest.mark.parametrize("cmd", ["value", "simulate"])
@pytest.mark.parametrize("x", ["nan", "inf"])
def test_non_finite_price_rejected(capsys, cfg_path, cmd, x):
    # value used to exit 0 with "Uy": NaN and a finite U of -f(y)/rho
    assert main([cmd, "--config", cfg_path, f"--x={x}", "--y", "0.5",
                 "--regime", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "finite" in captured.err


def test_subcommands_do_no_io():
    # each cmd_* returns (exit code, stdout document, files); main alone
    # prints, emits, writes and maps errors
    tree = ast.parse(Path(cli.__file__).read_text())
    commands = [fn for fn in tree.body if isinstance(fn, ast.FunctionDef)
                and fn.name.startswith("cmd_")]
    assert len(commands) == 7
    offences = []
    for fn in commands:
        for node in ast.walk(fn):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in ("print", "_emit", "open")):
                offences.append((fn.name, node.func.id))
            if (isinstance(node, ast.Attribute)
                    and node.attr in ("stdout", "stderr")
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "sys"):
                offences.append((fn.name, "sys." + node.attr))
    assert offences == []


def test_emit_refuses_non_finite_numbers():
    from regime_extract.cli import _emit
    with pytest.raises(ValueError):
        _emit({"U": float("nan")})


def test_verify_passes_small_grids(capsys, cfg_path):
    code, out = run_json(capsys, ["verify", "--config", cfg_path,
                                  "--fbp-points", "2000",
                                  "--hjb-nx", "30", "--hjb-ny", "8"])
    assert code == 0
    assert out["status"] == "pass"
    assert out["worst_hjb"] <= 1e-5
    assert len(out["fbp"]) == 9


def test_verify_and_value_with_steep_roots(capsys, tmp_path):
    # alpha4 ~ 24.6 and x*_1(0.9) ~ -29: e^{-alpha4 x*_1} overflowed
    path = tmp_path/"steep.json"
    path.write_text(json.dumps(dict(
        EXAMPLE, rho=0.026, sigma1=0.039, sigma2=0.645, lambda1=0.435,
        lambda2=0.043)))
    code, out = run_json(capsys, ["verify", "--config", str(path),
                                  "--hjb-nx", "40", "--hjb-ny", "10"])
    assert code == 0 and out["status"] == "pass"
    code, out = run_json(capsys, ["value", "--config", str(path), "--x",
                                  "-30.5", "--y", "0.9", "--regime", "1"])
    assert code == 0
    assert abs(out["hjb_residual"]) <= 1e-5


@pytest.mark.parametrize("flag", ["--hjb-nx", "--hjb-ny"])
def test_verify_empty_hjb_grid_is_user_error(capsys, cfg_path, flag):
    # used to print a traceback and exit 1, the math-failure code
    assert main(["verify", "--config", cfg_path, "--fbp-points", "200",
                 flag, "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{flag[-2:]} must be an integer in [1," in captured.err


@pytest.mark.parametrize("name", ["example.json", "equal_vol.json"])
def test_verify_injected_error_fails(capsys, monkeypatch, name):
    # with equal volatilities the shifted z2 opens regime 2's band too
    shift_cli_z2(monkeypatch)
    code, out = run_json(capsys, ["verify", "--config", str(CONFIGS/name),
                                  "--fbp-points", "2000",
                                  "--hjb-nx", "20", "--hjb-ny", "6"])
    assert code == 1
    assert out["status"] == "fail"


def test_simulate_zero_reserve_never_extract(capsys, cfg_path):
    code, out = run_json(capsys, [
        "simulate", "--config", cfg_path, "--x", "0.6", "--y", "0",
        "--regime", "2", "--paths", "100", "--dt", "0.01",
        "--horizon", "1.0", "--policy", "never_extract"])
    assert code == 0
    assert out["mean"] == 0.0 and out["std_error"] == 0.0
    # an empty reserve leaves nothing to truncate
    assert out["tail_bound"] == 0.0


def test_simulate_reflect_reports_u_comparison(capsys, cfg_path):
    argv = ["simulate", "--config", cfg_path, "--x", "0.6", "--y", "0.5",
            "--regime", "2", "--paths", "2000", "--dt", "0.005",
            "--horizon", "2.0", "--seed", "5"]
    code, out = run_json(capsys, argv)
    assert code == 0
    assert "u_value" in out and "abs_diff_vs_u" in out
    code2, out2 = run_json(capsys, argv)
    assert out == out2  # fixed seed, identical JSON


def test_simulate_rejects_bad_dt(capsys, cfg_path):
    assert main(["simulate", "--config", cfg_path, "--x", "0", "--y", "0.5",
                 "--regime", "1", "--dt", "5.0", "--horizon", "1.0",
                 "--paths", "10"]) == 2


@pytest.mark.parametrize("flag,value", [("--horizon", "inf"),
                                        ("--horizon", "nan"), ("--dt", "nan"),
                                        ("--horizon", "1e300")])
def test_simulate_rejects_non_finite_or_huge_horizon(capsys, cfg_path, flag,
                                                     value):
    argv = {"--dt": "0.01", "--horizon": "1.0"}
    argv[flag] = value
    assert main(["simulate", "--config", cfg_path, "--x", "0", "--y", "0.5",
                 "--regime", "1", "--paths", "10"]
                + [t for kv in argv.items() for t in kv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "invalid simulation" in captured.err


def test_simulate_step_cap(capsys, cfg_path, monkeypatch):
    monkeypatch.setattr(mcsim, "MAX_STEPS", 50)
    argv = ["simulate", "--config", cfg_path, "--x", "0", "--y", "0.5",
            "--regime", "1", "--paths", "10", "--dt", "0.02"]
    assert main(argv + ["--horizon", "1.0"]) == 0
    assert main(argv + ["--horizon", "1.1"]) == 2
    assert "at most 50 steps" in capsys.readouterr().err


def test_simulate_trace_out(capsys, cfg_path, tmp_path):
    out = tmp_path/"tr.csv"
    code, _ = run_json(capsys, [
        "simulate", "--config", cfg_path, "--x", "0.2", "--y", "0.9",
        "--regime", "2", "--paths", "8", "--dt", "0.01", "--horizon", "0.5",
        "--policy", "reflect_optimal", "--trace-out", str(out)])
    assert code == 0
    assert out.read_text().splitlines()[0] == \
        "t,regime,X,Y,dnu,discounted_increment"


def test_simulate_trace_out_is_one_path(capsys, cfg_path, tmp_path):
    # the CSV holds path 0 only, so only that path is simulated; it used
    # to be one of max(2, min(--paths, 16)) paths
    out = tmp_path/"tr.csv"
    assert main(["simulate", "--config", cfg_path, "--x", "0.2", "--y", "0.9",
                 "--regime", "2", "--paths", "8", "--dt", "0.01",
                 "--horizon", "0.5", "--seed", "11",
                 "--trace-out", str(out)]) == 0
    cs = regime_extract.from_stopping(regime_extract.solve_z(
        regime_extract.params_from_config(EXAMPLE)))
    trace = regime_extract.simulate_traces(
        cs, 0.2, 0.9, 2, regime_extract.Policy.reflect_optimal(),
        regime_extract.SimConfig(dt=0.01, horizon=0.5, base_seed=11,
                                 antithetic=False), n_paths=1)
    text = io.StringIO()
    regime_extract.trace_to_csv(trace, text)
    assert out.read_bytes() == text.getvalue().encode()


@pytest.mark.parametrize("extra", [["--paths", "2"],
                                   ["--paths", "1", "--no-antithetic"]],
                         ids=["one-pair", "one-path"])
def test_simulate_one_sampling_unit_is_user_error(capsys, cfg_path, extra):
    # one sampling unit gave std_error = inf, which the JSON writer refused
    # with a ValueError traceback and exit 1
    assert main(["simulate", "--config", cfg_path, "--x", "0", "--y", "0.5",
                 "--regime", "1", "--dt", "0.1", "--horizon", "1.0"]
                + extra) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def test_simulate_overflowing_payoff_is_user_error(capsys, cfg_path):
    # the infinite mean reached json.dumps(allow_nan=False): a ValueError
    # traceback and exit 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--config", cfg_path, "--x", "1.7e308",
                     "--y", "0.5", "--regime", "1", "--paths", "8", "--dt",
                     "0.1", "--horizon", "1.0", "--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "1.7e+308" in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("policy", ["sell_on_tuesdays",
                                    "reflect_at_custom_boundary"])
def test_simulate_policy_is_user_error(capsys, cfg_path, policy):
    assert main(["simulate", "--config", cfg_path, "--x", "0", "--y", "0.5",
                 "--regime", "1", "--paths", "10", "--dt", "0.1",
                 "--horizon", "1.0", "--policy", policy]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


def test_scan_region_single_cell(capsys):
    code = main(["scan-region", "--rho", "0.03", "--lambda1", "0.017",
                 "--lambda2", "0.016", "--sigma1-range", "0.0245:0.0245",
                 "--sigma2-range", "0.78:0.78", "--steps", "1"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0] == "sigma1,sigma2,feasible,case_b"
    assert len(out) == 2
    assert out[1].endswith("1,0")  # the known feasible point


def test_scan_region_bad_range(capsys):
    assert main(["scan-region", "--rho", "0.03", "--lambda1", "0.017",
                 "--lambda2", "0.016", "--sigma1-range", "0.06:0.01",
                 "--sigma2-range", "0.5:1.2", "--steps", "5"]) == 2


@pytest.mark.parametrize("value", ["a:b", "0.01", "0.01:0.02:0.03"])
def test_scan_region_range_must_be_lo_hi(capsys, value):
    assert main(["scan-region", "--rho", "0.03", "--lambda1", "0.017",
                 "--lambda2", "0.016", "--sigma1-range", value,
                 "--sigma2-range", "0.5:1.2", "--steps", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: ranges must look like LO:HI\n"


@pytest.mark.parametrize("flag,value", [("--sigma1-range", "nan:nan"),
                                        ("--sigma2-range", "0.5:inf"),
                                        ("--rho", "inf"), ("--lambda1", "nan")])
def test_scan_region_rejects_non_finite(capsys, flag, value):
    argv = {"--rho": "0.03", "--lambda1": "0.017", "--lambda2": "0.016",
            "--sigma1-range": "0.01:0.06", "--sigma2-range": "0.5:1.2"}
    argv[flag] = value
    assert main(["scan-region", "--steps", "3"]
                + [t for kv in argv.items() for t in kv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


@pytest.mark.parametrize("steps", ["1001", "10000000"])
def test_scan_region_steps_capped(capsys, steps):
    # steps^2 CSV lines are kept in memory: refused before any is built
    assert main(["scan-region", "--rho", "0.03", "--lambda1", "0.017",
                 "--lambda2", "0.016", "--sigma1-range", "0.01:0.06",
                 "--sigma2-range", "0.5:1.2", "--steps", steps]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


@pytest.mark.parametrize("eps", ["-0.05", "nan", "inf"])
def test_check_eps_must_be_finite_and_nonnegative(capsys, tmp_path, eps):
    # lhs2 = +0.047 fails cond2; --eps -0.05 made check exit 0 with
    # conditions_met on a set that solve refuses
    path = tmp_path/"near.json"
    path.write_text(json.dumps(dict(
        rho=1.0377812932341557, sigma1=0.01501586294833012,
        sigma2=1.9406950648487529, lambda1=1.104868957215787,
        lambda2=0.13938151551701863, c=1.0,
        cost={"type": "exp", "gamma": 1.0})))
    code, rep = run_json(capsys, ["check", "--config", str(path)])
    assert code == 1 and rep["case"] == "conditions_failed"
    assert main(["check", "--config", str(path), f"--eps={eps}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: eps ")


def test_boundary_grid_capped(capsys, cfg_path, tmp_path):
    # two CSVs of --grid lines are built in memory: refused before any is
    grid = str(cli.MAX_BOUNDARY_GRID + 1)
    assert main(["boundary", "--config", cfg_path, "--grid", grid,
                 "--out", str(tmp_path/"b.csv")]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: --grid")
    assert not (tmp_path/"b.csv").exists()


def test_scan_region_file_and_svg(capsys, tmp_path):
    out = tmp_path/"scan.csv"
    code = main(["scan-region", "--rho", "0.03", "--lambda1", "0.017",
                 "--lambda2", "0.016", "--sigma1-range", "0.01:0.06",
                 "--sigma2-range", "0.5:1.2", "--steps", "12",
                 "--out", str(out), "--svg"])
    assert code == 0
    assert (tmp_path/"scan.csv.svg").exists()
    assert (tmp_path/"scan.csv.manifest.json").exists()


# config defect -> exit code of every --config subcommand
CONFIG_DEFECTS = {
    "infeasible": (dict(EXAMPLE, sigma1=0.5, sigma2=0.51, rho=1.0,
                        lambda1=1.0, lambda2=1.0), 1),
    "rho_negative": (dict(EXAMPLE, rho=-1.0), 2),
    "gamma_missing": (dict(EXAMPLE, cost={"type": "exp"}), 2),
    "gamma_negative": (dict(EXAMPLE, cost={"type": "exp", "gamma": -1.0}), 2),
    "gamma_infinite": ('{"rho": 0.3, "sigma1": 0.38, "sigma2": 1.9, '
                       '"lambda1": 1.7, "lambda2": 0.44, "c": 0.5, "cost": '
                       '{"type": "exp", "gamma": Infinity}}', 2),
    "beta_missing": (dict(EXAMPLE, cost={"type": "quad", "alpha": 1.0}), 2),
    "cost_cubic": (dict(EXAMPLE, cost={"type": "cubic"}), 2),
    "gamma_abc": (dict(EXAMPLE, cost={"type": "exp", "gamma": "abc"}), 2),
    "malformed_json": ('{"rho": 0.3, "sigma1": }', 2),
    "missing_file": (None, 2),
}
SUBCOMMAND_ARGS = {
    "check": [], "solve": [],
    "boundary": ["--grid", "5", "--out", "b.csv"],
    "value": ["--x", "0.6", "--y", "0.5", "--regime", "2"],
    "verify": ["--fbp-points", "200", "--hjb-nx", "10", "--hjb-ny", "4"],
    "simulate": ["--x", "0.6", "--y", "0.5", "--regime", "2", "--paths",
                 "100", "--dt", "0.05", "--horizon", "1.0"],
}


@pytest.mark.parametrize("cmd", sorted(SUBCOMMAND_ARGS))
@pytest.mark.parametrize("defect", sorted(CONFIG_DEFECTS))
def test_config_error_exit_codes(capsys, tmp_path, monkeypatch, defect, cmd):
    monkeypatch.chdir(tmp_path)
    cfg, code = CONFIG_DEFECTS[defect]
    if cfg is not None:
        Path("cfg.json").write_text(cfg if isinstance(cfg, str)
                                    else json.dumps(cfg))
    assert main([cmd, "--config", "cfg.json"] + SUBCOMMAND_ARGS[cmd]) == code
    out, err = capsys.readouterr()
    if code == 2:
        assert out == "" and err.startswith("error: ")
        assert not Path("b.csv").exists()


def _strict_json(text):
    def refuse(const):
        raise ValueError(f"non-finite number {const}")
    return json.loads(text, parse_constant=refuse)


def _config_of(p, cost):
    return {"rho": p.rho, "sigma1": p.sigma1, "sigma2": p.sigma2,
            "lambda1": p.lambda1, "lambda2": p.lambda2, "c": p.c,
            "cost": cost}


@given(seed=st.integers(0, 2**32 - 1),
       family=st.sampled_from(["box", "swapped", "equal_vol", "valid"]),
       quadratic=st.booleans())
@settings(max_examples=100, deadline=None)
def test_cli_json_on_random_configs(tmp_path_factory, seed, family, quadratic):
    rng = np.random.default_rng(seed)
    if family == "valid":
        p = draw_valid(rng)
    else:
        p = draw_from_boxes(rng, 1)[0]
        if family == "swapped":
            p = p.swapped()
        elif family == "equal_vol":
            p = dataclasses.replace(p, sigma2=p.sigma1)
    cost = ({"type": "quad", "alpha": rng.uniform(0.05, 1.0),
             "beta": rng.uniform(0.05, 1.0)} if quadratic
            else {"type": "exp", "gamma": rng.uniform(0.05, 1.0)})
    path = tmp_path_factory.mktemp("cfg")/"cfg.json"
    path.write_text(json.dumps(_config_of(p, cost)))
    state = ["--x", repr(rng.normal(0.0, 2.0)), "--y",
             repr(rng.uniform(0.0, 1.0)), "--regime", str(rng.integers(1, 3))]
    for cmd, extra in (("check", []), ("solve", []), ("value", state),
                       ("verify", SUBCOMMAND_ARGS["verify"]),
                       ("simulate", state + ["--paths", "40", "--dt", "0.1"])):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main([cmd, "--config", str(path)] + extra)
        assert code in (0, 1, 2), (cmd, code)
        if out.getvalue():
            _strict_json(out.getvalue())


def _child_env():
    """Environment in which a child imports the package the tests import,
    installed or not."""
    src = str(Path(regime_extract.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "regime_extract.cli", "--version"],
        capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone away."""

    def write(self, s):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_exits_quietly(capsys, monkeypatch):
    # `solve ... | head -1` printed a BrokenPipeError traceback, exit 1
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert main(["solve", "--config", str(CONFIGS/"example.json")]) == 3
    assert capsys.readouterr().err == ""


def test_closed_stdout_pipe_in_a_child():
    # the pipe's read end is closed before the child starts, so its first
    # write fails for certain; the flush at exit must not fail again
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "regime_extract.cli", "solve",
             "--config", str(CONFIGS/"example.json")],
            stdout=w, stderr=subprocess.PIPE, env=_child_env())
    finally:
        os.close(w)
    assert (proc.returncode, proc.stderr) == (3, b"")


@pytest.mark.parametrize("argv,module,first_step", [
    (["--fbp-points", "100000000"], stopping, "_fbp_level"),
    (["--fbp-points", "200", "--hjb-nx", "5000", "--hjb-ny", "5000"],
     control, "chat"),
], ids=["fbp", "hjb"])
def test_verify_grid_caps_are_user_errors(capsys, cfg_path, monkeypatch,
                                          argv, module, first_step):
    # 10^8 points or 25 * 10^6 states asked for 9-12 GB; past the caps
    # neither verifier reaches the step that builds its grid
    def built(*args):
        raise AssertionError("the grid would be built")

    monkeypatch.setattr(module, first_step, built)
    assert main(["verify", "--config", cfg_path] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


def test_simulate_negative_seed_is_user_error(capsys, cfg_path):
    # SeedSequence raised an untyped ValueError: a traceback and exit 1
    assert main(["simulate", "--config", cfg_path, "--x", "0", "--y", "0.5",
                 "--regime", "1", "--paths", "10", "--dt", "0.1",
                 "--horizon", "1.0", "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "base_seed" in captured.err


CONFIGS = Path(__file__).resolve().parent.parent/"configs"

# stdout of the simulator before its engines were merged; seeded means
# must stay bit-identical (paths 4000 at dt 0.04, seed 7). u_value (and
# abs_diff_vs_u) is the closed-form U's, within 4e-16 of scipy's quad.
# tail_bound is mcsim.tail_bound's, which bounds E|X_T - c| through
# sigma_max (sqrt(T) + 4/sqrt(rho)) rather than the verifier's price range.
# example.json's entry was re-pinned when zhat2 became one closed form,
# which moved z1 and z2 by about 1e-13.
PINNED_SIMULATE = {
    ("example.json", "0.6", "0.5", "2", None): (
        '{\n  "mean": 0.10887279483185044,\n'
        '  "std_error": 0.0037150285908266324,\n  "n_paths": 4000,\n'
        '  "tail_bound": 0.000566767213226932,\n'
        '  "policy_id": "reflect_optimal",\n  "dt": 0.04,\n'
        '  "horizon": 30.0,\n  "u_value": 0.11416649859201966,\n'
        '  "abs_diff_vs_u": 0.005293703760169216\n}\n'),
    ("equal_vol.json", "-2.0", "0.3", "1", "40"): (
        '{\n  "mean": -0.7019914761023677,\n'
        '  "std_error": 0.0007337289645481317,\n  "n_paths": 4000,\n'
        '  "tail_bound": 1.0871395806728777e-08,\n'
        '  "policy_id": "reflect_optimal",\n  "dt": 0.04,\n'
        '  "horizon": 40.0,\n  "u_value": -0.7015015797798478,\n'
        '  "abs_diff_vs_u": 0.0004898963225198338\n}\n'),
}


# stdout of solve and the boundary CSV pair (grid 5) before the closed
# forms were shared between the solver, the feasibility check and w;
# example.json's were re-pinned when zhat2 became one closed form, which
# moved z1 and z2 by about 1e-13
PINNED_SOLVE = {
    "example.json": (
        '{\n  "case": "A",\n  "z1": 1.3078217229804578,\n'
        '  "z2": 0.9070362850100065,\n  "zhat2": 1.7190574227683268,\n'
        '  "alpha": [\n    -5.326156562976988,\n    -0.47223651756545215,\n'
        '    0.47223651756545215,\n    5.326156562976988,\n'
        '    0.6545529160062327\n  ],\n  "a": [\n    -0.8718662111384478,\n'
        '    0.24626116495009662,\n    -0.6193974678700619,\n'
        '    0.6939838581972715\n  ],\n  "relabeled": false,\n'
        '  "residuals": {\n    "G1": 2.7755575615628914e-17,\n'
        '    "G2": 5.657696533489798e-13\n  }\n}\n'),
    "equal_vol.json": (
        '{\n  "case": "B",\n  "z1": 1.0,\n  "z2": 0.0,\n'
        '  "zhat2": 1.416190409532931,\n  "alpha": [\n'
        '    -2.23606797749979,\n    -1.0,\n    1.0,\n'
        '    2.23606797749979,\n    1.7320508075688772\n  ],\n'
        '  "a": [\n    -2.2847006554165614,\n    1.6180339887498951,\n'
        '    -3.6180339887498953,\n    3.284700655416562\n  ],\n'
        '  "relabeled": false,\n  "residuals": {\n'
        '    "G1": 2.220446049250313e-16,\n    "G2": 0.0\n  }\n}\n'),
}
# the x table was re-pinned when its grid grew from the span between the
# optimal boundaries to the span past all four curves; the y table is as
# it was
PINNED_BOUNDARY = (
    "x,b1_star,b2_star,bhash_sigma1,bhash_sigma2\n"
    "-2.752878777330241,1.0,1.0,1.0,1.0\n"
    "-1.357905269086676,1.0,1.0,0.8429921699985119,1.0\n"
    "0.03706823915688906,0.5714051530779067,0.9849917411380059,0.0,1.0\n"
    "1.4320417474004543,0.0,0.2490578646140318,0.0,0.33287542458660185\n"
    "2.827015255644019,0.0,0.0,0.0,0.0\n",
    "y,x1_star,x2_star,xhash_sigma1,xhash_sigma2\n"
    "0.0,0.8078217229804578,1.7148580079904643,-0.03459694887119613,"
    "1.8270152556440191\n"
    "0.25,0.5237963062927165,1.430832591302723,-0.3186223655589375,"
    "1.5429898389562777\n"
    "0.5,0.15910045228032965,1.066136737290336,-0.6833182195713243,"
    "1.178293984943891\n"
    "0.75,-0.30917829363221694,0.5978579913777895,-1.151596965483871,"
    "0.7100152390313443\n"
    "1.0,-0.9104601054785872,-0.003423820468580807,-1.7528787773302412,"
    "0.10873342718497403\n")


# sha256 of verify's stdout (--fbp-points 2000 --hjb-nx 40 --hjb-ny 10);
# example.json's hjb block moved from Simpson's 2.35e-10 worst residual
# to the closed form's round-off, the rest is unchanged; both example.json
# hashes were re-pinned when zhat2 became one closed form, which moved
# z1 and z2 by about 1e-13, and again when the free-boundary check cut
# regime 2's band at x_star's x*_2 = (z1 + z2) + chat, where it took
# (z1 + chat) + z2, which moved C1 fields by round-off (worst_c1 at
# y = 0.2: 5.55e-10 -> 1.78e-09, at x_star) and the injected grid_hi, and
# all three when the default grid became one check in u = x - chat,
# translated to each level, which moved the fbp reports' worst values,
# their positions and grid_hi by round-off (example.json's worst_fbp_ode
# 6.1e-16 -> 4.4e-16, worst_fbp_c1 1.78e-09 -> 9.99e-10; the injected C1
# gap 590.2666671634415 -> 590.2666671624423 at the same x)
PINNED_VERIFY = {
    ("example.json", False):
        "27741859d4c09844aee56533ba20d97642b1f886eaae5dd26eb7485a44dee161",
    ("equal_vol.json", False):
        "cdebbf9e587ec757131c7620eda68571e11f96a6e69914638fc1e3aa30364e0e",
    ("example.json", True):
        "8ffa9068c38ec5215a8014dd22a5710bf350fc035ed9dd90cf327a9f6a923458",
}


@pytest.mark.parametrize("key", sorted(PINNED_VERIFY),
                         ids=lambda k: k[0].split(".")[0] + "-inject"*k[1])
def test_verify_stdout_pinned(capsys, monkeypatch, key):
    # the injected run solves with z2 shifted by 1e-3 (shift_cli_z2)
    name, inject = key
    if inject:
        shift_cli_z2(monkeypatch)
    argv = ["verify", "--config", str(CONFIGS/name), "--fbp-points", "2000",
            "--hjb-nx", "40", "--hjb-ny", "10"]
    assert main(argv) == int(inject)
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_VERIFY[key], out


@pytest.mark.parametrize("name", sorted(PINNED_SOLVE))
def test_solve_stdout_pinned(capsys, name):
    assert main(["solve", "--config", str(CONFIGS/name)]) == 0
    assert capsys.readouterr().out == PINNED_SOLVE[name]


def test_boundary_csv_pinned(capsys, tmp_path):
    out = tmp_path/"b.csv"
    assert main(["boundary", "--config", str(CONFIGS/"example.json"),
                 "--grid", "5", "--out", str(out)]) == 0
    assert (out.read_text(), (tmp_path/"b_y.csv").read_text()) == \
        PINNED_BOUNDARY


# README's scan-region box at its midpoint (z2 = 2.49), where the span
# between the optimal boundaries cut b*_1 at 0.947 and b*_2 at 0.131
SCAN_MIDPOINT = dict(EXAMPLE, rho=0.0315, sigma1=0.0245, sigma2=0.78,
                     lambda1=0.016, lambda2=0.015)


@pytest.mark.parametrize("cfg", [EXAMPLE, SCAN_MIDPOINT],
                         ids=["example", "scan_midpoint"])
def test_boundary_grid_spans_all_four_curves(tmp_path, cfg):
    path, out = tmp_path/"cfg.json", tmp_path/"b.csv"
    path.write_text(json.dumps(cfg))
    assert main(["boundary", "--config", str(path), "--grid", "5",
                 "--out", str(out)]) == 0
    rows = out.read_text().splitlines()
    first, last = (row.split(",")[1:] for row in (rows[1], rows[-1]))
    assert first == ["1.0"]*4 and last == ["0.0"]*4


@pytest.mark.parametrize("key", sorted(PINNED_SIMULATE),
                         ids=lambda k: k[0].split(".")[0])
def test_simulate_stdout_pinned(capsys, key):
    name, x, y, regime, horizon = key
    argv = ["simulate", "--config", str(CONFIGS/name), "--x", x, "--y", y,
            "--regime", regime, "--paths", "4000", "--dt", "0.04",
            "--seed", "7"]
    if horizon:
        argv += ["--horizon", horizon]
    assert main(argv) == 0
    assert capsys.readouterr().out == PINNED_SIMULATE[key]


# sha256 of check's stdout, recorded before the solvability rule was
# written once: both configs, and the example with its regimes swapped
# (conditions_failed, exit 1)
SWAPPED = dict(EXAMPLE, sigma1=1.9, sigma2=0.38, lambda1=0.44, lambda2=1.7)
PINNED_CHECK = {
    "example": (0, "72c96df213cf4084587a1a34b1b84da3"
                   "f36ccd3a3101d7b0d902f59efb523bd8"),
    "equal_vol": (0, "c966e39bc1f289a387af0b1e8493a1f2"
                     "da03303acc1e3e85ec9193c0f89364f8"),
    "swapped": (1, "e5d67a07b295e5e9042514c7c492084e"
                   "bd962d62ff2b7005cf8796cc3dc5b046"),
}


@pytest.mark.parametrize("name", sorted(PINNED_CHECK))
def test_check_stdout_pinned(capsys, tmp_path, name):
    path = CONFIGS/f"{name}.json"
    if name == "swapped":
        path = tmp_path/"swapped.json"
        path.write_text(json.dumps(SWAPPED))
    code = main(["check", "--config", str(path)])
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == \
        PINNED_CHECK[name], out


# stdout of value at two states per config, recorded before the
# tolerances became module constants; example.json's were re-pinned
# when zhat2 became one closed form, which moved z1 and z2 by about 1e-13
PINNED_VALUE = {
    ("example.json", "0.6", "0.5", "2"): (
        '{\n  "U": 0.11416649859201966,\n  "Uy": 0.1416508101486904,\n'
        '  "Ux": 0.3569186107040605,\n  "Uxx": 0.15583335275597893,\n'
        '  "hjb_residual": -5.551115123125783e-17\n}\n'),
    ("example.json", "-1.0", "0.3", "1"): (
        '{\n  "U": -0.17983417592153816,\n  "Uy": -0.7324448732684239,\n'
        '  "Ux": 0.08031294925844287,\n  "Uxx": 0.03803913893972366,\n'
        '  "hjb_residual": 1.3877787807814457e-17\n}\n'),
    ("equal_vol.json", "-2.0", "0.3", "1"): (
        '{\n  "U": -0.7015015797798478,\n  "Uy": -2.7506710358827786,\n'
        '  "Ux": 0.07849842022015224,\n  "Uxx": 0.07849842022015224,\n'
        '  "hjb_residual": 0.0\n}\n'),
    ("equal_vol.json", "0.5", "0.8", "2"): (
        '{\n  "U": -0.4,\n  "Uy": -0.5,\n  "Ux": 0.8,\n  "Uxx": 0.0,\n'
        '  "hjb_residual": 0.0\n}\n'),
}


@pytest.mark.parametrize("key", sorted(PINNED_VALUE),
                         ids=lambda k: "-".join(k).replace(".json", ""))
def test_value_stdout_pinned(capsys, key):
    name, x, y, regime = key
    assert main(["value", "--config", str(CONFIGS/name), f"--x={x}",
                 "--y", y, "--regime", regime]) == 0
    assert capsys.readouterr().out == PINNED_VALUE[key]


# sha256 of scan-region's stdout on the README's box at 7 steps
PINNED_SCAN = ("097934f9b47e3f44d8370cda5064bb95"
               "d49893539a4b624b9377e392c3fa2112")


def test_scan_region_stdout_pinned(capsys):
    assert main(["scan-region", "--rho", "0.03", "--lambda1", "0.017",
                 "--lambda2", "0.016", "--sigma1-range", "0.01:0.06",
                 "--sigma2-range", "0.5:1.2", "--steps", "7"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_SCAN, out
    assert out.count("\n") == 1 + 7*7


# Option strings of every subcommand, help apart, as the parser declares
# them: a new CLI option has to be added here on purpose, as
# tests/test_api.py's PINNED_SIGNATURES does for the Python API.
PINNED_OPTIONS = {
    "check": ("--config", "--eps"),
    "solve": ("--config",),
    "boundary": ("--config", "--grid", "--out", "--svg"),
    "value": ("--config", "--x", "--y", "--regime"),
    "verify": ("--config", "--fbp-points", "--hjb-nx", "--hjb-ny"),
    "simulate": ("--config", "--x", "--y", "--regime", "--paths", "--dt",
                 "--horizon", "--seed", "--policy", "--no-antithetic",
                 "--trace-out"),
    "scan-region": ("--rho", "--lambda1", "--lambda2", "--sigma1-range",
                    "--sigma2-range", "--steps", "--out", "--svg"),
}


def test_cli_options_pinned():
    parser = cli.build_parser()
    (sub,) = (a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction))
    options = {name: tuple(s for a in p._actions for s in a.option_strings
                           if s not in ("-h", "--help"))
               for name, p in sub.choices.items()}
    assert options == PINNED_OPTIONS


def test_parser_is_built_once(capsys):
    # the pinned commands, run again in one process on the one parser,
    # the injected verify first, each verify under its own substitutes
    assert cli.build_parser() is cli.build_parser()
    for key in sorted(PINNED_VERIFY, key=lambda k: not k[1]):
        with pytest.MonkeyPatch.context() as monkeypatch:
            test_verify_stdout_pinned(capsys, monkeypatch, key)
    for name in sorted(PINNED_SOLVE):
        test_solve_stdout_pinned(capsys, name)
    test_scan_region_stdout_pinned(capsys)
