"""CLI subcommands, flags and exit codes (0 ok / 2 validation / 3 inconclusive),
and the README's library quick tour."""

import ast
import math
import os
import re
import shlex
from pathlib import Path

import numpy as np
import pytest
from scipy import special

import heatlab as hl
from heatlab.cli import _COMMANDS, build_parser, experiment_config, main
from heatlab.experiments import INPUTS, ScenarioConfig, _FLOAT, _parse_bracket


def test_heat_ok(capsys):
    code = main(["heat", "--fixture", "lat1", "--ambient-size", "257",
                 "--x", "0", "--y", "0", "--t", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "value: " in out and "status: converged" in out


def test_heat_at_paper_scale_matches_bessel_oracle(capsys):
    # k(0, 0, t) on Z is e^(-2t) I_0(2t), on an ambient truncation of 10^5
    # vertices at the large times the ratio limits are read at
    code = main(["heat", "--fixture", "lat1", "--ambient-size", "100001",
                 "--x", "0", "--y", "0", "--t", "400"])
    out = capsys.readouterr().out
    assert code == 0
    assert "status: converged" in out
    value = float(out.split("value: ", 1)[1].split()[0])
    assert value == pytest.approx(special.ive(0, 800.0), rel=1e-9)


def test_unknown_fixture_exits_2(capsys):
    code = main(["heat", "--fixture", "wat"])
    assert code == 2
    assert "validation error" in capsys.readouterr().err


def test_inconclusive_exits_3(capsys):
    code = main(["heat", "--fixture", "lat1", "--ambient-size", "33", "--t", "100"])
    assert code == 3


@pytest.mark.parametrize("argv", [
    ["coupling", "--fixture", "lat1", "--ambient-size", "65", "--constant", "1",
     "--pert-indicator", "0", "--pert-value", "-1"],
    ["perturb", "--fixture", "lat1", "--ambient-size", "33", "--constant", "1",
     "--pert-indicator", "0"],
])
def test_inconclusive_base_green_exits_3(argv, capsys):
    # the base Green limit neither converges nor diverges on this small ambient
    assert main(argv) == 3
    assert "inconclusive" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [["--kind", "theorem"],
                                   ["--kind", "davies", "--x0", "0", "--y0", "0"]])
def test_ratio_past_the_ground_states_has_no_prediction(extra, capsys):
    # vertex 1024 lies only in the closed top level of the 2049 truncation,
    # which is not a usable level: no ground-state value, no kernel limit
    code = main(["ratio", "--fixture", "lat1_geo(0.5)", "--ambient-size", "2049",
                 "--x", "1024", "--y", "0", "--t-grid", "1,2,3,4,5,6"] + extra)
    out = capsys.readouterr().out
    assert code == 3
    assert "points: 0 (excluded 6)" in out
    assert "predicted_limit:" not in out


def test_green_and_lambda0(capsys):
    code = main(["green", "--fixture", "lat1", "--ambient-size", "257",
                 "--constant", "1.0", "--x", "0", "--y", "0"])
    assert code == 0
    assert "0.4472135954" in capsys.readouterr().out
    code = main(["lambda0", "--fixture", "lat1", "--ambient-size", "513",
                 "--constant", "0.5"])
    assert code == 0
    out = capsys.readouterr().out
    lam = float(out.split("lambda0: ", 1)[1].split()[0])
    assert abs(lam - 0.5) <= 1e-8
    # inf D = 0.5 is the certified lower bound; the extrapolate is clamped onto it
    assert "lambda0_bracket: 0.5 " in out


def test_classify_command(capsys):
    code = main(["classify", "--fixture", "lat1_geo(0.5)", "--ambient-size", "513"])
    assert code == 0
    out = capsys.readouterr().out
    assert "classification: positive-critical" in out
    assert "mass: 3" in out


def _fields(out):
    return dict(line.split(": ", 1) for line in out.splitlines() if ": " in line)


@pytest.mark.parametrize("fixture, size, extra, verdict", [
    ("lat1", "2053", [], "null-critical"),
    ("rad(2)", "2049", [], "null-critical"),
    ("lat1_geo(0.5)", "2053", [], "positive-critical"),
    ("rad(3)", "2049", [], "subcritical"),
    ("rad(4)", "4097", [], "subcritical"),
    ("rad(2)", "2049", ["--constant", "1e-4"], "subcritical"),
])
def test_classify_with_a_short_last_level(fixture, size, extra, verdict, capsys):
    # each size lands just past a power of two, so the last level adds a few
    # vertices; raw Green increments across it once hid the divergence (exit 3)
    assert main(["classify", "--fixture", fixture, "--ambient-size", size] + extra) == 0
    assert _fields(capsys.readouterr().out)["classification"] == verdict


def test_green_with_a_short_last_level_diverges(capsys):
    assert main(["green", "--fixture", "rad(2)", "--ambient-size", "2049",
                 "--x", "1", "--y", "1"]) == 0
    assert _fields(capsys.readouterr().out)["status"] == "diverging"


def test_a_large_finite_green_value_is_no_divergence(tmp_path, capsys):
    # D = 1e-14 on a 20-vertex path: G(0, 0) ~ 4.9e12 is finite, and the last
    # level is the whole domain; a value above 1e12 was once read as divergence
    path = tmp_path / "path.txt"
    lines = [f"{v} 1.0" for v in range(20)]
    lines += [f"{v} {v + 1} 1.0\n{v + 1} {v} 1.0" for v in range(19)]
    path.write_text("\n".join(lines) + "\n")
    w = np.diag(np.ones(19), 1) + np.diag(np.ones(19), -1)
    dense = np.linalg.inv(np.diag(w.sum(axis=1) + 1e-14) - w)[0, 0]
    argv = ["--fixture", str(path), "--constant", "1e-14"]
    assert main(["green", "--x", "0", "--y", "0"] + argv) == 0
    out = _fields(capsys.readouterr().out)
    assert (out["status"], out["model"]) == ("converged", "exact")
    assert float(out["value"]) == pytest.approx(dense, rel=1e-12, abs=0.0)
    assert main(["classify"] + argv) == 0
    assert _fields(capsys.readouterr().out)["classification"] == "subcritical"


def test_a_large_bounded_heat_value_is_no_divergence(capsys):
    # k(45, 45, 1e-15) ~ 1/mu(45) = 3.3e13 is bounded; it was once read as
    # divergence (exit 0); the level values still move by 3e-5 at the top level
    assert main(["heat", "--fixture", "lat1_geo(0.5)", "--ambient-size", "257",
                 "--x", "45", "--y", "45", "--t", "1e-15"]) == 3
    out = _fields(capsys.readouterr().out)
    assert (out["status"], out["level"]) == ("inconclusive", "7")


def test_ratio_time_shift(capsys, tmp_path):
    out_dir = str(tmp_path / "csv")
    code = main(["ratio", "--kind", "time-shift", "--fixture", "lat1",
                 "--ambient-size", "1025", "--constant", "1.0",
                 "--x", "0", "--y", "0", "--tau", "-1",
                 "--t-grid", "geometric:5:50:8", "--out", out_dir])
    assert code == 0
    assert os.path.exists(os.path.join(out_dir, "time_shift_series.csv"))


def test_coupling_command(capsys, tmp_path):
    code = main(["coupling", "--fixture", "lat1", "--ambient-size", "1025",
                 "--constant", "1.0", "--pert-indicator", "0",
                 "--pert-value", "-1.0", "--bracket", "0", "4", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "alpha0: 2.236" in out
    assert "upper_bound: 2.2360679775\n" in out and "error_estimate: " in out
    rows = (tmp_path / "coupling_history.csv").read_text().splitlines()
    assert rows[0] == "level,alpha0" and len(rows) > 3


def test_coupling_inconclusive_limit_exits_3_and_names_the_upper_bound(capsys):
    # vertex 400 lies in one usable level only (1023 vertices): one value of
    # alpha0(S_j), which is sqrt(5) there, certifies no limit
    code = main(["coupling", "--fixture", "lat1", "--ambient-size", "1025", "--constant", "1",
                 "--pert-indicator", "400", "--pert-value", "-1", "--bracket", "0", "4"])
    assert code == 3
    assert "alpha0 <= 2.2360679775" in capsys.readouterr().err


@pytest.mark.parametrize("argv, outside", [
    # the absorbing ghost vertex of rad(3), in no level
    (["--fixture", "rad(3)", "--ambient-size", "100", "--pert-indicator", "101"], 101),
    (["--fixture", "rad(3)", "--ambient-size", "100", "--pert-indicator", "1,101"], 101),
    # a vertex of the closed top level only, which no limit uses
    (["--fixture", "lat1", "--ambient-size", "65", "--constant", "1",
      "--pert-indicator", "32"], 32),
])
def test_coupling_support_outside_the_usable_levels_exits_2(monkeypatch, capsys, argv,
                                                           outside):
    def no_limit(*args, **kwargs):
        raise AssertionError("Green limit computed")

    monkeypatch.setattr(hl.HeatKernelEvaluator, "green", no_limit)
    code = main(["coupling", *argv, "--pert-value", "-1", "--bracket", "0", "40"])
    assert code == 2
    err = capsys.readouterr().err
    assert "validation error" in err and f"vertex {outside} " in err


def test_perturb_command(capsys):
    code = main(["perturb", "--fixture", "rad(3)", "--ambient-size", "200",
                 "--kind", "semismall", "--pert-indicator", "1"])
    assert code == 0
    assert "decreasing_to_zero: True" in capsys.readouterr().out


def test_perturb_requires_potential(capsys):
    code = main(["perturb", "--fixture", "rad(3)", "--ambient-size", "200"])
    assert code == 2


def test_run_command(tmp_path, capsys):
    cfg = tmp_path / "s.cfg"
    out = tmp_path / "out"
    cfg.write_text(
        "[fixture]\nname = lat1\nambient_size = 257\n\n"
        "[experiment]\nkind = lambda0\n\n"
        f"[output]\ndir = {out}\n")
    code = main(["run", str(cfg)])
    assert code == 0
    assert (out / "lambda0_history.csv").exists()
    assert "lambda0:" in capsys.readouterr().out


@pytest.mark.parametrize("out", ["c.cfg", "c.cfg/sub"], ids=["file", "under-a-file"])
def test_output_dir_naming_a_file_exits_2(tmp_path, capsys, out):
    # once a FileExistsError or NotADirectoryError traceback (exit 1) after
    # the experiment had run
    cfg = tmp_path / "c.cfg"
    cfg.write_text("[fixture]\nname = lat1\nambient_size = 33\n\n[experiment]\nkind = heat\n\n"
                   f"[output]\ndir = {tmp_path / out}\n")
    assert main(["heat", "--ambient-size", "33", "--out", str(tmp_path / out)]) == 2
    assert main(["run", str(cfg)]) == 2
    assert main(["run", str(cfg), "--out", str(tmp_path / out)]) == 2
    message = f"validation error: output dir {tmp_path / out}: {cfg} is not a directory"
    assert capsys.readouterr().err.count(message) == 3
    assert cfg.read_text().startswith("[fixture]")


def test_overflowing_lanczos_shift_is_a_restriction_failure(tmp_path, capsys):
    # D = +-1e308 is finite, but D - sigma, sigma = min D - 1, overflows
    pot = tmp_path / "pot.txt"
    pot.write_text("0 1e308\n5 -1e308\n")
    assert main(["heat", "--fixture", "lat1", "--ambient-size", "129", "--potential", str(pot),
                 "--x", "1", "--y", "1", "--t", "1"]) == 0
    out = capsys.readouterr().out
    assert "status: diverging" in out and "shifted restriction overflows" in out


def test_underflowed_heat_limit_is_inconclusive(capsys):
    # at t = 1e5 the small levels' Lanczos coefficients underflow; their
    # change and norm once both read 0, a settled 0, and the limit exited 0 as
    # a converged 0 although the top level's kernel is 1.114857e-10
    assert main(["heat", "--fixture", "rad(2)", "--ambient-size", "200", "--x", "1", "--y", "1",
                 "--t", "100000"]) == 3
    out = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines()
               if ": " in line)
    fx = hl.fixture("rad(2)", ambient_size=200)
    ev = hl.HeatKernelEvaluator(hl.assemble(fx.domain), fx.exhaustion)
    top = ev.usable_levels()[-1]
    assert out["status"] == "inconclusive" and int(out["level"]) == top
    i = fx.exhaustion[top].local_of(1)
    dense = ev.factor(top).kernel_matrix(1e5)[i, i]
    assert float(out["value"]) == pytest.approx(dense, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("fixture, point", [("lat1", "0"), ("lat1_geo(0.5)", "-300")])
def test_kernels_below_exp_of_minus_t_min_d_are_a_converged_zero(capsys, fixture, point):
    # exp(-1000 min D)/mu(y) underflows (mu(-300) = 2^-300) and bounds k(x, y,
    # 1000) for every x, so both limits are a certified 0; without that bound
    # lat1 ran level 8 into the Lanczos step cap (exit 3), and the three-term
    # recurrence does so on lat1_geo(0.5) too
    assert main(["heat", "--fixture", fixture, "--ambient-size", "4097", "--constant", "1",
                 "--x", point, "--y", point, "--t", "1000"]) == 0
    out = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines()
               if ": " in line)
    assert out["status"] == "converged" and float(out["value"]) == 0.0


@pytest.mark.parametrize("y", [0, 1])
def test_lambda0_log_rejects_a_nonpositive_time(tmp_path, capsys, y):
    # t = 0 once ended in a LinAlgError traceback (y = 0) or exit 4 (y = 1)
    cfg = tmp_path / "s.cfg"
    cfg.write_text(
        "[fixture]\nname = lat1\nambient_size = 513\n\n[operator]\nconstant = 0.5\n\n"
        f"[experiment]\nkind = lambda0_log\nx = 0\ny = {y}\nt_grid = 0 1 2 3\n\n"
        f"[output]\ndir = {tmp_path / 'out'}\n")
    assert main(["run", str(cfg)]) == 2
    assert "validation error" in capsys.readouterr().err


@pytest.mark.parametrize("grid", ["0 1 2 3 4", "-1 1 2 3 4"])
@pytest.mark.parametrize("kind", ["theorem", "time-shift", "davies", "conjecture"])
def test_ratio_grid_with_a_nonpositive_time_exits_2(capsys, kind, grid):
    # t = 0 once entered the theorem's tail fit (a LinAlgError traceback, exit 1)
    # and gave the conjecture domination constant 1 at onset 0, the delta/delta point
    code = main(["ratio", "--kind", kind, "--fixture", "lat1", "--ambient-size", "257",
                 "--pert-indicator", "0", "--t-grid", grid])
    assert code == 2
    assert "t grid times must be finite and positive" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    "[fixture]\nname = lat1\n\n[experiment]\nkind = heat\nt = 1%\n",
    "name = lat1\n",
    "[fixture]\nname = lat1\n[fixture]\nname = rad(3)\n",
])
def test_malformed_config_exits_2(tmp_path, capsys, text):
    cfg = tmp_path / "s.cfg"
    cfg.write_text(text)
    assert main(["run", str(cfg)]) == 2
    assert "validation error" in capsys.readouterr().err


def test_negative_seed_exits_2(tmp_path, capsys):
    # default_rng once raised numpy's ValueError on a negative seed (exit 1)
    argv = ["perturb", "--fixture", "rad(3)", "--pert-indicator", "1", "--seed", "-1"]
    assert main(argv) == 2
    assert "seed must be a nonnegative integer" in capsys.readouterr().err
    for kind in ("small", "semismall"):
        cfg = tmp_path / f"{kind}.cfg"
        cfg.write_text("[fixture]\nname = rad(3)\n\n[perturbation]\nindicator = 1\n\n"
                       f"[experiment]\nkind = perturb_integrals\nperturbation_kind = {kind}\n"
                       "seed = -4\n")
        assert main(["run", str(cfg)]) == 2
        assert "seed must be a nonnegative integer" in capsys.readouterr().err


def test_unconverged_lambda0_exits_3(tmp_path, capsys):
    # too small a truncation for the well: the principal eigenvalues are still
    # moving, which is inconclusive, not a numerical failure (at 4001 the same
    # input converges)
    well = tmp_path / "well.txt"
    well.write_text("100 -0.5\n")
    for command in ("lambda0", "classify"):
        argv = [command, "--fixture", "lat1", "--ambient-size", "257", "--potential", str(well)]
        assert main(argv) == 3
        assert "increments are not shrinking" in capsys.readouterr().err


def test_run_missing_config(capsys):
    code = main(["run", "/nonexistent/path.cfg"])
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["classify", "--fixture", "lat1", "--ambient-size", "257", "--constant", "-0.5"],
])
def test_numerical_failure_exits_4(argv, capsys):
    code = main(argv)
    assert code == 4
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("command, line", [("lambda0", "lambda0: 1e+17"),
                                           ("classify", "classification: subcritical")],
                         ids=["lambda0", "classify"])
def test_huge_constant_potential_is_solved(command, line, capsys):
    # A - min(D) D_mu once cancelled to an exactly singular sparse LU here; the
    # nest's diagonal takes D - min(D) = 0 before adding it to the weights
    assert main([command, "--fixture", "lat1", "--ambient-size", "33", "--constant", "1e17"]) == 0
    assert line in capsys.readouterr().out.splitlines()


def test_heat_limit_at_the_lanczos_cap_exits_3(monkeypatch, capsys):
    import heatlab.kernels as hk

    argv = ["heat", "--fixture", "lat1", "--ambient-size", "257", "--x", "0", "--y", "0",
            "--t", "5"]
    assert main(argv) == 0  # converged at level 6
    capsys.readouterr()
    monkeypatch.setattr(hk, "LANCZOS_CAP", 20)
    assert main(argv) == 3
    out = capsys.readouterr().out
    assert "status: inconclusive" in out and "Lanczos did not converge in 20 steps" in out



def test_overshooting_lambda0_extrapolate_is_not_negative(tmp_path, capsys):
    # lat1 + 1_{0}: lambda0 = 0, but the 257-vertex extrapolate is -1.0e-5
    pot = tmp_path / "pot.txt"
    pot.write_text("0 1\n")
    argv = ["classify", "--fixture", "lat1", "--ambient-size", "257", "--potential", str(pot)]
    # at the default Green tolerance 257 vertices cannot certify the limit
    assert main(argv) == 3
    assert main(argv + ["--tol", "1e-4"]) == 0
    out = capsys.readouterr().out
    assert "classification: subcritical" in out and "lambda0: 0\n" in out


def test_time_shift_with_default_tau_and_grid(capsys):
    # tau = -1 and the default grid's first point t = 1 is excluded, not fatal
    code = main(["ratio", "--kind", "time-shift", "--fixture", "lat1",
                 "--ambient-size", "65", "--constant", "1"])
    assert code == 0
    assert "tau: -1" in capsys.readouterr().out


def test_edge_list_fixture_from_cli(tmp_path, capsys):
    path = tmp_path / "tri.txt"
    path.write_text("0 1.0\n1 1.0\n2 1.0\n"
                    "0 1 1.0\n1 0 1.0\n1 2 1.0\n2 1 1.0\n0 2 1.0\n2 0 1.0\n")
    code = main(["heat", "--fixture", str(path), "--x", "0", "--y", "1", "--t", "1"])
    assert code == 0
    assert "value: " in capsys.readouterr().out


@pytest.mark.parametrize("command, bad_line", [
    ("heat", "0 1 nan\n"),
    ("green", "0 1 nan\n"),
    ("classify", "0 1 nan\n"),
    ("heat", "1 2 inf\n"),
    ("green", "2 inf\n"),
])
def test_edge_list_nonfinite_input_exits_2(tmp_path, capsys, command, bad_line):
    path = tmp_path / "tri.txt"
    path.write_text("0 1.0\n1 1.0\n2 1.0\n"
                    "0 1 1.0\n1 0 1.0\n1 2 1.0\n2 1 1.0\n0 2 1.0\n2 0 1.0\n" + bad_line)
    code = main([command, "--fixture", str(path), "--x", "0", "--y", "1", "--t", "1"])
    assert code == 2
    captured = capsys.readouterr()
    assert "validation error" in captured.err
    assert "converged" not in captured.out


@pytest.mark.parametrize("repeat, where", [
    ("0 1 5.0\n", "tri.txt:10: repeated edge (0, 1)"),
    ("1 2.0\n", "tri.txt:10: repeated measure line for vertex 1"),
])
def test_edge_list_repeated_line_exits_2(tmp_path, capsys, repeat, where):
    # unchecked, a repeated line would replace the first one's weight or measure
    path = tmp_path / "tri.txt"
    path.write_text("0 1.0\n1 1.0\n2 1.0\n"
                    "0 1 1.0\n1 0 1.0\n1 2 1.0\n2 1 1.0\n0 2 1.0\n2 0 1.0\n" + repeat)
    code = main(["heat", "--fixture", str(path), "--x", "0", "--y", "1", "--t", "1"])
    assert code == 2
    captured = capsys.readouterr()
    assert "validation error" in captured.err and where in captured.err
    assert "value" not in captured.out


@pytest.mark.parametrize("argv", [
    ["ratio", "--t-grid", "geometric:5:200"],
    ["ratio", "--t-grid", "10,5,20"],
    ["heat", "--t", "nan"],
    ["heat", "--t", "inf"],
    ["green", "--constant", "nan"],
    ["heat", "--tol", "nan"],
    ["heat", "--tol", "-1"],
    ["heat", "--tol", "0"],
    ["lambda0", "--tol", "nan"],
    ["coupling", "--bracket", "nan", "4", "--constant", "1",
     "--pert-indicator", "0", "--pert-value", "-1"],
    ["ratio", "--kind", "conjecture", "--pert-coupling", "nan", "--pert-indicator", "0"],
    ["perturb", "--pert-indicator", "1,x"],
])
def test_bad_numeric_input_exits_2(argv, capsys):
    code = main(argv + ["--fixture", "lat1", "--ambient-size", "257"])
    assert code == 2
    captured = capsys.readouterr()
    assert "validation error" in captured.err
    assert "converged" not in captured.out


# every flag that takes a float, with a subcommand that has it
FLOAT_FLAGS = [("lambda0", "--constant"), ("lambda0", "--coupling"), ("heat", "--t"),
               ("heat", "--tol"), ("ratio", "--tau"), ("ratio", "--pert-value"),
               ("ratio", "--pert-constant"), ("ratio", "--pert-coupling"),
               ("coupling", "--bracket")]


def test_float_flags_are_every_float_input():
    floats = {row.flag for row in INPUTS if row.flag and row.parse in (_FLOAT, _parse_bracket)}
    assert floats == {flag for _, flag in FLOAT_FLAGS}


@pytest.mark.parametrize("command, flag", FLOAT_FLAGS)
def test_negative_float_with_an_exponent_is_a_value(command, flag):
    # argparse alone takes only -N and -N.N for numbers, and read -1e-3 as a flag
    second = ["4"] if flag == "--bracket" else []
    spaced = experiment_config(build_parser().parse_args([command, flag, "-1e-3", *second]))
    decimal = experiment_config(build_parser().parse_args([command, flag, "-0.001", *second]))
    assert spaced == decimal
    row = next(row for row in INPUTS if row.flag == flag)
    assert getattr(spaced, row.field) == ((-0.001, 4.0) if second else -0.001)


def test_constant_with_an_exponent_prints_the_summary_of_its_equals_form(capsys):
    # "--constant -1e-3" once exited 2: "argument --constant: expected one argument"
    argv = ["lambda0", "--fixture", "lat1", "--ambient-size", "257"]
    assert main(argv + ["--constant=-1e-3"]) == 0
    joined = capsys.readouterr().out
    assert main(argv + ["--constant", "-1e-3"]) == 0
    assert capsys.readouterr().out == joined
    assert "lambda0: -0.001" in joined.splitlines()


def test_resolvent_offset_below_the_resolution_of_lambda0_exits_2(capsys):
    # 1 - 1e-17 == 1: its Green limit diverged and blamed the lambda0 estimate (exit 4)
    code = main(["ratio", "--kind", "resolvent", "--fixture", "lat1", "--ambient-size", "257",
                 "--constant", "1", "--lambda-deltas", "1e-17,1e-3"])
    assert code == 2
    err = capsys.readouterr().err
    assert "validation error: lambda0 - 1e-17 rounds to lambda0 = 1" in err


def test_resolvent_with_two_offsets_exits_3(capsys):
    code = main(["ratio", "--kind", "resolvent", "--fixture", "lat1", "--ambient-size", "257",
                 "--constant", "1", "--lambda-deltas", "0.1,0.5"])
    out = capsys.readouterr().out.splitlines()
    assert code == 3
    assert "status: inconclusive" in out and "points: 2 (excluded 0)" in out
    assert "limit_model: too few converged spectral points" in out


@pytest.mark.parametrize("fixture", ["lat1", "lat1_geo(0.5)", "rad(3)"])
def test_zero_ambient_size_exits_2(fixture, capsys):
    code = main(["heat", "--fixture", fixture, "--ambient-size", "0"])
    assert code == 2
    assert "validation error" in capsys.readouterr().err


@pytest.mark.parametrize("content", ["1 0.5\n0 abc\n", None], ids=["bad-line", "missing"])
@pytest.mark.parametrize("source", ["--potential", "--pert-file", "potential_file"])
def test_bad_potential_file_exits_2(tmp_path, capsys, source, content):
    path = tmp_path / "v.txt"
    if content is not None:
        path.write_text(content)
    if source == "potential_file":
        cfg = tmp_path / "s.cfg"
        cfg.write_text(f"[fixture]\nname = lat1\nambient_size = 33\n\n"
                       f"[operator]\npotential_file = {path}\n\n[experiment]\nkind = green\n")
        argv = ["run", str(cfg), "--out", str(tmp_path / "out")]
    else:
        argv = ["coupling", "--fixture", "lat1", "--ambient-size", "33", "--constant", "1",
                source, str(path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "validation error" in err and "v.txt" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, flag", [
    (["heat", "--out", ""], "--out"),
    (["heat", "--out", "out", "--potential", " "], "--potential"),
    (["coupling", "--out", "out", "--constant", "1", "--pert-indicator", "0", "--pert-file", ""],
     "--pert-file"),
    (["perturb", "--out", "out", "--pert-indicator", "0", "--kind", ""], "--kind"),
    (["run", "s.cfg", "--out", ""], "--out"),
])
def test_blank_text_input_exits_2(tmp_path, monkeypatch, capsys, argv, flag):
    # a blank --out once ended in a FileNotFoundError traceback, and a blank
    # --potential or --pert-file was silently ignored
    monkeypatch.chdir(tmp_path)
    (tmp_path / "s.cfg").write_text("[fixture]\nname = lat1\nambient_size = 33\n\n"
                                    "[experiment]\nkind = heat\n")
    if argv[0] != "run":
        argv = argv + ["--fixture", "lat1", "--ambient-size", "33"]
    assert main(argv) == 2
    assert f"validation error: {flag}: blank text" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["s.cfg"]


def test_blank_text_key_keeps_its_default(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "s.cfg").write_text(
        "[fixture]\nname = lat1\nambient_size = 257\n\n[operator]\npotential_file =\n\n"
        "[experiment]\nkind = heat\n\n[output]\ndir =\nprefix =\n")
    assert main(["run", "s.cfg"]) == 0
    assert "status: converged" in capsys.readouterr().out
    assert (tmp_path / "out" / "heat_summary.txt").exists()


@pytest.mark.parametrize("argv", [
    ["green", "--x", "0", "--y", "1"],
    ["heat", "--x", "0", "--y", "1", "--t", "1"],
    ["classify"],
])
def test_overflowing_operator_diagonal_exits_2(tmp_path, capsys, argv):
    # P + 1e300 is strongly subcritical, but D mu = 1e310 at vertex 3 is not finite
    path = tmp_path / "path.txt"
    lines = [f"{v} {1e10 if v == 3 else 1.0}" for v in range(64)]
    lines += [f"{v} {v + 1} 1.0\n{v + 1} {v} 1.0" for v in range(63)]
    path.write_text("\n".join(lines) + "\n")
    code = main(argv + ["--fixture", str(path), "--constant", "1e300"])
    assert code == 2
    captured = capsys.readouterr()
    assert "overflows at vertex 3" in captured.err
    assert "value:" not in captured.out


def test_label_beyond_int64_exits_2(capsys):
    code = main(["heat", "--fixture", "lat1", "--ambient-size", "257",
                 "--x", "99999999999999999999", "--y", "0", "--t", "1"])
    assert code == 2
    assert "validation error" in capsys.readouterr().err


def test_readme_quick_tour_runs_as_documented():
    # the README's "Library quick tour" block, run statement by statement; each
    # bare expression's value is checked against what its comment promises
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    tour = readme.split("## Library quick tour", 1)[1]
    source = tour.split("```python\n", 1)[1].split("```", 1)[0]
    namespace, values = {}, {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.Expr):
            values[ast.unparse(node.value)] = eval(ast.unparse(node.value), namespace)
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    heat = values["ev.heat_kernel(0, 0, 1.0)"]
    assert heat.converged and heat.value == pytest.approx(0.30850832, abs=1e-8)
    assert values["ev.green(0, 0)"].diverging
    assert values["rep.label"] == "null-critical"
    assert values["hl.classify(op1, fx.exhaustion).label"] == "subcritical"
    alpha0 = values["hl.critical_coupling(op1, w, fx.exhaustion, bracket=(0, 4)).alpha0"]
    assert abs(alpha0 - math.sqrt(5.0)) <= 1e-4


def _readme_block(heading, fence):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split(heading + "\n", 1)[1]
    return section, section.split(fence + "\n", 1)[1].split("```", 1)[0]


def test_readme_cli_block_and_flag_table_match_the_input_table():
    # every `heatlab ...` line parses, flag values included, and the flag
    # table lists exactly the rows of INPUTS
    section, block = _readme_block("## CLI", "```")
    lines = [shlex.split(line)[1:] for line in block.replace("\\\n", " ").splitlines()
             if line.startswith("heatlab ")]
    assert len(lines) == 9
    for argv in lines:
        args = build_parser().parse_args(argv)
        if args.command != "run":
            experiment_config(args)
    table = set()
    for line in section.split("### Scenario configs", 1)[0].splitlines():
        if not line.startswith("| ") or "Config key" in line:
            continue
        flags, keys, commands = (c.strip() for c in re.split(r"(?<!\\)\|", line)[1:-1])
        flags = [f.split()[0] for f in re.findall(r"`([^`]+)`", flags)] or [None]
        (section_key, *more) = re.findall(r"`([^`]+)`", keys)
        name, first = section_key.split()
        commands = {"all": frozenset(_COMMANDS), "files only": frozenset()}.get(
            commands, frozenset(commands.split(", ")))
        table |= {(f, f"{name} {k}", commands) for f, k in zip(flags, [first, *more],
                                                                 strict=True)}
    assert table == {(row.flag, row.key, frozenset(row.commands)) for row in INPUTS}


def test_readme_scenario_config_is_accepted(tmp_path):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(_readme_block("### Scenario configs", "```ini")[1])
    config = ScenarioConfig.from_file(cfg)
    assert (config.fixture_name, config.kind, config.tol) == ("lat1_geo(0.5)", "theorem_limit",
                                                              1e-4)


@pytest.mark.parametrize("text, name", [
    ("[fixture]\nname = lat1\nambient-size = 129\n\n[experiment]\nkind = heat\n",
     "[fixture] ambient-size"),
    ("[fixture]\nname = lat1\n\n[experiment]\nkind = heat\ntolerance = 1e-3\n",
     "[experiment] tolerance"),
    ("[fixture]\nname = lat1\n\n[experiment]\nkind = heat\n\n[outputs]\ndir = elsewhere\n",
     "[outputs]"),
    ("[fixture]\nname = lat1\n\n[experiment]\nkind = heat\nheat_tol = 1e-3\n",
     "[experiment] heat_tol"),
    ("[fixture]\nname = lat1\n\n[experiment]\nkind = heat\ngreen_tol = 1e-3\n",
     "[experiment] green_tol"),
], ids=["ambient-size", "tolerance", "outputs", "heat_tol", "green_tol"])
def test_unknown_config_section_or_key_exits_2(tmp_path, monkeypatch, capsys, text, name):
    # these were once ignored: the run went on with the defaults and wrote to ./out
    monkeypatch.chdir(tmp_path)
    (tmp_path / "s.cfg").write_text(text)
    assert main(["run", "s.cfg"]) == 2
    captured = capsys.readouterr()
    assert "validation error" in captured.err and name in captured.err
    assert captured.out == ""
    assert sorted(os.listdir(tmp_path)) == ["s.cfg"]


def test_conjecture_ratio_runs_to_a_vanishing_verdict(capsys):
    # P+ = lat1 + 1_{0} is subcritical against the critical P0 = lat1, so
    # k_{P+}/k_{P0} vanishes; k_{P+} <= k_{P0} bounds the domination constant by 1
    code = main(["ratio", "--kind", "conjecture", "--fixture", "lat1", "--ambient-size", "4001",
                 "--pert-indicator", "0", "--x", "0", "--y", "0",
                 "--t-grid", "geometric:1:100:8"])
    assert code == 0
    out = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
    assert out["status"] == "vanishing-like"
    assert out["points"] == "8 (excluded 0)"
    assert 0.0 < float(out["domination_constant"]) <= 1.0


def test_lambda0_log_estimates_a_constant_potential(tmp_path, capsys):
    # lambda0 of lat1 + 1/2 is 1/2: the log-fit estimate of k(0, 0, t) finds it
    cfg = tmp_path / "s.cfg"
    cfg.write_text("[fixture]\nname = lat1\nambient_size = 4001\n\n[operator]\nconstant = 0.5\n\n"
                   f"[experiment]\nkind = lambda0_log\nx = 0\ny = 0\n\n"
                   f"[output]\ndir = {tmp_path / 'out'}\n")
    assert main(["run", str(cfg)]) == 0
    out = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines()
               if ": " in line)
    assert float(out["lambda0_estimate"]) == pytest.approx(0.5, abs=1e-3)
    assert (tmp_path / "out" / "lambda0_log_series.csv").exists()
