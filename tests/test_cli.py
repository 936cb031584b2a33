"""CLI subcommands, flags and exit codes (0 ok / 2 validation / 3 inconclusive)."""

import os

import pytest
from scipy import special

from heatlab.cli import main


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


def test_ratio_time_shift(capsys, tmp_path):
    out_dir = str(tmp_path / "csv")
    code = main(["ratio", "--kind", "time-shift", "--fixture", "lat1",
                 "--ambient-size", "1025", "--constant", "1.0",
                 "--x", "0", "--y", "0", "--tau", "-1",
                 "--t-grid", "geometric:5:50:8", "--out", out_dir])
    assert code == 0
    assert os.path.exists(os.path.join(out_dir, "time_shift_series.csv"))


def test_coupling_command(capsys):
    code = main(["coupling", "--fixture", "lat1", "--ambient-size", "1025",
                 "--constant", "1.0", "--pert-indicator", "0",
                 "--pert-value", "-1.0", "--bracket", "0", "4"])
    assert code == 0
    out = capsys.readouterr().out
    assert "alpha0: 2.236" in out


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


def test_overflowing_lanczos_shift_is_a_restriction_failure(tmp_path, capsys):
    # D = +-1e308 is finite, but D - sigma, sigma = min D - 1, overflows
    pot = tmp_path / "pot.txt"
    pot.write_text("0 1e308\n5 -1e308\n")
    assert main(["heat", "--fixture", "lat1", "--ambient-size", "129", "--potential", str(pot),
                 "--x", "1", "--y", "1", "--t", "1"]) == 0
    out = capsys.readouterr().out
    assert "status: diverging" in out and "shifted restriction overflows" in out


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


def test_run_missing_config(capsys):
    code = main(["run", "/nonexistent/path.cfg"])
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["classify", "--fixture", "lat1", "--ambient-size", "257", "--constant", "-0.5"],
    # A - min(D) D_mu cancels to an exactly singular matrix at this scale
    ["lambda0", "--fixture", "lat1", "--ambient-size", "33", "--constant", "1e17"],
    ["classify", "--fixture", "lat1", "--ambient-size", "33", "--constant", "1e17"],
])
def test_numerical_failure_exits_4(argv, capsys):
    code = main(argv)
    assert code == 4
    assert "numerical failure" in capsys.readouterr().err



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
