"""CLI subcommands, flags and exit codes (0 ok / 2 validation / 3 inconclusive)."""

import os

import pytest

from heatlab.cli import main


def test_heat_ok(capsys):
    code = main(["heat", "--fixture", "lat1", "--ambient-size", "257",
                 "--x", "0", "--y", "0", "--t", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "k(0,0,1)" in out and "converged" in out


def test_unknown_fixture_exits_2(capsys):
    code = main(["heat", "--fixture", "wat"])
    assert code == 2
    assert "validation error" in capsys.readouterr().err


def test_inconclusive_exits_3(capsys):
    code = main(["heat", "--fixture", "lat1", "--ambient-size", "33", "--t", "100"])
    assert code == 3


def test_green_and_lambda0(capsys):
    code = main(["green", "--fixture", "lat1", "--ambient-size", "257",
                 "--constant", "1.0", "--x", "0", "--y", "0"])
    assert code == 0
    assert "0.4472135954" in capsys.readouterr().out
    code = main(["lambda0", "--fixture", "lat1", "--ambient-size", "513",
                 "--constant", "0.5"])
    assert code == 0
    assert "lambda0 = 0.49999999" in capsys.readouterr().out


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
    assert os.path.exists(os.path.join(out_dir, "ratio_time-shift.csv"))


def test_coupling_command(capsys):
    code = main(["coupling", "--fixture", "lat1", "--ambient-size", "1025",
                 "--constant", "1.0", "--pert-indicator", "0",
                 "--pert-value", "-1.0", "--bracket", "0", "4"])
    assert code == 0
    out = capsys.readouterr().out
    assert "alpha0 = 2.236" in out


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


def test_run_missing_config(capsys):
    code = main(["run", "/nonexistent/path.cfg"])
    assert code == 2


def test_numerical_failure_exits_4(capsys):
    code = main(["classify", "--fixture", "lat1", "--ambient-size", "257",
                 "--constant", "-0.5"])
    assert code == 4
    assert "numerical failure" in capsys.readouterr().err


def test_edge_list_fixture_from_cli(tmp_path, capsys):
    path = tmp_path / "tri.txt"
    path.write_text("0 1.0\n1 1.0\n2 1.0\n"
                    "0 1 1.0\n1 0 1.0\n1 2 1.0\n2 1 1.0\n0 2 1.0\n2 0 1.0\n")
    code = main(["heat", "--fixture", str(path), "--x", "0", "--y", "1", "--t", "1"])
    assert code == 0
    assert "k(0,1,1)" in capsys.readouterr().out


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
