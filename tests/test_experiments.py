"""Ratio experiments, scenario configs, CSV emission.

Claims:
    - large-time theorem series reach the ground-state/mass prediction on the
      positive-critical fixture and vanish on the null-critical one
    - the resolvent route agrees with the heat route within error estimates
    - time-shift ratios converge to e^(-lambda0 tau)
    - Davies ratios are 1 on flat fixtures and reciprocal under role swap
    - the vanishing conjecture holds with the documented power; constant
      killings reproduce e^(lambda t) pointwise to 1e-9
    - scenario runs are deterministic byte-for-byte and validate configs
"""

import configparser
import os

import numpy as np
import pytest

import heatlab as hl
from heatlab.domains import single_vertex_domain
from heatlab.experiments import (
    DEFAULT_T_GRID,
    ScenarioConfig,
    _decide_series,
    run_scenario,
    write_csv,
)
from heatlab.kernels import SymmetricFactor
from heatlab.series import geometric_grid

MID_GRID = geometric_grid(1.0, 100.0, 16)


# -- theorem limit -------------------------------------------------------------

def test_theorem_series_single_vertex_constant():
    fx = single_vertex_domain()
    op = hl.assemble(fx.domain)
    s = hl.theorem_limit_series(op, fx.exhaustion, 0, 0,
                                t_grid=geometric_grid(1.0, 50.0, 8))
    assert np.allclose(s.values, 1.0, atol=1e-12)
    assert s.status is hl.SeriesStatus.CONVERGED_TO
    assert s.extrapolated_limit == pytest.approx(1.0, abs=1e-9)
    assert s.predicted_limit == pytest.approx(1.0)


def test_theorem_series_geo(geo, geo_op, geo_ev):
    s = hl.theorem_limit_series(geo_op, geo.exhaustion, 0, 1, evaluator=geo_ev,
                                t_grid=geometric_grid(0.5, 16.0, 16), heat_tol=1e-4)
    assert s.status is hl.SeriesStatus.CONVERGED_TO
    assert s.values[-1] == pytest.approx(1.0 / 3.0, rel=0.01)
    assert s.extrapolated_limit == pytest.approx(1.0 / 3.0, rel=0.01)
    assert s.predicted_limit == pytest.approx(1.0 / 3.0, rel=1e-6)


def test_theorem_series_lat1_vanishes(lat1, lat1_op, lat1_ev):
    s = hl.theorem_limit_series(lat1_op, lat1.exhaustion, 0, 0, evaluator=lat1_ev,
                                t_grid=MID_GRID)
    assert s.status is hl.SeriesStatus.VANISHING_LIKE
    assert s.predicted_limit == 0.0
    assert s.trend_power == pytest.approx(-0.5, abs=0.1)
    # (4 pi t)^(-1/2) profile
    t_last = s.t[-1]
    assert s.values[-1] * np.sqrt(4 * np.pi * t_last) == pytest.approx(1.0, rel=0.05)


# -- series verdicts -----------------------------------------------------------

def test_alternating_tail_is_non_monotone():
    t = np.arange(1.0, 11.0)
    v = 1.0 + 0.5 * (-1.0) ** np.arange(10)  # 1.5, 0.5, 1.5, ...: range 2/3 of the max
    s = _decide_series(t, v, [0] * 10)
    assert s.status is hl.SeriesStatus.NON_MONOTONE
    assert s.limit_model == "oscillating tail"
    assert s.extrapolated_limit == v[-1]


def test_one_rise_then_one_fall_is_not_settled():
    # one sign change of the increments, range half the max: neither settled nor oscillating
    s = _decide_series(np.arange(1.0, 6.0), [1.0, 1.5, 2.0, 1.5, 1.0], [0] * 5)
    assert s.status is hl.SeriesStatus.INCONCLUSIVE
    assert s.limit_model == "tail not settled"


# -- resolvent -----------------------------------------------------------------

def test_resolvent_single_vertex_identity():
    fx = single_vertex_domain()
    op = hl.assemble(fx.domain, hl.Potential.constant(fx.domain, 2.0))
    s = hl.resolvent_limit(op, fx.exhaustion, 0, 0,
                           lambda_deltas=[0.5, 0.25, 0.125, 0.0625])
    assert np.allclose(s.values, 1.0, atol=1e-12)
    assert s.extrapolated_limit == pytest.approx(1.0, abs=1e-10)


def test_resolvent_agrees_with_heat_route(geo, geo_op, geo_ev):
    heat = hl.theorem_limit_series(geo_op, geo.exhaustion, 0, 1, evaluator=geo_ev,
                                   t_grid=geometric_grid(0.5, 16.0, 16), heat_tol=1e-4)
    res = hl.resolvent_limit(geo_op, geo.exhaustion, 0, 1,
                             lambda_deltas=np.geomspace(0.5, 0.02, 8))
    assert res.status is hl.SeriesStatus.CONVERGED_TO
    combined = 0.01 * abs(heat.extrapolated_limit) + float(res.extras["error_estimate"])
    assert abs(res.extrapolated_limit - heat.extrapolated_limit) <= combined + 1e-3


def test_resolvent_rejects_lambda_above_lambda0(lat1, lat1_plus1_op):
    # deltas <= 0 means lambda >= lambda0
    with pytest.raises(hl.ValidationError):
        hl.resolvent_limit(lat1_plus1_op, lat1.exhaustion, 0, 0,
                           lambda_deltas=[0.1, -0.1])


def test_resolvent_with_two_offsets_is_inconclusive(lat1, lat1_plus1_op):
    s = hl.resolvent_limit(lat1_plus1_op, lat1.exhaustion, 0, 0, lambda_deltas=[0.5, 0.1])
    assert s.status is hl.SeriesStatus.INCONCLUSIVE
    assert s.limit_model == "too few converged spectral points"
    assert s.t.tolist() == [0.5, 0.1] and s.values.size == 2
    assert s.extrapolated_limit == s.values[-1]


# -- time shift -----------------------------------------------------------------

def test_time_shift_single_vertex_exact():
    fx = single_vertex_domain()
    op = hl.assemble(fx.domain, hl.Potential.constant(fx.domain, 0.9))
    s = hl.time_shift_ratio_series(op, fx.exhaustion, 0, 0, -1.0,
                                   t_grid=[2.0, 4.0, 8.0, 16.0, 32.0])
    assert np.allclose(s.values, np.exp(0.9), rtol=1e-12)
    assert s.predicted_limit == pytest.approx(np.exp(0.9))


def test_time_shift_lattice_fixtures(lat1, lat1_op, lat1_plus1_op, lat1_ev, lat1_plus1_ev):
    grid = geometric_grid(5.0, 200.0, 10)
    s1 = hl.time_shift_ratio_series(lat1_plus1_op, lat1.exhaustion, 0, 0, -1.0,
                                    t_grid=grid, evaluator=lat1_plus1_ev)
    assert s1.values[-1] == pytest.approx(np.e, rel=5e-3)
    s0 = hl.time_shift_ratio_series(lat1_op, lat1.exhaustion, 0, 0, -1.0,
                                    t_grid=grid, evaluator=lat1_ev)
    assert s0.values[-1] == pytest.approx(1.0, rel=5e-3)


def test_time_shift_validates_grid(lat1, lat1_op):
    # no grid point above |tau|: nothing is usable
    with pytest.raises(hl.ValidationError):
        hl.time_shift_ratio_series(lat1_op, lat1.exhaustion, 0, 0, -2.0, t_grid=[1.0, 2.0])
    with pytest.raises(hl.ValidationError):
        hl.time_shift_ratio_series(lat1_op, lat1.exhaustion, 0, 0, +1.0, t_grid=[2.0, 3.0])


def test_time_shift_excludes_points_at_or_below_tau(lat1, lat1_plus1_op, lat1_plus1_ev):
    # the default tau = -1 with a grid starting at t = 1: that point is
    # excluded like any other unusable one, the rest of the series stands
    grid = [1.0, 5.0, 10.0, 20.0, 40.0, 80.0]
    s = hl.time_shift_ratio_series(lat1_plus1_op, lat1.exhaustion, 0, 0, -1.0,
                                   t_grid=grid, evaluator=lat1_plus1_ev)
    assert s.excluded[0] == 1.0
    assert list(s.t) == grid[1:]
    full = hl.time_shift_ratio_series(lat1_plus1_op, lat1.exhaustion, 0, 0, -1.0,
                                      t_grid=grid[1:], evaluator=lat1_plus1_ev)
    assert list(s.values) == list(full.values)


# -- davies ----------------------------------------------------------------------

def test_davies_identity_pair(lat1, lat1_op, lat1_ev):
    s = hl.davies_ratio_series(lat1_op, lat1.exhaustion, 0, 0, 0, 0,
                               t_grid=MID_GRID, evaluator=lat1_ev)
    assert np.allclose(s.values, 1.0)
    assert s.status is hl.SeriesStatus.CONVERGED_TO
    assert s.extrapolated_limit == pytest.approx(1.0, abs=1e-12)


def test_davies_lat1_ground_state_ratio(lat1, lat1_op, lat1_ev):
    report = hl.classify(lat1_op, lat1.exhaustion, evaluator=lat1_ev)
    s = hl.davies_ratio_series(lat1_op, lat1.exhaustion, 1, 0, 0, 0,
                               t_grid=MID_GRID, evaluator=lat1_ev, report=report)
    assert s.predicted_limit == pytest.approx(1.0, abs=1e-6)
    assert s.extrapolated_limit == pytest.approx(1.0, abs=0.01)


def test_davies_geo_limit_one(geo, geo_op, geo_ev):
    report = hl.classify(geo_op, geo.exhaustion, evaluator=geo_ev)
    s = hl.davies_ratio_series(geo_op, geo.exhaustion, 1, 2, 0, 0,
                               t_grid=geometric_grid(0.5, 16.0, 12),
                               evaluator=geo_ev, report=report, heat_tol=1e-4)
    assert s.predicted_limit == pytest.approx(1.0, abs=1e-6)
    assert s.values[-1] == pytest.approx(1.0, abs=0.02)


def test_davies_swap_is_reciprocal(lat1, lat1_op, lat1_ev):
    grid = geometric_grid(1.0, 50.0, 8)
    fwd = hl.davies_ratio_series(lat1_op, lat1.exhaustion, 1, 0, 0, 0,
                                 t_grid=grid, evaluator=lat1_ev)
    bwd = hl.davies_ratio_series(lat1_op, lat1.exhaustion, 0, 0, 1, 0,
                                 t_grid=grid, evaluator=lat1_ev)
    assert np.allclose(np.asarray(fwd.values) * np.asarray(bwd.values), 1.0, atol=1e-10)


# -- conjecture -------------------------------------------------------------------

def test_conjecture_power_law(lat1, lat1_op, lat1_ev):
    op_plus = hl.add_potential(lat1_op, hl.Potential.indicator(lat1.domain, [0], 1.0))
    s = hl.conjecture_ratio_series(op_plus, lat1_op, lat1.exhaustion, 0, 0,
                                   t_grid=geometric_grid(50.0, 400.0, 10))
    assert s.status is hl.SeriesStatus.VANISHING_LIKE
    assert -1.3 <= s.trend_power <= -0.7
    assert "domination_constant" in s.extras


def test_default_reference_vertex_issues_no_second_point_query(lat1, lat1_op, monkeypatch):
    # at the default y1 = y the domination pass reads the ratio series itself:
    # no level is queried twice at (x, y), and C and T(x) are those of y1 = y
    op_plus = hl.add_potential(lat1_op, hl.Potential.indicator(lat1.domain, [0], 1.0))
    grid = geometric_grid(50.0, 400.0, 10)
    explicit = hl.conjecture_ratio_series(op_plus, lat1_op, lat1.exhaustion, 0, 0,
                                          t_grid=grid, y1=0)
    queries, kernels = [], SymmetricFactor.kernels

    def counted(self, ix, iy, ts):
        queries.append((id(self), ix, iy))
        return kernels(self, ix, iy, ts)

    monkeypatch.setattr(SymmetricFactor, "kernels", counted)
    default = hl.conjecture_ratio_series(op_plus, lat1_op, lat1.exhaustion, 0, 0, t_grid=grid)
    assert queries and len(set(queries)) == len(queries)
    assert default.extras == explicit.extras


def test_conjecture_exponential_shift_identity(lat1, lat1_op, lat1_ev):
    lam = -0.5
    op_plus = hl.shift(lat1_op, lam)  # adds the constant killing 0.5
    s = hl.conjecture_ratio_series(op_plus, lat1_op, lat1.exhaustion, 0, 0,
                                   t_grid=geometric_grid(1.0, 100.0, 10))
    assert s.status is hl.SeriesStatus.VANISHING_LIKE
    assert s.exponential_like
    expected = np.exp(lam * np.asarray(s.t))
    assert np.allclose(s.values, expected, rtol=1e-9)


def test_conjecture_preconditions(lat1, lat1_op, lat1_plus1_op):
    with pytest.raises(hl.ValidationError):
        hl.conjecture_ratio_series(lat1_op, lat1_op, lat1.exhaustion, 0, 0,
                                   t_grid=[1.0, 2.0, 4.0])  # P+ not subcritical
    with pytest.raises(hl.ValidationError):
        hl.conjecture_ratio_series(lat1_plus1_op, lat1_plus1_op, lat1.exhaustion, 0, 0,
                                   t_grid=[1.0, 2.0, 4.0])  # P0 not critical


# -- scenario configs and CSV ------------------------------------------------------

CONFIG_TEXT = """
[fixture]
name = lat1_geo(0.5)
ambient_size = 513

[operator]

[experiment]
kind = theorem_limit
x = 0
y = 1
t_grid = geometric:0.5:4:6
tol = 1e-3

[output]
dir = {out}
prefix = demo_
"""


def _write_config(tmp_path, text):
    path = tmp_path / "scenario.cfg"
    path.write_text(text)
    return path


def test_run_scenario_writes_artifacts(tmp_path):
    out = tmp_path / "results"
    cfg = ScenarioConfig.from_file(_write_config(tmp_path, CONFIG_TEXT.format(out=out)))
    result = run_scenario(cfg)
    assert result.exit_status == 0
    series_csv = out / "demo_theorem_limit_series.csv"
    assert series_csv.exists()
    lines = series_csv.read_bytes().split(b"\n")
    assert lines[0] == b"t,level,value"
    assert b"\r" not in series_csv.read_bytes()
    assert (out / "demo_theorem_limit_summary.txt").exists()


def test_run_scenario_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        cfg = ScenarioConfig.from_file(_write_config(tmp_path, CONFIG_TEXT.format(out=out)))
        run_scenario(cfg)
    f1 = (out1 / "demo_theorem_limit_series.csv").read_bytes()
    f2 = (out2 / "demo_theorem_limit_series.csv").read_bytes()
    assert f1 == f2


def test_csv_float_format(tmp_path):
    path = tmp_path / "vals.csv"
    write_csv(path, ["t", "value"], [{"t": 1.0, "value": 1.0 / 3.0}])
    content = path.read_text()
    assert "0.33333333333333331" in content  # 17 significant digits


def test_config_validation_errors(tmp_path):
    bad = "[fixture]\nname = nonsense\n\n[experiment]\nkind = heat\n"
    cfg = ScenarioConfig.from_file(_write_config(tmp_path, bad))
    with pytest.raises(hl.ValidationError):
        run_scenario(cfg)

    missing = "[experiment]\nkind = heat\n"
    with pytest.raises(hl.ValidationError):
        ScenarioConfig.from_file(_write_config(tmp_path, missing))

    empty_grid = ("[fixture]\nname = lat1\n\n[experiment]\nkind = theorem_limit\n"
                  "t_grid = \n")
    cfg3 = ScenarioConfig.from_file(_write_config(tmp_path, empty_grid))
    assert cfg3.t_grid is None  # empty means default

    bad_grid = ("[fixture]\nname = lat1\n\n[experiment]\nkind = theorem_limit\n"
                "t_grid = 3 2 1\n")
    with pytest.raises(hl.ValidationError):
        ScenarioConfig.from_file(_write_config(tmp_path, bad_grid))

    unknown_kind = "[fixture]\nname = lat1\n\n[experiment]\nkind = wat\n"
    with pytest.raises(hl.ValidationError):
        ScenarioConfig.from_file(_write_config(tmp_path, unknown_kind))


def test_config_tol_is_one_key(tmp_path):
    cfg = ScenarioConfig.from_file(_write_config(tmp_path, CONFIG_TEXT.format(out=tmp_path)))
    assert cfg.tol == 1e-3
    for old in ("heat_tol", "green_tol"):
        text = CONFIG_TEXT.format(out=tmp_path).replace("tol = 1e-3", f"{old} = 1e-3")
        with pytest.raises(hl.ValidationError, match=rf"unknown key \[experiment\] {old}"):
            ScenarioConfig.from_file(_write_config(tmp_path, text))


def test_no_partial_output_on_bad_fixture(tmp_path):
    out = tmp_path / "never"
    bad = f"[fixture]\nname = nonsense\n\n[experiment]\nkind = heat\n\n[output]\ndir = {out}\n"
    cfg = ScenarioConfig.from_file(_write_config(tmp_path, bad))
    with pytest.raises(hl.ValidationError):
        run_scenario(cfg)
    assert not out.exists()


def test_scenario_classify_and_green_kinds(tmp_path):
    text = (f"[fixture]\nname = lat1\nambient_size = 257\n\n"
            f"[experiment]\nkind = green\nx = 0\ny = 0\n\n[output]\ndir = {tmp_path/'g'}\n")
    cfg = ScenarioConfig.from_file(_write_config(tmp_path, text))
    result = run_scenario(cfg)
    assert result.exit_status == 0
    assert "status: diverging" in result.summary


def test_scenario_inconclusive_exit_code(tmp_path):
    text = (f"[fixture]\nname = lat1\nambient_size = 33\n\n"
            f"[experiment]\nkind = heat\nx = 0\ny = 0\nt = 200\n\n"
            f"[output]\ndir = {tmp_path/'i'}\n")
    cfg = ScenarioConfig.from_file(_write_config(tmp_path, text))
    result = run_scenario(cfg)
    assert result.exit_status == 3


def test_resolvent_matches_theorem_verdict_on_lat1(lat1, lat1_op, lat1_ev):
    # null-critical: both routes give limit 0
    heat = hl.theorem_limit_series(lat1_op, lat1.exhaustion, 0, 0, evaluator=lat1_ev,
                                   t_grid=MID_GRID)
    assert heat.status is hl.SeriesStatus.VANISHING_LIKE
    res = hl.resolvent_limit(lat1_op, lat1.exhaustion, 0, 0,
                             lambda_deltas=np.geomspace(0.4, 0.01, 8))
    assert abs(res.extrapolated_limit) <= 0.02
    # values behave like sqrt(delta)/2
    assert res.values[-1] == pytest.approx(np.sqrt(res.t[-1]) / 2.0, rel=0.1)


def test_resolvent_subcritical_killing_limit_zero(lat1, lat1_plus1_op):
    res = hl.resolvent_limit(lat1_plus1_op, lat1.exhaustion, 0, 0,
                             lambda_deltas=np.geomspace(0.4, 0.01, 8))
    assert abs(res.extrapolated_limit) <= 0.02  # subcritical shifted: limit 0
