"""Large-time ratio experiments, scenario configs and CSV emission.

Each experiment produces a series over a time (or spectral-parameter) grid
whose entries come from exhaustion-converged kernel evaluations; entries
whose underlying limit did not certify are excluded, never interpolated.
Extrapolated limits are tagged with the fitted model so that no fit is
mistaken for a theorem.
"""

from __future__ import annotations

import configparser
import csv
import enum
import os
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .criticality import (
    Classification,
    CriticalityReport,
    classify,
    critical_coupling,
    lambda0,
    lambda0_log_estimate,
    perturbation_integrals,
)
from .domains import fixture as resolve_fixture
from .errors import NumericalError, ValidationError
from .kernels import HeatKernelEvaluator, LimitStatus
from .operators import EllipticOperator, Potential, add_potential, assemble, shift
from .series import (
    fit_exponential_rate,
    fit_loglog_slope,
    fit_power_tail,
    geometric_grid,
)

DEFAULT_T_GRID = geometric_grid(1.0, 400.0, 40)


class SeriesStatus(enum.Enum):
    CONVERGED_TO = "converged-to"
    VANISHING_LIKE = "vanishing-like"
    NON_MONOTONE = "non-monotone"
    INCONCLUSIVE = "inconclusive"


@dataclass
class RatioSeries:
    """A sampled large-time series with its extrapolation and verdict.

    ``t`` is the series parameter (time for kernel ratios, the spectral
    offset for the resolvent route); every value carries the exhaustion
    level at which the underlying kernels were certified.
    """

    t: np.ndarray
    values: np.ndarray
    levels: list
    status: SeriesStatus
    extrapolated_limit: float
    limit_model: str
    trend_power: float = float("nan")
    predicted_limit: float | None = None
    exponential_like: bool = False
    excluded: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    def rows(self, param="t"):
        return [{param: tt, "level": lv, "value": vv}
                for tt, lv, vv in zip(self.t, self.levels, self.values)]

    def summary(self):
        lines = [
            f"status: {self.status.value}",
            f"extrapolated_limit: {self.extrapolated_limit:.10g}",
            f"limit_model: {self.limit_model}",
            f"points: {len(self.t)} (excluded {len(self.excluded)})",
        ]
        if np.isfinite(self.trend_power):
            lines.append(f"trend_power: {self.trend_power:.6g}")
        if self.predicted_limit is not None:
            lines.append(f"predicted_limit: {self.predicted_limit:.10g}")
        if self.exponential_like:
            lines.append("exponential_decay: yes")
        for k, v in self.extras.items():
            lines.append(f"{k}: {v}")
        return "\n".join(lines) + "\n"


def _decide_series(t, values, levels, predicted=None, excluded=None):
    """Classify a computed series and fit its limit."""
    t = np.asarray(t, dtype=float)
    v = np.asarray(values, dtype=float)
    excluded = excluded or []
    if t.size < 5:
        return RatioSeries(t, v, levels, SeriesStatus.INCONCLUSIVE,
                           float(v[-1]) if v.size else float("nan"),
                           "too few converged points", predicted_limit=predicted,
                           excluded=excluded)
    tail = t >= t[-1] / 10.0
    if tail.sum() < 5:
        tail = np.zeros_like(t, dtype=bool)
        tail[-5:] = True
    tv, vv = t[tail], v[tail]
    a, b, p, resid = fit_power_tail(tv, vv)
    scale = max(np.max(np.abs(vv)), 1e-300)

    decreasing = bool(np.all(np.diff(vv) <= 1e-12 * scale))
    increasing = bool(np.all(np.diff(vv) >= -1e-12 * scale))
    if decreasing and vv[-1] < 0.5 * vv[0] and np.all(vv > 0.0):
        slope = fit_loglog_slope(t, v)[0]
        rate, exp_resid = fit_exponential_rate(tv, vv)
        lv = np.log(vv)
        ll_fit = np.polyfit(np.log(tv), lv, 1)
        ll_resid = float(np.sqrt(np.mean((np.polyval(ll_fit, np.log(tv)) - lv) ** 2)))
        exponential = exp_resid < 0.3 * max(ll_resid, 1e-15) and rate > 0.0
        model = f"exp(-{rate:.6g} t)" if exponential else f"t^{slope:.4g} (log-log fit)"
        return RatioSeries(t, v, levels, SeriesStatus.VANISHING_LIKE, 0.0, model,
                           trend_power=slope,
                           predicted_limit=predicted, exponential_like=exponential,
                           excluded=excluded)
    rel_range = (vv.max() - vv.min()) / scale
    if rel_range < 0.25 or (increasing or decreasing):
        # settled (or settling monotonically): a + b t^-p fit supplies the limit
        return RatioSeries(t, v, levels, SeriesStatus.CONVERGED_TO, float(a),
                           f"a+b*t^-{p:g} fit (rms {resid:.2g})",
                           trend_power=-p, predicted_limit=predicted, excluded=excluded)
    sign_changes = np.sum(np.diff(np.sign(np.diff(vv))) != 0)
    if sign_changes >= 2:
        return RatioSeries(t, v, levels, SeriesStatus.NON_MONOTONE, float(v[-1]),
                           "oscillating tail", predicted_limit=predicted, excluded=excluded)
    return RatioSeries(t, v, levels, SeriesStatus.INCONCLUSIVE, float(a),
                       "tail not settled", predicted_limit=predicted, excluded=excluded)


def _t_grid(t_grid):
    grid = DEFAULT_T_GRID if t_grid is None else np.asarray(list(t_grid), dtype=float)
    if not np.all(np.isfinite(grid) & (grid > 0.0)):
        raise ValidationError("t grid times must be finite and positive")
    return grid


def _sample(grid, points):
    """Pair the grid with its ``points``, each (value, level) or None: the kept
    t, values and levels, and the t excluded by a None."""
    ts, vals, levels, excluded = [], [], [], []
    for t, p in zip(grid, points, strict=True):
        if p is None:
            excluded.append(float(t))
        else:
            ts.append(float(t))
            vals.append(p[0])
            levels.append(p[1])
    return ts, vals, levels, excluded


def _ratio(num, den):
    """(num/den, level) of two kernel limits; None unless both converged and den > 0."""
    if not (num.converged and den.converged) or den.value <= 0.0:
        return None
    return num.value / den.value, max(num.level, den.level)


def _ground_state_limit(domain, report, x, y, ref=None):
    """phi(x) phi*(y)/mass when the report is positive-critical, else 0; with
    ref = (x0, y0), the ratio phi(x) phi*(y)/(phi(x0) phi*(y0)).  Ground states
    are read by position; None where one is NaN (outside the last usable level)."""
    if ref is None and report.classification is not Classification.POSITIVE_CRITICAL:
        return 0.0
    phi, phi_star = report.ground_state, report.adjoint_ground_state
    px, py, *pref = domain._positions([x, y, *(ref or ())], "ground-state query")
    den = report.mass.value if ref is None else phi[pref[0]] * phi_star[pref[1]]
    value = float(phi[px] * phi_star[py] / den)
    return None if np.isnan(value) else value


def theorem_limit_series(op: EllipticOperator, exhaustion, x, y, t_grid=None,
                         evaluator=None, report: CriticalityReport = None,
                         heat_tol=None) -> RatioSeries:
    """Series e^(lambda0 t) k(x, y, t): limit phi(x) phi*(y)/mass when the
    shifted operator is positive-critical, 0 otherwise."""
    grid = _t_grid(t_grid)
    ev = evaluator or HeatKernelEvaluator(op, exhaustion)
    if report is None:
        report = classify(op, exhaustion, evaluator=ev, green_tol=heat_tol)
    lam0 = report.lambda0.value

    def point(t, r):
        if not r.converged or r.value <= 0.0:
            return None
        # exp(lam0 t) k can overflow pointwise even though the product is finite
        return float(np.exp(lam0 * t + np.log(r.value))), r.level

    ts, vals, levels, excluded = _sample(
        grid, map(point, grid, ev.heat_kernels(x, y, grid, tol=heat_tol)))
    series = _decide_series(ts, vals, levels, excluded=excluded,
                            predicted=_ground_state_limit(op.domain, report, x, y))
    series.extras["lambda0"] = f"{lam0:.12g}"
    series.extras["classification"] = report.label
    return series


def resolvent_limit(op: EllipticOperator, exhaustion, x, y, lambda_deltas=None,
                    green_tol=None) -> RatioSeries:
    """Series (lambda0 - lambda) G_{P-lambda}(x, y) for lambda approaching
    lambda0 from below; its limit matches the large-time kernel limit."""
    report = classify(op, exhaustion, green_tol=green_tol)
    lam0 = report.lambda0.value
    if lambda_deltas is None:
        lambda_deltas = geometric_grid(0.5, 0.01, 10)
    deltas = np.asarray(sorted(lambda_deltas, reverse=True), dtype=float)
    if np.any(deltas <= 0.0):
        raise ValidationError("lambda grid must approach lambda0 strictly from below")
    if np.any(lam0 - deltas == lam0):  # then so does deltas[-1], the smallest offset
        raise ValidationError(f"lambda0 - {deltas[-1]:g} rounds to lambda0 = {lam0:.12g}")

    def point(delta):
        lam = lam0 - delta
        g = HeatKernelEvaluator(shift(op, lam), exhaustion).green(x, y, tol=green_tol)
        if g.diverging:
            raise NumericalError(
                f"green limit diverged at lambda={lam:g} below lambda0: "
                "the lambda0 estimate is off")
        return (float(delta * g.value), g.level) if g.converged else None

    ds, vals, levels, excluded = _sample(deltas, map(point, deltas))
    if len(vals) < 3:
        return RatioSeries(np.asarray(ds), np.asarray(vals), levels,
                           SeriesStatus.INCONCLUSIVE,
                           vals[-1] if vals else float("nan"),
                           "too few converged spectral points", excluded=excluded)
    # extrapolate delta -> 0: fit a + b delta^p via the power-tail fit in 1/delta
    inv = 1.0 / np.asarray(ds)
    a, bcoef, p, resid = fit_power_tail(inv, np.asarray(vals))
    series = RatioSeries(np.asarray(ds), np.asarray(vals), levels,
                         SeriesStatus.CONVERGED_TO, float(a),
                         f"a+b*delta^{p:g} fit (rms {resid:.2g})",
                         predicted_limit=_ground_state_limit(op.domain, report, x, y),
                         excluded=excluded)
    series.extras["lambda0"] = f"{lam0:.12g}"
    series.extras["error_estimate"] = f"{max(resid, abs(bcoef) * ds[-1] ** p * 0.1):.3g}"
    return series


def time_shift_ratio_series(op: EllipticOperator, exhaustion, x, y, tau,
                            t_grid=None, evaluator=None, heat_tol=None) -> RatioSeries:
    """Series k(x, y, t+tau)/k(x, y, t) for tau < 0; the limit is e^(-lambda0 tau)
    for symmetric operators (asserted only there; reported otherwise).  Grid
    points t <= |tau|, where t + tau is not a positive time, are excluded."""
    tau = float(tau)
    if tau >= 0.0:
        raise ValidationError("tau must be negative")
    ev = evaluator or HeatKernelEvaluator(op, exhaustion)
    t_grid = _t_grid(t_grid)
    if not np.any(t_grid > -tau):
        raise ValidationError("t grid has no point above |tau|")

    later = t_grid[t_grid > -tau]  # t + tau is a positive time
    limits = ev.heat_kernels(x, y, np.concatenate((later + tau, later)), tol=heat_tol)
    ratios = map(_ratio, limits[:later.size], limits[later.size:])
    ts, vals, levels, excluded = _sample(
        t_grid, (None if t <= -tau else next(ratios) for t in t_grid))
    predicted = None
    if op.symmetric:
        predicted = float(np.exp(-lambda0(op, exhaustion, evaluator=ev).value * tau))
    series = _decide_series(ts, vals, levels, predicted=predicted, excluded=excluded)
    series.extras["tau"] = f"{tau:g}"
    if not op.symmetric:
        series.extras["note"] = ("nonsymmetric operator: the e^(-lambda0 tau) limit "
                                 "presupposes the large-time ratio hypothesis; reported, not asserted")
    return series


def davies_ratio_series(op: EllipticOperator, exhaustion, x, y, x0, y0,
                        t_grid=None, evaluator=None, report=None,
                        heat_tol=None) -> RatioSeries:
    """Series k(x, y, t)/k(x0, y0, t); for symmetric critical operators the
    limit is the ground-state ratio phi(x) phi*(y)/(phi(x0) phi*(y0))."""
    ev = evaluator or HeatKernelEvaluator(op, exhaustion)
    grid = _t_grid(t_grid)
    limits = ev.heat_kernels(x, y, grid, tol=heat_tol)
    ref = limits if (x0, y0) == (x, y) else ev.heat_kernels(x0, y0, grid, tol=heat_tol)
    ts, vals, levels, excluded = _sample(grid, map(_ratio, limits, ref))
    predicted = None
    if report is not None and report.ground_state is not None and op.symmetric:
        predicted = _ground_state_limit(op.domain, report, x, y, ref=(x0, y0))
    return _decide_series(ts, vals, levels, predicted=predicted, excluded=excluded)


def conjecture_ratio_series(op_plus: EllipticOperator, op_zero: EllipticOperator,
                            exhaustion, x, y, t_grid=None, y1=None,
                            heat_tol=None) -> RatioSeries:
    """Series k_{P+}(x, y, t)/k_{P0}(x, y, t) for subcritical P+ against critical P0.

    Also estimates the empirical domination constant C and onset time T(x)
    at the reference vertex y1: the sup of k_{P+}(x, y1, t)/k_{P0}(x, y1, t)
    past its observed peak.
    """
    grid = _t_grid(t_grid)
    ev_plus = HeatKernelEvaluator(op_plus, exhaustion)
    ev_zero = HeatKernelEvaluator(op_zero, exhaustion)
    rep_zero = classify(op_zero, exhaustion, evaluator=ev_zero)
    rep_plus = classify(op_plus, exhaustion, evaluator=ev_plus)
    if rep_zero.classification is Classification.SUBCRITICAL:
        raise ValidationError("the reference operator must be critical")
    if rep_plus.classification is not Classification.SUBCRITICAL:
        raise ValidationError("the perturbed operator must be subcritical")

    def ratios(grid, yy):
        return _sample(grid, map(_ratio, ev_plus.heat_kernels(x, yy, grid, tol=heat_tol),
                                 ev_zero.heat_kernels(x, yy, grid, tol=heat_tol)))

    ts, vals, levels, excluded = ratios(grid, y)
    series = _decide_series(ts, vals, levels, predicted=0.0, excluded=excluded)
    series.extras["lambda_plus"] = f"{rep_plus.lambda0.value:.10g}"

    t_dom, rx = (ts, vals) if y1 is None else ratios(ts, int(y1))[:2]
    c_emp, onset = 0.0, ""
    if rx:
        peak = int(np.argmax(rx))
        onset = f"{int(x)}:{t_dom[peak]:g}"
        c_emp = max(c_emp, float(rx[peak]))
    series.extras["domination_constant"] = f"{c_emp:.10g}"
    series.extras["onset_times"] = onset
    return series


# ---------------------------------------------------------------------------
# scenario configs, CSV emission and the run driver

def _fmt(v):
    if isinstance(v, float):
        return f"{v:.17g}"
    if isinstance(v, (np.floating,)):
        return f"{float(v):.17g}"
    return str(v)


def write_csv(path, fieldnames, rows):
    """ASCII CSV, header row, 17 significant digits, LF line endings."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([_fmt(row.get(k, "")) for k in fieldnames])


EXPERIMENT_KINDS = (
    "classify", "heat", "green", "lambda0", "lambda0_log", "theorem_limit",
    "resolvent", "time_shift", "davies", "conjecture", "coupling",
    "perturb_integrals",
)


def parse_grid(raw, name):
    """Grid from ``geometric:start:stop:n`` or a comma/space separated list.

    Returns None for an empty spec; the grid must be finite and strictly
    increasing.  Errors are ValidationErrors prefixed with ``name``.
    """
    raw = raw.strip()
    if not raw:
        return None
    if raw.startswith("geometric:"):
        parts = raw.split(":")[1:]
        if len(parts) != 3:
            raise ValidationError(f"{name}: expected geometric:start:stop:n")
        try:
            grid = geometric_grid(float(parts[0]), float(parts[1]), int(parts[2]))
        except ValueError:
            raise ValidationError(f"{name}: bad geometric spec {raw!r}") from None
    else:
        try:
            grid = np.asarray([float(v) for v in raw.replace(",", " ").split()])
        except ValueError:
            raise ValidationError(f"{name}: cannot parse grid {raw!r}") from None
    if grid.size == 0:
        raise ValidationError(f"{name}: grid is empty")
    if not np.all(np.isfinite(grid)):
        raise ValidationError(f"{name}: grid values must be finite")
    if np.any(np.diff(grid) <= 0.0):
        raise ValidationError(f"{name}: grid must be strictly increasing")
    return grid


def parse_indicator(raw, name):
    """Vertex list of an indicator potential from a comma/space separated spec.

    Returns [] for an empty spec; errors are ValidationErrors prefixed with ``name``.
    """
    try:
        return [int(v) for v in raw.replace(",", " ").split()]
    except ValueError:
        raise ValidationError(f"{name}: bad vertex list {raw!r}") from None


def _parse_number(conv, what):
    def parse(raw, name):
        try:
            return conv(raw)
        except ValueError:
            raise ValidationError(f"{name}: not {what}: {raw!r}") from None
    return parse


def _parse_bracket(raw, name):
    try:
        lo, hi = [float(v) for v in raw.replace(",", " ").split()]
    except ValueError:
        raise ValidationError(f"{name}: expected two numbers, got {raw!r}") from None
    return lo, hi


def parse_text(raw, name):
    """Text such as a path; blank text is a ValidationError prefixed with ``name``."""
    if not raw.strip():
        raise ValidationError(f"{name}: blank text")
    return raw


_FLOAT = _parse_number(float, "a number")
_INT = _parse_number(int, "an integer")


# The one input schema of the CLI and of scenario files, in the CLI's help
# order.  A row is an input: the ScenarioConfig field it sets, its "[section]
# key" in a scenario file, its CLI flag (None: files only), the one parser of
# its raw text, and the subcommands that take the flag.  Only the fixture name
# ([fixture] name, --fixture) and the experiment kind ([experiment] kind, the
# subcommand and ratio's --kind) stay outside it.
Input = namedtuple("Input", "field key flag parse commands help metavar nargs",
                   defaults=((), None, None, None))
_ALL = ("classify", "heat", "green", "lambda0", "ratio", "perturb", "coupling")
_PERT, _RATIO = ("ratio", "perturb", "coupling"), ("ratio",)
INPUTS = (
    Input("potential_file", "[operator] potential_file", "--potential", parse_text, _ALL,
          "potential file `x V(x)` per line", "FILE"),
    Input("constant", "[operator] constant", "--constant", _FLOAT, _ALL,
          "add a constant potential"),
    Input("coupling", "[operator] coupling", "--coupling", _FLOAT, _ALL,
          "coupling applied to the potential file"),
    Input("x", "[experiment] x", "--x", _INT, _ALL),
    Input("y", "[experiment] y", "--y", _INT, _ALL),
    Input("t", "[experiment] t", "--t", _FLOAT, _ALL),
    Input("tol", "[experiment] tol", "--tol", _FLOAT, _ALL,
          "tolerance of the heat, Green and lambda0 limits"),
    Input("ambient_size", "[fixture] ambient_size", "--ambient-size", _INT, _ALL,
          "vertex count of the ambient truncation"),
    Input("out_dir", "[output] dir", "--out", parse_text, _ALL,
          "write the CSV artifacts and summary here", "DIR"),
    Input("seed", "[experiment] seed", "--seed", _INT, _ALL, "seed for sampled suprema"),
    # perturbation_integrals rejects a kind other than these two
    Input("pert_kind", "[experiment] perturbation_kind", "--kind", parse_text, ("perturb",),
          metavar="{small,semismall}"),
    Input("x0", "[experiment] x0", "--x0", _INT, ("ratio", "perturb")),
    Input("y0", "[experiment] y0", "--y0", _INT, _RATIO),
    Input("y1", "[experiment] y1", "--y1", _INT, _RATIO),
    Input("tau", "[experiment] tau", "--tau", _FLOAT, _RATIO),
    Input("t_grid", "[experiment] t_grid", "--t-grid", parse_grid, _RATIO,
          "geometric:start:stop:n or a list"),
    Input("lambda_deltas", "[experiment] lambda_deltas", "--lambda-deltas", parse_grid, _RATIO,
          "offsets below lambda0"),
    Input("bracket", "[experiment] bracket", "--bracket", _parse_bracket, ("coupling",), nargs=2),
    Input("pert_file", "[perturbation] potential_file", "--pert-file", parse_text, _PERT),
    Input("pert_indicator", "[perturbation] indicator", "--pert-indicator", parse_indicator,
          _PERT, "vertices of an indicator potential"),
    Input("pert_value", "[perturbation] value", "--pert-value", _FLOAT, _PERT),
    Input("pert_constant", "[perturbation] constant", "--pert-constant", _FLOAT, _PERT),
    Input("pert_coupling", "[perturbation] coupling", "--pert-coupling", _FLOAT, _RATIO),
    Input("prefix", "[output] prefix", None, parse_text),
)
_KEYS = {row.key: row for row in INPUTS}
_SECTIONS = ("fixture", "operator", "perturbation", "experiment", "output")
_REQUIRED = ("[fixture] name", "[experiment] kind")


@dataclass
class ScenarioConfig:
    """One validated experiment request, from a scenario file or CLI flags.

    Each field but ``fixture_name`` and ``kind`` is one row of ``INPUTS``,
    whose parser reads it from both front ends; the field defaults are the
    defaults of both.  ``tol`` is the tolerance of the heat, Green and
    lambda0 limits the kind asks for, None each limit's own default;
    ``out_dir`` None writes no files.
    """

    fixture_name: str
    kind: str
    ambient_size: int | None = None
    constant: float = 0.0
    potential_file: str | None = None
    coupling: float = 1.0
    pert_constant: float | None = None
    pert_file: str | None = None
    pert_indicator: list = field(default_factory=list)
    pert_value: float = 1.0
    pert_coupling: float = 1.0
    x: int = 0
    y: int = 0
    x0: int | None = None
    y0: int | None = None
    y1: int | None = None
    t: float = 1.0
    tau: float = -1.0
    t_grid: np.ndarray | None = None
    lambda_deltas: np.ndarray | None = None
    tol: float | None = None
    bracket: tuple = (0.0, 8.0)
    pert_kind: str = "semismall"
    seed: int = 0
    out_dir: str | None = None
    prefix: str = ""

    @classmethod
    def from_file(cls, path):
        parser = configparser.ConfigParser(interpolation=None)
        try:
            read = parser.read(path)
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ValidationError(f"cannot parse config file {path!r}: {exc}") from None
        if not read:
            raise ValidationError(f"cannot read config file {path!r}")
        return cls.from_parser(parser, path)

    @classmethod
    def from_parser(cls, parser, path="<config>"):
        """Read the file's own sections and keys; one that is not in INPUTS is
        a ValidationError naming it, and an empty key keeps the field default."""
        for section, key in (("fixture", "name"), ("experiment", "kind")):
            if section not in parser or not parser[section].get(key):
                raise ValidationError(f"{path}: missing [{section}] {key}")
        kind = parser["experiment"]["kind"].strip()
        if kind not in EXPERIMENT_KINDS:
            raise ValidationError(
                f"{path}: [experiment] kind: unknown kind {kind!r}; one of {EXPERIMENT_KINDS}")
        values = {"out_dir": "out"}
        for section in parser.sections():
            if section not in _SECTIONS:
                raise ValidationError(f"{path}: unknown section [{section}]")
            for key, raw in parser[section].items():
                name, raw = f"[{section}] {key}", raw.strip()
                if name not in _KEYS and name not in _REQUIRED:
                    raise ValidationError(f"{path}: unknown key {name}")
                if name in _KEYS and raw:
                    values[_KEYS[name].field] = _KEYS[name].parse(raw, f"{path}: {name}")
        return cls(parser["fixture"]["name"].strip(), kind, **values)


@dataclass
class ScenarioResult:
    exit_status: int
    summary: str
    csv_paths: list


def _check_out_dir(path):
    """Reject an output dir that is a file or lies under one: its nearest
    existing ancestor (itself included) must be a directory."""
    head = os.path.abspath(path)
    while not os.path.lexists(head):
        head = os.path.dirname(head)
    if not os.path.isdir(head):
        raise ValidationError(f"output dir {path}: {head} is not a directory")


def run_scenario(config: ScenarioConfig) -> ScenarioResult:
    """Execute the configured experiment; write its CSV artifacts and summary.

    Deterministic given the config.  Files go to ``config.out_dir`` only after
    the experiment succeeded, and nowhere when it is None; a dir that is a
    file or lies under one is rejected before anything is computed.  Exit
    status: 0 success, 3 when a limit or series is inconclusive (hard errors
    raise and are mapped by the CLI).
    """
    if config.out_dir is not None:
        _check_out_dir(config.out_dir)
    fixture = resolve_fixture(config.fixture_name, ambient_size=config.ambient_size)
    domain, exhaustion, kind = fixture.domain, fixture.exhaustion, config.kind
    x, y = config.x, config.y
    op = assemble(domain)
    if config.potential_file:
        op = add_potential(op, Potential.from_file(domain, config.potential_file), config.coupling)
    if config.constant:
        op = add_potential(op, Potential.constant(domain, config.constant))

    def perturbation():
        """File potential + indicator * value + constant of the perturbation."""
        parts = []
        if config.pert_file:
            parts.append(Potential.from_file(domain, config.pert_file).values)
        if config.pert_indicator:
            parts.append(Potential.indicator(domain, config.pert_indicator,
                                             config.pert_value).values)
        if config.pert_constant is not None:
            parts.append(np.full(domain.n_vertices, config.pert_constant))
        if not parts:
            raise ValidationError(f"{kind} needs a perturbation: a [perturbation] section or "
                                  "--pert-file/--pert-indicator/--pert-constant")
        return Potential(domain, sum(parts))

    lines = [f"fixture: {fixture.name}", f"experiment: {kind}"]
    tables = []  # (name, fieldnames, rows) of each CSV artifact
    inconclusive = False
    series = None
    if kind == "classify":
        report = classify(op, exhaustion, green_tol=config.tol)
        lines.append(report.to_text().rstrip())
        tables.append(("diagnostics", ["level", "lambda0_j", "green_j", "mass_j"],
                       report.diagnostic_rows()))
    elif kind in ("heat", "green"):
        ev = HeatKernelEvaluator(op, exhaustion)
        if kind == "heat":
            r = ev.heat_kernel(x, y, config.t, tol=config.tol)
        else:
            r = ev.green(x, y, tol=config.tol)
        lines += [f"value: {r.value:.17g}", f"status: {r.status.value}",
                  f"level: {r.level}", f"model: {r.model}"]
        if r.evidence:
            lines.append(f"evidence: {r.evidence}")
        tables.append(("history", ["level", "value"],
                       [{"level": j, "value": v} for j, v in r.history]))
        inconclusive = r.status is LimitStatus.INCONCLUSIVE
    elif kind == "lambda0":
        lam = lambda0(op, exhaustion, tol=config.tol)
        lines += [f"lambda0: {lam.value:.17g}", f"error_estimate: {lam.error:.3g}",
                  f"lambda0_bracket: {lam.bracket[0]:.17g} {lam.bracket[1]:.17g}"]
        tables.append(("history", ["level", "lambda0_j"],
                       [{"level": j, "lambda0_j": v} for j, v in lam.history]))
    elif kind == "lambda0_log":
        ev = HeatKernelEvaluator(op, exhaustion)
        grid = config.t_grid if config.t_grid is not None else geometric_grid(5.0, 200.0, 12)
        est = lambda0_log_estimate(ev, x, y, grid, tol=config.tol)
        lines += [f"lambda0_estimate: {est.estimate:.12g}",
                  f"fit: a={est.fit[0]:.6g} b={est.fit[1]:.6g} c={est.fit[2]:.6g} rms={est.fit[3]:.3g}"]
        tables.append(("series", ["t", "value"], est.rows()))
    elif kind == "theorem_limit":
        series = theorem_limit_series(op, exhaustion, x, y, t_grid=config.t_grid,
                                      heat_tol=config.tol)
    elif kind == "resolvent":
        series = resolvent_limit(op, exhaustion, x, y, lambda_deltas=config.lambda_deltas,
                                 green_tol=config.tol)
    elif kind == "time_shift":
        series = time_shift_ratio_series(op, exhaustion, x, y, config.tau,
                                         t_grid=config.t_grid, heat_tol=config.tol)
    elif kind == "davies":
        report = classify(op, exhaustion, green_tol=config.tol) if op.symmetric else None
        series = davies_ratio_series(op, exhaustion, x, y,
                                     x if config.x0 is None else config.x0,
                                     y if config.y0 is None else config.y0,
                                     t_grid=config.t_grid, report=report,
                                     heat_tol=config.tol)
    elif kind == "conjecture":
        op_plus = add_potential(op, perturbation(), config.pert_coupling)
        series = conjecture_ratio_series(op_plus, op, exhaustion, x, y, t_grid=config.t_grid,
                                         y1=config.y1, heat_tol=config.tol)
    elif kind == "coupling":
        res = critical_coupling(op, perturbation(), exhaustion, bracket=config.bracket,
                                green_tol=config.tol)
        lines += [f"alpha0: {res.alpha0:.12g}",
                  f"upper_bound: {res.upper_bound:.12g}",
                  f"error_estimate: {res.error_estimate:.3g}",
                  f"oracle_alpha0: {'' if res.oracle_alpha0 is None else format(res.oracle_alpha0, '.12g')}",
                  f"oracle_agrees: {res.agree}"]
        if res.finding:
            lines.append(f"finding: {res.finding}")
        tables.append(("history", ["level", "alpha0"],
                       [{"level": j, "alpha0": v} for j, v in res.history]))
    elif kind == "perturb_integrals":
        res = perturbation_integrals(op, perturbation(), exhaustion, x0=config.x0,
                                     kind=config.pert_kind, seed=config.seed)
        lines += [f"kind: {res.kind}", f"verdict_decreasing_to_zero: {res.verdict}",
                  f"fitted_decay: {res.fitted_decay:.6g}"]
        tables.append(("series", ["level", "s_j"], res.rows()))
    else:
        raise ValidationError(f"unknown experiment kind {kind!r}; one of {EXPERIMENT_KINDS}")
    if series is not None:
        lines.append(series.summary().rstrip())
        param = "lambda_delta" if kind == "resolvent" else "t"
        tables.append(("series", [param, "level", "value"], series.rows(param=param)))
        inconclusive = series.status is SeriesStatus.INCONCLUSIVE

    summary = "\n".join(lines) + "\n"
    csv_paths = []
    if config.out_dir is not None:
        os.makedirs(config.out_dir, exist_ok=True)
        base = os.path.join(config.out_dir, (config.prefix + kind).replace("/", "_"))
        for name, fieldnames, rows in tables:
            csv_paths.append(f"{base}_{name}.csv")
            write_csv(csv_paths[-1], fieldnames, rows)
        with open(f"{base}_summary.txt", "w", newline="") as fh:
            fh.write(summary)
    return ScenarioResult(3 if inconclusive else 0, summary, csv_paths)
