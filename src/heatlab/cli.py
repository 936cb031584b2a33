"""Command line interface.

Subcommands: classify, heat, green, lambda0, ratio, perturb, coupling,
run <config>.  Exit codes: 0 success, 2 validation error, 3 inconclusive
result, 4 internal numerical failure.
"""

from __future__ import annotations

import argparse
import sys

from .criticality import classify, critical_coupling, lambda0, perturbation_integrals
from .domains import fixture as resolve_fixture
from .errors import (
    HeatLabError,
    InconclusiveError,
    NumericalError,
    ValidationError,
)
from .experiments import (
    ScenarioConfig,
    SeriesStatus,
    build_operator,
    build_perturbation,
    conjecture_ratio_series,
    davies_ratio_series,
    parse_grid,
    parse_indicator,
    resolvent_limit,
    run_scenario,
    theorem_limit_series,
    time_shift_ratio_series,
    write_csv,
)
from .kernels import HeatKernelEvaluator, LimitStatus
from .operators import add_potential

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INCONCLUSIVE = 3
EXIT_NUMERICAL = 4


def _add_common(p):
    p.add_argument("--fixture", default="lat1",
                   help="fixture name: lat1, lat1_geo(q), rad(d), or an edge-list file")
    p.add_argument("--potential", metavar="FILE", help="potential file `x V(x)` per line")
    p.add_argument("--constant", type=float, default=0.0, help="add a constant potential")
    p.add_argument("--coupling", type=float, default=1.0,
                   help="coupling applied to the potential file")
    p.add_argument("--x", type=int, default=0)
    p.add_argument("--y", type=int, default=0)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--tol", type=float, default=None, help="limit tolerance override")
    p.add_argument("--ambient-size", type=int, default=None,
                   help="vertex count of the ambient truncation")
    p.add_argument("--out", metavar="DIR", default=None, help="write CSV artifacts here")
    p.add_argument("--seed", type=int, default=0, help="seed for sampled suprema")


def _build(args):
    fx = resolve_fixture(args.fixture, ambient_size=args.ambient_size)
    return fx, build_operator(fx.domain, args.potential, args.coupling, args.constant)


def _maybe_csv(args, name, fieldnames, rows):
    if args.out:
        import os

        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, name)
        write_csv(path, fieldnames, rows)
        print(f"wrote {path}")


def cmd_classify(args):
    fx, op = _build(args)
    report = classify(op, fx.exhaustion, green_tol=args.tol)
    print(report.to_text(), end="")
    _maybe_csv(args, "classify_diagnostics.csv",
               ["level", "lambda0_j", "green_j", "mass_j"], report.diagnostic_rows())
    return EXIT_OK


def cmd_heat(args):
    fx, op = _build(args)
    ev = HeatKernelEvaluator(op, fx.exhaustion)
    r = ev.heat_kernel(args.x, args.y, args.t, tol=args.tol)
    print(f"k({args.x},{args.y},{args.t:g}) = {r.value:.17g}")
    print(f"status: {r.status.value} (level {r.level}, model {r.model})")
    _maybe_csv(args, "heat_history.csv", ["level", "value"],
               [{"level": j, "value": v} for j, v in r.history])
    return EXIT_OK if r.status is not LimitStatus.INCONCLUSIVE else EXIT_INCONCLUSIVE


def cmd_green(args):
    fx, op = _build(args)
    ev = HeatKernelEvaluator(op, fx.exhaustion)
    r = ev.green(args.x, args.y, tol=args.tol)
    print(f"G({args.x},{args.y}) = {r.value:.17g}")
    print(f"status: {r.status.value} (level {r.level}, model {r.model})")
    if r.evidence:
        print(f"evidence: {r.evidence}")
    _maybe_csv(args, "green_history.csv", ["level", "value"],
               [{"level": j, "value": v} for j, v in r.history])
    return EXIT_OK if r.status is not LimitStatus.INCONCLUSIVE else EXIT_INCONCLUSIVE


def cmd_lambda0(args):
    fx, op = _build(args)
    lam = lambda0(op, fx.exhaustion, tol=1e-8 if args.tol is None else args.tol)
    print(f"lambda0 = {lam.value:.17g} +- {lam.error:.3g}")
    _maybe_csv(args, "lambda0_history.csv", ["level", "lambda0_j"],
               [{"level": j, "lambda0_j": v} for j, v in lam.history])
    return EXIT_OK


def cmd_ratio(args):
    fx, op = _build(args)
    grid = parse_grid(args.t_grid, "--t-grid")
    if args.kind == "theorem":
        series = theorem_limit_series(op, fx.exhaustion, args.x, args.y,
                                      t_grid=grid, heat_tol=args.tol)
    elif args.kind == "resolvent":
        series = resolvent_limit(op, fx.exhaustion, args.x, args.y,
                                 lambda_deltas=parse_grid(args.lambda_deltas, "--lambda-deltas"),
                                 green_tol=args.tol)
    elif args.kind == "time-shift":
        series = time_shift_ratio_series(op, fx.exhaustion, args.x, args.y, args.tau,
                                         t_grid=grid, heat_tol=args.tol)
    elif args.kind == "davies":
        x0 = args.x0 if args.x0 is not None else args.x
        y0 = args.y0 if args.y0 is not None else args.y
        report = classify(op, fx.exhaustion) if op.symmetric else None
        series = davies_ratio_series(op, fx.exhaustion, args.x, args.y, x0, y0,
                                     t_grid=grid, report=report, heat_tol=args.tol)
    elif args.kind == "conjecture":
        pot = _perturbation(args, fx)
        if pot is None:
            raise ValidationError("conjecture ratio needs --pert-file/--pert-indicator/--pert-constant")
        op_plus = add_potential(op, pot, args.pert_coupling)
        series = conjecture_ratio_series(op_plus, op, fx.exhaustion, args.x, args.y,
                                         t_grid=grid, y1=args.y1, heat_tol=args.tol)
    else:  # pragma: no cover - argparse restricts choices
        raise ValidationError(f"unknown ratio kind {args.kind!r}")
    print(series.summary(), end="")
    _maybe_csv(args, f"ratio_{args.kind}.csv", ["t", "level", "value"], series.rows())
    return EXIT_OK if series.status is not SeriesStatus.INCONCLUSIVE else EXIT_INCONCLUSIVE


def _perturbation(args, fx):
    return build_perturbation(fx.domain, args.pert_file,
                              parse_indicator(args.pert_indicator, "--pert-indicator"),
                              args.pert_value, args.pert_constant)


def cmd_perturb(args):
    fx, op = _build(args)
    pot = _perturbation(args, fx)
    if pot is None:
        raise ValidationError("perturb needs --pert-file/--pert-indicator/--pert-constant")
    res = perturbation_integrals(op, pot, fx.exhaustion, x0=args.x0,
                                 kind=args.kind, seed=args.seed)
    print(f"kind: {res.kind}")
    print(f"levels: {res.levels}")
    print(f"values: {[format(v, '.6g') for v in res.values]}")
    print(f"decreasing_to_zero: {res.verdict} (fitted decay {res.fitted_decay:.4g}/level)")
    _maybe_csv(args, "perturbation_integrals.csv", ["level", "s_j"], res.rows())
    return EXIT_OK


def cmd_coupling(args):
    fx, op = _build(args)
    pot = _perturbation(args, fx)
    if pot is None:
        raise ValidationError("coupling needs --pert-file/--pert-indicator/--pert-constant")
    res = critical_coupling(op, pot, fx.exhaustion, bracket=tuple(args.bracket),
                            green_tol=args.tol)
    print(f"alpha0 = {res.alpha0:.12g} (bracket width {res.bracket[1] - res.bracket[0]:.3g})")
    if res.oracle_alpha0 is not None:
        print(f"oracle alpha0 = {res.oracle_alpha0:.12g} (agree: {res.agree})")
    if res.finding:
        print(f"finding: {res.finding}")
    _maybe_csv(args, "coupling_history.csv", ["alpha", "critical_side"],
               [{"alpha": a, "critical_side": int(s)} for a, s in res.history])
    return EXIT_OK


def cmd_run(args):
    config = ScenarioConfig.from_file(args.config)
    if args.out:
        config.out_dir = args.out
    result = run_scenario(config)
    print(result.summary, end="")
    for path in result.csv_paths:
        print(f"wrote {path}")
    return result.exit_status


def build_parser():
    parser = argparse.ArgumentParser(
        prog="heatlab",
        description="Heat kernels, Green functions and criticality on weighted graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="subcritical / positive-critical / null-critical")
    _add_common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("heat", help="exhaustion limit of the heat kernel at (x, y, t)")
    _add_common(p)
    p.set_defaults(func=cmd_heat)

    p = sub.add_parser("green", help="exhaustion limit of the Green value at (x, y)")
    _add_common(p)
    p.set_defaults(func=cmd_green)

    p = sub.add_parser("lambda0", help="generalized principal eigenvalue")
    _add_common(p)
    p.set_defaults(func=cmd_lambda0)

    p = sub.add_parser("ratio", help="large-time ratio experiments")
    _add_common(p)
    p.add_argument("--kind", choices=["theorem", "resolvent", "time-shift", "davies",
                                      "conjecture"], default="theorem")
    p.add_argument("--x0", type=int, default=None)
    p.add_argument("--y0", type=int, default=None)
    p.add_argument("--y1", type=int, default=None)
    p.add_argument("--tau", type=float, default=-1.0)
    p.add_argument("--t-grid", default=None, help="geometric:start:stop:n or a list")
    p.add_argument("--lambda-deltas", default=None, help="offsets below lambda0")
    p.add_argument("--pert-file")
    p.add_argument("--pert-indicator", help="vertices of an indicator potential")
    p.add_argument("--pert-value", type=float, default=1.0)
    p.add_argument("--pert-constant", type=float, default=None)
    p.add_argument("--pert-coupling", type=float, default=1.0)
    p.set_defaults(func=cmd_ratio)

    p = sub.add_parser("perturb", help="small/semismall perturbation integrals")
    _add_common(p)
    p.add_argument("--kind", choices=["small", "semismall"], default="semismall")
    p.add_argument("--x0", type=int, default=None)
    p.add_argument("--pert-file")
    p.add_argument("--pert-indicator")
    p.add_argument("--pert-value", type=float, default=1.0)
    p.add_argument("--pert-constant", type=float, default=None)
    p.set_defaults(func=cmd_perturb)

    p = sub.add_parser("coupling", help="critical coupling of P + alpha V")
    _add_common(p)
    p.add_argument("--bracket", type=float, nargs=2, default=[0.0, 8.0])
    p.add_argument("--pert-file")
    p.add_argument("--pert-indicator")
    p.add_argument("--pert-value", type=float, default=1.0)
    p.add_argument("--pert-constant", type=float, default=None)
    p.set_defaults(func=cmd_coupling)

    p = sub.add_parser("run", help="run a scenario config file")
    p.add_argument("config")
    p.add_argument("--out", default=None, help="override the [output] dir")
    p.set_defaults(func=cmd_run)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except InconclusiveError as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except HeatLabError as exc:  # pragma: no cover - catch-all for subclasses
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
