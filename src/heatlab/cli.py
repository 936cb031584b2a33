"""Command line interface.

Subcommands: classify, heat, green, lambda0, ratio, perturb, coupling,
run <config>.  Exit codes: 0 success, 2 validation error, 3 inconclusive
result, 4 internal numerical failure.
"""

from __future__ import annotations

import argparse
import sys

from .errors import (
    HeatLabError,
    InconclusiveError,
    NumericalError,
    ValidationError,
)
from .experiments import ScenarioConfig, parse_grid, parse_indicator, run_scenario

EXIT_VALIDATION = 2
EXIT_INCONCLUSIVE = 3
EXIT_NUMERICAL = 4


# Experiment subcommands leave flags not given out of their namespace
# (argparse.SUPPRESS), so the ScenarioConfig field defaults are the CLI's too.
def _add_common(p):
    p.add_argument("--fixture", default="lat1",
                   help="fixture name: lat1, lat1_geo(q), rad(d), or an edge-list file")
    p.add_argument("--potential", metavar="FILE", help="potential file `x V(x)` per line")
    p.add_argument("--constant", type=float, help="add a constant potential")
    p.add_argument("--coupling", type=float, help="coupling applied to the potential file")
    p.add_argument("--x", type=int)
    p.add_argument("--y", type=int)
    p.add_argument("--t", type=float)
    p.add_argument("--tol", type=float, help="tolerance of the heat, Green and lambda0 limits")
    p.add_argument("--ambient-size", type=int, help="vertex count of the ambient truncation")
    p.add_argument("--out", metavar="DIR", help="write the CSV artifacts and summary here")
    p.add_argument("--seed", type=int, help="seed for sampled suprema")


def _add_perturbation(p):
    p.add_argument("--pert-file")
    p.add_argument("--pert-indicator", help="vertices of an indicator potential")
    p.add_argument("--pert-value", type=float)
    p.add_argument("--pert-constant", type=float)


# CLI names that differ from the ScenarioConfig field and kind names
_FIELDS = {"fixture": "fixture_name", "potential": "potential_file", "out": "out_dir"}
_KINDS = {"theorem": "theorem_limit", "time-shift": "time_shift", "perturb": "perturb_integrals"}


def cmd_experiment(args):
    """Map a subcommand's flags to a ScenarioConfig and run it."""
    given = {k: v for k, v in vars(args).items() if k not in ("command", "func")}
    kind = args.command
    if kind == "ratio":
        kind = given.pop("kind")
    elif kind == "perturb" and "kind" in given:
        given["pert_kind"] = given.pop("kind")
    if "tol" in given:
        given["heat_tol"] = given["green_tol"] = given.pop("tol")
    for key, parse in (("t_grid", parse_grid), ("lambda_deltas", parse_grid),
                       ("pert_indicator", parse_indicator)):
        if key in given:
            given[key] = parse(given[key], "--" + key.replace("_", "-"))
    if "bracket" in given:
        given["bracket"] = tuple(given["bracket"])
    return _run(ScenarioConfig(kind=_KINDS.get(kind, kind),
                               **{_FIELDS.get(k, k): v for k, v in given.items()}))


def cmd_run(args):
    config = ScenarioConfig.from_file(args.config)
    if args.out:
        config.out_dir = args.out
    return _run(config)


def _run(config):
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

    def experiment(name, help):
        p = sub.add_parser(name, help=help, argument_default=argparse.SUPPRESS)
        _add_common(p)
        p.set_defaults(func=cmd_experiment)
        return p

    experiment("classify", "subcritical / positive-critical / null-critical")
    experiment("heat", "exhaustion limit of the heat kernel at (x, y, t)")
    experiment("green", "exhaustion limit of the Green value at (x, y)")
    experiment("lambda0", "generalized principal eigenvalue")

    p = experiment("ratio", "large-time ratio experiments")
    p.add_argument("--kind", choices=["theorem", "resolvent", "time-shift", "davies",
                                      "conjecture"], default="theorem")
    p.add_argument("--x0", type=int)
    p.add_argument("--y0", type=int)
    p.add_argument("--y1", type=int)
    p.add_argument("--tau", type=float)
    p.add_argument("--t-grid", help="geometric:start:stop:n or a list")
    p.add_argument("--lambda-deltas", help="offsets below lambda0")
    _add_perturbation(p)
    p.add_argument("--pert-coupling", type=float)

    p = experiment("perturb", "small/semismall perturbation integrals")
    p.add_argument("--kind", choices=["small", "semismall"])
    p.add_argument("--x0", type=int)
    _add_perturbation(p)

    p = experiment("coupling", "critical coupling of P + alpha V")
    p.add_argument("--bracket", type=float, nargs=2)
    _add_perturbation(p)

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
