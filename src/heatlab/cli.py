"""Command line interface.

Subcommands: classify, heat, green, lambda0, ratio, perturb, coupling,
run <config>.  Exit codes: 0 success, 2 validation error, 3 inconclusive
result, 4 internal numerical failure.
"""

from __future__ import annotations

import argparse
import re
import sys

from .errors import (
    HeatLabError,
    InconclusiveError,
    NumericalError,
    ValidationError,
)
from .experiments import INPUTS, ScenarioConfig, parse_text, run_scenario

EXIT_VALIDATION = 2
EXIT_INCONCLUSIVE = 3
EXIT_NUMERICAL = 4


# CLI kind names that differ from the ScenarioConfig kind names
_KINDS = {"theorem": "theorem_limit", "time-shift": "time_shift", "perturb": "perturb_integrals"}


def experiment_config(args):
    """The ScenarioConfig of an experiment subcommand: each flag given is
    parsed by its INPUTS row, and a flag not given keeps the field default."""
    given = vars(args)
    values = {row.field: row.parse(" ".join(raw) if row.nargs else raw, row.flag)
              for row in INPUTS if (raw := given.get(row.field)) is not None}
    kind = given.get("kind", args.command)
    return ScenarioConfig(args.fixture_name, _KINDS.get(kind, kind), **values)


def file_config(args):
    """The ScenarioConfig of ``run``: the file's, with ``--out`` if given."""
    config = ScenarioConfig.from_file(args.config)
    if args.out is not None:
        config.out_dir = parse_text(args.out, "--out")
    return config


_COMMANDS = {
    "classify": "subcritical / positive-critical / null-critical",
    "heat": "exhaustion limit of the heat kernel at (x, y, t)",
    "green": "exhaustion limit of the Green value at (x, y)",
    "lambda0": "generalized principal eigenvalue",
    "ratio": "large-time ratio experiments",
    "perturb": "small/semismall perturbation integrals",
    "coupling": "critical coupling of P + alpha V",
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="heatlab",
        description="Heat kernels, Green functions and criticality on weighted graphs.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help in _COMMANDS.items():
        # flags not given stay out of the namespace (argparse.SUPPRESS)
        p = sub.add_parser(name, help=help, argument_default=argparse.SUPPRESS)
        # -1e-3 is a value too: argparse's own pattern takes only -N and -N.N for numbers
        p._negative_number_matcher = re.compile(r"^-\.?\d")
        p.add_argument("--fixture", dest="fixture_name", metavar="FIXTURE", default="lat1",
                       help="fixture name: lat1, lat1_geo(q), rad(d), or an edge-list file")
        if name == "ratio":
            p.add_argument("--kind", choices=["theorem", "resolvent", "time-shift", "davies",
                                              "conjecture"], default="theorem")
        for row in INPUTS:
            if name in row.commands:
                p.add_argument(row.flag, dest=row.field, help=row.help, metavar=row.metavar,
                               nargs=row.nargs)
        p.set_defaults(func=experiment_config)

    p = sub.add_parser("run", help="run a scenario config file")
    p.add_argument("config")
    p.add_argument("--out", default=None, help="override the [output] dir")
    p.set_defaults(func=file_config)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        result = run_scenario(args.func(args))
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
    print(result.summary, end="")
    for path in result.csv_paths:
        print(f"wrote {path}")
    return result.exit_status


if __name__ == "__main__":
    sys.exit(main())
