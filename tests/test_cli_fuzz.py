"""Fuzz the CLI and scenario configs: every input ends in a documented exit code.

Each draw runs twice, as subcommand flags and as the equivalent scenario
config through `heatlab run`.  Both must exit 0, 2 (argparse's usage error
included), 3 or 4, never with an escaping exception.
"""

import os
import tempfile

from hypothesis import given, settings, strategies as st

from heatlab.cli import main

NUMBERS = ["0", "1", "-1", "0.5", "-2.5", "1e17", "-1e17", "nan", "inf", "-inf", "abc", "1%", ""]
VERTICES = ["0", "1", "2", "-3", "40", "1e17", "x"]
GRIDS = ["geometric:1:50:6", "geometric:5:60:5", "0.5,2,8", "3,2,1", "geometric:0:1:3",
         "geometric:1:2", "geometric:nan:2:3", "1e17", "nan", "abc", ""]
INDICATORS = ["0", "1", "0,1", "-2 2", "1,x", "99999", ""]

# flag -> (pool, config section, config keys)
FLAGS = {
    "--constant": (NUMBERS, "operator", ["constant"]),
    "--x": (VERTICES, "experiment", ["x"]),
    "--y": (VERTICES, "experiment", ["y"]),
    "--t": (NUMBERS, "experiment", ["t"]),
    "--tol": (["1e-6", "1e-10", "0", "-1", "nan", "inf", "1e17", "abc"],
              "experiment", ["heat_tol", "green_tol"]),
    "--seed": (["0", "7", "-1", "1e17", "x"], "experiment", ["seed"]),
    "--x0": (VERTICES, "experiment", ["x0"]),
    "--y0": (VERTICES, "experiment", ["y0"]),
    "--y1": (VERTICES, "experiment", ["y1"]),
    "--tau": (NUMBERS, "experiment", ["tau"]),
    "--t-grid": (GRIDS, "experiment", ["t_grid"]),
    "--lambda-deltas": (GRIDS, "experiment", ["lambda_deltas"]),
    "--bracket": (["0 4", "0 8", "4 0", "nan 4", "0 inf", "-1e17 1e17", "a b"],
                  "experiment", ["bracket"]),
    "--pert-indicator": (INDICATORS, "perturbation", ["indicator"]),
    "--pert-value": (NUMBERS, "perturbation", ["value"]),
    "--pert-constant": (NUMBERS, "perturbation", ["constant"]),
    "--pert-coupling": (NUMBERS, "perturbation", ["coupling"]),
}
COMMON = ["--constant", "--x", "--y", "--t", "--tol", "--seed"]
PERTURBATION = ["--pert-indicator", "--pert-value", "--pert-constant"]
# subcommand -> (its own flags, its --kind values and their config kinds)
COMMANDS = {
    "classify": ([], {}),
    "heat": ([], {}),
    "green": ([], {}),
    "lambda0": ([], {}),
    "ratio": (["--x0", "--y0", "--y1", "--tau", "--t-grid", "--lambda-deltas",
               "--pert-coupling"] + PERTURBATION,
              {"theorem": "theorem_limit", "resolvent": "resolvent", "time-shift": "time_shift",
               "davies": "davies", "conjecture": "conjecture"}),
    "perturb": (["--x0"] + PERTURBATION, {"small": "small", "semismall": "semismall"}),
    "coupling": (["--bracket"] + PERTURBATION, {}),
}


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejected the flags
        return exc.code


def _config_text(command, kind, fixture, ambient, flags):
    sections = {"fixture": {"name": fixture, "ambient_size": ambient},
                "operator": {}, "perturbation": {}, "experiment": {}}
    if command == "ratio":
        sections["experiment"]["kind"] = COMMANDS["ratio"][1][kind]
    elif command == "perturb":
        sections["experiment"]["kind"] = "perturb_integrals"
        if kind:
            sections["experiment"]["perturbation_kind"] = kind
    else:
        sections["experiment"]["kind"] = command
    for flag, value in flags.items():
        _, section, keys = FLAGS[flag]
        for key in keys:
            sections[section][key] = value
    return "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in items.items()) + "\n"
                   for name, items in sections.items())


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_cli_and_config_exit_with_documented_codes(data):
    command = data.draw(st.sampled_from(sorted(COMMANDS)))
    own, kinds = COMMANDS[command]
    # repeats weight the draw towards inputs that reach the numerics
    fixture = data.draw(st.sampled_from(["lat1", "lat1_geo(0.5)", "rad(3)"] * 3 + ["wat(2)"]))
    ambient = data.draw(st.sampled_from(["9", "17", "33"] * 3 + ["129", "0", "-5"]))
    kind = data.draw(st.sampled_from(sorted(kinds))) if kinds else None
    names = data.draw(st.lists(st.sampled_from(COMMON + own), unique=True, max_size=3))
    flags = {name: data.draw(st.sampled_from(FLAGS[name][0])) for name in names}

    argv = [command, "--fixture", fixture, "--ambient-size", ambient]
    if kind:
        argv += ["--kind", kind]
    for flag, value in flags.items():
        argv += [flag] + (value.split() if flag == "--bracket" else [value])
    assert _exit_code(argv) in (0, 2, 3, 4), argv

    text = _config_text(command, kind, fixture, ambient, flags)
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "fuzz.cfg")
        with open(cfg, "w") as fh:
            fh.write(text)
        assert _exit_code(["run", cfg, "--out", os.path.join(tmp, "out")]) in (0, 2, 3, 4), text
