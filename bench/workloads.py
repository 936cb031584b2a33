"""The benchmark's three workloads: seeded inputs, set-up, solve and oracle checks.

Each workload is driven only through heatlab's public API.  ``make_inputs``
turns the seed into plain parameters, ``setup`` builds fixtures, operators
and potentials from them, and ``solve`` runs the timed computation and
returns one ``Check`` per oracle comparison.  A check whose computation
raises counts as failed; nothing aborts the workload.

Why these three: each loads a different module of heatlab and leaves the
others nearly idle, so an optimisation of one module shows on one workload
and is predicted flat on the other two.

* ``series_geo`` reads many kernel values per spectral factor: the dense
  eigendecomposition in ``kernels`` is almost all of its time.
* ``coupling_rad3`` builds many factors and asks each for one Green
  column: restriction, the SuperLU positive-definiteness certificate and the
  Green solves in ``kernels``; no spectral factor is ever built.
* ``perturb_stack`` is the O(N^2) time convolution in ``perturbation``,
  absent from the other two.
"""

from __future__ import annotations

import math
import random
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

import heatlab as hl
from heatlab import perturbation as pert
from heatlab.kernels import factorize
from heatlab.series import geometric_grid

WORKLOADS = ("series_geo", "coupling_rad3", "perturb_stack")

#: checks expected to fail until a known defect is fixed; they still count
#: as failed, but they do not make the run incorrect
KNOWN_FAILURES = {
    "perturb_stack": {
        "drift: neumann vs direct kernel":
            "ROADMAP item 1: the nonsymmetric convolution multiplies by "
            "S(s_l) where it should multiply by S(t_i - s_l)",
    },
}

# Sizes are those of the acceptance tests, cut where a full-size solve would
# take more than a few seconds: a run repeats the solve many times and keeps
# each checked computation's fastest time, which keeps it steady on a shared
# machine.

# series_geo: acceptance criterion 5, on the test suite's 2049-vertex truncation
GEO_AMBIENT = 2049
GEO_PAIRS = 4
GEO_REACH = 4
GEO_HEAT_TOL = 1e-4
GEO_MASS = 3.0  # sum of q^|n| for q = 1/2: the constant ground state's mass

# coupling_rad3: acceptance criterion 9, at a quarter of its ambient size (at
# 50000 the r=3 bisection already misses the oracle by 1.9e-4)
RAD_AMBIENT = 100000
RAD_VERTICES = (1, 2, 3)
RAD_GREEN_TOL = 1e-5
RAD_EXACT_R1 = 1.0 / (math.pi ** 2 / 2.0 - 4.0)  # 1/G(1,1), rank-one closed form

# perturb_stack: acceptance criterion 8, on 49-vertex subsets.  The drift
# stack's convolution is an O(N^2) interpreter loop of 49x49 products that
# took about 14 s a pass at the default 1024 steps, too long to repeat many
# times in a run; it runs at 128 steps, the symmetric stack at the default.
PERT_HALF = 24
PERT_EPS = 0.1
PERT_T = 2.0
PERT_STEPS = {"symmetric": 1024, "drift": 128}
PERT_REACH = 3
PERT_RIGHT = (1.1, 1.3)


@dataclass
class Check:
    name: str
    ok: bool
    detail: str


class Checks:
    """Oracle comparisons of one solve; a raising computation fails its checks.

    ``seconds`` maps each checked computation, named by its first check, to
    its wall time: the same computations run in the same order in every
    solve of a workload, so run.py can compare them across solves.
    """

    def __init__(self):
        self.items = []
        self.seconds = {}

    def record(self, names, compute):
        """``compute()`` returns one (ok, detail) pair per name."""
        t0 = time.perf_counter()
        try:
            outcomes = list(compute())
        except Exception as exc:  # the benchmark counts the failure and goes on
            traceback.print_exc(file=sys.stderr)
            outcomes = [(False, f"{type(exc).__name__}: {exc}")] * len(names)
        self.seconds[names[0]] = time.perf_counter() - t0
        for name, (ok, detail) in zip(names, outcomes, strict=True):
            self.items.append(Check(name, bool(ok), detail))


def make_inputs(workload, seed):
    """Plain, JSON-serialisable parameters of ``workload`` for ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "series_geo":
        span = range(-GEO_REACH, GEO_REACH + 1)
        pairs = rng.sample([(x, y) for x in span for y in span], GEO_PAIRS)
        return {"pairs": [list(p) for p in pairs]}
    if workload == "coupling_rad3":
        # every solve bisects at all three vertices, so the cost does not
        # depend on the seed.  r=1 goes first: the first bisection sets the
        # allocator's state, and with it the peak resident set (by up to 20%
        # between orders); the seed orders r=2 and r=3
        first, *rest = RAD_VERTICES
        return {"vertices": [first, *rng.sample(rest, len(rest))]}
    if workload == "perturb_stack":
        return {"vertex": rng.randint(-PERT_REACH, PERT_REACH),
                "right": rng.uniform(*PERT_RIGHT)}
    raise ValueError(f"unknown workload: {workload!r}")


def drift_domain(right, n_half=PERT_HALF):
    """Biased nearest-neighbour walk on {-n..n}: weight ``right`` to the right,
    ``2 - right`` to the left, unit measure."""
    vertices = list(range(-n_half, n_half + 1))
    edges = {}
    for n in range(-n_half, n_half):
        edges[(n, n + 1)] = right
        edges[(n + 1, n)] = 2.0 - right
    return hl.WeightedDomain(vertices, {n: 1.0 for n in vertices}, edges,
                             truncated=True, name=f"drift({right:.6g})")


def setup(workload, seed):
    """Inputs, fixtures, operators and potentials of one workload."""
    inputs = make_inputs(workload, seed)
    if workload == "series_geo":
        fx = hl.fixture("lat1_geo(0.5)", ambient_size=GEO_AMBIENT)
        return {"inputs": inputs, "fixture": fx, "op": hl.assemble(fx.domain)}
    if workload == "coupling_rad3":
        fx = hl.fixture("rad(3)", ambient_size=RAD_AMBIENT)
        wells = {r: hl.Potential.indicator(fx.domain, [r], -1.0) for r in RAD_VERTICES}
        return {"inputs": inputs, "fixture": fx, "op": hl.assemble(fx.domain),
                "wells": wells}
    if workload == "perturb_stack":
        v0 = inputs["vertex"]
        lat = hl.fixture("lat1").domain
        killed = hl.add_potential(hl.assemble(lat), hl.Potential.constant(lat, 1.0))
        drift = drift_domain(inputs["right"])
        span = range(-PERT_HALF, PERT_HALF + 1)
        cases = {
            "symmetric": (killed, hl.Potential.indicator(lat, [v0], 1.0),
                          hl.restrict(lat, span)),
            "drift": (hl.assemble(drift), hl.Potential.indicator(drift, [v0], 1.0),
                      hl.restrict(drift, span)),
        }
        return {"inputs": inputs, "cases": cases}
    raise ValueError(f"unknown workload: {workload!r}")


def solve(workload, built):
    """Run the timed computation on ``built`` and check it; returns its Checks."""
    checks = Checks()
    {"series_geo": _solve_series,
     "coupling_rad3": _solve_coupling,
     "perturb_stack": _solve_perturbation}[workload](built, checks)
    return checks


def _solve_series(built, checks):
    fx, op = built["fixture"], built["op"]
    ev = hl.HeatKernelEvaluator(op, fx.exhaustion)
    grid = geometric_grid(0.5, 16.0, 16)
    report = {}

    def classified():
        rep = hl.classify(op, fx.exhaustion, evaluator=ev, green_tol=GEO_HEAT_TOL)
        report["rep"] = rep
        mass = rep.mass.value if rep.mass is not None else float("nan")
        return [(rep.label == "positive-critical", rep.label),
                (abs(mass - GEO_MASS) <= 1e-6, f"mass={mass!r}")]

    checks.record(["classify: positive-critical", "classify: mass 3 +- 1e-6"], classified)
    for x, y in built["inputs"]["pairs"]:
        def limit(x=x, y=y):
            series = hl.theorem_limit_series(op, fx.exhaustion, x, y, t_grid=grid,
                                             evaluator=ev, report=report.get("rep"),
                                             heat_tol=GEO_HEAT_TOL)
            last = float(series.values[-1])
            rel = abs(last - 1.0 / 3.0) * 3.0
            return [(rel <= 0.01, f"value={last!r} rel={rel:.2e}")]

        checks.record([f"series ({x},{y}): last value within 1% of 1/3"], limit)


def _solve_coupling(built, checks):
    fx, op = built["fixture"], built["op"]
    for r in built["inputs"]["vertices"]:
        def coupling(r=r):
            res = hl.critical_coupling(op, built["wells"][r], fx.exhaustion,
                                       bracket=(0.0, 4.0), green_tol=RAD_GREEN_TOL)
            out = []
            if res.oracle_alpha0 is None:
                out.append((False, "oracle produced no positive eigenvalue"))
            else:
                rel = abs(res.alpha0 - res.oracle_alpha0) / res.oracle_alpha0
                out.append((rel <= 1e-4, f"alpha0={res.alpha0!r} rel={rel:.2e}"))
            if r == 1:
                rel = abs(res.alpha0 - RAD_EXACT_R1) / RAD_EXACT_R1
                out.append((rel <= 1e-4, f"alpha0={res.alpha0!r} rel={rel:.2e}"))
            return out

        names = [f"r={r}: bisection vs birman-schwinger 1e-4"]
        if r == 1:
            names.append("r=1: bisection vs 1/(pi^2/2-4) 1e-4")
        checks.record(names, coupling)


def _solve_perturbation(built, checks):
    v0 = built["inputs"]["vertex"]
    for case, (op, v, sub) in built["cases"].items():
        stack = pert.IteratedKernelStack(op, v, sub, t_max=PERT_T,
                                         n_steps=PERT_STEPS[case])

        def neumann():
            value, terms = pert.neumann_heat_kernel(stack, PERT_EPS, v0, v0, PERT_T)
            direct = factorize(hl.add_potential(op, v, PERT_EPS), sub).kernel(
                sub.local_of(v0), sub.local_of(v0), PERT_T)
            err = abs(value - direct)
            return [(err <= 1e-8, f"err={err:.2e} rel={err / abs(direct):.2e} terms={terms}")]

        def duhamel():
            resid = pert.duhamel_residual(op, v, PERT_EPS, sub, v0, v0, PERT_T)
            return [(resid < 1e-8, f"residual={resid:.2e}")]

        checks.record([f"{case}: neumann vs direct kernel"], neumann)
        checks.record([f"{case}: duhamel residual"], duhamel)
        if case == "symmetric":
            def first_layer():
                simpson = stack.layer_column(v0, 1)[-1]
                exact = pert.first_layer_spectral(op, v, sub, PERT_T)[:, sub.local_of(v0)]
                err = float(np.max(np.abs(simpson - exact)))
                return [(err <= 1e-9, f"max err={err:.2e}")]

            checks.record(["symmetric: layer 1 vs first_layer_spectral 1e-9"], first_layer)


def correct(workload, checks):
    """True when every failed check is a declared known failure."""
    known = KNOWN_FAILURES.get(workload, {})
    return all(c.ok or c.name in known for c in checks)
