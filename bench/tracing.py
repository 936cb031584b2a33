"""Span recorder for the traced benchmark run, and the per-layer metrics it yields.

The recorder replaces heatlab's public functions and methods listed in
``HOOKS`` with wrappers that record a span (name, start, end, parent, run id)
per call, plus counts read from the call's result.  Nothing inside heatlab
changes: a module-level function is replaced in every heatlab module that
imported it, a method on its class.  ``uninstall`` puts the originals back.

A span's self time is its duration minus the part of it covered by its child
spans.  ``LAYER_METRICS`` maps spans onto the per-layer metrics named in
BENCHMARK.json and records, for each, which end-to-end metric on which
workload it should move and where it is expected to stay flat.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Recorder.spans
    run: str
    counts: dict = field(default_factory=dict)


def _certified(result):
    return int(result.status.value != "inconclusive")


#: (module, qualified name, counts read from the result) of every timed call
HOOKS = [
    ("domains", "fixture", lambda r: {"domains.vertices": r.domain.n_vertices}),
    ("domains", "restrict", lambda r: {"domains.vertices": r.size}),
    ("operators", "assemble", None),
    ("operators", "add_potential", None),
    ("operators", "shift", None),
    ("operators", "adjoint", None),
    ("kernels", "factorize", lambda r: {"kernels.factor_vertices": r.sub.size}),
    ("kernels", "_FactorBase.is_positive_definite", None),
    ("kernels", "_FactorBase.principal_pair", None),
    ("kernels", "SymmetricFactor.spectral", None),
    ("kernels", "SymmetricFactor.kernel", None),
    ("kernels", "SymmetricFactor.kernel_matrix", None),
    ("kernels", "SymmetricFactor.apply_semigroup", None),
    ("kernels", "NonsymmetricFactor.kernel", None),
    ("kernels", "NonsymmetricFactor.kernel_matrix", None),
    ("kernels", "NonsymmetricFactor.apply_semigroup", None),
    ("kernels", "_FactorBase.green_column", None),
    ("kernels", "_FactorBase.green_row", None),
    ("kernels", "HeatKernelEvaluator.heat_kernel",
     lambda r: {"kernels.levels_evaluated": len(r.history), "certified": _certified(r)}),
    ("kernels", "HeatKernelEvaluator.green",
     lambda r: {"kernels.levels_evaluated": len(r.history), "certified": _certified(r)}),
    ("criticality", "lambda0", None),
    ("criticality", "classify", None),
    ("criticality", "ground_state", None),
    ("criticality", "critical_coupling",
     lambda r: {"criticality.bisection_steps": len(r.history)}),
    ("criticality", "birman_schwinger_alpha0", None),
    ("perturbation", "IteratedKernelStack.layer_column", None),
    ("perturbation", "neumann_heat_kernel", lambda r: {"perturbation.neumann_terms": r[1]}),
    ("perturbation", "duhamel_residual", None),
    ("perturbation", "first_layer_spectral", None),
    ("experiments", "theorem_limit_series",
     lambda r: {"experiments.series_points": len(r.t),
                "experiments.excluded_points": len(r.excluded)}),
    ("series", "fit_power_tail", None),
    ("series", "fit_loglog_slope", None),
    ("series", "fit_exponential_rate", None),
    ("series", "fit_log_time_formula", None),
    ("series", "neville_extrapolate", None),
]


class Recorder:
    """Keeps spans in memory while its wrappers are installed."""

    def __init__(self):
        self.spans = []
        self.run = ""
        self._open = []
        self._patched = []  # (owner, attribute, original), in install order

    def _wrap(self, name, fn, count):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, open_[-1] if open_ else None, self.run)
            open_.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                open_.pop()
            if count is not None:
                span.counts = count(result)
            return result

        return traced

    def install(self):
        modules = [m for key, m in sys.modules.items()
                   if key == "heatlab" or key.startswith("heatlab.")]
        for module_name, qualname, count in HOOKS:
            module = importlib.import_module(f"heatlab.{module_name}")
            name = f"{module_name}.{qualname}"
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, self._wrap(name, original, count))
                continue
            original = getattr(module, qualname)
            wrapper = self._wrap(name, original, count)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def self_times(spans):
    """Duration of each span minus the union of its children's intervals."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(i)
    out = []
    for i, span in enumerate(spans):
        intervals = sorted((max(spans[c].start, span.start), min(spans[c].end, span.end))
                           for c in children[i])
        covered, reach = 0.0, span.start
        for lo, hi in intervals:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    calls: tuple  # span names; self seconds for unit "s", call counts for "count"
    moves: str  # end-to-end metric and workload this should move
    flat: str  # workloads on which it should stay as it is


FIXTURE = ("domains.fixture", "domains.restrict")
OPERATORS = ("operators.assemble", "operators.add_potential", "operators.shift",
             "operators.adjoint")
KERNEL_QUERIES = ("kernels.SymmetricFactor.kernel", "kernels.SymmetricFactor.kernel_matrix",
                  "kernels.SymmetricFactor.apply_semigroup", "kernels.NonsymmetricFactor.kernel",
                  "kernels.NonsymmetricFactor.kernel_matrix",
                  "kernels.NonsymmetricFactor.apply_semigroup")
GREEN_SOLVES = ("kernels._FactorBase.green_column", "kernels._FactorBase.green_row")
LIMITS = ("kernels.HeatKernelEvaluator.heat_kernel", "kernels.HeatKernelEvaluator.green")
FITS = ("series.fit_power_tail", "series.fit_loglog_slope", "series.fit_exponential_rate",
        "series.fit_log_time_formula", "series.neville_extrapolate")
FACTORS = ("kernels.factorize",)
NONE = ()

_SETUP_COUPLING = "setup_s on coupling_rad3"
_SOLVE_COUPLING = "solve_s on coupling_rad3"
_SOLVE_SERIES = "solve_s on series_geo"
_CLASSIFY_SERIES = "solve_s on series_geo (one classify per solve)"
_SOLVE_PERTURB = "solve_s and pass_frac on perturb_stack (ROADMAP item 1)"

LAYER_METRICS = [
    LayerMetric("domains.fixture_s", "s", "lower", FIXTURE, _SETUP_COUPLING,
                "series_geo, perturb_stack"),
    LayerMetric("domains.vertices", "count", "lower", NONE, _SETUP_COUPLING,
                "series_geo, perturb_stack"),
    LayerMetric("operators.build_s", "s", "lower", OPERATORS,
                "solve_s on coupling_rad3 (one operator per bisection step)",
                "series_geo, perturb_stack"),
    LayerMetric("operators.built", "count", "lower", OPERATORS, _SOLVE_COUPLING,
                "series_geo, perturb_stack"),
    LayerMetric("kernels.factorize_s", "s", "lower", FACTORS,
                "solve_s on coupling_rad3 (ROADMAP item 4)", "series_geo (under 0.03 s there)"),
    LayerMetric("kernels.factors", "count", "lower", FACTORS, _SOLVE_COUPLING, "series_geo"),
    LayerMetric("kernels.factor_vertices", "count", "lower", NONE, _SOLVE_COUPLING,
                "series_geo"),
    LayerMetric("kernels.pd_check_s", "s", "lower",
                ("kernels._FactorBase.is_positive_definite",),
                "solve_s on coupling_rad3 (ROADMAP item 4: Cholesky)", "series_geo"),
    LayerMetric("kernels.principal_s", "s", "lower",
                ("kernels._FactorBase.principal_pair",), _SOLVE_COUPLING, "series_geo"),
    LayerMetric("kernels.spectral_s", "s", "lower", ("kernels.SymmetricFactor.spectral",),
                "solve_s and peak_rss_mb on series_geo (ROADMAP item 3)",
                "coupling_rad3 (never called there)"),
    LayerMetric("kernels.kernel_query_s", "s", "lower", KERNEL_QUERIES,
                "solve_s on series_geo (rises if ROADMAP item 3 makes queries dearer)",
                "perturb_stack"),
    LayerMetric("kernels.kernel_queries", "count", "lower", KERNEL_QUERIES, _SOLVE_SERIES,
                "perturb_stack"),
    LayerMetric("kernels.green_solve_s", "s", "lower", GREEN_SOLVES, _SOLVE_COUPLING,
                "perturb_stack"),
    LayerMetric("kernels.green_solves", "count", "lower", GREEN_SOLVES, _SOLVE_COUPLING,
                "perturb_stack"),
    LayerMetric("kernels.queries_per_factor", "ratio", "higher", NONE,
                "solve_s on series_geo and coupling_rad3", "perturb_stack"),
    LayerMetric("kernels.limit_s", "s", "lower", LIMITS, "solve_s on every workload", "none"),
    LayerMetric("kernels.limits", "count", "lower", LIMITS,
                "none: ROADMAP item 5 must not change the counts", "every workload"),
    LayerMetric("kernels.levels_evaluated", "count", "lower", NONE,
                "none: ROADMAP item 5 must not change the counts", "every workload"),
    LayerMetric("kernels.certified_frac", "ratio", "higher", NONE,
                "none: ROADMAP item 5 must not change the counts", "every workload"),
    LayerMetric("criticality.lambda0_s", "s", "lower", ("criticality.lambda0",),
                _CLASSIFY_SERIES, "coupling_rad3, perturb_stack"),
    LayerMetric("criticality.classify_s", "s", "lower", ("criticality.classify",),
                _CLASSIFY_SERIES, "coupling_rad3, perturb_stack"),
    LayerMetric("criticality.ground_state_s", "s", "lower", ("criticality.ground_state",),
                _CLASSIFY_SERIES, "coupling_rad3, perturb_stack"),
    LayerMetric("criticality.coupling_s", "s", "lower", ("criticality.critical_coupling",),
                _SOLVE_COUPLING, "perturb_stack"),
    LayerMetric("criticality.bisection_steps", "count", "lower", NONE, _SOLVE_COUPLING,
                "perturb_stack"),
    LayerMetric("criticality.oracle_s", "s", "lower",
                ("criticality.birman_schwinger_alpha0",), _SOLVE_COUPLING, "perturb_stack"),
    LayerMetric("perturbation.stack_s", "s", "lower",
                ("perturbation.IteratedKernelStack.layer_column",), _SOLVE_PERTURB,
                "series_geo, coupling_rad3 (never called there)"),
    LayerMetric("perturbation.neumann_s", "s", "lower", ("perturbation.neumann_heat_kernel",),
                _SOLVE_PERTURB, "series_geo, coupling_rad3 (never called there)"),
    LayerMetric("perturbation.neumann_terms", "count", "lower", NONE, _SOLVE_PERTURB,
                "series_geo, coupling_rad3 (never called there)"),
    LayerMetric("perturbation.duhamel_s", "s", "lower", ("perturbation.duhamel_residual",),
                _SOLVE_PERTURB, "series_geo, coupling_rad3 (never called there)"),
    LayerMetric("perturbation.first_layer_s", "s", "lower",
                ("perturbation.first_layer_spectral",), _SOLVE_PERTURB,
                "series_geo, coupling_rad3 (never called there)"),
    LayerMetric("experiments.series_s", "s", "lower", ("experiments.theorem_limit_series",),
                _SOLVE_SERIES, "coupling_rad3, perturb_stack"),
    LayerMetric("experiments.series_points", "count", "higher", NONE, _SOLVE_SERIES,
                "coupling_rad3, perturb_stack"),
    LayerMetric("experiments.excluded_points", "count", "lower", NONE, _SOLVE_SERIES,
                "coupling_rad3, perturb_stack"),
    LayerMetric("series.fit_s", "s", "lower", FITS,
                "nothing expected (milliseconds); tracked so that no fit hides cost",
                "every workload"),
    LayerMetric("trace.solve_s", "s", "lower", NONE,
                "solve_s of the traced pass, the base of every share above", "none"),
    LayerMetric("trace.overhead_s", "s", "lower", NONE,
                "nothing: traced minus untraced solve_s of the same run", "every workload"),
    LayerMetric("repo.src_lines", "count", "lower", NONE,
                "nothing at run time: lines of src/heatlab, so shrinkage is measured",
                "every workload"),
]


def layer_metrics(spans, runs):
    """Per-layer values over the spans of the given run ids (the trace.* and
    repo.* metrics are measured by the caller and left out)."""
    self_s = self_times(spans)
    seconds = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(float)
    for span, own in zip(spans, self_s):
        if span.run not in runs:
            continue
        seconds[span.name] += own
        calls[span.name] += 1
        for key, value in span.counts.items():
            counts[key] += value
    out = {}
    for m in LAYER_METRICS:
        if m.calls and m.unit == "s":
            out[m.name] = sum(seconds[n] for n in m.calls)
        elif m.calls:
            out[m.name] = sum(calls[n] for n in m.calls)
    for name in ("domains.vertices", "kernels.factor_vertices", "kernels.levels_evaluated",
                 "criticality.bisection_steps", "perturbation.neumann_terms",
                 "experiments.series_points", "experiments.excluded_points"):
        out[name] = int(counts[name])
    factors = out["kernels.factors"]
    queries = out["kernels.kernel_queries"] + out["kernels.green_solves"]
    out["kernels.queries_per_factor"] = queries / factors if factors else 0.0
    limits = out["kernels.limits"]
    out["kernels.certified_frac"] = counts["certified"] / limits if limits else 0.0
    return out
