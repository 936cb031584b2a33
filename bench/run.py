"""Benchmark of heatlab: three seeded workloads, end to end or traced per layer.

Run from the repository root:

    python3 bench/run.py --workload series_geo --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1

With ``--trace 0`` a run sets its workload up and solves it, again and again
(at least MIN_PASSES times) until the next pass would end after
``--seconds`` seconds.  It reports the median set-up time, the solve time
with each checked computation at its fastest over the passes (see
``fastest_solve``), the peak resident set and the share of oracle checks that
passed.

With ``--trace 1`` it runs, on the same budget, pairs of one untraced pass and
one pass under the span recorder of tracing.py, and reports the per-layer
metrics (medians over the traced passes) and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` (oracle checks) and ``metrics``.  A
record of the run, with the machine and provenance, goes to bench/results/.

``--workload all`` runs every workload in a process of its own and prints
one table with units.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

#: BLAS threads, pinned in this process's environment before numpy loads.  One
#: thread: on two cores, two threads made the SuperLU solves of coupling_rad3
#: and the 49x49 products of the perturbation stack slower (an r=2 coupling
#: took 6.2 s instead of 5.1 s), and left every workload exposed to load on
#: the other core.
BLAS_THREADS = "1"

#: The environment a measuring process runs in; run.py re-executes itself
#: into it.  A fixed hash seed and no huge pages for numpy's large arrays make
#: the allocations, and so the peak resident set, the same in every run:
#: with either left to chance, one coupling_rad3 pass peaked anywhere from
#: 288 to 349 MB; with both fixed, at 290.7 MB every time.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": BLAS_THREADS,
    "OMP_NUM_THREADS": BLAS_THREADS,
    "MKL_NUM_THREADS": BLAS_THREADS,
    "PYTHONHASHSEED": "0",
    "NUMPY_MADVISE_HUGEPAGE": "0",
}
MIN_PASSES = 3
CHILD_TIMEOUT = 600

END_TO_END_UNITS = {"solve_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "pass_frac": "ratio"}


def _repeat(seconds, once):
    """Call ``once`` at least MIN_PASSES times, then until the next call is
    predicted to end after ``seconds``."""
    start = time.perf_counter()
    calls = 0
    while True:
        t0 = time.perf_counter()
        once()
        calls += 1
        last = time.perf_counter() - t0
        if calls >= MIN_PASSES and time.perf_counter() - start + last > seconds:
            return


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _pass(workloads, name, seed, checks):
    """Set the workload up afresh and solve it; returns (setup_s, solve_s,
    seconds of each checked computation of the solve)."""
    t0 = time.perf_counter()
    built = workloads.setup(name, seed)
    t1 = time.perf_counter()
    solved = workloads.solve(name, built)
    t2 = time.perf_counter()
    checks.extend(solved.items)
    return t1 - t0, t2 - t1, solved.seconds


def fastest_solve(solve_s, computations):
    """Solve time with each checked computation, and the rest of the solve,
    at its fastest over the passes.

    ``computations[i]`` maps the checked computations of pass i to their
    seconds; every pass runs the same ones in the same order.  On a shared
    host whose speed switches between a fast and a slow state (by up to 1.8x
    on two vCPUs, a state lasting from under a second to over 30 s), the
    median pass of a run is fast or slow by which state held most of the
    run, and run medians spread by up to a third.  A computation takes from
    milliseconds to about two seconds, so its fastest time falls in a fast
    spell in most runs.  Drifts of the host's speed over minutes still show.
    """
    rest = [total - sum(parts.values()) for total, parts in zip(solve_s, computations)]
    return min(rest) + sum(min(parts[key] for parts in computations)
                           for key in computations[0])


def measure(workloads, name, seed, seconds):
    """End-to-end run: (checks, metrics, raw samples).

    Set-up is timed in every pass, so its samples spread over the run like
    the solve samples.  Peak RSS is read after the first pass, as a process
    that sets up and solves once would see it: later passes raise it by heap
    fragmentation alone, by an amount that varies with the pass count.
    """
    setup_s, solve_s, computations, rss_mb, checks = [], [], [], [], []

    def once():
        setup, solve, parts = _pass(workloads, name, seed, checks)
        setup_s.append(setup)
        solve_s.append(solve)
        computations.append(parts)
        rss_mb.append(_peak_rss_mb())

    _repeat(seconds, once)
    failed = sum(not c.ok for c in checks)
    metrics = {
        "solve_s": fastest_solve(solve_s, computations),
        "setup_s": median(setup_s),
        "peak_rss_mb": rss_mb[0],
        "pass_frac": 1.0 - failed / len(checks),
    }
    samples = {"solve_s": solve_s, "computations_s": computations, "setup_s": setup_s,
               "peak_rss_mb": rss_mb}
    return checks, metrics, samples


def trace(workloads, tracing, name, seed, seconds, spans_path):
    """Traced run: (checks, per-layer metrics, raw samples).  Each step is an
    untraced pass and a traced one; the metrics are medians over the steps."""
    rec = tracing.Recorder()
    checks, steps, samples = [], [], []

    def step():
        _, untraced, _ = _pass(workloads, name, seed, checks)
        rec.run = f"pass{len(steps)}"
        rec.install()
        try:
            _, traced, _ = _pass(workloads, name, seed, checks)
        finally:
            rec.uninstall()
        layers = tracing.layer_metrics(rec.spans, runs={rec.run})
        layers["trace.solve_s"] = traced
        layers["trace.overhead_s"] = traced - untraced
        steps.append(layers)
        samples.append({"untraced_s": untraced, "traced_s": traced})

    _repeat(seconds, step)
    rec.write(spans_path)
    metrics = {key: median(s[key] for s in steps) for key in steps[0]}
    return checks, metrics, samples


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def _blas():
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        return "unknown"


def _git_commit():
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def src_lines():
    return sum(len(p.read_text().splitlines()) for p in (SRC / "heatlab").glob("*.py"))


def provenance(seed):
    import numpy
    import scipy

    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python_hash_seed": os.environ.get("PYTHONHASHSEED"),
        "numpy_madvise_hugepage": os.environ.get("NUMPY_MADVISE_HUGEPAGE"),
        "git_commit": _git_commit(),
        "src_heatlab_lines": src_lines(),
    }


def run_one(args):
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        checks, values, samples = trace(workloads, tracing, args.workload, args.seed,
                                        args.seconds, RESULTS / f"{stem}-spans.jsonl")
        values["repo.src_lines"] = src_lines()
        units = {m.name: m.unit for m in tracing.LAYER_METRICS}
    else:
        checks, values, samples = measure(workloads, args.workload, args.seed, args.seconds)
        units = END_TO_END_UNITS
    failed = [c for c in checks if not c.ok]
    known = workloads.KNOWN_FAILURES.get(args.workload, {})
    result = {
        "correct": workloads.correct(args.workload, checks),
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    record = {
        "workload": args.workload,
        "inputs": workloads.make_inputs(args.workload, args.seed),
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(args.seed),
        "samples": samples,
        "checks": [vars(c) for c in checks],
        "known_failures": known,
        "result": result,
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    for name in dict.fromkeys(c.name for c in failed):
        times = sum(c.name == name for c in failed)
        detail = next(c.detail for c in failed if c.name == name)
        tag = f"known failure ({known[name]})" if name in known else "FAILED"
        print(f"# {tag}: {name}, {times}x, first: {detail}")
    if not args.trace:
        passes = samples["solve_s"]
        q1, q2, q3 = quantiles(passes, n=4)
        print(f"# solve_s per pass: median {q2:.4g} s, quartiles {q1:.4g}-{q3:.4g} s, "
              f"{len(passes)} passes; reported {values['solve_s']:.4g} s")
    print(json.dumps(result))
    return 0


def run_all(args):
    """Every workload in a fresh process; one table of metrics with units."""
    from workloads import WORKLOADS

    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for metric, m in result["metrics"].items():
            print(f"{name:14s} {metric:30s} {m['value']:14.6g} {m['unit']}")
        fail_frac = result["failed"] / result["attempted"]
        print(f"{name:14s} {'fail_frac':30s} {fail_frac:14.6g} ratio"
              f"  ({result['failed']} of {result['attempted']} checks; correct={result['correct']})")
    print(json.dumps(provenance(args.seed)))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="workload name, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "heatlab" / "__init__.py").is_file():
        print(f"heatlab sources not found under {SRC}", file=sys.stderr)
        return 2
    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        os.environ.update(PINNED_ENV)
        argv = sys.argv[1:] if argv is None else argv
        os.execv(sys.executable, [sys.executable, str(Path(__file__).resolve()), *argv])
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
