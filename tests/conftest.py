"""Shared fixtures: expensive evaluators are session-scoped so their spectral
caches amortize across the whole suite."""

import numpy as np
import pytest

import heatlab as hl
from heatlab.criticality import default_reference_pair


@pytest.fixture(scope="session")
def lat1():
    return hl.fixture("lat1")


@pytest.fixture(scope="session")
def lat1_op(lat1):
    return hl.assemble(lat1.domain)


@pytest.fixture(scope="session")
def lat1_ev(lat1, lat1_op):
    return hl.HeatKernelEvaluator(lat1_op, lat1.exhaustion)


@pytest.fixture(scope="session")
def lat1_plus1_op(lat1):
    return hl.add_potential(hl.assemble(lat1.domain),
                            hl.Potential.constant(lat1.domain, 1.0))


@pytest.fixture(scope="session")
def lat1_plus1_ev(lat1, lat1_plus1_op):
    return hl.HeatKernelEvaluator(lat1_plus1_op, lat1.exhaustion)


@pytest.fixture(scope="session")
def geo():
    # kernel experiments run on a 2049-vertex truncation; classification
    # quality is unaffected and the spectral caches stay cheap
    return hl.fixture("lat1_geo(0.5)", ambient_size=2049)


@pytest.fixture(scope="session")
def geo_op(geo):
    return hl.assemble(geo.domain)


@pytest.fixture(scope="session")
def geo_ev(geo, geo_op):
    return hl.HeatKernelEvaluator(geo_op, geo.exhaustion)


@pytest.fixture(scope="session")
def rad3():
    return hl.fixture("rad(3)")


@pytest.fixture(scope="session")
def rad3_op(rad3):
    return hl.assemble(rad3.domain)


def build_drift_lattice(n_half=192, right=1.2, left=0.8):
    """Biased nearest-neighbor walk on a lattice truncation (nonsymmetric)."""
    vertices = list(range(-n_half, n_half + 1))
    measure = {n: 1.0 for n in vertices}
    edges = {}
    for n in range(-n_half, n_half):
        edges[(n, n + 1)] = right
        edges[(n + 1, n)] = left
    domain = hl.WeightedDomain(vertices, measure, edges, truncated=True,
                               name=f"drift({right:g},{left:g})")
    radii = []
    r = 1
    while r < n_half - 1:
        radii.append(r)
        r *= 2
    radii.append(n_half - 1)
    radii.append(n_half)
    exhaustion = hl.Exhaustion(domain, [range(-s, s + 1) for s in sorted(set(radii))])
    return hl.DomainFixture("drift", domain, exhaustion)


def _bisect(op, potential, exhaustion, bracket=(0.0, 4.0), green_tol=None):
    """The critical coupling by bisection on the Green dichotomy, to bracket
    width < 1e-4: (midpoint, [(alpha, is_critical_side)]).

    Each trial alpha builds P + alpha V and reads its Green limit at the
    default reference pair: divergence is the critical side.  An inconclusive
    limit counts as subcritical and is left out of the history.  A reference
    for ``critical_coupling``, which takes the limit of per-level values.
    """
    x0, y0 = default_reference_pair(exhaustion)
    history = []

    def critical_side(alpha):
        """Whether P + alpha V is critical; None if its Green limit is inconclusive."""
        side = False
        if alpha != 0.0:
            ev = hl.HeatKernelEvaluator(hl.add_potential(op, potential, alpha), exhaustion)
            green = ev.green(x0, y0, tol=green_tol)
            if not (green.converged or green.diverging):
                return None
            side = green.diverging
        history.append((alpha, side))
        return side

    lo, hi = bracket
    assert critical_side(lo) is False and critical_side(hi) is True, "no straddling bracket"
    while hi - lo >= 1e-4:
        mid = 0.5 * (lo + hi)
        if critical_side(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi), history


def build_scrambled_grid(side, seed):
    """side x side grid graph with randomly permuted labels (not banded as given)."""
    rng = np.random.default_rng(seed)
    label = rng.permutation(side * side)
    edges = {}
    for i in range(side):
        for j in range(side):
            v = label[i * side + j]
            for di, dj in ((0, 1), (1, 0)):
                if i + di < side and j + dj < side:
                    u = label[(i + di) * side + j + dj]
                    w = 1.0 + 0.1 * ((i + j) % 3)
                    edges[(v, u)] = edges[(u, v)] = w
    measure = {v: 0.5 + (v % 4) * 0.25 for v in range(side * side)}
    return hl.WeightedDomain(range(side * side), measure, edges)


@pytest.fixture(scope="session")
def drift():
    return build_drift_lattice()


def bessel_i0_scaled(z):
    """e^(-z) I_0(z) by the power series, evaluated in log space.

    Independent oracle for the lattice kernel: terms are
    exp(2k log(z/2) - 2 lgamma(k+1) - z), all positive.
    """
    import math

    if z == 0.0:
        return 1.0
    logs = []
    k = 0
    while True:
        lt = 2 * k * math.log(z / 2.0) - 2 * math.lgamma(k + 1) - z
        logs.append(lt)
        # series terms peak near k ~ z/2; stop well past the peak
        if k > z / 2.0 + 10 and lt < max(logs) - 45.0:
            break
        k += 1
    m = max(logs)
    return math.exp(m) * sum(math.exp(v - m) for v in logs)
