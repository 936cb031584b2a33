"""Heat kernels, Green functions, exhaustion limits.

Claims:
    - scalar and 2x2 closed forms are reproduced to tight tolerances
    - the lattice kernel matches the series-evaluated e^(-2t) I_0(2t) oracle,
      and the Z^2 kernel the product e^(-4t) I_a(2t) I_b(2t)
    - Green values match path/killing closed forms; divergence is detected,
      and a large finite value is no divergence
    - semigroup identities hold: Chapman-Kolmogorov, adjoint duality,
      shift law, conservation, domain monotonicity, maximum principle
    - green values agree with time quadrature of the kernel
"""

import math

import numpy as np
import pytest
from scipy import integrate, special

import heatlab as hl
from heatlab.criticality import birman_schwinger_alpha0
from heatlab.domains import ball_exhaustion, closed_path_domain, single_vertex_domain
from heatlab.kernels import (LimitStatus, NonsymmetricFactor, SymmetricFactor, exhaustion_limit,
                             factorize)
from heatlab.series import geometric_grid

from conftest import _bisect, bessel_i0_scaled, build_drift_lattice, build_scrambled_grid


# -- fixed-subdomain closed forms --------------------------------------------

def test_scalar_kernel_exact():
    fx = single_vertex_domain()
    op = hl.assemble(fx.domain, hl.Potential.constant(fx.domain, 1.0))
    sub = hl.restrict(fx.domain, [0])
    assert hl.heat_kernel_finite(op, sub, 0, 0, 1.0) == pytest.approx(np.exp(-1.0), abs=1e-12)
    op2 = hl.assemble(fx.domain, hl.Potential.constant(fx.domain, 2.5))
    assert hl.heat_kernel_finite(op2, sub, 0, 0, 0.7) == pytest.approx(np.exp(-1.75), abs=1e-12)


@pytest.mark.parametrize("t", [float("nan"), float("inf")])
def test_nonfinite_times_rejected(lat1, lat1_op, t):
    sub = hl.restrict(lat1.domain, [0])
    with pytest.raises(hl.ValidationError):
        hl.heat_kernel_finite(lat1_op, sub, 0, 0, t)
    with pytest.raises(hl.ValidationError):
        hl.heat_matrix_finite(lat1_op, sub, t)


def test_two_vertex_closed_graph():
    fx = closed_path_domain(2)
    op = hl.assemble(fx.domain)
    sub = hl.restrict(fx.domain, [0, 1])
    expected = (1.0 + np.exp(-2.0)) / 2.0
    assert hl.heat_kernel_finite(op, sub, 0, 0, 1.0) == pytest.approx(expected, abs=1e-10)
    m = hl.heat_matrix_finite(op, sub, 1.0)
    off = (1.0 - np.exp(-2.0)) / 2.0
    assert m == pytest.approx(np.array([[expected, off], [off, expected]]), abs=1e-7)


def test_single_interior_vertex_dirichlet(lat1, lat1_op):
    sub = hl.restrict(lat1.domain, [0])
    assert hl.heat_kernel_finite(lat1_op, sub, 0, 0, 1.0) == pytest.approx(np.exp(-2.0), abs=1e-12)


def test_heat_matrix_at_zero_time():
    d = hl.WeightedDomain([0, 1], {0: 2.0, 1: 0.5}, {(0, 1): 1.0, (1, 0): 1.0})
    sub = hl.restrict(d, [0, 1])
    m = hl.heat_matrix_finite(hl.assemble(d), sub, 0.0)
    assert m == pytest.approx(np.diag([0.5, 2.0]))


def test_heat_matrix_nonnegative():
    fx = closed_path_domain(9)
    m = hl.heat_matrix_finite(hl.assemble(fx.domain), hl.restrict(fx.domain, range(9)), 1.0)
    assert np.all(m >= 0.0)


def test_time_validation_and_membership(lat1, lat1_op):
    sub = hl.restrict(lat1.domain, range(-2, 3))
    with pytest.raises(hl.ValidationError):
        hl.heat_kernel_finite(lat1_op, sub, 0, 0, -1.0)
    with pytest.raises(hl.ValidationError):
        hl.heat_kernel_finite(lat1_op, sub, 0, 99, 1.0)


# -- exhaustion limits --------------------------------------------------------

@pytest.mark.parametrize("t", [0.5, 1.0, 5.0, 20.0])
def test_lattice_kernel_matches_bessel_oracle(lat1_ev, t):
    r = lat1_ev.heat_kernel(0, 0, t)
    assert r.converged
    exact = bessel_i0_scaled(2.0 * t)
    assert r.value == pytest.approx(exact, rel=1e-8)


def test_planar_kernel_matches_bessel_product_oracle():
    # on Z^2 (unit measure and weights) k((0,0), (a,b), t) = e^(-4t) I_a(2t) I_b(2t);
    # ball levels of the 81 x 81 box are banded, not tridiagonal
    side, c = 81, 40
    label = np.arange(side * side).reshape(side, side)
    x = np.concatenate([label[:, :-1], label[:, 1:], label[:-1], label[1:]], axis=None)
    y = np.concatenate([label[:, 1:], label[:, :-1], label[1:], label[:-1]], axis=None)
    domain = hl.WeightedDomain(label.ravel(), np.ones(side * side), (x, y, np.ones(x.size)),
                               truncated=True)
    ev = hl.HeatKernelEvaluator(hl.assemble(domain), ball_exhaustion(domain, label[c, c]))
    converged = 0
    for a, b in [(0, 0), (1, 0), (2, 1), (3, 3)]:
        for t in (0.5, 1.0, 2.0, 4.0):
            r = ev.heat_kernel(label[c, c], label[c + a, c + b], t)
            if r.converged:
                converged += 1
                exact = special.ive(a, 2.0 * t) * special.ive(b, 2.0 * t)
                assert r.value == pytest.approx(exact, rel=1e-12, abs=0.0), (a, b, t)
    assert converged >= 15


def test_killing_shift_of_bessel(lat1, lat1_plus1_ev):
    r = lat1_plus1_ev.heat_kernel(0, 0, 1.0)
    assert r.converged
    assert r.value == pytest.approx(np.exp(-1.0) * bessel_i0_scaled(2.0), rel=1e-9)


def test_heat_kernel_zero_time_convention(lat1_ev):
    r = lat1_ev.heat_kernel(0, 0, 0.0)
    assert r.converged and r.value == pytest.approx(1.0)
    assert lat1_ev.heat_kernel(0, 1, 0.0).value == 0.0


def test_single_vertex_domain_converges_at_level_one():
    fx = single_vertex_domain()
    op = hl.assemble(fx.domain, hl.Potential.constant(fx.domain, 0.5))
    ev = hl.HeatKernelEvaluator(op, fx.exhaustion)
    r = ev.heat_kernel(0, 0, 2.0)
    assert r.converged and r.level == 0 and r.model == "exact"
    assert r.value == pytest.approx(np.exp(-1.0))


def test_small_ambient_is_inconclusive_at_large_time():
    fx = hl.build_lattice_1d(8, "unit")
    ev = hl.HeatKernelEvaluator(hl.assemble(fx.domain), fx.exhaustion)
    r = ev.heat_kernel(0, 0, 50.0)
    assert r.status is LimitStatus.INCONCLUSIVE
    assert "ambient truncation" in r.evidence


def test_underflowed_levels_certify_nothing():
    # at t = 3000 the kernels of the levels of radius 0, 1 and 2 underflow to
    # exactly 0; three zeros once read as a converged 0
    fx = hl.fixture("lat1", ambient_size=4097)
    ex = hl.Exhaustion(fx.domain, [range(-r, r + 1) for r in (0, 1, 2, 600, 650, 700)])
    r = hl.HeatKernelEvaluator(hl.assemble(fx.domain), ex).heat_kernel(0, 0, 3000.0)
    assert [v for _, v in r.history[:3]] == [0.0, 0.0, 0.0]
    assert r.converged and r.level == 5
    assert r.value == pytest.approx(special.ive(0, 6000.0), rel=1e-11, abs=0.0)


def test_underflowed_coefficients_settle_nothing():
    # at t = 1e5 the early checks' c(t) on the levels of 65 to 513 vertices
    # square to 0 in their norms, so a change and a norm of 0 once settled
    # every level at 2.08e-229; the closed form on the Dirichlet path of n
    # vertices is sum_k exp(-t lambda_k) phi_k(i) phi_k(l),
    # lambda_k = 4 sin^2(k pi / (2n + 2)), phi_k(i) = sqrt(2/(n + 1)) sin(k pi i / (n + 1)),
    # and the route's floor is max(1e-13, 8 eps t) of the value
    fx = hl.fixture("lat1", ambient_size=4001)
    ev = hl.HeatKernelEvaluator(hl.assemble(fx.domain), fx.exhaustion)
    for j in range(10):  # 3 to 1025 vertices
        sub = fx.exhaustion[j]
        n = sub.size
        angle = np.arange(1, n + 1) * np.pi / (n + 1)
        decay = 4.0 * np.sin(angle / 2.0) ** 2
        for x, y in ((0, 0), (0, 1)):
            i, l = sub.local_of(x) + 1, sub.local_of(y) + 1
            for t in (0.5, 50.0, 1e3, 1e4, 1e5):
                exact = 2.0 / (n + 1) * math.fsum(
                    np.exp(-t * decay) * np.sin(angle * i) * np.sin(angle * l))
                floor = max(1e-13, 8.0 * np.finfo(float).eps * t)
                assert ev.heat_finite(j, x, y, t) == pytest.approx(exact, rel=floor, abs=0.0), (
                    n, x, y, t)


def test_tiny_coefficients_settle_at_their_value():
    # lat1 + 0.4 at t = 1000: every c(t) is below 1e-154, so its squares
    # underflow; unscaled norms once settled a converged 4.7e-178, and norms of
    # 0 read as no evidence alone would run the 513-vertex level to the cap
    fx = hl.fixture("lat1", ambient_size=4001)
    op = hl.assemble(fx.domain, hl.Potential.constant(fx.domain, 0.4))
    r = hl.HeatKernelEvaluator(op, fx.exhaustion).heat_kernel(0, 0, 1000.0)
    assert r.converged
    assert r.value == pytest.approx(special.ive(0, 2000.0) * np.exp(-400.0),
                                  rel=1e-11, abs=0.0)


@pytest.mark.parametrize("values, status, value", [
    ([0.0] * 6, LimitStatus.CONVERGED, 0.0),  # every level 0: the limit is 0
    ([0.0, 0.0, 0.0, 1.0, 1.0, 1.0], LimitStatus.CONVERGED, 1.0),
    ([0.0, 0.0, 0.0, 1.0], LimitStatus.INCONCLUSIVE, 1.0),
])
def test_leading_zeros_are_no_evidence(values, status, value):
    r = exhaustion_limit(values.__getitem__, range(len(values)),
                         [2 ** j for j in range(len(values))], 1e-9,
                         trend_divergence=False, exact_final=False)
    assert (r.status, r.value, r.level) == (status, value, len(values) - 1)


@pytest.mark.parametrize("value, status", [(1e13, LimitStatus.CONVERGED),
                                           (float("inf"), LimitStatus.DIVERGING)])
def test_only_an_overflowed_value_diverges_by_its_size(value, status):
    # a finite level value is evidence only through the increment rules; one
    # above 1e12 was once read as divergence
    r = exhaustion_limit(lambda j: value, range(4), [2 ** j for j in range(4)], 1e-8,
                         trend_divergence=True, exact_final=False)
    assert (r.status, r.value) == (status, value)


def test_a_short_last_level_keeps_a_log_divergence():
    # G_j = log |S_j| has no limit; the last level adds 0.1% of the vertices,
    # and its raw increment once hid the trend (a verdict of inconclusive)
    sizes = [2 ** j for j in range(1, 11)] + [1025]
    values = np.log(sizes)
    r = exhaustion_limit(values.__getitem__, range(len(sizes)), sizes, 1e-8,
                         trend_divergence=True, exact_final=False)
    assert r.diverging and r.level == len(sizes) - 1


def test_cached_levels_reproduce_fresh_computation(lat1, lat1_op, lat1_ev):
    j = 4
    sub = lat1.exhaustion[j]
    cached = lat1_ev.heat_finite(j, 0, 1, 2.0)
    fresh = hl.heat_kernel_finite(lat1_op, sub, 0, 1, 2.0)
    assert cached == pytest.approx(fresh, rel=1e-12)


# -- green values -------------------------------------------------------------

def test_green_single_vertex():
    fx = single_vertex_domain()
    op = hl.assemble(fx.domain, hl.Potential.constant(fx.domain, 4.0))
    assert hl.green_finite(op, hl.restrict(fx.domain, [0]), 0, 0) == pytest.approx(0.25)


@pytest.mark.parametrize("n", [3, 10, 40])
def test_green_path_closed_form(lat1, lat1_op, n):
    sub = hl.restrict(lat1.domain, range(-n, n + 1))
    assert hl.green_finite(lat1_op, sub, 0, 0) == pytest.approx((n + 1) / 2.0, rel=1e-12)


def test_green_killing_closed_form(lat1, lat1_plus1_ev):
    r = lat1_plus1_ev.green(0, 0)
    assert r.converged
    assert r.value == pytest.approx(1.0 / np.sqrt(5.0), abs=1e-6)


def test_green_diverges_on_lattice(lat1_ev):
    r = lat1_ev.green(0, 0)
    assert r.diverging


def test_green_radial_transience_recurrence(rad3, rad3_op):
    ev = hl.HeatKernelEvaluator(rad3_op, rad3.exhaustion)
    r = ev.green(1, 1, tol=1e-6)
    assert r.converged
    # resistance to infinity: sum_{i>=1} (i+1/2)^-2 = pi^2/2 - 4
    assert r.value == pytest.approx(np.pi**2 / 2 - 4, rel=1e-6)
    f2 = hl.fixture("rad(2)")
    ev2 = hl.HeatKernelEvaluator(hl.assemble(f2.domain), f2.exhaustion)
    assert ev2.green(1, 1).diverging


def test_green_rejects_nonpositive_restriction():
    fx = single_vertex_domain()
    op = hl.assemble(fx.domain, hl.Potential.constant(fx.domain, -1.0))
    with pytest.raises(hl.NumericalError):
        hl.green_finite(op, hl.restrict(fx.domain, [0]), 0, 0)


@pytest.mark.parametrize("factor_type", [NonsymmetricFactor, SymmetricFactor])
def test_green_rejects_singular_restriction(factor_type):
    # D = 0 on a closed path: A_S is singular.  The nonsymmetric principal
    # eigenvalue comes out as +round-off, so the singular-LU guard must catch it
    fx = closed_path_domain(5)
    op = hl.assemble(fx.domain)
    fac = factor_type(op, hl.restrict(fx.domain, range(5)))
    with pytest.raises(hl.NumericalError):
        fac.green_column(0)
    with pytest.raises(hl.NumericalError):
        fac.green_row(0)


def test_green_agrees_with_time_quadrature(lat1):
    # independent route: adaptive quadrature of the kernel in t, plus the
    # identity sliver below t_min and a spectral tail bound beyond T
    op = hl.add_potential(hl.assemble(lat1.domain),
                          hl.Potential.constant(lat1.domain, 0.3))
    sub = hl.restrict(lat1.domain, range(-8, 9))
    fac = factorize(op, sub)
    x, y = 0, 1
    g_solve = hl.green_finite(op, sub, x, y, factor=fac)
    lam_min = fac.spectral()[0][0]
    t_min, T = 1e-6, 80.0 / lam_min

    def kernel(t):
        return fac.kernel(sub.local_of(x), sub.local_of(y), t)

    bulk, quad_err = integrate.quad(kernel, t_min, T, limit=400)
    sliver = 0.5 * t_min * (0.0 + kernel(t_min))  # k(x!=y, 0) = 0
    tail_bound = kernel(T) / lam_min
    assert abs(g_solve - (bulk + sliver)) <= 1e-8 * g_solve + tail_bound + 10 * quad_err


# -- semigroup identities -----------------------------------------------------

def test_chapman_kolmogorov_seeded(lat1, lat1_op):
    sub = hl.restrict(lat1.domain, range(-12, 13))
    fac = factorize(lat1_op, sub)
    mu = sub.mu
    rng = np.random.default_rng(23)
    n = sub.size
    checked = 0
    for _ in range(210):
        t, s = rng.uniform(0.05, 3.0, size=2)
        m_t = fac.kernel_matrix(t)
        m_s = fac.kernel_matrix(s)
        m_ts = fac.kernel_matrix(t + s)
        ix, iy = rng.integers(0, n, size=2)
        composed = float(m_t[ix] @ (mu * m_s[:, iy]))
        assert composed == pytest.approx(m_ts[ix, iy], rel=1e-10)
        checked += 1
    assert checked >= 200


def test_domain_monotonicity_seeded(lat1, lat1_op, lat1_ev):
    rng = np.random.default_rng(5)
    levels = [2, 3, 4, 5]
    count = 0
    for _ in range(250):
        j = int(rng.choice(levels))
        sub_a, sub_b = lat1.exhaustion[j], lat1.exhaustion[j + 1]
        r = int(sub_a.labels.max())
        x = int(rng.integers(-r, r + 1))
        y = int(rng.integers(-r, r + 1))
        t = float(rng.uniform(0.1, 5.0))
        ka = lat1_ev.heat_finite(j, x, y, t)
        kb = lat1_ev.heat_finite(j + 1, x, y, t)
        assert ka <= kb + 1e-12
        count += 1
    assert count >= 200


def test_adjoint_duality_symmetric_and_drift(lat1, lat1_op, drift):
    sub = hl.restrict(lat1.domain, range(-6, 7))
    fac = factorize(lat1_op, sub)
    fac_star = factorize(hl.adjoint(lat1_op), sub)
    for (x, y, t) in [(0, 1, 0.5), (-3, 5, 2.0), (2, 2, 1.0)]:
        assert fac_star.kernel(sub.local_of(x), sub.local_of(y), t) == pytest.approx(
            fac.kernel(sub.local_of(y), sub.local_of(x), t), rel=1e-12)

    dop = hl.assemble(drift.domain)
    dsub = hl.restrict(drift.domain, range(-10, 11))
    dfac = factorize(dop, dsub)
    dfac_star = factorize(hl.adjoint(dop), dsub)
    rng = np.random.default_rng(3)
    for _ in range(50):
        x, y = rng.integers(-5, 6, size=2)
        t = float(rng.uniform(0.5, 2.0))
        lhs = dfac_star.kernel(dsub.local_of(x), dsub.local_of(y), t)
        rhs = dfac.kernel(dsub.local_of(y), dsub.local_of(x), t)
        scale = np.sqrt(dfac.kernel(dsub.local_of(x), dsub.local_of(x), t)
                        * dfac.kernel(dsub.local_of(y), dsub.local_of(y), t))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-16 * scale)


def test_shift_law(lat1, lat1_op):
    lam = -0.7
    shifted = hl.shift(lat1_op, lam)
    sub = hl.restrict(lat1.domain, range(-8, 9))
    fac = factorize(lat1_op, sub)
    fac_s = factorize(shifted, sub)
    for (x, y, t) in [(0, 0, 1.0), (1, -2, 0.5), (0, 3, 4.0)]:
        base = fac.kernel(sub.local_of(x), sub.local_of(y), t)
        assert fac_s.kernel(sub.local_of(x), sub.local_of(y), t) == pytest.approx(
            np.exp(lam * t) * base, rel=1e-10)


def test_conservation_on_closed_domain():
    fx = closed_path_domain(11)
    sub = hl.restrict(fx.domain, range(11))
    m = hl.heat_matrix_finite(hl.assemble(fx.domain), sub, 2.5)
    mass = m @ sub.mu
    assert mass == pytest.approx(np.ones(11), abs=1e-10)


def test_maximum_principle_pointwise(lat1, lat1_op):
    sub = hl.restrict(lat1.domain, range(-10, 11))
    bumped = hl.add_potential(lat1_op, hl.Potential.indicator(lat1.domain, [0, 3], 0.8))
    fac = factorize(lat1_op, sub)
    fac_v = factorize(bumped, sub)
    for t in (0.3, 1.0, 5.0):
        assert np.all(fac_v.kernel_matrix(t) <= fac.kernel_matrix(t) + 1e-12)


def test_inverse_route_matches_direct_route(lat1, lat1_op, monkeypatch):
    # point kernels always take the Lanczos route; the all-pairs kernel
    # matrix and the spectrum are what the route choice serves
    import heatlab.kernels as hk

    sub = hl.restrict(lat1.domain, range(-15, 16))
    direct = hk.SymmetricFactor(lat1_op, sub)
    assert direct.spectral()[2] == "direct"  # force the lazy build before patching
    monkeypatch.setattr(hk, "WELL_SCALED_RATE", 0.0)
    inverse = hk.SymmetricFactor(lat1_op, sub)
    assert inverse.spectral()[2] == "inverse"
    assert inverse.spectral()[0][0] == pytest.approx(direct.spectral()[0][0], rel=1e-11)
    for t in (0.5, 2.0):
        a, b = direct.kernel_matrix(t), inverse.kernel_matrix(t)
        assert np.max(np.abs(b - a)) <= 1e-12 * np.max(np.abs(a))


def test_concurrent_cache_population(lat1, lat1_op):
    from concurrent.futures import ThreadPoolExecutor

    ev = hl.HeatKernelEvaluator(lat1_op, lat1.exhaustion)
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda t: ev.heat_kernel(0, 0, t).value,
                                [0.5, 1.0, 2.0, 0.5, 1.0, 2.0, 0.5, 1.0]))
    assert results[0] == results[3] == results[6]
    assert results[1] == results[4] == results[7]


# -- the banded Cholesky certificate and the measure form ----------------------

def test_cholesky_certificate_rejects_singular_closed_path():
    # D = 0 on a closed path: A_S is the graph Laplacian, singular, and its
    # last Cholesky pivot is exactly zero
    fx = closed_path_domain(9)
    sub = hl.restrict(fx.domain, range(9))
    fac = SymmetricFactor(hl.assemble(fx.domain), sub)
    assert not fac.is_positive_definite()
    with pytest.raises(hl.NumericalError):
        fac.green_solve(np.ones(9), "N")
    # a positive potential makes it positive definite
    killed = SymmetricFactor(hl.assemble(fx.domain, hl.Potential.constant(fx.domain, 0.1)), sub)
    assert killed.is_positive_definite()
    rhs = np.arange(9.0)
    assert killed.green_solve(rhs, "N") == pytest.approx(
        np.linalg.solve(killed.a_s.toarray(), rhs), rel=1e-12)


def _random_directed_domain(n, seed):
    """A path 0..n-1 with random weights both ways, some one-way chords and a
    random measure; returns the domain and its dense weight matrix."""
    rng = np.random.default_rng(seed)
    x = np.r_[np.arange(n - 1), np.arange(1, n), rng.integers(0, n, 8)]
    y = np.r_[np.arange(1, n), np.arange(n - 1), rng.integers(0, n, 8)]
    keep = x != y
    x, y = x[keep], y[keep]
    w = rng.uniform(0.2, 2.0, x.size)
    dense = np.zeros((n, n))
    np.add.at(dense, (x, y), w)
    return hl.WeightedDomain(np.arange(n), rng.uniform(0.5, 2.0, n), (x, y, w)), dense


def test_measure_form_matches_the_edge_list_in_both_orientations():
    # A_S = diag(out_weight + D mu) - W_S with the full out-weights (edges
    # leaving S are absorption), for the operator and for its adjoint, whose
    # measure form is A^T, so that A*_S = A_S^T
    domain, w = _random_directed_domain(12, seed=5)
    d = np.random.default_rng(6).uniform(-0.3, 0.3, 12)
    op = hl.assemble(domain, d)
    sub = hl.restrict(domain, range(2, 9))
    pos = sub.positions
    for oriented, operator in ((w, op), (w.T, hl.adjoint(op))):
        a = operator.measure_form(sub)
        assert a.format == "csc" and a.shape == (7, 7)
        dense = np.diag(oriented.sum(axis=1) + operator.potential * domain.mu) - oriented
        assert a.toarray() == pytest.approx(dense[np.ix_(pos, pos)], rel=1e-13, abs=1e-13)
    assert hl.adjoint(op).measure_form(sub).toarray() == pytest.approx(
        op.measure_form(sub).toarray().T, rel=1e-13, abs=1e-13)
    # the dense action matrix reads the same form
    assert op.action_matrix_dense(sub) == pytest.approx(
        op.measure_form(sub).toarray() / domain.mu[pos][:, None], rel=1e-13)


@pytest.mark.parametrize("symmetric", [True, False])
def test_green_query_outside_its_level_is_rejected(symmetric, drift):
    # the nest reads vertices by domain position; one not yet in the nest,
    # or in it past level j, is a ValidationError, as on a nonsymmetric level
    fx = hl.fixture("lat1", ambient_size=257) if symmetric else drift
    op = hl.assemble(fx.domain, hl.Potential.constant(fx.domain, 0.1))
    ev = hl.HeatKernelEvaluator(op, fx.exhaustion)
    assert ev.green_finite_level(2, 0, 3) > 0.0
    with pytest.raises(hl.ValidationError):
        ev.green_finite_level(2, 0, 40)
    assert ev.green_finite_level(5, 0, 20) > 0.0
    for x, y in ((0, 20), (20, 0), (-20, 20)):
        with pytest.raises(hl.ValidationError):
            ev.green_finite_level(2, x, y)


def test_level_orders_keep_no_domain_sized_array():
    # a heat limit (shifted Krylov factors) and principal pairs under a
    # constant potential (shifted nests) build each level's own order; below
    # the top level none of them keeps an array as long as the domain
    fx = hl.fixture("lat1", ambient_size=4001)
    ev = hl.HeatKernelEvaluator(hl.assemble(fx.domain), fx.exhaustion)
    assert ev.heat_kernel(0, 0, 5.0).converged
    shifted = hl.HeatKernelEvaluator(
        hl.assemble(fx.domain, hl.Potential.constant(fx.domain, 0.01)), fx.exhaustion)
    levels = shifted.usable_levels()
    for j in levels[:3] + levels[-2:]:
        shifted.principal_eigenvalue(j)
    n = fx.domain.n_vertices
    orders = [vars(fx.exhaustion[j]).get("order") for j in range(len(fx.exhaustion) - 1)]
    assert sum(order is not None for order in orders) >= 6
    for order in filter(None, orders):
        arrays = [a for a in vars(order).values() if isinstance(a, np.ndarray)]
        assert arrays and all(n not in a.shape for a in arrays)
    # the exhaustion's order keeps its ranks: the nest's Green values read them
    nest = fx.exhaustion.nested_order()
    nest.grow_to(3)
    assert 0 <= nest.index_of(fx.domain.positions_of(0)) < 3


def test_supercritical_well_diverges_where_restriction_stops_being_definite():
    # rad(3) with the well -1_{1} at 1.02 alpha0: the Green limit diverges at
    # level 5 (as it did with the earlier SuperLU inertia certificate), the
    # first level whose principal eigenvalue, from shifted inverse iteration,
    # is not positive
    fx = hl.fixture("rad(3)")
    alpha0 = 1.0 / (np.pi**2 / 2.0 - 4.0)
    op = hl.add_potential(hl.assemble(fx.domain),
                          hl.Potential.indicator(fx.domain, [1], -1.0), 1.02 * alpha0)
    ev = hl.HeatKernelEvaluator(op, fx.exhaustion)
    r = ev.green(1, 1)
    assert r.diverging and r.level == 5
    first_nonpositive = next(j for j in ev.usable_levels() if ev.principal_eigenvalue(j) <= 0.0)
    assert first_nonpositive == r.level


def _own_order(sub):
    """(perm, band) of the level's own order: the local index at each place of
    the order, and the order's upper band."""
    nest = sub.order
    nest.grow_to(sub.size)
    return np.searchsorted(sub.positions, nest.positions), nest.band


def test_rcm_banded_green_columns_match_dense_solve():
    domain = build_scrambled_grid(7, seed=11)
    op = hl.assemble(domain, hl.Potential.constant(domain, 0.05))
    sub = hl.restrict(domain, range(domain.n_vertices))
    perm, band = _own_order(sub)
    w = domain.weights.toarray()
    natural = max(abs(i - j) for i, j in zip(*np.nonzero(w)))
    assert band.shape[0] < natural  # Cuthill-McKee narrows the band
    assert not np.array_equal(perm, np.arange(sub.size))
    dense = np.diag(w.sum(axis=1) + 0.05 * domain.mu) - w
    fac = factorize(op, sub)
    for iy in (0, 17, 48):
        e = np.zeros(sub.size)
        e[iy] = 1.0
        exact = np.linalg.solve(dense, e)
        assert np.max(np.abs(fac.green_column(iy) - exact)) <= 1e-12 * np.max(np.abs(exact))
        assert fac.green_row(iy) == pytest.approx(exact, rel=1e-12)


def test_warm_orientations_stay_apart(drift):
    op = hl.assemble(drift.domain)
    ev = hl.HeatKernelEvaluator(op, drift.exhaustion)
    ev_star = hl.HeatKernelEvaluator(hl.adjoint(op), drift.exhaustion)
    pairs = [(0, 3), (-4, 2), (5, -1)]
    for x, y in pairs:  # warm both orientations' factors on every level
        ev.green(x, y)
        ev_star.green(y, x)
    for x, y in pairs:
        for j in (3, 5):
            g = ev.green_finite_level(j, y, x)
            assert ev_star.green_finite_level(j, x, y) == pytest.approx(g, rel=1e-12)
        g_star = ev_star.green(x, y)
        assert g_star.converged
        assert g_star.value == pytest.approx(ev.green(y, x).value, rel=1e-12)


def test_drift_green_limits_and_lambda0_build_no_dense_matrix(monkeypatch, drift):
    # the dense K_S serves only kernels and semigroups of a nonsymmetric level
    def no_dense(self, sub):
        raise AssertionError("dense K_S built")

    op = hl.add_potential(hl.assemble(drift.domain), hl.Potential.constant(drift.domain, 0.05))
    monkeypatch.setattr(hl.EllipticOperator, "action_matrix_dense", no_dense)
    ev = hl.HeatKernelEvaluator(op, drift.exhaustion)
    assert ev.green(0, 3).converged and ev.green(3, 0).converged
    assert hl.lambda0(op, drift.exhaustion, evaluator=ev).value > 0.05


def _family(fixture, well):
    base = hl.assemble(fixture.domain)
    v = hl.Potential.indicator(fixture.domain, well, -1.0)
    return {"alpha=0.3": hl.add_potential(base, v, 0.3),
            "alpha=0.7": hl.add_potential(base, v, 0.7),
            "shift": hl.shift(hl.add_potential(base, v, 0.3), -0.2),
            "adjoint": hl.adjoint(hl.add_potential(base, v, 0.7))}


@pytest.mark.parametrize("build", [lambda: hl.fixture("rad(3)", ambient_size=300),
                                   lambda: build_drift_lattice(48)])
def test_shared_pattern_matches_fresh_fixture(build):
    shared = build()
    well = [int(shared.exhaustion[1].labels[0])]
    x, y = int(shared.exhaustion[0].labels[0]), int(shared.exhaustion[1].labels[-1])

    def values(op, fixture):
        ev = hl.HeatKernelEvaluator(op, fixture.exhaustion)
        return (ev.green(x, y).value, ev.principal_eigenvalue(2), ev.heat_finite(2, x, y, 0.7))

    # the whole family on one exhaustion, so every operator shares its nested order
    got = {name: values(op, shared) for name, op in _family(shared, well).items()}
    for name in got:
        fresh = build()
        assert got[name] == values(_family(fresh, well)[name], fresh), name


# -- the inverse spectral route on one banded Cholesky factor --------------------

@pytest.mark.parametrize("level", [5, 6])
def test_inverse_route_keeps_negative_eigenvalues(level):
    # P - 0.3 on lat1_geo(0.5) is indefinite on these levels: its kernel obeys
    # the shift identity k_{P-0.3} = e^(0.3 t) k_P only if the negative
    # principal eigenvalue is kept
    fx = hl.fixture("lat1_geo(0.5)", ambient_size=129)
    sub = fx.exhaustion[level]
    op = hl.assemble(fx.domain)
    base, shifted = SymmetricFactor(op, sub), SymmetricFactor(hl.shift(op, 0.3), sub)
    assert shifted.spectral()[2] == "inverse" and not shifted.is_positive_definite()
    i0 = sub.local_of(0)
    for t in (1.0, 5.0):
        expected = np.exp(0.3 * t) * base.kernel(i0, i0, t)
        assert shifted.kernel(i0, i0, t) == pytest.approx(expected, rel=1e-12)
    assert shifted.spectral()[0][0] < 0.0
    assert shifted.spectral()[0][0] == pytest.approx(shifted.principal_pair()[0], abs=1e-10)


@pytest.mark.parametrize("factor_type", [NonsymmetricFactor, SymmetricFactor])
def test_certificate_rejects_random_singular_closed_paths(factor_type):
    # random conductances leave the last pivot of the singular Laplacian at
    # +-round-off, not exactly 0; D = 0 with no absorption is singular anyway
    rng = np.random.default_rng(2024)
    for _ in range(200):
        n = int(rng.integers(3, 40))
        w = rng.uniform(0.05, 3.0, n - 1)
        edges = {}
        for x in range(n - 1):
            edges[(x, x + 1)] = edges[(x + 1, x)] = float(w[x])
        domain = hl.WeightedDomain(range(n), np.ones(n), edges)
        fac = factor_type(hl.assemble(domain), hl.restrict(domain, range(n)))
        with pytest.raises(hl.NumericalError):
            fac.green_column(0)


def test_shifted_inverse_route_conserves_mass():
    # a closed path with a geometric measure: singular, so the inverse route
    # factors A_S - sigma D_mu, sigma = -1
    labels = range(-30, 31)
    edges = {}
    for x in range(-30, 30):
        edges[(x, x + 1)] = edges[(x + 1, x)] = 1.0
    domain = hl.WeightedDomain(labels, {x: 2.0 ** -abs(x) for x in labels}, edges)
    sub = hl.restrict(domain, labels)
    fac = SymmetricFactor(hl.assemble(domain), sub)
    assert fac.spectral()[2] == "inverse" and not fac.is_positive_definite()
    i0 = sub.local_of(0)
    for t in (0.5, 5.0, 50.0):
        mass = sum(fac.kernel(ix, i0, t) * sub.mu[ix] for ix in range(sub.size))
        assert mass == pytest.approx(1.0, abs=1e-12)


def test_inverse_route_needs_no_sparse_lu(monkeypatch):
    import heatlab.kernels as hk

    def no_lu(mat):
        raise AssertionError("sparse LU called")

    monkeypatch.setattr(hk, "_sparse_lu", no_lu)
    fx = hl.fixture("lat1_geo(0.5)", ambient_size=129)
    sub = fx.exhaustion[5]
    fac = SymmetricFactor(hl.assemble(fx.domain), sub)
    assert fac.is_positive_definite()
    assert fac.spectral()[2] == "inverse"
    i0 = sub.local_of(0)
    assert fac.kernel(i0, i0, 1.0) > 0.0
    assert np.all(np.isfinite(fac.kernel_matrix(1.0)))
    assert fac.green_column(i0)[i0] > 0.0


@pytest.mark.parametrize("constant", [0.05, -0.5])
def test_inverse_route_matches_direct_route_in_scrambled_order(monkeypatch, constant):
    # a grid with scrambled labels has a Cuthill-McKee order that is no
    # involution, so the inverse route must map its eigenvectors back by the
    # inverse order; D = -0.5 makes the closed grid indefinite and takes the
    # shifted factor
    import heatlab.kernels as hk

    domain = build_scrambled_grid(7, seed=11)
    sub = hl.restrict(domain, range(domain.n_vertices))
    perm = _own_order(sub)[0]
    assert not np.array_equal(perm[perm], np.arange(sub.size))
    op = hl.assemble(domain, hl.Potential.constant(domain, constant))
    direct = SymmetricFactor(op, sub)
    assert direct.spectral()[2] == "direct"
    monkeypatch.setattr(hk, "WELL_SCALED_RATE", 0.0)
    inverse = SymmetricFactor(op, sub)
    assert inverse.spectral()[2] == "inverse"
    assert inverse.is_positive_definite() is (constant > 0.0)
    assert inverse.spectral()[0][0] == pytest.approx(constant, abs=1e-12)
    for t in (0.3, 2.0):
        a, b = direct.kernel_matrix(t), inverse.kernel_matrix(t)
        assert np.max(np.abs(b - a)) <= 1e-12 * np.max(np.abs(a))


def test_certificate_rejects_adjoints_of_random_singular_closed_drift_paths():
    # the adjoint's D* = (out - in)/mu is not 0, but A*_S = A_S^T is as
    # singular as A_S; its principal eigenvalue comes out as +-round-off
    rng = np.random.default_rng(2025)
    for _ in range(100):
        n = int(rng.integers(3, 40))
        right, left = rng.uniform(0.05, 3.0, (2, n - 1))
        edges = {}
        for x in range(n - 1):
            edges[(x, x + 1)], edges[(x + 1, x)] = float(right[x]), float(left[x])
        domain = hl.WeightedDomain(range(n), np.ones(n), edges)
        star = hl.adjoint(hl.assemble(domain))
        fac = NonsymmetricFactor(star, hl.restrict(domain, range(n)))
        assert not fac.is_positive_definite()
        with pytest.raises(hl.NumericalError):
            fac.green_column(0)


def test_certificate_reads_one_way_edges_in_either_orientation():
    # a path whose edge 3 -> 2 is one-way, D = 0: under w no edge leaves
    # S = {0, 1, 2}, so A_S 1 = 0 and A_S is singular, and so is the adjoint's
    # A_S^T although its reversed edge 2 -> 3 leaves S; {3, 4} loses 3 -> 2
    # under w, and both A_S and A_S^T are nonsingular M-matrices; the whole
    # domain is closed for both
    x, y = [0, 1, 1, 2, 3, 3, 4], [1, 0, 2, 1, 2, 4, 3]
    domain = hl.WeightedDomain(range(5), np.ones(5), (x, y, np.ones(7)))
    op = hl.assemble(domain)
    for labels, certified in (([0, 1, 2], False), ([3, 4], True), (range(5), False)):
        sub = hl.restrict(domain, labels)
        for operator in (op, hl.adjoint(op)):
            assert NonsymmetricFactor(operator, sub).is_positive_definite() is certified


def test_certificate_agrees_with_the_principal_eigenvalue_on_random_drift_paths():
    # open drift paths (S drops both ends) with random measure, conductances
    # and a one-vertex well of random depth, and their adjoints: lambda0(S)
    # takes both signs, and the M-matrix certificate reads its sign
    rng = np.random.default_rng(7)
    verdicts = []
    for _ in range(100):
        n = int(rng.integers(3, 25))
        right, left = rng.uniform(0.05, 3.0, (2, n + 1))
        edges = {}
        for x in range(n + 1):
            edges[(x, x + 1)], edges[(x + 1, x)] = float(right[x]), float(left[x])
        domain = hl.WeightedDomain(range(n + 2), rng.uniform(0.5, 2.0, n + 2), edges)
        d = np.zeros(n + 2)
        d[rng.integers(1, n + 1)] = -rng.uniform(0.0, 1.0)
        op = hl.assemble(domain, d)
        sub = hl.restrict(domain, range(1, n + 1))
        for operator in (op, hl.adjoint(op)):
            fac = NonsymmetricFactor(operator, sub)
            certified = fac.principal_pair()[0] > 0.0
            assert fac.is_positive_definite() is certified
            verdicts.append(certified)
    assert 50 < sum(verdicts) < 150


# -- the Krylov point route against the dense all-pairs route --------------------

KRYLOV_TIMES = (0.05, 0.5, 5.0, 50.0, 400.0)


@pytest.fixture
def recurrences(monkeypatch):
    """Every Lanczos recurrence a point query builds from here on, in order."""
    import heatlab.kernels as hk

    built, init = [], hk._ShiftInvertLanczos.__init__

    def record(self, *args):
        init(self, *args)
        built.append(self)

    monkeypatch.setattr(hk._ShiftInvertLanczos, "__init__", record)
    return built


def _assert_point_route_matches_dense(fac, columns):
    """Every point value of the given columns against the dense kernel matrix,
    to 1e-11 relative or within 1e-13 of the larger noise scale of the two
    routes: sqrt(k(x,x,t) k(y,y,t)) of the dense route, and the column norm
    |exp(-tH) e_y| / sqrt(mu(x) mu(y)) = sqrt(k(y,y,2t)/mu(x)) of the point
    route.  On a geometric measure the second is the larger one far from y,
    where both routes resolve k only to round-off of the column's norm."""
    for t in KRYLOV_TIMES:
        dense = fac.kernel_matrix(t)
        diag, diag_2t = np.diag(dense), np.diag(fac.kernel_matrix(2.0 * t))
        for iy in columns:
            point = np.array([fac.kernel(ix, iy, t) for ix in range(fac.sub.size)])
            floor = 1e-13 * np.maximum(np.sqrt(diag * diag[iy]), np.sqrt(diag_2t[iy] / fac.sub.mu))
            err = np.abs(point - dense[:, iy])
            assert np.all(err <= 1e-11 * np.abs(dense[:, iy]) + floor), (t, iy, err.max())


def test_point_route_matches_dense_inverse_route_on_geometric_measure():
    fx = hl.fixture("lat1_geo(0.5)", ambient_size=257)
    sub = fx.exhaustion[7]  # 255 vertices, jump rates up to 2^127
    fac = SymmetricFactor(hl.assemble(fx.domain), sub)
    assert fac.spectral()[2] == "inverse" and fac.is_positive_definite()
    _assert_point_route_matches_dense(fac, [sub.local_of(y) for y in (0, 1, -3, 20)])


@pytest.mark.parametrize("level", [5, 6])
def test_point_route_matches_dense_route_on_indefinite_levels(level):
    fx = hl.fixture("lat1_geo(0.5)", ambient_size=129)
    sub = fx.exhaustion[level]
    fac = SymmetricFactor(hl.shift(hl.assemble(fx.domain), 0.3), sub)
    assert not fac.is_positive_definite() and fac.spectral()[0][0] < 0.0
    _assert_point_route_matches_dense(fac, [sub.local_of(y) for y in (0, 2, -5)])


def test_point_route_matches_dense_route_in_scrambled_order():
    domain = build_scrambled_grid(7, seed=11)
    sub = hl.restrict(domain, range(domain.n_vertices))
    perm = _own_order(sub)[0]
    assert not np.array_equal(perm[perm], np.arange(sub.size))
    fac = SymmetricFactor(hl.assemble(domain, hl.Potential.constant(domain, 0.05)), sub)
    _assert_point_route_matches_dense(fac, [0, 17, 48])


def test_point_route_settles_at_large_times(recurrences):
    # at t = 4000 an error eps in a Ritz value near 1 moves c(t) by ~4e-13 of
    # its norm, so a fixed 1e-13 stopping rule runs into the 500-step cap
    fx = hl.fixture("rad(3)", ambient_size=3000)
    sub = fx.exhaustion[9]
    assert sub.size == 1024
    fac = SymmetricFactor(hl.assemble(fx.domain), sub)
    dense = fac.kernel_matrix(4000.0)
    for y in (1, 2):
        iy = sub.local_of(y)
        assert fac.kernel(sub.local_of(1), iy, 4000.0) == pytest.approx(
            dense[sub.local_of(1), iy], rel=1e-11)
        assert len(recurrences[-1].alpha) < 400


def test_point_route_is_exact_once_the_krylov_space_is_exhausted(lat1, lat1_op, recurrences):
    sub = lat1.exhaustion[2]  # 9 vertices: the recurrence stops at 9 steps, before the check at 10
    assert sub.size == 9
    fac = SymmetricFactor(lat1_op, sub)
    _assert_point_route_matches_dense(fac, range(sub.size))
    assert recurrences and all(len(r.alpha) <= sub.size for r in recurrences)


def test_point_route_at_the_dimension_of_a_wide_spectrum_level(recurrences):
    # without reorthogonalization T_9 of this 9-vertex level (rates 1 to 16)
    # need not have the spectrum of B: k(-4, 1, 0.05) read from c_9 as exact
    # was 1.6e-6 off; a t unsettled at 9 steps takes B's dense eigendecomposition
    fx = hl.fixture("lat1_geo(0.5)", ambient_size=257)
    sub = fx.exhaustion[2]
    assert sub.size == 9
    fac = SymmetricFactor(hl.assemble(fx.domain), sub)
    _assert_point_route_matches_dense(fac, range(sub.size))
    reached = [r for r in recurrences if len(r.alpha) == sub.size]
    assert reached and not any(r.invariant for r in reached)
    assert any(c is None for column in fac._coefficients.values() for c in column.values())


def test_a_second_row_reruns_its_column_bit_for_bit(recurrences, monkeypatch):
    # a recurrence keeps v_j[x] only at its own row: a second x on the column
    # reruns the steps, reads the column's c(t) (no Ritz decomposition is
    # redone) and changes no value of either row
    import heatlab.kernels as hk

    fx = hl.fixture("lat1_geo(0.5)", ambient_size=513)
    sub, op = fx.exhaustion[8], hl.assemble(fx.domain)
    iy, ix, ix2 = sub.local_of(0), sub.local_of(3), sub.local_of(-2)
    fac = SymmetricFactor(op, sub)
    first = fac.kernels(ix, iy, KRYLOV_TIMES)
    f_of_t, decompositions = hk._ShiftInvertLanczos._f_of_t, []

    def counted(self, m, ts):
        decompositions.append(m)
        return f_of_t(self, m, ts)

    monkeypatch.setattr(hk._ShiftInvertLanczos, "_f_of_t", counted)
    second = fac.kernels(ix2, iy, KRYLOV_TIMES)
    assert decompositions == [] and len(recurrences[-1].alpha) >= 10
    assert fac.kernels(ix, iy, KRYLOV_TIMES) == first
    assert SymmetricFactor(op, sub).kernels(ix2, iy, KRYLOV_TIMES) == second


def test_point_values_do_not_depend_on_query_order():
    fx = hl.fixture("lat1_geo(0.5)", ambient_size=513)
    sub, op = fx.exhaustion[8], hl.assemble(fx.domain)
    i0, i1 = sub.local_of(0), sub.local_of(3)
    ascending = SymmetricFactor(op, sub)
    forward = [ascending.kernel(i1, i0, t) for t in KRYLOV_TIMES]
    backward = SymmetricFactor(op, sub)
    assert [backward.kernel(i1, i0, t) for t in KRYLOV_TIMES[::-1]][::-1] == forward


def test_point_queries_build_no_dense_eigendecomposition(monkeypatch):
    import scipy.linalg

    dense_eigh = scipy.linalg.eigh

    def small_eigh(a, *args, **kwargs):
        if np.shape(a)[0] > 64:
            raise AssertionError(f"dense eigh of a {np.shape(a)[0]}-vertex level")
        return dense_eigh(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh", small_eigh)
    # at ambient 257 the mass series, and with it the classification that the
    # theorem needs, is inconclusive; 2049 is the benchmark's series_geo
    fx = hl.fixture("lat1_geo(0.5)", ambient_size=2049)
    series = hl.theorem_limit_series(hl.assemble(fx.domain), fx.exhaustion, 0, 1,
                                     t_grid=geometric_grid(0.5, 16.0, 16), heat_tol=1e-4)
    assert max(series.levels) >= 5  # the kernel limits reached levels above 64 vertices
    assert series.values[-1] == pytest.approx(1.0 / 3.0, rel=0.01)


def test_concurrent_point_queries_equal_serial_ones():
    # threads query one column at once, each with its own recurrence, and
    # share the column's c(t); values must equal those of a factor queried
    # serially, bit for bit
    import sys
    from concurrent.futures import ThreadPoolExecutor

    fx = hl.fixture("lat1", ambient_size=1025)
    sub, op = fx.exhaustion[8], hl.assemble(fx.domain)
    i0 = sub.local_of(0)
    times = [0.05, 400.0, 0.5, 50.0, 5.0, 16.0, 2.0, 120.0] * 2
    serial = SymmetricFactor(op, sub)
    expected = [serial.kernel(i0 + 3, i0, t) for t in times]
    shared = SymmetricFactor(op, sub)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(shared.kernel, i0 + 3, i0, t) for t in times]
            got = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert got == expected


# -- one Lanczos recurrence per point query serves a whole time grid --------------

GRID = (0.05, 0.5, 2.0, 5.0, 16.0, 50.0, 400.0)
GRIDS = {
    "ascending": list(GRID),
    "descending": list(GRID[::-1]),
    "shuffled": [5.0, 0.05, 400.0, 2.0, 50.0, 0.5, 16.0],
    "repeated": [2.0, 0.5, 2.0, 400.0, 0.5, 2.0],
    "with zero": [0.0, 16.0, 0.0, 0.05, 5.0],
}


@pytest.mark.parametrize("name, ambient, level, columns", [
    ("lat1", 1025, 8, ((3, 0), (0, 0))),
    ("lat1_geo(0.5)", 513, 8, ((3, 0), (-2, 1))),
    ("rad(3)", 4000, 8, ((2, 1), (5, 5))),
])
def test_grid_values_equal_one_time_values_bit_for_bit(name, ambient, level, columns):
    fx = hl.fixture(name, ambient_size=ambient)
    op, sub = hl.assemble(fx.domain), fx.exhaustion[level]
    one_t = SymmetricFactor(op, sub)
    for x, y in columns:
        ix, iy = sub.local_of(x), sub.local_of(y)
        for grid in GRIDS.values():
            expected = [one_t.kernel(ix, iy, t) for t in grid]
            assert SymmetricFactor(op, sub).kernels(ix, iy, grid) == expected, grid


@pytest.mark.parametrize("grid", GRIDS.values(), ids=GRIDS.keys())
def test_evaluator_grid_limits_equal_one_time_limits(geo_op, geo, grid):
    batched = hl.HeatKernelEvaluator(geo_op, geo.exhaustion).heat_kernels(1, 2, grid, tol=1e-6)
    single = hl.HeatKernelEvaluator(geo_op, geo.exhaustion)
    assert batched == [single.heat_kernel(1, 2, t, tol=1e-6) for t in grid]


def test_unsettled_time_fails_alone(lat1, lat1_op, monkeypatch):
    # c_m(t) of one time is perturbed at every m, so its basis never settles
    # and runs into the step cap (lowered to 40) on the first level above 40
    # vertices; a heat value is bounded, so that limit is inconclusive there
    import heatlab.kernels as hk

    grid, restless = [0.5, 80.0, 5.0], 80.0
    clean = hl.HeatKernelEvaluator(lat1_op, lat1.exhaustion).heat_kernels(1, 2, grid)
    f_of_t = hk._ShiftInvertLanczos._f_of_t

    def never_settles(self, m, ts):
        lam, c = f_of_t(self, m, ts)
        c[ts == restless] *= 1.0 + 1e-3 * m
        return lam, c

    monkeypatch.setattr(hk, "LANCZOS_CAP", 40)
    monkeypatch.setattr(hk._ShiftInvertLanczos, "_f_of_t", never_settles)
    batched = hl.HeatKernelEvaluator(lat1_op, lat1.exhaustion).heat_kernels(1, 2, grid)
    alone = hl.HeatKernelEvaluator(lat1_op, lat1.exhaustion).heat_kernel(1, 2, restless)
    failed = batched[1]
    assert failed.status is LimitStatus.INCONCLUSIVE and np.isnan(failed.value)
    assert lat1.exhaustion[failed.level].size > 40
    assert lat1.exhaustion[failed.history[-1][0]].size <= 40
    assert "Lanczos did not converge in 40 steps" in failed.evidence
    assert (alone.status, alone.level, alone.history, alone.evidence) == (
        failed.status, failed.level, failed.history, failed.evidence)
    assert [batched[0], batched[2]] == [clean[0], clean[2]]
    fac = SymmetricFactor(lat1_op, lat1.exhaustion[failed.level])
    ix, iy = fac.sub.local_of(1), fac.sub.local_of(2)
    values = fac.kernels(ix, iy, grid)
    assert isinstance(values[1], hl.InconclusiveError)
    with pytest.raises(hl.InconclusiveError, match="did not converge"):
        fac.kernel(ix, iy, restless)
    assert fac.kernel(ix, iy, 5.0) == values[2]


BENCH_GRID = tuple(geometric_grid(0.5, 16.0, 16))  # series_geo's grid
PAPER_GRID = tuple(geometric_grid(1.0, 1000.0, 10))


@pytest.mark.parametrize("name, ambient, level, columns, grid", [
    ("lat1_geo(0.5)", 2049, 6, (0, 1), BENCH_GRID),
    ("lat1_geo(0.5)", 2049, 8, (0, 1), BENCH_GRID),
    ("lat1_geo(0.5)", 2049, 10, (0, 1), BENCH_GRID),
    ("lat1", 4097, 10, (0,), PAPER_GRID),
    ("rad(3)", 20000, 11, (1,), PAPER_GRID),
])
def test_settled_coefficients_are_within_their_floor(name, ambient, level, columns, grid):
    # a c(t) settled by the five-step confirmation agrees with the same
    # recurrence run to twice its steps within the stopping rule's floor
    import heatlab.kernels as hk

    fx = hl.fixture(name, ambient_size=ambient)
    fac = SymmetricFactor(hl.assemble(fx.domain), fx.exhaustion[level])
    ts = np.array(grid)
    for y in columns:
        iy = fac.sub.local_of(y)
        lanczos = hk._ShiftInvertLanczos(fac, iy, iy)
        settled = lanczos.coefficients(list(grid))
        steps = max(c.size for c in settled)
        m = lanczos._extend(2 * steps)
        assert m > steps
        lam, reference = lanczos._f_of_t(m, ts)
        gap = float(lam.min()) - lanczos.sigma
        floor = np.maximum(1e-13, 8.0 * np.finfo(float).eps * gap * ts)
        for c, ref, limit in zip(settled, reference, floor):
            error = ref.copy()
            error[:c.size] -= c
            assert np.linalg.norm(error) <= limit * np.linalg.norm(ref)


def test_short_basis_settles_within_twenty_steps(geo, geo_op, recurrences):
    # checks every 5 steps up to 30: by c_20 against c_15 at the latest, the
    # bench grid is confirmed on the 2047-vertex level
    sub = geo.exhaustion[10]
    assert sub.size == 2047
    fac = SymmetricFactor(geo_op, sub)
    iy = sub.local_of(1)
    fac.kernels(iy, iy, list(BENCH_GRID))
    assert len(recurrences[-1].alpha) <= 20


def _reachable(fac, skip=("op", "sub")):
    """The objects reachable from a factor's attributes other than ``skip``."""
    import gc
    import types

    found, stack = {}, [v for k, v in vars(fac).items() if k not in skip]
    while stack:
        obj = stack.pop()
        if id(obj) in found or isinstance(obj, (type, types.ModuleType, types.FunctionType)):
            continue
        found[id(obj)] = obj
        stack += gc.get_referents(obj)
        if isinstance(obj, np.ndarray) and obj.base is not None:
            stack.append(obj.base)
    return list(found.values())


def test_a_point_query_leaves_only_its_coefficients():
    # a t = 3000 value walks every check up to some 200 steps; once the
    # queries return, the factor holds no recurrence and, apart from the
    # shifted factor of _krylov(), no array of n entries: only the columns'
    # settled c(t)
    import heatlab.kernels as hk

    fx = hl.fixture("lat1", ambient_size=4097)
    sub = fx.exhaustion[10]
    fac = SymmetricFactor(hl.assemble(fx.domain), sub)
    short, long = sub.local_of(0), sub.local_of(1)
    fac.kernel(short, short, 0.5)
    assert fac.kernel(long, long, 3000.0) == pytest.approx(special.ive(0, 6000.0), rel=1e-11,
                                                           abs=0.0)
    found = _reachable(fac, skip=("op", "sub", "_shifted"))
    assert not any(isinstance(obj, hk._ShiftInvertLanczos) for obj in found)
    arrays = [obj for obj in found if isinstance(obj, np.ndarray)]
    assert len(arrays) >= 2 and max(a.size for a in arrays) < sub.size
    assert sorted(fac._coefficients) == sorted([short, long])
    assert fac._coefficients[long][3000.0].size > 100


def test_a_point_query_keeps_no_integer_array_of_the_level_size():
    # x and y are found in the level's own order by comparison: the factor
    # keeps no map between that order and local indices (on a path level the
    # order is the level's positions array, made before the query)
    import tracemalloc

    fx = hl.fixture("lat1", ambient_size=20001)
    sub = next(level for level in fx.exhaustion if level.size >= 10**4)
    fac = SymmetricFactor(hl.assemble(fx.domain), sub)
    ix, iy = sub.local_of(0), sub.local_of(3)
    tracemalloc.start()
    try:
        assert fac.kernel(ix, iy, 2.0) == pytest.approx(special.ive(3, 4.0), rel=1e-11)
        new = [obj for obj in _reachable(fac) if isinstance(obj, np.ndarray)
               and tracemalloc.get_object_traceback(obj) is not None]
    finally:
        tracemalloc.stop()
    assert any(a.size == sub.size for a in new)  # sqrt(mu) in the order, at least
    assert not [a for a in new if a.dtype.kind in "iu" and a.size >= sub.size]


@pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
def test_grid_rejects_a_bad_time_before_any_level(lat1, lat1_op, bad):
    ev = hl.HeatKernelEvaluator(lat1_op, lat1.exhaustion)
    with pytest.raises(hl.ValidationError, match=repr(bad)):
        ev.heat_kernels(0, 0, [1.0, bad, 2.0])
    assert not ev._factors


@pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
def test_level_kernel_rejects_a_bad_time(bad):
    # once: -1 gave a backward "kernel", nan a bare KeyError, inf a 0 after an overflow
    fx = hl.fixture("lat1", ambient_size=65)
    ev = hl.HeatKernelEvaluator(hl.assemble(fx.domain), fx.exhaustion)
    with pytest.raises(hl.ValidationError, match="time must be finite and nonnegative"):
        ev.heat_finite(3, 0, 0, bad)


def test_empty_grid_gives_no_limits(lat1_ev):
    assert lat1_ev.heat_kernels(0, 0, []) == []


# -- one growing Cholesky factor per (operator, exhaustion) ----------------------

def _edge_list_grid(tmp_path, side=9):
    """The file fixture of a side x side grid with scrambled labels: its
    exhaustion is by balls, whose shells need a band wider than 1."""
    label = np.random.default_rng(5).permutation(side * side)
    lines = [f"{v} {0.5 + (v % 4) * 0.25}" for v in range(side * side)]
    for i in range(side):
        for j in range(side):
            for di, dj in ((0, 1), (1, 0)):
                if i + di < side and j + dj < side:
                    v, u = label[i * side + j], label[(i + di) * side + j + dj]
                    w = 1.0 + 0.1 * ((i + j) % 3)
                    lines += [f"{v} {u} {w}", f"{u} {v} {w}"]
    path = tmp_path / "grid.txt"
    path.write_text("\n".join(lines) + "\n")
    return hl.fixture(str(path))


NESTED_CASES = {  # name: (fixture, potential on its domain)
    "lat1": (lambda tmp: hl.fixture("lat1", ambient_size=129), None),
    "lat1_geo": (lambda tmp: hl.fixture("lat1_geo(0.5)", ambient_size=129), None),
    "rad3": (lambda tmp: hl.fixture("rad(3)", ambient_size=300),
             lambda d: hl.Potential.indicator(d, [1], -0.5)),
    "closed_path": (lambda tmp: closed_path_domain(40), lambda d: hl.Potential.constant(d, 0.1)),
    "grid": (_edge_list_grid, None),
}


@pytest.mark.parametrize("name", list(NESTED_CASES))
def test_nested_green_values_match_standalone_factors(name, tmp_path):
    build, potential = NESTED_CASES[name]
    fx = build(tmp_path)
    op = hl.assemble(fx.domain, potential and potential(fx.domain))
    ev = hl.HeatKernelEvaluator(op, fx.exhaustion)
    nest = fx.exhaustion.nested_order()
    compared = 0
    for j in ev.usable_levels():
        level = fx.exhaustion[j]
        labels = [int(v) for v in level.labels[[0, level.size // 2, -1]]]
        for y in labels:
            for x in labels:
                try:
                    expected = hl.green_finite(op, level, x, y)
                except hl.NumericalError:
                    # D = 0 on the grid's top level, the whole finite domain
                    assert name == "grid" and level.size == fx.domain.n_vertices
                    with pytest.raises(hl.NumericalError):
                        ev.green_finite_level(j, x, y)
                    continue
                assert ev.green_finite_level(j, x, y) == pytest.approx(expected, rel=1e-12)
                compared += 1
        # the level's factor reads the same leading block
        fac = ev.factor(j)
        if fac.is_positive_definite():
            e = np.zeros(level.size)
            e[-1] = 1.0
            exact = np.linalg.solve(fac.a_s.toarray(), e)
            assert fac.green_column(level.size - 1) == pytest.approx(exact, rel=1e-11)
    assert compared
    if name == "grid":
        assert nest.kd > 1


@pytest.mark.parametrize("build, constant, well, alpha0", [
    (lambda: hl.fixture("rad(3)", ambient_size=1000), 0.0, [1], 1.0 / (np.pi**2 / 2.0 - 4.0)),
    (lambda: hl.fixture("lat1", ambient_size=1025), 1.0, [0], np.sqrt(5.0)),
])
@pytest.mark.parametrize("ratio", [0.98, 1.02])
def test_nested_certificate_fails_where_the_standalone_one_does(build, constant, well, alpha0,
                                                                ratio):
    fx = build()
    base = hl.assemble(fx.domain, hl.Potential.constant(fx.domain, constant))
    op = hl.add_potential(base, hl.Potential.indicator(fx.domain, well, -1.0), ratio * alpha0)
    ev = hl.HeatKernelEvaluator(op, fx.exhaustion)
    levels = ev.usable_levels()
    nested = [ev.factor(j).is_positive_definite() for j in levels]
    standalone = [SymmetricFactor(op, fx.exhaustion[j]).is_positive_definite() for j in levels]
    assert nested == standalone
    assert all(nested) is (ratio < 1.0)


def test_nested_certificate_rejects_closed_levels_with_zero_potential():
    # random conductances leave the last pivot of the singular Laplacian at
    # +-round-off; the closed top level of the nest is never certified
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(4, 40))
        w = rng.uniform(0.05, 3.0, n - 1)
        labels = np.arange(n)
        domain = hl.WeightedDomain(labels, np.ones(n), (np.r_[labels[:-1], labels[1:]],
                                                         np.r_[labels[1:], labels[:-1]],
                                                         np.r_[w, w]))
        ex = hl.Exhaustion(domain, [labels[:n // 2], labels])
        ev = hl.HeatKernelEvaluator(hl.assemble(domain), ex)
        assert ev.factor(0).is_positive_definite()
        assert not ev.factor(1).is_positive_definite()
        with pytest.raises(hl.NumericalError):
            ev.green_finite_level(1, 0, 0)


def test_nested_order_and_factor_grow_only_as_deep_as_the_limit():
    fx = hl.fixture("lat1", ambient_size=20001)
    op = hl.add_potential(hl.assemble(fx.domain), hl.Potential.constant(fx.domain, 1.0))
    ev = hl.HeatKernelEvaluator(op, fx.exhaustion)
    r = ev.green(0, 1)
    assert r.converged
    last = fx.exhaustion[r.level].size
    assert fx.exhaustion.nested_order().size <= last < fx.domain.n_vertices // 10
    assert ev._nested.size <= last
    # grown past lat1's band widening (1 to 3), U stays Fortran-ordered
    assert fx.exhaustion.nested_order().kd == 3 and ev._nested.ab.flags.f_contiguous


# the bisections of the banded Cholesky factor per level, before the nested factor
RAD3_BISECTIONS = {
    1: (1.069671630859375, [False, True, True, False, True, True, True, False, True, True, True,
                            False, True, True]),
    2: (0.509735107421875, [False, True, True, True, False, True, True, True, True, True, True,
                            True]),
    3: (0.336273193359375, [False, True, True, True, True, False, True, False, True, False, True,
                            True, True, True, True]),
}


@pytest.mark.parametrize("r", [1, 2, 3])
def test_rad3_bisection_is_unchanged_by_the_nested_factor(r):
    fx = hl.fixture("rad(3)", ambient_size=20000)
    well = hl.Potential.indicator(fx.domain, [r], -1.0)
    mid, history = _bisect(hl.assemble(fx.domain), well, fx.exhaustion, bracket=(0.0, 4.0),
                           green_tol=1e-5)
    alpha0, sides = RAD3_BISECTIONS[r]
    assert mid == pytest.approx(alpha0, rel=1e-12)
    assert [side for _, side in history] == sides
    res = hl.critical_coupling(hl.assemble(fx.domain), well, fx.exhaustion, bracket=(0.0, 4.0),
                               green_tol=1e-5)
    assert abs(mid - res.oracle_alpha0) <= 1e-3 * res.oracle_alpha0
    assert res.agree


def _factor_bytes(nested):
    """What a nested factor stores: its LDL^T pivots and multipliers and U."""
    return nested._d.tobytes(), nested._l.tobytes(), nested.ab.tobytes()


def _assert_concurrent_limits_match_serial(build, constant, couplings):
    """Threads grow one exhaustion's order and two operators' nested factors at
    once; every Green history must equal a serial run's, bit for bit."""
    import sys
    from concurrent.futures import ThreadPoolExecutor

    def operators(fx):
        base = hl.assemble(fx.domain, hl.Potential.constant(fx.domain, constant))
        well = hl.Potential.indicator(fx.domain, [1], -1.0)
        return [hl.add_potential(base, well, a) for a in couplings]

    queries = [(k, x, y) for k in (0, 1) for x, y in ((1, 1), (1, 2), (3, 1), (7, 2))] * 2
    fx = build()
    serial = [hl.HeatKernelEvaluator(op, fx.exhaustion) for op in operators(fx)]
    expected = [serial[k].green(x, y).history for k, x, y in queries]
    fx = build()
    shared = [hl.HeatKernelEvaluator(op, fx.exhaustion) for op in operators(fx)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(shared[k].green, x, y) for k, x, y in queries]
            got = [f.result(timeout=60).history for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert got == expected
    assert [_factor_bytes(ev._nested) for ev in shared] == [_factor_bytes(ev._nested)
                                                            for ev in serial]
    return fx


def test_concurrent_green_limits_share_one_nest():
    _assert_concurrent_limits_match_serial(lambda: hl.fixture("rad(3)", ambient_size=3000),
                                           0.0, (0.5, 0.9))


def test_concurrent_banded_green_limits_share_one_nest():
    # lat1's nest has band 3, so its columns past the first few are banded
    fx = _assert_concurrent_limits_match_serial(lambda: hl.fixture("lat1", ambient_size=4001),
                                                0.01, (0.05, 0.09))
    nest = fx.exhaustion.nested_order()
    assert nest.kd == 3 and nest.size > 100


def test_banded_nest_does_not_depend_on_how_it_grew():
    # lat1 + 0.01 (band 3), grown level by level, or to the deepest level in
    # one call (the factor alone, or a Green value): the same factor and G_j(0, 1)
    def grow(how):
        fx = hl.fixture("lat1", ambient_size=4001)
        op = hl.assemble(fx.domain, hl.Potential.constant(fx.domain, 0.01))
        ev = hl.HeatKernelEvaluator(op, fx.exhaustion)
        levels = ev.usable_levels()
        last = fx.exhaustion[levels[-1]].size
        if how == "factor":
            ev._nested.definite(last)
        elif how == "green":
            ev._nested.green(last, *fx.domain.positions_of([0, 1]))
        values = [ev.green_finite_level(j, 0, 1) for j in levels]
        assert fx.exhaustion.nested_order().kd == 3
        return _factor_bytes(ev._nested), values

    assert grow("stepwise") == grow("factor") == grow("green")


# -- the tridiagonal route of the nested factor (LDL^T pivots and multipliers) ----

def _rad3_wells(fx, couplings):
    base = hl.assemble(fx.domain)
    well = hl.Potential.indicator(fx.domain, [1], -1.0)
    return [hl.add_potential(base, well, a) for a in couplings]


@pytest.mark.parametrize("ahead", [False, True])
def test_nested_factor_does_not_depend_on_how_it_grew(ahead):
    # level by level, or to the deepest level in one call; on a fresh nest or
    # on one another operator grew ahead: the same LDL^T factor and Green
    # values, bit for bit
    queries = [(1, 1), (1, 2), (3, 1), (7, 40)]

    def grow(stepwise, ahead):
        fx = hl.fixture("rad(3)", ambient_size=3000)
        op, other = _rad3_wells(fx, (0.9, 0.5))
        ev = hl.HeatKernelEvaluator(op, fx.exhaustion)
        levels = ev.usable_levels()
        last = fx.exhaustion[levels[-1]].size
        if ahead:
            hl.HeatKernelEvaluator(other, fx.exhaustion).green(1, 2)
            assert fx.exhaustion.nested_order().size == last
        if not stepwise:
            for x, y in queries:
                ev._nested.green(last, *fx.domain.positions_of([x, y]))
        values = [ev.green_finite_level(j, x, y) for j in levels for x, y in queries
                  if x in fx.exhaustion[j] and y in fx.exhaustion[j]]
        assert fx.exhaustion.nested_order().tridiagonal == last
        return _factor_bytes(ev._nested), values

    assert grow(True, False) == grow(False, ahead) == grow(True, ahead)


@pytest.mark.parametrize("ratio", [0.99, 0.999])
def test_tridiagonal_green_values_match_a_long_double_recurrence(ratio):
    # the LDL^T pivot recurrence and the Green values, evaluated in long
    # double on the same matrix, near the critical coupling (G(1, 1) ~ 50-500)
    fx = hl.fixture("rad(3)", ambient_size=20000)
    (op,) = _rad3_wells(fx, (ratio / (np.pi**2 / 2.0 - 4.0),))
    ev = hl.HeatKernelEvaluator(op, fx.exhaustion)
    levels = ev.usable_levels()
    got = {(j, x, y): ev.green_finite_level(j, x, y)
           for j in levels for x, y in ((1, 2), (2, 40)) if y in fx.exhaustion[j]}
    nest = fx.exhaustion.nested_order()
    n = fx.exhaustion[levels[-1]].size
    assert nest.tridiagonal == n
    pos = nest.positions[:n]
    diag = (fx.domain.out_weights()[pos] + op.potential[pos] * op.mu[pos]).astype(np.longdouble)
    off = nest.band[-1, 1:n].astype(np.longdouble)
    pivot, mult = diag.copy(), np.zeros(n - 1, np.longdouble)
    for i in range(n - 1):
        mult[i] = off[i] / pivot[i]
        pivot[i + 1] = diag[i + 1] - mult[i] * off[i]

    def forward(k, m):  # L^-1 e_k over the prefix m
        v = np.zeros(m, np.longdouble)
        v[k] = 1.0
        v[k + 1:] = np.cumprod(-mult[k:m - 1])
        return v

    for (j, x, y), value in got.items():
        m = fx.exhaustion[j].size
        kx, ky = (nest.index_of(p) for p in fx.domain.positions_of([x, y]))
        exact = float(np.sum(forward(kx, m) * forward(ky, m) / pivot[:m]))
        assert value == pytest.approx(exact, rel=1e-10)


def _comet(well_column=None, path=6, rungs=5):
    """A path 0..path-1 leading into a ladder of ``rungs`` rungs, exhausted one
    path vertex, then one rung, at a time.  The nest is tridiagonal for the
    path and the first rung's first vertex, then has band 2.  With
    ``well_column`` the vertex in that column of the nest carries D = -50, so
    its leading minor is the first that is not positive definite."""
    rng = np.random.default_rng(11)
    a, b = path + np.arange(rungs), path + rungs + np.arange(rungs)
    x = np.r_[np.arange(path - 1), path - 1, path - 1, a[:-1], b[:-1], a]
    y = np.r_[np.arange(1, path), a[0], b[0], a[1:], b[1:], b]
    w = rng.uniform(0.5, 2.0, x.size)
    labels = np.arange(path + 2 * rungs)
    domain = hl.WeightedDomain(labels, rng.uniform(0.5, 2.0, labels.size),
                               (np.r_[x, y], np.r_[y, x], np.r_[w, w]))
    levels = [labels[:k] for k in range(1, path + 1)]
    levels += [np.r_[labels[:path], a[:k], b[:k]] for k in range(1, rungs + 1)]
    potential = np.full(labels.size, 0.05)
    ex = hl.Exhaustion(domain, levels)
    if well_column is not None:
        nest = ex.nested_order()
        nest.grow_to(labels.size)
        potential[nest.positions[well_column]] = -50.0
    return domain, ex, hl.assemble(domain, potential)


@pytest.mark.parametrize("stepwise", [True, False])
@pytest.mark.parametrize("well_column", [None, 0, 3, 6, 7, 10])
def test_mixed_band_nest_matches_dense_solves(stepwise, well_column):
    # the well sits in the one-column first window (0), inside the
    # tridiagonal prefix (3), on its last column (6), on the first banded
    # column (7) or deeper in the band (10)
    domain, ex, op = _comet(well_column)
    ev = hl.HeatKernelEvaluator(op, ex)
    nest = ex.nested_order()
    levels = ev.usable_levels()
    if not stepwise:
        ev._nested.definite(ex[levels[-1]].size)
    certified = []
    for j in levels:
        level = ex[j]
        a_s = ev.factor(j).a_s.toarray()
        definite = bool(np.linalg.eigvalsh(a_s).min() > 0.0)
        certified.append(ev.factor(j).is_positive_definite())
        assert certified[-1] is definite
        inverse = np.linalg.inv(a_s) if definite else None
        if definite:  # Green solves by dpttrs inside the tridiagonal prefix, else dpbtrs
            assert ev.factor(j).green_column(0) == pytest.approx(inverse[:, 0], rel=1e-12)
        # the principal pair, by inverse iteration on the nest of A - min(D) D_mu
        lam, phi, _ = ev.factor(j).principal_pair()
        root = np.sqrt(ev.factor(j).sub.mu)
        w, q = np.linalg.eigh(a_s / root[:, None] / root[None, :])
        ref = q[:, 0] / root * np.sign(q[:, 0].sum())
        assert lam == pytest.approx(w[0], rel=1e-10)
        assert np.abs(phi / np.linalg.norm(phi) - ref / np.linalg.norm(ref)).max() < 1e-10
        for x in level.labels:
            for y in level.labels[::3]:
                if definite:
                    assert ev.green_finite_level(j, x, y) == pytest.approx(
                        inverse[level.local_of(x), level.local_of(y)], rel=1e-12)
                else:
                    with pytest.raises(hl.NumericalError):
                        ev.green_finite_level(j, x, y)
    assert nest.kd == 2 and nest.tridiagonal == 7
    # grown past the band widening, U stays Fortran-ordered: solves take views
    assert ev._nested.ab.flags.f_contiguous
    if well_column is None:
        assert all(certified) and ev._nested.size == domain.n_vertices
    else:
        assert ev._nested.failed and ev._nested.size == well_column
        assert certified == [ex[j].size <= well_column for j in levels]


def test_solves_never_factor(monkeypatch):
    # a heat limit's Lanczos steps and the principal pairs solve with the
    # stored LDL^T factor: no dpttrf runs inside a solve
    import heatlab.kernels as hk

    inside, calls = [], []
    dpttrf, solve = hk.dpttrf, hk._NestedCholesky.solve

    def counted_dpttrf(d, e):
        calls.append(bool(inside))
        return dpttrf(d, e)

    def marked_solve(self, n, rhs):
        inside.append(n)
        try:
            return solve(self, n, rhs)
        finally:
            inside.pop()

    monkeypatch.setattr(hk, "dpttrf", counted_dpttrf)
    monkeypatch.setattr(hk._NestedCholesky, "solve", marked_solve)
    fx = hl.fixture("rad(3)", ambient_size=20000)
    ev = hl.HeatKernelEvaluator(hl.assemble(fx.domain), fx.exhaustion)
    assert ev.heat_kernel(1, 1, 5.0).converged
    for j in ev.usable_levels():
        assert ev.principal_eigenvalue(j) > 0.0
    assert calls and not any(calls)


@pytest.mark.parametrize("spec, size, pairs", [
    ("rad(3)", 4000, [(1, 1), (1, 2), (3, 40)]),
    ("lat1", 257, [(0, 0), (0, 1), (-2, 5)]),
    ("lat1_geo(0.5)", 257, [(0, 0), (0, 1), (-2, 5)]),
])
def test_limit_and_level_factor_read_one_green_route(spec, size, pairs):
    # an evaluator's Green value is its level factor's Green column entry, bit
    # for bit: both are one solve of A_S z = e_y on the shared nest
    fx = hl.fixture(spec, ambient_size=size)
    ev = hl.HeatKernelEvaluator(hl.assemble(fx.domain, hl.Potential.constant(fx.domain, 0.01)),
                                fx.exhaustion)
    compared = 0
    for j in ev.usable_levels():
        sub = fx.exhaustion[j]
        for x, y in pairs:
            if x in sub and y in sub:
                expected = ev.factor(j).green(sub.local_of(x), sub.local_of(y))
                assert ev.green_finite_level(j, x, y) == expected
                compared += 1
    assert compared >= 3 * len(pairs)


def test_oracle_solves_one_green_column_per_level_and_support_vertex(monkeypatch):
    # the Birman-Schwinger oracle reads 9 Green limits on a 3-vertex support;
    # the limits that share y share one solve per level
    import heatlab.kernels as hk

    fx = hl.fixture("rad(3)", ambient_size=4000)
    op = hl.assemble(fx.domain)
    ev = hl.HeatKernelEvaluator(op, fx.exhaustion)
    sizes = []
    solve = hk._NestedCholesky.solve

    def counted(self, n, rhs):
        if self is ev._nested:
            sizes.append(n)
        return solve(self, n, rhs)

    monkeypatch.setattr(hk._NestedCholesky, "solve", counted)
    well = hl.Potential.indicator(fx.domain, [1, 2, 3], -0.2)
    assert birman_schwinger_alpha0(op, well, ev) > 0.0
    per_level = [sizes.count(fx.exhaustion[j].size) for j in ev.usable_levels()]
    assert sum(per_level) == len(sizes) and 0 < max(per_level) <= 3


def test_a_nest_that_only_solves_holds_no_u():
    # rad(3)'s nests are tridiagonal throughout: the shifted nests of a heat
    # limit and the Green nest of principal pairs keep only d and l
    fx = hl.fixture("rad(3)", ambient_size=4000)
    ev = hl.HeatKernelEvaluator(hl.assemble(fx.domain), fx.exhaustion)
    assert ev.heat_kernel(1, 1, 5.0).converged
    levels = ev.usable_levels()
    for j in levels:
        ev.principal_eigenvalue(j)
    nests = [ev.factor(j)._krylov()[0] for j in levels if ev.factor(j)._shifted] + [ev._nested]
    assert len(nests) > 3 and ev._nested.size == fx.exhaustion[levels[-1]].size
    for nest in nests:
        assert nest.ab.size == 0 and nest._l.size == nest.size - 1


def test_drift_green_limit_runs_no_eigensolve(monkeypatch):
    # each level is certified by the LU that solves it, not by the sign of a
    # principal eigenvalue
    import heatlab.kernels as hk

    calls = []

    def counted(f):
        def wrapper(*args):
            calls.append(f.__name__)
            return f(*args)
        return wrapper

    monkeypatch.setattr(hk, "_inverse_iteration", counted(hk._inverse_iteration))
    monkeypatch.setattr(hk._FactorBase, "principal_pair", counted(hk._FactorBase.principal_pair))
    fx = build_drift_lattice(192)
    r = hl.HeatKernelEvaluator(hl.assemble(fx.domain), fx.exhaustion).green(0, 1)
    assert r.converged and len(r.history) > 3 and calls == []


def test_drift_green_limit_factors_each_restriction_once(monkeypatch):
    # the certificate's LU of A_S is the Green solves' LU: one per level
    import heatlab.kernels as hk

    seen = []
    sparse_lu = hk._sparse_lu

    def recorded(mat):
        seen.append((mat.shape, mat.indices.tobytes(), mat.data.tobytes()))
        return sparse_lu(mat)

    monkeypatch.setattr(hk, "_sparse_lu", recorded)
    fx = build_drift_lattice(192)
    ev = hl.HeatKernelEvaluator(hl.assemble(fx.domain), fx.exhaustion)
    r = ev.green(0, 1)
    assert r.converged and r.value == pytest.approx(2.5, rel=1e-12)
    assert len(r.history) > 3 and len(set(seen)) == len(seen) == len(r.history)
