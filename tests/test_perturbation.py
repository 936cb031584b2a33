"""Iterated kernels, 3-k constants, Neumann resummation, Duhamel, convexity.

Claims:
    - scalar iterated kernels reproduce e^(-t) t^j/j! to 1e-10
    - the Simpson recursion agrees with the exact spectral first layer
    - 3-k verdicts: unbounded for the scalar fixture, bounded for compact V
      on the transient radial fixture; C grows monotonically with samples
    - Neumann resummation matches direct kernels inside the radius
    - Duhamel residuals vanish to quadrature accuracy
    - nonsymmetric (drift) stacks match direct kernels and the symmetric route
    - kernel log-convexity along potential segments holds at 200+ samples
"""

import math

import numpy as np
import pytest

import heatlab as hl
from heatlab import perturbation as pert
from heatlab.domains import single_vertex_domain
from heatlab.kernels import NonsymmetricFactor, factorize

from conftest import build_drift_lattice


@pytest.fixture(scope="module")
def scalar_stack():
    fx = single_vertex_domain()
    op = hl.assemble(fx.domain, hl.Potential.constant(fx.domain, 1.0))
    v = hl.Potential.constant(fx.domain, 1.0)
    sub = hl.restrict(fx.domain, [0])
    return pert.IteratedKernelStack(op, v, sub, t_max=5.0)


@pytest.fixture(scope="module")
def lattice_setup(lat1_session):
    return lat1_session


@pytest.fixture(scope="session")
def lat1_session():
    fx = hl.fixture("lat1", ambient_size=65)
    op = hl.add_potential(hl.assemble(fx.domain), hl.Potential.constant(fx.domain, 1.0))
    v = hl.Potential.indicator(fx.domain, [0], 1.0)
    sub = hl.restrict(fx.domain, range(-16, 17))
    return fx, op, v, sub


ON_GRID_TS = [5.0 * k / 1024 for k in (64, 128, 256, 512, 1024)]


def test_scalar_iterated_closed_form(scalar_stack):
    for j in range(11):
        for t in ON_GRID_TS:
            got = pert.iterated_kernel(scalar_stack, j, 0, 0, t)
            exact = math.exp(-t) * t**j / math.factorial(j)
            assert got == pytest.approx(exact, abs=1e-10)


def test_layer_zero_is_plain_kernel(lat1_session):
    fx, op, v, sub = lat1_session
    stack = pert.IteratedKernelStack(op, v, sub, t_max=2.0)
    fac = factorize(op, sub)
    for (x, y) in [(0, 0), (-3, 5)]:
        assert stack.value(0, x, y, 2.0) == pytest.approx(
            fac.kernel(sub.local_of(x), sub.local_of(y), 2.0), rel=1e-12)


def test_zero_potential_layers_vanish(lat1_session):
    fx, op, _, sub = lat1_session
    stack = pert.IteratedKernelStack(op, hl.Potential.zero(fx.domain), sub, t_max=1.0)
    for j in (1, 2, 3):
        assert stack.value(j, 0, 0, 1.0) == 0.0


def test_simpson_matches_spectral_first_layer(lat1_session):
    fx, op, v, sub = lat1_session
    stack = pert.IteratedKernelStack(op, v, sub, t_max=2.0)
    m = pert.first_layer_spectral(op, v, sub, 2.0)
    for (x, y) in [(0, 0), (1, -4), (8, 8)]:
        assert stack.value(1, x, y, 2.0) == pytest.approx(
            m[sub.local_of(x), sub.local_of(y)], rel=1e-9, abs=1e-14)


@pytest.mark.parametrize("constant", [0.0, 1.0])
def test_simpson_matches_van_loan_first_layer(constant):
    # the Van Loan block exponential of a nonsymmetric factor of the same
    # operator shares no factorization with the stack's spectral steps
    fx = hl.fixture("lat1", ambient_size=65)
    op = hl.assemble(fx.domain, hl.Potential.constant(fx.domain, constant))
    v = hl.Potential.indicator(fx.domain, [0], 1.0)
    sub = hl.restrict(fx.domain, range(-16, 17))
    stack = pert.IteratedKernelStack(op, v, sub, t_max=5.0)
    v_abs = np.abs(v.values[sub.positions])
    for t in (2.0, 5.0):
        oracle = pert._first_layer_expm(NonsymmetricFactor(op, sub), v_abs, t)
        for y in (0, 3):
            simpson = stack.column_at(1, y, t)
            assert np.max(np.abs(simpson - oracle[:, sub.local_of(y)])) <= 1e-9


@pytest.mark.parametrize("t", [-1.0, float("nan"), float("inf")])
def test_spectral_first_layer_rejects_bad_times(t):
    fx = hl.fixture("lat1", ambient_size=65)
    op, v = hl.assemble(fx.domain), hl.Potential.indicator(fx.domain, [0], 1.0)
    sub = hl.restrict(fx.domain, range(-4, 5))
    with pytest.raises(hl.ValidationError):
        pert.first_layer_spectral(op, v, sub, t)
    assert np.array_equal(pert.first_layer_spectral(op, v, sub, 0.0), np.zeros((9, 9)))


def test_quadrature_self_check_flags_coarse_steps(scalar_stack):
    # a stiff two-vertex graph: e^(-80 s) under-resolved by 8 Simpson steps
    d = hl.WeightedDomain([0, 1], {0: 1.0, 1: 1.0}, {(0, 1): 40.0, (1, 0): 40.0})
    op = hl.assemble(d)
    v = hl.Potential.indicator(d, [0], 1.0)
    sub = hl.restrict(d, [0, 1])
    coarse = pert.IteratedKernelStack(op, v, sub, t_max=5.0, n_steps=8)
    with pytest.raises(hl.QuadratureError):
        pert.iterated_kernel(coarse, 1, 0, 0, 5.0, self_check=True, check_tol=1e-10)
    # the default step passes its own self check
    pert.iterated_kernel(scalar_stack, 3, 0, 0, 5.0, self_check=True)


def test_three_k_scalar_unbounded(scalar_stack):
    fx = single_vertex_domain()
    op = hl.assemble(fx.domain, hl.Potential.constant(fx.domain, 1.0))
    v = hl.Potential.constant(fx.domain, 1.0)
    sub = hl.restrict(fx.domain, [0])
    res = pert.three_k_constant(op, v, sub)
    assert res.unbounded
    assert res.trend_power == pytest.approx(1.0, abs=0.05)
    # the ratio at the scalar fixture is exactly t
    assert res.c_estimate == pytest.approx(100.0, rel=1e-6)


def test_three_k_zero_potential(lat1_session):
    fx, op, _, sub = lat1_session
    res = pert.three_k_constant(op, hl.Potential.zero(fx.domain), sub,
                                t_grid=np.geomspace(0.1, 10.0, 8))
    assert res.c_estimate == 0.0 and res.bounded


def test_three_k_bounded_on_transient_fixture(rad3, rad3_op):
    v = hl.Potential.indicator(rad3.domain, [1], 1.0)
    sub = hl.restrict(rad3.domain, range(1, 65))
    res = pert.three_k_constant(rad3_op, v, sub, mode="semibounded", y=1,
                                t_grid=np.geomspace(0.1, 50.0, 25))
    assert res.bounded
    assert np.isfinite(res.c_estimate)


def test_three_k_monotone_in_samples(lat1_session):
    fx, op, v, sub = lat1_session
    small_grid = np.geomspace(0.1, 5.0, 6)
    big_grid = np.geomspace(0.1, 20.0, 12)
    fac = factorize(op, sub)
    c_small = pert.three_k_constant(op, v, sub, t_grid=small_grid, factor=fac).c_estimate
    c_big = pert.three_k_constant(op, v, sub, t_grid=big_grid, factor=fac).c_estimate
    assert c_big + 1e-15 >= c_small


def test_neumann_eps_zero_identity(scalar_stack):
    val, terms = pert.neumann_heat_kernel(scalar_stack, 0.0, 0, 0, 2.5)
    assert terms == 1
    assert val == pytest.approx(math.exp(-2.5), abs=1e-12)


def test_neumann_scalar_closed_form(scalar_stack):
    for t in (1.25, 2.5, 5.0):
        val, _ = pert.neumann_heat_kernel(scalar_stack, 0.3, 0, 0, t, series_tol=1e-12)
        assert val == pytest.approx(math.exp(-1.3 * t), abs=1e-8)


def test_neumann_matches_direct_kernel(lat1_session):
    fx, op, v, sub = lat1_session
    stack = pert.IteratedKernelStack(op, v, sub, t_max=2.0)
    val, terms = pert.neumann_heat_kernel(stack, 0.1, 0, 0, 2.0, series_tol=1e-12)
    direct = factorize(hl.add_potential(op, v, 0.1), sub).kernel(
        sub.local_of(0), sub.local_of(0), 2.0)
    assert val == pytest.approx(direct, abs=1e-8 * direct)
    assert terms < 12


def test_neumann_nonconvergence_reported(scalar_stack):
    with pytest.raises(hl.NumericalError):
        pert.neumann_heat_kernel(scalar_stack, 2.0, 0, 0, 5.0,
                                 series_tol=1e-12, max_terms=3)


def test_duhamel_trivial_cases(lat1_session):
    fx, op, v, sub = lat1_session
    assert pert.duhamel_residual(op, v, 0.0, sub, 0, 1, 1.0) <= 1e-14
    zero = hl.Potential.zero(fx.domain)
    assert pert.duhamel_residual(op, zero, 0.7, sub, 0, 1, 1.0) <= 1e-14


def test_duhamel_scalar_and_lattice(lat1_session):
    fxs = single_vertex_domain()
    ops = hl.assemble(fxs.domain, hl.Potential.constant(fxs.domain, 1.0))
    vs = hl.Potential.constant(fxs.domain, 1.0)
    subs = hl.restrict(fxs.domain, [0])
    assert pert.duhamel_residual(ops, vs, 0.5, subs, 0, 0, 1.0) < 1e-10

    fx, op, v, sub = lat1_session
    assert pert.duhamel_residual(op, v, 0.5, sub, 0, 1, 1.0) < 1e-8


@pytest.fixture(scope="module")
def drift_setup():
    fx = build_drift_lattice(24)
    op = hl.assemble(fx.domain)
    v = hl.Potential.indicator(fx.domain, [0], 1.0)
    sub = hl.restrict(fx.domain, range(-24, 25))
    return op, v, sub


@pytest.mark.parametrize("eps", [0.1, 0.3])
def test_neumann_matches_direct_kernel_on_drift(drift_setup, eps):
    op, v, sub = drift_setup
    stack = pert.IteratedKernelStack(op, v, sub, t_max=2.0)
    val, _ = pert.neumann_heat_kernel(stack, eps, 0, 0, 2.0, series_tol=1e-12)
    direct = factorize(hl.add_potential(op, v, eps), sub).kernel(
        sub.local_of(0), sub.local_of(0), 2.0)
    assert val == pytest.approx(direct, rel=1e-8)


def test_duhamel_on_drift(drift_setup):
    op, v, sub = drift_setup
    assert pert.duhamel_residual(op, v, 0.3, sub, 0, 0, 2.0) < 1e-8


def test_nonsymmetric_layer_matches_symmetric_route(lat1_session):
    fx, op, v, sub = lat1_session
    sym = pert.IteratedKernelStack(op, v, sub, t_max=5.0)
    non = pert.IteratedKernelStack(op, v, sub, t_max=5.0, factor=NonsymmetricFactor(op, sub))
    for y in (0, 3):
        ref = sym.layer_column(y, 1)
        assert np.max(np.abs(non.layer_column(y, 1) - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_three_k_nonsymmetric_off_grid(lat1_session):
    # none of these times lies on the stack grid (step 5/1024); semibounded at
    # the potential vertex keeps every sampled kernel well above round-off
    fx, op, v, sub = lat1_session
    t_grid = np.geomspace(0.5, 5.0, 7)
    ref = pert.three_k_constant(op, v, sub, t_grid=t_grid, mode="semibounded", y=0)
    got = pert.three_k_constant(op, v, sub, t_grid=t_grid, mode="semibounded", y=0,
                                factor=NonsymmetricFactor(op, sub))
    np.testing.assert_allclose(got.per_t_max, ref.per_t_max, rtol=1e-6)


def test_three_k_bounded_mode_skips_round_off(lat1_session):
    # bounded mode samples far pairs whose symmetric spectral kernel is only
    # round-off (~1e-17 of the diagonal scale); both routes must skip them
    fx, op, v, sub = lat1_session
    ref = pert.three_k_constant(op, v, sub)
    # at small t the largest ratio is k^(1)/k ~ t, taken at x = y = 0
    assert ref.t_grid[0] == 0.05
    assert ref.per_t_max[0] == pytest.approx(0.05, rel=1e-2)
    got = pert.three_k_constant(op, v, sub, factor=NonsymmetricFactor(op, sub))
    assert got.c_estimate == pytest.approx(ref.c_estimate, rel=1e-5)
    np.testing.assert_allclose(got.per_t_max, ref.per_t_max, rtol=1e-10)


def test_stack_rejects_nonfinite_t_max(lat1_session):
    fx, op, v, sub = lat1_session
    for bad in (float("nan"), float("inf")):
        with pytest.raises(hl.ValidationError):
            pert.IteratedKernelStack(op, v, sub, t_max=bad)


def test_equivalence_reports(rad3, rad3_op):
    v = hl.Potential.indicator(rad3.domain, [1], 1.0)
    sub = hl.restrict(rad3.domain, range(1, 33))
    t_grid = np.geomspace(0.2, 10.0, 8)
    reports = pert.equivalence_check(rad3_op, v, [0.0, 0.2, 5.0], sub, t_grid=t_grid)
    by_eps = {r.epsilon: r for r in reports}
    assert by_eps[0.0].upper_ratio == pytest.approx(1.0, abs=1e-9)
    assert by_eps[0.0].lower_ratio == pytest.approx(1.0, abs=1e-9)
    r02 = by_eps[0.2]
    if r02.c_estimate * 0.2 < 1.0:
        assert r02.bound_satisfied
    # V >= 0: one-sided bound holds for every eps > 0, radius or not
    assert by_eps[5.0].max_principle_ok


def test_equivalence_attractive_side(lat1_session):
    fx, op, v, sub = lat1_session
    reports = pert.equivalence_check(op, v, [-0.2], sub,
                                     t_grid=np.geomspace(0.2, 5.0, 6))
    rep = reports[0]
    assert rep.lower_ratio >= 1.0 - 1e-6  # raises the kernel, up to sampling noise
    if rep.c_estimate * 0.2 < 1.0:
        assert rep.bound_satisfied is not None


def test_convexity_scalar_equality():
    fx = single_vertex_domain()
    op0 = hl.assemble(fx.domain)
    op1 = hl.assemble(fx.domain, hl.Potential.constant(fx.domain, 1.0))
    sub = hl.restrict(fx.domain, [0])
    rep = pert.convexity_check(op0, op1, [0.0, 0.5, 1.0], sub, [(0, 0)], [1.0])
    assert rep.holds
    assert rep.worst_margin == pytest.approx(0.0, abs=1e-14)


def test_convexity_sweep_lat1(lat1, lat1_op):
    rng = np.random.default_rng(17)
    sub = hl.restrict(lat1.domain, range(-10, 11))
    op1 = hl.add_potential(lat1_op, hl.Potential.indicator(lat1.domain, [0], 1.0))
    pairs = [(int(a), int(b)) for a, b in rng.integers(-10, 11, size=(25, 2))]
    ts = rng.uniform(0.2, 4.0, size=4)
    alphas = [0.25, 0.5, 0.75]
    rep = pert.convexity_check(lat1_op, op1, alphas, sub, pairs, ts,
                               exhaustion=lat1.exhaustion)
    assert rep.holds
    assert rep.samples >= 200


def test_convexity_rejects_negative_endpoint(lat1, lat1_op):
    sinking = hl.add_potential(lat1_op, hl.Potential.constant(lat1.domain, -1.0))
    sub = hl.restrict(lat1.domain, range(-4, 5))
    with pytest.raises(hl.NegativeLambda0Error):
        pert.convexity_check(lat1_op, sinking, [0.5], sub, [(0, 0)], [1.0],
                             exhaustion=lat1.exhaustion)


def test_neumann_derivative_matches_first_layer(lat1_session):
    # d/d eps at 0 of the resummation is -k^(1), identifying the series terms
    fx, op, v, sub = lat1_session
    stack = pert.IteratedKernelStack(op, v, sub, t_max=2.0)
    eps = 1e-5
    up, _ = pert.neumann_heat_kernel(stack, eps, 0, 0, 2.0, series_tol=1e-14)
    down, _ = pert.neumann_heat_kernel(stack, -eps, 0, 0, 2.0, series_tol=1e-14)
    derivative = (up - down) / (2 * eps)
    assert derivative == pytest.approx(-stack.value(1, 0, 0, 2.0), rel=1e-6)


# --- the blocked time scan against sequential and O(N^2) references ---------

SCAN_STEPS = [*range(1, 10), 33, 1024]


@pytest.fixture(scope="module", params=["symmetric", "drift"])
def seven_vertex_factor(request):
    """A factor on the 7-vertex restriction {-3..3} of lat1 + 1 (symmetric)
    or of a biased walk (nonsymmetric)."""
    if request.param == "symmetric":
        fx = hl.fixture("lat1", ambient_size=33)
        op = hl.add_potential(hl.assemble(fx.domain), hl.Potential.constant(fx.domain, 1.0))
    else:
        fx = build_drift_lattice(8)
        op = hl.assemble(fx.domain)
    return factorize(op, hl.restrict(fx.domain, range(-3, 4)))


def _powers(s, n):
    """S^0, S^1, ..., S^n by repeated products."""
    out = [np.eye(len(s))]
    for _ in range(n):
        out.append(s @ out[-1])
    return np.array(out)


def _simpson_reference(f, powers, h):
    """c(t_i) from Simpson weights with a closing 3/8 block on every [0, t_i]
    (the trapezoid rule at i = 1), applied through explicit powers
    S(t_i - t_l) = powers[i - l]: O(N^2) products."""
    c = np.zeros_like(f)
    for i in range(1, len(f)):
        if i == 1:
            w = np.array([h / 2.0, h / 2.0])
        else:
            even = i - 3 if i % 2 else i
            w = np.zeros(i + 1)
            if even:
                w[:even + 1] = 1.0
                w[1:even:2] = 4.0
                w[2:even:2] = 2.0
                w[:even + 1] *= h / 3.0
            if i % 2:
                w[even:] += 3.0 * h / 8.0 * np.array([1.0, 3.0, 3.0, 1.0])
        c[i] = np.einsum("lab,lb->a", powers[i::-1], w[:, None] * f[:i + 1])
    return c


def _rel_err(got, ref):
    return float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))


@pytest.mark.parametrize("n_steps", SCAN_STEPS)
def test_scan_matches_sequential_recurrence(seven_vertex_factor, n_steps):
    # K = 5, 7, 9, 33 and 1024 pad the last block (b = 2, 2, 2, 4, 23)
    a = seven_vertex_factor.semigroup_matrix(2.0 / n_steps)
    rng = np.random.default_rng(n_steps)
    x0 = rng.standard_normal(len(a))
    g = rng.standard_normal((n_steps, len(a)))
    ref = np.empty((n_steps + 1, len(a)))
    ref[0] = x0
    for k in range(n_steps):
        ref[k + 1] = a @ ref[k] + g[k]
    got = pert._scan(a, x0, g)
    assert got.shape == ref.shape
    assert _rel_err(got, ref) <= 1e-13


@pytest.mark.parametrize("n_steps", SCAN_STEPS)
def test_march_matches_repeated_products(seven_vertex_factor, n_steps):
    a = seven_vertex_factor.semigroup_matrix(2.0 / n_steps)
    start = np.zeros(len(a))
    start[3] = 1.0
    ref = _powers(a, n_steps) @ start
    assert _rel_err(pert._march(a, start, n_steps), ref) <= 1e-13


@pytest.mark.parametrize("n_steps", SCAN_STEPS)
def test_convolve_matches_simpson_reference(seven_vertex_factor, n_steps):
    h = 2.0 / n_steps
    powers = _powers(seven_vertex_factor.semigroup_matrix(h), max(n_steps, 3))
    rng = np.random.default_rng(n_steps)
    f = rng.uniform(0.5, 1.5, (n_steps + 1, powers.shape[1]))
    got = pert._convolve(f, powers[1:4], h)
    assert _rel_err(got, _simpson_reference(f, powers, h)) <= 1e-13


# --- input validation of the stack and the resummation ---------------------

@pytest.fixture(scope="module")
def lat1_nine():
    fx = hl.fixture("lat1", ambient_size=33)
    op = hl.assemble(fx.domain)
    return op, hl.Potential.indicator(fx.domain, [0], 1.0), hl.restrict(fx.domain, range(-4, 5))


@pytest.mark.parametrize("bad", [0, -3, 2.7, float("nan"), 4.0, True])
def test_stack_rejects_non_positive_integer_steps(lat1_nine, bad):
    op, v, sub = lat1_nine
    with pytest.raises(hl.HeatLabError) as info:
        pert.IteratedKernelStack(op, v, sub, t_max=1.0, n_steps=bad)
    assert type(info.value) is hl.ValidationError


def test_stack_accepts_numpy_integer_steps(lat1_nine):
    op, v, sub = lat1_nine
    assert pert.IteratedKernelStack(op, v, sub, t_max=1.0, n_steps=np.int64(8)).n_steps == 8


def test_self_check_rejects_one_step_stack(lat1_nine):
    op, v, sub = lat1_nine
    stack = pert.IteratedKernelStack(op, v, sub, t_max=1.0, n_steps=1)
    with pytest.raises(hl.HeatLabError) as info:
        pert.iterated_kernel(stack, 1, 0, 0, 1.0, self_check=True)
    assert type(info.value) is hl.ValidationError


@pytest.mark.parametrize("n_steps", [1, 2, 3])
def test_off_grid_times_interpolate_on_short_grids(n_steps):
    # fewer than 4 grid nodes once indexed past the grid; the interpolant
    # reads the n_steps + 1 nodes there are and is exact on linear data
    fx = hl.fixture("lat1", ambient_size=33)
    op = hl.assemble(fx.domain)
    sub = hl.restrict(fx.domain, range(-5, 6))
    stack = pert.IteratedKernelStack(op, hl.Potential.indicator(fx.domain, [0]), sub,
                                     t_max=1.0, n_steps=n_steps)
    assert np.isfinite(stack.value(1, 0, 0, 0.3))
    slope = np.linspace(-1.0, 1.0, sub.size)
    stack.layer_column(0, 1)[:] = 0.5 + stack.grid[:, None] * slope
    assert stack.column_at(1, 0, 0.3) == pytest.approx(0.5 + 0.3 * slope, rel=1e-13, abs=1e-15)


@pytest.mark.parametrize("eps", [float("nan"), float("inf"), float("-inf")])
def test_neumann_rejects_nonfinite_coupling(scalar_stack, eps):
    with pytest.raises(hl.HeatLabError, match="coupling must be finite") as info:
        pert.neumann_heat_kernel(scalar_stack, eps, 0, 0, 1.0)
    assert type(info.value) is hl.ValidationError


@pytest.mark.parametrize("call", ["iterated_kernel", "layer_column", "value"])
@pytest.mark.parametrize("bad", [1.5, float("nan"), 2.0, True, -1])
def test_stack_rejects_non_integer_layer_index(lat1_nine, call, bad):
    op, v, sub = lat1_nine
    stack = pert.IteratedKernelStack(op, v, sub, t_max=1.0, n_steps=8)
    with pytest.raises(hl.HeatLabError, match="layer index") as info:
        if call == "iterated_kernel":
            pert.iterated_kernel(stack, bad, 0, 0, 1.0)
        elif call == "layer_column":
            stack.layer_column(0, bad)
        else:
            stack.value(bad, 0, 0, 1.0)
    assert type(info.value) is hl.ValidationError
    assert stack._columns == {}  # rejected before any layer is built


BAD_GRIDS = [[-1.0, 0.5, 1.0], [0.0, 1.0], [float("nan"), 1.0], [0.5, float("inf")], []]


@pytest.fixture(scope="module")
def lat1_nine_plus1(lat1_nine):
    op, v, sub = lat1_nine
    return hl.add_potential(op, hl.Potential.constant(op.domain, 1.0)), v, sub


@pytest.mark.parametrize("grid", BAD_GRIDS)
def test_three_k_rejects_bad_times(lat1_nine_plus1, grid):
    op, v, sub = lat1_nine_plus1
    with pytest.raises(hl.HeatLabError, match="times must be finite and positive") as info:
        pert.three_k_constant(op, v, sub, t_grid=grid)
    assert type(info.value) is hl.ValidationError


@pytest.mark.parametrize("grid", BAD_GRIDS)
def test_equivalence_check_rejects_bad_times(lat1_nine_plus1, grid):
    op, v, sub = lat1_nine_plus1
    with pytest.raises(hl.HeatLabError, match="times must be finite and positive") as info:
        pert.equivalence_check(op, v, [0.1], sub, t_grid=grid)
    assert type(info.value) is hl.ValidationError


@pytest.mark.parametrize("grid", BAD_GRIDS)
def test_convexity_check_rejects_bad_times(lat1_nine_plus1, grid):
    op, v, sub = lat1_nine_plus1
    op1 = hl.add_potential(op, v)
    with pytest.raises(hl.HeatLabError, match="times must be finite and positive") as info:
        pert.convexity_check(op, op1, [0.5], sub, [(0, 0)], grid)
    assert type(info.value) is hl.ValidationError
