"""Principal eigenvalues, classification, couplings, perturbation integrals.

Claims:
    - path Dirichlet eigenvalues match 2(1 - cos(pi/(n+1))) to 1e-10; lattice
      principal pairs match their closed forms (lambda to 1e-12), deep radial
      ground states LAPACK's tridiagonal eigensolver, with no sparse LU
    - lambda0 limits: lattice 0, killing shifts exactly, single vertex exact
    - the classification suite reproduces the documented fixture facts
    - ground states are one, and symmetric fixtures have phi* = phi
    - the batched Neville ground states and mass series equal the per-vertex
      algorithm bit for bit
    - critical couplings match the rank-one spectral oracle, the closed forms
      and a bisection on the Green dichotomy; their level values decrease to
      an upper bound that the top level's factor certifies
    - perturbation integrals vanish/decrease as documented
"""

import functools

import numpy as np
import pytest

import heatlab as hl
from heatlab import criticality as crit
from heatlab.domains import ball_exhaustion, single_vertex_domain
from heatlab.kernels import factorize
from heatlab.series import neville_extrapolate

from conftest import _bisect


# -- lambda0 -------------------------------------------------------------------

@pytest.mark.parametrize("n", [9, 99])
def test_path_dirichlet_eigenvalue_formula(lat1, lat1_op, n):
    half = (n - 1) // 2
    sub = hl.restrict(lat1.domain, range(-half, half + 1))
    lam = factorize(lat1_op, sub).principal_pair()[0]
    assert lam == pytest.approx(2.0 * (1.0 - np.cos(np.pi / (n + 1))), abs=1e-10)


def _unit_max_error(v, ref):
    """Max-norm distance of v from ref, both scaled to unit 2-norm and
    positive sum, relative to the max of ref."""
    v, ref = (u * np.sign(u.sum()) / np.linalg.norm(u) for u in (v, ref))
    return float(np.abs(v - ref).max() / np.abs(ref).max())


def test_lattice_principal_pairs_match_closed_forms():
    # levels of 3, 5, 9, ..., 4097 vertices: the Dirichlet path
    fx = hl.fixture("lat1", ambient_size=4099)
    ev = hl.HeatKernelEvaluator(hl.assemble(fx.domain), fx.exhaustion)
    sizes = []
    for j in ev.usable_levels():
        n = fx.exhaustion[j].size
        lam, v, positive = ev.factor(j).principal_pair()
        assert positive
        assert lam == pytest.approx(4.0 * np.sin(np.pi / (2.0 * (n + 1))) ** 2, rel=1e-12)
        if n <= 1025:
            assert _unit_max_error(v, np.sin(np.pi * np.arange(1, n + 1) / (n + 1))) < 1e-10
        sizes.append(n)
    assert sizes[-1] == 4097


def test_deep_radial_ground_states_match_a_tridiagonal_eigensolver():
    # at lambda0 ~ 1e-7 the old stopping test |d theta| <= 1e-14 was absolute,
    # and these levels' phi were off by 1e-7 to 1e-5
    import scipy.linalg as sla

    fx = hl.fixture("rad(3)", ambient_size=20000)
    ev = hl.HeatKernelEvaluator(hl.assemble(fx.domain), fx.exhaustion)
    deep = [j for j in ev.usable_levels() if fx.exhaustion[j].size >= 4096]
    assert len(deep) >= 3
    for j in deep:
        fac = ev.factor(j)
        a, root = fac.a_s.tocsr(), np.sqrt(fac.sub.mu)
        _, psi = sla.eigh_tridiagonal(a.diagonal() / fac.sub.mu, a.diagonal(1) / (root[:-1] * root[1:]),
                                      select="i", select_range=(0, 0))
        assert _unit_max_error(fac.principal_pair()[1], psi[:, 0] / root) < 1e-8


def test_symmetric_principal_pairs_need_no_sparse_lu(monkeypatch):
    import scipy.sparse.linalg

    def no_splu(*args, **kwargs):
        raise AssertionError("sparse LU called")

    monkeypatch.setattr(scipy.sparse.linalg, "splu", no_splu)
    geo = hl.fixture("lat1_geo(0.5)", ambient_size=1025)
    report = crit.classify(hl.assemble(geo.domain), geo.exhaustion)  # critical: ground states
    assert report.classification is hl.Classification.POSITIVE_CRITICAL
    rad3 = hl.fixture("rad(3)", ambient_size=2000)
    lam = crit.lambda0(hl.assemble(rad3.domain), rad3.exhaustion)
    assert lam.bracket[0] == 0.0 and 0.0 < lam.bracket[1] < 1e-5


def test_lambda0_single_vertex_exact():
    fx = single_vertex_domain()
    op = hl.assemble(fx.domain, hl.Potential.constant(fx.domain, 1.75))
    lam = hl.lambda0(op, fx.exhaustion)
    assert lam.value == pytest.approx(1.75, abs=0) and lam.error == 0.0


def test_lambda0_lattice_and_killing(lat1, lat1_op, lat1_plus1_op):
    lam = hl.lambda0(lat1_op, lat1.exhaustion)
    assert lam.value == pytest.approx(0.0, abs=1e-8)
    lam1 = hl.lambda0(lat1_plus1_op, lat1.exhaustion)
    assert lam1.value == pytest.approx(1.0, abs=1e-6)


def test_lambda0_monotone_history(lat1_ev, lat1_op, lat1):
    lam = hl.lambda0(lat1_op, lat1.exhaustion, evaluator=lat1_ev)
    values = [v for _, v in lam.history]
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def test_lambda0_shift_relation(lat1, lat1_plus1_op):
    shifted = hl.shift(lat1_plus1_op, 0.25)
    lam = hl.lambda0(shifted, lat1.exhaustion)
    base = hl.lambda0(lat1_plus1_op, lat1.exhaustion)
    assert lam.value == pytest.approx(base.value - 0.25, abs=1e-9)



def test_lambda0_clamped_into_certified_bracket():
    # lat1 + 1_{0} has lambda0 = 0 (V >= 0, lattice critical).  At 257
    # vertices the Neville extrapolate overshoots to about -1e-5; the Barta
    # bound inf D = 0 clamps it, and the error is the bracket's width
    fx = hl.fixture("lat1", ambient_size=257)
    op = hl.add_potential(hl.assemble(fx.domain), hl.Potential.indicator(fx.domain, [0], 1.0))
    lam = hl.lambda0(op, fx.exhaustion)
    last = lam.history[-1][1]
    assert lam.bracket == (0.0, last)
    assert lam.value == 0.0
    assert lam.error == last
    rep = crit.classify(op, fx.exhaustion, green_tol=1e-4)  # no NegativeLambda0Error
    assert rep.classification is hl.Classification.SUBCRITICAL
    assert f"lambda0_bracket: 0 {last:.12g}" in rep.to_text()


def test_lambda0_inside_bracket_is_the_extrapolate(drift):
    # drift lattice: lambda0 = (sqrt(1.2) - sqrt(0.8))^2 lies strictly inside
    # [inf D, lambda0(S_last)] = [0, ...], so no clamp fires
    from heatlab.series import neville_in_size

    lam = hl.lambda0(hl.assemble(drift.domain), drift.exhaustion)
    lower, upper = lam.bracket
    assert lower == 0.0 and lower < lam.value < upper
    values = [v for _, v in lam.history]
    sizes = [drift.exhaustion[j].size for j, _ in lam.history]
    assert lam.value == neville_in_size(sizes, values, min(5, len(values)))[0]


# -- classification -------------------------------------------------------------

def test_classify_lat1_null_critical(lat1, lat1_op):
    rep = crit.classify(lat1_op, lat1.exhaustion)
    assert rep.classification is hl.Classification.NULL_CRITICAL
    assert rep.lambda0.value == pytest.approx(0.0, abs=1e-8)
    assert rep.mass.diverging
    # constants are harmonic: the extrapolated ground state is flat
    for x in (0, 1, -5, 17):
        assert rep.ground_state[lat1.domain.positions_of(x)] == pytest.approx(1.0, abs=1e-6)
    assert rep.green_limit.diverging


def test_classify_geo_positive_critical(geo, geo_op):
    rep = crit.classify(geo_op, geo.exhaustion)
    assert rep.classification is hl.Classification.POSITIVE_CRITICAL
    assert rep.mass.converged
    assert rep.mass.value == pytest.approx(3.0, abs=1e-6)
    for x in (0, 1, -3):
        px = geo.domain.positions_of(x)
        assert rep.ground_state[px] == pytest.approx(1.0, abs=1e-7)
        assert rep.adjoint_ground_state[px] == pytest.approx(rep.ground_state[px], abs=1e-9)


def test_classify_subcritical_killing(lat1, lat1_plus1_op):
    rep = crit.classify(lat1_plus1_op, lat1.exhaustion)
    assert rep.classification is hl.Classification.SUBCRITICAL
    assert rep.lambda0.value == pytest.approx(1.0, abs=1e-6)
    assert rep.ground_state is None and rep.mass is None


def test_classify_radial(rad3, rad3_op):
    rep3 = crit.classify(rad3_op, rad3.exhaustion, green_tol=1e-6)
    assert rep3.classification is hl.Classification.SUBCRITICAL
    f2 = hl.fixture("rad(2)")
    rep2 = crit.classify(hl.assemble(f2.domain), f2.exhaustion)
    assert rep2.classification is not hl.Classification.SUBCRITICAL
    assert rep2.green_limit.diverging


def test_classify_agrees_with_adjoint(drift):
    op = hl.assemble(drift.domain)
    rep = crit.classify(op, drift.exhaustion)
    rep_star = crit.classify(hl.adjoint(op), drift.exhaustion)
    assert rep.classification is rep_star.classification
    # biased walk: lambda0 = (sqrt(a) - sqrt(b))^2
    expected = (np.sqrt(1.2) - np.sqrt(0.8)) ** 2
    assert rep.classification is hl.Classification.SUBCRITICAL
    assert rep.lambda0.value == pytest.approx(expected, abs=1e-4)


# -- ground states as vertex arrays ------------------------------------------------

def _neville_reference(h, values):
    """The scalar Neville tableau (Stoer & Bulirsch, section 2.1), one entry at a time."""
    t = list(values)
    prev = last = t[-1]
    for k in range(1, len(t)):
        for i in range(len(t) - k):
            t[i] = ((0.0 - h[i + k]) * t[i] - (0.0 - h[i]) * t[i + 1]) / (h[i] - h[i + k])
        prev, last = last, t[0]
    return last, abs(last - prev) if len(t) > 1 else float("inf")


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_neville_broadcasts_bit_for_bit(m):
    rng = np.random.default_rng(m)
    h = 1.0 / np.sort(rng.integers(3, 5000, size=m))[::-1]
    values = 1.0 + rng.standard_normal((m, 7)) * h[:, None]
    limits, errors = neville_extrapolate(h, values)
    assert limits.shape == errors.shape == (7,)
    for k in range(7):
        scalar = neville_extrapolate(h, values[:, k])
        assert type(scalar[0]) is float and type(scalar[1]) is float
        assert scalar == (limits[k], errors[k])
        assert scalar == _neville_reference(np.asarray(h), values[:, k])


def _per_vertex_ground_state(op, exhaustion, x0):
    """The per-vertex algorithm: one dict per level, one tableau per vertex."""
    ev = hl.HeatKernelEvaluator(op, exhaustion)
    levels = ev.usable_levels()
    per_level = {}
    for j in levels:
        _, v, _ = ev.factor(j).principal_pair()
        per_level[j] = dict(zip(exhaustion[j].labels.tolist(), v / v[exhaustion[j].local_of(x0)]))
    phi = np.full(exhaustion.domain.n_vertices, np.nan)
    for x in exhaustion[levels[-1]].labels.tolist():
        seq = [(exhaustion[j].size, per_level[j][x]) for j in levels if x in per_level[j]][-5:]
        phi[exhaustion.domain.positions_of(x)] = seq[0][1] if len(seq) == 1 else _neville_reference(
            [1.0 / s for s, _ in seq], [v for _, v in seq])[0]
    phi[exhaustion.domain.positions_of(x0)] = 1.0
    return phi


@pytest.mark.parametrize("case, kind", [
    ("lat1", hl.Classification.NULL_CRITICAL),
    ("geo", hl.Classification.POSITIVE_CRITICAL),
    ("drift", hl.Classification.NULL_CRITICAL),  # nonsymmetric: the adjoint path
])
def test_ground_states_match_per_vertex_algorithm(case, kind, request):
    fx = request.getfixturevalue(case)
    op = hl.assemble(fx.domain)
    if case == "drift":
        op = hl.shift(op, (np.sqrt(1.2) - np.sqrt(0.8)) ** 2)  # its closed-form lambda0
    rep = crit.classify(op, fx.exhaustion)
    assert rep.classification is kind
    phi = _per_vertex_ground_state(op, fx.exhaustion, rep.x0)
    phi_star = phi if op.symmetric else _per_vertex_ground_state(
        hl.adjoint(op), fx.exhaustion, rep.x0)
    assert rep.ground_state.tobytes() == phi.tobytes()
    assert rep.adjoint_ground_state.tobytes() == phi_star.tobytes()
    mu = fx.domain.mu
    assert rep.mass.history
    for j, mass_j in rep.mass.history:
        assert mass_j == sum(phi[i] * phi_star[i] * mu[i] for i in fx.exhaustion[j].positions)
    assert f"ground_state_vertices: {np.count_nonzero(~np.isnan(phi))}" in rep.to_text()


def test_ground_state_takes_one_tableau_per_depth(geo_ev, monkeypatch):
    calls = []

    def counting(h, values):
        calls.append(h)
        return neville_extrapolate(h, values)

    monkeypatch.setattr(crit, "neville_extrapolate", counting)
    x0, phi = crit.ground_state(geo_ev)
    assert 1 <= len(calls) <= 4
    assert phi[geo_ev.op.domain.positions_of(x0)] == 1.0


def test_classify_rejects_negative_lambda0(lat1, lat1_op):
    sinking = hl.add_potential(lat1_op, hl.Potential.constant(lat1.domain, -0.5))
    with pytest.raises(hl.NegativeLambda0Error):
        crit.classify(sinking, lat1.exhaustion)


def test_report_text_and_rows(lat1, lat1_plus1_op):
    rep = crit.classify(lat1_plus1_op, lat1.exhaustion)
    text = rep.to_text()
    assert "classification: subcritical" in text
    rows = rep.diagnostic_rows()
    assert rows and {"level", "lambda0_j", "green_j", "mass_j"} <= set(rows[0])


# -- log-formula estimate --------------------------------------------------------

def test_log_estimate_single_vertex_exact():
    fx = single_vertex_domain()
    op = hl.assemble(fx.domain, hl.Potential.constant(fx.domain, 0.8))
    ev = hl.HeatKernelEvaluator(op, fx.exhaustion)
    est = hl.lambda0_log_estimate(ev, 0, 0, [1.0, 2.0, 4.0, 8.0])
    assert np.allclose(est.values, 0.8, atol=1e-12)
    assert est.estimate == pytest.approx(0.8, abs=1e-9)


def test_log_estimate_lattice_fixtures(lat1_ev, lat1_plus1_ev):
    grid = np.geomspace(5.0, 100.0, 10)
    est1 = hl.lambda0_log_estimate(lat1_plus1_ev, 0, 0, grid)
    assert est1.estimate == pytest.approx(1.0, abs=0.05)
    est0 = hl.lambda0_log_estimate(lat1_ev, 0, 0, grid)
    assert est0.estimate == pytest.approx(0.0, abs=0.05)


def test_log_estimate_validates_grid(lat1_ev):
    with pytest.raises(hl.ValidationError):
        hl.lambda0_log_estimate(lat1_ev, 0, 0, [1.0, 1.0, 2.0])


@pytest.mark.parametrize("grid", [[0.0, 1.0, 2.0, 3.0], [-1.0, 1.0, 2.0],
                                  [1.0, 2.0, float("inf")], [1.0, 2.0, float("nan")]])
def test_log_estimate_rejects_nonpositive_and_nonfinite_times(lat1_ev, grid):
    with pytest.raises(hl.ValidationError):
        hl.lambda0_log_estimate(lat1_ev, 0, 0, grid)


# -- critical coupling -----------------------------------------------------------

def test_coupling_rank_one_lattice(lat1, lat1_plus1_op):
    w = hl.Potential.indicator(lat1.domain, [0], -1.0)
    res = crit.critical_coupling(lat1_plus1_op, w, lat1.exhaustion, bracket=(0.0, 4.0))
    assert res.alpha0 == pytest.approx(np.sqrt(5.0), abs=1e-3)
    assert res.oracle_alpha0 == pytest.approx(np.sqrt(5.0), rel=1e-6)
    assert res.agree


def test_coupling_oracle_is_rank_one_formula(lat1, lat1_plus1_op):
    ev = hl.HeatKernelEvaluator(lat1_plus1_op, lat1.exhaustion)
    g00 = ev.green(0, 0).value
    w = hl.Potential.indicator(lat1.domain, [0], -2.0)
    oracle = crit.birman_schwinger_alpha0(lat1_plus1_op, w, ev)
    mu0 = lat1.domain.measure_of(0)
    assert oracle == pytest.approx(1.0 / (g00 * mu0 * 2.0), rel=1e-9)


def test_coupling_requires_attraction_and_sign_change(lat1, lat1_plus1_op):
    repulsive = hl.Potential.indicator(lat1.domain, [0], +1.0)
    with pytest.raises(hl.ValidationError):
        crit.critical_coupling(lat1_plus1_op, repulsive, lat1.exhaustion)
    attractive = hl.Potential.indicator(lat1.domain, [0], -1.0)
    with pytest.raises(hl.NoSignChangeError):
        crit.critical_coupling(lat1_plus1_op, attractive, lat1.exhaustion, bracket=(0.0, 1.0))


def test_coupling_rejects_critical_base(lat1, lat1_op):
    attractive = hl.Potential.indicator(lat1.domain, [0], -1.0)
    with pytest.raises(hl.ValidationError):
        crit.critical_coupling(lat1_op, attractive, lat1.exhaustion)


@functools.cache
def _rad3_fixture():
    return hl.fixture("rad(3)", ambient_size=100000)


@functools.cache
def _drift_half_line():
    """Drift half-line 0..2000 (weight 1.2 to the right, 0.8 to the left, unit
    measure) with killing 0.05: finite and nonsymmetric, exhausted by balls."""
    n, edges = 2001, {}
    for x in range(n - 1):
        edges[(x, x + 1)], edges[(x + 1, x)] = 1.2, 0.8
    domain = hl.WeightedDomain(range(n), {x: 1.0 for x in range(n)}, edges, name="drift")
    op = hl.add_potential(hl.assemble(domain), hl.Potential.constant(domain, 0.05))
    return op, ball_exhaustion(domain)


def _coupling_case(name):
    """(operator, potential, exhaustion, green_tol) of a named coupling case."""
    if name.startswith("rad3"):
        fx = _rad3_fixture()
        well = hl.Potential.indicator(fx.domain, [int(name[-1])], -1.0)
        return hl.assemble(fx.domain), well, fx.exhaustion, 1e-5
    if name.startswith("lat1"):
        fx = hl.fixture("lat1")
        op = hl.add_potential(hl.assemble(fx.domain), hl.Potential.constant(fx.domain, 1.0))
        values = {0: -1.0, 1: 0.5} if name.endswith("sign-changing") else {0: -1.0}
        return op, hl.Potential(fx.domain, values), fx.exhaustion, None
    op, exhaustion = _drift_half_line()
    values = {0: -1.0, 1: 0.7, 2: -0.3} if name.endswith("sign-changing") else {0: -1.0}
    return op, hl.Potential(op.domain, values), exhaustion, None


COUPLING_CASES = ["rad3-r1", "rad3-r2", "rad3-r3", "lat1+1", "lat1+1-sign-changing", "drift",
                  "drift-sign-changing"]


@pytest.mark.parametrize("name", COUPLING_CASES)
def test_coupling_limit_agrees_with_bisection(name):
    # rad(3) runs at 100000: at 20000 the bisection itself lies 1.9e-4 below
    # alpha0 for r = 2, 3 (its Green limits read divergence just below alpha0)
    op, v, exhaustion, tol = _coupling_case(name)
    res = crit.critical_coupling(op, v, exhaustion, bracket=(0.0, 4.0), green_tol=tol)
    mid, _ = _bisect(op, v, exhaustion, bracket=(0.0, 4.0), green_tol=tol)
    assert abs(res.alpha0 - mid) <= 1e-4 * res.alpha0
    assert res.agree and res.alpha0 <= res.upper_bound


@pytest.mark.parametrize("name", COUPLING_CASES)
def test_coupling_level_values_decrease_to_a_certified_upper_bound(name):
    op, v, exhaustion, tol = _coupling_case(name)
    res = crit.critical_coupling(op, v, exhaustion, bracket=(0.0, 4.0), green_tol=tol)
    values = [a for _, a in res.history]
    assert all(b <= a * (1.0 + 1e-14) for a, b in zip(values, values[1:]))  # up to round-off
    assert res.upper_bound == values[-1]
    # the top level's P + alpha V is positive definite just below the bound, not just above
    top = exhaustion[hl.HeatKernelEvaluator(op, exhaustion).usable_levels()[-1]]
    for scale, definite in ((1.0 - 1e-8, True), (1.0 + 1e-8, False)):
        shifted = hl.add_potential(op, v, res.upper_bound * scale)
        assert factorize(shifted, top).is_positive_definite() is definite


def test_coupling_limit_matches_the_rank_one_closed_forms():
    op, v, exhaustion, tol = _coupling_case("rad3-r1")
    res = crit.critical_coupling(op, v, exhaustion, bracket=(0.0, 4.0), green_tol=tol)
    exact = 1.0 / (np.pi**2 / 2.0 - 4.0)  # 1/G(1, 1)
    assert abs(res.alpha0 - exact) <= 1e-8 * exact
    op, v, exhaustion, tol = _coupling_case("lat1+1")
    res = crit.critical_coupling(op, v, exhaustion, bracket=(0.0, 4.0), green_tol=tol)
    assert abs(res.alpha0 - np.sqrt(5.0)) <= 1e-12 * np.sqrt(5.0)


# -- perturbation integrals ------------------------------------------------------

def test_perturbation_integrals_zero_potential(lat1, lat1_plus1_op):
    zero = hl.Potential.zero(lat1.domain)
    res = crit.perturbation_integrals(lat1_plus1_op, zero, lat1.exhaustion)
    assert all(v == 0.0 for v in res.values)
    assert res.verdict


def test_perturbation_integrals_compact_support(rad3, rad3_op):
    v = hl.Potential.indicator(rad3.domain, [1], 1.0)
    res = crit.perturbation_integrals(rad3_op, v, rad3.exhaustion)
    # every level already contains the support: the exterior integrand vanishes
    assert all(val == 0.0 for val in res.values)
    assert res.verdict


def test_perturbation_integrals_decaying_potential(rad3, rad3_op):
    vals = {int(i): float(i) ** -3 for i in rad3.domain.labels}
    v = hl.Potential(rad3.domain, vals)
    semis = crit.perturbation_integrals(rad3_op, v, rad3.exhaustion, kind="semismall")
    assert semis.verdict
    assert semis.values[0] > semis.values[-1] > 0.0
    small = crit.perturbation_integrals(rad3_op, v, rad3.exhaustion, kind="small", seed=1)
    for s_small, s_semi in zip(small.values, semis.values):
        assert s_small + 1e-12 >= s_semi
    assert small.verdict


def test_perturbation_integrals_validation(lat1, lat1_op):
    v = hl.Potential.indicator(lat1.domain, [0], 1.0)
    with pytest.raises(hl.ValidationError):
        crit.perturbation_integrals(lat1_op, v, lat1.exhaustion)  # critical base


# -- ground-state / green comparability ------------------------------------------

def test_comparison_degenerate_identity(lat1, lat1_plus1_op, lat1_plus1_ev):
    region = list(range(3, 12))
    phi = lat1.domain.vertex_vector({x: lat1_plus1_ev.green(x, 0).value for x in region}, "phi")
    lo, hi = crit.ground_state_green_comparison(
        lat1_plus1_op, phi, 0, region, lat1.exhaustion, evaluator=lat1_plus1_ev)
    assert lo == pytest.approx(1.0, rel=1e-12)
    assert hi == pytest.approx(1.0, rel=1e-12)


def test_comparison_bound_state_family(lat1, lat1_plus1_op):
    # critical member of the family P + 1 - alpha0 * delta_0
    alpha0 = np.sqrt(5.0)
    critical_member = hl.add_potential(
        lat1_plus1_op, hl.Potential.indicator(lat1.domain, [0], -1.0), alpha0)
    rep = crit.classify(critical_member, lat1.exhaustion, x0=0)
    region = list(range(2, 13))
    lo, hi = crit.ground_state_green_comparison(
        lat1_plus1_op, rep.ground_state, 0, region, lat1.exhaustion)
    assert 0.0 < lo <= hi
    assert hi / lo < 10.0


def test_comparison_rejects_critical_operator(lat1, lat1_op):
    phi = np.ones(lat1.domain.n_vertices)
    with pytest.raises(hl.NumericalError):
        crit.ground_state_green_comparison(lat1_op, phi, 0, list(range(2, 8)),
                                           lat1.exhaustion)


def test_comparison_region_validation(lat1, lat1_plus1_op):
    with pytest.raises(hl.ValidationError):
        crit.ground_state_green_comparison(lat1_plus1_op, np.ones(lat1.domain.n_vertices), 0,
                                           [0], lat1.exhaustion)
    with pytest.raises(hl.ValidationError, match="vertex vector"):
        crit.ground_state_green_comparison(lat1_plus1_op, np.ones(3), 0, [5], lat1.exhaustion)


# -- edge weight domination -------------------------------------------------------

def test_edge_domination_trivial_cases(lat1, lat1_op):
    ones = np.ones(lat1.domain.n_vertices)
    assert crit.edge_weight_domination(lat1_op, lat1_op, ones, ones) == pytest.approx(1.0)
    doubled = hl.build_lattice_1d((lat1.domain.n_vertices - 1) // 2, "unit", conductance=2.0)
    op2 = hl.assemble(doubled.domain)
    assert crit.edge_weight_domination(op2, lat1_op, ones, ones) == pytest.approx(2.0)


def test_edge_domination_with_profiles(lat1, lat1_op, lat1_plus1_ev):
    u1 = {int(x): lat1_plus1_ev.green(int(x), 0).value for x in range(-6, 7)}
    full_u1 = {int(x): u1.get(int(x), 0.0) for x in lat1.domain.labels}
    ones = np.ones(lat1.domain.n_vertices)
    c = crit.edge_weight_domination(lat1_op, lat1_op, full_u1, ones)
    assert np.isfinite(c) and c > 0.0


def test_edge_domination_vanishing_denominator():
    d1 = hl.WeightedDomain([0, 1], {0: 1.0, 1: 1.0}, {(0, 1): 1.0, (1, 0): 1.0})
    d0 = hl.WeightedDomain([0, 1], {0: 1.0, 1: 1.0}, {(0, 1): 1.0, (1, 0): 0.0})
    op1, op0 = hl.assemble(d1), hl.assemble(d0)
    ones = np.ones(2)
    with pytest.raises(hl.NumericalError):
        crit.edge_weight_domination(op1, op0, ones, ones)


def test_edge_domination_rejects_unknown_vertex():
    d = hl.WeightedDomain([0, 1], {0: 1.0, 1: 1.0}, {(0, 1): 1.0, (1, 0): 1.0})
    op = hl.assemble(d)
    with pytest.raises(hl.ValidationError, match="unknown vertex 5"):
        crit.edge_weight_domination(op, op, {5: 1.0}, np.ones(2))
