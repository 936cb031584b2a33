"""Operator assembly, adjoints, shifts, quadratic forms.

Claims:
    - assembled action matrices match hand computations
    - <Pu, v>_mu = <u, P*v>_mu to 1e-12 and adjoint is an involution
    - the quadratic form equals <Pu, u>_mu for symmetric operators
    - off-diagonal entries of K are never positive
"""

import numpy as np
import pytest

import heatlab as hl
from heatlab.domains import single_vertex_domain
from heatlab.operators import inner_product


def two_vertex_domain(mu=(1.0, 1.0), w12=1.0, w21=1.0):
    return hl.WeightedDomain([1, 2], {1: mu[0], 2: mu[1]},
                             {(1, 2): w12, (2, 1): w21})


def test_assemble_single_vertex():
    fx = single_vertex_domain()
    op = hl.assemble(fx.domain, hl.Potential.constant(fx.domain, 3.25))
    sub = hl.restrict(fx.domain, [0])
    assert op.action_matrix_dense(sub) == pytest.approx(np.array([[3.25]]))


def test_assemble_two_vertex():
    d = two_vertex_domain()
    op = hl.assemble(d)
    k = op.action_matrix_dense(hl.restrict(d, [1, 2]))
    assert k == pytest.approx(np.array([[1.0, -1.0], [-1.0, 1.0]]))


def test_dirichlet_restriction_keeps_full_diagonal(lat1, lat1_op):
    sub = hl.restrict(lat1.domain, [0])
    assert lat1_op.action_matrix_dense(sub) == pytest.approx(np.array([[2.0]]))


def test_potential_dimension_mismatch():
    d = two_vertex_domain()
    with pytest.raises(hl.ValidationError):
        hl.assemble(d, np.array([1.0, 2.0, 3.0]))


def test_potential_rejects_nonfinite_values():
    d = two_vertex_domain()
    for bad in (float("nan"), float("inf")):
        with pytest.raises(hl.ValidationError):
            hl.Potential(d, np.array([1.0, bad]))


def test_adjoint_symmetric_is_identity(lat1_op, lat1):
    sub = hl.restrict(lat1.domain, range(-4, 5))
    a = hl.adjoint(lat1_op)
    assert a.action_matrix_dense(sub) == pytest.approx(lat1_op.action_matrix_dense(sub))


def test_adjoint_two_vertex_entry():
    d = two_vertex_domain(mu=(1.0, 2.0), w12=1.0, w21=0.0)
    op = hl.assemble(d)
    a = hl.adjoint(op)
    sub = hl.restrict(d, [1, 2])
    k_star = a.action_matrix_dense(sub)
    assert k_star[1, 0] == pytest.approx(-0.5)
    k = op.action_matrix_dense(sub)
    mu = np.array([1.0, 2.0])
    assert k_star == pytest.approx(np.diag(1 / mu) @ k.T @ np.diag(mu))


def test_adjoint_involution():
    d = two_vertex_domain(mu=(1.0, 2.0), w12=1.0, w21=0.25)
    op = hl.assemble(d, np.array([0.3, -0.1]))
    back = hl.adjoint(hl.adjoint(op))
    assert back is op  # exact involution


def test_adjoint_duality_random_graph():
    rng = np.random.default_rng(7)
    n = 12
    vertices = list(range(n))
    mu = {i: float(rng.uniform(0.5, 2.0)) for i in vertices}
    edges = {}
    for i in range(n - 1):  # path backbone keeps it connected
        edges[(i, i + 1)] = float(rng.uniform(0.1, 2.0))
        edges[(i + 1, i)] = float(rng.uniform(0.1, 2.0))
    for _ in range(8):
        i, j = rng.integers(0, n, size=2)
        if i != j:
            edges[(int(i), int(j))] = float(rng.uniform(0.0, 1.0))
    d = hl.WeightedDomain(vertices, mu, edges)
    op = hl.assemble(d, rng.normal(size=n))
    adj = hl.adjoint(op)
    k = op.action_matrix_dense(hl.restrict(d, vertices))
    k_star = adj.action_matrix_dense(hl.restrict(d, vertices))
    for _ in range(200):
        u = rng.normal(size=n)
        v = rng.normal(size=n)
        lhs = inner_product(op, k @ u, v)
        rhs = inner_product(op, u, k_star @ v)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_shift_zero_and_single_vertex():
    fx = single_vertex_domain()
    op = hl.assemble(fx.domain, hl.Potential.constant(fx.domain, 1.0))
    shifted = hl.shift(op, 0.0)
    assert np.array_equal(shifted.potential, op.potential)
    flat = hl.shift(op, 1.0)
    assert flat.potential == pytest.approx(np.zeros(1))
    sub = hl.restrict(fx.domain, [0])
    assert hl.heat_kernel_finite(flat, sub, 0, 0, 3.7) == pytest.approx(1.0)


def test_quadratic_form_values():
    fx = single_vertex_domain()
    op = hl.assemble(fx.domain, hl.Potential.constant(fx.domain, 2.5))
    assert hl.quadratic_form(op, {0: 1.0}) == pytest.approx(2.5)

    d = two_vertex_domain()
    op2 = hl.assemble(d)
    assert hl.quadratic_form(op2, {1: 1.0}) == pytest.approx(1.0)
    assert hl.quadratic_form(op2, {1: 1.0, 2: 1.0}) == pytest.approx(0.0, abs=1e-15)


def test_quadratic_form_matches_inner_product(lat1, lat1_op):
    rng = np.random.default_rng(11)
    n = lat1.domain.n_vertices
    for _ in range(25):
        u = np.zeros(n)
        support = rng.integers(0, n, size=6)
        u[support] = rng.normal(size=6)
        q = hl.quadratic_form(lat1_op, u)
        ip = inner_product(lat1_op, lat1_op.apply(u), u)
        assert q == pytest.approx(ip, rel=1e-11, abs=1e-11)


def test_quadratic_form_rejects_unknown_vertex():
    op = hl.assemble(two_vertex_domain())
    with pytest.raises(hl.ValidationError, match="unknown vertex 7"):
        hl.quadratic_form(op, {1: 1.0, 7: 1.0})


def test_quadratic_form_rejects_nonsymmetric(drift):
    op = hl.assemble(drift.domain)
    with pytest.raises(hl.ValidationError):
        hl.quadratic_form(op, {0: 1.0})


def test_potential_parts_and_file(tmp_path, lat1):
    pot = hl.Potential(lat1.domain, {0: 2.0, 1: -3.0})
    assert np.all(pot.positive_part * pot.negative_part == 0.0)
    assert set(pot.support) == {0, 1}
    pfile = tmp_path / "pot.txt"
    pfile.write_text("0 2.0\n1 -3.0\n")
    loaded = hl.Potential.from_file(lat1.domain, pfile)
    assert np.array_equal(loaded.values, pot.values)


def test_offdiagonal_sign_condition(drift, rad3):
    for fx in (drift, rad3):
        op = hl.assemble(fx.domain)
        sub = hl.restrict(fx.domain, fx.exhaustion[0].labels)
        k = op.action_matrix_dense(sub)
        off = k - np.diag(np.diag(k))
        assert np.all(off <= 0.0)


def _path_with_heavy_vertex(n=64, heavy=3, mu_heavy=1e10):
    labels = np.arange(n)
    mu = np.where(labels == heavy, mu_heavy, 1.0)
    x, y = np.r_[labels[:-1], labels[1:]], np.r_[labels[1:], labels[:-1]]
    return hl.WeightedDomain(labels, mu, (x, y, np.ones(x.size)))


@pytest.mark.parametrize("build, vertex", [
    (lambda op: hl.shift(op, np.inf), 0),
    (lambda op: hl.shift(op, np.nan), 0),
    (lambda op: hl.EllipticOperator(op.domain, np.full(op.domain.n_vertices, np.nan)), 0),
    (lambda op: hl.EllipticOperator(op.domain, np.where(op.domain.labels == 5, -np.inf, 1.0)), 5),
    (lambda op: hl.add_potential(op, hl.Potential.constant(op.domain, 1e300), 1e10), 0),
])
def test_operators_reject_nonfinite_potentials(build, vertex):
    op = hl.assemble(_path_with_heavy_vertex(mu_heavy=1.0))
    with pytest.raises(hl.ValidationError, match=f"potential is not finite at vertex {vertex}$"):
        build(op)


def test_operators_reject_an_overflowing_diagonal():
    # D = 1e300 is finite, but D mu = 1e310 at the heavy vertex is not
    domain = _path_with_heavy_vertex()
    with pytest.raises(hl.ValidationError, match="out_weight \\+ D mu overflows at vertex 3$"):
        hl.assemble(domain, hl.Potential.constant(domain, 1e300))
    # so is an out-weight that overflows, with no potential at all
    w = np.array([1e308, 1e308, 1e308, 1e308])
    wide = hl.WeightedDomain([0, 1, 2], np.ones(3), ([0, 1, 1, 2], [1, 0, 2, 1], w))
    with pytest.raises(hl.ValidationError, match="overflows at vertex 1$"):
        hl.assemble(wide)
    # below the overflow the bound passes, and so does a large but finite diagonal
    hl.assemble(domain, hl.Potential.constant(domain, 1e290))
    hl.assemble(domain, hl.Potential.constant(domain, -1e298))
