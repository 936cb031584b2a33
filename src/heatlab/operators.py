"""The discrete elliptic operator P, its adjoint, shifts and potentials.

The operator acts on vertex functions as

    (P u)(x) = (1/mu(x)) * sum_y w(x, y) (u(x) - u(y)) + D(x) u(x),

so its action matrix K has K(x, x) = (1/mu(x)) sum_y w(x, y) + D(x) and
K(x, y) = -w(x, y)/mu(x) off the diagonal.  Asymmetric edge weights carry
the first-order (drift) terms; the potential D carries the zeroth order.

Internally most computations use the measure form A = diag(mu) K, whose
entries stay O(max w + max |D mu|) even when 1/mu is astronomically large;
the raw K matrix is only materialized where it is well scaled.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .domains import WeightedDomain, IndexedSubdomain
from .errors import ValidationError


class Potential:
    """Vertex potential V with positive/negative parts V = V+ - V-."""

    def __init__(self, domain: WeightedDomain, values):
        self.domain = domain
        vec = (domain.vertex_vector(values, "potential") if isinstance(values, dict)
               else np.asarray(values, dtype=float))
        if vec.shape != (domain.n_vertices,):
            raise ValidationError("potential length does not match the domain")
        if not np.all(np.isfinite(vec)):
            raise ValidationError("potential values must be finite")
        self.values = vec

    @classmethod
    def zero(cls, domain):
        return cls(domain, np.zeros(domain.n_vertices))

    @classmethod
    def constant(cls, domain, c):
        return cls(domain, np.full(domain.n_vertices, float(c)))

    @classmethod
    def indicator(cls, domain, vertices, value=1.0):
        return cls(domain, {x: value for x in vertices})

    @classmethod
    def from_file(cls, domain, path):
        """Load `x V(x)` lines; unlisted vertices get 0."""
        values = {}
        try:
            with open(path) as fh:
                for lineno, raw in enumerate(fh, 1):
                    line = raw.split("#", 1)[0].strip()
                    if not line:
                        continue
                    try:
                        x, v = line.split()
                        values[int(x)] = float(v)
                    except ValueError:
                        raise ValidationError(
                            f"{path}:{lineno}: expected `x V(x)`, got {raw.strip()!r}") from None
        except (OSError, UnicodeDecodeError) as exc:
            raise ValidationError(f"cannot read potential file {path!r}: {exc}") from None
        return cls(domain, values)

    @property
    def support(self):
        return [int(x) for x in self.domain.labels[self.values != 0.0]]

    @property
    def positive_part(self):
        return np.maximum(self.values, 0.0)

    @property
    def negative_part(self):
        return np.maximum(-self.values, 0.0)


class EllipticOperator:
    """Discrete divergence-form operator plus potential on a weighted domain."""

    def __init__(self, domain: WeightedDomain, potential=None, _transposed=False, _fresh=False):
        # _fresh: ``potential`` is an array made for this operator, kept uncopied
        self.domain = domain
        # the adjoint of a nonsymmetric operator runs on the transposed weights
        self.transposed = bool(_transposed)
        self.weights = domain.oriented_weights(self.transposed)
        if potential is None:
            self.potential = np.zeros(domain.n_vertices)
        elif isinstance(potential, Potential):
            if potential.domain is not domain and potential.domain.n_vertices != domain.n_vertices:
                raise ValidationError("potential and domain dimensions differ")
            self.potential = potential.values.copy()
        else:
            vec = np.asarray(potential, dtype=float)
            if vec.shape != (domain.n_vertices,):
                raise ValidationError("potential length does not match the domain")
            self.potential = vec if _fresh else vec.copy()
        self.symmetric = domain.symmetric
        self._adjoint_source = None
        self._check_diagonal()

    def _check_diagonal(self):
        """Reject a potential D, or a diagonal out_weight + D mu of the measure
        form, that is not finite, naming the first such vertex.  The bound
        max|D| max mu + max out_weight clears most operators in O(1) passes."""
        d, out = self.potential, self.domain.out_weights(self.transposed)
        with np.errstate(over="ignore", invalid="ignore"):
            if np.isfinite(np.maximum(d.max(), -d.min()) * self.domain.max_mu + out.max()):
                return
            bad, what = ~np.isfinite(d), "potential is not finite"
            if not bad.any():
                bad, what = ~np.isfinite(out + d * self.mu), "diagonal out_weight + D mu overflows"
        x = self.domain.labels[np.argmax(bad)]
        raise ValidationError(f"{what} at vertex {x}")

    @property
    def mu(self):
        return self.domain.mu

    def measure_form(self, subdomain: IndexedSubdomain):
        """The sparse (CSC) measure form A_S = diag(out_weight + D mu) - W_S of
        the Dirichlet restriction to ``subdomain``: W_S holds the weights
        between its vertices, and the full out-weights count the edges that
        leave it as absorption."""
        pos = subdomain.positions
        row, col, value = subdomain._edges(self.transposed)
        inside = col >= 0
        diag = self.domain.out_weights(self.transposed)[pos] + self.potential[pos] * self.mu[pos]
        on = np.flatnonzero(diag)  # no stored zero, as in a sparse difference
        return sp.csc_matrix((np.concatenate((diag[on], -value[inside])),
                              (np.concatenate((on, row[inside])), np.concatenate((on, col[inside])))),
                             shape=(pos.size, pos.size))

    def action_matrix_dense(self, subdomain: IndexedSubdomain):
        """Dense Dirichlet principal submatrix K_S = diag(mu)^-1 A_S on ``subdomain``."""
        with np.errstate(over="raise"):
            inv_mu = 1.0 / self.mu[subdomain.positions]
        return self.measure_form(subdomain).toarray() * inv_mu[:, None]

    def apply(self, u):
        """(P u) for a full-domain vector u."""
        u = np.asarray(u, dtype=float)
        out = self.domain.out_weights(self.transposed)
        return (out * u - self.weights @ u) / self.mu + self.potential * u


def assemble(domain: WeightedDomain, potential=None) -> EllipticOperator:
    """Assemble the operator with action (Pu)(x) = (1/mu) sum w (u(x)-u(y)) + D u."""
    return EllipticOperator(domain, potential)


def adjoint(op: EllipticOperator) -> EllipticOperator:
    """Formal adjoint in the mu-weighted inner product: K* = diag(mu)^-1 K^T diag(mu).

    Realized as the operator with transposed edge weights and the potential
    adjusted by the (outflow - inflow)/mu imbalance, so the adjoint is again
    an operator of the same divergence form.  For symmetric operators the
    adjoint equals the operator entrywise.
    """
    if op.symmetric:
        return EllipticOperator(op.domain, op.potential)
    if op._adjoint_source is not None:
        return op._adjoint_source  # exact involution
    out_flow = op.domain.out_weights(op.transposed)
    in_flow = op.domain.out_weights(not op.transposed)
    d_star = op.potential + (out_flow - in_flow) / op.mu
    result = EllipticOperator(op.domain, d_star, _transposed=not op.transposed, _fresh=True)
    result._adjoint_source = op
    return result


def shift(op: EllipticOperator, lam) -> EllipticOperator:
    """P - lam: potential D - lam; heat kernels pick up the factor e^(lam t)."""
    return EllipticOperator(op.domain, op.potential - float(lam), _transposed=op.transposed,
                            _fresh=True)


def add_potential(op: EllipticOperator, potential, coupling=1.0) -> EllipticOperator:
    """P + coupling * V; the coupling must be finite."""
    if not np.isfinite(coupling):
        raise ValidationError("coupling must be finite")
    if isinstance(potential, Potential):
        vec = potential.values
    else:
        vec = np.asarray(potential, dtype=float)
    with np.errstate(over="ignore"):  # the operator rejects a potential that overflows
        total = np.multiply(vec, float(coupling), out=np.empty_like(op.potential))
        total += op.potential  # in place: one array, the same sums
    return EllipticOperator(op.domain, total, _transposed=op.transposed, _fresh=True)


def quadratic_form(op: EllipticOperator, u) -> float:
    """Q[u] = sum_edges w (u(x)-u(y))^2 + sum_x D u^2 mu for symmetric P.

    ``u`` may be a full vector or a dict of finitely many nonzero values.
    Equals the mu-weighted inner product <Pu, u>.
    """
    if not op.symmetric:
        raise ValidationError("quadratic form is only defined for symmetric operators")
    vec = op.domain.vertex_vector(u, "u") if isinstance(u, dict) else np.asarray(u, dtype=float)
    w = sp.triu(op.weights, k=1).tocoo()  # each unordered edge once; w symmetric here
    return float(np.sum(w.data * (vec[w.row] - vec[w.col]) ** 2)
                 + np.sum(op.potential * vec**2 * op.mu))


def inner_product(op_or_domain, u, v) -> float:
    """mu-weighted inner product <u, v>."""
    mu = op_or_domain.mu if hasattr(op_or_domain, "mu") else op_or_domain
    return float(np.sum(np.asarray(u) * np.asarray(v) * mu))

