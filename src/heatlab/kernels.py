"""Dirichlet heat kernels and Green functions on subdomains and their exhaustion limits.

Kernels are densities with respect to the measure:

    k(x, y, t) = [exp(-t K_S)](x, y) / mu(y),      G(x, y) = [K_S^-1](x, y) / mu(y),

where K_S is the Dirichlet restriction (principal submatrix) of the action
matrix.  All linear algebra runs on the measure form A_S = diag(mu) K_S,
whose entries stay bounded even when jump rates 1/mu span hundreds of orders
of magnitude.

A_S = diag(out_weight + D mu) - W_S is assembled as a sparse matrix only
where it is read (``EllipticOperator.measure_form``): the direct spectral
route and nonsymmetric restrictions.  The symmetric certificate, Green
solves, principal pairs and Krylov steps read the banded factors below,
which take the diagonal from the operator and the band from the nest.

Symmetric restrictions certify positive definiteness by a banded Cholesky
factorization A_S = U^T U: it exists exactly when A_S is positive definite.
Along an exhaustion one factor serves every level.  In the exhaustion's
level-major order (``domains.NestedOrder``) each A_{S_j} is a leading block
of the deepest level's A_S, so its factor is the leading block of U: one
factor per (operator, exhaustion), grown shell by shell as deep as some
level is asked for, certifies each level by whether its whole prefix
factors (LAPACK's ``info`` is the first failing leading minor), and gives
its Green values G_j(x, y) as entries of the column A_{S_j}^-1 e_y, one
solve per level and column.  A column of the factor is factored once, kept
as LDL^T pivots and multipliers on the order's tridiagonal prefix, as U past
it (see ``_NestedCholesky``).  A standalone
factor is a one-level nest in the level's own order
(``IndexedSubdomain.order``).  A closed level (no absorption) with D = 0 is
singular, A_S 1 = 0, and never certified, whatever the last pivot's round-off.

Symmetric kernels work with H = diag(mu)^(-1/2) A_S diag(mu)^(-1/2) and its
shifted inverse B = (H - sigma)^(-1) = diag(mu)^(1/2) (A_S - sigma D_mu)^(-1)
diag(mu)^(1/2), sigma = min D - 1.  The diagonal out_weight + (D - sigma) mu of
A_S - sigma D_mu exceeds the W_S row sums, so its Cholesky factor (a
one-level ``_NestedCholesky`` with shift sigma, in the level's own order)
exists on certified, singular and indefinite levels alike, and B has the
eigenvectors of H and eigenvalues 1/(lambda - sigma) in (0, 1].  B stays
representable however widely the jump rates 1/mu spread.

* Point queries k(x, y, t) run Lanczos on B from e_y (shift-and-invert
  Krylov; van den Eshof & Hochbruck 2006): exp(-tH) e_y ~ V f(T) e_1 with
  f(nu) = exp(-t(1/nu + sigma)).  A query's own three-term recurrence keeps
  two Lanczos vectors and their entries at row x, not V, and serves a whole
  time grid (``HeatKernelEvaluator.heat_kernels``): one Ritz decomposition
  of T_m per check m (every 5 steps up to 30, then every 10) serves every t,
  and the stopping rule is applied per t, so a grid's values equal those of
  one-t calls bit for bit; the factor keeps only each column's settled c(t).
  A step, in the coordinates of the level's own order, costs one O(n) solve
  by its factor of A_S - sigma D_mu (``_NestedCholesky.solve``).  A t
  unsettled at a small level's dimension n is read from B's dense eigenpairs.
* All-pairs queries (kernel and semigroup matrices, the perturbation
  module's first layer) eigendecompose the whole level: H
  directly when its rates are at most ``WELL_SCALED_RATE``, else B.

Principal pairs (lambda0(S), phi) come from inverse iteration on the leading
block of a nest of A - sigma D_mu, sigma = min_S D, which is positive
definite on every level but the closed one with D = sigma.  Sparse LUs serve
only nonsymmetric restrictions: one LU of A_S per level certifies the level,
solves its Green values and serves the principal pair at sigma = min D = 0.
Nonsymmetric kernels use dense scaling-and-squaring matrix exponentials.
"""

from __future__ import annotations

import bisect
import enum
import functools
import math
import threading
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
# banded and tridiagonal LAPACK directly: scipy's cholesky_banded and
# cho_solve_banded copy the band and the right-hand side through
# asarray_chkfinite on every call
from scipy.linalg.lapack import dpbtrf, dpbtrs, dpttrf, dpttrs, dstevd

from .domains import Exhaustion, IndexedSubdomain, NestedOrder
from .errors import InconclusiveError, NumericalError, ValidationError
from .operators import EllipticOperator
from .series import increments_decreasing, neville_in_size

#: all-pairs queries on restrictions whose jump rates exceed this
#: eigendecompose B instead of H
WELL_SCALED_RATE = 1e8

HEAT_TOL = 1e-9
GREEN_TOL = 1e-8
#: Lanczos steps per recurrence; a time unsettled by then has no value
LANCZOS_CAP = 500


class LimitStatus(enum.Enum):
    CONVERGED = "converged"
    DIVERGING = "diverging"
    INCONCLUSIVE = "inconclusive"


@dataclass
class LimitResult:
    """Outcome of an exhaustion limit: value, status and per-level history."""

    value: float
    status: LimitStatus
    level: int | None
    history: list = field(default_factory=list)
    model: str = "raw"
    error_estimate: float = float("nan")
    evidence: str = ""

    @property
    def converged(self):
        return self.status is LimitStatus.CONVERGED

    @property
    def diverging(self):
        return self.status is LimitStatus.DIVERGING

    def __repr__(self):
        return (
            f"LimitResult({self.value!r}, {self.status.value}, level={self.level}, "
            f"model={self.model!r})"
        )


def _clamped(values, scale):
    """Zero out negative round-off noise below the spectral noise floor."""
    floor = 1e-13 * scale
    out = np.asarray(values, dtype=float)
    noise = np.abs(out) <= floor
    return np.where(noise, np.maximum(out, 0.0), out)


def _trend_diverging(values, sizes, tol):
    """Increments nondecreasing over >= 3 consecutive levels.

    Each increment is divided by the log of its level-size growth, however
    small that growth is, so that a final partial level (adding only a few
    vertices) does not mask a log or linear divergence.
    """
    if len(values) < 4:
        return False
    v = np.asarray(values[-4:], dtype=float)
    s = np.asarray(sizes[-4:], dtype=float)
    inc = np.abs(np.diff(v))
    if not np.all(inc > tol * max(abs(v[-1]), 1e-300)):
        return False
    ninc = inc / np.log(s[1:] / s[:-1])
    return bool(np.all(ninc[1:] >= ninc[:-1] * (1.0 - 1e-3)))


def _sparse_lu(mat):
    """SuperLU factors of ``mat``; a singular matrix is a NumericalError."""
    try:
        return spla.splu(mat)
    except RuntimeError as exc:  # SuperLU's "Factor is exactly singular"
        raise NumericalError(f"sparse LU failed: {exc}") from None


def _inverse_iteration(solve, mu):
    """Inverse iteration v <- solve(mu v) = A^-1 D_mu v from the constant vector
    (Parlett 1998, ch. 4), v of unit 2-norm, until a max-norm change is at
    most 4e-15 of max|v|, or below 1e-12 and no longer shrinking (round-off;
    a larger change can grow while v turns towards a localized mode)."""
    v = np.full(mu.size, 1.0 / math.sqrt(mu.size))
    change = math.inf
    for _ in range(500):
        w = solve(mu * v)
        norm = float(np.linalg.norm(w))
        if norm == 0.0 or not np.isfinite(norm):
            raise NumericalError("inverse power iteration broke down")
        w /= norm
        step = float(np.max(np.abs(w - v))) / float(np.max(np.abs(w)))
        v = w
        if step <= 4e-15 or (step >= change and step <= 1e-12):
            break
        change = step
    return v


def _fortran_concatenate(arrays, axis):
    """``np.concatenate`` into a new Fortran-ordered array, in one copy."""
    shape = list(arrays[0].shape)
    shape[axis] = sum(a.shape[axis] for a in arrays)
    return np.concatenate(arrays, axis=axis, out=np.empty(shape, order="F"))


class _NestedCholesky:
    """The Cholesky factor A = U^T U of one symmetric operator's shifted measure
    form A = A_op - sigma D_mu over a ``NestedOrder``, grown on demand; each
    column is factored once.  ``_diagonal`` reads its diagonal out_weight +
    (D - sigma) mu from the domain (out-weights in full: edges leaving a level
    are absorption); sigma = 0 (the operator itself) costs nothing extra.

    Every level is a prefix of the order, so A_S of a level with n vertices is
    the leading n x n block of A, and its factor is the leading block of A's.
    ``size`` columns are factored.  ``failed`` means that column ``size`` had a
    nonpositive pivot: no longer prefix is positive definite, and the factor
    grows no further.  A level's Green values G(x, y) are entries of its
    column A_n^-1 e_y, one ``solve`` per level and column, cached.

    The nest's tridiagonal prefix (the whole nest on rad(d)) is factored by
    LAPACK's LDL^T ``dpttrf``, A = L diag(d) L^T, each window led by the last
    stored pivot, and only d and l are kept: ``solve`` reads them by
    ``dpttrs``.  U in LAPACK upper banded storage (``ab``) exists only once
    the nest grows past that prefix: written for the prefix from (d, l),
    U = diag(d)^(1/2) L^T, it grows by ``dpbtrf`` and solves by ``dpbtrs``.
    The tridiagonal route is seeded with the last stored pivot and the banded
    one runs in windows that end at level sizes, so neither the factor nor a
    Green value depends on how the growth was split or on which operator grew
    the shared nest first.
    """

    def __init__(self, op, nest: NestedOrder, sigma=0.0):
        self.op = op
        self.nest = nest
        self.sigma = sigma
        self._d, self._l = np.zeros(0), np.zeros(0)  # LDL^T of the tridiagonal prefix
        self.ab = np.zeros((1, 0), order="F")  # U, banded, once the nest grows past it
        self.failed = False
        self._columns = {}  # (n, m) -> the Green column A_n^-1 e_m
        self._lock = threading.Lock()

    @property
    def size(self):
        return max(self._d.size, self.ab.shape[1])

    def definite(self, n):
        """Whether the leading n x n block of A is positive definite: its
        Cholesky factor exists, and it is not the closed level (the whole
        connected domain, no edge leaving it) with D = sigma, where
        A 1 = (D - sigma) mu = 0, whatever the round-off of the last pivot."""
        if n == self.op.domain.n_vertices and not np.any(self.op.potential != self.sigma):
            return False
        with self._lock:
            for end in self._ends(self.size, n):
                if not self.failed:
                    self._extend(end)
        return n <= self.size

    def _ends(self, p, n):
        """The ends of the windows that grow the factor from p to n:
        every level size in between, then n (none when p >= n)."""
        if n <= p:
            return []
        sizes = self.nest.sizes
        return sizes[bisect.bisect_right(sizes, p):bisect.bisect_left(sizes, n)] + [n]

    def _extend(self, q):
        """Factor columns [size, q): those in the nest's tridiagonal prefix by
        ``dpttrf``, the rest by ``dpbtrf`` on the window [size - kd, q), whose
        leading block T^T T (T: the stored trailing block of U) carries the
        coupling to the columns already factored.  The operator's diagonal is
        finite (``EllipticOperator`` checks it), so every failure is a
        nonpositive pivot."""
        nest, p = self.nest, self.size
        nest.grow_to(q)
        band = nest.band  # read once: another operator's factor may grow the nest
        kd = band.shape[0]
        tri = min(nest.tridiagonal, q)  # final below q once the nest holds q columns
        if p < tri:
            self._extend_tridiagonal(band, p, tri)
            p = self.size
            if self.failed or p == q:
                return
        if not self.ab.shape[1]:  # the first banded column: U of the prefix from (d, l)
            root = np.sqrt(self._d)
            self.ab = np.array([np.r_[0.0, self._l * root[:-1]], root], order="F")
        if self.ab.shape[0] <= kd:  # the band widened: pad with zero rows on top
            self.ab = _fortran_concatenate((np.zeros((kd + 1 - self.ab.shape[0], p)), self.ab),
                                           axis=0)
        s = max(p - kd, 0)
        m = p - s
        window = np.vstack((band[:, s:q], self._diagonal(s, q)))
        if m:
            t = sum(np.diag(self.ab[kd - d, s + d:p], d) for d in range(m))
            tt = t.T @ t
            for d in range(m):
                window[kd - d, d:m] = np.diagonal(tt, d)
        chol, info = dpbtrf(window)
        # info is the first leading minor of the window that is not positive definite
        done = window.shape[1] if info == 0 else max(info - 1, m)
        self.ab = _fortran_concatenate((self.ab, chol[:, m:done]), axis=1)
        self.failed = done < window.shape[1]

    def _diagonal(self, s, q):
        """The diagonal out_weight + (D - sigma) mu of A over the columns [s, q)."""
        pos = self.nest.positions[s:q]
        d = self.op.potential[pos] - self.sigma if self.sigma else self.op.potential[pos]
        return self.op.domain.out_weights()[pos] + d * self.op.mu[pos]

    def _extend_tridiagonal(self, band, p, tri):
        """Factor the tridiagonal columns [p, tri) by ``dpttrf`` on the window
        [p - 1, tri) led by the stored pivot d_(p-1) (on [0, tri) when p = 0)."""
        seeded = int(p > 0)
        d = np.concatenate((self._d[-1:], self._diagonal(p, tri)))  # _d[-1:] is d_(p-1) or empty
        if d.size == 1:  # dpttrf's wrapper rejects an empty off-diagonal
            l, info = np.zeros(0), int(not d[0] > 0.0)
        else:
            d, l, info = dpttrf(d, band[-1, p + 1 - seeded:tri])
        # info is the first nonpositive pivot of the window
        done = d.size if info == 0 else info - 1
        if done > seeded:
            self._l = np.concatenate((self._l, l[:done - 1]))
            self._d = np.concatenate((self._d, d[seeded:done]))
        self.failed = done < d.size

    def solve(self, n, rhs):
        """A_n^-1 rhs on a certified prefix n, in the nest's order, in place when
        ``rhs`` is a Fortran-ordered float array: by ``dpttrs`` on the stored
        LDL^T factor inside the tridiagonal prefix, else by ``dpbtrs`` on U."""
        if n > self._d.size:
            return dpbtrs(self.ab[:, :n], rhs, overwrite_b=1)[0]
        # dpttrs's wrapper wants one off-diagonal entry even when n = 1
        return dpttrs(self._d[:n], self._l[:n - 1] if n > 1 else np.zeros(1), rhs, overwrite_b=1)[0]

    def green(self, n, px, py):
        """G(x, y) = [A_n^-1](x, y) on the level that is the prefix n, for the
        vertices at domain positions px, py (in that level): entry k of the
        column A_n^-1 e_m, k and m their indices in the order."""
        if not self.definite(n):
            raise NumericalError(
                "restricted principal eigenvalue is not positive; no finite Green function")
        k, m = self.nest.index_of(px), self.nest.index_of(py)
        if not (0 <= k < n and 0 <= m < n):
            raise ValidationError("Green query outside the level")
        with self._lock:
            column = self._columns.get((n, m))
            if column is None:
                column = np.zeros(n)
                column[m] = 1.0
                column = self._columns[n, m] = self.solve(n, column)
        return float(column[k])


class _FactorBase:
    """Per-level state shared by the symmetric and nonsymmetric factors.

    A factor holds the operator and its level; everything else is built on
    first use: the sparse A_S (``a_s``: the direct spectral and
    nonsymmetric routes) and the sparse LU (nonsymmetric certificates, Green
    solves and principal pairs).  A symmetric factor certifies, solves and iterates by
    the leading block of a ``_NestedCholesky``: its evaluator's, grown over
    the exhaustion, or a standalone one-level nest.  Its kernels factor
    A_S - sigma D_mu instead (see ``SymmetricFactor``).  The symmetric
    routes other than the direct spectral one never assemble A_S.
    """

    def __init__(self, op: EllipticOperator, sub: IndexedSubdomain, nested=None):
        self.op = op
        self.sub = sub
        self._a_s = None
        self._principal = None
        self._green_cols = {}
        self._nested = nested
        self._nest_local = None  # local index of each vertex of the nest's prefix

    _symmetric = False  # A_S symmetric: Cholesky certificate and Green solves

    def _cholesky(self):
        """The nested Cholesky factor whose leading block is this level's (symmetric
        factors only); a standalone factor builds its one-level nest on first use."""
        if self._nested is None:
            self._nested = _NestedCholesky(self.op, self.sub.order)
        return self._nested

    def _locals(self, nest):
        """The local index of each vertex of this level's prefix of ``nest``."""
        return self.sub.local_indices(nest.positions[:self.sub.size])

    @property
    def a_s(self):
        """Sparse measure form A_S = diag(mu) K_S."""
        if self._a_s is None:
            self._a_s = self.op.measure_form(self.sub)
        return self._a_s

    def is_positive_definite(self):
        """lambda0(S) > 0, certified by the factor that solves (``_m_matrix`` if nonsymmetric)."""
        if self._symmetric:
            return self._cholesky().definite(self.sub.size)
        return self._m_matrix

    def principal_pair(self):
        """(lambda0(S), phi, positive): ``_pair``, with phi made positive where
        it is one-signed; shifted below lambda0(S), A_S - sigma D_mu is an
        M-matrix, so the iteration targets the principal (Perron) mode."""
        if self._principal is None:
            theta, v = self._pair()
            if v.sum() < 0.0:
                v = -v
            positive = bool(v.min() >= -1e-10 * max(v.max(), 1e-300))
            self._principal = (theta, v, positive)
        return self._principal

    def green(self, ix, iy):
        return float(self.green_column(iy)[ix])

    def green_solve(self, rhs, trans):
        """A_S^-1 rhs (``trans`` "N") or A_S^-T rhs ("T").

        Symmetric restrictions solve with the leading block of their nested
        banded Cholesky factor, nonsymmetric ones with a sparse LU.
        """
        if not self.is_positive_definite():
            raise NumericalError(
                "restricted principal eigenvalue is not positive; no finite Green function"
            )
        if self._symmetric:
            n = self.sub.size
            if self._nest_local is None:
                self._nest_local = self._locals(self._cholesky().nest)
            out = np.empty(n)
            out[self._nest_local] = self._cholesky().solve(n, rhs[self._nest_local])
            return out
        return self._shifted_lu(0.0).solve(rhs, trans=trans)

    def green_column(self, iy):
        """Column y of [K_S^-1]/mu(y), i.e. G(. , y) = A_S^-1 e_y."""
        col = self._green_cols.get(iy)
        if col is None:
            e = np.zeros(self.sub.size)
            e[iy] = 1.0
            col = self._green_cols[iy] = self.green_solve(e, "N")
        return col

    def green_row(self, ix):
        """Row x of the Green matrix: solves with the transposed measure form."""
        e = np.zeros(self.sub.size)
        e[ix] = 1.0
        return self.green_solve(e, "T")


def _decay(lam, t):
    """exp(-lam t), with overflow and lam = inf read as 0."""
    with np.errstate(over="ignore"):
        d = np.exp(-lam * t)
    return np.where(np.isfinite(d), d, 0.0)


def _row_norms(a):
    """The 2-norm of each row of ``a``: one dot product per row, as
    ``np.linalg.norm`` of that row alone."""
    return np.sqrt(np.matmul(a[:, None, :], a[:, :, None])[:, 0, 0])


class _ShiftInvertLanczos:
    """Lanczos process for B = (H - sigma)^(-1) started from e_y, in the
    coordinates of the level's own order, that of its shifted factor; it
    serves one point query (x, y) and lives only as long as that query.

    B = R (A_S - sigma D_mu)^(-1) R with R = D_mu^(1/2).  The permutation to
    the shifted factor's order is orthogonal, so the process runs there: a
    step is one ``_NestedCholesky.solve`` (``dpttrs`` on every path level)
    between two scalings by R in that order (``SymmetricFactor._krylov``),
    where x and y are found by one comparison pass each.
    The three-term recurrence keeps v_(j-1), v_j and, of V, the entries
    ``row`` at the row x it serves: lost orthogonality only delays the
    convergence of f(T_m) e_1 (Druskin, Greenbaum & Knizhnerman 1998).
    exp(-tH) e_y is approximated by V_m c_m(t), c_m(t) = f(T_m) e_1 =
    Q diag(exp(-t lam)) Q^T e_1 with the Ritz pairs (theta, Q) of T_m and
    lam = 1/theta + sigma.

    ``coefficients(ts)`` serves a whole time grid: one Ritz decomposition of
    T_m serves every t, and c_m(t) is one matrix-vector product per t.  The
    stopping rule is applied per t at the checks m = 5, 10, ..., 30, then
    every 10 steps: short runs are confirmed over 5 steps, while past 30 a
    check's tridiagonal eigensolve costs more than 10 steps save.  A t settles
    at once at c = 0 if exp(-t min D)/mu(y) underflows to 0 (K_S has
    off-diagonal entries <= 0 and row sums >= min D, so k(x, y, t) mu(y) =
    [exp(-tK_S)](x, y) <= exp(-t min D) for every x), else at the
    first check m at which c_m(t) is nonzero (an underflowed 0 is no
    evidence) and differs from the previous check's c by at most
    max(1e-13, 8 eps t (lambda_0 - sigma)) of its norm (below 1e-138 both
    rows scaled by one power of 2, lest squares underflow), or once beta
    collapses (the Krylov space is invariant and c is exact).  The second
    term is the round-off floor of c(t): an error eps/theta in the lowest
    Ritz value lambda_0 = 1/theta + sigma moves exp(-t lambda_0) by
    t eps/theta.  Values depend only on t and the first m Lanczos steps, not on
    the grid or query order.  A t unsettled in ``LANCZOS_CAP`` steps gets an
    InconclusiveError in place of its c, one unsettled at the dimension n gets
    None: without reorthogonalization T_n need not have the spectrum of B.
    """

    def __init__(self, factor, ix, iy):
        self.shifted, self.sigma, self.root = factor._krylov()
        n = self.root.size
        self.cap = min(n, LANCZOS_CAP)  # steps the recurrence may run to
        order, (px, py) = self.shifted.nest.positions, factor.sub.positions[[ix, iy]]
        self.log_mu = math.log(factor.op.mu[py])
        self.at = int(np.argmax(order == px))
        self.previous, self.current = np.zeros(n), np.zeros(n)  # v_(j-1), v_j
        self.current[np.argmax(order == py)] = 1.0
        self.row = np.empty(self.cap)  # v_j[x] of the steps so far
        self.row[0] = self.current[self.at]
        self.alpha, self.beta = [], []
        self.invariant = False  # beta collapsed: the Krylov space is invariant

    def _extend(self, m):
        """Run Lanczos to m steps, or until beta collapses; the steps available."""
        alpha, beta, root = self.alpha, self.beta, self.root
        n = root.size
        m = min(m, self.cap)
        while len(alpha) < m and not self.invariant:
            j = len(alpha)
            w = self.shifted.solve(n, root * self.current)
            w *= root
            norm_w = math.sqrt(w @ w)
            if j:
                w -= beta[j - 1] * self.previous
            alpha.append(float(w @ self.current))
            w -= alpha[j] * self.current
            b = math.sqrt(w @ w)
            if b <= 1e-14 * norm_w:
                self.invariant = True
            elif j + 1 < self.cap:
                beta.append(b)
                w /= b
                self.previous, self.current = self.current, w
                self.row[j + 1] = w[self.at]
        return min(m, len(alpha))

    def _f_of_t(self, m, ts):
        """The Ritz values lam of T_m and c_m(t) for each t of the array ``ts``, a row each."""
        # LAPACK's dstevd directly; its wrapper wants one off-diagonal entry when m = 1
        theta, q, info = dstevd(np.array(self.alpha[:m]), np.array(self.beta[:m - 1] or [0.0]))
        if info:
            raise NumericalError(f"tridiagonal eigensolver failed (info {info})")
        # theta > 0 in exact arithmetic; round-off at or below 0 marks lambda = inf
        with np.errstate(divide="ignore"):
            lam = np.where(theta > 0.0, 1.0 / np.maximum(theta, 1e-300), np.inf) + self.sigma
        # a stack of matrix-vector products: each row is q @ w_t, whatever the grid
        return lam, np.matmul(q, (_decay(lam, ts[:, None]) * q[0])[:, :, None])[:, :, 0]

    def coefficients(self, ts):
        """c(t) for each t > 0 of ``ts``, with [exp(-tH) e_y][x] = row[:len(c)] @ c,
        or the InconclusiveError (or None) of a t whose recurrence has not settled."""
        out = {}  # t -> c(t), or the marker of an unsettled t
        todo = np.array(ts, dtype=float)
        with np.errstate(over="ignore"):  # sigma + 1 = min D
            underflowed = np.exp(-(self.sigma + 1.0) * todo - self.log_mu) == 0.0
        out.update(dict.fromkeys(todo[underflowed].tolist(), np.zeros(1)))
        todo = todo[~underflowed]
        previous = np.zeros((todo.size, 0))
        m = 0
        while todo.size:
            m = self._extend(m + (5 if m < 30 else 10))
            lam, c = self._f_of_t(m, todo)
            if self.invariant and m == len(self.alpha):
                settled = np.ones(todo.size, dtype=bool)
            else:
                change = c.copy()
                change[:, :previous.shape[1]] -= previous
                gap = float(lam.min()) - self.sigma  # lambda_0 - sigma
                floor = np.maximum(1e-13, 8.0 * np.finfo(float).eps * gap * todo)
                norm, moved = _row_norms(c), _row_norms(change)
                if norm.min() < 1e-138:  # squares may have underflowed: rescale every row exactly
                    e = np.frexp(np.maximum(np.abs(c).max(1), np.abs(change).max(1)))[1][:, None]
                    norm, moved = _row_norms(np.ldexp(c, -e)), _row_norms(np.ldexp(change, -e))
                settled = (previous.shape[1] > 0) & (norm > 0) & (moved <= floor * norm)
            out.update(zip(todo[settled].tolist(), c[settled]))
            todo, previous = todo[~settled], c[~settled]
            if todo.size and m == self.cap:
                stop = None if m == self.current.size else InconclusiveError(
                    f"Lanczos did not converge in {m} steps")
                out.update(dict.fromkeys(todo.tolist(), stop))
                break
        return [out[t] for t in ts]


class SymmetricFactor(_FactorBase):
    """Heat kernels of a symmetric restriction, by its shifted inverse B.

    A point query ``kernels(ix, iy, ts)`` reads entry (x, y) of exp(-tH) at
    every t of a grid from its own shift-and-invert Lanczos recurrence, or
    at the level's dimension from ``_inverse_pairs()`` if unsettled there;
    ``kernel`` is the one-t call.  The recurrence is dropped with the query.
    Per column y the factor keeps only the settled c(t): a later query on
    the column runs the recurrence as far as its new times need, and for
    the times it already holds only to their length, with no Ritz
    decomposition; the steps repeat bit for bit.  All-pairs queries
    (``kernel_matrix``, ``semigroup_matrix``, ``apply_semigroup``) use the
    dense eigendecomposition of the level, ``spectral()``.
    """

    _symmetric = True

    def __init__(self, op, sub, nested=None):
        super().__init__(op, sub, nested)
        self._spectral = None
        self._inverse = None
        self._shifted = None
        self._coefficients = {}  # local iy -> {t: c(t), or the marker of an unsettled t}
        self._lock = threading.Lock()

    def _krylov(self):
        """(the one-level nest of A_S - sigma D_mu in the level's own order,
        sigma = min D - 1; sqrt(mu) in that order): what a Lanczos step and
        the inverse route need.  No map between the order and local indices
        is kept: a point query finds x and y in ``nest.positions``."""
        if self._shifted is None:
            sigma = float(np.min(self.op.potential[self.sub.positions])) - 1.0
            shifted = _NestedCholesky(self.op, self.sub.order, sigma)
            with np.errstate(over="ignore", invalid="ignore"):  # D - sigma may overflow
                finite = shifted.definite(self.sub.size) and all(
                    np.all(np.isfinite(a)) for a in (shifted._d, shifted._l, shifted.ab))
            if not finite:
                raise NumericalError("shifted restriction overflows or is not positive definite")
            self._shifted = (shifted, sigma, np.sqrt(self.op.mu[shifted.nest.positions]))
        return self._shifted

    def _pair(self):
        """``_inverse_iteration`` on the leading block of a nest of A - sigma D_mu,
        sigma = min_S D (at 0 the Green nest, else a one-level nest), and
        sigma plus the Rayleigh quotient, A v summed by rows from the nest's
        band; the closed level with D = sigma has the pair (sigma, constant)."""
        n = self.sub.size
        sigma = float(np.min(self.op.potential[self.sub.positions]))
        nest = self._cholesky() if sigma == 0.0 else _NestedCholesky(self.op, self.sub.order, sigma)
        if not nest.definite(n):
            if n == self.op.domain.n_vertices and not np.any(self.op.potential != sigma):
                return sigma, np.full(n, 1.0 / math.sqrt(n))
            raise NumericalError("shifted restriction is not positive definite")
        local = self._locals(nest.nest)
        mu = self.sub.mu[local]
        v = _inverse_iteration(functools.partial(nest.solve, n), mu)
        band = nest.nest.band
        av = nest._diagonal(0, n) * v
        for d in range(1, min(band.shape[0], n - 1) + 1):  # A[i, i + d] = band[kd - d, i + d]
            upper = band[-d, d:n]
            av[:n - d] += upper * v[d:]
            av[d:] += upper * v[:n - d]
        out = np.empty(n)
        out[local] = v
        return sigma + float(v @ av) / float(v @ (mu * v)), out

    def _inverse_pairs(self):
        """(lam, vecs) of H, in local order, from the dense eigendecomposition of B."""
        if self._inverse is None:
            shifted, sigma, root = self._krylov()
            # 2B in the level's order, built in place in one Fortran-ordered array
            b = shifted.solve(root.size, np.diag(root).T)
            b *= root[:, None]
            b += b.T
            nu2, vecs = sla.eigh(b, overwrite_a=True)
            del b  # one n x n array fewer during the reordering copy below
            # 2 nu > 0 in exact arithmetic; round-off below 0 marks lambda = inf
            with np.errstate(divide="ignore"):
                lam = np.where(nu2 > 0.0, 2.0 / np.maximum(nu2, 1e-300), np.inf) + sigma
            order = np.argsort(lam)
            where = np.argsort(self._locals(shifted.nest))  # the row of each local index
            self._inverse = (lam[order], vecs[np.ix_(where, order)])
        return self._inverse

    def _build_spectral(self):
        mu = self.sub.mu
        with np.errstate(over="ignore", invalid="ignore"):
            rates = np.abs(self.a_s.diagonal()) / mu
        max_rate = float(np.max(rates)) if rates.size else 0.0
        if np.isfinite(max_rate) and max_rate <= WELL_SCALED_RATE:
            root = np.sqrt(mu)
            h = (self.a_s.toarray() / root[:, None]) / root[None, :]
            lam, vecs = sla.eigh(h)
            return lam, vecs, "direct"
        return (*self._inverse_pairs(), "inverse")

    def spectral(self):
        """The dense eigendecomposition (lam, vecs, route) of H, for all-pairs
        queries."""
        if self._spectral is None:
            self._spectral = self._build_spectral()
        return self._spectral

    def kernels(self, ix, iy, ts):
        """k(x, y, t) = [exp(-tH)](x, y)/sqrt(mu(x) mu(y)) for each t of ``ts``,
        from the coefficients of column y; a t whose recurrence has not settled
        has its InconclusiveError in place of a value.

        Negative values within 1e-13 of the column's norm are round-off and
        read as 0.
        """
        positive = [t for t in ts if t != 0.0]
        values = {}  # t -> value, or its InconclusiveError
        if positive:
            with self._lock:
                known = self._coefficients.setdefault(iy, {})
                lanczos = _ShiftInvertLanczos(self, ix, iy)
                todo = [t for t in dict.fromkeys(positive) if t not in known]
                known.update(zip(todo, lanczos.coefficients(todo)))
                values.update((t, known[t]) for t in positive)
                settled = {t: c for t, c in values.items() if isinstance(c, np.ndarray)}
                lanczos._extend(max((c.size for c in settled.values()), default=0))  # their rows
            scale = np.prod(np.sqrt(self.op.mu[self.sub.positions[[ix, iy]]]))
            raw = np.array([lanczos.row[:c.size] @ c for c in settled.values()]) / scale
            floor = np.array([math.sqrt(c @ c) for c in settled.values()]) / scale + 1e-300
            values.update(zip(settled, _clamped(raw, floor).tolist()))
            dense = [t for t, c in values.items() if c is None]  # unsettled at dimension n
            if dense:
                lam, vecs = self._inverse_pairs()
                d = _decay(lam, np.array(dense)[:, None])[:, None, :]  # a stack: one product per t
                xy, xx, yy = (np.matmul(d, v[:, None])[:, 0, 0]
                              for v in (vecs[ix] * vecs[iy], vecs[ix] ** 2, vecs[iy] ** 2))
                floor = np.sqrt(xx * yy) / scale + 1e-300  # kernel_matrix's
                values.update(zip(dense, _clamped(xy / scale, floor).tolist()))
        delta = (1.0 / self.op.mu[self.sub.positions[iy]]) if ix == iy else 0.0
        return [delta if t == 0.0 else values[t] for t in ts]

    def kernel(self, ix, iy, t):
        """``kernels`` at the one time t; an unsettled recurrence raises."""
        value = self.kernels(ix, iy, [t])[0]
        if isinstance(value, InconclusiveError):
            raise value
        return value

    def kernel_matrix(self, t):
        if t == 0.0:
            return np.diag(1.0 / self.sub.mu)
        lam, vecs, _ = self.spectral()
        root = np.sqrt(self.sub.mu)
        m = (vecs * _decay(lam, t)) @ vecs.T / root[:, None] / root[None, :]
        diag = np.maximum(np.diag(m), 0.0)
        scale = np.sqrt(np.outer(diag, diag)) + 1e-300
        return _clamped(m, scale)

    def apply_semigroup(self, t, vec):
        """exp(-t K_S) @ vec via the dense spectral factorization."""
        lam, vecs, _ = self.spectral()
        root = np.sqrt(self.sub.mu)
        w = vecs.T @ (vec * root)
        return (vecs @ (_decay(lam, t) * w)) / root

    def semigroup_matrix(self, t):
        """Dense exp(-t K_S): the symmetrized spectral form scaled back to K_S."""
        lam, vecs, _ = self.spectral()
        root = np.sqrt(self.sub.mu)
        return (vecs * _decay(lam, t)) @ vecs.T / root[:, None] * root[None, :]


class NonsymmetricFactor(_FactorBase):
    """Dense matrix-exponential evaluations for a nonsymmetric restriction."""

    def __init__(self, op, sub):
        super().__init__(op, sub)
        self._lu = None  # the sparse LU of A_S: certificate, Green solves, principal pair
        self._expm_cache = {}

    def _shifted_lu(self, sigma):
        """The sparse LU of A_S - sigma D_mu; at sigma = 0 the one cached LU of A_S."""
        if sigma != 0.0:
            return _sparse_lu((self.a_s - sigma * sp.diags(self.sub.mu)).tocsc())
        if self._lu is None:
            self._lu = _sparse_lu(self.a_s)
        return self._lu

    @functools.cached_property
    def _m_matrix(self):
        """Whether u = A_S^-1 1 > 0 and A_S u > 2 k eps |A_S| u, its round-off bound, in every
        row (k: the most entries in a row): then the Z-matrix A_S is a nonsingular M-matrix, so
        lambda0(S) > 0 (Berman & Plemmons 1994, ch. 6; Higham 2002, §3.5); no singular level is."""
        try:
            u = self._shifted_lu(0.0).solve(np.ones(self.sub.size))
        except NumericalError:  # SuperLU found A_S exactly singular
            return False
        a = self.a_s
        k = np.bincount(a.indices, minlength=a.shape[0]).max()  # CSC: indices are rows
        return bool(u.min() > 0.0 and np.all(a @ u > 2.0 * k * np.finfo(float).eps * (abs(a) @ u)))

    def _rayleigh(self, v):
        return float(v @ (self.a_s @ v)) / float(v @ (self.sub.mu * v))

    def _pair(self):
        """``_inverse_iteration`` by a sparse LU of A_S - sigma D_mu, sigma = min_S D
        (less 1 where that is singular), polished by Rayleigh-shift steps."""
        sigma = float(np.min(self.op.potential[self.sub.positions]))
        try:
            lu = self._shifted_lu(sigma)
        except NumericalError:
            lu = self._shifted_lu(sigma - 1.0)
        mu = self.sub.mu
        v = _inverse_iteration(lu.solve, mu)
        theta = self._rayleigh(v)
        for _ in range(4):  # Rayleigh-shift refinement, cubic near the fixed point
            try:
                lu_r = self._shifted_lu(theta)
            except NumericalError:
                break  # theta hit the eigenvalue exactly
            w = lu_r.solve(mu * v)
            nrm = float(np.linalg.norm(w))
            if nrm == 0.0 or not np.isfinite(nrm):
                break
            v = w / nrm
            theta_new = self._rayleigh(v)
            done = abs(theta_new - theta) <= 1e-15 * max(1.0, abs(theta_new))
            theta = theta_new
            if done:
                break
        return theta, v

    @functools.cached_property
    def k_dense(self):
        """Dense K_S, built on first use: only kernels and semigroups read it."""
        return self.op.action_matrix_dense(self.sub)

    def semigroup_matrix(self, t):
        """Dense exp(-t K_S) by scaling and squaring, cached per t."""
        m = self._expm_cache.get(t)
        if m is None:
            m = self._expm_cache[t] = sla.expm(-t * self.k_dense)
        return m

    def kernels(self, ix, iy, ts):
        """k(x, y, t) for each t of ``ts``, from the exponentials cached per t."""
        mu_y = self.op.mu[self.sub.positions[iy]]
        delta = (1.0 / mu_y) if ix == iy else 0.0
        return [delta if t == 0.0 else float(self.semigroup_matrix(t)[ix, iy] / mu_y)
                for t in ts]

    def kernel(self, ix, iy, t):
        return self.kernels(ix, iy, [t])[0]

    def kernel_matrix(self, t):
        if t == 0.0:
            return np.diag(1.0 / self.sub.mu)
        return self.semigroup_matrix(t) / self.sub.mu[None, :]

    def apply_semigroup(self, t, vec):
        return self.semigroup_matrix(t) @ vec


def factorize(op: EllipticOperator, sub: IndexedSubdomain, nested=None):
    """The factor of ``op`` on ``sub``.  A symmetric one certifies and solves by
    the leading block of ``nested`` (a ``_NestedCholesky`` whose order has
    ``sub`` as a prefix), or, without it, of a one-level nest of its own."""
    if op.symmetric:
        return SymmetricFactor(op, sub, nested)
    return NonsymmetricFactor(op, sub)


def _check_time(t) -> float:
    """A kernel time as a float; it must be finite and nonnegative."""
    t = float(t)
    if not (math.isfinite(t) and t >= 0.0):
        raise ValidationError(f"time must be finite and nonnegative, got {t!r}")
    return t


def heat_kernel_finite(op: EllipticOperator, sub: IndexedSubdomain, x, y, t) -> float:
    """Dirichlet heat kernel k(x, y, t) on a fixed subdomain."""
    return factorize(op, sub).kernel(sub.local_of(x), sub.local_of(y), _check_time(t))


def heat_matrix_finite(op: EllipticOperator, sub: IndexedSubdomain, t):
    """All-pairs kernel matrix on the subdomain, in its local indexing."""
    return factorize(op, sub).kernel_matrix(_check_time(t))


def green_finite(op: EllipticOperator, sub: IndexedSubdomain, x, y, factor=None) -> float:
    """Dirichlet Green value G(x, y) = [K_S^-1](x, y)/mu(y) on a fixed subdomain."""
    fac = factor if factor is not None else factorize(op, sub)
    return fac.green(sub.local_of(x), sub.local_of(y))


def check_tolerance(tol) -> float:
    """A limit tolerance as a float; it must be finite and positive."""
    tol = float(tol)
    if not (np.isfinite(tol) and tol > 0.0):
        raise ValidationError(f"tolerance must be finite and positive, got {tol!r}")
    return tol


def exhaustion_limit(value_at, levels, sizes, tol, *, trend_divergence,
                     exact_final) -> LimitResult:
    """Drive per-level values to a LimitResult (converged/diverging/inconclusive).

    ``value_at(j)`` is evaluated lazily, level by level, over ``levels`` (with
    level sizes ``sizes``) until a rule decides:

    * a NumericalError at level j (a nonpositive restriction inside the
      exhaustion): diverging, value inf, at that level;
    * an InconclusiveError at level j (a Lanczos recurrence at its step cap):
      inconclusive there;
    * an infinite value (overflow): diverging;
    * two consecutive relative increments below ``tol``: converged.  Zeros
      before the first nonzero value (underflow) count in no rule; if every
      level is 0, the limit is 0.

    When the levels run out, the tail decides, in this order:

    * ``trend_divergence`` and increments, each divided by the log of its
      level-size growth, nondecreasing over 3 consecutive levels: diverging.
      This suits limits whose dichotomy is finite-vs-infinite (Green values,
      mass series), not heat values at fixed t, which are bounded;
    * ``exact_final``, the last level exhausting a genuinely finite domain:
      converged, exact;
    * cleanly decaying increments: Neville extrapolation in 1/(level size),
      converged when its error estimate meets ``tol``;
    * otherwise inconclusive.
    """
    tol = check_tolerance(tol)
    history = []
    values = []
    for j in levels:
        try:
            v = float(value_at(j))
        except NumericalError as exc:
            return LimitResult(
                float("inf"), LimitStatus.DIVERGING, j, history,
                evidence=f"restriction failure at level {j}: {exc}",
            )
        except InconclusiveError as exc:
            return LimitResult(float("nan"), LimitStatus.INCONCLUSIVE, j, history,
                               evidence=f"at level {j}: {exc}")
        history.append((j, v))
        if v == 0.0 and not values:
            continue
        values.append(v)
        if math.isinf(v):
            return LimitResult(v, LimitStatus.DIVERGING, j, history,
                               evidence=f"value overflowed at level {j}")
        if len(values) >= 3:
            scale = max(abs(v), 1e-300)
            i1 = abs(values[-1] - values[-2]) / scale
            i2 = abs(values[-2] - values[-3]) / scale
            if i1 < tol and i2 < tol:
                return LimitResult(v, LimitStatus.CONVERGED, j, history,
                                   error_estimate=abs(values[-1] - values[-2]))
    last = history[-1][0] if history else None
    if not values and len(history) >= 3:  # every level is 0
        return LimitResult(0.0, LimitStatus.CONVERGED, last, history, error_estimate=0.0)
    values = values or [v for _, v in history]
    v = values[-1] if values else float("nan")
    if trend_divergence and _trend_diverging(values, sizes, tol):
        return LimitResult(v, LimitStatus.DIVERGING, last, history,
                           evidence="increments nondecreasing over 3 consecutive levels")
    if exact_final and values:
        return LimitResult(v, LimitStatus.CONVERGED, last, history,
                           model="exact", error_estimate=0.0)
    if len(values) >= 4 and increments_decreasing(values[-6:]):
        m = min(6, len(values))
        value, err = neville_in_size(sizes, values, m)
        if err <= tol * max(abs(value), 1e-300):
            return LimitResult(value, LimitStatus.CONVERGED, last, history,
                               model=f"neville({m})", error_estimate=err)
        return LimitResult(value, LimitStatus.INCONCLUSIVE, last, history,
                           model=f"neville({m})", error_estimate=err,
                           evidence="ambient truncation exhausted before convergence")
    return LimitResult(v, LimitStatus.INCONCLUSIVE, last, history,
                       evidence="ambient truncation exhausted before convergence")


class HeatKernelEvaluator:
    """Exhaustion-driven kernel and Green evaluations with a per-level factor cache.

    For a symmetric operator one ``_NestedCholesky`` over the exhaustion's
    ``nested_order`` gives every level's Green values and positive-definiteness
    certificate, and the level factors read its leading blocks.
    """

    def __init__(self, op: EllipticOperator, exhaustion: Exhaustion):
        if exhaustion.domain is not op.domain:
            raise ValidationError("exhaustion and operator refer to different domains")
        self.op = op
        self.exhaustion = exhaustion
        self._factors = {}
        # a symmetric operator's levels share one Cholesky factor, grown with them
        self._nested = _NestedCholesky(op, exhaustion.nested_order()) if op.symmetric else None
        self._usable = self._usable_levels()
        # a genuinely finite domain is exhausted exactly by its last usable level
        self.exhausts_domain = (not op.domain.truncated) and (
            exhaustion[self._usable[-1]].size == op.domain.n_vertices
        )

    def _usable_levels(self):
        levels = list(range(len(self.exhaustion)))
        if self.op.domain.truncated:
            # a level that holds every vertex of an ambient truncation is closed
            # (no edge leaves it): a reflecting box, not a Dirichlet approximant
            levels = [j for j in levels if self.exhaustion[j].size < self.op.domain.n_vertices]
        if not levels:
            raise ValidationError("exhaustion has no usable Dirichlet levels")
        return levels

    def factor(self, j):
        fac = self._factors.get(j)
        if fac is None:
            fac = self._factors[j] = factorize(self.op, self.exhaustion[j], self._nested)
        return fac

    def usable_levels(self):
        return list(self._usable)

    def heat_finite(self, j, x, y, t):
        sub = self.exhaustion[j]
        return self.factor(j).kernel(sub.local_of(x), sub.local_of(y), _check_time(t))

    def _green_at(self, x, y):
        """G_j(x, y) as a function of the level j, which must hold x and y; the
        nest reads them by domain position, resolved here once."""
        if self._nested is None:
            return lambda j: green_finite(self.op, self.exhaustion[j], x, y, self.factor(j))
        px, py = self.op.domain._positions([int(x), int(y)], "Green query")
        return lambda j: self._nested.green(self.exhaustion[j].size, px, py)

    def green_finite_level(self, j, x, y):
        return self._green_at(x, y)(j)

    def principal_eigenvalue(self, j):
        return self.factor(j).principal_pair()[0]

    def _levels_from(self, start):
        """Usable levels from ``start`` on, with their sizes."""
        levels = [j for j in self._usable if j >= start]
        return levels, [self.exhaustion[j].size for j in levels]

    def heat_kernels(self, x, y, ts, tol=None) -> list:
        """Exhaustion limits of the Dirichlet heat kernels at (x, y), one
        LimitResult per t of ``ts``.

        The first request for a level computes its values on the whole grid
        (one Lanczos recurrence per level serves every t); each t's limit
        then reads them unchanged, so it sees exactly the values, levels and
        verdict it would see alone.  A t whose recurrence does not settle has
        an InconclusiveError at that level, which makes only its own limit
        inconclusive there.
        """
        ts = [_check_time(t) for t in ts]
        if not ts:
            return []
        start = self.exhaustion.first_level_containing(x, y)
        levels, sizes = self._levels_from(start)
        tol = HEAT_TOL if tol is None else tol
        grid = list(dict.fromkeys(t for t in ts if t > 0.0))
        values = {}  # level -> {t: kernel value or InconclusiveError} over ``grid``

        def value_at(j, t):
            row = values.get(j)
            if row is None:
                sub = self.exhaustion[j]
                row = values[j] = dict(zip(grid, self.factor(j).kernels(
                    sub.local_of(x), sub.local_of(y), grid)))
            if isinstance(row[t], InconclusiveError):
                raise row[t]
            return row[t]

        delta = (1.0 / self.op.domain.measure_of(y)) if int(x) == int(y) else 0.0
        return [LimitResult(delta, LimitStatus.CONVERGED, start, [(start, delta)], model="delta")
                if t == 0.0 else
                exhaustion_limit(functools.partial(value_at, t=t), levels, sizes, tol,
                                 trend_divergence=False, exact_final=self.exhausts_domain)
                for t in ts]

    def heat_kernel(self, x, y, t, tol=None) -> LimitResult:
        """Exhaustion limit of the Dirichlet heat kernels at (x, y, t)."""
        return self.heat_kernels(x, y, [t], tol)[0]

    def green(self, x, y, tol=None) -> LimitResult:
        """Exhaustion limit of the Dirichlet Green values at (x, y).

        Convergence of this limit is subcriticality; divergence is criticality.
        """
        start = self.exhaustion.first_level_containing(x, y)
        tol = GREEN_TOL if tol is None else tol
        return exhaustion_limit(self._green_at(x, y), *self._levels_from(start), tol,
                                trend_divergence=True, exact_final=self.exhausts_domain)
