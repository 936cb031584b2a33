"""Iterated kernels, the 3-k inequality, Neumann resummation and Duhamel checks.

The iterated kernels obey

    k^(0) = k,    k^(j)(x,y,t) = int_0^t sum_z k^(j-1)(x,z,t-s) V(z) k(z,y,s) mu(z) ds,

and for couplings inside the series radius the perturbed kernel is the
alternating resummation k_{P+eps V} = sum_j (-eps)^j k^(j).  Layers live on
a uniform time grid (step t/1024 by default, validated by step halving).
Every time convolution, the layers and the Duhamel right-hand side alike, is
composite Simpson marched with semigroup steps: since S(t_i - s) =
S(2h) S(t_{i-2} - s), each even grid value is the one two steps back
propagated by S(2h) plus one Simpson block, and each odd one follows from
the value three steps back by S(3h) and a 3/8 block.  The even chain and
the marched layer k^(0) are linear recurrences with a constant matrix, run
as a blocked prefix scan: a layer is still O(N) products of n x n work with
the dense S(h), S(2h), S(3h) of either factor type, but in O(sqrt N)
batched matrix-matrix steps.  The j = 1 convolution also has exact forms,
spectral (symmetric) and block-exponential (any operator).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .domains import IndexedSubdomain
from .errors import (
    NegativeLambda0Error,
    NumericalError,
    QuadratureError,
    ValidationError,
)
from .kernels import SymmetricFactor, factorize
from .operators import EllipticOperator, Potential, add_potential
from .series import fit_loglog_slope, geometric_grid

DEFAULT_STEPS = 1024
MAX_SERIES_TERMS = 64


def _check_integer(value, minimum, message):
    """``value`` as an int: a numbers.Integral, not a bool, of at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ValidationError(f"{message}, got {value!r}")
    return int(value)


def _check_times(times):
    """A nonempty time grid as a float array; every time finite and positive."""
    times = np.asarray(list(times), dtype=float)
    if times.size == 0 or not np.all(np.isfinite(times) & (times > 0.0)):
        raise ValidationError("times must be finite and positive, and the grid nonempty")
    return times


def _scan(a, x0, g):
    """Rows x_0 = x0, x_k = a x_{k-1} + g_k for k = 1..K, ``g`` holding g_1..g_K.

    A blocked prefix scan (Blelloch, CMU-CS-90-190, 1990) in blocks of
    b ~ sqrt(K/2) steps, the last block padded with zero forcing: (1) every
    block's sum from a zero start, all blocks at once in b batched products;
    (2) the block starts, one after another, through a^b; (3) the block
    interiors from their starts, all blocks at once in b batched products.
    That is O(K) products of n x n work in about 2 sqrt(2K) batched steps,
    the same recurrence as K matrix-vector steps in another summation order.
    A zero ``g`` skips pass (1).
    """
    n_rows, n = g.shape
    b = max(1, round((n_rows / 2.0) ** 0.5))
    n_blocks = -(-n_rows // b)
    blocks = np.zeros((n_blocks, b, n))
    blocks.reshape(-1, n)[:n_rows] = g
    at = a.T
    ends = np.zeros((n_blocks, n))
    if g.any():
        for j in range(b):
            ends = ends @ at + blocks[:, j]
    power = np.linalg.matrix_power(a, b).T
    starts = np.empty((n_blocks, n))
    state = x0
    for r in range(n_blocks):
        starts[r] = state
        state = state @ power + ends[r]
    state = starts
    for j in range(b):
        state = blocks[:, j] = state @ at + blocks[:, j]
    return np.vstack((x0, blocks.reshape(-1, n)[:n_rows]))


def _march(step, start, n_steps):
    """Rows start, S start, S^2 start, ..., S^n_steps start for a step matrix S."""
    return _scan(step, start, np.zeros((n_steps, start.size)))


def _convolve(f, steps, h):
    """c(t_i) = int_0^{t_i} S(t_i - s) f(s) ds for all grid times t_i = i h.

    ``f`` holds f(t_i) as rows and ``steps`` the matrices S(h), S(2h), S(3h).
    Composite Simpson is additive over blocks and S(t_i - s) = S(2h) S(t_{i-2} - s),
    so the even grid values are one recurrence c(t_{2k}) = S(2h) c(t_{2k-2})
    plus one Simpson block, run as a blocked scan (``_scan``); every odd
    i >= 3 then propagates c(t_{i-3}) by S(3h) and adds a 3/8 block, all in
    one batched product; i = 1 is the trapezoid rule.  These are the weights
    of Simpson with a closing 3/8 block on [0, t_i], applied without ever
    forming S(t_i - t_l).
    """
    s1, s2, s3 = steps
    f1 = f @ s1.T  # S(h) f(t_l) for every l
    f2 = f @ s2.T
    c = np.zeros_like(f)
    if len(f) > 1:
        c[1] = h / 2.0 * (f1[0] + f[1])
    g = h / 3.0 * (f2[:-2:2] + 4.0 * f1[1:-1:2] + f[2::2])
    c[::2] = _scan(s2, c[0], g)
    c[3::2] = ((c[:-3:2] + 3.0 * h / 8.0 * f[:-3:2]) @ s3.T
               + 9.0 * h / 8.0 * (f2[1:-2:2] + f1[2:-1:2]) + 3.0 * h / 8.0 * f[3::2])
    return c


def _steps(factor, h):
    """The semigroup steps S(h), S(2h), S(3h) that ``_convolve`` needs."""
    return [factor.semigroup_matrix(k * h) for k in (1, 2, 3)]


class IteratedKernelStack:
    """Layers k^(0), k^(1), ... of an operator/potential pair on a subdomain.

    Layers are held per target vertex y as arrays over (time grid, x); they
    are extended lazily both in the layer index and in y.
    """

    def __init__(self, op: EllipticOperator, potential: Potential,
                 subset: IndexedSubdomain, t_max, n_steps=DEFAULT_STEPS, factor=None):
        if not (np.isfinite(t_max) and t_max > 0.0):
            raise ValidationError("t_max must be finite and positive")
        n_steps = _check_integer(n_steps, 1, "n_steps must be a positive integer")
        self.op = op
        self.potential = potential
        self.sub = subset
        self.factor = factor if factor is not None else factorize(op, subset)
        self.n_steps = n_steps
        self.t_max = float(t_max)
        self.grid = np.linspace(0.0, self.t_max, self.n_steps + 1)
        self.h = self.t_max / self.n_steps
        self.v_local = potential.values[subset.positions]
        self.mu = op.mu[subset.positions]
        self._steps = _steps(self.factor, self.h)
        self._columns = {}  # iy -> [layer_0, layer_1, ...], each (n_steps+1, n)

    def layer_column(self, y, j):
        j = _check_integer(j, 0, "layer index must be a nonnegative integer")
        iy = self.sub.local_of(y)
        layers = self._columns.setdefault(iy, [])
        if not layers:
            e = np.zeros(self.sub.size)
            e[iy] = 1.0 / self.mu[iy]
            layers.append(_march(self._steps[0], e, self.n_steps))
        while len(layers) <= j:
            layers.append(_convolve(layers[-1] * self.v_local[None, :], self._steps, self.h))
        return layers[j]

    def column_at(self, j, y, t):
        """k^(j)(., y, t) over the subset: the grid row when t is on the grid, else
        Lagrange interpolation on the min(4, n_steps + 1) nodes nearest t, O(h^4)."""
        t = float(t)
        if not (0.0 <= t <= self.t_max + 1e-12 * self.t_max):
            raise ValidationError(f"t={t:g} outside the quadrature grid [0, {self.t_max:g}]")
        rows = self.layer_column(y, j)
        pos = t / self.h
        i = int(round(pos))
        if abs(pos - i) <= 1e-9:
            return rows[min(i, self.n_steps)]
        i0 = min(max(int(np.floor(pos)) - 1, 0), max(self.n_steps - 3, 0))
        ts = self.grid[i0:i0 + 4]
        out = 0.0
        for a in range(ts.size):
            w = 1.0
            for b in range(ts.size):
                if a != b:
                    w *= (t - ts[b]) / (ts[a] - ts[b])
            out = out + w * rows[i0 + a]
        return out

    def value(self, j, x, y, t):
        """k^(j)(x, y, t); off-grid t is interpolated as in ``column_at``."""
        return float(self.column_at(j, y, t)[self.sub.local_of(x)])


def iterated_kernel(stack: IteratedKernelStack, j, x, y, t, self_check=False,
                    check_tol=1e-8) -> float:
    """j-th iterated kernel value from the stack's Simpson recursion."""
    val = stack.value(j, x, y, t)
    if self_check and j >= 1:
        if stack.n_steps < 2:
            raise ValidationError("the step-halving self-check needs a stack of at least 2 steps")
        coarse = IteratedKernelStack(stack.op, stack.potential, stack.sub,
                                     stack.t_max, n_steps=stack.n_steps // 2,
                                     factor=stack.factor)
        ref = coarse.value(j, x, y, t)
        scale = max(abs(val), 1e-300)
        if abs(val - ref) / scale > check_tol * 16.0:
            raise QuadratureError(
                f"quadrature step too coarse for layer {j} at t={t:g}: "
                f"halving changes the value by {abs(val - ref) / scale:.2e} relative")
    return val


def _pair_time_integral(lam, t):
    """I[m,k] = int_0^t exp(-lam_m (t-s)) exp(-lam_k s) ds, stable near lam_m = lam_k."""
    lam = np.asarray(lam, dtype=float)
    lm = lam[:, None]
    lk = lam[None, :]
    delta = lm - lk
    with np.errstate(over="ignore", invalid="ignore"):
        base = np.exp(-lk * t)
        small = np.abs(delta) * t < 1e-8
        # exact: base * (1 - exp(-delta t)) / delta; series for tiny delta
        ratio = np.where(small, t * (1.0 - delta * t / 2.0 + (delta * t) ** 2 / 6.0),
                         -np.expm1(-np.where(small, 1.0, delta) * t)
                         / np.where(small, 1.0, delta))
        out = base * ratio
    out[~np.isfinite(out)] = 0.0
    return out


def first_layer_spectral(op: EllipticOperator, potential: Potential,
                         subset: IndexedSubdomain, t, factor=None):
    """Exact matrix of k^(1) with |V| for a symmetric operator.

    Independent of the Simpson recursion: the time integral of each spectral
    pair is evaluated in closed form.
    """
    t = float(t)
    if not (np.isfinite(t) and t >= 0.0):
        raise ValidationError("t must be finite and nonnegative")
    fac = factor if factor is not None else factorize(op, subset)
    if not isinstance(fac, SymmetricFactor):
        raise ValidationError("the spectral first layer needs a symmetric operator")
    lam, vecs, _ = fac.spectral()
    if not np.all(np.isfinite(lam)):
        raise NumericalError("spectral route unavailable: non-finite eigenvalues")
    v = np.abs(potential.values[subset.positions])
    s = vecs.T @ (v[:, None] * vecs)
    m = vecs @ (s * _pair_time_integral(lam, t)) @ vecs.T
    return m / fac.sqrt_mu[:, None] / fac.sqrt_mu[None, :]


def _first_layer_expm(factor, v_abs, t):
    """Exact matrix of k^(1) with |V| for any operator: the upper-right block of
    expm(t [[-K, diag|V|], [0, -K]]) is int_0^t S(t - s) diag|V| S(s) ds (Van Loan,
    IEEE TAC 23, 1978); dividing column y by mu(y) gives k^(1)."""
    n = v_abs.size
    block = np.zeros((2 * n, 2 * n))
    block[:n, :n] = block[n:, n:] = -factor.k_dense
    block[:n, n:] = np.diag(v_abs)
    return sla.expm(t * block)[:n, n:] / factor.mu[None, :]


def _above_noise(k):
    """Entries of a kernel matrix above 1e-7 of their diagonal scale
    sqrt(k(x,x) k(y,y)): far enough above the spectral round-off floor
    (~1e-17 of that scale) that kernel ratios there are not ratios of noise."""
    d = np.diag(k)
    return k > 1e-7 * np.sqrt(np.outer(d, d))


@dataclass
class ThreeKResult:
    """Sampled estimate of the 3-k constant and the bounded/unbounded verdict."""

    c_estimate: float
    bounded: bool
    trend_power: float
    mode: str
    t_grid: np.ndarray
    per_t_max: np.ndarray

    @property
    def unbounded(self):
        return not self.bounded


def three_k_constant(op: EllipticOperator, potential: Potential, subset: IndexedSubdomain,
                     t_grid=None, mode="bounded", y=None, factor=None) -> ThreeKResult:
    """Max over samples of k^(1)_{|V|}(x, y, t) / k(x, y, t).

    mode 'bounded' samples all vertex pairs of the subset; 'semibounded'
    fixes y and samples x.  Pairs whose k(x, y, t) is within round-off of
    zero are not sampled.  The sup is flagged unbounded when the per-t
    maximum keeps growing along the tail of the grid (fitted power > 0.15).
    """
    if mode not in ("bounded", "semibounded"):
        raise ValidationError(f"unknown 3-k mode: {mode!r}")
    if mode == "semibounded" and y is None:
        raise ValidationError("semibounded mode fixes y; pass y=...")
    t_grid = _check_times(geometric_grid(0.05, 100.0, 40) if t_grid is None else t_grid)
    fac = factor if factor is not None else factorize(op, subset)
    per_t = np.empty(t_grid.size)
    symmetric = isinstance(fac, SymmetricFactor)
    v_abs = np.abs(potential.values[subset.positions])
    for it, t in enumerate(t_grid):
        k0 = fac.kernel_matrix(t)
        if symmetric:
            k1 = first_layer_spectral(op, potential, subset, t, factor=fac)
        else:
            k1 = _first_layer_expm(fac, v_abs, t)
        good = _above_noise(k0)
        if mode == "semibounded":
            iy = subset.local_of(y)
            num, den, good = k1[:, iy], k0[:, iy], good[:, iy]
        else:
            num, den, good = k1.ravel(), k0.ravel(), good.ravel()
        per_t[it] = float(np.max(num[good] / den[good])) if np.any(good) else 0.0
    c_estimate = float(np.max(per_t))
    slope, _, _ = fit_loglog_slope(t_grid, per_t)
    tail = per_t[t_grid >= t_grid[-1] / 10.0]
    growing = tail.size >= 3 and bool(np.all(np.diff(tail) > 0.0))
    bounded = not (growing and slope > 0.15)
    return ThreeKResult(c_estimate, bounded, slope, mode, t_grid, per_t)


def neumann_heat_kernel(stack: IteratedKernelStack, eps, x, y, t,
                        series_tol=1e-10, max_terms=MAX_SERIES_TERMS):
    """Resummed kernel sum_j (-eps)^j k^(j)(x, y, t); returns (value, terms_used)."""
    eps = float(eps)
    if not np.isfinite(eps):
        raise ValidationError("coupling must be finite")
    total = stack.value(0, x, y, t)
    if eps == 0.0:
        return total, 1
    power = 1.0
    for j in range(1, max_terms + 1):
        power *= -eps
        term = power * stack.value(j, x, y, t)
        total += term
        if abs(term) <= series_tol * max(abs(total), 1e-300):
            return total, j + 1
    raise NumericalError(
        f"Neumann series did not converge in {max_terms} terms; "
        "|eps| is likely outside the 3-k radius")


def duhamel_residual(op: EllipticOperator, potential: Potential, eps,
                     subset: IndexedSubdomain, x, y, t) -> float:
    """|lhs - rhs| of the perturbation identity

        k_{P+eps V}(x,y,t) = k_P(x,y,t)
            - eps int_0^t sum_z k_P(x,z,t-s) V(z) k_{P+eps V}(z,y,s) mu(z) ds,

    with both sides computed independently (direct exponentials + Simpson);
    QuadratureError when halving the steps moves the rhs by > 16e-8 relative.
    """
    t = float(t)
    if not (np.isfinite(t) and t > 0.0):
        raise ValidationError("t must be finite and positive")
    fac_p = factorize(op, subset)
    op_pert = add_potential(op, potential, eps)
    fac_q = factorize(op_pert, subset)
    ix, iy = subset.local_of(x), subset.local_of(y)
    lhs = fac_q.kernel(ix, iy, t)
    e = np.zeros(subset.size)
    e[iy] = 1.0
    v_local = potential.values[subset.positions]

    def rhs(n_steps):
        h = t / n_steps
        col_q = _march(fac_q.semigroup_matrix(h), e, n_steps)  # exp(-s K') e_y
        acc = _convolve(col_q * v_local[None, :], _steps(fac_p, h), h)[n_steps]
        k_p = fac_p.kernel(ix, iy, t)
        mu_y = subset.mu[iy]
        return k_p - eps * acc[ix] / mu_y

    val = rhs(DEFAULT_STEPS)
    ref = rhs(DEFAULT_STEPS // 2)
    scale = max(abs(val), abs(lhs), 1e-300)
    if abs(val - ref) / scale > 1e-8 * 16.0:
        raise QuadratureError(
            f"quadrature step too coarse at t={t:g}: halving changes the "
            f"right-hand side by {abs(val - ref) / scale:.2e} relative")
    return float(abs(lhs - val))


@dataclass
class EquivalenceReport:
    """Sampled kernel-ratio bounds for one coupling against the 3-k prediction."""

    epsilon: float
    c_estimate: float
    upper_ratio: float
    lower_ratio: float
    bound_satisfied: bool | None  # None when C|eps| >= 1 (no prediction)
    max_principle_ok: bool | None  # for nonnegative V and eps > 0
    conditional: bool = True  # C is a sampled lower bound of the true sup
    samples: int = 0
    sample_rows: list = field(default_factory=list)

    def rows(self):
        """Per-sample rows (x, y, t, alpha_or_eps, lhs, rhs, margin) when kept,
        else a one-line aggregate with the same columns."""
        if self.sample_rows:
            return self.sample_rows
        rhs = (1.0 / (1.0 - self.c_estimate * abs(self.epsilon))
               if self.c_estimate * abs(self.epsilon) < 1.0 else "")
        return [{"x": "", "y": "", "t": "", "alpha_or_eps": self.epsilon,
                 "lhs": self.upper_ratio, "rhs": rhs,
                 "margin": rhs - self.upper_ratio if rhs != "" else ""}]


def equivalence_check(op: EllipticOperator, potential: Potential,
                      eps_list, subset: IndexedSubdomain, t_grid=None, keep_samples=False):
    """Kernel-ratio equivalence reports per coupling.

    Verifies upper_ratio <= 1/(1 - C|eps|) when C|eps| < 1, and for
    nonnegative V additionally the one-sided bound k_{P+eps V} <= k_P for
    every eps > 0 (no radius restriction), both up to 1e-6.  Violations are
    findings recorded in the report, never exceptions.
    """
    t_grid = _check_times(geometric_grid(0.1, 20.0, 12) if t_grid is None else t_grid)
    fac = factorize(op, subset)
    c = three_k_constant(op, potential, subset, t_grid=t_grid, factor=fac).c_estimate
    v_nonneg = bool(np.all(potential.values >= 0.0))
    reports = []
    for eps in eps_list:
        eps = float(eps)
        fac_e = factorize(add_potential(op, potential, eps), subset)
        upper, lower = -np.inf, np.inf
        count = 0
        kept = []
        for t in t_grid:
            k0 = fac.kernel_matrix(t)
            ke = fac_e.kernel_matrix(t)
            # sample only where ratio noise stays below the comparison slack
            good = _above_noise(k0) & _above_noise(ke)
            ratios = ke[good] / k0[good]
            if ratios.size:
                upper = max(upper, float(ratios.max()))
                lower = min(lower, float(ratios.min()))
                count += int(ratios.size)
                if keep_samples and c * abs(eps) < 1.0:
                    bound = 1.0 / (1.0 - c * abs(eps))
                    for ix, iy in zip(*np.nonzero(good)):
                        lhs_v = float(ke[ix, iy])
                        rhs_v = bound * float(k0[ix, iy])
                        kept.append({"x": int(subset.labels[ix]), "y": int(subset.labels[iy]),
                                     "t": float(t), "alpha_or_eps": eps,
                                     "lhs": lhs_v, "rhs": rhs_v, "margin": rhs_v - lhs_v})
        bound = None
        if c * abs(eps) < 1.0:
            bound = bool(upper <= 1.0 / (1.0 - c * abs(eps)) + 1e-6)
        mp = None
        if v_nonneg and eps > 0.0:
            mp = bool(upper <= 1.0 + 1e-6)
        reports.append(EquivalenceReport(eps, c, upper, lower, bound, mp,
                                         conditional=True, samples=count,
                                         sample_rows=kept))
    return reports


@dataclass
class ConvexityReport:
    """Sampled check of log-convexity of kernels along a potential segment."""

    holds: bool
    worst_margin: float
    samples: int
    violations: list = field(default_factory=list)
    sample_rows: list = field(default_factory=list)

    def rows(self):
        """Per-sample rows (x, y, t, alpha_or_eps, lhs, rhs, margin)."""
        if self.sample_rows:
            return self.sample_rows
        return [{"x": x, "y": y, "t": t, "alpha_or_eps": a, "lhs": l, "rhs": r,
                 "margin": r - l} for (x, y, t, a, l, r) in self.violations]


def convexity_check(op0: EllipticOperator, op1: EllipticOperator, alphas,
                    subset: IndexedSubdomain, pairs, t_values, exhaustion=None,
                    keep_samples=False) -> ConvexityReport:
    """Check k_alpha <= k_0^(1-alpha) k_1^alpha (to 1e-10 relative) at samples.

    The segment hypothesis lambda0 >= 0 at both endpoints is verified first
    (on the full exhaustion when given, else on the subset).
    """
    from .criticality import lambda0 as lambda0_limit  # local import; no cycle at module load

    t_values = _check_times(t_values).tolist()
    dv = op1.potential - op0.potential
    if (op0.weights != op1.weights).nnz != 0:
        raise ValidationError("convexity segment needs operators sharing edge weights")
    for op in (op0, op1):
        if exhaustion is not None:
            lam = lambda0_limit(op, exhaustion).value
        else:
            lam = factorize(op, subset).principal_pair()[0]
        if lam < -1e-9:
            raise NegativeLambda0Error(lam)
    fac0 = factorize(op0, subset)
    fac1 = factorize(op1, subset)
    worst = np.inf
    violations = []
    kept = []
    count = 0
    fac_alpha = {}
    for alpha in alphas:
        alpha = float(alpha)
        if not (0.0 <= alpha <= 1.0):
            raise ValidationError("alpha must lie in [0, 1]")
        if alpha not in fac_alpha:
            op_a = add_potential(op0, Potential(op0.domain, dv), alpha)
            fac_alpha[alpha] = factorize(op_a, subset)
        fac_a = fac_alpha[alpha]
        for t in t_values:
            m0 = fac0.kernel_matrix(t)
            m1 = fac1.kernel_matrix(t)
            ma = fac_a.kernel_matrix(t)
            for (x, y) in pairs:
                ix, iy = subset.local_of(x), subset.local_of(y)
                # skip entries too close to the spectral noise floor of any
                # of the three kernels; the 1e-10 slack needs values at least
                # ~1e-4 of the diagonal scale to be meaningful
                floor = 1e-4 * min(
                    np.sqrt(m0[ix, ix] * m0[iy, iy]),
                    np.sqrt(m1[ix, ix] * m1[iy, iy]),
                    np.sqrt(max(ma[ix, ix], 0.0) * max(ma[iy, iy], 0.0)))
                if not (m0[ix, iy] > floor and m1[ix, iy] > floor and ma[ix, iy] > floor):
                    continue
                lhs = ma[ix, iy]
                rhs = m0[ix, iy] ** (1.0 - alpha) * m1[ix, iy] ** alpha
                margin = rhs - lhs
                worst = min(worst, margin)
                count += 1
                if keep_samples:
                    kept.append({"x": int(x), "y": int(y), "t": t,
                                 "alpha_or_eps": alpha, "lhs": float(lhs),
                                 "rhs": float(rhs), "margin": float(margin)})
                if lhs > rhs + 1e-10 * max(abs(rhs), 1e-300):
                    violations.append((int(x), int(y), t, alpha, float(lhs), float(rhs)))
    return ConvexityReport(not violations, float(worst), count, violations, kept)
