"""Principal eigenvalues, ground states, criticality classification and couplings.

The classification dichotomy is decided by the exhaustion limit of the Green
values: convergence means subcritical, divergence means critical.  Critical
operators are split into positive- and null-critical by the convergence of
the mass series sum phi(x) phi*(x) mu(x) over the exhaustion, where phi and
phi* are the ground states of the operator and its adjoint.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .domains import Exhaustion
from .errors import (
    InconclusiveError,
    NegativeLambda0Error,
    NoSignChangeError,
    NumericalError,
    ValidationError,
)
from .kernels import (
    GREEN_TOL,
    HeatKernelEvaluator,
    LimitResult,
    LimitStatus,
    check_tolerance,
    exhaustion_limit,
)
from .operators import EllipticOperator, Potential, adjoint
from .perturbation import _check_integer
from .series import (
    fit_log_time_formula,
    increments_decreasing,
    neville_extrapolate,
    neville_in_size,
)


class Classification(enum.Enum):
    SUBCRITICAL = "subcritical"
    NULL_CRITICAL = "null-critical"
    POSITIVE_CRITICAL = "positive-critical"


@dataclass
class Lambda0Result:
    """Generalized principal eigenvalue estimate with its certified bracket."""

    value: float
    error: float
    history: list  # (level, lambda0(S_j))
    bracket: tuple  # (lower, upper): lambda0 certainly lies in it

    def __repr__(self):
        return (f"Lambda0Result({self.value!r} +- {self.error:.2e} in "
                f"[{self.bracket[0]:.6g}, {self.bracket[1]:.6g}], levels={len(self.history)})")


def default_reference_pair(exhaustion: Exhaustion):
    """Reference vertices (x0, y0): first vertex of S_1 and a neighbor of it."""
    first = exhaustion[0]
    x0 = int(first.labels[0])
    domain = exhaustion.domain
    adj, p = domain._undirected_adjacency(), int(domain.positions_of(x0))
    neighbors = adj.indices[adj.indptr[p]:adj.indptr[p + 1]]  # in storage order
    if neighbors.size == 0:
        return x0, x0  # single-vertex domain
    for j in range(len(exhaustion)):
        level = exhaustion[j]
        for nb in neighbors:
            y0 = int(domain.labels[nb])
            if y0 in level and x0 in level:
                return x0, y0
    return x0, x0


def lambda0(op: EllipticOperator, exhaustion: Exhaustion, tol=None,
            evaluator: HeatKernelEvaluator = None) -> Lambda0Result:
    """Limit of the principal Dirichlet eigenvalues along the exhaustion.

    The level sequence is nonincreasing; the limit is Neville-extrapolated in
    1/(level size) to tolerance ``tol`` (None: 1e-10) and reported with the
    last raw increment as a (conservative) error estimate.

    The estimate is clamped into a certified bracket.  Every lambda0(S_j) is
    an upper bound.  The Barta bound with u = 1 (P1 = D) gives
    lambda0 >= inf D, for nonsymmetric operators too.  The reported error is
    at most the bracket's width.
    """
    ev = evaluator or HeatKernelEvaluator(op, exhaustion)
    tol = check_tolerance(1e-10 if tol is None else tol)
    history = []
    values = []
    sizes = []

    def result(value, error):
        upper = min(values)
        lower = min(float(np.min(op.potential)), upper)
        return Lambda0Result(min(max(value, lower), upper), min(error, upper - lower),
                             history, (lower, upper))

    for j in ev.usable_levels():
        lam = ev.principal_eigenvalue(j)
        if values and lam > values[-1] + 1e-9 * max(1.0, abs(values[-1])):
            raise NumericalError(
                f"principal eigenvalue increased along the exhaustion at level {j}"
            )
        history.append((j, lam))
        values.append(lam)
        sizes.append(exhaustion[j].size)
        if len(values) >= 3:
            extrap, err = neville_in_size(sizes, values, min(5, len(values)))
            if err <= tol * max(1.0, abs(extrap)):
                return result(extrap, abs(values[-2] - values[-1]))
    if ev.exhausts_domain:
        return result(values[-1], 0.0)
    if len(values) == 1:
        return result(values[-1], float("inf"))
    d_last = abs(values[-2] - values[-1])
    shrinking = len(values) < 3 or increments_decreasing(values[-3:])
    if not shrinking and d_last > tol * max(1.0, abs(values[-1])):
        raise InconclusiveError("principal eigenvalue increments are not shrinking; no convergence")
    extrap, _ = neville_in_size(sizes, values, min(5, len(values)))
    return result(extrap, d_last)


def ground_state(evaluator: HeatKernelEvaluator, x0=None):
    """Exhaustion limit of principal Dirichlet eigenfunctions, normalized at x0.

    Returns (x0, phi), phi an array over the domain's positions that is NaN
    outside the last usable level.  A vertex is extrapolated in 1/|S_j| over
    the last m <= 5 levels that contain it: the levels are nested, so these
    are the last m usable levels, and one Neville tableau serves each m.
    """
    ex = evaluator.exhaustion
    x0 = int(ex[0].labels[0]) if x0 is None else int(x0)
    levels = evaluator.usable_levels()
    top_level = ex[levels[-1]]
    top = top_level.positions
    kept = min(5, len(levels))  # every level's pair is checked, the last ones kept
    values = np.full((kept, top.size), np.nan)  # their phi_j on the top level's positions
    for i, j in enumerate(levels, kept - len(levels)):
        _, v, positive = evaluator.factor(j).principal_pair()
        if not positive:
            raise NumericalError(
                "principal eigenfunction is not one-signed; restriction is supercritical")
        ref = v[ex[j].local_of(x0)]
        if ref <= 0.0:
            raise NumericalError(f"ground state vanishes at reference vertex {x0}")
        if i >= 0:
            values[i, top_level.local_indices(ex[j].positions)] = v / ref
    depth = np.count_nonzero(~np.isnan(values), axis=0)  # kept levels containing each vertex
    phi = np.full(ex.domain.n_vertices, np.nan)
    phi[top] = values[-1]  # a vertex of the top level only keeps its value there
    for m in range(2, kept + 1):
        cols = np.flatnonzero(depth == m)
        h = 1.0 / np.asarray([ex[j].size for j in levels[-m:]], dtype=float)
        phi[top[cols]] = neville_extrapolate(h, values[-m:, cols])[0]
    phi[ex.domain.positions_of(x0)] = 1.0
    return x0, phi


@dataclass
class CriticalityReport:
    """Classification of an operator with the limits that justify it; a critical
    one carries the ground states phi, phi* of the operator and its adjoint as
    arrays over the domain's positions, NaN outside the last usable level."""

    classification: Classification
    lambda0: Lambda0Result
    green_limit: LimitResult
    x0: int
    y0: int
    ground_state: np.ndarray | None = None
    adjoint_ground_state: np.ndarray | None = None
    mass: LimitResult | None = None
    notes: list = field(default_factory=list)

    @property
    def label(self):
        return self.classification.value

    def to_text(self):
        lines = [
            f"classification: {self.classification.value}",
            f"lambda0: {self.lambda0.value:.12g}",
            f"lambda0_error: {self.lambda0.error:.3g}",
            f"lambda0_bracket: {self.lambda0.bracket[0]:.12g} {self.lambda0.bracket[1]:.12g}",
            f"green_status: {self.green_limit.status.value}",
            f"green_value: {self.green_limit.value:.12g}",
            f"reference_x0: {self.x0}",
            f"reference_y0: {self.y0}",
        ]
        if self.mass is not None:
            lines.append(f"mass_status: {self.mass.status.value}")
            if self.mass.converged:
                lines.append(f"mass: {self.mass.value:.12g}")
        if self.ground_state is not None:
            lines.append(f"ground_state_vertices: {np.count_nonzero(~np.isnan(self.ground_state))}")
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines) + "\n"

    def diagnostic_rows(self):
        """Per-level rows (level, lambda0_j, green_j, mass_j) for CSV export."""
        lam = dict(self.lambda0.history)
        grn = dict(self.green_limit.history)
        mss = dict(self.mass.history) if self.mass is not None else {}
        rows = []
        for j in sorted(set(lam) | set(grn) | set(mss)):
            rows.append({
                "level": j,
                "lambda0_j": lam.get(j, ""),
                "green_j": grn.get(j, ""),
                "mass_j": mss.get(j, ""),
            })
        return rows


def classify(op: EllipticOperator, exhaustion: Exhaustion, x0=None, y0=None,
             evaluator: HeatKernelEvaluator = None, green_tol=None) -> CriticalityReport:
    """Subcritical / positive-critical / null-critical classification.

    Raises NegativeLambda0Error when lambda0 is certainly below -1e-6, i.e.
    the upper end of its bracket is (the theory assumes lambda0 >= 0), and
    InconclusiveError when a deciding limit cannot be certified within the
    ambient truncation.
    """
    ev = evaluator or HeatKernelEvaluator(op, exhaustion)
    lam = lambda0(op, exhaustion, evaluator=ev)
    if lam.bracket[1] < -1e-6:
        raise NegativeLambda0Error(lam.value)
    if x0 is None or y0 is None:
        x0_d, y0_d = default_reference_pair(exhaustion)
        x0 = x0_d if x0 is None else int(x0)
        y0 = y0_d if y0 is None else int(y0)
    green = ev.green(x0, y0, tol=green_tol)
    if green.status is LimitStatus.INCONCLUSIVE:
        raise InconclusiveError(f"green limit inconclusive: {green.evidence}")

    if green.converged:
        return CriticalityReport(Classification.SUBCRITICAL, lam, green, x0, y0)

    # critical: ground states and the mass series decide the subdivision
    _, phi = ground_state(ev, x0)
    phi_star = phi if op.symmetric else ground_state(
        HeatKernelEvaluator(adjoint(op), exhaustion), x0)[1]
    usable = ev.usable_levels()
    # on ambient truncations, the outermost level's new vertices appear in too
    # few levels for their phi extrapolation to be trusted; the mass series
    # stops one level short there (a finite domain is summed exactly instead)
    levels = usable if ev.exhausts_domain or len(usable) == 1 else usable[:-1]
    # mass_j sums phi phi* mu left to right in position order (np.sum pairs terms)
    density = phi * phi_star * op.domain.mu
    mass = exhaustion_limit(lambda j: float(np.cumsum(density[exhaustion[j].positions])[-1]),
                            levels, [exhaustion[j].size for j in levels], GREEN_TOL,
                            trend_divergence=True, exact_final=ev.exhausts_domain)
    if mass.status is LimitStatus.INCONCLUSIVE:
        raise InconclusiveError(f"mass series inconclusive: {mass.evidence}")
    kind = Classification.POSITIVE_CRITICAL if mass.converged else Classification.NULL_CRITICAL
    return CriticalityReport(kind, lam, green, x0, y0, phi, phi_star, mass)


@dataclass
class LogEigenvalueSeries:
    """The series (t, -log k(x,y,t)/t) and its fitted large-time limit."""

    t: np.ndarray
    values: np.ndarray
    estimate: float
    fit: tuple  # (a, b, c, rms) for a + b log t / t + c / t

    def rows(self):
        return [{"t": tt, "value": vv} for tt, vv in zip(self.t, self.values)]


def lambda0_log_estimate(evaluator: HeatKernelEvaluator, x, y, t_grid,
                         tol=None) -> LogEigenvalueSeries:
    """Estimate lambda0 from the decay rate -log k(x, y, t)/t along t_grid."""
    t_grid = np.asarray(list(t_grid), dtype=float)
    if t_grid.size < 3 or np.any(np.diff(t_grid) <= 0.0):
        raise ValidationError("t_grid must be increasing with at least 3 points")
    if not np.all(np.isfinite(t_grid) & (t_grid > 0.0)):
        raise ValidationError("t_grid times must be finite and positive")
    vals = []
    for t, r in zip(t_grid, evaluator.heat_kernels(x, y, t_grid, tol=tol)):
        if not r.converged:
            raise InconclusiveError(f"kernel limit inconclusive at t={t:g}")
        if r.value <= 0.0:
            raise NumericalError(f"nonpositive kernel value at t={t:g}")
        vals.append(-np.log(r.value) / t)
    vals = np.asarray(vals)
    a, b, c, rms = fit_log_time_formula(t_grid, vals)
    return LogEigenvalueSeries(t_grid, vals, a, (a, b, c, rms))


@dataclass
class CouplingResult:
    """Critical coupling: the exhaustion limit of the level values alpha0(S_j),
    which never increase with j, so the last, ``upper_bound``, bounds alpha0
    from above; cross-checked against the spectral oracle."""

    alpha0: float
    upper_bound: float
    error_estimate: float
    oracle_alpha0: float | None
    agree: bool
    finding: str | None
    history: list  # (level, alpha0(S_j))


def _first_singular_coupling(g, weights):
    """1/rho, rho the largest real positive eigenvalue of -g diag(weights), or
    None: with g = A^-1 and weights = V mu on the support of V, the least
    alpha > 0 at which A + alpha V mu is singular."""
    eigs = np.linalg.eigvals(-g * weights[None, :])
    real_pos = eigs.real[(np.abs(eigs.imag) <= 1e-9 * np.abs(eigs.real) + 1e-12)
                         & (eigs.real > 0.0)]
    if real_pos.size == 0:
        return None
    return float(1.0 / real_pos.max())


def birman_schwinger_alpha0(op: EllipticOperator, potential: Potential,
                            evaluator: HeatKernelEvaluator, green_tol=None):
    """Oracle coupling: alpha0 = 1/rho with rho the largest positive eigenvalue
    of the matrix -G(x, z) V(z) mu(z) on the support of V, G the Green limits.

    For a pure attractive V = -W this is 1/rho(W^(1/2) G W^(1/2)).
    """
    support = potential.support
    if not support:
        raise ValidationError("potential has empty support; no coupling to find")
    domain = op.domain
    n = len(support)
    g = np.empty((n, n))
    for b, y in enumerate(support):
        for a, x in enumerate(support):
            r = evaluator.green(x, y, tol=green_tol)
            if not r.converged:
                raise InconclusiveError(f"green limit inconclusive at ({x}, {y})")
            g[a, b] = r.value
    pos = domain.positions_of(support)
    return _first_singular_coupling(g, potential.values[pos] * domain.mu[pos])


def _require_subcritical(green: LimitResult):
    """A diverging base Green limit is bad input; an uncertified one is inconclusive."""
    if green.diverging:
        raise ValidationError("operator is not subcritical: its Green limit diverges")
    if not green.converged:
        raise InconclusiveError(f"subcriticality of the operator is inconclusive: {green.evidence}")


def critical_coupling(op: EllipticOperator, potential: Potential, exhaustion: Exhaustion,
                      bracket=(0.0, 8.0), green_tol=None) -> CouplingResult:
    """Coupling alpha0 at which P + alpha V stops being subcritical.

    The exhaustion limit (tolerance ``green_tol``) of alpha0(S_j) =
    1/rho(-G_j V mu) on the levels that hold the support of V, G_j the level's
    Green matrix there from the base operator's factor (Birman-Schwinger;
    Reed-Simon IV, XIII.3).  A_j is a Z-matrix, so alpha0(S_j), the first
    zero of det(A_j + alpha V mu), never increases with j and bounds alpha0
    from above.  alpha0 outside ``bracket`` is NoSignChangeError, an
    uncertified limit InconclusiveError.  The Birman-Schwinger oracle on the
    Green limits cross-checks alpha0: a relative gap beyond 1e-3 is a finding.
    """
    if not np.any(potential.negative_part > 0.0):
        raise ValidationError("potential must have a nonzero attractive part")
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValidationError("bracket must be finite")
    if lo >= hi:
        raise ValidationError("bracket must satisfy lo < hi")
    x0, y0 = default_reference_pair(exhaustion)
    base_ev = HeatKernelEvaluator(op, exhaustion)
    # every level value reads G on the support, so it must lie in a usable level
    last = exhaustion[base_ev.usable_levels()[-1]]
    pos = np.flatnonzero(potential.values != 0.0)
    outside = pos[last.local_indices(pos) < 0]
    if outside.size:
        raise ValidationError(f"potential support vertex {op.domain.labels[outside[0]]} "
                              "is outside the last usable exhaustion level")
    tol = GREEN_TOL if green_tol is None else green_tol
    _require_subcritical(base_ev.green(x0, y0, tol=tol))

    support, weights = potential.support, potential.values[pos] * op.domain.mu[pos]

    def level_alpha0(j):
        g = np.array([[base_ev.green_finite_level(j, x, y) for y in support] for x in support])
        value = _first_singular_coupling(g, weights)
        if value is None:
            raise NumericalError(f"-G_j V mu has no positive eigenvalue at level {j}")
        return value

    limit = exhaustion_limit(level_alpha0,
                             *base_ev._levels_from(exhaustion.first_level_containing(*support)),
                             tol, trend_divergence=False, exact_final=base_ev.exhausts_domain)
    if limit.diverging:  # a level is not positive definite, or has no such eigenvalue
        raise NumericalError(f"critical coupling limit failed: {limit.evidence}")
    upper = limit.history[-1][1]
    if not limit.converged:
        raise InconclusiveError(f"critical coupling limit inconclusive ({limit.evidence}); "
                                f"alpha0 <= {upper:.12g}")
    alpha0 = min(limit.value, upper)
    if not lo <= alpha0 <= hi:
        raise NoSignChangeError(f"critical coupling {alpha0:.8g} lies outside the bracket "
                                f"({lo:g}, {hi:g})")

    oracle = birman_schwinger_alpha0(op, potential, base_ev, green_tol=tol)
    finding = None
    agree = False
    if oracle is None:
        finding = "spectral oracle produced no positive eigenvalue"
    else:
        rel = abs(alpha0 - oracle) / abs(oracle)
        agree = rel <= 1e-3
        if not agree:
            finding = (f"limit alpha0={alpha0:.8g} and oracle alpha0={oracle:.8g} "
                       f"disagree by {rel:.2e} relative")
    return CouplingResult(alpha0, upper, limit.error_estimate, oracle, agree, finding,
                          limit.history)


@dataclass
class PerturbationIntegralSeries:
    """Exterior Green-triple integrals s_j per level for small/semismall tests."""

    kind: str
    levels: list
    values: list
    verdict: bool
    fitted_decay: float
    x0: int

    def rows(self):
        return [{"level": j, "s_j": v} for j, v in zip(self.levels, self.values)]


def perturbation_integrals(op: EllipticOperator, potential: Potential,
                           exhaustion: Exhaustion, x0=None, kind="semismall",
                           seed=0) -> PerturbationIntegralSeries:
    """Levelwise integrals sup_y int_{M_j*} G(x0,z)|V(z)|G(z,y)/G(x0,y) dmu(z).

    kind 'semismall' keeps x fixed at x0; kind 'small' takes the sup over a
    (seeded) sample of at most 48 exterior x as well.  Green values come from
    the final usable exhaustion level, the desk-scale surrogate of the full domain.
    """
    if kind not in ("small", "semismall"):
        raise ValidationError(f"unknown perturbation kind: {kind!r}")
    seed = _check_integer(seed, 0, "seed must be a nonnegative integer")
    ev = HeatKernelEvaluator(op, exhaustion)
    if x0 is None:
        x0 = int(exhaustion[0].labels[0])
    xr, yr = default_reference_pair(exhaustion)
    _require_subcritical(ev.green(xr, yr, tol=1e-6))  # qualitative check
    top = ev.usable_levels()[-1]
    sub = exhaustion[top]
    fac = ev.factor(top)  # symmetric: the top level's block of the evaluator's nested factor
    n = sub.size
    mu = sub.mu
    absv_local = np.abs(potential.values[sub.positions])

    ix0 = sub.local_of(x0)
    g_x0 = fac.green_row(ix0)  # G(x0, .) on the level

    rng = np.random.default_rng(seed)
    levels, values = [], []
    for j in ev.usable_levels():
        if j == top:
            break
        ext_idx = np.flatnonzero(~np.isin(sub.positions, exhaustion[j].positions))
        if not ext_idx.size:
            continue

        def level_value(ix, g_row):
            a = np.zeros(n)
            a[ext_idx] = g_row[ext_idx] * absv_local[ext_idx] * mu[ext_idx]
            if not np.any(a):
                return 0.0
            numer = fac.green_solve(a, "T")  # sum_z a_z G(z, y)
            denom = g_row[ext_idx]
            good = denom > 0.0
            if not np.any(good):
                raise NumericalError("green denominators vanished on the exterior")
            return float(np.max(numer[ext_idx][good] / denom[good]))

        if kind == "semismall":
            s_j = level_value(ix0, g_x0)
        else:
            if ext_idx.size <= 48:
                xs = ext_idx
            else:
                xs = np.sort(rng.choice(ext_idx, size=48, replace=False))
            # the reference point is always sampled, so the small-kind sup
            # dominates the semismall value at every level by construction
            s_j = level_value(ix0, g_x0)
            for ix in xs:
                s_j = max(s_j, level_value(ix, fac.green_row(int(ix))))
        levels.append(j)
        values.append(s_j)
    if not levels:
        raise ValidationError("ambient truncation too small: no nonempty exterior levels")

    vals = np.asarray(values)
    decreasing = bool(np.all(np.diff(vals) <= np.maximum(1e-12 * vals[:-1], 1e-300)))
    positive = vals[vals > 0.0]
    if positive.size >= 2:
        jj = np.asarray([j for j, v in zip(levels, values) if v > 0.0], dtype=float)
        slope = float(np.polyfit(jj, np.log(positive), 1)[0])
    else:
        slope = float("-inf") if decreasing else 0.0
    verdict = decreasing and (vals[-1] == 0.0 or slope < 0.0)
    return PerturbationIntegralSeries(kind, levels, values, verdict, slope, int(x0))


def ground_state_green_comparison(op_alpha: EllipticOperator, phi, y0, region,
                                  exhaustion: Exhaustion,
                                  evaluator: HeatKernelEvaluator = None):
    """Comparability constants (c_low, c_high) of phi against G(., y0) on a region.

    ``phi`` is a vector over the domain's positions, such as a report's
    ground state; a NaN of it on the region makes both constants NaN.  The
    region must avoid the first exhaustion level (the comparison is a
    near-infinity statement).  Rejects operators without a converging Green
    limit, e.g. the critical member of a family.
    """
    region = [int(x) for x in region]
    if not region:
        raise ValidationError("empty comparison region")
    if any(x in exhaustion[0] for x in region):
        raise ValidationError("comparison region must exclude the first exhaustion level")
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (op_alpha.domain.n_vertices,):
        raise ValidationError("phi must be a vertex vector over the domain's positions")
    ev = evaluator or HeatKernelEvaluator(op_alpha, exhaustion)
    greens = []
    for x in region:
        g = ev.green(x, int(y0))
        if g.diverging:
            raise NumericalError(
                "green limit diverges: the operator is critical and admits no Green function")
        if not g.converged:
            raise InconclusiveError(f"green limit inconclusive at x={x}")
        if g.value <= 0.0:
            raise NumericalError(f"nonpositive green value at x={x}")
        greens.append(g.value)
    ratios = phi[op_alpha.domain.positions_of(region)] / np.array(greens)
    return float(np.min(ratios)), float(np.max(ratios))


def edge_weight_domination(op1: EllipticOperator, op0: EllipticOperator, u1, u0):
    """Smallest C with u1+(x)^2 w1(x,y) <= C u0(x)^2 w0(x,y) over all edges.

    With u1 = u0 = 1 this compares the edge weights themselves.  Fails when a
    denominator vanishes where the numerator does not.
    """
    d1, d0 = op1.domain, op0.domain
    if d1.n_vertices != d0.n_vertices or not np.array_equal(d1.labels, d0.labels):
        raise ValidationError("operators must share the vertex set")

    def as_vec(u):
        return d1.vertex_vector(u, "u") if isinstance(u, dict) else np.asarray(u, dtype=float)

    w1 = op1.weights.tocoo()
    num = np.maximum(as_vec(u1), 0.0)[w1.row] ** 2 * w1.data
    den = as_vec(u0)[w1.row] ** 2 * np.asarray(op0.weights[w1.row, w1.col]).ravel()
    vanishing = (den == 0.0) & (num > 0.0)
    if np.any(vanishing):
        k = int(np.argmax(vanishing))
        raise NumericalError(
            f"denominator vanishes on edge ({d1.labels[w1.row[k]]}, {d1.labels[w1.col[k]]}) "
            "where the numerator does not")
    return float(np.max(num[den != 0.0] / den[den != 0.0], initial=0.0))
