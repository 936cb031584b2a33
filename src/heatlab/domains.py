"""Weighted discrete domains, exhaustions and the fixture library.

A domain is a connected graph with a positive vertex measure ``mu`` and
nonnegative directed edge weights ``w``.  Infinite model domains (the 1-d
lattice, the radial half-line) are represented by a large ambient truncation
marked ``truncated=True``; every infinite-domain quantity is then a limit
along an exhaustion of finite subsets lying inside the truncation.

A domain keeps one CSR matrix of w (and one of w^T when w is not symmetric),
built without other copies; an exhaustion level keeps only its positions.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np
import scipy.sparse as sp

from .errors import ValidationError

#: smallest measure value stored for analytically decaying measures; far
#: sites below this are dynamically instantaneous either way, and staying
#: well above the subnormal range keeps LAPACK out of denormal slow paths
MEASURE_FLOOR = 1e-200

DEFAULT_AMBIENT_1D = 4001  # vertices of the 1-d ambient truncation
DEFAULT_RADIAL_POINTS = 1000


class WeightedDomain:
    """Finite vertex set with measure mu(x) > 0 and weights w(x, y) >= 0.

    Parameters
    ----------
    vertices : sequence of int
        Vertex labels; order fixes the internal indexing.
    measure : mapping or array
        Positive measure per vertex.
    edge_weights : mapping (x, y) -> float, or label arrays (x, y, w)
        Nonnegative weight per directed edge; absent pairs are 0.
    truncated : bool
        True when the domain is an ambient truncation of an infinite model
        domain, in which case exhausting it without convergence is reported
        as inconclusive rather than exact.

    The domain keeps ``labels`` (int64, in the given order), ``mu`` and
    ``weights``, the canonical CSR matrix of w (sorted columns, duplicate
    edges summed), built straight from the edge arrays.  It is ``symmetric``
    when w stores exactly as its CSC form, i.e. as w^T; otherwise that form
    is kept as w^T for ``oriented_weights(True)``.  When the labels are
    consecutive integers in order (every built-in fixture), a label's
    position is the label minus the first one; other labels are searched:
    themselves when they are sorted (an edge-list file), else a sorted copy
    and its permutation.

    The domain is a ``path`` when every stored edge joins neighbouring
    positions (every built-in fixture, and an edge-list path listed in label
    order), a flag set once from the nonzeros on the +-1 diagonals of w.  A
    path is connected when each pair of neighbours is linked one way or the
    other; its connected subsets are then its intervals, and ``NestedOrder``
    writes their shells by arithmetic.  No other domain is a path, whatever
    its support graph: a path whose labels are out of position order, or a
    cycle, goes through the graph routes.

    A path on 0, 1, 2 with unit measure and conductances, in the array form::

        hl.WeightedDomain(labels, mu, (x, y, w))
        # labels = [0, 1, 2], mu = [1, 1, 1],
        # x = [0, 1, 1, 2], y = [1, 0, 2, 1], w = [1, 1, 1, 1]
    """

    def __init__(self, vertices, measure, edge_weights, truncated=False, name=""):
        self.labels = np.asarray(
            vertices if isinstance(vertices, np.ndarray) else list(vertices), dtype=np.int64)
        n = self.labels.size
        if n == 0:
            raise ValidationError("domain needs at least one vertex")
        # positions_of subtracts the first of consecutive sorted labels, else
        # searches (permutation, sorted labels): no permutation and no copy
        # when the labels come sorted
        self._first = None
        if np.all(self.labels[1:] > self.labels[:-1]):
            self._label_order = (None, self.labels)
            if int(self.labels[-1]) - int(self.labels[0]) == n - 1:
                self._first = int(self.labels[0])
        else:
            order = np.argsort(self.labels)
            self._label_order = (order, self.labels[order])
            if np.any(np.diff(self._label_order[1]) == 0):
                raise ValidationError("duplicate vertex labels")

        mu = (self.vertex_vector(measure, "measure") if isinstance(measure, dict)
              else np.asarray(measure, dtype=float))
        if mu.shape != (n,):
            raise ValidationError("measure length does not match vertex count")
        if not np.all((mu > 0.0) & np.isfinite(mu)):
            raise ValidationError("measure must be positive and finite on every vertex")
        self.mu = mu
        self.max_mu = float(mu.max())

        self.weights = self._weight_matrix(edge_weights)
        self._weights_t = _transpose(self.weights)
        self.symmetric = self._weights_t is self.weights
        self._out_weights = {}
        self._adjacency = None
        self.truncated = bool(truncated)
        self.name = name

        # where w(p, p + 1) and w(p + 1, p) are stored (no stored entry is 0)
        up, down = (self.weights.diagonal(k) != 0.0 for k in (1, -1))
        self.path = bool(np.count_nonzero(up) + np.count_nonzero(down) == self.weights.nnz)
        if n > 1 and not (np.all(up | down) if self.path else self._connected()):
            raise ValidationError("support graph is not connected")

    def _weight_matrix(self, edge_weights):
        """The canonical CSR matrix of w from a mapping or (x, y, w) label
        arrays; duplicate edges are summed."""
        n = self.labels.size
        try:
            if isinstance(edge_weights, tuple):
                x, y, w = edge_weights
                x, y, w = np.asarray(x, np.int64), np.asarray(y, np.int64), np.asarray(w, float)
            else:
                m = len(edge_weights)
                x, y = np.fromiter(chain.from_iterable(edge_weights), np.int64).reshape(m, 2).T
                w = np.fromiter(edge_weights.values(), float, m)
        except (TypeError, ValueError) as exc:
            raise ValidationError("edges need integer label pairs and numeric weights") from exc
        if x.ndim != 1 or not x.shape == y.shape == w.shape:
            raise ValidationError("edge arrays x, y, w must be 1-d of one length")
        # every check reports the first offending edge, in the given order
        negative, loop = w < 0.0, x == y
        kept = ~loop & (w != 0.0)
        # the CSR's index type, so that scipy keeps the positions uncopied
        index = np.int32 if max(n, w.size) <= np.iinfo(np.int32).max else np.int64
        px = self.positions_of(x).astype(index)
        py = self.positions_of(y).astype(index)
        bad = negative | (loop & (w != 0.0)) | (kept & ((px < 0) | (py < 0)))
        if np.any(bad):
            k = int(np.argmax(bad))
            if negative[k]:
                raise ValidationError(f"negative edge weight at ({x[k]}, {y[k]})")
            if loop[k]:
                raise ValidationError(f"nonzero loop weight at vertex {x[k]}")
            raise ValidationError(f"edge ({x[k]}, {y[k]}) references unknown vertex")
        if not kept.all():
            px, py, w = px[kept], py[kept], w[kept]
        weights = sp.csr_matrix((w, (px, py)), shape=(n, n))
        if not np.all(np.isfinite(weights.data)):
            raise ValidationError("edge weights must be finite")
        return weights

    @property
    def n_vertices(self):
        return int(self.labels.size)

    def positions_of(self, labels):
        """Internal positions of a label or an int64 label array; -1 where a
        label is absent."""
        labels = np.asarray(labels)
        first = self._first
        if first is None:
            order, ordered = self._label_order
            positions = np.asarray(np.searchsorted(ordered, labels))
            np.minimum(positions, ordered.size - 1, out=positions)
            found = ordered[positions] == labels
            if order is not None:
                positions = np.asarray(order[positions])
            positions[~found] = -1
            return positions
        # compared with the range before the first label is subtracted: no
        # label outside it is shifted, so nothing overflows at the int64 ends
        inside = (labels >= first) & (labels <= first + self.labels.size - 1)
        if inside.all():
            return labels.astype(np.intp, copy=False) - first
        positions = np.full(labels.shape, -1, dtype=np.intp)
        positions[inside] = labels[inside].astype(np.intp) - first
        return positions

    def _positions(self, labels, what):
        """Positions of a label or label array; ``what`` names the labels in the
        ValidationError for one outside the domain."""
        try:
            labels = np.asarray(labels, dtype=np.int64)
        except OverflowError:  # no domain has a label outside int64
            raise ValidationError(f"{what} references a vertex label outside int64") from None
        positions = self.positions_of(labels)
        if np.any(positions < 0):
            raise ValidationError(f"{what} references unknown vertex "
                                  f"{np.ravel(labels)[np.argmax(np.ravel(positions) < 0)]}")
        return positions

    def vertex_vector(self, values, what):
        """The vertex vector of a {label: value} mapping; unlisted vertices get 0.
        ``what`` names the mapping in the error for a label outside the domain."""
        try:
            labels = np.fromiter(values, np.int64, len(values))
            vals = np.fromiter(values.values(), float, len(values))
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"{what} needs integer labels and numeric values") from exc
        vec = np.zeros(self.labels.size)
        vec[self._positions(labels, what)] = vals
        return vec

    def measure_of(self, x):
        return float(self.mu[self._positions(int(x), "measure query")])

    def weight(self, x, y):
        px, py = self._positions([int(x), int(y)], "weight query")
        return float(self.weights[px, py])

    def oriented_weights(self, transposed):
        """The weights w, or (``transposed``) w^T, the weights of an adjoint."""
        return self._weights_t if transposed else self.weights

    def out_weights(self, transposed=False):
        """Each vertex's total out-weight under ``oriented_weights(transposed)``:
        the part of every restriction's diagonal that is not D mu."""
        out = self._out_weights.get(transposed)
        if out is None:
            # row by row in storage order (``sum(axis=1)`` takes 8x longer)
            w = self.oriented_weights(transposed)
            out = self._out_weights[transposed] = w @ np.ones(w.shape[1])
        return out

    def total_measure(self, subset=None):
        if subset is None:
            return float(self.mu.sum())
        return float(self.mu[self._positions([int(x) for x in subset], "subset")].sum())

    def _undirected_adjacency(self):
        """The undirected support graph's pattern: w when symmetric, else w + w^T."""
        if self.symmetric:
            return self.weights
        if self._adjacency is None:
            self._adjacency = self.weights + self._weights_t
        return self._adjacency

    def _connected(self, positions=None):
        """True iff the undirected support graph restricted to ``positions``
        (distinct domain positions; None: every vertex) is connected.  On a
        path (connected, as every constructed domain is) a subset is
        connected iff its positions are an interval."""
        if positions is None:
            adj = self._undirected_adjacency()
        else:
            positions = np.asarray(positions, dtype=np.intp)
            if positions.size == 0:
                return False
            lo, hi = positions.min(), positions.max() + 1
            if self.path:
                return bool(hi - lo == positions.size)
            adj = self._undirected_adjacency()
            if hi - lo == positions.size:  # consecutive positions: one copy, or none
                adj = adj if hi - lo == adj.shape[0] else adj[lo:hi, lo:hi]
            else:
                adj = adj[positions][:, positions]
        # adj is symmetric: the vertices reached from the first are its component
        reached = sp.csgraph.breadth_first_order(adj, 0, return_predecessors=False)
        return reached.size == adj.shape[0]

    def __repr__(self):
        return f"WeightedDomain({self.name or 'unnamed'}, n={self.n_vertices})"


class NestedOrder:
    """Level-major vertex order of a nested sequence of levels, grown shell by shell.

    A vertex's primary key is the first level that contains it, so every level
    S_j is a prefix of the order, and the measure form A_{S_j} of an operator
    is the leading n_j x n_j block of the deepest level's.  The first level
    comes in Cuthill-McKee order (George & Liu 1981, ch. 4), which on a path
    in local order is the local order.  Each shell S_j minus S_(j-1) comes
    in breadth-first order from S_(j-1), i.e. by hop distance from it (on
    intervals and balls: from S_0).  That interleaves the two sides of a
    ball's shell and keeps the band narrow: at most 3 on lat1, 1 on rad(d).

    On a symmetric path domain (``WeightedDomain.path``, every level an
    interval) the order and its band are written by arithmetic: the first
    level in position order, then each shell around [a, b) as a - 1, b,
    a - 2, b + 1, ... (one side on rad(d)), each vertex coupled to the one
    before it on its side, with the link weight read from its own CSR row.
    Elsewhere the shell's CSR rows are gathered into a shell graph whose
    breadth-first order is found by scipy, and the first level is reordered
    by reverse Cuthill-McKee.  Both give the same order, band and ranks on a
    path.

    ``grow_to(n)`` appends whole shells until the order holds n vertices, so
    it covers only the levels asked for.  ``positions`` (domain positions in
    the order) and ``band`` (the strict upper band of -W in the order, ``kd``
    rows of LAPACK upper banded storage) cover ``size`` vertices.
    ``tridiagonal`` is the length of the leading run of columns whose only
    band entry is at distance 1, so that the leading block of that size is
    tridiagonal: the whole order on rad(d), about 3 columns on lat1, a few on
    balls of a grid.  It is final once it falls short of ``size``.  The
    weights must be symmetric.  An order made with ``ranked=False`` (a
    level's own) keeps no ranks and serves no ``index_of``.
    """

    def __init__(self, domain, levels, ranked=True):
        self.domain = domain
        self.levels = levels
        self.sizes = [level.size for level in levels]
        self.depth = 0  # levels covered
        self.positions = np.zeros(0, dtype=np.intp)
        self.band = np.zeros((0, 0))
        self.tridiagonal = 0
        # domain position -> index in the order; -1 if not in it yet
        self._rank = np.full(domain.n_vertices, -1, dtype=np.intp) if ranked else None
        self._lock = threading.Lock()

    @property
    def size(self):
        return int(self.positions.size)

    @property
    def kd(self):
        return self.band.shape[0]

    def index_of(self, p):
        """Index of domain position p in the order; -1 if not in it yet.  Only
        an exhaustion's order keeps the ranks (``IndexedSubdomain.order``)."""
        return int(self._rank[p])

    def grow_to(self, n):
        """Append shells until the order holds at least n vertices."""
        with self._lock:
            while self.size < n and self.depth < len(self.levels):
                self._append(self.levels[self.depth])
                self.depth += 1

    def _append(self, level):
        start = self.size
        shell = self._path_shell if self.domain.path and self.domain.symmetric else self._shell
        new, column, partner, value = shell(level, start)
        offset = column - partner
        kd = max(self.kd, int(offset.max(initial=0)))
        band = np.zeros((kd, start + new.size))
        band[kd - self.kd:, :start] = self.band
        band[kd - offset, column] = -value
        self.band = band
        if self.tridiagonal == start:  # up to the first column with an entry above distance 1
            wide = np.flatnonzero(band[:-1, start:].any(axis=0))
            self.tridiagonal = start + int(wide[0]) if wide.size else band.shape[1]
        self.positions = np.concatenate((self.positions, new)) if start else new

    def _path_shell(self, level, start):
        """(the level's new vertices in order; then, for each new vertex coupled
        to one earlier in the order, the two indices and their weight) on an
        interval level of a symmetric path domain."""
        data, indptr = self.domain.weights.data, self.domain.weights.indptr
        if not start:  # the first level in position order: w(v, v - 1) begins v's CSR row
            new = level.positions
            if self._rank is not None:
                self._rank[new] = np.arange(new.size)
            column = np.arange(1, new.size)
            return new, column, column - 1, data[indptr[new[1:]]]
        # around the previous level [a, b): a - 1, b, a - 2, b + 1, ..., each
        # coupled to its neighbour towards [a, b)
        previous = self.levels[self.depth - 1]
        a, b, hi = previous._lo, previous._lo + previous.size, level._lo + level.size
        left, right = np.arange(a - 1, level._lo - 1, -1), np.arange(b, hi)
        m = min(left.size, right.size)
        new = np.concatenate((np.column_stack((left[:m], right[:m])).ravel(),
                              left[m:], right[m:]))
        column = start + np.arange(new.size)
        self._rank[new] = column
        inward = new < a
        partner = self._rank[np.where(inward, new + 1, new - 1)]
        # w(v, v + 1) ends v's CSR row
        return new, column, partner, data[np.where(inward, indptr[new + 1] - 1, indptr[new])]

    def _shell(self, level, start):
        """``_path_shell`` on any domain: breadth-first order on the shell graph
        (Cuthill-McKee on the first level), couplings from the CSR rows.  An
        unranked order's ranks live only while its one level is appended."""
        rank = self._rank if self._rank is not None else np.full(
            self.domain.n_vertices, -1, dtype=np.intp)
        shell = level.positions[rank[level.positions] < 0]
        count, col, value = _csr_rows(self.domain.weights, shell)
        row = np.repeat(np.arange(shell.size), count)  # the entries' shell vertices
        if not start:  # the whole first level: Cuthill-McKee's order of its shell indices
            order = sp.csgraph.reverse_cuthill_mckee(
                self.domain.weights[shell][:, shell], symmetric_mode=True)[::-1]
        else:
            # breadth-first order of the shell from node 0, the previous level
            rank[shell] = -2 - np.arange(shell.size)  # -1 stays outside the level
            near = rank[col]
            within = near <= -2
            first = np.flatnonzero(np.bincount(row[near >= 0], minlength=shell.size)) + 1
            indptr = np.cumsum(np.concatenate((
                [0, first.size], np.bincount(row[within], minlength=shell.size))))
            graph = sp.csr_matrix(
                (np.ones(indptr[-1]), np.concatenate((first, -1 - near[within])), indptr),
                shape=(shell.size + 1, shell.size + 1))
            order = sp.csgraph.breadth_first_order(graph, 0, return_predecessors=False)[1:] - 1
        rank[shell[order]] = start + np.arange(shell.size)
        column, partner = rank[shell][row], rank[col]
        upper = (partner >= 0) & (partner < column)
        return shell[order], column[upper], partner[upper], value[upper]


def _transpose(matrix):
    """The transpose of a canonical CSR matrix, as CSR, or the matrix itself
    when it is symmetric: canonical storage is unique, so that is when the
    matrix stores exactly as its CSC form, whose arrays are the transpose's."""
    t = matrix.tocsc()
    if all(np.array_equal(getattr(matrix, part), getattr(t, part))
           for part in ("indptr", "indices", "data")):
        return matrix
    return sp.csr_matrix((t.data, t.indices, t.indptr), shape=matrix.shape[::-1])


def _csr_rows(matrix, rows):
    """(entries per row, columns, values) of the given rows of a CSR matrix,
    concatenated in the order of ``rows``."""
    first = matrix.indptr[rows]
    count = matrix.indptr[rows + 1] - first
    take = np.repeat(first - np.cumsum(count) + count, count) + np.arange(count.sum())
    return count, matrix.indices[take], matrix.data[take]


class IndexedSubdomain:
    """A connected vertex subset with a bijective local indexing.

    Operators restricted to the subset impose Dirichlet (absorbing)
    conditions outside of it: the restricted action matrix is the principal
    submatrix of the full one, so edges leaving the subset become pure
    absorption.  The subset keeps only its domain positions, sorted; its
    ``labels`` and ``mu`` are read through the domain, and an operator
    assembles its sparse restriction where that is read
    (``EllipticOperator.measure_form``).  When the positions are an interval
    (every level of the path fixtures), a position's local index is its
    offset from the first; otherwise positions are searched.  On a path
    domain connectivity is the interval test itself; elsewhere it is checked
    on the support graph's block or induced subgraph.
    """

    def __init__(self, domain: WeightedDomain, subset):
        labels = np.asarray(
            subset if isinstance(subset, np.ndarray) else list(subset)).astype(np.int64, copy=False)
        if not labels.size:
            raise ValidationError("empty subset")
        if not np.all(labels[1:] > labels[:-1]):
            labels = np.unique(labels)  # sorted, without duplicates
        positions = domain.positions_of(labels)
        missing = labels[positions < 0]
        if missing.size:
            raise ValidationError(f"subset vertices not in domain: {missing[:5].tolist()}")
        self.domain = domain
        # sorted labels sit at sorted positions unless the domain's labels are unsorted
        self.positions = positions if domain._label_order[0] is None else np.sort(positions)
        lo = int(self.positions[0])
        # the first position when the positions are an interval, else None
        self._lo = lo if int(self.positions[-1]) - lo == self.positions.size - 1 else None
        if not domain._connected(self.positions):
            raise ValidationError("subset is not connected in the support graph")

    @property
    def size(self):
        return int(self.positions.size)

    @property
    def labels(self):
        """The vertex labels in local (position) order."""
        return self.domain.labels[self.positions]

    @property
    def mu(self):
        return self.domain.mu[self.positions]

    @functools.cached_property
    def order(self) -> NestedOrder:
        """The subset's own one-level ``NestedOrder`` (symmetric weights): the
        order of its standalone and shifted Cholesky factors, grown whole.  It
        keeps no domain-sized ranks (only an exhaustion's order serves
        ``index_of``), and on a path its positions are the level's own."""
        order = NestedOrder(self.domain, [self], ranked=False)
        order.grow_to(self.size)
        return order

    def _edges(self, transposed=False):
        """The stored edges of the subset's vertices under w (``transposed``:
        w^T) as (local row, local column, weight) arrays, row by row; the
        column is -1 where an edge leaves the subset."""
        count, col, value = _csr_rows(self.domain.oriented_weights(transposed), self.positions)
        return np.repeat(np.arange(self.size), count), self.local_indices(col), value

    def local_indices(self, positions):
        """Local indices of domain positions (-1 allowed); -1 where a position
        is outside the subset."""
        positions = np.asarray(positions)
        if self._lo is not None:
            local = np.asarray(positions - self._lo)
            local[(local < 0) | (local >= self.size)] = -1
            return local
        pos = self.positions
        local = np.minimum(np.searchsorted(pos, positions), pos.size - 1)
        return np.where(pos[local] == positions, local, -1)

    def _local(self, x):
        """Local index of label x, or -1 when x is not in the subset."""
        return int(self.local_indices(self.domain.positions_of(int(x))))

    def local_of(self, x):
        i = self._local(x)
        if i < 0:
            raise ValidationError(f"vertex {x} is outside the subdomain")
        return i

    def __contains__(self, x):
        return self._local(x) >= 0

    def __repr__(self):
        return f"IndexedSubdomain(n={self.size})"


def restrict(domain: WeightedDomain, subset) -> IndexedSubdomain:
    """Dirichlet restriction of ``domain`` to ``subset`` (absorbing exterior)."""
    return IndexedSubdomain(domain, subset)


def _within(inner: IndexedSubdomain, outer: IndexedSubdomain):
    """True iff every vertex of ``inner`` is in ``outer``: when outer's positions
    are an interval, iff it contains inner's first and last position."""
    lo = outer._lo
    if lo is not None:
        return bool(lo <= inner.positions[0] and inner.positions[-1] < lo + outer.size)
    return bool(np.all(outer.local_indices(inner.positions) >= 0))


class Exhaustion:
    """Strictly increasing sequence of finite connected vertex subsets; each
    level must contain the previous one, which is a range test when the level's
    positions are an interval (every path fixture) and a search otherwise."""

    def __init__(self, domain: WeightedDomain, subsets):
        self.domain = domain
        self.levels = []
        previous = None
        for j, subset in enumerate(subsets):
            sub = IndexedSubdomain(domain, subset)
            if previous is not None and not (sub.size > previous.size and _within(previous, sub)):
                raise ValidationError(f"exhaustion level {j + 1} does not strictly contain level {j}")
            self.levels.append(sub)
            previous = sub
        if not self.levels:
            raise ValidationError("exhaustion needs at least one level")
        self._nested = None

    def nested_order(self) -> NestedOrder:
        """The exhaustion's level-major vertex order, shared by every operator on
        it and grown only as deep as some factor needs (symmetric weights)."""
        if self._nested is None:
            self._nested = NestedOrder(self.domain, self.levels)
        return self._nested

    def __len__(self):
        return len(self.levels)

    def __getitem__(self, j) -> IndexedSubdomain:
        return self.levels[j]

    def __iter__(self):
        return iter(self.levels)

    def first_level_containing(self, *vertices):
        for j, level in enumerate(self.levels):
            if all(int(x) in level for x in vertices):
                return j
        raise ValidationError(f"vertices {vertices} are not all contained in any exhaustion level")


@dataclass
class DomainFixture:
    """A named domain with its exhaustion."""

    name: str
    domain: WeightedDomain
    exhaustion: Exhaustion

    def __repr__(self):
        return f"DomainFixture({self.name!r}, n={self.domain.n_vertices}, levels={len(self.exhaustion)})"


def _doubling_radii(max_radius, penultimate=None):
    """Doubling radii capped at max_radius; optionally force a given
    second-to-last radius (the deepest strictly interior level)."""
    radii = []
    r = 1
    stop = penultimate if penultimate is not None else max_radius
    while r < stop:
        radii.append(r)
        r *= 2
    radii.append(stop)
    if penultimate is not None and max_radius > penultimate:
        radii.append(max_radius)
    return sorted(set(radii))


def _pow(base, exponent):
    """Elementwise base ** exponent (each a scalar or a 1-d array) by C's pow,
    the fixtures' documented arithmetic: ``math.pow`` on float exponents,
    which is Python's scalar power on a finite positive base; NumPy's
    vectorised power (and even ``x * x`` for a general x) can differ from it
    in the last bit.

    Where that power is exact it is computed as a product instead: for an
    integer exponent 0 <= k <= 53 and bases that are all multiples of 1/2
    with (2 max|base|)^k <= 2^53, each partial product b^j = m 2^-j has an
    integer |m| = |2b|^j <= 2^53, hence is a float, so every multiplication
    is exact.  pow rounds once, to nearest, an internal result far closer
    than half a float spacing to the true one, and an exact value lies half
    a spacing from every rounding boundary, so pow returns these same bits.
    ``rad(d)`` at unit step takes this route up to about 4.7e7 points for
    d = 3 and 1e5 for d = 4; other steps, and lat1_geo's q^|n|, take pow."""
    base, exponent = np.asarray(base, dtype=float), np.asarray(exponent, dtype=float)
    if exponent.ndim == 0 and exponent.item().is_integer() and 0 <= exponent <= 53:
        k, twice = int(exponent), 2.0 * base
        top = np.abs(twice).max(initial=0.0)
        halves = np.isfinite(top) and np.array_equal(twice, np.floor(twice))
        if halves and int(top) ** k <= 2 ** 53:  # in integers: a float test would round
            power = np.ones(base.size)  # the shape pow's route returns
            for _ in range(k):
                power *= base
            return power
    size = np.broadcast(base, exponent).size
    sides = (a.tolist() if a.ndim else repeat(a.item()) for a in (base, exponent))
    return np.fromiter(map(math.pow, *sides), float, size)


def _path_edges(vertices, w):
    """(x, y, w) arrays of the path through ``vertices``: both directions of the
    edge between vertices k and k+1 carry w[k] (or the scalar w)."""
    w = np.broadcast_to(np.asarray(w, dtype=float), vertices[1:].shape)
    return (np.concatenate((vertices[:-1], vertices[1:])),
            np.concatenate((vertices[1:], vertices[:-1])), np.concatenate((w, w)))


def build_lattice_1d(n_half, measure_rule="unit", q=None) -> DomainFixture:
    """1-d lattice truncation on {-n_half, ..., n_half} with nearest-neighbor edges.

    ``measure_rule`` is 'unit' (mu = 1) or 'geometric' (mu(n) = q^|n|, 0 < q < 1).
    The exhaustion consists of centered intervals whose radius doubles per
    level and ends at the full truncation.
    """
    n_half = int(n_half)
    if n_half < 2:
        raise ValidationError("n_half must be >= 2: the exhaustion needs at least two levels")
    if measure_rule == "unit":
        if q is not None:
            raise ValidationError("q is only meaningful for the geometric measure rule")
        name = "lat1"
    elif measure_rule == "geometric":
        if q is None or not (0.0 < q < 1.0):
            raise ValidationError("geometric measure rule needs 0 < q < 1")
        name = f"lat1_geo({q:g})"
    else:
        raise ValidationError(f"unknown measure rule: {measure_rule!r}")

    vertices = np.arange(-n_half, n_half + 1)
    if measure_rule == "unit":
        measure = np.ones(vertices.size)
    else:
        # q^|n| < MEASURE_FLOOR past `near`: only the vertices inside need the power
        near = min(int(np.log(MEASURE_FLOOR) / np.log(q)) + 2, n_half)
        measure = np.full(vertices.size, MEASURE_FLOOR)
        inner = slice(n_half - near, n_half + near + 1)
        measure[inner] = np.maximum(_pow(q, np.abs(vertices[inner])), MEASURE_FLOOR)
    domain = WeightedDomain(vertices, measure, _path_edges(vertices, 1.0),
                            truncated=True, name=name)

    # deepest Dirichlet level at n_half - 1; the full truncation is the
    # formal top level (closed, so kernel limits never certify on it)
    radii = _doubling_radii(n_half, penultimate=max(n_half - 1, 1))
    exhaustion = Exhaustion(domain, (np.arange(-r, r + 1) for r in radii))
    return DomainFixture(name, domain, exhaustion)


def build_radial(dimension_d, n_points=DEFAULT_RADIAL_POINTS, step_h=1.0) -> DomainFixture:
    """Discrete radial half-line analog of the Laplacian on R^d.

    Vertices sit at r_i = i*h for i = 1..n_points with cell measure
    mu(i) = r_i^(d-1) * h and conductances w(i, i+1) = ((r_i + r_{i+1})/2)^(d-1) / h.
    The outer end is absorbing through a ghost boundary vertex at
    r = (n_points+1)*h; the inner end is free (no edge below r = h), which is
    the faithful analog of the origin being polar: the chain is then
    transient for d >= 3 and recurrent for d <= 2.  The exhaustion consists
    of the initial segments {1..r} with doubling r.
    """
    d = int(dimension_d)
    n = int(n_points)
    h = float(step_h)
    if d < 2:
        raise ValidationError("dimension must be >= 2")
    if h <= 0:
        raise ValidationError("step must be positive")
    if n < 10:
        raise ValidationError("n_points must be >= 10")

    vertices = np.arange(1, n + 2)  # n+1 is the absorbing ghost ring
    radius = vertices * h
    measure = _pow(radius, d - 1) * h
    w = _pow((radius[:-1] + radius[1:]) / 2.0, d - 1) / h
    name = f"rad({d})"
    domain = WeightedDomain(vertices, measure, _path_edges(vertices, w), truncated=True, name=name)

    radii = [r for r in _doubling_radii(n) if r >= 2] or [n]
    exhaustion = Exhaustion(domain, (np.arange(1, r + 1) for r in radii))
    return DomainFixture(name, domain, exhaustion)


def single_vertex_domain():
    """One-vertex closed domain 'point' with mu = 1; handy for scalar closed forms."""
    domain = WeightedDomain([0], {0: 1.0}, {}, name="point")
    return DomainFixture("point", domain, Exhaustion(domain, [[0]]))


def closed_path_domain(n_vertices):
    """Closed finite path 'closed_path' on 0..n_vertices-1 with mu = 1 and unit
    conductances (no absorbing exterior); conserves mass when D = 0."""
    vertices = np.arange(n_vertices)
    domain = WeightedDomain(vertices, np.ones(vertices.size), _path_edges(vertices, 1.0),
                            name="closed_path")
    return DomainFixture("closed_path", domain, Exhaustion(domain, [vertices]))


def load_edge_list(path):
    """Read a domain from a text file: `x y w` per directed edge, `x mu` per vertex.

    Lines with three tokens are edges, lines with two tokens are vertex
    measures; blank lines and `#` comments are ignored.  Every vertex must
    carry a measure line, and no edge or vertex may be given twice.  The
    domain is finite and named after ``path``.
    """
    measures = {}
    edges = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            try:
                if len(parts) == 2:
                    table, key, what = measures, int(parts[0]), "measure line for vertex"
                elif len(parts) == 3:
                    table, key, what = edges, (int(parts[0]), int(parts[1])), "edge"
                else:
                    raise ValueError
                value = float(parts[-1])
            except ValueError as exc:
                raise ValidationError(f"{path}:{lineno}: cannot parse {raw.strip()!r}") from exc
            if key in table:
                raise ValidationError(f"{path}:{lineno}: repeated {what} {key}")
            table[key] = value
    if not measures:
        raise ValidationError(f"{path}: no vertex measure lines found")
    for (x, y) in edges:
        if x not in measures or y not in measures:
            raise ValidationError(f"{path}: edge ({x}, {y}) references vertex without a measure line")
    return WeightedDomain(sorted(measures), measures, edges, name=str(path))


def ball_exhaustion(domain: WeightedDomain, center=None):
    """Exhaustion by breadth-first balls around ``center`` with doubling radius."""
    if center is None:
        center = int(domain.labels[0])
    adj = domain._undirected_adjacency()
    dist = sp.csgraph.shortest_path(adj, method="D", unweighted=True,
                                    indices=domain._positions(int(center), "ball center"))
    dist = np.asarray(dist).ravel()
    max_r = int(dist[np.isfinite(dist)].max())
    radii = _doubling_radii(max_r) if max_r > 0 else [0]
    subsets = []
    seen = None
    for r in radii:
        ball = domain.labels[dist <= r].tolist()
        if seen is not None and len(ball) == len(seen):
            continue
        subsets.append(ball)
        seen = ball
    return Exhaustion(domain, subsets)


def fixture(spec, ambient_size=None) -> DomainFixture:
    """Resolve a fixture name such as 'lat1', 'lat1_geo(0.5)', 'rad(3)' or a file path.

    ``ambient_size`` overrides the vertex count of the ambient truncation
    (number of vertices for 1-d lattices, number of interior points for the
    radial family).
    """
    spec = str(spec).strip()
    if ambient_size is None:
        ambient_size = DEFAULT_RADIAL_POINTS if spec.startswith("rad(") else DEFAULT_AMBIENT_1D
    n_half = (int(ambient_size) - 1) // 2
    if spec == "lat1":
        return build_lattice_1d(n_half, "unit")
    if spec.startswith("lat1_geo(") and spec.endswith(")"):
        try:
            q = float(spec[len("lat1_geo("):-1])
        except ValueError as exc:
            raise ValidationError(f"cannot parse fixture {spec!r}") from exc
        return build_lattice_1d(n_half, "geometric", q=q)
    if spec.startswith("rad(") and spec.endswith(")"):
        try:
            d = int(spec[len("rad("):-1])
        except ValueError as exc:
            raise ValidationError(f"cannot parse fixture {spec!r}") from exc
        return build_radial(d, n_points=int(ambient_size))
    import os

    if os.path.exists(spec):
        domain = load_edge_list(spec)
        return DomainFixture(spec, domain, ball_exhaustion(domain))
    raise ValidationError(f"unknown fixture: {spec!r}")
