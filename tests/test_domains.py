"""Domain, exhaustion and fixture construction.

Claims:
    - lattice and radial builders realize the documented weights and measures
    - geometric-measure partial sums match the closed form per level
    - restriction validates connectivity and supports the identity case
    - on path domains the nested orders written by arithmetic equal the
      generic graph route's bit for bit, and connectivity is a range test
    - invariant violations are rejected at construction, with the same
      message for mapping and array edges
    - the path fixtures are bit-identical to their formulas built edge by edge,
      and the radial ones call pow only where a product of floats could round
    - a nested order does not depend on how its growth was split
    - edge-list files round-trip, and reject a repeated edge or measure line
    - every array a domain and its levels keep matches a pinned digest of its
      bytes, dtype and shape
"""

import hashlib
import importlib.util
import math
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import heatlab as hl
from heatlab.criticality import default_reference_pair
from heatlab.domains import (
    MEASURE_FLOOR,
    NestedOrder,
    _path_edges,
    ball_exhaustion,
    closed_path_domain,
    load_edge_list,
)

from conftest import build_scrambled_grid


def test_lat1_small_counts():
    fx = hl.build_lattice_1d(2, "unit")
    d = fx.domain
    assert d.n_vertices == 5
    assert np.all(d.mu == 1.0)
    assert d.weights.nnz == 8
    assert d.weights.sum() == 8.0
    assert d.symmetric and d.truncated


def test_lat1_geo_measures():
    fx = hl.build_lattice_1d(2, "geometric", q=0.5)
    mu = {int(x): fx.domain.measure_of(x) for x in fx.domain.labels}
    assert mu == {-2: 0.25, -1: 0.5, 0: 1.0, 1: 0.5, 2: 0.25}
    assert fx.domain.total_measure() == pytest.approx(2.5, abs=0)


def test_geo_total_measure_approaches_three():
    fx = hl.build_lattice_1d(2000, "geometric", q=0.5)
    assert fx.domain.total_measure() == pytest.approx(3.0, abs=1e-12)


def test_geo_level_measure_closed_form():
    q = 0.5
    fx = hl.build_lattice_1d(64, "geometric", q=q)
    for sub in fx.exhaustion:
        r = int(sub.labels.max())
        expected = 1.0 + 2.0 * (q - q ** (r + 1)) / (1.0 - q)
        assert fx.domain.total_measure(sub.labels) == pytest.approx(expected, rel=1e-14)


def test_geo_measure_floor_keeps_positivity():
    fx = hl.build_lattice_1d(1200, "geometric", q=0.5)
    assert fx.domain.mu.min() >= MEASURE_FLOOR
    assert np.all(fx.domain.mu > 0.0)


def test_radial_weights_and_measure():
    fx = hl.build_radial(3, n_points=10, step_h=1.0)
    d = fx.domain
    for i in range(1, 11):
        assert d.measure_of(i) == pytest.approx(i**2)
        assert d.weight(i, i + 1) == pytest.approx((i + 0.5) ** 2)
        assert d.weight(i + 1, i) == pytest.approx((i + 0.5) ** 2)
    # no edge below the innermost point: the origin is polar
    assert d.weight(1, 2) > 0.0
    assert d.positions_of(0) == -1


def test_radial_step_scaling():
    h = 0.5
    fx = hl.build_radial(2, n_points=12, step_h=h)
    assert fx.domain.measure_of(3) == pytest.approx((3 * h) ** 1 * h)
    assert fx.domain.weight(3, 4) == pytest.approx(((3 * h + 4 * h) / 2) / h)


@pytest.mark.parametrize("bad", [dict(dimension_d=1, n_points=20),
                                 dict(dimension_d=3, n_points=5),
                                 dict(dimension_d=3, n_points=20, step_h=0.0)])
def test_radial_rejects(bad):
    with pytest.raises(hl.ValidationError):
        hl.build_radial(**bad)


def test_lattice_rejects_small_and_bad_measure():
    with pytest.raises(hl.ValidationError):
        hl.build_lattice_1d(1, "unit")
    with pytest.raises(hl.ValidationError):
        hl.build_lattice_1d(4, "geometric", q=1.5)


def test_restrict_cases():
    fx = hl.build_lattice_1d(2, "unit")
    single = hl.restrict(fx.domain, [0])
    assert single.size == 1
    middle = hl.restrict(fx.domain, [-1, 0, 1])
    assert middle.size == 3
    full = hl.restrict(fx.domain, fx.domain.labels)
    assert full.size == 5


def test_restrict_rejects_disconnected_and_empty():
    fx = hl.build_lattice_1d(4, "unit")
    with pytest.raises(hl.ValidationError):
        hl.restrict(fx.domain, [-2, 2])
    with pytest.raises(hl.ValidationError):
        hl.restrict(fx.domain, [])
    with pytest.raises(hl.ValidationError):
        hl.restrict(fx.domain, [99])


def test_restrict_matches_label_lookup_on_unordered_labels():
    # labels stored out of order: positions are places in the given label
    # order, local indices follow the domain's order, duplicates collapse
    rng = np.random.default_rng(8)
    labels = rng.permutation(np.arange(-20, 20) * 3)
    edges = {}
    for a, b in zip(labels[:-1], labels[1:]):
        edges[(int(a), int(b))] = edges[(int(b), int(a))] = 1.0
    domain = hl.WeightedDomain(labels, np.ones(labels.size), edges)
    subset = [int(x) for x in labels[5:17]] + [int(labels[9])]
    sub = hl.restrict(domain, set(subset))
    expected = sorted(labels.tolist().index(x) for x in set(subset))
    assert sub.positions.tolist() == expected
    assert sub.labels.tolist() == [int(labels[i]) for i in expected]
    for x in subset:
        assert x in sub and sub.labels[sub.local_of(x)] == x
    assert int(labels[4]) not in sub and 1 not in sub
    with pytest.raises(hl.ValidationError, match=r"not in domain: \[1, 4\]"):
        hl.restrict(domain, subset + [4, 1])
    with pytest.raises(hl.ValidationError, match="level 2 does not strictly contain level 1"):
        hl.Exhaustion(domain, [labels[5:17], labels[6:19]])


def test_exhaustion_strict_nesting_and_connectivity():
    fx = hl.build_lattice_1d(16, "unit")
    levels = fx.exhaustion.levels
    for a, b in zip(levels, levels[1:]):
        sa, sb = set(a.labels.tolist()), set(b.labels.tolist())
        assert sa < sb
    with pytest.raises(hl.ValidationError):
        hl.Exhaustion(fx.domain, [[-1, 0, 1], [-1, 0, 1]])
    with pytest.raises(hl.ValidationError):
        hl.Exhaustion(fx.domain, [[0], [-2, 2]])
    # a disconnected level inside the connected domain, and larger levels that
    # miss a vertex of the previous one
    with pytest.raises(hl.ValidationError, match="subset is not connected"):
        hl.Exhaustion(fx.domain, [[0, 1], [0, 1, 3]])
    # interval levels that stick out of the next on either side, or miss it
    for levels in ([[-1, 0], [0, 1, 2]], [[1, 2], [-1, 0, 1]], [[5, 6], [-1, 0, 1]]):
        with pytest.raises(hl.ValidationError, match="level 2 does not strictly contain level 1"):
            hl.Exhaustion(fx.domain, levels)
    with pytest.raises(hl.ValidationError, match="level 3 does not strictly contain level 2"):
        hl.Exhaustion(fx.domain, [[0], [-1, 0, 1], [0, 1, 2, 3]])


def test_domain_invariant_violations():
    with pytest.raises(hl.ValidationError):
        hl.WeightedDomain([0, 1], {0: 1.0, 1: 0.0}, {(0, 1): 1.0, (1, 0): 1.0})
    with pytest.raises(hl.ValidationError):
        hl.WeightedDomain([0, 1], {0: 1.0, 1: 1.0}, {(0, 1): -1.0})
    with pytest.raises(hl.ValidationError):
        hl.WeightedDomain([0, 1], {0: 1.0, 1: 1.0}, {(0, 0): 2.0})
    with pytest.raises(hl.ValidationError):
        hl.WeightedDomain([0, 1, 2], {i: 1.0 for i in range(3)}, {(0, 1): 1.0, (1, 0): 1.0})
    for labels in ([0, 1, 0], [3, 1, 2, 1]):
        with pytest.raises(hl.ValidationError, match="duplicate vertex labels"):
            hl.WeightedDomain(labels, np.ones(len(labels)), {})


def test_edge_list_roundtrip(tmp_path):
    path = tmp_path / "graph.txt"
    path.write_text(
        "# a little triangle with a tail\n"
        "0 1.0\n1 2.0\n2 0.5\n3 1.0\n"
        "0 1 1.0\n1 0 1.0\n1 2 0.25\n2 1 0.25\n2 3 1.5\n3 2 1.5\n")
    domain = load_edge_list(path)
    assert domain.n_vertices == 4
    assert domain.measure_of(2) == 0.5
    assert domain.weight(2, 3) == 1.5
    ex = ball_exhaustion(domain, center=0)
    assert set(ex[len(ex) - 1].labels.tolist()) == {0, 1, 2, 3}


def test_edge_list_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("0 1.0\n0 1 1.0 7\n")
    with pytest.raises(hl.ValidationError):
        load_edge_list(bad)
    missing = tmp_path / "missing.txt"
    missing.write_text("0 1.0\n0 1 1.0\n1 0 1.0\n")
    with pytest.raises(hl.ValidationError):
        load_edge_list(missing)


@pytest.mark.parametrize("repeat, message", [
    ("0 1 5.0\n", r"graph.txt:6: repeated edge \(0, 1\)"),
    ("1 2.0\n", "graph.txt:6: repeated measure line for vertex 1"),
])
def test_edge_list_rejects_a_repeated_line(tmp_path, repeat, message):
    # unchecked, the later line would override the first: w(0, 1) = 5, mu(1) = 2
    path = tmp_path / "graph.txt"
    path.write_text("0 1.0\n1 1.0\n# the edge both ways\n0 1 1.0\n1 0 1.0\n" + repeat)
    with pytest.raises(hl.ValidationError, match=message):
        load_edge_list(path)


def test_fixture_resolver():
    assert hl.fixture("lat1", ambient_size=65).domain.n_vertices == 65
    assert hl.fixture("lat1_geo(0.25)", ambient_size=33).name == "lat1_geo(0.25)"
    assert hl.fixture("rad(4)", ambient_size=50).domain.n_vertices == 51
    with pytest.raises(hl.ValidationError):
        hl.fixture("nonsense")


def _lattice_case(spec, n_half, q=None):
    labels = range(-n_half, n_half + 1)
    mu = [1.0 if q is None else max(q ** abs(n), MEASURE_FLOOR) for n in labels]
    return hl.fixture(spec, ambient_size=2 * n_half + 1), labels, mu, [1.0] * (2 * n_half)


def _radial_case(d, n, h):
    labels = range(1, n + 2)
    mu = [(i * h) ** (d - 1) * h for i in labels]
    w = [((i * h + (i + 1) * h) / 2.0) ** (d - 1) / h for i in range(1, n + 1)]
    return hl.build_radial(d, n, step_h=h), labels, mu, w


PATH_FIXTURES = {
    "lat1": lambda: _lattice_case("lat1", 20),
    "lat1_geo(0.5)": lambda: _lattice_case("lat1_geo(0.5)", 800, 0.5),
    "lat1_geo(0.3)": lambda: _lattice_case("lat1_geo(0.3)", 800, 0.3),
    "rad(2)": lambda: _radial_case(2, 300, 1.0),
    "rad(3)": lambda: _radial_case(3, 300, 1.0),
    "rad(3),h=0.37": lambda: _radial_case(3, 300, 0.37),
    # (2 max r)^(d - 1) <= 2^53 bounds the powers taken as products: rad(5)
    # takes them for mu and w at 4000, for w alone at 4870, for neither at 6000
    "rad(4)": lambda: _radial_case(4, 2000, 1.0),
    "rad(5)@4000": lambda: _radial_case(5, 4000, 1.0),
    "rad(5)@4870": lambda: _radial_case(5, 4870, 1.0),
    "rad(5)@6000": lambda: _radial_case(5, 6000, 1.0),
    "closed_path": lambda: (closed_path_domain(17), range(17), [1.0] * 17, [1.0] * 16),
}


@pytest.mark.parametrize("case", list(PATH_FIXTURES))
def test_path_fixture_is_bit_identical_to_its_formulas(case):
    # reference: mu[k] on labels[k] and w[k] on both directions of the edge
    # between labels k and k+1, in Python scalar arithmetic, mapping form
    fx, labels, mu, w = PATH_FIXTURES[case]()
    labels = list(labels)
    edges = {}
    for a, b, wk in zip(labels[:-1], labels[1:], w):
        edges[(a, b)] = edges[(b, a)] = wk
    ref = hl.WeightedDomain(labels, dict(zip(labels, mu)), edges)
    assert np.array_equal(fx.domain.labels, ref.labels)
    assert np.array_equal(fx.domain.mu, ref.mu)
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(fx.domain.weights, part), getattr(ref.weights, part))


@pytest.mark.parametrize("d, n, h, calls", [
    (3, 100000, 1.0, 0),
    (5, 4870, 1.0, 4871),  # the n + 1 measures: (2 (n + 1))^4 > 2^53 >= (2n + 1)^4
    (5, 6000, 1.0, 12001),
    (3, 300, 0.37, 601),  # radii that are no multiples of 1/2
])
def test_radial_powers_call_pow_only_where_a_product_could_round(d, n, h, calls, monkeypatch):
    # the powers taken as products are exact, so pow would return the same
    # bits; every other power is still one pow per element
    seen = []
    scalar_pow = math.pow

    def spy(x, y):
        seen.append(x)
        return scalar_pow(x, y)

    monkeypatch.setattr(math, "pow", spy)
    hl.build_radial(d, n, step_h=h)
    assert len(seen) == calls


@pytest.mark.parametrize("edges, message", [
    # zero-weight edges are skipped, loops and unknown vertices included
    ({(7, 8): 0.0, (1, 1): 0.0, (0, 1): 1.0, (1, 0): -1.0, (2, 2): 1.0},
     r"negative edge weight at \(1, 0\)"),
    ({(0, 1): 1.0, (2, 2): 1.0, (1, 0): -1.0}, "nonzero loop weight at vertex 2"),
    ({(0, 1): 1.0, (0, 9): 1.0, (1, 0): -1.0}, r"edge \(0, 9\) references unknown vertex"),
])
def test_edge_errors_agree_between_mapping_and_array_forms(edges, message):
    x, y = np.array(list(edges)).T
    w = np.array(list(edges.values()))
    for form in (edges, (x, y, w)):
        with pytest.raises(hl.ValidationError, match=message):
            hl.WeightedDomain([0, 1, 2], np.ones(3), form)


def test_bad_mappings_raise_validation_errors():
    edges = {(0, 1): 1.0, (1, 0): 1.0}
    with pytest.raises(hl.ValidationError, match="positive"):
        hl.WeightedDomain([0, 1], {0: 1.0}, edges)  # no measure for vertex 1
    with pytest.raises(hl.ValidationError, match="numeric"):
        hl.WeightedDomain([0, 1], np.ones(2), {(0, 1): "heavy", (1, 0): 1.0})


@pytest.mark.parametrize("lookup", [
    lambda d: d.measure_of(99),
    lambda d: d.weight(0, 99),
    lambda d: d.weight(99, 0),
    lambda d: d.total_measure([0, 99]),
    lambda d: ball_exhaustion(d, center=99),
])
def test_label_lookups_outside_the_domain_raise_validation_errors(lookup):
    domain = hl.fixture("lat1", ambient_size=33).domain
    with pytest.raises(hl.ValidationError, match="unknown vertex 99"):
        lookup(domain)


@pytest.mark.parametrize("label", [40, 10**6, 2**63, -2**63 - 1, np.int64(40)],
                         ids=["outside-level", "absent", "2**63", "-2**63-1", "int64"])
def test_label_lookups_without_a_label_dict(label):
    # a label outside a level (but in the domain), outside the domain, or
    # outside int64: False or a ValidationError, never an OverflowError or
    # a KeyError
    fx = hl.fixture("lat1", ambient_size=101)
    sub = fx.exhaustion[1]
    assert label not in sub
    with pytest.raises(hl.ValidationError, match="outside the subdomain"):
        sub.local_of(label)
    if label == 40:
        j = fx.exhaustion.first_level_containing(label)
        assert 40 in fx.exhaustion[j].labels and 40 not in fx.exhaustion[j - 1].labels
        assert fx.domain.measure_of(label) == 1.0
        return
    with pytest.raises(hl.ValidationError, match="not all contained"):
        fx.exhaustion.first_level_containing(label)
    with pytest.raises(hl.ValidationError, match="measure query"):
        fx.domain.measure_of(label)


def test_int64_labels_resolve_like_python_ints():
    fx = hl.fixture("lat1", ambient_size=101)
    sub = fx.exhaustion[1]
    for x in (-2, 0, 2):
        label = np.int64(x)
        assert label in sub and sub.local_of(label) == sub.local_of(x) == x + 2
        assert fx.exhaustion.first_level_containing(label) == fx.exhaustion.first_level_containing(x)
        assert fx.domain.measure_of(label) == 1.0


def _grid(labels, order):
    """The 6 x 6 grid whose vertex k carries label labels[k], stored in ``order``."""
    k = np.arange(36).reshape(6, 6)
    x = np.r_[k[:, :-1].ravel(), k[:-1, :].ravel()]
    y = np.r_[k[:, 1:].ravel(), k[1:, :].ravel()]
    w = 1.0 + 0.1 * (x % 3)
    mu = 0.5 + 0.25 * (np.arange(36) % 4)
    return hl.WeightedDomain(labels[order], mu[order],
                             (labels[np.r_[x, y]], labels[np.r_[y, x]], np.r_[w, w]))


def _labelled_edges(sub, relabel=int):
    """The level's stored edges as sorted (label, inside, label or 0, weight)
    tuples, ``relabel`` applied to each label."""
    rows, cols, w = sub._edges()
    labels = sub.labels
    return sorted((relabel(labels[r]), c >= 0, relabel(labels[c]) if c >= 0 else 0, float(v))
                  for r, c, v in zip(rows, cols, w))


@pytest.mark.parametrize("case", ["range", "shifted", "gapped", "permuted"])
def test_label_ranges_agree_with_searched_labels(case):
    # consecutive sorted labels take their positions by subtraction, others by
    # search; both give the same graph, lookups, balls and level edges
    k = np.arange(36)
    labels, order = {"range": (k, k), "shifted": (k - 17, k), "gapped": (3 * k - 40, k),
                     "permuted": (k, np.random.default_rng(3).permutation(36))}[case]
    base, domain = _grid(k, k), _grid(labels, order)
    assert base._first == 0
    assert domain._first == {"range": 0, "shifted": -17}.get(case)
    where = np.argsort(order)  # the position of vertex k
    assert np.array_equal(domain.positions_of(labels), where)
    absent = np.setdiff1d(np.arange(-60, 120), labels)
    assert np.all(domain.positions_of(absent) == -1)
    assert [int(domain.positions_of(int(x))) for x in labels[:5]] == where[:5].tolist()
    assert (domain.weights[where][:, where] != base.weights).nnz == 0
    assert np.array_equal(domain.mu[where], base.mu)
    relabel = dict(zip(k.tolist(), labels.tolist()))
    for sub, sub0 in zip(ball_exhaustion(domain, center=labels[14]), ball_exhaustion(base, 14),
                         strict=True):
        assert sorted(sub.labels.tolist()) == sorted(relabel[x] for x in sub0.labels.tolist())
        assert _labelled_edges(sub) == _labelled_edges(sub0, lambda x: relabel[int(x)])
        for x in range(-45, 75):
            assert (x in sub) == (x in sub.labels)
    # nesting of levels whose positions are no interval: a corner ball and a
    # larger one around it, or around the opposite corner
    assert len(hl.Exhaustion(domain, [labels[[0, 1, 6]], labels[[0, 1, 2, 6, 7, 12]]])) == 2
    with pytest.raises(hl.ValidationError, match="level 2 does not strictly contain level 1"):
        hl.Exhaustion(domain, [labels[[0, 1, 6]], labels[[35, 34, 29, 33, 28, 23]]])


@pytest.mark.parametrize("first", [-5, 3, 2**63 - 4, -2**63])
def test_label_ranges_at_the_int64_ends(first):
    # labels first .. first + 3: lookups of the int64 ends, or beyond them, are
    # absent or a ValidationError, and nothing overflows or warns
    labels = first + np.arange(4)
    domain = hl.WeightedDomain(labels, np.ones(4), _path_edges(labels, 1.0))
    sub = hl.restrict(domain, labels[1:3])
    assert domain._first == first and sub._lo == 1
    ends = np.array([2**63 - 1, -2**63], dtype=np.int64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        inside = np.isin(ends, labels)
        assert np.array_equal(domain.positions_of(ends), np.where(inside, ends - first, -1))
        for x, present in zip(ends, inside):
            assert int(domain.positions_of(x)) == (int(x) - first if present else -1)
            assert (int(x) in sub) == (int(x) in labels[1:3])
            if not present:
                with pytest.raises(hl.ValidationError, match="unknown vertex"):
                    domain.measure_of(x)
        for x in (2**63, -2**63 - 1):
            assert x not in sub
            with pytest.raises(hl.ValidationError, match="outside int64"):
                domain.measure_of(x)
        assert np.array_equal(domain.positions_of(labels), np.arange(4))


def test_interval_levels_index_by_offset():
    # local_of, `in` and the level's edges of interval levels, against the
    # dense weights
    fx = hl.fixture("lat1_geo(0.5)", ambient_size=41)
    w = fx.domain.weights.toarray()
    for sub in fx.exhaustion:
        assert sub._lo == sub.positions[0] and sub.positions[-1] == sub._lo + sub.size - 1
        labels = sub.labels.tolist()
        for x in range(-22, 23):
            assert (x in sub) == (x in labels)
            if x in labels:
                assert sub.local_of(x) == labels.index(x)
        rows, cols, values = sub._edges()
        expected = [(i, int(q) - sub._lo if sub._lo <= q < sub._lo + sub.size else -1, w[p, q])
                    for i, p in enumerate(sub.positions) for q in np.flatnonzero(w[p])]
        assert list(zip(rows.tolist(), cols.tolist(), values.tolist())) == expected
        # positions -1 (absent) .. 41 (past the domain); position p is label p - 20
        assert sub.local_indices(np.arange(-1, 42)).tolist() == [
            sub.local_of(p - 20) if 0 <= p <= 40 and p - 20 in sub else -1 for p in range(-1, 42)]


@pytest.mark.parametrize("spec, size", [("lat1_geo(0.5)", 20001), ("rad(3)", 20000)])
def test_range_labelled_fixtures_build_without_searches(spec, size, monkeypatch):
    def searchsorted(*args, **kwargs):
        raise AssertionError("searchsorted called")

    monkeypatch.setattr(np, "searchsorted", searchsorted)
    # path levels are connected, nested and ordered without a graph search
    for name in ("breadth_first_order", "reverse_cuthill_mckee"):
        monkeypatch.setattr(sp.csgraph, name, searchsorted)
    fx = hl.fixture(spec, ambient_size=size)
    fx.exhaustion.nested_order().grow_to(fx.domain.n_vertices)
    assert fx.exhaustion[3].order.size == fx.exhaustion[3].size
    assert fx.exhaustion[-2].local_of(2) == 2 - int(fx.exhaustion[-2].labels[0])


def _drift_path_with_a_shortcut():
    """A drift path 0..39 with a one-way edge 0 -> 20: w + w^T has entries w lacks."""
    x = np.r_[np.arange(39), np.arange(1, 40), 0]
    y = np.r_[np.arange(1, 40), np.arange(39), 20]
    w = np.r_[np.full(39, 1.2), np.full(39, 0.8), 0.5]
    return hl.WeightedDomain(range(40), np.ones(40), (x, y, w))


@pytest.mark.parametrize("build", [lambda: build_scrambled_grid(7, seed=11),
                                   _drift_path_with_a_shortcut], ids=["grid", "drift"])
def test_undirected_adjacency_has_the_pattern_of_w_plus_w_transpose(build, monkeypatch):
    # a symmetric domain is its own adjacency, with no copy cached; connectivity,
    # balls and reference pairs are those of the w + w^T pattern
    domain = build()
    w = domain.weights
    pattern = (w + w.T).tocsr()
    pattern.data[:] = 1.0
    adj = domain._undirected_adjacency()
    assert np.array_equal(adj.indptr, pattern.indptr)
    assert np.array_equal(adj.indices, pattern.indices)
    assert (adj is w) is domain.symmetric and (domain._adjacency is None) is domain.symmetric
    rng = np.random.default_rng(3)
    subsets = [rng.choice(domain.n_vertices, size, replace=False) for size in (2, 5, 12, 30)]
    centers = domain.labels[[0, 7, domain.n_vertices - 1]]

    def read():
        balls = [[level.labels.tolist() for level in ball_exhaustion(domain, c)] for c in centers]
        pairs = [default_reference_pair(ball_exhaustion(domain, c)) for c in centers]
        return [domain._connected(s) for s in subsets], balls, pairs

    got = read()
    monkeypatch.setattr(domain, "_undirected_adjacency", lambda: pattern)
    assert got == read()


def test_duplicate_array_edges_are_summed():
    x, y = np.array([0, 1, 0, 1, 0, 2]), np.array([1, 0, 1, 0, 1, 1])
    w = np.array([1.0, 2.0, 0.5, 0.25, 4.0, 3.0])
    d = hl.WeightedDomain([0, 1, 2], np.ones(3), (x, y, w))
    assert d.weight(0, 1) == 5.5 and d.weight(1, 0) == 2.25 and d.weight(2, 1) == 3.0
    assert d.weights.nnz == 3 and d.weights.has_canonical_format and not d.symmetric
    assert np.array_equal(d.oriented_weights(True).toarray(), d.weights.toarray().T)


@pytest.mark.parametrize("build", [lambda: build_scrambled_grid(7, seed=11),
                                   _drift_path_with_a_shortcut], ids=["grid", "drift"])
def test_connectivity_agrees_with_the_induced_subgraph(build):
    # every block of consecutive positions (checked on the block) and scattered
    # subsets (on the induced subgraph) against components of the dense
    # w + w^T restricted to them
    domain = build()
    dense = domain.weights.toarray()
    dense = dense + dense.T
    n = domain.n_vertices
    rng = np.random.default_rng(5)
    subsets = [np.arange(a, b) for a in range(n) for b in range(a + 1, n + 1)]
    subsets += [np.sort(rng.choice(n, size, replace=False)) for size in (2, 6, 15, 40)]
    seen = set()
    for s in subsets:
        block = sp.csr_matrix(dense[np.ix_(s, s)])
        expected = sp.csgraph.connected_components(block, directed=False)[0] == 1
        assert domain._connected(s) == expected
        seen.add(expected)
    assert seen == {True, False}


def _digest(domain, levels):
    """sha256 of every array the domain and its levels keep, with dtypes and shapes."""
    h = hashlib.sha256()
    arrays = [domain.labels, domain.mu]
    for matrix in (domain.weights, domain.oriented_weights(True)):
        arrays += [matrix.data, matrix.indices, matrix.indptr]
    for level in levels:
        arrays += [level.positions, level.labels]
    for a in arrays:
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    h.update(repr(domain.symmetric).encode())
    return h.hexdigest()[:16]


def _bench_drift_case():
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses resolve their module there
    spec.loader.exec_module(workloads)
    domain = workloads.drift_domain(1.2)
    half = workloads.PERT_HALF
    return domain, [hl.restrict(domain, range(-half, half + 1))]


def _edge_list_case(tmp_path):
    path = tmp_path / "asymmetric.txt"
    path.write_text("0 1.0\n1 2.0\n2 0.5\n3 1.0\n0 1 1.0\n1 0 2.0\n"
                    "1 2 0.25\n2 1 0.25\n2 3 1.5\n3 2 1.5\n0 3 0.5\n")
    domain = load_edge_list(path)
    return domain, ball_exhaustion(domain)


def _fixture_case(spec, size):
    fx = hl.fixture(spec, ambient_size=size)
    return fx.domain, fx.exhaustion


def _grid_case():
    domain = build_scrambled_grid(7, seed=11)
    return domain, ball_exhaustion(domain)


# a change to any kept array's bytes, dtype or shape changes its digest
DIGESTS = {
    "rad(3)@100000": (lambda tmp: _fixture_case("rad(3)", 100000), "d72b6d5b9d4928a6"),
    "lat1_geo(0.5)@2049": (lambda tmp: _fixture_case("lat1_geo(0.5)", 2049), "eae554d8db71ae01"),
    "lat1@4001": (lambda tmp: _fixture_case("lat1", 4001), "4366a961ea68f39b"),
    "scrambled_grid": (lambda tmp: _grid_case(), "77ffbad7af20df24"),
    "bench_drift": (lambda tmp: _bench_drift_case(), "8362d0574d6e5b80"),
    "asymmetric_edge_list": (_edge_list_case, "0726000f3f83ba3c"),
}


@pytest.mark.parametrize("case", list(DIGESTS))
def test_kept_arrays_match_their_pinned_digests(case, tmp_path):
    build, expected = DIGESTS[case]
    assert _digest(*build(tmp_path)) == expected


# -- path domains: orders by arithmetic ------------------------------------------

@pytest.fixture
def routes(monkeypatch):
    """The names of the ``NestedOrder`` shell routes taken, in call order."""
    taken = []
    for name in ("_path_shell", "_shell"):
        def spy(self, level, start, name=name, method=getattr(NestedOrder, name)):
            taken.append(name)
            return method(self, level, start)

        monkeypatch.setattr(NestedOrder, name, spy)
    return taken


def _gapped_edge_list_case(tmp_path):
    """A path on the labels 0, 3, 6, ... with random weights and measures, in
    balls around a vertex near one end: shells run out on that side first."""
    rng = np.random.default_rng(6)
    labels = range(0, 120, 3)
    mu, w = rng.uniform(0.5, 2.0, 40).tolist(), rng.uniform(0.5, 2.0, 39).tolist()
    path = tmp_path / "gapped.txt"
    path.write_text("".join(f"{x} {m!r}\n" for x, m in zip(labels, mu))
                    + "".join(f"{a} {b} {c!r}\n{b} {a} {c!r}\n"
                              for a, b, c in zip(labels[:-1], labels[1:], w)))
    domain = load_edge_list(path)
    return domain, ball_exhaustion(domain, center=12)


def _uneven_intervals_case():
    """A one-vertex first level, then shells of unequal sides on either hand."""
    rng = np.random.default_rng(9)
    vertices = np.arange(30)
    domain = hl.WeightedDomain(vertices, rng.uniform(0.5, 2.0, 30),
                               _path_edges(vertices, rng.uniform(0.5, 2.0, 29)))
    return domain, hl.Exhaustion(domain, [[9], range(8, 12), range(2, 13), range(1, 30)])


PATH_CASES = {
    "lat1": lambda tmp: _fixture_case("lat1", 4001),
    "lat1_geo(0.5)": lambda tmp: _fixture_case("lat1_geo(0.5)", 2049),
    "rad(2)": lambda tmp: _fixture_case("rad(2)", 1000),
    "rad(3)": lambda tmp: _fixture_case("rad(3)", 20000),
    "closed_path": lambda tmp: (lambda fx: (fx.domain, fx.exhaustion))(closed_path_domain(50)),
    "gapped_edge_list": _gapped_edge_list_case,
    "uneven_intervals": lambda tmp: _uneven_intervals_case(),
}


@pytest.mark.parametrize("case", list(PATH_CASES))
def test_path_orders_equal_the_generic_route(case, tmp_path, monkeypatch, routes):
    # the exhaustion's order and every level's own order, grown by the path
    # route and again with the path flag cleared: positions, band, ranks (an
    # exhaustion's; a level's own keeps none) and tridiagonal prefix agree
    domain, exhaustion = PATH_CASES[case](tmp_path)
    assert domain.path and domain.symmetric

    def grow():
        orders = [NestedOrder(domain, exhaustion.levels)]
        orders += [NestedOrder(domain, [level], ranked=False) for level in exhaustion]
        for order in orders:
            order.grow_to(order.sizes[-1])
        return orders

    fast = grow()
    assert set(routes) == {"_path_shell"}
    del routes[:]
    monkeypatch.setattr(domain, "path", False)
    slow = grow()
    assert set(routes) == {"_shell"}
    for a, b in zip(fast, slow, strict=True):
        assert a.tridiagonal == b.tridiagonal and a.depth == b.depth
        assert (a._rank is None) == (b._rank is None) == (a is not fast[0])
        for x, y in ((a.positions, b.positions), (a.band, b.band), (a._rank, b._rank)):
            if x is not None:
                assert x.dtype == y.dtype and x.shape == y.shape and np.array_equal(x, y)
    # and connectivity: the range test against the induced subgraph's search
    rng = np.random.default_rng(2)
    n = domain.n_vertices
    subsets = [np.arange(a, a + k) for k in (1, 2, 5) for a in (0, n // 2, n - k)]
    subsets += [np.sort(rng.choice(n, k, replace=False)) for k in (2, 3, 6)] + [[0, 2]]
    slow = [domain._connected(s) for s in subsets]
    monkeypatch.setattr(domain, "path", True)
    assert [domain._connected(s) for s in subsets] == slow


@pytest.mark.parametrize("case", ["lat1", "grid"])
def test_nested_orders_do_not_depend_on_how_they_grew(case):
    # in one call, one level per call, or in calls that end inside levels:
    # the same positions, band, ranks and tridiagonal prefix (lat1's band
    # widens from 1 to 3 on its second level)
    domain, exhaustion = _fixture_case("lat1", 4001) if case == "lat1" else _grid_case()
    sizes = [level.size for level in exhaustion]
    splits = [[domain.n_vertices], sizes, [sizes[1] + 1, sizes[-2] - 1, domain.n_vertices]]
    orders = []
    for ends in splits:
        order = NestedOrder(domain, exhaustion.levels)
        for n in ends:
            order.grow_to(n)
        orders.append(order)
    first = orders[0]
    assert first.size == domain.n_vertices and first.band.shape == (first.kd, first.size)
    for order in orders[1:]:
        assert order.tridiagonal == first.tridiagonal and order.depth == first.depth
        for a, b in ((order.positions, first.positions), (order.band, first.band),
                     (order._rank, first._rank)):
            assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


def test_scrambled_paths_and_cycles_take_the_generic_route(routes):
    # a path that visits the labels out of position order, and a cycle, are
    # no path domains: their orders are found on the graph
    labels = np.arange(12)
    scrambled = hl.WeightedDomain(labels, np.ones(12), _path_edges(
        np.array([0, 2, 1, 3, 5, 4, 6, 8, 7, 9, 11, 10]), 1.0))
    cycle = hl.WeightedDomain(labels, np.ones(12), _path_edges(np.r_[labels, 0], 1.0))
    for domain in (scrambled, cycle):
        assert not domain.path and domain.symmetric
        exhaustion = ball_exhaustion(domain)
        exhaustion.nested_order().grow_to(domain.n_vertices)
        assert exhaustion[-1].order.size == domain.n_vertices
    assert routes and set(routes) == {"_shell"}
    # interval levels of a 40-vertex ring: reverse Cuthill-McKee leaves each
    # level, a path in local order, as it is, and the shells alternate sides
    labels = np.arange(40)
    ring = hl.WeightedDomain(labels, np.ones(40), _path_edges(np.r_[labels, 0], 1.0))
    assert not ring.path
    exhaustion = hl.Exhaustion(ring, [range(4, 7), range(2, 9), range(12)])
    order = exhaustion.nested_order()
    order.grow_to(12)
    assert order.positions.tolist() == [4, 5, 6, 3, 7, 2, 8, 1, 9, 0, 10, 11]
    for level in exhaustion:
        assert np.array_equal(level.order.positions, level.positions)


@pytest.mark.parametrize("weight", [None, 0.0], ids=["absent", "zero"])
def test_path_connectivity_errors_are_unchanged(weight):
    # a path with the link 2 ~ 3 missing (or of weight 0) is still a path
    # domain, and not connected; one direction of a link connects it
    x, y, w = _path_edges(np.arange(6), 1.0)
    link = ((x == 2) & (y == 3)) | ((x == 3) & (y == 2))
    edges = (x, y, np.where(link, 0.0, w)) if weight == 0.0 else (x[~link], y[~link], w[~link])
    with pytest.raises(hl.ValidationError, match="support graph is not connected"):
        hl.WeightedDomain(range(6), np.ones(6), edges)
    one_way = ~((x == 2) & (y == 3))
    domain = hl.WeightedDomain(range(6), np.ones(6), (x[one_way], y[one_way], w[one_way]))
    assert domain.path and not domain.symmetric
    # a subset of a path that is not an interval is not connected
    fx = hl.fixture("lat1", ambient_size=101)
    for subset in ([0, 2], [-3, -2, 0, 1]):
        with pytest.raises(hl.ValidationError, match="subset is not connected"):
            hl.restrict(fx.domain, subset)
        with pytest.raises(hl.ValidationError, match="subset is not connected"):
            hl.Exhaustion(fx.domain, [[0], subset])


def test_interval_level_order_reads_the_level_positions_without_ranks():
    # a level's own order on a path takes its positions array as it is, and
    # allocates nothing the size of the domain (a bool per vertex would be more)
    fx = hl.fixture("rad(3)", ambient_size=100000)
    level = fx.exhaustion[6]
    tracemalloc.start()
    try:
        order = level.order
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert order.positions is level.positions and order._rank is None
    assert order.size == level.size and peak < fx.domain.n_vertices
