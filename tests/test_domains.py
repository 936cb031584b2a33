"""Domain, exhaustion and fixture construction.

Claims:
    - lattice and radial builders realize the documented weights and measures
    - geometric-measure partial sums match the closed form per level
    - restriction validates connectivity and supports the identity case
    - invariant violations are rejected at construction, with the same
      message for mapping and array edges
    - the path fixtures are bit-identical to their formulas built edge by edge
    - edge-list files round-trip
"""

import numpy as np
import pytest

import heatlab as hl
from heatlab.criticality import default_reference_pair
from heatlab.domains import MEASURE_FLOOR, ball_exhaustion, closed_path_domain, load_edge_list

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
    with pytest.raises(hl.ValidationError):
        hl.build_lattice_1d(4, "unit", conductance=-1.0)


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


def test_domain_invariant_violations():
    with pytest.raises(hl.ValidationError):
        hl.WeightedDomain([0, 1], {0: 1.0, 1: 0.0}, {(0, 1): 1.0, (1, 0): 1.0})
    with pytest.raises(hl.ValidationError):
        hl.WeightedDomain([0, 1], {0: 1.0, 1: 1.0}, {(0, 1): -1.0})
    with pytest.raises(hl.ValidationError):
        hl.WeightedDomain([0, 1], {0: 1.0, 1: 1.0}, {(0, 0): 2.0})
    with pytest.raises(hl.ValidationError):
        hl.WeightedDomain([0, 1, 2], {i: 1.0 for i in range(3)}, {(0, 1): 1.0, (1, 0): 1.0})


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
