import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipstable import baselines, core
from ipstable.core import (
    Clustering,
    DistanceOracle,
    STABILITY_TOL,
    _own_and_nearest,
    _partitions_into_k,
    _violation_vector,
    audit,
    brute_force,
    is_t_stable,
    stable_limit,
)
from ipstable.hardgen import fixtures
from ipstable.hst import cluster_via_embedding, embed_hst, hst_k_clustering, normalize_leaves
from ipstable.line1d import solve_1d
from ipstable.separated import exact_enumerate, pipeline
from ipstable.tree import WeightedTree

from conftest import (
    all_label_partitions,
    cluster_averages,
    clusters,
    member_row_sums,
    naive_cost,
    naive_num_unstable,
    naive_vi,
    nearest_foreign,
    random_clustering,
    random_graph_metric,
    random_points,
    random_tree,
    reaudit_prune,
    relabel_by_first_appearance,
)


# --- oracle construction -----------------------------------------------------


def test_point_metrics_agree_with_direct_formulas():
    pts = np.array([[0.0, 0.0], [3.0, 4.0], [-1.0, 2.0]])
    e = DistanceOracle.from_points(pts, "euclidean").matrix()
    m = DistanceOracle.from_points(pts, "manhattan").matrix()
    c = DistanceOracle.from_points(pts, "chebyshev").matrix()
    assert e[0, 1] == pytest.approx(5.0)
    assert m[0, 1] == pytest.approx(7.0)
    assert c[0, 1] == pytest.approx(4.0)
    assert m[0, 2] == pytest.approx(3.0)
    assert c[1, 2] == pytest.approx(4.0)


def test_one_dimensional_input_reshapes():
    o = DistanceOracle.from_points([0.0, 2.0, 5.0])
    assert o.matrix()[0, 2] == pytest.approx(5.0)


def test_matrix_validation():
    good = np.array([[0.0, 1.0], [1.0, 0.0]])
    DistanceOracle.from_matrix(good)
    with pytest.raises(ValueError):
        DistanceOracle.from_matrix(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(ValueError):
        DistanceOracle.from_matrix(np.array([[1.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        DistanceOracle.from_matrix(np.array([[0.0, -1.0], [-1.0, 0.0]]))
    with pytest.raises(ValueError):
        DistanceOracle.from_matrix(np.ones((2, 3)))
    with pytest.raises(ValueError):
        DistanceOracle.from_matrix(np.array([[0.0, math.nan], [math.nan, 0.0]]))
    # every entry is finite, but a row sum of the audit would overflow
    with pytest.raises(ValueError, match="overflow"):
        DistanceOracle.from_matrix(np.full((3, 3), 1e308) * (1.0 - np.eye(3)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_points_must_be_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        DistanceOracle.from_points([[0.0, 0.0], [bad, 1.0]])


def test_overflowing_point_distances_rejected():
    # each coordinate is finite, but cdist squares them past the float range
    o = DistanceOracle.from_points([[1e300, 1e300], [-1e300, -1e300], [0.0, 0.0]])
    with pytest.raises(ValueError, match="overflow"):
        o.matrix()
    with pytest.raises(ValueError, match="overflow"):
        audit(o, Clustering(np.array([0, 0, 1]), 2))


def test_sub_oracle_reorders():
    pts = np.array([[0.0], [1.0], [5.0]])
    o = DistanceOracle.from_points(pts)
    s = o.sub_oracle([2, 0])
    assert s.n == 2
    assert s.matrix()[0, 1] == pytest.approx(5.0)


def test_unknown_metric_rejected():
    with pytest.raises(ValueError):
        DistanceOracle.from_points([[0.0]], metric="cosine")


# one-column point sets whose distance range sits at the float range's edge
EXTREME_LINES = {
    "pm1e300": [1e300, -1e300, 0.0],
    "1e300-offset": [1e300, 1e300, 5e299],
    "pm1e307-tiled": np.tile([1e307, -1e307], 65),
    "1e307-repeated": [1e307] * 130,
    "near-1e307": [1.7e307, 1.0e307, 1.2e307],
    "near-max": [1.79e308, 1.0e308],
    "square-fits": [1.3e154, 0.0],
    "square-overflows": [1.4e154, 0.0],
    "n-times-spread-overflows": [2e306] + [0.0] * 99,
    "n-times-spread-fits": [1.7e306] + [0.0] * 99,
}
METRICS = ("chebyshev", "euclidean", "manhattan")


@pytest.mark.parametrize("metric", METRICS)
def test_line_range_check_decides_like_the_matrix(metric):
    decisions = set()
    for name, vals in EXTREME_LINES.items():
        pts = np.asarray(vals, dtype=float).reshape(-1, 1)
        m = np.abs(pts - pts.T)         # the one-column matrix of every metric
        want = math.isfinite(float(m.max()) * len(m))
        try:
            DistanceOracle.from_points(pts, metric)
            got = True
        except ValueError as exc:
            assert "overflow" in str(exc)
            got = False
        assert got == want, name
        decisions.add(got)
    assert decisions == {True, False}


SYMMETRY_PAYLOADS = ("line", *METRICS, "matrix", "tree", "sub-oracle")


def _symmetry_payload(name):
    rng = np.random.default_rng(31)
    pts = random_points(rng, 60, 3)
    if name == "line":
        return DistanceOracle.from_points(pts[:, 0])
    if name in METRICS:
        return DistanceOracle.from_points(pts, name)
    if name == "matrix":
        # within from_matrix's tolerances on both triangles and the diagonal
        noise = rng.uniform(0.0, 5e-13, (60, 60))
        np.fill_diagonal(noise, 0.0)
        m = DistanceOracle.from_points(pts).matrix() + noise + 5e-13 * np.eye(60)
        return DistanceOracle.from_matrix(m)
    tree = random_tree(rng, 80).to_oracle()
    return tree if name == "tree" else tree.sub_oracle(rng.permutation(80)[:50])


@pytest.mark.parametrize("name", SYMMETRY_PAYLOADS)
def test_every_matrix_is_exactly_symmetric(name):
    """d(j, i) is d(i, j) bit for bit, and every d(i, i) is 0."""
    m = _symmetry_payload(name).matrix()
    assert np.array_equal(m, m.T)
    assert not np.diagonal(m).any()


def test_from_matrix_and_from_tree_keep_the_upper_triangle():
    m = np.array([[0.0, 1.0, 2.0], [1.0 + 4e-13, 0.0, 3.0], [2.0, 3.0 - 4e-13, 0.0]])
    assert DistanceOracle.from_matrix(m).matrix().tolist() == [[0, 1, 2], [1, 0, 3], [2, 3, 0]]
    tree = random_tree(np.random.default_rng(5), 40)
    upper = np.triu(tree.distance_matrix(), 1)
    assert np.array_equal(tree.to_oracle().matrix(), upper + upper.T)


# --- cluster sums: one kernel, three backends --------------------------------


def _matrix_backed_oracles(rng, n):
    """Every payload the matrix backend sums: points under each metric, an
    explicit matrix and a restriction of a larger points oracle."""
    x = random_points(rng, n + 5, 3)
    yield from (DistanceOracle.from_points(x[:n], metric) for metric in METRICS)
    yield DistanceOracle.from_matrix(random_graph_metric(rng, n))
    yield DistanceOracle.from_points(x).sub_oracle(rng.permutation(n + 5)[:n])


def test_matrix_backend_sums_are_the_member_row_loop_bit_for_bit():
    rng = np.random.default_rng(31)
    for trial in range(8):
        n = int(rng.integers(2, 40))
        for o in _matrix_backed_oracles(rng, n):
            for k in sorted({1, n, int(rng.integers(1, n + 1))}):
                c = random_clustering(rng, n, k)
                got = o.cluster_sums(c)
                want = member_row_sums(o.matrix(), c.assignment, k)
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), (n, k)
                # any order of n nonnegative terms is within about (n-1)u of the exact sum
                onehot = np.zeros((n, k))
                onehot[np.arange(n), c.assignment] = 1.0
                np.testing.assert_allclose(got, o.matrix() @ onehot, rtol=2 * n * 2.0**-53, atol=0)


LINE_VALUES = {
    "random": lambda rng, n: rng.normal(size=n) * 10.0,
    "ties": lambda rng, n: rng.integers(0, 4, size=n).astype(float),
    "zero-spread": lambda rng, n: np.full(n, 3.25),
    "offset-1e6": lambda rng, n: 1e6 + rng.uniform(0.0, 1.0, size=n),
    "offset-1e9": lambda rng, n: 1e9 + rng.uniform(0.0, 1.0, size=n),
    "offset-1e12": lambda rng, n: -1e12 - rng.uniform(0.0, 1.0, size=n),
}


@pytest.mark.parametrize("kind", sorted(LINE_VALUES))
def test_line_backend_matches_matrix_backend(kind):
    rng = np.random.default_rng(sorted(LINE_VALUES).index(kind))
    for trial in range(12):
        n = int(rng.integers(1, 30))
        line = DistanceOracle.from_points(LINE_VALUES[kind](rng, n))
        dense = DistanceOracle.from_matrix(line.matrix())
        for k in sorted({1, n, int(rng.integers(1, n + 1))}):
            c = random_clustering(rng, n, k)
            np.testing.assert_allclose(line.cluster_sums(c), dense.cluster_sums(c),
                                       rtol=1e-12, atol=0)
            got, want = audit(line, c), audit(dense, c)
            np.testing.assert_allclose(got.vi, want.vi, rtol=1e-12, atol=0)
            assert got.num_unstable == want.num_unstable
            assert got.cost == pytest.approx(want.cost, rel=1e-12, abs=0)


@pytest.mark.parametrize("metric", METRICS)
def test_line_matrix_keeps_distances_below_the_square_range(metric):
    # squared, 1e-200 and 2e-200 flush to 0 and the points would look tied
    line = DistanceOracle.from_points([0.0, 1e-200, 3e-200, 1.0], metric)
    dense = DistanceOracle.from_matrix(line.matrix())
    c = Clustering(np.array([0, 0, 1, 1]), 2)
    got, want = audit(line, c).vi, audit(dense, c).vi
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
    assert got[2] == pytest.approx(4e199)


def test_line_oracle_and_its_sub_oracles_sum_without_a_matrix(monkeypatch):
    rng = np.random.default_rng(4)
    vals = rng.normal(size=25)
    keep = rng.permutation(25)[:17]
    c = random_clustering(rng, 17, 4)
    want = DistanceOracle.from_matrix(np.abs(vals[keep, None] - vals[None, keep])).cluster_sums(c)

    def no_matrix(self):
        raise AssertionError("the line backend built an n x n matrix")

    monkeypatch.setattr(DistanceOracle, "matrix", no_matrix)
    o = DistanceOracle.from_points(vals)
    np.testing.assert_allclose(o.sub_oracle(keep).cluster_sums(c), want, rtol=1e-12, atol=0)
    assert audit(o, random_clustering(rng, 25, 3)).vi.shape == (25,)


def test_tree_sub_oracles_sum_on_the_whole_tree_without_a_matrix(monkeypatch):
    rng = np.random.default_rng(6)
    tree = random_tree(rng, 40)
    full = tree.to_oracle().matrix()
    keep = rng.permutation(40)[:29]
    inner = rng.permutation(29)[:17]
    c, c_inner = random_clustering(rng, 29, 4), random_clustering(rng, 17, 3)
    want = DistanceOracle.from_matrix(full[np.ix_(keep, keep)]).cluster_sums(c)
    nested = keep[inner]
    want_inner = DistanceOracle.from_matrix(full[np.ix_(nested, nested)]).cluster_sums(c_inner)

    def no_matrix(self):
        raise AssertionError("the tree backend built an n x n matrix")

    monkeypatch.setattr(DistanceOracle, "matrix", no_matrix)
    sub = tree.to_oracle().sub_oracle(keep)
    np.testing.assert_allclose(sub.cluster_sums(c), want, rtol=1e-12, atol=0)
    np.testing.assert_allclose(sub.sub_oracle(inner).cluster_sums(c_inner), want_inner,
                               rtol=1e-12, atol=0)
    assert audit(sub, c).vi.shape == (29,)
    monkeypatch.undo()
    assert np.array_equal(sub.matrix(), full[np.ix_(keep, keep)])
    assert np.array_equal(sub.sub_oracle(inner).matrix(), full[np.ix_(nested, nested)])
    # an oracle whose matrix is built restricts it rather than build another
    built = tree.to_oracle()
    built.matrix()
    monkeypatch.setattr(type(tree), "distance_matrix", no_matrix)
    assert np.array_equal(built.sub_oracle(keep).matrix(), full[np.ix_(keep, keep)])


# --- restriction: one view of every payload ---------------------------------


def test_line_view_matrix_is_its_own_values_without_the_base_matrix():
    rng = np.random.default_rng(12)
    vals = rng.normal(size=60) * 10.0 ** rng.integers(-3, 4, size=60)
    base = DistanceOracle.from_points(vals)
    keep = rng.permutation(60)[:23]
    inner = rng.permutation(23)[:9]
    for idx, sub in ((keep, base.sub_oracle(keep)),
                     (keep[inner], base.sub_oracle(keep).sub_oracle(inner))):
        want = DistanceOracle.from_points(vals[idx]).matrix()
        assert sub.matrix().tobytes() == want.tobytes()
    assert base._matrix is None


def test_restriction_rejects_repeated_negative_and_out_of_range_indices():
    # a repeated index names one point twice: a scatter onto the base would
    # count it once in a cluster sum and a gathered matrix twice
    path = WeightedTree(3, [(0, 1, 1.0), (1, 2, 2.0)])
    for o in (path.to_oracle(), DistanceOracle.from_matrix(path.to_oracle().matrix()),
              DistanceOracle.from_points([0.0, 1.0, 3.0]),
              DistanceOracle.from_points([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]])):
        for bad in ([0, 0, 2], [-1, 0], [0, 3], [[0, 1]], [0.0, 1.5], [True, False]):
            with pytest.raises(ValueError, match="restriction indices"):
                o.sub_oracle(bad)
            with pytest.raises(ValueError, match="restriction indices"):
                o.sub_oracle([2, 1, 0]).sub_oracle(bad)
        sums = o.sub_oracle([2, 0]).cluster_sums(Clustering(np.array([0, 1]), 2))
        assert sums.tolist() == [[0.0, 3.0], [3.0, 0.0]]


def _restriction_bases(rng, n):
    """(name, oracle) for each payload: a matrix, points with three columns
    and with one, and a tree."""
    x = random_points(rng, n, 3)
    yield "matrix", DistanceOracle.from_matrix(random_graph_metric(rng, n))
    yield "points", DistanceOracle.from_points(x, "manhattan")
    yield "line", DistanceOracle.from_points(x[:, 0])
    yield "tree", random_tree(rng, n).to_oracle()


def _restrictions(rng, base):
    """(base ids, view) for sorted, permuted and nested indices."""
    keep = rng.permutation(base.n)[: int(rng.integers(2, base.n + 1))]
    yield np.sort(keep), base.sub_oracle(np.sort(keep))
    yield keep, base.sub_oracle(keep)
    inner = rng.permutation(len(keep))[: int(rng.integers(1, len(keep) + 1))]
    yield keep[inner], base.sub_oracle(keep).sub_oracle(inner)


def test_restriction_sums_are_the_base_sums_bit_for_bit():
    """A matrix or feature view sums like the copied matrix, np.ix_ order
    included; a line or tree view is its base kernel's scattered column, and
    a line view also a line of its own values."""
    rng = np.random.default_rng(97)
    for trial in range(6):
        n = int(rng.integers(3, 40))
        for name, base in _restriction_bases(rng, n):
            for idx, sub in _restrictions(rng, base):
                m = len(idx)
                for k in sorted({1, m, int(rng.integers(1, m + 1))}):
                    c = random_clustering(rng, m, k)
                    if name in ("matrix", "points"):
                        want = member_row_sums(base.matrix()[np.ix_(idx, idx)], c.assignment, k)
                    else:
                        want = np.empty((m, k))
                        for i in range(k):
                            full = np.zeros(n, dtype=bool)
                            full[idx[c.assignment == i]] = True
                            want[:, i] = base._sums_to(full)[idx]
                    if name == "line":
                        # also a line of the kept values, summed on its own
                        own = DistanceOracle.from_points(base._line[idx]).cluster_sums(c)
                        assert own.tobytes() == want.tobytes()
                    got = sub.cluster_sums(c)
                    assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
                    for i in range(k):
                        column = sub._sums_to(c.assignment == i)
                        assert column.tobytes() == want[:, i].tobytes(), name


def test_tree_restriction_sums_the_same_bits_before_and_after_the_matrix():
    rng = np.random.default_rng(101)
    changed = 0
    for trial in range(8):
        base = random_tree(rng, int(rng.integers(3, 60))).to_oracle()
        views = [(idx, random_clustering(rng, len(idx), int(rng.integers(1, len(idx) + 1))))
                 for idx, _ in _restrictions(rng, base)]
        before = [base.sub_oracle(idx).cluster_sums(c) for idx, c in views]
        passes = [audit(base.sub_oracle(idx), c) for idx, c in views]
        base.matrix()
        for (idx, c), want, report in zip(views, before, passes):
            sub = base.sub_oracle(idx)
            assert sub.cluster_sums(c).tobytes() == want.tobytes()
            assert audit(sub, c).vi.tobytes() == report.vi.tobytes()
            rows = member_row_sums(base.matrix()[np.ix_(idx, idx)], c.assignment, c.k)
            changed += rows.tobytes() != want.tobytes()
    assert changed    # matrix rows would have given other bits


def test_cluster_sums_are_fresh_and_each_backend_agrees_with_itself():
    """The audit divides the sums in place, so every cluster_sums array is
    its own: no second call and no built matrix shares its memory, and two
    audits in a row see the same sums and leave the matrix as it was."""
    rng = np.random.default_rng(43)
    for trial in range(4):
        n = int(rng.integers(3, 30))
        for name, base in _restriction_bases(rng, n):
            for _, o in [(None, base), *_restrictions(rng, base)]:
                k = int(rng.integers(1, o.n + 1))
                c = random_clustering(rng, o.n, k)
                sums = o.cluster_sums(c)
                assert not np.shares_memory(sums, o.cluster_sums(c)), name
                for i in range(k):
                    column = o._sums_to(c.assignment == i)
                    assert column.tobytes() == sums[:, i].tobytes(), name
                matrix = o.matrix()
                before = matrix.tobytes()
                assert not np.shares_memory(o.cluster_sums(c), matrix), name
                first, second = audit(o, c), audit(o, c)
                assert first.vi.tobytes() == second.vi.tobytes(), name
                assert o.matrix() is matrix and matrix.tobytes() == before, name


def test_prune_builds_one_matrix_per_oracle_and_needs_no_audit(monkeypatch):
    # plain and subnormal distances alike: every split's score is read off
    # columns equal to the audit's, so no split is audited, and all of them
    # come from the one matrix the oracle caches
    pts = np.random.default_rng(8).normal(size=(30, 2))
    dense = DistanceOracle.from_points(pts).matrix()
    for make, cdists in ((lambda: DistanceOracle.from_points(pts), 1),
                         (lambda: DistanceOracle.from_matrix(dense * 1e-310), 0)):
        tree = baselines.linkage(make(), "average")
        o = make()
        builds, audits = [], []
        real_cdist, real_sums = core.cdist, DistanceOracle.cluster_sums
        monkeypatch.setattr(core, "cdist", lambda *args: builds.append(1) or real_cdist(*args))
        monkeypatch.setattr(DistanceOracle, "cluster_sums",
                            lambda self, c: audits.append(1) or real_sums(self, c))
        got = baselines.greedy_prune(tree, o, 8)
        assert audits == []
        assert len(builds) == cdists
        monkeypatch.undo()
        assert got.assignment.tolist() == reaudit_prune(tree.z, o, 8)[0].tolist()


# --- clustering invariants ---------------------------------------------------


def test_clustering_requires_every_label():
    with pytest.raises(ValueError):
        Clustering(np.array([0, 0, 2]), 3)  # label 1 empty
    with pytest.raises(ValueError):
        Clustering(np.array([0, 1, 2]), 2)  # label out of range
    with pytest.raises(ValueError):
        Clustering(np.array([-1, 0]), 1)


def test_from_labels_and_accessors():
    c = Clustering.from_labels([1, 0, 1, 0])
    assert c.k == 2
    assert sorted(c.sizes()) == [2, 2]
    # labels are renumbered densely in order of first appearance
    assert [set(b) for b in clusters(c.assignment)] == [{0, 2}, {1, 3}]


def test_from_labels_matches_the_dict_loop():
    rng = np.random.default_rng(17)
    cases = [np.full(12, 7), np.array([0]), np.array([3.5, -1.0, 3.5, 2.25])]
    for _ in range(10):
        n = int(rng.integers(1, 60))
        cases += [
            rng.integers(0, 6, size=n),
            rng.integers(-50, 50, size=n),
            np.round(rng.normal(size=n), 1),
        ]
    for labels in cases:
        want, k = relabel_by_first_appearance(labels)
        got = Clustering.from_labels(labels)
        assert got.k == k
        assert got.assignment.dtype == want.dtype
        assert np.array_equal(got.assignment, want), labels


# --- single-point quantities -------------------------------------------------


def test_cluster_averages_hand_values():
    o = DistanceOracle.from_points([0.0, 1.0, 3.0, 7.0])
    c = Clustering(np.array([0, 0, 0, 1]), 2)
    own_sum, own_avg, avg = cluster_averages(o.cluster_sums(c), c)
    # point 0: distances 1 and 3 to the rest of its cluster, 7 to cluster 1
    assert own_sum[0] == pytest.approx(4.0)
    assert own_avg[0] == pytest.approx(2.0)
    assert avg[0, 1] == pytest.approx(7.0)
    # the own column averages over the whole cluster, self included
    assert avg[0, 0] == pytest.approx(4.0 / 3.0)
    # a singleton's own average is 0 (no other member)
    assert own_sum[3] == 0.0 and own_avg[3] == 0.0
    assert avg[3, 0] == pytest.approx((7.0 + 6.0 + 4.0) / 3.0)


def _masked_ratio_max(own_avg, avg, clustering):
    """The factors as an n x k ratio matrix with the own column masked: the
    row maximum the one division by the nearest foreign average replaced."""
    a = clustering.assignment
    if clustering.k == 1:
        return np.zeros(len(a))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratios = own_avg[:, None] / avg
    ratios = np.where(own_avg[:, None] == 0.0, 0.0, ratios)
    ratios[np.isnan(ratios)] = 0.0
    ratios[np.arange(len(a)), a] = -np.inf
    return np.max(ratios, axis=1)


def _averaged_cases():
    """(oracle, clustering) on random, integer-tied, duplicate-point and
    zero-distance inputs, k = 1 included, plus points at the tolerance."""
    rng = np.random.default_rng(41)
    for n in (2, 5, 12, 40):
        for pts in (random_points(rng, n, 2), rng.integers(0, 4, size=(n, 1)).astype(float),
                    random_points(rng, 3, 2)[rng.integers(0, 3, size=n)], np.zeros((n, 1))):
            o = DistanceOracle.from_points(pts)
            for k in sorted({1, 2, min(n, 3), n}):
                labels = np.concatenate([np.arange(k), rng.integers(0, k, size=n - k)])
                yield o, Clustering(rng.permutation(labels), k)
        yield DistanceOracle.from_matrix(random_graph_metric(rng, n)), Clustering(
            np.arange(n) % 2, 2)
    for f in (0.5, 1.0 - 1e-7, 1.0, 1.0 + 1e-7, 2.0):
        g = 1.0 / (1.0 + f * STABILITY_TOL)
        yield DistanceOracle.from_points([0.0, 1.0, 1.0 + g]), Clustering([0, 0, 1], 2)
    ulp_past = [0.0, 0.9046800715504857, -0.9046800706458055]
    yield DistanceOracle.from_points(ulp_past), Clustering([0, 0, 1], 2)


def test_own_and_nearest_is_the_reference_averages_bit_for_bit():
    # the averages formed in place in the sums are the reference's division
    # of a copy, its masked copy and its row minimum, float for float
    for o, c in _averaged_cases():
        own_sum, own_avg, avg = cluster_averages(o.cluster_sums(c), c)
        want = own_sum, own_avg, nearest_foreign(avg, c)
        for got, expected in zip(_own_and_nearest(o, c), want):
            assert got.tobytes() == expected.tobytes(), (o.matrix(), c)


def test_violation_vector_is_the_masked_ratio_row_maximum():
    for o, c in _averaged_cases():
        _, own_avg, avg = cluster_averages(o.cluster_sums(c), c)
        got = _violation_vector(own_avg, nearest_foreign(avg, c))
        assert np.array_equal(got, _masked_ratio_max(own_avg, avg, c)), (o.matrix(), c)


def test_audit_counts_the_points_above_their_stable_limit():
    for o, c in _averaged_cases():
        _, own_avg, avg = cluster_averages(o.cluster_sums(c), c)
        want = 0
        for x in range(c.n):
            foreign = [avg[x, i] for i in range(c.k) if i != c.assignment[x]]
            want += bool(own_avg[x] > stable_limit(min(foreign, default=math.inf)))
        assert audit(o, c).num_unstable == want, (o.matrix(), c)


def test_violation_hand_value():
    # own average 2, foreign average 4 -> ratio 1/2
    o = DistanceOracle.from_points([0.0, 2.0, 4.0])
    vi = audit(o, Clustering(np.array([0, 0, 1]), 2)).vi
    assert vi[0] == pytest.approx(0.5)
    assert vi[2] == 0.0  # singleton cluster
    # point 1: own average 2, foreign cluster {2} at distance 2 -> exactly 1
    assert vi[1] == pytest.approx(1.0)


def test_violation_zero_distance_conventions():
    # three coincident points and one far away
    o = DistanceOracle.from_points([0.0, 0.0, 0.0, 9.0])
    vi = audit(o, Clustering(np.array([0, 0, 1, 1]), 2)).vi
    # point 0: own avg 0 -> factor 0 regardless of the foreign averages (0/0 = 0)
    assert vi[0] == 0.0
    # point 2 sits at distance 0 from cluster 0 but 9 from its own partner
    assert vi[2] == math.inf
    # singleton and k = 1 are always stable
    assert audit(o, Clustering(np.array([0, 0, 0, 1]), 2)).vi[3] == 0.0
    assert np.array_equal(audit(o, Clustering(np.array([0, 0, 0, 0]), 1)).vi, np.zeros(4))


# --- the auditor against the naive reimplementation --------------------------


def test_audit_matches_naive_on_random_instances():
    rng = np.random.default_rng(42)
    for trial in range(30):
        n = int(rng.integers(4, 16))
        k = int(rng.integers(1, min(5, n) + 1))
        if rng.random() < 0.5:
            m = DistanceOracle.from_points(random_points(rng, n, 3)).matrix()
        else:
            m = random_graph_metric(rng, n)
        labels = rng.integers(0, k, size=n)
        for c in range(k):  # force every cluster nonempty
            labels[c] = c
        o = DistanceOracle.from_matrix(m)
        clustering = Clustering(labels, k)
        rep = audit(o, clustering)
        expect = naive_vi(m, labels)
        assert np.allclose(rep.vi, expect, rtol=1e-10, atol=1e-12)
        assert rep.num_unstable == naive_num_unstable(m, labels)
        assert rep.max_violation == pytest.approx(max(expect))
        assert rep.cost == pytest.approx(naive_cost(m, labels), rel=1e-12)


def test_audit_with_duplicate_points_matches_naive():
    rng = np.random.default_rng(7)
    base = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 4.0, 4.0, 4.0])
    m = np.abs(base[:, None] - base[None, :])
    for _ in range(20):
        labels = rng.integers(0, 3, size=len(base))
        for c in range(3):
            labels[c] = c
        rep = audit(DistanceOracle.from_matrix(m), Clustering(labels, 3))
        expect = naive_vi(m, labels)
        finite = np.isfinite(expect)
        assert np.allclose(np.asarray(rep.vi)[finite], np.asarray(expect)[finite])
        assert np.array_equal(np.isinf(rep.vi), np.isinf(expect))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=3, max_size=9),
    st.randoms(use_true_random=False),
)
def test_audit_matches_naive_property(values, rnd):
    values = np.asarray(values)
    n = len(values)
    k = rnd.randint(1, min(3, n))
    labels = [rnd.randrange(k) for _ in range(n)]
    for c in range(k):
        labels[c] = c
    m = np.abs(values[:, None] - values[None, :])
    rep = audit(DistanceOracle.from_matrix(m), Clustering(np.array(labels), k))
    expect = naive_vi(m, labels)
    finite = np.isfinite(expect)
    assert np.allclose(np.asarray(rep.vi)[finite], np.asarray(expect)[finite], atol=1e-12)
    assert np.array_equal(np.isinf(rep.vi), np.isinf(expect))


def test_mean_violation_counts_only_unstable_points():
    # {0, 1} vs {10}: all stable -> mean over unstable defaults to 0
    o = DistanceOracle.from_points([0.0, 1.0, 10.0])
    rep = audit(o, Clustering(np.array([0, 0, 1]), 2))
    assert rep.num_unstable == 0
    assert rep.mean_violation == 0.0
    # force instability: {0, 10} vs {1}
    rep2 = audit(o, Clustering(np.array([0, 1, 0]), 2))
    assert rep2.num_unstable >= 1
    bad = [v for v in rep2.vi if v > 1 + STABILITY_TOL]
    assert rep2.mean_violation == pytest.approx(float(np.mean(bad)))


def test_cost_is_average_pairwise_within_cluster():
    o = DistanceOracle.from_points([0.0, 2.0, 9.0])
    rep = audit(o, Clustering(np.array([0, 0, 1]), 2))
    # cluster {0,1}: single pair distance 2; singleton contributes 0
    assert rep.cost == pytest.approx(2.0)
    rep_all = audit(o, Clustering(np.array([0, 0, 0]), 1))
    assert rep_all.cost == pytest.approx((2.0 + 9.0 + 7.0) / 3.0)


def test_obj_norms():
    o = DistanceOracle.from_points([0.0, 1.0, 2.0, 3.0])
    c = Clustering(np.array([0, 0, 0, 1]), 2)  # sizes 3, 1
    r1 = audit(o, c, targets=[2, 2], p=1)
    r2 = audit(o, c, targets=[2, 2], p=2)
    rinf = audit(o, c, targets=[2, 2], p=math.inf)
    assert r1.obj == pytest.approx(2.0)
    assert r2.obj == pytest.approx(math.sqrt(2.0))
    assert rinf.obj == pytest.approx(1.0)
    assert audit(o, c).obj is None
    with pytest.raises(ValueError):
        audit(o, c, targets=[2, 2, 2])


def _exact_lp(devs, p):
    """(sum of d**p over whole devs) ** (1/p), in 60-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 60
        total = sum(Decimal(d) ** Decimal(p) for d in devs)
        return float(total ** (1 / Decimal(p))) if total else 0.0


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.integers(1, 4), min_size=1, max_size=4),
    st.data(),
)
def test_obj_matches_an_exact_lp_norm(sizes, data):
    k = len(sizes)
    targets = data.draw(st.lists(
        st.one_of(st.integers(1, 12), st.integers(1, 10**200)), min_size=k, max_size=k))
    p = data.draw(st.one_of(st.sampled_from([1, 2, 3, 2000]), st.floats(1.0, 64.0)))
    labels = np.repeat(np.arange(k), sizes)
    o = DistanceOracle.from_points(np.arange(float(len(labels))))
    obj = audit(o, Clustering(labels, k), targets=targets, p=p).obj
    want = _exact_lp([abs(s - t) for s, t in zip(sizes, targets)], p)
    assert obj == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("targets, p", [([10**200, 2], 2), ([4, 1], 2000)])
def test_obj_does_not_overflow_on_large_deviations_or_orders(targets, p):
    # dev**p alone overflows for both: (1e200)**2 and 2**2000
    o = DistanceOracle.from_points([0.0, 1.0, 7.0, 8.0])
    obj = audit(o, Clustering(np.array([0, 0, 1, 1]), 2), targets=targets, p=p).obj
    assert math.isfinite(obj)
    assert obj == pytest.approx(_exact_lp([abs(2 - t) for t in targets], p), rel=1e-12)


@pytest.mark.parametrize("targets", [[0, 4], [-1, 2.5], [math.nan, 2], [2.5, 1.5], [math.inf, 2]])
def test_obj_rejects_targets_that_are_not_positive_whole_numbers(targets):
    o = DistanceOracle.from_points([0.0, 1.0, 7.0, 8.0])
    c = Clustering(np.array([0, 0, 1, 1]), 2)
    with pytest.raises(ValueError):
        audit(o, c, targets=targets)
    assert audit(o, c, targets=[1.0, 3]).obj == 1.0   # whole floats are sizes too


@pytest.mark.parametrize("p", [math.nan, 0.5, -math.inf])
def test_obj_rejects_norm_orders_below_one_and_nan(p):
    o = DistanceOracle.from_points([0.0, 1.0, 2.0, 3.0])
    c = Clustering(np.array([0, 0, 0, 1]), 2)
    with pytest.raises(ValueError):
        audit(o, c, targets=[2, 2], p=p)


def test_is_t_stable_tracks_max_violation():
    o = DistanceOracle.from_points([0.0, 1.0, 10.0])
    c = Clustering(np.array([0, 1, 0]), 2)
    rep = audit(o, c)
    assert not is_t_stable(o, c, 1.0)
    assert is_t_stable(o, c, rep.max_violation)
    assert is_t_stable(o, c, rep.max_violation * 2)


# --- enumeration and brute force ---------------------------------------------


@pytest.mark.parametrize(
    "n,k,count", [(4, 2, 7), (5, 3, 25), (6, 3, 90), (5, 1, 1), (4, 4, 1)]
)
def test_partition_enumeration_counts(n, k, count):
    # Stirling numbers of the second kind
    got = sum(1 for _ in _partitions_into_k(n, k))
    assert got == count
    independent = sum(1 for _ in all_label_partitions(n, k))
    assert independent == count


def test_partition_enumeration_contents_match_independent():
    mine = {tuple(a) for a in _partitions_into_k(5, 3)}
    theirs = {tuple(a) for a in all_label_partitions(5, 3)}
    assert mine == theirs


def test_brute_force_no_stable_on_four_point_fixture():
    m = fixtures()["fig1-no-stable"]["matrix"]
    got, vi = brute_force(DistanceOracle.from_matrix(m), 2, mode="find-stable")
    assert got is None and vi is None
    best, best_vi = brute_force(DistanceOracle.from_matrix(m), 2, mode="min-maxvi")
    assert best is not None
    assert best_vi > 1.0 + STABILITY_TOL


def test_brute_force_finds_unique_split():
    vals = fixtures()["line-unique"]["values"]
    o = DistanceOracle.from_points(vals)
    got, vi = brute_force(o, 2)
    assert got is not None
    assert [set(b) for b in sorted(clusters(got.assignment), key=min)] == [{0, 1}, {2, 3}]
    assert vi <= 1.0 + STABILITY_TOL


def test_brute_force_guards():
    o = DistanceOracle.from_points(np.zeros((15, 1)))
    with pytest.raises(ValueError):
        brute_force(o, 2)
    small = DistanceOracle.from_points([[0.0], [1.0]])
    with pytest.raises(ValueError):
        brute_force(small, 3)
    with pytest.raises(ValueError):
        brute_force(small, 1, mode="nope")


# --- the one cluster-count rule ----------------------------------------------


# every public solver that takes k, as fn(oracle, points, k)
K_SOLVERS = {
    "brute_force": lambda o, x, k: brute_force(o, k),
    "solve_1d": lambda o, x, k: solve_1d(x[:, 0], k),
    "hst_k_clustering": lambda o, x, k: hst_k_clustering(normalize_leaves(embed_hst(o, 0)), k),
    "cluster_via_embedding": lambda o, x, k: cluster_via_embedding(o, k),
    "exact_enumerate": lambda o, x, k: exact_enumerate(o, k, 0.3),
    "pipeline": lambda o, x, k: pipeline(o, k, 0.3, 4.0),
    "kmeans_pp": lambda o, x, k: baselines.kmeans_pp(x, k),
    "kcenter_greedy": lambda o, x, k: baselines.kcenter_greedy(o, k, 0),
    "random_clustering": lambda o, x, k: baselines.random_clustering(o.n, k),
    "cut_dendrogram": lambda o, x, k: baselines.cut_dendrogram(baselines.linkage(o), k),
    "greedy_prune": lambda o, x, k: baselines.greedy_prune(baselines.linkage(o), o, k),
}


@pytest.mark.parametrize("k", [0, -1, 7])
@pytest.mark.parametrize("solver", sorted(K_SOLVERS))
def test_every_solver_rejects_k_outside_one_to_n(solver, k):
    x = np.array([[0.0, 0.0], [0.5, 0.1], [0.2, 0.4], [9.0, 9.0], [9.5, 9.1], [9.2, 9.4]])
    with pytest.raises(ValueError, match=rf"need [12] <= k <= n, got k={k}, n=6"):
        K_SOLVERS[solver](DistanceOracle.from_points(x), x, k)
