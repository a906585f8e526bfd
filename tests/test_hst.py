import math
import re
import warnings

import numpy as np
import pytest

from ipstable.core import DistanceOracle, audit
from ipstable.hst import (
    Hst,
    cluster_via_embedding,
    embed_hst,
    hst_k_clustering,
    normalize_leaves,
    restrict,
)

from conftest import (
    frontier_embed_hst,
    naive_num_unstable,
    naive_point_distance_matrix,
    node_dist,
    point_dist,
    random_graph_metric,
    random_hst,
    random_points,
    stretch_ratios,
    two_pass_normalize_leaves,
    walk_hst_k_clustering,
    walk_restrict,
)


def _tiny_hst():
    # root 0 at depth 0; children 1, 2; grandchildren under 1: 3, 4
    # weights: depth0 edges 4.0, depth1 edges 2.0
    return Hst(
        parent=[-1, 0, 0, 1, 1],
        level_weights=[4.0, 2.0],
        node_point={2: 0, 3: 1, 4: 2},
    )


def test_node_dist_hand_values():
    h = _tiny_hst()
    # siblings 3, 4 meet at node 1: 2 + 2
    assert node_dist(h, 3, 4) == pytest.approx(4.0)
    # 3 to 2 goes through the root: (2 + 4) + 4
    assert node_dist(h, 3, 2) == pytest.approx(10.0)
    assert node_dist(h, 1, 1) == 0.0
    assert point_dist(h, 1, 2) == pytest.approx(4.0)


def test_point_distance_matrix_is_bitwise_the_node_dist_loop():
    rng = np.random.default_rng(12)
    for _ in range(60):
        h = random_hst(rng, max_depth=int(rng.integers(1, 7)))
        for tree in (h, normalize_leaves(h)):
            assert np.array_equal(tree.point_distance_matrix(), naive_point_distance_matrix(tree))
    # more points than one row chunk holds
    o = DistanceOracle.from_points(random_points(rng, 150, 2))
    h = embed_hst(o, seed=3)
    assert np.array_equal(h.point_distance_matrix(), naive_point_distance_matrix(h))


def test_validate_rejects_non_halving_used_weights():
    with pytest.raises(ValueError):
        Hst(parent=[-1, 0, 1], level_weights=[4.0, 3.0], node_point={2: 0})
    # a non-halving weight beyond the deepest edge is never used: fine
    Hst(parent=[-1, 0], level_weights=[4.0, 3.9], node_point={1: 0})


def test_halving_is_checked_exactly():
    # halving a float is exact, so the check needs no slack
    Hst(parent=[-1, 0, 1], level_weights=[1.0, 0.5], node_point={2: 0})
    with pytest.raises(ValueError, match="halve"):
        Hst(parent=[-1, 0, 1], level_weights=[1.0, np.nextafter(0.5, 1)], node_point={2: 0})


@pytest.mark.parametrize("parent", [
    [-1, 5],        # a parent id past the last node
    [-1, 0.5],      # not an integer
    [-1, False],    # a bool, not a node id
    [-2, 0],        # -2 is not a root marker
    [-1, -1],       # two roots
    [1, 0],         # no root
    [-1, 2, 1],     # a cycle away from the root
])
def test_hst_rejects_bad_parent_ids(parent):
    with pytest.raises(ValueError):
        Hst(parent, [1.0, 0.5], {len(parent) - 1: 0})


def test_validate_rejects_duplicate_points():
    with pytest.raises(ValueError):
        Hst(parent=[-1, 0, 0], level_weights=[1.0], node_point={1: 0, 2: 0})


def test_normalize_makes_uniform_max_depth_leaves():
    h = _tiny_hst()
    norm = normalize_leaves(h)
    assert norm.is_normalized()
    node_of = norm.point_node()
    depths = {norm.depth[node_of[p]] for p in range(3)}
    assert depths == {norm.max_depth()}
    # point 0 moves from depth 1 down a chain of one depth-1 edge (weight 2):
    # its distances gain exactly 2 while deep pairs are untouched
    before = h.point_distance_matrix()
    after = norm.point_distance_matrix()
    assert after[1, 2] == pytest.approx(before[1, 2])  # was already at depth 2
    assert after[0, 1] == pytest.approx(before[0, 1] + 2.0)


def test_normalize_idempotent_and_bounded_growth():
    rng = np.random.default_rng(0)
    for _ in range(20):
        h = random_hst(rng)
        norm = normalize_leaves(h)
        assert norm.is_normalized()
        before = h.point_distance_matrix()
        after = norm.point_distance_matrix()
        off = ~np.eye(len(before), dtype=bool)
        # distances only grow, and by strictly less than a factor of 3
        assert np.all(after[off] >= before[off] - 1e-12)
        assert np.all(after[off] <= 3.0 * before[off] + 1e-12)
        assert norm.n_nodes < 3 * h.n_nodes
        again = normalize_leaves(norm)
        assert again.n_nodes == norm.n_nodes


def test_normalize_rejects_unmapped_shallow_leaf():
    # node 2 is a childless internal-depth node with no point
    with pytest.raises(ValueError):
        normalize_leaves(
            Hst(parent=[-1, 0, 0, 1], level_weights=[4.0, 2.0], node_point={3: 0})
        )


def test_hst_clustering_stable_under_tree_metric():
    rng = np.random.default_rng(1)
    for _ in range(30):
        h = normalize_leaves(random_hst(rng))
        pts = h.points()
        if len(pts) < 2:
            continue
        k = int(rng.integers(1, len(pts) + 1))
        c = hst_k_clustering(h, k)
        assert c.k == k
        m = h.point_distance_matrix()
        assert naive_num_unstable(m, c.assignment) == 0


def test_hst_clustering_k_extremes():
    h = normalize_leaves(_tiny_hst())
    assert hst_k_clustering(h, 1).k == 1
    c = hst_k_clustering(h, 3)
    assert sorted(c.sizes()) == [1, 1, 1]
    with pytest.raises(ValueError):
        hst_k_clustering(h, 4)
    with pytest.raises(ValueError):
        hst_k_clustering(_tiny_hst(), 2)  # not normalized


def test_embed_dominates_original_metric():
    rng = np.random.default_rng(2)
    for trial in range(20):
        n = int(rng.integers(2, 40))
        if trial % 2 == 0:
            m = DistanceOracle.from_points(random_points(rng, n, 3)).matrix()
        else:
            m = random_graph_metric(rng, n)
        oracle = DistanceOracle.from_matrix(m)
        h = embed_hst(oracle, seed=int(rng.integers(1 << 30)))
        dt = h.point_distance_matrix()
        assert dt.shape == m.shape
        assert np.all(dt >= m - 1e-9)


def test_embed_deterministic_per_seed():
    rng = np.random.default_rng(3)
    m = DistanceOracle.from_points(random_points(rng, 25, 2)).matrix()
    oracle = DistanceOracle.from_matrix(m)
    a = embed_hst(oracle, seed=7)
    b = embed_hst(oracle, seed=7)
    assert a.parent == b.parent
    assert a.node_point == b.node_point
    assert np.allclose(a.point_distance_matrix(), b.point_distance_matrix())


def test_embedding_handles_duplicates_and_tiny_inputs():
    o1 = DistanceOracle.from_points([[1.0, 2.0]])
    h1 = embed_hst(o1, seed=0)
    assert h1.points() == [0]
    dup = DistanceOracle.from_points([[0.0], [0.0], [0.0]])
    hd = embed_hst(dup, seed=0)
    # duplicates become sibling leaves under the root: zero original distances
    # inflate to two root edges, which still dominates
    expected = 2.0 * hd.level_weights[0] * (1.0 - np.eye(3))
    assert np.array_equal(hd.point_distance_matrix(), expected)


def test_embedding_of_a_matrix_with_identical_rows_makes_them_sibling_leaves():
    m = np.array([[0, 0, 3, 4], [0, 0, 3, 4], [3, 3, 0, 5], [4, 4, 5, 0]], dtype=float)
    for seed in range(8):
        h = embed_hst(DistanceOracle.from_matrix(m), seed)
        node_of = h.point_node()
        a, b = node_of[0], node_of[1]
        assert h.parent[a] == h.parent[b]
        assert h.size[a] == h.size[b] == 1
        assert np.all(h.point_distance_matrix() >= m)


def _embed_family(rng):
    """Random, tied and duplicate-heavy points under every metric, graph
    metrics, a zero diameter and a single point."""
    for metric in ("euclidean", "manhattan", "chebyshev"):
        for _ in range(15):
            n = int(rng.integers(1, 30))
            x = random_points(rng, n, int(rng.integers(1, 4)))
            yield DistanceOracle.from_points(x, metric)
            yield DistanceOracle.from_points(np.round(x), metric)
            yield DistanceOracle.from_points(np.round(x[rng.integers(0, n // 3 + 1, size=n)]), metric)
    for _ in range(15):
        yield DistanceOracle.from_matrix(random_graph_metric(rng, int(rng.integers(2, 30))))
    yield DistanceOracle.from_points(np.zeros((5, 2)))
    yield DistanceOracle.from_points([[3.0]])


def test_embed_matches_the_frontier_loop():
    for case, o in enumerate(_embed_family(np.random.default_rng(71))):
        for seed in (0, case):
            h, ref = embed_hst(o, seed), frontier_embed_hst(o, seed)
            assert h.parent == ref.parent, case
            assert h.level_weights == ref.level_weights, case
            assert h.node_point == ref.node_point, case


def _outcome(normalize, h):
    try:
        out = normalize(h)
    except ValueError as exc:
        return "error", str(exc)
    return out.parent, out.level_weights, out.node_point


def test_normalize_matches_the_two_pass_splice():
    rng = np.random.default_rng(73)
    for trial in range(300):
        h = random_hst(rng, max_depth=int(rng.integers(1, 7)),
                       p_internal_point=float(rng.choice([0.0, 0.15, 0.5])))
        if trial % 5 == 0:    # drop a leaf's point: an unmapped leaf is an error
            leaf = int(rng.choice(h.leaves()))
            h = Hst(h.parent, h.level_weights, {v: p for v, p in h.node_point.items() if v != leaf})
        assert _outcome(normalize_leaves, h) == _outcome(two_pass_normalize_leaves, h), trial


@pytest.mark.parametrize("far", [3e307, 5e307])
def test_embedding_rejects_a_diameter_whose_tree_distances_overflow(far):
    o = DistanceOracle.from_points(np.array([0.0, far]))
    with pytest.raises(ValueError, match=re.escape(f"diameter {far:g}")):
        embed_hst(o, seed=0)


def test_embedding_of_a_large_but_safe_diameter_stays_finite():
    o = DistanceOracle.from_points(np.array([0.0, 1e307]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = cluster_via_embedding(o, 2)
    assert 1.0 <= res.stretch < math.inf


def test_level_weights_halve_exactly_in_embedding():
    rng = np.random.default_rng(5)
    o = DistanceOracle.from_points(random_points(rng, 30, 2))
    h = embed_hst(o, seed=1)
    used = h.max_depth()
    for d in range(used - 1):
        assert h.level_weights[d + 1] == pytest.approx(h.level_weights[d] / 2.0)


def test_restrict_preserves_distances_and_depths():
    rng = np.random.default_rng(6)
    o = DistanceOracle.from_points(random_points(rng, 20, 2))
    h = normalize_leaves(embed_hst(o, seed=4))
    keep = sorted(int(p) for p in rng.choice(20, size=9, replace=False))
    r = restrict(h, keep)
    assert r.points() == keep  # original ids survive
    big = h.point_distance_matrix()
    small = r.point_distance_matrix()
    for a, pa in enumerate(keep):
        for b, pb in enumerate(keep):
            assert small[a, b] == pytest.approx(big[pa, pb])


def test_cluster_via_embedding_certificate_and_exclusions():
    rng = np.random.default_rng(7)
    for trial in range(12):
        n = int(rng.integers(10, 45))
        o = DistanceOracle.from_points(random_points(rng, n, 2))
        k = int(rng.integers(2, 6))
        eps = float(rng.choice([0.0, 0.05, 0.2, 0.32]))
        res = cluster_via_embedding(o, k, epsilon=eps, seed=trial)
        assert len(res.excluded) == math.ceil(eps * n)
        assert sorted(res.retained + res.excluded) == list(range(n))
        assert res.report.max_violation <= res.stretch * (1 + 1e-9) + 1e-12
        assert res.clustering.k == k


def test_cluster_via_embedding_epsilon_bounds():
    o = DistanceOracle.from_points([[0.0], [1.0], [2.0]])
    with pytest.raises(ValueError):
        cluster_via_embedding(o, 2, epsilon=1.0 / 3.0)
    with pytest.raises(ValueError):
        cluster_via_embedding(o, 2, epsilon=-0.1)


def test_cluster_via_embedding_zero_epsilon_keeps_everything():
    rng = np.random.default_rng(9)
    o = DistanceOracle.from_points(random_points(rng, 15, 2))
    res = cluster_via_embedding(o, 3, epsilon=0.0, seed=2)
    assert res.excluded == []
    assert len(res.retained) == 15


def test_restrict_rejects_a_point_outside_the_hst():
    with pytest.raises(ValueError):
        restrict(_tiny_hst(), [0, 5])


@pytest.mark.parametrize("keep", [
    [0.5, 1.7],     # int() would truncate these to points 0 and 1
    ["1"],          # int() would parse this as point 1
    [True],         # a bool would count as point 1
])
def test_restrict_rejects_point_ids_that_are_not_integers(keep):
    with pytest.raises(ValueError, match="integers"):
        restrict(_tiny_hst(), keep)


def _walk_family(rng):
    """random_hst, its normalize_leaves form, and embed_hst of points with duplicates."""
    for trial in range(40):
        h = random_hst(rng, max_depth=int(rng.integers(1, 6)))
        yield h
        yield normalize_leaves(h)
        base = np.round(random_points(rng, int(rng.integers(1, 25)), 2))
        pts = base[rng.integers(0, len(base), size=len(base) + int(rng.integers(0, 8)))]
        yield embed_hst(DistanceOracle.from_points(pts), seed=trial)


def test_k_clustering_matches_the_ancestor_walk():
    for h in _walk_family(np.random.default_rng(61)):
        h = normalize_leaves(h)
        for k in range(1, len(h.points()) + 1):
            assert np.array_equal(hst_k_clustering(h, k).assignment, walk_hst_k_clustering(h, k))


def test_restrict_matches_the_ancestor_walk():
    rng = np.random.default_rng(67)
    for h in _walk_family(rng):
        pts = h.points()
        keeps = [pts[:1], pts[-1:], pts]
        keeps += [rng.choice(pts, size=int(rng.integers(1, len(pts) + 1)), replace=False)
                  for _ in range(3)]
        for keep in keeps:
            r = restrict(h, keep)
            assert (r.parent, r.level_weights, r.node_point) == walk_restrict(h, keep)


def _stretch_family(rng):
    """(hst, base matrix indexed by point id) pairs: raw random HSTs (point
    depths differ), their normalized and restricted forms, whose points()
    skip ids, and embeddings of random, tied-grid, twin and multi-scale
    points, raw, restricted and normalized."""
    # a deep weight below the rounding of cum puts two leaves at tree
    # distance 0: at base distance 0 their stretch is 0/0, read as inf
    yield Hst([-1, 0, 1, 1], [1.0, 1e-17], {2: 0, 3: 1}), np.zeros((2, 2))
    # points 1 and 4 of six, listed against the node order
    base = np.abs(np.subtract.outer(np.arange(6.0) ** 2, np.arange(6.0) ** 2))
    yield Hst([-1, 0, 0], [16.0], {1: 4, 2: 1}), base
    # points 0 .. 2 of five: the first rows, but not every row
    yield Hst([-1, 0, 0, 0], [16.0], {1: 2, 2: 0, 3: 1}), base[:5, :5]
    for _ in range(30):
        h = random_hst(rng, max_depth=int(rng.integers(1, 7)))
        m = len(h.points())
        base = np.triu(np.round(rng.uniform(0.0, 3.0, (m, m))), 1)  # ties and zeros
        base += base.T
        keep = np.flatnonzero(rng.random(m) < 0.6)
        yield h, base
        yield normalize_leaves(h), base
        if len(keep):
            yield restrict(h, keep), base
    grid = np.round(random_points(rng, 150, 2))
    clouds = [random_points(rng, 150, 3), grid, grid[rng.integers(0, 50, size=120)],
              np.concatenate([random_points(rng, 30, 2, 10.0 ** e) for e in range(-4, 5, 2)])]
    for seed, x in enumerate(clouds):
        o = DistanceOracle.from_points(x)
        h = embed_hst(o, seed)
        keep = np.flatnonzero(rng.random(o.n) < 0.8)
        yield h, o.matrix()
        yield normalize_leaves(restrict(h, keep)), o.matrix()


def test_point_stretch_is_bitwise_the_ratio_matrix_max():
    skipped = 0
    for case, (h, base) in enumerate(_stretch_family(np.random.default_rng(79))):
        pts = h.points()
        skipped += pts != list(range(len(base)))
        want = stretch_ratios(naive_point_distance_matrix(h), base[np.ix_(pts, pts)]).max(axis=1)
        assert np.array_equal(h.point_stretch(base), want), case
    assert skipped > 20


def test_embedding_reads_only_its_inputs_matrix(monkeypatch):
    # the stretches and the audit read the input's matrix through the
    # retained ids: no oracle other than the input builds or hands one out
    o = DistanceOracle.from_points(random_points(np.random.default_rng(103), 120, 3))
    calls = []
    matrix = DistanceOracle.matrix

    def spy(self):
        calls.append(self)
        return matrix(self)

    monkeypatch.setattr(DistanceOracle, "matrix", spy)
    res = cluster_via_embedding(o, 4, epsilon=0.2)
    assert len(res.excluded) == 24 and calls
    assert all(oracle is o for oracle in calls)


def test_exclusion_ranks_by_stretch_then_point_id():
    rng = np.random.default_rng(83)
    tied_at_inf = 0
    for trial in range(16):
        n = int(rng.integers(12, 60))
        x = np.round(random_points(rng, n, 2, scale=2.0))     # tied distances and twins
        o = DistanceOracle.from_points(x)
        res = cluster_via_embedding(o, 2, epsilon=0.3, seed=trial)
        per_point = stretch_ratios(naive_point_distance_matrix(embed_hst(o, trial)),
                                   o.matrix()).max(axis=1)
        drop = math.ceil(0.3 * n)
        assert res.excluded == sorted(sorted(range(n), key=lambda i: (-per_point[i], i))[:drop])
        tied_at_inf += np.count_nonzero(per_point == np.inf) > drop
        kept = res.retained
        sub = normalize_leaves(restrict(embed_hst(o, trial), kept))
        assert res.stretch == stretch_ratios(naive_point_distance_matrix(sub),
                                             o.matrix()[np.ix_(kept, kept)]).max()
    assert tied_at_inf    # the id order broke a tie among infinite stretches


def test_tree_distances_with_node_ids_past_int16():
    # 65,536 nodes: the root's children 1..65534, and node 65535 below node
    # 65534. In int16, node 65535 would read -1, the stand-in above the
    # depth-1 point 0, and give points 0 and 1 a common depth-2 ancestor
    parent = [-1] + [0] * 65534 + [65534]
    h = Hst(parent, [4.0, 2.0], {1: 0, 65535: 1, 40000: 2, 65534: 3})
    base = np.ones((4, 4)) - np.eye(4)
    assert np.array_equal(h.point_distance_matrix(), naive_point_distance_matrix(h))
    assert np.array_equal(h.point_stretch(base),
                          stretch_ratios(naive_point_distance_matrix(h), base).max(axis=1))


def test_embed_scan_past_the_last_window_matches_the_frontier_loop():
    # 260 points on 200 integer sites: below radius 1 a point covers only
    # itself and its twins, so points late in the center order scan windows
    # of 32, 64 and 128 columns and then one that runs past the last center
    x = np.arange(200.0)[np.random.default_rng(89).integers(0, 200, size=260)]
    o = DistanceOracle.from_points(x)
    for seed in range(3):
        h, ref = embed_hst(o, seed), frontier_embed_hst(o, seed)
        assert (h.parent, h.level_weights, h.node_point) == (ref.parent, ref.level_weights,
                                                            ref.node_point), seed
