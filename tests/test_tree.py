import math

import numpy as np
import pytest

from ipstable.core import DistanceOracle, audit
from ipstable.tree import (
    BoundaryEdge,
    WeightedTree,
    boundary_clustering,
    furthest_neighbor,
    rotate,
    solve_tree2,
)

from conftest import naive_num_unstable, random_tree


def _audit_tree(tree, clustering):
    return audit(tree.to_oracle(), clustering)


def test_distance_matrix_hand_values():
    #    0 -2- 1 -3- 2
    #          |
    #          1
    #          3
    t = WeightedTree(4, [(0, 1, 2.0), (1, 2, 3.0), (1, 3, 1.0)])
    m = t.distance_matrix()
    assert m[0, 2] == pytest.approx(5.0)
    assert m[0, 3] == pytest.approx(3.0)
    assert m[2, 3] == pytest.approx(4.0)
    assert t.dists_from(2)[3] == pytest.approx(4.0)


def test_tree_validation():
    with pytest.raises(ValueError):
        WeightedTree(3, [(0, 1, 1.0)])  # disconnected
    with pytest.raises(ValueError):
        WeightedTree(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])  # cycle
    with pytest.raises(ValueError):
        WeightedTree(2, [(0, 1, -1.0)])  # negative weight


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_tree_weights_must_be_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        WeightedTree(3, [(0, 1, 1.0), (1, 2, bad)])


def test_tree_distances_that_overflow_are_rejected():
    # both weights are finite; the path 0-1-2 is not
    with pytest.raises(ValueError, match="overflow"):
        WeightedTree(3, [(0, 1, 1e308), (1, 2, 1e308)])
    # every distance is finite, but an audit row sum would not be
    path = WeightedTree(11, [(i, i + 1, 1e307) for i in range(10)])
    with pytest.raises(ValueError, match="overflow"):
        path.to_oracle()


def test_furthest_neighbor_ties_to_smallest_id():
    # node 1 sees both branch sums equal: 0 side and 2 side symmetric
    t = WeightedTree(3, [(0, 1, 1.0), (1, 2, 1.0)])
    assert furthest_neighbor(t, 1) == 0


def test_furthest_neighbor_weighs_average_branch_distance():
    # branch through 2 carries two nodes far away; branch to 0 is close
    t = WeightedTree(4, [(0, 1, 1.0), (1, 2, 5.0), (2, 3, 1.0)])
    assert furthest_neighbor(t, 1) == 2


def test_boundary_clustering_partitions():
    t = random_tree(np.random.default_rng(0), 12)
    b = BoundaryEdge(0, sorted(w for w, _ in t.adj[0])[0])
    c = boundary_clustering(t, b)
    assert c.k == 2
    assert sum(c.sizes()) == 12


def test_rotate_moves_one_step():
    t = WeightedTree(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
    b = rotate(t, BoundaryEdge(1, 2), 2)
    assert (b.u, b.v) in {(2, 1), (2, 3)}


def test_two_node_tree():
    t = WeightedTree(2, [(0, 1, 3.0)])
    c = solve_tree2(t)
    assert sorted(c.sizes()) == [1, 1]
    assert _audit_tree(t, c).num_unstable == 0


def test_path_tree_agrees_with_line_solver_stability():
    rng = np.random.default_rng(4)
    for _ in range(10):
        n = int(rng.integers(3, 30))
        gaps = rng.uniform(0.1, 5.0, size=n - 1)
        t = WeightedTree(n, [(i, i + 1, float(g)) for i, g in enumerate(gaps)])
        c = solve_tree2(t)
        assert _audit_tree(t, c).num_unstable == 0


def test_star_and_caterpillar_trees():
    rng = np.random.default_rng(8)
    star = WeightedTree(8, [(0, i, float(rng.uniform(0.5, 4))) for i in range(1, 8)])
    assert _audit_tree(star, solve_tree2(star)).num_unstable == 0
    # caterpillar: spine with legs
    edges = [(i, i + 1, 1.0) for i in range(4)]
    edges += [(i, i + 5, 0.3) for i in range(4)]
    cat = WeightedTree(9, edges)
    assert _audit_tree(cat, solve_tree2(cat)).num_unstable == 0


def test_random_trees_always_stable():
    rng = np.random.default_rng(17)
    for _ in range(40):
        n = int(rng.integers(2, 80))
        t = random_tree(rng, n)
        c = solve_tree2(t)
        assert c.k == 2
        assert _audit_tree(t, c).num_unstable == 0


def test_solver_output_is_an_edge_cut():
    # both clusters stay connected in the tree: the cut is a single edge
    rng = np.random.default_rng(23)
    for _ in range(10):
        n = int(rng.integers(3, 40))
        t = random_tree(rng, n)
        c = solve_tree2(t)
        for block in c.clusters():
            block = set(int(b) for b in block)
            seen = {min(block)}
            frontier = [min(block)]
            while frontier:
                u = frontier.pop()
                for w, _ in t.adj[u]:
                    if w in block and w not in seen:
                        seen.add(w)
                        frontier.append(w)
            assert seen == block


def test_small_trees_exhaustive_split_check():
    rng = np.random.default_rng(31)
    for _ in range(20):
        n = int(rng.integers(2, 10))
        t = random_tree(rng, n)
        m = t.distance_matrix()
        stable_cuts = []
        for drop_v in range(1, n):  # each edge: (parent[v], v) in a rooted view
            labels = _edge_cut_labels(t, drop_v)
            if labels is not None and naive_num_unstable(m, labels) == 0:
                stable_cuts.append(labels)
        assert stable_cuts, "every tree admits a stable 2-cut"
        got = solve_tree2(t)
        assert naive_num_unstable(m, got.assignment) == 0


def _edge_cut_labels(tree, v):
    """Labels for cutting the edge between v and its BFS parent from node 0."""
    parent = {0: None}
    order = [0]
    for u in order:
        for w, _ in tree.adj[u]:
            if w not in parent:
                parent[w] = u
                order.append(w)
    if v not in parent or parent[v] is None:
        return None
    side = {v}
    frontier = [v]
    while frontier:
        u = frontier.pop()
        for w, _ in tree.adj[u]:
            if w != parent[u] and w not in side and parent.get(w) == u:
                side.add(w)
                frontier.append(w)
    return [1 if i in side else 0 for i in range(tree.n)]


def test_component_helper():
    t = WeightedTree(5, [(0, 1, 1.0), (1, 2, 1.0), (1, 3, 1.0), (3, 4, 1.0)])
    keep_side = t.component(3, 1)
    assert set(keep_side) == {3, 4}
    assert set(t.component(1, 3)) == {0, 1, 2}
