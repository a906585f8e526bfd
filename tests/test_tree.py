import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipstable import tree as tree_mod
from ipstable.core import STABILITY_TOL, Clustering, DistanceOracle, audit, brute_force
from ipstable.tree import WeightedTree, rotate, solve_tree2

from conftest import (
    bfs_solve_tree2,
    dfs_root_fields,
    naive_num_unstable,
    naive_vi,
    random_tree,
)


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
    with pytest.raises(ValueError):
        WeightedTree(2, [(0, 1, 1.0)], root=2)  # root outside the tree


@pytest.mark.parametrize(
    "n, edges, root",
    [
        (3, [(0, 1.7, 1.0), (1, 2, 2.0)], 0),
        (3, [(0, True, 1.0), (1, 2, 2.0)], 0),
        (3, [(0, "1", 1.0), (1, 2, 2.0)], 0),
        (3.0, [(0, 1, 1.0), (1, 2, 2.0)], 0),
        (3, [(0, 1, 1.0), (1, 2, 2.0)], 1.5),
        (3, [(0, 1, 1.0), (1, 2, 2.0)], True),
    ],
    ids=["float-end", "bool-end", "str-end", "float-n", "float-root", "bool-root"],
)
def test_tree_ids_must_be_integers(n, edges, root):
    """Node ids follow Hst's rule: no truncation of 1.7, no True as 1."""
    with pytest.raises(ValueError, match="integers"):
        WeightedTree(n, edges, root=root)
    assert WeightedTree(np.int64(3), [(np.int64(0), 1, 1.0), (1, 2, 2.0)]).edges[0][:2] == (0, 1)


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
    # the solver's distance sums hit the same bound before any arithmetic warns
    with pytest.raises(ValueError, match="overflow"):
        solve_tree2(path)


def test_furthest_neighbor_ties_to_smallest_id():
    # node 1 sees both branch sums equal: 0 side and 2 side symmetric
    t = WeightedTree(3, [(0, 1, 1.0), (1, 2, 1.0)])
    assert rotate(t, 1) == 0


def test_furthest_neighbor_weighs_average_branch_distance():
    # the branch through 0 has the larger sum (three nodes at 2 each), the
    # branch through 4 the larger average (one node at 5)
    t = WeightedTree(5, [(0, 1, 2.0), (0, 2, 0.5), (0, 3, 0.5), (1, 4, 5.0)], root=1)
    assert rotate(t, 1) == 4


def test_rotate_moves_one_step():
    # from an endpoint, rotate names one of its own neighbors
    t = WeightedTree(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
    assert rotate(t, 2) in {1, 3}


def test_split_stability_agrees_with_the_audit_at_an_ulp():
    # on the path 1-0-2, total[0] - d(0, 2) rounds an ulp below d(0, 1) and
    # would read as stable; the branch sum is d(0, 1), the audit's own sum
    edges = [(0, 1, 0.9046800715504857), (0, 2, 0.9046800706458055)]
    t = WeightedTree(3, edges)
    assert tree_mod._stable(t, 0, 2) is False
    assert audit(t.to_oracle(), Clustering(np.array([0, 0, 1]), 2)).num_unstable == 1
    for root in range(3):
        rooted = WeightedTree(3, edges, root=root)
        assert audit(rooted.to_oracle(), solve_tree2(rooted)).num_unstable == 0


def test_boundary_clustering_partitions():
    # the boundary (0, 0^f) splits the nodes into two nonempty sides
    t = random_tree(np.random.default_rng(0), 12)
    f = rotate(t, 0)
    side, other = t.component(0, f), t.component(f, 0)
    assert sorted(side + other) == list(range(12))
    assert side and other


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


@st.composite
def _small_trees(draw):
    """Trees on 2..10 nodes with shuffled labels and a random root.

    Weights are either small integers, so branch averages tie often, or floats.
    """
    n = draw(st.integers(2, 10))
    label = draw(st.permutations(range(n)))
    weight = draw(st.sampled_from([
        st.integers(1, 3).map(float),
        st.floats(0.1, 5.0),
    ]))
    edges = [(label[draw(st.integers(0, v - 1))], label[v], draw(weight)) for v in range(1, n)]
    return WeightedTree(n, edges, root=draw(st.integers(0, n - 1)))


@settings(max_examples=80, deadline=None)
@given(_small_trees())
def test_solve_tree2_is_stable_where_brute_force_finds_a_stable_split(t):
    got = solve_tree2(t)
    assert max(naive_vi(t.distance_matrix(), got.assignment)) <= 1.0 + STABILITY_TOL
    found, _ = brute_force(t.to_oracle(), 2)
    assert found is not None


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
    with pytest.raises(ValueError):
        t.component(0, 2)  # not an edge


def _shaped_trees(rng):
    """Random, path and star trees with shuffled labels and a random root."""
    for trial in range(60):
        n = int(rng.integers(1, 120))
        shape = trial % 3
        parents = [0 if shape == 2 else v - 1 if shape == 1 else int(rng.integers(0, v))
                   for v in range(1, n)]
        label = rng.permutation(n)
        edges = [(int(label[u]), int(label[v + 1]), float(rng.uniform(0.1, 3.0)))
                 for v, u in enumerate(parents)]
        yield WeightedTree(n, edges, root=int(rng.integers(0, n)))


def test_root_pass_matches_the_depth_first_reference():
    for t in _shaped_trees(np.random.default_rng(37)):
        fields = (t.order, t.pos, t.parent, t.parent_weight, t.depth, t.size)
        assert fields == dfs_root_fields(t)


def test_distance_matrix_is_bitwise_the_bfs_rows():
    for t in _shaped_trees(np.random.default_rng(41)):
        bfs = np.vstack([t.dists_from(u) for u in range(t.n)])
        assert np.array_equal(t.distance_matrix(), bfs)


def test_distance_sums_match_the_matrix():
    for t in _shaped_trees(np.random.default_rng(43)):
        down, total = t.distance_sums()
        m = t.distance_matrix()
        for v in range(t.n):
            subtree = t.order[t.pos[v] : t.pos[v] + t.size[v]]
            assert down[v] == pytest.approx(m[v, subtree].sum(), rel=1e-12)
            assert total[v] == pytest.approx(m[v].sum(), rel=1e-12)


def test_solver_matches_bfs_reference_on_random_trees():
    rng = np.random.default_rng(47)
    trees = [random_tree(rng, int(rng.integers(2, 201))) for _ in range(60)]
    trees += [t for t in _shaped_trees(rng) if t.n >= 2]
    for trial, t in enumerate(trees):
        assert np.array_equal(solve_tree2(t).assignment, bfs_solve_tree2(t)), trial


def test_solver_matches_bfs_reference_on_tied_integer_trees():
    # identical integer-weight legs hung from a hub: branch sums are exact, the
    # hub's furthest branches tie exactly, and the smallest-id rule decides
    rng = np.random.default_rng(53)
    for trial in range(100):
        m, copies = int(rng.integers(1, 8)), int(rng.integers(2, 5))
        leg = [(int(rng.integers(0, v)), v, float(rng.integers(1, 4))) for v in range(1, m)]
        hub_w = float(rng.integers(1, 4))
        edges = []
        for c in range(copies):
            off = 1 + c * m
            edges.append((0, off, hub_w))
            edges += [(off + u, off + v, w) for u, v, w in leg]
        n = 1 + m * copies
        label = rng.permutation(n)
        edges = [(int(label[u]), int(label[v]), w) for u, v, w in edges]
        t = WeightedTree(n, edges, root=int(label[0]) if trial % 2 else 0)
        hub_id = int(label[0])
        hub = sorted(s / c for s, c in (tree_mod._branch_sum(t, hub_id, v) for v, _ in t.adj[hub_id]))
        assert hub[-1] == hub[-2]
        assert np.array_equal(solve_tree2(t).assignment, bfs_solve_tree2(t)), trial


@pytest.mark.parametrize("n, edges, rotations", [
    (21, [(i, i + 1, 1.0) for i in range(20)], 10),
    (6, [(0, i, 1.0) for i in range(1, 6)], 1),
], ids=["unit-path", "star"])
def test_rotate_and_component_call_counts(monkeypatch, n, edges, rotations):
    """The tracer's tree.rotations and tree.bfs_calls count these two calls:
    one rotate per boundary position and one component per solve."""
    calls = {"rotate": 0, "component": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(tree_mod, "rotate", counted("rotate", tree_mod.rotate))
    monkeypatch.setattr(WeightedTree, "component", counted("component", WeightedTree.component))
    solve_tree2(WeightedTree(n, edges, root=0))
    assert calls == {"rotate": rotations, "component": 1}
