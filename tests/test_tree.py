import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipstable import tree as tree_mod
from ipstable.core import (
    STABILITY_TOL,
    Clustering,
    DistanceOracle,
    audit,
    brute_force,
    is_t_stable,
)
from ipstable.tree import WeightedTree, rotate, solve_tree2

from conftest import (
    bfs_dists_from,
    bfs_solve_tree2,
    clusters,
    dfs_root_fields,
    naive_num_unstable,
    naive_vi,
    random_clustering,
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
        for block in clusters(c.assignment):
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
        bfs = np.vstack([bfs_dists_from(t, u) for u in range(t.n)])
        assert np.array_equal(t.distance_matrix(), bfs)
        for u in range(t.n):
            assert np.array_equal(t.dists_from(u), bfs[u]), u


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


# --- the tree backend of cluster sums -----------------------------------------


def _clusterings(rng, n):
    """Random clusterings at k = 1, 2 and a drawn k."""
    ks = sorted({1, min(2, n), int(rng.integers(1, n + 1))})
    return [random_clustering(rng, n, k) for k in ks]


def _exact_sums_to(tree, mask):
    """Total distance from every node to mask's nodes, in Fractions, by one
    walk from each node."""
    out = []
    for u in range(tree.n):
        dist, stack = {u: Fraction(0)}, [u]
        while stack:
            x = stack.pop()
            for y, w in tree.adj[x]:
                if y not in dist:
                    dist[y] = dist[x] + Fraction(w)
                    stack.append(y)
        out.append(sum((dist[y] for y in range(tree.n) if mask[y]), Fraction(0)))
    return out


def _assert_near_exact(tree, mask):
    """sums_to is within 2n * 2^-53 of the exact sum, relative to each sum."""
    got = tree.sums_to(np.asarray(mask, dtype=bool))
    bound = Fraction(2 * tree.n, 2**53)
    for v, (g, e) in enumerate(zip(got.tolist(), _exact_sums_to(tree, mask))):
        assert abs(Fraction(g) - e) <= bound * e, (v, g, float(e))


def test_tree_sums_to_is_the_cluster_sums_column():
    # every backend has one kernel for a column and for the n x k sums: a
    # tree and its restriction, the line, the tree's matrix and 2-D points
    rng = np.random.default_rng(59)
    for t in _shaped_trees(rng):
        keep = rng.permutation(t.n)[: max(1, t.n // 2)]
        oracles = (t.to_oracle(), t.to_oracle().sub_oracle(keep),
                   DistanceOracle.from_points(rng.normal(size=t.n)),
                   DistanceOracle.from_matrix(t.to_oracle().matrix()),
                   DistanceOracle.from_points(rng.normal(size=(t.n, 2))))
        for o in oracles:
            for c in _clusterings(rng, o.n):
                sums = o.cluster_sums(c)
                for i in range(c.k):
                    assert o._sums_to(c.assignment == i).tobytes() == sums[:, i].tobytes()


def test_tree_cluster_sums_on_integer_weights_are_the_matrix_product():
    """Every sum of whole weights is exact, so both backends agree bit for bit."""
    rng = np.random.default_rng(61)
    for t in _shaped_trees(rng):
        t = WeightedTree(t.n, [(u, v, float(rng.integers(1, 6))) for u, v, _ in t.edges], t.root)
        o = t.to_oracle()
        for c in _clusterings(rng, t.n):
            onehot = np.zeros((t.n, c.k))
            onehot[np.arange(t.n), c.assignment] = 1.0
            assert np.array_equal(o.cluster_sums(c), o.matrix() @ onehot)


@st.composite
def _multiscale_trees(draw):
    """Random, path, star and tied trees on 1..25 nodes with shuffled labels
    and a random root, plus a node mask. Weights are a mantissa in [1, 10)
    times 10^e for e in -8, -4, 0, 4 and 8, or 1 and 2 only on the tied
    trees."""
    n = draw(st.integers(1, 25))
    shape = draw(st.sampled_from(["random", "path", "star", "tied"]))
    label = draw(st.permutations(range(n)))
    if shape == "tied":
        weight = st.sampled_from([1.0, 2.0])
    else:
        weight = st.builds(lambda f, e: f * 10.0**e, st.floats(1.0, 10.0),
                           st.sampled_from([-8, -4, 0, 4, 8]))
    edges = []
    for v in range(1, n):
        u = 0 if shape == "star" else v - 1 if shape == "path" else draw(st.integers(0, v - 1))
        edges.append((label[u], label[v], draw(weight)))
    tree = WeightedTree(n, edges, root=draw(st.integers(0, n - 1)))
    return tree, draw(st.lists(st.booleans(), min_size=n, max_size=n))


@settings(max_examples=300, deadline=None)
@given(_multiscale_trees())
def test_tree_sums_to_is_near_the_exact_sums(tree_and_mask):
    _assert_near_exact(*tree_and_mask)


def test_tree_sums_to_adds_only_across_a_heavy_edge():
    """Four leaves hang from node 1 at 1e-6, and node 1 from node 0 at 1e6.
    Node 1's sum to the leaves is 4e-6; the subtracting reroot step
    total[1] = total[0] + w * (m - 2 cnt[1]) rounds on node 0's scale and
    gives 4.00003e-6."""
    t = WeightedTree(6, [(0, 1, 1e6)] + [(1, j, 1e-6) for j in range(2, 6)])
    mask = [False, False, True, True, True, True]
    assert t.sums_to(np.array(mask))[1] == pytest.approx(4e-6, rel=1e-15)
    _assert_near_exact(t, mask)


def test_tree_audit_builds_no_matrix():
    rng = np.random.default_rng(67)
    for t in _shaped_trees(rng):
        o = t.to_oracle()
        for c in _clusterings(rng, t.n):
            audit(o, c)
            is_t_stable(o, c, 2.0)
        assert o._matrix is None


def test_tree_audit_counts_the_naive_unstable_points():
    rng = np.random.default_rng(71)
    for trial, t in enumerate(_shaped_trees(rng)):
        m = t.distance_matrix()
        clusterings = _clusterings(rng, t.n) + ([solve_tree2(t)] if t.n >= 2 else [])
        for c in clusterings:
            rep = audit(t.to_oracle(), c)
            assert rep.num_unstable == naive_num_unstable(m, c.assignment), trial
            np.testing.assert_allclose(rep.vi, naive_vi(m, c.assignment), rtol=1e-12, atol=0)


# A fresh interpreter writes a random tree and a path on 20000 nodes, caps
# its address space at its current size plus 200 MB and runs solve-tree2,
# an audit of its output and an audit that excludes node 0 on both; the
# n x n matrix alone is 3.2 GB.
_CAPPED_TREE_RUN = """
import resource, sys
import numpy as np
from ipstable import cli
d, n = sys.argv[1], 20000
rng = np.random.default_rng(0)
weights = rng.uniform(0.1, 3.0, n - 1).tolist()
parents = {"random": (rng.random(n - 1) * np.arange(1, n)).astype(int).tolist(),
           "path": list(range(n - 1))}
for name, parent in parents.items():
    with open(f"{d}/{name}.tree", "w") as fh:
        fh.writelines(f"{u} {v} {w!r}\\n" for v, u, w in zip(range(1, n), parent, weights))
with open("/proc/self/statm") as fh:
    used = int(fh.read().split()[0]) * resource.getpagesize()
cap = used + (200 << 20)
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
for name in parents:
    tree = f"{d}/{name}.tree"
    rc = cli.main(["solve", "--input", tree, "--metric", "tree", "--algo", "solve-tree2",
                   "--out", tree + ".txt"])
    assert rc == 0, (name, rc)
    rc = cli.main(["audit", "--input", tree, "--metric", "tree", "--assignment", tree + ".txt",
                   "--out", tree + ".audit.json"])
    assert rc == 0, (name, rc)
    with open(tree + ".txt") as fh:
        labels = fh.read().split()
    with open(tree + ".excluded.txt", "w") as fh:
        fh.write("-1\\n" + "\\n".join(labels[1:]) + "\\n")
    rc = cli.main(["audit", "--input", tree, "--metric", "tree",
                   "--assignment", tree + ".excluded.txt", "--vi", "--out", tree + ".excluded.json"])
    assert rc in (0, 2), (name, rc)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="/proc/self/statm as on Linux")
def test_large_tree_solve_and_audit_run_under_an_address_space_cap(tmp_path):
    src = str(Path(tree_mod.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-c", _CAPPED_TREE_RUN, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    for name in ("random", "path"):
        for report in (f"{name}.tree.txt.report.json", f"{name}.tree.audit.json"):
            assert json.loads((tmp_path / report).read_text())["num_unstable"] == 0
        excluded = json.loads((tmp_path / f"{name}.tree.excluded.json").read_text())
        assert len(excluded["vi"]) == 19999
