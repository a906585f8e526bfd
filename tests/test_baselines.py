import math

import networkx as nx
import numpy as np
import pytest
from scipy.cluster.hierarchy import leaves_list

from ipstable import baselines, cli
from ipstable.core import (
    STABILITY_TOL,
    Clustering,
    DistanceOracle,
    audit,
    stable_limit,
)
from ipstable.baselines import (
    Dendrogram,
    cut_dendrogram,
    greedy_prune,
    kcenter_greedy,
    kmeans_pp,
    linkage,
    lloyd,
    random_clustering,
)

from conftest import (
    cluster_averages,
    clusters,
    dendrogram_leaves,
    max_pick_cut,
    nearest_foreign,
    per_cluster_lloyd,
    planted,
    random_points,
    reaudit_prune,
)


def test_lloyd_monotone_inertia_without_repairs():
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = random_points(rng, 50, 2)
        init = x[rng.choice(50, size=4, replace=False)]
        assign, centers, history, n_repairs = lloyd(x, init)
        if n_repairs == 0:
            assert all(b <= a + 1e-9 for a, b in zip(history, history[1:]))
        assert len(np.unique(assign)) == 4
        assert centers.shape == (4, 2)


def test_lloyd_repairs_empty_clusters():
    # two tight groups, three requested centers, one doomed to go empty
    x = np.array([[0.0, 0.0], [0.1, 0.0], [10.0, 0.0], [10.1, 0.0]])
    init = np.array([[0.05, 0.0], [10.05, 0.0], [500.0, 0.0]])
    assign, _, _, n_repairs = lloyd(x, init)
    assert n_repairs >= 1
    assert len(np.unique(assign)) == 3


def test_kmeans_pp_determinism_and_validity():
    rng = np.random.default_rng(1)
    x = random_points(rng, 40, 3)
    a = kmeans_pp(x, 5, seed=3)
    b = kmeans_pp(x, 5, seed=3)
    assert np.array_equal(a.assignment, b.assignment)
    assert a.k == 5
    c = kmeans_pp(x, 5, seed=4)
    assert c.k == 5
    with pytest.raises(ValueError):
        kmeans_pp(x, 41)


@pytest.mark.parametrize("d", [1, 2, 6, 8])
def test_lloyd_centers_are_the_per_cluster_means_bit_for_bit(d):
    """bincount centers (two or more columns) and per-cluster sums (one
    column) give the reference's assignment, centers, inertias and repairs,
    on spread-out scales, duplicate points and repeated starting centers."""
    rng = np.random.default_rng(d)
    repairs = 0
    for trial in range(12):
        n = int(rng.integers(5, 300))
        x = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-3, 3, size=d)
        if trial % 3 == 0:
            x = x[rng.integers(0, max(2, n // 6), size=n)]
        k = int(rng.integers(2, min(n, 40) + 1))
        # repeated starting centers leave clusters empty, so Lloyd repairs them
        start = x[rng.choice(n, k, replace=trial % 2 == 1)]
        got, want = lloyd(x, start), per_cluster_lloyd(x, start)
        assert np.array_equal(got[0], want[0]), (trial, n, k)
        assert got[1].tobytes() == want[1].tobytes(), (trial, n, k)
        assert got[2:] == want[2:], (trial, n, k)
        repairs += got[3]
    assert repairs > 0


@pytest.mark.parametrize("d", [1, 6])
def test_kmeans_pp_equals_seeding_with_the_reference_lloyd(monkeypatch, d):
    rng = np.random.default_rng(10 + d)
    x = rng.normal(size=(200, d))
    got = [kmeans_pp(x, k, seed=seed).assignment for k in (2, 10, 50) for seed in range(4)]
    monkeypatch.setattr(baselines, "lloyd", per_cluster_lloyd)
    want = [kmeans_pp(x, k, seed=seed).assignment for k in (2, 10, 50) for seed in range(4)]
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_kmeans_pp_init_override_is_lloyd_fixed_point_aware():
    # centers placed exactly on two tight blobs stay there
    x = np.vstack([np.zeros((3, 2)), np.ones((3, 2)) * 9])
    assign, _, _, _ = lloyd(x, x[[0, 3]])
    blocks = sorted(sorted(int(i) for i in b) for b in clusters(assign))
    assert blocks == [[0, 1, 2], [3, 4, 5]]


def test_kcenter_farthest_first_order():
    vals = np.array([[0.0], [1.0], [10.0], [11.0], [30.0]])
    o = DistanceOracle.from_points(vals)
    c = kcenter_greedy(o, 3, first=0)
    # farthest from 0 is 30; then the point maximizing min-distance is 10 or 11
    assert c.assignment[0] == 0
    assert c.assignment[4] == 1
    assert c.assignment[2] == c.assignment[3] == 2


def test_kcenter_survives_duplicates():
    o = DistanceOracle.from_points(np.zeros((6, 2)))
    c = kcenter_greedy(o, 3, first=0)
    assert c.k == 3
    assert sorted(len(b) for b in clusters(c.assignment)) == [1, 1, 4]
    with pytest.raises(ValueError):
        kcenter_greedy(o, 2, first=9)


def test_single_linkage_merge_heights_match_mst():
    rng = np.random.default_rng(2)
    x = random_points(rng, 24, 2)
    o = DistanceOracle.from_points(x)
    heights = linkage(o, "single").z[:, 2]
    m = o.matrix()
    g = nx.Graph()
    for i in range(24):
        for j in range(i + 1, 24):
            g.add_edge(i, j, weight=float(m[i, j]))
    mst_weights = sorted(d["weight"] for _, _, d in nx.minimum_spanning_tree(g).edges(data=True))
    assert np.allclose(sorted(heights), mst_weights)


def test_cut_dendrogram_equals_threshold_components():
    rng = np.random.default_rng(3)
    x = random_points(rng, 30, 2)
    o = DistanceOracle.from_points(x)
    tree = linkage(o, "single")
    for k in (2, 4, 7):
        c = cut_dendrogram(tree, k)
        assert c.k == k
        # single-linkage k clusters = components of the graph on edges
        # strictly below the k-th largest merge height
        heights = tree.z[:, 2].tolist()
        cutoff = sorted(heights, reverse=True)[k - 2]
        m = o.matrix()
        g = nx.Graph()
        g.add_nodes_from(range(30))
        for i in range(30):
            for j in range(i + 1, 30):
                if m[i, j] < cutoff - 1e-12:
                    g.add_edge(i, j)
        comps = {frozenset(comp) for comp in nx.connected_components(g)}
        mine = {frozenset(int(i) for i in b) for b in clusters(c.assignment)}
        assert mine == comps


def test_linkage_variants_differ_and_validate():
    rng = np.random.default_rng(4)
    x = random_points(rng, 20, 2)
    o = DistanceOracle.from_points(x)
    for variant in ("single", "average", "complete"):
        tree = linkage(o, variant)
        assert sorted(leaves_list(tree.z)) == list(range(20))
        c = cut_dendrogram(tree, 4)
        assert c.k == 4
    with pytest.raises(ValueError):
        linkage(o, "ward2000")


def test_deep_chain_dendrogram_leaves_iterative():
    # a long 1-D run gives a maximally unbalanced single-linkage tree
    vals = np.arange(3000, dtype=float).reshape(-1, 1) ** 1.001
    o = DistanceOracle.from_points(vals)
    tree = linkage(o, "single")
    assert len(leaves_list(tree.z)) == 3000  # must not hit the recursion limit
    assert tree.order.tolist() == leaves_list(tree.z).tolist()


def test_greedy_prune_matches_exhaustive_candidates():
    rng = np.random.default_rng(5)
    for measure in ("num-unstable", "max-violation"):
        for trial in range(6):
            x = random_points(rng, 14, 2)
            o = DistanceOracle.from_points(x)
            tree = linkage(o, "average")
            z = tree.z
            got = greedy_prune(tree, o, 3, measure=measure)
            # one round from the root pair: try every splittable frontier node
            frontier = [int(z[-1, 0]), int(z[-1, 1])]
            best = None
            for idx, node in enumerate(frontier):
                if node < 14:
                    continue
                kids = [int(c) for c in z[node - 14, :2]]
                cand = frontier[:idx] + kids + frontier[idx + 1 :]
                labels = np.empty(14, dtype=int)
                for ci, nd in enumerate(cand):
                    labels[dendrogram_leaves(z, nd)] = ci
                rep = audit(o, Clustering(labels, 3))
                score = (
                    rep.num_unstable if measure == "num-unstable" else rep.max_violation
                )
                key = (score, node)
                if best is None or key < best[0]:
                    best = (key, labels)
            want = {
                frozenset(np.flatnonzero(best[1] == ci).tolist()) for ci in range(3)
            }
            mine = {frozenset(int(i) for i in b) for b in clusters(got.assignment)}
            assert mine == want


def test_greedy_prune_guards():
    o = DistanceOracle.from_points(np.arange(5.0).reshape(-1, 1))
    tree = linkage(o, "single")
    with pytest.raises(ValueError):
        greedy_prune(tree, o, 3, measure="entropy")
    assert greedy_prune(tree, o, 2).k == 2


@pytest.mark.parametrize("tree_n, oracle_n", [(5, 10), (10, 5)])
def test_greedy_prune_rejects_a_dendrogram_of_another_size(tree_n, oracle_n):
    # a 5-leaf tree against 10 points used to leave labels unset, not raise
    tree = linkage(DistanceOracle.from_points(np.arange(float(tree_n)).reshape(-1, 1)))
    o = DistanceOracle.from_points(np.arange(float(oracle_n)).reshape(-1, 1))
    with pytest.raises(ValueError, match="size mismatch"):
        greedy_prune(tree, o, 3)


def _dendrogram_instances():
    """Random, rounded (tied), duplicate-heavy and 1-D integer points."""
    rng = np.random.default_rng(9)
    for n in (1, 2, 3, 4, 6, 9, 13, 19):
        yield n, rng.normal(size=(n, 2))
        yield n, np.round(rng.normal(size=(n, 2)), 1)
        yield n, rng.integers(0, 3, size=(n, 2)).astype(float)
        yield n, rng.integers(0, 6, size=(n, 1)).astype(float)


def _outcome(fn, *args, **kwargs):
    """(assignment, k) of a call, or the type and message of what it raised."""
    try:
        got = fn(*args, **kwargs)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)
    if isinstance(got, Clustering):
        got = (got.assignment, got.k)
    return got[0].tolist(), got[1]


@pytest.mark.parametrize("variant", ["single", "average", "complete"])
def test_cut_and_prune_match_the_frontier_loops(variant):
    for n, x in _dendrogram_instances():
        o = DistanceOracle.from_points(x)
        tree = linkage(o, variant)
        for k in range(n + 2):
            assert _outcome(cut_dendrogram, tree, k) == _outcome(max_pick_cut, tree.z, k), (n, x, k)
        for measure in ("num-unstable", "max-violation"):
            for k in range(min(8, n + 1) + 1):
                want = _outcome(reaudit_prune, tree.z, o, k, measure=measure)
                assert _outcome(greedy_prune, tree, o, k, measure=measure) == want, (n, x, k)


def _larger_dendrogram_instances():
    """Random, rounded (tied), duplicate-heavy and one-column points, n 30-80."""
    rng = np.random.default_rng(19)
    for n in (30, 57, 80):
        yield n, rng.normal(size=(n, 2))
        yield n, np.round(rng.normal(size=(n, 2)), 1)
        yield n, rng.integers(0, 3, size=(n, 2)).astype(float)
        yield n, rng.integers(0, 9, size=(n, 1)).astype(float)


@pytest.mark.parametrize("variant", ["single", "average", "complete"])
def test_prune_matches_the_reaudit_loop_at_scale(variant):
    for n, x in _larger_dendrogram_instances():
        o = DistanceOracle.from_points(x)
        tree = linkage(o, variant)
        for measure in ("num-unstable", "max-violation"):
            for k in (2, 3, 5, 8, 12):
                want = _outcome(reaudit_prune, tree.z, o, k, measure=measure)
                assert _outcome(greedy_prune, tree, o, k, measure=measure) == want, (n, x, k)


def _audits(monkeypatch):
    """Count audits through their kernel, `DistanceOracle.cluster_sums`;
    pruning reads only `_sums_to` columns. Returns the count list."""
    return _counting(monkeypatch, DistanceOracle, "cluster_sums")


def _counting(monkeypatch, module, name):
    """Wrap module.name so that calls are counted; returns the count list."""
    calls = []
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_prune_scores_a_split_near_its_stable_limit_without_an_audit(monkeypatch):
    # point 5 sits (found by bisection) where splitting node 10 leaves one
    # point with an audited factor 2e-16 from 1 + STABILITY_TOL, well inside
    # any bound on reordered sums (8n ulps); the cached columns are the
    # audit's bit for bit, so that split's count is exact and no split is
    # audited
    v = np.array([0.0, 1.0, 2.5, 10.0, 11.0, 17.450000006275, 30.0, 31.5])
    o = DistanceOracle.from_points(np.column_stack([v, np.zeros(8)]))
    tree = linkage(o, "average")
    children = tree.children
    split = [w for w in children[-1].tolist() if w != 10] + children[10 - 8].tolist()
    vi = audit(o, tree.clustering(split)).vi
    assert np.min(np.abs(vi / (1.0 + STABILITY_TOL) - 1.0)) <= 8 * 8 * 2.0**-53
    audits = _audits(monkeypatch)
    got = greedy_prune(tree, o, 3)
    assert audits == []
    monkeypatch.undo()
    assert _outcome(lambda: got) == _outcome(reaudit_prune, tree.z, o, 3)


def test_prune_on_the_line_scores_a_split_at_its_stable_limit_exactly(monkeypatch):
    # the line's columns are the audit's bit for bit, so every cached count
    # is exact. Point 5 sits (found by bisection) where splitting node 10
    # leaves a point with its own average on its stable limit, then 5 ulps
    # above it, which turns the choice to the other split
    picked = []
    for x5 in (17.450000006275, 17.450000006275005):
        v = np.array([0.0, 1.0, 2.5, 10.0, 11.0, x5, 30.0, 31.5])
        o = DistanceOracle.from_points(v)
        tree = linkage(o, "average")
        children = tree.children
        split = [w for w in children[-1].tolist() if w != 10] + children[10 - 8].tolist()
        c = tree.clustering(split)
        _, own_avg, avg = cluster_averages(o.cluster_sums(c), c)
        limit = stable_limit(nearest_foreign(avg, c))
        assert np.min(np.abs(own_avg - limit) / np.spacing(limit)) <= 8
        audits = _audits(monkeypatch)
        got = greedy_prune(tree, o, 3)
        assert audits == []
        monkeypatch.undo()
        assert _outcome(lambda: got) == _outcome(reaudit_prune, tree.z, o, 3)
        picked.append(got.assignment.tolist())
    assert picked[0] != picked[1]


def test_prune_scores_most_splits_without_an_audit(monkeypatch):
    feats, _ = planted(200, 10, 4.0, seed=21)
    o = DistanceOracle.from_points(feats)
    tree = linkage(o, "average")
    audits = _audits(monkeypatch)
    candidates = _counting(monkeypatch, baselines, "_split_score")
    got = greedy_prune(tree, o, 10)
    assert len(candidates) >= 8
    assert audits == []
    monkeypatch.undo()
    assert _outcome(lambda: got) == _outcome(reaudit_prune, tree.z, o, 10)


def test_prune_scores_subnormal_distances_without_an_audit(monkeypatch):
    # subnormal distances: averages lose relative precision, so no bound on
    # reordered sums holds, but the cached columns are the audit's bit for
    # bit, so every split is still scored exactly
    rng = np.random.default_rng(23)
    pts = rng.normal(size=(16, 2))
    o = DistanceOracle.from_matrix(np.linalg.norm(pts[:, None] - pts[None], axis=2) * 1e-310)
    assert np.min(o.matrix(), where=o.matrix() > 0, initial=np.inf) < 2.0**-1022
    tree = linkage(o, "average")
    for measure in ("num-unstable", "max-violation"):
        audits = _audits(monkeypatch)
        candidates = _counting(monkeypatch, baselines, "_split_score")
        got = greedy_prune(tree, o, 6, measure=measure)
        assert audits == [] and len(candidates) > 0
        monkeypatch.undo()
        assert _outcome(lambda: got) == _outcome(reaudit_prune, tree.z, o, 6, measure=measure)


def _split_averages(o, tree, cand):
    """(own_avg, nearest) of a split, in leaf order, as the reference averages
    compute them from `_sums_to` columns assembled into the sums matrix."""
    order, start, size = tree.order, tree.start, tree.size
    c = tree.clustering(cand)
    sums = np.empty((o.n, len(cand)))
    for w in cand:
        mask = np.zeros(o.n, dtype=bool)
        mask[order[start[w] : start[w] + size[w]]] = True
        sums[:, c.assignment[order[start[w]]]] = o._sums_to(mask)
    _, own_avg, avg = cluster_averages(sums, c)
    return own_avg[order], nearest_foreign(avg, c)[order]


@pytest.mark.parametrize("variant", ["single", "average", "complete"])
def test_prune_scores_each_split_from_the_audits_averages_bit_for_bit(monkeypatch, variant):
    # copies of a few random points: a node's average can then round below
    # both of its children's, so a point outside it needs the table's
    # second-nearest entry
    rng = np.random.default_rng(31)
    instances = [rng.normal(size=(40, 2)), np.round(rng.normal(size=(40, 2)), 1),
                 rng.integers(0, 3, size=(40, 2)).astype(float),
                 rng.normal(size=(4, 2))[rng.integers(0, 4, size=40)],
                 rng.integers(0, 5, size=(30, 1)).astype(float)]
    for x in instances:
        o = DistanceOracle.from_points(x)
        tree = linkage(o, variant)
        children = tree.children
        n, k = o.n, 9
        calls = []
        real = baselines._split_score

        def capture(own_avg, nearest, *rest):
            calls.append((own_avg.copy(), nearest.copy()))
            return real(own_avg, nearest, *rest)

        monkeypatch.setattr(baselines, "_split_score", capture)
        greedy_prune(tree, o, k)
        monkeypatch.undo()
        # replay the rounds: candidates in frontier order, then the split chosen
        frontier, want = children[-1].tolist(), []
        for kk in range(3, k + 1):
            cands = [[w for w in frontier if w != v] + children[v - n].tolist()
                     for v in frontier if v >= n]
            want += [_split_averages(o, tree, cand) for cand in cands]
            chosen = greedy_prune(tree, o, kk).assignment
            (frontier,) = [cand for cand in cands if np.array_equal(
                tree.clustering(cand).assignment, chosen)]
        assert len(calls) == len(want)
        for (own_avg, nearest), (own_want, near_want) in zip(calls, want):
            assert own_avg.tobytes() == own_want.tobytes()
            assert nearest.tobytes() == near_want.tobytes()


@pytest.mark.parametrize("payload", ["euclidean", "manhattan", "chebyshev", "matrix"])
def test_member_row_columns_are_within_the_slack_of_the_cluster_sums(payload):
    # one kernel: a member-row column is the audit's column bit for bit, at
    # sizes where many member rows add
    rng = np.random.default_rng(37)
    for n, d in ((2, 2), (9, 3), (60, 2), (150, 5), (700, 3)):
        x = np.exp(rng.normal(size=(n, d)) * 3.0)
        if payload == "matrix":
            o = DistanceOracle.from_matrix(DistanceOracle.from_points(x).matrix())
        else:
            o = DistanceOracle.from_points(x, payload)
        for k in sorted({1, 2, min(n, 7)}):
            c = Clustering.from_labels(np.concatenate([np.arange(k), rng.integers(0, k, n - k)]))
            sums = o.cluster_sums(c)
            for i in range(k):
                col = o._sums_to(c.assignment == i)
                assert col.tobytes() == sums[:, i].tobytes(), (payload, n, k, i)


def test_prune_on_the_benchmark_input_matches_the_reaudit_loop(tmp_path):
    # criterion 12's blobs as the benchmark's bench-prune job reads them:
    # written, loaded with --standardize, average linkage, k = 10 and 20
    rng = np.random.default_rng(0)
    centers = rng.normal(size=(10, 6)) * 4.0
    rows = np.concatenate([c + rng.normal(size=(100, 6)) for c in centers])
    path = tmp_path / "blobs.csv"
    path.write_text("".join(",".join(repr(float(v)) for v in r) + "\n"
                            for r in rows[rng.permutation(1000)]))
    o = DistanceOracle.from_points(cli.load_points(path, standardize=True))
    tree = linkage(o, "average")
    for k in (10, 20):
        assert _outcome(greedy_prune, tree, o, k) == _outcome(reaudit_prune, tree.z, o, k), k


@pytest.mark.parametrize("variant", ["single", "average", "complete"])
def test_leaf_slices_order_is_scipys_leaves_list(variant):
    rng = np.random.default_rng(12)
    larger = [(n, rng.integers(0, 4, size=(n, 2)).astype(float)) for n in (31, 47, 59)]
    for n, x in [*_dendrogram_instances(), *larger]:
        z = linkage(DistanceOracle.from_points(x), variant).z
        tree = Dendrogram(z)
        order, start, size = tree.order, tree.start, tree.size
        assert order.tolist() == (leaves_list(z).tolist() if n > 1 else [0]), (n, x)
        for v in range(2 * n - 1):
            got = order[start[v] : start[v] + size[v]].tolist()
            assert got == dendrogram_leaves(z, v), (n, x, v)


def test_random_clustering_valid_and_seeded():
    a = random_clustering(20, 6, seed=0)
    b = random_clustering(20, 6, seed=0)
    assert np.array_equal(a.assignment, b.assignment)
    assert a.k == 6
    c = random_clustering(6, 6, seed=1)
    assert sorted(c.sizes()) == [1] * 6


def test_baselines_audit_cleanly_on_planted():
    feats, _ = planted(60, 3, 4.0, seed=12)
    o = DistanceOracle.from_points(feats)
    for c in (
        kmeans_pp(feats, 3, seed=0),
        kcenter_greedy(o, 3, first=0),
        cut_dendrogram(linkage(o, "single"), 3),
    ):
        rep = audit(o, c)
        assert rep.num_unstable == 0  # blobs this separated are easy
