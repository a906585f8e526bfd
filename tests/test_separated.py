import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipstable import separated
from ipstable.core import Clustering, DistanceOracle, audit, brute_force
from ipstable.hst import embed_hst, hst_k_clustering, normalize_leaves
from ipstable.separated import (
    GAMMA_MIN,
    check_alpha_gamma,
    exact_enumerate,
    linkage_conditioned,
    linkage_size_guard,
    pipeline,
)

from conftest import (
    full_scan_conditioned,
    full_scan_size_guard,
    naive_alpha_gamma,
    naive_num_unstable,
    planted,
    random_points,
    random_tree,
    whole_min_size,
)


def _oracle(feats):
    return DistanceOracle.from_points(feats)


def test_gamma_min_constant():
    assert GAMMA_MIN == pytest.approx(2.0 + math.sqrt(3.0))


def test_check_alpha_gamma_accepts_planted():
    feats, labels = planted(60, 3, 4.0, seed=0)
    c = Clustering.from_labels(labels)
    assert check_alpha_gamma(_oracle(feats), c, alpha=0.25, gamma=4.0)


def test_check_alpha_gamma_rejections():
    feats, labels = planted(60, 3, 4.0, seed=1)
    o = _oracle(feats)
    c = Clustering.from_labels(labels)
    # demanding more mass than the smallest cluster has
    assert not check_alpha_gamma(o, c, alpha=0.5, gamma=4.0)
    # scrambled labels break separation
    rng = np.random.default_rng(2)
    bad = rng.permutation(labels)
    for i in range(3):
        bad[i] = i
    assert not check_alpha_gamma(o, Clustering.from_labels(bad), alpha=0.25, gamma=4.0)
    # absurd gamma demand fails even on the true labels
    assert not check_alpha_gamma(o, c, alpha=0.25, gamma=1e6)


def _separation_ratio(m, labels):
    """Smallest foreign/own average ratio over points with a cluster partner."""
    n = len(labels)
    ratios = []
    for x in range(n):
        own = [y for y in range(n) if labels[y] == labels[x] and y != x]
        if not own:
            continue
        own_avg = m[x, own].mean()
        for c in set(labels.tolist()) - {labels[x]}:
            ratios.append(m[x, labels == c].mean() / own_avg)
    return min(ratios, default=math.inf)


def test_check_alpha_gamma_matches_loop_reference():
    rng = np.random.default_rng(3)
    boundaries_checked = 0
    for trial in range(60):
        n = int(rng.integers(2, 14))
        k = int(rng.integers(1, min(4, n) + 1))
        labels = rng.integers(0, k, size=n)
        labels[:k] = np.arange(k)
        if k > 1 and rng.random() < 0.3:
            labels[k:] = rng.integers(0, k - 1, size=n - k)  # cluster k-1 a singleton
        m = _oracle(random_points(rng, n, 3)).matrix()
        o = DistanceOracle.from_matrix(m)
        c = Clustering(labels, k)
        smallest = int(c.sizes().min())
        gammas = [0.5, 2.0, GAMMA_MIN]
        ratio = _separation_ratio(m, labels)
        if math.isfinite(ratio):
            below, above = ratio * (1.0 - 1e-6), ratio * (1.0 + 1e-6)
            gammas += [below, above]
            # the size test passes at alpha = smallest/n, so separation decides
            assert check_alpha_gamma(o, c, smallest / n, below)
            assert not check_alpha_gamma(o, c, smallest / n, above)
            boundaries_checked += 1
        for alpha in (smallest / n, (smallest + 1) / n):
            for gamma in gammas:
                got = check_alpha_gamma(o, c, alpha, gamma)
                assert got == naive_alpha_gamma(m, labels, alpha, gamma), (trial, alpha, gamma)
    assert boundaries_checked > 30


def test_size_guard_reaches_alpha_sizes_and_refines_planted():
    for seed in range(5):
        feats, labels = planted(60, 3, 4.0, seed=seed)
        part = linkage_size_guard(_oracle(feats), alpha=0.25)
        assert part.sizes_ok()
        # every supercluster sits inside one planted cluster
        for block in part.clusters:
            assert len({labels[i] for i in block}) == 1
        assert all(crit == 1 for _, _, _, crit in part.merge_log)
        assert part.ell == 3


def _upper_block_extremes(m, clusters):
    """Cross minima and maxima per pair of clusters, pair by pair over d(i, j), i < j."""
    ell = len(clusters)
    lo, hi = np.zeros((ell, ell)), np.zeros((ell, ell))
    for a in range(ell):
        for b in range(ell):
            if a != b:
                cross = [m[min(x, y), max(x, y)] for x in clusters[a] for y in clusters[b]]
                lo[a, b], hi[a, b] = min(cross), max(cross)
    return lo, hi


def _assert_size_guard_matches(o, alpha, where):
    part = linkage_size_guard(o, alpha)
    m = o.matrix()
    log, clusters = full_scan_size_guard(m, alpha)
    assert part.merge_log == log, where
    assert part.clusters == clusters, where
    assert part.n == o.n and part.representatives == [min(c) for c in clusters], where
    cmn, cmx = _upper_block_extremes(m, part.clusters)
    assert np.array_equal(part.cross_min, cmn), where
    assert np.array_equal(part.cross_max, cmx), where


def _size_guard_edge_cases(rng):
    """(oracle, alpha) pairs at the edges of the size guard.

    One point, two points, all points identical (every edge 0), alpha 1,
    duplicate-heavy and rounded (tied) inputs up to n = 150, matrices
    within from_matrix's asymmetry tolerance, and tree path sums.
    """
    alphas = (0.01, 0.1, 0.25, 0.5, 1.0)
    for alpha in alphas:
        yield _oracle([[0.0, 0.0]]), alpha
        yield _oracle([[0.0, 0.0], [3.0, 4.0]]), alpha
        yield _oracle(np.zeros((9, 2))), alpha
    for _ in range(8):
        n = int(rng.integers(20, 151))
        feats = random_points(rng, n, 2)
        alpha = float(rng.choice(alphas))
        yield _oracle(feats[rng.integers(0, max(1, n // 4), size=n)]), alpha
        yield _oracle(np.round(feats / 3.0)), alpha
        yield _oracle(np.round(feats[:, :1])), alpha
    for _ in range(8):
        yield _linkage_oracle(rng, "asymmetric"), float(rng.choice(alphas))
        yield _linkage_oracle(rng, "tree"), float(rng.choice(alphas))


def test_size_guard_early_stop_matches_full_scan():
    rng = np.random.default_rng(19)
    for trial in range(30):
        n = int(rng.integers(2, 60))
        if trial % 2:
            feats, _ = planted(n, int(rng.integers(1, 4)), 4.0, seed=trial)
        else:
            feats = random_points(rng, n, 2)
        alpha = float(rng.choice([0.01, 0.1, 0.25, 0.5, 1.0]))
        # rounded coordinates tie many edge lengths, which the id order breaks
        for o in (_oracle(feats), _oracle(np.round(feats))):
            _assert_size_guard_matches(o, alpha, trial)
    for case, (o, alpha) in enumerate(_size_guard_edge_cases(np.random.default_rng(29))):
        _assert_size_guard_matches(o, alpha, ("edge case", case))


def _linkage_oracle(rng, kind):
    n = int(rng.integers(2, 45))
    if kind == "planted":
        # split planted clusters, so the spread and long-edge criteria fire
        feats, _ = planted(n, int(rng.integers(1, 4)), 4.0, seed=int(rng.integers(1000)))
        return _oracle(feats + rng.choice([-3.0, 3.0], size=(n, 1)))
    if kind == "tree":
        # path sums, whose two triangles differ in the last bits before
        # the oracle mirrors them
        return random_tree(rng, n).to_oracle()
    feats = random_points(rng, n, 2)
    if kind == "rounded":
        return _oracle(np.round(feats))
    if kind == "duplicated":
        return _oracle(feats[rng.integers(0, max(1, n // 3), size=n)])
    if kind == "asymmetric":
        # within from_matrix's symmetry tolerance: the oracle keeps the upper triangle
        m = _oracle(feats).matrix()
        return DistanceOracle.from_matrix(m + np.triu(rng.uniform(0, 5e-13, m.shape), 1))
    return _oracle(feats)


def _assert_conditioned_matches(o, alpha, gamma, where):
    """The linkage equals the per-edge full scan, with upper-triangle cross
    extremes; returns the full scan's log."""
    part = linkage_conditioned(o, alpha, gamma)
    log, clusters, _, _ = full_scan_conditioned(o.matrix(), alpha, gamma)
    assert part.merge_log == log, where
    assert part.clusters == clusters, where
    cmn, cmx = _upper_block_extremes(o.matrix(), part.clusters)
    assert np.array_equal(part.cross_min, cmn), where
    assert np.array_equal(part.cross_max, cmx), where
    return log


def test_conditioned_linkage_matches_full_scan():
    rng = np.random.default_rng(23)
    fired = {1: 0, 2: 0, 3: 0}
    for kind in ("random", "rounded", "duplicated", "planted", "asymmetric", "tree"):
        for trial in range(3):
            o = _linkage_oracle(rng, kind)
            for alpha in (0.05, 0.1, 0.25, 0.5, 1.0):
                for gamma in (GAMMA_MIN, 4.0, 10.0):
                    log = _assert_conditioned_matches(o, alpha, gamma, (kind, trial, alpha, gamma))
                    for entry in log:
                        fired[entry[3]] += 1
    assert min(fired.values()) > 20, fired


@pytest.mark.parametrize(
    "points, alpha, gamma, crits",
    [
        # Criterion 1 forms {5, 6} and {12, 13}, then {12, 13, 34}. From the
        # edge (6, 34) of length 28 on every cluster is big enough and
        # maxd.max() = 22 <= 28 * 8/9, but {5, 6} against {12, 13, 34}
        # spreads from 6 to 29, above the bound (17/9)^2, and its cross edge
        # (6, 34) is still unscanned: the scan may not stop, and (6, 34)
        # merges by criterion 2.
        ([5, 6, 12, 13, 34], 0.4, 4.0, [1, 1, 1, 2]),
        # At gamma = GAMMA_MIN own_bound is exactly 1. After the merge at
        # (0, 19), maxd.max() = d(0, 24) = 24, no pair spreads beyond 4, and
        # the next edge after (19, 39) is (0, 24) of length 24: maxd.max()
        # equals own_bound * d there, and the scan may stop.
        ([0, 19, 24, 35, 39], 0.34, GAMMA_MIN, [1, 1, 1]),
        # Criterion 1 forms {1, 9} and {30, 32}; both are big enough, and
        # the cross edge (9, 30) of length 21 then merges by criterion 3
        # (maxd[9] = 8 > 21 * 20/81).
        ([1, 9, 30, 32], 0.34, 10.0, [1, 1, 3]),
        # Criterion 1 forms {0, 1000, 2000} and {3999, 4999, 5999}; the
        # cross edge (2000, 3999) of length 1999 then merges by criterion 3,
        # as maxd[2000] = 2000 exceeds own_bound * 1999 = 1999 by 0.05%.
        ([0, 1000, 2000, 3999, 4999, 5999], 0.5, GAMMA_MIN, [1, 1, 1, 1, 3]),
    ],
    ids=[
        "spread-blocks-the-stop",
        "long-own-edge-on-the-bound",
        "last-merge-by-criterion-3",
        "criterion-3-just-above-the-bound",
    ],
)
def test_conditioned_stop_rule_boundaries(points, alpha, gamma, crits):
    """Boundary cases of the conditioned scan's stop rule, against the full scan."""
    assert 2.0 * GAMMA_MIN / (GAMMA_MIN - 1.0) ** 2 == 1.0
    log = _assert_conditioned_matches(_oracle(np.array(points, dtype=float)), alpha, gamma, points)
    assert [crit for _, _, _, crit in log] == crits


def test_linkages_scan_short_of_the_full_edge_list(monkeypatch):
    """The size guard never lists the edges; the conditioned scan stops early.

    On a planted instance the conditioned linkage stops once no later edge
    can fire, well before the last of the n(n-1)/2 edges, and still equals
    the full scan; at alpha = 1 it stops at the merge that leaves one
    cluster.
    """
    yielded = []
    chunks = separated._edge_chunks

    def counted(m):
        for chunk in chunks(m):
            yielded.append(len(chunk[2]))
            yield chunk

    monkeypatch.setattr(separated, "_edge_chunks", counted)
    monkeypatch.setattr(separated, "_FIRST_CHUNK", 16)
    feats, _ = planted(120, 4, 4.0, seed=12)
    o = _oracle(feats)
    linkage_size_guard(o, 0.2)
    assert yielded == []
    _assert_conditioned_matches(o, 0.2, 4.0, "planted")
    assert 0 < sum(yielded) < 120 * 119 // 2 // 2
    yielded.clear()
    assert _assert_conditioned_matches(o, 1.0, 4.0, "one cluster")[-1][3] == 1
    assert 0 < sum(yielded) < 120 * 119 // 2


def test_spread_exactly_on_the_bound_does_not_merge():
    """Criterion 2 is strict: a cross spread equal to its bound merges nothing.

    At gamma = GAMMA_MIN the bound is exactly 4.0 in floating point. The
    size criterion forms {1, 3} and {6, 8, 13}; their cross distances run
    from 3 to 12, a spread of exactly 4, and no own edge is long enough for
    criterion 3, so the two clusters stay apart.
    """
    gamma = GAMMA_MIN
    assert ((gamma * gamma + 1.0) / (gamma - 1.0) ** 2) ** 2 == 4.0
    o = _oracle([1.0, 3.0, 6.0, 8.0, 13.0])
    part = linkage_conditioned(o, alpha=0.4, gamma=gamma)
    log, clusters, cmn, cmx = full_scan_conditioned(o.matrix(), 0.4, gamma)
    assert part.merge_log == log
    assert part.clusters == clusters == [[0, 1], [2, 3, 4]]
    assert part.cross_max[0, 1] / part.cross_min[0, 1] == 4.0
    assert [crit for _, _, _, crit in log] == [1, 1, 1]


def test_conditioned_linkage_recovers_planted():
    for seed in range(5):
        feats, labels = planted(80, 4, 4.0, seed=10 + seed)
        part = linkage_conditioned(_oracle(feats), alpha=0.2, gamma=4.0)
        assert part.sizes_ok()
        for block in part.clusters:
            assert len({labels[i] for i in block}) == 1
        assert part.ell == 4
        assert all(crit in (1, 2, 3) for _, _, _, crit in part.merge_log)


def test_conditioned_linkage_gamma_guard():
    feats, _ = planted(20, 2, 4.0, seed=3)
    with pytest.raises(ValueError):
        linkage_conditioned(_oracle(feats), alpha=0.3, gamma=2.0)


@pytest.mark.parametrize("gamma", [math.nan, math.inf, -math.inf, 1e155, 1e200])
def test_gamma_must_be_finite_with_finite_bounds(gamma):
    feats, _ = planted(20, 2, 4.0, seed=3)
    o = _oracle(feats)
    with pytest.raises(ValueError, match="gamma"):
        linkage_conditioned(o, alpha=0.3, gamma=gamma)
    with pytest.raises(ValueError, match="gamma"):
        pipeline(o, 2, alpha=0.3, gamma=gamma)


def test_huge_gamma_below_the_overflow_still_runs():
    feats, _ = planted(20, 2, 4.0, seed=3)
    part = linkage_conditioned(_oracle(feats), alpha=0.3, gamma=1e150)
    assert part.sizes_ok()


def test_merge_log_replay():
    """Each logged merge's firing criterion must hold at its merge time."""
    feats, _ = planted(60, 3, 4.0, seed=4)
    m = _oracle(feats).matrix()
    n = len(m)
    alpha, gamma = 0.25, 4.0
    spread_bound = ((gamma * gamma + 1.0) / ((gamma - 1.0) ** 2)) ** 2
    own_bound = 2.0 * gamma / ((gamma - 1.0) ** 2)
    part = linkage_conditioned(_oracle(feats), alpha=alpha, gamma=gamma)

    cluster_of = {i: frozenset([i]) for i in range(n)}
    for d, x, y, crit in part.merge_log:
        cx, cy = cluster_of[x], cluster_of[y]
        assert cx != cy
        assert m[x, y] == pytest.approx(d)
        if crit == 1:
            assert min(len(cx), len(cy)) < whole_min_size(alpha, n)
        elif crit == 2:
            cross = [m[a, b] for a in cx for b in cy]
            assert max(cross) / min(cross) > spread_bound
        elif crit == 3:
            own_x = max((m[x, a] for a in cx if a != x), default=0.0)
            own_y = max((m[y, b] for b in cy if b != y), default=0.0)
            assert max(own_x, own_y) > own_bound * d
        else:
            raise AssertionError(f"unknown criterion {crit}")
        merged = cx | cy
        for i in merged:
            cluster_of[i] = merged

    final = {frozenset(int(j) for j in c) for c in part.clusters}
    replay = {frozenset(cluster_of[i]) for i in range(n)}
    assert final == replay


def test_partition_to_clustering_roundtrip():
    feats, _ = planted(40, 2, 4.0, seed=5)
    part = linkage_size_guard(_oracle(feats), alpha=0.3)
    c = part.to_clustering()
    assert c.k == part.ell
    for i, block in enumerate(part.clusters):
        assert all(c.assignment[j] == i for j in block)
    assert part.uniformity() >= 1.0


def test_exact_enumerate_stable_on_planted():
    feats, labels = planted(80, 4, 4.0, seed=6)
    o = _oracle(feats)
    c = exact_enumerate(o, 4, alpha=0.2)
    assert naive_num_unstable(o.matrix(), c.assignment) == 0
    # it actually recovers the planted blobs here
    for block in c.clusters():
        assert len({labels[int(i)] for i in block}) == 1


def test_exact_enumerate_guards():
    feats, _ = planted(30, 2, 4.0, seed=7)
    o = _oracle(feats)
    with pytest.raises(ValueError):
        exact_enumerate(o, 6, alpha=0.05)  # 20**6 > 1e7
    # alpha so large the guard merges below k superclusters
    with pytest.raises(RuntimeError):
        exact_enumerate(o, 4, alpha=0.5)


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 3), st.floats(0.1, 0.5), st.sampled_from([1.0, 3.0, 50.0]), st.data())
def test_exact_enumerate_matches_brute_force(k, alpha, spacing, data):
    """exact_enumerate's answers are stable, and it answers on separated input.

    Points sit on a line around label * spacing, so some draws are
    (alpha, GAMMA_MIN)-separated by their labels and some overlap.
    """
    n = data.draw(st.integers(k, 10), label="n")
    labels = data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n), label="labels")
    jitter = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n), label="jitter")
    o = _oracle(np.array(labels) * spacing + np.array(jitter))
    m = o.matrix()
    separated_input = len(set(labels)) == k and naive_alpha_gamma(m, labels, alpha, GAMMA_MIN)
    try:
        c = exact_enumerate(o, k, alpha)
    except RuntimeError:
        assert not separated_input
        return
    assert naive_num_unstable(m, c.assignment) == 0
    found, _ = brute_force(o, k)
    assert found is not None


@pytest.mark.parametrize("alpha", [0.0, -0.5, 1.5, math.nan])
def test_alpha_outside_unit_interval_is_rejected(alpha):
    feats, _ = planted(20, 2, 4.0, seed=8)
    o = _oracle(feats)
    with pytest.raises(ValueError, match="alpha"):
        exact_enumerate(o, 2, alpha=alpha)
    with pytest.raises(ValueError, match="alpha"):
        pipeline(o, 2, alpha=alpha, gamma=4.0)


def test_pipeline_certificate_and_shape():
    for seed in range(6):
        feats, _ = planted(80, 4, 4.0, seed=20 + seed)
        o = _oracle(feats)
        res = pipeline(o, 4, alpha=0.2, gamma=4.0, seed=seed)
        assert res.clustering.k == 4
        assert res.partition.sizes_ok()
        assert res.uniformity >= 1.0
        cert = res.certificate()
        assert cert == pytest.approx(res.stretch * res.uniformity ** 2)
        assert res.report.max_violation <= cert * (1 + 1e-9) + 1e-12
        # report agrees with an independent audit of the same labels
        assert res.report.num_unstable == naive_num_unstable(
            o.matrix(), res.clustering.assignment
        )


def test_pipeline_deterministic_per_seed():
    feats, _ = planted(60, 3, 4.0, seed=9)
    o = _oracle(feats)
    a = pipeline(o, 3, alpha=0.25, gamma=4.0, seed=11)
    b = pipeline(o, 3, alpha=0.25, gamma=4.0, seed=11)
    assert np.array_equal(a.clustering.assignment, b.clustering.assignment)
    assert a.stretch == b.stretch


def test_pipeline_clusters_the_representatives_like_embed():
    # the representatives' leaf clustering and stretch are the embedding's,
    # here where no two representatives coincide: the stretch over all pairs
    # planted blobs merge into k superclusters; at a tiny alpha random
    # points stay n singletons, all of them representatives
    rng = np.random.default_rng(4)
    for trial in range(16):
        if trial % 2:
            k, alpha = 2 + trial % 3, 0.05
            o = _oracle(planted(12 * k, k, 4.0, seed=trial, spread=3.0)[0])
        else:
            n = int(rng.integers(4, 30))
            k, alpha = int(rng.integers(2, min(6, n) + 1)), 0.01
            o = _oracle(random_points(rng, n, 2))
        res = pipeline(o, k, alpha=alpha, gamma=4.0, seed=trial)
        reps = o.sub_oracle(res.partition.representatives)
        hst = normalize_leaves(embed_hst(reps, trial))
        want = hst_k_clustering(hst, k).assignment
        labels = res.partition.to_clustering().assignment
        assert np.array_equal(res.clustering.assignment, want[labels]), trial
        d = reps.matrix()
        off = ~np.eye(len(d), dtype=bool)
        assert res.stretch == (hst.point_distance_matrix()[off] / d[off]).max(), trial


def test_pipeline_stretch_is_inf_for_coincident_representatives():
    # 0 and 0 stay two superclusters; as for embed, a pair at distance 0 has
    # no finite stretch
    res = pipeline(_oracle(np.array([0.0, 0.0, 5.0, 5.1])), 2, alpha=0.01, gamma=4.0)
    assert res.partition.ell == 4
    assert res.stretch == math.inf == res.certificate()


@pytest.mark.parametrize("alpha", [0.0, -1.0, math.nan, 1.5])
@pytest.mark.parametrize("linkage", ["size-guard", "conditioned"])
def test_linkages_reject_alpha_outside_the_unit_interval(linkage, alpha):
    o = _oracle(random_points(np.random.default_rng(3), 8, 2))
    with pytest.raises(ValueError, match="alpha must lie in"):
        if linkage == "size-guard":
            linkage_size_guard(o, alpha)
        else:
            linkage_conditioned(o, alpha, 4.0)
