import math

import numpy as np
import pytest

from ipstable.core import Clustering, DistanceOracle, audit
from ipstable.separated import (
    GAMMA_MIN,
    check_alpha_gamma,
    exact_enumerate,
    linkage_conditioned,
    linkage_size_guard,
    pipeline,
)

from conftest import naive_alpha_gamma, naive_num_unstable, planted, random_points


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
            assert len(cx) + 1e-9 < alpha * n or len(cy) + 1e-9 < alpha * n
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
