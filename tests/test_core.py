import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipstable.core import (
    Clustering,
    DistanceOracle,
    STABILITY_TOL,
    _cluster_averages,
    _partitions_into_k,
    audit,
    brute_force,
    is_t_stable,
)
from ipstable.hardgen import fixtures

from conftest import (
    all_label_partitions,
    naive_cost,
    naive_num_unstable,
    naive_vi,
    random_graph_metric,
    random_points,
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
    assert o.d(0, 2) == pytest.approx(5.0)


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
    assert s.d(0, 1) == pytest.approx(5.0)


def test_unknown_metric_rejected():
    with pytest.raises(ValueError):
        DistanceOracle.from_points([[0.0]], metric="cosine")


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
    assert set(c.members(0)) == {0, 2}
    assert [set(b) for b in c.clusters()] == [{0, 2}, {1, 3}]


# --- single-point quantities -------------------------------------------------


def test_cluster_averages_hand_values():
    m = DistanceOracle.from_points([0.0, 1.0, 3.0, 7.0]).matrix()
    own_sum, own_avg, avg = _cluster_averages(m, Clustering(np.array([0, 0, 0, 1]), 2))
    # point 0: distances 1 and 3 to the rest of its cluster, 7 to cluster 1
    assert own_sum[0] == pytest.approx(4.0)
    assert own_avg[0] == pytest.approx(2.0)
    assert avg[0, 1] == pytest.approx(7.0)
    # the own column averages over the whole cluster, self included
    assert avg[0, 0] == pytest.approx(4.0 / 3.0)
    # a singleton's own average is 0 (no other member)
    assert own_sum[3] == 0.0 and own_avg[3] == 0.0
    assert avg[3, 0] == pytest.approx((7.0 + 6.0 + 4.0) / 3.0)


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
    assert [set(b) for b in sorted(got.clusters(), key=min)] == [{0, 1}, {2, 3}]
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
