import math

import numpy as np
import pytest
import scipy.cluster.hierarchy as sch

from ipstable.core import Clustering, DistanceOracle, audit
from ipstable.baselines import kcenter_greedy, lloyd
from ipstable.hardgen import (
    fixtures,
    gen_kcenter_hard,
    gen_kmeanspp_hard,
    gen_single_linkage_hard,
    kmeanspp_spacing_bound,
)

from conftest import claims_hold, naive_vi


def _clustering(meta, k):
    return Clustering(np.asarray(meta["clustering"]), k)


def test_kmeanspp_block_violation_is_alpha():
    for alpha in (1.5, 2.0, 3.0):
        pts, meta = gen_kmeanspp_hard(alpha, n_blocks=6)
        o = DistanceOracle.from_points(pts)
        c = _clustering(meta, meta["k"])
        rep = audit(o, c)
        # each block contributes one point whose violation equals alpha
        for v in meta["v_indices"]:
            assert rep.vi[v] == pytest.approx(alpha, abs=1e-9)
        assert rep.max_violation == pytest.approx(
            meta["claimed_max_violation"], abs=1e-9
        )


def test_kmeanspp_claimed_value_formula():
    for alpha in (1.05, 1.5, 2.0, 4.0):
        _, meta = gen_kmeanspp_hard(alpha, n_blocks=4)
        z_vi = 1.5 * alpha / math.sqrt(alpha * alpha + 1.0)
        assert meta["claimed_max_violation"] == pytest.approx(
            max(alpha, z_vi), abs=1e-12
        )


def test_kmeanspp_is_lloyd_fixed_point():
    pts, meta = gen_kmeanspp_hard(2.0, n_blocks=5)
    # seed the centers at (v, u) of block 0 and let Lloyd iterate on the block
    sub = pts[:4]  # rows (z, z', v, u)
    assign, _, _, _ = lloyd(sub, sub[[2, 3]])
    groups = {frozenset(int(i) for i in b) for b in Clustering(assign, 2).clusters()}
    assert groups == {frozenset({0, 1, 2}), frozenset({3})}


def test_kmeanspp_spacing_guard():
    bound = kmeanspp_spacing_bound(2.0, 4, 1.0)
    with pytest.raises(ValueError):
        gen_kmeanspp_hard(2.0, 4, spacing=bound * 0.5)
    _, meta = gen_kmeanspp_hard(2.0, 4, spacing=bound * 4.0)
    assert meta["spacing"] == pytest.approx(bound * 4.0)
    with pytest.raises(ValueError):
        gen_kmeanspp_hard(1.0, 4)
    with pytest.raises(ValueError):
        gen_kmeanspp_hard(0.5, 4)


def test_kmeanspp_metadata_shape():
    pts, meta = gen_kmeanspp_hard(3.0, n_blocks=48)
    assert pts.shape[0] == 4 * 48
    assert meta["k"] == 2 * 48
    assert meta["k_alpha"] == math.ceil(13 * 48 / 12)
    assert len(meta["v_indices"]) == len(meta["u_indices"]) == 48
    assert max(meta["clustering"]) == meta["k"] - 1


def test_kcenter_instance_violation_and_trap():
    pts, meta = gen_kcenter_hard(16, 1.0 / 32.0)
    o = DistanceOracle.from_points(pts)
    c = _clustering(meta, 2)
    p = meta["p"]
    vi_p = audit(o, c).vi[p]
    assert vi_p >= 2.0 - 1e-9
    assert vi_p == pytest.approx(meta["audited_vi_p"], abs=1e-9)
    assert meta["claimed_min_violation"] == pytest.approx(2.0)
    # greedy seeded at c1 reproduces exactly this 2-clustering
    greedy = kcenter_greedy(o, 2, first=meta["c1"])
    got = {frozenset(int(i) for i in b) for b in greedy.clusters()}
    want = {frozenset(int(i) for i in b) for b in c.clusters()}
    assert got == want


def test_kcenter_geometry_is_mirrored():
    n, eps = 16, 1.0 / 32.0
    pts, meta = gen_kcenter_hard(n, eps)
    assert pts.shape[0] == 2 * n + 2
    # B2 is B1 reflected through the origin, anchors likewise
    assert np.allclose(pts[n + 2 :], -pts[2 : n + 2])
    assert np.allclose(pts[0], -pts[1])
    sizes = sorted(_clustering(meta, 2).sizes())
    assert sizes == [n, n + 2]


def test_kcenter_epsilon_guard():
    with pytest.raises(ValueError):
        gen_kcenter_hard(16, 1.0 / 16.0)  # needs eps <= 1/(2n)
    gen_kcenter_hard(16, 1.0 / 32.0)


def test_single_linkage_violation_scales_with_n():
    for n, want in ((5, 1.0), (21, 5.0), (41, 10.0)):
        vals, meta = gen_single_linkage_hard(n, 0.5)
        o = DistanceOracle.from_points(vals.reshape(-1, 1))
        v2 = meta["v2"]
        assert meta["claimed_vi_v2"] == pytest.approx(want)
        assert audit(o, _clustering(meta, 2)).vi[v2] == pytest.approx(want, abs=1e-6)


def test_single_linkage_cut_isolates_endpoint():
    vals, meta = gen_single_linkage_hard(21, 0.5)
    # scipy single linkage cut at k=2 splits off exactly {v1}
    z = sch.linkage(vals.reshape(-1, 1), method="single")
    labels = sch.fcluster(z, t=2, criterion="maxclust")
    got = {frozenset(np.flatnonzero(labels == lab).tolist()) for lab in (1, 2)}
    want = {frozenset(int(i) for i in b) for b in _clustering(meta, 2).clusters()}
    assert got == want
    assert frozenset({0}) in got


def test_single_linkage_parameter_guards():
    with pytest.raises(ValueError):
        gen_single_linkage_hard(21, 0.0)
    with pytest.raises(ValueError):
        gen_single_linkage_hard(21, 1.0)
    with pytest.raises(ValueError):
        gen_single_linkage_hard(4, 0.5)
    gen_single_linkage_hard(6, 0.5)


def test_fixture_catalogue():
    fx = fixtures()
    assert set(fx) == {"fig1-no-stable", "fig2-two-stable", "line-unique"}
    m = fx["fig1-no-stable"]["matrix"]
    assert m.shape[0] == m.shape[1] == 4
    assert np.allclose(m, m.T)
    vals = fx["fig2-two-stable"]["values"]
    assert len(vals) == 5
    assert np.allclose(np.diff(vals), [8.0, 1.0, 1.0 / 3.0, 8.0])
    assert np.array_equal(fx["line-unique"]["values"], [0.0, 1.0, 7.0, 8.0])


def test_generators_are_reproducible():
    a1, m1 = gen_kmeanspp_hard(2.5, 7)
    a2, m2 = gen_kmeanspp_hard(2.5, 7)
    assert np.array_equal(a1, a2)
    assert m1["clustering"] == m2["clustering"]
    b1, _ = gen_kcenter_hard(16, 1.0 / 32.0)
    b2, _ = gen_kcenter_hard(16, 1.0 / 32.0)
    assert np.array_equal(b1, b2)
    c1, _ = gen_single_linkage_hard(21, 0.5)
    c2, _ = gen_single_linkage_hard(21, 0.5)
    assert np.array_equal(c1, c2)


def test_audits_match_independent_oracle():
    pts, meta = gen_kmeanspp_hard(3.0, 5)
    o = DistanceOracle.from_points(pts)
    c = _clustering(meta, meta["k"])
    mine = audit(o, c).vi
    ref = naive_vi(o.matrix(), c.assignment)
    assert np.allclose(mine, ref)


@pytest.mark.parametrize("generate, args", [
    (gen_kmeanspp_hard, (1.05, 3)),
    (gen_kmeanspp_hard, (3.0, 6, 1e-3)),
    (gen_kmeanspp_hard, (1e15, 1, 0.7)),     # vi is off by ulps of 1e15
    (gen_kcenter_hard, (5, 0.1)),
    (gen_kcenter_hard, (64, 1.0 / 128.0)),
    (gen_single_linkage_hard, (21, 0.5)),
    (gen_single_linkage_hard, (21, 1e-3)),   # the max violation is not vi[v2] here
    (gen_single_linkage_hard, (41, 1e-9)),
])
def test_written_claims_hold_to_a_relative_tolerance(generate, args):
    features, meta = generate(*args)
    oracle = DistanceOracle.from_points(features)
    rep = audit(oracle, _clustering(meta, meta.get("k", 2)))
    ref = naive_vi(oracle.matrix(), np.asarray(meta["clustering"]))
    assert claims_hold(meta, rep.vi, rep.max_violation)
    assert claims_hold(meta, ref, max(ref))
