"""Adversarial instances where standard algorithms produce unstable output.

Three generator families, each returning (features, metadata) where metadata
names the problematic clustering and its claimed violation. Every generator
audits its clustering once, in `_proved`, and checks exactly the claims its
metadata states, each to a relative VERIFY_TOL; a successful call is itself
the proof that the construction behaves as advertised. Parameters whose
floats cannot realize the claim (say, distances whose squares flush to 0)
raise ValueError naming the claim. fixtures() additionally exposes the small
hand-built instances used throughout the tests.
"""

from __future__ import annotations

import math

import numpy as np

from .core import Clustering, DistanceOracle, audit

VERIFY_TOL = 1e-6    # relative tolerance of every claim a generator checks

# ratio of consecutive micro-gaps along the single-linkage path
PATH_GAP_GROWTH = 1.01


def _proved(features, assignment, k, vi_at, max_violation=None, at_least=False):
    """The audit of the clustering, once it is checked to realize the claims.

    vi_at maps point indices to claimed violations: each audited vi must
    equal its claim (be at least it, when at_least) to a relative
    VERIFY_TOL, as must the max violation when one is claimed. A miss
    raises ValueError naming the claim.
    """
    report = audit(DistanceOracle.from_points(np.asarray(features, dtype=float)),
                   Clustering(np.asarray(assignment), k))
    claims = [(f"Vi[{i}]", report.vi[i], c) for i, c in vi_at.items()]
    if max_violation is not None:
        claims.append(("the max violation", report.max_violation, max_violation))
    for name, got, claimed in claims:
        slack = VERIFY_TOL * abs(claimed)
        if not (got >= claimed - slack if at_least else abs(got - claimed) <= slack):
            bound = "at least " if at_least else ""
            raise ValueError(f"the construction does not realize its claim: "
                             f"{name} = {float(got)}, claimed {bound}{float(claimed)}")
    return report


def kmeanspp_spacing_bound(alpha, n_blocks, r):
    """Smallest block spacing that keeps seeding failures unlikely.

    The seeding analysis wants spacing > alpha*r*sqrt(3*n_blocks/e) with
    failure budget e < 1/(100*n_blocks) per pick, which simplifies to
    alpha*r*n_blocks*sqrt(300).
    """
    eps_prob = 1.0 / (100.0 * n_blocks)
    return alpha * r * math.sqrt(3.0 * n_blocks / eps_prob)


def gen_kmeanspp_hard(alpha, n_blocks, r=1.0, spacing=None):
    """Blocks of four points where a plausible k-means++ run violates by alpha.

    Each block holds z, z-prime, v collinear (v centered, the others at
    +-alpha*r) and u at distance r from v, perpendicular to the line so
    that Lloyd started from centers (v, u) is a genuine fixed point with
    clusters {z, z', v} and {u}. Then v's own-cluster average is alpha*r
    against distance r to the singleton, a violation of exactly alpha.
    Blocks sit `spacing` apart so cross-block averages never interfere;
    the default spacing satisfies the seeding analysis bound.

    Feature order: block j contributes rows 4j..4j+3 as (z, z', v, u).
    metadata["clustering"] puts {z, z', v} in cluster 2j and {u} in 2j+1.
    """
    if not alpha > 1:
        raise ValueError("alpha must exceed 1")
    if n_blocks < 1:
        raise ValueError("need at least one block")
    if r <= 0:
        raise ValueError("r must be positive")
    bound = kmeanspp_spacing_bound(alpha, n_blocks, r)
    if spacing is None:
        spacing = bound * 1.01
    elif spacing < bound:
        raise ValueError("spacing below the seeding analysis bound")

    rows = []
    assignment = []
    v_indices, u_indices = [], []
    for j in range(n_blocks):
        c = j * spacing
        rows += [(c - alpha * r, 0.0), (c + alpha * r, 0.0), (c, 0.0), (c, r)]
        assignment += [2 * j, 2 * j, 2 * j, 2 * j + 1]
        v_indices.append(4 * j + 2)
        u_indices.append(4 * j + 3)
    features = np.asarray(rows)
    k = 2 * n_blocks
    # v violates by exactly alpha; z and z' violate by 1.5a/sqrt(a^2+1),
    # which only dominates for alpha below sqrt(5)/2
    expected_max = max(alpha, 1.5 * alpha / math.sqrt(alpha * alpha + 1.0))
    _proved(features, assignment, k, dict.fromkeys(v_indices, alpha), max_violation=expected_max)
    metadata = {
        "family": "kmeanspp-blocks",
        "alpha": alpha,
        "n_blocks": n_blocks,
        "r": r,
        "spacing": spacing,
        "k": k,
        "k_alpha": math.ceil(13 * n_blocks / 12),
        "clustering": assignment,
        "v_indices": v_indices,
        "u_indices": u_indices,
        "claimed_max_violation": expected_max,
    }
    return features, metadata


def gen_kcenter_hard(n, epsilon):
    """Two anchors plus two tight point circles that trap greedy 2-center.

    Anchors c1=(-1,0) and c2=(1,0) are the mutually farthest pair. Circle
    B1 (radius epsilon, n points) sits just right of the bisector at
    height 1/4, with exactly one point p on the bisector; B2 is B1
    mirrored through the origin. Greedy from c1 picks c2, then every B1
    point except p joins c2 while p (tie, earlier center wins) and all of
    B2 join c1. p then sits in a cluster whose points are ~1/2 away while
    the opposite cluster hugs it at ~2*epsilon, violating stability by at
    least n/8 once epsilon <= 1/(2n).

    Feature order: row 0 c1, row 1 c2, rows 2..n+1 circle B1 starting at
    p, rows n+2..2n+1 circle B2.
    """
    if n < 2:
        raise ValueError("need n >= 2 circle points")
    if not 0 < epsilon <= 1.0 / (2 * n):
        raise ValueError("epsilon must lie in (0, 1/(2n)]")
    angles = math.pi + 2.0 * math.pi * np.arange(n) / n
    b1 = np.column_stack(
        [epsilon + epsilon * np.cos(angles), 0.25 + epsilon * np.sin(angles)]
    )
    b2 = -b1
    features = np.vstack([[[-1.0, 0.0], [1.0, 0.0]], b1, b2])

    # the trap clustering: cluster 0 = {c1, p} + B2, cluster 1 = {c2} + B1\{p}
    assignment = np.ones(2 * n + 2, dtype=int)
    assignment[0] = assignment[2] = 0
    assignment[n + 2 :] = 0
    claimed = n / 8.0
    vi_p = _proved(features, assignment, 2, {2: claimed}, at_least=True).vi[2]
    metadata = {
        "family": "kcenter-balls",
        "n": n,
        "epsilon": epsilon,
        "c1": 0,
        "c2": 1,
        "p": 2,
        "clustering": assignment.tolist(),
        "claimed_min_violation": claimed,
        "audited_vi_p": float(vi_p),
    }
    return features, metadata


def gen_single_linkage_hard(n, epsilon):
    """A line where single linkage's 2-cut isolates one point badly.

    v1 sits at 0, v2 at 1, and v3..vn follow at strictly increasing
    micro-gaps c*PATH_GAP_GROWTH^j. Single linkage therefore merges the
    whole tail v2..vn before ever touching the unit gap, and the k=2 cut is
    {v1} vs {v2..vn}. The scale c is calibrated so v2's average distance
    into its own cluster is exactly epsilon*(n-1)/2 while its distance to
    the singleton is 1, making Vi(v2) = epsilon*(n-1)/2 on the nose
    (the (n-1)/4 headline at epsilon = 1/2). Verified by audit before
    returning. That is the only claim: for small epsilon a tail point can
    violate by more than v2 (at n = 21, epsilon = 1e-3 the max is 0.0104).
    """
    if n < 5:
        raise ValueError("need n >= 5")
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    ms = np.arange(2, n)                       # micro-gap slots g_2..g_{n-1}
    weights = (n - ms) * PATH_GAP_GROWTH ** ms   # sum_j d(v2, vj) = c * sum of these
    target_avg = epsilon * (n - 1) / 2.0
    c = target_avg * (n - 2) / weights.sum()
    gaps = np.concatenate([[1.0], c * PATH_GAP_GROWTH ** ms])
    if gaps[1:].max() >= 1.0:
        raise ValueError("micro-gaps reached the isolating gap; reduce epsilon or n")
    values = np.concatenate([[0.0], np.cumsum(gaps)])

    assignment = np.ones(n, dtype=int)
    assignment[0] = 0
    claimed = epsilon * (n - 1) / 2.0
    _proved(values, assignment, 2, {1: claimed})
    metadata = {
        "family": "single-linkage-path",
        "n": n,
        "epsilon": epsilon,
        "growth": PATH_GAP_GROWTH,
        "clustering": assignment.tolist(),
        "v2": 1,
        "claimed_vi_v2": claimed,
    }
    return values, metadata


def fixtures():
    """The small hand-built instances: a matrix and two line instances.

    fig1-no-stable: four points with no stable 2-clustering at all.
    fig2-two-stable: five points on a line (gaps 8, 1, 1/3, 8) with more
    than one stable 2-clustering.
    line-unique: the line {0, 1, 7, 8}, whose only stable 2-clustering is
    {0,1} | {7,8}.
    """
    m = np.zeros((4, 4))
    pairs = {(0, 1): 0.72, (0, 2): 0.64, (0, 3): 0.71,
             (1, 2): 0.51, (1, 3): 0.95, (2, 3): 0.48}
    for (i, j), d in pairs.items():
        m[i, j] = m[j, i] = d
    return {
        "fig1-no-stable": {"kind": "matrix", "matrix": m},
        "fig2-two-stable": {
            "kind": "line",
            "values": np.array([0.0, 8.0, 9.0, 9.0 + 1.0 / 3.0, 17.0 + 1.0 / 3.0]),
        },
        "line-unique": {"kind": "line", "values": np.array([0.0, 1.0, 7.0, 8.0])},
    }
