"""Distance oracles, clustering containers, and IP-stability auditing.

A clustering is individually preference-stable (IP-stable) when every point
is, on average, at least as close to its own cluster (itself excluded) as to
any other cluster. This module holds the distance abstraction shared by all
solvers, the audit that quantifies how far a clustering is from stability,
and a brute-force reference solver for small instances.

The audit has one primitive: the n x k cluster-sums matrix S = D @ onehot
(`_cluster_averages`). Violation factors, the within-cluster cost and the
separation check in `separated` are all read from it. `brute_force` keeps
its own plain loops on purpose, as the reference the exact solvers are
tested against.

All averages use the convention 0/0 = 0; a point with positive own-cluster
average and a zero foreign-cluster average has infinite violation.
Distances must be finite and small enough that every row sum stays finite;
oracles reject anything else when their matrix is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

# A point counts as stable against another cluster when
#   own_avg <= other_avg * (1 + STABILITY_TOL)
STABILITY_TOL = 1e-9

# Symmetry slack accepted when validating explicit matrices.
MATRIX_SYM_TOL = 1e-12

_FEATURE_METRICS = {
    "euclidean": "euclidean",
    "manhattan": "cityblock",
    "chebyshev": "chebyshev",
}


def _check_range(m):
    """Reject a distance matrix whose entries or row sums are not finite.

    One max-reduction: if n * max is finite, so is every entry and every
    cluster sum the audit forms. NaN propagates through max and fails too.
    """
    if not math.isfinite(float(m.max()) * len(m)):
        raise ValueError("distances are not finite or overflow the float range")


class DistanceOracle:
    """Uniform access to pairwise distances.

    Three kinds of payload: a feature matrix plus a metric name, an explicit
    n x n distance matrix, or a weighted tree (path metric). Instances are
    immutable; the full matrix is computed lazily and cached, so repeated
    audits of the same oracle are cheap.
    """

    def __init__(self, n, matrix=None, features=None, metric=None):
        self.n = int(n)
        self._matrix = matrix
        self._features = features
        self._metric = metric

    @classmethod
    def from_points(cls, points, metric="euclidean"):
        if metric not in _FEATURE_METRICS:
            raise ValueError(f"unknown metric {metric!r}")
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ValueError("points must be a nonempty (n, d) array")
        if not np.all(np.isfinite(pts)):
            raise ValueError("point coordinates must be finite")
        return cls(pts.shape[0], features=pts, metric=metric)

    @classmethod
    def from_matrix(cls, matrix):
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
            raise ValueError("matrix must be square and nonempty")
        _check_range(m)
        if np.any(m < 0):
            raise ValueError("matrix entries must be nonnegative")
        if np.any(np.abs(np.diagonal(m)) > MATRIX_SYM_TOL):
            raise ValueError("matrix diagonal must be zero")
        if np.max(np.abs(m - m.T)) > MATRIX_SYM_TOL:
            raise ValueError("matrix must be symmetric")
        return cls(m.shape[0], matrix=m.copy())

    @classmethod
    def from_tree(cls, tree, point_to_node=None):
        """Path-metric oracle over a weighted tree.

        point_to_node maps point index -> node id; identity by default.
        """
        m = tree.distance_matrix()
        if point_to_node is not None:
            idx = np.asarray(point_to_node, dtype=int)
            m = m[np.ix_(idx, idx)]
        _check_range(m)
        return cls(m.shape[0], matrix=m)

    def matrix(self):
        if self._matrix is None:
            key = _FEATURE_METRICS[self._metric]
            m = cdist(self._features, self._features, key)
            _check_range(m)
            self._matrix = m
        return self._matrix

    def d(self, x, y):
        return float(self.matrix()[x, y])

    def sub_oracle(self, indices):
        """Restriction to a subset of points (new indices follow `indices` order)."""
        idx = np.asarray(indices, dtype=int)
        m = self.matrix()[np.ix_(idx, idx)]
        return DistanceOracle(len(idx), matrix=m)


@dataclass(frozen=True)
class Clustering:
    """Assignment of n points to k nonempty clusters labeled 0..k-1."""

    assignment: np.ndarray
    k: int

    def __post_init__(self):
        a = np.asarray(self.assignment, dtype=int)
        object.__setattr__(self, "assignment", a)
        if a.ndim != 1 or len(a) == 0:
            raise ValueError("assignment must be a nonempty 1-D sequence")
        if self.k < 1:
            raise ValueError("k must be at least 1")
        seen = np.bincount(a, minlength=self.k) if a.min() >= 0 else None
        if seen is None or a.max() >= self.k or np.any(seen[: self.k] == 0):
            raise ValueError("cluster labels must cover 0..k-1 with no empty cluster")

    @classmethod
    def from_labels(cls, labels):
        """Compact arbitrary labels to 0..k-1 by first appearance."""
        labels = np.asarray(labels)
        _, first = np.unique(labels, return_index=True)
        order = labels[np.sort(first)]
        remap = {lab: i for i, lab in enumerate(order.tolist())}
        return cls(np.array([remap[l] for l in labels.tolist()]), len(remap))

    @property
    def n(self):
        return len(self.assignment)

    def sizes(self):
        return np.bincount(self.assignment, minlength=self.k)

    def members(self, i):
        return np.flatnonzero(self.assignment == i)

    def clusters(self):
        return [self.members(i) for i in range(self.k)]


@dataclass
class StabilityReport:
    """Result of auditing one clustering against one oracle."""

    vi: np.ndarray             # per-point violation factor
    num_unstable: int          # points with vi > 1 + tol
    max_violation: float       # max vi (the smallest t making the clustering t-stable)
    mean_violation: float      # mean vi over unstable points, 0 if none
    cost: float                # sum over clusters of avg within-cluster distance
    obj: float | None = None   # lp-norm of cluster size deviations, if targets given


def _cluster_averages(matrix, clustering):
    """Per-point cluster sums and averages, all read from one n x k product.

    S = D @ onehot holds S[x, i] = total distance from x to cluster i; it is
    the only place the package turns a distance matrix and a clustering into
    cluster sums. Returns (own_sum, own_avg, avg): own_sum[x] = S[x, a[x]],
    own_avg[x] is its average over the rest of x's cluster (0 for a
    singleton), and avg[x, i] = S[x, i] / |C_i|.
    """
    a = clustering.assignment
    n = len(a)
    onehot = np.zeros((n, clustering.k))
    onehot[np.arange(n), a] = 1.0
    sums = matrix @ onehot
    sizes = clustering.sizes().astype(float)

    own_sum = sums[np.arange(n), a]
    own_den = sizes[a] - 1.0
    own_avg = np.divide(own_sum, own_den, out=np.zeros(n), where=own_den > 0)
    return own_sum, own_avg, sums / sizes


def _violation_vector(own_avg, avg, clustering):
    """Per-point violation factors: worst own/foreign average ratio.

    0/0 counts as 0; a positive own average against a zero foreign average is
    an infinite violation. With k = 1 there is no foreign cluster and every
    factor is 0.
    """
    a = clustering.assignment
    n = len(a)
    if clustering.k == 1:
        return np.zeros(n)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratios = own_avg[:, None] / avg
    # own == 0 -> stable against everything (covers 0/0); own > 0, foreign == 0 -> inf
    ratios = np.where(own_avg[:, None] == 0.0, 0.0, ratios)
    ratios[np.isnan(ratios)] = 0.0
    ratios[np.arange(n), a] = -np.inf          # mask the own column
    return np.max(ratios, axis=1)


def audit(oracle, clustering, targets=None, p=math.inf, tol=STABILITY_TOL):
    """Measure a clustering: per-point violations plus aggregate quality.

    Args:
        oracle: DistanceOracle over the same n points.
        clustering: Clustering to score.
        targets: optional per-cluster target sizes (length k); enables `obj`.
        p: norm order for `obj` (real >= 1 or math.inf).
        tol: relative stability slack.

    Returns:
        StabilityReport. `cost` is the sum over clusters of the average
        within-cluster pairwise distance (singletons contribute 0), and `obj`
        is the lp-norm of (|C_i| - targets[i]).
    """
    if clustering.n != oracle.n:
        raise ValueError("clustering and oracle size mismatch")
    own_sum, own_avg, avg = _cluster_averages(oracle.matrix(), clustering)
    vi = _violation_vector(own_avg, avg, clustering)
    unstable = vi > 1.0 + tol
    num_unstable = int(np.count_nonzero(unstable))
    max_violation = float(np.max(vi)) if len(vi) else 0.0
    mean_violation = float(np.mean(vi[unstable])) if num_unstable else 0.0

    # summing own_sum over a cluster counts each within-cluster pair twice,
    # so dividing by s(s-1) gives the average over the s(s-1)/2 pairs
    sizes = clustering.sizes()
    pair_sums = np.bincount(clustering.assignment, weights=own_sum, minlength=clustering.k)
    big = sizes >= 2
    cost = float(np.sum(pair_sums[big] / (sizes[big] * (sizes[big] - 1.0))))

    obj = None
    if targets is not None:
        targets = np.asarray(targets, dtype=float)
        if len(targets) != clustering.k:
            raise ValueError("targets length must equal k")
        dev = np.abs(sizes - targets)
        if p == math.inf:
            obj = float(dev.max())
        else:
            if p < 1:
                raise ValueError("p must be >= 1")
            obj = float(np.sum(dev**p) ** (1.0 / p))
    return StabilityReport(vi, num_unstable, max_violation, mean_violation, cost, obj)


def is_t_stable(oracle, clustering, t, tol=STABILITY_TOL):
    """True when every point's violation factor is at most t (with slack)."""
    if not (t >= 1.0):
        raise ValueError("t must be at least 1")
    rep = audit(oracle, clustering, tol=tol)
    return bool(rep.max_violation <= t * (1.0 + tol))


def _partitions_into_k(n, k):
    """Yield assignments (lists) of n items into exactly k nonempty blocks.

    Restricted-growth-string enumeration: a[i] <= max(a[:i]) + 1, pruned so
    that the remaining positions can still open enough new blocks.
    """
    a = [0] * n

    def rec(i, used):
        if i == n:
            if used == k:
                yield a
            return
        if used + (n - i) < k:
            return
        top = min(used, k - 1)
        for b in range(top + 1):
            a[i] = b
            yield from rec(i + 1, used if b < used else used + 1)

    yield from rec(1, 1)


def brute_force(oracle, k, mode="find-stable", tol=STABILITY_TOL):
    """Reference solver by set-partition enumeration, guarded to n <= 14.

    mode "find-stable" returns (clustering, its max violation) for the first
    IP-stable clustering found, or (None, None) if no stable k-clustering
    exists. mode "min-maxvi" returns the clustering minimizing the maximum
    violation factor together with that value.
    """
    n = oracle.n
    if n > 14:
        raise ValueError("brute force is limited to n <= 14 points")
    if not 1 <= k <= n:
        raise ValueError("k must be in [1, n]")
    if mode not in ("find-stable", "min-maxvi"):
        raise ValueError(f"unknown mode {mode!r}")

    d = oracle.matrix().tolist()
    best_vi = math.inf
    best_assign = None
    for a in _partitions_into_k(n, k):
        sizes = [0] * k
        for b in a:
            sizes[b] += 1
        worst = 0.0
        ok = True
        for x in range(n):
            dx = d[x]
            sums = [0.0] * k
            for y in range(n):
                sums[a[y]] += dx[y]
            own_den = sizes[a[x]] - 1
            own = sums[a[x]] / own_den if own_den > 0 else 0.0
            if own == 0.0:
                continue
            for c in range(k):
                if c == a[x]:
                    continue
                other = sums[c] / sizes[c]
                if mode == "find-stable":
                    if own > other * (1.0 + tol):
                        ok = False
                        break
                else:
                    ratio = math.inf if other == 0.0 else own / other
                    if ratio > worst:
                        worst = ratio
            if mode == "find-stable" and not ok:
                break
        if mode == "find-stable":
            if ok:
                cl = Clustering(np.array(a), k)
                return cl, audit(oracle, cl, tol=tol).max_violation
        else:
            if best_assign is None or worst < best_vi:
                best_vi = worst
                best_assign = list(a)
    if mode == "find-stable":
        return None, None
    return Clustering(np.array(best_assign), k), best_vi
