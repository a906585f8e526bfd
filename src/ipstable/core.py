"""Distance oracles, clustering containers, and IP-stability auditing.

A clustering is individually preference-stable (IP-stable) when every point
is, on average, at least as close to its own cluster (itself excluded) as to
any other cluster. This module holds the distance abstraction shared by all
solvers, the audit that quantifies how far a clustering is from stability,
and a brute-force reference solver for small instances.

The audit has one primitive: the n x k cluster-sums matrix S, where S[x, i]
is the total distance from point x to cluster i. The oracle computes it
(`DistanceOracle.cluster_sums`, or one column at a time with `_sums_to`,
which greedy pruning caches per dendrogram node). Both are cases of one
method per backend, `_member_row_sums`, so a column of either is the same
bit for bit. On a matrix it adds each cluster's member rows one at a time
in ascending id order, O(n^2) at any k. `_own_and_nearest` turns S into
own and nearest foreign averages in place, as `cluster_sums` returns a
fresh array, so an audit holds one n x k array. It is the only code that
forms averages, apart from greedy pruning's per-node average columns,
which divide the same columns by the same sizes.
Violation factors, the within-cluster cost and the separation check in
`separated` are all read from it. `brute_force` keeps its own plain
loops on purpose, as the reference the exact solvers are tested against.

All averages use the convention 0/0 = 0; a point with positive own-cluster
average and a zero foreign-cluster average has infinite violation.

One stability rule and one count rule hold for every caller, with no
per-call knob: a point is stable when own_avg <= stable_limit(foreign_avg),
a relative slack on the foreign side, and "at least frac * n points" means
`min_count(frac, n)`, the smallest whole count >= frac * n.

Distances must be finite and small enough that every row sum stays finite;
oracles reject anything else, points on a line and trees when they are
constructed and every other payload when its matrix is built. The audit
of a line, a tree or a view of either (`sub_oracle`) builds no matrix.

scipy is loaded on first use, only by multi-column point matrices, the
matrix backend's cluster sums (`scipy.sparse`), k-means and the linkage
baselines; the line, DP and tree solvers never import it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# The relative slack of the one stability rule, `stable_limit`
STABILITY_TOL = 1e-9

# Symmetry slack accepted when validating explicit matrices.
MATRIX_SYM_TOL = 1e-12

_FEATURE_METRICS = {
    "euclidean": "euclidean",
    "manhattan": "cityblock",
    "chebyshev": "chebyshev",
}


def cdist(xa, xb, metric):
    """scipy's cdist, imported on the first call so importing ipstable skips scipy."""
    from scipy.spatial.distance import cdist as scipy_cdist

    return scipy_cdist(xa, xb, metric)


def _check_range(largest, n):
    """Reject distances whose entries or row sums are not finite.

    If n times the largest distance is finite, so is every entry and every
    cluster sum the audit forms. NaN fails too.
    """
    if not math.isfinite(float(largest) * n):
        raise ValueError("distances are not finite or overflow the float range")


def _check_k(k, n, least=1):
    """The one rule for a cluster count: least <= k <= n."""
    if not least <= k <= n:
        raise ValueError(f"need {least} <= k <= n, got k={k}, n={n}")


def _check_p(p):
    """The one rule for a norm order: a real p >= 1 or math.inf."""
    if not p >= 1:                                   # also rejects NaN
        raise ValueError(f"p must be >= 1 or infinity, got {p}")


def stable_limit(foreign_avg):
    """The largest own average stable against foreign_avg: the one place
    the audit, `is_t_stable` and every solver read the stability rule."""
    return foreign_avg * (1.0 + STABILITY_TOL)


def min_count(frac, n):
    """The smallest whole count >= frac * n, read with a relative slack of a
    few ulps so that a product rounded just above a whole number counts as
    it (0.28 * 25 is 7.000000000000001 in floats, and asks for 7)."""
    return math.ceil(frac * n * (1.0 - 1e-15))


def _mirror_upper(m):
    """Overwrite m's strict lower triangle with its upper one, in place.

    Row by row: one np.copyto from m.T overlaps m, so numpy copies all of
    it first, and takes about twice as long at n = 1000.
    """
    for i in range(1, len(m)):
        m[i, :i] = m[:i, i]
    return m


def _line_sums_to(values, members):
    """Total distance from every point on a line to the points `members`.

    O(n log n) and no n x n array: sort the members and shift them and
    every point by their minimum, so the prefix sums are on the scale of
    the spread rather than of the values themselves. With j members at or
    below a shifted point x and prefix sums P over m members, the sum is
    (x*j - P[j]) + (P[m] - P[j] - x*(m - j)). The result depends only on
    the member set, so a cluster's column is the same bit for bit whatever
    the other clusters are.

    This stays apart from the line model of `line1d` on purpose: it is the
    audit that certifies the line solvers' exit 0, and sharing their
    arithmetic would check them against themselves.
    """
    members = np.sort(values[members])
    x = values - members[0]
    members -= members[0]
    prefix = np.concatenate(([0.0], np.cumsum(members)))
    j = np.searchsorted(members, x, side="right")
    return (x * j - prefix[j]) + ((prefix[-1] - prefix[j]) - x * (len(members) - j))


class DistanceOracle:
    """Uniform access to pairwise distances and to cluster sums.

    Three kinds of payload: a feature matrix plus a metric name, an explicit
    n x n distance matrix, or a weighted tree (path metric). Instances are
    immutable; the full matrix is computed lazily and cached, so repeated
    audits of the same oracle are cheap.

    Every matrix the oracle hands out is exactly symmetric with a zero
    diagonal: d(j, i) is d(i, j), i < j, as the upper triangle holds it.
    Explicit matrices are mirrored once at construction and a tree's matrix
    when it is built, so no caller has to choose a triangle.

    The cluster sums have one method, `_member_row_sums`, with one branch
    per backend; it is the only sums code that reads the payload. Points
    with a single column (all three metrics are |x - y| there), and views
    of them, take prefix sums on the line, and a tree takes two passes over
    its preorder per cluster (`WeightedTree.sums_to`); neither builds the
    matrix. Every other payload adds each cluster's member rows of its
    matrix. Any other restriction is a view of its base that sums with the
    base's backend, whether or not the base's matrix is built. Every call
    returns a fresh array, which the audit overwrites with its averages.
    """

    def __init__(self, n, matrix=None, features=None, metric=None, tree=None, base=None, index=None):
        self.n = int(n)
        self._matrix = matrix
        self._features = features
        self._metric = metric
        self._tree = tree
        self._line = features[:, 0] if features is not None and features.shape[1] == 1 else None
        self._base, self._index = base, index  # a view: point i is the base's point index[i]
        if base is not None and base._line is not None:
            self._line = base._line[index]

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
        if pts.shape[1] == 1:
            # the largest distance, without the matrix
            _check_range(float(pts.max()) - float(pts.min()), len(pts))
        return cls(pts.shape[0], features=pts, metric=metric)

    @classmethod
    def from_matrix(cls, matrix):
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
            raise ValueError("matrix must be square and nonempty")
        _check_range(m.max(), len(m))
        if np.any(m < 0):
            raise ValueError("matrix entries must be nonnegative")
        if np.any(np.abs(np.diagonal(m)) > MATRIX_SYM_TOL):
            raise ValueError("matrix diagonal must be zero")
        if np.max(np.abs(m - m.T)) > MATRIX_SYM_TOL:
            raise ValueError("matrix must be symmetric")
        m = _mirror_upper(m.copy())
        np.fill_diagonal(m, 0.0)
        return cls(m.shape[0], matrix=m)

    @classmethod
    def from_tree(cls, tree):
        """Path-metric oracle over a weighted tree, one point per node.

        O(n): the largest distance is the tree's diameter, found by two
        sweeps (the farthest node from the root is one end of a longest
        path), and the matrix is built only if `matrix` is called.
        """
        far = int(np.argmax(tree.dists_from(tree.root)))
        _check_range(tree.dists_from(far).max(), tree.n)
        return cls(tree.n, tree=tree)

    def matrix(self):
        """The n x n distance matrix, built on first use and cached.

        A tree's matrix is tree.distance_matrix with its upper triangle
        mirrored: the two triangles may differ in the last bits, as each
        sums its path in its own order. A view of a line takes |x - y| of its
        values, and any other view gathers its base's matrix.
        """
        if self._matrix is None and self._base is not None and self._line is None:
            self._matrix = self._base.matrix()[np.ix_(self._index, self._index)]
        elif self._matrix is None:
            if self._tree is not None:
                m = _mirror_upper(self._tree.distance_matrix())
            elif self._line is not None:
                # |x - y| for every metric; cdist's euclidean would square the
                # difference, flushing tiny distances to 0 and overflowing
                # large ones
                m = np.subtract.outer(self._line, self._line)
                np.abs(m, out=m)
            else:
                m = cdist(self._features, self._features, _FEATURE_METRICS[self._metric])
            _check_range(m.max(), len(m))
            self._matrix = m
        return self._matrix

    def cluster_sums(self, clustering):
        """The n x k matrix S[x, i]: total distance from point x to cluster i.

        S is a transposed view of `_member_row_sums`' k x n rows, each
        cluster's members in ascending id order: a C-order copy would take
        longer than the product at k = 500. The array is fresh, shared with
        no other call and no matrix, so the audit may overwrite it.
        """
        bounds = np.concatenate(([0], np.cumsum(clustering.sizes())))
        return self._member_row_sums(np.argsort(clustering.assignment, kind="stable"), bounds).T

    def _sums_to(self, mask):
        """Total distance from every point to mask's points: the column
        `cluster_sums` gives that cluster, bit for bit, as the one-row case
        of `_member_row_sums`. A fresh array, like `cluster_sums`."""
        members = np.flatnonzero(mask)
        return self._member_row_sums(members, [0, len(members)])[0]

    def _member_row_sums(self, members, bounds):
        """Row i: total distance from every point to members[bounds[i] : bounds[i + 1]].

        The one sums method, with one branch per backend, in a fresh k x n
        array. A line, its views included, runs `_line_sums_to` once per
        span, and a tree runs `WeightedTree.sums_to` once per span's mask;
        both fill one preallocated array. Any other view sums its base's
        rows index[members] and reads the columns at index, in order.

        Every other payload multiplies one k x n CSR indicator by the
        matrix: scipy adds each row's members one at a time, in the order
        given (ascending ids, from both callers), to a zero row. So a row
        depends on its member list alone, whatever the other rows are, and
        no n x k one-hot or BLAS call enters it. Every matrix is exactly
        symmetric, so row i holds the sums d(x, C_i) of every point x. O(n)
        per member, O(n^2) at any k.
        """
        if self._line is not None or self._tree is not None:    # a view has no tree
            rows = np.empty((len(bounds) - 1, self.n))
            for row, lo, hi in zip(rows, bounds[:-1], bounds[1:]):
                if self._line is not None:
                    row[:] = _line_sums_to(self._line, members[lo:hi])
                else:
                    mask = np.zeros(self.n, dtype=bool)
                    mask[members[lo:hi]] = True
                    row[:] = self._tree.sums_to(mask)
            return rows
        if self._base is not None:
            return self._base._member_row_sums(self._index[members], bounds)[:, self._index]
        from scipy.sparse import csr_array

        indicator = csr_array((np.ones(len(members)), members, bounds),
                              shape=(len(bounds) - 1, self.n))
        return indicator @ self.matrix()

    def sub_oracle(self, indices):
        """Restriction to the distinct points `indices`, in their order: a view
        of this oracle's base (itself unless it is a view) that copies nothing."""
        idx = np.asarray(indices)
        if idx.ndim != 1 or (idx.size and idx.dtype.kind not in "iu"):
            raise ValueError("restriction indices must be a 1-D sequence of integers")
        idx = idx.astype(np.intp)
        if idx.size and not (0 <= idx.min() and idx.max() < self.n) or len(np.unique(idx)) < len(idx):
            raise ValueError(f"restriction indices must be distinct and lie in [0, {self.n})")
        base, index = (self, idx) if self._base is None else (self._base, self._index[idx])
        return DistanceOracle(len(idx), base=base, index=index)


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
        _, first, inverse = np.unique(np.asarray(labels), return_index=True, return_inverse=True)
        rank = np.empty(len(first), dtype=int)
        rank[np.argsort(first)] = np.arange(len(first))
        return cls(rank[inverse], len(first))

    @property
    def n(self):
        return len(self.assignment)

    def sizes(self):
        return np.bincount(self.assignment, minlength=self.k)


@dataclass
class StabilityReport:
    """Result of auditing one clustering against one oracle."""

    vi: np.ndarray             # per-point violation factor
    num_unstable: int          # points with own avg > stable_limit(nearest foreign avg)
    max_violation: float       # max vi (the smallest t making the clustering t-stable)
    mean_violation: float      # mean vi over unstable points, 0 if none
    cost: float                # sum over clusters of avg within-cluster distance
    obj: float | None = None   # lp-norm of cluster size deviations, if targets given


def _violation_vector(own_avg, nearest):
    """Per-point violation factors own_avg / nearest (`_own_and_nearest`): 0
    where own_avg is 0 or k = 1, inf where only nearest is 0. Division is
    monotone, so this is the largest own/foreign ratio bit for bit."""
    with np.errstate(divide="ignore", over="ignore"):
        return np.divide(own_avg, nearest, out=np.zeros(len(own_avg)), where=own_avg > 0)


def _check_targets(targets, k):
    """Target cluster sizes as a float array: k finite whole numbers, each >= 1."""
    targets = np.asarray(targets, dtype=float)
    if targets.shape != (k,):
        raise ValueError("targets length must equal k")
    if not np.all(np.isfinite(targets) & (targets == np.floor(targets))):
        raise ValueError("targets must be finite whole numbers")
    if not np.all(targets >= 1):
        raise ValueError("targets must be at least 1: no cluster is empty")
    return targets


def _own_and_nearest(oracle, clustering):
    """(own_sum, own_avg, nearest) per point, all read from the n x k sums S.

    The only code that turns cluster sums into averages, apart from greedy
    pruning's per-node columns, which divide `_sums_to` columns (S's columns
    bit for bit) by the same sizes and so hold the same floats. own_sum[x]
    is S[x, a[x]], and own_avg[x] its average over the rest of x's cluster
    (0 for a singleton). nearest[x] is x's smallest average S[x, i] / |C_i|
    over the clusters i not its own (inf at k = 1). The averages are formed
    in S itself, which `cluster_sums` returns fresh: an audit allocates no
    other n x k array.
    """
    if clustering.n != oracle.n:
        raise ValueError("clustering and oracle size mismatch")
    sums = oracle.cluster_sums(clustering)
    a = clustering.assignment
    points = np.arange(len(a))
    sizes = clustering.sizes().astype(float)
    own_sum = sums[points, a]
    own_den = sizes[a] - 1.0
    own_avg = np.divide(own_sum, own_den, out=np.zeros(len(a)), where=own_den > 0)
    sums /= sizes
    sums[points, a] = np.inf
    return own_sum, own_avg, sums.min(axis=1)


def audit(oracle, clustering, targets=None, p=math.inf):
    """Measure a clustering: per-point violations plus aggregate quality.

    Args:
        oracle: DistanceOracle over the same n points.
        clustering: Clustering to score.
        targets: optional per-cluster target sizes (length k); enables `obj`.
        p: norm order for `obj` (real >= 1 or math.inf).

    Returns:
        StabilityReport. `cost` is the sum over clusters of the average
        within-cluster pairwise distance (singletons contribute 0), and `obj`
        is the lp-norm of (|C_i| - targets[i]).
    """
    own_sum, own_avg, nearest = _own_and_nearest(oracle, clustering)
    vi = _violation_vector(own_avg, nearest)
    unstable = own_avg > stable_limit(nearest)
    num_unstable = int(np.count_nonzero(unstable))
    max_violation = float(np.max(vi))
    mean_violation = float(np.mean(vi[unstable])) if num_unstable else 0.0

    # summing own_sum over a cluster counts each within-cluster pair twice,
    # so dividing by s(s-1) gives the average over the s(s-1)/2 pairs
    sizes = clustering.sizes()
    pair_sums = np.bincount(clustering.assignment, weights=own_sum, minlength=clustering.k)
    big = sizes >= 2
    cost = float(np.sum(pair_sums[big] / (sizes[big] * (sizes[big] - 1.0))))

    obj = None
    if targets is not None:
        dev = np.abs(sizes - _check_targets(targets, clustering.k))
        _check_p(p)
        if p == math.inf:
            obj = float(dev.max())
        else:
            # scaled by the largest deviation so dev**p cannot overflow
            top = dev.max()
            obj = 0.0 if top == 0 else float(top * np.sum((dev / top) ** p) ** (1.0 / p))
    return StabilityReport(vi, num_unstable, max_violation, mean_violation, cost, obj)


def is_t_stable(oracle, clustering, t):
    """True when no point's own average exceeds t * stable_limit(nearest foreign average)."""
    if not (t >= 1.0):
        raise ValueError("t must be at least 1")
    _, own_avg, nearest = _own_and_nearest(oracle, clustering)
    with np.errstate(over="ignore", invalid="ignore"):    # t = inf against 0 is NaN: stable
        return not np.any(own_avg > t * stable_limit(nearest))


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


def brute_force(oracle, k, mode="find-stable"):
    """Reference solver by set-partition enumeration, guarded to n <= 14.

    mode "find-stable" returns (clustering, its max violation) for the first
    IP-stable clustering found, or (None, None) if no stable k-clustering
    exists. mode "min-maxvi" returns the clustering minimizing the maximum
    violation factor together with that value.
    """
    n = oracle.n
    if n > 14:
        raise ValueError("brute force is limited to n <= 14 points")
    _check_k(k, n)
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
                    if own > stable_limit(other):
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
                return cl, audit(oracle, cl).max_violation
        else:
            if best_assign is None or worst < best_vi:
                best_vi = worst
                best_assign = list(a)
    if mode == "find-stable":
        return None, None
    return Clustering(np.array(best_assign), k), best_vi
