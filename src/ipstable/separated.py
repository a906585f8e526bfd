"""Clustering instances with a well-separated underlying solution.

An instance is (alpha, gamma)-clusterable when some k-clustering exists whose
clusters all hold at least alpha*n points and where every point's average
distance to any foreign cluster is at least gamma times the average to its
own. For gamma >= 2+sqrt(3) every within-cluster distance is bounded by every
incident cross distance, so size-guarded single linkage cannot merge across
the hidden clusters. Two consumers build on that:

* exact_enumerate: guarded linkage down to <= ceil(1/alpha) superclusters,
  then exhaustive grouping into k clusters, returning the first grouping the
  stability audit accepts.
* pipeline: linkage with the stronger conditioning criteria, one
  representative per supercluster, a random tree embedding of the
  representatives, and the leaf clustering mapped back through the
  superclusters. Reports measured stretch and cross-distance uniformity so
  the caller gets a concrete per-run quality certificate instead of an
  asymptotic constant.

Both linkages walk the n(n-1)/2 edges in length order. The linkage state
only changes at a merge, so the edges are tested in numpy batches and only
the merges (at most n-1, O(n) each) run as Python steps. At n=1000 one
call takes about 0.25 s, of which sorting the edges is about 0.1 s; a
Python loop over every edge took 1.4 s for the conditioned linkage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    STABILITY_TOL,
    Clustering,
    _cluster_averages,
    _partitions_into_k,
    audit,
    min_count,
)
from .hst import embed_hst, hst_k_clustering, normalize_leaves

GAMMA_MIN = 2.0 + math.sqrt(3.0)
ENUM_GUARD = 1e7
_FIRST_BATCH = 32    # edges in a linkage scan's first batch after a merge


def check_alpha_gamma(oracle, clustering, alpha, gamma):
    """True iff the clustering is (alpha, gamma)-separated.

    Size condition: every cluster has at least min_count(alpha, n) points.
    Separation: for each point, the average distance to every foreign
    cluster is at least gamma times the average to the rest of its own
    cluster. Own
    averages exclude the point itself (matching the stability audit), which
    is the stricter reading, so a pass here implies the guarantee
    downstream algorithms rely on; a singleton's own average is 0. Both
    averages come from the audit's cluster-sums kernel.
    """
    n = oracle.n
    if np.any(clustering.sizes() < min_count(alpha, n)):
        return False
    if clustering.k == 1:
        return True
    _, own_avg, avg = _cluster_averages(oracle, clustering)
    avg[np.arange(n), clustering.assignment] = np.inf   # the own column is not foreign
    return not np.any(avg < gamma * own_avg[:, None] * (1.0 - STABILITY_TOL))


@dataclass
class SuperclusterPartition:
    """Outcome of a guarded linkage phase over n points.

    clusters hold sorted point ids; cross_min/cross_max are ell x ell
    matrices of extreme inter-supercluster distances (diagonal 0);
    representatives pick the smallest id per cluster. merge_log records
    (distance, endpoint_a, endpoint_b, criterion) per executed merge, where
    criterion is 1 (size), 2 (cross spread), or 3 (long own edge);
    the plain size-guarded variant only ever logs criterion 1.
    """

    clusters: list
    cross_min: np.ndarray
    cross_max: np.ndarray
    representatives: list
    merge_log: list = field(default_factory=list)
    alpha: float = 0.0
    n: int = 0

    @property
    def ell(self):
        return len(self.clusters)

    def sizes_ok(self):
        """All supercluster sizes reached alpha*n (a lone cluster counts)."""
        return self.ell == 1 or min(map(len, self.clusters)) >= min_count(self.alpha, self.n)

    def uniformity(self):
        """Max over supercluster pairs of (max cross / min cross)."""
        if self.ell < 2:
            return 1.0
        iu = np.triu_indices(self.ell, k=1)
        mn = self.cross_min[iu]
        mx = self.cross_max[iu]
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.where(mn > 0, mx / mn, np.where(mx > 0, np.inf, 1.0))
        return float(r.max())

    def to_clustering(self):
        assignment = np.empty(self.n, dtype=int)
        for i, c in enumerate(self.clusters):
            assignment[c] = i
        return Clustering(assignment, self.ell)


class _MergeState:
    """Cluster labels plus the incremental distance bookkeeping linkage needs.

    Clusters are named by a root point: root[x] is the root of x's cluster,
    and size and the mn/mx rows and columns are read at roots only.
    """

    def __init__(self, m):
        self.m = m
        self.n = len(m)
        self.root = np.arange(self.n)
        self.size = np.ones(self.n, dtype=np.int64)
        # extreme cross distances between current clusters, indexed by roots
        self.mn = m.copy()
        self.mx = m.copy()
        # per point: max distance into its own current cluster
        self.maxd = np.zeros(self.n)

    def union(self, ra, rb):
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        a_pts = np.flatnonzero(self.root == ra)
        b_pts = np.flatnonzero(self.root == rb)
        cross = self.m[a_pts[:, None], b_pts]
        self.maxd[a_pts] = np.maximum(self.maxd[a_pts], cross.max(axis=1))
        self.maxd[b_pts] = np.maximum(self.maxd[b_pts], cross.max(axis=0))
        self.root[b_pts] = ra
        self.size[ra] += self.size[rb]
        self.mn[ra, :] = np.minimum(self.mn[ra, :], self.mn[rb, :])
        self.mn[:, ra] = self.mn[ra, :]
        self.mx[ra, :] = np.maximum(self.mx[ra, :], self.mx[rb, :])
        self.mx[:, ra] = self.mx[ra, :]
        self.mn[ra, ra] = self.mx[ra, ra] = 0.0
        return ra

    def scan(self, fires, done):
        """Merge at every sorted edge whose criterion fires; returns the merge log.

        fires(ri, rj, i, j, d) gives, for a batch of edges (i, j) of length
        d whose endpoints sit in clusters ri and rj, the criterion (1-3) each
        edge would merge by under the current state, 0 where none fires.
        The state only changes at a merge, so a whole batch is tested at
        once: the first firing edge that joins two clusters is merged and
        the scan resumes right after it. Batches start at _FIRST_BATCH
        edges and double while nothing fires. done() is asked before each
        batch and ends the scan early when it holds.
        """
        iu, ju, du = _sorted_edges(self.m)
        log = []
        pos, batch = 0, _FIRST_BATCH
        while pos < len(du) and not done():
            i, j, d = iu[pos:pos + batch], ju[pos:pos + batch], du[pos:pos + batch]
            ri, rj = self.root[i], self.root[j]
            crit = fires(ri, rj, i, j, d)
            hit = np.flatnonzero((crit != 0) & (ri != rj))
            if len(hit) == 0:
                pos += batch
                batch *= 2
                continue
            h = hit[0]
            self.union(int(ri[h]), int(rj[h]))
            log.append((float(d[h]), int(i[h]), int(j[h]), int(crit[h])))
            pos += h + 1
            batch = _FIRST_BATCH
        return log

    def partition(self, alpha, merge_log):
        roots = np.flatnonzero(self.root == np.arange(self.n))
        clusters = [np.flatnonzero(self.root == r).tolist() for r in roots]
        grid = np.ix_(roots, roots)
        # the upper triangle, mirrored: from_matrix tolerates a tiny asymmetry
        cmn = np.triu(self.mn[grid], 1)
        cmx = np.triu(self.mx[grid], 1)
        return SuperclusterPartition(
            clusters=clusters,
            cross_min=cmn + cmn.T,
            cross_max=cmx + cmx.T,
            representatives=[c[0] for c in clusters],
            merge_log=merge_log,
            alpha=alpha,
            n=self.n,
        )


def _sorted_edges(m):
    """All pairs i < j by nondecreasing length, ties in (i, j) order."""
    iu, ju = np.triu_indices(len(m), k=1)
    d = m[iu, ju]
    order = np.argsort(d, kind="stable")   # triu order is already (i, j) order
    return iu[order], ju[order], d[order]


def linkage_size_guard(oracle, alpha):
    """Single linkage that merges only while a side is still undersized.

    Edges are scanned in nondecreasing length (ties by endpoint ids) and a
    merge happens exactly when one side holds fewer than alpha*n points.
    Every final cluster then holds at least alpha*n points (or everything
    collapsed into one), because a smaller cluster's next incident edge
    would still have triggered a merge. Sizes only grow, so the scan stops
    as soon as no cluster is undersized: no later edge can merge.

    Cost: sorting the n(n-1)/2 edges, then numpy batches up to the last
    merge plus O(n) per merge (at most n-1 merges).
    """
    st = _MergeState(oracle.matrix())
    thresh = min_count(alpha, oracle.n)

    def fires(ri, rj, i, j, d):
        return (st.size[ri] < thresh) | (st.size[rj] < thresh)

    def done():
        return not np.any(st.size[st.root] < thresh)

    return st.partition(alpha, st.scan(fires, done))


def linkage_conditioned(oracle, alpha, gamma):
    """Single linkage with the three separation-aware merge criteria.

    A cross edge (x, y) between clusters D and D' forces a merge when:
    1. either side holds fewer than alpha*n points;
    2. the spread of D-D' cross distances exceeds ((g^2+1)/(g-1)^2)^2;
    3. some own-cluster partner of x or of y is further away than
       2g/(g-1)^2 times d(x, y).
    Any firing criterion merges; under a true (alpha, gamma)-separation
    none of them can fire across the hidden clusters, so the result
    refines it while pushing every cluster to at least alpha*n points.

    Criteria 2 and 3 can fire on any edge, so every edge is scanned:
    sorting the n(n-1)/2 edges, numpy batches over all of them, and O(n)
    per merge (at most n-1 merges).
    """
    if not (gamma >= GAMMA_MIN and math.isfinite(gamma * gamma)):
        # NaN fails the comparison; above ~1.3e154 the merge bounds overflow
        raise ValueError(f"gamma must be at least 2 + sqrt(3) and below ~1.3e154, got {gamma}")
    spread_bound = ((gamma * gamma + 1.0) / (gamma - 1.0) ** 2) ** 2
    own_bound = 2.0 * gamma / (gamma - 1.0) ** 2
    st = _MergeState(oracle.matrix())
    thresh = min_count(alpha, oracle.n)

    def fires(ri, rj, i, j, d):
        small = (st.size[ri] < thresh) | (st.size[rj] < thresh)
        mn, mx = st.mn[ri, rj], st.mx[ri, rj]
        spread = np.divide(mx, mn, out=np.zeros_like(mx), where=mn > 0) > spread_bound
        far = d * own_bound
        long_own = (st.maxd[i] > far) | (st.maxd[j] > far)
        return np.where(small, 1, np.where(spread, 2, np.where(long_own, 3, 0)))

    return st.partition(alpha, st.scan(fires, lambda: False))


def _check_alpha(alpha):
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")


def exact_enumerate(oracle, k, alpha):
    """Exactly stable k-clustering of a size-alpha separated instance.

    Runs the size-guarded linkage, then tries every grouping of the
    superclusters into k nonempty clusters and returns the first one the
    audit certifies stable. Refuses upfront when (1/alpha)**k exceeds 1e7;
    raises when no grouping is stable, which means the input had no
    sufficiently separated underlying clustering.
    """
    _check_alpha(alpha)
    if (1.0 / alpha) ** k > ENUM_GUARD:
        raise ValueError("enumeration too large: (1/alpha)**k exceeds the guard")
    part = linkage_size_guard(oracle, alpha)
    ell = part.ell
    if ell < k:
        raise RuntimeError(
            "guarded linkage left fewer superclusters than k; "
            "no separated clustering at this alpha"
        )
    assignment = np.empty(oracle.n, dtype=int)
    for grouping in _partitions_into_k(ell, k):
        for sc, g in enumerate(grouping):
            assignment[part.clusters[sc]] = g
        cand = Clustering(assignment.copy(), k)
        if audit(oracle, cand).num_unstable == 0:
            return cand
    raise RuntimeError(
        "no stable grouping of the superclusters exists; "
        "the separation promise does not hold"
    )


@dataclass
class PipelineResult:
    clustering: Clustering
    report: object                 # StabilityReport on the full instance
    partition: SuperclusterPartition
    stretch: float                 # representative tree-embedding stretch
    uniformity: float              # max cross-distance spread across superclusters

    def certificate(self):
        """Per-run quality bound implied by the logged factors."""
        return self.stretch * self.uniformity ** 2


def pipeline(oracle, k, alpha, gamma, seed=0):
    """Approximately stable k-clustering for separated instances.

    Conditioned linkage shrinks the instance to <= ceil(1/alpha)
    superclusters, the smallest point id of each becomes its
    representative, the representatives are tree-embedded and k-clustered,
    and each supercluster follows its representative. The result carries
    the measured embedding stretch and cross-distance uniformity; their
    combination stretch * uniformity**2 bounds the violation whenever the
    separation promise actually held.
    """
    _check_alpha(alpha)
    part = linkage_conditioned(oracle, alpha, gamma)
    if part.ell < k:
        raise ValueError("fewer superclusters than k; lower alpha or k")
    reps = part.representatives
    rep_oracle = oracle.sub_oracle(reps)
    hst = normalize_leaves(embed_hst(rep_oracle, seed))
    rep_clusters = hst_k_clustering(hst, k)
    t = hst.point_distance_matrix()
    d = rep_oracle.matrix()
    mask = d > 0
    stretch = float((t[mask] / d[mask]).max()) if mask.any() else 1.0

    assignment = np.empty(oracle.n, dtype=int)
    for sc in range(part.ell):
        assignment[part.clusters[sc]] = rep_clusters.assignment[sc]
    clustering = Clustering(assignment, k)
    report = audit(oracle, clustering)
    return PipelineResult(clustering, report, part, stretch, part.uniformity())
