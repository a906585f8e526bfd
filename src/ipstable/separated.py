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
)
from .hst import embed_hst, hst_k_clustering, normalize_leaves

GAMMA_MIN = 2.0 + math.sqrt(3.0)
ENUM_GUARD = 1e7


def check_alpha_gamma(oracle, clustering, alpha, gamma, tol=STABILITY_TOL):
    """True iff the clustering is (alpha, gamma)-separated.

    Size condition: every cluster has at least alpha*n points. Separation:
    for each point, the average distance to every foreign cluster is at
    least gamma times the average to the rest of its own cluster. Own
    averages exclude the point itself (matching the stability audit), which
    is the stricter reading, so a pass here implies the guarantee
    downstream algorithms rely on; a singleton's own average is 0. Both
    averages come from the audit's cluster-sums kernel.
    """
    n = oracle.n
    if np.any(clustering.sizes() + tol < alpha * n):
        return False
    if clustering.k == 1:
        return True
    _, own_avg, avg = _cluster_averages(oracle.matrix(), clustering)
    avg[np.arange(n), clustering.assignment] = np.inf   # the own column is not foreign
    return not np.any(avg < gamma * own_avg[:, None] * (1.0 - tol))


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
        if self.ell == 1:
            return True
        return all(len(c) >= self.alpha * self.n - 1e-9 for c in self.clusters)

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
    """Union-find plus the incremental distance bookkeeping linkage needs."""

    def __init__(self, m):
        self.m = m
        self.n = len(m)
        self.parent = list(range(self.n))
        self.size = [1] * self.n
        self.members = [[i] for i in range(self.n)]
        # extreme cross distances between current clusters, indexed by roots
        self.mn = m.copy()
        self.mx = m.copy()
        # per point: max distance into its own current cluster
        self.maxd = np.zeros(self.n)

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, ra, rb):
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        a_pts = np.asarray(self.members[ra])
        b_pts = np.asarray(self.members[rb])
        cross = self.m[np.ix_(a_pts, b_pts)]
        self.maxd[a_pts] = np.maximum(self.maxd[a_pts], cross.max(axis=1))
        self.maxd[b_pts] = np.maximum(self.maxd[b_pts], cross.max(axis=0))
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        self.members[ra].extend(self.members[rb])
        self.members[rb] = []
        self.mn[ra, :] = np.minimum(self.mn[ra, :], self.mn[rb, :])
        self.mn[:, ra] = self.mn[ra, :]
        self.mx[ra, :] = np.maximum(self.mx[ra, :], self.mx[rb, :])
        self.mx[:, ra] = self.mx[ra, :]
        self.mn[ra, ra] = self.mx[ra, ra] = 0.0
        return ra

    def partition(self, alpha, merge_log):
        roots = sorted({self.find(i) for i in range(self.n)})
        clusters = [sorted(self.members[r]) for r in roots]
        ell = len(roots)
        cmn = np.zeros((ell, ell))
        cmx = np.zeros((ell, ell))
        for a in range(ell):
            for b in range(a + 1, ell):
                cmn[a, b] = cmn[b, a] = self.mn[roots[a], roots[b]]
                cmx[a, b] = cmx[b, a] = self.mx[roots[a], roots[b]]
        return SuperclusterPartition(
            clusters=clusters,
            cross_min=cmn,
            cross_max=cmx,
            representatives=[c[0] for c in clusters],
            merge_log=merge_log,
            alpha=alpha,
            n=self.n,
        )


def _sorted_edges(m):
    n = len(m)
    iu, ju = np.triu_indices(n, k=1)
    order = np.lexsort((ju, iu, m[iu, ju]))
    return iu[order], ju[order], m[iu, ju][order]


def linkage_size_guard(oracle, alpha):
    """Single linkage that merges only while a side is still undersized.

    Edges are scanned in nondecreasing length (ties by endpoint ids) and a
    merge happens exactly when one side holds fewer than alpha*n points.
    Every final cluster then holds at least alpha*n points (or everything
    collapsed into one), because a smaller cluster's next incident edge
    would still have triggered a merge.
    """
    m = oracle.matrix()
    st = _MergeState(m)
    log = []
    thresh = alpha * oracle.n
    for i, j, d in zip(*_sorted_edges(m)):
        ra, rb = st.find(int(i)), st.find(int(j))
        if ra == rb:
            continue
        if st.size[ra] < thresh or st.size[rb] < thresh:
            st.union(ra, rb)
            log.append((float(d), int(i), int(j), 1))
    return st.partition(alpha, log)


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
    """
    if gamma < GAMMA_MIN:
        raise ValueError("gamma must be at least 2 + sqrt(3)")
    m = oracle.matrix()
    st = _MergeState(m)
    log = []
    thresh = alpha * oracle.n
    spread_bound = ((gamma * gamma + 1.0) / (gamma - 1.0) ** 2) ** 2
    own_bound = 2.0 * gamma / (gamma - 1.0) ** 2
    for i, j, d in zip(*_sorted_edges(m)):
        i, j, d = int(i), int(j), float(d)
        ra, rb = st.find(i), st.find(j)
        if ra == rb:
            continue
        crit = 0
        if st.size[ra] < thresh or st.size[rb] < thresh:
            crit = 1
        elif st.mn[ra, rb] > 0 and st.mx[ra, rb] / st.mn[ra, rb] > spread_bound:
            crit = 2
        elif st.maxd[i] > own_bound * d or st.maxd[j] > own_bound * d:
            crit = 3
        if crit:
            st.union(ra, rb)
            log.append((d, i, j, crit))
    return st.partition(alpha, log)


def exact_enumerate(oracle, k, alpha, tol=STABILITY_TOL):
    """Exactly stable k-clustering of a size-alpha separated instance.

    Runs the size-guarded linkage, then tries every grouping of the
    superclusters into k nonempty clusters and returns the first one the
    audit certifies stable. Refuses upfront when (1/alpha)**k exceeds 1e7;
    raises when no grouping is stable, which means the input had no
    sufficiently separated underlying clustering.
    """
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
        rep = audit(oracle, cand, tol=tol)
        if rep.num_unstable == 0:
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


def pipeline(oracle, k, alpha, gamma, seed=0, tol=STABILITY_TOL):
    """Approximately stable k-clustering for separated instances.

    Conditioned linkage shrinks the instance to <= ceil(1/alpha)
    superclusters, the smallest point id of each becomes its
    representative, the representatives are tree-embedded and k-clustered,
    and each supercluster follows its representative. The result carries
    the measured embedding stretch and cross-distance uniformity; their
    combination stretch * uniformity**2 bounds the violation whenever the
    separation promise actually held.
    """
    part = linkage_conditioned(oracle, alpha, gamma)
    if part.ell < k:
        raise ValueError("fewer superclusters than k; lower alpha or k")
    reps = part.representatives
    rep_oracle = oracle.sub_oracle(reps)
    hst = normalize_leaves(embed_hst(rep_oracle, seed))
    rep_clusters = hst_k_clustering(hst, k, tol=tol)
    t = hst.point_distance_matrix()
    d = rep_oracle.matrix()
    mask = d > 0
    stretch = float((t[mask] / d[mask]).max()) if mask.any() else 1.0

    assignment = np.empty(oracle.n, dtype=int)
    for sc in range(part.ell):
        assignment[part.clusters[sc]] = rep_clusters.assignment[sc]
    clustering = Clustering(assignment, k)
    report = audit(oracle, clustering, tol=tol)
    return PipelineResult(clustering, report, part, stretch, part.uniformity())
