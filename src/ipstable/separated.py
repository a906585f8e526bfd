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

Both linkages take the edges (i, j), i < j, in the strict order (d, i, j).
The size guard merges only on edges of the minimum spanning tree of that
order. When an edge e = (i, j) comes up, every earlier edge was either
merged or skipped with both sides at least min_count(alpha, n) points, and
sizes only grow. If e is off the tree, a path of earlier edges joins i and
j, and an undersized side holds every point of that path, j included, so e
joins nothing. Single linkage is the minimum spanning tree (Gower & Ross
1969), so linkage_size_guard runs Prim's O(n^2) algorithm in n numpy steps
and replays the n-1 tree edges; it never lists the n(n-1)/2 edges.

Criteria 2 and 3 of the conditioned linkage read a cluster pair's cross
spread and a point's furthest own partner, which grow as clusters merge, so
they can fire on an edge off the tree, for instance the first cross edge
scanned after a pair's spread passed its bound. That linkage scans the
edges, sorted a chunk at a time, in numpy batches; its state only changes
at a merge, so only the merges (at most n-1, O(n) each) run as Python
steps. The scan stops once no later edge can fire: every cluster is big
enough, no cluster pair spreads beyond the bound, and no point's furthest
own partner exceeds own_bound times the next edge's length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    STABILITY_TOL,
    Clustering,
    _check_k,
    _cluster_averages,
    _partitions_into_k,
    audit,
    min_count,
)
from .hst import cluster_via_embedding

GAMMA_MIN = 2.0 + math.sqrt(3.0)
ENUM_GUARD = 1e7
_FIRST_BATCH = 32    # edges in a linkage scan's first batch after a merge
_FIRST_CHUNK = 4096  # edges in the conditioned scan's first sorted chunk


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
    matrices of extreme inter-supercluster distances (diagonal 0). n and
    representatives, the smallest id per cluster, follow from clusters.
    merge_log records (distance, endpoint_a, endpoint_b, criterion) per
    executed merge, where criterion is 1 (size), 2 (cross spread), or 3
    (long own edge); the plain size-guarded variant only ever logs
    criterion 1.
    """

    clusters: list
    cross_min: np.ndarray
    cross_max: np.ndarray
    merge_log: list = field(default_factory=list)
    alpha: float = 0.0

    @property
    def ell(self):
        return len(self.clusters)

    @property
    def n(self):
        return sum(map(len, self.clusters))

    @property
    def representatives(self):
        return [c[0] for c in self.clusters]

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
    """Conditioned linkage state: cluster labels plus the incremental
    distance bookkeeping its three criteria read.

    Clusters are named by a root point: root[x] is the root of x's cluster,
    and size and the mn/mx rows and columns are read at roots only.
    """

    def __init__(self, m, thresh, spread_bound, own_bound):
        self.m = m
        self.n = len(m)
        self.thresh = thresh
        self.spread_bound = spread_bound
        self.own_bound = own_bound
        self.root = np.arange(self.n)
        self.size = np.ones(self.n, dtype=np.int64)
        self.small = self.n if thresh > 1 else 0   # clusters below thresh
        # extreme cross distances between current clusters, indexed by roots
        self.mn = m.copy()
        self.mx = m.copy()
        # per point: max distance into its own current cluster
        self.maxd = np.zeros(self.n)

    def fires(self, ri, rj, i, j, d):
        """The criterion (1-3) each edge (i, j) of length d between clusters
        ri and rj merges by under the current state, 0 where none fires."""
        small = (self.size[ri] < self.thresh) | (self.size[rj] < self.thresh)
        spread = self._wide(ri, rj)
        far = d * self.own_bound
        long_own = (self.maxd[i] > far) | (self.maxd[j] > far)
        return np.where(small, 1, np.where(spread, 2, np.where(long_own, 3, 0)))

    def reach(self):
        """The value of d * own_bound from which criteria 1 and 3 cannot fire.

        inf while some cluster is undersized; -inf once everything is one
        cluster, as no edge joins two clusters then. Otherwise criterion 3
        needs maxd[x] > d * own_bound, so it is maxd.max(). The state only
        changes at a merge, so this holds until the next one.
        """
        if self.small:
            return np.inf
        if self.size[self.root[0]] == self.n:
            return -np.inf
        return self.maxd.max()

    def wide_pair(self):
        """Whether some pair of current clusters spreads beyond the bound.

        Such a pair may still have unscanned cross edges, and the first of
        them merges it by criterion 2.
        """
        roots = np.flatnonzero(self.root == np.arange(self.n))
        return bool(self._wide(*np.ix_(roots, roots)).any())

    def _wide(self, ri, rj):
        """Criterion 2 per pair of roots: cross spread above the bound."""
        mn, mx = self.mn[ri, rj], self.mx[ri, rj]
        return np.divide(mx, mn, out=np.zeros_like(mx), where=mn > 0) > self.spread_bound

    def union(self, ra, rb):
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        sa, sb = int(self.size[ra]), int(self.size[rb])
        self.small -= (sa < self.thresh) + (sb < self.thresh) - (sa + sb < self.thresh)
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

    def scan(self, chunks):
        """Merge at every sorted edge whose criterion fires; returns the merge log.

        chunks yields the edges (i, j, d) in (d, i, j) order. The state only
        changes at a merge, so a whole batch is tested at once: the first
        firing edge that joins two clusters is merged and the scan resumes
        right after it. Batches start at _FIRST_BATCH edges and double while
        nothing fires. Before each batch the scan stops once no later edge
        can fire: from the edge where d * own_bound reaches reach(), only a
        wide pair can still merge, and the pairs are checked once per merge,
        only from there on. A batch ends at that edge rather than running
        past it.
        """
        log = []
        batch = _FIRST_BATCH
        reach, wide = self.reach(), None
        for iu, ju, du in chunks:
            pos = 0
            while pos < len(du):
                i, j, d = iu[pos:pos + batch], ju[pos:pos + batch], du[pos:pos + batch]
                if d[0] * self.own_bound >= reach:
                    if wide is None:
                        wide = self.wide_pair()
                    if not wide:
                        return log
                elif reach < np.inf:
                    # d * own_bound is nondecreasing along the sorted edges
                    cut = np.searchsorted(d * self.own_bound, reach)
                    i, j, d = i[:cut], j[:cut], d[:cut]
                ri, rj = self.root[i], self.root[j]
                crit = self.fires(ri, rj, i, j, d)
                hit = np.flatnonzero((crit != 0) & (ri != rj))
                if len(hit) == 0:
                    pos += len(d)
                    batch *= 2
                    continue
                h = hit[0]
                self.union(int(ri[h]), int(rj[h]))
                log.append((float(d[h]), int(i[h]), int(j[h]), int(crit[h])))
                pos += h + 1
                batch = _FIRST_BATCH
                reach, wide = self.reach(), None
        return log


def _edge_chunks(m):
    """All pairs i < j as (i, j, d) arrays in (d, i, j) order, a chunk at a time.

    A chunk holds every edge with tau_prev < d <= tau, ties at tau included,
    where tau is the length at the next rank of _FIRST_CHUNK, 3, 7, 15, ...
    times _FIRST_CHUNK. A stable sort of the chunk's lengths from the triu
    order, which is already the (i, j) order, gives the (d, i, j) order.
    Only the chunks a scan reaches are ranked and sorted.
    """
    n = len(m)
    du = m[np.triu(np.ones((n, n), dtype=bool), 1)]
    rows = np.arange(n)
    first = rows * (2 * n - rows - 1) // 2     # triu position of (i, i + 1)
    ranked = du.copy()                        # ranked[:done]: the done shortest lengths
    done, size, below = 0, _FIRST_CHUNK, -np.inf
    while done < len(du):
        rank = min(len(du), done + size)
        ranked[done:].partition(rank - 1 - done)
        tau = ranked[rank - 1]
        done, size = rank, size * 2
        if tau == below:                      # these ties came with the last chunk
            continue
        pos = np.flatnonzero((du > below) & (du <= tau))
        i = np.searchsorted(first, pos, side="right") - 1
        order = np.argsort(du[pos], kind="stable")
        pos, i = pos[order], i[order]
        yield i, pos - first[i] + i + 1, du[pos]
        below = tau


def _mst_edges(m):
    """Minimum spanning tree of symmetric m under the strict edge order (d, lo, hi).

    Prim's algorithm from point 0, one numpy step per added point: best[r]
    is the lightest known edge from remaining point rem[r] into the tree,
    via[r] its tree end. Ties in d go to the smaller (min id, max id) pair,
    so the tree is the unique one of that order. Returns the n-1 edges as
    (lo, hi, d) arrays, sorted in that order.
    """
    n = len(m)
    rem = np.arange(1, n)
    best = m[0, 1:].copy()
    via = np.zeros(n - 1, dtype=np.int64)
    lo = np.empty(n - 1, dtype=np.int64)
    hi = np.empty(n - 1, dtype=np.int64)
    d = np.empty(n - 1)
    for r in range(n - 2, -1, -1):          # r: last slot still remaining
        h = int(np.argmin(best[:r + 1]))
        ties = np.flatnonzero(best[:r + 1] == best[h])
        if len(ties) > 1:
            ends = via[ties], rem[ties]
            h = int(ties[np.lexsort((np.maximum(*ends), np.minimum(*ends)))[0]])
        v, u = int(rem[h]), int(via[h])
        lo[r], hi[r], d[r] = min(u, v), max(u, v), best[h]
        # the last remaining point takes the added point's slot
        rem[h], best[h], via[h] = rem[r], best[r], via[r]
        pts, b, w = rem[:r], best[:r], via[:r]
        c = m[v, pts]
        closer = c < b
        tie = c == b
        if tie.any():
            p, old = pts[tie], w[tie]
            new_lo, old_lo = np.minimum(v, p), np.minimum(old, p)
            new_hi, old_hi = np.maximum(v, p), np.maximum(old, p)
            closer[tie] = (new_lo < old_lo) | ((new_lo == old_lo) & (new_hi < old_hi))
        np.copyto(b, c, where=closer)
        np.copyto(w, v, where=closer)
    order = np.lexsort((hi, lo, d))
    return lo[order], hi[order], d[order]


def _cross_extremes(m, clusters):
    """ell x ell minima and maxima of m over each pair of clusters, diagonal 0.

    Grouped reductions over the cluster-sorted matrix: rows, then columns.
    """
    perm = np.concatenate(clusters)
    starts = np.cumsum([0] + [len(c) for c in clusters[:-1]])
    rows = m[perm]
    out = []
    for extreme in (np.minimum, np.maximum):
        block = extreme.reduceat(extreme.reduceat(rows, starts, axis=0)[:, perm], starts, axis=1)
        np.fill_diagonal(block, 0.0)
        out.append(block)
    return out


def linkage_size_guard(oracle, alpha):
    """Single linkage that merges only while a side is still undersized.

    Edges are taken in nondecreasing length (ties by endpoint ids) and a
    merge happens exactly when one side holds fewer than alpha*n points.
    Every final cluster then holds at least alpha*n points (or everything
    collapsed into one), because a smaller cluster's next incident edge
    would still have triggered a merge.

    Only edges of the minimum spanning tree in that order can merge (see the
    module docstring), so this runs Prim's algorithm and replays the n-1
    tree edges in order, with union by size (a size tie keeps the root of
    the edge's first endpoint). Cost: O(n^2) numpy work in n steps, then
    O(n log n) Python steps; the n(n-1)/2 edges are never listed or sorted.
    """
    _check_alpha(alpha)
    m = oracle.matrix()
    n = len(m)
    thresh = min_count(alpha, n)
    root = list(range(n))
    members = [[x] for x in range(n)]
    log = []
    for i, j, d in zip(*(a.tolist() for a in _mst_edges(m))):
        ra, rb = root[i], root[j]
        if len(members[ra]) >= thresh and len(members[rb]) >= thresh:
            continue
        if len(members[ra]) < len(members[rb]):
            ra, rb = rb, ra
        for x in members[rb]:
            root[x] = ra
        members[ra] += members[rb]
        log.append((d, i, j, 1))
    clusters = [sorted(members[r]) for r in range(n) if root[r] == r]
    return SuperclusterPartition(clusters, *_cross_extremes(m, clusters), log, alpha)


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

    Criteria 2 and 3 can fire on edges off the minimum spanning tree, so
    the edges are scanned in order, sorted a chunk at a time, until no
    later edge can fire (_MergeState.scan): numpy batches over the
    scanned edges and O(n) per merge (at most n-1 merges). The state's
    cross extremes at the final roots are the partition's, as min and max
    are exact.
    """
    _check_alpha(alpha)
    if not (gamma >= GAMMA_MIN and math.isfinite(gamma * gamma)):
        # NaN fails the comparison; above ~1.3e154 the merge bounds overflow
        raise ValueError(f"gamma must be at least 2 + sqrt(3) and below ~1.3e154, got {gamma}")
    spread_bound = ((gamma * gamma + 1.0) / (gamma - 1.0) ** 2) ** 2
    own_bound = 2.0 * gamma / (gamma - 1.0) ** 2
    m = oracle.matrix()
    st = _MergeState(m, min_count(alpha, oracle.n), spread_bound, own_bound)
    log = st.scan(_edge_chunks(m))
    roots = np.flatnonzero(st.root == np.arange(len(m)))
    clusters = [np.flatnonzero(st.root == r).tolist() for r in roots]
    at = np.ix_(roots, roots)
    return SuperclusterPartition(clusters, st.mn[at], st.mx[at], log, alpha)


def _check_alpha(alpha):
    if not 0.0 < alpha <= 1.0:                       # also rejects NaN
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")


def exact_enumerate(oracle, k, alpha):
    """Exactly stable k-clustering of a size-alpha separated instance.

    Runs the size-guarded linkage, then tries every grouping of the
    superclusters into k nonempty clusters and returns the first one the
    audit certifies stable. Refuses upfront when (1/alpha)**k exceeds 1e7;
    raises when no grouping is stable, which means the input had no
    sufficiently separated underlying clustering.
    """
    _check_k(k, oracle.n)
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
    labels = part.to_clustering().assignment
    for grouping in _partitions_into_k(ell, k):
        cand = Clustering(np.asarray(grouping)[labels], k)
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
    representative, the representatives are tree-embedded and k-clustered
    by hst.cluster_via_embedding, and each supercluster follows its
    representative. The result carries the measured embedding stretch
    (inf when two representatives are at distance 0, as for embed) and the
    cross-distance uniformity; their combination stretch * uniformity**2
    bounds the violation whenever the separation promise actually held.
    """
    _check_k(k, oracle.n)
    part = linkage_conditioned(oracle, alpha, gamma)
    if part.ell < k:
        raise ValueError("fewer superclusters than k; lower alpha or k")
    reps = cluster_via_embedding(oracle.sub_oracle(part.representatives), k, seed=seed)
    clustering = Clustering(reps.clustering.assignment[part.to_clustering().assignment], k)
    report = audit(oracle, clustering)
    return PipelineResult(clustering, report, part, reps.stretch, part.uniformity())
