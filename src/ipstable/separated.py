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

Only the pipeline's uniformity reads cross-supercluster distances. The
conditioned linkage tracks their extremes exactly for its criterion 2 and
measures the uniformity from them; the size guard, which serves the
enumeration, tracks none.

Both linkages take the edges (i, j), i < j, in the strict order (d, i, j),
and both start with one replay of the minimum spanning tree of that order
(_replay): Prim's O(n^2) algorithm in n numpy steps, then the n-1 tree edges
in order with union by size. Prim breaks ties in d by the smaller tree end
for one remaining point and by the smaller (lo, hi) among points. Single
linkage is the minimum spanning tree (Gower & Ross 1969); neither linkage
lists the n(n-1)/2 edges for it. The replay returns one label array in root
order, relabeled in place by the merge state and held by SuperclusterPartition.

The size guard merges only on tree edges. When an edge e = (i, j) comes up,
every earlier edge was either merged or skipped with both sides at least
min_count(alpha, n) points, and sizes only grow. If e is off the tree, a
path of earlier edges joins i and j, and an undersized side holds every
point of that path, j included, so e joins nothing. So linkage_size_guard
is the replay with every tree edge between two big enough sides skipped.

The conditioned linkage's criterion 1 fires on every edge with an
undersized side, so up to the first tree edge e whose two sides are both
big enough its scan is Kruskal's algorithm (Kruskal 1956) and merges exactly
the replayed tree edges; the replay stops at e. Every earlier edge, tree or
not, then joins two points already in one cluster. Criteria 2 and 3 read a
cluster pair's cross spread and a point's furthest own partner, which grow
as clusters merge, so from e on they can fire on an edge off the tree, for
instance the first cross edge scanned after a pair's spread passed its
bound. The replay's c clusters seed the merge state once (c x c cross
extremes), and the scan resumes over the cross edges, which all come at or
after e: gathered and bucketed by length once, each chunk sorted when the
scan reaches it, and tested in numpy batches. The state only changes at a
merge, so only the merges (O(n) each) run as Python steps. The scan stops
once no later edge can fire: every cluster is big enough, no cluster pair
spreads beyond the bound, and no point's furthest own partner exceeds
own_bound times the next edge's length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    STABILITY_TOL,
    Clustering,
    _check_k,
    _own_and_nearest,
    _partitions_into_k,
    audit,
    min_count,
)
from .hst import cluster_via_embedding

GAMMA_MIN = 2.0 + math.sqrt(3.0)
ENUM_GUARD = 1e7
_FIRST_BATCH = 32    # edges in a linkage scan's first batch after a merge
_FIRST_CHUNK = 4096  # edges in the conditioned scan's first sorted chunk
_SAMPLE = 1 << 13      # lengths sampled for the conditioned scan's chunk bounds
_BLOCK_CELLS = 1 << 16  # matrix cells per block of rows the conditioned linkage gathers


def check_alpha_gamma(oracle, clustering, alpha, gamma):
    """True iff the clustering is (alpha, gamma)-separated.

    Size condition: every cluster has at least min_count(alpha, n) points.
    Separation: for each point, the average distance to every foreign
    cluster is at least gamma times the average to the rest of its own
    cluster. Own
    averages exclude the point itself (matching the stability audit), which
    is the stricter reading, so a pass here implies the guarantee
    downstream algorithms rely on; a singleton's own average is 0. Both
    averages come from the audit's cluster-sums kernel, and a clustering of
    another size than the oracle is a ValueError, as in the audit.
    """
    _, own_avg, nearest = _own_and_nearest(oracle, clustering)
    if np.any(clustering.sizes() < min_count(alpha, oracle.n)):
        return False
    return not np.any(nearest < gamma * own_avg * (1.0 - STABILITY_TOL))


@dataclass
class SuperclusterPartition:
    """Outcome of a guarded linkage phase over n points.

    label[x] is point x's supercluster, 0..ell-1 in root order;
    representatives (the smallest id per cluster) and n follow from it.
    merge_log records (distance, endpoint_a, endpoint_b, criterion) per
    executed merge, where criterion is 1 (size), 2 (cross spread), or 3
    (long own edge); the plain size-guarded variant only ever logs
    criterion 1. uniformity is the largest cross spread over
    supercluster pairs, max cross distance over min cross distance (inf
    when the min is 0 and the max is not, 1.0 with fewer than two
    superclusters). The conditioned linkage sets it from the extremes it
    tracks; the size-guarded one tracks none and leaves it None.
    """

    label: np.ndarray
    merge_log: list = field(default_factory=list)
    alpha: float = 0.0
    uniformity: float | None = None

    @property
    def ell(self):
        return int(self.label.max()) + 1

    @property
    def n(self):
        return len(self.label)

    @property
    def representatives(self):
        return np.unique(self.label, return_index=True)[1].tolist()

    def to_clustering(self):
        return Clustering(self.label, self.ell)


class _MergeState:
    """Conditioned linkage state over the clusters the MST replay left:
    cluster labels plus the incremental distance bookkeeping the three
    criteria read.

    label[x] is the label of x's cluster, the replay's label array updated
    in place. The labels 0..c-1 follow the clusters' root order, and a
    merge keeps the label of the cluster whose root union by size keeps,
    so the final clusters in label order are in root order. size and the
    mn/mx entries of distinct clusters are read at live labels only; a
    merged-away label has size 0.
    """

    def __init__(self, m, label, thresh, spread_bound, own_bound):
        self.m = m
        self.n = n = len(m)
        self.thresh = thresh
        self.spread_bound = spread_bound
        self.own_bound = own_bound
        self.label = label
        self.size = np.bincount(label)
        c = len(self.size)
        order = np.argsort(label, kind="stable")    # the points in label order
        self.small = int(np.count_nonzero(self.size < thresh))   # clusters below thresh
        # extreme cross distances between the clusters, and per point the
        # max distance into its own cluster, by grouped reductions over
        # blocks of rows in label order; each block's columns are gathered
        # in label order, so every cluster is one run of columns
        self.mn = np.full((c, c), np.inf)
        self.mx = np.zeros((c, c))                  # distances are nonnegative
        self.maxd = np.empty(n)
        starts = np.cumsum(self.size) - self.size
        rows = max(1, _BLOCK_CELLS // n)
        for r0 in range(0, n, rows):
            pts = order[r0:r0 + rows]
            block = m.take(pts, axis=0).take(order, axis=1)
            lo = np.minimum.reduceat(block, starts, axis=1)
            hi = np.maximum.reduceat(block, starts, axis=1)
            lab = self.label[pts]
            self.maxd[pts] = hi[np.arange(len(pts)), lab]
            runs = np.flatnonzero(np.diff(lab, prepend=-1))
            ids = lab[runs]
            self.mn[ids] = np.minimum(self.mn[ids], np.minimum.reduceat(lo, runs))
            self.mx[ids] = np.maximum(self.mx[ids], np.maximum.reduceat(hi, runs))

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
        if self.size[self.label[0]] == self.n:
            return -np.inf
        return self.maxd.max()

    def _live_pairs(self):
        """The label pairs (a, b), a < b, of the current clusters."""
        live = np.flatnonzero(self.size)
        return (live[t] for t in np.triu_indices(len(live), 1))

    def wide_pair(self):
        """Whether some pair of current clusters spreads beyond the bound.

        Such a pair may still have unscanned cross edges, and the first of
        them merges it by criterion 2.
        """
        return bool(self._wide(*self._live_pairs()).any())

    def _wide(self, ri, rj):
        """Criterion 2 per pair of labels: cross spread above the bound."""
        mn, mx = self.mn[ri, rj], self.mx[ri, rj]
        return np.divide(mx, mn, out=np.zeros_like(mx), where=mn > 0) > self.spread_bound

    def union(self, ra, rb):
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        sa, sb = int(self.size[ra]), int(self.size[rb])
        self.small -= (sa < self.thresh) + (sb < self.thresh) - (sa + sb < self.thresh)
        a_pts = np.flatnonzero(self.label == ra)
        b_pts = np.flatnonzero(self.label == rb)
        cross = self.m[a_pts[:, None], b_pts]
        self.maxd[a_pts] = np.maximum(self.maxd[a_pts], cross.max(axis=1))
        self.maxd[b_pts] = np.maximum(self.maxd[b_pts], cross.max(axis=0))
        self.label[b_pts] = ra
        self.size[ra] += self.size[rb]
        self.size[rb] = 0
        self.mn[ra, :] = np.minimum(self.mn[ra, :], self.mn[rb, :])
        self.mn[:, ra] = self.mn[ra, :]
        self.mx[ra, :] = np.maximum(self.mx[ra, :], self.mx[rb, :])
        self.mx[:, ra] = self.mx[ra, :]

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
                ri, rj = self.label[i], self.label[j]
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

    def uniformity(self):
        """The largest cross spread over pairs of current clusters (see
        SuperclusterPartition), from the exact extremes."""
        a, b = self._live_pairs()
        mn, mx = self.mn[a, b], self.mx[a, b]
        with np.errstate(divide="ignore", invalid="ignore"):
            spread = np.where(mn > 0, mx / mn, np.where(mx > 0, np.inf, 1.0))
        # every spread is >= 1.0, so the initial value only answers ell < 2
        return float(spread.max(initial=1.0))


def _cross_edges(m, label):
    """The pairs i < j with label[i] != label[j] as (i, j, d) arrays in
    (d, i, j) order, a chunk at a time.

    The pairs are gathered once, in (i, j) order, a block of rows at a time,
    and bucketed once by length: chunk b holds the lengths in (tau_(b-1),
    tau_b], so tied lengths share a chunk. tau_b is read off a sorted
    sample of the lengths near rank (2^(b+1) - 1) * _FIRST_CHUNK. A chunk is
    sorted only when the scan reaches it: by length, and by (i, j) among
    tied lengths. label is read before the first yield only.
    """
    n = len(m)
    rows = max(1, _BLOCK_CELLS // n)
    pos, dist = [], []
    for r0 in range(0, n, rows):
        r = np.arange(r0, min(n, r0 + rows))
        p = np.flatnonzero((label[r, None] != label) & (np.arange(n) > r[:, None]))
        pos.append(p + r0 * n)
        dist.append(m[r0:r0 + rows].ravel()[p])
    pos, dist = np.concatenate(pos), np.concatenate(dist)
    step = max(1, len(dist) // _SAMPLE)
    sample = np.sort(dist[::step])
    ranks = _FIRST_CHUNK * (2 ** np.arange(1, 2 + len(dist).bit_length()) - 1)
    taus = sample[ranks[ranks < len(dist)] // step]
    # the taus below each length, one pass per tau: np.searchsorted counts the
    # same, but its binary search over unsorted lengths is several times slower
    bucket = np.zeros(len(dist), dtype=np.uint8)
    for tau in taus:
        bucket += dist > tau
    for b in range(len(taus) + 1):
        sel = np.flatnonzero(bucket == b)
        if len(sel) == 0:
            continue
        o = np.argsort(dist[sel])
        if np.any(np.diff(dist[sel[o]]) == 0):
            o = np.argsort(dist[sel], kind="stable")   # ties in the gather's (i, j) order
        sel = sel[o]
        i = pos[sel] // n
        yield i, pos[sel] - i * n, dist[sel]


def _mst_edges(m):
    """Minimum spanning tree of symmetric m under the strict edge order (d, lo, hi).

    Prim's algorithm from point 0, one numpy step per added point over
    full-length arrays: best[p] is the lightest known edge from point p into
    the tree and via[p] its tree end. A point joining the tree leaves
    `outside` and holds best inf, so it is never picked or updated again,
    and its row is read as a view of m. Ties in d go to the smaller (lo, hi) pair,
    which for one remaining point is the smaller tree end, so the tree is
    the unique one of that order. Returns the n-1 edges as (lo, hi, d)
    arrays, sorted.
    """
    n = len(m)
    best = m[0].copy()
    best[0] = np.inf
    via = np.zeros(n, dtype=np.int64)
    outside = np.ones(n, dtype=bool)
    outside[0] = False
    lo = np.empty(n - 1, dtype=np.int64)
    hi = np.empty(n - 1, dtype=np.int64)
    d = np.empty(n - 1)
    for r in range(n - 1):
        h = int(np.argmin(best))
        ties = np.flatnonzero(best == best[h])
        if len(ties) > 1:
            ends = via[ties], ties
            h = int(ties[np.lexsort((np.maximum(*ends), np.minimum(*ends)))[0]])
        u = int(via[h])
        lo[r], hi[r], d[r] = min(u, h), max(u, h), best[h]
        outside[h] = False
        best[h] = np.inf
        c = m[h]
        closer = c < best
        tie = c == best
        if tie.any():
            # for one remaining point p, (min, max) of an edge (u, p) orders by u
            closer |= tie & (h < via)
        closer &= outside
        np.copyto(best, c, where=closer)
        np.copyto(via, h, where=closer)
    order = np.lexsort((hi, lo, d))
    return lo[order], hi[order], d[order]


def _replay(m, thresh, stop):
    """Replay the minimum spanning tree's edges in their (d, lo, hi) order.

    An edge merges, with union by size (a size tie keeps the root of the
    edge's first endpoint), while one of its sides holds fewer than thresh
    points. At an edge whose two sides both reach thresh the replay skips
    it or, with stop, ends there. Returns each point's cluster label, 0..c-1
    in root order, the merge log, and the length of the edge the replay
    stopped at (None when it did not stop).
    """
    n = len(m)
    root = list(range(n))
    members = [[x] for x in range(n)]
    log = []
    d_stop = None
    for i, j, d in zip(*(a.tolist() for a in _mst_edges(m))):
        ra, rb = root[i], root[j]
        if len(members[ra]) >= thresh and len(members[rb]) >= thresh:
            if stop:
                d_stop = d
                break
            continue
        if len(members[ra]) < len(members[rb]):
            ra, rb = rb, ra
        for x in members[rb]:
            root[x] = ra
        members[ra] += members[rb]
        log.append((d, i, j, 1))
    return np.unique(root, return_inverse=True)[1], log, d_stop


def linkage_size_guard(oracle, alpha):
    """Single linkage that merges only while a side is still undersized.

    Edges are taken in nondecreasing length (ties by endpoint ids) and a
    merge happens exactly when one side holds fewer than alpha*n points.
    Every final cluster then holds at least alpha*n points (or everything
    collapsed into one), because a smaller cluster's next incident edge
    would still have triggered a merge.

    Only edges of the minimum spanning tree in that order can merge (see the
    module docstring), so this is the MST replay (_replay) with every edge
    between two big enough sides skipped. Cost: O(n^2) numpy work in n
    steps, then O(n log n) Python steps; the n(n-1)/2 edges are never
    listed or sorted.
    """
    _check_alpha(alpha)
    m = oracle.matrix()
    label, log, _ = _replay(m, min_count(alpha, len(m)), stop=False)
    return SuperclusterPartition(label, log, alpha)


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

    Up to the first tree edge whose two sides are both big enough, the
    merges are the size guard's MST replay (module docstring), so _replay
    runs them and stops at that edge. The replay's c clusters then seed the
    merge state once, and the scan resumes over the cross edges
    (_cross_edges), which all come at or after the stop edge, until no later
    edge can fire (_MergeState.scan): numpy batches over the scanned edges
    and O(n) per merge. The state's cross extremes at the final clusters
    give the partition's uniformity, as min and max are exact.
    """
    _check_alpha(alpha)
    if not (gamma >= GAMMA_MIN and math.isfinite(gamma * gamma)):
        # NaN fails the comparison; above ~1.3e154 the merge bounds overflow
        raise ValueError(f"gamma must be at least 2 + sqrt(3) and below ~1.3e154, got {gamma}")
    spread_bound = ((gamma * gamma + 1.0) / (gamma - 1.0) ** 2) ** 2
    own_bound = 2.0 * gamma / (gamma - 1.0) ** 2
    m = oracle.matrix()
    thresh = min_count(alpha, len(m))
    label, log, d_stop = _replay(m, thresh, stop=True)
    if thresh <= 1:
        # the replay stopped at its first edge with every point a singleton:
        # no cluster is undersized or has a far own partner, and every
        # singleton pair's spread is 1, so no criterion can fire
        return SuperclusterPartition(label, log, alpha, 1.0)
    st = _MergeState(m, label, thresh, spread_bound, own_bound)
    if d_stop is not None and (d_stop * own_bound < st.reach() or st.wide_pair()):
        log += st.scan(_cross_edges(m, st.label))
    return SuperclusterPartition(np.unique(st.label, return_inverse=True)[1], log, alpha,
                                 st.uniformity())


def _check_alpha(alpha):
    if not 0.0 < alpha <= 1.0:                       # also rejects NaN
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")


def exact_enumerate(oracle, k, alpha):
    """Exactly stable k-clustering of a size-alpha separated instance.

    Runs the size-guarded linkage, then tries every grouping of the
    superclusters into k nonempty clusters and returns the first one the
    audit certifies stable. Refuses when (1/alpha)**k or, after the linkage,
    the S(ell, k) groupings (ell can reach n) exceed 1e7; raises when none is
    stable, as then the input had no sufficiently separated clustering.
    """
    _check_k(k, oracle.n)
    _check_alpha(alpha)
    try:
        too_large = (1.0 / alpha) ** k > ENUM_GUARD
    except OverflowError:                            # a power past the float range
        too_large = True
    if too_large:
        raise ValueError("enumeration too large: (1/alpha)**k exceeds the guard")
    part = linkage_size_guard(oracle, alpha)
    ell = part.ell
    if ell < k:
        raise RuntimeError(
            "guarded linkage left fewer superclusters than k; "
            "no separated clustering at this alpha"
        )
    onto = sum((-1) ** j * math.comb(k, j) * (k - j) ** ell for j in range(k + 1))
    if onto > ENUM_GUARD * math.factorial(k):       # onto maps / k! = S(ell, k)
        raise ValueError(f"enumeration too large: S({ell}, {k}) groupings exceed the guard")
    for grouping in _partitions_into_k(ell, k):
        cand = Clustering(np.asarray(grouping)[part.label], k)
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

    def certificate(self):
        """Per-run quality bound implied by the logged factors."""
        return self.stretch * self.partition.uniformity ** 2


def pipeline(oracle, k, alpha, gamma, seed=0):
    """Approximately stable k-clustering for separated instances.

    Conditioned linkage shrinks the instance to <= ceil(1/alpha)
    superclusters, the smallest point id of each becomes its
    representative, the representatives are tree-embedded and k-clustered
    by hst.cluster_via_embedding, and each supercluster follows its
    representative. The result carries the measured embedding stretch
    (inf when two representatives are at distance 0, as for embed), and its
    partition the cross-distance uniformity; stretch * uniformity**2
    bounds the violation whenever the separation promise actually held.
    """
    _check_k(k, oracle.n)
    part = linkage_conditioned(oracle, alpha, gamma)
    if part.ell < k:
        raise ValueError("fewer superclusters than k; lower alpha or k")
    reps = cluster_via_embedding(oracle.sub_oracle(part.representatives), k, seed=seed)
    clustering = Clustering(reps.clustering.assignment[part.label], k)
    report = audit(oracle, clustering)
    return PipelineResult(clustering, report, part, reps.stretch)
