"""Classic clustering algorithms, used as audit subjects and comparators.

None of these optimize for stability; they exist so the audit machinery has
realistic clusterings to grade and so the adversarial generators have
something to break. All are deterministic given their seed/start arguments.

`linkage` returns a `Dendrogram`, which lays out every node's points as one
slice of its leaf order once; `cut_dendrogram`, `prune_frontiers` and
`greedy_prune` read those slices, so any number of cuts and prunings of
one tree share them.
"""

from __future__ import annotations

import numpy as np

from .core import (
    Clustering,
    _check_k,
    _violation_vector,
    cdist,
    stable_limit,
)

LLOYD_MAX_ITERS = 100    # Lloyd stops here if no assignment fixpoint came first


def lloyd(features, center_coords):
    """Lloyd iterations from explicit starting centers.

    Returns (assignment, centers, inertia_history, n_repairs). Iterates to
    an assignment fixpoint or LLOYD_MAX_ITERS. An emptied cluster is repaired by
    reassigning the point farthest from that cluster's last center (among
    points whose cluster keeps at least 2 members); repairs can bump the
    objective, so inertia_history is only guaranteed nonincreasing while
    n_repairs stays 0.

    A center is its cluster's mean, `x[assign == j].mean(axis=0)` bit for
    bit. With two or more columns numpy's mean adds the rows one at a time
    in id order, and so does one weighted `np.bincount` per column, which
    gives every center at once. A single column numpy sums pairwise, so
    that case sums each cluster's rows with `np.add.reduce`, as mean does.
    """
    x = np.asarray(features, dtype=float)
    centers = np.asarray(center_coords, dtype=float).copy()
    k = len(centers)
    # per-column copies for the bincount centers; None for one column
    cols = np.ascontiguousarray(x.T) if x.shape[1] >= 2 else None
    assign = None
    inertias = []
    n_repairs = 0
    for _ in range(LLOYD_MAX_ITERS):
        d2 = cdist(x, centers, metric="sqeuclidean")
        new_assign = d2.argmin(axis=1)
        inertias.append(float(d2[np.arange(len(x)), new_assign].sum()))
        sizes = np.bincount(new_assign, minlength=k)
        # a repair moves a point out of a cluster of >= 2 into an empty one,
        # so the clusters empty now are all that need one
        for j in np.flatnonzero(sizes == 0):
            movable = sizes[new_assign] >= 2
            if not movable.any():
                raise RuntimeError("cannot repair empty cluster")
            i = int(np.where(movable, d2[:, j], -np.inf).argmax())
            sizes[new_assign[i]] -= 1
            sizes[j] += 1
            new_assign[i] = j
            n_repairs += 1
        if assign is not None and (new_assign == assign).all():
            break
        assign = new_assign
        if cols is None:
            # each cluster's rows in id order, as x[assign == j] gives them
            xs = x[np.argsort(assign, kind="stable")]
            ends = np.cumsum(sizes)
            for j in range(k):
                centers[j] = np.add.reduce(xs[ends[j] - sizes[j] : ends[j]], axis=0) / sizes[j]
        else:
            for c, col in enumerate(cols):
                centers[:, c] = np.bincount(assign, weights=col, minlength=k) / sizes
    return assign, centers, inertias, n_repairs


def kmeans_pp(features, k, seed=0):
    """k-means++ seeding followed by Lloyd, in Euclidean feature space.

    Seeding picks the first center uniformly, then each next center with
    probability proportional to squared distance from the chosen set.
    """
    x = np.asarray(features, dtype=float)
    n = len(x)
    _check_k(k, n)
    rng = np.random.default_rng(seed)
    idx = [int(rng.integers(n))]
    d2 = cdist(x, x[idx[-1:]], metric="sqeuclidean")[:, 0]
    while len(idx) < k:
        total = d2.sum()
        if total > 0:
            nxt = int(rng.choice(n, p=d2 / total))
        else:
            free = sorted(set(range(n)) - set(idx))
            nxt = free[int(rng.integers(len(free)))]
        idx.append(nxt)
        d2 = np.minimum(d2, cdist(x, x[nxt : nxt + 1], metric="sqeuclidean")[:, 0])
    assign, _, _, _ = lloyd(x, x[idx])
    return Clustering(assign, k)


def kcenter_greedy(oracle, k, first):
    """Farthest-first traversal from a required starting point.

    Each next center maximizes the distance to the chosen set (ties to the
    smallest point id). Points join their nearest center, ties to the
    earliest-selected one, except that a center always anchors its own
    cluster so all k clusters stay nonempty even among duplicates.
    """
    n = oracle.n
    _check_k(k, n)
    if not 0 <= first < n:
        raise ValueError("first out of range")
    m = oracle.matrix()
    centers = [int(first)]
    mind = m[first].copy()
    avail = np.ones(n, dtype=bool)
    avail[first] = False
    while len(centers) < k:
        # mask chosen ids so duplicate points cannot re-elect a center
        nxt = int(np.where(avail, mind, -np.inf).argmax())
        centers.append(nxt)
        avail[nxt] = False
        mind = np.minimum(mind, m[nxt])
    assign = m[:, centers].argmin(axis=1)
    for i, c in enumerate(centers):
        assign[c] = i
    return Clustering(assign, k)


LINKAGES = ("single", "average", "complete")     # the variants `linkage` builds


def linkage(oracle, variant="single"):
    """The Dendrogram of single, average, or complete linkage over the oracle's points."""
    if variant not in LINKAGES:
        raise ValueError("variant must be single, average, or complete")
    if oracle.n == 1:
        return Dendrogram(np.empty((0, 4)))
    from scipy.cluster import hierarchy
    from scipy.spatial.distance import squareform

    return Dendrogram(hierarchy.linkage(squareform(oracle.matrix(), checks=False), method=variant))


class Dendrogram:
    """A linkage matrix z with each node's points as one slice of a leaf order.

    z is scipy's: row r merges nodes z[r, 0] and z[r, 1] into node n + r at
    height z[r, 2]; nodes 0..n-1 are the points, and a one-point dendrogram
    has an empty (0, 4) z. order is scipy's leaf order (`leaves_list`, left
    child first), children[r] the two nodes row r merges, and node v's
    points are order[start[v] : start[v] + size[v]].
    """

    def __init__(self, z):
        self.z = z
        self.n = n = len(z) + 1
        self.children = z[:, :2].astype(int)
        self.size = np.ones(2 * n - 1, dtype=int)
        self.size[n:] = z[:, 3]
        # a parent's id is above its children's, so reversed rows go top-down
        kids, sizes, start = self.children.tolist(), self.size.tolist(), [0] * (2 * n - 1)
        for r in range(n - 2, -1, -1):
            left, right = kids[r]
            start[left] = start[n + r]
            start[right] = start[left] + sizes[left]
        self.start = np.array(start)
        self.order = np.empty(n, dtype=int)
        self.order[self.start[:n]] = np.arange(n)

    def clustering(self, nodes):
        """The clustering whose clusters are the given nodes' leaf slices."""
        nodes = np.asarray(nodes)
        nodes = nodes[np.argsort(self.start[nodes])]
        labels = np.empty(self.n, dtype=int)
        labels[self.order] = np.repeat(np.arange(len(nodes)), self.size[nodes])
        return Clustering.from_labels(labels)


def cut_dendrogram(tree, k):
    """The k clusters of a Dendrogram left after undoing its k-1 last merges.

    These are the k-1 highest merges, ties going to the later merge: scipy
    sorts z's rows by nondecreasing height and numbers every parent above
    its children, so the last rows are the highest (height, node id) pairs.
    """
    n = tree.n
    _check_k(k, n)
    # the undone merges are nodes >= 2n-k; the root alone is left at k = 1
    kids = np.append(tree.children[n - k :], 2 * n - 2)
    return tree.clustering(kids[kids < 2 * n - k])


def _split_score(own_avg, nearest, measure):
    """The audited score of a split from its own and nearest foreign averages:
    the count `audit` calls num_unstable, or its max violation."""
    if measure == "num-unstable":
        return int(np.count_nonzero(own_avg > stable_limit(nearest)))
    return float(np.max(_violation_vector(own_avg, nearest)))


def prune_frontiers(tree, oracle, measure="num-unstable"):
    """Greedy top-down pruning of a Dendrogram: the frontier after each round.

    Yields lists of dendrogram nodes, the root's two children first, then
    one more node per round, until every point is its own node. Each round
    splits the frontier node whose split gives the best audited score:
    fewest unstable points or smallest max violation. Ties go to the
    smallest node id. Only non-singleton nodes can split. No round depends
    on how many clusters a caller wants, so one pass serves every k. The
    tree must be over the oracle's n points.

    A split is scored without an audit. Each node's column of the cluster
    sums (`_sums_to`, the audit's column for that cluster bit for bit) is
    read once, the first time the node or its parent is a candidate, and
    kept as two average columns in leaf order: the foreign average col / s
    and, over the node's own slice, the own average col / (s - 1), 0 for a
    singleton. These are the floats `core._own_and_nearest` computes from
    the same columns. Once per round, each point's nearest and second-nearest
    foreign average over the frontier are tabled, with the node giving the
    nearest. Splitting v into (a, b) then changes only selections: a point
    in a takes the smaller of its nearest and b's average (and a point in
    b the same with a), and a point outside v the smallest of a's, b's and
    its nearest that is not v's, so the own and nearest averages are those
    of `_own_and_nearest` bit for bit, in leaf order, which neither a count
    nor a max depends on. So each split's score is its audit's, and
    (score, node id) picks the split.
    """
    if measure not in ("num-unstable", "max-violation"):
        raise ValueError("measure must be num-unstable or max-violation")
    if tree.n == 1:
        raise ValueError("cannot prune a single-leaf dendrogram")
    n = oracle.n
    if tree.n != n:
        raise ValueError("dendrogram and oracle size mismatch")
    order, children, start, size = tree.order, tree.children, tree.start, tree.size
    end = start + size
    # node -> (own average over its slice, foreign average), both in leaf order
    averages = {}

    def node_averages(v):
        if v not in averages:
            mask = np.zeros(n, dtype=bool)
            mask[order[start[v] : end[v]]] = True
            col = oracle._sums_to(mask)[order]
            s = float(size[v])
            own = col[start[v] : end[v]] / (s - 1.0) if s > 1 else np.zeros(1)
            averages[v] = own, col / s
        return averages[v]

    points = np.arange(n)
    frontier = children[-1].tolist()
    while True:
        yield frontier
        if len(frontier) == n:
            return
        # each point's own average, and its nearest and second-nearest
        # foreign averages over the frontier, with the nearest one's index
        own_avg = np.empty(n)
        far = np.empty((len(frontier), n))
        for i, w in enumerate(frontier):
            own_avg[start[w] : end[w]], far[i] = node_averages(w)
            far[i, start[w] : end[w]] = np.inf
        first = far.argmin(axis=0)
        near = far[first, points]
        far[first, points] = np.inf
        second = far.min(axis=0)
        best = None
        for i, v in enumerate(frontier):
            if v < n:
                continue
            a, b = children[v - n].tolist()
            (own_a, far_a), (own_b, far_b) = node_averages(a), node_averages(b)
            nearest = np.minimum(np.where(first == i, second, near), np.minimum(far_a, far_b))
            lo, mid, hi = start[v], end[a], end[v]
            nearest[lo:mid] = np.minimum(near[lo:mid], far_b[lo:mid])
            nearest[mid:hi] = np.minimum(near[mid:hi], far_a[mid:hi])
            split_own = own_avg.copy()
            split_own[lo:mid], split_own[mid:hi] = own_a, own_b
            score = _split_score(split_own, nearest, measure)
            if best is None or (score, v) < best[:2]:
                best = score, v, [w for w in frontier if w != v] + [a, b]
        frontier = best[2]


def greedy_prune(tree, oracle, k, measure="num-unstable"):
    """Greedy top-down pruning of a Dendrogram toward k stable-ish clusters.

    The clustering of `prune_frontiers`' k-node frontier, after k - 2
    rounds.
    """
    frontiers = prune_frontiers(tree, oracle, measure)
    frontier = next(frontiers)      # checks the tree, oracle and measure first
    _check_k(k, oracle.n, least=2)
    for _ in range(k - 2):
        frontier = next(frontiers)
    return tree.clustering(frontier)


def random_clustering(n, k, seed=0):
    """Uniform random assignment, repaired so every cluster is nonempty."""
    _check_k(k, n)
    rng = np.random.default_rng(seed)
    assign = rng.integers(k, size=n)
    missing = [j for j in range(k) if not (assign == j).any()]
    while missing:
        sizes = np.bincount(assign, minlength=k)
        donors = np.flatnonzero(sizes[assign] >= 2)
        pick = donors[int(rng.integers(len(donors)))]
        assign[pick] = missing.pop()
    return Clustering(assign, k)
