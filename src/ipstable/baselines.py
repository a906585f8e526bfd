"""Classic clustering algorithms, used as audit subjects and comparators.

None of these optimize for stability; they exist so the audit machinery has
realistic clusterings to grade and so the adversarial generators have
something to break. All are deterministic given their seed/start arguments.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    Clustering,
    _check_k,
    _cluster_averages,
    _nearest_foreign,
    _violation_vector,
    audit,
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
    """
    x = np.asarray(features, dtype=float)
    centers = np.asarray(center_coords, dtype=float).copy()
    k = len(centers)
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
        # each cluster's rows in id order, as x[assign == j] gives them
        xs = x[np.argsort(assign, kind="stable")]
        ends = np.cumsum(sizes)
        for j in range(k):
            centers[j] = xs[ends[j] - sizes[j] : ends[j]].mean(axis=0)
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


def linkage(oracle, variant="single"):
    """scipy's linkage matrix Z for single, average, or complete linkage.

    Z has n-1 rows: row r merges nodes Z[r, 0] and Z[r, 1] into node n + r
    at height Z[r, 2]; nodes 0..n-1 are the points. A one-point oracle gives
    an empty (0, 4) array.
    """
    if variant not in ("single", "average", "complete"):
        raise ValueError("variant must be single, average, or complete")
    if oracle.n == 1:
        return np.empty((0, 4))
    from scipy.cluster import hierarchy
    from scipy.spatial.distance import squareform

    return hierarchy.linkage(squareform(oracle.matrix(), checks=False), method=variant)


def _leaf_slices(z):
    """(order, children, start, size) of linkage matrix z.

    order is scipy's leaf order (`leaves_list`, left child first),
    children[r] the two nodes row r merges, and node v's points are
    order[start[v] : start[v] + size[v]].
    """
    n = len(z) + 1
    children = z[:, :2].astype(int)
    size = np.ones(2 * n - 1, dtype=int)
    size[n:] = z[:, 3]
    # a parent's id is above its children's, so reversed rows go top-down
    kids, sizes, start = children.tolist(), size.tolist(), [0] * (2 * n - 1)
    for r in range(n - 2, -1, -1):
        left, right = kids[r]
        start[left] = start[n + r]
        start[right] = start[left] + sizes[left]
    start = np.array(start)
    order = np.empty(n, dtype=int)
    order[start[:n]] = np.arange(n)
    return order, children, start, size


def _slices_clustering(order, start, size, nodes):
    """The clustering whose clusters are the given nodes' leaf slices."""
    nodes = np.asarray(nodes)
    nodes = nodes[np.argsort(start[nodes])]
    labels = np.empty(len(order), dtype=int)
    labels[order] = np.repeat(np.arange(len(nodes)), size[nodes])
    return Clustering.from_labels(labels)


def cut_dendrogram(z, k, slices=None):
    """The k clusters of linkage matrix z left after undoing its k-1 last merges.

    These are the k-1 highest merges, ties going to the later merge: scipy
    sorts Z's rows by nondecreasing height and numbers every parent above
    its children, so the last rows are the highest (height, node id) pairs.
    slices is `_leaf_slices(z)`, computed here when None.
    """
    n = len(z) + 1
    _check_k(k, n)
    order, children, start, size = _leaf_slices(z) if slices is None else slices
    # the undone merges are nodes >= 2n-k; the root alone is left at k = 1
    kids = np.append(children[n - k :], 2 * n - 2)
    frontier = kids[kids < 2 * n - k]
    return _slices_clustering(order, start, size, frontier)


def _score_bounds(own_avg, nearest, measure, eta):
    """(low, high) around the audited score of a split, from its own and
    nearest foreign averages read off cached columns.

    The audit's decisions and factors are within 1 +- eta of these, so a
    count brackets the stable limit by 1 +- eta and a max violation is
    scaled by it. A max of 0 or inf is exact: a factor is 0 or inf only
    when a sum is exactly 0, and a sum of nonnegative terms is 0 in every
    order or in none. eta None leaves the score unbounded.
    """
    if eta is None:
        return -math.inf, math.inf
    if measure == "num-unstable":
        limit = stable_limit(nearest)
        return (int(np.count_nonzero(own_avg > limit * (1.0 + eta))),
                int(np.count_nonzero(own_avg > limit * (1.0 - eta))))
    mv = float(np.max(_violation_vector(own_avg, nearest)))
    if mv == 0.0 or mv == math.inf:
        return mv, mv
    return mv * (1.0 - eta), mv * (1.0 + eta)


def greedy_prune(z, oracle, k, measure="num-unstable", slices=None):
    """Greedy top-down pruning of linkage matrix z toward k stable-ish clusters.

    Starts from the root's two children and, for k-2 rounds, splits the
    frontier node whose split gives the best audited score: fewest
    unstable points or smallest max violation. Ties go to the smallest
    node id. Only non-singleton nodes can split. z must be over the
    oracle's n points.

    A split is scored without an audit, from per-node columns of the
    cluster sums cached in one dict (one `_sums_to` per node, the first
    time it or its parent is a candidate: the frontier's nodes and the
    children of each node tried), giving a (low, high) interval on its audited
    score (`DistanceOracle._sums_slack`). Only the splits whose low end
    reaches the smallest high end and whose interval is not a single value
    are audited exactly, with the clustering labelled as
    `_slices_clustering` labels it; (score, node id) then picks among them.
    slices is `_leaf_slices(z)`, computed here when None.
    """
    if measure not in ("num-unstable", "max-violation"):
        raise ValueError("measure must be num-unstable or max-violation")
    if len(z) == 0:
        raise ValueError("cannot prune a single-leaf dendrogram")
    n = oracle.n
    if len(z) + 1 != n:
        raise ValueError("dendrogram and oracle size mismatch")
    _check_k(k, n, least=2)
    order, children, start, size = _leaf_slices(z) if slices is None else slices
    eta = oracle._sums_slack()
    columns = {}    # node -> its column of the cluster sums

    def column(v):
        if v not in columns:
            mask = np.zeros(n, dtype=bool)
            mask[order[start[v] : start[v] + size[v]]] = True
            columns[v] = oracle._sums_to(mask)
        return columns[v]

    frontier = children[-1].tolist()
    for _ in range(k - 2):
        scored = []
        for v in frontier:
            if v < n:
                continue
            cand = [w for w in frontier if w != v] + children[v - n].tolist()
            clustering = _slices_clustering(order, start, size, cand)
            sums = np.empty((n, len(cand)))
            for w in cand:
                sums[:, clustering.assignment[order[start[w]]]] = column(w)
            _, own_avg, avg = _cluster_averages(sums, clustering)
            bounds = _score_bounds(own_avg, _nearest_foreign(avg, clustering), measure, eta)
            scored.append((*bounds, v, cand))
        if not scored:
            raise RuntimeError("no splittable frontier node before reaching k")
        top = min(high for _, high, _, _ in scored)
        best = None
        for low, high, v, cand in scored:
            if low > top:
                continue
            if low != high:
                rep = audit(oracle, _slices_clustering(order, start, size, cand))
                low = rep.num_unstable if measure == "num-unstable" else rep.max_violation
            if best is None or (low, v) < (best[0], best[1]):
                best = (low, v, cand)
        frontier = best[2]
    return _slices_clustering(order, start, size, frontier)


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
