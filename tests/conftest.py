"""Shared helpers: an independent audit implementation and instance generators.

naive_vi, naive_cost and naive_alpha_gamma below are deliberately written with
plain loops and no shared code with the package, so the audit's cluster-sums
kernel is checked against a reimplementation rather than against itself.
"""

import itertools
import math

import numpy as np

from ipstable.core import DistanceOracle
from ipstable.hst import Hst
from ipstable.tree import WeightedTree

TOL = 1e-9


def naive_vi(matrix, labels):
    """Per-point violation ratios, straight from the definition.

    A point's ratio is its average distance to its own cluster (excluding
    itself) divided by its smallest average distance to another cluster.
    Singletons and 1-clusterings get 0. A zero own-average gives 0; a
    positive own-average against a zero foreign average gives inf.
    """
    m = np.asarray(matrix, dtype=float).tolist()   # Python floats: x / tiny is inf, not a warning
    labels = list(labels)
    n = len(labels)
    ks = sorted(set(labels))
    out = []
    for x in range(n):
        own = [y for y in range(n) if labels[y] == labels[x]]
        if len(own) == 1 or len(ks) == 1:
            out.append(0.0)
            continue
        own_avg = sum(m[x][y] for y in own if y != x) / (len(own) - 1)
        worst = 0.0
        for c in ks:
            if c == labels[x]:
                continue
            other = [y for y in range(n) if labels[y] == c]
            other_avg = sum(m[x][y] for y in other) / len(other)
            if other_avg == 0.0:
                ratio = 0.0 if own_avg == 0.0 else math.inf
            else:
                ratio = own_avg / other_avg
            worst = max(worst, ratio)
        out.append(worst)
    return out


def naive_num_unstable(matrix, labels, tol=TOL):
    return sum(1 for v in naive_vi(matrix, labels) if v > 1.0 + tol)


def naive_cost(matrix, labels):
    """Sum over clusters of the average distance over unordered member pairs.

    Singletons contribute 0.
    """
    m = np.asarray(matrix, dtype=float)
    labels = list(labels)
    cost = 0.0
    for c in sorted(set(labels)):
        members = [x for x in range(len(labels)) if labels[x] == c]
        pairs = [(x, y) for i, x in enumerate(members) for y in members[i + 1 :]]
        if pairs:
            cost += sum(m[x][y] for x, y in pairs) / len(pairs)
    return cost


def naive_alpha_gamma(matrix, labels, alpha, gamma, tol=TOL):
    """(alpha, gamma)-separation by per-point, per-cluster loops.

    Every cluster needs at least alpha*n points; every point's average to each
    foreign cluster must be at least gamma times its average to the rest of
    its own cluster (0 for a singleton).
    """
    m = np.asarray(matrix, dtype=float)
    labels = list(labels)
    n = len(labels)
    clusters = {c: [y for y in range(n) if labels[y] == c] for c in set(labels)}
    if any(len(members) + tol < alpha * n for members in clusters.values()):
        return False
    for x in range(n):
        own = clusters[labels[x]]
        own_avg = 0.0 if len(own) == 1 else sum(m[x][y] for y in own) / (len(own) - 1)
        for c, members in clusters.items():
            if c == labels[x]:
                continue
            foreign_avg = sum(m[x][y] for y in members) / len(members)
            if foreign_avg < gamma * own_avg * (1.0 - tol):
                return False
    return True


def all_label_partitions(n, k):
    """Every partition of range(n) into exactly k nonempty blocks, as labels.

    Independent of the library's enumerator: filters surjective restricted
    growth strings.
    """
    for labels in itertools.product(range(k), repeat=n):
        seen = []
        ok = True
        for l in labels:
            if l not in seen:
                if l != len(seen):
                    ok = False
                    break
                seen.append(l)
        if ok and len(seen) == k:
            yield list(labels)


def compositions(n, k):
    """Ordered positive integer compositions of n into k parts."""
    if k == 1:
        yield (n,)
        return
    for first in range(1, n - k + 2):
        for rest in compositions(n - first, k - 1):
            yield (first,) + rest


def contiguous_stable_optimum(values, targets, p, tol=TOL):
    """Exhaustive best objective over stable contiguous clusterings.

    Works on the sorted values; returns None when no contiguous stable
    clustering with len(targets) clusters exists.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    k = len(targets)
    m = np.abs(x[:, None] - x[None, :])
    best = None
    for sizes in compositions(n, k):
        labels = []
        for ci, s in enumerate(sizes):
            labels.extend([ci] * s)
        if naive_num_unstable(m, labels, tol=tol) > 0:
            continue
        devs = [abs(s - t) for s, t in zip(sizes, targets)]
        if p == math.inf:
            obj = float(max(devs))
        else:
            obj = float(sum(d ** p for d in devs)) ** (1.0 / p)
        if best is None or obj < best:
            best = obj
    return best


def random_points(rng, n, d=2, scale=5.0):
    return rng.normal(size=(n, d)) * scale


def random_graph_metric(rng, n):
    """A genuine finite metric from the shortest-path closure of a graph."""
    w = rng.uniform(0.2, 4.0, size=(n, n))
    w = (w + w.T) / 2.0
    np.fill_diagonal(w, 0.0)
    # sparsify but keep a connecting path
    mask = rng.random((n, n)) < 0.25
    mask |= mask.T
    for i in range(n - 1):
        mask[i, i + 1] = mask[i + 1, i] = True
    w[~mask] = np.inf
    np.fill_diagonal(w, 0.0)
    for mid in range(n):  # Floyd-Warshall
        w = np.minimum(w, w[:, mid : mid + 1] + w[mid : mid + 1, :])
    return w


def random_tree(rng, n, wmax=3.0):
    edges = []
    for v in range(1, n):
        u = int(rng.integers(0, v))
        edges.append((u, v, float(rng.uniform(0.1, wmax))))
    return WeightedTree(n, edges)


def random_hst(rng, max_depth=4, max_children=3, p_internal_point=0.15):
    """A random valid 2-HST with every childless node mapped to a point.

    Some internal nodes may also carry points, so leaf normalization has
    real work to do.
    """
    parent = [-1]
    depth_of = [0]
    frontier = [0]
    for d in range(max_depth):
        nxt = []
        for u in frontier:
            if d < max_depth - 1:
                n_children = int(rng.integers(0, max_children + 1))
            else:
                n_children = 0
            if d == 0 and u == 0 and n_children == 0:
                n_children = 2  # keep the tree nontrivial
            for _ in range(n_children):
                parent.append(u)
                depth_of.append(d + 1)
                nxt.append(len(parent) - 1)
        frontier = nxt
        if not frontier:
            break
    children = [0] * len(parent)
    for v, u in enumerate(parent):
        if u >= 0:
            children[u] += 1
    node_point = {}
    pid = 0
    for v in range(len(parent)):
        if children[v] == 0 or (v != 0 and rng.random() < p_internal_point):
            node_point[v] = pid
            pid += 1
    weights = [float(rng.uniform(2.0, 4.0))]
    for _ in range(max(depth_of) + 1):
        weights.append(weights[-1] / 2.0 * float(rng.uniform(0.4, 1.0)))
    return Hst(parent, weights, node_point)


def planted(n, k, gamma, seed, spread=1.0):
    """Well-separated blobs: k clusters whose centers sit far apart.

    Returns (features, true labels). Cluster sizes are n//k with the
    remainder spread over the first clusters.
    """
    rng = np.random.default_rng(seed)
    sizes = [n // k] * k
    for i in range(n - sum(sizes)):
        sizes[i] += 1
    centers = rng.normal(size=(k, 2))
    centers = centers / np.abs(centers).max() * 40.0 * gamma * spread
    rows, labels = [], []
    for c in range(k):
        for _ in range(sizes[c]):
            rows.append(centers[c] + rng.uniform(-spread, spread, size=2))
            labels.append(c)
    perm = rng.permutation(n)
    feats = np.asarray(rows)[perm]
    labels = np.asarray(labels)[perm]
    return feats, labels


def oracle_from_points(points, metric="euclidean"):
    return DistanceOracle.from_points(points, metric)
