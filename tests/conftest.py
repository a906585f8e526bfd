"""Shared helpers: independent reference implementations and instance generators.

naive_vi, naive_cost and naive_alpha_gamma below are deliberately written with
plain loops and no shared code with the package, so the audit's cluster-sums
kernel is checked against a reimplementation rather than against itself.
bfs_dists_from, bfs_solve_tree2, node_dist, naive_point_distance_matrix,
walk_hst_k_clustering, frontier_embed_hst, two_pass_normalize_leaves,
walk_restrict, dfs_root_fields, full_scan_size_guard, full_scan_conditioned,
max_pick_cut, reaudit_prune, per_row_dp_table, member_row_sums,
per_cluster_lloyd, stretch_ratios, relabel_by_first_appearance,
per_record_load and one_step_sweep are the breadth-first walks, plain
per-call walks, per-point ancestor walks, per-node frontier loops, two-pass
splices, per-edge scans, per-row fills, member-row loops, per-cluster means,
whole ratio matrices, per-point loops, per-field conversions and one-step
separator moves the tree, HST, linkage, dendrogram, DP, cluster-sums, Lloyd,
stretch, relabeling, input-loading and line-sweep code replaced; the faster
paths must reproduce them exactly. fraction_settle is the line sweep's check
in exact arithmetic.
"""

import itertools
import math
from collections import deque
from fractions import Fraction

import numpy as np
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from ipstable.baselines import LLOYD_MAX_ITERS
from ipstable.cli import CliError
from ipstable.core import STABILITY_TOL, Clustering, DistanceOracle, audit, min_count
from ipstable.hst import Hst
from ipstable.line1d import LineInstance
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

    Every cluster needs at least whole_min_size(alpha, n) points, an exact
    count; every point's average to each foreign cluster must be at least
    gamma times its average to the rest of its own cluster (0 for a
    singleton), with tol a relative slack on that comparison only.
    """
    m = np.asarray(matrix, dtype=float)
    labels = list(labels)
    n = len(labels)
    clusters = {c: [y for y in range(n) if labels[y] == c] for c in set(labels)}
    if any(len(members) < whole_min_size(alpha, n) for members in clusters.values()):
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


def bfs_dists_from(tree, start):
    """Distances from start to every node, by a breadth-first walk of the adjacency."""
    d = np.full(tree.n, -1.0)
    d[start] = 0.0
    q = deque([start])
    while q:
        u = q.popleft()
        for v, w in tree.adj[u]:
            if d[v] < 0:
                d[v] = d[u] + w
                q.append(v)
    return d


def _bfs_side(tree, keep, drop):
    """Nodes reachable from keep without crossing edge (keep, drop)."""
    seen = {keep}
    q = deque([keep])
    while q:
        u = q.popleft()
        for v, _ in tree.adj[u]:
            if v not in seen and {u, v} != {keep, drop}:
                seen.add(v)
                q.append(v)
    return sorted(seen)


def bfs_solve_tree2(tree, tol=TOL):
    """Boundary-rotation 2-clustering with a BFS per branch average and check.

    The quadratic solver solve_tree2 replaced: every branch average and
    endpoint check walks the tree from scratch. Returns labels with the
    root's side at 0.
    """

    def furthest(u):
        dist = bfs_dists_from(tree, u)
        avgs = {v: float(dist[_bfs_side(tree, v, u)].mean()) for v, _ in tree.adj[u]}
        return max(sorted(avgs), key=lambda v: (avgs[v], -v))

    def stable(e, o):
        own, other = _bfs_side(tree, e, o), _bfs_side(tree, o, e)
        dist = bfs_dists_from(tree, e)
        own_avg = dist[own].sum() / (len(own) - 1) if len(own) > 1 else 0.0
        return own_avg <= dist[other].mean() * (1.0 + tol)

    r = tree.root
    prev, cur = r, furthest(r)
    for _ in range(tree.n):
        if stable(cur, prev) and stable(prev, cur):
            break
        nxt = furthest(cur)
        if nxt == prev:
            break
        prev, cur = cur, nxt
    labels = np.ones(tree.n, dtype=int)
    labels[_bfs_side(tree, prev, cur)] = 0
    return labels if labels[r] == 0 else 1 - labels


def node_dist(hst, a, b):
    """Path distance between two Hst nodes, by walking both up to their lca."""
    cum = hst._cum()
    total = cum[hst.depth[a]] + cum[hst.depth[b]]
    while hst.depth[a] > hst.depth[b]:
        a = hst.parent[a]
    while hst.depth[b] > hst.depth[a]:
        b = hst.parent[b]
    while a != b:
        a = hst.parent[a]
        b = hst.parent[b]
    return total - 2.0 * cum[hst.depth[a]]


def point_dist(hst, p, q):
    """node_dist between the nodes that points p and q map to."""
    nodes = hst.point_node()
    return node_dist(hst, nodes[p], nodes[q])


def naive_point_distance_matrix(hst):
    """node_dist over every pair of mapped points, ordered like points()."""
    pts = hst.points()
    nodes = hst.point_node()
    out = np.zeros((len(pts), len(pts)))
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            out[i, j] = out[j, i] = node_dist(hst, nodes[pts[i]], nodes[pts[j]])
    return out


def stretch_ratios(tree_d, base_d):
    """Pairwise d_T/d with the diagonal at 1; 0-distance pairs become inf.

    The whole ratio matrix hst.cluster_via_embedding formed before
    Hst.point_stretch read it a block of rows at a time; a row's max is
    that point's stretch.
    """
    n = len(base_d)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = tree_d / base_d
    r[np.arange(n), np.arange(n)] = 1.0
    r[np.isnan(r)] = np.inf  # off-diagonal 0/0
    return r


def walk_hst_k_clustering(hst, k):
    """hst_k_clustering's assignment by a per-point ancestor walk.

    The same antichain selection, then every point climbs from its node to
    the first selected ancestor it meets, which is its deepest one.
    """
    L = hst.max_depth()
    counts = np.bincount(hst.depth, minlength=L + 1)
    ell = max(d for d in range(L + 1) if counts[d] <= k)
    frontier = deque(sorted(i for i in range(hst.n_nodes) if hst.depth[i] == ell))
    if len(frontier) == k or ell == L:
        selected = list(frontier)
    else:
        selected = []
        while frontier:
            v = frontier.popleft()
            kids = hst.children[v]
            grown = len(selected) + len(kids) + len(frontier)
            if grown < k:
                selected.extend(kids)
            elif grown == k:
                selected.extend(kids)
                selected.extend(frontier)
                break
            else:
                m = k - len(selected) - len(frontier) - 1
                selected.append(v)
                selected.extend(kids[:m])
                selected.extend(frontier)
                break
    mark = {v: i for i, v in enumerate(sorted(selected))}
    node_of = hst.point_node()
    assignment = np.empty(len(node_of), dtype=int)
    for i, p in enumerate(hst.points()):
        v = node_of[p]
        while v not in mark:
            v = hst.parent[v]
        assignment[i] = mark[v]
    return assignment


def frontier_embed_hst(oracle, seed):
    """embed_hst's former per-node frontier loop (consistent twins only).

    Each frontier node gathers its own diameter block and its own
    first-center block; a zero-diameter node (and a zero-diameter instance)
    splits into singleton leaves at once. It never returns when two points at
    distance 0 differ in another distance.
    """
    n = oracle.n
    if n == 1:
        return Hst([-1], [], {0: 0})
    m = oracle.matrix()
    diam = float(m.max())
    rng = np.random.default_rng(seed)
    if diam == 0.0:
        return Hst([-1] + [0] * n, [1.0], {i + 1: i for i in range(n)})
    i_top = math.ceil(math.log2(diam)) + 1
    beta = float(rng.uniform(1.0, 2.0))
    order = rng.permutation(n)
    parent = [-1]
    node_point = {}
    frontier = [(0, np.arange(n))]
    depth = 0
    level = i_top
    while frontier:
        depth += 1
        level -= 1
        radius = beta * 2.0 ** (level - 1)
        nxt = []
        for node, pts in frontier:
            if m[np.ix_(pts, pts)].max() == 0.0:
                for p in pts:
                    parent.append(node)
                    node_point[len(parent) - 1] = int(p)
                continue
            first = np.argmax(m[np.ix_(pts, order)] <= radius, axis=1)
            for cidx in np.unique(first):
                bucket = pts[first == cidx]
                parent.append(node)
                if len(bucket) == 1:
                    node_point[len(parent) - 1] = int(bucket[0])
                else:
                    nxt.append((len(parent) - 1, bucket))
        frontier = nxt
    return Hst(parent, [2.0 ** (i_top - d) for d in range(depth)], node_point)


def two_pass_normalize_leaves(hst):
    """normalize_leaves' former two-pass splice through placeholder parents.

    The first pass rewires every node's parent through the stand-ins of the
    spliced nodes; the second hangs each spliced node below its stand-in.
    """
    L = hst.max_depth()
    for leaf in hst.leaves():
        if leaf not in hst.node_point:
            raise ValueError("unmapped leaf cannot be normalized away")
    spliced = {}
    parent2 = list(hst.parent)
    next_id = hst.n_nodes
    for v in sorted(hst.node_point):
        if hst.depth[v] == L and hst.size[v] == 1:
            continue
        spliced[v] = next_id
        parent2.append(-2)
        next_id += 1
    if not spliced:
        return Hst(hst.parent, hst.level_weights, hst.node_point)
    for w in range(hst.n_nodes):
        p = hst.parent[w]
        p2 = -1 if p < 0 else spliced.get(p, p)
        parent2[spliced.get(w, w)] = p2
    for v, v2 in spliced.items():
        prev = v2
        for _ in range(hst.depth[v] + 1, L):
            parent2.append(prev)
            prev = next_id
            next_id += 1
        parent2[v] = prev
    return Hst(parent2, hst.level_weights, hst.node_point)


def walk_restrict(hst, keep_points):
    """restrict's per-point ancestor walk: (parent, level_weights, node_point).

    Each kept point climbs from its node until it meets a node already marked.
    """
    keep_points = set(int(p) for p in keep_points)
    node_of = hst.point_node()
    marked = set()
    for p in keep_points:
        v = node_of[p]
        while v >= 0 and v not in marked:
            marked.add(v)
            v = hst.parent[v]
    old_ids = sorted(marked)
    remap = {old: new for new, old in enumerate(old_ids)}
    parent = [-1 if hst.parent[old] < 0 else remap[hst.parent[old]] for old in old_ids]
    node_point = {remap[v]: p for v, p in hst.node_point.items() if p in keep_points}
    return parent, hst.level_weights, node_point


def dfs_root_fields(tree):
    """WeightedTree's former depth-first root pass over `adj`.

    Returns (order, pos, parent, parent_weight, depth, size).
    """
    n = tree.n
    parent, weight, depth = [-1] * n, [0.0] * n, [0] * n
    seen = [False] * n
    seen[tree.root] = True
    order = []
    stack = [tree.root]
    while stack:
        u = stack.pop()
        order.append(u)
        for v, w in tree.adj[u]:
            if not seen[v]:
                seen[v] = True
                parent[v], weight[v], depth[v] = u, w, depth[u] + 1
                stack.append(v)
    size = [1] * n
    for v in reversed(order[1:]):
        size[parent[v]] += size[v]
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    return order, pos, parent, weight, depth, size


def whole_min_size(alpha, n):
    """The smallest whole cluster size >= alpha * n, exactly.

    alpha is read as the fraction c/n when it is that fraction's float (2/11
    at n = 11 asks for 2 points, although its decimal 0.18181818181818182
    times 11 is above 2), and otherwise as the decimal it prints as, so
    0.28 * 25 is 7, where the float product 7.000000000000001 would ask
    for 8.
    """
    c = round(alpha * n)
    if c / n == alpha:
        return c
    return math.ceil(Fraction(repr(float(alpha))) * n)


def sizes_ok(partition):
    """Every supercluster of a linkage partition reached alpha * n points (a lone one counts)."""
    sizes = [len(c) for c in clusters(partition.label)]
    return len(sizes) == 1 or min(sizes) >= min_count(partition.alpha, sum(sizes))


def full_scan_size_guard(matrix, alpha, stop=False):
    """Size-guarded single linkage over every edge, with no early stop.

    Union by size (on a size tie the root of the edge's first endpoint
    stays). Returns (merge log, clusters as sorted id lists ordered by
    root) in linkage_size_guard's formats, and the first edge skipped for
    joining two clusters that both hold whole_min_size points, as (d, i, j),
    or None. With stop, the scan ends at that edge: this prefix is
    Kruskal's algorithm, and it is where the conditioned linkage leaves its
    MST replay.
    """
    m = np.asarray(matrix, dtype=float)
    n = len(m)
    thresh = whole_min_size(alpha, n)
    edges = sorted((float(m[i, j]), i, j) for i in range(n) for j in range(i + 1, n))
    root = list(range(n))
    members = {i: [i] for i in range(n)}
    log = []
    first_skip = None
    for d, i, j in edges:
        ra, rb = root[i], root[j]
        if ra == rb:
            continue
        if len(members[ra]) >= thresh and len(members[rb]) >= thresh:
            if stop:
                return log, [sorted(members[r]) for r in sorted(members)], (d, i, j)
            first_skip = first_skip or (d, i, j)
            continue
        if len(members[ra]) < len(members[rb]):
            ra, rb = rb, ra
        members[ra] += members.pop(rb)
        for x in members[ra]:
            root[x] = ra
        log.append((d, i, j, 1))
    return log, [sorted(members[r]) for r in sorted(members)], first_skip


def full_scan_conditioned(matrix, alpha, gamma):
    """Conditioned single linkage, one edge at a time over every edge.

    Python lists throughout: union by size (on a size tie the root of the
    edge's first endpoint stays), cross minima and maxima per pair of
    roots, and each point's furthest own-cluster partner. Returns (merge
    log, clusters ordered by root) in SuperclusterPartition's formats.
    """
    m = np.asarray(matrix, dtype=float).tolist()
    n = len(m)
    thresh = whole_min_size(alpha, n)
    spread_bound = ((gamma * gamma + 1.0) / (gamma - 1.0) ** 2) ** 2
    own_bound = 2.0 * gamma / (gamma - 1.0) ** 2
    edges = sorted((m[i][j], i, j) for i in range(n) for j in range(i + 1, n))
    root = list(range(n))
    members = {i: [i] for i in range(n)}
    mn = [row[:] for row in m]
    mx = [row[:] for row in m]
    maxd = [0.0] * n
    log = []
    for d, i, j in edges:
        ra, rb = root[i], root[j]
        if ra == rb:
            continue
        if len(members[ra]) < thresh or len(members[rb]) < thresh:
            crit = 1
        elif mn[ra][rb] > 0 and mx[ra][rb] / mn[ra][rb] > spread_bound:
            crit = 2
        elif maxd[i] > own_bound * d or maxd[j] > own_bound * d:
            crit = 3
        else:
            continue
        if len(members[ra]) < len(members[rb]):
            ra, rb = rb, ra
        for a in members[ra]:
            for b in members[rb]:
                maxd[a] = max(maxd[a], m[a][b])
                maxd[b] = max(maxd[b], m[a][b])
        for c in range(n):
            mn[ra][c] = min(mn[ra][c], mn[rb][c])
            mx[ra][c] = max(mx[ra][c], mx[rb][c])
        for c in range(n):
            mn[c][ra] = mn[ra][c]
            mx[c][ra] = mx[ra][c]
        mn[ra][ra] = mx[ra][ra] = 0.0
        members[ra] += members.pop(rb)
        for x in members[ra]:
            root[x] = ra
        log.append((d, i, j, crit))
    return log, [sorted(members[r]) for r in sorted(members)]


def dendrogram_leaves(z, v):
    """Points under node v of linkage matrix z, by a stack walk over its rows."""
    n = len(z) + 1
    out, stack = [], [v]
    while stack:
        u = stack.pop()
        if u < n:
            out.append(u)
        else:
            stack.append(int(z[u - n, 1]))
            stack.append(int(z[u - n, 0]))
    return out


def _frontier_labels(z, frontier):
    labels = np.empty(len(z) + 1, dtype=int)
    for i, v in enumerate(frontier):
        labels[dendrogram_leaves(z, v)] = i
    return relabel_by_first_appearance(labels)


def max_pick_cut(z, k):
    """cut_dendrogram's former loop: (assignment, k) after k-1 frontier splits.

    Each split undoes the frontier merge with the largest (height, node id).
    """
    n = len(z) + 1
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    frontier = [2 * n - 2]
    while len(frontier) < k:
        v = max((w for w in frontier if w >= n), key=lambda w: (z[w - n, 2], w))
        frontier.remove(v)
        frontier.extend(int(c) for c in z[v - n, :2])
    return _frontier_labels(z, frontier)


def reaudit_prune(z, oracle, k, measure="num-unstable"):
    """greedy_prune's former loop: (assignment, k), re-auditing every split.

    Each round audits every splittable frontier node's split with the
    package's audit and keeps the smallest (score, node id).
    """
    if measure not in ("num-unstable", "max-violation"):
        raise ValueError("measure must be num-unstable or max-violation")
    n = len(z) + 1
    if n == 1:
        raise ValueError("cannot prune a single-leaf dendrogram")
    if not 2 <= k <= oracle.n:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={oracle.n}")
    frontier = [int(z[-1, 0]), int(z[-1, 1])]
    for _ in range(k - 2):
        best = None
        for v in frontier:
            if v < n:
                continue
            cand = [w for w in frontier if w != v] + [int(c) for c in z[v - n, :2]]
            rep = audit(oracle, Clustering(*_frontier_labels(z, cand)))
            score = rep.num_unstable if measure == "num-unstable" else rep.max_violation
            if best is None or (score, v) < (best[0], best[1]):
                best = (score, v, cand)
        if best is None:
            raise RuntimeError("no splittable frontier node before reaching k")
        frontier = best[2]
    return _frontier_labels(z, frontier)


def per_cluster_lloyd(features, center_coords):
    """`baselines.lloyd` with each center updated as its cluster's own
    `x[assign == j].mean(axis=0)`, one cluster at a time, and each empty
    cluster repaired in turn."""
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
        for j in range(k):
            if not (new_assign == j).any():
                sizes = np.bincount(new_assign, minlength=k)
                movable = sizes[new_assign] >= 2
                i = int(np.where(movable, d2[:, j], -np.inf).argmax())
                new_assign[i] = j
                n_repairs += 1
        if assign is not None and (new_assign == assign).all():
            break
        assign = new_assign
        for j in range(k):
            centers[j] = x[assign == j].mean(axis=0)
    return assign, centers, inertias, n_repairs


def clusters(labels):
    """Each cluster's sorted point ids, as a list, for labels 0..max."""
    labels = np.asarray(labels)
    return [np.flatnonzero(labels == i).tolist() for i in range(int(labels.max()) + 1)]


def member_row_sums(matrix, labels, k):
    """The n x k cluster sums of the matrix backend by a plain loop.

    Point y's row of the matrix is added to cluster labels[y]'s column, one
    Python float at a time, for y in ascending order: each column is the
    left-to-right sum of its members' rows, starting from 0.0.
    """
    m = np.asarray(matrix, dtype=float).tolist()
    sums = [[0.0] * k for _ in m]
    for y, i in enumerate(np.asarray(labels).tolist()):
        for x, d in enumerate(m[y]):
            sums[x][i] += d
    return np.array(sums)


def cluster_averages(sums, clustering):
    """(own_sum, own_avg, avg) from the n x k cluster sums S, in new arrays.

    own_sum[x] = S[x, a[x]], own_avg[x] is its average over the rest of x's
    cluster (0 for a singleton), and avg[x, i] = S[x, i] / |C_i|. The plain
    reference for the averages `core._own_and_nearest` forms in place.
    """
    a = clustering.assignment
    n = len(a)
    sizes = clustering.sizes().astype(float)
    own_sum = sums[np.arange(n), a]
    own_den = sizes[a] - 1.0
    own_avg = np.divide(own_sum, own_den, out=np.zeros(n), where=own_den > 0)
    return own_sum, own_avg, sums / sizes


def nearest_foreign(avg, clustering):
    """Each point's smallest average to a cluster not its own, from a masked
    copy of avg (inf at k = 1)."""
    foreign = avg.copy()
    foreign[np.arange(clustering.n), clustering.assignment] = np.inf
    return foreign.min(axis=1)


class _SparseMin:
    """Static range-minimum structure over one array, vectorized queries."""

    def __init__(self, a):
        self.tables = [a]
        length = len(a)
        t = 1
        while (1 << t) <= length:
            prev = self.tables[-1]
            half = 1 << (t - 1)
            self.tables.append(np.minimum(prev[: length - (1 << t) + 1], prev[half : length - half + 1]))
            t += 1

    def query(self, lo, hi):
        """Minimum over [lo, hi] inclusive, elementwise over index arrays."""
        length = hi - lo + 1
        out = np.full(len(lo), np.inf)
        ok = length > 0
        if not np.any(ok):
            return out
        t = np.zeros(len(lo), dtype=int)
        t[ok] = np.int64(np.floor(np.log2(length[ok])))
        for level in np.unique(t[ok]):
            sel = ok & (t == level)
            tab = self.tables[level]
            span = 1 << int(level)
            out[sel] = np.minimum(tab[lo[sel]], tab[hi[sel] - span + 1])
        return out


def _per_row_thresholds(x, tol):
    """Lists over m = 1..n-1 of per-j (s_hi, s_lo) arrays, one row at a time.

    The distance sums follow the line model's array arithmetic: plain Python
    float running sums of the distances, nearest first, which are exactly 0
    across tied values and never negative. It does not call the model.
    """
    x = x.tolist()
    n = len(x)

    def running(dists):
        out, total = [0.0], 0.0
        for d in dists:
            total += d
            out.append(total)
        return out

    def sum_left(a, c):           # c: float array of counts
        sums = running([x[a] - x[a - t] for t in range(1, a + 1)])
        return np.array([sums[int(i)] for i in c])

    def sum_right(a, c):
        sums = running([x[a + t] - x[a] for t in range(1, n - a)])
        return np.array([sums[int(i)] for i in c])

    def mean(sums, c):
        return np.divide(sums, c, out=np.zeros(len(c)), where=c > 0)

    s_hi = [None] * n
    s_lo = [None] * n
    for m in range(1, n):
        a, b = m - 1, m
        s_own = np.arange(m, dtype=float)               # s - 1 = 0..m-1
        js = np.arange(1, n - m + 1, dtype=float)
        left_avg = mean(sum_left(a, s_own), s_own)
        right_avg = mean(sum_right(a, js), js)
        own2_avg = mean(sum_right(b, js - 1), js - 1)
        s_other = np.arange(1, m + 1, dtype=float)
        left2_avg = mean(sum_left(b, s_other), s_other)
        s_hi[m] = np.searchsorted(left_avg, right_avg * (1.0 + tol), side="right")
        s_lo[m] = np.searchsorted(left2_avg * (1.0 + tol), own2_avg, side="left") + 1
    return s_hi, s_lo


def per_row_dp_table(values, targets, p=math.inf, tol=STABILITY_TOL):
    """The size-targeted DP cube filled one boundary row m at a time.

    Each live row of layer l-1 gets its own sparse table, queried for all
    right sizes j at once; dp_target.build_table must match it bit for bit.
    """
    instance = LineInstance.from_values(values)
    n = instance.n
    k = len(targets)
    T = np.full((n + 1, n + 1, k + 1), np.inf)
    t1 = float(targets[0])
    for i in range(1, n + 1):
        dev = abs(i - t1)
        T[i, i, 1] = dev if p == math.inf else dev**p
    if k == 1:
        return T
    s_hi_all, s_lo_all = _per_row_thresholds(instance.values, tol)
    for l in range(2, k + 1):
        tl = float(targets[l - 1])
        all_j = np.arange(n + 1, dtype=float)
        pen = np.abs(all_j - tl) if p == math.inf else np.abs(all_j - tl) ** p
        for m in range(l - 1, n):
            layer = T[m, 1 : m + 1, l - 1]
            if not np.any(np.isfinite(layer)):
                continue
            rmq = _SparseMin(layer)
            jmax = n - m
            lo = s_lo_all[m][:jmax]
            hi = np.minimum(s_hi_all[m][:jmax], m - l + 2)
            valid = lo <= hi
            mins = np.full(jmax, np.inf)
            if np.any(valid):
                mins[valid] = rmq.query(lo[valid] - 1, hi[valid] - 1)
            js = np.arange(1, jmax + 1)
            T[m + js, js, l] = np.maximum(pen[js], mins) if p == math.inf else pen[js] + mins
    return T


def dense_table(dp):
    """The (n+1, n+1, k+1) cube T[i, j, l] of a DpTable, expanded from its bands.

    Row i of layer l holds dp.table[dp.offsets[l, i] : dp.offsets[l, i+1]]
    from column dp.first[l, i] on; every other cell is inf.
    """
    n, k = dp.instance.n, len(dp.targets)
    assert dp.offsets.shape == (k + 1, n + 2) and dp.first.shape == (k + 1, n + 1)
    assert dp.offsets[0, 0] == 0 and dp.offsets[-1, -1] == dp.table.size
    assert np.array_equal(dp.offsets[1:, 0], dp.offsets[:-1, -1])
    T = np.full((n + 1, n + 1, k + 1), np.inf)
    for l in range(k + 1):
        for i in range(n + 1):
            start, end = dp.offsets[l, i], dp.offsets[l, i + 1]
            assert start <= end
            if end > start:
                f = dp.first[l, i]
                assert 1 <= f and f + (end - start) <= n + 1
                T[i, f : f + end - start, l] = dp.table[start:end]
    return T


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


def _last_point_stable(instance, b, left, right):
    """The one-step sweep's check: is the last of the `left` points before
    sorted position b stable against the `right` points from b on? Each sum
    is read off the line model's exact prefix sums and rounded once."""
    ints, sums, inv, scale = instance._exact

    def rounded(d):
        return d * inv if inv else d / scale

    a, c = b - 1, left - 1
    own = rounded(c * ints[a] - (sums[a] - sums[a - c])) / c if c else 0.0
    foreign = rounded((sums[a + right + 1] - sums[a + 1]) - right * ints[a]) / right
    return own <= foreign * (1.0 + STABILITY_TOL)


def one_step_sweep(instance, k):
    """The sweep `line1d.sweep` replaced: move one separator one step, then
    recheck the separator before it. Returns (bounds, moves)."""
    n = instance.n
    b = [0] + list(range(n - k + 1, n + 1))
    moves = 0
    j = 1
    while j <= k - 1:
        if _last_point_stable(instance, b[j], b[j] - b[j - 1], b[j + 1] - b[j]):
            j += 1
            continue
        b[j] -= 1
        moves += 1
        assert moves <= k * n
        j = max(1, j - 1)
    return b, moves


def fraction_settle(values, lo, b, hi):
    """`LineInstance.settle` in exact arithmetic: each distance sum formed
    exactly as a Fraction of the sorted values and rounded once, then the
    same float divisions and tolerance."""
    x = [Fraction(v) for v in values]
    while b - 1 > lo:
        a = b - 1
        own = float(sum(x[a] - x[t] for t in range(lo, a))) / (a - lo)
        foreign = float(sum(x[t] - x[a] for t in range(b, hi))) / (hi - b)
        if own <= foreign * (1.0 + STABILITY_TOL):
            break
        b -= 1
    return b


MULTI_SCALE_FAR = [-1.0, -3.5, -1e6]
MULTI_SCALE_POOL = [0.0, 1e-300, -1e-300, 1e-53, 2e-53, 3e-53]


@st.composite
def line_values(draw, max_n=10):
    """Hypothesis strategy: 1..max_n values on a line, drawn from a small pool.

    The pool makes duplicates common and a one-value pool gives zero
    spread; an offset up to 1e12 shifts every value. The multi-scale pool
    holds one far value and values near 0 at gaps of 1e-300 and 1e-53,
    which float prefix sums on the far value's scale cannot tell apart.
    """
    n = draw(st.integers(1, max_n))
    if draw(st.booleans()):
        pool = [draw(st.sampled_from(MULTI_SCALE_FAR)), *MULTI_SCALE_POOL]
        offset = 0.0
    else:
        pool = draw(st.lists(st.floats(0.0, 100.0), min_size=1, max_size=n))
        offset = draw(st.sampled_from([0.0, 1e6, -1e9, 1e12]))
    return offset + np.array(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))


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


def random_clustering(rng, n, k):
    """Random labels with every cluster nonempty; clusters interleave."""
    labels = rng.integers(0, k, size=n)
    labels[rng.permutation(n)[:k]] = np.arange(k)
    return Clustering(labels, k)


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


def relabel_by_first_appearance(labels):
    """Clustering.from_labels' former per-point dict loop: (assignment, k)."""
    labels = np.asarray(labels)
    _, first = np.unique(labels, return_index=True)
    order = labels[np.sort(first)]
    remap = {lab: i for i, lab in enumerate(order.tolist())}
    return np.array([remap[l] for l in labels.tolist()]), len(remap)


def claims_hold(meta, vi, max_violation, rel=1e-6):
    """Whether an audit's vi and max violation realize every claim a hard
    instance's metadata states, each to a relative rel."""
    family = meta["family"]
    if family == "kmeanspp-blocks":
        equal = [(vi[v], meta["alpha"]) for v in meta["v_indices"]]
        equal.append((max_violation, meta["claimed_max_violation"]))
        at_least = []
    elif family == "kcenter-balls":
        equal = [(vi[meta["p"]], meta["audited_vi_p"])]
        at_least = [(vi[meta["p"]], meta["claimed_min_violation"])]
    else:
        equal, at_least = [(vi[meta["v2"]], meta["claimed_vi_v2"])], []
    return (all(abs(got - claim) <= rel * abs(claim) for got, claim in equal)
            and all(got >= claim * (1.0 - rel) for got, claim in at_least))


def oracle_from_points(points, metric="euclidean"):
    return DistanceOracle.from_points(points, metric)


def per_record_load(kind, path):
    """An input file read one field at a time, as the cli read every file
    before its one-call numpy path: kind is "points", "matrix", "tree" or
    "assignment".

    Each nonblank line, stripped, splits on commas (each field stripped)
    when it has one, else on blanks; every field goes through Python float()
    or int(). Returns a float array, a WeightedTree or an int64 array, or
    raises the cli's CliError for the first line at fault.
    """
    with open(path, encoding="utf-8-sig") as fh:
        text = fh.read()
    records = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if line:
            fields = [t.strip() for t in line.split(",")] if "," in line else line.split()
            records.append((lineno, fields))

    def convert(read, message):
        out = []
        for lineno, fields in records:
            try:
                out.append(read(*fields))
            except (ValueError, TypeError):
                raise CliError(f"{path}:{lineno}: {message}") from None
        return out

    if kind in ("points", "matrix"):
        if records:
            try:
                [float(t) for t in records[0][1]]
            except ValueError:
                records = records[1:]
        rows = convert(lambda *fields: [float(t) for t in fields], "non-numeric row")
        if not rows:
            raise CliError(f"{path}: no data rows")
        for i, row in enumerate(rows):
            if len(row) != len(rows[0]):
                raise CliError(f"{path}: row {i + 1} has {len(row)} columns, "
                               f"expected {len(rows[0])}")
        out = np.array(rows, dtype=float)
        if kind == "matrix" and out.shape[0] != out.shape[1]:
            raise CliError(f"{path}: distance matrix must be square, got {out.shape}")
        return out
    if kind == "tree":
        edges = convert(lambda u, v, w: (int(u), int(v), float(w)), "expected 'u v weight'")
        for (lineno, _), (u, v, _) in zip(records, edges):
            if u < 0 or v < 0:
                raise CliError(f"{path}:{lineno}: tree node ids must be non-negative")
        if not edges:
            raise CliError(f"{path}: no edges")
        return WeightedTree(max(max(u, v) for u, v, _ in edges) + 1, edges)
    labels = convert(lambda label: int(label), "expected one integer per line")
    if not labels:
        raise CliError(f"{path}: empty assignment")
    for (lineno, _), label in zip(records, labels):
        if not -2 ** 63 <= label < 2 ** 63:
            raise CliError(f"{path}:{lineno}: label out of the 64-bit integer range")
    return np.array(labels, dtype=np.int64)
