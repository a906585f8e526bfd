"""2-HSTs: validation, leaf normalization, stable k-clustering, and embedding.

A 2-HST here is a rooted tree whose edge weights are a function of depth
(every edge from a depth-d node to a child weighs level_weights[d]) and halve
at least geometrically downward. Data points map injectively to nodes. After
normalization the points are exactly the leaves, all at one depth, which
makes same-depth subtree distances depend only on the lca depth; that is the
property the cluster-selection argument uses. Tree distances between any
mapped points rely on the same fact: a pair's distance is a function of the
two depths and the lca depth. Hst._distance_rows forms them a block of rows
at a time from a small-int table of each point's ancestor per depth, with
no Python work per pair, so point_distance_matrix fills the m x m matrix
and point_stretch reads each point's largest d_T/d without it.

The tree layer is tree.root_pass, shared with WeightedTree: one depth-first
pass gives preorder positions, depths and subtree sizes, so every subtree is
one preorder slice. hst_k_clustering paints each selected node's slice with
its label in order of increasing depth, so a leaf, read at its own position,
carries the label of its deepest selected ancestor; restrict marks the
ancestor closure of the kept points in one pass in reverse preorder.

The embedding is the seeded random hierarchical decomposition of
Fakcharoenphol, Rao and Talwar (random center permutation, random radius
scale beta in [1, 2), radii shrinking by powers of two), split one whole
level at a time; each point's first covering center comes from windows of
the center order that double in width. Points at distance 0 must agree on
every other distance, as in any pseudo-metric. It guarantees dominance
d <= d_T structurally; stretch is measured, not promised, and the caller
receives it as a certificate multiplier.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

import numpy as np

from .core import Clustering, _check_k, audit, min_count, stable_limit
from .tree import _integer_ids, root_pass

# rows per block of tree distances (Hst._distance_rows); bounds its
# temporaries to ROW_CHUNK x m
ROW_CHUNK = 64
# columns of the center order in embed_hst's first scan window
_FIRST_WINDOW = 32


class Hst:
    """Rooted tree with depth-determined edge weights and a point mapping.

    `parent[v]` is v's parent id, -1 at the single root; `node_point` maps
    nodes to point ids. Construction checks the ids and roots the tree with
    `tree.root_pass`, which records `order`, `pos`, `depth` and `size`:
    node v's subtree is the preorder slice order[pos[v] : pos[v] + size[v]].
    `children` lists each node's children by ascending id.
    """

    def __init__(self, parent, level_weights, node_point):
        self.parent = _integer_ids(parent, "Hst parent ids must be integers")
        self.level_weights = [float(w) for w in level_weights]
        self.node_point = dict(node_point)
        self.n_nodes = len(self.parent)
        if self.parent.count(-1) != 1 or min(self.parent) < -1 or max(self.parent) >= self.n_nodes:
            raise ValueError("Hst parent ids must lie in [-1, n_nodes), with one root (-1)")
        self.root = self.parent.index(-1)
        self.children = [[] for _ in range(self.n_nodes)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                self.children[p].append(i)
        self.order, self.pos, _, self.depth, self.size = root_pass(self.children, self.root)
        self.validate()

    def validate(self):
        used = self.max_depth()
        if len(self.level_weights) < used:
            raise ValueError("need one level weight per used depth")
        for d in range(used):
            if not self.level_weights[d] > 0:
                raise ValueError("level weights must be positive")
        for d in range(used - 1):
            if self.level_weights[d + 1] > self.level_weights[d] / 2.0:
                raise ValueError("level weights must at least halve per level")
        pts = list(self.node_point.values())
        if len(set(pts)) != len(pts):
            raise ValueError("point mapping must be injective")
        for node in self.node_point:
            if not 0 <= node < self.n_nodes:
                raise ValueError("mapped node out of range")

    def max_depth(self):
        return max(self.depth)

    def leaves(self):
        return [i for i in range(self.n_nodes) if self.size[i] == 1]

    def points(self):
        """Mapped point ids, sorted."""
        return sorted(self.node_point.values())

    def point_node(self):
        return {p: v for v, p in self.node_point.items()}

    def _cum(self):
        # root-to-depth-d distance
        c = [0.0]
        for w in self.level_weights:
            c.append(c[-1] + w)
        return c

    def _distance_rows(self):
        """Tree distances between the mapped points, ordered like points(),
        as (lo, rows lo .. lo + ROW_CHUNK - 1) blocks.

        Entry (a, b) is cum[depth a] + cum[depth b] - 2 cum[depth lca(a, b)],
        the formula of the pairwise walk in tests/conftest.py. A pair's lca
        depth is the number of depths >= 1 at which the two points share an
        ancestor. anc[d - 1] holds each point's depth-d ancestor, or above a
        shallow point i a stand-in -1 - i that matches no other point, in the
        smallest signed dtype that holds every node id and stand-in (there
        are at most n_nodes points), so each block's lca depths cost one
        small-int comparison per depth.
        """
        pts = self.points()
        m = len(pts)
        node_of = self.point_node()
        parent = np.asarray(self.parent)
        depth = np.asarray(self.depth)
        cur = np.array([node_of[p] for p in pts], dtype=np.intp)
        point_depth = depth[cur]
        deepest = int(point_depth.max()) if m else 0
        anc = np.empty((deepest, m), dtype=np.min_scalar_type(-self.n_nodes))
        alone = -1 - np.arange(m)
        for d in range(deepest, 0, -1):
            here = depth[cur] == d
            anc[d - 1] = np.where(here, cur, alone)
            cur = np.where(here, parent[cur], cur)
        cum = np.asarray(self._cum())
        twice = 2.0 * cum
        cd = cum[point_depth]
        for lo in range(0, m, ROW_CHUNK):
            hi = min(lo + ROW_CHUNK, m)
            lca = np.zeros((hi - lo, m), dtype=np.min_scalar_type(deepest))
            for a in anc:
                lca += a[lo:hi, None] == a
            block = cd[lo:hi, None] + cd
            block -= twice[lca]
            # a point matches itself at every depth, stand-ins too
            block[np.arange(hi - lo), np.arange(lo, hi)] = 0.0
            yield lo, block

    def point_distance_matrix(self):
        """Tree distances between all mapped points, ordered like points(),
        bit for bit the pairwise walk in tests/conftest.py."""
        m = len(self.node_point)
        out = np.empty((m, m))
        for lo, block in self._distance_rows():
            out[lo : lo + len(block)] = block
        return out

    def point_stretch(self, base):
        """Each mapped point's largest stretch d_T / d, ordered like points().

        base is the original distance matrix, indexed by point id. A point's
        pair with itself counts as 1, and a pair at distance 0 other than
        that, 0/0 included, as inf. The tree distances are read a block of
        rows at a time against base at points(), so no m x m float array
        is formed.
        """
        pts = np.asarray(self.points(), dtype=np.intp)
        every_row = np.array_equal(pts, np.arange(len(base)))
        out = np.empty(len(pts))
        for lo, block in self._distance_rows():
            hi = lo + len(block)
            with np.errstate(divide="ignore", invalid="ignore"):
                block /= base[lo:hi] if every_row else base[np.ix_(pts[lo:hi], pts)]
            block[np.arange(hi - lo), np.arange(lo, hi)] = 1.0
            block[np.isnan(block)] = np.inf
            out[lo:hi] = block.max(axis=1)
        return out

    def is_normalized(self):
        leaves = self.leaves()
        return set(leaves) == self.node_point.keys() and len({self.depth[v] for v in leaves}) <= 1


def normalize_leaves(hst):
    """Push every mapped point to a leaf at the tree's maximum depth.

    A mapped node v at depth < max depth (internal or shallow leaf) is
    replaced in the structure by a fresh unmapped node and hung below it by a
    chain ending at the maximum depth; the chain reuses the existing level
    weights, so the result is still a valid 2-HST. Distances only grow, by
    less than the weight of the edge above the original node (geometric sum),
    i.e. at most a factor 3 per pair. Already-normalized trees come back
    structurally unchanged. Unmapped leaves are a domain error: they would
    survive as leaves without a point.
    """
    L = hst.max_depth()
    for leaf in hst.leaves():
        if leaf not in hst.node_point:
            raise ValueError("unmapped leaf cannot be normalized away")

    spliced = [v for v in sorted(hst.node_point) if hst.depth[v] < L or hst.size[v] > 1]
    stand_in = {v: hst.n_nodes + i for i, v in enumerate(spliced)}
    # every edge into a spliced node now enters its stand-in, which takes
    # over the spliced node's own parent
    parent = [stand_in.get(p, p) for p in hst.parent]
    parent += [parent[v] for v in spliced]
    # hang each spliced node below its stand-in via a chain to depth L
    for v in spliced:
        prev = stand_in[v]
        for _ in range(hst.depth[v] + 1, L):
            parent.append(prev)
            prev = len(parent) - 1
        parent[v] = prev
    return Hst(parent, hst.level_weights, hst.node_point)


def hst_k_clustering(hst, k):
    """Stable k-clustering of a normalized 2-HST's leaves under the tree metric.

    Takes the depth-ell nodes, ell the deepest depth with at most k nodes, in
    ascending id order; if there are exactly k of them they are the answer.
    Otherwise one pass replaces each node by its children while the rest of
    the nodes still fit: at the first node v with at least need = k -
    |selected| - |rest| children, it takes all of them if there are exactly
    need, or else v plus its first need - 1, then the rest, and stops. Every
    leaf joins its deepest selected ancestor, painted over preorder slices
    shallowest first.
    """
    if not hst.is_normalized():
        raise ValueError("hst_k_clustering needs a normalized Hst")
    pts = hst.points()
    n = len(pts)
    _check_k(k, n)

    L = hst.max_depth()
    counts = np.bincount(hst.depth, minlength=L + 1)
    ell = max(d for d in range(L + 1) if counts[d] <= k)
    level = [v for v in range(hst.n_nodes) if hst.depth[v] == ell]

    if len(level) == k:
        selected = level
    else:
        selected = []
        for i, v in enumerate(level):
            rest = level[i + 1 :]
            need = k - len(selected) - len(rest)
            kids = hst.children[v]
            if len(kids) >= need:
                selected += kids if len(kids) == need else [v] + kids[: need - 1]
                selected += rest
                break
            selected += kids
    if len(selected) != k:
        raise RuntimeError("selected subtree count does not match k")

    mark = {v: i for i, v in enumerate(sorted(selected))}
    label_at = np.full(hst.n_nodes, -1)
    for v in sorted(selected, key=hst.depth.__getitem__):
        label_at[hst.pos[v] : hst.pos[v] + hst.size[v]] = mark[v]
    node_of = hst.point_node()
    assignment = label_at[[hst.pos[node_of[p]] for p in pts]]
    if np.any(assignment < 0):
        raise RuntimeError("leaf without a selected ancestor")
    return Clustering(assignment, k)


def embed_hst(oracle, seed):
    """Seeded random 2-HST over all points of the oracle, with d <= d_T.

    Classic hierarchical decomposition: a random permutation fixes center
    priority, a random beta in [1, 2) scales radii that halve per level; a
    cluster's points go to the first center within the radius. Each level
    splits every open cluster at once. Each point's first covering center
    comes from a scan of the center order in column windows that double in
    width from _FIRST_WINDOW: a point leaves the scan at its first window
    with a center in range, and every point covers itself, so each finds
    one by the window that holds its own column. The children come out in
    (parent id, center priority) order. Clusters that reach a single point
    become leaves. Points at distance 0 are twins, and a cluster of twins
    (zero diameter) splits into singleton leaves one level down. Twins that
    differ in another distance could never be split, so they are an error.
    Same seed, same tree.
    Every tree distance is below 2**(i_top + 2), with 2**i_top the top level
    weight; a diameter that puts that bound past the float range is an error.
    """
    n = oracle.n
    if n == 1:
        return Hst([-1], [], {0: 0})
    m = oracle.matrix()
    # a point's twin is the first point at distance 0 from it; once every
    # point's row equals its twin's, distance 0 is an equivalence relation
    # and the twin names the class
    twin = np.argmax(m == 0.0, axis=1)
    dup = np.flatnonzero(twin != np.arange(n))
    if np.any(m[dup] != m[twin[dup]]):
        raise ValueError("two points at distance 0 differ in another distance; "
                         "the tree embedding cannot separate them")
    diam = float(m.max())
    rng = np.random.default_rng(seed)
    i_top = math.ceil(math.log2(diam)) + 1 if diam > 0.0 else 0
    if i_top + 2 >= sys.float_info.max_exp:           # 2.0 ** max_exp is not a float
        raise ValueError(f"diameter {diam:g} is too large to embed: tree distances would overflow")
    beta = float(rng.uniform(1.0, 2.0))
    order = rng.permutation(n)

    parent = [-1]
    node_point = {}
    # points of the unfinished clusters, grouped by cluster id (ascending),
    # point ids ascending within a cluster
    pts = np.arange(n)
    node = np.zeros(n, dtype=np.intp)
    depth = 0
    level = i_top
    while len(pts):
        depth += 1
        level -= 1
        radius = beta * 2.0 ** (level - 1)
        # first center (in permutation order) within radius, by doubling windows
        first = np.empty(len(pts), dtype=np.intp)
        scan = np.arange(len(pts))
        lo, width = 0, _FIRST_WINDOW
        while len(scan):
            cover = m[np.ix_(pts[scan], order[lo : lo + width])] <= radius
            at = np.argmax(cover, axis=1)
            hit = cover[np.arange(len(scan)), at]
            first[scan[hit]] = lo + at[hit]
            scan = scan[~hit]
            lo, width = lo + width, 2 * width
        # a cluster of twins alone splits by point id, any other by first center
        head = np.r_[True, node[1:] != node[:-1]]
        starts = np.flatnonzero(head)
        tw = twin[pts]
        twins = np.minimum.reduceat(tw, starts) == np.maximum.reduceat(tw, starts)
        key = np.where(twins[np.cumsum(head) - 1], pts, first)
        cells, cell, size = np.unique(node * n + key, return_inverse=True, return_counts=True)
        child = len(parent) + cell
        parent += (cells // n).tolist()
        leaf = size[cell] == 1
        node_point.update(zip(child[leaf].tolist(), pts[leaf].tolist()))
        pts, node = pts[~leaf], child[~leaf]
        regroup = np.lexsort((pts, node))
        pts, node = pts[regroup], node[regroup]
    level_weights = [2.0 ** (i_top - d) for d in range(depth)]
    return Hst(parent, level_weights, node_point)


def restrict(hst, keep_points):
    """Sub-HST spanned by the given points (ancestor closure, depths kept)."""
    keep_points = set(_integer_ids(keep_points, "restrict: point ids must be integers"))
    node_of = hst.point_node()
    if not keep_points <= node_of.keys():
        raise ValueError("restrict: every kept point must be mapped in the Hst")
    keep = [False] * hst.n_nodes
    for p in keep_points:
        keep[node_of[p]] = True
    for v in reversed(hst.order[1:]):
        keep[hst.parent[v]] |= keep[v]
    old_ids = [v for v in range(hst.n_nodes) if keep[v]]
    remap = {old: new for new, old in enumerate(old_ids)}
    parent = [
        -1 if hst.parent[old] < 0 else remap[hst.parent[old]] for old in old_ids
    ]
    node_point = {
        remap[v]: p for v, p in hst.node_point.items() if p in keep_points
    }
    return Hst(parent, hst.level_weights, node_point)


class EmbedClusterResult(NamedTuple):
    clustering: Clustering      # over retained points, ordered like `retained`
    retained: list              # original point ids kept, sorted
    excluded: list              # original point ids dropped, sorted
    stretch: float              # max d_T/d over retained pairs on the final tree
    report: object              # StabilityReport against the original metric


def cluster_via_embedding(oracle, k, epsilon=0.0, seed=0):
    """Embed, drop the worst-stretched points, and cluster the tree's leaves.

    Drops exactly min_count(epsilon, n) points with the largest realized
    stretch (ties broken by point id). The returned stretch s certifies the
    result: the audited max violation against the original metric is at most
    stable_limit(s). Raises if exclusion leaves fewer than k points. Both
    stretches and the audit's sub_oracle(retained) read the oracle's matrix,
    so no tree-distance, ratio or retained points' matrix is formed.
    """
    if not 0.0 <= epsilon < 1.0 / 3.0:
        raise ValueError("epsilon must lie in [0, 1/3)")
    n = oracle.n
    _check_k(k, n)
    hst = embed_hst(oracle, seed)

    excluded = []
    drop = min_count(epsilon, n)
    if drop:
        per_point = hst.point_stretch(oracle.matrix())
        # stretch descending, then point id
        excluded = np.sort(np.lexsort((np.arange(n), -per_point))[:drop]).tolist()
    retained = sorted(set(range(n)) - set(excluded))
    if len(retained) < k:
        raise ValueError("exclusion left fewer than k points")

    sub = normalize_leaves(restrict(hst, retained))
    clustering = hst_k_clustering(sub, k)

    stretch = float(sub.point_stretch(oracle.matrix()).max())
    report = audit(oracle.sub_oracle(retained), clustering)
    if not report.max_violation <= stable_limit(stretch):
        raise RuntimeError("stretch certificate violated; embedding is broken")
    return EmbedClusterResult(clustering, retained, excluded, stretch, report)

