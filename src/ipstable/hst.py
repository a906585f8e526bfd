"""2-HSTs: validation, leaf normalization, stable k-clustering, and embedding.

A 2-HST here is a rooted tree whose edge weights are a function of depth
(every edge from a depth-d node to a child weighs level_weights[d]) and halve
at least geometrically downward. Data points map injectively to nodes. After
normalization the points are exactly the leaves, all at one depth, which
makes same-depth subtree distances depend only on the lca depth; that is the
property the cluster-selection argument uses. point_distance_matrix relies
on the same fact for any mapped points: a pair's distance is a function of
the two depths and the lca depth, and the lca depths of all m^2 pairs come
from one m x m comparison per depth, with no Python work per pair.

The tree layer is tree.root_pass, shared with WeightedTree: one depth-first
pass gives preorder positions, depths and subtree sizes, so every subtree is
one preorder slice. hst_k_clustering paints each selected node's slice with
its label in order of increasing depth, so a leaf, read at its own position,
carries the label of its deepest selected ancestor; restrict marks the
ancestor closure of the kept points in one pass in reverse preorder.

The embedding is the seeded random hierarchical decomposition of
Fakcharoenphol, Rao and Talwar (random center permutation, random radius
scale beta in [1, 2), radii shrinking by powers of two). It guarantees
dominance d <= d_T structurally; stretch is measured, not promised, and the
caller receives it as a certificate multiplier.
"""

from __future__ import annotations

import math
import sys
from collections import deque
from typing import NamedTuple

import numpy as np

from .core import STABILITY_TOL, Clustering, _check_k, audit, min_count
from .tree import _integer_ids, root_pass

# rows per float block in Hst.point_distance_matrix; bounds its float
# temporaries to ROW_CHUNK x m
ROW_CHUNK = 64


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

    def point_distance_matrix(self):
        """Tree distances between all mapped points, ordered like points().

        Entry (a, b) is cum[depth a] + cum[depth b] - 2 cum[depth lca(a, b)],
        the formula of the pairwise walk in tests/conftest.py, so the matrix
        is bit-identical to it. A pair's lca depth is the number of depths
        >= 1 at which the two points share an ancestor: one m x m comparison
        per depth fills a small-int matrix, and the float arithmetic runs in
        row chunks, so the output is the only m x m float array.
        """
        pts = self.points()
        m = len(pts)
        node_of = self.point_node()
        parent = np.asarray(self.parent)
        depth = np.asarray(self.depth)
        cur = np.array([node_of[p] for p in pts], dtype=np.intp)
        point_depth = depth[cur]
        deepest = int(point_depth.max()) if m else 0
        lca = np.zeros((m, m), dtype=np.min_scalar_type(deepest))
        alone = -1 - np.arange(m)     # stands in above a shallow point; matches no other
        for d in range(deepest, 0, -1):
            here = depth[cur] == d
            anc = np.where(here, cur, alone)
            lca += anc[:, None] == anc[None, :]
            cur = np.where(here, parent[cur], cur)
        cum = np.asarray(self._cum())
        twice = 2.0 * cum
        cd = cum[point_depth]
        out = np.empty((m, m))
        for lo in range(0, m, ROW_CHUNK):
            block = out[lo : lo + ROW_CHUNK]
            np.add(cd[lo : lo + ROW_CHUNK, None], cd, out=block)
            block -= twice[lca[lo : lo + ROW_CHUNK]]
        np.fill_diagonal(out, 0.0)     # a point matches itself at every depth, stand-ins too
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

    spliced = {}  # old node -> replacement structural node
    parent2 = list(hst.parent)
    next_id = hst.n_nodes
    for v in sorted(hst.node_point):
        if hst.depth[v] == L and hst.size[v] == 1:
            continue
        spliced[v] = next_id
        parent2.append(-2)  # placeholder, fixed below
        next_id += 1

    if not spliced:
        return Hst(hst.parent, hst.level_weights, hst.node_point)

    def struct(w):
        return spliced.get(w, w)

    # rewire the original structure through the replacement nodes
    for w in range(hst.n_nodes):
        p = hst.parent[w]
        if w in spliced:
            parent2[spliced[w]] = -1 if p < 0 else struct(p)
        else:
            parent2[w] = -1 if p < 0 else struct(p)
    # hang each spliced node below its replacement via a chain to depth L
    for v, v2 in spliced.items():
        prev = v2
        for _ in range(hst.depth[v] + 1, L):
            parent2.append(prev)
            prev = next_id
            next_id += 1
        parent2[v] = prev
    return Hst(parent2, hst.level_weights, hst.node_point)


def hst_k_clustering(hst, k):
    """Stable k-clustering of a normalized 2-HST's leaves under the tree metric.

    Finds the deepest depth with at most k nodes, then expands nodes of that
    antichain one by one until exactly k subtree roots are selected; every
    leaf joins its deepest selected ancestor, painted over preorder slices
    shallowest first. Selection is deterministic (ascending node ids).
    """
    if not hst.is_normalized():
        raise ValueError("hst_k_clustering needs a normalized Hst")
    pts = hst.points()
    n = len(pts)
    _check_k(k, n)

    L = hst.max_depth()
    counts = np.bincount(hst.depth, minlength=L + 1)
    ell = max(d for d in range(L + 1) if counts[d] <= k)
    frontier = deque(sorted(i for i in range(hst.n_nodes) if hst.depth[i] == ell))

    if len(frontier) == k or ell == L:
        selected = list(frontier)
    else:
        selected = []
        done = False
        while frontier:
            v = frontier.popleft()
            kids = hst.children[v]
            grown = len(selected) + len(kids) + len(frontier)
            if grown < k:
                selected.extend(kids)
            elif grown == k:
                selected.extend(kids)
                selected.extend(frontier)
                done = True
                break
            else:
                m = k - len(selected) - len(frontier) - 1
                selected.append(v)
                selected.extend(kids[:m])
                selected.extend(frontier)
                done = True
                break
        if not done:
            raise RuntimeError("antichain expansion never reached k subtrees")
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
    cluster's points go to the first center within the radius. Clusters that
    reach a single point become leaves; exact duplicates (zero diameter)
    split into singleton leaves one level down. Same seed, same tree.
    Every tree distance is below 2**(i_top + 2), with 2**i_top the top level
    weight; a diameter that puts that bound past the float range is an error.
    """
    n = oracle.n
    if n == 1:
        return Hst([-1], [], {0: 0})
    m = oracle.matrix()
    diam = float(m.max())
    rng = np.random.default_rng(seed)
    if diam == 0.0:
        parent = [-1] + [0] * n
        return Hst(parent, [1.0], {i + 1: i for i in range(n)})

    i_top = math.ceil(math.log2(diam)) + 1
    if i_top + 2 >= sys.float_info.max_exp:           # 2.0 ** max_exp is not a float
        raise ValueError(f"diameter {diam:g} is too large to embed: tree distances would overflow")
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
            sub = m[np.ix_(pts, pts)]
            if sub.max() == 0.0:
                for p in pts:
                    parent.append(node)
                    node_point[len(parent) - 1] = int(p)
                continue
            # first center (in permutation order) within radius; every point
            # covers itself, so argmax always finds a True
            covered = m[np.ix_(pts, order)] <= radius
            first = np.argmax(covered, axis=1)
            for cidx in np.unique(first):
                bucket = pts[first == cidx]
                parent.append(node)
                child = len(parent) - 1
                if len(bucket) == 1:
                    node_point[child] = int(bucket[0])
                else:
                    nxt.append((child, bucket))
        frontier = nxt
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
    s * (1 + STABILITY_TOL). Raises if exclusion leaves fewer than k points.
    """
    if not 0.0 <= epsilon < 1.0 / 3.0:
        raise ValueError("epsilon must lie in [0, 1/3)")
    n = oracle.n
    _check_k(k, n)
    hst = embed_hst(oracle, seed)

    excluded = []
    drop = min_count(epsilon, n)
    if drop:
        per_point = _stretch_ratios(hst.point_distance_matrix(), oracle.matrix()).max(axis=1)
        excluded = sorted(sorted(range(n), key=lambda i: (-per_point[i], i))[:drop])
    retained = sorted(set(range(n)) - set(excluded))
    if len(retained) < k:
        raise ValueError("exclusion left fewer than k points")

    sub = normalize_leaves(restrict(hst, retained))
    clustering = hst_k_clustering(sub, k)

    kept = oracle.sub_oracle(retained)
    t_final = sub.point_distance_matrix()
    stretch = float(_stretch_ratios(t_final, kept.matrix()).max()) if len(retained) > 1 else 1.0
    report = audit(kept, clustering)
    if not report.max_violation <= stretch * (1.0 + STABILITY_TOL):
        raise RuntimeError("stretch certificate violated; embedding is broken")
    return EmbedClusterResult(clustering, retained, list(excluded), stretch, report)


def _stretch_ratios(tree_d, base_d):
    """Pairwise d_T/d with the diagonal at 1; 0-distance pairs become inf."""
    n = len(base_d)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = tree_d / base_d
    r[np.arange(n), np.arange(n)] = 1.0
    r[np.isnan(r)] = np.inf  # off-diagonal 0/0: duplicates at tree distance 0 cannot happen
    return r
