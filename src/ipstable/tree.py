"""Exact IP-stable 2-clustering on weighted tree metrics.

The two clusters are the components left by deleting one boundary edge
(prev, cur), held as two node ids. rotate(tree, u) is u's furthest neighbor
u^f, the one whose branch is on average furthest from u; with the boundary
at (u, u^f), u is stable (its own-cluster average is a mixture of branch
averages, each at most the u^f branch's). The walk starts at (root,
root^f). While an endpoint is unstable, the head cur rotates: the boundary
moves to (cur, cur^f), and the walk stops when cur^f is prev. The boundary
moves monotonically away from the root, so the loop ends within n steps,
and stability of the two boundary endpoints implies stability of every node.

Cost: construction roots the tree with one depth-first pass, and the first
solve adds one pass for each node's distance sum over its subtree and, by
rerooting, over the whole tree. Every branch average and endpoint check then
costs O(1) per neighbor, and successive pivots are distinct nodes, so
solve_tree2 is O(n). The audit of a tree reads one column per cluster from
sums_to, two O(n) passes each, so auditing a k-clustering is O(nk) and never
forms the n x n matrix. distance_matrix, which only the consumers that need
every entry call (through the oracle's matrix()), fills it with two numpy
passes over the preorder: O(n^2) writes from O(n) numpy calls.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .core import Clustering, DistanceOracle, stable_limit


def _integer_ids(ids, message):
    """ids as ints by operator.index, which neither truncates 0.5 nor parses "1"."""
    ids = list(ids)
    if bool in set(map(type, ids)):
        raise ValueError(message)
    try:
        return list(map(operator.index, ids))
    except TypeError:
        raise ValueError(message) from None


def root_pass(neighbors, root):
    """Root a tree, given as neighbor id lists, by one depth-first pass.

    Returns (order, pos, parent, depth, size): preorder and its inverse,
    parents (-1 at the root), hop depths and subtree sizes; v's subtree is
    the slice order[pos[v] : pos[v] + size[v]]. Seen neighbors are skipped,
    so an undirected adjacency and child lists both work. Raises ValueError
    when a node is unreachable, which with n - 1 edges also rules out a cycle.
    """
    n = len(neighbors)
    parent, depth, pos = [-1] * n, [-1] * n, [0] * n
    depth[root] = 0
    order, stack = [], [root]
    while stack:
        u = stack.pop()
        pos[u] = len(order)
        order.append(u)
        for v in neighbors[u]:
            if depth[v] < 0:
                parent[v], depth[v] = u, depth[u] + 1
                stack.append(v)
    if len(order) != n:
        raise ValueError("edges do not form a connected tree")
    size = [1] * n
    for v in reversed(order[1:]):
        size[parent[v]] += size[v]
    return order, pos, parent, depth, size


class WeightedTree:
    """Tree on nodes 0..n-1 with positive, finite edge weights.

    Rooted at `root` by `root_pass` (`order`, `pos`, `parent`, `depth`,
    `size`), plus each node's `parent_weight`, the weight of its parent edge.
    """

    def __init__(self, n, edges, root=0):
        self.n, self.root = _integer_ids((n, root), "tree size and root must be integers")
        if self.n < 1:
            raise ValueError("tree needs at least one node")
        if len(edges) != self.n - 1:
            raise ValueError("a tree on n nodes has exactly n-1 edges")
        if not 0 <= self.root < self.n:
            raise ValueError("root must be a node of the tree")
        ends = _integer_ids([x for u, v, _ in edges for x in (u, v)], "tree node ids must be integers")
        self.adj = [[] for _ in range(self.n)]
        neighbors = [[] for _ in range(self.n)]
        self.edges = []
        for u, v, (_, _, w) in zip(ends[::2], ends[1::2], edges):
            w = float(w)
            if not 0 <= u < self.n or not 0 <= v < self.n or u == v:
                raise ValueError(f"bad edge ({u}, {v})")
            if not 0 < w < math.inf:
                raise ValueError("edge weights must be positive and finite")
            self.adj[u].append((v, w))
            self.adj[v].append((u, w))
            neighbors[u].append(v)
            neighbors[v].append(u)
            self.edges.append((u, v, w))
        # every path is at most the total weight, so this bounds all distances
        if not math.isfinite(sum(w for _, _, w in self.edges)):
            raise ValueError("edge weights overflow the float range")
        self.order, self.pos, self.parent, self.depth, self.size = root_pass(neighbors, self.root)
        self.parent_weight = [0.0] * self.n
        for u, v, w in self.edges:
            self.parent_weight[v if self.parent[v] == u else u] = w
        self._sums = None

    def distance_sums(self):
        """(down, total): per node, distance sums to its subtree and to all nodes.

        down is summed bottom-up; total comes by rerooting from the root,
        total[c] = total[p] + w * (n - 2 * size[c]) for a child c of p over an
        edge of weight w. Computed once and cached. Raises ValueError when a
        sum overflows the float range.
        """
        if self._sums is None:
            n, parent, weight, size = self.n, self.parent, self.parent_weight, self.size
            down = [0.0] * n
            for v in reversed(self.order[1:]):
                down[parent[v]] += down[v] + size[v] * weight[v]
            total = [0.0] * n
            total[self.root] = down[self.root]
            for v in self.order[1:]:
                total[v] = total[parent[v]] + weight[v] * (n - 2 * size[v])
            # every down[v] <= total[root], so one check covers both lists
            if not math.isfinite(max(total)):
                raise ValueError("tree distance sums overflow the float range")
            self._sums = (down, total)
        return self._sums

    def dists_from(self, start):
        """Distances from one node to all nodes, in O(n) over the rooted layer.

        First up the parent chain from start to the root, then one pass over
        the preorder sets d[v] = d[parent[v]] + parent_weight[v] for every
        node off that chain. Each d[v] is then d[u] + w with u the neighbor
        toward start, the recurrence a breadth-first walk from start
        applies, so the result is the same bit for bit.
        """
        parent, weight = self.parent, self.parent_weight
        d = [0.0] * self.n
        chain = {start}
        v = start
        while parent[v] >= 0:
            d[parent[v]] = d[v] + weight[v]
            v = parent[v]
            chain.add(v)
        for v in self.order:
            if v not in chain:
                d[v] = d[parent[v]] + weight[v]
        return np.array(d)

    def sums_to(self, mask):
        """Total distance from every node to the nodes in mask, in two O(n) passes.

        Bottom-up, cnt[v] counts mask's nodes in v's subtree and down[v] sums
        their distances from v; br[v] = down[v] + w_v * cnt[v] is the same
        sum seen from v's parent. Top-down, out[c] sums the distances from c
        to mask's nodes outside c's subtree: out[p] + w_c * (m - cnt[c]),
        plus the br of c's siblings, as the sum of those before c in the
        preorder and the sum of those after it. The result is down + out.

        Every term is nonnegative, so each sum's rounding error is relative
        to that sum. The usual reroot step, S[c] = S[p] + w_c * (m - 2 cnt[c]),
        subtracts: its error is relative to S[p], which can dwarf S[c] when
        a heavy edge separates c from the rest. This stays apart from
        distance_sums on purpose, so an audit checks solve_tree2 with other
        arithmetic.
        """
        order, parent, weight = self.order, self.parent, self.parent_weight
        cnt = np.asarray(mask, dtype=np.int64).tolist()
        down, br, later = [0.0] * self.n, [0.0] * self.n, [0.0] * self.n
        # reversed preorder meets p's children last first, so down[p] then
        # holds the br of the siblings after v
        for v in order[:0:-1]:
            p = parent[v]
            br[v] = b = down[v] + weight[v] * cnt[v]
            later[v] = down[p]
            down[p] += b
            cnt[p] += cnt[v]
        m = cnt[self.root]
        out, earlier = [0.0] * self.n, [0.0] * self.n
        for c in order[1:]:
            p = parent[c]
            out[c] = (out[p] + weight[c] * (m - cnt[c])) + (earlier[p] + later[c])
            earlier[p] += br[c]
        return np.add(down, out)

    def distance_matrix(self):
        """All-pairs distances; row u equals dists_from(u) bit for bit.

        Two numpy passes over the preorder apply dists_from's recurrence
        d[v] = d[u] + w along the same paths, one column slice per node:
        bottom-up, each node's subtree gets its distance to the node's
        parent; top-down, every node outside a subtree gets its distance to
        the subtree's root. O(n^2) writes and O(n) numpy calls.
        """
        n, order, pos, size = self.n, self.order, self.pos, self.size
        d = np.zeros((n, n))    # indexed by preorder position until the end
        for j in range(n - 1, 0, -1):
            v = order[j]
            p, end = pos[self.parent[v]], j + size[v]
            d[j:end, p] = d[j:end, j] + self.parent_weight[v]
        for j in range(1, n):
            v = order[j]
            p, end, w = pos[self.parent[v]], j + size[v], self.parent_weight[v]
            d[:j, j] = d[:j, p] + w
            d[end:, j] = d[end:, p] + w
        at = np.asarray(pos)
        return d[np.ix_(at, at)]

    def to_oracle(self):
        return DistanceOracle.from_tree(self)

    def component(self, keep, drop):
        """Nodes left on `keep`'s side after removing edge (keep, drop), in preorder."""
        if self.parent[keep] == drop:
            return self.order[self.pos[keep] : self.pos[keep] + self.size[keep]]
        if self.parent[drop] == keep:
            lo = self.pos[drop]
            return self.order[:lo] + self.order[lo + self.size[drop] :]
        raise ValueError(f"({keep}, {drop}) is not a tree edge")


def _branch_sum(tree, u, v):
    """(sum of distances from u, node count) over the branch behind neighbor v.

    A child v's branch is its subtree, at down[v] + size[v] * w; the parent's
    branch is everything outside u's subtree, at total[u] - down[u].
    """
    down, total = tree.distance_sums()
    if tree.parent[v] == u:
        return down[v] + tree.size[v] * tree.parent_weight[v], tree.size[v]
    if tree.parent[u] == v:
        return total[u] - down[u], tree.n - tree.size[u]
    raise ValueError(f"({u}, {v}) is not a tree edge")


def rotate(tree, pivot):
    """pivot's furthest neighbor: the one whose branch is on average furthest.

    Ties go to the smallest neighbor id.
    """
    def key(v):
        s, count = _branch_sum(tree, pivot, v)
        return s / count, -v

    return max((v for v, _ in tree.adj[pivot]), key=key)


def _stable(tree, u, v):
    """Whether u is stable when edge (u, v) splits the tree; both sides are branch sums."""
    foreign_sum, foreign_count = _branch_sum(tree, u, v)
    own_count = tree.n - foreign_count - 1      # u itself excluded
    own_sum = sum(_branch_sum(tree, u, w)[0] for w, _ in tree.adj[u] if w != v)
    own = own_sum / own_count if own_count else 0.0
    return own <= stable_limit(foreign_sum / foreign_count)


def solve_tree2(tree):
    """IP-stable 2-clustering of a weighted tree via boundary rotation.

    The boundary is the edge (prev, cur), first (root, root^f); cluster 0 is
    the root's side.
    """
    if tree.n < 2:
        raise ValueError("need at least 2 nodes for a 2-clustering")
    r, depth = tree.root, tree.depth
    prev, cur = r, rotate(tree, r)
    for _ in range(tree.n):
        if _stable(tree, cur, prev) and _stable(tree, prev, cur):
            break
        nxt = rotate(tree, cur)
        if nxt == prev:
            # moving back would undo a stable-for-cur step; we are done
            break
        if min(depth[cur], depth[nxt]) < min(depth[prev], depth[cur]):
            raise RuntimeError("boundary moved toward the root; rotation broke monotonicity")
        prev, cur = cur, nxt
    else:
        raise RuntimeError("rotation did not settle within n steps")
    assignment = np.ones(tree.n, dtype=int)
    # prev is cur's parent at every step, so the root is on prev's side
    assignment[tree.component(prev, cur)] = 0
    return Clustering(assignment, 2)
