"""Exact IP-stable 2-clustering on weighted tree metrics.

The two clusters are the components left by deleting one boundary edge. A
rotate step moves the boundary from (u, v) to (u, u^f) where u^f is u's
neighbor whose branch is on average furthest from u; after the move u is
stable (its own-cluster average is a mixture of branch averages, each at
most the u^f branch's). Rotating the unstable endpoint walks the boundary
monotonically away from the root, so the loop ends within n steps, and
stability of the two boundary endpoints implies stability of every node.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .core import STABILITY_TOL, Clustering, DistanceOracle


class WeightedTree:
    """Tree on nodes 0..n-1 with positive, finite edge weights."""

    def __init__(self, n, edges, root=0):
        self.n = int(n)
        if self.n < 1:
            raise ValueError("tree needs at least one node")
        if len(edges) != self.n - 1:
            raise ValueError("a tree on n nodes has exactly n-1 edges")
        self.root = int(root)
        self.adj = [[] for _ in range(self.n)]
        self.edges = []
        for u, v, w in edges:
            u, v, w = int(u), int(v), float(w)
            if not 0 <= u < self.n or not 0 <= v < self.n or u == v:
                raise ValueError(f"bad edge ({u}, {v})")
            if not 0 < w < math.inf:
                raise ValueError("edge weights must be positive and finite")
            self.adj[u].append((v, w))
            self.adj[v].append((u, w))
            self.edges.append((u, v, w))
        # every path is at most the total weight, so this bounds all distances
        if not math.isfinite(sum(w for _, _, w in self.edges)):
            raise ValueError("edge weights overflow the float range")
        # connectivity check doubles as a cycle check given the edge count
        if self.n > 1 and len(self._bfs_order(0)) != self.n:
            raise ValueError("edges do not form a connected tree")

    def _bfs_order(self, start, skip=None):
        seen = [False] * self.n
        seen[start] = True
        order = [start]
        q = deque([start])
        while q:
            u = q.popleft()
            for v, _ in self.adj[u]:
                if not seen[v] and (skip is None or {u, v} != skip):
                    seen[v] = True
                    order.append(v)
                    q.append(v)
        return order

    def dists_from(self, start):
        """Distances from one node to all nodes (single BFS, O(n))."""
        d = np.full(self.n, -1.0)
        d[start] = 0.0
        q = deque([start])
        while q:
            u = q.popleft()
            for v, w in self.adj[u]:
                if d[v] < 0:
                    d[v] = d[u] + w
                    q.append(v)
        return d

    def depths(self):
        """Hop depth of every node measured from the root."""
        d = np.full(self.n, -1, dtype=int)
        d[self.root] = 0
        q = deque([self.root])
        while q:
            u = q.popleft()
            for v, _ in self.adj[u]:
                if d[v] < 0:
                    d[v] = d[u] + 1
                    q.append(v)
        return d

    def distance_matrix(self):
        return np.vstack([self.dists_from(u) for u in range(self.n)])

    def to_oracle(self):
        return DistanceOracle.from_tree(self)

    def component(self, keep, drop):
        """Nodes reachable from `keep` after removing edge (keep, drop)."""
        return self._bfs_order(keep, skip={keep, drop})


@dataclass(frozen=True)
class BoundaryEdge:
    """One tree edge whose removal defines a contiguous 2-clustering."""

    u: int
    v: int

    def nodes(self):
        return {self.u, self.v}


def _branch_averages(tree, u):
    """Average distance from u to each neighbor branch, keyed by neighbor."""
    dist = tree.dists_from(u)
    out = {}
    for w, wt in tree.adj[u]:
        comp = tree.component(w, u)
        out[w] = float(dist[comp].mean())
    return out


def furthest_neighbor(tree, u):
    """Neighbor of u whose branch has the largest average distance from u.

    Ties go to the smallest neighbor id.
    """
    if not tree.adj[u]:
        raise ValueError("node has no neighbors")
    avgs = _branch_averages(tree, u)
    return max(sorted(avgs), key=lambda w: (avgs[w], -w))


def rotate(tree, boundary, pivot):
    """Move the boundary edge to (pivot, pivot^f).

    Returns the new BoundaryEdge; if pivot^f is already the other endpoint
    the same boundary comes back (the caller reads that as a no-op).
    """
    if pivot not in boundary.nodes():
        raise ValueError("pivot must be an endpoint of the boundary edge")
    f = furthest_neighbor(tree, pivot)
    return BoundaryEdge(pivot, f)


def boundary_clustering(tree, boundary):
    """Clustering induced by deleting the boundary edge.

    Cluster 0 is the side containing the root.
    """
    side_u = tree.component(boundary.u, boundary.v)
    assignment = np.ones(tree.n, dtype=int)
    assignment[side_u] = 0
    if assignment[tree.root] == 1:
        assignment = 1 - assignment
    return Clustering(assignment, 2)


def endpoint_stable(tree, boundary, endpoint, tol=STABILITY_TOL):
    """Eq-style stability of one boundary endpoint against the other side."""
    other = boundary.v if endpoint == boundary.u else boundary.u
    if endpoint not in boundary.nodes():
        raise ValueError("endpoint must belong to the boundary edge")
    own_comp = tree.component(endpoint, other)
    other_comp = tree.component(other, endpoint)
    dist = tree.dists_from(endpoint)
    own = dist[own_comp].sum() / (len(own_comp) - 1) if len(own_comp) > 1 else 0.0
    foreign = dist[other_comp].mean()
    return own <= foreign * (1.0 + tol)


def solve_tree2(tree, tol=STABILITY_TOL):
    """IP-stable 2-clustering of a weighted tree via boundary rotation."""
    if tree.n < 2:
        raise ValueError("need at least 2 nodes for a 2-clustering")
    r = tree.root
    depths = tree.depths()

    # initial edge: smallest-id neighbor of the root, then one setup rotate
    v0 = min(w for w, _ in tree.adj[r])
    boundary = rotate(tree, BoundaryEdge(r, v0), r)
    prev, cur = r, boundary.v

    last_depth = min(depths[prev], depths[cur])
    for _ in range(tree.n):
        if endpoint_stable(tree, boundary, cur, tol=tol) and endpoint_stable(
            tree, boundary, prev, tol=tol
        ):
            return boundary_clustering(tree, boundary)
        nxt = rotate(tree, boundary, cur)
        if nxt.v == prev:
            # moving back would undo a stable-for-cur step; we are done
            return boundary_clustering(tree, boundary)
        boundary = nxt
        prev, cur = cur, nxt.v
        new_depth = min(depths[prev], depths[cur])
        if new_depth < last_depth:
            raise RuntimeError("boundary moved toward the root; rotation broke monotonicity")
        last_depth = new_depth
    raise RuntimeError("rotation did not settle within n steps")
