"""Exact IP-stable k-clustering of points on the real line.

Clusters of an optimal solution can be taken contiguous in sorted order, and
stability of a contiguous clustering is equivalent to stability of the 2(k-1)
points adjacent to the separators (checked only against the neighboring
cluster; farther clusters are automatically no closer on a line). The solver
starts with one big cluster followed by k-1 singletons and only ever moves
separators left, which bounds the total number of moves by k*n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import STABILITY_TOL, Clustering


@dataclass(frozen=True)
class LineInstance:
    """Values sorted ascending plus the permutation back to input order.

    sort_permutation[i] is the original index of the i-th sorted value.
    Ties keep input order (stable sort).
    """

    values: np.ndarray
    sort_permutation: np.ndarray

    @classmethod
    def from_values(cls, raw):
        raw = np.asarray(raw, dtype=float).ravel()
        if len(raw) == 0:
            raise ValueError("need at least one value")
        if not np.all(np.isfinite(raw)):
            raise ValueError("values must be finite")
        # every prefix sum and every sum of n distances is at most 2 n max|x|
        if not math.isfinite(2.0 * len(raw) * float(np.abs(raw).max())):
            raise ValueError("value sums overflow the float range")
        perm = np.argsort(raw, kind="stable")
        return cls(raw[perm], perm)

    @property
    def n(self):
        return len(self.values)


class SeparatorState:
    """Contiguous clustering of a line instance with O(1) boundary checks.

    Cluster i (0-based, left to right) occupies sorted positions
    [bounds[i], bounds[i+1]). Per cluster we keep the sum of distances from
    its leftmost member to all members (left_sum) and from its rightmost
    member (right_sum); both are enough to evaluate every boundary condition
    and to update in O(1) when a separator moves.
    """

    def __init__(self, instance, bounds, tol=STABILITY_TOL):
        self.instance = instance
        self.x = instance.values.tolist()
        self.bounds = list(bounds)
        self.tol = tol
        self.moves = 0
        k = len(bounds) - 1
        if bounds[0] != 0 or bounds[-1] != instance.n:
            raise ValueError("bounds must span [0, n]")
        if any(bounds[i] >= bounds[i + 1] for i in range(k)):
            raise ValueError("every cluster must be nonempty")
        self.left_sum = [0.0] * k
        self.right_sum = [0.0] * k
        for i in range(k):
            lo, hi = bounds[i], bounds[i + 1]
            seg = instance.values[lo:hi]
            self.left_sum[i] = float(np.sum(seg - seg[0]))
            self.right_sum[i] = float(np.sum(seg[-1] - seg))

    @classmethod
    def initial(cls, instance, k, tol=STABILITY_TOL):
        n = instance.n
        # one big cluster on the left, then k-1 singletons
        bounds = [0, n - k + 1] + list(range(n - k + 2, n + 1)) if k > 1 else [0, n]
        return cls(instance, bounds, tol=tol)

    @property
    def k(self):
        return len(self.bounds) - 1

    def size(self, i):
        return self.bounds[i + 1] - self.bounds[i]

    def separators(self):
        return list(self.bounds[1:-1])

    def boundary_stable(self, sep, side):
        """Stability of one of the two points adjacent to separator `sep`.

        sep in [1, k-1] sits between cluster sep-1 and cluster sep. side
        "left" checks the rightmost point of the left cluster against the
        right cluster; side "right" checks the leftmost point of the right
        cluster against the left cluster.
        """
        if not 1 <= sep <= self.k - 1:
            raise ValueError("separator index out of range")
        x = self.x
        b = self.bounds
        c_left, c_right = sep - 1, sep
        m_left = b[sep] - b[c_left]
        m_right = b[sep + 1] - b[sep]
        u = x[b[sep] - 1]       # rightmost of left cluster
        v = x[b[sep]]           # leftmost of right cluster
        if side == "left":
            own = self.right_sum[c_left] / (m_left - 1) if m_left > 1 else 0.0
            other = (self.left_sum[c_right] + m_right * (v - u)) / m_right
        elif side == "right":
            own = self.left_sum[c_right] / (m_right - 1) if m_right > 1 else 0.0
            other = (self.right_sum[c_left] + m_left * (v - u)) / m_left
        else:
            raise ValueError(f"unknown side {side!r}")
        return own <= other * (1.0 + self.tol)

    def move_left(self, sep):
        """Move separator `sep` one position left.

        The rightmost point of the left cluster joins the right cluster; all
        four bookkeeping sums update in O(1).
        """
        b = self.bounds
        if not 1 <= sep <= self.k - 1:
            raise ValueError("separator index out of range")
        if b[sep] - b[sep - 1] < 2:
            raise ValueError("cannot empty the left cluster")
        x = self.x
        cl, cr = sep - 1, sep
        m_left = b[sep] - b[cl]
        m_right = b[sep + 1] - b[sep]
        s = x[b[cl]]            # leftmost of left cluster
        u = x[b[sep] - 1]       # the moving point
        t = x[b[sep] - 2]       # new rightmost of left cluster
        v = x[b[sep]]           # old leftmost of right cluster
        w = x[b[sep + 1] - 1]   # rightmost of right cluster

        self.left_sum[cl] -= u - s
        self.right_sum[cl] = self.right_sum[cl] - (m_left - 1) * (u - t)
        # coefficient is the old right-cluster size: u itself adds distance 0
        self.left_sum[cr] = self.left_sum[cr] + m_right * (v - u)
        self.right_sum[cr] += w - u
        b[sep] -= 1
        self.moves += 1

    def to_clustering(self):
        assign_sorted = np.empty(self.instance.n, dtype=int)
        for i in range(self.k):
            assign_sorted[self.bounds[i] : self.bounds[i + 1]] = i
        assignment = np.empty(self.instance.n, dtype=int)
        assignment[self.sort_permutation()] = assign_sorted
        return Clustering(assignment, self.k)

    def sort_permutation(self):
        return self.instance.sort_permutation


def sweep(instance, k, tol=STABILITY_TOL):
    """Run the leftward separator sweep to a fully stable state."""
    n = instance.n
    if not 1 <= k <= n:
        raise ValueError("k must be in [1, n]")
    state = SeparatorState.initial(instance, k, tol=tol)
    max_moves = k * n
    j = 1
    while j <= k - 1:
        if state.boundary_stable(j, "left"):
            j += 1
            continue
        # an unstable boundary point implies the left cluster has >= 2 points
        state.move_left(j)
        if state.moves > max_moves:
            raise RuntimeError("separator sweep exceeded the k*n move bound")
        # the move changed cluster j-1's right neighbor; recheck one step back
        j = max(1, j - 1)
    return state


def solve_1d(values, k, tol=STABILITY_TOL):
    """IP-stable k-clustering of real values, returned in input order.

    Accepts raw values or a LineInstance. Runs in O(k*n) separator moves on
    top of an O(n log n) sort.
    """
    instance = values if isinstance(values, LineInstance) else LineInstance.from_values(values)
    return sweep(instance, k, tol=tol).to_clustering()
