"""Exact IP-stable k-clustering of points on the real line.

Clusters of an optimal solution can be taken contiguous in sorted order, and
a contiguous clustering is stable when the points next to the separators are
stable against the neighboring cluster (farther clusters are no closer on a
line). The solver starts with one big cluster followed by k-1 singletons and
only moves separators left, at most k*n moves. It checks only the k-1 points
just left of the separators: in exact arithmetic each cluster's first point
stays stable (a separator hands a point over only when it is closer on
average to the cluster on the right, and later moves only take farther
points from its cluster or add farther ones to the cluster on its left).
`core._line_sums_to`'s audit certifies that, in arithmetic of its own.

The sweep settles one separator per visit, moving it until the last point
before it is stable, then goes back one separator if it moved, else on to
the next. A move only makes its neighbours less stable (the cluster on its
left loses its point farthest from the separator before, the one on its
right gains a point farther than its members from the separator after), so
moves commute and have one final state in any order (Newman 1942): the
order changes neither the bounds nor the move count, their total
displacement. That argument holds in exact arithmetic, and each check
rounds its exact sums once; the gate is a differential test against the
one-step sweep kept in `tests/conftest.py`.

`LineInstance` is the one model of the sorted line that this sweep and the
size-targeted DP in `dp_target` share: the values exactly as integers over a
common power of two with their exact prefix sums, which the sweep reads
exactly and on any scale, and rows of running float sums of the distances
for the DP, a block of points at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import Clustering, _check_k, _check_range, stable_limit


@dataclass(frozen=True)
class LineInstance:
    """Values sorted ascending, the permutation back to input order, and the
    exact prefix sums behind every boundary condition.

    sort_permutation[i] is the original index of the i-th sorted value; ties
    keep input order (stable sort). `from_values` sorts and validates raw
    input: a 1-D array or a single column. Both arrays are kept as read-only
    copies, so the sums derived from them cannot drift from the values.
    """

    values: np.ndarray
    sort_permutation: np.ndarray

    def __post_init__(self):
        for name, dtype in (("values", float), ("sort_permutation", int)):
            arr = np.array(getattr(self, name), dtype=dtype)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @classmethod
    def from_values(cls, raw):
        raw = np.asarray(raw, dtype=float)
        # one column is a line, as DistanceOracle.from_points reads it
        if raw.ndim == 2 and raw.shape[1] == 1:
            raw = raw[:, 0]
        if raw.ndim != 1:
            raise ValueError(f"values must be a 1-D array or one column, got shape {raw.shape}")
        if len(raw) == 0:
            raise ValueError("need at least one value")
        if not np.all(np.isfinite(raw)):
            raise ValueError("values must be finite")
        # every sum is formed over values shifted by the minimum, so every
        # prefix sum and every sum of n distances is at most n (max - min)
        _check_range(float(raw.max()) - float(raw.min()), len(raw))
        perm = np.argsort(raw, kind="stable")
        return cls(raw[perm], perm)

    @property
    def n(self):
        return len(self.values)

    # Every float is an integer multiple of a power of two, so the values are
    # held exactly as values[0] + ints[i] / scale, with the exact prefix sums
    # sums[i] of ints[:i]. The distance sum from sorted point a to the c
    # points left of it is then c * ints[a] - (sums[a] - sums[a - c]), over
    # scale, and its mirror on the right: exact, so 0 across tied values and
    # never negative, whatever the spread and the offset; `settle` rounds it
    # once. The array form serves the DP thresholds at numpy speed, a block
    # of points at a time: running sums of the distances, nearest first.
    # Each distance is a correctly rounded nonnegative difference, so a sum
    # is exactly 0 across ties, never negative, exact for c <= 1 and within
    # c ulps (relative) of the exact sum, whatever the offset.

    @cached_property
    def _exact(self):
        ratios = [x.as_integer_ratio() for x in self.values.tolist()]
        scale = max(d for _, d in ratios)
        ints = [num * (scale // d) for num, d in ratios]
        ints = [i - ints[0] for i in ints]
        sums = list(accumulate(ints, initial=0))
        # below 2**1000 a sum d converts to a float and d * (1 / scale) is
        # the same correctly rounded float as d / scale, about twice as fast
        fast = scale < 2**1000 and len(ints) * sums[-1] < 2**1000
        return ints, sums, (1 / scale if fast else None), scale

    @cached_property
    def _windows(self):
        # row r of each: the n values from sorted position r on, of the
        # values descending (left) or ascending (right), padded past the end
        # with the last value, so a padded distance is at most the spread
        n = self.n
        return tuple(sliding_window_view(np.concatenate((v, np.full(n - 1, v[-1]))), n)
                     for v in (self.values[::-1], self.values))

    def dist_rows(self, lo, hi):
        """Running float sums of the distances from sorted points lo..hi-1.

        Returns (left, right), arrays of hi - lo rows: left[r, c] is the
        sum of the distances from point a = lo + r to the c points just left
        of it, nearest first, for c = 0..a, and right[r, c] the same to the
        right, for c = 0..n-1-a. left has hi columns and right n - lo, as
        many as the block's last and first point need; the entries past a
        row's own count are finite and meaningless.
        """
        n = self.n
        v = self.values[lo:hi, None]
        win_left, win_right = self._windows
        left = np.zeros((hi - lo, hi))
        right = np.zeros((hi - lo, n - lo))
        np.cumsum(v - win_left[n - hi : n - lo][::-1, 1:hi], axis=1, out=left[:, 1:])
        np.cumsum(win_right[lo:hi, 1 : n - lo] - v, axis=1, out=right[:, 1:])
        return left, right

    def settle(self, lo, b, hi):
        """Move separator b left, with its neighbours lo < b < hi fixed,
        until the last point of [lo, b) is stable against [b, hi): its own
        average is at most `stable_limit` of its average to [b, hi), each
        sum exact and rounded once. Returns the new position, lo + 1 at the
        latest, where the point is a singleton with own average 0."""
        ints, sums, inv, scale = self._exact
        while b - 1 > lo:
            a = b - 1
            own = (a - lo) * ints[a] - (sums[a] - sums[lo])
            foreign = (sums[hi] - sums[b]) - (hi - b) * ints[a]
            own, foreign = (own * inv, foreign * inv) if inv else (own / scale, foreign / scale)
            if own / (a - lo) <= stable_limit(foreign / (hi - b)):
                break
            b -= 1
        return b

    def clustering(self, sizes):
        """The contiguous clustering whose clusters, left to right in sorted
        order, hold sizes[0], sizes[1], ... points, in input order."""
        assignment = np.empty(self.n, dtype=int)
        assignment[self.sort_permutation] = np.repeat(np.arange(len(sizes)), sizes)
        return Clustering(assignment, len(sizes))


@dataclass
class SeparatorState:
    """A contiguous clustering of a line instance and the moves that made it.

    Cluster i (0-based, left to right) occupies sorted positions
    [bounds[i], bounds[i+1]).
    """

    instance: LineInstance
    bounds: list
    moves: int

    @property
    def k(self):
        return len(self.bounds) - 1

    def to_clustering(self):
        return self.instance.clustering(np.diff(self.bounds))


def sweep(instance, k):
    """Run the leftward separator sweep to a fully stable state, settling
    one separator per visit (see the module docstring)."""
    n = instance.n
    _check_k(k, n)
    b = [0] + list(range(n - k + 1, n + 1))   # one big cluster, k-1 singletons
    moves = 0
    j = 1
    while j <= k - 1:
        new = instance.settle(b[j - 1], b[j], b[j + 1])
        moved, b[j] = b[j] - new, new
        moves += moved
        if moves > k * n:
            raise RuntimeError("separator sweep exceeded the k*n move bound")
        # a move shrank cluster j-1, so separator j-1 is checked again
        j = j - 1 if moved and j > 1 else j + 1
    return SeparatorState(instance, b, moves)


def solve_1d(values, k):
    """IP-stable k-clustering of real values, returned in input order.

    Accepts raw values or a LineInstance. Runs in at most k*n separator
    moves, settled one separator at a time, on top of an O(n log n) sort.
    """
    instance = values if isinstance(values, LineInstance) else LineInstance.from_values(values)
    return sweep(instance, k).to_clustering()
