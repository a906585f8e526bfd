"""Size-targeted IP-stable clustering on the line via dynamic programming.

T[i, j, l] is the best lp-deviation (raised to the p-th power for finite p,
plain maximum for p = infinity) over stable contiguous l-clusterings of the
first i sorted points whose rightmost cluster holds exactly j points.
Stability of a contiguous clustering reduces to per-separator checks of the
two adjacent points, so the recurrence over the previous cluster size s only
needs two average comparisons at the boundary.

Every average is a distance sum of the line model, `line1d.LineInstance`,
divided by its count. Both boundary conditions are monotone in s (averages
over nested point sets on a line), so for fixed (boundary position m, right
size j) the feasible s form an interval [s_lo[m, j], s_hi[m, j]]. The
thresholds are found once by binary search over the model's array sums,
running float sums of a point's distances, nearest first, which are 0 across
ties and close to the exact sums on any scale (n - 1 rows of numpy work).
They are kept with the table as two n x n small-int arrays; `reconstruct`
reads the boundaries it walks from them, so it accepts exactly the
boundaries the fill did.

Each layer l is then filled from layer l-1 in blocks of ROW_BLOCK rows m: a
block builds the sparse-table levels of its rows along s (range minima,
Bender and Farach-Colton; one numpy minimum per level) and answers all of
its (m, j) interval minima with one gather and one scatter. The fill keeps,
per row, the first and last finite column of the previous layer and clips
every interval and every block's table to that span, so the table width and
the number of queries follow the finite cells. A layer costs O(n^2) for the
threshold masks plus at most O(n^2 log n) for the levels, in O(n / ROW_BLOCK)
Python steps, instead of the naive O(n^3) per layer.

`reconstruct` walks back one layer per numpy step and needs no tolerance.
Every cell is pen[j] (+ or max) a minimum of the previous layer, and a
minimum is one of the floats it was taken over, so the walk can pick that
very entry: for finite p the smallest size at the exact row minimum, and for
p = infinity the smallest size whose entry is at most the optimum. Ties go
to the smallest size, and the path found reproduces the optimum bit for bit.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import STABILITY_TOL, _check_targets
from .line1d import LineInstance

# float64 |size - target|^p overflows around p ~ 30 for realistic deviations
P_OVERFLOW_WARN = 30

MAX_TABLE_CELLS = 2.5e8

# boundary rows per sparse-table block in the layer fill; bounds the block's
# levels x ROW_BLOCK x n float64 scratch (about 5 MB at n = 1000)
ROW_BLOCK = 64


@dataclass
class DpTable:
    table: np.ndarray        # shape (n+1, n+1, k+1); [i, j, l], index 0 unused
    targets: np.ndarray
    p: float
    instance: LineInstance
    s_lo: np.ndarray = None  # feasibility thresholds, None for k = 1
    s_hi: np.ndarray = None


def _feasibility_thresholds(line):
    """Feasible previous-size interval endpoints for every boundary.

    Returns (s_lo, s_hi), two (n, n) arrays indexed [m, j] for boundary
    position m = 1..n-1 and right size j = 1..n-m. s_hi[m, j] is the largest
    s satisfying the left-boundary condition, s_lo[m, j] the smallest s
    satisfying the right-boundary one; the interval is empty when
    s_lo > s_hi, and every unused cell (m = 0, j = 0 or j > n - m) holds an
    empty interval.
    """
    n = line.n
    dtype = np.int16 if n < 32000 else np.int32
    s_lo = np.full((n, n), n + 1, dtype=dtype)
    s_hi = np.zeros((n, n), dtype=dtype)
    counts = np.arange(1, n, dtype=float)
    slack = 1.0 + STABILITY_TOL

    def averages(a):
        """Average distances from point a to its c nearest neighbors on the
        left and on the right, c = 0, 1, ...; the empty average is 0."""
        left = line.dists_left(a, a)
        left[1:] /= counts[:a]
        right = line.dists_right(a, n - 1 - a)
        right[1:] /= counts[: n - 1 - a]
        return left, right

    # point m - 1 ends the left cluster and point m starts the right one; each
    # point's averages serve as own-cluster ones at one boundary and as
    # other-cluster ones at the next
    left_b, right_b = averages(0)
    for m in range(1, n):
        left_a, right_a = left_b, right_b
        left_b, right_b = averages(m)
        s_hi[m, 1 : n - m + 1] = np.searchsorted(left_a, right_a[1:] * slack, side="right")
        s_lo[m, 1 : n - m + 1] = np.searchsorted(left_b[1:] * slack, right_b, side="left") + 1
    return s_lo, s_hi


def _fill_layer(T, l, pen, s_lo, s_hi, first, last, p):
    """Fill T[:, :, l] from T[:, :, l-1], ROW_BLOCK boundary rows at a time.

    Row m of layer l-1 (the first m points, last cluster of size s) feeds
    T[m + j, j, l] = pen[j] (+ or max) the min over s in [s_lo[m, j],
    s_hi[m, j]] of T[m, s, l-1]. Row m of layer l-1 is infinite outside
    columns first[m]..last[m] (and last[m] <= m - l + 2), so each interval is
    clipped to that range; rows and (m, j) pairs left empty are skipped, and
    the cells they would feed stay infinite. Returns the same column bounds
    for layer l.
    """
    n = T.shape[0] - 1
    prev = T[:, :, l - 1]
    rows = np.arange(l - 1, n)
    rows = rows[first[rows] <= last[rows]]
    new_first = np.full(n + 1, n + 1)
    new_last = np.zeros(n + 1, dtype=int)
    floor_log2 = np.frexp(np.arange(1, n + 1))[1] - 1          # [length - 1]
    for start in range(0, len(rows), ROW_BLOCK):
        ms = rows[start : start + ROW_BLOCK]
        a, b = first[ms], last[ms]
        c0 = int(a.min())
        width = int(b.max()) - c0 + 1
        levels = int(floor_log2[width - 1]) + 1
        # table[t, r, c] = min of prev[ms[r], c0+c .. c0+c+2^t-1]
        table = np.empty((levels, len(ms), width))
        table[0] = prev[ms, c0 : c0 + width]
        for t in range(1, levels):
            half = 1 << (t - 1)
            w = width - 2 * half + 1
            np.minimum(table[t - 1, :, :w], table[t - 1, :, half : half + w], out=table[t, :, :w])

        jmax = n - int(ms[0])
        lo = np.maximum(s_lo[ms, 1 : jmax + 1], a[:, None])
        hi = np.minimum(s_hi[ms, 1 : jmax + 1], b[:, None])
        r, jj = np.nonzero(lo <= hi)
        lo = lo[r, jj] - c0
        hi = hi[r, jj] - c0
        t = floor_log2[hi - lo]
        mins = np.minimum(table[t, r, lo], table[t, r, hi - (1 << t) + 1])
        js = jj + 1
        i = ms[r] + js
        vals = np.maximum(pen[js], mins) if p == math.inf else pen[js] + mins
        T[i, js, l] = vals
        fin = np.isfinite(vals)
        np.minimum.at(new_first, i[fin], js[fin])
        np.maximum.at(new_last, i[fin], js[fin])
    return new_first, new_last


def build_table(values, targets, p=math.inf):
    """Fill the full DP table for the given target sizes and norm order.

    Args:
        values: raw values or a LineInstance.
        targets: positive integer sizes summing to n, ordered left to right.
        p: norm order, real >= 1 or math.inf.
    """
    instance = values if isinstance(values, LineInstance) else LineInstance.from_values(values)
    n = instance.n
    targets = _check_targets(targets, np.size(targets))
    if targets.sum() != n:
        raise ValueError("targets must sum to n")
    targets = targets.astype(int)
    k = len(targets)
    if not p >= 1:                                   # also rejects NaN
        raise ValueError("p must be >= 1 or infinity")
    if P_OVERFLOW_WARN <= p < math.inf:
        warnings.warn(
            f"p={p} risks float overflow in |size-target|^p; consider p=inf",
            UserWarning,
            stacklevel=2,
        )
    if float(n + 1) ** 2 * (k + 1) > MAX_TABLE_CELLS:
        raise ValueError("DP table would exceed the memory guard; reduce n or k")

    T = np.full((n + 1, n + 1, k + 1), np.inf)

    t1 = float(targets[0])
    for i in range(1, n + 1):
        dev = abs(i - t1)
        T[i, i, 1] = dev if p == math.inf else dev**p

    if k == 1:
        return DpTable(T, targets, p, instance)

    s_lo, s_hi = _feasibility_thresholds(instance)
    all_j = np.arange(n + 1, dtype=float)
    first = last = np.arange(n + 1)                  # layer 1 is the diagonal
    for l in range(2, k + 1):
        tl = float(targets[l - 1])
        pen = np.abs(all_j - tl) if p == math.inf else np.abs(all_j - tl) ** p
        first, last = _fill_layer(T, l, pen, s_lo, s_hi, first, last, p)
    return DpTable(T, targets, p, instance, s_lo, s_hi)


def reconstruct(dp):
    """Read an optimal stable clustering out of a filled table.

    Returns (Clustering in input order, objective value). The objective is
    the lp-norm of the size deviations (table entries store the p-th power
    for finite p). The last cluster takes the smallest size at the minimum
    of T[n, :, k]. Walking left, each boundary reads the previous layer over
    the sizes the fill took its minimum from and takes, for finite p, the
    smallest size at that exact minimum, and for p = infinity the smallest
    size whose entry is at most the optimum. The sizes found fold, in the
    fill's order, to the optimum bit for bit.
    """
    T, targets, p, instance = dp.table, dp.targets, dp.p, dp.instance
    n = instance.n
    k = len(targets)

    final = T[n, 1:, k]
    right = int(np.argmin(final)) + 1
    vstar = final[right - 1]
    if not np.isfinite(vstar):
        raise RuntimeError("table holds no stable contiguous clustering")

    sizes = [right]                  # right to left
    rem = n - right
    for l in range(k - 1, 0, -1):
        # the fill's interval for cell T[rem + right, right, l + 1]
        lo = max(1, int(dp.s_lo[rem, right]))
        hi = min(rem - l + 1, int(dp.s_hi[rem, right]))
        row = T[rem, lo : hi + 1, l]
        right = lo + int(np.argmax(row <= vstar) if p == math.inf else np.argmin(row))
        sizes.append(right)
        rem -= right

    obj = float(vstar) if p == math.inf else float(vstar) ** (1.0 / p)
    return instance.clustering(sizes[::-1]), obj


def solve_targets(values, targets, p=math.inf):
    """Convenience wrapper: build the table and reconstruct in one call."""
    return reconstruct(build_table(values, targets, p=p))
