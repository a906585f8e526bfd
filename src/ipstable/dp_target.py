"""Size-targeted IP-stable clustering on the line via dynamic programming.

T[i, j, l] is the best lp-deviation (raised to the p-th power for finite p,
plain maximum for p = infinity) over stable contiguous l-clusterings of the
first i sorted points whose rightmost cluster holds exactly j points. A p-th
power or sum past the float range is stored as inf; every term is
nonnegative, so a finite optimum is unchanged by it, and an infinite one at
finite p is reported as an overflow of the objective.
Stability of a contiguous clustering reduces to per-separator checks of the
two adjacent points, so the recurrence over the previous cluster size s only
needs two average comparisons at the boundary.

Every average is a distance sum of the line model, `line1d.LineInstance`,
divided by its count. Both boundary conditions are monotone in s (averages
over nested point sets on a line), so for fixed (boundary position m, right
size j) the feasible s form an interval [s_lo[m, j], s_hi[m, j]]. The
thresholds are found once by binary search over the model's array sums,
running float sums of a point's distances, nearest first, which are 0 across
ties and close to the exact sums on any scale. They are formed ROW_BLOCK
points at a time (a few numpy calls per block), and each boundary then
takes one pair of binary searches over its two points' rows.
They are kept with the table as two n x n small-int arrays; `reconstruct`
reads the boundaries it walks from them, so it accepts exactly the
boundaries the fill did.

Almost every cell of the (n+1)^2 (k+1) cube is infinite, so the table keeps
only each row's band: for row i of layer l, the cells from its first to its
last finite column, infinite cells between them included. The bands of all
rows lie back to back in one float64 array, with per-row offsets and first
columns; a row without a finite cell keeps nothing. At n = 1000, k = 5 the
band is about 39,000 cells, against 6.0 million in the cube.

Each layer l is then filled from layer l-1 in blocks of ROW_BLOCK rows m: a
block gathers its rows' bands into the sparse-table levels along s (range
minima, Bender and Farach-Colton; one numpy minimum per level) and answers
all of its (m, j) interval minima with one gather. Every interval is clipped
to its row's band, so the block's width and the number of queries follow the
finite cells. The finite results are scattered into layer l's band once all
blocks have run and its rows' spans are known. A layer costs O(n^2) for the
threshold masks plus at most O(n^2 log n) for the levels, in
O(n / ROW_BLOCK) Python steps, instead of the naive O(n^3) per layer.

`reconstruct` walks back one layer per numpy step and needs no tolerance.
Every cell is pen[j] (+ or max) a minimum of the previous layer, and a
minimum is one of the floats it was taken over, so the walk can pick that
very entry: for finite p the smallest size at the exact row minimum, and for
p = infinity the smallest size whose entry is at most the optimum. Ties go
to the smallest size, and the path found reproduces the optimum bit for bit.
The walk reads T[i, lo:hi+1, l] as row i's band clipped to [lo, hi] and
infinite outside it, so it scans the same entries the cube would hold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import _check_p, _check_targets, stable_limit
from .line1d import LineInstance

# guards the (n+1)^2 (k+1) cells of the full cube, although only the band is
# kept: the band's width is known only during the fill, and on all-equal
# values every reachable cell is finite
MAX_TABLE_CELLS = 2.5e8

# boundary rows per block, in the thresholds and in the layer fill; bounds
# the thresholds' few (ROW_BLOCK + 1) x n float64 rows and the fill's
# levels x ROW_BLOCK x width scratch, where the width follows the rows'
# bands and is at most n (at most about 5 MB at n = 1000)
ROW_BLOCK = 64


@dataclass
class DpTable:
    table: np.ndarray        # every row's band, back to back: 1-D float64
    offsets: np.ndarray      # (k+1, n+2): row i of layer l is table[offsets[l, i] : offsets[l, i+1]]
    first: np.ndarray        # (k+1, n+1): the column j of that row's first cell
    targets: np.ndarray
    p: float
    instance: LineInstance
    s_lo: np.ndarray = None  # feasibility thresholds, None for k = 1
    s_hi: np.ndarray = None

    def row(self, l, i, lo, hi):
        """T[i, lo:hi+1, l]: row i of layer l over columns lo..hi, inf outside its band."""
        out = np.full(max(hi - lo + 1, 0), np.inf)
        start, end = self.offsets[l, i], self.offsets[l, i + 1]
        f = int(self.first[l, i])
        a, b = max(lo, f), min(hi, f + int(end - start) - 1)
        if a <= b:
            out[a - lo : b - lo + 1] = self.table[start + a - f : start + b - f + 1]
        return out


def _offsets(first, last):
    """Band offsets of rows spanning columns first..last; empty where first > last."""
    return np.concatenate(([0], np.cumsum(np.maximum(last - first + 1, 0))))


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
    # n + 1 fits int16: thresholds are built only for k >= 2, where
    # MAX_TABLE_CELLS ((n+1)^2 (k+1) <= 2.5e8) caps n + 1 at 9128
    s_lo = np.full((n, n), n + 1, dtype=np.int16)
    s_hi = np.zeros((n, n), dtype=np.int16)
    counts = np.arange(1, n, dtype=float)
    # point m - 1 ends the left cluster and point m starts the right one; each
    # point's averages serve as own-cluster ones at one boundary and as
    # other-cluster ones at the next. A block of boundaries m0..m1-1 reads
    # points m0-1..m1-1: their average distances to their c nearest
    # neighbors on the left and on the right, c = 0, 1, ..., the empty
    # average 0, in one row each
    for m0 in range(1, n, ROW_BLOCK):
        m1 = min(m0 + ROW_BLOCK, n)
        left, right = line.dist_rows(m0 - 1, m1)
        left[:, 1:] /= counts[: m1 - 1]
        right[:, 1:] /= counts[: n - m0]
        left_lim, right_lim = stable_limit(left), stable_limit(right)
        for r, m in enumerate(range(m0, m1)):
            jmax = n - m
            s_hi[m, 1 : jmax + 1] = left[r, :m].searchsorted(right_lim[r, 1 : jmax + 1], "right")
            s_lo[m, 1 : jmax + 1] = left_lim[r + 1, 1 : m + 1].searchsorted(right[r + 1, :jmax]) + 1
    return s_lo, s_hi


def _fill_layer(band, first, last, l, pen, s_lo, s_hi, p):
    """Layer l's (band, first, last) from layer l-1's, ROW_BLOCK boundary rows at a time.

    band holds row m of layer l-1 (the first m points, last cluster of size
    s) over columns first[m]..last[m], rows back to back; every cell outside
    it is infinite, and last[m] <= m - l + 2. Row m feeds T[m + j, j, l] =
    pen[j] (+ or max) the min over s in [s_lo[m, j], s_hi[m, j]] of
    T[m, s, l-1], so each interval is clipped to the row's band; rows and
    (m, j) pairs left empty are skipped, and the cells they would feed stay
    infinite. Layer l's band spans each row's first to last finite cell.
    """
    n = len(first) - 1
    off = _offsets(first, last)
    rows = np.arange(l - 1, n)
    rows = rows[first[rows] <= last[rows]]
    floor_log2 = np.frexp(np.arange(1, n + 1))[1] - 1          # [length - 1]
    hits = [(np.empty(0, dtype=int), np.empty(0, dtype=int), np.empty(0))]   # finite (i, j, T)
    for start in range(0, len(rows), ROW_BLOCK):
        ms = rows[start : start + ROW_BLOCK]
        a, b = first[ms], last[ms]
        c0 = int(a.min())
        width = int(b.max()) - c0 + 1
        levels = int(floor_log2[width - 1]) + 1
        # table[t, r, c] = min of T[ms[r], c0+c .. c0+c+2^t-1, l-1]; level 0
        # places the block's bands, back to back in band, at their columns
        table = np.empty((levels, len(ms), width))
        span = b - a + 1
        seg = band[off[ms[0]] : off[ms[-1] + 1]]
        level0 = table[0].reshape(-1)
        level0.fill(np.inf)
        level0[np.repeat(np.arange(len(ms)) * width + (a - c0) - (np.cumsum(span) - span), span)
               + np.arange(len(seg))] = seg
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
        vals = np.maximum(pen[js], mins) if p == math.inf else pen[js] + mins
        fin = np.isfinite(vals)
        hits.append((ms[r[fin]] + js[fin], js[fin], vals[fin]))
    i, js, vals = map(np.concatenate, zip(*hits))
    new_first = np.full(n + 1, n + 1)
    new_last = np.zeros(n + 1, dtype=int)
    np.minimum.at(new_first, i, js)
    np.maximum.at(new_last, i, js)
    new_off = _offsets(new_first, new_last)
    new_band = np.full(new_off[-1], np.inf)
    new_band[new_off[i] + js - new_first[i]] = vals
    return new_band, new_first, new_last


def build_table(values, targets, p=math.inf):
    """Fill the DP table's bands for the given target sizes and norm order.

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
    _check_p(p)
    if float(n + 1) ** 2 * (k + 1) > MAX_TABLE_CELLS:
        raise ValueError("DP table would exceed the memory guard; reduce n or k")

    t1 = float(targets[0])
    diagonal = np.empty(n)
    for i in range(1, n + 1):
        dev = abs(i - t1)
        try:
            diagonal[i - 1] = dev if p == math.inf else dev**p
        except OverflowError:
            diagonal[i - 1] = math.inf
    # (band, first, last) per layer; layer 0 is unused, layer 1 is the
    # diagonal T[i, i, 1] and its row 0 is empty
    empty = (np.empty(0), np.full(n + 1, n + 1), np.zeros(n + 1, dtype=int))
    layers = [empty, (diagonal, np.r_[n + 1, 1 : n + 1], np.arange(n + 1))]

    s_lo = s_hi = None
    if k > 1:
        s_lo, s_hi = _feasibility_thresholds(instance)
        all_j = np.arange(n + 1, dtype=float)
        with np.errstate(over="ignore"):             # an overflowed cell is inf
            for l in range(2, k + 1):
                tl = float(targets[l - 1])
                pen = np.abs(all_j - tl) if p == math.inf else np.abs(all_j - tl) ** p
                layers.append(_fill_layer(*layers[-1], l, pen, s_lo, s_hi, p))

    bands, firsts, lasts = zip(*layers)
    flat = _offsets(np.concatenate(firsts), np.concatenate(lasts))
    offsets = np.stack([flat[l * (n + 1) : (l + 1) * (n + 1) + 1] for l in range(k + 1)])
    return DpTable(np.concatenate(bands), offsets, np.stack(firsts), targets, p, instance,
                   s_lo, s_hi)


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
    targets, p, instance = dp.targets, dp.p, dp.instance
    n = instance.n
    k = len(targets)

    final = dp.row(k, n, 1, n)
    right = int(np.argmin(final)) + 1
    vstar = final[right - 1]
    if not np.isfinite(vstar):
        # the line always has a stable contiguous k-clustering, so at finite
        # p an infinite optimum is a p-th power past the float range
        if p < math.inf:
            raise ValueError(f"size deviations to the power p={p} overflow the float range; "
                             "use p=inf")
        raise RuntimeError("table holds no stable contiguous clustering")

    sizes = [right]                  # right to left
    rem = n - right
    for l in range(k - 1, 0, -1):
        # the fill's interval for cell T[rem + right, right, l + 1]
        lo = max(1, int(dp.s_lo[rem, right]))
        hi = min(rem - l + 1, int(dp.s_hi[rem, right]))
        row = dp.row(l, rem, lo, hi)
        right = lo + int(np.argmax(row <= vstar) if p == math.inf else np.argmin(row))
        sizes.append(right)
        rem -= right

    obj = float(vstar) if p == math.inf else float(vstar) ** (1.0 / p)
    return instance.clustering(sizes[::-1]), obj


def solve_targets(values, targets, p=math.inf):
    """Convenience wrapper: build the table and reconstruct in one call."""
    return reconstruct(build_table(values, targets, p=p))
