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
Only the (m, j) with a nonempty interval are kept, as int16 columns
(j, s_lo, s_hi) in row-major order with per-row offsets (138,575 of 499,500
on 1000 uniform values). Float averages wobble in the last bit, so the
thresholds are not monotone in j and every pair is tested. `reconstruct`
reads its boundaries from the same list: it accepts exactly what the fill did.

Almost every cell of the (n+1)^2 (k+1) cube is infinite, so the table keeps
only each row's band: for row i of layer l, the cells from its first to its
last finite column, infinite cells between them included. The bands of all
rows lie back to back in one float64 array, with per-row offsets and first
columns; a row without a finite cell keeps nothing. At n = 1000, k = 5 the
band is about 39,000 cells, against 6.0 million in the cube.

Each layer l is then filled from layer l-1 through the pair list: each
pair's interval is clipped to its row's band in int16, and only the nonempty
ones (1,220 to 7,979 of those 138,575 a layer at k = 5) are queried. No
query leaves its row's band, so one sparse table over the whole band answers
them all (range minima, Bender and Farach-Colton), its levels built in
place, one numpy minimum each. A layer costs O(P) int16 steps over P pairs
plus O(B log n) over a band of B cells, in O(log n) Python steps, not O(n^3).

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

# boundary rows per block of the thresholds; bounds their few
# (ROW_BLOCK + 1) x n float64 rows and ROW_BLOCK x n int16 thresholds
ROW_BLOCK = 64


@dataclass
class DpTable:
    table: np.ndarray        # every row's band, back to back: 1-D float64
    offsets: np.ndarray      # (k+1, n+2): row i of layer l is table[offsets[l, i] : offsets[l, i+1]]
    first: np.ndarray        # (k+1, n+1): the column j of that row's first cell
    targets: np.ndarray
    p: float
    instance: LineInstance
    pairs: tuple = None      # (start, j, s_lo, s_hi) of _feasibility_thresholds, None for k = 1

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
    """The (m, j) with a nonempty feasible previous-size interval.

    Returns (start, j, s_lo, s_hi): int16 columns over boundary positions
    m = 1..n-1 and right sizes j = 1..n-m with s_lo <= s_hi, in row-major
    order, row m's pairs at start[m]..start[m+1]-1. s_hi is the largest s
    satisfying the left-boundary condition, s_lo the smallest s satisfying
    the right-boundary one.
    """
    n = line.n
    # n + 1 fits int16: thresholds are built only for k >= 2, where
    # MAX_TABLE_CELLS ((n+1)^2 (k+1) <= 2.5e8) caps n + 1 at 9128
    per_row, cols = [], ([], [], [])              # pair counts of rows 1..n-1, columns
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
        # [r, j - 1] for boundary m0 + r; a j past n - m stays empty
        s_lo = np.full((m1 - m0, n - m0), n + 1, dtype=np.int16)
        s_hi = np.zeros((m1 - m0, n - m0), dtype=np.int16)
        for r, m in enumerate(range(m0, m1)):
            jmax = n - m
            s_hi[r, :jmax] = left[r, :m].searchsorted(right_lim[r, 1 : jmax + 1], "right")
            s_lo[r, :jmax] = left_lim[r + 1, 1 : m + 1].searchsorted(right[r + 1, :jmax]) + 1
        ok = s_lo <= s_hi
        per_row.append(np.count_nonzero(ok, axis=1))
        at = np.flatnonzero(ok)
        for col, part in zip(cols, ((at % (n - m0) + 1).astype(np.int16),
                                    s_lo.ravel().take(at), s_hi.ravel().take(at))):
            col.append(part)
    start = np.concatenate(([0, 0], np.cumsum(np.concatenate(per_row))))
    pairs = [start]
    for parts in cols:                 # only one column is ever held twice
        pairs.append(np.concatenate(parts))
        parts.clear()
    return tuple(pairs)


def _fill_layer(band, first, last, pen, pairs, p):
    """Layer l's (band, first, last) from layer l-1's and the feasible pairs.

    band holds row m of layer l-1 (the first m points, last cluster of size
    s) over columns first[m]..last[m], rows back to back; every cell outside
    it is infinite. Pair (m, j) feeds T[m + j, j, l] = pen[j] (+ or max) the
    min over s in [s_lo, s_hi] of T[m, s, l-1], so only the intervals that
    stay nonempty clipped to their row's band are queried; the cells the
    others feed stay infinite. Layer l's band spans each row's first to last
    finite cell.
    """
    n = len(first) - 1
    start, pj, s_lo, s_hi = pairs
    per_row = np.diff(start)
    lo = np.repeat(first[:n].astype(np.int16), per_row)
    np.maximum(lo, s_lo, out=lo)
    hi = np.repeat(last[:n].astype(np.int16), per_row)
    np.minimum(hi, s_hi, out=hi)
    q = np.flatnonzero(lo <= hi)
    m, js = start.searchsorted(q, "right") - 1, pj[q].astype(int)
    col0 = _offsets(first, last)[m] - first[m]      # band index of column 0 of row m
    lo, hi = col0 + lo[q], col0 + hi[q]
    # level t holds the minima of 2^t consecutive cells, built in place from
    # level t - 1; a query of length in [2^t, 2^(t+1)) reads both its ends
    e = np.frexp(hi - lo + 1)[1] - 1
    level = band.copy()
    mins = np.empty(len(q))
    for t in range(int(e.max(initial=-1)) + 1):
        if t:
            half = 1 << (t - 1)
            np.minimum(level[:-half], level[half:], out=level[:-half])
        at = np.flatnonzero(e == t)
        mins[at] = np.minimum(level[lo[at]], level[hi[at] - (1 << t) + 1])
    vals = np.maximum(pen[js], mins) if p == math.inf else pen[js] + mins
    fin = np.isfinite(vals)
    i, js, vals = m[fin] + js[fin], js[fin], vals[fin]
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

    pairs = None
    if k > 1:
        pairs = _feasibility_thresholds(instance)
        all_j = np.arange(n + 1, dtype=float)
        with np.errstate(over="ignore"):             # an overflowed cell is inf
            for l in range(2, k + 1):
                tl = float(targets[l - 1])
                pen = np.abs(all_j - tl) if p == math.inf else np.abs(all_j - tl) ** p
                layers.append(_fill_layer(*layers[-1], pen, pairs, p))

    bands, firsts, lasts = zip(*layers)
    flat = _offsets(np.concatenate(firsts), np.concatenate(lasts))
    offsets = np.stack([flat[l * (n + 1) : (l + 1) * (n + 1) + 1] for l in range(k + 1)])
    return DpTable(np.concatenate(bands), offsets, np.stack(firsts), targets, p, instance,
                   pairs)


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
        # the fill's interval for cell T[rem + right, right, l + 1]: pair
        # (rem, right) in row rem's run, sorted by j
        start, pj, s_lo, s_hi = dp.pairs
        c = start[rem] + int(pj[start[rem] : start[rem + 1]].searchsorted(right))
        lo = max(1, int(s_lo[c]))
        hi = min(rem - l + 1, int(s_hi[c]))
        row = dp.row(l, rem, lo, hi)
        right = lo + int(np.argmax(row <= vstar) if p == math.inf else np.argmin(row))
        sizes.append(right)
        rem -= right

    obj = float(vstar) if p == math.inf else float(vstar) ** (1.0 / p)
    return instance.clustering(sizes[::-1]), obj


def solve_targets(values, targets, p=math.inf):
    """Convenience wrapper: build the table and reconstruct in one call."""
    return reconstruct(build_table(values, targets, p=p))
