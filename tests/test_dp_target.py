import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipstable.core import STABILITY_TOL, DistanceOracle, audit
from ipstable import dp_target
from ipstable.dp_target import build_table, reconstruct, solve_targets
from ipstable.hardgen import fixtures
from ipstable.line1d import LineInstance

from conftest import (
    MULTI_SCALE_FAR,
    MULTI_SCALE_POOL,
    _per_row_thresholds,
    contiguous_stable_optimum,
    dense_table,
    line_values,
    naive_num_unstable,
    naive_vi,
    per_row_dp_table,
)

NORM_ORDERS = (1.0, 1.5, 2.0, math.inf)


def _line_matrix(values):
    v = np.asarray(values, dtype=float)
    return np.abs(v[:, None] - v[None, :])


def _random_targets(rng, n, k):
    """A uniform positive composition of n into k parts (targets sum to n)."""
    if k == 1:
        return [n]
    cuts = np.sort(rng.choice(np.arange(1, n), size=k - 1, replace=False))
    return [int(s) for s in np.diff(np.concatenate(([0], cuts, [n])))]


def _sweep_values(rng, kind, n):
    if kind == "random":
        return rng.normal(size=n) * 10
    if kind == "tied":
        return np.round(rng.normal(size=n), 1)
    if kind == "multi-scale":
        return np.array([rng.choice(MULTI_SCALE_FAR), *rng.choice(MULTI_SCALE_POOL, size=n - 1)])
    return rng.integers(0, 4, size=n).astype(float)     # duplicate-heavy


def test_result_is_stable_and_obj_matches_audit():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.integers(4, 40))
        k = int(rng.integers(1, min(5, n) + 1))
        targets = _random_targets(rng, n, k)
        p = float(rng.choice([1.0, 2.0, math.inf]))
        vals = np.sort(rng.normal(size=n) * 10)
        clustering, obj = solve_targets(vals, targets, p=p)
        assert naive_num_unstable(_line_matrix(vals), clustering.assignment) == 0
        rep = audit(
            DistanceOracle.from_points(vals.reshape(-1, 1)),
            clustering,
            targets=targets,
            p=p,
        )
        assert rep.obj == pytest.approx(obj)


def test_matches_exhaustive_optimum_small():
    rng = np.random.default_rng(2)

    def pool(n):
        """n draws from a pool of at most n values: duplicates are common."""
        return rng.choice(rng.uniform(0.0, 100.0, size=int(rng.integers(1, n + 1))), size=n)

    draws = {
        "random": lambda n: rng.normal(size=n) * 5,
        "tied": lambda n: _sweep_values(rng, "tied", n),
        "duplicates": pool,
        "offset-1e12": lambda n: 1e12 + pool(n),
        "offset-1e9": lambda n: -1e9 + 0.1 * _sweep_values(rng, "duplicates", n),
    }
    for kind, draw in draws.items():
        for _ in range(25):
            n = int(rng.integers(3, 10))
            k = int(rng.integers(1, min(4, n) + 1))
            targets = _random_targets(rng, n, k)
            vals = draw(n)
            for p in NORM_ORDERS:
                _, obj = solve_targets(vals, targets, p=p)
                best = contiguous_stable_optimum(vals, targets, p)
                assert best is not None
                assert obj == pytest.approx(best), (kind, list(vals), targets, p)


def test_cluster_order_matches_target_order():
    # deviations pair the i-th contiguous cluster with targets[i]
    vals = np.array([0.0, 1.0, 10.0, 11.0])
    clustering, obj = solve_targets(vals, [2, 2], p=1)
    assert obj == 0.0
    left = {i for i in range(4) if clustering.assignment[i] == 0}
    assert left == {0, 1}
    # asymmetric targets: the only stable splits are 2 | 2 here
    _, obj13 = solve_targets(vals, [1, 3], p=1)
    assert obj13 == pytest.approx(2.0)


def test_all_singletons_when_n_equals_k():
    vals = np.array([4.0, -2.0, 9.0])
    clustering, obj = solve_targets(vals, [1, 1, 1], p=1)
    assert sorted(clustering.sizes()) == [1, 1, 1]
    assert obj == 0.0


def test_p_infinity_minimizes_worst_deviation():
    vals = np.concatenate([np.zeros(3), np.ones(3) * 100.0])
    # stable contiguous 2-clusterings of this instance: only the 3 | 3 split
    _, obj = solve_targets(vals, [1, 5], p=math.inf)
    assert obj == pytest.approx(2.0)
    _, obj1 = solve_targets(vals, [1, 5], p=1)
    assert obj1 == pytest.approx(4.0)


def test_two_stable_fixture_prefers_requested_sizes():
    # the only stable contiguous 2-splits of this instance have sizes
    # (1, 4) and (4, 1): the large outer gaps pin the boundary
    vals = fixtures()["fig2-two-stable"]["values"]
    c41, obj41 = solve_targets(vals, [4, 1], p=math.inf)
    assert obj41 == 0.0
    assert list(c41.sizes()) == [4, 1]
    c14, obj14 = solve_targets(vals, [1, 4], p=math.inf)
    assert obj14 == 0.0
    assert list(c14.sizes()) == [1, 4]
    # targets (2, 3) cannot be met by a stable split; nearest is (1, 4)
    _, obj23 = solve_targets(vals, [2, 3], p=math.inf)
    assert obj23 == pytest.approx(1.0)


def test_unsorted_input_is_handled_in_input_order():
    vals = np.array([8.0, 0.0, 7.0, 1.0])
    clustering, obj = solve_targets(vals, [2, 2], p=1)
    assert obj == 0.0
    assert clustering.assignment[1] == clustering.assignment[3]
    assert clustering.assignment[0] == clustering.assignment[2]


def test_large_p_overflowing_cells_are_infinite():
    # a size 40 deviates by 20 and 20**240 overflows, yet the optimum is exact
    rng = np.random.default_rng(5)
    vals = np.concatenate([rng.uniform(0, 1, 20), rng.uniform(100, 101, 20)])
    clustering, obj = solve_targets(vals, [20, 20], p=240.0)
    assert obj == 0.0
    assert list(clustering.sizes()) == [20, 20]
    # the only stable split is 39 | 1, and 2 * 19**240 is still finite
    vals = np.append(rng.uniform(0, 1, 39), 100.0)
    _, obj = solve_targets(vals, [20, 20], p=240.0)
    assert obj == pytest.approx(19 * 2 ** (1 / 240))


def test_large_p_objective_overflow_is_an_error():
    # 19**260 is past the float range: no finite objective exists at this p
    vals = np.append(np.random.default_rng(5).uniform(0, 1, 39), 100.0)
    with pytest.raises(ValueError, match="overflow"):
        solve_targets(vals, [20, 20], p=260.0)
    _, obj = solve_targets(vals, [20, 20], p=math.inf)
    assert obj == 19.0


@pytest.mark.parametrize("values, targets, message", [
    ([0.0, 1.0, 5.0, 6.0], [2.5, 2.5], "whole numbers"),     # was truncated to [2, 2]
    ([0.0, 1.0, 5.0, 6.0, 7.0], [2.9, 1.9, 0.2], "whole numbers"),
    ([0.0, 1.0, 5.0, 6.0], [math.nan, 4], "whole numbers"),
    ([0.0, 1.0, 5.0, 6.0], [0, 4], "at least 1"),
    ([0.0, 1.0, 5.0, 6.0], [[2, 2]], "length"),
])
def test_targets_must_be_positive_whole_numbers(values, targets, message):
    with pytest.raises(ValueError, match=message):
        solve_targets(values, targets)


def test_validation_errors():
    with pytest.raises(ValueError):
        solve_targets(np.arange(3.0), [1, 1, 1, 1], p=1)  # k > n
    with pytest.raises(ValueError):
        solve_targets(np.arange(3.0), [], p=1)
    with pytest.raises(ValueError):
        solve_targets(np.arange(3.0), [1, 1], p=0.5)
    with pytest.raises(ValueError):
        solve_targets(np.arange(4.0), [2, 2], p=math.nan)
    with pytest.raises(ValueError):
        build_table(np.arange(4.0), [2, 2], p=math.nan)


def test_build_then_reconstruct_equals_wrapper():
    vals = np.array([0.0, 0.5, 4.0, 4.2, 9.0])
    dp = build_table(vals, [2, 2, 1], p=1)
    c1, o1 = reconstruct(dp)
    c2, o2 = solve_targets(vals, [2, 2, 1], p=1)
    assert o1 == o2
    assert np.array_equal(c1.assignment, c2.assignment)


FILL_KINDS = ["random", "tied", "duplicates", "multi-scale"]


@pytest.mark.parametrize("kind", FILL_KINDS)
@pytest.mark.parametrize("p", NORM_ORDERS)
def test_layer_fill_is_bit_identical_to_per_row_fill(kind, p):
    rng = np.random.default_rng(FILL_KINDS.index(kind))
    for trial in range(16):
        n = int(rng.integers(1, 61))
        k = [1, min(2, n), int(rng.integers(1, n + 1)), n][trial % 4]
        targets = _random_targets(rng, n, k)
        vals = _sweep_values(rng, kind, n)
        table = dense_table(build_table(vals, targets, p=p))
        assert np.array_equal(table, per_row_dp_table(vals, targets, p=p)), (n, k)


def test_layer_fill_spans_several_row_blocks(monkeypatch):
    # more boundary rows than one block holds: on all-equal values every
    # reachable cell is finite, so each block's sparse table spans whole rows;
    # evenly spaced values leave a few finite cells per row
    for vals in (np.zeros(150), np.arange(150.0)):
        for p in (2.0, math.inf):
            table = dense_table(build_table(vals, [50, 30, 70], p=p))
            assert np.array_equal(table, per_row_dp_table(vals, [50, 30, 70], p=p))
    # small blocks put block boundaries all through random instances
    monkeypatch.setattr(dp_target, "ROW_BLOCK", 5)
    rng = np.random.default_rng(3)
    for trial in range(12):
        n = int(rng.integers(2, 61))
        targets = _random_targets(rng, n, int(rng.integers(2, min(6, n) + 1)))
        vals = _sweep_values(rng, ["random", "tied", "duplicates"][trial % 3], n)
        for p in NORM_ORDERS:
            table = dense_table(build_table(vals, targets, p=p))
            assert np.array_equal(table, per_row_dp_table(vals, targets, p=p)), (n, p)


THRESHOLD_VALUES = {
    "tied": lambda rng, n: np.round(rng.normal(size=n), 1),
    "multi-scale": lambda rng, n: _sweep_values(rng, "multi-scale", n),
    # each value near 1e307, so n (max |x|) overflows but n (max - min) does not
    "huge-small-spread": lambda rng, n: 1e307 + rng.permutation(n) * 1e292,
}


@pytest.mark.parametrize("kind", sorted(THRESHOLD_VALUES))
def test_thresholds_in_row_blocks_equal_the_per_row_thresholds(kind):
    """Row blocks of ROW_BLOCK points give every boundary's thresholds bit
    for bit, on both sides of each block edge, and leave every unused cell
    an empty interval."""
    rng = np.random.default_rng(sorted(THRESHOLD_VALUES).index(kind))
    for n in (2, 3, 63, 64, 65, 133):
        line = LineInstance.from_values(THRESHOLD_VALUES[kind](rng, n))
        s_lo, s_hi = dp_target._feasibility_thresholds(line)
        want_hi, want_lo = _per_row_thresholds(line.values, STABILITY_TOL)
        for m in range(1, n):
            assert np.array_equal(s_hi[m, 1 : n - m + 1], want_hi[m]), (n, m)
            assert np.array_equal(s_lo[m, 1 : n - m + 1], want_lo[m]), (n, m)
        used = np.zeros((n, n), dtype=bool)
        for m in range(1, n):
            used[m, 1 : n - m + 1] = True
        assert (s_lo[~used] == n + 1).all() and (s_hi[~used] == 0).all(), n


def test_table_keeps_only_each_rows_finite_span():
    # every row of a filled layer starts and ends on a finite cell, so the
    # table holds the finite cells and the gaps between them, nothing more;
    # at p = 700 a deviation of 3 or more overflows to an infinite cell
    rng = np.random.default_rng(8)
    for trial in range(60):
        n = int(rng.integers(2, 61))
        targets = _random_targets(rng, n, int(rng.integers(2, min(8, n) + 1)))
        vals = _sweep_values(rng, FILL_KINDS[trial % 4], n)
        dp = build_table(vals, targets, p=[1.5, math.inf, 700.0][trial % 3])
        cube = dense_table(dp)
        assert np.count_nonzero(np.isfinite(dp.table)) == np.count_nonzero(np.isfinite(cube))
        for l in range(2, len(targets) + 1):
            for i in range(n + 1):
                start, end = dp.offsets[l, i], dp.offsets[l, i + 1]
                finite = np.flatnonzero(np.isfinite(cube[i, :, l]))
                if len(finite) == 0:
                    assert start == end
                else:
                    assert dp.first[l, i] == finite[0]
                    assert end - start == finite[-1] - finite[0] + 1


# the peak resident set of the child's own address space: ru_maxrss would
# also count the pytest process the child was spawned from, as Linux keeps
# the larger of the two across exec
_RSS_PROBE = """
import numpy as np
from ipstable.dp_target import solve_targets
values = np.random.default_rng(0).uniform(0.0, 100.0, size=3000)
solve_targets(values, [600] * 5)
with open("/proc/self/status") as fh:
    print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="/proc/self/status as on Linux")
def test_large_table_stays_within_its_band_memory():
    """A fresh interpreter solves 3000 values at k = 5. The full cube alone
    would be 432 MB; the bands and the two 18 MB threshold arrays keep the
    child's peak resident set below 160 MB."""
    src = str(Path(dp_target.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-c", _RSS_PROBE], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert int(done.stdout) * 1024 < 160e6          # VmHWM is in kB


def _draw_targets(data, n):
    """Target sizes for n points: a drawn positive composition of n."""
    k = data.draw(st.integers(1, n))
    cuts = sorted(data.draw(st.sets(st.integers(1, n - 1), min_size=k - 1, max_size=k - 1))
                  if k > 1 else [])
    return np.diff([0, *cuts, n])


@settings(max_examples=80, deadline=None)
@given(line_values(), st.data())
def test_output_audited_on_the_line_matches_naive(values, data):
    n = len(values)
    targets = _draw_targets(data, n)
    p = data.draw(st.sampled_from(NORM_ORDERS))
    c, obj = solve_targets(values, targets, p=p)
    rep = audit(DistanceOracle.from_points(values), c, targets=targets, p=p)
    m = _line_matrix(values)        # |x - y| exactly; cdist's euclidean underflows
    assert rep.num_unstable == 0 == naive_num_unstable(m, c.assignment)
    np.testing.assert_allclose(rep.vi, naive_vi(m, c.assignment), rtol=1e-9, atol=0)
    assert rep.obj == pytest.approx(obj)


@settings(max_examples=80, deadline=None)
@given(line_values(), st.data())
def test_objective_matches_exhaustive_optimum(values, data):
    """The objective is the best over every stable contiguous clustering,
    on tied, zero-spread, offset and multi-scale lines, at every norm order."""
    targets = _draw_targets(data, len(values))
    for p in NORM_ORDERS:
        _, obj = solve_targets(values, targets, p=p)
        best = contiguous_stable_optimum(values, targets, p)
        assert best is not None, (list(values), list(targets), p)
        assert obj == pytest.approx(best), (list(values), list(targets), p)


def _fill_order_fold(sizes, targets, p):
    """The deviations of sizes folded as build_table folds them: layer 1 with
    Python's **, each later layer by + or max with a numpy penalty row."""
    all_j = np.arange(sum(sizes) + 1, dtype=float)
    dev = abs(sizes[0] - float(targets[0]))
    acc = dev if p == math.inf else dev**p
    for size, t in zip(sizes[1:], targets[1:]):
        pen = np.abs(all_j - float(t)) if p == math.inf else np.abs(all_j - float(t)) ** p
        acc = np.maximum(pen[size], acc) if p == math.inf else pen[size] + acc
    return acc


# a p = 1.5 near-tie: sizes (1, 1, 2, 2, 3, 6) and (1, 3, 2, 1, 2, 6) have the
# same deviations, but their p-th powers fold in the fill's order to floats
# a last bit apart, and only the first is the table's optimum
NEAR_TIE = ([0.2, 0.6, 0.3, 0.1, -0.5, -0.3, -1.0, -0.1, 0.8, 0.7, 0.8, 0.0, 1.5, -0.4, 0.8],
            [3, 1, 3, 1, 1, 6])


@pytest.mark.parametrize("p", NORM_ORDERS)
def test_returned_sizes_fold_to_the_optimum_exactly(p):
    rng = np.random.default_rng(5)
    cases = [NEAR_TIE]
    for trial in range(60):
        n = int(rng.integers(1, 40))
        targets = _random_targets(rng, n, int(rng.integers(1, min(8, n) + 1)))
        cases.append((_sweep_values(rng, ["random", "tied", "duplicates"][trial % 3], n), targets))
    for vals, targets in cases:
        dp = build_table(vals, targets, p=p)
        clustering, obj = reconstruct(dp)
        labels = clustering.assignment[dp.instance.sort_permutation]
        assert np.all(np.diff(labels) >= 0)                 # contiguous, left to right
        sizes = clustering.sizes().tolist()
        vstar = dense_table(dp)[len(vals), 1:, len(targets)].min()
        assert _fill_order_fold(sizes, targets, p) == vstar, (list(vals), targets, sizes)
        assert obj == (vstar if p == math.inf else vstar ** (1.0 / p))


def test_ties_do_not_hide_a_stable_contiguous_clustering():
    # {0.3, 0.3}, {0.3}, {1.6} is stable and meets the targets exactly; the
    # zero distance between tied values must read as exactly 0, not as the
    # tiny negative average that prefix sums of 0.3 leave
    values = [0.3, 0.3, 0.3, 1.6]
    assert contiguous_stable_optimum(values, [2, 1, 1], math.inf) == 0.0
    assert solve_targets(values, [2, 1, 1])[1] == 0.0


# a far value next to gaps of 1e-300 and 1e-53: float prefix sums on the far
# value's scale cannot tell the small gaps apart
MULTI_SCALE_CASES = [
    ([-3.570995443793253, -1e-300, 0, 0, 1e-300, 1e-300, 1e-53, 1e-53, 2e-53, 2e-53, 3e-53, 3e-53],
     [8, 2, 1, 1], 7.0),
    ([-205799.6932601067, -1e-300, -1e-300, -1e-300, 0, 1e-300, 1e-53, 1e-53, 2e-53, 2e-53, 2e-53, 3e-53],
     [2, 8, 2], 2.0),
]


@pytest.mark.parametrize("values, targets, objective", MULTI_SCALE_CASES)
def test_small_gaps_next_to_a_far_value_stay_stable(values, targets, objective):
    c, obj = solve_targets(values, targets)
    rep = audit(DistanceOracle.from_points(values), c, targets=targets)
    assert rep.num_unstable == 0 == naive_num_unstable(_line_matrix(values), c.assignment)
    assert obj == objective == rep.obj
