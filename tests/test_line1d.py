from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipstable.core import Clustering, DistanceOracle, STABILITY_TOL, audit, brute_force
from ipstable.dp_target import solve_targets
from ipstable.hardgen import fixtures
from ipstable.line1d import LineInstance, solve_1d, sweep

from conftest import line_values, naive_num_unstable, naive_vi


def _line_matrix(values):
    v = np.asarray(values, dtype=float)
    return np.abs(v[:, None] - v[None, :])


def _clusters_as_value_sets(values, clustering):
    return sorted(
        (sorted(values[i] for i in block) for block in clustering.clusters()),
        key=lambda b: b[0],
    )


def test_instance_sorts_and_remembers_input_order():
    inst = LineInstance.from_values([3.0, 1.0, 2.0])
    assert list(inst.values) == [1.0, 2.0, 3.0]
    c = solve_1d([3.0, 1.0, 2.0], 2)
    # labels are for the original order
    assert c.assignment[1] == c.assignment[2] or c.assignment[0] == c.assignment[2]


def _multi_scale(rng, n):
    """A tight group at gaps of 1e-12 next to points spread over [-1, 1]."""
    tight = 1e-12 * rng.integers(0, 6, size=n - n // 3).astype(float)
    return np.concatenate([rng.uniform(-1.0, 1.0, size=n // 3), tight])


MODEL_VALUES = {
    "random": lambda rng, n: rng.normal(size=n) * 10.0,
    "tied": lambda rng, n: np.round(rng.normal(size=n), 1),
    "duplicates": lambda rng, n: rng.integers(0, 4, size=n).astype(float),
    "offset-1e12": lambda rng, n: 1e12 + rng.uniform(0.0, 100.0, size=n).round(2),
    "multi-scale": _multi_scale,
    # a subnormal step puts the common scale past 2**1000
    "extreme-scale": lambda rng, n: rng.choice([0.0, 5e-324, 1e-300, 1.0, -1e300], size=n),
}


@pytest.mark.parametrize("kind", sorted(MODEL_VALUES))
def test_model_sums_exact_scalar_and_close_array(kind):
    """The scalar sums are the exact sums rounded once; the array sums stay
    within 1e-12 of them on every kind, multi- and extreme-scale included,
    exactly 0 across ties and equal for one point."""
    rng = np.random.default_rng(sorted(MODEL_VALUES).index(kind))
    for n in (1, 2, 7, 30):
        line = LineInstance.from_values(MODEL_VALUES[kind](rng, n))
        x = [Fraction(y) for y in line.values.tolist()]
        for a in range(n):
            for side, c_max, dists, dist in (
                (-1, a, line.dists_left, line.dist_left),
                (1, n - 1 - a, line.dists_right, line.dist_right),
            ):
                arr = dists(a, c_max)
                for c in range(c_max + 1):
                    want = float(sum(abs(x[a] - x[a + side * t]) for t in range(1, c + 1)))
                    got = dist(a, c)
                    assert got == want, (a, side, c)
                    if c <= 1:
                        assert arr[c] == got, (a, side, c)
                    assert arr[c] == pytest.approx(want, rel=1e-12, abs=0), (a, side, c)


def test_instance_is_read_only():
    inst = LineInstance([1.0, 3.0], [1, 0])
    assert inst.values.dtype == float and inst.n == 2
    with pytest.raises(ValueError):
        inst.values[0] = 2.0
    with pytest.raises(AttributeError):
        inst.values = np.array([0.0, 1.0])


def test_tight_group_next_to_far_points_is_stable():
    # prefix sums on the scale of the outlier at -1 cannot tell the gaps of
    # 1e-53 apart; the exact sums can
    vals = [-1.0, 0.0, 1e-53, 3e-53, 3e-53, 4e-53]
    assert naive_num_unstable(_line_matrix(vals), solve_1d(vals, 3).assignment) == 0
    rng = np.random.default_rng(12)
    for _ in range(60):
        n = int(rng.integers(4, 12))
        vals = rng.permutation(_multi_scale(rng, n))
        k = int(rng.integers(2, min(5, n) + 1))
        c = solve_1d(vals, k)
        assert naive_num_unstable(_line_matrix(vals), c.assignment) == 0, (list(vals), k)


def test_two_stable_fixture_solved_and_both_splits_stable():
    vals = fixtures()["fig2-two-stable"]["values"]
    m = _line_matrix(vals)
    c = solve_1d(vals, 2)
    assert naive_num_unstable(m, c.assignment) == 0
    # the instance admits at least two stable contiguous 2-clusterings
    stable_splits = []
    for cut in range(1, len(vals)):
        labels = [0] * cut + [1] * (len(vals) - cut)
        if naive_num_unstable(m, labels) == 0:
            stable_splits.append(cut)
    assert len(stable_splits) >= 2


def test_unique_fixture_recovered():
    vals = fixtures()["line-unique"]["values"]
    c = solve_1d(vals, 2)
    assert _clusters_as_value_sets(vals, c) == [[0.0, 1.0], [7.0, 8.0]]


def test_clusters_are_contiguous_in_sorted_order():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(4, 60))
        k = int(rng.integers(2, min(8, n) + 1))
        vals = rng.normal(size=n) * 10
        c = solve_1d(vals, k)
        order = np.argsort(vals, kind="stable")
        seq = c.assignment[order]
        # once a label stops it never reappears
        seen_done = set()
        prev = seq[0]
        for lab in seq[1:]:
            if lab != prev:
                seen_done.add(prev)
                assert lab not in seen_done
                prev = lab


def test_random_instances_stable_and_move_bound():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(3, 120))
        k = int(rng.integers(1, min(12, n) + 1))
        vals = rng.normal(size=n) * rng.uniform(0.5, 20)
        state = sweep(LineInstance.from_values(vals), k)
        assert state.moves <= k * n
        c = state.to_clustering()
        assert c.k == k
        rep = audit(DistanceOracle.from_points(vals.reshape(-1, 1)), c)
        assert rep.num_unstable == 0


def test_duplicates_heavy_instances():
    rng = np.random.default_rng(5)
    for _ in range(15):
        n = int(rng.integers(5, 40))
        vals = rng.integers(0, 4, size=n).astype(float)  # few distinct values
        k = int(rng.integers(2, min(6, n) + 1))
        c = solve_1d(vals, k)
        assert naive_num_unstable(_line_matrix(vals), c.assignment) == 0


def test_edge_cases():
    assert solve_1d([5.0], 1).k == 1
    c = solve_1d([3.0, 1.0, 2.0], 3)
    assert c.k == 3 and sorted(c.sizes()) == [1, 1, 1]
    assert solve_1d([1.0, 2.0, 9.0], 1).k == 1
    with pytest.raises(ValueError):
        solve_1d([1.0, 2.0], 3)
    with pytest.raises(ValueError):
        solve_1d([1.0, 2.0], 0)


def test_line_input_is_one_dimension_or_one_column():
    # two points in the plane, not the four values 0, 1, 7, 8 on a line
    square = np.array([[0.0, 1.0], [7.0, 8.0]])
    with pytest.raises(ValueError, match="1-D array or one column"):
        solve_1d(square, 2)
    with pytest.raises(ValueError, match="1-D array or one column"):
        solve_targets(square, [2, 2])
    values = np.array([8.0, 0.0, 7.0, 1.0, 7.5])
    for shaped in (values, values.reshape(-1, 1)):
        assert solve_1d(shaped, 2).assignment.tolist() == [1, 0, 1, 0, 1]
        assert solve_targets(shaped, [2, 3])[0].assignment.tolist() == [1, 0, 1, 0, 1]


def test_values_whose_sums_overflow_are_rejected():
    big = np.tile([1e307, -1e307], 65)   # each value finite, their prefix sums not
    with pytest.raises(ValueError, match="overflow"):
        LineInstance.from_values(big)
    with pytest.raises(ValueError, match="overflow"):
        solve_1d(big, 2)
    with pytest.raises(ValueError, match="overflow"):
        solve_targets(big, [65, 65], p=1)
    # n max|x| is finite here, but 129 distances of 2e306 from the last point
    # sum past the float range: the bound is n (max - min)
    lopsided = np.array([-1e306] * 129 + [1e306])
    with pytest.raises(ValueError, match="overflow"):
        solve_targets(lopsided, [65, 65], p=1)
    ok = np.tile([4e305, -4e305], 65)
    assert solve_1d(ok, 2).k == 2
    assert solve_targets(ok, [65, 65], p=1)[0].k == 2


def test_large_values_with_a_small_spread_are_solved():
    """The sums are over values shifted by the minimum, so only the spread
    bounds them: 2 n max|x| overflows here, n (max - min) does not."""
    values = 1e307 + np.arange(100) * 1e292
    oracle = DistanceOracle.from_points(values)
    assert audit(oracle, solve_1d(values, 2)).num_unstable == 0
    for p in (np.inf, 2):
        clustering = solve_targets(values, [50, 50], p=p)[0]
        assert audit(oracle, clustering).num_unstable == 0


def test_input_order_irrelevant_to_cluster_contents():
    rng = np.random.default_rng(9)
    vals = rng.normal(size=30)
    k = 4
    base = solve_1d(vals, k)
    perm = rng.permutation(30)
    shuffled = solve_1d(vals[perm], k)
    a = sorted(sorted(float(vals[i]) for i in block) for block in base.clusters())
    b = sorted(sorted(float(vals[perm][i]) for i in block) for block in shuffled.clusters())
    assert a == b


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=2,
        max_size=18,
    ),
    st.integers(min_value=1, max_value=6),
)
def test_stability_property(values, k):
    if k > len(values):
        k = len(values)
    c = solve_1d(values, k)
    assert naive_num_unstable(_line_matrix(values), c.assignment) == 0


@settings(max_examples=80, deadline=None)
@given(line_values(), st.data())
def test_output_audited_on_the_line_matches_naive(values, data):
    k = data.draw(st.integers(1, len(values)))
    c = solve_1d(values, k)
    rep = audit(DistanceOracle.from_points(values), c)
    m = _line_matrix(values)        # |x - y| exactly; cdist's euclidean underflows
    assert rep.num_unstable == 0 == naive_num_unstable(m, c.assignment)
    np.testing.assert_allclose(rep.vi, naive_vi(m, c.assignment), rtol=1e-9, atol=0)


@settings(max_examples=60, deadline=None)
@given(line_values(), st.data())
def test_sweep_and_brute_force_agree_on_tied_values(values, data):
    """A stable k-clustering of points on a line exists for every k: the
    sweep returns one, and the search over all set partitions finds one."""
    k = data.draw(st.integers(1, len(values)))
    o = DistanceOracle.from_points(values)
    found, found_vi = brute_force(o, k)
    assert found is not None and found_vi <= 1.0 + STABILITY_TOL
    assert audit(o, solve_1d(values, k)).num_unstable == 0
