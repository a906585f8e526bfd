"""One stability tolerance and one count rule for every solver.

Stability is `own <= foreign * (1 + STABILITY_TOL)` everywhere, with no
per-call slack; "at least frac * n points" is `core.min_count`, which reads a
float product just above a whole number as that number.
"""

import ast
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from ipstable import cli
from ipstable.core import (
    STABILITY_TOL,
    Clustering,
    DistanceOracle,
    audit,
    brute_force,
    is_t_stable,
    min_count,
)
from ipstable.dp_target import DpTable, solve_targets
from ipstable.hst import cluster_via_embedding
from ipstable.line1d import LineInstance, solve_1d
from ipstable.separated import (
    check_alpha_gamma,
    exact_enumerate,
    linkage_conditioned,
    linkage_size_guard,
    pipeline,
)
from ipstable.tree import WeightedTree, solve_tree2

from conftest import (
    clusters,
    full_scan_conditioned,
    full_scan_size_guard,
    naive_alpha_gamma,
    random_points,
    sizes_ok,
)

SRC = Path(__file__).resolve().parents[1] / "src" / "ipstable"

LEFT_PAIR = [0, 0, 1]       # {0, 1} | {2}
RIGHT_PAIR = [0, 1, 1]      # {0} | {1, 2}


def _margin_values(f):
    """[0, 1, 1 + g]: under {0,1}|{2}, point 1's violation is 1 + f * STABILITY_TOL."""
    g = 1.0 / (1.0 + f * STABILITY_TOL)
    return [0.0, 1.0, 1.0 + g], g


def _labels(clustering):
    return Clustering.from_labels(clustering.assignment).assignment.tolist()


@pytest.mark.parametrize("f, stable", [(0.5, True), (2.0, False)])
def test_every_solver_and_the_audit_share_one_tolerance(f, stable):
    x, g = _margin_values(f)
    o = DistanceOracle.from_points(x)
    c = Clustering(LEFT_PAIR, 2)
    assert audit(o, c).vi[1] == pytest.approx(1.0 + f * STABILITY_TOL, rel=1e-12)
    assert (audit(o, c).num_unstable == 0) is stable
    assert is_t_stable(o, c, 1.0) is stable
    expected = LEFT_PAIR if stable else RIGHT_PAIR
    # the enumeration tries {0,1}|{2} first
    assert _labels(brute_force(o, 2)[0]) == expected
    assert _labels(solve_1d(x, 2)) == expected
    got, obj = solve_targets(x, [2, 1])
    assert _labels(got) == expected
    assert obj == (0.0 if stable else 1.0)
    # the same line as a path tree; rooted at 2, the boundary starts at (1, 2)
    tree = WeightedTree(3, [(0, 1, 1.0), (1, 2, g)], root=2)
    assert _labels(solve_tree2(tree)) == expected


# point 0's own average, 0.9046800715504857, is one ulp above the stable
# limit of its foreign average, 0.9046800706458055, although their ratio
# rounds to exactly 1 + STABILITY_TOL
ULP_PAST = [0.0, 0.9046800715504857, -0.9046800706458055]


def test_one_ulp_past_the_tolerance_is_unstable_everywhere(tmp_path, capsys):
    o = DistanceOracle.from_points(ULP_PAST)
    c = Clustering([0, 0, 1], 2)
    rep = audit(o, c)
    assert rep.vi[0] == rep.max_violation == 1.0 + STABILITY_TOL
    assert rep.num_unstable == 1 and rep.mean_violation == rep.vi[0]
    assert is_t_stable(o, c, 1.0) is False
    # the line solvers' check on the mirrored line, where point 0 is the
    # last of the left pair {1, 0} against {2}
    mirrored = LineInstance.from_values([-x for x in ULP_PAST])
    assert not mirrored.last_point_stable(2, 2, 1)
    inp, assign = tmp_path / "points.csv", tmp_path / "assignment.txt"
    inp.write_text("".join(f"{x!r}\n" for x in ULP_PAST))
    assign.write_text("0\n0\n1\n")
    assert cli.main(["audit", "--input", str(inp), "--assignment", str(assign)]) == 2
    assert '"num_unstable": 1' in capsys.readouterr().out


def test_min_count_is_the_smallest_whole_count():
    assert 0.28 * 25 > 7 and 0.14 * 50 > 7       # the float products overshoot
    assert min_count(0.28, 25) == 7
    assert min_count(0.14, 50) == 7
    assert min_count(0.2, 1000) == 200
    assert min_count(0.0, 10) == 0
    assert min_count(1.0, 10) == 10
    assert min_count(0.3, 10) == 3
    assert min_count(0.31, 10) == 4
    assert min_count(1 / 3, 10) == 4
    # a fraction truly above a whole count still rounds up
    assert min_count(0.2 + 1e-9, 1000) == 201


def _three_groups():
    """25 line points in far-apart groups of 7, 7 and 11."""
    x = np.concatenate([np.arange(7) * 0.1, 100 + np.arange(7) * 0.1, 200 + np.arange(11) * 0.1])
    return DistanceOracle.from_points(x), np.repeat([0, 1, 2], [7, 7, 11]).tolist()


@pytest.mark.parametrize("alpha", [0.27, 0.28])
def test_separated_solvers_count_seven_of_25_at_alpha_028(alpha):
    o, truth = _three_groups()
    assert check_alpha_gamma(o, Clustering(truth, 3), alpha, 4.0)
    assert _labels(exact_enumerate(o, 3, alpha)) == truth
    assert _labels(pipeline(o, 3, alpha, 4.0).clustering) == truth
    # both linkages stop at the three groups, as their per-edge references do
    part = linkage_size_guard(o, alpha)
    log, want, _ = full_scan_size_guard(o.matrix(), alpha)
    assert part.merge_log == log and clusters(part.label) == want
    assert part.ell == 3 and sizes_ok(part)
    part = linkage_conditioned(o, alpha, 4.0)
    log, want = full_scan_conditioned(o.matrix(), alpha, 4.0)
    assert part.merge_log == log and clusters(part.label) == want
    assert part.ell == 3 and sizes_ok(part)


def test_check_alpha_gamma_counts_whole_points():
    o, truth = _three_groups()
    c = Clustering(truth, 3)
    assert check_alpha_gamma(o, c, 7 / 25, 4.0)
    # 7.0000000005 points need 8: the stability slack is no absolute count
    assert not check_alpha_gamma(o, c, (7 + 5e-10) / 25, 4.0)
    # the loop reference counts the same way
    m = o.matrix()
    assert naive_alpha_gamma(m, truth, 7 / 25, 4.0)
    assert not naive_alpha_gamma(m, truth, (7 + 5e-10) / 25, 4.0)


def test_embedding_drops_ceil_epsilon_n_points():
    rng = np.random.default_rng(0)
    o = DistanceOracle.from_points(random_points(rng, 50, 2))
    res = cluster_via_embedding(o, 3, epsilon=0.14)
    assert len(res.excluded) == 7
    assert sorted(res.retained + res.excluded) == list(range(50))


def test_no_function_takes_a_tol_parameter():
    """Stability has one slack, STABILITY_TOL; no call can pass its own, and
    no code matches floats within an isclose tolerance."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.arguments):
                args = node.posonlyargs + node.args + node.kwonlyargs + [node.vararg, node.kwarg]
                found += [f"{path.name}: {a.arg}" for a in args if a is not None and a.arg == "tol"]
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
                if name == "isclose":
                    found.append(f"{path.name}:{node.lineno}: isclose")
    assert not found, found
    assert "tol" not in {f.name for f in fields(DpTable)}
