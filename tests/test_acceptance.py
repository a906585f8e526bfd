"""Acceptance gate: one test per numbered delivery criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one summary line per
criterion. Every assertion states its tolerance inline; timing bounds use
wall-clock time on the current machine.
"""

import json
import math
import statistics
import time
from pathlib import Path

import numpy as np
import pytest

from ipstable import cli
from ipstable.baselines import kcenter_greedy, kmeans_pp
from ipstable.core import Clustering, DistanceOracle, audit, brute_force
from ipstable.dp_target import solve_targets
from ipstable.hardgen import (
    fixtures,
    gen_kcenter_hard,
    gen_kmeanspp_hard,
    gen_single_linkage_hard,
)
from ipstable.hst import cluster_via_embedding, embed_hst, hst_k_clustering, normalize_leaves
from ipstable.line1d import LineInstance, sweep
from ipstable.separated import check_alpha_gamma, exact_enumerate, pipeline
from ipstable.tree import solve_tree2

from conftest import (
    all_label_partitions,
    contiguous_stable_optimum,
    naive_num_unstable,
    naive_vi,
    planted,
    random_graph_metric,
    random_hst,
    random_points,
    random_tree,
)

TOL = 1e-9


def _ok(num, detail):
    print(f"[criterion {num:2d}] PASS - {detail}")


# ---------------------------------------------------------------------------
# 1 + 2: brute-force fixtures


def test_criterion_01_no_stable_2_clustering_fixture():
    m = fixtures()["fig1-no-stable"]["matrix"]
    oracle = DistanceOracle.from_matrix(m)
    brute_force(oracle, 2)  # warm-up outside the timed region
    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        found, maxvi = brute_force(oracle, 2)
        best = min(best, time.perf_counter() - t0)
    assert found is None and maxvi is None
    assert best < 1e-3, f"brute force took {best * 1e3:.3f} ms, bound is 1 ms"
    _ok(1, f"4-point fixture has no stable 2-clustering; search took {best * 1e6:.0f} us")


def test_criterion_02_unique_stable_2_clustering_on_0_1_7_8():
    vals = np.array([0.0, 1.0, 7.0, 8.0]).reshape(-1, 1)
    oracle = DistanceOracle.from_points(vals)
    found, maxvi = brute_force(oracle, 2)
    got = {frozenset(int(i) for i in b) for b in found.clusters()}
    assert got == {frozenset({0, 1}), frozenset({2, 3})}
    assert maxvi <= 1.0 + TOL
    # independent sweep over all 7 bipartitions
    m = oracle.matrix()
    stable = [
        labels
        for labels in all_label_partitions(4, 2)
        if naive_num_unstable(m, labels) == 0
    ]
    assert len(stable) == 1
    assert stable[0] == [0, 0, 1, 1]
    _ok(2, "{0,1}|{7,8} is the unique stable 2-clustering among all 7 bipartitions")


# ---------------------------------------------------------------------------
# 3 + 4: line solver, 200 random runs shared between both checks


@pytest.fixture(scope="module")
def line_runs():
    rng = np.random.default_rng(1234)
    runs = []
    t0 = time.perf_counter()
    for trial in range(200):
        n = int(rng.integers(10, 1001))
        k = int(rng.integers(2, min(50, n) + 1))
        kind = trial % 3
        if kind == 0:
            vals = np.sort(rng.normal(size=n) * 100.0)
        elif kind == 1:
            vals = np.sort(rng.integers(0, max(3, n // 4), size=n).astype(float))
        else:
            vals = np.sort(rng.uniform(-50.0, 50.0, size=n))
        inst = LineInstance.from_values(vals)
        state = sweep(inst, k)
        clustering = state.to_clustering()
        oracle = DistanceOracle.from_points(np.asarray(inst.values).reshape(-1, 1))
        report = audit(oracle, clustering)
        runs.append((n, k, state.moves, report))
    return runs, time.perf_counter() - t0


def test_criterion_03_line_solver_always_stable(line_runs):
    runs, elapsed = line_runs
    assert len(runs) == 200
    bad = [(n, k) for n, k, _, rep in runs if rep.num_unstable != 0]
    assert not bad, f"unstable outputs on {bad}"
    assert elapsed < 5.0, f"200 runs took {elapsed:.2f} s, bound is 5 s"
    _ok(3, f"200/200 random line instances stable under audit in {elapsed:.2f} s")


def test_criterion_04_line_solver_move_budget(line_runs):
    runs, _ = line_runs
    worst = max(moves / (k * n) for n, k, moves, _ in runs)
    assert all(moves <= k * n for n, k, moves, _ in runs)
    _ok(4, f"separator moves <= k*n on every run (worst ratio {worst:.3f})")


# ---------------------------------------------------------------------------
# 5 + 6: target-size DP


def test_criterion_05_dp_matches_exhaustive_optimum():
    rng = np.random.default_rng(77)
    t0 = time.perf_counter()
    checked = 0
    for _ in range(50):
        n = int(rng.integers(4, 13))
        k = int(rng.integers(2, min(4, n) + 1))
        vals = rng.normal(size=n) * 10.0
        cuts = np.sort(rng.choice(np.arange(1, n), size=k - 1, replace=False))
        targets = np.diff(np.concatenate([[0], cuts, [n]])).tolist()
        p = math.inf if rng.random() < 0.5 else 1
        clustering, obj = solve_targets(vals, targets, p=p)
        want = contiguous_stable_optimum(vals, targets, p)
        assert want is not None
        assert obj == pytest.approx(want, abs=1e-9), (vals, targets, p)
        rep = audit(
            DistanceOracle.from_points(np.asarray(vals).reshape(-1, 1)),
            clustering,
            targets=targets,
            p=p,
        )
        assert rep.num_unstable == 0
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"50 instances took {elapsed:.2f} s, bound is 10 s"
    _ok(5, f"DP objective equals exhaustive optimum on {checked}/50 instances ({elapsed:.2f} s)")


def _credit_amounts():
    path = Path(__file__).resolve().parent.parent / "data" / "german.data"
    if not path.exists():
        return None
    rows = [line.split() for line in path.read_text().strip().splitlines() if line.strip()]
    if len(rows) != 1000:
        return None
    vals = np.array([float(r[4]) for r in rows])
    return (vals - vals.min()) / (vals.max() - vals.min())


def test_criterion_06_dp_reference_row():
    vals = _credit_amounts()
    targets = [200] * 5
    if vals is not None:
        clustering, obj = solve_targets(vals, targets, p=math.inf)
        rep = audit(
            DistanceOracle.from_points(vals.reshape(-1, 1)),
            clustering,
            targets=targets,
            p=math.inf,
        )
        assert rep.num_unstable == 0
        assert obj == pytest.approx(172, abs=1e-9)
        assert rep.max_violation == pytest.approx(1.0, abs=5e-3)
        _ok(6, f"credit-amount run: #Uns=0, MaxVi={rep.max_violation:.3f}, Obj={obj:.0f}")
        return
    # dataset absent: the stability half must hold for any preprocessing
    rng = np.random.default_rng(6)
    raw = rng.lognormal(mean=7.8, sigma=1.0, size=1000)
    norm = (raw - raw.min()) / (raw.max() - raw.min())
    clustering, obj = solve_targets(norm, targets, p=math.inf)
    rep = audit(
        DistanceOracle.from_points(norm.reshape(-1, 1)),
        clustering,
        targets=targets,
        p=math.inf,
    )
    assert rep.num_unstable == 0
    assert rep.max_violation <= 1.0 + TOL
    _ok(
        6,
        "DOWNGRADED (data/german.data absent): synthetic 1000-value run "
        f"has #Uns=0, MaxVi={rep.max_violation:.3f}, Obj={obj:.0f}",
    )


# ---------------------------------------------------------------------------
# 7: tree solver


def test_criterion_07_tree_solver_exact_and_confirmed_small():
    rng = np.random.default_rng(55)
    t0 = time.perf_counter()
    exhaustive_checked = 0
    for trial in range(200):
        n = int(rng.integers(2, 13)) if trial < 80 else int(rng.integers(13, 201))
        tree = random_tree(rng, n)
        clustering = solve_tree2(tree)
        oracle = tree.to_oracle()
        rep = audit(oracle, clustering)
        assert rep.num_unstable == 0, f"unstable tree output at n={n}"
        if n <= 12:
            m = oracle.matrix()
            stable_cuts = []
            for u, v, _ in tree.edges:
                side = set(tree.component(v, u))
                labels = [0 if x in side else 1 for x in range(n)]
                if naive_num_unstable(m, labels) == 0:
                    stable_cuts.append(frozenset(side))
            assert stable_cuts, "no stable edge cut exists, contradicting the solver"
            got = {frozenset(int(i) for i in b) for b in clustering.clusters()}
            assert any(side in got or (frozenset(range(n)) - side) in got
                       for side in stable_cuts)
            exhaustive_checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"tree suite took {elapsed:.2f} s, bound is 10 s"
    _ok(7, f"200/200 trees stable; {exhaustive_checked} small trees confirmed exhaustively ({elapsed:.2f} s)")


# ---------------------------------------------------------------------------
# 8 + 9: HST clustering and metric embedding


def test_criterion_08_hst_clustering_stable_with_triple_inequality():
    rng = np.random.default_rng(88)
    count = 0
    while count < 100:
        hst = normalize_leaves(random_hst(rng))
        pts = hst.points()
        if len(pts) < 2:
            continue
        k = int(rng.integers(1, len(pts) + 1))
        clustering = hst_k_clustering(hst, k)
        pdm = hst.point_distance_matrix()
        vi = naive_vi(pdm, clustering.assignment)
        assert max(vi) <= 1.0 + TOL, "unstable under the tree metric"
        labels = np.asarray(clustering.assignment)
        for u in range(len(pts)):
            same = np.flatnonzero((labels == labels[u]) & (np.arange(len(pts)) != u))
            cross = np.flatnonzero(labels != labels[u])
            if len(same) and len(cross):
                assert pdm[u, same].max() <= pdm[u, cross].min() + TOL
        count += 1
    _ok(8, "100/100 random 2-HSTs: stable under d_T and within <= cross on all triples")


def test_criterion_09_embedding_dominance_and_certificate():
    rng = np.random.default_rng(99)
    worst_ratio = 0.0
    for seed in range(50):
        if seed % 2 == 0:
            oracle = DistanceOracle.from_points(random_points(rng, 50, 3))
        else:
            oracle = DistanceOracle.from_matrix(random_graph_metric(rng, 50))
        hst = embed_hst(oracle, seed=seed)
        pdm = hst.point_distance_matrix()
        assert (pdm + TOL >= oracle.matrix()).all(), "tree metric fails to dominate"
        k = int(rng.integers(2, 9))
        eps = 0.0 if seed % 3 else 0.1
        res = cluster_via_embedding(oracle, k, epsilon=eps, seed=seed)
        assert res.report.max_violation <= res.stretch + TOL
        if res.stretch > 0:
            worst_ratio = max(worst_ratio, res.report.max_violation / res.stretch)
    _ok(
        9,
        "50/50 embeddings dominate the base metric; audited MaxVi <= stretch "
        f"certificate every run (worst MaxVi/stretch = {worst_ratio:.3f}). Note: the "
        "theoretical distortion constant is an expectation bound and is not "
        "checked at this scale.",
    )


# ---------------------------------------------------------------------------
# 10: well-separated instances


def _planted_oracle(seed):
    feats, labels = planted(200, 4, 4.0, seed=seed)
    return DistanceOracle.from_points(feats), Clustering(labels, 4)


def test_criterion_10_separated_recovery_and_inequality_suites():
    oracle, truth = _planted_oracle(0)
    assert check_alpha_gamma(oracle, truth, 0.25, 4.0), "instance premise failed"

    found = exact_enumerate(oracle, 4, 0.25)
    rep = audit(oracle, found)
    assert rep.max_violation <= 1.0 + 1e-9

    medians = []
    for seed in range(20):
        res = pipeline(oracle, 4, 0.25, 4.0, seed=seed)
        medians.append(res.report.max_violation)
    med = statistics.median(medians)
    assert med <= 3.0, f"pipeline median MaxVi {med:.3f} exceeds the reported bound 3"

    # inequality suites, exhaustive on three planted instances
    gamma = 4.0
    lo_c = (gamma - 1.0) / gamma
    hi_c = (gamma * gamma + 1.0) / (gamma * (gamma - 1.0))
    same_c = 2.0 / (gamma - 1.0)
    for seed in (0, 1, 2):
        o, t = _planted_oracle(seed)
        assert check_alpha_gamma(o, t, 0.25, gamma)
        m = o.matrix()
        members = [np.asarray(b) for b in t.clusters()]
        for i in range(4):
            ci = members[i]
            within = m[np.ix_(ci, ci)]
            for j in range(4):
                if i == j:
                    continue
                cj = members[j]
                cross = m[np.ix_(ci, cj)]               # d(x, y), x in Ci rows
                dbar_y_ci = m[np.ix_(cj, ci)].mean(axis=1)  # y's average into Ci
                assert (cross >= lo_c * dbar_y_ci[None, :] * (1 - 1e-9)).all()
                assert (cross <= hi_c * dbar_y_ci[None, :] * (1 + 1e-9)).all()
                dbar_x_cj = m[np.ix_(ci, cj)].mean(axis=1)  # x's average into Cj
                assert (
                    within.max(axis=1) <= same_c * dbar_x_cj * (1 + 1e-9)
                ).all()
                # within <= incident cross, for gamma >= 2+sqrt(3)
                assert (
                    within.max(axis=1) <= cross.min(axis=1) + TOL
                ).all()
    _ok(
        10,
        f"exact enumeration MaxVi={rep.max_violation:.3f} <= 1; pipeline median "
        f"MaxVi={med:.3f} <= 3 over 20 seeds; separation inequality suites pass "
        "exhaustively on 3 instances",
    )


# ---------------------------------------------------------------------------
# 11: hard instances


def test_criterion_11_hard_instance_violations():
    vals, meta = gen_single_linkage_hard(21, 0.5)
    o = DistanceOracle.from_points(vals.reshape(-1, 1))
    vi_v2 = audit(o, Clustering(np.asarray(meta["clustering"]), 2)).vi[meta["v2"]]
    assert vi_v2 == pytest.approx(5.0, abs=1e-6)

    pts, meta = gen_kcenter_hard(16, 1.0 / 32.0)
    o = DistanceOracle.from_points(pts)
    greedy = kcenter_greedy(o, 2, first=meta["c1"])
    rep = audit(o, greedy)
    assert rep.max_violation >= 2.0 - TOL

    pts, meta = gen_kmeanspp_hard(3.0, n_blocks=4)
    o = DistanceOracle.from_points(pts)
    rep3 = audit(o, Clustering(np.asarray(meta["clustering"]), meta["k"]))
    assert rep3.max_violation == pytest.approx(3.0, abs=1e-9)

    # scaled-down seeding sweep: reported, not asserted (the probabilistic
    # guarantee's constants only bite at far larger instance sizes)
    alpha = 2.0
    pts, meta = gen_kmeanspp_hard(alpha, n_blocks=48)
    o = DistanceOracle.from_points(pts)
    hits = 0
    for seed in range(500):
        c = kmeans_pp(pts, meta["k_alpha"], seed=seed)
        if audit(o, c).max_violation >= alpha - TOL:
            hits += 1
    _ok(
        11,
        f"single-linkage Vi(v2)=5.0, k-center MaxVi={rep.max_violation:.2f}>=2, "
        f"k-means++ blocks MaxVi=3.0 exactly; seeding sweep: {hits}/500 runs "
        f"reached MaxVi >= {alpha} (reported, not asserted)",
    )


# ---------------------------------------------------------------------------
# 12: benchmark ordering at paper scale


def test_criterion_12_bench_ordering_at_k100(tmp_path):
    rng = np.random.default_rng(0)
    centers = rng.normal(size=(10, 6)) * 4.0
    rows = np.concatenate([c + rng.normal(size=(100, 6)) for c in centers])
    feats = rows[rng.permutation(1000)]
    inp = tmp_path / "standin.csv"
    with open(inp, "w") as fh:
        for row in feats:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    out = tmp_path / "bench.csv"
    rc = cli.main(
        ["bench", "--input", str(inp), "--standardize",
         "--algo", "kmeans++,kcenter,random", "--k", "100",
         "--repeat", "5", "--seed", "0", "--out", str(out)]
    )
    assert rc == 0
    header, *rows_ = out.read_text().strip().split("\n")
    cols = header.split(",")
    table = {}
    for line in rows_:
        vals = dict(zip(cols, line.split(",")))
        table[vals["algorithm"]] = vals
    kpp, kc, rnd = table["kmeans++"], table["kcenter"], table["random"]
    assert float(kpp["num_unstable"]) < float(kc["num_unstable"])
    assert float(kpp["max_violation"]) < float(kc["max_violation"])
    assert float(rnd["mean_violation"]) > float(kpp["mean_violation"])
    _ok(
        12,
        "k=100 ordering on a synthetic 1000-point stand-in: "
        f"#Uns kmeans++ {float(kpp['num_unstable']):.0f} < kcenter {float(kc['num_unstable']):.0f}; "
        f"MaxVi {float(kpp['max_violation']):.2f} < {float(kc['max_violation']):.2f}; "
        f"MeanVi random {float(rnd['mean_violation']):.2f} > kmeans++ {float(kpp['mean_violation']):.2f}",
    )
