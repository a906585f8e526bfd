"""Seeded inputs and job lists for the benchmark workloads.

A job is one in-process call of the `ipstable` command line entry point on
files this module wrote. Jobs come in four groups (line-exact, tree-exact,
general-approx, baseline-audit); a workload runs two groups, chosen so that
each ROADMAP hot spot is exercised by one workload and bypassed by the
other:

  line-audit  line-exact + baseline-audit: line1d, dp_target, baselines and
              the audit kernel as an inner loop
  tree-hst    tree-exact + general-approx: tree walks and tree distances,
              hst and separated

Every input is derived from the group name and the input variant (seed mod
N_VARIANTS), so the same seed always yields the same files; the variant
count is bounded so that every seed has recorded reference digests (see
reference.json). The geometry of each instance family (mixture components,
blob and planted centers) is fixed; the variant draws the points, weights
and orderings, so that work per pass varies little from seed to seed.

Besides its argv, each job carries a `check` dict that checks.py evaluates
after the job has run, independently of ipstable, and the list of output
files whose digest must match the reference.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

N_VARIANTS = 32
GROUPS = ("line-exact", "tree-exact", "general-approx", "baseline-audit")
WORKLOADS = {
    "line-audit": ("line-exact", "baseline-audit"),
    "tree-hst": ("tree-exact", "general-approx"),
}


@dataclass
class Job:
    name: str
    group: str
    argv: list
    check: dict
    digest: list                 # [(kind, path)] with kind "raw", "bench" or "report"
    expect_exit: int | None = 0  # None: 0 when the report has no unstable point, else 2
    report: str | None = None    # report JSON the job writes, if any


def variant(seed):
    return int(seed) % N_VARIANTS


def _rng(group, seed):
    return np.random.default_rng([variant(seed), GROUPS.index(group)])


def _geometry(group):
    """Fixed random generator for a group's instance geometry."""
    return np.random.default_rng([N_VARIANTS, GROUPS.index(group)])


def _write_points(path, rows):
    rows = np.asarray(rows, dtype=float)
    if rows.ndim == 1:
        rows = rows.reshape(-1, 1)
    with open(path, "w") as fh:
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def _write_ints(path, labels):
    with open(path, "w") as fh:
        fh.write("".join(f"{int(v)}\n" for v in labels))


def _write_tree(path, edges):
    with open(path, "w") as fh:
        for u, v, w in edges:
            fh.write(f"{u} {v} {w!r}\n")


def _blobs(rng):
    """1000 points in 10 Gaussian blobs in 6-D: acceptance criterion 12's centers, points
    drawn by `rng`."""
    centers = np.random.default_rng(0).normal(size=(10, 6)) * 4.0
    rows = np.concatenate([c + rng.normal(size=(100, 6)) for c in centers])
    return rows[rng.permutation(len(rows))]


def _criterion12_points():
    """The exact 1000 points of acceptance criterion 12."""
    rng = np.random.default_rng(0)
    rng.normal(size=(10, 6))      # criterion 12 draws its centers from this generator first
    return _blobs(rng)


def _solve(job, inp, out, *extra):
    return ["solve", "--input", str(inp), "--out", str(out / f"{job}.txt"),
            "--report", str(out / f"{job}.json"), *map(str, extra)]


def _solve_job(name, inp, out, extra, check, expect_exit=0):
    return Job(
        name=name,
        group=out.name,
        argv=_solve(name, inp, out, *extra),
        check=dict(check, assignment=str(out / f"{name}.txt"),
                   report=str(out / f"{name}.json")),
        digest=[("raw", str(out / f"{name}.txt"))],
        expect_exit=expect_exit,
        report=str(out / f"{name}.json"),
    )


def line_exact(inp, out, seed):
    """solve-1d on a 4000-value Gaussian mixture at k=8 and k=50, solve-dp twice."""
    rng = _rng("line-exact", seed)
    fixed = _geometry("line-exact")
    means = fixed.uniform(0.0, 100.0, size=8)
    sds = fixed.uniform(0.5, 3.0, size=8)
    comp = rng.integers(8, size=4000)
    mix = rng.normal(means[comp], sds[comp])
    _write_points(inp / "mixture.csv", mix)
    _write_points(inp / "uniform1000.csv", rng.uniform(0.0, 100.0, size=1000))
    _write_points(inp / "uniform400.csv", rng.uniform(0.0, 100.0, size=400))

    jobs = []
    for k in (8, 50):
        jobs.append(_solve_job(
            f"solve-1d-k{k}", inp / "mixture.csv", out,
            ["--algo", "solve-1d", "--k", k],
            {"kind": "line-stable", "input": str(inp / "mixture.csv")}))
    for n, k, p in ((1000, 5, "inf"), (400, 20, "2")):
        targets = [n // k] * k
        jobs.append(_solve_job(
            f"solve-dp-n{n}-k{k}", inp / f"uniform{n}.csv", out,
            ["--algo", "solve-dp", "--targets", ",".join(map(str, targets)), "--p", p],
            {"kind": "dp", "input": str(inp / f"uniform{n}.csv"),
             "targets": targets, "p": p}))
    return jobs


def tree_exact(inp, out, seed):
    """solve-tree2 on a random recursive tree and on a weighted path, n=1000 each.

    The path is numbered from one end, which is where the solver starts
    (node 0 is the root), so the boundary walks to the weighted middle.
    """
    rng = _rng("tree-exact", seed)
    n = 1000
    parents = [int(rng.integers(i)) for i in range(1, n)]
    weights = rng.uniform(1.0, 10.0, size=n - 1)
    random_edges = [(p, i, float(w)) for i, p, w in zip(range(1, n), parents, weights)]
    path_edges = [(i, i + 1, float(w)) for i, w in enumerate(rng.uniform(1.0, 2.0, size=n - 1))]

    jobs = []
    for name, edges in (("tree2-random", random_edges), ("tree2-path", path_edges)):
        _write_tree(inp / f"{name}.tree", edges)
        jobs.append(_solve_job(
            name, inp / f"{name}.tree", out,
            ["--metric", "tree", "--algo", "solve-tree2"],
            {"kind": "tree-stable", "input": str(inp / f"{name}.tree")}))
    return jobs


def _planted(rng, fixed, n=1000, dim=6, separation=60.0, splits=(6.0, 6.0, 12.0, 12.0)):
    """Well-separated planted clusters, each two unit-variance sub-blobs.

    Cluster centers sit at least `separation` apart; cluster c's two halves
    sit splits[c] apart, so the conditioned linkage needs its spread (2) and
    long-edge (3) criteria to merge them, not only the size criterion (1).
    """
    k = len(splits)
    while True:
        centers = fixed.normal(size=(k, dim)) * separation
        gaps = np.linalg.norm(centers[:, None] - centers[None], axis=2)
        if gaps[np.triu_indices(k, 1)].min() >= separation:
            break
    offsets = fixed.normal(size=(k, dim))
    offsets *= np.asarray(splits)[:, None] / 2.0 / np.linalg.norm(offsets, axis=1, keepdims=True)
    labels = np.repeat(np.arange(k), n // k)
    side = np.tile(np.repeat([1.0, -1.0], n // k // 2), k)
    rows = centers[labels] + side[:, None] * offsets[labels] + rng.normal(size=(n, dim))
    perm = rng.permutation(n)
    return rows[perm], labels[perm]


def general_approx(inp, out, seed):
    """embed on 10 blobs; separated-exact and separated-pipeline on 4 planted clusters."""
    rng = _rng("general-approx", seed)
    _write_points(inp / "blobs.csv", _blobs(rng))
    rows, labels = _planted(rng, _geometry("general-approx"))
    _write_points(inp / "planted.csv", rows)
    _write_ints(inp / "planted-labels.txt", labels)
    solver_seed = variant(seed)
    return [
        _solve_job(
            "embed-k8", inp / "blobs.csv", out,
            ["--algo", "embed", "--k", 8, "--epsilon", 0.1, "--seed", solver_seed],
            {"kind": "embed", "input": str(inp / "blobs.csv"), "epsilon": 0.1},
            expect_exit=None),
        _solve_job(
            "separated-exact", inp / "planted.csv", out,
            ["--algo", "separated-exact", "--k", 4, "--alpha", 0.2],
            {"kind": "planted", "input": str(inp / "planted.csv"),
             "labels": str(inp / "planted-labels.txt")}),
        _solve_job(
            "separated-pipeline", inp / "planted.csv", out,
            ["--algo", "separated-pipeline", "--k", 4, "--alpha", 0.1, "--gamma", 4,
             "--seed", solver_seed],
            {"kind": "certified", "input": str(inp / "planted.csv")},
            expect_exit=None),
    ]


def _kmeanspp_blocks(rng, alpha=3.0, n_blocks=250):
    """The kmeanspp-blocks family (z, z', v, u per block) with a seeded radius and order.

    Within a block, v's own-cluster average is alpha*r against r to the
    singleton {u}, so the bad clustering violates stability by alpha.
    """
    r = float(rng.uniform(0.5, 2.0))
    spacing = 1.01 * alpha * r * math.sqrt(3.0 * n_blocks * 100.0 * n_blocks)
    c = np.arange(n_blocks) * spacing
    zeros = np.zeros(n_blocks)
    block = np.stack([
        np.stack([c - alpha * r, zeros], 1), np.stack([c + alpha * r, zeros], 1),
        np.stack([c, zeros], 1), np.stack([c, zeros + r], 1)], 1)
    rows = block.reshape(-1, 2)
    labels = (2 * np.arange(n_blocks)[:, None] + np.array([0, 0, 0, 1])).ravel()
    perm = rng.permutation(len(rows))
    return rows[perm], labels[perm], alpha


def baseline_audit(inp, out, seed):
    """bench over the baselines on standardized blobs; audit of a k-means++ trap.

    The blobs are criterion 12's points and the variant draws only their
    order: with freshly drawn points, the audit count of greedy pruning
    ranged from 90 to 214 between variants, and so did the bench's time.
    """
    rng = _rng("baseline-audit", seed)
    points = _criterion12_points()
    _write_points(inp / "blobs.csv", points[rng.permutation(len(points))])
    rows, labels, claimed = _kmeanspp_blocks(rng)
    _write_points(inp / "blocks.csv", rows)
    _write_ints(inp / "blocks-assignment.txt", labels)

    def bench(name, algos, ks, repeat):
        csv = out / f"{name}.csv"
        return Job(
            name=name,
            group=out.name,
            argv=["bench", "--input", str(inp / "blobs.csv"), "--standardize",
                  "--algo", algos, "--k", ks, "--repeat", str(repeat),
                  "--seed", str(variant(seed)), "--out", str(csv)],
            check={"kind": "bench", "csv": str(csv), "input": str(inp / "blobs.csv"),
                   "algos": algos.split(","),
                   "ks": [int(k) for k in ks.split(",")]},
            digest=[("bench", str(csv))],
        )

    report = out / "blocks-audit.json"
    return [
        bench("bench-baselines",
              "kmeans++,kcenter,random,single-linkage,average-linkage,complete-linkage",
              "10,50,100", 3),
        bench("bench-prune", "average-linkage-prune", "10,20", 1),
        Job(
            name="audit-kmeanspp-blocks",
            group=out.name,
            argv=["audit", "--input", str(inp / "blocks.csv"),
                  "--assignment", str(inp / "blocks-assignment.txt"), "--out", str(report)],
            check={"kind": "violation-floor", "input": str(inp / "blocks.csv"),
                   "assignment": str(inp / "blocks-assignment.txt"),
                   "report": str(report), "claimed": claimed},
            digest=[("report", str(report))],
            expect_exit=2,
            report=str(report),
        ),
    ]


BUILDERS = {
    "line-exact": line_exact,
    "tree-exact": tree_exact,
    "general-approx": general_approx,
    "baseline-audit": baseline_audit,
}


def build(workload, seed, workdir):
    """Write the workload's inputs under workdir and return its job list."""
    jobs = []
    for group in WORKLOADS[workload]:
        inp = Path(workdir) / "in" / group
        out = Path(workdir) / "out" / group
        inp.mkdir(parents=True, exist_ok=True)
        out.mkdir(parents=True, exist_ok=True)
        jobs += BUILDERS[group](inp, out, seed)
    return jobs


def manifest(jobs):
    """JSON-ready description of the jobs, read by checks.py."""
    return json.dumps([{"name": j.name, "check": j.check, "report": j.report,
                        "expect_exit": j.expect_exit} for j in jobs])
