"""Independent correctness checks for finished jobs, and output digests.

Run as a separate process (so its reference matrices never count toward the
workload's peak memory):

    python3 perfbench/checks.py MANIFEST.json EXITS.json RESULT.json

MANIFEST lists the jobs (workloads.manifest), EXITS maps job name to the exit
code it returned, and RESULT receives {job: error message or null}. The
checks use numpy and scipy only, never ipstable.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import shortest_path
from scipy.spatial.distance import cdist

TOL = 1e-9          # relative stability slack, the program's STABILITY_TOL
# extra relative slack: these sums run in another order than the program's
FLOAT_SLACK = 1e-9
ROUND_DIGITS = 6    # significant digits kept when digesting floats


class CheckFailed(Exception):
    pass


def _points(path):
    return np.loadtxt(path, delimiter=",", ndmin=2)


def _labels(path):
    return np.loadtxt(path, dtype=int, ndmin=1)


def _report(path):
    with open(path) as fh:
        return json.load(fh)


def _tree_matrix(path):
    edges = np.loadtxt(path, ndmin=2)
    u, v, w = edges[:, 0].astype(int), edges[:, 1].astype(int), edges[:, 2]
    n = int(max(u.max(), v.max())) + 1
    graph = coo_matrix((w, (u, v)), shape=(n, n)).tocsr()
    return shortest_path(graph, directed=False)


def violations_from_sums(sums, labels):
    """Per-point violation factors from sums[x, c] = total distance x -> cluster c."""
    n, k = sums.shape
    sizes = np.bincount(labels, minlength=k).astype(float)
    rows = np.arange(n)
    own_den = sizes[labels] - 1.0
    own = np.where(own_den > 0, sums[rows, labels] / np.maximum(own_den, 1.0), 0.0)
    vi = np.zeros(n)
    for c in range(k):
        foreign = sums[:, c] / sizes[c]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(foreign > 0, own / foreign, np.inf)
        ratio = np.where((own == 0.0) | (labels == c), 0.0, ratio)
        vi = np.maximum(vi, ratio)
    return vi


def matrix_violations(matrix, labels):
    """Violation factors from an explicit distance matrix, one cluster at a time."""
    k = int(labels.max()) + 1
    sums = np.stack([matrix[:, labels == c].sum(axis=1) for c in range(k)], axis=1)
    return violations_from_sums(sums, labels)


def line_violations(values, labels):
    """Violation factors on the line from per-cluster sorted prefix sums, O(n k log n)."""
    k = int(labels.max()) + 1
    sums = np.empty((len(values), k))
    for c in range(k):
        member = np.sort(values[labels == c])
        prefix = np.concatenate(([0.0], np.cumsum(member)))
        left = np.searchsorted(member, values, side="right")
        sums[:, c] = (values * left - prefix[left]) + (prefix[-1] - prefix[left]
                                                      - values * (len(member) - left))
    return violations_from_sums(sums, labels)


def _require_stable(vi, what):
    bad = int(np.count_nonzero(vi > (1.0 + TOL) * (1.0 + FLOAT_SLACK)))
    if bad:
        raise CheckFailed(f"{what}: {bad} unstable points (max violation {vi.max():.6g})")


def _dense(labels):
    return np.unique(labels, return_inverse=True)[1]


def check_line_stable(c):
    _require_stable(line_violations(_points(c["input"])[:, 0], _labels(c["assignment"])),
                    "line solver")


def check_dp(c):
    values = _points(c["input"])[:, 0]
    labels = _labels(c["assignment"])
    _require_stable(line_violations(values, labels), "solve-dp")
    # clusters are contiguous and numbered left to right, like the targets
    order = np.argsort(values, kind="stable")
    if np.any(np.diff(labels[order]) < 0):
        raise CheckFailed("solve-dp clusters are not contiguous left to right")
    dev = np.abs(np.bincount(labels, minlength=len(c["targets"])) - np.asarray(c["targets"]))
    p = math.inf if c["p"] == "inf" else float(c["p"])
    obj = float(dev.max()) if p == math.inf else float(np.sum(dev ** p) ** (1.0 / p))
    rep = _report(c["report"])
    for key in ("obj", "dp_obj"):
        if not math.isclose(rep[key], obj, rel_tol=1e-9, abs_tol=1e-9):
            raise CheckFailed(f"solve-dp {key}={rep[key]} but the sizes give {obj}")


def check_tree_stable(c):
    _require_stable(matrix_violations(_tree_matrix(c["input"]), _labels(c["assignment"])),
                    "solve-tree2")


def _require_certified(vi, rep, what):
    """Max violation within the report's certificate, and the report's unstable count."""
    if vi.max() > rep["certificate"] * (1.0 + TOL) + 1e-12:
        raise CheckFailed(f"{what}: violation {vi.max():.6g} exceeds the certificate "
                          f"{rep['certificate']:.6g}")
    if int(np.count_nonzero(vi > 1.0 + TOL)) != rep["num_unstable"]:
        raise CheckFailed(f"{what}: report disagrees with the recomputed unstable count")


def check_embed(c):
    points = _points(c["input"])
    labels = _labels(c["assignment"])
    excluded = int(np.count_nonzero(labels < 0))
    if excluded != math.ceil(c["epsilon"] * len(labels)):
        raise CheckFailed(f"embed excluded {excluded} points, expected ceil(eps*n)")
    keep = labels >= 0
    vi = matrix_violations(cdist(points[keep], points[keep]), _dense(labels[keep]))
    _require_certified(vi, _report(c["report"]), "embed")


def check_planted(c):
    labels = _labels(c["assignment"])
    planted = _labels(c["labels"])
    pairs = set(zip(labels.tolist(), planted.tolist()))
    k = len(set(planted.tolist()))
    if len(pairs) != k or len({a for a, _ in pairs}) != k:
        raise CheckFailed("separated-exact did not recover the planted partition")
    points = _points(c["input"])
    _require_stable(matrix_violations(cdist(points, points), labels), "separated-exact")


def check_certified(c):
    points = _points(c["input"])
    vi = matrix_violations(cdist(points, points), _labels(c["assignment"]))
    _require_certified(vi, _report(c["report"]), "separated-pipeline")


def check_bench(c):
    with open(c["csv"]) as fh:
        header, *rows = [line.strip().split(",") for line in fh if line.strip()]
    want = [(a, str(k)) for a in c["algos"] for k in c["ks"]]
    got = [(r[0], r[1]) for r in rows]
    if got != want:
        raise CheckFailed(f"bench rows {got} differ from the requested sweep {want}")
    values = np.array([[float(v) for v in r[2:]] for r in rows])
    if not np.all(np.isfinite(values)):
        raise CheckFailed("bench wrote a non-finite value")


def check_violation_floor(c):
    rep = _report(c["report"])
    points = _points(c["input"])
    vi = matrix_violations(cdist(points, points), _dense(_labels(c["assignment"])))
    if rep["max_violation"] < c["claimed"] * (1.0 - 1e-6):
        raise CheckFailed(f"audited violation {rep['max_violation']} is below the claimed "
                          f"{c['claimed']}")
    if not math.isclose(vi.max(), rep["max_violation"], rel_tol=1e-6):
        raise CheckFailed("audit max_violation disagrees with the recomputed value")


CHECKS = {
    "line-stable": check_line_stable,
    "dp": check_dp,
    "tree-stable": check_tree_stable,
    "embed": check_embed,
    "planted": check_planted,
    "certified": check_certified,
    "bench": check_bench,
    "violation-floor": check_violation_floor,
}


def check_job(job, exit_code):
    """Error message for one finished job, or None when it passes."""
    try:
        expect = job["expect_exit"]
        if expect is None:
            expect = 0 if _report(job["report"])["num_unstable"] == 0 else 2
        if exit_code != expect:
            raise CheckFailed(f"exit code {exit_code}, expected {expect}")
        CHECKS[job["check"]["kind"]](job["check"])
    except (CheckFailed, OSError, ValueError, KeyError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def _round(text):
    try:
        return f"{float(text):.{ROUND_DIGITS}g}"
    except ValueError:
        return text


def digest(outputs):
    """sha256 over a job's outputs, normalised so run-to-run noise cannot differ.

    raw: the file as written (assignment files). bench: the CSV without its
    wall_time_s column, floats to ROUND_DIGITS significant digits. report:
    num_unstable and max_violation of an audit report, rounded the same way.
    """
    h = hashlib.sha256()
    for kind, path in outputs:
        if kind == "raw":
            with open(path, "rb") as fh:
                h.update(fh.read())
        elif kind == "bench":
            with open(path) as fh:
                lines = [line.strip().split(",") for line in fh if line.strip()]
            drop = lines[0].index("wall_time_s")
            for row in lines:
                h.update(",".join(_round(v) for i, v in enumerate(row) if i != drop).encode())
        elif kind == "report":
            rep = _report(path)
            h.update(f"{rep['num_unstable']},{_round(rep['max_violation'])}".encode())
        else:
            raise ValueError(f"unknown digest kind {kind!r}")
    return h.hexdigest()


def job_quality(job):
    """(unstable fraction, max violation, promised bound or None) of one finished job.

    A bench job averages its rows; exact solvers promise 1, embed and
    separated-pipeline the certificate in their report, audits nothing.
    """
    c = job["check"]
    if c["kind"] == "bench":
        n = len(_points(c["input"]))
        with open(c["csv"]) as fh:
            header, *rows = [line.strip().split(",") for line in fh if line.strip()]
        col = {name: i for i, name in enumerate(header)}
        return (float(np.mean([float(r[col["num_unstable"]]) / n for r in rows])),
                float(np.mean([float(r[col["max_violation"]]) for r in rows])), None)
    rep = _report(job["report"])
    n = int(np.count_nonzero(_labels(c["assignment"]) >= 0))
    certificate = None if c["kind"] == "violation-floor" else rep.get("certificate", 1.0)
    return rep["num_unstable"] / n, rep["max_violation"], certificate


def quality(jobs):
    """Workload means of the per-job quality figures (certificate_mean 0 when none promised)."""
    rows = [job_quality(job) for job in jobs]
    bounds = [r[2] for r in rows if r[2] is not None]
    return {
        "unstable_frac": float(np.mean([r[0] for r in rows])),
        "max_violation_mean": float(np.mean([r[1] for r in rows])),
        "certificate_mean": float(np.mean(bounds)) if bounds else 0.0,
    }


def main(argv):
    manifest_path, exits_path, result_path = argv
    with open(manifest_path) as fh:
        jobs = json.load(fh)
    with open(exits_path) as fh:
        exits = json.load(fh)
    errors = {job["name"]: check_job(job, exits[job["name"]]) for job in jobs}
    with open(result_path, "w") as fh:
        json.dump({"errors": errors, "quality": quality(jobs)}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
