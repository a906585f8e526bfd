"""Command line front end: audits, solvers, benchmarks, hard instances.

Exit codes follow a three-way convention. 0 means the command succeeded and
the solver guarantee held (for audits and exact solvers: every point stable).
2 means the command ran fine but without that guarantee, e.g. an approximate
solver whose output keeps some unstable points; its report carries the
certificate it can actually promise. 1 is an error (bad input, infeasible
instance, violated precondition).

File formats, all plain text:
  points CSV      one row per point, numeric columns, optional header row
  matrix CSV      n rows by n columns, symmetric, zero diagonal
  tree file       lines "u v weight" with node ids 0..n-1
  assignment      one cluster index per line; negative marks an excluded row
  report          JSON with keys num_unstable, max_violation,
                  mean_violation, cost, obj
"""

import argparse
import json
import math
import sys
import time

import numpy as np

from . import baselines, hardgen
from .core import Clustering, DistanceOracle, audit
from .dp_target import solve_targets
from .hst import cluster_via_embedding
from .line1d import solve_1d
from .separated import GAMMA_MIN, exact_enumerate, pipeline
from .tree import WeightedTree, solve_tree2

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NO_GUARANTEE = 2

POINT_METRICS = ("euclidean", "manhattan", "chebyshev")
BENCH_ALGOS = (
    "kmeans++",
    "kcenter",
    "random",
    "single-linkage",
    "average-linkage",
    "complete-linkage",
    "single-linkage-prune",
    "average-linkage-prune",
    "complete-linkage-prune",
)


class CliError(Exception):
    pass


# ---------------------------------------------------------------------------
# parsing and file I/O


def _split_fields(line):
    if "," in line:
        return [t.strip() for t in line.split(",")]
    return line.split()


def _load_rows(path):
    """Numeric rows from a CSV-ish file; a single leading header row is ok."""
    rows = []
    saw_header = False
    try:
        fh = open(path)
    except OSError as exc:
        raise CliError(str(exc))
    with fh:
        for lineno, line in enumerate(fh, start=1):
            parts = _split_fields(line.strip())
            if not parts or parts == [""]:
                continue
            try:
                rows.append([float(t) for t in parts])
            except ValueError:
                if not rows and not saw_header:
                    saw_header = True
                    continue
                raise CliError(f"{path}:{lineno}: non-numeric row")
    if not rows:
        raise CliError(f"{path}: no data rows")
    width = len(rows[0])
    for i, r in enumerate(rows):
        if len(r) != width:
            raise CliError(f"{path}: row {i + 1} has {len(r)} columns, expected {width}")
    return np.asarray(rows, dtype=float)


def load_points(path, standardize=False):
    pts = _load_rows(path)
    if standardize:
        mean = pts.mean(axis=0)
        std = pts.std(axis=0)
        std[std == 0] = 1.0
        pts = (pts - mean) / std
    return pts


def load_matrix(path):
    m = _load_rows(path)
    if m.shape[0] != m.shape[1]:
        raise CliError(f"{path}: distance matrix must be square, got {m.shape}")
    return m


def load_tree(path):
    edges = []
    max_id = -1
    try:
        fh = open(path)
    except OSError as exc:
        raise CliError(str(exc))
    with fh:
        for lineno, line in enumerate(fh, start=1):
            parts = _split_fields(line.strip())
            if not parts or parts == [""]:
                continue
            if len(parts) != 3:
                raise CliError(f"{path}:{lineno}: expected 'u v weight'")
            try:
                u, v, w = int(parts[0]), int(parts[1]), float(parts[2])
            except ValueError:
                raise CliError(f"{path}:{lineno}: expected 'u v weight'")
            edges.append((u, v, w))
            max_id = max(max_id, u, v)
    if max_id < 0:
        raise CliError(f"{path}: no edges")
    return WeightedTree(max_id + 1, edges)


def load_assignment(path):
    labels = []
    try:
        fh = open(path)
    except OSError as exc:
        raise CliError(str(exc))
    with fh:
        for lineno, line in enumerate(fh, start=1):
            s = line.strip()
            if not s:
                continue
            try:
                labels.append(int(s))
            except ValueError:
                raise CliError(f"{path}:{lineno}: expected one integer per line")
    if not labels:
        raise CliError(f"{path}: empty assignment")
    return np.asarray(labels, dtype=int)


def build_oracle(args):
    """(oracle, features-or-None, tree-or-None) from --input/--metric.

    The distance matrix is built here, so non-finite input and distances
    that overflow fail as a CliError before any solver or audit runs.
    """
    metric = args.metric
    if args.standardize and metric not in POINT_METRICS:
        raise CliError("--standardize only applies to point inputs")
    try:
        if metric in POINT_METRICS:
            pts = load_points(args.input, standardize=args.standardize)
            oracle = DistanceOracle.from_points(pts, metric)
            oracle.matrix()
            return oracle, pts, None
        if metric == "matrix":
            return DistanceOracle.from_matrix(load_matrix(args.input)), None, None
        if metric == "tree":
            t = load_tree(args.input)
            return t.to_oracle(), None, t
    except ValueError as exc:
        raise CliError(f"{args.input}: {exc}")
    raise CliError(f"unknown metric {metric!r}")


def _parse_p(text):
    if text.lower() in ("inf", "infinity"):
        return math.inf
    try:
        p = float(text)
    except ValueError:
        raise CliError(f"--p must be a number or 'inf', got {text!r}")
    if p < 1:
        raise CliError("--p must be >= 1")
    return p


def _parse_targets(text):
    try:
        targets = [int(t) for t in text.split(",")]
    except ValueError:
        raise CliError(f"--targets must be comma-separated integers, got {text!r}")
    if not targets or any(t < 0 for t in targets):
        raise CliError("--targets entries must be nonnegative")
    return targets


def _parse_k_list(text):
    try:
        ks = [int(t) for t in text.split(",")]
    except ValueError:
        raise CliError(f"--k must be comma-separated integers, got {text!r}")
    if any(k < 1 for k in ks):
        raise CliError("--k values must be >= 1")
    return ks


def _values_column(args):
    pts = load_points(args.input, standardize=args.standardize)
    if pts.shape[1] != 1:
        raise CliError(
            f"{args.input}: this solver needs a single value column, got {pts.shape[1]}"
        )
    return pts[:, 0]


def report_dict(report, with_vi=False):
    out = {
        "num_unstable": int(report.num_unstable),
        "max_violation": float(report.max_violation),
        "mean_violation": float(report.mean_violation),
        "cost": float(report.cost),
        "obj": None if report.obj is None else float(report.obj),
    }
    if with_vi:
        out["vi"] = [float(v) for v in report.vi]
    return out


def _jsonable(x):
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, np.integer):
        return int(x)
    if isinstance(x, np.floating):
        return float(x)
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def _write_text(path, text):
    if path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _write_report(path, payload, fmt):
    payload = _jsonable(payload)
    if fmt == "json":
        _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return
    # csv: one header row and one value row of the scalar fields
    keys = [k for k in ("num_unstable", "max_violation", "mean_violation", "cost", "obj")
            if k in payload]
    extra = sorted(k for k in payload if k not in keys and not isinstance(payload[k], (list, dict)))
    keys += extra
    vals = ["" if payload[k] is None else f"{payload[k]:.10g}" if isinstance(payload[k], float)
            else str(payload[k]) for k in keys]
    _write_text(path, ",".join(keys) + "\n" + ",".join(vals) + "\n")


def _write_assignment(path, labels):
    _write_text(path, "".join(f"{int(l)}\n" for l in labels))


def _write_points_csv(path, rows):
    arr = np.asarray(rows, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    _write_text(path, "".join(",".join(repr(float(v)) for v in row) + "\n" for row in arr))


# ---------------------------------------------------------------------------
# commands


def cmd_audit(args):
    oracle, _, _ = build_oracle(args)
    labels = load_assignment(args.assignment)
    if len(labels) != oracle.n:
        raise CliError(
            f"assignment has {len(labels)} lines but the instance has {oracle.n} points"
        )
    keep = np.flatnonzero(labels >= 0)
    if len(keep) == 0:
        raise CliError("assignment excludes every point")
    if len(keep) < len(labels):
        oracle = oracle.sub_oracle(keep)
        labels = labels[keep]
    # relabel to a dense 0..k-1 range; audit does not care about label names
    _, dense = np.unique(labels, return_inverse=True)
    clustering = Clustering(dense, int(dense.max()) + 1)

    targets = _parse_targets(args.targets) if args.targets else None
    if targets is not None and len(targets) != clustering.k:
        raise CliError(
            f"--targets lists {len(targets)} clusters but the assignment has {clustering.k}"
        )
    report = audit(oracle, clustering, targets=targets, p=_parse_p(args.p))
    _write_report(args.out, report_dict(report, with_vi=args.vi), args.format)
    return EXIT_OK if report.num_unstable == 0 else EXIT_NO_GUARANTEE


def _solve_dispatch(args):
    """Returns (full assignment labels, oracle, report, extras dict)."""
    algo = args.algo
    if algo == "solve-1d":
        values = _values_column(args)
        if args.k is None:
            raise CliError("solve-1d needs --k")
        clustering = solve_1d(values, args.k)
        oracle = DistanceOracle.from_points(values.reshape(-1, 1))
        report = audit(oracle, clustering)
        return clustering.assignment, oracle, report, {"algorithm": algo}

    if algo == "solve-dp":
        values = _values_column(args)
        if not args.targets:
            raise CliError("solve-dp needs --targets")
        targets = _parse_targets(args.targets)
        p = _parse_p(args.p)
        clustering, obj = solve_targets(values, targets, p=p)
        oracle = DistanceOracle.from_points(values.reshape(-1, 1))
        report = audit(oracle, clustering, targets=targets, p=p)
        return clustering.assignment, oracle, report, {"algorithm": algo, "dp_obj": float(obj)}

    if algo == "solve-tree2":
        if args.metric != "tree":
            raise CliError("solve-tree2 needs --metric tree and a tree input file")
        if args.k not in (None, 2):
            raise CliError("solve-tree2 only produces k=2")
        t = load_tree(args.input)
        clustering = solve_tree2(t)
        oracle = t.to_oracle()
        report = audit(oracle, clustering)
        return clustering.assignment, oracle, report, {"algorithm": algo}

    if algo == "embed":
        oracle, _, _ = build_oracle(args)
        if args.k is None:
            raise CliError("embed needs --k")
        res = cluster_via_embedding(oracle, args.k, epsilon=args.epsilon, seed=args.seed)
        labels = np.full(oracle.n, -1, dtype=int)
        labels[np.asarray(res.retained, dtype=int)] = res.clustering.assignment
        extras = {
            "algorithm": algo,
            "certificate": float(res.stretch),
            "stretch": float(res.stretch),
            "excluded": [int(i) for i in res.excluded],
        }
        return labels, oracle, res.report, extras

    if algo == "separated-exact":
        oracle, _, _ = build_oracle(args)
        if args.k is None or args.alpha is None:
            raise CliError("separated-exact needs --k and --alpha")
        clustering = exact_enumerate(oracle, args.k, args.alpha)
        report = audit(oracle, clustering)
        return clustering.assignment, oracle, report, {"algorithm": algo}

    if algo == "separated-pipeline":
        oracle, _, _ = build_oracle(args)
        if args.k is None or args.alpha is None:
            raise CliError("separated-pipeline needs --k and --alpha")
        res = pipeline(oracle, args.k, args.alpha, args.gamma, seed=args.seed)
        extras = {
            "algorithm": algo,
            "certificate": float(res.certificate()),
            "stretch": float(res.stretch),
            "uniformity": float(res.uniformity),
        }
        return res.clustering.assignment, oracle, res.report, extras

    raise CliError(f"unknown solver {algo!r}")


def cmd_solve(args):
    try:
        labels, _, report, extras = _solve_dispatch(args)
    except (ValueError, RuntimeError) as exc:
        raise CliError(str(exc))
    payload = report_dict(report, with_vi=args.vi)
    payload.update(extras)
    _write_assignment(args.out, labels)
    report_path = args.report
    if report_path is None and args.out is not None:
        report_path = args.out + ".report.json"
    _write_report(report_path, payload, "json")
    return EXIT_OK if report.num_unstable == 0 else EXIT_NO_GUARANTEE


def _bench_runner(token, oracle, features, args):
    """Returns fn(k, seed) -> Clustering for one benchmark algorithm."""
    if token in ("kmeans++",):
        if features is None:
            raise CliError(f"{token} needs point coordinates, not a matrix or tree")
        return lambda k, seed: baselines.kmeans_pp(features, k, seed=seed)
    if token == "kcenter":
        return lambda k, seed: baselines.kcenter_greedy(oracle, k, first=args.first)
    if token == "random":
        return lambda k, seed: baselines.random_clustering(oracle.n, k, seed=seed)

    base = token
    prune = False
    if token.endswith("-prune"):
        base = token[: -len("-prune")]
        prune = True
    variant = {"single-linkage": "single", "average-linkage": "average",
               "complete-linkage": "complete"}.get(base)
    if variant is None:
        raise CliError(f"unknown benchmark algorithm {token!r}")

    cache = {}

    def run(k, seed):
        if "root" not in cache:
            cache["root"] = baselines.linkage(oracle, variant)
        root = cache["root"]
        if prune:
            return baselines.greedy_prune(root, oracle, k, measure=args.measure)
        return baselines.cut_dendrogram(root, k)

    return run


def cmd_bench(args):
    oracle, features, _ = build_oracle(args)
    ks = _parse_k_list(args.k)
    tokens = [t.strip() for t in args.algo.split(",") if t.strip()]
    if not tokens:
        raise CliError("--algo must list at least one algorithm")
    runners = [(t, _bench_runner(t, oracle, features, args)) for t in tokens]
    if args.repeat < 1:
        raise CliError("--repeat must be >= 1")

    lines = ["algorithm,k,num_unstable,max_violation,mean_violation,cost,wall_time_s"]
    for token, run in runners:
        for k in ks:
            if k > oracle.n:
                raise CliError(f"k={k} exceeds the {oracle.n}-point instance")
            uns, maxvi, meanvi, cost, wall = [], [], [], [], []
            for rep in range(args.repeat):
                t0 = time.perf_counter()
                clustering = run(k, args.seed + rep)
                wall.append(time.perf_counter() - t0)
                rep_report = audit(oracle, clustering)
                uns.append(rep_report.num_unstable)
                maxvi.append(rep_report.max_violation)
                meanvi.append(rep_report.mean_violation)
                cost.append(rep_report.cost)
            row = [
                token,
                str(k),
                f"{np.mean(uns):.10g}",
                f"{np.mean(maxvi):.10g}",
                f"{np.mean(meanvi):.10g}",
                f"{np.mean(cost):.10g}",
                f"{np.mean(wall):.6g}",
            ]
            lines.append(",".join(row))
    _write_text(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_gen(args):
    prefix = args.out if args.out else args.family
    fam = args.family

    if fam == "kmeanspp-blocks":
        if args.alpha is None:
            raise CliError("kmeanspp-blocks needs --alpha")
        try:
            features, meta = hardgen.gen_kmeanspp_hard(
                args.alpha, args.n_blocks, r=args.r, spacing=args.spacing
            )
        except ValueError as exc:
            raise CliError(str(exc))
    elif fam == "kcenter-balls":
        if args.n is None or args.epsilon is None:
            raise CliError("kcenter-balls needs --n and --epsilon")
        try:
            features, meta = hardgen.gen_kcenter_hard(args.n, args.epsilon)
        except ValueError as exc:
            raise CliError(str(exc))
    elif fam == "single-linkage-path":
        if args.n is None or args.epsilon is None:
            raise CliError("single-linkage-path needs --n and --epsilon")
        try:
            features, meta = hardgen.gen_single_linkage_hard(args.n, args.epsilon)
        except ValueError as exc:
            raise CliError(str(exc))
    elif fam in ("fig1-no-stable", "fig2-two-stable"):
        fx = hardgen.fixtures()[fam]
        if fx["kind"] == "matrix":
            features = fx["matrix"]
            meta = {"family": fam, "kind": "matrix", "k": 2}
        else:
            features = fx["values"]
            meta = {"family": fam, "kind": "line", "k": 2}
    else:
        raise CliError(f"unknown family {args.family!r}")

    points_path = f"{prefix}.csv"
    meta_path = f"{prefix}-meta.json"
    _write_points_csv(points_path, features)
    with open(meta_path, "w") as fh:
        json.dump(_jsonable(meta), fh, indent=2, sort_keys=True)
        fh.write("\n")
    written = [points_path, meta_path]
    if "clustering" in meta:
        assign_path = f"{prefix}-assignment.txt"
        _write_assignment(assign_path, np.asarray(meta["clustering"], dtype=int))
        written.append(assign_path)
    print("wrote " + " ".join(written))
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring


def _add_common(sub, *, metric=True, seed=True):
    if metric:
        sub.add_argument("--input", required=True, help="points CSV, matrix CSV, or tree file")
        sub.add_argument(
            "--metric",
            default="euclidean",
            choices=POINT_METRICS + ("matrix", "tree"),
            help="how to read --input (point metrics, a distance matrix, or a tree)",
        )
        sub.add_argument(
            "--standardize",
            action="store_true",
            help="zero mean, unit variance per feature column (point input only)",
        )
    if seed:
        sub.add_argument("--seed", type=int, default=0)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ipstable",
        description="Individually stable clustering: solvers, audits, benchmarks.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_audit = subs.add_parser("audit", help="audit an assignment file against an instance")
    _add_common(p_audit, seed=False)
    p_audit.add_argument("--assignment", required=True, help="one cluster index per line")
    p_audit.add_argument("--targets", help="comma-separated target cluster sizes")
    p_audit.add_argument("--p", default="inf", help="size-deviation norm, number or 'inf'")
    p_audit.add_argument("--vi", action="store_true", help="include per-point violations")
    p_audit.add_argument("--out", help="report path (stdout if omitted)")
    p_audit.add_argument("--format", default="json", choices=("json", "csv"))
    p_audit.set_defaults(fn=cmd_audit)

    p_solve = subs.add_parser("solve", help="run a stability-guaranteeing solver")
    _add_common(p_solve)
    p_solve.add_argument(
        "--algo",
        required=True,
        choices=(
            "solve-1d",
            "solve-dp",
            "solve-tree2",
            "embed",
            "separated-exact",
            "separated-pipeline",
        ),
    )
    p_solve.add_argument("--k", type=int)
    p_solve.add_argument("--targets", help="comma-separated target sizes (solve-dp)")
    p_solve.add_argument("--p", default="inf", help="size-deviation norm, number or 'inf'")
    p_solve.add_argument("--epsilon", type=float, default=0.0,
                         help="exclusion fraction for embed, in [0, 1/3)")
    p_solve.add_argument("--alpha", type=float, help="minimum cluster mass fraction")
    p_solve.add_argument("--gamma", type=float, default=GAMMA_MIN,
                         help="separation factor (separated-pipeline)")
    p_solve.add_argument("--vi", action="store_true", help="include per-point violations")
    p_solve.add_argument("--out", help="assignment path (stdout if omitted)")
    p_solve.add_argument("--report", help="report path (default: <out>.report.json)")
    p_solve.set_defaults(fn=cmd_solve)

    p_bench = subs.add_parser("bench", help="benchmark baselines over a k sweep")
    _add_common(p_bench)
    p_bench.add_argument("--algo", required=True,
                         help="comma-separated subset of: " + ", ".join(BENCH_ALGOS))
    p_bench.add_argument("--k", required=True, help="comma-separated k values")
    p_bench.add_argument("--repeat", type=int, default=1,
                         help="seeded repetitions averaged per row")
    p_bench.add_argument("--measure", default="num-unstable",
                         choices=("num-unstable", "max-violation"),
                         help="pruning score for *-prune algorithms")
    p_bench.add_argument("--first", type=int, default=0, help="kcenter starting point")
    p_bench.add_argument("--out", help="CSV path (stdout if omitted)")
    p_bench.set_defaults(fn=cmd_bench)

    p_gen = subs.add_parser("gen", help="emit a hard instance family or fixture")
    p_gen.add_argument(
        "--family",
        required=True,
        choices=(
            "kmeanspp-blocks",
            "kcenter-balls",
            "single-linkage-path",
            "fig1-no-stable",
            "fig2-two-stable",
        ),
    )
    p_gen.add_argument("--alpha", type=float, help="violation factor (kmeanspp-blocks)")
    p_gen.add_argument("--n-blocks", type=int, default=1, dest="n_blocks")
    p_gen.add_argument("--r", type=float, default=1.0, help="block radius (kmeanspp-blocks)")
    p_gen.add_argument("--spacing", type=float, help="block spacing override")
    p_gen.add_argument("--n", type=int, help="instance size (kcenter-balls, single-linkage-path)")
    p_gen.add_argument("--epsilon", type=float, help="family-specific scale parameter")
    p_gen.add_argument("--out", help="output prefix (default: the family name)")
    p_gen.set_defaults(fn=cmd_gen)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
