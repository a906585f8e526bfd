"""Command line front end: audits, solvers, benchmarks, hard instances.

Exit codes follow a three-way convention. 0 means the command succeeded and
the solver guarantee held (for audits and exact solvers: every point stable).
2 means the command ran fine but without that guarantee, e.g. an approximate
solver whose output keeps some unstable points; its report carries the
certificate it can actually promise. 1 is an error (bad input, infeasible
instance, violated precondition).

File formats, all plain UTF-8 text (a leading byte-order mark is ignored):
  points CSV      one row per point, numeric columns, optional header row
  matrix CSV      n rows by n columns, symmetric, zero diagonal; the upper
                  triangle is used
  tree file       lines "u v weight" with node ids 0..n-1
  assignment      one cluster index per line; negative marks an excluded row.
                  audit --targets lists one size per label the assignment
                  uses, in ascending label order
  report          JSON with keys num_unstable, max_violation,
                  mean_violation, cost, obj; strict JSON, with an infinite
                  value (e.g. a certificate) written as the string "inf"

Numbers are read as Python's float() and int() read them, whichever path
parses a file: one np.loadtxt call reads a file whose lines all split the
same way, and numpy's numbers are a subset of Python's with the same
values; a file it declines is read field by field by the per-record path,
whose errors name the line at fault. Labels must fit int64 and tree node
ids must be non-negative. The argument parser, PARSER, is built once at
import.

Every subcommand turns --input/--metric into an instance in build_oracle.
solve-1d and solve-dp need one value column under a point metric;
solve-tree2 needs --metric tree and takes no --standardize. Neither these
solvers nor an audit of one value column or of a tree builds the distance
matrix, and an audit that excludes rows copies no distances. Input files
are read only by _records and output files written only by _write_text, so
an unreadable input or an unwritable output is exit 1 with a message, like
every other error.
"""

import argparse
import json
import math
import sys
import time
import warnings

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
    *(f"{variant}-linkage" for variant in baselines.LINKAGES),
    *(f"{variant}-linkage-prune" for variant in baselines.LINKAGES),
)


class CliError(Exception):
    pass


# ---------------------------------------------------------------------------
# parsing and file I/O


def _records(path):
    """The lines of an input file, stripped; line i + 1 is entry i.

    Blank lines stay as "". A leading UTF-8 byte-order mark is dropped. This
    is the only place an input file is opened; an unreadable one is a
    CliError.
    """
    try:
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()
    except OSError as exc:
        raise CliError(str(exc))
    # text mode reads every line end as "\n", as iterating the file would
    return list(map(str.strip, text.split("\n")))


def _split(line):
    """A line's fields: split on commas when it has one, else on blanks."""
    return [t.strip() for t in line.split(",")] if "," in line else line.split()


def _fields(lines):
    """[(line number, fields)] for each nonblank line: the per-record path."""
    return [(lineno, _split(line)) for lineno, line in enumerate(lines, start=1) if line]


def _loadtxt(lines, dtype, ndmin=2):
    """The nonblank lines read by one np.loadtxt call, or None to read them per record.

    It reads only lines that all split on commas or all on blanks, as _split
    would split them. numpy's numbers are a subset of Python's float() and
    int() that read as the same values: it rejects "1_0", non-ASCII digits
    and integers beyond int64, and any line it rejects, like an empty file,
    is left to the per-record path and its line-numbered messages.
    """
    lines = list(filter(None, lines))
    commas = len([line for line in lines if "," in line])
    if not lines or 0 < commas < len(lines):
        return None
    try:
        with warnings.catch_warnings():
            # numpy 1.x reads "1.0" as the integer 1 with a DeprecationWarning
            warnings.simplefilter("error", DeprecationWarning)
            return np.loadtxt(lines, dtype=dtype, delimiter="," if commas else None,
                              comments=None, quotechar=None, ndmin=ndmin)
    except (ValueError, OverflowError, DeprecationWarning):
        return None


def _convert(path, records, convert, message):
    """convert(records), converting a whole file at once.

    When that raises ValueError, the first record it rejects on its own is
    a CliError naming the line and the message.
    """
    try:
        return convert(records)
    except ValueError:
        for lineno, fields in records:
            try:
                convert([(lineno, fields)])
            except ValueError:
                raise CliError(f"{path}:{lineno}: {message}") from None
        raise


def _reject(path, records, values, bad, message):
    """A CliError naming the first record whose converted value is bad."""
    for (lineno, _), value in zip(records, values):
        if bad(value):
            raise CliError(f"{path}:{lineno}: {message}")


def _floats(records):
    return list(map(float, [t for _, fields in records for t in fields]))


def _load_rows(path):
    """Numeric rows from a CSV-ish file; a single leading header row is ok."""
    lines = _records(path)
    data = list(filter(None, lines))
    header = 0
    if data:
        try:
            list(map(float, _split(data[0])))
        except ValueError:
            header = 1
    rows = _loadtxt(data[header:], float)
    if rows is not None:
        return rows
    records = _fields(lines)[header:]
    values = _convert(path, records, _floats, "non-numeric row")
    if not records:
        raise CliError(f"{path}: no data rows")
    width = len(records[0][1])
    for i, (_, fields) in enumerate(records):
        if len(fields) != width:
            raise CliError(f"{path}: row {i + 1} has {len(fields)} columns, expected {width}")
    return np.array(values, dtype=float).reshape(len(records), width)


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


def _edges(records):
    return [(int(u), int(v), float(w)) for _, (u, v, w) in records]


_EDGE = np.dtype([("u", np.int64), ("v", np.int64), ("w", float)])


def load_tree(path):
    lines = _records(path)
    rows = _loadtxt(lines, _EDGE, ndmin=1)
    if rows is not None and min(rows["u"].min(), rows["v"].min()) >= 0:
        edges = list(zip(rows["u"].tolist(), rows["v"].tolist(), rows["w"].tolist()))
        max_id = int(max(rows["u"].max(), rows["v"].max()))
    else:
        records = _fields(lines)
        edges = _convert(path, records, _edges, "expected 'u v weight'")
        _reject(path, records, edges, lambda e: min(e[0], e[1]) < 0,
                "tree node ids must be non-negative")
        max_id = max((max(u, v) for u, v, _ in edges), default=-1)
    if max_id < 0:
        raise CliError(f"{path}: no edges")
    return WeightedTree(max_id + 1, edges)


def _labels(records):
    return [int(label) for _, (label,) in records]


def load_assignment(path):
    lines = _records(path)
    labels = _loadtxt(lines, int)
    if labels is not None and labels.shape[1] == 1:
        return labels.reshape(-1)
    records = _fields(lines)
    labels = _convert(path, records, _labels, "expected one integer per line")
    if not labels:
        raise CliError(f"{path}: empty assignment")
    bounds = np.iinfo(int)
    _reject(path, records, labels, lambda label: not bounds.min <= label <= bounds.max,
            f"label out of the {bounds.bits}-bit integer range")
    return np.asarray(labels, dtype=int)


def build_oracle(args):
    """(oracle, features-or-None, tree-or-None) from --input/--metric.

    Non-finite input and distances that overflow fail here as a CliError,
    before any solver or audit runs. Points on a line check their range
    without a matrix; other point inputs build their matrix here to check it.
    solve-1d and solve-dp take one value column, so any other input fails
    for them before a matrix is built.
    """
    metric = args.metric
    if args.standardize and metric not in POINT_METRICS:
        raise CliError("--standardize only applies to point inputs")
    line_solver = args.command == "solve" and args.algo in ("solve-1d", "solve-dp")
    if line_solver and metric not in POINT_METRICS:
        raise CliError(
            f"{args.input}: this solver needs a single value column, got --metric {metric}")
    try:
        if metric in POINT_METRICS:
            pts = load_points(args.input, standardize=args.standardize)
            if line_solver and pts.shape[1] != 1:
                raise CliError(
                    f"{args.input}: this solver needs a single value column, got {pts.shape[1]}")
            oracle = DistanceOracle.from_points(pts, metric)
            if pts.shape[1] > 1:
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
    if not p >= 1:                                   # also rejects NaN
        raise CliError("--p must be >= 1 or 'inf'")
    return p


def _require(args, name, flags):
    """Fail unless every flag in flags is set: "separated-exact needs --k and --alpha"."""
    if any(getattr(args, f) is None for f in flags):
        raise CliError(f"{name} needs " + " and ".join(f"--{f}" for f in flags))


def _parse_ints(text, flag):
    """Comma-separated positive integers: --targets sizes or bench's --k values."""
    try:
        values = [int(t) for t in text.split(",")]
    except ValueError:
        raise CliError(f"{flag} must be comma-separated integers, got {text!r}")
    if any(v < 1 for v in values):
        raise CliError(f"{flag} entries must be positive, got {text!r}")
    return values


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


def _json(payload):
    """payload as indented, strict JSON text with sorted keys.

    +inf, such as the stretch of an embedding that sets two coincident
    points apart, is written as the string "inf", since null already means
    "not applicable"; any other non-finite float is an error.
    """
    def strict(x):
        if isinstance(x, dict):
            return {key: strict(v) for key, v in x.items()}
        if isinstance(x, list):
            return [strict(v) for v in x]
        return "inf" if x == math.inf else x

    return json.dumps(strict(payload), indent=2, sort_keys=True, allow_nan=False) + "\n"


def _write_text(path, text):
    """Write text to path, or to stdout when path is None.

    This is the only place an output file is opened; an unwritable path is
    a CliError.
    """
    if path is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(str(exc))


def _write_report(path, payload, fmt):
    if fmt == "json":
        _write_text(path, _json(payload))
        return
    # csv: one header row and one value row of the scalar fields
    keys = ("num_unstable", "max_violation", "mean_violation", "cost", "obj")
    vals = ["" if payload[k] is None else f"{payload[k]:.10g}" if isinstance(payload[k], float)
            else str(payload[k]) for k in keys]
    _write_text(path, ",".join(keys) + "\n" + ",".join(vals) + "\n")


def _write_assignment(path, labels):
    _write_text(path, "".join(f"{l}\n" for l in np.asarray(labels, dtype=int).tolist()))


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

    targets = _parse_ints(args.targets, "--targets") if args.targets else None
    if targets is not None and len(targets) != clustering.k:
        raise CliError(
            f"--targets lists {len(targets)} clusters but the assignment has {clustering.k}"
        )
    report = audit(oracle, clustering, targets=targets, p=_parse_p(args.p))
    _write_report(args.out, report_dict(report, with_vi=args.vi), args.format)
    return EXIT_OK if report.num_unstable == 0 else EXIT_NO_GUARANTEE


# the flags each solver needs; its --algo choices in this order
SOLVER_FLAGS = {
    "solve-1d": ("k",),
    "solve-dp": ("targets",),
    "solve-tree2": (),
    "embed": ("k",),
    "separated-exact": ("k", "alpha"),
    "separated-pipeline": ("k", "alpha"),
}


def _solve_dispatch(args):
    """Returns (full assignment labels, report, extras dict).

    The instance comes from build_oracle for every solver, which has checked
    that the line solvers get one value column. Every solver but embed and
    the pipeline, which audit their own output, is audited here.
    """
    algo = args.algo
    _require(args, algo, SOLVER_FLAGS[algo])
    if algo == "solve-tree2":
        if args.metric != "tree":
            raise CliError("solve-tree2 needs --metric tree and a tree input file")
        if args.k not in (None, 2):
            raise CliError("solve-tree2 only produces k=2")
    oracle, pts, tree = build_oracle(args)

    extras = {"algorithm": algo}
    targets, p = None, math.inf
    if algo == "solve-1d":
        clustering = solve_1d(pts[:, 0], args.k)
    elif algo == "solve-dp":
        targets, p = _parse_ints(args.targets, "--targets"), _parse_p(args.p)
        clustering, obj = solve_targets(pts[:, 0], targets, p=p)
        extras["dp_obj"] = float(obj)
    elif algo == "solve-tree2":
        clustering = solve_tree2(tree)
    elif algo == "separated-exact":
        clustering = exact_enumerate(oracle, args.k, args.alpha)
    elif algo == "embed":
        res = cluster_via_embedding(oracle, args.k, epsilon=args.epsilon, seed=args.seed)
        labels = np.full(oracle.n, -1, dtype=int)
        labels[np.asarray(res.retained, dtype=int)] = res.clustering.assignment
        extras.update(certificate=float(res.stretch), stretch=float(res.stretch),
                      excluded=[int(i) for i in res.excluded])
        return labels, res.report, extras
    else:
        res = pipeline(oracle, args.k, args.alpha, args.gamma, seed=args.seed)
        extras.update(certificate=float(res.certificate()), stretch=float(res.stretch),
                      uniformity=float(res.partition.uniformity))
        return res.clustering.assignment, res.report, extras
    return clustering.assignment, audit(oracle, clustering, targets=targets, p=p), extras


def cmd_solve(args):
    labels, report, extras = _solve_dispatch(args)
    payload = report_dict(report, with_vi=args.vi)
    payload.update(extras)
    _write_assignment(args.out, labels)
    report_path = args.report
    if report_path is None and args.out is not None:
        report_path = args.out + ".report.json"
    _write_text(report_path, _json(payload))
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
    if token not in BENCH_ALGOS:
        raise CliError(f"unknown benchmark algorithm {token!r}")
    # "<variant>-linkage" or "<variant>-linkage-prune"
    variant, prune = token.split("-")[0], token.endswith("-prune")

    cache = {}

    def run(k, seed):
        if "tree" not in cache:
            cache["tree"] = baselines.linkage(oracle, variant)    # every cut and pruning reads it
        tree = cache["tree"]
        if prune:
            # no pruning round depends on k: one pass serves every k, and the
            # frontiers reached so far are kept here; kept on the tree, they
            # would make a cycle with the rounds, which hold the oracle
            if "frontiers" not in cache:
                rounds = baselines.prune_frontiers(tree, oracle, args.measure)
                cache["frontiers"], cache["rounds"] = [next(rounds)], rounds
            if k < 2:
                raise CliError(f"need 2 <= k <= n to prune, got k={k}")
            frontiers = cache["frontiers"]
            while len(frontiers) < k - 1:
                frontiers.append(next(cache["rounds"]))
            return tree.clustering(frontiers[k - 2])
        return baselines.cut_dendrogram(tree, k)

    return run


def _audit_unless_repeated(oracle, clustering, last):
    """(clustering, report): last again when clustering repeats last's assignment.

    Deterministic runners (kcenter with its fixed --first, the linkage cuts)
    give every repeat the same assignment; only the previous repeat is
    kept, so no report outlives its row.
    """
    if last is not None and np.array_equal(last[0].assignment, clustering.assignment):
        return last
    return clustering, audit(oracle, clustering)


def cmd_bench(args):
    oracle, features, _ = build_oracle(args)
    ks = _parse_ints(args.k, "--k")
    for k in ks:
        if k > oracle.n:
            raise CliError(f"k={k} exceeds the {oracle.n}-point instance")
    if args.repeat < 1:
        raise CliError("--repeat must be >= 1")
    tokens = [t.strip() for t in args.algo.split(",") if t.strip()]
    if not tokens:
        raise CliError("--algo must list at least one algorithm")
    runners = [(t, _bench_runner(t, oracle, features, args)) for t in tokens]

    lines = ["algorithm,k,num_unstable,max_violation,mean_violation,cost,wall_time_s"]
    for token, run in runners:
        for k in ks:
            stats = []
            last = None
            for rep in range(args.repeat):
                t0 = time.perf_counter()
                clustering = run(k, args.seed + rep)
                wall = time.perf_counter() - t0
                last = _audit_unless_repeated(oracle, clustering, last)
                r = last[1]
                stats.append((r.num_unstable, r.max_violation, r.mean_violation, r.cost, wall))
            *means, mean_wall = (np.mean(column) for column in zip(*stats))
            row = [token, str(k), *(f"{v:.10g}" for v in means), f"{mean_wall:.6g}"]
            lines.append(",".join(row))
    _write_text(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


# the flags each family needs; its --family choices in this order
FAMILY_FLAGS = {
    "kmeanspp-blocks": ("alpha",),
    "kcenter-balls": ("n", "epsilon"),
    "single-linkage-path": ("n", "epsilon"),
    "fig1-no-stable": (),
    "fig2-two-stable": (),
}


def cmd_gen(args):
    prefix = args.out if args.out else args.family
    fam = args.family
    _require(args, fam, FAMILY_FLAGS[fam])

    if fam == "kmeanspp-blocks":
        features, meta = hardgen.gen_kmeanspp_hard(
            args.alpha, args.n_blocks, r=args.r, spacing=args.spacing
        )
    elif fam == "kcenter-balls":
        features, meta = hardgen.gen_kcenter_hard(args.n, args.epsilon)
    elif fam == "single-linkage-path":
        features, meta = hardgen.gen_single_linkage_hard(args.n, args.epsilon)
    else:
        fx = hardgen.fixtures()[fam]
        if fx["kind"] == "matrix":
            features = fx["matrix"]
            meta = {"family": fam, "kind": "matrix", "k": 2}
        else:
            features = fx["values"]
            meta = {"family": fam, "kind": "line", "k": 2}

    points_path = f"{prefix}.csv"
    meta_path = f"{prefix}-meta.json"
    _write_points_csv(points_path, features)
    _write_text(meta_path, _json(meta))
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
    p_audit.add_argument("--targets", help="comma-separated target cluster sizes, one per "
                         "label used, in ascending label order")
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
        choices=tuple(SOLVER_FLAGS),
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
        choices=tuple(FAMILY_FLAGS),
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


# built once per process: parse_args leaves no state on it
PARSER = build_parser()


def main(argv=None):
    args = PARSER.parse_args(argv)
    try:
        return args.fn(args)
    # library errors: bad input (ValueError), infeasible instance (RuntimeError),
    # overflow or zero division (ArithmeticError)
    except (CliError, ValueError, RuntimeError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except MemoryError as exc:
        # numpy names the size it asked for: "Unable to allocate 275. MiB for
        # an array with shape (6000, 6000) and data type float64"
        print(f"error: out of memory in {args.command}: {exc or 'no size reported'}",
              file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
