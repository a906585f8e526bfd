"""Spans and counters around ipstable's public functions, from outside the package.

`Tracer.install()` replaces each traced function by a wrapper in every
ipstable module namespace that holds a reference to it (`cli`, `hst`,
`separated`, `baselines` and `hardgen` all import `audit` by name, so
patching only the defining module would miss their calls), and methods on
their class. `uninstall()` puts the originals back, so traced and untraced
passes can alternate in one process.

A span records (id, parent id, name, job, job group, pass, start, end) and
stays in memory until `dump()`. Counts are computed from returned objects after the
span has closed, inside a `trace.count` span so their cost is charged to
neither the layer nor its caller. A layer's self time is its spans' time
minus their child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
import weakref
from collections import defaultdict

import numpy as np

COUNT_SPAN = "trace.count"
JOB_SPAN = "cli.job"
FIELDS = ["id", "parent", "name", "job", "group", "pass", "start", "end"]
ID, PARENT, NAME, JOB, GROUP, PASS, START, END = range(len(FIELDS))

# per-layer metric -> (home job group, end-to-end metric it should move there);
# workloads.WORKLOADS names the workload that runs each group
PER_LAYER = {
    "core.oracle_s": ("line-exact", "wall_s"),
    "core.oracle_mb": ("line-exact", "peak_rss_mb"),
    "core.audit_s": ("baseline-audit", "wall_s"),
    "core.audit_calls": ("baseline-audit", "wall_s"),
    "core.audit_gflop": ("baseline-audit", "wall_s"),
    "line1d.sort_s": ("line-exact", "job_s_geomean"),
    "line1d.sweep_s": ("line-exact", "job_s_geomean"),
    "line1d.moves": ("line-exact", "job_s_geomean"),
    "line1d.move_budget_frac": ("line-exact", "job_s_geomean"),
    "dp_target.build_table_s": ("line-exact", "wall_s"),
    "dp_target.reconstruct_s": ("line-exact", "wall_s"),
    "dp_target.finite_cells": ("line-exact", "wall_s"),
    "dp_target.table_mb": ("line-exact", "peak_rss_mb"),
    "tree.solve_tree2_s": ("tree-exact", "wall_s"),
    "tree.rotations": ("tree-exact", "wall_s"),
    "tree.bfs_calls": ("tree-exact", "wall_s"),
    "tree.distance_matrix_s": ("tree-exact", "peak_rss_mb"),
    "hst.embed_s": ("general-approx", "wall_s"),
    "hst.restrict_s": ("general-approx", "wall_s"),
    "hst.normalize_s": ("general-approx", "wall_s"),
    "hst.k_clustering_s": ("general-approx", "wall_s"),
    "hst.point_distance_matrix_s": ("general-approx", "wall_s"),
    "hst.cluster_via_embedding_s": ("general-approx", "wall_s"),
    "hst.nodes": ("general-approx", "wall_s"),
    "hst.depth": ("general-approx", "wall_s"),
    "hst.excluded": ("general-approx", "certificate_mean"),
    "hst.stretch": ("general-approx", "certificate_mean"),
    "separated.linkage_size_guard_s": ("general-approx", "wall_s"),
    "separated.linkage_conditioned_s": ("general-approx", "wall_s"),
    "separated.enumerate_s": ("general-approx", "wall_s"),
    "separated.pipeline_s": ("general-approx", "wall_s"),
    "separated.merges": ("general-approx", "wall_s"),
    "separated.merges_crit1": ("general-approx", "wall_s"),
    "separated.merges_crit2": ("general-approx", "wall_s"),
    "separated.merges_crit3": ("general-approx", "wall_s"),
    "separated.superclusters": ("general-approx", "wall_s"),
    "separated.groupings_tried": ("general-approx", "wall_s"),
    "baselines.kmeans_pp_s": ("baseline-audit", "wall_s"),
    "baselines.lloyd_s": ("baseline-audit", "wall_s"),
    "baselines.lloyd_iters": ("baseline-audit", "wall_s"),
    "baselines.kcenter_s": ("baseline-audit", "wall_s"),
    "baselines.random_s": ("baseline-audit", "wall_s"),
    "baselines.linkage_s": ("baseline-audit", "wall_s"),
    "baselines.cut_s": ("baseline-audit", "wall_s"),
    "baselines.greedy_prune_s": ("baseline-audit", "wall_s"),
    "baselines.prune_audits": ("baseline-audit", "wall_s"),
    "cli.load_s": ("all", "job_s_geomean"),
    "cli.self_s": ("all", "job_s_geomean"),
}


def _sum_matrix_bytes(tracer, result, args):
    oracle = args[0]
    if oracle not in tracer.seen_oracles:
        tracer.seen_oracles.add(oracle)
        tracer.count("core.oracle_mb", result.nbytes / 1e6)


def _audit_counts(tracer, result, args):
    oracle, clustering = args[0], args[1]
    tracer.count("core.audit_gflop", 2.0 * oracle.n ** 2 * clustering.k / 1e9)


def _sweep_counts(tracer, state, args):
    tracer.count("line1d.moves", state.moves)
    tracer.count("line1d.move_budget", state.k * state.instance.n)


def _table_counts(tracer, dp, args):
    tracer.count("dp_target.finite_cells", int(np.count_nonzero(np.isfinite(dp.table))))
    tracer.count("dp_target.table_mb", dp.table.nbytes / 1e6)


def _embed_counts(tracer, hst, args):
    tracer.count("hst.nodes", hst.n_nodes)
    tracer.peak("hst.depth", hst.max_depth())


def _cluster_via_embedding_counts(tracer, res, args):
    tracer.count("hst.excluded", len(res.excluded))
    tracer.peak("hst.stretch", res.stretch)


def _linkage_counts(tracer, part, args):
    tracer.count("separated.merges", len(part.merge_log))
    for crit in (1, 2, 3):
        tracer.count(f"separated.merges_crit{crit}",
                     sum(1 for entry in part.merge_log if entry[3] == crit))
    tracer.count("separated.superclusters", part.ell)


def _lloyd_counts(tracer, result, args):
    tracer.count("baselines.lloyd_iters", len(result[2]))


# (module, attribute path, span name or None for a call count, counter hook)
TARGETS = [
    ("ipstable.cli", "load_points", "cli.load", None),
    ("ipstable.cli", "load_matrix", "cli.load", None),
    ("ipstable.cli", "load_tree", "cli.load", None),
    ("ipstable.cli", "load_assignment", "cli.load", None),
    ("ipstable.core", "DistanceOracle.matrix", "core.oracle", _sum_matrix_bytes),
    ("ipstable.core", "audit", "core.audit", _audit_counts),
    ("ipstable.line1d", "LineInstance.from_values", "line1d.sort", None),
    ("ipstable.line1d", "sweep", "line1d.sweep", _sweep_counts),
    ("ipstable.dp_target", "build_table", "dp_target.build_table", _table_counts),
    ("ipstable.dp_target", "reconstruct", "dp_target.reconstruct", None),
    ("ipstable.tree", "solve_tree2", "tree.solve_tree2", None),
    ("ipstable.tree", "WeightedTree.distance_matrix", "tree.distance_matrix", None),
    ("ipstable.tree", "rotate", None, "tree.rotations"),
    ("ipstable.tree", "WeightedTree.dists_from", None, "tree.bfs_calls"),
    ("ipstable.tree", "WeightedTree.component", None, "tree.bfs_calls"),
    ("ipstable.hst", "embed_hst", "hst.embed", _embed_counts),
    ("ipstable.hst", "restrict", "hst.restrict", None),
    ("ipstable.hst", "normalize_leaves", "hst.normalize", None),
    ("ipstable.hst", "hst_k_clustering", "hst.k_clustering", None),
    ("ipstable.hst", "Hst.point_distance_matrix", "hst.point_distance_matrix", None),
    ("ipstable.hst", "cluster_via_embedding", "hst.cluster_via_embedding",
     _cluster_via_embedding_counts),
    ("ipstable.separated", "linkage_size_guard", "separated.linkage_size_guard",
     _linkage_counts),
    ("ipstable.separated", "linkage_conditioned", "separated.linkage_conditioned",
     _linkage_counts),
    ("ipstable.separated", "exact_enumerate", "separated.enumerate", None),
    ("ipstable.separated", "pipeline", "separated.pipeline", None),
    ("ipstable.baselines", "kmeans_pp", "baselines.kmeans_pp", None),
    ("ipstable.baselines", "lloyd", "baselines.lloyd", _lloyd_counts),
    ("ipstable.baselines", "kcenter_greedy", "baselines.kcenter", None),
    ("ipstable.baselines", "random_clustering", "baselines.random", None),
    ("ipstable.baselines", "linkage", "baselines.linkage", None),
    ("ipstable.baselines", "cut_dendrogram", "baselines.cut", None),
    ("ipstable.baselines", "greedy_prune", "baselines.greedy_prune", None),
]

# audits counted per parent span: the work a layer asks of the audit kernel
AUDITS_UNDER = {
    "separated.enumerate": "separated.groupings_tried",
    "baselines.greedy_prune": "baselines.prune_audits",
}


def layer(span_name):
    """The layer a span's self time is charged to in `Tracer.group_shares`."""
    if span_name == JOB_SPAN:
        return "cli.self"
    if span_name.startswith("core.") or span_name == COUNT_SPAN:
        return span_name
    return span_name.split(".")[0]


class Tracer:
    def __init__(self):
        self.spans = []           # one list per span, fields as in FIELDS
        self.stack = []
        self.counts = defaultdict(float)
        self.peaks = {}
        self.seen_oracles = weakref.WeakSet()
        self.job = None
        self.group = None
        self.pass_index = None
        self._restore = []

    # -- recording --------------------------------------------------------

    def begin(self, name):
        span = [len(self.spans), self.stack[-1][ID] if self.stack else None, name,
                self.job, self.group, self.pass_index, time.perf_counter(), None]
        self.spans.append(span)
        self.stack.append(span)
        return span

    def end(self, span):
        span[END] = time.perf_counter()
        self.stack.pop()

    def count(self, name, value=1):
        self.counts[name] += value

    def peak(self, name, value):
        self.peaks[name] = max(self.peaks.get(name, -math.inf), value)

    def _wrap_span(self, fn, name, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(span)
            if hook is not None:
                counting = tracer.begin(COUNT_SPAN)
                try:
                    hook(tracer, result, args)
                finally:
                    tracer.end(counting)
            return result

        return wrapper

    def _wrap_count(self, fn, counter):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ---------------------------------------------------------

    def install(self):
        import importlib

        for modname, path, span, hook in TARGETS:
            module = importlib.import_module(modname)
            if span is None:
                make = functools.partial(self._wrap_count, counter=hook)
            else:
                make = functools.partial(self._wrap_span, name=span, hook=hook)
            if "." in path:
                cls = getattr(module, path.split(".")[0])
                attr = path.split(".")[1]
                static = inspect.getattr_static(cls, attr)
                if isinstance(static, classmethod):
                    setattr(cls, attr, classmethod(make(static.__func__)))
                else:
                    setattr(cls, attr, make(static))
                self._restore.append((cls, attr, static))
                continue
            original = getattr(module, path)
            wrapper = make(original)
            for name, mod in list(sys.modules.items()):
                if mod is None or not (name == "ipstable" or name.startswith("ipstable.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    # -- results ----------------------------------------------------------

    def self_times(self, key=lambda span: span[NAME]):
        """Total self time per key(span), by default per span name."""
        child = defaultdict(float)
        for span in self.spans:
            if span[PARENT] is not None:
                child[span[PARENT]] += span[END] - span[START]
        out = defaultdict(float)
        for span in self.spans:
            out[key(span)] += span[END] - span[START] - child[span[ID]]
        return out

    def group_shares(self):
        """{job group: {layer: share of the group's traced self time}}."""
        totals = self.self_times(key=lambda span: (span[GROUP], layer(span[NAME])))
        out = defaultdict(dict)
        for (group, name), t in totals.items():
            out[group][name] = t
        for layers in out.values():
            total = sum(layers.values())
            for name in layers:
                layers[name] /= total
        return out

    def audits_under(self):
        by_id = {span[ID]: span for span in self.spans}
        out = defaultdict(int)
        for span in self.spans:
            if span[NAME] == "core.audit" and span[PARENT] is not None:
                metric = AUDITS_UNDER.get(by_id[span[PARENT]][NAME])
                if metric:
                    out[metric] += 1
        return out

    def layer_metrics(self, passes):
        """Every PER_LAYER metric, per traced pass (peaks are per run)."""
        selfs = self.self_times()
        audits = self.audits_under()
        calls = defaultdict(int)
        for span in self.spans:
            calls[span[NAME]] += 1
        out = {}
        for metric in PER_LAYER:
            if metric.endswith("_s"):
                span = JOB_SPAN if metric == "cli.self_s" else metric[:-2]
                out[metric] = selfs.get(span, 0.0) / passes
            elif metric in self.peaks:
                out[metric] = self.peaks[metric]
            elif metric in audits:
                out[metric] = audits[metric] / passes
            elif metric == "core.audit_calls":
                out[metric] = calls["core.audit"] / passes
            elif metric == "line1d.move_budget_frac":
                budget = self.counts.get("line1d.move_budget", 0)
                out[metric] = self.counts.get("line1d.moves", 0) / budget if budget else 0.0
            else:
                out[metric] = self.counts.get(metric, 0.0) / passes
        return out

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": FIELDS, "spans": self.spans}, fh)
