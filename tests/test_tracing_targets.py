"""The benchmark's tracer patches ipstable functions by name; every name must exist.

perfbench/tracing.py's install() fails on a missing attribute, and its counter
hooks read attributes of the results (Hst.n_nodes, DpTable.table, ...), so a
rename in the package would otherwise surface only when a traced benchmark run
crashes.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np

from ipstable.core import Clustering, DistanceOracle
from ipstable.line1d import LineInstance

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    targets = _load_tracing().TARGETS
    assert targets
    missing = []
    for modname, path, _, _ in targets:
        owner = importlib.import_module(modname)
        for attr in path.split("."):
            try:
                owner = inspect.getattr_static(owner, attr)
            except AttributeError:
                missing.append(f"{modname}.{path}")
                break
    assert not missing, missing


def _hook_calls():
    """Small real arguments for every function that carries a counter hook."""
    points = np.array([[0.0, 0.0], [0.2, 0.1], [0.1, 0.3], [9.0, 9.0], [9.2, 9.1], [9.1, 9.3]])
    oracle = DistanceOracle.from_points(points)
    return {
        "DistanceOracle.matrix": (oracle,),
        "audit": (oracle, Clustering(np.array([0, 0, 0, 1, 1, 1]), 2)),
        "sweep": (LineInstance.from_values([0.0, 1.0, 7.0, 8.0]), 2),
        "build_table": ([0.0, 1.0, 7.0, 8.0], [2, 2]),
        "embed_hst": (oracle, 0),
        "cluster_via_embedding": (oracle, 2),
        "linkage_size_guard": (oracle, 0.3),
        "linkage_conditioned": (oracle, 0.3, 4.0),
        "lloyd": (points, points[[0, 3]]),
    }


def test_every_counter_hook_reads_a_real_result():
    tracing = _load_tracing()
    calls = _hook_calls()
    hooked = [t for t in tracing.TARGETS if t[2] is not None and t[3] is not None]
    assert sorted(path for _, path, _, _ in hooked) == sorted(calls)
    for modname, path, _, hook in hooked:
        fn = importlib.import_module(modname)
        for attr in path.split("."):
            fn = getattr(fn, attr)
        args = calls[path]
        tracer = tracing.Tracer()
        hook(tracer, fn(*args), args)
        assert tracer.counts or tracer.peaks, path
