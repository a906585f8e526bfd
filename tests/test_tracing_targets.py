"""The benchmark's tracer patches ipstable functions by name; every name must exist.

perfbench/tracing.py's install() fails on a missing attribute, so a rename in
the package would otherwise surface only when a traced benchmark run crashes.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

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
