"""The benchmark's traced pass patches package functions by name.

bench/tracing.py lists them in TARGETS and replaces exactdiag's eigsh.
A rename that breaks one of them should fail here, not in a traced run.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TARGETS


def test_every_traced_name_resolves():
    targets = _targets()
    assert targets
    for module_name, func_name, _ in targets:
        assert callable(getattr(importlib.import_module(module_name), func_name, None)), (
            module_name, func_name)
    assert callable(importlib.import_module("vdicke.exactdiag").eigsh)
