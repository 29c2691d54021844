"""The benchmark's traced pass patches package functions by name.

bench/tracing.py lists them in TARGETS and replaces exactdiag's eigsh.
A rename that breaks one of them should fail here, not in a traced run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from vdicke import exactdiag
from vdicke.errors import ConvergenceError
from vdicke.model import ModelParams

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


def test_every_arpack_run_goes_through_the_patched_eigsh(monkeypatch):
    # the traced pass counts ARPACK runs by replacing exactdiag.eigsh, so
    # every Lanczos solve must look that name up when it runs
    calls = []

    def counting(*args, _eigsh=exactdiag.eigsh, **kwargs):
        calls.append(1)
        return _eigsh(*args, **kwargs)

    monkeypatch.setattr(exactdiag, "eigsh", counting)
    sector = exactdiag.ParitySector(exactdiag.truncated_space(6, 30, 30), 1, 1)
    h = exactdiag.build_hamiltonian(ModelParams(g1=0.9, g2=0.8), sector)
    assert h.shape[0] > exactdiag._DENSE_THRESHOLD
    exactdiag.ground_state(h, tol=1e-8)
    assert calls
    monkeypatch.setattr(exactdiag, "LANCZOS_MAXITER", 1)
    before = len(calls)
    with pytest.raises(ConvergenceError, match="LANCZOS_MAXITER = 1"):
        exactdiag.ground_state(h, tol=1e-8)
    assert len(calls) > before
