"""The benchmark's traced pass patches package functions by name.

bench/tracing.py lists them in TARGETS and replaces exactdiag's eigsh,
its hooks read the wrapped calls' arguments and results, and the bench
scripts import and call further package names.  A rename or signature
change that breaks one of them should fail here, not in a benchmark run.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

from vdicke import cli, exactdiag
from vdicke.errors import ConvergenceError
from vdicke.model import ModelParams

BENCH = Path(__file__).resolve().parent.parent / "bench"
TRACING = BENCH / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_name_resolves():
    targets = _tracing().TARGETS
    assert targets
    for module_name, func_name, _ in targets:
        assert callable(getattr(importlib.import_module(module_name), func_name, None)), (
            module_name, func_name)
    assert callable(importlib.import_module("vdicke.exactdiag").eigsh)


def _vdicke_names(tree: ast.AST) -> set[str]:
    """Dotted vdicke names a script imports, and those it reads off a name it imported."""
    bound, names = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "vdicke":
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "vdicke":
                    bound[alias.asname or "vdicke"] = alias.name if alias.asname else "vdicke"
                    names.add(alias.name)
    names.update(bound.values())
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.insert(0, node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in bound:
            names.add(".".join([bound[node.id], *chain]))
    return names


def _resolves(dotted: str) -> bool:
    """True when the longest importable prefix of ``dotted`` has the rest as attributes."""
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for attr in parts[split:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def test_every_vdicke_name_the_bench_scripts_use_resolves():
    names = set().union(*(_vdicke_names(ast.parse(script.read_text(encoding="utf-8")))
                          for script in sorted(BENCH.glob("*.py"))))
    # the point queries call fluctuation forms that no traced target covers
    assert {"vdicke.fluctuations.left_branch_form", "vdicke.fluctuations.right_branch_form",
            "vdicke.fluctuations.normal_phase_forms", "vdicke.cli.run"} <= names
    assert not _resolves("vdicke.fluctuations.no_such_form")
    assert sorted(name for name in names if not _resolves(name)) == []


def test_every_arpack_run_goes_through_the_patched_eigsh(monkeypatch):
    # the traced pass counts Lanczos runs by replacing exactdiag.eigsh, so
    # every Lanczos solve must look that name up when it runs
    calls = []

    def counting(*args, _eigsh=exactdiag.eigsh, **kwargs):
        calls.append(1)
        return _eigsh(*args, **kwargs)

    monkeypatch.setattr(exactdiag, "eigsh", counting)
    sector = exactdiag.TruncatedSpace(6, 30, 30, (1, 1))
    h = exactdiag.build_hamiltonian(ModelParams(g1=0.9, g2=0.8), sector)
    assert h.shape[0] > exactdiag._DENSE_THRESHOLD
    exactdiag.ground_state(h, tol=1e-8)
    assert calls
    monkeypatch.setattr(exactdiag, "LANCZOS_MAXITER", 1)
    before = len(calls)
    with pytest.raises(ConvergenceError, match="LANCZOS_MAXITER = 1"):
        exactdiag.ground_state(h, tol=1e-8)
    assert len(calls) > before


ED_RUNS = {"point": ["ed", "--N", "3", "--g1", "0.9", "--g2", "0.6"],
           "sweep": ["ed", "--N", "3", "--g2", "0.75", "--g1-min", "0.5", "--g1-max", "1.0",
                     "--steps", "3"]}


@pytest.mark.parametrize("mode", sorted(ED_RUNS))
def test_the_traced_pass_keeps_the_bytes_and_counts_every_ed_layer(mode, tmp_path):
    # the traced pass reads the arguments and results of the functions it
    # wraps; a signature change that breaks a hook fails here
    pytest.importorskip("scipy")  # the tracer counts matvecs through a LinearOperator
    tracing = _tracing()
    outputs = []
    for traced in (False, True):
        out = tmp_path / f"{mode}-{traced}.out"
        tracer = tracing.Tracer()
        try:
            if traced:
                tracer.install()
            assert cli.run([*ED_RUNS[mode], "--output", str(out)]) == 0
        finally:
            tracer.uninstall()
        outputs.append(out.read_bytes())
    assert outputs[0] and outputs[1] == outputs[0]
    metrics = tracing.layer_metrics(tracer, 0.0)
    for name in ("exactdiag.build_hamiltonian.calls", "exactdiag.build_hamiltonian.dim_max",
                 "exactdiag.build_hamiltonian.nnz_max", "exactdiag.eigensolve.matvecs",
                 "exactdiag.converge_cutoffs.solves"):
        assert metrics[name][0] > 0, name
