"""Spans around the package's public functions, for the traced run only.

Each wrapped call records a span (name, start, end, parent) in memory.
A function is replaced in every loaded vdicke module that binds it
(``from .meanfield import classify`` makes scan.classify and cli.classify
names of their own), so calls are caught wherever the caller looks the
name up.  ``model``'s closed forms are not wrapped: they cost about a
microsecond, less than a wrapper.  ``exactdiag.eigsh`` is replaced by a
pass-through that hands ARPACK a counting LinearOperator, so matvecs are
counted without changing the arithmetic.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

from scipy.sparse.linalg import LinearOperator

# (module, function, span name)
TARGETS = (
    ("vdicke.cli", "run", "cli.run"),
    ("vdicke.scan", "phase_diagram", "scan.phase_diagram"),
    ("vdicke.scan", "overlap_area", "scan.overlap_area"),
    ("vdicke.scan", "line_cut", "scan.line_cut"),
    ("vdicke.scan", "ed_sweep", "scan.ed_sweep"),
    ("vdicke.scan", "records_to_csv_text", "scan.records_to_csv_text"),
    ("vdicke.meanfield", "classify", "meanfield.classify"),
    ("vdicke.meanfield", "stationary_branches", "meanfield.stationary_branches"),
    ("vdicke.meanfield", "brute_force_minimize", "meanfield.brute_force_minimize"),
    ("vdicke.fluctuations", "diagonalize", "fluctuations.diagonalize"),
    ("vdicke.fluctuations", "critical_coupling_by_zero_mode",
     "fluctuations.critical_coupling_by_zero_mode"),
    ("vdicke.exactdiag", "build_hamiltonian", "exactdiag.build_hamiltonian"),
    ("vdicke.exactdiag", "ground_state", "exactdiag.eigensolve"),
    ("vdicke.exactdiag", "lowest_two", "exactdiag.eigensolve"),
    ("vdicke.exactdiag", "observables", "exactdiag.observables"),
    ("vdicke.exactdiag", "converge_cutoffs", "exactdiag.converge_cutoffs"),
)


class Tracer:
    def __init__(self):
        # (name, start, end, parent index or -1).  Tuples of atoms leave
        # the garbage collector's lists, so 100k spans do not slow it.
        self.spans: list[tuple | None] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def wrap(self, name, func):
        enter, leave = _HOOKS.get(name, (None, None))
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            token = enter(self) if enter else None
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                spans[index] = (name, start, time.perf_counter(), parent)
                stack.pop()
            if leave:
                leave(self, token, args, kwargs, result)
            return result

        return traced

    def _counting_eigsh(self, eigsh):
        counts = self.counts

        def counted(a, *args, **kwargs):
            counts["eigsh_calls"] += 1
            flops = 2 * a.nnz

            def matvec(x):
                counts["matvecs"] += 1
                counts["matvec_flops"] += flops
                return a @ x

            return eigsh(LinearOperator(a.shape, matvec=matvec, dtype=a.dtype), *args, **kwargs)

        return counted

    def _replace_everywhere(self, original, replacement, modules):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._patched.append((module, attr, original))

    def install(self, extra_modules=()):
        modules = [m for n, m in list(sys.modules.items())
                   if n == "vdicke" or n.startswith("vdicke.")] + list(extra_modules)
        for module_name, func_name, span in TARGETS:
            original = getattr(sys.modules[module_name], func_name)
            self._replace_everywhere(original, self.wrap(span, original), modules)
        exactdiag = sys.modules["vdicke.exactdiag"]
        self._replace_everywhere(exactdiag.eigsh, self._counting_eigsh(exactdiag.eigsh),
                                 [exactdiag])

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, inclusive seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for (name, start, end, _), inner in zip(self.spans, child):
            entry = out[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - inner
        return {name: tuple(v) for name, v in out.items()}


# Hooks: enter(tracer) -> token; leave(tracer, token, args, kwargs, result).

def _build_leave(t, _, args, kwargs, h):
    space = args[1] if len(args) > 1 else kwargs["space"]
    t.counts["dims_built"] += space.dimension
    t.counts["dim_max"] = max(t.counts["dim_max"], space.dimension)
    t.counts["nnz_max"] = max(t.counts["nnz_max"], h.nnz)


def _eigensolve_enter(t):
    t.counts["eigensolves"] += 1
    return t.counts["eigsh_calls"]


def _eigensolve_leave(t, eigsh_before, *_):
    t.counts["retries"] += max(0, t.counts["eigsh_calls"] - eigsh_before - 1)


def _converge_enter(t):
    return t.counts["eigensolves"], t.counts["dims_built"]


def _converge_leave(t, before, args, kwargs, result):
    t.counts["converge_solves"] += t.counts["eigensolves"] - before[0]
    t.counts["converge_dims_solved"] += t.counts["dims_built"] - before[1]
    t.counts["converge_dims_accepted"] += result[0].dimension


def _diagonalize_enter(t):
    t.counts["diagonalizes"] += 1


def _root_enter(t):
    return t.counts["diagonalizes"]


def _root_leave(t, before, *_):
    t.counts["roots"] += 1
    t.counts["root_diagonalizes"] += t.counts["diagonalizes"] - before


_HOOKS = {
    "exactdiag.build_hamiltonian": (None, _build_leave),
    "exactdiag.eigensolve": (_eigensolve_enter, _eigensolve_leave),
    "exactdiag.converge_cutoffs": (_converge_enter, _converge_leave),
    "fluctuations.diagonalize": (_diagonalize_enter, None),
    "fluctuations.critical_coupling_by_zero_mode": (_root_enter, _root_leave),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, overhead_frac: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric by name, as (value, unit)."""
    totals = tracer.totals()
    c = tracer.counts

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def inclusive(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return totals.get(name, (0, 0.0, 0.0))[2]

    m = {"cli.run.self_s": (self_s("cli.run"), "s")}
    for name in ("phase_diagram", "overlap_area", "line_cut"):
        m[f"scan.{name}.self_s"] = (self_s(f"scan.{name}"), "s")
    m["scan.records_to_csv_text.s"] = (inclusive("scan.records_to_csv_text"), "s")
    for name, scale, unit in (("meanfield.classify", 1e6, "us"),
                              ("meanfield.stationary_branches", 1e6, "us"),
                              ("meanfield.brute_force_minimize", 1e3, "ms"),
                              ("fluctuations.diagonalize", 1e6, "us")):
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.{unit}_per_call"] = (_ratio(inclusive(name) * scale, calls(name)), unit)
    root = "fluctuations.critical_coupling_by_zero_mode"
    m[f"{root}.calls"] = (calls(root), "count")
    m[f"{root}.diagonalize_per_root"] = (_ratio(c["root_diagonalizes"], c["roots"]), "count")
    build = "exactdiag.build_hamiltonian"
    m[f"{build}.calls"] = (calls(build), "count")
    m[f"{build}.self_s"] = (self_s(build), "s")
    m[f"{build}.dim_max"] = (c["dim_max"], "count")
    m[f"{build}.nnz_max"] = (c["nnz_max"], "count")
    solve = "exactdiag.eigensolve"
    m[f"{solve}.calls"] = (calls(solve), "count")
    m[f"{solve}.self_s"] = (self_s(solve), "s")
    m[f"{solve}.matvecs"] = (c["matvecs"], "count")
    m[f"{solve}.retries"] = (c["retries"], "count")
    m[f"{solve}.matvec_gflop"] = (c["matvec_flops"] / 1e9, "GFLOP")
    m["exactdiag.observables.calls"] = (calls("exactdiag.observables"), "count")
    m["exactdiag.observables.self_s"] = (self_s("exactdiag.observables"), "s")
    conv = "exactdiag.converge_cutoffs"
    m[f"{conv}.s"] = (inclusive(conv), "s")
    m[f"{conv}.solves"] = (c["converge_solves"], "count")
    m[f"{conv}.useful_dim_frac"] = (
        _ratio(c["converge_dims_accepted"], c["converge_dims_solved"]), "ratio")
    m["scan.ed_sweep.self_s"] = (self_s("scan.ed_sweep"), "s")
    m["trace.overhead_frac"] = (overhead_frac, "ratio")
    return m
