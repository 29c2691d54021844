"""Self-test of the benchmark at a tiny size.

    python3 bench/selftest.py

Runs every workload at a tiny size (one fixture each, N = 3, 10
mean-field queries), untraced and traced, and checks that each metric
is emitted with its unit.  Then checks that corrupted outputs are
counted as failed: one flipped byte in a fixture CSV, and one photon
number moved by 1e-3.  Last, checks that an oracle miss is counted as
failed, and that only the documented kind of miss is excused from
`correct`.  Exits 0 when all checks hold.
"""

from __future__ import annotations

import csv
import io
import json
import os
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import fixtures
import run

# Every per-layer metric the traced report must carry, with its unit.
LAYER_METRICS = {
    "cli.run.self_s": "s",
    "scan.phase_diagram.self_s": "s",
    "scan.overlap_area.self_s": "s",
    "scan.line_cut.self_s": "s",
    "scan.records_to_csv_text.s": "s",
    "scan.ed_sweep.self_s": "s",
    "meanfield.classify.calls": "count",
    "meanfield.classify.us_per_call": "us",
    "meanfield.stationary_branches.calls": "count",
    "meanfield.stationary_branches.us_per_call": "us",
    "meanfield.brute_force_minimize.calls": "count",
    "meanfield.brute_force_minimize.ms_per_call": "ms",
    "fluctuations.diagonalize.calls": "count",
    "fluctuations.diagonalize.us_per_call": "us",
    "fluctuations.critical_coupling_by_zero_mode.calls": "count",
    "fluctuations.critical_coupling_by_zero_mode.diagonalize_per_root": "count",
    "exactdiag.build_hamiltonian.calls": "count",
    "exactdiag.build_hamiltonian.self_s": "s",
    "exactdiag.build_hamiltonian.dim_max": "count",
    "exactdiag.build_hamiltonian.nnz_max": "count",
    "exactdiag.eigensolve.calls": "count",
    "exactdiag.eigensolve.self_s": "s",
    "exactdiag.eigensolve.matvecs": "count",
    "exactdiag.eigensolve.retries": "count",
    "exactdiag.eigensolve.matvec_gflop": "GFLOP",
    "exactdiag.observables.calls": "count",
    "exactdiag.observables.self_s": "s",
    "exactdiag.converge_cutoffs.s": "s",
    "exactdiag.converge_cutoffs.solves": "count",
    "exactdiag.converge_cutoffs.useful_dim_frac": "ratio",
    "trace.overhead_frac": "ratio",
}


def check_units(where: str, emitted: dict, expected: dict[str, str]) -> list[str]:
    problems = []
    for name, unit in expected.items():
        entry = emitted.get(name)
        if entry is None:
            problems.append(f"{where}: metric {name} missing")
        elif entry["unit"] != unit or not isinstance(entry["value"], (int, float)):
            problems.append(f"{where}: metric {name} is {entry}, expected a number in {unit}")
    return problems


def check_workloads(declared: dict) -> list[str]:
    problems = []
    for workload in run.WORKLOADS:
        for trace in (False, True):
            where = f"{workload} trace={int(trace)}"
            report, result = run.run_workload(workload, 1, 0.1, trace, size=run.TINY)
            kind = "per_layer" if trace else "end_to_end"
            expected = {m["name"]: m["unit"] for m in declared[kind]}
            problems += check_units(where, result["metrics"], expected)
            if set(result["metrics"]) != set(expected):
                problems.append(f"{where}: last line carries {sorted(result['metrics'])}")
            if trace:
                problems += check_units(where + " report", report["metrics"], LAYER_METRICS)
            if result["attempted"] < 1 or result["failed"] or not result["correct"]:
                problems.append(f"{where}: {result['attempted']} attempted, "
                                f"{result['failed']} failed: {report['failures']}")
            print(f"selftest: {where}: ok", file=sys.stderr)
    return problems


def check_corruption(work: Path) -> list[str]:
    refs = run.load_refs()
    problems = []
    job = fixtures.meanfield_jobs(run.ROOT, 0, ("fig3c",), work)[0]
    sweep = fixtures.finite_n_jobs(run.ROOT, 1, ("fig4b",), 3, work)[0]
    for j in (job, sweep):
        if run.run_child(["-m", "vdicke.cli", *j.argv])[2] != 0:
            return [f"{j.fixture}: CLI failed"]

    data = job.output.read_bytes()
    if fixtures.check_output(job, data, 0, refs):
        problems.append("fig3c: the intact CSV fails its checks")
    flipped = bytearray(data)
    flipped[len(flipped) // 2] ^= 0x01
    if not fixtures.check_output(job, bytes(flipped), 0, refs):
        problems.append("fig3c: a flipped CSV byte passes the checks")

    text = sweep.output.read_text()
    if fixtures.check_output(sweep, text.encode(), 1, refs):
        problems.append("fig4b: the intact CSV fails its checks")
    rows = list(csv.reader(io.StringIO(text)))
    column = rows[0].index("photon_a")
    rows[5][column] = f"{float(rows[5][column]) + 1e-3:.12g}"
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    if not fixtures.check_output(sweep, out.getvalue().encode(), 1, refs):
        problems.append("fig4b: a photon number off by 1e-3 passes the checks")
    return problems


def check_oracle_misses() -> list[str]:
    """An oracle miss fails its query; only a valid point, with all else right, is excused."""
    import queries
    import reference as ref
    from vdicke.model import PhaseLabel

    query = next(q for q in map(queries.MeanFieldQuery, queries.draw_points(1, 50))
                 if ref.minimum(q.point) < -0.05)
    out = query.run()
    problems = []
    if query.check(out) != (None, False):
        problems.append(f"intact query fails its checks: {query.check(out)}")
    oracle = out["oracle"]
    normal = replace(oracle, psi2=0.0, psi3=0.0, energy=0.0, phase=PhaseLabel.NORMAL)
    cases = (
        ("oracle stuck at the origin", {"oracle": normal}, True),
        ("oracle energy off its amplitudes", {"oracle": replace(oracle, energy=-1.0)}, False),
        ("oracle mislabelled", {"oracle": replace(oracle, phase=PhaseLabel.NORMAL)}, False),
        ("classify and oracle wrong", {"oracle": normal, "classify": normal}, False),
    )
    for what, corrupt, excused in cases:
        why, known = query.check({**out, **corrupt})
        if why is None or known != excused:
            problems.append(f"{what}: check gave {(why, known)}, expected excused={excused}")
    if queries.known_defects([("miss", True)] + [(None, False)] * 299, 300) != 1:
        problems.append("1 oracle miss in 300 points is not excused")
    if queries.known_defects([("miss", True)] * 4 + [(None, False)] * 296, 300) != 0:
        problems.append("4 oracle misses in 300 points are excused")
    return problems


def main() -> int:
    os.chdir(run.ROOT)
    sys.path.insert(1, str(run.ROOT / "src"))
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = check_workloads(declared) + check_oracle_misses()
    (run.ROOT / ".bench_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.ROOT / ".bench_work") as tmp:
        problems += check_corruption(Path(tmp))
    for problem in problems:
        print(f"selftest: FAIL {problem}", file=sys.stderr)
    print(f"selftest: {'FAIL' if problems else 'ok'} ({len(problems)} problems)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
