"""The point_queries workload: single points, one interpreter.

Mean-field queries draw frequencies in [0.4, 2] and couplings in
[0, 2 g_c] the way acceptance criterion 2 does.  Each calls classify,
stationary_branches, the brute-force oracle, diagonalize on every
applicable fluctuation block and the zero-mode bisection on every
applicable threshold.  ED queries run `vdicke ed` point mode in-process,
one per phase of the symmetric model.  Outputs are checked after each
pass, outside the timed region, against bench/reference.py and the
recorded ED references.

Run as a script it prints one JSON line:
    python bench/queries.py --seed 0 --seconds 20 --queries 300 --ed-n 5 --work DIR
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

import reference as ref
from fixtures import PHOTON_TOL

from vdicke import cli, fluctuations, meanfield
from vdicke.model import ModelParams

ED_POINTS = ((0.3, 0.3), (0.9, 0.6), (0.6, 0.9), (0.75, 0.75))
CLASSIFY_TOL = 1e-12
ORACLE_TOL = 1e-8  # brute_force_minimize's documented energy contract
THRESHOLD_TOL = 1e-8
ORACLE_RESOLUTION = 400
MAX_REPORTED_FAILURES = 10
# The documented oracle defect misses about 1 point in 1,200.  Misses
# above this share of a pass are something else.
KNOWN_MISS_SHARE = 0.01


def draw_points(seed: int, count: int) -> list[ModelParams]:
    rng = np.random.default_rng(seed)
    points = []
    for _ in range(count):
        w21, w31, wa, wb = (float(x) for x in rng.uniform(0.4, 2.0, 4))
        g1 = float(rng.uniform(0.0, 2.0 * 0.5 * np.sqrt(wa * w31)))
        g2 = float(rng.uniform(0.0, 2.0 * 0.5 * np.sqrt(wb * w21)))
        points.append(ModelParams(w21, w31, wa, wb, g1=g1, g2=g2))
    return points


class MeanFieldQuery:
    """One point with its reference thresholds, computed before timing."""

    def __init__(self, params: ModelParams):
        self.params = params
        self.point = ref.Point(**asdict(params))
        self.gc1, self.gc2 = ref.bare_thresholds(self.point)
        self.gt2 = ref.renormalized_g2(self.point) if params.g1 >= self.gc1 else None
        self.gt1 = ref.renormalized_g1(self.point) if params.g2 >= self.gc2 else None

    def families(self):
        """(name, form family, reference root, coupling the block is probed at)."""
        p = self.params
        out = [
            ("g_c1", lambda g: fluctuations.normal_phase_forms(replace(p, g1=g))[0], self.gc1, p.g1),
            ("g_c2", lambda g: fluctuations.normal_phase_forms(replace(p, g2=g))[1], self.gc2, p.g2),
        ]
        if self.gt2 is not None:
            out.append(("gtilde_c2", lambda g: fluctuations.right_branch_form(replace(p, g2=g)),
                        self.gt2, p.g2))
        if self.gt1 is not None:
            out.append(("gtilde_c1", lambda g: fluctuations.left_branch_form(replace(p, g1=g)),
                        self.gt1, p.g1))
        return out

    def run(self) -> dict:
        p = self.params
        families = self.families()
        return {
            "classify": meanfield.classify(p),
            "branches": meanfield.stationary_branches(p),
            "oracle": meanfield.brute_force_minimize(p, resolution=ORACLE_RESOLUTION),
            "spectra": [fluctuations.diagonalize(family(at)) for _, family, _, at in families],
            "roots": [fluctuations.critical_coupling_by_zero_mode(family, (0.2 * root, 3.0 * root))
                      for _, family, root, _ in families],
        }

    def check(self, out: dict) -> tuple[str | None, bool]:
        """(why the outputs are wrong or None, whether the known oracle defect explains it).

        The oracle is checked apart from the other outputs, so that its
        known misses never hide an error in them.  The defect explains a
        failure when only the oracle missed its contract and its result
        is still a valid point of the surface: it stopped in the wrong
        well or short of the bottom.
        """
        errors = []
        s = out["classify"]
        why = ref.solution_error(self.point, s.phase.value, s.psi2, s.psi3, s.energy, CLASSIFY_TOL)
        if why:
            errors.append(f"classify: {why}")
        best = ref.minimum(self.point)
        lowest = min(b.energy for b in out["branches"] if b.physical)
        if abs(lowest - best) > CLASSIFY_TOL * max(1.0, abs(best)):
            errors.append(f"stationary_branches: lowest physical energy {lowest!r} "
                          f"vs exact {best!r}")
        for (name, _, root, at), spectrum, located in zip(self.families(), out["spectra"],
                                                          out["roots"]):
            if abs(located - root) > THRESHOLD_TOL:
                errors.append(f"zero mode {name}: {located!r} vs reference {root!r}")
            if abs(at - root) > 1e-9 * root and spectrum.stable != (at < root):
                errors.append(f"diagonalize {name}: stable={spectrum.stable} at {at!r}, "
                              f"threshold {root!r}")
        o = out["oracle"]
        why = ref.solution_error(self.point, o.phase.value, o.psi2, o.psi3, o.energy, ORACLE_TOL)
        if why:
            known = not errors and ref.is_valid_point(self.point, o.phase.value, o.psi2, o.psi3,
                                                      o.energy, CLASSIFY_TOL)
            errors.append(f"brute_force_minimize: {why}")
            return "; ".join(errors), known
        return "; ".join(errors) or None, False


def ed_query(g1: float, g2: float, n_atoms: int, seed: int, output: Path) -> int:
    return cli.run(["ed", "--N", str(n_atoms), "--g1", repr(g1), "--g2", repr(g2),
                    "--seed", str(seed), "--output", str(output)])


def check_ed(code: int, output: Path, expected: dict) -> str | None:
    if code != 0:
        return f"ed at ({expected['params']['g1']}, {expected['params']['g2']}): exit code {code}"
    payload = json.loads(output.read_text())
    if payload["params"] != expected["params"] or payload["n_atoms"] != expected["n_atoms"]:
        return f"ed: params block {payload['params']} differs from the reference"
    for name in ("photon_a", "photon_b"):
        if not abs(payload[name] - expected[name]) <= PHOTON_TOL:
            return f"ed at {payload['params']}: {name} {payload[name]!r} vs {expected[name]!r}"
    return None


def one_pass(queries: list[MeanFieldQuery], ed_n: int, seed: int, expected_ed: list,
             work: Path) -> tuple[float, list[float], list[str | None]]:
    """(seconds, mean-field latencies in ms, (error or None, known oracle miss) per query)."""
    outputs, codes, latency_ms = [], [], []
    start = time.perf_counter()
    for query in queries:
        t0 = time.perf_counter()
        try:
            outputs.append(query.run())
        except Exception as exc:  # a query that raises is a failed query
            outputs.append(exc)
        latency_ms.append((time.perf_counter() - t0) * 1e3)
    for i, (g1, g2) in enumerate(ED_POINTS):
        codes.append(ed_query(g1, g2, ed_n, seed, work / f"ed{i}.json"))
    elapsed = time.perf_counter() - start

    results = []
    for query, out in zip(queries, outputs):
        if isinstance(out, Exception):
            results.append((f"{query.params}: {out!r}", False))
            continue
        why, known = query.check(out)
        results.append((f"{query.params}: {why}" if why else None, known))
    for i, code in enumerate(codes):
        results.append((check_ed(code, work / f"ed{i}.json", expected_ed[i]), False))
    return elapsed, latency_ms, results


def known_defects(results: list[tuple[str | None, bool]], points: int) -> int:
    """Failed queries of one pass that the known oracle defect explains.

    Only points whose other outputs all passed, and whose oracle result
    is a valid point above the exact minimum, qualify; and only while
    they are at most KNOWN_MISS_SHARE of the points.  More than that is
    not the documented defect, so none of them is excused.
    """
    known = sum(1 for _, k in results if k)
    return known if known <= max(1, math.ceil(KNOWN_MISS_SHARE * points)) else 0


def run(queries: list[MeanFieldQuery], ed_n: int, seed: int, refs: dict, work: Path,
        seconds: float = 0.0, passes: int | None = None, warmup: bool = False) -> dict:
    """Repeat the query set until ``seconds`` of timed passes (or ``passes``) are done.

    With ``warmup`` the first pass is checked and counted, but its time
    is kept apart from ``pass_s`` and its latencies are dropped: the
    first pass in a process pays one-off costs, such as growing the
    heap, that later queries in the same interpreter do not.
    """
    expected_ed = refs["ed_queries"][str(ed_n)]
    pass_s, latency_ms, failures, warmup_s = [], [], [], []
    attempted = failed = excused = 0
    while not pass_s or (sum(pass_s) < seconds if passes is None else len(pass_s) < passes):
        elapsed, latencies, results = one_pass(queries, ed_n, seed, expected_ed, work)
        if warmup and not warmup_s:
            warmup_s.append(elapsed)
        else:
            pass_s.append(elapsed)
            latency_ms.append(latencies)
        errors = [message for message, _ in results if message is not None]
        attempted += len(results)
        failed += len(errors)
        excused += known_defects(results, len(queries))
        failures.extend(errors[:MAX_REPORTED_FAILURES - len(failures)])
    return {"pass_s": pass_s, "warmup_s": warmup_s, "latency_ms": latency_ms,
            "attempted": attempted, "failed": failed, "excused": excused,
            "failures": failures}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--queries", type=int, required=True)
    parser.add_argument("--ed-n", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    args = parser.parse_args()
    refs = json.loads((Path(__file__).parent / "refs.json").read_text())
    queries = [MeanFieldQuery(p) for p in draw_points(args.seed, args.queries)]
    result = run(queries, args.ed_n, args.seed, refs, args.work, seconds=args.seconds,
                 warmup=True)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
