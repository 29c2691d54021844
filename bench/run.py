"""Benchmark runner for vdicke.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is imported from
src/.  Each workload is a closed loop with one client: the next job
starts when the previous one ends, and whole passes over the workload
repeat until --seconds of timed work is done.  Outputs are checked
between jobs, outside the timed region.  The last line of stdout is one
JSON object {correct, attempted, failed, metrics}: the end-to-end
metrics with --trace 0, the per-layer metrics of one in-process traced
pass with --trace 1.  The line before it is a report with sample
counts, failures, every per-layer metric and the machine record.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import fixtures

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("meanfield_fixtures", "finite_n_sweeps", "point_queries")
SETUP_TRIES = 7
JOB_TIMEOUT_S = 150.0


@dataclass(frozen=True)
class Size:
    meanfield: tuple = fixtures.MEANFIELD
    finite_n: tuple = fixtures.FINITE_N
    sweep_n: int = 6
    queries: int = 300
    ed_n: int = 5


FULL = Size()
TINY = Size(meanfield=("fig3c",), finite_n=("fig4b",), sweep_n=3, queries=10, ed_n=3)


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], stdout: Path | None = None) -> tuple[float, float, int]:
    """Run one process to completion: (seconds, peak RSS in MB, exit code).

    os.wait4 gives this child's own peak RSS; RUSAGE_CHILDREN would be a
    running maximum over every child reaped so far.
    """
    with open(stdout or os.devnull, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=child_env(), stdout=out)
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, usage.ru_maxrss / 1024.0, proc.returncode


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Tally:
    """Attempted and failed jobs or queries, with the first few failure messages.

    ``excused`` counts the failed queries that the known oracle defect
    explains (see queries.known_defects): they stay in ``failed``, but
    do not make the result incorrect.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.excused = 0
        self.failures: list[str] = []

    def add(self, errors: list[str]):
        """One job or query, failed when it has errors."""
        self.merge(1, 1 if errors else 0, errors)

    def merge(self, attempted: int, failed: int, failures: list[str], excused: int = 0):
        self.attempted += attempted
        self.failed += failed
        self.excused += excused
        self.failures.extend(failures[:max(0, 10 - len(self.failures))])


def load_refs() -> dict:
    return json.loads((BENCH / "refs.json").read_text())


def workload_jobs(workload: str, seed: int, size: Size, work: Path) -> list[fixtures.Job]:
    if workload == "meanfield_fixtures":
        return fixtures.meanfield_jobs(ROOT, seed, size.meanfield, work)
    return fixtures.finite_n_jobs(ROOT, seed, size.finite_n, size.sweep_n, work)


def measure_setup() -> list[float]:
    times = []
    for _ in range(SETUP_TRIES):
        seconds, _, code = run_child(["-c", "import vdicke.cli"])
        if code != 0:
            raise RuntimeError(f"`import vdicke.cli` exited with code {code}")
        times.append(seconds)
    return times


def cli_workload(workload: str, seed: int, seconds: float, size: Size, work: Path,
                 refs: dict) -> dict:
    jobs = workload_jobs(workload, seed, size, work)
    tally = Tally()
    pass_s, job_s, rss = [], {job.fixture: [] for job in jobs}, 0.0
    while not pass_s or sum(pass_s) < seconds:
        timed = 0.0
        for job in jobs:
            job.output.unlink(missing_ok=True)
            elapsed, peak, code = run_child(["-m", "vdicke.cli", *job.argv])
            timed += elapsed
            job_s[job.fixture].append(elapsed)
            rss = max(rss, peak)
            if code != 0:
                tally.add([f"{job.fixture}: exit code {code}"])
            elif not job.output.exists():
                tally.add([f"{job.fixture}: no output written"])
            else:
                tally.add(fixtures.check_output(job, job.output.read_bytes(), seed, refs))
        pass_s.append(timed)
    return {"pass_s": pass_s, "query_s": list(job_s.values()), "peak_rss_mb": rss,
            "tally": tally, "query_kind": "one fixture's CLI job"}


def point_queries(seed: int, seconds: float, size: Size, work: Path) -> dict:
    out = work / "queries.json"
    _, rss, code = run_child(
        [str(BENCH / "queries.py"), "--seed", str(seed), "--seconds", repr(seconds),
         "--queries", str(size.queries), "--ed-n", str(size.ed_n), "--work", str(work)],
        stdout=out)
    tally = Tally()
    if code != 0:
        tally.merge(size.queries + 4, size.queries + 4, [f"queries.py exit code {code}"])
        return {"pass_s": [], "query_s": [], "peak_rss_mb": rss, "tally": tally}
    result = json.loads(out.read_text().strip().splitlines()[-1])
    tally.merge(result["attempted"], result["failed"], result["failures"], result["excused"])
    by_point = [[ms / 1e3 for ms in point] for point in zip(*result["latency_ms"])]
    return {"pass_s": result["pass_s"], "query_s": by_point, "peak_rss_mb": rss,
            "tally": tally, "query_kind": "one mean-field point",
            "warmup_s": result["warmup_s"]}


def end_to_end(workload: str, seed: int, seconds: float, size: Size, work: Path) -> dict:
    refs = load_refs()
    setup = measure_setup()
    if workload == "point_queries":
        run = point_queries(seed, seconds, size, work)
    else:
        run = cli_workload(workload, seed, seconds, size, work, refs)
    tally = run["tally"]
    if not run["pass_s"]:
        raise RuntimeError("no pass completed: " + "; ".join(tally.failures))
    # A query's latency is its median over the passes; the percentiles
    # run across the distinct queries.
    query_ms = [statistics.median(times) * 1e3 for times in run["query_s"]]
    samples = sum(len(times) for times in run["query_s"])
    metrics = {
        "wall_s": (statistics.median(run["pass_s"]), "s", len(run["pass_s"])),
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "peak_rss_mb": (run["peak_rss_mb"], "MB", 1),
        "query_ms.p50": (percentile(query_ms, 50), "ms", samples),
        "query_ms.p95": (percentile(query_ms, 95), "ms", samples),
    }
    return {"metrics": metrics, "tally": tally,
            "detail": {"query": run["query_kind"], "pass_s": run["pass_s"],
                       "warmup_s": run.get("warmup_s", []), "setup_tries_s": setup}}


def traced(workload: str, seed: int, size: Size, work: Path) -> dict:
    """Warm-up, untraced, traced and untraced passes in this process; per-layer metrics."""
    import tracing
    import vdicke.cli

    refs = load_refs()
    tally = Tally()
    extra_modules = []
    if workload == "point_queries":
        import queries

        extra_modules = [queries]
        batch = [queries.MeanFieldQuery(p) for p in queries.draw_points(seed, size.queries)]

        def one_pass():
            result = queries.run(batch, size.ed_n, seed, refs, work, passes=1)
            tally.merge(result["attempted"], result["failed"], result["failures"],
                        result["excused"])
    else:
        jobs = workload_jobs(workload, seed, size, work)

        def one_pass():
            for job in jobs:
                job.output.unlink(missing_ok=True)
                code = vdicke.cli.run(job.argv)
                tally.add([f"{job.fixture}: exit code {code}"] if code else
                          fixtures.check_output(job, job.output.read_bytes(), seed, refs))

    def timed(tracer=None) -> float:
        if tracer:
            tracer.install(extra_modules)
        try:
            start = time.perf_counter()
            one_pass()
            return time.perf_counter() - start
        finally:
            if tracer:
                tracer.uninstall()

    # A warm-up pass as in the timed runs, then untraced passes on both
    # sides of the traced one, so warm-up and drift do not show up as
    # tracing overhead.
    tracer = tracing.Tracer()
    one_pass()
    before, traced_s, after = timed(), timed(tracer), timed()
    untraced_s = (before + after) / 2.0
    tracer.write(ROOT / ".bench_work" / f"trace-{workload}.jsonl")
    layers = tracing.layer_metrics(tracer, traced_s / untraced_s - 1.0)
    metrics = {name: (value, unit, 1) for name, (value, unit) in layers.items()}
    return {"metrics": metrics, "tally": tally,
            "detail": {"untraced_s": [before, after], "traced_s": traced_s,
                       "spans": len(tracer.spans)}}


def machine() -> dict:
    """The record every result carries: hardware, versions, BLAS threads, git SHA."""
    import ctypes
    import platform

    import numpy
    import scipy

    info = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        models = [line.split(":", 1)[1].strip() for line in cpuinfo.read_text().splitlines()
                  if line.startswith("model name")]
        info["cpu"] = models[0] if models else None
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = (index / "level").read_text().strip()
        kind = (index / "type").read_text().strip()
        if kind in ("Unified", "Data"):
            caches[f"L{level}"] = (index / "size").read_text().strip()
    info["cache"] = caches
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    maps = Path("/proc/self/maps")
    libs = {line.split()[-1] for line in maps.read_text().splitlines()
            if "openblas" in line.lower()} if maps.exists() else set()
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                info["blas_threads"] = getattr(handle, symbol)()
                break
    info["thread_env"] = {k: v for k, v in os.environ.items()
                          if k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    info["git_sha"] = git_sha()
    return info


def git_sha() -> str | None:
    """HEAD of the checkout, or None when it is not a git repository."""
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, check=False)
    return done.stdout.strip() or None


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 size: Size = FULL) -> tuple[dict, dict]:
    """(report, result): the report line and the contract's last line."""
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=work_root))
    try:
        if trace:
            outcome = traced(workload, seed, size, work)
        else:
            outcome = end_to_end(workload, seed, seconds, size, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    tally = outcome["tally"]
    metrics = outcome["metrics"]
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()},
        "failed_frac": {"value": tally.failed / max(1, tally.attempted), "unit": "ratio",
                        "samples": tally.attempted},
        "known_oracle_misses": {"value": tally.excused, "unit": "count"},
        "failures": tally.failures, "detail": outcome["detail"], "machine": machine(),
    }
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    keys = [m["name"] for m in declared["per_layer" if trace else "end_to_end"]]
    result = {
        "correct": tally.failed == tally.excused,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in keys},
    }
    return report, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    missing = [p for p in ("src/vdicke/cli.py", "reproduce", "BENCHMARK.json")
               if not (ROOT / p).exists()]
    if missing:
        print(f"bench: not a vdicke source checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(1, str(ROOT / "src"))
    report, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
