"""Record bench/refs.json from the current checkout.

    python3 bench/record_refs.py

The references pin the behaviour of the commit they were recorded at:
the CSV digests of the four mean-field fixtures, and the mean-field
columns and photon numbers of the finite-N sweeps and ED point queries
at the sizes the benchmark and its self-test use.  Re-record only when
a change is meant to alter those outputs, and say so in the change.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import fixtures
import run

sys.path.insert(1, str(run.ROOT / "src"))

import queries  # noqa: E402
from vdicke.scan import read_records_csv  # noqa: E402


def cli(job) -> bytes:
    _, _, code = run.run_child(["-m", "vdicke.cli", *job.argv])
    if code != 0:
        raise SystemExit(f"{job.fixture}: exit code {code}")
    return job.output.read_bytes()


def main() -> None:
    sizes = (run.FULL, run.TINY)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        refs = {"meanfield_sha256": {}, "finite_n": {}, "ed_queries": {}}
        for job in fixtures.meanfield_jobs(run.ROOT, 0, run.FULL.meanfield, work):
            refs["meanfield_sha256"][job.fixture] = hashlib.sha256(cli(job)).hexdigest()
        for size in sizes:
            by_fixture = refs["finite_n"].setdefault(str(size.sweep_n), {})
            for job in fixtures.finite_n_jobs(run.ROOT, 0, run.FULL.finite_n, size.sweep_n, work):
                text = cli(job).decode()
                records = read_records_csv(text.splitlines(keepends=True))
                header, *rows = text.rstrip("\n").split("\n")
                ncols = header.split(",").index("photon_a")
                by_fixture[job.fixture] = {
                    "meanfield": [",".join(row.split(",")[:ncols]) for row in rows],
                    "photon_a": [r.photon_a for r in records],
                    "photon_b": [r.photon_b for r in records],
                }
            points = []
            for i, (g1, g2) in enumerate(queries.ED_POINTS):
                output = work / f"ed{i}.json"
                if queries.ed_query(g1, g2, size.ed_n, 0, output) != 0:
                    raise SystemExit(f"ed point ({g1}, {g2}) failed")
                payload = json.loads(output.read_text())
                points.append({key: payload[key]
                               for key in ("params", "n_atoms", "photon_a", "photon_b")})
            refs["ed_queries"][str(size.ed_n)] = points
    refs["recorded_at"] = run.git_sha()
    (run.BENCH / "refs.json").write_text(json.dumps(refs, indent=1) + "\n")


if __name__ == "__main__":
    main()
