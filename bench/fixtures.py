"""The reproduce/ fixtures as benchmark jobs, and the checks on their outputs.

A job is one `python -m vdicke.cli <sub> --config reproduce/<fig>.cfg`
call.  Seed 0 runs the committed configs unchanged.  Any other seed
draws one factor in [0.95, 1.05] per mean-field fixture and passes the
scaled values as flags (flags beat the config): the upper coupling
bounds of fig2a, fig3a (equal g1 and g2 ranges, so the diagonal is still
sampled) and fig3c, and the fig2b ratios other than 1 (ratio 1 stays,
order is kept).  Grid sizes never change.  The finite-N sweeps run at an
explicit --N and take the seed as the eigensolver's --seed.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference as ref

MEANFIELD = ("fig2a", "fig2b", "fig3a", "fig3c")
FINITE_N = ("fig4a", "fig4b")
SUBCOMMAND = {
    "fig2a": "phase-diagram", "fig2b": "overlap-area", "fig3a": "phase-diagram",
    "fig3c": "line-cut", "fig4a": "ed", "fig4b": "ed",
}
FREQUENCIES = ("omega21", "omega31", "omega_a", "omega_b")

# A CSV row carries 12 significant digits; energies are O(1).
ROW_ENERGY_TOL = 1e-9
# Photon numbers: the CLI's cutoff tolerance.  Start-vector seeds move
# them by ~1e-9, so this still catches real errors.
PHOTON_TOL = 1e-4


@dataclass
class Job:
    fixture: str
    argv: list[str]  # arguments after `python -m vdicke.cli`
    output: Path
    options: dict  # effective option values, config plus overrides
    n_atoms: int | None = None


def read_config(root: Path, fixture: str) -> dict:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.read(root / "reproduce" / f"{fixture}.cfg")
    return dict(parser.items(SUBCOMMAND[fixture]))


def fixture_factors(seed: int) -> dict[str, float]:
    if seed == 0:
        return {name: 1.0 for name in MEANFIELD}
    rng = np.random.default_rng(seed)
    return dict(zip(MEANFIELD, (float(f) for f in rng.uniform(0.95, 1.05, len(MEANFIELD)))))


def _scaled_overrides(fixture: str, options: dict, factor: float) -> dict[str, str]:
    if factor == 1.0:
        return {}
    if fixture == "fig2b":
        ratios = [float(r) for r in options["ratios"].split(",")]
        return {"ratios": ",".join(repr(r if r == 1.0 else r * factor) for r in ratios)}
    keys = ("g1_max",) if fixture == "fig3c" else ("g1_max", "g2_max")
    return {key: repr(float(options[key]) * factor) for key in keys}


def _job(root: Path, fixture: str, out_dir: Path, overrides: dict, n_atoms=None) -> Job:
    options = read_config(root, fixture)
    options.update(overrides)
    output = out_dir / f"{fixture}.csv"
    argv = [SUBCOMMAND[fixture], "--config", f"reproduce/{fixture}.cfg"]
    for key, value in overrides.items():
        argv += ["--" + key.replace("_", "-"), str(value)]
    argv += ["--output", str(output)]
    return Job(fixture, argv, output, options, n_atoms)


def meanfield_jobs(root: Path, seed: int, names, out_dir: Path) -> list[Job]:
    factors = fixture_factors(seed)
    return [_job(root, name, out_dir,
                 _scaled_overrides(name, read_config(root, name), factors[name]))
            for name in names]


def finite_n_jobs(root: Path, seed: int, names, n_atoms: int, out_dir: Path) -> list[Job]:
    return [_job(root, name, out_dir, {"N": str(n_atoms), "seed": str(seed)}, n_atoms)
            for name in names]


# ---------------------------------------------------------------------------
# Output checks.  Each returns a list of error messages (empty when correct).


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _base_frequencies(options: dict) -> dict[str, float]:
    return {key: float(options.get(key, 1.0)) for key in FREQUENCIES}


def expected_coordinates(job: Job) -> list[tuple[str, str]]:
    """(g1, g2) of every row as the CLI formats them, in row order."""
    o = job.options
    if SUBCOMMAND[job.fixture] == "phase-diagram":
        g1s = np.linspace(float(o["g1_min"]), float(o["g1_max"]), int(o["n1"]))
        g2s = np.linspace(float(o["g2_min"]), float(o["g2_max"]), int(o["n2"]))
        return [(_fmt(float(a)), _fmt(float(b))) for a in g1s for b in g2s]
    g1s = np.linspace(float(o["g1_min"]), float(o["g1_max"]), int(o["steps"]))
    if o.get("diagonal", "false").lower() == "true":
        freq = _base_frequencies(o)
        slope = math.sqrt(freq["omega_b"] / freq["omega_a"])
        return [(_fmt(float(g)), _fmt(float(g) * slope)) for g in g1s]
    return [(_fmt(float(g)), _fmt(float(o["g2"]))) for g in g1s]


def _check_records(job: Job, text: str) -> tuple[list[str], list]:
    from vdicke.scan import read_records_csv, records_to_csv_text

    try:
        records = read_records_csv(io.StringIO(text))
    except (KeyError, ValueError) as exc:
        return [f"{job.fixture}: unreadable CSV: {exc!r}"], []
    errors = []
    if records_to_csv_text(records) != text:
        errors.append(f"{job.fixture}: CSV does not round-trip through read_records_csv")
    coords = expected_coordinates(job)
    if len(records) != len(coords):
        errors.append(f"{job.fixture}: {len(records)} rows, expected {len(coords)}")
    rows = text.split("\n")[1:]
    for i, (row, (g1, g2)) in enumerate(zip(rows, coords)):
        if row.split(",")[:2] != [g1, g2]:
            errors.append(f"{job.fixture}: row {i} at ({row[:40]}), expected ({g1},{g2})")
            break
    return errors, records


def _check_against_reference(job: Job, records) -> list[str]:
    freq = _base_frequencies(job.options)
    for i, r in enumerate(records):
        point = ref.Point(g1=r.g1, g2=r.g2, **freq)
        why = ref.solution_error(point, r.phase.value, r.psi2, r.psi3, r.energy, ROW_ENERGY_TOL)
        if why:
            return [f"{job.fixture}: row {i} (g1={r.g1}, g2={r.g2}): {why}"]
    return []


def _check_overlap(job: Job, text: str) -> list[str]:
    lines = text.rstrip("\n").split("\n")
    ratios = [float(r) for r in job.options["ratios"].split(",")]
    if lines[0] != "ratio,area" or len(lines) != 1 + len(ratios):
        return [f"{job.fixture}: expected header ratio,area and {len(ratios)} rows"]
    errors = []
    previous = -math.inf
    for line, ratio in zip(lines[1:], ratios):
        fields = line.split(",")
        if len(fields) != 2 or fields[0] != _fmt(ratio):
            return [f"{job.fixture}: row {line!r} does not match ratio {ratio!r}"]
        area = float(fields[1])
        if not 0.0 <= area <= 1.0 or area < previous:
            errors.append(f"{job.fixture}: area {area} at ratio {ratio} out of [0, 1] or decreasing")
        if ratio == 1.0 and area != 0.0:
            errors.append(f"{job.fixture}: area {area} at ratio 1, expected 0")
        previous = area
    return errors


def _check_finite_n(job: Job, text: str, records, refs: dict) -> list[str]:
    expected = refs["finite_n"][str(job.n_atoms)][job.fixture]
    header, *rows = text.rstrip("\n").split("\n")
    ncols = header.split(",").index("photon_a")
    for i, (row, want) in enumerate(zip(rows, expected["meanfield"])):
        if ",".join(row.split(",")[:ncols]) != want:
            return [f"{job.fixture}: mean-field columns of row {i} differ from the reference"]
    for i, r in enumerate(records):
        if r.n_atoms != job.n_atoms:
            return [f"{job.fixture}: row {i} has n_atoms {r.n_atoms}, expected {job.n_atoms}"]
        for name in ("photon_a", "photon_b"):
            got, want = getattr(r, name), expected[name][i]
            if not abs(got - want) <= PHOTON_TOL:
                return [f"{job.fixture}: row {i} {name} {got!r} vs reference {want!r}"]
    return []


def check_output(job: Job, data: bytes, seed: int, refs: dict) -> list[str]:
    """Every check on one job's output bytes; empty when the output is correct."""
    if job.n_atoms is None and seed == 0:
        digest = hashlib.sha256(data).hexdigest()
        if digest != refs["meanfield_sha256"][job.fixture]:
            return [f"{job.fixture}: CSV bytes differ from the recorded digest"]
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return [f"{job.fixture}: output is not UTF-8"]
    if job.fixture == "fig2b":
        return _check_overlap(job, text)
    errors, records = _check_records(job, text)
    if errors:
        return errors
    if job.n_atoms is not None:
        return _check_finite_n(job, text, records, refs)
    return _check_against_reference(job, records)
