import hashlib
import json
import math
import os
import subprocess
import sys
import time
import warnings

import pytest

from vdicke import exactdiag, scan
from vdicke.cli import run
from vdicke.errors import CapacityError
from vdicke.model import ModelParams
from vdicke.scan import CSV_COLUMNS

# the interpreters started here import vdicke from the tree under test, as pytest does
_SRC = os.path.dirname(os.path.dirname(exactdiag.__file__))
_ENV = dict(os.environ,
            PYTHONPATH=os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")])))


def _json_out(capsys):
    return json.loads(capsys.readouterr().out)


def test_critical_point_json(capsys):
    code = run(["critical", "--omega31", "1.7", "--g1", "0.75", "--g2", "0.6"])
    assert code == 0
    payload = _json_out(capsys)
    assert payload["g_c1"] == pytest.approx(0.6519202405202649, abs=1e-9)
    assert payload["g_c2"] == pytest.approx(0.5, abs=1e-12)
    assert payload["mu_left"] == pytest.approx(0.7555555555555555, abs=1e-9)
    assert payload["gtilde_c2"] is not None
    assert payload["params"]["omega31"] == 1.7


def test_critical_below_threshold_reports_null(capsys):
    assert run(["critical", "--g1", "0.1"]) == 0
    payload = _json_out(capsys)
    assert payload["gtilde_c2"] is None     # no left condensate yet
    assert payload["mu_right"] is None      # g2 = 0


@pytest.mark.parametrize("flag, field, other", [("--g1", "mu_left", "mu_right"),
                                                ("--g2", "mu_right", "mu_left")])
def test_critical_reports_an_overflowing_mu_as_null(flag, field, other, capsys):
    # (g_c / g)^2 overflows at g = 1e-200: that field alone is null, as at g = 0
    assert run(["critical", flag, "1e-200"]) == 0
    payload = _json_out(capsys)
    assert payload[field] is None and payload[other] is None  # the other coupling is 0
    assert payload["g_c1"] == payload["g_c2"] == 0.5
    assert payload["gtilde_c1"] is None and payload["gtilde_c2"] is None


@pytest.mark.parametrize("couplings", [("1e100", "0.5"), ("0.5", "1e100")])
def test_spectrum_refuses_a_renormalized_block_that_overflows(couplings, capsys):
    # the condensate's block exists, but its shifted frequency squared
    # overflows in diagonalize: an error, not a null field
    assert run(["spectrum", "--g1", couplings[0], "--g2", couplings[1]]) == 2
    err = capsys.readouterr().err
    assert f"configuration error: {_UNREPRESENTABLE} (OverflowError: " in err
    assert err.count("\n") == 1


def test_meanfield_selected_and_branches(capsys):
    assert run(["meanfield", "--g1", "1.0"]) == 0
    payload = _json_out(capsys)
    assert payload["selected"]["phase"] == "LeftSR"
    assert payload["selected"]["energy"] == pytest.approx(-0.5625, abs=1e-9)
    phases = [b["phase"] for b in payload["branches"]]
    assert "Normal" in phases
    assert phases.count("LeftSR") == 2


def test_spectrum_blocks(capsys):
    assert run(["spectrum", "--omega31", "1.7", "--g1", "1.303840481040530",
                "--g2", "0.4"]) == 0
    payload = _json_out(capsys)
    assert payload["normal_left"]["stable"] is False  # g1 beyond bare threshold
    right = payload["right_branch_renormalized"]
    assert right is not None
    assert right["freq2"] == pytest.approx(3.55, abs=1e-6)
    assert payload["left_branch_renormalized"] is None  # g2 below g_c2 = 0.5


def test_phase_diagram_csv(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    code = run(["phase-diagram", "--g1-min", "0", "--g1-max", "1",
                "--g2-min", "0", "--g2-max", "1", "--n1", "4", "--n2", "4",
                "--output", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 17
    assert capsys.readouterr().out == ""   # went to the file, not stdout


def test_phase_diagram_rejects_bad_grid(capsys):
    code = run(["phase-diagram", "--g1-min", "1", "--g1-max", "0",
                "--g2-min", "0", "--g2-max", "1"])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err
    # bounds are couplings: finite and >= 0, refused before numpy sees them
    small = ["--g2-min", "0", "--g2-max", "1", "--n1", "2", "--n2", "2"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["phase-diagram", "--g1-min", "0", "--g1-max", "inf", *small]) == 2
        assert "bounds must be finite" in capsys.readouterr().err
        assert run(["phase-diagram", "--g1-min", "-0.5", "--g1-max", "0.5", *small]) == 2
        assert "coupling >= 0" in capsys.readouterr().err


def test_grid_size_limit_exits_2(tmp_path, capsys):
    # rejected before anything is allocated
    huge = str(10 ** 9)
    window = ["--g1-min", "0", "--g1-max", "1", "--g2-min", "0", "--g2-max", "1"]
    # one point over the limit; the refusal leaves no output file
    out = tmp_path / "grid.csv"
    assert run(["phase-diagram", *window, "--n1", "1001", "--n2", "1000",
                "--output", str(out)]) == 2
    assert "above the limit of 1000000" in capsys.readouterr().err
    assert not out.exists()
    for argv in (["phase-diagram", *window, "--n1", huge, "--n2", huge],
                 ["overlap-area", "--ratios", "1.2", "--resolution", huge],
                 ["line-cut", "--g2", "0.5", "--g1-min", "0", "--g1-max", "1",
                  "--steps", huge],
                 ["boundary", "--which", "normal_right", "--from", "0", "--to", "1",
                  "--steps", huge],
                 ["ed", "--N", "2", "--g1-min", "0", "--g1-max", "1", "--steps", huge]):
        assert run(argv) == 2
        assert "above the limit of 1000000" in capsys.readouterr().err


def test_phase_diagram_jobs_option_is_gone(capsys):
    assert run(["phase-diagram", "--g1-min", "0", "--g1-max", "1", "--g2-min", "0",
                "--g2-max", "1", "--n1", "3", "--n2", "3", "--jobs", "2"]) == 2
    assert "--jobs" in capsys.readouterr().err


def test_boundary_csv(capsys):
    code = run(["boundary", "--which", "gtilde_c2", "--omega31", "1.7",
                "--from", "0.66", "--to", "1.0", "--steps", "4"])
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "abscissa,boundary"
    assert len(lines) == 5
    first = [float(tok) for tok in lines[1].split(",")]
    assert first[0] == 0.66
    # a large frequency ratio: the closed form g_c2 = sqrt(omega_b*omega21)/2
    assert run(["boundary", "--which", "normal_right", "--omega-b", "1e4",
                "--from", "0", "--to", "1"]) == 0
    rows = capsys.readouterr().out.strip().split("\n")[1:]
    assert len(rows) == 50
    assert all(row.split(",")[1] == "50" for row in rows)


def test_boundary_unknown_kind_exits_2():
    assert run(["boundary", "--which", "bogus", "--from", "0.7",
                "--to", "1.0"]) == 2


def test_line_cut_csv(capsys):
    code = run(["line-cut", "--g2", "0.75", "--g1-min", "0.5",
                "--g1-max", "1.0", "--steps", "5"])
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 6
    phases = [line.split(",")[2] for line in lines[1:]]
    assert phases[0] == "RightSR"
    assert phases[-1] == "LeftSR"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["line-cut", "--g2", "0.75", "--g1-min", "-0.5", "--g1-max", "0.5",
                    "--steps", "3"]) == 2
        assert "coupling >= 0" in capsys.readouterr().err
        assert run(["line-cut", "--g2", "0.75", "--g1-min", "0.5", "--g1-max", "inf",
                    "--steps", "3"]) == 2
        assert "bounds must be finite" in capsys.readouterr().err
    # finite-N sweeps belong to `ed`; line-cut has no --N
    assert run(["line-cut", "--g2", "0.75", "--g1-min", "0.5", "--g1-max", "1.0",
                "--steps", "5", "--N", "3"]) == 2
    assert "unrecognized arguments: --N 3" in capsys.readouterr().err


def test_overlap_area_csv(capsys):
    code = run(["overlap-area", "--ratios", "1.0,1.4", "--resolution", "25"])
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "ratio,area"
    assert lines[1].startswith("1,0")      # exactly zero at ratio 1
    ratio, area = lines[2].split(",")
    assert float(ratio) == 1.4
    assert float(area) > 0.0


def test_overlap_area_bad_ratio_exits_2():
    assert run(["overlap-area", "--ratios", "0.5"]) == 2
    assert run(["overlap-area", "--ratios", "abc"]) == 2


def test_ed_point_json(capsys):
    code = run(["ed", "--N", "2", "--g1", "0.8", "--g2", "0.3",
                "--omega31", "1.7", "--cutoff-a", "10", "--cutoff-b", "8"])
    assert code == 0
    payload = _json_out(capsys)
    assert payload["n_atoms"] == 2
    assert payload["cutoff_a"] == 10
    assert payload["dimension"] == 6 * 11 * 9
    assert payload["energy"] < 0.0
    assert abs(payload["parity_g"]) == pytest.approx(1.0, abs=1e-8)
    assert payload["convergence_trace"] == []  # explicit cutoffs skip it


def test_ed_point_with_convergence_trace(capsys):
    code = run(["ed", "--N", "2", "--g1", "0.4", "--g2", "0.2"])
    assert code == 0
    payload = _json_out(capsys)
    trace = payload["convergence_trace"]
    assert len(trace) >= 2
    assert trace[0]["cutoff_a"] >= 8
    # here the shrunk truncation, the last one solved, is accepted; both
    # its tail weights are below cutoff_tol / 100
    assert (trace[-1]["cutoff_a"], trace[-1]["cutoff_b"]) == (payload["cutoff_a"],
                                                              payload["cutoff_b"])
    assert trace[-1]["dimension"] == payload["dimension"]
    assert max(trace[-1]["weight_a"], trace[-1]["weight_b"]) < 1e-4 / 100


def test_ed_sweep_csv(capsys):
    code = run(["ed", "--N", "2", "--g2", "0.2", "--g1-min", "0.3",
                "--g1-max", "0.9", "--steps", "3"])
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0].endswith("photon_a,photon_b,n_atoms,cutoff_a,cutoff_b")
    assert len(lines) == 4


def test_ed_requires_atom_count(capsys):
    assert run(["ed", "--g1", "0.5"]) == 2
    assert "requires --N" in capsys.readouterr().err


def test_ed_partial_sweep_flags_exit_2(capsys):
    assert run(["ed", "--N", "2", "--g1-min", "0.3", "--steps", "3"]) == 2
    assert run(["ed", "--N", "2", "--g1-min", "0.5", "--g1-max", "1", "--steps", "0"]) == 2
    assert "steps must be >= 2" in capsys.readouterr().err
    assert run(["ed", "--N", "2", "--g1-min", "1", "--g1-max", "0.5", "--steps", "3"]) == 2
    assert "range must satisfy start < end" in capsys.readouterr().err


def test_ed_capacity_exhaustion_exits_3(tmp_path, capsys, monkeypatch):
    # every size here is refused before any array of its size is allocated
    def refuse(space):
        raise AssertionError(f"the index of {space} built for a rejected size")

    monkeypatch.setattr(exactdiag.TruncatedSpace, "index", property(refuse))
    code = run(["ed", "--N", "40", "--g1", "0.7", "--cutoff-a", "400",
                "--cutoff-b", "400"])
    assert code == 3
    assert "did not converge" in capsys.readouterr().err
    huge = str(10 ** 6)
    for argv in (["ed", "--N", huge], ["ed", "--N", huge, "--cutoff-a", "8", "--cutoff-b", "8"],
                 ["parity-check", "--N", huge]):
        assert run(argv) == 3
        assert "exceeds the dimension limit 2000000" in capsys.readouterr().err

    # an oversized sweep is refused before any cutoff search
    def no_cutoffs(*args, **kwargs):
        raise AssertionError("converge_cutoffs called for a rejected sweep")

    def no_kernel(*args):
        raise AssertionError("classify_arrays called for a rejected sweep")

    monkeypatch.setattr(exactdiag, "converge_cutoffs", no_cutoffs)
    monkeypatch.setattr(scan, "classify_arrays", no_kernel)
    out = tmp_path / "sweep.csv"
    for steps in ("20000", huge):
        start = time.perf_counter()
        assert run(["ed", "--N", huge, "--g1-min", "0.1", "--g1-max", "1",
                    "--steps", steps, "--output", str(out)]) == 3
        # the sweep is passed on as coupling arrays, with no per-step objects
        assert time.perf_counter() - start < 1.0
        assert "exceeds the dimension limit 2000000" in capsys.readouterr().err
        assert not out.exists()


def test_capacity_message_lists_the_trials_solved(capsys, monkeypatch):
    # from a floor of (4, 4) the tail weights fail; the first growth step
    # fits under the limit, the second does not
    p = ModelParams(g1=0.9, g2=0.4)
    monkeypatch.setattr(exactdiag, "CUTOFF_FLOOR", 4)
    monkeypatch.setattr(exactdiag, "DEFAULT_DIM_LIMIT", 600)
    with pytest.raises(CapacityError) as refused:
        exactdiag.converge_cutoffs(p, 3)
    assert [(t["cutoff_a"], t["cutoff_b"]) for t in refused.value.trace] == [(4, 4), (6, 6)]
    assert run(["ed", "--N", "3", "--g1", "0.9", "--g2", "0.4"]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "exceeds the dimension limit 600; trials solved: " in err
    for t in refused.value.trace:
        assert (f"cutoffs {t['cutoff_a']}/{t['cutoff_b']} (dimension {t['dimension']}, "
                f"photon_a {t['photon_a']:.6g}, photon_b {t['photon_b']:.6g})") in err
    # a refusal before any trial keeps its message as it is
    assert run(["ed", "--N", "3", "--cutoff-a", "400", "--cutoff-b", "400"]) == 3
    assert "trials solved" not in capsys.readouterr().err


def test_sweep_capacity_message_names_the_point_and_its_trials(capsys, monkeypatch):
    # the sweep's truncation holds its first point; the third point's tail
    # weight grows it past the limit
    monkeypatch.setattr(exactdiag, "DEFAULT_DIM_LIMIT", 1000)
    points = [ModelParams(g1=0.2 + 1.3 * i / 3, g2=0.2) for i in range(4)]  # as --steps 4
    with pytest.raises(CapacityError) as refused:
        exactdiag.solve_sweep(points, 3)
    trace = refused.value.trace
    assert trace and all(t["dimension"] <= 1000 for t in trace)
    assert run(["ed", "--N", "3", "--g2", "0.2", "--g1-min", "0.2", "--g1-max", "1.5",
                "--steps", "4"]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert ("exceeds the dimension limit 1000 at the sweep point g1 = 1.06667, g2 = 0.2; "
            "trials solved: ") in err
    for t in trace:
        assert f"cutoffs {t['cutoff_a']}/{t['cutoff_b']} (dimension {t['dimension']}, " in err
    # a sweep refused in its first point's cutoff search names that point too
    with pytest.raises(CapacityError) as refused:
        exactdiag.solve_sweep([ModelParams(g1=1.5, g2=0.2), ModelParams(g1=1.6, g2=0.2)], 3)
    trace = refused.value.trace
    assert trace and all(t["dimension"] <= 1000 for t in trace)
    assert run(["ed", "--N", "3", "--g2", "0.2", "--g1-min", "1.5", "--g1-max", "1.6",
                "--steps", "2"]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert ("exceeds the dimension limit 1000 at the sweep point g1 = 1.5, g2 = 0.2; "
            "trials solved: ") in err
    for t in trace:
        assert f"cutoffs {t['cutoff_a']}/{t['cutoff_b']} (dimension {t['dimension']}, " in err


def test_parity_check_json(capsys):
    code = run(["parity-check", "--N", "3", "--g1", "0.9", "--g2", "0.7",
                "--cutoff-a", "5", "--cutoff-b", "5"])
    assert code == 0
    payload = _json_out(capsys)
    assert payload["max_commutator"] <= 1e-10
    norms = [payload[key] for key in ("commutator_l", "commutator_r", "commutator_g")]
    assert payload["max_commutator"] == max(norms)


def test_parity_check_requires_atom_count():
    assert run(["parity-check", "--cutoff-a", "4", "--cutoff-b", "4"]) == 2


def test_invalid_frequency_exits_2(capsys):
    assert run(["critical", "--omega-a", "-1"]) == 2
    assert "omega_a" in capsys.readouterr().err


def test_config_file_provides_defaults(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[critical]\nomega31 = 1.7\ng1 = 0.75  # inline comment\n")
    assert run(["critical", "--config", str(cfg)]) == 0
    payload = _json_out(capsys)
    assert payload["params"]["g1"] == 0.75
    assert payload["params"]["omega31"] == 1.7


def test_explicit_flag_beats_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[critical]\ng1 = 0.75\n")
    assert run(["critical", "--config", str(cfg), "--g1", "1.25"]) == 0
    assert _json_out(capsys)["params"]["g1"] == 1.25


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[critical]\ncoupling_strength = 0.75\n")
    assert run(["critical", "--config", str(cfg)]) == 2
    assert "coupling_strength" in capsys.readouterr().err


def test_missing_config_file_exits_2(tmp_path):
    assert run(["critical", "--config", str(tmp_path / "nope.cfg")]) == 2


def test_config_section_scoped_to_subcommand(tmp_path, capsys):
    # keys under another subcommand's section are ignored
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[line-cut]\ng2 = 0.9\n\n[critical]\ng1 = 0.6\n")
    assert run(["critical", "--config", str(cfg)]) == 0
    assert _json_out(capsys)["params"]["g2"] == 0.0


def test_seed_gives_byte_identical_output(capsys):
    args = ["ed", "--N", "2", "--g1", "0.8", "--g2", "0.5",
            "--cutoff-a", "12", "--cutoff-b", "12", "--seed", "42"]
    assert run(args) == 0
    first = capsys.readouterr().out
    assert run(args) == 0
    second = capsys.readouterr().out
    assert first == second
    # a different start vector must land on the same ground state
    assert run(args[:-1] + ["7"]) == 0
    other = json.loads(capsys.readouterr().out)
    assert other["energy"] == pytest.approx(json.loads(first)["energy"],
                                            abs=1e-8)


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "vdicke.cli", "critical", "--g1", "1.0"],
        env=_ENV, capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["gtilde_c2"] == pytest.approx(1.0, abs=1e-9)


def test_tiny_coupling_prints_no_warning():
    # the masked branch quantities overflow at a coupling this close to 0;
    # numpy must not report that on stderr
    proc = subprocess.run(
        [sys.executable, "-m", "vdicke.cli", "meanfield", "--g1", "1e-200"],
        env=_ENV, capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["selected"]["phase"] == "Normal"


def test_import_defaults_blas_to_one_thread():
    # a value the user set is kept; otherwise the package asks for one thread
    env = {key: value for key, value in _ENV.items() if key != "OPENBLAS_NUM_THREADS"}
    probe = [sys.executable, "-c", "import os, vdicke; print(os.environ['OPENBLAS_NUM_THREADS'])"]
    for given, expected in ((None, "1"), ("2", "2")):
        if given is not None:
            env["OPENBLAS_NUM_THREADS"] = given
        proc = subprocess.run(probe, env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == expected


def test_no_command_imports_scipy():
    # every command, the finite-N ones included, runs on numpy alone
    probe = """
import os, sys
def scipy_loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
import vdicke
assert not scipy_loaded(), scipy_loaded()
from vdicke.cli import run
for argv in (["critical", "--g1", "0.75"], ["meanfield", "--g1", "0.9", "--g2", "0.7"],
             ["spectrum", "--g1", "1.3", "--g2", "1.2"],
             ["phase-diagram", "--g1-min", "0", "--g1-max", "1.3", "--g2-min", "0",
              "--g2-max", "1", "--n1", "3", "--n2", "3"],
             ["boundary", "--which", "gtilde_c2", "--from", "0.6", "--to", "1", "--steps", "3"],
             ["line-cut", "--g2", "0.75", "--g1-min", "0.5", "--g1-max", "1", "--steps", "3"],
             ["overlap-area", "--ratios", "1.0,1.4", "--resolution", "5"],
             ["ed", "--N", "2", "--g1", "0.6", "--g2", "0.3"],
             ["ed", "--N", "3", "--g2", "0.75", "--g1-min", "0.5", "--g1-max", "1", "--steps", "3"],
             ["parity-check", "--N", "3", "--g1", "0.9", "--g2", "0.7"]):
    assert run(argv + ["--output", os.devnull]) == 0, argv
    assert not scipy_loaded(), (argv, scipy_loaded())
"""
    proc = subprocess.run([sys.executable, "-c", probe], env=_ENV, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_no_ed_run_imports_numpy_random():
    # start vectors are hashed from the seed: an ed sweep and an ed point run
    # without numpy.random, which costs a process megabytes of RSS to import
    probe = """
import os, sys
from vdicke.cli import run
for argv in (["ed", "--N", "3", "--g2", "0.75", "--g1-min", "0.5", "--g1-max", "1", "--steps", "3"],
             ["ed", "--N", "3", "--g1", "0.9", "--g2", "0.6"]):
    assert run(argv + ["--output", os.devnull]) == 0, argv
    assert "numpy.random" not in sys.modules, argv
"""
    proc = subprocess.run([sys.executable, "-c", probe], env=_ENV, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


# sha256 of each output, recorded before the handlers returned their
# results; `ed` is left out, as its last digit depends on the CPU and BLAS
@pytest.mark.parametrize("argv, digest", [
    (["critical", "--omega31", "1.7", "--g1", "0.75", "--g2", "0.6"],
     "444042fa507943fe5e03de436274ed0797905cbe636f7ef8e9c11897c41b1fd8"),
    (["meanfield", "--omega31", "1.7", "--g1", "0.9", "--g2", "0.7"],
     "6a47b1d19ee20f0e1bc5365969c41ca4446cab859a29f9b2424cc2b009d410e7"),
    (["spectrum", "--omega31", "1.7", "--g1", "1.30384048104053", "--g2", "0.6"],
     "ec47aed53c4217c87772976fe8c4f7d4f93ec4f4b1a95debd4e37a247def2e31"),
    (["boundary", "--which", "gtilde_c2", "--omega31", "1.7", "--from", "0.66", "--to", "1.0",
      "--steps", "4"],
     "58b2f99b22674eb4a708637d5505305f2de20f60497fdb85c512075ccf17d87b"),
    (["parity-check", "--N", "3", "--g1", "0.9", "--g2", "0.7", "--cutoff-a", "5",
      "--cutoff-b", "5"],
     "86b8e049078a82d65d9d03a622aa391a99b1cb63940f9d4afc9dc22dbb53e731"),
    (["overlap-area", "--ratios", "1.0,1.4", "--resolution", "25"],
     "41253d95a9d3439f27d415c96b43ab5cc3d88bb515ca3a9e797d1d376909f2bb"),
    (["phase-diagram", "--omega31", "1.7", "--g1-min", "0", "--g1-max", "1.3", "--g2-min", "0",
      "--g2-max", "1", "--n1", "4", "--n2", "4"],
     "9495f5011c69117c0a38210df189f5ed498df001478895a0fffbbab904531a61"),
    (["line-cut", "--g2", "0.75", "--g1-min", "0.5", "--g1-max", "1.0", "--steps", "5"],
     "3c53a04e5f837ece73d50ed51a6d7b1470b1320a10788e05e79c31167f5228f4"),
])
def test_output_bytes_are_pinned(argv, digest, tmp_path):
    out = tmp_path / "out"
    assert run(argv + ["--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_missing_required_option_exits_2():
    # line-cut without its mandatory sweep window
    assert run(["line-cut", "--g2", "0.5"]) == 2


_ED_POINT = ["ed", "--N", "2", "--g1", "0.6", "--g2", "0.3"]
_ED_SWEEP = ["ed", "--N", "2", "--g2", "0.3", "--g1-min", "0.5", "--g1-max", "1", "--steps", "3"]
_UNREPRESENTABLE = "the inputs lie outside the range the closed forms can represent"


# a Hamiltonian whose scale squared overflows is refused before it is solved,
# in point mode with explicit cutoffs and at any row of a sweep
@pytest.mark.parametrize("argv", [
    ["ed", "--N", "2", "--g1", "1e200", "--cutoff-a", "4", "--cutoff-b", "4"],
    ["ed", "--N", "2", "--g2", "1e200", "--g1-min", "0.5", "--g1-max", "1", "--steps", "3"],
    ["ed", "--N", "2", "--g2", "0.3", "--g1-min", "0.5", "--g1-max", "1e200", "--steps", "3"],
])
def test_ed_refuses_an_overflowing_hamiltonian(argv, tmp_path, capsys):
    out = tmp_path / "out"
    assert run(argv + ["--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"configuration error: {_UNREPRESENTABLE}" in err
    assert "squared overflows a float" in err and err.count("\n") == 1
    assert not out.exists()


# the closed forms refuse a surface past the float range as the oracle does:
# alpha + beta overflows (the selected energy was null, and a line cut wrote -inf)
@pytest.mark.parametrize("argv", [
    ["meanfield", "--g1", "1e155"],
    ["line-cut", "--g2", "0.5", "--g1-min", "1e154", "--g1-max", "1e156", "--steps", "3"],
])
def test_meanfield_commands_refuse_an_overflowing_surface(argv, tmp_path, capsys):
    out = tmp_path / "out"
    assert run(argv + ["--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"configuration error: {_UNREPRESENTABLE} (OverflowError: " in err
    assert "alpha = 4 g1^2 / omega_a = inf" in err and err.count("\n") == 1
    assert not out.exists()


# every numeric flag at its bound, and every ed flag outside its mode:
# refused with exit 2, a message, and no output file, before any eigensolve
@pytest.mark.parametrize("argv, message", [
    (["ed", "--N", "0"], "n_atoms and both cutoffs must be >= 1"),
    (["ed", "--N", "2", "--cutoff-a", "0", "--cutoff-b", "5"],
     "n_atoms and both cutoffs must be >= 1"),
    (_ED_POINT + ["--seed", "-1"], "seed must be >= 0"),
    # a space small enough for the dense path never draws a seed vector
    (["ed", "--N", "1", "--cutoff-a", "1", "--cutoff-b", "1", "--seed", "-1"],
     "seed must be >= 0"),
    (_ED_POINT + ["--tol", "inf"], "eigensolver tolerance eig_tol must be finite and > 0"),
    (_ED_POINT + ["--tol", "0"], "eigensolver tolerance eig_tol must be finite and > 0"),
    (_ED_POINT + ["--tol", "-1"], "eigensolver tolerance eig_tol must be finite and > 0"),
    (_ED_POINT + ["--tol", "nan"], "eigensolver tolerance eig_tol must be finite and > 0"),
    (_ED_POINT + ["--cutoff-a", "4", "--cutoff-b", "4", "--tol", "0"],
     "eigensolver tolerance tol must be finite and > 0"),
    (_ED_POINT + ["--cutoff-tol", "nan"], "photon-number tolerance tol must be finite and > 0"),
    (_ED_POINT + ["--cutoff-tol", "-1"], "photon-number tolerance tol must be finite and > 0"),
    (_ED_SWEEP + ["--cutoff-tol", "nan"], "photon-number tolerance tol must be finite and > 0"),
    (_ED_SWEEP + ["--tol", "inf"], "eigensolver tolerance eig_tol must be finite and > 0"),
    (["parity-check", "--N", "2", "--cutoff-b", "0"], "n_atoms and both cutoffs must be >= 1"),
    (["overlap-area", "--resolution", "1"], "resolution must be >= 2"),
    (["boundary", "--which", "normal_left", "--from", "0.5", "--to", "1", "--steps", "1"],
     "steps must be >= 2"),
    (["ed", "--N", "3", "--g2", "0.75", "--g1-min", "0.5", "--g1-max", "1", "--steps", "3",
      "--cutoff-a", "5", "--cutoff-b", "5"],
     "--cutoff-a and --cutoff-b set a single point's truncation"),
    (_ED_SWEEP + ["--cutoff-b", "5"], "--cutoff-a and --cutoff-b set a single point's truncation"),
    (_ED_POINT + ["--diagonal"], "--diagonal applies to an ed sweep only"),
    # couplings whose closed forms overflow or divide by an underflowed mu
    (["critical", "--g1", "1e200"], _UNREPRESENTABLE),
    (["boundary", "--which", "gtilde_c2", "--from", "1", "--to", "1e200", "--steps", "2"],
     _UNREPRESENTABLE),
    (["spectrum", "--g1", "1e300", "--g2", "1e300"], _UNREPRESENTABLE),
    (["ed", "--N", "2", "--g1", "1e200"], _UNREPRESENTABLE),
    # and their mirrors on the right branch
    (["critical", "--g2", "1e200"], _UNREPRESENTABLE),
    (["boundary", "--which", "gtilde_c1", "--from", "1", "--to", "1e200", "--steps", "2"],
     _UNREPRESENTABLE),
    (["ed", "--N", "2", "--g2", "1e200"], _UNREPRESENTABLE),
    # a sweep sets g1 itself, and a diagonal sweep g2 too
    (_ED_SWEEP + ["--g1", "0.9"], "--g1 sets a single point's coupling"),
    (_ED_SWEEP + ["--diagonal"], "--g2 does not apply to a --diagonal sweep"),
])
def test_numeric_flag_at_its_bound_exits_2(argv, message, tmp_path, capsys, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("eigensolver called for a refused run")

    monkeypatch.setattr(exactdiag, "ground_state", no_solve)
    monkeypatch.setattr(exactdiag, "lowest_two", no_solve)
    out = tmp_path / "out"
    assert run(argv + ["--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"configuration error: {message}" in err
    assert "Traceback" not in err and err.count("\n") == 1
    assert not out.exists()


# the same refusals when the coupling a sweep sets comes from the config section
@pytest.mark.parametrize("section, message", [
    ("g1 = 0.9\n", "--g1 sets a single point's coupling"),
    ("g2 = 0.3\ndiagonal = true\n", "--g2 does not apply to a --diagonal sweep"),
])
def test_ed_sweep_refuses_a_configured_coupling_it_sets(section, message, tmp_path, capsys):
    cfg = tmp_path / "ed.cfg"
    cfg.write_text("[ed]\nn_atoms = 2\ng1_min = 0.5\ng1_max = 1\nsteps = 2\n" + section)
    out = tmp_path / "out"
    assert run(["ed", "--config", str(cfg), "--output", str(out)]) == 2
    assert f"configuration error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_spectrum_names_the_block_that_overflows(capsys):
    # g1 ** 2 raised OverflowError(34, 'Numerical result out of range'), naming nothing
    assert run(["spectrum", "--g1", "1e155"]) == 2
    err = capsys.readouterr().err
    assert (f"configuration error: {_UNREPRESENTABLE} (OverflowError: the fluctuation block "
            "overflows a float: freq1 = 1.0, freq2 = 1.0, coupling = 1e+155)") in err
    assert err.count("\n") == 1


def _config(tmp_path, command, section):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"[{command}]\n{section}")
    return str(cfg)


# a config section is read as the flags it stands for, ahead of the command line
@pytest.mark.parametrize("command, section, given, flags", [
    ("ed", "n_atoms = 2\ng2 = 0.2\ng1_min = 0.3\ng1_max = 0.9\nsteps = 3\ndiagonal = false\n",
     [], ["--N", "2", "--g2", "0.2", "--g1-min", "0.3", "--g1-max", "0.9", "--steps", "3"]),
    ("ed", "n_atoms = 2\ng1_min = 0.3\ng1_max = 0.9\nsteps = 3\ndiagonal = yes\n",
     ["--steps", "2"], ["--N", "2", "--g1-min", "0.3", "--g1-max", "0.9", "--diagonal",
                        "--steps", "2"]),
    # required options given in the config alone
    ("line-cut", "g1_min = 0.5\ng1_max = 1.0\n", ["--g2", "0.75", "--steps", "5"],
     ["--g2", "0.75", "--g1-min", "0.5", "--g1-max", "1.0", "--steps", "5"]),
    ("boundary", "which = gtilde_c2\nomega31 = 1.7\nlo = 0.66\nhi = 1.0\nsteps = 9\n",
     ["--steps", "4"], ["--which", "gtilde_c2", "--omega31", "1.7", "--from", "0.66",
                        "--to", "1.0", "--steps", "4"]),
    ("overlap-area", "ratios = 1.0,1.4\nresolution = 25\n", [],
     ["--ratios", "1.0,1.4", "--resolution", "25"]),
    ("critical", "g1 = -0.5\n", ["--g1", "0.75"], ["--g1", "0.75"]),
])
def test_a_config_section_reads_as_its_flags(command, section, given, flags, tmp_path):
    from_config, from_flags = tmp_path / "config.out", tmp_path / "flags.out"
    cfg = _config(tmp_path, command, section)
    assert run([command, "--config", cfg, *given, "--output", str(from_config)]) == 0
    assert run([command, *flags, "--output", str(from_flags)]) == 0
    assert from_config.read_bytes() == from_flags.read_bytes()


# argparse types, checks and requires a config value as its flag, and refuses
# an invalid one even where a flag on the command line overrides it
@pytest.mark.parametrize("command, section, given, message", [
    ("ed", "n_atoms = 2\ndiagonal = maybe\n", [],
     "configuration error: bad value for 'diagonal' in section [ed]: "
     "expected a boolean, got 'maybe'"),
    ("phase-diagram", "g1_min = 0\ng1_max = 1\ng2_min = 0\ng2_max = 1\nn1 = 3.5\n", [],
     "error: argument --n1: invalid int value: '3.5'"),
    ("phase-diagram", "g1_min = 0\ng1_max = 1\ng2_min = 0\ng2_max = 1\nn1 = 3.5\n",
     ["--n1", "3"], "error: argument --n1: invalid int value: '3.5'"),
    ("boundary", "which = nope\nlo = 0.5\nhi = 1\n", [],
     "error: argument --which: invalid choice: 'nope'"),
    ("boundary", "which = nope\nlo = 0.5\nhi = 1\n", ["--which", "normal_left"],
     "error: argument --which: invalid choice: 'nope'"),
    ("line-cut", "g2 = 0.75\n", [],
     "vdicke line-cut: error: the following arguments are required: --g1-min, --g1-max"),
    ("critical", "g1 = 0.5\ncoupling = 1\n", [],
     "configuration error: unknown key 'coupling' in config section [critical]"),
    # a file that configparser cannot read exited 1 with a traceback
    ("critical", "g1 = 5%\n", [], "configuration error: '%' must be followed by '%' or '('"),
    ("critical", "g1 = 1\ng1 = 2\n", [], "option 'g1' in section 'critical' already exists"),
])
def test_a_config_value_is_refused_as_its_flag(command, section, given, message, tmp_path,
                                               capsys):
    out = tmp_path / "out"
    assert run([command, "--config", _config(tmp_path, command, section), *given,
                "--output", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_config_flag_is_found_as_the_command_parser_finds_it(tmp_path, capsys):
    cfg = _config(tmp_path, "critical", "g1 = 0.75\n")
    for spelling in (["--config", cfg], [f"--config={cfg}"], ["--conf", cfg]):
        assert run(["critical", *spelling]) == 0
        assert _json_out(capsys)["params"]["g1"] == 0.75
    # ambiguous among ed's flags: refused by argparse, and no file is read
    assert run(["ed", "--N", "2", "--c", str(tmp_path / "absent.cfg")]) == 2
    assert "ambiguous option: --c could match --config, --cutoff-a" in capsys.readouterr().err
    headless = tmp_path / "headless.cfg"
    headless.write_text("g1 = 0.75\n")
    assert run(["critical", "--config", str(headless)]) == 2
    err = capsys.readouterr().err
    assert "configuration error: File contains no section headers." in err
    # help is printed before the config is read
    broken = _config(tmp_path, "critical", "coupling = 1\n")
    assert run(["critical", "--config", broken, "--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: vdicke critical")
