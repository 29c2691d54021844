"""Acceptance gate for the workbench.

Each test checks one primary requirement end to end and prints a
single verdict line (bypassing capture) so a plain ``pytest`` run
shows PASS/FAIL per criterion at a glance.
"""

import math
import tempfile
import time
from pathlib import Path

import numpy as np

from vdicke.cli import run as cli_run

from vdicke.exactdiag import (
    TruncatedSpace,
    build_hamiltonian,
    converge_cutoffs,
    ground_state,
    parity_commutator_norms,
    parity_operators,
    solve_point,
)
from vdicke.fluctuations import (
    critical_coupling_by_zero_mode,
    left_branch_form,
    normal_phase_forms,
    right_branch_form,
)
from vdicke.meanfield import brute_force_minimize, classify, stationary_branches
from vdicke.model import (
    ModelParams,
    PhaseLabel,
    critical_g1,
    critical_g2,
    renormalized_critical_g1,
    renormalized_critical_g2,
)
from vdicke.scan import ed_sweep, overlap_area


def criterion(label):
    """Print one [PASS]/[FAIL] line per criterion, straight to the tty."""

    def decorate(func):
        def wrapper(capsys):
            t0 = time.time()
            with capsys.disabled():
                try:
                    detail = func()
                except BaseException as exc:
                    print(f"\n[FAIL] {label}: {exc}", flush=True)
                    raise
                extra = f" ({detail})" if detail else ""
                print(f"\n[PASS] {label}{extra} [{time.time() - t0:.1f}s]",
                      flush=True)

        # keep the original name for pytest's verbose listing, but do
        # not set __wrapped__: the capsys parameter must stay visible
        wrapper.__name__ = func.__name__
        wrapper.__doc__ = func.__doc__
        return wrapper

    return decorate


# ---------------------------------------------------------------------------

@criterion("criterion 1: closed-form classification matches brute-force "
           "minimization on two 50x50 coupling grids")
def test_criterion_1_oracle_grids():
    t0 = time.time()
    grids = []
    for base in (ModelParams(), ModelParams(omega31=1.7)):
        grids.append((base,
                      np.linspace(0.0, 2.0 * critical_g1(base), 50),
                      np.linspace(0.0, 2.0 * critical_g2(base), 50)))
    checked = 0
    for base, g1s, g2s in grids:
        for g1 in g1s:
            for g2 in g2s:
                p = ModelParams(base.omega21, base.omega31, base.omega_a,
                                base.omega_b, g1=float(g1), g2=float(g2))
                picked = classify(p)
                oracle = brute_force_minimize(p, resolution=400)
                if oracle.phase is not picked.phase:
                    # a mismatch is legitimate only on a knife edge where
                    # the two condensates tie below the oracle resolution
                    energies = {s.phase: s.energy for s in stationary_branches(p)
                                if s.physical}
                    gap = abs(energies.get(PhaseLabel.LEFT_SR, math.inf)
                              - energies.get(PhaseLabel.RIGHT_SR, math.inf))
                    assert gap <= 1e-8, (
                        f"label mismatch at {p}: {oracle.phase} vs {picked.phase}")
                assert abs(oracle.energy - picked.energy) <= 1e-6, f"energy at {p}"
                if picked.degenerate_valley:
                    total_o = oracle.psi2 ** 2 + oracle.psi3 ** 2
                    total_p = picked.psi2 ** 2 + picked.psi3 ** 2
                    assert abs(total_o - total_p) <= 1e-5, f"valley weight at {p}"
                else:
                    assert abs(oracle.psi2 ** 2 - picked.psi2 ** 2) <= 1e-5, f"psi2 at {p}"
                    assert abs(oracle.psi3 ** 2 - picked.psi3 ** 2) <= 1e-5, f"psi3 at {p}"
                checked += 1
    elapsed = time.time() - t0
    assert elapsed < 120.0, f"oracle sweep took {elapsed:.0f}s (budget 120s)"
    return f"{checked} points, {elapsed:.0f}s"


@criterion("criterion 2: fluctuation zero modes locate the bare and "
           "renormalized thresholds to 1e-8; threshold identities hold to 1e-12")
def test_criterion_2_zero_mode_boundaries():
    rng = np.random.default_rng(2024)
    for draw in range(100):
        base = ModelParams(
            omega21=rng.uniform(0.4, 2.0), omega31=rng.uniform(0.4, 2.0),
            omega_a=rng.uniform(0.4, 2.0), omega_b=rng.uniform(0.4, 2.0))

        # the normal-state form goes soft at the bare threshold
        if draw % 2 == 0:
            bare = critical_g1(base)
            normal_family = lambda g, b=base: normal_phase_forms(
                ModelParams(b.omega21, b.omega31, b.omega_a, b.omega_b, g1=g))[0]
        else:
            bare = critical_g2(base)
            normal_family = lambda g, b=base: normal_phase_forms(
                ModelParams(b.omega21, b.omega31, b.omega_a, b.omega_b, g2=g))[1]
        located_bare = critical_coupling_by_zero_mode(
            normal_family, (0.2 * bare, 3.0 * bare))
        assert abs(located_bare - bare) <= 1e-8, \
            f"draw {draw}: bare threshold {located_bare} vs {bare}"

        if draw % 2 == 0:
            g1 = critical_g1(base) * rng.uniform(1.02, 3.0)
            p = ModelParams(base.omega21, base.omega31, base.omega_a,
                            base.omega_b, g1=g1)
            target = renormalized_critical_g2(p)
            family = lambda g, p=p: right_branch_form(
                ModelParams(p.omega21, p.omega31, p.omega_a, p.omega_b,
                            g1=p.g1, g2=g))
        else:
            g2 = critical_g2(base) * rng.uniform(1.02, 3.0)
            p = ModelParams(base.omega21, base.omega31, base.omega_a,
                            base.omega_b, g2=g2)
            target = renormalized_critical_g1(p)
            family = lambda g, p=p: left_branch_form(
                ModelParams(p.omega21, p.omega31, p.omega_a, p.omega_b,
                            g1=g, g2=p.g2))
        located = critical_coupling_by_zero_mode(family, (0.2 * target, 3.0 * target))
        assert abs(located - target) <= 1e-8, f"draw {draw}: {located} vs {target}"

        # at onset the renormalized threshold collapses to the bare one
        on_l = ModelParams(base.omega21, base.omega31, base.omega_a,
                           base.omega_b, g1=critical_g1(base))
        assert abs(renormalized_critical_g2(on_l) - critical_g2(base)) \
            <= 1e-12 * max(1.0, critical_g2(base))
        on_r = ModelParams(base.omega21, base.omega31, base.omega_a,
                           base.omega_b, g2=critical_g2(base))
        assert abs(renormalized_critical_g1(on_r) - critical_g1(base)) \
            <= 1e-12 * max(1.0, critical_g1(base))
    return "100 random draws, both branch families"


@criterion("criterion 3: all four phases meet at the quadruple point "
           "(probes offset by 1e-3)")
def test_criterion_3_quadruple_point():
    p0 = ModelParams()
    gc1, gc2 = critical_g1(p0), critical_g2(p0)
    delta = 1e-3
    probes = {
        (-1, -1): PhaseLabel.NORMAL,
        (+1, -1): PhaseLabel.LEFT_SR,
        (-1, +1): PhaseLabel.RIGHT_SR,
        (+1, +1): PhaseLabel.LEFT_RIGHT_SR,
    }
    for (s1, s2), expected in probes.items():
        got = classify(ModelParams(g1=gc1 + s1 * delta, g2=gc2 + s2 * delta)).phase
        assert got is expected, f"probe ({s1},{s2}): {got} != {expected}"
    return "Normal / LeftSR / RightSR / LeftRightSR around (0.5, 0.5)"


@criterion("criterion 4: first-order photon jump on the g2=0.75 cut, "
           "balanced midpoint carries exactly half")
def test_criterion_4_first_order_jump():
    low = 65.0 / 288.0   # balanced point: each mode holds half the field
    high = 65.0 / 144.0  # single condensate just across the boundary
    below = classify(ModelParams(g1=0.75 - 1e-6, g2=0.75))
    assert below.phase is PhaseLabel.RIGHT_SR
    assert below.phi_a == 0.0

    at = classify(ModelParams(g1=0.75, g2=0.75))
    assert at.phase is PhaseLabel.LEFT_RIGHT_SR
    assert abs(at.phi_a ** 2 - low) <= 1e-6
    assert abs(at.phi_b ** 2 - low) <= 1e-6

    above = classify(ModelParams(g1=0.75 + 1e-6, g2=0.75))
    assert above.phase is PhaseLabel.LEFT_SR

    left_branch = [s for s in stationary_branches(ModelParams(g1=0.75, g2=0.75))
                   if s.phase is PhaseLabel.LEFT_SR][0]
    assert abs(left_branch.phi_a ** 2 - high) <= 1e-6
    # exact halving of the condensate weight on the degenerate line
    assert abs(2.0 * at.phi_a ** 2 - left_branch.phi_a ** 2) <= 1e-12
    return "0 -> 65/288 -> 65/144 across g1 = 0.75"


@criterion("criterion 5: continuous onset at the left threshold with "
           "d(psi3^2)/dg1 = 1/g_c1 to 1e-4")
def test_criterion_5_threshold_slope():
    h = 1e-6
    for base in (ModelParams(), ModelParams(omega31=1.7)):
        gc = critical_g1(base)
        up = classify(ModelParams(base.omega21, base.omega31, base.omega_a,
                                  base.omega_b, g1=gc + h))
        slope = up.psi3 ** 2 / h   # psi3^2 = 0 exactly at threshold
        assert abs(slope - 1.0 / gc) <= 1e-4, f"slope {slope} vs {1.0 / gc}"
        # the field amplitude rises from zero, no jump
        assert up.phi_a ** 2 <= 1e-5
        at = classify(ModelParams(base.omega21, base.omega31, base.omega_a,
                                  base.omega_b, g1=gc))
        assert at.psi3 ** 2 <= 1e-15
    return "both frequency settings"


@criterion("criterion 6: bistable overlap fraction is zero at ratio 1 and "
           "nondecreasing in the frequency ratio")
def test_criterion_6_overlap_monotone():
    ratios = (1.0, 1.2, 1.4, 1.7)
    areas = [overlap_area(ModelParams(), r, resolution=100) for r in ratios]
    assert areas[0] == 0.0, f"area at ratio 1 is {areas[0]}"
    for lo, hi in zip(areas, areas[1:]):
        assert hi >= lo, f"overlap not monotone: {areas}"
    assert areas[-1] > 0.0
    return f"areas {[round(a, 4) for a in areas]}"


@criterion("criterion 7: finite-N ground state approaches the balanced "
           "condensate (N up to 10, budget 300s)")
def test_criterion_7_finite_n():
    t0 = time.time()
    target = 65.0 / 288.0
    balanced = ModelParams(g1=0.75, g2=0.75)
    deviations = []
    for n in (4, 6, 8, 10):
        space, _, _ = converge_cutoffs(balanced, n)
        res = solve_point(balanced, space=space)
        assert abs(res.photon_a - res.photon_b) <= 1e-6, \
            f"N={n}: mode symmetry broken by {abs(res.photon_a - res.photon_b)}"
        deviations.append(abs(res.photon_a - target))
        if n == 10:
            assert abs(res.photon_a - target) <= 0.15 * target, \
                f"N=10 photon_a {res.photon_a} beyond 15% of {target}"
            assert abs(res.photon_b - target) <= 0.15 * target
    for lo, hi in zip(deviations[1:], deviations):
        assert lo < hi, f"deviation not shrinking with N: {deviations}"

    # the smoothed first-order crossing: one field grows, the other dies
    table = ed_sweep(ModelParams(), np.linspace(0.6, 0.9, 7), 0.75, 10)
    rising = table.photon_a.tolist()
    falling = table.photon_b.tolist()
    for lo, hi in zip(rising, rising[1:]):
        assert hi > lo, f"photon_a not monotone across the crossing: {rising}"
    for hi, lo in zip(falling, falling[1:]):
        assert lo < hi, f"photon_b not monotone across the crossing: {falling}"
    elapsed = time.time() - t0
    assert elapsed < 300.0, f"finite-N suite took {elapsed:.0f}s (budget 300s)"
    return f"deviations {[round(d, 4) for d in deviations]}, {elapsed:.0f}s"


@criterion("criterion 8: parity commutators vanish to 1e-10, parities "
           "factorize exactly, branch relabeling swaps observables")
def test_criterion_8_symmetry_suite():
    rng = np.random.default_rng(88)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        p = ModelParams(
            omega21=rng.uniform(0.4, 2.0), omega31=rng.uniform(0.4, 2.0),
            omega_a=rng.uniform(0.4, 2.0), omega_b=rng.uniform(0.4, 2.0),
            g1=rng.uniform(0.0, 1.5), g2=rng.uniform(0.0, 1.5))
        space = TruncatedSpace(n, int(rng.integers(2, 8)),
                               int(rng.integers(2, 8)))
        assert max(parity_commutator_norms(p, space)) <= 1e-10
        pl, pr, pg = parity_operators(space)
        assert np.array_equal(pg, pl * pr)
        ones = np.ones(space.dimension)
        assert np.array_equal(pl * pl, ones)
        assert np.array_equal(pr * pr, ones)

    # exchange symmetry: relabeling the branches (levels 2<->3 with
    # modes a<->b) is a basis permutation, so observables swap
    for p in (ModelParams(omega21=1.0, omega31=1.3, omega_a=0.8,
                          omega_b=1.1, g1=0.9, g2=0.55),
              ModelParams(omega21=1.6, omega31=0.7, omega_a=1.2,
                          omega_b=0.9, g1=0.4, g2=1.0)):
        swapped = ModelParams(omega21=p.omega31, omega31=p.omega21,
                              omega_a=p.omega_b, omega_b=p.omega_a,
                              g1=p.g2, g2=p.g1)
        states = [(3 - n2 - n3, n2, n3) for n3 in range(4) for n2 in range(4 - n3)]
        index = {s: i for i, s in enumerate(states)}
        p_atom = [index[(s[0], s[2], s[1])] for s in states]
        ca, cb = 6, 7
        h1 = build_hamiltonian(p, TruncatedSpace(3, ca, cb)).toarray()
        h2 = build_hamiltonian(swapped, TruncatedSpace(3, cb, ca)).toarray()
        old = np.arange(h1.shape[0]).reshape(len(states), ca + 1, cb + 1)
        perm = np.empty((len(states), cb + 1, ca + 1), dtype=int)
        for i in range(len(states)):
            perm[p_atom[i]] = old[i].T
        perm = perm.reshape(-1)
        assert np.max(np.abs(h2 - h1[np.ix_(perm, perm)])) <= 1e-13

        res = solve_point(p, space=TruncatedSpace(3, 8, 8))
        mirror = solve_point(swapped, space=TruncatedSpace(3, 8, 8))
        assert abs(res.photon_a - mirror.photon_b) <= 1e-10
        assert abs(res.photon_b - mirror.photon_a) <= 1e-10
        assert abs(res.pop2 - mirror.pop3) <= 1e-10
        assert abs(res.pop3 - mirror.pop2) <= 1e-10
    return "20 random truncations (N <= 4) plus two relabeling checks"


@criterion("fixtures: every reproduce/ config executes through the CLI")
def test_reproduce_fixtures_execute():
    reproduce = Path(__file__).resolve().parent.parent / "reproduce"
    out_dir = Path(tempfile.mkdtemp(prefix="vdicke-fixtures-"))
    # fig2b's overlap grid is downscaled by an explicit flag override
    # (flag beats config) so this gate stays fast; everything else,
    # the finite-N sweeps included, runs at the committed settings
    overrides = {
        "fig2b": ["--resolution", "40"],
    }
    commands = {
        "fig2a": "phase-diagram", "fig2b": "overlap-area",
        "fig3a": "phase-diagram", "fig3c": "line-cut",
        "fig4a": "ed", "fig4b": "ed",
    }
    for stem, command in commands.items():
        cfg = reproduce / f"{stem}.cfg"
        assert cfg.is_file(), f"missing fixture {cfg}"
        out = out_dir / f"{stem}.csv"
        argv = [command, "--config", str(cfg), "--output", str(out)]
        argv += overrides.get(stem, [])
        code = cli_run(argv)
        assert code == 0, f"{stem}: exit code {code}"
        lines = out.read_text().strip().split("\n")
        assert len(lines) >= 2, f"{stem}: empty output"
        assert "," in lines[0], f"{stem}: missing CSV header"
    # spot checks on the full-size mean-field outputs
    grid = (out_dir / "fig3a.csv").read_text().strip().split("\n")
    assert len(grid) == 1 + 101 * 101
    assert any(",LeftRightSR," in line for line in grid[1:])
    cut = (out_dir / "fig3c.csv").read_text().strip().split("\n")
    assert len(cut) == 1 + 201
    return "6 configs"


@criterion("criterion 9: iterative ground state matches dense "
           "diagonalization to 1e-9 (dimensions up to 2000)")
def test_criterion_9_dense_oracle():
    rng = np.random.default_rng(99)
    done = 0
    while done < 10:
        n = int(rng.integers(2, 6))
        ca = int(rng.integers(3, 12))
        cb = int(rng.integers(3, 12))
        space = TruncatedSpace(n, ca, cb)
        if space.dimension > 2000:
            continue
        p = ModelParams(
            omega21=rng.uniform(0.4, 2.0), omega31=rng.uniform(0.4, 2.0),
            omega_a=rng.uniform(0.4, 2.0), omega_b=rng.uniform(0.4, 2.0),
            g1=rng.uniform(0.0, 1.5), g2=rng.uniform(0.0, 1.5))
        h = build_hamiltonian(p, space)
        e0, vec = ground_state(h)
        dense = np.linalg.eigvalsh(h.toarray())
        assert abs(e0 - dense[0]) <= 1e-9 * max(1.0, abs(dense[0])), \
            f"dim {space.dimension}: {e0} vs {dense[0]}"
        residual = np.linalg.norm(h @ vec - e0 * vec)
        assert residual <= 1e-7
        done += 1
    return "10 random spaces"
