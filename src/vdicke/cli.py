"""Command-line interface.

Subcommands map one-to-one onto the package operations; sweeps emit
CSV, single points emit JSON, and every floating-point value is printed
with 12 significant digits.  Options may come from an INI-style config
file (one section per subcommand, keys named like the option dests);
command-line flags always win.  Exit codes: 0 success, 2 configuration
error, 3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
from contextlib import nullcontext
from dataclasses import asdict, dataclass, fields

from . import exactdiag
from .errors import CapacityError, ConvergenceError
from .fluctuations import (
    diagonalize,
    left_branch_form,
    normal_phase_forms,
    right_branch_form,
)
from .meanfield import classify, stationary_branches
from .model import (
    ModelParams,
    critical_g1,
    critical_g2,
    mu_left,
    mu_right,
    renormalized_critical_g1,
    renormalized_critical_g2,
)
from .scan import (
    BOUNDARY_KINDS,
    SweepTable,
    ed_sweep,
    line_cut,
    overlap_area,
    phase_diagram,
    sweep_values,
    trace_boundary,
    write_sweep_csv,
)

__all__ = ["main", "run"]


class ConfigError(ValueError):
    """Invalid or missing configuration value."""


@dataclass(frozen=True)
class _Opt:
    dest: str
    type: type
    default: object = None
    help: str = ""
    required: bool = False
    choices: tuple | None = None
    flag: str | None = None  # override for the command-line flag spelling

    @property
    def flag_name(self) -> str:
        return self.flag or "--" + self.dest.replace("_", "-")


def _parse_bool(raw: str) -> bool:
    lowered = str(raw).strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


_MODEL_OPTS = (
    _Opt("omega21", float, 1.0, "transition frequency of level 2 (energy unit)"),
    _Opt("omega31", float, 1.0, "transition frequency of level 3"),
    _Opt("omega_a", float, 1.0, "frequency of mode a (left branch)"),
    _Opt("omega_b", float, 1.0, "frequency of mode b (right branch)"),
)
_COUPLING_OPTS = (
    _Opt("g1", float, 0.0, "left-branch collective coupling"),
    _Opt("g2", float, 0.0, "right-branch collective coupling"),
)
_IO_OPTS = (
    _Opt("config", str, None, "INI config file; section name = subcommand"),
    _Opt("output", str, None, "output path (default: stdout)"),
)


def _params_from(opts: dict) -> ModelParams:
    return ModelParams(**{f.name: opts[f.name] for f in fields(ModelParams) if f.name in opts})


def _round_floats(obj):
    if isinstance(obj, float):
        if math.isnan(obj) or math.isinf(obj):
            return None
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {key: _round_floats(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(item) for item in obj]
    return obj


def _emit(result, output: str | None) -> None:
    """Write a handler's result to the output file or stdout: a dict as
    JSON, a SweepTable as CSV, text as it is.

    ``run`` calls this after the handler returns, so a run that fails
    leaves no file.
    """
    if isinstance(result, dict):
        result = json.dumps(_round_floats(result), indent=2) + "\n"
    with open(output, "w", encoding="utf-8") if output else nullcontext(sys.stdout) as stream:
        if isinstance(result, SweepTable):
            write_sweep_csv(result, stream)
        else:
            stream.write(result)


def _two_columns(header: str, rows) -> str:
    return "".join([header + "\n"] + [f"{x:.12g},{y:.12g}\n" for x, y in rows])


def _solution_dict(solution) -> dict:
    record = asdict(solution)
    return {"phase": record.pop("phase").value, **record}


def _spectrum_dict(form) -> dict:
    return {**asdict(form), **asdict(diagonalize(form))}


# ---------------------------------------------------------------------------
# Handlers: each takes (params, opts) and returns what it computed.


def _handle_critical(params: ModelParams, opts: dict) -> dict:
    return {
        "params": asdict(params),
        "g_c1": critical_g1(params),
        "g_c2": critical_g2(params),
        "mu_left": mu_left(params) if params.g1 > 0 else None,
        "mu_right": mu_right(params) if params.g2 > 0 else None,
        "gtilde_c2": (renormalized_critical_g2(params)
                      if params.g1 >= critical_g1(params) else None),
        "gtilde_c1": (renormalized_critical_g1(params)
                      if params.g2 >= critical_g2(params) else None),
    }


def _handle_meanfield(params: ModelParams, opts: dict) -> dict:
    return {
        "params": asdict(params),
        "selected": _solution_dict(classify(params)),
        "branches": [_solution_dict(s) for s in stationary_branches(params)],
    }


def _handle_spectrum(params: ModelParams, opts: dict) -> dict:
    left, right = normal_phase_forms(params)
    return {
        "params": asdict(params),
        "normal_left": _spectrum_dict(left),
        "normal_right": _spectrum_dict(right),
        "right_branch_renormalized": (
            _spectrum_dict(right_branch_form(params))
            if params.g1 >= critical_g1(params) else None),
        "left_branch_renormalized": (
            _spectrum_dict(left_branch_form(params))
            if params.g2 >= critical_g2(params) else None),
    }


def _handle_phase_diagram(params: ModelParams, opts: dict) -> SweepTable:
    g1s = sweep_values(opts["g1_min"], opts["g1_max"], opts["n1"], "grid g1 axis")
    g2s = sweep_values(opts["g2_min"], opts["g2_max"], opts["n2"], "grid g2 axis")
    return phase_diagram(params, g1s, g2s)


def _handle_boundary(params: ModelParams, opts: dict) -> str:
    pairs = trace_boundary(opts["which"], params, opts["lo"], opts["hi"], opts["steps"])
    return _two_columns("abscissa,boundary", pairs)


def _handle_line_cut(params: ModelParams, opts: dict) -> SweepTable:
    g1s = sweep_values(opts["g1_min"], opts["g1_max"], opts["steps"], "line cut")
    return line_cut(params, g1s, params.g2)


def _handle_overlap_area(params: ModelParams, opts: dict) -> str:
    try:
        ratios = [float(token) for token in str(opts["ratios"]).split(",") if token.strip()]
    except ValueError as exc:
        raise ConfigError(f"ratios must be a comma-separated list of numbers: {exc}") from exc
    if not ratios:
        raise ConfigError("ratios must contain at least one value")
    areas = [overlap_area(params, ratio, resolution=opts["resolution"]) for ratio in ratios]
    return _two_columns("ratio,area", zip(ratios, areas))


def _handle_ed(params: ModelParams, opts: dict) -> dict | SweepTable:
    n_atoms = opts.get("n_atoms")
    if n_atoms is None:
        raise ConfigError("ed requires --N (number of atoms)")
    sweep_keys = [key for key in ("g1_min", "g1_max", "steps") if opts.get(key) is not None]
    if sweep_keys and len(sweep_keys) != 3:
        raise ConfigError("ed sweep mode needs all of g1_min, g1_max, steps")
    if sweep_keys and (opts.get("cutoff_a") is not None or opts.get("cutoff_b") is not None):
        raise ConfigError("--cutoff-a and --cutoff-b set a single point's truncation; "
                          "an ed sweep converges its own cutoffs")
    if not sweep_keys and opts.get("diagonal"):
        raise ConfigError("--diagonal applies to an ed sweep only: give --g1-min, "
                          "--g1-max and --steps")

    if sweep_keys:
        g1s = sweep_values(opts["g1_min"], opts["g1_max"], opts["steps"], "ed sweep")
        slope = math.sqrt(params.omega_b / params.omega_a)
        g2s = g1s * slope if opts.get("diagonal") else params.g2
        return ed_sweep(params, g1s, g2s, n_atoms, cutoff_tol=opts["cutoff_tol"],
                        eig_tol=opts["tol"], seed=opts["seed"])

    trace = []
    if opts.get("cutoff_a") is not None or opts.get("cutoff_b") is not None:
        if opts.get("cutoff_a") is None or opts.get("cutoff_b") is None:
            raise ConfigError("give both cutoff_a and cutoff_b, or neither")
        space = exactdiag.truncated_space(n_atoms, opts["cutoff_a"], opts["cutoff_b"])
    else:
        space, trace = exactdiag.converge_cutoffs(
            params, n_atoms, tol=opts["cutoff_tol"], eig_tol=opts["tol"],
            seed=opts["seed"],
        )
    result = exactdiag.solve_point(params, n_atoms, space=space, tol=opts["tol"],
                                   seed=opts["seed"], with_gap=True)
    return {
        "params": asdict(params),
        "n_atoms": n_atoms,
        "cutoff_a": space.cutoff_a,
        "cutoff_b": space.cutoff_b,
        "dimension": space.dimension,
        "energy": result.energy,
        "energy_per_atom": result.energy / n_atoms,
        "photon_a": result.photon_a,
        "photon_b": result.photon_b,
        "pop2": result.pop2,
        "pop3": result.pop3,
        "parity_l": result.parity_l,
        "parity_r": result.parity_r,
        "parity_g": result.parity_g,
        "gap": result.gap,
        "convergence_trace": trace,
    }


def _handle_parity_check(params: ModelParams, opts: dict) -> dict:
    n_atoms = opts.get("n_atoms")
    if n_atoms is None:
        raise ConfigError("parity-check requires --N (number of atoms)")
    space = exactdiag.truncated_space(n_atoms, opts["cutoff_a"], opts["cutoff_b"])
    names = ("commutator_l", "commutator_r", "commutator_g")
    norms = dict(zip(names, exactdiag.parity_commutator_norms(params, space)))
    return {
        "params": asdict(params),
        "n_atoms": n_atoms,
        "cutoff_a": space.cutoff_a,
        "cutoff_b": space.cutoff_b,
        "dimension": space.dimension,
        **norms,
        "max_commutator": max(norms.values()),
    }


# ---------------------------------------------------------------------------
# Command table and option plumbing


@dataclass(frozen=True)
class _Command:
    name: str
    help: str
    options: tuple[_Opt, ...]
    handler: object


_COMMANDS = (
    _Command(
        "critical", "closed-form critical and renormalized couplings",
        _MODEL_OPTS + _COUPLING_OPTS + _IO_OPTS, _handle_critical,
    ),
    _Command(
        "meanfield", "classify one point and list all stationary branches",
        _MODEL_OPTS + _COUPLING_OPTS + _IO_OPTS, _handle_meanfield,
    ),
    _Command(
        "spectrum", "fluctuation eigenfrequencies of every applicable block",
        _MODEL_OPTS + _COUPLING_OPTS + _IO_OPTS, _handle_spectrum,
    ),
    _Command(
        "phase-diagram", "classify a coupling grid, CSV output",
        _MODEL_OPTS + _IO_OPTS + (
            _Opt("g1_min", float, required=True, help="lower g1 bound"),
            _Opt("g1_max", float, required=True, help="upper g1 bound"),
            _Opt("g2_min", float, required=True, help="lower g2 bound"),
            _Opt("g2_max", float, required=True, help="upper g2 bound"),
            _Opt("n1", int, 50, "grid points along g1"),
            _Opt("n2", int, 50, "grid points along g2"),
        ), _handle_phase_diagram,
    ),
    _Command(
        "boundary", "sample one phase boundary from its closed form",
        _MODEL_OPTS + _IO_OPTS + (
            _Opt("which", str, required=True, choices=BOUNDARY_KINDS,
                 help="boundary to trace"),
            _Opt("lo", float, required=True, help="abscissa start", flag="--from"),
            _Opt("hi", float, required=True, help="abscissa end", flag="--to"),
            _Opt("steps", int, 50, "number of samples"),
        ), _handle_boundary,
    ),
    _Command(
        "line-cut", "sweep g1 at fixed g2 (mean field; ed sweeps add finite-N data)",
        _MODEL_OPTS + _IO_OPTS + (
            _Opt("g2", float, required=True, help="fixed right-branch coupling"),
            _Opt("g1_min", float, required=True, help="sweep start"),
            _Opt("g1_max", float, required=True, help="sweep end"),
            _Opt("steps", int, 41, "number of samples"),
        ), _handle_line_cut,
    ),
    _Command(
        "overlap-area", "bistable fraction of the threshold window per ratio",
        _MODEL_OPTS + _IO_OPTS + (
            _Opt("ratios", str, "1.0", "comma-separated omega31/omega21 ratios"),
            _Opt("resolution", int, 100, "grid points per axis"),
        ), _handle_overlap_area,
    ),
    _Command(
        "ed", "finite-N ground state at a point (JSON) or along a sweep (CSV)",
        _MODEL_OPTS + _COUPLING_OPTS + _IO_OPTS + (
            _Opt("n_atoms", int, None, "number of atoms", flag="--N"),
            _Opt("cutoff_a", int, None, "explicit mode-a cutoff (skips convergence)"),
            _Opt("cutoff_b", int, None, "explicit mode-b cutoff (skips convergence)"),
            _Opt("tol", float, 1e-8, "eigensolver residual tolerance"),
            _Opt("cutoff_tol", float, 1e-4,
                 "photon-number tolerance: each mode's ground-state weight in its top "
                 "two Fock levels must stay below cutoff_tol/100"),
            _Opt("seed", int, 0, "seed of the eigensolver's cold start vector"),
            _Opt("g1_min", float, None, "sweep start (sweep mode)"),
            _Opt("g1_max", float, None, "sweep end (sweep mode)"),
            _Opt("steps", int, None, "sweep samples (sweep mode)"),
            _Opt("diagonal", bool, False,
                 "sweep along the degenerate ray g2 = g1*sqrt(omega_b/omega_a)"),
        ), _handle_ed,
    ),
    _Command(
        "parity-check", "commutator norms of the three parity operators",
        _MODEL_OPTS + _COUPLING_OPTS + _IO_OPTS + (
            _Opt("n_atoms", int, None, "number of atoms", flag="--N"),
            _Opt("cutoff_a", int, 6, "mode-a cutoff"),
            _Opt("cutoff_b", int, 6, "mode-b cutoff"),
        ), _handle_parity_check,
    ),
)

_COMMAND_MAP = {command.name: command for command in _COMMANDS}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vdicke",
        description="Phase structure of the two-mode V-type Dicke model.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command in _COMMANDS:
        sub = subparsers.add_parser(
            command.name, help=command.help, argument_default=argparse.SUPPRESS,
        )
        for opt in command.options:
            if opt.type is bool:
                sub.add_argument(opt.flag_name, dest=opt.dest, action="store_true",
                                 help=opt.help)
                continue
            kwargs = {"dest": opt.dest, "type": opt.type, "help": opt.help}
            if opt.choices:
                kwargs["choices"] = list(opt.choices)
            sub.add_argument(opt.flag_name, **kwargs)
    return parser


def _load_config_section(path: str, section: str, options: dict[str, _Opt]) -> dict:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    if not parser.read(path):
        raise ConfigError(f"config file not found or unreadable: {path}")
    if not parser.has_section(section):
        return {}
    out = {}
    for key, raw in parser.items(section):
        if key not in options:
            raise ConfigError(f"unknown key '{key}' in config section [{section}]")
        opt = options[key]
        try:
            if opt.type is bool:
                out[key] = _parse_bool(raw)
            else:
                out[key] = opt.type(raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for '{key}' in section [{section}]: {exc}") from exc
    return out


def run(argv=None) -> int:
    """Entry point returning the process exit code (0, 2, or 3)."""
    parser = _build_parser()
    try:
        namespace = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    command = _COMMAND_MAP[namespace.command]
    explicit = {key: value for key, value in vars(namespace).items() if key != "command"}

    opts = {opt.dest: opt.default for opt in command.options}
    option_map = {opt.dest: opt for opt in command.options}
    config_path = explicit.pop("config", None) or opts.get("config")
    try:
        if config_path:
            opts.update(_load_config_section(config_path, command.name, option_map))
        opts.update(explicit)
        for opt in command.options:
            if opt.required and opts.get(opt.dest) is None:
                raise ConfigError(f"missing required option '{opt.dest}' "
                                  f"(flag {opt.flag_name} or config key)")
            if opt.choices and opts.get(opt.dest) is not None \
                    and opts[opt.dest] not in opt.choices:
                raise ConfigError(f"option '{opt.dest}' must be one of {opt.choices}")
        _emit(command.handler(_params_from(opts), opts), opts.get("output"))
        return 0
    except (ConvergenceError, CapacityError) as exc:
        print(f"vdicke {command.name}: did not converge: {exc}{_trials(exc)}", file=sys.stderr)
        return 3
    except ValueError as exc:  # ConfigError and DomainError among them
        print(f"vdicke {command.name}: configuration error: {exc}", file=sys.stderr)
        return 2


def _trials(exc: Exception) -> str:
    """The cutoff trials solved before a CapacityError, as a suffix to its message."""
    trace = getattr(exc, "trace", None)
    if not trace:
        return ""
    return "; trials solved: " + ", ".join(
        f"cutoffs {t['cutoff_a']}/{t['cutoff_b']} (dimension {t['dimension']}, "
        f"photon_a {t['photon_a']:.6g}, photon_b {t['photon_b']:.6g})" for t in trace)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
