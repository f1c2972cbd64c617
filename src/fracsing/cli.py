"""Command-line front end: configuration, orchestration, and outputs.

Subcommands cover the solver pipeline end to end: minimal solutions
(solve), the extremal source strength (kstar), the stability index along
the branch (stability), the second solution (mountain-pass), profile
diagnostics (classify), the principal eigenpair (eigen), and the full
two-branch picture (bifurcation).

Configuration precedence is defaults < the parameters and grid that a
profile CSV embeds (classify) < --config JSON < flags, and each JSON
object merges into its section.  Every table is CSV with a leading JSON
comment header carrying the merged config, its hash, package versions,
and measured provenance (comparison constant, principal eigenvalue).
Files are written whole via write-then-rename; reruns with identical
config and seed produce byte-identical output.  Exit codes: 0 success,
1 usage or configuration error, 2 mathematical nonexistence or
non-convergence.

The environment variable FRACSING_CACHE names a directory for cached
operator files (green.save_operator), one per grid, named
operator-{dim}-{alpha!r}-{n_nodes}-{grading!r}.bin; an entry that does
not load is rebuilt.  OMP_NUM_THREADS, set before the process starts,
caps the BLAS threads and the assembly pool.

Every numeric import is deferred into the function that needs it, so
that `import fracsing.cli` and `fracsing --help` load neither NumPy nor
SciPy (about 0.08 s a process, against 0.3 s with the library imported).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from typing import Callable, NamedTuple

class _Setting(NamedTuple):
    """A config key: dotted path; default, whose type the key and the flag
    must take; flags that set it (none: config only); their help text; and
    the commands that take those flags (None: every command)."""

    path: str
    default: object
    flags: tuple = ()
    help: str | None = None
    commands: tuple | None = None


_SETTINGS = (
    _Setting("params.dim", 2, ("--dim",), "space dimension N"),
    _Setting("params.alpha", 0.75, ("--alpha",), "fractional order in (0, 1)"),
    _Setting("params.p", 2.0, ("--p",), "nonlinearity exponent"),
    _Setting("params.k", 0.0, ("--k",), "point-source strength"),
    _Setting("grid.n_nodes", 400, ("--n-nodes",), "grid size"),
    _Setting("grid.grading", 2.0, ("--grading",), "origin grading exponent"),
    _Setting(
        "scan.n_samples",
        8,
        ("--n-samples",),
        "scan sample count",
        ("stability", "bifurcation"),
    ),
    _Setting("output.directory", ".", ("--output", "-o"), "output directory"),
    _Setting("seed", 0, ("--seed",), "seed for sampled certifications"),
)
_DEFAULTS = {s.path: s.default for s in _SETTINGS}
_SECTIONS = {path.rpartition(".")[0] for path in _DEFAULTS}

_PROFILE_COLUMNS = ("r", "u_total", "u_smooth", "u_singular")


class _Parser(argparse.ArgumentParser):
    """Parser whose usage failures exit with code 1, per the CLI contract."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _assign(cfg, name, value):
    """Set the dotted key name of the flat settings map cfg to value.

    A JSON object at a section name merges into the section's keys (and
    drops a non-object an earlier layer put there); any other value there
    is kept for the check to reject.
    """
    if name in _SECTIONS and isinstance(value, dict):
        cfg.pop(name, None)
        for key, val in value.items():
            _assign(cfg, f"{name}.{key}", val)
    else:
        cfg[name] = value


def _build_config(args, base=None):
    """The flat {dotted key: value} settings: defaults < base (the profile
    header's) < --config < flags, each JSON object merged into its
    section.  Raises ValueError naming the first key that is outside the
    settings table or of the wrong type, or a negative seed."""
    cfg = dict(_DEFAULTS)
    layers = [base or {}]
    if args.config:
        with open(args.config) as fh:
            layers.append(json.load(fh))
        if not isinstance(layers[-1], dict):
            raise ValueError("config file must contain a JSON object")
    for layer in layers:
        for key, value in layer.items():
            _assign(cfg, key, value)
    for path in _DEFAULTS:
        if getattr(args, path, None) is not None:
            cfg[path] = getattr(args, path)
    for name, value in cfg.items():
        if name in _SECTIONS:
            raise ValueError(f"{name} must be a JSON object, got {value!r}")
        if name not in _DEFAULTS:
            raise ValueError(f"unknown key {name}")
        _check_value(name, value, _DEFAULTS[name])
    if cfg["seed"] < 0:
        raise ValueError(f"seed must be a non-negative integer, got {cfg['seed']!r}")
    return cfg


def _check_value(name, value, default):
    """Raise ValueError unless value has the type of default.

    An int default takes integers (integral floats included), a float
    default any real number and a str default a string.
    """
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if isinstance(default, str):
        ok, kind = isinstance(value, str), "a string"
    elif isinstance(default, int):
        ok, kind = number and float(value).is_integer(), "an integer"
    else:
        ok, kind = number, "a number"
    if not ok:
        raise ValueError(f"{name} must be {kind}, got {value!r}")


def _problem(cfg):
    from .core import ProblemParams

    dim, alpha, p, k = (cfg["params." + key] for key in ("dim", "alpha", "p", "k"))
    return ProblemParams(dim=int(dim), alpha=float(alpha), p=float(p), k=float(k))


def _grid(cfg, params):
    """The radial grid the configuration asks for."""
    from .green import default_grid

    n_nodes, grading = int(cfg["grid.n_nodes"]), float(cfg["grid.grading"])
    return default_grid(params, n_nodes=n_nodes, grading=grading)


def _operator(cfg, params):
    from .green import assemble, load_operator, save_operator

    n_nodes, grading = int(cfg["grid.n_nodes"]), float(cfg["grid.grading"])
    cache_dir = os.environ.get("FRACSING_CACHE")
    cache_path = None
    if cache_dir:
        name = f"operator-{params.dim}-{params.alpha!r}-{n_nodes}-{grading!r}.bin"
        cache_path = os.path.join(cache_dir, name)
        if os.path.exists(cache_path):
            try:
                return load_operator(cache_path)
            except (OSError, ValueError):
                pass  # stale or corrupt entries are rebuilt below
    op = assemble(_grid(cfg, params), params)
    if cache_path is not None:
        save_operator(op, cache_path)
    return op


def _provenance(cfg, params, op, lambda1):
    import numpy
    import scipy

    from . import __version__
    from .core import RegimeError
    from .green import measured_c2

    try:
        c2 = float(measured_c2(params, op))
    except RegimeError:
        c2 = None
    config = {}
    for path, value in cfg.items():
        section, _, key = path.rpartition(".")
        (config.setdefault(section, {}) if section else config)[key] = value
    blob = json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    return {
        "config": config,
        "config_hash": hashlib.sha256(blob).hexdigest()[:16],
        "grid": {
            "n_nodes": op.n,
            "r_min": float(op.grid.nodes[0]),
            "r_max": float(op.grid.nodes[-1]),
        },
        "versions": {
            "fracsing": __version__,
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        "c2_measured": c2,
        "lambda1": float(lambda1),
    }


def _cell(value):
    if isinstance(value, str):
        return value
    return "%.17g" % float(value)


def _write_csv(path, header, columns, rows):
    from .core import write_atomic

    lines = ["# " + json.dumps(header, sort_keys=True)]
    lines.append(",".join(columns))
    lines.extend(",".join(_cell(v) for v in row) for row in rows)
    write_atomic(path, ("\n".join(lines) + "\n").encode())


def _write_json(path, obj):
    from .core import write_atomic

    write_atomic(path, (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode())


def _write_long_csv(path, header, table):
    """The table in long form: its first column is x, and each further
    column gives one series of (name, x, value) rows, in name order."""
    columns = table.columns
    rows = []
    for j in sorted(range(1, len(columns)), key=columns.__getitem__):
        rows.extend((columns[j], row[0], row[j]) for row in table.rows)
    _write_csv(path, header, ["series", columns[0], "value"], rows)


def _read_profile(args):
    """Parse the profile CSV; returns the config built on the parameters
    and grid it embeds, (u_smooth, (singular_coeff, exponent)) and the
    file's bytes.

    Raises ParameterError when the file is not a profile CSV or its
    radial nodes are not those of the configured grid.
    """
    import numpy as np

    from .core import ParameterError

    path = args.profile
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        lines = raw.decode().splitlines()
    except UnicodeDecodeError as exc:
        raise ParameterError(f"{path}: not a text file ({exc})") from exc
    if len(lines) < 2 or not lines[0].startswith("# "):
        raise ParameterError(f"{path}: not a profile CSV (missing JSON header line)")
    try:
        header = json.loads(lines[0][2:])
    except json.JSONDecodeError as exc:
        raise ParameterError(f"{path}: header line is not JSON ({exc})") from exc
    if not isinstance(header, dict):
        raise ParameterError(f"{path}: header line is not a JSON object")
    keys = ("singular_coeff", "singular_exponent")
    try:
        singular = tuple(float(header.get(key, 0.0)) for key in keys)
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"{path}: non-numeric singular part ({exc})") from exc
    if lines[1] != ",".join(_PROFILE_COLUMNS):
        raise ParameterError(
            f"{path}: expected columns {','.join(_PROFILE_COLUMNS)}, "
            f"got {lines[1]!r}"
        )
    rows = [line.split(",") for line in lines[2:] if line]
    try:
        data = np.array(rows, dtype=float).reshape(len(rows), len(_PROFILE_COLUMNS))
    except ValueError as exc:
        raise ParameterError(f"{path}: not a table of numbers ({exc})") from exc
    # Profiles produced by this tool embed how they were built; adopt the
    # embedded parameters and grid as the config baseline so the natural
    # solve-then-classify flow needs no repeated flags.  A --config file
    # and flags still override.
    provenance = header.get("provenance", {})
    embedded = provenance.get("config", {}) if isinstance(provenance, dict) else None
    if not isinstance(embedded, dict):
        raise ParameterError(f"{path}: header provenance.config is not a JSON object")
    base = {key: embedded[key] for key in ("params", "grid") if key in embedded}
    try:
        cfg = _build_config(args, base=base)
    except ValueError as exc:
        raise ParameterError(f"{path}: embedded configuration: {exc}") from exc
    # Checked before the operator is built: a profile from another grid
    # must not cost an assembly.
    nodes = _grid(cfg, _problem(cfg)).nodes
    if not np.array_equal(nodes, data[:, 0]):
        raise ParameterError(
            f"{path}: radial nodes do not match the configured grid "
            f"({len(data)} nodes in file, {nodes.size} configured); "
            f"rerun with the grid the profile was produced on"
        )
    return cfg, (data[:, 2], singular), raw


def _classification_payload(profile, params, op):
    from .classify import (
        asymptotic_fit,
        estimate_k,
        standard_battery,
        verify_weak_identity,
    )

    # The pairing is undefined for a singular profile in the supercritical
    # regime; the fit alone gives the verdict there.
    k_est = residual = None
    if params.subcritical or profile.singular_coeff == 0.0:
        battery = standard_battery(op)
        k_est = estimate_k(profile, params, op, battery)
        residual = verify_weak_identity(profile, params, op, battery).max_residual
    ref = k_est if k_est is not None and k_est > 0.0 else None
    report = asymptotic_fit(profile, params, k_reference=ref)
    return {
        "k_pairing_estimate": k_est,
        "k_estimate": report.k_estimate,
        "exponent_fit": report.exponent_fit,
        "limit_ratio": report.limit_ratio,
        "verdict": report.verdict,
        "weak_identity_residual": residual,
    }


class _Job(NamedTuple):
    """Inputs of a command.  eigenpair is first_eigenpair of op, which the
    provenance records; source is what the read hook parsed."""

    cfg: dict
    args: argparse.Namespace
    params: object
    op: object
    eigenpair: dict
    source: object = None


class _Table(NamedTuple):
    """One CSV file.  header keys join kind and provenance in the file's
    header line."""

    name: str
    kind: str
    columns: tuple
    rows: list
    header: dict | None = None


class _Result(NamedTuple):
    """A command's CSV tables, the first its main one, JSON payload (less
    command and provenance) and stdout lines."""

    tables: list
    payload: dict
    lines: list


def _solve(job):
    from .green import measured_c2
    from .picard import barrier_certificate, minimal_solution

    params, op = job.params, job.op
    profile = minimal_solution(params, op)
    certified = params.subcritical and barrier_certificate(
        params, measured_c2(params, op)
    )["certified"]
    classification = _classification_payload(profile, params, op)
    lines = [
        f"solve: minimal solution by Newton's method, barrier certified: {certified}",
        f"classification: {classification['verdict']}",
    ]
    r, total, smooth = profile.grid.nodes, profile.total, profile.values
    singular = 0.0 * r
    if profile.singular_coeff > 0.0:
        singular = profile.singular_coeff * r**profile.singular_exponent
    header = {
        "singular_coeff": profile.singular_coeff,
        "singular_exponent": profile.singular_exponent,
    }
    rows = list(zip(r, total, smooth, singular))
    table = _Table("solve.csv", "profile", _PROFILE_COLUMNS, rows, header)
    payload = {"barrier_certified": certified, "classification": classification}
    return _Result([table], payload, lines)


def _kstar(job):
    from .picard import find_kstar

    bracket = find_kstar(job.params, job.op)
    k_lo, k_hi = bracket.k_lo, bracket.k_hi
    width = (k_hi - k_lo) / k_lo
    columns = ("k_lo", "k_hi", "relative_width")
    return _Result(
        [_Table("kstar.csv", "kstar", columns, [(k_lo, k_hi, width)])],
        {"k_lo": k_lo, "k_hi": k_hi, "relative_width": width},
        [f"kstar: bracket [{k_lo:.6g}, {k_hi:.6g}]"],
    )


def _stability(job):
    from .picard import find_kstar
    from .stability import stability_gap_scan

    bracket = find_kstar(job.params, job.op)
    n_samples = int(job.cfg["scan.n_samples"])
    scan = stability_gap_scan(job.params, job.op, bracket, n_samples=n_samples)
    rows = scan.rows()
    return _Result(
        [_Table("stability.csv", "stability", ("k", "sigma1", "gap"), rows)],
        {"k_lo": bracket.k_lo, "k_hi": bracket.k_hi, "slope": scan.slope, "rows": rows},
        [
            f"stability: {len(rows)} samples, sigma1 from {rows[0][1]:.4f} "
            f"down to {rows[-1][1]:.4f}, gap slope {scan.slope:.4f}"
        ],
    )


def _mountain_pass(job):
    from .classify import verify_weak_identity
    from .mountainpass import build_form, find_second_solution
    from .picard import minimal_solution

    u_min = minimal_solution(job.params, job.op)
    method, form = job.args.method, build_form(job.op)
    result = find_second_solution(
        job.params, job.op, form, u_min, method=method, seed=int(job.cfg["seed"])
    )
    identity = verify_weak_identity(result.second_solution, job.params, job.op)
    r, u_total = job.op.grid.nodes, u_min.total
    w_total = result.second_solution.total
    v = result.v.values
    rows = list(zip(r, u_total, v, w_total))
    trace = [(step, "nan" if e is None else e, g) for step, e, g in result.trace]
    trace_columns = ("step", "energy", "grad_norm")
    columns = ("r", "u_min", "v", "second_solution")
    tables = [
        _Table("mountain_pass.csv", "mountain-pass", columns, rows),
        _Table("mountain_pass_trace.csv", "mountain-pass-trace", trace_columns, trace),
    ]
    payload = {
        "method": method,
        "energy": result.energy,
        "level_lower_bound": result.level_lower_bound,
        "v_max": float(v.max()),
        "weak_identity_residual": identity.max_residual,
    }
    line = (
        f"mountain-pass ({method}): energy {result.energy:.6g} >= "
        f"certified level {result.level_lower_bound:.6g}, "
        f"max perturbation {v.max():.6g}"
    )
    return _Result(tables, payload, [line])


def _classify(job):
    from .core import RadialFunction

    u_smooth, singular = job.source
    profile = RadialFunction(job.op.grid, u_smooth, *singular)
    payload = _classification_payload(profile, job.params, job.op)
    payload["profile"] = job.args.profile
    line = (
        f"classify: verdict {payload['verdict']}, slope "
        f"{payload['exponent_fit']:.4f}, limit ratio {payload['limit_ratio']:.4f}"
    )
    return _Result([], payload, [line])


def _eigen(job):
    pair = job.eigenpair
    lam, r, phi = pair["lambda1"], job.op.grid.nodes, pair["phi1"].values
    rows = list(zip(r, phi))
    return _Result(
        [_Table("eigen.csv", "eigen", ("r", "phi1"), rows, {"lambda1": lam})],
        {"lambda1": lam},
        [f"eigen: lambda1 = {lam:.12g}"],
    )


def _bifurcation(job):
    import numpy as np

    from .core import ParameterError, RegimeError, SecondSolutionNotFound
    from .mountainpass import build_form, find_second_solution
    from .picard import find_kstar, minimal_solution
    from .stability import sigma1

    n_samples, seed = int(job.cfg["scan.n_samples"]), int(job.cfg["seed"])
    if n_samples < 1:
        raise ParameterError(f"scan.n_samples must be at least 1, got {n_samples}")
    params, op = job.params, job.op
    bracket = find_kstar(params, op)
    form = build_form(op)
    ks = np.linspace(0.1, 0.95, n_samples) * bracket.k_lo
    weights = op.grid.weights

    def branch_norm(profile):
        # Weighted L2 norm of the full profile; finite despite the origin
        # singularity because r^(2 alpha - N) is square integrable here.
        return float(np.sqrt(weights @ profile.total**2))

    rows = []
    for k in ks:
        pk = params.with_k(float(k))
        u_min = minimal_solution(pk, op)
        sig = sigma1(u_min, pk, op).sigma1
        try:
            res = find_second_solution(pk, op, form, u_min, seed=seed)
            w_norm = branch_norm(res.second_solution)
            energy = res.energy
            beta = res.level_lower_bound
        except (SecondSolutionNotFound, RegimeError):
            w_norm = energy = beta = float("nan")
        rows.append((float(k), branch_norm(u_min), sig, w_norm, energy, beta))
    columns = ["k", "u_norm", "sigma1", "w_norm", "energy", "beta"]
    payload = dict(k_lo=bracket.k_lo, k_hi=bracket.k_hi, columns=columns, rows=rows)
    line = (
        f"bifurcation: {n_samples} samples over k in "
        f"[{ks[0]:.6g}, {ks[-1]:.6g}], k* bracket "
        f"[{bracket.k_lo:.6g}, {bracket.k_hi:.6g}]"
    )
    table = _Table("bifurcation.csv", "bifurcation", columns, rows)
    return _Result([table], payload, [line])


class _Command(NamedTuple):
    """A subcommand: its computation and what the driver does around it.

    A supercritical p is rejected up front, with consequence as the reason
    (no check if None; with point_mass, only when k > 0; with ground_state,
    at k = 0 against the Sobolev exponent).  read parses the
    input and returns (config built on it, parsed input, the input's
    bytes), which the driver writes verbatim to the file named echo.
    flags are the command's own (flag, argparse options) pairs.
    """

    compute: Callable
    help: str
    consequence: str | None = None
    flags: tuple = ()
    point_mass: bool = False
    ground_state: bool = False
    read: Callable | None = None
    echo: str | None = None


_METHODS = ["MountainPassAlgorithm", "DeflatedNewton"]
_METHOD = (
    "--method",
    dict(choices=_METHODS, default=_METHODS[0], help="search strategy"),
)

_COMMANDS = {
    "solve": _Command(
        _solve,
        "minimal solution by Newton's method from Picard's first iterate",
        "no solution with a point mass exists (Dirac data forces k = 0)",
        point_mass=True,
    ),
    "kstar": _Command(
        _kstar,
        "bracket the extremal source strength",
        "the extremal source strength is undefined",
    ),
    "stability": _Command(
        _stability,
        "sigma1 scan along the minimal branch",
        "the solution branch is empty for k > 0",
    ),
    "mountain-pass": _Command(
        _mountain_pass,
        "second solution above the minimal one",
        "no second solution exists",
        (_METHOD,),
        ground_state=True,
    ),
    "classify": _Command(
        _classify,
        "diagnose a stored profile CSV",
        flags=(("profile", dict(help="profile CSV produced by the solve command")),),
        read=_read_profile,
        echo="classify_profile.csv",
    ),
    "eigen": _Command(_eigen, "principal eigenpair of the Green operator"),
    "bifurcation": _Command(
        _bifurcation,
        "two-branch table over the existence range",
        "the bifurcation diagram is empty for k > 0",
    ),
}


def _run(name, cfg, args):
    """Run one subcommand and write its outputs.

    The command only computes.  Before it, the driver checks the regime,
    loads the operator and measures the provenance, including the first
    eigenpair, which the command receives.  Once it has finished,
    the driver writes the input's bytes to the command's echo file, each
    table under a {"kind", "provenance"} header, the report <stem>.json
    with command and provenance, and with --emit-plots the first table in
    long form as <stem>_long.csv, of kind "<its kind>-long".
    """
    from .core import write_atomic
    from .picard import first_eigenpair

    command = _COMMANDS[name]
    source = raw = None
    if command.read is not None:
        cfg, source, raw = command.read(args)
    params = _problem(cfg)
    if command.consequence and (params.k > 0.0 or not command.point_mass):
        sourceless = command.ground_state and params.k == 0.0
        params.check_exponent(command.consequence, sourceless)
    op = _operator(cfg, params)
    eigenpair = first_eigenpair(op)
    prov = _provenance(cfg, params, op, eigenpair["lambda1"])
    result = command.compute(_Job(cfg, args, params, op, eigenpair, source))

    directory = cfg["output.directory"]
    if command.echo is not None:
        write_atomic(os.path.join(directory, command.echo), raw)
    for table in result.tables:
        header = {"kind": table.kind, **(table.header or {}), "provenance": prov}
        path = os.path.join(directory, table.name)
        _write_csv(path, header, table.columns, table.rows)
    stem = os.path.join(directory, name.replace("-", "_"))
    _write_json(stem + ".json", {"command": name, **result.payload, "provenance": prov})
    if args.emit_plots and result.tables:
        first = result.tables[0]
        header = {"kind": first.kind + "-long", "provenance": prov}
        _write_long_csv(stem + "_long.csv", header, first)
    for line in result.lines:
        print(line)


def _add_common(sp, name):
    sp.add_argument("--config", help="JSON configuration file")
    for setting in _SETTINGS:
        if setting.flags and (setting.commands is None or name in setting.commands):
            sp.add_argument(
                *setting.flags,
                dest=setting.path,
                type=type(setting.default),
                help=setting.help,
            )
    sp.add_argument(
        "--emit-plots",
        action="store_true",
        help="also write long-format CSVs for plotting tools",
    )


def _build_parser():
    parser = _Parser(
        prog="fracsing",
        description=(
            "Solver and diagnostics for the fractional Laplace problem "
            "(-Delta)^alpha u = u^p + k delta_0 on the unit ball."
        ),
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)
    for name, command in _COMMANDS.items():
        sp = sub.add_parser(name, help=command.help)
        _add_common(sp, name)
        for flag, options in command.flags:
            sp.add_argument(flag, **options)
    return parser


def main(argv=None):
    """Entry point; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if isinstance(code, int) else 0 if code is None else 1
    try:
        cfg = _build_config(args)
    except (ValueError, OSError) as exc:
        print(f"fracsing: configuration error: {exc}", file=sys.stderr)
        return 1

    # Deferred like every numeric import here: --help loads no NumPy or SciPy.
    from .core import ConvergenceError, KernelError, ParameterError, RegimeError

    try:
        _run(args.command, cfg, args)
    except (RegimeError, ConvergenceError) as exc:
        print(f"fracsing {args.command}: {exc}", file=sys.stderr)
        return 2
    except (ParameterError, KernelError) as exc:
        print(f"fracsing {args.command}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"fracsing {args.command}: I/O error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
