"""Command-line front end: configuration, orchestration, and outputs.

Subcommands cover the solver pipeline end to end: minimal solutions
(solve), the extremal source strength (kstar), the stability index along
the branch (stability), the second solution (mountain-pass), profile
diagnostics (classify), the principal eigenpair (eigen), and the full
two-branch picture (bifurcation).

Configuration precedence is defaults < --config JSON < --set overrides <
direct flags.  Every table is CSV with a leading JSON comment header
carrying the merged config, its hash, package versions, and measured
provenance (comparison constant, principal eigenvalue).  Files are
written whole via write-then-rename; reruns with identical config and
seed produce byte-identical output.  Exit codes: 0 success, 1 usage or
configuration error, 2 mathematical nonexistence or non-convergence.

The environment variable FRACSING_CACHE names a directory for cached
operator matrices keyed by grid and kernel parameters.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

_DEFAULT_CONFIG = {
    "params": {"dim": 2, "alpha": 0.75, "p": 2.0, "k": 0.0},
    "grid": {"n_nodes": 400, "grading": 2.0},
    "tolerances": {"picard_tol": 1e-10, "bracket_tol": 1e-3, "eig_tol": 1e-12},
    "scan": {"n_samples": 8},
    "output": {"directory": ".", "formats": ["csv", "json"]},
    "seed": 0,
}

_PROFILE_COLUMNS = ("r", "u_total", "u_smooth", "u_singular")


class _Parser(argparse.ArgumentParser):
    """Parser whose usage failures exit with code 1, per the CLI contract."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _deep_merge(base, update):
    out = dict(base)
    for key, val in update.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], val)
        else:
            out[key] = val
    return out


def _set_path(cfg, path, value):
    node = cfg
    for part in path[:-1]:
        nxt = node.get(part)
        if not isinstance(nxt, dict):
            nxt = {}
            node[part] = nxt
        node = nxt
    node[path[-1]] = value


def _apply_set(cfg, expr):
    key, sep, raw = expr.partition("=")
    if not sep or not key.strip():
        raise ValueError(f"--set expects KEY=VALUE, got {expr!r}")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    _set_path(cfg, key.strip().split("."), value)


_FLAG_PATHS = {
    "dim": ("params", "dim"),
    "alpha": ("params", "alpha"),
    "p": ("params", "p"),
    "k": ("params", "k"),
    "n_nodes": ("grid", "n_nodes"),
    "grading": ("grid", "grading"),
    "seed": ("seed",),
    "output": ("output", "directory"),
    "bracket_tol": ("tolerances", "bracket_tol"),
    "n_samples": ("scan", "n_samples"),
}


def _build_config(args, base=None):
    cfg = json.loads(json.dumps(_DEFAULT_CONFIG))
    if base:
        cfg = _deep_merge(cfg, base)
    if args.config:
        with open(args.config) as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict):
            raise ValueError("config file must contain a JSON object")
        cfg = _deep_merge(cfg, file_cfg)
    for expr in args.set:
        _apply_set(cfg, expr)
    for flag, path in _FLAG_PATHS.items():
        value = getattr(args, flag, None)
        if value is not None:
            _set_path(cfg, path, value)
    return cfg


def _config_hash(cfg):
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _versions():
    import numpy
    import scipy

    from . import __version__

    return {
        "fracsing": __version__,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _problem(cfg):
    from .core import ProblemParams

    p = cfg["params"]
    return ProblemParams(
        dim=int(p["dim"]), alpha=float(p["alpha"]), p=float(p["p"]), k=float(p["k"])
    )


def _require_subcritical(params, consequence):
    from .core import RegimeError

    if not params.subcritical:
        raise RegimeError(
            f"supercritical regime: p = {params.p:g} is at or above the "
            f"critical exponent N/(N - 2 alpha) = {params.critical_p:.6g} "
            f"for N = {params.dim}, alpha = {params.alpha:g}; {consequence}"
        )


def _operator(cfg, params):
    from .core import KernelError
    from .green import assemble, default_grid, load_operator, save_operator

    n_nodes = int(cfg["grid"]["n_nodes"])
    grading = float(cfg["grid"]["grading"])
    cache_dir = os.environ.get("FRACSING_CACHE")
    cache_path = None
    if cache_dir:
        key_src = json.dumps(
            {
                "dim": params.dim,
                "alpha": repr(params.alpha),
                "n_nodes": n_nodes,
                "grading": repr(grading),
                "version": _versions()["fracsing"],
            },
            sort_keys=True,
        )
        key = hashlib.sha256(key_src.encode()).hexdigest()[:24]
        cache_path = os.path.join(cache_dir, f"operator-{key}.bin")
        if os.path.exists(cache_path):
            try:
                return load_operator(cache_path)
            except (KernelError, OSError, ValueError):
                pass  # stale or corrupt entries are rebuilt below
    grid = default_grid(params, n_nodes=n_nodes, grading=grading)
    op = assemble(grid, params)
    if cache_path is not None:
        os.makedirs(cache_dir, exist_ok=True)
        save_operator(op, cache_path)
    return op


def _provenance(cfg, params, op):
    from .core import RegimeError
    from .green import measured_c2
    from .picard import first_eigenpair

    try:
        c2 = float(measured_c2(params, op))
    except RegimeError:
        c2 = None
    lam = float(
        first_eigenpair(op, tol=float(cfg["tolerances"]["eig_tol"]))["lambda1"]
    )
    return {
        "config": cfg,
        "config_hash": _config_hash(cfg),
        "grid": {
            "n_nodes": op.n,
            "r_min": float(op.grid.nodes[0]),
            "r_max": float(op.grid.nodes[-1]),
        },
        "versions": _versions(),
        "c2_measured": c2,
        "lambda1": lam,
    }


def _atomic_write(path, text):
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".fracsing-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
        tmp = None
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _cell(value):
    if isinstance(value, str):
        return value
    return "%.17g" % float(value)


def _csv_text(header, columns, rows):
    lines = ["# " + json.dumps(header, sort_keys=True)]
    lines.append(",".join(columns))
    lines.extend(",".join(_cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _write_csv(path, header, columns, rows):
    _atomic_write(path, _csv_text(header, columns, rows))


def _write_json(path, obj):
    _atomic_write(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _write_long_csv(path, header, x_name, x_values, series):
    rows = []
    for name in sorted(series):
        rows.extend(
            (name, x, y) for x, y in zip(x_values, series[name])
        )
    _write_csv(path, header, ["series", x_name, "value"], rows)


def _profile_columns(profile):
    import numpy as np

    r = profile.grid.nodes
    smooth = profile.values
    if profile.singular_coeff > 0.0:
        singular = profile.singular_coeff * r**profile.singular_exponent
    else:
        singular = np.zeros_like(r)
    return r, smooth + singular, smooth, singular


def _write_profile_csv(path, provenance, profile):
    r, total, smooth, singular = _profile_columns(profile)
    header = {
        "kind": "profile",
        "singular_coeff": profile.singular_coeff,
        "singular_exponent": profile.singular_exponent,
        "provenance": provenance,
    }
    _write_csv(
        path, header, list(_PROFILE_COLUMNS), list(zip(r, total, smooth, singular))
    )


def _read_profile_csv(path):
    import numpy as np

    with open(path) as fh:
        lines = fh.read().splitlines()
    if len(lines) < 2 or not lines[0].startswith("# "):
        raise ValueError(f"{path}: not a profile CSV (missing JSON header line)")
    header = json.loads(lines[0][2:])
    columns = lines[1].split(",")
    if columns != list(_PROFILE_COLUMNS):
        raise ValueError(
            f"{path}: expected columns {','.join(_PROFILE_COLUMNS)}, "
            f"got {lines[1]!r}"
        )
    body = [line.split(",") for line in lines[2:] if line]
    data = {
        col: np.array([float(row[i]) for row in body])
        for i, col in enumerate(columns)
    }
    return header, data


def _profile_from_csv(path, header, data, op):
    """Rebuild a RadialFunction from a parsed profile CSV on the operator grid."""
    import numpy as np

    from .core import ParameterError, RadialFunction

    if not np.array_equal(op.grid.nodes, data["r"]):
        raise ParameterError(
            f"{path}: radial nodes do not match the configured grid "
            f"({data['r'].size} nodes in file, {op.n} configured); "
            f"rerun with the grid the profile was produced on"
        )
    return RadialFunction(
        op.grid,
        data["u_smooth"],
        singular_coeff=float(header.get("singular_coeff", 0.0)),
        singular_exponent=float(header.get("singular_exponent", 0.0)),
    )


def _out(cfg, name):
    return os.path.join(cfg["output"]["directory"], name)


def _classification_payload(profile, params, op, k_reference=None):
    from .classify import asymptotic_fit, estimate_k

    k_est = None
    if params.subcritical or profile.singular_coeff == 0.0:
        k_est = estimate_k(profile, params, op)
    ref = k_reference
    if ref is None and k_est is not None and k_est > 0.0:
        ref = k_est
    report = asymptotic_fit(profile, params, k_reference=ref)
    return {
        "k_pairing_estimate": k_est,
        "k_estimate": report.k_estimate,
        "exponent_fit": report.exponent_fit,
        "limit_ratio": report.limit_ratio,
        "verdict": report.verdict,
    }


def _cmd_solve(cfg, args):
    from .picard import iterate_minimal

    params = _problem(cfg)
    if params.k > 0.0:
        _require_subcritical(
            params, "no solution with a point mass exists (Dirac data forces k = 0)"
        )
    op = _operator(cfg, params)
    prov = _provenance(cfg, params, op)
    tol = float(cfg["tolerances"]["picard_tol"])
    max_iter = int(cfg["tolerances"].get("picard_max_iter", 2000))
    report = iterate_minimal(params, op, tol=tol, max_iter=max_iter)

    _write_profile_csv(_out(cfg, "solve.csv"), prov, report.profile)
    payload = {
        "command": "solve",
        "status": report.status,
        "iterations": report.iterations,
        "sup_residual": report.sup_residual,
        "barrier_certified": report.barrier_certified,
        "classification": None,
        "provenance": prov,
    }
    if report.status == "Converged":
        payload["classification"] = _classification_payload(
            report.profile, params, op
        )
    _write_json(_out(cfg, "solve.json"), payload)
    if args.emit_plots:
        r, total, smooth, singular = _profile_columns(report.profile)
        _write_long_csv(
            _out(cfg, "solve_long.csv"),
            {"kind": "profile-long", "provenance": prov},
            "r",
            r,
            {"u_total": total, "u_smooth": smooth, "u_singular": singular},
        )
    print(
        f"solve: {report.status} after {report.iterations} iterations, "
        f"sup residual {report.sup_residual:.3e}, "
        f"barrier certified: {report.barrier_certified}"
    )
    if payload["classification"]:
        print(f"classification: {payload['classification']['verdict']}")
    return 0 if report.status == "Converged" else 2


def _cmd_kstar(cfg, args):
    from .picard import find_kstar

    params = _problem(cfg)
    _require_subcritical(params, "the extremal source strength is undefined")
    op = _operator(cfg, params)
    prov = _provenance(cfg, params, op)
    bracket = find_kstar(
        params, op, bracket_tol=float(cfg["tolerances"]["bracket_tol"])
    )
    width = (bracket.k_hi - bracket.k_lo) / bracket.k_lo
    rows = [(bracket.k_lo, bracket.k_hi, width)]
    header = {"kind": "kstar", "provenance": prov}
    _write_csv(
        _out(cfg, "kstar.csv"), header, ["k_lo", "k_hi", "relative_width"], rows
    )
    _write_json(
        _out(cfg, "kstar.json"),
        {
            "command": "kstar",
            "k_lo": bracket.k_lo,
            "k_hi": bracket.k_hi,
            "relative_width": width,
            "provenance": prov,
        },
    )
    if args.emit_plots:
        _write_long_csv(
            _out(cfg, "kstar_long.csv"),
            {"kind": "kstar-long", "provenance": prov},
            "index",
            [0],
            {"k_lo": [bracket.k_lo], "k_hi": [bracket.k_hi]},
        )
    print(f"kstar: bracket [{bracket.k_lo:.6g}, {bracket.k_hi:.6g}]")
    return 0


def _cmd_stability(cfg, args):
    from .picard import find_kstar
    from .stability import stability_gap_scan

    params = _problem(cfg)
    _require_subcritical(params, "the solution branch is empty for k > 0")
    op = _operator(cfg, params)
    prov = _provenance(cfg, params, op)
    bracket = find_kstar(
        params, op, bracket_tol=float(cfg["tolerances"]["bracket_tol"])
    )
    scan = stability_gap_scan(
        params, op, bracket, n_samples=int(cfg["scan"]["n_samples"])
    )
    rows = scan.rows()
    header = {"kind": "stability", "provenance": prov}
    _write_csv(_out(cfg, "stability.csv"), header, ["k", "sigma1", "gap"], rows)
    _write_json(
        _out(cfg, "stability.json"),
        {
            "command": "stability",
            "k_lo": bracket.k_lo,
            "k_hi": bracket.k_hi,
            "slope": scan.slope,
            "rows": rows,
            "provenance": prov,
        },
    )
    if args.emit_plots:
        _write_long_csv(
            _out(cfg, "stability_long.csv"),
            {"kind": "stability-long", "provenance": prov},
            "k",
            scan.ks,
            {"sigma1": scan.sigma1s, "gap": scan.gaps},
        )
    print(
        f"stability: {len(rows)} samples, sigma1 from {rows[0][1]:.4f} "
        f"down to {rows[-1][1]:.4f}, gap slope {scan.slope:.4f}"
    )
    return 0


def _cmd_mountain_pass(cfg, args):
    from .core import ConvergenceError
    from .mountainpass import build_form, find_second_solution
    from .picard import iterate_minimal

    params = _problem(cfg)
    _require_subcritical(params, "no second solution exists")
    op = _operator(cfg, params)
    prov = _provenance(cfg, params, op)
    urep = iterate_minimal(
        params, op, tol=float(cfg["tolerances"]["picard_tol"]), max_iter=8000
    )
    if urep.status != "Converged":
        raise ConvergenceError(
            f"minimal solution did not converge (status {urep.status}); "
            f"is k inside the existence range?"
        )
    form = build_form(op)
    result = find_second_solution(
        params, op, form, urep.profile, method=args.method, seed=int(cfg["seed"])
    )

    r, u_total, _, _ = _profile_columns(urep.profile)
    _, w_total, _, _ = _profile_columns(result.second_solution)
    header = {"kind": "mountain-pass", "provenance": prov}
    _write_csv(
        _out(cfg, "mountain_pass.csv"),
        header,
        ["r", "u_min", "v", "second_solution"],
        list(zip(r, u_total, result.v.values, w_total)),
    )
    trace_rows = [
        (step, "nan" if e is None else e, g) for step, e, g in result.trace
    ]
    _write_csv(
        _out(cfg, "mountain_pass_trace.csv"),
        {"kind": "mountain-pass-trace", "provenance": prov},
        ["step", "energy", "grad_norm"],
        trace_rows,
    )
    _write_json(
        _out(cfg, "mountain_pass.json"),
        {
            "command": "mountain-pass",
            "method": args.method,
            "energy": result.energy,
            "level_lower_bound": result.level_lower_bound,
            "v_max": float(result.v.values.max()),
            "provenance": prov,
        },
    )
    if args.emit_plots:
        _write_long_csv(
            _out(cfg, "mountain_pass_long.csv"),
            {"kind": "mountain-pass-long", "provenance": prov},
            "r",
            r,
            {
                "u_min": u_total,
                "v": result.v.values,
                "second_solution": w_total,
            },
        )
    print(
        f"mountain-pass ({args.method}): energy {result.energy:.6g} >= "
        f"certified level {result.level_lower_bound:.6g}, "
        f"max perturbation {result.v.values.max():.6g}"
    )
    return 0


def _cmd_classify(cfg, args):
    # Profiles produced by this tool embed how they were built; adopt the
    # embedded parameters and grid as the config baseline so the natural
    # solve-then-classify flow needs no repeated flags.  Explicit config
    # files, --set expressions and flags still override.
    header, data = _read_profile_csv(args.profile)
    embedded = header.get("provenance", {}).get("config", {})
    base = {
        key: embedded[key] for key in ("params", "grid") if key in embedded
    }
    if base:
        cfg = _build_config(args, base=base)
    params = _problem(cfg)
    op = _operator(cfg, params)
    prov = _provenance(cfg, params, op)
    profile = _profile_from_csv(args.profile, header, data, op)
    payload = _classification_payload(
        profile, params, op, k_reference=args.k_reference
    )
    payload.update(
        {"command": "classify", "profile": args.profile, "provenance": prov}
    )
    _write_json(_out(cfg, "classify.json"), payload)
    # Echo the parsed profile back under its original header: load/save is
    # an identity on canonical profile CSVs, so the copy is byte-equal.
    _write_csv(
        _out(cfg, "classify_profile.csv"),
        header,
        list(_PROFILE_COLUMNS),
        list(zip(*(data[c] for c in _PROFILE_COLUMNS))),
    )
    print(
        f"classify: verdict {payload['verdict']}, slope "
        f"{payload['exponent_fit']:.4f}, limit ratio {payload['limit_ratio']:.4f}"
    )
    return 0


def _cmd_eigen(cfg, args):
    from .picard import first_eigenpair

    params = _problem(cfg)
    op = _operator(cfg, params)
    prov = _provenance(cfg, params, op)
    pair = first_eigenpair(op, tol=float(cfg["tolerances"]["eig_tol"]))
    phi = pair["phi1"].values
    header = {"kind": "eigen", "lambda1": pair["lambda1"], "provenance": prov}
    _write_csv(
        _out(cfg, "eigen.csv"),
        header,
        ["r", "phi1"],
        list(zip(op.grid.nodes, phi)),
    )
    _write_json(
        _out(cfg, "eigen.json"),
        {"command": "eigen", "lambda1": pair["lambda1"], "provenance": prov},
    )
    if args.emit_plots:
        _write_long_csv(
            _out(cfg, "eigen_long.csv"),
            {"kind": "eigen-long", "provenance": prov},
            "r",
            op.grid.nodes,
            {"phi1": phi},
        )
    print(f"eigen: lambda1 = {pair['lambda1']:.12g}")
    return 0


def _cmd_bifurcation(cfg, args):
    import numpy as np

    from .core import RegimeError, SecondSolutionNotFound
    from .mountainpass import build_form, find_second_solution
    from .picard import find_kstar, iterate_minimal
    from .stability import sigma1

    params = _problem(cfg)
    _require_subcritical(params, "the bifurcation diagram is empty for k > 0")
    op = _operator(cfg, params)
    prov = _provenance(cfg, params, op)
    bracket = find_kstar(
        params, op, bracket_tol=float(cfg["tolerances"]["bracket_tol"])
    )
    form = build_form(op)
    n_samples = int(cfg["scan"]["n_samples"])
    ks = np.linspace(0.1, 0.95, n_samples) * bracket.k_lo
    weights = op.grid.weights

    def branch_norm(profile):
        # Weighted L2 norm of the full profile; finite despite the origin
        # singularity because r^(2 alpha - N) is square integrable here.
        return float(np.sqrt(weights @ profile.total**2))

    rows = []
    for k in ks:
        pk = params.with_k(float(k))
        urep = iterate_minimal(
            pk, op, tol=float(cfg["tolerances"]["picard_tol"]), max_iter=8000
        )
        sig = sigma1(urep.profile, pk, op).sigma1
        try:
            res = find_second_solution(
                pk, op, form, urep.profile, seed=int(cfg["seed"])
            )
            w_norm = branch_norm(res.second_solution)
            energy = res.energy
            beta = res.level_lower_bound
        except (SecondSolutionNotFound, RegimeError):
            w_norm = energy = beta = float("nan")
        rows.append((float(k), branch_norm(urep.profile), sig, w_norm, energy, beta))
    header = {"kind": "bifurcation", "provenance": prov}
    columns = ["k", "u_norm", "sigma1", "w_norm", "energy", "beta"]
    _write_csv(_out(cfg, "bifurcation.csv"), header, columns, rows)
    _write_json(
        _out(cfg, "bifurcation.json"),
        {
            "command": "bifurcation",
            "k_lo": bracket.k_lo,
            "k_hi": bracket.k_hi,
            "columns": columns,
            "rows": rows,
            "provenance": prov,
        },
    )
    if args.emit_plots:
        series = {
            name: [row[i + 1] for row in rows]
            for i, name in enumerate(columns[1:])
        }
        _write_long_csv(
            _out(cfg, "bifurcation_long.csv"),
            {"kind": "bifurcation-long", "provenance": prov},
            "k",
            [row[0] for row in rows],
            series,
        )
    print(
        f"bifurcation: {n_samples} samples over k in "
        f"[{ks[0]:.6g}, {ks[-1]:.6g}], k* bracket "
        f"[{bracket.k_lo:.6g}, {bracket.k_hi:.6g}]"
    )
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "kstar": _cmd_kstar,
    "stability": _cmd_stability,
    "mountain-pass": _cmd_mountain_pass,
    "classify": _cmd_classify,
    "eigen": _cmd_eigen,
    "bifurcation": _cmd_bifurcation,
}


def _add_common(sp):
    sp.add_argument("--config", help="JSON configuration file")
    sp.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a dotted config key, e.g. tolerances.picard_tol=1e-12",
    )
    sp.add_argument("--dim", type=int, help="space dimension N")
    sp.add_argument("--alpha", type=float, help="fractional order in (0, 1)")
    sp.add_argument("--p", type=float, help="nonlinearity exponent")
    sp.add_argument("--k", type=float, help="point-source strength")
    sp.add_argument("--n-nodes", type=int, dest="n_nodes", help="grid size")
    sp.add_argument("--grading", type=float, help="origin grading exponent")
    sp.add_argument("--seed", type=int, help="seed for sampled certifications")
    sp.add_argument("--output", "-o", help="output directory")
    sp.add_argument(
        "--emit-plots",
        action="store_true",
        help="also write long-format CSVs for plotting tools",
    )
    sp.add_argument(
        "--threads", type=int, help="cap numeric worker threads (set before compute)"
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

    sp = sub.add_parser("solve", help="minimal solution via monotone iteration")
    _add_common(sp)

    sp = sub.add_parser("kstar", help="bracket the extremal source strength")
    _add_common(sp)
    sp.add_argument(
        "--bracket-tol",
        type=float,
        dest="bracket_tol",
        help="relative bracket width target",
    )

    sp = sub.add_parser("stability", help="sigma1 scan along the minimal branch")
    _add_common(sp)
    sp.add_argument("--bracket-tol", type=float, dest="bracket_tol")
    sp.add_argument(
        "--n-samples", type=int, dest="n_samples", help="scan sample count"
    )

    sp = sub.add_parser(
        "mountain-pass", help="second solution above the minimal one"
    )
    _add_common(sp)
    sp.add_argument(
        "--method",
        choices=["MountainPassAlgorithm", "DeflatedNewton"],
        default="MountainPassAlgorithm",
        help="search strategy",
    )

    sp = sub.add_parser("classify", help="diagnose a stored profile CSV")
    _add_common(sp)
    sp.add_argument("profile", help="profile CSV produced by the solve command")
    sp.add_argument(
        "--k-reference",
        type=float,
        dest="k_reference",
        help="calibrating point mass for the limit ratio",
    )

    sp = sub.add_parser("eigen", help="principal eigenpair of the Green operator")
    _add_common(sp)

    sp = sub.add_parser(
        "bifurcation", help="two-branch table over the existence range"
    )
    _add_common(sp)
    sp.add_argument("--bracket-tol", type=float, dest="bracket_tol")
    sp.add_argument("--n-samples", type=int, dest="n_samples")

    return parser


def main(argv=None):
    """Entry point; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if isinstance(code, int) else 0 if code is None else 1
    if getattr(args, "threads", None):
        # Must land in the environment before numpy/BLAS first load, which
        # is why all numeric imports in this module are deferred.
        for var in _THREAD_VARS:
            os.environ[var] = str(args.threads)
    try:
        cfg = _build_config(args)
    except (ValueError, OSError) as exc:
        print(f"fracsing: configuration error: {exc}", file=sys.stderr)
        return 1

    from .core import (
        ConvergenceError,
        KernelError,
        ParameterError,
        RegimeError,
    )

    try:
        return _COMMANDS[args.command](cfg, args)
    except (RegimeError, ConvergenceError) as exc:
        print(f"fracsing {args.command}: {exc}", file=sys.stderr)
        return 2
    except (ParameterError, KernelError) as exc:
        print(f"fracsing {args.command}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"fracsing {args.command}: I/O error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
