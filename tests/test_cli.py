"""End-to-end command-line checks, run in process through cli.main.

A module-wide operator cache keeps the repeated invocations cheap; the
tests cover every subcommand, the configuration precedence chain, the
documented exit codes, cache self-healing, and byte-level determinism
of the emitted files.
"""

import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

import fracsing.picard
from fracsing import cli, green
from fracsing.core import ConvergenceError, ParameterError, SecondSolutionNotFound
from fracsing.picard import first_eigenpair


@pytest.fixture(scope="module", autouse=True)
def shared_cache(tmp_path_factory):
    """Route every invocation in this module through one operator cache."""
    path = tmp_path_factory.mktemp("opcache")
    old = os.environ.get("FRACSING_CACHE")
    os.environ["FRACSING_CACHE"] = str(path)
    yield path
    if old is None:
        os.environ.pop("FRACSING_CACHE", None)
    else:
        os.environ["FRACSING_CACHE"] = old


def _header(path):
    with open(path, "r") as fh:
        line = fh.readline()
    assert line.startswith("# ")
    return json.loads(line[2:])


def _columns(path):
    with open(path, "r") as fh:
        fh.readline()
        return fh.readline().strip().split(",")


def _data(path):
    return np.loadtxt(path, delimiter=",", skiprows=2)


def _check_outputs(out, command, tables, long_x=None, others=()):
    """The run in `out` wrote exactly its files, with kind and provenance
    in each CSV header and command and provenance in the JSON report.

    tables maps CSV name to header kind, the command's main table first;
    long_x is the x column of the --emit-plots long CSV (None: no long
    CSV); others are files whose headers are not the driver's.
    """
    stem = command.replace("-", "_")
    expected = {f"{stem}.json", *tables, *others}
    if long_x is not None:
        expected.add(f"{stem}_long.csv")
        tables = {**tables, f"{stem}_long.csv": next(iter(tables.values())) + "-long"}
        assert _columns(out / f"{stem}_long.csv") == ["series", long_x, "value"]
    assert set(os.listdir(out)) == expected
    report = json.loads((out / f"{stem}.json").read_text())
    assert report["command"] == command
    assert report["provenance"]["grid"]["n_nodes"] == 200
    for name, kind in tables.items():
        head = _header(out / name)
        assert head["kind"] == kind
        assert head["provenance"] == report["provenance"]
    return report


SOLVE_ARGS = ["solve", "--k", "0.05", "--n-nodes", "200"]


@pytest.fixture(scope="module")
def solve_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("solve")
    assert cli.main(SOLVE_ARGS + ["--emit-plots", "-o", str(out)]) == 0
    return out


def test_solve_writes_profile_and_report(solve_dir, op200):
    _check_outputs(solve_dir, "solve", {"solve.csv": "profile"}, long_x="r")
    head = _header(solve_dir / "solve.csv")
    assert head["kind"] == "profile"
    prov = head["provenance"]
    assert len(prov["config_hash"]) == 16
    assert prov["grid"]["n_nodes"] == 200
    assert prov["lambda1"] == pytest.approx(
        first_eigenpair(op200)["lambda1"], rel=1e-12
    )
    assert _columns(solve_dir / "solve.csv") == [
        "r",
        "u_total",
        "u_smooth",
        "u_singular",
    ]
    data = _data(solve_dir / "solve.csv")
    assert data.shape == (200, 4)
    assert np.allclose(data[:, 1], data[:, 2] + data[:, 3], rtol=1e-12, atol=1e-14)

    payload = json.loads((solve_dir / "solve.json").read_text())
    assert payload["barrier_certified"] is True
    assert payload["classification"]["verdict"] == "DiracSingularity"
    assert payload["classification"]["k_pairing_estimate"] == pytest.approx(
        0.05, rel=0.02
    )
    assert 0.0 <= payload["classification"]["weak_identity_residual"] <= 1e-6


def test_a_solve_above_k_star_exits_2_and_writes_nothing(tmp_path, capsys):
    # k = 10 is about 4 k* on the desk case: the first Newton step falls.
    out = tmp_path / "out"
    assert cli.main(["solve", "--k", "10", "--n-nodes", "200", "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("fracsing solve: k = 10 is at or above k*: Newton step 1 ")
    assert not out.exists()


@pytest.fixture(scope="module")
def kstar_cases():
    """find_kstar's bracket for each case, keyed by its CLI flags."""
    cases = {
        "desk": ["--n-nodes", "200"],
        "n3": ["--dim", "3", "--alpha", "0.6", "--p", "1.5", "--n-nodes", "200"],
        "p-near-one": ["--p", "1.1", "--n-nodes", "120"],
    }
    brackets = {}
    for name, flags in cases.items():
        cfg = cli._build_config(cli._build_parser().parse_args(["kstar", *flags]))
        params = cli._problem(cfg)
        op = cli._operator(cfg, params)
        brackets[name] = flags, fracsing.picard.find_kstar(params, op)
    return brackets


def test_solve_at_k_lo_converges_near_p_one(kstar_cases, tmp_path, monkeypatch):
    # Picard's default rule ran out of iterations here (MaxIterations
    # after 8000); the Newton solve needs no budget of that size.  The
    # classifier rejects this profile (slope -0.2887 against -0.5), an
    # open fault of its own, so it is left out here.
    monkeypatch.setattr(cli, "_classification_payload", lambda *args: {"verdict": None})
    flags, bracket = kstar_cases["p-near-one"]
    argv = ["solve", *flags, "--k", repr(bracket.k_lo), "-o", str(tmp_path)]
    assert cli.main(argv) == 0
    smooth = _data(tmp_path / "solve.csv")[:, 2]
    assert np.array_equal(smooth, bracket.profile_lo.values)


@pytest.mark.parametrize("factor", [1.0 + 1e-8, 1.0002, 1.01])
@pytest.mark.parametrize("case", ["desk", "n3", "p-near-one"])
@pytest.mark.parametrize("command", ["solve", "mountain-pass"])
def test_above_k_star_is_a_regime_error(
    kstar_cases, command, case, factor, tmp_path, capsys
):
    flags, bracket = kstar_cases[case]
    k = factor * bracket.k_hi
    out = tmp_path / "out"
    assert cli.main([command, *flags, "--k", repr(k), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    prefix = f"fracsing {command}: k = {k:.6g} is at or above k*: Newton step "
    assert err.startswith(prefix)
    assert not out.exists()


def test_a_fold_beyond_double_range_is_a_typed_error(tmp_path, capsys):
    # At p = 1.002, k_p = 10^423.3 lies beyond the double range, but
    # mu_p = k_p^(p-1) does not: the fold runs and its k* is the limit.
    argv = ["kstar", "--dim", "5", "--alpha", "0.9", "--p", "1.002", "--n-nodes", "120"]
    assert cli.main([*argv, "-o", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        "fracsing kstar: the fold k* = 10^578.58 leaves the double range\n"
    )
    assert os.listdir(tmp_path) == []


def test_a_minimal_solution_beyond_double_range_exits_2_with_one_line(
    tmp_path, capsys
):
    # The fold k* is 2.0e307, so the profile at k_lo overflows; no
    # RuntimeWarning comes before the typed error.
    argv = ["kstar", "--dim", "4", "--alpha", "0.5", "--p", "1.001737"]
    assert cli.main([*argv, "--n-nodes", "120", "-o", str(tmp_path)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line == (
        "fracsing kstar: the minimal solution at k = 2.02373e+307 "
        "leaves the double range"
    )
    assert os.listdir(tmp_path) == []


def test_a_solve_far_above_k_star_is_the_certified_verdict(tmp_path, capsys):
    # k = 1e100 is about 4e99 k* on the desk case; in w = v/k the first
    # residual stays in the double range and the first step falls.
    out = tmp_path / "out"
    argv = ["solve", "--k", "1e100", "--n-nodes", "120", "-o", str(out)]
    assert cli.main(argv) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line == (
        "fracsing solve: k = 1e+100 is at or above k*: Newton step 1 falls "
        "by 0.5 of u at a node"
    )
    assert not out.exists()


def test_a_residual_norm_beyond_double_range_exits_2_with_one_line(tmp_path, capsys):
    # At k = 1e150 and p = 3, mu = k^(p-1) = 1e300 and the first
    # residual's squared 2-norm overflows, which the GMRES cycle would
    # divide by.
    out = tmp_path / "out"
    argv = ["solve", "--k", "1e150", "--p", "3", "--n-nodes", "120", "-o", str(out)]
    assert cli.main(argv) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line == (
        "fracsing solve: Newton's method for the minimal solution at k = 1e+150 "
        "met a residual whose 2-norm leaves the double range after 0 steps"
    )
    assert not out.exists()


def test_kstar_near_p_one_runs_the_fold_from_k_p(tmp_path):
    # k_p is 4.4e6 and k* 1.9e28, where 60 doublings of k_p fell short.
    argv = ["kstar", "--alpha", "0.5", "--p", "1.01", "--n-nodes", "120"]
    assert cli.main([*argv, "-o", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "kstar.json").read_text())
    assert payload["k_hi"] == pytest.approx(1.93483e28, rel=1e-5)
    assert payload["k_lo"] == pytest.approx(payload["k_hi"] * (1.0 - 5e-4), rel=1e-15)


def test_kstar_runs_where_a_residual_in_v_would_overflow(tmp_path):
    # k_p is 3.5e163, where the squared 2-norm of a residual in v
    # overflowed; in w = v/k the solve at mu_p and the fold do not see
    # the scale.
    argv = ["kstar", "--alpha", "0.75", "--p", "1.002", "--n-nodes", "120"]
    assert cli.main([*argv, "-o", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "kstar.json").read_text())
    assert payload["k_lo"] == pytest.approx(1.53928e255, rel=1e-5)
    assert payload["k_hi"] == pytest.approx(1.54005e255, rel=1e-5)


def test_solve_reruns_are_byte_identical(solve_dir):
    before = {
        name: (solve_dir / name).read_bytes()
        for name in ("solve.csv", "solve.json")
    }
    assert cli.main(SOLVE_ARGS + ["-o", str(solve_dir)]) == 0
    for name, blob in before.items():
        assert (solve_dir / name).read_bytes() == blob


def test_classify_round_trips_the_profile(solve_dir, tmp_path):
    rc = cli.main(
        ["classify", str(solve_dir / "solve.csv"), "--emit-plots", "-o", str(tmp_path)]
    )
    assert rc == 0
    # No long CSV: classify has no series to plot.
    payload = _check_outputs(tmp_path, "classify", {}, others=["classify_profile.csv"])
    assert payload["verdict"] == "DiracSingularity"
    assert payload["k_pairing_estimate"] == pytest.approx(0.05, rel=0.02)
    solved = json.loads((solve_dir / "solve.json").read_text())["classification"]
    assert payload["weak_identity_residual"] == solved["weak_identity_residual"]
    # The echoed profile is byte-identical to its source.
    assert (tmp_path / "classify_profile.csv").read_bytes() == (
        solve_dir / "solve.csv"
    ).read_bytes()


def test_classify_echoes_a_reformatted_profile_byte_for_byte(solve_dir, tmp_path):
    # The same floats, each written as Python's shortest repr instead of
    # %.17g: classify accepts the file and echoes it as it is.
    lines = (solve_dir / "solve.csv").read_text().splitlines()
    rows = [",".join(repr(float(c)) for c in line.split(",")) for line in lines[2:]]
    profile = tmp_path / "shortest.csv"
    profile.write_text("\n".join(lines[:2] + rows) + "\n")
    assert profile.read_bytes() != (solve_dir / "solve.csv").read_bytes()
    out = tmp_path / "out"
    assert cli.main(["classify", str(profile), "-o", str(out)]) == 0
    assert (out / "classify_profile.csv").read_bytes() == profile.read_bytes()


def test_classify_missing_profile_exits_1(tmp_path):
    rc = cli.main(["classify", str(tmp_path / "absent.csv"), "-o", str(tmp_path)])
    assert rc == 1


# As an error, a numpy warning on the overflow fails the test.
@pytest.mark.filterwarnings("error")
def test_classify_an_overflowing_profile_exits_1_with_one_line(
    solve_dir, tmp_path, capsys
):
    # A singular part of 1e300 overflows u^p in the test-function pairing.
    first, rest = (solve_dir / "solve.csv").read_text().split("\n", 1)
    head = json.loads(first[2:])
    head["singular_coeff"] = 1e300
    profile = tmp_path / "big.csv"
    profile.write_text("# " + json.dumps(head) + "\n" + rest)
    out = tmp_path / "out"
    assert cli.main(["classify", str(profile), "-o", str(out)]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert "pairing is nan, not a finite number" in line
    assert not out.exists()


def test_classify_rejects_another_grid_before_assembly(
    solve_dir, tmp_path, capsys, monkeypatch
):
    def unreachable(*args, **kwargs):
        raise AssertionError("operator built for a profile from another grid")

    monkeypatch.setattr(green, "assemble", unreachable)
    monkeypatch.setattr(green, "load_operator", unreachable)
    profile = solve_dir / "solve.csv"
    out = tmp_path / "out"
    rc = cli.main(["classify", str(profile), "--n-nodes", "300", "-o", str(out)])
    assert rc == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert "radial nodes do not match the configured grid" in line
    assert "(200 nodes in file, 300 configured)" in line
    assert not out.exists()


_HEADER = '# {"kind": "profile"}'
_COLUMNS = "r,u_total,u_smooth,u_singular"


@pytest.mark.parametrize(
    "text",
    [
        "r,u\n1,2\n",
        "# {not json\n" + _COLUMNS + "\n0.1,1,1,0\n",
        "# [1, 2]\n" + _COLUMNS + "\n0.1,1,1,0\n",
        _HEADER + "\nr,u\n1,2\n",
        _HEADER + "\n" + _COLUMNS + "\n0.1,1,1,0\n0.2,1,1\n",
        _HEADER + "\n" + _COLUMNS + "\n0.1,1,one,0\n",
        '# {"provenance": [1]}\n' + _COLUMNS + "\n0.1,1,1,0\n",
        '# {"provenance": {"config": {"params": {"dim": "abc"}}}}\n'
        + _COLUMNS
        + "\n0.1,1,1,0\n",
        '# {"singular_coeff": "lots"}\n' + _COLUMNS + "\n0.1,1,1,0\n",
        b"\xff\xfe# {}\n",
        _HEADER + "\n" + _COLUMNS + "\n",
    ],
    ids=[
        "no-header",
        "bad-json",
        "not-object",
        "columns",
        "short-row",
        "non-numeric",
        "provenance-not-object",
        "embedded-config-type",
        "non-numeric-singular-part",
        "not-utf8",
        "no-rows",
    ],
)
# A warning, such as numpy's on a table without rows, would print a second
# stderr line; as an error here it fails the case.
@pytest.mark.filterwarnings("error")
def test_classify_rejects_a_malformed_profile(tmp_path, capsys, text):
    profile = tmp_path / "bad.csv"
    profile.write_bytes(text if isinstance(text, bytes) else text.encode())
    out = tmp_path / "out"
    assert cli.main(["classify", str(profile), "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and str(profile) in err
    assert "Traceback" not in err
    assert not out.exists()


def test_a_grid_below_double_precision_exits_1_before_assembly(
    tmp_path, capsys, monkeypatch
):
    # At boundary grading 6.67 and n = 1600 the last cell is narrower than
    # the spacing of doubles near r = 1, so its nodes round onto 1.
    def unreachable(*args, **kwargs):
        raise AssertionError("operator assembled on a degenerate grid")

    monkeypatch.setattr(green, "assemble", unreachable)
    out = tmp_path / "out"
    argv = ["eigen", "--dim", "3", "--alpha", "0.6", "--p", "1.5"]
    argv += ["--grading", "6.67", "--n-nodes", "1600", "-o", str(out)]
    assert cli.main(argv) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(
        "fracsing eigen: grid nodes are not strictly increasing inside (0, 1)"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "extra, shown",
    [
        (["--p", "inf", "--k", "0"], "exponent p must be finite and > 1, got inf"),
        (["--k", "inf"], "source strength k must be finite and >= 0, got inf"),
    ],
)
def test_a_non_finite_p_or_k_exits_1_before_assembly(
    tmp_path, capsys, monkeypatch, extra, shown
):
    # An infinite p used to write "p": Infinity, which is not JSON, into
    # solve.json; an infinite k ended in a non-finite residual (exit 2).
    def unreachable(*args, **kwargs):
        raise AssertionError("an operator was loaded or assembled")

    monkeypatch.setattr(green, "assemble", unreachable)
    monkeypatch.setattr(green, "load_operator", unreachable)
    out = tmp_path / "out"
    assert cli.main(["solve", *extra, "--n-nodes", "60", "-o", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"fracsing solve: {shown}"]
    assert not out.exists()


def test_eigen_runs_one_power_iteration(tmp_path, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return first_eigenpair(*args, **kwargs)

    monkeypatch.setattr(fracsing.picard, "first_eigenpair", counted)
    assert cli.main(["eigen", "--n-nodes", "200", "-o", str(tmp_path)]) == 0
    assert len(calls) == 1


def test_mountain_pass_factors_and_iterates_once(tmp_path, monkeypatch):
    # The provenance eigenpair and the energy form's phi1 share one power
    # iteration; the energy form and the weak-identity battery share one
    # factorisation.  sigma1 binds its own reference to the power
    # iteration when stability is imported, before the patch below, and
    # is not counted.
    import fracsing.mountainpass  # noqa: F401

    counts = {"power": 0, "factor": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        fracsing.picard,
        "_power_iteration",
        counted("power", fracsing.picard._power_iteration),
    )
    monkeypatch.setattr(
        scipy.linalg, "cholesky", counted("factor", scipy.linalg.cholesky)
    )
    argv = ["mountain-pass", "--k", "1.2", "--n-nodes", "200", "-o", str(tmp_path)]
    assert cli.main(argv) == 0
    assert counts == {"power": 1, "factor": 1}


def test_eigen_matches_the_library_route(tmp_path, op200):
    argv = ["eigen", "--n-nodes", "200", "--emit-plots", "-o", str(tmp_path)]
    assert cli.main(argv) == 0
    payload = _check_outputs(tmp_path, "eigen", {"eigen.csv": "eigen"}, long_x="r")
    lam_ref = first_eigenpair(op200)["lambda1"]
    assert payload["lambda1"] == pytest.approx(lam_ref, rel=1e-12)
    assert _header(tmp_path / "eigen.csv")["lambda1"] == payload["lambda1"]
    data = _data(tmp_path / "eigen.csv")
    assert np.all(data[:, 1] > 0.0)


def test_kstar_brackets_the_extremal_strength(tmp_path):
    argv = ["kstar", "--n-nodes", "200", "--emit-plots", "-o", str(tmp_path)]
    assert cli.main(argv) == 0
    payload = _check_outputs(tmp_path, "kstar", {"kstar.csv": "kstar"}, long_x="k_lo")
    assert 0.0 < payload["k_lo"] < payload["k_hi"]
    assert payload["relative_width"] <= 1e-3
    row = _data(tmp_path / "kstar.csv")
    assert row[0] == payload["k_lo"] and row[1] == payload["k_hi"]


def test_stability_scan_decreases(tmp_path):
    rc = cli.main(
        ["stability", "--n-nodes", "200", "--n-samples", "4", "--emit-plots"]
        + ["-o", str(tmp_path)]
    )
    assert rc == 0
    payload = _check_outputs(
        tmp_path, "stability", {"stability.csv": "stability"}, long_x="k"
    )
    assert payload["slope"] > 0.0
    data = _data(tmp_path / "stability.csv")
    assert data.shape == (4, 3)
    assert np.all(np.diff(data[:, 1]) < 0.0)
    assert np.allclose(data[:, 2], 1.0 - 1.0 / data[:, 1], rtol=1e-12)


def test_mountain_pass_command(tmp_path):
    tables = {
        "mountain_pass.csv": "mountain-pass",
        "mountain_pass_trace.csv": "mountain-pass-trace",
    }
    # The first run leaves --method at its default.
    for method, flags in (
        ("MountainPassAlgorithm", []),
        ("DeflatedNewton", ["--method", "DeflatedNewton"]),
    ):
        out = tmp_path / method
        rc = cli.main(
            ["mountain-pass", "--k", "1.2", "--n-nodes", "200", "--emit-plots"]
            + flags
            + ["-o", str(out)]
        )
        assert rc == 0
        payload = _check_outputs(out, "mountain-pass", tables, long_x="r")
        assert payload["energy"] >= payload["level_lower_bound"] > 0.0
        assert payload["method"] == method
        assert 0.0 <= payload["weak_identity_residual"] <= 1e-5
        data = _data(out / "mountain_pass.csv")
        assert _columns(out / "mountain_pass.csv") == [
            "r",
            "u_min",
            "v",
            "second_solution",
        ]
        assert np.all(data[:, 3] > data[:, 1])
        assert np.allclose(
            data[:, 3], data[:, 1] + data[:, 2], rtol=1e-10, atol=1e-12
        )
        assert _columns(out / "mountain_pass_trace.csv") == [
            "step",
            "energy",
            "grad_norm",
        ]
        trace = _data(out / "mountain_pass_trace.csv")
        assert trace.shape[1] == 3
        assert np.array_equal(trace[:, 0], np.arange(len(trace)))
        assert trace[-1, 2] <= 1e-10
        # Newton rows carry no energy; the deflated search has only those.
        assert np.isnan(trace[-1, 1])
        if method == "DeflatedNewton":
            assert np.all(np.isnan(trace[:, 1]))
        else:
            assert np.isfinite(trace[0, 1])


def test_bifurcation_table(tmp_path):
    rc = cli.main(
        ["bifurcation", "--n-nodes", "200", "--n-samples", "3", "--emit-plots"]
        + ["-o", str(tmp_path)]
    )
    assert rc == 0
    payload = _check_outputs(
        tmp_path, "bifurcation", {"bifurcation.csv": "bifurcation"}, long_x="k"
    )
    assert len(payload["rows"]) == 3
    data = _data(tmp_path / "bifurcation.csv")
    assert data.shape == (3, 6)
    # Minimal branch grows with k while the second branch comes down.
    assert np.all(np.diff(data[:, 0]) > 0.0)
    assert np.all(np.diff(data[:, 1]) > 0.0)
    assert np.all(np.diff(data[:, 2]) < 0.0)
    finite = ~np.isnan(data[:, 3])
    assert np.any(finite)
    assert np.all(data[finite, 3] > data[finite, 1])


def test_bifurcation_keeps_the_row_of_a_failed_search(tmp_path, monkeypatch):
    # A second-solution search that fails leaves NaN in its row's
    # second-branch columns; the minimal branch there and the other rows
    # are computed, and the command exits 0.
    import fracsing.mountainpass

    real = fracsing.mountainpass.find_second_solution
    calls = []

    def second_search_fails(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            raise SecondSolutionNotFound("no critical point found")
        return real(*args, **kwargs)

    monkeypatch.setattr(
        fracsing.mountainpass, "find_second_solution", second_search_fails
    )
    argv = ["bifurcation", "--n-nodes", "200", "--n-samples", "3"]
    assert cli.main([*argv, "-o", str(tmp_path)]) == 0
    assert len(calls) == 3
    data = _data(tmp_path / "bifurcation.csv")
    assert data.shape == (3, 6)
    # Columns: k, u_norm, sigma1, w_norm, energy, beta.
    assert np.all(np.isfinite(data[1, :3])) and np.all(np.isnan(data[1, 3:]))
    assert np.all(np.isfinite(data[[0, 2]]))


def test_bifurcation_on_an_unconverged_minimal_solution_exits_2(
    tmp_path, capsys, monkeypatch
):
    # Every minimal solve after the k* bracket, that is every sample's,
    # fails to converge; no row is built and no file is written.
    real_kstar = fracsing.picard.find_kstar
    real_solve = fracsing.picard.minimal_solution
    brackets = []

    def kstar(*args):
        brackets.append(real_kstar(*args))
        return brackets[-1]

    def stalled(params, op):
        if brackets:
            raise ConvergenceError(f"minimal solution at k = {params.k:.6g} stalled")
        return real_solve(params, op)

    monkeypatch.setattr(fracsing.picard, "find_kstar", kstar)
    monkeypatch.setattr(fracsing.picard, "minimal_solution", stalled)
    out = tmp_path / "out"
    argv = ["bifurcation", "--n-nodes", "200", "--n-samples", "3", "-o", str(out)]
    assert cli.main(argv) == 2
    k = 0.1 * brackets[0].k_lo
    assert capsys.readouterr().err.splitlines() == [
        f"fracsing bifurcation: minimal solution at k = {k:.6g} stalled"
    ]
    assert not (out / "bifurcation.csv").exists()


def test_emit_plots_writes_long_format(tmp_path):
    rc = cli.main(
        ["eigen", "--n-nodes", "200", "--emit-plots", "-o", str(tmp_path)]
    )
    assert rc == 0
    assert (tmp_path / "eigen_long.csv").exists()
    assert _columns(tmp_path / "eigen_long.csv") == ["series", "r", "value"]


def test_configuration_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": {"k": 0.02}, "grid": {"n_nodes": 200}}))
    base = ["eigen", "--config", str(cfg), "-o", str(tmp_path)]

    assert cli.main(base) == 0
    conf = json.loads((tmp_path / "eigen.json").read_text())["provenance"]["config"]
    assert conf["params"]["k"] == 0.02
    assert conf["grid"]["n_nodes"] == 200
    # Each object merges into its section, which keeps its other keys.
    assert conf["params"]["alpha"] == 0.75
    assert conf["grid"]["grading"] == 2.0

    cfg.write_text(json.dumps({"params": {"k": 0.03}, "grid": {"n_nodes": 200}}))
    assert cli.main(base) == 0
    conf = json.loads((tmp_path / "eigen.json").read_text())["provenance"]["config"]
    assert conf["params"]["k"] == 0.03

    assert cli.main(base + ["--k", "0.04"]) == 0
    conf = json.loads((tmp_path / "eigen.json").read_text())["provenance"]["config"]
    assert conf["params"]["k"] == 0.04


def test_corrupt_cache_is_rebuilt(tmp_path, monkeypatch, op200):
    # A cache of its own, so the test does not depend on the entries that
    # earlier tests left in the module's shared cache.
    cache = tmp_path / "cache"
    monkeypatch.setenv("FRACSING_CACHE", str(cache))
    assert cli.main(["eigen", "--n-nodes", "200", "-o", str(tmp_path)]) == 0
    (victim,) = cache.iterdir()
    line, _, payload = victim.read_bytes().partition(b"\n")
    header = json.loads(line)
    no_checksum = {key: val for key, val in header.items() if key != "sha256"}
    no_dim = {key: val for key, val in header.items() if key != "dim"}
    # The checksum covers every header field with the matrix, so an edited
    # field is caught like an edited matrix: no sha256, no dim, another
    # alpha, a non-integer node count; a JSON list has no fields at all.
    corruptions = [
        b"not an operator payload",
        json.dumps(no_checksum).encode() + b"\n" + payload,
        b"[1, 2]\n" + payload,
        json.dumps({**header, "n_nodes": "abc"}).encode() + b"\n" + payload,
        json.dumps(no_dim).encode() + b"\n" + payload,
        json.dumps({**header, "alpha": 0.5}).encode() + b"\n" + payload,
    ]
    for blob in corruptions:
        victim.write_bytes(blob)
        assert cli.main(["eigen", "--n-nodes", "200", "-o", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "eigen.json").read_text())
        assert report["lambda1"] == pytest.approx(
            first_eigenpair(op200)["lambda1"], rel=1e-12
        )
        # The poisoned entry was silently regenerated.
        assert np.array_equal(green.load_operator(str(victim)).matrix, op200.matrix)


def test_cache_of_an_older_format_is_rebuilt(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    monkeypatch.setenv("FRACSING_CACHE", str(cache))
    assert cli.main(SOLVE_ARGS + ["-o", str(tmp_path / "first")]) == 0
    (entry,) = cache.iterdir()
    line, _, payload = entry.read_bytes().partition(b"\n")
    # Versions 1 to 7 held other kernel values or the grid arrays too.
    for version in (1, 2, 3, 4, 5, 6, 7):
        header = dict(json.loads(line), format_version=version)
        entry.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + payload)
        with pytest.raises(ParameterError, match="unsupported operator file version"):
            green.load_operator(str(entry))
        assert cli.main(SOLVE_ARGS + ["-o", str(tmp_path / f"v{version}")]) == 0
        rebuilt = json.loads(entry.read_bytes().partition(b"\n")[0])
        assert rebuilt["format_version"] == green.FORMAT_VERSION == 8


def test_cold_solve_leaves_one_cache_file(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    monkeypatch.setenv("FRACSING_CACHE", str(cache))
    assert cli.main(SOLVE_ARGS + ["-o", str(tmp_path / "out")]) == 0
    names = os.listdir(cache)
    assert names == ["operator-2-0.75-200-2.0.bin"]


def test_exit_codes_for_user_errors(tmp_path, capsys):
    assert cli.main(["frobnicate"]) == 1
    # --set, classify --k-reference and --threads are gone: argparse rejects
    # them.  OMP_NUM_THREADS, set before the process starts, is the one
    # route to the thread count, and no command writes the environment.
    environ = dict(os.environ)
    threads = [
        [name, *(["profile.csv"] if name == "classify" else []), "--threads", "1"]
        for name in cli._COMMANDS
    ]
    for argv in (
        ["eigen", "--set", "params.alpha=0.5"],
        ["classify", "profile.csv", "--k-reference", "0.1"],
        *threads,
    ):
        capsys.readouterr()
        assert cli.main(argv) == 1
        extra = " ".join(argv[-2:])
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"fracsing: error: unrecognized arguments: {extra}"
        )
    assert dict(os.environ) == environ
    assert cli.main(["eigen", "--config", str(tmp_path / "none.json")]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["eigen", "--config", str(bad)]) == 1


@pytest.mark.parametrize(
    "extra, message",
    [
        (
            ["--config", {"params": {"dim": "abc"}}],
            "params.dim must be an integer, got 'abc'",
        ),
        (["--config", {"grid": 3}], "grid must be a JSON object, got 3"),
        (
            ["--n-nodes", "50", "--config", {"grid": 3}],
            "grid must be a JSON object, got 3",
        ),
        (
            ["--config", {"params": {"alpha": True}}],
            "params.alpha must be a number, got True",
        ),
        (
            ["--config", {"params": {"dim": 2.5}}],
            "params.dim must be an integer, got 2.5",
        ),
        (
            ["--config", {"tolerances": {"picard_max_iter": 4000}}],
            "unknown key tolerances",
        ),
        (
            ["--config", {"tolerances": {"eig_tl": 1e-3}}],
            "unknown key tolerances",
        ),
        (["--config", {"output": {"formats": ["csv"]}}], "unknown key output.formats"),
        (
            ["--config", {"tolerances": {"eig_tol": 1e-12}}],
            "unknown key tolerances",
        ),
        (
            ["--config", {"tolerances": {"picard_tol": 1e-12}}],
            "unknown key tolerances",
        ),
        (["--config", [{"seed": 1}]], "config file must contain a JSON object"),
    ],
    # Explicit ids, spelt as the positional ids the cases were first listed
    # under, so a case inserted anywhere renames no other.
    ids=[
        "extra0-params.dim must be an integer, got 'abc'",
        "extra1-grid must be a JSON object, got 3",
        "extra2-grid must be a JSON object, got 3",
        "extra4-params.alpha must be a number, got True",
        "extra5-params.dim must be an integer, got 2.5",
        "extra6-unknown key tolerances.picard_max_iter",
        "extra7-unknown key tolerances.eig_tl",
        "extra8-unknown key output.formats",
        "extra9-unknown key tolerances.eig_tol",
        "extra10-unknown key tolerances.picard_tol",
        "extra11-config file must contain a JSON object",
    ],
)
def test_config_values_of_the_wrong_type_exit_1(tmp_path, capsys, extra, message):
    extra = list(extra)
    if isinstance(extra[-1], (dict, list)):
        # A dict or list stands for a --config file holding it.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(extra[-1]))
        extra[-1] = str(cfg)
    assert cli.main(["eigen", *extra, "-o", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [f"fracsing: configuration error: {message}"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["mountain-pass", "bifurcation"])
@pytest.mark.parametrize(
    "extra, shown",
    [
        (["--seed", "-1"], "-1"),
        (["--config", {"seed": -3}], "-3"),
        (["--config", {"seed": -2.0}], "-2.0"),
        (["--config", {"seed": -1}], "-1"),
    ],
)
def test_negative_seed_exits_1_before_any_operator(
    tmp_path, capsys, monkeypatch, command, extra, shown
):
    import fracsing.green

    def no_operator(*args, **kwargs):
        raise AssertionError("an operator was loaded or assembled")

    monkeypatch.setattr(fracsing.green, "assemble", no_operator)
    monkeypatch.setattr(fracsing.green, "load_operator", no_operator)
    extra = list(extra)
    if isinstance(extra[-1], dict):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(extra[-1]))
        extra[-1] = str(cfg)
    out = tmp_path / "out"
    assert cli.main([command, "--k", "1.2", *extra, "-o", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"fracsing: configuration error: seed must be a non-negative integer, "
        f"got {shown}"
    ]
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["bifurcation", "--n-samples", "0"],
            "scan.n_samples must be at least 1, got 0",
        ),
        (
            ["bifurcation", "--n-samples", "-1"],
            "scan.n_samples must be at least 1, got -1",
        ),
    ],
    # Explicit ids, spelt as the positional ids the cases were first listed
    # under, so a case deleted anywhere renames no other.
    ids=[
        "argv2-scan.n_samples must be at least 1, got 0",
        "argv3-scan.n_samples must be at least 1, got -1",
    ],
)
def test_out_of_range_settings_exit_1(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    assert cli.main([*argv, "--n-nodes", "200", "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [f"fracsing {argv[0]}: {message}"]
    assert not out.exists()


def test_imports_leave_out_scipy_integrate(tmp_path):
    # Every Green value comes from the tau rule, so neither importing the
    # modules nor assembling, saving and loading an operator loads
    # scipy.special (about 36 ms and 3.7 MB of every process).
    code = (
        "import sys\n"
        "import fracsing.cli, fracsing.green, fracsing.picard, fracsing.stability\n"
        "import fracsing.mountainpass, fracsing.classify\n"
        "from fracsing.core import ProblemParams\n"
        "from fracsing.green import assemble, default_grid, load_operator\n"
        "from fracsing.green import save_operator\n"
        "params = ProblemParams(dim=2, alpha=0.75)\n"
        "op = assemble(default_grid(params, n_nodes=200), params)\n"
        f"save_operator(op, {str(tmp_path / 'op.bin')!r})\n"
        f"load_operator({str(tmp_path / 'op.bin')!r})\n"
        "print(sorted({'scipy.integrate', 'scipy.special'} & set(sys.modules)))\n"
    )
    src = os.path.dirname(os.path.dirname(fracsing.picard.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
    # The package imports no submodule, and every numeric import of the CLI
    # is deferred: building the parser, as --help does, loads neither NumPy
    # nor SciPy.
    code = (
        "import sys\n"
        "import fracsing\n"
        "loaded = [name for name in sys.modules if name.startswith('fracsing.')]\n"
        "import fracsing.cli\n"
        "fracsing.cli._build_parser()\n"
        "print(loaded, sorted({'numpy', 'scipy'} & set(sys.modules)))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[] []"


def test_failed_solve_writes_no_file(tmp_path, monkeypatch):
    import fracsing.classify

    def fail(*args, **kwargs):
        raise ConvergenceError("classification failed")

    monkeypatch.setattr(fracsing.classify, "asymptotic_fit", fail)
    out = tmp_path / "out"
    out.mkdir()
    assert cli.main(SOLVE_ARGS + ["--emit-plots", "-o", str(out)]) == 2
    assert os.listdir(out) == []


def test_mountain_pass_without_a_source_admits_p_below_the_sobolev_exponent(
    tmp_path, capsys, monkeypatch
):
    # At k = 0 the bound is (N + 2 alpha)/(N - 2 alpha) = 7, not
    # N/(N - 2 alpha) = 4: p = 5 finds the ground state, and p = 7 is
    # rejected before any operator is built.
    base = ["mountain-pass", "--k", "0", "--n-nodes", "200"]
    assert cli.main(base + ["--p", "5", "-o", str(tmp_path / "p5")]) == 0
    payload = json.loads((tmp_path / "p5" / "mountain_pass.json").read_text())
    assert payload["energy"] >= payload["level_lower_bound"] > 0.0
    capsys.readouterr()

    def no_operator(*args, **kwargs):
        raise AssertionError("an operator was loaded or assembled")

    monkeypatch.setattr(green, "assemble", no_operator)
    monkeypatch.setattr(green, "load_operator", no_operator)
    assert cli.main(base + ["--p", "7", "-o", str(tmp_path / "p7")]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert "p = 7 is at or above the Sobolev exponent" in line
    assert not (tmp_path / "p7").exists()


def test_supercritical_source_exits_2(tmp_path):
    rc = cli.main(
        [
            "solve",
            "--alpha",
            "0.6",
            "--p",
            "6",
            "--k",
            "0.01",
            "-o",
            str(tmp_path),
        ]
    )
    assert rc == 2


def test_every_benchmark_command_line_parses():
    # The benchmark's CLI session runs these command lines, with the
    # placeholders filled and --n-nodes and --seed appended; a flag it
    # passes that the parser lost would fail here, not in a benchmark run.
    bench = pathlib.Path(__file__).resolve().parents[1] / "bench"
    sys.path.insert(0, str(bench))
    try:
        spec = importlib.util.spec_from_file_location("bench_run", bench / "run.py")
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
    finally:
        sys.path.remove(str(bench))
    values = {"solve_k": repr(run.W.CLI_SOLVE_K), "mp_k": repr(run.W.CLI_MP_K)}
    parser = cli._build_parser()
    assert run.CLI_STEPS
    for name, _, argv in run.CLI_STEPS:
        argv = [a.format(**values) for a in argv] + ["--n-nodes", "400", "--seed", "0"]
        cfg = cli._build_config(parser.parse_args(argv))
        assert (cfg["grid.n_nodes"], cfg["seed"]) == (400, 0), name
