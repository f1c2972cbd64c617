"""End-to-end acceptance battery at the desk scale.

Each test checks one contract of the toolkit at its stated tolerance
and records a single PASS/FAIL line; the terminal summary hook reprints
the collected verdicts after the run.  Oracles are computed inline and
independently of the implementation under test (closed forms via the
gamma function, dense eigensolves, re-assembled iterations), so a PASS
here means two separate routes landed on the same number.
"""

import json
import math
import os

import numpy as np
import pytest

from fracsing import cli
from fracsing.classify import asymptotic_fit, estimate_k, pairing, standard_battery
from fracsing.core import ProblemParams
from fracsing.green import measured_c2
from fracsing.mountainpass import find_second_solution, power_increment
from fracsing.picard import find_kstar, first_eigenpair, iterate_minimal
from fracsing.stability import sigma1, sigma1_rayleigh, stability_gap_scan

VERDICT_LINES = []


def _record(num, title, ok, detail):
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'}  {title} ({detail})"
    VERDICT_LINES.append(line)
    print(line)
    assert ok, line


def _torsion_relative_error(op, params):
    c_t = math.gamma(params.dim / 2.0) / (
        4.0**params.alpha
        * math.gamma(params.dim / 2.0 + params.alpha)
        * math.gamma(1.0 + params.alpha)
    )
    exact = c_t * (1.0 - op.grid.nodes**2) ** params.alpha
    got = op.apply(np.ones(op.n))
    return float(np.max(np.abs(got - exact)) / np.max(exact))


def test_criterion_01_torsion_closed_form(params0, op400, op800):
    err_400 = _torsion_relative_error(op400, params0)
    err_800 = _torsion_relative_error(op800, params0)
    ok = err_400 <= 1e-3 and err_800 <= 0.5 * err_400
    _record(
        1,
        "constant-source solution matches the closed form",
        ok,
        f"rel err {err_400:.2e} at 400 nodes, x{err_800 / err_400:.2f} at 800",
    )


def test_criterion_02_fundamental_asymptotics(params0, op400):
    # G(r e1, 0) ~ c_fund r^(2 alpha - N) at the origin.  For the exact
    # kernel the scaled column r^(N - 2 alpha) G / c_fund equals
    # 1 - I_{r^2}(N/2 - alpha, alpha) = 1 - lead r^(N - 2 alpha)
    # + O(r^(N - 2 alpha + 2)): it stays at most 1, strictly increases
    # toward the origin (the nodes ascend) and its deficit follows the
    # one-term law, which is pinned here to 1e-6 on every node with
    # r <= 1e-3.  c_fund and lead are closed forms computed here,
    # independently of the package.  The 1% band applies where the exact
    # deficit lead r^(N - 2 alpha) is itself at most 1%; in the desk case
    # that is r <= 1.2e-4, since sqrt(r) still leaves ~3% at r = 1e-3.
    dim, alpha = params0.dim, params0.alpha
    rate = dim - 2.0 * alpha
    b = dim / 2.0 - alpha
    c_fund = math.gamma(b) / (4.0**alpha * math.pi ** (dim / 2.0) * math.gamma(alpha))
    lead = math.gamma(dim / 2.0) / (b * math.gamma(alpha) * math.gamma(b))

    r = op400.grid.nodes
    mask = r <= 1e-3
    ratio = op400.dirac_column[mask] * r[mask] ** rate / c_fund
    deficit = lead * r[mask] ** rate
    deviation = float(np.max(np.abs(ratio - (1.0 - deficit))))
    band = deficit <= 0.01
    ok = bool(
        mask.sum() >= 8
        and np.all(ratio <= 1.0)
        and np.all(np.diff(ratio) < 0.0)
        and deviation <= 1e-6
        and band.any()
        and np.all(np.abs(ratio[band] - 1.0) <= 0.01)
    )
    _record(
        2,
        "scaled point response rises to c_fund as 1 - lead r^(N - 2 alpha) "
        "up to r = 1e-3, within 1% where that deficit is at most 1%",
        ok,
        f"ratio in [{ratio.min():.4f}, {ratio.max():.4f}] on {mask.sum()} nodes; "
        f"deficit law matched to {deviation:.1e}; "
        f"1% band on {band.sum()} nodes",
    )


def test_criterion_03_monotone_iteration_with_barrier(params0, op400):
    p = params0.p
    c2 = measured_c2(params0, op400)
    k_p = (1.0 / (c2 * p)) ** (1.0 / (p - 1.0)) * (p - 1.0) / p
    k = 0.5 * k_p
    t_p = (p / (p - 1.0)) ** p
    g = op400.dirac_column
    barrier = k * g + t_p * k**2 * op400.apply(g**p)

    u = np.zeros(op400.n)
    worst_step = np.inf
    worst_gap = np.inf
    steps = 0
    for _ in range(500):
        u_next = k * g + op400.apply(u**p)
        worst_step = min(worst_step, float(np.min(u_next - u)))
        worst_gap = min(worst_gap, float(np.min(barrier - u_next)))
        steps += 1
        delta = float(np.max(u_next - u))
        u = u_next
        if delta <= 1e-13:
            break
    ok = worst_step >= -1e-12 and worst_gap >= -1e-12
    _record(
        3,
        f"iteration at k = 0.5 k_p is monotone and under the t_p = {t_p:g} barrier",
        ok,
        f"{steps} steps, min increment {worst_step:.1e}, "
        f"min barrier gap {worst_gap:.3e}",
    )


def test_criterion_04_asymptotic_law_of_the_solution(params0, op400):
    params = params0.with_k(0.05)
    report = iterate_minimal(params, op400, tol=1e-10, max_iter=4000)
    fit = asymptotic_fit(report.profile, params)
    slope_err = abs(fit.exponent_fit - params.singular_exponent)
    ok = (
        report.status == "Converged"
        and 0.9 <= fit.limit_ratio <= 1.1
        and slope_err <= 0.05
    )
    _record(
        4,
        "solution at k = 0.05 shows the point-mass asymptotics",
        ok,
        f"limit ratio {fit.limit_ratio:.4f}, slope {fit.exponent_fit:.4f} "
        f"vs {params.singular_exponent:g}",
    )


def test_criterion_05_mass_recovery(params0, op400):
    params = params0.with_k(0.05)
    profile = iterate_minimal(params, op400, tol=1e-10, max_iter=4000).profile
    est = estimate_k(profile, params, op400)
    battery = standard_battery(op400)
    annulus = next(xi for xi in battery if xi.value_at_origin == 0.0)
    loc = abs(pairing(profile, annulus, params, op400))
    ok = abs(est - params.k) <= 0.02 * params.k and loc <= 1e-6
    _record(
        5,
        "point mass recovered from the test-function pairing",
        ok,
        f"estimate {est:.6f} vs 0.05, annulus pairing {loc:.1e}",
    )


def test_criterion_06_extremal_bracket(params0, op400, op800, bracket400):
    p = params0.p
    width = (bracket400.k_hi - bracket400.k_lo) / bracket400.k_lo
    c2 = measured_c2(params0, op400)
    k_p = (1.0 / (c2 * p)) ** (1.0 / (p - 1.0)) * (p - 1.0) / p

    lam_400 = first_eigenpair(op400)["lambda1"]
    lam_800 = first_eigenpair(op800)["lambda1"]
    bracket800 = find_kstar(params0, op800)
    c_400 = bracket400.k_hi * lam_400 ** (1.0 / (p - 1.0))
    c_800 = bracket800.k_hi * lam_800 ** (1.0 / (p - 1.0))
    drift = abs(c_800 / c_400 - 1.0)
    ok = width <= 1e-3 and bracket400.k_lo >= k_p and drift <= 0.10
    _record(
        6,
        "extremal bracket is tight and its eigenvalue constant is stable",
        ok,
        f"width {width:.2e}, k_lo/k_p {bracket400.k_lo / k_p:.3f}, "
        f"C drift {drift:.2e} under doubling",
    )


def test_criterion_07_stability_trichotomy(params0, op400, bracket400):
    scan = stability_gap_scan(params0, op400, bracket400, n_samples=8)
    inside = scan.ks <= 0.9 * bracket400.k_lo + 1e-12
    stable_inside = bool(np.all(scan.sigma1s[inside] > 1.0))
    nonincreasing = bool(np.all(np.diff(scan.sigma1s) <= 1e-12))
    edge = scan.sigma1s[-1]
    ok = stable_inside and nonincreasing and 0.9 <= edge <= 1.1
    _record(
        7,
        "stable branch, monotone index, semi-stable extremal",
        ok,
        f"sigma1 from {scan.sigma1s[0]:.3f} to {edge:.4f} over 8 samples",
    )


def test_criterion_08_second_solution(umin_mid, op400, form400, second_mid):
    params, u_min = umin_mid
    other = find_second_solution(
        params, op400, form400, u_min, method="DeflatedNewton", seed=0
    )
    scale = float(np.max(np.abs(second_mid.v.values)))
    method_gap = float(np.max(np.abs(other.v.values - second_mid.v.values))) / scale
    fp_res = float(
        np.max(
            np.abs(
                second_mid.v.values
                - op400.apply(
                    power_increment(u_min.total, second_mid.v.values, params.p)
                )
            )
        )
    )
    above = bool(np.all(second_mid.second_solution.total > u_min.total))
    levels = second_mid.energy >= second_mid.level_lower_bound > 0.0
    ok = method_gap <= 1e-4 and fp_res <= 1e-6 and above and levels
    # The residual sits at the rounding floor of G f(v), and the method gap
    # at that of the two searches: a few units of eps max|v|, which the
    # order BLAS sums in moves by a unit or two.  Both are printed in those
    # units, not in digits that look significant.
    eps = np.finfo(float).eps
    ulps, gap_ulps = fp_res / (eps * scale), method_gap / eps
    _record(
        8,
        "both searches find the same second solution above the minimal one",
        ok,
        f"method gap {gap_ulps:.0f} eps*max|v|, residual {ulps:.0f} eps*max|v|, "
        f"E = {second_mid.energy:.4f} >= beta = {second_mid.level_lower_bound:.4f}",
    )


def test_criterion_09_supercritical_rejection(tmp_path):
    rc = cli.main(
        ["solve", "--alpha", "0.6", "--p", "6", "--k", "0.01", "-o", str(tmp_path)]
    )
    params = ProblemParams(dim=2, alpha=0.6, p=6.0, k=0.0)
    ok = rc == 2 and params.critical_p < 6.0
    _record(
        9,
        "point source with supercritical exponent is rejected",
        ok,
        f"exit code {rc}, p = 6 above critical exponent {params.critical_p:g}",
    )


def test_criterion_10_spectral_cross_checks(params0, op400, umin_mid):
    sym = op400.symmetrized()
    sym = 0.5 * (sym + sym.T)
    lam_dense = 1.0 / float(np.max(np.linalg.eigvalsh(sym)))
    lam_power = first_eigenpair(op400)["lambda1"]
    lam_gap = abs(lam_power - lam_dense) / lam_dense

    params, u = umin_mid
    sq = np.sqrt(params.p * u.total ** (params.p - 1.0))
    weighted = sq[:, None] * sym * sq[None, :]
    weighted = 0.5 * (weighted + weighted.T)
    sig_dense = 1.0 / float(np.max(np.linalg.eigvalsh(weighted)))
    sig_power = sigma1(u, params, op400).sigma1
    sig_gap = abs(sig_power - sig_dense) / sig_dense

    ray = sigma1_rayleigh(u, params, op400)
    ray_gap = abs(ray - sig_power) / sig_power
    ok = lam_gap <= 1e-8 and sig_gap <= 1e-8 and ray_gap <= 1e-6
    _record(
        10,
        "power iterations match dense eigensolves and the quotient route",
        ok,
        f"lambda1 gap {lam_gap:.1e}, sigma1 gap {sig_gap:.1e}, "
        f"Rayleigh gap {ray_gap:.1e}",
    )


def test_criterion_11_deterministic_artifacts(tmp_path):
    cache = tmp_path / "cache"
    cache.mkdir()
    out = tmp_path / "out"
    out.mkdir()
    argv = ["solve", "--k", "0.05", "-o", str(out)]
    old = os.environ.get("FRACSING_CACHE")
    os.environ["FRACSING_CACHE"] = str(cache)
    try:
        assert cli.main(argv) == 0
        first = {
            name: (out / name).read_bytes() for name in ("solve.csv", "solve.json")
        }
        assert cli.main(argv) == 0
        same = all(
            (out / name).read_bytes() == blob for name, blob in first.items()
        )
    finally:
        if old is None:
            os.environ.pop("FRACSING_CACHE", None)
        else:
            os.environ["FRACSING_CACHE"] = old
    verdict = json.loads(first["solve.json"])["classification"]["verdict"]
    ok = same and verdict == "DiracSingularity"
    _record(
        11,
        "identical solve runs write byte-identical files",
        ok,
        f"{len(first)} files compared, classification {verdict}",
    )
