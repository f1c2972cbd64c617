"""Stability index of computed profiles and the branch scan."""

import dataclasses
import functools
import math

import numpy as np
import pytest
from scipy import linalg

from fracsing import stability
from fracsing.core import ParameterError, ProblemParams, RadialFunction
from fracsing.green import assemble, default_grid
from fracsing.mountainpass import find_second_solution
from fracsing.picard import (
    _power_iteration,
    find_kstar,
    iterate_minimal,
    minimal_solution,
)
from fracsing.stability import (
    sigma1,
    sigma1_rayleigh,
    stability_gap_scan,
)


def _dense_sigma1(u, params, op):
    """Independent route: dense symmetric eigensolve of the linearized
    operator conjugated into symmetric form."""
    q = params.p * u.total ** (params.p - 1.0)
    sym = op.symmetrized()
    root = np.sqrt(q)
    mat = root[:, None] * (0.5 * (sym + sym.T)) * root[None, :]
    mu = np.linalg.eigvalsh(mat).max()
    return 1.0 / mu


def test_index_matches_dense_solve(umin_mid, op400):
    params, u = umin_mid
    report = sigma1(u, params, op400)
    assert report.sigma1 == pytest.approx(_dense_sigma1(u, params, op400), rel=1e-8)
    assert not report.infinite
    assert report.gap == pytest.approx(1.0 - 1.0 / report.sigma1, rel=1e-12)
    assert np.all(report.eigfun.values > 0.0)


def test_minimal_solution_is_strictly_stable(umin_mid, op400):
    params, u = umin_mid
    assert sigma1(u, params, op400).sigma1 > 1.0


def test_rayleigh_formulation_agrees(umin_mid, op400):
    # Contract is 1e-6 agreement; the factored quotient achieves machine
    # precision, so assert well inside the contract to catch regressions
    # toward inversion-noise-limited routes.
    params, u = umin_mid
    op_value = sigma1(u, params, op400).sigma1
    ray_value = sigma1_rayleigh(u, params, op400)
    assert abs(op_value - ray_value) <= 1e-9 * op_value


@functools.cache
def _lanczos_operator(dim, alpha, p):
    """n=200 operator and the lower end of its k* bracket."""
    params = ProblemParams(dim=dim, alpha=alpha, p=p)
    op = assemble(default_grid(params, n_nodes=200), params)
    return params, op, find_kstar(params, op).k_lo


def _lanczos_case(dim, alpha, p, fraction):
    """Minimal solution at fraction * k_lo on an n=200 operator."""
    params, op, k_lo = _lanczos_operator(dim, alpha, p)
    pk = params.with_k(fraction * k_lo)
    report = iterate_minimal(pk, op)
    assert report.status == "Converged"
    return pk, op, report.profile


@pytest.mark.parametrize("fraction", [0.25, 0.97])
# p = 2 is supercritical at (2, 0.3), where p must stay below 2/1.4.
@pytest.mark.parametrize("dim, alpha, p", [(2, 0.75, 2.0), (3, 0.6, 1.5), (2, 0.3, 1.3)])
def test_rayleigh_lanczos_matches_the_dense_singular_value(dim, alpha, p, fraction):
    # Reference: the largest singular value of diag(sqrt(q)) U' by a
    # full dense SVD, which the Lanczos route replaces.
    params, op, u = _lanczos_case(dim, alpha, p, fraction)
    q = params.p * u.total ** (params.p - 1.0)
    factor = np.sqrt(q)[:, None] * np.triu(op.cholesky()).T
    dense = 1.0 / float(linalg.svdvals(factor)[0]) ** 2
    assert abs(sigma1_rayleigh(u, params, op) - dense) <= 1e-12 * dense


def test_rayleigh_route_is_deterministic(umin_mid, op400):
    params, u = umin_mid
    first = sigma1_rayleigh(u, params, op400)
    again = [sigma1_rayleigh(u, params, op400) for _ in range(3)]
    assert all(np.float64(x).tobytes() == np.float64(first).tobytes() for x in again)


def test_index_scales_inversely_for_quadratic_nonlinearity(umin_mid, op400):
    # p = 2 makes the linearization weight linear in u, so doubling the
    # profile halves the index exactly in the continuum.
    params, u = umin_mid
    twice = RadialFunction(
        u.grid, 2.0 * u.values, 2.0 * u.singular_coeff, u.singular_exponent
    )
    base = sigma1(u, params, op400).sigma1
    doubled = sigma1(twice, params, op400).sigma1
    assert doubled == pytest.approx(base / 2.0, rel=1e-10)
    ray_base = sigma1_rayleigh(u, params, op400)
    ray_doubled = sigma1_rayleigh(twice, params, op400)
    assert ray_doubled == pytest.approx(ray_base / 2.0, rel=1e-10)


def test_zero_profile_reports_infinite_index(params0, op400):
    report = sigma1(RadialFunction.zero(op400.grid), params0, op400)
    assert report.infinite
    assert math.isinf(report.sigma1)


def test_gap_scan_shape_and_monotonicity(params0, op400, bracket400):
    scan = stability_gap_scan(params0, op400, bracket400, n_samples=8)
    assert scan.ks.size == 8
    assert scan.ks[0] == pytest.approx(0.1 * bracket400.k_lo, rel=1e-12)
    assert scan.ks[-1] == pytest.approx(bracket400.k_lo, rel=1e-12)
    assert np.all(np.diff(scan.ks) > 0.0)
    assert np.all(np.diff(scan.sigma1s) < 0.0)
    assert np.allclose(scan.gaps, 1.0 - 1.0 / scan.sigma1s, rtol=1e-12)
    assert scan.slope > 0.0

    rows = scan.rows()
    assert len(rows) == 8
    assert rows[3] == (scan.ks[3], scan.sigma1s[3], scan.gaps[3])


def test_scan_endpoints_bracket_semistability(params0, op400, bracket400):
    scan = stability_gap_scan(params0, op400, bracket400, n_samples=8)
    # well inside the branch the profile is strictly stable; at the
    # bracket edge the index sits near 1.
    assert scan.sigma1s[0] > 2.0
    assert 0.9 <= scan.sigma1s[-1] <= 1.1


def test_gap_scan_takes_the_bracket_profile_at_k_lo(
    params0, op200, op400, bracket400, monkeypatch
):
    # Reference: every sample below k_lo solved by minimal_solution.  The
    # k_lo sample is the bracket's profile, whose sigma1 is the
    # certificate find_kstar kept on it: the scan solves and iterates for
    # the other samples only.
    ks = np.linspace(0.1 * bracket400.k_lo, bracket400.k_lo, 6)
    reports = []
    for k in ks[:-1]:
        pk = params0.with_k(float(k))
        reports.append(sigma1(minimal_solution(pk, op400), pk, op400))
    kept = sigma1(bracket400.profile_lo, params0, op400)
    reports.append(kept)
    assert kept.sigma1 > 1.0

    calls = []

    def counted(*args):
        calls.append(args)
        return minimal_solution(*args)

    monkeypatch.setattr(stability, "minimal_solution", counted)
    power = _count_power_iterations(monkeypatch)
    scan = stability_gap_scan(params0, op400, bracket400, n_samples=6)
    assert len(calls) == len(power) == 5
    assert scan.ks.tobytes() == ks.tobytes()
    assert scan.sigma1s.tobytes() == np.array([r.sigma1 for r in reports]).tobytes()
    assert scan.gaps.tobytes() == np.array([r.gap for r in reports]).tobytes()
    assert sigma1(bracket400.profile_lo, params0, op400) is kept

    alien = dataclasses.replace(bracket400, profile_lo=RadialFunction.zero(op200.grid))
    with pytest.raises(ParameterError, match="another grid"):
        stability_gap_scan(params0, op400, alien, n_samples=6)


def _fresh(u):
    """A copy of the profile with nothing kept on it."""
    return RadialFunction(u.grid, u.values, u.singular_coeff, u.singular_exponent)


def _count_power_iterations(monkeypatch):
    calls = []

    def counted(op, c):
        calls.append(op)
        return _power_iteration(op, c)

    monkeypatch.setattr(stability, "_power_iteration", counted)
    return calls


def test_index_is_kept_on_the_profile_per_operator_and_p(
    umin_mid, op400, monkeypatch
):
    params, u = umin_mid
    u = _fresh(u)
    calls = _count_power_iterations(monkeypatch)
    first = sigma1(u, params, op400)
    assert sigma1(u, params, op400) is first
    assert len(calls) == 1

    # Another operator on the same grid, then another p: each computes.
    twin = dataclasses.replace(op400)
    other = sigma1(u, params, twin)
    assert len(calls) == 2 and calls[-1] is twin
    assert other.sigma1 == first.sigma1
    cubic = dataclasses.replace(params, p=3.0)
    assert sigma1(u, cubic, op400).sigma1 != first.sigma1
    assert len(calls) == 3
    assert sigma1(u, params, op400) is first and len(calls) == 3


def test_second_solution_search_reuses_the_callers_index(
    umin_mid, op400, form400, monkeypatch
):
    params, u = umin_mid
    u = _fresh(u)
    calls = _count_power_iterations(monkeypatch)
    stab = sigma1(u, params, op400)
    result = find_second_solution(params, op400, form400, u, seed=0)
    assert len(calls) == 1
    assert result.energy >= result.level_lower_bound
    assert sigma1(u, params, op400) is stab
