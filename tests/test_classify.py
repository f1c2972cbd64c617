"""Distributional pairing, point-mass extraction, and origin asymptotics.

The battery route and the asymptotic-fit route are independent readings
of the same singularity; both are checked against profiles whose point
mass is known exactly (computed minimal solutions, the pure fundamental
profile, torsion-type smooth profiles, and corrupted data).
"""

import numpy as np
import pytest

from fracsing.classify import (
    ClassificationReport,
    _make_test_function,
    _smoothstep,
    asymptotic_fit,
    estimate_k,
    pairing,
    standard_battery,
)
from fracsing.core import (
    ConvergenceError,
    ParameterError,
    ProblemParams,
    RadialFunction,
    RegimeError,
    make_grid,
)
from fracsing.green import assemble, default_grid, dirac_smooth_remainder
from fracsing.picard import iterate_minimal


@pytest.fixture(scope="module")
def battery400(op400):
    return standard_battery(op400)


@pytest.fixture(scope="module")
def usol_005(params0, op400):
    """Converged minimal solution at k = 0.05, the calibration profile."""
    params = params0.with_k(0.05)
    report = iterate_minimal(params, op400, tol=1e-10, max_iter=4000)
    assert report.status == "Converged"
    return params, report.profile


def test_smoothstep_is_a_clamped_ramp():
    x = np.linspace(-1.0, 2.0, 301)
    y = _smoothstep(x)
    assert np.all(y[x <= 0.0] == 0.0)
    assert np.all(y[x >= 1.0] == 1.0)
    assert np.all(np.diff(y[(x > 0.0) & (x < 1.0)]) >= 0.0)
    assert _smoothstep(np.array([0.5]))[0] == pytest.approx(0.5, abs=1e-14)


def test_battery_shapes_and_supports(op400, battery400):
    assert len(battery400) == 4
    r = op400.grid.nodes
    origins = [xi for xi in battery400 if xi.value_at_origin != 0.0]
    assert len(origins) == 3
    assert sorted(xi.support[1] for xi in origins) == [0.2, 0.35, 0.5]
    annulus = next(xi for xi in battery400 if xi.value_at_origin == 0.0)
    assert annulus.support == (0.3, 0.8)
    assert np.all(annulus.values[(r < 0.3) | (r > 0.8)] == 0.0)
    for xi in battery400:
        outside = r > xi.support[1]
        assert np.all(xi.values[outside] == 0.0)
        assert np.all(xi.values >= 0.0)
        # The attached fractional Laplacian reproduces the bump.
        back = op400.apply(xi.laplacian_alpha)
        assert float(np.max(np.abs(back - xi.values))) <= 1e-6


def test_pairing_of_zero_profile_vanishes(params0, op400, battery400):
    zero = RadialFunction.zero(op400.grid)
    for xi in battery400:
        assert pairing(zero, xi, params0, op400) == 0.0


def test_pairing_reads_the_point_mass(usol_005, op400, op800, battery400):
    # Each origin bump pairs to k xi(0) up to quadrature drift; the
    # double-resolution route confirms the drift shrinks with the grid.
    params, u = usol_005
    for xi in battery400[:3]:
        val = pairing(u, xi, params, op400) / xi.value_at_origin
        assert val == pytest.approx(params.k, rel=0.02)

    fine = iterate_minimal(params, op800, tol=1e-10, max_iter=4000)
    for xi in standard_battery(op800)[:3]:
        val = pairing(fine.profile, xi, params, op800) / xi.value_at_origin
        assert val == pytest.approx(params.k, rel=0.02)


def test_pairing_is_local(usol_005, op400, battery400):
    # The annular bump never sees the origin: its pairing against a true
    # solution is zero to quadrature precision.
    params, u = usol_005
    annulus = battery400[3]
    assert abs(pairing(u, annulus, params, op400)) <= 1e-6


def test_pairing_rejects_supercritical_singularities(op400):
    params = ProblemParams(dim=2, alpha=0.6, p=6.0, k=0.01)
    sing = RadialFunction(
        op400.grid,
        np.zeros(op400.n),
        singular_coeff=0.01 * params.c_fund,
        singular_exponent=params.singular_exponent,
    )
    battery = standard_battery(op400)
    with pytest.raises(RegimeError):
        pairing(sing, battery[0], params, op400)


def test_estimate_k_recovers_the_source_strength(usol_005, op400):
    params, u = usol_005
    est = estimate_k(u, params, op400)
    assert est == pytest.approx(params.k, rel=0.02)
    # The affine-intercept fit cancels the leading volume drift; the
    # recovery is far tighter than the per-bump pairings.
    assert est == pytest.approx(params.k, rel=1e-4)


def test_estimate_k_vanishes_for_sourceless_profiles(params0, op400):
    est = estimate_k(RadialFunction.zero(op400.grid), params0, op400)
    assert est == 0.0
    # The torsion profile carries no point mass; its bump pairings are
    # pure volume terms, which the affine intercept cancels.
    torsion = RadialFunction(op400.grid, op400.apply(np.ones(op400.n)))
    assert abs(estimate_k(torsion, params0, op400)) <= 0.01


def test_estimate_k_flags_profiles_that_solve_nothing(params0, op400, rng):
    r = op400.grid.nodes
    junk = RadialFunction(op400.grid, 1.0 + 0.5 * np.sin(9.0 * r))
    with pytest.raises(ConvergenceError):
        estimate_k(junk, params0.with_k(0.0), op400)


# As an error, a numpy warning on the overflow fails the test.
@pytest.mark.filterwarnings("error")
def test_estimate_k_rejects_non_finite_estimates(usol_005, op400):
    # A singular coefficient of 1e300 overflows every pairing to NaN; the
    # pairing rejects it, so no estimate is formed from it.
    params, u = usol_005
    huge = RadialFunction(op400.grid, u.values, 1e300, u.singular_exponent)
    with pytest.raises(ParameterError, match="pairing is nan"):
        estimate_k(huge, params, op400)


def test_estimate_k_needs_three_origin_bumps(usol_005, op400, battery400):
    params, u = usol_005
    with pytest.raises(ParameterError):
        estimate_k(u, params, op400, battery=battery400[2:])


def test_asymptotic_fit_flags_the_computed_singularity(usol_005):
    params, u = usol_005
    report = asymptotic_fit(u, params)
    assert isinstance(report, ClassificationReport)
    assert report.verdict == "DiracSingularity"
    assert report.exponent_fit == pytest.approx(
        params.singular_exponent, abs=0.05
    )
    assert 0.9 <= report.limit_ratio <= 1.1
    assert report.k_estimate == pytest.approx(params.k, rel=1e-12)


def test_asymptotic_fit_on_the_pure_fundamental_profile(params0, op400):
    # c_fund k r^(2 alpha - N) plus its smooth complement is the exact
    # dirac response; the fit must read k back with ratio ~ 1.
    params = params0.with_k(1.0)
    smooth = dirac_smooth_remainder(op400.grid, params)
    u = RadialFunction(
        op400.grid,
        params.k * smooth,
        singular_coeff=params.k * params.c_fund,
        singular_exponent=params.singular_exponent,
    )
    report = asymptotic_fit(u, params)
    assert report.verdict == "DiracSingularity"
    assert report.limit_ratio == pytest.approx(1.0, abs=0.01)


def test_asymptotic_fit_calls_bounded_profiles_removable(params0, op400):
    u = RadialFunction(op400.grid, op400.apply(np.ones(op400.n)))
    report = asymptotic_fit(u, params0)
    assert report.verdict == "Removable"
    assert abs(report.exponent_fit) <= 0.05


def test_asymptotic_fit_zero_profile_is_removable(params0, op400):
    report = asymptotic_fit(RadialFunction.zero(op400.grid), params0)
    assert report.verdict == "Removable"
    assert report.limit_ratio == 0.0


def test_asymptotic_fit_needs_an_origin_window(params0):
    grid = make_grid(16, grading=8.0, dim=params0.dim)
    with pytest.raises(ParameterError, match="near the origin"):
        asymptotic_fit(RadialFunction(grid, np.ones(grid.n)), params0)


def test_asymptotic_fit_echoes_the_supercritical_regime(op400):
    params = ProblemParams(dim=2, alpha=0.6, p=6.0, k=0.01)
    r = op400.grid.nodes
    u = RadialFunction(
        op400.grid,
        np.zeros(op400.n),
        singular_coeff=params.k * params.c_fund,
        singular_exponent=params.singular_exponent,
    )
    report = asymptotic_fit(u, params)
    assert report.verdict == "Supercritical"


def test_asymptotic_fit_rejects_alien_growth(params0, op400):
    # An r^-0.3 blow-up matches neither the singular template (slope
    # -0.5) nor the bounded one.
    r = op400.grid.nodes
    u = RadialFunction(op400.grid, r**-0.3)
    with pytest.raises(ConvergenceError):
        asymptotic_fit(u, params0.with_k(0.3))


def test_k_reference_precedence(usol_005):
    params, u = usol_005
    # The profile's own singular bookkeeping wins over params.k ...
    report = asymptotic_fit(u, params.with_k(7.0))
    assert report.k_estimate == pytest.approx(
        u.singular_coeff / params.c_fund, rel=1e-12
    )
    assert report.verdict == "DiracSingularity"

    # ... and the explicit argument wins over both: a flattened copy of
    # the profile under wrong params classifies correctly only when the
    # true mass is supplied.
    flat = RadialFunction(u.grid, u.total)
    wrong = params.with_k(0.5 * params.k)
    explicit = asymptotic_fit(flat, wrong, k_reference=params.k)
    assert explicit.k_estimate == params.k
    assert explicit.verdict == "DiracSingularity"
    with pytest.raises(ConvergenceError):
        # Implicit fallback to wrong params.k doubles the ratio, which
        # matches neither template.
        asymptotic_fit(flat, wrong)


def test_k_reference_falls_back_to_params(params0, op400):
    # A profile without singular bookkeeping calibrates against params.k.
    params = params0.with_k(0.05)
    smooth = dirac_smooth_remainder(op400.grid, params)
    r = op400.grid.nodes
    vals = params.k * (smooth + params.c_fund * r**params.singular_exponent)
    u = RadialFunction(op400.grid, vals)
    report = asymptotic_fit(u, params)
    assert report.k_estimate == params.k
    assert report.verdict == "DiracSingularity"
