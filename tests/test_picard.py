"""Monotone iteration, barrier certificates, extremal bracketing, and the
principal eigenpair."""

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import betainc

import fracsing.picard
from fracsing.core import ParameterError, ProblemParams, RegimeError
from fracsing.green import (
    assemble,
    default_grid,
    dirac_profile,
    dirac_smooth_remainder,
    measured_c2,
    radial_kernel,
)
from fracsing.picard import (
    KStarBracket,
    barrier_certificate,
    find_kstar,
    first_eigenpair,
    iterate_minimal,
)
from fracsing.stability import sigma1


def test_zero_source_gives_zero_solution(params0, op400):
    report = iterate_minimal(params0, op400, tol=1e-10)
    assert report.status == "Converged"
    assert report.sup_residual == 0.0
    assert np.all(report.profile.total == 0.0)
    assert report.profile.singular_coeff == 0.0


def test_small_source_converges_with_certificate(params0, op400):
    params = params0.with_k(0.05)
    report = iterate_minimal(params, op400, tol=1e-10)
    assert report.status == "Converged"
    assert report.barrier_certified
    assert report.sup_residual <= 1e-10
    assert report.profile.is_nonnegative()
    assert report.profile.singular_coeff == pytest.approx(
        0.05 * params.c_fund, rel=1e-14
    )
    assert report.profile.singular_exponent == params.singular_exponent


def test_converged_profile_is_a_fixed_point(params0, op400):
    # Independent restatement of the iteration map: the smooth part must
    # reproduce source remainder + G[u_total^p] to the stop tolerance.
    params = params0.with_k(0.05)
    report = iterate_minimal(params, op400, tol=1e-10)
    u = report.profile
    source = params.k * dirac_smooth_remainder(op400.grid, params)
    mapped = source + op400.apply(u.total**params.p)
    assert np.max(np.abs(u.values - mapped)) <= 1e-9


def test_first_correction_matches_direct_quadrature(params0, op400):
    # Oracle route: adaptive radial quadrature of the kernel against the
    # squared source column, split at the kernel cusp.
    params = params0.with_k(0.05)
    g = dirac_profile(op400.grid, params)
    correction = op400.apply((params.k * g) ** params.p)

    a = params.alpha
    b = params.dim / 2.0 - a
    c_fund = params.c_fund

    def g_exact(s):
        frac = 1.0 - betainc(b, a, s * s)
        return c_fund * s ** params.singular_exponent * frac

    def oracle(r):
        def integrand(s):
            density = (params.k * g_exact(s)) ** params.p
            return radial_kernel(r, s, params) * density * s ** (params.dim - 1)

        lo, _ = quad(integrand, 0.0, r, limit=400)
        hi, _ = quad(integrand, r, 1.0, limit=400)
        return lo + hi

    for i in (40, 200, 360):
        r = op400.grid.nodes[i]
        assert correction[i] == pytest.approx(oracle(r), rel=1e-5)


def test_iterates_increase_with_source_strength(params0, op400, bracket400):
    low = iterate_minimal(params0.with_k(0.5 * bracket400.k_lo), op400)
    high = iterate_minimal(params0.with_k(0.9 * bracket400.k_lo), op400)
    assert low.status == high.status == "Converged"
    assert np.all(high.profile.total >= low.profile.total - 1e-12)


def test_divergence_beyond_bracket(params0, op400, bracket400):
    report = iterate_minimal(
        params0.with_k(1.5 * bracket400.k_hi), op400, tol=1e-9, max_iter=3000
    )
    assert report.status in ("Diverged", "MaxIterations")


def test_slow_growth_near_p_one_is_not_divergence(op200):
    # op200's matrix does not depend on p.  At p = 1.1 and k = 0.94 k*
    # the iterates grow for hundreds of steps before they settle on a
    # strictly stable minimal solution: growth alone is not divergence.
    params = ProblemParams(dim=2, alpha=0.75, p=1.1, k=20500.0)
    report = iterate_minimal(params, op200, tol=1e-9, max_iter=3000)
    assert report.status == "Converged"
    assert report.iterations > 700
    assert sigma1(report.profile, params, op200).sigma1 > 1.0


def test_barrier_certificate_threshold(params0, op400):
    c2 = measured_c2(params0, op400)
    k_edge = 0.25 / c2  # p = 2: certified iff c2 * k <= 1/4
    ok = barrier_certificate(params0.with_k(0.9 * k_edge), c2)
    assert ok["certified"] and ok["t_star"] == pytest.approx(4.0)
    bad = barrier_certificate(params0.with_k(1.1 * k_edge), c2)
    assert not bad["certified"]
    with pytest.raises(RegimeError):
        barrier_certificate(
            ProblemParams(dim=2, alpha=0.6, p=6.0, k=0.01), c2
        )


def test_bracket_invariants(params0, op400, bracket400):
    br = bracket400
    assert isinstance(br, KStarBracket)
    assert br.k_lo < br.k_hi
    assert br.k_hi - br.k_lo <= 1e-3 * br.k_lo
    c2 = measured_c2(params0, op400)
    p = params0.p
    k_p = (1.0 / (c2 * p)) ** (1.0 / (p - 1.0)) * (p - 1.0) / p
    assert br.k_lo >= k_p
    assert br.profile_lo.is_nonnegative()


def test_bracket_edges_behave_as_recorded(params0, op400, bracket400):
    # The lower edge converges under the default rule, the upper edge
    # does not; this re-runs the probes independently of the bisection.
    lo = iterate_minimal(params0.with_k(bracket400.k_lo), op400)
    assert lo.status == "Converged"
    hi = iterate_minimal(params0.with_k(bracket400.k_hi), op400)
    assert hi.status != "Converged"


def test_bracket_edges_are_default_solves_near_p_one():
    # Near p = 1 the iterates converge slowly close to k*, so a probe
    # budget below the default one puts k_hi where a default solve
    # still converges.  The matrix does not depend on p.
    params = ProblemParams(dim=2, alpha=0.75, p=1.1)
    op = assemble(default_grid(params, n_nodes=120), params)
    bracket = find_kstar(params, op)
    hi = iterate_minimal(params.with_k(bracket.k_hi), op)
    assert hi.status != "Converged"
    lo = iterate_minimal(params.with_k(bracket.k_lo), op)
    assert lo.status == "Converged"
    assert lo.profile.values.tobytes() == bracket.profile_lo.values.tobytes()
    assert lo.profile.singular_coeff == bracket.profile_lo.singular_coeff


def test_wider_tolerance_gives_enclosing_bracket(params0, op400, bracket400):
    wide = find_kstar(params0, op400, bracket_tol=1e-2)
    assert wide.k_lo <= bracket400.k_lo + 1e-12
    assert wide.k_hi >= bracket400.k_hi - 1e-12
    assert wide.k_hi - wide.k_lo <= 1e-2 * wide.k_lo


def test_bracket_rejects_supercritical(op400):
    with pytest.raises(RegimeError):
        find_kstar(ProblemParams(dim=2, alpha=0.6, p=6.0, k=0.0), op400)


@pytest.mark.parametrize(
    "params",
    [
        ProblemParams(dim=2, alpha=0.8, p=2.0, k=0.1),
        ProblemParams(dim=3, alpha=0.75, p=1.5, k=0.1),
    ],
    ids=["alpha", "dim"],
)
def test_params_of_another_operator_are_rejected(params, op200):
    # op200 has dim 2 and alpha 0.75; both params are subcritical, so the
    # mismatch itself is what find_kstar reports.
    message = "do not match the operator"
    with pytest.raises(ParameterError, match=message):
        iterate_minimal(params, op200)
    with pytest.raises(ParameterError, match=message):
        find_kstar(params, op200)


@pytest.mark.parametrize("bracket_tol", [0.0, -1.0, float("nan")])
def test_bracket_tolerance_must_be_positive(params0, op200, bracket_tol):
    with pytest.raises(ParameterError, match="bracket_tol must be positive"):
        find_kstar(params0, op200, bracket_tol=bracket_tol)


def test_bracket_below_float_resolution_ends(params0, op200, monkeypatch):
    # The bisection stops once the midpoint rounds onto an edge; the
    # small probe budget only keeps the run short.
    def short(params, op):
        return iterate_minimal(params, op, max_iter=100)

    monkeypatch.setattr(fracsing.picard, "iterate_minimal", short)
    bracket = find_kstar(params0, op200, bracket_tol=1e-20)
    assert bracket.k_lo < bracket.k_hi
    assert 0.5 * (bracket.k_lo + bracket.k_hi) in (bracket.k_lo, bracket.k_hi)


def test_extremal_solution_at_lower_edge(params0, op400, bracket400):
    profile = bracket400.profile_lo
    assert profile.is_nonnegative()
    mid = iterate_minimal(params0.with_k(0.5 * bracket400.k_lo), op400).profile
    assert np.all(profile.total >= mid.total - 1e-12)


def _dense_lambda1(op):
    sym = op.symmetrized()
    mu = np.linalg.eigvalsh(0.5 * (sym + sym.T)).max()
    return 1.0 / mu


def test_first_eigenpair_matches_dense_solve(op400, ophalf):
    for op in (op400, ophalf):
        pair = first_eigenpair(op)
        lam = pair["lambda1"]
        assert lam == pytest.approx(_dense_lambda1(op), rel=1e-8)
        phi = pair["phi1"].values
        assert np.all(phi > 0.0)
        assert op.grid.weights @ phi**2 == pytest.approx(1.0, rel=1e-10)
        # eigen-residual of the inverse operator formulation
        assert np.max(np.abs(lam * op.apply(phi) - phi)) <= 1e-8 * np.max(phi)


def test_first_eigenpair_is_kept(op400):
    pair = first_eigenpair(op400)
    again = first_eigenpair(op400)
    assert again is not pair and again["phi1"] is pair["phi1"]
    assert not pair["phi1"].values.flags.writeable


def test_eigenvalue_decreases_with_order(op400, ophalf):
    # weaker diffusion (smaller alpha) relaxes the exterior constraint
    # less, and the ball eigenvalue of the inverse operator drops.
    lam_high = first_eigenpair(op400)["lambda1"]
    lam_low = first_eigenpair(ophalf)["lambda1"]
    assert lam_low < lam_high
