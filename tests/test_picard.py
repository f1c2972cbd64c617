"""Monotone iteration, the barrier threshold k_p, the extremal fold, and
the principal eigenpair."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import betainc

import fracsing.picard
from fracsing import stability
from fracsing.core import (
    ConvergenceError,
    ParameterError,
    ProblemParams,
    RadialFunction,
    RegimeError,
    surface_area,
)
from fracsing.green import (
    GreenOperator,
    _dirac_power_image,
    _kernel,
    _sphere_mean,
    assemble,
    default_grid,
    dirac_profile,
    dirac_smooth_remainder,
    measured_c2,
)
from fracsing.picard import (
    KStarBracket,
    find_kstar,
    first_eigenpair,
    iterate_minimal,
    log10_k_p,
    minimal_solution,
)
from fracsing.stability import sigma1


def test_zero_source_gives_zero_solution(params0, op400):
    report = iterate_minimal(params0, op400, tol=1e-10)
    assert report.status == "Converged"
    assert np.all(report.profile.total == 0.0)
    assert report.profile.singular_coeff == 0.0


def test_small_source_converges_with_certificate(params0, op400):
    params = params0.with_k(0.05)
    report = iterate_minimal(params, op400, tol=1e-10)
    assert report.status == "Converged"
    assert math.log10(params.k) <= log10_k_p(params, op400)
    # One more step of the iteration moves the converged profile by at
    # most the stop tolerance.
    u = report.profile
    source = params.k * dirac_smooth_remainder(op400.grid, params)
    step = source + op400.apply(u.total**params.p) - u.values
    assert np.max(np.abs(step)) <= 1e-10
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

    kernel, surf = _kernel(params.dim, a), surface_area(params.dim)

    def oracle(r):
        def integrand(s):
            density = (params.k * g_exact(s)) ** params.p
            kbar = _sphere_mean(np.array([r]), np.array([s]), kernel)[0]
            return surf * kbar * density * s ** (params.dim - 1)

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


def test_log10_k_p_is_the_barrier_threshold(params0, op400):
    c2 = measured_c2(params0, op400)
    k_edge = 0.25 / c2  # p = 2: the barrier applies iff c2 * k <= 1/4
    log_k_p = log10_k_p(params0, op400)
    assert math.log10(0.9 * k_edge) <= log_k_p
    assert not math.log10(1.1 * k_edge) <= log_k_p
    with pytest.raises(RegimeError):
        log10_k_p(ProblemParams(dim=2, alpha=0.6, p=6.0, k=0.01), op400)


def test_bracket_invariants(params0, op400, bracket400):
    br = bracket400
    assert isinstance(br, KStarBracket)
    assert br.k_lo == br.k_hi * (1.0 - 5e-4)
    c2 = measured_c2(params0, op400)
    p = params0.p
    k_p = (1.0 / (c2 * p)) ** (1.0 / (p - 1.0)) * (p - 1.0) / p
    assert br.k_lo >= k_p
    assert br.profile_lo.is_nonnegative()


def test_bracket_edges_behave_as_recorded(params0, op400, bracket400):
    # On the desk case the default rule converges at the lower edge, and
    # not at the fold itself, where Picard's contraction rate is 1.
    lo = iterate_minimal(params0.with_k(bracket400.k_lo), op400)
    assert lo.status == "Converged"
    hi = iterate_minimal(params0.with_k(bracket400.k_hi), op400)
    assert hi.status != "Converged"


def _operator(params, n):
    return assemble(default_grid(params, n_nodes=n), params)


@pytest.fixture(scope="module")
def near_p_one():
    """(2, 0.75, 1.1) on 120 nodes, where Picard's contraction rate tends
    to 1 near k*: parameters, operator and find_kstar's result."""
    params = ProblemParams(dim=2, alpha=0.75, p=1.1)
    op = _operator(params, 120)
    return params, op, find_kstar(params, op)


def test_fold_is_where_a_long_picard_run_turns_near_p_one(near_p_one):
    # k_hi is the fold: a long run converges 1e-4 below it and diverges
    # 1e-4 above it.  No fixed Picard budget places that turn, because
    # the contraction rate tends to 1 there.
    params, op, bracket = near_p_one
    below = params.with_k(bracket.k_hi * (1.0 - 1e-4))
    assert iterate_minimal(below, op, max_iter=200000).status == "Converged"
    above = params.with_k(bracket.k_hi * (1.0 + 1e-4))
    assert iterate_minimal(above, op, max_iter=200000).status == "Diverged"


@pytest.mark.parametrize(
    "case, fraction",
    [
        pytest.param(
            case, fraction, id=case if fraction == 1.0 else f"{case}-{fraction}k_lo"
        )
        for fraction in (1.0, 0.1, 0.5, 0.9)
        for case in ("desk", "near_p_one")
    ],
)
def test_lower_edge_is_the_certified_minimal_solution(request, case, fraction):
    # profile_lo, and minimal_solution at the scan's fractions of k_lo,
    # are Newton solves; sigma1 > 1 certifies each.  A long Picard run
    # matches them; near p = 1 the default rule runs out of iterations
    # at k_lo.
    if case == "desk":
        params = request.getfixturevalue("params0")
        op = request.getfixturevalue("op400")
        bracket = request.getfixturevalue("bracket400")
    else:
        params, op, bracket = request.getfixturevalue(case)
    pk = params.with_k(fraction * bracket.k_lo)
    u = bracket.profile_lo if fraction == 1.0 else minimal_solution(pk, op)
    assert sigma1(u, pk, op).sigma1 > 1.0
    long = iterate_minimal(pk, op, max_iter=400000)
    assert long.status == "Converged"
    assert long.profile.singular_coeff == u.singular_coeff
    gap = np.max(np.abs(long.profile.values - u.values))
    assert gap <= 1e-8 * np.max(np.abs(u.values))
    if case == "near_p_one" and fraction == 1.0:
        assert iterate_minimal(pk, op).status == "MaxIterations"


@pytest.mark.parametrize(
    "case", [(2, 0.9, 1.5306), (2, 0.9, 1.4463), (2, 0.95, 3.1356), (2, 0.9, 3.5633)]
)
def test_lower_edge_is_certified_where_u_vanishes_at_the_boundary(case):
    # Near r = 1, u vanishes while S = c_fund r^(2 alpha - N) does not,
    # and u^p is NaN unless every Newton iterate keeps u positive there.
    params = ProblemParams(dim=case[0], alpha=case[1], p=case[2])
    op = _operator(params, 120)
    bracket = find_kstar(params, op)
    assert bracket.profile_lo.is_nonnegative()
    assert sigma1(bracket.profile_lo, params.with_k(bracket.k_lo), op).sigma1 > 1.0


def test_lower_edge_stops_relative_to_u_at_each_node():
    # At N = 5 and p near 1, max|v| is 2e23 while u falls to 4e8 near
    # r = 1: only a stop relative to u at each node pins the boundary.
    params = ProblemParams(dim=5, alpha=0.25, p=1.0267)
    op = _operator(params, 120)
    bracket = find_kstar(params, op)
    u = bracket.profile_lo
    long = iterate_minimal(params.with_k(bracket.k_lo), op, max_iter=200000)
    assert long.status == "Converged"
    gap = np.abs(long.profile.values - u.values) / u.total
    assert np.max(gap) <= 1e-9


@pytest.mark.parametrize(
    "case",
    [None, (2, 0.75, 1.02), (2, 0.9, 1.5306)],
    ids=["desk", "p-near-one", "steep"],
)
def test_lower_edge_iterates_rise_at_every_node(case, params0, op200, monkeypatch):
    # Newton's method from a subsolution of a convex problem, here
    # Picard's first iterate, climbs monotonically to the minimal solution.
    if case is None:
        params, op = params0, op200
    else:
        params = ProblemParams(dim=case[0], alpha=case[1], p=case[2])
        op = _operator(params, 120)
    real = fracsing.picard._newton_krylov
    runs = []

    def recorded(system, x, name):
        runs.append((name, []))

        def seen(x):
            runs[-1][1].append(x)
            return system(x)

        return real(seen, x, name)

    monkeypatch.setattr(fracsing.picard, "_newton_krylov", recorded)
    k_lo = find_kstar(params, op).k_lo
    # The solve at k_lo is find_kstar's last Newton run.
    name, iterates = runs[-1]
    assert name == f"the minimal solution at k = {k_lo:.6g}"
    assert np.array_equal(iterates[0], k_lo * dirac_smooth_remainder(op.grid, params))
    assert len(iterates) >= 3
    assert np.all(np.diff(iterates, axis=0) >= 0.0)


def _dense_fold(params, op, k, v, phi):
    """The fold k by Newton's method on the Moore-Spence system with its
    dense (2n+1) Jacobian, built from the matrix, from (v, phi, k)."""
    n, p = op.n, params.p
    green = op.matrix * op.grid.weights[None, :]
    remainder = dirac_smooth_remainder(op.grid, params)
    sing = params.c_fund * op.grid.nodes**params.singular_exponent
    ell = op.grid.weights * phi
    phi = phi / (ell @ phi)
    eye = np.eye(n)
    for _ in range(30):
        u = v + k * sing
        f1 = p * u ** (p - 1.0)
        f2 = p * (p - 1.0) * u ** (p - 2.0)
        resid = np.concatenate(
            (v - green @ u**p - k * remainder, phi - green @ (f1 * phi), [ell @ phi - 1.0])
        )
        jac = np.zeros((2 * n + 1, 2 * n + 1))
        jac[:n, :n] = eye - green * f1
        jac[:n, -1] = -(green @ (f1 * sing) + remainder)
        jac[n:-1, :n] = -green * (f2 * phi)
        jac[n:-1, n:-1] = eye - green * f1
        jac[n:-1, -1] = -green @ (f2 * phi * sing)
        jac[-1, n:-1] = ell
        step = np.linalg.solve(jac, -resid)
        v, phi, k = v + step[:n], phi + step[n:-1], k + step[-1]
        if abs(step[-1]) <= 1e-14 * k:
            return k
    raise AssertionError("dense fold Newton did not converge")


@pytest.mark.parametrize(
    "case",
    [
        (2, 0.75, 2.0, 200),
        (3, 0.95, 2.6417, 120),
        (3, 0.6, 1.5, 200),
        (2, 0.75, 1.02, 120),
    ],
    ids=["desk", "steep-n3", "n3", "p-near-one"],
)
def test_fold_matches_the_dense_moore_spence_newton(case, op200):
    # The dense route starts from Picard at 0.9 k_lo and the top
    # eigenvector of its dense linearisation.  At p = 1.02, k* is about
    # 1.9e24 and v as large, far above the unit scale of phi.  At
    # (3, 0.95, 2.6417) on 120 nodes an unguarded Newton step in k sent
    # u below 0, where u^p is NaN.
    dim, alpha, p, n = case
    params = ProblemParams(dim=dim, alpha=alpha, p=p)
    op = op200 if n == 200 and dim == 2 else _operator(params, n)
    bracket = find_kstar(params, op)
    pk = params.with_k(0.9 * bracket.k_lo)
    u = iterate_minimal(pk, op).profile
    lin = op.matrix * (op.grid.weights * p * u.total ** (p - 1.0))[None, :]
    evals, evecs = np.linalg.eig(lin)
    top = np.real(evecs[:, np.argmax(np.real(evals))])
    k_dense = _dense_fold(params, op, pk.k, u.values, top * np.sign(top[0]))
    assert bracket.k_hi == pytest.approx(k_dense, rel=1e-10)


def test_fold_newton_out_of_budget_is_a_typed_error(params0, op200, monkeypatch):
    # The probes take Newton steps too, so the budget shrinks for the fold
    # alone.
    real = fracsing.picard._fold

    def short(*args):
        monkeypatch.setattr(fracsing.picard, "_NEWTON_STEPS", 2)
        return real(*args)

    monkeypatch.setattr(fracsing.picard, "_fold", short)
    message = (
        r"Newton's method for the fold did not converge in 2 steps: relative "
        r"residual \S+, last GMRES relative residual \d\.\d{3}e-\d+"
    )
    with pytest.raises(ConvergenceError, match=message):
        find_kstar(params0, op200)


def test_fold_that_turns_non_finite_names_the_step(params0, op200, monkeypatch):
    # The fold's Newton error is spoiled at its third evaluation, after 2
    # steps; every other solve runs as it is.
    real = fracsing.picard._newton_krylov

    def spoiled(system, x, name):
        calls = []

        def counted(x):
            resid, error, matvec, advance = system(x)
            calls.append(x)
            if name == "the fold" and len(calls) == 3:
                error = math.nan
            return resid, error, matvec, advance

        return real(counted, x, name)

    monkeypatch.setattr(fracsing.picard, "_newton_krylov", spoiled)
    message = r"^Newton's method for the fold met a non-finite residual after 2 steps$"
    with pytest.raises(ConvergenceError, match=message):
        find_kstar(params0, op200)


def _patched_sigma1(monkeypatch, change):
    """Pass each sigma1 report find_kstar reads through change(report,
    call number)."""
    real = stability.sigma1
    calls = []

    def patched(u, params, op):
        calls.append(u)
        return change(real(u, params, op), len(calls))

    monkeypatch.setattr(stability, "sigma1", patched)
    return calls


def test_fold_direction_of_one_sign_is_required(params0, op200, monkeypatch):
    # From the negated eigenfunction Newton reaches the same fold with
    # phi < 0 (the system is odd in phi and l), which is rejected before
    # the certificate at k_lo.
    real = fracsing.picard.first_eigenpair

    def negated(op):
        pair = real(op)
        return {**pair, "phi1": RadialFunction(op.grid, -pair["phi1"].values)}

    monkeypatch.setattr(fracsing.picard, "first_eigenpair", negated)
    calls = _patched_sigma1(monkeypatch, lambda report, call: report)
    with pytest.raises(ConvergenceError, match="phi is not positive"):
        find_kstar(params0, op200)
    assert len(calls) == 0


def test_lower_edge_without_certificate_is_a_typed_error(params0, op200, monkeypatch):
    def semi_stable(report, call):
        return dataclasses.replace(report, sigma1=1.0) if call == 1 else report

    calls = _patched_sigma1(monkeypatch, semi_stable)
    with pytest.raises(ConvergenceError, match=r"not strictly stable \(sigma1 = 1\)"):
        find_kstar(params0, op200)
    assert len(calls) == 1


def test_fold_and_lower_edge_reuse_one_gmres_cycle(params0, op200, monkeypatch):
    # Every Newton step of find_kstar is one call of the shared cycle,
    # which returns its iterate and its relative residual.
    real = fracsing.picard._gmres
    residuals = []

    def recorded(matvec, rhs):
        x, relres = real(matvec, rhs)
        residuals.append(relres)
        return x, relres

    monkeypatch.setattr(fracsing.picard, "_gmres", recorded)
    find_kstar(params0, op200)
    # Measured: 17 calls, 4 for the solve at k_p, 5 for the fold and 8
    # for the solve at k_lo.
    assert 16 <= len(residuals) <= 19
    assert all(0.0 <= r < 1e-10 for r in residuals)


def test_bracket_rejects_supercritical(op400):
    with pytest.raises(RegimeError):
        find_kstar(ProblemParams(dim=2, alpha=0.6, p=6.0, k=0.0), op400)


@pytest.mark.parametrize("k", [1e-6, 1e-3, 1e-2])
def test_point_mass_at_a_supercritical_p_is_rejected(op200, k):
    # At p = 5 >= N/(N - 2 alpha) = 4 no solution with a point mass
    # exists, though the iteration would report one converged after one
    # or two steps; without a source the iterate stays zero.  The
    # constant and the bracket are rejected by the same rule.
    params = ProblemParams(dim=2, alpha=0.75, p=5.0, k=k)
    message = r"critical exponent N/\(N - 2 alpha\) = 4 for N = 2"
    with pytest.raises(RegimeError, match=message + ".*point mass"):
        iterate_minimal(params, op200)
    for call in (measured_c2, log10_k_p, find_kstar):
        with pytest.raises(RegimeError, match=message):
            call(params, op200)
    report = iterate_minimal(params.with_k(0.0), op200)
    assert report.status == "Converged" and not np.any(report.profile.total)


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


def _run_patched(monkeypatch, params, op, after, change):
    """iterate_minimal on a fresh copy of op whose Picard products are
    exact for the first `after` iterations and then passed through
    change; measured_c2's product is kept before the patch, and other
    operators are untouched."""
    fresh = dataclasses.replace(op)
    measured_c2(params, fresh)
    exact = GreenOperator.apply
    calls = []

    def apply(self, values):
        out = exact(self, values)
        if self is not fresh:
            return out
        calls.append(values)
        return out if len(calls) <= after else change(out)

    monkeypatch.setattr(GreenOperator, "apply", apply)
    return iterate_minimal(params, fresh)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_step_is_divergence(params0, op200, monkeypatch, bad):
    # The third product turns one node non-finite: the run stops as
    # Diverged there and keeps the second iterate.
    params = params0.with_k(0.5)
    before = iterate_minimal(params, op200, max_iter=2)

    def poison(out):
        out[len(out) // 2] = bad
        return out

    report = _run_patched(monkeypatch, params, op200, 2, poison)
    assert report.status == "Diverged"
    assert report.iterations == 3
    assert report.profile.values.tobytes() == before.profile.values.tobytes()


def test_decreasing_iterate_loses_monotonicity(params0, op200, monkeypatch):
    params = params0.with_k(0.5)
    with pytest.raises(ConvergenceError, match="monotonicity lost at iteration 3"):
        _run_patched(monkeypatch, params, op200, 2, lambda out: 0.5 * out)


def test_certified_run_that_escapes_its_barrier_is_a_fault(
    params0, op200, monkeypatch
):
    # Raised products keep the iterates increasing, but near r = 1, where
    # the barrier vanishes, the first one already lies above it.
    params = params0.with_k(0.5 * 0.25 / measured_c2(params0, op200))
    assert math.log10(params.k) <= log10_k_p(params, op200)
    assert iterate_minimal(params, op200).status == "Converged"
    with pytest.raises(ConvergenceError, match="escaped the barrier"):
        _run_patched(monkeypatch, params, op200, 0, lambda out: out + 1.0)


def test_operator_constants_are_kept(params0, op200, monkeypatch):
    # measured_c2's product and the source remainder are made once per
    # operator (the product once per p); a certified run takes its
    # barrier from the kept product, and the profile stays the same.
    params = params0.with_k(0.5 * 0.25 / measured_c2(params0, op200))
    fresh = dataclasses.replace(op200)
    first = iterate_minimal(params, fresh)
    assert math.log10(params.k) <= log10_k_p(params, fresh)

    def no_remainder(grid, params):
        raise AssertionError("the remainder was not kept")

    monkeypatch.setattr(fracsing.picard, "dirac_smooth_remainder", no_remainder)
    exact = GreenOperator.apply
    products = []

    def counted(self, values):
        products.append(values)
        return exact(self, values)

    monkeypatch.setattr(GreenOperator, "apply", counted)
    again = iterate_minimal(params, fresh)
    assert len(products) == again.iterations
    assert again.profile.values.tobytes() == first.profile.values.tobytes()
    measured_c2(dataclasses.replace(params, p=1.5), fresh)
    assert len(products) == again.iterations + 1
    assert not _dirac_power_image(fresh, 1.5).flags.writeable
