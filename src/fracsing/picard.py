"""Monotone iteration for the minimal solution and the extremal source bound.

The minimal solution of (-Delta)^alpha u = u^p + k delta_0 on the unit
ball is the increasing limit of the iterates

    v_0 = k G_alpha[delta_0],    v_{n+1} = G_alpha[v_n^p] + k G_alpha[delta_0],

which converge exactly for source strengths k up to an extremal value k*.
With g = G_alpha[delta_0] and the measured comparison constant
c2 = sup G_alpha[g^p]/g, the profile w_t = t k^p G_alpha[g^p] + k g is a
supersolution barrier whenever (c2 t k^(p-1) + 1)^p <= t, which a simple
threshold on c2 k^(p-1) guarantees at t = (p/(p-1))^p; certified runs are
checked against the barrier nodewise.  Bisection on the convergence
indicator brackets k*, and power iteration on the Green matrix supplies
the principal Dirichlet eigenpair used by the stability analysis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ConvergenceError, ParameterError, RadialFunction, RegimeError
from .green import dirac_smooth_remainder, measured_c2

_CEILING_FACTOR = 1e6
_MONOTONE_SLACK = 1e-12


@dataclass(frozen=True)
class SolveReport:
    """Outcome of the monotone iteration.

    status is "Converged", "Diverged", or "MaxIterations"; sup_residual
    is the final sup-norm step between consecutive total profiles (for a
    diverged run, the last finite step); profile is the final iterate
    (for a diverged run, the last iterate before blow-up was detected).
    """

    status: str
    iterations: int
    sup_residual: float
    barrier_certified: bool
    profile: RadialFunction


@dataclass(frozen=True)
class KStarBracket:
    """Bisection bracket for the extremal source strength k*.

    k_lo is the largest tested k whose default iterate_minimal run
    converged, k_hi the smallest whose run did not (near p = 1 it may run
    out of iterations rather than diverge); profile_lo is the profile of
    the run at k_lo, bit for bit.
    """

    k_lo: float
    k_hi: float
    profile_lo: RadialFunction


def barrier_certificate(params, c2_measured):
    """Decide whether the closed supersolution barrier applies.

    Parameters
    ----------
    params : ProblemParams
        Problem data; must be subcritical.
    c2_measured : float
        Measured comparison constant sup G_alpha[g^p]/g.

    Returns
    -------
    dict
        {"certified": bool, "t_star": float} with t_star = (p/(p-1))^p.
        Certified means c2 k^(p-1) <= (1/p)((p-1)/p)^(p-1), which closes
        the barrier inequality (c2 t k^(p-1) + 1)^p <= t at t = t_star.
    """
    if not params.subcritical:
        raise RegimeError(
            f"barrier requires p < {params.critical_p:.6g}, got {params.p}"
        )
    p, k = params.p, params.k
    t_star = (p / (p - 1.0)) ** p
    threshold = (1.0 / p) * ((p - 1.0) / p) ** (p - 1.0)
    certified = bool(c2_measured * k ** (p - 1.0) <= threshold)
    if certified and k > 0.0:
        # Closure of the barrier inequality at t_star; fails only on a
        # genuine numerical fault, not at the threshold boundary.
        closure = (c2_measured * t_star * k ** (p - 1.0) + 1.0) ** p
        if closure > t_star * (1.0 + 1e-9):
            raise ConvergenceError(
                f"barrier closure violated: {closure:.12g} > {t_star:.12g}"
            )
    return {"certified": certified, "t_star": t_star}


def _source_parts(params, op):
    """Smooth samples and singular data of k * G_alpha[delta_0]."""
    k = params.k
    source = k * dirac_smooth_remainder(op.grid, params)
    if k > 0.0:
        return source, k * params.c_fund, params.singular_exponent
    return source, 0.0, 0.0


def iterate_minimal(params, op, tol=1e-10, max_iter=8000):
    """Run the monotone iteration for the minimal solution.

    Parameters
    ----------
    params : ProblemParams
        Problem data with the source strength k >= 0.
    op : GreenOperator
        Assembled Green operator on a compatible grid.
    tol, max_iter : float, int
        Stop once the sup-norm step between total profiles is at most tol,
        within max_iter iterations.  The defaults are the one rule of the
        package: find_kstar, stability_gap_scan and the CLI solve by them.

    Returns
    -------
    SolveReport
        Converged when the step drops to tol; Diverged when the smooth
        part exceeds a ceiling of 1e6 times the source scale or a step is
        not finite; otherwise MaxIterations.  A slow but convergent run,
        as near k* for p close to 1, is not cut short by its growth.

    Raises
    ------
    ParameterError
        If k < 0 or params has another dim or alpha than the operator.
    ConvergenceError
        If an iterate loses nodewise monotonicity or, on a certified
        run, escapes the supersolution barrier: both indicate a
        quadrature fault rather than a mathematical outcome.
    """
    op.check_params(params)
    k = params.k
    grid = op.grid
    g = op.dirac_column
    source, sing_coeff, sing_exp = _source_parts(params, op)

    certified = False
    barrier = None
    if params.subcritical:
        cert = barrier_certificate(params, measured_c2(params, op))
        certified = cert["certified"]
        if certified and k > 0.0:
            barrier = (
                cert["t_star"] * k**params.p * op.apply(g**params.p) + k * g
            )

    ceiling = _CEILING_FACTOR * k * float(np.max(g)) if k > 0.0 else np.inf
    sing = sing_coeff * grid.nodes**sing_exp if sing_coeff > 0.0 else 0.0

    vals = source.copy()
    status = "MaxIterations"
    iterations = 0
    last_step = np.inf
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, max_iter + 1):
            new_vals = op.apply((vals + sing) ** params.p) + source
            diff = new_vals - vals
            step = float(np.max(np.abs(diff)))
            # vals is finite, so a non-finite new iterate shows in the step.
            if not np.isfinite(step):
                status = "Diverged"
                iterations = n
                break
            peak = float(np.max(np.abs(new_vals)))
            if float(np.min(diff)) < -_MONOTONE_SLACK * (1.0 + peak):
                raise ConvergenceError(
                    f"monotonicity lost at iteration {n}: quadrature fault"
                )
            if barrier is not None:
                excess = float(np.max(new_vals + sing - barrier))
                if excess > 1e-10 * (1.0 + float(np.max(barrier))):
                    raise ConvergenceError(
                        f"certified iterate escaped the barrier by {excess:.3e}"
                    )
            vals = new_vals
            last_step = step
            iterations = n
            if step <= tol:
                status = "Converged"
                break
            if peak > ceiling:
                status = "Diverged"
                break

    profile = RadialFunction(grid, vals, sing_coeff, sing_exp)
    return SolveReport(
        status=status,
        iterations=iterations,
        sup_residual=float(last_step) if np.isfinite(last_step) else 0.0,
        barrier_certified=certified,
        profile=profile,
    )


def find_kstar(params_without_k, op, bracket_tol=1e-3):
    """Bracket the extremal source strength k* by bisection on whether a
    default iterate_minimal run, the rule solve runs with, converges.

    Parameters
    ----------
    params_without_k : ProblemParams
        Problem data; the k field is ignored.
    op : GreenOperator
        Assembled operator.
    bracket_tol : float
        Relative stop, > 0: the bracket is refined until
        k_hi - k_lo <= bracket_tol * k_lo, or until its midpoint is no
        longer strictly inside it (the float resolution of k).

    Returns
    -------
    KStarBracket

    Raises
    ------
    ParameterError
        If bracket_tol is not positive, or (checked after the regime)
        params has another dim or alpha than the operator.
    RegimeError
        For supercritical exponents (k* = 0: no positive k admits a
        solution).
    ConvergenceError
        If the probe at the certified lower bound k_p fails or no
        divergence is found under repeated doubling (both indicate
        numerical faults).
    """
    if not bracket_tol > 0.0:
        raise ParameterError(f"bracket_tol must be positive, got {bracket_tol}")
    params = params_without_k
    if not params.subcritical:
        raise RegimeError(
            f"extremal bracketing requires p < {params.critical_p:.6g}, "
            f"got {params.p}"
        )
    p = params.p
    c2 = measured_c2(params, op)
    k_p = (1.0 / (c2 * p)) ** (1.0 / (p - 1.0)) * (p - 1.0) / p

    def probe(k):
        report = iterate_minimal(params.with_k(k), op)
        return report.status == "Converged", report

    ok, report = probe(k_p)
    if not ok:
        raise ConvergenceError(
            f"iteration failed at the certified bound k_p = {k_p:.6g}"
        )
    k_lo, profile_lo = k_p, report.profile

    k_hi = None
    k = k_p
    for _ in range(60):
        k *= 2.0
        ok, report = probe(k)
        if ok:
            k_lo, profile_lo = k, report.profile
        else:
            k_hi = k
            break
    if k_hi is None:
        raise ConvergenceError("no divergence found while doubling k")

    while k_hi - k_lo > bracket_tol * k_lo:
        mid = 0.5 * (k_lo + k_hi)
        if not k_lo < mid < k_hi:
            break
        ok, report = probe(mid)
        if ok:
            k_lo, profile_lo = mid, report.profile
        else:
            k_hi = mid

    return KStarBracket(k_lo=k_lo, k_hi=k_hi, profile_lo=profile_lo)


def _power_iteration(op, c):
    """Top eigenpair (mu, x) of x -> G_alpha[c x], self-adjoint in the
    inner product weighted by w * c, w the grid weights, by power
    iteration until the weighted residual falls to 1e-12 mu.  x is
    positive, with unit norm in the grid weights.  Raises ConvergenceError
    after 200000 steps, or if x is not positive."""
    w = op.grid.weights
    wc = w * c
    x = np.ones(op.n)
    x /= np.sqrt(wc @ x**2)
    for _ in range(200000):
        y = op.apply(c * x)
        mu = float(wc @ (x * y))
        resid = float(np.sqrt(wc @ (y - mu * x) ** 2))
        if resid <= 1e-12 * mu:
            break
        x = y / np.sqrt(wc @ y**2)
    else:
        raise ConvergenceError(
            "power iteration did not reach tolerance 1e-12 in 200000 steps"
        )
    if float(np.min(x)) <= 0.0:
        raise ConvergenceError("power iteration lost positivity of the eigenfunction")
    return mu, x / np.sqrt(w @ x**2)


def first_eigenpair(op):
    """Principal Dirichlet eigenpair via power iteration on the Green matrix,
    to a relative weighted residual of 1e-12 within 200000 steps.

    Parameters
    ----------
    op : GreenOperator

    Returns
    -------
    dict
        {"lambda1": float, "phi1": RadialFunction} where lambda1 is the
        reciprocal of the largest Green eigenvalue and phi1 the positive
        eigenfunction with unit weighted L2 norm.  The pair is kept on
        the operator, so later calls return the same read-only phi1
        without iterating again.
    """

    def iterate():
        mu, x = _power_iteration(op, 1.0)
        return 1.0 / mu, RadialFunction(op.grid, x)

    lambda1, phi = op._memo("first_eigenpair", iterate)
    return {"lambda1": lambda1, "phi1": phi}
