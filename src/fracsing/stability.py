"""Stability index of the minimal solution via the linearized operator.

For a nonnegative profile u the stability index is

    sigma1 = inf_xi ||xi||_alpha^2 / (p * int u^(p-1) xi^2),

the coercivity margin of the linearized problem: sigma1 > 1 means stable,
sigma1 >= 1 semi-stable.  Equivalently 1/sigma1 is the spectral radius of
the compact positive operator T xi = p G_alpha[u^(p-1) xi], which is
self-adjoint in the inner product weighted by w * p u^(p-1).  Two
routes are provided: power iteration on the compact operator (sigma1)
and a Lanczos computation of the Rayleigh quotient in factored energy
coordinates (sigma1_rayleigh); they agree to well below 1e-6
and cross-check each other.  A scan over source strengths k tracks the
decay of the stability gap 1 - 1/sigma1 toward the extremal value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas
from scipy.sparse.linalg import LinearOperator, eigsh

from .core import ConvergenceError, ParameterError, RadialFunction
from .picard import _power_iteration, iterate_minimal


@dataclass(frozen=True)
class StabilityReport:
    """Stability index of a profile.

    gap is 1 - 1/sigma1, the relative coercivity margin of the
    quadratic form at the minimizing direction.  For u identically zero
    the form has no competitor: infinite is set, sigma1 is +inf and
    eigfun is the zero profile.
    """

    sigma1: float
    eigfun: RadialFunction
    gap: float
    infinite: bool = False


def _linearized_weight(u, params):
    """Nodewise p * u^(p-1), the linearization weight."""
    return params.p * u.total ** (params.p - 1.0)


def sigma1(u, params, op):
    """Stability index of u by power iteration on the linearized operator,
    to a relative weighted residual of 1e-12 within 200000 steps.

    Parameters
    ----------
    u : RadialFunction
        Nonnegative profile with grid-integrable u^(p-1).
    params : ProblemParams
    op : GreenOperator

    Returns
    -------
    StabilityReport

    Raises
    ------
    ParameterError
        If u is negative beyond roundoff.
    ConvergenceError
        If the power iteration misses its tolerance within the cap or
        loses positivity.
    """
    if not u.is_nonnegative(slack=1e-12):
        raise ParameterError("stability index requires a nonnegative profile")
    grid = op.grid
    if np.max(np.abs(u.total)) == 0.0:
        return StabilityReport(
            sigma1=math.inf,
            eigfun=RadialFunction.zero(grid),
            gap=1.0,
            infinite=True,
        )
    mu, x = _power_iteration(op, _linearized_weight(u, params))
    eigfun = RadialFunction(grid, x)
    return StabilityReport(sigma1=1.0 / mu, eigfun=eigfun, gap=1.0 - mu)


def sigma1_rayleigh(u, params, op):
    """Stability index through direct Rayleigh-quotient minimization.

    Minimizes ||xi||_alpha^2 / (p int u^(p-1) xi^2) in energy
    coordinates.  The discrete energy form is the inverse of the
    weighted-symmetrized Green matrix S = U' U, so substituting
    xi = D^(-1/2) U' y with D the quadrature weights turns the energy
    norm into the Euclidean norm of y exactly, and the whole quotient
    collapses to the largest eigenvalue of a Gram operator:

        sigma1 = 1 / lambda_max(U diag(q) U'),   q = p u^(p-1).

    lambda_max is found by Lanczos (ARPACK through eigsh, started from
    the constant vector and run to machine precision) on the operator
    y -> U (q * (U' y)): two triangular-matrix products per step, BLAS
    dtrmv on the kept Fortran-ordered factor, which read only its upper
    triangle, in place of a full singular-value decomposition.  The Gram
    operator is built from the Cholesky factor and q, applied through the
    factor and never assembled, and it is not the squared Green matrix.
    U does not depend on u or k: the operator factors S once and keeps
    U, zero below the diagonal and read-only (GreenOperator.cholesky),
    so a call after the first costs only the Lanczos products.  Squaring
    the factor costs nothing in accuracy because only the largest
    eigenvalue is wanted, which is as well conditioned as the largest
    singular value; nothing ill-conditioned is inverted
    or handed to a generalized eigensolver as the metric side.  Routes
    through an explicitly assembled stiffness matrix, or through pencils
    that square the Green matrix, carry noise amplified by its condition
    number and cannot reliably agree with the power-iteration route
    beyond ~1e-6; the factored quotient agrees to machine precision,
    and it shares no iteration with that route, which applies the Green
    matrix itself, so the two remain independent cross-checks.

    Parameters
    ----------
    u : RadialFunction
        Nonnegative, not identically zero profile.
    params : ProblemParams
    op : GreenOperator

    Returns
    -------
    float
    """
    if not u.is_nonnegative(slack=1e-12):
        raise ParameterError("stability index requires a nonnegative profile")
    if np.max(np.abs(u.total)) == 0.0:
        raise ParameterError("Rayleigh route needs a nontrivial profile")
    q = _linearized_weight(u, params)
    if float(np.min(q)) <= 0.0:
        raise ParameterError("linearization weight vanishes at a node")
    upper = op.cholesky()

    def matvec(y):
        return blas.dtrmv(upper, q * blas.dtrmv(upper, y, trans=1))

    gram = LinearOperator((op.n, op.n), matvec=matvec, dtype=float)
    lam = eigsh(
        gram, k=1, which="LA", tol=0, v0=np.ones(op.n), return_eigenvectors=False
    )
    return 1.0 / float(lam[0])


@dataclass(frozen=True)
class StabilityScan:
    """Gap scan along source strengths toward the extremal value.

    Row j pairs ks[j] with the index sigma1s[j] and gap 1 - 1/sigma1.
    slope is the least-squares slope of gap against
    kstar^((p-1)/p) - k^((p-1)/p) (kstar taken as the bracket midpoint),
    the coordinate in which the gap admits a linear lower bound.
    """

    ks: np.ndarray
    sigma1s: np.ndarray
    gaps: np.ndarray
    slope: float

    def rows(self):
        """Iterate (k, sigma1, gap) tuples."""
        return list(zip(self.ks.tolist(), self.sigma1s.tolist(), self.gaps.tolist()))


def stability_gap_scan(params_without_k, op, bracket, n_samples=8):
    """Scan sigma1 over source strengths approaching the extremal value.

    Parameters
    ----------
    params_without_k : ProblemParams
        Problem data; the k field is ignored.
    op : GreenOperator
    bracket : KStarBracket
        Bracket from the extremal bisection on op; samples run from one
        tenth of k_lo up to k_lo.  The samples below k_lo are default
        iterate_minimal runs, like the bracket's probes; the k_lo sample
        is the bracket's profile_lo, so it is not solved again.
    n_samples : int
        Number of samples, at least 4.

    Returns
    -------
    StabilityScan

    Raises
    ------
    ParameterError
        If n_samples < 4, or bracket.profile_lo lives on another grid
        than op.
    ConvergenceError
        If a sampled solve fails to converge or sigma1 increases along
        k beyond roundoff tolerance (the index must be nonincreasing).
    """
    if n_samples < 4:
        raise ParameterError(f"need at least 4 samples, got {n_samples}")
    if not np.array_equal(bracket.profile_lo.grid.nodes, op.grid.nodes):
        raise ParameterError("the bracket's profile lives on another grid than op")
    params = params_without_k
    # linspace sets its end point exactly: ks[-1] is bracket.k_lo.
    ks = np.linspace(0.1 * bracket.k_lo, bracket.k_lo, n_samples)
    sigmas = np.empty(n_samples)
    gaps = np.empty(n_samples)
    for j, k in enumerate(ks):
        pk = params.with_k(float(k))
        if j == n_samples - 1:
            profile = bracket.profile_lo
        else:
            report = iterate_minimal(pk, op)
            if report.status != "Converged":
                raise ConvergenceError(
                    f"scan solve at k = {k:.6g} ended with {report.status}"
                )
            profile = report.profile
        rep = sigma1(profile, pk, op)
        sigmas[j] = rep.sigma1
        gaps[j] = rep.gap
    drops = np.diff(sigmas)
    if np.max(drops) > 1e-9 * np.max(sigmas):
        raise ConvergenceError("sigma1 is not nonincreasing along the scan")

    kstar = 0.5 * (bracket.k_lo + bracket.k_hi)
    q = (params.p - 1.0) / params.p
    x = kstar**q - ks**q
    slope = float(np.polyfit(x, gaps, 1)[0])
    return StabilityScan(ks=ks, sigma1s=sigmas, gaps=gaps, slope=slope)
