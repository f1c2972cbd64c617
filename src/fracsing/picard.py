"""Minimal solutions, the monotone iteration and the extremal source bound.

The minimal solution of (-Delta)^alpha u = u^p + k delta_0 on the unit
ball is the increasing limit of the iterates

    v_0 = k G_alpha[delta_0],    v_{n+1} = G_alpha[v_n^p] + k G_alpha[delta_0],

which converge exactly for source strengths k up to an extremal value k*.
With g = G_alpha[delta_0] and the measured comparison constant
c2 = sup G_alpha[g^p]/g, the profile w_t = t k^p G_alpha[g^p] + k g is a
supersolution barrier whenever (c2 t k^(p-1) + 1)^p <= t, which holds at
t = (p/(p-1))^p for every k up to the threshold k_p (within_barrier);
runs at such k are checked against the barrier nodewise.  The callers
solve by Newton's method in w = v/k and mu = k^(p-1) (minimal_solution).
k* is the discrete fold of the minimal branch, solved for by Newton's
method on the Moore-Spence system from mu_p = k_p^(p-1), in the Newton
loop that every Newton solve of the package shares (_newton_krylov, one
GMRES cycle _gmres a step), and power iteration on the Green matrix
supplies the principal Dirichlet eigenpair that starts the fold and the
stability analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas

from .core import ConvergenceError, RadialFunction, RegimeError
from .green import _dirac_power_image, dirac_smooth_remainder, measured_c2

_MONOTONE_SLACK = 1e-12
# GMRES settings of every Newton step (_gmres).
_KRYLOV_RTOL = 1e-13
_KRYLOV_CAP = 40
_EPS = float(np.finfo(float).eps)
# find_kstar: k_lo lies this far below the fold, relative; every Newton
# solve (_newton_krylov) stops at this error, within this many steps.
_KSTAR_OFFSET = 5e-4
_NEWTON_RTOL = 1e-12
_NEWTON_STEPS = 20
# minimal_solution: a Newton step below -_FALL_SLACK u_i at a node i
# certifies k >= k*.  Measured: step/u >= -6.0e-11 below k* (rounding;
# a 120-case sweep at n <= 200, -2.6e-12 on the desk case at n = 800);
# the first fall at (1 + 1e-6) k* >= 1.7e-3 (both bench operators and
# p = 1.1).  1e-6 keeps 1.7e4 above the rounding, the wider margin as a
# false "at or above k*" is the graver fault, and 1.7e3 below the fall.
_FALL_SLACK = 1e-6


@dataclass(frozen=True)
class SolveReport:
    """Outcome of the monotone iteration (iterate_minimal).

    status is "Converged", "Diverged", or "MaxIterations", iterations the
    number of steps taken, and profile the final iterate (for a diverged
    run, the last finite one).
    """

    status: str
    iterations: int
    profile: RadialFunction


@dataclass(frozen=True)
class KStarBracket:
    """The extremal source strength k* and a certified minimal solution
    just below it.

    k_hi is the discrete fold of the minimal branch, which is k* on the
    operator; k_lo = k_hi (1 - 5e-4), and profile_lo is
    minimal_solution at k_lo, certified by sigma1 > 1, which find_kstar
    keeps on it.
    """

    k_lo: float
    k_hi: float
    profile_lo: RadialFunction


def _mu_p(params, op):
    """k_p^(p-1) = ((p-1)/p)^(p-1) / (c2 p), c2 = measured_c2(params, op)."""
    p = params.p
    return ((p - 1.0) / p) ** (p - 1.0) / (measured_c2(params, op) * p)


def within_barrier(params, op):
    """Whether params.k <= k_p, where the closed supersolution barrier
    applies: k^(p-1) <= mu_p (_mu_p) closes (c2 t k^(p-1) + 1)^p <= t at
    t = (p/(p-1))^p.  Compared as (p-1) ln k <= ln mu_p, as k^(p-1) can
    overflow.  True at k = 0; at k > 0 raises as measured_c2."""
    k = params.k
    return k == 0.0 or (params.p - 1.0) * math.log(k) <= math.log(_mu_p(params, op))


def _dirac_parts(params, op):
    """R and S, the smooth remainder of G_alpha[delta_0] (kept on op) and
    its singular part c_fund r^(2 alpha - N), at the nodes."""
    remainder = op._memo(
        "dirac_smooth_remainder", lambda: dirac_smooth_remainder(op.grid, params)
    )
    return remainder, params.c_fund * op.grid.nodes**params.singular_exponent


def iterate_minimal(params, op, tol=1e-10, max_iter=8000):
    """Run the paper's monotone iteration for the minimal solution, the
    reference that minimal_solution is checked against.

    Parameters
    ----------
    params : ProblemParams
        Problem data with the source strength k >= 0.
    op : GreenOperator
        Assembled Green operator on a compatible grid.
    tol, max_iter : float, int
        Stop once the sup-norm step between total profiles is at most tol,
        within max_iter iterations.  A step bounds the error only by
        tol / (1 - 1/sigma1), which grows without bound near k*.

    Returns
    -------
    SolveReport
        Converged when the step drops to tol; Diverged when a step is not
        finite; otherwise MaxIterations.  A slow but convergent run, as
        near k* for p close to 1, is not cut short by its growth.

    Raises
    ------
    ParameterError
        If k < 0 or params has another dim or alpha than the operator.
    RegimeError
        If k > 0 and p is at or above N/(N - 2 alpha), where no solution
        with a point mass exists; k = 0 is admitted at any p.
    ConvergenceError
        If an iterate loses nodewise monotonicity or, on a run at
        0 < k <= k_p, escapes the supersolution barrier: both indicate a
        quadrature fault rather than a mathematical outcome.
    """
    op.check_params(params)
    k = params.k
    if k > 0.0:
        params.check_exponent("no solution with a point mass exists")
    grid = op.grid
    g = op.dirac_column
    source = k * _dirac_parts(params, op)[0]

    barrier = None
    if k > 0.0 and within_barrier(params, op):
        p = params.p
        image = _dirac_power_image(op, p)
        barrier = (p / (p - 1.0)) ** p * k**p * image + k * g
        escape = 1e-10 * (1.0 + float(np.max(barrier)))

    sing_coeff, sing_exp = k * params.c_fund, params.singular_exponent
    sing = sing_coeff * grid.nodes**sing_exp

    vals = source.copy()
    status = "MaxIterations"
    iterations = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, max_iter + 1):
            density = vals + sing
            density **= params.p
            new_vals = op.apply(density)
            new_vals += source
            diff = new_vals - vals
            rise, fall = float(diff.max()), float(diff.min())
            # A non-finite iterate shows in an extreme; max|diff| = max(rise, -fall).
            if not (math.isfinite(rise) and math.isfinite(fall)):
                status = "Diverged"
                iterations = n
                break
            step = max(rise, -fall)
            peak = float(np.max(np.abs(new_vals)))
            if fall < -_MONOTONE_SLACK * (1.0 + peak):
                raise ConvergenceError(
                    f"monotonicity lost at iteration {n}: quadrature fault"
                )
            if barrier is not None:
                excess = float(np.max(new_vals + sing - barrier))
                if excess > escape:
                    raise ConvergenceError(
                        f"certified iterate escaped the barrier by {excess:.3e}"
                    )
            vals = new_vals
            iterations = n
            if step <= tol:
                status = "Converged"
                break

    profile = RadialFunction(grid, vals, sing_coeff, sing_exp)
    return SolveReport(status=status, iterations=iterations, profile=profile)


def find_kstar(params_without_k, op):
    """The extremal source strength k* as the discrete fold of the minimal
    branch.

    From _minimal_w at mu_p = k_p^(p-1), k_p the certified lower bound,
    and the operator's first eigenfunction (first_eigenpair), Newton's
    method solves the fold system of Moore & Spence (1980, SIAM J. Numer.
    Anal. 17) in w = v/k and mu = k^(p-1) (_fold).  A positive phi makes
    the fold k*: f is strictly convex, so the extremal solution is the only
    semi-stable one.  k_lo lies 5e-4 below the fold, and its profile is
    minimal_solution there.  sigma1 > 1 certifies it as the minimal
    solution: T = G diag(f'(u)) has spectral radius 1/sigma1 < 1, and
    w = u - u_min >= 0 satisfies w <= T w <= T^m w -> 0 by convexity,
    so u = u_min.

    Parameters
    ----------
    params_without_k : ProblemParams
        Problem data; the k field is ignored.
    op : GreenOperator
        Assembled operator.

    Returns
    -------
    KStarBracket
        k_hi the fold, k_lo = k_hi (1 - 5e-4), with its profile.

    Raises
    ------
    ParameterError
        If (checked after the regime) params has another dim or alpha
        than the operator.
    RegimeError
        For supercritical exponents (k* = 0: no positive k admits a
        solution).
    ConvergenceError
        If the fold's k (naming log10 k*) or the profile at k_lo leaves
        the double range, a Newton solve fails (_newton_krylov), phi is
        not positive, or sigma1 <= 1 at k_lo.
    """
    from .stability import sigma1  # stability imports this module

    params = params_without_k
    params.check_exponent("the extremal source strength is undefined")
    mu_p = _mu_p(params, op)
    w = _minimal_w(params, op, mu_p, "k = k_p")
    mu, phi = _fold(params, op, mu_p, w, first_eigenpair(op)["phi1"].values)
    if not np.all(phi > 0.0):
        raise ConvergenceError("fold direction phi is not positive at every node")
    log_k = math.log10(mu) / (params.p - 1.0)
    if not log_k < 308.0:
        raise ConvergenceError(f"the fold k* = 10^{log_k:.6g} leaves the double range")
    k_f = mu ** (1.0 / (params.p - 1.0))
    k_lo = k_f * (1.0 - _KSTAR_OFFSET)
    profile_lo = minimal_solution(params.with_k(k_lo), op)
    stab = sigma1(profile_lo, params.with_k(k_lo), op)
    if not stab.sigma1 > 1.0:
        raise ConvergenceError(
            f"the solution at k_lo = {k_lo:.6g} is not strictly stable "
            f"(sigma1 = {stab.sigma1:.6g})"
        )
    return KStarBracket(k_lo=k_lo, k_hi=k_f, profile_lo=profile_lo)


def _fold(params, op, mu, w, phi):
    """Newton's method on the Moore-Spence fold system in w = v/k and
    mu = k^(p-1), from (w, phi, mu); returns (mu, phi) at the fold:

        w - mu G[f(s)] - R = 0,   phi - mu G[f'(s) phi] = 0,   l . phi = c,

    f(s) = s^p, s = w + S = u/k, R and S the smooth remainder and the
    singular part of G_alpha[delta_0], so every unknown stays of the
    order of R however large k* is.  l is w phi / ||w phi|| at the start,
    where phi is scaled to the 2-norm of w, and l . phi keeps its start
    value: GMRES minimizes the 2-norm of the whole residual, so the phi
    rows must weigh like the w rows, and the mu unknown is scaled by the
    2-norm of its column -(G[f(s)], G[f'(s) phi]), which the residual has
    computed.  Each step is halved until mu stays positive and at most
    doubles and s stays positive at every node.  A product with the
    bordered Jacobian takes two Green products:

        [dw - mu G[f' dw] - dmu G[f],
         dphi - mu G[f' dphi + f'' phi dw] - dmu G[f' phi],  l . dphi].
    """
    p = params.p
    n = op.n
    remainder, sing = _dirac_parts(params, op)
    ell = op.grid.weights * phi
    ell /= np.linalg.norm(ell)
    phi = phi * (np.linalg.norm(w) / np.linalg.norm(phi))
    size = ell @ phi
    x = np.concatenate((w, phi, [mu]))

    def system(x):
        w, phi, mu = x[:n], x[n:-1], x[-1]
        s = w + sing
        f1 = p * s ** (p - 1.0)
        f2 = (p - 1.0) * f1 / s
        image, bend = op.apply(s**p), op.apply(f1 * phi)
        resid = np.concatenate(
            (w - mu * image - remainder, phi - mu * bend, [ell @ phi - size])
        )
        error = max(
            np.max(np.abs(resid[:n])) / np.max(np.abs(w)),
            np.max(np.abs(resid[n:-1])) / np.max(np.abs(phi)),
            abs(resid[-1]) / size,
        )
        scale = math.hypot(np.linalg.norm(image), np.linalg.norm(bend))

        def matvec(y):
            dmu, dw, dphi = y[-1] / scale, y[:n], y[n:-1]
            return np.concatenate(
                (
                    dw - mu * op.apply(f1 * dw) - dmu * image,
                    dphi - mu * op.apply(f1 * dphi + f2 * phi * dw) - dmu * bend,
                    [ell @ dphi],
                )
            )

        def advance(y):
            step = np.append(y[:-1], y[-1] / scale)
            while np.all(np.isfinite(step)) and not (
                0.0 < mu + step[-1] <= 2.0 * mu and np.all(w + step[:n] > -sing)
            ):
                step *= 0.5
            return x + step

        return resid, error, matvec, advance

    x = _newton_krylov(system, x, "the fold")
    return float(x[-1]), x[n:-1]


def minimal_solution(params, op):
    """The minimal solution at params.k, as a RadialFunction (zero at
    k = 0): the one route to it of find_kstar, stability_gap_scan and the
    CLI, k (w + S) with w = _minimal_w at mu = k^(p-1).  Raises as
    _minimal_w, ParameterError if params has another dim or alpha than op,
    RegimeError if k > 0 and p >= N/(N - 2 alpha), and ConvergenceError
    naming k where k (w + S) leaves the double range."""
    op.check_params(params)
    k = params.k
    if k == 0.0:
        return RadialFunction.zero(op.grid)
    params.check_exponent("no solution with a point mass exists")
    with np.errstate(over="ignore", invalid="ignore"):
        w = _minimal_w(params, op, np.power(k, params.p - 1.0), f"k = {k:.6g}")
        if not np.all(np.isfinite(k * (w + _dirac_parts(params, op)[1]))):
            raise ConvergenceError(
                f"the minimal solution at k = {k:.6g} leaves the double range"
            )
    return RadialFunction(op.grid, k * w, k * params.c_fund, params.singular_exponent)


def _minimal_w(params, op, mu, at):
    """w = v/k of the minimal solution at mu = k^(p-1), `at` naming k in
    messages: Newton's method on F(w) = w - mu G[(w + S)^p] - R = 0 (the
    residual in v over k, so no test depends on the scale of k), R and S
    the smooth and singular parts of G_alpha[delta_0], from Picard's first
    iterate R, stopped once max_i |F_i| / (w + S)_i <= 1e-12.  The start
    is a subsolution, G >= 0 and u^p is convex, so while G diag(f'(u)) has
    spectral radius below 1 every iterate rises nodewise to u_min, which
    exists exactly when k < k* (Ortega & Rheinboldt 1970, section 13.3).
    Raises RegimeError once a step falls below -1e-6 (w + S)_i at a node,
    which certifies k >= k* (naming the step and its fall), and
    ConvergenceError as _newton_krylov."""
    p = params.p
    remainder, sing = _dirac_parts(params, op)
    iterates = []

    def system(w):
        s = w + sing
        if iterates:
            fall = float(np.min((w - iterates[-1]) / (iterates[-1] + sing)))
            if fall < -_FALL_SLACK:
                raise RegimeError(
                    f"{at} is at or above k*: Newton step {len(iterates)} "
                    f"falls by {-fall:.3g} of u at a node"
                )
        iterates.append(w)
        resid = w - mu * op.apply(s**p) - remainder
        fprime = mu * p * s ** (p - 1.0)
        error = np.max(np.abs(resid) / s)
        return resid, error, lambda y: y - op.apply(fprime * y), lambda y: w + y

    return _newton_krylov(system, remainder, f"the minimal solution at {at}")


def _newton_krylov(system, x, name):
    """The one Newton loop of the package.  system(x) returns (residual,
    error, matvec, advance); the loop stops once error <= 1e-12, else
    solves matvec(y) = -residual by one _gmres cycle and moves to
    x = advance(y).  Raises ConvergenceError, naming name: after 20
    steps, quoting the last error and the last GMRES relative residual,
    or, naming the steps taken, at a non-finite error or a residual
    whose squared 2-norm (_gmres divides by it) leaves (0, inf).

    The step is the cycle's iterate whether or not it met 1e-13, an
    inexact Newton step (Dembo, Eisenstat & Steihaug 1982).  Each
    Jacobian is the identity plus a compact Green part, bordered for the
    fold, so GMRES converges superlinearly (Campbell, Ipsen, Kelley &
    Meyer 1996): over a round on both n = 800 bench operators a step
    takes a median (maximum) of 8 (13) products for a minimal solution,
    14 (19) for the fold and 11 (14) for the deflated search, and every
    cycle met 1e-13."""
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        for taken in range(_NEWTON_STEPS):
            resid, error, matvec, advance = system(x)
            if error <= _NEWTON_RTOL:
                return x
            if not math.isfinite(error):
                raise ConvergenceError(
                    f"Newton's method for {name} met a non-finite residual "
                    f"after {taken} steps"
                )
            if not 0.0 < float(resid @ resid) < math.inf:
                raise ConvergenceError(
                    f"Newton's method for {name} met a residual whose 2-norm "
                    f"leaves the double range after {taken} steps"
                )
            step, relres = _gmres(matvec, -resid)
            x = advance(step)
    raise ConvergenceError(
        f"Newton's method for {name} did not converge in {_NEWTON_STEPS} steps: "
        f"relative residual {error:.3e}, last GMRES relative residual {relres:.3e}"
    )


def _gmres(matvec, rhs):
    """One GMRES cycle from zero for matvec(x) = rhs (Saad & Schultz 1986):
    (x, relres), the iterate whether or not it met the tolerance, and its
    rotated residual relative to ||rhs||.

    Each Arnoldi column costs one matvec and is orthogonalised by
    classical Gram-Schmidt run twice (Giraud, Langou & Rozloznik 2005),
    two matrix-vector products against the basis per pass.  The cycle
    stops when the rotated residual |g_(j+1)| falls to 1e-13 ||rhs||,
    after 40 columns, or at a happy breakdown (the new column vanishes to
    eps of its norm before orthogonalisation: the Krylov space is
    invariant and the iterate exact); no matvec follows the cycle.
    """
    beta = float(np.linalg.norm(rhs))
    basis = np.empty((_KRYLOV_CAP + 1, rhs.size))
    np.multiply(rhs, 1.0 / beta, out=basis[0])
    g = [beta]
    columns = []
    rotations = []
    for j in range(_KRYLOV_CAP):
        w = matvec(basis[j])
        before = float(np.linalg.norm(w))
        # prior' is a Fortran-ordered view: gemv with trans=1 gives the
        # projections prior w, without it the combination prior' h.
        prior = basis[: j + 1].T
        h = blas.dgemv(1.0, prior, w, trans=1)
        w -= blas.dgemv(1.0, prior, h)
        again = blas.dgemv(1.0, prior, w, trans=1)
        w -= blas.dgemv(1.0, prior, again)
        h += again
        after = float(np.linalg.norm(w))
        breakdown = after <= _EPS * before
        if not breakdown:
            np.multiply(w, 1.0 / after, out=basis[j + 1])
        col = h.tolist()
        sub = 0.0 if breakdown else after
        for k, (c, s) in enumerate(rotations):
            col[k], col[k + 1] = (
                c * col[k] + s * col[k + 1],
                c * col[k + 1] - s * col[k],
            )
        diag = math.hypot(col[j], sub)
        c, s = col[j] / diag, sub / diag
        col[j] = diag
        rotations.append((c, s))
        columns.append(col)
        g.append(-s * g[j])
        g[j] *= c
        if abs(g[j + 1]) <= _KRYLOV_RTOL * beta or breakdown:
            break
    m = len(columns)
    y = [0.0] * m
    for i in range(m - 1, -1, -1):
        acc = g[i] - sum(columns[k][i] * y[k] for k in range(i + 1, m))
        y[i] = acc / columns[i][i]
    return blas.dgemv(1.0, basis[:m].T, y), abs(g[m]) / beta


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
