"""Second solution above the minimal one via a mountain-pass search.

For k below the extremal value the problem admits a second solution
w = u + v where u is the minimal solution and v >= 0 solves the shifted
problem

    (-Delta)^alpha v = (u + v_+)^p - u^p.

Critical points of the energy

    E(v) = 1/2 ||v||_alpha^2 - int F(u, v_+),
    F(s,t) = [(s+t)^(p+1) - s^(p+1) - (p+1) s^p t] / (p+1),

are exactly such solutions.  The discrete quadratic form ||v||_alpha^2 is
realized as v' A v with A the inverse of the weighted Green matrix, which
makes the A-gradient of E equal to the fixed-point residual
v - G_alpha[(u+v_+)^p - u^p]: descent directions need no linear solve,
and A itself is never formed (DiscreteHAlphaForm).  Both searches end in
one Newton iteration that deflates the trivial root v = 0, run by the
package's one Newton loop (picard._newton_krylov).  The
mountain-pass search starts it from the maximum of a path deformed by 15
maximize-then-descend steps on Green images, whose A-products are
weighted dots of their densities; the cross-check starts it from the
energy maximum on the initial ray.  The pass geometry is certified by
sampling the energy on an A-sphere of verified radius.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas, lapack

from .core import (
    ConvergenceError,
    Keeps,
    ParameterError,
    RadialFunction,
    RegimeError,
    SecondSolutionNotFound,
)
from .green import symv
from .picard import _EPS, _newton_krylov, first_eigenpair
from .stability import sigma1

_SERIES_CUTOFF = 1e-3
# Largest accepted condition number of the symmetrized Green matrix.
_COND_CAP = 1e12
# Search settings: floor of the sup-norm residual of the returned critical
# point (_deflated_newton stops at 64 eps max|v| above it, the rounding of
# large v), path resolution and path maxima the deformation evaluates (it
# moves all but the last).
_FP_TOL = 1e-10
_PATH_SEGMENTS = 20
_PATH_STEPS = 15


@dataclass(frozen=True)
class DiscreteHAlphaForm(Keeps):
    """Discrete realization of the fractional Dirichlet quadratic form.

    v' A v approximates ||v||_alpha^2 for nodal samples v, with
    A = W^(1/2) S^(-1) W^(1/2), S = U' U the symmetrized Green matrix and
    W the quadrature weights.  A is never formed: a Green image v = G[g]
    has A v = W g, so v' A x = (w g)' x, and any other v has energy
    coordinates y = U^(-T) (sqrt_w v) with v' A v = y' y, one triangular
    solve, backward stable (Higham 2002, ch. 8).  factor is U, the
    operator's kept Cholesky factor, and mass the grid weights, both by
    reference.  phi1 is the first eigenfunction of the operator, which
    seeds every geometry scan; ray = G[1] / sqrt(w . G[1]) is the A-unit
    direction of every search's initial path, the Green image of the
    constant density 1 / (mass . ray).  None depends on k.  Beside 4 n
    doubles the form keeps, per seed a search asks for, the 50 A-unit
    rows of the seeded direction ensemble (_direction_ensemble), 320 kB
    at n = 800.
    """

    factor: np.ndarray
    sqrt_w: np.ndarray
    mass: np.ndarray
    phi1: np.ndarray
    ray: np.ndarray

    def coordinates(self, x):
        """Energy coordinates U^(-T) (sqrt_w x) of a nodal vector, or of
        each row of a block, whose 2-norms are A-norms: one BLAS dtrsv, or
        one dtrsm on the block's transposed (Fortran-ordered) view."""
        scaled = x * self.sqrt_w
        if x.ndim == 1:
            return blas.dtrsv(self.factor, scaled, trans=1, overwrite_x=True)
        return blas.dtrsm(1.0, self.factor, scaled.T, trans_a=1, overwrite_b=True).T


def build_form(op):
    """The discrete energy form on the operator's kept Cholesky factor.

    A = W^(1/2) S^(-1) W^(1/2) with S the symmetrized Green matrix and
    W the quadrature weights; then A * (Green matrix) = W exactly in
    exact arithmetic, so the form is consistent with the operator by
    construction.  The condition number of S is estimated in the 1-norm
    from the Cholesky factor (LAPACK dpocon); for symmetric S the exact
    1-norm condition number is at least the spectral one.  Once the
    operator is factored the call keeps O(n) doubles.

    Parameters
    ----------
    op : GreenOperator

    Returns
    -------
    DiscreteHAlphaForm

    Raises
    ------
    ConvergenceError
        If S is numerically indefinite, or its estimated condition number
        exceeds 1e12 (the grid grading has outrun double precision).
    """
    factor = op.cholesky()
    weights = op.grid.weights
    sqrt_w = np.sqrt(weights)
    # S = D^(1/2) Kbar D^(1/2) is entrywise nonnegative (GreenOperator), so
    # its 1-norm, the largest column sum of |S|, is max(sqrt_w * S 1).
    anorm = float(np.max(sqrt_w * symv(op.matrix, sqrt_w)))
    rcond, _ = lapack.dpocon(factor, anorm, uplo="U")
    if rcond * _COND_CAP < 1.0:
        cond = 1.0 / rcond if rcond > 0.0 else np.inf
        raise ConvergenceError(
            f"Green matrix condition number {cond:.3e} exceeds {_COND_CAP:.1e}; "
            f"grid grading too aggressive for the energy form"
        )
    phi1 = first_eigenpair(op)["phi1"].values
    base = op.apply(np.ones(op.n))
    return DiscreteHAlphaForm(
        factor, sqrt_w, weights, phi1, base / math.sqrt(weights @ base)
    )


def power_increment(s, t, p):
    """Stable (s + t)^p - s^p for s >= 0 elementwise, and 0 where t <= 0.

    Uses s^p * expm1(p * log1p(t/s)) to avoid cancellation when t << s
    (the relevant regime near the singular axis of the minimal
    solution), and t^p where s = 0, alone where s is all zero (k = 0).
    t may be a block of rows against the vector s; s^p is raised once,
    on s, and np.where picks each entry's branch, so no entry is
    gathered (the discarded ones may overflow or divide by zero unseen).
    """
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    zero = s == 0.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = 0.0 if zero.all() else s**p * np.expm1(p * np.log1p(t / s))
        if zero.any():
            out = np.where(zero, t**p, out)
    return np.where(t > 0.0, out, 0.0)


def increment_primitive(s, t, p):
    """Stable F(s,t) = [(s+t)^(p+1) - s^(p+1) - (p+1) s^p t] / (p+1),
    and 0 where t <= 0.

    The primitive of power_increment in t, and run like it on whole
    arrays; for t/s below 1e-3 the leading cancellation is evaluated by
    its Taylor series in t/s.
    """
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    q = p + 1.0
    zero = s == 0.0
    out = 0.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if not zero.all():
            tau = t / s
            tau2 = tau**2
            series = (
                p / 2.0
                + p * (p - 1.0) / 6.0 * tau
                + p * (p - 1.0) * (p - 2.0) / 24.0 * tau2
            )
            s_q = s**q
            out = np.where(
                tau < _SERIES_CUTOFF,
                s_q * tau2 * series,
                s_q * (np.expm1(q * np.log1p(tau)) - q * tau) / q,
            )
        if zero.any():
            out = np.where(zero, t**q / q, out)
    return np.where(t > 0.0, out, 0.0)


def _bulk(vals, u_total, form, params):
    """int F(u, v_+) for a nodal vector, or for each row of a block."""
    bulk = increment_primitive(u_total, np.maximum(vals, 0.0), params.p)
    return np.einsum("...j,j->...", bulk, form.mass)


def _gradient_values(vals, u_total, op, params):
    """A-gradient of E: the fixed-point residual v - G_alpha[f(u, v_+)]."""
    f = power_increment(u_total, np.maximum(vals, 0.0), params.p)
    return vals - op.apply(f)


@dataclass(frozen=True)
class MountainPassResult:
    """Nontrivial critical point of the shifted energy.

    v is the perturbation, energy its E-level, level_lower_bound the
    certified pass level beta, second_solution the profile u + v.  trace
    rows record (step, energy, norm) along the search, with steps
    numbered 0, 1, 2, ...: a path-deformation row (the first 15 of a
    mountain-pass search) carries the energy of the path maximum and the
    A-norm of its gradient; a deflated Newton row, which ends either
    search, carries None and the sup-norm of the fixed-point residual.
    """

    v: RadialFunction
    energy: float
    level_lower_bound: float
    second_solution: RadialFunction
    trace: tuple


def _direction_ensemble(op, form, seed):
    """The 50 seeded A-unit directions of the geometry scan, as rows.

    Mixes the shapes that stress the superlinear remainder: compactly
    supported bumps of graded widths, the first eigenfunction, the
    smooth ray direction, Green-smoothed noise and raw noise; the search
    adds the found critical direction.  Plain Gaussian noise alone is
    useless here: A-unit noise is pointwise tiny, so every radius would
    pass the scan vacuously.  The block depends on the form and the seed
    alone, so it is built once per seed (17 Green products and one
    50-row triangular solve for the A-norms) and kept on the form,
    read-only.
    """

    def build():
        rng = np.random.default_rng(seed)
        r = op.grid.nodes
        dirs = []
        for width in np.linspace(0.08, 0.98, 16):
            x = np.zeros(op.n)
            inside = r < width
            x[inside] = np.exp(-1.0 / (1.0 - (r[inside] / width) ** 2))
            dirs.append(x)
        dirs.append(form.phi1)
        dirs.append(form.ray)
        for _ in range(17):
            dirs.append(op.apply(rng.standard_normal(op.n)))
        for _ in range(15):
            dirs.append(rng.standard_normal(op.n))
        block = np.array(dirs)
        y = form.coordinates(block)
        block /= np.sqrt(np.einsum("ij,ij->i", y, y))[:, None]
        return block

    return form._memo(("directions", seed), build)


def _pass_geometry(u_total, form, params, c24, dirs, e_norm):
    """Verified mountain-pass radius and level.

    Splits E(sigma d) = sigma^2/2 - int F(u, sigma d_+) into the
    quadratic part, bounded for every direction through the stability
    eigenvalue (p int u^(p-1) xi^2 <= ||xi||_A^2 / sigma1), and the
    superlinear remainder, which is sampled over the direction
    ensemble, the rows of dirs.  On the largest grid radius sigma0 where
    the sampled remainder stays below (c24/4) sigma0^2,

        E(sigma0 d) >= (c24/2) sigma0^2 - rem >= (c24/4) sigma0^2 = beta

    holds for each sampled direction, so beta is a certified-by-
    sampling lower bound for the pass level.  Each radius is tested on
    the rows of the block that failed the last one: F acts elementwise,
    so each row's remainder is the one a test of that direction alone
    would give, and F(u, t)/t^2 is nondecreasing in t (f(u, .) is convex
    with f(u, 0) = 0), so a row's remainder over sigma^2 is nondecreasing
    in sigma and a row that passes at sigma passes at sigma/2.  A radius
    passes exactly when no row exceeds its target, as when the
    directions are tried one by one until the first failure; the chosen
    radius, and with it beta, is therefore the same.
    """
    p = params.p
    quad_coeff = 0.5 * p * u_total ** (p - 1.0)
    sigma = 0.5 * e_norm
    for _ in range(48):
        target = 0.25 * c24 * sigma**2
        dp = np.maximum(sigma * dirs, 0.0)
        rem = increment_primitive(u_total, dp, p) - quad_coeff * dp**2
        dirs = dirs[np.einsum("ij,j->i", rem, form.mass) > target]
        if not len(dirs):
            return sigma, target
        sigma *= 0.5
    raise SecondSolutionNotFound(
        "no radius with a certified positive pass level was found"
    )


def _redistribute(path, dens, mass):
    """Resample a polyline, one vertex per row, to equal A-arc-length spacing.

    Keeps the discrete path an honest approximation of a continuous
    curve between its fixed endpoints; without this the moving maximum
    leapfrogs the energy barrier and the deformation collapses onto the
    trivial critical point.  path[i] = G[dens[i]], so a segment's squared
    A-norm is the pairing of its two differences (clamped at zero, where
    a vanishing one may round below), and the same linear interpolation
    resamples both arrays in place, so they keep that relation: every
    interior row is gathered and interpolated before any is written.  The
    end vertices 0 and t0 * form.ray never move, and t0 >= 1, so the
    total A-arc length is at least 1.
    """
    m = len(path) - 1
    steps, step_dens = np.diff(path, axis=0), np.diff(dens, axis=0)
    seg = np.sqrt(np.maximum(np.einsum("ij,ij->i", step_dens * mass, steps), 0.0))
    arcs = np.concatenate(([0.0], np.cumsum(seg)))
    targets = np.linspace(0.0, arcs[-1], m + 1)[1:m]
    i = np.minimum(np.searchsorted(arcs, targets, side="right") - 1, m - 1)
    frac = np.divide(targets - arcs[i], seg[i], out=np.zeros(m - 1), where=seg[i] > 0.0)
    frac = frac[:, None]
    path[1:m] = path[i] + frac * steps[i]
    dens[1:m] = dens[i] + frac * step_dens[i]


def _negative_endpoint(u_total, form, params):
    """A ray length t0 with E(t0 * form.ray) <= 0.

    form.ray is A-unit, so E(t ray) = t^2/2 - int F(u, t ray_+) needs no
    product with A.
    """
    t0 = 1.0
    for _ in range(80):
        if 0.5 * t0 * t0 - _bulk(t0 * form.ray, u_total, form, params) <= 0.0:
            return t0
        t0 *= 2.0
    raise SecondSolutionNotFound("no negative-energy endpoint found on the ray")


def _run_mountain_pass(u_total, op, form, params, t0):
    """Maximize-then-descend path deformation from 0 to the negative-energy
    endpoint t0 * form.ray: it evaluates the path maximum 15 times, moves
    it after each evaluation but the last, and returns the last maximum
    and the trace rows.

    Beside the path the deformation keeps dens, the densities with
    path[i] = G[dens[i]], so that it makes no solve with the factor; the
    rows start as t_i times the constant density of form.ray.  At
    v = G[g] the gradient is v - G[f] = G[g - f], f the power increment
    it computes, so a move takes only vertex j to v - grad, the Picard
    image G[f], and subtracts g - f from its density; _redistribute
    resamples both arrays in place with one interpolation.  F(u, .) is
    convex, so E(v - grad) <= E(v) - ||grad||_A^2 / 2 and the move needs
    no line search.  Path energies and ||grad||_A^2 are weighted dots,
    O(mn) or O(n).
    """
    ts = np.linspace(0.0, 1.0, _PATH_SEGMENTS + 1) * t0
    density = np.full(op.n, 1.0 / float(form.mass @ form.ray))
    path, dens = np.outer(ts, form.ray), np.outer(ts, density)
    inner = slice(1, _PATH_SEGMENTS)
    trace = []
    for step_idx in range(_PATH_STEPS):
        quads = np.einsum("ij,ij->i", dens[inner] * form.mass, path[inner])
        energies = 0.5 * quads - _bulk(path[inner], u_total, form, params)
        j = int(np.argmax(energies)) + 1
        v = path[j].copy()
        f = power_increment(u_total, np.maximum(v, 0.0), params.p)
        grad = v - op.apply(f)
        grad_dens = dens[j] - f
        gnorm = math.sqrt(float((grad_dens * form.mass) @ grad))
        trace.append((step_idx, float(energies[j - 1]), gnorm))
        if step_idx == _PATH_STEPS - 1:
            break
        path[j] = v - grad
        dens[j] -= grad_dens
        _redistribute(path, dens, form.mass)
    return v, trace


def _deflated_newton(v, u_total, op, params, mass, trace):
    """Deflated Newton's method on the fixed-point residual R(v) from v, a
    system of picard._newton_krylov (Farrell, Birkisson & Funke 2015).

    The merit is m(v) max|R(v)|, m(v) = 1 + 1/||v||_w^2 with mass the
    weights w.  The plain step of J = I - G diag(f'),
    f' = p (u + v_+)^(p-1) [v > 0], is rescaled by
    1/(1 - grad(m).delta/m), which repels v = 0, then halved up to 40
    times until the merit falls; the accepted trial's residual is the
    next step's.  Each step appends (step, None, max|R|) to trace,
    numbered on.  The search stops at max|R| <= max(1e-10, 64 eps max|v|),
    as no step gets below a few ulps of a large v (p near 1), and rejects
    a stop at v = 0.  Every failure, the loop's ConvergenceError
    included, raises SecondSolutionNotFound with the trace.
    """
    resid = _gradient_values(v, u_total, op, params)

    def system(v):
        rnorm = float(np.max(np.abs(resid)))
        nv2 = mass @ v**2
        trace.append((len(trace), None, rnorm))
        stop = rnorm <= max(_FP_TOL, 64.0 * _EPS * float(np.max(np.abs(v))))
        if stop and nv2 <= 1e-16:
            raise SecondSolutionNotFound(
                "deflated iteration collapsed onto the trivial root", trace
            )
        vp = np.maximum(v, 0.0)
        fprime = params.p * (u_total + vp) ** (params.p - 1.0) * (v > 0.0)

        def advance(delta):
            nonlocal resid
            merit = 1.0 + 1.0 / nv2
            # nv2 > 0: R(0) = 0, so an iterate with w.v^2 = 0 has stopped.
            grad_m = -2.0 / nv2**2 * (mass * v)
            denom = 1.0 - float(grad_m @ delta) / merit
            if abs(denom) > 1e-12:
                delta = delta / denom
            step = 1.0
            for _ in range(40):
                trial = v + step * delta
                resid = _gradient_values(trial, u_total, op, params)
                # A numpy scalar under the loop's errstate: inf at w.trial^2 = 0.
                tmerit = 1.0 + 1.0 / (mass @ trial**2)
                if tmerit * float(np.max(np.abs(resid))) < merit * rnorm:
                    return trial
                step *= 0.5
            raise SecondSolutionNotFound(
                f"deflated Newton stagnated at residual {rnorm:.3e}", trace
            )

        error = 0.0 if stop else rnorm
        return resid, error, lambda y: y - op.apply(fprime * y), advance

    try:
        return _newton_krylov(system, v, "the second solution")
    except SecondSolutionNotFound:
        raise
    except ConvergenceError as exc:
        raise SecondSolutionNotFound(
            f"deflated Newton failed at residual {trace[-1][2]:.3e}", trace
        ) from exc


def _ray_maximum(u_total, form, params, t0):
    """The ray length t_N in (0, t0) that maximizes E(t * form.ray): the
    deflated Newton start, as in Choi & McKenna 1993 (Nonlinear Anal. 20).

    E(t ray) = t^2/2 - int F(u, t ray) for the positive, A-unit ray, so
    dE/dt = t - (mass ray) . f(u, t ray) needs no Green product.  F is
    superquadratic and sigma1 > 1 gives E''(0) > 0, so dE/dt is positive
    near 0, changes sign once, at the Nehari manifold (Szulkin & Weth
    2010), and is negative at t0, where E <= 0.  30 halvings on its sign
    place t_N within t0 / 2^30.
    """
    weighted = form.mass * form.ray
    lo, hi = 0.0, t0
    for _ in range(30):
        t = 0.5 * (lo + hi)
        if t > float(weighted @ power_increment(u_total, t * form.ray, params.p)):
            lo = t
        else:
            hi = t
    return 0.5 * (lo + hi)


def find_second_solution(
    params,
    op,
    form,
    u_min,
    method="MountainPassAlgorithm",
    seed=0,
):
    """Locate the second solution above the minimal one.

    Parameters
    ----------
    params : ProblemParams
        k must lie strictly below the extremal value (enforced through
        strict stability of u_min).  At k = 0, u_min = 0 and the second
        solution is the ground state w0 of (-Delta)^alpha w = w^p.
    op : GreenOperator
    form : DiscreteHAlphaForm
    u_min : RadialFunction
        Converged minimal solution at params.
    method : str
        Where the deflated Newton iteration starts: "MountainPassAlgorithm"
        at the maximum of the deformed path, "DeflatedNewton" at the
        energy maximum on the mountain pass's ray.
    seed : int
        Non-negative seed of the geometry-certification directions; the
        directions of each seed are built once and kept on the form.

    Returns
    -------
    MountainPassResult

    Raises
    ------
    ParameterError
        If method is not one of the two above, seed is not a
        non-negative integer, form was not built on op (its factor is
        not op's kept Cholesky factor) or u_min lives on another grid
        than op; checked before any computation.
    RegimeError
        If u_min is not strictly stable (k at or beyond the extremal
        value) or, at k = 0, p is at or above the Sobolev exponent
        (N + 2 alpha)/(N - 2 alpha): no second solution exists.
    SecondSolutionNotFound
        If no certified critical point is found; carries the trace.
    """
    if method not in ("MountainPassAlgorithm", "DeflatedNewton"):
        raise ParameterError(f"unknown method {method!r}")
    if not isinstance(seed, numbers.Integral) or isinstance(seed, bool) or seed < 0:
        raise ParameterError(f"seed must be a non-negative integer, got {seed!r}")
    if form.factor is not op.cholesky():
        raise ParameterError("the energy form was built on another operator")
    if not np.array_equal(u_min.grid.nodes, op.grid.nodes):
        raise ParameterError("u_min lives on another grid than op")
    if params.k == 0.0:
        params.check_exponent("no second solution exists", ground_state=True)
    stab = sigma1(u_min, params, op)
    if not stab.sigma1 > 1.0:
        raise RegimeError(
            f"minimal solution is not strictly stable (sigma1 = "
            f"{stab.sigma1:.6g}); k is at or beyond the extremal value"
        )
    c24 = 1.0 - 1.0 / stab.sigma1
    u_total = u_min.total
    t0 = _negative_endpoint(u_total, form, params)

    if method == "MountainPassAlgorithm":
        start, trace = _run_mountain_pass(u_total, op, form, params, t0)
    else:
        start, trace = _ray_maximum(u_total, form, params, t0) * form.ray, []
    vals = _deflated_newton(start, u_total, op, params, form.mass, trace)

    if float(np.min(vals)) < -1e-8 * float(np.max(np.abs(vals))):
        raise SecondSolutionNotFound(
            f"critical point lost nonnegativity (min {np.min(vals):.3e})", trace
        )

    # One solve gives both the A-norm and the energy of the critical point.
    y = form.coordinates(vals)
    quad = float(y @ y)
    dirs = np.vstack((_direction_ensemble(op, form, seed), vals / math.sqrt(quad)))
    sigma0, beta = _pass_geometry(u_total, form, params, c24, dirs, t0)
    e_val = 0.5 * quad - float(_bulk(vals, u_total, form, params))
    if e_val < beta * (1.0 - 1e-9):
        raise SecondSolutionNotFound(
            f"critical level {e_val:.6g} fell below the certified pass "
            f"level {beta:.6g}",
            trace,
        )
    v_prof = RadialFunction(op.grid, np.maximum(vals, 0.0))
    second = RadialFunction(
        u_min.grid,
        u_min.values + v_prof.values,
        u_min.singular_coeff,
        u_min.singular_exponent,
    )
    return MountainPassResult(
        v=v_prof,
        energy=e_val,
        level_lower_bound=beta,
        second_solution=second,
        trace=tuple(trace),
    )
