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
and A itself is never formed (DiscreteHAlphaForm).  The search runs a
maximize-then-descend path deformation on Green images, whose A-products
are weighted dots of their densities, with a Newton polish,
cross-checked by a deflated Newton iteration that removes the trivial
root v = 0 and starts from the energy maximum on the initial ray, and
certifies the mountain-pass geometry by sampling the energy on an
A-sphere of verified radius.
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
from .picard import first_eigenpair
from .stability import sigma1

_SERIES_CUTOFF = 1e-3
# Largest accepted condition number of the symmetrized Green matrix.
_COND_CAP = 1e12
# GMRES settings of the Newton step (see _newton).
_KRYLOV_RTOL = 1e-13
_KRYLOV_CAP = 40
_EPS = float(np.finfo(float).eps)
# Search settings: floor of the sup-norm residual of the returned critical
# point (_newton stops at 64 eps max|v| above it, the rounding of large v),
# gradient A-norm at which the path deformation hands over to the Newton
# polish, path resolution, and the step budget of each search.
_FP_TOL = 1e-10
_GRAD_TOL = 1e-3
_PATH_SEGMENTS = 20
_MAX_STEPS = 2000
# A Newton iteration whose residual has not halved over this many steps
# is crawling and stops as stagnated (see _newton).
_CRAWL_STEPS = 30


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
    """Stable (s + t)^p - s^p for s >= 0 and t >= 0 elementwise.

    Uses s^p * expm1(p * log1p(t/s)) to avoid cancellation when t << s
    (the relevant regime near the singular axis of the minimal
    solution).
    """
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    s, t = np.broadcast_arrays(s, t)
    out = np.zeros(s.shape)
    zero_s = s == 0.0
    pos = (t > 0.0) & ~zero_s
    out[pos] = s[pos] ** p * np.expm1(p * np.log1p(t[pos] / s[pos]))
    out[zero_s & (t > 0.0)] = t[zero_s & (t > 0.0)] ** p
    return out


def increment_primitive(s, t, p):
    """Stable F(s,t) = [(s+t)^(p+1) - s^(p+1) - (p+1) s^p t] / (p+1).

    The primitive of power_increment in t; for t/s below 1e-3 the
    leading cancellation is evaluated by its Taylor series in t/s.
    """
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    s, t = np.broadcast_arrays(s, t)
    out = np.zeros(s.shape)
    tp = np.where(t > 0.0, t, 0.0)
    zero_s = s == 0.0
    out[zero_s] = tp[zero_s] ** (p + 1.0) / (p + 1.0)
    pos = ~zero_s & (tp > 0.0)
    if np.any(pos):
        sv, tv = s[pos], tp[pos]
        tau = tv / sv
        small = tau < _SERIES_CUTOFF
        res = np.empty(sv.shape)
        if np.any(small):
            ta = tau[small]
            series = (
                p / 2.0
                + p * (p - 1.0) / 6.0 * ta
                + p * (p - 1.0) * (p - 2.0) / 24.0 * ta**2
            )
            res[small] = sv[small] ** (p + 1.0) * ta**2 * series
        big = ~small
        if np.any(big):
            tb = tau[big]
            res[big] = (
                sv[big] ** (p + 1.0)
                * (np.expm1((p + 1.0) * np.log1p(tb)) - (p + 1.0) * tb)
                / (p + 1.0)
            )
        out[pos] = res
    return out


def energy(v, u_min, form, params):
    """Shifted-problem energy E(v) at a bounded perturbation profile.

    Parameters
    ----------
    v : RadialFunction
        Perturbation; must carry no singular part.
    u_min : RadialFunction
        Converged minimal solution for the same params.
    form : DiscreteHAlphaForm
    params : ProblemParams

    Returns
    -------
    float
        E(v); exactly 0.0 at v = 0.
    """
    if v.singular_coeff != 0.0:
        raise ParameterError("energy perturbations must be bounded profiles")
    return _energy_values(v.values, u_min.total, form, params)


def _energy_values(vals, u_total, form, params):
    y = form.coordinates(vals)
    return 0.5 * float(y @ y) - float(_bulk(vals, u_total, form, params))


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
    numbered 0, 1, 2, ...: a path-deformation row carries the energy of
    the path maximum and the A-norm of its gradient; a Newton row (the
    polish after the deformation, and every row of the deflated Newton
    search) carries None and the sup-norm of the fixed-point residual.
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
        block.setflags(write=False)
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
    the whole block at once: F acts elementwise, so each row's remainder
    is the one a test of that direction alone would give, and a radius
    passes exactly when no row exceeds its target, as when the
    directions are tried one by one until the first failure.  The chosen
    radius, and with it beta, is therefore the same.
    """
    p = params.p
    quad_coeff = 0.5 * p * u_total ** (p - 1.0)
    sigma = 0.5 * e_norm
    for _ in range(48):
        target = 0.25 * c24 * sigma**2
        dp = np.maximum(sigma * dirs, 0.0)
        rem = increment_primitive(u_total, dp, p) - quad_coeff * dp**2
        rem = np.einsum("ij,j->i", rem, form.mass)
        if not np.any(rem > target):
            return sigma, target
        sigma *= 0.5
    raise SecondSolutionNotFound(
        "no radius with a certified positive pass level was found"
    )


def _newton_step(v, u_total, op, params, resid):
    """Newton direction for J delta = -resid, J = I - G diag(f'), with
    f' = p (u + v_+)^(p-1) [v > 0]: the iterate of one GMRES cycle from
    zero (Saad & Schultz 1986), whether or not it met the tolerance (see
    _newton).

    Each Arnoldi column costs one product y - G[f' y] and is
    orthogonalised by classical Gram-Schmidt run twice (Giraud, Langou
    & Rozloznik 2005), two matrix-vector products against the basis per
    pass.  The cycle stops when the rotated residual |g_(j+1)| falls to
    1e-13 ||resid|| or at a happy breakdown (the new column vanishes to
    eps of its norm before orthogonalisation: the Krylov space is
    invariant and the iterate exact); no product follows the cycle.
    """
    fprime = params.p * (u_total + np.maximum(v, 0.0)) ** (params.p - 1.0) * (v > 0.0)
    beta = float(np.linalg.norm(resid))
    basis = np.empty((_KRYLOV_CAP + 1, resid.size))
    np.multiply(resid, -1.0 / beta, out=basis[0])
    g = [beta]
    columns = []
    rotations = []
    for j in range(_KRYLOV_CAP):
        w = basis[j] - op.apply(fprime * basis[j])
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
    return blas.dgemv(1.0, basis[:m].T, y)


def _redistribute(path, dens, mass):
    """Resample a polyline, one vertex per row, to equal A-arc-length spacing.

    Keeps the discrete path an honest approximation of a continuous
    curve between its fixed endpoints; without this the moving maximum
    leapfrogs the energy barrier and the deformation collapses onto the
    trivial critical point.  path[i] = G[dens[i]], so a segment's squared
    A-norm is the pairing of its two differences (clamped at zero, where
    a vanishing one may round below), and the same linear interpolation
    resamples both arrays, so the returned pair keeps that relation.
    """
    m = len(path) - 1
    steps, step_dens = np.diff(path, axis=0), np.diff(dens, axis=0)
    seg = np.sqrt(np.maximum(np.einsum("ij,ij->i", step_dens * mass, steps), 0.0))
    arcs = np.concatenate(([0.0], np.cumsum(seg)))
    total = arcs[-1]
    if total <= 0.0:
        return path, dens
    targets = np.linspace(0.0, total, m + 1)[1:m]
    i = np.minimum(np.searchsorted(arcs, targets, side="right") - 1, m - 1)
    frac = np.divide(targets - arcs[i], seg[i], out=np.zeros(m - 1), where=seg[i] > 0.0)
    frac = frac[:, None]
    new_path, new_dens = path.copy(), dens.copy()
    new_path[1:m] = path[i] + frac * steps[i]
    new_dens[1:m] = dens[i] + frac * step_dens[i]
    return new_path, new_dens


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
    endpoint t0 * form.ray, followed by a Newton polish of the path maximum.

    Beside the path the deformation keeps dens, the densities with
    path[i] = G[dens[i]], so that it makes no solve with the factor; the
    rows start as t_i times the constant density of form.ray.  At
    v = G[g] the gradient is v - G[f] = G[g - f], f the power increment
    it computes, so an accepted step moves only vertex j, to v - s grad,
    and its density to g - s (g - f); _redistribute resamples both
    arrays with one interpolation.  Path energies, ||grad||_A^2 and each
    line-search trial energy

        ||v - s grad||_A^2 = (w g).v - 2 s (w g).grad + s^2 (w (g - f)).grad

    are weighted dots, O(mn) or O(n).
    """
    ts = np.linspace(0.0, 1.0, _PATH_SEGMENTS + 1) * t0
    density = np.full(op.n, 1.0 / float(form.mass @ form.ray))
    path, dens = np.outer(ts, form.ray), np.outer(ts, density)
    inner = slice(1, _PATH_SEGMENTS)
    trace = []
    v = path[1]
    best = np.inf
    stall = 0
    for step_idx in range(_MAX_STEPS):
        quads = np.einsum("ij,ij->i", dens[inner] * form.mass, path[inner])
        energies = 0.5 * quads - _bulk(path[inner], u_total, form, params)
        j = int(np.argmax(energies)) + 1
        v = path[j].copy()
        e_here = float(energies[j - 1])
        f = power_increment(u_total, np.maximum(v, 0.0), params.p)
        grad = v - op.apply(f)
        grad_dens = dens[j] - f
        grad_sq = float((grad_dens * form.mass) @ grad)
        gnorm = math.sqrt(grad_sq)
        trace.append((step_idx, e_here, gnorm))
        # The maximum of a continuous path stays above the pass level;
        # a small gradient at nonpositive energy means the discrete
        # maximum slid off the barrier, so keep deforming.
        if gnorm <= _GRAD_TOL and e_here > 0.0:
            break
        if e_here < best - 1e-9 * (1.0 + abs(best)):
            best = e_here
            stall = 0
        else:
            # The moving maximum has hit the resolution limit of the
            # discrete path; hand the endgame to the Newton polish.
            stall += 1
            if stall >= 15:
                break
        v_sq, cross = float(quads[j - 1]), float((dens[j] * form.mass) @ grad)
        step = 1.0
        armijo_ok = False
        for _ in range(50):
            trial = v - step * grad
            quad = v_sq - 2.0 * step * cross + step**2 * grad_sq
            if (
                0.5 * quad - float(_bulk(trial, u_total, form, params))
                <= e_here - 1e-4 * step * gnorm**2
            ):
                path[j] = trial
                dens[j] -= step * grad_dens
                armijo_ok = True
                break
            step *= 0.5
        if not armijo_ok:
            break
        path, dens = _redistribute(path, dens, form.mass)
    v, polish_trace = _newton(v, u_total, op, params, 60)
    start = len(trace)
    trace.extend((start + i, None, r) for i, _, r in polish_trace)
    return v, trace


def _merit(nv2):
    """Deflation factor m = 1 + 1/||v||_w^2 from nv2 = ||v||_w^2; 1 for None."""
    if nv2 is None:
        return 1.0
    return 1.0 + (1.0 / nv2 if nv2 > 0.0 else np.inf)


def _newton(v, u_total, op, params, max_steps, mass=None):
    """Newton iteration on the fixed-point residual R(v) from v.

    Without mass this is the plain polish of a warm start.  With the
    quadrature weights as mass the trivial root is deflated away
    (Farrell, Birkisson & Funke 2015): the merit residual is m(v) R(v)
    with m(v) = 1 + 1/||v||_w^2, the Newton step is the plain step
    rescaled by 1/(1 - grad(m).delta/m), which repels the iteration from
    v = 0, and an iterate that converges onto v = 0 is rejected.  Each
    step backtracks on the merit residual; trace rows are
    (step, None, sup-norm residual).  The iteration stops at a sup-norm
    residual of max(1e-10, 64 eps max|v|): where v is large (p near 1) a
    few ulps of max|v| exceed 1e-10, and no step can go below them.

    The plain step solves J delta = -R(v), J = I - G diag(f'(u, v_+)),
    without forming J: one GMRES cycle from zero (_newton_step), at most
    40 products y - G[f' y], to relative residual 1e-13 in the 2-norm.  J
    is the identity plus a compact operator, so GMRES converges
    superlinearly (Campbell, Ipsen, Kelley & Meyer 1996, BIT 36): on a
    measured `branch` round (both n=800 operators, 222 steps) a step
    takes a median of 11 products and at most 14.  A step whose iterate
    misses 1e-13 is taken as the cycle leaves it, an inexact Newton step
    (Dembo, Eisenstat & Steihaug 1982, SIAM J. Numer. Anal. 19) that the
    backtracking guards; 1e-13 lies below the attainable floor once
    cond(J) nears 1e5, on iterates far from a root.  No step of that
    round, nor of 106 deflated searches on held-out k, misses it by more
    than rounding.  The residual of the accepted line-search trial is
    the next step's residual; it is not evaluated again.

    The iteration also stops as stagnated once its residual has not
    halved over the last 30 steps.  A deflated search that converges
    does so quadratically from its start (on the `branch` operators, in
    at most 8 steps at 106 held-out k); one that crawls, with the
    residual flat for thousands of steps, would spend its whole budget.
    """
    name = "Newton polish" if mass is None else "deflated Newton"
    trace = []
    resid = _gradient_values(v, u_total, op, params)
    for it in range(max_steps):
        rnorm = float(np.max(np.abs(resid)))
        nv2 = None if mass is None else float(mass @ v**2)
        trace.append((it, None, rnorm))
        if rnorm <= max(_FP_TOL, 64.0 * _EPS * float(np.max(np.abs(v)))):
            if nv2 is not None and nv2 <= 1e-16:
                raise SecondSolutionNotFound(
                    "deflated iteration collapsed onto the trivial root", trace
                )
            return v, trace
        if it >= _CRAWL_STEPS and rnorm > 0.5 * trace[it - _CRAWL_STEPS][2]:
            raise SecondSolutionNotFound(
                f"{name} stagnated at residual {rnorm:.3e}", trace
            )
        delta = _newton_step(v, u_total, op, params, resid)
        merit = _merit(nv2)
        if nv2 is not None and nv2 > 0.0:
            grad_m = -2.0 / nv2**2 * (mass * v)
            denom = 1.0 - float(grad_m @ delta) / merit
            if abs(denom) > 1e-12:
                delta = delta / denom
        step = 1.0
        for _ in range(40):
            trial = v + step * delta
            tmerit = _merit(None if mass is None else float(mass @ trial**2))
            tresid = _gradient_values(trial, u_total, op, params)
            if tmerit * float(np.max(np.abs(tresid))) < merit * rnorm:
                v, resid = trial, tresid
                break
            step *= 0.5
        else:
            raise SecondSolutionNotFound(
                f"{name} stagnated at residual {rnorm:.3e}", trace
            )
    raise SecondSolutionNotFound(f"{name} exhausted {max_steps} steps", trace)


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
        "MountainPassAlgorithm" (path deformation + Newton polish) or
        "DeflatedNewton" (deflated root search started from the energy
        maximum on the mountain pass's ray).
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
        value: no second solution exists).
    SecondSolutionNotFound
        If the search budget is exhausted; carries the search trace.
    """
    if method not in ("MountainPassAlgorithm", "DeflatedNewton"):
        raise ParameterError(f"unknown method {method!r}")
    if not isinstance(seed, numbers.Integral) or isinstance(seed, bool) or seed < 0:
        raise ParameterError(f"seed must be a non-negative integer, got {seed!r}")
    if form.factor is not op.cholesky():
        raise ParameterError("the energy form was built on another operator")
    if not np.array_equal(u_min.grid.nodes, op.grid.nodes):
        raise ParameterError("u_min lives on another grid than op")
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
        vals, trace = _run_mountain_pass(u_total, op, form, params, t0)
    else:
        start = _ray_maximum(u_total, form, params, t0) * form.ray
        vals, trace = _newton(start, u_total, op, params, _MAX_STEPS, form.mass)

    scale = float(np.max(np.abs(vals)))
    if scale <= 1e-10:
        raise SecondSolutionNotFound(
            "search converged to the trivial critical point", trace
        )
    if float(np.min(vals)) < -1e-8 * scale:
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
