"""Singularity diagnostics for computed or supplied radial profiles.

A nonnegative profile u solves the distributional problem exactly when

    int_B [ u (-Delta)^alpha xi - u^p xi ] dx = k xi(0)

for every smooth test function xi vanishing near the boundary.  The
module evaluates that pairing against a fixed battery of test bumps,
reports the residual of the identity, extracts the point-mass
coefficient k from it, and independently fits the origin asymptotics
u(r) ~ c_fund k r^(2 alpha - N), classifying the profile as carrying a
Dirac singularity, as removable, or as sitting in the supercritical
regime where no singular solution exists.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import linalg

from .core import (
    _origin_window,
    ConvergenceError,
    KernelError,
    ParameterError,
    RegimeError,
)

_SLOPE_TOL = 0.05
_RATIO_LO = 0.9
_RATIO_HI = 1.1
_SPREAD_TOL = 0.10
_ROUNDTRIP_TOL = 1e-6


@dataclass(frozen=True)
class TestFunction:
    """Smooth radial test bump with its fractional Laplacian.

    values samples xi on the grid, value_at_origin is xi(0) (the grid
    never contains r = 0 itself), laplacian_alpha samples (-Delta)^alpha
    xi, and support records the radial interval outside which xi
    vanishes.
    """

    values: np.ndarray
    value_at_origin: float
    laplacian_alpha: np.ndarray
    support: tuple


def _smoothstep(x):
    """C-infinity ramp: 0 for x <= 0, 1 for x >= 1."""
    x = np.asarray(x, dtype=float)
    lo = np.exp(-1.0 / np.maximum(x, 1e-300)) * (x > 0.0)
    hi = np.exp(-1.0 / np.maximum(1.0 - x, 1e-300)) * (x < 1.0)
    return np.where(x <= 0.0, 0.0, np.where(x >= 1.0, 1.0, lo / (lo + hi)))


def _make_test_function(op, values, value_at_origin, support, factor):
    """Attach (-Delta)^alpha to a profile via the inverse Green matrix.

    xi = G_alpha[g] for smooth xi vanishing near the boundary, so g is
    recovered by one symmetric solve; the round trip xi -> g -> G[g] is
    then verified against the original samples.
    """
    sqrt_w = np.sqrt(op.grid.weights)
    # The kept factor is finite (linalg.cholesky checked its input), and so
    # are the samples: no scan of either.
    lap = linalg.cho_solve(factor, sqrt_w * values, check_finite=False) / sqrt_w
    back = op.apply(lap)
    scale = float(np.max(np.abs(values)))
    err = float(np.max(np.abs(back - values)))
    if err > _ROUNDTRIP_TOL * scale:
        raise KernelError(
            f"test function round trip failed: relative error {err / scale:.3e}"
        )
    return TestFunction(
        values=values,
        value_at_origin=float(value_at_origin),
        laplacian_alpha=lap,
        support=tuple(support),
    )


def standard_battery(op):
    """Four-bump test battery on the operator's grid.

    Three plateau bumps reaching the origin with outer supports 0.2,
    0.35, and 0.5 (three distinct origin weights make the point-mass
    fit overdetermined), plus one annular bump supported in [0.3, 0.8]
    that must pair to zero against any solution (locality).

    Returns
    -------
    tuple of TestFunction

    Raises
    ------
    ConvergenceError
        If the symmetrized Green matrix is not positive definite.
    """
    r = op.grid.nodes
    factor = (op.cholesky(), False)
    battery = []
    for outer in (0.2, 0.35, 0.5):
        inner = 0.5 * outer
        vals = _smoothstep((outer - r) / (outer - inner))
        battery.append(_make_test_function(op, vals, 1.0, (0.0, outer), factor))
    lo, hi = 0.3, 0.8
    ramp = 0.25 * (hi - lo)
    vals = _smoothstep((r - lo) / ramp) * _smoothstep((hi - r) / ramp)
    battery.append(_make_test_function(op, vals, 0.0, (lo, hi), factor))
    return tuple(battery)


def pairing(u, xi, params, op):
    """Distributional pairing L(xi) = int u (-Delta)^alpha xi - int u^p xi.

    For an exact solution L(xi) = k xi(0); for profiles with no point
    mass L(xi) = 0 when xi vanishes near the origin.

    Parameters
    ----------
    u : RadialFunction
        Nonnegative profile; u^p must be grid-integrable.
    xi : TestFunction
    params : ProblemParams
    op : GreenOperator

    Returns
    -------
    float

    Raises
    ------
    RegimeError
        If u carries a point singularity and p is supercritical, where
        u^p is not integrable and the pairing is meaningless.
    ParameterError
        If u is negative somewhere, or its pairing is not finite.
    """
    if u.singular_coeff > 0.0 and not params.subcritical:
        raise RegimeError(
            "u^p is not integrable: singular profile in the supercritical regime"
        )
    total = u.total
    scale = float(np.max(np.abs(total)))
    if not u.is_nonnegative(slack=1e-12 * (1.0 + scale)):
        raise ParameterError("pairing requires a nonnegative profile")
    w = op.grid.weights
    tot_pos = np.maximum(total, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        value = float(
            w @ (total * xi.laplacian_alpha) - w @ (tot_pos**params.p * xi.values)
        )
    if not np.isfinite(value):
        raise ParameterError(f"the profile's pairing is {value}, not a finite number")
    return value


def estimate_k(u, params, op, battery=None):
    """Point-mass coefficient extracted from the test-function pairing.

    Each origin bump gives an estimate e_j = L(xi_j) / xi_j(0); the
    quadrature drift of e_j is proportional to the bump volume
    V_j = int xi_j / xi_j(0), so k is read off as the intercept of the
    affine fit e_j = k + c V_j over the origin bumps.  Profiles that
    are not solutions leave a large fit residual, which is reported as
    an error instead of a number.

    Parameters
    ----------
    u : RadialFunction
    params : ProblemParams
    op : GreenOperator
    battery : tuple of TestFunction, optional
        Defaults to standard_battery(op); at least three bumps with
        xi(0) != 0 are required.

    Returns
    -------
    float

    Raises
    ------
    ConvergenceError
        If the relative spread of the estimates around the fit exceeds
        10% or is not a number (the profile does not satisfy the
        identity on this grid).
    """
    if battery is None:
        battery = standard_battery(op)
    origin = [xi for xi in battery if xi.value_at_origin != 0.0]
    if len(origin) < 3:
        raise ParameterError("estimate_k needs at least 3 origin test functions")
    w = op.grid.weights
    ests = np.array(
        [pairing(u, xi, params, op) / xi.value_at_origin for xi in origin]
    )
    vols = np.array([float(w @ xi.values) / xi.value_at_origin for xi in origin])
    design = np.column_stack([np.ones(len(origin)), vols])
    coef, *_ = np.linalg.lstsq(design, ests, rcond=None)
    resid = ests - design @ coef
    scale = max(abs(coef[0]), float(np.max(np.abs(ests))), 1e-300)
    spread = float(np.max(np.abs(resid))) / scale
    if not spread <= _SPREAD_TOL:  # a NaN spread is rejected too
        raise ConvergenceError(
            f"pairing estimates spread {spread:.1%} across the battery; "
            f"the profile does not satisfy the identity on this grid"
        )
    return float(coef[0])


@dataclass(frozen=True)
class WeakIdentityReport:
    """Residuals of the distributional identity against a test battery.

    Each row is (support, pairing_value, k_times_xi0, residual); the
    pairing of a true solution equals k xi(0) for every test function.
    """

    max_residual: float
    rows: tuple


def verify_weak_identity(w, params, op, battery=None):
    """Check int u (-Delta)^alpha xi - int u^p xi = k xi(0) on a battery.

    w is the candidate solution, params supplies p and k, and battery
    defaults to standard_battery(op).  Raises as pairing does.
    """
    if battery is None:
        battery = standard_battery(op)
    rows = []
    for xi in battery:
        val = pairing(w, xi, params, op)
        target = params.k * xi.value_at_origin
        rows.append((xi.support, val, target, val - target))
    worst = max((abs(row[3]) for row in rows), default=0.0)
    return WeakIdentityReport(max_residual=worst, rows=tuple(rows))


@dataclass(frozen=True)
class ClassificationReport:
    """Origin diagnosis of a radial profile.

    k_estimate is the point mass used for calibration, exponent_fit the
    log-log slope of the profile near the origin, limit_ratio the
    extrapolated value of u(r) r^(N-2 alpha) / (c_fund k), and verdict
    one of DiracSingularity, Removable, Supercritical.
    """

    k_estimate: float
    exponent_fit: float
    limit_ratio: float
    verdict: str


def asymptotic_fit(u, params, k_reference=None):
    """Fit the origin asymptotics of a profile and classify it.

    The log-log slope over the innermost resolved decade is compared
    with the fundamental-solution exponent 2 alpha - N, and the scaled
    profile u(r) r^(N-2 alpha) / (c_fund k) is extrapolated to r -> 0
    by removing the leading subordinate correction r^q with
    q = min(N - 2 alpha, 2 alpha + (p-1)(2 alpha - N)).

    Parameters
    ----------
    u : RadialFunction
    params : ProblemParams
    k_reference : float, optional
        Point mass used to calibrate limit_ratio.  Defaults to the
        mass implied by the profile's own singular bookkeeping, then
        to params.k.

    Returns
    -------
    ClassificationReport

    Raises
    ------
    ConvergenceError
        If the profile matches neither the singular nor the bounded
        template in the subcritical regime.
    """
    grid = u.grid
    idx = _origin_window(grid)
    rr = grid.nodes[idx]
    tot = u.total[idx]

    if k_reference is not None:
        k_ref = float(k_reference)
    elif u.singular_coeff > 0.0:
        k_ref = u.singular_coeff / params.c_fund
    else:
        k_ref = params.k

    if np.all(tot > 0.0):
        slope = float(np.polyfit(np.log(rr), np.log(tot), 1)[0])
    else:
        # Profiles touching zero near the origin are certainly bounded.
        slope = 0.0

    limit_ratio = 0.0
    if k_ref > 0.0:
        q = min(
            params.dim - 2.0 * params.alpha,
            2.0 * params.alpha + (params.p - 1.0) * (2.0 * params.alpha - params.dim),
        )
        scaled = tot * rr ** (params.dim - 2.0 * params.alpha)
        scaled /= params.c_fund * k_ref
        design = np.column_stack([np.ones(rr.size), rr**q])
        coef, *_ = np.linalg.lstsq(design, scaled, rcond=None)
        limit_ratio = float(coef[0])

    if not params.subcritical:
        verdict = "Supercritical"
    elif (
        abs(slope - params.singular_exponent) <= _SLOPE_TOL
        and _RATIO_LO <= limit_ratio <= _RATIO_HI
    ):
        verdict = "DiracSingularity"
    elif u.singular_coeff == 0.0 and slope >= -_SLOPE_TOL:
        verdict = "Removable"
    else:
        raise ConvergenceError(
            f"profile matches neither template: slope {slope:.4f} "
            f"(singular exponent {params.singular_exponent:.4f}), "
            f"limit ratio {limit_ratio:.4f}"
        )
    return ClassificationReport(
        k_estimate=k_ref,
        exponent_fit=slope,
        limit_ratio=limit_ratio,
        verdict=verdict,
    )
