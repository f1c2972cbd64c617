"""Green kernel of (-Delta)^alpha on the unit ball and its discretization.

The ball is the one domain where the kernel is explicit:

    G(x,y) = kappa * |x-y|^(2*alpha-N) * int_0^{t0} t^(alpha-1) (1+t)^(-N/2) dt,
    t0 = (1-|x|^2)(1-|y|^2) / |x-y|^2,

which in regularized incomplete-beta form becomes

    G(x,y) = c_fund * |x-y|^(2*alpha-N) * I_z(alpha, N/2-alpha),
    z = A / (A + |x-y|^2),   A = (1-|x|^2)(1-|y|^2),

because kappa * B(alpha, N/2-alpha) equals the fundamental-solution
constant c_fund.  Both shape parameters are fixed for a given (N, alpha),
so I_z is evaluated from two polynomial tables built once per (N, alpha)
and kept for the process, from the hypergeometric form of the
incomplete beta (DLMF 8.17(v)): I_z = z^a P(z) for z <= 1/2, and
I_z = -expm1(b ln w + L(w)) with w = 1 - z above, where P and L are
smooth on [0, 1/2] and a = alpha, b = N/2 - alpha.  This module evaluates
the kernel pointwise, reduces it over spheres to a radial kernel, and
assembles a dense Nystrom matrix for the solution operator

    G_alpha[f](r) = int_0^1 K(r,s) f(s) s^(N-1) ds,

with product-integration corrections on the cells around the diagonal
where the sphere-reduced kernel has an |r-s|^(2*alpha-1) cusp (a
logarithm at alpha = 1/2, a blow-up below it).

The operator keeps the sphere-averaged kernel Kbar(r_i, r_j) itself,
exactly symmetric bit for bit, and applies the weights to the density:
G[f] = Kbar (w f).  A product then goes through the Level-2 BLAS
symmetric kernel dsymv, which reads one triangle of the matrix
(Dongarra, Du Croz, Hammarling & Hanson 1988, ACM TOMS 14).

Every dense product of the toolkit with an n x n or m x n operand goes
through scipy's BLAS (scipy.linalg.blas, or scipy's LAPACK solvers) or
numpy's einsum, never through numpy's `@`: the numpy and scipy wheels
each load their own OpenBLAS, and each library runs its own thread
pool.  Alternating threaded calls between the two pools makes the idle
threads of one spin against the working threads of the other; at
n = 800 on two cores a scipy dsymv followed by a numpy gemv takes about
8 ms, two calls on either library alone about 0.2 ms.  numpy keeps
elementwise work and vector-vector products, which OpenBLAS runs on the
calling thread at these sizes.  tests/test_source.py guards the rule.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from scipy import linalg
from scipy.linalg import blas
from scipy.special import beta, betainc

from .core import (
    ConvergenceError,
    KernelError,
    Keeps,
    ParameterError,
    RadialGrid,
    RegimeError,
    fundamental_constant,
    make_grid,
    surface_area,
    write_atomic,
)

# Version 3: the payload holds the symmetric kernel matrix Kbar, where
# version 2 held Kbar times the weights, so older caches are rebuilt.
FORMAT_VERSION = 3

# Angular quadrature controls: the near-field integral is computed in a
# sinh-transformed variable where the integrand has O(1) scale, on
# equal-length panels with a fixed Gauss rule per panel.
_PANEL_LENGTH = 1.8
_MAX_PANELS = 16
_NEAR_X, _NEAR_W = np.polynomial.legendre.leggauss(12)
_FAR_X, _FAR_W = np.polynomial.legendre.leggauss(16)

# Product-integration controls for near-diagonal cells: per side of the
# singular point, a graded map s = anchor +/- L*t^gamma integrated by a
# two-panel Gauss rule in t.
_SUB_SPLIT = 0.15
_SUB_X, _SUB_W = np.polynomial.legendre.leggauss(10)
_N_CORR_CELLS = 3

# Kernel evaluations in `assemble` run on blocks of this many node pairs
# (or near-diagonal samples), which bounds each worker's temporaries and
# gives the thread pool independent tasks.  Keep it a multiple of 64: the
# far-field contraction in `_sphere_integral` is a BLAS matrix-vector
# product whose kernel rounds rows in vector-width groups differently
# from a remainder, so each entry matches the one-flat-batch evaluation
# only when blocks start at such a multiple.
_BLOCK_SIZE = 4096


def _sub_rule():
    """Composite Gauss nodes/weights on t in (0,1), refined near 0."""
    panels = [(0.0, _SUB_SPLIT), (_SUB_SPLIT, 1.0)]
    ts, ws = [], []
    for a, b in panels:
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        ts.append(mid + half * _SUB_X)
        ws.append(half * _SUB_W)
    return np.concatenate(ts), np.concatenate(ws)


_SUB_T, _SUB_TW = _sub_rule()

# Incomplete-beta tables: I_z(a, b) = z^a P(z) up to _BETA_SPLIT and
# 1 - w^b exp(L(w)), w = 1 - z, above it.  P and L are analytic except at
# z = 1 and w = 1, so a degree-d interpolant on [0, 1/2] converges like
# rho^-d with rho = 3 + sqrt(8), the Bernstein ellipse through that
# singularity.  The split stays at 1/2: it gives both pieces that rate
# on the same interval, and 1 - z is exact there (Sterbenz), so the
# upper piece sees the argument as rounded.  Degree 18 is the lowest that
# holds 1e-14 relative error for N = 2..12 and alpha in [0.01, 0.999]
# (16 gives 1.2e-14 at N = 2, alpha = 0.99); 22 buys a factor rho^4 of
# margin on the truncation term, and the error sits at its 2e-15
# rounding floor.
_BETA_SPLIT = 0.5
_BETA_DEGREE = 22
# Chebyshev points of the first kind in x = 4t - 1, t the piece's variable.
_BETA_X = np.cos(math.pi * (np.arange(_BETA_DEGREE + 1) + 0.5) / (_BETA_DEGREE + 1))
_BETA_VANDER = np.vander(_BETA_X, increasing=True)
# The evaluator works through its input in chunks of this many values:
# its temporaries (three arrays per piece, 768 kB) then fit beside the
# kernel's own per-block arrays, and with one worker the allocation peak
# of `assemble` equals that of per-value betainc on the benchmark cases.
# Chunks of 16384 cost about 15% more time at n=1600 with two workers, as
# the many small NumPy calls contend for the GIL.
_BETA_CHUNK = 32768


def _hyp2f1_minus_one(p, q, r, t):
    """2F1(p, q; r; t) - 1 for p, q, r > 0 and 0 <= t <= 1/2, elementwise.

    Every term of the power series is positive, so the sum has no
    cancellation; terms are added until the last is below 2^-60 of the sum.
    """
    n_terms = 64
    while True:
        k = np.arange(n_terms, dtype=float)
        ratio = (p + k) * (q + k) / ((r + k) * (k + 1.0))
        terms = np.cumprod(t[:, None] * ratio[None, :], axis=1)
        total = terms.sum(axis=1)
        if np.all(terms[:, -1] <= 2.0**-60 * total):
            return total
        n_terms *= 2


def _horner(coef, x):
    """Polynomial sum_k coef[k] x^k, elementwise, in place on one buffer."""
    acc = coef[-1] * x
    acc += coef[-2]
    for c in coef[-3::-1]:
        acc *= x
        acc += c
    return acc


def _incomplete_beta(a, b):
    """Elementwise evaluator z -> I_z(a, b) for fixed 0 < a < 1 and b > 0.

    Lower piece, z <= 1/2: I_z = z^a P(z) with
    P(z) = (1-z)^b 2F1(a+b, 1; a+1; z) / (a B(a,b)).  Upper piece: with
    w = 1 - z, 1 - I_z = I_w(b, a) = exp(s), s = b ln w + L(w) and
    L(w) = ln 2F1(b, 1-a; b+1; w) - ln(b B(a,b)), so I_z = -expm1(s).
    Both terms of s are negative, so s keeps its relative accuracy, and so
    does I_z where it is small (N = 2 with alpha near 1), where
    1 - I_w(b, a) would cancel.  ln(b B) is taken from the lower piece's
    value at z = 1/2, which keeps it accurate to the size of s.  P and L
    are tabulated as interpolating polynomials in x = 4t - 1 at Chebyshev
    points, sampled from positive-term series.
    """
    nodes = np.append((_BETA_X + 1.0) * (0.5 * _BETA_SPLIT), _BETA_SPLIT)
    p_vals = (1.0 + _hyp2f1_minus_one(a + b, 1.0, a + 1.0, nodes)) / (a * beta(a, b))
    p_vals *= np.exp(b * np.log1p(-nodes))
    l_vals = np.log1p(_hyp2f1_minus_one(b, 1.0 - a, b + 1.0, nodes))
    # I_{1/2}(b, a) = 1 - I_{1/2}(a, b) fixes ln(b B(a, b)).
    ln_bb = l_vals[-1] + b * math.log(_BETA_SPLIT) - math.log1p(
        -p_vals[-1] * _BETA_SPLIT**a
    )
    coef = np.linalg.solve(
        _BETA_VANDER, np.column_stack([p_vals[:-1], l_vals[:-1] - ln_bb])
    )
    p_coef, l_coef = coef[:, 0].tolist(), coef[:, 1].tolist()
    scale = 2.0 / _BETA_SPLIT

    def lower(t):
        """z^a P(z) on a gathered copy t of z, overwritten."""
        x = t * scale
        x -= 1.0
        poly = _horner(p_coef, x)
        t **= a
        t *= poly
        return t

    def upper(w):
        """-expm1(b ln w + L(w)) on a fresh array w = 1 - z, overwritten."""
        x = w * scale
        x -= 1.0
        poly = _horner(l_coef, x)
        with np.errstate(divide="ignore"):  # w = 0 gives s = -inf, I = 1
            np.log(w, out=w)
        w *= b
        w += poly
        np.expm1(w, out=w)
        return np.negative(w, out=w)

    def evaluate(z):
        z = np.asarray(z, dtype=float)
        out = np.empty(z.shape)
        flat_z, flat_out = z.reshape(-1), out.reshape(-1)
        for start in range(0, flat_z.size, _BETA_CHUNK):
            chunk = slice(start, start + _BETA_CHUNK)
            zc, oc = flat_z[chunk], flat_out[chunk]
            low = zc <= _BETA_SPLIT
            oc[low] = lower(zc[low])
            high = ~low
            oc[high] = upper(1.0 - zc[high])
        return out

    return evaluate


class _Kernel(NamedTuple):
    """Green kernel data of one (N, alpha): c_fund and z -> I_z(alpha, N/2-alpha)."""

    dim: int
    alpha: float
    c_fund: float
    ibeta: Callable


@functools.lru_cache(maxsize=None)
def _kernel(dim, alpha):
    """Kernel data, incomplete-beta tables included, for (N, alpha);
    memoised, as a build costs 80-130 us and the tables hold 46 numbers."""
    return _Kernel(
        dim,
        alpha,
        fundamental_constant(dim, alpha),
        _incomplete_beta(alpha, dim / 2.0 - alpha),
    )


def _green_from_geometry(rho2, a2, kernel):
    """Kernel value from squared distance rho2 and boundary product a2.

    a2 = (1-|x|^2)(1-|y|^2); vectorized over arrays.
    """
    z = a2 / (a2 + rho2)
    return (
        kernel.c_fund * rho2 ** (kernel.alpha - kernel.dim / 2.0) * kernel.ibeta(z)
    )


def point_kernel(x, y, params):
    """Green function G(x,y) of the unit ball evaluated at two points.

    Parameters
    ----------
    x, y : array_like
        Points in the open unit ball of R^params.dim, x != y.
    params : ProblemParams
        Supplies dim and alpha.

    Returns
    -------
    float
        G(x,y) > 0; symmetric in (x,y); vanishes as |y| -> 1.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != (params.dim,) or y.shape != (params.dim,):
        raise ParameterError(
            f"points must be vectors of length {params.dim}, got {x.shape}, {y.shape}"
        )
    nx2 = float(x @ x)
    ny2 = float(y @ y)
    if nx2 >= 1.0 or ny2 >= 1.0:
        raise ParameterError("points must lie in the open unit ball")
    diff = x - y
    rho2 = float(diff @ diff)
    if rho2 == 0.0:
        raise ParameterError("kernel is singular at coincident points")
    a2 = (1.0 - nx2) * (1.0 - ny2)
    return float(_green_from_geometry(rho2, a2, _kernel(params.dim, params.alpha)))


def _near_panel_rule(n_panels):
    """Unit nodes/weights for n equal panels of the 12-point rule on (0,1)."""
    offsets = np.arange(n_panels)[:, None]
    u = (offsets + 0.5 * (_NEAR_X + 1.0)[None, :]) / n_panels
    w = np.broadcast_to(0.5 * _NEAR_W / n_panels, u.shape)
    return u.ravel(), w.ravel()


def _sphere_integral(r, s, kernel):
    """Integral of G(r e1, s omega) over the unit sphere in omega.

    Vectorized over flat arrays with r != s elementwise.  Splits the polar
    angle at pi/2: on [0, pi/2] the chord variable m = 2 sqrt(rs) sin(t/2)
    is driven through m = d sinh(v) (d = |r-s|), which spreads the
    near-singular peak over an O(1) range of v; on [pi/2, pi] the
    integrand is smooth and a single Gauss rule suffices.
    """
    dim = kernel.dim
    r = np.asarray(r, dtype=float)
    s = np.asarray(s, dtype=float)
    d = np.abs(r - s)
    rs = r * s
    a2 = (1.0 - r * r) * (1.0 - s * s)
    sqrt_rs = np.sqrt(rs)
    m_top = np.sqrt(2.0 * rs)

    out = np.empty_like(d)
    v_top = np.arcsinh(m_top / d)
    n_panels = np.clip(
        np.ceil(v_top / _PANEL_LENGTH).astype(int), 1, _MAX_PANELS
    )
    for npan in np.unique(n_panels):
        idx = np.nonzero(n_panels == npan)[0]
        u, uw = _near_panel_rule(int(npan))
        v = v_top[idx, None] * u[None, :]
        dv_w = v_top[idx, None] * uw[None, :]
        dloc = d[idx, None]
        m = dloc * np.sinh(v)
        ch = dloc * np.cosh(v)
        rho2 = ch * ch
        xhalf = m / (2.0 * sqrt_rs[idx, None])
        theta = 2.0 * np.arcsin(xhalf)
        g = _green_from_geometry(rho2, a2[idx, None], kernel)
        jac = ch / (sqrt_rs[idx, None] * np.sqrt(1.0 - xhalf * xhalf))
        vals = g * jac
        if dim > 2:
            vals = vals * np.sin(theta) ** (dim - 2)
        out[idx] = (vals * dv_w).sum(axis=1)

    theta_far = 0.5 * math.pi + 0.25 * math.pi * (_FAR_X + 1.0)
    w_far = 0.25 * math.pi * _FAR_W
    sin_half = np.sin(0.5 * theta_far)
    rho2_far = d[:, None] ** 2 + 4.0 * rs[:, None] * sin_half[None, :] ** 2
    g_far = _green_from_geometry(rho2_far, a2[:, None], kernel)
    if dim > 2:
        g_far = g_far * np.sin(theta_far)[None, :] ** (dim - 2)
    out += g_far @ w_far

    return surface_area(dim - 1) * out


def radial_kernel(r, s, params):
    """Sphere-reduced kernel K(r,s) = int_{|w|=1} G(r e1, s w) dsigma(w).

    For radial densities f the operator acts as
    G_alpha[f](r) = int_0^1 K(r,s) f(s) s^(N-1) ds.  K is symmetric and
    nonnegative and vanishes as s -> 1.  On the diagonal r = s it is
    finite only for alpha > 1/2, and never needed there: assembly
    integrates the cells around the diagonal by product integration, so
    coincident radii raise KernelError at every alpha.
    """
    r_arr = np.atleast_1d(np.asarray(r, dtype=float))
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    if r_arr.shape != s_arr.shape:
        raise ParameterError("r and s must have matching shapes")
    if np.any(r_arr <= 0.0) or np.any(r_arr >= 1.0) or np.any(s_arr <= 0.0) or np.any(
        s_arr >= 1.0
    ):
        raise ParameterError("radii must lie strictly inside (0,1)")
    if np.any(r_arr == s_arr):
        raise KernelError("sphere-reduced kernel is not evaluated at coincident radii")
    out = _sphere_integral(r_arr, s_arr, _kernel(params.dim, params.alpha))
    return float(out[0]) if np.isscalar(r) or np.asarray(r).ndim == 0 else out


def dirac_profile(grid, params):
    """Exact column G(r e1, 0): the operator applied to the unit Dirac mass.

    Closed form c_fund * r^(2*alpha-N) * I_{1-r^2}(alpha, N/2-alpha),
    evaluated through the complementary identity 1 - I_{r^2}(N/2-alpha,
    alpha) for small r, where the direct incomplete beta at argument
    1 - r^2 loses relative accuracy.

    Origin approach: the ratio to c_fund * r^(2*alpha-N) is
    1 - I_{r^2}(N/2-alpha, alpha), which approaches 1 from below with
    deficit lead * r^(N-2*alpha) * (1 + O(r^2)), where
    lead = Gamma(N/2) / ((N/2-alpha) Gamma(alpha) Gamma(N/2-alpha)).
    """
    c_fund = fundamental_constant(params.dim, params.alpha)
    alpha = params.alpha
    b = params.dim / 2.0 - alpha
    r = grid.nodes
    rr = r * r
    beta_factor = np.where(
        rr <= 0.5,
        1.0 - betainc(b, alpha, rr),
        betainc(alpha, b, 1.0 - rr),
    )
    return c_fund * r**params.singular_exponent * beta_factor


def dirac_smooth_remainder(grid, params):
    """Bounded remainder G(r e1, 0) - c_fund * r^(2*alpha-N).

    Computed through the complementary incomplete-beta identity as
    -c_fund * r^(2*alpha-N) * I_{r^2}(N/2-alpha, alpha), which avoids the
    catastrophic cancellation of subtracting two blow-ups near r = 0.
    """
    c_fund = fundamental_constant(params.dim, params.alpha)
    r = grid.nodes
    return (
        -c_fund
        * r**params.singular_exponent
        * betainc(params.dim / 2.0 - params.alpha, params.alpha, r * r)
    )


def symv(matrix, x):
    """matrix @ x for an exactly symmetric C-ordered matrix, by BLAS dsymv.

    matrix.T holds the same values in the Fortran order BLAS reads, so no
    copy is made, and dsymv reads its upper triangle only.  OpenBLAS sums
    per-thread partial results, so the last bits depend on the BLAS
    thread count (not on the run).
    """
    return blas.dsymv(1.0, matrix.T, x)


@dataclass(frozen=True)
class GreenOperator(Keeps):
    """Dense Nystrom discretization of the ball Green operator.

    matrix[i, j] is the sphere-averaged kernel Kbar(r_i, r_j), exactly
    symmetric, entrywise nonnegative (assemble clips it at zero, and
    load_operator rejects a negative entry) and read-only; with w the
    grid weights for the volume measure, (matrix * w) @ f(nodes)
    approximates G_alpha[f] at the nodes, and apply forms it as one
    symmetric product, matrix @ (w * f).
    dirac_column holds the exact profile G(r_i e1, 0).  Every product
    with matrix goes through scipy's BLAS (see the module docstring).
    """

    dim: int
    alpha: float
    matrix: np.ndarray
    grid: RadialGrid
    dirac_column: np.ndarray

    @property
    def n(self):
        return self.grid.n

    def apply(self, values):
        """Nodewise G_alpha[f] for a nodewise-sampled density f."""
        return symv(self.matrix, self.grid.weights * values)

    def check_params(self, params):
        """Raise ParameterError unless params has this operator's dim and alpha."""
        if (params.dim, params.alpha) != (self.dim, self.alpha):
            raise ParameterError(
                f"params (dim {params.dim}, alpha {params.alpha}) do not match "
                f"the operator (dim {self.dim}, alpha {self.alpha})"
            )

    def symmetrized(self):
        """D^(1/2) Kbar D^(1/2), D = diag(weights), as a new array.

        Symmetric positive matrix with the spectrum of the operator
        Kbar D; the natural object for dense eigensolves and Cholesky
        solves.  Each entry is Kbar[i, j] (sqrt(w_i) sqrt(w_j)), so it is
        exactly symmetric whenever matrix is.
        """
        sw = np.sqrt(self.grid.weights)
        out = np.outer(sw, sw)
        out *= self.matrix
        return out

    def cholesky(self):
        """Cholesky factor S = U' U of the symmetrized matrix S, kept.

        S is exactly symmetric, so S.T holds the same values in the
        Fortran order LAPACK works in and is factored in place.  Returns
        U, the upper factor, Fortran-ordered, zero below the diagonal and
        read-only, so it serves cho_solve (as (U, False)), dpocon and
        BLAS triangular products alike.  The first call keeps U on the
        instance and every later call returns it: each factored operator
        holds one more n x n array (5 MB at n = 800), and build_form,
        standard_battery and every sigma1_rayleigh call skip the
        factorisation.  The first call allocates one n x n array, S,
        which becomes the factor; later calls allocate nothing.  Raises
        ConvergenceError, on every call, if S is not positive definite.
        """
        return self._memo("cholesky", self._factor)

    def _factor(self):
        try:
            factor, _ = linalg.cho_factor(self.symmetrized().T, overwrite_a=True)
        except linalg.LinAlgError as exc:
            raise ConvergenceError(
                "symmetrized Green matrix is not positive definite"
            ) from exc
        for j in range(self.n - 1):
            factor[j + 1 :, j] = 0.0
        factor.setflags(write=False)
        return factor


def _lagrange_rows(pts, cell_nodes):
    """Lagrange basis at each point of the 4 nodes of its cell: (len(pts), 4).

    cell_nodes[k] holds the 4 nodes of the cell that pts[k] lies in.
    """
    out = np.empty((pts.size, 4))
    for j in range(4):
        num = np.ones_like(pts)
        den = np.ones_like(pts)
        for l in range(4):
            if l == j:
                continue
            num *= pts - cell_nodes[:, l]
            den *= cell_nodes[:, j] - cell_nodes[:, l]
        out[:, j] = num / den
    return out


def _graded_piece(anchor, far, gamma):
    """Sample points/weights on [anchor, far] clustered toward anchor."""
    span = far - anchor
    t = _SUB_T
    pts = anchor + span * t**gamma
    wts = abs(span) * gamma * t ** (gamma - 1.0) * _SUB_TW
    return pts, wts


def _cusp_piece(r_i, near, far, gamma, d0):
    """Samples on [near, far] (one side of r_i) resolving the cusp at r_i.

    Distances from r_i are driven through delta = d0*sinh(v) with v graded
    toward its lower end: the power grading absorbs the |s-r_i|^(2*alpha-1)
    endpoint cusp while the sinh stretch resolves the kernel's transition
    at distance d0 (the cusp point's distance to the outer boundary) on
    every scale.  For d0 much larger than the interval this degenerates to
    the plain graded rule.
    """
    sign = 1.0 if far > r_i else -1.0
    v_lo = math.asinh(abs(near - r_i) / d0)
    v_hi = math.asinh(abs(far - r_i) / d0)
    t = _SUB_T
    v = v_lo + (v_hi - v_lo) * t**gamma
    # Keep samples a few ulp away from the cusp node so the kernel is
    # evaluated at r != s even when the graded map underflows.
    delta = np.maximum(d0 * np.sinh(v), 4.0 * np.spacing(abs(r_i)))
    pts = r_i + sign * delta
    wts = d0 * np.cosh(v) * (v_hi - v_lo) * gamma * t ** (gamma - 1.0) * _SUB_TW
    return pts, wts


def _correction_samples(r_i, a, b, gamma, boundary_gamma=None):
    """Graded sample points/weights on cell [a,b] for a kernel cusp at r_i.

    Returns (points, weights) realizing int_a^b h(s) ds with samples
    clustered toward the cusp: both subintervals around r_i when the cusp
    lies inside the cell, otherwise toward the cell edge nearest to it.
    When boundary_gamma is given the cell touches s=1, where the kernel
    has a (1-s)^alpha cusp of its own; the outer 30% of the affected side
    is then graded toward 1 instead.
    """
    d0 = 1.0 - r_i
    pts, wts = [], []
    if a < r_i < b:
        sides = [(r_i, a), (r_i, b)]
    elif r_i >= b:
        sides = [(b, a)]
    else:
        sides = [(a, b)]
    for near, far in sides:
        pieces = []
        if boundary_gamma is not None and far == b and b == 1.0:
            split = near + 0.7 * (1.0 - near)
            pieces.append(_cusp_piece(r_i, near, split, gamma, d0))
            pieces.append(_graded_piece(1.0, split, boundary_gamma))
        else:
            pieces.append(_cusp_piece(r_i, near, far, gamma, d0))
        for piece in pieces:
            pts.append(piece[0])
            wts.append(piece[1])
    return np.concatenate(pts), np.concatenate(wts)


def _worker_count():
    """Usable cores, capped by OMP_NUM_THREADS (which --threads sets)."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity masks
        cores = os.cpu_count() or 1
    cap = os.environ.get("OMP_NUM_THREADS", "")
    if cap.isdigit() and int(cap) > 0:
        cores = min(cores, int(cap))
    return cores


def _submit_blocks(pool, total, task):
    """Submit task(start, stop) for each _BLOCK_SIZE slice of range(total)."""
    return [
        pool.submit(task, start, min(start + _BLOCK_SIZE, total))
        for start in range(0, total, _BLOCK_SIZE)
    ]


def _first_failure(futures):
    """First non-None block result in submission order, else None.

    Blocks cover increasing index ranges, so this is the failure with the
    lowest index whichever block finished first.
    """
    for fut in futures:
        failure = fut.result()
        if failure is not None:
            return failure
    return None


def assemble(grid, params):
    """Assemble the dense Nystrom matrix of the Green operator.

    Off-diagonal entries come from the sphere-reduced kernel at node
    pairs.  Rows are then corrected on the diagonal cell and its
    neighbors by product integration: the density is replaced by its
    cubic interpolant on the cell's own nodes and the kernel mass is
    integrated by a quadrature graded into the |r-s|^(2*alpha-1) cusp,
    and stored divided by the column weights.  The kernel matrix is then
    exactly symmetrized, entries are clipped at zero (the clipped mass is
    checked to be negligible), and evaluation failures are reported with
    the offending node pair.  The operator keeps this symmetric matrix;
    the weights are applied to the density (GreenOperator.apply).

    Kernel evaluations run in fixed-size blocks on a thread pool with one
    worker per usable core, capped by OMP_NUM_THREADS.  Every entry is
    computed by the same operations whatever the block size or worker
    count, so the matrix is identical bit for bit, and memory beyond the
    n x n matrix is a fixed per-worker block.
    """
    dim, alpha = params.dim, params.alpha
    if grid.dim != dim:
        raise ParameterError(
            f"grid dimension {grid.dim} does not match params.dim {dim}"
        )
    # The tables are built here, if at all, before any block is submitted.
    kernel = _kernel(dim, alpha)
    surf = surface_area(dim)
    nodes = grid.nodes
    w = grid.weights
    n = grid.n
    kbar = np.zeros((n, n))

    # Node pairs i < j in row-major order; row i starts at flat index
    # row_start[i].  Each block writes its pairs and their mirrors.
    first_rows = np.arange(n - 1)
    row_start = first_rows * (n - 1) - first_rows * (first_rows - 1) // 2

    def kernel_block(start, stop):
        k = np.arange(start, stop)
        i = np.searchsorted(row_start, k, side="right") - 1
        j = k - row_start[i] + i + 1
        vals = _sphere_integral(nodes[i], nodes[j], kernel)
        bad = np.flatnonzero(~np.isfinite(vals))
        if bad.size:
            return int(i[bad[0]]), int(j[bad[0]])
        vals /= surf
        kbar[i, j] = vals
        kbar[j, i] = vals
        return None

    # Product-integration correction: replace the columns of the cells
    # around each row's diagonal cell.  The samples of all (row, cell)
    # pairs are laid end to end and evaluated in blocks like the pairs.
    q = grid.nodes_per_cell
    edges = grid.cell_edges
    n_cells = grid.n_cells
    gamma = max(3.0, 3.0 / (2.0 * alpha))
    boundary_gamma = max(2.0, 3.0 / (1.0 + alpha))

    def correction_block(start, stop):
        vals = _sphere_integral(flat_r[start:stop], flat_pts[start:stop], kernel) / surf
        bad = np.flatnonzero(~np.isfinite(vals))
        if bad.size:
            return start + int(bad[0])
        flat_vals[start:stop] = vals
        return None

    pool = ThreadPoolExecutor(
        max_workers=_worker_count(), thread_name_prefix="fracsing-assemble"
    )
    try:
        kernel_jobs = _submit_blocks(pool, n * (n - 1) // 2, kernel_block)
        # The sampling below is serial Python; it overlaps the kernel blocks.
        rows, cells, pts_list, wts_list = [], [], [], []
        for i in range(n):
            ci = i // q
            for c in range(
                max(0, ci - _N_CORR_CELLS), min(n_cells, ci + _N_CORR_CELLS + 1)
            ):
                pts, wts = _correction_samples(
                    nodes[i],
                    float(edges[c]),
                    float(edges[c + 1]),
                    gamma,
                    boundary_gamma if c == n_cells - 1 else None,
                )
                rows.append(i)
                cells.append(c)
                pts_list.append(pts)
                wts_list.append(wts)
        lens = np.array([p.size for p in pts_list])
        offsets = np.concatenate([[0], np.cumsum(lens)])
        flat_pts = np.concatenate(pts_list)
        del pts_list  # 3 MB of per-cell pieces at n=1600, unused from here
        flat_r = np.repeat(nodes[rows], lens)
        flat_vals = np.empty(flat_pts.size)
        correction_jobs = _submit_blocks(pool, flat_pts.size, correction_block)

        bad = _first_failure(kernel_jobs)
        if bad is not None:
            raise KernelError(
                f"kernel evaluation failed at node pair ({bad[0]}, {bad[1]})"
            )
        bad = _first_failure(correction_jobs)
        if bad is not None:
            i_bad = rows[int(np.searchsorted(offsets, bad, side="right")) - 1]
            raise KernelError(
                f"kernel evaluation failed near the diagonal at row {i_bad}, "
                f"radius {flat_pts[bad]!r}"
            )
    finally:
        pool.shutdown(cancel_futures=True)

    lag = _lagrange_rows(
        flat_pts, nodes.reshape(n_cells, q)[np.repeat(cells, lens)]
    )
    weighted = np.concatenate(wts_list) * flat_vals * surf * flat_pts ** (dim - 1)
    for blk, (i, c) in enumerate(zip(rows, cells)):
        sl = slice(offsets[blk], offsets[blk + 1])
        contrib = weighted[sl] @ lag[sl]
        # Stored as kernel values, which the operator keeps.
        kbar[i, c * q : (c + 1) * q] = contrib / w[c * q : (c + 1) * q]

    # Exact symmetrization.  A plain average would move each pair entry by
    # half the row-vs-transpose mismatch, which ruins boundary rows whose
    # own column weights are tiny: row i pays |v - kbar[i,j]| * w[j], so
    # the shared value must lean toward the entry that multiplies the
    # larger weight.  Minimizing the summed squared row errors gives a
    # w^2-weighted average, which is still exactly symmetric.  It is done
    # in place, a band of rows and its mirrored columns at a time: the
    # band [a, b) reads only entries no earlier band has overwritten.
    w2 = w * w
    kbar *= w2[None, :]
    step = max(1, _BLOCK_SIZE // n)
    for a in range(0, n, step):
        b = min(a + step, n)
        band = kbar[a:b, a:] + kbar[a:, a:b].T
        band /= w2[a:b, None] + w2[None, a:]
        kbar[a:b, a:] = band
        kbar[a:, a:b] = band.T
    neg = kbar < 0.0
    if np.any(neg):
        clipped = -kbar[neg].sum()
        scale = kbar.max()
        if clipped > 1e-8 * scale:
            raise KernelError(
                f"negative kernel mass {clipped:.3e} exceeds tolerance "
                f"(matrix scale {scale:.3e})"
            )
        kbar[neg] = 0.0

    dirac = dirac_profile(grid, params)
    for arr in (kbar, dirac):
        arr.setflags(write=False)
    return GreenOperator(
        dim=dim, alpha=alpha, matrix=kbar, grid=grid, dirac_column=dirac
    )


def measured_c2(params, op):
    """Measured comparison constant sup_r G_alpha[g^p](r) / g(r), g = G_alpha[delta_0].

    The finite supremum exists in the subcritical regime and feeds the
    barrier certificate of the minimal-solution iteration.  Raises
    RegimeError for a supercritical p and ParameterError if params has
    another dim or alpha than op.
    """
    if not params.subcritical:
        raise RegimeError(
            f"composition bound requires p < {params.critical_p:.6g}, got {params.p}"
        )
    op.check_params(params)
    g = op.dirac_column
    composed = op.apply(g**params.p)
    return float(np.max(composed / g))


def _operator_payload(op):
    return [
        np.ascontiguousarray(op.matrix, dtype=np.float64),
        np.ascontiguousarray(op.dirac_column, dtype=np.float64),
        np.ascontiguousarray(op.grid.nodes, dtype=np.float64),
        np.ascontiguousarray(op.grid.weights, dtype=np.float64),
        np.ascontiguousarray(op.grid.cell_edges, dtype=np.float64),
    ]


def save_operator(op, path):
    """Dump the operator as a one-line JSON header plus raw float64 payload.

    The header records the grid specification, kernel parameters, and a
    checksum of the payload so stale or corrupted caches are rejected at
    load time.  The file is written whole (core.write_atomic).
    """
    payload = b"".join(a.tobytes() for a in _operator_payload(op))
    header = {
        "format_version": FORMAT_VERSION,
        "dim": op.dim,
        "alpha": op.alpha,
        "n_nodes": op.grid.n,
        "n_cells": op.grid.n_cells,
        "nodes_per_cell": op.grid.nodes_per_cell,
        "grading": op.grid.grading,
        "boundary_grading": op.grid.boundary_grading,
        "sha256": hashlib.sha256(payload).hexdigest(),
    }
    write_atomic(path, json.dumps(header, sort_keys=True).encode() + b"\n" + payload)


def load_operator(path):
    """Inverse of save_operator; validates the header and checksum and reshapes.

    Raises ParameterError for anything but a current operator file, and
    for a kernel matrix with a negative entry (GreenOperator's invariant).
    """
    with open(path, "rb") as fh:
        header_line = fh.readline()
        payload = fh.read()
    try:
        header = json.loads(header_line)
    except ValueError:
        header = None
    if not isinstance(header, dict):
        raise ParameterError(f"operator file {path} has no JSON object header")
    if header.get("format_version") != FORMAT_VERSION:
        raise ParameterError(
            f"unsupported operator file version {header.get('format_version')!r}"
        )
    if hashlib.sha256(payload).hexdigest() != header.get("sha256"):
        raise ParameterError(f"operator file {path} is corrupted (checksum mismatch)")
    n, n_cells = header.get("n_nodes"), header.get("n_cells")
    if not all(type(m) is int and m > 0 for m in (n, n_cells)):
        raise ParameterError(f"operator file {path} has invalid grid sizes")
    sizes = [n * n, n, n, n, n_cells + 1]
    flat = np.frombuffer(payload, dtype=np.float64)
    if flat.size != sum(sizes):
        raise ParameterError(f"operator file {path} has inconsistent payload size")
    parts = np.split(flat, np.cumsum(sizes)[:-1])
    matrix = parts[0].reshape(n, n).copy()
    if matrix.min() < 0.0:
        raise ParameterError(f"operator file {path} has a negative kernel entry")
    dirac, nodes, weights, edges = (p.copy() for p in parts[1:])
    for arr in (matrix, dirac, nodes, weights, edges):
        arr.setflags(write=False)
    grid = RadialGrid(
        dim=header["dim"],
        nodes=nodes,
        weights=weights,
        cell_edges=edges,
        nodes_per_cell=header["nodes_per_cell"],
        grading=header["grading"],
        boundary_grading=header["boundary_grading"],
    )
    return GreenOperator(
        dim=header["dim"],
        alpha=header["alpha"],
        matrix=matrix,
        grid=grid,
        dirac_column=dirac,
    )


def default_grid(params, n_nodes=400, grading=2.0):
    """Grid with boundary grading adapted to the solution's (1-r)^alpha layer."""
    return make_grid(
        n_nodes,
        grading,
        dim=params.dim,
        boundary_grading=max(grading, 1.0 / params.alpha),
    )
