"""Green kernel of (-Delta)^alpha on the unit ball and its discretization.

The ball is the one domain where the kernel is explicit.  In the Riesz
form

    G(x,y) = kappa * int_0^{a2} tau^(alpha-1) (|x-y|^2 + tau)^(-N/2) dtau,
    a2 = (1-|x|^2)(1-|y|^2),   kappa = c_fund / B(alpha, N/2-alpha),

with c_fund the fundamental-solution constant (tau = t |x-y|^2 gives the
incomplete-beta form c_fund |x-y|^(2 alpha-N) I_z(alpha, N/2-alpha),
z = a2 / (a2 + |x-y|^2)).  The mean of the integrand over a sphere is
elementary: for |x| = r and y = s w, w on the unit sphere S^(N-1),

    mean_w (|x-y|^2 + tau)^(-N/2) = (2 / (sqrt(P) + sqrt(Q)))^(N-2) / sqrt(P Q),
    P = (r-s)^2 + tau,   Q = (r+s)^2 + tau,

a quadratic transformation of 2F1(N/4, N/4+1/2; N/2; .) (DLMF 15.4).  So
the sphere-averaged kernel Kbar(r,s) is one integral in tau, with no
angular quadrature and no special function.  It is evaluated by a
Gauss-Jacobi rule with weight tau^(alpha-1) on [0, min((r-s)^2, a2)] and
Gauss-Legendre panels in ln tau from there up to a2; in ln tau the
integrand is analytic in a strip of half-width pi, so panels of a fixed
length in ln tau resolve it on every scale of |r-s|.  With
P = Q = |x-y|^2 the same integral is the point kernel, and so are the
Dirac column G(x, 0) and its smooth remainder: every Green value of the
module comes from this one rule.  This module assembles a dense Nystrom
matrix of the sphere-reduced kernel for the solution operator

    G_alpha[f](r) = int_0^1 K(r,s) f(s) s^(N-1) ds,   K = |S^(N-1)| Kbar,

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
from typing import NamedTuple

import numpy as np
from scipy import linalg
from scipy.linalg import blas

from .core import (
    GAUSS_PER_CELL,
    ConvergenceError,
    KernelError,
    Keeps,
    ParameterError,
    ProblemParams,
    RadialGrid,
    fundamental_constant,
    make_grid,
    surface_area,
    write_atomic,
)

# Version 8 stores the grid spec (dim, alpha, n_nodes, grading,
# boundary_grading) in the header and the kernel matrix alone after it,
# under one checksum of both; the grid and the Dirac column are rebuilt
# from the spec.  Versions 7 and 6 had the same layout, with kernel values
# that differ in the last bits: 7 formed 1 - r^2 as 1 - r*r, and 6 took
# scipy's Gauss-Jacobi rule in place of the Golub-Welsch rule; version 5
# stored the arrays too and checked the payload only.
FORMAT_VERSION = 8

# The tau rule: Gauss-Jacobi points for the tau^(alpha-1) endpoint, and
# Gauss-Legendre panels of at most _PANEL_LOG_LENGTH in ln tau above it.
# Both converge like rho^(-2 m) for m points: rho >= 3 + sqrt(8) for the
# Jacobi interval, whose integrand is analytic up to tau = -(r-s)^2, and
# rho = 4.4 for a panel, the strip half-width pi over half the panel
# length.  12 points each hold the kernel within 1e-13 relative of
# 30-digit quadrature for N = 2..5 and alpha in [0.05, 0.95] (rounding and
# the Golub-Welsch weights give about 2e-14 of that).
_JACOBI_POINTS = 12
_PANEL_X, _PANEL_W = np.polynomial.legendre.leggauss(12)
_PANEL_LOG_LENGTH = 3.0

# Product-integration controls for near-diagonal cells: per side of the
# singular point, a graded map s = anchor +/- L*t^gamma integrated by a
# two-panel Gauss rule in t.
_SUB_SPLIT = 0.15
_SUB_X, _SUB_W = np.polynomial.legendre.leggauss(10)
_N_CORR_CELLS = 3

# Kernel evaluations in `assemble` run on blocks of this many node pairs
# (or near-diagonal samples), one pool.map task each; fewer, larger blocks
# mean fewer NumPy calls, and so fewer hand-overs of the GIL between the
# workers.  Within a block, each NumPy pass of the tau rule takes whole
# entries and at most _PASS_POINTS quadrature points (one entry at least),
# which bounds each worker's temporaries whatever the block size.  Each
# entry is reduced over its own row of points by the same operations
# however the entries are split, so any block size and point cap give the
# same bits.
_BLOCK_SIZE = 8192
_PASS_POINTS = 49152


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


class _Kernel(NamedTuple):
    """Green kernel data of one (N, alpha): kappa and the Gauss-Jacobi rule
    on (0, 1) for the weight t^(exponent-1)."""

    dim: int
    exponent: float
    kappa: float
    jacobi_t: np.ndarray
    jacobi_w: np.ndarray


@functools.lru_cache(maxsize=None)
def _kernel(dim, alpha, exponent=None):
    """Kernel data for (N, alpha), with the rule for exponent c (alpha by
    default); memoised, and shared read-only by every caller for the process.

    The rule is Golub & Welsch's (1969, Math. Comp. 23): its nodes are the
    eigenvalues of the Jacobi matrix of the weight (1+x)^(c-1) on (-1, 1),
    mapped to t = (1+x)/2, and its weights the squared first components of
    the eigenvectors times the mass 1/c of t^(c-1) on (0, 1).
    """
    c = alpha if exponent is None else exponent
    b, k = c - 1.0, np.arange(1.0, _JACOBI_POINTS)
    # The k = 0 diagonal entry b^2 / (b (b + 2)) is reduced (0/0 at c = 1).
    diag = np.concatenate([[b / (b + 2.0)], b * b / ((2 * k + b) * (2 * k + b + 2))])
    off = 2 * k * (k + b) / (2 * k + b) / np.sqrt((2 * k + b) ** 2 - 1.0)
    x, vectors = linalg.eigh_tridiagonal(diag, off)
    nodes, weights = 0.5 * (x + 1.0), vectors[0] ** 2 / c
    for arr in (nodes, weights):
        arr.setflags(write=False)
    half = dim / 2.0
    inv_beta = math.gamma(half) / (math.gamma(alpha) * math.gamma(half - alpha))
    return _Kernel(dim, c, fundamental_constant(dim, alpha) * inv_beta, nodes, weights)


@functools.lru_cache(maxsize=None)
def _panel_rule(n_panels):
    """Nodes/weights on (0, 1) of n equal panels of the Legendre rule,
    memoised and read-only."""
    offsets = np.arange(n_panels)[:, None]
    u = ((offsets + 0.5 * (_PANEL_X + 1.0)[None, :]) / n_panels).ravel()
    w = np.tile(0.5 * _PANEL_W / n_panels, n_panels)
    for arr in (u, w):
        arr.setflags(write=False)
    return u, w


def _sphere_mean_integrand(tau, d2, q2, dim):
    """(2 / (sqrt(P) + sqrt(Q)))^(N-2) / sqrt(P Q), P = d2 + tau, Q = q2 + tau.

    With d2 = (r-s)^2 and q2 = (r+s)^2 this is the mean over the unit
    sphere of (|r e1 - s w|^2 + tau)^(-N/2); with d2 = q2 = |x-y|^2 it is
    (|x-y|^2 + tau)^(-N/2).
    """
    p = d2 + tau
    q = q2 + tau
    out = p * q
    np.sqrt(out, out=out)
    np.reciprocal(out, out=out)
    if dim > 2:
        out *= (2.0 / (np.sqrt(p) + np.sqrt(q))) ** (dim - 2)
    return out


def _tau_integral(d2, q2, a2, kernel):
    """kappa * int_0^{a2} tau^(c-1) M(tau) dtau over flat arrays, c = kernel.exponent.

    M is _sphere_mean_integrand(tau, d2, q2), with d2 > 0 elementwise.
    The Gauss-Jacobi rule covers [0, min(d2, a2)] and, where a2 > d2,
    panels in ln tau cover the rest.  Entries are sorted once by panel
    count (stably), so each count is one contiguous run, and every pass
    takes whole entries of one run, at most _PASS_POINTS points.  Each
    entry's points form one row, reduced by a row sum whose result does
    not depend on the row's position (a BLAS product would).
    """
    c = kernel.exponent
    log_span = np.zeros_like(d2)
    above = a2 > d2
    log_span[above] = np.log(a2[above] / d2[above])
    n_panels = np.ceil(log_span / _PANEL_LOG_LENGTH).astype(int)
    order = np.argsort(n_panels, kind="stable")
    d2, q2, log_span, n_panels = (x[order] for x in (d2, q2, log_span, n_panels))
    t_lo = np.minimum(d2, a2[order])
    out = np.empty_like(t_lo)
    step = max(1, _PASS_POINTS // _JACOBI_POINTS)
    for lo in range(0, out.size, step):
        s = slice(lo, lo + step)
        tau = t_lo[s, None] * kernel.jacobi_t
        f = _sphere_mean_integrand(tau, d2[s, None], q2[s, None], kernel.dim)
        out[s] = (f * kernel.jacobi_w).sum(axis=1) * t_lo[s] ** c
    counts, starts = np.unique(n_panels, return_index=True)
    for m, first, end in zip(counts, starts, [*starts[1:], out.size]):
        if m == 0:
            continue
        u, w = _panel_rule(int(m))
        step = max(1, _PASS_POINTS // u.size)
        for lo in range(first, end, step):
            s = slice(lo, min(lo + step, end))
            tau = t_lo[s, None] * np.exp(log_span[s, None] * u)
            f = _sphere_mean_integrand(tau, d2[s, None], q2[s, None], kernel.dim)
            f *= tau**c
            out[s] += (f * w).sum(axis=1) * log_span[s]
    out[order] = kernel.kappa * out
    return out


def _sphere_mean(r, s, kernel):
    """Mean of G(r e1, s w) over w on the unit sphere, Kbar(r, s).

    Vectorized over flat arrays with r != s elementwise.  1 - r^2 is
    formed as (1-r)(1+r), as in dirac_profile: 1 - r*r has a relative
    error of up to 1e-16 / (1-r), which cost the kernel up to 3e-11 at
    the last nodes of the default grids.  Each factor is rounded before
    the two are multiplied, so Kbar(r, s) and Kbar(s, r) agree bit for bit.
    """
    a2 = ((1.0 - r) * (1.0 + r)) * ((1.0 - s) * (1.0 + s))
    return _tau_integral((r - s) ** 2, (r + s) ** 2, a2, kernel)


def dirac_profile(grid, params):
    """Exact column G(r e1, 0): the operator applied to the unit Dirac mass.

    The point kernel at y = 0, |x-y|^2 = r^2 and a2 = 1 - r^2, by the
    tau rule.  1 - r^2 is formed as (1-r)(1+r): 1 - r*r has a relative
    error of up to 1e-16 / (1-r), which costs the column up to 3e-10 on
    the default grid at alpha = 0.1.

    Origin approach: the ratio to c_fund * r^(2*alpha-N) approaches 1 from
    below with deficit lead * r^(N-2*alpha) * (1 + O(r^2)), where
    lead = Gamma(N/2) / ((N/2-alpha) Gamma(alpha) Gamma(N/2-alpha)).
    """
    r = grid.nodes
    a2 = (1.0 - r) * (1.0 + r)
    return _tau_integral(r * r, r * r, a2, _kernel(params.dim, params.alpha))


def dirac_smooth_remainder(grid, params):
    """Bounded remainder G(r e1, 0) - c_fund * r^(2*alpha-N).

    c_fund * r^(2*alpha-N) is the Riesz integral over every tau > 0, so
    the remainder is minus its tail over tau > 1 - r^2.  tau = 1/sigma
    turns the tail into

        kappa r^(-N) int_0^{1/(1-r^2)} sigma^(c-1) (1/r^2 + sigma)^(-N/2) dsigma,

    c = N/2 - alpha: the tau rule with exponent c, which has no
    cancellation of two blow-ups as r -> 0 (1 - r^2 as in dirac_profile).
    """
    r = grid.nodes
    inv, sigma_max = r**-2.0, 1.0 / ((1.0 - r) * (1.0 + r))
    kernel = _kernel(params.dim, params.alpha, params.dim / 2.0 - params.alpha)
    return -(r**-params.dim) * _tau_integral(inv, inv, sigma_max, kernel)


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
    symmetric, entrywise finite and nonnegative (assemble rejects a
    non-finite value and clips at zero, and load_operator rejects a
    negative or non-finite entry) and read-only; with w the
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
            factor = linalg.cholesky(self.symmetrized().T, overwrite_a=True)
        except linalg.LinAlgError as exc:
            raise ConvergenceError(
                "symmetrized Green matrix is not positive definite"
            ) from exc
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
    """Samples (rows) on [anchor, far] clustered toward anchor, per entry of far."""
    span = far[:, None] - anchor
    pts = anchor + span * _SUB_T**gamma
    wts = np.abs(span) * gamma * _SUB_T ** (gamma - 1.0) * _SUB_TW
    return pts, wts


def _cusp_piece(r, near, far, gamma):
    """Samples (rows) on [near, far], one side of r, resolving the cusp at r.

    Distances from r are driven through delta = d0*sinh(v), d0 = 1 - r,
    with v graded toward its lower end: the power grading absorbs the
    |s-r|^(2*alpha-1) endpoint cusp while the sinh stretch resolves the
    kernel's transition at distance d0 (the cusp point's distance to the
    outer boundary) on every scale.  For d0 much larger than the interval
    this degenerates to the plain graded rule.  Vectorized over entries of
    r, near and far.
    """
    d0 = (1.0 - r)[:, None]
    sign = np.where(far > r, 1.0, -1.0)[:, None]
    v_lo = np.arcsinh(np.abs(near - r)[:, None] / d0)
    v_span = np.arcsinh(np.abs(far - r)[:, None] / d0) - v_lo
    v = v_lo + v_span * _SUB_T**gamma
    # Keep samples a few ulp away from the cusp node so the kernel is
    # evaluated at r != s even when the graded map underflows.
    delta = np.maximum(d0 * np.sinh(v), 4.0 * np.spacing(np.abs(r))[:, None])
    pts = r[:, None] + sign * delta
    wts = d0 * np.cosh(v) * v_span * gamma * _SUB_T ** (gamma - 1.0) * _SUB_TW
    return pts, wts


def _correction_samples(r, a, b, last, gamma, boundary_gamma):
    """Graded sample points/weights on cells [a, b] for kernel cusps at r.

    Vectorized over (row, cell) pairs: r holds each pair's node, a and b
    its cell edges, and last flags the cell that ends at s = 1.  A pair's
    samples realize int_a^b h(s) ds clustered toward the cusp: both
    subintervals around r when the cusp lies inside the cell, otherwise
    toward the cell edge nearest to it.  On the last cell the kernel has a
    (1-s)^alpha cusp of its own at s = 1; the outer 30% of the side that
    reaches 1 is then graded toward 1 by boundary_gamma instead.  Returns
    the points and weights of every pair laid end to end, in pair order,
    and the number of samples of each pair.
    """
    inside = (a < r) & (r < b)
    # Side 0 runs from near to far; side 1, from r to b, exists inside only.
    near = np.where(inside, r, np.where(r >= b, b, a))
    far = np.where(inside | (r >= b), a, b)
    sides = [(near, far, np.ones_like(inside)), (r, b, inside)]
    # Each side gives a cusp piece, then a boundary piece where it reaches
    # s = 1; piece keys 4 * pair + 2 * side + (0 or 1) give the order.
    keys, pieces = [], []
    for k, (near, far, exists) in enumerate(sides):
        split = near + 0.7 * (1.0 - near)
        at_one = last & (far == b) & (b == 1.0)
        sel = np.flatnonzero(exists)
        end = np.where(at_one, split, far)[sel]
        keys.append(4 * sel + 2 * k)
        pieces.append(_cusp_piece(r[sel], near[sel], end, gamma))
        sel = np.flatnonzero(exists & at_one)
        keys.append(4 * sel + 2 * k + 1)
        pieces.append(_graded_piece(1.0, split[sel], boundary_gamma))
    keys = np.concatenate(keys)
    order = np.argsort(keys)
    pts, wts = (np.concatenate(arrays)[order].ravel() for arrays in zip(*pieces))
    return pts, wts, np.bincount(keys // 4, minlength=r.size) * _SUB_T.size


def _worker_count():
    """Usable cores, capped by OMP_NUM_THREADS from the environment."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity masks
        cores = os.cpu_count() or 1
    cap = os.environ.get("OMP_NUM_THREADS", "")
    if cap.isdigit() and int(cap) > 0:
        cores = min(cores, int(cap))
    return cores


def assemble(grid, params):
    """Assemble the dense Nystrom matrix of the Green operator.

    Each entry has one owner.  Node pairs more than _N_CORR_CELLS cells
    apart take the sphere-reduced kernel itself.  The band of the
    diagonal cell and its _N_CORR_CELLS neighbors on each side belongs
    to product integration, and no kernel value is computed there: the
    density is replaced by its cubic interpolant on the cell's own nodes
    and the kernel mass is integrated by a quadrature graded into the
    |r-s|^(2*alpha-1) cusp, and stored divided by the column weights.
    Only these entries differ from their mirrors, and they are exactly
    symmetrized.  Entries are clipped at zero (the
    clipped mass is checked to be negligible), and evaluation failures
    are reported with the lowest failing node pair.  The operator keeps
    this symmetric matrix; the weights are applied to the density
    (GreenOperator.apply).

    Kernel evaluations run in fixed-size blocks, mapped on a thread pool
    with one worker per usable core, capped by OMP_NUM_THREADS.  Every
    entry is computed by the same operations whatever the block size or
    worker count, so the matrix is identical bit for bit.  Beyond the
    n x n matrix it keeps four arrays of one double per near-diagonal
    sample (8 MB at n=1600), plus the temporaries of one reduction chunk
    and of each worker's block: a tracemalloc peak of 9.2-9.9 MiB beyond
    the matrix at n=800 and 14-16 MiB at n=1600, with two workers.
    """
    dim, alpha = params.dim, params.alpha
    if grid.dim != dim:
        raise ParameterError(
            f"grid dimension {grid.dim} does not match params.dim {dim}"
        )
    # The rule is built here, if at all, before any block is submitted.
    kernel = _kernel(dim, alpha)
    surf = surface_area(dim)
    nodes = grid.nodes
    w = grid.weights
    n = grid.n
    kbar = np.zeros((n, n))

    # Node pairs i < j more than _N_CORR_CELLS cells apart, in row-major
    # order: row i starts at column first[i] and at flat index
    # row_start[i].  Each block writes its pairs and their mirrors; the
    # correction below owns every entry of the band it skips.
    q = GAUSS_PER_CELL
    first = (np.arange(n) // q + _N_CORR_CELLS + 1) * q
    first = first[first < n]
    row_start = np.concatenate([[0], np.cumsum(n - first)])
    n_pairs = int(row_start[-1])

    def kernel_block(start):
        k = np.arange(start, min(start + _BLOCK_SIZE, n_pairs))
        i = np.searchsorted(row_start, k, side="right") - 1
        j = k - row_start[i] + first[i]
        vals = _sphere_mean(nodes[i], nodes[j], kernel)
        bad = np.flatnonzero(~np.isfinite(vals))
        if bad.size:
            raise KernelError(
                f"kernel evaluation failed at node pair ({i[bad[0]]}, {j[bad[0]]})"
            )
        kbar[i, j] = vals
        kbar[j, i] = vals

    # Product-integration correction: the columns of the cells around
    # each row's diagonal cell.  The samples of all (row, cell) pairs are
    # laid end to end and evaluated in blocks like the pairs.
    n_cells = grid.n_cells
    edges = grid.cell_edges
    reach = np.arange(-_N_CORR_CELLS, _N_CORR_CELLS + 1)
    rows = np.repeat(np.arange(n), reach.size)
    cells = rows // q + np.tile(reach, n)
    keep = (cells >= 0) & (cells < n_cells)
    rows, cells = rows[keep], cells[keep]

    def correction_block(start):
        stop = start + _BLOCK_SIZE
        vals = _sphere_mean(flat_r[start:stop], flat_pts[start:stop], kernel)
        bad = np.flatnonzero(~np.isfinite(vals))
        if bad.size:
            at = start + int(bad[0])
            i_bad = rows[int(np.searchsorted(offsets, at, side="right")) - 1]
            raise KernelError(
                f"kernel evaluation failed near the diagonal at row {i_bad}, "
                f"radius {flat_pts[at]!r}"
            )
        flat_vals[start:stop] = vals

    # map submits every block at once and yields results in submission
    # order: draining both iterators raises the error of the lowest failing
    # block, and the iterator cancels the blocks after it.
    pool = ThreadPoolExecutor(
        max_workers=_worker_count(), thread_name_prefix="fracsing-assemble"
    )
    try:
        pair_jobs = pool.map(kernel_block, range(0, n_pairs, _BLOCK_SIZE))
        # The sampling runs on this thread while the kernel blocks run.
        flat_pts, flat_wts, lens = _correction_samples(
            nodes[rows],
            edges[cells],
            edges[cells + 1],
            cells == n_cells - 1,
            max(3.0, 3.0 / (2.0 * alpha)),
            max(2.0, 3.0 / (1.0 + alpha)),
        )
        offsets = np.concatenate([[0], np.cumsum(lens)])
        flat_r = np.repeat(nodes[rows], lens)
        flat_vals = np.empty(flat_pts.size)
        sample_jobs = pool.map(correction_block, range(0, flat_pts.size, _BLOCK_SIZE))
        list(pair_jobs)
        list(sample_jobs)
    finally:
        pool.shutdown(cancel_futures=True)

    # Reduce the samples to entries in chunks of whole (row, cell) pairs of
    # about _BLOCK_SIZE samples; reduceat sums a pair alike in any chunk.
    starts = np.arange(0, flat_pts.size, _BLOCK_SIZE)
    cuts = np.unique(np.searchsorted(offsets, starts, side="right") - 1)
    for lo, hi in zip(cuts, [*cuts[1:], rows.size]):
        s = slice(offsets[lo], offsets[hi])
        at = nodes.reshape(n_cells, q)[np.repeat(cells[lo:hi], lens[lo:hi])]
        lag = _lagrange_rows(flat_pts[s], at)
        lag *= (flat_wts[s] * flat_vals[s] * surf * flat_pts[s] ** (dim - 1))[:, None]
        i, j = rows[lo:hi, None], cells[lo:hi, None] * q + np.arange(q)
        # Stored as kernel values, which the operator keeps.
        kbar[i, j] = np.add.reduceat(lag, offsets[lo:hi] - offsets[lo], axis=0) / w[j]
    i, j = rows[:, None], cells[:, None] * q + np.arange(q)

    # Exact symmetrization of the corrected entries: (i, j) is corrected
    # exactly when (j, i) is, both cells lying within _N_CORR_CELLS of each
    # other.  A plain average would move each pair entry by half the
    # row-vs-transpose mismatch, which ruins boundary rows whose own column
    # weights are tiny: row i pays |v - kbar[i,j]| * w[j], so the shared
    # value must lean toward the entry that multiplies the larger weight.
    # Minimizing the summed squared row errors gives a w^2-weighted
    # average.  The right side is read whole before the write and is
    # symmetric in (i, j), so the result is exactly symmetric.
    w2 = w * w
    kbar[i, j] = (kbar[i, j] * w2[j] + kbar[j, i] * w2[i]) / (w2[i] + w2[j])
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
    return _with_dirac_column(kbar, grid, params)


def _with_dirac_column(matrix, grid, params):
    """The GreenOperator of a kernel matrix on grid, with the exact Dirac
    column; both arrays read-only.  assemble and load_operator end here."""
    dirac = dirac_profile(grid, params)
    for arr in (matrix, dirac):
        arr.setflags(write=False)
    return GreenOperator(
        dim=params.dim, alpha=params.alpha, matrix=matrix, grid=grid, dirac_column=dirac
    )


def measured_c2(params, op):
    """Measured comparison constant sup_r G_alpha[g^p](r) / g(r), g = G_alpha[delta_0].

    The finite supremum exists in the subcritical regime and sets the
    barrier threshold k_p of the monotone iteration (within_barrier).
    Its Green product is kept on op (_dirac_power_image), so only the
    first call per p makes one.  Raises RegimeError for a supercritical p and
    ParameterError if params has another dim or alpha than op.
    """
    params.check_exponent("G_alpha[g^p] is infinite")
    op.check_params(params)
    return float(np.max(_dirac_power_image(op, params.p) / op.dirac_column))


def _dirac_power_image(op, p):
    """G_alpha[g^p] at the nodes, g = op.dirac_column: one Green product,
    kept on op per p; measured_c2 and iterate_minimal's barrier read it."""
    return op._memo(("dirac_power_image", p), lambda: op.apply(op.dirac_column**p))


def _checksum(spec, matrix):
    """sha256 of the spec's canonical JSON, then of the matrix's bytes,
    fed to one digest so the matrix is not copied."""
    digest = hashlib.sha256(json.dumps(spec, sort_keys=True).encode())
    digest.update(matrix)
    return digest.hexdigest()


def save_operator(op, path):
    """Dump the operator as a one-line JSON header plus its raw float64 matrix.

    The header holds the grid spec (dim, alpha, n_nodes, grading,
    boundary_grading), from which load_operator rebuilds the grid and the
    Dirac column, so op.grid must be the make_grid grid that assemble was
    given.  One sha256 covers every header field and the matrix, so a
    stale or corrupted file is rejected at load time.  The file is
    written whole (core.write_atomic).
    """
    matrix = np.ascontiguousarray(op.matrix, dtype=np.float64)
    spec = {
        "format_version": FORMAT_VERSION,
        "dim": op.dim,
        "alpha": op.alpha,
        "n_nodes": op.grid.n,
        "grading": op.grid.grading,
        "boundary_grading": op.grid.boundary_grading,
    }
    header = dict(spec, sha256=_checksum(spec, matrix))
    line = json.dumps(header, sort_keys=True).encode() + b"\n"
    write_atomic(path, b"".join([line, matrix]))


def load_operator(path):
    """Inverse of save_operator.

    Checks the version and the checksum first, then rebuilds the grid by
    make_grid and the Dirac column by dirac_profile, the calls that
    assemble makes, so every array is bit for bit the saved operator's.
    Raises ParameterError for anything but a current operator file, and
    for a kernel matrix with a negative or non-finite entry
    (GreenOperator's invariant).
    """
    with open(path, "rb") as fh:
        header_line = fh.readline()
        payload = fh.read()
    try:
        spec = json.loads(header_line)
    except ValueError:
        spec = None
    if not isinstance(spec, dict):
        raise ParameterError(f"operator file {path} has no JSON object header")
    if spec.get("format_version") != FORMAT_VERSION:
        raise ParameterError(
            f"unsupported operator file version {spec.get('format_version')!r}"
        )
    claimed = spec.pop("sha256", None)
    if _checksum(spec, payload) != claimed:
        raise ParameterError(f"operator file {path} is corrupted (checksum mismatch)")
    params = ProblemParams(dim=spec["dim"], alpha=spec["alpha"])
    grid = make_grid(
        spec["n_nodes"],
        spec["grading"],
        dim=params.dim,
        boundary_grading=spec["boundary_grading"],
    )
    matrix = np.frombuffer(payload, dtype=np.float64).reshape(grid.n, grid.n).copy()
    if not (matrix.min() >= 0.0 and np.isfinite(matrix.max())):
        raise ParameterError(
            f"operator file {path} has a negative or non-finite kernel entry"
        )
    return _with_dirac_column(matrix, grid, params)


def default_grid(params, n_nodes=400, grading=2.0):
    """Grid with boundary grading adapted to the solution's (1-r)^alpha layer."""
    return make_grid(
        n_nodes,
        grading,
        dim=params.dim,
        boundary_grading=max(grading, 1.0 / params.alpha),
    )
