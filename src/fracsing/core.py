"""Problem parameters, constants, radial grids, and sampled radial profiles.

Shared foundation for the toolkit solving

    (-Delta)^alpha u = u^p + k delta_0   on the unit ball B_1 in R^N,
    u = 0                                outside B_1,

with 0 < alpha < 1, p > 1 and k >= 0.  This module provides validated
problem parameters, the fundamental-solution constant, composite graded
quadrature grids on (0,1) for the radial measure |S^{N-1}| r^{N-1} dr,
and a radial-profile container that tracks an explicit multiple of
r^(2*alpha-N) so that singular iterates are never sampled raw at the
origin.
"""

from __future__ import annotations

import math
import os
import tempfile
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np


class FracsingError(Exception):
    """Base class for all toolkit errors."""


class ParameterError(FracsingError, ValueError):
    """Invalid parameter, grid, or profile input."""


class KernelError(FracsingError):
    """Kernel evaluation failed or produced a non-finite value."""


class ConvergenceError(FracsingError):
    """An iterative method stalled or an internal consistency check failed."""


class RegimeError(FracsingError):
    """Request is mathematically inadmissible for the given parameters."""


class SecondSolutionNotFound(ConvergenceError):
    """Search budget exhausted without locating a nontrivial critical point."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace if trace is not None else []


class Keeps:
    """Mixin for a frozen dataclass that keeps values derived from it.

    _memo(key, build) returns build(), computed once per instance and
    kept under key.  The value lives in the instance __dict__, where
    functools.cached_property keeps its values, so a frozen instance can
    hold what is derived from its arrays; the arrays are never written
    in place, and dataclasses.replace gives a new instance with nothing
    kept.  If build raises, nothing is kept.
    """

    def _memo(self, key, build):
        memo = self.__dict__.setdefault("_kept", {})
        if key not in memo:
            memo[key] = build()
        return memo[key]


def write_atomic(path, data):
    """Write bytes to path whole: to a temporary file in the same directory
    (made if missing), then renamed over path; the temporary file is
    removed if anything fails."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".fracsing-", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def surface_area(dim):
    """Surface measure |S^{dim-1}| of the unit sphere in R^dim.

    Valid for dim >= 1; surface_area(1) = 2 counts the two endpoints of
    the interval, which is the correct weight for 1D sphere averages.
    """
    return 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)


def _check_order(dim, alpha):
    if int(dim) != dim or dim < 2:
        raise ParameterError(f"dimension must be an integer >= 2, got {dim}")
    if not (0.0 < alpha < 1.0):
        raise ParameterError(f"operator order alpha must lie in (0,1), got {alpha}")


def fundamental_constant(dim, alpha):
    """Constant c making c*|x|^(2*alpha-dim) the fundamental solution.

    Uses the Riesz-potential normalization

        c = Gamma(dim/2 - alpha) / (4^alpha * pi^(dim/2) * Gamma(alpha)),

    so that (-Delta)^alpha [c |x|^(2 alpha - dim)] = delta_0 in the sense
    of distributions.  For dim=2, alpha=1/2 this reduces to 1/(2 pi), and
    for dim=3, alpha -> 1 it recovers the Newtonian constant 1/(4 pi).
    """
    _check_order(dim, alpha)
    return math.gamma(dim / 2.0 - alpha) / (
        4.0**alpha * math.pi ** (dim / 2.0) * math.gamma(alpha)
    )


@dataclass(frozen=True)
class ProblemParams:
    """Parameters of (-Delta)^alpha u = u^p + k delta_0 on the unit ball.

    Parameters
    ----------
    dim : int
        Space dimension N >= 2.
    alpha : float
        Operator order in (0,1).
    p : float
        Nonlinearity exponent, > 1.
    k : float
        Strength of the Dirac source at the origin, >= 0.
    """

    dim: int = 2
    alpha: float = 0.75
    p: float = 2.0
    k: float = 0.0

    def __post_init__(self):
        _check_order(self.dim, self.alpha)
        if not self.p > 1.0:
            raise ParameterError(f"exponent p must exceed 1, got {self.p}")
        if not self.k >= 0.0:
            raise ParameterError(f"source strength k must be >= 0, got {self.k}")

    @property
    def critical_p(self):
        """Existence threshold N/(N - 2*alpha) for singular solutions."""
        return self.dim / (self.dim - 2.0 * self.alpha)

    @property
    def subcritical(self):
        """True iff p < N/(N-2*alpha), the regime admitting k > 0."""
        return self.p < self.critical_p

    @property
    def singular_exponent(self):
        """Exponent 2*alpha - N of the fundamental-solution profile."""
        return 2.0 * self.alpha - self.dim

    @property
    def c_fund(self):
        """Constant of the fundamental solution c_fund |x|^(2*alpha-N)."""
        return fundamental_constant(self.dim, self.alpha)

    def with_k(self, k):
        """Copy of these parameters with the source strength replaced."""
        return replace(self, k=k)


GAUSS_PER_CELL = 4

# Gauss-Legendre rule reused for every quadrature cell.
_CELL_X, _CELL_W = np.polynomial.legendre.leggauss(GAUSS_PER_CELL)


@dataclass(frozen=True)
class RadialGrid:
    """Composite graded quadrature grid on the radial interval (0,1).

    nodes/weights form a quadrature rule for the volume measure
    |S^{dim-1}| r^{dim-1} dr, so that weights @ f(nodes) approximates the
    integral of the radial function f over the unit ball.  Nodes are the
    4-point Gauss-Legendre points of consecutive cells whose edges are
    algebraically clustered toward r=0 (exponent `grading`) and toward
    r=1 (exponent `boundary_grading`); endpoints are never nodes.
    """

    dim: int
    nodes: np.ndarray
    weights: np.ndarray
    cell_edges: np.ndarray
    nodes_per_cell: int
    grading: float
    boundary_grading: float

    @property
    def n(self):
        return self.nodes.size

    @property
    def n_cells(self):
        return self.cell_edges.size - 1


def make_grid(n_nodes, grading=2.0, *, dim=2, boundary_grading=None):
    """Build a composite graded radial grid.

    Parameters
    ----------
    n_nodes : int
        Requested number of nodes, >= 16; rounded down to a multiple of
        the 4-point cell rule.
    grading : float
        Clustering exponent toward r=0, >= 1.  Exponent 2 resolves
        r^(2*alpha-N)-type origin profiles at the accuracy of the
        underlying cell rule.
    dim : int
        Space dimension used in the volume measure.
    boundary_grading : float, optional
        Clustering exponent toward r=1; defaults to `grading`.  Choose
        >= 1/alpha to resolve the (1-r)^alpha boundary behavior of
        solutions.

    Returns
    -------
    RadialGrid
    """
    if int(n_nodes) != n_nodes or n_nodes < 16:
        raise ParameterError(f"n_nodes must be an integer >= 16, got {n_nodes}")
    if not grading >= 1.0:
        raise ParameterError(f"grading must be >= 1, got {grading}")
    if boundary_grading is None:
        boundary_grading = grading
    if not boundary_grading >= 1.0:
        raise ParameterError(
            f"boundary_grading must be >= 1, got {boundary_grading}"
        )
    if int(dim) != dim or dim < 2:
        raise ParameterError(f"dimension must be an integer >= 2, got {dim}")

    n_cells = int(n_nodes) // GAUSS_PER_CELL
    m_in = n_cells // 2
    m_out = n_cells - m_in
    # Edges cluster algebraically toward both endpoints, split at r=1/2.
    inner = 0.5 * (np.arange(m_in + 1) / m_in) ** grading
    outer = 1.0 - 0.5 * ((m_out - np.arange(m_out + 1)) / m_out) ** boundary_grading
    edges = np.concatenate([inner, outer[1:]])

    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * _CELL_X[None, :]).ravel()
    # Steep gradings shrink the end cells below the spacing of doubles,
    # and their nodes collide or round onto r = 0 or 1.
    if not (nodes[0] > 0.0 and nodes[-1] < 1.0 and np.all(np.diff(nodes) > 0.0)):
        raise ParameterError(
            f"grid nodes are not strictly increasing inside (0, 1) at "
            f"n_nodes = {n_nodes}, grading {grading:g}, boundary grading "
            f"{boundary_grading:g}: its end cells are below double precision"
        )
    surf = surface_area(dim)
    weights = (half[:, None] * _CELL_W[None, :]).ravel() * surf * nodes ** (dim - 1)

    for arr in (nodes, weights, edges):
        arr.setflags(write=False)
    return RadialGrid(
        dim=int(dim),
        nodes=nodes,
        weights=weights,
        cell_edges=edges,
        nodes_per_cell=GAUSS_PER_CELL,
        grading=float(grading),
        boundary_grading=float(boundary_grading),
    )


def _origin_window(grid):
    """Node indices of the origin fit window.

    Skips the 3 innermost nodes (the quadrature boundary layer) and keeps
    one decade of radius from the fourth node on; raises ParameterError
    when fewer than 4 nodes fall inside.
    """
    r = grid.nodes
    idx = np.nonzero((r >= r[3]) & (r <= 10.0 * r[3]))[0] if r.size > 3 else r[:0]
    if idx.size < 4:
        raise ParameterError(
            "grid does not resolve a full decade near the origin; "
            "use more nodes or grading"
        )
    return idx


@dataclass(frozen=True)
class RadialFunction:
    """Radial profile sampled on a grid plus an explicit singular part.

    The represented function is

        u(r_i) = values[i] + singular_coeff * r_i**singular_exponent,

    so a nonzero singular_coeff carries the r^(2*alpha-N) blow-up exactly
    instead of sampling it; nonlinear algebra acts on the total.
    """

    grid: RadialGrid
    values: np.ndarray
    singular_coeff: float = 0.0
    singular_exponent: float = 0.0

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.grid.n,):
            raise ParameterError(
                f"values shape {values.shape} does not match grid size {self.grid.n}"
            )
        if not self.singular_coeff >= 0.0:
            raise ParameterError(
                f"singular_coeff must be >= 0, got {self.singular_coeff}"
            )
        if self.singular_coeff > 0.0 and not self.singular_exponent < 0.0:
            raise ParameterError("a singular part requires a negative exponent")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @classmethod
    def zero(cls, grid):
        return cls(grid, np.zeros(grid.n))

    @cached_property
    def total(self):
        """Nodewise total profile, singular part included."""
        if self.singular_coeff == 0.0:
            return self.values
        singular = self.singular_coeff * self.grid.nodes**self.singular_exponent
        out = self.values + singular
        out.setflags(write=False)
        return out

    def is_nonnegative(self, slack=0.0):
        return bool(np.min(self.total) >= -slack)
