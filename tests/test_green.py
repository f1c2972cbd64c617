"""Kernel evaluation, operator assembly, and serialization.

Every quantitative claim is checked against an independent route:
mpmath closed forms for the point kernel and the source column,
adaptive angular quadrature and 30-digit tau quadrature for the sphere
average, and the analytic ball solution for the operator applied to
constants.
"""

import dataclasses
import itertools
import json
import math
import os
import sys
import threading
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy import linalg
from scipy.integrate import quad
from scipy.special import betainc

import fracsing.green as green_module
from fracsing.classify import standard_battery
from fracsing.core import (
    GAUSS_PER_CELL,
    ConvergenceError,
    KernelError,
    ParameterError,
    ProblemParams,
    _origin_window,
    make_grid,
    surface_area,
)
from fracsing.green import (
    assemble,
    default_grid,
    dirac_profile,
    dirac_smooth_remainder,
    load_operator,
    measured_c2,
    save_operator,
)
from fracsing.mountainpass import build_form
from fracsing.stability import sigma1_rayleigh

mpmath.mp.dps = 40


def _point_kernel(x, y, params):
    """G(x, y) by the tau rule in its P = Q = |x-y|^2 form, the route of
    the Dirac columns."""
    diff = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    rho2 = np.array([float(diff @ diff)])
    a2 = np.array([(1.0 - float(x @ x)) * (1.0 - float(y @ y))])
    kernel = green_module._kernel(params.dim, params.alpha)
    return float(green_module._tau_integral(rho2, rho2, a2, kernel)[0])


def _radial_kernel(r, s, params):
    """K(r, s) = |S^(N-1)| Kbar(r, s), Kbar by _sphere_mean as assemble
    evaluates it."""
    kernel = green_module._kernel(params.dim, params.alpha)
    kbar = green_module._sphere_mean(np.array([r]), np.array([s]), kernel)[0]
    return surface_area(params.dim) * float(kbar)


def _kernel_oracle(x, y, params):
    """High-precision point kernel via the regularized incomplete beta."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    d2 = mpmath.mpf(float(np.sum((x - y) ** 2)))
    r0 = (1 - mpmath.mpf(float(x @ x))) * (1 - mpmath.mpf(float(y @ y))) / d2
    a, b = params.alpha, params.dim / 2.0 - params.alpha
    frac = mpmath.betainc(a, b, 0, r0 / (1 + r0), regularized=True)
    c_fund = params.c_fund
    return float(c_fund * d2 ** mpmath.mpf(params.alpha - params.dim / 2.0) * frac)


def test_point_kernel_matches_high_precision_route(params0):
    pairs = [
        ([0.3, 0.0], [0.0, 0.0]),
        ([0.3, 0.0], [0.1, 0.2]),
        ([0.7, 0.1], [-0.2, 0.5]),
        ([0.05, 0.0], [0.0, 0.04]),
        ([0.9, 0.3], [0.85, 0.25]),
    ]
    for x, y in pairs:
        got = _point_kernel(np.array(x), np.array(y), params0)
        assert got == pytest.approx(_kernel_oracle(x, y, params0), rel=1e-12)


def test_point_kernel_half_order_elementary_form(params_half):
    # At order 1/2 in the plane the kernel collapses to
    # arctan(sqrt(r0)) / (pi^2 |x-y|), an elementary expression
    # independent of any special-function code.
    pairs = [([0.4, 0.0], [0.1, 0.1]), ([0.2, 0.5], [-0.3, 0.1])]
    for x, y in pairs:
        x, y = np.array(x), np.array(y)
        d = float(np.linalg.norm(x - y))
        r0 = (1.0 - float(x @ x)) * (1.0 - float(y @ y)) / d**2
        expected = math.atan(math.sqrt(r0)) / (math.pi**2 * d)
        assert _point_kernel(x, y, params_half) == pytest.approx(expected, rel=1e-12)


def test_point_kernel_symmetry_and_boundary_decay(params0, rng):
    for _ in range(20):
        x = rng.uniform(-0.6, 0.6, 2)
        y = rng.uniform(-0.6, 0.6, 2)
        if np.allclose(x, y):
            continue
        assert _point_kernel(x, y, params0) == pytest.approx(
            _point_kernel(y, x, params0), rel=1e-12
        )
    # kernel vanishes as the source approaches the boundary sphere.
    near = _point_kernel(np.array([0.999, 0.0]), np.array([0.2, 0.0]), params0)
    far = _point_kernel(np.array([0.6, 0.0]), np.array([0.2, 0.0]), params0)
    assert 0.0 < near < 0.05 * far


def test_radial_kernel_matches_angular_quadrature(params0):
    # Independent route: adaptive quadrature of the point kernel over
    # the circle, including a near-diagonal pair where the angular
    # integrand has an |r - s|-scale cusp.
    def oracle(r, s):
        def integrand(theta):
            y = np.array([s * math.cos(theta), s * math.sin(theta)])
            return _point_kernel(np.array([r, 0.0]), y, params0)

        val, err = quad(integrand, 0.0, 2.0 * math.pi, limit=400)
        return val

    for r, s in [(0.5, 0.3), (0.1, 0.7), (0.45, 0.5), (0.5, 0.498)]:
        assert _radial_kernel(r, s, params0) == pytest.approx(
            oracle(r, s), rel=1e-8
        )


def test_coarse_grid_has_no_origin_window(params0):
    grid = make_grid(16, grading=8.0, dim=params0.dim)
    with pytest.raises(ParameterError, match="near the origin"):
        _origin_window(grid)


def test_dirac_profile_matches_incomplete_beta_route(params0):
    grid = make_grid(120, dim=params0.dim)
    g = dirac_profile(grid, params0)
    a, b = params0.alpha, params0.dim / 2.0 - params0.alpha
    c_fund = params0.c_fund
    for i in range(0, grid.n, 17):
        r = grid.nodes[i]
        # form 1 - r^2 in extended precision: in double it loses the
        # low bits that the beta function amplifies near 1.
        x = 1 - mpmath.mpf(float(r)) ** 2
        frac = mpmath.betainc(a, b, 0, x, regularized=True)
        expected = float(c_fund * r ** params0.singular_exponent * frac)
        assert g[i] == pytest.approx(expected, rel=1e-12)


def test_dirac_profile_origin_approach(params0):
    # The column approaches c_fund * r^{2 alpha - N} from below: the
    # ratio is bounded by 1 at every node, increases monotonically
    # toward the origin, and its deficit follows the predicted
    # r^{N - 2 alpha} rate with the explicit leading coefficient.
    grid = default_grid(params0, n_nodes=400)
    g = dirac_profile(grid, params0)
    ratio = g * grid.nodes ** (-params0.singular_exponent) / params0.c_fund
    assert np.all(ratio <= 1.0 + 1e-12)
    assert np.all(np.diff(ratio) < 0.0)
    assert ratio[0] >= 0.995

    a, b = params0.alpha, params0.dim / 2.0 - params0.alpha
    rate = params0.dim - 2.0 * params0.alpha
    lead = 1.0 / (b * float(mpmath.beta(b, a)))
    small = grid.nodes <= 1e-3
    assert small.sum() >= 8
    predicted = 1.0 - lead * grid.nodes[small] ** rate
    assert np.max(np.abs(ratio[small] - predicted)) <= 1e-6


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
@pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.75, 0.95])
def test_dirac_columns_match_the_incomplete_beta_route(dim, alpha):
    # The closed forms c_fund r^(2 alpha-N) I_{1-r^2}(alpha, b) and
    # -c_fund r^(2 alpha-N) I_{r^2}(b, alpha), b = N/2 - alpha, through
    # scipy's betainc, each on the side of r^2 = 1/2 where it takes the
    # smaller argument (by I_x(a, b) = 1 - I_{1-x}(b, a) on the other).
    # 1 - r^2 is (1-r)(1+r): 1 - r*r, with a relative error of up to
    # 1e-16 / (1-r), would cost both routes up to 3e-10 at alpha = 0.1.
    params = ProblemParams(dim=dim, alpha=alpha)
    grid = default_grid(params, n_nodes=200)
    b = dim / 2.0 - alpha
    r = grid.nodes
    rr, gap = r * r, (1.0 - r) * (1.0 + r)
    small = rr <= 0.5
    singular = params.c_fund * r**params.singular_exponent
    column = singular * np.where(
        small, 1.0 - betainc(b, alpha, rr), betainc(alpha, b, gap)
    )
    remainder = -singular * np.where(
        small, betainc(b, alpha, rr), 1.0 - betainc(alpha, b, gap)
    )
    for got, want in (
        (dirac_profile(grid, params), column),
        (dirac_smooth_remainder(grid, params), remainder),
    ):
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-13


@pytest.mark.parametrize(
    "dim, alpha", [(2, 0.75), (2, 0.1), (2, 0.95), (3, 0.5), (5, 0.3)]
)
def test_dirac_smooth_remainder_matches_the_30_digit_tail(dim, alpha):
    # Minus the tail kappa int_{1-r^2}^inf tau^(alpha-1) (r^2 + tau)^(-N/2)
    # dtau of the Riesz integral, by tanh-sinh quadrature in u = ln tau,
    # where the integrand decays like exp(-(N/2 - alpha) u).
    params = ProblemParams(dim=dim, alpha=alpha)
    radii = np.array([1e-8, 1e-4, 0.5, 1.0 - 1e-6])
    grid = dataclasses.replace(make_grid(16, dim=dim), nodes=radii)
    got = dirac_smooth_remainder(grid, params)
    with mpmath.workdps(30):
        a, half = mpmath.mpf(alpha), mpmath.mpf(dim) / 2
        kappa = mpmath.gamma(half - a) / (
            4**a * mpmath.pi**half * mpmath.gamma(a) * mpmath.beta(a, half - a)
        )
        for r, value in zip(radii, got):
            rr = mpmath.mpf(float(r)) ** 2
            lo = mpmath.log(1 - rr)
            tail = mpmath.quad(
                lambda u: mpmath.exp(a * u) * (rr + mpmath.exp(u)) ** (-half),
                [lo, lo + 8, mpmath.inf],
            )
            want = float(-kappa * tail)
            assert abs(value - want) <= 1e-13 * abs(want), (r, value, want)


def test_dirac_smooth_remainder_is_exact_complement(params0):
    grid = make_grid(200, dim=2)
    g = dirac_profile(grid, params0)
    rem = dirac_smooth_remainder(grid, params0)
    singular = params0.c_fund * grid.nodes**params0.singular_exponent
    assert np.max(np.abs(g - (singular + rem))) <= 1e-12 * np.max(np.abs(g))


def _torsion_error(op, params):
    # closed-form solution of the unit-source problem on the ball.
    c_t = 1.0 / (
        4.0**params.alpha
        * float(
            mpmath.gamma(params.dim / 2.0 + params.alpha)
            * mpmath.gamma(1.0 + params.alpha)
            / mpmath.gamma(params.dim / 2.0)
        )
    )
    exact = c_t * (1.0 - op.grid.nodes**2) ** params.alpha
    got = op.apply(np.ones(op.n))
    return float(np.max(np.abs(got - exact)) / np.max(exact))


def test_torsion_closed_form(op400, params0, ophalf, params_half):
    assert _torsion_error(op400, params0) <= 5e-4
    assert _torsion_error(ophalf, params_half) <= 1e-3


def test_torsion_error_decreases_with_resolution(op200, op400, params0):
    err_coarse = _torsion_error(op200, params0)
    err_fine = _torsion_error(op400, params0)
    assert err_fine < err_coarse / 2.0


def test_operator_shape_and_positivity(op400, rng):
    assert op400.matrix.shape == (op400.n, op400.n)
    assert np.all(op400.matrix > 0.0)
    assert np.all(op400.dirac_column > 0.0)
    sym = op400.symmetrized()
    assert np.max(np.abs(sym - sym.T)) <= 1e-13 * np.max(np.abs(sym))
    eigs = np.linalg.eigvalsh(0.5 * (sym + sym.T))
    assert eigs.min() > 0.0


def test_operator_keeps_the_exactly_symmetric_kernel(tmp_path, op400, ophalf):
    # assemble symmetrizes Kbar exactly and keeps it: no weight pass
    # follows, and the symmetrized form inherits the symmetry bit for bit.
    path = os.path.join(tmp_path, "op.bin")
    save_operator(op400, path)
    for op in (op400, ophalf, load_operator(path)):
        assert np.array_equal(op.matrix, op.matrix.T)
        assert not op.matrix.flags.writeable
        sym = op.symmetrized()
        assert np.array_equal(sym, sym.T)


@pytest.mark.parametrize("dim, alpha", [(2, 0.75), (2, 0.3), (3, 0.4)])
def test_far_field_entries_are_the_sphere_mean_itself(dim, alpha):
    # Only nodes within _N_CORR_CELLS cells of each other get a corrected
    # entry, averaged with its mirror; every other entry is Kbar(r_i, r_j)
    # as _sphere_mean returns it, with no rounding from a symmetrization.
    params = ProblemParams(dim=dim, alpha=alpha)
    op = assemble(default_grid(params, n_nodes=200), params)
    cells = np.arange(op.n) // GAUSS_PER_CELL
    i, j = np.nonzero(np.abs(cells[:, None] - cells) > green_module._N_CORR_CELLS)
    assert i.size == 34592
    kernel = green_module._kernel(dim, alpha)
    kbar = green_module._sphere_mean(op.grid.nodes[i], op.grid.nodes[j], kernel)
    assert np.array_equal(op.matrix[i, j], kbar)
    assert np.array_equal(op.matrix, op.matrix.T)


def test_apply_is_the_weighted_kernel_product(op400, ophalf, rng):
    # Entrywise worst-case rounding bound of a length-n dot product,
    # 2 n u (|Kbar| @ (w |f|)) with u = 2^-53 (the weights product and
    # the summation), whatever order BLAS sums in.
    u = 2.0**-53
    for op in (op400, ophalf):
        w = op.grid.weights
        for f in (np.ones(op.n), rng.standard_normal(op.n), op.dirac_column):
            ref = (op.matrix * w[None, :]) @ f
            bound = 2.0 * op.n * u * (np.abs(op.matrix) @ (w * np.abs(f)))
            assert np.all(np.abs(op.apply(f) - ref) <= bound)


def test_apply_positivity_preserving(op400, rng):
    for _ in range(5):
        f = rng.uniform(0.0, 1.0, op400.n)
        assert np.all(op400.apply(f) >= 0.0)


def _assemble_with(
    monkeypatch, params, grid, workers, block, points=green_module._PASS_POINTS
):
    monkeypatch.setenv("OMP_NUM_THREADS", str(workers))
    monkeypatch.setattr(green_module, "_BLOCK_SIZE", block)
    monkeypatch.setattr(green_module, "_PASS_POINTS", points)
    return assemble(grid, params)


@pytest.mark.parametrize("dim, alpha", [(2, 0.75), (2, 0.3), (3, 0.4)])
def test_assembly_is_byte_identical_for_any_workers_blocks_and_passes(
    monkeypatch, dim, alpha
):
    # One block and one pass holding every pair and sample is the flat
    # evaluation the blocks replace.  1000 and 4096 leave a partial last
    # block at n=200, and blocks need not start at a multiple of any vector
    # width.  (2, 0.3) takes the steep correction grading and (3, 0.4) the
    # N > 2 integrand.
    params = ProblemParams(dim=dim, alpha=alpha)
    grid = default_grid(params, n_nodes=200)
    ref = _assemble_with(monkeypatch, params, grid, 1, 10**9, 10**9).matrix
    for workers in (1, 2):
        for block in (1000, 4096, 8192):
            got = _assemble_with(monkeypatch, params, grid, workers, block)
            assert got.matrix.tobytes() == ref.tobytes(), (workers, block)
    # Point caps from one entry per pass (every entry has at least 12
    # points) through part of a panel run to one pass per block.
    for points in (1, 1000, 10**9):
        got = _assemble_with(monkeypatch, params, grid, 2, 8192, points)
        assert got.matrix.tobytes() == ref.tobytes(), points
    # More workers than cores, switching threads as often as possible: a
    # lost or torn write into the shared matrix would change its bytes.
    monkeypatch.setattr(green_module, "_worker_count", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = _assemble_with(monkeypatch, params, grid, 8, 257)
    finally:
        sys.setswitchinterval(interval)
    assert got.matrix.tobytes() == ref.tobytes()


@pytest.mark.parametrize("workers", [1, 2])
def test_assembly_reduces_in_chunks_of_whole_pairs(
    monkeypatch, params0, op400, workers
):
    # The correction samples are reduced in chunks of whole (row, cell)
    # pairs of about _BLOCK_SIZE samples.  A block of 7 is smaller than any
    # pair's samples, so each chunk is one pair; 10**9 takes every sample
    # in one chunk.  Both give the bytes of the default blocks.
    sizes = []
    original = green_module._lagrange_rows

    def recording(pts, cell_nodes):
        sizes.append(pts.size)
        return original(pts, cell_nodes)

    monkeypatch.setattr(green_module, "_lagrange_rows", recording)
    cells = np.arange(op400.n) // GAUSS_PER_CELL
    reach = np.abs(cells[:, None] - np.arange(op400.grid.n_cells))
    n_pairs = np.count_nonzero(reach <= green_module._N_CORR_CELLS)
    for block, chunks in ((7, n_pairs), (10**9, 1)):
        sizes.clear()
        got = _assemble_with(monkeypatch, params0, op400.grid, workers, block)
        assert got.matrix.tobytes() == op400.matrix.tobytes(), block
        assert len(sizes) == chunks and min(sizes) > 7, block


def test_assembly_makes_few_integrand_passes(monkeypatch, params0, op400):
    # Each integrand call holds the GIL between NumPy calls, so many small
    # passes make the workers take turns.  Sorted, point-capped tasks of
    # 8192 entries need 215 calls on the pool threads at n=400 (239 while
    # the node pairs of the near-diagonal band were evaluated too);
    # 4096-entry blocks split into one gathered group per panel count
    # needed 392.
    # The Dirac column takes its own passes on the calling thread.
    calls = []
    original = green_module._sphere_mean_integrand

    def counting(*args):
        calls.append(threading.current_thread().name)
        return original(*args)

    monkeypatch.setattr(green_module, "_sphere_mean_integrand", counting)
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    got = assemble(op400.grid, params0)
    assert got.matrix.tobytes() == op400.matrix.tobytes()
    assert got.dirac_column.tobytes() == op400.dirac_column.tobytes()
    pool = [name for name in calls if name.startswith("fracsing-assemble")]
    assert len(pool) == 215
    assert calls.count(threading.main_thread().name) == 9
    assert len(calls) == 215 + 9


def test_kernel_error_names_the_lowest_failing_pair(monkeypatch, params0, op200):
    nodes = op200.grid.nodes
    # Flat pair indices 996 and 16654: blocks 0 and 16 of 1024 pairs.
    low, high = (5, 100), (150, 170)
    high_failed = threading.Event()
    original = green_module._sphere_mean

    def poisoned(r, s, *args):
        vals = original(r, s, *args)
        at_high = (r == nodes[high[0]]) & (s == nodes[high[1]])
        at_low = (r == nodes[low[0]]) & (s == nodes[low[1]])
        if np.any(at_high):
            vals[at_high] = np.nan
            high_failed.set()
        if np.any(at_low):
            vals[at_low] = np.inf
            # Hold the lower block until the higher one has failed.
            high_failed.wait(timeout=10.0)
        return vals

    monkeypatch.setattr(green_module, "_sphere_mean", poisoned)
    with pytest.raises(KernelError, match=r"node pair \(5, 100\)"):
        _assemble_with(monkeypatch, params0, op200.grid, 2, 1024)
    if green_module._worker_count() >= 2:
        assert high_failed.is_set()


def test_failed_assembly_leaves_no_pool_thread(monkeypatch, params0, op200):
    callers = set()

    def failing(r, s, *args):
        callers.add(threading.current_thread())
        return np.full(np.shape(r), np.nan)

    monkeypatch.setattr(green_module, "_sphere_mean", failing)
    before = set(threading.enumerate())
    # Row 0's first pair outside the near-diagonal band.
    with pytest.raises(KernelError, match=r"node pair \(0, 16\)"):
        _assemble_with(monkeypatch, params0, op200.grid, 2, 1024)
    assert callers and threading.main_thread() not in callers
    assert not any(t.is_alive() for t in callers)
    assert set(threading.enumerate()) <= before


def test_assembly_evaluates_each_entry_once(monkeypatch, params0, op400):
    # Each entry has one owner: the kernel at the node pairs more than
    # _N_CORR_CELLS cells apart, product integration on the band.  So
    # 79800 - 5304 = 74496 node pairs reach _sphere_mean at n=400, each
    # once, and no correction sample falls on a node.
    nodes = op400.grid.nodes
    found = []
    original = green_module._sphere_mean

    def recording(r, s, *args):
        on_nodes = np.isin(s, nodes)
        found.append(np.searchsorted(nodes, [r[on_nodes], s[on_nodes]]))
        return original(r, s, *args)

    monkeypatch.setattr(green_module, "_sphere_mean", recording)
    got = _assemble_with(monkeypatch, params0, op400.grid, 2, 8192)
    assert got.matrix.tobytes() == op400.matrix.tobytes()
    i, j = np.concatenate(found, axis=1)
    assert i.size == np.unique(i * op400.n + j).size == 74496
    assert np.all(i < j)
    cells = np.arange(op400.n) // GAUSS_PER_CELL
    assert np.min(cells[j] - cells[i]) == green_module._N_CORR_CELLS + 1


def _poison_corrections(monkeypatch, op, change):
    """Route every near-diagonal sample value through change(r, vals)."""
    nodes = op.grid.nodes
    original = green_module._sphere_mean

    def poisoned(r, s, *args):
        vals = original(r, s, *args)
        samples = ~np.isin(s, nodes)
        vals[samples] = change(r[samples], vals[samples])
        return vals

    monkeypatch.setattr(green_module, "_sphere_mean", poisoned)


def test_non_finite_correction_sample_names_its_row(monkeypatch, params0, op200):
    row = op200.grid.nodes[37]
    _poison_corrections(
        monkeypatch, op200, lambda r, vals: np.where(r == row, np.nan, vals)
    )
    with pytest.raises(KernelError, match="near the diagonal at row 37,"):
        _assemble_with(monkeypatch, params0, op200.grid, 2, 1024)


@pytest.mark.parametrize("share", [0.5, 2.0])
def test_negative_corrected_mass_is_clipped_or_refused(
    monkeypatch, params0, op200, share
):
    # Scaling every near-diagonal sample by -eps turns each band entry
    # into -eps times its unpoisoned value, so the negative mass is eps
    # times the band's sum; the matrix scale is the largest entry off the band.  At
    # half the 1e-8 tolerance the band is clipped to zero, at twice it
    # assembly refuses.
    cells = np.arange(op200.n) // GAUSS_PER_CELL
    band = np.abs(cells[:, None] - cells) <= green_module._N_CORR_CELLS
    eps = share * 1e-8 * op200.matrix[~band].max() / op200.matrix[band].sum()
    _poison_corrections(monkeypatch, op200, lambda r, vals: -eps * vals)
    if share > 1.0:
        with pytest.raises(KernelError, match="negative kernel mass"):
            _assemble_with(monkeypatch, params0, op200.grid, 2, 1024)
        return
    got = _assemble_with(monkeypatch, params0, op200.grid, 2, 1024).matrix
    assert np.all(got[band] == 0.0)
    assert got[~band].tobytes() == op200.matrix[~band].tobytes()
    assert np.array_equal(got, got.T) and got.min() == 0.0


def test_assembly_peak_memory_is_bounded(monkeypatch, params0, op400):
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    tracemalloc.start()
    try:
        assemble(op400.grid, params0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # About 70 MB when every pair was evaluated in one flat batch.
    assert peak <= 40 * 2**20


def test_assembly_transient_memory_is_small_beside_the_matrix(
    monkeypatch, params0, op800
):
    # Reducing the correction samples in one pass kept (samples, 4)
    # temporaries: 14.8 MiB beyond the matrix at n=800, 29.6 at n=1600.
    # In chunks, the transient beyond the matrix is about 9.5 MiB here.
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    tracemalloc.start()
    try:
        assemble(op800.grid, params0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= op800.matrix.nbytes + 12 * 2**20


def _mp_sphere_mean(r, s, dim, alpha):
    """30-digit Kbar(r, s) = kappa int_0^a2 tau^(alpha-1) M(tau) dtau, M the
    closed-form sphere mean, by tanh-sinh quadrature: in v = tau^alpha
    below min((r-s)^2, a2), and in u = ln tau on pieces of length 8 above."""
    with mpmath.workdps(30):
        r, s, a = mpmath.mpf(r), mpmath.mpf(s), mpmath.mpf(alpha)
        d2, q2 = (r - s) ** 2, (r + s) ** 2
        a2 = (1 - r * r) * (1 - s * s)

        def mean(t):
            p, q = d2 + t, q2 + t
            return (2 / (mpmath.sqrt(p) + mpmath.sqrt(q))) ** (dim - 2) / mpmath.sqrt(
                p * q
            )

        t_lo = min(d2, a2)
        total = mpmath.quad(lambda v: mean(v ** (1 / a)), [0, t_lo**a]) / a
        if a2 > t_lo:
            lo, hi = mpmath.log(t_lo), mpmath.log(a2)
            cuts = mpmath.linspace(lo, hi, int(mpmath.ceil((hi - lo) / 8)) + 1)
            total += mpmath.quad(lambda u: mpmath.exp(a * u) * mean(mpmath.exp(u)), cuts)
        half = mpmath.mpf(dim) / 2
        kappa = mpmath.gamma(half - a) / (
            4**a * mpmath.pi**half * mpmath.gamma(a) * mpmath.beta(a, half - a)
        )
        return kappa * total


def test_sphere_mean_closed_form_matches_the_angular_average():
    # The integrand of the tau rule against a direct average over the
    # sphere: (1/|S^(N-2)|) int_0^pi (r^2 + s^2 - 2 r s cos t + tau)^(-N/2)
    # sin^(N-2) t dt, normalized by the same integral of sin^(N-2).
    for dim in (2, 3, 4, 5):
        for r, s, tau in ((0.3, 0.5, 0.01), (0.7, 0.69, 1e-6), (0.1, 0.9, 0.5)):
            with mpmath.workdps(30):
                rm, sm = mpmath.mpf(r), mpmath.mpf(s)

                def integrand(t):
                    chord = rm * rm + sm * sm - 2 * rm * sm * mpmath.cos(t) + tau
                    return chord ** (-mpmath.mpf(dim) / 2) * mpmath.sin(t) ** (dim - 2)

                # Cuts resolve the peak at t = 0, of width about 1e-3.
                cuts = [0, 1e-3, 1e-2, 0.1, mpmath.pi]
                want = mpmath.quad(integrand, cuts) / mpmath.quad(
                    lambda t: mpmath.sin(t) ** (dim - 2), [0, mpmath.pi]
                )
            got = green_module._sphere_mean_integrand(
                np.array([tau]), (r - s) ** 2, (r + s) ** 2, dim
            )[0]
            assert got == pytest.approx(float(want), rel=1e-14), (dim, r, s, tau)


# (alpha, n) of default grids whose last three nodes the kernel test
# adds, per dimension.
_LAST_NODE_GRIDS = {2: ((0.3, 200), (0.75, 400)), 3: ((0.4, 800),)}


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_radial_kernel_matches_30_digit_quadrature(dim):
    # |r - s| log-uniform from 1e-15 (correction samples sit 4 ulp from
    # their node) to 0.3, and each pair of the last three nodes of default
    # grids, where forming 1 - r^2 as 1 - r*r cost up to 3e-11.
    rng = np.random.default_rng(dim)
    surf = float(2 * mpmath.pi ** (mpmath.mpf(dim) / 2) / mpmath.gamma(dim / 2))
    cases = []
    for alpha in (0.05, 0.3, 0.4, 0.6, 0.75, 0.9):
        for gap in 10.0 ** rng.uniform(-15.0, math.log10(0.3), 3):
            r = rng.uniform(0.01, 0.99)
            cases.append((alpha, r, r + gap if r + gap < 1.0 else r - gap))
    for alpha, n in _LAST_NODE_GRIDS.get(dim, ()):
        last = default_grid(ProblemParams(dim=dim, alpha=alpha), n_nodes=n).nodes[-3:]
        cases += [(alpha, r, s) for r, s in itertools.combinations(last.tolist(), 2)]
    for alpha, r, s in cases:
        exact = surf * _mp_sphere_mean(r, s, dim, alpha)
        got = _radial_kernel(r, s, ProblemParams(dim=dim, alpha=alpha))
        assert abs(got - exact) <= 1e-13 * exact, (alpha, r, s)


def test_point_kernel_near_the_diagonal_where_betainc_is_off(params0):
    # z = a2 / (a2 + |x-y|^2) within 2e-10 to 1e-16 of 1, where the
    # incomplete-beta form c_fund |x-y|^(2 alpha-N) betainc(alpha,
    # N/2-alpha, z) is off by 2e-10 to 1e-5 (z rounds, and betainc loses
    # digits there); the tau rule never forms z.
    x = np.array([0.3, 0.2])
    for gap in (1e-5, 1e-6, 1e-7, 1e-8):
        y = x + np.array([gap, -0.5 * gap])
        assert _point_kernel(x, y, params0) == pytest.approx(
            _kernel_oracle(x, y, params0), rel=1e-13
        )


def _lagrange_loop(pts, nodes4):
    """Per-cell Lagrange basis with scalar denominators."""
    out = np.empty((pts.size, 4))
    for j in range(4):
        num = np.ones_like(pts)
        den = 1.0
        for l in range(4):
            if l == j:
                continue
            num *= pts - nodes4[l]
            den *= nodes4[j] - nodes4[l]
        out[:, j] = num / den
    return out


def test_lagrange_rows_match_the_per_cell_loop(op200, rng):
    cell_nodes = op200.grid.nodes.reshape(-1, 4)
    cells = rng.integers(0, cell_nodes.shape[0], 300)
    pts = rng.uniform(0.0, 1.0, 300)
    want = np.concatenate(
        [_lagrange_loop(pts[k : k + 1], cell_nodes[c]) for k, c in enumerate(cells)]
    )
    got = green_module._lagrange_rows(pts, cell_nodes[cells])
    assert got.tobytes() == want.tobytes()


def _cell_samples(r_i, a, b, gamma, boundary_gamma):
    """Per-(row, cell) graded samples, one cell at a time."""
    t, tw = green_module._SUB_T, green_module._SUB_TW
    d0 = 1.0 - r_i

    def cusp(near, far):
        sign = 1.0 if far > r_i else -1.0
        v_lo = np.arcsinh(abs(near - r_i) / d0)
        v_hi = np.arcsinh(abs(far - r_i) / d0)
        v = v_lo + (v_hi - v_lo) * t**gamma
        delta = np.maximum(d0 * np.sinh(v), 4.0 * np.spacing(abs(r_i)))
        wts = d0 * np.cosh(v) * (v_hi - v_lo) * gamma * t ** (gamma - 1.0) * tw
        return r_i + sign * delta, wts

    def graded(far):
        span = far - 1.0
        return 1.0 + span * t**boundary_gamma, abs(span) * boundary_gamma * t ** (
            boundary_gamma - 1.0
        ) * tw

    if a < r_i < b:
        sides = [(r_i, a), (r_i, b)]
    elif r_i >= b:
        sides = [(b, a)]
    else:
        sides = [(a, b)]
    pieces = []
    for near, far in sides:
        if boundary_gamma is not None and far == b and b == 1.0:
            split = near + 0.7 * (1.0 - near)
            pieces += [cusp(near, split), graded(split)]
        else:
            pieces.append(cusp(near, far))
    return [np.concatenate(arrays) for arrays in zip(*pieces)]


@pytest.mark.parametrize("dim, alpha", [(2, 0.75), (3, 0.3)])
def test_correction_samples_match_the_per_cell_loop(dim, alpha):
    grid = default_grid(ProblemParams(dim=dim, alpha=alpha), n_nodes=200)
    gamma = max(3.0, 3.0 / (2.0 * alpha))
    boundary_gamma = max(2.0, 3.0 / (1.0 + alpha))
    n_cells, q = grid.n_cells, GAUSS_PER_CELL
    rows, cells, want = [], [], []
    for i in range(grid.n):
        for c in range(max(0, i // q - 3), min(n_cells, i // q + 4)):
            rows.append(i)
            cells.append(c)
            want.append(
                _cell_samples(
                    grid.nodes[i],
                    float(grid.cell_edges[c]),
                    float(grid.cell_edges[c + 1]),
                    gamma,
                    boundary_gamma if c == n_cells - 1 else None,
                )
            )
    rows, cells = np.array(rows), np.array(cells)
    pts, wts, lens = green_module._correction_samples(
        grid.nodes[rows],
        grid.cell_edges[cells],
        grid.cell_edges[cells + 1],
        cells == n_cells - 1,
        gamma,
        boundary_gamma,
    )
    assert lens.tolist() == [p.size for p, _ in want]
    assert pts.tobytes() == np.concatenate([p for p, _ in want]).tobytes()
    assert wts.tobytes() == np.concatenate([w for _, w in want]).tobytes()
    # Pairs of the last cell carry the boundary piece: 40 or 60 samples.
    assert set(lens[cells == n_cells - 1].tolist()) == {40, 60}


def test_measured_c2_stable_under_refinement(op400, op800):
    # p = 3.5 lies above 2 alpha / (N - 2 alpha) = 3, where the composed
    # profile G[g^p] itself blows up at the origin and c2 converges
    # slowly: it moves by 2.8% from n = 400 to 800.
    for p, rel in ((2.0, 1e-4), (3.5, 0.05)):
        params = ProblemParams(dim=2, alpha=0.75, p=p, k=0.0)
        c2 = measured_c2(params, op400)
        c2_fine = measured_c2(params, op800)
        assert c2 > 0.0
        assert abs(c2 - c2_fine) <= rel * c2


def test_compose_regimes(op400):
    # Above p = 2 alpha / (N - 2 alpha) = 3 the composed profile G[g^p]
    # grows like r^(p (2 alpha - N) + 2 alpha) = r^-0.25 at p = 3.5.
    idx = _origin_window(op400.grid)
    prof = op400.apply(op400.dirac_column**3.5)[idx]
    slope = np.polyfit(np.log(op400.grid.nodes[idx]), np.log(prof), 1)[0]
    assert slope == pytest.approx(-0.25, abs=0.05)


def test_cholesky_is_factored_once_and_kept(op400):
    factor = op400.cholesky()
    assert op400.cholesky() is factor
    expected = np.triu(linalg.cho_factor(op400.symmetrized())[0])
    assert factor.tobytes() == expected.tobytes()
    # Fortran order, as BLAS triangular products read it without a copy.
    assert factor.flags.f_contiguous and not factor.flags.writeable
    assert not np.any(np.tril(factor, -1))
    # Another matrix is another instance, which factors again.
    scaled = dataclasses.replace(op400, matrix=1.01 * op400.matrix)
    other = scaled.cholesky()
    assert other is not factor and other.tobytes() != factor.tobytes()


def test_cholesky_of_an_indefinite_matrix_raises_every_time(op400):
    signs = np.ones(op400.n)
    signs[op400.n // 2] = -1.0
    indefinite = dataclasses.replace(op400, matrix=np.diag(signs))
    for _ in range(2):
        with pytest.raises(ConvergenceError, match="not positive definite"):
            indefinite.cholesky()


def _peak_in_squares(fn, n):
    """Allocation peak of fn() in units of n x n double arrays."""
    return _allocation_in_squares(fn, n)[0]


def _allocation_in_squares(fn, n):
    """(peak, kept) allocations of fn() in units of n x n double arrays;
    kept is what stays allocated while its result is held."""
    tracemalloc.start()
    try:
        result = fn()
        kept, peak = tracemalloc.get_traced_memory()
        del result
    finally:
        tracemalloc.stop()
    return peak / (8.0 * n * n), kept / (8.0 * n * n)


def test_factor_users_allocate_no_matrix_sized_transients(op400, umin_mid):
    # The first factorisation allocates one n x n array, the symmetrized
    # matrix, and factors it in place (1.13 measured; 2.1 when it was
    # averaged with its transpose in a second array, 3.0 with copies).
    # Later users read the kept factor (0.03 and 0.12 measured; 3.0 when
    # each refactored).  The energy form takes the 1-norm of S from one
    # product with the nonnegative kernel and keeps vectors only (0.02 and
    # 0.01 measured; 1.10 and 0.01 when it formed |S|, 1.31 and 1.01 when
    # it formed and kept the inverse A).
    params, u = umin_mid
    op = dataclasses.replace(op400)
    assert _peak_in_squares(op.cholesky, op.n) <= 2.5
    peak, kept = _allocation_in_squares(lambda: build_form(op), op.n)
    assert peak <= 0.05
    assert kept < 0.05
    assert _peak_in_squares(lambda: standard_battery(op), op.n) <= 0.5
    assert _peak_in_squares(lambda: sigma1_rayleigh(u, params, op), op.n) <= 0.5


def test_save_load_roundtrip(tmp_path, op400):
    # The file holds the matrix only; the grid and the Dirac column are
    # rebuilt from the header's spec, bit for bit.
    path = os.path.join(tmp_path, "op.bin")
    save_operator(op400, path)
    assert os.path.getsize(path) > 8 * op400.n**2
    assert os.path.getsize(path) < 8 * op400.n**2 + 400
    back = load_operator(path)
    assert back.dim == op400.dim and back.alpha == op400.alpha
    assert back.matrix.tobytes() == op400.matrix.tobytes()
    assert back.dirac_column.tobytes() == op400.dirac_column.tobytes()
    for name in ("nodes", "weights", "cell_edges"):
        assert getattr(back.grid, name).tobytes() == getattr(op400.grid, name).tobytes()
    for name in ("dim", "grading", "boundary_grading"):
        assert getattr(back.grid, name) == getattr(op400.grid, name)
    for arr in (back.matrix, back.dirac_column, back.grid.nodes):
        assert not arr.flags.writeable


@pytest.mark.parametrize(
    "field, value",
    [
        ("format_version", None),
        ("dim", 3),
        ("dim", "two"),
        ("alpha", 0.5),
        ("alpha", None),
        ("n_nodes", 396),
        ("grading", 2.5),
        ("boundary_grading", 3.0),
        ("sha256", "0" * 64),
    ],
)
def test_load_rejects_an_edited_header_field(tmp_path, op400, field, value):
    # One checksum covers every header field and the matrix, so a header
    # that no longer describes the matrix is refused before it is read.
    path = os.path.join(tmp_path, "op.bin")
    save_operator(op400, path)
    with open(path, "rb") as fh:
        line, _, payload = fh.read().partition(b"\n")
    header = dict(json.loads(line))
    header.pop(field)
    for edited in (header, dict(header, **{field: value})):
        with open(path, "wb") as fh:
            fh.write(json.dumps(edited).encode() + b"\n" + payload)
        if field == "format_version":
            match = "unsupported operator file version"
        else:
            match = "checksum mismatch"
        with pytest.raises(ParameterError, match=match):
            load_operator(path)


def test_load_rejects_corrupted_payload(tmp_path, op400):
    path = os.path.join(tmp_path, "op.bin")
    save_operator(op400, path)
    with open(path, "rb") as fh:
        blob = bytearray(fh.read())
    blob[-5] ^= 0xFF
    with open(path, "wb") as fh:
        fh.write(bytes(blob))
    with pytest.raises(ParameterError):
        load_operator(path)


@pytest.mark.parametrize("bad", [-1e-300, np.nan, np.inf])
def test_load_rejects_a_negative_or_non_finite_kernel_entry(tmp_path, op400, bad):
    # The assembled kernel is finite and nonnegative, which build_form's
    # 1-norm and every product rely on; a file that breaks it is refused,
    # checksum or not.  A NaN fails both min() < 0 and max() < 0.
    assert np.min(op400.matrix) >= 0.0 and np.all(np.isfinite(op400.matrix))
    matrix = op400.matrix.copy()
    matrix[3, 5] = matrix[5, 3] = bad
    path = os.path.join(tmp_path, "op.bin")
    save_operator(dataclasses.replace(op400, matrix=matrix), path)
    with pytest.raises(ParameterError, match="negative or non-finite kernel entry"):
        load_operator(path)


def test_load_rejects_truncated_file(tmp_path, op400):
    path = os.path.join(tmp_path, "op.bin")
    save_operator(op400, path)
    with open(path, "rb") as fh:
        blob = fh.read()
    with open(path, "wb") as fh:
        fh.write(blob[: len(blob) // 2])
    with pytest.raises(ParameterError):
        load_operator(path)


def test_load_rejects_bytes_after_the_matrix(tmp_path, op400):
    path = os.path.join(tmp_path, "op.bin")
    save_operator(op400, path)
    with open(path, "ab") as fh:
        fh.write(b"\x00" * 3)
    with pytest.raises(ParameterError, match="checksum mismatch"):
        load_operator(path)


def test_assembly_rejects_a_grid_of_another_dimension(params0, monkeypatch):
    def no_kernel(*args):
        raise AssertionError("the kernel was built before the grid was checked")

    monkeypatch.setattr(green_module, "_kernel", no_kernel)
    grid = make_grid(16, dim=3)
    with pytest.raises(ParameterError, match="grid dimension 3 does not match"):
        assemble(grid, params0)


def test_default_grid_follows_params(params0):
    grid = default_grid(params0, n_nodes=240)
    assert grid.n == 240
    assert grid.dim == params0.dim
