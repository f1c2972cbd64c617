"""Constants, parameter validation, grids, and radial profiles."""

import math
import os

import mpmath
import numpy as np
import pytest

from fracsing.core import (
    ParameterError,
    ProblemParams,
    RadialFunction,
    fundamental_constant,
    make_grid,
    surface_area,
    write_atomic,
)

mpmath.mp.dps = 40


def test_surface_area_and_volume_known_dimensions():
    assert surface_area(2) == pytest.approx(2.0 * math.pi, rel=1e-15)
    assert surface_area(3) == pytest.approx(4.0 * math.pi, rel=1e-15)
    # The unit ball's volume is |S^(dim-1)| / dim.
    assert surface_area(2) / 2 == pytest.approx(math.pi, rel=1e-15)
    assert surface_area(3) / 3 == pytest.approx(4.0 * math.pi / 3.0, rel=1e-15)


def test_fundamental_constant_against_high_precision_route():
    # Independent route: mpmath gamma evaluation at 40 digits.
    for dim, alpha in [(2, 0.75), (2, 0.5), (3, 0.6), (3, 0.25), (4, 0.9)]:
        expected = mpmath.gamma(dim / 2.0 - alpha) / (
            mpmath.mpf(4) ** alpha
            * mpmath.pi ** (dim / 2.0)
            * mpmath.gamma(alpha)
        )
        assert fundamental_constant(dim, alpha) == pytest.approx(
            float(expected), rel=1e-14
        )


def test_fundamental_constant_half_order_closed_forms():
    # alpha = 1/2 collapses to elementary values: 1/(2 pi) in the plane,
    # 1/(2 pi^2) in space.
    assert fundamental_constant(2, 0.5) == pytest.approx(
        1.0 / (2.0 * math.pi), rel=1e-14
    )
    assert fundamental_constant(3, 0.5) == pytest.approx(
        1.0 / (2.0 * math.pi**2), rel=1e-14
    )


def test_params_validation_rejects_bad_inputs():
    with pytest.raises(ParameterError):
        ProblemParams(dim=2, alpha=1.0, p=2.0, k=0.0)
    with pytest.raises(ParameterError):
        ProblemParams(dim=2, alpha=0.0, p=2.0, k=0.0)
    with pytest.raises(ParameterError):
        ProblemParams(dim=1, alpha=0.5, p=2.0, k=0.0)
    with pytest.raises(ParameterError):
        ProblemParams(dim=2, alpha=0.75, p=1.0, k=0.0)
    with pytest.raises(ParameterError):
        ProblemParams(dim=2, alpha=0.75, p=2.0, k=-0.1)
    # An infinite p or k passed the old "p > 1" and "k >= 0" tests.
    for p, k in ((math.inf, 0.0), (2.0, math.inf), (math.nan, 0.0), (2.0, math.nan)):
        with pytest.raises(ParameterError, match="must be finite"):
            ProblemParams(dim=2, alpha=0.75, p=p, k=k)


def test_params_derived_quantities():
    params = ProblemParams(dim=2, alpha=0.75, p=2.0, k=0.3)
    assert params.critical_p == pytest.approx(4.0, rel=1e-15)
    assert params.subcritical
    assert params.singular_exponent == pytest.approx(-0.5, rel=1e-15)
    assert params.c_fund == fundamental_constant(2, 0.75)

    sup = ProblemParams(dim=2, alpha=0.6, p=6.0, k=0.0)
    assert sup.critical_p == pytest.approx(2.5, rel=1e-15)
    assert not sup.subcritical


def test_with_k_replaces_only_k():
    params = ProblemParams(dim=3, alpha=0.8, p=2.5, k=0.0)
    moved = params.with_k(0.7)
    assert moved.k == 0.7
    assert (moved.dim, moved.alpha, moved.p) == (3, 0.8, 2.5)
    assert params.k == 0.0


def test_grid_weights_recover_ball_volume():
    for dim in (2, 3):
        grid = make_grid(400, dim=dim)
        # weights quadrate |S^{dim-1}| r^{dim-1} dr, so the total mass is
        # the ball volume exactly up to the rule's polynomial precision.
        assert grid.weights @ np.ones(grid.n) == pytest.approx(
            surface_area(dim) / dim, rel=1e-12
        )


def test_grid_quadrature_matches_antiderivatives():
    grid = make_grid(400, dim=2)
    r = grid.nodes
    # integral over the ball of r^2 is 2 pi / 4; of (1 - r^2) is pi / 2.
    assert grid.weights @ r**2 == pytest.approx(2.0 * math.pi / 4.0, rel=1e-12)
    assert grid.weights @ (1.0 - r**2) == pytest.approx(math.pi / 2.0, rel=1e-12)
    # graded mesh handles an integrable singularity r^{-1/2} well.
    exact = 2.0 * math.pi / 1.5
    assert grid.weights @ r**-0.5 == pytest.approx(exact, rel=1e-6)


def test_grid_structure():
    grid = make_grid(400, grading=2.0, dim=2)
    r = grid.nodes
    assert grid.n == 400
    assert np.all(np.diff(r) > 0.0)
    assert 0.0 < r[0] and r[-1] < 1.0
    # grading clusters nodes at the origin: the innermost cell is far
    # shorter than the uniform width.
    widths = np.diff(grid.cell_edges)
    assert widths[0] < 0.1 / grid.n_cells


def test_grid_rejects_bad_sizes():
    with pytest.raises(ParameterError):
        make_grid(0)
    with pytest.raises(ParameterError):
        make_grid(6)  # fewer nodes than a single quadrature cell


@pytest.mark.parametrize(
    "options, message",
    [
        ({"grading": 0.5}, "^grading must be >= 1, got 0.5"),
        ({"boundary_grading": 0.5}, "^boundary_grading must be >= 1, got 0.5"),
        ({"dim": 1}, "^dimension must be an integer >= 2, got 1"),
    ],
    ids=["grading", "boundary-grading", "dim-1"],
)
def test_grid_rejects_flat_gradings_and_dimension_one(options, message):
    with pytest.raises(ParameterError, match=message):
        make_grid(400, **options)


@pytest.mark.parametrize(
    "dim, n_nodes, grading, boundary_grading",
    [(3, 1600, 6.67, 6.67), (2, 400, 2.0, 20.0)],
    ids=["3-0.6-grading-6.67-n1600", "2-0.05-n400"],
)
def test_grid_rejects_nodes_that_collide_in_double_precision(
    dim, n_nodes, grading, boundary_grading
):
    # The last cell is narrower than the spacing of doubles near r = 1.
    with pytest.raises(ParameterError, match=r"strictly increasing inside \(0, 1\)"):
        make_grid(n_nodes, grading, dim=dim, boundary_grading=boundary_grading)


def test_radial_function_total():
    grid = make_grid(40)
    smooth = np.linspace(1.0, 2.0, grid.n)
    u = RadialFunction(grid, smooth, singular_coeff=0.3, singular_exponent=-0.5)
    assert np.allclose(u.total, smooth + 0.3 * grid.nodes**-0.5)


def test_radial_function_validation():
    grid = make_grid(40)
    with pytest.raises(ParameterError):
        RadialFunction(grid, np.ones(grid.n), singular_coeff=-1.0,
                       singular_exponent=-0.5)
    with pytest.raises(ParameterError):
        RadialFunction(grid, np.ones(grid.n), singular_coeff=1.0,
                       singular_exponent=0.5)
    with pytest.raises(ParameterError, match=r"values shape \(39,\) does not match"):
        RadialFunction(grid, np.ones(grid.n - 1))


def test_radial_function_nonnegativity_slack():
    grid = make_grid(40)
    dip = np.full(grid.n, 1.0)
    dip[3] = -1e-13
    u = RadialFunction(grid, dip)
    assert not u.is_nonnegative()
    assert u.is_nonnegative(slack=1e-12)
    assert RadialFunction.zero(grid).is_nonnegative()


@pytest.mark.parametrize("fail", ["write", "replace"])
def test_a_failed_atomic_write_keeps_the_old_file_and_no_temporary(
    tmp_path, monkeypatch, fail
):
    # A str cannot be written to the binary temporary file; a failed rename
    # stands for a full disk or a vanished directory.
    target = tmp_path / "out.json"
    target.write_bytes(b"old bytes")
    data = b"new bytes"
    if fail == "write":
        data = "not bytes"
        error = TypeError
    else:
        error = OSError

        def no_replace(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr(os, "replace", no_replace)
    with pytest.raises(error):
        write_atomic(str(target), data)
    assert sorted(path.name for path in tmp_path.iterdir()) == ["out.json"]
    assert target.read_bytes() == b"old bytes"
