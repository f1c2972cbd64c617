"""Energy form, stable nonlinear primitives, and the second solution.

The expensive searches (mountain pass, deflated Newton) run once on the
session fixtures; the tests here verify the critical point from several
independent angles: fixed-point residual, finite-difference criticality,
cross-method agreement, the certified pass geometry, and the
distributional identity of the assembled second solution.
"""

import dataclasses
import math

import mpmath
import numpy as np
import pytest
from scipy import linalg
from scipy.linalg import blas

from fracsing import mountainpass, picard
from fracsing.classify import pairing, standard_battery, verify_weak_identity
from fracsing.core import (
    ConvergenceError,
    ParameterError,
    ProblemParams,
    RadialFunction,
    RegimeError,
    SecondSolutionNotFound,
)
from fracsing.green import assemble, default_grid
from fracsing.mountainpass import (
    _bulk,
    _deflated_newton,
    _direction_ensemble,
    _gradient_values,
    _negative_endpoint,
    _pass_geometry,
    _ray_maximum,
    build_form,
    find_second_solution,
    increment_primitive,
    power_increment,
)
from fracsing.picard import find_kstar, first_eigenpair, iterate_minimal
from fracsing.stability import sigma1, sigma1_rayleigh

mpmath.mp.dps = 40


def _a_norm(form, x):
    """A-norm of a nodal vector: the 2-norm of its energy coordinates."""
    y = form.coordinates(x)
    return math.sqrt(y @ y)


def _energy(vals, u_total, form, params):
    """Shifted energy E(v) = 1/2 ||v||_A^2 - int F(u, v_+) of a nodal vector."""
    y = form.coordinates(vals)
    return 0.5 * float(y @ y) - float(_bulk(vals, u_total, form, params))


# ---------------------------------------------------------------- form


@pytest.fixture(scope="module")
def stiffness400(op400):
    """Reference A = W^(1/2) S^(-1) W^(1/2) of op400, by the copying
    formula and averaged with its transpose; the form never builds it."""
    sqrt_w = np.sqrt(op400.grid.weights)
    x = sqrt_w[:, None] * linalg.cho_solve((op400.cholesky(), False), np.diag(sqrt_w))
    return 0.5 * (x + x.T)


def test_form_is_symmetric_positive_definite(form400, stiffness400, rng):
    # The reference A is symmetric positive definite, and the form's
    # A-norms are positive.
    assert np.array_equal(stiffness400, stiffness400.T)
    for _ in range(100):
        v = rng.standard_normal(stiffness400.shape[0])
        assert float(v @ stiffness400 @ v) > 0.0
        assert _a_norm(form400, v) > 0.0


def test_form_keeps_the_operator_factor_and_vectors(op400, form400):
    # No n x n array of its own: the factor is the operator's kept one,
    # the weights are the grid's, every other field is a vector.
    assert form400.factor is op400.cholesky()
    assert form400.mass is op400.grid.weights
    for field in dataclasses.fields(form400):
        value = getattr(form400, field.name)
        if field.name != "factor":
            assert value.shape == (op400.n,), field.name
    assert not hasattr(form400, "stiffness")


def test_form_norms_and_energies_match_the_reference_matrix(
    umin_mid, op400, form400, stiffness400, rng
):
    params, u_min = umin_mid
    block, _ = _probe_block(u_min, op400, form400, params, rng)
    rows = np.vstack((block, rng.standard_normal((5, op400.n))))
    for v in rows:
        quad = float(v @ stiffness400 @ v)
        assert abs(_a_norm(form400, v) ** 2 - quad) <= 1e-13 * quad
        direct = 0.5 * quad - float(_bulk(v, u_min.total, form400, params))
        energy_v = _energy(v, u_min.total, form400, params)
        assert abs(energy_v - direct) <= 1e-13 * 0.5 * quad


def test_form_rejects_hopeless_conditioning(op400):
    spread = np.diag(np.logspace(0.0, -14.0, op400.n))
    graded = dataclasses.replace(op400, matrix=spread)
    with pytest.raises(ConvergenceError, match="condition number"):
        build_form(graded)
    signs = np.ones(op400.n)
    signs[op400.n // 2] = -1.0
    indefinite = dataclasses.replace(op400, matrix=np.diag(signs))
    with pytest.raises(ConvergenceError, match="not positive definite"):
        build_form(indefinite)


def test_form_battery_and_rayleigh_share_one_factorisation(
    op400, umin_mid, monkeypatch
):
    params, u = umin_mid
    original = linalg.cholesky
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(linalg, "cholesky", counted)
    op = dataclasses.replace(op400)
    build_form(op)
    standard_battery(op)
    for _ in range(3):
        sigma1_rayleigh(u, params, op)
    assert len(calls) == 1


def test_form_rayleigh_minimum_is_first_eigenvalue(op400, form400, stiffness400):
    lam_ref = first_eigenpair(op400)["lambda1"]
    lam_form = linalg.eigh(
        stiffness400,
        np.diag(form400.mass),
        eigvals_only=True,
        subset_by_index=[0, 0],
    )[0]
    assert lam_form == pytest.approx(lam_ref, rel=1e-8)


def test_form_pairs_exactly_with_green_images(op400, form400):
    # v = G[f] turns the energy norm into the plain pairing int f v.
    r = op400.grid.nodes
    w = op400.grid.weights
    for f in (np.ones(op400.n), 1.0 - r**2, np.exp(-3.0 * r**2)):
        v = op400.apply(f)
        quad = _a_norm(form400, v) ** 2
        pair = float(w @ (f * v))
        assert quad == pytest.approx(pair, rel=1e-6)


def test_form_inverts_the_operator_on_smooth_images(op400, form400):
    # A G[f] recovers the weighted density away from the endpoints; A x is
    # W^(1/2) U^(-1) y for the energy coordinates y of x.
    r = op400.grid.nodes
    f = np.exp(-2.0 * r**2)
    y = form400.coordinates(op400.apply(f))
    z = form400.sqrt_w * blas.dtrsv(form400.factor, y)
    rel = np.abs(z / op400.grid.weights - f)[3:-3] / np.max(np.abs(f))
    assert float(np.max(rel)) <= 1e-6


# ---------------------------------------------- nonlinear primitives


def test_power_increment_matches_naive_at_moderate_arguments(rng):
    for p in (2.0, 2.7, 3.5):
        s = rng.uniform(0.5, 3.0, size=200)
        t = rng.uniform(0.0, 2.0, size=200)
        naive = (s + t) ** p - s**p
        got = power_increment(s, t, p)
        assert np.allclose(got, naive, rtol=1e-12, atol=1e-14)


def test_power_increment_edge_cases():
    assert power_increment(1.5, 0.0, 2.0) == 0.0
    assert power_increment(1.5, -3.0, 2.0) == 0.0
    assert power_increment(0.0, 2.0, 2.5) == pytest.approx(2.0**2.5, rel=1e-15)
    np.testing.assert_array_equal(
        power_increment(np.array([1.0, 0.0]), np.array([-1.0, 0.0]), 2.0),
        np.zeros(2),
    )


def test_power_increment_survives_tiny_perturbations():
    # Naive evaluation loses every digit at t ~ 1e-12 s; the stable form
    # must match the two-term expansion p s^(p-1) t (1 + O(t/s)).
    s = np.array([2.0e3, 1.0, 3.7e-4])
    t = 1e-12 * s
    for p in (2.0, 2.7):
        got = power_increment(s, t, p)
        lead = p * s ** (p - 1.0) * t
        assert np.allclose(got, lead, rtol=1e-10)


def test_increment_primitive_quadratic_case_is_exact(rng):
    # p = 2 collapses to F = s t^2 + t^3 / 3, an exact polynomial oracle.
    s = rng.uniform(0.0, 3.0, size=300)
    t = rng.uniform(0.0, 2.0, size=300)
    got = increment_primitive(s, t, 2.0)
    assert np.allclose(got, s * t**2 + t**3 / 3.0, rtol=1e-12, atol=1e-16)


def test_increment_primitive_matches_high_precision_across_cutoff():
    # Sweep t/s through both evaluation branches against a 40-digit
    # oracle; agreement on both sides of the series cutoff near 1e-3
    # also certifies the branches join continuously.
    p = 2.7
    s = 1.3
    taus = np.logspace(-8.0, 0.5, 35)
    taus = np.append(taus, [0.999e-3, 1.001e-3])
    for tau in taus:
        t = s * tau
        sm, tm, pm = mpmath.mpf(s), mpmath.mpf(t), mpmath.mpf(p)
        exact = ((sm + tm) ** (pm + 1) - sm ** (pm + 1) - (pm + 1) * sm**pm * tm) / (
            pm + 1
        )
        got = float(increment_primitive(s, t, p))
        assert got == pytest.approx(float(exact), rel=1e-10)


def test_increment_primitive_basic_shape(rng):
    s = rng.uniform(0.0, 2.0, size=100)
    assert np.all(increment_primitive(s, np.zeros(100), 2.5) == 0.0)
    assert np.all(increment_primitive(s, -np.ones(100), 2.5) == 0.0)
    t = rng.uniform(0.0, 2.0, size=100)
    assert np.all(increment_primitive(s, t, 2.5) >= 0.0)
    assert increment_primitive(0.0, 1.7, 2.5) == pytest.approx(
        1.7**3.5 / 3.5, rel=1e-14
    )


def _masked_power_increment(s, t, p):
    """The kernel as it was before it ran on whole arrays: each branch
    evaluated on the entries that a boolean mask gathers."""
    s, t = np.broadcast_arrays(np.asarray(s, dtype=float), np.asarray(t, dtype=float))
    out = np.zeros(s.shape)
    zero_s = s == 0.0
    pos = (t > 0.0) & ~zero_s
    out[pos] = s[pos] ** p * np.expm1(p * np.log1p(t[pos] / s[pos]))
    out[zero_s & (t > 0.0)] = t[zero_s & (t > 0.0)] ** p
    return out


def _masked_increment_primitive(s, t, p):
    """The primitive as it was before it ran on whole arrays."""
    s, t = np.broadcast_arrays(np.asarray(s, dtype=float), np.asarray(t, dtype=float))
    out = np.zeros(s.shape)
    tp = np.where(t > 0.0, t, 0.0)
    zero_s = s == 0.0
    out[zero_s] = tp[zero_s] ** (p + 1.0) / (p + 1.0)
    pos = ~zero_s & (tp > 0.0)
    sv, tau = s[pos], tp[pos] / s[pos]
    small = tau < 1e-3
    res = np.empty(sv.shape)
    ta, tb = tau[small], tau[~small]
    series = (
        p / 2.0
        + p * (p - 1.0) / 6.0 * ta
        + p * (p - 1.0) * (p - 2.0) / 24.0 * ta**2
    )
    res[small] = sv[small] ** (p + 1.0) * ta**2 * series
    res[~small] = (
        sv[~small] ** (p + 1.0)
        * (np.expm1((p + 1.0) * np.log1p(tb)) - (p + 1.0) * tb)
        / (p + 1.0)
    )
    out[pos] = res
    return out


def _kernel_cases(rng):
    """(s, t) pairs: vectors and (m, n) blocks against a broadcast s, with
    s positive, partly zero and all zero, and t at ratios t/s negative,
    zero, either side of the series cutoff 1e-3 and up to 1e12."""
    cutoff = 1e-3
    ratios = np.array(
        [-5.0, -1.0, -0.5, -0.0, 0.0, 1e-300, 1e-12, 1e-6, 0.999 * cutoff,
         np.nextafter(cutoff, 0.0), cutoff, np.nextafter(cutoff, 1.0),
         1.001 * cutoff, 0.3, 1.0, 7.5, 1e6, 1e12]
    )
    n = 3 * ratios.size
    positive = rng.uniform(1e-4, 3.0, n)
    partly_zero = positive.copy()
    partly_zero[::4] = 0.0
    cases = []
    for s in (positive, partly_zero, np.zeros(n)):
        scale = np.where(s > 0.0, s, 1.0)
        vector = np.resize(ratios, n) * scale
        block = np.array([np.roll(np.resize(ratios, n), i) for i in range(7)]) * scale
        block *= rng.uniform(0.5, 1.5, block.shape)
        cases += [(s, vector), (s, block)]
    return cases


@pytest.mark.parametrize("p", [1.1, 1.5, 2.0, 2.7, 5.0])
def test_kernels_equal_the_masked_formulas_bit_for_bit(rng, p):
    for s, t in _kernel_cases(rng):
        for kernel, reference in (
            (power_increment, _masked_power_increment),
            (increment_primitive, _masked_increment_primitive),
        ):
            got, want = kernel(s, t, p), reference(s, t, p)
            assert got.shape == want.shape == t.shape
            assert got.tobytes() == want.tobytes(), (kernel.__name__, s[0], t.ndim)


def test_increment_primitive_derivative_is_power_increment():
    p = 2.7
    s, t = 1.2, 0.7
    h = 1e-6
    fd = (
        float(increment_primitive(s, t + h, p))
        - float(increment_primitive(s, t - h, p))
    ) / (2.0 * h)
    assert fd == pytest.approx(float(power_increment(s, t, p)), rel=1e-7)


# ------------------------------------------------------------- energy


def test_ray_endpoint_has_nonpositive_energy(umin_mid, op400, form400):
    params, u_min = umin_mid
    t0 = _negative_endpoint(u_min.total, form400, params)
    ray = form400.ray
    assert _a_norm(form400, ray) == pytest.approx(1.0, rel=1e-12)
    base = op400.apply(np.ones(op400.n))
    assert np.max(np.abs(ray - base / _a_norm(form400, base))) <= 1e-15 * np.max(ray)
    assert _energy(t0 * ray, u_min.total, form400, params) <= 0.0
    assert _energy(0.5 * t0 * ray, u_min.total, form400, params) > 0.0


def _probe_block(u_min, op, form, params, rng):
    """Ray points, smoothed noise of both signs and -ray, as rows, with the
    densities whose Green images they are."""
    t0 = _negative_endpoint(u_min.total, form, params)
    ts = np.append(np.linspace(0.05, 0.95, 19) * t0, -1.0)
    noise = rng.standard_normal((6, op.n))
    rows = [t * form.ray for t in ts[:19]]
    rows += [op.apply(g) for g in noise]
    rows.append(-form.ray)
    dens = np.outer(ts, np.full(op.n, 1.0 / float(form.mass @ form.ray)))
    return np.array(rows), np.vstack((dens[:19], noise, dens[19:]))


def _pairings(dens, rows, mass):
    """(w g)' x for each row pair: the A-product of G[g] and x."""
    return np.einsum("ij,ij->i", dens * mass, rows)


def test_block_energies_match_the_vector_loop(umin_mid, op400, form400, rng):
    # The deformation's energies of path vertices v = G[g] from the
    # pairing (w g).v of their kept densities g.
    params, u_min = umin_mid
    u_total = u_min.total
    w = form400.mass
    block, dens = _probe_block(u_min, op400, form400, params, rng)
    loop = np.array([_energy(x, u_total, form400, params) for x in block])
    got = 0.5 * _pairings(dens, block, w) - _bulk(block, u_total, form400, params)
    # Relative to the quadratic part: E itself crosses zero along the ray,
    # where both evaluations carry the rounding of the cancelled terms.
    quad = 0.5 * np.array([_a_norm(form400, x) ** 2 for x in block])
    assert np.all(np.abs(got - loop) <= 1e-13 * quad)


def test_block_norms_match_the_vector_loop(umin_mid, op400, form400, rng):
    # Segment A-norms from the pairing of the differences of kept
    # densities and of their images, as _redistribute takes them.  Both
    # carry the rounding of their endpoints, so the error is bounded
    # relative to the endpoint norms; the resampling places vertices by
    # arc length in those absolute terms.
    params, u_min = umin_mid
    block, dens = _probe_block(u_min, op400, form400, params, rng)
    steps = np.diff(block, axis=0)
    got = np.sqrt(_pairings(np.diff(dens, axis=0), steps, form400.mass))
    loop = np.array([_a_norm(form400, x) for x in steps])
    ends = np.array([_a_norm(form400, x) for x in block])
    assert np.all(np.abs(got - loop) <= 1e-13 * (ends[:-1] + ends[1:]))
    dirs = _direction_ensemble(op400, form400, 0)
    assert dirs.shape == (50, op400.n)
    assert all(abs(_a_norm(form400, d) - 1.0) <= 1e-13 for d in dirs)


def test_kept_densities_follow_the_deformed_path(
    umin_mid, op400, form400, monkeypatch
):
    # After every resampling of a full deformation each path vertex is the
    # Green image of its kept density, to rounding relative to the largest
    # vertex.
    params, u_min = umin_mid
    seen = []
    real = mountainpass._redistribute

    def recorded(path, dens, mass):
        real(path, dens, mass)
        seen.append((path.copy(), dens.copy()))

    monkeypatch.setattr(mountainpass, "_redistribute", recorded)
    find_second_solution(params, op400, form400, u_min, seed=0)
    assert len(seen) > 5
    for path, dens in seen:
        assert dens.shape == path.shape
        images = np.array([op400.apply(g) for g in dens])
        assert np.max(np.abs(images - path)) <= 1e-13 * np.max(np.abs(path))


@pytest.fixture(scope="module")
def n3_case():
    """(3, 0.6, 1.5) at n = 200: its parameters without k, operator, form
    and the lower edge of its k* bracket."""
    params = ProblemParams(dim=3, alpha=0.6, p=1.5, k=0.0)
    op = assemble(default_grid(params, n_nodes=200), params)
    return params, op, build_form(op), find_kstar(params, op).k_lo


@pytest.mark.parametrize("case", ["desk", "n3"])
def test_every_deformation_move_lowers_the_energy_by_half_the_gradient(
    request, case, monkeypatch
):
    # F(u, .) is convex, so the move of the path maximum v to its Picard
    # image v - grad lowers E by at least ||grad||_A^2 / 2: the move needs
    # no line search.  E and ||grad||_A come from the energy coordinates,
    # a triangular solve, not from the densities the deformation pairs.
    if case == "desk":
        params, u_min = request.getfixturevalue("umin_mid")
        op, form = request.getfixturevalue("op400"), request.getfixturevalue("form400")
    else:
        params, op, form, k_lo = request.getfixturevalue("n3_case")
        params = params.with_k(0.5 * k_lo)
        u_min = iterate_minimal(params, op).profile
    u_total = u_min.total
    t0 = _negative_endpoint(u_total, form, params)
    paths = [np.outer(np.linspace(0.0, 1.0, 21) * t0, form.ray)]
    moved = []
    real = mountainpass._redistribute

    def recorded(path, dens, mass):
        moved.append(path.copy())
        real(path, dens, mass)
        paths.append(path.copy())

    monkeypatch.setattr(mountainpass, "_redistribute", recorded)
    find_second_solution(params, op, form, u_min, seed=0)
    assert len(moved) == 14
    for before, after in zip(paths, moved):
        (j,) = np.flatnonzero(np.any(after != before, axis=1))
        v, new = before[j], after[j]
        grad_sq = _a_norm(form, _gradient_values(v, u_total, op, params)) ** 2
        e_v, e_new = (_energy(x, u_total, form, params) for x in (v, new))
        assert e_new <= e_v - 0.5 * grad_sq + 1e-13 * _a_norm(form, v) ** 2


def test_deformation_makes_no_solve(umin_mid, op400, form400, monkeypatch):
    # Once the seed's ensemble is built, a search solves with the factor
    # once, for the norm and the energy of the critical point it found:
    # every vertex of the deformation is a Green image.  A new seed adds
    # the one block solve of its ensemble.
    params, u_min = umin_mid
    _direction_ensemble(op400, form400, 0)
    calls = []
    real = mountainpass.DiscreteHAlphaForm.coordinates

    def counted(self, x):
        calls.append(x.shape)
        return real(self, x)

    monkeypatch.setattr(mountainpass.DiscreteHAlphaForm, "coordinates", counted)
    result = find_second_solution(params, op400, form400, u_min, seed=0)
    assert sum(row[1] is not None for row in result.trace) > 10
    assert calls == [(op400.n,)]
    calls.clear()
    find_second_solution(params, op400, dataclasses.replace(form400), u_min, seed=0)
    assert calls == [(op400.n,), (50, op400.n)]


def test_direction_ensemble_is_built_once_per_seed(
    umin_mid, op400, form400, monkeypatch
):
    params, u_min = umin_mid
    form = dataclasses.replace(form400)
    products = _count_products(monkeypatch, op400)
    counts = []
    for seed in (0, 0, 1, 1):
        products.clear()
        find_second_solution(params, op400, form, u_min, seed=seed)
        counts.append(len(products))
    # 17 Green-smoothed noise rows a seed; the searches are otherwise
    # identical, so the difference is exactly the ensemble build.
    assert counts == [counts[0], counts[0] - 17, counts[0], counts[0] - 17]
    first = _direction_ensemble(op400, form, 0)
    assert first is _direction_ensemble(op400, form, 0)
    assert not first.flags.writeable
    rebuilt = _direction_ensemble(op400, dataclasses.replace(form400), 0)
    assert rebuilt.tobytes() == first.tobytes()
    assert _direction_ensemble(op400, form, 1).tobytes() != first.tobytes()


def _jacobian_product(v, u_total, op, params):
    """y -> y - G[f' y], f' = p (u + v_+)^(p-1) [v > 0]: the deflated
    search's Newton matrix J applied through the operator."""
    fprime = params.p * (u_total + np.maximum(v, 0.0)) ** (params.p - 1.0) * (v > 0.0)
    return lambda y: y - op.apply(fprime * y)


def _krylov_step(v, u_total, op, params, resid):
    """The plain Newton step of the deflated search: one picard._gmres
    cycle on J delta = -resid."""
    return picard._gmres(_jacobian_product(v, u_total, op, params), -resid)[0]


def test_krylov_step_matches_the_lu_step(umin_mid, op400, second_mid):
    params, u_min = umin_mid
    u_total = u_min.total
    # An iterate far from any root, and the second solution itself.
    for v in (10.0 * u_total, second_mid.v.values):
        resid = _gradient_values(v, u_total, op400, params)
        vp = np.maximum(v, 0.0)
        fprime = params.p * (u_total + vp) ** (params.p - 1.0) * (v > 0.0)
        weighted = op400.grid.weights * fprime
        jac = np.eye(op400.n) - op400.matrix * weighted[None, :]
        lu = np.linalg.solve(jac, -resid)
        got = _krylov_step(v, u_total, op400, params, resid)
        assert np.max(np.abs(got - lu)) <= 1e-11 * np.max(np.abs(lu))


def _krylov_relative_residual(v, u_total, op, params, resid, delta):
    """||J delta + resid|| / ||resid|| with J = I - G diag(f') applied
    through the operator, as the Newton step defines it."""
    jdelta = _jacobian_product(v, u_total, op, params)(delta)
    return float(np.linalg.norm(jdelta + resid) / np.linalg.norm(resid))


def test_missed_krylov_tolerance_keeps_the_gmres_iterate(
    umin_mid, op400, form400, second_mid, monkeypatch
):
    params, u_min = umin_mid
    refs = {
        "MountainPassAlgorithm": second_mid,
        "DeflatedNewton": find_second_solution(
            params, op400, form400, u_min, method="DeflatedNewton", seed=0
        ),
    }
    # Five products cannot reach the tolerance: every cycle misses it, and
    # its iterate is the step; no dense solve stands behind it.
    monkeypatch.setattr(picard, "_KRYLOV_CAP", 5)
    steps = []
    real_gmres = picard._gmres

    def recorded(matvec, rhs):
        delta, relres = real_gmres(matvec, rhs)
        steps.append((matvec, rhs, delta))
        return delta, relres

    def no_dense_solve(*args, **kwargs):
        raise AssertionError("dense solve of the Newton system")

    monkeypatch.setattr(picard, "_gmres", recorded)
    monkeypatch.setattr(np.linalg, "solve", no_dense_solve)
    for method, ref in refs.items():
        got = find_second_solution(params, op400, form400, u_min, method=method, seed=0)
        assert np.max(np.abs(got.v.values - ref.v.values)) <= 1e-10
    assert steps
    for matvec, rhs, delta in steps:
        missed = np.linalg.norm(matvec(delta) - rhs) / np.linalg.norm(rhs)
        assert missed > picard._KRYLOV_RTOL


def _count_products(monkeypatch, op):
    """Patch the operator's class so that each Green product appends to the
    returned list."""
    products = []
    real_apply = type(op).apply

    def counted(self, values):
        products.append(1)
        return real_apply(self, values)

    monkeypatch.setattr(type(op), "apply", counted)
    return products


def test_krylov_products_are_the_arnoldi_columns(
    umin_mid, op400, second_mid, monkeypatch
):
    # Each product y - G[f' y] of a step is one Arnoldi column, and none
    # follows the cycle: a cap at the column count changes no byte, and
    # with one column fewer the step misses the tolerance.
    params, u_min = umin_mid
    u_total = u_min.total
    cap = picard._KRYLOV_CAP
    cases = [
        (v, _gradient_values(v, u_total, op400, params))
        for v in (10.0 * u_total, second_mid.v.values)
    ]
    products = _count_products(monkeypatch, op400)
    for v, resid in cases:
        monkeypatch.setattr(picard, "_KRYLOV_CAP", cap)
        products.clear()
        delta = _krylov_step(v, u_total, op400, params, resid)
        columns = len(products)
        assert 1 < columns <= cap
        assert _krylov_relative_residual(v, u_total, op400, params, resid, delta) <= 1e-12
        monkeypatch.setattr(picard, "_KRYLOV_CAP", columns)
        assert _krylov_step(v, u_total, op400, params, resid).tobytes() == delta.tobytes()
        monkeypatch.setattr(picard, "_KRYLOV_CAP", columns - 1)
        products.clear()
        short = _krylov_step(v, u_total, op400, params, resid)
        assert len(products) == columns - 1
        assert (
            _krylov_relative_residual(v, u_total, op400, params, resid, short)
            > picard._KRYLOV_RTOL
        )


def test_krylov_step_is_exact_after_one_product_without_fprime(
    umin_mid, op400, rng, monkeypatch
):
    # With v <= 0 everywhere f' vanishes and J is the identity: the first
    # column spans an invariant space, the cycle breaks down happily after
    # one product and its step is -resid to rounding.
    params, u_min = umin_mid
    v = -np.ones(op400.n)
    resid = rng.standard_normal(op400.n)
    products = _count_products(monkeypatch, op400)
    delta = _krylov_step(v, u_min.total, op400, params, resid)
    assert len(products) == 1
    assert np.max(np.abs(delta + resid)) <= 4.0 * np.finfo(float).eps * np.max(
        np.abs(resid)
    )


def test_deflated_newton_loop_exhausts_its_budget_and_rejects_v_zero(
    umin_mid, op400, form400, monkeypatch
):
    # The deflated search runs on the shared Newton loop, whose budget
    # error it turns into SecondSolutionNotFound with the trace.
    params, u_min = umin_mid
    u_total = u_min.total
    monkeypatch.setattr(picard, "_NEWTON_STEPS", 1)
    with pytest.raises(SecondSolutionNotFound) as info:
        _deflated_newton(10.0 * u_total, u_total, op400, params, form400.mass, [])
    (row,) = info.value.trace
    assert row[:2] == (0, None) and row[2] > 1e-10
    assert str(info.value) == f"deflated Newton failed at residual {row[2]:.3e}"
    assert "did not converge in 1 steps" in str(info.value.__cause__)
    # v = 0 is a root of the residual; the deflated search rejects it.
    zero = np.zeros(op400.n)
    message = "collapsed onto the trivial root"
    with pytest.raises(SecondSolutionNotFound, match=message) as info:
        _deflated_newton(zero, u_total, op400, params, form400.mass, [])
    assert info.value.trace == [(0, None, 0.0)]


def test_a_search_that_cannot_converge_ends_after_the_shared_budget(
    umin_mid, op400, form400, second_mid, monkeypatch
):
    # Steps of 1% of the Newton step cut the residual by about 1% each,
    # accepted by the line search every time, so the search cannot
    # converge: it ends after the 20 Newton steps of every solve, as
    # SecondSolutionNotFound that keeps the 15 path-deformation rows.
    params, u_min = umin_mid
    real = picard._gmres

    def one_percent(matvec, rhs):
        step, relres = real(matvec, rhs)
        return 0.01 * step, relres

    monkeypatch.setattr(picard, "_gmres", one_percent)
    with pytest.raises(SecondSolutionNotFound, match="deflated Newton failed") as info:
        find_second_solution(params, op400, form400, u_min, seed=0)
    assert type(info.value) is SecondSolutionNotFound
    rows = info.value.trace
    assert len(rows) == 15 + picard._NEWTON_STEPS == 35
    assert tuple(rows[:15]) == second_mid.trace[:15]
    residuals = [row[2] for row in rows[15:]]
    assert all(row[1] is None for row in rows[15:])
    assert residuals == sorted(residuals, reverse=True)
    assert residuals[-1] > 0.5 * residuals[0]


def test_deflated_newton_starts_at_the_energy_maximum_on_the_ray(
    umin_mid, op400, form400
):
    # dE/dt along the ray changes sign once, at t_N, where E(t ray) peaks,
    # and the deflated search's first row is the residual at t_N ray.
    params, u_min = umin_mid
    u_total, ray = u_min.total, form400.ray
    t0 = _negative_endpoint(u_total, form400, params)
    t_n = _ray_maximum(u_total, form400, params, t0)
    assert 0.0 < t_n < t0
    ts = np.linspace(0.0, t0, 401)[1:]
    slope = [
        t - float((form400.mass * ray) @ power_increment(u_total, t * ray, params.p))
        for t in ts
    ]
    assert all((d > 0.0) == (t < t_n) for t, d in zip(ts, slope))
    peak = _energy(t_n * ray, u_total, form400, params)
    assert all(_energy(t * ray, u_total, form400, params) <= peak for t in ts)
    dn = find_second_solution(params, op400, form400, u_min, method="DeflatedNewton")
    first = _gradient_values(t_n * ray, u_total, op400, params)
    assert dn.trace[0] == (0, None, float(np.max(np.abs(first))))


def test_deflated_newton_at_0_55_k_lo(params0, op400, form400, bracket400):
    # Here deflated searches from 10 u_min and from the ray endpoint t0 ray
    # both stagnate at residuals of about 13; from the ray's energy maximum
    # the search converges in a few rows onto the mountain-pass solution.
    params = params0.with_k(0.55 * bracket400.k_lo)
    u_min = iterate_minimal(params, op400).profile
    dn = find_second_solution(params, op400, form400, u_min, method="DeflatedNewton")
    mp = find_second_solution(params, op400, form400, u_min)
    assert len(dn.trace) <= 8
    assert np.max(np.abs(dn.v.values - mp.v.values)) <= 1e-8
    assert dn.energy >= dn.level_lower_bound


def test_mountain_pass_ends_off_the_trivial_point_at_n3_alpha04():
    # The deformed path's maximum (max 2.1) lies far below the second
    # solution (max 35.7), nearer the trivial root v = 0; the deflated
    # iteration from it is repelled from v = 0 and finds the solution
    # that deflated Newton finds from the ray.
    params = ProblemParams(dim=3, alpha=0.4, p=1.3, k=0.0)
    op = assemble(default_grid(params, n_nodes=200), params)
    params = params.with_k(0.97 * find_kstar(params, op).k_lo)
    u_min = iterate_minimal(params, op).profile
    form = build_form(op)
    mp, dn = (
        find_second_solution(params, op, form, u_min, method=method)
        for method in ("MountainPassAlgorithm", "DeflatedNewton")
    )
    assert sum(row[1] is not None for row in mp.trace) == 15
    assert np.max(np.abs(mp.v.values - dn.v.values)) <= 1e-8
    assert mp.energy >= mp.level_lower_bound > 0.0


def test_both_methods_agree_at_held_out_k(
    params0, op400, form400, bracket400, n3_case
):
    # A fixed grid of k / k_lo that holds none of the bench's samples, on
    # the desk case and on (3, 0.6, 1.5): at each k both searches succeed
    # and find the same v.
    cases = [(params0, op400, form400, bracket400.k_lo), n3_case]
    gaps = {}
    for params, op, form, k_lo in cases:
        for fraction in (0.05, 0.35, 0.55, 0.61, 0.85, 0.99):
            at = params.with_k(fraction * k_lo)
            report = iterate_minimal(at, op)
            assert report.status == "Converged"
            mp, dn = (
                find_second_solution(at, op, form, report.profile, method=method)
                for method in ("MountainPassAlgorithm", "DeflatedNewton")
            )
            gaps[params.dim, fraction] = np.max(np.abs(dn.v.values - mp.v.values))
    assert max(gaps.values()) <= 1e-8, gaps


def test_mountain_pass_finds_its_endpoint_once(umin_mid, op400, form400, monkeypatch):
    params, u_min = umin_mid
    calls = []
    real = mountainpass._negative_endpoint

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(mountainpass, "_negative_endpoint", counted)
    find_second_solution(params, op400, form400, u_min, seed=0)
    assert len(calls) == 1


def test_search_reuses_the_form_eigenfunction(umin_mid, op400, form400, monkeypatch):
    params, u_min = umin_mid
    assert form400.phi1.tobytes() == first_eigenpair(op400)["phi1"].values.tobytes()
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return first_eigenpair(*args, **kwargs)

    monkeypatch.setattr(picard, "first_eigenpair", counted)
    monkeypatch.setattr(mountainpass, "first_eigenpair", counted)
    find_second_solution(params, op400, form400, u_min, seed=0)
    assert calls == []


# ---------------------------------------------------- second solution


def test_second_solution_is_a_fixed_point(second_mid, umin_mid, op400, form400):
    params, u_min = umin_mid
    res = second_mid
    v = res.v.values
    image = op400.apply(power_increment(u_min.total, v, params.p))
    assert float(np.max(np.abs(v - image))) <= 1e-9
    # The A-gradient of the energy is the same residual vector.
    grad = _gradient_values(v, u_min.total, op400, params)
    assert _a_norm(form400, grad) <= 1e-8


def test_second_solution_ordering_and_sign(second_mid, umin_mid):
    params, u_min = umin_mid
    res = second_mid
    assert np.all(res.v.values >= 0.0)
    assert float(np.max(res.v.values)) > 1.0
    assert np.all(res.second_solution.total > u_min.total)


def test_second_solution_energy_level(second_mid):
    res = second_mid
    assert res.energy >= res.level_lower_bound > 0.0
    assert res.energy == pytest.approx(3.6133952919000354, rel=1e-8)
    assert res.level_lower_bound == pytest.approx(2.8661035597298166, rel=1e-8)
    assert float(np.max(res.v.values)) == pytest.approx(4.04611927097721, rel=1e-8)


def test_second_solution_trace_records_the_descent(
    second_mid, umin_mid, op400, form400, monkeypatch
):
    # 15 path-deformation rows carry the energy of the path maximum; the
    # deflated Newton rows after them carry none and number on.
    rows = second_mid.trace
    assert all(len(row) == 3 for row in rows)
    assert [row[0] for row in rows] == list(range(len(rows)))
    assert all(row[1] is not None for row in rows[:15])
    assert len(rows) > 15 and all(row[1] is None for row in rows[15:])
    assert rows[-1][2] <= 1e-10
    # A Newton iteration that fails keeps the deformation's rows.
    params, u_min = umin_mid
    monkeypatch.setattr(picard, "_NEWTON_STEPS", 1)
    with pytest.raises(SecondSolutionNotFound, match="failed at residual") as info:
        find_second_solution(params, op400, form400, u_min, seed=0)
    assert tuple(info.value.trace) == rows[:16]


def test_finite_difference_criticality(second_mid, umin_mid, op400, form400, rng):
    # E is stationary at v along 50 random directions.
    params, u_min = umin_mid
    v = second_mid.v.values
    h = 1e-6
    for _ in range(50):
        d = rng.standard_normal(op400.n)
        d /= _a_norm(form400, d)
        e_plus = _energy(v + h * d, u_min.total, form400, params)
        e_minus = _energy(v - h * d, u_min.total, form400, params)
        assert abs(e_plus - e_minus) / (2.0 * h) <= 1e-5


def test_methods_agree_on_the_critical_point(
    second_mid, umin_mid, op400, form400
):
    params, u_min = umin_mid
    other = find_second_solution(
        params, op400, form400, u_min, method="DeflatedNewton", seed=0
    )
    scale = float(np.max(np.abs(second_mid.v.values)))
    diff = float(np.max(np.abs(other.v.values - second_mid.v.values)))
    assert diff <= 1e-6 * scale
    assert other.energy == pytest.approx(second_mid.energy, abs=1e-8)
    # Deflated Newton rows are (step, None, sup-norm residual).
    rows = other.trace
    assert [row[0] for row in rows] == list(range(len(rows)))
    assert all(len(row) == 3 and row[1] is None for row in rows)
    assert rows[-1][2] <= 1e-10 < rows[0][2]


def test_second_solution_without_a_source_is_the_ground_state(
    params0, op400, form400
):
    # At k = 0 the minimal solution is 0, and both methods find the ground
    # state w0 of (-Delta)^alpha w = w^p: smooth at the origin and a weak
    # solution with no point mass.
    report = iterate_minimal(params0, op400)
    assert report.status == "Converged"
    assert not np.any(report.profile.total)
    w0 = [
        find_second_solution(params0, op400, form400, report.profile, method=method)
        for method in ("MountainPassAlgorithm", "DeflatedNewton")
    ]
    for result in w0:
        assert result.second_solution.singular_coeff == 0.0
        assert np.array_equal(result.second_solution.total, result.v.values)
        assert float(np.max(result.v.values)) == pytest.approx(5.03537, rel=1e-5)
        assert result.energy >= result.level_lower_bound > 0.0
        identity = verify_weak_identity(result.second_solution, params0, op400)
        assert identity <= 1e-9
    diff = float(np.max(np.abs(w0[0].v.values - w0[1].v.values)))
    assert diff <= 1e-8
    assert w0[0].energy == pytest.approx(w0[1].energy, abs=1e-8)


def test_search_without_a_source_rejects_p_at_the_sobolev_exponent(
    params0, op400, form400, monkeypatch
):
    # No positive solution of (-Delta)^alpha w = w^p exists at or above
    # (N + 2 alpha)/(N - 2 alpha) = 7 on the ball: the search raises
    # before it computes, with no RuntimeWarning (an error under pytest).
    def no_sigma1(*args, **kwargs):
        raise AssertionError("sigma1 ran before the exponent was checked")

    monkeypatch.setattr(mountainpass, "sigma1", no_sigma1)
    params = dataclasses.replace(params0, p=12.0)
    u_min = RadialFunction(op400.grid, np.zeros(op400.n))
    for method in ("MountainPassAlgorithm", "DeflatedNewton"):
        with pytest.raises(RegimeError, match="Sobolev exponent .* = 7 "):
            find_second_solution(params, op400, form400, u_min, method=method)


def test_search_requires_a_known_method_and_seed(
    op400, form400, umin_mid, monkeypatch
):
    # Both are rejected before any computation: sigma1 never runs.
    def no_sigma1(*args, **kwargs):
        raise AssertionError("sigma1 ran before the arguments were checked")

    monkeypatch.setattr(mountainpass, "sigma1", no_sigma1)
    params, u_min = umin_mid
    with pytest.raises(ParameterError, match="unknown method 'bogus'"):
        find_second_solution(params, op400, form400, u_min, method="bogus")
    for seed in (-1, 1.5, None, True, "0"):
        with pytest.raises(ParameterError, match="seed must be a non-negative"):
            find_second_solution(params, op400, form400, u_min, seed=seed)


def test_search_rejects_a_form_of_another_operator(
    params0, op200, op400, form400, umin_mid, monkeypatch
):
    # The form's factor must be the operator's kept one: a form of another
    # grid, or of a copy of the operator (which factors anew, and may hold
    # another matrix), is rejected before any computation.
    def no_sigma1(*args, **kwargs):
        raise AssertionError("sigma1 ran before the form was checked")

    params, u_min = umin_mid
    others = (build_form(op200), build_form(dataclasses.replace(op400)))
    monkeypatch.setattr(mountainpass, "sigma1", no_sigma1)
    for form in others:
        for method in ("MountainPassAlgorithm", "DeflatedNewton"):
            with pytest.raises(ParameterError, match="built on another operator"):
                find_second_solution(params, op400, form, u_min, method=method)
    with pytest.raises(ParameterError, match="built on another operator"):
        find_second_solution(params, dataclasses.replace(op400), form400, u_min)


def test_search_rejects_a_minimal_solution_that_is_not_strictly_stable(
    params0, op200
):
    # Four times the desk-case minimal solution at k = 1.2 has sigma1 =
    # 0.946 (1.89 at twice it): no pass geometry exists around it.
    params = params0.with_k(1.2)
    u = picard.minimal_solution(params, op200)
    scaled = RadialFunction(
        op200.grid, 4.0 * u.values, 4.0 * u.singular_coeff, u.singular_exponent
    )
    form = build_form(op200)
    for method in ("MountainPassAlgorithm", "DeflatedNewton"):
        with pytest.raises(RegimeError, match=r"not strictly stable \(sigma1 = 0.94"):
            find_second_solution(params, op200, form, scaled, method=method)


def test_search_rejects_a_minimal_solution_of_another_grid(
    op200, op400, form400, umin_mid, monkeypatch
):
    def no_sigma1(*args, **kwargs):
        raise AssertionError("sigma1 ran before the grid was checked")

    params, _ = umin_mid
    alien = RadialFunction(op200.grid, np.ones(op200.n))
    monkeypatch.setattr(mountainpass, "sigma1", no_sigma1)
    with pytest.raises(ParameterError, match="another grid than op"):
        find_second_solution(params, op400, form400, alien)


def test_second_solution_of_size_millions_near_p_one():
    # At p near 1 the second solution grows like lambda1^(1/(p-1)): here
    # max v is about 3.3e6, whose last ulps exceed an absolute residual of
    # 1e-10.  Both searches stop within 64 eps max|v| and pass the
    # certificate.
    params = ProblemParams(dim=3, alpha=0.5, p=1.0688, k=0.0)
    op = assemble(default_grid(params, n_nodes=120), params)
    params = params.with_k(0.5 * find_kstar(params, op).k_lo)
    u_min = iterate_minimal(params, op).profile
    form = build_form(op)
    found = [
        find_second_solution(params, op, form, u_min, method=method, seed=0)
        for method in ("MountainPassAlgorithm", "DeflatedNewton")
    ]
    for res in found:
        scale = float(np.max(res.v.values))
        assert scale > 1e6
        assert 1e-10 < res.trace[-1][2] <= 64.0 * np.finfo(float).eps * scale
        assert res.energy >= res.level_lower_bound > 0.0
    gap = np.max(np.abs(found[0].v.values - found[1].v.values))
    assert gap <= 1e-12 * np.max(found[0].v.values)


# ------------------------------------------------------ pass geometry


def test_pass_geometry_certificate_holds_on_the_sample(
    second_mid, umin_mid, op400, form400
):
    params, u_min = umin_mid
    stab = sigma1(u_min, params, op400)
    c24 = 1.0 - 1.0 / stab.sigma1
    found = second_mid.v.values / _a_norm(form400, second_mid.v.values)
    dirs = np.vstack((_direction_ensemble(op400, form400, 0), found))
    assert len(dirs) == 51
    for d in dirs:
        assert _a_norm(form400, d) == pytest.approx(1.0, rel=1e-10)
        # The quadratic part is controlled by the stability index alone.
        qint = params.p * float(
            form400.mass @ (u_min.total ** (params.p - 1.0) * d**2)
        )
        assert qint <= (1.0 + 1e-6) / stab.sigma1

    t0 = _negative_endpoint(u_min.total, form400, params)
    sigma0, beta = _pass_geometry(u_min.total, form400, params, c24, dirs, t0)
    assert beta == pytest.approx(0.25 * c24 * sigma0**2, rel=1e-12)
    assert beta == pytest.approx(second_mid.level_lower_bound, rel=1e-12)
    assert t0 > sigma0
    # Certified level: the energy on the sigma0-sphere stays above beta
    # for every sampled direction.
    for d in dirs:
        e_val = _energy(sigma0 * d, u_min.total, form400, params)
        assert e_val >= beta - 1e-8 * (1.0 + abs(beta))


def _pass_geometry_one_by_one(u_total, form, params, c24, dirs, e_norm):
    """Reference scan: each radius tried one direction at a time, up to the
    first direction whose remainder exceeds the target."""
    p = params.p
    quad_coeff = 0.5 * p * u_total ** (p - 1.0)
    sigma = 0.5 * e_norm
    for _ in range(48):
        target = 0.25 * c24 * sigma**2
        for d in dirs:
            dp = np.maximum(sigma * d, 0.0)
            rem = float(
                form.mass @ (increment_primitive(u_total, dp, p) - quad_coeff * dp**2)
            )
            if rem > target:
                break
        else:
            return sigma, target
        sigma *= 0.5
    raise SecondSolutionNotFound("no radius")


def test_block_certificate_matches_the_direction_loop(
    second_mid, umin_mid, op400, form400
):
    params, u_min = umin_mid
    u_total = u_min.total
    c24 = 1.0 - 1.0 / sigma1(u_min, params, op400).sigma1
    t0 = _negative_endpoint(u_total, form400, params)
    found = second_mid.v.values / _a_norm(form400, second_mid.v.values)
    for seed in (0, 1, 2):
        dirs = np.vstack((_direction_ensemble(op400, form400, seed), found))
        # Larger c24 targets pass earlier radii: several outcomes are hit.
        for scale in (1.0, 4.0, 0.25):
            args = (u_total, form400, params, scale * c24, dirs, t0)
            assert _pass_geometry(*args) == _pass_geometry_one_by_one(*args)
    sigma0, beta = _pass_geometry(u_total, form400, params, c24, dirs, t0)
    assert beta == second_mid.level_lower_bound


# -------------------------------------------------- weak formulation


def test_weak_identity_of_the_minimal_solution(umin_mid, op400):
    params, u_min = umin_mid
    battery = standard_battery(op400)
    assert len(battery) == 4
    residual = verify_weak_identity(u_min, params, op400, battery)
    assert residual <= 1e-6
    assert residual <= 0.02 * params.k
    annulus = [xi for xi in battery if xi.value_at_origin == 0.0]
    assert annulus
    for xi in annulus:
        assert abs(pairing(u_min, xi, params, op400)) <= 1e-6


def test_weak_identity_of_the_second_solution(second_mid, umin_mid, op400):
    params, _ = umin_mid
    residual = verify_weak_identity(second_mid.second_solution, params, op400)
    assert residual <= 0.02 * max(params.k, 1.0)


def test_weak_identity_of_zero_without_source(params0, op400):
    zero = RadialFunction.zero(op400.grid)
    assert verify_weak_identity(zero, params0, op400) == 0.0
