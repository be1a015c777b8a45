import dataclasses
import math
import random
import warnings

import numpy as np
import pytest
from scipy.sparse.linalg import LinearOperator, cg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from decaylab import evolve
from decaylab.evolve import (
    IMEX_RTOL,
    InitialSpec,
    NonConvergenceError,
    OverflowDetected,
    Scenario,
    _ImexStepper,
    _ImplicitStencil,
    _pcg_sweep,
    _sine_modes,
    _sine_preconditioner,
    detect_extinction,
    make_initial,
    run,
    stable_dt,
    step_explicit,
    step_imex,
)
from decaylab.field import (
    CoefficientField,
    FluxKernel,
    Grid,
    ScalarField,
    face_diffusivities,
    p_flux_divergence,
    write_field_csv,
)
from decaylab.metrics import NormSeries, lr_norm, truncate_excess
from decaylab.regime import ProblemParams, Regime, classify

P_HEAT = ProblemParams(p=2.0, q=1.0, dim_n=3, gamma=0.0)


def _scenario(**kw):
    base = dict(
        params=P_HEAT,
        grid=Grid((16,), (1.0,)),
        initial=InitialSpec(kind="eigenfunction"),
        t_end=0.01,
    )
    base.update(kw)
    return Scenario(**base)


# ---------------------------------------------------------------------------
# initial data


def test_make_initial_kinds():
    g = Grid((32, 32), (1.0, 1.0))
    zero = make_initial(InitialSpec(kind="zero"), g)
    assert np.all(zero.values == 0.0)

    eig = make_initial(InitialSpec(kind="eigenfunction", amplitude=2.0), g)
    mx, my = g.node_mesh()
    assert np.allclose(eig.values, 2.0 * np.sin(math.pi * mx) * np.sin(math.pi * my))

    bump = make_initial(InitialSpec(kind="bump", amplitude=3.0), g)
    assert float(bump.values.max()) == pytest.approx(3.0, rel=1e-14)
    assert np.all(bump.values >= 0.0)
    # compact support: zero near the corners
    assert bump.values[0, 0] == 0.0

    rnd1 = make_initial(InitialSpec(kind="random_positive", amplitude=0.5), g, seed=4)
    rnd2 = make_initial(InitialSpec(kind="random_positive", amplitude=0.5), g, seed=4)
    rnd3 = make_initial(InitialSpec(kind="random_positive", amplitude=0.5), g, seed=5)
    assert np.array_equal(rnd1.values, rnd2.values)
    assert not np.array_equal(rnd1.values, rnd3.values)
    assert np.all((rnd1.values >= 0.0) & (rnd1.values <= 0.5))


def test_random_positive_is_the_stdlib_stream_in_c_order():
    # amplitude * random.Random(seed).random() node by node in C order, bit for bit;
    # Python keeps Random(seed)'s stream across versions, so the first draw is pinned
    g = Grid((3, 5), (1.0, 2.0))
    fld = make_initial(InitialSpec(kind="random_positive", amplitude=0.7), g, seed=11)
    draw = random.Random(11).random
    assert fld.values.dtype == np.float64
    assert fld.values.tolist() == [[0.7 * draw() for _ in range(5)] for _ in range(3)]
    assert fld.values[0, 0] == 0.7 * 0.4523795535098186
    assert np.all((fld.values >= 0.0) & (fld.values < 0.7))


def test_make_initial_rejects_a_negative_seed():
    # random.Random(-5) is Random(5): without the check seeds -5 and 5 draw one datum
    g = Grid((4,), (1.0,))
    spec = InitialSpec(kind="random_positive")
    with pytest.raises(ValueError, match="seed must be >= 0, got -5"):
        make_initial(spec, g, seed=-5)
    with pytest.raises(ValueError, match="seed must be an integer"):
        make_initial(spec, g, seed=1.5)
    five = make_initial(spec, g, seed=5).values
    assert np.array_equal(make_initial(spec, g, seed=np.int64(5)).values, five)


def test_make_initial_power_spike_window():
    g = Grid((64, 64), (1.0, 1.0))
    # summable to order nu = 3 but not nu' = 4 needs a in (dim/nu', dim/nu) = (0.5, 2/3)
    spec = InitialSpec(kind="power_spike", decay_exponent=0.6, nu=3.0, nu_prime=4.0)
    fld = make_initial(spec, g)
    assert np.all(np.isfinite(fld.values)) and np.all(fld.values > 0.0)
    with pytest.raises(ValueError, match="window"):
        make_initial(
            InitialSpec(kind="power_spike", decay_exponent=0.4, nu=3.0, nu_prime=4.0), g
        )
    with pytest.raises(ValueError, match="window"):
        make_initial(
            InitialSpec(kind="power_spike", decay_exponent=0.7, nu=3.0, nu_prime=4.0), g
        )
    with pytest.raises(ValueError):
        InitialSpec(kind="mystery")


def test_make_initial_from_file(tmp_path):
    g = Grid((5,), (1.0,))
    rng = np.random.default_rng(2)
    fld = ScalarField(g, rng.uniform(size=5))
    path = tmp_path / "init.csv"
    write_field_csv(fld, path)
    back = make_initial(InitialSpec(kind="file", path=str(path)), g)
    assert np.array_equal(back.values, fld.values)


# ---------------------------------------------------------------------------
# step size and explicit stepping


def test_stable_dt_frozen_heat():
    # p = 2 has unit diffusivity and kappa = 1: dt = 0.8 h^2 / (2 * dim), h = 0.1
    g = Grid((9,), (1.0,))
    fld = ScalarField(g, np.sin(math.pi * g.axis_nodes(0)))
    assert stable_dt(fld, P_HEAT) == pytest.approx(0.004, rel=1e-12)


@pytest.mark.parametrize("p, kappa", [(1.5, 1.0), (2.0, 1.0), (2.6, 1.6), (3.0, 2.0), (4.0, 3.0)])
def test_stable_dt_divides_by_the_flux_stiffness(p, kappa):
    # a zero field with eps_reg = 1 has unit mobility at every p, so
    # dt = 0.8 h^2 / (2 * dim * kappa(p)), kappa(p) = max(1, p - 1), h = 0.1
    g = Grid((9,), (1.0,))
    zero = ScalarField(g, np.zeros(9))
    params = ProblemParams(p=p, q=1.0, dim_n=3, gamma=0.0)
    assert stable_dt(zero, params, eps_reg=1.0) == pytest.approx(0.004 / kappa, rel=1e-12)


def test_stable_dt_zero_field_and_source_cap():
    g = Grid((9,), (1.0,))
    zero = ScalarField(g, np.zeros(9))
    assert math.isinf(stable_dt(zero, ProblemParams(p=3.0, q=2.0, dim_n=3)))

    params = ProblemParams(p=2.0, q=1.0, dim_n=3, gamma=100.0)
    fld = ScalarField(g, np.sin(math.pi * g.axis_nodes(0)))
    dt = stable_dt(fld, params)
    from decaylab.field import gradient_magnitude

    top = float(gradient_magnitude(fld).values.max())
    cap = 0.1 * float(np.abs(fld.values).max()) / (100.0 * top)
    assert dt == pytest.approx(min(0.004, cap), rel=1e-12)
    assert dt < 0.004  # the source cap binds here


def test_stable_dt_reads_the_face_coefficient():
    # the CFL bound scales with max A(t) D on the faces, not with ProblemParams
    g = Grid((9,), (1.0,))
    fld = ScalarField(g, np.sin(math.pi * g.axis_nodes(0)))
    wide = ProblemParams(p=2.0, q=1.0, dim_n=3, alpha=0.5, lambda_upper=10.0)
    three = CoefficientField(kind="scalar", fn=lambda t, x: 3.0 + 0.0 * x)
    assert stable_dt(fld, wide, three) == pytest.approx(0.004 / 3.0, rel=1e-12)
    assert stable_dt(fld, wide) == pytest.approx(0.004, rel=1e-12)
    # a time-dependent coefficient is read at t
    ramp = CoefficientField(kind="scalar", fn=lambda t, x: 1.0 + t + 0.0 * x)
    assert stable_dt(fld, wide, ramp, t=1.0) == pytest.approx(0.002, rel=1e-12)


def test_step_explicit_single_node_frozen():
    # one interior node, h = 1/2: div = -8 u, so one step gives u (1 - 8 dt)
    g = Grid((1,), (1.0,))
    fld = ScalarField(g, [1.0])
    out = step_explicit(fld, 0.01, P_HEAT)
    assert out.values[0] == pytest.approx(1.0 - 0.08, rel=1e-14)
    with pytest.raises(ValueError):
        step_explicit(fld, 0.0, P_HEAT)


def test_step_explicit_positivity_and_sup_contraction():
    rng = np.random.default_rng(14)
    cases = [
        (ProblemParams(p=1.6, q=1.0, dim_n=3), 1e-4),
        (P_HEAT, 0.0),
        (ProblemParams(p=3.0, q=2.0, dim_n=3), 0.0),
        (ProblemParams(p=3.4, q=2.0, dim_n=3), 0.0),
    ]
    for params, eps in cases:
        for grid in (Grid((12,), (1.0,)), Grid((7, 9), (1.0, 1.3))):
            u = ScalarField(grid, rng.uniform(0.0, 2.0, size=grid.shape))
            sup0 = float(np.abs(u.values).max())
            for _ in range(5):
                dt = min(stable_dt(u, params, eps_reg=eps), 1.0)
                u = step_explicit(u, dt, params, eps_reg=eps)
                assert np.all(u.values >= 0.0), (params.p, grid.shape)
                sup = float(np.abs(u.values).max())
                assert sup <= sup0 * (1.0 + 1e-13)
                sup0 = sup


def test_step_explicit_against_imex_order():
    # both steppers agree to O(dt^2) on one step
    g = Grid((15,), (1.0,))
    u0 = ScalarField(g, np.sin(math.pi * g.axis_nodes(0)))
    params = ProblemParams(p=2.6, q=1.5, dim_n=3, gamma=0.5)
    errs = []
    for dt in (4e-4, 2e-4):
        a = step_explicit(u0, dt, params)
        b = step_imex(u0, dt, params)
        errs.append(float(np.abs(a.values - b.values).max()))
    assert errs[1] / errs[0] < 0.6
    assert errs[0] < 5e-3


def test_step_imex_single_node_frozen():
    # backward Euler on one node: u1 = u0 / (1 + 8 dt) = 1/3 at dt = 1/4
    g = Grid((1,), (1.0,))
    fld = ScalarField(g, [1.0])
    out = step_imex(fld, 0.25, P_HEAT)
    assert out.values[0] == pytest.approx(1.0 / 3.0, rel=1e-10)


def test_step_imex_matches_heat_reference():
    # p = 2 makes the implicit problem linear; compare against a dense solve
    g = Grid((10,), (1.0,))
    h = g.spacing[0]
    rng = np.random.default_rng(15)
    u0 = rng.uniform(0.5, 1.0, size=10)
    dt = 0.05
    lap = np.zeros((10, 10))
    for i in range(10):
        lap[i, i] = -2.0
        if i > 0:
            lap[i, i - 1] = 1.0
        if i < 9:
            lap[i, i + 1] = 1.0
    mat = np.eye(10) - dt / (h * h) * lap
    want = np.linalg.solve(mat, u0)
    got = step_imex(ScalarField(g, u0), dt, P_HEAT)
    assert np.allclose(got.values, want, rtol=1e-12, atol=1e-13)


def test_step_imex_2d_matches_dense_reference():
    g = Grid((4, 5), (1.0, 1.2))
    hx, hy = g.spacing
    rng = np.random.default_rng(16)
    u0 = rng.uniform(0.5, 1.0, size=(4, 5))
    dt = 0.03
    n = 20
    mat = np.eye(n)
    for i in range(4):
        for j in range(5):
            row = i * 5 + j
            mat[row, row] += 2.0 * dt / (hx * hx) + 2.0 * dt / (hy * hy)
            if i > 0:
                mat[row, row - 5] -= dt / (hx * hx)
            if i < 3:
                mat[row, row + 5] -= dt / (hx * hx)
            if j > 0:
                mat[row, row - 1] -= dt / (hy * hy)
            if j < 4:
                mat[row, row + 1] -= dt / (hy * hy)
    want = np.linalg.solve(mat, u0.ravel()).reshape(4, 5)
    got = step_imex(ScalarField(g, u0), dt, P_HEAT)
    assert np.allclose(got.values, want, rtol=1e-12, atol=1e-13)


def test_imex_nonlinear_consistency():
    # p != 2: halving dt must shrink the defect against a resolved reference
    g = Grid((12,), (1.0,))
    u0 = ScalarField(g, np.sin(math.pi * g.axis_nodes(0)))
    params = ProblemParams(p=2.8, q=1.0, dim_n=3)
    t_end = 2e-3
    ref = u0
    n_ref = 256
    for _ in range(n_ref):
        ref = step_explicit(ref, t_end / n_ref, params)
    errs = []
    for n in (4, 8):
        u = u0
        for _ in range(n):
            u = step_imex(u, t_end / n, params)
        errs.append(float(np.abs(u.values - ref.values).max()))
    assert errs[1] / errs[0] < 0.6


def _imex_tol(u0: ScalarField) -> float:
    """The residual tolerance step_imex applies to a step from u0."""
    return IMEX_RTOL * (1.0 + lr_norm(u0.values, 2.0, u0.grid.quad_weight))


def _lagged_faces(cur: ScalarField, coeff: CoefficientField, p: float, eps: float, t: float):
    """Face diffusivities A * D(cur) of one lagged-diffusivity sweep."""
    diffs = face_diffusivities(cur, p, eps)
    return [coeff.face_values(cur.grid, axis, t) * d for axis, d in enumerate(diffs)]


def _dense_implicit(grid: Grid, dfaces: list, dt: float) -> np.ndarray:
    """Dense matrix of v -> v - dt * div(D grad v), one unit vector at a time."""
    n = int(np.prod(grid.shape))
    mat = np.zeros((n, n))
    for k in range(n):
        v = np.zeros(n)
        v[k] = 1.0
        v = v.reshape(grid.shape)
        div = np.zeros(grid.shape)
        for axis, h in enumerate(grid.spacing):
            pad = [(0, 0)] * grid.dim
            pad[axis] = (1, 1)
            flux = dfaces[axis] * np.diff(np.pad(v, pad), axis=axis) / h
            div += np.diff(flux, axis=axis) / h
        mat[:, k] = (v - dt * div).ravel()
    return mat


def _stencil(grid: Grid, dfaces: list, dt: float) -> _ImplicitStencil:
    """The implicit matrix of the given face mobilities, as a FluxKernel assembles it.

    At p = 2 the kernel's mobility is its coefficient, so a diagonal
    coefficient returning dfaces puts them in the kernel bit for bit.
    """
    kernel = FluxKernel(grid)
    kernel.load(np.zeros(grid.shape))
    kernel.mobility(CoefficientField("diagonal", lambda t, axis, *xs: dfaces[axis]), 2.0, 0.0, 0.0)
    return _ImplicitStencil(*kernel.implicit_matrix(dt))


COEFFICIENTS = {
    "identity": CoefficientField(),
    "scalar": CoefficientField(
        kind="scalar", fn=lambda t, *xs: 1.0 + 0.5 * np.sin(3.0 * xs[0] + 1.0) ** 2
    ),
    "diagonal": CoefficientField(
        kind="diagonal", fn=lambda t, axis, *xs: (1.0 + axis) * (1.0 + 0.25 * np.cos(2.0 * xs[-1]))
    ),
}


@pytest.mark.parametrize("coeff_kind", sorted(COEFFICIENTS))
@pytest.mark.parametrize("shape", [(7,), (1,), (4, 4), (4, 5), (5, 3), (1, 6), (6, 1)])
def test_implicit_stencil_matches_dense_assembly(shape, coeff_kind):
    grid = Grid(shape, (1.0,) * len(shape) if len(shape) == 1 else (1.0, 1.3))
    coeff = COEFFICIENTS[coeff_kind]
    rng = np.random.default_rng(sum(shape))
    cur = ScalarField(grid, rng.uniform(0.2, 1.0, size=shape))
    dfaces = _lagged_faces(cur, coeff, 1.7, 1e-3, 0.2)
    dt = 0.02
    want = _dense_implicit(grid, dfaces, dt)
    stencil = _stencil(grid, dfaces, dt)
    n = want.shape[0]
    means = [dt * float(np.mean(d)) / (h * h) for d, h in zip(dfaces, grid.spacing)]
    assert np.allclose(stencil.means, means, rtol=1e-14, atol=0.0)
    columns = np.column_stack([stencil.matvec(np.eye(n)[:, k]) for k in range(n)])
    assert np.allclose(columns, want, rtol=1e-14, atol=1e-14)
    v = rng.standard_normal(n)
    assert np.allclose(stencil.matvec(v), want @ v, rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("shape", [(6, 1), (1, 6)])
def test_step_imex_degenerate_2d_grid_matches_dense_reference(shape):
    # one node across an axis: the along-axis and across-axis couplings share an offset
    grid = Grid(shape, (1.0, 0.8))
    u0 = ScalarField(grid, np.random.default_rng(18).uniform(0.5, 1.0, size=shape))
    dt = 0.03
    unit_faces = [np.ones((shape[0] + 1, shape[1])), np.ones((shape[0], shape[1] + 1))]
    mat = _dense_implicit(grid, unit_faces, dt)
    want = np.linalg.solve(mat, u0.values.ravel()).reshape(shape)
    got = step_imex(u0, dt, P_HEAT)
    assert np.allclose(got.values, want, rtol=1e-12, atol=1e-13)


def test_step_imex_flat_region_without_regularization_is_nonconvergence():
    # p < 2 with eps_reg = 0: a zero-gradient face has infinite diffusivity
    params = ProblemParams(p=1.5, q=1.0, dim_n=3)
    for grid in (Grid((16,), (1.0,)), Grid((9, 8), (1.0, 1.0))):
        u0 = make_initial(InitialSpec(kind="bump", radius=0.3), grid)
        assert np.any(u0.values == 0.0)
        with pytest.raises(NonConvergenceError, match="non-finite"):
            step_imex(u0, 1e-3, params, eps_reg=0.0)


def _random_faces(grid: Grid, rng) -> list:
    faces = []
    for axis in range(grid.dim):
        shape = list(grid.shape)
        shape[axis] += 1
        faces.append(rng.uniform(0.1, 2.0, size=shape))
    return faces


def _scipy_pcg(stencil, precondition, b, x0, atol):
    """The PCG sweep through scipy's cg and LinearOperator."""
    n = b.size
    mat = LinearOperator((n, n), matvec=stencil.matvec, dtype=float)
    precond = LinearOperator((n, n), matvec=precondition, dtype=float)
    x, _ = cg(mat, b, x0=x0, rtol=0.0, atol=atol, maxiter=evolve.IMEX_CG_MAX_ITER, M=precond)
    return x if np.linalg.norm(b - stencil.matvec(x)) <= atol else None


@pytest.mark.parametrize("shape", [(9,), (7, 8), (1, 6), (12, 5)])
@pytest.mark.parametrize("case", ["warm", "x0_zero", "zero_rhs", "misses"])
def test_pcg_sweep_matches_scipy_cg_bit_for_bit(shape, case, monkeypatch):
    grid = Grid(shape, (1.0,) * len(shape) if len(shape) == 1 else (1.0, 1.3))
    rng = np.random.default_rng(len(case) + sum(shape))
    stencil = _stencil(grid, _random_faces(grid, rng), 0.05)
    precondition = _sine_preconditioner([_sine_modes(n) for n in shape], stencil.means)
    n = stencil.diag.size
    b = np.zeros(n) if case == "zero_rhs" else rng.uniform(0.0, 1.0, n)
    x0 = np.zeros(n) if case == "x0_zero" else b + 1e-3 * rng.standard_normal(n)
    atol = 1e-300 if case == "misses" else 1e-9
    x0_before = x0.copy()
    if case in ("zero_rhs", "misses"):
        with np.errstate(invalid="ignore"):  # a residual that reaches exact zero divides 0 by 0 next
            want = _scipy_pcg(stencil, precondition, b, x0.copy(), atol)
            got = _pcg_sweep(stencil, precondition, b, x0, atol)
        assert np.array_equal(x0, x0_before)
        assert (want is None and got is None) if case == "misses" else got.tobytes() == want.tobytes()
        return
    # every iteration count up to convergence: both miss, then both return the same bits
    for cap in range(1, n + 1):
        monkeypatch.setattr(evolve, "IMEX_CG_MAX_ITER", cap)
        want = _scipy_pcg(stencil, precondition, b, x0.copy(), atol)
        got = _pcg_sweep(stencil, precondition, b, x0, atol)
        assert np.array_equal(x0, x0_before)
        if want is not None:
            break
        assert got is None
    assert cap >= 2 and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("shape", [(1,), (9,), (1, 6), (6, 1), (7, 8)])
def test_sine_preconditioner_inverts_the_constant_coefficient_matrix(shape):
    # at p = 2 with A = 1 every face couples alike, so the implicit matrix is I + sum_a c_a L_a
    grid = Grid(shape, (1.0,) * len(shape) if len(shape) == 1 else (1.0, 1.3))
    stencil = _stencil(grid, [1.0] * grid.dim, 0.05)
    precondition = _sine_preconditioner([_sine_modes(n) for n in shape], stencil.means)
    r = np.random.default_rng(sum(shape)).standard_normal(stencil.diag.size)
    assert np.allclose(stencil.matvec(precondition(r)), r, rtol=0.0, atol=1e-13)
    for n in shape:
        basis, eigenvalues = _sine_modes(n)
        assert np.allclose(basis @ basis, np.eye(n), rtol=0.0, atol=1e-14)
        second_difference = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
        assert np.allclose(second_difference @ basis, basis * eigenvalues, rtol=0.0, atol=1e-13)


def test_non_spd_matrix_is_nonconvergence():
    # [[1, 1], [1, 1]] is singular, and b = (1, 0) lies outside its range: no x meets atol
    stencil = _ImplicitStencil(np.array([1.0, 1.0]), ((1, np.array([1.0])),), (0.0,))
    stepper = _ImexStepper(Grid((2,), (1.0,)), P_HEAT, CoefficientField(), 0.0, 1e-3)
    with warnings.catch_warnings():  # CG breaks down at p^T q = 0: a miss, and no warning
        warnings.simplefilter("error")
        with pytest.raises(NonConvergenceError, match="CG did not reach"):
            evolve.spsolve(stencil, stepper, np.array([1.0, 0.0]), np.zeros(2), 1e-9)


def _newton_stencil(values, grid, coeff, p, eps, t, dt) -> _ImplicitStencil:
    """The matrix of step_imex's sweep from the iterate values."""
    kernel = FluxKernel(grid)
    kernel.load(values)
    kernel.mobility(coeff, p, eps, t)
    kernel.divergence()
    kernel.newton_mobility(p, eps)
    return _ImplicitStencil(*kernel.implicit_matrix(dt))


@pytest.mark.parametrize("p", [1.5, 2.5, 3.0])
def test_newton_matrix_is_the_step_jacobian_in_1d(p):
    # J v against the central difference of F(x) = x - dt div(m(x) grad x) - b along v
    grid = Grid((11,), (1.0,))
    rng = np.random.default_rng(int(10 * p))
    x = grid.axis_nodes(0) + 0.02 * rng.uniform(size=grid.shape)  # interior gradients near 1
    v = rng.standard_normal(grid.shape)
    coeff, eps, t, dt, step = COEFFICIENTS["scalar"], 1e-3, 0.2, 0.05, 1e-6

    def residual(y):
        return y - dt * p_flux_divergence(ScalarField(grid, y), coeff, p, eps, t).values

    want = (residual(x + step * v) - residual(x - step * v)) / (2.0 * step)
    got = _newton_stencil(x, grid, coeff, p, eps, t, dt).matvec(v)
    assert np.max(np.abs(got - want)) <= 1e-8 * np.max(np.abs(want))


def _face_components(values, grid) -> list:
    """Per axis (normal gradient, tangential component) on its faces, from a padded copy."""
    pad = np.pad(values, 1)
    (hx, hy), inner = grid.spacing, slice(1, -1)
    gx = np.diff(pad[:, inner], axis=0) / hx
    gy = np.diff(pad[inner, :], axis=1) / hy
    cy = (pad[:, 2:] - pad[:, :-2]) / (2.0 * hy)  # centred differences on every padded row
    cx = (pad[2:, :] - pad[:-2, :]) / (2.0 * hx)
    return [(gx, 0.5 * (cy[:-1] + cy[1:])), (gy, 0.5 * (cx[:, :-1] + cx[:, 1:]))]


@pytest.mark.parametrize("p", [1.5, 2.5, 3.0])
def test_newton_matrix_drops_only_the_tangential_derivative_in_2d(p):
    # the dense Jacobian of F whose face flux phi(g) = A (eps^2 + g^2 + t^2)^((p-2)/2) g
    # is differentiated in the normal gradient g alone, the tangential t held
    grid = Grid((5, 4), (1.0, 1.3))
    coeff, eps, t, dt, step = COEFFICIENTS["diagonal"], 1e-3, 0.2, 0.02, 1e-6
    x = np.random.default_rng(int(10 * p)).uniform(0.2, 1.0, size=grid.shape)
    faces = []
    for axis, (g, tangential) in enumerate(_face_components(x, grid)):
        phi = lambda g: (eps * eps + g * g + tangential * tangential) ** ((p - 2.0) / 2.0) * g
        faces.append(coeff.face_values(grid, axis, t) * (phi(g + step) - phi(g - step)) / (2.0 * step))
    want = _dense_implicit(grid, faces, dt)
    stencil = _newton_stencil(x, grid, coeff, p, eps, t, dt)
    n = want.shape[0]
    got = np.column_stack([stencil.matvec(np.eye(n)[:, k]) for k in range(n)])
    assert np.allclose(got, want, rtol=1e-8, atol=1e-8 * np.abs(want).max())


@pytest.mark.parametrize("shape", [(6,), (9, 8)])
def test_newton_matrix_is_finite_on_a_flat_face_without_regularization(shape):
    # p > 2 with eps_reg = 0: a face with no gradient has mobility 0, and so has its Newton term
    grid = Grid(shape, (1.0,) * len(shape))
    if len(shape) == 1:
        values = np.array([0.1, 0.3, 0.5, 0.5, 0.3, 0.1])
    else:
        values = make_initial(InitialSpec(kind="bump", radius=0.3), grid).values
    params = ProblemParams(p=2.8, q=1.0, dim_n=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stencil = _newton_stencil(values, grid, CoefficientField(), params.p, 0.0, 0.0, 1e-3)
        step_imex(ScalarField(grid, values), 1e-3, params, eps_reg=0.0)
    assert np.all(np.isfinite(stencil.diag)) and all(np.all(np.isfinite(c)) for _, c in stencil.upper)
    if len(shape) == 1:
        assert stencil.upper[0][1][2] == 0.0  # the face between the two 0.5s
    else:
        assert any(np.any(c == 0.0) for _, c in stencil.upper[1:])


P_FAST = ProblemParams(p=1.8, q=1.0, dim_n=2)


def _imex_scenario(t_end: float) -> Scenario:
    return _scenario(
        params=P_FAST, grid=Grid((16, 16), (1.0, 1.0)), initial=InitialSpec(kind="bump"),
        t_end=t_end, dt_init=2e-3, stepper="imex", sample_ratio=1.5,
    )


def _record_steps(monkeypatch) -> list:
    """(state, args, result, kernel) of every step_imex call."""
    steps, real_step = [], evolve.step_imex

    def recording_step(fld, *args, stepper):
        new = real_step(fld, *args, stepper=stepper)
        steps.append((fld, args, new, stepper.kernel))
        return new

    monkeypatch.setattr(evolve, "step_imex", recording_step)
    return steps


def _fresh_step_agrees(fld, args, new) -> bool:
    fresh = step_imex(fld, *args)
    return lr_norm(new.values - fresh.values, 2.0, fld.grid.quad_weight) <= 2.0 * _imex_tol(fld)


def _count_solves(monkeypatch) -> tuple:
    """One entry per spsolve call, and one per CG iteration (a preconditioner application)."""
    solves, iterations = [], []
    real_solve, real_preconditioner = evolve.spsolve, evolve._sine_preconditioner

    def counting_solve(*args):
        solves.append(1)
        return real_solve(*args)

    def counting_preconditioner(modes, means):
        precondition = real_preconditioner(modes, means)

        def counted(r):
            iterations.append(1)
            return precondition(r)

        return counted

    monkeypatch.setattr(evolve, "spsolve", counting_solve)
    monkeypatch.setattr(evolve, "_sine_preconditioner", counting_preconditioner)
    return solves, iterations


def test_later_sweeps_stop_cg_at_a_fraction_of_the_outer_residual(monkeypatch):
    # pinned just above the measured 293 solves (sweeps) and 372 CG iterations
    solves, iterations = _count_solves(monkeypatch)
    steps = _record_steps(monkeypatch)
    result = run(_imex_scenario(0.1))
    monkeypatch.undo()
    assert result.steps_rejected == 0 and result.steps_accepted == len(steps) == 68
    assert len(solves) <= 300 and len(iterations) <= 385
    # every accepted state meets the outer test, recomputed without the stepper's kernel
    for fld, (dt, params, coeff, eps, t), new, _ in steps:
        assert params.gamma == 0.0  # no source: the right-hand side is the old state
        div = p_flux_divergence(new, coeff, params.p, eps, t + dt).values
        res = lr_norm(new.values - dt * div - fld.values, 2.0, fld.grid.quad_weight)
        assert res < _imex_tol(fld)


def test_imex_halving_retries_in_the_same_stepper(monkeypatch):
    sc = _imex_scenario(1.0)
    stepper = _ImexStepper(sc.grid, sc.params, sc.coefficient, sc.eps_resolved, sc.dt_init)
    u, t = make_initial(sc.initial, sc.grid).values, 0.0
    for _ in range(3):
        u, dt = stepper.advance(u, t, 1.0 - t)
        t += dt
    held = stepper.previous
    steps = _record_steps(monkeypatch)
    recording_step, failed, previous = evolve.step_imex, [], []

    def failing_once(fld, *args, stepper):
        previous.append(stepper.previous)
        if not failed:
            failed.append(args[0])
            raise NonConvergenceError("forced")
        return recording_step(fld, *args, stepper=stepper)

    monkeypatch.setattr(evolve, "step_imex", failing_once)
    new, dt = stepper.advance(u, t, 1.0 - t)
    monkeypatch.undo()
    assert stepper.rejected == 1 and failed == [2e-3]
    assert dt == 1e-3 and dt != 1.0 - t  # the halved step does not land
    [(fld, args, got, kernel)] = steps
    assert args[0] == 1e-3 and got.values is new and kernel is stepper.kernel
    assert _fresh_step_agrees(fld, args, got)
    # the failed attempt leaves the held previous step for the retry; the accepted one replaces it
    assert previous[0] is held and previous[1] is held
    assert stepper.previous[0] is u and stepper.previous[1] == 1e-3


def test_c4_imex_work_stays_within_its_measured_counts(monkeypatch):
    # the c4 run; pinned just above the measured 947 solves (sweeps) and 1,465 CG iterations
    # (1,304 and 2,041 with lagged-diffusivity sweeps and a linear first iterate)
    solves, iterations = _count_solves(monkeypatch)
    result = run(Scenario(
        params=P_FAST, grid=Grid((64, 64), (1.0, 1.0)), initial=InitialSpec(kind="bump"), t_end=2.0,
        dt_init=2e-3, stepper="imex", sigma=2.0, r_list=(2.0,), stop_linf_atol=1e-10,
    ))
    monkeypatch.undo()
    assert result.steps_accepted == 299 and result.steps_rejected == 0
    assert len(solves) <= 970 and len(iterations) <= 1500


@pytest.mark.parametrize("p, steps, max_solves, max_iterations", [
    # measured 1,190 solves and 1,828 CG iterations; 2,048 and 2,945 with
    # lagged-diffusivity sweeps and a linear first iterate, 1,673 and 2,334 with
    # lagged-diffusivity sweeps and the quadratic first iterate
    (3.0, 395, 1220, 1880),
    # measured 1,074 solves and 6,893 CG iterations; 2,321 and 14,267 with
    # lagged-diffusivity sweeps and a linear first iterate
    (1.3, 193, 1100, 7100),
])
def test_imex_newton_work_away_from_p_2_stays_within_its_measured_counts(
    p, steps, max_solves, max_iterations, monkeypatch
):
    # the regimes the face-normal Newton matrix moves most: c4's run at p = 3 and 1.3 on 24^2 to t = 0.5
    solves, iterations = _count_solves(monkeypatch)
    result = run(Scenario(
        params=ProblemParams(p=p, q=1.0, dim_n=2), grid=Grid((24, 24), (1.0, 1.0)),
        initial=InitialSpec(kind="bump"), t_end=0.5, dt_init=2e-3, stepper="imex", sigma=2.0,
        r_list=(2.0,), stop_linf_atol=1e-10,
    ))
    monkeypatch.undo()
    assert result.steps_accepted == steps and result.steps_rejected == 0
    assert len(solves) <= max_solves and len(iterations) <= max_iterations


def test_heat_imex_takes_one_sweep_of_one_cg_iteration_per_step(monkeypatch):
    # at p = 2 with A = 1 the preconditioner is the implicit matrix itself, so
    # CG's first iteration solves the linear step exactly; the source is explicit
    solves, iterations = _count_solves(monkeypatch)
    result = run(_scenario(
        params=ProblemParams(p=2.0, q=1.5, dim_n=2, gamma=1.0), grid=Grid((24, 20), (1.0, 0.8)),
        initial=InitialSpec(kind="bump"), t_end=0.05, dt_init=2e-3, stepper="imex",
    ))
    monkeypatch.undo()
    assert result.steps_rejected == 0 and result.steps_accepted > 25
    assert len(solves) == len(iterations) == result.steps_accepted


def _first_iterates(monkeypatch) -> list:
    """The state each step_imex call has loaded when it assembles its first sweep: its first iterate."""
    firsts, real_matrix = [], FluxKernel.implicit_matrix
    real_step = evolve.step_imex

    def recording_step(*args, **kw):
        firsts.append(None)
        return real_step(*args, **kw)

    def recording(kernel, dt):
        if firsts and firsts[-1] is None:
            firsts[-1] = kernel._interior.copy()
        return real_matrix(kernel, dt)

    monkeypatch.setattr(evolve, "step_imex", recording_step)
    monkeypatch.setattr(FluxKernel, "implicit_matrix", recording)
    return firsts


def test_imex_first_iterate_extrapolates_the_last_accepted_step(monkeypatch):
    sc = _imex_scenario(1.0)
    stepper = _ImexStepper(sc.grid, sc.params, sc.coefficient, sc.eps_resolved, sc.dt_init)
    u0 = make_initial(sc.initial, sc.grid).values
    firsts = _first_iterates(monkeypatch)
    u1, dt0 = stepper.advance(u0, 0.0, 1.0)
    assert stepper.previous[0] is u0 and stepper.previous[1] == dt0 and stepper.earlier is None
    u2, dt1 = stepper.advance(u1, dt0, 0.5 * dt0)
    assert stepper.earlier[0] is u0 and stepper.previous[0] is u1
    _, dt2 = stepper.advance(u2, dt0 + dt1, 0.75 * dt0)
    evolve.step_imex(ScalarField(sc.grid, u2), dt2, sc.params, sc.coefficient, sc.eps_resolved, dt0 + dt1)
    monkeypatch.undo()
    # the first step has no history; the second starts from u1 + (dt1/dt0)(u1 - u0)
    assert np.array_equal(firsts[0], u0)
    assert np.array_equal(firsts[1], u1 + (dt1 / dt0) * (u1 - u0))
    # the third from the quadratic through u0, u1 and u2 at their times 0, dt0 and dt0 + dt1
    slope = u2 - u1
    c = dt2 * (dt2 + dt1) / (dt1 * (dt1 + dt0))
    assert np.array_equal(firsts[2], u2 + (dt2 / dt1) * slope + c * (slope - (dt1 / dt0) * (u1 - u0)))
    times, t = (0.0, dt0, dt0 + dt1), dt0 + dt1 + dt2
    lagrange = sum(
        u * math.prod((t - times[j]) / (times[i] - times[j]) for j in range(3) if j != i)
        for i, u in enumerate((u0, u1, u2))
    )
    assert np.allclose(firsts[2], lagrange, rtol=1e-12, atol=1e-12 * float(np.abs(u0).max()))
    # the one-shot step_imex (stepper=None) has no history and starts from u_n
    assert np.array_equal(firsts[3], u2)
    assert stepper.previous[0] is u2 and stepper.previous[1] == dt2 and stepper.earlier[0] is u1


@pytest.mark.parametrize("steps", [(1e-3, 1e-3), (2e-3, 5e-4), (5e-4, 3e-3)])
def test_imex_first_iterate_is_exact_on_a_quadratic_in_time(steps):
    # states on u(t) = a + b t + c t^2 at t_{n-2}, t_{n-1} and t_n predict u(t_n + dt)
    grid = Grid((5, 4), (1.0, 1.0))
    rng = np.random.default_rng(len(steps))
    a, b, c = (rng.standard_normal(grid.shape) for _ in range(3))
    dt2, dt1 = steps
    dt = 0.7 * dt1
    u = lambda t: a + b * t + c * t * t
    stepper = _ImexStepper(grid, P_FAST, CoefficientField(), 1e-4, dt)
    stepper.earlier, stepper.previous = (u(0.0), dt2), (u(dt2), dt1)
    got = stepper.first_iterate(u(dt2 + dt1), dt)
    assert np.allclose(got, u(dt2 + dt1 + dt), rtol=1e-12, atol=1e-12)
    # one held step: the line through u(t_{n-1}) and u(t_n), exact on a linear u
    stepper.earlier, stepper.previous = None, (a + b * dt2, dt1)
    got = stepper.first_iterate(a + b * (dt2 + dt1), dt)
    assert np.allclose(got, a + b * (dt2 + dt1 + dt), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("stepper", ["explicit", "imex"])
def test_run_lands_exactly_on_the_sample_times(monkeypatch, stepper):
    # the first sample comes before dt_init; the IMEX step to it fails once,
    # so the halved step falls short and the next one lands
    scenario = dataclasses.replace(_imex_scenario(0.02), stepper=stepper)
    taken, failed = [], []  # (t, dt) of every step taken
    real_step, real_update = evolve.step_imex, evolve._ExplicitStepper.update

    def failing_once(fld, dt, *args, stepper):
        if not failed:
            failed.append(dt)
            raise NonConvergenceError("forced")
        taken.append((args[-1], dt))
        return real_step(fld, dt, *args, stepper=stepper)

    def recording_update(self, dt):
        taken.append((self._t, dt))
        return real_update(self, dt)

    monkeypatch.setattr(evolve, "step_imex", failing_once)
    monkeypatch.setattr(evolve._ExplicitStepper, "update", recording_update)
    result = run(scenario)
    samples = evolve._sample_times(scenario)
    assert result.steps_rejected == (1 if stepper == "imex" else 0)
    assert result.series.times.tolist() == [0.0] + samples
    # each step starts where the last one ended, and every sample time is a step's end
    ends = [t for t, _ in taken[1:]] + [scenario.t_end]
    assert all(end == t + dt or end - t == dt for (t, dt), end in zip(taken, ends))
    assert set(samples) <= set(ends)


def test_step_imex_2d_nonlinear_matches_dense_picard():
    # the damped lagged-diffusivity loop with dense solves as the reference
    grid = Grid((6, 7), (1.0, 1.1))
    coeff = COEFFICIENTS["diagonal"]
    params = ProblemParams(p=2.7, q=1.0, dim_n=2)
    eps, dt, t = 1e-8, 4e-3, 0.1
    u0 = ScalarField(grid, np.random.default_rng(17).uniform(0.0, 1.0, size=grid.shape))
    tol = _imex_tol(u0)
    cur, prev_res = u0.values, math.inf
    for _ in range(evolve.IMEX_MAX_ITER):
        faces = _lagged_faces(ScalarField(grid, cur), coeff, params.p, eps, t + dt)
        x = np.linalg.solve(_dense_implicit(grid, faces, dt), u0.values.ravel())
        x = x.reshape(grid.shape)
        div = p_flux_divergence(ScalarField(grid, x), coeff, params.p, eps, t + dt).values
        res = lr_norm(x - dt * div - u0.values, 2.0, grid.quad_weight)
        if res < tol:
            break
        if res >= prev_res:
            x = 0.5 * (x + cur)
        cur, prev_res = x, res
    else:
        pytest.fail("dense reference did not converge")
    got = step_imex(u0, dt, params, coeff, eps, t)
    assert lr_norm(got.values - x, 2.0, grid.quad_weight) <= 2.0 * tol


_SHAPES = st.one_of(
    st.tuples(st.integers(3, 20)),
    st.tuples(st.integers(1, 12), st.integers(1, 12)),
)


@settings(max_examples=200)
@given(
    p=st.floats(1.2, 6.0),
    shape=_SHAPES,
    kind=st.sampled_from(["bump", "random_positive"]),
    seed=st.integers(0, 2**16),
    dt=st.floats(1e-4, 1e-1),
)
def test_step_imex_maximum_principle_property(p, shape, kind, seed, dt):
    # gamma = 0: no source, so a converged step keeps 0 <= u <= sup u0
    params = ProblemParams(p=p, q=1.0, dim_n=3)
    grid = Grid(shape, (1.0,) * len(shape))
    u0 = make_initial(InitialSpec(kind=kind), grid, params, seed)
    eps = evolve.DEFAULT_EPS_DEGENERATE if p >= 2.0 else evolve.DEFAULT_EPS_SINGULAR
    try:
        new = step_imex(u0, dt, params, eps_reg=eps)
    except NonConvergenceError:
        return
    slack = _imex_tol(u0)
    assert float(new.values.max()) <= float(u0.values.max()) + slack
    assert float(new.values.min()) >= -slack


@settings(max_examples=150)
@given(
    shape=st.one_of(st.tuples(st.integers(1, 12)), st.tuples(st.integers(1, 12), st.integers(1, 12))),
    p=st.floats(1.1, 40.0, exclude_min=True, exclude_max=True),
    eps_reg=st.sampled_from([0.0, 1e-8, 1e-4]),
    dt=st.floats(1e-6, 10.0),
    gamma=st.sampled_from([0.0, 1.0]),
    kind=st.sampled_from(["eigenfunction", "bump", "random_positive"]),
    amplitude=st.one_of(st.floats(0.0, 1.0), st.floats(0.0, 1e12)),
    seed=st.integers(0, 2**16),
)
# a solved iterate with a zero-gradient face, p < 2 and eps_reg = 0 (the
# first step of a 2-node eigenfunction run)
@example(shape=(2,), p=1.8774625664026732, eps_reg=0.0, dt=0.127685650075655, gamma=0.0,
         kind="eigenfunction", amplitude=0.010370409686981137, seed=0)
# finite mobilities whose fluxes overflow (p near 26, |u| near 1e11)
@example(shape=(12, 5), p=26.891491371404395, eps_reg=1e-8, dt=0.00451163540782406, gamma=1.0,
         kind="eigenfunction", amplitude=262700522590.15576, seed=0)
@example(shape=(7, 11), p=25.852579952439644, eps_reg=0.0, dt=0.12764186355386126, gamma=0.0,
         kind="random_positive", amplitude=448834954262.2181, seed=16322)
def test_step_imex_fails_only_as_a_stepping_failure(shape, p, eps_reg, dt, gamma, kind, amplitude, seed):
    # a non-finite value in any sweep is a failed step, never a ValueError
    grid = Grid(shape, (1.0,) * len(shape))
    u0 = make_initial(InitialSpec(kind=kind, amplitude=amplitude), grid, seed=seed)
    params = ProblemParams(p=p, q=1.0, dim_n=3, gamma=gamma)
    try:
        with np.errstate(all="ignore"):
            step_imex(u0, dt, params, eps_reg=eps_reg)
    except (NonConvergenceError, OverflowDetected):
        pass


def test_the_random_positive_example_overflows_at_its_datum():
    # the random_positive @example above still reaches the path it was added for:
    # its datum's own fluxes overflow, a _DatumFailure that no dt mends
    grid = Grid((7, 11), (1.0, 1.0))
    u0 = make_initial(InitialSpec(kind="random_positive", amplitude=448834954262.2181), grid, seed=16322)
    params = ProblemParams(p=25.852579952439644, q=1.0, dim_n=3, gamma=0.0)
    with np.errstate(all="ignore"), pytest.raises(evolve._DatumFailure, match="non-finite"):
        step_imex(u0, 0.12764186355386126, params, eps_reg=0.0)


COEFFICIENT_BOUNDS = {"identity": (1.0, 1.0), "scalar": (1.0, 1.5), "diagonal": (0.75, 2.5)}


@settings(max_examples=200)
@given(
    p=st.floats(1.2, 6.0),
    shape=_SHAPES,
    kind=st.sampled_from(["bump", "random_positive"]),
    coeff_kind=st.sampled_from(sorted(COEFFICIENTS)),
    seed=st.integers(0, 2**16),
)
def test_step_explicit_maximum_principle_property(p, shape, kind, coeff_kind, seed):
    # gamma = 0: steps at the stable dt keep 0 <= u and never raise the sup norm
    alpha, lam = COEFFICIENT_BOUNDS[coeff_kind]
    params = ProblemParams(p=p, q=1.0, dim_n=3, alpha=alpha, lambda_upper=lam)
    coeff = COEFFICIENTS[coeff_kind]
    grid = Grid(shape, (1.0,) * len(shape))
    u = make_initial(InitialSpec(kind=kind), grid, params, seed)
    eps = evolve.DEFAULT_EPS_DEGENERATE if p >= 2.0 else evolve.DEFAULT_EPS_SINGULAR
    t = 0.0
    for _ in range(5):
        dt = stable_dt(u, params, coeff, eps, t)
        if math.isinf(dt):
            return  # a zero field stays zero
        new = step_explicit(u, dt, params, coeff, eps, t)
        assert float(new.values.max()) <= float(u.values.max())
        assert float(new.values.min()) >= 0.0
        u, t = new, t + dt


def _neighbourhood_bounds(values: np.ndarray) -> tuple:
    """Per node, (min, max) of its own value and its 2 dim neighbours', Dirichlet zeros outside."""
    padded = np.pad(values, 1)
    inner = (slice(1, -1),) * values.ndim
    lo, hi = values.copy(), values.copy()
    for axis in range(values.ndim):
        for shift in (0, 2):
            near = list(inner)
            near[axis] = slice(shift, shift + values.shape[axis])
            np.minimum(lo, padded[tuple(near)], out=lo)
            np.maximum(hi, padded[tuple(near)], out=hi)
    return lo, hi


@settings(max_examples=200)
@given(
    p=st.floats(1.2, 6.0),
    shape=_SHAPES,
    lengths=st.tuples(st.floats(0.5, 2.0), st.floats(0.5, 2.0)),
    coeff_kind=st.sampled_from(sorted(COEFFICIENTS)),
    seed=st.integers(0, 2**16),
    t=st.floats(0.0, 1.0),
)
# unit mobility on a uniform grid: every node meets the bound, to rounding
@example(p=2.0, shape=(2, 2), lengths=(1.0625, 1.0625), coeff_kind="identity", seed=0, t=0.0)
def test_explicit_step_makes_no_new_local_extrema(p, shape, lengths, coeff_kind, seed, t):
    # gamma = 0: at the stable dt, dt sum_f m_f / h_f^2 <= CFL_SAFETY <= 1 at
    # every node, so each new value is a convex combination of the node's old
    # value and its neighbours'.  A CFL_SAFETY of 1.6 fails it.
    alpha, lam = COEFFICIENT_BOUNDS[coeff_kind]
    params = ProblemParams(p=p, q=1.0, dim_n=3, gamma=0.0, alpha=alpha, lambda_upper=lam)
    coeff = COEFFICIENTS[coeff_kind]
    grid = Grid(shape, lengths[: len(shape)])
    u = ScalarField(grid, np.random.default_rng(seed).uniform(0.0, 2.0, size=shape))
    eps = evolve.DEFAULT_EPS_DEGENERATE if p >= 2.0 else evolve.DEFAULT_EPS_SINGULAR
    dt = stable_dt(u, params, coeff, eps, t)
    weight = np.zeros(shape)
    for axis, (h, d) in enumerate(zip(grid.spacing, face_diffusivities(u, p, eps))):
        m = np.asarray(coeff.face_values(grid, axis, t)) * d
        lower = [slice(None)] * len(shape)
        upper = [slice(None)] * len(shape)
        lower[axis], upper[axis] = slice(0, -1), slice(1, None)
        weight += (m[tuple(lower)] + m[tuple(upper)]) / (h * h)
    assert dt * float(weight.max()) <= evolve.CFL_SAFETY * (1.0 + 4.0 * np.finfo(float).eps)
    new = step_explicit(u, dt, params, coeff, eps, t).values
    lo, hi = _neighbourhood_bounds(u.values)
    assert np.all(new >= lo) and np.all(new <= hi)


# ---------------------------------------------------------------------------
# the scenario runner


def test_scenario_validation():
    with pytest.raises(ValueError):
        _scenario(stepper="magic")
    with pytest.raises(ValueError):
        _scenario(snapshot_times=(0.5,))  # beyond t_end
    with pytest.raises(ValueError):
        _scenario(k_levels=(-1.0,))
    with pytest.raises(ValueError):
        _scenario(r_list=(0.5,))
    with pytest.raises(ValueError):
        _scenario(sample_ratio=1.0)
    with pytest.raises(ValueError, match="eps_reg"):
        _scenario(eps_reg=-1e-3)
    assert _scenario(eps_reg=0.0).eps_resolved == 0.0


NON_FINITE_SCENARIOS = {
    # field: values that must be rejected; NaN passes every `x < bound` test
    "dt_init": (math.nan, math.inf),
    "sample_start": (math.nan, math.inf),
    "sample_ratio": (math.nan, math.inf),
    "stop_linf_atol": (math.nan, math.inf),
    "eps_reg": (math.nan, math.inf),
    "sigma": (math.nan, math.inf, 0.5),
    "snapshot_times": ((math.nan,), (0.0, math.nan)),
    "k_levels": ((math.nan,), (math.inf,)),
    "r_list": ((math.nan,), (2.0, math.nan)),
    "seed": (-1,),  # not non-finite, but random.Random(-1) would draw the data of seed 1
}


@pytest.mark.parametrize("name, value", [
    (name, value) for name, values in NON_FINITE_SCENARIOS.items() for value in values
])
def test_scenario_rejects_non_finite_numbers(name, value):
    with pytest.raises(ValueError, match=name):
        _scenario(**{name: value})


# two values whose labels print alike: dict(zip(columns, norms)) kept the
# last one, and series.csv had one column holding the last value's norm
COLLIDING_LABELS = [
    ("r_list", (2.0, 2.0000001), "'l2'"),
    ("k_levels", (0.1, 0.1000001), "'gk0.1'"),
    ("r_list", (1.0000001,), "'l1'"),  # the L^1 column, always recorded
]


@pytest.mark.parametrize("key, values, label", COLLIDING_LABELS)
def test_scenario_rejects_values_sharing_a_column_label(key, values, label):
    first, second = (1.0, *values) if len(values) == 1 else values
    with pytest.raises(ValueError) as caught:
        _scenario(**{key: values})
    assert str(caught.value) == f"{key} values {first!r} and {second!r} share the column label {label}"


def test_scenario_rejects_snapshot_times_sharing_a_file_name():
    # simulate wrote both fields to snapshot_t0.001.csv, the second over the first
    with pytest.raises(ValueError) as caught:
        _scenario(snapshot_times=(0.001, 0.0010000001))
    assert str(caught.value) == (
        "snapshot_times values 0.001 and 0.0010000001 share the file name 'snapshot_t0.001.csv'"
    )


@pytest.mark.parametrize("stepper, p", [("explicit", 2.5), ("imex", 1.8)])
def test_early_stop_on_a_snapshot_time_returns_the_snapshot(stepper, p):
    # the zero datum stops at the first sample, which is the snapshot time: no snapshot came back
    s = _scenario(
        params=ProblemParams(p=p, q=1.0, dim_n=3), grid=Grid((8,), (1.0,)), initial=InitialSpec(kind="zero"),
        snapshot_times=(0.001,), sample_start=0.001, sample_ratio=2.0, stop_linf_atol=1e-10, dt_init=1e-3,
        stepper=stepper,
    )
    res = run(s)
    assert res.metadata["stopped_early"] and list(res.series.times) == [0.0, 0.001]
    assert [t for t, _ in res.snapshots] == [0.001]
    assert np.array_equal(res.snapshots[0][1].values, np.zeros(8))


@pytest.mark.parametrize("amplitude", [math.nan, math.inf, -1.0])
def test_initial_amplitude_must_be_finite_and_nonnegative(amplitude):
    with pytest.raises(ValueError, match="amplitude"):
        InitialSpec(kind="bump", amplitude=amplitude)


def test_scenario_resolved_properties():
    s = _scenario(params=ProblemParams(p=2.0, q=1.5, dim_n=3, gamma=1.0))
    assert s.sigma_resolved == pytest.approx(3.0)
    s = _scenario(params=ProblemParams(p=2.0, q=0.8, dim_n=3, gamma=1.0))
    assert s.sigma_resolved == 2.0  # sublinear default
    s = _scenario(sigma=4.5)
    assert s.sigma_resolved == 4.5
    assert _scenario().eps_resolved == 1e-8
    assert _scenario(params=ProblemParams(p=1.8, q=1.0, dim_n=3)).eps_resolved == 1e-4
    assert _scenario(eps_reg=1e-6).eps_resolved == 1e-6
    assert _scenario(grid=Grid((8, 8), (1.0, 1.0))).dim_mismatch  # dim_n = 3, 2d grid
    matched = _scenario(
        params=ProblemParams(p=2.0, q=1.0, dim_n=2), grid=Grid((8, 8), (1.0, 1.0))
    )
    assert not matched.dim_mismatch


def test_run_zero_horizon_single_row():
    res = run(_scenario(t_end=0.0))
    assert res.series.n == 1
    assert res.series.times[0] == 0.0
    assert res.extinction_time is None  # eigenfunction datum is not extinct


def test_run_zero_datum_extinct_at_origin():
    res = run(_scenario(initial=InitialSpec(kind="zero")))
    assert res.extinction_time == 0.0
    assert float(res.series.column("linf").max()) == 0.0


def test_run_records_requested_columns_and_snapshots():
    s = _scenario(
        t_end=0.004,
        r_list=(2.0, 4.0),
        k_levels=(0.0, 0.25),
        snapshot_times=(0.0, 0.002, 0.004),
        sample_start=1e-5,
    )
    res = run(s)
    assert res.series.labels == [
        "linf",
        "l1",
        "l2",
        "l4",
        "gk0_lsigma",
        "gk0_l1",
        "gk0.25_lsigma",
        "gk0.25_l1",
    ]
    assert [t for t, _ in res.snapshots] == [0.0, 0.002, 0.004]
    # sample times include the exact snapshot times and the horizon
    for want in (0.002, 0.004):
        assert np.any(np.isclose(res.series.times, want, rtol=0, atol=0))
    assert res.series.times[0] == 0.0 and res.series.times[-1] == 0.004
    # k = 0 sigma column matches the plain norm of order sigma (here 2.0)
    assert np.allclose(res.series.column("gk0_lsigma"), res.series.column("l2"), rtol=1e-12)


# orders with pow (3.5), with the square (2) and with the products (3, 4)
RECOMPUTED_ORDERS = (1.0, 2.0, 3.0, 3.5, 4.0, math.inf)


def test_run_columns_equal_their_recomputation_from_the_snapshots():
    params = ProblemParams(p=1.9, q=1.6, dim_n=2, gamma=0.3)
    assert classify(params).regime is Regime.SUPERLINEAR_SIGMA
    for sigma in (None, 3.0):  # the classified sigma (pow) and a pinned integer one (products)
        s = Scenario(
            params=params,
            grid=Grid((9, 8), (1.0, 1.5)),
            initial=InitialSpec(kind="bump"),
            t_end=4e-3,
            r_list=RECOMPUTED_ORDERS,
            k_levels=(0.0, 0.2),
            snapshot_times=(0.0, 1e-3, 2.5e-3, 4e-3),
            sigma=sigma,
        )
        assert s.sigma_resolved == 3.0 if sigma else s.sigma_resolved not in (1.0, 2.0, 3.0, 4.0)
        _assert_columns_recomputed(s, run(s))


def _assert_columns_recomputed(s: Scenario, res) -> None:
    """Every column at every snapshot == its lr_norm/truncate_excess recomputation."""
    assert [ts for ts, _ in res.snapshots] == list(s.snapshot_times)
    w, sigma = s.grid.quad_weight, s.sigma_resolved
    for ts, snap in res.snapshots:
        (i,) = np.flatnonzero(res.series.times == ts)
        want = {"linf": lr_norm(snap.values, math.inf, w), "l1": lr_norm(snap.values, 1.0, w)}
        want.update((f"l{r:g}", lr_norm(snap.values, r, w)) for r in s.norm_orders)
        for k in s.k_levels:
            excess = truncate_excess(snap.values, k)
            want[f"gk{k:g}_lsigma"] = lr_norm(excess, sigma, w)
            want[f"gk{k:g}_l1"] = lr_norm(excess, 1.0, w)
        assert list(want) == res.series.labels
        for label, value in want.items():
            assert res.series.column(label)[i] == value, (ts, label)


@settings(max_examples=24)
@given(
    st.sampled_from(["explicit", "imex"]),
    st.sampled_from(["bump", "eigenfunction", "zero"]),
    st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.5]) | st.floats(0.0, 2.0), min_size=1, max_size=4),
    st.sampled_from([None, 3.0]),
)
def test_run_columns_equal_their_recomputation_at_levels_around_the_sup(stepper, kind, fractions, sigma):
    # levels below, at and above the initial sup; with the zero datum every
    # level is at or above the sup, whose columns run() records as 0.0
    # without computing them
    grid = Grid((7, 6), (1.0, 1.2))
    initial = InitialSpec(kind=kind, amplitude=0.8)
    sup0 = float(np.max(np.abs(make_initial(initial, grid).values)))
    s = Scenario(
        params=ProblemParams(p=1.9, q=1.6, dim_n=2, gamma=0.3),
        grid=grid,
        initial=initial,
        t_end=1e-3,
        stepper=stepper,
        r_list=RECOMPUTED_ORDERS,
        k_levels=tuple(f * sup0 for f in fractions) + (0.1,),
        snapshot_times=(0.0, 2e-4, 1e-3),
        sigma=sigma,
    )
    _assert_columns_recomputed(s, run(s))


def test_scenario_columns_are_the_recorded_labels():
    s = _scenario(r_list=(1.0, 2.0, 3.5, math.inf), k_levels=(0.0, 0.25), t_end=1e-3)
    assert s.columns == (
        "linf", "l1", "l2", "l3.5", "gk0_lsigma", "gk0_l1", "gk0.25_lsigma", "gk0.25_l1",
    )
    assert run(s).series.labels == list(s.columns)


def test_run_explicit_matches_manual_stepping():
    # the fused loop must reproduce the public stepper composition bitwise
    s = _scenario(
        params=ProblemParams(p=2.4, q=1.6, dim_n=3, gamma=0.3),
        grid=Grid((11,), (1.0,)),
        t_end=0.003,
    )
    res = run(s)

    from decaylab.evolve import _sample_times

    u = make_initial(s.initial, s.grid, s.params, s.seed)
    t = 0.0
    for target in _sample_times(s):
        while t < target:
            dt = stable_dt(u, s.params, s.coefficient, s.eps_resolved, t)
            landing = dt >= target - t
            dt = min(dt, target - t)
            u = step_explicit(u, dt, s.params, s.coefficient, s.eps_resolved, t)
            t = target if landing else t + dt
    # identical float path: exact equality, not approximate
    final_linf = float(np.abs(u.values).max())
    assert final_linf == res.series.column("linf")[-1]


def test_run_is_deterministic():
    s1 = _scenario(initial=InitialSpec(kind="random_positive"), seed=42, t_end=0.002)
    s2 = _scenario(initial=InitialSpec(kind="random_positive"), seed=42, t_end=0.002)
    a = run(s1).series.to_csv_text()
    b = run(s2).series.to_csv_text()
    assert a == b


def test_run_source_amplifies_pointwise():
    # identical fixed-dt trajectories: adding the source can only increase u
    g = Grid((13,), (1.0,))
    u_plain = make_initial(InitialSpec(kind="eigenfunction"), g)
    u_source = make_initial(InitialSpec(kind="eigenfunction"), g)
    plain = ProblemParams(p=2.0, q=1.5, dim_n=3, gamma=0.0)
    source = ProblemParams(p=2.0, q=1.5, dim_n=3, gamma=0.5)
    dt = 1e-4
    for _ in range(30):
        u_plain = step_explicit(u_plain, dt, plain)
        u_source = step_explicit(u_source, dt, source)
    assert np.all(u_source.values >= u_plain.values)
    assert float(u_source.values.max()) > float(u_plain.values.max())


def _barenblatt(t: float, grid: Grid) -> np.ndarray:
    """The p = 3, N = 2 Barenblatt solution, centred in the unit square (Barenblatt 1952):
    t^-a [C - k (|x| t^-b)^(p/(p-1))]_+^((p-1)/(p-2)) with C = 0.05, a = N/(N(p-2)+p),
    b = a/N and k = ((p-2)/p) b^(1/(p-1))."""
    p, n, c = 3.0, 2, 0.05
    a = n / (n * (p - 2.0) + p)
    b = a / n
    k = (p - 2.0) / p * b ** (1.0 / (p - 1.0))
    x, y = grid.node_mesh()
    radius = np.hypot(x - 0.5, y - 0.5)
    return t ** -a * np.maximum(c - k * (radius * t ** -b) ** (p / (p - 1.0)), 0.0) ** ((p - 1.0) / (p - 2.0))


def test_explicit_stepper_converges_to_the_barenblatt_solution():
    # exact with zero boundary data while its support (radius 0.19 at t = 1e-2)
    # stays in the box; measured relative sup errors 1.79e-2, 6.36e-3 and
    # 2.39e-3 in 19, 72 and 288 steps, orders 1.49 and 1.41
    params, errors = ProblemParams(p=3.0, q=1.0, dim_n=2), []
    for n in (31, 63, 127):
        grid = Grid((n, n), (1.0, 1.0))
        stepper = evolve._ExplicitStepper(grid, params, CoefficientField(), evolve.DEFAULT_EPS_DEGENERATE)
        u, t = _barenblatt(1e-3, grid), 1e-3
        while t < 1e-2:
            u, dt = stepper.advance(u, t, 1e-2 - t)
            t = 1e-2 if dt == 1e-2 - t else t + dt
        exact = _barenblatt(1e-2, grid)
        errors.append(float(np.max(np.abs(u - exact)) / np.max(exact)))
    assert errors[0] <= 1.9e-2 and errors[1] <= 6.7e-3 and errors[2] <= 2.5e-3
    assert all(math.log2(coarse / fine) >= 1.35 for coarse, fine in zip(errors, errors[1:]))


def test_explicit_run_at_p_below_2_is_within_its_measured_time_error(monkeypatch):
    # c6 leg B's p, q and gamma on 32^2 to t = 0.1, against a run at an eighth
    # of CFL_SAFETY.  Measured largest relative gaps 2.21e-3 (linf) and
    # 2.20e-3 (l1); safety 0.4 read 9.6e-4, 0.9 read 2.52e-3 and 1.6, past
    # the monotone bound, 0.23, so a larger safety fails the bound.
    def series(safety):
        monkeypatch.setattr(evolve, "CFL_SAFETY", safety)
        params = ProblemParams(p=1.9, q=1.5, dim_n=2, gamma=0.1)
        return run(_scenario(params=params, grid=Grid((32, 32), (1.0, 1.0)), initial=InitialSpec(), t_end=0.1)).series

    coarse, fine = series(evolve.CFL_SAFETY), series(evolve.CFL_SAFETY / 8.0)
    assert np.array_equal(coarse.times, fine.times)
    for column in ("linf", "l1"):
        a, b = coarse.column(column), fine.column(column)
        assert float(np.max(np.abs(a - b) / np.maximum(np.abs(a), np.abs(b)))) <= 2.4e-3, column


def test_run_blow_up_detection():
    params = ProblemParams(p=2.0, q=1.9, dim_n=3, gamma=1e7)
    s = _scenario(params=params, grid=Grid((8,), (1.0,)), t_end=5.0, stop_linf_atol=0.0)
    res = run(s)
    assert res.blow_up_time is not None
    assert res.extinction_time is None
    assert float(res.series.column("linf")[-1]) < math.inf


def _heat_with_coefficient(value: float, params: ProblemParams) -> Scenario:
    return _scenario(
        params=params,
        grid=Grid((64,), (1.0,)),
        initial=InitialSpec(kind="random_positive"),
        coefficient=CoefficientField(kind="scalar", fn=lambda t, x: value + 0.0 * x),
        t_end=0.05,
    )


def test_run_coefficient_inside_the_bounds_is_stable():
    # a heat problem cannot blow up; the CFL bound must follow the coefficient
    res = run(_heat_with_coefficient(3.0, ProblemParams(p=2.0, q=1.0, dim_n=3, lambda_upper=3.0)))
    assert res.blow_up_time is None
    linf = res.series.column("linf")
    assert np.all(np.diff(linf) <= 0.0)
    assert res.series.times[-1] == 0.05


@pytest.mark.parametrize("value, params", [
    (3.0, P_HEAT),  # the coefficient exceeds the default lambda_upper = 1
    (5.0, ProblemParams(p=2.0, q=1.0, dim_n=3, alpha=1.0, lambda_upper=1.0)),
    (0.2, ProblemParams(p=2.0, q=1.0, dim_n=3, alpha=0.5, lambda_upper=1.5)),
])
def test_run_rejects_a_coefficient_outside_the_bounds(value, params, monkeypatch):
    def no_step(*args, **kwargs):
        raise AssertionError("stepped before the bounds check")

    monkeypatch.setattr(evolve, "_ExplicitStepper", no_step)
    with pytest.raises(ValueError, match="ellipticity bounds"):
        run(_heat_with_coefficient(value, params))


def test_run_checks_the_bounds_at_every_sample_time():
    # identity coefficient 1 outside [alpha, lambda_upper]
    with pytest.raises(ValueError, match="ellipticity bounds"):
        run(_scenario(params=ProblemParams(p=2.0, q=1.0, dim_n=3, alpha=1.5, lambda_upper=2.0)))
    # in bounds at t = 0, above lambda_upper = 1.005 from t = 0.005 on
    ramp = CoefficientField(kind="scalar", fn=lambda t, x: 1.0 + t + 0.0 * x)
    params = ProblemParams(p=2.0, q=1.0, dim_n=3, lambda_upper=1.005)
    with pytest.raises(ValueError, match="ellipticity bounds"):
        run(_scenario(params=params, coefficient=ramp, t_end=0.01))
    assert run(_scenario(params=params, coefficient=ramp, t_end=0.004)).blow_up_time is None
    diag = CoefficientField(kind="diagonal", fn=lambda t, axis, x, y: (1.0 + axis) + 0.0 * x)
    grid = Grid((6, 6), (1.0, 1.0))
    with pytest.raises(ValueError, match="ellipticity bounds"):
        run(_scenario(grid=grid, coefficient=diag, params=P_HEAT))
    ok = ProblemParams(p=2.0, q=1.0, dim_n=3, alpha=1.0, lambda_upper=2.0)
    assert run(_scenario(grid=grid, coefficient=diag, params=ok)).blow_up_time is None


def test_run_step_size_collapse_is_a_stepping_failure():
    # p < 2 with eps_reg = 0: a flat face has infinite mobility, so the stable dt is 0
    params = ProblemParams(p=1.5, q=1.0, dim_n=3)
    s = _scenario(params=params, initial=InitialSpec(kind="bump", radius=0.3), eps_reg=0.0)
    with pytest.raises(NonConvergenceError, match="step size collapsed"):
        run(s)


@pytest.mark.parametrize("stepper", ["explicit", "imex"])
def test_a_bounded_datum_above_1e3_runs_to_t_end(stepper):
    # heat keeps sup u(t) <= sup u_0 = 1e4: no overflow may be reported below that
    res = run(_scenario(initial=InitialSpec(kind="eigenfunction", amplitude=1e4), stepper=stepper))
    linf = res.series.column("linf")
    assert linf[0] > 1e3
    assert res.blow_up_time is None and res.series.times[-1] == 0.01
    assert np.all(linf <= linf[0])


def test_imex_halvings_run_out_as_a_stepping_failure(monkeypatch):
    # a step that never converges, whatever dt: each retry halves dt until they run out
    s = _scenario(grid=Grid((8, 8), (1.0, 1.0)), dt_init=1e-3, stepper="imex")
    attempts = []

    def failing_step(fld, dt, *args, **kwargs):
        attempts.append(dt)
        raise NonConvergenceError("stub: no convergence")

    monkeypatch.setattr(evolve, "step_imex", failing_step)
    with pytest.raises(NonConvergenceError, match="stub: no convergence"):
        run(s)
    # the first step is capped at the first sample time; each retry halves it
    assert len(attempts) == evolve.IMEX_MAX_HALVINGS + 1 == 21
    assert attempts == [1e-4 * s.t_end * 0.5**k for k in range(21)]


def test_imex_rejects_a_degenerate_datum_without_halving(monkeypatch):
    # p < 2 with eps_reg = 0: a flat face of the datum has infinite mobility,
    # and its flux divergence is not finite at any dt; that used to take 21 attempts
    s = _scenario(
        params=ProblemParams(p=1.5, q=1.0, dim_n=3),
        grid=Grid((8, 8), (1.0, 1.0)),
        initial=InitialSpec(kind="bump", radius=0.2),
        eps_reg=0.0,
        dt_init=1e-3,
        stepper="imex",
    )
    attempts, evaluations = [], []
    real_step, real_divergence = evolve.step_imex, FluxKernel.divergence

    def counting_step(fld, dt, *args, **kwargs):
        attempts.append(dt)
        return real_step(fld, dt, *args, **kwargs)

    def counting_divergence(kernel):
        evaluations.append(1)
        return real_divergence(kernel)

    monkeypatch.setattr(evolve, "step_imex", counting_step)
    monkeypatch.setattr(FluxKernel, "divergence", counting_divergence)
    with pytest.raises(NonConvergenceError, match="non-finite values .* at the datum itself"):
        run(s)
    assert attempts == [1e-4 * s.t_end] and len(evaluations) == 1


def test_overflow_exception_payload():
    g = Grid((1,), (1.0,))
    params = ProblemParams(p=2.0, q=1.0, dim_n=3, gamma=1e9)
    with pytest.raises(OverflowDetected) as exc_info:
        fld = ScalarField(g, [1e11])
        step_explicit(fld, 10.0, params)
    assert exc_info.value.sup > 1e12
    assert exc_info.value.time == 10.0


def test_run_early_stop_on_small_sup():
    s = _scenario(
        params=ProblemParams(p=1.5, q=1.0, dim_n=3),
        grid=Grid((24,), (1.0,)),
        initial=InitialSpec(kind="bump", amplitude=0.05),
        t_end=4.0,
        stop_linf_atol=1e-12,
    )
    res = run(s)
    assert res.metadata["stopped_early"]
    assert res.series.times[-1] < 4.0
    assert res.extinction_time is not None


def test_sample_schedule_too_long_is_rejected():
    s = _scenario(t_end=1.0, sample_ratio=1.0 + 1e-7)
    with pytest.raises(ValueError, match="sample schedule"):
        run(s)


def test_detect_extinction_semantics():
    times = np.array([0.0, 1.0, 2.0, 3.0])
    s = NormSeries(times, {"linf": np.array([1.0, 0.5, 1e-12, 1e-13])})
    assert detect_extinction(s) == 2.0
    s = NormSeries(times, {"linf": np.array([1.0, 0.5, 0.2, 0.1])})
    assert detect_extinction(s) is None
    s = NormSeries(times, {"linf": np.zeros(4)})
    assert detect_extinction(s) == 0.0


def test_run_heat_l1_and_sup_monotone():
    res = run(_scenario(t_end=0.02, grid=Grid((32,), (1.0,))))
    linf = res.series.column("linf")
    l1 = res.series.column("l1")
    assert np.all(np.diff(linf) <= 1e-13)
    assert np.all(np.diff(l1) <= 1e-13)
