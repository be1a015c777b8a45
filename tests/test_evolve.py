import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decaylab import evolve
from decaylab.evolve import (
    IMEX_RTOL,
    InitialSpec,
    NonConvergenceError,
    OverflowDetected,
    Scenario,
    _ImplicitStencil,
    detect_extinction,
    make_initial,
    run,
    stable_dt,
    step_explicit,
    step_imex,
)
from decaylab.field import (
    CoefficientField,
    Grid,
    ScalarField,
    face_diffusivities,
    p_flux_divergence,
    write_field_csv,
)
from decaylab.metrics import NormSeries, lr_norm
from decaylab.regime import ProblemParams

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
    # p = 2 has unit diffusivity: dt = 0.4 h^2 / (2 * dim), h = 0.1
    g = Grid((9,), (1.0,))
    fld = ScalarField(g, np.sin(math.pi * g.axis_nodes(0)))
    assert stable_dt(fld, P_HEAT) == pytest.approx(0.002, rel=1e-12)


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
    assert dt == pytest.approx(min(0.002, cap), rel=1e-12)
    assert dt < 0.002  # the source cap binds here


def test_stable_dt_reads_the_face_coefficient():
    # the CFL bound scales with max A(t) D on the faces, not with ProblemParams
    g = Grid((9,), (1.0,))
    fld = ScalarField(g, np.sin(math.pi * g.axis_nodes(0)))
    wide = ProblemParams(p=2.0, q=1.0, dim_n=3, alpha=0.5, lambda_upper=10.0)
    three = CoefficientField(kind="scalar", fn=lambda t, x: 3.0 + 0.0 * x)
    assert stable_dt(fld, wide, three) == pytest.approx(0.002 / 3.0, rel=1e-12)
    assert stable_dt(fld, wide) == pytest.approx(0.002, rel=1e-12)
    # a time-dependent coefficient is read at t
    ramp = CoefficientField(kind="scalar", fn=lambda t, x: 1.0 + t + 0.0 * x)
    assert stable_dt(fld, wide, ramp, t=1.0) == pytest.approx(0.001, rel=1e-12)


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


def _dense_from_upper_band(ab: np.ndarray) -> np.ndarray:
    u, n = ab.shape[0] - 1, ab.shape[1]
    mat = np.zeros((n, n))
    for j in range(n):
        for i in range(max(0, j - u), j + 1):
            mat[i, j] = mat[j, i] = ab[u + i - j, j]
    return mat


COEFFICIENTS = {
    "identity": CoefficientField.identity(),
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
    stencil = _ImplicitStencil.assemble(grid, dfaces, dt)
    n = want.shape[0]
    assert np.allclose(_dense_from_upper_band(stencil.banded()), want, rtol=1e-14, atol=1e-14)
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


def test_single_blas_thread_restores_the_thread_count():
    control = evolve._openblas_threads()
    if control is None:
        pytest.skip("scipy.linalg is not backed by an OpenBLAS with thread control")
    get, _ = control
    before = get()
    with evolve._single_blas_thread():
        assert get() == 1
    assert get() == before


def test_step_imex_flat_region_without_regularization_is_nonconvergence():
    # p < 2 with eps_reg = 0: a zero-gradient face has infinite diffusivity
    params = ProblemParams(p=1.5, q=1.0, dim_n=3)
    for grid in (Grid((16,), (1.0,)), Grid((9, 8), (1.0, 1.0))):
        u0 = make_initial(InitialSpec(kind="bump", radius=0.3), grid)
        assert np.any(u0.values == 0.0)
        with pytest.raises(NonConvergenceError, match="non-finite"):
            step_imex(u0, 1e-3, params, eps_reg=0.0)


def test_step_imex_refactor_path_matches(monkeypatch):
    # with no CG budget every sweep re-factors its own matrix and solves directly
    grid = Grid((9, 11), (1.0, 1.2))
    u0 = make_initial(InitialSpec(kind="bump"), grid)
    params = ProblemParams(p=1.8, q=1.0, dim_n=2)
    factorizations = []
    real_cholesky = evolve.cholesky_banded

    def counting_cholesky(*args, **kw):
        factorizations.append(1)
        return real_cholesky(*args, **kw)

    monkeypatch.setattr(evolve, "cholesky_banded", counting_cholesky)
    pcg = step_imex(u0, 5e-3, params, eps_reg=1e-4)
    pcg_factorizations = len(factorizations)
    monkeypatch.setattr(evolve, "IMEX_CG_MAX_ITER", 0)
    factorizations.clear()
    direct = step_imex(u0, 5e-3, params, eps_reg=1e-4)
    assert 1 <= pcg_factorizations < len(factorizations)
    diff = lr_norm(pcg.values - direct.values, 2.0, grid.quad_weight)
    assert diff <= 2.0 * _imex_tol(u0)


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


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
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


COEFFICIENT_BOUNDS = {"identity": (1.0, 1.0), "scalar": (1.0, 1.5), "diagonal": (0.75, 2.5)}


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
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

    monkeypatch.setattr(evolve, "_ExplicitStep", no_step)
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
    assert detect_extinction(s, tol=0.5) == 1.0
    s = NormSeries(times, {"linf": np.zeros(4)})
    assert detect_extinction(s) == 0.0


def test_run_heat_l1_and_sup_monotone():
    res = run(_scenario(t_end=0.02, grid=Grid((32,), (1.0,))))
    linf = res.series.column("linf")
    l1 = res.series.column("l1")
    assert np.all(np.diff(linf) <= 1e-13)
    assert np.all(np.diff(l1) <= 1e-13)
