"""The flux kernel against the per-call np.pad formulas it replaced, bit for bit.

The reference below is the operator as it was written before the kernel held
its own buffers: a padded copy per call, face components, mobility,
divergence and nodal |grad u| as fresh arrays.  The kernel must perform the
same floating-point operations in the same order, so every comparison is
np.array_equal, not a tolerance.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decaylab import evolve
from decaylab.evolve import (
    CFL_SAFETY,
    IMEX_CG_FRACTION,
    IMEX_MAX_ITER,
    IMEX_RTOL,
    OVERFLOW_SENTINEL,
    SOURCE_CAP_FRACTION,
    U_FLOOR,
    InitialSpec,
    NonConvergenceError,
    OverflowDetected,
    Scenario,
    _ExplicitStepper,
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
    gradient,
    gradient_magnitude,
    p_flux_divergence,
)
from decaylab.metrics import lr_norm
from decaylab.regime import ProblemParams

# ---------------------------------------------------------------------------
# reference: the np.pad formulas


def ref_face_components(values, spacing):
    p = np.pad(values, 1)
    if values.ndim == 1:
        (h,) = spacing
        g = (p[1:] - p[:-1]) / h
        return [(g, g * g)]
    hx, hy = spacing
    gx = (p[1:, 1:-1] - p[:-1, 1:-1]) / hx
    tx = (p[1:, 2:] - p[1:, :-2] + p[:-1, 2:] - p[:-1, :-2]) / (4.0 * hy)
    gy = (p[1:-1, 1:] - p[1:-1, :-1]) / hy
    ty = (p[2:, 1:] - p[:-2, 1:] + p[2:, :-1] - p[:-2, :-1]) / (4.0 * hx)
    return [(gx, gx * gx + tx * tx), (gy, gy * gy + ty * ty)]


def ref_diffusivity(mag2, p, eps_reg):
    if p == 2.0:
        return np.ones_like(mag2)
    with np.errstate(divide="ignore"):
        return (eps_reg * eps_reg + mag2) ** ((p - 2.0) / 2.0)


def ref_face_mobility(comps, grid, coeff, p, eps_reg, t):
    coeff = coeff if coeff is not None else CoefficientField.identity()
    return [
        coeff.face_values(grid, axis, t) * ref_diffusivity(mag2, p, eps_reg)
        for axis, (_, mag2) in enumerate(comps)
    ]


def ref_divergence(comps, mobility, grid):
    div = np.zeros(grid.shape)
    for axis, ((g, _), m) in enumerate(zip(comps, mobility)):
        with np.errstate(invalid="ignore"):
            flux = m * g
        div += np.diff(flux, axis=axis) / grid.spacing[axis]
    if not np.all(np.isfinite(div)):
        raise ValueError("non-finite flux divergence")
    return div


def ref_nodal_magnitude(comps):
    parts = []
    for axis, (g, _) in enumerate(comps):
        lo = [slice(None)] * g.ndim
        hi = [slice(None)] * g.ndim
        lo[axis] = slice(0, -1)
        hi[axis] = slice(1, None)
        avg = 0.5 * (g[tuple(lo)] + g[tuple(hi)])
        parts.append(avg * avg)
    return np.sqrt(np.sum(parts, axis=0))


def ref_check_overflow(values, t):
    sup = float(np.max(np.abs(values), initial=0.0))
    if not np.isfinite(sup) or sup > OVERFLOW_SENTINEL or not np.all(np.isfinite(values)):
        raise OverflowDetected(t, sup)


def ref_explicit_step(values, grid, params, coeff, eps_reg, t):
    comps = ref_face_components(values, grid.spacing)
    mobility = ref_face_mobility(comps, grid, coeff, params.p, eps_reg, t)
    max_m = max(float(np.max(m, initial=0.0)) for m in mobility)
    if max_m > 0.0:
        h_min = min(grid.spacing)
        stable = CFL_SAFETY * h_min * h_min / (2.0 * grid.dim * max_m)
    else:
        stable = float("inf")
    if params.gamma > 0.0:
        grad_mag = ref_nodal_magnitude(comps)
        source_max = params.gamma * float(np.max(grad_mag, initial=0.0)) ** params.q
        if source_max > 0.0:
            sup = float(np.max(np.abs(values), initial=0.0))
            stable = min(stable, SOURCE_CAP_FRACTION * max(sup, U_FLOOR) / source_max)

    def update(dt):
        rhs = ref_divergence(comps, mobility, grid)
        if params.gamma > 0.0:
            rhs = rhs + params.gamma * grad_mag**params.q
        new = values + dt * rhs
        ref_check_overflow(new, t + dt)
        return new

    return stable, update


def ref_step_imex(fld, dt, params, coeff, eps_reg, t):
    grid = fld.grid
    p = params.p
    t_new = t + dt
    comps = ref_face_components(fld.values, grid.spacing)
    b = fld.values.copy()
    if params.gamma > 0.0:
        b = b + dt * params.gamma * ref_nodal_magnitude(comps) ** params.q
    tol = IMEX_RTOL * (1.0 + lr_norm(fld.values, 2.0, grid.quad_weight))
    cg_atol = IMEX_CG_FRACTION * tol / math.sqrt(grid.quad_weight)
    flat_b = b.ravel()
    cur = fld.values
    dfaces = ref_face_mobility(comps, grid, coeff, p, eps_reg, t_new)
    factor = None
    prev_res = float("inf")
    for _ in range(IMEX_MAX_ITER):
        if not all(np.all(np.isfinite(d)) for d in dfaces):
            raise NonConvergenceError("non-finite face diffusivity")
        stencil = evolve._ImplicitStencil.assemble(grid, dfaces, dt)
        x = None if factor is None else evolve._pcg_sweep(stencil, factor, flat_b, cur.ravel(), cg_atol)
        if x is None:
            factor = stencil.factor()
            x = evolve._cho_solve(factor, flat_b)
        if not np.all(np.isfinite(x)):
            raise NonConvergenceError("non-finite solution")
        x = x.reshape(grid.shape)
        comps = ref_face_components(x, grid.spacing)
        dfaces = ref_face_mobility(comps, grid, coeff, p, eps_reg, t_new)
        residual = x - dt * ref_divergence(comps, dfaces, grid) - b
        res = lr_norm(residual, 2.0, grid.quad_weight)
        if res < tol:
            ref_check_overflow(x, t_new)
            return x
        if res >= prev_res:
            x = 0.5 * (x + cur)
            dfaces = ref_face_mobility(ref_face_components(x, grid.spacing), grid, coeff, p, eps_reg, t_new)
        cur = x
        prev_res = res
    raise NonConvergenceError("no convergence")


def _outcome(fn):
    """fn()'s result, or the type of the exception it raised."""
    try:
        return fn()
    except (ValueError, OverflowDetected) as exc:
        return type(exc)


def _same(a, b) -> bool:
    if isinstance(a, type) or isinstance(b, type):
        return a is b
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return np.array_equal(np.asarray(a), np.asarray(b), equal_nan=True)


# ---------------------------------------------------------------------------
# the property

COEFFICIENTS = {
    "identity": CoefficientField.identity(),
    "scalar": CoefficientField(
        kind="scalar", fn=lambda t, *xs: 1.0 + 0.5 * np.sin(3.0 * xs[0] + t) ** 2
    ),
    "diagonal": CoefficientField(
        kind="diagonal", fn=lambda t, axis, *xs: (1.0 + axis) * (1.0 + 0.25 * np.cos(2.0 * xs[-1] + t))
    ),
}

_SHAPES = st.one_of(
    st.tuples(st.integers(1, 12)),
    st.tuples(st.integers(1, 8), st.integers(1, 8)),
)
_EXPONENTS = st.one_of(st.floats(1.2, 6.0), st.sampled_from([2.0, 3.0, 4.0]))


def _data(shape, kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "zero":
        return np.zeros(shape)
    values = rng.uniform(0.0, 2.0, size=shape)
    if kind == "flat_patch":
        values[tuple(slice(0, (n + 1) // 2) for n in shape)] = 0.0
    return values


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    shape=_SHAPES,
    lengths=st.tuples(st.floats(0.5, 2.0), st.floats(0.5, 2.0)),
    kind=st.sampled_from(["random", "flat_patch", "zero"]),
    seed=st.integers(0, 2**16),
    coeff_kind=st.sampled_from(sorted(COEFFICIENTS)),
    p=_EXPONENTS,
    q=st.one_of(st.floats(0.3, 3.0), st.sampled_from([0.5, 1.0, 2.0])),
    gamma=st.one_of(st.just(0.0), st.floats(0.01, 2.0)),
    eps_reg=st.one_of(st.just(0.0), st.floats(1e-6, 1e-1)),
    t=st.floats(0.0, 1.0),
)
def test_kernel_matches_the_pad_formulas(shape, lengths, kind, seed, coeff_kind, p, q, gamma, eps_reg, t):
    grid = Grid(shape, lengths[: len(shape)])
    fld = ScalarField(grid, _data(shape, kind, seed))
    params = ProblemParams(p=p, q=q, dim_n=3, gamma=gamma)
    coeff = COEFFICIENTS[coeff_kind]
    comps = ref_face_components(fld.values, grid.spacing)

    assert _same(gradient(fld), [g for g, _ in comps])
    assert _same(gradient_magnitude(fld).values, ref_nodal_magnitude(comps))
    assert _same(face_diffusivities(fld, p, eps_reg), [ref_diffusivity(m2, p, eps_reg) for _, m2 in comps])
    want_div = _outcome(lambda: ref_divergence(comps, ref_face_mobility(comps, grid, coeff, p, eps_reg, t), grid))
    assert _same(_outcome(lambda: p_flux_divergence(fld, coeff, p, eps_reg, t).values), want_div)

    want_dt, update = ref_explicit_step(fld.values, grid, params, coeff, eps_reg, t)
    got_dt = stable_dt(fld, params, coeff, eps_reg, t)
    assert _same(got_dt, want_dt)
    dt = want_dt if 0.0 < want_dt < 1.0 else 1e-3
    got = _outcome(lambda: step_explicit(fld, dt, params, coeff, eps_reg, t).values)
    assert _same(got, _outcome(lambda: update(dt)))


@pytest.mark.parametrize("shape, coeff_kind, p, gamma, dt", [
    ((9,), "scalar", 1.6, 0.4, 0.05),
    ((6, 5), "identity", 2.7, 0.0, 0.05),
    ((5, 4), "diagonal", 3.0, 0.3, 0.05),
    ((6, 1), "scalar", 4.0, 0.2, 0.01),
    ((1, 6), "identity", 2.2, 0.2, 0.05),
])
def test_step_imex_matches_the_pad_formulas(shape, coeff_kind, p, gamma, dt, monkeypatch):
    grid = Grid(shape, (1.0,) * len(shape))
    fld = ScalarField(grid, _data(shape, "flat_patch", sum(shape)) + 0.1)
    params = ProblemParams(p=p, q=1.5, dim_n=3, gamma=gamma)
    coeff = COEFFICIENTS[coeff_kind]
    want = ref_step_imex(fld, dt, params, coeff, 1e-3, 0.2)

    sweeps = []
    assemble = evolve._ImplicitStencil.assemble.__func__

    def counting(cls, *args):
        sweeps.append(1)
        return assemble(cls, *args)

    monkeypatch.setattr(evolve._ImplicitStencil, "assemble", classmethod(counting))
    got = step_imex(fld, dt, params, coeff, 1e-3, 0.2)
    assert len(sweeps) >= 2
    assert np.array_equal(got.values, want)


def test_degenerate_mobility_error_paths():
    # p < 2 with eps_reg = 0: a flat face has infinite mobility
    grid = Grid((6, 5), (1.0, 1.0))
    fld = ScalarField(grid, _data((6, 5), "flat_patch", 3))
    params = ProblemParams(p=1.5, q=1.0, dim_n=3)
    with pytest.raises(ValueError, match="eps_reg > 0"):
        p_flux_divergence(fld, CoefficientField.identity(), 1.5, 0.0)
    assert stable_dt(fld, params, eps_reg=0.0) == 0.0
    with pytest.raises(ValueError, match="eps_reg > 0"):
        step_explicit(fld, 1e-3, params, eps_reg=0.0)
    with pytest.raises(ValueError, match="eps_reg must be >= 0"):
        p_flux_divergence(fld, CoefficientField.identity(), 1.5, -1e-3)
    with pytest.raises(ValueError, match="eps_reg must be >= 0"):
        face_diffusivities(fld, 1.5, -1e-3)


def test_overflow_check_catches_non_finite_states():
    grid = Grid((3,), (1.0,))
    params = ProblemParams(p=2.0, q=1.0, dim_n=3)
    fld = ScalarField(grid, [1.0, 2.0, 1.0])
    with pytest.raises(OverflowDetected) as exc_info, np.errstate(over="ignore"):
        step_explicit(fld, 1e308, params)  # dt * rhs overflows to -inf
    assert math.isinf(exc_info.value.sup)
    with pytest.raises(OverflowDetected) as exc_info:
        evolve._check_overflow(np.array([1.0, np.nan, 2.0]), 0.5)
    assert math.isnan(exc_info.value.sup)
    assert evolve._check_overflow(np.array([-3.0, 2.0]), 0.5) == 3.0


# ---------------------------------------------------------------------------
# buffer ownership


def test_returned_states_are_not_overwritten_by_later_steps():
    params = ProblemParams(p=1.9, q=1.5, dim_n=3, gamma=0.1)
    grid = Grid((7, 6), (1.0, 1.0))
    fld = ScalarField(grid, _data((7, 6), "random", 5))
    first = step_explicit(fld, 1e-4, params, eps_reg=1e-4)
    kept = first.values.copy()
    second = step_explicit(first, 1e-4, params, eps_reg=1e-4)
    assert np.array_equal(first.values, kept)
    assert not np.array_equal(second.values, kept)
    div = p_flux_divergence(fld, CoefficientField.identity(), 1.9, 1e-4)
    kept_div = div.values.copy()
    p_flux_divergence(first, CoefficientField.identity(), 1.9, 1e-4)
    assert np.array_equal(div.values, kept_div)

    scenario = Scenario(params=params, grid=grid, initial=InitialSpec(kind="bump"), t_end=1e-3, eps_reg=1e-4)
    stepper = _ExplicitStepper(scenario)
    u, t = fld.values, 0.0
    states = []
    for _ in range(4):
        u, t = stepper.advance(u, t, 1.0)
        states.append((u, u.copy()))
    assert all(np.array_equal(a, b) for a, b in states)
    assert len({id(a) for a, _ in states}) == len(states)


def test_run_snapshots_equal_an_independent_rerun():
    params = ProblemParams(p=2.4, q=1.6, dim_n=3, gamma=0.3)
    scenario = Scenario(
        params=params,
        grid=Grid((9, 8), (1.0, 1.0)),
        initial=InitialSpec(kind="bump"),
        t_end=4e-3,
        snapshot_times=(1e-3, 2.5e-3, 4e-3),
    )
    res = run(scenario)
    assert [ts for ts, _ in res.snapshots] == [1e-3, 2.5e-3, 4e-3]

    u = evolve.make_initial(scenario.initial, scenario.grid, params, scenario.seed)
    eps, coeff = scenario.eps_resolved, scenario.coefficient
    t = 0.0
    rerun = {}
    for target in evolve._sample_times(scenario):
        while t < target:
            dt = stable_dt(u, params, coeff, eps, t)
            landing = dt >= target - t
            u = step_explicit(u, min(dt, target - t), params, coeff, eps, t)
            t = target if landing else t + min(dt, target - t)
        rerun[target] = u.values
    for ts, snap in res.snapshots:
        assert np.array_equal(snap.values, rerun[ts])
    assert not np.array_equal(res.snapshots[0][1].values, res.snapshots[-1][1].values)
