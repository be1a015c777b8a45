"""The flux kernel against per-call np.pad formulas, bit for bit.

The reference below is the operator written out with a padded copy per
call: face components, mobility, divergence and nodal |grad u| as fresh
arrays, each written out separately for 1D and 2D, and the implicit matrix
assembled the same way.  Like the kernel, it multiplies by 1/h, 1/(2h) and
1/(4h) where the formulas divide, and takes the mobility power as
exp(e log x) for an e outside POW_FREE.  Like the kernel, it forms the
tangential term of a face as the sum of the centred differences
u(n + 1) - u(n - 1), each times 1/(4h), of the face's two nodes.  Its nodal
|grad u| is the root of the summed squares of the centred differences times
1/(2h), which the kernel's 2 sqrt(sum of (difference * (1/4h))^2) equals bit
for bit.  The kernel and the stencil must give the same bits, so every
comparison is np.array_equal, not a tolerance.  Two properties also hold the
kernel to the formulas it replaced at bounds pinned from float64's epsilon:
the four-corner tangential term and the average of the face gradients, and
the divisions by h and numpy's pow.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decaylab import evolve
from decaylab.evolve import (
    CFL_SAFETY,
    IMEX_CG_FORCING,
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
    POW_FREE,
    CoefficientField,
    FluxKernel,
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
        g = (p[1:] - p[:-1]) * (1.0 / h)
        return [(g, g * g)]
    hx, hy = spacing
    # the centred differences times 1/(4h) of every padded node with both neighbours
    dx = (p[2:, :] - p[:-2, :]) * (1.0 / (4.0 * hx))
    dy = (p[:, 2:] - p[:, :-2]) * (1.0 / (4.0 * hy))
    gx = (p[1:, 1:-1] - p[:-1, 1:-1]) * (1.0 / hx)
    tx = dy[:-1] + dy[1:]
    gy = (p[1:-1, 1:] - p[1:-1, :-1]) * (1.0 / hy)
    ty = dx[:, :-1] + dx[:, 1:]
    return [(gx, gx * gx + tx * tx), (gy, gy * gy + ty * ty)]


def ref_power(x, e):
    """x ** e by _power's stated formula: sqrt(x) * x for e = 1.5, the products for e = 3 and 4."""
    if e == 1.5:
        return np.sqrt(x) * x
    if e == 3.0:
        return (x * x) * x
    if e == 4.0:
        return (x * x) * (x * x)
    return x**e


def ref_mobility_power(x, e):
    """x ** e as the mobility takes it: _power's formula for e in POW_FREE, exp(e log x) otherwise."""
    if e in POW_FREE:
        return ref_power(x, e)
    with np.errstate(divide="ignore", over="ignore"):
        return np.exp(e * np.log(x))


def ref_diffusivity(mag2, p, eps_reg):
    if p == 2.0:
        return np.ones_like(mag2)
    with np.errstate(divide="ignore"):
        return ref_mobility_power(eps_reg * eps_reg + mag2, (p - 2.0) / 2.0)


def ref_face_mobility(comps, grid, coeff, p, eps_reg, t):
    coeff = coeff if coeff is not None else CoefficientField()
    return [
        coeff.face_values(grid, axis, t) * ref_diffusivity(mag2, p, eps_reg)
        for axis, (_, mag2) in enumerate(comps)
    ]


def ref_divergence(comps, mobility, grid):
    div = np.zeros(grid.shape)
    for axis, ((g, _), m) in enumerate(zip(comps, mobility)):
        with np.errstate(invalid="ignore"):
            flux = m * g
        div += np.diff(flux, axis=axis) * (1.0 / grid.spacing[axis])
    if not np.all(np.isfinite(div)):
        raise ValueError("non-finite flux divergence")
    return div


def ref_nodal_magnitude(values, spacing):
    p = np.pad(values, 1)
    parts = []
    for axis, h in enumerate(spacing):
        lo = [slice(1, -1)] * p.ndim
        hi = [slice(1, -1)] * p.ndim
        lo[axis] = slice(0, -2)
        hi[axis] = slice(2, None)
        half = (p[tuple(hi)] - p[tuple(lo)]) * (1.0 / (2.0 * h))
        parts.append(half * half)
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
        kappa = max(1.0, params.p - 1.0)
        stable = CFL_SAFETY * h_min * h_min / (2.0 * grid.dim * kappa * max_m)
    else:
        stable = float("inf")
    if params.gamma > 0.0:
        grad_mag = ref_nodal_magnitude(values, grid.spacing)
        source_max = params.gamma * float(np.max(grad_mag, initial=0.0)) ** params.q
        if source_max > 0.0:
            sup = float(np.max(np.abs(values), initial=0.0))
            stable = min(stable, SOURCE_CAP_FRACTION * max(sup, U_FLOOR) / source_max)

    def update(dt):
        rhs = ref_divergence(comps, mobility, grid)
        if params.gamma > 0.0:
            rhs = rhs + params.gamma * ref_power(grad_mag, params.q)
        new = values + dt * rhs
        ref_check_overflow(new, t + dt)
        return new

    return stable, update


def ref_assemble(grid, dfaces, dt):
    """(diag, upper, means) of the implicit matrix, as the 1D/2D branches assembled it."""
    means = tuple(float(d.mean()) * (dt / (h * h)) for d, h in zip(dfaces, grid.spacing))
    if grid.dim == 1:
        (h,) = grid.spacing
        d = dfaces[0] * (dt / (h * h))
        return 1.0 + d[:-1] + d[1:], ((1, -d[1:-1]),), means
    hx, hy = grid.spacing
    nx, ny = grid.shape
    dx = dfaces[0] * (dt / (hx * hx))
    dy = dfaces[1] * (dt / (hy * hy))
    diag = 1.0 + dx[:-1, :] + dx[1:, :] + dy[:, :-1] + dy[:, 1:]
    along = np.zeros((nx, ny))
    along[:, :-1] = -dy[:, 1:-1]
    return diag.ravel(), ((1, along.ravel()[:-1]), (ny, -dx[1:-1, :].ravel())), means


def ref_step_imex(fld, dt, params, coeff, eps_reg, t):
    grid = fld.grid
    p = params.p
    t_new = t + dt
    comps = ref_face_components(fld.values, grid.spacing)
    b = fld.values.copy()
    if params.gamma > 0.0:
        b = b + dt * params.gamma * ref_power(ref_nodal_magnitude(fld.values, grid.spacing), params.q)
    tol = IMEX_RTOL * (1.0 + lr_norm(fld.values, 2.0, grid.quad_weight))
    flat_b = b.ravel()
    cur = fld.values
    dfaces = ref_face_mobility(comps, grid, coeff, p, eps_reg, t_new)
    modes = [evolve._sine_modes(n) for n in grid.shape]
    prev_res = float("inf")
    for sweep in range(IMEX_MAX_ITER):
        if not all(np.all(np.isfinite(d)) for d in dfaces):
            raise NonConvergenceError("non-finite face diffusivity")
        if sweep == 0:  # the first CG stop is a fraction of the starting state's residual
            res = lr_norm(cur - dt * ref_divergence(comps, dfaces, grid) - b, 2.0, grid.quad_weight)
        cg_atol = IMEX_CG_FORCING * res / math.sqrt(grid.quad_weight)
        stencil = evolve._ImplicitStencil(*ref_assemble(grid, dfaces, dt))
        precondition = evolve._sine_preconditioner(modes, stencil.means)
        x = evolve._pcg_sweep(stencil, precondition, flat_b, cur.ravel(), cg_atol)
        if x is None:
            raise NonConvergenceError("CG missed its stop")
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
    "identity": CoefficientField(),
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
_EXPONENTS = st.one_of(st.floats(1.2, 6.0), st.sampled_from([2.0, 3.0, 4.0, 5.0]))


def _data(shape, kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "zero":
        return np.zeros(shape)
    values = rng.uniform(-2.0 if kind == "signed" else 0.0, 2.0, size=shape)
    if kind == "flat_patch":
        values[tuple(slice(0, (n + 1) // 2) for n in shape)] = 0.0
    return values


@settings(max_examples=300)
@given(
    shape=_SHAPES,
    lengths=st.tuples(st.floats(0.5, 2.0), st.floats(0.5, 2.0)),
    kind=st.sampled_from(["random", "signed", "flat_patch", "zero"]),
    seed=st.integers(0, 2**16),
    coeff_kind=st.sampled_from(sorted(COEFFICIENTS)),
    p=_EXPONENTS,
    q=st.one_of(st.floats(0.3, 3.0), st.sampled_from([0.5, 1.0, 1.5, 2.0])),
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
    assert _same(gradient_magnitude(fld).values, ref_nodal_magnitude(fld.values, grid.spacing))
    assert _same(face_diffusivities(fld, p, eps_reg), [ref_diffusivity(m2, p, eps_reg) for _, m2 in comps])
    want_div = _outcome(lambda: ref_divergence(comps, ref_face_mobility(comps, grid, coeff, p, eps_reg, t), grid))
    assert _same(_outcome(lambda: p_flux_divergence(fld, coeff, p, eps_reg, t).values), want_div)

    want_dt, update = ref_explicit_step(fld.values, grid, params, coeff, eps_reg, t)
    got_dt = stable_dt(fld, params, coeff, eps_reg, t)
    assert _same(got_dt, want_dt)
    dt = want_dt if 0.0 < want_dt < 1.0 else 1e-3
    got = _outcome(lambda: step_explicit(fld, dt, params, coeff, eps_reg, t).values)
    assert _same(got, _outcome(lambda: update(dt)))


def four_corner_components(values, spacing):
    """The face components with the tangential term ((a - b) + c) - d of the four corner nodes."""
    if values.ndim == 1:
        return ref_face_components(values, spacing)
    p = np.pad(values, 1)
    hx, hy = spacing
    gx = (p[1:, 1:-1] - p[:-1, 1:-1]) / hx
    tx = (p[1:, 2:] - p[1:, :-2] + p[:-1, 2:] - p[:-1, :-2]) / (4.0 * hy)
    gy = (p[1:-1, 1:] - p[1:-1, :-1]) / hy
    ty = (p[2:, 1:] - p[:-2, 1:] + p[2:, :-1] - p[:-2, :-1]) / (4.0 * hx)
    return [(gx, gx * gx + tx * tx), (gy, gy * gy + ty * ty)]


def face_average_magnitude(comps):
    """Nodal |grad u| from the average of the two face gradients beside each node, per axis."""
    parts = []
    for axis, (g, _) in enumerate(comps):
        lo = [slice(None)] * g.ndim
        hi = [slice(None)] * g.ndim
        lo[axis] = slice(0, -1)
        hi[axis] = slice(1, None)
        avg = 0.5 * (g[tuple(lo)] + g[tuple(hi)])
        parts.append(avg * avg)
    return np.sqrt(np.sum(parts, axis=0))


def _scaled_deviation(got, want) -> float:
    """max |got - want| / max |want|; 0 when both are all zeros."""
    scale = max(float(np.max(np.abs(want))), float(np.finfo(float).tiny))
    return float(np.max(np.abs(got - want))) / scale


# over 10,000 random cases drawn like this property's examples the largest
# deviation measured was 8.0e-16 for mag2, 1.9e-15 for the mobility, 1.9e-15
# for the nodal |grad u| and 2.1e-15 for the divergence (9.6e-16, 1.6e-15,
# 1.9e-15 and 4.2e-16 while the kernel divided by h and took pow); a wrong
# offset or divisor moves them by O(1)
OLD_FORMULA_RTOL = 4e-15


@settings(max_examples=300)
@given(
    shape=_SHAPES,
    length=st.floats(0.5, 2.0),
    aspect=st.floats(1.1, 3.0),
    seed=st.integers(0, 2**16),
    p=_EXPONENTS,
    eps_reg=st.floats(1e-3, 1e-1),
)
def test_kernel_matches_the_four_corner_formulas(shape, length, aspect, seed, p, eps_reg):
    # unequal spacings, so a divisor taken from the wrong axis shows
    grid = Grid(shape, (length, length * aspect)[: len(shape)])
    fld = ScalarField(grid, _data(shape, "signed", seed))
    comps = four_corner_components(fld.values, grid.spacing)
    mag2 = face_diffusivities(fld, 4.0, 0.0)  # (|grad u|^2)^1, a copy of mag2
    mobility = face_diffusivities(fld, p, eps_reg)
    want_mobility = [ref_diffusivity(m2, p, eps_reg) for _, m2 in comps]
    deviations = [
        *(_scaled_deviation(a, b) for a, (_, b) in zip(mag2, comps)),
        *(_scaled_deviation(a, b) for a, b in zip(mobility, want_mobility)),
        _scaled_deviation(gradient_magnitude(fld).values, face_average_magnitude(comps)),
        _scaled_deviation(p_flux_divergence(fld, CoefficientField(), p, eps_reg).values,
                          ref_divergence(comps, want_mobility, grid)),
    ]
    assert max(deviations) <= OLD_FORMULA_RTOL


# The kernel against the divisions by h and numpy's pow it replaced.  Each
# bound is fixed from float64's eps, before running, by counting roundings;
# the largest share of it measured over 51,000 random cases drawn like this
# property's examples is in the comment beside it.
EPS = float(np.finfo(float).eps)
# exp(e log x) against pow(x, e) on the same base x: the rounding of log x
# grows by e log x through the exponent, and log, the product, exp and pow
# round once each; at most 0.88 of (|e log x| + 2) eps measured
MOBILITY_ULPS = 2.0
# (u+ - u-) * fl(1/h) against (u+ - u-) / h: fl(1/h) and the product round
# once each, the quotient once, relative to the gradient; at most 0.50 measured
GRADIENT_ULPS = 2.0
# the flux difference over a face pair cancels, so the divergence's deviation
# is relative to max |flux| / h per axis: each flux carries its gradient's
# roundings and its product's, and the difference, the product with 1/h and
# the sum over the axes round again; at most 0.44 measured
DIVERGENCE_ULPS = 12.0


def _signed_wide(shape, seed):
    """Signed values of magnitude 1e-8 to 1e4, so |grad u|^2 spans about 1e-16 to 1e12."""
    rng = np.random.default_rng(seed)
    return rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-8.0, 4.0, size=shape)


@settings(max_examples=300)
@given(
    shape=_SHAPES,
    length=st.floats(0.5, 2.0),
    aspect=st.floats(1.1, 3.0),
    wide=st.booleans(),
    seed=st.integers(0, 2**16),
    p=st.one_of(st.floats(1.1, 7.0), st.sampled_from([3.0, 4.0, 5.0, 6.0])),
    eps_reg=st.one_of(st.just(0.0), st.floats(1e-8, 1e-1)),
)
def test_kernel_is_within_its_bounds_of_division_and_pow(shape, length, aspect, wide, seed, p, eps_reg):
    grid = Grid(shape, (length, length * aspect)[: len(shape)])
    values = _signed_wide(shape, seed) if wide else _data(shape, "signed", seed)
    fld = ScalarField(grid, values)
    padded = np.pad(values, 1)

    # face gradients: relative to each gradient
    old_grad = [np.diff(padded, axis=a)[tuple(slice(None) if b == a else slice(1, -1) for b in range(grid.dim))] / h
                for a, h in enumerate(grid.spacing)]
    for got, want in zip(gradient(fld), old_grad):
        assert np.all(np.abs(got - want) <= GRADIENT_ULPS * EPS * np.abs(want))

    # the mobility power of the kernel's own base x = eps^2 + mag2 against pow
    e = (p - 2.0) / 2.0
    bases = [eps_reg * eps_reg + m2 for m2 in face_diffusivities(fld, 4.0, 0.0)]  # e = 1 copies mag2
    mobility = face_diffusivities(fld, p, eps_reg)
    for got, x in zip(mobility, bases):
        with np.errstate(divide="ignore", over="ignore"):
            want, log_x = np.power(x, e), np.log(x)
        exact = got == want  # 0, inf and overflow give pow's value
        finite = ~exact & (x > 0.0) & np.isfinite(want)
        assert np.all(exact | finite)
        bound = (np.abs(e * log_x[finite]) + MOBILITY_ULPS) * EPS * np.abs(want[finite])
        assert np.all(np.abs(got[finite] - want[finite]) <= bound)

    # the divergence of the kernel's mobility, with the gradients and the flux
    # differences divided by h: relative to max |flux| / h, summed over the axes
    try:
        got = p_flux_divergence(fld, CoefficientField(), p, eps_reg).values
    except ValueError:  # a degenerate face: the old formulas are not finite either
        with np.errstate(invalid="ignore"):
            assert not all(np.all(np.isfinite(m * g)) for m, g in zip(mobility, old_grad))
        return
    fluxes = [m * g for m, g in zip(mobility, old_grad)]
    want = sum(np.diff(f, axis=a) / h for a, (f, h) in enumerate(zip(fluxes, grid.spacing)))
    scale = sum(float(np.max(np.abs(f))) / h for f, h in zip(fluxes, grid.spacing))
    assert np.all(np.abs(got - want) <= DIVERGENCE_ULPS * EPS * scale)


def test_border_lanes_never_reach_a_result():
    # eps_reg = 0 and p < 2: a face with zero full gradient has infinite
    # mobility.  Every real face here has a non-zero normal gradient, but the
    # alternating signs down the columns next to the boundary cancel the
    # tangential term on the border lanes between them, so the flat layout's
    # border lanes get infinite mobility and a NaN flux.  The first column
    # is also the largest, so the border lanes beside it hold a larger nodal
    # |grad u| than any real node, and the source cap sets dt.
    shape = (6, 5)
    grid = Grid(shape, (2.0, 0.5))
    rows, cols = np.indices(shape)
    values = np.where((rows + cols) % 2 == 0, 1.0, -1.0) * (2.0 - 0.25 * cols)
    fld = ScalarField(grid, values)
    params = ProblemParams(p=1.5, q=1.5, dim_n=3, gamma=5.0)
    comps = ref_face_components(values, grid.spacing)
    assert all(np.all(g != 0.0) for g, _ in comps)
    kernel = FluxKernel(grid)
    kernel.load(values)
    kernel.mobility(CoefficientField(), params.p, 0.0, 0.0)
    assert not np.all(np.isfinite(kernel._mob[1]))  # the lanes this case is about
    real_max = kernel.nodal_magnitude().max()
    assert kernel._nodal.max() > real_max

    want_dt, update = ref_explicit_step(values, grid, params, CoefficientField(), 0.0, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got_dt = stable_dt(fld, params, eps_reg=0.0)
        got = step_explicit(fld, 0.5 * got_dt, params, eps_reg=0.0).values
        div = p_flux_divergence(fld, CoefficientField(), params.p, 0.0).values
    assert math.isfinite(got_dt) and got_dt > 0.0
    assert _same(got_dt, want_dt)
    assert _same(got, update(0.5 * want_dt))
    assert _same(div, ref_divergence(comps, ref_face_mobility(comps, grid, None, params.p, 0.0, 0.0), grid))


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
    real_matrix = FluxKernel.implicit_matrix

    def counting(kernel, dt):
        sweeps.append(1)
        return real_matrix(kernel, dt)

    monkeypatch.setattr(FluxKernel, "implicit_matrix", counting)
    got = step_imex(fld, dt, params, coeff, 1e-3, 0.2)
    assert len(sweeps) >= 2
    assert np.array_equal(got.values, want)


@pytest.mark.parametrize("coeff_kind", sorted(COEFFICIENTS))
@pytest.mark.parametrize("shape", [(7,), (1,), (4, 4), (4, 5), (5, 3), (1, 6), (6, 1)])
def test_implicit_stencil_matches_the_branch_assembly(shape, coeff_kind):
    grid = Grid(shape, (1.0,) * len(shape) if len(shape) == 1 else (1.0, 1.3))
    fld = ScalarField(grid, _data(shape, "random", sum(shape)) + 0.2)
    comps = ref_face_components(fld.values, grid.spacing)
    dfaces = ref_face_mobility(comps, grid, COEFFICIENTS[coeff_kind], 1.7, 1e-3, 0.2)
    want = evolve._ImplicitStencil(*ref_assemble(grid, dfaces, 0.02))
    kernel = FluxKernel(grid)
    kernel.load(fld.values)
    kernel.mobility(COEFFICIENTS[coeff_kind], 1.7, 1e-3, 0.2)
    got = evolve._ImplicitStencil(*kernel.implicit_matrix(0.02))
    assert np.array_equal(got.diag, want.diag)
    assert [k for k, _ in got.upper] == [k for k, _ in want.upper]
    assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(got.upper, want.upper))
    assert got.means == want.means
    v = np.random.default_rng(len(shape)).standard_normal(grid.shape).ravel()
    assert np.array_equal(got.matvec(v), want.matvec(v))


def test_degenerate_mobility_error_paths():
    # p < 2 with eps_reg = 0: a flat face has infinite mobility
    grid = Grid((6, 5), (1.0, 1.0))
    fld = ScalarField(grid, _data((6, 5), "flat_patch", 3))
    params = ProblemParams(p=1.5, q=1.0, dim_n=3)
    with pytest.raises(ValueError, match="eps_reg > 0"):
        p_flux_divergence(fld, CoefficientField(), 1.5, 0.0)
    assert stable_dt(fld, params, eps_reg=0.0) == 0.0
    with pytest.raises(ValueError, match="eps_reg > 0"):
        step_explicit(fld, 1e-3, params, eps_reg=0.0)
    with pytest.raises(ValueError, match="eps_reg must be >= 0"):
        p_flux_divergence(fld, CoefficientField(), 1.5, -1e-3)
    with pytest.raises(ValueError, match="eps_reg must be >= 0"):
        face_diffusivities(fld, 1.5, -1e-3)


@pytest.mark.parametrize("eps_reg", [-1e-3, math.nan])
def test_every_operator_entry_rejects_a_negative_or_nan_eps_reg(eps_reg):
    # stable_dt, step_explicit and step_imex took -1e-3, which enters squared;
    # face_diffusivities and p_flux_divergence let NaN through
    fld = ScalarField(Grid((6, 5), (1.0, 1.0)), _data((6, 5), "random", 3))
    params = ProblemParams(p=2.5, q=1.0, dim_n=3, gamma=1.0)
    calls = [
        lambda: stable_dt(fld, params, eps_reg=eps_reg),
        lambda: step_explicit(fld, 1e-6, params, eps_reg=eps_reg),
        lambda: evolve.step_imex(fld, 1e-6, params, eps_reg=eps_reg),
        lambda: face_diffusivities(fld, 2.5, eps_reg),
        lambda: p_flux_divergence(fld, CoefficientField(), 2.5, eps_reg),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="eps_reg must be >= 0"):
            call()


def test_overflowing_flux_is_named_as_the_cause():
    # eps_reg > 0 and a finite mobility, but |grad u|^(p - 1) is past the largest double
    grid = Grid((12, 5), (1.0, 1.0))
    fld = evolve.make_initial(InitialSpec(kind="eigenfunction", amplitude=2.6e11), grid)
    assert all(np.all(np.isfinite(d)) for d in face_diffusivities(fld, 26.9, 1e-8))
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="a face flux that overflows"):
        p_flux_divergence(fld, CoefficientField(), 26.9, 1e-8)


def test_overflowing_flux_raises_without_a_warning():
    # three RuntimeWarnings (overflow in multiply and divide) came before the ValueError
    grid = Grid((12, 5), (1.0, 1.0))
    fld = evolve.make_initial(InitialSpec(kind="eigenfunction", amplitude=2.6e11), grid)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="a face flux that overflows"):
            p_flux_divergence(fld, CoefficientField(), 26.9, 1e-8)


def test_overflowing_mobility_is_inf_and_collapses_the_explicit_step():
    # (eps^2 + |grad u|^2)^12.45 is past the largest double on every face:
    # the mobility holds inf silently, the stable dt is 0 and run() stops on it
    grid = Grid((12, 5), (1.0, 1.0))
    initial = InitialSpec(kind="eigenfunction", amplitude=1e30)
    fld = evolve.make_initial(initial, grid)
    params = ProblemParams(p=26.9, q=1.0, dim_n=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert all(np.all(d == math.inf) for d in face_diffusivities(fld, 26.9, 1e-8))
        assert stable_dt(fld, params, eps_reg=1e-8) == 0.0
        with pytest.raises(NonConvergenceError, match="step size collapsed at t=0"):
            run(Scenario(params=params, grid=grid, initial=initial, t_end=0.1, eps_reg=1e-8))


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
    div = p_flux_divergence(fld, CoefficientField(), 1.9, 1e-4)
    kept_div = div.values.copy()
    p_flux_divergence(first, CoefficientField(), 1.9, 1e-4)
    assert np.array_equal(div.values, kept_div)

    stepper = _ExplicitStepper(grid, params, CoefficientField(), 1e-4)
    u, t = fld.values, 0.0
    states = []
    for _ in range(4):
        u, dt = stepper.advance(u, t, 1.0 - t)
        t += dt
        states.append((u, u.copy()))
    assert all(np.array_equal(a, b) for a, b in states)
    assert len({id(a) for a, _ in states}) == len(states)


@pytest.mark.parametrize("shape", [(1,), (9,), (1, 1), (1, 7), (7, 1), (6, 5), (64, 64)])
def test_kernel_buffers_are_64_byte_aligned(shape):
    grid = Grid(shape, (1.0,) * len(shape))
    # odd-sized allocations first shift where the allocator puts the next array
    # (an import that allocates does the same)
    before = [np.empty(n) for n in (1, 3, 5, 7, 33)]
    for _ in range(3):
        kernel = FluxKernel(grid)
        # the state, 4 holding every axis's faces, 1 centred difference per axis and 3 on nodes
        assert len(kernel._buffers) == 8 + grid.dim
        # and each axis's faces start on a 64-byte boundary within theirs
        arrays = kernel._buffers + kernel._grad + kernel._mob + kernel._face_work
        assert [b.ctypes.data % 64 for b in arrays] == [0] * len(arrays)
        before.append(np.empty(3))


def test_explicit_steps_allocate_only_the_new_state():
    grid = Grid((32, 32), (1.0, 1.0))
    params = ProblemParams(p=1.9, q=1.5, dim_n=3, gamma=0.1)
    stepper = _ExplicitStepper(grid, params, CoefficientField(), 1e-4)
    u, t = _data(grid.shape, "random", 11), 0.0
    state_bytes = u.nbytes
    tracemalloc.start()
    try:
        for _ in range(50):
            u, dt = stepper.advance(u, t, 1.0 - t)
            t += dt
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the state the loop holds and the new one, plus small temporaries
    assert peak < 3 * state_bytes


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
