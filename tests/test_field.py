import math
import re
import tracemalloc

import numpy as np
import pytest

from decaylab.field import (
    POW_FREE,
    CoefficientField,
    Grid,
    ScalarField,
    face_diffusivities,
    gradient,
    gradient_magnitude,
    p_flux_divergence,
    read_field_csv,
    _power,
    write_field_csv,
)

IDENT = CoefficientField()


def _reference_divergence_1d(values, h, p, eps, a_fn=None):
    """Independent scalar-loop oracle for the conservative divergence."""
    n = values.size
    pad = np.zeros(n + 2)
    pad[1:-1] = values
    flux = np.zeros(n + 1)
    for f in range(n + 1):
        g = (pad[f + 1] - pad[f]) / h
        d = 1.0 if p == 2.0 else (eps * eps + g * g) ** ((p - 2.0) / 2.0)
        a = a_fn((f + 0.5) * h) if a_fn is not None else 1.0
        flux[f] = a * d * g
    return np.array([(flux[i + 1] - flux[i]) / h for i in range(n)])


def _reference_divergence_2d(values, hx, hy, p, eps):
    nx, ny = values.shape
    pad = np.zeros((nx + 2, ny + 2))
    pad[1:-1, 1:-1] = values
    fx = np.zeros((nx + 1, ny))
    for i in range(nx + 1):
        for j in range(ny):
            g = (pad[i + 1, j + 1] - pad[i, j + 1]) / hx
            tv = (pad[i + 1, j + 2] - pad[i + 1, j] + pad[i, j + 2] - pad[i, j]) / (4.0 * hy)
            d = 1.0 if p == 2.0 else (eps * eps + (g * g + tv * tv)) ** ((p - 2.0) / 2.0)
            fx[i, j] = d * g
    fy = np.zeros((nx, ny + 1))
    for i in range(nx):
        for j in range(ny + 1):
            g = (pad[i + 1, j + 1] - pad[i + 1, j]) / hy
            tv = (pad[i + 2, j + 1] - pad[i, j + 1] + pad[i + 2, j] - pad[i, j]) / (4.0 * hx)
            d = 1.0 if p == 2.0 else (eps * eps + (g * g + tv * tv)) ** ((p - 2.0) / 2.0)
            fy[i, j] = d * g
    div = np.zeros((nx, ny))
    for i in range(nx):
        for j in range(ny):
            div[i, j] = (fx[i + 1, j] - fx[i, j]) / hx + (fy[i, j + 1] - fy[i, j]) / hy
    return div


def test_grid_geometry_frozen():
    g = Grid((4,), (1.0,))
    assert g.dim == 1
    assert g.spacing == pytest.approx((0.2,))
    assert np.allclose(g.axis_nodes(0), [0.2, 0.4, 0.6, 0.8])
    assert g.cell_volume == pytest.approx(0.2)
    assert g.quad_weight == pytest.approx(0.25)

    g = Grid((3, 4), (1.0, 2.0))
    assert g.dim == 2
    assert g.spacing == pytest.approx((0.25, 0.4))
    assert g.quad_weight == pytest.approx(1.0 / 6.0)
    assert g.cell_volume == pytest.approx(0.1)
    mx, my = g.node_mesh()
    assert mx.shape == (3, 4) and my.shape == (3, 4)
    assert mx[1, 0] == pytest.approx(0.5)
    assert my[0, 2] == pytest.approx(1.2)


@pytest.mark.parametrize("shape, lengths", [
    ((5,), (1.5,)), ((4, 5), (1.0, 2.0)), ((6, 1), (1.0, 0.7)), ((1, 6), (0.7, 1.0)),
])
def test_grid_coordinates_are_pinned(shape, lengths):
    g = Grid(shape, lengths)
    h = [length / (n + 1) for n, length in zip(shape, lengths)]
    index = np.indices(shape)
    mesh = g.node_mesh()
    assert len(mesh) == len(shape)
    for a in range(len(shape)):
        assert np.array_equal(mesh[a], (index[a] + 1.0) * h[a])
    for axis in range(len(shape)):
        faces = np.indices(tuple(n + (a == axis) for a, n in enumerate(shape)))
        centers = g.face_centers(axis)
        assert len(centers) == len(shape)
        for a in range(len(shape)):
            want = (faces[a] + (0.5 if a == axis else 1.0)) * h[a]
            assert np.array_equal(centers[a], want)


def test_face_centers_are_built_once_and_read_only():
    g = Grid((4, 3), (1.0, 2.0))
    for axis in range(2):
        centers = g.face_centers(axis)
        assert centers is g.face_centers(axis)
        for array in centers:
            with pytest.raises(ValueError):
                array[0, 0] = -1.0
    # a coefficient that writes into its arguments cannot corrupt the cache
    def scribble(t, x, y):
        x += 1.0
        return 1.0 + 0.0 * x

    with pytest.raises(ValueError):
        CoefficientField(kind="scalar", fn=scribble).face_values(g, 0, 0.0)
    assert np.array_equal(g.face_centers(0)[0][:, 0], (np.arange(5) + 0.5) * 0.2)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid((0,), (1.0,))
    with pytest.raises(ValueError):
        Grid((4, 4, 4), (1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        Grid((4,), (-1.0,))
    with pytest.raises(ValueError):
        Grid((4, 4), (1.0,))


@pytest.mark.parametrize("entry", [3.7, "3", True])  # built 3, 3 and 1 nodes
def test_grid_shape_entries_must_be_integers(entry):
    with pytest.raises(ValueError, match=re.escape(f"shape must be an integer, got {entry!r}")):
        Grid((entry,), (1.0,))


def test_scalar_field_validation():
    g = Grid((3,), (1.0,))
    fld = ScalarField(g, [1, 2, 3])
    assert fld.values.dtype == np.float64
    assert fld.values.flags["C_CONTIGUOUS"]
    with pytest.raises(ValueError):
        ScalarField(g, [1.0, 2.0])
    with pytest.raises(ValueError):
        ScalarField(g, [1.0, np.nan, 3.0])


def test_gradient_hand_values_1d():
    g = Grid((3,), (1.0,))
    fld = ScalarField(g, [1.0, 3.0, 2.0])
    (gx,) = gradient(fld)
    assert np.allclose(gx, [4.0, 8.0, -4.0, -8.0], rtol=1e-14)
    mag = gradient_magnitude(fld)
    assert np.allclose(mag.values, [6.0, 2.0, 6.0], rtol=1e-14)


def test_divergence_hand_values_1d():
    # faces g = [4, 8, -4, -8], p = 3 diffusivity |g|, flux = [16, 64, -16, -64]
    g = Grid((3,), (1.0,))
    fld = ScalarField(g, [1.0, 3.0, 2.0])
    div = p_flux_divergence(fld, IDENT, 3.0, 0.0)
    assert np.allclose(div.values, [192.0, -320.0, -192.0], rtol=1e-13)


def test_divergence_matches_reference_loop():
    rng = np.random.default_rng(5)
    for p, eps in [(2.0, 0.0), (2.6, 0.0), (3.5, 1e-2), (1.6, 1e-3)]:
        g1 = Grid((9,), (2.0,))
        v1 = rng.normal(size=9)
        got = p_flux_divergence(ScalarField(g1, v1), IDENT, p, eps).values
        want = _reference_divergence_1d(v1, g1.spacing[0], p, eps)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12), (p, eps)

        g2 = Grid((6, 5), (1.0, 1.5))
        v2 = rng.normal(size=(6, 5))
        got = p_flux_divergence(ScalarField(g2, v2), IDENT, p, eps).values
        want = _reference_divergence_2d(v2, g2.spacing[0], g2.spacing[1], p, eps)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12), (p, eps)


def test_divergence_with_scalar_coefficient_matches_reference():
    a_fn = lambda x: 2.0 + np.sin(3.0 * x)
    coeff = CoefficientField(kind="scalar", fn=lambda t, x: a_fn(x))
    g = Grid((9,), (2.0,))
    rng = np.random.default_rng(6)
    v = rng.normal(size=9)
    got = p_flux_divergence(ScalarField(g, v), coeff, 2.6, 0.0).values
    want = _reference_divergence_1d(v, g.spacing[0], 2.6, 0.0, a_fn=a_fn)
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def test_laplacian_exact_on_quadratic():
    # second differences reproduce constant curvature exactly, boundary included
    g = Grid((31,), (1.0,))
    x = g.axis_nodes(0)
    div = p_flux_divergence(ScalarField(g, x * (1.0 - x)), IDENT, 2.0, 0.0)
    assert np.allclose(div.values, -2.0, rtol=1e-11)

    # the product bump vanishes on the whole boundary and is quadratic per axis
    g2 = Grid((12, 17), (1.0, 1.0))
    mx, my = g2.node_mesh()
    u = mx * (1.0 - mx) * my * (1.0 - my)
    div = p_flux_divergence(ScalarField(g2, u), IDENT, 2.0, 0.0)
    exact = -2.0 * my * (1.0 - my) - 2.0 * mx * (1.0 - mx)
    assert np.allclose(div.values, exact, rtol=1e-10, atol=1e-12)


def test_divergence_theorem_telescoping():
    # sum of div * cell volume equals the net boundary flux, to rounding
    rng = np.random.default_rng(8)
    p, eps = 2.7, 1e-3

    g1 = Grid((17,), (1.3,))
    v1 = rng.normal(size=17)
    fld = ScalarField(g1, v1)
    div = p_flux_divergence(fld, IDENT, p, eps).values
    (gx,) = gradient(fld)
    (dx,) = face_diffusivities(fld, p, eps)
    flux = dx * gx
    lhs = float(np.sum(div)) * g1.cell_volume
    rhs = flux[-1] - flux[0]
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    g2 = Grid((8, 11), (1.0, 2.0))
    v2 = rng.normal(size=(8, 11))
    fld = ScalarField(g2, v2)
    div = p_flux_divergence(fld, IDENT, p, eps).values
    gx, gy = gradient(fld)
    dx, dy = face_diffusivities(fld, p, eps)
    fx, fy = dx * gx, dy * gy
    hx, hy = g2.spacing
    lhs = float(np.sum(div)) * g2.cell_volume
    rhs = hy * float(np.sum(fx[-1, :] - fx[0, :])) + hx * float(np.sum(fy[:, -1] - fy[:, 0]))
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_divergence_second_order_consistency():
    # p = 2: clean O(h^2) against the exact Laplacian of sin(pi x)
    errs = []
    for n in (32, 64):
        g = Grid((n,), (1.0,))
        x = g.axis_nodes(0)
        div = p_flux_divergence(ScalarField(g, np.sin(math.pi * x)), IDENT, 2.0, 0.0)
        errs.append(float(np.max(np.abs(div.values + math.pi**2 * np.sin(math.pi * x)))))
    assert 3.5 < errs[0] / errs[1] < 4.5

    # p = 3: exact div is -(p-1) pi^3 |cos|^(p-2) sin; compare away from the kink
    errs = []
    for n in (32, 64):
        g = Grid((n,), (1.0,))
        x = g.axis_nodes(0)
        div = p_flux_divergence(ScalarField(g, np.sin(math.pi * x)), IDENT, 3.0, 0.0)
        exact = -2.0 * math.pi**3 * np.abs(np.cos(math.pi * x)) * np.sin(math.pi * x)
        mask = np.abs(x - 0.5) > 0.1
        errs.append(float(np.max(np.abs(div.values[mask] - exact[mask]))))
    assert errs[0] / errs[1] > 3.0


def test_divergence_symmetry():
    g = Grid((16, 16), (1.0, 1.0))
    mx, my = g.node_mesh()
    u = np.sin(math.pi * mx) * np.sin(math.pi * my)
    div = p_flux_divergence(ScalarField(g, u), IDENT, 2.8, 0.0).values
    assert np.allclose(div, div[::-1, :], atol=1e-11)
    assert np.allclose(div, div[:, ::-1], atol=1e-11)
    assert np.allclose(div, div.T, atol=1e-11)


def test_singular_zero_gradient_needs_regularization():
    g = Grid((2,), (1.0,))
    fld = ScalarField(g, [1.0, 1.0])  # interior face has zero gradient
    with pytest.raises(ValueError, match="eps_reg"):
        p_flux_divergence(fld, IDENT, 1.5, 0.0)
    # with regularization it is fine
    div = p_flux_divergence(fld, IDENT, 1.5, 1e-4)
    assert np.all(np.isfinite(div.values))


def test_coefficient_fields():
    g = Grid((4, 3), (1.0, 1.0))
    assert IDENT.face_values(g, 0, 0.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        CoefficientField(kind="scalar")  # no callable
    with pytest.raises(ValueError):
        CoefficientField(kind="tensor", fn=lambda t, x, y: x)

    coeff = CoefficientField(kind="scalar", fn=lambda t, x, y: 1.0 + 0.5 * np.sin(x + y + t))
    fx = coeff.face_values(g, 0, 0.3)
    fy = coeff.face_values(g, 1, 0.3)
    assert fx.shape == (5, 3) and fy.shape == (4, 4)
    xs, ys = g.face_centers(1)
    assert np.allclose(fy, 1.0 + 0.5 * np.sin(xs + ys + 0.3))
    # a constant from fn broadcasts to the face shape
    const = CoefficientField(kind="scalar", fn=lambda t, x, y: 0.2)
    assert const.face_values(g, 0, 0.0).shape == (5, 3)

    diag = CoefficientField(kind="diagonal", fn=lambda t, axis, x, y: (1.0 + axis) + 0.0 * x)
    assert np.allclose(diag.face_values(g, 0, 0.0), 1.0)
    assert np.allclose(diag.face_values(g, 1, 0.0), 2.0)


def test_anisotropic_diagonal_divergence():
    # axis-wise coefficients scale the axis contributions independently
    g = Grid((10, 10), (1.0, 1.0))
    mx, my = g.node_mesh()
    u = mx * (1.0 - mx) * my * (1.0 - my)
    diag = CoefficientField(
        kind="diagonal", fn=lambda t, axis, x, y: (2.0 if axis == 0 else 3.0) + 0.0 * x
    )
    div = p_flux_divergence(ScalarField(g, u), diag, 2.0, 0.0)
    exact = 2.0 * (-2.0 * my * (1.0 - my)) + 3.0 * (-2.0 * mx * (1.0 - mx))
    assert np.allclose(div.values, exact, rtol=1e-10, atol=1e-12)


def test_field_csv_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    g1 = Grid((7,), (1.5,))
    fld = ScalarField(g1, rng.normal(size=7) * 10.0 ** rng.integers(-8, 8))
    path = tmp_path / "snap1.csv"
    write_field_csv(fld, path)
    back = read_field_csv(path, g1)
    assert np.array_equal(back.values, fld.values)

    g2 = Grid((4, 6), (1.0, 2.0))
    fld2 = ScalarField(g2, rng.normal(size=(4, 6)))
    path2 = tmp_path / "snap2.csv"
    write_field_csv(fld2, path2)
    back2 = read_field_csv(path2, g2)
    assert np.array_equal(back2.values, fld2.values)

    with pytest.raises(ValueError, match="header"):
        read_field_csv(path2, g1)  # 1d header expected, 2d file
    with pytest.raises(ValueError, match="rows"):
        read_field_csv(path, Grid((8,), (1.5,)))


def test_field_csv_rows_in_c_order(tmp_path):
    g = Grid((2, 3), (1.0, 2.0))
    values = np.arange(6.0).reshape(2, 3) - 2.5
    path = tmp_path / "snap.csv"
    write_field_csv(ScalarField(g, values), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "i,j,x,y,value"
    rows = [line.split(",") for line in lines[1:]]
    assert [(int(r[0]), int(r[1])) for r in rows] == [(i, j) for i in (1, 2) for j in (1, 2, 3)]
    for i, j, x, y, v in rows:
        assert float(x) == int(i) / 3.0 and float(y) == int(j) * 0.5
        assert float(v) == values[int(i) - 1, int(j) - 1]
    write_field_csv(ScalarField(Grid((2,), (3.0,)), [4.0, -1.0]), path)
    assert [line.split(",")[:2] for line in path.read_text().splitlines()] == [
        ["i", "x"], ["1", "1.0"], ["2", "2.0"]
    ]


def _snapshot_lines(tmp_path, grid):
    path = tmp_path / "snap.csv"
    values = np.arange(1.0, 1.0 + np.prod(grid.shape)).reshape(grid.shape)
    write_field_csv(ScalarField(grid, values), path)
    return path, path.read_text().splitlines()


MALFORMED_ROWS = {
    # (grid shape, line to change, its new text); line 1 is the header
    "repeated node": ((2, 3), 7, "1,1,0.333333,0.5,6"),
    "index zero": ((2, 3), 2, "0,1,0.333333,0.5,1"),
    "index past the end": ((2, 3), 7, "3,3,1,1.5,6"),
    "short row": ((2, 3), 4, "1,3,0.333333,1.5"),
    "long row": ((2, 3), 4, "1,3,0.333333,1.5,3,7"),
    "non-integer index": ((2, 3), 4, "1,2.5,0.333333,1.5,3"),
    "non-numeric value": ((2, 3), 4, "1,3,0.333333,1.5,abc"),
    "1D repeated node": ((4,), 5, "2,0.4,4"),
    "1D index zero": ((4,), 2, "0,0.2,1"),
    "1D index past the end": ((4,), 3, "5,0.4,2"),
    "1D short row": ((4,), 3, "2"),
    "coordinate one ulp off": ((2, 3), 6, "2,2,0.6666666666666666,1.0000000000000002,5"),
    "1D coordinate of the next node": ((4,), 2, "1,0.4,1"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_ROWS))
def test_read_field_csv_rejects_malformed_rows(tmp_path, case):
    shape, line, text = MALFORMED_ROWS[case]
    grid = Grid(shape, (1.0, 2.0)[: len(shape)])
    path, lines = _snapshot_lines(tmp_path, grid)
    lines[line - 1] = text
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"line {line}"):
        read_field_csv(path, grid)


@pytest.mark.parametrize("written, read", [
    (Grid((16,), (2.0,)), Grid((16,), (1.0,))),
    (Grid((2, 3), (1.0, 2.0)), Grid((2, 3), (1.0, 3.0))),
])
def test_read_field_csv_rejects_another_domain(tmp_path, written, read):
    path = tmp_path / "snap.csv"
    write_field_csv(ScalarField(written, np.ones(written.shape)), path)
    with pytest.raises(ValueError, match="line 2: node"):
        read_field_csv(path, read)


# ---------------------------------------------------------------------------
# the one array power


def _power_inputs():
    """Zeros of both signs, subnormals, the normal range, values whose powers
    overflow to inf, and the infinities, each with both signs."""
    rng = np.random.default_rng(19)
    spread = np.abs(rng.standard_normal(4000)) * 10.0 ** rng.integers(-320, 309, 4000).astype(float)
    specials = [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-103, 1e-78, 1.0, 1e77, 1e103,
                1e155, 1e300, 1.7976931348623157e308, math.inf]
    x = np.concatenate([spread, specials])
    return np.concatenate([x, -x])


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


@pytest.mark.parametrize("e", [0.5, 1.0, 2.0, 3.0, 4.0, 1.5, -0.05, 0.8, 5.0, 2.9999999999999996,
                               3.0000000000000013, 4.000000000000001])
def test_power_is_its_stated_formula_bitwise(e):
    x = _power_inputs()
    with np.errstate(all="ignore"):
        if e in (3.0, 4.0):
            want = (x * x) * x if e == 3.0 else (x * x) * (x * x)
        elif e == 1.5:
            want = np.sqrt(x) * x
        elif e in POW_FREE:
            want = x ** e
        else:
            want = np.power(x, e)
        got = _power(x, e)
        into = np.empty_like(x)
        assert _power(x, e, out=into) is into
        in_place = x.copy()
        assert _power(in_place, e, out=in_place) is in_place
    assert POW_FREE == {0.5, 1.0, 1.5, 2.0, 3.0, 4.0}
    for result in (got, into, in_place):
        assert np.array_equal(_bits(result), _bits(want)), e
    assert np.array_equal(_bits(x), _bits(_power_inputs()))  # x itself is untouched


@pytest.mark.parametrize("e", sorted(POW_FREE))
def test_power_into_another_array_allocates_nothing(e):
    # the explicit stepper powers the nodal |grad u| into its own work array
    x = np.abs(_power_inputs())
    into = np.empty_like(x)
    tracemalloc.start()
    try:
        with np.errstate(all="ignore"):
            _power(x, e, out=into)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < x.nbytes // 8
