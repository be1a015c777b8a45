"""Uniform Dirichlet grids, nodal scalar fields and the regularized flux operator.

Grids are tensor products of uniform 1D node sets: n interior nodes per axis at
coordinates (i+1)*h with h = length/(n+1); the boundary nodes at 0 and length
carry implicit homogeneous Dirichlet values and are never stored.  The flux
divergence is assembled conservatively on faces, so summing it against the
geometric cell volume telescopes exactly to the net boundary flux.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional

import numpy as np

from .fileio import atomic_write_text, fmt_float


@dataclass(frozen=True)
class Grid:
    """Uniform tensor grid on a box, 1D or 2D, interior nodes only."""

    shape: tuple
    lengths: tuple

    def __post_init__(self):
        shape = tuple(int(n) for n in self.shape)
        lengths = tuple(float(l) for l in self.lengths)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "lengths", lengths)
        if len(shape) not in (1, 2) or len(lengths) != len(shape):
            raise ValueError(f"grid must be 1D or 2D, got shape {shape}, lengths {lengths}")
        if any(n < 1 for n in shape):
            raise ValueError(f"need at least one interior node per axis, got {shape}")
        if any(not (l > 0.0 and math.isfinite(l)) for l in lengths):
            raise ValueError(f"axis lengths must be positive finite, got {lengths}")

    @property
    def dim(self) -> int:
        return len(self.shape)

    @property
    def spacing(self) -> tuple:
        return tuple(l / (n + 1) for n, l in zip(self.shape, self.lengths))

    @property
    def cell_volume(self) -> float:
        """Geometric cell volume prod(h); pairs with the conservative divergence."""
        return float(np.prod(self.spacing))

    @property
    def quad_weight(self) -> float:
        """Node quadrature weight prod(length/n); total measure is exactly |domain|."""
        return float(np.prod([l / n for n, l in zip(self.shape, self.lengths)]))

    def axis_nodes(self, axis: int) -> np.ndarray:
        h = self.spacing[axis]
        return (np.arange(self.shape[axis], dtype=float) + 1.0) * h

    def node_mesh(self) -> tuple:
        """Coordinate arrays broadcast to the field shape (ij indexing)."""
        axes = [self.axis_nodes(a) for a in range(self.dim)]
        if self.dim == 1:
            return (axes[0],)
        return tuple(np.meshgrid(*axes, indexing="ij"))

    def face_centers(self, axis: int) -> tuple:
        """Coordinate arrays at the centers of the faces normal to axis."""
        h = self.spacing
        normal = (np.arange(self.shape[axis] + 1, dtype=float) + 0.5) * h[axis]
        if self.dim == 1:
            return (normal,)
        other = 1 - axis
        tangent = self.axis_nodes(other)
        if axis == 0:
            return tuple(np.meshgrid(normal, tangent, indexing="ij"))
        x, y = np.meshgrid(tangent, normal, indexing="ij")
        return (x, y)


@dataclass
class ScalarField:
    """Nodal values on a grid; always finite, float64, grid-shaped."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.ascontiguousarray(np.asarray(self.values, dtype=float))
        if vals.shape != self.grid.shape:
            raise ValueError(f"values shape {vals.shape} != grid shape {self.grid.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("field values must be finite")
        self.values = vals


@dataclass(frozen=True)
class CoefficientField:
    """Diffusion coefficient A(t,x), evaluated at face centers.

    kind "identity": constant 1.
    kind "scalar": fn(t, *coords) -> array.
    kind "diagonal": fn(t, axis, *coords) -> array, one entry per axis direction.

    run() checks the values against the ProblemParams ellipticity bounds.
    """

    kind: str = "identity"
    fn: Optional[Callable] = None

    def __post_init__(self):
        if self.kind not in ("identity", "scalar", "diagonal"):
            raise ValueError(f"unknown coefficient kind {self.kind!r}")
        if self.kind != "identity" and self.fn is None:
            raise ValueError(f"coefficient kind {self.kind!r} needs a callable")

    @classmethod
    def identity(cls) -> "CoefficientField":
        return cls()

    def face_values(self, grid: Grid, axis: int, t: float = 0.0):
        if self.kind == "identity":
            return 1.0
        coords = grid.face_centers(axis)
        if self.kind == "scalar":
            out = np.asarray(self.fn(t, *coords), dtype=float)
        else:
            out = np.asarray(self.fn(t, axis, *coords), dtype=float)
        expected = coords[0].shape
        out = np.broadcast_to(out, expected)
        return out


def _face_components(values: np.ndarray, spacing) -> list:
    """Per axis: (normal gradient, squared full gradient) on that axis's faces."""
    p = np.pad(values, 1)  # the Dirichlet zeros around the interior nodes
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


def _diffusivity(mag2: np.ndarray, p: float, eps_reg: float):
    if p == 2.0:
        return np.ones_like(mag2)
    with np.errstate(divide="ignore"):
        return (eps_reg * eps_reg + mag2) ** ((p - 2.0) / 2.0)


def _face_mobility(comps, grid: Grid, coeff: Optional[CoefficientField], p, eps_reg, t) -> list:
    """Per axis: A(t) (eps^2 + |grad u|^2)^((p-2)/2) on that axis's faces; None is A = 1."""
    coeff = coeff if coeff is not None else CoefficientField.identity()
    return [
        coeff.face_values(grid, axis, t) * _diffusivity(mag2, p, eps_reg)
        for axis, (_, mag2) in enumerate(comps)
    ]


def _divergence_from(comps, mobility, grid: Grid) -> np.ndarray:
    """Conservative divergence of the face fluxes mobility * normal gradient."""
    div = np.zeros(grid.shape)
    for axis, ((g, _), m) in enumerate(zip(comps, mobility)):
        with np.errstate(invalid="ignore"):
            flux = m * g
        div += np.diff(flux, axis=axis) / grid.spacing[axis]
    if not np.all(np.isfinite(div)):
        raise ValueError(
            "non-finite flux divergence: degenerate zero-gradient face with "
            "eps_reg = 0 and p < 2; pass eps_reg > 0"
        )
    return div


def _nodal_magnitude_from(comps) -> np.ndarray:
    parts = []
    for axis, (g, _) in enumerate(comps):
        lo = [slice(None)] * g.ndim
        hi = [slice(None)] * g.ndim
        lo[axis] = slice(0, -1)
        hi[axis] = slice(1, None)
        avg = 0.5 * (g[tuple(lo)] + g[tuple(hi)])
        parts.append(avg * avg)
    return np.sqrt(np.sum(parts, axis=0))


def gradient(fld: ScalarField) -> tuple:
    """Face-normal difference quotients per axis, Dirichlet zeros outside."""
    return tuple(g for g, _ in _face_components(fld.values, fld.grid.spacing))


def face_diffusivities(fld: ScalarField, p: float, eps_reg: float) -> list:
    """(eps^2 + |grad u|^2)^((p-2)/2) on the faces of each axis (no coefficient)."""
    if eps_reg < 0.0:
        raise ValueError("eps_reg must be >= 0")
    comps = _face_components(fld.values, fld.grid.spacing)
    return [_diffusivity(mag2, p, eps_reg) for _, mag2 in comps]


def p_flux_divergence(
    fld: ScalarField,
    coeff: CoefficientField,
    p: float,
    eps_reg: float,
    t: float = 0.0,
) -> ScalarField:
    """Conservative divergence of A(t,x) (eps^2 + |grad u|^2)^((p-2)/2) grad u.

    For p < 2 a zero-gradient face with eps_reg = 0 is degenerate (infinite
    mobility); the resulting non-finite flux is rejected with an error asking
    for eps_reg > 0.
    """
    if eps_reg < 0.0:
        raise ValueError("eps_reg must be >= 0")
    grid = fld.grid
    comps = _face_components(fld.values, grid.spacing)
    mobility = _face_mobility(comps, grid, coeff, p, eps_reg, t)
    return ScalarField(grid, _divergence_from(comps, mobility, grid))


def gradient_magnitude(fld: ScalarField) -> ScalarField:
    """Nodal |grad u|: per-axis average of the two adjacent face gradients."""
    comps = _face_components(fld.values, fld.grid.spacing)
    return ScalarField(fld.grid, _nodal_magnitude_from(comps))


def write_field_csv(fld: ScalarField, path) -> None:
    """One row per node: 1-based axis indices, coordinates, value."""
    grid = fld.grid
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if grid.dim == 1:
        writer.writerow(["i", "x", "value"])
        x = grid.axis_nodes(0)
        for i in range(grid.shape[0]):
            writer.writerow([i + 1, fmt_float(x[i]), fmt_float(fld.values[i])])
    else:
        writer.writerow(["i", "j", "x", "y", "value"])
        x = grid.axis_nodes(0)
        y = grid.axis_nodes(1)
        for i in range(grid.shape[0]):
            for j in range(grid.shape[1]):
                writer.writerow(
                    [i + 1, j + 1, fmt_float(x[i]), fmt_float(y[j]), fmt_float(fld.values[i, j])]
                )
    atomic_write_text(path, buf.getvalue())


def read_field_csv(path, grid: Grid) -> ScalarField:
    """Read a snapshot written by write_field_csv back onto the same grid."""
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    expected_header = ["i", "x", "value"] if grid.dim == 1 else ["i", "j", "x", "y", "value"]
    if not rows or rows[0] != expected_header:
        raise ValueError(f"snapshot header mismatch: expected {expected_header}")
    body = rows[1:]
    if len(body) != int(np.prod(grid.shape)):
        raise ValueError(
            f"snapshot has {len(body)} rows, grid needs {int(np.prod(grid.shape))}"
        )
    values = np.zeros(grid.shape)
    for row in body:
        if grid.dim == 1:
            i = int(row[0]) - 1
            values[i] = float(row[2])
        else:
            i, j = int(row[0]) - 1, int(row[1]) - 1
            values[i, j] = float(row[4])
    return ScalarField(grid, values)
