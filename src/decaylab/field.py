"""Uniform Dirichlet grids, nodal scalar fields and the regularized flux operator.

Grids are tensor products of uniform 1D node sets: n interior nodes per axis at
coordinates (i+1)*h with h = length/(n+1); the boundary nodes at 0 and length
carry implicit homogeneous Dirichlet values and are never stored.  The flux
divergence is assembled conservatively on faces, so summing it against the
geometric cell volume telescopes exactly to the net boundary flux.

All of the operator runs through one FluxKernel per grid.  It holds the state
in a zero-bordered padded buffer and computes the face gradients, the face
mobility, the nodal |grad u| and the divergence with in-place ufuncs in its
own arrays, so a time stepper that keeps one kernel for a run allocates only
the new state per step.  The public functions below use a kernel of their own.
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


def _power(x: np.ndarray, e: float, out: np.ndarray) -> np.ndarray:
    """x ** e into out, with the sqrt and square that numpy's ** uses for e = 0.5 and 2."""
    if e == 0.5:
        return np.sqrt(x, out=out)
    if e == 2.0:
        return np.square(x, out=out)
    return np.power(x, e, out=out)


class FluxKernel:
    """The regularized flux operator of one grid, evaluated in preallocated arrays.

    load(values) copies a state into a zero-bordered padded buffer (the
    Dirichlet zeros around the interior nodes) and forms, per axis, the normal
    gradient and the squared full gradient on that axis's faces;
    mobility(), nodal_magnitude() and divergence() read them.  Every result
    is one of the kernel's own arrays and the next call that computes it
    overwrites it, so a caller that keeps a result copies it.
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        self._spacing = grid.spacing
        dim = grid.dim
        padded = np.zeros(tuple(n + 2 for n in grid.shape))
        self._interior = padded[(slice(1, -1),) * dim]
        faces = [tuple(n + (a == axis) for a, n in enumerate(grid.shape)) for axis in range(dim)]
        self._grad = [np.empty(shape) for shape in faces]
        self._mag2 = [np.empty(shape) for shape in faces]
        self._mob = [np.empty(shape) for shape in faces]
        self._face_work = [np.empty(shape) for shape in faces]  # tangential gradient, then flux
        self._nodal = np.empty(grid.shape)
        self._div = np.empty(grid.shape)
        self._node_work = np.empty(grid.shape)
        p = padded
        if dim == 1:
            self._stencils = [(p[1:], p[:-1], None)]
        else:
            hx, hy = self._spacing
            self._stencils = [
                (p[1:, 1:-1], p[:-1, 1:-1], (p[1:, 2:], p[1:, :-2], p[:-1, 2:], p[:-1, :-2], 4.0 * hy)),
                (p[1:-1, 1:], p[1:-1, :-1], (p[2:, 1:], p[:-2, 1:], p[2:, :-1], p[:-2, :-1], 4.0 * hx)),
            ]
        # (upper, lower) halves along the face axis: face values either side of each node
        self._grad_halves = [_halves(g, axis) for axis, g in enumerate(self._grad)]
        self._flux_halves = [_halves(f, axis) for axis, f in enumerate(self._face_work)]

    def load(self, values: np.ndarray) -> None:
        """Face components of a state: grad = (u+ - u-)/h, mag2 = grad^2 + tangential^2."""
        self._interior[...] = values
        for axis, (hi, lo, tangential) in enumerate(self._stencils):
            h = self._spacing[axis]
            g, m2, tan = self._grad[axis], self._mag2[axis], self._face_work[axis]
            np.subtract(hi, lo, out=g)
            np.divide(g, h, out=g)
            np.multiply(g, g, out=m2)
            if tangential is not None:
                # the average of the two centered differences across the face
                a, b, c, d, scale = tangential
                np.subtract(a, b, out=tan)
                np.add(tan, c, out=tan)
                np.subtract(tan, d, out=tan)
                np.divide(tan, scale, out=tan)
                np.multiply(tan, tan, out=tan)
                np.add(m2, tan, out=m2)

    def mobility(self, coeff: Optional[CoefficientField], p: float, eps_reg: float, t: float) -> list:
        """Per axis: A(t) (eps^2 + |grad u|^2)^((p-2)/2) on that axis's faces; None is A = 1."""
        for axis, (m2, m) in enumerate(zip(self._mag2, self._mob)):
            if p == 2.0:
                m.fill(1.0)
            else:
                np.add(m2, eps_reg * eps_reg, out=m)
                with np.errstate(divide="ignore"):
                    _power(m, (p - 2.0) / 2.0, out=m)
            if coeff is not None and coeff.kind != "identity":
                np.multiply(coeff.face_values(self.grid, axis, t), m, out=m)
        return self._mob

    def max_mobility(self) -> float:
        """The largest face mobility of the last mobility() call."""
        return max(float(np.max(m, initial=0.0)) for m in self._mob)

    def nodal_magnitude(self) -> np.ndarray:
        """Nodal |grad u|: per axis the average of the two adjacent face gradients."""
        out = self._nodal
        for axis, (hi, lo) in enumerate(self._grad_halves):
            part = out if axis == 0 else self._node_work
            np.add(lo, hi, out=part)
            np.multiply(part, 0.5, out=part)
            np.multiply(part, part, out=part)
            if axis > 0:
                np.add(out, part, out=out)
        return np.sqrt(out, out=out)

    def divergence(self) -> np.ndarray:
        """Conservative divergence of the face fluxes mobility * normal gradient."""
        div, work = self._div, self._node_work
        div.fill(0.0)
        for axis, (flux, (hi, lo)) in enumerate(zip(self._face_work, self._flux_halves)):
            with np.errstate(invalid="ignore"):
                np.multiply(self._mob[axis], self._grad[axis], out=flux)
            np.subtract(hi, lo, out=work)
            np.divide(work, self._spacing[axis], out=work)
            np.add(div, work, out=div)
        if not np.isfinite(div).all():
            raise ValueError(
                "non-finite flux divergence: degenerate zero-gradient face with "
                "eps_reg = 0 and p < 2; pass eps_reg > 0"
            )
        return div


def _halves(faces: np.ndarray, axis: int) -> tuple:
    """(faces[1:], faces[:-1]) along axis: the faces after and before each node."""
    hi = [slice(None)] * faces.ndim
    lo = [slice(None)] * faces.ndim
    hi[axis] = slice(1, None)
    lo[axis] = slice(0, -1)
    return faces[tuple(hi)], faces[tuple(lo)]


def _loaded(fld: ScalarField) -> FluxKernel:
    kernel = FluxKernel(fld.grid)
    kernel.load(fld.values)
    return kernel


def gradient(fld: ScalarField) -> tuple:
    """Face-normal difference quotients per axis, Dirichlet zeros outside."""
    return tuple(_loaded(fld)._grad)


def face_diffusivities(fld: ScalarField, p: float, eps_reg: float) -> list:
    """(eps^2 + |grad u|^2)^((p-2)/2) on the faces of each axis (no coefficient)."""
    if eps_reg < 0.0:
        raise ValueError("eps_reg must be >= 0")
    return _loaded(fld).mobility(None, p, eps_reg, 0.0)


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
    kernel = _loaded(fld)
    kernel.mobility(coeff, p, eps_reg, t)
    return ScalarField(fld.grid, kernel.divergence())


def gradient_magnitude(fld: ScalarField) -> ScalarField:
    """Nodal |grad u|: per-axis average of the two adjacent face gradients."""
    return ScalarField(fld.grid, _loaded(fld).nodal_magnitude())


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
