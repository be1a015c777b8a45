"""Uniform Dirichlet grids, nodal scalar fields and the regularized flux operator.

Grids are tensor products of uniform 1D node sets: n interior nodes per axis at
coordinates (i+1)*h with h = length/(n+1); the boundary nodes at 0 and length
carry implicit homogeneous Dirichlet values and are never stored.  The flux
divergence is assembled conservatively on faces, so summing it against the
geometric cell volume telescopes exactly to the net boundary flux.

Every grid routine here (coordinates, the operator, snapshot I/O) is written
once, as a loop over the axes; only Grid checks that a grid is 1D or 2D.
All of the operator runs through one FluxKernel per grid.  It holds the state
in one flat, zero-bordered padded buffer and computes the face gradients, the
face mobility, the nodal |grad u| and the divergence with in-place ufuncs,
each over one contiguous range of that flat index space and into its own
64-byte-aligned arrays, so a time stepper that keeps one kernel for a run
allocates only the new state per step.  In 2D the ranges cross the border
columns; those lanes are computed and never read, and every result is a
strided view of the real faces or nodes.  The public functions below use a
kernel of their own.
"""

from __future__ import annotations

import csv
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .fileio import atomic_write_text, fmt_float


@dataclass(frozen=True)
class Grid:
    """Uniform tensor grid on a box, interior nodes only; the one place limited to 1D or 2D."""

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
        return tuple(np.meshgrid(*(self.axis_nodes(a) for a in range(self.dim)), indexing="ij"))

    def face_centers(self, axis: int) -> tuple:
        """Coordinate arrays at the centers of the faces normal to axis (read-only, built once)."""
        return self._face_centers[axis]

    @functools.cached_property
    def _face_centers(self) -> tuple:
        meshes = []
        for axis in range(self.dim):
            normal = (np.arange(self.shape[axis] + 1, dtype=float) + 0.5) * self.spacing[axis]
            coords = (normal if a == axis else self.axis_nodes(a) for a in range(self.dim))
            mesh = tuple(np.meshgrid(*coords, indexing="ij"))
            for array in mesh:
                array.setflags(write=False)
            meshes.append(mesh)
        return tuple(meshes)

    @functools.cached_property
    def _snapshot_prefixes(self) -> tuple:
        """Per node in C order, its snapshot row up to the value: "i,j,x,y" (built once)."""
        axes = [[(str(i + 1), fmt_float(x)) for i, x in enumerate(self.axis_nodes(a))]
                for a in range(self.dim)]
        return tuple(",".join([i for i, _ in nodes] + [x for _, x in nodes])
                     for nodes in itertools.product(*axes))


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

    def face_values(self, grid: Grid, axis: int, t: float = 0.0):
        if self.kind == "identity":
            return 1.0
        coords = grid.face_centers(axis)
        args = (t, *coords) if self.kind == "scalar" else (t, axis, *coords)
        return np.broadcast_to(np.asarray(self.fn(*args), dtype=float), coords[0].shape)


# the exponents _power evaluates without numpy's general pow routine
POW_FREE = frozenset((0.5, 1.0, 2.0, 3.0, 4.0))


def _power(x: np.ndarray, e: float, out: Optional[np.ndarray] = None) -> np.ndarray:
    """x ** e, into out if given (out may be x): every power the steppers and norms take.

    An e in POW_FREE, by exact equality, skips pow: e = 0.5 and 2 take the
    sqrt and square that numpy's ** uses, e = 1 copies x, e = 3 is (x*x)*x
    and e = 4 is (x*x)*(x*x).  Those are x ** e bit for bit for e = 0.5, 1
    and 2; for e = 3 and 4 each product is rounded once, so a result may
    differ from pow's by an ulp, at about a quarter of pow's cost.  Every
    other e, 3.0000000000000013 included, goes to np.power.
    """
    if e == 0.5:
        return np.sqrt(x, out=out)
    if e == 1.0:
        return np.positive(x, out=out)
    if e == 2.0:
        return np.square(x, out=out)
    if e == 3.0:
        square = np.square(x)
        return np.multiply(square, x, out=square if out is None else out)
    if e == 4.0:
        square = np.square(x, out=out)
        return np.square(square, out=square)
    return np.power(x, e, out=out)


class FluxKernel:
    """The regularized flux operator of one grid, evaluated in preallocated arrays.

    The state lives in one flat padded buffer: the interior nodes with a
    border of Dirichlet zeros, (n0+2)(n1+2) doubles in C order (n+2 in 1D).
    A face normal to an axis is indexed there by the node below it, and a
    node's neighbours sit at fixed offsets: +-stride along each axis, and the
    corner nodes of a tangential difference at +-stride+-1.  So each face
    quantity of an axis (gradient, tangential term, squared magnitude,
    mobility, flux) is one ufunc over one contiguous index range, from the
    axis's first real face to its last, and each node quantity (|grad u|,
    divergence) likewise over the range from the first real node to the
    last.  Every real face and node gets the floating-point operations, in
    the order, of the per-axis formulas.

    In 2D those ranges also cross the border columns.  Their lanes are
    computed but never read: a border face lies between two zero nodes, so
    its gradient is zero and, with eps_reg = 0 and p < 2, its mobility is
    infinite and its flux NaN.  Every returned array sees only the real
    faces and nodes, through strided views of face or grid shape.  The
    maxima and the finiteness check first write 0 into the border lanes
    (mobilities and magnitudes are >= 0, so a 0 never wins a maximum) and
    then reduce the whole contiguous range.

    Every buffer is carved from one slab per kernel and starts on a
    64-byte boundary, so the contiguous passes run on aligned output
    whatever the process allocated before.

    load(values) copies a state into the padded buffer and forms, per axis,
    the normal gradient and the squared full gradient on that axis's faces;
    mobility(), nodal_magnitude() and divergence() read them.  Every result
    is a view of the kernel's own arrays and the next call that computes it
    overwrites it, so a caller that keeps a result copies it.
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        self._spacing = grid.spacing
        dim, shape = grid.dim, grid.shape
        padded = tuple(n + 2 for n in shape)
        strides = [math.prod(padded[a + 1:]) for a in range(dim)]
        faces = [tuple(n + (a == axis) for a, n in enumerate(shape)) for axis in range(dim)]
        # the flat index ranges, from the first real face or node to the last
        first_face = [sum(strides) - s for s in strides]
        face_len = [sum((n - 1) * s for n, s in zip(f, strides)) + 1 for f in faces]
        node_len = sum((n - 1) * s for n, s in zip(shape, strides)) + 1

        self._buffers = _aligned_buffers(
            [math.prod(padded)] + [n for n in face_len for _ in range(4)] + [node_len] * 3
        )
        state, face_bufs = self._buffers[0], self._buffers[1:-3]
        self._nodal, self._div, self._node_work = self._buffers[-3:]
        state.fill(0.0)  # the Dirichlet border
        self._interior = state.reshape(padded)[(slice(1, -1),) * dim]
        # per axis; face_work holds the tangential term, then the flux
        self._grad, self._mag2, self._mob, self._face_work = (face_bufs[k::4] for k in range(4))
        # the real faces and nodes: views with the padded state's strides
        byte_strides = tuple(8 * s for s in strides)
        self._grad_faces = [np.ndarray(f, buffer=g, strides=byte_strides) for g, f in zip(self._grad, faces)]
        self._mob_faces = [np.ndarray(f, buffer=m, strides=byte_strides) for m, f in zip(self._mob, faces)]
        self._nodal_nodes = np.ndarray(shape, buffer=self._nodal, strides=byte_strides)
        self._div_nodes = np.ndarray(shape, buffer=self._div, strides=byte_strides)

        def border_lanes(real: tuple, length: int) -> np.ndarray:
            """The flat indices of a range's lanes that are no real face or node."""
            lanes = np.ones(length, dtype=bool)
            np.ndarray(real, dtype=bool, buffer=lanes, strides=tuple(strides))[...] = False
            return np.flatnonzero(lanes)

        self._face_border = [border_lanes(f, n) for f, n in zip(faces, face_len)]
        self._node_border = border_lanes(shape, node_len)
        self._finite = np.empty(node_len, dtype=bool)

        def shifted(axis: int, offset: int) -> np.ndarray:
            """The state over axis's face range, offset entries on."""
            start = first_face[axis] + offset
            return state[start : start + face_len[axis]]

        # per axis: the nodes above and below each face, and per other axis the
        # four corner nodes of the tangential difference with its divisor
        self._stencils = [
            (shifted(axis, s), shifted(axis, 0), [
                (shifted(axis, s + so), shifted(axis, s - so), shifted(axis, so), shifted(axis, -so),
                 4.0 * self._spacing[other])
                for other, so in enumerate(strides) if other != axis
            ])
            for axis, s in enumerate(strides)
        ]
        # per axis, the faces above and below each node: the lower face of the
        # first node (flat index sum(strides)) is the axis's first face
        self._grad_halves = [(g[s : s + node_len], g[:node_len]) for g, s in zip(self._grad, strides)]
        self._flux_halves = [(f[s : s + node_len], f[:node_len]) for f, s in zip(self._face_work, strides)]

    def load(self, values: np.ndarray) -> None:
        """Face components of a state: grad = (u+ - u-)/h, mag2 = grad^2 + tangential^2."""
        self._interior[...] = values
        for axis, (hi, lo, corners) in enumerate(self._stencils):
            h = self._spacing[axis]
            g, m2, tan = self._grad[axis], self._mag2[axis], self._face_work[axis]
            np.subtract(hi, lo, out=g)
            np.divide(g, h, out=g)
            np.multiply(g, g, out=m2)
            for a, b, c, d, scale in corners:
                # the average of the two centered differences across the face
                np.subtract(a, b, out=tan)
                np.add(tan, c, out=tan)
                np.subtract(tan, d, out=tan)
                np.divide(tan, scale, out=tan)
                np.multiply(tan, tan, out=tan)
                np.add(m2, tan, out=m2)

    def mobility(self, coeff: CoefficientField, p: float, eps_reg: float, t: float) -> list:
        """Per axis: A(t) (eps^2 + |grad u|^2)^((p-2)/2) on that axis's faces."""
        with np.errstate(divide="ignore"):
            for axis, (m2, m, faces) in enumerate(zip(self._mag2, self._mob, self._mob_faces)):
                if p == 2.0:
                    m.fill(1.0)
                else:
                    np.add(m2, eps_reg * eps_reg, out=m)
                    _power(m, (p - 2.0) / 2.0, out=m)
                if coeff.kind != "identity":
                    np.multiply(coeff.face_values(self.grid, axis, t), faces, out=faces)
        return self._mob_faces

    def max_mobility(self) -> float:
        """The largest face mobility of the last mobility() call."""
        for m, border in zip(self._mob, self._face_border):
            m[border] = 0.0
        return max(float(np.maximum.reduce(m)) for m in self._mob)

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
        np.sqrt(out, out=out)
        return self._nodal_nodes

    def max_nodal_magnitude(self) -> float:
        """The largest nodal |grad u| of the last nodal_magnitude() call."""
        self._nodal[self._node_border] = 0.0
        return float(np.maximum.reduce(self._nodal))

    def divergence(self) -> np.ndarray:
        """Conservative divergence of the face fluxes mobility * normal gradient."""
        div, work = self._div, self._node_work
        div.fill(0.0)
        with np.errstate(invalid="ignore"):  # 0 * inf on a degenerate face
            for axis, (flux, (hi, lo)) in enumerate(zip(self._face_work, self._flux_halves)):
                np.multiply(self._mob[axis], self._grad[axis], out=flux)
                np.subtract(hi, lo, out=work)
                np.divide(work, self._spacing[axis], out=work)
                np.add(div, work, out=div)
        div[self._node_border] = 0.0
        if not np.logical_and.reduce(np.isfinite(div, out=self._finite)):
            raise ValueError(
                "non-finite flux divergence: degenerate zero-gradient face with "
                "eps_reg = 0 and p < 2; pass eps_reg > 0"
            )
        return self._div_nodes


_ALIGN = 64  # bytes: a cache line, and the widest SIMD register


def _aligned_buffers(sizes: list) -> list:
    """Uninitialized float64 arrays of the given sizes from one slab, each on a 64-byte boundary."""
    per_line = _ALIGN // 8
    lines = [-(-n // per_line) * per_line for n in sizes]
    slab = np.empty(sum(lines) + per_line)
    start = -slab.ctypes.data % _ALIGN // 8
    buffers = []
    for n, span in zip(sizes, lines):
        buffers.append(slab[start : start + n])
        start += span
    return buffers


def _loaded(fld: ScalarField) -> FluxKernel:
    kernel = FluxKernel(fld.grid)
    kernel.load(fld.values)
    return kernel


def gradient(fld: ScalarField) -> tuple:
    """Face-normal difference quotients per axis, Dirichlet zeros outside."""
    return tuple(_loaded(fld)._grad_faces)


def face_diffusivities(fld: ScalarField, p: float, eps_reg: float) -> list:
    """(eps^2 + |grad u|^2)^((p-2)/2) on the faces of each axis (no coefficient)."""
    if eps_reg < 0.0:
        raise ValueError("eps_reg must be >= 0")
    return _loaded(fld).mobility(CoefficientField(), p, eps_reg, 0.0)


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


def _snapshot_header(grid: Grid) -> list:
    """The axis indices i, j, the coordinates x, y (as many as axes), then the value."""
    return [*"ij"[: grid.dim], *"xy"[: grid.dim], "value"]


def write_field_csv(fld: ScalarField, path) -> None:
    """One row per node in C order: 1-based axis indices, coordinates, value.

    The bytes are csv.writer's: no field (an index, a name or a shortest
    round-trip float) holds a delimiter or a quote, so none is quoted.
    """
    grid = fld.grid
    rows = [",".join(_snapshot_header(grid))]
    values = fld.values.ravel().tolist()
    rows += [f"{prefix},{value!r}" for prefix, value in zip(grid._snapshot_prefixes, values)]
    atomic_write_text(path, "\n".join(rows) + "\n")


def read_field_csv(path, grid: Grid) -> ScalarField:
    """Read a snapshot written by write_field_csv back onto the same grid.

    ValueError unless it has the grid's header and one full row per node, at
    that node's coordinates (written round-trip, so compared exactly).
    """
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    header = _snapshot_header(grid)
    if not rows or rows[0] != header:
        raise ValueError(f"snapshot header mismatch: expected {header}")
    values, seen = np.zeros(grid.shape), np.zeros(grid.shape, dtype=bool)
    if len(rows) - 1 != values.size:
        raise ValueError(f"snapshot has {len(rows) - 1} rows, grid needs {values.size}")
    axes = [grid.axis_nodes(a) for a in range(grid.dim)]
    for line, row in enumerate(rows[1:], start=2):
        where, node = f"snapshot line {line}", row[: grid.dim]
        if len(row) != len(header):
            raise ValueError(f"{where}: {len(row)} fields, expected {len(header)}")
        try:
            index, value = tuple(int(i) - 1 for i in node), float(row[-1])
            coords = [float(x) for x in row[grid.dim : -1]]
        except ValueError:
            raise ValueError(f"{where}: malformed row {row}") from None
        if not all(0 <= i < n for i, n in zip(index, grid.shape)):
            raise ValueError(f"{where}: node {node} outside the grid {grid.shape}")
        if coords != [x[i] for x, i in zip(axes, index)]:
            raise ValueError(f"{where}: node {node} of this grid is not at {row[grid.dim : -1]}")
        if seen[index]:
            raise ValueError(f"{where}: node {node} repeated")
        seen[index] = True
        values[index] = value
    return ScalarField(grid, values)
