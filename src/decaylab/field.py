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
face mobility, the nodal |grad u|, the divergence and the IMEX matrix with
in-place ufuncs, each over one contiguous range of that flat index space and
into its own 64-byte-aligned arrays, so a time stepper that keeps one kernel
for a run allocates only the new state per step.  The centred difference of
each axis is formed once per state, times 1/(4h), and serves both the
tangential term on the other axes' faces and the nodal |grad u|.  The kernel
multiplies by 1/h and 1/(4h) where the formulas divide, and takes the mobility
power as exp(e log(.)) outside POW_FREE: cheaper than the division and pow,
within the bounds of them that tests/test_kernel.py pins.  In 2D the ranges
cross the border columns; those lanes are computed and never read, and every
result is a strided view of the real faces or nodes.  The public functions
below use a kernel of their own.
"""

from __future__ import annotations

import csv
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .fileio import _typed, atomic_write_text, fmt_float


@dataclass(frozen=True)
class Grid:
    """Uniform tensor grid on a box, interior nodes only; the one place limited to 1D or 2D."""

    shape: tuple
    lengths: tuple

    def __post_init__(self):
        shape = tuple(_typed(n, "int", "shape") for n in self.shape)
        lengths = tuple(_typed(l, "float", "lengths") for l in self.lengths)
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
POW_FREE = frozenset((0.5, 1.0, 1.5, 2.0, 3.0, 4.0))


def _power(x: np.ndarray, e: float, out: Optional[np.ndarray] = None) -> np.ndarray:
    """x ** e, into out if given (out may be x): the powers of the source and the norms.

    An e in POW_FREE, by exact equality, skips pow: e = 0.5 and 2 take the
    sqrt and square that numpy's ** uses, e = 1 copies x, e = 1.5 is
    sqrt(x)*x, e = 3 is (x*x)*x and e = 4 is (x*x)*(x*x).  Those are x ** e
    bit for bit for e = 0.5, 1 and 2; for e = 1.5, 3 and 4 each factor and
    product is rounded once, so a result may differ from pow's by an ulp, at
    about a third to a quarter of pow's cost.  With out given and not x,
    none of them allocates.  Every other e, 3.0000000000000013 included,
    goes to np.power, whose bases here (|grad u| and |u|) hold exact zeros.
    FluxKernel.mobility takes its own power outside POW_FREE.
    """
    if e == 0.5:
        return np.sqrt(x, out=out)
    if e == 1.0:
        return np.positive(x, out=out)
    if e == 2.0:
        return np.square(x, out=out)
    if e in (1.5, 3.0):  # sqrt(x) * x or (x*x) * x: the first factor goes to out unless out is x
        first = (np.sqrt if e == 1.5 else np.square)(x, out=None if out is x else out)
        return np.multiply(first, x, out=first if out is None else out)
    if e == 4.0:
        square = np.square(x, out=out)
        return np.square(square, out=square)
    return np.power(x, e, out=out)


class FluxKernel:
    """The regularized flux operator of one grid, evaluated in preallocated arrays.

    The state lives in one flat padded buffer: the interior nodes with a
    border of Dirichlet zeros, (n0+2)(n1+2) doubles in C order (n+2 in 1D).
    A face normal to an axis is indexed there by the node below it, and a
    node's neighbours sit at fixed offsets, +-stride along each axis.  So the
    scaled centred difference d_a = (u(n + stride_a) - u(n - stride_a)) * (1/4h_a)
    of every stored node is two ufuncs per axis, the faces of an axis form
    one contiguous index range, from its first real face to its last, and
    the nodes one range from the first real node to the last.  Each face
    quantity (gradient, squared magnitude, mobility, and the tangential term
    and then the flux) is one array holding every axis's face range, one
    after another.  A step that is the same on every axis (a square, a sum,
    the mobility power, the flux) is one ufunc over that whole array; a step
    that differs per axis (a difference, a product with 1/h) is one ufunc over
    each axis's range, and each node quantity (|grad u|, divergence) is one
    ufunc per step over the node range.  Every real face and node gets the
    floating-point operations, in the order, of the per-axis formulas, with
    a product by 1/h or 1/(4h), kept per axis, for each division by h or 4h.

    In 2D those ranges also cross the border columns.  Their lanes are
    computed but never read: a border face lies between two zero nodes, so
    its gradient is zero and, with eps_reg = 0 and p < 2, its mobility is
    infinite and its flux NaN.  The few lanes between two axes' face ranges
    are computed likewise.  Every returned array sees only the real faces
    and nodes, through strided views of face or grid shape.  The maxima and
    the finiteness check first write 0 into the lanes that are no real face
    or node (mobilities and magnitudes are >= 0, so a 0 never wins a
    maximum) and then reduce the whole contiguous array.

    Every buffer is carved from one slab per kernel and starts on a
    64-byte boundary, and so does each axis's face range, so the
    contiguous passes run on aligned output whatever the process allocated
    before.

    load(values) copies a state into the padded buffer and forms, per axis,
    d_a on the nodes, and the normal gradient and the squared full gradient
    on that axis's faces, whose tangential term along another axis b is the
    sum of d_b over the face's two nodes; mobility(), nodal_magnitude() and
    divergence() read them, and implicit_matrix() reads the last mobility.
    Every result is a view of the kernel's own arrays and the next call
    that computes it overwrites it, so a caller that keeps a result copies
    it.  node_range() hands a caller the contiguous node arrays behind
    nodal_magnitude() and divergence(), to compute on as the kernel does.
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        self._inverse = [1.0 / h for h in grid.spacing]  # 1/h per axis
        dim, shape = grid.dim, grid.shape
        padded = tuple(n + 2 for n in shape)
        size = math.prod(padded)
        strides = [math.prod(padded[a + 1:]) for a in range(dim)]
        faces = [tuple(n + (a == axis) for a, n in enumerate(shape)) for axis in range(dim)]
        # the flat index ranges, from the first real face or node to the last
        first_face = [sum(strides) - s for s in strides]
        face_len = [sum((n - 1) * s for n, s in zip(f, strides)) + 1 for f in faces]
        first_node = sum(strides)
        node_len = sum((n - 1) * s for n, s in zip(shape, strides)) + 1

        # where each axis's face range starts in a face array: on a 64-byte boundary
        offsets = [0]
        for n in face_len[:-1]:
            offsets.append(offsets[-1] + -(-n // _LANES) * _LANES)
        face_total = offsets[-1] + face_len[-1]

        self._buffers = _aligned_buffers(
            [size] + [face_total] * 4 + [size - 2 * s for s in strides] + [node_len] * 3
        )
        state, scaled = self._buffers[0], self._buffers[5 : 5 + dim]
        self._nodal, self._div, self._node_work = self._buffers[-3:]
        state.fill(0.0)  # the Dirichlet border
        self._interior = state.reshape(padded)[(slice(1, -1),) * dim]
        # grad, mag2, mob and a work array (tangential term, flux, scaled mobility),
        # and each axis's range of grad, mob and the work array
        self._face_arrays = self._buffers[1:5]
        for array in self._face_arrays:
            array.fill(0.0)  # the lanes between two axes' ranges start finite
        grad, _, mob, work = self._face_arrays
        self._grad, self._mob, self._face_work = (
            [array[o : o + n] for o, n in zip(offsets, face_len)] for array in (grad, mob, work)
        )
        # the real faces and nodes: views with the padded state's strides
        byte_strides = tuple(8 * s for s in strides)
        self._grad_faces = [np.ndarray(f, buffer=g, strides=byte_strides) for g, f in zip(self._grad, faces)]
        self._mob_faces = [np.ndarray(f, buffer=m, strides=byte_strides) for m, f in zip(self._mob, faces)]
        self._nodal_nodes = np.ndarray(shape, buffer=self._nodal, strides=byte_strides)
        self._div_nodes = np.ndarray(shape, buffer=self._div, strides=byte_strides)

        def border_lanes(length: int, ranges) -> np.ndarray:
            """The indices of the lanes that are no real face or node, given each
            range as (its first lane, the shape of its real faces or nodes)."""
            lanes = np.ones(length, dtype=bool)
            for first, real in ranges:
                np.ndarray(real, dtype=bool, buffer=lanes[first:], strides=tuple(strides))[...] = False
            return np.flatnonzero(lanes)

        self._face_border = border_lanes(face_total, zip(offsets, faces))
        self._node_border = border_lanes(node_len, [(0, shape)])
        self._finite = np.empty(node_len, dtype=bool)

        # per axis, the scaled centred difference d[k] = (u[n + s] - u[n - s]) * (1/4h)
        # of node n = k + s: every node whose two neighbours along the axis are stored
        self._differences = [
            (state[2 * s :], state[: size - 2 * s], d, 1.0 / (4.0 * h))
            for d, s, h in zip(scaled, strides, grid.spacing)
        ]

        def shifted(axis: int, offset: int) -> np.ndarray:
            """The state over axis's face range, offset entries on."""
            start = first_face[axis] + offset
            return state[start : start + face_len[axis]]

        def scaled_at(other: int, axis: int, offset: int) -> np.ndarray:
            """other's d over axis's face range, offset entries on."""
            start = first_face[axis] + offset - strides[other]
            return scaled[other][start : start + face_len[axis]]

        # per axis: the nodes above and below each face, and per other axis
        # its d at those two nodes
        self._stencils = [
            (shifted(axis, s), shifted(axis, 0), [
                (scaled_at(other, axis, 0), scaled_at(other, axis, s))
                for other in range(dim) if other != axis
            ])
            for axis, s in enumerate(strides)
        ]
        # per axis, d at the nodes
        self._scaled_nodes = [d[first_node - s : first_node - s + node_len] for d, s in zip(scaled, strides)]
        # per axis, the faces above and below each node: the lower face of the
        # first node is the axis's first face
        self._flux_halves = [(f[s : s + node_len], f[:node_len]) for f, s in zip(self._face_work, strides)]

    def load(self, values: np.ndarray) -> None:
        """Face components of a state: grad = (u+ - u-) * (1/h), mag2 = grad^2 + tangential^2.

        The tangential term of a face along another axis b is
        d_b(below) + d_b(above), with d_b = (u(x + h_b) - u(x - h_b)) * (1/4h_b)
        at the two nodes x beside the face: the average of their centred
        differences over 2h_b.  Each d_b is formed once per state, with its
        one product, and nodal_magnitude() reuses it.
        """
        self._interior[...] = values
        for hi, lo, d, inverse in self._differences:
            np.subtract(hi, lo, out=d)
            np.multiply(d, inverse, out=d)
        for (hi, lo, _), g, inverse in zip(self._stencils, self._grad, self._inverse):
            np.subtract(hi, lo, out=g)
            np.multiply(g, inverse, out=g)
        grad, mag2, _, tan = self._face_arrays
        np.multiply(grad, grad, out=mag2)
        for k in range(self.grid.dim - 1):  # the k-th other axis of every axis
            for (_, _, tangents), t in zip(self._stencils, self._face_work):
                np.add(*tangents[k], out=t)
            np.multiply(tan, tan, out=tan)
            np.add(mag2, tan, out=mag2)

    def mobility(self, coeff: CoefficientField, p: float, eps_reg: float, t: float) -> list:
        """Per axis: A(t) (eps^2 + |grad u|^2)^((p-2)/2) on that axis's faces; eps_reg must be >= 0.

        The power x^e is _power's for e in POW_FREE, else exp(e log x): within
        (|e log x| + 2) eps of pow, relative, at three quarters of its cost,
        and pow's 0 or inf, without a warning, for x = 0 or inf or an overflow.
        """
        if not eps_reg >= 0.0:  # NaN fails it too
            raise ValueError(f"eps_reg must be >= 0, got {eps_reg}")
        _, mag2, mob, _ = self._face_arrays
        e = (p - 2.0) / 2.0
        with np.errstate(divide="ignore", over="ignore"):
            if p == 2.0:
                mob.fill(1.0)
            else:
                np.add(mag2, eps_reg * eps_reg, out=mob)
                if e in POW_FREE:
                    _power(mob, e, out=mob)
                else:
                    np.log(mob, out=mob)
                    np.multiply(mob, e, out=mob)
                    np.exp(mob, out=mob)
        if coeff.kind != "identity":
            for axis, faces in enumerate(self._mob_faces):
                np.multiply(coeff.face_values(self.grid, axis, t), faces, out=faces)
        return self._mob_faces

    def max_mobility(self) -> float:
        """The largest face mobility of the last mobility() call."""
        _, _, mob, _ = self._face_arrays
        mob[self._face_border] = 0.0
        return float(np.maximum.reduce(mob))

    def nodal_magnitude(self) -> np.ndarray:
        """Nodal |grad u| = 2 sqrt(sum over axes of d_a^2), d_a from load().

        That is sqrt(sum of (c_a * (1/2h_a))^2) for the centred differences
        c_a, bit for bit: 1/4h_a is half of 1/2h_a exactly, so 2 d_a is
        c_a * (1/2h_a) exactly, and scaling by 2 commutes with the rounding
        of the squares, their sum and the root (short of underflow and
        overflow).
        """
        out = self._nodal
        for axis, d in enumerate(self._scaled_nodes):
            part = out if axis == 0 else self._node_work
            np.multiply(d, d, out=part)
            if axis > 0:
                np.add(out, part, out=out)
        np.sqrt(out, out=out)
        np.multiply(out, 2.0, out=out)
        return self._nodal_nodes

    def max_nodal_magnitude(self) -> float:
        """The largest nodal |grad u| of the last nodal_magnitude() call."""
        self._nodal[self._node_border] = 0.0
        return float(np.maximum.reduce(self._nodal))

    def divergence(self) -> np.ndarray:
        """Conservative divergence of the face fluxes mobility * normal gradient."""
        grad, _, mob, flux = self._face_arrays
        div = self._div
        # 0 * inf on a degenerate face, or an overflow: the check below names both
        with np.errstate(invalid="ignore", over="ignore"):
            np.multiply(mob, grad, out=flux)
            for axis, (hi, lo) in enumerate(self._flux_halves):
                part = div if axis == 0 else self._node_work
                np.subtract(hi, lo, out=part)
                np.multiply(part, self._inverse[axis], out=part)
                if axis > 0:
                    np.add(div, part, out=div)
        div[self._node_border] = 0.0
        if not np.logical_and.reduce(np.isfinite(div, out=self._finite)):
            raise ValueError(
                "non-finite flux divergence: a degenerate zero-gradient face with "
                "eps_reg = 0 and p < 2 (pass eps_reg > 0), or a face flux that overflows"
            )
        return self._div_nodes

    def newton_mobility(self, p: float, eps_reg: float) -> None:
        """Turn the last mobility() into the flux's face-normal derivative; after divergence().

        d(m g)/dg = m (1 + (p - 2) g^2 / (eps^2 + |grad u|^2)) for the face's
        normal gradient g, formed as m + (p - 2) (flux g) / (eps^2 + mag2)
        from the flux divergence() left in the work array.  A zero
        denominator is raised to the least subnormal, so such a face keeps
        m = 0 (at p > 2; at p < 2 its infinite mobility failed divergence()).
        For p > 1 the result is at least (p - 1) m, so implicit_matrix() of it
        stays symmetric positive definite.  At p = 2 it is m, left as it is.
        Overwrites mag2 and the flux.
        """
        if p == 2.0:
            return
        grad, mag2, mob, flux = self._face_arrays
        with np.errstate(invalid="ignore", over="ignore"):  # the NaN or inf of a border lane
            np.add(mag2, eps_reg * eps_reg, out=mag2)
            np.maximum(mag2, _SUBNORMAL, out=mag2)
            np.multiply(flux, grad, out=flux)
            np.divide(flux, mag2, out=flux)
            np.multiply(flux, p - 2.0, out=flux)
            np.add(mob, flux, out=mob)

    def node_range(self) -> tuple:
        """(|grad u|, divergence, work, work's real nodes) over the contiguous node range.

        The first two hold the last nodal_magnitude() and divergence() (border
        lanes zeroed by max_nodal_magnitude() and divergence()); work is the
        caller's until the next nodal_magnitude(), divergence() or implicit_matrix().
        """
        work = self._node_work
        return self._nodal, self._div, work, np.ndarray(self.grid.shape, buffer=work, strides=self._div_nodes.strides)

    def implicit_matrix(self, dt: float) -> tuple:
        """evolve._ImplicitStencil's (diag, upper, means) at dt for the last mobility() or
        newton_mobility(); overwrites the flux."""
        shape, diag, node_strides = self.grid.shape, self._node_work, self._div_nodes.strides
        upper, means = [], []
        for axis, h in enumerate(self.grid.spacing):  # dt mob / h^2 over the axis's faces, into the work array
            scale = dt / (h * h)
            np.multiply(self._mob[axis], scale, out=self._face_work[axis])
            means.append(float(self._mob_faces[axis].mean()) * scale)
            hi, lo = self._flux_halves[axis]
            np.add(diag if axis else 1.0, lo, out=diag)  # 1 + lower + upper face, axis by axis
            np.add(diag, hi, out=diag)
            coupling = -np.ndarray(shape, buffer=hi, strides=node_strides)  # the face above each node
            coupling.swapaxes(0, axis)[-1] = 0.0  # a node that ends its line couples to none
            stride = coupling.strides[axis] // coupling.itemsize
            upper.insert(0, (stride, coupling.ravel()[: coupling.size - stride]))
        return np.ndarray(shape, buffer=diag, strides=node_strides).flatten(), tuple(upper), tuple(means)


_ALIGN = 64  # bytes: a cache line, and the widest SIMD register
_LANES = _ALIGN // 8  # doubles per _ALIGN bytes
_SUBNORMAL = 5e-324  # the least positive double


def _aligned_buffers(sizes: list) -> list:
    """Uninitialized float64 arrays of the given sizes from one slab, each on a 64-byte boundary."""
    lines = [-(-n // _LANES) * _LANES for n in sizes]
    slab = np.empty(sum(lines) + _LANES)
    start = -slab.__array_interface__["data"][0] % _ALIGN // 8
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
    """(eps^2 + |grad u|^2)^((p-2)/2) on the faces of each axis (no coefficient);
    inf, without a warning, on a face where the power overflows."""
    return _loaded(fld).mobility(CoefficientField(), p, eps_reg, 0.0)


def p_flux_divergence(
    fld: ScalarField,
    coeff: CoefficientField,
    p: float,
    eps_reg: float,
    t: float = 0.0,
) -> ScalarField:
    """Conservative divergence of A(t,x) (eps^2 + |grad u|^2)^((p-2)/2) grad u.

    A non-finite flux is rejected with a ValueError that names its two causes:
    for p < 2 a zero-gradient face with eps_reg = 0 is degenerate (infinite
    mobility), which eps_reg > 0 mends, and for large p and |grad u| a finite
    mobility times the gradient can overflow.
    """
    kernel = _loaded(fld)
    kernel.mobility(coeff, p, eps_reg, t)
    return ScalarField(fld.grid, kernel.divergence())


def gradient_magnitude(fld: ScalarField) -> ScalarField:
    """Nodal |grad u|: per axis the centred difference (u(x + h) - u(x - h)) / 2h."""
    return ScalarField(fld.grid, _loaded(fld).nodal_magnitude())


def _snapshot_file(t: float) -> str:
    """The file name of the snapshot at time t."""
    return f"snapshot_t{t:g}.csv"


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
