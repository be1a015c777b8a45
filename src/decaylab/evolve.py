"""Initial data, explicit/IMEX time steppers and the adaptive simulation loop.

_ExplicitStepper, which also serves stable_dt and step_explicit, uses a
diffusive CFL bound on the face mobility m (coefficient times regularized
diffusivity), scaled by the flux's own stiffness kappa(p) = max(1, p - 1),
plus a source cap keeping each source increment below a tenth of the current
sup norm.  The flux Jacobian m (I + (p - 2) theta n n^T), theta in [0, 1),
has its largest eigenvalue at most kappa(p) m, and the step
dt = CFL_SAFETY h_min^2 / (2 dim kappa(p) max m) keeps dt sum_f m_f / h_f^2 at
or below CFL_SAFETY / kappa(p) <= 0.8 at every node.  A step with that sum at
most 1 sets each node, at gamma = 0, to a convex combination of its own value
and its neighbours' values, so it makes no new extrema.  _ImexStepper runs
step_imex, which treats diffusion implicitly (lagged diffusivity fixed point)
and the gradient source explicitly.  spsolve solves each sweep's matrix, which
FluxKernel.implicit_matrix assembles, by conjugate gradients preconditioned
with the same matrix at each axis's mean face coupling, which the sine modes
that _ImexStepper builds once for its grid diagonalize (Concus & Golub's fast
Poisson preconditioner, SINUM 10, 1973; step_imex gets the modes, and the
run's one FluxKernel, as its stepper).  Every sweep stops CG at
IMEX_CG_FORCING times the nonlinear residual of the iterate it starts from
(an inexact fixed point, after Eisenstat & Walker's forcing terms): the next
sweep re-linearizes and discards any accuracy beyond it, and the step is
accepted only once its own residual meets the tolerance.  A step's first
iterate extrapolates the last accepted step,
u_n + (dt/dt_prev)(u_n - u_{n-1}), which _ImexStepper also holds.  Each
stepper's advance(u, t, dt_max) returns the new state and the dt it took;
run() passes the time left to the next sample and lands on it exactly when
the step took all of that time.
run() records each sample's row of Scenario.columns, and the state at each
snapshot time, an early stop's included; it stops on overflow (sup past 1e12)
or on an optional extinction floor, and returns in RunResult.metadata the
`run` block of metadata.json, less the RunResult fields and sample count.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from .field import (
    CoefficientField, FluxKernel, Grid, ScalarField, _aligned_buffers, _power, _snapshot_file, read_field_csv
)
from .fileio import _number_fields, _typed
from .metrics import NormSeries, _power_sum, lr_norm, truncate_excess
from .regime import ProblemParams, classify

DEFAULT_EPS_DEGENERATE = 1e-8  # p >= 2
DEFAULT_EPS_SINGULAR = 1e-4  # p < 2
OVERFLOW_SENTINEL = 1e12
CFL_SAFETY = 0.8  # of the monotone budget dt sum_f m_f / h_f^2 <= 1
SOURCE_CAP_FRACTION = 0.1
U_FLOOR = 1e-12
IMEX_MAX_ITER = 200
IMEX_MAX_HALVINGS = 20
IMEX_RTOL = 1e-10
IMEX_CG_MAX_ITER = 100  # a fail-safe: a sweep whose CG needs more iterations fails its step
IMEX_CG_FORCING = 0.1  # each sweep's CG stops at this fraction of its starting iterate's residual
MAX_SAMPLE_TARGETS = 200000


class OverflowDetected(RuntimeError):
    """Sup norm crossed the blow-up sentinel (or stopped being finite)."""

    def __init__(self, time: float, sup: float):
        super().__init__(f"overflow at t={time}: sup={sup}")
        self.time = time
        self.sup = sup


class NonConvergenceError(RuntimeError):
    """A step failed: the implicit solve did not converge or the step size collapsed."""


class _DatumFailure(NonConvergenceError):
    """An IMEX step failed on its datum's own flux divergence, which no dt changes."""


INITIAL_KINDS = ("zero", "eigenfunction", "bump", "power_spike", "random_positive", "file")


@dataclass(frozen=True)
class InitialSpec:
    """Declarative initial datum.

    kind "zero": identically zero.
    kind "eigenfunction": amplitude * prod sin(pi x / L) (first Dirichlet mode).
    kind "bump" (the default): smooth compactly supported bump, normalized so
        the sampled max equals amplitude; center/radius default to the domain middle.
    kind "power_spike": amplitude * min(cap, |x - center|^(-decay_exponent)),
        with decay_exponent required to lie in (dim/nu_prime, dim/nu) so the
        datum is summable to order nu but not nu_prime (nu_prime > nu).
    kind "random_positive": amplitude * random.Random(seed).random() per node in C
        order, iid uniform on [0, amplitude); Python keeps this stream across versions.
    kind "file": snapshot CSV from path.
    """

    kind: str = "bump"
    amplitude: float = 1.0
    center: Optional[tuple] = None
    decay_exponent: Optional[float] = None
    cap: float = 1e6
    nu: Optional[float] = None
    nu_prime: Optional[float] = None
    radius: Optional[float] = None
    path: Optional[str] = None

    def __post_init__(self):
        _number_fields(self)
        if self.center is not None:
            object.__setattr__(self, "center", tuple(_typed(c, "float", "center") for c in self.center))
        if self.kind not in INITIAL_KINDS:
            raise ValueError(f"unknown initial kind {self.kind!r}; have {INITIAL_KINDS}")
        if not 0.0 <= self.amplitude < math.inf:
            raise ValueError(f"amplitude must be finite and >= 0, got {self.amplitude}")
        # a NaN center or radius puts no node inside the bump: a zero datum
        for name in ("center", "radius", "cap", "decay_exponent", "nu", "nu_prime"):
            if getattr(self, name) is not None and not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")


def make_initial(
    spec: InitialSpec, grid: Grid, params: Optional[ProblemParams] = None, seed: int = 0
) -> ScalarField:
    """Realize an InitialSpec on a grid (deterministic given the seed, an integer >= 0)."""
    seed = _typed(seed, "int", "seed")
    if seed < 0:  # random.Random seeds with abs(seed): -5 would draw the datum of 5
        raise ValueError(f"seed must be >= 0, got {seed}")
    mesh = grid.node_mesh()
    center = spec.center
    if center is None:
        center = tuple(l / 2.0 for l in grid.lengths)
    if len(center) != grid.dim:
        raise ValueError(f"center {center} does not match grid dim {grid.dim}")

    if spec.kind == "zero":
        values = np.zeros(grid.shape)
    elif spec.kind == "eigenfunction":
        values = spec.amplitude * np.ones(grid.shape)
        for axis in range(grid.dim):
            values = values * np.sin(math.pi * mesh[axis] / grid.lengths[axis])
    elif spec.kind == "bump":
        radius = spec.radius if spec.radius is not None else 0.45 * min(grid.lengths)
        if radius <= 0.0:
            raise ValueError("bump radius must be > 0")
        rho2 = np.zeros(grid.shape)
        for axis in range(grid.dim):
            rho2 += ((mesh[axis] - center[axis]) / radius) ** 2
        with np.errstate(divide="ignore", over="ignore"):
            values = np.where(rho2 < 1.0, np.exp(1.0 - 1.0 / np.maximum(1.0 - rho2, 1e-300)), 0.0)
        top = float(values.max())
        if top > 0.0:
            values *= spec.amplitude / top
    elif spec.kind == "power_spike":
        a = spec.decay_exponent
        if a is None or spec.nu is None or spec.nu_prime is None:
            raise ValueError("power_spike needs decay_exponent, nu and nu_prime")
        if not spec.nu_prime > spec.nu > 0.0:
            raise ValueError("power_spike needs nu_prime > nu > 0")
        lo, hi = grid.dim / spec.nu_prime, grid.dim / spec.nu
        if not lo < a < hi:
            raise ValueError(
                f"decay_exponent {a} outside the integrability window ({lo}, {hi}) "
                f"for nu={spec.nu}, nu_prime={spec.nu_prime} in dim {grid.dim}"
            )
        if spec.cap <= 0.0:
            raise ValueError("power_spike cap must be > 0")
        r2 = np.zeros(grid.shape)
        for axis in range(grid.dim):
            r2 += (mesh[axis] - center[axis]) ** 2
        with np.errstate(divide="ignore"):
            values = spec.amplitude * np.minimum(spec.cap, r2 ** (-a / 2.0))
    elif spec.kind == "random_positive":
        draw = random.Random(seed).random
        uniforms = np.array([draw() for _ in range(math.prod(grid.shape))])
        values = spec.amplitude * uniforms.reshape(grid.shape)
    else:  # file
        if spec.path is None:
            raise ValueError("file initial needs a path")
        return read_field_csv(spec.path, grid)
    return ScalarField(grid, values)


@dataclass
class Scenario:
    """Everything a run needs; serializes to a flat record."""

    params: ProblemParams
    grid: Grid
    initial: InitialSpec
    t_end: float
    dt_init: float = 1e-4
    stepper: str = "explicit"
    coefficient: CoefficientField = dc_field(default_factory=CoefficientField)
    eps_reg: Optional[float] = None
    snapshot_times: tuple = ()
    k_levels: tuple = ()
    r_list: tuple = ()
    sigma: Optional[float] = None
    seed: int = 0
    sample_start: Optional[float] = None
    sample_ratio: float = 1.05
    stop_linf_atol: float = 0.0

    def __post_init__(self):
        _number_fields(self)
        # every test is written so that NaN fails it; math.inf in r_list is the sup norm
        if not 0.0 <= self.t_end < math.inf:
            raise ValueError(f"t_end must be finite and >= 0, got {self.t_end}")
        if not 0.0 < self.dt_init < math.inf:
            raise ValueError(f"dt_init must be finite and > 0, got {self.dt_init}")
        if self.stepper not in ("explicit", "imex"):
            raise ValueError(f"unknown stepper {self.stepper!r}")
        if self.sample_start is not None and not 0.0 < self.sample_start < math.inf:
            raise ValueError(f"sample_start must be finite and > 0, got {self.sample_start}")
        if not 1.0 < self.sample_ratio < math.inf:
            raise ValueError(f"sample_ratio must be finite and > 1, got {self.sample_ratio}")
        self.snapshot_times = tuple(sorted({_typed(s, "float", "snapshot_times") for s in self.snapshot_times}))
        if not all(0.0 <= s <= self.t_end for s in self.snapshot_times):
            raise ValueError(f"snapshot_times must lie in [0, t_end], got {self.snapshot_times}")
        self.k_levels = tuple(sorted({_typed(k, "float", "k_levels") for k in self.k_levels}))
        if not all(0.0 <= k < math.inf for k in self.k_levels):
            raise ValueError(f"k_levels must be finite and >= 0, got {self.k_levels}")
        self.r_list = tuple(sorted({_typed(r, "float", "r_list") for r in self.r_list}))
        if not all(1.0 <= r <= math.inf for r in self.r_list):
            raise ValueError(f"r_list orders must be >= 1 (inf for the sup norm), got {self.r_list}")
        if not 0.0 <= self.stop_linf_atol < math.inf:
            raise ValueError(f"stop_linf_atol must be finite and >= 0, got {self.stop_linf_atol}")
        if self.eps_reg is not None and not 0.0 <= self.eps_reg < math.inf:
            raise ValueError(f"eps_reg must be finite and >= 0, got {self.eps_reg}")
        if self.sigma is not None and not 1.0 <= self.sigma < math.inf:
            raise ValueError(f"sigma must be finite and >= 1, got {self.sigma}")
        if self.seed < 0:  # random.Random seeds with abs(seed): -5 would draw the datum of 5
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        # two values with one label would share a series column or a snapshot
        # file; the order 1 is always recorded, as l1
        for key, what, labelled in (
            ("r_list", "column label", [(1.0, "l1")] + [(r, f"l{r:g}") for r in self.norm_orders]),
            ("k_levels", "column label", [(k, f"gk{k:g}") for k in self.k_levels]),
            ("snapshot_times", "file name", [(s, _snapshot_file(s)) for s in self.snapshot_times]),
        ):
            seen = {}
            for value, label in labelled:
                if label in seen:
                    raise ValueError(f"{key} values {seen[label]!r} and {value!r} share the {what} {label!r}")
                seen[label] = value

    @property
    def eps_resolved(self) -> float:
        if self.eps_reg is not None:
            return self.eps_reg
        return DEFAULT_EPS_DEGENERATE if self.params.p >= 2.0 else DEFAULT_EPS_SINGULAR

    @property
    def sigma_resolved(self) -> float:
        """Summability exponent used for truncation-norm columns."""
        if self.sigma is not None:
            return self.sigma
        sigma = classify(self.params).data_sigma
        return 2.0 if sigma is None else float(sigma)

    @property
    def norm_orders(self) -> tuple:
        """The orders r of r_list that get their own L^r column (1 and inf are l1 and linf)."""
        return tuple(r for r in self.r_list if r != 1.0 and math.isfinite(r))

    @property
    def columns(self) -> tuple:
        """The labels of the series columns run() records, in order."""
        labels = ["linf", "l1"] + [f"l{r:g}" for r in self.norm_orders]
        for k in self.k_levels:
            labels += [f"gk{k:g}_lsigma", f"gk{k:g}_l1"]
        return tuple(labels)

    @property
    def dim_mismatch(self) -> bool:
        return self.grid.dim != self.params.dim_n


@dataclass
class RunResult:
    series: NormSeries
    snapshots: list
    extinction_time: Optional[float]
    blow_up_time: Optional[float]
    steps_accepted: int
    steps_rejected: int
    metadata: dict


class _ExplicitStepper:
    """Forward Euler steps of one problem on one grid, in one FluxKernel's arrays.

    prepare(values, t) loads a state and returns its stable dt: the diffusive
    CFL bound CFL_SAFETY h_min^2 / (2 dim kappa(p) max A(t) D) on the face
    mobility A(t) D, with kappa(p) = max(1, p - 1), capped so that the source
    adds at most a tenth of the sup norm in one step.  At gamma = 0 the step
    is a convex combination of each node and its neighbours.  update(dt) then
    returns the stepped state, a new array, and its sup norm, forming
    dt * rhs over the kernel's contiguous node range.  advance(u, t, dt_max)
    is one step of run(): at the stable dt, or dt_max when that is smaller,
    returning the new state and the dt it took.  The state advance returned
    last comes back as the next u, so the sup norm its overflow check took is
    that state's source-cap sup.
    """

    rejected = 0

    def __init__(self, grid: Grid, params: ProblemParams, coeff: CoefficientField, eps_reg: float):
        self.kernel = FluxKernel(grid)
        self.params, self.coeff, self.eps_reg = params, coeff, eps_reg
        h_min = min(grid.spacing)
        kappa = max(1.0, params.p - 1.0)  # the flux Jacobian's largest eigenvalue over the mobility
        self._cfl = (CFL_SAFETY * h_min * h_min, 2.0 * grid.dim * kappa)
        self._node_range = self.kernel.node_range()
        self._abs = _aligned_buffers([math.prod(grid.shape)])[0].reshape(grid.shape)
        self._values, self._t = None, 0.0
        self._last = (None, None)

    def prepare(self, values: np.ndarray, t: float, sup: Optional[float] = None) -> float:
        """Stable dt of values at t; sup, when given, is their sup norm."""
        params, kernel = self.params, self.kernel
        kernel.load(values)
        kernel.mobility(self.coeff, params.p, self.eps_reg, t)
        self._values, self._t = values, t
        max_m = kernel.max_mobility()
        if max_m > 0.0:
            numerator, denominator = self._cfl
            stable = numerator / (denominator * max_m)
        else:
            stable = float("inf")
        if params.gamma > 0.0:
            kernel.nodal_magnitude()
            source_max = params.gamma * kernel.max_nodal_magnitude() ** params.q
            if source_max > 0.0:
                if sup is None:
                    sup = float(np.max(np.abs(values, out=self._abs), initial=0.0))
                stable = min(stable, SOURCE_CAP_FRACTION * max(sup, U_FLOOR) / source_max)
        return stable

    def update(self, dt: float) -> tuple:
        """(values + dt * rhs, its sup norm); OverflowDetected past the sentinel."""
        params = self.params
        grad_mag, rhs, work, work_nodes = self._node_range
        self.kernel.divergence()
        if params.gamma > 0.0:
            source = _power(grad_mag, params.q, out=work)
            np.multiply(source, params.gamma, out=source)
            rhs = np.add(rhs, source, out=work)
        np.multiply(rhs, dt, out=work)
        # the new state; values + work_nodes would also buffer the strided view
        new = work_nodes.copy()
        np.add(self._values, new, out=new)
        return new, _check_overflow(new, self._t + dt, work=self._abs)

    def advance(self, u, t, dt_max):
        last, sup = self._last
        stable = self.prepare(u, t, sup if u is last else None)
        dt = _step_size(t, min(stable, dt_max))
        self._last = self.update(dt)
        return self._last[0], dt


def _check_overflow(values: np.ndarray, t: float, work: Optional[np.ndarray] = None) -> float:
    """The sup norm of values; OverflowDetected past the sentinel or when not finite."""
    sup = float(np.maximum.reduce(np.abs(values, out=work), axis=None, initial=0.0))  # NaN propagates
    if not math.isfinite(sup) or sup > OVERFLOW_SENTINEL:
        raise OverflowDetected(t, sup)
    return sup


def stable_dt(
    fld: ScalarField,
    params: ProblemParams,
    coeff: CoefficientField = CoefficientField(),
    eps_reg: float = 0.0,
    t: float = 0.0,
) -> float:
    """Explicit step bound: CFL_SAFETY h_min^2 / (2 dim kappa(p) max A(t) D), kappa(p) = max(1, p - 1),
    plus a source cap; 0.0 where A(t) D overflows to inf, which run() reports as a collapsed step.

    At gamma = 0 a step of this dt sets each node to a convex combination of
    its own value and its neighbours', so it makes no new extrema."""
    return _ExplicitStepper(fld.grid, params, coeff, eps_reg).prepare(fld.values, t)


def step_explicit(
    fld: ScalarField,
    dt: float,
    params: ProblemParams,
    coeff: CoefficientField = CoefficientField(),
    eps_reg: float = 0.0,
    t: float = 0.0,
) -> ScalarField:
    """Forward Euler step; raises OverflowDetected past the blow-up sentinel."""
    if dt <= 0.0:
        raise ValueError("dt must be > 0")
    step = _ExplicitStepper(fld.grid, params, coeff, eps_reg)
    step.prepare(fld.values, t)
    return ScalarField(fld.grid, step.update(dt)[0])


@dataclass(frozen=True)
class _ImplicitStencil:
    """FluxKernel.implicit_matrix's v -> v - dt * div(D grad v), Dirichlet zeros, nodes in C order.

    ``upper`` pairs each axis's C-order stride, in ascending order, with the
    coupling between node k and node k + stride along that axis (zero where
    k is the last node of its line); the matrix is symmetric.  ``means``
    holds, per axis, the mean of dt * D / h^2 over the axis's faces.
    """

    diag: np.ndarray
    upper: tuple
    means: tuple

    def matvec(self, v: np.ndarray) -> np.ndarray:
        out = self.diag * v
        for k, c in self.upper:
            out[:-k] += c * v[k:]
            out[k:] += c * v[:-k]
        return out


def _sine_modes(n: int) -> tuple:
    """(S, eigenvalues) of the n-node Dirichlet second difference tridiag(-1, 2, -1): S is
    orthonormal and symmetric, its own inverse, with column j sin(pi j k / (n + 1))."""
    k = np.arange(1, n + 1)
    basis = math.sqrt(2.0 / (n + 1)) * np.sin(np.outer(k, k) * (math.pi / (n + 1)))
    return basis, 4.0 * np.sin(k * (math.pi / (2 * (n + 1)))) ** 2


def _sine_preconditioner(modes: list, means: tuple):
    """r -> P^-1 r for P = I + sum_a means[a] L_a, L_a the second difference along axis a.

    P is the implicit matrix when D is constant, as at p = 2 with A = 1.  With R = r
    in grid shape, P^-1 r = S_0 (S_0 R S_1 / (1 + sum_a means[a] lambda_a)) S_1 (in 1D, S_0 (S_0 r / ...)).
    """
    shape = tuple(len(eigenvalues) for _, eigenvalues in modes)
    denominator = 1.0
    for (_, eigenvalues), mean in zip(modes, means):
        denominator = np.add.outer(denominator, mean * eigenvalues)

    def transform(y):
        y = modes[0][0] @ y
        return y @ modes[1][0] if len(modes) == 2 else y

    return lambda r: transform(transform(r.reshape(shape)) / denominator).ravel()


def _pcg_sweep(stencil, precondition, b, x0, atol):
    """CG on the stencil from x0, preconditioned by precondition(r) ~ stencil^-1 r.

    The operations and tests of scipy.sparse.linalg.cg (rtol 0, maxiter
    IMEX_CG_MAX_ITER), in its order, so the iterates are the same bits.  None
    when the true residual is not below atol at the end.
    """
    if np.linalg.norm(b) == 0.0:
        x = b.copy()
    else:
        x = x0.copy()
        r = b - stencil.matvec(x) if x.any() else b.copy()
        for iteration in range(IMEX_CG_MAX_ITER):
            if np.linalg.norm(r) < atol:
                break
            z = precondition(r)
            rho = np.dot(r, z)
            if iteration > 0:
                p *= rho / rho_prev
                p += z
            else:
                p = z.copy()
            q = stencil.matvec(p)
            alpha = rho / np.dot(p, q)
            x += alpha * p
            r -= alpha * q
            rho_prev = rho
    # the loop exits on the updated residual, so check the true one
    if np.linalg.norm(b - stencil.matvec(x)) <= atol:
        return x
    return None


def spsolve(stencil: _ImplicitStencil, stepper: _ImexStepper, b: np.ndarray, x0: np.ndarray, atol: float):
    """Solve one IMEX sweep's stencil x = b; perfbench/traced.py times each call by this name.

    CG from x0 to atol, preconditioned with stepper's sine modes (_sine_preconditioner);
    NonConvergenceError when CG misses atol within IMEX_CG_MAX_ITER iterations.
    """
    x = _pcg_sweep(stencil, _sine_preconditioner(stepper.modes, stencil.means), b, x0, atol)
    if x is None:
        raise NonConvergenceError(f"CG did not reach {atol} in {IMEX_CG_MAX_ITER} iterations")
    return x


def step_imex(
    fld: ScalarField,
    dt: float,
    params: ProblemParams,
    coeff: CoefficientField = CoefficientField(),
    eps_reg: float = 0.0,
    t: float = 0.0,
    *,
    stepper: Optional[_ImexStepper] = None,
) -> ScalarField:
    """Backward Euler diffusion via damped lagged-diffusivity iteration.

    The gradient source is explicit (frozen at time t).  Each sweep solves its
    own matrix with spsolve, warm-started at the last iterate, to
    IMEX_CG_FORCING times the nonlinear residual of that iterate: the next
    sweep re-linearizes and discards any accuracy beyond it, and the step is
    accepted only once its own residual is below the tolerance.  stepper,
    when given, is the _ImexStepper on fld's grid whose kernel the step works
    in and whose sine modes spsolve preconditions with.
    When the stepper holds the previous accepted step (u_{n-1}, dt_prev), the
    first iterate is u_n + (dt/dt_prev)(u_n - u_{n-1}); the source and the
    right-hand side still use u_n.  Without a stepper the step builds a fresh
    one, so it starts from u_n.  Every iterate, the first, each solved one and
    each damped one, is loaded once, its mobility taken at t + dt and its flux
    divergence formed.  A non-finite value anywhere (in the iterate, a real
    face's mobility or a flux) makes that divergence non-finite, and that, a
    CG solve that misses its stop, or IMEX_MAX_ITER sweeps without convergence raise
    NonConvergenceError: a _DatumFailure when the iterate is u_n itself,
    whose divergence no dt changes (short of an A(t + dt) that moves a flux
    across overflow).
    """
    if dt <= 0.0:
        raise ValueError("dt must be > 0")
    grid = fld.grid
    t_new = t + dt
    if stepper is None:
        stepper = _ImexStepper(grid, params, coeff, eps_reg, dt)
    kernel = stepper.kernel
    b = fld.values.copy()
    if params.gamma > 0.0:
        kernel.load(fld.values)
        b = b + dt * params.gamma * _power(kernel.nodal_magnitude(), params.q)
    tol = IMEX_RTOL * (1.0 + lr_norm(fld.values, 2.0, grid.quad_weight))
    # the CG residual is Euclidean; lr_norm weighs each node by quad_weight
    cg_scale = IMEX_CG_FORCING / math.sqrt(grid.quad_weight)
    flat_b = b.ravel()

    def evaluate(x: np.ndarray) -> float:
        """The residual of iterate x, whose mobility the kernel keeps; NonConvergenceError if not finite."""
        kernel.load(x)
        kernel.mobility(coeff, params.p, eps_reg, t_new)
        try:
            return lr_norm(x - dt * kernel.divergence() - b, 2.0, grid.quad_weight)
        except ValueError as exc:
            if x is fld.values:
                raise _DatumFailure(
                    f"implicit solve produced non-finite values ({exc}) at the datum itself, "
                    "which no step size mends"
                ) from None
            raise NonConvergenceError(f"implicit solve produced non-finite values ({exc})") from None

    cur = fld.values
    if stepper.previous is not None:
        u_prev, dt_prev = stepper.previous
        cur = cur + (dt / dt_prev) * (cur - u_prev)
    res = evaluate(cur)
    prev_res = math.inf
    for _ in range(IMEX_MAX_ITER):
        stencil = _ImplicitStencil(*kernel.implicit_matrix(dt))
        x = spsolve(stencil, stepper, flat_b, cur.ravel(), cg_scale * res).reshape(grid.shape)
        res = evaluate(x)
        if res < tol:
            _check_overflow(x, t_new)
            return ScalarField(grid, x)
        if res >= prev_res:
            x = 0.5 * (x + cur)  # damp when the fixed point overshoots; res stays the undamped one's
            evaluate(x)
        cur = x
        prev_res = res
    raise NonConvergenceError(
        f"lagged-diffusivity iteration did not reach {tol} in {IMEX_MAX_ITER} sweeps"
    )


def _sample_times(scenario: Scenario) -> list:
    t_end = scenario.t_end
    if t_end <= 0.0:
        return []
    start = scenario.sample_start if scenario.sample_start is not None else t_end * 1e-4
    geometric = []
    x = start
    while x < t_end * (1.0 - 1e-12):
        if len(geometric) >= MAX_SAMPLE_TARGETS:
            raise ValueError(
                f"sample schedule from sample_start={start} at ratio {scenario.sample_ratio} "
                f"needs more than {MAX_SAMPLE_TARGETS} samples to reach t_end={t_end}"
            )
        geometric.append(x)
        x *= scenario.sample_ratio
    targets = set(geometric)
    targets.update(s for s in scenario.snapshot_times if s > 0.0)
    targets.add(t_end)
    return sorted(targets)


def _check_ellipticity(scenario: Scenario, times) -> None:
    """ValueError unless every face coefficient at every time lies in [alpha, lambda_upper].

    The identity coefficient is 1 at every time, so its first time stands for all.
    """
    params, grid = scenario.params, scenario.grid
    if scenario.coefficient.kind == "identity":
        times = times[:1]
    for t in times:
        for axis in range(grid.dim):
            a = np.asarray(scenario.coefficient.face_values(grid, axis, t))
            lo, hi = float(a.min()), float(a.max())
            if not (params.alpha <= lo and hi <= params.lambda_upper):
                raise ValueError(
                    f"coefficient values [{lo:g}, {hi:g}] on axis {axis} at t={t:g} leave the "
                    f"ellipticity bounds [alpha, lambda_upper] = [{params.alpha:g}, {params.lambda_upper:g}]"
                )


def _step_size(t: float, dt: float) -> float:
    """dt, or NonConvergenceError when a step of dt would not advance t."""
    if not t + dt > t:
        raise NonConvergenceError(f"step size collapsed at t={t} (dt={dt})")
    return dt


class _ImexStepper:
    """step_imex at dt_init, halving dt after each solve that fails to converge, but not on a _DatumFailure.

    Every step works in the one FluxKernel, kernel, and modes holds each
    axis's _sine_modes, from which spsolve builds every sweep's preconditioner.
    previous holds (u_{n-1}, dt) of the last accepted step (None at first),
    from which step_imex extrapolates its first iterate; a rejected attempt
    leaves it as it was.
    """

    def __init__(
        self, grid: Grid, params: ProblemParams, coeff: CoefficientField, eps_reg: float, dt_init: float
    ):
        self.grid, self.params, self.coeff, self.eps_reg, self.dt_init = grid, params, coeff, eps_reg, dt_init
        self.kernel = FluxKernel(grid)
        self.modes = [_sine_modes(n) for n in grid.shape]
        self.previous = None
        self.rejected = 0

    def advance(self, u, t, dt_max):
        dt = min(self.dt_init, dt_max)
        for halvings in range(IMEX_MAX_HALVINGS + 1):
            _step_size(t, dt)
            try:
                fld = ScalarField(self.grid, u)
                new = step_imex(fld, dt, self.params, self.coeff, self.eps_reg, t, stepper=self).values
                self.previous = (u, dt)
                return new, dt
            except NonConvergenceError as exc:
                self.rejected += 1
                if halvings == IMEX_MAX_HALVINGS or isinstance(exc, _DatumFailure):
                    raise
                dt *= 0.5


def run(scenario: Scenario) -> RunResult:
    """Advance the scenario to t_end, recording norms at the sample schedule."""
    grid = scenario.grid
    sigma_eff = scenario.sigma_resolved
    weight = grid.quad_weight
    targets = _sample_times(scenario)
    _check_ellipticity(scenario, [0.0] + targets)
    u, t = make_initial(scenario.initial, grid, scenario.params, scenario.seed).values, 0.0

    orders = scenario.norm_orders
    times, norms, snapshots = [], [[] for _ in scenario.columns], []

    def record(ts, values):
        """Append the norm row at ts, and the snapshot when ts is a snapshot time."""
        mag = np.abs(values)
        sup = float(np.maximum.reduce(mag, axis=None, initial=0.0))
        row = [sup, float(np.add.reduce(mag, axis=None) * weight)]
        row += [lr_norm(values, r, weight) for r in orders]
        for k in scenario.k_levels:
            if k >= sup:  # no excess: (0 w)^(1/sigma) and 0 w are 0.0
                row += (0.0, 0.0)
                continue
            ex = truncate_excess(values, k)
            np.abs(ex, out=ex)
            row.append((_power_sum(ex, sigma_eff) * weight) ** (1.0 / sigma_eff))
            row.append(float(np.add.reduce(ex, axis=None) * weight))
        times.append(ts)
        for column, value in zip(norms, row):
            column.append(value)
        if ts in scenario.snapshot_times:
            snapshots.append((ts, ScalarField(grid, values.copy())))

    record(t, u)

    accepted, blow_time, stopped_early = 0, None, False
    atol = scenario.stop_linf_atol
    problem = (grid, scenario.params, scenario.coefficient, scenario.eps_resolved)
    explicit = scenario.stepper == "explicit"
    stepper = _ExplicitStepper(*problem) if explicit else _ImexStepper(*problem, scenario.dt_init)

    try:
        for target in targets:
            # a step that takes all of target - t lands on target; a shorter one
            # cannot pass it, so t is target here unless the run stopped early
            while t < target and not stopped_early:
                u, dt = stepper.advance(u, t, target - t)
                t = target if dt == target - t else t + dt
                accepted += 1
                stopped_early = atol > 0.0 and float(np.max(np.abs(u), initial=0.0)) <= atol
            record(t, u)
            if stopped_early:
                break
    except OverflowDetected as exc:
        blow_time = exc.time

    series = NormSeries(times, dict(zip(scenario.columns, norms)))
    extinction = detect_extinction(series) if blow_time is None else None
    metadata = {
        "sigma_eff": sigma_eff,
        "eps_reg": scenario.eps_resolved,
        "dim_mismatch": scenario.dim_mismatch,
        "stopped_early": stopped_early,
        "final_time": float(series.times[-1]),
    }
    return RunResult(
        series=series,
        snapshots=snapshots,
        extinction_time=extinction,
        blow_up_time=blow_time,
        steps_accepted=accepted,
        steps_rejected=stepper.rejected,
        metadata=metadata,
    )


def detect_extinction(series: NormSeries) -> Optional[float]:
    """Earliest sample time from which the sup norm stays at or below tol.

    tol is 1e-9 times the initial sup norm.  None when the series never
    settles below tol (including at its final sample).
    """
    linf = series.column("linf")
    tol = 1e-9 * float(linf[0])
    if linf[-1] > tol:
        return None
    above = np.where(linf > tol)[0]
    j = int(above[-1]) + 1 if above.size else 0
    return float(series.times[j])
