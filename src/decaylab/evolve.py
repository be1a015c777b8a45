"""Initial data, explicit/IMEX time steppers and the adaptive simulation loop.

The explicit stepper uses a diffusive CFL bound on the face mobility
(coefficient times regularized diffusivity) plus a source cap keeping each
source increment below a tenth of the current sup norm.  The IMEX stepper
treats diffusion implicitly (lagged diffusivity fixed point) and the gradient
source explicitly; each step factors its first sweep's matrix once by banded
Cholesky and solves the later sweeps by conjugate gradients preconditioned
with that factor.  Runs record norms at geometrically spaced sample times and
stop on overflow (sup norm past 1e12) or on an optional extinction floor.
"""

from __future__ import annotations

import ctypes
import functools
import math
from contextlib import contextmanager
from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np
from scipy.linalg import LinAlgError, cho_solve_banded, cholesky_banded
from scipy.sparse.linalg import LinearOperator, cg
from scipy.sparse.linalg import spsolve  # noqa: F401  unused; the perfbench trace wraps it

from .field import CoefficientField, FluxKernel, Grid, ScalarField, _power, read_field_csv
from .metrics import NormSeries, lr_norm, truncate_excess
from .regime import ProblemParams, Regime, classify

DEFAULT_EPS_DEGENERATE = 1e-8  # p >= 2
DEFAULT_EPS_SINGULAR = 1e-4  # p < 2
OVERFLOW_SENTINEL = 1e12
CFL_SAFETY = 0.4
SOURCE_CAP_FRACTION = 0.1
U_FLOOR = 1e-12
IMEX_MAX_ITER = 200
IMEX_MAX_HALVINGS = 20
IMEX_RTOL = 1e-10
IMEX_CG_MAX_ITER = 8  # CG iterations per sweep, about one factorization's cost, before re-factoring
IMEX_CG_FRACTION = 1e-3  # CG stops at this fraction of the step's residual tolerance
MAX_SAMPLE_TARGETS = 200000


class OverflowDetected(RuntimeError):
    """Sup norm crossed the blow-up sentinel (or stopped being finite)."""

    def __init__(self, time: float, sup: float):
        super().__init__(f"overflow at t={time}: sup={sup}")
        self.time = time
        self.sup = sup


class NonConvergenceError(RuntimeError):
    """A step failed: the implicit solve did not converge or the step size collapsed."""


INITIAL_KINDS = ("zero", "eigenfunction", "bump", "power_spike", "random_positive", "file")


@dataclass(frozen=True)
class InitialSpec:
    """Declarative initial datum.

    kind "zero": identically zero.
    kind "eigenfunction": amplitude * prod sin(pi x / L) (first Dirichlet mode).
    kind "bump": smooth compactly supported bump, normalized so the sampled
        max equals amplitude; center/radius default to the domain middle.
    kind "power_spike": amplitude * min(cap, |x - center|^(-decay_exponent)),
        with decay_exponent required to lie in (dim/nu_prime, dim/nu) so the
        datum is summable to order nu but not nu_prime (nu_prime > nu).
    kind "random_positive": iid uniform(0, amplitude), seeded.
    kind "file": snapshot CSV from path.
    """

    kind: str
    amplitude: float = 1.0
    center: Optional[tuple] = None
    decay_exponent: Optional[float] = None
    cap: float = 1e6
    nu: Optional[float] = None
    nu_prime: Optional[float] = None
    radius: Optional[float] = None
    path: Optional[str] = None

    def __post_init__(self):
        if self.kind not in INITIAL_KINDS:
            raise ValueError(f"unknown initial kind {self.kind!r}; have {INITIAL_KINDS}")
        if self.amplitude < 0.0:
            raise ValueError("amplitude must be >= 0")


def make_initial(
    spec: InitialSpec, grid: Grid, params: Optional[ProblemParams] = None, seed: int = 0
) -> ScalarField:
    """Realize an InitialSpec on a grid (deterministic given the seed)."""
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
        rng = np.random.default_rng(seed)
        values = rng.uniform(0.0, spec.amplitude, size=grid.shape)
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
        if not (self.t_end >= 0.0 and math.isfinite(self.t_end)):
            raise ValueError(f"t_end must be finite and >= 0, got {self.t_end}")
        if self.dt_init <= 0.0:
            raise ValueError("dt_init must be > 0")
        if self.stepper not in ("explicit", "imex"):
            raise ValueError(f"unknown stepper {self.stepper!r}")
        if self.sample_ratio <= 1.0:
            raise ValueError("sample_ratio must be > 1")
        self.snapshot_times = tuple(sorted(set(float(s) for s in self.snapshot_times)))
        if any(s < 0.0 or s > self.t_end for s in self.snapshot_times):
            raise ValueError("snapshot times must lie in [0, t_end]")
        self.k_levels = tuple(sorted(set(float(k) for k in self.k_levels)))
        if any(k < 0.0 for k in self.k_levels):
            raise ValueError("truncation levels must be >= 0")
        self.r_list = tuple(sorted(set(float(r) for r in self.r_list)))
        if any(r < 1.0 for r in self.r_list):
            raise ValueError("norm orders must be >= 1")
        if self.stop_linf_atol < 0.0:
            raise ValueError("stop_linf_atol must be >= 0")
        if self.eps_reg is not None and not self.eps_reg >= 0.0:
            raise ValueError(f"eps_reg must be >= 0, got {self.eps_reg}")

    @property
    def eps_resolved(self) -> float:
        if self.eps_reg is not None:
            return float(self.eps_reg)
        return DEFAULT_EPS_DEGENERATE if self.params.p >= 2.0 else DEFAULT_EPS_SINGULAR

    @property
    def sigma_resolved(self) -> float:
        """Summability exponent used for truncation-norm columns."""
        if self.sigma is not None:
            if self.sigma < 1.0:
                raise ValueError("sigma must be >= 1")
            return float(self.sigma)
        report = classify(self.params)
        if report.regime in (
            Regime.SUPERLINEAR_SIGMA,
            Regime.SUPERLINEAR_L1,
            Regime.CRITICAL_L1,
            Regime.NONEXISTENCE_RISK,
        ):
            return float(report.sigma)
        return 2.0

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
    scenario: Scenario
    series: NormSeries
    snapshots: list
    extinction_time: Optional[float]
    blow_up_time: Optional[float]
    steps_accepted: int
    steps_rejected: int
    metadata: dict


class _ExplicitStep:
    """Forward Euler steps of one problem on one grid, in one FluxKernel's arrays.

    prepare(values, t) loads a state and returns its stable dt: the diffusive
    CFL bound with safety 0.4 on the face mobility A(t) D, capped so that the
    source adds at most a tenth of the sup norm in one step.  update(dt) then
    returns the stepped state, a new array, and its sup norm.
    """

    def __init__(self, grid: Grid, params: ProblemParams, coeff, eps_reg: float):
        self.kernel = FluxKernel(grid)
        self.params, self.coeff, self.eps_reg = params, coeff, eps_reg
        h_min = min(grid.spacing)
        self._cfl = (CFL_SAFETY * h_min * h_min, 2.0 * grid.dim)
        self._source = np.empty(grid.shape)
        self._values, self._t, self._grad_mag = None, 0.0, None

    def prepare(self, values: np.ndarray, t: float, sup: Optional[float] = None) -> float:
        """Stable dt of values at t; sup, when given, is their sup norm."""
        params, kernel = self.params, self.kernel
        kernel.load(values)
        kernel.mobility(self.coeff, params.p, self.eps_reg, t)
        self._values, self._t = values, t
        max_m = kernel.max_mobility()
        if max_m > 0.0:
            numerator, two_dim = self._cfl
            stable = numerator / (two_dim * max_m)
        else:
            stable = float("inf")
        if params.gamma > 0.0:
            grad_mag = self._grad_mag = kernel.nodal_magnitude()
            source_max = params.gamma * float(np.max(grad_mag, initial=0.0)) ** params.q
            if source_max > 0.0:
                if sup is None:
                    sup = float(np.max(np.abs(values, out=self._source), initial=0.0))
                stable = min(stable, SOURCE_CAP_FRACTION * max(sup, U_FLOOR) / source_max)
        return stable

    def update(self, dt: float) -> tuple:
        """(values + dt * rhs, its sup norm); OverflowDetected past the sentinel."""
        params = self.params
        rhs = self.kernel.divergence()
        if params.gamma > 0.0:
            source = _power(self._grad_mag, params.q, out=self._source)
            np.multiply(source, params.gamma, out=source)
            np.add(rhs, source, out=rhs)
        np.multiply(rhs, dt, out=rhs)
        new = self._values + rhs
        return new, _check_overflow(new, self._t + dt, work=self._source)


def _check_overflow(values: np.ndarray, t: float, work: Optional[np.ndarray] = None) -> float:
    """The sup norm of values; OverflowDetected past the sentinel or when not finite."""
    sup = float(np.max(np.abs(values, out=work), initial=0.0))  # NaN propagates
    if not math.isfinite(sup) or sup > OVERFLOW_SENTINEL:
        raise OverflowDetected(t, sup)
    return sup


def stable_dt(
    fld: ScalarField,
    params: ProblemParams,
    coeff: Optional[CoefficientField] = None,
    eps_reg: float = 0.0,
    t: float = 0.0,
) -> float:
    """Explicit step bound: diffusive CFL on A(t) D with safety 0.4 plus a source cap."""
    return _ExplicitStep(fld.grid, params, coeff, eps_reg).prepare(fld.values, t)


def step_explicit(
    fld: ScalarField,
    dt: float,
    params: ProblemParams,
    coeff: Optional[CoefficientField] = None,
    eps_reg: float = 0.0,
    t: float = 0.0,
) -> ScalarField:
    """Forward Euler step; raises OverflowDetected past the blow-up sentinel."""
    if dt <= 0.0:
        raise ValueError("dt must be > 0")
    step = _ExplicitStep(fld.grid, params, coeff, eps_reg)
    step.prepare(fld.values, t)
    return ScalarField(fld.grid, step.update(dt)[0])


@functools.lru_cache(maxsize=None)
def _openblas_threads():
    """(get, set) for the thread count of the OpenBLAS behind scipy.linalg, or None."""
    try:
        from scipy.linalg import _flapack

        lib = ctypes.CDLL(_flapack.__file__)
    except (ImportError, OSError):
        return None
    for prefix in ("scipy_openblas", "openblas"):
        get = getattr(lib, f"{prefix}_get_num_threads", None)
        put = getattr(lib, f"{prefix}_set_num_threads", None)
        if get is not None and put is not None:
            return get, put
    return None


@contextmanager
def _single_blas_thread():
    """Run the enclosed LAPACK calls on one OpenBLAS thread, then restore the count.

    On the bands these grids give, threads only slow the factorization.  On
    2 vCPUs the c4 factorization took 3.6 ms on one thread and 14 ms on two,
    and a two-worker IMEX sweep ran 45x slower with two threads per worker
    than with one.
    """
    control = _openblas_threads()
    if control is None:
        yield
        return
    get, put = control
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


@dataclass(frozen=True)
class _ImplicitStencil:
    """v -> v - dt * div(D grad v) with Dirichlet zeros, on nodes in C order.

    ``upper`` pairs each offset (1, and ny along the first axis in 2D) with
    the coupling between node k and node k + offset; the matrix is symmetric.
    """

    diag: np.ndarray
    upper: tuple

    @classmethod
    def assemble(cls, grid: Grid, dfaces: list, dt: float) -> "_ImplicitStencil":
        if grid.dim == 1:
            (h,) = grid.spacing
            d = dfaces[0] * (dt / (h * h))
            return cls(1.0 + d[:-1] + d[1:], ((1, -d[1:-1]),))
        hx, hy = grid.spacing
        nx, ny = grid.shape
        dx = dfaces[0] * (dt / (hx * hx))
        dy = dfaces[1] * (dt / (hy * hy))
        diag = 1.0 + dx[:-1, :] + dx[1:, :] + dy[:, :-1] + dy[:, 1:]
        along = np.zeros((nx, ny))
        along[:, :-1] = -dy[:, 1:-1]
        return cls(diag.ravel(), ((1, along.ravel()[:-1]), (ny, -dx[1:-1, :].ravel())))

    def matvec(self, v: np.ndarray) -> np.ndarray:
        out = self.diag * v
        for k, c in self.upper:
            out[:-k] += c * v[k:]
            out[k:] += c * v[:-k]
        return out

    def banded(self) -> np.ndarray:
        """LAPACK upper band storage; the bandwidth is the largest offset."""
        u = self.upper[-1][0]
        ab = np.zeros((u + 1, self.diag.size), order="F")  # LAPACK layout, factored in place
        ab[u] = self.diag
        for k, c in self.upper:
            ab[u - k, k:] += c
        return ab

    def factor(self) -> np.ndarray:
        try:
            with _single_blas_thread():
                return cholesky_banded(self.banded(), overwrite_ab=True, check_finite=False)
        except LinAlgError as exc:
            raise NonConvergenceError(f"implicit matrix factorization failed: {exc}") from exc


def _cho_solve(factor: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    return cho_solve_banded((factor, False), rhs, check_finite=False)


def _pcg_sweep(stencil, factor, b, x0, atol):
    """CG on the stencil from x0, preconditioned with an earlier sweep's factor.

    None when the residual is not below atol after IMEX_CG_MAX_ITER iterations.
    """
    n = b.size
    mat = LinearOperator((n, n), matvec=stencil.matvec, dtype=float)
    precond = LinearOperator((n, n), matvec=lambda r: _cho_solve(factor, r), dtype=float)
    x, _ = cg(mat, b, x0=x0, rtol=0.0, atol=atol, maxiter=IMEX_CG_MAX_ITER, M=precond)
    # cg reports success for maxiter = 0 without a test, so check the true residual
    if np.linalg.norm(b - stencil.matvec(x)) <= atol:
        return x
    return None


def step_imex(
    fld: ScalarField,
    dt: float,
    params: ProblemParams,
    coeff: Optional[CoefficientField] = None,
    eps_reg: float = 0.0,
    t: float = 0.0,
) -> ScalarField:
    """Backward Euler diffusion via damped lagged-diffusivity iteration.

    The gradient source is explicit (frozen at time t).  The first sweep
    factors its matrix by banded Cholesky; later sweeps solve their own
    matrix by CG preconditioned with that factor, warm-started at the last
    iterate, to IMEX_CG_FRACTION of the residual tolerance, and re-factor
    when CG misses it within IMEX_CG_MAX_ITER iterations.  Raises
    NonConvergenceError on a non-finite diffusivity or solution, a failed
    factorization, or after IMEX_MAX_ITER sweeps.
    """
    if dt <= 0.0:
        raise ValueError("dt must be > 0")
    grid = fld.grid
    p = params.p
    t_new = t + dt
    kernel = FluxKernel(grid)
    kernel.load(fld.values)
    b = fld.values.copy()
    if params.gamma > 0.0:
        b = b + dt * params.gamma * kernel.nodal_magnitude() ** params.q
    tol = IMEX_RTOL * (1.0 + lr_norm(fld.values, 2.0, grid.quad_weight))
    # the CG residual is Euclidean; lr_norm weighs each node by quad_weight
    cg_atol = IMEX_CG_FRACTION * tol / math.sqrt(grid.quad_weight)
    flat_b = b.ravel()

    cur = fld.values
    dfaces = kernel.mobility(coeff, p, eps_reg, t_new)
    factor = None
    prev_res = float("inf")
    for _ in range(IMEX_MAX_ITER):
        if not all(np.all(np.isfinite(d)) for d in dfaces):
            raise NonConvergenceError(
                "implicit solve produced non-finite values (non-finite face diffusivity)"
            )
        stencil = _ImplicitStencil.assemble(grid, dfaces, dt)
        x = None if factor is None else _pcg_sweep(stencil, factor, flat_b, cur.ravel(), cg_atol)
        if x is None:
            factor = stencil.factor()
            x = _cho_solve(factor, flat_b)
        if not np.all(np.isfinite(x)):
            raise NonConvergenceError("implicit solve produced non-finite values")
        x = x.reshape(grid.shape)
        kernel.load(x)
        dfaces = kernel.mobility(coeff, p, eps_reg, t_new)
        residual = x - dt * kernel.divergence() - b
        res = lr_norm(residual, 2.0, grid.quad_weight)
        if res < tol:
            _check_overflow(x, t_new)
            return ScalarField(grid, x)
        if res >= prev_res:
            x = 0.5 * (x + cur)  # damp when the fixed point overshoots
            kernel.load(x)
            dfaces = kernel.mobility(coeff, p, eps_reg, t_new)
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
    if start <= 0.0:
        raise ValueError("sample_start must be > 0")
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
    """ValueError unless every face coefficient at every time lies in [alpha, lambda_upper]."""
    params, grid = scenario.params, scenario.grid
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


@dataclass
class _Stepper:
    """advance(u, t, t_target) -> (u, t): one accepted step from t towards t_target."""

    scenario: Scenario
    rejected: int = 0


@dataclass
class _ExplicitStepper(_Stepper):
    """Forward Euler at the stable dt; the step that reaches t_target lands on it.

    The state it returned last comes back as the next u, so the sup norm its
    overflow check took is that state's source-cap sup.
    """

    def __post_init__(self):
        sc = self.scenario
        self._step = _ExplicitStep(sc.grid, sc.params, sc.coefficient, sc.eps_resolved)
        self._last = (None, None)

    def advance(self, u, t, t_target):
        last, sup = self._last
        stable = self._step.prepare(u, t, sup if u is last else None)
        dt = _step_size(t, min(stable, t_target - t))
        new, sup = self._step.update(dt)
        self._last = (new, sup)
        return new, (t_target if stable >= t_target - t else t + dt)


class _ImexStepper(_Stepper):
    """step_imex at dt_init, halving dt after each solve that fails to converge."""

    def advance(self, u, t, t_target):
        sc = self.scenario
        landing = sc.dt_init >= t_target - t
        dt = min(sc.dt_init, t_target - t)
        for halvings in range(IMEX_MAX_HALVINGS + 1):
            _step_size(t, dt)
            try:
                new = step_imex(ScalarField(sc.grid, u), dt, sc.params, sc.coefficient, sc.eps_resolved, t)
                return new.values, (t_target if landing else t + dt)
            except NonConvergenceError:
                self.rejected += 1
                if halvings == IMEX_MAX_HALVINGS:
                    raise
                dt *= 0.5
                landing = False


def run(scenario: Scenario) -> RunResult:
    """Advance the scenario to t_end, recording norms at the sample schedule."""
    grid = scenario.grid
    sigma_eff = scenario.sigma_resolved
    weight = grid.quad_weight
    targets = _sample_times(scenario)
    _check_ellipticity(scenario, [0.0] + targets)
    u0 = make_initial(scenario.initial, grid, scenario.params, scenario.seed)

    columns, orders = scenario.columns, scenario.norm_orders
    rows = []

    def record(ts, values):
        norms = [float(np.max(np.abs(values), initial=0.0)), float(np.sum(np.abs(values)) * weight)]
        norms += [lr_norm(values, r, weight) for r in orders]
        for k in scenario.k_levels:
            ex = np.abs(truncate_excess(values, k))
            norms.append(float(np.sum(ex**sigma_eff) * weight) ** (1.0 / sigma_eff))
            norms.append(float(np.sum(ex) * weight))
        rows.append((ts, dict(zip(columns, norms))))

    u = u0.values.copy()
    t = 0.0
    record(0.0, u)
    snapshots = []
    snap_set = set(scenario.snapshot_times)
    if 0.0 in snap_set:
        snapshots.append((0.0, ScalarField(grid, u.copy())))

    accepted = 0
    blow_time = None
    stopped_early = False
    stepper = (_ExplicitStepper if scenario.stepper == "explicit" else _ImexStepper)(scenario)

    try:
        for target in targets:
            while t < target:
                u, t = stepper.advance(u, t, target)
                accepted += 1
                if scenario.stop_linf_atol > 0.0:
                    if float(np.max(np.abs(u), initial=0.0)) <= scenario.stop_linf_atol:
                        stopped_early = True
                        break
            if stopped_early:
                if t > rows[-1][0]:
                    record(t, u)
                break
            record(target, u)
            if target in snap_set:
                snapshots.append((target, ScalarField(grid, u.copy())))
    except OverflowDetected as exc:
        blow_time = exc.time

    series = NormSeries.from_rows(rows)
    extinction = detect_extinction(series) if blow_time is None else None
    metadata = {
        "sigma_eff": sigma_eff,
        "eps_reg": scenario.eps_resolved,
        "dim_mismatch": scenario.dim_mismatch,
        "stopped_early": stopped_early,
        "final_time": float(series.times[-1]),
        "initial_linf": float(series.column("linf")[0]),
    }
    return RunResult(
        scenario=scenario,
        series=series,
        snapshots=snapshots,
        extinction_time=extinction,
        blow_up_time=blow_time,
        steps_accepted=accepted,
        steps_rejected=stepper.rejected,
        metadata=metadata,
    )


def detect_extinction(series: NormSeries, tol: Optional[float] = None) -> Optional[float]:
    """Earliest sample time from which the sup norm stays at or below tol.

    tol defaults to 1e-9 times the initial sup norm.  None when the series
    never settles below tol (including at its final sample).
    """
    linf = series.column("linf")
    if tol is None:
        tol = 1e-9 * float(linf[0])
    if linf[-1] > tol:
        return None
    above = np.where(linf > tol)[0]
    j = int(above[-1]) + 1 if above.size else 0
    return float(series.times[j])
