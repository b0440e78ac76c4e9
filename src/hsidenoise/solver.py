"""ADMM solver for mixed-noise removal from hyperspectral cubes.

The observation is split as y = x + s + n: a clean part x constrained to a
low-rank spectral factor model (see :mod:`.factorization`), a sparse part s
that absorbs impulse noise, deadlines and stripes, and a dense Gaussian
part n.  The objective combines anisotropic 3-D total variation on x, an
l1 penalty on s, a squared Frobenius penalty on n and nuclear norms of the
abundance slices.  Two auxiliary variables decouple the TV term: z is a
consensus copy of x and l holds the difference field of z.  Four
multipliers enforce y = x + s + n, z = x, l = D(z) and x = compose(g, c).

One sweep updates, in this order: abundances g, signatures c, estimate x,
consensus copy z, difference field l, sparse part s, Gaussian part n, then
all four multipliers.  compose(g, c), D(z) and each constraint residual are
computed once per sweep and shared by every step that reads them.
:func:`solve` allocates every array a sweep writes once per run (a second
estimate, the composed model, D(z) and a :class:`Workspace` of scratch);
each step writes its result into ``out`` and its intermediates into the
workspace, so a sweep allocates nothing cube-sized.  Called without them, a
step allocates its own.

Iteration stops when the squared relative change of x drops to ``eps`` or
after ``max_iter`` sweeps.  Finiteness is tested once per sweep on one
scalar that any non-finite array makes non-finite; only then are the arrays
scanned, so the error still names the first failing step and its sweep.
Nothing here consumes randomness, so a rerun on the same inputs is
bit-identical.
"""

import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from .diffops import diff_adjoint, diff_forward, solve_z_system, tv_kernel_spectrum
from .errors import NumericError
from .factorization import (
    MvtfFactors,
    compose,
    init_factors,
    orthonormal_from_target,
    procrustes_target,
    update_g,
)
from .prox import nuclear_norm, soft_threshold
from .tensor import frob_norm, frob_norm_sq, l1_norm


@dataclass(frozen=True)
class SolverParams:
    """Penalty weights, factor rank and iteration controls.

    Defaults are the simulated-data preset.  The penalty weights stay fixed
    for the whole solve.
    """

    lambda_tv: float = 2e-4
    lambda_s: float = 0.02
    lambda_n: float = 0.1
    lambda_g: float = 0.1
    rank: int = 5
    beta1: float = 0.1
    beta2: float = 0.1
    beta3: float = 0.1
    beta4: float = 0.1
    eps: float = 1e-4
    max_iter: int = 200

    def __post_init__(self):
        for name in ("lambda_tv", "lambda_s", "lambda_n", "lambda_g"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)}")
        for name in ("beta1", "beta2", "beta3", "beta4"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.rank < 1:
            raise ValueError(f"rank must be at least 1, got {self.rank}")
        if self.eps <= 0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")

    @classmethod
    def simulated(cls, **overrides):
        """Preset tuned on simulated benchmarks (rank 5)."""
        return cls(**overrides)

    @classmethod
    def real(cls, **overrides):
        """Preset tuned on real degraded scenes (rank 2, gentler TV/l1)."""
        base = dict(lambda_tv=1e-5, lambda_s=0.013, rank=2)
        base.update(overrides)
        return cls(**base)


@dataclass
class SolverState:
    """All primal and dual variables of one run, after ``iteration`` sweeps."""

    x: np.ndarray
    z: np.ndarray
    s: np.ndarray
    n: np.ndarray
    l: np.ndarray  # difference field, shape (3, K, I, J)
    factors: MvtfFactors
    lambda1: np.ndarray
    lambda2: np.ndarray
    lambda3: np.ndarray  # difference field, shape (3, K, I, J)
    lambda4: np.ndarray
    iteration: int = 0


@dataclass
class SolveReport:
    """Per-sweep diagnostics and the final objective split of one run.

    The four residual traces are Frobenius norms of the constraint gaps in
    the order: observation split, consensus copy, difference field, factor
    model.  ``degenerate_c_steps`` counts signature updates whose target
    matrix was numerically rank-deficient (still valid, just non-unique).
    """

    iterations: int
    converged: bool
    rel_change: list
    res_observation: list
    res_consensus: list
    res_tv: list
    res_factorization: list
    objective_terms: dict
    degenerate_c_steps: int
    wall_time_s: float
    params: dict

    def to_dict(self):
        return asdict(self)


def initialize_state(y, params):
    """Starting point: x = y, zero auxiliaries, spectral-subspace factors."""
    field = np.zeros((3,) + y.shape)
    return SolverState(
        x=y.copy(),
        z=np.zeros_like(y),
        s=np.zeros_like(y),
        n=np.zeros_like(y),
        l=field.copy(),
        factors=init_factors(y, params.rank),
        lambda1=np.zeros_like(y),
        lambda2=np.zeros_like(y),
        lambda3=field.copy(),
        lambda4=np.zeros_like(y),
    )


@dataclass
class Workspace:
    """Scratch arrays that one solve allocates once and every sweep overwrites.

    Two cubes, one difference field and the complex (K, I, J//2 + 1)
    half-spectrum of the z solve cover every step; a step's result never
    lives here.
    """

    cube: np.ndarray
    cube2: np.ndarray
    field: np.ndarray
    half_spectrum: np.ndarray

    @classmethod
    def for_shape(cls, shape):
        k, i, j = shape
        return cls(
            np.empty(shape),
            np.empty(shape),
            np.empty((3,) + shape),
            np.empty((k, i, j // 2 + 1), dtype=np.complex128),
        )


def update_x(state, y, params, model, out=None, work=None):
    """Closed-form blend of the three consensus targets; ``model`` is compose(state.factors).

    The result goes to ``out`` when given, which must not be one of the
    arrays the blend reads (``state.x`` may be).
    """
    work = work or Workspace.for_shape(y.shape)
    # (beta1*(y - s - n) + lambda1 + beta2*z + lambda2 + beta4*model - lambda4)
    # / (beta1 + beta2 + beta4), term by term from the left
    num = np.subtract(y, state.s, out=out)
    num -= state.n
    num *= params.beta1
    num += state.lambda1
    num += np.multiply(state.z, params.beta2, out=work.cube)
    num += state.lambda2
    num += np.multiply(model, params.beta4, out=work.cube)
    num -= state.lambda4
    num /= params.beta1 + params.beta2 + params.beta4
    return num


def update_z(state, params, spectrum, out=None, work=None):
    """Exact solve of the screened TV normal equations for the consensus copy.

    The result goes to ``out`` when given (``state.z`` may be).
    """
    work = work or Workspace.for_shape(state.x.shape)
    # (beta2*x - lambda2) + D'(beta3*l + lambda3); the adjoint is formed
    # first, as its scratch is the cube that then holds the left term, and
    # a floating-point sum rounds the same in either order
    field = np.multiply(state.l, params.beta3, out=work.field)
    field += state.lambda3
    rhs = diff_adjoint(field, out=work.cube, scratch=work.cube2)
    left = np.multiply(state.x, params.beta2, out=work.cube2)
    left -= state.lambda2
    rhs += left
    return solve_z_system(rhs, spectrum, out=out, scratch=work.half_spectrum)


def update_l(state, params, dz, out=None, work=None):
    """Shrink the difference field ``dz`` = diff_forward(state.z) of the consensus copy."""
    work = work or Workspace.for_shape(state.x.shape)
    # shrink dz - lambda3/beta3
    shifted = np.divide(state.lambda3, params.beta3, out=work.field)
    np.subtract(dz, shifted, out=shifted)
    return soft_threshold(shifted, params.lambda_tv / params.beta3, out=out)


def update_s(state, y, params, out=None, work=None):
    """Shrink the split residual left for the sparse part."""
    work = work or Workspace.for_shape(y.shape)
    # shrink y - x - n + lambda1/beta1
    raw = np.subtract(y, state.x, out=work.cube)
    raw -= state.n
    raw += np.divide(state.lambda1, params.beta1, out=work.cube2)
    return soft_threshold(raw, params.lambda_s / params.beta1, out=out)


def update_n(state, y, params, out=None):
    """Ridge solve for the Gaussian part of the split residual."""
    # (beta1*(y - x - s) + lambda1) / (beta1 + 2*lambda_n)
    n = np.subtract(y, state.x, out=out)
    n -= state.s
    n *= params.beta1
    n += state.lambda1
    n /= params.beta1 + 2.0 * params.lambda_n
    return n


def update_multipliers(state, y, params, model, dz, work=None):
    """One dual ascent step on each constraint, in place on ``state``.

    Each residual is formed once in scratch: its Frobenius norm is taken,
    then it is scaled by beta and added to its multiplier.  The norms are
    returned in the order observation split, consensus copy, difference
    field, factor model.
    """
    work = work or Workspace.for_shape(y.shape)

    def step(lam, beta, residual):
        norm = frob_norm(residual)
        residual *= beta
        lam += residual
        return norm

    split = np.subtract(y, state.x, out=work.cube)
    split -= state.s
    split -= state.n
    return [
        step(state.lambda1, params.beta1, split),
        step(state.lambda2, params.beta2, np.subtract(state.z, state.x, out=work.cube)),
        step(state.lambda3, params.beta3, np.subtract(state.l, dz, out=work.field)),
        step(state.lambda4, params.beta4, np.subtract(state.x, model, out=work.cube)),
    ]


def convergence_check(change_sq, norm_sq, eps):
    """Squared relative change ||x_prev - x_new||^2 / ||x_new||^2 at most ``eps``.

    A zero new estimate counts as converged only if the change is zero too.
    """
    if norm_sq == 0.0:
        return change_sq == 0.0
    return change_sq / norm_sq <= eps


def objective_terms(x, s, n, factors, params):
    """Weighted objective split of a candidate solution, plus its total."""
    terms = {
        "tv": params.lambda_tv * l1_norm(diff_forward(x)),
        "sparse": params.lambda_s * l1_norm(s),
        "gaussian": params.lambda_n * frob_norm_sq(n),
        "low_rank": params.lambda_g
        * float(sum(nuclear_norm(factors.g[r]) for r in range(factors.g.shape[0]))),
    }
    terms["total"] = float(sum(terms.values()))
    return terms


def _check_finite(arr, step, sweep):
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"non-finite values after the {step} update in sweep {sweep}")


# step names a finiteness failure reports for x, z, l, s, n and the multipliers
_STEP_NAMES = (
    "estimate",
    "consensus",
    "difference-field",
    "sparse",
    "gaussian",
    "split multiplier",
    "consensus multiplier",
    "difference multiplier",
    "factor multiplier",
)


def solve(y, params):
    """Run the full ADMM loop on an observed cube.

    Returns (x, s, n, report): the denoised estimate, the sparse and
    Gaussian components, and a :class:`SolveReport`.  The observation is
    only read, never written; one of any memory layout or real dtype is
    read as a C-ordered float64 cube.
    """
    if y.ndim != 3:
        raise NumericError(f"expected a (K, I, J) observation, got {y.ndim} dimensions")
    # every array of the run, and every out= below, follows this layout
    y = np.ascontiguousarray(y, dtype=np.float64)
    if not np.all(np.isfinite(y)):
        raise NumericError("observation contains non-finite values")

    t0 = time.perf_counter()
    state = initialize_state(y, params)
    spectrum = tv_kernel_spectrum(y.shape, params.beta2, params.beta3)

    rel_change = []
    res_obs, res_cons, res_tv, res_fac = [], [], [], []
    degenerate = 0
    converged = False

    # every sweep writes into these; the estimate alternates between two
    # arrays, so the previous one stays readable without a copy
    x_next = np.empty(y.shape)
    model = np.empty(y.shape)
    dz = np.empty((3,) + y.shape)
    work = Workspace.for_shape(y.shape)

    for sweep in range(1, params.max_iter + 1):
        x_prev = state.x

        g = update_g(
            state.x,
            state.factors.c,
            state.lambda4,
            params.lambda_g,
            params.beta4,
            scratch=work.cube,
        )
        _check_finite(g, "abundance", sweep)
        state.factors = MvtfFactors(g=g, c=state.factors.c)

        target = procrustes_target(
            state.factors.g, state.x, state.lambda4, params.beta4, scratch=work.cube
        )
        c, sv = orthonormal_from_target(target)
        _check_finite(c, "signature", sweep)
        if sv[-1] <= 1e-12 * max(sv[0], np.finfo(float).tiny):
            degenerate += 1
        state.factors = MvtfFactors(g=state.factors.g, c=c)

        model = compose(state.factors, out=model)
        state.x = update_x(state, y, params, model, out=x_next, work=work)
        state.z = update_z(state, params, spectrum, out=state.z, work=work)
        dz = diff_forward(state.z, out=dz)
        state.l = update_l(state, params, dz, out=state.l, work=work)
        state.s = update_s(state, y, params, out=state.s, work=work)
        state.n = update_n(state, y, params, out=state.n)
        residuals = update_multipliers(state, y, params, model, dz, work=work)

        # a non-finite x, z, l, s or n reaches a residual norm, a non-finite
        # multiplier its squared norm; a finite array whose squared norm
        # overflowed passes the scan and the run goes on
        multipliers = (state.lambda1, state.lambda2, state.lambda3, state.lambda4)
        with np.errstate(over="ignore"):
            health = sum(residuals) + sum(frob_norm_sq(lam) for lam in multipliers)
        if not math.isfinite(health):
            arrays = (state.x, state.z, state.l, state.s, state.n) + multipliers
            for arr, step in zip(arrays, _STEP_NAMES):
                _check_finite(arr, step, sweep)

        state.iteration = sweep
        change_sq = frob_norm_sq(np.subtract(x_prev, state.x, out=work.cube))
        norm_sq = frob_norm_sq(state.x)
        rel_change.append(change_sq / norm_sq if norm_sq > 0.0 else 0.0)
        for trace, value in zip((res_obs, res_cons, res_tv, res_fac), residuals):
            trace.append(value)
        x_next = x_prev

        if convergence_check(change_sq, norm_sq, params.eps):
            converged = True
            break

    del x_prev, x_next, model, dz, work
    report = SolveReport(
        iterations=state.iteration,
        converged=converged,
        rel_change=rel_change,
        res_observation=res_obs,
        res_consensus=res_cons,
        res_tv=res_tv,
        res_factorization=res_fac,
        objective_terms=objective_terms(state.x, state.s, state.n, state.factors, params),
        degenerate_c_steps=degenerate,
        wall_time_s=time.perf_counter() - t0,
        params=asdict(params),
    )
    return state.x, state.s, state.n, report
